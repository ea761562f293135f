//! Work-stealing compute runtime for the COLPER reproduction.
//!
//! This crate provides [`Runtime`], a handle to a persistent pool of worker
//! threads with per-worker work-stealing deques. It exists because the build
//! environment is fully offline (no rayon), and because COLPER's determinism
//! guarantees require tighter control over reduction order than a generic
//! pool gives us.
//!
//! # Design
//!
//! * **One pool, many handles.** [`Runtime`] is a cheap [`Clone`] wrapper
//!   around an `Arc`'d pool. [`Runtime::sequential`] carries no pool at all
//!   and runs every primitive inline, which keeps tests and single-threaded
//!   CLI runs on the exact same code path as parallel runs.
//! * **Work stealing.** Parallel calls split work into chunks and distribute
//!   them round-robin over per-worker deques. Workers pop from the front of
//!   their own deque and steal from the back of others, so a pathologically
//!   skewed workload (one huge item among many tiny ones) no longer idles
//!   whole threads the way static `chunks()` scheduling did. The submitting
//!   thread participates in the work instead of blocking.
//! * **Determinism.** Every primitive produces results that are bit-identical
//!   to sequential execution. [`Runtime::par_for`], [`Runtime::par_map`] and
//!   [`Runtime::par_chunks_mut`] write to disjoint output slots, so
//!   scheduling cannot affect values. [`Runtime::par_reduce`] fixes its chunk
//!   boundaries as a function of `(n, grain)` only — never of the thread
//!   count — folds within each chunk in index order, and folds the partials
//!   in chunk order. The sequential path executes the *same* chunked
//!   reduction, so `Runtime::sequential()` and `Runtime::new(n)` agree to
//!   the last bit for any `n`.
//! * **Nested use runs inline.** Code executing inside a pool task that calls
//!   another `par_*` primitive runs it sequentially on the current thread.
//!   This cannot deadlock, never oversubscribes the machine, and keeps the
//!   outer level of parallelism (the widest loop) saturated.
//! * **Panic safety.** Panics inside parallel closures are caught on the
//!   executing thread, the first payload is stored, every task still
//!   completes its latch, and the payload is resumed on the submitting
//!   thread once the parallel region has fully quiesced. The pool survives
//!   and stays usable.
//!
//! # Safety
//!
//! This is the only crate in the workspace that contains `unsafe` code (all
//! other crates `#![forbid(unsafe_code)]`). The unsafe surface is small and
//! fully encapsulated:
//!
//! * Task closures are lifetime-erased raw pointers into the submitting
//!   thread's stack frame. Soundness comes from the latch protocol: the
//!   submitting call does not return (or unwind) until the completion latch
//!   reports that every task has finished executing, so the closure strictly
//!   outlives every dereference. The latch itself is `Arc`'d and owned by
//!   each task, so late latch operations never touch freed memory.
//! * [`Runtime::par_map`] writes into `MaybeUninit` slots through a shared
//!   pointer; disjointness is guaranteed because each index is produced by
//!   exactly one chunk. If a closure panics the partially-initialised buffer
//!   is leaked rather than dropped (values produced before the panic are not
//!   destructed); the panic itself still propagates.
//! * [`Runtime::par_chunks_mut`] re-slices one exclusive borrow into
//!   provably disjoint sub-slices, one per chunk index;
//!   [`Runtime::par_chunks_mut_pair`] does the same for two equally long
//!   borrows over one chunk split.

#![warn(missing_docs)]
#![deny(unsafe_op_in_unsafe_fn)]

use std::any::Any;
use std::cell::{Cell, RefCell};
use std::collections::VecDeque;
use std::fmt;
use std::mem::{ManuallyDrop, MaybeUninit};
use std::ops::Range;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::thread::JoinHandle;

thread_local! {
    /// True while this thread is executing a pool task (workers permanently,
    /// submitters while participating). Any `par_*` call made in that state
    /// runs inline.
    static IN_POOL: Cell<bool> = const { Cell::new(false) };
    /// Ambient runtime installed by [`Runtime::install`]; sequential by
    /// default. Deep layers (tensor ops, geometry queries) consult this
    /// instead of threading a handle through every signature.
    static AMBIENT: RefCell<Runtime> = RefCell::new(Runtime::sequential());
}

/// Locks a mutex, ignoring poisoning: the pool catches every panic before it
/// can unwind through a held lock, and the guarded state stays consistent
/// even when a recorded panic is later resumed on the submitting thread.
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

fn in_pool() -> bool {
    IN_POOL.with(Cell::get)
}

/// Restores the previous `IN_POOL` state on drop so panics unwind cleanly.
struct PoolGuard {
    prev: bool,
}

impl PoolGuard {
    fn enter() -> Self {
        let prev = IN_POOL.with(|f| f.replace(true));
        PoolGuard { prev }
    }
}

impl Drop for PoolGuard {
    fn drop(&mut self) {
        let prev = self.prev;
        IN_POOL.with(|f| f.set(prev));
    }
}

/// Completion latch shared by the submitting thread and every task of one
/// parallel region. `Arc`'d so a worker finishing the final task can signal
/// completion even if the submitter has already been woken spuriously.
struct Latch {
    remaining: AtomicUsize,
    panic: Mutex<Option<Box<dyn Any + Send>>>,
    done: Mutex<bool>,
    cv: Condvar,
}

impl Latch {
    fn new(count: usize) -> Arc<Self> {
        Arc::new(Latch {
            remaining: AtomicUsize::new(count),
            panic: Mutex::new(None),
            done: Mutex::new(false),
            cv: Condvar::new(),
        })
    }

    /// Records the first panic payload; later ones are dropped.
    fn record_panic(&self, payload: Box<dyn Any + Send>) {
        lock(&self.panic).get_or_insert(payload);
    }

    fn complete_one(&self) {
        if self.remaining.fetch_sub(1, Ordering::AcqRel) == 1 {
            let mut done = lock(&self.done);
            *done = true;
            self.cv.notify_all();
        }
    }

    fn is_done(&self) -> bool {
        self.remaining.load(Ordering::Acquire) == 0
    }

    fn wait(&self) {
        let mut done = lock(&self.done);
        while !*done {
            done = self.cv.wait(done).unwrap_or_else(PoisonError::into_inner);
        }
    }

    fn take_panic(&self) -> Option<Box<dyn Any + Send>> {
        lock(&self.panic).take()
    }
}

/// One schedulable chunk of a parallel region.
///
/// `job` is a lifetime-erased pointer to the chunk closure living on the
/// submitting thread's stack; see the module-level safety notes.
struct Task {
    job: *const (dyn Fn(usize) + Sync),
    latch: Arc<Latch>,
    index: usize,
}

// SAFETY: the raw closure pointer is only dereferenced while the submitting
// stack frame is pinned by the latch protocol, and the closure itself is
// required to be `Sync` (shared across threads) at submission time.
unsafe impl Send for Task {}

fn execute(task: Task) {
    // SAFETY: the submitting call waits on `task.latch` before returning, so
    // the closure behind `job` is alive for the duration of this call.
    let job = unsafe { &*task.job };
    if let Err(payload) = catch_unwind(AssertUnwindSafe(|| job(task.index))) {
        task.latch.record_panic(payload);
    }
    task.latch.complete_one();
}

/// State shared between the pool handle and its worker threads.
struct Shared {
    deques: Vec<Mutex<VecDeque<Task>>>,
    /// Submission epoch: bumped (under the lock) after tasks are pushed, so
    /// a worker that scanned the deques before the push cannot sleep through
    /// the wake-up (it re-scans whenever the epoch moved).
    epoch: Mutex<u64>,
    wake: Condvar,
    shutdown: AtomicBool,
}

impl Shared {
    /// Worker-side scan: own deque front first (cache-friendly FIFO), then
    /// steal from the back of the other deques.
    fn find_task(&self, own: usize) -> Option<Task> {
        let n = self.deques.len();
        if let Some(t) = lock(&self.deques[own]).pop_front() {
            colper_obs::worker_task(own);
            return Some(t);
        }
        for off in 1..n {
            if let Some(t) = lock(&self.deques[(own + off) % n]).pop_back() {
                colper_obs::worker_task(own);
                colper_obs::counters::RUNTIME_STEALS.incr();
                return Some(t);
            }
        }
        None
    }

    /// Submitter-side scan: steal from any deque while waiting on a latch.
    fn steal_any(&self) -> Option<Task> {
        for deque in &self.deques {
            if let Some(t) = lock(deque).pop_back() {
                return Some(t);
            }
        }
        None
    }
}

fn worker_loop(shared: Arc<Shared>) {
    IN_POOL.with(|f| f.set(true));
    // Every worker scans every deque, so a single index-0 start would do;
    // staggering by thread id just spreads initial contention.
    let own = std::thread::current()
        .name()
        .and_then(|n| n.rsplit('-').next())
        .and_then(|n| n.parse::<usize>().ok())
        .unwrap_or(0);
    let mut seen_epoch = 0u64;
    loop {
        if shared.shutdown.load(Ordering::Acquire) {
            return;
        }
        if let Some(task) = shared.find_task(own) {
            execute(task);
            continue;
        }
        let mut epoch = lock(&shared.epoch);
        if shared.shutdown.load(Ordering::Acquire) {
            return;
        }
        if *epoch == seen_epoch {
            // No submission since our (empty) scan: park until one arrives.
            epoch = shared.wake.wait(epoch).unwrap_or_else(PoisonError::into_inner);
        }
        seen_epoch = *epoch;
    }
}

/// The worker pool proper. Dropping it shuts the workers down and joins them.
struct Pool {
    shared: Arc<Shared>,
    handles: Mutex<Vec<JoinHandle<()>>>,
    /// Total parallelism including the submitting thread (= workers + 1).
    threads: usize,
}

impl Pool {
    fn new(threads: usize) -> Pool {
        debug_assert!(threads >= 2);
        let workers = threads - 1;
        let shared = Arc::new(Shared {
            deques: (0..workers).map(|_| Mutex::new(VecDeque::new())).collect(),
            epoch: Mutex::new(0),
            wake: Condvar::new(),
            shutdown: AtomicBool::new(false),
        });
        let handles = (0..workers)
            .map(|i| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("colper-runtime-{i}"))
                    .spawn(move || worker_loop(shared))
                    .expect("colper-runtime: failed to spawn worker thread")
            })
            .collect();
        Pool { shared, handles: Mutex::new(handles), threads }
    }

    /// Runs `job(chunk_index)` for every `chunk_index in 0..chunks` across
    /// the pool, participating from the calling thread, and propagates the
    /// first panic after all chunks have quiesced.
    ///
    /// `max_tasks` bounds how many pool tasks the region may occupy at
    /// once: task `t` executes chunks `t, t + tasks, t + 2·tasks, …` in
    /// increasing chunk order. The chunk ranges themselves never change,
    /// so a budgeted run computes bit-identical results — the cap only
    /// limits how many workers the region can draw from the shared pool.
    fn run_chunks(&self, chunks: usize, max_tasks: usize, job: &(dyn Fn(usize) + Sync)) {
        let tasks = chunks.min(max_tasks).max(1);
        let run_strided = move |t: usize| {
            let mut c = t;
            while c < chunks {
                job(c);
                c += tasks;
            }
        };
        let latch = Latch::new(tasks);
        // SAFETY: erases the closure's borrow lifetime. The latch wait below
        // guarantees this frame outlives every dereference of the pointer.
        let job: *const (dyn Fn(usize) + Sync) = unsafe {
            std::mem::transmute::<&(dyn Fn(usize) + Sync), *const (dyn Fn(usize) + Sync)>(
                &run_strided,
            )
        };
        let workers = self.shared.deques.len();
        for t in 0..tasks {
            let task = Task { job, latch: Arc::clone(&latch), index: t };
            lock(&self.shared.deques[t % workers]).push_back(task);
        }
        {
            let mut epoch = lock(&self.shared.epoch);
            *epoch = epoch.wrapping_add(1);
        }
        self.shared.wake.notify_all();
        // Participate: drain whatever is runnable (our chunks first and
        // foremost), then sleep on the latch once the deques are empty —
        // at that point every outstanding chunk is held by a worker.
        {
            let _guard = PoolGuard::enter();
            while !latch.is_done() {
                match self.shared.steal_any() {
                    Some(task) => {
                        colper_obs::counters::RUNTIME_SUBMITTER_TASKS.incr();
                        execute(task)
                    }
                    None => {
                        latch.wait();
                        break;
                    }
                }
            }
        }
        latch.wait();
        if let Some(payload) = latch.take_panic() {
            resume_unwind(payload);
        }
    }
}

impl Drop for Pool {
    fn drop(&mut self) {
        self.shared.shutdown.store(true, Ordering::Release);
        {
            let mut epoch = lock(&self.shared.epoch);
            *epoch = epoch.wrapping_add(1);
        }
        self.shared.wake.notify_all();
        for handle in lock(&self.handles).drain(..) {
            let _ = handle.join();
        }
    }
}

/// Raw pointer wrapper that lets `Fn` closures shared across pool threads
/// write to disjoint slots of one buffer.
struct SendPtr<T>(*mut T);

impl<T> SendPtr<T> {
    fn get(&self) -> *mut T {
        self.0
    }
}

// SAFETY: pointer-sized value; the runtime only ever writes through it at
// indices partitioned disjointly across tasks.
unsafe impl<T: Send> Send for SendPtr<T> {}
unsafe impl<T: Send> Sync for SendPtr<T> {}

/// Handle to the compute runtime: either a shared work-stealing pool or the
/// inline sequential executor. Cheap to clone and safe to share.
///
/// All primitives are bit-deterministic: for identical inputs they produce
/// results identical to [`Runtime::sequential`] regardless of thread count
/// or scheduling. See the module docs for the contract details.
#[derive(Clone, Default)]
pub struct Runtime {
    pool: Option<Arc<Pool>>,
    /// Upper bound on pool tasks one parallel region may occupy (`None`
    /// = the whole pool). Lets many jobs share a pool without any one
    /// of them saturating it; see [`Runtime::with_budget`].
    budget: Option<usize>,
}

impl fmt::Debug for Runtime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Runtime").field("threads", &self.threads()).finish()
    }
}

impl Runtime {
    /// Creates a runtime with `threads` total threads of parallelism (the
    /// calling thread participates, so `threads - 1` workers are spawned).
    /// `threads <= 1` yields the sequential runtime.
    pub fn new(threads: usize) -> Runtime {
        if threads <= 1 {
            Runtime::sequential()
        } else {
            Runtime { pool: Some(Arc::new(Pool::new(threads))), budget: None }
        }
    }

    /// The inline executor: every primitive runs on the calling thread, in
    /// index order. This is the reference behaviour all parallel execution
    /// is required to reproduce bit-identically.
    pub fn sequential() -> Runtime {
        Runtime { pool: None, budget: None }
    }

    /// A handle onto the same pool whose parallel regions may occupy at
    /// most `max_tasks` pool tasks at a time (clamped to at least 1).
    ///
    /// This is how a job scheduler carves per-job thread budgets out of
    /// one shared pool: every job gets a budgeted clone, the pool itself
    /// is sized once for the machine, and no single job can starve the
    /// others. Results are bit-identical to the unbudgeted handle —
    /// chunk boundaries never depend on the budget, only the number of
    /// concurrently scheduled tasks does.
    #[must_use]
    pub fn with_budget(mut self, max_tasks: usize) -> Runtime {
        self.budget = Some(max_tasks.max(1));
        self
    }

    /// Builds a runtime from the environment: `COLPER_THREADS` if set (and
    /// a positive integer), otherwise the machine's available parallelism.
    pub fn from_env() -> Runtime {
        let threads = std::env::var("COLPER_THREADS")
            .ok()
            .and_then(|v| v.parse::<usize>().ok())
            .filter(|&t| t >= 1)
            .unwrap_or_else(|| std::thread::available_parallelism().map_or(1, |n| n.get()));
        Runtime::new(threads)
    }

    /// Total parallelism of this runtime (1 for the sequential runtime),
    /// after applying any task budget ([`Runtime::with_budget`]).
    pub fn threads(&self) -> usize {
        let pool = self.pool.as_ref().map_or(1, |p| p.threads);
        pool.min(self.budget.unwrap_or(usize::MAX))
    }

    /// True when this handle has no worker pool and runs everything inline.
    pub fn is_sequential(&self) -> bool {
        self.pool.is_none()
    }

    /// Installs this runtime as the ambient runtime (see [`current`]) for
    /// the duration of `f` on the current thread, restoring the previous
    /// ambient runtime afterwards (also on panic).
    pub fn install<R>(&self, f: impl FnOnce() -> R) -> R {
        struct Restore {
            prev: Option<Runtime>,
        }
        impl Drop for Restore {
            fn drop(&mut self) {
                if let Some(prev) = self.prev.take() {
                    AMBIENT.with(|a| *a.borrow_mut() = prev);
                }
            }
        }
        let prev = AMBIENT.with(|a| std::mem::replace(&mut *a.borrow_mut(), self.clone()));
        let _restore = Restore { prev: Some(prev) };
        f()
    }

    /// Should this call run inline? (No pool, nested inside a pool task,
    /// not enough chunks to be worth scheduling, or a budget of 1.)
    fn pool_for(&self, chunks: usize) -> Option<&Pool> {
        if chunks < 2 || in_pool() || self.threads() < 2 {
            return None;
        }
        self.pool.as_deref()
    }

    /// Runs `f` over `0..n` split into chunks of `grain` indices (the last
    /// chunk may be shorter). Chunk boundaries depend only on `(n, grain)`;
    /// the sequential path visits the same chunks in index order.
    ///
    /// # Panics
    ///
    /// Panics when `grain == 0`. Panics from `f` are propagated after the
    /// whole region has quiesced.
    pub fn par_for_chunks(&self, n: usize, grain: usize, f: impl Fn(Range<usize>) + Sync) {
        assert!(grain >= 1, "par_for_chunks: grain must be at least 1");
        if n == 0 {
            return;
        }
        let chunks = n.div_ceil(grain);
        let chunk_range = |c: usize| c * grain..n.min((c + 1) * grain);
        match self.pool_for(chunks) {
            None => {
                for c in 0..chunks {
                    f(chunk_range(c));
                }
            }
            Some(pool) => {
                pool.run_chunks(chunks, self.budget.unwrap_or(usize::MAX), &|c| f(chunk_range(c)))
            }
        }
    }

    /// Runs `f(i)` for every `i in 0..n` with an automatically chosen grain.
    /// `f` must tolerate any execution order; use output slots, not shared
    /// accumulators, for deterministic results.
    pub fn par_for(&self, n: usize, f: impl Fn(usize) + Sync) {
        let grain = n.div_ceil(4 * self.threads()).max(1);
        self.par_for_chunks(n, grain, |range| {
            for i in range {
                f(i);
            }
        });
    }

    /// Maps `0..n` through `f`, preserving index order in the result.
    /// Equivalent to `(0..n).map(f).collect()` but parallel.
    pub fn par_map<T: Send>(&self, n: usize, f: impl Fn(usize) -> T + Sync) -> Vec<T> {
        self.par_map_grained(n, n.div_ceil(4 * self.threads()).max(1), f)
    }

    /// [`Runtime::par_map`] with an explicit grain: each pool task maps
    /// `grain` consecutive indices. Pass `grain = 1` when the items are few
    /// and individually heavy (whole attack runs, per-cloud geometry plans)
    /// so an idle thread can steal single items instead of waiting out a
    /// skewed chunk.
    ///
    /// # Panics
    ///
    /// Panics when `grain == 0`.
    pub fn par_map_grained<T: Send>(
        &self,
        n: usize,
        grain: usize,
        f: impl Fn(usize) -> T + Sync,
    ) -> Vec<T> {
        let mut out: Vec<MaybeUninit<T>> = (0..n).map(|_| MaybeUninit::uninit()).collect();
        let ptr = SendPtr(out.as_mut_ptr());
        self.par_for_chunks(n, grain, |range| {
            for i in range {
                // SAFETY: each index is written exactly once, by the single
                // chunk that owns it; `out` is not touched until quiescence.
                unsafe { (*ptr.get().add(i)).write(f(i)) };
            }
        });
        // Reaching here means no closure panicked, so all n slots are
        // initialised. On panic the buffer leaks instead (see module docs).
        let mut out = ManuallyDrop::new(out);
        // SAFETY: Vec<MaybeUninit<T>> and Vec<T> have identical layout and
        // every element is initialised.
        unsafe { Vec::from_raw_parts(out.as_mut_ptr().cast::<T>(), out.len(), out.capacity()) }
    }

    /// Deterministic parallel reduction: maps every `i in 0..n` and folds in
    /// a fixed order. `0..n` is split into chunks of `grain` (boundaries are
    /// a function of `(n, grain)` only — never of the thread count); each
    /// chunk folds its mapped values in index order, and the per-chunk
    /// partials are folded in chunk order on the calling thread. For a given
    /// `(n, grain, map, fold)` the result is bit-identical on any runtime,
    /// including [`Runtime::sequential`]. Returns `None` when `n == 0`.
    ///
    /// # Panics
    ///
    /// Panics when `grain == 0`.
    pub fn par_reduce<T: Send>(
        &self,
        n: usize,
        grain: usize,
        map: impl Fn(usize) -> T + Sync,
        fold: impl Fn(T, T) -> T + Sync,
    ) -> Option<T> {
        assert!(grain >= 1, "par_reduce: grain must be at least 1");
        if n == 0 {
            return None;
        }
        let chunks = n.div_ceil(grain);
        let partials = self.par_map(chunks, |c| {
            let start = c * grain;
            let end = n.min(start + grain);
            let mut acc = map(start);
            for i in start + 1..end {
                acc = fold(acc, map(i));
            }
            acc
        });
        partials.into_iter().reduce(&fold)
    }

    /// Splits `data` into consecutive chunks of `chunk` elements (the last
    /// may be shorter) and runs `f(chunk_index, chunk_slice)` for each, in
    /// parallel. The chunks are disjoint, so this is the building block for
    /// writing different regions of one buffer from different threads.
    ///
    /// # Panics
    ///
    /// Panics when `chunk == 0`.
    pub fn par_chunks_mut<T: Send>(
        &self,
        data: &mut [T],
        chunk: usize,
        f: impl Fn(usize, &mut [T]) + Sync,
    ) {
        assert!(chunk >= 1, "par_chunks_mut: chunk must be at least 1");
        let n = data.len();
        let ptr = SendPtr(data.as_mut_ptr());
        self.par_for_chunks(n, chunk, |range| {
            let c = range.start / chunk;
            // SAFETY: ranges produced by par_for_chunks partition 0..n, so
            // the sub-slices are disjoint views of the exclusive borrow.
            let sub =
                unsafe { std::slice::from_raw_parts_mut(ptr.get().add(range.start), range.len()) };
            f(c, sub);
        });
    }

    /// [`Runtime::par_chunks_mut`] over two equally long slices at once:
    /// chunk `c` of `a` and chunk `c` of `b` (the same index range) go to
    /// one call `f(c, a_chunk, b_chunk)`. For kernels that write two
    /// outputs per element, such as a pooled value and the row it came
    /// from.
    ///
    /// # Panics
    ///
    /// Panics when `chunk == 0` or the slices differ in length.
    pub fn par_chunks_mut_pair<A: Send, B: Send>(
        &self,
        a: &mut [A],
        b: &mut [B],
        chunk: usize,
        f: impl Fn(usize, &mut [A], &mut [B]) + Sync,
    ) {
        assert!(chunk >= 1, "par_chunks_mut_pair: chunk must be at least 1");
        assert_eq!(a.len(), b.len(), "par_chunks_mut_pair: slice length mismatch");
        let (pa, pb) = (SendPtr(a.as_mut_ptr()), SendPtr(b.as_mut_ptr()));
        self.par_for_chunks(a.len(), chunk, |range| {
            // SAFETY: ranges produced by par_for_chunks partition 0..n and
            // both slices are n long, so each pair of sub-slices is a
            // disjoint view of its slice's exclusive borrow.
            let (sa, sb) = unsafe {
                (
                    std::slice::from_raw_parts_mut(pa.get().add(range.start), range.len()),
                    std::slice::from_raw_parts_mut(pb.get().add(range.start), range.len()),
                )
            };
            f(range.start / chunk, sa, sb);
        });
    }
}

/// The ambient runtime for the current thread: whatever [`Runtime::install`]
/// put in scope, or the sequential runtime by default. Deep compute layers
/// (tensor matmuls, k-NN queries) consult this so parallelism reaches them
/// without threading a handle through every call signature.
pub fn current() -> Runtime {
    AMBIENT.with(|a| a.borrow().clone())
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU32;

    #[test]
    fn sequential_runtime_reports_one_thread() {
        let rt = Runtime::sequential();
        assert_eq!(rt.threads(), 1);
        assert!(rt.is_sequential());
        assert!(Runtime::new(0).is_sequential());
        assert!(Runtime::new(1).is_sequential());
        assert_eq!(Runtime::new(3).threads(), 3);
    }

    #[test]
    fn par_for_covers_every_index_exactly_once() {
        let rt = Runtime::new(4);
        let n = 1000;
        let hits: Vec<AtomicU32> = (0..n).map(|_| AtomicU32::new(0)).collect();
        rt.par_for(n, |i| {
            hits[i].fetch_add(1, Ordering::Relaxed);
        });
        assert!(hits.iter().all(|h| h.load(Ordering::Relaxed) == 1));
    }

    #[test]
    fn par_map_preserves_index_order() {
        let rt = Runtime::new(4);
        let got = rt.par_map(997, |i| i * 3 + 1);
        let want: Vec<usize> = (0..997).map(|i| i * 3 + 1).collect();
        assert_eq!(got, want);
        // Heap-owning payloads survive the slot-transmute too.
        let strings = rt.par_map(64, |i| format!("item-{i}"));
        assert!(strings.iter().enumerate().all(|(i, s)| s == &format!("item-{i}")));
    }

    #[test]
    fn work_stealing_survives_pathologically_skewed_load() {
        // One item carries ~all the work; static chunking would serialise
        // the heavy chunk behind its deque owner, stealing lets everyone
        // finish the tail. Correctness assert only (the host may have one
        // core): full coverage, no duplicates, order-preserving output.
        let rt = Runtime::new(4);
        let n = 256;
        let out = rt.par_map(n, |i| {
            if i == 0 {
                std::thread::sleep(std::time::Duration::from_millis(30));
            }
            i as u64 * 7
        });
        assert_eq!(out, (0..n as u64).map(|i| i * 7).collect::<Vec<_>>());
    }

    #[test]
    fn par_reduce_is_bit_identical_across_thread_counts() {
        // Mixed magnitudes make float summation order-sensitive, so any
        // scheduling leak into reduction order would change the bits.
        let vals: Vec<f32> =
            (0..10_000).map(|i| ((i * 2654435761_usize) % 1000) as f32 * 1e-3 + 1e4).collect();
        let grain = 128;
        let sum = |rt: &Runtime| {
            rt.par_reduce(vals.len(), grain, |i| vals[i], |a, b| a + b).unwrap().to_bits()
        };
        let seq = sum(&Runtime::sequential());
        assert_eq!(seq, sum(&Runtime::new(2)));
        assert_eq!(seq, sum(&Runtime::new(5)));
    }

    #[test]
    fn par_reduce_empty_and_single() {
        let rt = Runtime::new(3);
        assert_eq!(rt.par_reduce(0, 4, |i| i, |a, b| a + b), None);
        assert_eq!(rt.par_reduce(1, 4, |i| i + 41, |a, b| a + b), Some(41));
    }

    #[test]
    fn par_chunks_mut_writes_disjoint_regions() {
        let rt = Runtime::new(4);
        let mut data = vec![0u32; 1003];
        rt.par_chunks_mut(&mut data, 64, |c, sub| {
            for (off, v) in sub.iter_mut().enumerate() {
                *v = (c * 64 + off) as u32;
            }
        });
        assert!(data.iter().enumerate().all(|(i, &v)| v == i as u32));
    }

    #[test]
    fn par_chunks_mut_pair_hands_out_matching_regions() {
        let rt = Runtime::new(4);
        let (mut vals, mut rows) = (vec![0.0f32; 1003], vec![0usize; 1003]);
        rt.par_chunks_mut_pair(&mut vals, &mut rows, 64, |c, va, ro| {
            assert_eq!(va.len(), ro.len());
            for (off, (v, r)) in va.iter_mut().zip(ro.iter_mut()).enumerate() {
                *r = c * 64 + off;
                *v = *r as f32;
            }
        });
        assert!(rows.iter().enumerate().all(|(i, &r)| r == i));
        assert!(vals.iter().zip(&rows).all(|(&v, &r)| v == r as f32));
    }

    #[test]
    fn nested_calls_run_inline_without_deadlock() {
        let rt = Runtime::new(4);
        let outer = rt.par_map(16, |i| {
            // Nested par_map inside a pool task must run inline.
            let inner = current().par_map(8, |j| i * 8 + j);
            let nested = rt.par_map(4, |j| j).iter().sum::<usize>();
            inner.iter().sum::<usize>() + nested
        });
        let want: Vec<usize> =
            (0..16).map(|i| (0..8).map(|j| i * 8 + j).sum::<usize>() + 6).collect();
        assert_eq!(outer, want);
    }

    #[test]
    fn panic_propagates_and_pool_stays_usable() {
        let rt = Runtime::new(4);
        let res = catch_unwind(AssertUnwindSafe(|| {
            rt.par_for(100, |i| {
                if i == 37 {
                    panic!("boom at {i}");
                }
            });
        }));
        assert!(res.is_err());
        // The pool must have fully quiesced and remain usable.
        let after = rt.par_map(50, |i| i + 1);
        assert_eq!(after, (1..=50).collect::<Vec<_>>());
    }

    #[test]
    fn nested_panic_propagates_through_outer_region() {
        let rt = Runtime::new(4);
        let res = catch_unwind(AssertUnwindSafe(|| {
            rt.par_for(8, |i| {
                rt.par_for(8, |j| {
                    if i == 3 && j == 5 {
                        panic!("nested boom");
                    }
                });
            });
        }));
        assert!(res.is_err());
        assert_eq!(rt.par_map(4, |i| i), vec![0, 1, 2, 3]);
    }

    #[test]
    fn install_scopes_the_ambient_runtime() {
        assert!(current().is_sequential());
        let rt = Runtime::new(2);
        rt.install(|| {
            assert_eq!(current().threads(), 2);
            Runtime::sequential().install(|| assert!(current().is_sequential()));
            assert_eq!(current().threads(), 2);
        });
        assert!(current().is_sequential());
        // Restored even when the scope unwinds.
        let res = catch_unwind(AssertUnwindSafe(|| rt.install(|| panic!("scoped"))));
        assert!(res.is_err());
        assert!(current().is_sequential());
    }

    #[test]
    fn par_for_chunks_boundaries_are_fixed() {
        for rt in [Runtime::sequential(), Runtime::new(3)] {
            let ranges = Mutex::new(Vec::new());
            rt.par_for_chunks(10, 4, |r| ranges.lock().unwrap().push((r.start, r.end)));
            let mut got = ranges.into_inner().unwrap();
            got.sort_unstable();
            assert_eq!(got, vec![(0, 4), (4, 8), (8, 10)]);
        }
    }

    #[test]
    fn budgeted_runtime_caps_concurrency_and_keeps_results() {
        let rt = Runtime::new(4).with_budget(2);
        assert_eq!(rt.threads(), 2);
        assert!(!rt.is_sequential());
        let live = AtomicUsize::new(0);
        let peak = AtomicUsize::new(0);
        let out = rt.par_map_grained(64, 1, |i| {
            let now = live.fetch_add(1, Ordering::SeqCst) + 1;
            peak.fetch_max(now, Ordering::SeqCst);
            std::thread::sleep(std::time::Duration::from_micros(200));
            live.fetch_sub(1, Ordering::SeqCst);
            i * 2
        });
        assert_eq!(out, (0..64).map(|i| i * 2).collect::<Vec<_>>());
        let peak = peak.load(Ordering::SeqCst);
        assert!(peak <= 2, "budget 2 exceeded: {peak} chunks ran concurrently");
    }

    #[test]
    fn budget_of_one_runs_inline() {
        let rt = Runtime::new(4).with_budget(1);
        assert_eq!(rt.threads(), 1);
        let submitter = std::thread::current().id();
        rt.par_for(32, |_| assert_eq!(std::thread::current().id(), submitter));
    }

    #[test]
    fn budgeted_reduce_is_bit_identical() {
        let vals: Vec<f32> =
            (0..5_000).map(|i| ((i * 2654435761_usize) % 997) as f32 * 1e-3 + 3e3).collect();
        let sum = |rt: &Runtime| {
            rt.par_reduce(vals.len(), 64, |i| vals[i], |a, b| a + b).unwrap().to_bits()
        };
        let seq = sum(&Runtime::sequential());
        for budget in 1..=5 {
            assert_eq!(seq, sum(&Runtime::new(4).with_budget(budget)), "budget {budget}");
        }
    }

    #[test]
    fn dropping_the_runtime_joins_workers() {
        let rt = Runtime::new(4);
        let sum = rt.par_reduce(100, 10, |i| i as u64, |a, b| a + b);
        assert_eq!(sum, Some(4950));
        drop(rt); // must not hang
    }
}
