//! `colperd_mix`: an open loop against colperd at its default shape (2
//! workers, 2 compute threads). A seeded Poisson schedule is built
//! before the run and sent by at most two threads with one connection
//! each; latency is timed from each job's due time, so a stall is
//! charged to every job it delays, and the generator reports its lag.

use crate::checks::{self, JobAnswer, JobAsk};
use crate::report::{peak_rss_mib, Metric, Outcome};
use crate::stats::{max, median, mix, percentile, unit};
use crate::trace::Tracer;
use crate::Options;
use colper_repro::serve::client::http_request;
use colper_repro::serve::{ServeConfig, Server};
use std::io::{BufRead, BufReader, Write as _};
use std::process::{Child, Command, ExitCode, Stdio};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, Instant};

/// Arrival rate of the schedule, well below saturation on 2 vCPUs.
pub const RATE: f64 = 20.0;
pub const STEPS: usize = 10;
pub const OBJECTIVE: &str = "non_targeted";
pub const MODELS: [(&str, f64); 2] = [("pointnet", 0.7), ("resgcn", 0.3)];
/// Job sizes. Sorted by latency the classes run resgcn/256, pointnet/256,
/// resgcn/1024, pointnet/1024, resgcn/4096, pointnet/4096; these shares
/// put p50 at the middle of pointnet/256 and p90 in the lower third of
/// pointnet/4096, away from the queueing tails where they would jump
/// from run to run.
pub const SIZES: [(usize, f64); 3] = [(256, 0.75), (1024, 0.05), (4096, 0.20)];
const INTERACTIVE: f64 = 0.3;
const STREAMED: f64 = 0.2;
const SETUP_REPS: usize = 3;
/// Length of the short schedule behind the serve layer metrics when
/// another workload is traced.
const PROBE_SECONDS: f64 = 8.0;

/// One scheduled job.
#[derive(Debug, Clone, PartialEq)]
pub struct Job {
    /// Seconds after the schedule starts that the job is due.
    pub due_s: f64,
    pub model: &'static str,
    pub points: usize,
    pub interactive: bool,
    pub stream: bool,
    pub seed: u64,
}

impl Job {
    pub fn body(&self) -> String {
        format!(
            "{{\"model\":\"{}\",\"points\":{},\"steps\":{STEPS},\"seed\":{},\"objective\":\"{OBJECTIVE}\",\
             \"priority\":\"{}\",\"stream\":{}}}",
            self.model,
            self.points,
            self.seed,
            if self.interactive { "interactive" } else { "batch" },
            self.stream
        )
    }

    pub fn ask(&self) -> JobAsk {
        JobAsk {
            model: self.model,
            points: self.points,
            steps: STEPS,
            objective: OBJECTIVE,
            stream: self.stream,
        }
    }
}

/// Exactly `n` items with each item's share of `weighted` rounded by
/// largest remainder.
fn exact_shares<T: Copy>(weighted: &[(T, f64)], n: usize) -> Vec<T> {
    let raw: Vec<f64> = weighted.iter().map(|&(_, w)| w * n as f64).collect();
    let mut counts: Vec<usize> = raw.iter().map(|r| r.floor() as usize).collect();
    let mut order: Vec<usize> = (0..raw.len()).collect();
    order.sort_by(|&a, &b| {
        (raw[b] - raw[b].floor()).total_cmp(&(raw[a] - raw[a].floor())).then(a.cmp(&b))
    });
    let short = n - counts.iter().sum::<usize>();
    for &i in order.iter().take(short) {
        counts[i] += 1;
    }
    weighted.iter().zip(counts).flat_map(|(&(item, _), c)| std::iter::repeat_n(item, c)).collect()
}

/// Fisher-Yates shuffle driven by sub-seeds of `seed`.
fn shuffled<T>(mut items: Vec<T>, seed: u64, stream: u64) -> Vec<T> {
    for i in (1..items.len()).rev() {
        let j = (unit(mix(seed, stream, i as u64)) * (i + 1) as f64) as usize;
        items.swap(i, j.min(i));
    }
    items
}

/// The seeded schedule of `seconds` seconds at [`RATE`]: a Poisson
/// process conditioned on its count, so `RATE * seconds` arrival times
/// drawn uniformly and sorted. Every class gets exactly its share of
/// the jobs, so the offered work and the percentiles' classes do not
/// change with the seed; the seed shuffles which job gets which class.
pub fn schedule(seed: u64, seconds: f64) -> Vec<Job> {
    let n = (RATE * seconds).round() as usize;
    let mut due: Vec<f64> = (0..n).map(|i| seconds * unit(mix(seed, 10, i as u64))).collect();
    due.sort_by(f64::total_cmp);
    let combos: Vec<((&'static str, usize), f64)> = MODELS
        .iter()
        .flat_map(|&(m, wm)| SIZES.iter().map(move |&(p, wp)| ((m, p), wm * wp)))
        .collect();
    let kinds = shuffled(exact_shares(&combos, n), seed, 11);
    let interactive =
        shuffled(exact_shares(&[(true, INTERACTIVE), (false, 1.0 - INTERACTIVE)], n), seed, 12);
    let stream = shuffled(exact_shares(&[(true, STREAMED), (false, 1.0 - STREAMED)], n), seed, 13);
    (0..n)
        .map(|i| Job {
            due_s: due[i],
            model: kinds[i].0,
            points: kinds[i].1,
            interactive: interactive[i],
            stream: stream[i],
            seed: mix(seed, 14, i as u64) % 1_000_000_007,
        })
        .collect()
}

/// One warm-up job per (model, size, stream) combination.
fn warm_up_jobs() -> Vec<Job> {
    let mut jobs = Vec::new();
    for (model, _) in MODELS {
        for (points, _) in SIZES {
            for stream in [false, true] {
                let seed = jobs.len() as u64 + 1;
                jobs.push(Job { due_s: 0.0, model, points, interactive: false, stream, seed });
            }
        }
    }
    jobs
}

/// The `--serve` mode: colperd's `Server` at `ServeConfig::default()`,
/// bound to a free local port that is printed on the first line.
pub fn serve_forever() -> ExitCode {
    let config = ServeConfig { addr: "127.0.0.1:0".to_string(), ..ServeConfig::default() };
    let server = match Server::start(&config) {
        Ok(server) => server,
        Err(e) => {
            eprintln!("perfbench --serve: cannot start: {e}");
            return ExitCode::FAILURE;
        }
    };
    println!("listening {}", server.local_addr());
    let _ = std::io::stdout().flush();
    loop {
        std::thread::park();
    }
}

/// A colperd child process, killed and reaped on drop.
pub struct ServerProc {
    child: Child,
    pub addr: String,
}

impl ServerProc {
    pub fn spawn() -> Result<ServerProc, String> {
        let exe = std::env::current_exe().map_err(|e| format!("current exe: {e}"))?;
        let mut child = Command::new(exe)
            .arg("--serve")
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .spawn()
            .map_err(|e| format!("spawn server: {e}"))?;
        let mut line = String::new();
        let stdout = child.stdout.take().expect("piped stdout");
        let read = BufReader::new(stdout).read_line(&mut line);
        let mut proc = ServerProc { child, addr: String::new() };
        match (read, line.trim().strip_prefix("listening ")) {
            (Ok(_), Some(addr)) => {
                proc.addr = addr.to_string();
                Ok(proc)
            }
            _ => Err(format!("server did not report its address: {line:?}")),
        }
    }

    pub fn peak_rss_mib(&self) -> Option<f64> {
        peak_rss_mib(Some(self.child.id()))
    }
}

impl Drop for ServerProc {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

/// Starts a server and runs the warm-up jobs against it. Each warm-up
/// job goes out on both connections at once, so both workers warm a
/// seat for every (model, size) key and the timed phase starts with the
/// seats it will use.
fn set_up() -> Result<ServerProc, String> {
    let server = ServerProc::spawn()?;
    match http_request(&server.addr, "GET", "/healthz", "") {
        Ok((200, _)) => {}
        other => return Err(format!("healthz: {other:?}")),
    }
    let send = |job: &Job| {
        let (status, body) = http_request(&server.addr, "POST", "/attack", &job.body())
            .map_err(|e| format!("warm-up job: {e}"))?;
        checks::job_answer(status, &body, &job.ask()).map_err(|e| format!("warm-up job: {e}"))
    };
    for job in warm_up_jobs() {
        std::thread::scope(|s| {
            let twin = s.spawn(|| send(&job));
            let mine = send(&job);
            twin.join().expect("warm-up thread").and(mine)
        })?;
    }
    Ok(server)
}

/// What the client saw of one job.
#[derive(Debug)]
struct Record {
    index: usize,
    sent: Instant,
    done: Instant,
    lag_ms: f64,
    latency_ms: f64,
    answer: Result<JobAnswer, String>,
}

/// Sends `jobs` on their schedule over at most two connections.
fn drive(addr: &str, jobs: &[Job]) -> (Vec<Record>, f64) {
    let connections = crate::report::host_parallelism().clamp(1, 2);
    let next = AtomicUsize::new(0);
    let start = Instant::now() + Duration::from_millis(20);
    let mut records: Vec<Record> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..connections)
            .map(|_| {
                s.spawn(|| {
                    let mut mine = Vec::new();
                    loop {
                        let index = next.fetch_add(1, Ordering::Relaxed);
                        let Some(job) = jobs.get(index) else { break };
                        let due = start + Duration::from_secs_f64(job.due_s);
                        if let Some(wait) = due.checked_duration_since(Instant::now()) {
                            std::thread::sleep(wait);
                        }
                        let sent = Instant::now();
                        let answer = http_request(addr, "POST", "/attack", &job.body())
                            .map_err(|e| format!("request: {e}"))
                            .and_then(|(status, body)| {
                                checks::job_answer(status, &body, &job.ask())
                            });
                        let done = Instant::now();
                        mine.push(Record {
                            index,
                            sent,
                            done,
                            lag_ms: sent.saturating_duration_since(due).as_secs_f64() * 1e3,
                            latency_ms: done.saturating_duration_since(due).as_secs_f64() * 1e3,
                            answer,
                        });
                    }
                    mine
                })
            })
            .collect();
        handles.into_iter().flat_map(|h| h.join().expect("client thread")).collect()
    });
    records.sort_by_key(|r| r.index);
    let end = records.iter().map(|r| r.done).max().unwrap_or(start);
    (records, end.saturating_duration_since(start).as_secs_f64())
}

fn ok_answers(records: &[Record]) -> impl Iterator<Item = (&Record, &JobAnswer)> {
    records.iter().filter_map(|r| r.answer.as_ref().ok().map(|a| (r, a)))
}

fn p(xs: &[f64], q: f64) -> f64 {
    percentile(xs, q).unwrap_or(f64::NAN)
}

/// The serve and client layer metrics, from the answers plus the client
/// clock.
fn layer_metrics(records: &[Record]) -> Vec<Metric> {
    let ok: Vec<(&Record, &JobAnswer)> = ok_answers(records).collect();
    let n = ok.len();
    let queue: Vec<f64> = ok.iter().map(|(_, a)| a.queue_ms).collect();
    let run: Vec<f64> = ok.iter().map(|(_, a)| a.run_ms).collect();
    let overhead: Vec<f64> = ok
        .iter()
        .map(|(r, a)| r.done.duration_since(r.sent).as_secs_f64() * 1e3 - a.queue_ms - a.run_ms)
        .collect();
    let lag: Vec<f64> = records.iter().map(|r| r.lag_ms).collect();
    let warm = ok.iter().filter(|(_, a)| a.warm_start).count();
    vec![
        Metric::new("serve.queue_ms.p50", p(&queue, 0.5), "ms", n),
        Metric::new("serve.run_ms.p50", p(&run, 0.5), "ms", n),
        Metric::new("serve.run_ms.p90", p(&run, 0.9), "ms", n),
        Metric::new("serve.overhead_ms.p50", p(&overhead, 0.5), "ms", n),
        Metric::new("serve.warm_ratio", warm as f64 / n.max(1) as f64, "1", n),
        Metric::new("client.lag_ms.p50", p(&lag, 0.5), "ms", lag.len()),
        Metric::new("client.lag_ms.max", max(&lag).unwrap_or(f64::NAN), "ms", lag.len()),
    ]
}

pub fn run(opts: &Options, tracer: &mut Tracer) -> Result<Outcome, String> {
    let reps = if opts.trace { 1 } else { SETUP_REPS };
    let mut setup_s = Vec::new();
    let mut server = None;
    for _ in 0..reps {
        drop(server.take());
        let started = Instant::now();
        server = Some(set_up()?);
        setup_s.push(started.elapsed().as_secs_f64());
    }
    let server = server.expect("at least one set-up");
    let jobs = schedule(opts.seed, opts.seconds_f64());
    let (records, elapsed_s) = drive(&server.addr, &jobs);
    let rss = server.peak_rss_mib().unwrap_or(f64::NAN);
    drop(server);

    let mut out = Outcome { attempted: records.len() as u64, ..Outcome::default() };
    for r in &records {
        if let Err(e) = &r.answer {
            out.fail(&format!("job {}", r.index), e);
        }
    }
    let ok: Vec<(&Record, &JobAnswer)> = ok_answers(&records).collect();
    let latency: Vec<f64> = ok.iter().map(|(r, _)| r.latency_ms).collect();
    let points: usize = ok.iter().map(|(r, _)| jobs[r.index].points).sum();
    let adv =
        100.0 * ok.iter().map(|(_, a)| a.success_metric).sum::<f64>() / ok.len().max(1) as f64;
    let setup = median(&setup_s).unwrap_or(f64::NAN);
    let (p50, p90) = (p(&latency, 0.5), p(&latency, 0.9));
    out.gated = vec![
        Metric::new("setup_s", setup, "s", setup_s.len()),
        Metric::new("peak_rss_mib", rss, "MiB", 1),
        Metric::new("latency_p50_ms", p50, "ms", latency.len()),
        Metric::new("points_per_s", points as f64 / elapsed_s, "1/s", ok.len()),
        Metric::new("adv_accuracy", adv, "%", ok.len()),
    ];
    out.workload = vec![
        Metric::new("setup_s", setup, "s", setup_s.len()),
        Metric::new("peak_rss_mib", rss, "MiB", 1),
        Metric::new(
            "fail_ratio",
            out.failed as f64 / out.attempted.max(1) as f64,
            "1",
            records.len(),
        ),
        Metric::new("job_p50_ms", p50, "ms", latency.len()),
        Metric::new("job_p90_ms", p90, "ms", latency.len()),
    ];
    out.notes.push(format!(
        "colperd_mix: {} jobs due over {:.1}s at {RATE} jobs/s, last answer at {elapsed_s:.2}s, set-up reps {:?}",
        jobs.len(),
        opts.seconds_f64(),
        setup_s.iter().map(|s| (s * 1e3).round() / 1e3).collect::<Vec<_>>(),
    ));
    let classes: Vec<String> = MODELS
        .iter()
        .flat_map(|&(m, _)| SIZES.iter().map(move |&(n, _)| (m, n)))
        .map(|(m, n)| {
            let xs: Vec<f64> = ok
                .iter()
                .filter(|(r, _)| jobs[r.index].model == m && jobs[r.index].points == n)
                .map(|(r, _)| r.latency_ms)
                .collect();
            format!("{m}/{n} {:.1}ms (n={})", median(&xs).unwrap_or(f64::NAN), xs.len())
        })
        .collect();
    out.notes.push(format!("colperd_mix: median latency by class: {}", classes.join(", ")));
    if opts.trace {
        // Spans are built from the client clock after the run, so they
        // add no work to a job; even jobs get spans and odd jobs do not,
        // and the two interleaved halves give the overhead.
        for r in records.iter().filter(|r| r.index % 2 == 0) {
            tracer.record("serve.http_request", r.sent, r.done, r.index as u64);
        }
        let half = |parity: usize| -> Vec<f64> {
            ok.iter().filter(|(r, _)| r.index % 2 == parity).map(|(r, _)| r.latency_ms).collect()
        };
        let overhead = out.overhead_pct("job latency (ms)", &half(0), &half(1));
        out.layers.push(Metric::new("trace.overhead_pct", overhead, "%", ok.len()));
        out.layers.extend(layer_metrics(&records));
    }
    Ok(out)
}

/// The serve and client layer metrics from a short schedule against a
/// fresh server, for traced runs of the other workloads.
pub fn layer_probe(seed: u64) -> Result<Vec<Metric>, String> {
    let server = set_up()?;
    let (records, _) = drive(&server.addr, &schedule(seed, PROBE_SECONDS));
    if let Some(e) = records.iter().find_map(|r| r.answer.as_ref().err()) {
        return Err(format!("serve probe job: {e}"));
    }
    Ok(layer_metrics(&records))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_same_seed_gives_the_same_schedule() {
        let a = schedule(3, 20.0);
        assert_eq!(a, schedule(3, 20.0));
        assert_ne!(a, schedule(4, 20.0));
        assert!(a.windows(2).all(|w| w[0].due_s < w[1].due_s));
        assert!(a.iter().all(|j| j.due_s < 20.0));
        // Every class gets exactly its share.
        assert_eq!(a.len(), 400);
        let count = |f: &dyn Fn(&Job) -> bool| a.iter().filter(|j| f(j)).count();
        assert_eq!(count(&|j| j.model == "pointnet"), 280);
        assert_eq!(count(&|j| j.points == 256), 300);
        assert_eq!(count(&|j| j.points == 4096), 80);
        assert_eq!(count(&|j| j.model == "resgcn" && j.points == 1024), 6);
        assert_eq!(count(&|j| j.interactive), 120);
        assert_eq!(count(&|j| j.stream), 80);
        let points: usize = a.iter().map(|j| j.points).sum();
        assert_eq!(points, schedule(4, 20.0).iter().map(|j| j.points).sum::<usize>());
    }

    #[test]
    fn exact_shares_round_by_largest_remainder() {
        assert_eq!(exact_shares(&[('a', 0.5), ('b', 0.5)], 3), vec!['a', 'a', 'b']);
        assert_eq!(exact_shares(&[('a', 0.2), ('b', 0.8)], 4), vec!['a', 'b', 'b', 'b']);
        assert_eq!(exact_shares(&[('a', 1.0)], 0), Vec::<char>::new());
    }

    #[test]
    fn warm_up_covers_every_combination_once() {
        let jobs = warm_up_jobs();
        assert_eq!(jobs.len(), MODELS.len() * SIZES.len() * 2);
        let mut keys: Vec<_> = jobs.iter().map(|j| (j.model, j.points, j.stream)).collect();
        keys.dedup();
        assert_eq!(keys.len(), jobs.len());
    }

    #[test]
    fn job_bodies_are_valid_json_specs() {
        let job = &schedule(1, 5.0)[0];
        let json = colper_repro::serve::json::Json::parse(&job.body()).unwrap();
        let spec = colper_repro::serve::JobSpec::from_json(&json).unwrap();
        assert_eq!(spec.points, job.points);
        assert_eq!(spec.steps, STEPS);
        assert_eq!(spec.stream, job.stream);
    }
}
