//! Warm attack seats: recycling one attack's tape into the next.
//!
//! A long-running attack service executes many short attacks against the
//! same victims. Each attack's steady state is already allocation-free
//! (the optimizer reuses one [`colper_nn::Forward`] session across
//! steps), but the *first* step of every attack still pays the full cost
//! of growing a fresh tape. A [`WarmSeat`] carries the finished
//! session's tape — graph cleared, buffer pools intact — across attacks,
//! so a pooled job on a same-shaped cloud starts on the zero-allocation
//! path from step 1.
//!
//! Seats stay deliberately dumb about *placement*: keying seats by victim
//! and cloud shape (so a donated tape's pooled buffers actually fit the
//! next job) is the caller's job — the service keeps a map of seats keyed
//! by `(model, point-count bucket)`.
//!
//! Reuse never changes results: a donated graph is cleared before the
//! next attack records, and every slot it records into is written whole,
//! so a seated attack matches a cold one exactly, on every victim
//! (`tests/session_pool.rs`).

use colper_autodiff::Tape;

/// A reusable warm seat for attack jobs: holds the tape of the last
/// attack that ran on it, ready for donation to the next one.
#[derive(Debug, Default)]
pub struct WarmSeat {
    tape: Option<Tape>,
    runs: u64,
    warm_starts: u64,
}

impl WarmSeat {
    /// An empty (cold) seat.
    pub fn new() -> Self {
        Self::default()
    }

    /// Whether the seat currently holds a donated tape — i.e. whether
    /// the next attack seated here starts warm.
    pub fn is_warm(&self) -> bool {
        self.tape.is_some()
    }

    /// Attacks that ran on this seat.
    pub fn runs(&self) -> u64 {
        self.runs
    }

    /// Attacks that found a donated tape waiting (every run after the
    /// first, unless a multi-sample attack declined the donation).
    pub fn warm_starts(&self) -> u64 {
        self.warm_starts
    }

    /// Takes the seat's tape for an attack run, recording the run and
    /// whether it started warm.
    pub(crate) fn checkout(&mut self) -> Option<Tape> {
        self.runs += 1;
        let tape = self.tape.take()?;
        self.warm_starts += 1;
        Some(tape)
    }

    /// Returns a finished attack's reset tape to the seat.
    pub(crate) fn donate(&mut self, tape: Tape) {
        self.tape = Some(tape);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seat_tracks_warmth_across_checkouts() {
        let mut seat = WarmSeat::new();
        assert!(!seat.is_warm());
        assert!(seat.checkout().is_none(), "cold seat has no tape");
        seat.donate(Tape::new());
        assert!(seat.is_warm());
        assert!(seat.checkout().is_some(), "donated tape is handed out");
        assert!(!seat.is_warm(), "checkout empties the seat");
        assert_eq!(seat.runs(), 2);
        assert_eq!(seat.warm_starts(), 1);
    }
}
