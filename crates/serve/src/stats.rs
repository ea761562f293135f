//! Service counters for `/stats`.
//!
//! These are plain atomics, deliberately separate from the
//! `colper-obs` counter registry: obs counters are compiled to no-ops
//! unless tracing is enabled, while a service must always be able to
//! answer "how many jobs have you run?" — health introspection is not
//! optional telemetry.

use std::sync::atomic::{AtomicU64, Ordering};

/// Monotonic service-lifetime counters.
#[derive(Debug, Default)]
pub struct ServiceStats {
    /// Jobs accepted into the queue.
    pub accepted: AtomicU64,
    /// Jobs rejected with `429` because the queue was full.
    pub rejected_full: AtomicU64,
    /// Requests rejected with `400` (malformed HTTP or JSON).
    pub rejected_malformed: AtomicU64,
    /// Requests rejected with `422` (well-formed but invalid job spec).
    pub rejected_invalid: AtomicU64,
    /// Jobs fully executed by a worker.
    pub completed: AtomicU64,
    /// Completed jobs that were heavyweight `POST /stream` world
    /// attacks (also counted in `completed`).
    pub stream_completed: AtomicU64,
    /// Completed jobs that started on a warm (donated-tape) seat.
    pub warm_starts: AtomicU64,
    /// Jobs that panicked; each was contained and its worker kept
    /// serving.
    pub panicked: AtomicU64,
}

impl ServiceStats {
    /// Bumps a counter by one.
    pub fn incr(counter: &AtomicU64) {
        counter.fetch_add(1, Ordering::Relaxed);
    }

    /// Renders the counters plus current queue depths as a JSON object.
    pub fn to_json(
        &self,
        interactive_depth: usize,
        batch_depth: usize,
        idle_seats: usize,
    ) -> String {
        format!(
            concat!(
                "{{\"accepted\":{},\"rejected_full\":{},\"rejected_malformed\":{},",
                "\"rejected_invalid\":{},\"completed\":{},\"stream_completed\":{},",
                "\"warm_starts\":{},\"panicked\":{},",
                "\"queue_interactive\":{},\"queue_batch\":{},\"idle_seats\":{}}}"
            ),
            self.accepted.load(Ordering::Relaxed),
            self.rejected_full.load(Ordering::Relaxed),
            self.rejected_malformed.load(Ordering::Relaxed),
            self.rejected_invalid.load(Ordering::Relaxed),
            self.completed.load(Ordering::Relaxed),
            self.stream_completed.load(Ordering::Relaxed),
            self.warm_starts.load(Ordering::Relaxed),
            self.panicked.load(Ordering::Relaxed),
            interactive_depth,
            batch_depth,
            idle_seats,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::Json;

    #[test]
    fn snapshot_is_valid_json_with_every_field() {
        let stats = ServiceStats::default();
        ServiceStats::incr(&stats.accepted);
        ServiceStats::incr(&stats.accepted);
        ServiceStats::incr(&stats.completed);
        let parsed = Json::parse(&stats.to_json(3, 1, 2)).unwrap();
        assert_eq!(parsed.get("accepted").and_then(Json::as_u64), Some(2));
        assert_eq!(parsed.get("completed").and_then(Json::as_u64), Some(1));
        assert_eq!(parsed.get("rejected_full").and_then(Json::as_u64), Some(0));
        assert_eq!(parsed.get("panicked").and_then(Json::as_u64), Some(0));
        assert_eq!(parsed.get("queue_interactive").and_then(Json::as_u64), Some(3));
        assert_eq!(parsed.get("queue_batch").and_then(Json::as_u64), Some(1));
        assert_eq!(parsed.get("idle_seats").and_then(Json::as_u64), Some(2));
    }
}
