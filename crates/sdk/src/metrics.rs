//! Client-side metrics, in the relaxed-atomic style of the monitor's
//! and gateway's counters. A snapshot renders to the same Prometheus
//! text exposition the services use, namespaced `sdk_`.

use std::collections::BTreeMap;
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};

/// Shared counters updated by tracers (enqueue side) and the flusher
/// (drain side). All loads/stores are `Relaxed`: these are statistics,
/// not synchronization.
#[derive(Debug, Default)]
pub struct SdkMetrics {
    pub(crate) enqueued: AtomicU64,
    pub(crate) queued: AtomicU64,
    pub(crate) queue_high_water: AtomicU64,
    pub(crate) sent: AtomicU64,
    pub(crate) resent: AtomicU64,
    pub(crate) dropped: AtomicU64,
    pub(crate) batches: AtomicU64,
    pub(crate) wire_batches: AtomicU64,
    pub(crate) acks: AtomicU64,
    pub(crate) reconnects: AtomicU64,
    pub(crate) server_errors: AtomicU64,
    pub(crate) verdicts: AtomicU64,
}

impl SdkMetrics {
    /// A point-in-time copy of every counter.
    pub fn snapshot(&self) -> SdkSnapshot {
        let get = |a: &AtomicU64| a.load(Ordering::Relaxed);
        SdkSnapshot {
            events_enqueued: get(&self.enqueued),
            events_queued: get(&self.queued),
            queue_high_water: get(&self.queue_high_water),
            events_sent: get(&self.sent),
            events_resent: get(&self.resent),
            events_dropped: get(&self.dropped),
            batches_flushed: get(&self.batches),
            wire_batches_sent: get(&self.wire_batches),
            acks_received: get(&self.acks),
            reconnects: get(&self.reconnects),
            server_errors: get(&self.server_errors),
            verdicts_received: get(&self.verdicts),
        }
    }
}

/// A consistent-enough copy of the SDK counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct SdkSnapshot {
    /// Events handed to the queue by tracers (accepted or not).
    pub events_enqueued: u64,
    /// Events sitting in the queue right now (gauge).
    pub events_queued: u64,
    /// Highest queue depth observed (gauge).
    pub queue_high_water: u64,
    /// Events written to the transport at least once.
    pub events_sent: u64,
    /// Events re-written after a reconnect (at-least-once tail replay).
    pub events_resent: u64,
    /// Events lost to overflow (`DropNewest`) or a failed session.
    pub events_dropped: u64,
    /// Flush batches written.
    pub batches_flushed: u64,
    /// Batched `events` wire frames written (a flush batch may chunk
    /// into several; stays 0 with `batch_max` = 1, where every event
    /// goes as its own frame).
    pub wire_batches_sent: u64,
    /// Acknowledgement barriers confirmed by the server.
    pub acks_received: u64,
    /// Times the flusher re-dialed after losing the connection.
    pub reconnects: u64,
    /// Server error replies that were not re-attach/replay artifacts.
    pub server_errors: u64,
    /// Verdict frames received.
    pub verdicts_received: u64,
}

impl SdkSnapshot {
    /// The counters as a `sdk_`-prefixed name → value map, the shape
    /// the wire protocol's `stats` reply and the Prometheus renderer
    /// both use.
    pub fn to_map(&self) -> BTreeMap<String, u64> {
        let mut m = BTreeMap::new();
        let mut put = |k: &str, v: u64| m.insert(format!("sdk_{k}"), v);
        put("events_enqueued", self.events_enqueued);
        put("events_queued", self.events_queued);
        put("queue_high_water", self.queue_high_water);
        put("events_sent", self.events_sent);
        put("events_resent", self.events_resent);
        put("events_dropped", self.events_dropped);
        put("batches_flushed", self.batches_flushed);
        put("wire_batches_sent", self.wire_batches_sent);
        put("acks_received", self.acks_received);
        put("reconnects", self.reconnects);
        put("server_errors", self.server_errors);
        put("verdicts_received", self.verdicts_received);
        m
    }

    /// Prometheus text exposition (0.0.4) of the counters, via the
    /// shared renderer — `events_queued` and `queue_high_water` come
    /// out typed as gauges, everything else as counters.
    pub fn prometheus(&self) -> String {
        hb_tracefmt::prom::render(&self.to_map())
    }
}

impl fmt::Display for SdkSnapshot {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for (name, value) in self.to_map() {
            writeln!(f, "{name} {value}")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn snapshot_reflects_counters() {
        let m = SdkMetrics::default();
        m.sent.store(7, Ordering::Relaxed);
        m.queued.store(2, Ordering::Relaxed);
        let snap = m.snapshot();
        assert_eq!(snap.events_sent, 7);
        assert_eq!(snap.events_queued, 2);
        assert_eq!(snap.to_map()["sdk_events_sent"], 7);
    }

    #[test]
    fn prometheus_types_queue_depth_as_gauge() {
        let snap = SdkMetrics::default().snapshot();
        let text = snap.prometheus();
        assert!(text.contains("# TYPE hbtl_sdk_events_queued gauge"));
        assert!(text.contains("# TYPE hbtl_sdk_events_sent counter"));
    }
}
