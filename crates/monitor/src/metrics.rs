//! Service observability.
//!
//! One [`Metrics`] instance is shared (via `Arc`) by every shard worker,
//! transport thread, and the stats reporter. All fields are relaxed
//! atomics — the numbers are monitoring data, not synchronization — so
//! the hot ingestion path pays one uncontended fetch-add per event.
//!
//! Counters only grow; gauges (`sessions_active`, `events_held`) move
//! both ways and are paired with a monotone high-water mark sampled at
//! every increase.

use parking_lot::Mutex;
use std::collections::BTreeMap;
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};

/// Shared counters and gauges for one monitor service.
#[derive(Debug, Default)]
pub struct Metrics {
    /// Events accepted off a transport (before causal buffering).
    pub events_ingested: AtomicU64,
    /// Batched `events` frames accepted; their members are
    /// also counted individually in `events_ingested`.
    pub batches_ingested: AtomicU64,
    /// Events released by causal buffers to detectors.
    pub events_delivered: AtomicU64,
    /// Events currently held back awaiting predecessors (gauge).
    pub events_held: AtomicU64,
    /// Most events ever held at once, across all sessions.
    pub events_held_high_water: AtomicU64,
    /// Duplicate events rejected.
    pub events_duplicate: AtomicU64,
    /// Events refused with backpressure (hold space full).
    pub events_rejected: AtomicU64,
    /// Events discarded undelivered at session close.
    pub events_discarded: AtomicU64,
    /// Verdicts that settled (Detected or Impossible).
    pub verdicts_settled: AtomicU64,
    /// Sessions ever opened.
    pub sessions_opened: AtomicU64,
    /// Sessions currently open (gauge).
    pub sessions_active: AtomicU64,
    /// Protocol errors answered with `ServerMsg::Error`.
    pub protocol_errors: AtomicU64,
    /// WAL records appended since this process started (gauge, mirrors
    /// the store's counter).
    pub wal_records: AtomicU64,
    /// WAL bytes appended since this process started.
    pub wal_bytes: AtomicU64,
    /// Explicit WAL fsyncs performed.
    pub wal_fsyncs: AtomicU64,
    /// Slowest WAL fsync observed, in microseconds (high-water).
    pub wal_fsync_max_micros: AtomicU64,
    /// Snapshots written since this process started.
    pub snapshots_written: AtomicU64,
    /// Unix time of the latest snapshot (gauge; 0 = none yet).
    pub snapshot_unix_secs: AtomicU64,
    /// Size in bytes of the latest snapshot this process wrote (gauge;
    /// 0 = none yet): what one snapshot barrier costs to write.
    pub snapshot_bytes: AtomicU64,
    /// Sessions rebuilt from the snapshot at startup.
    pub sessions_recovered: AtomicU64,
    /// Sessions a client connection adopted from the one they were
    /// bound to: its message naming the session binds the session's
    /// replies to it. After a restart, every recovered session a client
    /// speaks for.
    pub sessions_reattached: AtomicU64,
    /// WAL records replayed at startup.
    pub recovery_replayed: AtomicU64,
    /// Wall-clock milliseconds the startup recovery took.
    pub recovery_millis: AtomicU64,
    /// Bytes truncated off a torn or corrupt WAL tail at startup.
    pub recovery_truncated_bytes: AtomicU64,
    /// Distributed-session worker partitions currently open (gauge).
    pub dist_workers_active: AtomicU64,
    /// Distributed-session aggregators currently open (gauge).
    pub dist_aggregators_active: AtomicU64,
    /// Slice updates emitted by local workers toward their aggregators.
    pub dist_updates_relayed: AtomicU64,
    /// Slice updates accepted by local aggregators.
    pub dist_updates_applied: AtomicU64,
    /// Per-predicate settled-verdict counts, keyed
    /// `verdicts.<state|pattern>.<predicate>.<detected|impossible>`.
    /// A mutex, not an atomic: verdicts settle at most once per
    /// predicate, far off the hot ingestion path.
    pub verdict_counts: Mutex<BTreeMap<String, u64>>,
    /// Per-predicate membership-filter counters of the distributed
    /// workers this backend hosts, keyed `slice.<predicate>.events_in`
    /// / `slice.<predicate>.events_filtered`. Flushed in batches at
    /// snapshot/close boundaries, never per event, so a mutex is fine
    /// here too.
    pub slice_counts: Mutex<BTreeMap<String, u64>>,
}

impl Metrics {
    /// A fresh, all-zero metrics block.
    pub fn new() -> Self {
        Metrics::default()
    }

    /// Records `k` events entering a causal hold buffer.
    pub fn held_add(&self, k: u64) {
        let now = self.events_held.fetch_add(k, Relaxed) + k;
        self.events_held_high_water.fetch_max(now, Relaxed);
    }

    /// Records `k` events leaving a causal hold buffer.
    pub fn held_sub(&self, k: u64) {
        self.events_held.fetch_sub(k, Relaxed);
    }

    /// Records one settled verdict under its per-predicate stats key.
    /// The key family separates pattern predicates from state
    /// predicates so `stats --json` can break the two apart.
    pub fn record_verdict(&self, predicate: &str, pattern: bool, detected: bool) {
        let family = if pattern { "pattern" } else { "state" };
        let outcome = if detected { "detected" } else { "impossible" };
        *self
            .verdict_counts
            .lock()
            .entry(format!("verdicts.{family}.{predicate}.{outcome}"))
            .or_insert(0) += 1;
    }

    /// Accumulates a worker filter's counter deltas for one predicate.
    pub fn record_slice(&self, predicate: &str, events_in: u64, events_filtered: u64) {
        if events_in == 0 && events_filtered == 0 {
            return;
        }
        let mut counts = self.slice_counts.lock();
        *counts
            .entry(format!("slice.{predicate}.events_in"))
            .or_insert(0) += events_in;
        *counts
            .entry(format!("slice.{predicate}.events_filtered"))
            .or_insert(0) += events_filtered;
    }

    /// A point-in-time copy of every counter.
    pub fn snapshot(&self) -> MetricsSnapshot {
        MetricsSnapshot {
            events_ingested: self.events_ingested.load(Relaxed),
            batches_ingested: self.batches_ingested.load(Relaxed),
            events_delivered: self.events_delivered.load(Relaxed),
            events_held: self.events_held.load(Relaxed),
            events_held_high_water: self.events_held_high_water.load(Relaxed),
            events_duplicate: self.events_duplicate.load(Relaxed),
            events_rejected: self.events_rejected.load(Relaxed),
            events_discarded: self.events_discarded.load(Relaxed),
            verdicts_settled: self.verdicts_settled.load(Relaxed),
            sessions_opened: self.sessions_opened.load(Relaxed),
            sessions_active: self.sessions_active.load(Relaxed),
            protocol_errors: self.protocol_errors.load(Relaxed),
            wal_records: self.wal_records.load(Relaxed),
            wal_bytes: self.wal_bytes.load(Relaxed),
            wal_fsyncs: self.wal_fsyncs.load(Relaxed),
            wal_fsync_max_micros: self.wal_fsync_max_micros.load(Relaxed),
            snapshots_written: self.snapshots_written.load(Relaxed),
            snapshot_unix_secs: self.snapshot_unix_secs.load(Relaxed),
            snapshot_bytes: self.snapshot_bytes.load(Relaxed),
            sessions_recovered: self.sessions_recovered.load(Relaxed),
            sessions_reattached: self.sessions_reattached.load(Relaxed),
            recovery_replayed: self.recovery_replayed.load(Relaxed),
            recovery_millis: self.recovery_millis.load(Relaxed),
            recovery_truncated_bytes: self.recovery_truncated_bytes.load(Relaxed),
            dist_workers_active: self.dist_workers_active.load(Relaxed),
            dist_aggregators_active: self.dist_aggregators_active.load(Relaxed),
            dist_updates_relayed: self.dist_updates_relayed.load(Relaxed),
            dist_updates_applied: self.dist_updates_applied.load(Relaxed),
            verdicts: self.verdict_counts.lock().clone(),
            slices: self.slice_counts.lock().clone(),
        }
    }
}

/// A point-in-time copy of [`Metrics`].
#[derive(Debug, Clone, PartialEq, Eq, Default)]
#[allow(missing_docs)] // field names mirror `Metrics` one-to-one
pub struct MetricsSnapshot {
    pub events_ingested: u64,
    pub batches_ingested: u64,
    pub events_delivered: u64,
    pub events_held: u64,
    pub events_held_high_water: u64,
    pub events_duplicate: u64,
    pub events_rejected: u64,
    pub events_discarded: u64,
    pub verdicts_settled: u64,
    pub sessions_opened: u64,
    pub sessions_active: u64,
    pub protocol_errors: u64,
    pub wal_records: u64,
    pub wal_bytes: u64,
    pub wal_fsyncs: u64,
    pub wal_fsync_max_micros: u64,
    pub snapshots_written: u64,
    pub snapshot_unix_secs: u64,
    pub snapshot_bytes: u64,
    pub sessions_recovered: u64,
    pub sessions_reattached: u64,
    pub recovery_replayed: u64,
    pub recovery_millis: u64,
    pub recovery_truncated_bytes: u64,
    pub dist_workers_active: u64,
    pub dist_aggregators_active: u64,
    pub dist_updates_relayed: u64,
    pub dist_updates_applied: u64,
    pub verdicts: BTreeMap<String, u64>,
    pub slices: BTreeMap<String, u64>,
}

impl MetricsSnapshot {
    /// Name → value, in stable order, for the wire `stats` reply.
    pub fn to_map(&self) -> BTreeMap<String, u64> {
        [
            ("events_ingested", self.events_ingested),
            ("batches_ingested", self.batches_ingested),
            ("events_delivered", self.events_delivered),
            ("events_held", self.events_held),
            ("events_held_high_water", self.events_held_high_water),
            ("events_duplicate", self.events_duplicate),
            ("events_rejected", self.events_rejected),
            ("events_discarded", self.events_discarded),
            ("verdicts_settled", self.verdicts_settled),
            ("sessions_opened", self.sessions_opened),
            ("sessions_active", self.sessions_active),
            ("protocol_errors", self.protocol_errors),
            ("wal_records", self.wal_records),
            ("wal_bytes", self.wal_bytes),
            ("wal_fsyncs", self.wal_fsyncs),
            ("wal_fsync_max_micros", self.wal_fsync_max_micros),
            ("snapshots_written", self.snapshots_written),
            ("snapshot_unix_secs", self.snapshot_unix_secs),
            ("snapshot_bytes", self.snapshot_bytes),
            ("sessions_recovered", self.sessions_recovered),
            ("sessions_reattached", self.sessions_reattached),
            ("recovery_replayed", self.recovery_replayed),
            ("recovery_millis", self.recovery_millis),
            ("recovery_truncated_bytes", self.recovery_truncated_bytes),
            ("dist_workers_active", self.dist_workers_active),
            ("dist_aggregators_active", self.dist_aggregators_active),
            ("dist_updates_relayed", self.dist_updates_relayed),
            ("dist_updates_applied", self.dist_updates_applied),
        ]
        .into_iter()
        .map(|(k, v)| (k.to_string(), v))
        .chain(self.verdicts.iter().map(|(k, &v)| (k.clone(), v)))
        .chain(self.slices.iter().map(|(k, &v)| (k.clone(), v)))
        .collect()
    }
}

impl fmt::Display for MetricsSnapshot {
    /// The periodic log-line format: compact `key=value` pairs.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "ingested={} delivered={} held={} held_hwm={} dup={} rejected={} \
             discarded={} verdicts={} sessions={}/{} errors={} \
             wal={}r/{}B snapshots={}/{}B",
            self.events_ingested,
            self.events_delivered,
            self.events_held,
            self.events_held_high_water,
            self.events_duplicate,
            self.events_rejected,
            self.events_discarded,
            self.verdicts_settled,
            self.sessions_active,
            self.sessions_opened,
            self.protocol_errors,
            self.wal_records,
            self.wal_bytes,
            self.snapshots_written,
            self.snapshot_bytes,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn high_water_tracks_maximum() {
        let m = Metrics::new();
        m.held_add(3);
        m.held_sub(2);
        m.held_add(1);
        let s = m.snapshot();
        assert_eq!(s.events_held, 2);
        assert_eq!(s.events_held_high_water, 3);
    }

    #[test]
    fn snapshot_map_covers_every_field() {
        let m = Metrics::new();
        m.events_ingested.fetch_add(5, Relaxed);
        let map = m.snapshot().to_map();
        assert_eq!(map["events_ingested"], 5);
        assert_eq!(map.len(), 28);
    }

    #[test]
    fn per_predicate_verdicts_ride_along_in_the_stats_map() {
        let m = Metrics::new();
        m.record_verdict("inv", true, true);
        m.record_verdict("inv", true, true);
        m.record_verdict("goal", false, false);
        let map = m.snapshot().to_map();
        assert_eq!(map["verdicts.pattern.inv.detected"], 2);
        assert_eq!(map["verdicts.state.goal.impossible"], 1);
        assert_eq!(map.len(), 30);
    }

    #[test]
    fn slice_counters_accumulate_and_ride_along_in_the_stats_map() {
        let m = Metrics::new();
        m.record_slice("ef", 10, 7);
        m.record_slice("ef", 5, 2);
        m.record_slice("idle", 0, 0); // no-op: nothing to flush
        let map = m.snapshot().to_map();
        assert_eq!(map["slice.ef.events_in"], 15);
        assert_eq!(map["slice.ef.events_filtered"], 9);
        assert!(!map.contains_key("slice.idle.events_in"));
        assert_eq!(map.len(), 30);
    }

    #[test]
    fn display_is_one_line() {
        let line = Metrics::new().snapshot().to_string();
        assert!(!line.contains('\n'));
        assert!(line.contains("ingested=0"));
    }
}
