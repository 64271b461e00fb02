//! The benchmark's vocabulary: every metric it can print, with its
//! unit, and what one run hands back. `BENCHMARK.json` at the
//! repository root lists the same names; a test keeps the two equal.

use crate::gen::Sizes;
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::time::Instant;

/// The four workloads, in the order a full run takes them.
pub const WORKLOADS: [&str; 4] = [
    "wire-stream",
    "durable-stream",
    "detect-latency",
    "offline-detect",
];

/// `(name, unit)` of every end-to-end metric; each workload reports
/// all of them (README.md says what each means on which workload).
pub const END_TO_END: [(&str, &str); 5] = [
    ("setup_s", "s"),
    ("events_per_s", "1/s"),
    ("verdict_latency_p10_us", "us"),
    ("recovery_s", "s"),
    ("peak_rss_mb", "MiB"),
];

/// `(name, unit)` of every per-layer metric. A traced run reports all
/// of them; a layer that is not on the workload's path reports 0.
pub const PER_LAYER: [(&str, &str); 86] = [
    // tracefmt.wire — the frame codec.
    ("tracefmt.wire.decode_batch_ns_per_event", "ns"),
    ("tracefmt.wire.encode_batch_ns_per_event", "ns"),
    ("tracefmt.wire.decode_single_ns_per_frame", "ns"),
    ("tracefmt.wire.encode_single_ns_per_frame", "ns"),
    ("tracefmt.wire.verdict_roundtrip_ns_per_frame", "ns"),
    ("tracefmt.wire.bytes_per_event_batch", "bytes"),
    ("tracefmt.wire.bytes_per_event_single", "bytes"),
    // os.tcp — the loopback floor, no monitor involved.
    ("os.tcp.loopback_ns_per_event_batch", "ns"),
    ("os.tcp.echo_rtt_p50_us", "us"),
    // monitor.service — in-process submit through to `closed`.
    ("monitor.service.submit_ns_per_event_batch", "ns"),
    ("monitor.service.submit_ns_per_frame_single", "ns"),
    ("monitor.service.open_close_us_per_session", "us"),
    ("monitor.service.residual_ns_per_event", "ns"),
    // monitor.session — Session::event with the slicer on and off.
    ("monitor.session.event_ns_per_event", "ns"),
    ("monitor.session.event_noslice_ns_per_event", "ns"),
    ("monitor.session.snapshot_us", "us"),
    ("monitor.session.snapshot_bytes", "bytes"),
    // monitor.persist — serialising a message for the WAL.
    ("monitor.persist.encode_ns_per_event", "ns"),
    // dist.buffer — causal delivery.
    ("dist.buffer.ingest_ns_per_event", "ns"),
    ("dist.buffer.held_share", "share"),
    ("dist.buffer.held_high_water", "count"),
    // slice — the ingest filter.
    ("slice.advance_ns_per_event", "ns"),
    ("slice.admit_share.never", "share"),
    ("slice.admit_share.sparse", "share"),
    ("slice.admit_share.dense", "share"),
    ("slice.admit_share.wide", "share"),
    // core.online, pattern — the detectors.
    ("core.online.observe_ns_per_obs", "ns"),
    ("pattern.observe_ns_per_event", "ns"),
    // store — the write-ahead log.
    ("store.append_ns_per_record", "ns"),
    ("store.append_os_ns_per_record", "ns"),
    ("store.bytes_per_event", "bytes"),
    ("store.fsyncs", "count"),
    ("store.snapshot_write_ms", "ms"),
    ("store.recovery_scan_ns_per_record", "ns"),
    // tracefmt.json, ctl/core — the offline job.
    ("tracefmt.json.import_ns_per_event", "ns"),
    ("ctl.ef_ns_per_event", "ns"),
    ("ctl.ag_a2_ns_per_event", "ns"),
    ("ctl.eg_a1_ns_per_event", "ns"),
    ("ctl.eu_a3_ns_per_event", "ns"),
    ("ctl.au_ns_per_event", "ns"),
    ("ctl.af_ns_per_event", "ns"),
    // The server's own counters after a fixed-size leg.
    ("server.events_ingested", "count"),
    ("server.batches_ingested", "count"),
    ("server.events_delivered", "count"),
    ("server.events_held_high_water", "count"),
    ("server.events_rejected", "count"),
    ("server.verdicts_settled", "count"),
    ("server.wal_records", "count"),
    ("server.wal_bytes", "bytes"),
    ("server.wal_fsyncs", "count"),
    ("server.wal_fsync_max_micros", "us"),
    ("server.snapshots_written", "count"),
    ("server.slice_events_in", "count"),
    ("server.slice_events_filtered", "count"),
    ("server.recovery_replayed", "count"),
    ("server.recovery_millis", "ms"),
    // Process, generator, host.
    ("proc.server_cpu_ns_per_event", "ns"),
    ("proc.server_ctx_switches_per_event", "count"),
    ("proc.gen_cpu_ns_per_event", "ns"),
    // The median and the 99th percentile of verdict latency: on a
    // shared host their run-to-run spread is several times any usable
    // regression bound (a neighbour only ever adds delay, and the higher
    // the percentile the more of it is the neighbour's), so they are
    // ledger rows and the end-to-end metric is the 10th percentile.
    ("gen.verdict_latency_p50_us", "us"),
    ("gen.verdict_latency_p99_us", "us"),
    ("gen.late_p99_us", "us"),
    ("gen.late_max_us", "us"),
    ("host.calib_ms", "ms"),
    ("host.calib_drift_share", "share"),
    // The serial traced replay: self time per layer per event, its
    // share of the server leg's end-to-end time per event, and what
    // recording the spans cost.
    ("trace.end_to_end_ns_per_event", "ns"),
    ("trace.replay_ns_per_event", "ns"),
    ("trace.overhead_share", "share"),
    ("trace.coverage_share", "share"),
    ("trace.self_ns_per_event.tracefmt.wire.read", "ns"),
    ("trace.self_ns_per_event.monitor.persist", "ns"),
    ("trace.self_ns_per_event.store", "ns"),
    ("trace.self_ns_per_event.monitor.session", "ns"),
    ("trace.self_ns_per_event.tracefmt.wire.write", "ns"),
    ("trace.self_ns_per_event.tracefmt.json", "ns"),
    ("trace.self_ns_per_event.ctl", "ns"),
    ("trace.self_ns_per_event.harness", "ns"),
    ("trace.share.tracefmt.wire.read", "share"),
    ("trace.share.monitor.persist", "share"),
    ("trace.share.store", "share"),
    ("trace.share.monitor.session", "share"),
    ("trace.share.tracefmt.wire.write", "share"),
    ("trace.share.tracefmt.json", "share"),
    ("trace.share.ctl", "share"),
    ("trace.share.other", "share"),
    ("trace.spans", "count"),
];

/// What one invocation was asked to do.
pub struct Ctx {
    /// The `hbtl` binary under test.
    pub hbtl: PathBuf,
    /// Workload seed.
    pub seed: u64,
    /// Length of the timed region.
    pub seconds: f64,
    /// Workload sizes.
    pub sizes: Sizes,
}

impl Ctx {
    /// Sets up `setup_repeats` times and returns the last set-up with
    /// the median time of all (`setup_s`). Each earlier set-up is torn
    /// down — its server killed, its buffers freed — outside the next
    /// one's timing.
    pub fn timed_setup<T>(
        &self,
        mut setup: impl FnMut() -> Result<T, String>,
    ) -> Result<(T, f64), String> {
        let mut secs = Vec::new();
        let mut last = None;
        for _ in 0..self.sizes.setup_repeats.max(1) {
            drop(last.take());
            let t = Instant::now();
            last = Some(setup()?);
            secs.push(t.elapsed().as_secs_f64());
        }
        Ok((
            last.expect("at least one set-up"),
            crate::stats::median(&mut secs),
        ))
    }

    /// Rounds of a traced run's fixed-size legs: fixed for a given
    /// `--seconds`, so the server's counters repeat exactly.
    pub fn traced_rounds(&self) -> usize {
        ((self.sizes.traced_rounds as f64 * self.seconds / 10.0).ceil() as usize).max(1)
    }
}

/// What one run of one workload produced.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Operations attempted: frames sent and verdicts expected online,
    /// formula evaluations and cross-checks offline.
    pub attempted: u64,
    /// Operations that failed: error frames, rejected events, missing
    /// or wrong verdicts, a wrong engine.
    pub failed: u64,
    /// Why the run cannot be trusted, if it cannot (the open-loop
    /// sender fell a second behind, a counter does not add up).
    pub invalid: Vec<String>,
    /// Metric values by name.
    pub metrics: BTreeMap<String, f64>,
    /// Facts about the run that are not metrics (sample counts, the
    /// filesystem under the data directory, noise flags).
    pub notes: BTreeMap<String, String>,
}

impl Outcome {
    /// Records a metric.
    pub fn set(&mut self, name: &str, value: f64) {
        self.metrics.insert(name.to_string(), value);
    }

    /// Records a note.
    pub fn note(&mut self, name: &str, value: impl ToString) {
        self.notes.insert(name.to_string(), value.to_string());
    }

    /// Whether every output was correct and the run is valid.
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.invalid.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use serde::Value;

    fn names_and_units(doc: &Value, key: &str) -> Vec<(String, String)> {
        let Some(Value::Array(items)) = doc.get(key) else {
            panic!("BENCHMARK.json has no {key} array");
        };
        items
            .iter()
            .map(|m| match (m.get("name"), m.get("unit")) {
                (Some(Value::Str(n)), Some(Value::Str(u))) => (n.clone(), u.clone()),
                _ => panic!("{key} entry without name and unit: {m:?}"),
            })
            .collect()
    }

    fn owned(table: &[(&str, &str)]) -> Vec<(String, String)> {
        table
            .iter()
            .map(|&(n, u)| (n.to_string(), u.to_string()))
            .collect()
    }

    /// `BENCHMARK.json` is what the driver reads; the tables above are
    /// what the harness prints. They must name the same things.
    #[test]
    fn benchmark_json_names_what_the_harness_prints() {
        let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
        let text = std::fs::read_to_string(&path).expect("BENCHMARK.json at the repository root");
        let doc = serde_json::parse_value(&text).expect("BENCHMARK.json parses");
        assert_eq!(names_and_units(&doc, "end_to_end"), owned(&END_TO_END));
        assert_eq!(names_and_units(&doc, "per_layer"), owned(&PER_LAYER));
        let Some(Value::Array(workloads)) = doc.get("workloads") else {
            panic!("BENCHMARK.json has no workloads array");
        };
        let names: Vec<&str> = workloads
            .iter()
            .map(|w| match w.get("name") {
                Some(Value::Str(n)) => n.as_str(),
                _ => panic!("workload without a name: {w:?}"),
            })
            .collect();
        assert_eq!(names, WORKLOADS);
    }

    #[test]
    fn metric_names_are_unique_and_within_the_contract() {
        let mut seen = std::collections::BTreeSet::new();
        for (name, unit) in END_TO_END.iter().chain(&PER_LAYER) {
            assert!(seen.insert(name), "{name} is listed twice");
            assert!(name.len() <= 64 && unit.len() <= 16, "{name} [{unit}]");
            assert!(name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)));
            assert!(unit
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)));
        }
        assert!(END_TO_END.iter().any(|&(n, u)| n == "setup_s" && u == "s"));
        assert!(PER_LAYER.len() <= 128);
    }

    #[test]
    fn traced_legs_are_fixed_for_a_given_run_length() {
        let ctx = |seconds| Ctx {
            hbtl: PathBuf::new(),
            seed: 0,
            seconds,
            sizes: Sizes::full(),
        };
        assert_eq!(ctx(10.0).traced_rounds(), 2);
        assert_eq!(ctx(10.0).traced_rounds(), ctx(10.0).traced_rounds());
        assert_eq!(ctx(1.0).traced_rounds(), 1);
        assert_eq!(ctx(30.0).traced_rounds(), 6);
    }
}
