//! One JSON schema for every `BENCH_*.json` artifact.
//!
//! `pattern_bench`, `slice_bench`, and `dist_bench` all emit the
//! same record shape through this module, so CI artifact diffing (and
//! any future dashboard) parses one format:
//!
//! ```json
//! {"group":"pattern","processes":8,
//!  "runs":[{"name":"n300000","events":300000,"secs":0.0421,
//!           "ns_per_event":140.3,"throughput":7126},...],
//!  "flatness":1.04}
//! ```
//!
//! Every run carries `name`, `ns_per_event`, and `throughput`; the
//! report carries `flatness` (max/min ns-per-event across runs — 1.0
//! is perfectly linear scaling). Bench-specific numbers such as
//! `reduction_ratio` ride along as extra per-run fields.

/// One measured run: a label, how many events it processed, and how
/// long it took. Derived rates are computed, never stored.
#[derive(Debug, Clone)]
pub struct BenchRun {
    /// The run's label, e.g. `n300000` or `batch64`.
    pub name: String,
    /// Events processed in the timed region.
    pub events: u64,
    /// Wall-clock seconds for the timed region.
    pub secs: f64,
    /// Bench-specific extra fields, serialized per run in order.
    pub extras: Vec<(&'static str, f64)>,
}

impl BenchRun {
    /// A run with no extra fields.
    pub fn new(name: impl Into<String>, events: u64, secs: f64) -> Self {
        BenchRun {
            name: name.into(),
            events,
            secs,
            extras: Vec::new(),
        }
    }

    /// Adds a bench-specific field to the run's JSON record.
    #[must_use]
    pub fn with(mut self, key: &'static str, value: f64) -> Self {
        self.extras.push((key, value));
        self
    }

    /// Nanoseconds of wall clock per event.
    pub fn ns_per_event(&self) -> f64 {
        self.secs * 1e9 / self.events.max(1) as f64
    }

    /// Events per second.
    pub fn throughput(&self) -> f64 {
        self.events as f64 / self.secs.max(f64::MIN_POSITIVE)
    }

    fn to_json(&self) -> String {
        let mut out = format!(
            "{{\"name\":\"{}\",\"events\":{},\"secs\":{:.6},\
             \"ns_per_event\":{:.1},\"throughput\":{:.0}",
            self.name,
            self.events,
            self.secs,
            self.ns_per_event(),
            self.throughput(),
        );
        for (key, value) in &self.extras {
            out.push_str(&format!(",\"{key}\":{value:.3}"));
        }
        out.push('}');
        out
    }
}

/// A whole benchmark's output: workload constants, the runs, and the
/// flatness of ns-per-event across them.
#[derive(Debug, Clone)]
pub struct BenchReport {
    /// The benchmark family, e.g. `pattern` or `monitor/wire`.
    pub group: String,
    /// Workload constants (process counts and the like), serialized
    /// top-level before `runs`.
    pub meta: Vec<(&'static str, u64)>,
    /// The measured runs, in sweep order.
    pub runs: Vec<BenchRun>,
}

impl BenchReport {
    /// An empty report for `group`.
    pub fn new(group: impl Into<String>) -> Self {
        BenchReport {
            group: group.into(),
            meta: Vec::new(),
            runs: Vec::new(),
        }
    }

    /// Adds a top-level workload constant.
    #[must_use]
    pub fn meta(mut self, key: &'static str, value: u64) -> Self {
        self.meta.push((key, value));
        self
    }

    /// Appends a measured run.
    pub fn push(&mut self, run: BenchRun) {
        self.runs.push(run);
    }

    /// Max/min ns-per-event across the runs; 1.0 means the sweep
    /// scaled perfectly linearly. 1.0 for fewer than two runs.
    pub fn flatness(&self) -> f64 {
        let mut min = f64::INFINITY;
        let mut max = 0.0f64;
        for run in &self.runs {
            let ns = run.ns_per_event();
            min = min.min(ns);
            max = max.max(ns);
        }
        if self.runs.len() < 2 || min <= 0.0 {
            1.0
        } else {
            max / min
        }
    }

    /// The full artifact as one JSON object (no trailing newline).
    pub fn to_json(&self) -> String {
        let mut out = format!("{{\"group\":\"{}\"", self.group);
        for (key, value) in &self.meta {
            out.push_str(&format!(",\"{key}\":{value}"));
        }
        out.push_str(",\"runs\":[");
        for (i, run) in self.runs.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&run.to_json());
        }
        out.push_str(&format!("],\"flatness\":{:.3}}}", self.flatness()));
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rates_are_derived_from_events_and_secs() {
        let run = BenchRun::new("n1000", 1_000, 0.001);
        assert!((run.ns_per_event() - 1_000.0).abs() < 1e-9);
        assert!((run.throughput() - 1_000_000.0).abs() < 1e-3);
    }

    #[test]
    fn flatness_is_max_over_min_ns_per_event() {
        let mut report = BenchReport::new("test");
        report.push(BenchRun::new("a", 1_000, 0.001)); // 1000 ns/ev
        report.push(BenchRun::new("b", 1_000, 0.0012)); // 1200 ns/ev
        assert!((report.flatness() - 1.2).abs() < 1e-9);
        assert_eq!(BenchReport::new("empty").flatness(), 1.0);
    }

    #[test]
    fn json_carries_the_shared_record_shape() {
        let mut report = BenchReport::new("slice").meta("processes", 8);
        report.push(BenchRun::new("n100", 100, 0.0001).with("reduction_ratio", 6.5));
        let json = report.to_json();
        assert!(json.starts_with("{\"group\":\"slice\",\"processes\":8,\"runs\":["));
        assert!(json.contains("\"name\":\"n100\""));
        assert!(json.contains("\"ns_per_event\":1000.0"));
        assert!(json.contains("\"throughput\":1000000"));
        assert!(json.contains("\"reduction_ratio\":6.500"));
        assert!(json.ends_with("\"flatness\":1.000}"));
    }
}
