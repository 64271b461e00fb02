//! Prometheus text exposition (version 0.0.4) for the wire `stats`
//! counter maps — what `hbtl monitor stats --prometheus` and
//! `hbtl gateway stats --prometheus` print, and what the hb-sdk
//! client metrics snapshot renders through, ready for a scrape
//! sidecar or `curl | promtool check metrics`.

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// What a stats counter measures, which decides its Prometheus type
/// and how the gateway merges the values its backends report.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// A monotone count: typed `counter`, summed across backends.
    Counter,
    /// A point-in-time level: typed `gauge`, summed across backends.
    Gauge,
    /// A high-water mark, a worst case or a time: typed `gauge`, and the
    /// largest backend value is the merged one.
    Max,
}

/// The kind of the counter `name`. Matched after stripping the
/// gateway's `gateway_` and the SDK's `sdk_` prefixes so all three
/// emitters share one table.
pub fn kind(name: &str) -> Kind {
    let base = name
        .strip_prefix("gateway_")
        .or_else(|| name.strip_prefix("sdk_"))
        .unwrap_or(name);
    match base {
        _ if base.ends_with("_high_water") || base.ends_with("_max_micros") => Kind::Max,
        "snapshot_unix_secs" | "recovery_millis" => Kind::Max,
        "sessions_active"
        | "events_held"
        | "clients_connected"
        | "journal_frames"
        | "backends_healthy"
        | "backends_total"
        | "backends_reporting"
        | "events_queued"
        | "snapshot_bytes"
        | "dist_workers_active"
        | "dist_aggregators_active" => Kind::Gauge,
        _ => Kind::Counter,
    }
}

/// Renders one `# TYPE` line and one sample per counter, namespaced
/// `hbtl_`. BTreeMap order keeps the output stable across scrapes.
pub fn render(counters: &BTreeMap<String, u64>) -> String {
    let mut out = String::new();
    for (name, value) in counters {
        let kind = match kind(name) {
            Kind::Counter => "counter",
            Kind::Gauge | Kind::Max => "gauge",
        };
        let _ = writeln!(out, "# TYPE hbtl_{name} {kind}");
        let _ = writeln!(out, "hbtl_{name} {value}");
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_and_gauges_are_typed_and_namespaced() {
        let mut m = BTreeMap::new();
        m.insert("events_ingested".to_string(), 41_u64);
        m.insert("sessions_active".to_string(), 3_u64);
        m.insert("gateway_backends_healthy".to_string(), 2_u64);
        let text = render(&m);
        assert!(text.contains("# TYPE hbtl_events_ingested counter\nhbtl_events_ingested 41\n"));
        assert!(text.contains("# TYPE hbtl_sessions_active gauge\nhbtl_sessions_active 3\n"));
        assert!(text.contains(
            "# TYPE hbtl_gateway_backends_healthy gauge\nhbtl_gateway_backends_healthy 2\n"
        ));
    }

    #[test]
    fn maxima_and_times_are_their_own_kind() {
        for name in [
            "events_held_high_water",
            "sdk_queue_high_water",
            "wal_fsync_max_micros",
            "snapshot_unix_secs",
            "recovery_millis",
        ] {
            assert_eq!(kind(name), Kind::Max, "{name}");
        }
        assert_eq!(kind("gateway_sessions_active"), Kind::Gauge);
        assert_eq!(kind("dist_workers_active"), Kind::Gauge);
        assert_eq!(kind("wal_fsyncs"), Kind::Counter);
        assert_eq!(kind("verdicts.state.p0.detected"), Kind::Counter);
        let m = BTreeMap::from([("wal_fsync_max_micros".to_string(), 900_u64)]);
        assert_eq!(
            render(&m),
            "# TYPE hbtl_wal_fsync_max_micros gauge\nhbtl_wal_fsync_max_micros 900\n"
        );
    }

    #[test]
    fn every_sample_has_a_type_line() {
        let mut m = BTreeMap::new();
        for k in ["a", "b", "c"] {
            m.insert(k.to_string(), 1);
        }
        let text = render(&m);
        assert_eq!(text.matches("# TYPE ").count(), 3);
        assert_eq!(text.lines().count(), 6);
    }
}
