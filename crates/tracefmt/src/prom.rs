//! Prometheus text exposition (version 0.0.4) for the wire `stats`
//! counter maps — what `hbtl monitor stats --prometheus` and
//! `hbtl gateway stats --prometheus` print, and what the hb-sdk
//! client metrics snapshot renders through, ready for a scrape
//! sidecar or `curl | promtool check metrics`.

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// Counter names that are point-in-time levels, not monotone counts.
/// Matched after stripping the gateway's `gateway_` and the SDK's
/// `sdk_` prefixes so all three emitters share one list.
const GAUGES: &[&str] = &[
    "sessions_active",
    "events_held",
    "events_held_high_water",
    "clients_connected",
    "journal_frames",
    "backends_healthy",
    "backends_total",
    "backends_reporting",
    "events_queued",
    "queue_high_water",
    "snapshot_bytes",
];

/// Renders one `# TYPE` line and one sample per counter, namespaced
/// `hbtl_`. BTreeMap order keeps the output stable across scrapes.
pub fn render(counters: &BTreeMap<String, u64>) -> String {
    let mut out = String::new();
    for (name, value) in counters {
        let base = name
            .strip_prefix("gateway_")
            .or_else(|| name.strip_prefix("sdk_"))
            .unwrap_or(name);
        let kind = if GAUGES.contains(&base) {
            "gauge"
        } else {
            "counter"
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
