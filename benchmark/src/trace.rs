//! In-memory spans around the harness's calls into each layer.
//!
//! A span is (layer, start, end, parent, shared id); the shared id is
//! the batch or frame index, so every span of one unit of work can be
//! pulled out of the file together. Spans stay in memory while the
//! replay runs and are written out once, afterwards. The same replay
//! with the tracer disabled gives the tracing overhead.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// One recorded call into a layer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// The layer (module) the call went into.
    pub layer: &'static str,
    /// Nanoseconds since the tracer was created.
    pub start_ns: u64,
    /// Nanoseconds since the tracer was created.
    pub end_ns: u64,
    /// Index of the enclosing span.
    pub parent: Option<usize>,
    /// The batch, frame or pass this span belongs to.
    pub id: u64,
}

/// Self time and call count of one layer.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct LayerTime {
    /// Time inside the layer's spans not covered by their child spans.
    pub self_ns: u64,
    /// Number of spans.
    pub calls: u64,
}

/// Records spans, or — disabled — does nothing at the same call sites.
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    /// A tracer that records (`enabled`) or ignores every call.
    pub fn new(enabled: bool) -> Tracer {
        Tracer {
            enabled,
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn now(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens a span under the innermost open one.
    pub fn enter(&mut self, layer: &'static str, id: u64) {
        if !self.enabled {
            return;
        }
        let parent = self.open.last().copied();
        self.open.push(self.spans.len());
        let start_ns = self.now();
        self.spans.push(Span {
            layer,
            start_ns,
            end_ns: start_ns,
            parent,
            id,
        });
    }

    /// Closes the innermost open span.
    pub fn exit(&mut self) {
        if !self.enabled {
            return;
        }
        let end_ns = self.now();
        let i = self.open.pop().expect("exit without a matching enter");
        self.spans[i].end_ns = end_ns;
    }

    /// The recorded spans.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Per layer: its spans' durations minus the part their child spans
    /// cover.
    pub fn self_times(&self) -> BTreeMap<&'static str, LayerTime> {
        let mut own: Vec<u64> = self.spans.iter().map(|s| s.end_ns - s.start_ns).collect();
        for s in &self.spans {
            if let Some(p) = s.parent {
                own[p] = own[p].saturating_sub(s.end_ns - s.start_ns);
            }
        }
        let mut layers: BTreeMap<&'static str, LayerTime> = BTreeMap::new();
        for (s, own) in self.spans.iter().zip(own) {
            let t = layers.entry(s.layer).or_default();
            t.self_ns += own;
            t.calls += 1;
        }
        layers
    }

    /// Writes the spans as one JSON document.
    pub fn write_json(&self, path: &Path) -> std::io::Result<()> {
        let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(w, "{{\"unit\":\"ns\",\"spans\":[")?;
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let comma = if i + 1 < self.spans.len() { "," } else { "" };
            writeln!(
                w,
                "{{\"span\":{i},\"layer\":\"{}\",\"start\":{},\"end\":{},\"parent\":{parent},\"id\":{}}}{comma}",
                s.layer, s.start_ns, s.end_ns, s.id
            )?;
        }
        writeln!(w, "]}}")?;
        w.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_children() {
        let mut t = Tracer::new(true);
        t.spans = vec![
            Span {
                layer: "outer",
                start_ns: 0,
                end_ns: 100,
                parent: None,
                id: 0,
            },
            Span {
                layer: "inner",
                start_ns: 10,
                end_ns: 40,
                parent: Some(0),
                id: 0,
            },
            Span {
                layer: "inner",
                start_ns: 50,
                end_ns: 70,
                parent: Some(0),
                id: 0,
            },
        ];
        let times = t.self_times();
        assert_eq!(
            times["outer"],
            LayerTime {
                self_ns: 50,
                calls: 1
            }
        );
        assert_eq!(
            times["inner"],
            LayerTime {
                self_ns: 50,
                calls: 2
            }
        );
    }

    #[test]
    fn nesting_follows_enter_and_exit() {
        let mut t = Tracer::new(true);
        t.enter("a", 1);
        t.enter("b", 1);
        t.exit();
        t.exit();
        t.enter("c", 2);
        t.exit();
        let parents: Vec<_> = t.spans().iter().map(|s| s.parent).collect();
        assert_eq!(parents, [None, Some(0), None]);
        assert!(t.spans().iter().all(|s| s.end_ns >= s.start_ns));
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut t = Tracer::new(false);
        t.enter("a", 1);
        t.exit();
        assert!(t.spans().is_empty());
        assert!(t.self_times().is_empty());
    }
}
