//! In-memory spans around the benchmark's own calls into each layer.
//!
//! A disabled tracer records nothing, so the untraced run pays one
//! branch per call site; the traced run keeps every span in memory and
//! writes them out as JSONL when the run ends.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// Index of a span in its tracer; `NONE` when tracing is off.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpanId(u32);

impl SpanId {
    pub const NONE: SpanId = SpanId(u32::MAX);
}

#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<u32>,
    pub request: Option<u64>,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    pub fn new(enabled: bool) -> Self {
        Self {
            enabled,
            epoch: Instant::now(),
            spans: Vec::new(),
        }
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Opens a span; close it with [`end`](Self::end).
    pub fn begin(&mut self, name: &'static str, parent: SpanId, request: Option<u64>) -> SpanId {
        if !self.enabled {
            return SpanId::NONE;
        }
        let id = u32::try_from(self.spans.len()).expect("fewer than 2^32 spans");
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent: (parent != SpanId::NONE).then_some(parent.0),
            request,
        });
        SpanId(id)
    }

    pub fn end(&mut self, id: SpanId) {
        if id != SpanId::NONE {
            let now = self.now_ns();
            self.spans[id.0 as usize].end_ns = now;
        }
    }

    /// Runs `f` inside a span.
    pub fn time<T>(
        &mut self,
        name: &'static str,
        parent: SpanId,
        request: Option<u64>,
        f: impl FnOnce() -> T,
    ) -> T {
        let id = self.begin(name, parent, request);
        let out = f();
        self.end(id);
        out
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Per-name span count, total and self time.
    pub fn summary(&self) -> BTreeMap<&'static str, SpanTotals> {
        summarize(&self.spans)
    }

    /// Writes every span to `path` as one JSON object per line.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        self.write_jsonl_to(&mut out)?;
        out.flush()
    }

    fn write_jsonl_to(&self, out: &mut impl Write) -> std::io::Result<()> {
        for (id, s) in self.spans.iter().enumerate() {
            let opt = |v: Option<u64>| v.map_or("null".to_string(), |v| v.to_string());
            writeln!(
                out,
                "{{\"id\": {id}, \"name\": \"{}\", \"start_ns\": {}, \"end_ns\": {}, \
                 \"parent\": {}, \"request\": {}}}",
                s.name,
                s.start_ns,
                s.end_ns,
                opt(s.parent.map(u64::from)),
                opt(s.request)
            )?;
        }
        Ok(())
    }
}

#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct SpanTotals {
    pub count: u64,
    pub total_ns: u64,
    /// Total minus the time covered by direct child spans.
    pub self_ns: u64,
}

impl SpanTotals {
    /// Mean span duration, microseconds (zero for no spans).
    pub fn mean_us(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.total_ns as f64 / self.count as f64 / 1e3
        }
    }
}

/// A span's self time is its duration minus the part its direct
/// children cover (children never overlap: the benchmark is sequential
/// within a parent).
pub fn summarize(spans: &[Span]) -> BTreeMap<&'static str, SpanTotals> {
    let mut child_ns = vec![0u64; spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            child_ns[p as usize] += s.duration_ns();
        }
    }
    let mut out: BTreeMap<&'static str, SpanTotals> = BTreeMap::new();
    for (s, covered) in spans.iter().zip(child_ns) {
        let t = out.entry(s.name).or_default();
        t.count += 1;
        t.total_ns += s.duration_ns();
        t.self_ns += s.duration_ns().saturating_sub(covered);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start_ns: u64, end_ns: u64, parent: Option<u32>) -> Span {
        Span {
            name,
            start_ns,
            end_ns,
            parent,
            request: None,
        }
    }

    #[test]
    fn self_time_subtracts_direct_children_only() {
        let spans = vec![
            span("root", 0, 100, None),
            span("child", 10, 30, Some(0)),
            span("child", 40, 50, Some(0)),
            span("grandchild", 12, 20, Some(1)),
        ];
        let s = summarize(&spans);
        assert_eq!(s["root"].self_ns, 70);
        assert_eq!(s["root"].total_ns, 100);
        assert_eq!(s["child"].count, 2);
        assert_eq!(s["child"].total_ns, 30);
        assert_eq!(s["child"].self_ns, 22);
        assert_eq!(s["grandchild"].self_ns, 8);
        assert_eq!(s["child"].mean_us(), 0.015);
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut t = Tracer::new(false);
        let id = t.begin("x", SpanId::NONE, Some(1));
        assert_eq!(id, SpanId::NONE);
        t.end(id);
        assert_eq!(t.time("y", id, None, || 5), 5);
        assert!(t.spans().is_empty());
    }

    #[test]
    fn enabled_tracer_links_parents_and_writes_jsonl() {
        let mut t = Tracer::new(true);
        let root = t.begin("root", SpanId::NONE, Some(7));
        t.time("leaf", root, Some(7), || ());
        t.end(root);
        assert_eq!(t.spans()[1].parent, Some(0));
        assert!(t.spans()[0].end_ns >= t.spans()[1].end_ns);
        let mut buf = Vec::new();
        t.write_jsonl_to(&mut buf).unwrap();
        let text = String::from_utf8(buf).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 2);
        assert!(lines[0].contains("\"parent\": null, \"request\": 7"));
        assert!(lines[1].contains("\"name\": \"leaf\"") && lines[1].contains("\"parent\": 0"));
    }
}
