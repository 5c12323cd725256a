//! In-memory spans around the benchmark's own calls into each layer.
//!
//! A span is `{name, start_ns, end_ns, parent, op_id}`; spans of one
//! operation share `op_id`. They stay in memory while the workload runs
//! and are written as JSON lines when it ends. A layer's self time is its
//! span minus the part its children cover.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<u32>,
    pub op_id: u64,
}

/// Span recorder. A disabled tracer records nothing, so the untraced and
/// the traced run share one code path and differ only in this flag.
#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    spans: Vec<Span>,
}

/// Handle to a span that is still open.
#[derive(Debug, Clone, Copy)]
pub struct SpanId(Option<u32>);

impl Tracer {
    pub fn new(enabled: bool) -> Self {
        Tracer {
            enabled,
            epoch: Instant::now(),
            spans: Vec::new(),
        }
    }

    /// Switches recording on or off between passes; the epoch and the
    /// spans already recorded stay.
    pub fn set_enabled(&mut self, enabled: bool) {
        self.enabled = enabled;
    }

    fn ns(&self, at: Instant) -> u64 {
        at.duration_since(self.epoch).as_nanos() as u64
    }

    /// Opens a span that started at `start`; close it with [`Tracer::close`].
    pub fn open(
        &mut self,
        name: &'static str,
        start: Instant,
        parent: SpanId,
        op_id: u64,
    ) -> SpanId {
        if !self.enabled {
            return SpanId(None);
        }
        let start_ns = self.ns(start);
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent: parent.0,
            op_id,
        });
        SpanId(Some((self.spans.len() - 1) as u32))
    }

    pub fn close(&mut self, id: SpanId, end: Instant) {
        if let Some(i) = id.0 {
            let end_ns = self.ns(end);
            self.spans[i as usize].end_ns = end_ns;
        }
    }

    /// Records a finished span in one step.
    pub fn record(
        &mut self,
        name: &'static str,
        start: Instant,
        end: Instant,
        parent: SpanId,
        op_id: u64,
    ) {
        let id = self.open(name, start, parent, op_id);
        self.close(id, end);
    }

    pub fn root() -> SpanId {
        SpanId(None)
    }

    #[cfg(test)]
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Per span name: `(count, total ns, self ns)`, self time being the
    /// span's duration minus its direct children's.
    pub fn self_times(&self) -> BTreeMap<&'static str, (u64, u64, u64)> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p as usize] += s.end_ns - s.start_ns;
            }
        }
        let mut out: BTreeMap<&'static str, (u64, u64, u64)> = BTreeMap::new();
        for (s, &children) in self.spans.iter().zip(&child_ns) {
            let total = s.end_ns - s.start_ns;
            let e = out.entry(s.name).or_default();
            e.0 += 1;
            e.1 += total;
            e.2 += total.saturating_sub(children);
        }
        out
    }

    /// Writes every span as one JSON object per line.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (id, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                w,
                "{{\"id\":{id},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"op_id\":{}}}",
                s.name, s.start_ns, s.end_ns, s.op_id
            )?;
        }
        w.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn self_time_is_span_minus_children() {
        let mut t = Tracer::new(true);
        let t0 = t.epoch;
        let at = |us: u64| t0 + Duration::from_micros(us);
        let op = t.open("op", at(0), Tracer::root(), 9);
        t.record("client.submit", at(0), at(10), op, 9);
        t.record("verify", at(60), at(100), op, 9);
        t.close(op, at(100));
        let st = t.self_times();
        assert_eq!(st["op"], (1, 100_000, 50_000));
        assert_eq!(st["verify"], (1, 40_000, 40_000));
        assert!(t.spans().iter().all(|s| s.op_id == 9));
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut t = Tracer::new(false);
        let now = Instant::now();
        let op = t.open("op", now, Tracer::root(), 1);
        t.record("verify", now, now, op, 1);
        t.close(op, now);
        assert!(t.spans().is_empty());
    }
}
