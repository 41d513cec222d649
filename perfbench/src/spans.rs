//! In-memory span recorder for the traced run. Spans are recorded by the
//! benchmark around its own calls into each layer's public functions, kept
//! in memory, and written out once at exit.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;

use bipie_metrics::read_cycles;

use crate::common::json_str;

const NO_PARENT: u32 = u32::MAX;

#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub start: u64,
    pub end: u64,
    pub parent: u32,
    /// Operation id: every span of one replayed query shares it.
    pub op: u32,
    /// Rows the call processed (for cycles/row).
    pub rows: u64,
}

/// Self time and rows summed over the spans of one name.
#[derive(Debug, Clone, Copy, Default)]
pub struct LayerTotals {
    pub self_cycles: u64,
    pub rows: u64,
}

impl LayerTotals {
    pub fn cpr(&self) -> f64 {
        self.self_cycles as f64 / self.rows.max(1) as f64
    }
}

#[derive(Debug, Default)]
pub struct Recorder {
    spans: Vec<Span>,
    open: Vec<u32>,
    op: u32,
    /// When set, spans run their code without recording it (the
    /// tracing-overhead comparison).
    pub off: bool,
}

impl Recorder {
    /// Start a new operation id.
    pub fn next_op(&mut self) {
        self.op += 1;
    }

    /// Run `f` inside a span named `name` covering `rows` rows.
    #[inline]
    pub fn time<R>(&mut self, name: &'static str, rows: usize, f: impl FnOnce() -> R) -> R {
        if self.off {
            return f();
        }
        let idx = self.spans.len() as u32;
        let parent = self.open.last().copied().unwrap_or(NO_PARENT);
        self.spans.push(Span { name, start: 0, end: 0, parent, op: self.op, rows: rows as u64 });
        self.open.push(idx);
        let start = read_cycles();
        let out = f();
        let end = read_cycles();
        self.open.pop();
        let s = &mut self.spans[idx as usize];
        s.start = start;
        s.end = end;
        out
    }

    /// Open a parent span by hand (children recorded until `close`).
    pub fn open(&mut self, name: &'static str, rows: usize) -> u32 {
        if self.off {
            return NO_PARENT;
        }
        let idx = self.spans.len() as u32;
        let parent = self.open.last().copied().unwrap_or(NO_PARENT);
        let start = read_cycles();
        self.spans.push(Span { name, start, end: start, parent, op: self.op, rows: rows as u64 });
        self.open.push(idx);
        idx
    }

    pub fn close(&mut self, idx: u32) {
        if idx == NO_PARENT {
            return;
        }
        let end = read_cycles();
        debug_assert_eq!(self.open.last(), Some(&idx), "spans close in order");
        self.open.pop();
        self.spans[idx as usize].end = end;
    }

    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// Drop the spans recorded after the first `len` (none may be open).
    pub fn truncate(&mut self, len: usize) {
        debug_assert!(self.open.is_empty(), "truncate with open spans");
        self.spans.truncate(len);
    }

    /// Self time (duration minus the part covered by direct children) per
    /// span name, over spans with index ≥ `from`.
    pub fn totals_since(&self, from: usize) -> BTreeMap<&'static str, LayerTotals> {
        let mut child = vec![0u64; self.spans.len()];
        for s in &self.spans[from..] {
            if s.parent != NO_PARENT {
                child[s.parent as usize] += s.end - s.start;
            }
        }
        let mut out: BTreeMap<&'static str, LayerTotals> = BTreeMap::new();
        for (i, s) in self.spans.iter().enumerate().skip(from) {
            let t = out.entry(s.name).or_default();
            t.self_cycles += (s.end - s.start).saturating_sub(child[i]);
            t.rows += s.rows;
        }
        out
    }

    /// Write every span as one JSON object per line.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
        for s in &self.spans {
            let parent = if s.parent == NO_PARENT { -1 } else { s.parent as i64 };
            writeln!(
                w,
                "{{\"name\": {}, \"start\": {}, \"end\": {}, \"parent\": {parent}, \"op\": {}, \"rows\": {}}}",
                json_str(s.name),
                s.start,
                s.end,
                s.op,
                s.rows
            )?;
        }
        w.flush()
    }
}
