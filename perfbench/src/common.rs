//! Shared pieces: metric records, order statistics, answer digests, memory
//! and clock readings.

use std::time::Instant;

use bipie_columnstore::{Table, Value};
use bipie_core::query::AggValue;
use bipie_core::ResultRow;

/// One reported metric.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

/// What a workload hands back to `main`.
#[derive(Debug, Default)]
pub struct Report {
    /// Operations attempted (queries, plus insert rounds for `ingest`).
    pub attempted: u64,
    /// Typed errors + sheds + wrong answers.
    pub failed: u64,
    pub metrics: Vec<Metric>,
    /// Free-form context stamped next to the result (`key`, JSON value).
    pub context: Vec<(String, String)>,
}

impl Report {
    pub fn push(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.metrics.push(Metric { name: name.into(), value, unit });
    }

    pub fn ctx(&mut self, key: &str, json_value: impl Into<String>) {
        self.context.push((key.to_owned(), json_value.into()));
    }
}

/// Linear-interpolated quantile of a sample (`q` in `[0, 1]`).
pub fn quantile(values: &[f64], q: f64) -> f64 {
    assert!(!values.is_empty(), "quantile of an empty sample");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q * (v.len() - 1) as f64;
    let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

pub fn geomean(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "geomean of an empty sample");
    (values.iter().map(|v| v.ln()).sum::<f64>() / values.len() as f64).exp()
}

/// Per-class latency samples (ms) folded into the two latency metrics: each
/// class's own percentile, then the geometric mean across classes, so a
/// percentile never lands on the boundary between classes of different
/// cost.
pub fn class_latency_metrics(report: &mut Report, names: &[String], per_class_ms: &[Vec<f64>]) {
    let p50: Vec<f64> = per_class_ms.iter().map(|s| quantile(s, 0.5)).collect();
    let p90: Vec<f64> = per_class_ms.iter().map(|s| quantile(s, 0.9)).collect();
    for (key, values) in [("class_p50_ms", &p50), ("class_p90_ms", &p90)] {
        let fields: Vec<String> = names
            .iter()
            .zip(values)
            .map(|(n, v)| format!("{}: {}", json_str(n), json_num(*v)))
            .collect();
        report.ctx(key, format!("{{{}}}", fields.join(", ")));
    }
    report.push("query_p50_ms", geomean(&p50), "ms");
    report.push("query_p90_ms", geomean(&p90), "ms");
    let samples: usize = per_class_ms.iter().map(Vec::len).sum();
    let fewest = per_class_ms.iter().map(Vec::len).min().unwrap_or(0);
    report.ctx("latency_samples", samples.to_string());
    report.ctx("latency_samples_fewest_class", fewest.to_string());
}

/// Peak resident set size in MiB (`VmHWM` of this process).
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

/// Σ encoded segment bytes and live segment rows of some tables.
pub fn encoded_footprint<'a>(tables: impl IntoIterator<Item = &'a Table>) -> (usize, usize) {
    let (mut bytes, mut rows) = (0, 0);
    for t in tables {
        for s in t.segments() {
            bytes += s.encoded_bytes();
            rows += s.live_rows();
        }
    }
    (bytes, rows)
}

/// FNV-1a over a result's keys and aggregate values: cheap enough to check
/// every timed answer against the one verified at setup.
pub fn digest(rows: &[ResultRow]) -> u64 {
    let mut h = Fnv::new();
    for r in rows {
        for k in &r.keys {
            match k {
                Value::Str(s) => h.bytes(s.as_bytes()),
                other => h.u64(other.as_storage_i64().unwrap_or(i64::MIN) as u64),
            }
        }
        for a in &r.aggs {
            h.u64(match a {
                AggValue::Count(c) => *c,
                AggValue::Sum(s) | AggValue::Min(s) | AggValue::Max(s) => *s as u64,
                AggValue::Avg(f) => f.to_bits(),
            });
        }
    }
    h.0
}

pub struct Fnv(pub u64);

impl Fnv {
    pub fn new() -> Fnv {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    pub fn bytes(&mut self, b: &[u8]) {
        for &x in b {
            self.0 = (self.0 ^ x as u64).wrapping_mul(0x100_0000_01b3);
        }
    }

    pub fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }
}

/// Seconds since `t`.
pub fn secs(t: Instant) -> f64 {
    t.elapsed().as_secs_f64()
}

/// Derive an independent stream seed from the run seed and a salt.
pub fn sub_seed(seed: u64, salt: u64) -> u64 {
    let mut z = seed ^ salt.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

pub fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// A finite JSON number with all its digits (`null` for NaN/inf).
pub fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".to_owned()
    }
}
