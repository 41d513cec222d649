//! The context stamped on every result, so figures from different
//! machines, SIMD tiers or sources are never compared blind.

use std::path::Path;

use bipie_toolbox::SimdLevel;

use crate::common::{json_num, json_str, Fnv};
use crate::Args;

pub fn stamp(args: &Args) -> Vec<(String, String)> {
    let forced = std::env::var("BIPIE_FORCE_SIMD").ok();
    vec![
        ("workload".to_owned(), json_str(&args.workload)),
        ("seed".to_owned(), args.seed.to_string()),
        ("seconds".to_owned(), json_num(args.seconds)),
        ("trace".to_owned(), args.trace.to_string()),
        ("scale".to_owned(), json_num(args.scale)),
        ("nproc".to_owned(), crate::nproc().to_string()),
        ("simd_tier".to_owned(), json_str(&format!("{:?}", SimdLevel::detect()))),
        ("simd_forced".to_owned(), forced.map_or("null".to_owned(), |f| json_str(&f))),
        ("cycle_clock".to_owned(), json_str("rdtsc")),
        ("cycle_clock_hz".to_owned(), json_num(bipie_metrics::tsc_hz())),
        ("wall_clock".to_owned(), json_str("std::time::Instant (CLOCK_MONOTONIC)")),
        ("revision".to_owned(), json_str(&revision())),
    ]
}

/// The git revision when the checkout has one, else a fingerprint of the
/// engine's sources (a checkout exported without `.git` still gets a stamp
/// that changes whenever the code does).
fn revision() -> String {
    if let Some(rev) = git_head() {
        return rev;
    }
    let mut files = Vec::new();
    collect_sources(Path::new("crates"), &mut files);
    files.sort();
    let mut h = Fnv::new();
    for f in &files {
        h.bytes(f.to_string_lossy().as_bytes());
        h.bytes(&std::fs::read(f).unwrap_or_default());
    }
    format!("src-fnv-{:016x}", h.0)
}

fn git_head() -> Option<String> {
    let head = std::fs::read_to_string(".git/HEAD").ok()?;
    let head = head.trim();
    match head.strip_prefix("ref: ") {
        Some(r) => std::fs::read_to_string(Path::new(".git").join(r)).ok().map(|s| s.trim().into()),
        None => Some(head.to_owned()),
    }
}

fn collect_sources(dir: &Path, out: &mut Vec<std::path::PathBuf>) {
    let Ok(entries) = std::fs::read_dir(dir) else { return };
    for e in entries.flatten() {
        let p = e.path();
        if p.is_dir() {
            if p.file_name().is_some_and(|n| n != "target" && n != "fixtures") {
                collect_sources(&p, out);
            }
        } else if p.extension().is_some_and(|x| x == "rs" || x == "toml") {
            out.push(p);
        }
    }
}
