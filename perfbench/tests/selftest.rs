//! Benchmark self-tests: at a tiny scale every workload named in
//! `BENCHMARK.json` runs untraced and traced on two seeds, prints every
//! metric the file names with its unit, and passes the correctness gate.
//! They guard against a metric or workload being dropped unnoticed.
//!
//! Run with `cargo test --manifest-path perfbench/Cargo.toml` from the
//! repository root.

use std::path::Path;
use std::process::Command;

const SCALE: &str = "0.02";
const SECONDS: &str = "0.3";
const SEEDS: [&str; 2] = ["7", "1234567"];

fn manifest() -> String {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("read {}: {e}", path.display()))
}

/// The text of the JSON array under `key`.
fn section<'a>(text: &'a str, key: &str) -> &'a str {
    let at = text.find(&format!("\"{key}\"")).unwrap_or_else(|| panic!("no {key}"));
    let open = at + text[at..].find('[').expect("array");
    let close = open + text[open..].find(']').expect("array end");
    &text[open..close]
}

/// The string value of `key` in one JSON object's text.
fn field(obj: &str, key: &str) -> String {
    let k = format!("\"{key}\"");
    let rest = &obj[obj.find(&k).unwrap_or_else(|| panic!("no {key} in {obj}")) + k.len()..];
    let open = rest.find('"').expect("string") + 1;
    let close = open + rest[open..].find('"').expect("string end");
    rest[open..close].to_owned()
}

/// `(name, unit)` of every metric in a section; workloads have no unit.
fn entries(text: &str, key: &str) -> Vec<(String, String)> {
    section(text, key)
        .split('{')
        .skip(1)
        .map(|obj| {
            let unit = if obj.contains("\"unit\"") { field(obj, "unit") } else { String::new() };
            (field(obj, "name"), unit)
        })
        .collect()
}

fn run(workload: &str, seed: &str, trace: &str) -> (bool, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .current_dir(Path::new(env!("CARGO_MANIFEST_DIR")).join(".."))
        .args(["--workload", workload, "--seed", seed, "--seconds", SECONDS])
        .args(["--trace", trace, "--scale", SCALE])
        .output()
        .expect("spawn perfbench");
    let stdout = String::from_utf8_lossy(&out.stdout);
    let last = stdout.lines().last().unwrap_or_default().to_owned();
    (out.status.success(), last)
}

fn check(workload: &str, trace: &str, metrics: &[(String, String)]) {
    for seed in SEEDS {
        let (ok, last) = run(workload, seed, trace);
        assert!(ok, "{workload} seed {seed} trace {trace} exited non-zero: {last}");
        assert!(last.starts_with("{\"correct\": true, \"attempted\": "), "{last}");
        assert!(last.contains("\"failed\": 0, \"metrics\": {"), "{last}");
        for (name, unit) in metrics {
            let key = format!("\"{name}\": {{\"value\": ");
            let at = last
                .find(&key)
                .unwrap_or_else(|| panic!("{workload} trace {trace} lacks {name}: {last}"));
            let value = &last[at + key.len()..];
            assert!(
                value.starts_with(|c: char| c.is_ascii_digit() || c == '-'),
                "{workload}: {name} is not a number"
            );
            let unit_field = format!("\"unit\": \"{unit}\"}}");
            assert!(value
                .split_once(',')
                .is_some_and(|(_, u)| u.trim_start().starts_with(&unit_field)));
        }
        let printed = last.matches("\"value\": ").count();
        assert_eq!(printed, metrics.len(), "{workload} trace {trace} prints extra metrics");
    }
}

#[test]
fn every_workload_prints_every_end_to_end_metric() {
    let text = manifest();
    let metrics = entries(&text, "end_to_end");
    assert!(metrics.iter().any(|(n, u)| n == "setup_s" && u == "s"));
    for (workload, _) in entries(&text, "workloads") {
        check(&workload, "0", &metrics);
    }
}

#[test]
fn every_workload_prints_every_per_layer_metric() {
    let text = manifest();
    let metrics = entries(&text, "per_layer");
    for (workload, _) in entries(&text, "workloads") {
        check(&workload, "1", &metrics);
    }
}

#[test]
fn bad_arguments_exit_without_a_result() {
    for args in [&["--workload", "nope"][..], &["--workload", "q1", "--trace", "2"][..]] {
        let out = Command::new(env!("CARGO_BIN_EXE_perfbench")).args(args).output().expect("spawn");
        assert_eq!(out.status.code(), Some(2));
        assert!(out.stdout.is_empty());
    }
}
