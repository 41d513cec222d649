//! perfbench — the BIPie benchmark.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload q1|encoded_mix|ingest --seed N --seconds S --trace 0|1 [--scale F]
//! ```
//!
//! Run from the repository root. With `--trace 0` the last stdout line is
//! the end-to-end result; with `--trace 1` it holds the per-layer metrics
//! of a separate traced run (see `layers.rs`). The line before it stamps
//! the run's context. `--scale` shrinks every input (self-tests use it);
//! the benchmark's figures are defined at the default of 1. The exit code
//! is non-zero when any answer was wrong or any operation failed.

mod common;
mod context;
mod data;
mod ingest;
mod layers;
mod served;
mod spans;

use common::{json_num, json_str, Report};

pub const WORKLOADS: [&str; 3] = ["q1", "encoded_mix", "ingest"];

/// Parsed command line.
#[derive(Debug, Clone)]
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub scale: f64,
}

fn parse_args() -> Result<Args, String> {
    let mut args =
        Args { workload: String::new(), seed: 1, seconds: 10.0, trace: false, scale: 1.0 };
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("bad {flag} {value}: {e}");
        match flag.as_str() {
            "--workload" => args.workload = value.clone(),
            "--seed" => args.seed = value.parse().map_err(|e| bad(&e))?,
            "--seconds" => args.seconds = value.parse().map_err(|e| bad(&e))?,
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad(&"expected 0 or 1")),
                }
            }
            "--scale" => args.scale = value.parse().map_err(|e| bad(&e))?,
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if !WORKLOADS.contains(&args.workload.as_str()) {
        return Err(format!("--workload must be one of {WORKLOADS:?}"));
    }
    if !(args.seconds > 0.0 && args.scale > 0.0 && args.scale <= 1.0) {
        return Err("--seconds must be positive and --scale in (0, 1]".to_owned());
    }
    Ok(args)
}

impl Args {
    /// `n` rows (or a row count) at the run's `--scale`, at least 16.
    pub fn scaled(&self, n: usize) -> usize {
        ((n as f64 * self.scale).round() as usize).max(16)
    }
}

/// Hardware threads; the benchmark never runs more clients or writers.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    let report = match (args.workload.as_str(), args.trace) {
        ("ingest", false) => ingest::run(&args),
        ("ingest", true) => layers::run_ingest(&args),
        ("q1", false) => served::run(&served::setup_q1(&args), &args),
        ("encoded_mix", false) => served::run(&served::setup_mix(&args), &args),
        (_, true) => layers::run_served(&args),
        // PANIC: parse_args admits only the three workloads.
        _ => unreachable!("workload validated"),
    };
    print_report(&args, &report);
    if report.failed > 0 {
        eprintln!("perfbench: {} of {} operations failed", report.failed, report.attempted);
        std::process::exit(1);
    }
}

fn print_report(args: &Args, report: &Report) {
    let mut ctx = context::stamp(args);
    ctx.extend(report.context.iter().cloned());
    let failed_ratio = report.failed as f64 / report.attempted.max(1) as f64;
    ctx.push(("failed_ops_ratio".to_owned(), json_num(failed_ratio)));
    let fields: Vec<String> = ctx.iter().map(|(k, v)| format!("{}: {v}", json_str(k))).collect();
    println!("{{\"context\": {{{}}}}}", fields.join(", "));
    let metrics: Vec<String> = report
        .metrics
        .iter()
        .map(|m| {
            format!(
                "{}: {{\"value\": {}, \"unit\": {}}}",
                json_str(&m.name),
                json_num(m.value),
                json_str(m.unit)
            )
        })
        .collect();
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        report.failed == 0,
        report.attempted.max(1),
        report.failed,
        metrics.join(", ")
    );
}
