//! `ingest`: nproc LINEITEM partitions, one writer thread each. Every round
//! each writer appends a fixed batch with `Table::insert`, then runs a
//! Q1-shaped query on one worker over its segments and mutable tail. A
//! round is a fork-join timed as its slowest partition.
//!
//! Partitions are rebuilt from empty every [`ROUNDS_PER_EPOCH`] rounds, and
//! the timed phase always ends on an epoch boundary, so each epoch sees the
//! same sequence of table shapes (tail lengths, segment counts) and the
//! per-round latency distribution does not drift with run length.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Barrier, Mutex};
use std::time::Instant;

use bipie_columnstore::{Table, Value};
use bipie_core::query::AggValue;
use bipie_core::{execute, QueryOptions, QueryResult};

use crate::common::{
    class_latency_metrics, encoded_footprint, median, peak_rss_mb, secs, sub_seed, Report,
};
use crate::data::LineItemRows;
use crate::Args;

/// Rows per segment of each partition.
pub const SEGMENT_ROWS: usize = 1 << 17;
/// Rows each writer appends per round (full scale).
pub const BATCH_ROWS: usize = 1 << 14;
/// Rounds between partition rebuilds: two full segments per epoch.
pub const ROUNDS_PER_EPOCH: usize = 16;
/// Untimed epochs run during setup.
const WARMUP_EPOCHS: usize = 1;
/// Setups per run; `setup_s` is their median.
const SETUP_REPS: usize = 3;

/// Running per-group Q1 sums kept by the benchmark from the rows it
/// inserted: key (returnflag, linestatus) → count, then the sums of
/// quantity, price, disc_price, charge, discount.
#[derive(Default)]
pub struct Expected(BTreeMap<(String, String), (u64, [i64; 5])>);

impl Expected {
    fn add(&mut self, row: &[Value]) {
        let cutoff = bipie_tpch::q1_cutoff();
        let (Value::Date(ship), Value::Str(flag), Value::Str(status)) = (&row[7], &row[5], &row[6])
        else {
            return;
        };
        if *ship > cutoff {
            return;
        }
        let v = |i: usize| row[i].as_storage_i64().unwrap_or(0);
        let (qty, price, disc, tax) = (v(1), v(2), v(3), v(4));
        let disc_price = price * (100 - disc);
        let e = self.0.entry((flag.to_string(), status.to_string())).or_default();
        e.0 += 1;
        for (acc, x) in e.1.iter_mut().zip([qty, price, disc_price, disc_price * (100 + tax), disc])
        {
            *acc += x;
        }
    }

    /// True when `result` (a `bipie_tpch::q1_query` answer) matches.
    pub fn matches(&self, result: &QueryResult) -> bool {
        if result.rows.len() != self.0.len() {
            return false;
        }
        result.rows.iter().all(|r| {
            let (Some(f), Some(s)) = (r.keys[0].as_str(), r.keys[1].as_str()) else {
                return false;
            };
            let Some((count, sums)) = self.0.get(&(f.to_owned(), s.to_owned())) else {
                return false;
            };
            let avg = |sum: i64| sum as f64 / (*count).max(1) as f64;
            r.aggs
                == [
                    AggValue::Sum(sums[0]),
                    AggValue::Sum(sums[1]),
                    AggValue::Sum(sums[2]),
                    AggValue::Sum(sums[3]),
                    AggValue::Avg(avg(sums[0])),
                    AggValue::Avg(avg(sums[1])),
                    AggValue::Avg(avg(sums[4])),
                    AggValue::Count(*count),
                ]
        })
    }
}

/// One partition's view of one round.
#[derive(Clone, Copy, Default)]
struct RoundTimes {
    insert_s: f64,
    query_s: f64,
    ok: bool,
}

/// Outcome of running whole epochs on every partition.
pub struct Phase {
    /// Per round, per partition.
    rounds: Vec<Vec<RoundTimes>>,
    pub elapsed_s: f64,
    pub encoded_bytes: usize,
    pub live_rows: usize,
}

impl Phase {
    pub fn rounds(&self) -> usize {
        self.rounds.len()
    }

    /// Slowest-partition insert and query seconds per round.
    fn slowest(&self) -> (Vec<f64>, Vec<f64>) {
        let max = |f: fn(&RoundTimes) -> f64| {
            self.rounds.iter().map(|r| r.iter().map(f).fold(0.0, f64::max)).collect()
        };
        (max(|t| t.insert_s), max(|t| t.query_s))
    }

    fn failures(&self) -> u64 {
        self.rounds.iter().flatten().filter(|t| !t.ok).count() as u64
    }
}

/// Ingest geometry, scaled for self-tests.
#[derive(Clone, Copy)]
pub struct Shape {
    pub partitions: usize,
    pub batch_rows: usize,
    pub segment_rows: usize,
}

impl Shape {
    pub fn new(args: &Args) -> Shape {
        let batch_rows = args.scaled(BATCH_ROWS);
        Shape {
            partitions: crate::nproc(),
            batch_rows,
            segment_rows: batch_rows * (SEGMENT_ROWS / BATCH_ROWS),
        }
    }
}

/// Run whole epochs until `seconds` have passed (at least one epoch).
/// `epoch_salt` separates the row streams of different phases.
pub fn run_epochs(shape: Shape, seed: u64, seconds: f64, epoch_salt: u64) -> Phase {
    let barrier = Barrier::new(shape.partitions);
    let stop = AtomicBool::new(false);
    let start = Instant::now();
    let footprint = Mutex::new((0usize, 0usize));
    let per_partition: Vec<Vec<RoundTimes>> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..shape.partitions)
            .map(|p| {
                let (barrier, stop, footprint) = (&barrier, &stop, &footprint);
                scope.spawn(move || {
                    let options = QueryOptions { threads: Some(1), ..QueryOptions::default() };
                    let query = bipie_tpch::q1_query(options);
                    let mut times = Vec::new();
                    let mut epoch = 0u64;
                    loop {
                        let stream = sub_seed(seed, (epoch_salt + epoch) * 64 + p as u64);
                        let mut gen = LineItemRows::new(stream);
                        let mut table = Table::with_segment_rows(
                            bipie_tpch::lineitem_specs(),
                            shape.segment_rows,
                        );
                        let mut expected = Expected::default();
                        for _ in 0..ROUNDS_PER_EPOCH {
                            let batch: Vec<Vec<Value>> =
                                (0..shape.batch_rows).map(|_| gen.next_row()).collect();
                            for row in &batch {
                                expected.add(row);
                            }
                            barrier.wait();
                            let t = Instant::now();
                            for row in batch {
                                table.insert(row);
                            }
                            let insert_s = secs(t);
                            let t = Instant::now();
                            let result = execute(&table, &query);
                            let query_s = secs(t);
                            let ok = matches!(&result, Ok(r) if expected.matches(r));
                            if !ok {
                                eprintln!("perfbench: ingest partition {p} wrong or failed");
                            }
                            times.push(RoundTimes { insert_s, query_s, ok });
                        }
                        epoch += 1;
                        if p == 0 {
                            // ORDERING: the barrier below orders this store
                            // before every writer's load.
                            stop.store(secs(start) >= seconds, Ordering::Relaxed);
                        }
                        barrier.wait();
                        // ORDERING: read after the barrier; see the store.
                        if stop.load(Ordering::Relaxed) {
                            let (b, r) = encoded_footprint([&table]);
                            // PANIC: no thread panics while holding this lock.
                            let mut f = footprint.lock().expect("footprint lock");
                            f.0 += b;
                            f.1 += r + table.mutable_rows().len();
                            return times;
                        }
                    }
                })
            })
            .collect();
        // PANIC: a writer panicking is a benchmark bug; surface it.
        handles.into_iter().map(|h| h.join().expect("writer thread panicked")).collect()
    });
    let elapsed_s = secs(start);
    let rounds_n = per_partition[0].len();
    let rounds = (0..rounds_n).map(|r| per_partition.iter().map(|p| p[r]).collect()).collect();
    // PANIC: writers have all returned; nobody holds the lock.
    let (encoded_bytes, live_rows) = *footprint.lock().expect("footprint lock");
    Phase { rounds, elapsed_s, encoded_bytes, live_rows }
}

pub fn run(args: &Args) -> Report {
    let shape = Shape::new(args);
    let mut report = Report::default();
    let mut setups = Vec::new();
    let mut failed = 0;
    let mut attempted = 0;
    for rep in 0..SETUP_REPS {
        let t = Instant::now();
        // Warm-up: allocator, pool and code paths, one epoch per partition.
        for e in 0..WARMUP_EPOCHS {
            let warm = run_epochs(shape, args.seed, 0.0, 1_000 + (rep * WARMUP_EPOCHS + e) as u64);
            failed += warm.failures();
            attempted += (warm.rounds() * shape.partitions) as u64;
        }
        setups.push(secs(t));
    }
    let phase = run_epochs(shape, args.seed, args.seconds, 0);
    let (inserts, queries) = phase.slowest();
    let rows = (phase.rounds() * shape.partitions * shape.batch_rows) as f64;
    attempted += (phase.rounds() * shape.partitions) as u64;
    failed += phase.failures();
    report.attempted = attempted;
    report.failed = failed;
    report.push("setup_s", median(&setups), "s");
    let query_ms: Vec<f64> = queries.iter().map(|s| s * 1e3).collect();
    class_latency_metrics(&mut report, &["q1_one_worker".to_owned()], &[query_ms]);
    report.push("qps", (phase.rounds() * shape.partitions) as f64 / phase.elapsed_s, "1/s");
    report.push("ingest_rows_per_s", rows / inserts.iter().sum::<f64>(), "rows/s");
    report.push(
        "stored_bytes_per_row",
        phase.encoded_bytes as f64 / phase.live_rows as f64,
        "B/row",
    );
    report.push("peak_rss_mb", peak_rss_mb(), "MiB");
    report.ctx("partitions", shape.partitions.to_string());
    report.ctx("batch_rows", shape.batch_rows.to_string());
    report.ctx("segment_rows", shape.segment_rows.to_string());
    report.ctx("rounds", phase.rounds().to_string());
    report.ctx("rows_inserted", format!("{rows}"));
    report
}
