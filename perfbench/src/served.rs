//! The two read workloads served through `Engine` sessions in a closed
//! loop: `q1` (one client, TPC-H Q1) and `encoded_mix` (nproc clients on two
//! weighted sessions cycling through the mix classes).

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

use bipie_columnstore::Table;
use bipie_core::reference::execute_reference;
use bipie_core::{execute, Engine, EngineConfig, EngineError, Query, QueryOptions, SessionOptions};

use crate::common::{class_latency_metrics, digest, encoded_footprint, peak_rss_mb, secs, Report};
use crate::data::{self, RowSource};
use crate::Args;

/// A query class with the digest of its verified answer.
pub struct Class {
    pub name: String,
    pub query: Query,
    pub digest: u64,
}

/// The loaded state of a served workload.
pub struct Served {
    pub engine: Arc<Engine>,
    pub table_name: &'static str,
    pub classes: Vec<Class>,
    /// Clients of the timed phase and the session weights they cycle over.
    pub clients: usize,
    pub weights: Vec<u32>,
    pub setup_s: f64,
    pub rows: usize,
    pub encoded_bytes: usize,
    /// The workload's rows, for the write-path measurement.
    pub source: RowSource,
    /// Setup's checked queries (reference checks and warm-up passes), and
    /// those whose answer was wrong or failed.
    pub setup_attempts: u64,
    pub setup_failures: u64,
}

/// Setups per run; `setup_s` is their median.
const SETUP_REPS: usize = 3;
/// Untimed warm-up passes over every class after each setup.
const WARMUP_PASSES: usize = 2;

pub fn setup_q1(args: &Args) -> Served {
    let rows = args.scaled((0.2 * data::LINEITEM_ROWS_PER_SF) as usize);
    let specs = vec![("q1".to_owned(), bipie_tpch::q1_query(QueryOptions::default()))];
    let source = RowSource::LineItem(data::LineItemRows::new(args.seed));
    setup("lineitem", specs, 1, vec![1], source, || data::lineitem_table(args.seed, rows))
}

pub fn setup_mix(args: &Args) -> Served {
    let (rows, seg) = (args.scaled(data::MIX_ROWS), args.scaled(data::MIX_SEGMENT_ROWS));
    let specs = data::mix_classes(rows).into_iter().map(|c| (c.name.to_owned(), c.query)).collect();
    let source = RowSource::Mix(data::MixRows::new(args.seed));
    setup("mix", specs, crate::nproc(), vec![1, 2], source, || {
        data::mix_table(args.seed, rows, seg)
    })
}

/// Rows per chunk of [`chunked_load`] (full scale); one segment each.
const LOAD_CHUNK_ROWS: usize = 1 << 16;
/// Share of the timed phase spent on [`chunked_load`].
const LOAD_SHARE: f64 = 0.2;
/// The timed phase alternates this many query and load slices, so both
/// figures sample the machine's fast and slow phases across the whole run.
const SLICES: usize = 6;

/// The write path at full width, for `seconds`: nproc writers claim
/// chunks of the workload's rows (chunk seeds from the shared ticket
/// counter `next`), generate each chunk outside the timer, then insert and
/// encode it into a table of their own. Returns the rows loaded and the
/// summed writer busy seconds. Claiming chunks keeps both cores busy to the
/// end, so the figure does not follow whichever core happens to be slow.
fn chunked_load(args: &Args, source: &RowSource, seconds: f64, next: &AtomicU64) -> (usize, f64) {
    let chunk = args.scaled(LOAD_CHUNK_ROWS);
    let writers = crate::nproc();
    let start = Instant::now();
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..writers)
            .map(|_| {
                scope.spawn(move || {
                    let (mut rows, mut busy) = (0usize, 0.0);
                    while rows == 0 || secs(start) < seconds {
                        // ORDERING: a ticket counter; it publishes no data.
                        let c = next.fetch_add(1, Ordering::Relaxed);
                        let mut g = source.reseeded(crate::common::sub_seed(args.seed, c));
                        let batch: Vec<_> = (0..chunk).map(|_| g.next_row()).collect();
                        let t = Instant::now();
                        let mut table = Table::with_segment_rows(source.specs(), chunk);
                        for row in batch {
                            table.insert(row);
                        }
                        table.flush_mutable();
                        busy += secs(t);
                        rows += chunk;
                    }
                    (rows, busy)
                })
            })
            .collect();
        handles
            .into_iter()
            // PANIC: a writer panicking is a benchmark bug; surface it.
            .map(|h| h.join().expect("writer thread panicked"))
            .fold((0, 0.0), |(r, b), (r2, b2)| (r + r2, b + b2))
    })
}

/// Generate and load the table, register it, warm up, [`SETUP_REPS`]
/// times; the reference answers are checked once, outside the timer.
pub fn setup(
    table_name: &'static str,
    specs: Vec<(String, Query)>,
    clients: usize,
    weights: Vec<u32>,
    source: RowSource,
    load: impl Fn() -> Table,
) -> Served {
    let engine = Engine::new(EngineConfig::default());
    let mut durations = Vec::new();
    let mut classes: Vec<Class> = Vec::new();
    let (mut setup_attempts, mut setup_failures) = (0, 0);
    let (mut encoded_bytes, mut rows) = (0, 0);
    for _ in 0..SETUP_REPS {
        engine.deregister_table(table_name);
        let t = Instant::now();
        let table = load();
        (encoded_bytes, rows) = encoded_footprint([&table]);
        let mut untimed = 0.0;
        if classes.is_empty() {
            let v = Instant::now();
            for (name, query) in &specs {
                let (d, ok) = verify(&table, query, name);
                setup_attempts += 1;
                setup_failures += u64::from(!ok);
                classes.push(Class { name: name.clone(), query: query.clone(), digest: d });
            }
            untimed = secs(v);
        }
        engine.register_table(table_name, table);
        let session = engine.session(SessionOptions::default());
        for _ in 0..WARMUP_PASSES {
            for c in &classes {
                setup_attempts += 1;
                match session.execute(table_name, &c.query) {
                    Ok(r) if digest(&r.rows) == c.digest => {}
                    _ => setup_failures += 1,
                }
            }
        }
        durations.push(secs(t) - untimed);
    }
    Served {
        engine,
        table_name,
        classes,
        clients,
        weights,
        setup_s: crate::common::median(&durations),
        rows,
        encoded_bytes,
        source,
        setup_attempts,
        setup_failures,
    }
}

/// Run `query` on the engine and on the row-at-a-time reference; return the
/// reference digest and whether both agree.
pub fn verify(table: &Table, query: &Query, name: &str) -> (u64, bool) {
    let want = match execute_reference(table, query) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("perfbench: reference failed on {name}: {e}");
            return (0, false);
        }
    };
    let ok = match execute(table, query) {
        Ok(got) if got.rows == want.rows => true,
        Ok(_) => {
            eprintln!("perfbench: wrong answer on {name} at setup");
            false
        }
        Err(e) => {
            eprintln!("perfbench: engine error on {name} at setup: {e}");
            false
        }
    };
    (digest(&want.rows), ok)
}

/// Latencies and outcome counts of one closed-loop phase.
pub struct LoopOutcome {
    pub per_class_ms: Vec<Vec<f64>>,
    pub attempted: u64,
    pub failed: u64,
    /// Failures that were admission sheds (queue full, timeout).
    pub sheds: u64,
    pub completed: u64,
    pub elapsed_s: f64,
}

impl LoopOutcome {
    /// Add another outcome's samples and counts (not its elapsed time:
    /// concurrent clients overlap, consecutive slices add up).
    fn absorb(&mut self, other: LoopOutcome) {
        for (dst, src) in self.per_class_ms.iter_mut().zip(other.per_class_ms) {
            dst.extend(src);
        }
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.sheds += other.sheds;
        self.completed += other.completed;
    }

    fn empty(classes: usize) -> LoopOutcome {
        LoopOutcome {
            per_class_ms: vec![Vec::new(); classes],
            attempted: 0,
            failed: 0,
            sheds: 0,
            completed: 0,
            elapsed_s: 0.0,
        }
    }
}

/// `clients` threads, each on its own session (weights assigned round
/// robin), each cycling through the classes from its own offset and
/// sending its next query only when the previous one answered.
pub fn closed_loop(s: &Served, clients: usize, seconds: f64) -> LoopOutcome {
    let n = s.classes.len();
    let start = Instant::now();
    let per_client: Vec<LoopOutcome> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..clients)
            .map(|c| {
                let weight = s.weights[c % s.weights.len()];
                let session = s.engine.session(SessionOptions { weight, ..Default::default() });
                scope.spawn(move || {
                    let mut out = LoopOutcome::empty(n);
                    let mut k = c * n / clients.max(1);
                    while secs(start) < seconds {
                        let class = &s.classes[k % n];
                        let t = Instant::now();
                        let outcome = session.execute(s.table_name, &class.query);
                        out.per_class_ms[k % n].push(secs(t) * 1e3);
                        out.attempted += 1;
                        match outcome {
                            Ok(r) if digest(&r.rows) == class.digest => out.completed += 1,
                            Ok(_) => {
                                eprintln!("perfbench: wrong answer on {}", class.name);
                                out.failed += 1;
                            }
                            Err(e) => {
                                eprintln!("perfbench: {} failed: {e}", class.name);
                                out.failed += 1;
                                out.sheds += u64::from(matches!(
                                    e,
                                    EngineError::AdmissionRejected { .. }
                                        | EngineError::AdmissionTimeout { .. }
                                ));
                            }
                        }
                        k += 1;
                    }
                    out.elapsed_s = secs(start);
                    out
                })
            })
            .collect();
        // PANIC: a client thread panicking is a benchmark bug; surface it.
        handles.into_iter().map(|h| h.join().expect("client thread panicked")).collect()
    });
    let mut out = LoopOutcome::empty(n);
    for client in per_client {
        out.elapsed_s = out.elapsed_s.max(client.elapsed_s);
        out.absorb(client);
    }
    out
}

/// The untraced run: `seconds` of closed-loop queries and chunked loads,
/// in [`SLICES`] alternating slices.
pub fn run(s: &Served, args: &Args) -> Report {
    let mut report = Report::default();
    let slice = args.seconds / SLICES as f64;
    let mut out = LoopOutcome::empty(s.classes.len());
    let (mut rows, mut busy, next) = (0, 0.0, AtomicU64::new(0));
    for _ in 0..SLICES {
        let queries = closed_loop(s, s.clients, slice * (1.0 - LOAD_SHARE));
        out.elapsed_s += queries.elapsed_s;
        out.absorb(queries);
        let (r, b) = chunked_load(args, &s.source, slice * LOAD_SHARE, &next);
        rows += r;
        busy += b;
    }
    let ingest_rows_per_s = rows as f64 / (busy / crate::nproc() as f64);
    report.attempted = out.attempted + s.setup_attempts;
    report.failed = out.failed + s.setup_failures;
    report.push("setup_s", s.setup_s, "s");
    let names: Vec<String> = s.classes.iter().map(|c| c.name.clone()).collect();
    class_latency_metrics(&mut report, &names, &out.per_class_ms);
    report.push("qps", out.completed as f64 / out.elapsed_s, "1/s");
    report.push("ingest_rows_per_s", ingest_rows_per_s, "rows/s");
    report.push("stored_bytes_per_row", s.encoded_bytes as f64 / s.rows as f64, "B/row");
    report.push("peak_rss_mb", peak_rss_mb(), "MiB");
    report.ctx("rows", s.rows.to_string());
    report.ctx("clients", s.clients.to_string());
    report.ctx("classes", s.classes.len().to_string());
    report
}
