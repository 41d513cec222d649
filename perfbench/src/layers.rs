//! The traced run (`--trace 1`): per-layer metrics.
//!
//! The run loads the workload exactly as the untraced run does, then
//! replays the workload's own segments batch by batch through the layers'
//! public functions — filter → group-id map → aggregate processor (and the
//! run-wise path where the engine would take it) — recording a span around
//! every call (`spans.rs`). Self time per layer comes from those spans.
//! Alongside the replay it times `execute` at one and at all workers,
//! reads the engine's own counters (`ExecStats`, `SchedStats`), times the
//! toolbox kernels on the workload's column values, and probes the
//! columnstore write path and the mutable tail with the workload's rows.
//!
//! Every layer metric exists on every workload. Where a workload's queries
//! never reach a layer (no computed SUM in `encoded_mix`, no RLE column in
//! LINEITEM, no wide GROUP BY in Q1) the replay drives that layer with the
//! same call shape over the workload's own columns; the end-to-end metrics
//! of that workload do not depend on it. NOISE.md lists these probes.

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::time::Instant;

use bipie_columnstore::encoding::RleColumn;
use bipie_columnstore::{EncodedColumn, LogicalType, Segment, Table};
use bipie_core::aggproc::{AggInput, RunWiseExec, SegmentAggExecutor};
use bipie_core::expr::{resolve_many, ExprScratch, ResolvedExpr};
use bipie_core::filter::{FilterScratch, ResolvedPredicate};
use bipie_core::groupid::{plan_segment_mapper, SegmentGroupMapper};
use bipie_core::pool::WorkerPool;
use bipie_core::strategy::{AggChoiceParams, StrategyConfig};
use bipie_core::{
    execute, AggExpr, AggStrategy, ExecStats, Expr, Query, QueryOptions, SelectionStrategy,
    SessionOptions,
};
use bipie_metrics::{read_cycles, tsc_hz};
use bipie_toolbox::agg::{in_register, multi, sort_based, ColRef};
use bipie_toolbox::bitpack::PackedVec;
use bipie_toolbox::cmp::{cmp_u32, CmpOp};
use bipie_toolbox::select::{compact, gather, special_group};
use bipie_toolbox::selvec::{count_selected, SelIndexVec};
use bipie_toolbox::{RunSpanVec, SimdLevel};

use crate::common::{digest, encoded_footprint, geomean, median, quantile, secs, Report};
use crate::data::{self, LineItemRows, RowSource};
use crate::served::{self, closed_loop, Served};
use crate::spans::{LayerTotals, Recorder};
use crate::{ingest, Args};

/// A workload as the traced run sees it.
struct Subject {
    served: Served,
    /// An identical copy of the served table, kept for replay and for
    /// direct `execute` calls (the engine owns its own copy).
    table: Table,
    /// Segment size of the write-path and tail probes.
    probe_segment_rows: usize,
}

/// Columns of the workload's schema that drive the layers its own queries
/// may not reach (see NOISE.md): a GROUP BY column that takes the wide
/// (hash) path, the operands of the Q1-shaped computed SUMs (value,
/// discount, tax), and a sorted column for the run-wise path.
struct ProbeColumns {
    wide: &'static str,
    expr: [&'static str; 3],
    sorted: &'static str,
}

impl ProbeColumns {
    fn of(source: &RowSource) -> ProbeColumns {
        match source {
            RowSource::LineItem(_) => ProbeColumns {
                wide: "l_shipdate",
                expr: ["l_extendedprice", "l_discount", "l_tax"],
                sorted: "l_orderkey",
            },
            RowSource::Mix(_) => {
                ProbeColumns { wide: "b13", expr: ["b20", "b3", "b7"], sorted: "day" }
            }
        }
    }
}

pub fn run_served(args: &Args) -> Report {
    let (served, table) = if args.workload == "q1" {
        let served = served::setup_q1(args);
        let table = data::lineitem_table(args.seed, served.rows);
        (served, table)
    } else {
        let served = served::setup_mix(args);
        let seg = args.scaled(data::MIX_SEGMENT_ROWS);
        let table = data::mix_table(args.seed, served.rows, seg);
        (served, table)
    };
    let probe_segment_rows = args.scaled(ingest::SEGMENT_ROWS);
    traced(args, Subject { served, table, probe_segment_rows })
}

/// `ingest` traced: one partition as a writer leaves it after an epoch,
/// queried by the Q1-shaped query at one worker.
pub fn run_ingest(args: &Args) -> Report {
    let shape = ingest::Shape::new(args);
    let rows = shape.batch_rows * ingest::ROUNDS_PER_EPOCH;
    let load = || {
        let mut gen = LineItemRows::new(args.seed);
        let mut t = Table::with_segment_rows(bipie_tpch::lineitem_specs(), shape.segment_rows);
        for _ in 0..rows {
            t.insert(gen.next_row());
        }
        t
    };
    let query = bipie_tpch::q1_query(QueryOptions { threads: Some(1), ..QueryOptions::default() });
    let source = RowSource::LineItem(LineItemRows::new(args.seed));
    let classes = vec![("q1_one_worker".into(), query)];
    let served = served::setup("partition", classes, 1, vec![1], source, load);
    traced(args, Subject { served, table: load(), probe_segment_rows: shape.segment_rows })
}

fn traced(args: &Args, s: Subject) -> Report {
    let cols = ProbeColumns::of(&s.served.source);
    let hz = tsc_hz();
    let mut report = Report::default();
    let mut rec = Recorder::default();
    let level = SimdLevel::detect();
    let nproc = crate::nproc();
    let table_rows = s.table.num_rows() as f64;
    report.attempted = s.served.setup_attempts;
    report.failed = s.served.setup_failures;

    // Answers from the replay copy must match the verified digests.
    for c in &s.served.classes {
        report.attempted += 1;
        if !matches!(execute(&s.table, &c.query), Ok(r) if digest(&r.rows) == c.digest) {
            eprintln!("perfbench: traced copy disagrees on {}", c.name);
            report.failed += 1;
        }
    }

    // --- query timings and the layer replay, interleaved rep by rep so that
    // both see the same mix of the machine's fast and slow phases: execute
    // every class at one worker, replay every class through the layers,
    // execute every class at all workers.
    let with_threads = |q: &Query, threads: Option<usize>| {
        let mut q = q.clone();
        q.options.threads = threads;
        q
    };
    let q1t: Vec<Query> =
        s.served.classes.iter().map(|c| with_threads(&c.query, Some(1))).collect();
    let qnt: Vec<Query> = s.served.classes.iter().map(|c| with_threads(&c.query, None)).collect();
    let plans: Vec<Plan> =
        s.served.classes.iter().filter_map(|c| plan(&s.table, &c.query)).collect();
    if plans.len() != s.served.classes.len() {
        report.failed += 1;
    }
    let (mut t1, mut tn, mut replayed) = (Vec::new(), Vec::new(), Vec::new());
    let mut totals: BTreeMap<&str, LayerTotals> = BTreeMap::new();
    let start = Instant::now();
    while t1.len() < 5 || secs(start) < args.seconds * 0.35 {
        t1.push(q1t.iter().map(|q| time_ok(&s.table, q, &mut report)).sum::<f64>());
        let from = rec.len();
        rec.next_op();
        for p in &plans {
            replay_query(&s.table, p, level, &mut rec);
        }
        let mut layers = 0;
        for (name, t) in rec.totals_since(from) {
            let acc = totals.entry(name).or_default();
            acc.self_cycles += t.self_cycles;
            acc.rows += t.rows;
            if LAYER_SPANS.contains(&name) {
                layers += t.self_cycles;
            }
        }
        replayed.push(layers as f64 / hz);
        // The spans file keeps the first passes; the rest live on only in
        // the totals.
        if replayed.len() > KEPT_PASSES {
            rec.truncate(from);
        }
        tn.push(qnt.iter().map(|q| time_ok(&s.table, q, &mut report)).sum::<f64>());
    }
    let n_classes = q1t.len() as f64;
    let (t1_med, tn_med) = (median(&t1), median(&tn));
    let cpr = |t: f64| t * hz / (table_rows * n_classes);
    report.push("query.cycles_per_row_1t", cpr(t1_med), "cycles/row");
    report.push(
        "query.cycles_per_row_1t_spread",
        (quantile(&t1, 0.75) - quantile(&t1, 0.25)) / t1_med,
        "1",
    );
    report.push("query.cycles_per_row_nt", cpr(tn_med), "cycles/row");
    report.push("query.parallel_efficiency", t1_med / (nproc as f64 * tn_med), "1");
    let cpr_of = |name: &str| totals.get(name).map_or(0.0, |t| t.cpr());
    report.push("filter.eval_cpr", cpr_of("filter.eval"), "cycles/row");
    report.push("groupid.narrow_cpr", cpr_of("groupid.narrow"), "cycles/row");
    report.push("aggproc.process_batch_cpr", cpr_of("aggproc.process_batch"), "cycles/row");
    report.push("query.layer_sum_ratio", median(&replayed) / t1_med, "1");

    // --- counts from the engine's own stats: one pass at one worker (exact
    // strategy tallies), one at all workers (morsels), one governed.
    let stats_1t = pass_stats(&s.table, &q1t, &mut report, None);
    let before = WorkerPool::global().sched_stats();
    let stats_nt = pass_stats(&s.table, &qnt, &mut report, None);
    let after = WorkerPool::global().sched_stats();
    let governed =
        pass_stats(&s.table, &q1t, &mut report, Some(std::time::Duration::from_secs(3600)));
    for st in SelectionStrategy::ALL {
        report.push(
            format!("strategy.selection_batches.{}", slug(st.label())),
            stats_1t.selection_count(st) as f64,
            "count",
        );
    }
    for st in AggStrategy::ALL {
        report.push(
            format!("strategy.agg_segments.{}", slug(st.label())),
            stats_1t.agg_count(st) as f64,
            "count",
        );
    }
    let seen = (stats_1t.segments_eliminated + stats_1t.segments_scanned).max(1);
    report.push(
        "filter.segments_eliminated_ratio",
        stats_1t.segments_eliminated as f64 / seen as f64,
        "1",
    );
    report.push("scan.morsels_per_query", stats_nt.morsels_scanned as f64 / n_classes, "count");
    report.push("scan.morsel_steals_per_query", stats_nt.morsel_steals as f64 / n_classes, "count");
    report.push(
        "scan.bytes_scanned_per_row",
        stats_nt.bytes_scanned as f64 / stats_nt.rows_scanned.max(1) as f64,
        "B/row",
    );
    report.push("scan.gb_per_s", stats_nt.bytes_scanned as f64 / tn_med / 1e9, "GB/s");
    report.push(
        "pool.dispatches_per_query",
        (after.jobs_dispatched - before.jobs_dispatched) as f64 / n_classes,
        "count",
    );
    report.push(
        "pool.switches_per_query",
        (after.query_switches - before.query_switches) as f64 / n_classes,
        "count",
    );
    report.push("governor.checks_per_query", governed.governor_checks as f64 / n_classes, "count");

    // Layers the workload's own queries may not reach, driven with the same
    // call shapes over its columns.
    let from = rec.len();
    rec.next_op();
    probe_wide(&s.table, cols.wide, &mut rec);
    probe_expr(&s.table, &cols.expr, &mut rec);
    probe_runwise(&s.table, cols.sorted, &mut rec);
    let probes = rec.totals_since(from);
    let probe_cpr = |name: &str| probes.get(name).map_or(0.0, |t| t.cpr());
    report.push("groupid.wide_cpr", probe_cpr("groupid.wide"), "cycles/row");
    report.push("expr.decode_cpr", probe_cpr("expr.decode"), "cycles/row");
    report.push("expr.eval_cpr", probe_cpr("expr.eval"), "cycles/row");
    report.push("aggproc.runwise_cpr", probe_cpr("aggproc.runwise"), "cycles/row");

    // --- toolbox kernels on the workload's column values.
    let from = rec.len();
    rec.next_op();
    probe_toolbox(&s.table, cols.expr[0], level, &mut rec);
    let kernels = rec.totals_since(from);
    for (span, metric) in TOOLBOX_SPANS {
        report.push(metric, kernels.get(span).map_or(0.0, |t| t.cpr()), "cycles/row");
    }

    // --- engine: session overhead, queueing under two clients, sheds.
    let mut overhead_us = Vec::new();
    let session = s.served.engine.session(SessionOptions::default());
    let name = s.served.table_name;
    for c in &s.served.classes {
        let (mut via_session, mut direct) = (Vec::new(), Vec::new());
        let start = Instant::now();
        while via_session.len() < 5 || secs(start) < args.seconds * 0.1 / n_classes {
            // The engine's table and the replay copy are different memory:
            // each side runs once untimed so both are timed cache-warm.
            for timed in [false, true] {
                let t = Instant::now();
                let ok =
                    matches!(session.execute(name, &c.query), Ok(r) if digest(&r.rows) == c.digest);
                if timed {
                    via_session.push(secs(t));
                }
                report.attempted += 1;
                report.failed += u64::from(!ok);
            }
            time_ok(&s.table, &c.query, &mut report);
            direct.push(time_ok(&s.table, &c.query, &mut report));
        }
        overhead_us.push((median(&via_session) - median(&direct)) * 1e6);
    }
    report.push("engine.overhead_us", overhead_us.iter().sum::<f64>() / n_classes, "us");
    let one = closed_loop(&s.served, 1, args.seconds * 0.15);
    let two = closed_loop(&s.served, nproc.max(2), args.seconds * 0.15);
    let p50 = |o: &served::LoopOutcome| {
        geomean(
            &o.per_class_ms.iter().filter(|v| !v.is_empty()).map(|v| median(v)).collect::<Vec<_>>(),
        )
    };
    report.push("engine.wait_ms", p50(&two) - p50(&one), "ms");
    report.push("engine.sheds", (one.sheds + two.sheds) as f64, "count");
    report.attempted += one.attempted + two.attempted;
    report.failed += one.failed + two.failed;

    // --- columnstore write path and the mutable tail.
    let (bytes, rows) = encoded_footprint([&s.table]);
    report.push("columnstore.encoded_bytes_per_row", bytes as f64 / rows.max(1) as f64, "B/row");
    let mut rows = s.served.source.reseeded(args.seed ^ 0x7a11);
    let probe = probe_write_path(&mut rows, s.probe_segment_rows, hz);
    report.push("columnstore.insert_ns_per_row", probe.insert_ns_per_row, "ns/row");
    report.push("columnstore.flush_ms", probe.flush_ms, "ms");
    report.push("columnstore.encode_ns_per_row", probe.encode_ns_per_row, "ns/row");
    let tail = probe_tail(probe.table, &q1t, &mut report);
    report.push("query.tail_ns_per_row", tail, "ns/row");

    // --- tracing overhead: the same replay with spans on and off (the
    // spans of these passes are not kept).
    let (mut on, mut off) = (Vec::new(), Vec::new());
    let kept = rec.len();
    for _ in 0..3 {
        for (flag, out) in [(false, &mut on), (true, &mut off)] {
            rec.off = flag;
            let t = Instant::now();
            for p in &plans {
                replay_query(&s.table, p, level, &mut rec);
            }
            out.push(secs(t));
            rec.truncate(kept);
        }
    }
    rec.off = false;
    report.push("trace.overhead_pct", (median(&on) / median(&off) - 1.0) * 100.0, "%");
    report.ctx("spans", rec.len().to_string());

    // One file per workload, replaced by each traced run.
    let path = PathBuf::from("perfbench/out").join(format!("spans-{}.jsonl", args.workload));
    match rec.write_jsonl(&path) {
        Ok(()) => report.ctx("spans_file", crate::common::json_str(&path.to_string_lossy())),
        Err(e) => eprintln!("perfbench: could not write {}: {e}", path.display()),
    }
    report.ctx("rows", s.table.num_rows().to_string());
    report.ctx("replay_passes", replayed.len().to_string());
    report.ctx("query_timing_reps", t1.len().to_string());
    report
}

/// Replay passes whose spans are written out.
const KEPT_PASSES: usize = 3;

/// Spans whose self time counts toward `query.layer_sum_ratio`: the
/// top-level layer calls of the replay (expression evaluation runs inside
/// `aggproc.process_batch`, so it is not added again).
const LAYER_SPANS: [&str; 7] = [
    "filter.eliminate",
    "filter.eval",
    "filter.eval_spans",
    "groupid.narrow",
    "groupid.wide",
    "aggproc.process_batch",
    "aggproc.runwise",
];

/// Toolbox kernel spans and the metrics they feed.
const TOOLBOX_SPANS: [(&str, &str); 11] = [
    ("toolbox.unpack.w4", "toolbox.unpack_cpr.w4"),
    ("toolbox.unpack.w6", "toolbox.unpack_cpr.w6"),
    ("toolbox.unpack.w12", "toolbox.unpack_cpr.w12"),
    ("toolbox.unpack.w24", "toolbox.unpack_cpr.w24"),
    ("toolbox.cmp", "toolbox.cmp_cpr"),
    ("toolbox.gather", "toolbox.gather_cpr"),
    ("toolbox.compact", "toolbox.compact_cpr"),
    ("toolbox.special_group", "toolbox.special_group_cpr"),
    ("toolbox.agg_in_register", "toolbox.agg_in_register_cpr"),
    ("toolbox.agg_multi", "toolbox.agg_multi_cpr"),
    ("toolbox.agg_sort_based", "toolbox.agg_sort_based_cpr"),
];

fn slug(label: &str) -> String {
    label.to_lowercase().replace(' ', "_")
}

/// Execute, check nothing failed, return seconds.
fn time_ok(table: &Table, q: &Query, report: &mut Report) -> f64 {
    let t = Instant::now();
    let r = execute(table, q);
    let s = secs(t);
    report.attempted += 1;
    if let Err(e) = r {
        eprintln!("perfbench: traced execute failed: {e}");
        report.failed += 1;
    }
    s
}

/// One execution of every query; stats summed.
fn pass_stats(
    table: &Table,
    queries: &[Query],
    report: &mut Report,
    time_budget: Option<std::time::Duration>,
) -> ExecStats {
    let mut total = ExecStats::default();
    for q in queries {
        let mut q = q.clone();
        q.options.time_budget = time_budget;
        report.attempted += 1;
        match execute(table, &q) {
            Ok(r) => total.merge(&r.stats),
            Err(e) => {
                eprintln!("perfbench: traced execute failed: {e}");
                report.failed += 1;
            }
        }
    }
    total
}

/// A query resolved against the table the way `execute` resolves it.
struct Plan {
    filter: Option<ResolvedPredicate>,
    group_cols: Vec<(usize, LogicalType)>,
    sums: Vec<ResolvedExpr>,
    mms: Vec<ResolvedExpr>,
    batch_rows: usize,
    config: StrategyConfig,
}

fn plan(table: &Table, q: &Query) -> Option<Plan> {
    let mut group_cols = Vec::new();
    for g in &q.group_by {
        let i = table.column_index(g)?;
        group_cols.push((i, table.specs()[i].ty));
    }
    // Deduplicate like `execute` (SUM and AVG of one column share a slot).
    let (mut sums, mut mms): (Vec<&Expr>, Vec<&Expr>) = (Vec::new(), Vec::new());
    for a in &q.aggregates {
        let (list, e) = match a {
            AggExpr::CountStar => continue,
            AggExpr::Sum(e) | AggExpr::Avg(e) => (&mut sums, e),
            AggExpr::Min(e) | AggExpr::Max(e) => (&mut mms, e),
        };
        if !list.contains(&e) {
            list.push(e);
        }
    }
    let combined: Vec<&Expr> = sums.iter().chain(&mms).copied().collect();
    let mut resolved = resolve_many(&combined, &|n: &str| table.column_index(n)).ok()?;
    let mms = resolved.split_off(sums.len());
    let filter = match &q.filter {
        Some(f) => Some(f.resolve(table).ok()?),
        None => None,
    };
    Some(Plan {
        filter,
        group_cols,
        sums: resolved,
        mms,
        batch_rows: q.options.batch_rows,
        config: q.options.config.clone(),
    })
}

fn bare_rle<'a>(seg: &'a Segment, e: &ResolvedExpr) -> Option<&'a RleColumn> {
    match seg.column(e.as_bare_column()?) {
        EncodedColumn::Rle(r) => Some(r),
        _ => None,
    }
}

/// Replay one query over every segment, batch by batch, with a span
/// around each layer call.
fn replay_query(table: &Table, p: &Plan, level: SimdLevel, rec: &mut Recorder) {
    let mut fscratch = FilterScratch::default();
    let mut sel = Vec::new();
    let (mut gids, mut gscratch) = (Vec::new(), Vec::new());
    for seg in table.segments() {
        if let Some(f) = &p.filter {
            if rec.time("filter.eliminate", 0, || f.eliminates_segment(seg)) {
                continue;
            }
        }
        let Ok(mapper) = plan_segment_mapper(seg, &p.group_cols) else { continue };
        let mapper = match mapper {
            SegmentGroupMapper::Narrow(m) => m,
            SegmentGroupMapper::Wide(mut m) => {
                let (mut ids, mut scratch) = (Vec::new(), Vec::new());
                for (start, len) in batches(seg.num_rows(), p.batch_rows) {
                    let b = rec.open("replay.batch", len);
                    if let Some(f) = &p.filter {
                        sel.resize(len, 0);
                        rec.time("filter.eval", len, || {
                            f.eval_batch(seg, start, &mut sel, &mut fscratch, level)
                        });
                    }
                    rec.time("groupid.wide", len, || {
                        m.extract_batch(start, len, &mut ids, &mut scratch)
                    });
                    rec.close(b);
                }
                continue;
            }
        };
        // The run-wise path: ungrouped, bare RLE aggregates, span filter.
        let rle_sums: Option<Vec<&RleColumn>> = p.sums.iter().map(|e| bare_rle(seg, e)).collect();
        let rle_mms: Option<Vec<&RleColumn>> = p.mms.iter().map(|e| bare_rle(seg, e)).collect();
        let span_ok = p.filter.as_ref().is_none_or(|f| f.span_eligible(seg));
        if let (true, Some(sum_cols), Some(mm_cols), true) =
            (p.group_cols.is_empty(), rle_sums, rle_mms, span_ok)
        {
            let mut exec = RunWiseExec::new(sum_cols, mm_cols);
            let mut spans = RunSpanVec::new();
            for (start, len) in batches(seg.num_rows(), p.batch_rows) {
                let b = rec.open("replay.batch", len);
                match &p.filter {
                    Some(f) => rec.time("filter.eval_spans", len, || {
                        f.eval_batch_spans(seg, start, len, &mut spans, &mut fscratch)
                    }),
                    None => spans.set_full(len),
                }
                rec.time("aggproc.runwise", len, || exec.process_spans(start, &spans));
                rec.close(b);
            }
            std::hint::black_box(exec.finish());
            continue;
        }
        let plan_input = |e: &ResolvedExpr| match e.as_bare_column().map(|c| seg.column(c)) {
            Some(EncodedColumn::BitPack(c)) => AggInput::Packed(c),
            _ => AggInput::Computed(e.clone()),
        };
        let inputs: Vec<AggInput> = p.sums.iter().map(plan_input).collect();
        let mm_inputs: Vec<AggInput> = p.mms.iter().map(plan_input).collect();
        let dominant_bits = inputs
            .iter()
            .filter_map(|i| match i {
                AggInput::Packed(c) => Some(c.bits()),
                AggInput::Computed(_) => None,
            })
            .max()
            .unwrap_or_else(|| mapper.code_bits());
        let widths: Vec<usize> = inputs.iter().map(AggInput::width_bytes).collect();
        let mut params = AggChoiceParams {
            num_groups_effective: mapper.num_groups() + 1,
            num_sums: inputs.len(),
            all_packed_narrow: !inputs.is_empty() && inputs.iter().all(AggInput::sortable_packed),
            multi_layout_fits: multi::RowLayout::plan(&widths).is_some(),
            input_bytes: widths,
            est_selectivity: 1.0,
            runwise_runs_fraction: None,
        };
        let mut pending = Some((inputs, mm_inputs));
        let mut exec: Option<SegmentAggExecutor> = None;
        for (start, len) in batches(seg.num_rows(), p.batch_rows) {
            let b = rec.open("replay.batch", len);
            rec.time("groupid.narrow", len, || {
                mapper.extract_batch(start, len, &mut gids, &mut gscratch, level)
            });
            let selected = p.filter.as_ref().map(|f| {
                sel.resize(len, 0);
                rec.time("filter.eval", len, || {
                    f.eval_batch(seg, start, &mut sel, &mut fscratch, level)
                });
                &sel[..]
            });
            let selectivity =
                selected.map_or(1.0, |s| count_selected(s, level) as f64 / len.max(1) as f64);
            let selection = p.config.choose_selection(selectivity, dominant_bits);
            let exec = exec.get_or_insert_with(|| {
                params.est_selectivity = selectivity;
                let strategy = p.config.choose_agg(&params);
                // PANIC: `pending` is taken exactly once, on the first batch.
                let (inputs, mm_inputs) = pending.take().expect("first batch");
                SegmentAggExecutor::with_min_max(
                    strategy,
                    mapper.num_groups(),
                    inputs,
                    mm_inputs,
                    level,
                )
            });
            rec.time("aggproc.process_batch", len, || {
                exec.process_batch(seg, start, len, &mut gids, selected, selection)
            });
            rec.close(b);
        }
        if let Some(e) = exec {
            std::hint::black_box(e.finish());
        }
    }
}

fn batches(rows: usize, batch: usize) -> impl Iterator<Item = (usize, usize)> {
    (0..rows).step_by(batch.max(1)).map(move |s| (s, batch.min(rows - s)))
}

/// GROUP BY a high-cardinality column: the wide mapper on every segment.
fn probe_wide(table: &Table, col: &str, rec: &mut Recorder) {
    let Some(i) = table.column_index(col) else { return };
    let cols = [(i, table.specs()[i].ty)];
    for seg in table.segments() {
        let Ok(SegmentGroupMapper::Wide(mut m)) = plan_segment_mapper(seg, &cols) else {
            continue;
        };
        let (mut ids, mut scratch) = (Vec::new(), Vec::new());
        for (start, len) in batches(seg.num_rows(), bipie_columnstore::BATCH_ROWS) {
            rec.time("groupid.wide", len, || m.extract_batch(start, len, &mut ids, &mut scratch));
        }
    }
}

/// Q1's two computed SUMs, `v*(100-d)` and `v*(100-d)*(100+t)`, over the
/// given operand columns: operand decode, then CSE-compiled evaluation.
fn probe_expr(table: &Table, cols: &[&str; 3], rec: &mut Recorder) {
    let (v, d, t) = (|| Expr::col(cols[0]), || Expr::col(cols[1]), || Expr::col(cols[2]));
    let disc = v().mul(Expr::lit(100).sub(d()));
    let charge = v().mul(Expr::lit(100).sub(d())).mul(Expr::lit(100).add(t()));
    let Ok(exprs) = resolve_many(&[&disc, &charge], &|n: &str| table.column_index(n)) else {
        return;
    };
    let needed: Vec<usize> = exprs[1].columns();
    let mut decoded: Vec<(usize, Vec<i64>)> = needed.iter().map(|&c| (c, Vec::new())).collect();
    let mut outs = vec![Vec::new(), Vec::new()];
    let mut scratch = ExprScratch::default();
    for seg in table.segments() {
        for (start, len) in batches(seg.num_rows(), bipie_columnstore::BATCH_ROWS) {
            rec.time("expr.decode", len, || {
                for (c, buf) in decoded.iter_mut() {
                    buf.resize(len, 0);
                    seg.column(*c).decode_i64_into(start, buf);
                }
            });
            let lookup = |idx: usize| -> &[i64] {
                decoded.iter().find(|(c, _)| *c == idx).map_or(&[][..], |(_, v)| v.as_slice())
            };
            rec.time("expr.eval", len, || {
                for (i, e) in exprs.iter().enumerate() {
                    let (done, rest) = outs.split_at_mut(i);
                    let prev = |p: usize| -> &[i64] { &done[p] };
                    e.eval_batch_with_prev(len, &lookup, &prev, &mut rest[0], &mut scratch);
                }
            });
        }
    }
    std::hint::black_box(&outs);
}

/// Run-wise SUM/MIN/MAX over a sorted column: the table's own RLE column
/// when it has one, else that column run-length encoded per segment.
fn probe_runwise(table: &Table, col: &str, rec: &mut Recorder) {
    let Some(i) = table.column_index(col) else { return };
    for seg in table.segments() {
        let owned;
        let rle = match seg.column(i) {
            EncodedColumn::Rle(r) => r,
            other => {
                let mut values = vec![0i64; other.len()];
                other.decode_i64_into(0, &mut values);
                owned = RleColumn::encode(&values);
                &owned
            }
        };
        let mut exec = RunWiseExec::new(vec![rle], vec![rle]);
        let mut spans = RunSpanVec::new();
        for (start, len) in batches(seg.num_rows(), bipie_columnstore::BATCH_ROWS) {
            spans.set_full(len);
            rec.time("aggproc.runwise", len, || exec.process_spans(start, &spans));
        }
        std::hint::black_box(exec.finish());
    }
}

/// Toolbox kernels on values of `col` from the first segment (at most 2^18
/// rows), packed at the widths Q1's LINEITEM columns use: 4 (discount,
/// tax), 6 (quantity), 12 (ship date) and 24 (extended price) bits.
fn probe_toolbox(table: &Table, col: &str, level: SimdLevel, rec: &mut Recorder) {
    let (Some(i), Some(seg)) = (table.column_index(col), table.segments().first()) else {
        return;
    };
    let n = seg.num_rows().min(1 << 18);
    let mut raw = vec![0i64; n];
    seg.column(i).decode_i64_into(0, &mut raw);
    let pack = |bits: u8| {
        let mask = (1u64 << bits) - 1;
        PackedVec::pack(&raw.iter().map(|&v| v as u64 & mask).collect::<Vec<_>>(), bits)
    };
    let (p4, p6, p12, p24) = (pack(4), pack(6), pack(12), pack(24));
    let b = bipie_columnstore::BATCH_ROWS;
    let (mut u8a, mut u8b, mut u16a, mut u32a) =
        (vec![0u8; b], vec![0u8; b], vec![0u16; b], vec![0u32; b]);
    let (mut sel, mut gids) = (vec![0u8; b], vec![0u8; b]);
    let mut iv = SelIndexVec::default();
    let mut sorted = sort_based::SortedBatch::default();
    let layout = multi::RowLayout::plan(&[1, 2, 4]);
    let mut sums = vec![0i64; 3 * 8];
    let mut gathered = Vec::new();
    for _ in 0..3 {
        for (start, len) in batches(n, b) {
            rec.time("toolbox.unpack.w4", len, || p4.unpack_into_u8(start, &mut u8a[..len], level));
            rec.time("toolbox.unpack.w6", len, || p6.unpack_into_u8(start, &mut u8b[..len], level));
            rec.time("toolbox.unpack.w12", len, || {
                p12.unpack_into_u16(start, &mut u16a[..len], level)
            });
            rec.time("toolbox.unpack.w24", len, || {
                p24.unpack_into_u32(start, &mut u32a[..len], level)
            });
            // ≈50% of rows pass a compare at the middle of the 24-bit range.
            rec.time("toolbox.cmp", len, || {
                cmp_u32(&u32a[..len], CmpOp::Le, 1 << 23, &mut sel[..len], level)
            });
            rec.time("toolbox.compact", len, || {
                compact::compact_indices(&sel[..len], &mut iv, level)
            });
            // A 5% selection: every 20th row of the batch.
            let idx: Vec<u32> = (start..start + len).step_by(20).map(|r| r as u32).collect();
            gathered.resize(idx.len(), 0);
            rec.time("toolbox.gather", len, || {
                gather::gather_unpack_u32(&p24, &idx, &mut gathered, level)
            });
            for (g, v) in gids[..len].iter_mut().zip(&u8a[..len]) {
                *g = v & 7;
            }
            rec.time("toolbox.agg_in_register", len, || {
                in_register::sum_u8(&gids[..len], &u8b[..len], 8, &mut sums[..8], level)
            });
            if let Some(layout) = &layout {
                let cols =
                    [ColRef::U8(&u8b[..len]), ColRef::U16(&u16a[..len]), ColRef::U32(&u32a[..len])];
                rec.time("toolbox.agg_multi", len, || {
                    multi::sum_multi(&gids[..len], &cols, layout, 8, &mut sums, level)
                });
            }
            rec.time("toolbox.agg_sort_based", len, || {
                sort_based::bucket_sort(&gids[..len], None, 8, &mut sorted);
                sort_based::sum_sorted_packed(&p24, &sorted, start as u32, &mut sums[..8], level)
            });
            rec.time("toolbox.special_group", len, || {
                special_group::assign_special_group_in_place(
                    &mut gids[..len],
                    &sel[..len],
                    8,
                    level,
                )
            });
        }
    }
    std::hint::black_box((&sums, &gathered, &iv));
}

struct WriteProbe {
    table: Table,
    insert_ns_per_row: f64,
    flush_ms: f64,
    encode_ns_per_row: f64,
}

/// Insert two segments' worth of the workload's rows plus a quarter
/// segment of tail, timing every `Table::insert`; the calls that flushed a
/// segment are the flush (encode) timings, the rest the row inserts.
fn probe_write_path(rows: &mut RowSource, seg_rows: usize, hz: f64) -> WriteProbe {
    let mut table = Table::with_segment_rows(rows.specs(), seg_rows);
    let (mut insert_cycles, mut inserts) = (0u64, 0u64);
    let mut flushes = Vec::new();
    for _ in 0..(2 * seg_rows + seg_rows / 4) {
        let row = rows.next_row();
        let segs = table.segments().len();
        let t = read_cycles();
        table.insert(row);
        let c = read_cycles() - t;
        if table.segments().len() > segs {
            flushes.push(c as f64);
        } else {
            insert_cycles += c;
            inserts += 1;
        }
    }
    let ns = 1e9 / hz;
    WriteProbe {
        table,
        insert_ns_per_row: insert_cycles as f64 / inserts.max(1) as f64 * ns,
        flush_ms: median(&flushes) * ns / 1e6,
        encode_ns_per_row: flushes.iter().sum::<f64>() / (flushes.len() * seg_rows) as f64 * ns,
    }
}

/// (query with the mutable tail − same query after `flush_mutable`) ÷ tail
/// rows, averaged over the workload's queries at one worker.
fn probe_tail(mut table: Table, queries: &[Query], report: &mut Report) -> f64 {
    let tail = table.mutable_rows().len().max(1) as f64;
    let time = |table: &Table, report: &mut Report| -> Vec<f64> {
        queries
            .iter()
            .map(|q| {
                let reps: Vec<f64> = (0..5).map(|_| time_ok(table, q, report)).collect();
                median(&reps)
            })
            .collect()
    };
    let with_tail = time(&table, report);
    table.flush_mutable();
    let flushed = time(&table, report);
    let deltas: Vec<f64> =
        with_tail.iter().zip(&flushed).map(|(a, b)| (a - b) / tail * 1e9).collect();
    deltas.iter().sum::<f64>() / deltas.len().max(1) as f64
}
