//! The mutable tail through the batch pipeline: every query encodes the
//! table's mutable region into one transient bit-packed segment and scans
//! it like a stored one. These tests pin that the tail's answers are
//! byte-identical to the reference oracle and to a one-worker run for every
//! tail shape that could take a different path — tail-only tables, one-row
//! tails, strings no segment dictionary holds, tails the filter eliminates,
//! tails split into morsels, every forced strategy pairing, MIN/MAX — and
//! that the tail inherits the segment overflow proof: an overflowing tail
//! sum is a typed `PotentialOverflow`, never a wrapped value or a panic, in
//! debug and release builds alike.

use bipie::columnstore::{ColumnSpec, Date, LogicalType, Table, Value};
use bipie::core::query::AggValue;
use bipie::core::reference::execute_reference;
use bipie::core::{
    execute, AggExpr, AggStrategy, EngineError, Expr, Phase, Predicate, ProfileLevel, Query,
    QueryBuilder, QueryOptions, SelectionStrategy, TraceEvent,
};

fn specs() -> Vec<ColumnSpec> {
    vec![
        ColumnSpec::new("g", LogicalType::Str),
        ColumnSpec::new("k", LogicalType::I64),
        ColumnSpec::new("v", LogicalType::I64),
        ColumnSpec::new("d", LogicalType::Date),
    ]
}

/// The `i`-th generated row: `g` from `flags`, small `k`, signed `v`.
fn row(i: i64, flags: &[&str]) -> Vec<Value> {
    let x = i.wrapping_mul(0x9E37_79B9).rem_euclid(1 << 20);
    vec![
        Value::Str(flags[(x % flags.len() as i64) as usize].into()),
        Value::I64(x % 5),
        Value::I64(x % 2_001 - 1_000),
        Value::Date(Date(9_000 + (x % 400) as i32)),
    ]
}

/// `segments` flushed segments of `seg_rows` rows each, then `tail_rows`
/// rows left in the mutable region. Segment rows draw `g` from
/// `["A", "N", "R"]`, tail rows from `tail_flags`.
fn table(segments: usize, seg_rows: usize, tail_rows: usize, tail_flags: &[&str]) -> Table {
    let mut t = Table::with_segment_rows(specs(), 1 << 20);
    let mut i = 0i64;
    for _ in 0..segments {
        for _ in 0..seg_rows {
            t.insert(row(i, &["A", "N", "R"]));
            i += 1;
        }
        t.flush_mutable();
    }
    for _ in 0..tail_rows {
        t.insert(row(i, tail_flags));
        i += 1;
    }
    assert_eq!(t.segments().len(), segments);
    assert_eq!(t.mutable_rows().len(), tail_rows);
    t
}

fn query(filter: Option<Predicate>, group_by: &[&str], options: QueryOptions) -> Query {
    let mut b = QueryBuilder::new();
    if let Some(f) = filter {
        b = b.filter(f);
    }
    for g in group_by {
        b = b.group_by(*g);
    }
    b.aggregate(AggExpr::count_star())
        .aggregate(AggExpr::sum("v"))
        .aggregate(AggExpr::sum_expr(Expr::col("v").mul(Expr::col("k")).add(Expr::lit(3))))
        .aggregate(AggExpr::avg("k"))
        .aggregate(AggExpr::min("v"))
        .aggregate(AggExpr::max_expr(Expr::col("v").sub(Expr::col("k"))))
        .options(options)
        .build()
}

fn one_worker() -> QueryOptions {
    QueryOptions { threads: Some(1), ..Default::default() }
}

/// Run `q` as given, at one worker, and on the oracle; all three must
/// return identical rows. Returns the run with `q`'s own options.
fn assert_agrees(t: &Table, q: &Query, label: &str) -> bipie::core::QueryResult {
    let got = execute(t, q).unwrap();
    let single = execute(t, &Query { options: one_worker(), ..q.clone() }).unwrap();
    let oracle = execute_reference(t, q).unwrap();
    assert_eq!(got.rows, oracle.rows, "{label}: engine vs reference");
    assert_eq!(single.rows, oracle.rows, "{label}: one worker vs reference");
    assert_eq!(got.stats.mutable_rows, t.mutable_rows().len(), "{label}");
    got
}

#[test]
fn tail_only_table_and_one_row_tail_agree() {
    let filter = || Some(Predicate::ne("v", Value::I64(7)));
    for (segments, tail_rows, label) in
        [(0, 3_000, "tail only"), (0, 1, "one-row tail only"), (2, 1, "one-row tail")]
    {
        let t = table(segments, 2_000, tail_rows, &["A", "N", "R"]);
        for group_by in [&[][..], &["g"], &["k", "g"]] {
            let label = format!("{label} group_by={group_by:?}");
            let r = assert_agrees(&t, &query(filter(), group_by, QueryOptions::default()), &label);
            // The tail is scanned as one more segment.
            assert_eq!(r.stats.segments_scanned, segments + 1, "{label}: {:?}", r.stats);
            let r = assert_agrees(&t, &query(None, group_by, QueryOptions::default()), &label);
            assert_eq!(r.stats.rows_scanned, segments * 2_000 + tail_rows, "{label}");
        }
    }
}

#[test]
fn tail_strings_missing_from_every_segment_dictionary() {
    // "Z" and "Ä" exist only in the tail: the tail's own dictionary must
    // answer the filter and produce the group keys.
    let t = table(2, 1_500, 700, &["N", "Z", "Ä"]);
    for (pred, label) in [
        (Predicate::eq("g", Value::Str("Z".into())), "g = Z"),
        (Predicate::ne("g", Value::Str("Z".into())), "g != Z"),
        (Predicate::gt("g", Value::Str("R".into())), "g > R"),
        (Predicate::le("g", Value::Str("N".into())), "g <= N"),
    ] {
        let r = assert_agrees(&t, &query(Some(pred), &["g"], QueryOptions::default()), label);
        assert!(r.num_rows() > 0, "{label}");
    }
    let r = assert_agrees(&t, &query(None, &["g", "k"], QueryOptions::default()), "group by g, k");
    for only_in_tail in ["Z", "Ä"] {
        assert!(
            r.rows.iter().any(|row| row.keys[0] == Value::Str(only_in_tail.into())),
            "{only_in_tail} must be a group key"
        );
    }
}

#[test]
fn tail_eliminated_by_its_metadata() {
    // Segments hold dates from 9000; the tail's are all 20000 and later.
    let mut t = table(2, 1_000, 0, &["A"]);
    for i in 0..300i64 {
        t.insert(vec![
            Value::Str("Z".into()),
            Value::I64(i % 5),
            Value::I64(i),
            Value::Date(Date(20_000 + i as i32)),
        ]);
    }
    let q = query(Some(Predicate::lt("d", Value::Date(Date(10_000)))), &["g"], Default::default());
    let r = assert_agrees(&t, &q, "tail eliminated");
    assert_eq!(r.stats.segments_eliminated, 1, "{:?}", r.stats);
    assert_eq!(r.stats.segments_scanned, 2, "{:?}", r.stats);
    assert_eq!(r.stats.mutable_rows, 300);
    // The converse: only the tail survives.
    let q = query(Some(Predicate::ge("d", Value::Date(Date(20_000)))), &["g"], Default::default());
    let r = assert_agrees(&t, &q, "only the tail survives");
    assert_eq!(r.stats.segments_eliminated, 2, "{:?}", r.stats);
    assert_eq!(r.num_rows(), 1);
}

#[test]
fn tail_longer_than_a_morsel_splits_across_workers() {
    let t = table(1, 2_000, 5_000, &["A", "N", "R", "Z"]);
    let filter = || Some(Predicate::between("v", Value::I64(-700), Value::I64(800)));
    for threads in 1..=4 {
        let options = QueryOptions {
            threads: Some(threads),
            morsel_rows: 512,
            batch_rows: 256,
            ..Default::default()
        };
        let label = format!("threads={threads}");
        let r = assert_agrees(&t, &query(filter(), &["g"], options), &label);
        if threads > 1 {
            // 5 000 tail rows in 512-row morsels alone are 10 morsels.
            assert!(r.stats.morsels_scanned >= 10 + 4, "{label}: {:?}", r.stats);
        }
    }
}

#[test]
fn tail_agrees_under_every_forced_strategy_pairing() {
    let t = table(1, 1_200, 900, &["A", "Z"]);
    let filter = || Some(Predicate::ge("v", Value::I64(0)));
    for agg in AggStrategy::ALL {
        for sel in SelectionStrategy::ALL {
            let options = QueryOptions {
                forced_agg: Some(agg),
                forced_selection: Some(sel),
                ..Default::default()
            };
            for group_by in [&[][..], &["g"]] {
                let label = format!("{agg:?}+{sel:?} group_by={group_by:?}");
                assert_agrees(&t, &query(filter(), group_by, options.clone()), &label);
            }
        }
    }
}

#[test]
fn min_max_over_tail_rows() {
    // The tail holds each group's extremes: MIN/MAX must see them.
    let mut t = table(2, 1_000, 0, &["A"]);
    for (g, v) in [("A", -50_000i64), ("N", 70_000), ("Z", 5), ("A", 60_000), ("N", -80_000)] {
        t.insert(vec![
            Value::Str(g.into()),
            Value::I64(1),
            Value::I64(v),
            Value::Date(Date(9_100)),
        ]);
    }
    let q = QueryBuilder::new()
        .group_by("g")
        .aggregate(AggExpr::min("v"))
        .aggregate(AggExpr::max("v"))
        .aggregate(AggExpr::min_expr(Expr::col("v").mul(Expr::col("k")).neg()))
        .aggregate(AggExpr::max_expr(Expr::col("d").add(Expr::col("v"))))
        .build();
    let r = assert_agrees(&t, &q, "min/max");
    let a = r.row_for(&[Value::Str("A".into())]).unwrap();
    assert_eq!((&a.aggs[0], &a.aggs[1]), (&AggValue::Min(-50_000), &AggValue::Max(60_000)));
    let z = r.row_for(&[Value::Str("Z".into())]).unwrap();
    assert_eq!(z.aggs[0], AggValue::Min(5));
}

/// A table whose mutable tail holds three rows of `i64::MAX / 2` under key
/// `g = "x"`, optionally flushed into a segment.
fn overflow_table(flush: bool) -> Table {
    let mut t = Table::with_segment_rows(
        vec![ColumnSpec::new("g", LogicalType::Str), ColumnSpec::new("v", LogicalType::I64)],
        1 << 20,
    );
    for _ in 0..3 {
        t.insert(vec![Value::Str("x".into()), Value::I64(i64::MAX / 2)]);
    }
    if flush {
        t.flush_mutable();
    }
    t
}

#[test]
fn overflowing_tail_sums_are_typed_errors_like_flushed_ones() {
    let sum_v = AggExpr::sum("v");
    let sum_v4 = AggExpr::sum_expr(Expr::col("v").mul(Expr::lit(4)));
    for agg in [sum_v, sum_v4] {
        for options in [one_worker(), QueryOptions { threads: Some(4), ..Default::default() }] {
            for group_by in [&[][..], &["g"]] {
                let mut b = QueryBuilder::new().options(options.clone());
                for g in group_by {
                    b = b.group_by(*g);
                }
                let q = b.aggregate(agg.clone()).build();
                let label = format!("{agg:?} group_by={group_by:?} threads={:?}", options.threads);
                let flushed = execute(&overflow_table(true), &q).unwrap_err();
                let tail = execute(&overflow_table(false), &q).unwrap_err();
                assert_eq!(flushed, EngineError::PotentialOverflow { aggregate: 0 }, "{label}");
                assert_eq!(tail, flushed, "{label}");
            }
        }
    }
    // MIN/MAX of the same rows do not accumulate and stay exact.
    let q =
        QueryBuilder::new().aggregate(AggExpr::max("v")).aggregate(AggExpr::count_star()).build();
    let r = execute(&overflow_table(false), &q).unwrap();
    assert_eq!(r.rows[0].aggs, vec![AggValue::Max(i64::MAX / 2), AggValue::Count(3)]);
}

#[test]
fn tail_build_and_scan_are_traced_separately() {
    let t = table(2, 1_000, 2_500, &["A", "Z"]);
    let options = QueryOptions { profile: ProfileLevel::Spans, ..one_worker() };
    let r = execute(&t, &query(None, &["g"], options)).unwrap();
    // The build is one `MutableTail` span over the tail rows...
    let build = r.profile.phase(Phase::MutableTail);
    assert_eq!((build.count, build.rows), (1, 2_500), "{:?}", r.profile.phases);
    // ...and the scan is an ordinary segment scan of the last ordinal.
    let tail_scans: Vec<u64> = r
        .profile
        .events
        .iter()
        .filter_map(|e| match e {
            TraceEvent::Span { phase: Phase::SegmentScan, loc, rows, .. } if loc.segment == 2 => {
                Some(*rows)
            }
            _ => None,
        })
        .collect();
    assert_eq!(tail_scans, vec![2_500]);
    assert_eq!(r.stats.segments_scanned, 3);
    assert!(r.profile.render_explain(&r.stats).contains("mutable tail build  rows=2500"));
}
