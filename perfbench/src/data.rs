//! Seeded inputs: LINEITEM rows (TPC-H distributions for the columns Q1
//! reads) and the synthetic `encoded_mix` table with one column per
//! encoding, plus the query classes that run over it.

use bipie_columnstore::{ColumnSpec, Date, EncodingHint, LogicalType, Table, TableBuilder, Value};
use bipie_core::{AggExpr, Predicate, Query, QueryBuilder, QueryOptions};
use bipie_toolbox::rng::Rng;

/// LINEITEM rows at TPC-H scale factor 1.
pub const LINEITEM_ROWS_PER_SF: f64 = 6_000_000.0;

/// A streaming LINEITEM row source with the distributions of
/// `bipie_tpch::LineItemGen`, so a caller can time inserts row by row.
pub struct LineItemRows {
    rng: Rng,
    orderkey: i64,
    lines_left: usize,
    orderdate: i32,
    startdate: i32,
    enddate: i32,
    currentdate: i32,
    flags: [Value; 3],
    status: [Value; 2],
}

impl LineItemRows {
    pub fn new(seed: u64) -> LineItemRows {
        LineItemRows {
            rng: Rng::seed_from_u64(seed),
            orderkey: 0,
            lines_left: 0,
            orderdate: 0,
            startdate: Date::from_ymd(1992, 1, 1).days(),
            enddate: Date::from_ymd(1998, 8, 2).days(),
            currentdate: Date::from_ymd(1995, 6, 17).days(),
            flags: [Value::Str("R".into()), Value::Str("A".into()), Value::Str("N".into())],
            status: [Value::Str("O".into()), Value::Str("F".into())],
        }
    }

    pub fn next_row(&mut self) -> Vec<Value> {
        let rng = &mut self.rng;
        if self.lines_left == 0 {
            self.orderkey += 1;
            self.lines_left = rng.random_range(1..=7usize);
            self.orderdate = rng.random_range(self.startdate..=self.enddate);
        }
        self.lines_left -= 1;
        let quantity = rng.random_range(1..=50i64);
        let extendedprice = quantity * rng.random_range(90_000..=200_000i64);
        let discount = rng.random_range(0..=10i64);
        let tax = rng.random_range(0..=8i64);
        let shipdate = self.orderdate + rng.random_range(1..=121i32);
        let receiptdate = shipdate + rng.random_range(1..=30i32);
        let flag = if receiptdate <= self.currentdate {
            if rng.random_bool(0.5) {
                0
            } else {
                1
            }
        } else {
            2
        };
        let status = usize::from(shipdate <= self.currentdate);
        vec![
            Value::I64(self.orderkey),
            Value::I64(quantity),
            Value::Decimal(extendedprice),
            Value::Decimal(discount),
            Value::Decimal(tax),
            self.flags[flag].clone(),
            self.status[status].clone(),
            Value::Date(Date(shipdate)),
        ]
    }
}

/// A workload's streaming row source.
pub enum RowSource {
    LineItem(LineItemRows),
    Mix(MixRows),
}

impl RowSource {
    /// A fresh source of the same kind with another seed.
    pub fn reseeded(&self, seed: u64) -> RowSource {
        match self {
            RowSource::LineItem(_) => RowSource::LineItem(LineItemRows::new(seed)),
            RowSource::Mix(_) => RowSource::Mix(MixRows::new(seed)),
        }
    }

    pub fn specs(&self) -> Vec<ColumnSpec> {
        match self {
            RowSource::LineItem(_) => bipie_tpch::lineitem_specs(),
            RowSource::Mix(_) => mix_specs(),
        }
    }

    pub fn next_row(&mut self) -> Vec<Value> {
        match self {
            RowSource::LineItem(g) => g.next_row(),
            RowSource::Mix(g) => g.next_row(),
        }
    }
}

/// Load `rows` LINEITEM rows into a fully encoded table.
pub fn lineitem_table(seed: u64, rows: usize) -> Table {
    let mut gen = LineItemRows::new(seed);
    let mut b = TableBuilder::new(bipie_tpch::lineitem_specs());
    for _ in 0..rows {
        b.push_row(gen.next_row());
    }
    b.finish()
}

/// Rows of the `encoded_mix` table.
pub const MIX_ROWS: usize = 1 << 20;
/// Rows per `encoded_mix` segment: 32 segments at full scale.
pub const MIX_SEGMENT_ROWS: usize = 1 << 15;
/// Run length of the sorted RLE column.
pub const MIX_RUN: usize = 1024;
const MIX_G4: [&str; 4] = ["east", "north", "south", "west"];
const MIX_REGIONS: usize = 32;

/// The `encoded_mix` schema: every encoding the engine has, with hints so
/// the chooser cannot pick another.
pub fn mix_specs() -> Vec<ColumnSpec> {
    let int = |n: &str, h: EncodingHint| ColumnSpec::new(n, LogicalType::I64).with_hint(h);
    vec![
        int("ts", EncodingHint::Delta),
        int("day", EncodingHint::Rle),
        int("b3", EncodingHint::BitPack),
        int("b7", EncodingHint::BitPack),
        int("b13", EncodingHint::BitPack),
        int("b20", EncodingHint::BitPack),
        int("g64", EncodingHint::BitPack),
        ColumnSpec::new("g4", LogicalType::Str),
        ColumnSpec::new("region", LogicalType::Str),
    ]
}

/// A streaming `encoded_mix` row source (row `i` of the table).
pub struct MixRows {
    rng: Rng,
    row: usize,
    ts: i64,
    g4: Vec<Value>,
    regions: Vec<Value>,
}

impl MixRows {
    pub fn new(seed: u64) -> MixRows {
        MixRows {
            rng: Rng::seed_from_u64(seed),
            row: 0,
            ts: 0,
            g4: MIX_G4.iter().map(|s| Value::Str((*s).into())).collect(),
            regions: (0..MIX_REGIONS).map(|i| Value::Str(format!("r{i:02}").into())).collect(),
        }
    }

    pub fn next_row(&mut self) -> Vec<Value> {
        let rng = &mut self.rng;
        self.ts += rng.random_range(1..=7i64);
        let row = vec![
            Value::I64(self.ts),
            Value::I64((self.row / MIX_RUN) as i64),
            Value::I64(rng.random_range(0..8i64)),
            Value::I64(rng.random_range(0..128i64)),
            Value::I64(rng.random_range(0..8192i64)),
            Value::I64(rng.random_range(0..(1i64 << 20))),
            Value::I64(rng.random_range(0..64i64)),
            self.g4[rng.random_range(0..4usize)].clone(),
            self.regions[rng.random_range(0..MIX_REGIONS)].clone(),
        ];
        self.row += 1;
        row
    }
}

/// Build the `encoded_mix` table: `rows` rows in `segment_rows`-row
/// segments.
pub fn mix_table(seed: u64, rows: usize, segment_rows: usize) -> Table {
    let mut gen = MixRows::new(seed);
    let mut b = TableBuilder::with_segment_rows(mix_specs(), segment_rows);
    for _ in 0..rows {
        b.push_row(gen.next_row());
    }
    b.finish()
}

/// One `encoded_mix` query class.
pub struct MixClass {
    pub name: &'static str,
    pub query: Query,
}

/// The fixed `encoded_mix` classes over a table of `rows` rows: selectivity
/// ≈0.1% (pruned) / 5% / 50% / 100%; 1, 4, 64 and 2048 groups; run-wise
/// RLE and dictionary-bitset predicates. Packed SUM/COUNT/MIN/MAX only.
/// The wide class reads one segment (a `ts` window) so that no class costs
/// more than a few times another: two clients share the pool, and one long
/// class would set every other class's queueing delay.
pub fn mix_classes(rows: usize) -> Vec<MixClass> {
    let q = || QueryBuilder::new().options(QueryOptions::default());
    let i = Value::I64;
    let s = |x: &str| Value::Str(x.into());
    // `ts` grows by 4 per row on average. Both `ts` windows start a quarter
    // into a segment, far from its edges for any seed, so every seed scans
    // the same single segment: rows/1000 rows for the pruned class (segment
    // metadata eliminates every other segment), rows/64 rows for the wide
    // class, which hashes that one segment.
    let at = |row: i64| row * 4;
    let quarter_in = rows as i64 / 2 + rows as i64 / 128;
    let days = (rows / MIX_RUN).max(1) as i64;
    vec![
        MixClass {
            name: "pruned_0.1pct",
            query: q()
                .filter(Predicate::between(
                    "ts",
                    i(at(quarter_in)),
                    i(at(quarter_in + rows as i64 / 1000)),
                ))
                .aggregate(AggExpr::sum("b20"))
                .aggregate(AggExpr::count_star())
                .build(),
        },
        MixClass {
            name: "sel5_g4",
            query: q()
                .filter(Predicate::lt("b20", i((1 << 20) / 20)))
                .group_by("g4")
                .aggregate(AggExpr::sum("b7"))
                .aggregate(AggExpr::sum("b13"))
                .aggregate(AggExpr::count_star())
                .build(),
        },
        MixClass {
            name: "sel50_g64",
            query: q()
                .filter(Predicate::lt("b7", i(64)))
                .group_by("g64")
                .aggregate(AggExpr::sum("b3"))
                .aggregate(AggExpr::sum("b13"))
                .aggregate(AggExpr::count_star())
                .build(),
        },
        MixClass {
            name: "full_g1",
            query: q()
                .aggregate(AggExpr::sum("b3"))
                .aggregate(AggExpr::sum("b7"))
                .aggregate(AggExpr::sum("b13"))
                .aggregate(AggExpr::min("b13"))
                .aggregate(AggExpr::max("b13"))
                .aggregate(AggExpr::count_star())
                .build(),
        },
        MixClass {
            name: "full_g64",
            query: q()
                .group_by("g64")
                .aggregate(AggExpr::sum("b3"))
                .aggregate(AggExpr::sum("b7"))
                .aggregate(AggExpr::count_star())
                .build(),
        },
        MixClass {
            name: "wide_g2048",
            query: q()
                .filter(Predicate::between(
                    "ts",
                    i(at(quarter_in)),
                    i(at(quarter_in + rows as i64 / 64)),
                ))
                .group_by("region")
                .group_by("g64")
                .aggregate(AggExpr::sum("b7"))
                .aggregate(AggExpr::count_star())
                .build(),
        },
        MixClass {
            name: "rle_runwise",
            query: q()
                .filter(Predicate::between("day", i(days / 4), i(days * 3 / 4)))
                .aggregate(AggExpr::sum("day"))
                .aggregate(AggExpr::min("day"))
                .aggregate(AggExpr::max("day"))
                .aggregate(AggExpr::count_star())
                .build(),
        },
        MixClass {
            name: "dict_bitset_g4",
            query: q()
                .filter(Predicate::ge("region", s("r04")))
                .filter(Predicate::le("region", s("r11")))
                .filter(Predicate::ne("region", s("r07")))
                .group_by("g4")
                .aggregate(AggExpr::sum("b7"))
                .aggregate(AggExpr::count_star())
                .build(),
        },
    ]
}
