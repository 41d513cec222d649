//! Property-based tests over the columnstore substrate: every encoding
//! round-trips arbitrary values, the automatic chooser never loses data,
//! segment metadata brackets the true value range, and table building /
//! flushing / deleting preserves row-level contents.

mod common;

use bipie::columnstore::encoding::{encode_ints, EncodedColumn, EncodingHint, StrDictColumn};
use bipie::columnstore::{
    ColumnSpec, Date, DeletedBitmap, LogicalType, Table, TableBuilder, Value,
};
use bipie::toolbox::bitpack::{min_bits, PackedVec};
use common::{run_cases, Gen};

/// Per-segment `encoded_bytes` of `generate_lineitem(0.01, 1 << 14)`.
const LINEITEM_SEGMENT_BYTES: &[usize] = &[110_821, 110_821, 110_821, 73_413];
/// Per-segment `encoded_bytes` of `every_encoding_table(100_000, 32_768)`.
const EVERY_ENCODING_SEGMENT_BYTES: &[usize] = &[214_044, 214_056, 214_056, 11_476];

const HINTS: [EncodingHint; 5] = [
    EncodingHint::Auto,
    EncodingHint::BitPack,
    EncodingHint::Dict,
    EncodingHint::Rle,
    EncodingHint::Delta,
];

/// Value pools that exercise different encoding sweet spots.
fn arb_values(g: &mut Gen) -> Vec<i64> {
    match g.int(0u8..4) {
        // dense small domain (dict / bitpack)
        0 => g.vec_of(0..400, |g| g.int(-5i64..5)),
        // long runs (RLE)
        1 => {
            let runs: Vec<(i64, usize)> = g.vec_of(0..20, |g| (g.int(0i64..4), g.int(1usize..50)));
            runs.into_iter().flat_map(|(v, n)| std::iter::repeat_n(v * 1_000_000, n)).collect()
        }
        // sorted wide values (delta)
        2 => {
            let mut v: Vec<i64> = g.vec_of(0..400, |g| g.int(0i64..1000));
            v.sort_unstable();
            v.iter()
                .scan(1_000_000_000i64, |acc, d| {
                    *acc += d;
                    Some(*acc)
                })
                .collect()
        }
        // full-range values
        _ => g.vec_of(0..200, |g| g.rng.random::<i64>()),
    }
}

#[test]
fn every_encoding_roundtrips() {
    run_cases("every_encoding_roundtrips", 96, |g| {
        let values = arb_values(g);
        let hint = *g.pick(&HINTS);
        // Delta estimation opts out on pathological ranges; forced delta
        // still must roundtrip via wrapping arithmetic.
        let col = encode_ints(&values, hint);
        assert_eq!(col.len(), values.len());
        let mut out = vec![0i64; values.len()];
        col.decode_i64_into(0, &mut out);
        assert_eq!(&out, &values, "hint={hint:?}");
        // Random sub-ranges decode identically.
        if values.len() > 3 {
            let start = values.len() / 3;
            let n = (values.len() - start).min(7);
            let mut out = vec![0i64; n];
            col.decode_i64_into(start, &mut out);
            assert_eq!(&out[..], &values[start..start + n], "hint={hint:?}");
        }
    });
}

/// Pinned regression (formerly `tests/columnstore_properties.proptest-regressions`):
/// proptest once shrank a roundtrip failure to the single value
/// `[1_000_000_000]` — a one-element column from the sorted-wide pool, where
/// the delta encoder's first element carries the whole magnitude. Keep the
/// exact input alive under every hint now that the shrink file is gone.
#[test]
fn regression_single_wide_value_roundtrips() {
    let values = [1_000_000_000i64];
    for hint in HINTS {
        let col = encode_ints(&values, hint);
        let mut out = vec![0i64; 1];
        col.decode_i64_into(0, &mut out);
        assert_eq!(out[0], values[0], "hint={hint:?}");
    }
}

#[test]
fn auto_choice_never_beats_forced_sizes() {
    run_cases("auto_choice_never_beats_forced_sizes", 96, |g| {
        let values = arb_values(g);
        // The chooser's pick is at most as large as every candidate it
        // considered (bitpack always among them).
        let auto = encode_ints(&values, EncodingHint::Auto);
        let bitpack = encode_ints(&values, EncodingHint::BitPack);
        assert!(auto.encoded_bytes() <= bitpack.encoded_bytes());
    });
}

#[test]
fn segment_metadata_brackets_values() {
    run_cases("segment_metadata_brackets_values", 96, |g| {
        use bipie::columnstore::segment::{ColumnData, Segment};
        let values = arb_values(g);
        if values.is_empty() {
            return;
        }
        let hint = *g.pick(&HINTS);
        let seg = Segment::build(vec![ColumnData::Ints(values.clone())], &[hint]);
        let meta = seg.meta(0);
        let (lo, hi) = (*values.iter().min().unwrap(), *values.iter().max().unwrap());
        assert_eq!(meta.min, lo);
        assert_eq!(meta.max, hi);
        let distinct = {
            let mut v = values.clone();
            v.sort_unstable();
            v.dedup();
            v.len()
        };
        assert!(meta.distinct_upper >= distinct, "upper bound must hold");
    });
}

#[test]
fn table_roundtrip_with_flush_boundaries() {
    run_cases("table_roundtrip_with_flush_boundaries", 96, |g| {
        let rows: Vec<(u8, i64)> = g.vec_of(0..300, |g| (g.int(0u8..4), g.int(-100i64..100)));
        let segment_rows = g.int(1usize..60);
        let mut b = TableBuilder::with_segment_rows(
            vec![ColumnSpec::new("g", LogicalType::Str), ColumnSpec::new("v", LogicalType::I64)],
            segment_rows,
        );
        let names = ["w", "x", "y", "z"];
        for &(gg, v) in &rows {
            b.push_row(vec![Value::Str(names[gg as usize].into()), Value::I64(v)]);
        }
        let t = b.finish();
        assert_eq!(t.num_rows(), rows.len());
        // Row order is preserved across segment boundaries.
        let mut idx = 0usize;
        for seg in t.segments() {
            assert!(seg.num_rows() <= segment_rows);
            for r in 0..seg.num_rows() {
                let (gg, v) = rows[idx];
                assert_eq!(seg.column(1).get_i64(r), v);
                match seg.column(0) {
                    EncodedColumn::StrDict(d) => {
                        assert_eq!(d.get(r), names[gg as usize])
                    }
                    other => panic!("strings must dict-encode, got {:?}", other.encoding()),
                }
                idx += 1;
            }
        }
        assert_eq!(idx, rows.len());
    });
}

#[test]
fn deleted_bitmap_matches_model() {
    run_cases("deleted_bitmap_matches_model", 96, |g| {
        let len = g.int(1usize..500);
        let dels: Vec<usize> = g.vec_of(0..40, |g| g.int(0usize..500));
        let mut bm = DeletedBitmap::new(len);
        let mut model = vec![false; len];
        for &d in &dels {
            if d < len {
                bm.delete(d);
                model[d] = true;
            }
        }
        assert_eq!(bm.deleted_count(), model.iter().filter(|&&b| b).count());
        for (i, &m) in model.iter().enumerate() {
            assert_eq!(bm.is_deleted(i), m);
        }
        // Masking a batch zeroes exactly the deleted positions.
        let mut sel = vec![0xFFu8; len];
        bm.mask_batch(0, &mut sel);
        for (i, &m) in model.iter().enumerate() {
            assert_eq!(sel[i] == 0, m, "row {i}");
        }
    });
}

#[test]
fn date_ymd_roundtrip() {
    run_cases("date_ymd_roundtrip", 96, |g| {
        let days = g.int(-200_000i32..200_000);
        let d = Date(days);
        let (y, m, dd) = d.to_ymd();
        assert_eq!(Date::from_ymd(y, m, dd), d);
    });
}

#[test]
fn mutable_flush_is_equivalent_to_bulk_load() {
    let specs =
        || vec![ColumnSpec::new("g", LogicalType::Str), ColumnSpec::new("v", LogicalType::I64)];
    let rows: Vec<(usize, i64)> = (0..500).map(|i| (i % 3, (i * 17 % 97) as i64)).collect();

    let mut bulk = TableBuilder::with_segment_rows(specs(), 100);
    let mut incremental = Table::with_segment_rows(specs(), 100);
    for &(g, v) in &rows {
        let row = vec![Value::Str(["a", "b", "c"][g].into()), Value::I64(v)];
        bulk.push_row(row.clone());
        incremental.insert(row);
    }
    let bulk = bulk.finish();
    incremental.flush_mutable();

    // Identical logical contents row by row, independent of flush timing.
    let read_all = |t: &Table| -> Vec<(String, i64)> {
        let mut out = Vec::new();
        for seg in t.segments() {
            for r in 0..seg.num_rows() {
                let g = match seg.column(0) {
                    EncodedColumn::StrDict(d) => d.get(r).to_string(),
                    _ => unreachable!(),
                };
                out.push((g, seg.column(1).get_i64(r)));
            }
        }
        out
    };
    assert_eq!(read_all(&bulk), read_all(&incremental));
}

/// The obvious sort-based dictionary encoder: sort and dedup every value,
/// then binary-search each row's code.
fn naive_str_dict(values: &[String]) -> (Vec<String>, PackedVec) {
    let mut dict = values.to_vec();
    dict.sort();
    dict.dedup();
    let codes: Vec<u64> =
        values.iter().map(|v| dict.binary_search(v).expect("in dict") as u64).collect();
    let bits = min_bits(dict.len().saturating_sub(1) as u64);
    (dict, PackedVec::pack(&codes, bits))
}

fn assert_dict_matches_naive(values: &[String]) {
    let col = StrDictColumn::encode(values);
    let (dict, codes) = naive_str_dict(values);
    assert_eq!(col.dict(), &dict[..], "dictionary for {values:?}");
    assert_eq!(col.codes(), &codes, "packed codes for {values:?}");
}

#[test]
fn string_dictionary_matches_a_naive_sort_based_encoder() {
    let owned = |v: &[&str]| v.iter().map(|s| s.to_string()).collect::<Vec<_>>();
    for fixed in [
        owned(&[]),
        owned(&[""]),
        owned(&["", "", "a", ""]),
        owned(&["x"; 50]),
        owned(&["ß", "a", "Ä", "z", "日本", "ä", "A", "日", "ß", "€"]),
    ] {
        assert_dict_matches_naive(&fixed);
    }
    // Multi-byte code points and the empty string next to short ASCII.
    const ALPHABET: [&str; 8] = ["a", "b", "Z", "é", "日", "€", "\u{0}", "ß"];
    run_cases("string_dictionary_matches_a_naive_sort_based_encoder", 200, |g| {
        let distinct: Vec<String> = match g.int(0u8..3) {
            // One distinct value, repeated.
            0 => vec![g.vec_of(0..6, |g| *g.pick(&ALPHABET)).concat()],
            // A handful of values: heavy duplication.
            1 => g.vec_of(1..8, |g| g.vec_of(0..4, |g| *g.pick(&ALPHABET)).concat()),
            // Many values: mostly distinct, wider codes.
            _ => g.vec_of(1..600, |g| g.vec_of(0..10, |g| *g.pick(&ALPHABET)).concat()),
        };
        let values: Vec<String> = g.vec_of(0..1_500, |g| g.pick(&distinct).clone());
        assert_dict_matches_naive(&values);
    });
}

/// A table in every encoding: bit-packed 3/7/13/20-bit columns, a string
/// dictionary, sorted RLE and sorted delta columns, and an `Auto` column.
fn every_encoding_table(rows: i64, segment_rows: usize) -> Table {
    let mut t = TableBuilder::with_segment_rows(
        vec![
            ColumnSpec::new("b3", LogicalType::I64).with_hint(EncodingHint::BitPack),
            ColumnSpec::new("b7", LogicalType::I64).with_hint(EncodingHint::BitPack),
            ColumnSpec::new("b13", LogicalType::I64).with_hint(EncodingHint::BitPack),
            ColumnSpec::new("b20", LogicalType::Decimal).with_hint(EncodingHint::BitPack),
            ColumnSpec::new("s", LogicalType::Str),
            ColumnSpec::new("rle", LogicalType::I64).with_hint(EncodingHint::Rle),
            ColumnSpec::new("delta", LogicalType::Date).with_hint(EncodingHint::Delta),
            ColumnSpec::new("auto", LogicalType::I64),
        ],
        segment_rows,
    );
    let names = ["AIR", "MAIL", "RAIL", "SHIP", "TRUCK", "REG AIR", "FOB", "ü"];
    for i in 0..rows {
        let x = i.wrapping_mul(0x9E37_79B9_7F4A_7C15_u64 as i64).rotate_left(17);
        t.push_row(vec![
            Value::I64(x & 7),
            Value::I64((x >> 3) & 127),
            Value::I64(((x >> 10) & 8191) - 4_000),
            Value::Decimal((x >> 23) & 0xF_FFFF),
            Value::Str(names[((x >> 43) & 7) as usize].into()),
            Value::I64(i / 997),
            Value::Date(Date(8_000 + (i / 3) as i32)),
            Value::I64(((x >> 47) & 31) * 1_000_003),
        ]);
    }
    t.finish()
}

#[test]
fn flushed_encoded_bytes_are_pinned() {
    // Pinned from the sort-based string encoder and the read-modify-write
    // bit packer these replaced: flush output is byte-for-byte unchanged.
    let bytes = |t: &Table| t.segments().iter().map(|s| s.encoded_bytes()).collect::<Vec<_>>();
    let lineitem = bipie::tpch::generate_lineitem(0.01, 1 << 14);
    assert_eq!(bytes(&lineitem), LINEITEM_SEGMENT_BYTES);
    assert_eq!(bytes(&every_encoding_table(100_000, 32_768)), EVERY_ENCODING_SEGMENT_BYTES);
}

#[test]
fn tail_segment_is_bit_packed_and_leaves_the_table_alone() {
    let mut t = Table::with_segment_rows(
        vec![
            ColumnSpec::new("s", LogicalType::Str),
            ColumnSpec::new("r", LogicalType::I64).with_hint(EncodingHint::Rle),
            ColumnSpec::new("d", LogicalType::Date).with_hint(EncodingHint::Delta),
        ],
        1 << 20,
    );
    assert!(t.tail_segment().is_none(), "an empty tail has no segment");
    let rows: Vec<Vec<Value>> = (0..3_000i64)
        .map(|i| {
            vec![
                Value::Str(["n", "é", ""][(i % 3) as usize].into()),
                Value::I64(i / 100 - 7),
                Value::Date(Date(10_000 + i as i32)),
            ]
        })
        .collect();
    for row in &rows {
        t.insert(row.clone());
    }
    let tail = t.tail_segment().unwrap();
    assert_eq!(t.mutable_rows().len(), rows.len(), "the tail stays in the table");
    assert!(t.segments().is_empty());
    assert_eq!(tail.num_rows(), rows.len());
    // Integers are bit packed whatever the column hints say.
    assert_eq!(tail.column(1).encoding(), bipie::columnstore::Encoding::BitPack);
    assert_eq!(tail.column(2).encoding(), bipie::columnstore::Encoding::BitPack);
    for (r, row) in rows.iter().enumerate() {
        match tail.column(0) {
            EncodedColumn::StrDict(d) => assert_eq!(Value::Str(d.get(r).into()), row[0]),
            other => panic!("strings must dict-encode, got {:?}", other.encoding()),
        }
        assert_eq!(tail.column(1).get_i64(r), row[1].as_storage_i64().unwrap());
        assert_eq!(tail.column(2).get_i64(r), row[2].as_storage_i64().unwrap());
    }
    assert_eq!((tail.meta(1).min, tail.meta(1).max), (-7, 22));
    // Flushing afterwards still honours the hints.
    t.flush_mutable();
    assert_eq!(t.segments()[0].column(1).encoding(), bipie::columnstore::Encoding::Rle);
    assert_eq!(t.segments()[0].column(2).encoding(), bipie::columnstore::Encoding::Delta);
}
