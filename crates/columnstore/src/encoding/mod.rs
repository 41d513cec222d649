//! Segment column encodings (§2.1).
//!
//! "Segment columns are encoded using one of multiple possible encodings.
//! Among the supported encodings in MemSQL are: delta encoding, run length
//! encoding, dictionary, and integer bit packing. The encodings are chosen
//! during compression of rows based on two factors: size of the resulting
//! compressed data, and usefulness of the encoding for query execution."
//!
//! We implement the same four encodings. All integer-like values (integers,
//! dates as days, decimals as hundredths) flow through the same pipeline as
//! `i64`; strings are always dictionary encoded. The automatic chooser picks
//! the smallest candidate, breaking ties toward bit packing (the most
//! query-useful representation for BIPie's kernels).

pub mod delta;
pub mod dict;
pub mod forbitpack;
pub mod rle;

pub use delta::DeltaColumn;
pub use dict::{IntDictColumn, StrDictColumn};
pub use forbitpack::ForBitPackColumn;
pub use rle::RleColumn;

/// Which encoding a column ended up with.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Encoding {
    /// Frame-of-reference integer bit packing.
    BitPack,
    /// Dictionary of distinct values + bit-packed codes.
    Dict,
    /// Run-length encoding.
    Rle,
    /// Delta encoding (bit-packed deltas from the previous value).
    Delta,
}

/// Caller preference for how a column should be encoded.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum EncodingHint {
    /// Choose automatically by compressed size (the default).
    #[default]
    Auto,
    /// Force frame-of-reference bit packing.
    BitPack,
    /// Force dictionary encoding (panics if cardinality exceeds the
    /// dictionary limit).
    Dict,
    /// Force run-length encoding.
    Rle,
    /// Force delta encoding.
    Delta,
}

/// Maximum dictionary size considered by the automatic chooser.
pub const MAX_DICT_ENTRIES: usize = 1 << 16;

/// One encoded segment column.
#[derive(Debug, Clone)]
pub enum EncodedColumn {
    /// Bit-packed integers.
    BitPack(ForBitPackColumn),
    /// Dictionary-encoded integers.
    IntDict(IntDictColumn),
    /// Dictionary-encoded strings.
    StrDict(StrDictColumn),
    /// Run-length encoded integers.
    Rle(RleColumn),
    /// Delta-encoded integers.
    Delta(DeltaColumn),
}

impl EncodedColumn {
    /// Number of rows stored.
    pub fn len(&self) -> usize {
        match self {
            EncodedColumn::BitPack(c) => c.len(),
            EncodedColumn::IntDict(c) => c.len(),
            EncodedColumn::StrDict(c) => c.len(),
            EncodedColumn::Rle(c) => c.len(),
            EncodedColumn::Delta(c) => c.len(),
        }
    }

    /// True if the column stores no rows.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The encoding kind.
    pub fn encoding(&self) -> Encoding {
        match self {
            EncodedColumn::BitPack(_) => Encoding::BitPack,
            EncodedColumn::IntDict(_) | EncodedColumn::StrDict(_) => Encoding::Dict,
            EncodedColumn::Rle(_) => Encoding::Rle,
            EncodedColumn::Delta(_) => Encoding::Delta,
        }
    }

    /// Approximate encoded payload size in bytes (what the automatic
    /// chooser minimizes).
    pub fn encoded_bytes(&self) -> usize {
        match self {
            EncodedColumn::BitPack(c) => c.encoded_bytes(),
            EncodedColumn::IntDict(c) => c.encoded_bytes(),
            EncodedColumn::StrDict(c) => c.encoded_bytes(),
            EncodedColumn::Rle(c) => c.encoded_bytes(),
            EncodedColumn::Delta(c) => c.encoded_bytes(),
        }
    }

    /// Decode logical integer values for rows `[start, start + out.len())`.
    ///
    /// # Panics
    /// Panics on string columns (decode their codes instead) or if the
    /// range is out of bounds.
    pub fn decode_i64_into(&self, start: usize, out: &mut [i64]) {
        match self {
            EncodedColumn::BitPack(c) => c.decode_i64_into(start, out),
            EncodedColumn::IntDict(c) => c.decode_i64_into(start, out),
            EncodedColumn::Rle(c) => c.decode_i64_into(start, out),
            EncodedColumn::Delta(c) => c.decode_i64_into(start, out),
            EncodedColumn::StrDict(_) => {
                // PANIC: type-confusion guard — the planner types every
                // column reference, so an integer decode of a string column
                // is a caller bug, not a data condition.
                panic!("string columns decode to dictionary codes, not integers")
            }
        }
    }

    /// Logical integer value of a single row (slow path, for testing and
    /// row-level reads).
    pub fn get_i64(&self, row: usize) -> i64 {
        let mut out = [0i64];
        self.decode_i64_into(row, &mut out);
        out[0]
    }
}

/// Encode an integer-like column, honoring the hint.
pub fn encode_ints(values: &[i64], hint: EncodingHint) -> EncodedColumn {
    match hint {
        EncodingHint::BitPack => EncodedColumn::BitPack(ForBitPackColumn::encode(values)),
        EncodingHint::Dict => EncodedColumn::IntDict(IntDictColumn::encode(values)),
        EncodingHint::Rle => EncodedColumn::Rle(RleColumn::encode(values)),
        EncodingHint::Delta => EncodedColumn::Delta(DeltaColumn::encode(values)),
        EncodingHint::Auto => choose_int_encoding(values),
    }
}

/// The automatic chooser: estimate each candidate's payload size without
/// building it, then build the winner. Ties break toward bit packing, which
/// BIPie's kernels consume directly (§2.1: "usefulness of the encoding for
/// query execution").
fn choose_int_encoding(values: &[i64]) -> EncodedColumn {
    if values.is_empty() {
        return EncodedColumn::BitPack(ForBitPackColumn::encode(values));
    }
    let bitpack_size = ForBitPackColumn::estimate_bytes(values);
    let rle_size = RleColumn::estimate_bytes(values);
    let delta_size = DeltaColumn::estimate_bytes(values);
    let dict_size = IntDictColumn::estimate_bytes(values);

    // A candidate must be strictly smaller than bit packing to displace it.
    let mut best = (bitpack_size, Encoding::BitPack);
    for (size, enc) in
        [(dict_size, Encoding::Dict), (rle_size, Encoding::Rle), (delta_size, Encoding::Delta)]
    {
        if let Some(size) = size {
            if size < best.0 {
                best = (size, enc);
            }
        }
    }
    match best.1 {
        Encoding::BitPack => EncodedColumn::BitPack(ForBitPackColumn::encode(values)),
        Encoding::Dict => EncodedColumn::IntDict(IntDictColumn::encode(values)),
        Encoding::Rle => EncodedColumn::Rle(RleColumn::encode(values)),
        Encoding::Delta => EncodedColumn::Delta(DeltaColumn::encode(values)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip(col: &EncodedColumn, values: &[i64]) {
        assert_eq!(col.len(), values.len());
        let mut out = vec![0i64; values.len()];
        col.decode_i64_into(0, &mut out);
        assert_eq!(out, values);
        // Sub-ranges at odd offsets.
        if values.len() > 10 {
            let mut out = vec![0i64; 7];
            col.decode_i64_into(3, &mut out);
            assert_eq!(out, &values[3..10]);
        }
    }

    #[test]
    fn forced_encodings_roundtrip() {
        let values: Vec<i64> = (0..1000).map(|i| (i * 37 % 91) - 45).collect();
        for hint in
            [EncodingHint::BitPack, EncodingHint::Dict, EncodingHint::Rle, EncodingHint::Delta]
        {
            let col = encode_ints(&values, hint);
            roundtrip(&col, &values);
        }
    }

    #[test]
    fn auto_picks_rle_for_runs() {
        let mut values = Vec::new();
        for run in 0..10i64 {
            values.extend(std::iter::repeat_n(run * 1000, 1000));
        }
        let col = encode_ints(&values, EncodingHint::Auto);
        assert_eq!(col.encoding(), Encoding::Rle, "long runs should pick RLE");
        roundtrip(&col, &values);
    }

    #[test]
    fn auto_picks_delta_for_sorted_wide_values() {
        // Sorted values with a huge base but tiny deltas: delta wins over
        // bitpack (which needs bits for max-min) and dict (all distinct).
        let values: Vec<i64> = (0..10_000).map(|i| 1_000_000_000_000 + i * 3 + (i % 2)).collect();
        let col = encode_ints(&values, EncodingHint::Auto);
        assert_eq!(col.encoding(), Encoding::Delta);
        roundtrip(&col, &values);
    }

    #[test]
    fn auto_picks_dict_for_wide_low_cardinality() {
        // Few distinct values, scattered across a wide range, unsorted, no
        // runs: dict codes are narrow while bitpack needs many bits.
        let dict = [0i64, 1 << 40, 1 << 50, -(1 << 45)];
        let values: Vec<i64> = (0..10_000).map(|i| dict[(i * 7 + i / 3) % 4]).collect();
        let col = encode_ints(&values, EncodingHint::Auto);
        assert_eq!(col.encoding(), Encoding::Dict);
        roundtrip(&col, &values);
    }

    #[test]
    fn auto_picks_bitpack_for_dense_random() {
        let values: Vec<i64> =
            (0..10_000).map(|i| ((i as i64).wrapping_mul(2654435761)) % 1000).collect();
        let col = encode_ints(&values, EncodingHint::Auto);
        assert_eq!(col.encoding(), Encoding::BitPack);
        roundtrip(&col, &values);
    }

    #[test]
    fn empty_column() {
        let col = encode_ints(&[], EncodingHint::Auto);
        assert!(col.is_empty());
        let mut out = [];
        col.decode_i64_into(0, &mut out);
    }

    #[test]
    #[should_panic(expected = "dictionary codes")]
    fn string_column_rejects_int_decode() {
        let col = EncodedColumn::StrDict(StrDictColumn::encode(&["a", "b"]));
        let mut out = [0i64; 2];
        col.decode_i64_into(0, &mut out);
    }
}
