//! Dictionary encoding (§2.1, §2.2).
//!
//! "Dictionary encoding has two components: a dictionary containing all
//! distinct values, and a bit packed sequence of integers identifying
//! elements in this dictionary." Distinct values get consecutive ids from 0,
//! which is exactly the *group id* domain the aggregation kernels consume —
//! "dictionary encoding already provides the injective mapping from column
//! values to small integers, which can be used as a perfect hashing function
//! of that column" (§3).
//!
//! Dictionaries are sorted, so codes preserve value order and range
//! predicates can be answered on codes.

use std::collections::HashMap;

use bipie_toolbox::bitpack::{min_bits, PackedVec};

/// Dictionary-encoded integer column.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct IntDictColumn {
    dict: Vec<i64>,
    codes: PackedVec,
}

/// Dictionary-encoded string column.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StrDictColumn {
    dict: Vec<String>,
    codes: PackedVec,
}

fn pack_codes(codes: impl ExactSizeIterator<Item = u64>, dict_len: usize) -> PackedVec {
    let bits = min_bits(dict_len.saturating_sub(1) as u64);
    PackedVec::pack_iter(codes, bits)
}

impl IntDictColumn {
    /// Encode `values`.
    pub fn encode(values: &[i64]) -> IntDictColumn {
        let mut dict: Vec<i64> = values.to_vec();
        dict.sort_unstable();
        dict.dedup();
        let codes = values
            .iter()
            // PANIC: the dictionary was built from these exact values two
            // lines up (sort + dedup), so every lookup must hit.
            .map(|v| dict.binary_search(v).expect("value in dictionary") as u64);
        let codes = pack_codes(codes, dict.len());
        IntDictColumn { dict, codes }
    }

    /// Estimated payload bytes; `None` if cardinality exceeds the
    /// dictionary limit (then dict is not a candidate).
    pub fn estimate_bytes(values: &[i64]) -> Option<usize> {
        if values.is_empty() {
            return Some(0);
        }
        let mut sorted = values.to_vec();
        sorted.sort_unstable();
        sorted.dedup();
        if sorted.len() > super::MAX_DICT_ENTRIES {
            return None;
        }
        let bits = min_bits(sorted.len() as u64 - 1) as usize;
        Some(sorted.len() * 8 + (values.len() * bits).div_ceil(8))
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        self.codes.len()
    }

    /// True if no rows are stored.
    pub fn is_empty(&self) -> bool {
        self.codes.is_empty()
    }

    /// The sorted dictionary of distinct values.
    pub fn dict(&self) -> &[i64] {
        &self.dict
    }

    /// The bit-packed code stream (code = dense id = potential group id).
    pub fn codes(&self) -> &PackedVec {
        &self.codes
    }

    /// Code of the given value, if present.
    pub fn code_of(&self, value: i64) -> Option<u64> {
        self.dict.binary_search(&value).ok().map(|c| c as u64)
    }

    /// Payload size in bytes.
    pub fn encoded_bytes(&self) -> usize {
        self.dict.len() * 8 + self.codes.packed_bytes()
    }

    /// Decode logical values for rows `[start, start + out.len())`.
    pub fn decode_i64_into(&self, start: usize, out: &mut [i64]) {
        for (k, o) in out.iter_mut().enumerate() {
            *o = self.dict[self.codes.get(start + k) as usize];
        }
    }
}

impl StrDictColumn {
    /// Encode `values` in time linear in the row count: each row hashes
    /// once to its first-seen id, only the distinct values are sorted, and
    /// one remap pass turns first-seen ids into sorted codes. No string is
    /// allocated per row — only one per dictionary entry.
    pub fn encode<S: AsRef<str>>(values: &[S]) -> StrDictColumn {
        let mut first_seen: HashMap<&str, u32> = HashMap::new();
        let mut distinct: Vec<&str> = Vec::new();
        let ids: Vec<u32> = values
            .iter()
            .map(|v| {
                let s = v.as_ref();
                *first_seen.entry(s).or_insert_with(|| {
                    distinct.push(s);
                    (distinct.len() - 1) as u32
                })
            })
            .collect();
        let mut order: Vec<u32> = (0..distinct.len() as u32).collect();
        order.sort_unstable_by(|&a, &b| distinct[a as usize].cmp(distinct[b as usize]));
        let mut rank = vec![0u64; distinct.len()];
        for (code, &id) in order.iter().enumerate() {
            rank[id as usize] = code as u64;
        }
        let codes = pack_codes(ids.iter().map(|&id| rank[id as usize]), distinct.len());
        let dict: Vec<String> = order.iter().map(|&id| distinct[id as usize].to_owned()).collect();
        StrDictColumn { dict, codes }
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        self.codes.len()
    }

    /// True if no rows are stored.
    pub fn is_empty(&self) -> bool {
        self.codes.is_empty()
    }

    /// The sorted dictionary of distinct strings.
    pub fn dict(&self) -> &[String] {
        &self.dict
    }

    /// The bit-packed code stream.
    pub fn codes(&self) -> &PackedVec {
        &self.codes
    }

    /// Code of the given string, if present.
    pub fn code_of(&self, value: &str) -> Option<u64> {
        self.dict.binary_search_by(|d| d.as_str().cmp(value)).ok().map(|c| c as u64)
    }

    /// String at row `i`.
    pub fn get(&self, i: usize) -> &str {
        &self.dict[self.codes.get(i) as usize]
    }

    /// Payload size in bytes (dictionary string bytes + codes).
    pub fn encoded_bytes(&self) -> usize {
        self.dict.iter().map(|s| s.len() + 8).sum::<usize>() + self.codes.packed_bytes()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn int_dict_roundtrip() {
        let values: Vec<i64> = vec![5, -3, 5, 100, -3, -3, 0];
        let col = IntDictColumn::encode(&values);
        assert_eq!(col.dict(), &[-3, 0, 5, 100]);
        let mut out = vec![0i64; values.len()];
        col.decode_i64_into(0, &mut out);
        assert_eq!(out, values);
    }

    #[test]
    fn codes_are_dense_and_ordered() {
        let col = IntDictColumn::encode(&[30, 10, 20, 10]);
        assert_eq!(col.code_of(10), Some(0));
        assert_eq!(col.code_of(20), Some(1));
        assert_eq!(col.code_of(30), Some(2));
        assert_eq!(col.code_of(99), None);
        // Codes fit min bits for 3 entries.
        assert_eq!(col.codes().bits(), 2);
    }

    #[test]
    fn str_dict_roundtrip() {
        let values = ["R", "A", "N", "A", "R", "R"];
        let col = StrDictColumn::encode(&values);
        assert_eq!(col.dict(), &["A", "N", "R"]);
        for (i, v) in values.iter().enumerate() {
            assert_eq!(col.get(i), *v);
        }
        assert_eq!(col.code_of("N"), Some(1));
        assert_eq!(col.code_of("Z"), None);
    }

    #[test]
    fn single_distinct_value_uses_one_bit() {
        let col = StrDictColumn::encode(&["x"; 50]);
        assert_eq!(col.dict().len(), 1);
        assert_eq!(col.codes().bits(), 1);
    }

    #[test]
    fn estimate_none_for_high_cardinality() {
        let values: Vec<i64> = (0..super::super::MAX_DICT_ENTRIES as i64 + 1).collect();
        assert_eq!(IntDictColumn::estimate_bytes(&values), None);
    }

    #[test]
    fn empty_columns() {
        let col = IntDictColumn::encode(&[]);
        assert!(col.is_empty());
        let col = StrDictColumn::encode::<&str>(&[]);
        assert!(col.is_empty());
    }
}
