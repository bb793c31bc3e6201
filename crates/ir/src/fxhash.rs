//! The hasher of the compiler's own tables.
//!
//! [`FxHasher`] is one rotate-xor-multiply per eight bytes instead of
//! SipHash's rounds. It keys the [`crate::Context`] interning tables — op
//! names, attribute keys, dialect namespaces, type descriptions — and the
//! CSE pass's expression table. Those keys are a few dozen bytes each and
//! are written by this compiler's own dialects and passes, or read by the
//! textual parser from IR the user chose to compile: there is no adversary
//! to defend the tables against, and every built op pays for a probe.
//! Anything keyed by data from outside the process keeps the standard
//! library's default hasher.

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

/// See the [module documentation](self).
#[derive(Default)]
pub struct FxHasher(u64);

impl FxHasher {
    #[inline]
    fn add(&mut self, word: u64) {
        self.0 = (self.0.rotate_left(5) ^ word).wrapping_mul(0x517c_c1b7_2722_0a95);
    }
}

impl Hasher for FxHasher {
    fn write(&mut self, bytes: &[u8]) {
        for chunk in bytes.chunks(8) {
            let mut word = [0; 8];
            word[..chunk.len()].copy_from_slice(chunk);
            // A short tail carries its length in the byte it leaves free,
            // so zero padding cannot make `"a"` and `"a\0"` the same word.
            if chunk.len() < 8 {
                word[7] = chunk.len() as u8;
            }
            self.add(u64::from_le_bytes(word));
        }
    }

    fn write_u8(&mut self, v: u8) {
        self.add(u64::from(v));
    }

    fn write_u32(&mut self, v: u32) {
        self.add(u64::from(v));
    }

    fn write_u64(&mut self, v: u64) {
        self.add(v);
    }

    fn write_usize(&mut self, v: usize) {
        self.add(v as u64);
    }

    /// The multiply leaves its entropy in the high bits; `HashMap` indexes
    /// buckets with the low ones.
    fn finish(&self) -> u64 {
        self.0.rotate_left(26)
    }
}

/// A `HashMap` hashed by [`FxHasher`].
pub type FxHashMap<K, V> = HashMap<K, V, BuildHasherDefault<FxHasher>>;

#[cfg(test)]
mod tests {
    use super::*;
    use std::hash::BuildHasher;

    /// The hasher must separate the keys the tables actually hold: names
    /// sharing a long prefix, and names that differ in length only.
    #[test]
    fn separates_similar_names() {
        let build = BuildHasherDefault::<FxHasher>::default();
        let names = [
            "sycl.nd_item.get_global_id",
            "sycl.nd_item.get_global_range",
            "sycl.nd_item.get_local_id",
            "arith.addi",
            "arith.addf",
            "a",
            "a\0",
            "",
        ];
        let mut hashes: Vec<u64> = names.iter().map(|n| build.hash_one(n)).collect();
        hashes.sort_unstable();
        hashes.dedup();
        assert_eq!(hashes.len(), names.len());
    }
}
