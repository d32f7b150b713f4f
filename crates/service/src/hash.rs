//! Content hashing for the binding database.
//!
//! The database keys bindings by the hash of their *source slice* and
//! combines dependency keys Merkle-style (see [`crate::db`]). The hash
//! is a word-at-a-time multiply–xor-shift–multiply mix with a SplitMix64
//! finaliser — not cryptographic, but a full analysis hashes every
//! chunk of the document, so byte-serial hashes (FNV et al.) are
//! measurably too slow. (An edit hashes only the chunks it changed, and
//! no serving path hashes a document as one text.) Each word is fully
//! avalanched before the next is absorbed, which keeps collisions over
//! thousands of similar texts at the generic n²/2⁶⁵ birthday bound; the
//! cheaper FxHash-style step does *not* (see `Hasher64::mix` and the
//! `adjacent_word_edits_do_not_cancel` regression test). The parse
//! cache additionally guards with a full slice comparison.
//!
//! [`U64Map`] is a `HashMap` keyed by already-hashed `u64`s with an
//! identity hasher — no point running SipHash over a digest.

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher as StdHasher};

const K: u64 = 0x517c_c1b7_2722_0a95;

/// An incremental 64-bit content hasher. See the module docs.
#[derive(Clone, Copy, Debug)]
pub struct Hasher64(u64);

impl Default for Hasher64 {
    fn default() -> Self {
        Hasher64(0x2545_f491_4f6c_dd1d)
    }
}

impl Hasher64 {
    /// A fresh hasher.
    pub fn new() -> Self {
        Self::default()
    }

    fn mix(&mut self, word: u64) {
        // A xor-shift between the two multiplies avalanches every word
        // before the next is absorbed. The cheaper FxHash step
        // (`rotl(5)` + one multiply) is NOT enough here: a difference in
        // the top byte of one word survives one multiply confined to the
        // top few bits, the rotate moves it into the low bits, and the
        // next word's low-byte difference cancels it with probability
        // ~2⁻⁵ — observed as real collisions (both seeds at once) between
        // similar documents at only ~5 000 texts. Each step stays a
        // bijection in `word` for fixed state (and vice versa), so two
        // inputs differing in a single word can never collide.
        let x = (self.0 ^ word).wrapping_mul(K);
        self.0 = (x ^ (x >> 32)).wrapping_mul(K);
    }

    /// Absorb raw bytes, eight at a time.
    pub fn write(&mut self, bytes: &[u8]) -> &mut Self {
        let mut chunks = bytes.chunks_exact(8);
        for c in chunks.by_ref() {
            // lint: allow(unwrap) — chunks_exact(8) yields 8-byte slices by construction
            self.mix(u64::from_le_bytes(c.try_into().expect("8-byte chunk")));
        }
        let rest = chunks.remainder();
        if !rest.is_empty() {
            let mut tail = [0u8; 8];
            tail[..rest.len()].copy_from_slice(rest);
            // The length in the padding byte keeps "a\0" ≠ "a".
            tail[7] = rest.len() as u8 | 0x80;
            self.mix(u64::from_le_bytes(tail));
        }
        self
    }

    /// Absorb a string (with a length prefix, so `("ab","c")` and
    /// `("a","bc")` hash differently).
    pub fn write_str(&mut self, s: &str) -> &mut Self {
        self.write_u64(s.len() as u64);
        self.write(s.as_bytes())
    }

    /// Absorb a `u64`.
    pub fn write_u64(&mut self, n: u64) -> &mut Self {
        self.mix(n);
        self
    }

    /// The digest (SplitMix64 finalised, so low and high bits avalanche).
    pub fn finish(&self) -> u64 {
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }
}

/// One-shot string hash.
pub fn hash_str(s: &str) -> u64 {
    Hasher64::new().write(s.as_bytes()).finish()
}

/// Identity hasher for maps keyed by an already-computed digest.
#[derive(Default, Clone)]
pub struct IdentityHasher(u64);

impl StdHasher for IdentityHasher {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, _bytes: &[u8]) {
        unreachable!("IdentityHasher is for u64 keys only");
    }

    fn write_u64(&mut self, n: u64) {
        self.0 = n;
    }
}

/// A `HashMap` keyed by pre-hashed `u64`s (no second hashing pass).
pub type U64Map<V> = HashMap<u64, V, BuildHasherDefault<IdentityHasher>>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn distinct_inputs_hash_distinctly() {
        let inputs = [
            "",
            "a",
            "b",
            "ab",
            "ba",
            "a\0",
            "abcdefgh",
            "abcdefghi",
            "let x = 1;;",
            "let x = 2;;",
            "let y = 1;;",
        ];
        for (i, x) in inputs.iter().enumerate() {
            for y in &inputs[i + 1..] {
                assert_ne!(hash_str(x), hash_str(y), "{x:?} vs {y:?}");
            }
        }
    }

    #[test]
    fn length_prefix_separates_fields() {
        let a = Hasher64::new().write_str("ab").write_str("c").finish();
        let b = Hasher64::new().write_str("a").write_str("bc").finish();
        assert_ne!(a, b);
    }

    #[test]
    fn hashing_is_deterministic_and_tail_sensitive() {
        assert_eq!(hash_str("foobar"), hash_str("foobar"));
        assert_ne!(hash_str("foobar "), hash_str("foobar"));
        assert_ne!(hash_str("12345678x"), hash_str("12345678y"));
    }

    /// Regression: under the old FxHash-style mixer, the benchmark
    /// generator's edited documents (differing only in one numeric
    /// literal straddling an 8-byte word boundary, bytes 1335–1336 of a
    /// ~2.6 KB text) collided at salts 5190 vs 5920 — on `doc_key` *and*
    /// the independently seeded `doc_verify` at once, because the
    /// cancellation between the two adjacent differing words was
    /// seed-independent. The warm-edit bench then saw `rechecked == 0`
    /// on a never-before-seen document.
    #[test]
    fn adjacent_word_edits_do_not_cancel() {
        use crate::db::{doc_key, doc_verify};
        use crate::load::GenProgram;
        use crate::EngineSel;
        use freezeml_core::Options;
        let gen = GenProgram::generate(120, 0x5EED);
        let opts = Options::default();
        let mut keys = HashMap::new();
        let mut verifies = HashMap::new();
        for salt in 0..6_000u64 {
            let text = gen.edited_text(60, salt);
            if let Some(prev) = keys.insert(doc_key(&text, &opts, EngineSel::Uf), salt) {
                panic!("doc_key collision between salts {prev} and {salt}");
            }
            if let Some(prev) = verifies.insert(doc_verify(&text), salt) {
                panic!("doc_verify collision between salts {prev} and {salt}");
            }
        }
    }

    #[test]
    fn u64_map_round_trips() {
        let mut m: U64Map<&str> = U64Map::default();
        m.insert(hash_str("k"), "v");
        assert_eq!(m.get(&hash_str("k")), Some(&"v"));
        assert_eq!(m.get(&hash_str("other")), None);
    }
}
