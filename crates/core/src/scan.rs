//! Word-at-a-time byte scans: find the first byte of a class eight bytes
//! per step, reading each step's bytes as one little-endian `u64`.
//!
//! The flags a scan computes for a word are exact (no false positives),
//! so the lowest flag is the first match. [`LineIndex`] finds a text's
//! newlines this way; other byte classes are built on [`find`].
//!
//! [`LineIndex`]: crate::LineIndex

/// `0x01` in every byte.
const ONES: u64 = u64::from_ne_bytes([1; 8]);
/// `0x80` in every byte.
const HIGHS: u64 = u64::from_ne_bytes([0x80; 8]);

/// The high bit of every zero byte of `x`, and no other bit. The sum
/// cannot carry across bytes, which keeps every flag exact.
pub fn zero_bytes(x: u64) -> u64 {
    !(((x & !HIGHS) + !HIGHS) | x) & HIGHS
}

/// The high bit of every byte of `word` equal to `b`.
pub fn bytes_eq(word: u64, b: u8) -> u64 {
    zero_bytes(word ^ (ONES * u64::from(b)))
}

/// The index of the first byte of `bytes` that `hit` accepts, searching
/// by words whose matching bytes `flags` marks as [`zero_bytes`] does:
/// `flags` and `hit` must agree on every byte.
pub fn find(bytes: &[u8], flags: impl Fn(u64) -> u64, hit: impl Fn(u8) -> bool) -> Option<usize> {
    let chunks = bytes.chunks_exact(8);
    let tail = chunks.remainder();
    for (k, w) in chunks.enumerate() {
        // lint: allow(unwrap) — `chunks_exact(8)` yields eight-byte chunks only
        let f = flags(u64::from_le_bytes(w.try_into().expect("eight-byte chunk")));
        if f != 0 {
            return Some(8 * k + f.trailing_zeros() as usize / 8);
        }
    }
    let at = bytes.len() - tail.len();
    tail.iter().position(|&b| hit(b)).map(|i| at + i)
}

/// The index of the first `\n` in `bytes`.
pub fn find_newline(bytes: &[u8]) -> Option<usize> {
    find(bytes, |w| bytes_eq(w, b'\n'), |b| b == b'\n')
}
