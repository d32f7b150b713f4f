//! The JSON decoder's and escaper's word-at-a-time scan: the next byte
//! that ends an unescaped run of a string literal, found eight bytes at
//! a time with [`freezeml_core::scan`]'s exact per-byte flags.

use freezeml_core::scan::{bytes_eq, find, zero_bytes};

/// Does a JSON string run stop at `b`: a `"`, a `\`, or a control byte,
/// which a string must escape?
pub(crate) fn is_string_stop(b: u8) -> bool {
    b == b'"' || b == b'\\' || b < 0x20
}

/// The index of the first byte of `bytes` that [`is_string_stop`]
/// accepts. A byte is a control byte when its top three bits are clear.
pub(crate) fn find_string_stop(bytes: &[u8]) -> Option<usize> {
    const TOP3: u64 = u64::from_ne_bytes([0xe0; 8]);
    find(
        bytes,
        |w| bytes_eq(w, b'"') | bytes_eq(w, b'\\') | zero_bytes(w & TOP3),
        is_string_stop,
    )
}

/// The index of the `"` that closes a JSON string whose body starts at
/// `s`: the first `"` not escaped by an odd run of `\` before it. Each
/// `"` is found by `str::find`, which scans by words too.
pub(crate) fn find_string_end(s: &str) -> Option<usize> {
    let mut at = 0;
    loop {
        let q = at + s[at..].find('"')?;
        let slashes = s.as_bytes()[at..q]
            .iter()
            .rev()
            .take_while(|&&b| b == b'\\');
        if slashes.count() % 2 == 0 {
            return Some(q);
        }
        at = q + 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use freezeml_core::scan::find_newline;

    /// The bytes at every class boundary the scans test: NUL, newline,
    /// the last control byte, space, `"`, `\`, DEL, and both ends of the
    /// high half.
    const CLASS_BYTES: [u8; 9] = [0x00, 0x0a, 0x1f, 0x20, 0x22, 0x5c, 0x7f, 0x80, 0xff];

    /// Every scan answers what a bytewise scan answers: each class byte
    /// alone at every offset of a run of each filler byte, in buffers of
    /// every length up to three words, and in a dense mix.
    #[test]
    fn word_scans_match_the_bytewise_scans_at_every_offset() {
        let mut inputs: Vec<Vec<u8>> = Vec::new();
        for &fill in &CLASS_BYTES {
            for len in 0..=24 {
                inputs.push(vec![fill; len]);
                for at in 0..len {
                    for &b in &CLASS_BYTES {
                        let mut v = vec![fill; len];
                        v[at] = b;
                        inputs.push(v);
                    }
                }
            }
        }
        let mut state = 0x5EED_u64;
        for len in 0..200 {
            inputs.push(
                (0..len)
                    .map(|_| {
                        state = state
                            .wrapping_mul(6364136223846793005)
                            .wrapping_add(1442695040888963407);
                        CLASS_BYTES[(state >> 33) as usize % CLASS_BYTES.len()]
                    })
                    .collect(),
            );
        }
        for v in &inputs {
            for start in 0..=v.len() {
                let s = &v[start..];
                assert_eq!(
                    find_newline(s),
                    s.iter().position(|&b| b == b'\n'),
                    "newline in {s:02x?}"
                );
                assert_eq!(
                    find_string_stop(s),
                    s.iter().position(|&b| is_string_stop(b)),
                    "string stop in {s:02x?}"
                );
                let mut escaped = false;
                let end = s.iter().position(|&b| {
                    let closes = b == b'"' && !escaped;
                    escaped = b == b'\\' && !escaped;
                    closes
                });
                if let Ok(t) = std::str::from_utf8(s) {
                    assert_eq!(find_string_end(t), end, "string end in {s:02x?}");
                }
            }
        }
    }
}
