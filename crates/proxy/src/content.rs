//! Deterministic synthetic object content.
//!
//! The prototype serves synthetic streaming objects whose payload is a
//! deterministic function of the object name and byte offset, so that any
//! component (origin, proxy, client) can independently generate or verify
//! any byte range without shipping real media files.

/// Returns the payload byte of object `name` at `offset`.
///
/// The function is a small multiplicative hash mixing the name hash and the
/// offset; it is stable across processes and platforms.
pub fn content_byte(name: &str, offset: u64) -> u8 {
    byte_at(name_hash(name), offset)
}

/// The name's share of [`content_byte`]: FNV-1a over its bytes. The same
/// for every byte of an object, so buffer-sized callers compute it once.
fn name_hash(name: &str) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in name.as_bytes() {
        h ^= u64::from(*b);
        h = h.wrapping_mul(0x1000_0000_01b3);
    }
    h
}

/// The offset's share of [`content_byte`], on top of a [`name_hash`].
#[inline]
fn byte_at(name_hash: u64, offset: u64) -> u8 {
    ((name_hash ^ offset).wrapping_mul(0x9e37_79b9_7f4a_7c15) >> 32) as u8
}

/// Fills `buf` with the content of object `name` starting at `offset`.
pub fn fill_content(name: &str, offset: u64, buf: &mut [u8]) {
    let hash = name_hash(name);
    for (i, b) in buf.iter_mut().enumerate() {
        *b = byte_at(hash, offset + i as u64);
    }
}

/// Verifies that `buf` matches the content of `name` starting at `offset`.
/// Returns the index of the first mismatching byte, if any.
pub fn verify_content(name: &str, offset: u64, buf: &[u8]) -> Option<usize> {
    let hash = name_hash(name);
    buf.iter()
        .enumerate()
        .position(|(i, b)| *b != byte_at(hash, offset + i as u64))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn content_is_deterministic_and_name_dependent() {
        assert_eq!(content_byte("a", 0), content_byte("a", 0));
        assert_ne!(
            (0..64).map(|i| content_byte("a", i)).collect::<Vec<_>>(),
            (0..64).map(|i| content_byte("b", i)).collect::<Vec<_>>()
        );
    }

    #[test]
    fn fill_and_verify_roundtrip() {
        let mut buf = vec![0u8; 256];
        fill_content("movie", 1_000, &mut buf);
        assert_eq!(verify_content("movie", 1_000, &buf), None);
        buf[17] ^= 0xff;
        assert_eq!(verify_content("movie", 1_000, &buf), Some(17));
    }

    #[test]
    fn content_is_not_constant() {
        let distinct: std::collections::HashSet<u8> =
            (0..1024).map(|i| content_byte("clip", i)).collect();
        assert!(distinct.len() > 64);
    }

    /// `fill_content` / `verify_content` hash the name once per buffer;
    /// the bytes are `content_byte`'s, wherever the buffer lies.
    #[test]
    fn buffer_functions_agree_with_content_byte_at_every_offset() {
        // The bytes themselves, as computed before the hash was split.
        assert_eq!(content_byte("clip", 0), 21);
        assert_eq!(content_byte("clip", (1 << 32) - 3), 131);
        assert_eq!(content_byte("movie", u64::MAX - 64), 30);
        assert_eq!(content_byte("", 7), 157);
        let offsets = [0, 1, (1u64 << 32) - 3, u64::MAX - 64];
        for name in ["", "a", "clip-1619", "a much longer object name/ü"] {
            for offset in offsets {
                for len in [0usize, 1, 7, 64] {
                    let expected: Vec<u8> = (0..len as u64)
                        .map(|i| content_byte(name, offset + i))
                        .collect();
                    let mut buf = vec![0u8; len];
                    fill_content(name, offset, &mut buf);
                    assert_eq!(buf, expected, "`{name}` at {offset}, {len} bytes");
                    assert_eq!(verify_content(name, offset, &buf), None);
                    for flipped in 0..len {
                        buf[flipped] ^= 0x01;
                        assert_eq!(verify_content(name, offset, &buf), Some(flipped));
                        buf[flipped] ^= 0x01;
                    }
                }
            }
        }
    }
}
