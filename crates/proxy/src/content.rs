//! Deterministic synthetic object content.
//!
//! The prototype serves synthetic streaming objects whose payload is a
//! deterministic function of the object name and byte offset, so that any
//! component (origin, proxy, client) can independently generate or verify
//! any byte range without shipping real media files.
//!
//! # The block kernel
//!
//! The byte at offset `o` is bits 32..39 of `x·K mod 2^64`, where
//! `x = h ^ o`, `h` is the name's hash and `K` a fixed odd multiplier
//! ([`content_byte`]). With `l = h & 0xff` and `j = o & 0xff`, `x`'s low
//! eight bits are `l ^ j` and the rest are `x & !0xff`; the two parts share
//! no bits, so `x = (x & !0xff) + (l ^ j)` exactly and, multiplication
//! distributing over addition mod 2^64,
//!
//! ```text
//! x·K = A + P[j]   where   A = (x & !0xff)·K,   P[j] = (l ^ j)·K.
//! ```
//!
//! `A` depends only on the bits of `o` above the low eight, so it is one
//! value over a 256-aligned block of offsets, and `P[j]` is the product
//! `i·K` of the small factor `i = l ^ j < 256`. Bits 32..39 of `A + P[j]`
//! are the low byte of the high halves' sum plus the carry out of the low
//! halves' sum, and the carry fires exactly when `i·K mod 2^32 > !A_lo`.
//! The 256 low halves `i·K mod 2^32` are distinct, because `K` is odd, and
//! a compile-time table (`PRODUCTS`) holds them sorted, each `i`'s place
//! in that order, and each `i`'s high byte. With `c` the number of low
//! halves at most `!A_lo`, found by one binary search per block, the carry
//! fires exactly when `i`'s place is at least `c`, and `c ≥ 1` because
//! `0·K = 0`. So [`fill_content`] and [`verify_content`] produce each byte
//! of a block as `A_hi + hi[i] + (place[i] > c − 1)`, with no multiply and
//! one byte compare: the same sum `x·K`, so the same bytes as
//! [`content_byte`]. The loop runs on bytes, and keeps the places less
//! 128 so that the compare is a signed one, the form baseline x86-64 has
//! as one vector instruction.
//!
//! Offsets are taken modulo 2^64: a buffer that runs past `u64::MAX`
//! continues at offset 0, in debug and release builds alike.

use std::ops::Range;

/// The multiplier of the offset hash.
const MUL: u64 = 0x9e37_79b9_7f4a_7c15;

/// Offsets that agree in every bit above the low eight share `A`.
const BLOCK: usize = 256;

/// Returns the payload byte of object `name` at `offset`.
///
/// The function is a small multiplicative hash mixing the name hash and the
/// offset; it is stable across processes and platforms. It is the
/// definition the buffer functions are tested against.
pub fn content_byte(name: &str, offset: u64) -> u8 {
    ((name_hash(name) ^ offset).wrapping_mul(MUL) >> 32) as u8
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

/// The products `i·K` of the 256 factors `i` a block's low byte can take:
/// their low halves in ascending order, `i`'s place in that order, and the
/// low byte of `i`'s high half.
struct Products {
    sorted_lo: [u32; BLOCK],
    place: [u8; BLOCK],
    hi: [u8; BLOCK],
}

/// [`Products`], built at compile time.
const PRODUCTS: &Products = &{
    let mut products = Products {
        sorted_lo: [0; BLOCK],
        place: [0; BLOCK],
        hi: [0; BLOCK],
    };
    let mut i = 0;
    while i < BLOCK {
        let p = (i as u64).wrapping_mul(MUL);
        let lo = p as u32;
        // The low halves are distinct, so `i`'s place is the number of
        // them below its own.
        let mut below = 0;
        let mut m = 0;
        while m < BLOCK {
            let other = (m as u64).wrapping_mul(MUL) as u32;
            below += (other < lo) as usize;
            m += 1;
        }
        products.sorted_lo[below] = lo;
        products.place[i] = below as u8;
        products.hi[i] = (p >> 32) as u8;
        i += 1;
    }
    products
};

/// [`PRODUCTS`]' place and high byte of `i = l ^ j`, indexed by a block's
/// `j` for one name hash. The places are kept as [`signed`] bytes.
struct Table {
    hash: u64,
    place: [i8; BLOCK],
    hi: [u8; BLOCK],
}

/// A place less 128, as an `i8`: `p > q` exactly when
/// `signed(p) > signed(q)`, and baseline x86-64 compares signed bytes in one
/// vector instruction but unsigned ones only through a min and an equality
/// test.
const fn signed(place: u8) -> i8 {
    place.wrapping_sub(128) as i8
}

impl Table {
    /// The entries a buffer of `len` bytes at `offset` reads: those of its
    /// first `min(len, 256)` offsets, which is all of them once `len`
    /// reaches a block, and no more than the call's bytes below that.
    fn new(hash: u64, offset: u64, len: usize) -> Self {
        let mut table = Table {
            hash,
            place: [0; BLOCK],
            hi: [0; BLOCK],
        };
        let first = (offset & 0xff) as usize;
        for k in 0..len.min(BLOCK) {
            let j = (first + k) & 0xff;
            let i = (hash & 0xff) as usize ^ j;
            table.place[j] = signed(PRODUCTS.place[i]);
            table.hi[j] = PRODUCTS.hi[i];
        }
        table
    }

    /// Writes the content at `offset..offset + run.len()`, a run that stays
    /// inside one block (see [`runs`]).
    fn fill_run(&self, offset: u64, run: &mut [u8]) {
        let a = ((self.hash ^ offset) & !0xff).wrapping_mul(MUL);
        let (a_lo, a_hi) = (a as u32, (a >> 32) as u8);
        // The places of the products whose low half carries past `!a_lo`
        // are those above `last`; `sorted_lo[0] = 0` keeps `c ≥ 1`.
        let c = PRODUCTS.sorted_lo.partition_point(|&lo| lo <= !a_lo);
        let last = signed((c - 1) as u8);
        let first = (offset & 0xff) as usize;
        let place = &self.place[first..first + run.len()];
        let hi = &self.hi[first..first + run.len()];
        // Plain indices: the form that vectorises under the optimiser and
        // is also the fastest without it, where iterator adapters are calls.
        for k in 0..run.len() {
            run[k] = a_hi
                .wrapping_add(hi[k])
                .wrapping_add((place[k] > last) as u8);
        }
    }
}

/// Splits the `len` bytes from `offset` at block boundaries: each item is
/// the offset a run starts at and the run's range in the buffer.
fn runs(offset: u64, len: usize) -> impl Iterator<Item = (u64, Range<usize>)> {
    let mut start = 0;
    std::iter::from_fn(move || {
        (start < len).then(|| {
            let at = offset.wrapping_add(start as u64);
            let end = len.min(start + BLOCK - (at & 0xff) as usize);
            let run = (at, start..end);
            start = end;
            run
        })
    })
}

/// Fills `buf` with the content of object `name` starting at `offset`
/// (modulo 2^64).
pub fn fill_content(name: &str, offset: u64, buf: &mut [u8]) {
    let table = Table::new(name_hash(name), offset, buf.len());
    for (at, range) in runs(offset, buf.len()) {
        table.fill_run(at, &mut buf[range]);
    }
}

/// Verifies that `buf` matches the content of `name` starting at `offset`
/// (modulo 2^64). Returns the index of the first mismatching byte, if any.
pub fn verify_content(name: &str, offset: u64, buf: &[u8]) -> Option<usize> {
    let table = Table::new(name_hash(name), offset, buf.len());
    let mut expected = [0u8; BLOCK];
    runs(offset, buf.len()).find_map(|(at, range)| {
        let expected = &mut expected[..range.len()];
        table.fill_run(at, expected);
        let got = &buf[range.clone()];
        if got == expected {
            return None;
        }
        let first = got.iter().zip(expected.iter()).position(|(g, e)| g != e);
        first.map(|k| range.start + k)
    })
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

    /// `content_byte` at `offset + i` modulo 2^64, byte by byte.
    fn reference(name: &str, offset: u64, len: usize) -> Vec<u8> {
        (0..len as u64)
            .map(|i| content_byte(name, offset.wrapping_add(i)))
            .collect()
    }

    /// Fills a buffer, checks it against `reference`, and checks that
    /// `verify_content` accepts it and reports a flip at each of `flips`.
    fn check(name: &str, offset: u64, len: usize, flips: &[usize]) {
        let mut buf = vec![0u8; len];
        fill_content(name, offset, &mut buf);
        assert!(
            buf == reference(name, offset, len),
            "`{name}` at {offset}, {len} bytes"
        );
        assert_eq!(verify_content(name, offset, &buf), None);
        for &flipped in flips {
            buf[flipped] ^= 0x01;
            assert_eq!(
                verify_content(name, offset, &buf),
                Some(flipped),
                "`{name}` at {offset}, {len} bytes, byte {flipped} flipped"
            );
            buf[flipped] ^= 0x01;
        }
    }

    /// `fill_content` / `verify_content` build each block from one table
    /// per call; the bytes are `content_byte`'s, wherever the buffer lies
    /// and however it cuts the blocks.
    #[test]
    fn buffer_functions_agree_with_content_byte_at_every_offset() {
        // The bytes themselves, as computed before the kernel was split.
        assert_eq!(content_byte("clip", 0), 21);
        assert_eq!(content_byte("clip", (1 << 32) - 3), 131);
        assert_eq!(content_byte("movie", u64::MAX - 64), 30);
        assert_eq!(content_byte("", 7), 157);
        // Block-aligned, one past, just below 2^32 (the high half of
        // `h ^ o` changes across it) and just below the u64 wrap.
        let offsets = [0, 1, (1u64 << 32) - 3, (1u64 << 32) - 300, u64::MAX - 64];
        let names = ["", "a", "clip-1619", "a much longer object name/ü"];
        for name in names {
            for offset in offsets {
                for len in [0usize, 1, 7, 64] {
                    let every: Vec<usize> = (0..len).collect();
                    check(name, offset, len, &every);
                }
                // Around one and two blocks, and many blocks: a flip at
                // either side of the buffer's first block edge, at
                // positions 255 and 256, and at the last byte.
                let edge = BLOCK - (offset & 0xff) as usize;
                for len in [255usize, 256, 257, 513, 70_000] {
                    let flips = [0, edge - 1, edge, 255, 256, len - 1].map(|k| k.min(len - 1));
                    check(name, offset, len, &flips);
                }
            }
            // A short buffer from every residue `o & 0xff` (in steps of 17),
            // so the table's used entries wrap past 255 for some of them.
            for residue in (0..256u64).step_by(17) {
                for len in [1usize, 40, 200] {
                    let every: Vec<usize> = (0..len).collect();
                    check(name, 0x1234_5600 + residue, len, &every);
                }
            }
        }
        // Across 2^32 and across the u64 wrap, from every residue of a
        // block.
        for residue in (0..256u64).step_by(17) {
            for end in [1u64 << 32, 0] {
                let offset = end.wrapping_sub(600).wrapping_add(residue);
                check("clip-7", offset, 1_200, &[0, 599, 600, 1_199]);
            }
        }
    }

    /// The carry of a block is `place > c − 1`, with `c` the count of
    /// sorted low halves at most `!A_lo`; every count `c` is reached just
    /// below its threshold, at it where that is reachable, and just above.
    #[test]
    fn the_carry_rule_holds_on_either_side_of_every_threshold() {
        let sorted = &PRODUCTS.sorted_lo;
        assert!(sorted.windows(2).all(|w| w[0] < w[1]));
        let mut seen = [false; BLOCK];
        for i in 0..BLOCK {
            let p = (i as u64).wrapping_mul(MUL);
            let place = usize::from(PRODUCTS.place[i]);
            assert!(!seen[place], "place {place} taken twice");
            seen[place] = true;
            assert_eq!(sorted[place], p as u32);
            assert_eq!(PRODUCTS.hi[i], (p >> 32) as u8);
        }
        // `K⁻¹ mod 2^64` by Newton's iteration: each step doubles the
        // correct low bits, and `K·K ≡ 1 mod 8` gives the first three.
        let inverse = (0..5).fold(MUL, |inv, _| {
            inv.wrapping_mul(2u64.wrapping_sub(MUL.wrapping_mul(inv)))
        });
        assert_eq!(MUL.wrapping_mul(inverse), 1);
        // A block's `x & !0xff` is a multiple of 256, so `A_lo` is one
        // too and `!A_lo` ends in 0xff: `y = A_lo·K⁻¹` is a block's
        // `x & !0xff`, and any bits above 32 added to it leave `A_lo` be.
        let mut counts = [0; BLOCK + 1];
        for (place, &threshold) in sorted.iter().enumerate() {
            let at = (threshold & 0xff == 0xff).then_some(threshold);
            let above = match at {
                Some(_) => threshold.checked_add(0x100),
                None => Some(threshold | 0xff),
            };
            let below = (threshold & !0xff).checked_sub(1);
            let targets = [(below, place), (at, place + 1), (above, place + 1)];
            for (not_a_lo, c) in targets {
                let Some(not_a_lo) = not_a_lo else { continue };
                assert_eq!(sorted.partition_point(|&lo| lo <= not_a_lo), c);
                counts[c] += 1;
                let y = u64::from(!not_a_lo)
                    .wrapping_mul(inverse)
                    .wrapping_add((place as u64) << 40);
                assert_eq!(y & 0xff, 0);
                assert_eq!(y.wrapping_mul(MUL) as u32, !not_a_lo);
                for name in ["clip", "a much longer object name/ü"] {
                    let start = y ^ (name_hash(name) & !0xff);
                    check(name, start, BLOCK, &[0, BLOCK - 1]);
                }
            }
        }
        // Every count from 1 to 256 is reached, and 0 never is.
        assert_eq!(counts[0], 0);
        assert!(counts[1..].iter().all(|&n| n >= 1));
    }

    /// Offsets are taken modulo 2^64, in debug and release builds alike: a
    /// buffer that runs past `u64::MAX` continues at offset 0.
    #[test]
    fn a_buffer_past_the_last_offset_wraps_to_offset_zero() {
        let mut buf = [0u8; 2];
        fill_content("a", u64::MAX, &mut buf);
        assert_eq!(buf, [content_byte("a", u64::MAX), content_byte("a", 0)]);
        assert_eq!(verify_content("a", u64::MAX, &buf), None);
        buf[1] ^= 0x01;
        assert_eq!(verify_content("a", u64::MAX, &buf), Some(1));
    }
}
