//! The slicing-by-8 CRC-32 against the byte-at-a-time definition.
//!
//! Every record on disk carries this checksum, so the fast loop must
//! give the textbook value for every length and every start address:
//! the eight-byte steps cover a different part of the buffer for each
//! alignment, and the byte loop takes whatever is left over.

use hb_store::crc::crc32;
use proptest::prelude::*;

/// The reflected IEEE CRC-32, one bit at a time: the definition, with
/// no table to get wrong.
fn reference(data: &[u8]) -> u32 {
    let mut crc = !0u32;
    for &b in data {
        crc ^= u32::from(b);
        for _ in 0..8 {
            crc = if crc & 1 != 0 {
                (crc >> 1) ^ 0xEDB8_8320
            } else {
                crc >> 1
            };
        }
    }
    !crc
}

fn bytes(seed: u64, len: usize) -> Vec<u8> {
    let mut x = seed | 1;
    (0..len)
        .map(|_| {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            (x >> 24) as u8
        })
        .collect()
}

#[test]
fn every_short_length_at_every_alignment() {
    let buf = bytes(7, 64 + 8);
    for start in 0..8 {
        for len in 0..=64 {
            let data = &buf[start..start + len];
            assert_eq!(crc32(data), reference(data), "start {start} len {len}");
        }
    }
}

#[test]
fn known_vectors() {
    assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
    assert_eq!(
        crc32(b"The quick brown fox jumps over the lazy dog"),
        0x414F_A339
    );
    assert_eq!(crc32(&[0u8; 32]), reference(&[0u8; 32]));
    assert_eq!(crc32(&[0xFFu8; 33]), reference(&[0xFFu8; 33]));
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn slicing_by_8_equals_the_bitwise_definition(
        seed in any::<u64>(),
        len in prop_oneof![0usize..64, 0usize..=10_000],
        start in 0usize..8,
    ) {
        let buf = bytes(seed, start + len);
        let data = &buf[start..];
        prop_assert_eq!(crc32(data), reference(data), "start {} len {}", start, len);
    }
}
