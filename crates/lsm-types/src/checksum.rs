//! CRC-32C (Castagnoli) for block and log-record integrity.
//!
//! The polynomial matches the one used by LevelDB/RocksDB so corrupted
//! blocks and torn WAL records are detected before they are decoded.
//! [`crc32c`] is the one entry point: it uses the CPU's CRC-32C instruction
//! (SSE4.2 on x86-64, the CRC extension on aarch64) when the running CPU
//! has it, checked at run time, and the table-driven code otherwise.
//!
//! Every checksummed record that is not a log record (data, meta and
//! manifest blocks, the value-log roster, the coordinator blobs) shares one
//! framing, `payload | u32 crc32c(payload)`: [`seal`] writes the trailer
//! and [`open`] checks it.

use crate::{Error, Result};

/// The reflected CRC-32C polynomial.
const POLY: u32 = 0x82f6_3b78;

/// 8-way slicing tables, built at compile time.
static TABLES: [[u32; 256]; 8] = build_tables();

const fn build_tables() -> [[u32; 256]; 8] {
    let mut tables = [[0u32; 256]; 8];
    let mut i = 0;
    while i < 256 {
        let mut crc = i as u32;
        let mut j = 0;
        while j < 8 {
            crc = if crc & 1 != 0 {
                (crc >> 1) ^ POLY
            } else {
                crc >> 1
            };
            j += 1;
        }
        tables[0][i] = crc;
        i += 1;
    }
    let mut t = 1;
    while t < 8 {
        let mut i = 0;
        while i < 256 {
            let prev = tables[t - 1][i];
            tables[t][i] = (prev >> 8) ^ tables[0][(prev & 0xff) as usize];
            i += 1;
        }
        t += 1;
    }
    tables
}

/// Computes the CRC-32C of `data`.
#[inline]
pub fn crc32c(data: &[u8]) -> u32 {
    #[cfg(target_arch = "x86_64")]
    if std::arch::is_x86_feature_detected!("sse4.2") {
        // SAFETY: the check above proves this CPU implements SSE4.2, the
        // one thing `update_hw` requires of its caller.
        return !unsafe { update_hw(!0, data) };
    }
    #[cfg(target_arch = "aarch64")]
    if std::arch::is_aarch64_feature_detected!("crc") {
        // SAFETY: the check above proves this CPU implements the CRC
        // extension, the one thing `update_hw` requires of its caller.
        return !unsafe { update_hw(!0, data) };
    }
    !update_table(!0, data)
}

/// CRC-32C of `data` by the table path alone, whatever the CPU offers.
#[cfg(test)]
pub(crate) fn crc32c_table(data: &[u8]) -> u32 {
    !update_table(!0, data)
}

/// Advances the raw (un-inverted) CRC state over `data`, 8-way sliced.
fn update_table(mut crc: u32, data: &[u8]) -> u32 {
    let mut chunks = data.chunks_exact(8);
    for chunk in &mut chunks {
        let lo = u32::from_le_bytes(chunk[..4].try_into().expect("8-byte chunk")) ^ crc;
        let hi = u32::from_le_bytes(chunk[4..].try_into().expect("8-byte chunk"));
        crc = TABLES[7][(lo & 0xff) as usize]
            ^ TABLES[6][((lo >> 8) & 0xff) as usize]
            ^ TABLES[5][((lo >> 16) & 0xff) as usize]
            ^ TABLES[4][(lo >> 24) as usize]
            ^ TABLES[3][(hi & 0xff) as usize]
            ^ TABLES[2][((hi >> 8) & 0xff) as usize]
            ^ TABLES[1][((hi >> 16) & 0xff) as usize]
            ^ TABLES[0][(hi >> 24) as usize];
    }
    update_bytes(crc, chunks.remainder())
}

/// Byte-at-a-time tail shared by both paths.
#[inline]
fn update_bytes(mut crc: u32, tail: &[u8]) -> u32 {
    for &b in tail {
        crc = (crc >> 8) ^ TABLES[0][((crc ^ b as u32) & 0xff) as usize];
    }
    crc
}

/// Advances the raw CRC state with the CPU's CRC-32C instruction, eight
/// bytes per step; the short tail goes through the table.
///
/// # Safety
/// The running CPU must support SSE4.2 (x86-64) or the CRC extension
/// (aarch64).
#[cfg(any(target_arch = "x86_64", target_arch = "aarch64"))]
#[cfg_attr(target_arch = "x86_64", target_feature(enable = "sse4.2"))]
#[cfg_attr(target_arch = "aarch64", target_feature(enable = "crc"))]
unsafe fn update_hw(mut crc: u32, data: &[u8]) -> u32 {
    let mut chunks = data.chunks_exact(8);
    for chunk in &mut chunks {
        let word = u64::from_le_bytes(chunk.try_into().expect("8-byte chunk"));
        #[cfg(target_arch = "x86_64")]
        {
            crc = core::arch::x86_64::_mm_crc32_u64(u64::from(crc), word) as u32;
        }
        #[cfg(target_arch = "aarch64")]
        {
            crc = core::arch::aarch64::__crc32cd(crc, word);
        }
    }
    update_bytes(crc, chunks.remainder())
}

/// Verifies that `expected` is the CRC-32C of `data`.
pub fn verify(data: &[u8], expected: u32) -> bool {
    crc32c(data) == expected
}

/// Seals the record whose payload is `buf[start..]` by appending the
/// payload's CRC-32C (little-endian).
#[inline]
pub fn seal(buf: &mut Vec<u8>, start: usize) {
    let crc = crc32c(&buf[start..]);
    buf.extend_from_slice(&crc.to_le_bytes());
}

/// Checks a record [`seal`] framed and returns its payload, or
/// [`Error::Corruption`] when the trailer is missing or does not match.
#[inline]
pub fn open(record: &[u8]) -> Result<&[u8]> {
    let Some((payload, trailer)) = record
        .len()
        .checked_sub(4)
        .map(|split| record.split_at(split))
    else {
        return Err(Error::Corruption(
            "record shorter than its checksum trailer".into(),
        ));
    };
    let mut crc = [0u8; 4];
    crc.copy_from_slice(trailer);
    if !verify(payload, u32::from_le_bytes(crc)) {
        return Err(Error::Corruption("checksum mismatch".into()));
    }
    Ok(payload)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// Both paths — whichever `crc32c` dispatched to and the table — must
    /// produce `expected`.
    fn assert_both(data: &[u8], expected: u32) {
        assert_eq!(crc32c(data), expected, "dispatched path");
        assert_eq!(crc32c_table(data), expected, "table path");
    }

    #[test]
    fn known_vectors() {
        // RFC 3720 / iSCSI test vectors for CRC-32C.
        assert_both(&[0u8; 32], 0x8a91_36aa);
        assert_both(&[0xffu8; 32], 0x62a8_ab43);
        let ascending: Vec<u8> = (0..32).collect();
        assert_both(&ascending, 0x46dd_794e);
        let descending: Vec<u8> = (0..32).rev().collect();
        assert_both(&descending, 0x113f_db5c);
        assert_both(b"123456789", 0xe306_9283);
    }

    #[test]
    fn empty_input() {
        assert_both(&[], 0);
    }

    #[test]
    fn detects_single_bit_flip() {
        let data = b"the quick brown fox jumps over the lazy dog".to_vec();
        let base = crc32c(&data);
        for i in 0..data.len() {
            let mut copy = data.clone();
            copy[i] ^= 1;
            assert_ne!(crc32c(&copy), base, "flip at byte {i} undetected");
        }
    }

    #[test]
    fn unaligned_tails_match_bytewise() {
        // The eight-bytes-a-step paths and the byte-at-a-time tail must
        // agree for every length.
        let data: Vec<u8> = (0..64u8).map(|i| i.wrapping_mul(37)).collect();
        for len in 0..data.len() {
            assert_both(&data[..len], !update_bytes(!0, &data[..len]));
        }
    }

    proptest! {
        #[test]
        fn hardware_and_table_paths_agree(buf in prop::collection::vec(any::<u8>(), 308..309)) {
            // Every length 0..=300 at every start alignment 0..8.
            for align in 0..8 {
                for len in 0..=300 {
                    let data = &buf[align..align + len];
                    prop_assert_eq!(crc32c(data), crc32c_table(data), "align {} len {}", align, len);
                }
            }
        }
    }

    #[test]
    fn seal_and_open_round_trip_and_reject_every_flip() {
        let mut buf = b"head".to_vec();
        buf.extend_from_slice(b"payload");
        seal(&mut buf, 4);
        let record = &buf[4..];
        assert_eq!(open(record).unwrap(), b"payload");
        for i in 0..record.len() {
            let mut copy = record.to_vec();
            copy[i] ^= 0x10;
            assert!(open(&copy).unwrap_err().is_corruption(), "flip at {i}");
        }
        assert!(open(&record[..3]).unwrap_err().is_corruption());
        assert!(open(&[]).unwrap_err().is_corruption());
    }

    #[test]
    fn verify_helper() {
        assert!(verify(b"123456789", 0xe306_9283));
        assert!(!verify(b"123456789", 0));
    }
}
