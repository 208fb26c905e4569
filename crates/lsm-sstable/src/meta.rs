//! Table metadata: the statistics block and footer.

use lsm_types::encoding::{put_len_prefixed, put_u32, put_u64, put_varint, Decoder};
use lsm_types::{checksum, Error, KeyRange, Result, SeqNo, UserKey};

/// Magic number identifying an `lsm-lab` table footer.
pub const TABLE_MAGIC: u64 = 0x4c53_4d4c_4142_0002; // "LSMLAB" v2

/// The magic of the first table format, whose data blocks stored every
/// key whole: recognised only to be refused.
pub(crate) const TABLE_MAGIC_V1: u64 = 0x4c53_4d4c_4142_0001;

/// Fixed footer: `meta_offset u64 | meta_len u32 | crc u32 | magic u64`.
pub const FOOTER_LEN: usize = 24;

/// Everything a reader or a compaction planner needs to know about a table
/// without touching its data blocks.
#[derive(Clone, Debug, PartialEq)]
pub struct TableMeta {
    /// Number of entries (all kinds).
    pub entry_count: u64,
    /// Number of point/single-delete tombstones.
    pub tombstone_count: u64,
    /// Number of range tombstones.
    pub range_tombstone_count: u64,
    /// Smallest and largest user keys.
    pub key_range: KeyRange,
    /// Smallest sequence number in the table.
    pub min_seqno: SeqNo,
    /// Largest sequence number in the table.
    pub max_seqno: SeqNo,
    /// Oldest logical timestamp (age of the oldest entry; Lethe's
    /// delete-persistence trigger reads this).
    pub min_ts: u64,
    /// Newest logical timestamp.
    pub max_ts: u64,
    /// Total encoded size of data blocks in bytes.
    pub data_bytes: u64,
    /// Byte offset of the top-level index block (the fence over index
    /// partitions).
    pub index_offset: u64,
    /// Byte length of the top-level index block.
    pub index_len: u64,
    /// Byte offset of the filter region (0-length when absent).
    pub filter_offset: u64,
    /// Total byte length of the filter region (all partitions).
    pub filter_len: u64,
    /// Discriminant of the filter implementation
    /// ([`lsm_filters::PointFilterKind::as_u8`]).
    pub filter_kind: u8,
    /// The table's range tombstones `(start, end_exclusive, seqno)`,
    /// duplicated out of the data blocks so readers can mask deleted ranges
    /// without any extra I/O (range deletes are rare; this stays tiny).
    pub range_tombstones: Vec<(UserKey, UserKey, SeqNo)>,
    /// Total number of data blocks (so readers need not decode every index
    /// partition to size the table).
    pub data_blocks: u64,
    /// Per-partition filter handles `(offset, len)`, parallel to the index
    /// partitions; a 0-length handle means that partition has no filter.
    pub filter_partitions: Vec<(u64, u64)>,
}

impl TableMeta {
    /// Fraction of entries that are tombstones — the statistic
    /// tombstone-density compaction picking (Lethe) sorts by.
    pub fn tombstone_density(&self) -> f64 {
        if self.entry_count == 0 {
            0.0
        } else {
            (self.tombstone_count + self.range_tombstone_count) as f64 / self.entry_count as f64
        }
    }

    /// Serializes the meta block (varint fields + CRC).
    pub fn encode(&self) -> Vec<u8> {
        let mut buf = Vec::with_capacity(128);
        put_varint(&mut buf, self.entry_count);
        put_varint(&mut buf, self.tombstone_count);
        put_varint(&mut buf, self.range_tombstone_count);
        put_len_prefixed(&mut buf, self.key_range.min.as_bytes());
        put_len_prefixed(&mut buf, self.key_range.max.as_bytes());
        put_varint(&mut buf, self.min_seqno);
        put_varint(&mut buf, self.max_seqno);
        put_varint(&mut buf, self.min_ts);
        put_varint(&mut buf, self.max_ts);
        put_varint(&mut buf, self.data_bytes);
        put_varint(&mut buf, self.index_offset);
        put_varint(&mut buf, self.index_len);
        put_varint(&mut buf, self.filter_offset);
        put_varint(&mut buf, self.filter_len);
        buf.push(self.filter_kind);
        put_varint(&mut buf, self.range_tombstones.len() as u64);
        for (start, end, seqno) in &self.range_tombstones {
            put_len_prefixed(&mut buf, start.as_bytes());
            put_len_prefixed(&mut buf, end.as_bytes());
            put_varint(&mut buf, *seqno);
        }
        put_varint(&mut buf, self.data_blocks);
        put_varint(&mut buf, self.filter_partitions.len() as u64);
        for (offset, len) in &self.filter_partitions {
            put_varint(&mut buf, *offset);
            put_varint(&mut buf, *len);
        }
        checksum::seal(&mut buf, 0);
        buf
    }

    /// Decodes a meta block, verifying its CRC.
    pub fn decode(data: &[u8]) -> Result<Self> {
        let mut dec = Decoder::new(checksum::open(data)?);
        let entry_count = dec.varint()?;
        let tombstone_count = dec.varint()?;
        let range_tombstone_count = dec.varint()?;
        let min = UserKey::copy_from(dec.len_prefixed()?);
        let max = UserKey::copy_from(dec.len_prefixed()?);
        let min_seqno = dec.varint()?;
        let max_seqno = dec.varint()?;
        let min_ts = dec.varint()?;
        let max_ts = dec.varint()?;
        let data_bytes = dec.varint()?;
        let index_offset = dec.varint()?;
        let index_len = dec.varint()?;
        let filter_offset = dec.varint()?;
        let filter_len = dec.varint()?;
        let filter_kind = dec.u8()?;
        let n_rt = dec.varint()? as usize;
        let mut range_tombstones = Vec::with_capacity(n_rt.min(1024));
        for _ in 0..n_rt {
            let start = UserKey::copy_from(dec.len_prefixed()?);
            let end = UserKey::copy_from(dec.len_prefixed()?);
            let seqno = dec.varint()?;
            range_tombstones.push((start, end, seqno));
        }
        let data_blocks = dec.varint()?;
        let n_fp = dec.varint()? as usize;
        let mut filter_partitions = Vec::with_capacity(n_fp.min(1 << 16));
        for _ in 0..n_fp {
            let offset = dec.varint()?;
            let len = dec.varint()?;
            filter_partitions.push((offset, len));
        }
        Ok(TableMeta {
            entry_count,
            tombstone_count,
            range_tombstone_count,
            key_range: KeyRange { min, max },
            min_seqno,
            max_seqno,
            min_ts,
            max_ts,
            data_bytes,
            index_offset,
            index_len,
            filter_offset,
            filter_len,
            filter_kind,
            range_tombstones,
            data_blocks,
            filter_partitions,
        })
    }
}

/// Encodes the fixed-size footer pointing at the meta block.
pub fn encode_footer(meta_offset: u64, meta_len: u32) -> Vec<u8> {
    let mut buf = Vec::with_capacity(FOOTER_LEN);
    put_u64(&mut buf, meta_offset);
    put_u32(&mut buf, meta_len);
    let crc = checksum::crc32c(&buf);
    put_u32(&mut buf, crc);
    put_u64(&mut buf, TABLE_MAGIC);
    buf
}

/// Decodes and validates a footer; returns `(meta_offset, meta_len)`.
pub fn decode_footer(data: &[u8]) -> Result<(u64, u32)> {
    if data.len() != FOOTER_LEN {
        return Err(Error::Corruption(format!(
            "footer length {} != {FOOTER_LEN}",
            data.len()
        )));
    }
    let mut dec = Decoder::new(data);
    let meta_offset = dec.u64()?;
    let meta_len = dec.u32()?;
    let crc = dec.u32()?;
    let magic = dec.u64()?;
    if magic == TABLE_MAGIC_V1 {
        return Err(Error::Corruption(
            "table format v1 (whole-key data blocks) is not readable; \
             this build reads format v2 only"
                .into(),
        ));
    }
    if magic != TABLE_MAGIC {
        return Err(Error::Corruption("bad table magic".into()));
    }
    if !checksum::verify(&data[..12], crc) {
        return Err(Error::Corruption("footer checksum mismatch".into()));
    }
    Ok((meta_offset, meta_len))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> TableMeta {
        TableMeta {
            entry_count: 1000,
            tombstone_count: 50,
            range_tombstone_count: 2,
            key_range: KeyRange::new(b"aaa", b"zzz"),
            min_seqno: 7,
            max_seqno: 1007,
            min_ts: 3,
            max_ts: 999,
            data_bytes: 65536,
            index_offset: 65536,
            index_len: 512,
            filter_offset: 66048,
            filter_len: 1200,
            filter_kind: 1,
            range_tombstones: vec![
                (UserKey::from(b"bbb"), UserKey::from(b"ccc"), 900),
                (UserKey::from(b"x"), UserKey::from(b"y"), 950),
            ],
            data_blocks: 16,
            filter_partitions: vec![(66048, 600), (66648, 600)],
        }
    }

    #[test]
    fn meta_roundtrip() {
        let m = sample();
        assert_eq!(TableMeta::decode(&m.encode()).unwrap(), m);
    }

    #[test]
    fn meta_corruption_detected() {
        let mut raw = sample().encode();
        raw[3] ^= 1;
        assert!(TableMeta::decode(&raw).is_err());
        assert!(TableMeta::decode(&[1, 2]).is_err());
    }

    #[test]
    fn footer_roundtrip() {
        let f = encode_footer(12345, 678);
        assert_eq!(f.len(), FOOTER_LEN);
        assert_eq!(decode_footer(&f).unwrap(), (12345, 678));
    }

    #[test]
    fn footer_rejects_bad_magic_and_crc() {
        let mut f = encode_footer(1, 2);
        f[FOOTER_LEN - 1] ^= 1; // magic
        assert!(decode_footer(&f).is_err());
        let mut f = encode_footer(1, 2);
        f[0] ^= 1; // offset -> crc mismatch
        assert!(decode_footer(&f).is_err());
        assert!(decode_footer(&[0; 10]).is_err());
    }

    #[test]
    fn tombstone_density() {
        let m = sample();
        assert!((m.tombstone_density() - 0.052).abs() < 1e-9);
        let empty = TableMeta {
            entry_count: 0,
            ..sample()
        };
        assert_eq!(empty.tombstone_density(), 0.0);
    }
}
