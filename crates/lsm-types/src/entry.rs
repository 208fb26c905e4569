//! Internal entries: the unit of data stored in memtables and sorted runs.

use bytes::Bytes;

use crate::encoding::{self, Decoder};
use crate::key::{InternalKey, SeqNo, UserKey, Value};
use crate::{Error, Result};

/// The kind of an internal entry.
///
/// LSM-trees realize updates and deletes out-of-place: every external
/// operation becomes a new entry of some kind, and older versions are
/// reconciled lazily during compaction.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
#[repr(u8)]
pub enum EntryKind {
    /// A regular key-value insertion or update.
    Put = 4,
    /// A point tombstone: logically deletes every older version of the key.
    Delete = 3,
    /// A single-delete tombstone (RocksDB `SingleDelete`): cancels exactly
    /// one older `Put` and then disappears; valid only for keys written once.
    SingleDelete = 2,
    /// A range tombstone: the entry's key is the start of the deleted range
    /// and its value holds the exclusive end key. Deletes every older
    /// version of every key in `[key, end)`.
    RangeDelete = 1,
    /// A WiscKey-style indirection: the value is a pointer
    /// (segment id, offset, length) into the value log rather than the data
    /// itself.
    ValuePtr = 0,
}

impl EntryKind {
    /// The kind with the largest discriminant; lookup probes use it so they
    /// sort at-or-before any real entry with the same (key, seqno).
    pub(crate) const MAX_ORDERED: EntryKind = EntryKind::Put;

    /// Decodes a kind from its wire discriminant.
    pub fn from_u8(v: u8) -> Result<Self> {
        Ok(match v {
            4 => EntryKind::Put,
            3 => EntryKind::Delete,
            2 => EntryKind::SingleDelete,
            1 => EntryKind::RangeDelete,
            0 => EntryKind::ValuePtr,
            _ => return Err(Error::Corruption(format!("invalid entry kind {v}"))),
        })
    }

    /// Whether this kind logically removes data (any tombstone flavor).
    #[inline]
    pub fn is_tombstone(self) -> bool {
        matches!(
            self,
            EntryKind::Delete | EntryKind::SingleDelete | EntryKind::RangeDelete
        )
    }

    /// Whether this kind carries application data visible to reads.
    #[inline]
    pub fn is_value(self) -> bool {
        matches!(self, EntryKind::Put | EntryKind::ValuePtr)
    }
}

/// One versioned key-value record inside the tree.
///
/// Besides the internal key and value, each entry carries a logical
/// *timestamp*: the value of the engine's operation clock when the entry was
/// written. Timestamps power age-based compaction triggers (e.g. Lethe's
/// delete-persistence deadline) and file-temperature statistics; they play no
/// role in visibility, which is governed solely by [`SeqNo`].
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct InternalEntry {
    /// Sort key: user key + seqno + kind.
    pub key: InternalKey,
    /// Payload. Empty for point tombstones; the range end for
    /// [`EntryKind::RangeDelete`]; an encoded pointer for
    /// [`EntryKind::ValuePtr`].
    pub value: Value,
    /// Logical write-clock timestamp (operation count at write time).
    pub ts: u64,
}

impl InternalEntry {
    /// Creates a `Put` entry.
    pub fn put(key: impl Into<UserKey>, value: impl Into<Value>, seqno: SeqNo, ts: u64) -> Self {
        InternalEntry {
            key: InternalKey::new(key, seqno, EntryKind::Put),
            value: value.into(),
            ts,
        }
    }

    /// Creates a point tombstone.
    pub fn delete(key: impl Into<UserKey>, seqno: SeqNo, ts: u64) -> Self {
        InternalEntry {
            key: InternalKey::new(key, seqno, EntryKind::Delete),
            value: Bytes::new(),
            ts,
        }
    }

    /// Creates a single-delete tombstone.
    pub fn single_delete(key: impl Into<UserKey>, seqno: SeqNo, ts: u64) -> Self {
        InternalEntry {
            key: InternalKey::new(key, seqno, EntryKind::SingleDelete),
            value: Bytes::new(),
            ts,
        }
    }

    /// Creates a range tombstone deleting `[start, end)`.
    pub fn range_delete(
        start: impl Into<UserKey>,
        end: impl Into<UserKey>,
        seqno: SeqNo,
        ts: u64,
    ) -> Self {
        InternalEntry {
            key: InternalKey::new(start, seqno, EntryKind::RangeDelete),
            value: end.into().0,
            ts,
        }
    }

    /// The user key of the entry.
    #[inline]
    pub fn user_key(&self) -> &UserKey {
        &self.key.user_key
    }

    /// The sequence number of the entry.
    #[inline]
    pub fn seqno(&self) -> SeqNo {
        self.key.seqno
    }

    /// The entry kind.
    #[inline]
    pub fn kind(&self) -> EntryKind {
        self.key.kind
    }

    /// Whether the entry is any flavor of tombstone.
    #[inline]
    pub fn is_tombstone(&self) -> bool {
        self.key.kind.is_tombstone()
    }

    /// For a range tombstone, the exclusive end key of the deleted range.
    pub fn range_delete_end(&self) -> Option<UserKey> {
        (self.key.kind == EntryKind::RangeDelete).then(|| UserKey(self.value.clone()))
    }

    /// The approximate in-memory footprint of the entry, used by memtables
    /// to decide when the write buffer is full.
    pub fn approximate_size(&self) -> usize {
        // key bytes + value bytes + seqno + kind + ts bookkeeping
        self.key.user_key.len() + self.value.len() + 17
    }

    /// Serialized length of the entry in the wire format of
    /// [`InternalEntry::encode_into`].
    pub fn encoded_len(&self) -> usize {
        let klen = self.key.user_key.len();
        let vlen = self.value.len();
        encoding::varint_len(klen as u64)
            + klen
            + encoding::varint_len(self.key.seqno)
            + 1
            + encoding::varint_len(self.ts)
            + encoding::varint_len(vlen as u64)
            + vlen
    }

    /// Appends the wire encoding of the entry to `buf`.
    ///
    /// Format: `varint key_len, key, varint seqno, u8 kind, varint ts,
    /// varint value_len, value`.
    pub fn encode_into(&self, buf: &mut Vec<u8>) {
        encoding::put_varint(buf, self.key.user_key.len() as u64);
        buf.extend_from_slice(self.key.user_key.as_bytes());
        encoding::put_varint(buf, self.key.seqno);
        buf.push(self.key.kind as u8);
        encoding::put_varint(buf, self.ts);
        encoding::put_varint(buf, self.value.len() as u64);
        buf.extend_from_slice(&self.value);
    }

    /// Decodes one entry from the front of `dec` into buffers of its own
    /// (WAL replay: the log record is dropped once it has been applied).
    pub fn decode_from(dec: &mut Decoder<'_>) -> Result<Self> {
        let user_key = UserKey::copy_from(dec.len_prefixed()?);
        let seqno = dec.varint()?;
        let kind = EntryKind::from_u8(dec.u8()?)?;
        let ts = dec.varint()?;
        let value = Bytes::copy_from_slice(dec.len_prefixed()?);
        Ok(InternalEntry {
            key: InternalKey {
                user_key,
                seqno,
                kind,
            },
            value,
            ts,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip(e: &InternalEntry) -> InternalEntry {
        let mut buf = Vec::new();
        e.encode_into(&mut buf);
        assert_eq!(buf.len(), e.encoded_len());
        let mut dec = Decoder::new(&buf);
        let out = InternalEntry::decode_from(&mut dec).unwrap();
        assert!(dec.is_empty());
        out
    }

    #[test]
    fn put_roundtrip() {
        let e = InternalEntry::put(b"key", Bytes::from_static(b"value"), 42, 7);
        assert_eq!(roundtrip(&e), e);
    }

    #[test]
    fn tombstone_roundtrip() {
        let e = InternalEntry::delete(b"gone", 1_000_000, 999);
        let back = roundtrip(&e);
        assert_eq!(back, e);
        assert!(back.is_tombstone());
        assert!(back.value.is_empty());
    }

    #[test]
    fn range_delete_carries_end_key() {
        let e = InternalEntry::range_delete(b"a", b"m", 5, 0);
        assert_eq!(e.range_delete_end(), Some(UserKey::from(b"m")));
        assert_eq!(roundtrip(&e), e);
    }

    #[test]
    fn kind_wire_roundtrip() {
        for k in [
            EntryKind::Put,
            EntryKind::Delete,
            EntryKind::SingleDelete,
            EntryKind::RangeDelete,
            EntryKind::ValuePtr,
        ] {
            assert_eq!(EntryKind::from_u8(k as u8).unwrap(), k);
        }
        assert!(EntryKind::from_u8(200).is_err());
    }

    #[test]
    fn tombstone_classification() {
        assert!(EntryKind::Delete.is_tombstone());
        assert!(EntryKind::SingleDelete.is_tombstone());
        assert!(EntryKind::RangeDelete.is_tombstone());
        assert!(!EntryKind::Put.is_tombstone());
        assert!(EntryKind::Put.is_value());
        assert!(EntryKind::ValuePtr.is_value());
    }

    #[test]
    fn decode_rejects_truncation() {
        let e = InternalEntry::put(b"key", Bytes::from_static(b"value"), 1, 1);
        let mut buf = Vec::new();
        e.encode_into(&mut buf);
        for cut in 0..buf.len() {
            let mut dec = Decoder::new(&buf[..cut]);
            assert!(
                InternalEntry::decode_from(&mut dec).is_err(),
                "truncated at {cut} should fail"
            );
        }
    }
}
