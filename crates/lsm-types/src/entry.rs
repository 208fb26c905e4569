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
        let e = EntryRef::decode_from(dec)?;
        Ok(e.entry(
            Bytes::copy_from_slice(e.user_key),
            Bytes::copy_from_slice(e.value),
        ))
    }

    /// Decodes the entry encoded at `buf[pos..end]` without copying it: the
    /// key and the value are [`Bytes::slice`]s of `buf` and keep it alive.
    /// Returns the entry and the offset just past it.
    pub fn decode_shared(buf: &Bytes, pos: usize, end: usize) -> Result<(Self, usize)> {
        let data = buf
            .get(pos..end)
            .ok_or_else(|| Error::Corruption("entry range outside its buffer".into()))?;
        let mut dec = Decoder::new(data);
        let e = EntryRef::decode_from(&mut dec)?;
        // Both fields are subslices of `data`, the value its last bytes read.
        let next = end - dec.remaining();
        let key = pos + (e.user_key.as_ptr() as usize - data.as_ptr() as usize);
        let entry = e.entry(
            buf.slice(key..key + e.user_key.len()),
            buf.slice(next - e.value.len()..next),
        );
        Ok((entry, next))
    }
}

/// One encoded entry, parsed where it lies: the one parser of the wire
/// format [`InternalEntry::encode_into`] writes. The key and the value
/// borrow from the decoder's input.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct EntryRef<'a> {
    /// The user key.
    pub user_key: &'a [u8],
    /// Sequence number.
    pub seqno: SeqNo,
    /// Entry kind.
    pub kind: EntryKind,
    /// Logical write-clock timestamp.
    pub ts: u64,
    /// The value.
    pub value: &'a [u8],
}

impl<'a> EntryRef<'a> {
    /// Parses one entry from the front of `dec`, consuming it.
    #[inline]
    pub fn decode_from(dec: &mut Decoder<'a>) -> Result<Self> {
        let klen = dec.varint()? as usize;
        let user_key = dec.bytes(klen)?;
        let seqno = dec.varint()?;
        let kind = EntryKind::from_u8(dec.u8()?)?;
        let ts = dec.varint()?;
        let vlen = dec.varint()? as usize;
        let value = dec.bytes(vlen)?;
        Ok(EntryRef {
            user_key,
            seqno,
            kind,
            ts,
            value,
        })
    }

    /// Orders the entry's internal key against `probe`, exactly as
    /// [`InternalKey`]'s `Ord` would.
    #[inline]
    pub fn cmp_key(&self, probe: &InternalKey) -> std::cmp::Ordering {
        self.user_key
            .cmp(probe.user_key.as_bytes())
            .then_with(|| probe.seqno.cmp(&self.seqno))
            .then_with(|| (probe.kind as u8).cmp(&(self.kind as u8)))
    }

    #[inline]
    fn entry(&self, user_key: Bytes, value: Bytes) -> InternalEntry {
        InternalEntry {
            key: InternalKey {
                user_key: UserKey(user_key),
                seqno: self.seqno,
                kind: self.kind,
            },
            value,
            ts: self.ts,
        }
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
    fn decode_shared_slices_the_buffer_and_agrees_with_decode_from() {
        let a = InternalEntry::put(b"key", Bytes::from_static(b"value"), 42, 7);
        let b = InternalEntry::range_delete(b"m", b"q", 9, 8);
        let mut raw = vec![0xEE; 3]; // entries need not start the buffer
        a.encode_into(&mut raw);
        b.encode_into(&mut raw);
        let buf = Bytes::from(raw);
        let (first, next) = InternalEntry::decode_shared(&buf, 3, buf.len()).unwrap();
        let (second, end) = InternalEntry::decode_shared(&buf, next, buf.len()).unwrap();
        assert_eq!((first.clone(), second), (a.clone(), b));
        assert_eq!(end, buf.len());
        assert_eq!(next, 3 + a.encoded_len());
        // Zero-copy: the fields point into `buf`.
        let base = buf.as_ptr() as usize;
        let inside = |p: *const u8| (base..base + buf.len()).contains(&(p as usize));
        assert!(inside(first.user_key().as_bytes().as_ptr()));
        assert!(inside(first.value.as_ptr()));
        // A range that is cut short or outside the buffer is corruption.
        assert!(InternalEntry::decode_shared(&buf, 3, next - 1).is_err());
        assert!(InternalEntry::decode_shared(&buf, 3, buf.len() + 1).is_err());
    }

    #[test]
    fn entry_ref_orders_like_internal_key() {
        let probe = InternalKey::lookup(b"k", 7);
        for e in [
            InternalEntry::put(b"k", b"v".to_vec(), 9, 0),
            InternalEntry::put(b"k", b"v".to_vec(), 7, 0),
            InternalEntry::delete(b"k", 7, 0),
            InternalEntry::put(b"k", b"v".to_vec(), 5, 0),
            InternalEntry::put(b"j", b"v".to_vec(), 1, 0),
            InternalEntry::put(b"l", b"v".to_vec(), 99, 0),
        ] {
            let mut buf = Vec::new();
            e.encode_into(&mut buf);
            let parsed = EntryRef::decode_from(&mut Decoder::new(&buf)).unwrap();
            assert_eq!(parsed.cmp_key(&probe), e.key.cmp(&probe));
        }
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
