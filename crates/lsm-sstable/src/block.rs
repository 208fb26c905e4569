//! Data blocks: the unit of I/O and caching.

use bytes::Bytes;
use lsm_types::encoding::{put_u32, Decoder};
use lsm_types::{checksum, EntryRef, Error, InternalEntry, InternalKey, Result};

/// Seals the block whose payload is `buf[start..]` by appending the
/// payload's CRC-32C, computed in place. A block is its encoded entries
/// followed by this trailer, whether it was built standalone
/// ([`BlockBuilder`]) or inside a table's file buffer.
pub(crate) fn seal_block(buf: &mut Vec<u8>, start: usize) {
    let crc = checksum::crc32c(&buf[start..]);
    put_u32(buf, crc);
}

/// Builds one standalone data block: encoded entries followed by a
/// CRC-32C trailer.
#[derive(Default)]
pub struct BlockBuilder {
    buf: Vec<u8>,
}

impl BlockBuilder {
    /// Creates an empty block builder.
    pub fn new() -> Self {
        BlockBuilder::default()
    }

    /// Appends an entry (caller guarantees ascending internal-key order).
    pub fn add(&mut self, entry: &InternalEntry) {
        entry.encode_into(&mut self.buf);
    }

    /// Seals the block: payload followed by its CRC. Resets the builder for
    /// the next block.
    pub fn finish(&mut self) -> Vec<u8> {
        let mut out = std::mem::take(&mut self.buf);
        seal_block(&mut out, 0);
        out
    }
}

/// Verifies a block's CRC and returns its payload slice.
pub fn verify_block(block: &[u8]) -> Result<&[u8]> {
    if block.len() < 4 {
        return Err(Error::Corruption("block shorter than its trailer".into()));
    }
    let (payload, trailer) = block.split_at(block.len() - 4);
    let expected = u32::from_le_bytes(
        trailer
            .try_into()
            .map_err(|_| Error::Corruption("block trailer truncated".into()))?,
    );
    if !checksum::verify(payload, expected) {
        return Err(Error::Corruption("block checksum mismatch".into()));
    }
    Ok(payload)
}

/// Iterates the entries of one verified data block. Entries share the
/// block: each key and value is a [`Bytes::slice`] of it, so a caller that
/// retains one past the block's use should copy it out.
pub struct BlockIter {
    data: Bytes,
    /// Byte offset of the next entry within the payload.
    pos: usize,
    payload_len: usize,
}

impl BlockIter {
    /// Wraps a raw block (payload + CRC trailer), verifying the checksum.
    pub fn new(block: Bytes) -> Result<Self> {
        verify_block(&block)?;
        Self::new_trusted(block)
    }

    /// Wraps a block that was already verified when it entered the cache,
    /// skipping the CRC pass. Cache hits use this on the point-lookup fast
    /// path (the block was checksummed when read from the backend); callers
    /// wanting end-to-end verification opt back into [`Self::new`] via
    /// `verify_checksums`.
    pub fn new_trusted(block: Bytes) -> Result<Self> {
        if block.len() < 4 {
            return Err(Error::Corruption("block shorter than its trailer".into()));
        }
        let payload_len = block.len() - 4;
        Ok(BlockIter {
            data: block,
            pos: 0,
            payload_len,
        })
    }

    /// Advances past entries whose internal key sorts before `probe`.
    pub fn seek(&mut self, probe: &InternalKey) -> Result<()> {
        // Entries are variable-length; a block holds only a page's worth,
        // so a linear scan is the standard approach (LevelDB restarts would
        // shave constants, not complexity). Skipped entries are compared
        // where they lie and never materialised.
        while self.pos < self.payload_len {
            let mut dec = Decoder::new(&self.data[self.pos..self.payload_len]);
            if EntryRef::decode_from(&mut dec)?.cmp_key(probe).is_ge() {
                break;
            }
            self.pos = self.payload_len - dec.remaining();
        }
        Ok(())
    }

    /// The next entry; its key and value are slices of the block.
    fn try_next(&mut self) -> Result<Option<InternalEntry>> {
        if self.pos >= self.payload_len {
            return Ok(None);
        }
        let (entry, next) = InternalEntry::decode_shared(&self.data, self.pos, self.payload_len)?;
        self.pos = next;
        Ok(Some(entry))
    }
}

impl Iterator for BlockIter {
    type Item = Result<InternalEntry>;

    fn next(&mut self) -> Option<Self::Item> {
        self.try_next().transpose()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lsm_types::SeqNo;

    fn entries(n: u64) -> Vec<InternalEntry> {
        (0..n)
            .map(|i| {
                InternalEntry::put(
                    format!("key{i:04}").into_bytes(),
                    format!("val{i}").into_bytes(),
                    n - i, // any seqno; keys distinct so order is by key
                    i,
                )
            })
            .collect()
    }

    fn build(entries: &[InternalEntry]) -> Bytes {
        let mut b = BlockBuilder::new();
        for e in entries {
            b.add(e);
        }
        Bytes::from(b.finish())
    }

    #[test]
    fn roundtrip() {
        let es = entries(50);
        let block = build(&es);
        let got: Vec<InternalEntry> = BlockIter::new(block)
            .unwrap()
            .collect::<Result<_>>()
            .unwrap();
        assert_eq!(got, es);
    }

    #[test]
    fn entries_share_the_block() {
        let block = build(&entries(5));
        let base = block.as_ptr() as usize;
        for e in BlockIter::new(block.clone()).unwrap() {
            let e = e.unwrap();
            for p in [e.user_key().as_bytes().as_ptr(), e.value.as_ptr()] {
                assert!((base..base + block.len()).contains(&(p as usize)));
            }
        }
    }

    #[test]
    fn corruption_detected() {
        let es = entries(10);
        let mut raw = build(&es).to_vec();
        raw[5] ^= 0xff;
        assert!(BlockIter::new(Bytes::from(raw)).is_err());
    }

    #[test]
    fn truncated_block_detected() {
        let es = entries(10);
        let raw = build(&es);
        assert!(BlockIter::new(raw.slice(0..raw.len() - 1)).is_err());
        assert!(BlockIter::new(Bytes::from_static(b"abc")).is_err());
    }

    #[test]
    fn seek_lands_on_first_geq() {
        let es = entries(20);
        let block = build(&es);
        let mut it = BlockIter::new(block.clone()).unwrap();
        let probe = InternalKey::lookup(b"key0007", SeqNo::MAX);
        it.seek(&probe).unwrap();
        let first = it.next().unwrap().unwrap();
        assert_eq!(first.user_key().as_bytes(), b"key0007");

        // seeking past the end yields nothing
        let mut it = BlockIter::new(block).unwrap();
        it.seek(&InternalKey::lookup(b"zzz", SeqNo::MAX)).unwrap();
        assert!(it.next().is_none());
    }

    #[test]
    fn seek_respects_seqno_within_key() {
        let mut b = BlockBuilder::new();
        let v9 = InternalEntry::put(b"k", b"v9".to_vec(), 9, 0);
        let v5 = InternalEntry::put(b"k", b"v5".to_vec(), 5, 0);
        b.add(&v9); // internal order: higher seqno first
        b.add(&v5);
        let block = Bytes::from(b.finish());

        let mut it = BlockIter::new(block.clone()).unwrap();
        it.seek(&InternalKey::lookup(b"k", 7)).unwrap();
        let got = it.next().unwrap().unwrap();
        assert_eq!(got.seqno(), 5, "snapshot 7 must skip seqno 9");

        let mut it = BlockIter::new(block).unwrap();
        it.seek(&InternalKey::lookup(b"k", SeqNo::MAX)).unwrap();
        assert_eq!(it.next().unwrap().unwrap().seqno(), 9);
    }

    #[test]
    fn builder_resets_after_finish() {
        let mut b = BlockBuilder::new();
        b.add(&entries(1)[0]);
        let first = b.finish();
        b.add(&entries(2)[1]);
        let second = b.finish();
        assert_ne!(first, second);
    }

    #[test]
    fn empty_block_is_valid() {
        let mut b = BlockBuilder::new();
        let block = Bytes::from(b.finish());
        let mut it = BlockIter::new(block).unwrap();
        assert!(it.next().is_none());
    }
}
