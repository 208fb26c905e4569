//! Data blocks: the unit of I/O and caching.
//!
//! A block stores each key once per shared prefix (LevelDB's block
//! format): an entry keeps only the bytes its key does not share with the
//! previous entry's, and every [`RESTART_INTERVAL`]-th entry is a *restart
//! point* that stores its key in full, so a seek can binary-search the
//! restart points and then scan at most one interval.
//!
//! ```text
//! entry   := varint shared | varint unshared | key[shared..] | varint seqno
//!            | u8 kind | varint ts | varint vlen | value
//! payload := entry* | u32 restart_offset* | u32 restart_count
//! block   := payload | u32 crc32c(payload)
//! ```

use std::cmp::Ordering;

use bytes::Bytes;
use lsm_types::encoding::{put_u32, put_varint, Decoder};
use lsm_types::{checksum, EntryKind, Error, InternalEntry, InternalKey, Result, SeqNo, UserKey};

/// Entries per restart interval: the first entry of each stores its full
/// key.
pub(crate) const RESTART_INTERVAL: usize = 16;

fn corrupt(what: &str) -> Error {
    Error::Corruption(format!("data block: {what}"))
}

/// The block writer's state, shared by [`BlockBuilder`] and the table
/// builder (which encodes blocks straight into its file image): the
/// previous key, which each entry shares a prefix with, and the open
/// block's restart points.
#[derive(Default)]
pub(crate) struct BlockEncoder {
    /// The full user key of the entry added last (kept across blocks).
    last_key: Vec<u8>,
    /// Offsets of the open block's restart points, relative to its start.
    restarts: Vec<u32>,
    /// Entries added since the last restart point.
    since_restart: usize,
}

impl BlockEncoder {
    /// Appends `entry` to the open block, which starts at
    /// `buf[block_start..]`.
    pub(crate) fn add(&mut self, buf: &mut Vec<u8>, block_start: usize, entry: &InternalEntry) {
        let key = entry.user_key().as_bytes();
        let shared = if self.restarts.is_empty() || self.since_restart == RESTART_INTERVAL {
            self.restarts.push((buf.len() - block_start) as u32);
            self.since_restart = 0;
            0
        } else {
            self.last_key
                .iter()
                .zip(key)
                .take_while(|(a, b)| a == b)
                .count()
        };
        self.since_restart += 1;
        put_varint(buf, shared as u64);
        put_varint(buf, (key.len() - shared) as u64);
        buf.extend_from_slice(&key[shared..]);
        put_varint(buf, entry.seqno());
        buf.push(entry.kind() as u8);
        put_varint(buf, entry.ts);
        put_varint(buf, entry.value.len() as u64);
        buf.extend_from_slice(&entry.value);
        self.last_key.truncate(shared);
        self.last_key.extend_from_slice(&key[shared..]);
    }

    /// The user key of the entry added last, if any was.
    pub(crate) fn last_key(&self) -> &[u8] {
        &self.last_key
    }

    /// Closes the open block at `buf[block_start..]`: restart array,
    /// restart count, CRC. An empty block gets one restart at offset 0.
    pub(crate) fn finish(&mut self, buf: &mut Vec<u8>, block_start: usize) {
        if self.restarts.is_empty() {
            self.restarts.push(0);
        }
        let count = self.restarts.len() as u32;
        for offset in self.restarts.drain(..) {
            put_u32(buf, offset);
        }
        put_u32(buf, count);
        checksum::seal(buf, block_start);
        self.since_restart = 0;
    }
}

/// Builds one standalone data block.
#[derive(Default)]
pub struct BlockBuilder {
    buf: Vec<u8>,
    enc: BlockEncoder,
}

impl BlockBuilder {
    /// Creates an empty block builder.
    pub fn new() -> Self {
        BlockBuilder::default()
    }

    /// Appends an entry (caller guarantees ascending internal-key order).
    pub fn add(&mut self, entry: &InternalEntry) {
        self.enc.add(&mut self.buf, 0, entry);
    }

    /// Seals the block: entries, restart array, CRC. Resets the builder for
    /// the next block.
    pub fn finish(&mut self) -> Vec<u8> {
        let mut out = std::mem::take(&mut self.buf);
        self.enc.finish(&mut out, 0);
        out
    }
}

/// Verifies a block's CRC and returns its payload slice.
pub fn verify_block(block: &[u8]) -> Result<&[u8]> {
    checksum::open(block)
}

/// One entry parsed where it lies: the one parser of the block format.
struct RawEntry<'a> {
    /// Bytes of the key shared with the previous entry's.
    shared: usize,
    /// The rest of the key.
    suffix: &'a [u8],
    seqno: SeqNo,
    kind: EntryKind,
    ts: u64,
    value: &'a [u8],
}

impl<'a> RawEntry<'a> {
    fn decode(dec: &mut Decoder<'a>) -> Result<Self> {
        let shared = dec.varint()? as usize;
        let unshared = dec.varint()? as usize;
        let suffix = dec.bytes(unshared)?;
        let seqno = dec.varint()?;
        let kind = EntryKind::from_u8(dec.u8()?)?;
        let ts = dec.varint()?;
        let vlen = dec.varint()? as usize;
        let value = dec.bytes(vlen)?;
        Ok(RawEntry {
            shared,
            suffix,
            seqno,
            kind,
            ts,
            value,
        })
    }

    /// This entry's internal-key order against `probe`, given how its user
    /// key orders against the probe's.
    fn cmp_versions(&self, by_user_key: Ordering, probe: &InternalKey) -> Ordering {
        by_user_key
            .then_with(|| probe.seqno.cmp(&self.seqno))
            .then_with(|| (probe.kind as u8).cmp(&(self.kind as u8)))
    }
}

/// What a point lookup found in one block ([`BlockIter::seek_version`]).
pub(crate) enum Version {
    /// The newest version of the key at or below the probe's seqno.
    Found(InternalEntry),
    /// The first entry at or after the probe belongs to another key.
    Absent,
    /// Every entry in the block sorts before the probe.
    PastEnd,
}

/// Iterates the entries of one verified data block.
///
/// Values are [`Bytes::slice`]s of the block. Keys are not contiguous in
/// the block, so the first `next` decodes every entry from the current one
/// to the block's end in one pass and expands their keys into one arena;
/// each key is a slice of it. The heap is touched once per block, not once
/// per entry. A caller that retains a key or value past the block's use
/// should copy it out.
pub struct BlockIter {
    data: Bytes,
    /// End of the entries: where the restart array starts.
    entries_end: usize,
    /// Restart count; the array sits at `entries_end`.
    restarts: usize,
    /// Byte offset of the entry the arena starts at: 0, or where the last
    /// seek landed.
    pos: usize,
    /// The bytes the entry at `pos` shares with its predecessor, when that
    /// predecessor's key was never expanded (after a seek).
    prefix: Bytes,
    /// The entries from `pos` on, decoded once; `None` until the first
    /// `next` after construction or a seek.
    arena: Option<Arena>,
}

/// A block's entries from some point on, decoded in one pass: every key
/// expanded into one buffer, and where each entry's key and value end.
struct Arena {
    keys: Bytes,
    slots: Vec<Slot>,
    /// The slot `next` yields.
    next: usize,
}

/// One decoded entry of an [`Arena`].
struct Slot {
    /// End of the key in `Arena::keys` (it starts where the previous ends).
    key_end: usize,
    /// The value's range in the block.
    value: std::ops::Range<usize>,
    seqno: SeqNo,
    kind: EntryKind,
    ts: u64,
}

impl BlockIter {
    /// Wraps a raw block (payload + CRC trailer), verifying the checksum.
    pub fn new(block: Bytes) -> Result<Self> {
        verify_block(&block)?;
        Self::new_trusted(block)
    }

    /// Wraps a block that was already verified when it entered the cache,
    /// skipping the CRC pass (the restart array is still validated). Cache
    /// hits use this on the point-lookup fast path; callers wanting
    /// end-to-end verification opt back into [`Self::new`] via
    /// `verify_checksums`.
    pub fn new_trusted(block: Bytes) -> Result<Self> {
        let count_at = block
            .len()
            .checked_sub(8)
            .ok_or_else(|| corrupt("shorter than its trailer"))?;
        let restarts = read_u32(&block, count_at)? as usize;
        let entries_end = restarts
            .checked_mul(4)
            .and_then(|array_len| count_at.checked_sub(array_len))
            .filter(|_| restarts > 0)
            .ok_or_else(|| corrupt(&format!("restart count {restarts} does not fit")))?;
        let mut prev = None;
        for i in 0..restarts {
            let offset = read_u32(&block, entries_end + 4 * i)? as usize;
            let in_place = match prev {
                None => offset == 0,
                Some(p) => offset > p && offset < entries_end,
            };
            if !in_place {
                return Err(corrupt(&format!(
                    "restart {i} at offset {offset} is out of place"
                )));
            }
            prev = Some(offset);
        }
        Ok(BlockIter {
            data: block,
            entries_end,
            restarts,
            pos: 0,
            prefix: Bytes::new(),
            arena: None,
        })
    }

    fn restart_offset(&self, i: usize) -> usize {
        // In bounds and validated at construction.
        read_u32(&self.data, self.entries_end + 4 * i).map_or(self.entries_end, |o| o as usize)
    }

    fn decoder_at(&self, pos: usize) -> Decoder<'_> {
        Decoder::new(&self.data[pos..self.entries_end])
    }

    /// Positions the iterator at the first entry whose internal key is
    /// `>= probe`: a binary search over the restart points, whose keys are
    /// stored whole, then a linear scan of one interval that compares each
    /// key by its unshared bytes alone, never materialising it.
    pub fn seek(&mut self, probe: &InternalKey) -> Result<()> {
        let target = probe.user_key.as_bytes();
        // The last restart whose key sorts before the probe (or the first).
        let (mut lo, mut hi) = (0, self.restarts);
        while hi - lo > 1 {
            let mid = lo + (hi - lo) / 2;
            let at = self.restart_offset(mid);
            let e = RawEntry::decode(&mut self.decoder_at(at))?;
            if e.shared != 0 {
                return Err(corrupt("restart entry shares a prefix"));
            }
            if e.cmp_versions(e.suffix.cmp(target), probe).is_lt() {
                lo = mid;
            } else {
                hi = mid;
            }
        }
        // Within the interval, track how many leading bytes the previous
        // key has in common with the probe (`matched`) and how it orders
        // against it. An entry that shares more than `matched` bytes orders
        // like its predecessor; otherwise its first `shared` bytes equal
        // the probe's and its suffix decides.
        let mut pos = self.restart_offset(lo);
        let (mut matched, mut prev_len, mut prev_order) = (0, 0, Ordering::Less);
        while pos < self.entries_end {
            let mut dec = self.decoder_at(pos);
            let e = RawEntry::decode(&mut dec)?;
            if e.shared > prev_len {
                return Err(corrupt("entry shares more than its predecessor's key"));
            }
            let order = if e.shared > matched {
                prev_order
            } else {
                let rest = &target[e.shared..];
                let common = e
                    .suffix
                    .iter()
                    .zip(rest)
                    .take_while(|(a, b)| a == b)
                    .count();
                matched = e.shared + common;
                e.suffix.cmp(rest)
            };
            if e.cmp_versions(order, probe).is_ge() {
                // An entry sharing more than `matched` bytes orders like its
                // predecessor, which sorted before the probe, so stopping
                // here means `shared <= matched`: those bytes are the probe's.
                self.prefix = probe.user_key.0.slice(0..e.shared);
                self.pos = pos;
                self.arena = None;
                return Ok(());
            }
            prev_len = e.shared + e.suffix.len();
            prev_order = order;
            pos = self.entries_end - dec.remaining();
        }
        self.pos = self.entries_end;
        self.arena = None;
        Ok(())
    }

    /// The point lookup: [`Self::seek`], then the entry there if it is a
    /// version of the probe's user key. Its key is the probe's own (shared,
    /// not copied), so a lookup expands no keys.
    pub(crate) fn seek_version(&mut self, probe: &InternalKey) -> Result<Version> {
        self.seek(probe)?;
        if self.pos >= self.entries_end {
            return Ok(Version::PastEnd);
        }
        let mut dec = self.decoder_at(self.pos);
        let e = RawEntry::decode(&mut dec)?;
        // The entry's first `shared` bytes are the probe's (see `seek`).
        if probe.user_key.as_bytes().get(e.shared..) != Some(e.suffix) {
            return Ok(Version::Absent);
        }
        let next = self.entries_end - dec.remaining();
        Ok(Version::Found(InternalEntry {
            key: InternalKey {
                user_key: probe.user_key.clone(),
                seqno: e.seqno,
                kind: e.kind,
            },
            value: self.data.slice(next - e.value.len()..next),
            ts: e.ts,
        }))
    }

    /// Decodes every entry from `pos` to the block's end in one pass,
    /// expanding their keys into one buffer.
    fn expand(&self) -> Result<Arena> {
        let mut keys = Vec::with_capacity(self.entries_end - self.pos);
        let mut slots = Vec::with_capacity(self.restarts * RESTART_INTERVAL);
        let mut dec = self.decoder_at(self.pos);
        let mut last = 0..0;
        while !dec.is_empty() {
            let e = RawEntry::decode(&mut dec)?;
            let start = keys.len();
            if slots.is_empty() {
                if e.shared != self.prefix.len() {
                    return Err(corrupt("entry shares more than its predecessor's key"));
                }
                keys.extend_from_slice(&self.prefix);
            } else {
                if e.shared > last.len() {
                    return Err(corrupt("entry shares more than its predecessor's key"));
                }
                keys.extend_from_within(last.start..last.start + e.shared);
            }
            keys.extend_from_slice(e.suffix);
            last = start..keys.len();
            let value_end = self.entries_end - dec.remaining();
            slots.push(Slot {
                key_end: keys.len(),
                value: value_end - e.value.len()..value_end,
                seqno: e.seqno,
                kind: e.kind,
                ts: e.ts,
            });
        }
        Ok(Arena {
            keys: Bytes::from(keys),
            slots,
            next: 0,
        })
    }

    /// The next entry; its value is a slice of the block, its key a slice
    /// of the block's key arena.
    fn try_next(&mut self) -> Result<Option<InternalEntry>> {
        if self.arena.is_none() {
            if self.pos >= self.entries_end {
                return Ok(None);
            }
            self.arena = Some(self.expand()?);
        }
        let Some(arena) = &mut self.arena else {
            return Ok(None);
        };
        let Some(slot) = arena.slots.get(arena.next) else {
            return Ok(None);
        };
        let key_start = arena
            .next
            .checked_sub(1)
            .map_or(0, |p| arena.slots[p].key_end);
        arena.next += 1;
        Ok(Some(InternalEntry {
            key: InternalKey {
                user_key: UserKey(arena.keys.slice(key_start..slot.key_end)),
                seqno: slot.seqno,
                kind: slot.kind,
            },
            value: self.data.slice(slot.value.clone()),
            ts: slot.ts,
        }))
    }
}

fn read_u32(data: &[u8], at: usize) -> Result<u32> {
    data.get(at..at + 4)
        .and_then(|b| b.try_into().ok())
        .map(u32::from_le_bytes)
        .ok_or_else(|| corrupt("restart array truncated"))
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

    /// A payload sealed with a valid CRC, so only the structural checks
    /// stand between it and the reader.
    fn sealed(mut payload: Vec<u8>) -> Bytes {
        checksum::seal(&mut payload, 0);
        Bytes::from(payload)
    }

    fn raw_entry(buf: &mut Vec<u8>, shared: u64, suffix: &[u8], seqno: u64) {
        put_varint(buf, shared);
        put_varint(buf, suffix.len() as u64);
        buf.extend_from_slice(suffix);
        put_varint(buf, seqno);
        buf.push(EntryKind::Put as u8);
        put_varint(buf, 0);
        put_varint(buf, 1);
        buf.push(b'v');
    }

    fn with_restarts(mut entries: Vec<u8>, restarts: &[u32], count: u32) -> Bytes {
        for r in restarts {
            put_u32(&mut entries, *r);
        }
        put_u32(&mut entries, count);
        sealed(entries)
    }

    /// Iterating from the start and seeking a few probes: the error, if
    /// any, every path reports.
    fn read_all(block: Bytes) -> Result<()> {
        let mut it = BlockIter::new(block.clone())?;
        for e in it.by_ref() {
            e?;
        }
        for probe in [&b""[..], b"key0005", b"key0017", b"zzz"] {
            let mut it = BlockIter::new(block.clone())?;
            it.seek(&InternalKey::lookup(probe, SeqNo::MAX))?;
            for e in it {
                e?;
            }
        }
        Ok(())
    }

    /// The first entry at or after `probe` in `es`, by a linear scan.
    fn first_geq(es: &[InternalEntry], probe: &InternalKey) -> Option<InternalEntry> {
        es.iter().find(|e| e.key >= *probe).cloned()
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
    fn shared_prefixes_are_stored_once() {
        let es = entries(50);
        let whole: usize = es.iter().map(InternalEntry::encoded_len).sum();
        let block = build(&es);
        // 50 keys of 7 bytes share "key00"/"key000" with their predecessor
        // except at the 4 restart points.
        assert!(block.len() < whole, "{} >= {whole}", block.len());
    }

    #[test]
    fn values_share_the_block_and_keys_share_one_arena() {
        let block = build(&entries(40));
        let base = block.as_ptr() as usize;
        let got: Vec<InternalEntry> = BlockIter::new(block.clone())
            .unwrap()
            .collect::<Result<_>>()
            .unwrap();
        for e in &got {
            assert!((base..base + block.len()).contains(&(e.value.as_ptr() as usize)));
        }
        // Keys are back to back in one buffer, in entry order.
        for w in got.windows(2) {
            let (a, b) = (w[0].user_key().as_bytes(), w[1].user_key().as_bytes());
            assert_eq!(a.as_ptr() as usize + a.len(), b.as_ptr() as usize);
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
        assert!(BlockIter::new_trusted(Bytes::from_static(b"abcdefg")).is_err());
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
    fn seek_around_every_restart_point() {
        let es = entries(70);
        let block = build(&es);
        let mut probes = Vec::new();
        for r in (0..es.len()).step_by(RESTART_INTERVAL) {
            let key = es[r].user_key().as_bytes().to_vec();
            let mut before = key.clone();
            *before.last_mut().unwrap() -= 1;
            before.extend_from_slice(b"\xff");
            let mut after = key.clone();
            after.push(0);
            probes.extend([key, before, after]);
        }
        probes.extend([
            b"".to_vec(),
            b"key".to_vec(),
            b"key0069\x00".to_vec(),
            b"zzz".to_vec(),
        ]);
        for probe in probes {
            let probe = InternalKey::lookup(probe, SeqNo::MAX);
            let mut it = BlockIter::new(block.clone()).unwrap();
            it.seek(&probe).unwrap();
            let rest: Vec<_> = it.collect::<Result<_>>().unwrap();
            let want: Vec<_> = es.iter().filter(|e| e.key >= probe).cloned().collect();
            assert_eq!(rest, want, "seek to {probe:?}");
        }
    }

    #[test]
    fn versions_straddling_a_restart_resolve_by_seqno() {
        // "k" has 40 versions: they cross two restart points.
        let mut es = vec![InternalEntry::put(b"a", b"x".to_vec(), 1, 0)];
        for s in (1..=40u64).rev() {
            es.push(InternalEntry::put(
                b"k",
                format!("v{s}").into_bytes(),
                100 + s,
                0,
            ));
        }
        es.push(InternalEntry::put(b"kk", b"y".to_vec(), 7, 0));
        let block = build(&es);
        for snapshot in [
            0,
            99,
            100,
            101,
            115,
            116,
            117,
            132,
            133,
            140,
            141,
            SeqNo::MAX,
        ] {
            for key in [&b"k"[..], b"kk", b"j", b"ka"] {
                let probe = InternalKey::lookup(key, snapshot);
                let mut it = BlockIter::new(block.clone()).unwrap();
                it.seek(&probe).unwrap();
                let got = it.next().transpose().unwrap();
                let want = first_geq(&es, &probe);
                assert_eq!(got, want, "{key:?} at {snapshot}");
                // The point lookup agrees, without expanding a key.
                let mut it = BlockIter::new(block.clone()).unwrap();
                match it.seek_version(&probe).unwrap() {
                    Version::Found(e) => assert_eq!(Some(e), want),
                    Version::Absent => {
                        assert!(want.is_some_and(|w| w.user_key() != &probe.user_key))
                    }
                    Version::PastEnd => assert!(want.is_none()),
                }
            }
        }
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
        // The second block's first entry is a restart: its key is whole.
        let got: Vec<_> = BlockIter::new(Bytes::from(second))
            .unwrap()
            .collect::<Result<_>>()
            .unwrap();
        assert_eq!(got, vec![entries(2)[1].clone()]);
    }

    #[test]
    fn empty_block_is_valid() {
        let mut b = BlockBuilder::new();
        let block = Bytes::from(b.finish());
        let mut it = BlockIter::new(block.clone()).unwrap();
        assert!(it.next().is_none());
        let mut it = BlockIter::new(block).unwrap();
        it.seek(&InternalKey::lookup(b"k", SeqNo::MAX)).unwrap();
        assert!(it.next().is_none());
    }

    #[test]
    fn shared_beyond_the_previous_key_is_corruption() {
        let mut buf = Vec::new();
        raw_entry(&mut buf, 0, b"abc", 1);
        raw_entry(&mut buf, 4, b"d", 1); // "abc" has only 3 bytes to share
        let block = with_restarts(buf, &[0], 1);
        assert!(read_all(block).unwrap_err().is_corruption());

        // A restart entry must not share at all.
        let mut buf = Vec::new();
        raw_entry(&mut buf, 1, b"abc", 1);
        let block = with_restarts(buf, &[0], 1);
        assert!(read_all(block).unwrap_err().is_corruption());
    }

    #[test]
    fn restart_array_out_of_place_is_corruption() {
        let es = entries(40);
        let good = build(&es);
        let payload = &good[..good.len() - 4];
        let count = u32::from_le_bytes(payload[payload.len() - 4..].try_into().unwrap());
        assert_eq!(count, 3);
        let entries_end = payload.len() - 4 - 4 * count as usize;
        let body = payload[..entries_end].to_vec();
        let restarts: Vec<u32> = (0..count as usize)
            .map(|i| {
                let at = entries_end + 4 * i;
                u32::from_le_bytes(payload[at..at + 4].try_into().unwrap())
            })
            .collect();
        let cases = [
            // a restart offset past the entries
            with_restarts(body.clone(), &[0, restarts[1], entries_end as u32 + 10], 3),
            // a restart array that does not start at 0, or goes backwards
            with_restarts(body.clone(), &[1, restarts[1], restarts[2]], 3),
            with_restarts(body.clone(), &[0, restarts[2], restarts[1]], 3),
            // a count of 0, one too large, and far too large
            with_restarts(body.clone(), &restarts, 0),
            with_restarts(body.clone(), &restarts, 4),
            with_restarts(body.clone(), &restarts, u32::MAX),
            // a restart offset that lands mid-entry
            with_restarts(body.clone(), &[0, restarts[1] + 1, restarts[2]], 3),
        ];
        for (i, block) in cases.into_iter().enumerate() {
            let err = read_all(block).expect_err(&format!("case {i}"));
            assert!(err.is_corruption(), "case {i}: {err}");
        }
        assert!(read_all(with_restarts(body, &restarts, 3)).is_ok());
    }

    #[test]
    fn any_flipped_byte_fails_closed() {
        let good = build(&entries(40));
        let payload = &good[..good.len() - 4];
        for at in 0..payload.len() {
            for flip in [0x01, 0x80, 0xff] {
                let mut bad = payload.to_vec();
                bad[at] ^= flip;
                // Ok or a typed error, never a panic.
                if let Err(e) = read_all(sealed(bad)) {
                    assert!(e.is_corruption(), "byte {at} ^ {flip:#x}: {e}");
                }
            }
        }
    }
}
