//! Keyspace sharding for multi-core scale-out: how a [`Db`] opened with
//! [`DbBuilder::shards`](crate::DbBuilder::shards)` > 1` maps keys to its
//! engines, and how a batch that spans several of them commits.
//!
//! Each shard is a full [`crate::engine::Engine`] with its own WAL and
//! commit queue (maintenance runs on the `Db`'s one worker pool, shared
//! by every shard). One commit queue means one WAL append
//! stream and one fsync pipeline, no matter how many cores submit writes;
//! partitioning the keyspace gives every shard its own leader/follower
//! group commit, so aggregate ingest scales with shards until the device
//! saturates (measured by benchmark E14).
//!
//! # Cross-shard atomicity
//!
//! A [`WriteBatch`] that touches several shards commits inside the
//! **epoch window**: the `Db` serializes multi-shard batches (lock rank
//! `sharded.epoch_mx`, the outermost rank in the workspace hierarchy),
//! tags every sub-batch's WAL record with a fresh epoch, commits each
//! involved shard with a forced sync, and only then records the epoch as
//! committed in the coordinator's `EPOCHS` metadata blob. Recovery replays
//! a tagged record only when its epoch is in the committed set, so a power
//! cut anywhere in the window leaves the batch all-or-none on reopen.
//! [`Db::snapshot`] takes the same lock, so a snapshot sees a multi-shard
//! batch whole or not at all; plain reads may see it partly applied.

use std::collections::BTreeSet;
use std::ops::RangeInclusive;
use std::sync::atomic::Ordering;
use std::sync::Arc;

use lsm_storage::Backend;
use lsm_types::checksum;
use lsm_types::encoding::{put_len_prefixed, put_varint, Decoder};
use lsm_types::{EntryKind, Error, Result};

#[cfg(doc)]
use crate::db::Db;
use crate::db::{Shards, WriteBatch, WriteOptions};
use crate::engine::{BatchOp, Engine, EpochFilter};

/// Name of the coordinator metadata blob holding the shard-layout config
/// (shard count + partitioning), validated on reopen.
const SHARDS_META: &str = "SHARDS";

/// Name of the coordinator metadata blob holding the epoch log (next epoch
/// + committed set). Lives on shard 0's *raw* backend.
const EPOCHS_META: &str = "EPOCHS";

/// How a [`Db`] with several shards maps a user key to a shard.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub enum Partitioning {
    /// FNV-1a hash of the key, modulo the shard count. Spreads any
    /// workload evenly; range scans must visit every shard.
    #[default]
    Hash,
    /// Contiguous key ranges split at the given points: shard `i` owns
    /// keys in `[split_points[i-1], split_points[i])` (unbounded at the
    /// ends). Requires exactly `shards - 1` strictly ascending points.
    /// Range scans touch only the shards the range intersects.
    Range {
        /// The ordered split keys; key `k` routes to the number of points
        /// `<= k`.
        split_points: Vec<Vec<u8>>,
    },
}

/// 64-bit FNV-1a: tiny, dependency-free, and plenty uniform for spreading
/// keys over single-digit shard counts.
fn fnv1a(key: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in key {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x100_0000_01b3);
    }
    h
}

impl Partitioning {
    /// The shard index owning `key` among `n` shards.
    pub(crate) fn shard_of(&self, key: &[u8], n: usize) -> usize {
        match self {
            _ if n == 1 => 0,
            Partitioning::Hash => (fnv1a(key) % n as u64) as usize,
            Partitioning::Range { split_points } => {
                split_points.partition_point(|p| p.as_slice() <= key)
            }
        }
    }

    /// The shards that can hold keys of `[start, end)` (`None` = unbounded
    /// above): every shard under [`Partitioning::Hash`], and under
    /// [`Partitioning::Range`] the run from `start`'s shard to the shard
    /// owning the last key strictly below `end`. Empty when `end < start`
    /// crosses a split point.
    pub(crate) fn shards_of(
        &self,
        start: &[u8],
        end: Option<&[u8]>,
        n: usize,
    ) -> RangeInclusive<usize> {
        match self {
            Partitioning::Hash => 0..=n - 1,
            Partitioning::Range { split_points } => {
                let last = end.map_or(n - 1, |end| split_points.partition_point(|p| p[..] < *end));
                self.shard_of(start, n)..=last
            }
        }
    }

    pub(crate) fn validate(&self, shards: usize) -> Result<()> {
        if shards == 0 {
            return Err(Error::InvalidArgument(
                "a Db needs at least one shard".into(),
            ));
        }
        if let Partitioning::Range { split_points } = self {
            if split_points.len() + 1 != shards {
                return Err(Error::InvalidArgument(format!(
                    "range partitioning needs exactly shards-1 split points \
                     ({} shards, {} points)",
                    shards,
                    split_points.len()
                )));
            }
            if split_points.windows(2).any(|w| w[0] >= w[1]) {
                return Err(Error::InvalidArgument(
                    "range split points must be strictly ascending".into(),
                ));
            }
        }
        Ok(())
    }

    fn encode(&self, buf: &mut Vec<u8>) {
        match self {
            Partitioning::Hash => buf.push(0),
            Partitioning::Range { split_points } => {
                buf.push(1);
                put_varint(buf, split_points.len() as u64);
                for p in split_points {
                    put_len_prefixed(buf, p);
                }
            }
        }
    }

    fn decode(dec: &mut Decoder<'_>) -> Result<Partitioning> {
        match dec.u8()? {
            0 => Ok(Partitioning::Hash),
            1 => {
                let count = dec.varint()? as usize;
                let mut split_points = Vec::with_capacity(count);
                for _ in 0..count {
                    split_points.push(dec.len_prefixed()?.to_vec());
                }
                Ok(Partitioning::Range { split_points })
            }
            other => Err(Error::Corruption(format!(
                "unknown partitioning discriminant {other}"
            ))),
        }
    }
}

/// The coordinator's record of cross-shard commit epochs: the next epoch to
/// hand out and the set recovery may keep. Persisted to [`EPOCHS_META`]
/// whenever an epoch commits; reset (committed set cleared, counter kept)
/// on every successful open, because recovery strips epoch tags while
/// re-logging survivors.
#[derive(Default)]
pub(crate) struct EpochLog {
    next: u64,
    committed: BTreeSet<u64>,
}

/// Version of the `SHARDS` and `EPOCHS` blobs this build writes:
/// `version | body | u32 crc32c` ([`checksum::seal`] over all of it).
/// Version 1, the same without the trailer, is still read.
const META_VERSION: u8 = 2;

/// Frames a coordinator blob: the version byte, `body`'s bytes, the trailer.
fn seal_meta(body: impl FnOnce(&mut Vec<u8>)) -> Vec<u8> {
    let mut buf = vec![META_VERSION];
    body(&mut buf);
    checksum::seal(&mut buf, 0);
    buf
}

/// The body of a coordinator blob, its trailer checked (version 2) or
/// absent (version 1). `what` names the blob in the error.
fn open_meta<'a>(data: &'a [u8], what: &str) -> Result<Decoder<'a>> {
    let body = match data.first() {
        Some(1) => &data[1..],
        Some(2) => &checksum::open(data)?[1..],
        version => {
            return Err(Error::Corruption(format!(
                "unknown {what} version {version:?}"
            )))
        }
    };
    Ok(Decoder::new(body))
}

/// Refuses bytes left over after a blob's last field.
fn finish_meta(dec: &Decoder<'_>, what: &str) -> Result<()> {
    if dec.is_empty() {
        return Ok(());
    }
    Err(Error::Corruption(format!(
        "trailing bytes after the {what}"
    )))
}

impl EpochLog {
    fn encode(&self) -> Vec<u8> {
        seal_meta(|buf| {
            put_varint(buf, self.next);
            put_varint(buf, self.committed.len() as u64);
            for e in &self.committed {
                put_varint(buf, *e);
            }
        })
    }

    fn decode(data: &[u8]) -> Result<EpochLog> {
        let mut dec = open_meta(data, "epoch log")?;
        let next = dec.varint()?;
        let count = dec.varint()? as usize;
        let mut committed = BTreeSet::new();
        for _ in 0..count {
            committed.insert(dec.varint()?);
        }
        finish_meta(&dec, "epoch log")?;
        Ok(EpochLog { next, committed })
    }

    /// Reopen of a store with several shards: refuses a changed shard
    /// layout and returns the stored log. Without one, every tagged record
    /// counts as uncommitted (a fresh store has no tagged records to lose).
    pub(crate) fn load(coord: &dyn Backend, shards: usize, p: &Partitioning) -> Result<EpochLog> {
        if let Some(raw) = coord.get_meta(SHARDS_META)? {
            let (stored_shards, stored_part) = decode_shards_meta(&raw)?;
            if stored_shards != shards || stored_part != *p {
                return Err(Error::InvalidArgument(format!(
                    "shard config mismatch: store has {stored_shards} shards \
                     ({stored_part:?}), caller asked for {shards} ({p:?})"
                )));
            }
        }
        match coord.get_meta(EPOCHS_META)? {
            Some(raw) => EpochLog::decode(&raw),
            None => Ok(EpochLog::default()),
        }
    }

    /// The epochs each shard's recovery may keep.
    pub(crate) fn filter(&self) -> EpochFilter {
        EpochFilter {
            committed: Arc::new(self.committed.iter().copied().collect()),
        }
    }

    /// After every shard opened (and re-logged its survivors untagged), no
    /// pre-open epoch is referenced anywhere: clears the committed set,
    /// keeps the counter monotonic, and records layout and log when
    /// `persist`. Doing this only once all shards opened keeps the filter
    /// valid if a crash interrupts the open and recovery runs again.
    pub(crate) fn reset(
        self,
        coord: &dyn Backend,
        shards: usize,
        p: &Partitioning,
        persist: bool,
    ) -> Result<EpochLog> {
        let log = EpochLog {
            next: self.next,
            committed: BTreeSet::new(),
        };
        if persist {
            coord.put_meta(SHARDS_META, &encode_shards_meta(shards, p))?;
            coord.put_meta(EPOCHS_META, &log.encode())?;
        }
        Ok(log)
    }
}

fn encode_shards_meta(shards: usize, partitioning: &Partitioning) -> Vec<u8> {
    seal_meta(|buf| {
        put_varint(buf, shards as u64);
        partitioning.encode(buf);
    })
}

fn decode_shards_meta(data: &[u8]) -> Result<(usize, Partitioning)> {
    let mut dec = open_meta(data, "shard config")?;
    let shards = dec.varint()? as usize;
    let partitioning = Partitioning::decode(&mut dec)?;
    finish_meta(&dec, "shard config")?;
    Ok((shards, partitioning))
}

/// Increments every involved engine's `epoch_pins` for the lifetime of one
/// epoch window, so no shard can freeze (and later flush) a memtable
/// holding epoch-tagged entries whose fate is not yet recorded.
struct EpochPins<'a> {
    engines: Vec<&'a Engine>,
}

impl<'a> EpochPins<'a> {
    fn pin(engines: impl Iterator<Item = &'a Engine>) -> Self {
        let engines: Vec<_> = engines.collect();
        for e in &engines {
            e.epoch_pins.fetch_add(1, Ordering::AcqRel);
        }
        EpochPins { engines }
    }
}

impl Drop for EpochPins<'_> {
    fn drop(&mut self) {
        for e in &self.engines {
            e.epoch_pins.fetch_sub(1, Ordering::AcqRel);
        }
    }
}

impl Shards {
    /// The shards one op writes to: its key's shard, or every shard a
    /// range delete's `[start, end)` can hold keys of.
    pub(crate) fn shards_of_op(&self, op: &BatchOp) -> RangeInclusive<usize> {
        let n = self.engines.len();
        if op.kind == EntryKind::RangeDelete {
            return self
                .partitioning
                .shards_of(op.key.as_bytes(), Some(&op.value), n);
        }
        let shard = self.partitioning.shard_of(op.key.as_bytes(), n);
        shard..=shard
    }

    /// Splits `batch` into per-shard sub-batches (ascending shard index,
    /// empty shards omitted), preserving op order within each shard. A
    /// range delete goes to every shard it can cover; under
    /// [`Partitioning::Hash`] that is all of them, unclipped, which is
    /// harmless because a shard only holds its own keys.
    fn split_batch(&self, batch: WriteBatch) -> Vec<(usize, WriteBatch)> {
        let mut per: Vec<WriteBatch> = vec![WriteBatch::new(); self.engines.len()];
        for op in batch.ops {
            for p in &mut per[self.shards_of_op(&op)] {
                p.ops.push(op.clone());
            }
        }
        per.into_iter()
            .enumerate()
            .filter(|(_, b)| !b.ops.is_empty())
            .collect()
    }

    /// Commits a batch that spans several shards. The whole window — the
    /// per-shard commits plus the coordinator COMMIT record — runs under
    /// `epoch_mx`, serializing multi-shard batches with each other and
    /// with [`Db::snapshot`] (single-shard traffic proceeds concurrently).
    ///
    /// Logged, the batch is crash-atomic whatever `w.sync` says: each
    /// sub-batch is tagged with the epoch and synced, and the epoch is
    /// recorded only after every involved shard committed. `w.no_wal` (or
    /// a database without a WAL) skips the tag, the sync and the record —
    /// a crash can then keep some shards' portion and lose others'.
    pub(crate) fn write_epoch(&self, batch: WriteBatch, w: &WriteOptions) -> Result<()> {
        // Nothing may reach any shard if one op is bad, or the window
        // could commit a prefix before the error.
        batch.validate()?;
        let parts = self.split_batch(batch);
        let involved: Vec<usize> = parts.iter().map(|(i, _)| *i).collect();
        let mut log = self.epoch_mx.lock();
        let logged = !w.no_wal && self.engines[0].opts.wal;
        let epoch = logged.then(|| {
            log.next += 1;
            log.next - 1
        });
        let w = match epoch {
            Some(_) => WriteOptions {
                sync: Some(true),
                no_wal: false,
            },
            None => *w,
        };
        // Freeze guard: while pinned, no involved shard may freeze (and
        // later flush) a memtable holding this epoch's entries — recovery
        // can discard tagged WAL records, but not rows inside an SST.
        let _pins = EpochPins::pin(involved.iter().map(|&i| self.engines[i].as_ref()));
        for (pos, (i, part)) in parts.into_iter().enumerate() {
            // The epoch protocol serializes multi-shard batches by design;
            // each sub-commit does WAL I/O inside the epoch_mx window.
            // lsm-lint: allow(io-under-lock)
            let committed = self.engines[i].commit_batch(part, &w, epoch);
            if let (Err(e), Some(epoch)) = (&committed, epoch) {
                // Shards before `pos` already applied their (never to be
                // committed) sub-batches: poison them so no later write can
                // trigger a freeze that would make the orphaned entries
                // durable. A crash now discards them — all-or-none holds.
                for &j in &involved[..pos] {
                    self.engines[j].set_bg_error(&format!(
                        "cross-shard epoch {epoch} aborted: sibling shard {i} failed: {e}"
                    ));
                }
            }
            committed?;
        }
        let Some(epoch) = epoch else {
            return Ok(());
        };
        log.committed.insert(epoch);
        if self.persist_epochs {
            // COMMIT point: every sub-batch is synced; recording the epoch
            // makes the whole batch recoverable atomically.
            // lsm-lint: allow(io-under-lock)
            if let Err(e) = self.coord.put_meta(EPOCHS_META, &log.encode()) {
                log.committed.remove(&epoch);
                // The shards hold acked-to-nobody tagged entries whose
                // epoch will read as uncommitted after a crash; poison them
                // so the entries cannot reach an SST (see above).
                for &j in &involved {
                    self.engines[j].set_bg_error(&format!(
                        "cross-shard epoch {epoch} commit record failed: {e}"
                    ));
                }
                return Err(e);
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hash_routing_is_stable_and_in_range() {
        let p = Partitioning::Hash;
        for n in 1..5 {
            for key in [b"a".as_slice(), b"zzz", b"\x00", b""] {
                let s = p.shard_of(key, n);
                assert!(s < n);
                assert_eq!(s, p.shard_of(key, n));
            }
        }
    }

    #[test]
    fn range_routing_uses_partition_point() {
        let p = Partitioning::Range {
            split_points: vec![b"h".to_vec(), b"t".to_vec()],
        };
        assert_eq!(p.shard_of(b"a", 3), 0);
        assert_eq!(p.shard_of(b"h", 3), 1); // split key belongs right
        assert_eq!(p.shard_of(b"m", 3), 1);
        assert_eq!(p.shard_of(b"t", 3), 2);
        assert_eq!(p.shard_of(b"z", 3), 2);
    }

    #[test]
    fn partitioning_validation() {
        assert!(Partitioning::Hash.validate(1).is_ok());
        let bad_count = Partitioning::Range {
            split_points: vec![b"h".to_vec()],
        };
        assert!(bad_count.validate(3).is_err());
        let not_ascending = Partitioning::Range {
            split_points: vec![b"t".to_vec(), b"h".to_vec()],
        };
        assert!(not_ascending.validate(3).is_err());
    }

    #[test]
    fn meta_blobs_round_trip() {
        let p = Partitioning::Range {
            split_points: vec![b"h".to_vec(), b"t".to_vec()],
        };
        let raw = encode_shards_meta(3, &p);
        assert_eq!(decode_shards_meta(&raw).unwrap(), (3, p));

        let log = EpochLog {
            next: 42,
            committed: [3, 7, 41].into_iter().collect(),
        };
        let back = EpochLog::decode(&log.encode()).unwrap();
        assert_eq!(back.next, 42);
        assert_eq!(back.committed, log.committed);
    }

    /// Version-1 blobs (no checksum trailer) from an older build still
    /// decode to what they recorded.
    #[test]
    fn version_one_blobs_still_read() {
        let epochs = [1u8, 42, 3, 3, 7, 41];
        let back = EpochLog::decode(&epochs).unwrap();
        assert_eq!(back.next, 42);
        assert_eq!(back.committed, [3, 7, 41].into_iter().collect());
        let shards = [1u8, 3, 1, 2, 1, b'h', 1, b't'];
        let p = Partitioning::Range {
            split_points: vec![b"h".to_vec(), b"t".to_vec()],
        };
        assert_eq!(decode_shards_meta(&shards).unwrap(), (3, p));
    }

    /// Every bit flipped in every byte of a version-2 blob, and every byte
    /// inverted, is `Corruption`: never a different epoch log or layout.
    #[test]
    fn every_flip_of_a_v2_blob_is_corruption() {
        let log = EpochLog {
            next: 300,
            committed: [3, 7, 299].into_iter().collect(),
        };
        let epochs = log.encode();
        assert_eq!(epochs[0], 2);
        let p = Partitioning::Range {
            split_points: vec![b"h".to_vec(), b"t".to_vec()],
        };
        let shards = encode_shards_meta(3, &p);
        for i in 0..epochs.len() {
            for mask in (0..8).map(|b| 1u8 << b).chain([0xff]) {
                let mut bad = epochs.clone();
                bad[i] ^= mask;
                let err = EpochLog::decode(&bad).err();
                assert!(
                    err.as_ref().is_some_and(Error::is_corruption),
                    "EPOCHS byte {i} mask {mask:#x}: {err:?}"
                );
            }
        }
        for i in 0..shards.len() {
            for mask in (0..8).map(|b| 1u8 << b).chain([0xff]) {
                let mut bad = shards.clone();
                bad[i] ^= mask;
                let err = decode_shards_meta(&bad).err();
                assert!(
                    err.as_ref().is_some_and(Error::is_corruption),
                    "SHARDS byte {i} mask {mask:#x}: {err:?}"
                );
            }
        }
    }
}
