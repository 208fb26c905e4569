//! Executing compaction plans: merge, garbage-collect, rewrite.
//!
//! The garbage-collection rules are where LSM correctness lives:
//!
//! * A version may be dropped only if no active snapshot needs it (no
//!   snapshot falls between it and the next-newer kept version).
//! * Tombstones may be physically purged only at the **bottommost** level —
//!   anywhere else they must survive to mask older versions below
//!   (tutorial §2.1.2, §2.3.3).
//! * `SingleDelete` annihilates with the one older `Put` it meets, provided
//!   no snapshot separates them.
//! * Range tombstones shadow covered entries inside the merge and are
//!   carried through until the bottommost level.

use std::collections::{HashSet, VecDeque};
use std::sync::Arc;

use lsm_compaction::CompactionPlan;
use lsm_obs::{EventKind, ObsHandle};
use lsm_sstable::{EntryIter, MergeIter, Table, TableBuilder, TableReadOpts};
use lsm_storage::{Backend, BlockCache};
use lsm_types::{EntryKind, Error, InternalEntry, Result, SeqNo, UserKey};

use crate::options::Options;
use crate::scan::RunIter;
use crate::version::Version;

/// Is there an active snapshot `s` with `low <= s < high`?
fn snapshot_separates(snapshots: &[SeqNo], low: SeqNo, high: SeqNo) -> bool {
    // snapshots is sorted ascending
    let idx = snapshots.partition_point(|&s| s < low);
    snapshots.get(idx).is_some_and(|&s| s < high)
}

/// What a GC pass must know about the job it serves: flush and compaction
/// differ only in these.
pub(crate) struct GcRules<'a> {
    /// Seqnos of the active snapshots, ascending.
    pub snapshots: &'a [SeqNo],
    /// Nothing below the output can hold an older version of an input
    /// key, so tombstones that end a key's history mask nothing.
    pub bottommost: bool,
    /// Range tombstones among the inputs: each shadows the older entries it
    /// covers unless a snapshot separates the two.
    pub range_tombstones: Vec<(UserKey, UserKey, SeqNo)>,
    /// Whether a range tombstone may be dropped: nothing it could still
    /// mask exists anywhere outside the inputs.
    pub may_drop_range_tombstone: &'a (dyn Fn(&InternalEntry) -> bool + Sync),
}

/// The garbage collector, as a stream: merged entries in (pulled from
/// `input`, which answers `None` at the end — a closure, so a source need
/// not be a `Send` [`EntryIter`]), the entries that must survive out, in
/// the same order. It looks one entry ahead and holds back only what a
/// later entry of the same user key can still cancel — a `SingleDelete`
/// waiting for its `Put`, and at the bottommost level tombstones that may
/// turn out to end the key's history — so a key with a single version
/// passes straight through.
pub(crate) struct GcIter<'a, I> {
    input: I,
    rules: GcRules<'a>,
    /// User key of the version group being collected.
    group_key: Option<UserKey>,
    /// Seqno of the group's last kept version (`None` at its start).
    last_kept: Option<SeqNo>,
    /// A `SingleDelete` whose successor decides whether the pair cancels.
    held_single_delete: Option<InternalEntry>,
    /// Bottommost only: kept tombstones not yet followed by a kept version.
    held_tombstones: Vec<InternalEntry>,
    /// Survivors not yet handed out.
    ready: VecDeque<InternalEntry>,
    exhausted: bool,
    /// Entries dropped as garbage.
    pub(crate) dropped: u64,
    /// Tombstones among them (and `SingleDelete`/`Put` pairs cancelled).
    pub(crate) purged: u64,
}

impl<'a, I: FnMut() -> Result<Option<InternalEntry>>> GcIter<'a, I> {
    pub(crate) fn new(input: I, rules: GcRules<'a>) -> Self {
        GcIter {
            input,
            rules,
            group_key: None,
            last_kept: None,
            held_single_delete: None,
            held_tombstones: Vec::new(),
            ready: VecDeque::new(),
            exhausted: false,
            dropped: 0,
            purged: 0,
        }
    }

    fn shadowed(&self, e: &InternalEntry) -> bool {
        self.rules
            .range_tombstones
            .iter()
            .any(|(start, end, rt_seqno)| {
                *rt_seqno > e.seqno()
                    && start <= e.user_key()
                    && e.user_key().as_bytes() < end.as_bytes()
                    && !snapshot_separates(self.rules.snapshots, e.seqno(), *rt_seqno)
            })
    }

    /// Takes the next merged entry (versions of a key arrive newest first).
    fn accept(&mut self, e: InternalEntry) {
        if e.kind() == EntryKind::RangeDelete {
            // Range tombstones bypass per-key GC: dropped only when nothing
            // they could still mask exists, carried through otherwise. One
            // sorts after the newer point entries of its start key, so it
            // closes their group; older point versions of that key start a
            // group of their own (the shadow check handles those it covers).
            if (self.rules.may_drop_range_tombstone)(&e) {
                self.dropped += 1;
                self.purged += 1;
                return;
            }
            self.end_group();
            self.group_key = Some(e.user_key().clone());
            self.ready.push_back(e);
            return;
        }
        if self.shadowed(&e) {
            self.dropped += 1;
            if e.is_tombstone() {
                self.purged += 1;
            }
            return;
        }
        if self.group_key.as_ref() != Some(e.user_key()) {
            self.end_group();
            self.group_key = Some(e.user_key().clone());
        }
        // SingleDelete annihilation comes before visibility GC (which would
        // otherwise strand the SD by dropping its put): SD + immediately
        // older Put cancel when no snapshot separates them.
        if let Some(sd) = self.held_single_delete.take() {
            if e.kind() == EntryKind::Put
                && !snapshot_separates(self.rules.snapshots, e.seqno(), sd.seqno())
            {
                self.dropped += 2;
                self.purged += 1;
                return;
            }
            self.keep_if_visible(sd);
        }
        if e.kind() == EntryKind::SingleDelete {
            self.held_single_delete = Some(e);
        } else {
            self.keep_if_visible(e);
        }
    }

    /// Keeps `v` iff it is the group's newest version or some snapshot sees
    /// it and not the version kept before it.
    fn keep_if_visible(&mut self, v: InternalEntry) {
        if self
            .last_kept
            .is_some_and(|newer| !snapshot_separates(self.rules.snapshots, v.seqno(), newer))
        {
            self.dropped += 1;
            return;
        }
        self.last_kept = Some(v.seqno());
        if self.rules.bottommost && matches!(v.kind(), EntryKind::Delete | EntryKind::SingleDelete)
        {
            self.held_tombstones.push(v);
        } else {
            self.ready.extend(self.held_tombstones.drain(..));
            self.ready.push_back(v);
        }
    }

    fn end_group(&mut self) {
        if let Some(sd) = self.held_single_delete.take() {
            self.keep_if_visible(sd);
        }
        // Bottommost: tombstones at the old end of a key's history mask
        // nothing (there is nothing below), so they go.
        let trailing = self.held_tombstones.len() as u64;
        self.held_tombstones.clear();
        self.dropped += trailing;
        self.purged += trailing;
        self.last_kept = None;
    }

    /// The next survivor, or `None` at the end.
    pub(crate) fn next_entry(&mut self) -> Result<Option<InternalEntry>> {
        loop {
            if let Some(e) = self.ready.pop_front() {
                return Ok(Some(e));
            }
            if self.exhausted {
                return Ok(None);
            }
            match (self.input)()? {
                Some(e) => self.accept(e),
                None => {
                    self.exhausted = true;
                    self.end_group();
                }
            }
        }
    }
}

/// Where and how a job's output tables are written.
pub(crate) struct OutputWriter<'a> {
    pub backend: &'a Arc<dyn Backend>,
    pub cache: Option<&'a Arc<BlockCache>>,
    pub opts: &'a Options,
    pub obs: &'a ObsHandle,
    /// Filter budget of the output tables.
    pub bits_per_key: f64,
    /// Start a new table at the next user-key boundary once the current
    /// one holds this many bytes, so tables within a run never overlap.
    pub target_bytes: u64,
    /// Pin output tables' index/filter partitions in the cache (outputs
    /// destined for a hot level under a pinning cache policy).
    pub pin_aux: bool,
    /// Load each finished table's blocks into the cache.
    pub warm_cache: bool,
}

/// What [`OutputWriter::write`] produced.
#[derive(Default)]
pub(crate) struct WriteOutcome {
    /// Output tables, key-ordered (empty if everything was garbage).
    pub tables: Vec<Arc<Table>>,
    /// Bytes of output files written.
    pub bytes_written: u64,
    /// Entries dropped as garbage.
    pub dropped_entries: u64,
    /// Tombstones physically purged.
    pub tombstones_purged: u64,
}

impl OutputWriter<'_> {
    /// The one table-writing path, driven by flush, compaction and bulk
    /// load alike: streams `input` through GC under `rules` into tables
    /// that split at `target_bytes`. Entries are only borrowed on their way
    /// from `input` to the table's file image, which `expected_bytes` (an
    /// upper estimate of the data about to be written, all tables together)
    /// sizes once instead of by doubling.
    pub(crate) fn write(
        &self,
        input: impl FnMut() -> Result<Option<InternalEntry>>,
        rules: GcRules<'_>,
        expected_bytes: u64,
    ) -> Result<WriteOutcome> {
        let mut gc = GcIter::new(input, rules);
        let mut out = WriteOutcome::default();
        let mut builder: Option<TableBuilder> = None;
        while let Some(entry) = gc.next_entry()? {
            let full = builder.take_if(|b| {
                b.data_bytes() >= self.target_bytes
                    && b.last_user_key() != Some(entry.user_key().as_bytes())
            });
            if let Some(full) = full {
                self.finish_table(full, &mut out)?;
            }
            builder
                .get_or_insert_with(|| {
                    // Data plus ~3 % of index and filter, and the block that
                    // overshoots the target before the table is closed.
                    let data = expected_bytes.min(self.target_bytes) as usize;
                    TableBuilder::with_capacity(
                        self.opts.table_options(self.bits_per_key),
                        data + data / 16 + 2 * self.opts.block_size,
                    )
                })
                .add(&entry)?;
        }
        if let Some(b) = builder {
            self.finish_table(b, &mut out)?;
        }
        out.dropped_entries = gc.dropped;
        out.tombstones_purged = gc.purged;
        Ok(out)
    }

    /// Persists and opens one output table. Each file is a child span of
    /// the running job: write, open, and optional cache warm-up.
    fn finish_table(&self, builder: TableBuilder, out: &mut WriteOutcome) -> Result<()> {
        let span = self.obs.span_begin(EventKind::FileWriteStart, None, 0, 0);
        let result = (|| -> Result<(u64, u64)> {
            let (file, _) = builder.finish(self.backend.as_ref())?;
            let len = self.backend.len(file)?;
            out.bytes_written += len;
            let table = Table::open_pinned(
                Arc::clone(self.backend),
                file,
                self.cache.map(Arc::clone),
                self.pin_aux,
            )?;
            if self.warm_cache {
                table.warm_cache()?;
            }
            out.tables.push(table);
            Ok((file, len))
        })();
        let (file, len) = *result.as_ref().unwrap_or(&(0, 0));
        self.obs
            .span_end(span, EventKind::FileWriteEnd, None, file, len);
        result.map(|_| ())
    }
}

/// Executes `plan` against `version`, producing new tables through
/// `writer`. Returns the bytes of input consumed and what was written; the
/// caller installs the resulting version edit.
pub(crate) fn execute_plan(
    version: &Version,
    plan: &CompactionPlan,
    snapshots: &[SeqNo],
    mem_nonempty: bool,
    writer: &OutputWriter<'_>,
) -> Result<(u64, WriteOutcome)> {
    let src_ids: HashSet<u64> = plan.src_tables.iter().copied().collect();
    let dst_ids: HashSet<u64> = plan.dst_tables.iter().copied().collect();

    // Each selected input file gets a child read span under the compaction
    // span (the actual block reads stream lazily during the merge; the
    // span records which file and how many data bytes joined the merge).
    let note_input = |t: &Arc<Table>| {
        let (obs, file, bytes) = (writer.obs, t.file_id(), t.meta().data_bytes);
        let span = obs.span_begin(EventKind::FileReadStart, None, file, bytes);
        obs.span_end(span, EventKind::FileReadEnd, None, file, bytes);
    };

    // Gather input tables, preserving recency: src level runs newest-first,
    // each run one merge source; dst tables one (oldest) source. An input
    // is read once and then deleted: caching its blocks would only evict
    // ones a reader wants (blocks already cached are still served).
    let read_once = TableReadOpts {
        fill_cache: false,
        ..TableReadOpts::default()
    };
    let src_runs = version
        .levels
        .get(plan.src_level)
        .ok_or_else(|| Error::InvalidArgument("plan src level out of range".into()))?;
    let dst_run = version.levels.get(plan.dst_level).and_then(|l| l.first());
    if dst_run.is_none() && !dst_ids.is_empty() {
        return Err(Error::InvalidArgument("plan dst run missing".into()));
    }
    let mut sources: Vec<Box<dyn EntryIter>> = Vec::new();
    let mut bytes_read = 0u64;
    let mut input_tables: Vec<Arc<Table>> = Vec::new();
    let runs = src_runs.iter().map(|r| (r, &src_ids));
    for (run, ids) in runs.chain(dst_run.map(|r| (r, &dst_ids))) {
        let selected: Vec<Arc<Table>> = run
            .tables
            .iter()
            .filter(|t| ids.contains(&t.file_id()))
            .cloned()
            .collect();
        if selected.is_empty() {
            continue;
        }
        for t in &selected {
            bytes_read += t.meta().data_bytes;
            note_input(t);
        }
        input_tables.extend(selected.iter().cloned());
        sources.push(Box::new(RunIter::new(selected, None, None, read_once)));
    }

    // Bottommost: no data anywhere below the destination overlaps the
    // inputs, so tombstones can be purged. At the destination level itself,
    // only *overlapping* non-input tables matter (disjoint leveled siblings
    // don't block purging; this is what allows in-place rewrites of
    // bottom-level files to purge expired tombstones).
    let last_occupied = version
        .levels
        .iter()
        .rposition(|l| !l.is_empty())
        .unwrap_or(0);
    let input_range =
        lsm_types::KeyRange::union_all(input_tables.iter().map(|t| &t.meta().key_range));
    let dst_level_overlapping_extras = version
        .levels
        .get(plan.dst_level)
        .map(|runs| {
            runs.iter()
                .flat_map(|r| r.tables.iter())
                .filter(|t| {
                    !dst_ids.contains(&t.file_id())
                        && !src_ids.contains(&t.file_id())
                        && input_range
                            .as_ref()
                            .is_some_and(|r| t.meta().key_range.overlaps(r))
                })
                .count()
        })
        .unwrap_or(0);
    let bottommost = plan.dst_level > last_occupied
        || (plan.dst_level == last_occupied && dst_level_overlapping_extras == 0);

    // Range tombstones across all inputs shadow covered older entries.
    let range_tombstones: Vec<(UserKey, UserKey, SeqNo)> = input_tables
        .iter()
        .flat_map(|t| t.meta().range_tombstones.iter().cloned())
        .collect();
    // A range tombstone may be dropped only when nothing it could still
    // mask exists anywhere: this compaction is bottommost, no snapshot
    // predates the tombstone, the memtables are empty, and no table outside
    // this compaction's inputs overlaps the deleted range (range tombstones
    // do not obey per-level recency under partial compaction, so shallower
    // levels must be checked too).
    let may_drop_range_tombstone = |e: &InternalEntry| {
        bottommost
            && !mem_nonempty
            && !snapshots.iter().any(|&s| s < e.seqno())
            && !version.all_tables().any(|t| {
                !src_ids.contains(&t.file_id())
                    && !dst_ids.contains(&t.file_id())
                    && t.meta()
                        .key_range
                        .overlaps_query(e.user_key().as_bytes(), Some(&e.value))
            })
    };

    let mut merged = MergeIter::new(sources);
    let written = writer.write(
        || merged.next_entry(),
        GcRules {
            snapshots,
            bottommost,
            range_tombstones,
            may_drop_range_tombstone: &may_drop_range_tombstone,
        },
        bytes_read,
    )?;
    Ok((bytes_read, written))
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn snapshot_separation() {
        let snaps = [5, 10, 20];
        assert!(snapshot_separates(&snaps, 5, 6));
        assert!(snapshot_separates(&snaps, 3, 6));
        assert!(!snapshot_separates(&snaps, 6, 10));
        assert!(snapshot_separates(&snaps, 6, 11));
        assert!(!snapshot_separates(&snaps, 21, 100));
        assert!(!snapshot_separates(&[], 0, 100));
    }

    /// The reference GC the streaming adapter replaced, kept to test
    /// against: per-user-key version GC over a complete version list
    /// (versions arrive newest→oldest).
    fn gc_key_versions(
        versions: Vec<InternalEntry>,
        snapshots: &[SeqNo],
        bottommost: bool,
        purged: &mut u64,
    ) -> Vec<InternalEntry> {
        // SingleDelete annihilation first (before visibility GC, which would
        // otherwise strand the SD by dropping its put): SD + immediately-older
        // Put cancel when no snapshot separates them.
        let mut versions = versions;
        let mut i = 0;
        while i + 1 < versions.len() {
            if versions[i].kind() == EntryKind::SingleDelete
                && versions[i + 1].kind() == EntryKind::Put
                && !snapshot_separates(snapshots, versions[i + 1].seqno(), versions[i].seqno())
            {
                versions.drain(i..=i + 1);
                *purged += 1;
            } else {
                i += 1;
            }
        }
        let mut kept: Vec<InternalEntry> = Vec::with_capacity(versions.len().min(4));
        for v in versions {
            match kept.last() {
                None => kept.push(v),
                Some(prev) => {
                    // keep iff some snapshot sees `v` and not `prev`
                    if snapshot_separates(snapshots, v.seqno(), prev.seqno()) {
                        kept.push(v);
                    }
                }
            }
        }
        // Bottommost: trailing tombstones mask nothing (there is nothing
        // below), so peel them off the old end.
        if bottommost {
            while kept
                .last()
                .is_some_and(|e| matches!(e.kind(), EntryKind::Delete | EntryKind::SingleDelete))
            {
                kept.pop();
                *purged += 1;
            }
        }
        kept
    }

    /// The merge loop the adapter replaced, around [`gc_key_versions`]:
    /// buffers each user key's versions, lets range tombstones split the
    /// groups, drops shadowed entries. Returns `(kept, dropped, purged)`.
    fn reference_gc(
        merged: Vec<InternalEntry>,
        snapshots: &[SeqNo],
        bottommost: bool,
        may_drop_range_tombstone: &dyn Fn(&InternalEntry) -> bool,
    ) -> (Vec<InternalEntry>, u64, u64) {
        let input_rts: Vec<(UserKey, UserKey, SeqNo)> = merged
            .iter()
            .filter_map(|e| Some((e.user_key().clone(), e.range_delete_end()?, e.seqno())))
            .collect();
        let shadowed = |e: &InternalEntry| -> bool {
            input_rts.iter().any(|(start, end, rt_seqno)| {
                *rt_seqno > e.seqno()
                    && start <= e.user_key()
                    && e.user_key().as_bytes() < end.as_bytes()
                    && !snapshot_separates(snapshots, e.seqno(), *rt_seqno)
            })
        };
        let (mut out, mut dropped, mut purged) = (Vec::new(), 0u64, 0u64);
        let mut pending_key: Option<UserKey> = None;
        let mut pending: Vec<InternalEntry> = Vec::new();
        let flush_pending = |pending: &mut Vec<InternalEntry>,
                             out: &mut Vec<InternalEntry>,
                             dropped: &mut u64,
                             purged: &mut u64| {
            let n_in = pending.len() as u64;
            let kept = gc_key_versions(std::mem::take(pending), snapshots, bottommost, purged);
            *dropped += n_in - kept.len() as u64;
            out.extend(kept);
        };
        for e in merged {
            if e.kind() == EntryKind::RangeDelete {
                if may_drop_range_tombstone(&e) {
                    dropped += 1;
                    purged += 1;
                    continue;
                }
                flush_pending(&mut pending, &mut out, &mut dropped, &mut purged);
                pending_key = Some(e.user_key().clone());
                out.push(e);
                continue;
            }
            if shadowed(&e) {
                dropped += 1;
                if e.is_tombstone() {
                    purged += 1;
                }
                continue;
            }
            if pending_key.as_ref() != Some(e.user_key()) {
                flush_pending(&mut pending, &mut out, &mut dropped, &mut purged);
                pending_key = Some(e.user_key().clone());
            }
            pending.push(e);
        }
        flush_pending(&mut pending, &mut out, &mut dropped, &mut purged);
        (out, dropped, purged)
    }

    /// Runs the streaming adapter over `merged`; `(kept, dropped, purged)`.
    fn stream_gc(
        merged: Vec<InternalEntry>,
        snapshots: &[SeqNo],
        bottommost: bool,
        may_drop_range_tombstone: &(dyn Fn(&InternalEntry) -> bool + Sync),
    ) -> (Vec<InternalEntry>, u64, u64) {
        let range_tombstones = merged
            .iter()
            .filter_map(|e| Some((e.user_key().clone(), e.range_delete_end()?, e.seqno())))
            .collect();
        let mut merged = merged.into_iter();
        let mut gc = GcIter::new(
            || Ok(merged.next()),
            GcRules {
                snapshots,
                bottommost,
                range_tombstones,
                may_drop_range_tombstone,
            },
        );
        let mut kept = Vec::new();
        while let Some(e) = gc.next_entry().unwrap() {
            kept.push(e);
        }
        (kept, gc.dropped, gc.purged)
    }

    /// One key's versions through the adapter; `(kept, purged)`.
    fn gc(
        versions: Vec<InternalEntry>,
        snapshots: &[SeqNo],
        bottommost: bool,
    ) -> (Vec<InternalEntry>, u64) {
        let n_in = versions.len() as u64;
        let (kept, dropped, purged) = stream_gc(versions, snapshots, bottommost, &|_| false);
        assert_eq!(dropped, n_in - kept.len() as u64);
        (kept, purged)
    }

    fn put(k: &str, s: u64) -> InternalEntry {
        InternalEntry::put(k.as_bytes(), b"v".to_vec(), s, s)
    }

    #[test]
    fn gc_keeps_only_newest_without_snapshots() {
        let (kept, _) = gc(vec![put("k", 30), put("k", 20), put("k", 10)], &[], false);
        assert_eq!(kept.len(), 1);
        assert_eq!(kept[0].seqno(), 30);
    }

    #[test]
    fn gc_preserves_snapshot_visible_versions() {
        let versions = vec![put("k", 30), put("k", 20), put("k", 10)];
        let (kept, _) = gc(versions.clone(), &[15, 25], false);
        // snapshot 25 sees seqno 20; snapshot 15 sees seqno 10
        let seqs: Vec<u64> = kept.iter().map(|e| e.seqno()).collect();
        assert_eq!(seqs, vec![30, 20, 10]);

        let (kept, _) = gc(versions, &[25], false);
        let seqs: Vec<u64> = kept.iter().map(|e| e.seqno()).collect();
        assert_eq!(seqs, vec![30, 20], "10 invisible to every snapshot");
    }

    #[test]
    fn gc_purges_tombstones_only_at_bottom() {
        let versions = vec![InternalEntry::delete(b"k", 30, 30), put("k", 10)];
        let (kept, _) = gc(versions.clone(), &[], false);
        assert_eq!(kept.len(), 1, "tombstone survives mid-tree");
        assert!(kept[0].is_tombstone());

        let (kept, purged) = gc(versions, &[], true);
        assert!(kept.is_empty(), "tombstone + shadowed put vanish at bottom");
        assert_eq!(purged, 1);
    }

    #[test]
    fn gc_bottom_respects_snapshots() {
        // snapshot 15 must keep seeing put(10) => tombstone must stay too.
        let versions = vec![InternalEntry::delete(b"k", 30, 30), put("k", 10)];
        let (kept, _) = gc(versions, &[15], true);
        let kinds: Vec<EntryKind> = kept.iter().map(|e| e.kind()).collect();
        assert_eq!(kinds, vec![EntryKind::Delete, EntryKind::Put]);
    }

    #[test]
    fn single_delete_annihilates_its_put() {
        let versions = vec![InternalEntry::single_delete(b"k", 20, 20), put("k", 10)];
        let (kept, purged) = gc(versions.clone(), &[], false);
        assert!(kept.is_empty(), "SD + Put cancel mid-tree");
        assert_eq!(purged, 1);

        // a snapshot between them blocks annihilation
        let (kept, _) = gc(versions, &[15], false);
        assert_eq!(kept.len(), 2);
    }

    #[test]
    fn lone_versions_pass_through_unbuffered() {
        // One version per key, nothing to cancel: every entry comes out of
        // the very `next_entry` call that pulled it in.
        let pulls = std::cell::Cell::new(0usize);
        let entries: Vec<InternalEntry> = (0..10).map(|i| put(&format!("k{i}"), i + 1)).collect();
        let mut input = entries.clone().into_iter();
        let mut gc = GcIter::new(
            || {
                pulls.set(pulls.get() + 1);
                Ok(input.next())
            },
            GcRules {
                snapshots: &[],
                bottommost: false,
                range_tombstones: Vec::new(),
                may_drop_range_tombstone: &|_| false,
            },
        );
        for (i, expected) in entries.iter().enumerate() {
            assert_eq!(gc.next_entry().unwrap().as_ref(), Some(expected));
            assert_eq!(pulls.get(), i + 1);
        }
        assert!(gc.next_entry().unwrap().is_none());
        assert_eq!((gc.dropped, gc.purged), (0, 0));
    }

    fn arb_kind() -> impl Strategy<Value = EntryKind> {
        prop_oneof![
            4 => Just(EntryKind::Put),
            2 => Just(EntryKind::Delete),
            2 => Just(EntryKind::SingleDelete),
            1 => Just(EntryKind::RangeDelete),
            1 => Just(EntryKind::ValuePtr),
        ]
    }

    /// A merged stream: a few user keys, each with up to eight versions of
    /// any kind at distinct seqnos, in internal-key order.
    fn arb_merged() -> impl Strategy<Value = Vec<InternalEntry>> {
        prop::collection::vec((0u8..6, 1u64..40, arb_kind(), 1u8..4), 0..40).prop_map(|raw| {
            let mut entries: Vec<InternalEntry> = raw
                .into_iter()
                .map(|(key, seqno, kind, span)| InternalEntry {
                    key: lsm_types::InternalKey::new(vec![b'a' + key], seqno, kind),
                    value: match kind {
                        EntryKind::RangeDelete => vec![b'a' + key + span].into(),
                        EntryKind::Put | EntryKind::ValuePtr => b"v".to_vec().into(),
                        _ => bytes::Bytes::new(),
                    },
                    ts: seqno,
                })
                .collect();
            entries.sort_by(|a, b| a.key.cmp(&b.key));
            // Seqnos are unique per write: one entry per (key, seqno).
            entries.dedup_by(|b, a| a.user_key() == b.user_key() && a.seqno() == b.seqno());
            entries
        })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(2000))]

        #[test]
        fn streaming_gc_equals_the_buffering_reference(
            merged in arb_merged(),
            snapshots in prop::collection::btree_map(0u64..45, Just(()), 0..5),
            bottommost in any::<bool>(),
        ) {
            let snapshots: Vec<SeqNo> = snapshots.into_keys().collect();
            // Range tombstones drop as in `execute_plan`, minus the checks
            // against tables outside the inputs.
            let may_drop = |e: &InternalEntry| {
                bottommost && !snapshots.iter().any(|&s| s < e.seqno())
            };
            let expected = reference_gc(merged.clone(), &snapshots, bottommost, &may_drop);
            let got = stream_gc(merged, &snapshots, bottommost, &may_drop);
            prop_assert_eq!(got, expected);
        }

        #[test]
        fn streaming_gc_equals_gc_key_versions_on_one_key(
            seqnos in prop::collection::btree_map(1u64..60, arb_kind(), 0..12),
            snapshots in prop::collection::btree_map(0u64..65, Just(()), 0..6),
            bottommost in any::<bool>(),
        ) {
            let snapshots: Vec<SeqNo> = snapshots.into_keys().collect();
            // Newest first; range tombstones never reach per-key GC.
            let versions: Vec<InternalEntry> = seqnos
                .into_iter()
                .rev()
                .filter(|(_, kind)| *kind != EntryKind::RangeDelete)
                .map(|(seqno, kind)| InternalEntry {
                    key: lsm_types::InternalKey::new(b"k", seqno, kind),
                    value: bytes::Bytes::new(),
                    ts: seqno,
                })
                .collect();
            let mut purged = 0;
            let expected = gc_key_versions(versions.clone(), &snapshots, bottommost, &mut purged);
            let (got, got_purged) = gc(versions, &snapshots, bottommost);
            prop_assert_eq!(got, expected);
            prop_assert_eq!(got_purged, purged);
        }
    }
}
