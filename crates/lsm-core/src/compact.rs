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

use std::collections::HashSet;
use std::sync::Arc;

use lsm_compaction::CompactionPlan;
use lsm_obs::{EventKind, ObsHandle};
use lsm_sstable::{EntryIter, MergeIter, Table, TableBuilder, TableIter};
use lsm_storage::{Backend, BlockCache};
use lsm_types::{EntryKind, Error, InternalEntry, Result, SeqNo, UserKey};

use crate::options::Options;
use crate::version::Version;

/// What a compaction produced.
pub(crate) struct CompactionOutcome {
    /// Output tables, key-ordered (may be empty if everything was garbage).
    pub new_tables: Vec<Arc<Table>>,
    /// Bytes of input tables consumed.
    pub bytes_read: u64,
    /// Bytes of output files written.
    pub bytes_written: u64,
    /// Entries dropped as garbage.
    pub dropped_entries: u64,
    /// Tombstones physically purged (bottommost only).
    pub tombstones_purged: u64,
}

/// Is there an active snapshot `s` with `low <= s < high`?
fn snapshot_separates(snapshots: &[SeqNo], low: SeqNo, high: SeqNo) -> bool {
    // snapshots is sorted ascending
    let idx = snapshots.partition_point(|&s| s < low);
    snapshots.get(idx).is_some_and(|&s| s < high)
}

/// Per-user-key version GC (versions arrive newest→oldest).
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

/// Streams the merge through GC into output tables.
struct OutputWriter<'a> {
    backend: &'a Arc<dyn Backend>,
    cache: Option<&'a Arc<BlockCache>>,
    opts: &'a Options,
    bits_per_key: f64,
    builder: Option<TableBuilder>,
    tables: Vec<Arc<Table>>,
    bytes_written: u64,
    last_user_key: Option<UserKey>,
    obs: &'a ObsHandle,
    /// Pin output tables' index/filter partitions in the cache (outputs
    /// destined for a hot level under a pinning cache policy).
    pin_aux: bool,
}

impl<'a> OutputWriter<'a> {
    fn push(&mut self, entry: &InternalEntry) -> Result<()> {
        // Split outputs at user-key boundaries once the target size is
        // reached, so tables within a run never overlap.
        let switch = self
            .builder
            .as_ref()
            .is_some_and(|b| b.data_bytes() >= self.opts.table_target_bytes)
            && self
                .last_user_key
                .as_ref()
                .is_some_and(|k| k != entry.user_key());
        if switch {
            self.finish_current()?;
        }
        let builder = self
            .builder
            .get_or_insert_with(|| TableBuilder::new(self.opts.table_options(self.bits_per_key)));
        builder.add(entry)?;
        self.last_user_key = Some(entry.user_key().clone());
        Ok(())
    }

    fn finish_current(&mut self) -> Result<()> {
        if let Some(builder) = self.builder.take() {
            if builder.is_empty() {
                return Ok(());
            }
            // Each output file is a child span of the running compaction:
            // write, open, and optional cache warm-up.
            let span = self.obs.span_begin(EventKind::FileWriteStart, None, 0, 0);
            let result = (|| -> Result<(u64, u64)> {
                let (file, _) = builder.finish(self.backend.as_ref())?;
                let len = self.backend.len(file)?;
                self.bytes_written += len;
                let table = Table::open_pinned(
                    Arc::clone(self.backend),
                    file,
                    self.cache.map(Arc::clone),
                    self.pin_aux,
                )?;
                if self.opts.warm_cache_after_compaction {
                    table.warm_cache()?;
                }
                self.tables.push(table);
                Ok((file, len))
            })();
            let (file, len) = *result.as_ref().unwrap_or(&(0, 0));
            self.obs
                .span_end(span, EventKind::FileWriteEnd, None, file, len);
            result?;
        }
        Ok(())
    }
}

/// Executes `plan` against `version`, producing new tables. The caller
/// installs the resulting version edit.
#[allow(clippy::too_many_arguments)] // one call site; a params struct would just rename the args
pub(crate) fn execute_plan(
    backend: &Arc<dyn Backend>,
    cache: Option<&Arc<BlockCache>>,
    version: &Version,
    plan: &CompactionPlan,
    opts: &Options,
    bits_per_key: f64,
    snapshots: &[SeqNo],
    mem_nonempty: bool,
    obs: &ObsHandle,
) -> Result<CompactionOutcome> {
    let src_ids: HashSet<u64> = plan.src_tables.iter().copied().collect();
    let dst_ids: HashSet<u64> = plan.dst_tables.iter().copied().collect();

    // Each selected input file gets a child read span under the compaction
    // span (the actual block reads stream lazily during the merge; the
    // span records which file and how many data bytes joined the merge).
    let note_input = |t: &Arc<Table>| {
        let span = obs.span_begin(
            EventKind::FileReadStart,
            None,
            t.file_id(),
            t.meta().data_bytes,
        );
        obs.span_end(
            span,
            EventKind::FileReadEnd,
            None,
            t.file_id(),
            t.meta().data_bytes,
        );
    };

    // Gather input tables, preserving recency: src level runs newest-first,
    // each run one merge source; dst tables one (oldest) source.
    let mut sources: Vec<Box<dyn EntryIter>> = Vec::new();
    let mut bytes_read = 0u64;
    let mut input_tables: Vec<Arc<Table>> = Vec::new();
    let src_level_runs = version
        .levels
        .get(plan.src_level)
        .ok_or_else(|| Error::InvalidArgument("plan src level out of range".into()))?;
    for run in src_level_runs {
        let selected: Vec<Arc<Table>> = run
            .tables
            .iter()
            .filter(|t| src_ids.contains(&t.file_id()))
            .cloned()
            .collect();
        if selected.is_empty() {
            continue;
        }
        for t in &selected {
            bytes_read += t.meta().data_bytes;
            note_input(t);
            input_tables.push(t.clone());
        }
        sources.push(Box::new(ChainedTables::new(selected)));
    }
    if !dst_ids.is_empty() {
        let dst_run = version
            .levels
            .get(plan.dst_level)
            .and_then(|l| l.first())
            .ok_or_else(|| Error::InvalidArgument("plan dst run missing".into()))?;
        let selected: Vec<Arc<Table>> = dst_run
            .tables
            .iter()
            .filter(|t| dst_ids.contains(&t.file_id()))
            .cloned()
            .collect();
        for t in &selected {
            bytes_read += t.meta().data_bytes;
            note_input(t);
            input_tables.push(t.clone());
        }
        sources.push(Box::new(ChainedTables::new(selected)));
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
    let input_rts: Vec<(UserKey, UserKey, SeqNo)> = input_tables
        .iter()
        .flat_map(|t| t.meta().range_tombstones.iter().cloned())
        .collect();
    let shadowed = |e: &InternalEntry| -> bool {
        input_rts.iter().any(|(start, end, rt_seqno)| {
            *rt_seqno > e.seqno()
                && start <= e.user_key()
                && e.user_key().as_bytes() < end.as_bytes()
                && !snapshot_separates(snapshots, e.seqno(), *rt_seqno)
        })
    };

    let mut merge = MergeIter::new(sources);
    let pin_aux = plan.dst_level <= 1 && cache.is_some_and(|c| c.config().pin_index_filter);
    let mut writer = OutputWriter {
        backend,
        cache,
        opts,
        bits_per_key,
        builder: None,
        tables: Vec::new(),
        bytes_written: 0,
        last_user_key: None,
        obs,
        pin_aux,
    };

    let mut dropped = 0u64;
    let mut purged = 0u64;
    let mut pending_key: Option<UserKey> = None;
    let mut pending: Vec<InternalEntry> = Vec::new();

    let flush_pending = |pending: &mut Vec<InternalEntry>,
                         writer: &mut OutputWriter<'_>,
                         dropped: &mut u64,
                         purged: &mut u64|
     -> Result<()> {
        let n_in = pending.len() as u64;
        let kept = gc_key_versions(std::mem::take(pending), snapshots, bottommost, purged);
        *dropped += n_in - kept.len() as u64;
        for e in &kept {
            writer.push(e)?;
        }
        Ok(())
    };

    while let Some(e) = merge.next_entry()? {
        if e.kind() == EntryKind::RangeDelete {
            // Range tombstones bypass per-key GC. They may be dropped only
            // when nothing they could still mask exists anywhere: this
            // compaction is bottommost, no snapshot predates the tombstone,
            // the memtables are empty, and no table outside this
            // compaction's inputs overlaps the deleted range (range
            // tombstones do not obey per-level recency under partial
            // compaction, so shallower levels must be checked too).
            if bottommost && !mem_nonempty && !snapshots.iter().any(|&s| s < e.seqno()) {
                let end = e
                    .range_delete_end()
                    .ok_or_else(|| Error::Corruption("range tombstone without end key".into()))?;
                let outside_overlap = version.all_tables().any(|t| {
                    !src_ids.contains(&t.file_id())
                        && !dst_ids.contains(&t.file_id())
                        && t.meta()
                            .key_range
                            .overlaps_query(e.user_key().as_bytes(), Some(end.as_bytes()))
                });
                if !outside_overlap {
                    dropped += 1;
                    purged += 1;
                    continue;
                }
            }
            // Flush any pending same-key versions first to preserve order.
            if pending_key.as_ref() == Some(e.user_key()) {
                // The RD sorts after newer point entries of its start key;
                // keep the group intact by emitting it inline.
                let mut group = std::mem::take(&mut pending);
                let n_in = group.len() as u64;
                group = gc_key_versions(group, snapshots, bottommost, &mut purged);
                dropped += n_in - group.len() as u64;
                for v in &group {
                    writer.push(v)?;
                }
                writer.push(&e)?;
                // Older point versions of the start key are shadowed by the
                // RD; let the shadow filter below handle them naturally.
                continue;
            }
            flush_pending(&mut pending, &mut writer, &mut dropped, &mut purged)?;
            pending_key = Some(e.user_key().clone());
            writer.push(&e)?;
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
            flush_pending(&mut pending, &mut writer, &mut dropped, &mut purged)?;
            pending_key = Some(e.user_key().clone());
        }
        pending.push(e);
    }
    flush_pending(&mut pending, &mut writer, &mut dropped, &mut purged)?;
    writer.finish_current()?;

    Ok(CompactionOutcome {
        new_tables: writer.tables,
        bytes_read,
        bytes_written: writer.bytes_written,
        dropped_entries: dropped,
        tombstones_purged: purged,
    })
}

/// Chains disjoint, key-ordered tables into one source.
struct ChainedTables {
    tables: Vec<Arc<Table>>,
    idx: usize,
    current: Option<TableIter>,
}

impl ChainedTables {
    fn new(mut tables: Vec<Arc<Table>>) -> Self {
        tables.sort_by(|a, b| a.meta().key_range.min.cmp(&b.meta().key_range.min));
        ChainedTables {
            tables,
            idx: 0,
            current: None,
        }
    }
}

impl EntryIter for ChainedTables {
    fn next_entry(&mut self) -> Result<Option<InternalEntry>> {
        loop {
            if let Some(cur) = &mut self.current {
                if let Some(e) = cur.next_entry()? {
                    return Ok(Some(e));
                }
                self.current = None;
            }
            if self.idx >= self.tables.len() {
                return Ok(None);
            }
            let t = &self.tables[self.idx];
            self.idx += 1;
            self.current = Some(t.scan());
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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

    fn put(k: &str, s: u64) -> InternalEntry {
        InternalEntry::put(k.as_bytes(), b"v".to_vec(), s, s)
    }

    #[test]
    fn gc_keeps_only_newest_without_snapshots() {
        let mut purged = 0;
        let kept = gc_key_versions(
            vec![put("k", 30), put("k", 20), put("k", 10)],
            &[],
            false,
            &mut purged,
        );
        assert_eq!(kept.len(), 1);
        assert_eq!(kept[0].seqno(), 30);
    }

    #[test]
    fn gc_preserves_snapshot_visible_versions() {
        let mut purged = 0;
        let kept = gc_key_versions(
            vec![put("k", 30), put("k", 20), put("k", 10)],
            &[15, 25],
            false,
            &mut purged,
        );
        // snapshot 25 sees seqno 20; snapshot 15 sees seqno 10
        let seqs: Vec<u64> = kept.iter().map(|e| e.seqno()).collect();
        assert_eq!(seqs, vec![30, 20, 10]);

        let kept = gc_key_versions(
            vec![put("k", 30), put("k", 20), put("k", 10)],
            &[25],
            false,
            &mut purged,
        );
        let seqs: Vec<u64> = kept.iter().map(|e| e.seqno()).collect();
        assert_eq!(seqs, vec![30, 20], "10 invisible to every snapshot");
    }

    #[test]
    fn gc_purges_tombstones_only_at_bottom() {
        let mut purged = 0;
        let versions = vec![InternalEntry::delete(b"k", 30, 30), put("k", 10)];
        let kept = gc_key_versions(versions.clone(), &[], false, &mut purged);
        assert_eq!(kept.len(), 1, "tombstone survives mid-tree");
        assert!(kept[0].is_tombstone());

        let mut purged = 0;
        let kept = gc_key_versions(versions, &[], true, &mut purged);
        assert!(kept.is_empty(), "tombstone + shadowed put vanish at bottom");
        assert_eq!(purged, 1);
    }

    #[test]
    fn gc_bottom_respects_snapshots() {
        let mut purged = 0;
        // snapshot 15 must keep seeing put(10) => tombstone must stay too.
        let kept = gc_key_versions(
            vec![InternalEntry::delete(b"k", 30, 30), put("k", 10)],
            &[15],
            true,
            &mut purged,
        );
        let kinds: Vec<EntryKind> = kept.iter().map(|e| e.kind()).collect();
        assert_eq!(kinds, vec![EntryKind::Delete, EntryKind::Put]);
    }

    #[test]
    fn single_delete_annihilates_its_put() {
        let mut purged = 0;
        let kept = gc_key_versions(
            vec![InternalEntry::single_delete(b"k", 20, 20), put("k", 10)],
            &[],
            false,
            &mut purged,
        );
        assert!(kept.is_empty(), "SD + Put cancel mid-tree");
        assert_eq!(purged, 1);

        // a snapshot between them blocks annihilation
        let mut purged = 0;
        let kept = gc_key_versions(
            vec![InternalEntry::single_delete(b"k", 20, 20), put("k", 10)],
            &[15],
            false,
            &mut purged,
        );
        assert_eq!(kept.len(), 2);
    }
}
