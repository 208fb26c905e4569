//! Range scans: merge across all sources, resolve visibility, mask deletes.

use std::sync::Arc;

use lsm_sstable::{EntryIter, MergeIter, Table, TableIter, TableReadOpts, VecEntryIter};
use lsm_types::{EntryKind, InternalEntry, InternalKey, Result, SeqNo, UserKey, Value};

use crate::version::Version;

/// Chains disjoint, key-ordered tables — a run, or the part of one a
/// compaction selected — into one source: from the first entry at or after
/// user key `start` (`None` = each table's first entry) up to the exclusive
/// user key `end`.
pub(crate) struct RunIter {
    tables: std::vec::IntoIter<Arc<Table>>,
    current: Option<TableIter>,
    start: Option<Vec<u8>>,
    end: Option<Vec<u8>>,
    ropts: TableReadOpts,
}

impl RunIter {
    pub(crate) fn new(
        tables: Vec<Arc<Table>>,
        start: Option<&[u8]>,
        end: Option<&[u8]>,
        ropts: TableReadOpts,
    ) -> Self {
        RunIter {
            tables: tables.into_iter(),
            current: None,
            start: start.map(<[u8]>::to_vec),
            end: end.map(<[u8]>::to_vec),
            ropts,
        }
    }
}

impl EntryIter for RunIter {
    fn next_entry(&mut self) -> Result<Option<InternalEntry>> {
        loop {
            if let Some(cur) = &mut self.current {
                match cur.next_entry()? {
                    Some(e)
                        if self
                            .end
                            .as_deref()
                            .is_some_and(|end| e.user_key().as_bytes() >= end) =>
                    {
                        // Tables are ordered: nothing after this is in range.
                        self.current = None;
                        self.tables = Vec::new().into_iter();
                        return Ok(None);
                    }
                    Some(e) => return Ok(Some(e)),
                    None => self.current = None,
                }
            }
            let Some(table) = self.tables.next() else {
                return Ok(None);
            };
            let from = self
                .start
                .as_deref()
                .map(|start| InternalKey::lookup(start, SeqNo::MAX));
            self.current = Some(table.iter(from, self.ropts));
        }
    }
}

/// Builds the merged source list for a scan over `version` plus memtable
/// snapshots (`mem_sources`, newest first); every table iterator the merge
/// opens reads under `ropts`.
pub(crate) fn build_scan_merge(
    mem_sources: Vec<Vec<InternalEntry>>,
    version: &Version,
    start: &[u8],
    end: Option<&[u8]>,
    ropts: TableReadOpts,
) -> MergeIter {
    let mut sources: Vec<Box<dyn EntryIter>> = Vec::new();
    for entries in mem_sources {
        sources.push(Box::new(VecEntryIter::new(entries)));
    }
    for run in version.runs_newest_first() {
        let tables = run.overlapping_tables(start, end);
        sources.push(Box::new(RunIter::new(tables, Some(start), end, ropts)));
    }
    MergeIter::new(sources)
}

/// Resolves a merged entry stream into visible `(key, value)` pairs:
/// applies the snapshot, keeps only the newest version per user key,
/// suppresses tombstones, and masks range-deleted keys.
pub(crate) struct VisibleIter {
    merge: MergeIter,
    snapshot: SeqNo,
    /// Range tombstones from every source with `seqno <= snapshot`.
    rts: Vec<(UserKey, UserKey, SeqNo)>,
    end: Option<Vec<u8>>,
    last_key: Option<UserKey>,
}

impl VisibleIter {
    pub(crate) fn new(
        merge: MergeIter,
        snapshot: SeqNo,
        mut rts: Vec<(UserKey, UserKey, SeqNo)>,
        end: Option<Vec<u8>>,
    ) -> Self {
        rts.retain(|(_, _, seqno)| *seqno <= snapshot);
        VisibleIter {
            merge,
            snapshot,
            rts,
            end,
            last_key: None,
        }
    }

    fn masked(&self, key: &UserKey, seqno: SeqNo) -> bool {
        self.rts.iter().any(|(start, end, rt_seqno)| {
            *rt_seqno > seqno && start <= key && key.as_bytes() < end.as_bytes()
        })
    }

    /// The next visible pair, or `None` at the end of the range.
    pub(crate) fn next_visible(&mut self) -> Result<Option<(UserKey, Value)>> {
        while let Some(e) = self.merge.next_entry()? {
            if let Some(end) = &self.end {
                if e.user_key().as_bytes() >= end.as_slice() {
                    return Ok(None);
                }
            }
            if e.seqno() > self.snapshot {
                continue; // invisible to this snapshot
            }
            if self.last_key.as_ref() == Some(e.user_key()) {
                continue; // older version of an already-resolved key
            }
            self.last_key = Some(e.user_key().clone());
            if e.kind() == EntryKind::RangeDelete {
                // The tombstone occupies the slot of its start key for
                // version resolution but is never surfaced. Older versions
                // of the start key are covered by it (they must be, since
                // they sort after it and have lower seqnos).
                continue;
            }
            if self.masked(e.user_key(), e.seqno()) {
                continue;
            }
            if e.is_tombstone() {
                continue;
            }
            // A row from a table is a pair of slices of its block: the
            // caller gets copies, so rows it keeps never pin their blocks.
            return Ok(Some((
                UserKey::copy_from(e.user_key().as_bytes()),
                Value::copy_from_slice(&e.value),
            )));
        }
        Ok(None)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::version::Run;
    use lsm_sstable::{TableBuilder, TableBuilderOptions};
    use lsm_storage::{Backend, MemBackend};

    fn make_table(backend: &Arc<MemBackend>, entries: Vec<InternalEntry>) -> Arc<Table> {
        let mut b = TableBuilder::new(TableBuilderOptions::default());
        let mut sorted = entries;
        sorted.sort_by(|a, b| a.key.cmp(&b.key));
        for e in &sorted {
            b.add(e).unwrap();
        }
        let (file, _) = b.finish(backend.as_ref()).unwrap();
        Table::open(backend.clone() as Arc<dyn Backend>, file, None).unwrap()
    }

    fn put(k: &str, v: &str, s: u64) -> InternalEntry {
        InternalEntry::put(k.as_bytes(), v.as_bytes().to_vec(), s, s)
    }

    #[test]
    fn run_iter_stops_at_end() {
        let backend = Arc::new(MemBackend::new());
        let t = make_table(
            &backend,
            (0..20)
                .map(|i| put(&format!("k{i:02}"), "v", i + 1))
                .collect(),
        );
        let mut it = RunIter::new(
            vec![t],
            Some(b"k05"),
            Some(b"k10"),
            TableReadOpts::default(),
        );
        let mut keys = Vec::new();
        while let Some(e) = it.next_entry().unwrap() {
            keys.push(String::from_utf8(e.user_key().as_bytes().to_vec()).unwrap());
        }
        assert_eq!(keys, vec!["k05", "k06", "k07", "k08", "k09"]);
    }

    #[test]
    fn visible_iter_resolves_versions_and_tombstones() {
        let backend = Arc::new(MemBackend::new());
        // older run: a=1, b=1, c=1
        let old = make_table(
            &backend,
            vec![put("a", "old", 1), put("b", "old", 2), put("c", "old", 3)],
        );
        // newer run: a=new, b deleted
        let new = make_table(
            &backend,
            vec![put("a", "new", 10), InternalEntry::delete(b"b", 11, 11)],
        );
        let version = Version {
            levels: vec![vec![Run::new(vec![new]), Run::new(vec![old])]],
        };
        let merge = build_scan_merge(vec![], &version, b"", None, TableReadOpts::default());
        let mut vis = VisibleIter::new(merge, SeqNo::MAX, vec![], None);
        let mut out = Vec::new();
        while let Some((k, v)) = vis.next_visible().unwrap() {
            out.push((
                String::from_utf8(k.as_bytes().to_vec()).unwrap(),
                String::from_utf8(v.to_vec()).unwrap(),
            ));
        }
        assert_eq!(
            out,
            vec![("a".into(), "new".into()), ("c".into(), "old".into())]
        );
    }

    #[test]
    fn visible_iter_respects_snapshot() {
        let backend = Arc::new(MemBackend::new());
        let t = make_table(
            &backend,
            vec![
                put("a", "v1", 1),
                put("a", "v2", 5),
                InternalEntry::delete(b"a", 9, 9),
            ],
        );
        let version = Version {
            levels: vec![vec![Run::new(vec![t])]],
        };
        let snap = |s: SeqNo| -> Vec<String> {
            let merge = build_scan_merge(vec![], &version, b"", None, TableReadOpts::default());
            let mut vis = VisibleIter::new(merge, s, vec![], None);
            let mut out = Vec::new();
            while let Some((_, v)) = vis.next_visible().unwrap() {
                out.push(String::from_utf8(v.to_vec()).unwrap());
            }
            out
        };
        assert_eq!(snap(SeqNo::MAX), Vec::<String>::new(), "deleted at head");
        assert_eq!(snap(8), vec!["v2"]);
        assert_eq!(snap(3), vec!["v1"]);
        assert!(snap(0).is_empty());
    }

    #[test]
    fn range_tombstone_masks_covered_keys() {
        let backend = Arc::new(MemBackend::new());
        let data = make_table(
            &backend,
            vec![put("a", "1", 1), put("m", "2", 2), put("z", "3", 3)],
        );
        let rt_table = make_table(
            &backend,
            vec![InternalEntry::range_delete(b"f", b"p", 10, 10)],
        );
        let version = Version {
            levels: vec![vec![Run::new(vec![rt_table]), Run::new(vec![data])]],
        };
        let rts = version
            .runs_newest_first()
            .flat_map(|r| r.range_tombstones.iter().cloned())
            .collect();
        let merge = build_scan_merge(vec![], &version, b"", None, TableReadOpts::default());
        let mut vis = VisibleIter::new(merge, SeqNo::MAX, rts, None);
        let mut keys = Vec::new();
        while let Some((k, _)) = vis.next_visible().unwrap() {
            keys.push(String::from_utf8(k.as_bytes().to_vec()).unwrap());
        }
        assert_eq!(keys, vec!["a", "z"], "m is range-deleted");
    }
}
