//! Versions: immutable snapshots of the tree structure.
//!
//! Readers grab an `Arc<Version>` and never block; flush and compaction
//! build a new version from the current one plus a [`VersionEdit`] and
//! install it atomically. This is the classic copy-on-write manifest
//! arrangement (RocksDB's `SuperVersion`).

use std::collections::HashSet;
use std::sync::Arc;

use lsm_compaction::{LevelDesc, RunDesc, TableDesc, TreeDesc};
use lsm_sstable::{ReadCtx, Table};
use lsm_types::{Error, InternalEntry, Result, SeqNo, UserKey};

/// One sorted run: tables in ascending, non-overlapping key order.
///
/// The run caches the union of its tables' range tombstones so the read
/// path can mask deleted ranges without touching table data.
#[derive(Clone, Default)]
pub struct Run {
    /// Tables in ascending key order.
    pub tables: Vec<Arc<Table>>,
    /// Aggregated range tombstones `(start, end_exclusive, seqno)`.
    pub range_tombstones: Vec<(UserKey, UserKey, SeqNo)>,
}

impl Run {
    /// Builds a run from key-sorted, non-overlapping tables.
    pub fn new(tables: Vec<Arc<Table>>) -> Self {
        let range_tombstones = tables
            .iter()
            .flat_map(|t| t.meta().range_tombstones.iter().cloned())
            .collect();
        Run {
            tables,
            range_tombstones,
        }
    }

    /// Total bytes across the run's tables (data + auxiliary blocks).
    pub fn size_bytes(&self) -> u64 {
        self.tables
            .iter()
            .map(|t| t.meta().data_bytes + t.meta().index_len + t.meta().filter_len)
            .sum()
    }

    /// Total entries across the run's tables.
    pub fn entry_count(&self) -> u64 {
        self.tables.iter().map(|t| t.meta().entry_count).sum()
    }

    /// The newest version of `key` visible at `snapshot` within this run.
    pub fn get(
        &self,
        key: &[u8],
        snapshot: SeqNo,
        ctx: &mut ReadCtx<'_>,
    ) -> Result<Option<InternalEntry>> {
        // Tables are key-ordered and disjoint: binary search for the one
        // table whose range can contain the key.
        let idx = self
            .tables
            .partition_point(|t| t.meta().key_range.max.as_bytes() < key);
        match self.tables.get(idx) {
            Some(t) if t.meta().key_range.contains(key) => t.get_with(key, snapshot, ctx),
            _ => Ok(None),
        }
    }

    /// The highest range-tombstone seqno (≤ `snapshot`) covering `key`.
    pub fn max_rt_covering(&self, key: &[u8], snapshot: SeqNo) -> SeqNo {
        self.range_tombstones
            .iter()
            .filter(|(start, end, seqno)| {
                *seqno <= snapshot && start.as_bytes() <= key && key < end.as_bytes()
            })
            .map(|(_, _, seqno)| *seqno)
            .max()
            .unwrap_or(0)
    }

    /// Tables whose key range intersects `[start, end)`.
    pub fn overlapping_tables(&self, start: &[u8], end: Option<&[u8]>) -> Vec<Arc<Table>> {
        self.tables
            .iter()
            .filter(|t| t.meta().key_range.overlaps_query(start, end))
            .cloned()
            .collect()
    }
}

impl std::fmt::Debug for Run {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "Run({} tables, {} B)",
            self.tables.len(),
            self.size_bytes()
        )
    }
}

/// An immutable snapshot of the tree: `levels[i]` holds level *i*'s runs,
/// newest first.
#[derive(Clone, Default, Debug)]
pub struct Version {
    /// Levels, shallow to deep; each level's runs are newest-first.
    pub levels: Vec<Vec<Run>>,
}

impl Version {
    /// All runs in recency order: level 0's runs (newest first), then each
    /// deeper level's.
    pub fn runs_newest_first(&self) -> impl Iterator<Item = &Run> {
        self.levels.iter().flat_map(|l| l.iter())
    }

    /// Total bytes across the tree.
    pub fn total_bytes(&self) -> u64 {
        self.levels
            .iter()
            .flat_map(|l| l.iter())
            .map(|r| r.size_bytes())
            .sum()
    }

    /// Total entries across the tree.
    pub fn total_entries(&self) -> u64 {
        self.levels
            .iter()
            .flat_map(|l| l.iter())
            .map(|r| r.entry_count())
            .sum()
    }

    /// Per-level entry counts (input to Monkey's filter allocation).
    pub fn entries_per_level(&self) -> Vec<u64> {
        self.levels
            .iter()
            .map(|l| l.iter().map(|r| r.entry_count()).sum())
            .collect()
    }

    /// Number of sorted runs a point lookup may probe.
    pub fn run_count(&self) -> usize {
        self.levels.iter().map(|l| l.len()).sum()
    }

    /// Every table in the version.
    pub fn all_tables(&self) -> impl Iterator<Item = &Arc<Table>> {
        self.levels
            .iter()
            .flat_map(|l| l.iter())
            .flat_map(|r| r.tables.iter())
    }

    /// The structural invariants every installed version keeps: each run's
    /// tables are key-sorted and disjoint, and no table sits in two runs
    /// (or twice in one). A breach is [`Error::Corruption`] naming the
    /// first bad spot: an install built from a stale plan, or a manifest
    /// that lists a table twice.
    pub(crate) fn check(&self) -> Result<()> {
        let mut seen = HashSet::new();
        for (level, runs) in self.levels.iter().enumerate() {
            for (r, run) in runs.iter().enumerate() {
                for pair in run.tables.windows(2) {
                    let (a, b) = (pair[0].meta(), pair[1].meta());
                    if a.key_range.max >= b.key_range.min {
                        return Err(Error::Corruption(format!(
                            "level {level} run {r}: tables {} and {} overlap or are out of order",
                            pair[0].file_id(),
                            pair[1].file_id()
                        )));
                    }
                }
                if let Some(t) = run.tables.iter().find(|t| !seen.insert(t.file_id())) {
                    return Err(Error::Corruption(format!(
                        "level {level} run {r}: table {} appears twice in the version",
                        t.file_id()
                    )));
                }
            }
        }
        Ok(())
    }

    /// The planner's view of this version.
    pub fn describe(&self) -> TreeDesc {
        TreeDesc {
            levels: self
                .levels
                .iter()
                .map(|level| LevelDesc {
                    runs: level
                        .iter()
                        .map(|run| RunDesc {
                            tables: run
                                .tables
                                .iter()
                                .map(|t| {
                                    let m = t.meta();
                                    // The planner sees ranges extended to
                                    // cover range-tombstone ends, so that
                                    // overlap-based file selection keeps a
                                    // tombstone together with the files it
                                    // masks.
                                    let mut range = m.key_range.clone();
                                    for (_, end, _) in &m.range_tombstones {
                                        if *end > range.max {
                                            range.max = end.clone();
                                        }
                                    }
                                    TableDesc {
                                        id: t.file_id(),
                                        size_bytes: m.data_bytes + m.index_len + m.filter_len,
                                        entry_count: m.entry_count,
                                        tombstone_count: m.tombstone_count
                                            + m.range_tombstone_count,
                                        range_tombstone_count: m.range_tombstone_count,
                                        key_range: range,
                                        min_ts: m.min_ts,
                                        max_ts: m.max_ts,
                                    }
                                })
                                .collect(),
                        })
                        .collect(),
                })
                .collect(),
        }
    }
}

/// A delta applied to a version under the commit lock.
#[derive(Default)]
pub struct VersionEdit {
    /// Table file ids to remove (wherever they live).
    pub remove: HashSet<u64>,
    /// Runs to prepend: `(level, run)` — the new run is newest at its level.
    pub add_runs: Vec<(usize, Run)>,
    /// Tables to splice into the single run of a leveled level:
    /// `(level, tables)` (used by compactions into leveled destinations).
    pub merge_into_run: Option<(usize, Vec<Arc<Table>>)>,
}

impl VersionEdit {
    /// Applies the edit to `base`, producing the next version. Debug
    /// builds also check that every removed table is in `base` and that
    /// the result passes [`Version::check`], so a bad install fails as
    /// [`Error::Corruption`] where it happens instead of as a wrong read
    /// later.
    pub fn apply(&self, base: &Version) -> Result<Version> {
        let next = self.build(base);
        if cfg!(debug_assertions) {
            let present: HashSet<u64> = base.all_tables().map(|t| t.file_id()).collect();
            if let Some(id) = self.remove.iter().find(|id| !present.contains(id)) {
                return Err(Error::Corruption(format!(
                    "version edit removes table {id}, which the base version lacks"
                )));
            }
            next.check()?;
        }
        Ok(next)
    }

    fn build(&self, base: &Version) -> Version {
        let mut levels: Vec<Vec<Run>> = base
            .levels
            .iter()
            .map(|level| {
                level
                    .iter()
                    .filter_map(|run| {
                        if self.remove.is_empty()
                            || run
                                .tables
                                .iter()
                                .all(|t| !self.remove.contains(&t.file_id()))
                        {
                            // fast path: run untouched
                            if run.tables.is_empty() {
                                None
                            } else {
                                Some(run.clone())
                            }
                        } else {
                            let kept: Vec<Arc<Table>> = run
                                .tables
                                .iter()
                                .filter(|t| !self.remove.contains(&t.file_id()))
                                .cloned()
                                .collect();
                            (!kept.is_empty()).then(|| Run::new(kept))
                        }
                    })
                    .collect()
            })
            .collect();

        if let Some((level, tables)) = &self.merge_into_run {
            while levels.len() <= *level {
                levels.push(Vec::new());
            }
            if levels[*level].is_empty() {
                levels[*level].push(Run::default());
            }
            // Leveled destination: exactly one run; splice sorted by min key.
            let run = &levels[*level][0];
            let mut merged: Vec<Arc<Table>> = run.tables.clone();
            merged.extend(tables.iter().cloned());
            merged.sort_by(|a, b| a.meta().key_range.min.cmp(&b.meta().key_range.min));
            levels[*level][0] = Run::new(merged);
        }

        for (level, run) in &self.add_runs {
            while levels.len() <= *level {
                levels.push(Vec::new());
            }
            levels[*level].insert(0, run.clone());
        }

        // Trim empty trailing levels but keep at least one.
        while levels.len() > 1 && levels.last().is_some_and(|l| l.is_empty()) {
            levels.pop();
        }
        if levels.is_empty() {
            levels.push(Vec::new());
        }
        Version { levels }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lsm_sstable::{TableBuilder, TableBuilderOptions};
    use lsm_storage::{Backend, MemBackend};

    fn make_table(backend: &Arc<MemBackend>, keys: &[(&str, u64)]) -> Arc<Table> {
        let mut b = TableBuilder::new(TableBuilderOptions::default());
        for (k, seq) in keys {
            b.add(&InternalEntry::put(k.as_bytes(), b"v".to_vec(), *seq, *seq))
                .unwrap();
        }
        let (file, _) = b.finish(backend.as_ref()).unwrap();
        Table::open(backend.clone() as Arc<dyn Backend>, file, None).unwrap()
    }

    #[test]
    fn run_get_binary_searches_tables() {
        let get =
            |run: &Run, key: &[u8]| run.get(key, SeqNo::MAX, &mut ReadCtx::default()).unwrap();
        let backend = Arc::new(MemBackend::new());
        let run = Run::new(vec![
            make_table(&backend, &[("a", 1), ("c", 2)]),
            make_table(&backend, &[("f", 3), ("h", 4)]),
            make_table(&backend, &[("m", 5), ("z", 6)]),
        ]);
        assert_eq!(get(&run, b"f").unwrap().seqno(), 3);
        assert!(get(&run, b"d").is_none(), "gap between tables");
        assert!(get(&run, b"zz").is_none());
        assert_eq!(get(&run, b"z").unwrap().seqno(), 6);
    }

    #[test]
    fn run_aggregates_range_tombstones() {
        let backend = Arc::new(MemBackend::new());
        let mut b = TableBuilder::new(TableBuilderOptions::default());
        b.add(&InternalEntry::put(b"a", b"v".to_vec(), 1, 0))
            .unwrap();
        b.add(&InternalEntry::range_delete(b"c", b"x", 9, 0))
            .unwrap();
        let (file, _) = b.finish(backend.as_ref()).unwrap();
        let t = Table::open(backend.clone() as Arc<dyn Backend>, file, None).unwrap();
        let run = Run::new(vec![t]);
        assert_eq!(run.max_rt_covering(b"m", SeqNo::MAX), 9);
        assert_eq!(run.max_rt_covering(b"m", 5), 0, "snapshot below rt");
        assert_eq!(run.max_rt_covering(b"b", SeqNo::MAX), 0);
        assert_eq!(run.max_rt_covering(b"x", SeqNo::MAX), 0, "end exclusive");
    }

    #[test]
    fn edit_removes_and_adds() {
        let backend = Arc::new(MemBackend::new());
        let t1 = make_table(&backend, &[("a", 1)]);
        let t2 = make_table(&backend, &[("m", 2)]);
        let t1_id = t1.file_id();
        let base = Version {
            levels: vec![vec![Run::new(vec![t1]), Run::new(vec![t2])]],
        };
        assert_eq!(base.run_count(), 2);

        let t3 = make_table(&backend, &[("a", 3), ("m", 4)]);
        let mut edit = VersionEdit::default();
        edit.remove.insert(t1_id);
        edit.add_runs.push((1, Run::new(vec![t3])));
        let next = edit.apply(&base).unwrap();
        assert_eq!(next.levels[0].len(), 1, "t1's run removed");
        assert_eq!(next.levels[1].len(), 1);
        assert_eq!(next.total_entries(), 3);
    }

    #[test]
    fn edit_merge_into_run_keeps_key_order() {
        let backend = Arc::new(MemBackend::new());
        let t_low = make_table(&backend, &[("a", 1), ("c", 1)]);
        let t_high = make_table(&backend, &[("t", 2), ("z", 2)]);
        let base = Version {
            levels: vec![vec![], vec![Run::new(vec![t_low.clone(), t_high.clone()])]],
        };
        let t_mid = make_table(&backend, &[("g", 3), ("k", 3)]);
        let edit = VersionEdit {
            remove: HashSet::new(),
            add_runs: vec![],
            merge_into_run: Some((1, vec![t_mid])),
        };
        let next = edit.apply(&base).unwrap();
        let mins: Vec<&[u8]> = next.levels[1][0]
            .tables
            .iter()
            .map(|t| t.meta().key_range.min.as_bytes())
            .collect();
        assert_eq!(
            mins,
            vec![b"a".as_slice(), b"g".as_slice(), b"t".as_slice()]
        );
    }

    #[test]
    fn new_runs_are_newest() {
        let backend = Arc::new(MemBackend::new());
        let old = make_table(&backend, &[("k", 1)]);
        let new = make_table(&backend, &[("k", 2)]);
        let base = Version {
            levels: vec![vec![Run::new(vec![old])]],
        };
        let edit = VersionEdit {
            add_runs: vec![(0, Run::new(vec![new]))],
            ..Default::default()
        };
        let next = edit.apply(&base).unwrap();
        // run 0 must be the new one
        let seqnos: Vec<SeqNo> = next.levels[0]
            .iter()
            .map(|run| {
                let e = run.get(b"k", SeqNo::MAX, &mut ReadCtx::default());
                e.unwrap().unwrap().seqno()
            })
            .collect();
        assert_eq!(seqnos, vec![2, 1]);
    }

    /// The scheduler race class: an edit that splices a table into a
    /// leveled run it overlaps, or removes a table the base lacks, fails
    /// at install instead of producing a version that reads wrong (the
    /// install checks run in debug builds).
    #[test]
    #[cfg(debug_assertions)]
    fn bad_installs_fail_at_apply() {
        let backend = Arc::new(MemBackend::new());
        let base = Version {
            levels: vec![
                vec![],
                vec![Run::new(vec![make_table(&backend, &[("a", 1), ("m", 1)])])],
            ],
        };
        let overlapping = VersionEdit {
            merge_into_run: Some((1, vec![make_table(&backend, &[("k", 2), ("z", 2)])])),
            ..Default::default()
        };
        let err = overlapping.apply(&base).unwrap_err();
        assert!(err.is_corruption(), "{err}");

        let stale = VersionEdit {
            remove: [9999].into_iter().collect(),
            ..Default::default()
        };
        assert!(stale.apply(&base).unwrap_err().is_corruption());

        let t = make_table(&backend, &[("q", 3)]);
        let twice = Version {
            levels: vec![vec![Run::new(vec![t.clone()]), Run::new(vec![t])]],
        };
        assert!(twice.check().unwrap_err().is_corruption());
    }

    #[test]
    fn trailing_empty_levels_trimmed() {
        let base = Version {
            levels: vec![Vec::new(), Vec::new(), Vec::new()],
        };
        let next = VersionEdit::default().apply(&base).unwrap();
        assert_eq!(next.levels.len(), 1);
    }
}
