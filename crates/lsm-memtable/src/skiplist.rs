//! A hand-built skiplist and the memtable on top of it.
//!
//! The skiplist is the canonical LSM write buffer (LevelDB, RocksDB,
//! Cassandra all default to one) because it keeps entries sorted at insert
//! time — flushing is a linear walk — while supporting `O(log n)` point
//! access. This implementation is arena-based (nodes live in a `Vec`,
//! links are indices) so it needs no `unsafe`; the memtable wraps it in a
//! reader-writer lock.

use std::sync::Arc;

use lsm_sync::{ranks, OrderedMutex, OrderedRwLock};
use lsm_types::{InternalEntry, InternalKey, SeqNo};

use crate::{MemCursor, MemTable, MemTableKind};

const MAX_HEIGHT: usize = 12;
/// Branching factor 4: grow a level with probability 1/4, like LevelDB.
const BRANCH: u64 = 4;

struct Node<K, V> {
    /// `None` only for the head sentinel.
    entry: Option<(K, V)>,
    /// `next[h]` = index of the next node at height `h`; `usize::MAX` = nil.
    next: [u32; MAX_HEIGHT],
}

const NIL: u32 = u32::MAX;

/// A deterministic, arena-backed skiplist map.
///
/// Keys must be unique per [`SkipList::insert`]; inserting an existing key
/// replaces its value. Iteration is in ascending key order.
pub struct SkipList<K, V> {
    nodes: Vec<Node<K, V>>,
    height: usize,
    len: usize,
    rng: u64,
}

impl<K: Ord, V> SkipList<K, V> {
    /// Creates an empty list with a fixed RNG seed (heights, and therefore
    /// layout, are deterministic for a given insertion sequence).
    pub fn new() -> Self {
        SkipList {
            nodes: vec![Node {
                entry: None,
                next: [NIL; MAX_HEIGHT],
            }],
            height: 1,
            len: 0,
            rng: 0x853c_49e6_748f_ea9b,
        }
    }

    /// Number of entries.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the list is empty.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    fn random_height(&mut self) -> usize {
        // xorshift64*
        let mut h = 1;
        loop {
            self.rng ^= self.rng >> 12;
            self.rng ^= self.rng << 25;
            self.rng ^= self.rng >> 27;
            let r = self.rng.wrapping_mul(0x2545_f491_4f6c_dd1d);
            if h < MAX_HEIGHT && r.is_multiple_of(BRANCH) {
                h += 1;
            } else {
                return h;
            }
        }
    }

    #[inline]
    fn key_of(&self, idx: u32) -> &K {
        &self.nodes[idx as usize]
            .entry
            .as_ref()
            .expect("non-head node has an entry")
            .0
    }

    /// Finds, per level, the last node whose key is `< key`.
    fn find_predecessors(&self, key: &K) -> [u32; MAX_HEIGHT] {
        let mut preds = [0u32; MAX_HEIGHT];
        let mut cur = 0u32; // head
        for level in (0..self.height).rev() {
            loop {
                let next = self.nodes[cur as usize].next[level];
                if next != NIL && self.key_of(next) < key {
                    cur = next;
                } else {
                    break;
                }
            }
            preds[level] = cur;
        }
        preds
    }

    /// Inserts `key -> value`, replacing the previous value if the key
    /// exists. Returns `true` if the key was new.
    pub fn insert(&mut self, key: K, value: V) -> bool {
        let preds = self.find_predecessors(&key);
        let at_bottom = self.nodes[preds[0] as usize].next[0];
        if at_bottom != NIL && self.key_of(at_bottom) == &key {
            self.nodes[at_bottom as usize]
                .entry
                .as_mut()
                .expect("non-head")
                .1 = value;
            return false;
        }
        let h = self.random_height();
        if h > self.height {
            self.height = h;
        }
        let idx = self.nodes.len() as u32;
        let mut node = Node {
            entry: Some((key, value)),
            next: [NIL; MAX_HEIGHT],
        };
        for (level, (slot, &pred)) in node.next.iter_mut().zip(preds.iter()).enumerate().take(h) {
            // Levels above the previous height hang off the head sentinel
            // (preds[level] is 0 there, which is exactly the head).
            *slot = self.nodes[pred as usize].next[level];
        }
        self.nodes.push(node);
        for (level, &pred) in preds.iter().enumerate().take(h) {
            self.nodes[pred as usize].next[level] = idx;
        }
        self.len += 1;
        true
    }

    /// Returns the value stored for `key`, if any.
    pub fn get(&self, key: &K) -> Option<&V> {
        let idx = self.seek_index(key)?;
        let (k, v) = self.nodes[idx as usize].entry.as_ref().expect("non-head");
        (k == key).then_some(v)
    }

    /// Index of the first node with key `>= key`.
    fn seek_index(&self, key: &K) -> Option<u32> {
        let preds = self.find_predecessors(key);
        let idx = self.nodes[preds[0] as usize].next[0];
        (idx != NIL).then_some(idx)
    }

    /// The position of the first entry with key `>= key`, for [`Self::at`].
    /// Positions are node indices: nodes never move and links only grow,
    /// so a position stays valid across later inserts.
    fn position_of(&self, key: &K) -> u32 {
        self.seek_index(key).unwrap_or(NIL)
    }

    /// The entry at `pos` and the position after it (`None` past the end).
    fn at(&self, pos: u32) -> Option<(&K, &V, u32)> {
        let node = self.nodes.get(pos as usize)?;
        let (k, v) = node.entry.as_ref()?;
        Some((k, v, node.next[0]))
    }

    /// Iterates all entries in ascending key order.
    pub fn iter(&self) -> SkipListIter<'_, K, V> {
        SkipListIter {
            list: self,
            cur: self.nodes[0].next[0],
        }
    }

    /// Iterates entries with key `>= key` in ascending order.
    pub fn iter_from(&self, key: &K) -> SkipListIter<'_, K, V> {
        SkipListIter {
            list: self,
            cur: self.seek_index(key).unwrap_or(NIL),
        }
    }
}

impl<K: Ord, V> Default for SkipList<K, V> {
    fn default() -> Self {
        Self::new()
    }
}

/// Forward iterator over a [`SkipList`].
pub struct SkipListIter<'a, K, V> {
    list: &'a SkipList<K, V>,
    cur: u32,
}

impl<'a, K, V> Iterator for SkipListIter<'a, K, V> {
    type Item = (&'a K, &'a V);

    fn next(&mut self) -> Option<Self::Item> {
        if self.cur == NIL {
            return None;
        }
        let node = &self.list.nodes[self.cur as usize];
        self.cur = node.next[0];
        let (k, v) = node.entry.as_ref().expect("non-head");
        Some((k, v))
    }
}

/// The classic skiplist memtable.
pub struct SkipListMemTable {
    list: OrderedRwLock<SkipList<InternalKey, (lsm_types::Value, u64)>>,
    size: OrderedMutex<usize>,
}

impl SkipListMemTable {
    /// Creates an empty memtable.
    pub fn new() -> Self {
        SkipListMemTable {
            list: OrderedRwLock::new(ranks::MEMTABLE_INDEX, SkipList::new()),
            size: OrderedMutex::new(ranks::MEMTABLE_SIZE, 0),
        }
    }
}

impl Default for SkipListMemTable {
    fn default() -> Self {
        Self::new()
    }
}

fn rebuild(key: &InternalKey, value: &(lsm_types::Value, u64)) -> InternalEntry {
    InternalEntry {
        key: key.clone(),
        value: value.0.clone(),
        ts: value.1,
    }
}

impl MemTable for SkipListMemTable {
    fn insert(&self, entry: InternalEntry) {
        let sz = entry.approximate_size();
        let mut list = self.list.write();
        list.insert(entry.key, (entry.value, entry.ts));
        *self.size.lock() += sz;
    }

    fn get(&self, key: &[u8], snapshot: SeqNo) -> Option<InternalEntry> {
        let list = self.list.read();
        // The lookup key sorts at-or-before every visible version of `key`;
        // the first entry at/after it with the same user key is the answer.
        let probe = InternalKey::lookup(key, snapshot);
        let (k, v) = list.iter_from(&probe).next()?;
        (k.user_key.as_bytes() == key).then(|| rebuild(k, v))
    }

    fn approximate_size(&self) -> usize {
        *self.size.lock()
    }

    fn len(&self) -> usize {
        self.list.read().len()
    }

    fn sorted_entries(&self) -> Vec<InternalEntry> {
        let list = self.list.read();
        list.iter().map(|(k, v)| rebuild(k, v)).collect()
    }

    fn range_entries(&self, start: &[u8], end: Option<&[u8]>) -> Vec<InternalEntry> {
        let list = self.list.read();
        let probe = InternalKey::lookup(start, SeqNo::MAX);
        list.iter_from(&probe)
            .take_while(|(k, _)| end.is_none_or(|e| k.user_key.as_bytes() < e))
            .map(|(k, v)| rebuild(k, v))
            .collect()
    }

    fn cursor(self: Arc<Self>, start: &[u8], end: Option<&[u8]>) -> MemCursor {
        let pos = self
            .list
            .read()
            .position_of(&InternalKey::lookup(start, SeqNo::MAX));
        Box::new(SkipListCursor {
            table: self,
            pos,
            end: end.map(<[u8]>::to_vec),
        })
    }

    fn kind(&self) -> MemTableKind {
        MemTableKind::SkipList
    }
}

/// [`SkipListMemTable`]'s cursor: a position in the list, re-read under the
/// read lock one step at a time, so a scan never holds writers off for
/// longer than one entry's copy. An entry inserted ahead of the cursor
/// while it is open is met in order; one inserted behind it is not. Either
/// way it is newer than any snapshot taken before the cursor opened.
struct SkipListCursor {
    table: Arc<SkipListMemTable>,
    /// The next node to yield, `NIL` once exhausted.
    pos: u32,
    end: Option<Vec<u8>>,
}

impl Iterator for SkipListCursor {
    type Item = InternalEntry;

    fn next(&mut self) -> Option<InternalEntry> {
        let list = self.table.list.read();
        let (k, v, next) = list.at(self.pos)?;
        if self
            .end
            .as_deref()
            .is_some_and(|end| k.user_key.as_bytes() >= end)
        {
            self.pos = NIL;
            return None;
        }
        self.pos = next;
        Some(rebuild(k, v))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn skiplist_sorted_insertion_order_independent() {
        let mut a = SkipList::new();
        let mut b = SkipList::new();
        for i in 0..100 {
            a.insert(i, i * 2);
        }
        for i in (0..100).rev() {
            b.insert(i, i * 2);
        }
        let av: Vec<_> = a.iter().map(|(k, v)| (*k, *v)).collect();
        let bv: Vec<_> = b.iter().map(|(k, v)| (*k, *v)).collect();
        assert_eq!(av, bv);
        assert_eq!(av.len(), 100);
        assert!(av.windows(2).all(|w| w[0].0 < w[1].0));
    }

    #[test]
    fn skiplist_get_and_replace() {
        let mut l = SkipList::new();
        assert!(l.insert("b", 1));
        assert!(l.insert("a", 2));
        assert!(!l.insert("b", 3), "replacing returns false");
        assert_eq!(l.get(&"b"), Some(&3));
        assert_eq!(l.get(&"a"), Some(&2));
        assert_eq!(l.get(&"c"), None);
        assert_eq!(l.len(), 2);
    }

    #[test]
    fn skiplist_iter_from_seeks_correctly() {
        let mut l = SkipList::new();
        for i in (0..100).step_by(10) {
            l.insert(i, ());
        }
        let keys: Vec<_> = l.iter_from(&35).map(|(k, _)| *k).collect();
        assert_eq!(keys, vec![40, 50, 60, 70, 80, 90]);
        let keys: Vec<_> = l.iter_from(&40).map(|(k, _)| *k).collect();
        assert_eq!(keys[0], 40, "seek to exact key is inclusive");
        assert!(l.iter_from(&1000).next().is_none());
    }

    #[test]
    fn skiplist_large_random() {
        let mut l = SkipList::new();
        let mut expect = std::collections::BTreeMap::new();
        let mut x = 42u64;
        for _ in 0..5000 {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            let k = x % 1000;
            l.insert(k, x);
            expect.insert(k, x);
        }
        assert_eq!(l.len(), expect.len());
        let got: Vec<_> = l.iter().map(|(k, v)| (*k, *v)).collect();
        let want: Vec<_> = expect.iter().map(|(k, v)| (*k, *v)).collect();
        assert_eq!(got, want);
    }

    #[test]
    fn cursor_stays_sorted_while_entries_are_inserted() {
        let key = |i: u64| format!("k{i:05}").into_bytes();
        let mt = Arc::new(SkipListMemTable::new());
        for i in (0..2_000u64).step_by(2) {
            mt.insert(InternalEntry::put(key(i), b"old".to_vec(), i + 1, 0));
        }
        let at_open = mt.range_entries(&key(100), Some(&key(1_900)));
        let mut cursor = Arc::clone(&mt).cursor(&key(100), Some(&key(1_900)));
        let mut seen = Vec::new();
        // Interleave steps with inserts of odd keys (between and around
        // the cursor) and newer versions of even keys.
        for step in 0..4_000u64 {
            if step % 3 == 0 {
                let i = (step * 7919) % 2_000;
                mt.insert(InternalEntry::put(
                    key(i),
                    b"new".to_vec(),
                    10_000 + step,
                    0,
                ));
            }
            match cursor.next() {
                Some(e) => seen.push(e),
                None => break,
            }
        }
        assert!(
            seen.windows(2).all(|w| w[0].key < w[1].key),
            "strictly sorted, no duplicates"
        );
        assert!(seen
            .iter()
            .all(|e| (&key(100)[..]..&key(1_900)[..]).contains(&e.user_key().as_bytes())));
        let mut missing = at_open.iter().filter(|e| !seen.contains(e));
        assert!(
            missing.next().is_none(),
            "every entry present at open is yielded"
        );
        assert!(
            seen.len() > at_open.len(),
            "entries inserted ahead of the cursor appear"
        );
    }

    #[test]
    fn memtable_versions_ordered_newest_first() {
        let mt = SkipListMemTable::new();
        for seq in 1..=5u64 {
            mt.insert(InternalEntry::put(b"k", vec![seq as u8], seq, seq));
        }
        let got = mt.get(b"k", SeqNo::MAX).unwrap();
        assert_eq!(got.seqno(), 5);
        let got = mt.get(b"k", 2).unwrap();
        assert_eq!(got.seqno(), 2);
        let entries = mt.sorted_entries();
        let seqs: Vec<_> = entries.iter().map(|e| e.seqno()).collect();
        assert_eq!(seqs, vec![5, 4, 3, 2, 1]);
    }
}
