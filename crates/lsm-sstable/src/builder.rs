//! Writing tables: the flush and compaction output path.

use std::ops::Range;

use lsm_filters::{build_point_filter, PointFilterKind};
use lsm_storage::{Backend, FileId};
use lsm_types::encoding::{put_len_prefixed, put_varint, varint_len, Decoder};
use lsm_types::{EntryKind, Error, InternalEntry, InternalKey, KeyRange, Result, SeqNo, UserKey};

use crate::block::seal_block;
use crate::meta::{encode_footer, TableMeta};
use crate::BLOCK_SIZE;

/// Knobs for table construction.
#[derive(Clone, Debug)]
pub struct TableBuilderOptions {
    /// Target data-block size in bytes (a block closes once it reaches
    /// this); defaults to one page.
    pub block_size: usize,
    /// Which point filter to embed.
    pub filter_kind: PointFilterKind,
    /// Filter budget in bits per key.
    pub bits_per_key: f64,
    /// Data blocks per index/filter partition (RocksDB's partitioned
    /// index: the top-level index fences over partitions, each partition
    /// fences over this many blocks). With 4 KiB blocks the default keeps a
    /// partition at ~256 KiB of data — small enough to cache, large enough
    /// that the top-level index stays tiny.
    pub index_partition_blocks: usize,
}

impl Default for TableBuilderOptions {
    fn default() -> Self {
        TableBuilderOptions {
            block_size: BLOCK_SIZE,
            filter_kind: PointFilterKind::Bloom,
            bits_per_key: 10.0,
            index_partition_blocks: 64,
        }
    }
}

/// One fence pointer: the first internal key of a data block plus its
/// location.
#[derive(Clone, Debug)]
pub(crate) struct Fence {
    pub first_key: InternalKey,
    pub offset: u64,
    pub len: u64,
}

/// Serializes the index block from fences.
pub(crate) fn encode_index(fences: &[Fence]) -> Vec<u8> {
    let mut buf = Vec::with_capacity(fences.len() * 32);
    put_varint(&mut buf, fences.len() as u64);
    for f in fences {
        put_varint(&mut buf, f.offset);
        put_varint(&mut buf, f.len);
        put_len_prefixed(&mut buf, f.first_key.user_key.as_bytes());
        put_varint(&mut buf, f.first_key.seqno);
        buf.push(f.first_key.kind as u8);
    }
    buf
}

/// Parses the index block back into fences.
pub(crate) fn decode_index(data: &[u8]) -> Result<Vec<Fence>> {
    let mut dec = Decoder::new(data);
    let n = dec.varint()? as usize;
    let mut fences = Vec::with_capacity(n.min(1 << 20));
    for _ in 0..n {
        let offset = dec.varint()?;
        let len = dec.varint()?;
        let user_key = UserKey::copy_from(dec.len_prefixed()?);
        let seqno = dec.varint()?;
        let kind = EntryKind::from_u8(dec.u8()?)?;
        fences.push(Fence {
            first_key: InternalKey {
                user_key,
                seqno,
                kind,
            },
            offset,
            len,
        });
    }
    Ok(fences)
}

/// Builds one immutable table from entries supplied in ascending
/// internal-key order.
///
/// Entries are encoded straight into the file image, and everything `add`
/// needs to remember about earlier entries — the previous key for the
/// order check, the distinct user keys for the filters — is kept as byte
/// ranges of that image. Only what outlives the build is copied out: one
/// fence key per block, the table's smallest and largest key, and range
/// tombstones. An entry handed to `add` is never retained, so it may
/// borrow from an input block that is about to be dropped.
pub struct TableBuilder {
    opts: TableBuilderOptions,
    /// The file image: sealed blocks, then the open block's entries.
    file: Vec<u8>,
    /// Where the open block starts in `file`.
    block_start: usize,
    fences: Vec<Fence>,
    /// First key of the open block (`None` while it is empty).
    pending_first: Option<InternalKey>,
    /// The previous entry's internal key, its user key as a range of `file`.
    last_key: Option<(Range<usize>, SeqNo, EntryKind)>,
    // statistics
    entry_count: u64,
    tombstone_count: u64,
    range_tombstones: Vec<(UserKey, UserKey, SeqNo)>,
    min_key: Option<UserKey>,
    min_seqno: SeqNo,
    max_seqno: SeqNo,
    min_ts: u64,
    max_ts: u64,
    /// Each distinct user key once (consecutive versions share a filter
    /// entry), as a range of `file`.
    filter_keys: Vec<Range<usize>>,
    /// `filter_marks[b]` = number of filter keys accumulated once block `b`
    /// was sealed, so `finish` can slice `filter_keys` per partition. A key
    /// whose versions span blocks is attributed to the block where it first
    /// appeared; `Table::get_with` routes its filter probe to match.
    filter_marks: Vec<usize>,
}

impl TableBuilder {
    /// Creates a builder with the given options.
    pub fn new(opts: TableBuilderOptions) -> Self {
        Self::with_capacity(opts, 64 * 1024)
    }

    /// [`Self::new`] with room for a file of `file_bytes` from the start, so
    /// a caller that knows how much it is about to write spares the image
    /// its regrowth copies.
    pub fn with_capacity(opts: TableBuilderOptions, file_bytes: usize) -> Self {
        TableBuilder {
            opts,
            file: Vec::with_capacity(file_bytes),
            block_start: 0,
            fences: Vec::new(),
            pending_first: None,
            last_key: None,
            entry_count: 0,
            tombstone_count: 0,
            range_tombstones: Vec::new(),
            min_key: None,
            min_seqno: SeqNo::MAX,
            max_seqno: 0,
            min_ts: u64::MAX,
            max_ts: 0,
            filter_keys: Vec::new(),
            filter_marks: Vec::new(),
        }
    }

    /// Appends one entry. Entries must arrive in strictly ascending
    /// internal-key order.
    pub fn add(&mut self, entry: &InternalEntry) -> Result<()> {
        let user_key = entry.user_key().as_bytes();
        let mut new_user_key = true;
        if let Some((range, seqno, kind)) = &self.last_key {
            let last_user_key = &self.file[range.clone()];
            // `InternalKey`'s order: user key, then newest first.
            let by_user_key = last_user_key.cmp(user_key);
            let order = by_user_key
                .then_with(|| entry.seqno().cmp(seqno))
                .then_with(|| (entry.kind() as u8).cmp(&(*kind as u8)));
            if order.is_ge() {
                return Err(Error::InvalidArgument(format!(
                    "entries out of order: {:?} then {:?}",
                    InternalKey::new(last_user_key, *seqno, *kind),
                    entry.key
                )));
            }
            new_user_key = by_user_key.is_ne();
        }

        if self.pending_first.is_none() {
            self.pending_first = Some(InternalKey::new(user_key, entry.seqno(), entry.kind()));
        }
        let key_start = self.file.len() + varint_len(user_key.len() as u64);
        entry.encode_into(&mut self.file);
        let key_range = key_start..key_start + user_key.len();
        self.entry_count += 1;
        match entry.kind() {
            EntryKind::Delete | EntryKind::SingleDelete => self.tombstone_count += 1,
            EntryKind::RangeDelete => {
                self.range_tombstones.push((
                    UserKey::copy_from(user_key),
                    UserKey::copy_from(&entry.value),
                    entry.seqno(),
                ));
            }
            _ => {}
        }
        if self.min_key.is_none() {
            self.min_key = Some(UserKey::copy_from(user_key));
        }
        self.min_seqno = self.min_seqno.min(entry.seqno());
        self.max_seqno = self.max_seqno.max(entry.seqno());
        self.min_ts = self.min_ts.min(entry.ts);
        self.max_ts = self.max_ts.max(entry.ts);
        if new_user_key {
            self.filter_keys.push(key_range.clone());
        }
        self.last_key = Some((key_range, entry.seqno(), entry.kind()));

        if self.file.len() - self.block_start >= self.opts.block_size {
            self.seal_block();
        }
        Ok(())
    }

    /// Bytes of data blocks written so far (a proxy for output file size).
    pub fn data_bytes(&self) -> u64 {
        self.file.len() as u64
    }

    /// The user key of the entry added last, read back from the file image.
    pub fn last_user_key(&self) -> Option<&[u8]> {
        let (range, _, _) = self.last_key.as_ref()?;
        self.file.get(range.clone())
    }

    fn seal_block(&mut self) {
        // `pending_first` is set by the first `add` into the block, so a
        // non-empty block always carries one; an absent key would produce a
        // fence that cannot route reads, so skip sealing rather than panic.
        let Some(first_key) = self.pending_first.take() else {
            return;
        };
        seal_block(&mut self.file, self.block_start);
        self.fences.push(Fence {
            first_key,
            offset: self.block_start as u64,
            len: (self.file.len() - self.block_start) as u64,
        });
        self.filter_marks.push(self.filter_keys.len());
        self.block_start = self.file.len();
    }

    /// Seals the table and persists it to `backend`. Returns the file id
    /// and the decoded metadata. Fails on an empty table.
    pub fn finish(mut self, backend: &dyn Backend) -> Result<(FileId, TableMeta)> {
        let (Some(min_key), Some(max_key)) = (self.min_key.take(), self.last_user_key()) else {
            return Err(Error::InvalidArgument("cannot write an empty table".into()));
        };
        let max_key = UserKey::copy_from(max_key);
        self.seal_block();
        let data_bytes = self.file.len() as u64;

        // Partition the fence index: chunks of `index_partition_blocks`
        // fences become their own index blocks, and the top-level index
        // fences over the partitions.
        let part_blocks = self.opts.index_partition_blocks.max(1);
        let mut top_fences: Vec<Fence> = Vec::new();
        for chunk in self.fences.chunks(part_blocks) {
            let encoded = encode_index(chunk);
            top_fences.push(Fence {
                first_key: chunk[0].first_key.clone(),
                offset: self.file.len() as u64,
                len: encoded.len() as u64,
            });
            self.file.extend_from_slice(&encoded);
        }
        let index = encode_index(&top_fences);
        let index_offset = self.file.len() as u64;
        self.file.extend_from_slice(&index);

        // Filter partitions align 1:1 with index partitions: partition `j`
        // holds the filter keys first seen in its blocks.
        let filter_offset = self.file.len() as u64;
        let mut filter_partitions: Vec<(u64, u64)> = Vec::with_capacity(top_fences.len());
        let mut filter_len = 0u64;
        for (j, chunk) in self.fences.chunks(part_blocks).enumerate() {
            let first_block = j * part_blocks;
            let last_block = first_block + chunk.len() - 1;
            let key_start = if first_block == 0 {
                0
            } else {
                self.filter_marks[first_block - 1]
            };
            let key_end = self.filter_marks[last_block];
            let key_refs: Vec<&[u8]> = self.filter_keys[key_start..key_end]
                .iter()
                .map(|range| &self.file[range.clone()])
                .collect();
            let part_bytes =
                build_point_filter(self.opts.filter_kind, &key_refs, self.opts.bits_per_key)
                    .map(|f| f.to_bytes())
                    .unwrap_or_default();
            filter_partitions.push((self.file.len() as u64, part_bytes.len() as u64));
            filter_len += part_bytes.len() as u64;
            self.file.extend_from_slice(&part_bytes);
        }

        let meta = TableMeta {
            entry_count: self.entry_count,
            tombstone_count: self.tombstone_count,
            range_tombstone_count: self.range_tombstones.len() as u64,
            key_range: KeyRange {
                min: min_key,
                max: max_key,
            },
            min_seqno: self.min_seqno,
            max_seqno: self.max_seqno,
            min_ts: self.min_ts,
            max_ts: self.max_ts,
            data_bytes,
            index_offset,
            index_len: index.len() as u64,
            filter_offset,
            filter_len,
            filter_kind: self.opts.filter_kind.as_u8(),
            range_tombstones: self.range_tombstones,
            data_blocks: self.fences.len() as u64,
            filter_partitions,
        };
        let meta_bytes = meta.encode();
        let meta_offset = self.file.len() as u64;
        self.file.extend_from_slice(&meta_bytes);
        self.file
            .extend_from_slice(&encode_footer(meta_offset, meta_bytes.len() as u32));

        let file = backend.write_blob(&self.file)?;
        Ok((file, meta))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lsm_storage::MemBackend;

    fn entry(i: u64) -> InternalEntry {
        InternalEntry::put(format!("key{i:06}").into_bytes(), vec![b'v'; 20], i + 1, i)
    }

    #[test]
    fn builds_multi_block_table() {
        let backend = MemBackend::new();
        let mut b = TableBuilder::new(TableBuilderOptions::default());
        for i in 0..1000 {
            b.add(&entry(i)).unwrap();
        }
        let (file, meta) = b.finish(&backend).unwrap();
        assert_eq!(meta.entry_count, 1000);
        assert_eq!(meta.key_range.min.as_bytes(), b"key000000");
        assert_eq!(meta.key_range.max.as_bytes(), b"key000999");
        assert_eq!(meta.min_seqno, 1);
        assert_eq!(meta.max_seqno, 1000);
        assert!(meta.data_bytes > BLOCK_SIZE as u64, "should span blocks");
        assert!(backend.len(file).unwrap() > meta.data_bytes);
    }

    #[test]
    fn rejects_out_of_order() {
        let mut b = TableBuilder::new(TableBuilderOptions::default());
        b.add(&entry(5)).unwrap();
        assert!(b.add(&entry(3)).is_err());
        // equal internal keys also rejected
        let mut b = TableBuilder::new(TableBuilderOptions::default());
        b.add(&entry(5)).unwrap();
        assert!(b.add(&entry(5)).is_err());
    }

    #[test]
    fn rejects_empty_table() {
        let backend = MemBackend::new();
        let b = TableBuilder::new(TableBuilderOptions::default());
        assert!(b.finish(&backend).is_err());
    }

    #[test]
    fn counts_tombstones_and_collects_range_deletes() {
        let backend = MemBackend::new();
        let mut b = TableBuilder::new(TableBuilderOptions::default());
        b.add(&InternalEntry::put(b"a", b"x".to_vec(), 1, 0))
            .unwrap();
        b.add(&InternalEntry::delete(b"b", 2, 0)).unwrap();
        b.add(&InternalEntry::range_delete(b"c", b"f", 3, 0))
            .unwrap();
        b.add(&InternalEntry::single_delete(b"g", 4, 0)).unwrap();
        let (_, meta) = b.finish(&backend).unwrap();
        assert_eq!(meta.tombstone_count, 2);
        assert_eq!(meta.range_tombstone_count, 1);
        assert_eq!(meta.range_tombstones.len(), 1);
        assert_eq!(meta.range_tombstones[0].0.as_bytes(), b"c");
        assert_eq!(meta.range_tombstones[0].1.as_bytes(), b"f");
        assert!((meta.tombstone_density() - 0.75).abs() < 1e-9);
    }

    #[test]
    fn index_roundtrip() {
        let fences = vec![
            Fence {
                first_key: InternalKey::new(b"a", 5, EntryKind::Put),
                offset: 0,
                len: 100,
            },
            Fence {
                first_key: InternalKey::new(b"m", 9, EntryKind::Delete),
                offset: 100,
                len: 222,
            },
        ];
        let encoded = encode_index(&fences);
        let back = decode_index(&encoded).unwrap();
        assert_eq!(back.len(), 2);
        assert_eq!(back[0].first_key, fences[0].first_key);
        assert_eq!(back[1].offset, 100);
        assert_eq!(back[1].len, 222);
    }
}
