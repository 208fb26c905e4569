//! Manifest: a serializable description of the engine's durable state.
//!
//! The manifest captures what recovery needs: the tree shape (which table
//! files form which runs at which levels), the sequence-number and logical
//! clock high-water marks, and the live WAL segments. The engine emits a
//! fresh manifest blob after every structural change; embedders persist it
//! wherever they like (`Db::open_dir` keeps it in a `MANIFEST` file).

use lsm_storage::FileId;
use lsm_types::encoding::{put_u64, put_varint, Decoder};
use lsm_types::{checksum, Error, Result, SeqNo};

/// Magic prefix of a manifest blob.
const MANIFEST_MAGIC: u64 = 0x4c53_4d4d_414e_4901;

/// The durable state description.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Manifest {
    /// Next sequence number to assign.
    pub next_seqno: SeqNo,
    /// Next logical clock tick.
    pub next_ts: u64,
    /// `levels[i]` = level *i*'s runs (newest first), each a list of table
    /// file ids in key order.
    pub levels: Vec<Vec<Vec<FileId>>>,
    /// Live WAL segments, oldest first (frozen memtables then active).
    pub wal_segments: Vec<FileId>,
}

impl Manifest {
    /// Every file id the manifest references: all table files plus the
    /// live WAL segments. Any backend file outside this set (and not
    /// otherwise claimed, e.g. a value-log segment) is an orphan that
    /// recovery may delete.
    pub fn references(&self) -> impl Iterator<Item = FileId> + '_ {
        self.levels
            .iter()
            .flatten()
            .flatten()
            .copied()
            .chain(self.wal_segments.iter().copied())
    }

    /// Serializes the manifest (checksummed).
    pub fn encode(&self) -> Vec<u8> {
        let mut buf = Vec::with_capacity(128);
        put_u64(&mut buf, MANIFEST_MAGIC);
        put_varint(&mut buf, self.next_seqno);
        put_varint(&mut buf, self.next_ts);
        put_varint(&mut buf, self.levels.len() as u64);
        for level in &self.levels {
            put_varint(&mut buf, level.len() as u64);
            for run in level {
                put_varint(&mut buf, run.len() as u64);
                for id in run {
                    put_varint(&mut buf, *id);
                }
            }
        }
        put_varint(&mut buf, self.wal_segments.len() as u64);
        for id in &self.wal_segments {
            put_varint(&mut buf, *id);
        }
        checksum::seal(&mut buf, 0);
        buf
    }

    /// Decodes and validates a manifest blob.
    pub fn decode(data: &[u8]) -> Result<Self> {
        let mut dec = Decoder::new(checksum::open(data)?);
        if dec.u64()? != MANIFEST_MAGIC {
            return Err(Error::Corruption("bad manifest magic".into()));
        }
        let next_seqno = dec.varint()?;
        let next_ts = dec.varint()?;
        let n_levels = dec.varint()? as usize;
        let mut levels = Vec::with_capacity(n_levels.min(64));
        for _ in 0..n_levels {
            let n_runs = dec.varint()? as usize;
            let mut runs = Vec::with_capacity(n_runs.min(1024));
            for _ in 0..n_runs {
                let n_tables = dec.varint()? as usize;
                let mut tables = Vec::with_capacity(n_tables.min(1 << 20));
                for _ in 0..n_tables {
                    tables.push(dec.varint()?);
                }
                runs.push(tables);
            }
            levels.push(runs);
        }
        let n_wal = dec.varint()? as usize;
        let mut wal_segments = Vec::with_capacity(n_wal.min(1024));
        for _ in 0..n_wal {
            wal_segments.push(dec.varint()?);
        }
        Ok(Manifest {
            next_seqno,
            next_ts,
            levels,
            wal_segments,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip() {
        let m = Manifest {
            next_seqno: 12345,
            next_ts: 678,
            levels: vec![vec![vec![10], vec![9]], vec![vec![3, 4, 5]], vec![]],
            wal_segments: vec![100, 101],
        };
        assert_eq!(Manifest::decode(&m.encode()).unwrap(), m);
    }

    #[test]
    fn empty_roundtrip() {
        let m = Manifest::default();
        assert_eq!(Manifest::decode(&m.encode()).unwrap(), m);
    }

    #[test]
    fn corruption_rejected() {
        let mut raw = Manifest::default().encode();
        raw[9] ^= 1;
        assert!(Manifest::decode(&raw).is_err());
        assert!(Manifest::decode(&[1, 2, 3]).is_err());
    }
}
