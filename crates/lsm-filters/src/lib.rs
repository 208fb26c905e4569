//! Point and range filters for `lsm-lab`.
//!
//! Filters are the auxiliary in-memory structures that let a lookup skip
//! probing a sorted run entirely (tutorial §2.1.3). This crate implements
//! the menu the tutorial surveys:
//!
//! **Point filters** (answer "might this run contain key k?"):
//! * [`BloomFilter`] — the standard per-run Bloom filter.
//! * [`BlockedBloomFilter`] — a cache-local variant: each key hashes to one
//!   64-byte block, trading a slightly higher false-positive rate for a
//!   single cache line per probe (the structural idea behind fast modern
//!   filters such as Ribbon's predecessor, the register-blocked Bloom).
//! * [`CuckooFilter`] — fingerprints in a 4-way cuckoo table; supports
//!   deletes and beats Bloom's space below ~3% false-positive rates
//!   (the building block of Chucky).
//!
//! **Range filters** (answer "might this run contain any key in [a, b)?"):
//! * [`PrefixBloomFilter`] — Bloom over fixed-length key prefixes; answers
//!   range queries that fit within one prefix (RocksDB's prefix filter).
//! * [`SurfFilter`] — a trie over truncated keys supporting true range
//!   membership (the SuRF idea: store just enough of each key's prefix to
//!   distinguish it from its neighbors).
//! * [`RosettaFilter`] — a hierarchy of Bloom filters over dyadic bit-prefix
//!   intervals, strongest for short ranges (the Rosetta design).
//!
//! **Memory allocation**:
//! * [`monkey`] — Monkey's optimal distribution of a filter-memory budget
//!   across levels (fewer bits for the huge last level, more for the small
//!   hot levels).
//!
//! All filters guarantee **no false negatives** (property-tested) and
//! serialize to bytes for embedding in the SSTable filter block.

mod bloom;
mod cuckoo;
pub mod hash;
pub mod monkey;
mod prefix_bloom;
mod rosetta;
mod surf;

pub use bloom::{optimal_probes, theoretical_fp_rate, BlockedBloomFilter, BloomFilter};
pub use cuckoo::CuckooFilter;
pub use prefix_bloom::PrefixBloomFilter;
pub use rosetta::RosettaFilter;
pub use surf::SurfFilter;

use lsm_types::encoding::Decoder;
use lsm_types::{Error, Result};

/// Checks an element count taken from a serialized filter's header against
/// the body bytes actually left in `dec`, before anything is allocated for
/// it: a flipped header bit must read as corruption, not as a request for
/// exabytes. `None` is a count whose computation already overflowed.
pub(crate) fn checked_body_len(
    count: Option<u64>,
    elem_bytes: usize,
    dec: &Decoder<'_>,
) -> Result<usize> {
    count
        .and_then(|n| usize::try_from(n).ok())
        .filter(|n| {
            n.checked_mul(elem_bytes)
                .is_some_and(|bytes| bytes <= dec.remaining())
        })
        .ok_or_else(|| Error::Corruption("filter header claims a body larger than its data".into()))
}

/// A set-membership filter over point keys.
pub trait PointFilter: Send + Sync {
    /// Whether the set might contain `key`. `false` is definitive.
    fn may_contain(&self, key: &[u8]) -> bool;
    /// Memory footprint in bits.
    fn memory_bits(&self) -> usize;
    /// Serializes the filter for the SSTable filter block.
    fn to_bytes(&self) -> Vec<u8>;
}

/// A filter answering range-emptiness queries.
pub trait RangeFilter: Send + Sync {
    /// Whether the set might contain any key in `[start, end)`.
    /// `false` is definitive.
    fn may_contain_range(&self, start: &[u8], end: &[u8]) -> bool;
    /// Whether the set might contain `key` (point probes also work).
    fn may_contain(&self, key: &[u8]) -> bool;
    /// Memory footprint in bits.
    fn memory_bits(&self) -> usize;
}

/// Which point-filter implementation a table/run should build.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum PointFilterKind {
    /// No filter: every probe goes to disk.
    None,
    /// Standard Bloom filter.
    Bloom,
    /// Register-blocked Bloom filter.
    BlockedBloom,
    /// Cuckoo filter with 12-bit fingerprints.
    Cuckoo,
}

/// Builds a point filter of `kind` over `keys` with a budget of
/// `bits_per_key`. Returns `None` for [`PointFilterKind::None`].
pub fn build_point_filter(
    kind: PointFilterKind,
    keys: &[&[u8]],
    bits_per_key: f64,
) -> Option<Box<dyn PointFilter>> {
    match kind {
        PointFilterKind::None => None,
        PointFilterKind::Bloom => Some(Box::new(BloomFilter::build(keys, bits_per_key))),
        PointFilterKind::BlockedBloom => {
            Some(Box::new(BlockedBloomFilter::build(keys, bits_per_key)))
        }
        PointFilterKind::Cuckoo => Some(Box::new(CuckooFilter::build(keys, bits_per_key))),
    }
}

/// Deserializes a point filter previously produced by
/// [`PointFilter::to_bytes`] for the given kind.
pub fn point_filter_from_bytes(
    kind: PointFilterKind,
    data: &[u8],
) -> Result<Option<Box<dyn PointFilter>>> {
    Ok(match kind {
        PointFilterKind::None => None,
        PointFilterKind::Bloom => Some(Box::new(BloomFilter::from_bytes(data)?)),
        PointFilterKind::BlockedBloom => Some(Box::new(BlockedBloomFilter::from_bytes(data)?)),
        PointFilterKind::Cuckoo => Some(Box::new(CuckooFilter::from_bytes(data)?)),
    })
}

impl PointFilterKind {
    /// Stable wire discriminant for table footers.
    pub fn as_u8(self) -> u8 {
        match self {
            PointFilterKind::None => 0,
            PointFilterKind::Bloom => 1,
            PointFilterKind::BlockedBloom => 2,
            PointFilterKind::Cuckoo => 3,
        }
    }

    /// Inverse of [`PointFilterKind::as_u8`].
    pub fn from_u8(v: u8) -> Result<Self> {
        Ok(match v {
            0 => PointFilterKind::None,
            1 => PointFilterKind::Bloom,
            2 => PointFilterKind::BlockedBloom,
            3 => PointFilterKind::Cuckoo,
            _ => return Err(Error::Corruption(format!("invalid filter kind {v}"))),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn factory_builds_each_kind() {
        let keys: Vec<Vec<u8>> = (0..100u32).map(|i| i.to_be_bytes().to_vec()).collect();
        let refs: Vec<&[u8]> = keys.iter().map(|k| k.as_slice()).collect();
        assert!(build_point_filter(PointFilterKind::None, &refs, 10.0).is_none());
        for kind in [
            PointFilterKind::Bloom,
            PointFilterKind::BlockedBloom,
            PointFilterKind::Cuckoo,
        ] {
            let f = build_point_filter(kind, &refs, 10.0).unwrap();
            for k in &refs {
                assert!(f.may_contain(k), "{kind:?} lost a key");
            }
            assert!(f.memory_bits() > 0);
            // round-trip through bytes
            let bytes = f.to_bytes();
            let back = point_filter_from_bytes(kind, &bytes).unwrap().unwrap();
            for k in &refs {
                assert!(back.may_contain(k), "{kind:?} lost a key after decode");
            }
        }
    }

    #[test]
    fn kind_wire_roundtrip() {
        for kind in [
            PointFilterKind::None,
            PointFilterKind::Bloom,
            PointFilterKind::BlockedBloom,
            PointFilterKind::Cuckoo,
        ] {
            assert_eq!(PointFilterKind::from_u8(kind.as_u8()).unwrap(), kind);
        }
        assert!(PointFilterKind::from_u8(99).is_err());
    }
}
