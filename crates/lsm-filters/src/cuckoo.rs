//! A cuckoo filter: deletable fingerprints in a 4-way bucketed table.
//!
//! Cuckoo filters (Fan et al.) store a short fingerprint of each key in one
//! of two buckets determined by partial-key cuckoo hashing. Compared to a
//! Bloom filter they support deletion and win space below ~3% false-positive
//! rates; Chucky (tutorial §2.1.3) builds its LSM-wide updatable index on
//! exactly this structure.

use lsm_types::encoding::{put_u32, put_u64, Decoder};
use lsm_types::{Error, Result};

use crate::hash::hash64;
use crate::{checked_body_len, PointFilter};

const SLOTS_PER_BUCKET: usize = 4;
const MAX_KICKS: usize = 500;

/// A 4-way cuckoo filter with 12-bit fingerprints (stored in u16 slots;
/// 0 marks an empty slot).
#[derive(Clone, Debug)]
pub struct CuckooFilter {
    slots: Vec<u16>,
    num_buckets: u64,
    len: usize,
    /// Set when an insert had to give up after `MAX_KICKS` displacements;
    /// the filter stays correct (no false negatives for stored keys) but the
    /// victim key was re-inserted nowhere, so we remember to answer `true`
    /// for everything — the safe degradation.
    saturated: bool,
}

fn fingerprint(key: &[u8]) -> u16 {
    // 12-bit fingerprint, never zero (zero marks empty slots).
    let h = hash64(key, 0x5bd1_e995);
    let fp = (h & 0xfff) as u16;
    if fp == 0 {
        1
    } else {
        fp
    }
}

impl CuckooFilter {
    /// Builds a filter over `keys`; `bits_per_key` determines the table
    /// size (16 bits per slot, ~95% max load factor).
    pub fn build(keys: &[&[u8]], bits_per_key: f64) -> Self {
        // slots needed = keys / load_factor; buckets = slots / 4.
        let min_slots = (keys.len() as f64 / 0.95).ceil() as u64 + SLOTS_PER_BUCKET as u64;
        let budget_slots = (keys.len() as f64 * bits_per_key / 16.0).ceil() as u64;
        let slots = budget_slots.max(min_slots).max(8);
        let num_buckets = (slots.div_ceil(SLOTS_PER_BUCKET as u64)).next_power_of_two();
        let mut f = CuckooFilter {
            slots: vec![0u16; (num_buckets * SLOTS_PER_BUCKET as u64) as usize],
            num_buckets,
            len: 0,
            saturated: false,
        };
        for key in keys {
            f.insert(key);
        }
        f
    }

    fn bucket_of(&self, key: &[u8]) -> u64 {
        hash64(key, 0xdead_beef) % self.num_buckets
    }

    fn alt_bucket(&self, bucket: u64, fp: u16) -> u64 {
        // Partial-key cuckoo hashing: the alternate bucket is derived from
        // the fingerprint alone so it is computable during kicks.
        (bucket ^ (hash64(&fp.to_le_bytes(), 0xc0ff_ee00) % self.num_buckets)) % self.num_buckets
    }

    fn try_place(&mut self, bucket: u64, fp: u16) -> bool {
        let base = (bucket * SLOTS_PER_BUCKET as u64) as usize;
        for s in 0..SLOTS_PER_BUCKET {
            if self.slots[base + s] == 0 {
                self.slots[base + s] = fp;
                return true;
            }
        }
        false
    }

    /// Inserts a key. Returns `false` if the table saturated (the filter
    /// then degrades to answering `true` for every probe).
    pub fn insert(&mut self, key: &[u8]) -> bool {
        let fp = fingerprint(key);
        let b1 = self.bucket_of(key);
        let b2 = self.alt_bucket(b1, fp);
        self.len += 1;
        if self.try_place(b1, fp) || self.try_place(b2, fp) {
            return true;
        }
        // Kick a random-ish victim around until something sticks.
        let mut bucket = if (fp as u64) & 1 == 0 { b1 } else { b2 };
        let mut fp = fp;
        for kick in 0..MAX_KICKS {
            let slot = (hash64(&(kick as u64).to_le_bytes(), bucket) as usize) % SLOTS_PER_BUCKET;
            let idx = (bucket * SLOTS_PER_BUCKET as u64) as usize + slot;
            std::mem::swap(&mut fp, &mut self.slots[idx]);
            bucket = self.alt_bucket(bucket, fp);
            if self.try_place(bucket, fp) {
                return true;
            }
        }
        self.saturated = true;
        false
    }

    /// Removes one copy of `key`'s fingerprint, if present. Returns whether
    /// a fingerprint was removed. (Deleting a never-inserted key can evict a
    /// colliding key's fingerprint — the standard cuckoo-filter caveat; only
    /// delete keys you inserted.)
    pub fn delete(&mut self, key: &[u8]) -> bool {
        let fp = fingerprint(key);
        let b1 = self.bucket_of(key);
        let b2 = self.alt_bucket(b1, fp);
        for bucket in [b1, b2] {
            let base = (bucket * SLOTS_PER_BUCKET as u64) as usize;
            for s in 0..SLOTS_PER_BUCKET {
                if self.slots[base + s] == fp {
                    self.slots[base + s] = 0;
                    self.len -= 1;
                    return true;
                }
            }
        }
        false
    }

    /// Number of fingerprints stored.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the filter is empty.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Deserializes the output of [`PointFilter::to_bytes`].
    pub fn from_bytes(data: &[u8]) -> Result<Self> {
        let mut dec = Decoder::new(data);
        let num_buckets = dec.u64()?;
        let len = dec.u32()? as usize;
        let saturated = dec.u8()? != 0;
        if num_buckets == 0 || !num_buckets.is_power_of_two() {
            return Err(Error::Corruption("implausible cuckoo header".into()));
        }
        let n_slots = checked_body_len(num_buckets.checked_mul(SLOTS_PER_BUCKET as u64), 2, &dec)?;
        let mut slots = Vec::with_capacity(n_slots);
        for _ in 0..n_slots {
            let b = dec.bytes(2)?;
            slots.push(u16::from_le_bytes([b[0], b[1]]));
        }
        Ok(CuckooFilter {
            slots,
            num_buckets,
            len,
            saturated,
        })
    }
}

impl PointFilter for CuckooFilter {
    fn may_contain(&self, key: &[u8]) -> bool {
        if self.saturated {
            return true;
        }
        let fp = fingerprint(key);
        let b1 = self.bucket_of(key);
        let b2 = self.alt_bucket(b1, fp);
        for bucket in [b1, b2] {
            let base = (bucket * SLOTS_PER_BUCKET as u64) as usize;
            for s in 0..SLOTS_PER_BUCKET {
                if self.slots[base + s] == fp {
                    return true;
                }
            }
        }
        false
    }

    fn memory_bits(&self) -> usize {
        self.slots.len() * 16
    }

    fn to_bytes(&self) -> Vec<u8> {
        let mut buf = Vec::with_capacity(13 + self.slots.len() * 2);
        put_u64(&mut buf, self.num_buckets);
        put_u32(&mut buf, self.len as u32);
        buf.push(self.saturated as u8);
        for s in &self.slots {
            buf.extend_from_slice(&s.to_le_bytes());
        }
        buf
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn keys(n: u32) -> Vec<Vec<u8>> {
        (0..n).map(|i| format!("ckey{i:08}").into_bytes()).collect()
    }

    fn refs(keys: &[Vec<u8>]) -> Vec<&[u8]> {
        keys.iter().map(|k| k.as_slice()).collect()
    }

    #[test]
    fn no_false_negatives() {
        let ks = keys(10_000);
        let f = CuckooFilter::build(&refs(&ks), 16.0);
        for k in &ks {
            assert!(f.may_contain(k));
        }
    }

    #[test]
    fn fp_rate_in_regime() {
        let ks = keys(10_000);
        let f = CuckooFilter::build(&refs(&ks), 16.0);
        let mut fps = 0;
        let trials = 20_000;
        for i in 0..trials {
            if f.may_contain(format!("absent{i:08}").as_bytes()) {
                fps += 1;
            }
        }
        let measured = fps as f64 / trials as f64;
        // 12-bit fingerprints, 4-way buckets: theory ~ 2*4/2^12 ≈ 0.2%.
        assert!(measured < 0.02, "cuckoo FP {measured:.4} too high");
    }

    #[test]
    fn delete_restores_negative() {
        let ks = keys(100);
        let mut f = CuckooFilter::build(&refs(&ks), 20.0);
        assert!(f.may_contain(b"ckey00000007"));
        assert!(f.delete(b"ckey00000007"));
        // After deleting, a lookup may still collide with another stored
        // fingerprint, but the canonical case returns false.
        // Verify at least that delete decremented and re-insert works.
        assert_eq!(f.len(), 99);
        f.insert(b"ckey00000007");
        assert!(f.may_contain(b"ckey00000007"));
    }

    #[test]
    fn alt_bucket_is_involution() {
        let f = CuckooFilter::build(&refs(&keys(16)), 16.0);
        for key in ["a", "b", "c", "longer-key"] {
            let fp = fingerprint(key.as_bytes());
            let b1 = f.bucket_of(key.as_bytes());
            let b2 = f.alt_bucket(b1, fp);
            assert_eq!(
                f.alt_bucket(b2, fp),
                b1,
                "alt(alt(b)) must return to b (needed for kicks)"
            );
        }
    }

    #[test]
    fn from_bytes_checks_the_claimed_size_before_allocating() {
        // Power-of-two bucket counts pass the header check; without a body
        // to back them they must read as corruption, not reach
        // `Vec::with_capacity` (capacity overflow or abort).
        for buckets in [1u64 << 63, 1 << 62, 1 << 40, 1] {
            let mut buf = Vec::new();
            put_u64(&mut buf, buckets);
            put_u32(&mut buf, 0);
            buf.push(0);
            let err = CuckooFilter::from_bytes(&buf).map(|_| ()).unwrap_err();
            assert!(matches!(err, Error::Corruption(_)), "{buckets}: {err}");
        }
        // One flipped header bit in an otherwise valid filter.
        let key: &[u8] = b"k";
        let mut bytes = CuckooFilter::build(&[key], 12.0).to_bytes();
        bytes[7] ^= 0x40;
        assert!(matches!(
            CuckooFilter::from_bytes(&bytes).map(|_| ()),
            Err(Error::Corruption(_))
        ));
    }

    #[test]
    fn serialization_roundtrip() {
        let ks = keys(500);
        let f = CuckooFilter::build(&refs(&ks), 16.0);
        let back = CuckooFilter::from_bytes(&f.to_bytes()).unwrap();
        for k in &ks {
            assert!(back.may_contain(k));
        }
        assert_eq!(back.len(), f.len());
    }

    #[test]
    fn overfull_filter_degrades_safely() {
        // Force saturation by giving a tiny budget relative to keys.
        let ks = keys(4000);
        let refs: Vec<&[u8]> = ks.iter().map(|k| k.as_slice()).collect();
        let mut f = CuckooFilter {
            slots: vec![0u16; 64 * SLOTS_PER_BUCKET],
            num_buckets: 64,
            len: 0,
            saturated: false,
        };
        for k in &refs {
            f.insert(k);
        }
        assert!(f.saturated);
        // Saturated filter must never produce a false negative.
        for k in &refs {
            assert!(f.may_contain(k));
        }
    }
}
