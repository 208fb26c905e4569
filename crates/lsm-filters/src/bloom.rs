//! Standard and register-blocked Bloom filters.

use lsm_types::encoding::{put_u32, Decoder};
use lsm_types::{Error, Result};

use crate::hash::{hash_pair, probe};
use crate::{checked_body_len, PointFilter};

/// The classic Bloom filter: `k = bits_per_key * ln 2` hash probes into one
/// large bit array. Per-run Bloom filters are what let an LSM point lookup
/// skip runs that cannot contain the key (tutorial §2.1.3).
#[derive(Clone, Debug)]
pub struct BloomFilter {
    bits: Vec<u64>,
    num_bits: u64,
    num_probes: u32,
}

/// Optimal probe count for a bits-per-key budget, clamped to `[1, 30]`.
pub fn optimal_probes(bits_per_key: f64) -> u32 {
    ((bits_per_key * std::f64::consts::LN_2).round() as u32).clamp(1, 30)
}

/// Theoretical false-positive rate of a Bloom filter with `bits_per_key`
/// bits per key and the optimal probe count: `(1/2)^(bits_per_key * ln 2)`.
pub fn theoretical_fp_rate(bits_per_key: f64) -> f64 {
    if bits_per_key <= 0.0 {
        return 1.0;
    }
    0.5f64.powf(bits_per_key * std::f64::consts::LN_2)
}

impl BloomFilter {
    /// Builds a filter over `keys` with a budget of `bits_per_key` bits per
    /// key (fractional budgets are honored in total size).
    pub fn build(keys: &[&[u8]], bits_per_key: f64) -> Self {
        let bits_per_key = bits_per_key.max(0.0);
        let num_bits = ((keys.len() as f64 * bits_per_key).ceil() as u64).max(64);
        let num_probes = optimal_probes(bits_per_key.max(1.0));
        let mut filter = BloomFilter {
            bits: vec![0u64; num_bits.div_ceil(64) as usize],
            num_bits,
            num_probes,
        };
        for key in keys {
            filter.insert(key);
        }
        filter
    }

    /// Creates an empty filter sized for `expected_keys`.
    pub fn with_capacity(expected_keys: usize, bits_per_key: f64) -> Self {
        let num_bits = ((expected_keys as f64 * bits_per_key).ceil() as u64).max(64);
        BloomFilter {
            bits: vec![0u64; num_bits.div_ceil(64) as usize],
            num_bits,
            num_probes: optimal_probes(bits_per_key.max(1.0)),
        }
    }

    /// Inserts a key.
    pub fn insert(&mut self, key: &[u8]) {
        let pair = hash_pair(key);
        for i in 0..self.num_probes {
            let bit = probe(pair, i) % self.num_bits;
            self.bits[(bit / 64) as usize] |= 1 << (bit % 64);
        }
    }

    /// Serialized form: `u32 probes | u32 bits_len_words | words...`.
    pub fn from_bytes(data: &[u8]) -> Result<Self> {
        let mut dec = Decoder::new(data);
        let num_probes = dec.u32()?;
        let num_bits = dec.u64()?;
        if num_probes == 0 || num_probes > 64 || num_bits == 0 {
            return Err(Error::Corruption("implausible bloom header".into()));
        }
        let words = checked_body_len(Some(num_bits.div_ceil(64)), 8, &dec)?;
        let mut bits = Vec::with_capacity(words);
        for _ in 0..words {
            bits.push(dec.u64()?);
        }
        Ok(BloomFilter {
            bits,
            num_bits,
            num_probes,
        })
    }

    /// Measured bit density (fraction of set bits), for diagnostics.
    pub fn density(&self) -> f64 {
        let set: u64 = self.bits.iter().map(|w| w.count_ones() as u64).sum();
        set as f64 / self.num_bits as f64
    }
}

impl PointFilter for BloomFilter {
    fn may_contain(&self, key: &[u8]) -> bool {
        let pair = hash_pair(key);
        for i in 0..self.num_probes {
            let bit = probe(pair, i) % self.num_bits;
            if self.bits[(bit / 64) as usize] & (1 << (bit % 64)) == 0 {
                return false;
            }
        }
        true
    }

    fn memory_bits(&self) -> usize {
        self.bits.len() * 64
    }

    fn to_bytes(&self) -> Vec<u8> {
        let mut buf = Vec::with_capacity(12 + self.bits.len() * 8);
        put_u32(&mut buf, self.num_probes);
        lsm_types::encoding::put_u64(&mut buf, self.num_bits);
        for w in &self.bits {
            buf.extend_from_slice(&w.to_le_bytes());
        }
        buf
    }
}

/// A register-blocked Bloom filter: every key sets all of its probe bits
/// inside a single 64-byte (512-bit) block chosen by hash.
///
/// One cache line per probe instead of `k` scattered reads — the CPU-cost
/// optimization the tutorial discusses under filter design (§2.1.3, the
/// concern Ribbon/hash-sharing address). Costs ~1.3–2× the false-positive
/// rate of a standard Bloom at equal memory.
#[derive(Clone, Debug)]
pub struct BlockedBloomFilter {
    /// Blocks of 8 words (512 bits) each.
    words: Vec<u64>,
    num_blocks: u64,
    num_probes: u32,
}

const WORDS_PER_BLOCK: u64 = 8;

impl BlockedBloomFilter {
    /// Builds a filter over `keys` with `bits_per_key` bits per key.
    pub fn build(keys: &[&[u8]], bits_per_key: f64) -> Self {
        let total_bits = ((keys.len() as f64 * bits_per_key.max(0.0)).ceil() as u64).max(512);
        let num_blocks = total_bits.div_ceil(512).max(1);
        let mut filter = BlockedBloomFilter {
            words: vec![0u64; (num_blocks * WORDS_PER_BLOCK) as usize],
            num_blocks,
            num_probes: optimal_probes(bits_per_key.max(1.0)),
        };
        for key in keys {
            filter.insert(key);
        }
        filter
    }

    /// Inserts a key.
    pub fn insert(&mut self, key: &[u8]) {
        let pair = hash_pair(key);
        let block = (pair.0 % self.num_blocks) * WORDS_PER_BLOCK;
        for i in 0..self.num_probes {
            // Derive in-block bit positions from the second hash only, so
            // the block choice and bit choices stay independent.
            let bit = probe((pair.1, pair.0.rotate_left(32)), i) % 512;
            self.words[(block + bit / 64) as usize] |= 1 << (bit % 64);
        }
    }

    /// Deserializes the output of [`PointFilter::to_bytes`].
    pub fn from_bytes(data: &[u8]) -> Result<Self> {
        let mut dec = Decoder::new(data);
        let num_probes = dec.u32()?;
        let num_blocks = dec.u64()?;
        if num_probes == 0 || num_probes > 64 || num_blocks == 0 {
            return Err(Error::Corruption("implausible blocked-bloom header".into()));
        }
        let words_len = checked_body_len(num_blocks.checked_mul(WORDS_PER_BLOCK), 8, &dec)?;
        let mut words = Vec::with_capacity(words_len);
        for _ in 0..words_len {
            words.push(dec.u64()?);
        }
        Ok(BlockedBloomFilter {
            words,
            num_blocks,
            num_probes,
        })
    }
}

impl PointFilter for BlockedBloomFilter {
    fn may_contain(&self, key: &[u8]) -> bool {
        let pair = hash_pair(key);
        let block = (pair.0 % self.num_blocks) * WORDS_PER_BLOCK;
        for i in 0..self.num_probes {
            let bit = probe((pair.1, pair.0.rotate_left(32)), i) % 512;
            if self.words[(block + bit / 64) as usize] & (1 << (bit % 64)) == 0 {
                return false;
            }
        }
        true
    }

    fn memory_bits(&self) -> usize {
        self.words.len() * 64
    }

    fn to_bytes(&self) -> Vec<u8> {
        let mut buf = Vec::with_capacity(12 + self.words.len() * 8);
        put_u32(&mut buf, self.num_probes);
        lsm_types::encoding::put_u64(&mut buf, self.num_blocks);
        for w in &self.words {
            buf.extend_from_slice(&w.to_le_bytes());
        }
        buf
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn keys(n: u32) -> Vec<Vec<u8>> {
        (0..n).map(|i| format!("key{i:08}").into_bytes()).collect()
    }

    fn refs(keys: &[Vec<u8>]) -> Vec<&[u8]> {
        keys.iter().map(|k| k.as_slice()).collect()
    }

    #[test]
    fn no_false_negatives() {
        let ks = keys(10_000);
        let f = BloomFilter::build(&refs(&ks), 10.0);
        for k in &ks {
            assert!(f.may_contain(k));
        }
    }

    #[test]
    fn fp_rate_tracks_theory() {
        let ks = keys(10_000);
        for bpk in [4.0, 8.0, 12.0] {
            let f = BloomFilter::build(&refs(&ks), bpk);
            let mut fps = 0;
            let trials = 20_000;
            for i in 0..trials {
                let k = format!("absent{i:08}");
                if f.may_contain(k.as_bytes()) {
                    fps += 1;
                }
            }
            let measured = fps as f64 / trials as f64;
            let theory = theoretical_fp_rate(bpk);
            assert!(
                measured < theory * 2.0 + 0.002,
                "bpk={bpk}: measured {measured:.4} >> theory {theory:.4}"
            );
        }
    }

    #[test]
    fn blocked_no_false_negatives_and_reasonable_fp() {
        let ks = keys(10_000);
        let f = BlockedBloomFilter::build(&refs(&ks), 10.0);
        for k in &ks {
            assert!(f.may_contain(k));
        }
        let mut fps = 0;
        let trials = 20_000;
        for i in 0..trials {
            if f.may_contain(format!("absent{i:08}").as_bytes()) {
                fps += 1;
            }
        }
        let measured = fps as f64 / trials as f64;
        // Blocked pays an FP premium but must stay in the same regime.
        assert!(
            measured < theoretical_fp_rate(10.0) * 4.0 + 0.002,
            "blocked FP {measured:.4} too high"
        );
    }

    #[test]
    fn serialization_roundtrip() {
        let ks = keys(1000);
        let f = BloomFilter::build(&refs(&ks), 8.0);
        let back = BloomFilter::from_bytes(&f.to_bytes()).unwrap();
        for k in &ks {
            assert!(back.may_contain(k));
        }
        assert_eq!(back.memory_bits(), f.memory_bits());

        let bf = BlockedBloomFilter::build(&refs(&ks), 8.0);
        let back = BlockedBloomFilter::from_bytes(&bf.to_bytes()).unwrap();
        for k in &ks {
            assert!(back.may_contain(k));
        }
    }

    #[test]
    fn from_bytes_rejects_garbage() {
        assert!(BloomFilter::from_bytes(&[1, 2, 3]).is_err());
        let mut buf = Vec::new();
        put_u32(&mut buf, 0); // zero probes: implausible
        lsm_types::encoding::put_u64(&mut buf, 64);
        assert!(BloomFilter::from_bytes(&buf).is_err());
    }

    #[test]
    fn from_bytes_checks_the_claimed_size_before_allocating() {
        // A plausible header whose count no body backs up: each of these
        // asked `Vec::with_capacity` for the claimed size (a capacity
        // overflow panic or an abort) before a body byte was read.
        let header = |probes: u32, count: u64| {
            let mut buf = Vec::new();
            put_u32(&mut buf, probes);
            lsm_types::encoding::put_u64(&mut buf, count);
            buf
        };
        for count in [u64::MAX, 1 << 62, 1 << 40, 65] {
            let err = BloomFilter::from_bytes(&header(7, count)).unwrap_err();
            assert!(matches!(err, Error::Corruption(_)), "bloom {count}: {err}");
        }
        // `num_blocks * WORDS_PER_BLOCK` must not wrap to something small.
        for count in [u64::MAX, (1 << 61) + 1, 1 << 40, 1] {
            let err = BlockedBloomFilter::from_bytes(&header(7, count)).unwrap_err();
            assert!(
                matches!(err, Error::Corruption(_)),
                "blocked {count}: {err}"
            );
        }
        // One flipped header bit in an otherwise valid filter.
        let key: &[u8] = b"k";
        for (mut bytes, blocked) in [
            (BloomFilter::build(&[key], 10.0).to_bytes(), false),
            (BlockedBloomFilter::build(&[key], 10.0).to_bytes(), true),
        ] {
            bytes[11] ^= 0x40; // top byte of the count
            let result = if blocked {
                BlockedBloomFilter::from_bytes(&bytes).map(|_| ())
            } else {
                BloomFilter::from_bytes(&bytes).map(|_| ())
            };
            assert!(matches!(result, Err(Error::Corruption(_))));
        }
    }

    #[test]
    fn empty_key_set() {
        let f = BloomFilter::build(&[], 10.0);
        // An empty filter may return anything but must not panic; with no
        // bits set it definitively excludes.
        assert!(!f.may_contain(b"anything"));
    }

    #[test]
    fn optimal_probes_sane() {
        assert_eq!(optimal_probes(10.0), 7);
        assert_eq!(optimal_probes(1.0), 1);
        assert!(optimal_probes(100.0) <= 30);
    }

    #[test]
    fn density_about_half_at_optimum() {
        let ks = keys(10_000);
        let f = BloomFilter::build(&refs(&ks), 10.0);
        let d = f.density();
        assert!((0.4..0.6).contains(&d), "density {d}");
    }
}
