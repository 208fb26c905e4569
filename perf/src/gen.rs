//! Seeded inputs: ids, keys, values and per-client operation streams.
//!
//! The engine sees only what this module generates. Logical id `i` maps to
//! the present key `format_key(2i)` and the absent key `format_key(2i+1)`,
//! so absent keys fall *inside* every table's key range and it is the
//! filters, not the fence pointers, that reject them.

use lsm_workload::{KeyDist, KeyGen};

/// Key length: `"user"` plus twelve decimal digits.
pub const KEY_LEN: usize = 16;
/// Value length written by the load.
pub const VALUE_LEN: usize = 100;
/// Value length written by timed-phase puts, so a check can tell an update
/// that took effect from one that was lost or shadowed by the old value.
pub const UPDATE_VALUE_LEN: usize = 104;
/// Keys iterated by one scan.
pub const SCAN_KEYS: usize = 50;

/// splitmix64: the benchmark's own source of randomness (op-mix draws and
/// the load permutation); key ids come from `lsm_workload::KeyGen`.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Rng(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, n)`; the modulo bias is below 2^-40 for every `n`
    /// used here.
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }
}

/// Derives an independent stream seed from the run seed.
pub fn derive_seed(seed: u64, stream: u64) -> u64 {
    Rng::new(seed ^ stream.wrapping_mul(0xA076_1D64_78BD_642F)).next_u64()
}

/// Writes `format_key(n)` into `buf` without allocating.
pub fn write_key(buf: &mut [u8; KEY_LEN], mut n: u64) {
    buf[..4].copy_from_slice(b"user");
    for slot in buf[4..].iter_mut().rev() {
        *slot = b'0' + (n % 10) as u8;
        n /= 10;
    }
}

/// The number a key made by [`write_key`] encodes.
pub fn parse_key(key: &[u8]) -> Option<u64> {
    if key.len() != KEY_LEN || &key[..4] != b"user" {
        return None;
    }
    key[4..].iter().try_fold(0u64, |acc, &b| {
        b.is_ascii_digit().then(|| acc * 10 + u64::from(b - b'0'))
    })
}

/// Writes `format_value(n, buf.len())` into `buf` without allocating.
pub fn write_value(buf: &mut [u8], n: u64) {
    let bytes = n.to_le_bytes();
    for (i, slot) in buf.iter_mut().enumerate() {
        *slot = bytes[i % 8];
    }
}

/// Whether `value` equals `format_value(n, len)`.
pub fn value_matches(value: &[u8], n: u64, len: usize) -> bool {
    let bytes = n.to_le_bytes();
    value.len() == len && value.iter().enumerate().all(|(i, &b)| b == bytes[i % 8])
}

/// The ids `0..keys` in a seeded random order (the load order).
pub fn load_order(keys: u64, seed: u64) -> Vec<u64> {
    let mut ids: Vec<u64> = (0..keys).collect();
    let mut rng = Rng::new(derive_seed(seed, 0x10AD));
    for i in (1..ids.len()).rev() {
        ids.swap(i, rng.below(i as u64 + 1) as usize);
    }
    ids
}

/// What one operation does. The discriminants index [`Spec::mix`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum OpKind {
    Put = 0,
    Delete = 1,
    GetPresent = 2,
    GetAbsent = 3,
    Scan = 4,
}

/// One generated operation on logical id `id`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Op {
    pub kind: OpKind,
    pub id: u64,
}

/// One of the benchmark's workloads: how the db is opened for the timed
/// phase and what the clients send.
#[derive(Clone, Copy, Debug)]
pub struct Spec {
    pub name: &'static str,
    pub clients: usize,
    pub dist: KeyDist,
    /// Share of each [`OpKind`] in percent, indexed by its discriminant;
    /// sums to 100.
    pub mix: [u8; 5],
    /// Block-cache capacity as a share of the loaded data (keys + values).
    pub cache_share: f64,
    pub background_threads: usize,
    /// Writers touch only ids of their own parity and track their state,
    /// so every own-parity read can be checked exactly.
    pub parity_writers: bool,
}

/// The four workloads. Names are final: `BENCHMARK.json` lists them.
pub const SPECS: [Spec; 4] = [
    Spec {
        name: "ingest",
        clients: 1,
        dist: KeyDist::Uniform,
        mix: [100, 0, 0, 0, 0],
        cache_share: 0.25,
        background_threads: 1,
        parity_writers: false,
    },
    Spec {
        name: "read_hot",
        clients: 2,
        dist: KeyDist::Zipfian(0.99),
        mix: [0, 0, 100, 0, 0],
        cache_share: 2.5,
        background_threads: 0,
        parity_writers: false,
    },
    Spec {
        name: "read_cold",
        clients: 2,
        dist: KeyDist::Uniform,
        mix: [0, 0, 80, 20, 0],
        cache_share: 1.0 / 16.0,
        background_threads: 0,
        parity_writers: false,
    },
    Spec {
        name: "mixed",
        clients: 2,
        dist: KeyDist::Zipfian(0.9),
        mix: [40, 5, 40, 5, 10],
        cache_share: 0.25,
        background_threads: 1,
        parity_writers: true,
    },
];

/// Looks a workload up by name.
pub fn spec(name: &str) -> Option<&'static Spec> {
    SPECS.iter().find(|s| s.name == name)
}

/// One client's operation stream.
pub struct OpGen {
    keys: KeyGen,
    mix_rng: Rng,
    /// Cumulative percent thresholds, one per [`OpKind`].
    thresholds: [u8; 5],
    /// `Some(p)`: writes are redirected to ids of parity `p`.
    write_parity: Option<u64>,
}

const KINDS: [OpKind; 5] = [
    OpKind::Put,
    OpKind::Delete,
    OpKind::GetPresent,
    OpKind::GetAbsent,
    OpKind::Scan,
];

impl OpGen {
    /// The stream of client `client` of `spec` over `keys` ids (`keys` is
    /// even, so flipping an id's parity stays in range).
    pub fn new(spec: &Spec, keys: u64, seed: u64, client: usize) -> Self {
        let mut thresholds = [0u8; 5];
        let mut acc = 0u8;
        for (t, p) in thresholds.iter_mut().zip(spec.mix) {
            acc += p;
            *t = acc;
        }
        assert_eq!(acc, 100, "op mix of {} must sum to 100", spec.name);
        let stream = 2 * client as u64;
        OpGen {
            keys: KeyGen::new(spec.dist, keys, derive_seed(seed, 0xC11E + stream)),
            mix_rng: Rng::new(derive_seed(seed, 0xC11F + stream)),
            thresholds,
            write_parity: spec.parity_writers.then_some(client as u64 % 2),
        }
    }

    pub fn next_op(&mut self) -> Op {
        let draw = self.mix_rng.below(100) as u8;
        let slot = self.thresholds.iter().position(|&t| draw < t).unwrap_or(4);
        let kind = KINDS[slot];
        let mut id = self.keys.next_id();
        if let (Some(parity), OpKind::Put | OpKind::Delete) = (self.write_parity, kind) {
            if id % 2 != parity {
                id ^= 1;
            }
        }
        Op { kind, id }
    }
}

/// FNV-1a over the first `n` ops of a client's stream: two runs with the
/// same seed must agree on it, two seeds must not.
pub fn stream_hash(spec: &Spec, keys: u64, seed: u64, client: usize, n: usize) -> u64 {
    let mut gen = OpGen::new(spec, keys, seed, client);
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for _ in 0..n {
        let op = gen.next_op();
        for word in [op.kind as u64, op.id] {
            h ^= word;
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    h
}
