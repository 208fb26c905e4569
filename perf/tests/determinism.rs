//! The benchmark's inputs are a pure function of the seed, and with one
//! client and a fixed op count so are the engine's counts.

use std::path::PathBuf;

use lsm_perf::gen::{
    parse_key, spec, stream_hash, value_matches, write_key, write_value, KEY_LEN, SPECS,
};
use lsm_perf::workload::{run, Config};
use lsm_workload::{format_key, format_value};

#[test]
fn writers_match_the_workload_crate() {
    let mut key = [0u8; KEY_LEN];
    for n in [0u64, 1, 9, 10, 12_345, 399_999, 999_999_999_999] {
        write_key(&mut key, n);
        assert_eq!(key.to_vec(), format_key(n), "key {n}");
        assert_eq!(parse_key(&key), Some(n));
        for len in [0usize, 1, 8, 100, 104] {
            let mut value = vec![0xFFu8; len];
            write_value(&mut value, n);
            assert_eq!(value, format_value(n, len), "value {n} of {len} bytes");
            assert!(value_matches(&value, n, len));
            assert!(!value_matches(&value, n, len + 1));
        }
    }
    assert_eq!(parse_key(b"user00000000001x"), None);
    assert_eq!(parse_key(b"user1"), None);
}

#[test]
fn op_streams_follow_the_seed() {
    for s in &SPECS {
        for client in 0..s.clients {
            let a = stream_hash(s, 200_000, 7, client, 10_000);
            assert_eq!(a, stream_hash(s, 200_000, 7, client, 10_000), "{}", s.name);
            assert_ne!(a, stream_hash(s, 200_000, 8, client, 10_000), "{}", s.name);
        }
        if s.clients > 1 {
            assert_ne!(
                stream_hash(s, 200_000, 7, 0, 10_000),
                stream_hash(s, 200_000, 7, 1, 10_000),
                "{}: clients must not send the same stream",
                s.name
            );
        }
    }
}

fn small(workload: &str, seed: u64, trace: bool, dir: &str) -> Config {
    let mut cfg = Config::new(spec(workload).expect("a known workload"), seed, 0.2, trace);
    cfg.keys = 20_000;
    cfg.setups = 1;
    cfg.probes = false;
    cfg.out_dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(dir);
    cfg
}

#[test]
fn one_client_counts_repeat_exactly() {
    let mut cfg = small("read_cold", 3, true, "repeat-exactly");
    cfg.clients = Some(1);
    cfg.ops_per_client = Some(20_000);
    let a = run(&cfg).expect("first run");
    let b = run(&cfg).expect("second run");
    assert_eq!(a.tree_shape, b.tree_shape);
    assert_eq!(a.attempted, b.attempted);
    for name in [
        "client.read_pages_per_get",
        "sstable.filter_negatives_per_get",
        "sstable.block_probes_per_get",
        "storage.read_calls_per_get",
    ] {
        let (va, vb) = (a.metrics.get(name), b.metrics.get(name));
        assert!(va.is_some_and(|v| v > 0.0), "{name} is measured: {va:?}");
        assert_eq!(va, vb, "{name}");
    }
    cfg.seed = 4;
    let c = run(&cfg).expect("third run");
    assert_ne!(
        a.metrics.get("client.read_pages_per_get"),
        c.metrics.get("client.read_pages_per_get"),
        "another seed reads other pages"
    );
}

#[test]
fn every_workload_runs_small_and_clean() {
    for s in &SPECS {
        for trace in [false, true] {
            let cfg = small(s.name, 5, trace, &format!("smoke-{}-{trace}", s.name));
            let out = run(&cfg).expect("the harness runs");
            assert_eq!(out.failed, 0, "{} trace={trace}", s.name);
            assert!(out.correct && out.attempted > cfg.keys);
            assert!(out.metrics.iter().count() >= 8, "{}", s.name);
            assert!(
                !cfg.out_dir
                    .join(format!("tmp-{}-{}", s.name, std::process::id()))
                    .exists(),
                "{}: temp dir removed",
                s.name
            );
        }
    }
}
