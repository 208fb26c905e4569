//! The unified metrics surface: one snapshot covering the engine, the
//! storage backend, and the block cache.
//!
//! [`Db::metrics`](crate::Db::metrics) returns [`StatsSnapshot`],
//! [`IoSnapshot`] and [`CacheStats`] in one [`MetricsSnapshot`], with a
//! single [`delta`] combinator for phase measurements and a [`to_json`]
//! emitter for experiment output. Each of the three counter sets is one
//! `lsm_obs::counter_table!` declaration; the JSON walks its `fields()`.
//!
//! [`delta`]: MetricsSnapshot::delta
//! [`to_json`]: MetricsSnapshot::to_json

use lsm_obs::{HistKind, LatencySnapshot, LevelGauge, PromText};
use lsm_storage::{CacheStats, IoSnapshot};

use crate::stats::StatsSnapshot;

/// A point-in-time copy of every counter the engine exposes.
#[derive(Clone, Default, Debug, PartialEq, serde::Serialize)]
pub struct MetricsSnapshot {
    /// Engine-level counters (operations, flushes, compactions, stalls).
    pub db: StatsSnapshot,
    /// Backend I/O counters (ops, pages, bytes, file churn).
    pub io: IoSnapshot,
    /// Block-cache counters; `None` when the cache is disabled.
    pub cache: Option<CacheStats>,
    /// Latency histograms for every instrumented surface (empty when the
    /// database was opened with observability off).
    pub latency: LatencySnapshot,
    /// Per-level tree shape at snapshot time (files, bytes, sorted runs).
    pub levels: Vec<LevelGauge>,
    /// Estimated point-read amplification (sorted runs a lookup may probe)
    /// at snapshot time. An *intensive* quantity: merging shard snapshots
    /// averages it weighted by each shard's read traffic — a lookup is
    /// routed to exactly one shard, so shard read-amps must never add.
    pub read_amp_estimate: f64,
}

impl MetricsSnapshot {
    /// Counter increments between `earlier` and `self`. The cache delta is
    /// present only when both snapshots carry cache stats. Histograms
    /// subtract bucket-wise, so quantiles of a delta describe only the
    /// operations between the two snapshots. Level gauges are
    /// instantaneous readings, not counters — the delta carries the later
    /// snapshot's shape.
    pub fn delta(&self, earlier: &MetricsSnapshot) -> MetricsSnapshot {
        MetricsSnapshot {
            db: self.db.delta(&earlier.db),
            io: self.io.delta(&earlier.io),
            cache: match (&self.cache, &earlier.cache) {
                (Some(now), Some(then)) => Some(now.delta(then)),
                _ => None,
            },
            latency: self.latency.delta(&earlier.latency),
            levels: self.levels.clone(),
            read_amp_estimate: self.read_amp_estimate,
        }
    }

    /// Accumulates `other` into `self`: counters and histogram buckets
    /// add, level gauges add index-wise (total resident structure across
    /// shards), and the cache column survives only if every merged
    /// snapshot carries one. Used by
    /// [`Db::metrics`](crate::Db::metrics) to present N
    /// shard engines as one surface.
    pub fn merge(&mut self, other: &MetricsSnapshot) {
        // Weighted average by read traffic, captured before the counter
        // merge below folds the weights together. A snapshot pair with no
        // reads on either side averages uniformly.
        let (wa, wb) = (self.db.gets + self.db.scans, other.db.gets + other.db.scans);
        self.read_amp_estimate = if wa + wb == 0 {
            (self.read_amp_estimate + other.read_amp_estimate) / 2.0
        } else {
            (self.read_amp_estimate * wa as f64 + other.read_amp_estimate * wb as f64)
                / (wa + wb) as f64
        };
        self.db.merge(&other.db);
        self.io.merge(&other.io);
        self.cache = match (self.cache.as_ref(), other.cache.as_ref()) {
            (Some(a), Some(b)) => {
                let mut c = *a;
                c.merge(b);
                Some(c)
            }
            _ => None,
        };
        self.latency.merge(&other.latency);
        lsm_obs::merge_level_gauges(&mut self.levels, &other.levels);
    }

    /// Write amplification: physical bytes written per user byte ingested.
    pub fn write_amplification(&self) -> f64 {
        self.db.write_amplification()
    }

    /// Serializes the snapshot as one JSON object (flat, stable key order),
    /// for experiment logs and scripts.
    pub fn to_json(&self) -> String {
        let mut out = String::with_capacity(512);
        out.push('{');
        push_obj(&mut out, "db", &self.db.fields());
        out.push(',');
        push_obj(&mut out, "io", &self.io.fields());
        out.push(',');
        match &self.cache {
            Some(c) => push_obj(&mut out, "cache", &c.fields()),
            None => out.push_str("\"cache\":null"),
        }
        out.push_str(",\"latency\":{");
        for (i, kind) in HistKind::ALL.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let h = self.latency.get(*kind);
            out.push('"');
            out.push_str(kind.name());
            out.push_str("\":");
            push_obj_body(
                &mut out,
                &[
                    ("count", h.count()),
                    ("p50", h.p50()),
                    ("p90", h.p90()),
                    ("p99", h.p99()),
                    ("p999", h.p999()),
                    ("max", h.max()),
                ],
            );
        }
        out.push_str("},\"levels\":[");
        for (i, l) in self.levels.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            push_obj_body(
                &mut out,
                &[
                    ("level", u64::from(l.level)),
                    ("files", l.files),
                    ("bytes", l.bytes),
                    ("runs", l.runs),
                ],
            );
        }
        out.push(']');
        out.push_str(&format!(
            ",\"read_amp_estimate\":{}",
            self.read_amp_estimate
        ));
        out.push_str(&format!(
            ",\"write_amplification\":{:.4}",
            self.write_amplification()
        ));
        out.push('}');
        out
    }

    /// Renders the snapshot's families into a Prometheus text exposition.
    /// `labels` (e.g. `shard="2"`) are prepended to every sample, so a
    /// sharded database can emit its aggregate (no labels) followed by one
    /// labelled render per shard against the same family declarations.
    pub fn prometheus_render(&self, prom: &mut PromText, labels: &[(&str, &str)]) {
        fn join<'a>(
            base: &[(&'a str, &'a str)],
            extra: &[(&'a str, &'a str)],
        ) -> Vec<(&'a str, &'a str)> {
            let mut l = base.to_vec();
            l.extend_from_slice(extra);
            l
        }
        prom.family(
            "lsm_db_ops_total",
            "counter",
            "Foreground operations by class.",
        );
        for (op, v) in [
            ("get", self.db.gets),
            ("put", self.db.puts),
            ("delete", self.db.deletes),
            ("scan", self.db.scans),
        ] {
            prom.sample("lsm_db_ops_total", &join(labels, &[("op", op)]), v as f64);
        }
        prom.family(
            "lsm_maintenance_total",
            "counter",
            "Background maintenance runs by kind.",
        );
        for (kind, v) in [
            ("flush", self.db.flushes),
            ("compaction", self.db.compactions),
        ] {
            prom.sample(
                "lsm_maintenance_total",
                &join(labels, &[("kind", kind)]),
                v as f64,
            );
        }
        prom.family(
            "lsm_stalls_total",
            "counter",
            "Write stalls entered by foreground writers.",
        );
        prom.sample("lsm_stalls_total", labels, self.db.stall_count as f64);
        prom.family(
            "lsm_stall_seconds_total",
            "counter",
            "Total time foreground writers spent stalled.",
        );
        prom.sample(
            "lsm_stall_seconds_total",
            labels,
            self.db.stall_nanos as f64 / 1e9,
        );
        prom.family(
            "lsm_io_bytes_total",
            "counter",
            "Backend bytes moved by direction.",
        );
        for (dir, v) in [("read", self.io.read_bytes), ("write", self.io.write_bytes)] {
            prom.sample(
                "lsm_io_bytes_total",
                &join(labels, &[("dir", dir)]),
                v as f64,
            );
        }
        if let Some(c) = &self.cache {
            prom.family(
                "lsm_cache_lookups_total",
                "counter",
                "Block-cache lookups by outcome.",
            );
            for (outcome, v) in [("hit", c.hits), ("miss", c.misses)] {
                prom.sample(
                    "lsm_cache_lookups_total",
                    &join(labels, &[("outcome", outcome)]),
                    v as f64,
                );
            }
            prom.family(
                "lsm_cache_aux_hits_total",
                "counter",
                "Block-cache hits served by pinned/cached index and filter partitions.",
            );
            for (kind, v) in [("index", c.index_hits), ("filter", c.filter_hits)] {
                prom.sample(
                    "lsm_cache_aux_hits_total",
                    &join(labels, &[("kind", kind)]),
                    v as f64,
                );
            }
        }
        prom.family("lsm_level_bytes", "gauge", "Resident bytes per LSM level.");
        prom.family("lsm_level_runs", "gauge", "Sorted runs per LSM level.");
        for l in &self.levels {
            let level = l.level.to_string();
            prom.sample(
                "lsm_level_bytes",
                &join(labels, &[("level", &level)]),
                l.bytes as f64,
            );
            prom.sample(
                "lsm_level_runs",
                &join(labels, &[("level", &level)]),
                l.runs as f64,
            );
        }
        prom.family(
            "lsm_read_amp_estimate",
            "gauge",
            "Estimated sorted runs a point lookup may probe.",
        );
        prom.sample("lsm_read_amp_estimate", labels, self.read_amp_estimate);
        prom.family(
            "lsm_write_amplification",
            "gauge",
            "Physical bytes written per user byte ingested.",
        );
        prom.sample(
            "lsm_write_amplification",
            labels,
            self.write_amplification(),
        );
        lsm_obs::prom::render_latency(prom, &self.latency, labels);
    }
}

fn push_obj(out: &mut String, name: &str, fields: &[(&str, u64)]) {
    out.push('"');
    out.push_str(name);
    out.push_str("\":");
    push_obj_body(out, fields);
}

fn push_obj_body(out: &mut String, fields: &[(&str, u64)]) {
    out.push('{');
    for (i, (k, v)) in fields.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push('"');
        out.push_str(k);
        out.push_str("\":");
        out.push_str(&v.to_string());
    }
    out.push('}');
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn delta_combines_all_surfaces() {
        let a = MetricsSnapshot {
            cache: Some(CacheStats::default()),
            ..Default::default()
        };
        let mut b = a.clone();
        b.db.puts = 10;
        b.io.write_bytes = 4096;
        if let Some(c) = b.cache.as_mut() {
            c.hits = 3;
        }
        let d = b.delta(&a);
        assert_eq!(d.db.puts, 10);
        assert_eq!(d.io.write_bytes, 4096);
        assert_eq!(d.cache.map(|c| c.hits), Some(3));
    }

    #[test]
    fn delta_drops_cache_when_either_side_lacks_it() {
        let with = MetricsSnapshot {
            cache: Some(CacheStats::default()),
            ..Default::default()
        };
        let without = MetricsSnapshot::default();
        assert!(with.delta(&without).cache.is_none());
        assert!(without.delta(&without).cache.is_none());
    }

    #[test]
    fn merge_averages_read_amp_weighted_by_read_traffic() {
        // Shard A: 30 reads at read-amp 4; shard B: 10 reads at read-amp 8.
        // The merged estimate is the traffic-weighted mean (5), never the
        // sum (12) — a lookup probes exactly one shard.
        let mut a = MetricsSnapshot {
            read_amp_estimate: 4.0,
            ..Default::default()
        };
        a.db.gets = 30;
        let mut b = MetricsSnapshot {
            read_amp_estimate: 8.0,
            ..Default::default()
        };
        b.db.gets = 10;
        a.merge(&b);
        assert!((a.read_amp_estimate - 5.0).abs() < 1e-12);
        assert_eq!(a.db.gets, 40);

        // No reads anywhere: uniform average, still not a sum.
        let mut x = MetricsSnapshot {
            read_amp_estimate: 2.0,
            ..Default::default()
        };
        let y = MetricsSnapshot {
            read_amp_estimate: 4.0,
            ..Default::default()
        };
        x.merge(&y);
        assert!((x.read_amp_estimate - 3.0).abs() < 1e-12);
    }

    #[test]
    fn prometheus_render_labels_every_sample() {
        let mut m = MetricsSnapshot::default();
        m.db.gets = 5;
        m.read_amp_estimate = 3.0;
        let mut prom = PromText::new();
        m.prometheus_render(&mut prom, &[("shard", "1")]);
        let text = prom.finish();
        assert!(text.contains("lsm_db_ops_total{shard=\"1\",op=\"get\"} 5\n"));
        assert!(text.contains("lsm_read_amp_estimate{shard=\"1\"} 3\n"));
        assert_eq!(text.matches("# TYPE lsm_db_ops_total").count(), 1);
    }

    #[test]
    fn json_shape_is_stable() {
        let mut m = MetricsSnapshot::default();
        m.db.puts = 7;
        let j = m.to_json();
        assert!(j.starts_with('{') && j.ends_with('}'));
        assert!(j.contains("\"db\":{\"puts\":7,"));
        assert!(j.contains("\"io\":{\"read_ops\":0,"));
        assert!(j.contains("\"cache\":null"));
        assert!(j.contains("\"latency\":{\"get\":{\"count\":0,"));
        assert!(j.contains("\"levels\":[]"));
        assert!(j.contains("\"read_amp_estimate\":0"));
        assert!(j.contains("\"write_amplification\":0.0000"));

        m.cache = Some(CacheStats {
            hits: 2,
            ..Default::default()
        });
        assert!(m.to_json().contains("\"cache\":{\"hits\":2,"));
    }

    /// The `(key, value)` pairs of the flat object `"name":{..}` in `json`.
    fn json_object(json: &str, name: &str) -> Vec<(String, u64)> {
        let open = format!("\"{name}\":{{");
        let start = json.find(&open).expect("object present") + open.len();
        let end = start + json[start..].find('}').expect("object closes");
        json[start..end]
            .split(',')
            .map(|kv| {
                let (k, v) = kv.split_once(':').expect("key:value");
                (
                    k.trim_matches('"').to_string(),
                    v.parse().expect("u64 value"),
                )
            })
            .collect()
    }

    #[test]
    fn counter_objects_are_the_table_fields_in_order() {
        // Every counter distinct, numbered in declaration order.
        let db = StatsSnapshot {
            puts: 1,
            gets: 2,
            deletes: 3,
            scans: 4,
            user_bytes: 5,
            flushes: 6,
            flush_bytes: 7,
            compactions: 8,
            compact_bytes_read: 9,
            compact_bytes_written: 10,
            stall_count: 11,
            stall_nanos: 12,
            idle_waits: 13,
            gc_dropped_entries: 14,
            tombstones_purged: 15,
            wal_appends: 16,
            wal_syncs: 17,
            group_commits: 18,
        };
        let io = IoSnapshot {
            read_ops: 19,
            read_pages: 20,
            read_bytes: 21,
            write_ops: 22,
            write_pages: 23,
            write_bytes: 24,
            files_created: 25,
            files_deleted: 26,
        };
        let cache = CacheStats {
            hits: 27,
            misses: 28,
            index_hits: 29,
            filter_hits: 30,
            insertions: 31,
            evictions: 32,
            invalidations: 33,
        };
        let m = MetricsSnapshot {
            db,
            io,
            cache: Some(cache),
            ..Default::default()
        };
        let json = m.to_json();
        let owned = |f: &[(&str, u64)]| -> Vec<(String, u64)> {
            f.iter().map(|&(k, v)| (k.to_string(), v)).collect()
        };
        let objects = [
            ("db", owned(&db.fields())),
            ("io", owned(&io.fields())),
            ("cache", owned(&cache.fields())),
        ];
        let mut values = Vec::new();
        for (name, fields) in objects {
            let pairs = json_object(&json, name);
            assert_eq!(pairs, fields, "`{name}` keys must be its fields, in order");
            values.extend(pairs.into_iter().map(|(_, v)| v));
        }
        assert_eq!(values, (1..=33).collect::<Vec<u64>>());
    }
}
