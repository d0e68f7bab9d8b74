//! What the benchmark declares: workloads, end-to-end metrics with their
//! bounds, per-layer metrics with the end-to-end metric each should move.
//! `BENCHMARK.json` at the repo root states the same thing for the driver;
//! a test holds the two together.

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Higher,
    Lower,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Higher => "higher",
            Better::Lower => "lower",
        }
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    VersionedBackup,
    FreshImages,
    SimTestbed,
    SimChaos,
}

pub const WORKLOADS: [Workload; 4] = [
    Workload::VersionedBackup,
    Workload::FreshImages,
    Workload::SimTestbed,
    Workload::SimChaos,
];

impl Workload {
    pub fn name(self) -> &'static str {
        match self {
            Workload::VersionedBackup => "versioned-backup",
            Workload::FreshImages => "fresh-images",
            Workload::SimTestbed => "sim-testbed",
            Workload::SimChaos => "sim-chaos",
        }
    }

    pub fn from_name(name: &str) -> Option<Workload> {
        WORKLOADS.into_iter().find(|w| w.name() == name)
    }
}

/// An end-to-end metric: what a user of the system sees.
#[derive(Debug, Clone, Copy)]
pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the parent's median by which the metric may worsen.
    pub bound: f64,
    /// True when the value is a count or simulated time that must be
    /// identical across every pass of a run (and across two runs of one
    /// seed); false for host wall-clock figures.
    pub exact: bool,
}

pub const END_TO_END: [EndToEnd; 9] = [
    EndToEnd {
        name: "ingest_mbps",
        unit: "MB/s",
        better: Better::Higher,
        bound: 0.25,
        exact: false,
    },
    EndToEnd {
        name: "restore_mbps",
        unit: "MB/s",
        better: Better::Higher,
        bound: 0.25,
        exact: false,
    },
    EndToEnd {
        name: "sim_op_mean_ms",
        unit: "ms",
        better: Better::Lower,
        bound: 0.10,
        exact: true,
    },
    EndToEnd {
        name: "dedup_ratio",
        unit: "x",
        better: Better::Higher,
        bound: 0.15,
        exact: true,
    },
    EndToEnd {
        name: "wan_bytes_per_input_byte",
        unit: "ratio",
        better: Better::Lower,
        bound: 0.15,
        exact: true,
    },
    EndToEnd {
        name: "stored_bytes_per_input_byte",
        unit: "ratio",
        better: Better::Lower,
        bound: 0.15,
        exact: true,
    },
    EndToEnd {
        name: "ok_ops_frac",
        unit: "ratio",
        better: Better::Higher,
        bound: 0.01,
        exact: true,
    },
    EndToEnd {
        name: "peak_rss_mb",
        unit: "MiB",
        better: Better::Lower,
        bound: 0.25,
        exact: false,
    },
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: Better::Lower,
        bound: 0.25,
        exact: false,
    },
];

/// A per-layer metric and the end-to-end metric it is expected to move
/// (`-` where it explains or guards rather than moves).
#[derive(Debug, Clone, Copy)]
pub struct PerLayer {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    pub moves: &'static str,
}

const fn pl(
    name: &'static str,
    unit: &'static str,
    better: Better,
    moves: &'static str,
) -> PerLayer {
    PerLayer {
        name,
        unit,
        better,
        moves,
    }
}

use Better::{Higher as Hi, Lower as Lo};

pub const PER_LAYER: [PerLayer; 73] = [
    pl("chunking.cdc.busy_s", "s", Lo, "ingest_mbps"),
    pl("chunking.cdc.mbps", "MB/s", Hi, "ingest_mbps"),
    pl("chunking.cdc.chunks", "count", Lo, "ingest_mbps"),
    pl("chunking.cdc.mean_chunk_bytes", "B", Hi, "dedup_ratio"),
    pl("chunking.cdc.chunk_bytes_p99", "B", Lo, "dedup_ratio"),
    pl("chunking.sha256.busy_s", "s", Lo, "ingest_mbps"),
    pl("chunking.sha256.mbps", "MB/s", Hi, "ingest_mbps"),
    pl("kvstore.cache.busy_s", "s", Lo, "ingest_mbps"),
    pl("kvstore.cache.lookups", "count", Lo, "ingest_mbps"),
    pl("kvstore.cache.hits", "count", Hi, "ingest_mbps"),
    pl("kvstore.cache.hit_rate", "ratio", Hi, "ingest_mbps"),
    pl("kvstore.cache.evictions", "count", Lo, "ingest_mbps"),
    pl("kvstore.cache.deferred", "count", Lo, "ingest_mbps"),
    pl("kvstore.cache.ns_per_lookup", "ns", Lo, "ingest_mbps"),
    pl("kvstore.index.busy_s", "s", Lo, "ingest_mbps"),
    pl("kvstore.index.ops", "count", Lo, "ingest_mbps"),
    pl("kvstore.index.ns_per_op", "ns", Lo, "ingest_mbps"),
    pl("kvstore.index.unique_frac", "ratio", Lo, "dedup_ratio"),
    pl("kvstore.index.msgs_per_op", "count", Lo, "ingest_mbps"),
    pl("kvstore.index.wal_bytes_per_key", "B", Lo, "peak_rss_mb"),
    pl("kvstore.index.wal_snapshots", "count", Lo, "ingest_mbps"),
    pl("kvstore.index.segments", "count", Lo, "ingest_mbps"),
    pl("kvstore.index.bytes_per_key", "B", Lo, "peak_rss_mb"),
    pl("kvstore.index.protocol_s_est", "s", Lo, "ingest_mbps"),
    pl("kvstore.storage.ns_per_put", "ns", Lo, "ingest_mbps"),
    pl("kvstore.storage.ns_per_contains", "ns", Lo, "ingest_mbps"),
    pl("kvstore.wal.ns_per_append", "ns", Lo, "ingest_mbps"),
    pl("kvstore.spool.busy_s", "s", Lo, "ingest_mbps"),
    pl("kvstore.spool.entries", "count", Lo, "ingest_mbps"),
    pl("kvstore.spool.mbps", "MB/s", Hi, "ingest_mbps"),
    pl("kvstore.spool.wal_bytes_peak", "B", Lo, "peak_rss_mb"),
    pl("kvstore.spool.high_water", "count", Lo, "peak_rss_mb"),
    pl("cloudstore.durable.put_busy_s", "s", Lo, "ingest_mbps"),
    pl("cloudstore.durable.put_mbps", "MB/s", Hi, "ingest_mbps"),
    pl("cloudstore.durable.get_busy_s", "s", Lo, "restore_mbps"),
    pl("cloudstore.durable.get_mbps", "MB/s", Hi, "restore_mbps"),
    pl(
        "cloudstore.durable.physical_per_logical",
        "ratio",
        Lo,
        "stored_bytes_per_input_byte",
    ),
    pl("erasure.rs.encode_mbps", "MB/s", Hi, "ingest_mbps"),
    pl("erasure.rs.reconstruct_mbps", "MB/s", Hi, "restore_mbps"),
    pl("cloudstore.restore.containers", "count", Lo, "-"),
    pl("cloudstore.restore.fragmentation_mean", "count", Lo, "-"),
    pl("cloudstore.restore.locality", "ratio", Hi, "-"),
    pl("datagen.model.dedup_model_err_pct", "%", Lo, "dedup_ratio"),
    pl("kvstore.sim.host_us_per_op", "us", Lo, "ingest_mbps"),
    pl("kvstore.sim.host_ns_per_msg", "ns", Lo, "ingest_mbps"),
    pl("kvstore.sim.msgs_per_op", "count", Lo, "sim_op_mean_ms"),
    pl("kvstore.sim.wire_bytes_per_op", "B", Lo, "sim_op_mean_ms"),
    pl("kvstore.sim.op_p50_ms", "ms", Lo, "sim_op_mean_ms"),
    pl("kvstore.sim.op_p99_ms", "ms", Lo, "sim_op_mean_ms"),
    pl("kvstore.sim.dup_p50_ms", "ms", Lo, "sim_op_mean_ms"),
    pl("kvstore.sim.unique_p50_ms", "ms", Lo, "sim_op_mean_ms"),
    pl("kvstore.sim.cache_hit_rate", "ratio", Hi, "sim_op_mean_ms"),
    pl("kvstore.sim.timeouts", "count", Lo, "sim_op_mean_ms"),
    pl("kvstore.sim.retries", "count", Lo, "sim_op_mean_ms"),
    pl(
        "kvstore.sim.degraded_frac",
        "ratio",
        Lo,
        "wan_bytes_per_input_byte",
    ),
    pl("kvstore.sim.hedges_fired", "count", Lo, "sim_op_mean_ms"),
    pl("kvstore.sim.pop_challenges", "count", Lo, "sim_op_mean_ms"),
    pl(
        "kvstore.sim.spool_enqueued",
        "count",
        Lo,
        "wan_bytes_per_input_byte",
    ),
    pl(
        "kvstore.sim.spool_drained",
        "count",
        Hi,
        "wan_bytes_per_input_byte",
    ),
    pl("kvstore.sim.ae_repairs", "count", Lo, "ingest_mbps"),
    pl("simcore.queue.events_per_s", "1/s", Hi, "ingest_mbps"),
    pl("netsim.network.ns_per_transfer", "ns", Lo, "ingest_mbps"),
    pl("core.run_system.wall_s", "s", Lo, "-"),
    pl("core.run_system.model_lookup_err_pct", "%", Lo, "-"),
    pl("host.clock.kernel_us", "us", Lo, "-"),
    pl("host.clock.range_pct", "%", Lo, "-"),
    pl("host.wall.ingest_mbps", "MB/s", Hi, "ingest_mbps"),
    pl("host.wall.restore_mbps", "MB/s", Hi, "restore_mbps"),
    pl("trace.passes", "count", Hi, "-"),
    pl("trace.wall_s", "s", Lo, "-"),
    pl("trace.coverage", "ratio", Hi, "-"),
    pl("trace.unattributed_s", "s", Lo, "-"),
    pl("trace.overhead_pct", "%", Lo, "-"),
];

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::{self, Json};
    use std::collections::BTreeSet;

    fn name_ok(name: &str) -> bool {
        let mut chars = name.chars();
        chars.next().is_some_and(|c| c.is_ascii_alphanumeric())
            && name.len() <= 64
            && name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
    }

    fn unit_ok(unit: &str) -> bool {
        !unit.is_empty()
            && unit.len() <= 16
            && unit
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '/' | '%' | '.' | '-'))
    }

    #[test]
    fn names_and_units_stay_in_the_contract_charset() {
        let mut seen = BTreeSet::new();
        let names = END_TO_END
            .iter()
            .map(|m| (m.name, m.unit))
            .chain(PER_LAYER.iter().map(|m| (m.name, m.unit)))
            .chain(WORKLOADS.iter().map(|w| (w.name(), "count")));
        for (name, unit) in names {
            assert!(name_ok(name), "bad name {name:?}");
            assert!(unit_ok(unit), "bad unit {unit:?} on {name}");
            assert!(seen.insert(name), "name {name} used twice");
        }
        assert!(!name_ok("-leading") && !name_ok("has space") && !name_ok(""));
        assert!(!unit_ok("10^6 B/s") && unit_ok("MB/s") && unit_ok("%"));
    }

    #[test]
    fn every_moved_metric_exists_and_bounds_are_legal() {
        for m in &PER_LAYER {
            assert!(
                m.moves == "-" || END_TO_END.iter().any(|e| e.name == m.moves),
                "{} moves unknown metric {}",
                m.name,
                m.moves
            );
        }
        for m in &END_TO_END {
            assert!(
                m.bound > 0.0 && m.bound <= 0.25,
                "{} bound {}",
                m.name,
                m.bound
            );
        }
        let setup = END_TO_END.iter().find(|m| m.name == "setup_s").unwrap();
        assert_eq!((setup.unit, setup.better), ("s", Better::Lower));
        assert!(END_TO_END.iter().all(|m| m.bound <= setup.bound));
    }

    /// `BENCHMARK.json` is what the driver reads; it must say what this
    /// file says.
    #[test]
    fn benchmark_json_agrees_with_the_spec() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let doc = json::parse(&std::fs::read_to_string(path).unwrap()).unwrap();
        let list = |key: &str| doc.get(key).unwrap().as_arr().unwrap().to_vec();
        let field = |v: &Json, key: &str| v.get(key).unwrap().as_str().unwrap().to_string();

        let workloads: Vec<String> = list("workloads").iter().map(|w| field(w, "name")).collect();
        assert_eq!(workloads, WORKLOADS.map(|w| w.name().to_string()));

        let e2e = list("end_to_end");
        assert_eq!(e2e.len(), END_TO_END.len());
        for (got, want) in e2e.iter().zip(&END_TO_END) {
            assert_eq!(field(got, "name"), want.name);
            assert_eq!(field(got, "unit"), want.unit);
            assert_eq!(field(got, "better"), want.better.as_str());
            assert_eq!(got.get("bound").unwrap().as_f64(), Some(want.bound));
        }
        let layers = list("per_layer");
        assert_eq!(layers.len(), PER_LAYER.len());
        for (got, want) in layers.iter().zip(&PER_LAYER) {
            assert_eq!(field(got, "name"), want.name);
            assert_eq!(field(got, "unit"), want.unit);
            assert_eq!(field(got, "better"), want.better.as_str());
        }
    }
}
