//! Standalone replays for the traced run: a layer driven alone with the
//! pass's own key or payload sequence, so a busy time measured around a
//! composite call (`check_and_insert`, `DurableStore::put`) can be split
//! into the parts below it. All plain host wall time (the caller restates
//! it in reference seconds); nothing here feeds an end-to-end metric.

use bytes::Bytes;
use ef_chunking::{ChunkHash, Chunker, GearChunker};
use ef_erasure::ReedSolomon;
use ef_kvstore::{StorageEngine, WriteAheadLog};
use ef_netsim::{Network, NetworkConfig, Topology};
use ef_simcore::{SimDuration, SimTime, Simulator};
use std::collections::BTreeSet;
use std::time::Instant;

fn ns_per(start: Instant, n: usize) -> f64 {
    start.elapsed().as_nanos() as f64 / n.max(1) as f64
}

/// `(ns_per_put, ns_per_contains, ns_per_append)`: the pass's key sequence
/// against a bare `StorageEngine` (first sightings put, then every key
/// looked up) and its first sightings appended to a bare `WriteAheadLog`,
/// configured as `ClusterConfig::default()` configures a node's.
pub fn storage_and_wal(keys: &[ChunkHash]) -> (f64, f64, f64) {
    let config = ef_kvstore::ClusterConfig::default();
    let mut seen = BTreeSet::new();
    let firsts: Vec<Bytes> = keys
        .iter()
        .filter(|k| seen.insert(**k))
        .map(|k| Bytes::copy_from_slice(k.as_bytes()))
        .collect();
    let present = Bytes::from_static(&[1]);

    let mut engine = StorageEngine::new(config.memtable_flush_bytes);
    let start = Instant::now();
    for key in &firsts {
        engine.put(key.clone(), present.clone());
    }
    let put = ns_per(start, firsts.len());

    let start = Instant::now();
    let mut hits = 0usize;
    for key in keys {
        hits += usize::from(engine.contains(key.as_bytes()));
    }
    let contains = ns_per(start, keys.len());
    assert_eq!(hits, keys.len(), "every replayed key was put");

    let mut wal = WriteAheadLog::new(config.wal_snapshot_every);
    let start = Instant::now();
    for key in &firsts {
        wal.append_put(key, &present);
    }
    let append = ns_per(start, firsts.len());
    std::hint::black_box(wal.len_bytes());
    (put, contains, append)
}

/// `(encode_mbps, reconstruct_mbps)`: the corpus's first-sighting payloads
/// (up to `byte_cap`) through `ReedSolomon(4,2)` alone — the share of
/// `cloudstore.durable` put/get that is coding.
pub fn erasure(files: &[Vec<u8>], gear: &GearChunker, byte_cap: usize) -> (f64, f64) {
    let rs = ReedSolomon::new(4, 2).expect("RS(4,2) is valid");
    let mut seen = BTreeSet::new();
    let (mut bytes, mut encode_ns, mut reconstruct_ns) = (0usize, 0u128, 0u128);
    'files: for file in files {
        for chunk in gear.chunk(file) {
            if !seen.insert(chunk.hash) {
                continue;
            }
            let start = Instant::now();
            let shards = rs.encode(&chunk.data).expect("payload encodes");
            encode_ns += start.elapsed().as_nanos();
            let shards: Vec<Option<Vec<u8>>> = shards.into_iter().map(Some).collect();
            let start = Instant::now();
            let back = rs
                .reconstruct(&shards, chunk.len())
                .expect("all shards present");
            reconstruct_ns += start.elapsed().as_nanos();
            assert_eq!(back.len(), chunk.len());
            bytes += chunk.len();
            if bytes >= byte_cap {
                break 'files;
            }
        }
    }
    let mbps = |ns: u128| bytes as f64 / 1e6 / (ns as f64 / 1e9);
    (mbps(encode_ns), mbps(reconstruct_ns))
}

/// Events per host second through `ef_simcore::Simulator`: `events`
/// schedule/pop pairs at a standing queue depth of 1 024.
pub fn event_queue(events: u64) -> f64 {
    let mut sim: Simulator<u64> = Simulator::new();
    for i in 0..1024u64 {
        sim.schedule_after(SimDuration::from_micros(1 + i % 97), i);
    }
    let start = Instant::now();
    let mut popped = 0u64;
    while popped < events {
        let ev = sim.step().expect("queue never drains");
        popped += 1;
        sim.schedule_after(
            SimDuration::from_micros(1 + ev.payload % 97),
            ev.payload + 1,
        );
    }
    popped as f64 / start.elapsed().as_secs_f64()
}

/// Host ns per `Network::transfer` of one 4 KiB frame between edge nodes
/// of `topology`, round-robin over ordered pairs.
pub fn network_transfer(topology: &Topology, transfers: u64) -> f64 {
    let nodes = topology.edge_nodes();
    let mut network = Network::new(topology.clone(), NetworkConfig::paper_testbed());
    let start = Instant::now();
    for i in 0..transfers {
        let src = nodes[i as usize % nodes.len()];
        let dst = nodes[(i as usize / nodes.len() + 1 + i as usize) % nodes.len()];
        let now = SimTime::ZERO + SimDuration::from_micros(i * 10);
        let arrival = network
            .transfer(now, src, dst, 4096)
            .expect("edge node has an uplink");
        std::hint::black_box(arrival);
    }
    ns_per(start, transfers as usize)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn replays_run_and_report_positive_rates() {
        let setup = crate::real::setup(true, 3, true);
        let (put, contains, append) = storage_and_wal(&setup.keys);
        assert!(put > 0.0 && contains > 0.0 && append > 0.0);
        let (enc, rec) = erasure(&setup.files, &setup.gear, 1 << 20);
        assert!(enc > 0.0 && rec > 0.0);
        assert!(event_queue(10_000) > 0.0);
        let topology = ef_netsim::TopologyBuilder::new()
            .edge_sites(4, 2)
            .cloud_site(1)
            .build();
        assert!(network_transfer(&topology, 1_000) > 0.0);
    }
}
