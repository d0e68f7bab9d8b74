//! The end-to-end integrity sweep: wire bit rot, at-rest storage rot,
//! and a running background scrub must never produce a *false
//! duplicate* (a chunk wrongly judged already-stored would be dropped —
//! data loss), and every corruption the system detects must be resolved
//! through the repair lattice: read-repair from a ring replica, erasure
//! decode at the cloud tier, or an explicit lost-record count. Silence
//! is the only forbidden outcome.

use bytes::Bytes;
use efdedup_repro::cloudstore::{Durability, DurableStore};
use efdedup_repro::kvstore::sweep::{self, Family};
use efdedup_repro::kvstore::{ClientOp, ClusterConfig, Consistency, IntegrityStats, SimCluster};
use efdedup_repro::prelude::*;

/// ≥ 20 seeds of combined wire + storage rot under chaos, cache on (a
/// cached duplicate verdict must stay sound while corruption churns
/// underneath it): the shared oracle holds, and the sweep actually
/// exercises the detection machinery (frames rejected, mismatches found,
/// repairs run).
#[test]
fn corruption_sweep_no_false_duplicates() {
    let family = Family::corruption();
    let mut total = IntegrityStats::default();
    let mut cache = efdedup_repro::kvstore::CacheStats::default();
    for seed in 0..family.seeds {
        let mut run = sweep::run(seed, &family);
        sweep::check(&family, &mut run);
        let cluster = &run.cluster;

        let integ = cluster.integrity();
        // Scrub-path accounting: a detected corruption is repaired,
        // handed to the cloud, or counted lost — never more resolutions
        // than detections.
        assert!(
            integ.read_repairs + integ.cloud_decodes + integ.lost_records <= integ.mismatches_found,
            "seed {seed}: resolved more corruptions than were detected: {integ:?}"
        );
        total.merge(&integ);
        cache.merge(&cluster.cache_stats());
    }
    // The sweep must exercise every detection boundary, or the
    // invariants above are vacuous.
    assert!(total.frames_rejected > 0, "wire rot never rejected a frame");
    assert!(total.mismatches_found > 0, "storage rot was never detected");
    assert!(total.entries_scrubbed > 0, "the scrub never ran");
    assert!(total.read_repairs > 0, "read-repair never fired: {total:?}");
    // And the fingerprint cache must have served verdicts under rot, or
    // its soundness was never tested here.
    assert!(cache.hits > 0, "the fingerprint cache never hit: {cache:?}");
}

/// Exact accounting on planted rot, per seed: one rotted replica is
/// scrub-detected and read-repaired; rotting *every* replica of a key
/// drives the lattice to its explicit-lost tail, which the cloud tier
/// then resolves by erasure-decoding around its own rotted shard.
#[test]
fn planted_rot_walks_the_full_repair_lattice() {
    let Family { keys, seeds, .. } = Family::corruption();
    for seed in 0..seeds {
        let net = Network::new(
            TopologyBuilder::new().edge_site(3).build(),
            NetworkConfig::paper_testbed(),
        );
        let members = net.topology().edge_nodes();
        let mut cluster = SimCluster::new(
            members.clone(),
            net,
            ClusterConfig {
                replication_factor: 2,
                consistency: Consistency::All,
                ..ClusterConfig::default()
            },
        );
        let mut t = SimTime::ZERO;
        let mut payloads = Vec::new();
        for i in 0..keys {
            let key = Bytes::from(format!("sweep-{seed}-{i}"));
            let value = Bytes::from(vec![(seed as u8) ^ (i as u8); 48]);
            payloads.push((key.clone(), value.clone()));
            cluster.submit(t, members[0], ClientOp::Put(key, value));
            t += SimDuration::from_millis(10);
        }
        cluster.run();

        // Leg 1: rot one replica copy; a healthy peer exists (rf = 2,
        // consistency ALL), so the scrub must read-repair it.
        let victim = members[(seed as usize) % members.len()];
        let rotted = cluster
            .node_mut(victim)
            .unwrap()
            .storage_mut()
            .corrupt_nth_value((seed as usize) % 4, (seed as usize) % 8)
            .expect("victim holds at least one value");
        cluster.enable_scrub(SimDuration::from_millis(100), 1 << 20);
        let resume = cluster.now();
        cluster.run_until(resume + SimDuration::from_secs_f64(2.0));
        let integ = cluster.integrity();
        assert_eq!(integ.mismatches_found, 1, "seed {seed}: {integ:?}");
        assert_eq!(integ.read_repairs, 1, "seed {seed}: {integ:?}");
        assert_eq!(integ.lost_records, 0, "seed {seed}: {integ:?}");
        let expected = payloads
            .iter()
            .find(|(k, _)| *k == rotted)
            .map(|(_, v)| v.clone())
            .expect("rotted key came from this workload");
        let repaired = cluster
            .node_mut(victim)
            .unwrap()
            .storage_mut()
            .get_verified(&rotted)
            .expect("repaired entry verifies");
        assert_eq!(repaired.as_deref(), Some(&expected), "seed {seed}");

        // Leg 2: rot the key on *every* node that holds it — no edge
        // replica can serve, so the scrub declares the record lost...
        for &m in &members {
            let node = cluster.node_mut(m).unwrap();
            let slots = node.storage().iter_live().count();
            for nth in 0..slots {
                node.storage_mut().corrupt_nth_value(nth, 2);
            }
        }
        let resume = cluster.now();
        cluster.run_until(resume + SimDuration::from_secs_f64(2.0));
        let lost = cluster.integrity().lost_records;
        assert!(
            lost > 0,
            "seed {seed}: total rot never produced a lost record"
        );

        // ...and the cloud tier resolves it: its erasure-coded copy
        // decodes around a rotted shard, so the record is recovered,
        // not lost.
        let mut cloud = DurableStore::new(6, Durability::ErasureCoded { k: 4, m: 2 })
            .expect("valid cloud config");
        let chunk_hash = ChunkHash::of(&expected);
        cloud
            .put(chunk_hash, expected.clone())
            .expect("clean upload");
        assert!(cloud.corrupt_fragment(&chunk_hash, 1, 6));
        assert_eq!(
            cloud
                .get(&chunk_hash)
                .expect("decode around the rotted shard"),
            expected,
            "seed {seed}"
        );
        cluster.note_cloud_decode(lost);
        let after = cluster.integrity();
        assert_eq!(after.lost_records, 0, "seed {seed}: {after:?}");
        assert_eq!(after.cloud_decodes, lost, "seed {seed}: {after:?}");
    }
}

/// With faults disabled the scrub is pure overhead: its work shows up in
/// the integrity accounting, but every dedup verdict and latency is
/// bit-identical to a run without it.
#[test]
fn scrub_overhead_leaves_clean_results_bit_identical() {
    let family = Family::corruption();
    let run = |scrub: bool| {
        let net = family.network();
        let members = net.topology().edge_nodes();
        let mut cluster = SimCluster::new(members.clone(), net, ClusterConfig::default());
        if scrub {
            cluster.enable_scrub(SimDuration::from_millis(200), 32 * 1024);
        }
        let mut t = SimTime::ZERO + SimDuration::from_millis(13);
        for rep in 0..family.repeats {
            for k in 0..family.keys {
                let coordinator = members[((rep * family.keys + k) as usize) % members.len()];
                let key = Bytes::from(k.to_be_bytes().to_vec());
                cluster.submit(t, coordinator, ClientOp::CheckAndInsert(key.clone(), key));
                t += SimDuration::from_millis(97);
            }
        }
        let done = cluster.run_until(SimTime::ZERO + SimDuration::from_secs_f64(20.0));
        (done, cluster.integrity())
    };
    let (baseline, quiet) = run(false);
    let (scrubbed, accounting) = run(true);
    assert_eq!(
        baseline, scrubbed,
        "scrub changed dedup results on a clean run"
    );
    assert!(quiet.is_quiet(), "fault-free baseline saw integrity events");
    assert!(accounting.entries_scrubbed > 0, "scrub never scanned");
    assert!(accounting.scrub_bytes > 0);
    assert_eq!(accounting.mismatches_found, 0, "clean data failed scrub");
    assert_eq!(accounting.frames_rejected, 0);
}
