//! Chaos layer demo: dedup under message loss, partitions and crashes.
//!
//! Generates a seeded fault schedule, rigs it onto the simulated edge
//! network, pushes a batch of check-and-insert ops through the D2-ring
//! index and reports how the cluster coped: retries, timeouts, degraded
//! "assume unique" resolutions and dropped messages. Re-running with the
//! same seed reproduces the run bit for bit.
//!
//! ```bash
//! cargo run --release --example chaos_demo            # default seed 7
//! cargo run --release --example chaos_demo -- 42      # pick a seed
//! ```

use bytes::Bytes;
use efdedup_repro::core::system::RobustnessMetrics;
use efdedup_repro::kvstore::sweep::{self, Family, Route, Stop};
use efdedup_repro::kvstore::OpResult;
use efdedup_repro::simcore::SimDuration;

fn main() {
    let seed: u64 = std::env::args()
        .nth(1)
        .map(|s| s.parse().expect("seed must be a u64"))
        .unwrap_or(7);

    // The chaos family's three 2-node edge sites and default fault mix.
    // Each chunk hash is inserted twice from different coordinators: the
    // second sighting should dedup unless faults forced degraded mode.
    let keys = 16u32;
    let family = Family {
        keys,
        repeats: 2,
        first_op: SimDuration::ZERO,
        route: Route::Rotate,
        stop: Stop::Settled(|_, _| true), // when every op has resolved
        arm: &|cluster, _| {
            cluster.enable_heartbeats(SimDuration::from_millis(100), SimDuration::from_millis(350));
        },
        chunk: &|k| {
            let key = Bytes::from(format!("chunk-{k:04}"));
            (key.clone(), key)
        },
        ..Family::chaos()
    };
    let mut run = sweep::run(seed, &family);
    sweep::check(&family, &mut run);
    println!("== chaos schedule (seed {seed}) ==\n");
    for ev in run.scenario.events() {
        println!("  {ev:?}");
    }
    let (done, cluster) = (run.done, run.cluster);

    println!("\n== op outcomes ==\n");
    let (mut uniques, mut dups, mut degraded) = (0u32, 0u32, 0u32);
    for sweep::Completed { key, op } in &done {
        let key = key.expect("the default mix tears no coordinator down");
        if let OpResult::Dedup {
            unique,
            degraded: d,
        } = op.result
        {
            if unique {
                uniques += 1;
            } else {
                dups += 1;
            }
            if d {
                degraded += 1;
                println!(
                    "  chunk-{key:04}: degraded assume-unique at {:?} (quorum unreachable)",
                    op.finished
                );
            }
        }
    }
    println!(
        "\n  {} ops resolved: {uniques} unique, {dups} duplicate, {degraded} degraded",
        done.len()
    );
    assert!(
        uniques >= keys,
        "soundness: every chunk must be unique at least once"
    );

    let r = RobustnessMetrics::from_sim(&cluster);
    println!("\n== robustness counters ==\n");
    println!("  {:<40} {}", "messages_dropped", r.messages_dropped);
    for c in r.fields().filter(|c| c.value != 0) {
        let name = format!("{}::{}", c.family, c.name);
        println!("  {name:<40} {:<8} {:?}", c.value, c.class);
    }
    println!("\n  quiet: {}", r.is_quiet());
}
