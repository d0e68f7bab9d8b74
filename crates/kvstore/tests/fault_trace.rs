//! Pins what every sweep family's cluster-side faults do to a run. Each
//! family of [`sweep::Family::all`] runs at seeds 0 and 1 through
//! [`sweep::run`], which applies its scenario to the cluster; one digest
//! per family folds every completion (op id, result, start and finish
//! time), every counter the cluster reports, and the network's message
//! and byte totals.
//!
//! Together the families reach all nine cluster-side fault kinds: crash
//! and revive (chaos), storage rot (corruption), storage stall (gray),
//! cloud and ring outages (disaster, byzantine), crash-stop, restart and
//! departure (recovery). A scenario that reached the cluster with a kind
//! left out, or scheduled in another order, moves a digest.

use ef_kvstore::sweep::{self, Family};

/// FNV-1a over bytes.
struct Digest(u64);

impl Digest {
    fn bytes(&mut self, bytes: &[u8]) {
        for &byte in bytes {
            self.0 = (self.0 ^ u64::from(byte)).wrapping_mul(0x0100_0000_01b3);
        }
    }

    fn fold(&mut self, word: u64) {
        self.bytes(&word.to_le_bytes());
    }
}

/// The digest of one family's runs at seeds 0 and 1.
fn family_digest(family: &Family) -> u64 {
    let mut d = Digest(0xcbf2_9ce4_8422_2325);
    for seed in [0, 1] {
        let run = sweep::run(seed, family);
        d.fold(run.done.len() as u64);
        for c in &run.done {
            d.fold(u64::from(c.op.op_id.coordinator.0));
            d.fold(c.op.op_id.seq);
            d.bytes(format!("{:?}", c.op.result).as_bytes());
            d.fold(c.op.started.as_nanos());
            d.fold(c.op.finished.as_nanos());
        }
        let cluster = &run.cluster;
        let counters = [
            cluster
                .coordinator_stats()
                .fields()
                .map(|c| c.value)
                .collect::<Vec<_>>(),
            cluster.recovery_stats().fields().map(|c| c.value).collect(),
            cluster.integrity().fields().map(|c| c.value).collect(),
            cluster.disaster_stats().fields().map(|c| c.value).collect(),
            cluster.gray_stats().fields().map(|c| c.value).collect(),
            cluster
                .byzantine_stats()
                .fields()
                .map(|c| c.value)
                .collect(),
            cluster.cache_stats().fields().map(|c| c.value).collect(),
        ];
        for value in counters.iter().flatten() {
            d.fold(*value);
        }
        d.fold(cluster.network().messages_sent());
        d.fold(cluster.network().bytes_sent());
    }
    d.0
}

#[test]
fn every_family_fault_trace_is_pinned() {
    let got: Vec<String> = Family::all()
        .iter()
        .map(|family| format!("{} {:#018x}", family.name, family_digest(family)))
        .collect();
    let pinned = [
        "chaos 0xa3eeea830444f80f",
        "corruption 0x9c9253bf289440a0",
        "gray 0xac674e65666a1bac",
        "disaster 0x1db928884ff5e44c",
        "byzantine 0x617ba1a300fa70ba",
        "recovery 0x27b7bbdf550a943a",
    ];
    assert_eq!(got, pinned, "a family's fault trace moved");
}
