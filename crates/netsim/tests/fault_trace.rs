//! Pins the verdict trace of a [`FaultPlan`] that mixes every fault
//! family. Windows of each kind are registered interleaved by kind, over
//! several scopes, and ~2,000 messages are judged through
//! [`Network::send_framed`] at rising times over every ordered node pair.
//! One digest folds each verdict (dropped, clean or corrupt, with its
//! arrival time), the service-time factors the message was charged, and
//! the answer of every zero-draw oracle at that instant.
//!
//! The digest holds the plan to its RNG draw order: partitions and
//! blackouts draw nothing, then every active loss window draws in
//! registration order, then every active bit-rot window. A plan that
//! walked its windows in one registration-order pass would interleave
//! loss and rot draws and move the digest.

use ef_netsim::{
    ByzantineFault, FaultPlan, FaultScope, Network, NetworkConfig, NodeId, SiteId, TopologyBuilder,
};
use ef_simcore::{SimDuration, SimTime};

fn at(secs: f64) -> SimTime {
    SimTime::from_secs_f64(secs)
}

/// Three edge sites of two nodes (n0..n5) and a one-node cloud (n6).
fn network() -> Network {
    let topology = TopologyBuilder::new()
        .edge_site(2)
        .edge_site(2)
        .edge_site(2)
        .cloud_site(1)
        .build();
    Network::new(topology, NetworkConfig::paper_testbed())
}

/// Windows of every surviving family, interleaved by kind: a rot window
/// sits between two loss windows, so loss and rot draws only stay apart
/// if the plan keeps their families apart.
fn plan() -> FaultPlan {
    let (a, b, c, cloud) = (SiteId(0), SiteId(1), SiteId(2), SiteId(3));
    FaultPlan::new(0x5eed)
        .loss(FaultScope::All, 0.05)
        .bitrot(FaultScope::ToNode(NodeId(3)), 0.2)
        .slow_node(NodeId(1), 3.0, at(1.0), at(6.0))
        .partition(a, b, at(2.0), at(3.5))
        .byzantine(NodeId(4), ByzantineFault::LieOnLookup, at(0.5), at(8.0))
        .loss_window(FaultScope::SitePair(b, c), 0.3, at(1.5), at(7.0))
        .throttle(FaultScope::Site(cloud), 2.5, at(3.0), at(9.0))
        .bitrot(FaultScope::Site(c), 0.1)
        .blackout(FaultScope::Site(cloud), at(4.0), at(5.0))
        .loss_window(FaultScope::FromNode(NodeId(2)), 0.4, at(0.0), at(4.5))
        .byzantine(NodeId(5), ByzantineFault::ServeGarbage, at(1.0), at(3.0))
        .slow_node(NodeId(5), 1.5, at(2.5), at(8.5))
        .throttle(FaultScope::SitePair(a, c), 4.0, at(0.0), at(5.0))
        .bitrot(FaultScope::Link(NodeId(0), NodeId(6)), 0.5)
        .loss_window(FaultScope::ToNode(NodeId(6)), 0.15, at(6.0), at(9.5))
        .blackout(FaultScope::Link(NodeId(3), NodeId(0)), at(5.5), at(7.5))
        .byzantine(
            NodeId(4),
            ByzantineFault::EquivocateSummary,
            at(2.0),
            at(6.0),
        )
        .partition(b, c, at(7.5), at(8.0))
        .byzantine(NodeId(2), ByzantineFault::HintFlood, at(3.0), at(9.0))
        .slow_node(NodeId(1), 2.0, at(4.0), at(5.0))
}

/// FNV-1a over 64-bit words.
struct Digest(u64);

impl Digest {
    fn fold(&mut self, word: u64) {
        for byte in word.to_le_bytes() {
            self.0 = (self.0 ^ u64::from(byte)).wrapping_mul(0x0100_0000_01b3);
        }
    }
}

/// Folds the service factors and every zero-draw oracle's answer for a
/// message from `src` to `dst` at `t`, and counts in `hits` how often
/// each factor stretched and each oracle said yes.
fn observe(
    plan: &mut FaultPlan,
    net: &Network,
    (t, src, dst): (SimTime, NodeId, NodeId),
    d: &mut Digest,
    hits: &mut [u64; 9],
) {
    let (src_site, dst_site) = (net.topology().site_of(src), net.topology().site_of(dst));
    let (slow, bandwidth) = plan.service_factors(t, src, dst, src_site, dst_site);
    d.fold(slow.to_bits());
    d.fold(bandwidth.to_bits());
    let answers = [
        slow > 1.0,
        bandwidth > 1.0,
        plan.is_slow_at(src, t),
        plan.blacked_out(src, dst, src_site, dst_site, t),
        plan.partitioned(src_site, dst_site, t),
        plan.lies_on_lookup_at(src, t),
        plan.serves_garbage_at(src, t),
        plan.equivocates_at(src, t),
        plan.hint_floods_at(src, t),
    ];
    for (hit, answer) in hits.iter_mut().zip(answers) {
        *hit += u64::from(answer);
        d.fold(u64::from(answer));
    }
}

#[test]
fn mixed_plan_verdict_trace_is_pinned() {
    let mut oracle = plan();
    let mut net = network();
    net.set_fault_plan(plan());
    let nodes = net.topology().node_count() as u64;
    let mut d = Digest(0xcbf2_9ce4_8422_2325);
    let (mut dropped, mut corrupt, mut hits) = (0u64, 0u64, [0u64; 9]);
    let mut x = 0x9e37_79b9_7f4a_7c15u64;
    for i in 0..2_000u64 {
        // xorshift64: which link, and how many bytes.
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        let src = NodeId((x % nodes) as u32);
        let dst = NodeId((x / nodes % nodes) as u32);
        let bytes = 64 + (x >> 32) % 16_384;
        let t = SimTime::ZERO + SimDuration::from_micros(4_750 * i);
        observe(&mut oracle, &net, (t, src, dst), &mut d, &mut hits);
        match net.send_framed(t, src, dst, bytes).unwrap() {
            None => {
                dropped += 1;
                d.fold(0);
            }
            Some(delivery) => {
                corrupt += u64::from(delivery.corrupt);
                d.fold(1 + u64::from(delivery.corrupt));
                d.fold(delivery.arrival.as_nanos());
            }
        }
    }
    for node in oracle.byzantine_nodes() {
        d.fold(u64::from(node.0));
    }
    // Every family acted on the trace, so the digest pins each of them.
    assert_eq!(net.messages_dropped(), dropped);
    assert_eq!(net.messages_corrupted(), corrupt);
    assert_eq!((dropped, corrupt), (329, 139));
    // Stretched slow and bandwidth factors, then the oracles in call order.
    assert_eq!(hits, [341, 504, 341, 90, 69, 203, 69, 95, 189]);
    assert_eq!(d.0, 0x32b0_2828_4bf2_a2ed, "verdict trace moved");
}
