//! Adversarial schedules against bare [`NodeState`]s — no driver, no
//! clock: the test is the network. A schedule interleaves client ops with
//! every event a coordinator can meet (see [`Kind`]) and checks, after
//! every step, what no interleaving may break:
//!
//! * an op completes at most once, with the result shape of its kind
//!   (`degraded` exists only on check-and-insert verdicts);
//! * `Dedup { unique: false }` only for a key in the oracle set — keys
//!   some op has started inserting (a write frame left a coordinator, or
//!   a verdict said unique) — and never on a forged sighting;
//! * nothing is thrown away: whatever an op would retransmit, it has
//!   transmitted (every frame a transition produced reached the caller);
//! * once the wire is drained and every pending op timed out, no node
//!   holds a pending op and every op has its completion.

#![expect(
    clippy::expect_used,
    clippy::panic,
    clippy::unwrap_used,
    clippy::wildcard_enum_match_arm,
    reason = "a test target: its helpers fail the test where a schedule goes wrong"
)]

use bytes::Bytes;
use ef_kvstore::{
    ClientOp, ClusterConfig, Completion, Consistency, HashRing, Message, NodeState, OpId, OpResult,
    Outbound, Summed,
};
use ef_netsim::NodeId;
use ef_simcore::prop::{any, check, vec};
use std::collections::{BTreeMap, BTreeSet};

const KEYS: usize = 6;
const GET: usize = 0;
const PUT: usize = 1;
const CAI: usize = 2;

/// One schedule step: what happens, and two indices that wrap to
/// whatever exists when it runs.
#[derive(Debug, Clone, Copy)]
struct Step(Kind, usize, usize);

#[derive(Debug, Clone, Copy)]
enum Kind {
    /// Node `a` begins an op of kind `b % 4` (two in four are
    /// check-and-inserts) on key `b / 4`.
    Begin,
    Deliver,
    Duplicate,
    Drop,
    /// Re-deliver an answer with its `from` rewritten to the next node.
    WrongPeer,
    /// In an armed world, deliver a `ReadResp` to a check-and-insert
    /// that has no other sighting, its value forged as the payload with
    /// byte `b` flipped: the right length, the wrong bytes.
    Forge,
    Retry,
    Hedge,
    Timeout,
    MarkDown,
    PeerFailed,
    MarkUp,
    /// Node `a` holds key `b`'s bytes from before the schedule began (an
    /// earlier ownership): what a hedged read to a backup can find.
    Plant,
}
use Kind::*;

/// How often each kind is drawn.
const MIX: [Kind; 24] = [
    Begin, Begin, Begin, Begin, Deliver, Deliver, Deliver, Deliver, Deliver, Deliver, Deliver,
    Deliver, Duplicate, Drop, WrongPeer, Forge, Retry, Hedge, Hedge, Timeout, MarkDown, PeerFailed,
    MarkUp, Plant,
];

fn begin(kind: usize, key: usize) -> Step {
    Step(Begin, 0, key * 4 + kind)
}

fn key(i: usize) -> Bytes {
    Bytes::from(format!("chunk-{}", i % KEYS).into_bytes())
}

/// Content-addressed: one payload per key, so honest sightings verify.
fn payload(key: &Bytes) -> Bytes {
    Bytes::from([&b"payload-of-"[..], &key[..]].concat().repeat(8))
}

struct World {
    nodes: Vec<NodeState>,
    /// Frames in flight, oldest first: (sender, frame).
    wire: Vec<(NodeId, Outbound)>,
    /// (destination, frame checksum) of every frame ever put on the wire.
    handed: BTreeSet<(NodeId, u64)>,
    ops: Vec<(OpId, usize, Bytes)>,
    /// The oracle: keys some op has started inserting.
    inserting: BTreeSet<Bytes>,
    /// Ops whose coordinator has been handed a positive `ReadResp`.
    sighted: BTreeSet<OpId>,
    /// (step index, completion) in emission order.
    log: Vec<(usize, Completion)>,
    step: usize,
}

impl World {
    fn new(n: usize, consistency: Consistency, pop: bool) -> World {
        let ring = HashRing::with_nodes((0..n as u32).map(NodeId), 32);
        let config = ClusterConfig {
            consistency,
            ..ClusterConfig::default()
        };
        let mut nodes: Vec<_> = (0..n as u32)
            .map(|i| NodeState::new(NodeId(i), ring.clone(), &config))
            .collect();
        if pop {
            nodes.iter_mut().for_each(NodeState::arm_pop);
        }
        World {
            nodes,
            wire: Vec::new(),
            handed: BTreeSet::new(),
            ops: Vec::new(),
            inserting: BTreeSet::new(),
            sighted: BTreeSet::new(),
            log: Vec::new(),
            step: 0,
        }
    }

    /// A key none of whose replicas is `node`.
    fn key_avoiding(&self, node: u32) -> (usize, Vec<NodeId>) {
        let found = (0..KEYS).find_map(|i| {
            let reps = self.nodes[0].ring().replicas(&key(i), 2);
            (!reps.contains(&NodeId(node))).then_some((i, reps))
        });
        found.expect("some key avoids the node")
    }

    fn send(&mut self, from: NodeId, outbound: Vec<Outbound>) {
        for ob in outbound {
            if let Message::ReplicaWrite { key, value, .. } | Message::HintReplay { key, value } =
                &ob.msg
            {
                if value.is_some() {
                    self.inserting.insert(key.clone());
                }
            }
            self.handed.insert((ob.to, ob.msg.frame_checksum()));
            self.wire.push((from, ob));
        }
    }

    fn settle(&mut self, completions: impl IntoIterator<Item = Completion>, forged: bool) {
        for c in completions {
            let id = c.op_id;
            let (_, kind, key) = self.ops.iter().find(|op| op.0 == id).unwrap();
            match (&c.result, *kind) {
                (OpResult::Value(_), GET) | (OpResult::Written, PUT) => {}
                (OpResult::Unavailable { .. } | OpResult::TimedOut { .. }, GET | PUT) => {}
                (OpResult::Dedup { unique: true, .. }, CAI) => {
                    self.inserting.insert(key.clone());
                }
                (OpResult::Dedup { unique: false, .. }, CAI) => {
                    assert!(!forged, "{id:?}: duplicate verdict on a forged sighting");
                    assert!(self.inserting.contains(key), "{id:?}: false duplicate");
                }
                _ => panic!("{c:?} for an op of kind {kind}"),
            }
            let again = self.log.iter().any(|(_, earlier)| earlier.op_id == id);
            assert!(!again, "{id:?} completed twice");
            self.log.push((self.step, c));
        }
    }

    fn deliver(&mut self, from: NodeId, ob: Outbound, forged: bool) {
        if let Message::ReadResp {
            op_id,
            value: Some(_),
            ..
        } = &ob.msg
        {
            self.sighted.insert(*op_id);
        }
        let (out, completions) = self.nodes[ob.to.0 as usize].on_message(from, ob.msg);
        self.send(ob.to, out);
        self.settle(completions, forged);
    }

    /// Index of the first in-flight frame at or (cyclically) after `i`
    /// that `want` accepts.
    fn pick(&self, i: usize, want: impl Fn(&Message) -> bool) -> Option<usize> {
        let len = self.wire.len();
        let mut from_i = (0..len).map(|d| (i + d) % len);
        from_i.find(|&j| want(&self.wire[j].1.msg))
    }

    fn apply(&mut self, Step(kind, a, b): Step) {
        let n = self.nodes.len();
        match kind {
            Begin => {
                let (at, kind, key) = (a % n, (b % 4).min(CAI), key(b / 4));
                let client_op = match kind {
                    GET => ClientOp::Get(key.clone()),
                    PUT => {
                        self.inserting.insert(key.clone());
                        ClientOp::Put(key.clone(), payload(&key))
                    }
                    _ => ClientOp::CheckAndInsert(key.clone(), payload(&key)),
                };
                let (op_id, out, completion) = self.nodes[at].begin(client_op);
                self.ops.push((op_id, kind, key));
                self.send(NodeId(at as u32), out);
                self.settle(completion, false);
            }
            Deliver | Duplicate | Drop => {
                let Some(j) = self.pick(a, |_| true) else {
                    return;
                };
                let (from, ob) = match kind {
                    Duplicate => self.wire[j].clone(),
                    _ => self.wire.remove(j),
                };
                if !matches!(kind, Drop) {
                    self.deliver(from, ob, false);
                }
            }
            WrongPeer => {
                let Some(j) = self.pick(a, |m| claimed_sender(&mut m.clone()).is_some()) else {
                    return;
                };
                let (_, mut ob) = self.wire[j].clone();
                let from = claimed_sender(&mut ob.msg).expect("picked an answer");
                *from = NodeId((from.0 + 1) % n as u32);
                let from = *from;
                self.deliver(from, ob, false);
            }
            Forge => {
                // Only where the forgery would be the op's first sighting
                // (none delivered, no local copy at the coordinator): a
                // duplicate verdict on this delivery can rest on nothing
                // else.
                if !self.nodes[0].pop_armed() {
                    return;
                }
                let mut fresh = BTreeMap::new();
                for (id, kind, key) in &self.ops {
                    let coordinator = &self.nodes[id.coordinator.0 as usize];
                    let held = coordinator.storage().contains(key);
                    if *kind == CAI && !held && !self.sighted.contains(id) {
                        fresh.insert(*id, key.clone());
                    }
                }
                let forgeable = |m: &Message| match m {
                    Message::ReadResp { op_id, .. } => fresh.contains_key(op_id),
                    _ => false,
                };
                let Some(j) = self.pick(a, forgeable) else {
                    return;
                };
                let (from, mut ob) = self.wire.remove(j);
                if let Message::ReadResp { op_id, value, .. } = &mut ob.msg {
                    let mut bytes = payload(&fresh[op_id]).to_vec();
                    let at = b % bytes.len();
                    bytes[at] ^= 1;
                    *value = Some(Summed::digest(Bytes::from(bytes)));
                }
                self.deliver(from, ob, true);
            }
            Retry | Hedge | Timeout => {
                let Some(&(id, ..)) = self.ops.get(a % self.ops.len().max(1)) else {
                    return;
                };
                let node = &mut self.nodes[id.coordinator.0 as usize];
                let (out, completion) = match kind {
                    Retry => (node.retry_outstanding(id), None),
                    Hedge => (Vec::from_iter(node.hedge(id, &BTreeSet::new())), None),
                    _ => node.timeout_op(id),
                };
                self.send(id.coordinator, out);
                self.settle(completion, false);
            }
            Plant => {
                let key = key(b);
                self.inserting.insert(key.clone());
                let storage = self.nodes[a % n].storage_mut();
                storage.put(key.clone(), payload(&key));
            }
            MarkDown | PeerFailed | MarkUp => {
                let (a, peer) = (a % n, NodeId((b % n) as u32));
                match kind {
                    _ if peer.0 as usize == a => {}
                    MarkDown => self.nodes[a].mark_down(peer),
                    MarkUp => {
                        let out = self.nodes[a].mark_up(peer);
                        self.send(NodeId(a as u32), out);
                    }
                    _ => {
                        let (out, completions) = self.nodes[a].on_peer_failure(peer);
                        self.send(NodeId(a as u32), out);
                        self.settle(completions, false);
                    }
                }
            }
        }
    }

    /// Whatever a pending op would retransmit, it has transmitted.
    fn nothing_thrown_away(&mut self) {
        for (id, ..) in &self.ops {
            for ob in self.nodes[id.coordinator.0 as usize].retry_outstanding(*id) {
                let handed = self.handed.contains(&(ob.to, ob.msg.frame_checksum()));
                assert!(
                    handed,
                    "{id:?} awaits an answer to a frame never sent: {ob:?}"
                );
            }
        }
    }

    fn play(&mut self, steps: &[Step]) {
        for &step in steps {
            self.apply(step);
            self.nothing_thrown_away();
            self.step += 1;
        }
    }

    /// Delivers everything in flight and times out everything pending
    /// until both run dry, then checks nothing is left behind.
    fn drain(&mut self) {
        for _ in 0..8 {
            while !self.wire.is_empty() {
                self.apply(Step(Deliver, 0, 0));
            }
            for i in 0..self.ops.len() {
                self.apply(Step(Timeout, i, 0));
            }
        }
        assert!(self.wire.is_empty(), "the wire never ran dry");
        for node in &self.nodes {
            assert_eq!(node.pending_count(), 0, "{} kept a pending op", node.id());
        }
        assert_eq!(self.log.len(), self.ops.len(), "an op never completed");
    }

    /// (step index, result) of every completion so far.
    fn results(&self) -> Vec<(usize, &OpResult)> {
        self.log.iter().map(|(at, c)| (*at, &c.result)).collect()
    }
}

/// The `from` an answer frame claims.
fn claimed_sender(msg: &mut Message) -> Option<&mut NodeId> {
    match msg {
        Message::WriteAck { from, .. } | Message::ReadResp { from, .. } => Some(from),
        _ => None,
    }
}

#[test]
fn no_schedule_breaks_the_coordinator() {
    let step = (0usize..MIX.len(), any::<u8>(), any::<u8>());
    check(
        "no_schedule_breaks_the_coordinator",
        384,
        (3usize..6, 0u8..3, any::<bool>(), vec(step, 1..200)),
        |(n, level, pop, draws)| {
            let consistency = [Consistency::One, Consistency::Quorum, Consistency::All];
            let mut world = World::new(n, consistency[level as usize], pop);
            let steps = draws.into_iter();
            let steps = steps.map(|(kind, a, b)| Step(MIX[kind], a as usize, b as usize));
            world.play(&steps.collect::<Vec<_>>());
            world.drain();
        },
    );
}

/// `node.rs`'s former hand cases, as pinned schedules under the same
/// checks. Coordinator 0 throughout; both replicas of the key are remote.
#[test]
fn duplicate_ack_is_ignored() {
    let mut w = World::new(3, Consistency::All, false);
    let (k, _) = w.key_avoiding(0);
    w.play(&[
        begin(PUT, k),         // wire: W→a, W→b
        Step(Deliver, 0, 0),   // W→b, ack(a)
        Step(Duplicate, 1, 0), // ack(a) counts once...
        Step(Deliver, 1, 0),   // ...however often it arrives
        Step(Deliver, 0, 0),   // ack(b)
    ]);
    assert!(w.log.is_empty(), "duplicate ack completed the op");
    w.play(&[Step(Deliver, 0, 0)]);
    assert_eq!(w.results(), [(5, &OpResult::Written)]);
    w.drain();
}

#[test]
fn peer_failure_mid_op_resolves_unavailable() {
    let mut w = World::new(3, Consistency::All, false);
    let (k, reps) = w.key_avoiding(0);
    let fail = |peer: NodeId| Step(PeerFailed, 0, peer.0 as usize);
    w.play(&[begin(PUT, k), fail(reps[0]), fail(reps[1])]);
    let (acks, required) = (0, 2);
    let unavailable = OpResult::Unavailable { acks, required };
    assert_eq!(w.results(), [(2, &unavailable)]);
    w.drain();
}

#[test]
fn read_repair_backfills_stale_replica() {
    let mut w = World::new(3, Consistency::One, false);
    let (k, reps) = w.key_avoiding(0);
    w.play(&[
        begin(PUT, k),       // W→holder, W→stale
        Step(Drop, 1, 0),    // the stale replica misses the write
        Step(Deliver, 0, 0), // ack(holder)
        Step(Deliver, 0, 0), // Written
        begin(GET, k),       // R→holder, R→stale
        Step(Deliver, 1, 0), // R→holder, resp(stale: None)
        Step(Deliver, 1, 0), // ONE is met: the read resolves not-found...
        Step(Deliver, 0, 0), // resp(holder: Some)
        Step(Deliver, 0, 0), // ...and the straggler's value repairs `stale`
    ]);
    let resolved = [(3, &OpResult::Written), (6, &OpResult::Value(None))];
    assert_eq!(w.results(), resolved);
    assert_eq!(w.nodes[0].stats().coordinator.repairs_sent, 1);
    let [(_, repair)] = &w.wire[..] else {
        panic!("expected one repair write, found {:?}", w.wire);
    };
    let repaired = matches!(&repair.msg, Message::ReplicaWrite { value: Some(_), .. });
    assert!(repaired && repair.to == reps[1], "{repair:?}");
    w.drain();
}

/// A check-and-insert under ALL loses its read quorum to a peer failure
/// after the other replica answered "not found": the write phase it
/// flips into owes that live replica a `ReplicaWrite`, and the frame
/// must come back from `on_peer_failure` (it used to be thrown away,
/// leaving the op waiting on an answer to a request nobody sent).
#[test]
fn peer_failure_hands_back_the_write_fan_out() {
    let mut w = World::new(3, Consistency::All, false);
    let (k, reps) = w.key_avoiding(0);
    w.play(&[
        begin(CAI, k),       // R→a, R→b
        Step(Deliver, 0, 0), // R→b, resp(a: None)
        Step(Deliver, 1, 0), // a's "not found" is in; b is still owed
        Step(PeerFailed, 0, reps[1].0 as usize),
    ]);
    let [(_, to_b), (_, to_a)] = &w.wire[..] else {
        panic!("expected the stale read and one write, found {:?}", w.wire);
    };
    assert!(matches!(to_b.msg, Message::ReplicaRead { .. }) && to_b.to == reps[1]);
    assert!(matches!(to_a.msg, Message::ReplicaWrite { .. }) && to_a.to == reps[0]);
    let op_id = w.ops[0].0;
    assert_eq!(w.nodes[0].outstanding_peers(op_id), [reps[0]]);
    w.play(&[Step(Deliver, 1, 0), Step(Deliver, 1, 0)]); // W→a, then its ack
    let (unique, degraded) = (true, true);
    assert_eq!(w.results(), [(5, &OpResult::Dedup { unique, degraded })]);
    w.drain();
}

/// A forgery of the right length under ONE: the payload with one byte
/// flipped meets the read quorum, fails the possession check, and the op
/// inserts instead of skipping the upload.
#[test]
fn a_sighting_one_byte_off_is_struck_and_the_op_inserts() {
    let mut w = World::new(3, Consistency::One, true);
    let (k, _) = w.key_avoiding(0);
    w.play(&[
        begin(CAI, k),       // R→a, R→b
        Step(Deliver, 0, 0), // R→b, resp(a: None)
        Step(Forge, 1, 5),   // resp(a) arrives as the payload, byte 5 flipped
    ]);
    assert!(w.log.is_empty(), "{:?}", w.log);
    let byz = w.nodes[0].stats().byzantine;
    assert_eq!((byz.challenges_issued, byz.challenges_failed), (1, 1));
    let is_write = |ob: &Outbound| matches!(ob.msg, Message::ReplicaWrite { .. });
    let writes = w.wire.iter().filter(|(_, ob)| is_write(ob)).count();
    assert_eq!(writes, 2, "expected the write fan-out, found {:?}", w.wire);
    w.drain();
    let unique = matches!(w.results()[..], [(_, OpResult::Dedup { unique: true, .. })]);
    assert!(unique, "{:?}", w.results());
}
