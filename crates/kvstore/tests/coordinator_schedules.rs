//! Adversarial schedules against bare [`NodeState`]s — no driver, no
//! clock: the test is the network. A schedule interleaves client ops with
//! every event a coordinator can meet (frames delivered, duplicated,
//! dropped, acked by the wrong peer, forged proofs, RTO retries, hedges,
//! timeouts, peer failures and revivals) and checks, after every step,
//! what no interleaving may break:
//!
//! * an op completes at most once, with the result shape of its kind
//!   (`degraded` exists only on check-and-insert verdicts);
//! * `Dedup { unique: false }` only for a key in the oracle set — keys
//!   some op has started inserting (a write frame left a coordinator, or
//!   a verdict said unique) — and never as the answer to a forged proof;
//! * once the wire is drained and every pending op timed out, no node
//!   holds a pending op and every op has its completion.

use bytes::Bytes;
use ef_kvstore::{
    ClientOp, ClusterConfig, Completion, Consistency, HashRing, Message, NodeState, OpId, OpResult,
    Outbound,
};
use ef_netsim::NodeId;
use ef_simcore::prop::{any, check, vec};
use std::collections::{BTreeMap, BTreeSet};

const KEYS: usize = 6;
const GET: usize = 0;
const PUT: usize = 1;
const CAI: usize = 2;

/// One schedule step; indices wrap to whatever exists when it runs.
#[derive(Debug, Clone, Copy)]
enum Step {
    Begin {
        at: usize,
        kind: usize,
        key: usize,
    },
    Deliver(usize),
    Duplicate(usize),
    Drop(usize),
    /// Re-deliver an ack with its `from` rewritten to the next node.
    WrongPeer(usize),
    /// Deliver a `PopResponse` with its digest replaced.
    Forge(usize),
    Retry(usize),
    Hedge(usize),
    Timeout(usize),
    MarkDown(usize, usize),
    PeerFailure(usize, usize),
    MarkUp(usize, usize),
    /// A node holds a key's bytes from before the schedule began (an
    /// earlier ownership): what a hedged read to a backup can find.
    Plant(usize, usize),
}

impl Step {
    fn from_draw((tag, a, b): (u8, usize, usize)) -> Step {
        match tag {
            0..=3 => Step::Begin {
                at: a,
                kind: (b % 4).min(CAI),
                key: b / 4,
            },
            4..=11 => Step::Deliver(a),
            12 => Step::Duplicate(a),
            13 => Step::Drop(a),
            14 => Step::WrongPeer(a),
            15 => Step::Forge(a),
            16 => Step::Retry(a),
            17 | 18 => Step::Hedge(a),
            19 => Step::Timeout(a),
            20 => Step::MarkDown(a, b),
            21 => Step::PeerFailure(a, b),
            22 => Step::MarkUp(a, b),
            _ => Step::Plant(a, b),
        }
    }
}

fn key(i: usize) -> Bytes {
    Bytes::from(format!("chunk-{}", i % KEYS).into_bytes())
}

/// Content-addressed: one payload per key, so honest proofs verify.
fn payload(key: &Bytes) -> Bytes {
    Bytes::from([&b"payload-of-"[..], &key[..]].concat().repeat(8))
}

struct World {
    nodes: Vec<NodeState>,
    /// Frames in flight, oldest first: (sender, frame).
    wire: Vec<(NodeId, Outbound)>,
    /// (destination, frame checksum) of every frame handed to the wire.
    handed: BTreeSet<(NodeId, u64)>,
    ops: Vec<(OpId, usize, Bytes)>,
    done: BTreeMap<OpId, OpResult>,
    /// The oracle: keys some op has started inserting.
    inserting: BTreeSet<Bytes>,
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
        let nodes = (0..n as u32).map(|i| {
            let mut node = NodeState::new(NodeId(i), ring.clone(), &config);
            if pop {
                node.arm_pop(0x5eed);
            }
            node
        });
        World {
            nodes: nodes.collect(),
            wire: Vec::new(),
            handed: BTreeSet::new(),
            ops: Vec::new(),
            done: BTreeMap::new(),
            inserting: BTreeSet::new(),
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

    fn settle(&mut self, completions: Vec<Completion>, forged: bool) {
        for c in completions {
            let (_, kind, key) = self.ops.iter().find(|(id, ..)| *id == c.op_id).unwrap();
            let failed = matches!(
                c.result,
                OpResult::Unavailable { .. } | OpResult::TimedOut { .. }
            );
            match (&c.result, *kind) {
                (OpResult::Value(_), GET) | (OpResult::Written, PUT) => {}
                (OpResult::Dedup { unique: true, .. }, CAI) => {
                    self.inserting.insert(key.clone());
                }
                (OpResult::Dedup { unique: false, .. }, CAI) => {
                    assert!(
                        !forged,
                        "{:?}: duplicate verdict on a forged proof",
                        c.op_id
                    );
                    assert!(
                        self.inserting.contains(key),
                        "{:?}: false duplicate",
                        c.op_id
                    );
                }
                _ => assert!(failed && *kind != CAI, "{c:?} for an op of kind {kind}"),
            }
            let again = self.done.insert(c.op_id, c.result.clone());
            assert!(again.is_none(), "{:?} completed twice", c.op_id);
            self.log.push((self.step, c));
        }
    }

    fn deliver(&mut self, from: NodeId, ob: Outbound, forged: bool) {
        let (out, completions) = self.nodes[ob.to.0 as usize].on_message(from, ob.msg);
        self.send(ob.to, out);
        self.settle(completions, forged);
    }

    /// Index of the first in-flight frame at or (cyclically) after `i`
    /// that `want` accepts.
    fn pick(&self, i: usize, want: impl Fn(&Message) -> bool) -> Option<usize> {
        let len = self.wire.len();
        (0..len)
            .map(|d| (i + d) % len)
            .find(|&j| want(&self.wire[j].1.msg))
    }

    fn apply(&mut self, step: Step) {
        let n = self.nodes.len();
        let op = |i: usize| self.ops.get(i % self.ops.len().max(1)).map(|o| o.0);
        match step {
            Step::Begin { at, kind, key: k } => {
                let (key, at) = (key(k), at % n);
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
                self.settle(completion.into_iter().collect(), false);
            }
            Step::Deliver(i) | Step::Duplicate(i) | Step::Drop(i) => {
                let Some(j) = self.pick(i, |_| true) else {
                    return;
                };
                let (from, ob) = match step {
                    Step::Duplicate(_) => self.wire[j].clone(),
                    _ => self.wire.remove(j),
                };
                if !matches!(step, Step::Drop(_)) {
                    self.deliver(from, ob, false);
                }
            }
            Step::WrongPeer(i) => {
                let is_ack = |m: &Message| {
                    matches!(
                        m,
                        Message::WriteAck { .. }
                            | Message::ReadResp { .. }
                            | Message::PopResponse { .. }
                    )
                };
                let Some(j) = self.pick(i, is_ack) else {
                    return;
                };
                let (_, mut ob) = self.wire[j].clone();
                let (Message::WriteAck { from, .. }
                | Message::ReadResp { from, .. }
                | Message::PopResponse { from, .. }) = &mut ob.msg
                else {
                    return;
                };
                *from = NodeId((from.0 + 1) % n as u32);
                let from = *from;
                self.deliver(from, ob, false);
            }
            Step::Forge(i) => {
                let Some(j) = self.pick(i, |m| matches!(m, Message::PopResponse { .. })) else {
                    return;
                };
                let (from, mut ob) = self.wire.remove(j);
                if let Message::PopResponse { held, digest, .. } = &mut ob.msg {
                    (*held, digest[0]) = (true, !digest[0]);
                }
                self.deliver(from, ob, true);
            }
            Step::Retry(i) => {
                if let Some(id) = op(i) {
                    let out = self.nodes[id.coordinator.0 as usize].retry_outstanding(id);
                    self.send(id.coordinator, out);
                }
            }
            Step::Hedge(i) => {
                if let Some(id) = op(i) {
                    let out = self.nodes[id.coordinator.0 as usize].hedge(id, &BTreeSet::new());
                    self.send(id.coordinator, out.into_iter().collect());
                }
            }
            Step::Timeout(i) => {
                if let Some(id) = op(i) {
                    let (out, c) = self.nodes[id.coordinator.0 as usize].timeout_op(id);
                    self.send(id.coordinator, out);
                    self.settle(c.into_iter().collect(), false);
                }
            }
            Step::Plant(a, k) => {
                let key = key(k);
                self.inserting.insert(key.clone());
                self.nodes[a % n]
                    .storage_mut()
                    .put(key.clone(), payload(&key));
            }
            Step::MarkDown(a, b) | Step::PeerFailure(a, b) | Step::MarkUp(a, b) => {
                let (a, peer) = (a % n, NodeId((b % n) as u32));
                if peer == NodeId(a as u32) {
                    return;
                }
                match step {
                    Step::MarkDown(..) => self.nodes[a].mark_down(peer),
                    Step::MarkUp(..) => {
                        let out = self.nodes[a].mark_up(peer);
                        self.send(NodeId(a as u32), out);
                    }
                    _ => {
                        let completions = self.nodes[a].on_peer_failure(peer);
                        self.settle(completions, false);
                    }
                }
            }
        }
    }

    fn play(&mut self, steps: &[Step]) {
        for &step in steps {
            self.apply(step);
            self.step += 1;
        }
    }

    /// Delivers everything in flight and times out everything pending
    /// until both run dry, then checks nothing is left behind.
    fn drain(&mut self) {
        for _ in 0..8 {
            while !self.wire.is_empty() {
                self.apply(Step::Deliver(0));
            }
            for i in 0..self.ops.len() {
                self.apply(Step::Timeout(i));
            }
        }
        assert!(self.wire.is_empty(), "the wire never ran dry");
        for node in &self.nodes {
            assert_eq!(node.pending_count(), 0, "{} kept a pending op", node.id());
        }
        assert_eq!(self.done.len(), self.ops.len(), "an op never completed");
    }

    fn completions_at(&self, step: usize) -> Vec<&OpResult> {
        let at = self.log.iter().filter(|(s, _)| *s == step);
        at.map(|(_, c)| &c.result).collect()
    }
}

#[test]
fn no_schedule_breaks_the_coordinator() {
    let step = (0u8..24, any::<u8>(), any::<u8>());
    check(
        "no_schedule_breaks_the_coordinator",
        384,
        (3usize..6, 0u8..3, any::<bool>(), vec(step, 1..200)),
        |(n, level, pop, draws)| {
            let consistency = [Consistency::One, Consistency::Quorum, Consistency::All];
            let mut world = World::new(n, consistency[level as usize], pop);
            let steps = draws
                .into_iter()
                .map(|(tag, a, b)| Step::from_draw((tag, a as usize, b as usize)));
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
        Step::Begin {
            at: 0,
            kind: PUT,
            key: k,
        }, // wire: W→a, W→b
        Step::Deliver(0),   // W→b, ack(a)
        Step::Duplicate(1), // ack(a) counts once...
        Step::Deliver(1),   // ...however often it arrives
        Step::Deliver(0),   // ack(b)
    ]);
    assert!(w.log.is_empty(), "duplicate ack completed the op");
    w.play(&[Step::Deliver(0)]);
    assert_eq!(w.completions_at(5), [&OpResult::Written]);
    w.drain();
}

#[test]
fn peer_failure_mid_op_resolves_unavailable() {
    let mut w = World::new(3, Consistency::All, false);
    let (k, reps) = w.key_avoiding(0);
    w.play(&[
        Step::Begin {
            at: 0,
            kind: PUT,
            key: k,
        },
        Step::PeerFailure(0, reps[0].0 as usize),
        Step::PeerFailure(0, reps[1].0 as usize),
    ]);
    let unavailable = OpResult::Unavailable {
        acks: 0,
        required: 2,
    };
    assert_eq!(w.completions_at(2), [&unavailable]);
    assert_eq!(w.log.len(), 1);
    w.drain();
}

#[test]
fn read_repair_backfills_stale_replica() {
    let mut w = World::new(3, Consistency::One, false);
    let (k, reps) = w.key_avoiding(0);
    let stale = reps[1];
    let begin = |kind| Step::Begin {
        at: 0,
        kind,
        key: k,
    };
    w.play(&[
        begin(PUT),       // W→holder, W→stale
        Step::Drop(1),    // the stale replica misses the write
        Step::Deliver(0), // ack(holder)
        Step::Deliver(0), // Written
        begin(GET),       // R→holder, R→stale
        Step::Deliver(1), // R→holder, resp(stale: None)
        Step::Deliver(1), // ONE is met: the read resolves not-found...
        Step::Deliver(0), // resp(holder: Some)
        Step::Deliver(0), // ...and the straggler's value repairs `stale`
    ]);
    assert_eq!(w.completions_at(3), [&OpResult::Written]);
    assert_eq!(w.completions_at(6), [&OpResult::Value(None)]);
    assert_eq!(w.log.len(), 2);
    assert_eq!(w.nodes[0].stats().coordinator.repairs_sent, 1);
    let [(_, repair)] = &w.wire[..] else {
        panic!("expected one repair write, found {:?}", w.wire);
    };
    assert_eq!(repair.to, stale);
    assert!(matches!(
        &repair.msg,
        Message::ReplicaWrite { value: Some(_), .. }
    ));
    w.drain();
}
