//! Durable chunk placement across cloud storage nodes: γ-way replication
//! or Reed–Solomon erasure coding (the paper's future-work extension).

use crate::catalog::Manifest;
use bytes::Bytes;
use ef_chunking::{Chunk, ChunkHash};
use ef_erasure::ReedSolomon;
use std::collections::BTreeMap;
use std::fmt;

/// The durability scheme for stored chunks.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Durability {
    /// Keep `copies` full replicas (storage overhead `copies`×,
    /// tolerates `copies − 1` node losses).
    Replicated {
        /// Number of full copies.
        copies: usize,
    },
    /// Reed–Solomon `(k, m)`: `k` data + `m` parity shards (overhead
    /// `1 + m/k`×, tolerates `m` node losses).
    ErasureCoded {
        /// Data shards.
        k: usize,
        /// Parity shards.
        m: usize,
    },
}

impl Durability {
    /// Storage overhead factor relative to the raw payload.
    pub fn overhead(&self) -> f64 {
        match self {
            Durability::Replicated { copies } => *copies as f64,
            Durability::ErasureCoded { k, m } => 1.0 + *m as f64 / *k as f64,
        }
    }

    /// Number of node losses the scheme tolerates.
    pub fn fault_tolerance(&self) -> usize {
        match self {
            Durability::Replicated { copies } => copies - 1,
            Durability::ErasureCoded { m, .. } => *m,
        }
    }

    fn fragments(&self) -> usize {
        match self {
            Durability::Replicated { copies } => *copies,
            Durability::ErasureCoded { k, m } => k + m,
        }
    }
}

/// Errors from the durable store.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DurableError {
    /// Scheme/node-count combination is infeasible.
    InvalidConfig(String),
    /// The chunk is not stored.
    UnknownChunk(ChunkHash),
    /// Too many fragments are on failed nodes to reconstruct.
    Unrecoverable(ChunkHash),
    /// The payload failed checksum verification: a corrupted upload was
    /// refused, or every readable copy has rotted beyond repair.
    Corrupt(ChunkHash),
}

impl fmt::Display for DurableError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DurableError::InvalidConfig(msg) => write!(f, "invalid configuration: {msg}"),
            DurableError::UnknownChunk(h) => write!(f, "unknown chunk {h}"),
            DurableError::Unrecoverable(h) => {
                write!(f, "chunk {h} unrecoverable: too many fragments lost")
            }
            DurableError::Corrupt(h) => write!(f, "chunk {h} failed checksum verification"),
        }
    }
}

impl std::error::Error for DurableError {}

/// A chunk store spread over `nodes` cloud storage nodes under a
/// [`Durability`] scheme.
///
/// # Example
///
/// ```
/// use ef_cloudstore::{Durability, DurableStore};
/// use ef_chunking::ChunkHash;
/// use bytes::Bytes;
///
/// // 6 storage nodes, RS(4,2): 1.5x overhead, tolerates 2 failures.
/// let mut store = DurableStore::new(6, Durability::ErasureCoded { k: 4, m: 2 })?;
/// let data = Bytes::from_static(b"valuable chunk bytes");
/// let hash = ChunkHash::of(&data);
/// store.put(hash, data.clone())?;
/// store.fail_node(0);
/// store.fail_node(3);
/// assert_eq!(store.get(&hash)?, data);
/// # Ok::<(), ef_cloudstore::DurableError>(())
/// ```
#[derive(Debug, Clone)]
pub struct DurableStore {
    durability: Durability,
    rs: Option<ReedSolomon>,
    node_count: usize,
    failed: Vec<bool>,
    /// Every stored chunk with all of its fragments.
    chunks: BTreeMap<ChunkHash, StoredChunk>,
    next_spread: usize,
}

#[derive(Debug, Clone)]
struct StoredChunk {
    /// Original payload length.
    len: usize,
    /// First node holding a fragment; fragment `f` lives on node
    /// `(base + f) % nodes`.
    base: usize,
    /// The fragments back to back, equally long: fragment `f` is the
    /// `f`-th `fragments.len() / n`-byte stretch. Under erasure coding
    /// this is the coder's flat output (payload, padding, parity); under
    /// replication, the payload once per copy.
    fragments: Bytes,
}

impl DurableStore {
    /// Creates a store over `node_count` storage nodes.
    ///
    /// # Errors
    ///
    /// [`DurableError::InvalidConfig`] when the scheme needs more
    /// fragments than there are nodes, or parameters are degenerate.
    pub fn new(node_count: usize, durability: Durability) -> Result<Self, DurableError> {
        let fragments = durability.fragments();
        if fragments == 0 {
            return Err(DurableError::InvalidConfig("zero fragments".into()));
        }
        if fragments > node_count {
            return Err(DurableError::InvalidConfig(format!(
                "{fragments} fragments need at least {fragments} nodes, have {node_count}"
            )));
        }
        let rs = match durability {
            Durability::Replicated { copies } => {
                if copies == 0 {
                    return Err(DurableError::InvalidConfig("zero copies".into()));
                }
                None
            }
            Durability::ErasureCoded { k, m } => Some(
                ReedSolomon::new(k, m).map_err(|e| DurableError::InvalidConfig(e.to_string()))?,
            ),
        };
        Ok(DurableStore {
            durability,
            rs,
            node_count,
            failed: vec![false; node_count],
            chunks: BTreeMap::new(),
            next_spread: 0,
        })
    }

    /// The configured durability scheme.
    pub fn durability(&self) -> Durability {
        self.durability
    }

    /// Stores a chunk (idempotent: re-putting an existing hash is a
    /// no-op).
    ///
    /// # Errors
    ///
    /// [`DurableError::Corrupt`] when `data` does not hash to `hash`
    /// (the upload was damaged in flight; nothing is stored).
    pub fn put(&mut self, hash: ChunkHash, data: Bytes) -> Result<(), DurableError> {
        if ChunkHash::of(&data) != hash {
            return Err(DurableError::Corrupt(hash));
        }
        if self.chunks.contains_key(&hash) {
            return Ok(());
        }
        let base = self.next_spread;
        self.next_spread = (self.next_spread + 1) % self.node_count;
        let fragments = match &self.rs {
            None => data.repeat(self.durability.fragments()),
            Some(rs) => rs.encode_flat(&data),
        };
        self.chunks.insert(
            hash,
            StoredChunk {
                len: data.len(),
                base,
                fragments: Bytes::from(fragments),
            },
        );
        Ok(())
    }

    /// Reads a chunk, reconstructing from surviving fragments. Every
    /// returned payload is verified against its content address; rotted
    /// replicas are skipped in favour of clean ones, and under erasure
    /// coding a single rotted shard is rebuilt from parity.
    ///
    /// # Errors
    ///
    /// [`DurableError::UnknownChunk`], [`DurableError::Unrecoverable`],
    /// or [`DurableError::Corrupt`] when fragments are readable but no
    /// combination of them yields bytes that hash to the address.
    pub fn get(&self, hash: &ChunkHash) -> Result<Bytes, DurableError> {
        let chunk = self
            .chunks
            .get(hash)
            .ok_or(DurableError::UnknownChunk(*hash))?;
        let fragments = self.durability.fragments();
        let fragment_len = chunk.fragments.len() / fragments;
        // Fragment `f`'s stretch of the buffer, unless its node is down.
        let readable = |f: usize| -> Option<std::ops::Range<usize>> {
            let up = !self.failed[(chunk.base + f) % self.node_count];
            up.then_some(f * fragment_len..(f + 1) * fragment_len)
        };
        match &self.rs {
            None => {
                // Any surviving replica serves — but only after its bytes
                // re-hash to the chunk's address. A rotted replica is as
                // bad as a failed node; the scan moves on past it.
                let mut replicas = (0..fragments).filter_map(readable).peekable();
                if replicas.peek().is_none() {
                    return Err(DurableError::Unrecoverable(*hash));
                }
                replicas
                    .find(|replica| ChunkHash::of(&chunk.fragments[replica.clone()]) == *hash)
                    .map(|replica| chunk.fragments.slice(replica))
                    .ok_or(DurableError::Corrupt(*hash))
            }
            Some(rs) => {
                let k = rs.data_shards();
                let shards = || -> Vec<Option<&[u8]>> {
                    (0..fragments)
                        .map(|f| readable(f).map(|stretch| &chunk.fragments[stretch]))
                        .collect()
                };
                // The code is systematic and the data shards lead the
                // buffer: with all of them readable the payload is the
                // buffer's head, and a healthy read copies, decodes and
                // collects nothing. Otherwise the decoder's output is the
                // one copy.
                let data = if (0..k).all(|f| readable(f).is_some()) {
                    chunk.fragments.slice(..chunk.len)
                } else {
                    rs.reconstruct(&shards(), chunk.len)
                        .map(Bytes::from)
                        .map_err(|_| DurableError::Unrecoverable(*hash))?
                };
                if ChunkHash::of(&data) == *hash {
                    return Ok(data);
                }
                // A present shard rotted in place. Parity absorbs that
                // too: drop each readable shard in turn and let the
                // decoder rebuild it from the survivors.
                let mut shards = shards();
                for f in 0..fragments {
                    let Some(suspect) = shards[f].take() else {
                        continue;
                    };
                    if let Ok(rebuilt) = rs.reconstruct(&shards, chunk.len) {
                        let rebuilt = Bytes::from(rebuilt);
                        if ChunkHash::of(&rebuilt) == *hash {
                            return Ok(rebuilt);
                        }
                    }
                    shards[f] = Some(suspect);
                }
                Err(DurableError::Corrupt(*hash))
            }
        }
    }

    /// Stores a file's chunks in order — a repeat, or a chunk an earlier
    /// file brought, is kept once — and returns the file's recipe.
    ///
    /// # Errors
    ///
    /// [`DurableError::Corrupt`] naming the first chunk whose payload
    /// does not hash to its address. No recipe is returned; the chunks
    /// before it stay stored, as single [`DurableStore::put`]s would
    /// leave them.
    pub fn store_file(&mut self, chunks: &[Chunk]) -> Result<Manifest, DurableError> {
        let mut manifest = Manifest {
            chunks: Vec::with_capacity(chunks.len()),
            total_len: 0,
        };
        for chunk in chunks {
            self.put(chunk.hash, chunk.data.clone())?;
            manifest.chunks.push((chunk.hash, chunk.len() as u32));
            manifest.total_len += chunk.len() as u64;
        }
        Ok(manifest)
    }

    /// Reassembles a file from its recipe, every chunk read through
    /// [`DurableStore::get`]: verified, and rebuilt around failed nodes
    /// and rotted fragments within the scheme's tolerance.
    ///
    /// # Errors
    ///
    /// The first chunk's error that [`DurableStore::get`] returns; rot is
    /// reported, never reassembled into a file.
    pub fn restore(&self, manifest: &Manifest) -> Result<Vec<u8>, DurableError> {
        // The recipe states the length: one allocation, no grow-and-copy.
        let mut file = Vec::with_capacity(usize::try_from(manifest.total_len).unwrap_or(0));
        for (hash, _) in &manifest.chunks {
            file.extend_from_slice(&self.get(hash)?);
        }
        Ok(file)
    }

    /// Flips one bit of the stored copy of fragment `fragment` — fault
    /// injection for integrity tests. Returns `false` when the chunk is
    /// unknown or that fragment holds no bytes.
    pub fn corrupt_fragment(&mut self, hash: &ChunkHash, fragment: usize, bit: usize) -> bool {
        let fragments = self.durability.fragments();
        let Some(chunk) = self.chunks.get_mut(hash) else {
            return false;
        };
        let fragment_len = chunk.fragments.len() / fragments;
        if fragment_len == 0 {
            return false;
        }
        let mut raw = chunk.fragments.to_vec();
        let b = (fragment % fragments) * fragment_len * 8 + bit % (fragment_len * 8);
        raw[b / 8] ^= 1 << (b % 8);
        chunk.fragments = Bytes::from(raw);
        true
    }

    /// Marks a storage node failed (its fragments become unreadable).
    ///
    /// # Panics
    ///
    /// Panics for an out-of-range node index.
    pub fn fail_node(&mut self, node: usize) {
        self.failed[node] = true;
    }

    /// Recovers a failed node (its fragments become readable again; a
    /// real system would re-replicate — our fragments are retained).
    ///
    /// # Panics
    ///
    /// Panics for an out-of-range node index.
    pub fn recover_node(&mut self, node: usize) {
        self.failed[node] = false;
    }

    /// Total physical bytes across all storage nodes.
    pub fn physical_bytes(&self) -> u64 {
        self.chunks
            .values()
            .map(|chunk| chunk.fragments.len() as u64)
            .sum()
    }

    /// Total logical (original chunk) bytes stored.
    pub fn logical_bytes(&self) -> u64 {
        self.chunks.values().map(|m| m.len as u64).sum()
    }

    /// Distinct chunks stored.
    pub fn chunk_count(&self) -> usize {
        self.chunks.len()
    }

    /// Whether `hash` is stored (regardless of current node failures).
    pub fn contains(&self, hash: &ChunkHash) -> bool {
        self.chunks.contains_key(hash)
    }

    /// The hashes of every stored chunk, in hash order.
    ///
    /// The durable tier is the recovery catalog: after an edge ring loses
    /// a node, this is the ground truth a re-upload audit compares the
    /// ring's index against.
    pub fn hashes(&self) -> impl Iterator<Item = &ChunkHash> {
        self.chunks.keys()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn chunk(i: u32) -> (ChunkHash, Bytes) {
        let b = Bytes::from(vec![(i % 251) as u8; 64 + (i as usize % 32)]);
        (ChunkHash::of(&b), b)
    }

    /// A file made of `chunk(i)` for each `i` in `ids`: its chunks and
    /// its bytes.
    fn file(ids: impl IntoIterator<Item = u32>) -> (Vec<Chunk>, Vec<u8>) {
        let mut bytes = Vec::new();
        let chunks = ids
            .into_iter()
            .map(|i| {
                let (h, b) = chunk(i);
                let offset = bytes.len() as u64;
                bytes.extend_from_slice(&b);
                Chunk::with_hash(offset, b, h)
            })
            .collect();
        (chunks, bytes)
    }

    #[test]
    fn config_validation() {
        assert!(DurableStore::new(2, Durability::ErasureCoded { k: 4, m: 2 }).is_err());
        assert!(DurableStore::new(2, Durability::Replicated { copies: 3 }).is_err());
        assert!(DurableStore::new(6, Durability::ErasureCoded { k: 4, m: 2 }).is_ok());
        assert!(DurableStore::new(3, Durability::Replicated { copies: 3 }).is_ok());
    }

    #[test]
    fn replication_tolerates_copies_minus_one() {
        let mut s = DurableStore::new(4, Durability::Replicated { copies: 3 }).unwrap();
        let (h, b) = chunk(1);
        s.put(h, b.clone()).unwrap();
        let (chunks, bytes) = file(0..10);
        let manifest = s.store_file(&chunks).unwrap();
        s.fail_node(0);
        s.fail_node(1);
        assert_eq!(s.get(&h).unwrap(), b);
        assert_eq!(s.restore(&manifest).unwrap(), bytes);
    }

    #[test]
    fn erasure_tolerates_m_failures_everywhere() {
        let mut s = DurableStore::new(6, Durability::ErasureCoded { k: 4, m: 2 }).unwrap();
        let (chunks, bytes) = file(0..40);
        let manifest = s.store_file(&chunks).unwrap();
        assert_eq!(manifest.chunk_count(), 40);
        assert_eq!(manifest.total_len, bytes.len() as u64);
        s.fail_node(1);
        s.fail_node(4);
        for c in &chunks {
            assert_eq!(s.get(&c.hash).unwrap(), c.data);
        }
        assert_eq!(s.restore(&manifest).unwrap(), bytes);
    }

    #[test]
    fn beyond_tolerance_is_unrecoverable_for_some_chunk() {
        let mut s = DurableStore::new(6, Durability::ErasureCoded { k: 4, m: 2 }).unwrap();
        let payloads: Vec<(ChunkHash, Bytes)> = (0..20).map(chunk).collect();
        for (h, b) in &payloads {
            s.put(*h, b.clone()).unwrap();
        }
        for n in 0..3 {
            s.fail_node(n);
        }
        // With 3 of 6 nodes down and 6 fragments per chunk, every chunk
        // lost 3 > m fragments.
        for (h, _) in &payloads {
            assert!(matches!(
                s.get(h).unwrap_err(),
                DurableError::Unrecoverable(_)
            ));
        }
        // Recovery restores readability.
        s.recover_node(0);
        for (h, b) in &payloads {
            assert_eq!(&s.get(h).unwrap(), b);
        }
    }

    #[test]
    fn erasure_overhead_below_replication() {
        let mut rep = DurableStore::new(6, Durability::Replicated { copies: 3 }).unwrap();
        let mut ec = DurableStore::new(6, Durability::ErasureCoded { k: 4, m: 2 }).unwrap();
        for i in 0..50 {
            let (h, b) = chunk(i);
            rep.put(h, b.clone()).unwrap();
            ec.put(h, b).unwrap();
        }
        assert_eq!(rep.logical_bytes(), ec.logical_bytes());
        let rep_factor = rep.physical_bytes() as f64 / rep.logical_bytes() as f64;
        let ec_factor = ec.physical_bytes() as f64 / ec.logical_bytes() as f64;
        assert!((rep_factor - 3.0).abs() < 1e-9);
        // Same fault tolerance (2 losses) at roughly half the overhead;
        // shard padding adds a little over the ideal 1.5.
        assert!(ec_factor < 1.6, "erasure factor {ec_factor}");
        assert_eq!(
            rep.durability().fault_tolerance(),
            ec.durability().fault_tolerance()
        );
    }

    #[test]
    fn put_is_idempotent() {
        let mut s = DurableStore::new(3, Durability::Replicated { copies: 2 }).unwrap();
        let (h, b) = chunk(9);
        s.put(h, b.clone()).unwrap();
        let before = s.physical_bytes();
        s.put(h, b).unwrap();
        assert_eq!(s.physical_bytes(), before);
        assert_eq!(s.chunk_count(), 1);
        // A file that is that chunk a hundred times over adds nothing
        // and restores whole; the empty file is the empty recipe.
        let (chunks, bytes) = file([9; 100]);
        let manifest = s.store_file(&chunks).unwrap();
        assert_eq!(manifest.chunk_count(), 100);
        assert_eq!(s.physical_bytes(), before);
        assert_eq!(s.chunk_count(), 1);
        assert_eq!(s.restore(&manifest).unwrap(), bytes);
        let empty = s.store_file(&[]).unwrap();
        assert_eq!((empty.chunk_count(), empty.total_len), (0, 0));
        assert_eq!(s.restore(&empty).unwrap(), Vec::<u8>::new());
    }

    #[test]
    fn corrupt_upload_is_rejected() {
        let mut s = DurableStore::new(3, Durability::Replicated { copies: 2 }).unwrap();
        let (h, _) = chunk(1);
        let tampered = Bytes::from_static(b"not what was hashed");
        assert_eq!(
            s.put(h, tampered.clone()).unwrap_err(),
            DurableError::Corrupt(h)
        );
        // The same payload arriving as a file's chunk: refused by name,
        // and the file leaves no recipe behind.
        assert_eq!(
            s.store_file(&[Chunk {
                offset: 0,
                data: tampered,
                hash: h
            }])
            .unwrap_err(),
            DurableError::Corrupt(h)
        );
        assert_eq!(s.chunk_count(), 0);
        assert_eq!(s.physical_bytes(), 0);
    }

    #[test]
    fn replica_rot_is_skipped_in_favor_of_a_clean_copy() {
        let mut s = DurableStore::new(4, Durability::Replicated { copies: 3 }).unwrap();
        let (h, b) = chunk(2);
        s.put(h, b.clone()).unwrap();
        assert!(s.corrupt_fragment(&h, 1, 9));
        assert_eq!(s.get(&h).unwrap(), b);
        // Rot every copy and the read degrades to a typed error.
        s.corrupt_fragment(&h, 0, 3);
        s.corrupt_fragment(&h, 2, 17);
        assert!(matches!(s.get(&h).unwrap_err(), DurableError::Corrupt(_)));
    }

    #[test]
    fn erasure_decode_repairs_a_rotted_shard() {
        let mut s = DurableStore::new(6, Durability::ErasureCoded { k: 4, m: 2 }).unwrap();
        let (h, b) = chunk(3);
        let (chunks, bytes) = file(1..6);
        let manifest = s.store_file(&chunks).unwrap();
        assert!(s.corrupt_fragment(&h, 2, 11));
        assert_eq!(s.get(&h).unwrap(), b, "parity absorbs one rotted shard");
        // One node down *and* one rotted shard still decodes (m = 2):
        // the recipe is valid and the file comes back whole.
        s.fail_node(5);
        assert_eq!(s.get(&h).unwrap(), b);
        assert_eq!(s.restore(&manifest).unwrap(), bytes);
        // A second rotted shard exhausts the parity budget, and the
        // restore names the chunk.
        s.corrupt_fragment(&h, 0, 4);
        assert_eq!(s.get(&h).unwrap_err(), DurableError::Corrupt(h));
        assert_eq!(s.restore(&manifest).unwrap_err(), DurableError::Corrupt(h));
    }

    /// What happens to one fragment position in the lattice below.
    #[derive(Debug, Clone, Copy, PartialEq)]
    enum Fault {
        NodeFailed,
        BitRotted,
    }

    /// A fresh RS(4,2) store over six nodes holding one chunk, so fragment
    /// `f` lives on node `f`, with `faults` applied.
    fn rs42_with_faults(faults: &[(usize, Fault)]) -> (DurableStore, ChunkHash, Bytes) {
        let mut s = DurableStore::new(6, Durability::ErasureCoded { k: 4, m: 2 }).unwrap();
        let b = Bytes::from(
            (0..4099u32)
                .map(|i| (i * 7 % 251) as u8)
                .collect::<Vec<u8>>(),
        );
        let h = ChunkHash::of(&b);
        s.put(h, b.clone()).unwrap();
        for &(position, fault) in faults {
            match fault {
                Fault::NodeFailed => s.fail_node(position),
                Fault::BitRotted => assert!(s.corrupt_fragment(&h, position, 8 * 100 + 3)),
            }
        }
        (s, h, b)
    }

    #[test]
    fn rs42_read_lattice_over_every_fault_set_within_tolerance() {
        use Fault::{BitRotted, NodeFailed};
        // No fault, and every single fault: byte-exact.
        let (s, h, b) = rs42_with_faults(&[]);
        assert_eq!(s.get(&h).unwrap(), b);
        for a in 0..6 {
            for fault in [NodeFailed, BitRotted] {
                let (s, h, b) = rs42_with_faults(&[(a, fault)]);
                assert_eq!(s.get(&h).unwrap(), b, "{fault:?} at {a}");
            }
        }
        // Every pair of positions under every mix of the two faults.
        for a in 0..6 {
            for b_pos in a + 1..6 {
                for faults in [
                    [(a, NodeFailed), (b_pos, NodeFailed)],
                    [(a, NodeFailed), (b_pos, BitRotted)],
                    [(a, BitRotted), (b_pos, NodeFailed)],
                ] {
                    let (s, h, b) = rs42_with_faults(&faults);
                    assert_eq!(s.get(&h).unwrap(), b, "{faults:?}");
                }
                // Two rotted shards are two errors at unknown positions,
                // beyond what two parity shards can locate: the read is
                // byte-exact when excluding one suspect happens to leave
                // four clean shards in front (the last position is the
                // only one the decoder does not reach for), and a typed
                // error otherwise — never wrong bytes.
                let (s, h, b) = rs42_with_faults(&[(a, BitRotted), (b_pos, BitRotted)]);
                match s.get(&h) {
                    Ok(read) => {
                        assert_eq!(read, b);
                        assert_eq!(b_pos, 5, "rot at {a} and {b_pos} read clean");
                    }
                    Err(e) => {
                        assert_eq!(e, DurableError::Corrupt(h));
                        assert_ne!(b_pos, 5, "rot at {a} and {b_pos}");
                    }
                }
            }
        }
    }

    #[test]
    fn a_rotted_data_shard_with_every_node_up_is_caught_and_repaired() {
        // All four data shards present is the path that decodes nothing:
        // it must still never hand back bytes it has not hashed.
        for data_shard in 0..4 {
            let (s, h, b) = rs42_with_faults(&[(data_shard, Fault::BitRotted)]);
            assert_eq!(s.get(&h).unwrap(), b, "rotted data shard {data_shard}");
        }
    }

    #[test]
    fn three_lost_fragments_keep_their_typed_errors() {
        use Fault::{BitRotted, NodeFailed};
        for a in 0..6 {
            for b_pos in a + 1..6 {
                for c in b_pos + 1..6 {
                    let (s, h, _) =
                        rs42_with_faults(&[(a, NodeFailed), (b_pos, NodeFailed), (c, NodeFailed)]);
                    assert_eq!(s.get(&h).unwrap_err(), DurableError::Unrecoverable(h));
                    let (s, h, _) =
                        rs42_with_faults(&[(a, NodeFailed), (b_pos, NodeFailed), (c, BitRotted)]);
                    assert_eq!(s.get(&h).unwrap_err(), DurableError::Corrupt(h));
                }
            }
        }
    }

    /// 1 000 distinct payloads of 0..=2 002 bytes (every residue mod 4 of
    /// the shard split, the empty and the one-byte payload among them).
    fn corpus() -> Vec<(ChunkHash, Bytes)> {
        (0..1000usize)
            .map(|i| {
                let len = if i == 3 { 1 } else { i * 7919 % 2003 };
                let b = Bytes::from(
                    (0..len)
                        .map(|j| (i * 31 + j * 7) as u8)
                        .collect::<Vec<u8>>(),
                );
                (ChunkHash::of(&b), b)
            })
            .collect()
    }

    #[test]
    fn physical_bytes_are_what_per_fragment_storage_held() {
        // Eight nodes for six fragments, so `base` walks the ring.
        let mut ec = DurableStore::new(8, Durability::ErasureCoded { k: 4, m: 2 }).unwrap();
        let mut rep = DurableStore::new(8, Durability::Replicated { copies: 3 }).unwrap();
        let corpus = corpus();
        for (h, b) in &corpus {
            ec.put(*h, b.clone()).unwrap();
            rep.put(*h, b.clone()).unwrap();
        }
        assert_eq!(ec.chunk_count(), 1000);
        // Six shards of ⌈len / 4⌉ bytes (never zero), three whole copies:
        // the sums the one-`Bytes`-per-fragment layout reported, recorded
        // from it on this corpus before the layout changed.
        let shards = |len: usize| 6 * len.div_ceil(4).max(1) as u64;
        let ec_expected: u64 = corpus.iter().map(|(_, b)| shards(b.len())).sum();
        assert_eq!(ec.physical_bytes(), ec_expected);
        assert_eq!(ec.physical_bytes(), 1_508_046);
        assert_eq!(rep.physical_bytes(), 3 * rep.logical_bytes());
        assert_eq!(rep.physical_bytes(), 3_011_577);
    }

    #[test]
    fn a_thousand_chunks_survive_any_two_nodes_and_a_rotted_fragment_each() {
        let mut s = DurableStore::new(8, Durability::ErasureCoded { k: 4, m: 2 }).unwrap();
        let corpus = corpus();
        for (h, b) in &corpus {
            s.put(*h, b.clone()).unwrap();
        }
        for a in 0..8 {
            for b_node in a + 1..8 {
                s.fail_node(a);
                s.fail_node(b_node);
                for (h, b) in &corpus {
                    assert_eq!(&s.get(h).unwrap(), b, "nodes {a} and {b_node} down");
                }
                s.recover_node(a);
                s.recover_node(b_node);
            }
        }
        for (i, (h, b)) in corpus.iter().enumerate() {
            assert!(s.corrupt_fragment(h, i % 6, i * 13));
            assert_eq!(
                &s.get(h).unwrap(),
                b,
                "fragment {} of chunk {i} rotted",
                i % 6
            );
        }
        // One node down on top of the rot is still within m = 2.
        s.fail_node(7);
        for (h, b) in &corpus {
            assert_eq!(&s.get(h).unwrap(), b);
        }
    }

    #[test]
    fn unknown_chunk_errors() {
        let s = DurableStore::new(3, Durability::Replicated { copies: 2 }).unwrap();
        let (h, _) = chunk(5);
        assert!(matches!(
            s.get(&h).unwrap_err(),
            DurableError::UnknownChunk(_)
        ));
    }
}
