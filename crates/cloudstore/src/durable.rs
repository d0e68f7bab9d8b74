//! Durable chunk placement across cloud storage nodes: γ-way replication
//! or Reed–Solomon erasure coding (the paper's future-work extension).

use crate::catalog::Manifest;
use bytes::Bytes;
use ef_chunking::{Chunk, ChunkHash};
use ef_erasure::ReedSolomon;
use std::borrow::Cow;
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
/// # Aliasing
///
/// A stored payload is the `Bytes` that [`DurableStore::put`] was handed,
/// kept as it came: under replication it is every copy, and under
/// erasure coding it is the `k` data shards (the code is systematic, so
/// shard `f` is the payload's `f`-th stretch, the last ones zero-padded).
/// `put` allocates only the `m` parity shards, and a healthy
/// [`DurableStore::get`] hands back that same buffer. The store keeps
/// alive whatever allocation the `Bytes` views, so hand it a payload
/// that is its own buffer — as both chunkers' chunks are — not a slice of
/// a larger one it would pin whole. Nothing the store does reaches those
/// bytes: [`DurableStore::corrupt_fragment`] rots a private copy of the
/// one fragment it damages.
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
    /// First node holding a fragment; fragment `f` lives on node
    /// `(base + f) % nodes`.
    base: usize,
    /// The payload as `put` was handed it: every replica under
    /// replication, the `k` data shards under erasure coding.
    data: Bytes,
    /// The `m` parity shards back to back (empty under replication): the
    /// only bytes `put` allocates.
    parity: Box<[u8]>,
    /// Each fragment that has rotted, as a whole fragment of its own
    /// (padding included); the bytes above stay as they were put.
    rotted: BTreeMap<usize, Box<[u8]>>,
}

/// Bytes in each fragment of a `len`-byte payload: the payload under
/// replication (no code), one shard under erasure coding.
fn fragment_len(rs: Option<&ReedSolomon>, len: usize) -> usize {
    rs.map_or(len, |rs| rs.shard_len(len))
}

impl StoredChunk {
    /// Fragment `f`, `fragment_len` bytes: its rotted copy, the payload
    /// (a replica), a parity shard, or a data shard — borrowed when it
    /// lies wholly inside the payload, else copied and zero-padded.
    fn fragment(&self, f: usize, scheme: Durability, fragment_len: usize) -> Cow<'_, [u8]> {
        if let Some(rotted) = self.rotted.get(&f) {
            return Cow::Borrowed(rotted);
        }
        match scheme {
            Durability::Replicated { .. } => Cow::Borrowed(&self.data),
            Durability::ErasureCoded { k, .. } if f >= k => {
                let at = (f - k) * fragment_len;
                Cow::Borrowed(&self.parity[at..at + fragment_len])
            }
            Durability::ErasureCoded { .. } => {
                let len = self.data.len();
                let stretch =
                    &self.data[(f * fragment_len).min(len)..((f + 1) * fragment_len).min(len)];
                if stretch.len() == fragment_len {
                    return Cow::Borrowed(stretch);
                }
                #[cfg(test)]
                reference::note_copied(stretch.len());
                let mut padded = Vec::with_capacity(fragment_len);
                padded.extend_from_slice(stretch);
                padded.resize(fragment_len, 0);
                Cow::Owned(padded)
            }
        }
    }
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
    /// no-op). The store keeps `data` itself, the buffer it views
    /// included (see [Aliasing](DurableStore#aliasing)), and allocates
    /// only parity.
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
        let parity = self
            .rs
            .as_ref()
            .map_or_else(Box::default, |rs| rs.parity(&data).into_boxed_slice());
        self.chunks.insert(
            hash,
            StoredChunk {
                base,
                data,
                parity,
                rotted: BTreeMap::new(),
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
        let fragment_len = fragment_len(self.rs.as_ref(), chunk.data.len());
        let up = |f: usize| !self.failed[(chunk.base + f) % self.node_count];
        // A fragment as put: readable, and not rotted since.
        let intact = |f: usize| up(f) && !chunk.rotted.contains_key(&f);
        match &self.rs {
            None => {
                // Any surviving replica serves — but only after its bytes
                // re-hash to the chunk's address. A rotted replica is as
                // bad as a failed node; the scan moves on past it.
                let mut replicas = (0..fragments).filter(|&f| up(f)).peekable();
                if replicas.peek().is_none() {
                    return Err(DurableError::Unrecoverable(*hash));
                }
                // A replica that verifies holds the payload put, so the
                // read hands out the buffer put kept.
                replicas
                    .find(|&f| {
                        ChunkHash::of(&chunk.fragment(f, self.durability, fragment_len)) == *hash
                    })
                    .map(|_| chunk.data.clone())
                    .ok_or(DurableError::Corrupt(*hash))
            }
            Some(rs) => {
                let k = rs.data_shards();
                let len = chunk.data.len();
                let shards = || -> Vec<Option<Cow<'_, [u8]>>> {
                    (0..fragments)
                        .map(|f| up(f).then(|| chunk.fragment(f, self.durability, fragment_len)))
                        .collect()
                };
                let decode = |shards: &[Option<Cow<'_, [u8]>>]| {
                    let out = rs.reconstruct(shards, len).ok()?;
                    #[cfg(test)]
                    reference::note_copied(out.len());
                    Some(Bytes::from(out))
                };
                // The data shards are the payload as put: with all of them
                // intact, a read copies, decodes and collects nothing.
                // Otherwise the decoder's output is the one copy.
                let data = if (0..k).all(intact) {
                    chunk.data.clone()
                } else {
                    decode(&shards()).ok_or(DurableError::Unrecoverable(*hash))?
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
                    if let Some(rebuilt) = decode(&shards) {
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
    ///
    /// The fragment is copied on its first rot, padding included, and
    /// only it: the payload `put` kept — the caller's buffer, and under
    /// replication every other copy — and the parity stay as they were.
    pub fn corrupt_fragment(&mut self, hash: &ChunkHash, fragment: usize, bit: usize) -> bool {
        let (fragments, scheme) = (self.durability.fragments(), self.durability);
        let Some(chunk) = self.chunks.get_mut(hash) else {
            return false;
        };
        let fragment_len = fragment_len(self.rs.as_ref(), chunk.data.len());
        if fragment_len == 0 {
            return false;
        }
        let f = fragment % fragments;
        let mut raw = chunk.fragment(f, scheme, fragment_len).into_owned();
        let b = bit % (fragment_len * 8);
        raw[b / 8] ^= 1 << (b % 8);
        chunk.rotted.insert(f, raw.into_boxed_slice());
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

    /// Total physical bytes across all storage nodes: every fragment at
    /// its full length, padding included, as separate storage nodes
    /// would hold them.
    pub fn physical_bytes(&self) -> u64 {
        let fragments = self.durability.fragments() as u64;
        self.chunks
            .values()
            .map(|chunk| fragments * fragment_len(self.rs.as_ref(), chunk.data.len()) as u64)
            .sum()
    }

    /// Total logical (original chunk) bytes stored.
    pub fn logical_bytes(&self) -> u64 {
        self.chunks.values().map(|c| c.data.len() as u64).sum()
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

/// The store as it was kept before it held payloads by reference — each
/// chunk's fragments back to back in one coded buffer (payload, padding
/// and parity under erasure coding; the payload once per copy under
/// replication), rot flipping a bit of a copy of that whole buffer —
/// kept as the reference [`DurableStore`] is held to.
#[cfg(test)]
pub(crate) mod reference {
    use super::*;

    thread_local! {
        /// Payload bytes this thread's stores have copied.
        static COPIED: std::cell::Cell<u64> = const { std::cell::Cell::new(0) };
    }

    /// Counts `len` payload bytes copied by a store.
    pub(super) fn note_copied(len: usize) {
        COPIED.with(|n| n.set(n.get() + len as u64));
    }

    /// Payload bytes the stores on the calling thread have copied so far:
    /// padded data shards and decoder output on a degraded read, and
    /// every byte of this reference's coded buffers. A `put` or a healthy
    /// `get` of a [`DurableStore`] adds none.
    pub(crate) fn copied() -> u64 {
        COPIED.with(std::cell::Cell::get)
    }

    #[derive(Debug, Clone)]
    struct FlatChunk {
        len: usize,
        base: usize,
        fragments: Bytes,
    }

    #[derive(Debug, Clone)]
    pub(crate) struct FlatStore {
        durability: Durability,
        rs: Option<ReedSolomon>,
        node_count: usize,
        failed: Vec<bool>,
        chunks: BTreeMap<ChunkHash, FlatChunk>,
        next_spread: usize,
    }

    impl FlatStore {
        pub(crate) fn new(node_count: usize, durability: Durability) -> Self {
            let rs = match durability {
                Durability::Replicated { .. } => None,
                Durability::ErasureCoded { k, m } => Some(ReedSolomon::new(k, m).unwrap()),
            };
            FlatStore {
                durability,
                rs,
                node_count,
                failed: vec![false; node_count],
                chunks: BTreeMap::new(),
                next_spread: 0,
            }
        }

        pub(crate) fn put(&mut self, hash: ChunkHash, data: Bytes) -> Result<(), DurableError> {
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
                // What `encode_flat` built: the payload copied into a
                // zeroed `k` shards, the parity behind them.
                Some(rs) => {
                    let shard_len = rs.shard_len(data.len());
                    let mut flat = data.to_vec();
                    flat.resize(rs.data_shards() * shard_len, 0);
                    flat.extend_from_slice(&rs.parity(&data));
                    flat
                }
            };
            // The coded buffer, then `Bytes::from`'s copy of it.
            note_copied(2 * fragments.len());
            self.chunks.insert(
                hash,
                FlatChunk {
                    len: data.len(),
                    base,
                    fragments: Bytes::from(fragments),
                },
            );
            Ok(())
        }

        pub(crate) fn get(&self, hash: &ChunkHash) -> Result<Bytes, DurableError> {
            let chunk = self
                .chunks
                .get(hash)
                .ok_or(DurableError::UnknownChunk(*hash))?;
            let fragments = self.durability.fragments();
            let fragment_len = chunk.fragments.len() / fragments;
            let readable = |f: usize| -> Option<std::ops::Range<usize>> {
                let up = !self.failed[(chunk.base + f) % self.node_count];
                up.then_some(f * fragment_len..(f + 1) * fragment_len)
            };
            match &self.rs {
                None => {
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

        pub(crate) fn corrupt_fragment(
            &mut self,
            hash: &ChunkHash,
            fragment: usize,
            bit: usize,
        ) -> bool {
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

        pub(crate) fn fail_node(&mut self, node: usize) {
            self.failed[node] = true;
        }

        pub(crate) fn recover_node(&mut self, node: usize) {
            self.failed[node] = false;
        }

        pub(crate) fn physical_bytes(&self) -> u64 {
            self.chunks.values().map(|c| c.fragments.len() as u64).sum()
        }

        pub(crate) fn logical_bytes(&self) -> u64 {
            self.chunks.values().map(|c| c.len as u64).sum()
        }
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

    /// A SplitMix64 stream: deterministic script material.
    struct Script(u64);

    impl Script {
        fn below(&mut self, n: usize) -> usize {
            self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = self.0;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            ((z ^ (z >> 31)) % n as u64) as usize
        }

        fn bytes(&mut self, len: usize) -> Bytes {
            Bytes::from((0..len).map(|_| self.below(256) as u8).collect::<Vec<u8>>())
        }
    }

    /// Each scheme with the node count it is tested over: one or two
    /// nodes beyond its fragments, so `base` walks the ring.
    const SCHEMES: [(usize, Durability); 5] = [
        (5, Durability::Replicated { copies: 3 }),
        (2, Durability::Replicated { copies: 1 }),
        (7, Durability::ErasureCoded { k: 4, m: 2 }),
        (6, Durability::ErasureCoded { k: 3, m: 3 }),
        (3, Durability::ErasureCoded { k: 1, m: 2 }),
    ];

    /// The two stores, equal in every answer a caller can get: every
    /// payload's read (or its error), and both byte counts.
    fn assert_same(
        store: &DurableStore,
        flat: &reference::FlatStore,
        payloads: &[(ChunkHash, Bytes)],
        what: &str,
    ) {
        for (h, _) in payloads {
            assert_eq!(store.get(h), flat.get(h), "{what}: get {h}");
        }
        assert_eq!(store.physical_bytes(), flat.physical_bytes(), "{what}");
        assert_eq!(store.logical_bytes(), flat.logical_bytes(), "{what}");
    }

    /// Every set of at most `max` of `nodes` nodes.
    fn node_sets(nodes: usize, max: usize) -> Vec<Vec<usize>> {
        (0u32..1 << nodes)
            .filter(|set| set.count_ones() as usize <= max)
            .map(|set| (0..nodes).filter(|n| set & (1 << n) != 0).collect())
            .collect()
    }

    /// Both stores answer alike under every set of failed nodes the
    /// scheme tolerates; the nodes are all up again afterwards.
    fn assert_same_under_every_tolerated_failure(
        store: &mut DurableStore,
        flat: &mut reference::FlatStore,
        nodes: usize,
        payloads: &[(ChunkHash, Bytes)],
        what: &str,
    ) {
        for down in node_sets(nodes, store.durability().fault_tolerance()) {
            for &n in &down {
                store.fail_node(n);
                flat.fail_node(n);
            }
            assert_same(store, flat, payloads, &format!("{what}, down {down:?}"));
            for &n in &down {
                store.recover_node(n);
                flat.recover_node(n);
            }
        }
    }

    /// The by-reference store against the flat-buffer one, over random
    /// scripts under both schemes: payloads whose lengths do and do not
    /// divide by `k` (the empty one among them), repeated puts, damaged
    /// uploads, nodes failing and recovering, and rot on any fragment at
    /// any bit, padding bits and second rots included. After every step
    /// the results, error variants and byte counts are equal; after the
    /// script, so is every read under every failed-node set within the
    /// scheme's tolerance.
    #[test]
    fn by_reference_store_matches_the_flat_store() {
        for seed in 0..24u64 {
            let (nodes, scheme) = SCHEMES[seed as usize % SCHEMES.len()];
            let mut rng = Script(seed);
            let payloads: Vec<(ChunkHash, Bytes)> = (0..10)
                .map(|i| {
                    let len = match i {
                        0 => 0,
                        1..=3 => i * 4,
                        _ => rng.below(300),
                    };
                    let b = rng.bytes(len);
                    (ChunkHash::of(&b), b)
                })
                .collect();
            let mut store = DurableStore::new(nodes, scheme).unwrap();
            let mut flat = reference::FlatStore::new(nodes, scheme);
            for step in 0..80 {
                let what = format!("seed {seed} {scheme:?}, step {step}");
                let (h, b) = payloads[rng.below(payloads.len())].clone();
                match rng.below(9) {
                    0..=2 => assert_eq!(store.put(h, b.clone()), flat.put(h, b), "{what}"),
                    3 => {
                        let mut damaged = b.to_vec();
                        match damaged.len() {
                            0 => damaged.push(0),
                            len => damaged[rng.below(len)] ^= 1 << rng.below(8),
                        }
                        let damaged = Bytes::from(damaged);
                        assert_eq!(
                            store.put(h, damaged.clone()),
                            flat.put(h, damaged),
                            "{what}"
                        );
                    }
                    4 => {
                        let n = rng.below(nodes);
                        store.fail_node(n);
                        flat.fail_node(n);
                    }
                    5 | 6 => {
                        let n = rng.below(nodes);
                        store.recover_node(n);
                        flat.recover_node(n);
                    }
                    _ => {
                        let fragment = rng.below(2 * scheme.fragments());
                        let bit = rng.below(8 * (b.len() + 8));
                        assert_eq!(
                            store.corrupt_fragment(&h, fragment, bit),
                            flat.corrupt_fragment(&h, fragment, bit),
                            "{what}: rot {fragment}:{bit}"
                        );
                    }
                }
                assert_same(&store, &flat, &payloads, &what);
            }
            for n in 0..nodes {
                store.recover_node(n);
                flat.recover_node(n);
            }
            let what = format!("seed {seed} {scheme:?}");
            assert_same_under_every_tolerated_failure(
                &mut store, &mut flat, nodes, &payloads, &what,
            );
        }
    }

    /// One bit of every byte of every fragment, the padding's among them,
    /// rotted in a store holding one payload of each short length: both
    /// stores answer alike under every failed-node set within tolerance.
    #[test]
    fn every_rotted_fragment_reads_as_in_the_flat_store() {
        for (nodes, scheme) in SCHEMES {
            for len in [0usize, 1, 2, 3, 4, 5, 7, 9, 13, 17] {
                let b = Bytes::from((0..len).map(|i| (i * 37 + 5) as u8).collect::<Vec<u8>>());
                let payloads = [(ChunkHash::of(&b), b.clone())];
                let h = payloads[0].0;
                let fragment_len = match scheme {
                    Durability::Replicated { .. } => len,
                    Durability::ErasureCoded { k, .. } => len.div_ceil(k).max(1),
                };
                for fragment in 0..scheme.fragments() {
                    for byte in 0..fragment_len.max(1) {
                        let mut store = DurableStore::new(nodes, scheme).unwrap();
                        let mut flat = reference::FlatStore::new(nodes, scheme);
                        store.put(h, b.clone()).unwrap();
                        flat.put(h, b.clone()).unwrap();
                        let bit = 8 * byte + byte % 8;
                        let rotted = store.corrupt_fragment(&h, fragment, bit);
                        assert_eq!(rotted, flat.corrupt_fragment(&h, fragment, bit));
                        assert_eq!(rotted, fragment_len > 0);
                        let what = format!("{scheme:?} len {len}: rot {fragment}:{bit}");
                        assert_same_under_every_tolerated_failure(
                            &mut store, &mut flat, nodes, &payloads, &what,
                        );
                    }
                }
            }
        }
    }

    /// A `put` and a healthy `get` copy no payload byte: the store keeps
    /// the caller's buffer and hands that very buffer back. The flat
    /// store copied every payload byte into its coded buffer, then that
    /// buffer into a `Bytes`; a degraded read copies in both.
    #[test]
    fn put_and_a_healthy_get_copy_no_payload_byte() {
        for (nodes, scheme) in SCHEMES {
            let start = reference::copied();
            let mut store = DurableStore::new(nodes, scheme).unwrap();
            let corpus = corpus();
            for (h, b) in &corpus {
                store.put(*h, b.clone()).unwrap();
                let read = store.get(h).unwrap();
                assert_eq!(&read, b);
                assert!(
                    std::ptr::eq(read.as_ptr(), b.as_ptr()),
                    "{scheme:?}: read copied"
                );
            }
            assert_eq!(
                reference::copied(),
                start,
                "{scheme:?}: a payload was copied"
            );
            let mut flat = reference::FlatStore::new(nodes, scheme);
            for (h, b) in &corpus {
                flat.put(*h, b.clone()).unwrap();
            }
            assert!(reference::copied() - start >= 2 * flat.logical_bytes());
            if let Durability::ErasureCoded { .. } = scheme {
                let degraded = reference::copied();
                store.fail_node(0);
                for (h, b) in &corpus {
                    assert_eq!(&store.get(h).unwrap(), b);
                }
                assert!(
                    reference::copied() > degraded,
                    "{scheme:?}: degraded reads decode"
                );
            }
        }
    }

    /// Rot lands in the store's private copy of the one fragment it hits:
    /// the caller's buffer, an earlier read and every other replica keep
    /// the bytes that were put.
    #[test]
    fn a_rotted_fragment_never_shows_in_the_callers_bytes_or_another_replica() {
        let mut s = DurableStore::new(3, Durability::Replicated { copies: 3 }).unwrap();
        let (h, b) = chunk(7);
        let pristine = b.to_vec();
        s.put(h, b.clone()).unwrap();
        let read = s.get(&h).unwrap();
        // Rot replicas 0 and 1 all over; with node 2 alone up, the
        // third replica still reads clean.
        for bit in 0..8 * b.len() {
            assert!(s.corrupt_fragment(&h, bit % 2, bit));
        }
        assert_eq!((&b[..], &read[..]), (&pristine[..], &pristine[..]));
        s.fail_node(2);
        assert_eq!(s.get(&h).unwrap_err(), DurableError::Corrupt(h));
        s.recover_node(2);
        s.fail_node(0);
        assert_eq!(s.get(&h).unwrap()[..], pristine[..]);
        // Under erasure coding, rot in every data shard's bytes and in
        // parity: the payload buffer is the data shards, untouched.
        let mut s = DurableStore::new(6, Durability::ErasureCoded { k: 4, m: 2 }).unwrap();
        s.put(h, b.clone()).unwrap();
        for fragment in 0..6 {
            assert!(s.corrupt_fragment(&h, fragment, 3 * fragment));
        }
        assert_eq!(&b[..], &pristine[..]);
        assert_eq!(s.get(&h).unwrap_err(), DurableError::Corrupt(h));
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
