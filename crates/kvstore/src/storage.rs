//! The index's write-ahead log: a node's simulated disk, replayed into a
//! fresh [`StorageEngine`](crate::StorageEngine) on restart, and the
//! record framing the upload spool's log shares.

use crate::engine::head;
use crate::integrity::{checksum64, le_array, Checksum64, Summed};
use bytes::Bytes;
use std::borrow::Cow;

/// One durable log record, as replayed from a [`WriteAheadLog`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WalRecord {
    /// A key/value write.
    Put(Bytes, Bytes),
    /// A tombstone write.
    Delete(Bytes),
}

/// Errors surfaced when decoding a [`WriteAheadLog`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WalError {
    /// A record was cut short (torn write): the log is valid up to
    /// `offset` bytes.
    Truncated {
        /// Byte offset of the incomplete record.
        offset: usize,
    },
    /// An unknown record tag at `offset`.
    BadTag {
        /// Byte offset of the bad record.
        offset: usize,
        /// The tag byte found there.
        tag: u8,
    },
    /// A record (or the snapshot block) failed its checksum at `offset`:
    /// the bytes decoded but no longer match what was written (bit rot).
    BadChecksum {
        /// Byte offset of the corrupt record within its section.
        offset: usize,
    },
}

impl std::fmt::Display for WalError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WalError::Truncated { offset } => write!(f, "wal truncated at byte {offset}"),
            WalError::BadTag { offset, tag } => {
                write!(f, "wal has unknown record tag {tag} at byte {offset}")
            }
            WalError::BadChecksum { offset } => {
                write!(f, "wal record failed checksum at byte {offset}")
            }
        }
    }
}

impl std::error::Error for WalError {}

const WAL_TAG_PUT: u8 = 1;
const WAL_TAG_DELETE: u8 = 2;

/// Encodes a put record into `buf`:
/// `tag(u8) · key_len(u32 LE) · key · val_len(u32 LE) · val · crc(u64 LE)`,
/// the trailing checksum being [`frame_digest`] of the head and the
/// payload's sum, which is returned. The key arrives as parts written back
/// to back, so a caller that prefixes a header to a key (the upload
/// spool's own log, which shares this framing) never joins them in a
/// buffer of its own first. A payload that carries its sum is copied in
/// and not read again; one that does not is summed from the copy just
/// written, hot in cache where the caller's bytes may be cold.
pub(crate) fn encode_put(
    buf: &mut Vec<u8>,
    key: &[&[u8]],
    payload: &[u8],
    sum: Option<u64>,
) -> u64 {
    let start = buf.len();
    encode_head(buf, key, Some(payload.len()));
    let head_end = buf.len();
    buf.extend_from_slice(payload);
    let sum = sum.unwrap_or_else(|| checksum64(&buf[head_end..]));
    let crc = frame_digest(&buf[start..head_end], Some(sum));
    buf.extend_from_slice(&crc.to_le_bytes());
    sum
}

/// Encodes a delete record (a tombstone) into `buf`:
/// `tag(u8) · key_len(u32 LE) · key · crc(u64 LE)`.
pub(crate) fn encode_delete(buf: &mut Vec<u8>, key: &[&[u8]]) {
    let start = buf.len();
    encode_head(buf, key, None);
    let crc = frame_digest(&buf[start..], None);
    buf.extend_from_slice(&crc.to_le_bytes());
}

/// A record's bytes up to its payload, `tag · key_len · key [· val_len]`:
/// a put when there is a payload length, a delete otherwise.
fn encode_head(buf: &mut Vec<u8>, key: &[&[u8]], value_len: Option<usize>) {
    buf.push(if value_len.is_some() {
        WAL_TAG_PUT
    } else {
        WAL_TAG_DELETE
    });
    let key_len: usize = key.iter().map(|part| part.len()).sum();
    buf.extend_from_slice(&(key_len as u32).to_le_bytes());
    for part in key {
        buf.extend_from_slice(part);
    }
    if let Some(len) = value_len {
        buf.extend_from_slice(&(len as u32).to_le_bytes());
    }
}

/// A frame's checksum: the digest of its head bytes (every byte before
/// the payload) followed, for a put, by `checksum64(payload)` as one
/// little-endian word. A payload already summed is stamped without
/// reading it again, and a flipped payload bit still moves its sum and
/// so the checksum. A delete (`None`) has no payload.
fn frame_digest(head: &[u8], payload: Option<u64>) -> u64 {
    let mut digest = Checksum64::new();
    digest.update(head);
    if let Some(sum) = payload {
        digest.update_u64(sum);
    }
    digest.finish()
}

/// A snapshot's block checksum, folded frame by frame from what the
/// frame walk already knows — each frame's length, the digest recomputed
/// from its bytes and the checksum word it stores — so it reads no byte
/// of its own. Any flipped byte moves a digest or a word; a swapped or
/// dropped frame, each frame intact, moves the sequence.
struct BlockFold(Checksum64);

impl BlockFold {
    fn new() -> Self {
        BlockFold(Checksum64::new())
    }

    fn frame(&mut self, len: usize, digest: u64, stored: u64) {
        for word in [len as u64, digest, stored] {
            self.0.update_u64(word);
        }
    }

    fn finish(&self) -> u64 {
        self.0.finish()
    }
}

/// One record located in place: byte ranges into the section it was
/// read from. `end` is the offset of the next frame; the bytes
/// `start..end` are exactly what [`encode_put`] or [`encode_delete`]
/// emitted.
pub(crate) struct Frame {
    pub(crate) key: std::ops::Range<usize>,
    /// The payload and its sum; `None` for a delete.
    pub(crate) value: Option<(std::ops::Range<usize>, u64)>,
    pub(crate) end: usize,
}

/// A frame as the parser shapes it, its digest recomputed from its bytes
/// and its stored checksum word beside it, checked against nothing.
struct Located {
    frame: Frame,
    digest: u64,
    stored: u64,
}

/// Shapes the frame starting at `offset`; `Ok(None)` at end of input.
fn locate(bytes: &[u8], offset: usize) -> Result<Option<Located>, WalError> {
    if offset == bytes.len() {
        return Ok(None);
    }
    let take = |at: usize, n: usize| -> Result<std::ops::Range<usize>, WalError> {
        if at + n <= bytes.len() {
            Ok(at..at + n)
        } else {
            Err(WalError::Truncated { offset })
        }
    };
    let len_at = |at: usize| -> Result<usize, WalError> {
        let field = take(at, 4)?;
        Ok(u32::from_le_bytes(le_array(&bytes[field])) as usize)
    };
    let tag = bytes[offset];
    let key = take(offset + 5, len_at(offset + 1)?)?;
    let (value, head_end, body_end) = match tag {
        WAL_TAG_PUT => {
            let value = take(key.end + 4, len_at(key.end)?)?;
            (Some(value.clone()), value.start, value.end)
        }
        WAL_TAG_DELETE => (None, key.end, key.end),
        tag => return Err(WalError::BadTag { offset, tag }),
    };
    let crc = take(body_end, 8)?;
    let value = value.map(|value| {
        let sum = checksum64(&bytes[value.clone()]);
        (value, sum)
    });
    let digest = frame_digest(
        &bytes[offset..head_end],
        value.as_ref().map(|(_, sum)| *sum),
    );
    let stored = u64::from_le_bytes(le_array(&bytes[crc.clone()]));
    let end = crc.end;
    let frame = Frame { key, value, end };
    Ok(Some(Located {
        frame,
        digest,
        stored,
    }))
}

/// Locates the frame starting at `offset` and verifies its trailing
/// checksum, without copying anything out; `Ok(None)` at end of input.
/// The one framing parser: the upload spool walks its segments with it,
/// and the write-ahead log hands it the byte form of any section one of
/// whose frames fails its check in place (`Section::verified`).
pub(crate) fn frame_at(bytes: &[u8], offset: usize) -> Result<Option<Frame>, WalError> {
    let Some(located) = locate(bytes, offset)? else {
        return Ok(None);
    };
    if located.digest != located.stored {
        return Err(WalError::BadChecksum { offset });
    }
    Ok(Some(located.frame))
}

/// The block checksum of a section's byte form: its frames folded in
/// order ([`BlockFold`]). `None` when the bytes do not frame (torn or
/// mistagged), which no stamped block equals.
fn block_checksum(bytes: &[u8]) -> Option<u64> {
    let mut block = BlockFold::new();
    let mut offset = 0;
    while let Some(located) = locate(bytes, offset).ok()? {
        let len = located.frame.end - offset;
        block.frame(len, located.digest, located.stored);
        offset = located.frame.end;
    }
    Some(block.finish())
}

/// A payload this long or shorter is copied into the log: holding it by
/// reference costs a `(usize, Bytes)` entry, more than the copy (the
/// index's one-byte "present" values).
const INLINE_PAYLOAD_MAX: usize = std::mem::size_of::<(usize, Bytes)>();

/// What one verify walk of a section found ([`Section::check`]).
#[derive(Debug, Clone, Copy)]
struct Check {
    /// The block checksum of the section as it stands; `None` when its
    /// byte form does not frame.
    block: Option<u64>,
    /// Every record framed in place and matched its stored word.
    clean: bool,
}

/// One log section (snapshot or tail). Its byte form — what rot addresses
/// and what the parser reads — is `owned` with each `shared` payload
/// spliced in at its offset: frame headers (tag, length fields, key),
/// checksums and short payloads are owned, and each longer payload is the
/// `Bytes` handed to [`WriteAheadLog::append_put`], held by reference.
#[derive(Debug, Clone, Default)]
struct Section {
    owned: Vec<u8>,
    /// `(offset into owned, payload)`, offsets nondecreasing.
    shared: Vec<(usize, Bytes)>,
    /// Bytes of the shared payloads.
    spliced: usize,
}

/// Where a record's payload is held.
#[derive(Debug, Clone, Copy)]
enum Payload<'a> {
    Inline(&'a [u8]),
    Shared(&'a Bytes),
}

impl Payload<'_> {
    fn bytes(&self) -> &[u8] {
        match self {
            Payload::Inline(bytes) => bytes,
            Payload::Shared(bytes) => bytes,
        }
    }
}

/// One record of a section, located the way the parser would frame the
/// byte form. Offsets are into the section's `owned`: the header is
/// `start..head_end`, an inline payload runs on to `crc_at`, and the
/// checksum is `crc_at..end`.
#[derive(Debug, Clone, Copy)]
struct Record<'a> {
    start: usize,
    head_end: usize,
    crc_at: usize,
    end: usize,
    key: &'a [u8],
    /// `None` for a delete.
    value: Option<Payload<'a>>,
}

impl Section {
    fn len(&self) -> usize {
        self.owned.len() + self.spliced
    }

    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Appends a record, its checksum stamped from its head and its
    /// payload's sum — the one the payload carries, if any. A long
    /// payload is held by reference, a short one copied in.
    fn push_record(&mut self, key: &[u8], value: Option<(&Bytes, Option<u64>)>) {
        match value {
            Some((value, sum)) if value.len() > INLINE_PAYLOAD_MAX => {
                let start = self.owned.len();
                encode_head(&mut self.owned, &[key], Some(value.len()));
                let sum = sum.unwrap_or_else(|| checksum64(value));
                let crc = frame_digest(&self.owned[start..], Some(sum));
                self.push_shared(value.clone());
                self.owned.extend_from_slice(&crc.to_le_bytes());
            }
            Some((value, sum)) => {
                encode_put(&mut self.owned, &[key], value, sum);
            }
            None => encode_delete(&mut self.owned, &[key]),
        }
    }

    /// Splices `payload` in at the end of `owned`.
    fn push_shared(&mut self, payload: Bytes) {
        self.spliced += payload.len();
        self.shared.push((self.owned.len(), payload));
    }

    /// `record` as [`Section::push_copy`] takes it: its owned bytes (a
    /// shared payload's header and checksum lie side by side there) and
    /// its shared payload.
    fn copy_of<'a>(&'a self, record: &Record<'a>) -> (&'a [u8], Option<&'a Bytes>) {
        let shared = match record.value {
            Some(Payload::Shared(value)) => Some(value),
            _ => None,
        };
        (&self.owned[record.start..record.end], shared)
    }

    /// Appends a record taken with [`Section::copy_of`]: owned bytes
    /// copied, a shared payload spliced back in before the checksum.
    fn push_copy(&mut self, (owned, shared): (&[u8], Option<&Bytes>)) {
        let (head, crc) = owned.split_at(owned.len() - 8);
        self.owned.extend_from_slice(head);
        if let Some(value) = shared {
            self.push_shared(value.clone());
        }
        self.owned.extend_from_slice(crc);
    }

    /// Appends every byte of `next`.
    fn extend(&mut self, next: &Section) {
        let base = self.owned.len();
        self.owned.extend_from_slice(&next.owned);
        let moved = next
            .shared
            .iter()
            .map(|(at, value)| (base + at, value.clone()));
        self.shared.extend(moved);
        self.spliced += next.spliced;
    }

    /// The byte form's parts, in order.
    fn parts(&self) -> impl Iterator<Item = &[u8]> + '_ {
        let mut from = 0;
        let spliced = self.shared.iter().flat_map(move |(at, value)| {
            let owned = &self.owned[from..*at];
            from = *at;
            [owned, &value[..]]
        });
        let last = self.shared.last().map_or(0, |(at, _)| *at);
        spliced.chain(std::iter::once(&self.owned[last..]))
    }

    /// The byte form, joined: what the cold paths hand the parser.
    fn to_bytes(&self) -> Vec<u8> {
        let mut bytes = Vec::with_capacity(self.len());
        for part in self.parts() {
            bytes.extend_from_slice(part);
        }
        bytes
    }

    /// The record at `start`, whose payload, if shared, is `shared[next]`
    /// — when its fields are in bounds, its tag is known and a payload
    /// spliced where a put's payload goes has the length the put's field
    /// states. Says nothing of the checksum.
    fn record_at(&self, start: usize, next: usize) -> Option<Record<'_>> {
        let owned = &self.owned;
        let len_at = |at: usize| -> Option<usize> {
            Some(u32::from_le_bytes(le_array(owned.get(at..at.checked_add(4)?)?)) as usize)
        };
        let key_end = (start + 5).checked_add(len_at(start + 1)?)?;
        let key = owned.get(start + 5..key_end)?;
        let (head_end, value, crc_at) = match *owned.get(start)? {
            WAL_TAG_PUT => {
                let (head_end, len) = (key_end + 4, len_at(key_end)?);
                match self.shared.get(next) {
                    Some((at, value)) if *at == head_end => {
                        if value.len() != len {
                            return None;
                        }
                        (head_end, Some(Payload::Shared(value)), head_end)
                    }
                    _ => {
                        let crc_at = head_end.checked_add(len)?;
                        let inline = Payload::Inline(owned.get(head_end..crc_at)?);
                        (head_end, Some(inline), crc_at)
                    }
                }
            }
            WAL_TAG_DELETE => (key_end, None, key_end),
            _ => return None,
        };
        let end = crc_at + 8;
        owned.get(crc_at..end)?;
        Some(Record {
            start,
            head_end,
            crc_at,
            end,
            key,
            value,
        })
    }

    /// The section's records in order, each `Some` while the parts frame
    /// records ([`Section::record_at`]); a `None` ends the walk where they
    /// stop doing so, or where a shared payload is left over. Shared
    /// payloads are taken in order, each only where a put's payload goes,
    /// so one spliced anywhere else is left over: whenever the walk is all
    /// `Some`, the parser frames the byte form into exactly these records.
    fn walk(&self) -> impl Iterator<Item = Option<Record<'_>>> + '_ {
        let (mut at, mut next, mut done) = (0, 0, false);
        std::iter::from_fn(move || {
            if done {
                return None;
            }
            if at == self.owned.len() {
                done = true;
                return (next < self.shared.len()).then_some(None);
            }
            let record = self.record_at(at, next);
            match record {
                Some(record) => {
                    at = record.end;
                    next += usize::from(matches!(record.value, Some(Payload::Shared(_))));
                }
                None => done = true,
            }
            Some(record)
        })
    }

    /// `record`'s checksum recomputed from its bytes ([`frame_digest`]):
    /// the head, and a payload's sum taken from the payload as it stands.
    fn digest(&self, record: &Record<'_>) -> u64 {
        let payload = record.value.map(|value| checksum64(value.bytes()));
        frame_digest(&self.owned[record.start..record.head_end], payload)
    }

    /// The checksum word `record` stores.
    fn stored(&self, record: &Record<'_>) -> u64 {
        u64::from_le_bytes(le_array(&self.owned[record.crc_at..record.end]))
    }

    /// `record`'s length in the byte form.
    fn frame_len(&self, record: &Record<'_>) -> usize {
        let shared = match record.value {
            Some(Payload::Shared(value)) => value.len(),
            _ => 0,
        };
        record.end - record.start + shared
    }

    /// True when the parser would accept `record` as it stands: its
    /// checksum matches the digest of its bytes.
    #[cfg(test)]
    fn verifies(&self, record: &Record<'_>) -> bool {
        self.digest(record) == self.stored(record)
    }

    /// The one verify walk: each record's digest recomputed from its
    /// bytes once, held to its stored word, and folded into the block
    /// checksum. Parts that stop framing records in place are left to
    /// their byte form: its block checksum here, the parser after.
    fn check(&self) -> Check {
        let mut block = BlockFold::new();
        let mut clean = true;
        for record in self.walk() {
            let Some(record) = record else {
                let block = block_checksum(&self.to_bytes());
                return Check {
                    block,
                    clean: false,
                };
            };
            let (digest, stored) = (self.digest(&record), self.stored(&record));
            clean &= digest == stored;
            block.frame(self.frame_len(&record), digest, stored);
        }
        let block = Some(block.finish());
        Check { block, clean }
    }

    /// The block checksum of a section whose every record verifies, so
    /// that each digest is its stored word: folded from those words
    /// alone, reading no payload.
    fn stamp(&self) -> u64 {
        let mut block = BlockFold::new();
        for record in self.records() {
            let stored = self.stored(&record);
            block.frame(self.frame_len(&record), stored, stored);
        }
        block.finish()
    }

    /// The section with every record verified: itself when each frame
    /// verifies where it is, else its byte form checked by the one framing
    /// parser ([`frame_at`]) and held as owned bytes — so damage comes out
    /// as the parser reports it, variant and offset alike.
    fn verified(&self) -> Result<Cow<'_, Section>, WalError> {
        self.verified_by(self.check())
    }

    /// [`Section::verified`] on the verdict of a walk already taken.
    fn verified_by(&self, check: Check) -> Result<Cow<'_, Section>, WalError> {
        if check.clean {
            return Ok(Cow::Borrowed(self));
        }
        let bytes = self.to_bytes();
        let mut offset = 0;
        while let Some(frame) = frame_at(&bytes, offset)? {
            offset = frame.end;
        }
        Ok(Cow::Owned(Section {
            owned: bytes,
            ..Section::default()
        }))
    }

    /// The records of a verified section.
    fn records(&self) -> impl Iterator<Item = Record<'_>> + '_ {
        self.walk().flatten()
    }

    /// The records of a verified section, keys copied out and long
    /// payloads shared.
    fn wal_records(&self) -> impl Iterator<Item = WalRecord> + '_ {
        self.records().map(|record| {
            let key = Bytes::copy_from_slice(record.key);
            match record.value {
                Some(Payload::Shared(value)) => WalRecord::Put(key, value.clone()),
                Some(Payload::Inline(value)) => WalRecord::Put(key, Bytes::copy_from_slice(value)),
                None => WalRecord::Delete(key),
            }
        })
    }

    /// Flips `mask` in byte `at` of the byte form. A shared payload is
    /// copied before it is written, so whoever else holds it never sees
    /// the flip.
    fn flip(&mut self, at: usize, mask: u8) {
        let mut before = 0;
        for (offset, value) in &mut self.shared {
            let begins = *offset + before;
            if at < begins {
                break;
            }
            if at - begins < value.len() {
                let mut rotted = value.to_vec();
                rotted[at - begins] ^= mask;
                *value = Bytes::from(rotted);
                return;
            }
            before += value.len();
        }
        self.owned[at - before] ^= mask;
    }

    /// Cuts the byte form to its first `cut` bytes.
    fn truncate(&mut self, cut: usize) {
        let mut before = 0;
        let mut kept = self.shared.len();
        for (i, (offset, value)) in self.shared.iter_mut().enumerate() {
            let begins = *offset + before;
            if cut <= begins {
                kept = i;
                break;
            }
            if cut - begins < value.len() {
                *value = value.slice(..cut - begins);
                kept = i + 1;
                before += cut - begins;
                break;
            }
            before += value.len();
        }
        self.shared.truncate(kept);
        self.owned.truncate(cut - before);
        self.spliced = before;
    }
}

/// A deterministic per-node write-ahead log with periodic snapshots.
///
/// The log is the in-sim "disk": an append-only run of encoded mutations
/// plus a compacted snapshot prefix. It survives a node's crash-stop (the
/// sim driver keeps it while the volatile [`NodeState`](crate::NodeState)
/// is dropped) and is replayed on restart to rebuild the node's index
/// shard. Alongside data records it persists the coordinator's sequence
/// floor, so op ids issued after a restart never collide with pre-crash
/// ones.
///
/// The disk image is a byte string — length, every byte and every
/// checksum exactly what `encode_put` and `encode_delete` would write — but it is not
/// stored contiguously. The log owns each frame's small header (tag,
/// length fields, key) and 8-byte checksum, and shares its payload with
/// whoever appended it: the `Bytes` that [`WriteAheadLog::append_put`]
/// takes is the one the storage engine keeps, so a layer holds a payload
/// byte once. (A payload of at most 48 bytes — the size of the reference
/// — is copied in instead.) A put frame's checksum digests its header
/// and the sum its payload carries (`frame_digest`), so appending reads
/// no payload byte; rot ([`WriteAheadLog::flip_bit`]) addresses the same
/// byte space and copies on write only a shared payload it lands in.
///
/// Snapshotting is self-compacting: once the tail accumulates
/// `snapshot_every` records — or as many records as the snapshot itself
/// holds, whichever is larger — the full log is compacted into its live
/// key set as the new snapshot. Compaction verifies every frame's own
/// checksum in one walk and holds the old snapshot's block checksum,
/// folded from that walk's digests, to the one recorded; then it copies
/// the owned bytes of the newest put frame of every live key into the
/// new snapshot and takes its shared payload by reference — no record
/// is decoded or re-encoded, no shared payload byte copied — and stamps
/// the new block checksum from the frames' stored words: each logged
/// byte is read once. The block checksum owns what no frame's own check
/// can see, a whole frame moved or lost (DESIGN.md §10). A section with
/// a frame that fails its check in place is handed to the parser as
/// bytes instead, so damage is reported exactly as a contiguous log
/// would report it. The ratio
/// trigger spaces compactions geometrically on growing states, so
/// append cost stays amortized O(1) while disk growth stays within ~2x
/// the live set for workloads that overwrite or delete.
///
/// That shape fits a key-value *state* — an index shard, where a key is
/// overwritten in place and the live set is what matters. A queue whose
/// records are written once and retired in arrival order (the upload
/// spool) keeps its own log, [`SpoolLog`](crate::SpoolLog), with this
/// log's framing and none of its snapshots.
///
/// # Example
///
/// ```
/// use ef_kvstore::{WalRecord, WriteAheadLog};
/// use bytes::Bytes;
///
/// let mut wal = WriteAheadLog::new(128);
/// wal.append_put(b"k", &Bytes::from_static(b"v"));
/// wal.append_delete(b"gone");
/// let records = wal.replay().unwrap();
/// assert_eq!(records[0], WalRecord::Put(Bytes::from_static(b"k"), Bytes::from_static(b"v")));
/// assert_eq!(records[1], WalRecord::Delete(Bytes::from_static(b"gone")));
/// ```
#[derive(Debug, Clone, Default)]
pub struct WriteAheadLog {
    /// Compacted prefix: the live state as put records.
    snapshot: Section,
    snapshot_entries: u64,
    /// Block checksum of `snapshot`, recorded at compaction time.
    snapshot_crc: u64,
    /// Records appended since the last snapshot.
    tail: Section,
    tail_records: u64,
    /// The pre-compaction log (previous snapshot + the tail folded into
    /// the current snapshot), kept so recovery can fall back when the
    /// current snapshot fails verification.
    prev_snapshot: Section,
    prev_snapshot_crc: u64,
    prev_tail: Section,
    /// Tail records that trigger a snapshot compaction (0 disables).
    snapshot_every: u64,
    /// Lowest coordinator sequence number safe to issue after replay.
    seq_floor: u64,
    appended: u64,
    snapshots_taken: u64,
    /// Sticky decode error found while trying to compact a corrupt log.
    integrity_error: Option<WalError>,
    torn_tails_truncated: u64,
    snapshot_fallbacks: u64,
}

/// What a [`WriteAheadLog::recover_replay`] had to do beyond a clean
/// decode.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ReplayNotes {
    /// The current snapshot failed its checksum and recovery used the
    /// stashed pre-compaction log instead (then re-materialized the
    /// snapshot from it).
    pub snapshot_fallback: bool,
    /// The tail was torn mid-record: the valid prefix was kept, the torn
    /// suffix truncated.
    pub torn_tail: bool,
}

impl WriteAheadLog {
    /// Creates an empty log that compacts into a snapshot every
    /// `snapshot_every` tail records (`0` disables snapshotting).
    pub fn new(snapshot_every: u64) -> Self {
        WriteAheadLog {
            snapshot_every,
            ..WriteAheadLog::default()
        }
    }

    /// Appends a put record. The log keeps `value` by reference — no
    /// payload byte is copied — unless it is 48 bytes or shorter, which
    /// is cheaper to copy in than to reference.
    pub fn append_put(&mut self, key: &[u8], value: &Bytes) {
        self.append(key, Some((value, None)));
    }

    /// Appends a put (`Some`) or a delete (`None`) of a payload this node
    /// has summed: the record is stamped from the sum it carries.
    pub(crate) fn append_summed(&mut self, key: &[u8], value: Option<&Summed>) {
        self.append(key, value.map(|value| (value.bytes(), Some(value.sum()))));
    }

    /// Appends a delete (tombstone) record.
    pub fn append_delete(&mut self, key: &[u8]) {
        self.append(key, None);
    }

    /// Writes one record to the tail; compacts if due.
    fn append(&mut self, key: &[u8], value: Option<(&Bytes, Option<u64>)>) {
        self.tail.push_record(key, value);
        self.tail_records += 1;
        self.appended += 1;
        self.maybe_snapshot();
    }

    /// Persists the coordinator sequence floor: after replay, op
    /// sequence numbers resume at this value (monotone; stale floors are
    /// ignored).
    pub fn set_seq_floor(&mut self, seq: u64) {
        self.seq_floor = self.seq_floor.max(seq);
    }

    /// The persisted coordinator sequence floor.
    pub fn seq_floor(&self) -> u64 {
        self.seq_floor
    }

    /// Replays the whole log — snapshot prefix, then tail — in append
    /// order. Applying the records to an empty
    /// [`StorageEngine`](crate::StorageEngine) reproduces the live state
    /// at crash time.
    ///
    /// This is the strict decoder: any damage is an error. Restart paths
    /// that want the torn-tail/rotted-snapshot recovery semantics use
    /// [`WriteAheadLog::recover_replay`] instead.
    ///
    /// # Errors
    ///
    /// [`WalError`] when a record is torn, has an unknown tag, or fails
    /// its checksum.
    pub fn replay(&self) -> Result<Vec<WalRecord>, WalError> {
        let mut out: Vec<WalRecord> = self.snapshot.verified()?.wal_records().collect();
        out.extend(self.tail.verified()?.wal_records());
        Ok(out)
    }

    /// Replays the log for a node restart, applying the recovery lattice
    /// instead of failing on the first damaged byte:
    ///
    /// * a snapshot that fails its block checksum is rebuilt from the
    ///   stashed pre-compaction log (previous snapshot + the tail that
    ///   was folded into it), self-healing the disk image;
    /// * a *torn tail* — the suffix cut mid-record by a crash (or a
    ///   rotted length field, indistinguishable from one) — is truncated
    ///   to the last valid record and counted, keeping the valid prefix;
    /// * anything else (bad tag or failed record checksum mid-log) is a
    ///   *corrupt body* and surfaces as an error — the caller decides
    ///   whether the node stays dead.
    ///
    /// Returns the replayable records plus [`ReplayNotes`] describing
    /// what recovery had to do.
    ///
    /// # Errors
    ///
    /// [`WalError`] when the body is corrupt beyond the snapshot
    /// fallback: never silently-accepted data.
    pub fn recover_replay(&mut self) -> Result<(Vec<WalRecord>, ReplayNotes), WalError> {
        let mut notes = ReplayNotes::default();
        let check = self.snapshot.check();
        let snapshot_clean = self.snapshot.is_empty() || check.block == Some(self.snapshot_crc);
        let decoded = if snapshot_clean {
            self.snapshot
                .verified_by(check)
                .map(|snapshot| snapshot.wal_records().collect())
        } else {
            Err(WalError::BadChecksum { offset: 0 })
        };
        let mut records: Vec<WalRecord> = match decoded {
            Ok(records) => records,
            Err(e) => {
                // The compacted prefix is rot-damaged: fall back to the
                // stashed pre-compaction log, if it is intact.
                if self.prev_snapshot.is_empty() && self.prev_tail.is_empty() {
                    return Err(e);
                }
                if !self.prev_snapshot.is_empty()
                    && self.prev_snapshot.check().block != Some(self.prev_snapshot_crc)
                {
                    return Err(e);
                }
                let mut rebuilt = self.prev_snapshot.clone();
                rebuilt.extend(&self.prev_tail);
                let verified = rebuilt.verified().map_err(|_| e)?;
                let records: Vec<WalRecord> = verified.wal_records().collect();
                self.snapshot_crc = verified.stamp();
                drop(verified);
                self.snapshot = rebuilt;
                self.snapshot_entries = records.len() as u64;
                self.snapshot_fallbacks += 1;
                notes.snapshot_fallback = true;
                records
            }
        };
        // A tear keeps the records before it: the tail is cut where the
        // parser found the torn frame, and what is left replays clean.
        let torn_at = match self.tail.verified() {
            Ok(tail) => {
                records.extend(tail.wal_records());
                None
            }
            Err(WalError::Truncated { offset }) => Some(offset),
            Err(e) => return Err(e),
        };
        if let Some(offset) = torn_at {
            self.tail.truncate(offset);
            let before = records.len();
            records.extend(self.tail.verified()?.wal_records());
            self.tail_records = (records.len() - before) as u64;
            self.torn_tails_truncated += 1;
            notes.torn_tail = true;
        }
        Ok((records, notes))
    }

    /// True once the tail has grown enough to be worth compacting.
    ///
    /// Ratio trigger: compact once the tail has grown to the size of the
    /// snapshot itself (but never before `snapshot_every` records). A
    /// fixed cadence rewrites the whole live set every `snapshot_every`
    /// appends — O(state) work at O(1) intervals, quadratic on a
    /// monotonically growing state like an index shard taking in fresh
    /// fingerprints. The ratio spaces compactions geometrically, so each
    /// record is rewritten O(1) amortized times while the footprint
    /// stays within ~2x the live set. A known-corrupt log never
    /// compacts: it is kept as-is for recovery and diagnosis.
    fn snapshot_due(&self) -> bool {
        self.snapshot_every != 0
            && self.tail_records >= self.snapshot_every.max(self.snapshot_entries)
            && self.integrity_error.is_none()
    }

    /// Compacts the log once [`WriteAheadLog::snapshot_due`] says so.
    fn maybe_snapshot(&mut self) {
        if self.snapshot_due() {
            self.compact();
        }
    }

    /// Compacts the full log into a snapshot of its live key set,
    /// emptying the tail. The pre-compaction log is stashed so a later
    /// rotted snapshot can fall back to it.
    ///
    /// Frames are walked where they are ([`WriteAheadLog::live_frames`]):
    /// each is verified once — the one read of each logged byte a
    /// compaction makes, which also folds the old snapshot's block
    /// checksum — and the newest put per key goes into the new snapshot as
    /// its owned bytes plus its shared payload by reference. A frame
    /// already is its own encoding, trailing checksum included, so no
    /// record is decoded, re-encoded or checksummed again, and the new
    /// block checksum folds from the frames' stored words. A log that
    /// fails verification first takes the restart path's recovery
    /// lattice ([`WriteAheadLog::recover_replay`]: snapshot fallback,
    /// torn-tail truncation) and is compacted only if that heals it;
    /// when the body is corrupt, compaction stops (it would bake the
    /// damage in) and the error is held for
    /// [`WriteAheadLog::integrity_error`] — never swallowed.
    fn compact(&mut self) {
        let compacted = self.live_frames().or_else(|_| {
            self.recover_replay()?;
            self.live_frames()
        });
        let (snapshot, entries) = match compacted {
            Ok(compacted) => compacted,
            Err(e) => {
                self.integrity_error = Some(e);
                return;
            }
        };
        self.prev_snapshot = std::mem::take(&mut self.snapshot);
        self.prev_snapshot_crc = self.snapshot_crc;
        self.prev_tail = std::mem::take(&mut self.tail);
        self.snapshot_crc = snapshot.stamp();
        self.snapshot = snapshot;
        self.snapshot_entries = entries;
        self.tail_records = 0;
        self.snapshots_taken += 1;
    }

    /// The log's live state as a snapshot section: one walk verifies
    /// every frame of snapshot and tail and holds the snapshot's block
    /// checksum, folded from the same digests, to the one recorded; then
    /// the newest put frame of each key that no later delete shadows is
    /// taken in key order (owned bytes copied, a shared payload by
    /// reference), with the entry count. A snapshot is the complete
    /// state — absent keys are absent — so tombstones are not carried
    /// forward.
    ///
    /// # Errors
    ///
    /// [`WalError`] on any damage (rotted snapshot block, torn, mistagged
    /// or rotted frame); nothing is modified.
    fn live_frames(&self) -> Result<(Section, u64), WalError> {
        let check = self.snapshot.check();
        if !self.snapshot.is_empty() && check.block != Some(self.snapshot_crc) {
            return Err(WalError::BadChecksum { offset: 0 });
        }
        let sections = [self.snapshot.verified_by(check)?, self.tail.verified()?];
        // Every frame in log order, keyed by its head and key bytes, with
        // its put's copy (`None` for a delete). A stable sort by key keeps
        // each key's frames in log order, so the last of each run is its
        // newest. A compacted snapshot is one sorted run that the sort
        // takes whole; one rebuilt by a fallback is sorted like the tail.
        let mut frames: Vec<_> = sections
            .iter()
            .flat_map(|section| {
                section.records().map(move |record| {
                    let put = record.value.map(|_| section.copy_of(&record));
                    ((head(record.key), record.key), put)
                })
            })
            .collect();
        frames.sort_by_key(|&(key, _)| key);
        let mut snapshot = Section::default();
        let mut entries = 0;
        for run in frames.chunk_by(|(a, _), (b, _)| a == b) {
            if let Some((_, Some(put))) = run.last() {
                snapshot.push_copy(*put);
                entries += 1;
            }
        }
        Ok((snapshot, entries))
    }

    /// Chaos hook: flips one bit in the on-disk byte space (snapshot
    /// first, then tail) *without* touching any checksum — simulated
    /// at-rest bit rot. A bit in the log's own bytes flips in place; a
    /// shared payload is copied before it is written, so the storage
    /// engine's value and the caller's `Bytes` never see the flip.
    /// Returns `false` when the log is empty.
    pub fn flip_bit(&mut self, nth_byte: usize, bit: usize) -> bool {
        let total = self.len_bytes();
        if total == 0 {
            return false;
        }
        let i = nth_byte % total;
        let mask = 1u8 << (bit % 8);
        let snapshot = self.snapshot.len();
        if i < snapshot {
            self.snapshot.flip(i, mask);
        } else {
            self.tail.flip(i - snapshot, mask);
        }
        true
    }

    /// Tails truncated to their last valid record by recovery.
    pub fn torn_tails_truncated(&self) -> u64 {
        self.torn_tails_truncated
    }

    /// Recoveries that fell back to the stashed pre-compaction log after
    /// the current snapshot failed its checksum.
    pub fn snapshot_fallbacks(&self) -> u64 {
        self.snapshot_fallbacks
    }

    /// The decode error that stopped in-line compaction, if any. Sticky:
    /// once set, the log stops compacting so the damage stays visible to
    /// the next recovery instead of being folded into a snapshot.
    pub fn integrity_error(&self) -> Option<WalError> {
        self.integrity_error
    }

    /// Records currently on disk (snapshot entries + tail records).
    pub fn record_count(&self) -> u64 {
        self.snapshot_entries + self.tail_records
    }

    /// Total records ever appended (pre-compaction).
    pub fn appended(&self) -> u64 {
        self.appended
    }

    /// Snapshot compactions taken.
    pub fn snapshots_taken(&self) -> u64 {
        self.snapshots_taken
    }

    /// Current on-disk footprint in bytes.
    pub fn len_bytes(&self) -> usize {
        self.snapshot.len() + self.tail.len()
    }
}

/// The write-ahead log as it was stored before frames were held by
/// reference — each section one contiguous `Vec<u8>`, compacted by
/// decoding every record into fresh buffers, folding them into a map,
/// re-encoding and re-checksumming, every checksum and block checksum
/// taken from the contiguous bytes — kept as the reference
/// [`WriteAheadLog`] is held to, byte for byte.
#[cfg(test)]
pub(crate) mod reference {
    use super::*;
    use std::collections::BTreeMap;

    /// Every field of a [`WriteAheadLog`], sections as bytes.
    #[derive(Debug, Clone, Default, PartialEq, Eq)]
    pub(crate) struct ByteLog {
        pub(crate) snapshot: Vec<u8>,
        snapshot_entries: u64,
        snapshot_crc: u64,
        pub(crate) tail: Vec<u8>,
        tail_records: u64,
        prev_snapshot: Vec<u8>,
        prev_snapshot_crc: u64,
        prev_tail: Vec<u8>,
        snapshot_every: u64,
        seq_floor: u64,
        appended: u64,
        snapshots_taken: u64,
        integrity_error: Option<WalError>,
        torn_tails_truncated: u64,
        snapshot_fallbacks: u64,
    }

    /// Decodes the record starting at `offset`, verifying its trailing
    /// checksum; `Ok(None)` at end of input.
    fn decode_record(bytes: &[u8], offset: usize) -> Result<Option<(WalRecord, usize)>, WalError> {
        let Some(frame) = frame_at(bytes, offset)? else {
            return Ok(None);
        };
        let key = Bytes::copy_from_slice(&bytes[frame.key]);
        let record = match frame.value {
            Some((value, _)) => WalRecord::Put(key, Bytes::copy_from_slice(&bytes[value])),
            None => WalRecord::Delete(key),
        };
        Ok(Some((record, frame.end)))
    }

    /// Decodes every record in one log section (snapshot or tail).
    fn decode_section(bytes: &[u8]) -> Result<Vec<WalRecord>, WalError> {
        let mut out = Vec::new();
        let mut offset = 0;
        while let Some((record, next)) = decode_record(bytes, offset)? {
            out.push(record);
            offset = next;
        }
        Ok(out)
    }

    impl ByteLog {
        pub(crate) fn new(snapshot_every: u64) -> Self {
            ByteLog {
                snapshot_every,
                ..ByteLog::default()
            }
        }

        /// `append_put` (`Some`) or `append_delete` (`None`).
        pub(crate) fn append(&mut self, key: &[u8], value: Option<&[u8]>) {
            match value {
                Some(value) => {
                    encode_put(&mut self.tail, &[key], value, None);
                }
                None => encode_delete(&mut self.tail, &[key]),
            }
            self.tail_records += 1;
            self.appended += 1;
            self.maybe_snapshot();
        }

        pub(crate) fn replay(&self) -> Result<Vec<WalRecord>, WalError> {
            let mut out = decode_section(&self.snapshot)?;
            out.extend(decode_section(&self.tail)?);
            Ok(out)
        }

        pub(crate) fn recover_replay(&mut self) -> Result<(Vec<WalRecord>, ReplayNotes), WalError> {
            let mut notes = ReplayNotes::default();
            let snapshot_clean = self.snapshot.is_empty()
                || block_checksum(&self.snapshot) == Some(self.snapshot_crc);
            let decoded = if snapshot_clean {
                decode_section(&self.snapshot)
            } else {
                Err(WalError::BadChecksum { offset: 0 })
            };
            let mut records = match decoded {
                Ok(records) => records,
                Err(e) => {
                    if self.prev_snapshot.is_empty() && self.prev_tail.is_empty() {
                        return Err(e);
                    }
                    if !self.prev_snapshot.is_empty()
                        && block_checksum(&self.prev_snapshot) != Some(self.prev_snapshot_crc)
                    {
                        return Err(e);
                    }
                    let mut rebuilt = self.prev_snapshot.clone();
                    rebuilt.extend_from_slice(&self.prev_tail);
                    let records = decode_section(&rebuilt).map_err(|_| e)?;
                    self.snapshot = rebuilt;
                    self.snapshot_crc = block_checksum(&self.snapshot).expect("decoded");
                    self.snapshot_entries = records.len() as u64;
                    self.snapshot_fallbacks += 1;
                    notes.snapshot_fallback = true;
                    records
                }
            };
            let mut offset = 0;
            let mut tail_count = 0u64;
            loop {
                match decode_record(&self.tail, offset) {
                    Ok(None) => break,
                    Ok(Some((record, next))) => {
                        records.push(record);
                        tail_count += 1;
                        offset = next;
                    }
                    Err(WalError::Truncated { .. }) => {
                        self.tail.truncate(offset);
                        self.tail_records = tail_count;
                        self.torn_tails_truncated += 1;
                        notes.torn_tail = true;
                        break;
                    }
                    Err(e) => return Err(e),
                }
            }
            Ok((records, notes))
        }

        fn maybe_snapshot(&mut self) {
            let due = self.snapshot_every != 0
                && self.tail_records >= self.snapshot_every.max(self.snapshot_entries)
                && self.integrity_error.is_none();
            if !due {
                return;
            }
            let records = match self.recover_replay() {
                Ok((records, _)) => records,
                Err(e) => {
                    self.integrity_error = Some(e);
                    return;
                }
            };
            let mut live: BTreeMap<Bytes, Option<Bytes>> = BTreeMap::new();
            for record in records {
                match record {
                    WalRecord::Put(k, v) => live.insert(k, Some(v)),
                    WalRecord::Delete(k) => live.insert(k, None),
                };
            }
            let mut snapshot = Vec::new();
            let mut entries = 0u64;
            for (k, v) in &live {
                if let Some(v) = v {
                    encode_put(&mut snapshot, &[k], v, None);
                    entries += 1;
                }
            }
            self.prev_snapshot = std::mem::take(&mut self.snapshot);
            self.prev_snapshot_crc = self.snapshot_crc;
            self.prev_tail = std::mem::take(&mut self.tail);
            self.snapshot = snapshot;
            self.snapshot_entries = entries;
            self.snapshot_crc = block_checksum(&self.snapshot).expect("encoded");
            self.tail_records = 0;
            self.snapshots_taken += 1;
        }

        pub(crate) fn flip_bit(&mut self, nth_byte: usize, bit: usize) -> bool {
            let total = self.snapshot.len() + self.tail.len();
            if total == 0 {
                return false;
            }
            let i = nth_byte % total;
            let mask = 1u8 << (bit % 8);
            if i < self.snapshot.len() {
                self.snapshot[i] ^= mask;
            } else {
                self.tail[i - self.snapshot.len()] ^= mask;
            }
            true
        }
    }

    impl WriteAheadLog {
        /// Every field, each section as its byte form.
        pub(crate) fn image(&self) -> ByteLog {
            ByteLog {
                snapshot: self.snapshot.to_bytes(),
                snapshot_entries: self.snapshot_entries,
                snapshot_crc: self.snapshot_crc,
                tail: self.tail.to_bytes(),
                tail_records: self.tail_records,
                prev_snapshot: self.prev_snapshot.to_bytes(),
                prev_snapshot_crc: self.prev_snapshot_crc,
                prev_tail: self.prev_tail.to_bytes(),
                snapshot_every: self.snapshot_every,
                seq_floor: self.seq_floor,
                appended: self.appended,
                snapshots_taken: self.snapshots_taken,
                integrity_error: self.integrity_error,
                torn_tails_truncated: self.torn_tails_truncated,
                snapshot_fallbacks: self.snapshot_fallbacks,
            }
        }

        /// The payloads held by reference, snapshot then tail.
        pub(crate) fn payloads(&self) -> Vec<Bytes> {
            let shared = self.snapshot.shared.iter().chain(&self.tail.shared);
            shared.map(|(_, value)| value.clone()).collect()
        }

        /// Compacts now, due or not.
        pub(crate) fn compact_now(&mut self) {
            self.compact();
        }

        /// Rewrites the snapshot as `order` picks its frames (indices in
        /// frame order; one left out is dropped, one named twice is
        /// copied): every frame stays whole and passes its own check, so
        /// only the block checksum can see the change.
        pub(crate) fn reorder_snapshot(&mut self, order: &[usize]) {
            let snapshot = std::mem::take(&mut self.snapshot);
            let frames: Vec<_> = snapshot.records().collect();
            for &at in order {
                let copy = snapshot.copy_of(&frames[at]);
                self.snapshot.push_copy(copy);
            }
        }

        /// Cuts the tail's last `bytes` bytes, as a crash mid-write would.
        pub(crate) fn tear_tail(&mut self, bytes: usize) {
            let keep = self.tail.len().saturating_sub(bytes);
            self.tail.truncate(keep);
        }

        /// `[start, payload start, payload end, end]` of every frame the
        /// parser finds in the byte space [`WriteAheadLog::flip_bit`]
        /// addresses; bytes past a damaged frame count as one frame.
        pub(crate) fn frame_bounds(&self) -> Vec<[usize; 4]> {
            let mut bounds = Vec::new();
            let mut base = 0;
            for bytes in [self.snapshot.to_bytes(), self.tail.to_bytes()] {
                let mut at = 0;
                while at < bytes.len() {
                    let Ok(Some(frame)) = frame_at(&bytes, at) else {
                        bounds.push([
                            base + at,
                            base + bytes.len(),
                            base + bytes.len(),
                            base + bytes.len(),
                        ]);
                        break;
                    };
                    let empty = frame.key.end..frame.key.end;
                    let payload = frame.value.map_or(empty, |(payload, _)| payload);
                    bounds.push([at, payload.start, payload.end, frame.end].map(|x| base + x));
                    at = frame.end;
                }
                base += bytes.len();
            }
            bounds
        }
    }
}

#[cfg(test)]
mod tests {
    use super::reference::ByteLog;
    use super::*;
    use crate::engine::StorageEngine;
    use ef_simcore::prop::{any, check, vec};
    use std::collections::BTreeMap;

    fn b(s: &str) -> Bytes {
        Bytes::copy_from_slice(s.as_bytes())
    }

    #[test]
    fn wal_replays_records_in_append_order() {
        let mut wal = WriteAheadLog::new(0);
        wal.append_put(b"a", &b("1"));
        wal.append_delete(b"a");
        wal.append_put(b"b", &b("2"));
        assert_eq!(
            wal.replay().unwrap(),
            vec![
                WalRecord::Put(b("a"), b("1")),
                WalRecord::Delete(b("a")),
                WalRecord::Put(b("b"), b("2")),
            ],
        );
        assert_eq!(wal.appended(), 3);
        assert_eq!(wal.record_count(), 3);
        assert_eq!(wal.snapshots_taken(), 0);
    }

    #[test]
    fn wal_snapshot_compacts_shadowed_and_deleted_keys() {
        let mut wal = WriteAheadLog::new(4);
        wal.append_put(b"a", &b("1"));
        wal.append_put(b"a", &b("2")); // shadows
        wal.append_put(b"c", &b("3"));
        wal.append_delete(b"c"); // 4th record triggers the snapshot
        assert_eq!(wal.snapshots_taken(), 1);
        // Only the live key survives compaction.
        assert_eq!(wal.replay().unwrap(), vec![WalRecord::Put(b("a"), b("2"))]);
        assert_eq!(wal.record_count(), 1);
        assert_eq!(wal.appended(), 4);
        // Tail keeps accumulating after the snapshot.
        wal.append_put(b"d", &b("4"));
        assert_eq!(
            wal.replay().unwrap(),
            vec![
                WalRecord::Put(b("a"), b("2")),
                WalRecord::Put(b("d"), b("4"))
            ],
        );
    }

    #[test]
    fn wal_replay_rebuilds_identical_engine_state() {
        let mut engine = StorageEngine::new(64);
        let mut wal = WriteAheadLog::new(3);
        let ops: &[(&str, Option<&str>)] = &[
            ("k1", Some("v1")),
            ("k2", Some("v2")),
            ("k1", Some("v1b")),
            ("k3", Some("v3")),
            ("k2", None),
            ("k4", Some("v4")),
        ];
        for (k, v) in ops {
            match v {
                Some(v) => {
                    engine.put(b(k), b(v));
                    wal.append_put(k.as_bytes(), &b(v));
                }
                None => {
                    engine.delete(b(k));
                    wal.append_delete(k.as_bytes());
                }
            }
        }
        let mut rebuilt = StorageEngine::new(64);
        for record in wal.replay().unwrap() {
            match record {
                WalRecord::Put(k, v) => {
                    rebuilt.put(k, v);
                }
                WalRecord::Delete(k) => {
                    rebuilt.delete(k);
                }
            }
        }
        let mut want: Vec<_> = engine.iter_live().collect();
        let mut got: Vec<_> = rebuilt.iter_live().collect();
        want.sort();
        got.sort();
        assert_eq!(want, got);
    }

    #[test]
    fn wal_seq_floor_is_monotone() {
        let mut wal = WriteAheadLog::new(0);
        assert_eq!(wal.seq_floor(), 0);
        wal.set_seq_floor(7);
        wal.set_seq_floor(3); // stale floor ignored
        assert_eq!(wal.seq_floor(), 7);
    }

    #[test]
    fn wal_truncated_record_is_an_error() {
        let mut wal = WriteAheadLog::new(0);
        wal.append_put(b"key", &b("value"));
        // Simulate a torn write by chopping the tail mid-record.
        wal.tear_tail(2);
        assert_eq!(wal.replay(), Err(WalError::Truncated { offset: 0 }));
    }

    #[test]
    fn wal_bad_tag_is_an_error() {
        let mut wal = WriteAheadLog::new(0);
        wal.append_put(b"k", &b("v"));
        assert!(wal.flip_bit(0, 3)); // put tag 1 → 9
        assert_eq!(wal.replay(), Err(WalError::BadTag { offset: 0, tag: 9 }));
        assert!(wal.replay().unwrap_err().to_string().contains("tag 9"));
    }

    #[test]
    fn wal_zero_snapshot_every_never_compacts() {
        let mut wal = WriteAheadLog::new(0);
        for i in 0..100u32 {
            wal.append_put(b"same", &Bytes::from(i.to_le_bytes().to_vec()));
        }
        assert_eq!(wal.snapshots_taken(), 0);
        assert_eq!(wal.record_count(), 100);
    }

    #[test]
    fn wal_rotted_record_body_fails_checksum() {
        let mut wal = WriteAheadLog::new(0);
        wal.append_put(b"k", &b("vvvv"));
        // tag(1) + key_len(4) + key(1) + val_len(4) → byte 10 is the
        // first value byte; lengths stay intact so decode reaches the CRC.
        assert!(wal.flip_bit(10, 2));
        assert_eq!(wal.replay(), Err(WalError::BadChecksum { offset: 0 }));
        assert!(wal
            .replay()
            .unwrap_err()
            .to_string()
            .contains("failed checksum"));
    }

    #[test]
    fn wal_recover_truncates_torn_tail_and_keeps_prefix() {
        let mut wal = WriteAheadLog::new(0);
        wal.append_put(b"a", &b("1"));
        wal.append_put(b"b", &b("2"));
        wal.tear_tail(3); // tear the 2nd record
        assert!(wal.replay().is_err(), "strict decoder must reject a tear");
        let (records, notes) = wal.recover_replay().unwrap();
        assert_eq!(records, vec![WalRecord::Put(b("a"), b("1"))]);
        assert!(notes.torn_tail && !notes.snapshot_fallback);
        assert_eq!(wal.torn_tails_truncated(), 1);
        // Self-healed: appends keep working on the kept prefix.
        wal.append_put(b"c", &b("3"));
        assert_eq!(
            wal.replay().unwrap(),
            vec![
                WalRecord::Put(b("a"), b("1")),
                WalRecord::Put(b("c"), b("3"))
            ],
        );
        assert_eq!(wal.record_count(), 2);
    }

    #[test]
    fn wal_corrupt_body_surfaces_and_stops_compaction() {
        // Mid-log rot that is not a torn tail is a corrupt body: recovery
        // refuses it rather than guessing.
        let mut wal = WriteAheadLog::new(0);
        wal.append_put(b"a", &b("1"));
        wal.append_put(b"b", &b("2"));
        assert!(wal.flip_bit(10, 7)); // value byte of the *first* record
        assert_eq!(
            wal.recover_replay(),
            Err(WalError::BadChecksum { offset: 0 })
        );

        // In-line compaction holds the error instead of swallowing it.
        let mut wal = WriteAheadLog::new(3);
        wal.append_put(b"a", &b("1"));
        wal.append_put(b"b", &b("2"));
        assert!(wal.flip_bit(10, 7));
        wal.append_put(b"c", &b("3")); // threshold reached → tries to compact
        assert_eq!(wal.snapshots_taken(), 0);
        assert_eq!(
            wal.integrity_error(),
            Some(WalError::BadChecksum { offset: 0 })
        );
        wal.append_put(b"d", &b("4")); // error stays sticky
        assert_eq!(wal.snapshots_taken(), 0);
    }

    /// Folds replayed records into the final live state.
    fn fold_live(records: &[WalRecord]) -> Vec<(Bytes, Bytes)> {
        let mut live: BTreeMap<Bytes, Option<Bytes>> = BTreeMap::new();
        for r in records {
            match r {
                WalRecord::Put(k, v) => {
                    live.insert(k.clone(), Some(v.clone()));
                }
                WalRecord::Delete(k) => {
                    live.insert(k.clone(), None);
                }
            }
        }
        live.into_iter()
            .filter_map(|(k, v)| v.map(|v| (k, v)))
            .collect()
    }

    /// A log that has compacted once (so a pre-compaction stash exists)
    /// plus `extra` tail records, and its clean final state.
    fn snapshot_wal_fixture(extra: usize) -> (WriteAheadLog, Vec<(Bytes, Bytes)>) {
        let mut wal = WriteAheadLog::new(4);
        wal.append_put(b"a", &b("1"));
        wal.append_put(b"b", &b("2"));
        wal.append_put(b"c", &b("3"));
        wal.append_put(b"a", &b("x")); // 4th record triggers the snapshot
        assert_eq!(wal.snapshots_taken(), 1);
        for i in 0..extra {
            wal.append_put(format!("t{i}").as_bytes(), &b("tail"));
        }
        let clean = fold_live(&wal.replay().unwrap());
        (wal, clean)
    }

    #[test]
    fn every_snapshot_bit_flip_falls_back_and_recovers() {
        // Deterministic companion to the property below: exhaustive over
        // every bit of the snapshot block.
        let (wal, clean) = snapshot_wal_fixture(2);
        let snap_len = wal.snapshot.len();
        assert!(snap_len > 0);
        for byte in 0..snap_len {
            for bit in 0..8 {
                let mut rotted = wal.clone();
                assert!(rotted.flip_bit(byte, bit));
                let (records, notes) = rotted.recover_replay().expect("fallback must recover");
                assert!(notes.snapshot_fallback, "flip {byte}:{bit} undetected");
                assert_eq!(fold_live(&records), clean, "flip {byte}:{bit} diverged");
                assert_eq!(rotted.snapshot_fallbacks(), 1);
                // Self-healed: the strict decoder accepts the disk again.
                assert!(rotted.replay().is_ok());
            }
        }
    }

    /// What each check owns. A fault in the snapshot is either rot in one
    /// frame — a header, length, payload or stored-checksum bit — which
    /// that frame's own check already fails, or a whole frame moved or
    /// lost, every frame still passing its own check, which only the
    /// block checksum sees. Either way the block check turns recovery and
    /// compaction alike to the stashed pre-compaction log: a fallback
    /// that restores the clean state when the stash is sound, a
    /// `WalError` when it is damaged too.
    #[test]
    fn the_block_checksum_owns_moved_and_lost_frames() {
        // Payloads held by reference (a, c) and copied in (b).
        let fixture = || {
            let mut wal = WriteAheadLog::new(4);
            wal.append_put(b"a", &Bytes::from(vec![1; 100]));
            wal.append_put(b"b", &b("bee"));
            wal.append_put(b"c", &Bytes::from(vec![3; 200]));
            wal.append_put(b"a", &Bytes::from(vec![4; 64]));
            assert_eq!(wal.snapshots_taken(), 1);
            wal.append_put(b"d", &b("tail"));
            let clean = fold_live(&wal.replay().unwrap());
            (wal, clean)
        };
        // Rot lands in snapshot frame 1 (b): at `[start, payload start,
        // payload end, end]` of its bounds.
        type Fault = fn(&mut WriteAheadLog);
        fn flip(wal: &mut WriteAheadLog, pick: fn([usize; 4]) -> usize) {
            let at = pick(wal.frame_bounds()[1]);
            assert!(wal.flip_bit(at, 2));
        }
        // The checks that see each fault: the frame's own and the block
        // checksum, or the block checksum alone.
        const FRAME_AND_BLOCK: &str = "frame check and block checksum";
        const BLOCK_ALONE: &str = "block checksum alone";
        let table: [(&str, Fault, &str); 6] = [
            (
                "header",
                |w| flip(w, |[start, ..]| start + 5),
                FRAME_AND_BLOCK,
            ),
            (
                "length",
                |w| flip(w, |[_, body, ..]| body - 4),
                FRAME_AND_BLOCK,
            ),
            (
                "payload",
                |w| flip(w, |[_, body, ..]| body + 1),
                FRAME_AND_BLOCK,
            ),
            (
                "stored checksum",
                |w| flip(w, |[.., end]| end - 3),
                FRAME_AND_BLOCK,
            ),
            (
                "frame swap",
                |w| w.reorder_snapshot(&[1, 0, 2]),
                BLOCK_ALONE,
            ),
            ("frame drop", |w| w.reorder_snapshot(&[0, 2]), BLOCK_ALONE),
        ];
        for (fault, strike, caught_by) in table {
            let (mut wal, clean) = fixture();
            strike(&mut wal);
            let block_catches = wal.snapshot.check().block != Some(wal.snapshot_crc);
            let seen = match (wal.snapshot.verified().is_err(), block_catches) {
                (true, true) => FRAME_AND_BLOCK,
                (false, true) => BLOCK_ALONE,
                (_, false) => "no check",
            };
            assert_eq!(seen, caught_by, "{fault}");
            // Stash sound: both paths fall back to it and recover the
            // clean state.
            let mut restarted = wal.clone();
            let (records, notes) = restarted.recover_replay().expect(fault);
            assert!(notes.snapshot_fallback, "{fault}: restart");
            assert_eq!(fold_live(&records), clean, "{fault}: restart");
            let mut compacted = wal.clone();
            compacted.compact_now();
            assert_eq!(compacted.snapshot_fallbacks(), 1, "{fault}: compaction");
            assert_eq!(compacted.integrity_error(), None, "{fault}: compaction");
            assert_eq!(compacted.snapshots_taken(), 2, "{fault}: compaction");
            assert_eq!(fold_live(&compacted.replay().unwrap()), clean, "{fault}");
            // Stash damaged as well: both paths refuse with a `WalError`.
            wal.prev_tail.flip(1, 0x10);
            assert!(wal.prev_tail.verified().is_err());
            let mut restarted = wal.clone();
            let refused = Err(WalError::BadChecksum { offset: 0 });
            assert_eq!(restarted.recover_replay(), refused, "{fault}: restart");
            assert_eq!(restarted.snapshot_fallbacks(), 0, "{fault}: restart");
            wal.compact_now();
            assert_eq!(wal.integrity_error(), refused.err(), "{fault}");
            assert_eq!(wal.snapshots_taken(), 1, "{fault}: compaction");
        }
    }

    /// Every single-bit flip of a frame — head, payload or stored
    /// checksum — is rejected, and the in-place check
    /// ([`Section::verifies`]) and the parser over the byte form
    /// ([`frame_at`]) reject the same flips: index puts (payloads copied
    /// in and held by reference), deletes, and the spool's put frames (a
    /// header-prefixed key, a payload with or without bytes).
    #[test]
    fn every_single_flip_of_a_frame_is_rejected_in_place_and_by_the_parser() {
        fn in_place(section: &Section) -> bool {
            section
                .walk()
                .all(|record| record.is_some_and(|record| section.verifies(&record)))
        }
        fn parsed(bytes: &[u8]) -> bool {
            let mut at = 0;
            loop {
                match frame_at(bytes, at) {
                    Ok(None) => return true,
                    Ok(Some(frame)) => at = frame.end,
                    Err(_) => return false,
                }
            }
        }
        let strategy = (0u8..3, vec(any::<u8>(), 0..160), vec(any::<u8>(), 0..40));
        check(
            "every_single_flip_of_a_frame_is_rejected",
            48,
            strategy,
            |(shape, payload, key)| {
                let payload = Summed::digest(Bytes::from(payload));
                let mut section = Section::default();
                match shape {
                    0 => section.push_record(&key, Some((payload.bytes(), Some(payload.sum())))),
                    1 => section.push_record(&key, None),
                    _ => {
                        let header = [7u8, 0, 0, 0, 0, 0, 0, 0, 1, 1, 0];
                        let sum = Some(payload.sum());
                        encode_put(&mut section.owned, &[&header, &key], &payload, sum);
                    }
                }
                assert!(in_place(&section) && parsed(&section.to_bytes()));
                for bit in 0..section.len() * 8 {
                    let mut rotted = section.clone();
                    rotted.flip(bit / 8, 1 << (bit % 8));
                    let (here, there) = (in_place(&rotted), parsed(&rotted.to_bytes()));
                    assert_eq!(here, there, "shape {shape}: flip {bit} judged apart");
                    assert!(!here, "shape {shape}: flip {bit} accepted");
                }
            },
        );
    }

    #[test]
    fn flip_bit_addresses_snapshot_then_tail() {
        let mut wal = WriteAheadLog::new(0);
        assert!(!wal.flip_bit(0, 0), "empty log has nothing to rot");
        wal.append_put(b"k", &b("v"));
        let before = wal.tail.to_bytes();
        assert!(wal.flip_bit(3, 5));
        assert_ne!(wal.tail.to_bytes(), before);
        wal.flip_bit(3, 5); // flipping back restores the bytes
        assert_eq!(wal.tail.to_bytes(), before);
        assert!(wal.replay().is_ok());
    }

    #[test]
    fn payloads_spliced_out_of_place_go_to_the_parser() {
        // Each log's own bytes check out where they are, but its byte
        // form frames otherwise, and the parser has the last word.
        let payload = Bytes::from(vec![b'v'; 100]);
        // A put whose val_len says 99 over a 100-byte shared payload, its
        // checksum stamped over exactly these parts.
        let mut misstated = WriteAheadLog::new(0);
        encode_head(&mut misstated.tail.owned, &[b"k"], Some(99));
        let crc = frame_digest(&misstated.tail.owned, Some(checksum64(&payload)));
        misstated.tail.push_shared(payload.clone());
        misstated.tail.owned.extend_from_slice(&crc.to_le_bytes());
        // A whole inline record, with a payload spliced into its header.
        let mut misplaced = WriteAheadLog::new(0);
        encode_put(&mut misplaced.tail.owned, &[b"k"], b"vvvv", None);
        misplaced.tail.shared.push((2, payload));
        misplaced.tail.spliced = 100;
        for mut wal in [misstated, misplaced] {
            wal.tail_records = 1;
            let mut reference = wal.image();
            assert!(wal.replay().is_err());
            assert_eq!(wal.replay(), reference.replay());
            assert_eq!(wal.recover_replay(), reference.recover_replay());
            assert_eq!(wal.image(), reference);
        }
    }

    /// A byte of `log` for rot to land in: of the frame `pick` selects,
    /// anywhere in its header, one of its length fields, its payload or
    /// its checksum (`part` 0–3).
    fn rot_target(log: &WriteAheadLog, part: u8, pick: u64) -> usize {
        let bounds = log.frame_bounds();
        let Some(&[start, body, payload_end, end]) =
            bounds.get(pick as usize % bounds.len().max(1))
        else {
            return 0;
        };
        let r = (pick >> 16) as usize;
        match part % 4 {
            0 => start + r % (body - start),
            // key_len, or a put's val_len.
            1 if r.is_multiple_of(2) || body - start < 9 => start + 1 + (r / 2) % 4,
            1 => body - 4 + (r / 2) % 4,
            2 if payload_end > body => body + r % (payload_end - body),
            _ => end - 1 - r % (end - payload_end).max(1),
        }
    }

    /// The log held by reference is the contiguous byte log: driven by
    /// the same puts, overwrites and deletes (payloads up to 4 KiB, held
    /// by reference or copied in), compacting on the same trigger, struck by the same rot (header,
    /// length field, payload or checksum; snapshot or tail) and the same
    /// tail tears, and replayed and recovered at the same steps, the two
    /// agree after every step on every field — each section's bytes, the
    /// block checksums, the counters, the sticky integrity error — and
    /// on every `replay` and `recover_replay` result.
    #[test]
    fn by_reference_log_matches_the_byte_log() {
        let op = (0u8..16, any::<u8>(), 0usize..4097, any::<u64>());
        check(
            "by_reference_log_matches_the_byte_log",
            64,
            (2u64..9, vec(op, 1..120)),
            |(snapshot_every, ops)| {
                let mut log = WriteAheadLog::new(snapshot_every);
                let mut reference = ByteLog::new(snapshot_every);
                for (step, (op, a, len, pick)) in ops.into_iter().enumerate() {
                    let key = [b'k', a % 12];
                    match op {
                        0..=8 => {
                            // One put in three short enough to be copied in.
                            let len = if pick.is_multiple_of(3) {
                                len % 64
                            } else {
                                len
                            };
                            let value = vec![a ^ step as u8; len];
                            log.append_put(&key, &Bytes::from(value.clone()));
                            reference.append(&key, Some(&value));
                        }
                        9 | 10 => {
                            log.append_delete(&key);
                            reference.append(&key, None);
                        }
                        11 => {
                            let (at, bit) = (rot_target(&log, a, pick), len % 8);
                            assert_eq!(log.flip_bit(at, bit), reference.flip_bit(at, bit));
                        }
                        12 => {
                            // Into the last checksum or payload, or deeper.
                            let cut = 1 + if a % 2 == 0 { len % 64 } else { len };
                            log.tear_tail(cut);
                            let keep = reference.tail.len().saturating_sub(cut);
                            reference.tail.truncate(keep);
                        }
                        13 => assert_eq!(log.replay(), reference.replay(), "replay at step {step}"),
                        _ => assert_eq!(
                            log.recover_replay(),
                            reference.recover_replay(),
                            "recovery at step {step}"
                        ),
                    }
                    assert_eq!(log.image(), reference, "diverged at step {step}");
                    let bytes = reference.snapshot.len() + reference.tail.len();
                    assert_eq!(log.len_bytes(), bytes);
                    assert_eq!(log.replay(), reference.replay(), "replay after step {step}");
                }
            },
        );
    }

    /// A snapshot rebuilt by the fallback path is the stashed log as it
    /// was appended — out of key order, one key written twice — so the
    /// compaction after it cannot take the snapshot as one sorted run: it
    /// sorts it with the tail, the last frame of each key winning, and
    /// matches the contiguous byte log that folds every record through a
    /// map.
    #[test]
    fn compaction_after_a_snapshot_fallback_sorts_the_rebuilt_snapshot() {
        fn append(
            log: &mut WriteAheadLog,
            reference: &mut ByteLog,
            key: &str,
            value: Option<&str>,
        ) {
            match value {
                Some(value) => log.append_put(key.as_bytes(), &b(value)),
                None => log.append_delete(key.as_bytes()),
            }
            reference.append(key.as_bytes(), value.map(str::as_bytes));
            assert_eq!(log.image(), *reference, "after {key}");
        }
        let mut log = WriteAheadLog::new(4);
        let mut reference = ByteLog::new(4);
        for (key, value) in [("c", "c1"), ("a", "a1"), ("b", "b1"), ("c", "c2")] {
            append(&mut log, &mut reference, key, Some(value));
        }
        assert_eq!(log.snapshots_taken(), 1);
        assert!(log.flip_bit(3, 1) && reference.flip_bit(3, 1));
        assert_eq!(log.recover_replay(), reference.recover_replay());
        assert_eq!(log.snapshot_fallbacks(), 1);
        let rebuilt: Vec<_> = log.snapshot.records().map(|r| r.key).collect();
        assert_eq!(rebuilt, [b"c", b"a", b"b", b"c"]);
        for (key, value) in [
            ("b", None),
            ("e", Some("e1")),
            ("a", Some("a2")),
            ("d", Some("d1")),
        ] {
            append(&mut log, &mut reference, key, value);
        }
        assert_eq!(log.snapshots_taken(), 2);
        let live = [("a", "a2"), ("c", "c2"), ("d", "d1"), ("e", "e1")];
        let live = live.map(|(k, v)| WalRecord::Put(b(k), b(v)));
        assert_eq!(log.replay().unwrap(), live);
    }

    /// A snapshot with flipped bits is rejected by its block checksum
    /// and recovery falls back to the prior snapshot + full WAL
    /// replay, reaching a final state identical to the undamaged log.
    #[test]
    fn rotted_snapshot_recovery_matches_clean_state() {
        check(
            "rotted_snapshot_recovery_matches_clean_state",
            64,
            (0usize..10_000, 0usize..8, 0usize..4),
            |(byte, bit, extra)| {
                let (wal, clean) = snapshot_wal_fixture(extra);
                let mut rotted = wal.clone();
                let snap_len = rotted.snapshot.len();
                assert!(snap_len > 0);
                assert!(rotted.flip_bit(byte % snap_len, bit));
                let (records, notes) = rotted
                    .recover_replay()
                    .expect("snapshot fallback must recover");
                assert!(notes.snapshot_fallback);
                assert_eq!(fold_live(&records), clean);
                assert_eq!(rotted.snapshot_fallbacks(), 1);
                assert!(rotted.replay().is_ok());
            },
        );
    }
}
