//! Log entries: identity, batch framing, and digests.
//!
//! An *entry* is a batch of client transactions created by one group's
//! leader (paper §II-A, *Batching*). Entries are identified by
//! `(gid, seq)` — the proposing group and its local sequence number —
//! written `e_{i,m}` in the paper.

use bytes::Bytes;
use massbft_crypto::Digest;

/// Identity of an entry: proposing group + local sequence number.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct EntryId {
    /// Proposing group id.
    pub gid: u32,
    /// Local sequence number within the group, starting at 1.
    pub seq: u64,
}

impl EntryId {
    /// Convenience constructor.
    pub fn new(gid: u32, seq: u64) -> Self {
        EntryId { gid, seq }
    }

    /// The next entry from the same group.
    pub fn successor(&self) -> EntryId {
        EntryId {
            gid: self.gid,
            seq: self.seq + 1,
        }
    }
}

impl std::fmt::Display for EntryId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "e{},{}", self.gid, self.seq)
    }
}

/// Frames a batch of serialized transaction requests into entry bytes:
/// `[count: u32][len: u32, bytes]*`, preceded by the entry id so identical
/// batches from different groups hash differently.
pub fn encode_batch(id: EntryId, requests: &[Vec<u8>]) -> Vec<u8> {
    let body: usize = requests.iter().map(|r| r.len() + 4).sum();
    let mut out = Vec::with_capacity(16 + body);
    out.extend_from_slice(&id.gid.to_le_bytes());
    out.extend_from_slice(&id.seq.to_le_bytes());
    out.extend_from_slice(&(requests.len() as u32).to_le_bytes());
    for r in requests {
        out.extend_from_slice(&(r.len() as u32).to_le_bytes());
        out.extend_from_slice(r);
    }
    out
}

/// Reads just the entry id from encoded batch bytes without touching the
/// request payloads — the telemetry layer uses this to attribute PBFT
/// traffic (which carries opaque payloads) to entries in O(1).
pub fn peek_entry_id(bytes: &[u8]) -> Option<EntryId> {
    if bytes.len() < 16 {
        return None;
    }
    let gid = u32::from_le_bytes(bytes[0..4].try_into().ok()?);
    let seq = u64::from_le_bytes(bytes[4..12].try_into().ok()?);
    Some(EntryId::new(gid, seq))
}

/// Inverse of [`encode_batch`]. Returns the id and the request byte
/// strings, borrowed from `bytes`, or `None` on malformed framing
/// (tampered entries surface here after certificate validation has already
/// failed — this is a belt-and-braces check).
pub fn decode_batch(bytes: &[u8]) -> Option<(EntryId, Vec<&[u8]>)> {
    if bytes.len() < 16 {
        return None;
    }
    let gid = u32::from_le_bytes(bytes[0..4].try_into().ok()?);
    let seq = u64::from_le_bytes(bytes[4..12].try_into().ok()?);
    let count = u32::from_le_bytes(bytes[12..16].try_into().ok()?) as usize;
    let mut requests = Vec::with_capacity(count);
    let mut pos = 16;
    for _ in 0..count {
        if pos + 4 > bytes.len() {
            return None;
        }
        let len = u32::from_le_bytes(bytes[pos..pos + 4].try_into().ok()?) as usize;
        pos += 4;
        if pos + len > bytes.len() {
            return None;
        }
        requests.push(&bytes[pos..pos + len]);
        pos += len;
    }
    if pos != bytes.len() {
        return None;
    }
    Some((EntryId::new(gid, seq), requests))
}

/// Digest of entry bytes (what certificates sign).
pub fn entry_digest(bytes: &[u8]) -> Digest {
    Digest::of(bytes)
}

/// An entry's content as this node holds it: the refcounted bytes with the
/// id in their header and their digest, both derived once, when the content
/// is first accepted. The digest is always what *this node* hashed out of
/// exactly these bytes: [`EntryRecord::hash`] does it here, and
/// [`EntryRecord::certified`] takes the digest PBFT on this node computed
/// when it checked the pre-prepare (debug builds hash again to hold it to
/// that). The protocol layer stores a record only once a quorum certificate
/// validated for that digest (rebuild, entry copy) or local PBFT certified
/// the bytes.
#[derive(Debug, Clone)]
pub struct EntryRecord {
    id: EntryId,
    bytes: Bytes,
    digest: Digest,
}

impl EntryRecord {
    /// Hashes `bytes` and reads the id from their header; `None` if they
    /// are too short to have one.
    pub fn hash(bytes: Bytes) -> Option<Self> {
        let (id, digest) = (peek_entry_id(&bytes)?, entry_digest(&bytes));
        Some(EntryRecord { id, bytes, digest })
    }

    /// A record of `bytes` whose `digest` this node's PBFT replica already
    /// computed from them; `None` if they are too short to have an id.
    pub fn certified(bytes: Bytes, digest: Digest) -> Option<Self> {
        debug_assert_eq!(digest, entry_digest(&bytes));
        let id = peek_entry_id(&bytes)?;
        Some(EntryRecord { id, bytes, digest })
    }

    /// The id in the header.
    pub fn id(&self) -> EntryId {
        self.id
    }

    /// The entry bytes.
    pub fn bytes(&self) -> &Bytes {
        &self.bytes
    }

    /// `entry_digest(self.bytes())`, computed once.
    pub fn digest(&self) -> Digest {
        debug_assert_eq!(self.digest, entry_digest(&self.bytes));
        self.digest
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip() {
        let id = EntryId::new(2, 17);
        let reqs = vec![b"tx-1".to_vec(), b"transaction-two".to_vec(), Vec::new()];
        let bytes = encode_batch(id, &reqs);
        let (id2, reqs2) = decode_batch(&bytes).unwrap();
        assert_eq!(id2, id);
        assert_eq!(reqs2, reqs);
    }

    #[test]
    fn peek_reads_header_only() {
        let id = EntryId::new(3, 99);
        let bytes = encode_batch(id, &[b"payload".to_vec()]);
        assert_eq!(peek_entry_id(&bytes), Some(id));
        assert_eq!(peek_entry_id(&bytes[..12]), None);
        // Peek agrees with the full decode on every well-formed batch.
        assert_eq!(peek_entry_id(&bytes), decode_batch(&bytes).map(|(i, _)| i));
    }

    #[test]
    fn record_carries_id_and_digest_of_its_bytes() {
        let id = EntryId::new(4, 8);
        let bytes = encode_batch(id, &[b"payload".to_vec()]);
        let rec = EntryRecord::hash(bytes.clone().into()).unwrap();
        assert_eq!(rec.id(), id);
        assert_eq!(rec.digest(), entry_digest(&bytes));
        assert_eq!(rec.bytes(), &bytes);
        assert!(EntryRecord::hash(bytes[..15].to_vec().into()).is_none());
    }

    #[test]
    fn empty_batch_roundtrips() {
        let bytes = encode_batch(EntryId::new(0, 1), &[]);
        let (id, reqs) = decode_batch(&bytes).unwrap();
        assert_eq!(id, EntryId::new(0, 1));
        assert!(reqs.is_empty());
    }

    #[test]
    fn same_payload_different_groups_differ() {
        let reqs = vec![b"tx".to_vec()];
        let a = encode_batch(EntryId::new(0, 1), &reqs);
        let b = encode_batch(EntryId::new(1, 1), &reqs);
        assert_ne!(entry_digest(&a), entry_digest(&b));
    }

    #[test]
    fn malformed_framing_rejected() {
        assert!(decode_batch(&[]).is_none());
        assert!(decode_batch(&[0; 15]).is_none());
        let mut bytes = encode_batch(EntryId::new(0, 1), &[b"x".to_vec()]);
        bytes.push(0); // trailing garbage
        assert!(decode_batch(&bytes).is_none());
        let bytes = encode_batch(EntryId::new(0, 1), &[b"x".to_vec()]);
        assert!(decode_batch(&bytes[..bytes.len() - 1]).is_none());
    }

    #[test]
    fn successor_increments_seq_only() {
        let id = EntryId::new(3, 9);
        assert_eq!(id.successor(), EntryId::new(3, 10));
    }
}
