//! Encoded bijective log replication — paper §IV-B and §IV-C.
//!
//! **Sender side** ([`ChunkSender`]): every node of the proposing group
//! deterministically Reed-Solomon-encodes the certified entry into
//! `n_total` chunks (per receiver group geometry), builds a Merkle tree
//! over the chunks, and ships only the chunks assigned to it by the
//! transfer plan, each with its Merkle proof.
//!
//! **Receiver side** ([`ChunkAssembler`]): chunks are *bucketed by Merkle
//! root* — chunks sharing a root are provably encoded from the same entry,
//! so tampered chunks land in separate buckets and can never poison a
//! correct rebuild. When a bucket reaches `n_data` chunks the entry is
//! optimistically rebuilt and validated against its PBFT certificate; a
//! failed validation condemns the whole bucket and blacklists its chunk
//! ids (the paper's DoS defence). Correct chunks re-broadcast over LAN so
//! every group member can rebuild.

use crate::{
    entry::{EntryId, EntryRecord},
    plan::TransferPlan,
    stats,
};
use bytes::Bytes;
use massbft_codec::chunker::EntryCodec;
use massbft_crypto::{Digest, KeyRegistry, MerkleProof, MerkleTree, QuorumCert};
use massbft_db::hash::FastMap;
use massbft_telemetry::registry::{counter, Counter};
use std::collections::{BTreeMap, BTreeSet};
use std::sync::{Arc, OnceLock};

/// Process-wide chunk-path counters, registered once in the telemetry
/// registry (`core.replication.*`).
struct ChunkCounters {
    accepted: Counter,
    rebuilds: Counter,
    rejects: Counter,
    cert_memo_hits: Counter,
}

fn counters() -> &'static ChunkCounters {
    static C: OnceLock<ChunkCounters> = OnceLock::new();
    C.get_or_init(|| ChunkCounters {
        accepted: counter("core.replication.chunks_accepted"),
        rebuilds: counter("core.replication.rebuilds"),
        rejects: counter("core.replication.chunk_rejects"),
        cert_memo_hits: counter("core.replication.cert_memo_hits"),
    })
}

/// One chunk in flight, as shipped over the WAN and re-broadcast on LAN.
///
/// The payload is a [`Bytes`] handle into the encoding's shard storage, so
/// cloning a message for fan-out or LAN re-broadcast bumps a refcount
/// instead of copying chunk bytes.
#[derive(Debug, Clone)]
pub struct ChunkMsg {
    /// The entry this chunk encodes.
    pub entry: EntryId,
    /// Chunk index in `0..n_total`.
    pub chunk_id: u32,
    /// Chunk bytes (shared, immutable).
    pub data: Bytes,
    /// Root of the Merkle tree over all chunks of this encoding.
    pub root: Digest,
    /// Inclusion proof of `data` at `chunk_id`.
    pub proof: MerkleProof,
}

impl ChunkMsg {
    /// Approximate wire size: payload + proof hashes + header. Constants
    /// live in [`crate::wire`], shared with the TCP frame codec.
    pub fn wire_size(&self) -> usize {
        crate::wire::chunk_wire(self.data.len(), self.proof.path.len())
    }
}

/// Sender-side encoding: produces each node's outgoing chunk set.
pub struct ChunkSender;

impl ChunkSender {
    /// Encodes `entry_bytes` for a `plan` and returns the chunks node
    /// `sender` must ship: `(receiver node index, chunk message)` pairs.
    ///
    /// Deterministic: every correct node of the group produces the same
    /// encoding and the same Merkle tree, so their chunks share one root.
    pub fn encode_for(
        plan: &TransferPlan,
        sender: u32,
        entry: EntryId,
        entry_bytes: &[u8],
    ) -> Result<Vec<(u32, ChunkMsg)>, massbft_codec::CodecError> {
        let (chunks, tree) = Self::encode_and_prove(plan, entry_bytes)?;
        let root = tree.root();
        Ok(plan
            .outgoing_of(sender)
            .map(|t| {
                let c = t.chunk as usize;
                (
                    t.receiver,
                    ChunkMsg {
                        entry,
                        chunk_id: t.chunk,
                        data: chunks[c].clone(),
                        root,
                        proof: tree.prove(c),
                    },
                )
            })
            .collect())
    }

    /// Encodes and returns *all* chunks with proofs (used by tests and by
    /// Byzantine-behaviour injection, which needs a full tampered set).
    pub fn encode_all(
        plan: &TransferPlan,
        entry: EntryId,
        entry_bytes: &[u8],
    ) -> Result<Vec<ChunkMsg>, massbft_codec::CodecError> {
        let (chunks, tree) = Self::encode_and_prove(plan, entry_bytes)?;
        let root = tree.root();
        Ok(chunks
            .into_iter()
            .enumerate()
            .map(|(c, data)| ChunkMsg {
                entry,
                chunk_id: c as u32,
                data,
                root,
                proof: tree.prove(c),
            })
            .collect())
    }

    /// Shared encode path: fetch the process-wide codec for the plan's
    /// geometry, encode, and build the Merkle tree over the chunks. The
    /// shards are frozen into [`Bytes`] once; every chunk message holds a
    /// refcounted handle.
    fn encode_and_prove(
        plan: &TransferPlan,
        entry_bytes: &[u8],
    ) -> Result<(Vec<Bytes>, MerkleTree), massbft_codec::CodecError> {
        let codec = EntryCodec::shared(plan.n_data, plan.n_total)?;
        let chunks: Vec<Bytes> = codec
            .encode(entry_bytes)?
            .into_iter()
            .map(Bytes::from)
            .collect();
        // The framed copy of the entry inside `encode` is the only
        // byte-for-byte copy the send path still performs.
        stats::record_copied_bytes(entry_bytes.len());
        let tree = MerkleTree::build(&chunks);
        Ok((chunks, tree))
    }
}

/// Why the assembler rejected a chunk.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ChunkReject {
    /// The Merkle proof does not verify against the claimed root.
    BadProof,
    /// The chunk id was condemned by a failed bucket rebuild.
    Blacklisted,
    /// Duplicate of an already-accepted chunk in the same bucket.
    Duplicate,
    /// The entry was already rebuilt; chunk is useless.
    AlreadyRebuilt,
    /// Chunk geometry disagrees with the transfer plan (bad chunk id).
    BadGeometry,
}

/// Outcome of feeding a chunk to the assembler.
#[derive(Debug)]
pub enum ChunkOutcome {
    /// Chunk accepted; entry not yet rebuildable.
    Accepted,
    /// Chunk accepted and the entry rebuilt + certificate-validated: the
    /// rebuilt bytes with the digest the certificate was checked against.
    Rebuilt(EntryRecord),
    /// Chunk rejected.
    Rejected(ChunkReject),
}

/// Memory bounds against fake-chunk flooding (§IV-C DoS defence). A
/// Byzantine sender can mint an unlimited supply of *valid-looking*
/// chunks — every fresh fake encoding has a fresh Merkle root whose
/// proofs verify — so without a cap the per-entry bucket map grows with
/// attacker bandwidth. Honest chunks all share one root and accumulate
/// in one bucket; fake roots can at best trickle into many. Capping the
/// bucket count and evicting the smallest non-leading bucket therefore
/// starves the flood while the honest bucket (the largest, or soon to
/// be) is never evicted.
const MAX_BUCKETS_PER_ENTRY: usize = 8;

/// Upper bound on condemned chunk ids kept per entry. Ids are already
/// `< n_total`, so this only binds on degenerate geometries; it makes
/// the bound explicit rather than emergent.
const MAX_BLACKLIST_PER_ENTRY: usize = 256;

/// Upper bound on memoized known-certified entry digests (FIFO-evicted).
const MAX_CERT_MEMO: usize = 1024;

/// Per-entry reassembly state at one receiver node.
struct EntryAssembly {
    /// Buckets keyed by Merkle root: chunk id → data. Chunk payloads stay
    /// in their received [`Bytes`] buffers; bucketing never copies them.
    buckets: FastMap<Digest, BTreeMap<u32, Bytes>>,
    /// Chunk ids condemned by failed rebuilds.
    blacklist: BTreeSet<u32>,
    rebuilt: bool,
}

/// Reassembles entries from chunks at a receiver node (one per origin
/// group, since each origin uses its own transfer-plan geometry).
pub struct ChunkAssembler {
    plan: Arc<TransferPlan>,
    /// Process-wide codec for the plan's geometry — carries the coefficient
    /// tables and the decode-plan cache shared with every other user of the
    /// same `(n_data, n_total)`.
    codec: Arc<EntryCodec>,
    registry: KeyRegistry,
    entries: FastMap<EntryId, EntryAssembly>,
    /// Completed entries (a handle on the buffer `Rebuilt` handed out),
    /// kept until taken or `gc`'d.
    completed: FastMap<EntryId, Bytes>,
    /// Digests whose quorum certificate already validated once, with
    /// FIFO eviction order. A LAN re-shared chunk arriving after the
    /// entry was rebuilt and `gc`'d recreates assembly state and would
    /// re-pay the whole batched-HMAC pass on rebuild; any cert claiming
    /// a digest in this set is known good (the digest is what the quorum
    /// certified — the messenger's cert copy adds nothing).
    cert_memo: BTreeSet<Digest>,
    cert_memo_order: std::collections::VecDeque<Digest>,
}

impl ChunkAssembler {
    /// Creates an assembler for entries of one origin group, whose
    /// encoding geometry is fixed by `plan`. The plan is shared via `Arc`
    /// so the protocol layer, the assembler, and tests reference one
    /// allocation instead of cloning the transfer table around.
    pub fn new(plan: Arc<TransferPlan>, registry: KeyRegistry) -> Self {
        let codec = EntryCodec::shared(plan.n_data, plan.n_total)
            .expect("transfer plans always carry a valid codec geometry");
        ChunkAssembler {
            plan,
            codec,
            registry,
            entries: FastMap::default(),
            completed: FastMap::default(),
            cert_memo: BTreeSet::new(),
            cert_memo_order: std::collections::VecDeque::new(),
        }
    }

    /// The plan this assembler expects.
    pub fn plan(&self) -> &TransferPlan {
        &self.plan
    }

    /// Whether `entry` has been rebuilt (content may have been taken).
    pub fn is_rebuilt(&self, entry: EntryId) -> bool {
        self.completed.contains_key(&entry) || self.entries.get(&entry).is_some_and(|a| a.rebuilt)
    }

    /// Takes the rebuilt bytes of `entry`, if available.
    pub fn take_rebuilt(&mut self, entry: EntryId) -> Option<Bytes> {
        self.completed.remove(&entry)
    }

    /// Feeds one received chunk together with the entry's certificate
    /// (carried alongside chunks per §IV-C). Returns what happened.
    pub fn on_chunk(&mut self, msg: ChunkMsg, cert: &QuorumCert) -> ChunkOutcome {
        let outcome = self.on_chunk_inner(msg, cert);
        match &outcome {
            ChunkOutcome::Accepted => counters().accepted.inc(),
            ChunkOutcome::Rebuilt(_) => counters().rebuilds.inc(),
            ChunkOutcome::Rejected(_) => counters().rejects.inc(),
        }
        outcome
    }

    fn on_chunk_inner(&mut self, msg: ChunkMsg, cert: &QuorumCert) -> ChunkOutcome {
        if msg.chunk_id as usize >= self.plan.n_total
            || msg.proof.leaf_index != msg.chunk_id as usize
            || msg.proof.leaf_count != self.plan.n_total
        {
            return ChunkOutcome::Rejected(ChunkReject::BadGeometry);
        }
        let asm = self
            .entries
            .entry(msg.entry)
            .or_insert_with(|| EntryAssembly {
                buckets: FastMap::default(),
                blacklist: BTreeSet::new(),
                rebuilt: false,
            });
        if asm.rebuilt {
            return ChunkOutcome::Rejected(ChunkReject::AlreadyRebuilt);
        }
        if asm.blacklist.contains(&msg.chunk_id) {
            return ChunkOutcome::Rejected(ChunkReject::Blacklisted);
        }
        if !msg.proof.verify(&msg.root, &msg.data) {
            return ChunkOutcome::Rejected(ChunkReject::BadProof);
        }
        if !asm.buckets.contains_key(&msg.root) && asm.buckets.len() >= MAX_BUCKETS_PER_ENTRY {
            // Bucket-map cap reached by a flood of fake roots: evict the
            // smallest bucket that is not the current leader. Ties break
            // on the root digest, keeping eviction deterministic.
            let leading = asm
                .buckets
                .iter()
                .max_by_key(|(r, b)| (b.len(), **r))
                .map(|(&r, _)| r);
            let victim = asm
                .buckets
                .iter()
                .filter(|(&r, _)| Some(r) != leading)
                .min_by_key(|(r, b)| (b.len(), **r))
                .map(|(&r, _)| r);
            if let Some(v) = victim {
                asm.buckets.remove(&v);
            }
        }
        let bucket = asm.buckets.entry(msg.root).or_default();
        if bucket.contains_key(&msg.chunk_id) {
            return ChunkOutcome::Rejected(ChunkReject::Duplicate);
        }
        bucket.insert(msg.chunk_id, msg.data);

        // Optimistic rebuild once the bucket holds n_data chunks. The
        // decode borrows the bucketed chunk buffers in place — no shard
        // copies — and hits the codec's decode-plan cache whenever the
        // same erasure pattern recurs.
        if bucket.len() >= self.plan.n_data {
            let mut shards: Vec<Option<&[u8]>> = vec![None; self.plan.n_total];
            for (&cid, data) in bucket.iter() {
                shards[cid as usize] = Some(data.as_ref());
            }
            // Hashed once, here: the record carries the digest on to every
            // later stage.
            let rebuilt = (self.codec.decode_from(&shards).ok()).and_then(EntryRecord::hash);
            let valid = match &rebuilt {
                Some(rec) => {
                    // Memoized by entry digest: a rebuild whose bytes hash
                    // to an already-certified digest (e.g. a late LAN
                    // re-share after the first rebuild was consumed and
                    // gc'd) skips the batched-HMAC pass entirely.
                    let digest = rec.digest();
                    if self.cert_memo.contains(&digest) {
                        counters().cert_memo_hits.inc();
                        true
                    } else {
                        let ok = cert.validate_for(&digest, &self.registry).is_ok();
                        // Direct field accesses keep the borrows disjoint
                        // from the live `asm` borrow of `self.entries`.
                        if ok && self.cert_memo.insert(digest) {
                            self.cert_memo_order.push_back(digest);
                            while self.cert_memo_order.len() > MAX_CERT_MEMO {
                                if let Some(old) = self.cert_memo_order.pop_front() {
                                    self.cert_memo.remove(&old);
                                }
                            }
                        }
                        ok
                    }
                }
                None => false,
            };
            if valid {
                let rec = rebuilt.expect("checked");
                // Reassembling the framed entry out of the shards is the
                // copy this path still makes; `completed` and the caller
                // share the result.
                stats::record_copied_bytes(rec.bytes().len());
                asm.rebuilt = true;
                asm.buckets.clear();
                self.completed.insert(msg.entry, rec.bytes().clone());
                return ChunkOutcome::Rebuilt(rec);
            }
            // The whole bucket is fake (same root ⇒ same encoding):
            // condemn its chunk ids and drop it (paper §IV-C).
            let condemned: Vec<u32> = bucket.keys().copied().collect();
            asm.buckets.remove(&msg.root);
            asm.blacklist.extend(condemned);
            while asm.blacklist.len() > MAX_BLACKLIST_PER_ENTRY {
                asm.blacklist.pop_first();
            }
            return ChunkOutcome::Rejected(ChunkReject::Blacklisted);
        }
        ChunkOutcome::Accepted
    }

    /// Drops per-entry state (after the protocol layer has consumed the
    /// entry and it is no longer needed for LAN re-broadcast).
    pub fn gc(&mut self, entry: EntryId) {
        self.entries.remove(&entry);
        self.completed.remove(&entry);
    }

    /// Number of entries with in-flight reassembly state.
    pub fn pending_entries(&self) -> usize {
        self.entries.iter().filter(|(_, a)| !a.rebuilt).count()
    }

    /// Number of live reassembly buckets for `entry` (memory-bound probes).
    pub fn bucket_count(&self, entry: EntryId) -> usize {
        self.entries
            .get(&entry)
            .map(|a| a.buckets.len())
            .unwrap_or(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::entry::entry_digest;
    use massbft_crypto::keys::NodeId;

    fn setup(
        n1: usize,
        n2: usize,
    ) -> (Arc<TransferPlan>, KeyRegistry, Vec<u8>, QuorumCert, EntryId) {
        let plan = Arc::new(TransferPlan::generate(n1, n2).unwrap());
        let registry = KeyRegistry::generate(5, &[n1, n2]);
        let id = EntryId::new(0, 1);
        let entry = crate::entry::encode_batch(id, &[b"tx-a".to_vec(), b"tx-b".to_vec()]);
        let quorum = massbft_crypto::cert::quorum(n1);
        let cert = QuorumCert::assemble(
            entry_digest(&entry),
            0,
            &registry,
            (0..quorum as u32).map(|i| NodeId::new(0, i)),
        );
        (plan, registry, entry, cert, id)
    }

    #[test]
    fn full_honest_path_rebuilds() {
        let (plan, registry, entry, cert, id) = setup(4, 7);
        let mut asm = ChunkAssembler::new(Arc::clone(&plan), registry);
        let mut rebuilt = None;
        'outer: for sender in 0..4u32 {
            let outgoing = ChunkSender::encode_for(&plan, sender, id, &entry).unwrap();
            assert_eq!(outgoing.len(), plan.per_sender);
            for (_, msg) in outgoing {
                match asm.on_chunk(msg, &cert) {
                    ChunkOutcome::Rebuilt(rec) => {
                        rebuilt = Some(rec);
                        break 'outer;
                    }
                    ChunkOutcome::Accepted => {}
                    ChunkOutcome::Rejected(r) => panic!("honest chunk rejected: {r:?}"),
                }
            }
        }
        let rec = rebuilt.unwrap();
        assert_eq!(rec.bytes(), &entry);
        assert_eq!((rec.id(), rec.digest()), (id, entry_digest(&entry)));
        assert!(asm.is_rebuilt(id));
        assert_eq!(asm.take_rebuilt(id).unwrap(), entry);
    }

    #[test]
    fn rebuild_with_worst_case_loss() {
        // Drop all chunks of 1 faulty sender and all chunks taken by 2
        // faulty receivers: the remaining n_data must still rebuild.
        let (plan, registry, entry, cert, id) = setup(4, 7);
        let mut asm = ChunkAssembler::new(Arc::clone(&plan), registry);
        let all = ChunkSender::encode_all(&plan, id, &entry).unwrap();
        let lost: BTreeSet<u32> = plan
            .transfers
            .iter()
            .filter(|t| t.sender == 3 || t.receiver == 5 || t.receiver == 6)
            .map(|t| t.chunk)
            .collect();
        assert!(all.len() - lost.len() >= plan.n_data);
        let mut got = None;
        for msg in all {
            if lost.contains(&msg.chunk_id) {
                continue;
            }
            if let ChunkOutcome::Rebuilt(rec) = asm.on_chunk(msg, &cert) {
                got = Some(rec.bytes().clone());
                break;
            }
        }
        assert_eq!(got.unwrap(), entry);
    }

    #[test]
    fn tampered_chunks_bucket_separately_and_get_blacklisted() {
        let (plan, registry, entry, cert, id) = setup(4, 7);
        let mut asm = ChunkAssembler::new(Arc::clone(&plan), registry);

        // Byzantine nodes hold a *different* entry (collusion per §VI-E)
        // and encode it consistently: same geometry, different root.
        let tampered_entry =
            crate::entry::encode_batch(id, &[b"EVIL-tx".to_vec(), b"EVIL-tx2".to_vec()]);
        let evil = ChunkSender::encode_all(&plan, id, &tampered_entry).unwrap();

        // Feed n_data tampered chunks: bucket fills, rebuild succeeds
        // byte-wise but fails certificate validation → blacklist.
        let mut blacklisted = false;
        for msg in evil.iter().take(plan.n_data).cloned() {
            match asm.on_chunk(msg, &cert) {
                ChunkOutcome::Rejected(ChunkReject::Blacklisted) => blacklisted = true,
                ChunkOutcome::Rebuilt(_) => panic!("tampered entry passed cert validation"),
                _ => {}
            }
        }
        assert!(blacklisted);

        // Honest chunks with blacklisted ids are now refused (DoS guard)…
        let honest = ChunkSender::encode_all(&plan, id, &entry).unwrap();
        let first_honest = honest[0].clone();
        assert!(matches!(
            asm.on_chunk(first_honest, &cert),
            ChunkOutcome::Rejected(ChunkReject::Blacklisted)
        ));

        // …but enough non-blacklisted honest chunks still rebuild: the
        // blacklist covers n_data ids, leaving n_parity ≥ n_data? Not in
        // general — here 15 parity ≥ 13 data, so ids n_data..n_total
        // suffice.
        let mut got = None;
        for msg in honest.into_iter().skip(plan.n_data) {
            if let ChunkOutcome::Rebuilt(rec) = asm.on_chunk(msg, &cert) {
                got = Some(rec.bytes().clone());
                break;
            }
        }
        assert_eq!(got.unwrap(), entry);
    }

    #[test]
    fn flipped_byte_fails_merkle_proof() {
        let (plan, registry, entry, cert, id) = setup(4, 7);
        let mut asm = ChunkAssembler::new(Arc::clone(&plan), registry);
        let mut all = ChunkSender::encode_all(&plan, id, &entry).unwrap();
        // Chunk payloads are immutable shared buffers; corrupt a copy.
        let mut corrupt = all[0].data.to_vec();
        corrupt[0] ^= 0xff;
        all[0].data = corrupt.into();
        assert!(matches!(
            asm.on_chunk(all[0].clone(), &cert),
            ChunkOutcome::Rejected(ChunkReject::BadProof)
        ));
    }

    #[test]
    fn data_plane_counters_track_encode_and_rebuild() {
        // Counters are process-global and monotonic; assert deltas so the
        // test stays valid when other tests run concurrently.
        let before = crate::stats::data_plane_stats();
        let (plan, registry, entry, cert, id) = setup(4, 7);
        let mut asm = ChunkAssembler::new(Arc::clone(&plan), registry);
        let all = ChunkSender::encode_all(&plan, id, &entry).unwrap();

        let after_encode = crate::stats::data_plane_stats();
        assert!(
            after_encode.bytes_copied >= before.bytes_copied + entry.len() as u64,
            "encode frames (copies) the entry once"
        );

        // Withhold the first data chunk so the rebuild must go through the
        // decode matrix (and therefore the decode-plan cache).
        let mut got = None;
        for msg in all.into_iter().skip(1) {
            if let ChunkOutcome::Rebuilt(rec) = asm.on_chunk(msg, &cert) {
                got = Some(rec.bytes().clone());
                break;
            }
        }
        assert_eq!(got.unwrap(), entry);

        let after = crate::stats::data_plane_stats();
        assert!(
            after.bytes_copied >= after_encode.bytes_copied + entry.len() as u64,
            "rebuild reassembles the entry"
        );
        let decodes_before = before.decode_cache_hits + before.decode_cache_misses;
        let decodes_after = after.decode_cache_hits + after.decode_cache_misses;
        assert!(
            decodes_after > decodes_before,
            "matrix decode consulted the cache"
        );
    }

    #[test]
    fn duplicate_chunks_rejected() {
        let (plan, registry, entry, cert, id) = setup(7, 7);
        let mut asm = ChunkAssembler::new(Arc::clone(&plan), registry);
        let all = ChunkSender::encode_all(&plan, id, &entry).unwrap();
        assert!(matches!(
            asm.on_chunk(all[0].clone(), &cert),
            ChunkOutcome::Accepted
        ));
        assert!(matches!(
            asm.on_chunk(all[0].clone(), &cert),
            ChunkOutcome::Rejected(ChunkReject::Duplicate)
        ));
    }

    #[test]
    fn geometry_violations_rejected() {
        let (plan, registry, entry, cert, id) = setup(4, 7);
        let mut asm = ChunkAssembler::new(Arc::clone(&plan), registry);
        let all = ChunkSender::encode_all(&plan, id, &entry).unwrap();
        let mut bad = all[0].clone();
        bad.chunk_id = plan.n_total as u32 + 5;
        assert!(matches!(
            asm.on_chunk(bad, &cert),
            ChunkOutcome::Rejected(ChunkReject::BadGeometry)
        ));
        // Claimed index disagreeing with the proof is also geometry abuse.
        let mut swapped = all[0].clone();
        swapped.chunk_id = 1;
        assert!(matches!(
            asm.on_chunk(swapped, &cert),
            ChunkOutcome::Rejected(ChunkReject::BadGeometry)
        ));
    }

    #[test]
    fn chunks_after_rebuild_are_ignored() {
        let (plan, registry, entry, cert, id) = setup(4, 7);
        let mut asm = ChunkAssembler::new(Arc::clone(&plan), registry);
        let all = ChunkSender::encode_all(&plan, id, &entry).unwrap();
        let mut done = false;
        for msg in all.iter().take(plan.n_data).cloned() {
            if matches!(asm.on_chunk(msg, &cert), ChunkOutcome::Rebuilt(_)) {
                done = true;
            }
        }
        assert!(done);
        assert!(matches!(
            asm.on_chunk(all[plan.n_data].clone(), &cert),
            ChunkOutcome::Rejected(ChunkReject::AlreadyRebuilt)
        ));
    }

    #[test]
    fn gc_drops_state() {
        let (plan, registry, entry, cert, id) = setup(4, 7);
        let mut asm = ChunkAssembler::new(Arc::clone(&plan), registry);
        let all = ChunkSender::encode_all(&plan, id, &entry).unwrap();
        for msg in all.into_iter().take(plan.n_data) {
            let _ = asm.on_chunk(msg, &cert);
        }
        assert!(asm.is_rebuilt(id));
        asm.gc(id);
        assert_eq!(asm.pending_entries(), 0);
        assert!(asm.take_rebuilt(id).is_none());
    }

    #[test]
    fn fake_root_flood_is_memory_bounded_and_honest_rebuild_survives() {
        // A Byzantine sender mints hundreds of distinct fake encodings of
        // the same entry id — every one carries a fresh Merkle root with
        // proofs that verify, so each opens a new bucket. The bucket map
        // must stay capped, and honest chunks arriving afterwards (worst
        // case for the cap policy) must still rebuild the entry.
        let (plan, registry, entry, cert, id) = setup(4, 7);
        let mut asm = ChunkAssembler::new(Arc::clone(&plan), registry);
        for i in 0..300u32 {
            let fake = crate::entry::encode_batch(id, &[format!("flood-{i}").into_bytes()]);
            let msg = ChunkSender::encode_all(&plan, id, &fake).unwrap()[0].clone();
            match asm.on_chunk(msg, &cert) {
                ChunkOutcome::Accepted | ChunkOutcome::Rejected(_) => {}
                ChunkOutcome::Rebuilt(_) => panic!("single fake chunk cannot rebuild"),
            }
            assert!(
                asm.bucket_count(id) <= MAX_BUCKETS_PER_ENTRY,
                "bucket map grew past the cap under flooding"
            );
        }
        // The honest encoding still gets a bucket and wins: its chunks
        // share one root and outgrow the fake singletons.
        let honest = ChunkSender::encode_all(&plan, id, &entry).unwrap();
        let mut got = None;
        for msg in honest {
            if let ChunkOutcome::Rebuilt(rec) = asm.on_chunk(msg, &cert) {
                got = Some(rec.bytes().clone());
                break;
            }
            assert!(asm.bucket_count(id) <= MAX_BUCKETS_PER_ENTRY);
        }
        assert_eq!(
            got.unwrap(),
            entry,
            "flooding suppressed the honest rebuild"
        );
    }

    #[test]
    fn interleaved_flood_cannot_evict_the_leading_honest_bucket() {
        // Interleave: two honest chunks first (the honest bucket becomes
        // the leader), then a sustained fake flood, then the rest of the
        // honest chunks. The leader must never be evicted.
        let (plan, registry, entry, cert, id) = setup(4, 7);
        let mut asm = ChunkAssembler::new(Arc::clone(&plan), registry);
        let honest = ChunkSender::encode_all(&plan, id, &entry).unwrap();
        for msg in honest.iter().take(2).cloned() {
            assert!(matches!(asm.on_chunk(msg, &cert), ChunkOutcome::Accepted));
        }
        for i in 0..100u32 {
            let fake = crate::entry::encode_batch(id, &[format!("evict-{i}").into_bytes()]);
            let msg = ChunkSender::encode_all(&plan, id, &fake).unwrap()[0].clone();
            let _ = asm.on_chunk(msg, &cert);
        }
        assert!(asm.bucket_count(id) <= MAX_BUCKETS_PER_ENTRY);
        let mut got = None;
        for msg in honest.into_iter().skip(2) {
            if let ChunkOutcome::Rebuilt(rec) = asm.on_chunk(msg, &cert) {
                got = Some(rec.bytes().clone());
                break;
            }
        }
        // Rebuild needed only n_data - 2 more honest chunks: the two
        // pre-flood chunks must have survived in the leading bucket.
        assert_eq!(got.unwrap(), entry);
    }

    #[test]
    fn sender_chunks_match_plan_assignment() {
        let (plan, _registry, entry, _cert, id) = setup(4, 7);
        for sender in 0..4u32 {
            let outgoing = ChunkSender::encode_for(&plan, sender, id, &entry).unwrap();
            for (receiver, msg) in outgoing {
                let t = plan
                    .transfers
                    .iter()
                    .find(|t| t.chunk == msg.chunk_id)
                    .expect("chunk in plan");
                assert_eq!(t.sender, sender);
                assert_eq!(t.receiver, receiver);
            }
        }
    }
}
