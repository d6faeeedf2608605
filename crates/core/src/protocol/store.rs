//! What this node holds of every entry: the content as it was accepted,
//! the origin's certificate, how far the entry has come, and a bounded
//! archive of executed entries that serves pull repair (Lemma V.1). The
//! store records and answers; it sends nothing.

use crate::entry::{EntryId, EntryRecord};
use bytes::Bytes;
use massbft_crypto::{Digest, QuorumCert};
use massbft_db::hash::FastMap;
use std::collections::VecDeque;

/// Executed entries kept for pull repair, oldest evicted first.
const ARCHIVE_DEPTH: usize = 2048;

/// State of one entry this node has heard of.
#[derive(Debug, Default)]
struct Held {
    /// The entry as this node accepted it (see [`EntryRecord`]); taken
    /// when the entry executes.
    content: Option<EntryRecord>,
    cert: Option<QuorumCert>,
    committed: bool,
    fed_to_round: bool,
    executed: bool,
}

/// Per-entry replication and execution state, all protocol presets.
pub(super) struct EntryStore {
    entries: FastMap<EntryId, Held>,
    archive: FastMap<EntryId, (Bytes, QuorumCert)>,
    archive_order: VecDeque<EntryId>,
}

impl EntryStore {
    pub(super) fn new() -> Self {
        EntryStore {
            entries: FastMap::default(),
            archive: FastMap::default(),
            archive_order: VecDeque::new(),
        }
    }

    /// Stores a validated entry — the single place content enters. A
    /// second copy, or one arriving after execution, is dropped.
    pub(super) fn hold(&mut self, rec: EntryRecord) {
        let t = self.entries.entry(rec.id()).or_default();
        if t.content.is_none() && !t.executed {
            t.content = Some(rec);
        }
    }

    /// The certificate slot of `id`.
    pub(super) fn cert_mut(&mut self, id: EntryId) -> &mut Option<QuorumCert> {
        &mut self.entries.entry(id).or_default().cert
    }

    /// Whether the content is here or no longer needed (executed).
    pub(super) fn has(&self, id: EntryId) -> bool {
        (self.entries.get(&id)).is_some_and(|t| t.content.is_some() || t.executed)
    }

    /// Held, executed, or committed — which implies a majority of groups
    /// accepted it under the gating rule, so pull repair can supply it.
    pub(super) fn is_safe(&self, id: EntryId) -> bool {
        (self.entries.get(&id)).is_some_and(|t| t.content.is_some() || t.executed || t.committed)
    }

    pub(super) fn is_committed(&self, id: EntryId) -> bool {
        self.entries.get(&id).is_some_and(|t| t.committed)
    }

    pub(super) fn is_executed(&self, id: EntryId) -> bool {
        self.entries.get(&id).is_some_and(|t| t.executed)
    }

    /// Marks the entry committed; `false` when it already was.
    pub(super) fn commit(&mut self, id: EntryId) -> bool {
        let t = self.entries.entry(id).or_default();
        !std::mem::replace(&mut t.committed, true)
    }

    /// Digest of the held content.
    pub(super) fn digest(&self, id: EntryId) -> Option<Digest> {
        Some(self.entries.get(&id)?.content.as_ref()?.digest())
    }

    /// Round ordering needs both the commit and the content: `true` the
    /// one time an entry is seen to have both.
    pub(super) fn round_ready(&mut self, id: EntryId) -> bool {
        let Some(t) = self.entries.get_mut(&id) else {
            return false;
        };
        let ready = t.committed && t.content.is_some() && !t.fed_to_round;
        t.fed_to_round |= ready;
        ready
    }

    /// Entries of group `gid` held here that are neither committed nor
    /// executed, in sequence order (the map's own order is per process).
    pub(super) fn uncommitted_of(&self, gid: u32) -> Vec<EntryId> {
        let mut ids: Vec<EntryId> = (self.entries.iter())
            .filter(|(id, t)| id.gid == gid && t.content.is_some() && !t.committed && !t.executed)
            .map(|(&id, _)| id)
            .collect();
        ids.sort();
        ids
    }

    /// Takes the content of an entry that is ready to execute.
    pub(super) fn take_runnable(&mut self, id: EntryId) -> Option<EntryRecord> {
        let t = self.entries.get_mut(&id).filter(|t| !t.executed)?;
        t.content.take()
    }

    /// The entry executed: drop its replication state, keeping a marker so
    /// late chunks or copies do not resurrect it, and archive it — a node
    /// that committed an entry it cannot rebuild (origin crashed
    /// mid-replication) fetches it from a peer that executed it.
    pub(super) fn finish(&mut self, rec: &EntryRecord) {
        let id = rec.id();
        let t = self.entries.entry(id).or_default();
        let cert = t.cert.take();
        t.content = None;
        t.committed = true;
        t.fed_to_round = true;
        t.executed = true;
        if let Some(cert) = cert {
            self.archive.insert(id, (rec.bytes().clone(), cert));
            self.archive_order.push_back(id);
            while self.archive_order.len() > ARCHIVE_DEPTH {
                if let Some(old) = self.archive_order.pop_front() {
                    self.archive.remove(&old);
                }
            }
        }
    }

    /// Bytes and certificate for a repair request, from the archive or
    /// the live state.
    pub(super) fn serve(&self, id: EntryId) -> Option<(Bytes, QuorumCert)> {
        (self.archive.get(&id).cloned()).or_else(|| {
            let t = self.entries.get(&id)?;
            Some((t.content.as_ref()?.bytes().clone(), t.cert.clone()?))
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::entry::encode_batch;
    use massbft_crypto::KeyRegistry;

    fn record(id: EntryId) -> (EntryRecord, QuorumCert) {
        let rec = EntryRecord::hash(encode_batch(id, &[b"txn".to_vec()]).into()).expect("entry");
        let registry = KeyRegistry::generate(1, &[4]);
        let signers = (0..3).map(|i| massbft_crypto::keys::NodeId::new(0, i));
        let cert = QuorumCert::assemble(rec.digest(), 0, &registry, signers);
        (rec, cert)
    }

    #[test]
    fn an_entry_moves_from_held_to_executed_and_is_served_throughout() {
        let id = EntryId::new(0, 1);
        let (rec, cert) = record(id);
        let mut s = EntryStore::new();
        assert!(!s.has(id) && !s.is_safe(id) && s.serve(id).is_none());
        // Commit alone makes it safe, not held; round ordering waits.
        assert!(s.commit(id) && !s.commit(id));
        assert!(s.is_safe(id) && !s.has(id) && !s.round_ready(id));
        s.hold(rec.clone());
        s.cert_mut(id).get_or_insert(cert.clone());
        assert!(s.has(id) && s.digest(id) == Some(rec.digest()));
        assert!(s.round_ready(id) && !s.round_ready(id), "fed exactly once");
        assert_eq!(s.serve(id).expect("live state").0, *rec.bytes());
        // Execution takes the content; the archive keeps serving it.
        let taken = s.take_runnable(id).expect("runnable");
        s.finish(&taken);
        assert!(s.is_executed(id) && s.has(id) && s.digest(id).is_none());
        assert!(s.take_runnable(id).is_none());
        assert_eq!(s.serve(id).expect("archived").0, *rec.bytes());
        // A late copy does not resurrect it.
        s.hold(rec);
        assert!(s.digest(id).is_none());
    }

    #[test]
    fn uncommitted_entries_of_a_group_come_out_in_sequence_order() {
        let mut s = EntryStore::new();
        for seq in [5, 2, 9, 3] {
            s.hold(record(EntryId::new(1, seq)).0);
        }
        s.hold(record(EntryId::new(2, 1)).0);
        s.commit(EntryId::new(1, 3));
        s.commit(EntryId::new(1, 7)); // committed, never held
        let seqs: Vec<u64> = s.uncommitted_of(1).iter().map(|id| id.seq).collect();
        assert_eq!(seqs, [2, 5, 9]);
    }

    #[test]
    fn the_archive_is_bounded_and_evicts_the_oldest() {
        let mut s = EntryStore::new();
        let (rec, cert) = record(EntryId::new(0, 1));
        for seq in 1..=ARCHIVE_DEPTH as u64 + 1 {
            let id = EntryId::new(0, seq);
            *s.cert_mut(id) = Some(cert.clone());
            // Only the id matters to the archive's bookkeeping.
            let rec = EntryRecord::hash(encode_batch(id, &[]).into()).expect("entry");
            s.finish(&rec);
        }
        assert!(s.serve(rec.id()).is_none(), "oldest evicted");
        assert!(s.serve(EntryId::new(0, 2)).is_some());
        // An entry executed without a certificate is not archived.
        let bare = EntryId::new(3, 1);
        s.finish(&record(bare).0);
        assert!(s.is_executed(bare) && s.serve(bare).is_none());
    }
}
