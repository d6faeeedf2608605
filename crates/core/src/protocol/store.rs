//! What this node keeps of every entry, in one record per entry: the
//! content as it was accepted, the origin's certificate, how far the entry
//! has come and — on a representative — what the global layer counted and
//! stamped for it. A record lives from the first the node hears of the
//! entry until the entry executes; what executed is remembered per group as
//! a frontier. The store records and answers; it sends nothing.
//!
//! Pull repair (Lemma V.1) asks only the nodes
//! [`ProtocolParams::serves_repair`](super::ProtocolParams::serves_repair)
//! names — each group's original representative — so only their stores
//! are built to archive: a bounded run of executed entries stays on there,
//! content and certificate, to answer an `EntryRequest`. Elsewhere an
//! executed entry leaves nothing but the frontier, which answers every
//! query but [`EntryStore::serve`] as the archived record would.

use crate::entry::{EntryId, EntryRecord};
use bytes::Bytes;
use massbft_crypto::{Digest, QuorumCert};
use massbft_db::hash::FastMap;
use std::collections::{BTreeSet, VecDeque};

/// Executed entries an archiving store keeps for pull repair, oldest
/// evicted first.
const ARCHIVE_DEPTH: usize = 2048;

/// Everything this node knows of one entry.
#[derive(Debug, Default)]
struct Record {
    /// The entry as this node accepted it (see [`EntryRecord`]).
    content: Option<EntryRecord>,
    cert: Option<QuorumCert>,
    committed: bool,
    fed_to_round: bool,
    /// Direct-accept tally (§V-C): the groups known to hold the entry.
    holders: BTreeSet<u32>,
    /// The groups this representative stamped the entry on behalf of —
    /// dedup across Raft retransmissions, and per group because a takeover
    /// leader stamps the same entry for several clocks.
    stamped_for: BTreeSet<u32>,
    /// This representative re-proposed the entry after taking over its
    /// crashed origin's entry instance (dedup across content re-arrivals).
    reproposed: bool,
}

/// Which of one group's entries executed, exactly: every seq up to
/// `contiguous` and the ones `ahead` of it. Every ordering rule executes a
/// group's entries in sequence but Steward's log order, where a forward
/// lost to a link fault lets the next one pass — `ahead` is normally empty.
#[derive(Debug, Default, Clone)]
struct Frontier {
    contiguous: u64,
    ahead: BTreeSet<u64>,
}

/// Per-entry state of a node, all protocol presets.
pub(super) struct EntryStore {
    /// The entries heard of and yet to execute, and the executed ones
    /// `retained` for repair.
    entries: FastMap<EntryId, Record>,
    /// What executed, per origin group.
    executed: Vec<Frontier>,
    /// The executed entries still in `entries`, oldest first.
    retained: VecDeque<EntryId>,
    /// Whether executed content is retained at all: only on a node that
    /// serves repair.
    archive: bool,
    /// Content bytes of the `retained` records.
    archive_bytes: u64,
}

impl EntryStore {
    /// The store of a node in a cluster of `ng` groups; `archive` on a node
    /// that serves repair.
    pub(super) fn new(ng: usize, archive: bool) -> Self {
        EntryStore {
            entries: FastMap::default(),
            executed: vec![Frontier::default(); ng],
            retained: VecDeque::new(),
            archive,
            archive_bytes: 0,
        }
    }

    pub(super) fn is_executed(&self, id: EntryId) -> bool {
        let of_group = self.executed.get(id.gid as usize);
        of_group.is_some_and(|f| id.seq <= f.contiguous || f.ahead.contains(&id.seq))
    }

    /// Records of entries yet to execute: bounded by the groups' pipeline
    /// windows, however long the node has run.
    pub(super) fn live_records(&self) -> usize {
        self.entries.len() - self.retained.len()
    }

    /// Content bytes held for repair of executed entries: 0 on a node that
    /// serves none.
    pub(super) fn archive_bytes(&self) -> u64 {
        self.archive_bytes
    }

    /// The record of an entry yet to execute, if the node heard of it.
    fn live_mut(&mut self, id: EntryId) -> Option<&mut Record> {
        let executed = self.is_executed(id);
        self.entries.get_mut(&id).filter(|_| !executed)
    }

    /// The record that content, commits, accept notices and stamps land on:
    /// made at first mention, and still there for an executed entry while
    /// it is retained. Execution reset that one to its content
    /// ([`EntryStore::finish`]), so what trails execution — a slow group's
    /// notice, a retransmitted append, the Raft commit behind an
    /// accept-tally commit — counts as on a fresh record, as it always
    /// did; past the archive, or on a store that keeps none, it is ignored.
    fn record_mut(&mut self, id: EntryId) -> Option<&mut Record> {
        if self.is_executed(id) {
            return self.entries.get_mut(&id);
        }
        Some(self.entries.entry(id).or_default())
    }

    /// The entries whose record passes `pick`, in order (the map's own
    /// order is per process).
    fn sorted(&self, pick: impl Fn(EntryId, &Record) -> bool) -> Vec<EntryId> {
        let picked = self.entries.iter().filter(|(&id, t)| pick(id, t));
        let mut ids: Vec<EntryId> = picked.map(|(&id, _)| id).collect();
        ids.sort();
        ids
    }

    // --- content ------------------------------------------------------------

    /// Stores a validated entry and the certificate it came with — the
    /// single place content enters. A second copy, or one arriving after
    /// execution, is dropped.
    pub(super) fn hold(&mut self, rec: EntryRecord, cert: Option<QuorumCert>) {
        if let Some(t) = self.record_mut(rec.id()).filter(|t| t.content.is_none()) {
            (t.content, t.cert) = (Some(rec), cert);
        }
    }

    /// Whether the content is here or no longer needed (executed).
    pub(super) fn has(&self, id: EntryId) -> bool {
        self.is_executed(id) || self.entries.get(&id).is_some_and(|t| t.content.is_some())
    }

    /// Held, executed, or committed — which implies a majority of groups
    /// accepted it under the gating rule, so pull repair can supply it.
    pub(super) fn is_safe(&self, id: EntryId) -> bool {
        let known = |t: &Record| t.content.is_some() || t.committed;
        self.is_executed(id) || self.entries.get(&id).is_some_and(known)
    }

    /// Digest of the held content of an entry yet to execute.
    pub(super) fn digest(&self, id: EntryId) -> Option<Digest> {
        let live = self.entries.get(&id).filter(|_| !self.is_executed(id))?;
        Some(live.content.as_ref()?.digest())
    }

    /// Bytes and certificate for a repair request, of an entry yet to
    /// execute or an archived one alike.
    pub(super) fn serve(&self, id: EntryId) -> Option<(Bytes, QuorumCert)> {
        let t = self.entries.get(&id)?;
        Some((t.content.as_ref()?.bytes().clone(), t.cert.clone()?))
    }

    // --- commitment ---------------------------------------------------------

    pub(super) fn is_committed(&self, id: EntryId) -> bool {
        self.is_executed(id) || self.entries.get(&id).is_some_and(|t| t.committed)
    }

    /// Marks the entry committed; `false` when it already was, as an
    /// executed entry has been.
    pub(super) fn commit(&mut self, id: EntryId) -> bool {
        let executed = self.is_executed(id);
        let t = self.record_mut(id);
        let was = t.is_some_and(|t| std::mem::replace(&mut t.committed, true));
        !(was || executed)
    }

    /// Round ordering needs both the commit and the content: `true` the
    /// one time an entry is seen to have both.
    pub(super) fn round_ready(&mut self, id: EntryId) -> bool {
        let Some(t) = self.live_mut(id) else {
            return false;
        };
        let ready = t.committed && t.content.is_some() && !t.fed_to_round;
        t.fed_to_round |= ready;
        ready
    }

    /// Entries of group `gid` held here that are neither committed nor
    /// executed.
    pub(super) fn uncommitted_of(&self, gid: u32) -> Vec<EntryId> {
        self.sorted(|id, t| {
            id.gid == gid && t.content.is_some() && !t.committed && !self.is_executed(id)
        })
    }

    /// Entries known committed and yet to execute: what a takeover leader
    /// stamps on the crashed group's behalf. Duplicates are harmless, and a
    /// retained entry whose Raft commit trailed its execution is one.
    pub(super) fn committed_unexecuted(&self) -> Vec<EntryId> {
        self.sorted(|_, t| t.committed)
    }

    // --- the global layer's marks (representatives) -------------------------

    /// Counts `group`, and the proposer implicitly, among the holders of
    /// `id` (§V-C). `true` when that makes them `quorum`: the entry is
    /// provably replicated, and the count starts over.
    pub(super) fn note_holder(&mut self, id: EntryId, group: u32, quorum: usize) -> bool {
        let Some(t) = self.record_mut(id) else {
            return false;
        };
        t.holders.extend([group, id.gid]);
        let replicated = t.holders.len() >= quorum;
        if replicated {
            t.holders.clear();
        }
        replicated
    }

    /// Notes that `id` is being stamped on behalf of `group`; `false` if it
    /// was before.
    pub(super) fn mark_stamped(&mut self, id: EntryId, group: u32) -> bool {
        (self.record_mut(id)).is_some_and(|t| t.stamped_for.insert(group))
    }

    /// Notes that held entry `id` is being re-proposed after a takeover;
    /// `false` if it was before.
    pub(super) fn mark_reproposed(&mut self, id: EntryId) -> bool {
        (self.live_mut(id)).is_some_and(|t| !std::mem::replace(&mut t.reproposed, true))
    }

    // --- execution ----------------------------------------------------------

    /// Takes the content of an entry that is ready to execute.
    pub(super) fn take_runnable(&mut self, id: EntryId) -> Option<EntryRecord> {
        self.live_mut(id)?.content.take()
    }

    /// The entry executed — its one death. The frontier keeps late chunks
    /// and copies from resurrecting it, and the record goes; on an
    /// archiving store, with a certificate, a fresh one holding only
    /// content and certificate is retained for `ARCHIVE_DEPTH` further
    /// executions — a node that committed an entry it cannot rebuild
    /// (origin crashed mid-replication) fetches it from a representative
    /// that executed it.
    pub(super) fn finish(&mut self, rec: EntryRecord) {
        let id = rec.id();
        let of_group = &mut self.executed[id.gid as usize];
        of_group.ahead.insert(id.seq);
        while of_group.ahead.remove(&(of_group.contiguous + 1)) {
            of_group.contiguous += 1;
        }
        let record = self.entries.remove(&id);
        let Some(cert) = record.and_then(|t| t.cert).filter(|_| self.archive) else {
            return;
        };
        self.archive_bytes += rec.bytes().len() as u64;
        let kept = Record {
            content: Some(rec),
            cert: Some(cert),
            ..Record::default()
        };
        self.entries.insert(id, kept);
        self.retained.push_back(id);
        if self.retained.len() > ARCHIVE_DEPTH {
            let oldest = self.retained.pop_front().expect("not empty");
            let evicted = self.entries.remove(&oldest).and_then(|t| t.content);
            self.archive_bytes -= evicted.map_or(0, |c| c.bytes().len() as u64);
        }
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

    /// Holds, commits and executes `id`.
    fn execute(s: &mut EntryStore, id: EntryId) {
        let (rec, cert) = record(id);
        s.hold(rec, Some(cert));
        s.commit(id);
        let taken = s.take_runnable(id).expect("runnable");
        s.finish(taken);
    }

    #[test]
    fn an_entry_moves_from_held_to_executed_and_is_served_throughout() {
        let id = EntryId::new(0, 1);
        let (rec, cert) = record(id);
        let mut s = EntryStore::new(1, true);
        assert!(!s.has(id) && !s.is_safe(id) && s.serve(id).is_none());
        // Commit alone makes it safe, not held; round ordering waits.
        assert!(s.commit(id) && !s.commit(id));
        assert!(s.is_safe(id) && !s.has(id) && !s.round_ready(id));
        s.hold(rec.clone(), Some(cert));
        assert!(s.has(id) && s.digest(id) == Some(rec.digest()));
        assert!(s.round_ready(id) && !s.round_ready(id), "fed exactly once");
        assert_eq!(s.serve(id).expect("live state").0, *rec.bytes());
        assert_eq!((s.live_records(), s.committed_unexecuted()), (1, vec![id]));
        // Execution takes the content; the archived record keeps serving it
        // and answers nothing else.
        let taken = s.take_runnable(id).expect("runnable");
        s.finish(taken);
        assert!(s.is_executed(id) && s.has(id) && s.is_committed(id));
        assert!(s.digest(id).is_none() && s.take_runnable(id).is_none());
        assert!(s.uncommitted_of(0).is_empty() && !s.round_ready(id));
        assert_eq!(s.serve(id).expect("retained").0, *rec.bytes());
        assert_eq!((s.live_records(), s.committed_unexecuted()), (0, vec![]));
        // A late copy does not resurrect it.
        s.hold(rec, None);
        assert!(s.digest(id).is_none() && s.live_records() == 0);
    }

    #[test]
    fn uncommitted_entries_of_a_group_come_out_in_sequence_order() {
        let mut s = EntryStore::new(3, true);
        for seq in [5, 2, 9, 3] {
            s.hold(record(EntryId::new(1, seq)).0, None);
        }
        s.hold(record(EntryId::new(2, 1)).0, None);
        s.commit(EntryId::new(1, 3));
        s.commit(EntryId::new(1, 7)); // committed, never held
        let seqs: Vec<u64> = s.uncommitted_of(1).iter().map(|id| id.seq).collect();
        assert_eq!(seqs, [2, 5, 9]);
        let committed = [3, 7].map(|seq| EntryId::new(1, seq));
        assert_eq!(s.committed_unexecuted(), committed);
    }

    #[test]
    fn a_representatives_marks_die_with_the_record_and_start_over_on_a_retained_one() {
        let mut s = EntryStore::new(5, true);
        let id = EntryId::new(0, 1);
        // Three of five groups hold it: the proposer, group 3, group 1.
        assert!(!s.note_holder(id, 3, 3) && !s.note_holder(id, 3, 3));
        assert!(s.note_holder(id, 1, 3));
        assert!(!s.note_holder(id, 1, 3), "the count started over");
        assert!(s.mark_stamped(id, 1) && !s.mark_stamped(id, 1));
        assert!(s.mark_stamped(id, 4), "per group");
        s.hold(record(id).0, None);
        assert!(s.mark_reproposed(id) && !s.mark_reproposed(id));
        // Executed without a certificate: nothing is retained, and what
        // trails execution finds nothing to count on.
        let taken = s.take_runnable(id).expect("runnable");
        s.finish(taken);
        assert!(!s.note_holder(id, 2, 2) && !s.mark_stamped(id, 1) && !s.commit(id));
        assert_eq!((s.live_records(), s.entries.len()), (0, 0));
        // Retained, a trailing stamp, notice or Raft commit counts once
        // more (the parent's behaviour) — and dies with the archive slot.
        let late = EntryId::new(1, 1);
        assert!(s.mark_stamped(late, 2));
        execute(&mut s, late);
        assert!(s.mark_stamped(late, 2) && !s.mark_stamped(late, 2));
        assert!(s.note_holder(late, 2, 2) && !s.mark_reproposed(late));
        assert!(!s.commit(late), "no second commit reaches the ordering");
        assert_eq!(s.committed_unexecuted(), [late]);
        assert_eq!((s.live_records(), s.entries.len()), (0, 1));
    }

    #[test]
    fn the_frontier_is_exact_out_of_order_and_across_a_permanent_gap() {
        let mut s = EntryStore::new(2, true);
        let of = |seq| EntryId::new(1, seq);
        // Steward's log order after a lost forward: 3 never made the log.
        for seq in [1, 2, 5, 4] {
            execute(&mut s, of(seq));
        }
        let executed: Vec<u64> = (0..8).filter(|&seq| s.is_executed(of(seq))).collect();
        assert_eq!(executed, [0, 1, 2, 4, 5], "seq 0 names no entry");
        assert!(!s.is_executed(EntryId::new(0, 1)), "per group");
        assert!(!s.is_executed(EntryId::new(7, 1)), "no such group");
        let f = &s.executed[1];
        assert_eq!((f.contiguous, f.ahead.len()), (2, 2));
        // No tombstones: four retained records, none live.
        assert_eq!((s.live_records(), s.entries.len()), (0, 4));
        // A copy or a commit that trails execution resurrects nothing.
        s.hold(record(of(4)).0, None);
        assert!(!s.commit(of(4)) && s.digest(of(4)).is_none());
        assert!(s.has(of(4)) && s.is_committed(of(4)) && s.live_records() == 0);
        // The gap is an ordinary entry; when it does execute the frontier
        // closes over what ran ahead.
        assert!(!s.has(of(3)) && s.commit(of(3)) && s.live_records() == 1);
        execute(&mut s, of(3));
        let f = &s.executed[1];
        assert_eq!((f.contiguous, f.ahead.len()), (5, 0));
    }

    #[test]
    fn the_archive_is_bounded_and_evicts_the_oldest() {
        let mut s = EntryStore::new(4, true);
        let first = EntryId::new(0, 1);
        let cert = record(first).1;
        let mut sizes = Vec::new();
        for seq in 1..=ARCHIVE_DEPTH as u64 + 1 {
            // Only the id matters to the archive's bookkeeping.
            let id = EntryId::new(0, seq);
            let rec = EntryRecord::hash(encode_batch(id, &[]).into()).expect("entry");
            sizes.push(rec.bytes().len() as u64);
            s.hold(rec, Some(cert.clone()));
            let taken = s.take_runnable(id).expect("runnable");
            s.finish(taken);
        }
        assert!(s.serve(first).is_none(), "oldest evicted");
        assert!(s.serve(EntryId::new(0, 2)).is_some());
        assert_eq!(
            (s.entries.len(), s.retained.len()),
            (ARCHIVE_DEPTH, ARCHIVE_DEPTH)
        );
        assert_eq!(
            s.archive_bytes(),
            sizes[1..].iter().sum(),
            "the sum follows"
        );
        // Evicted is still executed, and late traffic leaves no record.
        s.hold(record(first).0, None);
        assert!(s.is_executed(first) && !s.commit(first) && !s.mark_stamped(first, 1));
        assert_eq!(s.entries.len(), ARCHIVE_DEPTH);
        // An entry executed without a certificate is not retained.
        let bare = EntryId::new(3, 1);
        s.hold(record(bare).0, None);
        let taken = s.take_runnable(bare).expect("runnable");
        s.finish(taken);
        assert!(s.is_executed(bare) && s.serve(bare).is_none());
        assert_eq!(s.entries.len(), ARCHIVE_DEPTH);
    }

    /// One call a node makes on its store.
    #[derive(Debug, Clone, Copy)]
    enum Op {
        /// Content arrives, with its certificate or without.
        Hold(EntryId, bool),
        Commit(EntryId),
        RoundReady(EntryId),
        /// Another group holds it (a representative's tally, quorum 2).
        NoteHolder(EntryId, u32),
        /// Take the content and execute it.
        Run(EntryId),
    }

    /// Applies `op`; what it answered, if it answers.
    fn apply(s: &mut EntryStore, op: Op) -> Option<bool> {
        match op {
            Op::Hold(id, certified) => {
                let (rec, cert) = record(id);
                s.hold(rec, certified.then_some(cert));
                None
            }
            Op::Commit(id) => Some(s.commit(id)),
            Op::RoundReady(id) => Some(s.round_ready(id)),
            Op::NoteHolder(id, group) => Some(s.note_holder(id, group, 2)),
            Op::Run(id) => Some(s.take_runnable(id).map(|rec| s.finish(rec)).is_some()),
        }
    }

    /// What the store answers about `ids` and the two groups.
    fn answers(s: &EntryStore, ids: &[EntryId]) -> String {
        let of = |&id| {
            (
                s.is_executed(id),
                s.has(id),
                s.is_safe(id),
                s.is_committed(id),
            )
        };
        let per_entry: Vec<_> = ids.iter().map(|id| (of(id), s.digest(*id))).collect();
        let uncommitted: Vec<_> = (0..2).map(|g| s.uncommitted_of(g)).collect();
        format!("{per_entry:?} {uncommitted:?} {}", s.live_records())
    }

    /// The rule that lets a node which serves no repair keep no archive:
    /// through one run of content, commits, a tally and executions — in
    /// and out of order, with and without a certificate — and the copies
    /// and commits that trail execution, both stores answer every call
    /// alike but `serve` and the representative's own marks
    /// (`note_holder`, `mark_stamped`, `committed_unexecuted` after
    /// execution), which only `GlobalLayer` makes, on an archiving store.
    #[test]
    fn a_store_without_an_archive_answers_all_but_serve_alike() {
        let ids = [(0, 1), (0, 2), (1, 1), (1, 2)].map(|(g, seq)| EntryId::new(g, seq));
        let [a, b, c, d] = ids;
        use Op::*;
        let script = [
            Hold(a, true),
            Hold(c, true),
            Commit(d),
            NoteHolder(a, 1),
            Commit(a),
            RoundReady(a),
            Run(a),
            // A late copy, commit and round feed.
            Hold(a, true),
            Commit(a),
            RoundReady(a),
            // d runs ahead of c, then c closes the gap.
            Hold(d, true),
            Run(d),
            Run(c),
            Commit(c),
            Hold(c, true),
            Commit(d),
            // Executed without a certificate, then trailed.
            Hold(b, false),
            Run(b),
            Hold(b, true),
            Commit(b),
        ];
        let (mut kept, mut none) = (EntryStore::new(2, true), EntryStore::new(2, false));
        for op in script {
            assert_eq!(apply(&mut kept, op), apply(&mut none, op), "{op:?}");
            assert_eq!(answers(&kept, &ids), answers(&none, &ids), "after {op:?}");
        }
        assert!(ids
            .iter()
            .all(|&id| none.is_executed(id) && none.serve(id).is_none()));
        let served: Vec<bool> = ids.iter().map(|&id| kept.serve(id).is_some()).collect();
        assert_eq!(served, [true, false, true, true], "b had no certificate");
        let bytes = [a, c, d].map(|id| record(id).0.bytes().len() as u64);
        assert_eq!(
            (kept.archive_bytes(), none.archive_bytes()),
            (bytes.iter().sum(), 0)
        );
        // Where the two part: what trails execution lands on an archived
        // record only.
        assert_eq!(kept.committed_unexecuted(), [a, c, d]);
        assert!(none.committed_unexecuted().is_empty() && none.entries.is_empty());
    }
}
