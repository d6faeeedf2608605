//! Practical Byzantine Fault Tolerance (PBFT), sans-io.
//!
//! The classic three-phase protocol (Castro & Liskov, OSDI'99) as used for
//! local consensus in MassBFT groups:
//!
//! 1. **pre-prepare** — the primary assigns a sequence number to a payload
//!    and broadcasts it;
//! 2. **prepare** — replicas echo a signed vote binding `(view, seq,
//!    digest)`; `2f+1` matching prepares make the request *prepared*;
//! 3. **commit** — replicas broadcast a signed commit over the payload
//!    digest; `2f+1` matching commits make it *committed*. The collected
//!    commit signatures form the entry's [`QuorumCert`], which MassBFT
//!    ships across groups as tamper protection (paper §II-A).
//!
//! The **skip-prepare** mode drops phase 2: it is used for the global
//! `accept` decision where "nodes in G2 do not need to agree on the
//! consensus input, as it has already been certified by nodes in G1"
//! (paper §II-A, following Ziziphus).
//!
//! View changes follow the standard shape (timeout → `VIEW-CHANGE` →
//! `2f+1` quorum → `NEW-VIEW` re-proposing prepared requests), simplified
//! by re-proposing committed-but-unexecuted and prepared requests wholesale;
//! checkpointing garbage-collects executed instances.

use bytes::Bytes;
use massbft_crypto::{
    cert::{max_faulty, quorum},
    keys::NodeId,
    Digest, KeyRegistry, NodeKey, QuorumCert, Signature,
};
use massbft_telemetry::registry::{counter, Counter};
use std::collections::{BTreeMap, BTreeSet};
use std::sync::OnceLock;

/// Process-wide PBFT counters in the telemetry registry. The sans-io
/// replica has no clock, so timing lives with the driver (protocol.rs
/// spans); what belongs here is protocol-activity accounting.
struct PbftCounters {
    proposals: Counter,
    committed: Counter,
    view_changes: Counter,
}

fn counters() -> &'static PbftCounters {
    static C: OnceLock<PbftCounters> = OnceLock::new();
    C.get_or_init(|| PbftCounters {
        proposals: counter("consensus.pbft.proposals"),
        committed: counter("consensus.pbft.committed"),
        view_changes: counter("consensus.pbft.view_changes"),
    })
}

/// Static configuration of one PBFT replica.
#[derive(Debug, Clone)]
pub struct PbftConfig {
    /// The group this replica belongs to.
    pub group: u32,
    /// Number of replicas in the group (`n ≥ 3f + 1`).
    pub n: usize,
    /// This replica's index within the group, `0..n`.
    pub node: u32,
    /// Skip the prepare phase (global-accept mode).
    pub skip_prepare: bool,
    /// Execute-window checkpointing period: every `checkpoint_interval`
    /// executed instances, retired state below the low-water mark is
    /// dropped. Zero disables GC.
    pub checkpoint_interval: u64,
}

impl PbftConfig {
    /// Maximum faulty replicas tolerated.
    pub fn f(&self) -> usize {
        max_faulty(self.n)
    }

    /// Quorum size `2f + 1`.
    pub fn quorum(&self) -> usize {
        quorum(self.n)
    }

    /// The primary replica of a view (round-robin).
    pub fn primary_of(&self, view: u64) -> u32 {
        (view % self.n as u64) as u32
    }
}

/// Messages exchanged between replicas of one group.
#[derive(Debug, Clone)]
pub enum PbftMsg {
    /// Phase 1: primary assigns `seq` to `payload` in `view`.
    PrePrepare {
        /// Active view.
        view: u64,
        /// Sequence number.
        seq: u64,
        /// The proposed payload (an encoded log entry). `Bytes`-backed so
        /// relaying and buffering share one allocation.
        payload: Bytes,
        /// SHA-256 digest of the payload.
        digest: Digest,
    },
    /// Phase 2: signed echo of `(view, seq, digest)`.
    Prepare {
        /// Active view.
        view: u64,
        /// Sequence number.
        seq: u64,
        /// Digest being prepared.
        digest: Digest,
        /// Signature over the vote tuple.
        sig: Signature,
    },
    /// Phase 3: signed commit. The signature covers the *payload digest*
    /// alone so that `2f+1` of them assemble into a portable entry
    /// certificate.
    Commit {
        /// Active view.
        view: u64,
        /// Sequence number.
        seq: u64,
        /// Digest being committed.
        digest: Digest,
        /// Signature over `digest`.
        sig: Signature,
    },
    /// View-change vote: the sender wants to move to `new_view`.
    ViewChange {
        /// Proposed view.
        new_view: u64,
        /// Highest sequence the sender has executed.
        last_exec: u64,
        /// Requests the sender saw prepared: `(seq, digest, payload)`.
        prepared: Vec<(u64, Digest, Bytes)>,
        /// Signature over the view-change claim.
        sig: Signature,
    },
    /// New primary's announcement re-proposing surviving requests.
    NewView {
        /// The view being entered.
        view: u64,
        /// Requests to re-run: `(seq, payload)`.
        reproposals: Vec<(u64, Bytes)>,
    },
    /// Primary liveness beacon. An idle-but-alive primary broadcasts
    /// these so followers can distinguish "nothing to propose" from
    /// "primary dead" without speculative view changes. Replica state is
    /// untouched; the view-change *driver* interprets them.
    Heartbeat {
        /// The sender's active view.
        view: u64,
    },
}

/// Actions a PBFT replica asks its driver to perform.
#[derive(Debug)]
pub enum PbftOutput {
    /// Send `msg` to replica `to` of the same group.
    Send {
        /// Destination replica index.
        to: u32,
        /// The message.
        msg: PbftMsg,
    },
    /// Send `msg` to every other replica of the group.
    Broadcast(PbftMsg),
    /// An instance committed, in sequence order. `cert` carries `2f+1`
    /// commit signatures over the payload digest.
    Committed {
        /// Sequence number (contiguous, starting at 1).
        seq: u64,
        /// The agreed payload.
        payload: Bytes,
        /// Portable quorum certificate over the payload digest.
        cert: QuorumCert,
    },
    /// The replica entered a new view (after a view change). The driver
    /// should reset its view timer.
    EnteredView(u64),
    /// The replica wants a view-change timer armed (it has pending
    /// instances); the driver calls [`PbftReplica::on_view_timeout`] if the
    /// timer fires before progress.
    ArmViewTimer,
}

/// Per-instance bookkeeping.
#[derive(Debug, Default)]
struct Instance {
    payload: Option<Bytes>,
    digest: Option<Digest>,
    pre_prepared_view: Option<u64>,
    prepares: BTreeMap<u32, Signature>,
    commits: BTreeMap<u32, Signature>,
    sent_prepare: bool,
    sent_commit: bool,
    committed: bool,
}

/// View-change votes: proposed view → voter → prepared-proof triples
/// `(seq, digest, pre-prepare bytes)`.
type ViewChangeVotes = BTreeMap<u64, BTreeMap<u32, Vec<(u64, Digest, Bytes)>>>;

/// A PBFT replica state machine.
pub struct PbftReplica {
    cfg: PbftConfig,
    key: NodeKey,
    registry: KeyRegistry,
    view: u64,
    /// Next sequence number this primary will assign.
    next_seq: u64,
    /// Lowest not-yet-executed sequence.
    exec_seq: u64,
    instances: BTreeMap<u64, Instance>,
    /// View-change votes per proposed view.
    view_changes: ViewChangeVotes,
    /// Set while a view change is in progress (stops normal processing).
    in_view_change: bool,
    /// Highest view this replica has ever campaigned for. Repeated
    /// timeouts escalate past it, so a dead successor primary cannot
    /// wedge the group in a failed view change.
    top_view: u64,
}

impl PbftReplica {
    /// Creates a replica. `registry` must contain keys for the whole group.
    ///
    /// # Panics
    /// Panics if the registry lacks this replica's key.
    pub fn new(cfg: PbftConfig, registry: KeyRegistry) -> Self {
        let key = registry
            .key_of(NodeId::new(cfg.group, cfg.node))
            .expect("replica key registered");
        PbftReplica {
            cfg,
            key,
            registry,
            view: 0,
            next_seq: 1,
            exec_seq: 1,
            instances: BTreeMap::new(),
            view_changes: BTreeMap::new(),
            in_view_change: false,
            top_view: 0,
        }
    }

    /// Current view.
    pub fn view(&self) -> u64 {
        self.view
    }

    /// Whether this replica is the primary of the current view.
    pub fn is_primary(&self) -> bool {
        self.cfg.primary_of(self.view) == self.cfg.node
    }

    /// The primary of the current view.
    pub fn primary(&self) -> u32 {
        self.cfg.primary_of(self.view)
    }

    /// Whether a view change is currently in progress.
    pub fn in_view_change(&self) -> bool {
        self.in_view_change
    }

    /// Whether any instance at or past the execution frontier is still
    /// uncommitted — i.e. there is consensus work in flight that a live
    /// primary should be driving to completion.
    pub fn has_pending(&self) -> bool {
        self.instances
            .iter()
            .any(|(&s, inst)| s >= self.exec_seq && !inst.committed)
    }

    /// Primary API: produce a liveness heartbeat to broadcast, or `None`
    /// if this replica is not the active primary (or is mid-view-change).
    pub fn heartbeat(&self) -> Option<PbftMsg> {
        if self.is_primary() && !self.in_view_change {
            Some(PbftMsg::Heartbeat { view: self.view })
        } else {
            None
        }
    }

    /// Primary API: propose a payload. Returns the outputs to perform.
    /// Non-primaries get an empty vec (the driver should forward the
    /// request to the primary instead).
    pub fn propose(&mut self, payload: impl Into<Bytes>) -> Vec<PbftOutput> {
        if !self.is_primary() || self.in_view_change {
            return Vec::new();
        }
        counters().proposals.inc();
        let payload = payload.into();
        let seq = self.next_seq;
        self.next_seq += 1;
        let digest = Digest::of(&payload);
        let pre = PbftMsg::PrePrepare {
            view: self.view,
            seq,
            payload: payload.clone(),
            digest,
        };
        let mut out = vec![PbftOutput::Broadcast(pre.clone()), PbftOutput::ArmViewTimer];
        // Process our own pre-prepare locally.
        out.extend(self.on_message(self.cfg.node, pre));
        out
    }

    /// Handles a message from replica `from` of the same group.
    pub fn on_message(&mut self, from: u32, msg: PbftMsg) -> Vec<PbftOutput> {
        match msg {
            PbftMsg::PrePrepare {
                view,
                seq,
                payload,
                digest,
            } => self.on_pre_prepare(from, view, seq, payload, digest),
            PbftMsg::Prepare {
                view,
                seq,
                digest,
                sig,
            } => self.on_prepare(from, view, seq, digest, sig),
            PbftMsg::Commit {
                view,
                seq,
                digest,
                sig,
            } => self.on_commit(from, view, seq, digest, sig),
            PbftMsg::ViewChange {
                new_view,
                last_exec,
                prepared,
                sig,
            } => self.on_view_change(from, new_view, last_exec, prepared, sig),
            PbftMsg::NewView { view, reproposals } => self.on_new_view(from, view, reproposals),
            // Heartbeats carry no state; the driver interprets them.
            PbftMsg::Heartbeat { .. } => Vec::new(),
        }
    }

    /// The driver's view timer fired without progress: start a view change
    /// (paper: replaces a faulty primary; also triggered by remote view
    /// change requests from other groups in GeoBFT-style protocols).
    /// Repeated timeouts escalate past every view already campaigned for,
    /// so a crashed successor primary is skipped on the next round.
    pub fn on_view_timeout(&mut self) -> Vec<PbftOutput> {
        let next = self.view.max(self.top_view) + 1;
        self.start_view_change(next)
    }

    fn start_view_change(&mut self, new_view: u64) -> Vec<PbftOutput> {
        if new_view <= self.view {
            return Vec::new();
        }
        self.top_view = self.top_view.max(new_view);
        self.in_view_change = true;
        counters().view_changes.inc();
        let prepared = self.prepared_requests();
        let claim = view_change_digest(self.cfg.group, new_view, self.exec_seq - 1);
        let sig = self.key.sign_digest(&claim);
        let msg = PbftMsg::ViewChange {
            new_view,
            last_exec: self.exec_seq - 1,
            prepared: prepared.clone(),
            sig,
        };
        let mut out = vec![PbftOutput::Broadcast(msg.clone())];
        out.extend(self.on_message(self.cfg.node, msg));
        out
    }

    fn prepared_requests(&self) -> Vec<(u64, Digest, Bytes)> {
        self.instances
            .iter()
            .filter(|(_, inst)| {
                !inst.committed
                    && inst.payload.is_some()
                    && (inst.prepares.len() >= self.cfg.quorum()
                        || inst.pre_prepared_view.is_some())
            })
            .map(|(&seq, inst)| {
                (
                    seq,
                    inst.digest.expect("payload implies digest"),
                    inst.payload.clone().expect("filtered"),
                )
            })
            .collect()
    }

    fn on_pre_prepare(
        &mut self,
        from: u32,
        view: u64,
        seq: u64,
        payload: Bytes,
        digest: Digest,
    ) -> Vec<PbftOutput> {
        if self.in_view_change || view != self.view {
            return Vec::new();
        }
        if from != self.cfg.primary_of(view) {
            return Vec::new(); // only the primary may pre-prepare
        }
        if Digest::of(&payload) != digest {
            return Vec::new(); // malformed proposal
        }
        if seq < self.exec_seq {
            return Vec::new(); // already executed
        }
        let inst = self.instances.entry(seq).or_default();
        if let Some(existing) = inst.digest {
            if existing != digest {
                // Equivocating primary: ignore; the view timer will fire.
                return Vec::new();
            }
        }
        inst.payload = Some(payload);
        inst.digest = Some(digest);
        inst.pre_prepared_view = Some(view);

        let mut out = Vec::new();
        // A commit quorum may already be buffered (out-of-order delivery);
        // the payload's arrival is what unblocks execution.
        let inst = self.instances.get_mut(&seq).expect("just inserted");
        if inst.commits.len() >= self.cfg.quorum() && !inst.committed {
            inst.committed = true;
            out.extend(self.drain_executable());
        }
        if self.cfg.skip_prepare {
            out.extend(self.maybe_send_commit(seq, view, digest));
        } else {
            let inst = self.instances.get_mut(&seq).expect("just inserted");
            if !inst.sent_prepare {
                inst.sent_prepare = true;
                let vote = prepare_digest(self.cfg.group, view, seq, &digest);
                let sig = self.key.sign_digest(&vote);
                let msg = PbftMsg::Prepare {
                    view,
                    seq,
                    digest,
                    sig,
                };
                out.push(PbftOutput::Broadcast(msg.clone()));
                out.extend(self.on_message(self.cfg.node, msg));
            }
        }
        out
    }

    fn on_prepare(
        &mut self,
        from: u32,
        view: u64,
        seq: u64,
        digest: Digest,
        sig: Signature,
    ) -> Vec<PbftOutput> {
        if self.in_view_change || view != self.view || seq < self.exec_seq {
            return Vec::new();
        }
        let vote = prepare_digest(self.cfg.group, view, seq, &digest);
        if sig.signer != NodeId::new(self.cfg.group, from)
            || !self.registry.verify_digest(&vote, &sig)
        {
            return Vec::new();
        }
        let inst = self.instances.entry(seq).or_default();
        if inst.digest.is_some() && inst.digest != Some(digest) {
            return Vec::new();
        }
        inst.prepares.insert(from, sig);
        if inst.prepares.len() >= self.cfg.quorum() {
            return self.maybe_send_commit(seq, view, digest);
        }
        Vec::new()
    }

    fn maybe_send_commit(&mut self, seq: u64, view: u64, digest: Digest) -> Vec<PbftOutput> {
        let inst = self.instances.entry(seq).or_default();
        if inst.sent_commit {
            return Vec::new();
        }
        inst.sent_commit = true;
        let sig = self.key.sign_digest(&digest);
        let msg = PbftMsg::Commit {
            view,
            seq,
            digest,
            sig,
        };
        let mut out = vec![PbftOutput::Broadcast(msg.clone())];
        out.extend(self.on_message(self.cfg.node, msg));
        out
    }

    fn on_commit(
        &mut self,
        from: u32,
        view: u64,
        seq: u64,
        digest: Digest,
        sig: Signature,
    ) -> Vec<PbftOutput> {
        if self.in_view_change || view != self.view || seq < self.exec_seq {
            return Vec::new();
        }
        if sig.signer != NodeId::new(self.cfg.group, from)
            || !self.registry.verify_digest(&digest, &sig)
        {
            return Vec::new();
        }
        let quorum = self.cfg.quorum();
        let inst = self.instances.entry(seq).or_default();
        if inst.digest.is_some() && inst.digest != Some(digest) {
            return Vec::new();
        }
        if inst.digest.is_none() {
            // Commit arrived before the pre-prepare; remember the digest so
            // the certificate stays consistent.
            inst.digest = Some(digest);
        }
        inst.commits.insert(from, sig);
        if inst.commits.len() >= quorum && !inst.committed && inst.payload.is_some() {
            inst.committed = true;
        }
        self.drain_executable()
    }

    /// Emits `Committed` outputs for every contiguously committed instance
    /// starting at `exec_seq`, and garbage-collects behind checkpoints.
    fn drain_executable(&mut self) -> Vec<PbftOutput> {
        let mut out = Vec::new();
        while let Some(inst) = self.instances.get_mut(&self.exec_seq) {
            if !inst.committed {
                break;
            }
            let seq = self.exec_seq;
            let payload = inst.payload.take().expect("committed implies payload");
            let digest = inst.digest.expect("committed implies digest");
            let signatures: Vec<Signature> = inst.commits.values().copied().collect();
            let cert = QuorumCert {
                digest,
                group: self.cfg.group,
                signatures,
            };
            out.push(PbftOutput::Committed { seq, payload, cert });
            counters().committed.inc();
            self.exec_seq += 1;
        }
        // Checkpoint GC: drop retired instances.
        if self.cfg.checkpoint_interval > 0 {
            let low_water = self.exec_seq.saturating_sub(self.cfg.checkpoint_interval);
            self.instances.retain(|&s, _| s >= low_water);
        }
        out
    }

    fn on_view_change(
        &mut self,
        from: u32,
        new_view: u64,
        last_exec: u64,
        prepared: Vec<(u64, Digest, Bytes)>,
        sig: Signature,
    ) -> Vec<PbftOutput> {
        if new_view <= self.view {
            return Vec::new();
        }
        let claim = view_change_digest(self.cfg.group, new_view, last_exec);
        if sig.signer != NodeId::new(self.cfg.group, from)
            || !self.registry.verify_digest(&claim, &sig)
        {
            return Vec::new();
        }
        let votes = self.view_changes.entry(new_view).or_default();
        votes.insert(from, prepared);

        let mut out = Vec::new();
        // Join the view change once f+1 replicas demand it (we might have
        // missed the fault ourselves).
        if votes.len() > self.cfg.f() && !self.in_view_change {
            out.extend(self.start_view_change(new_view));
        }
        let votes = self.view_changes.entry(new_view).or_default();
        if votes.len() >= self.cfg.quorum()
            && self.cfg.primary_of(new_view) == self.cfg.node
            && new_view > self.view
        {
            // We are the new primary: gather the union of prepared requests
            // and re-propose them.
            let mut reproposals: BTreeMap<u64, Bytes> = BTreeMap::new();
            for prep in votes.values() {
                for (seq, _digest, payload) in prep {
                    reproposals.entry(*seq).or_insert_with(|| payload.clone());
                }
            }
            let nv = PbftMsg::NewView {
                view: new_view,
                reproposals: reproposals.into_iter().collect(),
            };
            out.push(PbftOutput::Broadcast(nv.clone()));
            out.extend(self.on_message(self.cfg.node, nv));
        }
        out
    }

    fn on_new_view(
        &mut self,
        from: u32,
        view: u64,
        reproposals: Vec<(u64, Bytes)>,
    ) -> Vec<PbftOutput> {
        if view < self.view || from != self.cfg.primary_of(view) {
            return Vec::new();
        }
        self.view = view;
        self.in_view_change = false;
        self.view_changes.retain(|&v, _| v > view);
        // The re-proposal set is authoritative for every sequence at or
        // past the execution frontier: an uncommitted instance missing
        // from it was prepared by no quorum (any quorum of view-change
        // votes intersects any prepare quorum), so it is void — e.g. a
        // silenced primary's proposals that never left its own node.
        // Dropping them keeps stale digests from vetoing the new
        // primary's fresh proposals at the same sequence numbers.
        let reproposed: BTreeSet<u64> = reproposals.iter().map(|(s, _)| *s).collect();
        let exec_seq = self.exec_seq;
        self.instances
            .retain(|&s, inst| s < exec_seq || inst.committed || reproposed.contains(&s));
        // Clear votes from older views on live instances; keep payloads.
        for inst in self.instances.values_mut() {
            if !inst.committed {
                inst.prepares.clear();
                inst.commits.clear();
                inst.sent_prepare = false;
                inst.sent_commit = false;
                inst.pre_prepared_view = None;
            }
        }
        // Adopt the new-view's canonical choice for every re-proposed
        // sequence: a conflicting uncommitted pre-prepare from an earlier
        // view (e.g. one branch of an equivocating primary) must not veto
        // the re-proposal. Nothing conflicting can have committed anywhere
        // — a commit implies a prepare quorum, which would have put that
        // branch into the view-change union.
        for (seq, payload) in &reproposals {
            if *seq < self.exec_seq {
                continue;
            }
            let digest = Digest::of(payload);
            let inst = self.instances.entry(*seq).or_default();
            if !inst.committed && inst.digest.is_some() && inst.digest != Some(digest) {
                *inst = Instance {
                    payload: Some(payload.clone()),
                    digest: Some(digest),
                    ..Instance::default()
                };
            }
        }
        let mut out = vec![PbftOutput::EnteredView(view)];
        if self.cfg.primary_of(view) == self.cfg.node {
            // Sequencing must continue past everything this replica has
            // executed or seen: a backup that was never primary still has
            // next_seq = 1, and reusing low sequence numbers would make its
            // proposals silently dropped as already executed.
            let mut max_seq = self.next_seq.max(self.exec_seq);
            if let Some((&hi, _)) = self.instances.iter().next_back() {
                max_seq = max_seq.max(hi + 1);
            }
            if let Some((hi, _)) = reproposals.last() {
                max_seq = max_seq.max(hi + 1);
            }
            self.next_seq = max_seq;
        }
        // The NewView itself carries the re-proposals, so treat them as
        // this view's pre-prepares directly — at the primary AND at every
        // backup. Re-broadcasting them separately would race the NewView
        // on the wire (the NewView is much larger, so its transmission
        // delay lets the small PrePrepares overtake it), and a pre-prepare
        // that arrives while the receiver is still in the old view is
        // dropped for good.
        for (seq, payload) in reproposals {
            if seq < self.exec_seq {
                continue;
            }
            let digest = Digest::of(&payload);
            out.extend(self.on_pre_prepare(from, view, seq, payload, digest));
        }
        out
    }
}

/// Domain-separated digest for prepare votes.
fn prepare_digest(group: u32, view: u64, seq: u64, digest: &Digest) -> Digest {
    Digest::of_parts(&[
        b"pbft-prepare",
        &group.to_le_bytes(),
        &view.to_le_bytes(),
        &seq.to_le_bytes(),
        &digest.0,
    ])
}

/// Domain-separated digest for view-change claims.
fn view_change_digest(group: u32, new_view: u64, last_exec: u64) -> Digest {
    Digest::of_parts(&[
        b"pbft-viewchange",
        &group.to_le_bytes(),
        &new_view.to_le_bytes(),
        &last_exec.to_le_bytes(),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    /// Synchronous lock-step test harness: delivers every Send/Broadcast
    /// until quiescence, collecting Committed outputs per replica.
    struct Harness {
        replicas: Vec<PbftReplica>,
        committed: Vec<Vec<(u64, Bytes, QuorumCert)>>,
        /// Replica indices that silently drop all traffic (crash faults).
        mute: BTreeSet<u32>,
        queue: std::collections::VecDeque<(u32, u32, PbftMsg)>,
    }

    impl Harness {
        fn new(n: usize, skip_prepare: bool) -> Self {
            let registry = KeyRegistry::generate(99, &[n]);
            let replicas = (0..n)
                .map(|i| {
                    PbftReplica::new(
                        PbftConfig {
                            group: 0,
                            n,
                            node: i as u32,
                            skip_prepare,
                            checkpoint_interval: 16,
                        },
                        registry.clone(),
                    )
                })
                .collect();
            Harness {
                replicas,
                committed: vec![Vec::new(); n],
                mute: BTreeSet::new(),
                queue: Default::default(),
            }
        }

        fn n(&self) -> usize {
            self.replicas.len()
        }

        fn absorb(&mut self, from: u32, outputs: Vec<PbftOutput>) {
            for o in outputs {
                match o {
                    PbftOutput::Send { to, msg } => self.queue.push_back((from, to, msg)),
                    PbftOutput::Broadcast(msg) => {
                        for to in 0..self.n() as u32 {
                            if to != from {
                                self.queue.push_back((from, to, msg.clone()));
                            }
                        }
                    }
                    PbftOutput::Committed { seq, payload, cert } => {
                        self.committed[from as usize].push((seq, payload, cert))
                    }
                    PbftOutput::EnteredView(_) | PbftOutput::ArmViewTimer => {}
                }
            }
        }

        fn run(&mut self) {
            let mut budget = 1_000_000u64;
            while let Some((from, to, msg)) = self.queue.pop_front() {
                budget -= 1;
                assert!(budget > 0, "pbft harness runaway");
                if self.mute.contains(&from) || self.mute.contains(&to) {
                    continue;
                }
                let outs = self.replicas[to as usize].on_message(from, msg);
                self.absorb(to, outs);
            }
        }

        fn propose(&mut self, node: u32, payload: &[u8]) {
            let outs = self.replicas[node as usize].propose(payload.to_vec());
            self.absorb(node, outs);
        }
    }

    #[test]
    fn happy_path_commits_on_all_replicas() {
        let mut h = Harness::new(4, false);
        h.propose(0, b"entry-1");
        h.run();
        for (i, c) in h.committed.iter().enumerate() {
            assert_eq!(c.len(), 1, "replica {i}");
            assert_eq!(c[0].0, 1);
            assert_eq!(c[0].1, b"entry-1");
        }
    }

    #[test]
    fn certificates_validate_portably() {
        let mut h = Harness::new(7, false);
        h.propose(0, b"certified entry");
        h.run();
        let registry = KeyRegistry::generate(99, &[7]);
        for c in &h.committed {
            let (_, payload, cert) = &c[0];
            assert_eq!(cert.digest, Digest::of(payload));
            cert.validate_for(&Digest::of(payload), &registry).unwrap();
            assert!(cert.signatures.len() >= 5);
        }
    }

    #[test]
    fn multiple_instances_execute_in_order() {
        let mut h = Harness::new(4, false);
        for i in 0..5u8 {
            h.propose(0, &[i]);
        }
        h.run();
        for c in &h.committed {
            let seqs: Vec<u64> = c.iter().map(|(s, _, _)| *s).collect();
            assert_eq!(seqs, vec![1, 2, 3, 4, 5]);
            let payloads: Vec<u8> = c.iter().map(|(_, p, _)| p[0]).collect();
            assert_eq!(payloads, vec![0, 1, 2, 3, 4]);
        }
    }

    #[test]
    fn tolerates_f_crashed_followers() {
        let mut h = Harness::new(7, false);
        h.mute.insert(5);
        h.mute.insert(6);
        h.propose(0, b"with 2 crashed");
        h.run();
        for i in 0..5 {
            assert_eq!(h.committed[i].len(), 1, "replica {i}");
        }
        assert!(h.committed[5].is_empty());
    }

    #[test]
    fn does_not_commit_without_quorum() {
        let mut h = Harness::new(7, false);
        // f+1 = 3 crashed: only 4 replicas remain < quorum 5.
        h.mute.insert(4);
        h.mute.insert(5);
        h.mute.insert(6);
        h.propose(0, b"cannot commit");
        h.run();
        for c in &h.committed {
            assert!(c.is_empty());
        }
    }

    #[test]
    fn skip_prepare_commits_in_two_phases() {
        let mut h = Harness::new(4, true);
        h.propose(0, b"accept decision");
        h.run();
        for c in &h.committed {
            assert_eq!(c.len(), 1);
        }
        // No Prepare message may ever appear in skip-prepare mode; verify
        // via a fresh run capturing message kinds.
        let mut h = Harness::new(4, true);
        h.propose(0, b"x");
        let mut saw_prepare = false;
        while let Some((from, to, msg)) = h.queue.pop_front() {
            if matches!(msg, PbftMsg::Prepare { .. }) {
                saw_prepare = true;
            }
            let outs = h.replicas[to as usize].on_message(from, msg);
            h.absorb(to, outs);
        }
        assert!(!saw_prepare);
    }

    #[test]
    fn non_primary_cannot_propose() {
        let mut h = Harness::new(4, false);
        h.propose(2, b"rogue");
        h.run();
        for c in &h.committed {
            assert!(c.is_empty());
        }
    }

    #[test]
    fn forged_pre_prepare_from_follower_ignored() {
        let mut h = Harness::new(4, false);
        let digest = Digest::of(b"evil");
        let outs = h.replicas[1].on_message(
            2, // claims to be replica 2, but 0 is the view-0 primary
            PbftMsg::PrePrepare {
                view: 0,
                seq: 1,
                payload: b"evil".to_vec().into(),
                digest,
            },
        );
        h.absorb(1, outs);
        h.run();
        assert!(h.committed.iter().all(|c| c.is_empty()));
    }

    #[test]
    fn mismatched_digest_rejected() {
        let mut h = Harness::new(4, false);
        let outs = h.replicas[1].on_message(
            0,
            PbftMsg::PrePrepare {
                view: 0,
                seq: 1,
                payload: b"payload".to_vec().into(),
                digest: Digest::of(b"different"),
            },
        );
        h.absorb(1, outs);
        h.run();
        assert!(h.committed.iter().all(|c| c.is_empty()));
    }

    #[test]
    fn forged_commit_signature_not_counted() {
        let mut h = Harness::new(4, false);
        let digest = Digest::of(b"target");
        // Replica 3 fabricates commits pretending to be replicas 0..2 with
        // garbage signatures.
        for claimed in 0..3u32 {
            let fake = Signature {
                signer: NodeId::new(0, claimed),
                tag: [0u8; 32],
            };
            let outs = h.replicas[1].on_message(
                claimed,
                PbftMsg::Commit {
                    view: 0,
                    seq: 1,
                    digest,
                    sig: fake,
                },
            );
            h.absorb(1, outs);
        }
        h.run();
        assert!(h.committed[1].is_empty());
    }

    #[test]
    fn view_change_elects_next_primary_and_recommits() {
        let mut h = Harness::new(4, false);
        // Primary 0 goes mute before proposing anything; replicas time out.
        h.mute.insert(0);
        for r in 1..4u32 {
            let outs = h.replicas[r as usize].on_view_timeout();
            h.absorb(r, outs);
        }
        h.run();
        for r in 1..4usize {
            assert_eq!(h.replicas[r].view(), 1, "replica {r}");
            assert!(!h.replicas[r].in_view_change);
        }
        assert_eq!(h.replicas[1].primary(), 1);
        // The new primary can now commit entries.
        h.propose(1, b"post-viewchange");
        h.run();
        for r in 1..4usize {
            assert_eq!(h.committed[r].len(), 1);
        }
    }

    #[test]
    fn new_primary_continues_sequencing_past_committed_entries() {
        // Commit entries under primary 0, then view-change with nothing
        // prepared in flight. The new primary's own next_seq is still 1
        // (it never proposed); it must continue past the execution
        // frontier or its proposals are dropped as already executed.
        let mut h = Harness::new(4, false);
        for i in 0..3u8 {
            h.propose(0, &[i]);
        }
        h.run();
        assert!(h.committed.iter().all(|c| c.len() == 3));
        h.mute.insert(0);
        for r in 1..4u32 {
            let outs = h.replicas[r as usize].on_view_timeout();
            h.absorb(r, outs);
        }
        h.run();
        assert_eq!(h.replicas[1].view(), 1);
        h.propose(1, b"post-viewchange-fresh");
        h.run();
        for r in 1..4usize {
            assert_eq!(h.committed[r].len(), 4, "replica {r}");
            assert_eq!(h.committed[r][3].0, 4, "fresh entry gets seq 4");
            assert_eq!(h.committed[r][3].1, b"post-viewchange-fresh");
        }
    }

    #[test]
    fn view_change_preserves_prepared_request() {
        let mut h = Harness::new(4, false);
        // Propose and let it fully prepare everywhere, but drop all commit
        // messages so nothing executes, then view-change.
        let outs = h.replicas[0].propose(b"survivor".to_vec());
        h.absorb(0, outs);
        // Deliver only PrePrepare and Prepare messages.
        let mut commits = Vec::new();
        while let Some((from, to, msg)) = h.queue.pop_front() {
            if matches!(msg, PbftMsg::Commit { .. }) {
                commits.push((from, to, msg));
                continue;
            }
            let outs = h.replicas[to as usize].on_message(from, msg);
            h.absorb(to, outs);
        }
        drop(commits);
        assert!(h.committed.iter().all(|c| c.is_empty()));
        // Now time out into view 1 (all four replicas participate).
        for r in 0..4u32 {
            let outs = h.replicas[r as usize].on_view_timeout();
            h.absorb(r, outs);
        }
        h.run();
        // The prepared request must have been re-proposed and committed.
        for (r, c) in h.committed.iter().enumerate() {
            assert_eq!(c.len(), 1, "replica {r}");
            assert_eq!(c[0].1, b"survivor");
        }
    }

    #[test]
    fn heartbeat_only_from_active_primary() {
        let h = Harness::new(4, false);
        assert!(matches!(
            h.replicas[0].heartbeat(),
            Some(PbftMsg::Heartbeat { view: 0 })
        ));
        for r in 1..4usize {
            assert!(h.replicas[r].heartbeat().is_none(), "replica {r}");
        }
    }

    #[test]
    fn repeated_timeouts_escalate_past_dead_successor() {
        let mut h = Harness::new(4, false);
        // Primary 0 proposes nothing; successor primary 1 is also dead.
        h.mute.insert(1);
        for r in [0u32, 2, 3] {
            let outs = h.replicas[r as usize].on_view_timeout();
            h.absorb(r, outs);
        }
        h.run();
        // View 1's primary never answers: everyone is wedged mid-change.
        for r in [0usize, 2, 3] {
            assert_eq!(h.replicas[r].view(), 0, "replica {r}");
            assert!(h.replicas[r].in_view_change);
        }
        // The next timeout must skip view 1 and campaign for view 2.
        for r in [0u32, 2, 3] {
            let outs = h.replicas[r as usize].on_view_timeout();
            h.absorb(r, outs);
        }
        h.run();
        for r in [0usize, 2, 3] {
            assert_eq!(h.replicas[r].view(), 2, "replica {r}");
            assert!(!h.replicas[r].in_view_change);
        }
        // Replica 2 is the view-2 primary and can commit entries.
        h.propose(2, b"post-escalation");
        h.run();
        for r in [0usize, 2, 3] {
            assert_eq!(h.committed[r].len(), 1);
        }
    }

    #[test]
    fn has_pending_tracks_uncommitted_instances() {
        let mut h = Harness::new(4, false);
        assert!(!h.replicas[1].has_pending());
        // A pre-prepare lands but commits are withheld: pending.
        let outs = h.replicas[0].propose(b"stuck".to_vec());
        h.absorb(0, outs);
        while let Some((from, to, msg)) = h.queue.pop_front() {
            if matches!(msg, PbftMsg::Commit { .. }) {
                continue;
            }
            let outs = h.replicas[to as usize].on_message(from, msg);
            h.absorb(to, outs);
        }
        assert!(h.replicas[1].has_pending());
        // A fresh run that commits normally ends with nothing pending.
        let mut h = Harness::new(4, false);
        h.propose(0, b"done");
        h.run();
        assert!(!h.replicas[1].has_pending());
    }

    #[test]
    fn checkpoint_gc_bounds_state() {
        let mut h = Harness::new(4, false);
        for i in 0..64u8 {
            h.propose(0, &[i]);
        }
        h.run();
        for r in &h.replicas {
            assert!(
                r.instances.len() <= 17,
                "instances not GC'd: {}",
                r.instances.len()
            );
        }
        assert_eq!(h.committed[2].len(), 64);
    }

    #[test]
    fn commit_before_preprepare_is_buffered() {
        // Out-of-order delivery: commits arrive first, then the
        // pre-prepare + prepares; the instance must still commit once the
        // payload shows up.
        let n = 4;
        let registry = KeyRegistry::generate(99, &[n]);
        let mk = |i: u32| {
            PbftReplica::new(
                PbftConfig {
                    group: 0,
                    n,
                    node: i,
                    skip_prepare: false,
                    checkpoint_interval: 0,
                },
                registry.clone(),
            )
        };
        let mut observer = mk(3);
        let payload: Bytes = b"late".to_vec().into();
        let digest = Digest::of(&payload);
        // Commits from replicas 0..2 (3 = quorum for n=4).
        for i in 0..3u32 {
            let key = registry.key_of(NodeId::new(0, i)).unwrap();
            let sig = key.sign_digest(&digest);
            let outs = observer.on_message(
                i,
                PbftMsg::Commit {
                    view: 0,
                    seq: 1,
                    digest,
                    sig,
                },
            );
            assert!(outs.is_empty(), "must not execute without payload");
        }
        // Now the pre-prepare arrives.
        let outs = observer.on_message(
            0,
            PbftMsg::PrePrepare {
                view: 0,
                seq: 1,
                payload: payload.clone(),
                digest,
            },
        );
        // Observer broadcasts its prepare; once its own commit joins the
        // buffered ones the instance executes.
        let committed: Vec<_> = outs
            .iter()
            .filter(|o| matches!(o, PbftOutput::Committed { .. }))
            .collect();
        assert_eq!(committed.len(), 1);
    }
}
