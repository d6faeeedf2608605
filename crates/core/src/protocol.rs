//! The unified protocol node: MassBFT and all competitor protocols in one
//! configurable actor.
//!
//! The paper implements Steward, GeoBFT, ISS and Baseline "under the same
//! codebase with MassBFT" for a fair comparison (§VI, Table II). This
//! module mirrors that methodology: a single [`Node`] actor whose
//! behaviour is switched by [`Protocol`]:
//!
//! | preset | replication | global consensus | ordering |
//! |---|---|---|---|
//! | `MassBft` | erasure-coded bijective | per-group Raft | async VTS |
//! | `EncodedBijective` (EBR) | erasure-coded bijective | per-group Raft | round-based |
//! | `BijectiveOnly` (BR) | full-copy bijective | per-group Raft | round-based |
//! | `Baseline` | leader → f+1 copies | per-group Raft | round-based |
//! | `GeoBft` | leader → f+1 copies | none (direct broadcast) | round-based |
//! | `Iss` | leader → f+1 copies | per-group Raft | round-based + epochs |
//! | `Steward` | single leader → f+1 copies | single Raft instance | Raft log order |
//!
//! One [`Node`] is five parts, each owning the state of one layer and
//! emitting its effects into the handler's `Ctx` (DESIGN.md §5h):
//! `LocalConsensus` (PBFT, its view-change driver, the client batcher),
//! `Dissemination` (the replication column above, chunk and copy intake),
//! `GlobalLayer` (on the group's representative, node 0: the Raft
//! instances, VTS stamping, accept gating; what commits is fed to the
//! group over LAN, [`Msg::Feed`]), `EntryStore` (what is held of every
//! entry) and `Sequencer` (ordering into the Aria executor, the ledger).
//! `Node` itself only routes: a message or timer to the part that owns it,
//! a certified or received entry from one part to the next.
//!
//! Modelling notes (see DESIGN.md §5): the intra-group agreement on
//! global-consensus decisions (the paper's skip-prepare accept PBFT) is
//! modelled as a fixed LAN-round delay on `accept` replies; transaction
//! signature verification and execution charge per-transaction virtual CPU
//! time, which produces the paper's CPU plateau (Fig. 13a).

mod dissemination;
mod global;
mod local;
mod sequencer;
mod store;

use self::{
    dissemination::Dissemination,
    global::{Downstream, GlobalLayer, ELECTION_TIMEOUT_US, HEARTBEAT_US, STAMP_FLUSH_US},
    local::{LocalConsensus, BATCH_TIMEOUT_US, VIEW_TIMEOUT_US},
    sequencer::{Sequencer, REPAIR_INTERVAL_US},
    store::EntryStore,
};
use crate::{
    adversary::{AdversarySpec, Strategy},
    entry::{encode_batch, peek_entry_id, EntryId, EntryRecord},
    ledger::Ledger,
    replication::ChunkMsg,
    stats::LatencyStats,
};
use bytes::Bytes;
use massbft_consensus::{
    pbft::{PbftMsg, PbftOutput},
    raft::RaftMsg,
};
use massbft_crypto::{cert::quorum, Digest, KeyRegistry, QuorumCert};
use massbft_sim_net::{Actor, Ctx, NodeId, SimMessage, Time, MILLISECOND};
use massbft_telemetry as telemetry;
use massbft_workloads::WorkloadKind;
use std::sync::{Arc, OnceLock};

/// Protocol selector (Table II of the paper + the Fig. 12 ablations).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Protocol {
    /// The paper's contribution: encoded bijective replication +
    /// asynchronous VTS ordering.
    MassBft,
    /// EBR: encoded bijective replication, round-based ordering (Fig. 12).
    EncodedBijective,
    /// BR: full-copy bijective replication, round-based ordering (Fig. 12).
    BijectiveOnly,
    /// Baseline of §II-A: leader one-way replication + Raft + rounds.
    Baseline,
    /// GeoBFT: leader one-way replication, no global consensus.
    GeoBft,
    /// ISS with a Steward-like SB layer: Baseline + epoch barriers.
    Iss,
    /// Steward: single-master global consensus.
    Steward,
}

impl Protocol {
    /// Display name matching the paper.
    pub fn name(&self) -> &'static str {
        match self {
            Protocol::MassBft => "MassBFT",
            Protocol::EncodedBijective => "EBR",
            Protocol::BijectiveOnly => "BR",
            Protocol::Baseline => "Baseline",
            Protocol::GeoBft => "GeoBFT",
            Protocol::Iss => "ISS",
            Protocol::Steward => "Steward",
        }
    }

    fn uses_chunks(&self) -> bool {
        matches!(self, Protocol::MassBft | Protocol::EncodedBijective)
    }

    fn uses_raft(&self) -> bool {
        !matches!(self, Protocol::GeoBft)
    }

    fn single_master(&self) -> bool {
        matches!(self, Protocol::Steward)
    }
}

/// Per-run protocol parameters.
#[derive(Debug, Clone)]
pub struct ProtocolParams {
    /// Which protocol preset to run.
    pub protocol: Protocol,
    /// Nodes per group.
    pub group_sizes: Vec<usize>,
    /// Maximum transactions per entry.
    pub max_batch: usize,
    /// In-flight (proposed but unexecuted) entries a group allows —
    /// the pipelining window.
    pub pipeline_window: usize,
    /// Client request arrival rate per group, transactions/second
    /// (open-loop; the pending pool is capped so saturation sheds load).
    pub arrival_tps: f64,
    /// ISS epoch length.
    pub epoch_us: Time,
    /// Overlapped VTS assignment (Fig. 7b, 2 RTT) when true; serial
    /// assignment after consensus (Fig. 7a, 3 RTT) when false. Ablation
    /// knob only — MassBFT proper overlaps.
    pub overlap_vts: bool,
    /// Workload to generate.
    pub workload: WorkloadKind,
    /// Adversarial node behaviours with activation windows (§III threat
    /// model). Interpreted per strategy by the node; `DelayAll` is applied
    /// at the simulator level by the cluster harness.
    pub adversaries: Vec<AdversarySpec>,
    /// RNG / key derivation seed.
    pub seed: u64,
    /// Aria worker lanes for the execution pipeline (1 = serial).
    /// Results are bit-identical at any width; this only changes how
    /// fast the host chews through a batch.
    pub exec_workers: usize,
    /// Re-queue conflict-aborted transactions at the front of the next
    /// entry's batch. Off by default to preserve the paper's
    /// drop-on-conflict abort accounting (Fig. 8d).
    pub retry_aborts: bool,
    /// Aria's deterministic abort fallback: re-run conflict-aborted
    /// transactions serially, in txn-id order, within the same batch.
    /// Deterministic at any worker width. Off by default.
    pub exec_fallback: bool,
}

impl ProtocolParams {
    /// Sensible defaults matching the paper's setup (§VI).
    pub fn new(protocol: Protocol, group_sizes: &[usize]) -> Self {
        ProtocolParams {
            protocol,
            group_sizes: group_sizes.to_vec(),
            max_batch: 500,
            // Deep pipelining (paper §VI: "we also leverage pipelining
            // and batching to enhance performance"). The window is tuned
            // per protocol to its bandwidth-delay product: too shallow
            // and the window (Little's law), not the network, caps
            // throughput; too deep and over-admission clogs the local-
            // consensus CPU pipeline with entries that only queue.
            pipeline_window: match protocol {
                Protocol::MassBft => 32,
                Protocol::EncodedBijective | Protocol::BijectiveOnly => 16,
                Protocol::Baseline | Protocol::GeoBft | Protocol::Iss | Protocol::Steward => 8,
            },
            arrival_tps: 100_000.0,
            epoch_us: 100 * MILLISECOND,
            overlap_vts: true,
            workload: WorkloadKind::YcsbA,
            adversaries: Vec::new(),
            seed: 1,
            exec_workers: 1,
            retry_aborts: false,
            exec_fallback: false,
        }
    }

    /// Number of groups.
    pub fn ng(&self) -> usize {
        self.group_sizes.len()
    }

    /// The representative (leader) node of a group. The paper routes all
    /// inter-group consensus traffic through group leaders; local PBFT
    /// view 0 makes that node 0.
    pub fn leader_of(&self, g: u32) -> NodeId {
        NodeId::new(g, 0)
    }

    /// Whom `asker` pulls a missing entry from (Lemma V.1: "it can request
    /// the entry from G_j if group G_i crashes"): its own group's
    /// representative first (LAN), then every other group's (WAN).
    pub(crate) fn repair_targets(&self, asker: NodeId) -> impl Iterator<Item = NodeId> + '_ {
        let own = std::iter::once(self.leader_of(asker.group));
        own.chain(other_reps(asker, self))
            .filter(move |&t| t != asker)
    }

    /// Whether [`ProtocolParams::repair_targets`] ever names `node` — the
    /// one thing that decides whether a node archives executed content.
    pub(crate) fn serves_repair(&self, node: NodeId) -> bool {
        node == self.leader_of(node.group)
    }

    /// Wire size of a certificate of group `g` (2f+1 signatures).
    pub fn cert_size(&self, g: u32) -> usize {
        crate::wire::cert_wire(quorum(self.group_sizes[g as usize]))
    }
}

/// One command in a global Raft log (instance = the group leading it).
#[derive(Debug, Clone)]
pub struct GlobalCmd {
    /// Entry commitment carried by this command (instance == entry.gid),
    /// with its digest; `None` for stamp-only flushes.
    pub entry: Option<(EntryId, Digest)>,
    /// Piggybacked VTS assignments by the instance leader's group:
    /// `(target entry, clock value)` (paper §V-A).
    pub stamps: Vec<(EntryId, u64)>,
}

/// Ordering events a group representative feeds to its members over LAN.
#[derive(Debug, Clone)]
pub enum FeedEvent {
    /// Entry achieved global consensus (or, for GeoBFT, arrived).
    Committed(EntryId),
    /// A replicated VTS assignment.
    Stamp {
        /// The group whose clock produced the stamp.
        stamper: u32,
        /// The stamped entry.
        target: EntryId,
        /// Clock value.
        ts: u64,
    },
}

/// Wire messages of the unified protocol.
#[derive(Debug, Clone)]
pub enum Msg {
    /// Local PBFT traffic (within a group). The payload rides inside
    /// pre-prepare messages.
    Pbft(PbftMsg),
    /// An erasure-coded chunk (WAN bijective transfer or LAN re-share),
    /// carrying the origin's certificate for optimistic validation.
    Chunk {
        /// The chunk with its Merkle proof.
        chunk: ChunkMsg,
        /// The entry's PBFT certificate.
        cert: QuorumCert,
    },
    /// A full entry copy (leader-based and BR replication; also the LAN
    /// forward after WAN receipt).
    Entry {
        /// Entry identity.
        id: EntryId,
        /// Entry bytes (refcounted — relaying a copy to the whole group
        /// shares one allocation).
        bytes: Bytes,
        /// The entry's PBFT certificate.
        cert: QuorumCert,
    },
    /// Global Raft traffic between group representatives.
    Raft {
        /// Raft instance id (the owning group).
        instance: u32,
        /// The message.
        rmsg: RaftMsg<GlobalCmd>,
        /// Total certificate bytes carried (size accounting).
        cert_bytes: usize,
    },
    /// Representative → group members: committed ordering events.
    Feed {
        /// Events in commit order.
        events: Vec<FeedEvent>,
    },
    /// Pull-based entry repair (paper Lemma V.1: "it can request the
    /// entry from G_j if group G_i crashes"): a node asks a peer for the
    /// full bytes of a committed entry it cannot obtain otherwise.
    EntryRequest {
        /// The wanted entry.
        id: EntryId,
    },
    /// Direct accept broadcast (§V-C, slow receiver groups): when a group
    /// accepts entries of another instance, it also notifies every group
    /// representative directly, outside Raft. A group that has seen
    /// `f_g + 1` groups hold an entry may assign its vector timestamp and
    /// treat the entry as replicated without waiting for its own copy —
    /// "this approach avoids slowing down entry ordering of other
    /// groups".
    AcceptNotice {
        /// The accepting group.
        from_group: u32,
        /// Entries newly accepted by that group.
        entries: Vec<EntryId>,
    },
    /// ISS: a group announces it sealed `epoch`.
    EpochClose {
        /// Announcing group.
        group: u32,
        /// Sealed epoch number.
        epoch: u64,
    },
}

impl SimMessage for Msg {
    fn wire_size(&self) -> usize {
        // Single source of truth shared with the TCP frame codec, which
        // produces frame bodies of exactly this many bytes per variant.
        crate::wire::msg_wire_size(self)
    }

    fn trace_entry(&self) -> Option<(u32, u64)> {
        crate::wire::trace_entry(self).map(|id| (id.gid, id.seq))
    }
}

// Timer tokens.
const T_BATCH: u64 = 1;
const T_HEARTBEAT: u64 = 2;
const T_ELECTION: u64 = 3;
const T_STAMP_FLUSH: u64 = 4;
const T_EPOCH: u64 = 5;
const T_REPAIR: u64 = 6;
const T_VIEW: u64 = 7;
const T_PBFT_HB: u64 = 8;

/// Lifecycle event of entry `id` at `node`. A single relaxed atomic load +
/// branch when telemetry is disabled.
#[inline]
fn span(node: NodeId, at: Time, kind: telemetry::EventKind, id: EntryId, value: u64) {
    if !telemetry::enabled() {
        return;
    }
    telemetry::emit(telemetry::Event {
        at,
        kind,
        node: (node.group, node.node),
        entry: (id.gid, id.seq),
        value,
    });
}

/// Process-wide pull-repair counters, summed across the nodes a process
/// hosts; both register at a node's first repair tick, so a scrape shows
/// whether a stalled node is asking and being answered, zeros included.
struct RepairCounters {
    /// `core.repair.requested`: entries asked for by repair ticks.
    requested: telemetry::registry::Counter,
    /// `core.repair.served`: requests answered with the entry.
    served: telemetry::registry::Counter,
}

fn repair_counters() -> &'static RepairCounters {
    static C: OnceLock<RepairCounters> = OnceLock::new();
    C.get_or_init(|| RepairCounters {
        requested: telemetry::registry::counter("core.repair.requested"),
        served: telemetry::registry::counter("core.repair.served"),
    })
}

/// The other members of `me`'s group.
fn lan_peers(me: NodeId, params: &ProtocolParams) -> Vec<NodeId> {
    (0..params.group_sizes[me.group as usize] as u32)
        .map(|i| NodeId::new(me.group, i))
        .filter(|&peer| peer != me)
        .collect()
}

/// The representatives of every group but `me`'s, in group order.
fn other_reps(me: NodeId, params: &ProtocolParams) -> impl Iterator<Item = NodeId> + '_ {
    let groups = (0..params.ng() as u32).filter(move |&g| g != me.group);
    groups.map(|g| params.leader_of(g))
}

/// The unified protocol node: five parts and the routing between them.
pub struct Node {
    id: NodeId,
    /// The run's parameters, `adversaries` narrowed to this node's own;
    /// shared with the parts.
    params: Arc<ProtocolParams>,
    local: LocalConsensus,
    dissemination: Dissemination,
    /// `Some` on the group's original representative. An acting one,
    /// installed by a view change, batches (`local` has a batcher) but
    /// holds no Raft endpoints.
    global: Option<GlobalLayer>,
    store: EntryStore,
    sequencer: Sequencer,
}

/// Point-in-time node introspection snapshot, served by the runtime's
/// `/status` endpoint and embedded in flight-recorder dumps (ISSUE 9).
#[derive(Debug, Clone, PartialEq)]
pub struct NodeStatus {
    /// Group id.
    pub group: u32,
    /// Node index within the group.
    pub node: u32,
    /// Whether the node currently acts as its group's representative.
    pub is_rep: bool,
    /// Current local PBFT view.
    pub pbft_view: u64,
    /// Highest own-group PBFT entry sequence seen proposed or certified.
    pub pbft_seq: u64,
    /// Ledger height (blocks appended).
    pub ledger_height: u64,
    /// Ledger head hash.
    pub ledger_head: Digest,
    /// Entries executed — the commit watermark a stall detector watches.
    pub exec_watermark: u64,
    /// Transactions committed by the execution pipeline.
    pub executed_txns: u64,
    /// Executed transactions per origin group.
    pub executed_by_group: Vec<u64>,
    /// Entries ordered but awaiting execution.
    pub exec_queue: usize,
    /// Raft appends held back waiting for entry content.
    pub held_appends: usize,
    /// Representative pipeline-window occupancy (0 on non-reps).
    pub in_flight: usize,
    /// Representative VTS clock (0 on non-reps).
    pub clock: u64,
    /// Content bytes of executed entries kept to serve repair (0 on a node
    /// that serves none).
    pub archive_bytes: u64,
}

/// Mean per-entry latency breakdown at a representative (Fig. 11).
#[derive(Debug, Clone, Copy, Default)]
pub struct PhaseBreakdown {
    /// Batch creation → local PBFT certificate, ms.
    pub local_consensus_ms: f64,
    /// Certificate → global Raft commit, ms.
    pub global_replication_ms: f64,
    /// Commit → deterministic order decided, ms.
    pub ordering_ms: f64,
    /// Order decided → executed, ms.
    pub execution_ms: f64,
}

impl Node {
    /// Creates the node for `id` under `params`. The same `KeyRegistry`
    /// must be shared by all nodes (derived from `params.seed`).
    pub fn new(id: NodeId, mut params: ProtocolParams, registry: KeyRegistry) -> Self {
        params.adversaries.retain(|spec| spec.node == id);
        let params = Arc::new(params);
        let local = LocalConsensus::new(id, params.clone(), registry.clone());
        let mut sequencer = Sequencer::new(id, &params);
        if local.is_rep() {
            sequencer.keep_marks();
        }
        Node {
            id,
            dissemination: Dissemination::new(id, params.clone(), registry),
            global: (local.is_rep()).then(|| GlobalLayer::new(id, params.clone())),
            local,
            store: EntryStore::new(params.ng(), params.serves_repair(id)),
            sequencer,
            params,
        }
    }

    /// Total transactions executed (committed by Aria).
    pub fn executed_txns(&self) -> u64 {
        self.sequencer.executed_txns
    }

    /// Entries executed.
    pub fn executed_entries(&self) -> u64 {
        self.sequencer.executed_entries
    }

    /// Latency samples recorded at this node (origin entries only).
    pub fn latency(&self) -> &LatencyStats {
        &self.sequencer.latency
    }

    /// Per-origin-group executed transaction counts.
    pub fn executed_by_group(&self) -> &[u64] {
        &self.sequencer.executed_by_group
    }

    /// Content hash of the node's database (replica-consistency checks).
    pub fn state_hash(&self) -> u64 {
        self.sequencer.state_hash()
    }

    /// The node's hash-chained ledger (block per executed entry).
    pub fn ledger(&self) -> &Ledger {
        &self.sequencer.ledger
    }

    /// Mean latency breakdown over this representative's own entries
    /// (Fig. 11). `None` when no entries completed or on non-reps.
    pub fn phase_breakdown(&self) -> Option<PhaseBreakdown> {
        self.sequencer.phase_breakdown()
    }

    /// Entries this node keeps a record of that have yet to execute: flat
    /// in run length (memory assertions in tests).
    pub fn entry_records(&self) -> usize {
        self.store.live_records()
    }

    /// The node's current local PBFT view (liveness assertions in tests).
    pub fn pbft_view(&self) -> u64 {
        self.local.view()
    }

    /// Point-in-time introspection snapshot for the ops plane (`/status`
    /// endpoint, flight-recorder dumps). Pure reads — cheap enough to
    /// take under the node lock on every scrape.
    pub fn status(&self) -> NodeStatus {
        let ledger = &self.sequencer.ledger;
        NodeStatus {
            group: self.id.group,
            node: self.id.node,
            is_rep: self.local.is_rep(),
            pbft_view: self.local.view(),
            pbft_seq: self.local.own_seq_high(),
            ledger_height: ledger.height(),
            ledger_head: ledger.head_hash(),
            exec_watermark: self.sequencer.executed_entries,
            executed_txns: self.sequencer.executed_txns,
            executed_by_group: self.sequencer.executed_by_group.clone(),
            exec_queue: self.sequencer.queued(),
            held_appends: self.global.as_ref().map_or(0, |g| g.held_appends()),
            in_flight: self.local.in_flight(),
            clock: self.global.as_ref().map_or(0, |g| g.clock()),
            archive_bytes: self.store.archive_bytes(),
        }
    }

    /// What the harness reads, for its tests on a driver that never runs
    /// the node: `(executed_txns, executed_entries, latency, ledger)`.
    #[cfg(test)]
    pub(crate) fn measured_mut(&mut self) -> (&mut u64, &mut u64, &mut LatencyStats, &mut Ledger) {
        let s = &mut self.sequencer;
        (
            &mut s.executed_txns,
            &mut s.executed_entries,
            &mut s.latency,
            &mut s.ledger,
        )
    }

    /// The global layer with the two parts it feeds.
    fn global(&mut self) -> Option<(&mut GlobalLayer, Downstream<'_>)> {
        let (store, sequencer) = (&mut self.store, &mut self.sequencer);
        Some((self.global.as_mut()?, Downstream { store, sequencer }))
    }

    // --- adversary strategies: applied where the node hands work to a part ---

    /// Whether this node plays `strategy` at `now`.
    fn plays(&self, now: Time, strategy: Strategy) -> bool {
        let mut own = self.params.adversaries.iter();
        own.any(|spec| spec.strategy == strategy && spec.active_at(now))
    }

    /// Equivocation attack: replace the primary's pre-prepare broadcast
    /// with two conflicting branches sent to disjoint halves of the group
    /// (same view/seq, different payload+digest). With `n = 3f + 1`,
    /// neither branch can gather a `2f + 1` quorum, so the group stalls
    /// until the view-change driver evicts us and the new primary
    /// re-proposes exactly one branch.
    fn equivocate(&mut self, ctx: &mut Ctx<Msg>, msg: PbftMsg) {
        self.local.note_outgoing(ctx.now(), &msg);
        let peers = lan_peers(self.id, &self.params);
        let PbftMsg::PrePrepare {
            view,
            seq,
            ref payload,
            ..
        } = msg
        else {
            return;
        };
        let Some(id) = peek_entry_id(payload) else {
            ctx.send_many(peers, Msg::Pbft(msg));
            return;
        };
        let alt_payload = encode_batch(id, &[b"equivocating-branch".to_vec()]);
        let alt = PbftMsg::PrePrepare {
            view,
            seq,
            digest: Digest::of(&alt_payload),
            payload: alt_payload.into(),
        };
        let f = peers.len() / 3;
        for (i, peer) in peers.into_iter().enumerate() {
            let branch = if i < 2 * f { alt.clone() } else { msg.clone() };
            ctx.send(peer, Msg::Pbft(branch));
        }
    }

    // --- local PBFT -----------------------------------------------------------

    fn handle_pbft_outputs(&mut self, ctx: &mut Ctx<Msg>, outputs: Vec<PbftOutput>) {
        // Mute fault: no PBFT message leaves this node, the liveness
        // heartbeat included.
        let mute = self.plays(ctx.now(), Strategy::SilentPrimary);
        let equivocating = self.plays(ctx.now(), Strategy::EquivocatingPrimary);
        for out in outputs {
            match out {
                PbftOutput::Committed { seq, payload, cert } => {
                    self.on_local_entry_certified(ctx, seq, payload, cert);
                }
                PbftOutput::EnteredView(view) => {
                    if self.local.on_entered_view(ctx, view) {
                        self.sequencer.keep_marks();
                    }
                }
                // View timing is driven by the T_VIEW progress timer.
                PbftOutput::ArmViewTimer => {}
                PbftOutput::Send { .. } | PbftOutput::Broadcast(_) if mute => {}
                PbftOutput::Broadcast(msg @ PbftMsg::PrePrepare { .. }) if equivocating => {
                    self.equivocate(ctx, msg);
                }
                out => self.local.transmit(ctx, out),
            }
        }
    }

    /// A local entry finished PBFT: hold it, start global replication and
    /// (on the representative) global consensus.
    fn on_local_entry_certified(
        &mut self,
        ctx: &mut Ctx<Msg>,
        seq: u64,
        payload: Bytes,
        cert: QuorumCert,
    ) {
        let Some((rec, txns)) = self.local.on_committed(ctx, seq, &payload, cert.digest) else {
            return;
        };
        let (id, now) = (rec.id(), ctx.now());
        self.hold_content(rec, Some(cert.clone()));
        if let Some(m) = self.sequencer.marks(id) {
            m.certified = Some(now);
        }
        span(
            self.id,
            now,
            telemetry::EventKind::Certified,
            id,
            txns as u64,
        );

        let protocol = self.params.protocol;
        let is_rep = self.local.is_rep();
        // A withholding node certifies but never ships its WAN shares;
        // erasure-coded parity (or the remaining copy senders) must absorb
        // the gap. Steward's route through the master is sequencing as much
        // as replication, and is not modelled as withheld.
        if protocol.single_master() || !self.plays(now, Strategy::WithholdChunks) {
            // A chunk-tampering sender encodes a tampered entry instead
            // (§VI-E).
            let tampered = protocol.uses_chunks() && self.plays(now, Strategy::TamperChunks);
            let shipped = if tampered {
                encode_batch(id, &[b"tampered-by-byzantine-collusion".to_vec()]).into()
            } else {
                payload
            };
            self.dissemination.send(ctx, id, &shipped, &cert, is_rep);
        }

        if !protocol.uses_raft() {
            // GeoBFT has no global consensus: local certification == commit.
            self.apply_feed(ctx, vec![FeedEvent::Committed(id)]);
        } else if !protocol.single_master() || self.id.group == 0 {
            // Propose the entry commitment in our own entry instance; a
            // Steward group other than the master's forwarded it instead.
            if let Some((global, mut down)) = self.global() {
                global.propose_entry(ctx, &mut down, id);
            }
        }
        self.sequencer.advance(ctx, &mut self.store);
    }

    // --- entries --------------------------------------------------------------

    /// Stores a validated entry and counts it off the appends held for it.
    fn hold_content(&mut self, rec: EntryRecord, cert: Option<QuorumCert>) {
        let id = rec.id();
        self.store.hold(rec, cert);
        if let Some(global) = &mut self.global {
            global.note_safe(id);
        }
    }

    /// Ordering events from the group's representative — or, without
    /// global consensus (GeoBFT), the commit that certification or arrival
    /// is. Appends held for a committed entry need wait no longer. An
    /// acting representative drains its pipeline window here rather than
    /// on execution: it cannot count on ever executing (stamps fed out
    /// while the group had no representative are unrecoverable), and the
    /// window must not wedge the whole group's proposal stream.
    fn apply_feed(&mut self, ctx: &mut Ctx<Msg>, events: Vec<FeedEvent>) {
        for ev in &events {
            if let FeedEvent::Committed(id) = ev {
                match &mut self.global {
                    Some(global) => global.note_safe(*id),
                    None => self.local.release_window(*id),
                }
            }
        }
        self.sequencer.ingest(&mut self.store, events);
        self.sequencer.advance(ctx, &mut self.store);
    }

    /// The one retirement, at the end of every handler: what executed
    /// since the ledger stood at `height` leaves the pipeline window and
    /// the chunk assemblers. Its record went as it executed
    /// ([`EntryStore::finish`]), and nothing else is kept per entry.
    fn retire_executed(&mut self, height: u64) {
        for id in self.sequencer.executed_since(height) {
            if id.gid == self.id.group {
                self.local.release_window(id);
            }
            self.dissemination.forget(id);
        }
    }

    /// Entry content became available (rebuilt or copied).
    fn on_entry_content(&mut self, ctx: &mut Ctx<Msg>, rec: EntryRecord, cert: QuorumCert) {
        let id = rec.id();
        self.hold_content(rec, Some(cert));
        if let Some((global, mut down)) = self.global() {
            // Replay Raft appends that were held awaiting this content.
            global.replay_held(ctx, &mut down);
            // If we lead this group's entry instance (crash takeover), the
            // freshly rebuilt entry may be waiting on us to propose it.
            global.propose_foreign_ready(ctx, &mut down, id.gid);
        }
        if !self.params.protocol.uses_raft() {
            // GeoBFT: content arrival is commitment.
            self.apply_feed(ctx, vec![FeedEvent::Committed(id)]);
        }
        self.sequencer.on_content(&mut self.store, id);
        self.sequencer.advance(ctx, &mut self.store);
    }

    fn on_chunk(&mut self, ctx: &mut Ctx<Msg>, from: NodeId, chunk: ChunkMsg, cert: QuorumCert) {
        // A chunk-tampering receiver suppresses honest re-shares (§VI-E);
        // the tampered chunks it would inject already come from tampering
        // senders' encodings.
        let reshare = !self.plays(ctx.now(), Strategy::TamperChunks);
        let rebuilt = self
            .dissemination
            .on_chunk(ctx, &self.store, from, chunk, cert, reshare);
        if let Some((rec, cert)) = rebuilt {
            self.on_entry_content(ctx, rec, cert);
        }
    }

    fn on_entry_copy(
        &mut self,
        ctx: &mut Ctx<Msg>,
        from: NodeId,
        id: EntryId,
        bytes: Bytes,
        cert: QuorumCert,
    ) {
        let accepted = self
            .dissemination
            .on_copy(ctx, &self.store, from, id, bytes, &cert);
        let Some((rec, relayed)) = accepted else {
            return;
        };
        if relayed {
            // Steward master: sequence the entry another group forwarded.
            self.hold_content(rec, None);
            if let Some((global, mut down)) = self.global() {
                global.propose_entry(ctx, &mut down, id);
            }
            self.sequencer.advance(ctx, &mut self.store);
        } else {
            self.on_entry_content(ctx, rec, cert);
        }
    }

    /// Repair tick: pull every entry this node has been missing for two
    /// ticks running (Lemma V.1) — ordered without content, or waited on by
    /// a held append — each from one repair server, and from the next one
    /// each time it is pulled again. The one place a node asks.
    fn on_repair_timer(&mut self, ctx: &mut Ctx<Msg>) {
        let held = self.global.as_ref().map(GlobalLayer::held_blockers);
        let wanted = self
            .sequencer
            .repair_tick(&self.store, held.unwrap_or_default());
        let targets: Vec<NodeId> = self.params.repair_targets(self.id).collect();
        if !targets.is_empty() {
            repair_counters().requested.add(wanted.len() as u64);
            for (id, pulled) in wanted {
                let target = targets[pulled as usize % targets.len()];
                ctx.send(target, Msg::EntryRequest { id });
            }
        }
        ctx.set_timer(REPAIR_INTERVAL_US, T_REPAIR);
    }
}

impl Actor for Node {
    type Msg = Msg;

    fn on_start(&mut self, ctx: &mut Ctx<Msg>) {
        let protocol = self.params.protocol;
        ctx.set_timer(REPAIR_INTERVAL_US, T_REPAIR);
        // Every node of a multi-node group runs the view-change driver;
        // the primary additionally beacons liveness heartbeats.
        if self.params.group_sizes[self.id.group as usize] > 1 {
            ctx.set_timer(self.local.view_check_period(), T_VIEW);
            ctx.set_timer(VIEW_TIMEOUT_US / 4, T_PBFT_HB);
        }
        if self.local.is_rep() {
            // Stagger the first batch slightly per group to avoid
            // artificial phase-lock between groups.
            let stagger = (self.id.group as u64) * 777;
            ctx.set_timer(BATCH_TIMEOUT_US + stagger, T_BATCH);
            if protocol.uses_raft() {
                ctx.set_timer(HEARTBEAT_US, T_HEARTBEAT);
                ctx.set_timer(ELECTION_TIMEOUT_US, T_ELECTION);
                if matches!(protocol, Protocol::MassBft) {
                    ctx.set_timer(STAMP_FLUSH_US, T_STAMP_FLUSH);
                }
            }
            if matches!(protocol, Protocol::Iss) {
                ctx.set_timer(self.params.epoch_us, T_EPOCH);
            }
        }
    }

    fn on_message(&mut self, ctx: &mut Ctx<Msg>, from: NodeId, msg: Msg) {
        let height = self.sequencer.ledger.height();
        match msg {
            Msg::Pbft(m) => {
                let outputs = self.local.on_message(ctx.now(), from, m);
                self.handle_pbft_outputs(ctx, outputs);
            }
            Msg::Chunk { chunk, cert } => self.on_chunk(ctx, from, chunk, cert),
            Msg::Entry { id, bytes, cert } => self.on_entry_copy(ctx, from, id, bytes, cert),
            Msg::Feed { events } => self.apply_feed(ctx, events),
            Msg::EntryRequest { id } => {
                // Serve a repair request from the archive or the live state.
                if let Some((bytes, cert)) = self.store.serve(id) {
                    repair_counters().served.add(1);
                    ctx.send(from, Msg::Entry { id, bytes, cert });
                }
            }
            Msg::EpochClose { group, epoch } => self.local.on_epoch_close(group, epoch),
            // Global traffic addresses the original representative.
            Msg::Raft { instance, rmsg, .. } => {
                if let Some((global, mut down)) = self.global() {
                    global.on_raft_msg(ctx, &mut down, from, instance, rmsg);
                }
            }
            Msg::AcceptNotice {
                from_group,
                entries,
            } => {
                if let Some((global, mut down)) = self.global() {
                    global.on_accept_notice(ctx, &mut down, from_group, entries);
                }
            }
        }
        self.retire_executed(height);
    }

    fn on_timer(&mut self, ctx: &mut Ctx<Msg>, token: u64) {
        let height = self.sequencer.ledger.height();
        match token {
            T_BATCH => {
                if let Some((id, outputs)) = self.local.try_batch(ctx.now()) {
                    if let Some(m) = self.sequencer.marks(id) {
                        m.created = Some(ctx.now());
                    }
                    self.handle_pbft_outputs(ctx, outputs);
                }
                ctx.set_timer(BATCH_TIMEOUT_US, T_BATCH);
            }
            T_HEARTBEAT | T_ELECTION | T_STAMP_FLUSH => {
                if let Some((global, mut down)) = self.global() {
                    global.on_timer(ctx, &mut down, token);
                }
            }
            T_EPOCH => self.local.on_epoch_timer(ctx),
            T_REPAIR => self.on_repair_timer(ctx),
            T_VIEW => {
                if let Some(outputs) = self.local.on_view_timer(ctx.now()) {
                    self.handle_pbft_outputs(ctx, outputs);
                    self.local.back_off(ctx.now());
                }
                ctx.set_timer(self.local.view_check_period(), T_VIEW);
            }
            T_PBFT_HB => {
                let outputs = self.local.heartbeat();
                self.handle_pbft_outputs(ctx, outputs);
                ctx.set_timer(VIEW_TIMEOUT_US / 4, T_PBFT_HB);
            }
            _ => {}
        }
        self.retire_executed(height);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::entry::entry_digest;
    use massbft_sim_net::Command;

    #[test]
    fn protocol_names_and_capabilities() {
        assert_eq!(Protocol::MassBft.name(), "MassBFT");
        assert_eq!(Protocol::EncodedBijective.name(), "EBR");
        assert_eq!(Protocol::BijectiveOnly.name(), "BR");
        assert!(Protocol::MassBft.uses_chunks());
        assert!(Protocol::EncodedBijective.uses_chunks());
        assert!(!Protocol::Baseline.uses_chunks());
        assert!(!Protocol::GeoBft.uses_raft());
        assert!(Protocol::Baseline.uses_raft());
        assert!(Protocol::Steward.single_master());
        assert!(!Protocol::MassBft.single_master());
    }

    #[test]
    fn params_defaults_match_paper_setup() {
        let p = ProtocolParams::new(Protocol::MassBft, &[7, 7, 7]);
        assert_eq!(BATCH_TIMEOUT_US, 20 * MILLISECOND); // §VI: fixed 20 ms
        assert_eq!(p.ng(), 3);
        assert_eq!(p.leader_of(2), NodeId::new(2, 0));
        assert!(p.overlap_vts);
        // cert for n=7: 2f+1 = 5 signatures.
        assert_eq!(p.cert_size(0), 5 * 72 + 40);
    }

    #[test]
    fn msg_wire_sizes_scale_with_content() {
        let registry = KeyRegistry::generate(1, &[4]);
        let id = EntryId::new(0, 1);
        let bytes = encode_batch(id, &[vec![0u8; 1000]]);
        let cert = QuorumCert::assemble(
            entry_digest(&bytes),
            0,
            &registry,
            (0..3).map(|i| massbft_crypto::keys::NodeId::new(0, i)),
        );
        let entry_msg = Msg::Entry {
            id,
            bytes: bytes.clone().into(),
            cert: cert.clone(),
        };
        assert!(
            entry_msg.wire_size() > 1000,
            "entry copy carries the payload"
        );

        let small = Msg::EntryRequest { id };
        assert!(small.wire_size() <= 64, "requests are control-sized");

        let feed = Msg::Feed {
            events: vec![
                FeedEvent::Committed(id),
                FeedEvent::Stamp {
                    stamper: 1,
                    target: id,
                    ts: 3,
                },
            ],
        };
        assert!(feed.wire_size() < 200);

        // Raft append with one entry command: dominated by cert bytes.
        let cmd = GlobalCmd {
            entry: Some((id, entry_digest(&bytes))),
            stamps: vec![(id, 5)],
        };
        let append = Msg::Raft {
            instance: 0,
            rmsg: RaftMsg::AppendEntries {
                term: 1,
                prev_index: 0,
                prev_term: 0,
                entries: vec![massbft_consensus::raft::LogEntry { term: 1, data: cmd }],
                leader_commit: 0,
            },
            cert_bytes: 256,
        };
        let size = append.wire_size();
        assert!(
            size > 256 && size < 1500,
            "append is control-lane sized: {size}"
        );
    }

    #[test]
    fn global_cmd_wire_size() {
        let id = EntryId::new(0, 1);
        let digest = Digest::of(b"x");
        let with_entry = GlobalCmd {
            entry: Some((id, digest)),
            stamps: vec![],
        };
        let stamps_only = GlobalCmd {
            entry: None,
            stamps: vec![(id, 1), (id, 2)],
        };
        assert!(
            crate::wire::global_cmd_wire(&with_entry)
                > crate::wire::global_cmd_wire(&stamps_only) - 40
        );
        assert_eq!(crate::wire::global_cmd_wire(&stamps_only), 2 * 20 + 24);
    }

    /// What `node` would put on the wire for `msg` handled at `now`.
    fn handle(node: &mut Node, now: Time, from: NodeId, msg: Msg) -> Vec<Command<Msg>> {
        let mut ctx = Ctx::new_driver(now, node.id);
        node.on_message(&mut ctx, from, msg);
        ctx.take_commands()
    }

    #[test]
    fn only_node_zero_starts_as_a_representative_with_a_global_layer() {
        let params = ProtocolParams::new(Protocol::MassBft, &[4, 7]);
        let registry = KeyRegistry::generate(params.seed, &params.group_sizes);
        let rep = Node::new(NodeId::new(0, 0), params.clone(), registry.clone());
        assert!(rep.status().is_rep && rep.global.is_some());
        assert_eq!((rep.executed_txns(), rep.ledger().height()), (0, 0));
        let follower = Node::new(NodeId::new(1, 3), params, registry);
        assert!(!follower.status().is_rep && follower.global.is_none());
    }

    #[test]
    fn a_node_keeps_only_its_own_strategies_and_plays_them_inside_their_window() {
        let mut params = ProtocolParams::new(Protocol::MassBft, &[4]);
        let (rep, other) = (NodeId::new(0, 0), NodeId::new(0, 3));
        params.adversaries = vec![
            AdversarySpec::new(rep, Strategy::SilentPrimary).until_us(500),
            AdversarySpec::new(rep, Strategy::WithholdChunks).from_us(500),
            AdversarySpec::new(other, Strategy::TamperChunks).from_us(1000),
        ];
        let registry = KeyRegistry::generate(params.seed, &params.group_sizes);
        let node = Node::new(rep, params.clone(), registry.clone());
        assert_eq!(node.params.adversaries.len(), 2);
        assert!(
            node.plays(0, Strategy::SilentPrimary) && !node.plays(500, Strategy::SilentPrimary)
        );
        assert!(!node.plays(499, Strategy::WithholdChunks));
        assert!(node.plays(500, Strategy::WithholdChunks));
        assert!(!node.plays(5000, Strategy::TamperChunks));
        let tamperer = Node::new(other, params.clone(), registry.clone());
        assert!(!tamperer.plays(999, Strategy::TamperChunks));
        assert!(tamperer.plays(1000, Strategy::TamperChunks));
        let honest = Node::new(NodeId::new(0, 1), params, registry);
        assert!(honest.params.adversaries.is_empty());
    }

    #[test]
    fn a_mute_node_sends_no_pbft_message_and_an_equivocator_splits_its_pre_prepare() {
        let proposal = |strategy: Option<Strategy>| {
            let mut params = ProtocolParams::new(Protocol::MassBft, &[4]);
            let primary = NodeId::new(0, 0);
            params
                .adversaries
                .extend(strategy.map(|s| AdversarySpec::new(primary, s)));
            let registry = KeyRegistry::generate(params.seed, &params.group_sizes);
            let mut node = Node::new(primary, params, registry);
            let mut ctx = Ctx::new_driver(BATCH_TIMEOUT_US, primary);
            let (_, outputs) = node.local.try_batch(ctx.now()).expect("arrivals to batch");
            node.handle_pbft_outputs(&mut ctx, outputs);
            (node.status().pbft_seq, ctx.take_commands())
        };
        let digests = |cmds: &[Command<Msg>]| -> Vec<Digest> {
            let pre_prepare = |c: &Command<Msg>| match c {
                Command::Send {
                    msg: Msg::Pbft(PbftMsg::PrePrepare { digest, .. }),
                    ..
                } => Some(*digest),
                _ => None,
            };
            cmds.iter().filter_map(pre_prepare).collect()
        };
        // Honest: pre-prepare and prepare, each broadcast to the backups.
        let (seq, cmds) = proposal(None);
        assert_eq!(seq, 1);
        let broadcast =
            |c: &Command<Msg>| matches!(c, Command::SendMany { dsts, .. } if dsts.len() == 3);
        assert!(cmds.len() == 2 && cmds.iter().all(broadcast));
        // Mute: nothing leaves, and the sequence number was never shown.
        assert!(matches!(proposal(Some(Strategy::SilentPrimary)), (0, cmds) if cmds.is_empty()));
        // Equivocating: 2f backups get the conflicting branch, the rest the
        // real one.
        let (seq, cmds) = proposal(Some(Strategy::EquivocatingPrimary));
        let d = digests(&cmds);
        assert_eq!((seq, d.len(), cmds.len()), (1, 3, 4));
        assert!(d[0] == d[1] && d[1] != d[2]);
    }

    #[test]
    fn every_repair_target_serves_repair() {
        for sizes in [&[4, 4, 4][..], &[4, 7, 4], &[4; 12]] {
            let params = ProtocolParams::new(Protocol::MassBft, sizes);
            let groups = sizes.iter().zip(0u32..);
            let nodes = groups.flat_map(|(&n, g)| (0..n as u32).map(move |i| NodeId::new(g, i)));
            let mut servers = 0;
            for asker in nodes {
                let targets: Vec<NodeId> = params.repair_targets(asker).collect();
                let serves = params.serves_repair(asker);
                servers += usize::from(serves);
                assert_eq!(targets.len(), sizes.len() - usize::from(serves));
                assert!(
                    targets
                        .iter()
                        .all(|&t| t != asker && params.serves_repair(t)),
                    "{asker:?} asks {targets:?}"
                );
            }
            assert_eq!(servers, sizes.len(), "one per group");
        }
    }

    #[test]
    fn repair_asks_the_representatives_and_only_they_serve_an_executed_entry() {
        let params = ProtocolParams::new(Protocol::Steward, &[4, 4, 4]);
        let registry = KeyRegistry::generate(params.seed, &params.group_sizes);
        let id = EntryId::new(0, 1);
        let asker = NodeId::new(2, 0);
        let bytes: Bytes = encode_batch(id, &[]).into();
        let signers = (0..3).map(|i| massbft_crypto::keys::NodeId::new(0, i));
        let cert = QuorumCert::assemble(entry_digest(&bytes), 0, &registry, signers);
        for (me, asks) in [
            (NodeId::new(1, 2), &[1, 0, 2][..]),
            (NodeId::new(1, 0), &[0, 2]),
        ] {
            let mut node = Node::new(me, params.clone(), registry.clone());
            assert!(handle(&mut node, 0, asker, Msg::EntryRequest { id }).is_empty());
            // A committed entry whose content never arrives stalls the
            // queue; the second repair tick that sees it asks one
            // representative, own group's first, and each tick after it
            // the next one.
            let events = vec![FeedEvent::Committed(id)];
            handle(&mut node, 0, NodeId::new(1, 0), Msg::Feed { events });
            assert_eq!((node.status().exec_queue, node.executed_entries()), (1, 0));
            let mut ctx = Ctx::new_driver(0, me);
            let mut asked = Vec::new();
            for tick in 0..4 {
                node.on_timer(&mut ctx, T_REPAIR);
                let mut this_tick = Vec::new();
                for cmd in ctx.take_commands() {
                    if let Command::Send {
                        dst,
                        msg: Msg::EntryRequest { id: wanted },
                    } = cmd
                    {
                        this_tick.push((dst, wanted));
                    }
                }
                assert_eq!(this_tick.len(), usize::from(tick > 0), "one target per ask");
                asked.extend(this_tick);
            }
            let reps = asks.iter().cycle().take(3);
            let reps: Vec<_> = reps.map(|&g| (NodeId::new(g, 0), id)).collect();
            assert_eq!(asked, reps, "{me:?}");
            // The reply unblocks execution; only a representative, which
            // is asked, keeps the entry to serve whoever asks next.
            let copy = Msg::Entry {
                id,
                bytes: bytes.clone(),
                cert: cert.clone(),
            };
            handle(&mut node, 0, NodeId::new(0, 0), copy);
            assert_eq!(node.executed_entries(), 1);
            let reply = handle(&mut node, 0, asker, Msg::EntryRequest { id });
            let served = matches!(
                &reply[..],
                [Command::Send { dst, msg: Msg::Entry { .. } }] if *dst == asker
            );
            assert_eq!(served, params.serves_repair(me), "{me:?}");
            let kept = node.status().archive_bytes;
            assert_eq!(kept, if served { bytes.len() as u64 } else { 0 });
        }
    }
}
