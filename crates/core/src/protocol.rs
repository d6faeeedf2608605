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
//! Structure of one node (group `g`, index `i`):
//!
//! - a local [`PbftReplica`] certifying the group's own entries;
//! - per-origin-group [`ChunkAssembler`]s (chunked modes) or copy buffers;
//! - the group representative (node 0) additionally runs the global Raft
//!   endpoints, the client batcher, and broadcasts committed ordering
//!   events to its group over LAN ([`Msg::Feed`]);
//! - an ordering engine (VTS / round / log) feeding the deterministic
//!   Aria executor.
//!
//! Modelling notes (see DESIGN.md §5): the intra-group agreement on
//! global-consensus decisions (the paper's skip-prepare accept PBFT) is
//! modelled as a fixed LAN-round delay on `accept` replies; transaction
//! signature verification and execution charge per-transaction virtual CPU
//! time, which produces the paper's CPU plateau (Fig. 13a).

use crate::{
    adversary::{AdversarySpec, Strategy},
    entry::{decode_batch, encode_batch, peek_entry_id, EntryId, EntryRecord},
    exec::{ExecutionPipeline, PreparedEntry},
    held::HeldAppends,
    ledger::Ledger,
    ordering::OrderingEngine,
    plan::TransferPlan,
    replication::{ChunkAssembler, ChunkMsg, ChunkOutcome, ChunkSender},
    round::RoundOrdering,
    stats::LatencyStats,
};
use bytes::Bytes;
use massbft_consensus::{
    pbft::{PbftConfig, PbftMsg, PbftOutput, PbftReplica},
    raft::{RaftConfig, RaftMsg, RaftNode, RaftOutput},
};
use massbft_crypto::{cert::quorum, Digest, KeyRegistry, QuorumCert};
use massbft_db::hash::FastMap;
use massbft_sim_net::{Actor, Ctx, NodeId, SimMessage, Time, MILLISECOND};
use massbft_telemetry as telemetry;
use massbft_workloads::{Request, WorkloadGen, WorkloadKind};
use std::collections::{BTreeMap, BTreeSet, VecDeque};
use std::sync::OnceLock;

/// Process-wide commit-latency histogram (`core.entry.commit_latency_us`):
/// submitted → executed at the originating group's representative. Windowed
/// reads (the scale bench) use `Histogram::window` + `percentile_since`.
fn commit_latency_histogram() -> &'static telemetry::registry::Histogram {
    static H: OnceLock<telemetry::registry::Histogram> = OnceLock::new();
    H.get_or_init(|| telemetry::registry::histogram("core.entry.commit_latency_us"))
}

/// Process-wide executed-transaction counter (`core.entry.executed_txns`),
/// summed across every node hosted in this process. The ops plane's tps
/// series: scrapers difference it between scrapes.
fn executed_txns_counter() -> &'static telemetry::registry::Counter {
    static C: OnceLock<telemetry::registry::Counter> = OnceLock::new();
    C.get_or_init(|| telemetry::registry::counter("core.entry.executed_txns"))
}

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
    /// Batch timeout (paper: fixed 20 ms for all competitors).
    pub batch_timeout_us: Time,
    /// Maximum transactions per entry.
    pub max_batch: usize,
    /// In-flight (proposed but unexecuted) entries a group allows —
    /// the pipelining window.
    pub pipeline_window: usize,
    /// Client request arrival rate per group, transactions/second
    /// (open-loop; the pending pool is capped so saturation sheds load).
    pub arrival_tps: f64,
    /// Per-transaction signature verification CPU (local consensus).
    pub sig_verify_us: Time,
    /// Per-transaction execution CPU.
    pub exec_us: Time,
    /// ISS epoch length.
    pub epoch_us: Time,
    /// Raft election timeout (global instances).
    pub election_timeout_us: Time,
    /// Raft heartbeat period.
    pub heartbeat_us: Time,
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
    /// Base PBFT progress timeout: a backup that sees no progress for this
    /// long votes to change the view.
    pub view_timeout_us: Time,
    /// Cap for the exponential view-timeout backoff.
    pub view_timeout_max_us: Time,
    /// Period of the pull-repair scan for stalled executions (Lemma V.1).
    pub repair_interval_us: Time,
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
            batch_timeout_us: 20 * MILLISECOND,
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
            sig_verify_us: 50,
            exec_us: 2,
            epoch_us: 100 * MILLISECOND,
            election_timeout_us: 600 * MILLISECOND,
            heartbeat_us: 100 * MILLISECOND,
            overlap_vts: true,
            workload: WorkloadKind::YcsbA,
            adversaries: Vec::new(),
            // The progress timeout must comfortably exceed a loaded
            // LAN PBFT round; backoff doubles it up to 4x so repeated
            // view changes across overlapping failures still converge.
            view_timeout_us: 500 * MILLISECOND,
            view_timeout_max_us: 2000 * MILLISECOND,
            repair_interval_us: 500 * MILLISECOND,
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

    /// Approximate certificate wire size for group `g` (2f+1 signatures à
    /// 72 bytes + header).
    pub fn cert_size(&self, g: u32) -> usize {
        quorum(self.group_sizes[g as usize]) * 72 + 40
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

/// State of one received-but-not-yet-executed entry.
#[derive(Debug, Default)]
struct EntryTracking {
    /// The entry as this node accepted it (see [`EntryRecord`]); taken
    /// when the entry executes.
    content: Option<EntryRecord>,
    cert: Option<QuorumCert>,
    committed: bool,
    fed_to_round: bool,
    executed: bool,
}

/// How ordering is decided.
enum OrderingState {
    Vts(OrderingEngine),
    Round(RoundOrdering),
    /// Steward: Raft log order (entries queue as they commit).
    Log(VecDeque<EntryId>),
}

/// The unified protocol node.
pub struct Node {
    params: ProtocolParams,
    id: NodeId,
    registry: KeyRegistry,
    pbft: PbftReplica,
    /// Rebuild state per origin group (chunked modes).
    assemblers: FastMap<u32, ChunkAssembler>,
    /// Entry content + commit flags per entry (all modes).
    tracking: FastMap<EntryId, EntryTracking>,
    /// Execution.
    ordering: OrderingState,
    exec_queue: VecDeque<EntryId>,
    pipeline: ExecutionPipeline,
    /// Raft appends carrying entries whose content has not arrived yet:
    /// the accept is withheld until the entry is held locally (paper
    /// Lemma V.1), indexed by the entries they wait on.
    held_appends: HeldAppends<(NodeId, RaftMsg<GlobalCmd>)>,
    /// Recently executed entries kept for pull-based repair, FIFO-bounded.
    archive: FastMap<EntryId, (Bytes, QuorumCert)>,
    archive_order: VecDeque<EntryId>,
    /// The exec-queue front observed at the last repair tick; a repeat
    /// sighting with missing content triggers an EntryRequest.
    last_stalled: Option<EntryId>,
    /// Representative-only state.
    rep: Option<RepState>,
    /// Last instant local PBFT demonstrably made progress (commit, view
    /// entry, or an idle heartbeat from the current primary). Drives the
    /// view-change stall detector.
    last_pbft_progress: Time,
    /// Current (backed-off) view timeout; doubles on every stall up to
    /// `view_timeout_max_us`, resets on entering a view.
    view_timeout_cur: Time,
    /// Highest own-group PBFT entry seq this node has seen proposed or
    /// certified. An acting representative (post view change) continues
    /// the sequence from here instead of colliding with the old primary.
    own_seq_high: u64,
    /// Measurement (read by the cluster harness).
    pub(crate) executed_txns: u64,
    pub(crate) executed_entries: u64,
    pub(crate) latency: LatencyStats,
    /// Per-origin-group executed txns (Fig. 12 per-group throughput).
    pub(crate) executed_by_group: Vec<u64>,
    /// The node's hash-chained ledger over executed entries (§VI: "a
    /// single, globally ordered, ledger").
    pub(crate) ledger: Ledger,
    /// Phase-time accumulators over own executed entries (microseconds):
    /// local consensus, global replication, ordering wait, execution wait.
    phase_sums: [u64; 4],
    phase_count: u64,
    /// PBFT sequence → entry id, learned from pre-prepare payload headers.
    /// Only populated while telemetry spans are enabled (prepare/commit
    /// messages carry digests, not payloads, so attributing PBFT phase
    /// events to entries needs this map); GC'd on local commit.
    pbft_entry_of_seq: FastMap<u64, EntryId>,
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

/// Extra state carried by each group's representative node.
struct RepState {
    workload: WorkloadGen,
    /// Client requests waiting to be batched (open-loop arrivals).
    pending: VecDeque<Vec<u8>>,
    /// Fractional arrivals carry-over.
    arrival_carry: f64,
    last_arrival_at: Time,
    next_seq: u64,
    /// Entries proposed but not yet executed locally (pipeline window).
    in_flight: BTreeSet<EntryId>,
    /// Entry creation times for latency accounting.
    created_at: FastMap<EntryId, Time>,
    /// Phase marks per own entry (Fig. 11 latency breakdown).
    certified_at: FastMap<EntryId, Time>,
    committed_at: FastMap<EntryId, Time>,
    ordered_at: FastMap<EntryId, Time>,
    /// Global Raft instances this representative participates in.
    rafts: BTreeMap<u32, RaftNode<GlobalCmd>>,
    /// Stamps awaiting replication, keyed by the instance that will carry
    /// them.
    pending_stamps: BTreeMap<u32, Vec<(EntryId, u64)>>,
    /// `(carrying instance, entry)` pairs already stamped — dedup across
    /// Raft retransmissions, and per instance because a takeover leader
    /// stamps the same entry on behalf of multiple clocks.
    stamped: BTreeSet<(u32, EntryId)>,
    /// clk of this group = seq of last own entry committed globally.
    clock: u64,
    /// Frozen clocks of taken-over instances (§V-C, crashed groups).
    frozen_clocks: BTreeMap<u32, u64>,
    /// Last append heard per instance (election monitoring).
    last_append: BTreeMap<u32, Time>,
    /// Entries committed globally but not yet executed locally (stamped on
    /// takeover so ordering can resume; duplicates are harmless).
    unexecuted: BTreeSet<EntryId>,
    /// ISS: current epoch and the set of groups that sealed each epoch.
    epoch: u64,
    epoch_seals: BTreeMap<u64, BTreeSet<u32>>,
    /// Highest committed seq per group (crash takeover: frozen clock).
    committed_high: BTreeMap<u32, u64>,
    /// Direct-accept tallies per entry (§V-C): which groups are known to
    /// hold it. The proposing group counts implicitly.
    accept_tally: FastMap<EntryId, BTreeSet<u32>>,
    /// Foreign entries this representative re-proposed after taking over a
    /// crashed group's entry instance (dedup across content re-arrivals).
    proposed_foreign: BTreeSet<EntryId>,
    /// True for an acting representative installed by a view change. An
    /// acting rep holds no Raft endpoints and may be permanently behind on
    /// execution (stamps feed-broadcast while the group was orphaned are
    /// gone), so its pipeline window drains on global *commit* — learned
    /// via the orphan feed — instead of local execution.
    acting: bool,
}

impl RepState {
    /// A representative of `group` with nothing proposed yet and no Raft
    /// endpoints: arrivals accrue from `now`, own entries are numbered
    /// from `next_seq`. Every representative of a group draws the same
    /// deterministic client stream (the workload seed is per group).
    fn new(params: &ProtocolParams, group: u32, now: Time, next_seq: u64) -> Self {
        RepState {
            workload: WorkloadGen::new(params.workload, params.seed ^ ((group as u64) << 32)),
            pending: VecDeque::new(),
            arrival_carry: 0.0,
            last_arrival_at: now,
            next_seq,
            in_flight: BTreeSet::new(),
            created_at: FastMap::default(),
            certified_at: FastMap::default(),
            committed_at: FastMap::default(),
            ordered_at: FastMap::default(),
            rafts: BTreeMap::new(),
            pending_stamps: BTreeMap::new(),
            stamped: BTreeSet::new(),
            clock: 0,
            frozen_clocks: BTreeMap::new(),
            last_append: BTreeMap::new(),
            unexecuted: BTreeSet::new(),
            epoch: 0,
            epoch_seals: BTreeMap::new(),
            committed_high: BTreeMap::new(),
            accept_tally: FastMap::default(),
            proposed_foreign: BTreeSet::new(),
            acting: false,
        }
    }
}

impl Node {
    /// Creates the node for `id` under `params`. The same `KeyRegistry`
    /// must be shared by all nodes (derived from `params.seed`).
    pub fn new(id: NodeId, params: ProtocolParams, registry: KeyRegistry) -> Self {
        let n = params.group_sizes[id.group as usize];
        let pbft = PbftReplica::new(
            PbftConfig {
                group: id.group,
                n,
                node: id.node,
                skip_prepare: false,
                checkpoint_interval: 64,
            },
            registry.clone(),
        );
        let ng = params.ng();
        let ordering = match params.protocol {
            Protocol::MassBft => OrderingState::Vts(OrderingEngine::new(ng)),
            Protocol::Steward => OrderingState::Log(VecDeque::new()),
            _ => OrderingState::Round(RoundOrdering::new(ng)),
        };
        // Chunk assemblers for every *other* origin group.
        let mut assemblers = FastMap::default();
        if params.protocol.uses_chunks() {
            for origin in 0..ng as u32 {
                if origin == id.group {
                    continue;
                }
                let plan = std::sync::Arc::new(
                    TransferPlan::generate(
                        params.group_sizes[origin as usize],
                        params.group_sizes[id.group as usize],
                    )
                    .expect("valid group sizes"),
                );
                assemblers.insert(origin, ChunkAssembler::new(plan, registry.clone()));
            }
        }
        let is_rep = id.node == 0;
        let rep = is_rep.then(|| {
            let members: Vec<u32> = (0..ng as u32).collect();
            let mut rafts = BTreeMap::new();
            if params.protocol.uses_raft() {
                let mut instances: Vec<u32> = if params.protocol.single_master() {
                    vec![0]
                } else {
                    members.clone()
                };
                // MassBFT: a dedicated lightweight Raft stream per group
                // carries vector timestamps (instance ng+g, led by group
                // g). The paper stresses that "replicating VTS is
                // non-blocking" (§I): stamps must not queue behind entry
                // commands whose accepts are content-gated (Lemma V.1),
                // or ordering inherits the slowest group's bulk backlog.
                if matches!(params.protocol, Protocol::MassBft) {
                    instances.extend(members.iter().map(|&g| ng as u32 + g));
                }
                for inst in instances {
                    let leader = inst % ng as u32;
                    rafts.insert(
                        inst,
                        RaftNode::new(RaftConfig {
                            me: id.group,
                            members: members.clone(),
                            initial_leader: Some(leader),
                        }),
                    );
                }
            }
            RepState {
                rafts,
                ..RepState::new(&params, id.group, 0, 1)
            }
        });
        Node {
            id,
            registry,
            pbft,
            assemblers,
            tracking: FastMap::default(),
            held_appends: HeldAppends::new(),
            archive: FastMap::default(),
            archive_order: VecDeque::new(),
            last_stalled: None,
            ordering,
            exec_queue: VecDeque::new(),
            pipeline: ExecutionPipeline::new(
                params.exec_workers,
                params.retry_aborts,
                params.exec_fallback,
            ),
            rep,
            executed_txns: 0,
            executed_entries: 0,
            latency: LatencyStats::new(),
            executed_by_group: vec![0; ng],
            ledger: Ledger::new(),
            phase_sums: [0; 4],
            phase_count: 0,
            pbft_entry_of_seq: FastMap::default(),
            last_pbft_progress: 0,
            view_timeout_cur: params.view_timeout_us,
            own_seq_high: 0,
            params,
        }
    }

    /// Emits one entry-lifecycle telemetry event at this node. A single
    /// relaxed atomic load + branch when telemetry is disabled.
    #[inline]
    fn span(&self, at: Time, kind: telemetry::EventKind, id: EntryId, value: u64) {
        if !telemetry::enabled() {
            return;
        }
        telemetry::emit(telemetry::Event {
            at,
            kind,
            node: (self.id.group, self.id.node),
            entry: (id.gid, id.seq),
            value,
        });
    }

    /// Total transactions executed (committed by Aria).
    pub fn executed_txns(&self) -> u64 {
        self.executed_txns
    }

    /// Entries executed.
    pub fn executed_entries(&self) -> u64 {
        self.executed_entries
    }

    /// Latency samples recorded at this node (origin entries only).
    pub fn latency(&self) -> &LatencyStats {
        &self.latency
    }

    /// Per-origin-group executed transaction counts.
    pub fn executed_by_group(&self) -> &[u64] {
        &self.executed_by_group
    }

    /// Content hash of the node's database (replica-consistency checks).
    pub fn state_hash(&self) -> u64 {
        self.pipeline.store().content_hash()
    }

    /// The node's hash-chained ledger (block per executed entry).
    pub fn ledger(&self) -> &Ledger {
        &self.ledger
    }

    /// Mean latency breakdown over this representative's own entries
    /// (Fig. 11). `None` when no entries completed or on non-reps.
    pub fn phase_breakdown(&self) -> Option<PhaseBreakdown> {
        if self.phase_count == 0 {
            return None;
        }
        let c = self.phase_count as f64 * 1000.0;
        Some(PhaseBreakdown {
            local_consensus_ms: self.phase_sums[0] as f64 / c,
            global_replication_ms: self.phase_sums[1] as f64 / c,
            ordering_ms: self.phase_sums[2] as f64 / c,
            execution_ms: self.phase_sums[3] as f64 / c,
        })
    }

    fn ng(&self) -> usize {
        self.params.ng()
    }

    fn group_nodes(&self, g: u32) -> impl Iterator<Item = NodeId> {
        let n = self.params.group_sizes[g as usize];
        (0..n as u32).map(move |i| NodeId::new(g, i))
    }

    fn other_group_members(&self) -> Vec<NodeId> {
        self.group_nodes(self.id.group)
            .filter(|&n| n != self.id)
            .collect()
    }

    fn is_rep(&self) -> bool {
        self.rep.is_some()
    }

    /// The node's current local PBFT view (liveness assertions in tests).
    pub fn pbft_view(&self) -> u64 {
        self.pbft.view()
    }

    /// Point-in-time introspection snapshot for the ops plane (`/status`
    /// endpoint, flight-recorder dumps). Pure reads — cheap enough to
    /// take under the node lock on every scrape.
    pub fn status(&self) -> NodeStatus {
        NodeStatus {
            group: self.id.group,
            node: self.id.node,
            is_rep: self.is_rep(),
            pbft_view: self.pbft.view(),
            pbft_seq: self.own_seq_high,
            ledger_height: self.ledger.height(),
            ledger_head: self.ledger.head_hash(),
            exec_watermark: self.executed_entries,
            executed_txns: self.executed_txns,
            executed_by_group: self.executed_by_group.clone(),
            exec_queue: self.exec_queue.len(),
            held_appends: self.held_appends.len(),
            in_flight: self.rep.as_ref().map(|r| r.in_flight.len()).unwrap_or(0),
            clock: self.rep.as_ref().map(|r| r.clock).unwrap_or(0),
        }
    }

    /// Whether any adversary spec matching `pred` is assigned to this node
    /// and active at `now`.
    fn strategy_active(&self, now: Time, pred: impl Fn(Strategy) -> bool) -> bool {
        self.params
            .adversaries
            .iter()
            .any(|s| s.node == self.id && s.active_at(now) && pred(s.strategy))
    }

    /// Chunk-tampering collusion (§VI-E) — the historical default
    /// Byzantine behavior.
    fn is_byzantine(&self, now: Time) -> bool {
        self.strategy_active(now, |s| matches!(s, Strategy::TamperChunks))
    }

    /// Mute fault: all outbound PBFT traffic is suppressed.
    fn silenced(&self, now: Time) -> bool {
        self.strategy_active(now, |s| matches!(s, Strategy::SilentPrimary))
    }

    /// WAN-share withholding: certify locally, never replicate out.
    fn withholds_shares(&self, now: Time) -> bool {
        self.strategy_active(now, |s| matches!(s, Strategy::WithholdChunks))
    }

    // --- client batching --------------------------------------------------

    /// Accrues open-loop arrivals since the last call (capped pool).
    fn accrue_arrivals(&mut self, now: Time) {
        let max_batch = self.params.max_batch;
        let tps = self.params.arrival_tps;
        let Some(rep) = self.rep.as_mut() else { return };
        let dt = now.saturating_sub(rep.last_arrival_at);
        rep.last_arrival_at = now;
        let exact = tps * dt as f64 / 1_000_000.0 + rep.arrival_carry;
        let mut n = exact as u64;
        rep.arrival_carry = exact - n as f64;
        // Pool cap: ~4 max batches of headroom; beyond that, shed load.
        let cap = (max_batch * 4) as u64;
        let room = cap.saturating_sub(rep.pending.len() as u64);
        n = n.min(room);
        for _ in 0..n {
            let req = rep.workload.next_request().encode();
            rep.pending.push_back(req);
        }
    }

    fn try_batch(&mut self, ctx: &mut Ctx<Msg>) {
        self.accrue_arrivals(ctx.now());
        let ng = self.ng();
        let (protocol, epoch_us, max_batch, window) = (
            self.params.protocol,
            self.params.epoch_us,
            self.params.max_batch,
            self.params.pipeline_window,
        );
        let group = self.id.group;
        let own_high = self.own_seq_high;
        // Only an active primary can drive a batch through PBFT. Proposing
        // as a backup or mid-view-change would consume the entry id and
        // occupy a pipeline-window slot for a batch `Pbft::propose`
        // silently refuses to sequence — wedging the window for good.
        if !self.pbft.is_primary() || self.pbft.in_view_change() {
            return;
        }
        let Some(rep) = self.rep.as_mut() else { return };
        if rep.pending.is_empty() || rep.in_flight.len() >= window {
            return;
        }
        // An acting representative (elected by view change) continues the
        // group's sequence past everything already seen on the wire.
        rep.next_seq = rep.next_seq.max(own_high + 1);
        // ISS epoch barrier: cannot open a new epoch until all groups
        // sealed the previous one.
        if matches!(protocol, Protocol::Iss) {
            let entry_epoch = ctx.now() / epoch_us;
            if entry_epoch > rep.epoch {
                let sealed = rep
                    .epoch_seals
                    .get(&rep.epoch)
                    .map(|s| s.len())
                    .unwrap_or(0);
                if sealed < ng {
                    return; // stall at the barrier
                }
                rep.epoch = entry_epoch;
            }
        }
        let take = rep.pending.len().min(max_batch);
        let requests: Vec<Vec<u8>> = rep.pending.drain(..take).collect();
        let id = EntryId::new(group, rep.next_seq);
        rep.next_seq += 1;
        rep.in_flight.insert(id);
        rep.created_at.insert(id, ctx.now());
        self.span(
            ctx.now(),
            telemetry::EventKind::Submitted,
            id,
            requests.len() as u64,
        );
        let bytes = encode_batch(id, &requests);
        let outputs = self.pbft.propose(bytes);
        self.handle_pbft_outputs(ctx, outputs);
    }

    // --- local PBFT ---------------------------------------------------------

    fn handle_pbft_outputs(&mut self, ctx: &mut Ctx<Msg>, outputs: Vec<PbftOutput>) {
        for out in outputs {
            match out {
                PbftOutput::Send { to, msg } => {
                    if self.silenced(ctx.now()) {
                        continue; // mute fault: nothing leaves this node
                    }
                    ctx.send(NodeId::new(self.id.group, to), Msg::Pbft(msg));
                }
                PbftOutput::Broadcast(msg) => {
                    if self.silenced(ctx.now()) {
                        continue;
                    }
                    self.note_pbft_phase(ctx.now(), &msg);
                    if let PbftMsg::PrePrepare { payload, .. } = &msg {
                        if let Some(id) = peek_entry_id(payload) {
                            if id.gid == self.id.group {
                                self.own_seq_high = self.own_seq_high.max(id.seq);
                            }
                        }
                        if self.strategy_active(ctx.now(), |s| {
                            matches!(s, Strategy::EquivocatingPrimary)
                        }) {
                            self.send_equivocating(ctx, msg);
                            continue;
                        }
                    }
                    let peers = self.other_group_members();
                    ctx.send_many(peers, Msg::Pbft(msg));
                }
                PbftOutput::Committed { seq, payload, cert } => {
                    self.pbft_entry_of_seq.remove(&seq);
                    self.last_pbft_progress = ctx.now();
                    self.on_local_entry_certified(ctx, payload, cert);
                }
                PbftOutput::EnteredView(v) => self.on_entered_view(ctx, v),
                // View timing is driven by the T_VIEW progress timer.
                PbftOutput::ArmViewTimer => {}
            }
        }
    }

    /// Equivocation attack: replace the primary's pre-prepare broadcast
    /// with two conflicting branches sent to disjoint halves of the group
    /// (same view/seq, different payload+digest). With `n = 3f + 1`,
    /// neither branch can gather a `2f + 1` quorum, so the group stalls
    /// until the view-change driver evicts us and the new primary
    /// re-proposes exactly one branch.
    fn send_equivocating(&mut self, ctx: &mut Ctx<Msg>, msg: PbftMsg) {
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
            let peers = self.other_group_members();
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
        let peers = self.other_group_members();
        let f = (self.params.group_sizes[self.id.group as usize] - 1) / 3;
        for (i, peer) in peers.into_iter().enumerate() {
            let branch = if i < 2 * f { alt.clone() } else { msg.clone() };
            ctx.send(peer, Msg::Pbft(branch));
        }
    }

    /// The local replica installed a new view. Reset the stall detector
    /// and backoff, and — if this node is now the primary of a group whose
    /// original representative is gone — take over client batching as the
    /// acting representative so the group keeps proposing entries.
    fn on_entered_view(&mut self, ctx: &mut Ctx<Msg>, view: u64) {
        self.last_pbft_progress = ctx.now();
        self.view_timeout_cur = self.params.view_timeout_us;
        self.span(
            ctx.now(),
            telemetry::EventKind::NewViewAdopted,
            EntryId::new(self.id.group, 0),
            view,
        );
        if self.pbft.is_primary() && self.rep.is_none() {
            self.become_acting_rep(ctx);
        }
    }

    /// Promote this node to acting representative: same deterministic
    /// client stream as the original (shared workload seed), sequence
    /// continued from `own_seq_high`. Global Raft endpoints stay with the
    /// original representative (or its cross-group takeover); the acting
    /// rep only batches, proposes, and certifies.
    fn become_acting_rep(&mut self, ctx: &mut Ctx<Msg>) {
        self.rep = Some(RepState {
            acting: true,
            ..RepState::new(
                &self.params,
                self.id.group,
                ctx.now(),
                self.own_seq_high + 1,
            )
        });
        ctx.set_timer(self.params.batch_timeout_us, T_BATCH);
    }

    /// Attributes an outgoing PBFT phase message to its entry and emits the
    /// matching lifecycle event. Pre-prepares carry the payload (whose
    /// header names the entry); prepares and commits carry only digests, so
    /// the `seq → entry` map learned from pre-prepares bridges them.
    fn note_pbft_phase(&mut self, at: Time, msg: &PbftMsg) {
        if !telemetry::enabled() {
            return;
        }
        match msg {
            PbftMsg::PrePrepare { seq, payload, .. } => {
                if let Some(id) = peek_entry_id(payload) {
                    self.pbft_entry_of_seq.insert(*seq, id);
                    self.span(at, telemetry::EventKind::PbftPrePrepare, id, *seq);
                }
            }
            PbftMsg::Prepare { seq, .. } => {
                if let Some(&id) = self.pbft_entry_of_seq.get(seq) {
                    self.span(at, telemetry::EventKind::PbftPrepare, id, *seq);
                }
            }
            PbftMsg::Commit { seq, .. } => {
                if let Some(&id) = self.pbft_entry_of_seq.get(seq) {
                    self.span(at, telemetry::EventKind::PbftCommit, id, *seq);
                }
            }
            _ => {}
        }
    }

    /// A local entry finished PBFT: start global replication.
    fn on_local_entry_certified(&mut self, ctx: &mut Ctx<Msg>, bytes: Bytes, cert: QuorumCert) {
        let Some((id, txns)) = decode_batch(&bytes).map(|(id, reqs)| (id, reqs.len())) else {
            return;
        };
        debug_assert_eq!(id.gid, self.id.group);
        self.own_seq_high = self.own_seq_high.max(id.seq);
        // Charge verification of every client transaction's signature —
        // the local-consensus CPU cost the paper identifies (§VI-B).
        ctx.spend_cpu(txns as Time * self.params.sig_verify_us);
        // The one hash of a local entry at this node: proposal, ledger and
        // archive all read the record.
        let rec = EntryRecord::hash(bytes.clone()).expect("decoded above");
        self.tracking.entry(id).or_default().cert = Some(cert.clone());
        self.hold_content(rec);
        if let Some(rep) = self.rep.as_mut() {
            rep.certified_at.insert(id, ctx.now());
        }
        self.span(ctx.now(), telemetry::EventKind::Certified, id, txns as u64);

        // A withholding adversary certifies but never ships its WAN
        // shares; erasure-coded parity (or the remaining copy senders)
        // must absorb the gap.
        let withhold = self.withholds_shares(ctx.now());
        match self.params.protocol {
            Protocol::MassBft | Protocol::EncodedBijective => {
                if !withhold {
                    self.send_chunks(ctx, id, &bytes, &cert);
                }
            }
            Protocol::BijectiveOnly => {
                if !withhold {
                    self.send_bijective_copy(ctx, id, &bytes, &cert);
                }
            }
            Protocol::Baseline | Protocol::GeoBft | Protocol::Iss => {
                if self.is_rep() && !withhold {
                    self.send_leader_copies(ctx, id, &bytes, &cert);
                }
            }
            Protocol::Steward => {
                if self.is_rep() {
                    if self.id.group == 0 {
                        // The master group replicates directly.
                        self.send_leader_copies(ctx, id, &bytes, &cert);
                        self.steward_propose(ctx, id);
                    } else {
                        // Forward to the master for sequencing + fan-out.
                        ctx.send(
                            self.params.leader_of(0),
                            Msg::Entry {
                                id,
                                bytes: bytes.clone(),
                                cert: cert.clone(),
                            },
                        );
                    }
                }
            }
        }

        // GeoBFT has no global consensus: local certification == commit.
        if !self.params.protocol.uses_raft() {
            self.mark_committed(id);
        } else if self.is_rep() && !self.params.protocol.single_master() {
            // Propose the entry commitment in our own Raft instance,
            // carrying any pending stamps (paper §V-A piggybacking).
            self.propose_global(ctx, id);
        }
        self.drain_ordering(ctx.now());
        self.try_execute(ctx);
    }

    fn send_chunks(&mut self, ctx: &mut Ctx<Msg>, id: EntryId, bytes: &[u8], cert: &QuorumCert) {
        // Byzantine senders encode a tampered entry instead (§VI-E).
        let tampered;
        let payload: &[u8] = if self.is_byzantine(ctx.now()) {
            tampered = encode_batch(id, &[b"tampered-by-byzantine-collusion".to_vec()]);
            &tampered
        } else {
            bytes
        };
        self.span(
            ctx.now(),
            telemetry::EventKind::Encoded,
            id,
            payload.len() as u64,
        );
        // Destination groups of equal size share one encoding geometry;
        // encode once per geometry and slice per transfer plan (a real
        // implementation caches exactly the same way).
        let mut encoded: BTreeMap<(usize, usize), Vec<ChunkMsg>> = BTreeMap::new();
        let mut wan_bytes: u64 = 0;
        for dst_group in 0..self.ng() as u32 {
            if dst_group == self.id.group {
                continue;
            }
            let plan = TransferPlan::generate(
                self.params.group_sizes[self.id.group as usize],
                self.params.group_sizes[dst_group as usize],
            )
            .expect("valid sizes");
            let key = (plan.n_data, plan.n_total);
            let all = encoded.entry(key).or_insert_with(|| {
                ChunkSender::encode_all(&plan, id, payload).expect("encodable entry")
            });
            for t in plan.outgoing_of(self.id.node) {
                let chunk = all[t.chunk as usize].clone();
                wan_bytes += chunk.wire_size() as u64;
                ctx.send(
                    NodeId::new(dst_group, t.receiver),
                    Msg::Chunk {
                        chunk,
                        cert: cert.clone(),
                    },
                );
            }
        }
        if wan_bytes > 0 {
            self.span(
                ctx.now(),
                telemetry::EventKind::WanTransferStart,
                id,
                wan_bytes,
            );
        }
    }

    fn send_bijective_copy(
        &mut self,
        ctx: &mut Ctx<Msg>,
        id: EntryId,
        bytes: &Bytes,
        cert: &QuorumCert,
    ) {
        // BR (§IV-A): f1 + f2 + 1 nodes each send a complete copy to a
        // distinct receiver.
        let mut sent = false;
        for dst_group in 0..self.ng() as u32 {
            if dst_group == self.id.group {
                continue;
            }
            let n1 = self.params.group_sizes[self.id.group as usize];
            let n2 = self.params.group_sizes[dst_group as usize];
            let f1 = massbft_crypto::cert::max_faulty(n1);
            let f2 = massbft_crypto::cert::max_faulty(n2);
            let senders = (f1 + f2 + 1).min(n1).min(n2);
            if (self.id.node as usize) < senders {
                sent = true;
                ctx.send(
                    NodeId::new(dst_group, self.id.node),
                    Msg::Entry {
                        id,
                        bytes: bytes.clone(),
                        cert: cert.clone(),
                    },
                );
            }
        }
        if sent {
            self.span(
                ctx.now(),
                telemetry::EventKind::WanTransferStart,
                id,
                bytes.len() as u64,
            );
        }
    }

    fn send_leader_copies(
        &mut self,
        ctx: &mut Ctx<Msg>,
        id: EntryId,
        bytes: &Bytes,
        cert: &QuorumCert,
    ) {
        // Leader one-way replication with the GeoBFT optimization: send to
        // f+1 nodes of each remote group (§VI, Competitors).
        let mut sent = false;
        for dst_group in 0..self.ng() as u32 {
            if dst_group == self.id.group || dst_group == id.gid {
                continue;
            }
            let f = massbft_crypto::cert::max_faulty(self.params.group_sizes[dst_group as usize]);
            for i in 0..(f + 1) as u32 {
                sent = true;
                ctx.send(
                    NodeId::new(dst_group, i),
                    Msg::Entry {
                        id,
                        bytes: bytes.clone(),
                        cert: cert.clone(),
                    },
                );
            }
        }
        if sent {
            self.span(
                ctx.now(),
                telemetry::EventKind::WanTransferStart,
                id,
                bytes.len() as u64,
            );
        }
    }

    // --- global Raft --------------------------------------------------------

    /// Proposes an entry commitment into the entry's own Raft instance
    /// (`instance = id.gid`). Normally the proposer *is* the entry's
    /// group; after a crash takeover the elected cross-group leader
    /// re-proposes rebuilt foreign entries here too (§V-C).
    fn propose_global(&mut self, ctx: &mut Ctx<Msg>, id: EntryId) {
        let Some(rec) = self.tracking.get(&id).and_then(|t| t.content.as_ref()) else {
            return;
        };
        let digest = rec.digest();
        let instance = id.gid;
        let my_group = self.id.group;
        let stream = self.params.ng() as u32 + my_group;
        let outputs = {
            let Some(rep) = self.rep.as_mut() else { return };
            if id.gid != my_group {
                if !rep.proposed_foreign.insert(id) {
                    return;
                }
                // Takeover self-stamp: the proposer's own append never
                // loops back through `on_raft_msg`, so without this the
                // entry's timestamp vector would miss our component.
                if rep.stamped.insert((my_group, id)) {
                    let ts = rep.clock;
                    rep.pending_stamps.entry(stream).or_default().push((id, ts));
                }
            }
            // Stamps travel on the dedicated stamp stream (see new()),
            // never on entry instances.
            let cmd = GlobalCmd {
                entry: Some((id, digest)),
                stamps: Vec::new(),
            };
            let Some(raft) = rep.rafts.get_mut(&instance) else {
                return;
            };
            match raft.propose(cmd) {
                Some((_, o)) => o,
                None => return,
            }
        };
        self.handle_raft_outputs(ctx, instance, outputs);
    }

    /// Re-proposes a crashed group's certified-but-uncommitted entries
    /// whose content we hold, if we are the elected takeover leader of
    /// that group's entry instance. Called on takeover election and on
    /// each foreign content arrival; `proposed_foreign` dedups.
    fn propose_foreign_ready(&mut self, ctx: &mut Ctx<Msg>, instance: u32) {
        if instance as usize >= self.ng() || instance == self.id.group {
            return;
        }
        let leads = self
            .rep
            .as_ref()
            .and_then(|r| r.rafts.get(&instance))
            .is_some_and(|r| r.is_leader());
        if !leads {
            return;
        }
        let mut ready: Vec<EntryId> = self
            .tracking
            .iter()
            .filter(|(eid, t)| {
                eid.gid == instance && t.content.is_some() && !t.committed && !t.executed
            })
            .map(|(&eid, _)| eid)
            .collect();
        ready.sort(); // HashMap order is not deterministic
        for eid in ready {
            self.propose_global(ctx, eid);
        }
    }

    fn steward_propose(&mut self, ctx: &mut Ctx<Msg>, id: EntryId) {
        let t = self.tracking.get(&id).expect("known entry");
        let digest = t.content.as_ref().expect("content present").digest();
        let outputs = {
            let Some(rep) = self.rep.as_mut() else { return };
            let Some(raft) = rep.rafts.get_mut(&0) else {
                return;
            };
            let cmd = GlobalCmd {
                entry: Some((id, digest)),
                stamps: Vec::new(),
            };
            match raft.propose(cmd) {
                Some((_, o)) => o,
                None => return,
            }
        };
        self.handle_raft_outputs(ctx, 0, outputs);
    }

    /// Flush pending stamps on instances we lead but have nothing to
    /// propose on (stamp-only commands).
    fn flush_stamps(&mut self, ctx: &mut Ctx<Msg>) {
        let instances: Vec<u32> = match self.rep.as_ref() {
            Some(rep) => rep
                .pending_stamps
                .iter()
                .filter(|(_, v)| !v.is_empty())
                .map(|(&k, _)| k)
                .collect(),
            None => return,
        };
        for inst in instances {
            let outputs = {
                let Some(rep) = self.rep.as_mut() else { return };
                let leads = rep.rafts.get(&inst).map(|r| r.is_leader()).unwrap_or(false);
                if !leads {
                    continue;
                }
                let stamps = rep.pending_stamps.remove(&inst).unwrap_or_default();
                if stamps.is_empty() {
                    continue;
                }
                let cmd = GlobalCmd {
                    entry: None,
                    stamps,
                };
                match rep.rafts.get_mut(&inst).and_then(|r| r.propose(cmd)) {
                    Some((_, o)) => o,
                    None => continue,
                }
            };
            self.handle_raft_outputs(ctx, inst, outputs);
        }
    }

    fn handle_raft_outputs(
        &mut self,
        ctx: &mut Ctx<Msg>,
        instance: u32,
        outputs: Vec<RaftOutput<GlobalCmd>>,
    ) {
        let mut feed: Vec<FeedEvent> = Vec::new();
        for out in outputs {
            match out {
                RaftOutput::Send { to, msg } => {
                    let cert_bytes = match &msg {
                        RaftMsg::AppendEntries { entries, .. } => {
                            let g = instance % self.params.ng() as u32;
                            entries.iter().filter(|e| e.data.entry.is_some()).count()
                                * self.params.cert_size(g)
                        }
                        _ => 0,
                    };
                    // The accept (AppendResp) implies an intra-group
                    // skip-prepare PBFT round (paper §II-A): model it as a
                    // LAN round-trip delay before the reply leaves.
                    let is_resp = matches!(msg, RaftMsg::AppendResp { .. });
                    let dst = self.params.leader_of(to);
                    let m = Msg::Raft {
                        instance,
                        rmsg: msg,
                        cert_bytes,
                    };
                    if is_resp {
                        ctx.send_after(600, dst, m);
                    } else {
                        ctx.send(dst, m);
                    }
                }
                RaftOutput::Committed { data, .. } => {
                    self.on_global_commit(ctx.now(), instance, data, &mut feed);
                }
                RaftOutput::BecameLeader(_) => {
                    self.on_became_instance_leader(ctx, instance);
                }
                RaftOutput::SteppedDown => {}
            }
        }
        if !feed.is_empty() {
            self.broadcast_feed(ctx, feed);
        }
    }

    /// A command committed in `instance`'s Raft log: translate to ordering
    /// feed events (identical at every group, since the log is identical).
    fn on_global_commit(
        &mut self,
        now: Time,
        instance: u32,
        cmd: GlobalCmd,
        feed: &mut Vec<FeedEvent>,
    ) {
        let ng = self.params.ng() as u32;
        if let Some((id, _digest)) = cmd.entry {
            self.span(now, telemetry::EventKind::GlobalCommit, id, instance as u64);
            feed.push(FeedEvent::Committed(id));
            let my_group = self.id.group;
            let overlap = self.params.overlap_vts;
            let mut own_stamp = None;
            if let Some(rep) = self.rep.as_mut() {
                let high = rep.committed_high.entry(id.gid).or_insert(0);
                *high = (*high).max(id.seq);
                rep.unexecuted.insert(id);
                let my_stream = ng + my_group;
                if id.gid == my_group {
                    // Our own entry committed: advance our clock (§V-B).
                    rep.clock = rep.clock.max(id.seq);
                    rep.committed_at.insert(id, now);
                } else if !overlap {
                    // Serial VTS assignment (Fig. 7a): stamp only after the
                    // entry achieves consensus, costing an extra round.
                    if rep.stamped.insert((my_group, id)) {
                        let ts = rep.clock;
                        rep.pending_stamps
                            .entry(my_stream)
                            .or_default()
                            .push((id, ts));
                        own_stamp = Some(ts);
                    }
                }
                // Takeover stamping (§V-C, crashed groups): if we lead
                // foreign stamp streams, stamp every committed entry on
                // their behalf with their frozen clocks — including our
                // own entries, which nobody else will stamp for them.
                let frozen: Vec<(u32, u64)> = rep
                    .frozen_clocks
                    .iter()
                    .filter(|(&g, _)| g != id.gid)
                    .map(|(&g, &clk)| (g, clk))
                    .collect();
                for (g, clk) in frozen {
                    if rep.stamped.insert((g, id)) {
                        rep.pending_stamps
                            .entry(ng + g)
                            .or_default()
                            .push((id, clk));
                    }
                }
            }
            if let Some(ts) = own_stamp {
                self.span(now, telemetry::EventKind::VtsAssigned, id, ts);
            }
        }
        // Stamp commands only travel on stamp streams; the stamping group
        // is the stream owner.
        let stamper = if instance >= ng {
            instance - ng
        } else {
            instance
        };
        for (target, ts) in cmd.stamps {
            feed.push(FeedEvent::Stamp {
                stamper,
                target,
                ts,
            });
        }
    }

    /// Representative learned entries were proposed (Raft append): assign
    /// our clock to them (overlapped VTS assignment, Fig. 7b).
    fn stamp_appended_entries(&mut self, now: Time, appended: Vec<EntryId>) {
        if !matches!(self.params.protocol, Protocol::MassBft) || !self.params.overlap_vts {
            return;
        }
        let my_group = self.id.group;
        let mut stamped: Vec<(EntryId, u64)> = Vec::new();
        {
            let Some(rep) = self.rep.as_mut() else { return };
            for id in appended {
                if id.gid == my_group || !rep.stamped.insert((my_group, id)) {
                    continue; // own entries implicit; dedup retransmissions
                }
                // Stamp with our clock, replicated via our stamp stream.
                // Frozen-clock stamps for taken-over instances are handled at
                // commit time (on_global_commit), which also covers our own
                // entries and entries appended before the takeover.
                let ts = rep.clock;
                let stream = self.params.ng() as u32 + my_group;
                rep.pending_stamps.entry(stream).or_default().push((id, ts));
                if telemetry::enabled() {
                    stamped.push((id, ts));
                }
            }
        }
        for (id, ts) in stamped {
            self.span(now, telemetry::EventKind::VtsAssigned, id, ts);
        }
    }

    /// Crash takeover (§V-C, Crashed Groups): on becoming leader of a
    /// foreign group's *stamp stream*, freeze that group's clock at its
    /// last committed seq and stamp all known-unexecuted entries on its
    /// behalf. (Taking over the entry instance keeps its commit index
    /// advancing but needs no extra action.)
    fn on_became_instance_leader(&mut self, ctx: &mut Ctx<Msg>, instance: u32) {
        let ng = self.params.ng() as u32;
        if instance < ng {
            // Entry-instance takeover: re-propose the crashed group's
            // certified entries we already rebuilt, so their commitment
            // (and hence ordering) keeps progressing.
            self.propose_foreign_ready(ctx, instance);
            return;
        }
        let owner = instance - ng;
        if owner == self.id.group {
            return;
        }
        let Some(rep) = self.rep.as_mut() else { return };
        let frozen = rep.committed_high.get(&owner).copied().unwrap_or(0);
        rep.frozen_clocks.insert(owner, frozen);
        let targets: Vec<EntryId> = rep
            .unexecuted
            .iter()
            .copied()
            .filter(|e| e.gid != owner)
            .collect();
        for id in targets {
            if rep.stamped.insert((owner, id)) {
                rep.pending_stamps
                    .entry(instance)
                    .or_default()
                    .push((id, frozen));
            }
        }
    }

    fn broadcast_feed(&mut self, ctx: &mut Ctx<Msg>, events: Vec<FeedEvent>) {
        // Apply locally first, then LAN-broadcast to the group.
        let peers = self.other_group_members();
        ctx.send_many(
            peers,
            Msg::Feed {
                events: events.clone(),
            },
        );
        // Orphan feed (§V-C): having taken over a crashed group's stamp
        // stream, we are the closest thing that group's survivors have to
        // a representative — feed them commit events, or their acting
        // representative never drains its pipeline window and the group
        // stops proposing. Commits only: applying a commit is monotone
        // (it merely unlocks emission), but stamps are only sound when
        // delivered in stream-log order, which the group's own replay
        // guarantees and a skip-ahead feed would violate — the jumped
        // inference bounds would let survivors order entries differently
        // and fork the execution log.
        if let Some(rep) = self.rep.as_ref() {
            let orphans: Vec<u32> = rep
                .frozen_clocks
                .keys()
                .copied()
                .filter(|&g| g != self.id.group)
                .collect();
            if !orphans.is_empty() {
                let commits: Vec<FeedEvent> = events
                    .iter()
                    .filter(|e| matches!(e, FeedEvent::Committed(_)))
                    .cloned()
                    .collect();
                if !commits.is_empty() {
                    let mut orphan_peers = Vec::new();
                    for g in orphans {
                        orphan_peers.extend(self.group_nodes(g));
                    }
                    ctx.send_many(orphan_peers, Msg::Feed { events: commits });
                }
            }
        }
        self.apply_feed(ctx, events);
    }

    fn apply_feed(&mut self, ctx: &mut Ctx<Msg>, events: Vec<FeedEvent>) {
        for ev in events {
            match ev {
                FeedEvent::Committed(id) => self.mark_committed(id),
                FeedEvent::Stamp {
                    stamper,
                    target,
                    ts,
                } => {
                    if let OrderingState::Vts(eng) = &mut self.ordering {
                        eng.on_timestamp(stamper, target, ts);
                    }
                }
            }
        }
        self.drain_ordering(ctx.now());
        self.try_execute(ctx);
    }

    fn mark_committed(&mut self, id: EntryId) {
        let t = self.tracking.entry(id).or_default();
        if t.committed {
            return;
        }
        t.committed = true;
        self.held_appends.note_safe(id);
        // An acting representative drains its pipeline window on commit:
        // it cannot count on ever executing (stamps fed out while the
        // group had no representative are unrecoverable), and the window
        // must not wedge the whole group's proposal stream.
        if let Some(rep) = self.rep.as_mut() {
            if rep.acting && id.gid == self.id.group {
                rep.in_flight.remove(&id);
            }
        }
        match &mut self.ordering {
            OrderingState::Vts(eng) => eng.on_entry_committed(id),
            OrderingState::Round(_) => {} // fed when content also present
            OrderingState::Log(q) => q.push_back(id),
        }
        self.feed_round_if_complete(id);
    }

    /// Round ordering needs both the commit and the content.
    fn feed_round_if_complete(&mut self, id: EntryId) {
        let OrderingState::Round(r) = &mut self.ordering else {
            return;
        };
        let Some(t) = self.tracking.get_mut(&id) else {
            return;
        };
        if t.committed && t.content.is_some() && !t.fed_to_round {
            t.fed_to_round = true;
            r.on_entry(id);
        }
    }

    fn drain_ordering(&mut self, now: Time) {
        loop {
            let next = match &mut self.ordering {
                OrderingState::Vts(eng) => eng.pop_ready(),
                OrderingState::Round(r) => r.pop_ready(),
                OrderingState::Log(q) => q.pop_front(),
            };
            let Some(id) = next else { break };
            if id.gid == self.id.group {
                let mut first = false;
                if let Some(rep) = self.rep.as_mut() {
                    first = !rep.ordered_at.contains_key(&id);
                    rep.ordered_at.entry(id).or_insert(now);
                }
                if first {
                    self.span(now, telemetry::EventKind::Ordered, id, 0);
                }
            }
            self.exec_queue.push_back(id);
        }
    }

    // --- execution ----------------------------------------------------------

    /// Drains every execution-ready entry off the queue front in one
    /// pass (pop-and-take, no rescans) and hands the whole run to the
    /// pipeline in a single batched call. The drain stops at the first
    /// entry whose content hasn't arrived — order must be preserved.
    fn try_execute(&mut self, ctx: &mut Ctx<Msg>) {
        let mut ready: Vec<EntryRecord> = Vec::new();
        while let Some(&id) = self.exec_queue.front() {
            let runnable = self
                .tracking
                .get(&id)
                .is_some_and(|t| t.content.is_some() && !t.executed);
            if !runnable {
                // Already-executed duplicates are dropped; missing content
                // stalls the queue (order must be preserved).
                if self.tracking.get(&id).is_some_and(|t| t.executed) {
                    self.exec_queue.pop_front();
                    continue;
                }
                break;
            }
            self.exec_queue.pop_front();
            let rec = self
                .tracking
                .get_mut(&id)
                .and_then(|t| t.content.take())
                .expect("checked above");
            ready.push(rec);
        }
        if !ready.is_empty() {
            self.execute_ready(ctx, ready);
        }
    }

    /// Executes a drained run of entries: one pipeline call for the
    /// whole run (decoded up front), then per-entry ledger/latency/
    /// archive bookkeeping. Replication-state cleanup that used to
    /// rescan per entry (`stamped.retain`) now does a single pass over
    /// the whole executed set.
    fn execute_ready(&mut self, ctx: &mut Ctx<Msg>, ready: Vec<EntryRecord>) {
        let mut prepared: Vec<PreparedEntry> = Vec::with_capacity(ready.len());
        let mut contents: Vec<EntryRecord> = Vec::with_capacity(ready.len());
        for rec in ready {
            // The one decode of the batch: requests are parsed straight
            // out of the entry's buffer.
            let Some((id, requests)) = decode_batch(rec.bytes()) else {
                continue;
            };
            debug_assert_eq!(id, rec.id());
            let txns: Vec<Request> = requests
                .iter()
                .filter_map(|r| Request::decode(r).ok())
                .collect();
            prepared.push(PreparedEntry { id, txns });
            contents.push(rec);
        }
        if prepared.is_empty() {
            return;
        }
        let results = self.pipeline.execute_entries(prepared);

        // Replication-state cleanup, one pass for the whole run.
        if let Some(rep) = self.rep.as_mut() {
            for rec in &contents {
                rep.unexecuted.remove(&rec.id());
                rep.accept_tally.remove(&rec.id());
            }
            if contents.len() == 1 {
                let id = contents[0].id();
                rep.stamped.retain(|&(_, e)| e != id);
            } else {
                let executed: BTreeSet<EntryId> = contents.iter().map(|rec| rec.id()).collect();
                rep.stamped.retain(|&(_, e)| !executed.contains(&e));
            }
        }

        for (result, rec) in results.into_iter().zip(contents) {
            self.record_executed(ctx, rec, result);
        }
    }

    /// Per-entry bookkeeping after the pipeline has run an entry's batch.
    fn record_executed(
        &mut self,
        ctx: &mut Ctx<Msg>,
        rec: EntryRecord,
        result: crate::exec::EntryResult,
    ) {
        let id = rec.id();
        ctx.spend_cpu(result.executed as Time * self.params.exec_us);
        self.executed_txns += result.committed as u64;
        self.executed_entries += 1;
        executed_txns_counter().add(result.committed as u64);
        self.executed_by_group[id.gid as usize] += result.committed as u64;
        self.ledger
            .append(id, rec.digest(), result.state_fingerprint);
        self.span(
            ctx.now(),
            telemetry::EventKind::Executed,
            id,
            result.committed as u64,
        );

        let my_group = self.id.group;
        let mut latency_sample = None;
        let mut phases = None;
        if let Some(rep) = self.rep.as_mut() {
            if id.gid == my_group {
                rep.in_flight.remove(&id);
                let created = rep.created_at.remove(&id);
                let certified = rep.certified_at.remove(&id);
                let committed = rep.committed_at.remove(&id);
                let ordered = rep.ordered_at.remove(&id);
                if let Some(created) = created {
                    latency_sample = Some(ctx.now().saturating_sub(created));
                }
                if let (Some(cr), Some(ce)) = (created, certified) {
                    let co = committed.unwrap_or(ce);
                    let or = ordered.unwrap_or(co).max(co);
                    phases = Some([
                        ce.saturating_sub(cr),
                        co.saturating_sub(ce),
                        or.saturating_sub(co),
                        ctx.now().saturating_sub(or),
                    ]);
                }
            }
        }
        if let Some(l) = latency_sample {
            self.latency.record(l);
            commit_latency_histogram().record(l);
        }
        if let Some(p) = phases {
            for (acc, v) in self.phase_sums.iter_mut().zip(p) {
                *acc += v;
            }
            self.phase_count += 1;
        }
        // GC replication state; keep a small executed marker so late
        // chunks/copies don't resurrect the entry.
        if let Some(asm) = self.assemblers.get_mut(&id.gid) {
            asm.gc(id);
        }
        let cert = {
            let t = self.tracking.entry(id).or_default();
            let cert = t.cert.take();
            t.content = None;
            t.committed = true;
            t.fed_to_round = true;
            t.executed = true;
            cert
        };
        // Keep recent entries for pull-based repair (Lemma V.1): a node
        // that committed an entry it cannot rebuild (origin crashed
        // mid-replication) fetches it from a peer that executed it.
        if let Some(cert) = cert {
            const ARCHIVE_DEPTH: usize = 2048;
            self.archive.insert(id, (rec.bytes().clone(), cert));
            self.archive_order.push_back(id);
            while self.archive_order.len() > ARCHIVE_DEPTH {
                if let Some(old) = self.archive_order.pop_front() {
                    self.archive.remove(&old);
                }
            }
        }
    }

    // --- message handlers -----------------------------------------------------

    fn on_chunk(&mut self, ctx: &mut Ctx<Msg>, from: NodeId, chunk: ChunkMsg, cert: QuorumCert) {
        let origin_entry = chunk.entry;
        let origin = chunk.entry.gid;
        if origin == self.id.group {
            return; // we hold our own entries
        }
        if self
            .tracking
            .get(&chunk.entry)
            .is_some_and(|t| t.content.is_some() || t.executed)
        {
            return; // already have it / executed
        }
        let from_wan = from.group == origin;
        // Byzantine receivers suppress honest re-shares (§VI-E); the
        // tampered chunks they would inject already come from Byzantine
        // senders' encodings.
        let byzantine = self.is_byzantine(ctx.now());
        let outcome = {
            let Some(asm) = self.assemblers.get_mut(&origin) else {
                return;
            };
            asm.on_chunk(chunk.clone(), &cert)
        };
        match outcome {
            ChunkOutcome::Accepted => {
                if from_wan && !byzantine {
                    // LAN re-share so every member can rebuild (§IV-B).
                    let peers = self.other_group_members();
                    ctx.send_many(peers, Msg::Chunk { chunk, cert });
                }
            }
            ChunkOutcome::Rebuilt(rec) => {
                if from_wan && !byzantine {
                    let peers = self.other_group_members();
                    ctx.send_many(
                        peers,
                        Msg::Chunk {
                            chunk,
                            cert: cert.clone(),
                        },
                    );
                }
                self.tracking.entry(origin_entry).or_default().cert = Some(cert);
                let len = rec.bytes().len() as u64;
                self.span(
                    ctx.now(),
                    telemetry::EventKind::WanTransferDone,
                    origin_entry,
                    len,
                );
                self.span(
                    ctx.now(),
                    telemetry::EventKind::ChunkRebuilt,
                    origin_entry,
                    len,
                );
                self.on_entry_content(ctx, rec);
            }
            ChunkOutcome::Rejected(_) => {}
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
        if id.gid == self.id.group {
            return; // own-group entries arrive via local PBFT
        }
        let t = self.tracking.get(&id);
        if t.is_some_and(|t| t.content.is_some() || t.executed) {
            return; // a duplicate is dropped before it is hashed
        }
        let Some(rec) = EntryRecord::hash(bytes).filter(|rec| rec.id() == id) else {
            return; // not the entry it claims to be
        };
        if cert.validate_for(&rec.digest(), &self.registry).is_err() {
            return; // tampered copy
        }
        // Steward master: a forwarded entry from another group's leader.
        if self.params.protocol.single_master()
            && self.id == self.params.leader_of(0)
            && from == self.params.leader_of(id.gid)
        {
            self.send_leader_copies(ctx, id, rec.bytes(), &cert);
            // The master's own group also needs the content.
            let peers = self.other_group_members();
            ctx.send_many(
                peers,
                Msg::Entry {
                    id,
                    bytes: rec.bytes().clone(),
                    cert,
                },
            );
            self.hold_content(rec);
            self.steward_propose(ctx, id);
            self.try_execute(ctx);
            return;
        }
        let t = self.tracking.entry(id).or_default();
        t.cert.get_or_insert_with(|| cert.clone());
        // First receipt from WAN: forward over LAN to the whole group.
        if from.group != self.id.group {
            self.span(
                ctx.now(),
                telemetry::EventKind::WanTransferDone,
                id,
                rec.bytes().len() as u64,
            );
            let peers = self.other_group_members();
            ctx.send_many(
                peers,
                Msg::Entry {
                    id,
                    bytes: rec.bytes().clone(),
                    cert,
                },
            );
        }
        self.on_entry_content(ctx, rec);
    }

    /// Stores a validated entry in `tracking` — the single place content
    /// enters it — and counts the entry off the appends held for it.
    fn hold_content(&mut self, rec: EntryRecord) {
        let id = rec.id();
        let t = self.tracking.entry(id).or_default();
        if t.content.is_none() && !t.executed {
            t.content = Some(rec);
        }
        self.held_appends.note_safe(id);
    }

    /// Entry content became available (rebuilt or copied).
    fn on_entry_content(&mut self, ctx: &mut Ctx<Msg>, rec: EntryRecord) {
        let id = rec.id();
        self.hold_content(rec);
        // Replay Raft appends that were held awaiting this content.
        self.replay_held_appends(ctx);
        // If we lead this group's entry instance (crash takeover), the
        // freshly rebuilt entry may be waiting on us to propose it.
        if id.gid != self.id.group {
            self.propose_foreign_ready(ctx, id.gid);
        }
        if !self.params.protocol.uses_raft() {
            // GeoBFT: content arrival is commitment.
            self.mark_committed(id);
        }
        self.feed_round_if_complete(id);
        self.drain_ordering(ctx.now());
        self.try_execute(ctx);
    }

    fn on_raft_msg(
        &mut self,
        ctx: &mut Ctx<Msg>,
        from: NodeId,
        instance: u32,
        rmsg: RaftMsg<GlobalCmd>,
    ) {
        if !self.is_rep() {
            return;
        }
        // Track appended entries to stamp (overlapped VTS) and monitor
        // liveness of the instance leader.
        let appended: Vec<EntryId> = match &rmsg {
            RaftMsg::AppendEntries { entries, .. } => entries
                .iter()
                .filter_map(|e| e.data.entry.map(|(id, _)| id))
                .collect(),
            _ => Vec::new(),
        };
        if matches!(rmsg, RaftMsg::AppendEntries { .. }) {
            if let Some(rep) = self.rep.as_mut() {
                rep.last_append.insert(instance, ctx.now());
            }
            // Accept gating (Lemma V.1): a group must not accept an entry
            // that is not safely replicated. "Safely" means either we hold
            // the content, or `f_g + 1` groups provably do (the §V-C
            // direct-accept tally plus pull repair make the entry
            // recoverable) — otherwise a commit could reference an entry
            // nobody can supply after the origin crashes. Held appends
            // replay when content or the tally arrives; holding the whole
            // append (not just the accept) also keeps stamps from
            // committing ahead of an unsafe entry in the same log.
            let blockers: Vec<EntryId> = (appended.iter().copied())
                .filter(|id| !self.entry_safely_replicated(*id))
                .collect();
            if !blockers.is_empty() {
                self.held_appends.hold(instance, blockers, (from, rmsg));
                return;
            }
        }
        let outputs = {
            let Some(rep) = self.rep.as_mut() else { return };
            let Some(raft) = rep.rafts.get_mut(&instance) else {
                return;
            };
            raft.step(from.group, rmsg)
        };
        // Direct accept broadcast (§V-C): we hold these entries (the
        // gating above guarantees it), so tell every representative —
        // slow groups use the tally to stamp and order without waiting
        // for their own copies.
        if matches!(self.params.protocol, Protocol::MassBft) && !appended.is_empty() {
            let notice = Msg::AcceptNotice {
                from_group: self.id.group,
                entries: appended.clone(),
            };
            let reps: Vec<NodeId> = (0..self.ng() as u32)
                .filter(|&g| g != self.id.group)
                .map(|g| self.params.leader_of(g))
                .collect();
            ctx.send_many(reps, notice);
            // Count our own acceptance locally too.
            self.on_accept_notice(ctx, self.id.group, appended.clone());
        }
        self.stamp_appended_entries(ctx.now(), appended);
        self.handle_raft_outputs(ctx, instance, outputs);
    }

    /// Whether `id` is locally held, executed, or known held by a
    /// majority of groups (committed implies a majority accepted under
    /// the gating rule).
    fn entry_safely_replicated(&self, id: EntryId) -> bool {
        if id.gid == self.id.group {
            return true; // own entries arrive via local PBFT
        }
        self.tracking
            .get(&id)
            .is_some_and(|t| t.content.is_some() || t.executed || t.committed)
    }

    /// Tallies a direct accept notice; at `f_g + 1` holders (counting the
    /// proposer implicitly) the entry is provably replicated: stamp it
    /// with our clock and mark it committed, without waiting for our own
    /// copy (§V-C, slow receiver groups).
    fn on_accept_notice(&mut self, ctx: &mut Ctx<Msg>, from_group: u32, entries: Vec<EntryId>) {
        if !self.is_rep() || !matches!(self.params.protocol, Protocol::MassBft) {
            return;
        }
        let ng = self.ng();
        let quorum = ng / 2 + 1; // f_g + 1 with n_g >= 2 f_g + 1
        let my_group = self.id.group;
        let mut replicated: Vec<EntryId> = Vec::new();
        {
            let Some(rep) = self.rep.as_mut() else { return };
            for id in entries {
                let tally = rep.accept_tally.entry(id).or_default();
                tally.insert(from_group);
                tally.insert(id.gid); // the proposer holds its own entry
                if tally.len() >= quorum {
                    replicated.push(id);
                }
            }
        }
        let mut feed = Vec::new();
        for id in replicated {
            // Stamp without content (the §V-C fast path).
            let mut fast_stamp = None;
            {
                let my_stream = ng as u32 + my_group;
                let Some(rep) = self.rep.as_mut() else { return };
                rep.accept_tally.remove(&id);
                if id.gid != my_group && rep.stamped.insert((my_group, id)) {
                    let ts = rep.clock;
                    rep.pending_stamps
                        .entry(my_stream)
                        .or_default()
                        .push((id, ts));
                    fast_stamp = Some(ts);
                }
            }
            if let Some(ts) = fast_stamp {
                self.span(ctx.now(), telemetry::EventKind::VtsAssigned, id, ts);
            }
            // Majority-accepted == committed under Raft's election
            // restriction; surface it to the ordering layer now.
            let newly = !self.tracking.get(&id).is_some_and(|t| t.committed);
            if newly {
                feed.push(FeedEvent::Committed(id));
                if let Some(rep) = self.rep.as_mut() {
                    let high = rep.committed_high.entry(id.gid).or_insert(0);
                    *high = (*high).max(id.seq);
                    rep.unexecuted.insert(id);
                }
            }
        }
        if !feed.is_empty() {
            self.broadcast_feed(ctx, feed);
        }
        // Newly safe entries may unblock held appends in any instance.
        self.replay_held_appends(ctx);
        self.flush_stamps(ctx);
    }

    /// Re-dispatches the held appends whose carried entries have all
    /// become safe, by instance and then arrival. The others are not
    /// looked at.
    fn replay_held_appends(&mut self, ctx: &mut Ctx<Msg>) {
        let mut pass = self.held_appends.begin_replay();
        while let Some((instance, (from, rmsg))) = self.held_appends.next_ready(&mut pass) {
            self.on_raft_msg(ctx, from, instance, rmsg);
        }
        self.held_appends.end_replay(pass);
    }

    /// Serves a repair request from our archive or live tracking state.
    fn on_entry_request(&mut self, ctx: &mut Ctx<Msg>, from: NodeId, id: EntryId) {
        let reply = self
            .archive
            .get(&id)
            .map(|(b, c)| (b.clone(), c.clone()))
            .or_else(|| {
                let t = self.tracking.get(&id)?;
                Some((t.content.as_ref()?.bytes().clone(), t.cert.clone()?))
            });
        if let Some((bytes, cert)) = reply {
            ctx.send(from, Msg::Entry { id, bytes, cert });
        }
    }

    /// Repair tick: if the execution queue has been stalled on the same
    /// missing entry across two ticks, pull it from peers (Lemma V.1).
    fn on_repair_timer(&mut self, ctx: &mut Ctx<Msg>) {
        let stalled = self.exec_queue.front().copied().filter(|id| {
            !self
                .tracking
                .get(id)
                .is_some_and(|t| t.content.is_some() || t.executed)
        });
        if let Some(id) = stalled {
            if self.last_stalled == Some(id) {
                // Ask our own representative first (LAN), then one node of
                // every other group (WAN) — whoever has it replies.
                let mut targets = vec![self.params.leader_of(self.id.group)];
                for g in 0..self.ng() as u32 {
                    if g != self.id.group {
                        targets.push(self.params.leader_of(g));
                    }
                }
                for t in targets {
                    if t != self.id {
                        ctx.send(t, Msg::EntryRequest { id });
                    }
                }
            }
        }
        self.last_stalled = stalled;
        ctx.set_timer(self.params.repair_interval_us, T_REPAIR);
    }

    fn on_epoch_close(&mut self, group: u32, epoch: u64) {
        let Some(rep) = self.rep.as_mut() else { return };
        rep.epoch_seals.entry(epoch).or_default().insert(group);
    }

    // --- timers ----------------------------------------------------------

    fn on_batch_timer(&mut self, ctx: &mut Ctx<Msg>) {
        self.try_batch(ctx);
        ctx.set_timer(self.params.batch_timeout_us, T_BATCH);
    }

    fn on_heartbeat_timer(&mut self, ctx: &mut Ctx<Msg>) {
        let instances: Vec<u32> = self
            .rep
            .as_ref()
            .map(|r| r.rafts.keys().copied().collect())
            .unwrap_or_default();
        for inst in instances {
            let outputs = {
                let Some(rep) = self.rep.as_mut() else { return };
                let Some(raft) = rep.rafts.get_mut(&inst) else {
                    continue;
                };
                // Bound log memory: applied entries live in the tracking/
                // archive layers, so the Raft log only needs a
                // retransmission margin (stragglers use entry repair).
                raft.compact_to_applied(256);
                if !raft.is_leader() {
                    continue;
                }
                raft.on_heartbeat_timeout()
            };
            self.handle_raft_outputs(ctx, inst, outputs);
        }
        self.flush_stamps(ctx);
        ctx.set_timer(self.params.heartbeat_us, T_HEARTBEAT);
    }

    fn on_election_timer(&mut self, ctx: &mut Ctx<Msg>) {
        let now = ctx.now();
        let timeout = self.params.election_timeout_us;
        // Stagger by group id so two survivors never cross the timeout
        // threshold within the same check period and split votes forever
        // (the stagger must exceed the check period, timeout/2).
        let my_stagger = (self.id.group as u64) * (self.params.election_timeout_us * 3 / 4);
        let instances: Vec<u32> = self
            .rep
            .as_ref()
            .map(|r| r.rafts.keys().copied().collect())
            .unwrap_or_default();
        for inst in instances {
            let should_elect = {
                let Some(rep) = self.rep.as_ref() else { return };
                let Some(raft) = rep.rafts.get(&inst) else {
                    continue;
                };
                let last = rep.last_append.get(&inst).copied().unwrap_or(0);
                !raft.is_leader() && now.saturating_sub(last) > timeout + my_stagger
            };
            if should_elect {
                let outputs = {
                    let Some(rep) = self.rep.as_mut() else { return };
                    let Some(raft) = rep.rafts.get_mut(&inst) else {
                        continue;
                    };
                    raft.on_election_timeout()
                };
                if let Some(rep) = self.rep.as_mut() {
                    rep.last_append.insert(inst, now);
                }
                self.handle_raft_outputs(ctx, inst, outputs);
            }
        }
        ctx.set_timer(self.params.election_timeout_us / 2, T_ELECTION);
    }

    fn on_stamp_flush_timer(&mut self, ctx: &mut Ctx<Msg>) {
        self.flush_stamps(ctx);
        ctx.set_timer(10 * MILLISECOND, T_STAMP_FLUSH);
    }

    /// Primary liveness beacon: lets backups distinguish "idle group"
    /// from "dead or mute primary". Routed through `handle_pbft_outputs`
    /// so a silenced primary's heartbeats are suppressed like everything
    /// else — exactly the failure the stall detector must catch.
    fn on_pbft_heartbeat_timer(&mut self, ctx: &mut Ctx<Msg>) {
        if let Some(hb) = self.pbft.heartbeat() {
            self.handle_pbft_outputs(ctx, vec![PbftOutput::Broadcast(hb)]);
        }
        ctx.set_timer(self.params.view_timeout_us / 4, T_PBFT_HB);
    }

    /// View-change stall detector. A backup that has seen no PBFT
    /// progress — no commit, no view entry, no idle heartbeat from the
    /// current primary — for a full (backed-off) view timeout votes to
    /// evict the primary. The primary itself is exempt: it cannot vote
    /// itself out, and a lone faulty backup cannot force a view change
    /// (`f + 1` view-change votes are required to join).
    fn on_view_timer(&mut self, ctx: &mut Ctx<Msg>) {
        let now = ctx.now();
        if !self.pbft.is_primary()
            && now.saturating_sub(self.last_pbft_progress) > self.view_timeout_cur
        {
            let marker = EntryId::new(self.id.group, 0);
            let view = self.pbft.view();
            self.span(now, telemetry::EventKind::ViewStallDetected, marker, view);
            self.span(now, telemetry::EventKind::ViewChangeStarted, marker, view);
            let outputs = self.pbft.on_view_timeout();
            self.handle_pbft_outputs(ctx, outputs);
            // Exponential backoff (capped): overlapping faults may need
            // several escalations before landing on a live primary, and
            // each must leave room for the previous round to complete.
            self.view_timeout_cur =
                (self.view_timeout_cur * 2).min(self.params.view_timeout_max_us);
            self.last_pbft_progress = now;
        }
        ctx.set_timer(self.view_timeout_cur / 2, T_VIEW);
    }

    fn on_epoch_timer(&mut self, ctx: &mut Ctx<Msg>) {
        if matches!(self.params.protocol, Protocol::Iss) {
            let sealed_epoch = ctx.now() / self.params.epoch_us;
            if sealed_epoch > 0 {
                let msg = Msg::EpochClose {
                    group: self.id.group,
                    epoch: sealed_epoch - 1,
                };
                let leaders: Vec<NodeId> = (0..self.ng() as u32)
                    .filter(|&g| g != self.id.group)
                    .map(|g| self.params.leader_of(g))
                    .collect();
                ctx.send_many(leaders, msg);
                self.on_epoch_close(self.id.group, sealed_epoch - 1);
            }
        }
        ctx.set_timer(self.params.epoch_us, T_EPOCH);
    }
}

impl Actor for Node {
    type Msg = Msg;

    fn on_start(&mut self, ctx: &mut Ctx<Msg>) {
        ctx.set_timer(self.params.repair_interval_us, T_REPAIR);
        // Every node of a multi-node group runs the view-change driver;
        // the primary additionally beacons liveness heartbeats.
        if self.params.group_sizes[self.id.group as usize] > 1 {
            ctx.set_timer(self.view_timeout_cur / 2, T_VIEW);
            ctx.set_timer(self.params.view_timeout_us / 4, T_PBFT_HB);
        }
        if self.is_rep() {
            // Stagger the first batch slightly per group to avoid
            // artificial phase-lock between groups.
            let stagger = (self.id.group as u64) * 777;
            ctx.set_timer(self.params.batch_timeout_us + stagger, T_BATCH);
            if self.params.protocol.uses_raft() {
                ctx.set_timer(self.params.heartbeat_us, T_HEARTBEAT);
                ctx.set_timer(self.params.election_timeout_us, T_ELECTION);
                if matches!(self.params.protocol, Protocol::MassBft) {
                    ctx.set_timer(10 * MILLISECOND, T_STAMP_FLUSH);
                }
            }
            if matches!(self.params.protocol, Protocol::Iss) {
                ctx.set_timer(self.params.epoch_us, T_EPOCH);
            }
        }
    }

    fn on_message(&mut self, ctx: &mut Ctx<Msg>, from: NodeId, msg: Msg) {
        match msg {
            Msg::Pbft(m) => {
                // Learn the seq → entry mapping from incoming pre-prepares
                // so this replica's own prepare/commit broadcasts can be
                // attributed (see note_pbft_phase), and track the group's
                // sequence high-water mark for acting-rep continuation.
                if let PbftMsg::PrePrepare { seq, payload, .. } = &m {
                    if let Some(id) = peek_entry_id(payload) {
                        if telemetry::enabled() {
                            self.pbft_entry_of_seq.insert(*seq, id);
                        }
                        if id.gid == self.id.group {
                            self.own_seq_high = self.own_seq_high.max(id.seq);
                        }
                    }
                }
                // An idle heartbeat from the current view's primary counts
                // as progress — but only while nothing is pending. A
                // primary that heartbeats while its proposals cannot
                // commit (equivocation) must still be evicted.
                if let PbftMsg::Heartbeat { view } = &m {
                    if *view == self.pbft.view()
                        && from.node == self.pbft.primary()
                        && !self.pbft.has_pending()
                    {
                        self.last_pbft_progress = ctx.now();
                    }
                }
                let outputs = self.pbft.on_message(from.node, m);
                self.handle_pbft_outputs(ctx, outputs);
            }
            Msg::Chunk { chunk, cert } => self.on_chunk(ctx, from, chunk, cert),
            Msg::Entry { id, bytes, cert } => self.on_entry_copy(ctx, from, id, bytes, cert),
            Msg::Raft { instance, rmsg, .. } => self.on_raft_msg(ctx, from, instance, rmsg),
            Msg::Feed { events } => self.apply_feed(ctx, events),
            Msg::EntryRequest { id } => self.on_entry_request(ctx, from, id),
            Msg::AcceptNotice {
                from_group,
                entries,
            } => self.on_accept_notice(ctx, from_group, entries),
            Msg::EpochClose { group, epoch } => self.on_epoch_close(group, epoch),
        }
    }

    fn on_timer(&mut self, ctx: &mut Ctx<Msg>, token: u64) {
        match token {
            T_BATCH => self.on_batch_timer(ctx),
            T_HEARTBEAT => self.on_heartbeat_timer(ctx),
            T_ELECTION => self.on_election_timer(ctx),
            T_STAMP_FLUSH => self.on_stamp_flush_timer(ctx),
            T_EPOCH => self.on_epoch_timer(ctx),
            T_REPAIR => self.on_repair_timer(ctx),
            T_VIEW => self.on_view_timer(ctx),
            T_PBFT_HB => self.on_pbft_heartbeat_timer(ctx),
            _ => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::entry::entry_digest;

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
        assert_eq!(p.batch_timeout_us, 20 * MILLISECOND); // §VI: fixed 20 ms
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

    #[test]
    fn node_construction_shapes() {
        let params = ProtocolParams::new(Protocol::MassBft, &[4, 7]);
        let registry = KeyRegistry::generate(params.seed, &params.group_sizes);
        let rep = Node::new(NodeId::new(0, 0), params.clone(), registry.clone());
        assert!(rep.is_rep());
        assert_eq!(rep.executed_txns(), 0);
        assert_eq!(rep.ledger().height(), 0);
        // Chunk assembler exists exactly for the other group.
        assert_eq!(rep.assemblers.len(), 1);
        assert!(rep.assemblers.contains_key(&1));

        let follower = Node::new(NodeId::new(1, 3), params, registry);
        assert!(!follower.is_rep());
        assert_eq!(follower.assemblers.len(), 1);
        assert!(follower.assemblers.contains_key(&0));
    }

    #[test]
    fn byzantine_flag_respects_activation_time() {
        let mut params = ProtocolParams::new(Protocol::MassBft, &[4]);
        params
            .adversaries
            .push(AdversarySpec::new(NodeId::new(0, 3), Strategy::TamperChunks).from_us(1000));
        let registry = KeyRegistry::generate(params.seed, &params.group_sizes);
        let node = Node::new(NodeId::new(0, 3), params.clone(), registry.clone());
        assert!(!node.is_byzantine(999));
        assert!(node.is_byzantine(1000));
        let honest = Node::new(NodeId::new(0, 1), params, registry);
        assert!(!honest.is_byzantine(5000));
    }

    #[test]
    fn strategy_predicates_are_per_strategy() {
        let mut params = ProtocolParams::new(Protocol::MassBft, &[4]);
        params
            .adversaries
            .push(AdversarySpec::new(NodeId::new(0, 0), Strategy::SilentPrimary).until_us(500));
        params
            .adversaries
            .push(AdversarySpec::new(NodeId::new(0, 0), Strategy::WithholdChunks).from_us(500));
        let registry = KeyRegistry::generate(params.seed, &params.group_sizes);
        let node = Node::new(NodeId::new(0, 0), params, registry);
        assert!(node.silenced(0));
        assert!(!node.silenced(500));
        assert!(!node.withholds_shares(499));
        assert!(node.withholds_shares(500));
        assert!(!node.is_byzantine(0));
    }

    #[test]
    fn view_timeout_defaults_and_backoff_cap() {
        let p = ProtocolParams::new(Protocol::MassBft, &[4]);
        assert_eq!(p.view_timeout_us, 500 * MILLISECOND);
        assert_eq!(p.view_timeout_max_us, 2000 * MILLISECOND);
        assert_eq!(p.repair_interval_us, 500 * MILLISECOND);
        let registry = KeyRegistry::generate(p.seed, &p.group_sizes);
        let node = Node::new(NodeId::new(0, 1), p, registry);
        assert_eq!(node.view_timeout_cur, node.params.view_timeout_us);
        assert_eq!(node.pbft_view(), 0);
    }
}
