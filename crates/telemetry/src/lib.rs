//! Unified telemetry for the MassBFT workspace.
//!
//! Three pieces, one crate (ISSUE 4; DESIGN.md §6):
//!
//! - **Entry-lifecycle spans** ([`emit`], [`Event`], [`EventKind`]): every
//!   entry gets timestamped events at each phase boundary (submitted →
//!   PBFT pre-prepare/prepare/commit → encoded → WAN transfer → chunk
//!   rebuild → global Raft commit → VTS assigned → ordered → executed),
//!   recorded into a process-wide lock-free bounded [`ring::Ring`]. The
//!   hot path pays one relaxed atomic increment plus a handful of relaxed
//!   slot stores when enabled, and a single relaxed load + branch when
//!   disabled (the default). The `off` cargo feature compiles every probe
//!   to nothing.
//! - A **metrics registry** ([`registry`]): named counters, gauges, and
//!   log-bucketed histograms with p50/p95/p99 queries. The legacy stat
//!   surfaces (`massbft-core::stats`, `massbft-db::stats`,
//!   `massbft-sim-net::Metrics`) are thin facades over this registry.
//! - **Exporters** ([`export`], [`stitch`]): JSONL event logs, the
//!   per-phase latency-breakdown table the `trace` bench binary prints
//!   (paper Fig. 11), and the stitcher that merges per-node streams by
//!   entry, pairs the drivers' send and deliver records into cross-node
//!   hops and writes Chrome `trace_event` JSON loadable in Perfetto /
//!   `about://tracing` — one track per node, one async span per entry,
//!   one flow arrow per hop.
//!
//! # Quickstart
//!
//! ```
//! use massbft_telemetry as telemetry;
//!
//! telemetry::set_enabled(true);
//! telemetry::emit(telemetry::Event {
//!     at: 42,
//!     kind: telemetry::EventKind::Submitted,
//!     node: (0, 0),
//!     entry: (0, 1),
//!     value: 0,
//! });
//! let drained = telemetry::drain();
//! telemetry::set_enabled(false);
//! assert!(drained.events.iter().any(|e| e.at == 42));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod export;
pub mod json;
pub mod prom;
pub mod registry;
pub mod ring;
pub mod stitch;

use ring::Ring;
use std::sync::atomic::{AtomicU8, Ordering::Relaxed};
use std::sync::OnceLock;

/// Virtual time in microseconds (mirrors `massbft_sim_net::Time` without
/// the dependency — telemetry sits below every other workspace crate).
pub type Time = u64;

/// How much the probes record.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
#[repr(u8)]
pub enum Verbosity {
    /// Nothing is recorded (the default); probes cost one relaxed load.
    Quiet = 0,
    /// Entry-lifecycle span events and registry metrics.
    Spans = 1,
    /// Spans plus a hop event for every message, not only those on an
    /// entry's data path, and timer fires — the machine-parseable
    /// replacement for println spelunking, in either driver.
    Debug = 2,
}

/// One phase boundary (or debug occurrence) in an entry's life.
///
/// The first block mirrors the paper's latency decomposition (Fig. 11).
/// The four hop kinds (`NetWanSend`, `NetLanSend`, `NetDeliver`,
/// `NetDrop`) are recorded by both drivers at the routing seam
/// (`massbft_sim_net::fault`): at [`Verbosity::Spans`] for messages on
/// an entry's data path, whose `entry` names it, and at
/// [`Verbosity::Debug`] for every message. Their `value` is the peer and
/// the modelled wire size ([`pack_hop_value`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
#[repr(u8)]
pub enum EventKind {
    /// Entry batched and proposed at its origin representative.
    Submitted = 0,
    /// Local PBFT pre-prepare observed for the entry.
    PbftPrePrepare = 1,
    /// Local PBFT prepare phase observed.
    PbftPrepare = 2,
    /// Local PBFT commit phase observed.
    PbftCommit = 3,
    /// Local PBFT certificate assembled (local consensus done).
    Certified = 4,
    /// Entry erasure-encoded into chunks at the origin.
    Encoded = 5,
    /// WAN transfer of the entry started at the origin node.
    WanTransferStart = 6,
    /// Entry content fully received over WAN at this node.
    WanTransferDone = 7,
    /// Entry rebuilt from erasure-coded chunks at this node.
    ChunkRebuilt = 8,
    /// Entry committed by global consensus (Raft / accept quorum).
    GlobalCommit = 9,
    /// This representative assigned its vector-timestamp to the entry.
    VtsAssigned = 10,
    /// Deterministic global order decided for the entry at this node.
    Ordered = 11,
    /// Entry executed by the Aria pipeline at this node.
    Executed = 12,
    /// A message left this node for the peer over a WAN link.
    NetWanSend = 13,
    /// A message left this node for the peer over a LAN link.
    NetLanSend = 14,
    /// A message from the peer was handed to this node's handler.
    NetDeliver = 15,
    /// A message to or from the peer was dropped here (crashed
    /// destination or an injected link fault).
    NetDrop = 16,
    /// Debug: timer fired.
    NetTimer = 17,
    /// View-change driver: local-consensus progress stall detected at a
    /// replica (`value` = the stalled view).
    ViewStallDetected = 18,
    /// View-change driver: replica broadcast its `ViewChange` vote
    /// (`value` = the view being campaigned for).
    ViewChangeStarted = 19,
    /// View-change driver: replica adopted a new view via `NewView`
    /// (`value` = the adopted view).
    NewViewAdopted = 20,
}

impl EventKind {
    /// Every lifecycle kind, in pipeline order (no `Net*` debug kinds).
    pub const LIFECYCLE: [EventKind; 13] = [
        EventKind::Submitted,
        EventKind::PbftPrePrepare,
        EventKind::PbftPrepare,
        EventKind::PbftCommit,
        EventKind::Certified,
        EventKind::Encoded,
        EventKind::WanTransferStart,
        EventKind::WanTransferDone,
        EventKind::ChunkRebuilt,
        EventKind::GlobalCommit,
        EventKind::VtsAssigned,
        EventKind::Ordered,
        EventKind::Executed,
    ];

    /// Stable machine name (used by the JSONL exporter).
    pub fn name(&self) -> &'static str {
        match self {
            EventKind::Submitted => "submitted",
            EventKind::PbftPrePrepare => "pbft_pre_prepare",
            EventKind::PbftPrepare => "pbft_prepare",
            EventKind::PbftCommit => "pbft_commit",
            EventKind::Certified => "certified",
            EventKind::Encoded => "encoded",
            EventKind::WanTransferStart => "wan_transfer_start",
            EventKind::WanTransferDone => "wan_transfer_done",
            EventKind::ChunkRebuilt => "chunk_rebuilt",
            EventKind::GlobalCommit => "global_commit",
            EventKind::VtsAssigned => "vts_assigned",
            EventKind::Ordered => "ordered",
            EventKind::Executed => "executed",
            EventKind::NetWanSend => "net_wan_send",
            EventKind::NetLanSend => "net_lan_send",
            EventKind::NetDeliver => "net_deliver",
            EventKind::NetDrop => "net_drop",
            EventKind::NetTimer => "net_timer",
            EventKind::ViewStallDetected => "view_stall_detected",
            EventKind::ViewChangeStarted => "view_change_started",
            EventKind::NewViewAdopted => "new_view_adopted",
        }
    }

    /// Whether this is a view-change lifecycle kind (instant events on
    /// the node's track, not tied to an entry).
    pub fn is_view_event(&self) -> bool {
        matches!(
            self,
            EventKind::ViewStallDetected | EventKind::ViewChangeStarted | EventKind::NewViewAdopted
        )
    }

    /// Whether this is a hop kind: a message seen leaving, arriving or
    /// dropped at a node, with the peer and byte count in `value`.
    pub(crate) fn is_hop(&self) -> bool {
        matches!(
            self,
            EventKind::NetWanSend
                | EventKind::NetLanSend
                | EventKind::NetDeliver
                | EventKind::NetDrop
        )
    }

    /// Inverse of [`EventKind::name`].
    pub fn from_name(name: &str) -> Option<EventKind> {
        ALL_KINDS.iter().copied().find(|k| k.name() == name)
    }

    pub(crate) fn from_u8(v: u8) -> Option<EventKind> {
        ALL_KINDS.get(v as usize).copied()
    }
}

const ALL_KINDS: [EventKind; 21] = [
    EventKind::Submitted,
    EventKind::PbftPrePrepare,
    EventKind::PbftPrepare,
    EventKind::PbftCommit,
    EventKind::Certified,
    EventKind::Encoded,
    EventKind::WanTransferStart,
    EventKind::WanTransferDone,
    EventKind::ChunkRebuilt,
    EventKind::GlobalCommit,
    EventKind::VtsAssigned,
    EventKind::Ordered,
    EventKind::Executed,
    EventKind::NetWanSend,
    EventKind::NetLanSend,
    EventKind::NetDeliver,
    EventKind::NetDrop,
    EventKind::NetTimer,
    EventKind::ViewStallDetected,
    EventKind::ViewChangeStarted,
    EventKind::NewViewAdopted,
];

/// Packs the `value` payload of a hop event (the `Net*` send, deliver
/// and drop kinds): the low 32 bits carry the message's modelled wire
/// size, the next 16 the peer's node index, the top 16 the peer's group.
pub fn pack_hop_value(peer: (u32, u32), bytes: u64) -> u64 {
    (bytes & 0xFFFF_FFFF) | ((peer.1 as u64 & 0xFFFF) << 32) | ((peer.0 as u64) << 48)
}

/// Inverse of [`pack_hop_value`]: `(peer, bytes)`.
pub fn unpack_hop_value(v: u64) -> ((u32, u32), u64) {
    (
        ((v >> 48) as u32, (v >> 32) as u32 & 0xFFFF),
        v & 0xFFFF_FFFF,
    )
}

/// One telemetry event: a phase boundary stamped with virtual time.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Event {
    /// Virtual time, microseconds.
    pub at: Time,
    /// What happened.
    pub kind: EventKind,
    /// The node it happened on, as `(group, index)`.
    pub node: (u32, u32),
    /// The entry it concerns, as `(gid, seq)` — `(0, 0)` for events not
    /// tied to an entry.
    pub entry: (u32, u64),
    /// Kind-specific payload: bytes for transfers, the clock value for
    /// `VtsAssigned`, committed transactions for `Executed`, peer and
    /// bytes for hop kinds ([`pack_hop_value`]), 0 otherwise.
    pub value: u64,
}

/// Result of draining the global ring.
#[derive(Debug, Clone, Default)]
pub struct Drained {
    /// Recovered events, ordered by `(at, publication order)`.
    pub events: Vec<Event>,
    /// Events that were overwritten before this drain (ring wrapped).
    pub dropped: u64,
}

static VERBOSITY: AtomicU8 = AtomicU8::new(0);
static RING: OnceLock<Ring> = OnceLock::new();

/// Default global ring capacity (events). Override before first use with
/// [`configure_ring`].
pub const DEFAULT_RING_CAPACITY: usize = 1 << 18;

fn global_ring() -> &'static Ring {
    RING.get_or_init(|| Ring::new(DEFAULT_RING_CAPACITY))
}

/// Installs the global ring with a custom capacity. Returns `false` if
/// the ring was already initialized (capacity unchanged).
pub fn configure_ring(capacity: usize) -> bool {
    RING.set(Ring::new(capacity)).is_ok()
}

/// Sets the probe verbosity.
pub fn set_verbosity(v: Verbosity) {
    VERBOSITY.store(v as u8, Relaxed);
}

/// Current verbosity.
pub fn verbosity() -> Verbosity {
    match VERBOSITY.load(Relaxed) {
        0 => Verbosity::Quiet,
        1 => Verbosity::Spans,
        _ => Verbosity::Debug,
    }
}

/// Convenience: `true` → [`Verbosity::Spans`], `false` → [`Verbosity::Quiet`].
pub fn set_enabled(enabled: bool) {
    set_verbosity(if enabled {
        Verbosity::Spans
    } else {
        Verbosity::Quiet
    });
}

/// Whether span probes record. This is THE hot-path gate: a single
/// relaxed load + branch; instrumented code must do nothing else when it
/// returns `false`.
#[inline(always)]
pub fn enabled() -> bool {
    if cfg!(feature = "off") {
        return false;
    }
    VERBOSITY.load(Relaxed) >= Verbosity::Spans as u8
}

/// Whether network debug probes record ([`Verbosity::Debug`] only).
#[inline(always)]
pub fn net_enabled() -> bool {
    if cfg!(feature = "off") {
        return false;
    }
    VERBOSITY.load(Relaxed) >= Verbosity::Debug as u8
}

/// Records a span event into the global ring (no-op unless [`enabled`]).
#[inline]
pub fn emit(ev: Event) {
    if !enabled() {
        return;
    }
    global_ring().push(ev);
}

/// Records a network debug event (no-op unless [`net_enabled`]).
#[inline]
pub fn emit_net(ev: Event) {
    if !net_enabled() {
        return;
    }
    global_ring().push(ev);
}

/// Name of the registry counter accumulating ring-wraparound losses
/// observed by [`drain`] (satellite of ISSUE 9: every exporter can
/// declare its own sampling loss instead of silently missing spans).
pub const RING_DROPPED_COUNTER: &str = "telemetry.ring_dropped";

/// Drains every event currently retained by the global ring, oldest
/// first, and reports how many were lost to wraparound since the last
/// drain. Callers should disable recording first for a consistent cut.
/// Losses are also accumulated into the [`RING_DROPPED_COUNTER`]
/// registry counter so `/metrics` scrapes surface them.
pub fn drain() -> Drained {
    let (events, dropped) = global_ring().drain();
    if dropped > 0 {
        registry::counter(RING_DROPPED_COUNTER).add(dropped);
    }
    Drained { events, dropped }
}

/// Non-destructive read of the most recent events retained by the global
/// ring (up to `max`), oldest first. Unlike [`drain`] this neither
/// advances the drain cursor nor perturbs concurrent writers, so the
/// `/trace` introspection endpoint can serve live windows while the run
/// keeps recording. The second field is the number of events published
/// into the ring over its lifetime (loss lower bound for scrapers:
/// anything beyond `published - capacity` is gone).
pub fn peek_recent(max: usize) -> (Vec<Event>, u64) {
    let ring = global_ring();
    (ring.peek_recent(max), ring.published())
}

/// Capacity of the global ring in events.
pub fn ring_capacity() -> usize {
    global_ring().capacity()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kind_names_round_trip() {
        for k in ALL_KINDS {
            assert_eq!(EventKind::from_name(k.name()), Some(k));
            assert_eq!(EventKind::from_u8(k as u8), Some(k));
        }
        assert_eq!(EventKind::from_name("bogus"), None);
        assert_eq!(EventKind::from_u8(200), None);
    }

    #[test]
    fn verbosity_ladder() {
        // Global state: this test owns the transitions it asserts on.
        set_verbosity(Verbosity::Quiet);
        assert!(!enabled());
        assert!(!net_enabled());
        set_verbosity(Verbosity::Spans);
        assert!(enabled());
        assert!(!net_enabled());
        set_verbosity(Verbosity::Debug);
        assert!(enabled());
        assert!(net_enabled());
        set_verbosity(Verbosity::Quiet);
    }

    #[test]
    fn lifecycle_covers_no_net_kinds() {
        for k in EventKind::LIFECYCLE {
            assert!(!k.name().starts_with("net_"), "{k:?}");
        }
        assert_eq!(EventKind::LIFECYCLE.len(), 13);
    }
}
