//! The fault model, once for both drivers: what a [`FaultEvent`] means
//! ([`FaultState::apply`]) and what the installed faults do to one routed
//! message ([`FaultState::route`]).
//!
//! The simulator's `Simulation::route` and the TCP runtime's
//! `NetHandle::send` both ask [`FaultState::route`], each with its own
//! [`FaultRng`]. The decision order is the simulator's, because the
//! simulator is the driver whose runs must reproduce bit for bit: its
//! draw sequence is pinned by recorded results, while the runtime's never
//! was reproducible (thread scheduling orders its sends).
//!
//! 1. a severed node pair blocks the message before anything is drawn;
//! 2. the link's fault model — the per-link override, else the WAN-wide
//!    default on WAN links — draws drop, then duplicate, then jitter,
//!    each only when its parameter is non-zero, so a fault-free link
//!    consumes nothing from the RNG;
//! 3. a group partition blocks WAN messages *after* those draws (a
//!    partitioned link with a fault model still consumes them);
//! 4. the sender's adversarial delay is added to the jitter.
//!
//! A crashed source sends nothing and a node's message to itself never
//! touches a link; both callers settle those two cases before asking.
//!
//! The same seam is where a message is *observed*: [`probe_send`] when it
//! leaves a node and [`probe_deliver`] when the destination's handler is
//! about to get it, called by both drivers. Neither the message nor its
//! wire format knows about tracing; `massbft_telemetry::stitch` pairs
//! the two records per link and derives hop numbers and origins.

use crate::topology::DenseIndex;
use crate::{NodeId, SimMessage, Time};
use massbft_telemetry::{self as telemetry, EventKind};
use std::collections::{BTreeMap, BTreeSet};

/// Probabilistic fault model for a link: each routed message is dropped
/// with `drop_prob`, duplicated with `dup_prob`, and delayed by a uniform
/// extra jitter in `[0, extra_jitter_us]`. Decisions come from the
/// driver's own seeded [`FaultRng`], so simulator runs stay deterministic.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct LinkFault {
    /// Probability a message is silently dropped.
    pub drop_prob: f64,
    /// Probability a message is delivered twice.
    pub dup_prob: f64,
    /// Maximum extra delivery jitter, microseconds (uniform in `[0, max]`).
    pub extra_jitter_us: Time,
}

impl LinkFault {
    /// A lossy/flaky link: `pct`% drop, `pct`% duplicate, plus jitter.
    pub fn flaky(pct: f64, jitter_us: Time) -> Self {
        LinkFault {
            drop_prob: pct / 100.0,
            dup_prob: pct / 100.0,
            extra_jitter_us: jitter_us,
        }
    }
}

/// One scripted fault action, applied to a running cluster at a scheduled
/// instant. Node/group crash–recover, partitions at both granularities,
/// link-level fault models, and adversarial send delays.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum FaultEvent {
    /// Crash a node (stops sending/receiving; state retained).
    Crash(NodeId),
    /// Recover a crashed node.
    Recover(NodeId),
    /// Crash every node of a group (data-center outage, §VI-E).
    CrashGroup(u32),
    /// Recover every node of a group.
    RecoverGroup(u32),
    /// Sever all WAN links between two groups.
    PartitionGroups(u32, u32),
    /// Heal a group partition.
    HealGroups(u32, u32),
    /// Sever the link between two individual nodes (WAN or LAN).
    PartitionNodes(NodeId, NodeId),
    /// Heal a node-pair partition.
    HealNodes(NodeId, NodeId),
    /// Set (`Some`) or clear (`None`) the fault model on a directed link.
    SetLinkFault(NodeId, NodeId, Option<LinkFault>),
    /// Set (`Some`) or clear (`None`) the WAN-wide default fault model.
    SetWanFault(Option<LinkFault>),
    /// Add a fixed delay to everything a node sends (0 clears it).
    SetSendDelay(NodeId, Time),
}

/// A [`FaultEvent`] with its activation instant.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ScheduledFault {
    /// Instant the event fires, on the driver's clock.
    pub at: Time,
    /// What happens.
    pub event: FaultEvent,
}

/// A deterministic script of fault events, kept sorted by time (stable
/// for equal times, so same-instant events apply in insertion order).
#[derive(Debug, Clone, Default)]
pub struct FaultSchedule {
    events: Vec<ScheduledFault>,
}

impl FaultSchedule {
    /// An empty schedule.
    pub fn new() -> Self {
        Self::default()
    }

    /// Builder-style: adds `event` at `at` and returns the schedule.
    pub fn at(mut self, at: Time, event: FaultEvent) -> Self {
        self.push(at, event);
        self
    }

    /// Adds `event` at `at`, keeping the script sorted (stable).
    pub fn push(&mut self, at: Time, event: FaultEvent) {
        let pos = self.events.partition_point(|e| e.at <= at);
        self.events.insert(pos, ScheduledFault { at, event });
    }

    /// The full script, sorted by time.
    pub fn events(&self) -> &[ScheduledFault] {
        &self.events
    }

    /// Whether the script is empty.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Number of scheduled events.
    pub fn len(&self) -> usize {
        self.events.len()
    }
}

/// The generator behind every fault decision: xorshift64* (Vigna 2016).
/// Only consumed when a fault model applies to the routed link, so
/// fault-free runs are bit-identical with and without a configured seed.
#[derive(Debug, Clone)]
pub struct FaultRng(u64);

impl FaultRng {
    /// Seeds through the splitmix64 finalizer, which turns any seed
    /// (including zero) into a well-mixed nonzero xorshift state.
    pub fn new(seed: u64) -> Self {
        let mut z = seed.wrapping_add(0x9E37_79B9_7F4A_7C15);
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^= z >> 31;
        FaultRng(if z == 0 { 0x9E37_79B9_7F4A_7C15 } else { z })
    }

    fn next_u64(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.0 = x;
        x.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }

    /// Uniform draw in `[0, 1)`.
    fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// What the installed faults do to one message routed over a link.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Routing {
    /// The node pair is severed: blocked before any draw.
    Severed,
    /// The link's fault model dropped the message.
    Dropped,
    /// The two groups are partitioned: blocked after the link's draws.
    Partitioned,
    /// The message flies.
    Deliver {
        /// A second copy arrives with it.
        duplicate: bool,
        /// The link's model has jitter, and `extra_delay` includes a draw
        /// of it (possibly zero).
        jittered: bool,
        /// Jitter plus the sender's adversarial delay, microseconds on
        /// top of the link's own flight time.
        extra_delay: Time,
    },
}

fn ordered<T: Ord>(a: T, b: T) -> (T, T) {
    if a <= b {
        (a, b)
    } else {
        (b, a)
    }
}

/// Every fault currently installed on a cluster. Per-node state is dense
/// (a crash check sits on each driver's per-message path); the cold
/// structures — partitions, link faults — are ordered maps guarded by
/// `is_empty()` checks, so fault-free runs never touch them.
#[derive(Debug, Clone)]
pub struct FaultState {
    index: DenseIndex,
    /// Crashed nodes neither send nor receive nor fire timers; their
    /// state is retained for a later recovery.
    crashed: Vec<bool>,
    /// Extra delay added to every message a node sends (adversarial
    /// `DelayAll` strategies; zero = none).
    send_delay: Vec<Time>,
    /// Pairs of groups that cannot communicate (unordered pairs).
    group_partitions: BTreeSet<(u32, u32)>,
    /// Pairs of individual nodes that cannot communicate (unordered
    /// pairs) — finer-grained than group partitions, and applies to LAN
    /// links too.
    node_partitions: BTreeSet<(NodeId, NodeId)>,
    /// Per-link fault injection, keyed by directed `(src, dst)`.
    link_faults: BTreeMap<(NodeId, NodeId), LinkFault>,
    /// Fault model applied to every WAN link without a per-link override.
    wan_fault: Option<LinkFault>,
}

impl FaultState {
    /// A fault-free cluster with the given group sizes.
    pub fn new(group_sizes: &[usize]) -> Self {
        let index = DenseIndex::new(group_sizes);
        let n = index.node_count();
        FaultState {
            index,
            crashed: vec![false; n],
            send_delay: vec![0; n],
            group_partitions: BTreeSet::new(),
            node_partitions: BTreeSet::new(),
            link_faults: BTreeMap::new(),
            wan_fault: None,
        }
    }

    fn set_group_crashed(&mut self, g: u32, crashed: bool) {
        for node in 0..self.index.group_size(g) as u32 {
            let i = self.index.of(NodeId::new(g, node));
            self.crashed[i] = crashed;
        }
    }

    /// Installs or clears what `event` describes.
    pub fn apply(&mut self, event: FaultEvent) {
        match event {
            FaultEvent::Crash(n) => self.crashed[self.index.of(n)] = true,
            FaultEvent::Recover(n) => self.crashed[self.index.of(n)] = false,
            FaultEvent::CrashGroup(g) => self.set_group_crashed(g, true),
            FaultEvent::RecoverGroup(g) => self.set_group_crashed(g, false),
            FaultEvent::PartitionGroups(a, b) => {
                self.group_partitions.insert(ordered(a, b));
            }
            FaultEvent::HealGroups(a, b) => {
                self.group_partitions.remove(&ordered(a, b));
            }
            FaultEvent::PartitionNodes(a, b) => {
                self.node_partitions.insert(ordered(a, b));
            }
            FaultEvent::HealNodes(a, b) => {
                self.node_partitions.remove(&ordered(a, b));
            }
            FaultEvent::SetLinkFault(src, dst, Some(fault)) => {
                self.link_faults.insert((src, dst), fault);
            }
            FaultEvent::SetLinkFault(src, dst, None) => {
                self.link_faults.remove(&(src, dst));
            }
            FaultEvent::SetWanFault(fault) => self.wan_fault = fault,
            FaultEvent::SetSendDelay(n, delay) => self.send_delay[self.index.of(n)] = delay,
        }
    }

    /// Whether a node is currently crashed.
    #[inline]
    pub fn is_crashed(&self, id: NodeId) -> bool {
        self.crashed[self.index.of(id)]
    }

    /// Decides the fate of one message from a live `src` to another node
    /// `dst`, in the order the module docs give. `is_wan` is the
    /// topology's verdict on the link.
    pub fn route(&self, src: NodeId, dst: NodeId, is_wan: bool, rng: &mut FaultRng) -> Routing {
        if !self.node_partitions.is_empty() && self.node_partitions.contains(&ordered(src, dst)) {
            return Routing::Severed;
        }
        // Per-link override first, then the WAN-wide default.
        let wan_default = if is_wan { self.wan_fault } else { None };
        let fault = if self.link_faults.is_empty() {
            wan_default
        } else {
            self.link_faults.get(&(src, dst)).copied().or(wan_default)
        };
        let mut duplicate = false;
        let mut jitter = None;
        if let Some(f) = fault {
            if f.drop_prob > 0.0 && rng.unit() < f.drop_prob {
                return Routing::Dropped;
            }
            duplicate = f.dup_prob > 0.0 && rng.unit() < f.dup_prob;
            if f.extra_jitter_us > 0 {
                jitter = Some(rng.next_u64() % (f.extra_jitter_us + 1));
            }
        }
        if is_wan
            && !self.group_partitions.is_empty()
            && self
                .group_partitions
                .contains(&ordered(src.group, dst.group))
        {
            return Routing::Partitioned;
        }
        Routing::Deliver {
            duplicate,
            jittered: jitter.is_some(),
            extra_delay: jitter
                .unwrap_or(0)
                .saturating_add(self.send_delay[self.index.of(src)]),
        }
    }
}

/// Records that `msg` left `src` for `dst`. With telemetry off this is
/// one relaxed load and a branch; the message is asked for its entry and
/// size only when the event will be kept.
#[inline]
pub fn probe_send<M: SimMessage>(at: Time, src: NodeId, dst: NodeId, is_wan: bool, msg: &M) {
    let kind = if is_wan {
        EventKind::NetWanSend
    } else {
        EventKind::NetLanSend
    };
    probe(at, kind, src, dst, msg);
}

/// Records that `msg` from `src` is being handed to `dst`'s handler.
/// Costs what [`probe_send`] costs.
#[inline]
pub fn probe_deliver<M: SimMessage>(at: Time, src: NodeId, dst: NodeId, msg: &M) {
    probe(at, EventKind::NetDeliver, dst, src, msg);
}

/// Records a hop event of `kind` at `node` about a message to or from
/// `peer`: one on an entry's data path at `Spans`, any other only at
/// `Debug`.
#[inline]
pub(crate) fn probe<M: SimMessage>(at: Time, kind: EventKind, node: NodeId, peer: NodeId, msg: &M) {
    if !telemetry::enabled() {
        return;
    }
    let entry = msg.trace_entry();
    if entry.is_none() && !telemetry::net_enabled() {
        return;
    }
    telemetry::emit(telemetry::Event {
        at,
        kind,
        node: (node.group, node.node),
        entry: entry.unwrap_or((0, 0)),
        value: telemetry::pack_hop_value((peer.group, peer.node), msg.wire_size() as u64),
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    const A: NodeId = NodeId { group: 0, node: 0 };
    const B: NodeId = NodeId { group: 1, node: 1 };
    const CLEAN: Routing = Routing::Deliver {
        duplicate: false,
        jittered: false,
        extra_delay: 0,
    };

    fn state() -> FaultState {
        FaultState::new(&[2, 2])
    }

    /// Routes one WAN message A → B and says whether the RNG moved.
    fn route_ab(f: &FaultState) -> (Routing, bool) {
        let mut rng = FaultRng::new(7);
        let verdict = f.route(A, B, true, &mut rng);
        (verdict, rng.0 != FaultRng::new(7).0)
    }

    #[test]
    fn schedule_sorts_stably() {
        let s = FaultSchedule::new()
            .at(50, FaultEvent::Crash(NodeId::new(0, 0)))
            .at(10, FaultEvent::PartitionGroups(0, 1))
            .at(50, FaultEvent::Recover(NodeId::new(0, 0)))
            .at(20, FaultEvent::HealGroups(0, 1));
        let ats: Vec<Time> = s.events().iter().map(|e| e.at).collect();
        assert_eq!(ats, vec![10, 20, 50, 50]);
        // Same-instant events keep insertion order: Crash before Recover.
        assert!(matches!(s.events()[2].event, FaultEvent::Crash(_)));
        assert!(matches!(s.events()[3].event, FaultEvent::Recover(_)));
        assert_eq!(s.len(), 4);
        assert!(!s.is_empty());
    }

    #[test]
    fn crash_events_set_and_clear() {
        let mut f = state();
        f.apply(FaultEvent::Crash(B));
        assert!(f.is_crashed(B) && !f.is_crashed(A));
        f.apply(FaultEvent::Recover(B));
        assert!(!f.is_crashed(B));
        f.apply(FaultEvent::CrashGroup(1));
        assert!(f.is_crashed(NodeId::new(1, 0)) && f.is_crashed(B) && !f.is_crashed(A));
        f.apply(FaultEvent::RecoverGroup(1));
        assert!(!f.is_crashed(NodeId::new(1, 0)) && !f.is_crashed(B));
    }

    #[test]
    fn partition_events_set_and_clear_and_ignore_pair_order() {
        let mut f = state();
        f.apply(FaultEvent::PartitionGroups(1, 0));
        assert_eq!(route_ab(&f).0, Routing::Partitioned);
        assert_eq!(
            f.route(B, A, true, &mut FaultRng::new(7)),
            Routing::Partitioned
        );
        // A group partition severs WAN links only.
        assert_eq!(
            f.route(A, NodeId::new(0, 1), false, &mut FaultRng::new(7)),
            CLEAN
        );
        f.apply(FaultEvent::HealGroups(0, 1));
        assert_eq!(route_ab(&f).0, CLEAN);

        f.apply(FaultEvent::PartitionNodes(B, A));
        assert_eq!(route_ab(&f).0, Routing::Severed);
        assert_eq!(f.route(B, A, true, &mut FaultRng::new(7)), Routing::Severed);
        f.apply(FaultEvent::HealNodes(A, B));
        assert_eq!(route_ab(&f).0, CLEAN);
    }

    #[test]
    fn send_delay_and_link_faults_set_and_clear() {
        let mut f = state();
        f.apply(FaultEvent::SetSendDelay(A, 900));
        assert_eq!(
            route_ab(&f).0,
            Routing::Deliver {
                duplicate: false,
                jittered: false,
                extra_delay: 900
            }
        );
        // Only the sender's delay counts.
        assert_eq!(f.route(B, A, true, &mut FaultRng::new(7)), CLEAN);
        f.apply(FaultEvent::SetSendDelay(A, 0));
        assert_eq!(route_ab(&f).0, CLEAN);

        let always_drop = LinkFault {
            drop_prob: 1.0,
            ..LinkFault::default()
        };
        f.apply(FaultEvent::SetLinkFault(A, B, Some(always_drop)));
        assert_eq!(route_ab(&f).0, Routing::Dropped);
        // Link faults are directed.
        assert_eq!(f.route(B, A, true, &mut FaultRng::new(7)), CLEAN);
        f.apply(FaultEvent::SetLinkFault(A, B, None));
        assert_eq!(route_ab(&f).0, CLEAN);

        f.apply(FaultEvent::SetWanFault(Some(always_drop)));
        assert_eq!(route_ab(&f).0, Routing::Dropped);
        // The WAN-wide default leaves LAN links alone.
        assert_eq!(
            f.route(A, NodeId::new(0, 1), false, &mut FaultRng::new(7)),
            CLEAN
        );
        f.apply(FaultEvent::SetWanFault(None));
        assert_eq!(route_ab(&f).0, CLEAN);
    }

    #[test]
    fn per_link_override_beats_the_wan_default() {
        let mut f = state();
        f.apply(FaultEvent::SetWanFault(Some(LinkFault {
            drop_prob: 1.0,
            ..LinkFault::default()
        })));
        f.apply(FaultEvent::SetLinkFault(
            A,
            B,
            Some(LinkFault {
                dup_prob: 1.0,
                ..LinkFault::default()
            }),
        ));
        assert_eq!(
            route_ab(&f).0,
            Routing::Deliver {
                duplicate: true,
                jittered: false,
                extra_delay: 0
            }
        );
        // Every other WAN link still gets the default.
        assert_eq!(f.route(B, A, true, &mut FaultRng::new(7)), Routing::Dropped);
    }

    #[test]
    fn only_a_faulty_link_draws() {
        let mut f = state();
        f.apply(FaultEvent::SetSendDelay(A, 5));
        assert!(!route_ab(&f).1, "a fault-free link drew");
        // A node-pair partition blocks before the link's model is asked…
        let jitter = LinkFault {
            extra_jitter_us: 1_000,
            ..LinkFault::default()
        };
        f.apply(FaultEvent::SetWanFault(Some(jitter)));
        f.apply(FaultEvent::PartitionNodes(A, B));
        assert_eq!(route_ab(&f), (Routing::Severed, false));
        f.apply(FaultEvent::HealNodes(A, B));
        // …a group partition after it.
        f.apply(FaultEvent::PartitionGroups(0, 1));
        assert_eq!(route_ab(&f), (Routing::Partitioned, true));
        f.apply(FaultEvent::HealGroups(0, 1));
        let (verdict, drew) = route_ab(&f);
        assert!(drew);
        let Routing::Deliver {
            duplicate: false,
            jittered: true,
            extra_delay,
        } = verdict
        else {
            panic!("unexpected verdict {verdict:?}");
        };
        assert!((5..=1_005).contains(&extra_delay));
    }
}
