//! Pluggable adversary strategies and scripted fault schedules.
//!
//! The paper's threat model (§III) allows up to `f` Byzantine nodes per
//! group — including the PBFT primary. This module turns the single
//! hardcoded "tamper chunks" misbehavior into a strategy engine:
//! each node can be assigned a [`Strategy`] with an activation window
//! ([`AdversarySpec`]), and whole scenarios — crashes, recoveries,
//! partitions, link faults — become data via [`FaultSchedule`], applied
//! by the cluster harness at scripted instants on either driver's clock
//! (the event types live beside the fault model in `massbft_sim_net::fault`
//! and are re-exported here).
//!
//! Strategies are interpreted by the protocol layer (`protocol.rs`):
//!
//! - [`Strategy::TamperChunks`] — the sender substitutes garbage for its
//!   erasure-coded chunk shares (the pre-existing Byzantine behavior;
//!   Merkle proofs + quorum certificates catch it, §V-B).
//! - [`Strategy::SilentPrimary`] — the node suppresses every outbound
//!   PBFT message while active. As primary it mutes the group's local
//!   consensus; the view-change driver must evict it.
//! - [`Strategy::EquivocatingPrimary`] — as primary, sends conflicting
//!   pre-prepares (same view/seq, different payloads) to disjoint halves
//!   of the group. Neither branch can reach a `2f+1` quorum, so the
//!   group stalls until a view change re-proposes exactly one branch.
//! - [`Strategy::WithholdChunks`] — the node certifies entries normally
//!   but never sends its WAN chunk/copy shares (tests erasure-coding
//!   redundancy and pull repair).
//! - [`Strategy::DelayAll`] — every message the node sends is delayed by
//!   a fixed amount (gray failure / overloaded NIC). Implemented at the
//!   driver level as [`FaultEvent::SetSendDelay`], scheduled by the
//!   cluster harness when the spec activates and deactivates.

pub use massbft_sim_net::fault::{FaultEvent, FaultSchedule, ScheduledFault};
use massbft_sim_net::{NodeId, Time};

/// One adversarial behavior a node can exhibit.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Strategy {
    /// Substitute garbage for outgoing erasure-coded chunks (default
    /// Byzantine behavior; detected by Merkle proof verification).
    TamperChunks,
    /// Suppress all outbound PBFT traffic (mute primary / crash-like
    /// fault that is not detectable as a process crash).
    SilentPrimary,
    /// Send conflicting pre-prepares to disjoint replica halves.
    EquivocatingPrimary,
    /// Never send WAN chunk/copy shares for certified entries.
    WithholdChunks,
    /// Delay every outbound message by a fixed amount.
    DelayAll {
        /// Added latency per message, microseconds.
        delay_us: Time,
    },
}

/// A [`Strategy`] assigned to one node, with an activation window.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AdversarySpec {
    /// The misbehaving node.
    pub node: NodeId,
    /// What it does while active.
    pub strategy: Strategy,
    /// Virtual time the behavior starts.
    pub from_us: Time,
    /// Virtual time the behavior stops (`None` = forever).
    pub until_us: Option<Time>,
}

impl AdversarySpec {
    /// A spec active from time zero, forever.
    pub fn new(node: NodeId, strategy: Strategy) -> Self {
        AdversarySpec {
            node,
            strategy,
            from_us: 0,
            until_us: None,
        }
    }

    /// Sets the activation time.
    pub fn from_us(mut self, t: Time) -> Self {
        self.from_us = t;
        self
    }

    /// Sets the deactivation time.
    pub fn until_us(mut self, t: Time) -> Self {
        self.until_us = Some(t);
        self
    }

    /// Whether the behavior is active at `now`.
    pub fn active_at(&self, now: Time) -> bool {
        now >= self.from_us && self.until_us.is_none_or(|t| now < t)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spec_activation_window() {
        let spec = AdversarySpec::new(NodeId::new(1, 0), Strategy::SilentPrimary)
            .from_us(100)
            .until_us(200);
        assert!(!spec.active_at(99));
        assert!(spec.active_at(100));
        assert!(spec.active_at(199));
        assert!(!spec.active_at(200));
        let forever = AdversarySpec::new(NodeId::new(0, 1), Strategy::TamperChunks);
        assert!(forever.active_at(0));
        assert!(forever.active_at(u64::MAX));
    }
}
