//! Deterministic discrete-event geo-network simulator.
//!
//! The paper evaluates MassBFT on Aliyun clusters: groups of nodes in
//! different data centers, each node with an exclusive 20 Mbps WAN uplink,
//! 2.5 Gbps LAN within a data center, and cross-datacenter RTTs of
//! 26.7–43.4 ms (nationwide) or 156–206 ms (worldwide). This crate is the
//! substitution for that testbed (DESIGN.md §2): a message-level simulator
//! with
//!
//! - a **virtual clock** in microseconds, so every run is deterministic and
//!   throughput/latency are measured in simulated time;
//! - a **WAN uplink model**: each node owns a serialization queue — sending
//!   `b` bytes occupies the uplink for `b / bandwidth` seconds before the
//!   propagation latency starts. This reproduces the leader-bandwidth
//!   bottleneck that drives the paper's Figures 1b and 13a;
//! - a **LAN model** with high bandwidth and sub-millisecond latency;
//! - a **CPU model**: a handler can charge virtual CPU time (used for
//!   signature verification costs, the Fig. 13a plateau);
//! - **fault injection** ([`fault`]): node and whole-group crashes,
//!   recovery, partitions, lossy links and send delays — the one fault
//!   model both this simulator and the TCP runtime route through.
//!
//! Protocol logic is written against the sans-io [`Actor`] trait and driven
//! by [`Simulation`].

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod fault;
pub mod metrics;
pub mod sim;
pub mod topology;

pub use fault::{
    probe_deliver, probe_send, FaultEvent, FaultRng, FaultSchedule, FaultState, LinkFault, Routing,
    ScheduledFault,
};
pub use massbft_crypto::keys::NodeId;
pub use metrics::Metrics;
pub use sim::{Actor, Command, Ctx, Simulation};
pub use topology::{DenseIndex, Topology, TopologyBuilder};

/// Virtual time in microseconds since simulation start.
pub type Time = u64;

/// One second of virtual time.
pub const SECOND: Time = 1_000_000;

/// One millisecond of virtual time.
pub const MILLISECOND: Time = 1_000;

/// Messages carried by the simulator must report a wire size so the
/// bandwidth model can charge the uplink.
pub trait SimMessage: Clone {
    /// Serialized size in bytes (headers included, approximately).
    fn wire_size(&self) -> usize;

    /// The entry `(gid, seq)` this message carries data for, when it is
    /// part of an entry's cross-node data path. The send and deliver
    /// probes record it, so a trace can follow the entry from node to
    /// node; control traffic answers `None`.
    fn trace_entry(&self) -> Option<(u32, u64)> {
        None
    }
}
