//! MassBFT: fast and scalable geo-distributed Byzantine fault-tolerant
//! consensus — the paper's primary contribution.
//!
//! This crate implements the protocol of *MassBFT* (Peng et al., ICDE
//! 2025) and the competitor protocols evaluated against it, all over the
//! deterministic simulation substrate in `massbft-sim-net`:
//!
//! - [`plan`] — Algorithm 1: bijective transfer-plan generation.
//! - [`replication`] — encoded bijective log replication with optimistic
//!   Merkle-bucketed rebuild (§IV).
//! - [`ordering`] — Algorithm 2: asynchronous ordering by vector
//!   timestamps (§V).
//! - [`round`] — the round-based synchronous ordering used by Baseline,
//!   GeoBFT, and ISS (§II-A).
//! - [`exec`] — the batched ordering→execution handoff feeding the
//!   (optionally multi-core) Aria executor, with the deterministic
//!   conflict-retry queue.
//! - [`protocol`] — the unified node actor: one implementation with
//!   configuration presets for **MassBFT**, **Baseline**, **GeoBFT**,
//!   **Steward**, **ISS**, **BR** (bijective-only), and **EBR**
//!   (encoded bijective without asynchronous ordering) — the same
//!   same-codebase methodology the paper uses for fair comparison (§VI).
//!   A node is five parts, one per layer, under a dispatcher:
//!   `LocalConsensus`, `Dissemination`, `GlobalLayer`, `EntryStore` and
//!   `Sequencer` (DESIGN.md §5h).
//! - [`cluster`] — the experiment harness: build a geo-cluster, drive a
//!   workload, inject faults, measure throughput and latency in virtual
//!   time.
//!
//! # Quickstart
//!
//! ```
//! use massbft_core::cluster::{Cluster, ClusterConfig};
//! use massbft_core::protocol::Protocol;
//! use massbft_workloads::WorkloadKind;
//!
//! let cfg = ClusterConfig::nationwide(&[4, 4, 4], Protocol::MassBft)
//!     .workload(WorkloadKind::YcsbA)
//!     .seed(7);
//! let mut cluster = Cluster::new(cfg);
//! let report = cluster.run_secs(3);
//! assert!(report.throughput.tps() > 0.0);
//! assert!(report.all_nodes_consistent);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod adversary;
pub mod cluster;
pub mod entry;
pub mod exec;
mod held;
pub mod ledger;
pub mod ordering;
pub mod plan;
pub mod protocol;
pub mod replication;
pub mod round;
pub mod stats;
pub mod wire;

pub use entry::EntryId;
pub use exec::{ExecutionPipeline, PreparedEntry};
pub use ordering::OrderingEngine;
pub use plan::TransferPlan;
pub use replication::{ChunkAssembler, ChunkMsg, ChunkSender};
