//! The program surface the benchmark links against, pinned in one file.
//!
//! Nothing else in `benchmark/` names a `massbft_*` path: every symbol the
//! workloads, probes and counter readers use is re-exported here, so a
//! refactor of the program knows exactly which names must keep compiling.

// --- drivers ---------------------------------------------------------------
pub use massbft_core::adversary::FaultEvent;
pub use massbft_core::cluster::{Cluster as SimCluster, ClusterConfig, Report};
pub use massbft_core::protocol::{GlobalCmd, Msg, Node, Protocol};
pub use massbft_runtime::Cluster as TcpCluster;
pub use massbft_sim_net::{NodeId, Time, MILLISECOND, SECOND};
pub use massbft_workloads::WorkloadKind;

// --- probe entry points, one block per layer -------------------------------
pub use bytes::Bytes;
pub use massbft_codec::chunker::EntryCodec;
pub use massbft_consensus::{
    PbftConfig, PbftMsg, PbftOutput, PbftReplica, RaftConfig, RaftMsg, RaftNode, RaftOutput,
};
pub use massbft_core::entry::{decode_batch, encode_batch, entry_digest, EntryId};
pub use massbft_core::exec::{ExecutionPipeline, PreparedEntry};
pub use massbft_core::ledger::Ledger;
pub use massbft_core::ordering::OrderingEngine;
pub use massbft_core::plan::TransferPlan;
pub use massbft_core::replication::{ChunkAssembler, ChunkMsg, ChunkOutcome, ChunkSender};
pub use massbft_crypto::cert::{max_faulty, quorum};
pub use massbft_crypto::sha256::sha256;
pub use massbft_crypto::{KeyRegistry, MerkleTree, QuorumCert};
pub use massbft_db::KvStore;
pub use massbft_runtime::frame::{decode_msg, encode_frame, FRAME_HEADER};
pub use massbft_runtime::wheel::TimerWheel;
pub use massbft_sim_net::{Actor, Ctx, SimMessage, Simulation, TopologyBuilder};
pub use massbft_workloads::{Request, WorkloadGen};

// --- counter readers and the telemetry switch ------------------------------
pub use massbft_core::stats::{data_plane_stats, exec_stats, ExecStats};
pub use massbft_telemetry::export::validate_chrome_trace;
pub use massbft_telemetry::json::{escape as json_escape, parse as json_parse, Value as JsonValue};
pub use massbft_telemetry::registry::{counter, histogram, Histogram};
pub use massbft_telemetry::{
    drain as telemetry_drain, emit as telemetry_emit, set_enabled as telemetry_set_enabled,
    Event as TelemetryEvent, EventKind as TelemetryEventKind,
};
