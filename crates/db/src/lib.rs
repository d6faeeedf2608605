//! Deterministic in-memory database for MassBFT.
//!
//! The paper's prototype "employ[s] Aria deterministic concurrency control
//! to accelerate transaction execution and use[s] in-memory hash tables to
//! store database states" (§VI, *Implementation*). This crate reproduces
//! that execution substrate:
//!
//! - [`store`] — an in-memory key-value store with batch versioning,
//!   striped into shards so batch write sets apply concurrently,
//! - [`aria`] — an Aria-style deterministic batch executor (Lu et al.,
//!   VLDB'20): every transaction in a batch executes against the same
//!   snapshot, write/read reservations detect conflicts, and aborts are
//!   *deterministic* — every replica aborts exactly the same transactions,
//!   so no cross-replica coordination is needed during execution,
//! - [`hash`] — the one cheap keyed hash behind the store's shards and
//!   tables (and the node's other in-memory maps),
//! - [`pool`] — a scoped fork-join worker pool (no rayon in the offline
//!   toolchain) that the executor uses to run each Aria phase multi-core,
//! - [`stats`] — process-wide execution counters: per-phase timings,
//!   worker utilization, abort rates.
//!
//! Determinism is the property MassBFT leans on: once entries are globally
//! ordered (paper §V), every correct node feeds identical batches to this
//! executor and reaches an identical database state — at *any* worker
//! count. Parallel and serial execution are bit-identical by construction
//! (see the [`aria`] module docs) and by test (`tests/parallel_parity.rs`).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod aria;
pub mod hash;
pub mod pool;
pub mod stats;
pub mod store;

pub use aria::{AriaExecutor, BatchOutcome, TxnEffects, TxnOutcome};
pub use pool::WorkerPool;
pub use stats::{exec_stats, ExecStats};
pub use store::KvStore;

/// Database keys and values are plain byte strings.
pub type Key = Vec<u8>;
/// Database values.
pub type Value = Vec<u8>;

/// A transaction executable under deterministic concurrency control.
///
/// `execute` must be a pure function of the store snapshot: no interior
/// mutability, no randomness not derived from the transaction itself.
pub trait DetTransaction {
    /// Runs the transaction logic against a read snapshot, returning its
    /// read set, buffered writes, and logic-level abort flag.
    fn execute(&self, view: &KvStore) -> TxnEffects;
}

impl<F> DetTransaction for F
where
    F: Fn(&KvStore) -> TxnEffects,
{
    fn execute(&self, view: &KvStore) -> TxnEffects {
        self(view)
    }
}
