//! Readers for the program's existing public counters. All of them are
//! process-global and monotonic, so a window is two snapshots and a
//! subtraction; nothing inside the program is added or moved.

use crate::api::{counter, data_plane_stats, exec_stats, ExecStats};

/// The registry counters the per-layer metrics read, by registry name.
const REGISTRY: [&str; 17] = [
    "consensus.pbft.proposals",
    "consensus.pbft.committed",
    "consensus.pbft.view_changes",
    "consensus.raft.proposals",
    "consensus.raft.elections",
    "consensus.raft.committed_entries",
    "core.ordering.entries_ordered",
    "core.replication.chunks_accepted",
    "core.replication.rebuilds",
    "core.replication.chunk_rejects",
    "core.replication.cert_memo_hits",
    "net.tcp_bytes_in",
    "net.tcp_bytes_out",
    "net.syscalls_read",
    "net.syscalls_write",
    "net.frames_out",
    "net.coalesced_writes",
];
/// The codec's decode-plan cache, read through `data_plane_stats()`.
const DECODE_CACHE: [&str; 2] = ["codec.decode_cache_hits", "codec.decode_cache_misses"];

/// One reading of every counter: [`REGISTRY`] then [`DECODE_CACHE`], and
/// the execution pipeline's own snapshot type.
#[derive(Clone, Default)]
pub struct Counters {
    values: Vec<u64>,
    pub exec: ExecStats,
}

impl Counters {
    pub fn read() -> Self {
        let cache = data_plane_stats();
        Counters {
            values: REGISTRY
                .iter()
                .map(|name| counter(name).get())
                .chain([cache.decode_cache_hits, cache.decode_cache_misses])
                .collect(),
            exec: exec_stats(),
        }
    }

    /// What happened between `earlier` and `self`.
    pub fn since(&self, earlier: &Counters) -> Counters {
        Counters {
            values: self
                .values
                .iter()
                .zip(&earlier.values)
                .map(|(now, then)| now - then)
                .collect(),
            exec: self.exec.since(&earlier.exec),
        }
    }

    /// The counter named `name`, as a float for the ratios it feeds.
    /// Panics on a name that is not read: that is a typo in this crate.
    pub fn get(&self, name: &str) -> f64 {
        let i = REGISTRY
            .iter()
            .chain(&DECODE_CACHE)
            .position(|n| *n == name)
            .unwrap_or_else(|| panic!("counter {name} is not read"));
        self.values[i] as f64
    }
}

/// The simulator's own per-run accounting over the window.
#[derive(Clone, Copy, Default)]
pub struct SimCounts {
    pub events: u64,
    pub wan_msgs: u64,
    pub lan_bytes: u64,
    pub dropped_msgs: u64,
}
