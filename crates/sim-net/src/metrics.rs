//! Traffic and event accounting.
//!
//! The replication-overhead analysis (paper Fig. 10) reports WAN bytes per
//! replicated entry; the scalability analysis hinges on per-node uplink
//! saturation. [`Metrics`] tracks both, per node and in aggregate.
//!
//! Per-node counters are dense `Vec`s indexed by the simulator's node
//! index (node ids are contiguous), so the per-message hot path is an
//! array add, not an ordered-map probe. Lookups by [`NodeId`] are cold and
//! go through a binary search over the sorted id list.

use crate::{NodeId, Time};

/// Counters collected during a simulation run.
#[derive(Debug, Clone, Default)]
pub struct Metrics {
    /// Node ids in dense-index order (sorted; empty for a detached
    /// `Metrics::default()`).
    ids: Vec<NodeId>,
    /// Bytes each node pushed onto its WAN uplink, by dense index.
    wan_bytes_sent: Vec<u64>,
    /// Bytes each node pushed onto its LAN, by dense index.
    lan_bytes_sent: Vec<u64>,
    /// Total virtual CPU time charged, by dense index.
    cpu_time: Vec<Time>,
    /// Messages sent over WAN links.
    pub wan_messages: u64,
    /// Messages sent over LAN links.
    pub lan_messages: u64,
    /// Messages dropped because the destination (or source) was crashed or
    /// partitioned away.
    pub dropped_messages: u64,
    /// Total events processed.
    pub events_processed: u64,
    /// Messages dropped by injected link faults or node-pair partitions
    /// (a subset of `dropped_messages`).
    pub faults_dropped: u64,
    /// Messages duplicated by injected link faults.
    pub faults_duplicated: u64,
    /// Messages delayed with injected extra jitter.
    pub faults_jittered: u64,
}

impl Metrics {
    /// Creates metrics with a per-node slot for each id. `ids` must be
    /// sorted (the topology's node order is).
    pub fn for_nodes(ids: Vec<NodeId>) -> Self {
        let n = ids.len();
        Metrics {
            ids,
            wan_bytes_sent: vec![0; n],
            lan_bytes_sent: vec![0; n],
            cpu_time: vec![0; n],
            ..Metrics::default()
        }
    }

    fn index_of(&self, id: NodeId) -> Option<usize> {
        self.ids.binary_search(&id).ok()
    }

    /// Charges a WAN send to the node at dense index `idx`.
    pub(crate) fn record_wan_send(&mut self, idx: usize, bytes: u64) {
        self.wan_bytes_sent[idx] += bytes;
        self.wan_messages += 1;
    }

    /// Charges a LAN send to the node at dense index `idx`.
    pub(crate) fn record_lan_send(&mut self, idx: usize, bytes: u64) {
        self.lan_bytes_sent[idx] += bytes;
        self.lan_messages += 1;
    }

    /// Adds virtual CPU time for the node at dense index `idx`.
    pub(crate) fn add_cpu(&mut self, idx: usize, t: Time) {
        self.cpu_time[idx] += t;
    }

    /// Total WAN bytes across all nodes.
    pub fn total_wan_bytes(&self) -> u64 {
        self.wan_bytes_sent.iter().sum()
    }

    /// Total LAN bytes across all nodes.
    pub fn total_lan_bytes(&self) -> u64 {
        self.lan_bytes_sent.iter().sum()
    }

    /// WAN bytes sent by one node (0 for nodes outside the topology).
    pub fn wan_bytes_of(&self, id: NodeId) -> u64 {
        self.index_of(id)
            .map(|i| self.wan_bytes_sent[i])
            .unwrap_or(0)
    }

    /// Virtual CPU time charged to one node (0 for unknown nodes).
    pub fn cpu_time_of(&self, id: NodeId) -> Time {
        self.index_of(id).map(|i| self.cpu_time[i]).unwrap_or(0)
    }

    /// The heaviest WAN sender — with leader-based replication this is the
    /// leader; with bijective replication the load flattens. `None` if no
    /// node sent WAN traffic.
    pub fn max_wan_sender(&self) -> Option<(NodeId, u64)> {
        self.ids
            .iter()
            .zip(&self.wan_bytes_sent)
            .filter(|(_, &v)| v > 0)
            .max_by_key(|(_, &v)| v)
            .map(|(&k, &v)| (k, v))
    }

    /// Total fault-injection actions taken (drops + duplicates + jitter).
    pub fn faults_injected(&self) -> u64 {
        self.faults_dropped + self.faults_duplicated + self.faults_jittered
    }

    /// Resets the byte/message counters (used between measurement windows)
    /// while keeping the event counter running.
    pub fn reset_traffic(&mut self) {
        self.wan_bytes_sent.fill(0);
        self.lan_bytes_sent.fill(0);
        self.wan_messages = 0;
        self.lan_messages = 0;
        self.dropped_messages = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn two_nodes() -> Metrics {
        Metrics::for_nodes(vec![NodeId::new(0, 0), NodeId::new(0, 1)])
    }

    #[test]
    fn totals_and_max() {
        let mut m = two_nodes();
        m.record_wan_send(0, 100);
        m.record_wan_send(1, 250);
        m.record_lan_send(0, 10);
        assert_eq!(m.total_wan_bytes(), 350);
        assert_eq!(m.total_lan_bytes(), 10);
        assert_eq!(m.wan_messages, 2);
        assert_eq!(m.lan_messages, 1);
        assert_eq!(m.max_wan_sender(), Some((NodeId::new(0, 1), 250)));
        assert_eq!(m.wan_bytes_of(NodeId::new(0, 1)), 250);
        assert_eq!(m.wan_bytes_of(NodeId::new(9, 9)), 0);
    }

    #[test]
    fn max_wan_sender_ignores_silent_nodes() {
        let mut m = two_nodes();
        assert_eq!(m.max_wan_sender(), None);
        m.record_wan_send(1, 5);
        assert_eq!(m.max_wan_sender(), Some((NodeId::new(0, 1), 5)));
    }

    #[test]
    fn cpu_time_accumulates_per_node() {
        let mut m = two_nodes();
        m.add_cpu(0, 100);
        m.add_cpu(0, 50);
        assert_eq!(m.cpu_time_of(NodeId::new(0, 0)), 150);
        assert_eq!(m.cpu_time_of(NodeId::new(0, 1)), 0);
        assert_eq!(m.cpu_time_of(NodeId::new(9, 9)), 0);
    }

    #[test]
    fn reset_traffic_clears_bytes_only() {
        let mut m = two_nodes();
        m.record_wan_send(0, 5);
        m.add_cpu(0, 3);
        m.events_processed = 77;
        m.reset_traffic();
        assert_eq!(m.total_wan_bytes(), 0);
        assert_eq!(m.wan_messages, 0);
        assert_eq!(m.events_processed, 77);
        assert_eq!(m.cpu_time_of(NodeId::new(0, 0)), 3);
    }
}
