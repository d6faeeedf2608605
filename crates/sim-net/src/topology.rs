//! Cluster topology: groups, link latencies, and per-node bandwidth.

use crate::{NodeId, Time, MILLISECOND, SECOND};
use std::collections::BTreeMap;

/// Static description of a geo-distributed cluster.
#[derive(Debug, Clone)]
pub struct Topology {
    /// Number of nodes in each group (data center).
    pub group_sizes: Vec<usize>,
    /// One-way WAN latency between groups, `wan_latency_us[a][b]`,
    /// microseconds. The diagonal is unused.
    pub wan_latency_us: Vec<Vec<Time>>,
    /// One-way LAN latency within a data center.
    pub lan_latency_us: Time,
    /// Default WAN uplink bandwidth in bits per second (paper default:
    /// 20 Mbps per node).
    pub default_wan_bw_bps: u64,
    /// Per-node WAN bandwidth overrides (for the Fig. 14 heterogeneous
    /// bandwidth experiment).
    pub wan_bw_overrides: BTreeMap<NodeId, u64>,
    /// LAN bandwidth in bits per second (paper: 2.5 Gbps).
    pub lan_bw_bps: u64,
    /// Messages at or below this size bypass the WAN uplink FIFO (they
    /// still consume capacity). Models packet-level interleaving: a
    /// single-MTU control message (Raft votes, heartbeats, acks) is not
    /// head-of-line blocked behind megabytes of queued bulk transfers the
    /// way whole-message FIFO serialization would suggest.
    pub control_cutoff_bytes: usize,
}

impl Topology {
    /// Total number of nodes across all groups.
    pub fn node_count(&self) -> usize {
        self.group_sizes.iter().sum()
    }

    /// Number of groups.
    pub fn group_count(&self) -> usize {
        self.group_sizes.len()
    }

    /// All node ids in (group, node) order.
    pub fn nodes(&self) -> impl Iterator<Item = NodeId> + '_ {
        self.group_sizes
            .iter()
            .enumerate()
            .flat_map(|(g, &size)| (0..size).map(move |n| NodeId::new(g as u32, n as u32)))
    }

    /// Node ids of one group.
    pub fn group_nodes(&self, g: u32) -> impl Iterator<Item = NodeId> {
        let size = self.group_sizes.get(g as usize).copied().unwrap_or(0);
        (0..size).map(move |n| NodeId::new(g, n as u32))
    }

    /// WAN uplink bandwidth of a node, bits per second.
    pub fn wan_bw_bps(&self, id: NodeId) -> u64 {
        self.wan_bw_overrides
            .get(&id)
            .copied()
            .unwrap_or(self.default_wan_bw_bps)
    }

    /// Virtual time to serialize `bytes` onto `id`'s WAN uplink.
    pub fn wan_tx_time(&self, id: NodeId, bytes: usize) -> Time {
        tx_time(bytes, self.wan_bw_bps(id))
    }

    /// Virtual time to serialize `bytes` onto the LAN.
    pub fn lan_tx_time(&self, bytes: usize) -> Time {
        tx_time(bytes, self.lan_bw_bps)
    }

    /// One-way latency from `src` to `dst` (LAN if same group).
    pub fn latency(&self, src: NodeId, dst: NodeId) -> Time {
        if src.group == dst.group {
            self.lan_latency_us
        } else {
            self.wan_latency_us[src.group as usize][dst.group as usize]
        }
    }

    /// Whether two nodes communicate over the WAN.
    pub fn is_wan(&self, src: NodeId, dst: NodeId) -> bool {
        src.group != dst.group
    }
}

/// Node id → dense index. Node ids in a topology are contiguous
/// (group-major), so every per-node table in either driver is a `Vec`
/// indexed by a prefix sum of the group sizes, not a map.
#[derive(Debug, Clone)]
pub struct DenseIndex {
    group_sizes: Vec<usize>,
    /// Per-group base offset (prefix sums of the group sizes).
    base: Vec<usize>,
}

impl DenseIndex {
    /// The index of a cluster with the given group sizes.
    pub fn new(group_sizes: &[usize]) -> Self {
        let mut acc = 0usize;
        let mut base = Vec::with_capacity(group_sizes.len());
        for &size in group_sizes {
            base.push(acc);
            acc += size;
        }
        DenseIndex {
            group_sizes: group_sizes.to_vec(),
            base,
        }
    }

    /// Total number of nodes (one past the largest index).
    pub fn node_count(&self) -> usize {
        self.group_sizes.iter().sum()
    }

    /// Number of nodes in group `g` (0 for a group outside the cluster).
    pub fn group_size(&self, g: u32) -> usize {
        self.group_sizes.get(g as usize).copied().unwrap_or(0)
    }

    /// Dense index of a node; panics on ids outside the topology (such a
    /// message could only come from buggy actor logic).
    #[inline]
    pub fn of(&self, id: NodeId) -> usize {
        let g = id.group as usize;
        assert!(
            g < self.base.len() && (id.node as usize) < self.group_sizes[g],
            "unknown node {id:?}"
        );
        self.base[g] + id.node as usize
    }
}

/// Deterministic synthetic one-way latency for group pairs beyond the
/// 7 named data centers of a preset: a splitmix-style hash of the
/// unordered pair, folded into `[min_ms, max_ms]`. Symmetric by
/// construction, and stable across runs (no RNG state involved).
fn synth_latency_ms(a: usize, b: usize, min_ms: u64, max_ms: u64) -> u64 {
    let (lo, hi) = if a <= b { (a, b) } else { (b, a) };
    let mut z = (lo as u64) << 32 | hi as u64;
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^= z >> 31;
    min_ms + z % (max_ms - min_ms + 1)
}

/// `bytes` over a link of `bps` bits per second, in microseconds
/// (rounded up so zero-size messages still take nonzero queue slots only
/// when bandwidth is finite).
fn tx_time(bytes: usize, bps: u64) -> Time {
    if bps == 0 {
        return 0;
    }
    ((bytes as u128 * 8 * SECOND as u128).div_ceil(bps as u128)) as Time
}

/// Fluent builder with presets for the paper's two clusters.
#[derive(Debug, Clone)]
pub struct TopologyBuilder {
    group_sizes: Vec<usize>,
    wan_latency_us: Option<Vec<Vec<Time>>>,
    uniform_wan_latency_us: Time,
    lan_latency_us: Time,
    default_wan_bw_bps: u64,
    wan_bw_overrides: BTreeMap<NodeId, u64>,
    lan_bw_bps: u64,
    control_cutoff_bytes: usize,
}

impl TopologyBuilder {
    /// Starts a topology with the given group sizes.
    pub fn new(group_sizes: &[usize]) -> Self {
        TopologyBuilder {
            group_sizes: group_sizes.to_vec(),
            wan_latency_us: None,
            uniform_wan_latency_us: 17 * MILLISECOND,
            lan_latency_us: 300,            // 0.3 ms, typical intra-DC
            default_wan_bw_bps: 20_000_000, // 20 Mbps, the paper's default
            wan_bw_overrides: BTreeMap::new(),
            lan_bw_bps: 2_500_000_000,  // 2.5 Gbps
            control_cutoff_bytes: 1500, // one MTU
        }
    }

    /// The paper's *nationwide* cluster: Zhangjiakou / Chengdu / Hangzhou,
    /// RTT 26.7–43.4 ms. One-way latencies are half the measured RTTs.
    /// Extra groups (the Fig. 13b scale-out adds Shenzhen, Beijing,
    /// Shanghai, Guangzhou) get latencies in the same band; beyond the 7
    /// named data centers, synthetic DCs get deterministic in-band
    /// latencies so the Fig. 7 scalability sweep can run 8–16 groups.
    pub fn nationwide(group_sizes: &[usize]) -> Self {
        // One-way latency matrix in milliseconds, symmetric. The three
        // anchor RTTs from the paper: 26.7, 34.8, 43.4 (interpolated), plus
        // same-band values for the four scale-out DCs.
        const ONE_WAY_MS: [[u64; 7]; 7] = [
            [0, 13, 22, 17, 14, 16, 18],
            [13, 0, 17, 15, 18, 17, 16],
            [22, 17, 0, 14, 16, 13, 15],
            [17, 15, 14, 0, 17, 14, 13],
            [14, 18, 16, 17, 0, 15, 17],
            [16, 17, 13, 14, 15, 0, 14],
            [18, 16, 15, 13, 17, 14, 0],
        ];
        Self::from_latency_table(group_sizes, &ONE_WAY_MS, 13, 22)
    }

    /// The paper's *worldwide* cluster: Hong Kong / London / Silicon
    /// Valley, RTT 156–206 ms. Beyond 7 groups, synthetic DCs get
    /// deterministic latencies in the same band.
    pub fn worldwide(group_sizes: &[usize]) -> Self {
        const ONE_WAY_MS: [[u64; 7]; 7] = [
            [0, 98, 78, 88, 95, 85, 90],
            [98, 0, 103, 92, 88, 97, 95],
            [78, 103, 0, 85, 90, 88, 93],
            [88, 92, 85, 0, 95, 90, 87],
            [95, 88, 90, 95, 0, 86, 92],
            [85, 97, 88, 90, 86, 0, 89],
            [90, 95, 93, 87, 92, 89, 0],
        ];
        Self::from_latency_table(group_sizes, &ONE_WAY_MS, 78, 103)
    }

    fn from_latency_table(
        group_sizes: &[usize],
        table: &[[u64; 7]; 7],
        band_min_ms: u64,
        band_max_ms: u64,
    ) -> Self {
        let n = group_sizes.len();
        let matrix: Vec<Vec<Time>> = (0..n)
            .map(|a| {
                (0..n)
                    .map(|b| {
                        let ms = if a == b {
                            0
                        } else if a < 7 && b < 7 {
                            table[a][b]
                        } else {
                            synth_latency_ms(a, b, band_min_ms, band_max_ms)
                        };
                        ms * MILLISECOND
                    })
                    .collect()
            })
            .collect();
        let mut b = Self::new(group_sizes);
        b.wan_latency_us = Some(matrix);
        b
    }

    /// Sets a uniform one-way WAN latency for all group pairs.
    pub fn uniform_wan_latency_ms(mut self, ms: u64) -> Self {
        self.uniform_wan_latency_us = ms * MILLISECOND;
        self.wan_latency_us = None;
        self
    }

    /// Sets the default per-node WAN uplink bandwidth in Mbps.
    pub fn wan_bandwidth_mbps(mut self, mbps: u64) -> Self {
        self.default_wan_bw_bps = mbps * 1_000_000;
        self
    }

    /// Overrides one node's WAN bandwidth in Mbps (Fig. 14).
    pub fn node_bandwidth_mbps(mut self, id: NodeId, mbps: u64) -> Self {
        self.wan_bw_overrides.insert(id, mbps * 1_000_000);
        self
    }

    /// Sets the one-way LAN latency in microseconds.
    pub fn lan_latency_us(mut self, us: Time) -> Self {
        self.lan_latency_us = us;
        self
    }

    /// Sets the control-message cutoff (bytes). Messages at or below this
    /// size are not head-of-line blocked on the WAN uplink FIFO. Zero
    /// disables the control lane (strict whole-message FIFO).
    pub fn control_cutoff_bytes(mut self, bytes: usize) -> Self {
        self.control_cutoff_bytes = bytes;
        self
    }

    /// Finalizes the topology.
    pub fn build(self) -> Topology {
        let n = self.group_sizes.len();
        let wan_latency_us = self.wan_latency_us.unwrap_or_else(|| {
            (0..n)
                .map(|a| {
                    (0..n)
                        .map(|b| {
                            if a == b {
                                0
                            } else {
                                self.uniform_wan_latency_us
                            }
                        })
                        .collect()
                })
                .collect()
        });
        Topology {
            group_sizes: self.group_sizes,
            wan_latency_us,
            lan_latency_us: self.lan_latency_us,
            default_wan_bw_bps: self.default_wan_bw_bps,
            wan_bw_overrides: self.wan_bw_overrides,
            lan_bw_bps: self.lan_bw_bps,
            control_cutoff_bytes: self.control_cutoff_bytes,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nationwide_preset_matches_paper_band() {
        let t = TopologyBuilder::nationwide(&[7, 7, 7]).build();
        assert_eq!(t.group_count(), 3);
        assert_eq!(t.node_count(), 21);
        // RTT band 26.7–43.4 ms → one-way 13–22 ms.
        for a in 0..3u32 {
            for b in 0..3u32 {
                if a == b {
                    continue;
                }
                let l = t.wan_latency_us[a as usize][b as usize];
                assert!((13 * MILLISECOND..=22 * MILLISECOND).contains(&l));
            }
        }
        assert_eq!(t.default_wan_bw_bps, 20_000_000);
    }

    #[test]
    fn worldwide_preset_has_higher_latency() {
        let t = TopologyBuilder::worldwide(&[7, 7, 7]).build();
        for a in 0..3usize {
            for b in 0..3usize {
                if a == b {
                    continue;
                }
                assert!(t.wan_latency_us[a][b] >= 78 * MILLISECOND);
            }
        }
    }

    #[test]
    fn tx_time_math() {
        let t = TopologyBuilder::new(&[2, 2]).wan_bandwidth_mbps(20).build();
        // 20 Mbps = 2.5 MB/s → 1 MB takes 0.4 s.
        let us = t.wan_tx_time(NodeId::new(0, 0), 1_000_000);
        assert_eq!(us, 400_000);
        // LAN at 2.5 Gbps: 1 MB takes 3.2 ms.
        assert_eq!(t.lan_tx_time(1_000_000), 3_200);
    }

    #[test]
    fn bandwidth_override_applies() {
        let slow = NodeId::new(0, 1);
        let t = TopologyBuilder::new(&[2])
            .wan_bandwidth_mbps(40)
            .node_bandwidth_mbps(slow, 20)
            .build();
        assert_eq!(t.wan_bw_bps(NodeId::new(0, 0)), 40_000_000);
        assert_eq!(t.wan_bw_bps(slow), 20_000_000);
        assert!(t.wan_tx_time(slow, 1000) > t.wan_tx_time(NodeId::new(0, 0), 1000));
    }

    #[test]
    fn latency_selects_lan_or_wan() {
        let t = TopologyBuilder::new(&[2, 2])
            .uniform_wan_latency_ms(17)
            .build();
        assert_eq!(t.latency(NodeId::new(0, 0), NodeId::new(0, 1)), 300);
        assert_eq!(t.latency(NodeId::new(0, 0), NodeId::new(1, 0)), 17_000);
        assert!(!t.is_wan(NodeId::new(0, 0), NodeId::new(0, 1)));
        assert!(t.is_wan(NodeId::new(0, 0), NodeId::new(1, 1)));
    }

    #[test]
    fn node_iteration_order_is_group_major() {
        let t = TopologyBuilder::new(&[2, 1]).build();
        let ids: Vec<NodeId> = t.nodes().collect();
        assert_eq!(
            ids,
            vec![NodeId::new(0, 0), NodeId::new(0, 1), NodeId::new(1, 0)]
        );
        assert_eq!(t.group_nodes(1).count(), 1);
        assert_eq!(t.group_nodes(5).count(), 0);
    }

    #[test]
    fn uniform_builder_supports_many_groups() {
        // The named presets cover ≤ 7 groups; the uniform builder has no
        // such limit (scale-out experiments beyond the paper's clusters).
        let t = TopologyBuilder::new(&[3; 12])
            .uniform_wan_latency_ms(25)
            .build();
        assert_eq!(t.group_count(), 12);
        assert_eq!(t.latency(NodeId::new(0, 0), NodeId::new(11, 2)), 25_000);
        assert_eq!(t.latency(NodeId::new(4, 0), NodeId::new(4, 1)), 300);
    }

    #[test]
    fn presets_scale_past_7_groups_in_band() {
        // The Fig. 7 sweep needs up to 16 groups; synthesized latencies
        // must stay inside each preset's band, be symmetric, and keep the
        // named 7×7 table byte-identical.
        let t16 = TopologyBuilder::nationwide(&[4; 16]).build();
        let t7 = TopologyBuilder::nationwide(&[4; 7]).build();
        for a in 0..16 {
            for b in 0..16 {
                let l = t16.wan_latency_us[a][b];
                if a == b {
                    assert_eq!(l, 0);
                    continue;
                }
                assert!(
                    (13 * MILLISECOND..=22 * MILLISECOND).contains(&l),
                    "{a}->{b}: {l}"
                );
                assert_eq!(l, t16.wan_latency_us[b][a], "asymmetric {a}<->{b}");
                if a < 7 && b < 7 {
                    assert_eq!(l, t7.wan_latency_us[a][b], "named table changed");
                }
            }
        }
        let w = TopologyBuilder::worldwide(&[4; 12]).build();
        for a in 0..12 {
            for b in 0..12 {
                if a != b {
                    let l = w.wan_latency_us[a][b];
                    assert!((78 * MILLISECOND..=103 * MILLISECOND).contains(&l));
                }
            }
        }
        // Determinism: rebuilding yields the identical matrix.
        let again = TopologyBuilder::nationwide(&[4; 16]).build();
        assert_eq!(t16.wan_latency_us, again.wan_latency_us);
    }

    #[test]
    fn control_cutoff_configurable() {
        let t = TopologyBuilder::new(&[2]).control_cutoff_bytes(0).build();
        assert_eq!(t.control_cutoff_bytes, 0);
        let d = TopologyBuilder::new(&[2]).build();
        assert_eq!(d.control_cutoff_bytes, 1500);
    }

    #[test]
    fn zero_bandwidth_means_infinite() {
        // bps = 0 is the sentinel for "don't model serialization".
        assert_eq!(super::tx_time(12345, 0), 0);
    }
}
