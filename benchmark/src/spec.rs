//! The four workloads. Names are fixed: later issues cite them.

use crate::api::{Time, WorkloadKind, MILLISECOND, SECOND};

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Driver {
    /// Deterministic simulator: time is virtual, results repeat per seed.
    Sim,
    /// `massbft-runtime` threads over loopback TCP: time is wall-clock.
    Tcp,
}

pub struct Spec {
    pub name: &'static str,
    pub why: &'static str,
    pub driver: Driver,
    pub groups: usize,
    pub size: usize,
    pub kind: WorkloadKind,
    /// Open-loop arrivals per group, generated inside each representative.
    pub tps_per_group: f64,
    pub max_batch: usize,
    /// Load runs this long (driver clock) before the window opens.
    pub warmup_us: Time,
    /// Window length per rep, in µs of the driver's clock for each second
    /// of `--seconds`. For the simulator these are calibrated so that a run
    /// measures for about `--seconds` of wall time on the 2-core host the
    /// benchmark was sized on.
    pub window_us_per_second: Time,
    /// Reps per untraced run; each builds a fresh cluster on the same seed.
    pub reps: usize,
    /// Whether the crash / recover / partition / heal schedule applies.
    pub faults: bool,
    /// Aria's deterministic same-batch fallback (`ClusterConfig::exec_fallback`):
    /// conflict-aborted transactions re-run serially and commit. On for the
    /// wall-clock workload, where no operation may fail; off (the program's
    /// default) elsewhere.
    pub exec_fallback: bool,
}

impl Spec {
    pub fn window_us(&self, seconds: f64) -> Time {
        ((self.window_us_per_second as f64 * seconds) as Time).max(50 * MILLISECOND)
    }
}

pub const WORKLOADS: [Spec; 4] = [
    Spec {
        name: "sim_3x7_peak",
        why: "Headline 3x7 cluster at WAN saturation: 100 KB entries make codec, crypto, pbft and db do the host work; ordering is nearly idle.",
        driver: Driver::Sim,
        groups: 3,
        size: 7,
        kind: WorkloadKind::YcsbA,
        tps_per_group: 100_000.0,
        max_batch: 500,
        warmup_us: SECOND,
        window_us_per_second: 100 * MILLISECOND,
        reps: 3,
        faults: false,
        exec_fallback: false,
    },
    Spec {
        name: "sim_12x4_scale",
        why: "Many small groups: Raft/VTS control traffic, ordering and simulator dispatch dominate; 40-txn entries keep codec and crypto light.",
        driver: Driver::Sim,
        groups: 12,
        size: 4,
        kind: WorkloadKind::YcsbA,
        tps_per_group: 2_000.0,
        max_batch: 100,
        warmup_us: 600 * MILLISECOND,
        window_us_per_second: 40 * MILLISECOND,
        reps: 3,
        faults: false,
        exec_fallback: false,
    },
    Spec {
        name: "sim_3x4_faults",
        why: "SmallBank through a rep crash, its recovery, and a group partition and heal: pbft view change, takeover and repair paths, load kept on schedule.",
        driver: Driver::Sim,
        groups: 3,
        size: 4,
        kind: WorkloadKind::SmallBank,
        tps_per_group: 3_000.0,
        max_batch: 60,
        warmup_us: SECOND,
        window_us_per_second: 750 * MILLISECOND,
        reps: 5,
        faults: true,
        exec_fallback: false,
    },
    Spec {
        name: "tcp_3x4_steady",
        why: "The only wall-clock workload: frame codec, connection manager, timer wheel, threads and syscalls at a quarter of this host's knee, with Aria's abort fallback on so that no transaction fails.",
        driver: Driver::Tcp,
        groups: 3,
        size: 4,
        kind: WorkloadKind::YcsbA,
        tps_per_group: 2_500.0,
        max_batch: 100,
        warmup_us: SECOND,
        window_us_per_second: 333_333,
        reps: 3,
        faults: false,
        exec_fallback: true,
    },
];

pub fn find(name: &str) -> Option<&'static Spec> {
    WORKLOADS.iter().find(|w| w.name == name)
}

/// The fault schedule of `sim_3x4_faults` — crash, recover, partition, heal —
/// as fractions of the window past its opening: with the nominal 1 s warm-up
/// and 15 s window the events land at 3 s, 8 s, 10 s and 12 s of virtual
/// time. The crash and the partition land up to [`FAULT_JITTER`] of the
/// window (100 ms) later, by seed; the recovery and the heal stay put,
/// because the program's outcome is bimodal in the recovery instant
/// (~5 150 or ~5 450 committed tps), which no bound could cover.
pub const FAULT_SCHEDULE: [f64; 4] = [2.0 / 15.0, 7.0 / 15.0, 9.0 / 15.0, 11.0 / 15.0];
pub const FAULT_JITTER: f64 = 1.0 / 150.0;

/// Where in `[0, 1)` of the jitter span fault `index` lands for `seed`
/// (splitmix64). SmallBank requests all have one size, so without this the
/// simulator's timing would not depend on the seed at all and every seed
/// would hit the same phase of the batch and heartbeat timers.
pub fn fault_jitter(seed: u64, index: u64) -> f64 {
    let mut z = seed
        .wrapping_add(index.wrapping_mul(0x9E37_79B9_7F4A_7C15))
        .wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    ((z ^ (z >> 31)) >> 11) as f64 / (1u64 << 53) as f64
}
