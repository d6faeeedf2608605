//! The scalability sweep, on either driver: MassBFT throughput as group
//! count and group size grow, on the nationwide and worldwide latency
//! presets — one point table per driver, one measurement.
//!
//! `--driver sim` (the default) runs the Fig. 7 grid on the
//! deterministic simulator and writes `BENCH_scale.json`; `--driver tcp`
//! runs the acceptance grid on the real-TCP runtime (`massbft-runtime`:
//! loopback sockets, netem-style latency from the same presets) and
//! writes `BENCH_wallclock.json`. Every record carries committed
//! throughput, p50/p99 commit latency, WAN bytes per committed
//! transaction, wall-clock and the observer's ledger head. The simulator
//! adds events/s and the final virtual time, so before/after refactors
//! can prove byte-identical behavior on fixed seeds; TCP adds the
//! *transport-truth* costs the simulator can only model: actual TCP
//! bytes, write/read syscalls and readiness waits per committed
//! transaction, frames, and the write-coalescing ratio.
//!
//! ```text
//! cargo run --release -p massbft-bench --bin sweep
//! cargo run --release -p massbft-bench --bin sweep -- --only worldwide-8x8
//! cargo run --release -p massbft-bench --bin sweep -- --smoke --budget-secs 120
//! cargo run --release -p massbft-bench --bin sweep -- --driver tcp
//! cargo run --release -p massbft-bench --bin sweep -- --driver tcp --smoke
//! cargo run --release -p massbft-bench --bin sweep -- --driver tcp --mode process --only nationwide-3x4
//! ```
//!
//! `--smoke` is the CI gate. On the simulator it runs the 4×4 nationwide
//! and 8×8 worldwide points twice each on the same seed and fails if the
//! two runs disagree on ledger head or final virtual time (a determinism
//! regression); on TCP it runs one small nationwide point over a short
//! window and fails on zero progress. Both fail on inconsistent ledgers
//! or a blown wall-clock budget.
//!
//! `--mode process` (TCP) hosts group 0 in this process and forks one
//! child process per remaining group (fixed-port address scheme, no
//! coordination); the parent cross-checks every child's ledger block
//! hashes against its own for prefix agreement across process
//! boundaries. `--ops-base PORT` serves the live ops plane for
//! `bench --bin obs`: the parent at `PORT`, child group `g` at `PORT + g`.

use massbft_bench::report::{self, cli::Flags, Json, Obj, Verdict};
use massbft_bench::run::{self, hex, Measured};
use massbft_core::cluster::Region::{Nationwide, Worldwide};
use massbft_core::cluster::{self as sim, ClusterConfig, Region};
use massbft_core::protocol::Protocol;
use massbft_runtime::{self as tcp, HostSpec, OpsConfig};
use massbft_sim_net::SECOND;
use massbft_telemetry::{self as telemetry, registry};
use massbft_workloads::WorkloadKind;
use std::io::{BufRead, BufReader};
use std::process::{Child, Command, Stdio};
use std::time::Instant;

/// Block hashes reported per process for the cross-process prefix
/// check (hash `i` covers the whole chain up to height `i+1`, so a
/// capped list still proves prefix agreement).
const PREFIX_CAP: usize = 128;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum DriverKind {
    Sim,
    Tcp,
}

/// One sweep point: `groups` groups of `size` nodes on `region`.
struct Point {
    region: Region,
    groups: usize,
    size: usize,
    /// Per-point multiplier on `--arrival-tps`.
    tps_scale: f64,
}

const fn point(region: Region, groups: usize, size: usize, tps_scale: f64) -> Point {
    Point {
        region,
        groups,
        size,
        tps_scale,
    }
}

/// The simulator grid: group count 2→16 at size 4, group size 4→32 at
/// 3 groups, plus the paper-scale corners (128-node topologies) and the
/// worldwide acceptance points.
static SIM_SWEEP: [Point; 10] = [
    point(Nationwide, 2, 4, 1.0),
    point(Nationwide, 4, 4, 1.0),
    point(Nationwide, 8, 4, 1.0),
    point(Nationwide, 16, 4, 1.0),
    point(Nationwide, 3, 8, 1.0),
    point(Nationwide, 3, 16, 1.0),
    point(Nationwide, 3, 32, 1.0),
    point(Nationwide, 16, 8, 1.0),
    point(Worldwide, 8, 8, 1.0),
    point(Worldwide, 4, 32, 1.0),
];

/// The TCP acceptance grid: nationwide and worldwide at 3×4 and 4×8
/// nodes. Every node here shares one CPU core, so the 32-node points
/// must be offered less load per group or execution falls behind, PBFT
/// timers expire, and the resulting view-change storm commits nothing.
static TCP_SWEEP: [Point; 4] = [
    point(Nationwide, 3, 4, 1.0),
    point(Worldwide, 3, 4, 1.0),
    point(Nationwide, 4, 8, 0.32),
    point(Worldwide, 4, 8, 0.32),
];

struct Args {
    driver: DriverKind,
    secs: u64,
    seed: u64,
    arrival_tps: f64,
    max_batch: usize,
    out: String,
    only: Option<String>,
    smoke: bool,
    budget_secs: u64,
    /// TCP: `thread` hosts the cluster in this process, `process` forks
    /// one OS process per group.
    mode: &'static str,
    /// TCP: ops-plane port base, 0 for no ops plane.
    ops_base: u16,
    /// TCP, set on the re-exec'd children of `--mode process`: host
    /// these groups of the `--only` point. Empty in the parent.
    child_groups: Vec<u32>,
}

fn parse_args() -> Args {
    let mut f = Flags::from_env("sweep");
    let driver = f
        .opt_with("--driver", "sim|tcp", |s| match s {
            "sim" => Some(DriverKind::Sim),
            "tcp" => Some(DriverKind::Tcp),
            _ => None,
        })
        .unwrap_or(DriverKind::Sim);
    let tcp = driver == DriverKind::Tcp;
    let smoke = f.switch("--smoke");
    let args = Args {
        driver,
        smoke,
        // A wall-clock second costs a second: the TCP defaults are the
        // shortest windows that still settle.
        secs: f.value("--secs", "N", if !tcp || smoke { 2 } else { 4 }),
        seed: f.value("--seed", "N", 7),
        arrival_tps: f.value("--arrival-tps", "N", if tcp { 2500.0 } else { 2000.0 }),
        max_batch: f.value("--max-batch", "N", 100),
        out: f.value(
            "--out",
            "FILE",
            format!("BENCH_{}.json", if tcp { "wallclock" } else { "scale" }),
        ),
        only: f.opt("--only", "SUBSTRING"),
        budget_secs: f.value("--budget-secs", "N", if tcp { 240 } else { 180 }),
        mode: f
            .opt_with("--mode", "thread|process (tcp)", |s| {
                ["thread", "process"].into_iter().find(|mode| *mode == s)
            })
            .unwrap_or("thread"),
        ops_base: f.value("--ops-base", "PORT (tcp)", 0),
        child_groups: f.list("--child-groups", "G,... (tcp, re-exec)", Vec::new()),
    };
    if !tcp && (args.mode == "process" || args.ops_base != 0 || !args.child_groups.is_empty()) {
        f.fail("--mode process, --ops-base and --child-groups need --driver tcp");
    }
    f.done();
    args
}

impl Point {
    /// `nationwide-4x4`: what `--only` matches and the records carry.
    fn name(&self) -> String {
        format!("{}-{}x{}", self.region.name(), self.groups, self.size)
    }

    fn config(&self, args: &Args) -> ClusterConfig {
        ClusterConfig::in_region(
            self.region,
            &vec![self.size; self.groups],
            Protocol::MassBft,
        )
        .workload(WorkloadKind::YcsbA)
        .seed(args.seed)
        .arrival_tps(args.arrival_tps * self.tps_scale)
        .max_batch(args.max_batch)
    }

    /// Where the processes of a `--mode process` run of this point
    /// listen: a port range of its own, worked out from the name alone
    /// so parent and children agree without coordination.
    fn port_base(&self) -> u16 {
        // FNV-1a.
        let hash = self
            .name()
            .bytes()
            .fold(2166136261u32, |h, b| (h ^ b as u32).wrapping_mul(16777619));
        42000 + (hash % 64) as u16 * 300
    }
}

/// The columns only one driver can fill.
#[derive(PartialEq)]
enum DriverCols {
    Sim { events: u64, final_vtime_us: u64 },
    Tcp(NetCounters),
}

struct PointResult<'a> {
    point: &'a Point,
    measured: Measured,
    /// The window's consistency check and, in process mode, every
    /// child's verdict and prefix agreement.
    consistent: bool,
    cols: DriverCols,
}

impl PointResult<'_> {
    fn txns(&self) -> u64 {
        self.measured.report.throughput.txns
    }

    fn per_txn(&self, total: u64) -> f64 {
        total as f64 / self.txns().max(1) as f64
    }
}

/// Runs one sweep point: fresh cluster, 1 s warmup, `secs` measured.
fn run_point<'a>(p: &'a Point, args: &Args) -> PointResult<'a> {
    let cfg = p.config(args);
    let window = args.secs * SECOND;
    let (measured, consistent, cols) = match args.driver {
        DriverKind::Sim => {
            let mut cluster = sim::Cluster::new(cfg);
            let measured = run::measure(&mut cluster, SECOND, window);
            let sim = cluster.sim_mut();
            let cols = DriverCols::Sim {
                events: sim.metrics().events_processed,
                final_vtime_us: sim.now(),
            };
            let consistent = measured.report.all_nodes_consistent;
            (measured, consistent, cols)
        }
        DriverKind::Tcp => {
            // In process mode the metrics cover this process's share of
            // the transport (group 0 plus the observer's ledger).
            let (mut cluster, children) = if args.mode == "process" {
                let children: Vec<Child> = (1..p.groups as u32)
                    .map(|g| spawn_child(p, args, g))
                    .collect();
                let host = HostSpec::groups(&[0], p.port_base());
                (tcp::Cluster::new_hosted(cfg, Some(host)), children)
            } else {
                (tcp::Cluster::new(cfg), Vec::new())
            };
            serve_ops(&mut cluster, args.ops_base);
            let (measured, net) = run::measure_with(cluster.harness_mut(), SECOND, |h| {
                let base = NetCounters::read();
                h.run_until(h.now() + window);
                NetCounters::read().since(&base)
            });
            let prefix = block_hashes(&cluster, cluster.observer());
            let mut consistent = measured.report.all_nodes_consistent;
            for child in children {
                consistent &= join_child(child, &prefix);
            }
            (measured, consistent, DriverCols::Tcp(net))
        }
    };
    PointResult {
        point: p,
        measured,
        consistent,
        cols,
    }
}

/// The process-wide transport counters, or a difference of two reads.
#[derive(PartialEq)]
struct NetCounters {
    bytes: u64,
    syscalls: u64,
    polls: u64,
    frames_out: u64,
    coalesced: u64,
}

impl NetCounters {
    fn read() -> Self {
        let counter = |name| registry::counter(name).get();
        NetCounters {
            bytes: counter("net.tcp_bytes_out") + counter("net.tcp_bytes_in"),
            syscalls: counter("net.syscalls_write") + counter("net.syscalls_read"),
            polls: counter("net.syscalls_poll"),
            frames_out: counter("net.frames_out"),
            coalesced: counter("net.coalesced_writes"),
        }
    }

    fn since(&self, base: &NetCounters) -> NetCounters {
        NetCounters {
            bytes: self.bytes - base.bytes,
            syscalls: self.syscalls - base.syscalls,
            polls: self.polls - base.polls,
            frames_out: self.frames_out - base.frames_out,
            coalesced: self.coalesced - base.coalesced,
        }
    }

    fn coalesce_ratio(&self) -> f64 {
        self.coalesced as f64 / self.frames_out.max(1) as f64
    }
}

/// Serves the live ops plane on `127.0.0.1:port` for an external
/// scraper; port 0 means none was asked for.
fn serve_ops(cluster: &mut tcp::Cluster, port: u16) {
    if port == 0 {
        return;
    }
    telemetry::set_enabled(true);
    let oc = OpsConfig {
        addr: ([127, 0, 0, 1], port).into(),
        ..OpsConfig::default()
    };
    let addr = cluster.start_ops(oc).expect("start ops server");
    println!("ops: http://{addr}/status");
}

/// The first [`PREFIX_CAP`] block hashes of a hosted node's ledger.
fn block_hashes(cluster: &tcp::Cluster, id: massbft_sim_net::NodeId) -> Vec<String> {
    cluster.with_node(id, |n| {
        let blocks = n.ledger().blocks().iter().take(PREFIX_CAP);
        blocks.map(|b| hex(b.hash.as_bytes())).collect()
    })
}

fn spawn_child(p: &Point, args: &Args, group: u32) -> Child {
    let exe = std::env::current_exe().expect("current_exe");
    let mut cmd = Command::new(exe);
    if args.ops_base != 0 {
        // Deterministic ops address scheme: child group g serves its
        // introspection endpoints at ops_base + g.
        cmd.args(["--ops-base", &(args.ops_base + group as u16).to_string()]);
    }
    // Children run warmup + window + 1 s grace so the parent's window
    // never outlives its peers.
    let flags = [
        ("--driver", "tcp".to_string()),
        ("--child-groups", group.to_string()),
        ("--only", p.name()),
        ("--secs", (args.secs + 2).to_string()),
        ("--seed", args.seed.to_string()),
        ("--arrival-tps", args.arrival_tps.to_string()),
        ("--max-batch", args.max_batch.to_string()),
    ];
    for (flag, value) in flags {
        cmd.args([flag, &value]);
    }
    cmd.stdout(Stdio::piped())
        .spawn()
        .expect("spawn child process")
}

/// What a child with consistent ledgers prints, followed by its first
/// [`PREFIX_CAP`] block hashes, comma-separated.
const CHILD_RESULT: &str = "CHILD_RESULT consistent=true hashes=";

/// Waits for a child and checks that its ledgers were consistent and
/// its block hashes prefix-agree with the parent's.
fn join_child(mut child: Child, parent_prefix: &[String]) -> bool {
    let out = child.stdout.take().expect("child stdout");
    let reported = BufReader::new(out)
        .lines()
        .map_while(Result::ok)
        .filter_map(|l| l.strip_prefix(CHILD_RESULT).map(str::to_owned))
        .last();
    let ok_exit = child.wait().map(|s| s.success()).unwrap_or(false);
    let Some(reported) = reported else {
        eprintln!("child reported no consistent ledger");
        return false;
    };
    let hashes: Vec<&str> = reported.split(',').filter(|h| !h.is_empty()).collect();
    let k = hashes.len().min(parent_prefix.len());
    let agree = k > 0 && hashes[..k].iter().zip(parent_prefix).all(|(a, b)| a == b);
    if !agree {
        eprintln!("child ledger prefix disagrees with parent at first {k} blocks");
    }
    ok_exit && agree
}

/// Child-process entry: host `--child-groups` of the `--only` point,
/// run, report, exit.
fn run_child(args: &Args) -> ! {
    let named = |p: &&Point| Some(p.name()) == args.only;
    let p = TCP_SWEEP.iter().find(named).expect("--only names a point");
    let host = HostSpec::groups(&args.child_groups, p.port_base());
    let mut cluster = tcp::Cluster::new_hosted(p.config(args), Some(host));
    serve_ops(&mut cluster, args.ops_base);
    cluster.run_until(args.secs * SECOND);
    if !cluster.check_consistency() {
        std::process::exit(1);
    }
    let hashes = block_hashes(&cluster, cluster.hosted_nodes()[0]).join(",");
    println!("{CHILD_RESULT}{hashes}");
    std::process::exit(0);
}

/// One record of the document. Each driver's records keep the key order
/// of its checked-in recording.
fn point_json(r: &PointResult, args: &Args) -> Json {
    let m = &r.measured;
    let p = r.point;
    let nodes = p.groups * p.size;
    let tps = m.report.throughput.tps();
    let o = Obj::new().set("name", p.name());
    let o = match &r.cols {
        DriverCols::Sim { .. } => o
            .set("region", p.region.name())
            .set("groups", p.groups)
            .set("group_size", p.size)
            .set("nodes", nodes)
            .set("tps", Json::fixed(tps, 1)),
        DriverCols::Tcp(_) => o
            .set("mode", args.mode)
            .set("nodes", nodes)
            .set("ktps", Json::fixed(tps / 1e3, 2)),
    };
    let o = o
        .set("p50_latency_ms", Json::fixed(m.p50_ms, 2))
        .set("p99_latency_ms", Json::fixed(m.p99_ms, 2));
    let wan = Json::fixed(r.per_txn(m.report.wan_bytes), 1);
    let o = match &r.cols {
        DriverCols::Sim { events, .. } => o
            .set("wan_bytes_per_txn", wan)
            .set("events", *events)
            .set(
                "events_per_sec",
                Json::fixed(*events as f64 / m.wall_secs.max(1e-9), 0),
            )
            .set("wall_secs", Json::fixed(m.wall_secs, 3)),
        DriverCols::Tcp(net) => o
            .set("committed_txns", r.txns())
            .set("tcp_bytes_per_txn", Json::fixed(r.per_txn(net.bytes), 1))
            .set("syscalls_per_txn", Json::fixed(r.per_txn(net.syscalls), 3))
            .set("polls_per_txn", Json::fixed(r.per_txn(net.polls), 3))
            .set("frames_out", net.frames_out)
            .set("coalesce_ratio", Json::fixed(net.coalesce_ratio(), 3))
            .set("wan_bytes_per_txn", wan)
            .set("wall_secs", Json::fixed(m.wall_secs, 2)),
    };
    let o = o.set("consistent", r.consistent);
    match &r.cols {
        DriverCols::Sim { final_vtime_us, .. } => o
            .set("ledger_head", m.ledger_head.as_str())
            .set("final_vtime_us", *final_vtime_us),
        DriverCols::Tcp(_) => o
            .set("ledger_height", m.ledger_height)
            .set("ledger_head", m.ledger_head.as_str()),
    }
    .into()
}

fn print_header(driver: DriverKind) {
    let own = match driver {
        DriverKind::Sim => format!("{:>11}", "events/s"),
        DriverKind::Tcp => format!("{:>10} {:>9} {:>8}", "tcpB/txn", "sysc/txn", "coalesce"),
    };
    println!(
        "{:<18} {:>5} {:>8} {:>9} {:>9} {:>10} {own} {:>9}",
        "point", "nodes", "tps", "p50 ms", "p99 ms", "wanB/txn", "wall"
    );
}

fn print_row(r: &PointResult) {
    let m = &r.measured;
    let own = match &r.cols {
        DriverCols::Sim { events, .. } => {
            format!("{:>11.0}", *events as f64 / m.wall_secs.max(1e-9))
        }
        DriverCols::Tcp(net) => format!(
            "{:>10.0} {:>9.3} {:>8.3}",
            r.per_txn(net.bytes),
            r.per_txn(net.syscalls),
            net.coalesce_ratio()
        ),
    };
    println!(
        "{:<18} {:>5} {:>8.0} {:>9.1} {:>9.1} {:>10.0} {own} {:>8.2}s  {}",
        r.point.name(),
        r.point.groups * r.point.size,
        m.report.throughput.tps(),
        m.p50_ms,
        m.p99_ms,
        r.per_txn(m.report.wan_bytes),
        m.wall_secs,
        if r.consistent { "ok" } else { "DIVERGED" }
    );
}

/// The document around the records: the `bench` tag of the recording it
/// re-records, the configuration, and the smoke gate's budget and wall.
fn document(args: &Args, smoke_wall_secs: Option<f64>, points: Vec<Json>) -> Json {
    let tcp = args.driver == DriverKind::Tcp;
    let bench = match (tcp, args.smoke) {
        (false, false) => "scale_sweep",
        (false, true) => "scale_smoke",
        (true, false) => "wallclock",
        (true, true) => "wallclock_smoke",
    };
    let config = Obj::new()
        .set("workload", "ycsb-a")
        .set("protocol", "massbft");
    let config = if tcp {
        config.set("driver", "tcp-runtime").set("mode", args.mode)
    } else {
        config
    };
    let config = config
        .set("secs", args.secs)
        .set("seed", args.seed)
        .set("arrival_tps_per_group", args.arrival_tps)
        .set("max_batch", args.max_batch);
    let doc = Obj::new().set("bench", bench).set("config", config);
    let doc = match smoke_wall_secs {
        Some(wall) => doc
            .set("budget_secs", args.budget_secs)
            .set("wall_secs", Json::fixed(wall, 1)),
        None => doc,
    };
    doc.set("points", points).into()
}

fn main() {
    let args = parse_args();
    if !args.child_groups.is_empty() {
        run_child(&args);
    }
    let tcp = args.driver == DriverKind::Tcp;
    let (table, smoke_points): (&[Point], &[&str]) = if tcp {
        (&TCP_SWEEP, &["nationwide-3x4"])
    } else {
        (&SIM_SWEEP, &["nationwide-4x4", "worldwide-8x8"])
    };
    let selected: Vec<&Point> = table
        .iter()
        .filter(|p| match (&args.only, args.smoke) {
            (_, true) => smoke_points.contains(&p.name().as_str()),
            (Some(only), false) => p.name().contains(only.as_str()),
            (None, false) => true,
        })
        .collect();
    if selected.is_empty() {
        eprintln!("error: --only matched no sweep point");
        std::process::exit(2);
    }
    // The simulator is deterministic, so its gate runs every point twice
    // on the same seed and compares; two TCP runs never agree.
    let repeats = if args.smoke && !tcp { 2 } else { 1 };

    let mut verdict = Verdict::new();
    print_header(args.driver);
    let t0 = Instant::now();
    let mut rows: Vec<Json> = Vec::new();
    for p in selected {
        let name = p.name();
        let runs: Vec<PointResult> = (0..repeats).map(|_| run_point(p, &args)).collect();
        for r in &runs {
            print_row(r);
            verdict.check(&format!("{name} consistent"), r.consistent);
            verdict.check(&format!("{name} progressed"), r.txns() > 0);
            rows.push(point_json(r, &args));
        }
        if let [a, b] = &runs[..] {
            verdict.check(
                &format!("{name} deterministic ledger head, events and final vtime"),
                a.measured.ledger_head == b.measured.ledger_head && a.cols == b.cols,
            );
        }
    }
    let smoke_wall_secs = args.smoke.then(|| {
        let wall = t0.elapsed().as_secs_f64();
        let budget = args.budget_secs;
        println!("smoke wall-clock: {wall:.1}s (budget {budget}s)");
        verdict.check(
            &format!("smoke wall-clock under {budget}s"),
            wall <= budget as f64,
        );
        wall
    });
    report::write_json(&args.out, &document(&args, smoke_wall_secs, rows));
    verdict.finish(if args.smoke {
        "sweep smoke gate"
    } else {
        "sweep"
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use massbft_core::cluster::Report;
    use massbft_core::stats::Throughput;
    use massbft_telemetry::json::{self, Value};

    fn args(driver: DriverKind) -> Args {
        Args {
            driver,
            secs: 2,
            seed: 7,
            arrival_tps: 2000.0,
            max_batch: 100,
            out: String::new(),
            only: None,
            smoke: false,
            budget_secs: 180,
            mode: "thread",
            ops_base: 0,
            child_groups: Vec::new(),
        }
    }

    fn result(cols: DriverCols) -> PointResult<'static> {
        PointResult {
            point: &SIM_SWEEP[0],
            measured: Measured {
                report: Report {
                    protocol: Protocol::MassBft,
                    workload: WorkloadKind::YcsbA,
                    throughput: Throughput {
                        txns: 100,
                        window_us: SECOND,
                    },
                    per_group_tps: vec![50.0, 50.0],
                    mean_latency_ms: 1.0,
                    p99_latency_ms: 2.0,
                    wan_bytes: 1000,
                    max_node_wan_bytes: 500,
                    lan_bytes: 2000,
                    all_nodes_consistent: true,
                    entries_executed: 4,
                },
                p50_ms: 1.0,
                p99_ms: 2.0,
                ledger_height: 4,
                ledger_head: "00".repeat(32),
                wall_secs: 0.1,
            },
            consistent: true,
            cols,
        }
    }

    fn keys(v: &Value) -> Vec<&str> {
        match v {
            Value::Obj(m) => m.keys().map(String::as_str).collect(),
            other => panic!("not an object: {other:?}"),
        }
    }

    /// What this program writes has the keys of the checked-in recording
    /// it re-records: document, `config`, and one point.
    fn assert_same_keys_as_recording(recording: &str, driver: DriverKind, cols: DriverCols) {
        let path = format!("{}/../../{recording}", env!("CARGO_MANIFEST_DIR"));
        let recorded = json::parse(&std::fs::read_to_string(&path).expect(&path)).expect("json");
        let args = args(driver);
        let point = point_json(&result(cols), &args);
        let ours = json::parse(&document(&args, None, vec![point]).render()).expect("json");
        assert_eq!(ours.get("bench"), recorded.get("bench"));
        assert_eq!(keys(&ours), keys(&recorded));
        let config = |doc: &Value| keys(doc.get("config").expect("config")).join(" ");
        assert_eq!(config(&ours), config(&recorded));
        let first = |doc: &Value| keys(&doc.get("points").unwrap().as_arr().unwrap()[0]).join(" ");
        assert_eq!(first(&ours), first(&recorded));
    }

    #[test]
    fn simulator_records_keep_the_keys_of_bench_scale_json() {
        let cols = DriverCols::Sim {
            events: 10,
            final_vtime_us: 3 * SECOND,
        };
        assert_same_keys_as_recording("BENCH_scale.json", DriverKind::Sim, cols);
    }

    #[test]
    fn tcp_records_keep_the_keys_of_bench_wallclock_json() {
        let net = NetCounters {
            bytes: 1,
            syscalls: 1,
            polls: 1,
            frames_out: 1,
            coalesced: 1,
        };
        assert_same_keys_as_recording(
            "BENCH_wallclock.json",
            DriverKind::Tcp,
            DriverCols::Tcp(net),
        );
    }

    #[test]
    fn the_tables_name_the_points_the_recordings_name() {
        let names = |table: &[Point]| table.iter().map(Point::name).collect::<Vec<_>>().join(" ");
        assert_eq!(
            names(&SIM_SWEEP),
            "nationwide-2x4 nationwide-4x4 nationwide-8x4 nationwide-16x4 nationwide-3x8 \
             nationwide-3x16 nationwide-3x32 nationwide-16x8 worldwide-8x8 worldwide-4x32"
        );
        assert_eq!(
            names(&TCP_SWEEP),
            "nationwide-3x4 worldwide-3x4 nationwide-4x8 worldwide-4x8"
        );
    }
}
