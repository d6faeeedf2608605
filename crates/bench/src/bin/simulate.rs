//! Ad-hoc cluster simulation CLI — run any protocol/workload/topology
//! combination and print a full report, with optional fault injection.
//!
//! ```text
//! cargo run -p massbft-bench --release --bin simulate -- \
//!     --protocol massbft --groups 7,7,7 --workload ycsb-a \
//!     --secs 5 --wan-mbps 20 --region nationwide \
//!     --crash-group 2@3s --byzantine 1@2s
//! ```
//!
//! Every run is deterministic for a given `--seed`.

use massbft_bench::report::cli::Flags;
use massbft_bench::run;
use massbft_core::adversary::FaultEvent;
use massbft_core::cluster::{Cluster, ClusterConfig};
use massbft_sim_net::{NodeId, SECOND};

/// Reads `G@Ts` / `K@Ts` (the trailing `s` is optional).
fn parse_at(v: &str) -> Option<(u32, u64)> {
    let (a, b) = v.split_once('@')?;
    let secs = b.strip_suffix('s').unwrap_or(b);
    Some((a.parse().ok()?, secs.parse().ok()?))
}

fn main() {
    let mut f = Flags::from_env("simulate");
    let protocol = f.protocol();
    let groups = f.groups();
    let workload = f.workload();
    let region = f.region();
    let secs: u64 = f.value("--secs", "N", 5);
    let seed: u64 = f.value("--seed", "N", 1);
    let wan_mbps: u64 = f.value("--wan-mbps", "N", 20);
    let arrival_tps: f64 = f.value("--arrival-tps", "N", 100_000.0);
    let max_batch: usize = f.value("--max-batch", "N", 500);
    let crash_group = f.opt_with("--crash-group", "G@Ts", parse_at);
    let byzantine_per_group = f.opt_with("--byzantine", "K@Ts", parse_at);
    let timeline = f.switch("--timeline");
    if crash_group.is_some_and(|(_, at)| !(1..=secs).contains(&at)) {
        f.fail("--crash-group G@Ts: T must fall inside the measured window, 1..=secs");
    }
    f.done();

    let mut cfg = ClusterConfig::in_region(region, &groups, protocol)
        .workload(workload)
        .seed(seed)
        .wan_mbps(wan_mbps)
        .arrival_tps(arrival_tps)
        .max_batch(max_batch);

    if let Some((k, at)) = byzantine_per_group {
        let mut byz = Vec::new();
        for (g, &size) in groups.iter().enumerate() {
            for i in 0..k.min(size as u32) {
                byz.push(NodeId::new(g as u32, size as u32 - 1 - i));
            }
        }
        cfg = cfg.byzantine(&byz, at * SECOND);
    }
    // Second `T` of the measured window starts at `T` s on the cluster's
    // clock (1 s of warm-up comes first).
    if let Some((g, at)) = crash_group {
        cfg = cfg.fault_at(at * SECOND, FaultEvent::CrashGroup(g));
    }

    println!(
        "# {} | {} | {:?} groups | {} | {} Mbps | seed {}",
        protocol.name(),
        workload.name(),
        groups,
        region.name(),
        wan_mbps,
        seed
    );

    let mut cluster = Cluster::new(cfg);
    if timeline {
        println!("{:>5} {:>10}", "sec", "ktps");
    }
    let obs = cluster.observer();
    let (measured, _) = run::measure_with(&mut cluster, SECOND, |c| {
        let mut prev = c.node(obs).executed_txns();
        run::sample(c, SECOND, (1 + secs) * SECOND, |c| {
            if !timeline {
                return;
            }
            let sec = c.now() / SECOND - 1;
            if let Some((g, _)) = crash_group.filter(|&(_, at)| at == sec) {
                println!("# group {g} crashed");
            }
            let now = c.node(obs).executed_txns();
            println!("{sec:>5} {:>10.2}", (now - prev) as f64 / 1000.0);
            prev = now;
        })
    });
    let report = measured.report;

    println!("throughput        : {:.2} ktps", report.throughput.ktps());
    println!("entries executed  : {}", report.entries_executed);
    println!("mean latency      : {:.1} ms", report.mean_latency_ms);
    println!("p99 latency       : {:.1} ms", report.p99_latency_ms);
    println!(
        "WAN bytes         : {:.1} MB",
        report.wan_bytes as f64 / 1e6
    );
    println!(
        "max node WAN      : {:.1} MB",
        report.max_node_wan_bytes as f64 / 1e6
    );
    println!(
        "LAN bytes         : {:.1} MB",
        report.lan_bytes as f64 / 1e6
    );
    for (g, tps) in report.per_group_tps.iter().enumerate() {
        println!("group {g} origin tps : {:.0}", tps);
    }
    println!("replicas agree    : {}", report.all_nodes_consistent);
    if !report.all_nodes_consistent {
        std::process::exit(1);
    }
}
