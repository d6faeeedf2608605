//! Regenerates the MassBFT paper's tables and figures as printed series.
//!
//! ```text
//! cargo run -p massbft-bench --release --bin figures -- all --quick
//! cargo run -p massbft-bench --release --bin figures -- fig8
//! ```
//!
//! Experiments: `fig1b fig8 fig9 fig10 fig11 fig12 fig13a fig13b fig14
//! fig15 table1 table2 ablation-overlap ablation-parity all`.

use massbft_bench::report::cli::Flags;
use massbft_bench::*;

fn main() {
    let mut f = Flags::from_env("figures");
    let quick = f.switch("--quick");
    let which = f.positionals("[EXPERIMENT...] (default all)");
    f.done();
    let scale = if quick { Scale::Quick } else { Scale::Full };
    let which: Vec<&str> = which.iter().map(String::as_str).collect();
    let which = if which.is_empty() { vec!["all"] } else { which };

    let want = |name: &str| which.contains(&name) || which.contains(&"all");

    if want("table1") {
        print_table(
            "Table I — geo-consensus protocol comparison (subset)",
            &feature_tables().0,
        );
    }
    if want("table2") {
        print_table("Table II — competitor systems", &feature_tables().1);
    }
    if want("fig1b") {
        banner("Fig. 1b — GeoBFT throughput vs group size (leader bottleneck)");
        println!("{:>14} {:>12}", "nodes/group", "ktps");
        for (n, ktps) in fig1b(scale) {
            println!("{n:>14} {ktps:>12.2}");
        }
    }
    if want("fig8") {
        banner("Fig. 8 — nationwide cluster: throughput & latency");
        print_perf(&fig8_9(scale, false));
    }
    if want("fig9") {
        banner("Fig. 9 — worldwide cluster: throughput & latency");
        print_perf(&fig8_9(scale, true));
    }
    if want("fig10") {
        banner("Fig. 10 — WAN traffic per replicated entry");
        println!(
            "{:>12} {:>16} {:>16}",
            "batch txns", "MassBFT KB", "Baseline KB"
        );
        for (b, mass, base) in fig10(scale) {
            println!("{b:>12} {mass:>16.1} {base:>16.1}");
        }
    }
    if want("fig11") {
        banner("Fig. 11 — MassBFT latency breakdown (group 0 representative)");
        let b = fig11(scale);
        println!("{:>22} {:>10}", "phase", "ms");
        println!("{:>22} {:>10.1}", "local consensus", b.local_consensus_ms);
        println!(
            "{:>22} {:>10.1}",
            "global replication", b.global_replication_ms
        );
        println!("{:>22} {:>10.1}", "ordering (VTS)", b.ordering_ms);
        println!("{:>22} {:>10.1}", "execution", b.execution_ms);
    }
    if want("fig12") {
        banner("Fig. 12 — heterogeneous group sizes (4/7/7)");
        println!(
            "{:>10} {:>10} {:>10} {:>10} {:>12}",
            "protocol", "G1 ktps", "G2 ktps", "G3 ktps", "latency ms"
        );
        for row in fig12(scale) {
            let g = &row.per_group_ktps;
            println!(
                "{:>10} {:>10.2} {:>10.2} {:>10.2} {:>12.1}",
                row.protocol.name(),
                g.first().copied().unwrap_or(0.0),
                g.get(1).copied().unwrap_or(0.0),
                g.get(2).copied().unwrap_or(0.0),
                row.latency_ms
            );
        }
    }
    if want("fig13a") {
        banner("Fig. 13a — throughput vs nodes per group");
        println!(
            "{:>14} {:>14} {:>14}",
            "nodes/group", "MassBFT ktps", "Baseline ktps"
        );
        for (n, mass, base) in fig13a(scale) {
            println!("{n:>14} {mass:>14.2} {base:>14.2}");
        }
    }
    if want("fig13b") {
        banner("Fig. 13b — throughput vs number of groups");
        println!(
            "{:>10} {:>14} {:>14}",
            "groups", "MassBFT ktps", "Baseline ktps"
        );
        for (ng, mass, base) in fig13b(scale) {
            println!("{ng:>10} {mass:>14.2} {base:>14.2}");
        }
    }
    if want("fig14") {
        banner("Fig. 14 — slow (20 Mbps) nodes among 40 Mbps nodes");
        println!("{:>14} {:>12} {:>12}", "slow/group", "ktps", "latency ms");
        for (k, ktps, lat) in fig14(scale) {
            println!("{k:>14} {ktps:>12.2} {lat:>12.1}");
        }
    }
    if want("fig15") {
        banner("Fig. 15 — fault timeline (Byzantine nodes, then group crash)");
        let (points, byz_at, crash_at) = fig15(scale);
        println!("{:>6} {:>10} {:>12}  event", "sec", "ktps", "latency ms");
        for p in points {
            let event = if p.sec == byz_at {
                "<- Byzantine tampering starts"
            } else if p.sec == crash_at {
                "<- group crash"
            } else {
                ""
            };
            println!(
                "{:>6} {:>10.2} {:>12.1}  {event}",
                p.sec, p.ktps, p.latency_ms
            );
        }
    }
    if want("ablation-overlap") {
        banner("Ablation — overlapped (Fig. 7b) vs serial (Fig. 7a) VTS assignment");
        let (overlapped, serial) = ablation_overlap(scale);
        println!("overlapped: {overlapped:>8.1} ms");
        println!("serial:     {serial:>8.1} ms");
    }
    if want("ablation-parity") {
        banner("Ablation — worst-case parity overhead of Algorithm 1 (equal groups)");
        println!(
            "{:>6} {:>10} {:>8} {:>16}",
            "n", "parity", "data", "amplification"
        );
        for (n, parity, data, amp) in ablation_parity() {
            println!("{n:>6} {parity:>10} {data:>8} {amp:>16.2}");
        }
    }
}

fn banner(title: &str) {
    println!("\n=== {title} ===");
}

fn print_table(title: &str, rows: &[[&str; 6]]) {
    banner(title);
    for row in rows {
        println!(
            "{:<10} {:<13} {:<11} {:<11} {:<18} {:<13}",
            row[0], row[1], row[2], row[3], row[4], row[5]
        );
    }
}

fn print_perf(rows: &[PerfRow]) {
    println!(
        "{:>10} {:>10} {:>10} {:>12}",
        "workload", "protocol", "ktps", "latency ms"
    );
    for r in rows {
        println!(
            "{:>10} {:>10} {:>10.2} {:>12.1}",
            r.workload.name(),
            r.protocol.name(),
            r.ktps,
            r.latency_ms
        );
    }
}
