//! Fault matrix: liveness under attack, one scenario per adversary.
//!
//! Runs the same deterministic cluster once per fault scenario — tampered
//! chunks, a silent primary, an equivocating primary, withheld WAN shares,
//! a gray-failure (delaying) representative, a crashed primary, flaky
//! WAN links, and a partition between two groups that heals — sampling
//! executed-transaction counts at a fixed cadence so the dip and recovery
//! are visible in the timeline. Emits `BENCH_faults.json` and exits
//! non-zero if any scenario fails to recover or breaks cross-node
//! consistency.
//!
//! ```text
//! cargo run --release -p massbft-bench --bin faults -- \
//!     [--groups 4,4,4] [--secs 12] [--seed 13] [--out BENCH_faults.json]
//! ```

use massbft_bench::report::{self, cli::Flags, Json, Obj, Verdict};
use massbft_bench::run;
use massbft_core::adversary::{AdversarySpec, FaultEvent, Strategy};
use massbft_core::cluster::{Cluster, ClusterConfig};
use massbft_core::protocol::Protocol;
use massbft_sim_net::{LinkFault, NodeId, Time, MILLISECOND, SECOND};
use massbft_workloads::WorkloadKind;

/// Sampling cadence for the recovery timelines.
const SAMPLE_US: Time = 500 * MILLISECOND;
/// The share of its offered load the affected metric must move at in the
/// tail for a scenario to count as recovered: what a fault left behind
/// must be caught up with, not trickle in.
const RECOVERED_SHARE: f64 = 0.5;

struct Args {
    groups: Vec<usize>,
    secs: u64,
    seed: u64,
    arrival_tps: f64,
    max_batch: usize,
    out: String,
}

fn parse_args() -> Args {
    let mut f = Flags::from_env("faults");
    let args = Args {
        groups: f.groups(),
        secs: f.value("--secs", "N", 12),
        seed: f.value("--seed", "N", 13),
        arrival_tps: f.value("--arrival-tps", "N", 3000.0),
        max_batch: f.value("--max-batch", "N", 60),
        out: f.value("--out", "FILE", "BENCH_faults.json".to_string()),
    };
    if args.secs < 6 {
        f.fail("--secs must be at least 6 (fault at 1s + recovery window)");
    }
    // The scenarios aim at group 1 and sample at node 2 of group 0.
    if args.groups.len() < 2 || args.groups.iter().any(|&n| n < 3) {
        f.fail("--groups needs at least 2 groups of at least 3 nodes");
    }
    f.done();
    args
}

/// What a scenario's timeline tracks: one group's executed transactions
/// (faults aimed at a single group) or the whole cluster's.
#[derive(Clone, Copy)]
enum Affected {
    Group(u32),
    Total,
}

struct Scenario {
    name: &'static str,
    /// Human-oriented one-liner for the JSON.
    what: &'static str,
    affected: Affected,
    cfg: ClusterConfig,
}

struct Outcome {
    name: &'static str,
    what: &'static str,
    affected: Affected,
    /// `(t_us, executed)` samples of the affected metric.
    timeline: Vec<(Time, u64)>,
    /// Mean rate over the final 4 s, transactions per second.
    tail_tps: f64,
    /// Longest run of consecutive stalled (< 10% of tail rate) sample
    /// intervals after the fault, as a duration.
    stall_us: Time,
    recovered: bool,
    consistent: bool,
}

fn run_scenario(s: Scenario, fault_at: Time, secs: u64, group_tps: f64) -> Outcome {
    let groups = s.cfg.params.ng() as f64;
    let mut c = Cluster::new(s.cfg);
    let end = secs * SECOND;
    // Sample at a node the scenarios never crash or corrupt: the last
    // follower of group 0 is an observer in every script below.
    let obs = NodeId::new(0, 2);
    let timeline = run::sample(&mut c, SAMPLE_US, end, |c| match s.affected {
        Affected::Group(g) => c.node(obs).executed_by_group()[g as usize],
        Affected::Total => c.node(obs).executed_txns(),
    });

    // Tail rate over the final 4 s — the steady state after recovery.
    let tail_window = 4 * SECOND;
    let tail_start = end - tail_window;
    let exec_at = |at: Time| -> u64 {
        timeline
            .iter()
            .rev()
            .find(|(t, _)| *t <= at)
            .map(|(_, e)| *e)
            .unwrap_or(0)
    };
    let tail_tps = (exec_at(end) - exec_at(tail_start)) as f64 / (tail_window as f64 / 1e6);

    // Longest consecutive stall after the fault: sample intervals whose
    // rate is under 10% of the tail rate (the view-change / takeover gap).
    let floor = (tail_tps * 0.10).max(1.0) * (SAMPLE_US as f64 / 1e6);
    let mut stall_us: Time = 0;
    let mut run: Time = 0;
    for w in timeline.windows(2) {
        let (t0, e0) = w[0];
        let (t1, e1) = w[1];
        if t1 <= fault_at {
            continue;
        }
        if ((e1 - e0) as f64) < floor {
            run += t1 - t0;
            stall_us = stall_us.max(run);
        } else {
            run = 0;
        }
    }

    // Recovered = the affected metric moves again in the tail at
    // `RECOVERED_SHARE` of what it is offered, and the final sample
    // interval is not stalled.
    let offered = match s.affected {
        Affected::Group(_) => group_tps,
        Affected::Total => group_tps * groups,
    };
    let recovered = tail_tps > RECOVERED_SHARE * offered && run == 0;
    let consistent = c.check_consistency();
    Outcome {
        name: s.name,
        what: s.what,
        affected: s.affected,
        timeline,
        tail_tps,
        stall_us,
        recovered,
        consistent,
    }
}

/// One scenario of `BENCH_faults.json`. `scripts/check.sh` reads `name`,
/// `recovered`, `consistent` and `timeline`.
fn scenario_json(o: &Outcome) -> Json {
    let affected = match o.affected {
        Affected::Group(g) => format!("group{g}"),
        Affected::Total => "total".to_string(),
    };
    let timeline: Vec<Json> = o
        .timeline
        .iter()
        .map(|&(t, e)| Json::Arr(vec![t.into(), e.into()]))
        .collect();
    Obj::new()
        .set("name", o.name)
        .set("what", o.what)
        .set("affected", affected)
        .set("tail_tps", Json::fixed(o.tail_tps, 1))
        .set("stall_us", o.stall_us)
        .set("recovered", o.recovered)
        .set("consistent", o.consistent)
        .set("timeline", timeline)
        .into()
}

fn main() {
    let args = parse_args();
    let fault_at = SECOND;
    let base = || {
        ClusterConfig::nationwide(&args.groups, Protocol::MassBft)
            .workload(WorkloadKind::YcsbA)
            .seed(args.seed)
            .arrival_tps(args.arrival_tps)
            .max_batch(args.max_batch)
    };
    let ng = args.groups.len() as u32;
    let last = |g: u32| NodeId::new(g, args.groups[g as usize] as u32 - 1);

    let tamper_all = (0..ng).fold(base(), |cfg, g| {
        cfg.adversary(AdversarySpec::new(last(g), Strategy::TamperChunks).from_us(fault_at))
    });
    let withhold_all = (0..ng).fold(base(), |cfg, g| {
        cfg.adversary(AdversarySpec::new(last(g), Strategy::WithholdChunks).from_us(fault_at))
    });
    let scenarios = vec![
        Scenario {
            name: "baseline",
            what: "no fault; reference throughput",
            affected: Affected::Total,
            cfg: base(),
        },
        Scenario {
            name: "tamper_chunks",
            what: "one sender per group substitutes garbage chunk shares",
            affected: Affected::Total,
            cfg: tamper_all,
        },
        Scenario {
            name: "silent_primary",
            what: "group 1's primary suppresses all PBFT traffic",
            affected: Affected::Group(1),
            cfg: base().adversary(
                AdversarySpec::new(NodeId::new(1, 0), Strategy::SilentPrimary).from_us(fault_at),
            ),
        },
        Scenario {
            name: "equivocating_primary",
            what: "group 1's primary sends conflicting pre-prepares",
            affected: Affected::Group(1),
            cfg: base().adversary(
                AdversarySpec::new(NodeId::new(1, 0), Strategy::EquivocatingPrimary)
                    .from_us(fault_at),
            ),
        },
        Scenario {
            name: "withhold_chunks",
            what: "one node per group certifies but never ships WAN shares",
            affected: Affected::Total,
            cfg: withhold_all,
        },
        Scenario {
            name: "delay_all",
            what: "group 1's representative delays every send by 50 ms",
            affected: Affected::Group(1),
            cfg: base().adversary(
                AdversarySpec::new(
                    NodeId::new(1, 0),
                    Strategy::DelayAll {
                        delay_us: 50 * MILLISECOND,
                    },
                )
                .from_us(fault_at),
            ),
        },
        Scenario {
            name: "crashed_primary",
            what: "group 1's primary (and representative) crashes",
            affected: Affected::Group(1),
            cfg: base().fault_at(fault_at, FaultEvent::Crash(NodeId::new(1, 0))),
        },
        Scenario {
            name: "flaky_wan",
            what: "5% WAN loss + 20 ms jitter for 3 s, then healed",
            affected: Affected::Total,
            cfg: base()
                .fault_at(
                    fault_at,
                    FaultEvent::SetWanFault(Some(LinkFault::flaky(5.0, 20 * MILLISECOND))),
                )
                .fault_at(fault_at + 3 * SECOND, FaultEvent::SetWanFault(None)),
        },
        Scenario {
            name: "partition_heal",
            what: "groups 0 and 2 severed for 2 s, then healed",
            affected: Affected::Total,
            cfg: base()
                .fault_at(fault_at, FaultEvent::PartitionGroups(0, 2))
                .fault_at(fault_at + 2 * SECOND, FaultEvent::HealGroups(0, 2)),
        },
    ];

    eprintln!(
        "fault matrix: {} scenarios on {:?} groups, fault at {}s, {}s measured ...",
        scenarios.len(),
        args.groups,
        fault_at / SECOND,
        args.secs
    );

    let mut outcomes = Vec::new();
    let mut verdict = Verdict::new();
    println!(
        "{:<22} {:>10} {:>10} {:>10} {:>6}",
        "scenario", "tail tps", "stall ms", "recovered", "cons."
    );
    for s in scenarios {
        let name = s.name;
        let o = run_scenario(s, fault_at, args.secs, args.arrival_tps);
        println!(
            "{:<22} {:>10.0} {:>10.0} {:>10} {:>6}",
            name,
            o.tail_tps,
            o.stall_us as f64 / 1e3,
            o.recovered,
            o.consistent
        );
        verdict.check(&format!("{name} recovered"), o.recovered);
        verdict.check(&format!("{name} consistent"), o.consistent);
        outcomes.push(o);
    }

    let config = Obj::new()
        .set(
            "groups",
            args.groups.iter().map(|&g| g.into()).collect::<Vec<Json>>(),
        )
        .set("seed", args.seed)
        .set("arrival_tps", args.arrival_tps)
        .set("max_batch", args.max_batch)
        .set("secs", args.secs)
        .set("fault_at_us", fault_at)
        .set("sample_us", SAMPLE_US);
    let scenarios_json: Vec<Json> = outcomes.iter().map(scenario_json).collect();
    let doc = Json::from(
        Obj::new()
            .set("config", config)
            .set("scenarios", scenarios_json),
    );
    println!();
    report::write_json(&args.out, &doc);

    verdict.finish("at least one fault scenario failed to recover or diverged");
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_scenario_keeps_the_keys_the_gate_reads() {
        let outcome = Outcome {
            name: "baseline",
            what: "no fault",
            affected: Affected::Total,
            timeline: vec![(SAMPLE_US, 10)],
            tail_tps: 1.0,
            stall_us: 0,
            recovered: true,
            consistent: true,
        };
        let doc = massbft_telemetry::json::parse(&scenario_json(&outcome).render()).expect("json");
        for key in ["name", "recovered", "consistent", "timeline"] {
            assert!(doc.get(key).is_some(), "scripts/check.sh reads {key:?}");
        }
    }
}
