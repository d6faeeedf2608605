//! Thread budget and deterministic teardown of an in-process cluster.
//!
//! One test in a file of its own: it counts the threads of the whole
//! process, so nothing else may start or stop threads meanwhile.
#![cfg(target_os = "linux")]

use massbft_core::cluster::ClusterConfig;
use massbft_core::protocol::Protocol;
use massbft_runtime::Cluster;
use massbft_sim_net::SECOND;
use massbft_workloads::WorkloadKind;

fn process_threads() -> usize {
    std::fs::read_dir("/proc/self/task")
        .expect("procfs")
        .count()
}

#[test]
fn a_thread_per_core_and_none_left_after_drop() {
    let before = process_threads();
    let cfg = ClusterConfig::nationwide(&[4, 4, 4], Protocol::MassBft)
        .workload(WorkloadKind::YcsbA)
        .seed(3)
        .arrival_tps(800.0)
        .max_batch(40);
    let mut c = Cluster::new(cfg);
    c.run_until(2 * SECOND);
    assert!(
        c.with_node(c.observer(), |n| n.executed_txns()) > 0,
        "cluster is not committing"
    );
    // One reactor per core (never more than nodes), and nothing else:
    // no acceptor, reader or writer threads.
    let running = process_threads() - before;
    let budget = massbft_accel::host_cores() + 1;
    assert!(
        (1..=budget).contains(&running),
        "{running} threads for 12 nodes (budget {budget})"
    );
    drop(c);
    // `drop` joined everything it spawned: nothing to wait out.
    assert_eq!(process_threads(), before, "threads outlived Cluster::drop");
}
