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
fn seven_threads_per_node_and_none_left_after_drop() {
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
    // Reactor + acceptor + one reader per peer that talks to the node;
    // no writer threads.
    let running = process_threads() - before;
    assert!(
        running <= 7 * 12,
        "{running} threads for 12 nodes (> 7 per node)"
    );
    assert!(running >= 2 * 12, "thread count looks wrong: {running}");
    drop(c);
    // `drop` joined everything it spawned: no 200 ms poll to wait out.
    assert_eq!(process_threads(), before, "threads outlived Cluster::drop");
}
