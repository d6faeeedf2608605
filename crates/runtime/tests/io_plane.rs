//! The connection plane and the reactors against real loopback sockets:
//! FIFO order under jitter, one coalesced write per peer per turn, writes
//! that never block whoever the receiver is, and the same cluster on one
//! reactor or two.
//!
//! The `net.*` counters are process-global, so the tests here take
//! turns instead of running side by side.

use bytes::Bytes;
use massbft_accel::PollFd;
use massbft_consensus::pbft::PbftMsg;
use massbft_core::cluster::ClusterConfig;
use massbft_core::protocol::{Msg, Protocol};
use massbft_crypto::Digest;
use massbft_runtime::frame::encode_frame;
use massbft_runtime::net::{Conn, NetHandle, Shared};
use massbft_runtime::{Cluster, Reactors, Seat};
use massbft_sim_net::{Actor, Ctx, FaultEvent, LinkFault, NodeId, TopologyBuilder, SECOND};
use massbft_workloads::WorkloadKind;
use std::collections::VecDeque;
use std::net::TcpListener;
use std::sync::atomic::Ordering;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

static TURNS: Mutex<()> = Mutex::new(());

const A: NodeId = NodeId { group: 0, node: 0 };
const B: NodeId = NodeId { group: 0, node: 1 };
const C: NodeId = NodeId { group: 0, node: 2 };

/// One LAN link A → B driven by hand: A's outbound plane on this side,
/// B's listener and (once accepted) its connection on the other, and no
/// reactor — nothing is written or read unless the test does it.
struct Link {
    shared: Arc<Shared>,
    net: NetHandle,
    listener: TcpListener,
    conn: Option<Conn>,
}

impl Link {
    fn new() -> Link {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let addr = listener.local_addr().expect("addr");
        // A's address is never dialled.
        let shared = Shared::new(TopologyBuilder::nationwide(&[2]).build(), vec![addr, addr]);
        Link {
            net: NetHandle::new(A, Arc::clone(&shared)),
            shared,
            listener,
            conn: None,
        }
    }

    /// Routes `msgs` to B as one reactor turn would: one stamp.
    fn route(&mut self, msgs: impl IntoIterator<Item = Msg>) {
        let stamp = self.shared.now_us();
        for m in msgs {
            self.net.send(B, encode_frame(&m).expect("encodes"), stamp);
        }
    }

    /// Flushes until the FIFO is empty, sleeping to each due instant
    /// like a reactor with nothing else to do. Returns the flush count.
    fn flush_all(&mut self) -> usize {
        let mut flushes = 0;
        while let Some(due) = self.net.next_due() {
            let now = self.shared.now_us();
            if due > now {
                std::thread::sleep(Duration::from_micros(due - now));
            }
            self.net.flush(self.shared.now_us());
            flushes += 1;
        }
        flushes
    }

    /// Reads `n` messages off B's connection, in arrival order.
    fn recv(&mut self, n: usize) -> Vec<Msg> {
        let conn = self.conn.get_or_insert_with(|| {
            let (stream, _) = self.listener.accept().expect("accept");
            Conn::new(stream).expect("conn")
        });
        let mut got = Vec::new();
        while got.len() < n {
            let mut fds = [PollFd::new(&conn.stream, false)];
            let ready = massbft_accel::poll(&mut fds, Some(Duration::from_secs(10))).expect("poll");
            assert_eq!(
                ready,
                1,
                "link dried up after {} of {n} messages",
                got.len()
            );
            let alive = conn.read_once(&self.shared.counters, |from, msg| {
                assert_eq!(from, A);
                got.push(msg);
            });
            assert!(alive, "connection ended after {} of {n}", got.len());
        }
        got
    }
}

fn numbered(i: u64) -> Msg {
    Msg::EpochClose { group: 0, epoch: i }
}

/// A 192 KiB frame carrying `seq`.
fn big(seq: u64) -> Msg {
    Msg::Pbft(PbftMsg::PrePrepare {
        view: 0,
        seq,
        payload: Bytes::from(vec![0x5Au8; 192 << 10]),
        digest: Digest([1; 32]),
    })
}

fn number_of(m: &Msg) -> u64 {
    match m {
        Msg::EpochClose { epoch, .. } => *epoch,
        Msg::Pbft(PbftMsg::PrePrepare { seq, payload, .. }) => {
            assert!(payload.len() == 192 << 10 && payload.iter().all(|&b| b == 0x5A));
            *seq
        }
        other => panic!("unexpected message {other:?}"),
    }
}

fn counter(name: &str) -> u64 {
    massbft_telemetry::registry::counter(name).get()
}

/// Jitter makes due instants non-monotone; the link must still deliver
/// in send order, because only the head of the FIFO gates (the sim's
/// link FIFO does the same).
#[test]
fn per_link_fifo_survives_jitter() {
    let _turn = TURNS.lock().unwrap_or_else(|e| e.into_inner());
    let mut link = Link::new();
    link.shared
        .faults
        .write()
        .unwrap()
        .apply(FaultEvent::SetLinkFault(
            A,
            B,
            Some(LinkFault {
                drop_prob: 0.0,
                dup_prob: 0.0,
                extra_jitter_us: 40_000,
            }),
        ));
    // Several turns, so frames of different stamps interleave too.
    for turn in 0..4 {
        link.route((0..50).map(|i| numbered(turn * 50 + i)));
        std::thread::sleep(Duration::from_millis(2));
    }
    let flushes = link.flush_all();
    assert!(
        flushes > 4,
        "jitter should have spread the frames over many due instants, got {flushes} flushes"
    );
    let got = link.recv(200);
    for (i, m) in got.iter().enumerate() {
        assert_eq!(number_of(m), i as u64, "message {i} out of order");
    }
}

/// A turn that emits k small frames to one peer costs one write, and
/// that write counts once as coalesced.
#[test]
fn a_turns_frames_to_one_peer_leave_in_one_write() {
    let _turn = TURNS.lock().unwrap_or_else(|e| e.into_inner());
    let mut link = Link::new();
    // Open the connection first (its hello is a write of its own).
    link.route([numbered(0)]);
    link.flush_all();
    link.recv(1);

    let before = (
        counter("net.syscalls_write"),
        counter("net.coalesced_writes"),
        counter("net.frames_out"),
    );
    link.route((1..=8).map(numbered));
    assert_eq!(link.flush_all(), 1, "one stamp, one due instant, one flush");
    let after = (
        counter("net.syscalls_write"),
        counter("net.coalesced_writes"),
        counter("net.frames_out"),
    );
    assert_eq!(after.2 - before.2, 8);
    assert_eq!(after.0 - before.0, 1, "8 small frames, one write(2)");
    assert_eq!(
        after.1 - before.1,
        1,
        "and it counts as one coalesced write"
    );
    assert_eq!(link.recv(8).len(), 8);

    // A lone frame is a write, but not a coalesced one.
    link.route([numbered(9)]);
    link.flush_all();
    assert_eq!(counter("net.syscalls_write") - after.0, 1);
    assert_eq!(counter("net.coalesced_writes") - after.1, 0);
    link.recv(1);
}

/// An actor with a script: every millisecond it sends the next burst,
/// and it keeps the number of everything it receives, per sender.
#[derive(Default)]
struct Scripted {
    script: VecDeque<Vec<(NodeId, Msg)>>,
    got: Vec<(NodeId, u64)>,
}

impl Scripted {
    /// `bursts` turns of eight 192 KiB frames to `dst` (48 MiB at 32), each
    /// with one small frame to `also`, if any.
    fn blasting(dst: NodeId, also: Option<NodeId>, bursts: u64) -> Scripted {
        let burst = |t: u64| {
            let to_dst = (0..8).map(move |i| (dst, big(t * 8 + i)));
            to_dst.chain(also.map(|c| (c, numbered(t)))).collect()
        };
        Scripted {
            script: (0..bursts).map(burst).collect(),
            got: Vec::new(),
        }
    }

    fn numbers_from(&self, from: NodeId) -> Vec<u64> {
        let of = self.got.iter().filter(|(f, _)| *f == from);
        of.map(|&(_, n)| n).collect()
    }
}

impl Actor for Scripted {
    type Msg = Msg;

    fn on_start(&mut self, ctx: &mut Ctx<Msg>) {
        ctx.set_timer(1_000, 0);
    }

    fn on_timer(&mut self, ctx: &mut Ctx<Msg>, _token: u64) {
        if let Some(burst) = self.script.pop_front() {
            burst.into_iter().for_each(|(dst, m)| ctx.send(dst, m));
            ctx.set_timer(1_000, 0);
        }
    }

    fn on_message(&mut self, _ctx: &mut Ctx<Msg>, from: NodeId, msg: Msg) {
        self.got.push((from, number_of(&msg)));
    }
}

/// Scripted actors of one LAN group seated on `reactors` threads.
struct Stage {
    seats: Vec<Arc<Seat<Scripted>>>,
    _reactors: Reactors,
}

impl Stage {
    fn new(actors: Vec<Scripted>, reactors: usize) -> Stage {
        let listeners: Vec<TcpListener> = actors
            .iter()
            .map(|_| TcpListener::bind("127.0.0.1:0").expect("bind"))
            .collect();
        let addrs = listeners.iter().map(|l| l.local_addr().expect("addr"));
        let topo = TopologyBuilder::nationwide(&[actors.len()]).build();
        let shared = Shared::new(topo, addrs.collect());
        let seat = |(i, actor)| {
            Arc::new(Seat {
                id: NodeId::new(0, i as u32),
                actor: Mutex::new(actor),
                backlog: Default::default(),
            })
        };
        let seats: Vec<_> = actors.into_iter().enumerate().map(seat).collect();
        let seated = seats.iter().cloned().zip(listeners).collect();
        Stage {
            seats,
            _reactors: Reactors::spawn(shared, seated, reactors),
        }
    }

    fn actor(&self, i: usize) -> std::sync::MutexGuard<'_, Scripted> {
        self.seats[i].actor.lock().expect("actor lock")
    }

    /// Polls `done` every few milliseconds until it holds.
    fn wait_for(&self, what: &str, mut done: impl FnMut(&Stage) -> bool) {
        let t = Instant::now();
        while !done(self) {
            assert!(t.elapsed() < Duration::from_secs(30), "timed out: {what}");
            std::thread::sleep(Duration::from_millis(5));
        }
    }
}

/// The receiver's lock is held for the whole transfer and everything
/// shares ONE reactor: were that reactor ever to wait on B's socket (or
/// on B's lock), nobody would be left to drain it. Instead A's 48 MiB
/// go out as the socket takes them (the tail waits in A's FIFO), A's
/// other peer keeps receiving meanwhile, B's frames are read and kept
/// as its pending input — `inbox_depth` — and once the lock is released
/// they all arrive, intact and in order.
#[test]
fn a_held_receiver_never_stalls_the_reactor() {
    let _turn = TURNS.lock().unwrap_or_else(|e| e.into_inner());
    let actors = vec![
        Scripted::blasting(B, Some(C), 32),
        Scripted::default(),
        Scripted::default(),
    ];
    let stage = Stage::new(actors, 1);
    let held = stage.actor(1);
    stage.wait_for("C gets its 32 frames while B is held", |s| {
        s.actor(2).numbers_from(A).len() == 32
    });
    stage.wait_for("all of B's frames decoded and waiting", |s| {
        s.seats[1].backlog.load(Ordering::Relaxed) == 256
    });
    assert!(held.got.is_empty(), "B ran while its lock was held");
    drop(held);
    stage.wait_for("B handed everything after release", |s| {
        s.actor(1).got.len() == 256
    });
    assert_eq!(
        stage.actor(2).numbers_from(A),
        (0..32).collect::<Vec<u64>>()
    );
    assert_eq!(
        stage.actor(1).numbers_from(A),
        (0..256).collect::<Vec<u64>>()
    );
    assert_eq!(stage.seats[1].backlog.load(Ordering::Relaxed), 0);
}

/// The deadlock-freedom argument as a test: two nodes on *different*
/// reactors push 48 MiB at each other at once. With writes that wait,
/// both threads could sit in `write` on full buffers neither is reading;
/// here each keeps coming back to read, so both transfers complete.
#[test]
fn two_reactors_blasting_each_other_both_finish() {
    let _turn = TURNS.lock().unwrap_or_else(|e| e.into_inner());
    let actors = vec![
        Scripted::blasting(B, None, 32),
        Scripted::blasting(A, None, 32),
    ];
    let stage = Stage::new(actors, 2);
    stage.wait_for("both transfers complete", |s| {
        s.actor(0).got.len() == 256 && s.actor(1).got.len() == 256
    });
    let in_order: Vec<u64> = (0..256).collect();
    assert_eq!(stage.actor(0).numbers_from(B), in_order);
    assert_eq!(stage.actor(1).numbers_from(A), in_order);
}

fn small_cluster(groups: &[usize], seed: u64) -> ClusterConfig {
    ClusterConfig::nationwide(groups, Protocol::MassBft)
        .workload(WorkloadKind::YcsbA)
        .seed(seed)
        .arrival_tps(800.0)
        .max_batch(40)
}

/// The same property end to end, on two reactors of six nodes: one
/// replica crashed (its input is dropped) and another's node lock taken
/// away for a second. The five nodes that share the held node's reactor
/// keep executing, so the cluster — which tolerates one silent replica
/// per group — keeps committing meanwhile.
#[test]
fn crashed_and_held_peers_do_not_stall_the_cluster() {
    let _turn = TURNS.lock().unwrap_or_else(|e| e.into_inner());
    let mut c = Cluster::on_reactors(small_cluster(&[4, 4, 4], 5), None, 2);
    c.run_until(SECOND);
    // Dense index 6: on reactor 0. The held node (index 3) and the odd
    // indices are reactor 1.
    c.apply_fault(FaultEvent::Crash(NodeId::new(1, 2)));
    let neighbours = [(0, 1), (1, 1), (1, 3), (2, 1), (2, 3)].map(|(g, n)| NodeId::new(g, n));
    let executed = |c: &Cluster| neighbours.map(|id| c.with_node(id, |n| n.executed_txns()));
    let before = executed(&c);
    let during = c.with_node(NodeId::new(0, 3), |_held| {
        std::thread::sleep(Duration::from_secs(1));
        executed(&c)
    });
    for ((id, before), during) in neighbours.iter().zip(before).zip(during) {
        assert!(
            during > before,
            "{id} executed nothing while its reactor's neighbour was held: {before} → {during}"
        );
    }
    c.run_until(3 * SECOND);
    assert!(c.check_consistency(), "replicas diverged");
}

/// N is derived from the host, and every N must work: the same 3×4
/// cluster commits and agrees on one reactor and on two.
#[test]
fn one_reactor_or_two_the_cluster_commits_and_agrees() {
    let _turn = TURNS.lock().unwrap_or_else(|e| e.into_inner());
    for reactors in [1, 2] {
        let mut c = Cluster::on_reactors(small_cluster(&[4, 4, 4], 9), None, reactors);
        c.run_until(3 * SECOND);
        let txns = c.with_node(c.observer(), |n| n.executed_txns());
        assert!(txns > 0, "nothing committed on {reactors} reactor(s)");
        assert!(c.check_consistency(), "diverged on {reactors} reactor(s)");
    }
}
