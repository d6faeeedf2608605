//! The connection plane and the reactors against real loopback sockets:
//! FIFO order under jitter, one coalesced write per peer per turn, writes
//! that never block whoever the receiver is, a held node's input kept
//! in order until its lock is released, the same cluster on one
//! reactor or two with its interest sets all but fixed, a dropped
//! connection's slot and descriptor reused, and an idle reactor that
//! reads nothing.
//!
//! The `net.*` counters are process-global, so the tests here take
//! turns instead of running side by side.

use bytes::Bytes;
use massbft_accel::{Events, Interest, Poller};
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
use std::io::{Read, Write};
use std::net::{TcpListener, TcpStream};
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
    /// A's links and B's connection, under tokens 0.. and `B_CONN`.
    poller: Poller,
    listener: TcpListener,
    conn: Option<Conn>,
}

const B_CONN: u64 = 1 << 40;

impl Link {
    fn new() -> Link {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let addr = listener.local_addr().expect("addr");
        // A's address is never dialled.
        let shared = Shared::new(TopologyBuilder::nationwide(&[2]).build(), vec![addr, addr]);
        Link {
            net: NetHandle::new(A, Arc::clone(&shared), 0),
            poller: Poller::new().expect("poller"),
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
            self.net.flush(self.shared.now_us(), &self.poller);
            flushes += 1;
        }
        flushes
    }

    /// Reads `n` messages off B's connection, in arrival order.
    fn recv(&mut self, n: usize) -> Vec<Msg> {
        let conn = self.conn.get_or_insert_with(|| {
            let (stream, _) = self.listener.accept().expect("accept");
            let conn = Conn::new(stream).expect("conn");
            let add = self.poller.add(&conn.stream, B_CONN, Interest::Read);
            add.expect("register");
            conn
        });
        let mut got = Vec::new();
        let mut events = Events::with_capacity(4);
        while got.len() < n {
            let timeout = Some(Duration::from_secs(10));
            self.poller.wait(&mut events, timeout).expect("wait");
            assert!(
                events.tokens().any(|t| t == B_CONN),
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
    shared: Arc<Shared>,
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
            })
        };
        let seats: Vec<_> = actors.into_iter().enumerate().map(seat).collect();
        let seated = seats.iter().cloned().zip(listeners).collect();
        Stage {
            seats,
            _reactors: Reactors::spawn(Arc::clone(&shared), seated, reactors),
            shared,
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

/// The receiver's lock is taken once A's 48 MiB transfer is under way,
/// and everything shares ONE reactor, which waits for the lock. Nothing
/// is lost meanwhile: A's frames wait in its FIFO or B's socket, and once
/// the lock is released B gets all of them, intact and in order, and A's
/// other peer its own.
#[test]
fn a_held_node_gets_all_its_input_in_order_after_release() {
    let _turn = TURNS.lock().unwrap_or_else(|e| e.into_inner());
    let actors = vec![
        Scripted::blasting(B, Some(C), 32),
        Scripted::default(),
        Scripted::default(),
    ];
    let stage = Stage::new(actors, 1);
    stage.wait_for("A under way", |s| !s.actor(2).got.is_empty());
    let held = stage.actor(1);
    let got = held.got.len();
    std::thread::sleep(Duration::from_millis(200));
    assert_eq!(held.got.len(), got, "B ran while its lock was held");
    drop(held);
    stage.wait_for("B handed everything after release", |s| {
        s.actor(1).got.len() == 256
    });
    stage.wait_for("C gets its 32 frames", |s| s.actor(2).got.len() == 32);
    assert_eq!(
        stage.actor(2).numbers_from(A),
        (0..32).collect::<Vec<u64>>()
    );
    assert_eq!(
        stage.actor(1).numbers_from(A),
        (0..256).collect::<Vec<u64>>()
    );
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

/// End to end, on two reactors of six nodes: one replica crashed (its
/// input is dropped). The nodes that share its reactor keep executing,
/// so the cluster — which tolerates one silent replica per group — keeps
/// committing meanwhile.
#[test]
fn crashed_peers_do_not_stall_the_cluster() {
    let _turn = TURNS.lock().unwrap_or_else(|e| e.into_inner());
    let mut c = Cluster::on_reactors(small_cluster(&[4, 4, 4], 5), None, 2);
    c.run_until(SECOND);
    // Dense index 6: on reactor 0, with the even indices.
    c.apply_fault(FaultEvent::Crash(NodeId::new(1, 2)));
    let neighbours = [(0, 0), (0, 2), (1, 0), (2, 0), (2, 2)].map(|(g, n)| NodeId::new(g, n));
    let executed = |c: &Cluster| neighbours.map(|id| c.with_node(id, |n| n.executed_txns()));
    let before = executed(&c);
    c.run_until(2 * SECOND);
    for ((id, before), after) in neighbours.iter().zip(before).zip(executed(&c)) {
        assert!(
            after > before,
            "{id} executed nothing while its reactor's neighbour was crashed: {before} → {after}"
        );
    }
    c.run_until(3 * SECOND);
    assert!(c.check_consistency(), "replicas diverged");
}

/// N is derived from the host, and every N must work: the same 3×4
/// cluster commits and agrees on one reactor and on two. Once the first
/// second has opened the connections, the interest sets change only when
/// a link blocks: at most 0.05 `epoll_ctl` per committed transaction,
/// where a reactor turns about once per transaction.
#[test]
fn one_reactor_or_two_the_cluster_commits_and_agrees() {
    let _turn = TURNS.lock().unwrap_or_else(|e| e.into_inner());
    for reactors in [1, 2] {
        let mut c = Cluster::on_reactors(small_cluster(&[4, 4, 4], 9), None, reactors);
        let committed = |c: &Cluster| c.with_node(c.observer(), |n| n.executed_txns());
        c.run_until(SECOND);
        let before = (committed(&c), counter("net.syscalls_ctl"));
        c.run_until(3 * SECOND);
        let txns = committed(&c) - before.0;
        let ctls = counter("net.syscalls_ctl") - before.1;
        assert!(txns > 0, "nothing committed on {reactors} reactor(s)");
        assert!(
            ctls as f64 <= 0.05 * txns as f64,
            "{ctls} interest changes for {txns} transactions on {reactors} reactor(s)"
        );
        assert!(c.check_consistency(), "diverged on {reactors} reactor(s)");
    }
}

/// The hello a raw client opens a connection with, naming itself `id`.
fn hello(id: NodeId) -> Vec<u8> {
    [id.group.to_le_bytes(), id.node.to_le_bytes()].concat()
}

/// Deregistration and descriptor reuse through the reactor: a raw client
/// that sends a hello and then garbage loses its connection; the next
/// raw client is accepted into the freed slot, most likely on the same
/// descriptor number, and its frames reach the node in order — nothing of
/// the first connection's registration answers for the second.
#[test]
fn a_garbage_connection_is_dropped_and_the_next_one_reuses_its_place() {
    let _turn = TURNS.lock().unwrap_or_else(|e| e.into_inner());
    let stage = Stage::new(vec![Scripted::default()], 1);
    let addr = stage.shared.addrs[0];
    let mut garbage = TcpStream::connect(addr).expect("connect");
    garbage.write_all(&hello(B)).expect("hello");
    // A zero frame length is no frame: the node drops the connection.
    garbage.write_all(&[0; 4]).expect("garbage");
    garbage
        .set_read_timeout(Some(Duration::from_secs(10)))
        .expect("timeout");
    let mut byte = [0u8; 1];
    match garbage.read(&mut byte) {
        Ok(0) => {}
        Err(e) if e.kind() == std::io::ErrorKind::ConnectionReset => {}
        other => panic!("the garbage connection was kept: {other:?}"),
    }
    drop(garbage);

    let mut good = TcpStream::connect(addr).expect("connect");
    good.write_all(&hello(C)).expect("hello");
    for i in 0..50 {
        let frame = encode_frame(&numbered(i)).expect("encodes");
        good.write_all(&frame).expect("frame");
    }
    stage.wait_for("the second client's 50 frames", |s| {
        s.actor(0).got.len() == 50
    });
    assert_eq!(
        stage.actor(0).numbers_from(C),
        (0..50).collect::<Vec<u64>>()
    );
}

/// A turn costs what happened: with every connection open and nothing
/// sent, a reactor issues no `read(2)` (and no `write(2)`), and wakes only
/// for its longest wait, not per registered socket.
#[test]
fn an_idle_stretch_issues_no_read() {
    let _turn = TURNS.lock().unwrap_or_else(|e| e.into_inner());
    let actors = vec![
        Scripted::blasting(B, Some(C), 1),
        Scripted::blasting(A, Some(C), 1),
        Scripted::default(),
    ];
    let stage = Stage::new(actors, 1);
    stage.wait_for("every frame delivered", |s| {
        s.actor(0).got.len() == 8 && s.actor(1).got.len() == 8 && s.actor(2).got.len() == 2
    });
    // Let the last timers lapse.
    std::thread::sleep(Duration::from_millis(5));
    let syscalls = || {
        [
            "net.syscalls_read",
            "net.syscalls_write",
            "net.syscalls_poll",
        ]
        .map(counter)
    };
    let before = syscalls();
    std::thread::sleep(Duration::from_millis(50));
    let after = syscalls();
    assert_eq!(after[0], before[0], "read(2) while idle");
    assert_eq!(after[1], before[1], "write(2) while idle");
    assert!(
        after[2] - before[2] <= 5,
        "{} waits in 50 ms",
        after[2] - before[2]
    );
}
