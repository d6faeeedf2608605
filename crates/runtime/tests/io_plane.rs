//! The reactor-owned outbound plane against real loopback sockets: FIFO
//! order under jitter, one coalesced write per peer per turn, and
//! blocking writes that a stuck receiver cannot stall.
//!
//! The `net.*` counters are process-global, so the tests here take
//! turns instead of running side by side.

use bytes::Bytes;
use massbft_consensus::pbft::PbftMsg;
use massbft_core::cluster::ClusterConfig;
use massbft_core::protocol::{Msg, Protocol};
use massbft_crypto::Digest;
use massbft_runtime::frame::encode_frame;
use massbft_runtime::net::{spawn_acceptor, Event, InboxStats, NetHandle, Shared};
use massbft_runtime::Cluster;
use massbft_sim_net::{FaultEvent, LinkFault, NodeId, TopologyBuilder, SECOND};
use massbft_workloads::WorkloadKind;
use std::net::TcpListener;
use std::sync::atomic::Ordering;
use std::sync::mpsc::{self, Receiver};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

static TURNS: Mutex<()> = Mutex::new(());

const A: NodeId = NodeId { group: 0, node: 0 };
const B: NodeId = NodeId { group: 0, node: 1 };

/// One LAN link A → B: `B` is a bound listener with its acceptor and
/// reader but *no reactor* — whatever arrives piles up in `rx` until
/// the test looks.
struct Link {
    shared: Arc<Shared>,
    net: NetHandle,
    rx: Receiver<Event>,
    inbox: Arc<InboxStats>,
    acceptor: Option<JoinHandle<()>>,
}

impl Link {
    fn new() -> Link {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let addr = listener.local_addr().expect("addr");
        // A's address is never dialled.
        let shared = Shared::new(TopologyBuilder::nationwide(&[2]).build(), vec![addr, addr]);
        let (tx, rx) = mpsc::channel();
        let inbox = Arc::new(InboxStats::default());
        let acceptor = spawn_acceptor(Arc::clone(&shared), B, listener, tx, Arc::clone(&inbox));
        Link {
            net: NetHandle::new(A, Arc::clone(&shared)),
            shared,
            rx,
            inbox,
            acceptor: Some(acceptor),
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

    /// Takes `n` messages out of B's inbox, in arrival order.
    fn recv(&self, n: usize) -> Vec<Msg> {
        let mut got = Vec::new();
        while got.len() < n {
            match self.rx.recv_timeout(Duration::from_secs(10)) {
                Ok(Event { from, msgs }) => {
                    assert_eq!(from, A);
                    got.extend(msgs);
                }
                Err(e) => panic!("inbox dried up after {} of {n} messages: {e}", got.len()),
            }
        }
        got
    }
}

impl Drop for Link {
    fn drop(&mut self) {
        self.shared.shutdown.store(true, Ordering::Relaxed);
        let _ = std::net::TcpStream::connect(self.shared.addrs[1]);
        if let Some(h) = self.acceptor.take() {
            let _ = h.join();
        }
    }
}

fn numbered(i: u64) -> Msg {
    Msg::EpochClose { group: 0, epoch: i }
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
        assert!(
            matches!(m, Msg::EpochClose { epoch, .. } if *epoch == i as u64),
            "message {i} out of order: {m:?}"
        );
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

/// Why blocking writes are safe: B has no reactor at all here — nothing
/// ever takes an event out of its inbox — and 48 MiB (far more than any
/// socket buffer) still goes out without a flush stalling, because B's
/// reader drains the socket into the unbounded inbox regardless.
#[test]
fn a_stuck_receiver_never_stalls_the_sender() {
    let _turn = TURNS.lock().unwrap_or_else(|e| e.into_inner());
    let mut link = Link::new();
    let payload = Bytes::from(vec![0x5Au8; 192 << 10]);
    let big = |seq: u64| {
        Msg::Pbft(PbftMsg::PrePrepare {
            view: 0,
            seq,
            payload: payload.clone(),
            digest: Digest([1; 32]),
        })
    };
    let frames = 256u64;
    let mut slowest = Duration::ZERO;
    for turn in 0..frames / 8 {
        link.route((0..8).map(|i| big(turn * 8 + i)));
        let t = Instant::now();
        link.flush_all();
        slowest = slowest.max(t.elapsed());
    }
    assert!(
        slowest < Duration::from_secs(2),
        "a flush of 1.5 MiB blocked for {slowest:?}"
    );
    // Everything reached the inbox, in order, with nobody consuming.
    let t = Instant::now();
    while link.inbox.depth() < frames {
        assert!(
            t.elapsed() < Duration::from_secs(10),
            "reader stopped draining"
        );
        std::thread::sleep(Duration::from_millis(5));
    }
    for (i, m) in link.recv(frames as usize).iter().enumerate() {
        assert!(matches!(m, Msg::Pbft(PbftMsg::PrePrepare { seq, .. }) if *seq == i as u64));
    }
}

/// The same property end to end: one replica crashed (its reactor
/// drops deliveries) and another's reactor held busy for a second (its
/// node lock is taken away); their peers' turns keep running, so the
/// cluster — which tolerates one silent replica per group — keeps
/// committing meanwhile.
#[test]
fn crashed_and_busy_peers_do_not_stall_the_cluster() {
    let _turn = TURNS.lock().unwrap_or_else(|e| e.into_inner());
    let cfg = ClusterConfig::nationwide(&[4, 4], Protocol::MassBft)
        .workload(WorkloadKind::YcsbA)
        .seed(5)
        .arrival_tps(800.0)
        .max_batch(40);
    let mut c = Cluster::new(cfg);
    c.run_until(SECOND);
    c.apply_fault(FaultEvent::Crash(NodeId::new(1, 3)));
    let obs = c.observer();
    let before = c.with_node(obs, |n| n.executed_txns());
    let during = c.with_node(NodeId::new(0, 3), |_held| {
        std::thread::sleep(Duration::from_secs(1));
        c.with_node(obs, |n| n.executed_txns())
    });
    assert!(
        during > before,
        "no commits while a peer's reactor was held: {before} → {during}"
    );
    c.run_until(3 * SECOND);
    assert!(c.check_consistency(), "replicas diverged");
}
