//! TCP connection manager: shared cluster state, the reactor-owned
//! outbound plane (one due-time-gated FIFO per peer, flushed with one
//! coalesced write per peer per reactor turn), and inbound reader
//! threads handing every message of a read to the reactor as one batch.
//!
//! Latency injection happens at the *connection layer*, netem-style:
//! every frame gets a due instant `turn stamp + topology latency (+
//! adversarial send delay + fault jitter)` when routed, and stays in
//! its peer's FIFO until then. Loopback TCP is effectively
//! instantaneous, so the injected delay dominates exactly like a WAN
//! round trip would. Partitions, crashes, and link faults are decided at
//! route time by the cluster-wide [`FaultState`] — the same
//! [`FaultState::route`] the simulator asks.
//!
//! Thread model: a node's reactor owns every outbound socket of that
//! node and alone writes to them; each accepted inbound connection has
//! one reader thread that only does `read` → decode → push to the
//! reactor's unbounded inbox. Writes block, and that cannot deadlock:
//! a reader never waits on its reactor, so a peer's receive buffer
//! always drains, however busy, crashed or blocked that peer's reactor
//! is — a slow reactor accumulates inbox depth (`/status`), not socket
//! backpressure.
//!
//! The measured surface is unchanged by the I/O-plane rework: names and
//! meanings of `net.syscalls_read`/`write`, `net.tcp_bytes_in`/`out`,
//! `net.frames_in`/`out`, `net.coalesced_writes` (writes that carried
//! >= 2 frames) and the per-link `net.queue.*` depth gauges.

use crate::frame::{decode_msg, FrameBuffer, FRAME_HEADER};
use bytes::Bytes;
use massbft_core::protocol::Msg;
use massbft_sim_net::{DenseIndex, FaultRng, FaultState, NodeId, Routing, Time, Topology};
use massbft_telemetry::registry::{self, Counter, Gauge};
use std::collections::VecDeque;
use std::io::{Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc::Sender;
use std::sync::{Arc, RwLock};
use std::time::{Duration, Instant};

/// Coalescing buffer: a flush packs a peer's due small frames into one
/// write up to this size. Also the most a reader asks of one `read`.
const COALESCE_BYTES: usize = 256 << 10;
/// Frames at or above this size are written directly from their own
/// refcounted buffer instead of being copied into the coalescing buffer.
const LARGE_FRAME: usize = 64 << 10;
/// Stack size for I/O threads; a 4x8 cluster runs a few hundred of
/// them, so the default 8 MiB reservation would be wasteful.
const IO_STACK: usize = 256 << 10;
/// Connect attempts per peer, [`CONNECT_RETRY_US`] apart (~5 s): peers
/// bind their listeners before any reactor runs in-process, but
/// multi-process clusters start children at slightly different times.
const CONNECT_ATTEMPTS: u32 = 50;
/// Pause between connect attempts to one peer.
const CONNECT_RETRY_US: Time = 100_000;
/// Hard bound on one blocking write. Readers always drain (module
/// docs), so only a peer *process* that is stopped or gone can hit it;
/// its link is then closed like any other failed write.
const WRITE_STALL: Duration = Duration::from_secs(5);

/// What a reactor finds in its inbox: every message decoded from one
/// read of a peer's connection (or one loopback send), in stream order
/// — one channel send and one wake-up per read, not per frame. An empty
/// batch is the teardown wake-up.
pub struct Event {
    /// Sending node.
    pub from: NodeId,
    /// The messages.
    pub msgs: Vec<Msg>,
}

/// Inbox accounting for one reactor: messages enqueued by readers (and
/// loopback sends) minus messages the reactor has consumed. The ops
/// plane reports `depth()` as the reactor's backlog.
#[derive(Default)]
pub struct InboxStats {
    /// Messages pushed into the reactor's channel.
    pub enqueued: AtomicU64,
    /// Messages the reactor has taken out (processed or dropped-as-crashed).
    pub processed: AtomicU64,
}

impl InboxStats {
    /// Current queue depth.
    pub fn depth(&self) -> u64 {
        self.enqueued
            .load(Ordering::Relaxed)
            .saturating_sub(self.processed.load(Ordering::Relaxed))
    }
}

/// Transport metrics, registered in the global telemetry registry.
pub struct NetCounters {
    /// Raw TCP bytes received (including frame headers and hellos).
    pub tcp_bytes_in: Counter,
    /// Raw TCP bytes written.
    pub tcp_bytes_out: Counter,
    /// Complete frames decoded from peers.
    pub frames_in: Counter,
    /// Frames routed for transmission.
    pub frames_out: Counter,
    /// Writes that packed 2+ frames into one syscall.
    pub coalesced_writes: Counter,
    /// `read(2)` calls issued by reader threads.
    pub syscalls_read: Counter,
    /// `write(2)` calls issued by reactors flushing their peers.
    pub syscalls_write: Counter,
}

impl NetCounters {
    fn new() -> Self {
        NetCounters {
            tcp_bytes_in: registry::counter("net.tcp_bytes_in"),
            tcp_bytes_out: registry::counter("net.tcp_bytes_out"),
            frames_in: registry::counter("net.frames_in"),
            frames_out: registry::counter("net.frames_out"),
            coalesced_writes: registry::counter("net.coalesced_writes"),
            syscalls_read: registry::counter("net.syscalls_read"),
            syscalls_write: registry::counter("net.syscalls_write"),
        }
    }
}

/// Cluster-wide immutable wiring plus the mutable fault state. One
/// instance per [`crate::Cluster`], shared by every thread it spawns.
pub struct Shared {
    /// The latency/group layout (bandwidth fields unused: loopback TCP
    /// is the real transport).
    pub topo: Topology,
    /// Listener address of every node, dense `(group, node)` order.
    pub addrs: Vec<SocketAddr>,
    index: DenseIndex,
    /// Scripted + runtime fault state. Crashed nodes neither send nor
    /// receive (their reactors drop inbound events and timers), but
    /// state is retained.
    pub faults: RwLock<FaultState>,
    /// Set once at teardown; all threads poll it and exit.
    pub shutdown: AtomicBool,
    start: Instant,
    /// Transport metrics (global telemetry registry).
    pub counters: NetCounters,
    /// WAN bytes sent per node (modeled body sizes), for the
    /// leader-bottleneck probe in reports.
    pub wan_out_per_node: Vec<AtomicU64>,
    /// Total WAN bytes (modeled body sizes, comparable to the sim's
    /// `wan_bytes`).
    pub wan_bytes: AtomicU64,
    /// Total LAN bytes (modeled body sizes).
    pub lan_bytes: AtomicU64,
}

impl Shared {
    /// Builds the shared state. `addrs` must be in dense node order.
    pub fn new(topo: Topology, addrs: Vec<SocketAddr>) -> Arc<Self> {
        let index = DenseIndex::new(&topo.group_sizes);
        let nodes = index.node_count();
        assert_eq!(addrs.len(), nodes, "one address per node");
        Arc::new(Shared {
            addrs,
            index,
            faults: RwLock::new(FaultState::new(&topo.group_sizes)),
            shutdown: AtomicBool::new(false),
            start: Instant::now(),
            counters: NetCounters::new(),
            wan_out_per_node: (0..nodes).map(|_| AtomicU64::new(0)).collect(),
            wan_bytes: AtomicU64::new(0),
            lan_bytes: AtomicU64::new(0),
            topo,
        })
    }

    /// Microseconds of wall clock since the cluster was built. This is
    /// the `Ctx::now` the actors see, so telemetry spans and latency
    /// samples are real durations.
    pub fn now_us(&self) -> Time {
        self.start.elapsed().as_micros() as Time
    }

    /// Dense index of a node.
    pub fn idx(&self, id: NodeId) -> usize {
        self.index.of(id)
    }

    /// Whether `id` is currently crashed.
    pub fn is_crashed(&self, id: NodeId) -> bool {
        self.faults.read().expect("faults lock").is_crashed(id)
    }

    fn shutting_down(&self) -> bool {
        self.shutdown.load(Ordering::Relaxed)
    }
}

/// One outbound link, owned by the sending node's reactor: frames wait
/// here until their due instant, then leave in one coalesced write.
struct Peer {
    addr: SocketAddr,
    /// `None` until the first due frame opens the connection, and again
    /// after the link is closed.
    stream: Option<TcpStream>,
    /// FIFO of `(due, frame)`. Only the head gates: under jitter a
    /// later frame with an earlier due instant waits behind it, like the
    /// sim's per-link FIFO.
    q: VecDeque<(Time, Bytes)>,
    /// Connect attempts left; 0 with no stream means the link is closed
    /// (connect gave up or a write failed) and its frames are dropped.
    attempts_left: u32,
    /// Earliest instant of the next connect attempt.
    retry_at: Time,
    depth: Gauge,
}

impl Peer {
    fn closed(&self) -> bool {
        self.stream.is_none() && self.attempts_left == 0
    }

    fn close(&mut self) {
        self.stream = None;
        self.attempts_left = 0;
        self.q.clear();
    }

    /// When this link next needs the reactor: its head frame coming due,
    /// or the connect retry that frame is waiting for.
    fn next_due(&self) -> Option<Time> {
        self.q.front().map(|&(due, _)| due.max(self.retry_at))
    }

    /// One connect attempt plus the hello that names `src` to the
    /// reader side. Loopback connects succeed or are refused at once.
    fn connect(&mut self, src: NodeId, now: Time, c: &NetCounters) {
        let mut hello = [0u8; 8];
        hello[..4].copy_from_slice(&src.group.to_le_bytes());
        hello[4..].copy_from_slice(&src.node.to_le_bytes());
        self.attempts_left -= 1;
        self.retry_at = now + CONNECT_RETRY_US;
        let Ok(mut stream) = TcpStream::connect_timeout(&self.addr, Duration::from_millis(500))
        else {
            if self.attempts_left == 0 {
                self.close();
            }
            return;
        };
        let _ = stream.set_nodelay(true);
        let _ = stream.set_write_timeout(Some(WRITE_STALL));
        match write_counted(&mut stream, &hello, c) {
            Ok(()) => {
                self.stream = Some(stream);
                self.retry_at = 0;
            }
            Err(_) => self.close(),
        }
    }

    /// Pops every due frame off the head of the FIFO and writes them:
    /// small frames packed into `coalesce` and sent in one write, a
    /// large or lone frame streamed straight from its refcounted buffer.
    fn write_due(
        &mut self,
        now: Time,
        coalesce: &mut Vec<u8>,
        c: &NetCounters,
    ) -> std::io::Result<()> {
        let stream = self.stream.as_mut().expect("flush connects first");
        let mut packed = 0usize;
        let head_due = |q: &VecDeque<(Time, Bytes)>| q.front().is_some_and(|&(due, _)| due <= now);
        while head_due(&self.q) {
            let (_, frame) = self.q.pop_front().expect("front checked");
            let large = frame.len() >= LARGE_FRAME;
            if packed > 0 && (large || coalesce.len() + frame.len() > COALESCE_BYTES) {
                write_packed(stream, coalesce, &mut packed, c)?;
            }
            if large || (packed == 0 && !head_due(&self.q)) {
                write_counted(stream, &frame, c)?;
            } else {
                coalesce.extend_from_slice(&frame);
                packed += 1;
            }
        }
        if packed > 0 {
            write_packed(stream, coalesce, &mut packed, c)?;
        }
        Ok(())
    }
}

fn write_packed(
    stream: &mut TcpStream,
    coalesce: &mut Vec<u8>,
    packed: &mut usize,
    c: &NetCounters,
) -> std::io::Result<()> {
    if *packed >= 2 {
        c.coalesced_writes.inc();
    }
    *packed = 0;
    let res = write_counted(stream, coalesce, c);
    coalesce.clear();
    res
}

fn write_counted(stream: &mut TcpStream, mut buf: &[u8], c: &NetCounters) -> std::io::Result<()> {
    while !buf.is_empty() {
        let n = stream.write(buf)?;
        if n == 0 {
            return Err(std::io::ErrorKind::WriteZero.into());
        }
        c.syscalls_write.inc();
        c.tcp_bytes_out.add(n as u64);
        buf = &buf[n..];
    }
    Ok(())
}

/// A reactor's outbound plane: the per-peer FIFOs and sockets, and the
/// sender-side fault RNG. Used by exactly one thread.
pub struct NetHandle {
    src: NodeId,
    shared: Arc<Shared>,
    /// Links opened so far, in first-use order.
    peers: Vec<Peer>,
    /// Dense node index → position in `peers` (`usize::MAX`: none yet).
    slot: Vec<usize>,
    rng: FaultRng,
    coalesce: Vec<u8>,
}

impl NetHandle {
    /// A handle for node `src`. The RNG seed differs per node so fault
    /// draws are independent streams.
    pub fn new(src: NodeId, shared: Arc<Shared>) -> Self {
        NetHandle {
            src,
            slot: vec![usize::MAX; shared.addrs.len()],
            shared,
            peers: Vec::new(),
            rng: FaultRng::new((src.group as u64) << 32 | src.node as u64),
            coalesce: Vec::new(),
        }
    }

    /// Routes an encoded frame to `dst`, applying crash/partition gating,
    /// link-fault drop/dup/jitter, and injected latency on top of
    /// `sent_at` — the reactor passes one clock read per turn, taken
    /// after the handlers ran, so latency is never under-applied and a
    /// turn's frames to one peer come due together. The frame leaves
    /// with the first [`NetHandle::flush`] at or after its due instant.
    /// `dst` must not be `src` (reactors loop local sends back through
    /// their own channel, like the sim's immediate loopback delivery).
    pub fn send(&mut self, dst: NodeId, frame: Bytes, sent_at: Time) {
        debug_assert_ne!(dst, self.src, "loopback handled by the reactor");
        if self.shared.shutting_down() {
            return;
        }
        let shared = &self.shared;
        let is_wan = shared.topo.is_wan(self.src, dst);
        let verdict = {
            let f = shared.faults.read().expect("faults lock");
            if f.is_crashed(self.src) {
                return;
            }
            f.route(self.src, dst, is_wan, &mut self.rng)
        };
        let Routing::Deliver {
            duplicate,
            extra_delay,
            ..
        } = verdict
        else {
            return;
        };
        let due = sent_at + shared.topo.latency(self.src, dst) + extra_delay;
        // Byte accounting uses the modeled body size so wall-clock
        // reports stay comparable with the simulator's `wan_bytes`.
        let body = (frame.len() - FRAME_HEADER) as u64;
        if is_wan {
            shared.wan_bytes.fetch_add(body, Ordering::Relaxed);
            shared.wan_out_per_node[shared.idx(self.src)].fetch_add(body, Ordering::Relaxed);
        } else {
            shared.lan_bytes.fetch_add(body, Ordering::Relaxed);
        }
        shared.counters.frames_out.add(1 + duplicate as u64);
        let peer = self.peer(dst);
        if peer.closed() {
            return;
        }
        if duplicate {
            peer.q.push_back((due, frame.clone()));
        }
        peer.q.push_back((due, frame));
        peer.depth.set(peer.q.len() as u64);
    }

    fn peer(&mut self, dst: NodeId) -> &mut Peer {
        let idx = self.shared.idx(dst);
        if self.slot[idx] == usize::MAX {
            self.slot[idx] = self.peers.len();
            let src = self.src;
            self.peers.push(Peer {
                addr: self.shared.addrs[idx],
                stream: None,
                q: VecDeque::new(),
                attempts_left: CONNECT_ATTEMPTS,
                retry_at: 0,
                depth: registry::gauge(&format!(
                    "net.queue.g{}n{}-g{}n{}",
                    src.group, src.node, dst.group, dst.node
                )),
            });
        }
        &mut self.peers[self.slot[idx]]
    }

    /// The earliest instant any link needs a [`NetHandle::flush`]; the
    /// reactor folds it into its sleep deadline next to the timer wheel.
    pub fn next_due(&self) -> Option<Time> {
        self.peers.iter().filter_map(Peer::next_due).min()
    }

    /// Writes out everything that is due at `now`: at most one coalesced
    /// write per peer (large frames apart). Blocking — see the module
    /// docs for why that cannot deadlock. A link whose connect gave up
    /// or whose write failed is closed and its frames dropped.
    pub fn flush(&mut self, now: Time) {
        let c = &self.shared.counters;
        for p in &mut self.peers {
            if p.next_due().is_none_or(|due| due > now) {
                continue;
            }
            if p.stream.is_none() {
                p.connect(self.src, now, c);
            }
            if p.stream.is_some() && p.write_due(now, &mut self.coalesce, c).is_err() {
                p.close();
            }
            p.depth.set(p.q.len() as u64);
        }
    }
}

/// Spawns the acceptor thread for one node's listener. Each accepted
/// connection gets its own reader thread feeding `tx`. The acceptor
/// exits on the first accept after the shutdown flag is set (teardown
/// pokes it with a throwaway connect); on the way out it shuts every
/// accepted socket down, which ends the blocking `read` of its reader,
/// and joins the readers — so joining the acceptor joins them all.
pub fn spawn_acceptor(
    shared: Arc<Shared>,
    id: NodeId,
    listener: TcpListener,
    tx: Sender<Event>,
    inbox: Arc<InboxStats>,
) -> std::thread::JoinHandle<()> {
    std::thread::Builder::new()
        .name(format!("acc-{id}"))
        .stack_size(IO_STACK)
        .spawn(move || {
            let mut readers = Vec::new();
            for stream in listener.incoming() {
                if shared.shutting_down() {
                    break;
                }
                let Ok(stream) = stream else { continue };
                let stream = Arc::new(stream);
                let reader = {
                    let (shared, stream) = (Arc::clone(&shared), Arc::clone(&stream));
                    let (tx, inbox) = (tx.clone(), Arc::clone(&inbox));
                    std::thread::Builder::new()
                        .name(format!("r-{id}"))
                        .stack_size(IO_STACK)
                        .spawn(move || reader_loop(&shared, &stream, &tx, &inbox))
                };
                if let Ok(reader) = reader {
                    readers.push((stream, reader));
                }
            }
            for (stream, reader) in readers {
                let _ = stream.shutdown(Shutdown::Both);
                let _ = reader.join();
            }
        })
        .expect("spawn acceptor")
}

fn reader_loop(shared: &Shared, stream: &TcpStream, tx: &Sender<Event>, inbox: &InboxStats) {
    let _ = stream.set_nodelay(true);
    read_frames(shared, stream, tx, inbox);
    // The acceptor keeps the socket alive for teardown; with its reader
    // gone nothing drains it, so refuse further bytes — the sender's
    // next write fails and closes the link instead of blocking on a
    // full buffer.
    let _ = stream.shutdown(Shutdown::Both);
}

fn read_frames(shared: &Shared, mut stream: &TcpStream, tx: &Sender<Event>, inbox: &InboxStats) {
    // Hello: who is talking.
    let mut hello = [0u8; 8];
    if stream.read_exact(&mut hello).is_err() {
        return;
    }
    shared.counters.syscalls_read.inc();
    shared.counters.tcp_bytes_in.add(8);
    let from = NodeId::new(
        u32::from_le_bytes(hello[..4].try_into().expect("len")),
        u32::from_le_bytes(hello[4..].try_into().expect("len")),
    );
    let mut fb = FrameBuffer::new();
    // A mis-framed stream is unrecoverable: deliver what decoded before
    // it, then drop the connection (the sim's equivalent is a dropped
    // message; a Byzantine-garbage peer loses its link).
    let mut intact = true;
    while intact {
        // Blocks until bytes arrive, the peer closes, or teardown shuts
        // the socket down (both read as 0 or an error).
        match fb.fill_from(&mut stream, COALESCE_BYTES) {
            Ok(0) => return,
            Ok(n) => {
                shared.counters.syscalls_read.inc();
                shared.counters.tcp_bytes_in.add(n as u64);
            }
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
            Err(_) => return,
        }
        let mut msgs = Vec::new();
        let mut frames = 0;
        while intact {
            match fb.next_frame() {
                Ok(Some(body)) => {
                    frames += 1;
                    match decode_msg(&body) {
                        Ok(m) => msgs.push(m),
                        Err(_) => intact = false,
                    }
                }
                Ok(None) => break,
                Err(_) => intact = false,
            }
        }
        shared.counters.frames_in.add(frames);
        if msgs.is_empty() {
            continue;
        }
        inbox
            .enqueued
            .fetch_add(msgs.len() as u64, Ordering::Relaxed);
        if tx.send(Event { from, msgs }).is_err() {
            return;
        }
    }
}
