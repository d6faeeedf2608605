//! TCP connection plane: shared cluster state, a node's outbound links
//! ([`NetHandle`]: one due-time-gated FIFO per peer, one coalesced write
//! per peer per reactor turn) and its accepted connections ([`Conn`]: one
//! read, then every frame it completed). Every socket is non-blocking and
//! belongs to the reactor hosting the node ([`crate::cluster`]); nothing
//! here spawns a thread or waits.
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
//! Backpressure lives in the sender's FIFO. What a full socket does not
//! take of a write stays at the head of the FIFO, and the link's socket,
//! registered with its reactor's [`massbft_accel::Poller`] when it
//! connects, gains write interest until it drains ([`NetHandle::ready`])
//! instead of waiting; a head without progress for [`WRITE_STALL`] closes
//! the link. A socket leaves the interest set before it closes. No reactor
//! ever blocks on a socket, so every reactor always comes back to read,
//! so every receive buffer drains and no cycle of peers waiting on each
//! other can form — whatever a node is doing (crashed, executing a long
//! batch, its lock held elsewhere), frames sent to it are read, decoded
//! and kept as its pending input.
//!
//! The measured surface keeps its names and meanings: `net.syscalls_read`
//! / `net.syscalls_write` (`read(2)` / `write(2)` calls, nothing else),
//! `net.tcp_bytes_in`/`out`, `net.frames_in`/`out`, `net.coalesced_writes`
//! (writes that carried >= 2 frames) and the per-link `net.queue.*` depth
//! gauges; `net.syscalls_poll` counts the reactors' readiness waits and
//! `net.syscalls_ctl` the changes to their interest sets.

use crate::frame::{decode_msg, FrameBuffer, FRAME_HEADER};
use bytes::Bytes;
use massbft_accel::{Interest, Poller};
use massbft_core::protocol::Msg;
use massbft_sim_net::{DenseIndex, FaultRng, FaultState, NodeId, Routing, Time, Topology};
use massbft_telemetry::registry::{self, Counter, Gauge};
use std::collections::VecDeque;
use std::io::{ErrorKind, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, RwLock};
use std::time::{Duration, Instant};

/// Coalescing buffer: a flush packs a peer's due small frames into one
/// write up to this size. Also the most a connection asks of one `read`.
const COALESCE_BYTES: usize = 256 << 10;
/// Frames at or above this size are written directly from their own
/// refcounted buffer instead of being copied into the coalescing buffer.
const LARGE_FRAME: usize = 64 << 10;
/// Connect attempts per peer, [`CONNECT_RETRY_US`] apart (~5 s): peers
/// bind their listeners before any reactor runs in-process, but
/// multi-process clusters start children at slightly different times.
const CONNECT_ATTEMPTS: u32 = 50;
/// Pause between connect attempts to one peer.
const CONNECT_RETRY_US: Time = 100_000;
/// How long the head of a FIFO may sit on a full socket without a byte
/// of progress. Receive buffers always drain (module docs), so only a
/// peer *process* that is stopped or gone can hit it; its link is then
/// closed like any other failed write.
const WRITE_STALL: Time = 5_000_000;

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
    /// `read(2)` calls on inbound connections.
    pub syscalls_read: Counter,
    /// `write(2)` calls flushing peers.
    pub syscalls_write: Counter,
    /// Readiness waits (`epoll_pwait2(2)` calls), one per reactor turn.
    pub syscalls_poll: Counter,
    /// Interest-set changes (`epoll_ctl(2)` calls): a socket registered,
    /// switched to or from write interest, or deleted.
    pub syscalls_ctl: Counter,
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
            syscalls_poll: registry::counter("net.syscalls_poll"),
            syscalls_ctl: registry::counter("net.syscalls_ctl"),
        }
    }

    /// Counts one interest-set change, and passes on its result.
    pub(crate) fn ctl(&self, change: std::io::Result<()>) -> std::io::Result<()> {
        self.syscalls_ctl.inc();
        change
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
    /// receive (their reactors drop inbound messages and timers), but
    /// state is retained.
    pub faults: RwLock<FaultState>,
    /// Set once at teardown; every reactor sees it within one wait.
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

    /// Whether teardown has begun.
    pub fn shutting_down(&self) -> bool {
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
    /// sim's per-link FIFO. The unwritten tail of a partial write goes
    /// back to the front, due at once.
    q: VecDeque<(Time, Bytes)>,
    /// Connect attempts left; 0 with no stream means the link is closed
    /// (connect gave up or a write failed) and its frames are dropped.
    attempts_left: u32,
    /// Earliest instant of the next connect attempt.
    retry_at: Time,
    /// Since when the head has sat on a full socket without a byte going
    /// out. While set, the link waits for writability, not for `flush`.
    blocked: Option<Time>,
    /// What the stream is registered under with the reactor's poller.
    token: u64,
    depth: Gauge,
}

impl Peer {
    fn closed(&self) -> bool {
        self.stream.is_none() && self.attempts_left == 0
    }

    fn close(&mut self, poller: &Poller, c: &NetCounters) {
        if let Some(stream) = self.stream.take() {
            let _ = c.ctl(poller.delete(&stream));
        }
        self.attempts_left = 0;
        self.blocked = None;
        self.q.clear();
    }

    /// When this link next needs a flush: its head frame coming due, the
    /// connect retry that frame is waiting for, or — blocked — the
    /// instant its stall becomes a failure.
    fn next_due(&self) -> Option<Time> {
        match self.blocked {
            Some(since) => Some(since + WRITE_STALL),
            None => self.q.front().map(|&(due, _)| due.max(self.retry_at)),
        }
    }

    /// One connect attempt plus the hello that names `src` to the
    /// accepting side, then the registration, for errors only until a
    /// write blocks. Loopback connects succeed or are refused at once, and
    /// a fresh socket's empty send buffer takes the 8 bytes whole.
    fn connect(&mut self, src: NodeId, now: Time, poller: &Poller, c: &NetCounters) {
        let hello = [src.group.to_le_bytes(), src.node.to_le_bytes()].concat();
        self.attempts_left -= 1;
        self.retry_at = now + CONNECT_RETRY_US;
        let Ok(mut stream) = TcpStream::connect_timeout(&self.addr, Duration::from_millis(500))
        else {
            if self.attempts_left == 0 {
                self.close(poller, c);
            }
            return;
        };
        let _ = stream.set_nodelay(true);
        let add = |s: &TcpStream| c.ctl(poller.add(s, self.token, Interest::None));
        if matches!(write_counted(&mut stream, &hello, c), Ok(8))
            && stream.set_nonblocking(true).is_ok()
            && add(&stream).is_ok()
        {
            self.stream = Some(stream);
            self.retry_at = 0;
        } else {
            self.close(poller, c);
        }
    }

    /// Writes the due frames at the head of the FIFO until none is due or
    /// the socket is full: small frames packed into `coalesce` and sent in
    /// one write, a large or lone frame straight from its refcounted
    /// buffer. What a full socket did not take goes back to the head, and
    /// the registration follows: write interest from the write that
    /// blocks, errors only from the one that drains.
    fn write_due(
        &mut self,
        now: Time,
        coalesce: &mut Vec<u8>,
        poller: &Poller,
        c: &NetCounters,
    ) -> std::io::Result<()> {
        let stream = self.stream.as_mut().expect("flush connects first");
        let since = self.blocked.take();
        let mut progress = false;
        while self.q.front().is_some_and(|&(due, _)| due <= now) {
            let (_, frame) = self.q.pop_front().expect("front checked");
            coalesce.clear();
            let (mut packed, mut size) = (1u32, frame.len());
            while let Some((_, next)) = self.q.front().filter(|(due, next)| {
                *due <= now
                    && frame.len().max(next.len()) < LARGE_FRAME
                    && size + next.len() <= COALESCE_BYTES
            }) {
                if packed == 1 {
                    coalesce.extend_from_slice(&frame);
                }
                coalesce.extend_from_slice(next);
                (packed, size) = (packed + 1, size + next.len());
                self.q.pop_front();
            }
            let out: &[u8] = if packed == 1 { &frame } else { coalesce };
            if packed >= 2 {
                c.coalesced_writes.inc();
            }
            let n = write_counted(stream, out, c)?;
            progress |= n > 0;
            if n < out.len() {
                let tail = match packed {
                    1 => frame.slice(n..),
                    _ => Bytes::copy_from_slice(&out[n..]),
                };
                self.q.push_front((0, tail));
                self.blocked = Some(since.filter(|_| !progress).unwrap_or(now));
                break;
            }
        }
        if since.is_some() != self.blocked.is_some() {
            let interest = self.blocked.map_or(Interest::None, |_| Interest::Write);
            c.ctl(poller.modify(stream, self.token, interest))?;
        }
        Ok(())
    }
}

/// One `write(2)`: how much of `buf` the socket took — less than all of
/// it, possibly nothing, exactly when its send buffer is full.
fn write_counted(stream: &mut TcpStream, buf: &[u8], c: &NetCounters) -> std::io::Result<usize> {
    c.syscalls_write.inc();
    match stream.write(buf) {
        Ok(0) => Err(ErrorKind::WriteZero.into()),
        Ok(n) => {
            c.tcp_bytes_out.add(n as u64);
            Ok(n)
        }
        Err(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::Interrupted) => Ok(0),
        Err(e) => Err(e),
    }
}

/// A node's outbound plane: the per-peer FIFOs and sockets, and the
/// sender-side fault RNG. Used by exactly one thread.
pub struct NetHandle {
    src: NodeId,
    shared: Arc<Shared>,
    /// The link to each node, by dense index, once a frame was routed to it.
    peers: Vec<Option<Peer>>,
    /// The link to dense node `d` is registered under token `links + d`.
    links: u64,
    rng: FaultRng,
    coalesce: Vec<u8>,
}

impl NetHandle {
    /// A handle for node `src` whose link to dense node `d` registers its
    /// socket under token `links + d`. The RNG seed differs per node so
    /// fault draws are independent streams.
    pub fn new(src: NodeId, shared: Arc<Shared>, links: u64) -> Self {
        NetHandle {
            src,
            peers: shared.addrs.iter().map(|_| None).collect(),
            links,
            shared,
            rng: FaultRng::new((src.group as u64) << 32 | src.node as u64),
            coalesce: Vec::new(),
        }
    }

    /// Routes an encoded frame to `dst`, applying crash/partition gating,
    /// link-fault drop/dup/jitter, and injected latency on top of
    /// `sent_at` — the reactor passes one clock read per node turn, taken
    /// after the handlers ran, so latency is never under-applied and a
    /// turn's frames to one peer come due together. The frame leaves
    /// with the first [`NetHandle::flush`] at or after its due instant.
    /// `dst` must not be `src` (reactors queue local sends on the node's
    /// own input, like the sim's immediate loopback delivery).
    pub fn send(&mut self, dst: NodeId, frame: Bytes, sent_at: Time) {
        debug_assert_ne!(dst, self.src, "loopback handled by the reactor");
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
        let (src, idx) = (self.src, self.shared.idx(dst));
        self.peers[idx].get_or_insert_with(|| Peer {
            addr: self.shared.addrs[idx],
            stream: None,
            q: VecDeque::new(),
            attempts_left: CONNECT_ATTEMPTS,
            retry_at: 0,
            blocked: None,
            token: self.links + idx as u64,
            depth: registry::gauge(&format!(
                "net.queue.g{}n{}-g{}n{}",
                src.group, src.node, dst.group, dst.node
            )),
        })
    }

    /// The earliest instant any link needs a [`NetHandle::flush`]; the
    /// reactor folds it into its wait next to the timer wheel.
    pub fn next_due(&self) -> Option<Time> {
        self.peers.iter().flatten().filter_map(Peer::next_due).min()
    }

    /// Writes out what is due at `now` and the sockets have room for: at
    /// most one coalesced write per peer (large frames apart), never
    /// waiting. A link whose connect gave up, whose write failed or whose
    /// head stalled for [`WRITE_STALL`] is closed and its frames dropped.
    pub fn flush(&mut self, now: Time, poller: &Poller) {
        let c = &self.shared.counters;
        for p in self.peers.iter_mut().flatten() {
            if p.next_due().is_none_or(|due| due > now) {
                continue;
            }
            if p.blocked.is_some() {
                p.close(poller, c);
            } else if p.stream.is_none() {
                p.connect(self.src, now, poller, c);
            }
            if p.stream.is_some() && p.write_due(now, &mut self.coalesce, poller, c).is_err() {
                p.close(poller, c);
            }
            p.depth.set(p.q.len() as u64);
        }
    }

    /// Answers the poller's event for the link to dense node `d`. Blocked,
    /// it has room again (or an error, which the write then meets) and
    /// writes what is due. Not blocked, it waited for nothing but an error
    /// or a hang-up, so it is closed: its next write would fail.
    pub fn ready(&mut self, d: usize, now: Time, poller: &Poller) {
        let c = &self.shared.counters;
        let p = self.peers[d].as_mut().expect("a registered link");
        if p.blocked.is_none() || p.write_due(now, &mut self.coalesce, poller, c).is_err() {
            p.close(poller, c);
        }
        p.depth.set(p.q.len() as u64);
    }
}

/// One accepted inbound connection: its non-blocking socket, the sender
/// its hello named, and the reassembly buffer the hello is the first
/// state of.
pub struct Conn {
    /// The socket, for the reactor's interest set.
    pub stream: TcpStream,
    from: Option<NodeId>,
    fb: FrameBuffer,
}

impl Conn {
    /// Takes over an accepted socket.
    pub fn new(stream: TcpStream) -> std::io::Result<Conn> {
        stream.set_nodelay(true)?;
        stream.set_nonblocking(true)?;
        Ok(Conn {
            stream,
            from: None,
            fb: FrameBuffer::new(),
        })
    }

    /// One `read(2)`, then every message it completed goes to `deliver`
    /// with its sender, in stream order. `false` once the connection is
    /// finished — closed by the peer, failed, or mis-framed, which is
    /// unrecoverable: what decoded before the bad frame is delivered and
    /// the caller drops the connection (a Byzantine-garbage peer loses its
    /// link: its next write fails instead of filling a buffer nobody reads).
    pub fn read_once(&mut self, c: &NetCounters, mut deliver: impl FnMut(NodeId, Msg)) -> bool {
        c.syscalls_read.inc();
        match self.fb.fill_from(&mut self.stream, COALESCE_BYTES) {
            Ok(0) => return false,
            Ok(n) => c.tcp_bytes_in.add(n as u64),
            Err(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::Interrupted) => {
                return true
            }
            Err(_) => return false,
        }
        if self.from.is_none() {
            let Some(hello) = self.fb.take_prefix::<8>() else {
                return true;
            };
            let word = |at: usize| u32::from_le_bytes(hello[at..at + 4].try_into().expect("len"));
            self.from = Some(NodeId::new(word(0), word(4)));
        }
        let from = self.from.expect("hello read above");
        let mut frames = 0;
        let intact = loop {
            let msg = match self.fb.next_frame() {
                Ok(Some(body)) => decode_msg(&body),
                Ok(None) => break true,
                Err(_) => break false,
            };
            let Ok(msg) = msg else { break false };
            frames += 1;
            deliver(from, msg);
        };
        c.frames_in.add(frames);
        intact
    }
}
