//! M nodes on N readiness-driven reactor threads behind a wall-clock
//! [`Driver`], and the [`Cluster`] that puts `massbft_core::cluster`'s
//! [`Harness`] on top of it, so the same experiment code, fault
//! schedules, and adversary specs drive either the simulator or real TCP.
//!
//! Differences from the simulator, by design:
//! - `Ctx::now()` is wall-clock microseconds since cluster start, so
//!   latency samples and telemetry spans measure real time.
//! - `Command::SpendCpu` is ignored: the actors burn real CPU here, the
//!   virtual cost model would double-count it.
//! - Runs are *not* bit-deterministic (readiness order and the clock
//!   order message interleavings); protocol-level agreement still holds,
//!   which `tests/cross_driver.rs` checks by comparing ledgers across
//!   drivers under timing-independent configurations.
//!
//! Crash semantics mirror the simulator exactly: a crashed node's input
//! (messages and expiring timers) is dropped silently (state retained,
//! timers consumed), and its sends are gated in
//! [`crate::net::NetHandle::send`]; recovery just clears the flag
//! without re-running `on_start`.
//!
//! Hosted node *i* lives on reactor *i mod N*, N =
//! [`massbft_accel::host_cores`] capped by the number of nodes. A reactor
//! owns its nodes' listeners, accepted connections and outbound links —
//! all non-blocking, each registered once with the reactor's [`Poller`]
//! under a [`token`] that names it for life — and one timer wheel, and
//! alone reads, runs and writes for them. Its *turn*: wait in one
//! `epoll_pwait2` until a socket is ready or the earliest of wheel
//! deadline, due outbound frame and 20 ms → for each reported socket, and
//! no other, accept, read once (its complete frames onto the destination
//! node's input) or let a blocked link write → expire timers → run every
//! node that has input, under its lock, and route its handlers' commands
//! under one clock stamp → write what is due until the sockets are full.
//! No step blocks on a socket ([`crate::net`] has why that rules out
//! deadlock); the one wait is for a node lock held elsewhere (`with_node`,
//! an ops scrape), which stalls the reactor's other nodes too. It ends
//! because no thread holds two node locks, and nobody waits on the
//! cluster while holding one ([`Driver::with_node`]).
//! Every message handed to a node or routed is recorded with the probes
//! the simulator calls (`massbft_sim_net::fault`), so a `/trace` scrape
//! stitches into the same cross-node picture as a simulator trace.

use crate::frame::encode_frame;
use crate::net::{Conn, NetCounters, NetHandle, Shared};
use crate::ops::{self, OpsConfig, OpsHandle};
use crate::wheel::TimerWheel;
use massbft_accel::{Events, Interest, Poller};
use massbft_core::adversary::FaultEvent;
use massbft_core::cluster::{ClusterConfig, Divergence, Driver, Harness, Report, Traffic};
use massbft_core::protocol::{Msg, Node};
use massbft_crypto::KeyRegistry;
use massbft_sim_net::{probe_deliver, probe_send, Actor, Command, Ctx, NodeId, Time, Topology};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::Ordering;
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::Duration;

/// Longest wait of a reactor with nothing due: how soon it notices the
/// shutdown flag.
const REACTOR_POLL_US: u64 = 20_000;
/// Most events one wait reports; sockets past it stay ready for the next.
const EVENTS: usize = 256;
/// A [`token`]'s low half: the listener, `LINK + d` for the outbound link
/// to dense node `d`, or below `LINK` an accepted connection's slot.
const LISTENER: u32 = u32::MAX;
const LINK: u32 = 1 << 31;

/// The token of socket `socket` (the low half) of the reactor's node `i`:
/// the listener's from seating, a connection's from its accept, a link's
/// from its connect, each until the socket leaves the interest set.
fn token(i: usize, socket: u32) -> u64 {
    (i as u64) << 32 | u64::from(socket)
}

/// Which part of the cluster this OS process hosts (multi-process
/// mode). The default, [`HostSpec::all`], hosts everything in-process
/// with ephemeral loopback ports.
#[derive(Debug, Clone)]
pub struct HostSpec {
    /// Groups whose nodes run in this process.
    pub hosted_groups: Vec<u32>,
    /// When set, node `(g, n)` listens on `127.0.0.1:(base + dense
    /// index)` — every process computes the same address table without
    /// coordination. `None` means ephemeral ports (single-process only).
    pub port_base: Option<u16>,
}

impl HostSpec {
    /// Host every group in this process on ephemeral ports.
    pub fn all(num_groups: usize) -> Self {
        HostSpec {
            hosted_groups: (0..num_groups as u32).collect(),
            port_base: None,
        }
    }

    /// Host a subset of groups with the fixed-port address scheme.
    pub fn groups(hosted: &[u32], port_base: u16) -> Self {
        HostSpec {
            hosted_groups: hosted.to_vec(),
            port_base: Some(port_base),
        }
    }
}

/// The wall-clock [`Driver`]: one loopback listener per hosted node, the
/// reactor threads that run them, the transport state they share, and the
/// ops plane.
pub struct TcpDriver {
    shared: Arc<Shared>,
    /// Every hosted node's seat, dense order.
    nodes: Vec<Arc<Seat<Node>>>,
    ops: Option<Arc<OpsHandle>>,
    /// The transport's byte counters when the traffic window opened.
    window_wan: u64,
    window_lan: u64,
    window_wan_per_node: Vec<u64>,
    /// Last field: joined after everything above stopped using the nodes.
    _reactors: Reactors,
}

/// A running wall-clock cluster experiment: the [`Harness`] of
/// [`massbft_core::cluster::Cluster`] over a [`TcpDriver`], so fault
/// schedules, windows and [`Report`]s are the simulator's, on real time.
pub struct Cluster(Harness<TcpDriver>);

impl Cluster {
    /// Builds and starts the cluster: binds one loopback listener per
    /// node, then spawns the reactor threads, which run every node's
    /// `on_start` first (every listener is already bound, so a first
    /// connect to any in-process peer succeeds whoever runs first).
    pub fn new(cfg: ClusterConfig) -> Self {
        Self::new_hosted(cfg, None)
    }

    /// Multi-process entry point: host only `spec.hosted_groups` here,
    /// with the deterministic port scheme shared by all processes.
    pub fn new_hosted(cfg: ClusterConfig, spec: Option<HostSpec>) -> Self {
        Self::on_reactors(cfg, spec, massbft_accel::host_cores())
    }

    /// [`Cluster::new_hosted`] on `reactors` threads (at least one, at
    /// most one per hosted node) instead of one per core: how the tests
    /// run the N = 1 and N = 2 planes whatever the host has.
    #[doc(hidden)]
    pub fn on_reactors(cfg: ClusterConfig, spec: Option<HostSpec>, reactors: usize) -> Self {
        Cluster(Harness::start(cfg, |cfg, topo| {
            TcpDriver::start(cfg, topo, spec, reactors)
        }))
    }

    /// Shared transport state (fault injection, byte counters).
    pub fn shared(&self) -> &Arc<Shared> {
        &self.0.driver().shared
    }

    /// Starts the live ops plane: an HTTP/1.0 introspection server
    /// (`/metrics`, `/health`, `/status`, `/trace`) for every node
    /// hosted in this process, plus the flight-recorder monitor when
    /// `cfg.flight_dir` is set. Returns the bound address. Idempotent
    /// per cluster: the second call returns the existing address.
    pub fn start_ops(&mut self, cfg: OpsConfig) -> std::io::Result<SocketAddr> {
        let d = self.0.driver_mut();
        if let Some(h) = &d.ops {
            return Ok(h.addr);
        }
        let handle = ops::start(Arc::clone(&d.shared), d.nodes.clone(), cfg)?;
        let addr = handle.addr;
        d.ops = Some(handle);
        Ok(addr)
    }

    /// The ops-plane handle, when [`Cluster::start_ops`] has run.
    pub fn ops(&self) -> Option<&Arc<OpsHandle>> {
        self.0.driver().ops.as_ref()
    }

    /// Node ids hosted in this process, dense order.
    pub fn hosted_nodes(&self) -> Vec<NodeId> {
        self.0.driver().nodes.iter().map(|n| n.id).collect()
    }

    /// The harness underneath, for experiment code that is generic over
    /// the driver (`fn run<D: Driver>(c: &mut Harness<D>)`).
    pub fn harness_mut(&mut self) -> &mut Harness<TcpDriver> {
        &mut self.0
    }

    // The rest is the harness, method for method.

    /// Runs `f` against a node's state under its lock: its reactor, and
    /// the reactor's other nodes, wait meanwhile. Keep `f` short; never
    /// call `with_node`, or run the cluster, inside `f`.
    pub fn with_node<R>(&self, id: NodeId, f: impl FnOnce(&Node) -> R) -> R {
        self.0.with_node(id, f)
    }

    /// See [`Harness::observer`].
    pub fn observer(&self) -> NodeId {
        self.0.observer()
    }

    /// Wall-clock microseconds since the cluster started.
    pub fn now(&self) -> Time {
        self.0.now()
    }

    /// See [`Harness::apply_fault`].
    pub fn apply_fault(&mut self, event: FaultEvent) {
        self.0.apply_fault(event);
    }

    /// See [`Harness::run_until`]; `t` is wall-clock µs since start.
    pub fn run_until(&mut self, t: Time) {
        self.0.run_until(t);
    }

    /// See [`Harness::run_secs`].
    pub fn run_secs(&mut self, secs: u64) -> Report {
        self.0.run_secs(secs)
    }

    /// See [`Harness::open_window`].
    pub fn open_window(&mut self) {
        self.0.open_window();
    }

    /// See [`Harness::close_window`] (latency fields need the observer's
    /// group to be hosted in this process).
    pub fn close_window(&mut self) -> Report {
        self.0.close_window()
    }

    /// See [`Harness::check_consistency`].
    pub fn check_consistency(&self) -> bool {
        self.0.check_consistency()
    }
}

impl TcpDriver {
    fn start(cfg: &ClusterConfig, topo: Topology, spec: Option<HostSpec>, reactors: usize) -> Self {
        let spec = spec.unwrap_or_else(|| HostSpec::all(topo.group_count()));
        let registry = KeyRegistry::generate(cfg.params.seed, &cfg.params.group_sizes);

        // Bind all local listeners first so the address table is
        // complete before anything starts sending.
        let mut seats = Vec::new();
        let mut addrs: Vec<SocketAddr> = Vec::with_capacity(topo.node_count());
        for (dense, id) in topo.nodes().enumerate() {
            let port = spec.port_base.map_or(0, |base| base + dense as u16);
            let mut addr = SocketAddr::from(([127, 0, 0, 1], port));
            if spec.hosted_groups.contains(&id.group) {
                let listener = TcpListener::bind(addr).expect("bind node listener");
                addr = listener.local_addr().expect("listener addr");
                let actor = Mutex::new(Node::new(id, cfg.params.clone(), registry.clone()));
                seats.push((Arc::new(Seat { id, actor }), listener));
            }
            addrs.push(addr);
        }
        let shared = Shared::new(topo, addrs);

        TcpDriver {
            window_wan_per_node: vec![0; shared.wan_out_per_node.len()],
            nodes: seats.iter().map(|(seat, _)| Arc::clone(seat)).collect(),
            _reactors: Reactors::spawn(Arc::clone(&shared), seats, reactors),
            shared,
            ops: None,
            window_wan: 0,
            window_lan: 0,
        }
    }
}

impl Driver for TcpDriver {
    /// Wall-clock microseconds since the cluster started.
    fn now(&self) -> Time {
        self.shared.now_us()
    }

    fn advance_to(&mut self, t: Time) {
        loop {
            let now = self.shared.now_us();
            if now >= t {
                return;
            }
            std::thread::sleep(Duration::from_micros(t - now));
        }
    }

    fn apply_fault(&mut self, event: FaultEvent) {
        self.shared
            .faults
            .write()
            .expect("faults lock")
            .apply(event);
    }

    fn is_crashed(&self, id: NodeId) -> bool {
        self.shared.is_crashed(id)
    }

    fn hosts(&self, id: NodeId) -> bool {
        self.nodes.iter().any(|n| n.id == id)
    }

    fn with_node<R>(&self, id: NodeId, f: impl FnOnce(&Node) -> R) -> R {
        let seat = self.nodes.iter().find(|n| n.id == id);
        let seat = seat.expect("node hosted in this process");
        f(&seat.actor.lock().expect("node lock"))
    }

    fn open_window(&mut self) {
        self.window_wan = self.shared.wan_bytes.load(Ordering::Relaxed);
        self.window_lan = self.shared.lan_bytes.load(Ordering::Relaxed);
        for (open, c) in self
            .window_wan_per_node
            .iter_mut()
            .zip(&self.shared.wan_out_per_node)
        {
            *open = c.load(Ordering::Relaxed);
        }
    }

    fn traffic(&self) -> Traffic {
        let per_node = self.shared.wan_out_per_node.iter();
        Traffic {
            wan_bytes: self.shared.wan_bytes.load(Ordering::Relaxed) - self.window_wan,
            max_node_wan_bytes: per_node
                .zip(&self.window_wan_per_node)
                .map(|(c, open)| c.load(Ordering::Relaxed) - open)
                .max()
                .unwrap_or(0),
            lan_bytes: self.shared.lan_bytes.load(Ordering::Relaxed) - self.window_lan,
        }
    }

    /// Black-box moment: the two nodes' status and ledger tails go to
    /// stderr, and with an ops plane the flight recorder snapshots
    /// everything, before the diverged state churns further.
    fn diverged(&self, at: &Divergence) {
        eprintln!("runtime: ledgers diverged: {at:?}");
        for id in [at.reference, at.node] {
            self.with_node(id, |n| {
                eprintln!("  {id:?} {:?}", n.status());
                let blocks = n.ledger().blocks();
                for b in &blocks[blocks.len().saturating_sub(3)..] {
                    eprintln!("    {b:?}");
                }
            });
        }
        if let Some(h) = &self.ops {
            h.trigger("consistency-failure");
        }
    }
}

impl Drop for TcpDriver {
    /// Deterministic teardown: the ops plane is joined here, the reactors
    /// (which notice the flag within one wait) as `_reactors` drops; then
    /// no thread of the cluster is left and every socket is closed.
    fn drop(&mut self) {
        self.shared.shutdown.store(true, Ordering::Relaxed);
        if let Some(h) = self.ops.take() {
            let _ = TcpStream::connect_timeout(&h.addr, Duration::from_millis(50));
            h.join();
        }
    }
}

/// One actor's place on a reactor, shared with whoever else reads the
/// actor (the harness, the ops plane): its identity and its state.
pub struct Seat<A> {
    /// Which node.
    pub id: NodeId,
    /// Its state, locked by its reactor for a turn, by a reader for a call.
    pub actor: Mutex<A>,
}

/// The reactor threads of one process. Dropping it stops and joins them;
/// every socket closes with the reactor that owned it.
pub struct Reactors {
    shared: Arc<Shared>,
    threads: Vec<JoinHandle<()>>,
}

impl Reactors {
    /// Puts seat *i*, with the listener peers reach it at, on reactor *i
    /// mod n* (`n` clamped to `1..=seats`) and starts the threads;
    /// `on_start` is each actor's first input.
    pub fn spawn<A>(shared: Arc<Shared>, seats: Vec<(Arc<Seat<A>>, TcpListener)>, n: usize) -> Self
    where
        A: Actor<Msg = Msg> + Send + 'static,
    {
        let n = n.clamp(1, seats.len().max(1));
        let mut hosted: Vec<Vec<Hosted<A>>> = (0..n).map(|_| Vec::new()).collect();
        let pollers: Vec<Poller> = (0..n)
            .map(|_| Poller::new().expect("an epoll instance per reactor"))
            .collect();
        for (i, (seat, listener)) in seats.into_iter().enumerate() {
            let (nodes, poller) = (&mut hosted[i % n], &pollers[i % n]);
            listener
                .set_nonblocking(true)
                .expect("non-blocking listener");
            let at = nodes.len();
            let add = poller.add(&listener, token(at, LISTENER), Interest::Read);
            shared.counters.ctl(add).expect("listener registered");
            nodes.push(Hosted {
                net: NetHandle::new(seat.id, Arc::clone(&shared), token(at, LINK)),
                ctx: Ctx::new_driver(shared.now_us(), seat.id),
                seat,
                listener,
                conns: Vec::new(),
                input: vec![Input::Start],
            });
        }
        let threads = hosted.into_iter().zip(pollers).enumerate();
        let threads = threads.map(|(k, (nodes, poller))| {
            let reactor = Reactor {
                wheel: TimerWheel::new(shared.now_us()),
                shared: Arc::clone(&shared),
                nodes,
                poller,
                events: Events::with_capacity(EVENTS),
            };
            std::thread::Builder::new()
                .name(format!("reactor-{k}"))
                .spawn(move || reactor.run())
                .expect("spawn reactor")
        });
        Reactors {
            threads: threads.collect(),
            shared,
        }
    }
}

impl Drop for Reactors {
    fn drop(&mut self) {
        self.shared.shutdown.store(true, Ordering::Relaxed);
        for t in self.threads.drain(..) {
            let _ = t.join();
        }
    }
}

/// What the wheel holds, per node.
enum Pending {
    Timer(u64),
    /// A `SendAfter` whose network entry was postponed.
    Send(NodeId, Msg),
}

/// What waits for a node's handlers, in arrival order.
enum Input {
    /// `on_start`, every node's first input (a node crashed at t=0 drops it).
    Start,
    Msg(NodeId, Msg),
    Timer(u64),
}

/// A seated actor and everything only its reactor touches.
struct Hosted<A> {
    seat: Arc<Seat<A>>,
    listener: TcpListener,
    /// Accepted connections by slot, their tokens' low half; a deleted
    /// connection's slot is `None` until an accept takes it again.
    conns: Vec<Option<Conn>>,
    net: NetHandle,
    ctx: Ctx<Msg>,
    input: Vec<Input>,
}

impl<A> Hosted<A> {
    /// Accepts what waits on node `i`'s listener, each connection
    /// registered for input under its slot's token.
    fn accept(&mut self, i: usize, poller: &Poller, c: &NetCounters) {
        while let Ok((stream, _)) = self.listener.accept() {
            let Ok(conn) = Conn::new(stream) else {
                continue;
            };
            let slot = self.conns.iter().position(Option::is_none);
            let slot = slot.unwrap_or_else(|| {
                self.conns.push(None);
                self.conns.len() - 1
            });
            let add = poller.add(&conn.stream, token(i, slot as u32), Interest::Read);
            if c.ctl(add).is_ok() {
                self.conns[slot] = Some(conn);
            }
        }
    }

    /// One read of the connection in `slot`, its frames onto the node's
    /// input; a finished connection leaves the interest set, then its slot.
    fn read(&mut self, slot: usize, poller: &Poller, c: &NetCounters) {
        let Hosted { conns, input, .. } = self;
        let conn = conns[slot].as_mut().expect("events name registered slots");
        if !conn.read_once(c, |from, msg| input.push(Input::Msg(from, msg))) {
            let _ = c.ctl(poller.delete(&conn.stream));
            conns[slot] = None;
        }
    }
}

/// One event loop over its share of the process's nodes.
struct Reactor<A> {
    shared: Arc<Shared>,
    nodes: Vec<Hosted<A>>,
    wheel: TimerWheel<(usize, Pending)>,
    /// The interest set of every socket of `nodes`.
    poller: Poller,
    events: Events,
}

impl<A: Actor<Msg = Msg>> Reactor<A> {
    fn run(mut self) {
        let mut fired = Vec::new();
        loop {
            let now = self.shared.now_us();
            let poller = &self.poller;
            self.nodes.iter_mut().for_each(|h| h.net.flush(now, poller));
            if self.shared.shutting_down() {
                return;
            }
            self.wait();
            let now = self.shared.now_us();
            self.wheel.advance(now, &mut fired);
            for (i, p) in fired.drain(..) {
                match p {
                    Pending::Timer(token) => self.nodes[i].input.push(Input::Timer(token)),
                    // Route-time crash gating happens inside send.
                    Pending::Send(dst, msg) => self.send(i, &[dst], &msg, now),
                }
            }
            for i in 0..self.nodes.len() {
                if !self.nodes[i].input.is_empty() {
                    self.run_node(i);
                }
            }
        }
    }

    /// The waiting and reading half of a turn. The wheel fires on tick
    /// boundaries, so its wait has a floor; a due frame's does not.
    fn wait(&mut self) {
        let now = self.shared.now_us();
        let mut wait = self
            .wheel
            .next_deadline()
            .map(|d| d.saturating_sub(now))
            .unwrap_or(REACTOR_POLL_US)
            .clamp(100, REACTOR_POLL_US);
        for h in &self.nodes {
            if let Some(due) = h.net.next_due() {
                wait = wait.min(due.saturating_sub(now));
            }
            // A self-send is input without a socket: next turn, now.
            if !h.input.is_empty() {
                wait = 0;
            }
        }
        let (counters, poller) = (&self.shared.counters, &self.poller);
        counters.syscalls_poll.inc();
        let timeout = Some(Duration::from_micros(wait));
        poller
            .wait(&mut self.events, timeout)
            .expect("epoll wait on the reactor's own set");
        let now = self.shared.now_us();
        for token in self.events.tokens() {
            let (i, socket) = ((token >> 32) as usize, token as u32);
            let h = &mut self.nodes[i];
            match socket {
                LISTENER => h.accept(i, poller, counters),
                LINK.. => h.net.ready((socket - LINK) as usize, now, poller),
                slot => h.read(slot as usize, poller, counters),
            }
        }
    }

    /// Hands node `i` its input under one lock acquisition, then routes
    /// what its handlers asked for.
    fn run_node(&mut self, i: usize) {
        let h = &mut self.nodes[i];
        let id = h.seat.id;
        // Crashed: deliveries are dropped on the floor and timers
        // consumed silently, like the sim dropping those events.
        if self.shared.is_crashed(id) {
            h.input.clear();
        } else {
            // Held elsewhere (an ops scrape, `with_node`): wait for it.
            let Ok(mut actor) = h.seat.actor.lock() else {
                panic!("node {id} panicked under its lock");
            };
            for input in h.input.drain(..) {
                let now = self.shared.now_us();
                h.ctx.set_now(now);
                match input {
                    Input::Msg(from, msg) => {
                        probe_deliver(now, from, id, &msg);
                        actor.on_message(&mut h.ctx, from, msg);
                    }
                    Input::Timer(token) => actor.on_timer(&mut h.ctx, token),
                    Input::Start => actor.on_start(&mut h.ctx),
                }
            }
        }
        self.route(i);
    }

    /// Routes the commands node `i`'s handlers left behind, all under one
    /// clock stamp, so a turn's frames to one peer come due together.
    fn route(&mut self, i: usize) {
        let stamp = self.shared.now_us();
        for cmd in self.nodes[i].ctx.take_commands() {
            match cmd {
                Command::Send { dst, msg } => self.send(i, &[dst], &msg, stamp),
                Command::SendMany { dsts, msg } => self.send(i, &dsts, &msg, stamp),
                Command::SetTimer { delay, token } => {
                    let at = stamp.saturating_add(delay);
                    self.wheel.insert(at, (i, Pending::Timer(token)));
                }
                // Real CPU is spent by actually running the handlers; the
                // virtual cost model would double-count it.
                Command::SpendCpu(_) => {}
                Command::SendAfter { delay, dst, msg } => {
                    let at = stamp.saturating_add(delay);
                    self.wheel.insert(at, (i, Pending::Send(dst, msg)));
                }
            }
        }
    }

    /// Encodes `msg` once and routes the frame from node `i` to every
    /// destination, recording each departure with the shared send probe.
    /// A send to itself is the node's own next input.
    fn send(&mut self, i: usize, dsts: &[NodeId], msg: &Msg, stamp: Time) {
        let Ok(frame) = encode_frame(msg) else {
            debug_assert!(false, "protocol produced unencodable message");
            return;
        };
        let h = &mut self.nodes[i];
        let src = h.seat.id;
        for &dst in dsts {
            if dst != src {
                let is_wan = self.shared.topo.is_wan(src, dst);
                probe_send(stamp, src, dst, is_wan, msg);
                h.net.send(dst, frame.clone(), stamp);
            } else if !self.shared.is_crashed(src) {
                h.input.push(Input::Msg(src, msg.clone()));
            }
        }
    }
}
