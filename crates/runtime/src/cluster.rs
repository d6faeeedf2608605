//! Thread-per-node reactors behind a wall-clock [`Driver`], and the
//! [`Cluster`] that puts `massbft_core::cluster`'s [`Harness`] on top of
//! it, so the same experiment code, fault schedules, and adversary specs
//! drive either the simulator or real TCP.
//!
//! Differences from the simulator, by design:
//! - `Ctx::now()` is wall-clock microseconds since cluster start, so
//!   latency samples and telemetry spans measure real time.
//! - `Command::SpendCpu` is ignored: the actors burn real CPU here, the
//!   virtual cost model would double-count it.
//! - Runs are *not* bit-deterministic (thread scheduling orders message
//!   interleavings); protocol-level agreement still holds, which
//!   `tests/cross_driver.rs` checks by comparing ledgers across
//!   drivers under timing-independent configurations.
//!
//! Crash semantics mirror the simulator exactly: a crashed node's
//! reactor drops inbound messages and expiring timers silently (state
//! retained, timers consumed), and its sends are gated in
//! [`crate::net::NetHandle::send`]; recovery just clears the flag
//! without re-running `on_start`.
//!
//! A reactor *turn* is: sleep until the inbox, the timer wheel or an
//! outbound frame needs attention → drain the inbox → run the node →
//! fire timers → route the commands under one clock stamp → flush what
//! is due, one write per peer. The reactor is the only thread that
//! touches its node's outbound sockets ([`crate::net`] has the thread
//! model and why its blocking writes cannot deadlock). Each message it
//! hands to the node and each one it routes is recorded with the probes
//! the simulator calls (`massbft_sim_net::fault`), so a `/trace` scrape
//! stitches into the same cross-node picture as a simulator trace.

use crate::frame::{decode_msg, encode_frame, FRAME_HEADER};
use crate::net::{spawn_acceptor, Event, InboxStats, NetHandle, Shared};
use crate::ops::{self, OpsConfig, OpsHandle};
use crate::wheel::TimerWheel;
use massbft_core::adversary::FaultEvent;
use massbft_core::cluster::{ClusterConfig, Driver, Harness, Report, Traffic};
use massbft_core::protocol::{Msg, Node};
use massbft_crypto::KeyRegistry;
use massbft_sim_net::{probe_deliver, probe_send, Actor, Command, Ctx, NodeId, Time, Topology};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::Ordering;
use std::sync::mpsc::{Receiver, RecvTimeoutError, Sender};
use std::sync::{mpsc, Arc, Mutex};
use std::thread::JoinHandle;
use std::time::Duration;

/// Max time a reactor sleeps in `recv_timeout` before re-checking the
/// wheel and the shutdown flag.
const REACTOR_POLL_US: u64 = 20_000;
/// Inbox events (each one read's worth of messages) drained per turn.
const DRAIN_BATCH: usize = 64;

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

enum Pending {
    Timer(u64),
    /// A `SendAfter` whose network entry was postponed.
    Send(NodeId, Msg),
}

struct LocalNode {
    id: NodeId,
    node: Arc<Mutex<Node>>,
    tx: Sender<Event>,
    inbox: Arc<InboxStats>,
    reactor: Option<JoinHandle<()>>,
    acceptor: Option<JoinHandle<()>>,
}

/// The wall-clock [`Driver`]: one loopback listener, acceptor thread and
/// reactor thread per hosted node, the transport state they share, and
/// the ops plane.
pub struct TcpDriver {
    shared: Arc<Shared>,
    nodes: Vec<LocalNode>,
    ops: Option<Arc<OpsHandle>>,
    /// The transport's byte counters when the traffic window opened.
    window_wan: u64,
    window_lan: u64,
    window_wan_per_node: Vec<u64>,
}

/// A running wall-clock cluster experiment: the [`Harness`] of
/// [`massbft_core::cluster::Cluster`] over a [`TcpDriver`], so fault
/// schedules, windows and [`Report`]s are the simulator's, on real time.
pub struct Cluster(Harness<TcpDriver>);

impl Cluster {
    /// Builds and starts the cluster: binds one loopback listener per
    /// node, then spawns acceptor and reactor threads. By the time this
    /// returns, every node has run `on_start` (or is about to; every
    /// listener is already bound, so a reactor's first connect to any
    /// in-process peer succeeds whichever of them runs first).
    pub fn new(cfg: ClusterConfig) -> Self {
        Self::new_hosted(cfg, None)
    }

    /// Multi-process entry point: host only `spec.hosted_groups` here,
    /// with the deterministic port scheme shared by all processes.
    pub fn new_hosted(cfg: ClusterConfig, spec: Option<HostSpec>) -> Self {
        Cluster(Harness::start(cfg, |cfg, topo| {
            TcpDriver::start(cfg, topo, spec)
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
        let nodes = d
            .nodes
            .iter()
            .map(|n| ops::NodeHandles {
                id: n.id,
                node: Arc::clone(&n.node),
                inbox: Arc::clone(&n.inbox),
            })
            .collect();
        let handle = ops::start(Arc::clone(&d.shared), nodes, cfg)?;
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

    /// Runs `f` against a node's state (briefly blocking its reactor).
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
    fn start(cfg: &ClusterConfig, topo: Topology, spec: Option<HostSpec>) -> Self {
        let spec = spec.unwrap_or_else(|| HostSpec::all(topo.group_count()));
        let registry = KeyRegistry::generate(cfg.params.seed, &cfg.params.group_sizes);

        let local_ids: Vec<NodeId> = topo
            .nodes()
            .filter(|id| spec.hosted_groups.contains(&id.group))
            .collect();

        // Bind all local listeners first so the address table is
        // complete before anything starts sending.
        let mut listeners: Vec<(NodeId, TcpListener)> = Vec::with_capacity(local_ids.len());
        let mut addrs: Vec<SocketAddr> = Vec::with_capacity(topo.node_count());
        for (dense, id) in topo.nodes().enumerate() {
            let addr: SocketAddr = match spec.port_base {
                Some(base) => format!("127.0.0.1:{}", base as usize + dense)
                    .parse()
                    .expect("loopback addr"),
                None => "127.0.0.1:0".parse().expect("loopback addr"),
            };
            if spec.hosted_groups.contains(&id.group) {
                let l = TcpListener::bind(addr).expect("bind node listener");
                addrs.push(l.local_addr().expect("listener addr"));
                listeners.push((id, l));
            } else {
                addrs.push(addr);
            }
        }

        let shared = Shared::new(topo, addrs);

        let mut nodes = Vec::with_capacity(local_ids.len());
        let mut listeners = listeners.into_iter();
        for id in local_ids {
            let (lid, listener) = listeners.next().expect("listener per local node");
            debug_assert_eq!(lid, id);
            let (tx, rx) = mpsc::channel::<Event>();
            let inbox = Arc::new(InboxStats::default());
            let acceptor = spawn_acceptor(
                Arc::clone(&shared),
                id,
                listener,
                tx.clone(),
                Arc::clone(&inbox),
            );
            let node = Arc::new(Mutex::new(Node::new(
                id,
                cfg.params.clone(),
                registry.clone(),
            )));
            let reactor = Reactor {
                net: NetHandle::new(id, Arc::clone(&shared)),
                wheel: TimerWheel::new(shared.now_us()),
                ctx: Ctx::new_driver(shared.now_us(), id),
                shared: Arc::clone(&shared),
                id,
                node: Arc::clone(&node),
                self_tx: tx.clone(),
                inbox: Arc::clone(&inbox),
            };
            let reactor = std::thread::Builder::new()
                .name(format!("reactor-{id}"))
                .spawn(move || reactor.run(rx))
                .expect("spawn reactor");
            nodes.push(LocalNode {
                id,
                node,
                tx,
                inbox,
                reactor: Some(reactor),
                acceptor: Some(acceptor),
            });
        }

        TcpDriver {
            window_wan_per_node: vec![0; shared.wan_out_per_node.len()],
            shared,
            nodes,
            ops: None,
            window_wan: 0,
            window_lan: 0,
        }
    }

    fn local(&self, id: NodeId) -> &LocalNode {
        self.nodes
            .iter()
            .find(|n| n.id == id)
            .expect("node hosted in this process")
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
        f(&self.local(id).node.lock().expect("node lock"))
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

    /// Black-box moment: snapshot everything before the diverged state
    /// churns further.
    fn diverged(&self) {
        if let Some(h) = &self.ops {
            h.trigger("consistency-failure");
        }
    }
}

impl Drop for TcpDriver {
    /// Deterministic teardown: when this returns, every thread the
    /// cluster spawned has been joined and every socket is closed.
    fn drop(&mut self) {
        self.shared.shutdown.store(true, Ordering::Relaxed);
        if let Some(h) = self.ops.take() {
            let _ = TcpStream::connect_timeout(&h.addr, Duration::from_millis(50));
            h.join();
        }
        // Reactors first, so node state can't be touched after drop;
        // each closes its outbound sockets as it exits.
        for n in &mut self.nodes {
            let wake = Event {
                from: n.id,
                msgs: Vec::new(),
            };
            let _ = n.tx.send(wake);
            if let Some(h) = n.reactor.take() {
                let _ = h.join();
            }
        }
        // Then the receive side: a throwaway connect unblocks each
        // acceptor's accept(2); it shuts its accepted sockets down and
        // joins its readers before it exits (`spawn_acceptor`).
        for n in &mut self.nodes {
            let addr = self.shared.addrs[self.shared.idx(n.id)];
            let _ = TcpStream::connect_timeout(&addr, Duration::from_millis(50));
            if let Some(h) = n.acceptor.take() {
                let _ = h.join();
            }
        }
    }
}

/// One node's event loop and everything only it touches.
struct Reactor {
    shared: Arc<Shared>,
    id: NodeId,
    node: Arc<Mutex<Node>>,
    self_tx: Sender<Event>,
    inbox: Arc<InboxStats>,
    net: NetHandle,
    wheel: TimerWheel<Pending>,
    ctx: Ctx<Msg>,
}

impl Reactor {
    fn run(mut self, rx: Receiver<Event>) {
        // on_start (the sim skips it for nodes crashed at t=0; schedules
        // rarely do that, but mirror it anyway).
        if !self.shared.is_crashed(self.id) {
            let mut n = self.node.lock().expect("node lock");
            self.ctx.set_now(self.shared.now_us());
            n.on_start(&mut self.ctx);
        }
        let mut events: Vec<Event> = Vec::new();
        let mut fired: Vec<Pending> = Vec::new();
        loop {
            self.route_and_flush(&mut fired);
            if self.shared.shutdown.load(Ordering::Relaxed) {
                return;
            }
            // Sleep until the next timer, the next outbound frame coming
            // due, or an inbound event. The wheel fires on tick
            // boundaries, so its wait has a floor; a due frame does not.
            let now = self.shared.now_us();
            let mut wait = self
                .wheel
                .next_deadline()
                .map(|d| d.saturating_sub(now))
                .unwrap_or(REACTOR_POLL_US)
                .clamp(100, REACTOR_POLL_US);
            if let Some(due) = self.net.next_due() {
                wait = wait.min(due.saturating_sub(now));
            }
            match rx.recv_timeout(Duration::from_micros(wait)) {
                Ok(ev) => {
                    events.push(ev);
                    events.extend(rx.try_iter().take(DRAIN_BATCH - 1));
                }
                Err(RecvTimeoutError::Timeout) => {}
                Err(RecvTimeoutError::Disconnected) => return,
            }
            self.wheel.advance(self.shared.now_us(), &mut fired);
            self.run_node(&mut events, &mut fired);
        }
    }

    /// Feeds the drained inbox, then the expired timers, to the node
    /// under one lock acquisition. Leaves the delayed sends in `fired`.
    fn run_node(&mut self, events: &mut Vec<Event>, fired: &mut Vec<Pending>) {
        let msgs: usize = events.iter().map(|ev| ev.msgs.len()).sum();
        self.inbox
            .processed
            .fetch_add(msgs as u64, Ordering::Relaxed);
        let timers = fired.iter().any(|p| matches!(p, Pending::Timer(_)));
        // Crashed: deliveries are dropped on the floor and timers
        // consumed silently, like the sim dropping those events.
        if (msgs > 0 || timers) && !self.shared.is_crashed(self.id) {
            let mut n = self.node.lock().expect("node lock");
            for Event { from, msgs } in events.drain(..) {
                for msg in msgs {
                    let now = self.shared.now_us();
                    probe_deliver(now, from, self.id, &msg);
                    self.ctx.set_now(now);
                    n.on_message(&mut self.ctx, from, msg);
                }
            }
            for p in fired.iter() {
                if let Pending::Timer(token) = *p {
                    self.ctx.set_now(self.shared.now_us());
                    n.on_timer(&mut self.ctx, token);
                }
            }
        }
        events.clear();
        fired.retain(|p| matches!(p, Pending::Send(..)));
    }

    /// The send half of a turn: routes the delayed sends that fired and
    /// the commands the handlers left behind — all under one clock
    /// stamp, so a turn's frames to one peer come due together — then
    /// writes out whatever is due by now.
    fn route_and_flush(&mut self, fired: &mut Vec<Pending>) {
        let stamp = self.shared.now_us();
        for p in fired.drain(..) {
            if let Pending::Send(dst, msg) = p {
                // Route-time crash gating happens inside send.
                self.send(&[dst], &msg, stamp);
            }
        }
        for cmd in self.ctx.take_commands() {
            match cmd {
                Command::Send { dst, msg } => self.send(&[dst], &msg, stamp),
                Command::SendMany { dsts, msg } => self.send(&dsts, &msg, stamp),
                Command::SetTimer { delay, token } => {
                    self.wheel
                        .insert(stamp.saturating_add(delay), Pending::Timer(token));
                }
                // Real CPU is spent by actually running the handlers; the
                // virtual cost model would double-count it.
                Command::SpendCpu(_) => {}
                Command::SendAfter { delay, dst, msg } => {
                    self.wheel
                        .insert(stamp.saturating_add(delay), Pending::Send(dst, msg));
                }
            }
        }
        self.net.flush(self.shared.now_us());
    }

    /// Encodes `msg` once and routes the frame to every destination,
    /// recording each departure with the shared send probe.
    fn send(&mut self, dsts: &[NodeId], msg: &Msg, stamp: Time) {
        let Ok(frame) = encode_frame(msg) else {
            debug_assert!(false, "protocol produced unencodable message");
            return;
        };
        for &dst in dsts {
            if dst != self.id {
                let is_wan = self.shared.topo.is_wan(self.id, dst);
                probe_send(stamp, self.id, dst, is_wan, msg);
                self.net.send(dst, frame.clone(), stamp);
            } else if !self.shared.is_crashed(self.id) {
                // Decode round-trips the frame; loopback traffic is rare (the
                // protocol broadcasts exclude self) so the cost is negligible
                // and the path stays uniform with remote delivery.
                if let Ok(m) = decode_msg(&frame.slice(FRAME_HEADER..)) {
                    self.inbox.enqueued.fetch_add(1, Ordering::Relaxed);
                    let _ = self.self_tx.send(Event {
                        from: self.id,
                        msgs: vec![m],
                    });
                }
            }
        }
    }
}
