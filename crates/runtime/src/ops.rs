//! Live ops plane: per-process introspection endpoints and the
//! black-box flight recorder (ISSUE 9; DESIGN.md §6).
//!
//! Every [`crate::Cluster`] can start one dependency-free HTTP/1.0
//! listener serving, for all nodes hosted in the process:
//!
//! - `GET /health` — liveness probe (`200 ok`).
//! - `GET /metrics` — Prometheus text exposition of the global
//!   telemetry registry. Per-node state gauges (`consensus.pbft.view`,
//!   `core.exec.watermark`, `core.store.archive_bytes`, writer queue
//!   depth, …) are refreshed from the live `Node` states at scrape time,
//!   labeled `{group="…",node="…"}`.
//! - `GET /status` — one JSON document with every hosted node's
//!   [`NodeStatus`] plus `writer_queue_frames` (frames in its outbound
//!   FIFOs: not yet due, or waiting for a full socket — which is where a
//!   receiver whose reactor cannot keep up shows, at its senders).
//! - `GET /trace?window=N` — the most recent `N` telemetry ring events
//!   as JSONL (non-destructive; ring loss reported in the
//!   `X-Ring-Dropped` header, never silently).
//!
//! The flight recorder is a monitor thread that samples node status a
//! few times a second and, on an anomaly — a view-change storm, a
//! stalled commit watermark with queued work, or an externally signaled
//! consistency failure — dumps the event ring, a registry snapshot, and
//! all node statuses to a timestamped JSON file, rate-limited so a
//! persistent anomaly can't flood the disk.
//!
//! Everything here is plain `std`: no HTTP library, no serde. The
//! protocol surface is intentionally tiny (HTTP/1.0, connection per
//! request) so the same [`http_get`] helper serves the bench scraper,
//! the smoke gate, and the tests.

use crate::cluster::Seat;
use crate::net::Shared;
use massbft_core::protocol::{Node, NodeStatus};
use massbft_sim_net::NodeId;
use massbft_telemetry as telemetry;
use massbft_telemetry::registry::{self, Metric, MetricSnapshot};
use massbft_telemetry::{export, json, prom};
use std::collections::VecDeque;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Duration;

/// Largest request head (`GET …` line + headers) the server reads.
const MAX_REQUEST: usize = 8 << 10;
/// Default `/trace` window when the query string omits one.
const DEFAULT_TRACE_WINDOW: usize = 512;
/// Monitor sampling period.
const MONITOR_PERIOD: Duration = Duration::from_millis(250);
/// Minimum wall-clock gap between two flight-recorder dumps.
const DUMP_COOLDOWN_US: u64 = 2_000_000;
/// Most recent ring events captured per flight dump. The full ring
/// (`telemetry::ring_capacity()`, 2^18 by default) would make dumps
/// tens of MB and seconds-slow; the tail is what a post-mortem needs.
const DUMP_EVENT_WINDOW: usize = 16 << 10;

/// Configuration for [`crate::Cluster::start_ops`].
#[derive(Debug, Clone)]
pub struct OpsConfig {
    /// Listen address; port 0 binds an ephemeral port (returned by
    /// `start_ops`).
    pub addr: SocketAddr,
    /// When set, the flight-recorder monitor runs and writes anomaly
    /// dumps into this directory. `None` disables the recorder (the
    /// endpoints still serve).
    pub flight_dir: Option<PathBuf>,
    /// A node whose commit watermark hasn't moved for this long while
    /// it still has work queued (execution queue, held appends, or
    /// in-flight WAN transfers) counts as stalled.
    pub stall_after_us: u64,
    /// This many view advances within [`OpsConfig::view_storm_window_us`]
    /// (across all hosted nodes) count as a view-change storm.
    pub view_storm_threshold: usize,
    /// Rolling window for storm detection.
    pub view_storm_window_us: u64,
    /// Hard cap on flight-recorder dumps per run.
    pub max_dumps: u64,
}

impl Default for OpsConfig {
    fn default() -> Self {
        OpsConfig {
            addr: "127.0.0.1:0".parse().expect("loopback addr"),
            flight_dir: None,
            stall_after_us: 5_000_000,
            view_storm_threshold: 3,
            view_storm_window_us: 2_000_000,
            max_dumps: 4,
        }
    }
}

struct OpsState {
    shared: Arc<Shared>,
    nodes: Vec<Arc<Seat<Node>>>,
}

/// Pending anomaly triggers plus dump bookkeeping, shared between the
/// monitor thread and external signalers (`check_consistency`).
struct TriggerState {
    pending: Mutex<Vec<String>>,
    dumps: AtomicU64,
}

impl TriggerState {
    /// Queues a dump for `reason` unless one is already queued for it.
    fn raise(&self, reason: &str) {
        let mut p = self.pending.lock().expect("trigger lock");
        if !p.iter().any(|r| r == reason) {
            p.push(reason.to_string());
        }
    }
}

/// A running ops plane. Dropped (or joined) at cluster teardown.
pub struct OpsHandle {
    /// The bound listener address.
    pub addr: SocketAddr,
    trigger: Arc<TriggerState>,
    threads: Mutex<Vec<std::thread::JoinHandle<()>>>,
}

impl OpsHandle {
    /// Queues an anomaly dump with the given reason (no-op without a
    /// flight directory). Used by `Cluster::check_consistency` when
    /// replicas diverge; tests and operators may call it directly.
    pub fn trigger(&self, reason: &str) {
        self.trigger.raise(reason);
    }

    /// Flight-recorder dumps written so far.
    pub fn dumps(&self) -> u64 {
        self.trigger.dumps.load(Ordering::Relaxed)
    }

    /// Joins the acceptor and monitor threads (the shared shutdown flag
    /// must already be set; the caller unblocks `accept` with a
    /// throwaway connect).
    pub fn join(&self) {
        let mut ts = self.threads.lock().expect("threads lock");
        for t in ts.drain(..) {
            let _ = t.join();
        }
    }
}

/// Binds the listener and spawns the server (and monitor) threads.
pub fn start(
    shared: Arc<Shared>,
    nodes: Vec<Arc<Seat<Node>>>,
    cfg: OpsConfig,
) -> std::io::Result<Arc<OpsHandle>> {
    let listener = TcpListener::bind(cfg.addr)?;
    let addr = listener.local_addr()?;
    let state = Arc::new(OpsState {
        shared: Arc::clone(&shared),
        nodes,
    });
    let trigger = Arc::new(TriggerState {
        pending: Mutex::new(Vec::new()),
        dumps: AtomicU64::new(0),
    });
    let mut threads = Vec::new();
    {
        let state = Arc::clone(&state);
        threads.push(
            std::thread::Builder::new()
                .name("ops-http".into())
                .spawn(move || accept_loop(listener, state))
                .expect("spawn ops server"),
        );
    }
    if let Some(dir) = cfg.flight_dir.clone() {
        let state = Arc::clone(&state);
        let trigger = Arc::clone(&trigger);
        let cfg = cfg.clone();
        threads.push(
            std::thread::Builder::new()
                .name("ops-flight".into())
                .spawn(move || monitor_loop(state, trigger, cfg, dir))
                .expect("spawn flight recorder"),
        );
    }
    Ok(Arc::new(OpsHandle {
        addr,
        trigger,
        threads: Mutex::new(threads),
    }))
}

fn accept_loop(listener: TcpListener, state: Arc<OpsState>) {
    for stream in listener.incoming() {
        if state.shared.shutdown.load(Ordering::Relaxed) {
            return;
        }
        let Ok(stream) = stream else { continue };
        let state = Arc::clone(&state);
        // Connection-per-request and scrapes are rare; a short-lived
        // handler thread keeps one slow client from stalling others.
        let _ = std::thread::Builder::new()
            .name("ops-conn".into())
            .spawn(move || handle_conn(stream, &state));
    }
}

fn handle_conn(mut stream: TcpStream, state: &OpsState) {
    let _ = stream.set_nodelay(true);
    let _ = stream.set_read_timeout(Some(Duration::from_secs(2)));
    let mut head = Vec::new();
    let mut buf = [0u8; 1024];
    while !head.windows(4).any(|w| w == b"\r\n\r\n") {
        if head.len() > MAX_REQUEST {
            return;
        }
        match stream.read(&mut buf) {
            Ok(0) | Err(_) => {
                if head.is_empty() {
                    return;
                }
                break; // header-only request without final CRLF; try it
            }
            Ok(n) => head.extend_from_slice(&buf[..n]),
        }
    }
    let head = String::from_utf8_lossy(&head);
    let mut parts = head.lines().next().unwrap_or("").split_whitespace();
    let (method, target) = (parts.next().unwrap_or(""), parts.next().unwrap_or(""));
    if method != "GET" {
        respond(&mut stream, 405, "text/plain", &[], "method not allowed\n");
        return;
    }
    let (path, query) = match target.split_once('?') {
        Some((p, q)) => (p, q),
        None => (target, ""),
    };
    match path {
        "/health" => respond(&mut stream, 200, "text/plain", &[], "ok\n"),
        "/metrics" => {
            refresh_node_gauges(state);
            let body = prom::render(registry::registry());
            respond(&mut stream, 200, "text/plain; version=0.0.4", &[], &body);
        }
        "/status" => {
            let body = status_json(state);
            respond(&mut stream, 200, "application/json", &[], &body);
        }
        "/trace" => {
            let window = query
                .split('&')
                .find_map(|kv| kv.strip_prefix("window="))
                .and_then(|v| v.parse::<usize>().ok())
                .unwrap_or(DEFAULT_TRACE_WINDOW);
            let (events, published) = telemetry::peek_recent(window);
            let rotated = published.saturating_sub(telemetry::ring_capacity() as u64);
            let body = export::to_jsonl(&events);
            let dropped = rotated.to_string();
            respond(
                &mut stream,
                200,
                "application/jsonl",
                &[("X-Ring-Dropped", &dropped)],
                &body,
            );
        }
        _ => respond(&mut stream, 404, "text/plain", &[], "not found\n"),
    }
}

fn respond(
    stream: &mut TcpStream,
    code: u16,
    content_type: &str,
    extra: &[(&str, &str)],
    body: &str,
) {
    let reason = match code {
        200 => "OK",
        404 => "Not Found",
        405 => "Method Not Allowed",
        _ => "Error",
    };
    let mut head = format!(
        "HTTP/1.0 {code} {reason}\r\nContent-Type: {content_type}\r\nContent-Length: {}\r\nConnection: close\r\n",
        body.len()
    );
    for (k, v) in extra {
        head.push_str(&format!("{k}: {v}\r\n"));
    }
    head.push_str("\r\n");
    let _ = stream.write_all(head.as_bytes());
    let _ = stream.write_all(body.as_bytes());
    let _ = stream.flush();
}

/// Every hosted node's status and writer queue depth, one node lock at a
/// time, each held for one `status()` call (its reactor waits that long).
fn collect_statuses(state: &OpsState) -> Vec<(NodeStatus, u64)> {
    state
        .nodes
        .iter()
        .map(|nh| {
            let st = nh.actor.lock().expect("node lock").status();
            (st, writer_queue_frames(nh.id))
        })
        .collect()
}

/// Sums this node's per-peer outbound queue-depth gauges
/// (`net.queue.g{g}n{n}-*`, maintained by the node's reactor as it
/// routes and flushes frames).
fn writer_queue_frames(id: NodeId) -> u64 {
    let prefix = format!("net.queue.g{}n{}-", id.group, id.node);
    registry::registry()
        .metrics()
        .into_iter()
        .filter(|(name, _)| name.starts_with(&prefix))
        .map(|(_, m)| match m {
            Metric::Gauge(g) => g.get(),
            _ => 0,
        })
        .sum()
}

/// Pushes the per-node state gauges the `/metrics` exposition carries,
/// read fresh from the live nodes. Label-in-key convention: the prom
/// renderer splits `name{labels}` registry keys into labeled series.
fn refresh_node_gauges(state: &OpsState) {
    for (st, wq) in collect_statuses(state) {
        let l = format!("{{group=\"{}\",node=\"{}\"}}", st.group, st.node);
        registry::gauge(&format!("consensus.pbft.view{l}")).set(st.pbft_view);
        registry::gauge(&format!("consensus.pbft.seq{l}")).set(st.pbft_seq);
        registry::gauge(&format!("core.ledger.height{l}")).set(st.ledger_height);
        registry::gauge(&format!("core.exec.watermark{l}")).set(st.exec_watermark);
        registry::gauge(&format!("core.exec.queue{l}")).set(st.exec_queue as u64);
        registry::gauge(&format!("core.store.archive_bytes{l}")).set(st.archive_bytes);
        registry::gauge(&format!("ops.writer.queue_frames{l}")).set(wq);
    }
}

fn status_obj(st: &NodeStatus, wq: u64) -> String {
    let head: String = st.ledger_head.as_bytes()[..8]
        .iter()
        .map(|b| format!("{b:02x}"))
        .collect();
    let by_group: Vec<String> = st.executed_by_group.iter().map(|v| v.to_string()).collect();
    format!(
        concat!(
            "{{\"group\":{},\"node\":{},\"is_rep\":{},\"pbft_view\":{},",
            "\"pbft_seq\":{},\"ledger_height\":{},\"ledger_head\":\"{}\",",
            "\"exec_watermark\":{},\"executed_txns\":{},\"executed_by_group\":[{}],",
            "\"exec_queue\":{},\"held_appends\":{},\"in_flight\":{},\"clock\":{},",
            "\"archive_bytes\":{},\"writer_queue_frames\":{}}}"
        ),
        st.group,
        st.node,
        st.is_rep,
        st.pbft_view,
        st.pbft_seq,
        st.ledger_height,
        head,
        st.exec_watermark,
        st.executed_txns,
        by_group.join(","),
        st.exec_queue,
        st.held_appends,
        st.in_flight,
        st.clock,
        st.archive_bytes,
        wq,
    )
}

fn status_json(state: &OpsState) -> String {
    let nodes: Vec<String> = collect_statuses(state)
        .iter()
        .map(|(st, wq)| status_obj(st, *wq))
        .collect();
    format!(
        "{{\"now_us\":{},\"ring_dropped\":{},\"nodes\":[{}]}}\n",
        state.shared.now_us(),
        registry::counter(telemetry::RING_DROPPED_COUNTER).get(),
        nodes.join(",")
    )
}

fn registry_snapshot_json() -> String {
    let mut parts = Vec::new();
    for (name, snap) in registry::registry().snapshot() {
        let v = match snap {
            MetricSnapshot::Counter(v) | MetricSnapshot::Gauge(v) => v.to_string(),
            MetricSnapshot::Histogram {
                count,
                mean,
                p50,
                p95,
                p99,
                max,
            } => format!(
                "{{\"count\":{count},\"mean\":{mean:.1},\"p50\":{p50},\"p95\":{p95},\"p99\":{p99},\"max\":{max}}}"
            ),
        };
        parts.push(format!("\"{}\":{}", json::escape(&name), v));
    }
    format!("{{{}}}", parts.join(","))
}

/// The flight-recorder monitor: watches for view-change storms, stalled
/// commit watermarks, and externally signaled anomalies; dumps the
/// black box when one fires.
fn monitor_loop(state: Arc<OpsState>, trigger: Arc<TriggerState>, cfg: OpsConfig, dir: PathBuf) {
    let n = state.nodes.len();
    let mut last_view = vec![0u64; n];
    let mut wm_since: Vec<(u64, u64)> = vec![(0, 0); n];
    let mut view_bumps: VecDeque<u64> = VecDeque::new();
    let mut last_dump_at = 0u64;
    loop {
        if state.shared.shutdown.load(Ordering::Relaxed) {
            return;
        }
        std::thread::sleep(MONITOR_PERIOD);
        let now = state.shared.now_us();
        let sts = collect_statuses(&state);
        // View-change storm: count view advances across all hosted
        // nodes inside the rolling window.
        for (i, (st, _)) in sts.iter().enumerate() {
            if st.pbft_view > last_view[i] {
                for _ in last_view[i]..st.pbft_view {
                    view_bumps.push_back(now);
                }
                last_view[i] = st.pbft_view;
            }
        }
        while view_bumps
            .front()
            .is_some_and(|&t| t + cfg.view_storm_window_us < now)
        {
            view_bumps.pop_front();
        }
        if view_bumps.len() >= cfg.view_storm_threshold {
            view_bumps.clear();
            trigger.raise("view-change-storm");
        }
        // Stalled commit: watermark frozen with work queued anywhere in
        // the pipeline — execution backlog, appends held for global
        // ordering, or WAN transfers that never complete (the signature
        // a wedged post-partition cluster leaves behind).
        for (i, (st, _)) in sts.iter().enumerate() {
            let queued = st.exec_queue > 0 || st.held_appends > 0 || st.in_flight > 0;
            if st.exec_watermark != wm_since[i].0 {
                wm_since[i] = (st.exec_watermark, now);
            } else if queued && now.saturating_sub(wm_since[i].1) > cfg.stall_after_us {
                wm_since[i].1 = now; // re-arm; one dump per stall period
                trigger.raise("stalled-commit");
            }
        }
        // Drain triggers into dump files: at most one dump per tick,
        // none inside the cooldown or past the hard cap. A gated reason
        // stays queued for a later tick — it is never silently lost —
        // and once the cap is hit the queue is cleared for good.
        if trigger.dumps.load(Ordering::Relaxed) >= cfg.max_dumps {
            trigger.pending.lock().expect("trigger lock").clear();
        } else if last_dump_at == 0 || now.saturating_sub(last_dump_at) >= DUMP_COOLDOWN_US {
            let next = {
                let mut p = trigger.pending.lock().expect("trigger lock");
                if p.is_empty() {
                    None
                } else {
                    Some(p.remove(0))
                }
            };
            if let Some(reason) = next {
                if write_dump(&dir, &reason, now, &sts).is_ok() {
                    trigger.dumps.fetch_add(1, Ordering::Relaxed);
                    last_dump_at = now;
                } else {
                    // Disk hiccup: requeue so the next tick retries.
                    trigger.pending.lock().expect("trigger lock").push(reason);
                }
            }
        }
    }
}

fn write_dump(
    dir: &PathBuf,
    reason: &str,
    now: u64,
    sts: &[(NodeStatus, u64)],
) -> std::io::Result<()> {
    std::fs::create_dir_all(dir)?;
    let (events, published) = telemetry::peek_recent(DUMP_EVENT_WINDOW);
    let rotated = published.saturating_sub(events.len() as u64);
    let nodes: Vec<String> = sts.iter().map(|(st, wq)| status_obj(st, *wq)).collect();
    // The JSONL exporter emits one JSON object per line; joining them
    // with commas forms the dump's events array.
    let jsonl = export::to_jsonl(&events);
    let events_arr: Vec<&str> = jsonl.lines().collect();
    let body = format!(
        "{{\"reason\":\"{}\",\"at_us\":{},\"ring_dropped\":{},\"nodes\":[{}],\"registry\":{},\"events\":[{}]}}\n",
        json::escape(reason),
        now,
        rotated,
        nodes.join(","),
        registry_snapshot_json(),
        events_arr.join(",")
    );
    // Write-then-rename so readers polling the directory never see a
    // half-written dump (the scraper and the smoke gate both poll).
    let path = dir.join(format!("flight-{reason}-{now}.json"));
    let tmp = dir.join(format!("flight-{reason}-{now}.json.tmp"));
    std::fs::write(&tmp, body)?;
    std::fs::rename(tmp, path)
}

/// An HTTP response from [`http_get`]: status code, headers, body.
pub type HttpResponse = (u16, Vec<(String, String)>, String);

/// Minimal blocking HTTP/1.0 GET against an ops endpoint; returns
/// `(status code, headers, body)`. Shared by the bench scraper, the
/// smoke gate, and the integration tests — the ops plane's only client.
pub fn http_get(addr: SocketAddr, path: &str, timeout: Duration) -> std::io::Result<HttpResponse> {
    let mut stream = TcpStream::connect_timeout(&addr, timeout)?;
    let _ = stream.set_nodelay(true);
    stream.set_read_timeout(Some(timeout))?;
    stream.set_write_timeout(Some(timeout))?;
    stream.write_all(format!("GET {path} HTTP/1.0\r\nHost: ops\r\n\r\n").as_bytes())?;
    let mut raw = Vec::new();
    stream.read_to_end(&mut raw)?;
    let text = String::from_utf8_lossy(&raw).into_owned();
    let (head, body) = text
        .split_once("\r\n\r\n")
        .ok_or_else(|| std::io::Error::new(std::io::ErrorKind::InvalidData, "no header end"))?;
    let mut lines = head.lines();
    let status = lines
        .next()
        .and_then(|l| l.split_whitespace().nth(1))
        .and_then(|c| c.parse::<u16>().ok())
        .ok_or_else(|| std::io::Error::new(std::io::ErrorKind::InvalidData, "bad status line"))?;
    let headers = lines
        .filter_map(|l| {
            l.split_once(':')
                .map(|(k, v)| (k.trim().to_string(), v.trim().to_string()))
        })
        .collect();
    Ok((status, headers, body.to_string()))
}
