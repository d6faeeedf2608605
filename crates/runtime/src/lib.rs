//! Wall-clock TCP runtime for the MassBFT node state machines.
//!
//! The simulator (`massbft-sim-net`) runs the sans-io [`Node`] actors
//! over a virtual-time event heap; this crate runs the *same* actors
//! over real `std::net` TCP connections with a few reactor threads and a
//! real clock — the repo's first wall-clock throughput numbers come from
//! here (`BENCH_wallclock.json`, see `crates/bench/src/bin/sweep.rs`).
//!
//! Architecture (DESIGN.md §5f):
//! - [`frame`]: length-prefixed codec whose body size equals the
//!   simulator's byte-accounting model (`massbft_core::wire`) exactly,
//!   with zero-copy [`bytes::Bytes`] payload paths.
//! - [`wheel`]: hierarchical timer wheel driving protocol timers and
//!   delayed sends, one per reactor thread.
//! - [`net`]: connection plane, all sockets non-blocking — a node's
//!   outbound links (one due-time-gated FIFO per peer, one coalesced
//!   write per peer per turn, the unwritten tail of a full socket kept at
//!   the head), its accepted connections (one read, every frame it
//!   completed), and netem-style injected latency with the cluster-wide
//!   `massbft_sim_net::FaultState` deciding each frame's fate.
//! - [`cluster`]: M nodes on N reactor threads (N = cores) behind a
//!   wall-clock `Driver` — one thread waits in its `massbft_accel::Poller`
//!   (epoll: every socket registered once, a wait reports only the ready
//!   ones), reads, runs the node's handlers to completion and writes — and
//!   [`cluster::Cluster`], the harness of
//!   `massbft_core::cluster::Cluster` over it, so experiments and
//!   fault schedules run unchanged on either driver.
//! - [`ops`]: the live ops plane (ISSUE 9) — per-process HTTP/1.0
//!   introspection endpoints (`/metrics`, `/health`, `/status`,
//!   `/trace`) and the anomaly-triggered flight recorder. The reactor
//!   records every send and deliver with the probes the simulator uses
//!   (`massbft_sim_net::fault`); `massbft_telemetry::stitch` pairs them
//!   into cross-node hops and merges `/trace` scrapes into distributed
//!   spans. Frames carry nothing for it.
//!
//! [`Node`]: massbft_core::protocol::Node

#![forbid(unsafe_code)]

// The reactors wait in `massbft_accel::Poller`, which exists on Linux only.
#[cfg(not(target_os = "linux"))]
compile_error!("massbft-runtime needs Linux 5.11 or later: its reactors wait in epoll_pwait2");

pub mod cluster;
pub mod frame;
pub mod net;
pub mod ops;
pub mod wheel;

pub use cluster::{Cluster, HostSpec, Reactors, Seat, TcpDriver};
pub use frame::{decode_msg, encode_frame, FrameBuffer, FrameError, MAX_FRAME};
pub use ops::{http_get, OpsConfig, OpsHandle};
pub use wheel::TimerWheel;
