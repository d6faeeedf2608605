//! Cross-node trace stitching.
//!
//! A node's events say what happened *there*; a committed entry therefore
//! appears as N disjoint per-node histories with no causal thread between
//! them. This module merges per-node event streams (a drained simulator
//! ring, JSONL dumps, live `/trace` scrapes) **by entry id** into one
//! distributed span per entry, and pairs the send and deliver records
//! both drivers' probes leave (`massbft_sim_net::fault`) into hops
//! between node tracks. Nothing about a hop travels with the message:
//! which send a deliver answers is decided per link, and hop numbers
//! and origins are a walk over the send → deliver → send chain.
//!
//! Loss is declared, never papered over: each input stream carries its
//! own ring-wraparound count, the stitched result sums them, and a
//! deliver whose send is missing is counted as an orphan instead of
//! being force-paired to another link's send.

use crate::export::write_payload;
use crate::{unpack_hop_value, Event, EventKind, Time};
use std::collections::{BTreeMap, BTreeSet, VecDeque};

/// One node-local event stream: a `/trace` scrape or a JSONL dump.
#[derive(Debug, Clone, Default)]
pub struct NodeStream {
    /// Where the stream came from (address or file), for reports.
    pub source: String,
    /// The events, any order.
    pub events: Vec<Event>,
    /// Ring-wraparound losses the source declared for this stream.
    pub dropped: u64,
}

/// A matched hop: a message carrying the entry left `from` and was
/// handed to `to`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Hop {
    /// Sending node.
    pub from: (u32, u32),
    /// Receiving node.
    pub to: (u32, u32),
    /// How many deliveries of the entry led up to this send: 0 when
    /// `from` had not received the entry before sending, else one more
    /// than the hop that first brought it there.
    pub hop: u8,
    /// The node whose hop-0 send starts the chain this hop is on.
    pub origin: (u32, u32),
    /// Send timestamp (sender's clock), µs.
    pub send_at: Time,
    /// Receive timestamp (receiver's clock), µs.
    pub recv_at: Time,
}

/// Everything known about one entry across every input stream.
#[derive(Debug, Clone)]
pub struct StitchedEntry {
    /// The entry id `(gid, seq)`.
    pub entry: (u32, u64),
    /// Earliest event timestamp across all nodes.
    pub first: Time,
    /// Latest event timestamp across all nodes.
    pub last: Time,
    /// Nodes that recorded at least one event for the entry.
    pub nodes: BTreeSet<(u32, u32)>,
    /// All events for the entry, `(at, kind)`-sorted.
    pub events: Vec<Event>,
    /// Matched hops, send-time order.
    pub hops: Vec<Hop>,
    /// Delivers that no recorded send on their link accounts for. With
    /// ring loss the send was overwritten — reported, not mis-stitched;
    /// with `dropped == 0` it is a copy a duplicating link fault made.
    pub orphan_hops: usize,
    /// Whether the entry reached global commit or execution anywhere.
    pub committed: bool,
}

/// The merged cross-node trace.
#[derive(Debug, Clone, Default)]
pub struct Stitched {
    /// Entries keyed by id.
    pub entries: BTreeMap<(u32, u64), StitchedEntry>,
    /// Events not tied to an entry (view changes, debug), all streams.
    pub loose: Vec<Event>,
    /// Total declared ring loss across input streams.
    pub dropped: u64,
    /// Input streams consumed.
    pub sources: usize,
}

impl Stitched {
    /// Entries that reached global commit or execution somewhere.
    pub fn committed(&self) -> impl Iterator<Item = &StitchedEntry> {
        self.entries.values().filter(|e| e.committed)
    }

    /// `true` when no deliver is an orphan and every hop was sent no
    /// later than it was received. Expected to hold whenever
    /// [`Stitched::dropped`] is zero *and* every stream was stamped by
    /// one clock; pairing itself never compares two nodes' timestamps.
    pub fn hops_ordered(&self) -> bool {
        self.entries
            .values()
            .all(|e| e.orphan_hops == 0 && e.hops.iter().all(|h| h.send_at <= h.recv_at))
    }

    /// Total matched hops across all entries.
    pub fn total_hops(&self) -> usize {
        self.entries.values().map(|e| e.hops.len()).sum()
    }
}

fn is_entry_event(ev: &Event) -> bool {
    ev.entry != (0, 0) && (EventKind::LIFECYCLE.contains(&ev.kind) || ev.kind.is_hop())
}

/// Merges per-node streams into one distributed trace.
pub fn stitch(streams: &[NodeStream]) -> Stitched {
    let mut out = Stitched {
        sources: streams.len(),
        ..Stitched::default()
    };
    for s in streams {
        out.dropped += s.dropped;
        for ev in &s.events {
            if !is_entry_event(ev) {
                out.loose.push(*ev);
                continue;
            }
            let e = out
                .entries
                .entry(ev.entry)
                .or_insert_with(|| StitchedEntry {
                    entry: ev.entry,
                    first: ev.at,
                    last: ev.at,
                    nodes: BTreeSet::new(),
                    events: Vec::new(),
                    hops: Vec::new(),
                    orphan_hops: 0,
                    committed: false,
                });
            e.first = e.first.min(ev.at);
            e.last = e.last.max(ev.at);
            e.nodes.insert(ev.node);
            e.committed |= matches!(ev.kind, EventKind::GlobalCommit | EventKind::Executed);
            e.events.push(*ev);
        }
    }
    out.loose.sort_by_key(|ev| (ev.at, ev.kind as u8));
    for e in out.entries.values_mut() {
        e.events.sort_by_key(|ev| (ev.at, ev.kind as u8));
        pair_hops(e);
    }
    out
}

/// One recorded send of the entry, with the hop number and origin
/// [`pair_hops`] derives for it.
struct Sent {
    node: (u32, u32),
    at: Time,
    hop: u8,
    origin: (u32, u32),
    /// The send that first brought the entry to `node`, if one did
    /// before this send left.
    via: Option<usize>,
}

/// Pairs the entry's delivers with its sends and numbers the hops.
///
/// Pairing is per link: the k-th deliver at `to` from `from` answers the
/// k-th send at `from` to `to` (a link is FIFO per lane and its two ends
/// each have one clock, so neither order needs the other's timestamps);
/// a deliver beyond the sends recorded on its link is an orphan. A send
/// is hop 0 with its own node as origin unless the node had received the
/// entry by then, in which case it continues the chain of the node's
/// first receipt — compared on that node's clock only.
fn pair_hops(e: &mut StitchedEntry) {
    type Node = (u32, u32);
    let mut sends: Vec<Sent> = Vec::new();
    let mut link_sends: BTreeMap<(Node, Node), VecDeque<usize>> = BTreeMap::new();
    for ev in &e.events {
        if matches!(ev.kind, EventKind::NetWanSend | EventKind::NetLanSend) {
            let (peer, _) = unpack_hop_value(ev.value);
            link_sends
                .entry((ev.node, peer))
                .or_default()
                .push_back(sends.len());
            sends.push(Sent {
                node: ev.node,
                at: ev.at,
                hop: 0,
                origin: ev.node,
                via: None,
            });
        }
    }

    // Node → when the entry first arrived, from whom, by which send.
    let mut first_receipt: BTreeMap<Node, (Time, Node, Option<usize>)> = BTreeMap::new();
    let mut paired: Vec<(usize, Node, Time)> = Vec::new();
    for ev in &e.events {
        let (peer, _) = unpack_hop_value(ev.value);
        // A node's message to itself never crossed a link.
        if ev.kind != EventKind::NetDeliver || peer == ev.node {
            continue;
        }
        let send = link_sends
            .get_mut(&(peer, ev.node))
            .and_then(VecDeque::pop_front);
        match send {
            Some(s) => paired.push((s, ev.node, ev.at)),
            None => e.orphan_hops += 1,
        }
        first_receipt.entry(ev.node).or_insert((ev.at, peer, send));
    }

    for s in &mut sends {
        match first_receipt.get(&s.node) {
            Some(&(at, _, via @ Some(_))) if at <= s.at => s.via = via,
            // Received from a peer whose send is lost: one hop at least.
            Some(&(at, peer, None)) if at <= s.at => (s.hop, s.origin) = (1, peer),
            _ => {}
        }
    }
    // Hop numbers and origins flow down the chain. On one clock the list
    // is in causal order and the first round settles it; the bound stops
    // a cycle that mispairing under ring loss could fake.
    for _ in 0..sends.len() {
        let mut changed = false;
        for i in 0..sends.len() {
            let Some(via) = sends[i].via else { continue };
            let derived = (sends[via].hop.saturating_add(1), sends[via].origin);
            changed |= derived != (sends[i].hop, sends[i].origin);
            (sends[i].hop, sends[i].origin) = derived;
        }
        if !changed {
            break;
        }
    }

    e.hops = paired
        .into_iter()
        .map(|(s, to, recv_at)| Hop {
            from: sends[s].node,
            to,
            hop: sends[s].hop,
            origin: sends[s].origin,
            send_at: sends[s].at,
            recv_at,
        })
        .collect();
    e.hops.sort_by_key(|h| (h.send_at, h.recv_at));
}

/// One instant event on a node's track.
fn instant(ev: &Event, cat: &str, pid: u64) -> String {
    let mut s = format!(
        r#"{{"name":"{}","cat":"{cat}","ph":"i","s":"t","ts":{},"pid":{pid},"tid":0,"args":{{"entry":"{}:{}","#,
        ev.kind.name(),
        ev.at,
        ev.entry.0,
        ev.entry.1
    );
    write_payload(&mut s, ev);
    s.push_str("}}");
    s
}

/// Renders a stitched trace as Chrome `trace_event` JSON (loadable in
/// Perfetto or `about://tracing`): **one** async span per entry on a
/// synthetic `cluster` track (pid 0) bracketing the entry's
/// earliest-to-latest activity across every node, one process per node
/// (named `node <g>/<n>`) with an instant event per recorded phase
/// boundary, hop or debug occurrence, and a flow arrow (`ph:"s"` →
/// `ph:"f"`) per matched hop. A hop that reads backwards — its two ends
/// stamped by the clocks of different processes — gets no arrow. The
/// cluster track's metadata declares the summed ring loss.
pub fn to_chrome_trace(st: &Stitched) -> String {
    let mut pids: BTreeMap<(u32, u32), u64> = BTreeMap::new();
    for e in st.entries.values() {
        for n in &e.nodes {
            pids.entry(*n).or_insert(0);
        }
    }
    for ev in &st.loose {
        pids.entry(ev.node).or_insert(0);
    }
    for (i, pid) in pids.values_mut().enumerate() {
        *pid = i as u64 + 1;
    }

    let mut out = String::new();
    out.push_str("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[");
    let mut first = true;
    let push = |s: String, out: &mut String, first: &mut bool| {
        if !*first {
            out.push(',');
        }
        *first = false;
        out.push('\n');
        out.push_str(&s);
    };

    push(
        format!(
            r#"{{"name":"process_name","ph":"M","pid":0,"tid":0,"args":{{"name":"cluster (ring_dropped={})"}}}}"#,
            st.dropped
        ),
        &mut out,
        &mut first,
    );
    for (node, pid) in &pids {
        push(
            format!(
                r#"{{"name":"process_name","ph":"M","pid":{pid},"tid":0,"args":{{"name":"node {}/{}"}}}}"#,
                node.0, node.1
            ),
            &mut out,
            &mut first,
        );
    }

    // (ts, rank, serialized) for all timed records, then emitted
    // time-sorted so every track's timestamps are monotone.
    let mut timed: Vec<(Time, u8, String)> = Vec::new();
    for e in st.entries.values() {
        let id = format!("x{}.{}", e.entry.0, e.entry.1);
        let name = format!("entry {}:{}", e.entry.0, e.entry.1);
        timed.push((
            e.first,
            0,
            format!(
                r#"{{"name":"{name}","cat":"entry","ph":"b","id":"{id}","ts":{},"pid":0,"tid":0,"args":{{"nodes":{}}}}}"#,
                e.first,
                e.nodes.len()
            ),
        ));
        timed.push((
            e.last,
            3,
            format!(
                r#"{{"name":"{name}","cat":"entry","ph":"e","id":"{id}","ts":{},"pid":0,"tid":0}}"#,
                e.last
            ),
        ));
        for ev in &e.events {
            let cat = if ev.kind.is_hop() { "hop" } else { "phase" };
            timed.push((ev.at, 1, instant(ev, cat, pids[&ev.node])));
        }
        let forward = e.hops.iter().filter(|h| h.send_at <= h.recv_at);
        for (i, h) in forward.enumerate() {
            let fid = format!("w{}.{}-{i}", e.entry.0, e.entry.1);
            let cat = if h.from.0 != h.to.0 { "wan" } else { "lan" };
            timed.push((
                h.send_at,
                2,
                format!(
                    r#"{{"name":"hop{}","cat":"{cat}","ph":"s","id":"{fid}","ts":{},"pid":{},"tid":0}}"#,
                    h.hop, h.send_at, pids[&h.from]
                ),
            ));
            timed.push((
                h.recv_at,
                2,
                format!(
                    r#"{{"name":"hop{}","cat":"{cat}","ph":"f","bp":"e","id":"{fid}","ts":{},"pid":{},"tid":0}}"#,
                    h.hop, h.recv_at, pids[&h.to]
                ),
            ));
        }
    }
    for ev in &st.loose {
        let cat = if ev.kind.is_view_event() {
            "view"
        } else {
            "net"
        };
        timed.push((ev.at, 1, instant(ev, cat, pids[&ev.node])));
    }
    timed.sort_by_key(|t| (t.0, t.1));
    for (_, _, s) in timed {
        push(s, &mut out, &mut first);
    }
    out.push_str("\n]}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::export::validate_chrome_trace;
    use crate::pack_hop_value;
    use crate::ring::Ring;

    fn ev(at: Time, kind: EventKind, node: (u32, u32), entry: (u32, u64), value: u64) -> Event {
        Event {
            at,
            kind,
            node,
            entry,
            value,
        }
    }

    /// A 4 KiB message of `entry` seen at `node`, going to or coming
    /// from `peer`.
    fn hop(
        at: Time,
        kind: EventKind,
        node: (u32, u32),
        peer: (u32, u32),
        entry: (u32, u64),
    ) -> Event {
        ev(at, kind, node, entry, pack_hop_value(peer, 4096))
    }

    fn stream(source: &str, events: Vec<Event>) -> NodeStream {
        NodeStream {
            source: source.into(),
            events,
            dropped: 0,
        }
    }

    /// Two nodes, one committed entry: origin (0,0) runs local PBFT,
    /// ships over WAN to (1,0), which rebuilds, re-shares and commits.
    fn two_node_streams() -> Vec<NodeStream> {
        let e = (0u32, 1u64);
        let a = vec![
            ev(100, EventKind::Submitted, (0, 0), e, 3),
            ev(200, EventKind::Certified, (0, 0), e, 0),
            ev(210, EventKind::Encoded, (0, 0), e, 4096),
            hop(220, EventKind::NetWanSend, (0, 0), (1, 0), e),
            ev(900, EventKind::GlobalCommit, (0, 0), e, 0),
            ev(950, EventKind::Executed, (0, 0), e, 3),
        ];
        let b = vec![
            hop(400, EventKind::NetDeliver, (1, 0), (0, 0), e),
            ev(450, EventKind::ChunkRebuilt, (1, 0), e, 4096),
            hop(460, EventKind::NetLanSend, (1, 0), (1, 1), e),
            ev(910, EventKind::GlobalCommit, (1, 0), e, 0),
            ev(960, EventKind::Executed, (1, 0), e, 3),
        ];
        vec![stream("node0", a), stream("node1", b)]
    }

    #[test]
    fn stitches_one_distributed_span_per_committed_entry() {
        let st = stitch(&two_node_streams());
        assert_eq!(st.entries.len(), 1);
        assert_eq!(st.committed().count(), 1);
        let e = &st.entries[&(0, 1)];
        assert_eq!(e.nodes.len(), 2);
        assert_eq!((e.first, e.last), (100, 960));
        assert_eq!(e.hops.len(), 1);
        assert_eq!(e.hops[0].from, (0, 0));
        assert_eq!(e.hops[0].to, (1, 0));
        assert_eq!((e.hops[0].hop, e.hops[0].origin), (0, (0, 0)));
        assert!(st.hops_ordered(), "orphans: {}", e.orphan_hops);

        let trace = to_chrome_trace(&st);
        let sum = validate_chrome_trace(&trace).unwrap();
        assert_eq!(sum.spans, 1, "exactly one async span per entry");
        assert_eq!(sum.flows, 1);
        assert_eq!(sum.tracks, 3); // cluster + two nodes
        assert_eq!(sum.kind_counts["submitted"], 1);
        assert_eq!(sum.kind_counts["executed"], 2);
    }

    /// The two processes' clocks differ by a second, so the WAN deliver
    /// is stamped before its send. Pairing is per link and grounding per
    /// node, so nothing is orphaned and the relay still reads as hop 1
    /// of the origin's chain; only the single-clock check objects.
    #[test]
    fn pairing_never_compares_clocks_of_different_processes() {
        const SKEW: Time = 1_000_000;
        let e = (0u32, 1u64);
        let a = vec![
            ev(SKEW + 100, EventKind::Submitted, (0, 0), e, 3),
            hop(SKEW + 220, EventKind::NetWanSend, (0, 0), (1, 0), e),
        ];
        let b = vec![
            hop(400, EventKind::NetDeliver, (1, 0), (0, 0), e),
            hop(460, EventKind::NetLanSend, (1, 0), (1, 1), e),
            hop(800, EventKind::NetDeliver, (1, 1), (1, 0), e),
            ev(960, EventKind::Executed, (1, 1), e, 3),
        ];
        let st = stitch(&[stream("proc0", a), stream("proc1", b)]);
        let en = &st.entries[&e];
        assert_eq!(en.orphan_hops, 0);
        assert_eq!(st.total_hops(), 2);
        let wan = en.hops.iter().find(|h| h.from == (0, 0)).unwrap();
        assert_eq!((wan.to, wan.hop, wan.origin), ((1, 0), 0, (0, 0)));
        assert_eq!((wan.send_at, wan.recv_at), (SKEW + 220, 400));
        let lan = en.hops.iter().find(|h| h.from == (1, 0)).unwrap();
        assert_eq!((lan.to, lan.hop, lan.origin), ((1, 1), 1, (0, 0)));
        assert!(!st.hops_ordered(), "the WAN hop reads backwards");
        // The backwards hop gets no arrow; the document stays valid.
        let sum = validate_chrome_trace(&to_chrome_trace(&st)).unwrap();
        assert_eq!(sum.flows, 1);
    }

    #[test]
    fn orphan_recv_is_counted_not_mispaired() {
        let mut streams = two_node_streams();
        // Lose the origin's send, as a wrapped ring would.
        streams[0]
            .events
            .retain(|e| e.kind != EventKind::NetWanSend);
        streams[0].dropped = 1;
        let st = stitch(&streams);
        assert_eq!(st.dropped, 1);
        let e = &st.entries[&(0, 1)];
        // The (1,0) deliver lost its partner; the relay send on another
        // link is not borrowed for it. No fabricated pair appears.
        assert_eq!(e.hops.len(), 0);
        assert_eq!(e.orphan_hops, 1);
        assert!(!st.hops_ordered());
    }

    #[test]
    fn ring_wraparound_reports_loss_and_keeps_entries_separate() {
        // Push two entries' lifecycles through a tiny ring so the first
        // entry's early events are overwritten.
        let r = Ring::new(4);
        for seq in 1..=2u64 {
            let e = (0u32, seq);
            let base = seq * 1000;
            r.push(ev(base, EventKind::Submitted, (0, 0), e, 0));
            r.push(ev(base + 50, EventKind::Certified, (0, 0), e, 0));
            r.push(ev(base + 90, EventKind::Executed, (0, 0), e, 1));
        }
        let (events, dropped) = r.drain();
        assert!(dropped > 0);
        let st = stitch(&[NodeStream {
            source: "wrapped".into(),
            events,
            dropped,
        }]);
        assert_eq!(st.dropped, dropped);
        // Surviving events are attributed to their own entries only.
        for e in st.entries.values() {
            assert!(e.events.iter().all(|ev| ev.entry == e.entry));
        }
        // Entry 2's full triple survived; entry 1 is partial but present
        // exactly as far as its surviving events go, never merged into 2.
        assert!(st.entries[&(0, 2)].committed);
        let trace = to_chrome_trace(&st);
        assert!(trace.contains(&format!("ring_dropped={dropped}")));
        validate_chrome_trace(&trace).unwrap();
    }

    #[test]
    fn broadcast_send_pairs_with_every_receiver() {
        let e = (2u32, 7u64);
        let st = stitch(&[stream(
            "all",
            vec![
                ev(10, EventKind::Submitted, (2, 0), e, 0),
                hop(20, EventKind::NetWanSend, (2, 0), (0, 0), e),
                hop(20, EventKind::NetWanSend, (2, 0), (1, 0), e),
                hop(30, EventKind::NetDeliver, (0, 0), (2, 0), e),
                hop(35, EventKind::NetDeliver, (1, 0), (2, 0), e),
                ev(90, EventKind::Executed, (2, 0), e, 1),
            ],
        )]);
        let en = &st.entries[&e];
        assert_eq!(en.hops.len(), 2);
        assert_eq!(en.orphan_hops, 0);
        let tos: Vec<_> = en.hops.iter().map(|h| h.to).collect();
        assert_eq!(tos, vec![(0, 0), (1, 0)]);
    }

    // Golden-file shape test: the exact serialization of a tiny trace.
    // If the emitter changes representation, this fails loudly so the
    // change is a conscious one (Perfetto compatibility is at stake).
    #[test]
    fn chrome_trace_golden() {
        let e = (0u32, 1u64);
        let st = stitch(&[stream(
            "golden",
            vec![
                ev(7, EventKind::Submitted, (0, 0), e, 2),
                hop(8, EventKind::NetWanSend, (0, 0), (1, 0), e),
                hop(20, EventKind::NetDeliver, (1, 0), (0, 0), e),
            ],
        )]);
        let golden = concat!(
            "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n",
            "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":0,\"tid\":0,\"args\":{\"name\":\"cluster (ring_dropped=0)\"}},\n",
            "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":1,\"tid\":0,\"args\":{\"name\":\"node 0/0\"}},\n",
            "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":2,\"tid\":0,\"args\":{\"name\":\"node 1/0\"}},\n",
            "{\"name\":\"entry 0:1\",\"cat\":\"entry\",\"ph\":\"b\",\"id\":\"x0.1\",\"ts\":7,\"pid\":0,\"tid\":0,\"args\":{\"nodes\":2}},\n",
            "{\"name\":\"submitted\",\"cat\":\"phase\",\"ph\":\"i\",\"s\":\"t\",\"ts\":7,\"pid\":1,\"tid\":0,\"args\":{\"entry\":\"0:1\",\"value\":2}},\n",
            "{\"name\":\"net_wan_send\",\"cat\":\"hop\",\"ph\":\"i\",\"s\":\"t\",\"ts\":8,\"pid\":1,\"tid\":0,\"args\":{\"entry\":\"0:1\",\"peer\":[1,0],\"bytes\":4096}},\n",
            "{\"name\":\"hop0\",\"cat\":\"wan\",\"ph\":\"s\",\"id\":\"w0.1-0\",\"ts\":8,\"pid\":1,\"tid\":0},\n",
            "{\"name\":\"net_deliver\",\"cat\":\"hop\",\"ph\":\"i\",\"s\":\"t\",\"ts\":20,\"pid\":2,\"tid\":0,\"args\":{\"entry\":\"0:1\",\"peer\":[0,0],\"bytes\":4096}},\n",
            "{\"name\":\"hop0\",\"cat\":\"wan\",\"ph\":\"f\",\"bp\":\"e\",\"id\":\"w0.1-0\",\"ts\":20,\"pid\":2,\"tid\":0},\n",
            "{\"name\":\"entry 0:1\",\"cat\":\"entry\",\"ph\":\"e\",\"id\":\"x0.1\",\"ts\":20,\"pid\":0,\"tid\":0}\n",
            "]}\n",
        );
        assert_eq!(to_chrome_trace(&st), golden);
        validate_chrome_trace(golden).unwrap();
    }
}
