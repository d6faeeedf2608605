//! The JSONL event log, the validator for the Chrome `trace_event`
//! documents [`crate::stitch::to_chrome_trace`] writes, and the Fig. 11
//! breakdown.
//!
//! [`validate_chrome_trace`] re-parses our own output and proves it
//! structurally sound (balanced `b`/`e` and `s`/`f` pairs, monotone
//! timestamps per track) — used by the golden test and by
//! `scripts/check.sh` via the trace bin.
//!
//! [`breakdown`] reduces a drained event stream to the paper's Fig. 11
//! per-phase latency table using the *same* fallback rules as
//! `Node::phase_breakdown()` in `massbft-core`, so the two agree on the
//! same run.

use crate::json::{self, Value};
use crate::{pack_hop_value, unpack_hop_value, Event, EventKind, Time};
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// Appends an event's kind-specific payload as JSON members: a hop
/// kind's peer and byte count by name, any other kind's `value`.
pub(crate) fn write_payload(out: &mut String, ev: &Event) {
    let _ = if ev.kind.is_hop() {
        let (peer, bytes) = unpack_hop_value(ev.value);
        write!(out, r#""peer":[{},{}],"bytes":{bytes}"#, peer.0, peer.1)
    } else {
        write!(out, r#""value":{}"#, ev.value)
    };
}

/// Serializes events as JSONL: one self-describing JSON object per line.
/// A send, deliver or drop names its peer and size
/// (`"peer":[g,n],"bytes":N`), so the log greps by node without
/// unpacking anything.
pub fn to_jsonl(events: &[Event]) -> String {
    let mut out = String::with_capacity(events.len() * 96);
    for ev in events {
        let _ = write!(
            out,
            r#"{{"at":{},"kind":"{}","node":[{},{}],"entry":[{},{}],"#,
            ev.at,
            ev.kind.name(),
            ev.node.0,
            ev.node.1,
            ev.entry.0,
            ev.entry.1
        );
        write_payload(&mut out, ev);
        out.push_str("}\n");
    }
    out
}

/// Parses a JSONL event log produced by [`to_jsonl`].
pub fn parse_jsonl(text: &str) -> Result<Vec<Event>, String> {
    let mut out = Vec::new();
    for (lineno, line) in text.lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        let v = json::parse(line).map_err(|e| format!("line {}: {e}", lineno + 1))?;
        let field = |k: &str| {
            v.get(k)
                .ok_or_else(|| format!("line {}: missing {k:?}", lineno + 1))
        };
        let num = |k: &str| {
            field(k)?
                .as_u64()
                .ok_or_else(|| format!("line {}: {k:?} not a u64", lineno + 1))
        };
        let pair = |k: &str| -> Result<(u64, u64), String> {
            let arr = field(k)?
                .as_arr()
                .ok_or_else(|| format!("line {}: {k:?} not an array", lineno + 1))?;
            match arr {
                [a, b] => Ok((
                    a.as_u64()
                        .ok_or(format!("line {}: bad {k:?}[0]", lineno + 1))?,
                    b.as_u64()
                        .ok_or(format!("line {}: bad {k:?}[1]", lineno + 1))?,
                )),
                _ => Err(format!("line {}: {k:?} not a pair", lineno + 1)),
            }
        };
        let kind_name = field("kind")?
            .as_str()
            .ok_or_else(|| format!("line {}: kind not a string", lineno + 1))?;
        let kind = EventKind::from_name(kind_name)
            .ok_or_else(|| format!("line {}: unknown kind {kind_name:?}", lineno + 1))?;
        let node = pair("node")?;
        let entry = pair("entry")?;
        let value = if kind.is_hop() {
            let peer = pair("peer")?;
            pack_hop_value((peer.0 as u32, peer.1 as u32), num("bytes")?)
        } else {
            num("value")?
        };
        out.push(Event {
            at: num("at")?,
            kind,
            node: (node.0 as u32, node.1 as u32),
            entry: (entry.0 as u32, entry.1),
            value,
        });
    }
    Ok(out)
}

/// What [`validate_chrome_trace`] proves about a trace document.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct TraceSummary {
    /// Node tracks (processes) present.
    pub tracks: usize,
    /// Balanced async spans (`b`/`e` pairs).
    pub spans: usize,
    /// Balanced flow arrows (`s`/`f` pairs — the paired hops).
    pub flows: usize,
    /// Instant events per phase name.
    pub kind_counts: BTreeMap<String, u64>,
}

/// Parses and structurally validates a Chrome `trace_event` document:
/// every async `b` has exactly one matching `e` no earlier than it,
/// every flow start `s` exactly one finish `f` no earlier than it, and
/// per-track timestamps are monotone non-decreasing.
pub fn validate_chrome_trace(text: &str) -> Result<TraceSummary, String> {
    let doc = json::parse(text)?;
    let events = doc
        .get("traceEvents")
        .and_then(Value::as_arr)
        .ok_or("missing traceEvents array")?;

    let mut summary = TraceSummary::default();
    let mut open: BTreeMap<(String, String), Time> = BTreeMap::new();
    let mut open_flows: BTreeMap<(String, String), Time> = BTreeMap::new();
    let mut last_ts: BTreeMap<u64, Time> = BTreeMap::new();
    let mut tracks: BTreeMap<u64, bool> = BTreeMap::new();

    for (i, ev) in events.iter().enumerate() {
        let ph = ev
            .get("ph")
            .and_then(Value::as_str)
            .ok_or_else(|| format!("event {i}: missing ph"))?;
        let pid = ev
            .get("pid")
            .and_then(Value::as_u64)
            .ok_or_else(|| format!("event {i}: missing pid"))?;
        if ph == "M" {
            tracks.entry(pid).or_insert(true);
            continue;
        }
        let ts = ev
            .get("ts")
            .and_then(Value::as_u64)
            .ok_or_else(|| format!("event {i}: missing ts"))?;
        let last = last_ts.entry(pid).or_insert(0);
        if ts < *last {
            return Err(format!(
                "event {i}: track {pid} timestamp {ts} < previous {last}"
            ));
        }
        *last = ts;
        match ph {
            "b" => {
                let cat = ev.get("cat").and_then(Value::as_str).unwrap_or_default();
                let id = ev
                    .get("id")
                    .and_then(Value::as_str)
                    .ok_or_else(|| format!("event {i}: async b without id"))?;
                if open.insert((cat.to_string(), id.to_string()), ts).is_some() {
                    return Err(format!("event {i}: duplicate open span {id:?}"));
                }
            }
            "e" => {
                let cat = ev.get("cat").and_then(Value::as_str).unwrap_or_default();
                let id = ev
                    .get("id")
                    .and_then(Value::as_str)
                    .ok_or_else(|| format!("event {i}: async e without id"))?;
                let begin = open
                    .remove(&(cat.to_string(), id.to_string()))
                    .ok_or_else(|| format!("event {i}: e without b for {id:?}"))?;
                if ts < begin {
                    return Err(format!("event {i}: span {id:?} ends before it begins"));
                }
                summary.spans += 1;
            }
            "i" => {
                let name = ev
                    .get("name")
                    .and_then(Value::as_str)
                    .ok_or_else(|| format!("event {i}: instant without name"))?;
                *summary.kind_counts.entry(name.to_string()).or_insert(0) += 1;
            }
            "s" => {
                let cat = ev.get("cat").and_then(Value::as_str).unwrap_or_default();
                let id = ev
                    .get("id")
                    .and_then(Value::as_str)
                    .ok_or_else(|| format!("event {i}: flow s without id"))?;
                if open_flows
                    .insert((cat.to_string(), id.to_string()), ts)
                    .is_some()
                {
                    return Err(format!("event {i}: duplicate flow start {id:?}"));
                }
            }
            "f" => {
                let cat = ev.get("cat").and_then(Value::as_str).unwrap_or_default();
                let id = ev
                    .get("id")
                    .and_then(Value::as_str)
                    .ok_or_else(|| format!("event {i}: flow f without id"))?;
                let begin = open_flows
                    .remove(&(cat.to_string(), id.to_string()))
                    .ok_or_else(|| format!("event {i}: f without s for {id:?}"))?;
                if ts < begin {
                    return Err(format!("event {i}: flow {id:?} ends before it starts"));
                }
                summary.flows += 1;
            }
            other => return Err(format!("event {i}: unexpected ph {other:?}")),
        }
    }
    if let Some(((_, id), _)) = open.into_iter().next() {
        return Err(format!("span {id:?} never closed"));
    }
    if let Some(((_, id), _)) = open_flows.into_iter().next() {
        return Err(format!("flow {id:?} never finished"));
    }
    summary.tracks = tracks.len();
    Ok(summary)
}

/// Fig. 11 per-phase latency means, derived from span events.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Breakdown {
    /// Submitted → certified (local PBFT), ms.
    pub local_consensus_ms: f64,
    /// Certified → global commit, ms.
    pub global_replication_ms: f64,
    /// Global commit → deterministic order, ms.
    pub ordering_ms: f64,
    /// Ordered → executed, ms.
    pub execution_ms: f64,
    /// Entries contributing to the means.
    pub entries: u64,
}

impl Breakdown {
    /// Sum of the four phase means (≈ end-to-end latency), ms.
    pub fn total_ms(&self) -> f64 {
        self.local_consensus_ms + self.global_replication_ms + self.ordering_ms + self.execution_ms
    }
}

/// Reduces a drained event stream to per-phase means over origin-group
/// entries, mirroring `Node::phase_breakdown()` exactly: phase marks are
/// taken at the entry's origin representative (the node that emitted
/// `Submitted`), with the same fallbacks — a missing `GlobalCommit`
/// falls back to the certificate time and a missing `Ordered` to the
/// commit time, clamped monotone. Returns `None` when no entry has the
/// full `Submitted`/`Certified`/`Executed` triple.
pub fn breakdown(events: &[Event]) -> Option<Breakdown> {
    struct Marks {
        origin: Option<(u32, u32)>,
        created: Option<Time>,
        certified: Option<Time>,
        committed: Option<Time>,
        ordered: Option<Time>,
        executed: Option<Time>,
    }
    let mut marks: BTreeMap<(u32, u64), Marks> = BTreeMap::new();
    for ev in events {
        if ev.entry == (0, 0) {
            continue;
        }
        let m = marks.entry(ev.entry).or_insert(Marks {
            origin: None,
            created: None,
            certified: None,
            committed: None,
            ordered: None,
            executed: None,
        });
        if ev.kind == EventKind::Submitted {
            m.origin = Some(ev.node);
            m.created.get_or_insert(ev.at);
        }
        // Only marks at the origin rep count, as in protocol.rs where
        // the rep's own maps feed phase_sums. Submitted fixes the origin;
        // events arriving before it are matched by group instead.
        let at_origin = match m.origin {
            Some(origin) => ev.node == origin,
            None => ev.node.0 == ev.entry.0,
        };
        if !at_origin {
            continue;
        }
        match ev.kind {
            EventKind::Certified => m.certified.get_or_insert(ev.at),
            EventKind::GlobalCommit => m.committed.get_or_insert(ev.at),
            EventKind::Ordered => m.ordered.get_or_insert(ev.at),
            EventKind::Executed => m.executed.get_or_insert(ev.at),
            _ => continue,
        };
    }

    let mut sums = [0u64; 4];
    let mut count = 0u64;
    for m in marks.values() {
        let (Some(cr), Some(ce), Some(ex)) = (m.created, m.certified, m.executed) else {
            continue;
        };
        let co = m.committed.unwrap_or(ce);
        let or = m.ordered.unwrap_or(co).max(co);
        sums[0] += ce.saturating_sub(cr);
        sums[1] += co.saturating_sub(ce);
        sums[2] += or.saturating_sub(co);
        sums[3] += ex.saturating_sub(or);
        count += 1;
    }
    if count == 0 {
        return None;
    }
    let c = count as f64 * 1000.0;
    Some(Breakdown {
        local_consensus_ms: sums[0] as f64 / c,
        global_replication_ms: sums[1] as f64 / c,
        ordering_ms: sums[2] as f64 / c,
        execution_ms: sums[3] as f64 / c,
        entries: count,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lifecycle_events() -> Vec<Event> {
        // One entry (0, 1), origin rep (0, 0), observed remotely at (1, 0).
        let e = (0u32, 1u64);
        let mk = |at, kind, node, value| Event {
            at,
            kind,
            node,
            entry: e,
            value,
        };
        vec![
            mk(100, EventKind::Submitted, (0, 0), 3),
            mk(150, EventKind::PbftPrePrepare, (0, 0), 0),
            mk(220, EventKind::Certified, (0, 0), 0),
            mk(230, EventKind::Encoded, (0, 0), 4096),
            mk(240, EventKind::WanTransferStart, (0, 0), 4096),
            mk(
                241,
                EventKind::NetWanSend,
                (0, 0),
                pack_hop_value((1, 0), 1400),
            ),
            mk(
                399,
                EventKind::NetDeliver,
                (1, 0),
                pack_hop_value((0, 0), 1400),
            ),
            mk(400, EventKind::ChunkRebuilt, (1, 0), 4096),
            mk(520, EventKind::GlobalCommit, (0, 0), 0),
            mk(530, EventKind::GlobalCommit, (1, 0), 0),
            mk(600, EventKind::Ordered, (0, 0), 0),
            mk(700, EventKind::Executed, (0, 0), 3),
            mk(710, EventKind::Executed, (1, 0), 3),
        ]
    }

    #[test]
    fn jsonl_round_trip() {
        let events = lifecycle_events();
        let text = to_jsonl(&events);
        assert_eq!(text.lines().count(), events.len());
        let parsed = parse_jsonl(&text).unwrap();
        assert_eq!(parsed, events);
        // A hop's peer and size are named fields, not a packed number.
        let send = text.lines().find(|l| l.contains("net_wan_send")).unwrap();
        assert!(send.ends_with(r#""entry":[0,1],"peer":[1,0],"bytes":1400}"#));
        assert!(!send.contains("value"));
    }

    #[test]
    fn jsonl_rejects_garbage() {
        assert!(parse_jsonl("{\"at\":1}").is_err());
        assert!(parse_jsonl(
            "{\"at\":1,\"kind\":\"nope\",\"node\":[0,0],\"entry\":[0,0],\"value\":0}"
        )
        .is_err());
        assert!(parse_jsonl("not json").is_err());
        // A hop kind must name its peer.
        assert!(parse_jsonl(
            "{\"at\":1,\"kind\":\"net_deliver\",\"node\":[0,0],\"entry\":[0,0],\"value\":0}"
        )
        .is_err());
    }

    #[test]
    fn validator_rejects_unbalanced_and_nonmonotone() {
        let unbalanced = r#"{"traceEvents":[
            {"name":"x","cat":"entry","ph":"b","id":"a","ts":1,"pid":1,"tid":0}
        ]}"#;
        assert!(validate_chrome_trace(unbalanced)
            .unwrap_err()
            .contains("never closed"));

        let backwards = r#"{"traceEvents":[
            {"name":"a","cat":"phase","ph":"i","s":"t","ts":5,"pid":1,"tid":0},
            {"name":"b","cat":"phase","ph":"i","s":"t","ts":4,"pid":1,"tid":0}
        ]}"#;
        assert!(validate_chrome_trace(backwards)
            .unwrap_err()
            .contains("timestamp"));

        let inverted = r#"{"traceEvents":[
            {"name":"x","cat":"entry","ph":"e","id":"a","ts":3,"pid":1,"tid":0}
        ]}"#;
        assert!(validate_chrome_trace(inverted)
            .unwrap_err()
            .contains("e without b"));
    }

    #[test]
    fn breakdown_matches_protocol_fallback_rules() {
        let b = breakdown(&lifecycle_events()).unwrap();
        assert_eq!(b.entries, 1);
        // cr=100 ce=220 co=520 or=600 ex=700 (origin-node marks only).
        assert!((b.local_consensus_ms - 0.120).abs() < 1e-9);
        assert!((b.global_replication_ms - 0.300).abs() < 1e-9);
        assert!((b.ordering_ms - 0.080).abs() < 1e-9);
        assert!((b.execution_ms - 0.100).abs() < 1e-9);
        assert!((b.total_ms() - 0.600).abs() < 1e-9);
    }

    #[test]
    fn breakdown_fallbacks_without_commit_or_order() {
        let e = (2u32, 9u64);
        let mk = |at, kind| Event {
            at,
            kind,
            node: (2, 0),
            entry: e,
            value: 0,
        };
        // No GlobalCommit, no Ordered: co falls back to ce, or to co.
        let events = vec![
            mk(1000, EventKind::Submitted),
            mk(1400, EventKind::Certified),
            mk(2000, EventKind::Executed),
        ];
        let b = breakdown(&events).unwrap();
        assert!((b.local_consensus_ms - 0.4).abs() < 1e-9);
        assert_eq!(b.global_replication_ms, 0.0);
        assert_eq!(b.ordering_ms, 0.0);
        assert!((b.execution_ms - 0.6).abs() < 1e-9);
        // Incomplete entries contribute nothing.
        assert!(breakdown(&[mk(1, EventKind::Submitted)]).is_none());
    }
}
