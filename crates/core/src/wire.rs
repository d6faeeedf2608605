//! The wire-format model: one shared set of per-message size constants.
//!
//! Two consumers must agree byte-for-byte on how large each [`Msg`]
//! variant is on the wire:
//!
//! 1. the simulator's byte accounting (`SimMessage::wire_size`, which
//!    drives WAN serialization delay and every `wan_bytes` report), and
//! 2. the TCP runtime's frame codec (`massbft-runtime`), which encodes
//!    the same enum into length-prefixed frames.
//!
//! Historically the sizes were magic numbers inlined in `protocol.rs`
//! (`cert.signatures.len() * 72 + 40`, …). They live here now, and the
//! frame codec zero-pads each variant's encoding up to exactly the
//! modeled size, so a cross-driver test can assert `encoded body length
//! == wire_size()` per variant (see `crates/runtime/src/frame.rs`).
//!
//! Two overheads were raised (by 4 bytes per item) when the codec was
//! written, because no honest encoding fits the old model: a
//! `ViewChange` prepared tuple needs seq (8) + digest (32) + length
//! prefix (4) before the payload, and a `NewView` re-proposal needs
//! seq (8) + length prefix (4). Both messages appear only during view
//! changes, so fault-free simulator byte accounting is unchanged.

use crate::entry::EntryId;
use crate::protocol::{GlobalCmd, Msg};
use massbft_consensus::{PbftMsg, RaftMsg};

/// Bytes per signature in a quorum certificate: claimed signer identity
/// (8) + HMAC-SHA256 tag (32) + the envelope a production signature
/// scheme would add (modeled, 32).
pub const SIG_WIRE: usize = 72;
/// Certificate header: certified digest (32) + group (4) + count (4).
pub const CERT_OVERHEAD: usize = 40;
/// Serialized [`crate::entry::EntryId`]: gid (4) + seq (8).
pub const ENTRY_ID_WIRE: usize = 12;
/// A SHA-256 digest.
pub const DIGEST_WIRE: usize = 32;

/// PBFT pre-prepare envelope around the payload.
pub const PBFT_PREPREPARE_OVERHEAD: usize = 64;
/// A PBFT prepare or commit vote (fixed size).
pub const PBFT_VOTE_WIRE: usize = 112;
/// A PBFT primary-liveness heartbeat.
pub const PBFT_HEARTBEAT_WIRE: usize = 48;
/// View-change envelope (new view, last exec, signature, count).
pub const PBFT_VIEWCHANGE_OVERHEAD: usize = 112;
/// Per prepared tuple in a view change: seq (8) + digest (32) + payload
/// length prefix (4), on top of the payload itself.
pub const PBFT_VIEWCHANGE_PREPARED_OVERHEAD: usize = 44;
/// New-view envelope.
pub const PBFT_NEWVIEW_OVERHEAD: usize = 64;
/// Per re-proposal in a new-view: seq (8) + payload length prefix (4).
pub const PBFT_NEWVIEW_REPROPOSAL_OVERHEAD: usize = 12;

/// Chunk envelope: entry id, chunk id, Merkle root, proof and data
/// framing — everything but the data and the proof path.
pub const CHUNK_OVERHEAD: usize = 64;
/// One Merkle proof step: sibling digest (32) + side flag (1).
pub const PROOF_STEP_WIRE: usize = 33;
/// Full-entry-copy envelope (beyond the entry bytes and certificate).
pub const ENTRY_OVERHEAD: usize = 104;

/// Raft message envelope (instance, term bookkeeping, framing).
pub const RAFT_OVERHEAD: usize = 64;
/// A `GlobalCmd` entry commitment: entry id (12) + digest (32).
pub const GLOBAL_CMD_ENTRY_WIRE: usize = ENTRY_ID_WIRE + DIGEST_WIRE;
/// One piggybacked VTS stamp: entry id (12) + clock value (8).
pub const GLOBAL_CMD_STAMP_WIRE: usize = 20;
/// `GlobalCmd` envelope (flags, counts, log-entry term).
pub const GLOBAL_CMD_OVERHEAD: usize = 24;

/// One ordering feed event (committed-entry or stamp record).
pub const FEED_EVENT_WIRE: usize = 24;
/// Feed envelope.
pub const FEED_OVERHEAD: usize = 32;
/// A pull-repair entry request (fixed size).
pub const ENTRY_REQUEST_WIRE: usize = 64;
/// Per entry id in an accept notice.
pub const ACCEPT_NOTICE_ENTRY_WIRE: usize = 16;
/// Accept-notice envelope.
pub const ACCEPT_NOTICE_OVERHEAD: usize = 48;
/// An ISS epoch-close announcement (fixed size).
pub const EPOCH_CLOSE_WIRE: usize = 48;

/// Wire size of a quorum certificate with `signatures` signatures.
pub fn cert_wire(signatures: usize) -> usize {
    signatures * SIG_WIRE + CERT_OVERHEAD
}

/// Wire size of one global Raft command.
pub fn global_cmd_wire(cmd: &GlobalCmd) -> usize {
    let entry = if cmd.entry.is_some() {
        GLOBAL_CMD_ENTRY_WIRE
    } else {
        0
    };
    entry + cmd.stamps.len() * GLOBAL_CMD_STAMP_WIRE + GLOBAL_CMD_OVERHEAD
}

/// Wire size of a chunk message with `data_len` payload bytes and
/// `proof_steps` Merkle proof steps (certificate not included).
pub fn chunk_wire(data_len: usize, proof_steps: usize) -> usize {
    data_len + proof_steps * PROOF_STEP_WIRE + CHUNK_OVERHEAD
}

/// The entry a message carries data for, if the message is part of an
/// entry's cross-node data path: what `SimMessage::trace_entry` answers
/// for [`Msg`], and so what the drivers' send and deliver probes record.
/// Control traffic (votes, heartbeats, Raft internals, feeds) returns
/// `None` — its spans are reconstructed from per-node probes instead.
pub fn trace_entry(msg: &Msg) -> Option<EntryId> {
    match msg {
        Msg::Chunk { chunk, .. } => Some(chunk.entry),
        Msg::Entry { id, .. } => Some(*id),
        Msg::EntryRequest { id } => Some(*id),
        _ => None,
    }
}

/// The modeled wire size of a protocol message. Single source of truth:
/// `SimMessage::wire_size` delegates here, and the runtime frame codec
/// produces frame bodies of exactly this many bytes.
pub fn msg_wire_size(msg: &Msg) -> usize {
    match msg {
        Msg::Pbft(m) => match m {
            PbftMsg::PrePrepare { payload, .. } => payload.len() + PBFT_PREPREPARE_OVERHEAD,
            PbftMsg::Prepare { .. } | PbftMsg::Commit { .. } => PBFT_VOTE_WIRE,
            PbftMsg::Heartbeat { .. } => PBFT_HEARTBEAT_WIRE,
            PbftMsg::ViewChange { prepared, .. } => {
                PBFT_VIEWCHANGE_OVERHEAD
                    + prepared
                        .iter()
                        .map(|(_, _, p)| p.len() + PBFT_VIEWCHANGE_PREPARED_OVERHEAD)
                        .sum::<usize>()
            }
            PbftMsg::NewView { reproposals, .. } => {
                PBFT_NEWVIEW_OVERHEAD
                    + reproposals
                        .iter()
                        .map(|(_, p)| p.len() + PBFT_NEWVIEW_REPROPOSAL_OVERHEAD)
                        .sum::<usize>()
            }
        },
        Msg::Chunk { chunk, cert } => chunk.wire_size() + cert_wire(cert.signatures.len()),
        Msg::Entry { bytes, cert, .. } => {
            bytes.len() + cert.signatures.len() * SIG_WIRE + ENTRY_OVERHEAD
        }
        Msg::Raft {
            rmsg, cert_bytes, ..
        } => match rmsg {
            RaftMsg::AppendEntries { entries, .. } => {
                entries
                    .iter()
                    .map(|e| global_cmd_wire(&e.data))
                    .sum::<usize>()
                    + cert_bytes
                    + RAFT_OVERHEAD
            }
            _ => RAFT_OVERHEAD,
        },
        Msg::Feed { events } => events.len() * FEED_EVENT_WIRE + FEED_OVERHEAD,
        Msg::EntryRequest { .. } => ENTRY_REQUEST_WIRE,
        Msg::AcceptNotice { entries, .. } => {
            entries.len() * ACCEPT_NOTICE_ENTRY_WIRE + ACCEPT_NOTICE_OVERHEAD
        }
        Msg::EpochClose { .. } => EPOCH_CLOSE_WIRE,
    }
}
