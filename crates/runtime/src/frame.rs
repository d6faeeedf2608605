//! Length-prefixed frame codec for the protocol's [`Msg`] enum.
//!
//! A frame on the wire is `[u32 LE body length][body]`. The body starts
//! with a one-byte variant tag, followed by the variant's fields in
//! little-endian order, followed by zero padding up to **exactly** the
//! size the simulator's byte-accounting model assigns the message
//! (`massbft_core::wire::msg_wire_size`). That identity is what makes
//! wall-clock byte counts comparable with simulated `wan_bytes`, and a
//! test (`tests/frame_codec.rs`) asserts it per variant. The pad is
//! always zero: nothing rides in it, and how a message travelled is
//! observed by the drivers' probes, not carried in the frame.
//!
//! Layout rules:
//! - natural fields first, one zero-pad run at the end of the body (the
//!   model's per-part overheads are upper bounds on the natural field
//!   encoding, so the pad length is always non-negative);
//! - variable payloads (`Bytes`) are length-prefixed inline and, on
//!   decode, returned as zero-copy [`Bytes::slice`] windows into the
//!   frame buffer — chunk data travels from the socket to the
//!   `ChunkAssembler` without another copy;
//! - feed events pack their kind into the top bit of the first word so
//!   one event occupies exactly the modeled 24 bytes.
//!
//! Robustness: `decode_msg` never panics on malformed input — every
//! read is bounds-checked and length-prefixed counts are validated
//! against the remaining frame bytes before allocating.

use bytes::Bytes;
use massbft_consensus::{pbft::PbftMsg, raft::LogEntry, RaftMsg};
use massbft_core::protocol::{FeedEvent, GlobalCmd, Msg};
use massbft_core::replication::ChunkMsg;
use massbft_core::wire;
use massbft_core::EntryId;
use massbft_crypto::keys::NodeId;
use massbft_crypto::merkle::ProofStep;
use massbft_crypto::{Digest, MerkleProof, QuorumCert, Signature};

/// Upper bound on a frame body; larger length prefixes are rejected
/// before any allocation (a garbage or hostile peer cannot make us
/// reserve gigabytes).
pub const MAX_FRAME: usize = 64 << 20;

/// Frame header size: the u32 body-length prefix.
pub const FRAME_HEADER: usize = 4;

/// Why a frame could not be encoded or decoded.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FrameError {
    /// The length prefix exceeds [`MAX_FRAME`] (or is zero).
    BadLength(usize),
    /// The body ended before a field could be read.
    Truncated,
    /// An unknown variant or kind tag.
    BadTag(u8),
    /// A count or length field is inconsistent with the body size.
    BadCount,
    /// The message cannot be represented in the wire format (e.g. a
    /// chunk certificate with no signatures, or a feed stamper id using
    /// the reserved top bit).
    Unencodable(&'static str),
}

impl std::fmt::Display for FrameError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FrameError::BadLength(n) => write!(f, "bad frame length {n}"),
            FrameError::Truncated => write!(f, "truncated frame"),
            FrameError::BadTag(t) => write!(f, "unknown tag {t}"),
            FrameError::BadCount => write!(f, "count exceeds frame"),
            FrameError::Unencodable(why) => write!(f, "unencodable: {why}"),
        }
    }
}

impl std::error::Error for FrameError {}

// Variant tags.
const T_PREPREPARE: u8 = 0;
const T_PREPARE: u8 = 1;
const T_COMMIT: u8 = 2;
const T_VIEWCHANGE: u8 = 3;
const T_NEWVIEW: u8 = 4;
const T_HEARTBEAT: u8 = 5;
const T_CHUNK: u8 = 6;
const T_ENTRY: u8 = 7;
const T_RAFT: u8 = 8;
const T_FEED: u8 = 9;
const T_ENTRY_REQUEST: u8 = 10;
const T_ACCEPT_NOTICE: u8 = 11;
const T_EPOCH_CLOSE: u8 = 12;

// Raft sub-tags.
const R_REQUEST_VOTE: u8 = 0;
const R_VOTE: u8 = 1;
const R_APPEND: u8 = 2;
const R_APPEND_RESP: u8 = 3;

// ---------------------------------------------------------------- encode

struct Enc {
    buf: Vec<u8>,
}

impl Enc {
    fn u8(&mut self, v: u8) {
        self.buf.push(v);
    }
    fn u16(&mut self, v: u16) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }
    fn u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }
    fn u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }
    fn digest(&mut self, d: &Digest) {
        self.buf.extend_from_slice(&d.0);
    }
    fn node_id(&mut self, id: NodeId) {
        self.u32(id.group);
        self.u32(id.node);
    }
    fn entry_id(&mut self, id: EntryId) {
        self.u32(id.gid);
        self.u64(id.seq);
    }
    fn sig(&mut self, s: &Signature) {
        self.node_id(s.signer);
        self.buf.extend_from_slice(&s.tag);
    }
    fn cert(&mut self, c: &QuorumCert) {
        self.digest(&c.digest);
        self.u32(c.group);
        self.u32(c.signatures.len() as u32);
        for s in &c.signatures {
            self.sig(s);
        }
    }
    fn bytes(&mut self, b: &Bytes) {
        self.u32(b.len() as u32);
        self.buf.extend_from_slice(b);
    }
    fn global_cmd(&mut self, cmd: &GlobalCmd) {
        match &cmd.entry {
            Some((id, d)) => {
                self.u8(1);
                self.entry_id(*id);
                self.digest(d);
            }
            None => self.u8(0),
        }
        self.u32(cmd.stamps.len() as u32);
        for (id, ts) in &cmd.stamps {
            self.entry_id(*id);
            self.u64(*ts);
        }
    }
}

/// Encodes `msg` as a complete frame (`[len][body]`), body padded to
/// exactly `wire::msg_wire_size(msg)` bytes. The returned [`Bytes`] is
/// ready to hand to per-peer send queues; broadcasting clones refcounts,
/// not buffers.
pub fn encode_frame(msg: &Msg) -> Result<Bytes, FrameError> {
    let body_len = wire::msg_wire_size(msg);
    if body_len > MAX_FRAME {
        return Err(FrameError::BadLength(body_len));
    }
    let mut e = Enc {
        buf: Vec::with_capacity(FRAME_HEADER + body_len),
    };
    e.u32(body_len as u32);
    match msg {
        Msg::Pbft(m) => match m {
            PbftMsg::PrePrepare {
                view,
                seq,
                payload,
                digest,
            } => {
                e.u8(T_PREPREPARE);
                e.u64(*view);
                e.u64(*seq);
                e.digest(digest);
                e.bytes(payload);
            }
            PbftMsg::Prepare {
                view,
                seq,
                digest,
                sig,
            } => {
                e.u8(T_PREPARE);
                e.u64(*view);
                e.u64(*seq);
                e.digest(digest);
                e.sig(sig);
            }
            PbftMsg::Commit {
                view,
                seq,
                digest,
                sig,
            } => {
                e.u8(T_COMMIT);
                e.u64(*view);
                e.u64(*seq);
                e.digest(digest);
                e.sig(sig);
            }
            PbftMsg::ViewChange {
                new_view,
                last_exec,
                prepared,
                sig,
            } => {
                e.u8(T_VIEWCHANGE);
                e.u64(*new_view);
                e.u64(*last_exec);
                e.sig(sig);
                e.u32(prepared.len() as u32);
                for (seq, digest, payload) in prepared {
                    e.u64(*seq);
                    e.digest(digest);
                    e.bytes(payload);
                }
            }
            PbftMsg::NewView { view, reproposals } => {
                e.u8(T_NEWVIEW);
                e.u64(*view);
                e.u32(reproposals.len() as u32);
                for (seq, payload) in reproposals {
                    e.u64(*seq);
                    e.bytes(payload);
                }
            }
            PbftMsg::Heartbeat { view } => {
                e.u8(T_HEARTBEAT);
                e.u64(*view);
            }
        },
        Msg::Chunk { chunk, cert } => {
            // The chunk envelope's natural fields run one byte past the
            // modeled 64-byte overhead; the certificate's 32 modeled pad
            // bytes per signature absorb it, so a chunk must carry at
            // least one signature (protocol certificates always do).
            if cert.signatures.is_empty() {
                return Err(FrameError::Unencodable("chunk cert without signatures"));
            }
            e.u8(T_CHUNK);
            e.entry_id(chunk.entry);
            e.u32(chunk.chunk_id);
            e.digest(&chunk.root);
            e.u32(chunk.proof.leaf_index as u32);
            e.u32(chunk.proof.leaf_count as u32);
            e.u16(chunk.proof.path.len() as u16);
            for step in &chunk.proof.path {
                e.digest(&step.sibling);
                e.u8(step.sibling_on_left as u8);
            }
            e.cert(cert);
            e.bytes(&chunk.data);
        }
        Msg::Entry { id, bytes, cert } => {
            e.u8(T_ENTRY);
            e.entry_id(*id);
            e.cert(cert);
            e.bytes(bytes);
        }
        Msg::Raft {
            instance,
            rmsg,
            cert_bytes,
        } => {
            e.u8(T_RAFT);
            e.u32(*instance);
            e.u32(*cert_bytes as u32);
            match rmsg {
                RaftMsg::RequestVote {
                    term,
                    last_log_index,
                    last_log_term,
                } => {
                    e.u8(R_REQUEST_VOTE);
                    e.u64(*term);
                    e.u64(*last_log_index);
                    e.u64(*last_log_term);
                }
                RaftMsg::Vote { term, granted } => {
                    e.u8(R_VOTE);
                    e.u64(*term);
                    e.u8(*granted as u8);
                }
                RaftMsg::AppendEntries {
                    term,
                    prev_index,
                    prev_term,
                    entries,
                    leader_commit,
                } => {
                    e.u8(R_APPEND);
                    e.u64(*term);
                    e.u64(*prev_index);
                    e.u64(*prev_term);
                    e.u64(*leader_commit);
                    e.u32(entries.len() as u32);
                    for le in entries {
                        e.u64(le.term);
                        e.global_cmd(&le.data);
                    }
                }
                RaftMsg::AppendResp {
                    term,
                    success,
                    match_index,
                } => {
                    e.u8(R_APPEND_RESP);
                    e.u64(*term);
                    e.u8(*success as u8);
                    e.u64(*match_index);
                }
            }
        }
        Msg::Feed { events } => {
            e.u8(T_FEED);
            e.u32(events.len() as u32);
            for ev in events {
                match ev {
                    FeedEvent::Committed(id) => {
                        e.u32(1 << 31);
                        e.entry_id(*id);
                        e.u64(0);
                    }
                    FeedEvent::Stamp {
                        stamper,
                        target,
                        ts,
                    } => {
                        if *stamper & (1 << 31) != 0 {
                            return Err(FrameError::Unencodable("stamper id uses reserved bit"));
                        }
                        e.u32(*stamper);
                        e.entry_id(*target);
                        e.u64(*ts);
                    }
                }
            }
        }
        Msg::EntryRequest { id } => {
            e.u8(T_ENTRY_REQUEST);
            e.entry_id(*id);
        }
        Msg::AcceptNotice {
            from_group,
            entries,
        } => {
            e.u8(T_ACCEPT_NOTICE);
            e.u32(*from_group);
            e.u32(entries.len() as u32);
            for id in entries {
                e.entry_id(*id);
            }
        }
        Msg::EpochClose { group, epoch } => {
            e.u8(T_EPOCH_CLOSE);
            e.u32(*group);
            e.u64(*epoch);
        }
    }
    let natural = e.buf.len() - FRAME_HEADER;
    debug_assert!(
        natural <= body_len,
        "natural encoding {natural} exceeds modeled size {body_len}"
    );
    if natural > body_len {
        return Err(FrameError::Unencodable("model smaller than encoding"));
    }
    e.buf.resize(FRAME_HEADER + body_len, 0);
    Ok(Bytes::from(e.buf))
}

// ---------------------------------------------------------------- decode

struct Dec<'a> {
    frame: &'a Bytes,
    pos: usize,
}

impl<'a> Dec<'a> {
    fn remaining(&self) -> usize {
        self.frame.len() - self.pos
    }
    fn u8(&mut self) -> Result<u8, FrameError> {
        if self.remaining() < 1 {
            return Err(FrameError::Truncated);
        }
        let v = self.frame[self.pos];
        self.pos += 1;
        Ok(v)
    }
    fn u16(&mut self) -> Result<u16, FrameError> {
        Ok(u16::from_le_bytes(
            self.take(2)?.try_into().expect("len checked"),
        ))
    }
    fn u32(&mut self) -> Result<u32, FrameError> {
        Ok(u32::from_le_bytes(
            self.take(4)?.try_into().expect("len checked"),
        ))
    }
    fn u64(&mut self) -> Result<u64, FrameError> {
        Ok(u64::from_le_bytes(
            self.take(8)?.try_into().expect("len checked"),
        ))
    }
    fn take(&mut self, n: usize) -> Result<&'a [u8], FrameError> {
        if self.remaining() < n {
            return Err(FrameError::Truncated);
        }
        let s = &self.frame.as_slice()[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }
    fn digest(&mut self) -> Result<Digest, FrameError> {
        Ok(Digest(self.take(32)?.try_into().expect("len checked")))
    }
    fn node_id(&mut self) -> Result<NodeId, FrameError> {
        let group = self.u32()?;
        let node = self.u32()?;
        Ok(NodeId { group, node })
    }
    fn entry_id(&mut self) -> Result<EntryId, FrameError> {
        let gid = self.u32()?;
        let seq = self.u64()?;
        Ok(EntryId::new(gid, seq))
    }
    fn sig(&mut self) -> Result<Signature, FrameError> {
        let signer = self.node_id()?;
        let tag: [u8; 32] = self.take(32)?.try_into().expect("len checked");
        Ok(Signature { signer, tag })
    }
    fn cert(&mut self) -> Result<QuorumCert, FrameError> {
        let digest = self.digest()?;
        let group = self.u32()?;
        let count = self.u32()? as usize;
        // Each signature needs 40 natural bytes; reject counts that
        // cannot fit before allocating.
        if count > self.remaining() / 40 {
            return Err(FrameError::BadCount);
        }
        let mut signatures = Vec::with_capacity(count);
        for _ in 0..count {
            signatures.push(self.sig()?);
        }
        Ok(QuorumCert {
            digest,
            group,
            signatures,
        })
    }
    /// A length-prefixed payload as a zero-copy window into the frame.
    fn bytes(&mut self) -> Result<Bytes, FrameError> {
        let len = self.u32()? as usize;
        if len > self.remaining() {
            return Err(FrameError::Truncated);
        }
        let b = self.frame.slice(self.pos..self.pos + len);
        self.pos += len;
        Ok(b)
    }
    fn global_cmd(&mut self) -> Result<GlobalCmd, FrameError> {
        let entry = match self.u8()? {
            0 => None,
            1 => {
                let id = self.entry_id()?;
                let d = self.digest()?;
                Some((id, d))
            }
            t => return Err(FrameError::BadTag(t)),
        };
        let count = self.u32()? as usize;
        if count > self.remaining() / 20 {
            return Err(FrameError::BadCount);
        }
        let mut stamps = Vec::with_capacity(count);
        for _ in 0..count {
            let id = self.entry_id()?;
            let ts = self.u64()?;
            stamps.push((id, ts));
        }
        Ok(GlobalCmd { entry, stamps })
    }
}

/// Decodes one frame body (everything after the length prefix). Payload
/// fields are zero-copy slices of `body`. Trailing padding is ignored.
pub fn decode_msg(body: &Bytes) -> Result<Msg, FrameError> {
    let mut d = Dec {
        frame: body,
        pos: 0,
    };
    let tag = d.u8()?;
    Ok(match tag {
        T_PREPREPARE => {
            let view = d.u64()?;
            let seq = d.u64()?;
            let digest = d.digest()?;
            let payload = d.bytes()?;
            Msg::Pbft(PbftMsg::PrePrepare {
                view,
                seq,
                payload,
                digest,
            })
        }
        T_PREPARE | T_COMMIT => {
            let view = d.u64()?;
            let seq = d.u64()?;
            let digest = d.digest()?;
            let sig = d.sig()?;
            Msg::Pbft(if tag == T_PREPARE {
                PbftMsg::Prepare {
                    view,
                    seq,
                    digest,
                    sig,
                }
            } else {
                PbftMsg::Commit {
                    view,
                    seq,
                    digest,
                    sig,
                }
            })
        }
        T_VIEWCHANGE => {
            let new_view = d.u64()?;
            let last_exec = d.u64()?;
            let sig = d.sig()?;
            let count = d.u32()? as usize;
            if count > d.remaining() / 44 {
                return Err(FrameError::BadCount);
            }
            let mut prepared = Vec::with_capacity(count);
            for _ in 0..count {
                let seq = d.u64()?;
                let digest = d.digest()?;
                let payload = d.bytes()?;
                prepared.push((seq, digest, payload));
            }
            Msg::Pbft(PbftMsg::ViewChange {
                new_view,
                last_exec,
                prepared,
                sig,
            })
        }
        T_NEWVIEW => {
            let view = d.u64()?;
            let count = d.u32()? as usize;
            if count > d.remaining() / 12 {
                return Err(FrameError::BadCount);
            }
            let mut reproposals = Vec::with_capacity(count);
            for _ in 0..count {
                let seq = d.u64()?;
                let payload = d.bytes()?;
                reproposals.push((seq, payload));
            }
            Msg::Pbft(PbftMsg::NewView { view, reproposals })
        }
        T_HEARTBEAT => Msg::Pbft(PbftMsg::Heartbeat { view: d.u64()? }),
        T_CHUNK => {
            let entry = d.entry_id()?;
            let chunk_id = d.u32()?;
            let root = d.digest()?;
            let leaf_index = d.u32()? as usize;
            let leaf_count = d.u32()? as usize;
            let steps = d.u16()? as usize;
            if steps > d.remaining() / 33 {
                return Err(FrameError::BadCount);
            }
            let mut path = Vec::with_capacity(steps);
            for _ in 0..steps {
                let sibling = d.digest()?;
                let sibling_on_left = d.u8()? != 0;
                path.push(ProofStep {
                    sibling,
                    sibling_on_left,
                });
            }
            let cert = d.cert()?;
            let data = d.bytes()?;
            Msg::Chunk {
                chunk: ChunkMsg {
                    entry,
                    chunk_id,
                    data,
                    root,
                    proof: MerkleProof {
                        leaf_index,
                        leaf_count,
                        path,
                    },
                },
                cert,
            }
        }
        T_ENTRY => {
            let id = d.entry_id()?;
            let cert = d.cert()?;
            let bytes = d.bytes()?;
            Msg::Entry { id, bytes, cert }
        }
        T_RAFT => {
            let instance = d.u32()?;
            let cert_bytes = d.u32()? as usize;
            let rmsg = match d.u8()? {
                R_REQUEST_VOTE => RaftMsg::RequestVote {
                    term: d.u64()?,
                    last_log_index: d.u64()?,
                    last_log_term: d.u64()?,
                },
                R_VOTE => RaftMsg::Vote {
                    term: d.u64()?,
                    granted: d.u8()? != 0,
                },
                R_APPEND => {
                    let term = d.u64()?;
                    let prev_index = d.u64()?;
                    let prev_term = d.u64()?;
                    let leader_commit = d.u64()?;
                    let count = d.u32()? as usize;
                    if count > d.remaining() / 13 {
                        return Err(FrameError::BadCount);
                    }
                    let mut entries = Vec::with_capacity(count);
                    for _ in 0..count {
                        let term = d.u64()?;
                        let data = d.global_cmd()?;
                        entries.push(LogEntry { term, data });
                    }
                    RaftMsg::AppendEntries {
                        term,
                        prev_index,
                        prev_term,
                        entries,
                        leader_commit,
                    }
                }
                R_APPEND_RESP => RaftMsg::AppendResp {
                    term: d.u64()?,
                    success: d.u8()? != 0,
                    match_index: d.u64()?,
                },
                t => return Err(FrameError::BadTag(t)),
            };
            Msg::Raft {
                instance,
                rmsg,
                cert_bytes,
            }
        }
        T_FEED => {
            let count = d.u32()? as usize;
            if count > d.remaining() / 24 {
                return Err(FrameError::BadCount);
            }
            let mut events = Vec::with_capacity(count);
            for _ in 0..count {
                let word0 = d.u32()?;
                let id = d.entry_id()?;
                let ts = d.u64()?;
                if word0 & (1 << 31) != 0 {
                    events.push(FeedEvent::Committed(id));
                } else {
                    events.push(FeedEvent::Stamp {
                        stamper: word0,
                        target: id,
                        ts,
                    });
                }
            }
            Msg::Feed { events }
        }
        T_ENTRY_REQUEST => Msg::EntryRequest { id: d.entry_id()? },
        T_ACCEPT_NOTICE => {
            let from_group = d.u32()?;
            let count = d.u32()? as usize;
            if count > d.remaining() / 12 {
                return Err(FrameError::BadCount);
            }
            let mut entries = Vec::with_capacity(count);
            for _ in 0..count {
                entries.push(d.entry_id()?);
            }
            Msg::AcceptNotice {
                from_group,
                entries,
            }
        }
        T_EPOCH_CLOSE => Msg::EpochClose {
            group: d.u32()?,
            epoch: d.u64()?,
        },
        t => return Err(FrameError::BadTag(t)),
    })
}

// ------------------------------------------------------------ reassembly

/// Initial size of a [`FrameBuffer`]'s backing store, and the least it
/// grows by.
const READ_CHUNK: usize = 64 << 10;
/// The least spare room [`FrameBuffer::fill_from`] offers a read.
const MIN_READ: usize = 16 << 10;

/// Incremental frame reassembly over arbitrary read boundaries: bytes go
/// in via [`FrameBuffer::push`] (or [`FrameBuffer::fill_from`] straight
/// off a socket), complete frame bodies come out of
/// [`FrameBuffer::next_frame`]. Partial frames stay buffered; multiple
/// frames arriving in one read drain one `next_frame` call at a time.
///
/// The backing store is initialised once, when it grows, and reused:
/// `buf[start..end]` holds the unread bytes and `buf[end..]` is spare
/// room a read lands in directly, so a read of a few hundred bytes
/// touches a few hundred bytes.
#[derive(Default)]
pub struct FrameBuffer {
    buf: Vec<u8>,
    start: usize,
    end: usize,
}

impl FrameBuffer {
    /// An empty buffer.
    pub fn new() -> Self {
        FrameBuffer::default()
    }

    /// Appends raw bytes received from the transport.
    pub fn push(&mut self, chunk: &[u8]) {
        self.make_room(chunk.len());
        self.buf[self.end..self.end + chunk.len()].copy_from_slice(chunk);
        self.end += chunk.len();
    }

    /// Reads once from `r` into the spare room (at most `max` bytes).
    /// Returns the number of bytes read (0 = EOF).
    pub fn fill_from<R: std::io::Read>(&mut self, r: &mut R, max: usize) -> std::io::Result<usize> {
        // Offer all the spare room there is; insist on enough for the
        // rest of the frame being reassembled, once its header says how
        // much that is (`next_frame` rejects an absurd header first).
        let missing = self.head_len().map_or(0, |len| {
            len.saturating_add(FRAME_HEADER)
                .saturating_sub(self.pending())
        });
        let room = self.make_room(missing.max(MIN_READ).min(max));
        let n = r.read(&mut self.buf[self.end..self.end + room.min(max)])?;
        self.end += n;
        Ok(n)
    }

    /// The body length the frame at the head announces, once its
    /// header is complete.
    fn head_len(&self) -> Option<usize> {
        if self.pending() < FRAME_HEADER {
            return None;
        }
        let header = &self.buf[self.start..self.start + FRAME_HEADER];
        Some(u32::from_le_bytes(header.try_into().expect("len checked")) as usize)
    }

    /// Guarantees at least `need` bytes of initialised room after `end`
    /// and returns how much there is. Only growth zero-fills, and only
    /// the part that is new.
    fn make_room(&mut self, need: usize) -> usize {
        self.compact();
        if self.buf.len() - self.end < need {
            self.buf.resize(self.end + need.max(READ_CHUNK), 0);
        }
        self.buf.len() - self.end
    }

    /// Slides the unread remainder (always less than one frame once
    /// `next_frame` has drained) to the front, so reads keep landing in
    /// the same warm region. Returns the bytes moved.
    fn compact(&mut self) -> usize {
        if self.start == 0 {
            return 0;
        }
        let unread = self.pending();
        self.buf.copy_within(self.start..self.end, 0);
        (self.start, self.end) = (0, unread);
        unread
    }

    /// Bytes currently buffered but not yet returned as frames.
    pub fn pending(&self) -> usize {
        self.end - self.start
    }

    /// Takes `N` raw bytes off the front, once that many are buffered:
    /// what a connection sends ahead of its first frame (the hello naming
    /// the sender), reassembled over read boundaries like any frame.
    pub fn take_prefix<const N: usize>(&mut self) -> Option<[u8; N]> {
        let prefix = self.buf[self.start..self.end].first_chunk::<N>().copied()?;
        self.start += N;
        Some(prefix)
    }

    /// Extracts the next complete frame body, if one is fully buffered.
    /// The body is copied out of the reassembly buffer into its own
    /// [`Bytes`] allocation exactly once; all payload fields decoded
    /// from it are zero-copy slices of that allocation.
    pub fn next_frame(&mut self) -> Result<Option<Bytes>, FrameError> {
        let Some(len) = self.head_len() else {
            return Ok(None);
        };
        if len == 0 || len > MAX_FRAME {
            return Err(FrameError::BadLength(len));
        }
        if self.pending() < FRAME_HEADER + len {
            return Ok(None);
        }
        let body = self.start + FRAME_HEADER;
        let frame = Bytes::copy_from_slice(&self.buf[body..body + len]);
        self.start = body + len;
        Ok(Some(frame))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A stream of raw frames (`next_frame` does not decode bodies)
    /// with body lengths in `1..=max_body`, plus the bodies.
    fn raw_stream(frames: usize, max_body: usize) -> (Vec<u8>, Vec<Vec<u8>>) {
        let mut stream = Vec::new();
        let mut bodies = Vec::new();
        let mut s = 0x2545_F491_4F6C_DD1Du64;
        for i in 0..frames {
            s = s
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let len = 1 + (s >> 33) as usize % max_body;
            let body: Vec<u8> = (0..len).map(|j| (i + j) as u8).collect();
            stream.extend_from_slice(&(len as u32).to_le_bytes());
            stream.extend_from_slice(&body);
            bodies.push(body);
        }
        (stream, bodies)
    }

    /// Hands out the stream in reads of `1..=max_read` bytes.
    struct Dribble<'a> {
        data: &'a [u8],
        max_read: usize,
        seed: u64,
    }

    impl std::io::Read for Dribble<'_> {
        fn read(&mut self, out: &mut [u8]) -> std::io::Result<usize> {
            self.seed ^= self.seed << 13;
            self.seed ^= self.seed >> 7;
            self.seed ^= self.seed << 17;
            let n = (1 + self.seed as usize % self.max_read)
                .min(out.len())
                .min(self.data.len());
            out[..n].copy_from_slice(&self.data[..n]);
            self.data = &self.data[n..];
            Ok(n)
        }
    }

    const POISON: u8 = 0xAA;

    /// The regression the receive path had: a 256 KiB zero-fill before
    /// every read. 10 000 small reads must neither reallocate the
    /// backing store nor write anywhere past the bytes they deliver.
    #[test]
    fn small_reads_neither_reallocate_nor_touch_the_spare_room() {
        let (stream, bodies) = raw_stream(9_000, 400);
        let mut r = Dribble {
            data: &stream,
            max_read: 300,
            seed: 0x9E37_79B9_7F4A_7C15,
        };
        let mut fb = FrameBuffer::new();
        let mut got = 0usize;
        let mut drain = |fb: &mut FrameBuffer| {
            while let Some(body) = fb.next_frame().expect("valid stream") {
                assert_eq!(body.as_slice(), &bodies[got][..]);
                got += 1;
            }
        };
        // The first read sizes the buffer; poison all the spare room.
        assert!(fb.fill_from(&mut r, 256 << 10).expect("read") > 0);
        drain(&mut fb);
        let end = fb.end;
        fb.buf[end..].fill(POISON);
        let (ptr, len, cap) = (fb.buf.as_ptr(), fb.buf.len(), fb.buf.capacity());
        let mut high_water = end;
        for _ in 0..10_000 {
            let before = fb.pending();
            let n = fb.fill_from(&mut r, 256 << 10).expect("read");
            assert!(
                (1..=300).contains(&n),
                "stream is long enough for every call"
            );
            assert_eq!(fb.pending(), before + n);
            high_water = high_water.max(fb.end);
            drain(&mut fb);
        }
        assert!(got > 5_000, "frames kept coming out: {got}");
        assert_eq!(
            (fb.buf.as_ptr(), fb.buf.len(), fb.buf.capacity()),
            (ptr, len, cap),
            "backing store was reallocated or resized"
        );
        // Reads always land at the front (the remainder is slid down
        // first), so almost all of the buffer was never needed…
        assert!(high_water < 4096, "reads crept up the buffer: {high_water}");
        // …and none of it was written to.
        assert!(
            fb.buf[high_water..].iter().all(|&b| b == POISON),
            "spare room past the delivered bytes was touched"
        );
    }

    #[test]
    fn compact_moves_only_the_unread_remainder() {
        let (stream, bodies) = raw_stream(4, 300);
        let mut fb = FrameBuffer::new();
        // Three whole frames and all but the last 7 bytes of a fourth.
        let cut = stream.len() - 7;
        fb.push(&stream[..cut]);
        assert_eq!(fb.compact(), 0, "nothing consumed yet, nothing to move");
        for body in &bodies[..3] {
            assert_eq!(fb.next_frame().unwrap().unwrap().as_slice(), &body[..]);
        }
        assert!(matches!(fb.next_frame(), Ok(None)));
        let remainder = fb.pending();
        assert_eq!(remainder, FRAME_HEADER + bodies[3].len() - 7);
        assert_eq!(fb.compact(), remainder);
        assert_eq!((fb.start, fb.end), (0, remainder));
        assert_eq!(fb.compact(), 0, "already at the front");
        fb.push(&stream[cut..]);
        assert_eq!(fb.next_frame().unwrap().unwrap().as_slice(), &bodies[3][..]);
        // Fully drained: the cursors reset without moving a byte.
        assert_eq!((fb.pending(), fb.compact()), (0, 0));
        assert_eq!((fb.start, fb.end), (0, 0));
    }

    /// A frame larger than the buffer grows it to fit (asking the
    /// transport for the rest of the frame, up to `max` per read), and
    /// small traffic after it reuses the grown store.
    #[test]
    fn large_frame_grows_the_buffer_once() {
        let big: Vec<u8> = (0..(1usize << 20)).map(|i| (i % 253) as u8).collect();
        let mut stream = (big.len() as u32).to_le_bytes().to_vec();
        stream.extend_from_slice(&big);
        let (small, bodies) = raw_stream(50, 200);
        stream.extend_from_slice(&small);
        let mut r = &stream[..];
        let mut fb = FrameBuffer::new();
        let mut reads = 0;
        let body = loop {
            assert!(fb.fill_from(&mut r, 256 << 10).expect("read") > 0);
            reads += 1;
            if let Some(body) = fb.next_frame().expect("valid") {
                break body;
            }
        };
        assert_eq!(body.as_slice(), &big[..]);
        assert!(reads <= 6, "asked for the rest of the frame: {reads} reads");
        let cap = fb.buf.capacity();
        let mut got = 0;
        loop {
            while let Some(body) = fb.next_frame().expect("valid") {
                assert_eq!(body.as_slice(), &bodies[got][..]);
                got += 1;
            }
            if fb.fill_from(&mut r, 256 << 10).expect("read") == 0 {
                break;
            }
        }
        assert_eq!((got, fb.pending()), (50, 0));
        assert_eq!(fb.buf.capacity(), cap);
    }
}
