//! Frame codec properties:
//!
//! 1. **Wire-model agreement** (one assertion per `Msg` variant): the
//!    encoded body length equals `massbft_core::wire::msg_wire_size`,
//!    so wall-clock byte counters and the simulator's byte accounting
//!    measure the same thing.
//! 2. **Robust reassembly**: frames split across arbitrary read
//!    boundaries, coalesced into single reads, truncated mid-frame, or
//!    replaced with garbage never panic and never mis-frame.
//!
//! `Msg` doesn't implement `PartialEq`, so roundtrips are compared by
//! re-encoding the decoded message and asserting byte equality — the
//! encoder is deterministic, so equal bytes imply equal messages.

use bytes::Bytes;
use massbft_consensus::{pbft::PbftMsg, raft::LogEntry, RaftMsg};
use massbft_core::protocol::{FeedEvent, GlobalCmd, Msg};
use massbft_core::replication::ChunkMsg;
use massbft_core::{wire, EntryId};
use massbft_crypto::keys::NodeId;
use massbft_crypto::merkle::ProofStep;
use massbft_crypto::{Digest, MerkleProof, QuorumCert, Signature};
use massbft_runtime::frame::{
    decode_msg, encode_frame, FrameBuffer, FrameError, FRAME_HEADER, MAX_FRAME,
};
use proptest::prelude::*;

fn digest(b: u8) -> Digest {
    Digest([b; 32])
}

fn sig(g: u32, n: u32, b: u8) -> Signature {
    Signature {
        signer: NodeId::new(g, n),
        tag: [b; 32],
    }
}

fn cert(n_sigs: usize) -> QuorumCert {
    QuorumCert {
        digest: digest(7),
        group: 1,
        signatures: (0..n_sigs).map(|i| sig(1, i as u32, i as u8)).collect(),
    }
}

fn payload(len: usize) -> Bytes {
    Bytes::from((0..len).map(|i| (i % 251) as u8).collect::<Vec<u8>>())
}

/// One instance of every `Msg` variant (and every Raft sub-variant),
/// with non-trivial field values.
fn sample_msgs() -> Vec<Msg> {
    vec![
        Msg::Pbft(PbftMsg::PrePrepare {
            view: 3,
            seq: 42,
            payload: payload(97),
            digest: digest(1),
        }),
        Msg::Pbft(PbftMsg::Prepare {
            view: 3,
            seq: 42,
            digest: digest(2),
            sig: sig(0, 2, 9),
        }),
        Msg::Pbft(PbftMsg::Commit {
            view: 3,
            seq: 42,
            digest: digest(3),
            sig: sig(0, 3, 8),
        }),
        Msg::Pbft(PbftMsg::ViewChange {
            new_view: 4,
            last_exec: 40,
            prepared: vec![(41, digest(4), payload(30)), (42, digest(5), payload(0))],
            sig: sig(0, 1, 7),
        }),
        Msg::Pbft(PbftMsg::NewView {
            view: 4,
            reproposals: vec![(41, payload(30)), (42, payload(5))],
        }),
        Msg::Pbft(PbftMsg::Heartbeat { view: 4 }),
        Msg::Chunk {
            chunk: ChunkMsg {
                entry: EntryId::new(2, 17),
                chunk_id: 3,
                data: payload(200),
                root: digest(6),
                proof: MerkleProof {
                    leaf_index: 3,
                    leaf_count: 8,
                    path: vec![
                        ProofStep {
                            sibling: digest(10),
                            sibling_on_left: true,
                        },
                        ProofStep {
                            sibling: digest(11),
                            sibling_on_left: false,
                        },
                    ],
                },
            },
            cert: cert(3),
        },
        Msg::Entry {
            id: EntryId::new(1, 9),
            bytes: payload(150),
            cert: cert(3),
        },
        Msg::Raft {
            instance: 2,
            rmsg: RaftMsg::RequestVote {
                term: 5,
                last_log_index: 30,
                last_log_term: 4,
            },
            cert_bytes: 0,
        },
        Msg::Raft {
            instance: 2,
            rmsg: RaftMsg::Vote {
                term: 5,
                granted: true,
            },
            cert_bytes: 0,
        },
        Msg::Raft {
            instance: 2,
            rmsg: RaftMsg::AppendEntries {
                term: 5,
                prev_index: 30,
                prev_term: 4,
                entries: vec![
                    LogEntry {
                        term: 5,
                        data: GlobalCmd {
                            entry: Some((EntryId::new(2, 31), digest(12))),
                            stamps: vec![(EntryId::new(0, 7), 11), (EntryId::new(1, 8), 12)],
                        },
                    },
                    LogEntry {
                        term: 5,
                        data: GlobalCmd {
                            entry: None,
                            stamps: vec![(EntryId::new(2, 9), 13)],
                        },
                    },
                ],
                leader_commit: 29,
            },
            cert_bytes: 224,
        },
        Msg::Raft {
            instance: 2,
            rmsg: RaftMsg::AppendResp {
                term: 5,
                success: false,
                match_index: 28,
            },
            cert_bytes: 0,
        },
        Msg::Feed {
            events: vec![
                FeedEvent::Committed(EntryId::new(1, 5)),
                FeedEvent::Stamp {
                    stamper: 2,
                    target: EntryId::new(0, 6),
                    ts: 99,
                },
            ],
        },
        Msg::EntryRequest {
            id: EntryId::new(2, 44),
        },
        Msg::AcceptNotice {
            from_group: 1,
            entries: vec![EntryId::new(0, 1), EntryId::new(0, 2)],
        },
        Msg::EpochClose { group: 2, epoch: 6 },
    ]
}

/// The frame body is byte-for-byte as large as the wire model says —
/// per variant, no drift allowed in either direction — and everything
/// past the natural encoding is zero: nothing rides in the pad. The
/// natural encoding ends where the decoder stops needing bytes.
#[test]
fn encoded_body_matches_wire_model_and_pad_is_zero_per_variant() {
    for (i, msg) in sample_msgs().iter().enumerate() {
        let frame = encode_frame(msg).expect("sample must encode");
        let body = frame.slice(FRAME_HEADER..);
        assert_eq!(
            body.len(),
            wire::msg_wire_size(msg),
            "variant #{i} body size disagrees with wire model"
        );
        let natural = (1..=body.len())
            .find(|&n| decode_msg(&body.slice(..n)).is_ok())
            .expect("the whole body decodes");
        assert!(
            body[natural..].iter().all(|&b| b == 0),
            "variant #{i} pad is not all zero"
        );
    }
}

#[test]
fn roundtrip_reencodes_identically() {
    for (i, msg) in sample_msgs().iter().enumerate() {
        let frame = encode_frame(msg).expect("sample must encode");
        let decoded = decode_msg(&frame.slice(FRAME_HEADER..)).expect("decodes");
        let again = encode_frame(&decoded).expect("re-encodes");
        assert_eq!(
            frame.as_slice(),
            again.as_slice(),
            "variant #{i} not stable under decode∘encode"
        );
    }
}

/// Raft sub-tag 4 was the leadership-transfer request, which nothing
/// sent: a frame carrying it is malformed now, like any unknown sub-tag.
#[test]
fn retired_raft_sub_tag_is_rejected() {
    let vote = Msg::Raft {
        instance: 2,
        rmsg: RaftMsg::Vote {
            term: 5,
            granted: true,
        },
        cert_bytes: 0,
    };
    let frame = encode_frame(&vote).expect("encodes");
    // Body: tag, instance (4), cert_bytes (4), then the Raft sub-tag.
    let sub_tag = FRAME_HEADER + 9;
    assert_eq!(frame[sub_tag], 1, "R_VOTE");
    let mut raw = frame.to_vec();
    raw[sub_tag] = 4;
    let body = Bytes::from(raw).slice(FRAME_HEADER..);
    assert!(matches!(decode_msg(&body), Err(FrameError::BadTag(4))));
}

#[test]
fn oversized_and_zero_length_prefixes_rejected() {
    let mut fb = FrameBuffer::new();
    let mut raw = ((MAX_FRAME + 1) as u32).to_le_bytes().to_vec();
    raw.extend_from_slice(&[0u8; 16]);
    fb.push(&raw);
    assert!(matches!(fb.next_frame(), Err(FrameError::BadLength(_))));

    let mut fb = FrameBuffer::new();
    fb.push(&0u32.to_le_bytes());
    assert!(matches!(fb.next_frame(), Err(FrameError::BadLength(0))));
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Frames split at arbitrary read boundaries (including boundaries
    /// inside the length prefix) and frames coalesced many-per-read all
    /// reassemble to exactly the original sequence.
    #[test]
    fn split_and_coalesced_streams_reframe_exactly(
        seed in any::<u64>(),
        n_msgs in 1usize..8,
        chunk in 1usize..300,
    ) {
        let samples = sample_msgs();
        let mut stream: Vec<u8> = Vec::new();
        let mut frames: Vec<Bytes> = Vec::new();
        let mut s = seed;
        for _ in 0..n_msgs {
            s = s.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            let m = &samples[(s >> 33) as usize % samples.len()];
            let f = encode_frame(m).expect("sample must encode");
            stream.extend_from_slice(&f);
            frames.push(f);
        }
        let mut fb = FrameBuffer::new();
        let mut got: Vec<Bytes> = Vec::new();
        for c in stream.chunks(chunk) {
            fb.push(c);
            while let Some(body) = fb.next_frame().expect("valid stream") {
                got.push(body);
            }
        }
        prop_assert_eq!(got.len(), frames.len());
        for (body, f) in got.iter().zip(&frames) {
            let m = decode_msg(body).expect("valid body");
            let re = encode_frame(&m).expect("re-encodes");
            prop_assert_eq!(re.as_slice(), f.as_slice());
        }
        prop_assert_eq!(fb.pending(), 0);
    }

    /// A frame cut mid-stream yields `Ok(None)` (wait for more bytes),
    /// and delivering the remainder completes it losslessly.
    #[test]
    fn mid_frame_truncation_resumes_cleanly(
        idx in 0usize..17,
        cut in 1usize..4096,
    ) {
        let samples = sample_msgs();
        let msg = &samples[idx % samples.len()];
        let f = encode_frame(msg).expect("sample must encode");
        let cut = cut.min(f.len() - 1);
        let mut fb = FrameBuffer::new();
        fb.push(&f[..cut]);
        prop_assert!(matches!(fb.next_frame(), Ok(None)));
        fb.push(&f[cut..]);
        let body = fb.next_frame().expect("valid").expect("complete now");
        let re = encode_frame(&decode_msg(&body).expect("decodes")).expect("re-encodes");
        prop_assert_eq!(re.as_slice(), f.as_slice());
        prop_assert!(matches!(fb.next_frame(), Ok(None)));
    }

    /// Arbitrary garbage never panics the reassembler or the decoder —
    /// it either waits for more bytes, produces an error, or decodes by
    /// luck; all are acceptable, crashing is not.
    #[test]
    fn garbage_never_panics(data in prop::collection::vec(any::<u8>(), 0..512)) {
        let mut fb = FrameBuffer::new();
        fb.push(&data);
        loop {
            match fb.next_frame() {
                Ok(Some(body)) => { let _ = decode_msg(&body); }
                Ok(None) => break,
                Err(_) => break,
            }
        }
        let _ = decode_msg(&Bytes::from(data.clone()));
    }

    /// Flipping bytes inside a valid frame body must never panic the
    /// decoder (counts and lengths are attacker-controlled).
    #[test]
    fn corrupted_bodies_never_panic(
        idx in 0usize..17,
        pos in 0usize..4096,
        xor in 1u8..255,
    ) {
        let samples = sample_msgs();
        let f = encode_frame(&samples[idx % samples.len()]).expect("encodes");
        let mut body = f[FRAME_HEADER..].to_vec();
        let pos = pos % body.len();
        body[pos] ^= xor;
        let _ = decode_msg(&Bytes::from(body));
    }
}
