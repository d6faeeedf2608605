//! Getting a certified entry's content to every other group (§IV), in both
//! directions: the preset's replication strategy behind one
//! [`Dissemination::send`], and on the receiving side chunk reassembly,
//! full-copy validation and the LAN re-share that lets every member of the
//! group hold what one member received over the WAN.
//!
//! The part validates and forwards; what held content sets off — replayed
//! appends, ordering, execution — is the node's business, so both inbound
//! paths hand the accepted [`EntryRecord`] back.

use super::{lan_peers, span, store::EntryStore, Msg, Protocol, ProtocolParams};
use crate::{
    entry::{EntryId, EntryRecord},
    plan::TransferPlan,
    replication::{ChunkAssembler, ChunkMsg, ChunkOutcome, ChunkSender},
};
use bytes::Bytes;
use massbft_crypto::{cert::max_faulty, KeyRegistry, QuorumCert};
use massbft_db::hash::FastMap;
use massbft_sim_net::{Ctx, NodeId};
use massbft_telemetry as telemetry;
use std::collections::BTreeMap;
use std::sync::Arc;

/// Outbound replication and inbound reassembly at one node.
pub(super) struct Dissemination {
    me: NodeId,
    params: Arc<ProtocolParams>,
    registry: KeyRegistry,
    /// Chunked strategies: the transfer plan towards every other group.
    outbound: BTreeMap<u32, TransferPlan>,
    /// Chunked strategies: rebuild state per origin group, each over the
    /// plan from that group to this one.
    assemblers: FastMap<u32, ChunkAssembler>,
}

impl Dissemination {
    pub(super) fn new(me: NodeId, params: Arc<ProtocolParams>, registry: KeyRegistry) -> Self {
        let sizes = &params.group_sizes;
        let mut outbound = BTreeMap::new();
        let mut assemblers = FastMap::default();
        if params.protocol.uses_chunks() {
            let plan = |from: u32, to: u32| {
                TransferPlan::generate(sizes[from as usize], sizes[to as usize])
                    .expect("valid group sizes")
            };
            for other in (0..sizes.len() as u32).filter(|&g| g != me.group) {
                outbound.insert(other, plan(me.group, other));
                let inbound = Arc::new(plan(other, me.group));
                assemblers.insert(other, ChunkAssembler::new(inbound, registry.clone()));
            }
        }
        Dissemination {
            me,
            params,
            registry,
            outbound,
            assemblers,
        }
    }

    // --- outbound -----------------------------------------------------------

    /// Ships this node's share of entry `id` to every other group.
    /// `leader` says whether this node is its group's representative — the
    /// only sender under the leader-based strategies. `payload` is what
    /// gets encoded or copied; `id` may be another group's when the
    /// Steward master relays.
    pub(super) fn send(
        &self,
        ctx: &mut Ctx<Msg>,
        id: EntryId,
        payload: &Bytes,
        cert: &QuorumCert,
        leader: bool,
    ) {
        let now = ctx.now();
        let copy = || Msg::Entry {
            id,
            bytes: payload.clone(),
            cert: cert.clone(),
        };
        let protocol = self.params.protocol;
        if protocol.single_master() && self.me.group != 0 {
            if leader {
                // Steward: forward to the master for sequencing + fan-out.
                ctx.send(self.params.leader_of(0), copy());
            }
            return;
        }
        if protocol.uses_chunks() {
            let len = payload.len() as u64;
            span(self.me, now, telemetry::EventKind::Encoded, id, len);
        }
        // Destination groups of equal size share one encoding geometry;
        // encode once per geometry and slice per transfer plan (a real
        // implementation caches exactly the same way).
        let mut encoded: BTreeMap<(usize, usize), Vec<ChunkMsg>> = BTreeMap::new();
        let mut wan_bytes: u64 = 0;
        let n1 = self.params.group_sizes[self.me.group as usize];
        for (dst, &n2) in (0u32..).zip(&self.params.group_sizes) {
            if dst == self.me.group {
                continue;
            }
            match protocol {
                // Every member ships its erasure-coded chunks of the
                // transfer plan.
                Protocol::MassBft | Protocol::EncodedBijective => {
                    let plan = &self.outbound[&dst];
                    let all = encoded
                        .entry((plan.n_data, plan.n_total))
                        .or_insert_with(|| {
                            ChunkSender::encode_all(plan, id, payload).expect("encodable entry")
                        });
                    for t in plan.outgoing_of(self.me.node) {
                        let chunk = all[t.chunk as usize].clone();
                        wan_bytes += chunk.wire_size() as u64;
                        let cert = cert.clone();
                        ctx.send(NodeId::new(dst, t.receiver), Msg::Chunk { chunk, cert });
                    }
                }
                // BR (§IV-A): `f1 + f2 + 1` members each ship a complete
                // copy to a distinct receiver.
                Protocol::BijectiveOnly => {
                    let senders = (max_faulty(n1) + max_faulty(n2) + 1).min(n1).min(n2);
                    if (self.me.node as usize) < senders {
                        wan_bytes = payload.len() as u64;
                        ctx.send(NodeId::new(dst, self.me.node), copy());
                    }
                }
                // Leader one-way replication with the GeoBFT optimization:
                // a copy to `f + 1` nodes of each remote group (§VI,
                // Competitors) — bar the origin group when the Steward
                // master relays.
                Protocol::Baseline | Protocol::GeoBft | Protocol::Iss | Protocol::Steward => {
                    if leader && dst != id.gid {
                        wan_bytes = payload.len() as u64;
                        for i in 0..=max_faulty(n2) as u32 {
                            ctx.send(NodeId::new(dst, i), copy());
                        }
                    }
                }
            }
        }
        if wan_bytes > 0 {
            let kind = telemetry::EventKind::WanTransferStart;
            span(self.me, now, kind, id, wan_bytes);
        }
    }

    // --- inbound ------------------------------------------------------------

    /// A chunk arrived, over the WAN from its origin group or re-shared by
    /// a member of this one. Returns the entry, with the certificate it
    /// validated against, when this chunk completes the rebuild. With
    /// `reshare` off a chunk received over the WAN is not passed on to the
    /// group.
    pub(super) fn on_chunk(
        &mut self,
        ctx: &mut Ctx<Msg>,
        store: &EntryStore,
        from: NodeId,
        chunk: ChunkMsg,
        cert: QuorumCert,
        reshare: bool,
    ) -> Option<(EntryRecord, QuorumCert)> {
        let id = chunk.entry;
        if id.gid == self.me.group || store.has(id) {
            return None; // own entries arrive via local PBFT; have it / executed
        }
        let outcome = (self.assemblers.get_mut(&id.gid))?.on_chunk(chunk.clone(), &cert);
        // LAN re-share so every member can rebuild (§IV-B).
        let reshare = reshare && from.group == id.gid;
        match outcome {
            ChunkOutcome::Rejected(_) => None,
            ChunkOutcome::Accepted => {
                if reshare {
                    ctx.send_many(lan_peers(self.me, &self.params), Msg::Chunk { chunk, cert });
                }
                None
            }
            ChunkOutcome::Rebuilt(rec) => {
                if reshare {
                    let cert = cert.clone();
                    ctx.send_many(lan_peers(self.me, &self.params), Msg::Chunk { chunk, cert });
                }
                let (now, len) = (ctx.now(), rec.bytes().len() as u64);
                span(self.me, now, telemetry::EventKind::WanTransferDone, id, len);
                span(self.me, now, telemetry::EventKind::ChunkRebuilt, id, len);
                Some((rec, cert))
            }
        }
    }

    /// A full copy arrived, over the WAN or forwarded by a member of this
    /// group. Returns the entry if it is new here and is what it claims to
    /// be; a copy that came over the WAN has then been forwarded to the
    /// group. The flag says the copy was relayed: this node is the Steward
    /// master, the sender another group's representative forwarding its
    /// entry, and the copy went on to the remaining groups too — the
    /// entry is the master's to sequence.
    pub(super) fn on_copy(
        &mut self,
        ctx: &mut Ctx<Msg>,
        store: &EntryStore,
        from: NodeId,
        id: EntryId,
        bytes: Bytes,
        cert: &QuorumCert,
    ) -> Option<(EntryRecord, bool)> {
        if id.gid == self.me.group || store.has(id) {
            return None; // a duplicate is dropped before it is hashed
        }
        // Not the entry it claims to be, or a tampered copy.
        let rec = EntryRecord::hash(bytes).filter(|rec| rec.id() == id)?;
        cert.validate_for(&rec.digest(), &self.registry).ok()?;
        let relay = self.params.protocol.single_master()
            && self.me == self.params.leader_of(0)
            && from == self.params.leader_of(id.gid);
        if relay {
            self.send(ctx, id, rec.bytes(), cert, true);
        } else if from.group == self.me.group {
            return Some((rec, false));
        } else {
            let (now, len) = (ctx.now(), rec.bytes().len() as u64);
            span(self.me, now, telemetry::EventKind::WanTransferDone, id, len);
        }
        let forward = Msg::Entry {
            id,
            bytes: rec.bytes().clone(),
            cert: cert.clone(),
        };
        ctx.send_many(lan_peers(self.me, &self.params), forward);
        Some((rec, relay))
    }

    /// The entry executed: drop its reassembly state.
    pub(super) fn forget(&mut self, id: EntryId) {
        if let Some(asm) = self.assemblers.get_mut(&id.gid) {
            asm.gc(id);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::entry::encode_batch;
    use massbft_sim_net::Command;

    const SIZES: [usize; 3] = [4, 7, 4];

    fn part(protocol: Protocol, me: NodeId) -> (Dissemination, KeyRegistry, Ctx<Msg>) {
        let params = ProtocolParams::new(protocol, &SIZES);
        let registry = KeyRegistry::generate(params.seed, &SIZES);
        let part = Dissemination::new(me, Arc::new(params), registry.clone());
        (part, registry, Ctx::new_driver(0, me))
    }

    /// An entry of group `id.gid` with its certificate.
    fn certified(id: EntryId, registry: &KeyRegistry) -> (Bytes, QuorumCert) {
        let bytes: Bytes = encode_batch(id, &[vec![7u8; 600]]).into();
        let n = SIZES[id.gid as usize];
        let signers = (0..massbft_crypto::cert::quorum(n) as u32)
            .map(|i| massbft_crypto::keys::NodeId::new(id.gid, i));
        let cert = QuorumCert::assemble(
            crate::entry::entry_digest(&bytes),
            id.gid,
            registry,
            signers,
        );
        (bytes, cert)
    }

    /// Destinations of the messages `ctx` collected, chunk ids where they
    /// carry a chunk.
    fn sent(ctx: &mut Ctx<Msg>) -> Vec<(NodeId, Option<u32>)> {
        let chunk_id = |m: &Msg| match m {
            Msg::Chunk { chunk, .. } => Some(chunk.chunk_id),
            _ => None,
        };
        let mut out = Vec::new();
        for cmd in ctx.take_commands() {
            match cmd {
                Command::Send { dst, msg } => out.push((dst, chunk_id(&msg))),
                Command::SendMany { dsts, msg } => {
                    out.extend(dsts.into_iter().map(|dst| (dst, chunk_id(&msg))));
                }
                other => panic!("unexpected {other:?}"),
            }
        }
        out
    }

    /// What node `me` ships for an entry of its own group under `protocol`.
    fn fan_out(protocol: Protocol, me: NodeId, leader: bool) -> Vec<(NodeId, Option<u32>)> {
        let (part, registry, mut ctx) = part(protocol, me);
        let id = EntryId::new(me.group, 1);
        let (bytes, cert) = certified(id, &registry);
        part.send(&mut ctx, id, &bytes, &cert, leader);
        sent(&mut ctx)
    }

    #[test]
    fn chunks_follow_the_transfer_plan_towards_every_other_group() {
        let me = NodeId::new(0, 2);
        let mut expected = Vec::new();
        for (dst, n2) in [(1u32, 7), (2, 4)] {
            let plan = TransferPlan::generate(4, n2).expect("plan");
            let shares = plan.outgoing_of(me.node);
            expected.extend(shares.map(|t| (NodeId::new(dst, t.receiver), Some(t.chunk))));
        }
        assert_eq!(expected.len(), 28 / 4 + 4 / 4);
        // Whether or not the node is the representative.
        assert_eq!(fan_out(Protocol::MassBft, me, false), expected);
        assert_eq!(fan_out(Protocol::EncodedBijective, me, true), expected);
    }

    #[test]
    fn bijective_copies_come_from_the_first_f1_plus_f2_plus_1_members() {
        // 4 → 7 needs 1 + 2 + 1 senders, 4 → 4 needs 1 + 1 + 1; sender i
        // ships to receiver i.
        let to = |me: NodeId, groups: &[u32]| -> Vec<(NodeId, Option<u32>)> {
            (groups.iter().map(|&g| (NodeId::new(g, me.node), None))).collect()
        };
        for node in 0..3 {
            let me = NodeId::new(0, node);
            assert_eq!(
                fan_out(Protocol::BijectiveOnly, me, node == 0),
                to(me, &[1, 2])
            );
        }
        let last = NodeId::new(0, 3);
        assert_eq!(
            fan_out(Protocol::BijectiveOnly, last, false),
            to(last, &[1])
        );
    }

    #[test]
    fn leader_copies_go_to_f_plus_1_nodes_per_group_and_skip_the_origin() {
        let leader = NodeId::new(0, 0);
        let copies = |groups: &[(u32, u32)]| -> Vec<(NodeId, Option<u32>)> {
            let nodes = |&(g, k)| (0..k).map(move |i| (NodeId::new(g, i), None));
            groups.iter().flat_map(nodes).collect()
        };
        // f + 1 = 3 of the 7-node group, 2 of the 4-node group.
        for protocol in [
            Protocol::Baseline,
            Protocol::GeoBft,
            Protocol::Iss,
            Protocol::Steward,
        ] {
            assert_eq!(fan_out(protocol, leader, true), copies(&[(1, 3), (2, 2)]));
            assert_eq!(fan_out(protocol, NodeId::new(0, 1), false), []);
        }
        // A Steward group other than the master's forwards to the master…
        let forwarder = NodeId::new(2, 0);
        assert_eq!(
            fan_out(Protocol::Steward, forwarder, true),
            copies(&[(0, 1)])
        );
        // …which validates, relays to the remaining groups (not back to the
        // origin) and to its own members.
        let (mut master, registry, mut ctx) = part(Protocol::Steward, leader);
        let id = EntryId::new(2, 1);
        let (bytes, cert) = certified(id, &registry);
        let store = EntryStore::new(SIZES.len(), true);
        let (rec, relayed) =
            (master.on_copy(&mut ctx, &store, forwarder, id, bytes, &cert)).expect("accepted");
        assert!(relayed && rec.id() == id);
        let mut relayed = copies(&[(1, 3)]);
        relayed.extend((1..4).map(|i| (NodeId::new(0, i), None)));
        assert_eq!(sent(&mut ctx), relayed);
    }

    #[test]
    fn a_copy_is_accepted_once_and_only_if_it_is_what_it_claims_to_be() {
        let me = NodeId::new(0, 1);
        let (mut part, registry, mut ctx) = part(Protocol::Baseline, me);
        let mut store = EntryStore::new(SIZES.len(), false);
        let id = EntryId::new(1, 4);
        let (bytes, cert) = certified(id, &registry);
        let wan = NodeId::new(1, 0);
        // The header names another entry; the certificate signs another.
        let (other_bytes, other_cert) = certified(EntryId::new(1, 5), &registry);
        for (b, c) in [(other_bytes, &cert), (bytes.clone(), &other_cert)] {
            assert!(part.on_copy(&mut ctx, &store, wan, id, b, c).is_none());
        }
        // An entry of this group never arrives this way.
        let own = EntryId::new(0, 1);
        let (own_bytes, own_cert) = certified(own, &registry);
        assert!(part
            .on_copy(&mut ctx, &store, wan, own, own_bytes, &own_cert)
            .is_none());
        assert!(sent(&mut ctx).is_empty());
        // The real one, over the WAN: accepted and forwarded to the group.
        let rec = part.on_copy(&mut ctx, &store, wan, id, bytes.clone(), &cert);
        let peers: Vec<_> = [0, 2, 3]
            .iter()
            .map(|&i| (NodeId::new(0, i), None))
            .collect();
        assert_eq!(sent(&mut ctx), peers);
        // Forwarded by a member: accepted, not forwarded again.
        let lan = NodeId::new(0, 0);
        assert!(part
            .on_copy(&mut ctx, &store, lan, id, bytes.clone(), &cert)
            .is_some());
        assert!(sent(&mut ctx).is_empty());
        // Once held, a duplicate is dropped unread — even a bogus one.
        store.hold(rec.expect("accepted").0, None);
        let junk = Bytes::from(vec![0u8; 3]);
        for b in [bytes, junk] {
            assert!(part.on_copy(&mut ctx, &store, wan, id, b, &cert).is_none());
        }
        assert!(sent(&mut ctx).is_empty());
    }

    #[test]
    fn reshare_off_keeps_a_wan_chunk_to_itself_and_still_rebuilds() {
        let me = NodeId::new(0, 1);
        let id = EntryId::new(2, 9);
        let store = EntryStore::new(SIZES.len(), false);
        let run = |reshare: bool| {
            let (mut part, registry, mut ctx) = part(Protocol::MassBft, me);
            let (bytes, cert) = certified(id, &registry);
            let plan = TransferPlan::generate(4, 4).expect("plan");
            let chunks = ChunkSender::encode_all(&plan, id, &bytes).expect("encode");
            let mut reshared = 0;
            for chunk in chunks {
                // Sender i of the origin group ships chunk i over the WAN.
                let from = NodeId::new(2, chunk.chunk_id);
                let rebuilt = part.on_chunk(&mut ctx, &store, from, chunk, cert.clone(), reshare);
                reshared += sent(&mut ctx).len();
                if let Some((rec, _)) = rebuilt {
                    assert_eq!(*rec.bytes(), bytes);
                    return (reshared, true);
                }
            }
            (reshared, false)
        };
        // n_data = 2 chunks rebuild; each was re-shared to the 3 peers.
        assert_eq!(run(true), (2 * 3, true));
        assert_eq!(run(false), (0, true));
        // A chunk re-shared by a member is never re-shared again.
        let (mut part, registry, mut ctx) = part(Protocol::MassBft, me);
        let (bytes, cert) = certified(id, &registry);
        let plan = TransferPlan::generate(4, 4).expect("plan");
        let chunk = ChunkSender::encode_all(&plan, id, &bytes)
            .expect("encode")
            .remove(0);
        assert!(part
            .on_chunk(&mut ctx, &store, NodeId::new(0, 3), chunk, cert, true)
            .is_none());
        assert!(sent(&mut ctx).is_empty());
        // Execution drops the reassembly state.
        assert_eq!(part.assemblers[&2].pending_entries(), 1);
        part.forget(id);
        assert_eq!(part.assemblers[&2].pending_entries(), 0);
    }
}
