//! Local consensus: the group's PBFT replica, the stall detector that
//! drives its view changes, and — on a representative — the client batcher
//! that feeds it.
//!
//! The part turns PBFT's `Send`/`Broadcast` outputs into messages and
//! hands `Committed`/`EnteredView` back to the node, which owns what a
//! certified entry sets off in the other parts.

use super::{lan_peers, other_reps, span, Msg, Protocol, ProtocolParams, T_BATCH, T_EPOCH};
use crate::entry::{decode_batch, encode_batch, peek_entry_id, EntryId, EntryRecord};
use bytes::Bytes;
use massbft_consensus::pbft::{PbftConfig, PbftMsg, PbftOutput, PbftReplica};
use massbft_crypto::{Digest, KeyRegistry};
use massbft_db::hash::FastMap;
use massbft_sim_net::{Ctx, NodeId, Time, MILLISECOND};
use massbft_telemetry as telemetry;
use massbft_workloads::WorkloadGen;
use std::collections::{BTreeMap, BTreeSet, VecDeque};
use std::sync::Arc;

/// Batch timeout (paper: fixed 20 ms for all competitors).
pub(super) const BATCH_TIMEOUT_US: Time = 20 * MILLISECOND;
/// Base PBFT progress timeout: a backup that sees no progress for this
/// long votes to change the view. It must comfortably exceed a loaded LAN
/// PBFT round.
pub(super) const VIEW_TIMEOUT_US: Time = 500 * MILLISECOND;
/// Cap of the exponential view-timeout backoff: 4x, so repeated view
/// changes across overlapping failures still converge.
const VIEW_TIMEOUT_MAX_US: Time = 2000 * MILLISECOND;
/// PBFT checkpoint interval, instances.
const CHECKPOINT_INTERVAL: u64 = 64;
/// Pending-pool cap, in maximum-size batches; arrivals beyond it are shed.
const POOL_BATCHES: usize = 4;
/// Per-transaction signature verification CPU, virtual microseconds.
const SIG_VERIFY_US: Time = 50;

/// The client side of a representative: open-loop arrivals, the pending
/// pool, the pipeline window and (ISS) the epoch barrier.
struct Batcher {
    workload: WorkloadGen,
    /// Client requests waiting to be batched (open-loop arrivals).
    pending: VecDeque<Vec<u8>>,
    /// Fractional arrivals carry-over.
    arrival_carry: f64,
    last_arrival_at: Time,
    next_seq: u64,
    /// Entries proposed but not yet executed locally (pipeline window).
    in_flight: BTreeSet<EntryId>,
    /// ISS: current epoch and the set of groups that sealed each epoch.
    epoch: u64,
    epoch_seals: BTreeMap<u64, BTreeSet<u32>>,
}

/// PBFT, its view-change driver and the client batcher at one node.
pub(super) struct LocalConsensus {
    me: NodeId,
    params: Arc<ProtocolParams>,
    pbft: PbftReplica,
    /// Last instant local PBFT demonstrably made progress (commit, view
    /// entry, or an idle heartbeat from the current primary). Drives the
    /// view-change stall detector.
    last_progress: Time,
    /// Current (backed-off) view timeout; doubles on every stall up to
    /// `VIEW_TIMEOUT_MAX_US`, resets on entering a view.
    view_timeout_cur: Time,
    /// Highest own-group PBFT entry seq this node has seen proposed or
    /// certified. An acting representative (post view change) continues
    /// the sequence from here instead of colliding with the old primary.
    own_seq_high: u64,
    /// PBFT sequence → entry id, learned from pre-prepare payload headers.
    /// Only populated while telemetry spans are enabled (prepare/commit
    /// messages carry digests, not payloads, so attributing PBFT phase
    /// events to entries needs this map); GC'd on local commit.
    entry_of_seq: FastMap<u64, EntryId>,
    /// `Some` on a representative: the original (node 0) from the start,
    /// an acting one from the view that makes this node primary.
    batcher: Option<Batcher>,
}

impl LocalConsensus {
    pub(super) fn new(me: NodeId, params: Arc<ProtocolParams>, registry: KeyRegistry) -> Self {
        let pbft = PbftReplica::new(
            PbftConfig {
                group: me.group,
                n: params.group_sizes[me.group as usize],
                node: me.node,
                skip_prepare: false,
                checkpoint_interval: CHECKPOINT_INTERVAL,
            },
            registry,
        );
        let mut local = LocalConsensus {
            me,
            params,
            pbft,
            last_progress: 0,
            view_timeout_cur: VIEW_TIMEOUT_US,
            own_seq_high: 0,
            entry_of_seq: FastMap::default(),
            batcher: None,
        };
        if me.node == 0 {
            local.install_batcher(0, 1);
        }
        local
    }

    /// A batcher with nothing proposed yet: arrivals accrue from `now`,
    /// own entries are numbered from `next_seq`. Every representative of a
    /// group draws the same deterministic client stream (the workload seed
    /// is per group).
    fn install_batcher(&mut self, now: Time, next_seq: u64) {
        let seed = self.params.seed ^ ((self.me.group as u64) << 32);
        self.batcher = Some(Batcher {
            workload: WorkloadGen::new(self.params.workload, seed),
            pending: VecDeque::new(),
            arrival_carry: 0.0,
            last_arrival_at: now,
            next_seq,
            in_flight: BTreeSet::new(),
            epoch: 0,
            epoch_seals: BTreeMap::new(),
        });
    }

    /// Whether this node batches for its group.
    pub(super) fn is_rep(&self) -> bool {
        self.batcher.is_some()
    }

    pub(super) fn view(&self) -> u64 {
        self.pbft.view()
    }

    pub(super) fn own_seq_high(&self) -> u64 {
        self.own_seq_high
    }

    /// Pipeline-window occupancy (0 on non-representatives).
    pub(super) fn in_flight(&self) -> usize {
        self.batcher.as_ref().map_or(0, |b| b.in_flight.len())
    }

    /// Half the current view timeout: how often the stall detector looks.
    pub(super) fn view_check_period(&self) -> Time {
        self.view_timeout_cur / 2
    }

    // --- client batching ----------------------------------------------------

    /// Accrues open-loop arrivals since the last call (capped pool).
    fn accrue_arrivals(&mut self, now: Time) {
        let Some(b) = self.batcher.as_mut() else {
            return;
        };
        let dt = now.saturating_sub(b.last_arrival_at);
        b.last_arrival_at = now;
        let exact = self.params.arrival_tps * dt as f64 / 1_000_000.0 + b.arrival_carry;
        let mut n = exact as u64;
        b.arrival_carry = exact - n as f64;
        let cap = (self.params.max_batch * POOL_BATCHES) as u64;
        n = n.min(cap.saturating_sub(b.pending.len() as u64));
        for _ in 0..n {
            let req = b.workload.next_request().encode();
            b.pending.push_back(req);
        }
    }

    /// Cuts the next batch if the window, the pool and (ISS) the epoch
    /// barrier allow, and proposes it: the new entry's id with the PBFT
    /// outputs to handle.
    pub(super) fn try_batch(&mut self, now: Time) -> Option<(EntryId, Vec<PbftOutput>)> {
        self.accrue_arrivals(now);
        // Only an active primary can drive a batch through PBFT. Proposing
        // as a backup or mid-view-change would consume the entry id and
        // occupy a pipeline-window slot for a batch `Pbft::propose`
        // silently refuses to sequence — wedging the window for good.
        if !self.pbft.is_primary() || self.pbft.in_view_change() {
            return None;
        }
        let b = self.batcher.as_mut()?;
        if b.pending.is_empty() || b.in_flight.len() >= self.params.pipeline_window {
            return None;
        }
        // An acting representative (elected by view change) continues the
        // group's sequence past everything already seen on the wire.
        b.next_seq = b.next_seq.max(self.own_seq_high + 1);
        // ISS epoch barrier: cannot open a new epoch until all groups
        // sealed the previous one.
        if self.params.protocol == Protocol::Iss {
            let entry_epoch = now / self.params.epoch_us;
            if entry_epoch > b.epoch {
                let sealed = b.epoch_seals.get(&b.epoch).map_or(0, |s| s.len());
                if sealed < self.params.ng() {
                    return None; // stall at the barrier
                }
                b.epoch = entry_epoch;
            }
        }
        let take = b.pending.len().min(self.params.max_batch);
        let requests: Vec<Vec<u8>> = b.pending.drain(..take).collect();
        let id = EntryId::new(self.me.group, b.next_seq);
        b.next_seq += 1;
        b.in_flight.insert(id);
        span(
            self.me,
            now,
            telemetry::EventKind::Submitted,
            id,
            requests.len() as u64,
        );
        Some((id, self.pbft.propose(encode_batch(id, &requests))))
    }

    /// The entry left the pipeline window (executed — or, on an acting
    /// representative, committed).
    pub(super) fn release_window(&mut self, id: EntryId) {
        if let Some(b) = self.batcher.as_mut() {
            b.in_flight.remove(&id);
        }
    }

    /// ISS: `group` sealed `epoch`.
    pub(super) fn on_epoch_close(&mut self, group: u32, epoch: u64) {
        if let Some(b) = self.batcher.as_mut() {
            b.epoch_seals.entry(epoch).or_default().insert(group);
        }
    }

    /// ISS: announces the epoch that just ended to every other
    /// representative and seals it here.
    pub(super) fn on_epoch_timer(&mut self, ctx: &mut Ctx<Msg>) {
        let epoch_us = self.params.epoch_us;
        let sealed_epoch = ctx.now() / epoch_us;
        if sealed_epoch > 0 {
            let (group, epoch) = (self.me.group, sealed_epoch - 1);
            let leaders = other_reps(self.me, &self.params);
            ctx.send_many(leaders, Msg::EpochClose { group, epoch });
            self.on_epoch_close(group, epoch);
        }
        ctx.set_timer(epoch_us, T_EPOCH);
    }

    // --- PBFT ---------------------------------------------------------------

    /// What a pre-prepare, received or sent, teaches: the group's sequence
    /// high-water mark (for acting-representative continuation) and, while
    /// spans are on, which entry its PBFT sequence number carries —
    /// prepares and commits carry only digests, so attributing their phase
    /// events to an entry needs that map.
    fn learn(&mut self, msg: &PbftMsg) {
        if let PbftMsg::PrePrepare { seq, payload, .. } = msg {
            if let Some(id) = peek_entry_id(payload) {
                if telemetry::enabled() {
                    self.entry_of_seq.insert(*seq, id);
                }
                if id.gid == self.me.group {
                    self.own_seq_high = self.own_seq_high.max(id.seq);
                }
            }
        }
    }

    /// Feeds one PBFT message to the replica.
    pub(super) fn on_message(&mut self, now: Time, from: NodeId, m: PbftMsg) -> Vec<PbftOutput> {
        self.learn(&m);
        // An idle heartbeat from the current view's primary counts as
        // progress — but only while nothing is pending. A primary that
        // heartbeats while its proposals cannot commit (equivocation) must
        // still be evicted.
        if let PbftMsg::Heartbeat { view } = &m {
            if *view == self.pbft.view()
                && from.node == self.pbft.primary()
                && !self.pbft.has_pending()
            {
                self.last_progress = now;
            }
        }
        self.pbft.on_message(from.node, m)
    }

    /// Puts a `Send` or `Broadcast` output on the LAN.
    pub(super) fn transmit(&mut self, ctx: &mut Ctx<Msg>, out: PbftOutput) {
        match out {
            PbftOutput::Send { to, msg } => {
                ctx.send(NodeId::new(self.me.group, to), Msg::Pbft(msg));
            }
            PbftOutput::Broadcast(msg) => {
                self.note_outgoing(ctx.now(), &msg);
                ctx.send_many(lan_peers(self.me, &self.params), Msg::Pbft(msg));
            }
            _ => debug_assert!(false, "not a message: {out:?}"),
        }
    }

    /// Bookkeeping for a phase message this replica broadcasts: what it
    /// teaches, and the lifecycle event of the entry it belongs to.
    pub(super) fn note_outgoing(&mut self, at: Time, msg: &PbftMsg) {
        self.learn(msg);
        let (kind, seq) = match msg {
            PbftMsg::PrePrepare { seq, .. } => (telemetry::EventKind::PbftPrePrepare, seq),
            PbftMsg::Prepare { seq, .. } => (telemetry::EventKind::PbftPrepare, seq),
            PbftMsg::Commit { seq, .. } => (telemetry::EventKind::PbftCommit, seq),
            _ => return,
        };
        if !telemetry::enabled() {
            return;
        }
        if let Some(&id) = self.entry_of_seq.get(seq) {
            span(self.me, at, kind, id, *seq);
        }
    }

    /// A PBFT instance committed: progress for the stall detector, and the
    /// certified entry with its transaction count. Charges verification of
    /// every client transaction's signature — the local-consensus CPU cost
    /// the paper identifies (§VI-B).
    pub(super) fn on_committed(
        &mut self,
        ctx: &mut Ctx<Msg>,
        seq: u64,
        payload: &Bytes,
        digest: Digest,
    ) -> Option<(EntryRecord, usize)> {
        self.entry_of_seq.remove(&seq);
        self.last_progress = ctx.now();
        let (id, txns) = decode_batch(payload).map(|(id, reqs)| (id, reqs.len()))?;
        debug_assert_eq!(id.gid, self.me.group);
        self.own_seq_high = self.own_seq_high.max(id.seq);
        ctx.spend_cpu(txns as Time * SIG_VERIFY_US);
        // PBFT hashed the payload against the pre-prepare; that is the one
        // hash of a local entry at this node: proposal, ledger and archive
        // all read the record.
        let rec = EntryRecord::certified(payload.clone(), digest).expect("decoded above");
        Some((rec, txns))
    }

    /// The replica installed a new view: reset the stall detector and its
    /// backoff, and — if this node is now the primary of a group whose
    /// original representative is gone — take over client batching as the
    /// acting representative so the group keeps proposing entries: same
    /// deterministic client stream as the original, sequence continued
    /// from `own_seq_high`. `true` when that happened.
    pub(super) fn on_entered_view(&mut self, ctx: &mut Ctx<Msg>, view: u64) -> bool {
        let now = ctx.now();
        self.last_progress = now;
        self.view_timeout_cur = VIEW_TIMEOUT_US;
        let marker = EntryId::new(self.me.group, 0);
        span(
            self.me,
            now,
            telemetry::EventKind::NewViewAdopted,
            marker,
            view,
        );
        let promoted = self.pbft.is_primary() && self.batcher.is_none();
        if promoted {
            self.install_batcher(now, self.own_seq_high + 1);
            ctx.set_timer(BATCH_TIMEOUT_US, T_BATCH);
        }
        promoted
    }

    /// Primary liveness beacon: lets backups distinguish "idle group" from
    /// "dead or mute primary".
    pub(super) fn heartbeat(&self) -> Vec<PbftOutput> {
        (self.pbft.heartbeat().map(PbftOutput::Broadcast))
            .into_iter()
            .collect()
    }

    /// View-change stall detector. A backup that has seen no PBFT
    /// progress — no commit, no view entry, no idle heartbeat from the
    /// current primary — for a full (backed-off) view timeout votes to
    /// evict the primary: `Some` with the vote's outputs, to be followed by
    /// [`LocalConsensus::back_off`] once they are handled. The primary
    /// itself is exempt: it cannot vote itself out, and a lone faulty
    /// backup cannot force a view change (`f + 1` view-change votes are
    /// required to join).
    pub(super) fn on_view_timer(&mut self, now: Time) -> Option<Vec<PbftOutput>> {
        let stalled = now.saturating_sub(self.last_progress) > self.view_timeout_cur;
        if self.pbft.is_primary() || !stalled {
            return None;
        }
        let marker = EntryId::new(self.me.group, 0);
        let view = self.pbft.view();
        span(
            self.me,
            now,
            telemetry::EventKind::ViewStallDetected,
            marker,
            view,
        );
        span(
            self.me,
            now,
            telemetry::EventKind::ViewChangeStarted,
            marker,
            view,
        );
        Some(self.pbft.on_view_timeout())
    }

    /// Exponential backoff (capped) after a view-change vote: overlapping
    /// faults may need several escalations before landing on a live
    /// primary, and each must leave room for the previous round to
    /// complete. Applied after the vote's outputs, so it also doubles the
    /// base timeout of a view that very vote installed.
    pub(super) fn back_off(&mut self, now: Time) {
        self.view_timeout_cur = (self.view_timeout_cur * 2).min(VIEW_TIMEOUT_MAX_US);
        self.last_progress = now;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use massbft_sim_net::Command;

    /// The four replicas of group 0 of a 2-group cluster.
    fn group() -> Vec<LocalConsensus> {
        let params = ProtocolParams::new(Protocol::MassBft, &[4, 4]);
        let registry = KeyRegistry::generate(params.seed, &params.group_sizes);
        let params = Arc::new(params);
        let member = |i| LocalConsensus::new(NodeId::new(0, i), params.clone(), registry.clone());
        (0..4).map(member).collect()
    }

    /// Handles `outputs` of replica `at` the way the node does, delivering
    /// every message among `live` replicas until the group is quiet.
    /// Returns the entries certified, per replica.
    fn settle(
        group: &mut [LocalConsensus],
        live: &[u32],
        now: Time,
        at: u32,
        outputs: Vec<PbftOutput>,
    ) -> Vec<(u32, EntryId)> {
        let mut certified = Vec::new();
        let mut inbox = vec![(at, None, outputs)];
        while let Some((at, from, outputs)) = inbox.pop() {
            let node = &mut group[at as usize];
            let mut ctx = Ctx::new_driver(now, node.me);
            let outputs = match from {
                Some((from, msg)) => node.on_message(now, from, msg),
                None => outputs,
            };
            for out in outputs {
                match out {
                    PbftOutput::Committed { seq, payload, cert } => {
                        let (rec, _) = node
                            .on_committed(&mut ctx, seq, &payload, cert.digest)
                            .expect("entry");
                        certified.push((at, rec.id()));
                    }
                    PbftOutput::EnteredView(view) => {
                        node.on_entered_view(&mut ctx, view);
                    }
                    PbftOutput::ArmViewTimer => {}
                    out => node.transmit(&mut ctx, out),
                }
            }
            for cmd in ctx.take_commands() {
                let (dsts, msg) = match cmd {
                    Command::Send { dst, msg } => (vec![dst], msg),
                    Command::SendMany { dsts, msg } => (dsts, msg),
                    _ => continue,
                };
                let Msg::Pbft(msg) = msg else {
                    panic!("not PBFT")
                };
                for dst in dsts.into_iter().filter(|d| live.contains(&d.node)) {
                    let from = Some((NodeId::new(0, at), msg.clone()));
                    inbox.insert(0, (dst.node, from, Vec::new()));
                }
            }
        }
        certified
    }

    #[test]
    fn a_batch_is_cut_from_accrued_arrivals_and_certified_by_the_group() {
        let mut group = group();
        assert!(group[0].is_rep() && !group[1].is_rep());
        assert!(group[0].try_batch(0).is_none(), "nothing arrived yet");
        assert!(
            group[1].try_batch(BATCH_TIMEOUT_US).is_none(),
            "not a batcher"
        );
        // 100 ktps for 20 ms: 2 000 arrivals, capped at 4 batches of 500.
        let (id, outputs) = group[0].try_batch(BATCH_TIMEOUT_US).expect("batch");
        assert_eq!((id, group[0].in_flight()), (EntryId::new(0, 1), 1));
        assert_eq!(
            group[0].batcher.as_ref().expect("rep").pending.len(),
            3 * 500
        );
        let certified = settle(&mut group, &[0, 1, 2, 3], BATCH_TIMEOUT_US, 0, outputs);
        let everywhere: Vec<_> = (0..4).map(|i| (i, id)).collect();
        assert_eq!(
            {
                let mut c = certified;
                c.sort();
                c
            },
            everywhere
        );
        assert!(group.iter().all(|n| n.own_seq_high() == 1));
        // The window holds the entry until it is released.
        group[0].release_window(id);
        assert_eq!(group[0].in_flight(), 0);
    }

    #[test]
    fn silence_backs_the_view_timeout_off_to_its_cap_and_a_new_view_resets_it() {
        let mut group = group();
        // The primary is exempt; a backup that heard nothing for a full
        // timeout votes, and waits twice as long for the next view.
        let late = VIEW_TIMEOUT_US + 1;
        assert!(group[0].on_view_timer(late).is_none());
        assert!(group[1].on_view_timer(VIEW_TIMEOUT_US).is_none(), "not yet");
        let mut now = 0;
        for expected in [1_000, 2_000, 2_000].map(|ms| ms * MILLISECOND) {
            now += group[1].view_timeout_cur + 1;
            let vote = group[1].on_view_timer(now).expect("stalled");
            let is_vote =
                |o: &PbftOutput| matches!(o, PbftOutput::Broadcast(PbftMsg::ViewChange { .. }));
            assert!(vote.iter().any(is_vote), "{vote:?}");
            group[1].back_off(now);
            assert_eq!(group[1].view_timeout_cur, expected);
            assert_eq!(group[1].view_check_period(), expected / 2);
            assert!(group[1].on_view_timer(now + expected).is_none(), "re-armed");
        }
        // An idle heartbeat of the current primary is progress too.
        let hb = group[0].heartbeat();
        let [PbftOutput::Broadcast(hb)] = &hb[..] else {
            panic!("{hb:?}")
        };
        now += VIEW_TIMEOUT_MAX_US;
        group[2].on_message(now, NodeId::new(0, 0), hb.clone());
        assert!(group[2].on_view_timer(now + VIEW_TIMEOUT_US).is_none());
        // Entering a view resets the backoff.
        let mut ctx = Ctx::new_driver(now, NodeId::new(0, 1));
        group[1].on_entered_view(&mut ctx, 1);
        assert_eq!(group[1].view_timeout_cur, VIEW_TIMEOUT_US);
    }

    #[test]
    fn the_new_primary_becomes_a_batcher_continuing_the_sequence() {
        let mut group = group();
        // Entries 1 and 2 certify under the original representative, which
        // then crashes.
        let mut now = 0;
        for _ in 0..2 {
            now += BATCH_TIMEOUT_US;
            let (_, outputs) = group[0].try_batch(now).expect("batch");
            settle(&mut group, &[0, 1, 2, 3], now, 0, outputs);
        }
        let survivors = [1, 2, 3];
        now += VIEW_TIMEOUT_US + 1;
        // Two votes (f + 1) pull the third survivor along.
        for i in survivors {
            if let Some(vote) = group[i as usize].on_view_timer(now) {
                settle(&mut group, &survivors, now, i, vote);
                group[i as usize].back_off(now);
            }
        }
        // View 1 makes node 1 primary: it is now a representative, its
        // batch timer armed by `on_entered_view`.
        assert!(survivors.iter().all(|&i| group[i as usize].view() == 1));
        assert!(group[1].is_rep() && !group[2].is_rep() && !group[3].is_rep());
        assert_eq!(group[1].own_seq_high(), 2);
        // Same client stream, numbered on from what the group had seen.
        now += BATCH_TIMEOUT_US;
        let (id, outputs) = group[1]
            .try_batch(now)
            .expect("acting representative batches");
        assert_eq!(id, EntryId::new(0, 3));
        let certified = settle(&mut group, &survivors, now, 1, outputs);
        assert_eq!(certified.len(), 3, "{certified:?}");
        // A later view change never installs a second batcher on it.
        let mut ctx = Ctx::new_driver(now, NodeId::new(0, 1));
        assert!(!group[1].on_entered_view(&mut ctx, 5));
    }

    #[test]
    fn iss_opens_an_epoch_only_once_every_group_sealed_the_last() {
        let mut params = ProtocolParams::new(Protocol::Iss, &[1, 1]);
        params.epoch_us = 100 * MILLISECOND;
        let registry = KeyRegistry::generate(params.seed, &params.group_sizes);
        let me = NodeId::new(0, 0);
        let mut rep = LocalConsensus::new(me, Arc::new(params), registry);
        assert!(rep.try_batch(50 * MILLISECOND).is_some(), "epoch 0 is open");
        rep.release_window(EntryId::new(0, 1));
        // Epoch 1 began, epoch 0 is sealed by nobody: stall.
        let mut ctx = Ctx::new_driver(100 * MILLISECOND, me);
        assert!(rep.try_batch(ctx.now()).is_none());
        // The epoch timer seals here and tells the other representative.
        rep.on_epoch_timer(&mut ctx);
        let cmds = ctx.take_commands();
        let announced = matches!(&cmds[0], Command::SendMany { dsts, msg: Msg::EpochClose { group: 0, epoch: 0 } } if dsts[..] == [NodeId::new(1, 0)]);
        assert!(announced, "{cmds:?}");
        assert!(
            rep.try_batch(110 * MILLISECOND).is_none(),
            "group 1 has not sealed"
        );
        rep.on_epoch_close(1, 0);
        let (id, _) = rep.try_batch(120 * MILLISECOND).expect("barrier open");
        assert_eq!(id, EntryId::new(0, 2));
    }
}
