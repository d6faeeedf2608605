//! The global layer of an original representative: the Raft instances it
//! takes part in, vector-timestamp stamping, the direct accept tally, and
//! the appends it withholds until their entries are safely replicated
//! (§V-A–C). What it keeps is per group and per instance; what it knows of
//! one entry — who holds it, whom it was stamped for — is in that entry's
//! record in the [`EntryStore`], and goes when the entry executes.
//!
//! Instances are numbered in one place, here. With `ng` groups, *entry
//! instance* `g < ng` is the Raft log of group `g`'s entry commitments,
//! led by `g`; MassBFT adds *stamp stream* `ng + g`, a second lightweight
//! log led by `g` that carries the timestamps group `g`'s clock assigns.
//! The paper stresses that "replicating VTS is non-blocking" (§I): stamps
//! must not queue behind entry commands whose accepts are content-gated
//! (Lemma V.1), or ordering inherits the slowest group's bulk backlog.
//! Steward has the single entry instance 0; GeoBFT has none.
//!
//! What commits here becomes [`FeedEvent`]s, broadcast to the group and
//! applied to this node's own [`Sequencer`] on the spot — in the middle of
//! whichever handler produced them — so every entry point borrows the
//! [`EntryStore`] and the [`Sequencer`] from the node ([`Downstream`]).

use super::{
    lan_peers, other_reps, sequencer::Sequencer, span, store::EntryStore, FeedEvent, GlobalCmd,
    Msg, Protocol, ProtocolParams, T_ELECTION, T_HEARTBEAT, T_STAMP_FLUSH,
};
use crate::{entry::EntryId, held::HeldAppends};
use massbft_consensus::raft::{RaftConfig, RaftMsg, RaftNode, RaftOutput};
use massbft_sim_net::{Ctx, NodeId, Time, MILLISECOND};
use massbft_telemetry as telemetry;
use std::collections::BTreeMap;
use std::sync::Arc;

/// Raft election timeout (global instances).
pub(super) const ELECTION_TIMEOUT_US: Time = 600 * MILLISECOND;
/// Raft heartbeat period.
pub(super) const HEARTBEAT_US: Time = 100 * MILLISECOND;
/// How often stamps with no entry command to ride on are flushed.
pub(super) const STAMP_FLUSH_US: Time = 10 * MILLISECOND;
/// The accept (`AppendResp`) implies an intra-group skip-prepare PBFT round
/// (paper §II-A), modelled as a LAN round trip before the reply leaves.
const ACCEPT_DELAY_US: Time = 600;
/// Applied Raft entries kept for retransmission; entries live on in the
/// store and its archive, and stragglers use entry repair.
const COMPACTION_MARGIN: u64 = 256;

type Append = (NodeId, RaftMsg<GlobalCmd>);

/// The two parts of the node that what commits here flows into, lent for
/// the length of one call.
pub(super) struct Downstream<'a> {
    pub(super) store: &'a mut EntryStore,
    pub(super) sequencer: &'a mut Sequencer,
}

/// Raft endpoints, stamp clocks and accept gating of one representative.
pub(super) struct GlobalLayer {
    me: NodeId,
    params: Arc<ProtocolParams>,
    /// Global Raft instances this representative participates in.
    rafts: BTreeMap<u32, RaftNode<GlobalCmd>>,
    /// Stamps awaiting replication, keyed by the stamp stream that will
    /// carry them.
    pending_stamps: BTreeMap<u32, Vec<(EntryId, u64)>>,
    /// clk of this group = seq of last own entry committed globally.
    clock: u64,
    /// Frozen clocks of taken-over stamp streams (§V-C, crashed groups).
    frozen_clocks: BTreeMap<u32, u64>,
    /// Last append heard per instance (election monitoring).
    last_append: BTreeMap<u32, Time>,
    /// Highest committed seq per group (crash takeover: frozen clock).
    committed_high: BTreeMap<u32, u64>,
    /// Raft appends carrying entries whose content has not arrived yet:
    /// the accept is withheld until the entry is safe (Lemma V.1), indexed
    /// by the entries they wait on.
    held: HeldAppends<Append>,
}

impl GlobalLayer {
    pub(super) fn new(me: NodeId, params: Arc<ProtocolParams>) -> Self {
        let ng = params.ng() as u32;
        let instances = match params.protocol {
            Protocol::GeoBft => 0,
            Protocol::Steward => 1,
            Protocol::MassBft => 2 * ng,
            _ => ng,
        };
        let members: Vec<u32> = (0..ng).collect();
        let raft = |inst| {
            let cfg = RaftConfig {
                me: me.group,
                members: members.clone(),
                initial_leader: Some(inst % ng),
            };
            (inst, RaftNode::new(cfg))
        };
        GlobalLayer {
            me,
            rafts: (0..instances).map(raft).collect(),
            params,
            pending_stamps: BTreeMap::new(),
            clock: 0,
            frozen_clocks: BTreeMap::new(),
            last_append: BTreeMap::new(),
            committed_high: BTreeMap::new(),
            held: HeldAppends::new(),
        }
    }

    fn ng(&self) -> u32 {
        self.params.ng() as u32
    }

    /// MassBFT: stamp streams, accept notices, the direct accept tally.
    fn stamping(&self) -> bool {
        self.params.protocol == Protocol::MassBft
    }

    /// The stamp stream carrying group `g`'s clock.
    fn stamp_stream(&self, g: u32) -> u32 {
        self.ng() + g
    }

    /// The group an instance — entry instance or stamp stream — belongs to
    /// and is initially led by.
    fn owner(&self, instance: u32) -> u32 {
        instance % self.ng()
    }

    fn is_stamp_stream(&self, instance: u32) -> bool {
        instance >= self.ng()
    }

    /// This group's VTS clock.
    pub(super) fn clock(&self) -> u64 {
        self.clock
    }

    /// Appends currently withheld.
    pub(super) fn held_appends(&self) -> usize {
        self.held.len()
    }

    /// The entries a withheld append waits on, in order.
    pub(super) fn held_blockers(&self) -> Vec<EntryId> {
        self.held.blockers()
    }

    // --- stamping -----------------------------------------------------------

    /// Assigns `ts` to `id` on behalf of group `on_behalf_of` — this group
    /// with its own clock, or a crashed group whose stamp stream this one
    /// leads, with its frozen clock — once per pair, and queues the stamp
    /// on that group's stream. `false` if the pair was stamped before.
    fn stamp(&mut self, store: &mut EntryStore, on_behalf_of: u32, id: EntryId, ts: u64) -> bool {
        if !store.mark_stamped(id, on_behalf_of) {
            return false;
        }
        let stream = self.stamp_stream(on_behalf_of);
        self.pending_stamps
            .entry(stream)
            .or_default()
            .push((id, ts));
        true
    }

    /// Stamps a foreign entry with this group's clock.
    fn stamp_with_clock(&mut self, store: &mut EntryStore, now: Time, id: EntryId) {
        let ts = self.clock;
        if self.stamp(store, self.me.group, id, ts) {
            span(self.me, now, telemetry::EventKind::VtsAssigned, id, ts);
        }
    }

    /// The entry is known committed: should its group crash, the clock we
    /// freeze for it stands no lower.
    fn note_committed(&mut self, id: EntryId) {
        let high = self.committed_high.entry(id.gid).or_insert(0);
        *high = (*high).max(id.seq);
    }

    /// Flushes pending stamps on the streams we lead as stamp-only
    /// commands.
    fn flush_stamps(&mut self, ctx: &mut Ctx<Msg>, down: &mut Downstream<'_>) {
        let streams: Vec<u32> = self.pending_stamps.keys().copied().collect();
        for stream in streams {
            if !self.rafts.get(&stream).is_some_and(|r| r.is_leader()) {
                continue;
            }
            let stamps = self.pending_stamps.remove(&stream).unwrap_or_default();
            if !stamps.is_empty() {
                let entry = None;
                self.submit(ctx, down, stream, GlobalCmd { entry, stamps });
            }
        }
    }

    // --- proposing ----------------------------------------------------------

    /// Proposes `cmd` on `instance` if this node leads it.
    fn submit(
        &mut self,
        ctx: &mut Ctx<Msg>,
        down: &mut Downstream<'_>,
        instance: u32,
        cmd: GlobalCmd,
    ) {
        let raft = self.rafts.get_mut(&instance);
        if let Some((_, outputs)) = raft.and_then(|r| r.propose(cmd)) {
            self.handle_raft_outputs(ctx, down, instance, outputs);
        }
    }

    /// Proposes the commitment of held entry `id` into its entry instance.
    /// Normally the proposer *is* the entry's group (or the Steward
    /// master); after a crash takeover the elected cross-group leader
    /// re-proposes rebuilt foreign entries here too (§V-C). Stamps travel
    /// on the stamp streams, never on entry instances.
    pub(super) fn propose_entry(
        &mut self,
        ctx: &mut Ctx<Msg>,
        down: &mut Downstream<'_>,
        id: EntryId,
    ) {
        let Some(digest) = down.store.digest(id) else {
            return;
        };
        // Steward: every group's entries go through entry instance 0.
        let single_master = self.params.protocol.single_master();
        let instance = if single_master { 0 } else { id.gid };
        if !single_master && id.gid != self.me.group {
            if !down.store.mark_reproposed(id) {
                return;
            }
            // Takeover self-stamp: the proposer's own append never loops
            // back through `on_raft_msg`, so without this the entry's
            // timestamp vector would miss our component.
            self.stamp(down.store, self.me.group, id, self.clock);
        }
        let cmd = GlobalCmd {
            entry: Some((id, digest)),
            stamps: Vec::new(),
        };
        self.submit(ctx, down, instance, cmd);
    }

    /// Re-proposes a crashed group's certified-but-uncommitted entries
    /// whose content we hold, if we are the elected takeover leader of
    /// that group's entry instance. Called on takeover election and on
    /// each foreign content arrival; the entry's record dedups.
    pub(super) fn propose_foreign_ready(
        &mut self,
        ctx: &mut Ctx<Msg>,
        down: &mut Downstream<'_>,
        instance: u32,
    ) {
        if self.is_stamp_stream(instance) || instance == self.me.group {
            return;
        }
        if !self.rafts.get(&instance).is_some_and(|r| r.is_leader()) {
            return;
        }
        for id in down.store.uncommitted_of(instance) {
            self.propose_entry(ctx, down, id);
        }
    }

    // --- Raft outputs -------------------------------------------------------

    fn handle_raft_outputs(
        &mut self,
        ctx: &mut Ctx<Msg>,
        down: &mut Downstream<'_>,
        instance: u32,
        outputs: Vec<RaftOutput<GlobalCmd>>,
    ) {
        let mut feed: Vec<FeedEvent> = Vec::new();
        for out in outputs {
            match out {
                RaftOutput::Send { to, msg } => {
                    // Appends carry the certificate of every entry command.
                    let cert_bytes = match &msg {
                        RaftMsg::AppendEntries { entries, .. } => {
                            let certs = entries.iter().filter(|e| e.data.entry.is_some());
                            certs.count() * self.params.cert_size(self.owner(instance))
                        }
                        _ => 0,
                    };
                    let is_accept = matches!(msg, RaftMsg::AppendResp { .. });
                    let dst = self.params.leader_of(to);
                    let m = Msg::Raft {
                        instance,
                        rmsg: msg,
                        cert_bytes,
                    };
                    if is_accept {
                        ctx.send_after(ACCEPT_DELAY_US, dst, m);
                    } else {
                        ctx.send(dst, m);
                    }
                }
                RaftOutput::Committed { data, .. } => {
                    self.on_global_commit(ctx.now(), down, instance, data, &mut feed);
                }
                RaftOutput::BecameLeader(_) => {
                    self.on_became_instance_leader(ctx, down, instance);
                }
                RaftOutput::SteppedDown => {}
            }
        }
        if !feed.is_empty() {
            self.publish(ctx, down, feed);
        }
    }

    /// A command committed in `instance`'s Raft log: translate to ordering
    /// feed events (identical at every group, since the log is identical).
    fn on_global_commit(
        &mut self,
        now: Time,
        down: &mut Downstream<'_>,
        instance: u32,
        cmd: GlobalCmd,
        feed: &mut Vec<FeedEvent>,
    ) {
        if let Some((id, _digest)) = cmd.entry {
            let kind = telemetry::EventKind::GlobalCommit;
            span(self.me, now, kind, id, instance as u64);
            feed.push(FeedEvent::Committed(id));
            self.note_committed(id);
            if id.gid == self.me.group {
                // Our own entry committed: advance our clock (§V-B).
                self.clock = self.clock.max(id.seq);
                if let Some(m) = down.sequencer.marks(id) {
                    m.committed = Some(now);
                }
            } else if !self.params.overlap_vts {
                // Serial VTS assignment (Fig. 7a): stamp only after the
                // entry achieves consensus, costing an extra round.
                self.stamp_with_clock(down.store, now, id);
            }
            // Takeover stamping (§V-C, crashed groups): if we lead
            // foreign stamp streams, stamp every committed entry on
            // their behalf with their frozen clocks — including our
            // own entries, which nobody else will stamp for them.
            let frozen: Vec<(u32, u64)> = (self.frozen_clocks.iter())
                .filter(|(&g, _)| g != id.gid)
                .map(|(&g, &clk)| (g, clk))
                .collect();
            for (g, clk) in frozen {
                self.stamp(down.store, g, id, clk);
            }
        }
        // Stamp commands only travel on stamp streams; the stamping group
        // is the stream owner.
        let stamper = self.owner(instance);
        feed.extend(cmd.stamps.into_iter().map(|(target, ts)| FeedEvent::Stamp {
            stamper,
            target,
            ts,
        }));
    }

    /// Crash takeover (§V-C, Crashed Groups). On becoming leader of a
    /// foreign group's *stamp stream*, freeze that group's clock at its
    /// last committed seq and stamp every entry committed but yet to
    /// execute here on its behalf, so ordering can resume. On becoming
    /// leader of its *entry instance*, re-propose the crashed group's
    /// certified entries we already rebuilt, so their commitment (and
    /// hence ordering) keeps progressing.
    fn on_became_instance_leader(
        &mut self,
        ctx: &mut Ctx<Msg>,
        down: &mut Downstream<'_>,
        instance: u32,
    ) {
        if !self.is_stamp_stream(instance) {
            self.propose_foreign_ready(ctx, down, instance);
            return;
        }
        let owner = self.owner(instance);
        if owner == self.me.group {
            return;
        }
        let frozen = self.committed_high.get(&owner).copied().unwrap_or(0);
        self.frozen_clocks.insert(owner, frozen);
        for id in down.store.committed_unexecuted() {
            if id.gid != owner {
                self.stamp(down.store, owner, id, frozen);
            }
        }
    }

    /// Broadcasts ordering events to the group over LAN and applies them
    /// here.
    fn publish(&mut self, ctx: &mut Ctx<Msg>, down: &mut Downstream<'_>, events: Vec<FeedEvent>) {
        let feed = Msg::Feed {
            events: events.clone(),
        };
        ctx.send_many(lan_peers(self.me, &self.params), feed);
        // Orphan feed (§V-C): having taken over a crashed group's stamp
        // stream, we are the closest thing that group's survivors have to
        // a representative — feed them commit events, or their acting
        // representative never drains its pipeline window and the group
        // stops proposing. Commits only: applying a commit is monotone
        // (it merely unlocks emission), but stamps are only sound when
        // delivered in stream-log order, which the group's own replay
        // guarantees and a skip-ahead feed would violate — the jumped
        // inference bounds would let survivors order entries differently
        // and fork the execution log.
        let me = self.me.group;
        if self.frozen_clocks.keys().any(|&g| g != me) {
            let commits: Vec<FeedEvent> = (events.iter())
                .filter(|e| matches!(e, FeedEvent::Committed(_)))
                .cloned()
                .collect();
            if !commits.is_empty() {
                let orphans = (self.frozen_clocks.keys().filter(|&&g| g != me)).flat_map(|&g| {
                    (0..self.params.group_sizes[g as usize] as u32).map(move |i| NodeId::new(g, i))
                });
                ctx.send_many(orphans, Msg::Feed { events: commits });
            }
        }
        for ev in &events {
            if let FeedEvent::Committed(id) = ev {
                self.held.note_safe(*id);
            }
        }
        let Downstream { store, sequencer } = down;
        sequencer.ingest(store, events);
        sequencer.advance(ctx, store);
    }

    // --- inbound ------------------------------------------------------------

    /// The entry became safely replicated (held, or committed): appends
    /// waiting on it count it off. Dispatches nothing.
    pub(super) fn note_safe(&mut self, id: EntryId) {
        self.held.note_safe(id);
    }

    pub(super) fn on_raft_msg(
        &mut self,
        ctx: &mut Ctx<Msg>,
        down: &mut Downstream<'_>,
        from: NodeId,
        instance: u32,
        rmsg: RaftMsg<GlobalCmd>,
    ) {
        // Track appended entries to stamp (overlapped VTS) and monitor
        // liveness of the instance leader.
        let mut appended: Vec<EntryId> = Vec::new();
        if let RaftMsg::AppendEntries {
            prev_index,
            entries,
            leader_commit,
            ..
        } = &rmsg
        {
            appended.extend(entries.iter().filter_map(|e| Some(e.data.entry?.0)));
            self.last_append.insert(instance, ctx.now());
            // Accept gating (Lemma V.1): a group must not accept an entry
            // that is not safely replicated. Own entries arrive via local
            // PBFT; for a foreign one "safely" means either we hold the
            // content, or `f_g + 1` groups provably do (the §V-C
            // direct-accept tally plus pull repair make the entry
            // recoverable) — otherwise a commit could reference an entry
            // nobody can supply after the origin crashes. Held appends
            // replay when content or the tally arrives; holding the whole
            // append (not just the accept) also keeps stamps from
            // committing ahead of an unsafe entry in the same log.
            //
            // An entry at a log position the leader has committed passes
            // as it is: a majority accepted it under this very gate, so
            // pull repair can recover it, as `is_safe` counts a committed
            // entry. Holding it would only have the leader resend the
            // whole suffix on every heartbeat to a node catching up.
            let committed = leader_commit.saturating_sub(*prev_index) as usize;
            let blockers: Vec<EntryId> = (entries.iter().skip(committed))
                .filter_map(|e| Some(e.data.entry?.0))
                .filter(|&id| id.gid != self.me.group && !down.store.is_safe(id))
                .collect();
            if !blockers.is_empty() {
                self.held.hold(instance, blockers, (from, rmsg));
                return;
            }
        }
        let Some(raft) = self.rafts.get_mut(&instance) else {
            return;
        };
        let outputs = raft.step(from.group, rmsg);
        if self.stamping() && !appended.is_empty() {
            // Direct accept broadcast (§V-C): these entries are safe here
            // (the gating above guarantees it), so tell every representative —
            // slow groups use the tally to stamp and order without waiting
            // for their own copies.
            let group = self.me.group;
            let notice = Msg::AcceptNotice {
                from_group: group,
                entries: appended.clone(),
            };
            ctx.send_many(other_reps(self.me, &self.params), notice);
            // Count our own acceptance locally too.
            self.on_accept_notice(ctx, down, group, appended.clone());
        }
        if self.stamping() && self.params.overlap_vts {
            // Overlapped VTS assignment (Fig. 7b): stamp on learning of
            // the proposal. Own entries are implicit. Frozen-clock stamps
            // for taken-over streams are handled at commit time, which
            // also covers our own entries and entries appended before the
            // takeover.
            for id in appended {
                if id.gid != self.me.group {
                    self.stamp_with_clock(down.store, ctx.now(), id);
                }
            }
        }
        self.handle_raft_outputs(ctx, down, instance, outputs);
    }

    /// Tallies a direct accept notice; at `f_g + 1` holders (counting the
    /// proposer implicitly) the entry is provably replicated: stamp it
    /// with our clock and mark it committed, without waiting for our own
    /// copy (§V-C, slow receiver groups).
    pub(super) fn on_accept_notice(
        &mut self,
        ctx: &mut Ctx<Msg>,
        down: &mut Downstream<'_>,
        from_group: u32,
        entries: Vec<EntryId>,
    ) {
        if !self.stamping() {
            return;
        }
        let quorum = self.ng() as usize / 2 + 1; // f_g + 1 with n_g >= 2 f_g + 1
        let mut feed = Vec::new();
        let replicated: Vec<EntryId> = (entries.into_iter())
            .filter(|&id| down.store.note_holder(id, from_group, quorum))
            .collect();
        for id in replicated {
            // Stamp without content (the §V-C fast path).
            if id.gid != self.me.group {
                self.stamp_with_clock(down.store, ctx.now(), id);
            }
            // Majority-accepted == committed under Raft's election
            // restriction; surface it to the ordering layer now.
            if !down.store.is_committed(id) {
                feed.push(FeedEvent::Committed(id));
                self.note_committed(id);
            }
        }
        if !feed.is_empty() {
            self.publish(ctx, down, feed);
        }
        // Newly safe entries may unblock held appends in any instance.
        self.replay_held(ctx, down);
        self.flush_stamps(ctx, down);
    }

    /// Re-dispatches the held appends whose carried entries have all
    /// become safe, by instance and then arrival. The others are not
    /// looked at.
    pub(super) fn replay_held(&mut self, ctx: &mut Ctx<Msg>, down: &mut Downstream<'_>) {
        let mut pass = self.held.begin_replay();
        while let Some((instance, (from, rmsg))) = self.held.next_ready(&mut pass) {
            self.on_raft_msg(ctx, down, from, instance, rmsg);
        }
        self.held.end_replay(pass);
    }

    // --- timers -------------------------------------------------------------

    /// `T_HEARTBEAT`, `T_ELECTION` or `T_STAMP_FLUSH` fired.
    pub(super) fn on_timer(&mut self, ctx: &mut Ctx<Msg>, down: &mut Downstream<'_>, token: u64) {
        let now = ctx.now();
        let instances = || -> Vec<u32> { self.rafts.keys().copied().collect() };
        match token {
            T_HEARTBEAT => {
                for inst in instances() {
                    let raft = self.rafts.get_mut(&inst).expect("listed above");
                    raft.compact_to_applied(COMPACTION_MARGIN);
                    if raft.is_leader() {
                        let outputs = raft.on_heartbeat_timeout();
                        self.handle_raft_outputs(ctx, down, inst, outputs);
                    }
                }
                self.flush_stamps(ctx, down);
                ctx.set_timer(HEARTBEAT_US, T_HEARTBEAT);
            }
            T_ELECTION => {
                // Stagger by group id so two survivors never cross the
                // timeout threshold within the same check period and split
                // votes forever (the stagger must exceed the check period,
                // timeout/2).
                let stagger = self.me.group as u64 * (ELECTION_TIMEOUT_US * 3 / 4);
                for inst in instances() {
                    let raft = self.rafts.get_mut(&inst).expect("listed above");
                    let last = self.last_append.get(&inst).copied().unwrap_or(0);
                    if !raft.is_leader() && now.saturating_sub(last) > ELECTION_TIMEOUT_US + stagger
                    {
                        let outputs = raft.on_election_timeout();
                        self.last_append.insert(inst, now);
                        self.handle_raft_outputs(ctx, down, inst, outputs);
                    }
                }
                ctx.set_timer(ELECTION_TIMEOUT_US / 2, T_ELECTION);
            }
            _ => {
                self.flush_stamps(ctx, down);
                ctx.set_timer(STAMP_FLUSH_US, T_STAMP_FLUSH);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::entry::{encode_batch, EntryRecord};
    use massbft_consensus::raft::LogEntry;
    use massbft_sim_net::Command;

    const ME: NodeId = NodeId { group: 1, node: 0 };

    /// Group 1's representative in a 3×4 MassBFT cluster, with the parts it
    /// borrows.
    fn rep() -> (GlobalLayer, EntryStore, Sequencer, Ctx<Msg>) {
        let params = Arc::new(ProtocolParams::new(Protocol::MassBft, &[4, 4, 4]));
        let global = GlobalLayer::new(ME, params.clone());
        let sequencer = Sequencer::new(ME, &params);
        (
            global,
            EntryStore::new(3, true),
            sequencer,
            Ctx::new_driver(0, ME),
        )
    }

    fn down<'a>(store: &'a mut EntryStore, sequencer: &'a mut Sequencer) -> Downstream<'a> {
        Downstream { store, sequencer }
    }

    fn record(id: EntryId) -> EntryRecord {
        EntryRecord::hash(encode_batch(id, &[b"txn".to_vec()]).into()).expect("entry")
    }

    /// Group `id.gid`'s leader appends `id` at `index` of its entry instance.
    fn append(id: EntryId, index: u64, leader_commit: u64) -> RaftMsg<GlobalCmd> {
        let cmd = GlobalCmd {
            entry: Some((id, record(id).digest())),
            stamps: Vec::new(),
        };
        RaftMsg::AppendEntries {
            term: 1,
            prev_index: index - 1,
            prev_term: (index > 1) as u64,
            entries: vec![LogEntry { term: 1, data: cmd }],
            leader_commit,
        }
    }

    /// Every stamp proposed so far on group `g`'s stamp stream.
    fn stamps_on_stream(global: &GlobalLayer, g: u32) -> Vec<(EntryId, u64)> {
        let raft = &global.rafts[&global.stamp_stream(g)];
        (1..=raft.last_index())
            .flat_map(|i| raft.entry(i).expect("retained").data.stamps.clone())
            .collect()
    }

    /// The messages `ctx` collected, with their destinations.
    fn sent(ctx: &mut Ctx<Msg>) -> Vec<(NodeId, Msg)> {
        let mut out = Vec::new();
        for cmd in ctx.take_commands() {
            match cmd {
                Command::Send { dst, msg } | Command::SendAfter { dst, msg, .. } => {
                    out.push((dst, msg));
                }
                Command::SendMany { dsts, msg } => {
                    out.extend(dsts.into_iter().map(|dst| (dst, msg.clone())));
                }
                Command::SetTimer { .. } | Command::SpendCpu(_) => {}
            }
        }
        out
    }

    #[test]
    fn instances_are_numbered_per_preset() {
        let instances = |protocol| {
            let params = ProtocolParams::new(protocol, &[4, 4, 4]);
            let global = GlobalLayer::new(ME, Arc::new(params));
            let leads = |(&i, r): (&u32, &RaftNode<GlobalCmd>)| r.is_leader().then_some(i);
            let led: Vec<u32> = global.rafts.iter().filter_map(leads).collect();
            (global.rafts.len(), led)
        };
        // Entry instance 1 and stamp stream 3 + 1 are group 1's to lead.
        assert_eq!(instances(Protocol::MassBft), (6, vec![1, 4]));
        assert_eq!(instances(Protocol::Baseline), (3, vec![1]));
        assert_eq!(instances(Protocol::Steward), (1, vec![]));
        assert_eq!(instances(Protocol::GeoBft), (0, vec![]));
    }

    #[test]
    fn a_retransmitted_append_is_stamped_once() {
        let (mut global, mut store, mut seq, mut ctx) = rep();
        let id = EntryId::new(0, 1);
        store.hold(record(id), None);
        let from = NodeId::new(0, 0);
        for _ in 0..3 {
            global.on_raft_msg(
                &mut ctx,
                &mut down(&mut store, &mut seq),
                from,
                0,
                append(id, 1, 0),
            );
        }
        // One stamp, carrying our clock, on our own stream — however often
        // the leader resends the entry.
        assert_eq!(stamps_on_stream(&global, ME.group), [(id, 0)]);
        assert!(global.pending_stamps.values().all(|s| s.is_empty()));
        // Every delivery is accepted and announced.
        let msgs = sent(&mut ctx);
        let accepts = msgs.iter().filter(|(dst, m)| {
            let resp = matches!(
                m,
                Msg::Raft {
                    instance: 0,
                    rmsg: RaftMsg::AppendResp { success: true, .. },
                    ..
                }
            );
            resp && *dst == from
        });
        assert_eq!(accepts.count(), 3);
        let notices = msgs
            .iter()
            .filter(|(_, m)| matches!(m, Msg::AcceptNotice { .. }));
        assert_eq!(notices.count(), 3 * 2, "to both other representatives");
        // The dedup state is the entry's record: it goes when the entry
        // executes.
        assert!(!store.mark_stamped(id, ME.group) && store.live_records() == 1);
        let taken = store.take_runnable(id).expect("held");
        store.finish(taken);
        assert_eq!(store.live_records(), 0);
    }

    #[test]
    fn leading_a_foreign_stamp_stream_freezes_its_clock_and_stamps_for_it() {
        let (mut global, mut store, mut seq, mut ctx) = rep();
        // Entries of groups 0 and 2 commit in their instances; (2, 7) is the
        // highest of group 2.
        let committed = [EntryId::new(0, 1), EntryId::new(2, 7)];
        for id in committed {
            store.hold(record(id), None);
            let from = NodeId::new(id.gid, 0);
            global.on_raft_msg(
                &mut ctx,
                &mut down(&mut store, &mut seq),
                from,
                id.gid,
                append(id, 1, 1),
            );
        }
        assert_eq!(global.committed_high[&2], 7);
        assert!(global.frozen_clocks.is_empty());
        // Group 2 goes quiet; its stamp stream (3 + 2) is ours once group 0
        // votes for us.
        let stream = global.stamp_stream(2);
        ctx.set_now(10 * ELECTION_TIMEOUT_US);
        global.on_timer(&mut ctx, &mut down(&mut store, &mut seq), T_ELECTION);
        let vote = RaftMsg::Vote {
            term: 2,
            granted: true,
        };
        let voter = NodeId::new(0, 0);
        global.on_raft_msg(
            &mut ctx,
            &mut down(&mut store, &mut seq),
            voter,
            stream,
            vote,
        );
        assert!(global.rafts[&stream].is_leader());
        // Frozen at its last committed seq, and every unexecuted entry that
        // is not its own is stamped on its behalf with that clock.
        assert_eq!(global.frozen_clocks[&2], 7);
        assert_eq!(global.pending_stamps[&stream], [(committed[0], 7)]);
        // So is whatever commits from now on — our own entries included —
        // and the orphaned group is fed the commits.
        let own = EntryId::new(1, 1);
        store.hold(record(own), None);
        sent(&mut ctx);
        global.propose_entry(&mut ctx, &mut down(&mut store, &mut seq), own);
        let ack = RaftMsg::AppendResp {
            term: 1,
            success: true,
            match_index: 1,
        };
        global.on_raft_msg(
            &mut ctx,
            &mut down(&mut store, &mut seq),
            voter,
            own.gid,
            ack,
        );
        assert_eq!(global.clock(), 1);
        assert!(global.pending_stamps[&stream].contains(&(own, 7)));
        let orphan_feed = sent(&mut ctx).into_iter().filter(|(dst, m)| {
            dst.group == 2 && matches!(m, Msg::Feed { events } if events.len() == 1)
        });
        assert_eq!(orphan_feed.count(), 4, "every node of the crashed group");
    }

    #[test]
    fn an_accept_quorum_stamps_and_commits_without_content() {
        let (mut global, mut store, mut seq, mut ctx) = rep();
        let id = EntryId::new(0, 5);
        // The proposer counts implicitly: its own notice is one holder of
        // the two a 3-group cluster needs.
        global.on_accept_notice(&mut ctx, &mut down(&mut store, &mut seq), 0, vec![id]);
        assert!(!store.is_committed(id) && stamps_on_stream(&global, 1).is_empty());
        assert!(sent(&mut ctx).is_empty());
        global.on_accept_notice(&mut ctx, &mut down(&mut store, &mut seq), 2, vec![id]);
        assert!(store.is_committed(id) && !store.has(id));
        assert_eq!(stamps_on_stream(&global, 1), [(id, 0)]);
        assert_eq!(store.committed_unexecuted(), [id]);
        assert!(!store.note_holder(id, id.gid, 2), "the tally started over");
        // The group learns of the commit over LAN.
        let feeds = sent(&mut ctx).into_iter().filter(|(dst, m)| {
            let commit = matches!(m, Msg::Feed { events } if matches!(events[..], [FeedEvent::Committed(e)] if e == id));
            commit && dst.group == ME.group
        });
        assert_eq!(feeds.count(), 3);
        // A later notice for the same entry commits nothing twice.
        global.on_accept_notice(&mut ctx, &mut down(&mut store, &mut seq), 2, vec![id]);
        assert!(!sent(&mut ctx)
            .iter()
            .any(|(_, m)| matches!(m, Msg::Feed { .. })));
    }

    #[test]
    fn an_append_is_withheld_until_its_entry_is_held_then_replayed_in_arrival_order() {
        let (mut global, mut store, mut seq, mut ctx) = rep();
        let (first, second) = (EntryId::new(0, 1), EntryId::new(0, 2));
        let from = NodeId::new(0, 0);
        global.on_raft_msg(
            &mut ctx,
            &mut down(&mut store, &mut seq),
            from,
            0,
            append(first, 1, 0),
        );
        global.on_raft_msg(
            &mut ctx,
            &mut down(&mut store, &mut seq),
            from,
            0,
            append(second, 2, 0),
        );
        // Neither is accepted, announced or stamped: nobody may count on an
        // entry this group cannot supply.
        assert_eq!(global.held_appends(), 2);
        assert!(sent(&mut ctx).is_empty() && store.live_records() == 0);
        // Content lands out of order; nothing moves until something is ready.
        for id in [second, first] {
            store.hold(record(id), None);
            global.note_safe(id);
        }
        global.replay_held(&mut ctx, &mut down(&mut store, &mut seq));
        assert_eq!(global.held_appends(), 0);
        let matched: Vec<u64> = sent(&mut ctx)
            .into_iter()
            .filter_map(|(_, m)| match m {
                Msg::Raft {
                    rmsg:
                        RaftMsg::AppendResp {
                            success: true,
                            match_index,
                            ..
                        },
                    ..
                } => Some(match_index),
                _ => None,
            })
            .collect();
        assert_eq!(
            matched,
            [1, 2],
            "the log grew in the order the appends arrived"
        );
        assert_eq!(stamps_on_stream(&global, 1), [(first, 0), (second, 0)]);
    }

    #[test]
    fn an_append_at_or_below_the_leaders_commit_passes_without_content() {
        let (mut global, mut store, mut seq, mut ctx) = rep();
        let (first, second) = (EntryId::new(0, 1), EntryId::new(0, 2));
        let from = NodeId::new(0, 0);
        // The leader committed index 1 while this node held neither entry:
        // the first is accepted and commits here without its content ...
        global.on_raft_msg(
            &mut ctx,
            &mut down(&mut store, &mut seq),
            from,
            0,
            append(first, 1, 1),
        );
        let accepted = sent(&mut ctx).into_iter().any(|(dst, m)| {
            let resp = matches!(
                m,
                Msg::Raft {
                    rmsg: RaftMsg::AppendResp {
                        success: true,
                        match_index: 1,
                        ..
                    },
                    ..
                }
            );
            resp && dst == from
        });
        assert!(accepted, "the committed entry is accepted");
        assert!(store.is_committed(first) && !store.has(first));
        // ... the second, above the leader's commit, still waits for it,
        // and names what it waits on.
        global.on_raft_msg(
            &mut ctx,
            &mut down(&mut store, &mut seq),
            from,
            0,
            append(second, 2, 1),
        );
        assert!(sent(&mut ctx).is_empty());
        assert_eq!(global.held_appends(), 1);
        assert_eq!(global.held_blockers(), [second]);
    }
}
