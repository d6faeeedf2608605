//! Deterministic asynchronous ordering by vector timestamps —
//! Algorithm 2 of the paper (§V-D).
//!
//! Every entry `e_{i,n}` receives a vector timestamp (VTS) with one element
//! per group: `vts[i] = n` is implicit (the proposer's own clock), and each
//! other group `j` contributes `vts[j]` — the value of its local clock
//! `clk_j` when it received the entry — replicated through group `j`'s
//! Raft instance. Entries execute in lexicographic `(vts, seq, gid)` order
//! (Lemma V.4: a strict total order).
//!
//! The engine is *streaming*: timestamps arrive out of order across
//! instances (but in order within one instance), and the next entry to
//! execute is found by comparing only the per-group *heads* (Lemma V.5:
//! VTSs of one group's entries are monotone in `seq`). Elements not yet
//! received are *inferred* as lower bounds — legal because each group
//! stamps entries with a non-decreasing clock, so an element can only ever
//! resolve to a value ≥ the inferred bound. `Prec` (the paper's
//! `Prec(e1, e2)`) only declares an order when it holds for every possible
//! resolution of the inferred elements.
//!
//! The engine emits the execution order as a stream of [`EntryId`]s; the
//! caller supplies entry *content* separately (replication and ordering
//! are decoupled — that is the point of the protocol).

use crate::entry::EntryId;
use massbft_db::hash::FastMap;
use std::collections::VecDeque;
use std::sync::OnceLock;

/// Process-wide count of ordering decisions (`core.ordering.entries_ordered`
/// in the telemetry registry; sums over every node hosted in the process).
fn ordered_counter() -> &'static massbft_telemetry::registry::Counter {
    static C: OnceLock<massbft_telemetry::registry::Counter> = OnceLock::new();
    C.get_or_init(|| massbft_telemetry::registry::counter("core.ordering.entries_ordered"))
}

/// Per-entry VTS state tracked by the engine.
#[derive(Debug, Clone)]
struct EntryState {
    id: EntryId,
    vts: Vec<u64>,
    set: Vec<bool>,
}

impl EntryState {
    fn new_head(id: EntryId, ng: usize) -> Self {
        let mut s = EntryState {
            id,
            vts: vec![0; ng],
            set: vec![false; ng],
        };
        // The proposer's element is deterministic: vts[gid] = seq.
        s.vts[id.gid as usize] = id.seq;
        s.set[id.gid as usize] = true;
        s
    }
}

/// The streaming ordering engine (one per node).
#[derive(Debug)]
pub struct OrderingEngine {
    ng: usize,
    /// `heads[i]`: the unexecuted entry of group `i` with smallest seq.
    heads: Vec<EntryState>,
    /// Stamps received for entries beyond their group's head:
    /// `(stamper, value)` per entry.
    future_stamps: FastMap<EntryId, Vec<(u32, u64)>>,
    /// Latest timestamp seen from each stamping group's instance
    /// (non-decreasing), used for lower-bound inference. Entry commits also
    /// advance this: committing `e_{i,n}` advances `clk_i` to `n`
    /// (paper §V-B, overlapped assignment).
    last_ts: Vec<u64>,
    /// Highest committed seq per group: an entry may only be *emitted*
    /// once its global replication committed (heads for entries that do
    /// not exist yet still participate in comparisons via inference).
    committed: Vec<u64>,
    /// Entries whose position in the total order is decided, in order.
    ready: VecDeque<EntryId>,
    /// Total entries ordered so far.
    ordered_count: u64,
}

impl OrderingEngine {
    /// Creates an engine for `ng` groups. Heads start at `e_{i,1}`.
    pub fn new(ng: usize) -> Self {
        let heads = (0..ng)
            .map(|g| EntryState::new_head(EntryId::new(g as u32, 1), ng))
            .collect();
        OrderingEngine {
            ng,
            heads,
            future_stamps: FastMap::default(),
            last_ts: vec![0; ng],
            committed: vec![0; ng],
            ready: VecDeque::new(),
            ordered_count: 0,
        }
    }

    /// Number of groups.
    pub fn group_count(&self) -> usize {
        self.ng
    }

    /// Entries ordered so far.
    pub fn ordered_count(&self) -> u64 {
        self.ordered_count
    }

    /// The seq of the next unordered entry of group `g`.
    pub fn head_seq(&self, g: u32) -> u64 {
        self.heads[g as usize].id.seq
    }

    /// Records that entry `id` achieved global Raft consensus, unlocking
    /// its emission.
    ///
    /// Note: a commit does *not* feed the inference bounds. Although the
    /// proposer's clock advances to `seq` at this commit (paper §V-B), a
    /// stamp assigned *before* the commit with the older clock value may
    /// replicate *after* it in the same instance log; treating the commit
    /// as a clock observation would let two nodes resolve a tie
    /// differently. Only received stamps — which are non-decreasing in
    /// instance-log order — are safe inference sources (paper §V-D).
    pub fn on_entry_committed(&mut self, id: EntryId) {
        let g = id.gid as usize;
        debug_assert!(g < self.ng);
        if id.seq > self.committed[g] {
            self.committed[g] = id.seq;
        }
        self.drain();
    }

    /// Feeds one replicated timestamp: group `stamper`'s clock value `ts`
    /// assigned to entry `(gid, seq)`. Timestamps from one `stamper` must
    /// arrive in its Raft-instance log order (the engine tolerates
    /// duplicates and stale deliveries).
    ///
    /// Newly ordered entries surface via [`Self::pop_ready`].
    pub fn on_timestamp(&mut self, stamper: u32, target: EntryId, ts: u64) {
        let s = stamper as usize;
        debug_assert!(s < self.ng);

        let head_seq = self.heads[target.gid as usize].id.seq;
        if target.seq == head_seq {
            let head = &mut self.heads[target.gid as usize];
            if !head.set[s] {
                head.vts[s] = ts;
                head.set[s] = true;
            }
        } else if target.seq > head_seq {
            self.future_stamps
                .entry(target)
                .or_default()
                .push((stamper, ts));
        }
        // else: already ordered — the stamp still advances the clock bound.

        // Inference (Algorithm 2 lines 6–7): the stamper's clock is at
        // least `ts` now, so every head element it has not yet stamped is
        // at least `ts`.
        self.bump_clock(s, ts);
        self.drain();
    }

    /// Advances the known lower bound of group `s`'s clock and propagates
    /// it to every head element that group has not stamped yet.
    fn bump_clock(&mut self, s: usize, ts: u64) {
        if ts > self.last_ts[s] {
            self.last_ts[s] = ts;
        }
        let bound = self.last_ts[s];
        for head in &mut self.heads {
            if !head.set[s] && bound > head.vts[s] {
                head.vts[s] = bound;
            }
        }
    }

    /// Pops the next entry in the decided total order, if any.
    pub fn pop_ready(&mut self) -> Option<EntryId> {
        self.ready.pop_front()
    }

    /// Lines 8–15: repeatedly extract the global minimum head.
    fn drain(&mut self) {
        while let Some(g) = self.global_minimum() {
            let pre = self.heads[g].clone();
            self.ready.push_back(pre.id);
            self.ordered_count += 1;
            ordered_counter().inc();

            // Replace the head with its successor.
            let nxt_id = pre.id.successor();
            let mut nxt = EntryState::new_head(nxt_id, self.ng);
            for j in 0..self.ng {
                if nxt.set[j] {
                    continue;
                }
                // Infer from the predecessor (monotonicity, Lemma V.5) and
                // from the stamper's latest clock.
                nxt.vts[j] = pre.vts[j].max(self.last_ts[j]);
            }
            // Apply any stamps that arrived early.
            if let Some(stamps) = self.future_stamps.remove(&nxt_id) {
                for (stamper, ts) in stamps {
                    let s = stamper as usize;
                    if !nxt.set[s] {
                        nxt.vts[s] = ts;
                        nxt.set[s] = true;
                    }
                }
            }
            self.heads[g] = nxt;
        }
    }

    /// Lines 16–20: the committed head that provably precedes every other
    /// head.
    fn global_minimum(&self) -> Option<usize> {
        'outer: for (i, e1) in self.heads.iter().enumerate() {
            if e1.id.seq > self.committed[i] {
                continue; // entry has not completed replication yet
            }
            for (j, e2) in self.heads.iter().enumerate() {
                if i != j && !prec(e1, e2) {
                    continue 'outer;
                }
            }
            return Some(i);
        }
        None
    }
}

/// Lines 21–30: `true` iff `e1` must precede `e2` under every possible
/// resolution of inferred (unset) elements.
fn prec(e1: &EntryState, e2: &EntryState) -> bool {
    for j in 0..e1.vts.len() {
        if e1.set[j] {
            if e1.vts[j] < e2.vts[j] {
                // e2's element only grows; the order is already decided.
                return true;
            }
            if e2.set[j] && e1.vts[j] == e2.vts[j] {
                continue; // tie on a fully known element: compare the next
            }
        }
        // e1's element is inferred (could grow), or e1 > e2 on a known
        // element, or e2's equal element is still inferred: undecidable or
        // e2 first.
        return false;
    }
    // Identical, fully set VTSs: deterministic (seq, gid) tiebreak.
    if e1.id.seq != e2.id.seq {
        return e1.id.seq < e2.id.seq;
    }
    e1.id.gid < e2.id.gid
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// One ordering-relevant event as it would be delivered by the Raft
    /// instances: either an entry commit (instance `id.gid`) or a stamp
    /// (instance `stamper`).
    #[derive(Debug, Clone, Copy)]
    enum Ev {
        Commit(EntryId),
        Stamp(u32, EntryId, u64),
    }

    impl Ev {
        /// The Raft instance this event is delivered through; events of one
        /// instance must stay in order when interleavings are shuffled.
        fn instance(&self) -> u32 {
            match self {
                Ev::Commit(id) => id.gid,
                Ev::Stamp(s, _, _) => *s,
            }
        }
    }

    /// Feed events and collect the emitted order.
    fn order_of(ng: usize, events: &[Ev]) -> Vec<EntryId> {
        let mut eng = OrderingEngine::new(ng);
        let mut out = Vec::new();
        for &ev in events {
            match ev {
                Ev::Commit(id) => eng.on_entry_committed(id),
                Ev::Stamp(s, id, ts) => eng.on_timestamp(s, id, ts),
            }
            while let Some(e) = eng.pop_ready() {
                out.push(e);
            }
        }
        out
    }

    #[test]
    fn paper_figure_6_example() {
        // Entries from Fig. 6: e2,6 has VTS <6,6,4>, e3,5 has <6,6,5>;
        // e2,6 orders before e3,5 on the third element. We replay a
        // consistent stamp history for 3 groups producing heads e1,7
        // (VTS <7,6,5>), e2,6 <6,6,4>, e3,5 <6,6,5> and check e2,6 first.
        let eng = OrderingEngine::new(3);
        // Advance heads to (1,7), (2,6), (3,5) by ordering the earlier
        // entries; simplest is to stamp everything for seqs below in a
        // fully-synchronized pattern.
        // Instead of replaying 15 entries we verify the Prec relation
        // directly on constructed states:
        let mk = |gid: u32, seq: u64, vts: [u64; 3]| EntryState {
            id: EntryId::new(gid, seq),
            vts: vts.to_vec(),
            set: vec![true; 3],
        };
        let e26 = mk(2, 6, [6, 6, 4]);
        let e35 = mk(3, 5, [6, 6, 5]);
        assert!(prec(&e26, &e35));
        assert!(!prec(&e35, &e26));
        assert_eq!(eng.group_count(), 3);
    }

    #[test]
    fn identical_vts_break_ties_by_seq_then_gid() {
        let mk = |gid: u32, seq: u64| EntryState {
            id: EntryId::new(gid, seq),
            vts: vec![6, 6, 5],
            set: vec![true; 3],
        };
        // Fig. 6's e2,5 and e3,4 have identical VTSs.
        let e25 = mk(2, 5);
        let e34 = mk(3, 4);
        assert!(prec(&e34, &e25), "smaller seq first");
        assert!(!prec(&e25, &e34));
        let a = mk(1, 5);
        let b = mk(2, 5);
        assert!(prec(&a, &b), "equal seq: smaller gid first");
    }

    #[test]
    fn inferred_element_blocks_ordering() {
        // e1 has an inferred element equal to e2's set element: not
        // decidable (e1's actual value may be larger).
        let e1 = EntryState {
            id: EntryId::new(0, 1),
            vts: vec![1, 5],
            set: vec![true, false],
        };
        let e2 = EntryState {
            id: EntryId::new(1, 1),
            vts: vec![1, 5],
            set: vec![true, true],
        };
        assert!(!prec(&e1, &e2));
        assert!(!prec(&e2, &e1)); // e1's inferred 5 could exceed 5
    }

    #[test]
    fn strictly_smaller_set_element_decides_even_with_inferred_rest() {
        let e1 = EntryState {
            id: EntryId::new(0, 1),
            vts: vec![3, 0],
            set: vec![true, false],
        };
        let e2 = EntryState {
            id: EntryId::new(1, 1),
            vts: vec![4, 0],
            set: vec![true, false],
        };
        // e1.vts[0]=3 < e2.vts[0]=4 (both bounds only grow for e2): decided.
        assert!(prec(&e1, &e2));
    }

    #[test]
    fn single_group_orders_committed_entries_only() {
        let mut eng = OrderingEngine::new(1);
        eng.on_entry_committed(EntryId::new(0, 1));
        eng.on_entry_committed(EntryId::new(0, 2));
        let mut got = Vec::new();
        while let Some(e) = eng.pop_ready() {
            got.push(e);
        }
        // Exactly the two committed entries order — the gate stops the
        // head from running ahead of replication.
        assert_eq!(got, vec![EntryId::new(0, 1), EntryId::new(0, 2)]);
    }

    /// Build a consistent event history for `ng` groups × `per_group`
    /// entries: a seeded global interleaving decides the wall-clock commit
    /// order; each commit advances the proposer's clock, and every other
    /// group stamps the entry with its current clock. Two deterministic
    /// *flush rounds* follow, so every clock ends strictly above every
    /// stamp of the body — releasing the whole body (the paper's
    /// Theorem V.6 liveness needs ongoing proposals; a finite history
    /// without a flush legitimately stalls its tail).
    fn consistent_history(ng: usize, per_group: u64, seed: u64) -> Vec<Ev> {
        use rand::{rngs::StdRng, seq::SliceRandom, SeedableRng};
        let mut rng = StdRng::seed_from_u64(seed);
        let mut next = vec![1u64; ng];
        let mut order: Vec<EntryId> = Vec::new();
        loop {
            let remaining: Vec<(u32, u64)> = (0..ng)
                .filter(|&g| next[g] <= per_group)
                .map(|g| (g as u32, next[g]))
                .collect();
            if remaining.is_empty() {
                break;
            }
            let &(g, s) = remaining.choose(&mut rng).expect("nonempty");
            order.push(EntryId::new(g, s));
            next[g as usize] = s + 1;
        }
        // Flush rounds commit strictly after the body, one group at a time.
        for r in 1..=2u64 {
            for g in 0..ng as u32 {
                order.push(EntryId::new(g, per_group + r));
            }
        }
        let mut clk = vec![0u64; ng];
        let mut events = Vec::new();
        for id in &order {
            clk[id.gid as usize] = id.seq; // proposer's clock advances
            events.push(Ev::Commit(*id));
            for j in 0..ng as u32 {
                if j != id.gid {
                    events.push(Ev::Stamp(j, *id, clk[j as usize]));
                }
            }
        }
        events
    }

    /// Shuffle events across instances while preserving each instance's
    /// internal order (what real Raft delivery allows).
    fn shuffle_preserving_instances(ng: usize, events: &[Ev], seed: u64) -> Vec<Ev> {
        use rand::{rngs::StdRng, Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(seed);
        let mut per: Vec<VecDeque<Ev>> = vec![VecDeque::new(); ng];
        for &e in events {
            per[e.instance() as usize].push_back(e);
        }
        let mut merged = Vec::new();
        while per.iter().any(|q| !q.is_empty()) {
            let nonempty: Vec<usize> = (0..ng).filter(|&i| !per[i].is_empty()).collect();
            let pick = nonempty[rng.gen_range(0..nonempty.len())];
            merged.push(per[pick].pop_front().expect("nonempty"));
        }
        merged
    }

    /// The engine's liveness matches the paper's Theorem V.6: the tail of
    /// a *finite* history can stall because no later proposal raises the
    /// inference bounds. Histories therefore append two flush rounds
    /// (enough to push every clock strictly past every earlier stamp) and
    /// assertions cover the first `per_group` seqs.
    fn ordered_below(order: &[EntryId], per_group: u64) -> Vec<EntryId> {
        order
            .iter()
            .copied()
            .filter(|e| e.seq <= per_group)
            .collect()
    }

    #[test]
    fn all_entries_eventually_ordered() {
        let events = consistent_history(3, 10, 1);
        let order = ordered_below(&order_of(3, &events), 10);
        assert_eq!(order.len() as u64, 3 * 10);
        // Per-group seq order must be preserved (Lemma V.5).
        for g in 0..3u32 {
            let seqs: Vec<u64> = order.iter().filter(|e| e.gid == g).map(|e| e.seq).collect();
            assert_eq!(seqs, (1..=10).collect::<Vec<_>>());
        }
    }

    #[test]
    fn agreement_under_cross_instance_reordering() {
        // Same history delivered with different interleavings across
        // instances (within-instance order preserved) must produce the
        // same total order — the paper's Agreement property.
        let events = consistent_history(3, 8, 2);
        let baseline = ordered_below(&order_of(3, &events), 8);
        assert_eq!(baseline.len(), 24);
        for seed in 0..10u64 {
            let merged = shuffle_preserving_instances(3, &events, seed);
            assert_eq!(
                ordered_below(&order_of(3, &merged), 8),
                baseline,
                "seed {seed}"
            );
        }
    }

    #[test]
    fn fast_group_not_blocked_by_slow_group() {
        // Group 0 proposes 10 entries for every entry of slow group 1.
        // Group 0's entries must keep ordering between group 1's commits —
        // the asynchronous-ordering claim (paper Fig. 2 versus §V).
        let mut eng = OrderingEngine::new(2);
        let mut executed = Vec::new();
        let drain = |eng: &mut OrderingEngine, executed: &mut Vec<EntryId>| {
            while let Some(e) = eng.pop_ready() {
                executed.push(e);
            }
        };
        let mut clk1 = 0u64;
        for burst in 0..3u64 {
            for k in 1..=10u64 {
                let id = EntryId::new(0, burst * 10 + k);
                eng.on_entry_committed(id);
                eng.on_timestamp(1, id, clk1);
                drain(&mut eng, &mut executed);
            }
            // Slow group finally commits one entry, stamped by group 0.
            let slow = EntryId::new(1, burst + 1);
            eng.on_entry_committed(slow);
            eng.on_timestamp(0, slow, (burst + 1) * 10);
            clk1 = burst + 1;
            drain(&mut eng, &mut executed);
            // After each burst, most of group 0's entries are already out:
            // at minimum everything strictly below the burst boundary.
            let g0_done = executed.iter().filter(|e| e.gid == 0).count() as u64;
            assert!(
                g0_done >= burst * 10 + 9,
                "burst {burst}: only {g0_done} of group 0 ordered"
            );
        }
        assert_eq!(executed.iter().filter(|e| e.gid == 1).count(), 3);
    }

    #[test]
    fn duplicate_and_stale_events_are_harmless() {
        let events = consistent_history(2, 5, 3);
        let mut doubled = Vec::new();
        for &e in &events {
            doubled.push(e);
            doubled.push(e); // duplicate delivery
        }
        let order = ordered_below(&order_of(2, &doubled), 5);
        assert_eq!(order.len(), 10);
        assert_eq!(order, ordered_below(&order_of(2, &events), 5));
    }

    #[test]
    fn future_stamps_apply_when_head_advances() {
        let mut eng = OrderingEngine::new(2);
        // Stamp e0,2 before e0,1 is ordered.
        eng.on_timestamp(1, EntryId::new(0, 2), 1);
        assert!(eng.future_stamps.contains_key(&EntryId::new(0, 2)));
        eng.on_entry_committed(EntryId::new(0, 1));
        eng.on_timestamp(1, EntryId::new(0, 1), 0);
        // Give group 1 visible progress so the ordering of e0,1 against
        // group 1's (nonexistent) head resolves.
        eng.on_entry_committed(EntryId::new(1, 1));
        eng.on_timestamp(0, EntryId::new(1, 1), 2);
        // Draining e0,1 must consume the stored stamp for e0,2.
        let mut got = Vec::new();
        while let Some(e) = eng.pop_ready() {
            got.push(e);
        }
        assert!(got.contains(&EntryId::new(0, 1)), "{got:?}");
        assert!(!eng.future_stamps.contains_key(&EntryId::new(0, 2)));
    }

    #[test]
    fn uncommitted_entry_never_emitted() {
        let mut eng = OrderingEngine::new(2);
        // Fully stamp e0,1 but never commit it.
        eng.on_timestamp(1, EntryId::new(0, 1), 0);
        assert!(eng.pop_ready().is_none());
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        #[test]
        fn prop_total_order_is_agreement_stable(
            ng in 2usize..5,
            per_group in 1u64..12,
            seed in any::<u64>(),
            shuffle_seed in any::<u64>(),
        ) {
            let events = consistent_history(ng, per_group, seed);
            let baseline = ordered_below(&order_of(ng, &events), per_group);
            prop_assert_eq!(baseline.len() as u64, ng as u64 * per_group);
            let merged = shuffle_preserving_instances(ng, &events, shuffle_seed);
            prop_assert_eq!(
                ordered_below(&order_of(ng, &merged), per_group),
                baseline
            );
        }

        #[test]
        fn prop_per_group_monotonicity(
            ng in 2usize..5,
            per_group in 1u64..10,
            seed in any::<u64>(),
        ) {
            let events = consistent_history(ng, per_group, seed);
            let order = ordered_below(&order_of(ng, &events), per_group);
            for g in 0..ng as u32 {
                let seqs: Vec<u64> =
                    order.iter().filter(|e| e.gid == g).map(|e| e.seq).collect();
                let mut sorted = seqs.clone();
                sorted.sort_unstable();
                prop_assert_eq!(seqs, sorted, "group {} out of order", g);
            }
        }
    }
}
