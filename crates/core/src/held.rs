//! Raft appends held back until the entries they carry are safely
//! replicated (paper Lemma V.1), indexed by what they wait on.
//!
//! A held append names its blockers: the carried entries that were not safe
//! when it arrived. [`HeldAppends::note_safe`] counts a blocker off wherever
//! an entry becomes safe; at zero the append is *ready*, and stays so,
//! because safety is monotone. A replay pass hands out the ready appends in
//! key order — instance, then arrival — and looks at nothing else: what was
//! a re-dispatch of every held append on every accept notice and content
//! arrival is a range lookup that usually finds the ready set empty.

use crate::entry::EntryId;
use massbft_db::hash::FastMap;
use std::collections::{BTreeMap, BTreeSet};

/// `(raft instance, arrival ticket)`: replay order.
pub(crate) type HeldKey = (u32, u64);
/// A replay pass: the key it resumes at and the bound it stops below.
pub(crate) type Pass = (HeldKey, HeldKey);

/// Held items of type `M` with their outstanding blocker counts.
pub(crate) struct HeldAppends<M> {
    held: BTreeMap<HeldKey, (usize, M)>,
    /// Blocker → the appends waiting on it, once per occurrence. Looked up
    /// and removed by key; iterated only, sorted, by the repair tick.
    waiters: FastMap<EntryId, Vec<HeldKey>>,
    ready: BTreeSet<HeldKey>,
    next_ticket: u64,
    /// The append being dispatched, if any: a pass opened inside its
    /// dispatch sees only the keys below it — what the dispatching pass has
    /// walked by — so one instance's appends also *finish* in arrival order.
    dispatching: HeldKey,
}

impl<M> HeldAppends<M> {
    pub(crate) fn new() -> Self {
        HeldAppends {
            held: BTreeMap::new(),
            waiters: FastMap::default(),
            ready: BTreeSet::new(),
            next_ticket: 0,
            dispatching: (u32::MAX, u64::MAX),
        }
    }

    /// Appends held, ready or not.
    pub(crate) fn len(&self) -> usize {
        self.held.len()
    }

    /// The entries some held append still waits on, in order: what pull
    /// repair fetches for this node.
    pub(crate) fn blockers(&self) -> Vec<EntryId> {
        let mut ids: Vec<EntryId> = self.waiters.keys().copied().collect();
        ids.sort();
        ids
    }

    /// Holds `item` of `instance` until every entry of `blockers` (not
    /// empty) has been reported safe.
    pub(crate) fn hold(&mut self, instance: u32, blockers: Vec<EntryId>, item: M) {
        let key = (instance, self.next_ticket);
        self.next_ticket += 1;
        self.held.insert(key, (blockers.len(), item));
        for id in blockers {
            self.waiters.entry(id).or_default().push(key);
        }
    }

    /// `id` became safely replicated. Dispatches nothing.
    pub(crate) fn note_safe(&mut self, id: EntryId) {
        for key in self.waiters.remove(&id).unwrap_or_default() {
            let (left, _) = self.held.get_mut(&key).expect("waiters name held appends");
            *left -= 1;
            if *left == 0 {
                self.ready.insert(key);
            }
        }
    }

    /// Opens a replay pass; hand it back to [`HeldAppends::end_replay`].
    pub(crate) fn begin_replay(&self) -> Pass {
        ((0, 0), self.dispatching)
    }

    /// The pass's next ready append, in key order. One that becomes ready
    /// during a dispatch is taken by this pass if it lies ahead, and by a
    /// nested or later pass if behind.
    pub(crate) fn next_ready(&mut self, pass: &mut Pass) -> Option<(u32, M)> {
        let key = *self.ready.range(pass.0..pass.1).next()?;
        self.ready.remove(&key);
        pass.0 = (key.0, key.1 + 1);
        self.dispatching = key;
        let (_, item) = self.held.remove(&key).expect("ready appends are held");
        Some((key.0, item))
    }

    pub(crate) fn end_replay(&mut self, pass: Pass) {
        self.dispatching = pass.1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn e(gid: u32, seq: u64) -> EntryId {
        EntryId::new(gid, seq)
    }

    /// Drains one top-level pass.
    fn replay(h: &mut HeldAppends<&'static str>) -> Vec<(u32, &'static str)> {
        let mut pass = h.begin_replay();
        let mut out = Vec::new();
        while let Some(x) = h.next_ready(&mut pass) {
            out.push(x);
        }
        h.end_replay(pass);
        out
    }

    #[test]
    fn released_exactly_once_after_the_last_blocker_in_any_order() {
        let blockers = [e(1, 4), e(1, 5), e(2, 9)];
        // All six arrival orders of three blockers.
        for order in [
            [0, 1, 2],
            [0, 2, 1],
            [1, 0, 2],
            [1, 2, 0],
            [2, 0, 1],
            [2, 1, 0],
        ] {
            let mut h = HeldAppends::new();
            h.hold(1, blockers.to_vec(), "append");
            for (n, &i) in order.iter().enumerate() {
                assert!(replay(&mut h).is_empty(), "released early, {order:?}");
                h.note_safe(blockers[i]);
                assert_eq!(h.len(), 1, "still held until replayed");
                if n < 2 {
                    // An unrelated or repeated notice changes nothing.
                    h.note_safe(e(7, 7));
                    h.note_safe(blockers[i]);
                }
            }
            assert_eq!(replay(&mut h), vec![(1, "append")], "{order:?}");
            assert!(replay(&mut h).is_empty(), "released twice, {order:?}");
            assert_eq!(h.len(), 0);
        }
    }

    #[test]
    fn one_instance_keeps_fifo_and_instances_replay_in_key_order() {
        let mut h = HeldAppends::new();
        h.hold(3, vec![e(0, 1)], "c1");
        h.hold(1, vec![e(0, 2)], "a1");
        h.hold(1, vec![e(0, 1)], "a2");
        h.hold(1, vec![e(0, 3)], "a3");
        // The later append of instance 1 becomes ready first, then the
        // earlier one: the pass still hands them out in arrival order.
        h.note_safe(e(0, 1));
        h.note_safe(e(0, 2));
        assert_eq!(replay(&mut h), vec![(1, "a1"), (1, "a2"), (3, "c1")]);
        assert_eq!(h.len(), 1);
        h.note_safe(e(0, 3));
        assert_eq!(replay(&mut h), vec![(1, "a3")]);
    }

    #[test]
    fn the_outstanding_blockers_are_named_once_each_in_order() {
        let mut h = HeldAppends::new();
        assert!(h.blockers().is_empty());
        h.hold(1, vec![e(2, 7), e(0, 3)], "a");
        h.hold(0, vec![e(0, 3), e(1, 1)], "b");
        assert_eq!(h.blockers(), [e(0, 3), e(1, 1), e(2, 7)]);
        // A blocker counted off is no longer wanted, even while its append
        // is held for another; a ready append names nothing.
        h.note_safe(e(0, 3));
        h.note_safe(e(1, 1));
        assert_eq!(h.blockers(), [e(2, 7)]);
        assert_eq!((h.len(), replay(&mut h)), (2, vec![(0, "b")]));
        h.note_safe(e(2, 7));
        assert!(h.blockers().is_empty());
    }

    #[test]
    fn an_entry_carried_twice_counts_twice() {
        let mut h = HeldAppends::new();
        h.hold(0, vec![e(1, 1), e(1, 1)], "dup");
        h.note_safe(e(1, 1));
        assert_eq!(replay(&mut h), vec![(0, "dup")]);
    }

    #[test]
    fn nested_pass_sees_only_what_the_outer_pass_walked_by() {
        let mut h = HeldAppends::new();
        h.hold(1, vec![e(0, 1)], "behind");
        h.hold(2, vec![e(0, 2)], "current");
        h.hold(3, vec![e(0, 3)], "ahead");
        h.note_safe(e(0, 2));
        let mut outer = h.begin_replay();
        assert_eq!(h.next_ready(&mut outer), Some((2, "current")));
        // Dispatching "current" makes one append behind the cursor and one
        // ahead of it ready, then replays: only the one behind is seen.
        h.note_safe(e(0, 1));
        h.note_safe(e(0, 3));
        assert_eq!(replay(&mut h), vec![(1, "behind")]);
        // The outer pass goes on to the one ahead.
        assert_eq!(h.next_ready(&mut outer), Some((3, "ahead")));
        assert_eq!(h.next_ready(&mut outer), None);
        h.end_replay(outer);
    }
}
