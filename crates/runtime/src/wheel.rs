//! Hierarchical timer wheel, one per reactor thread, holding the timers
//! and delayed sends of every node the reactor hosts.
//!
//! The simulator orders timers in a global binary heap. The wheel gives
//! O(1) insert and amortized O(1) advance at a 1.024 ms tick, coarse
//! enough to batch wakeups and fine enough for the protocol's shortest
//! timers (batch ticks, heartbeats — all ≥ a few milliseconds).
//!
//! Four levels of 64 slots cover deadlines up to 64^4 ticks ≈ 4.7 hours;
//! anything later is clamped into the top level and re-cascaded, which
//! only delays (never loses) it. Timers fire late by at most one tick,
//! never early — `advance` pops an item only once its exact microsecond
//! deadline has passed.

const SLOTS: usize = 64;
const LEVELS: usize = 4;
/// Microseconds per tick (1 << 10 keeps the µs→tick conversion a shift).
const TICK_US: u64 = 1 << 10;

struct Item<T> {
    deadline_us: u64,
    value: T,
}

/// A hierarchical timing wheel holding values of type `T`.
pub struct TimerWheel<T> {
    levels: Vec<Vec<Vec<Item<T>>>>,
    /// The tick all levels are aligned to; slot indices derive from it.
    current: u64,
    len: usize,
}

impl<T> TimerWheel<T> {
    /// An empty wheel anchored at `now_us`.
    pub fn new(now_us: u64) -> Self {
        let levels = (0..LEVELS)
            .map(|_| (0..SLOTS).map(|_| Vec::new()).collect())
            .collect();
        TimerWheel {
            levels,
            current: now_us / TICK_US,
            len: 0,
        }
    }

    /// Number of pending timers.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether no timers are pending.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Schedules `value` to fire once `deadline_us` has passed.
    pub fn insert(&mut self, deadline_us: u64, value: T) {
        let deadline_tick = deadline_us / TICK_US;
        let item = Item { deadline_us, value };
        let dt = deadline_tick.saturating_sub(self.current);
        let (level, slot) = if dt < SLOTS as u64 {
            // Past-due deadlines go into the cursor's own slot, which
            // `advance` pops before stepping ticks.
            let eff = deadline_tick.max(self.current);
            (0, (eff as usize) & (SLOTS - 1))
        } else if dt < (SLOTS * SLOTS) as u64 {
            (1, ((deadline_tick >> 6) as usize) & (SLOTS - 1))
        } else if dt < (SLOTS * SLOTS * SLOTS) as u64 {
            (2, ((deadline_tick >> 12) as usize) & (SLOTS - 1))
        } else {
            // Clamp far-future deadlines into the top level; cascading
            // re-inserts them with the then-smaller delta.
            let dt = dt.min((SLOTS as u64).pow(LEVELS as u32) - 1);
            (3, (((self.current + dt) >> 18) as usize) & (SLOTS - 1))
        };
        self.levels[level][slot].push(item);
        self.len += 1;
    }

    /// Advances wall time to `now_us`, appending every expired value to
    /// `out` (in no particular order — ties are resolved by the caller's
    /// processing order, which matches the sim engine's same-instant
    /// behavior of draining whatever is due).
    pub fn advance(&mut self, now_us: u64, out: &mut Vec<T>) {
        let target = now_us / TICK_US;
        // The cursor's own slot may hold items inserted with already-past
        // deadlines; pop what's due before stepping.
        self.pop_due(self.current, now_us, out);
        while self.current < target {
            self.current += 1;
            self.cascade();
            if self.current < target {
                // A fully elapsed tick: everything in its L0 slot is due.
                let slot = (self.current as usize) & (SLOTS - 1);
                let items = &mut self.levels[0][slot];
                self.len -= items.len();
                out.extend(items.drain(..).map(|i| i.value));
            } else {
                // The target tick itself may hold items whose microsecond
                // deadline is still ahead; pop only what's actually due.
                self.pop_due(target, now_us, out);
            }
        }
    }

    fn pop_due(&mut self, tick: u64, now_us: u64, out: &mut Vec<T>) {
        let items = &mut self.levels[0][(tick as usize) & (SLOTS - 1)];
        let mut i = 0;
        while i < items.len() {
            if items[i].deadline_us <= now_us {
                let item = items.swap_remove(i);
                self.len -= 1;
                out.push(item.value);
            } else {
                i += 1;
            }
        }
    }

    /// Re-distributes higher-level slots whose window just opened.
    fn cascade(&mut self) {
        for level in 1..LEVELS {
            let mask = (SLOTS as u64).pow(level as u32) - 1;
            if self.current & mask != 0 {
                break;
            }
            let slot = ((self.current >> (6 * level)) as usize) & (SLOTS - 1);
            let items: Vec<Item<T>> = self.levels[level][slot].drain(..).collect();
            for item in items {
                self.len -= 1;
                self.insert(item.deadline_us, item.value);
            }
        }
    }

    /// Earliest pending deadline in µs, if any. Linear in pending timers;
    /// a reactor holds a handful per node (protocol timers, delayed sends).
    pub fn next_deadline(&self) -> Option<u64> {
        if self.len == 0 {
            return None;
        }
        let mut min = u64::MAX;
        for level in &self.levels {
            for slot in level {
                for item in slot {
                    min = min.min(item.deadline_us);
                }
            }
        }
        Some(min)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fires_in_order_never_early() {
        let mut w = TimerWheel::new(0);
        w.insert(5_000, "a");
        w.insert(2_000, "b");
        w.insert(2_000_000, "c");
        let mut out = Vec::new();
        w.advance(1_999, &mut out);
        assert!(out.is_empty());
        w.advance(2_000, &mut out);
        assert_eq!(out, vec!["b"]);
        out.clear();
        w.advance(1_000_000, &mut out);
        assert_eq!(out, vec!["a"]);
        out.clear();
        w.advance(3_000_000, &mut out);
        assert_eq!(out, vec!["c"]);
        assert!(w.is_empty());
    }

    #[test]
    fn cascades_long_deadlines() {
        let mut w = TimerWheel::new(0);
        // Deadlines spanning all four levels plus a clamped one.
        let deadlines = [
            TICK_US * 10,
            TICK_US * 100,
            TICK_US * 5_000,
            TICK_US * 300_000,
            TICK_US * 20_000_000,
        ];
        for (i, &d) in deadlines.iter().enumerate() {
            w.insert(d, i);
        }
        let mut fired = Vec::new();
        let mut t = 0;
        while !w.is_empty() && t < TICK_US * 40_000_000 {
            t += TICK_US * 997; // uneven stride across slot boundaries
            let before = fired.len();
            w.advance(t, &mut fired);
            for &idx in &fired[before..] {
                assert!(t >= deadlines[idx], "timer {idx} fired early");
                assert!(
                    t - deadlines[idx] <= TICK_US * 1_000,
                    "timer {idx} fired far too late"
                );
            }
        }
        let mut sorted = fired.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn next_deadline_tracks_min() {
        let mut w = TimerWheel::new(1_000_000);
        assert_eq!(w.next_deadline(), None);
        w.insert(1_500_000, ());
        w.insert(1_200_000, ());
        assert_eq!(w.next_deadline(), Some(1_200_000));
        let mut out = Vec::new();
        w.advance(1_300_000, &mut out);
        assert_eq!(out.len(), 1);
        assert_eq!(w.next_deadline(), Some(1_500_000));
    }

    #[test]
    fn anchored_wheel_accepts_past_deadlines() {
        let mut w = TimerWheel::new(5_000_000);
        w.insert(4_000_000, "late");
        let mut out = Vec::new();
        w.advance(5_001_000, &mut out);
        assert_eq!(out, vec!["late"]);
    }
}
