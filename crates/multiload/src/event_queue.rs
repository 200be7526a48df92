//! The **indexed pending set** of the service engine: the data structure
//! that answers "which pending load is served next?" without rescanning
//! every load.
//!
//! A linear rescan ([`crate::schedule_reference`],
//! [`crate::serve_trace_reference`]) re-ranks every pending load at every
//! decision — fine for hundreds of loads, `O(n)` comparisons and `powf`s
//! per decision for the million-load arrival streams the service engine
//! targets. [`PendingSet`] replaces the scan with two representations,
//! chosen by the admission order:
//!
//! * **Indexed** (FIFO, SRPT): the priority key of a pending load is
//!   *static* — it changes only when the load itself is served (SRPT's
//!   remaining-work estimate) or never (FIFO's release time). A binary
//!   min-heap over `(key, id)` is therefore exact: pop the root, serve,
//!   re-push with the updated key. `O(log n)` per decision, no stale
//!   entries, no lazy deletion.
//! * **Lazy** (weighted stretch): the key `−(waited + est)/alone` drifts
//!   with `now` at a *per-load* rate (`1/alone`), so an order frozen into
//!   a heap at push time is simply wrong at pop time — a stale entry can
//!   overtake a fresh one. The set therefore keeps the entries in a flat
//!   list and **re-keys lazily at each pop**: `O(n)` comparisons, like
//!   the rescan, but `O(0)` transcendentals, because the
//!   remaining-work estimate and the alone makespan are cached in the
//!   entry and only the cheap affine combination is recomputed.
//!
//! Both representations break key ties by arrival id — the same
//! `(key, id)` total order ([`f64::total_cmp`]) as the rescan — so the
//! engine reproduces its reference decision for decision. The batch
//! entry points use the batch index as the id.
//!
//! The set also records its **high-water mark**: the service engine's
//! steady-memory claim is precisely that this number stays bounded by the
//! arrival backlog, never growing with the total trace length.

use crate::policy::AdmissionOrder;
use std::cmp::Ordering;
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// Selection snapshot of one pending load. The fields are exactly the
/// inputs of [`AdmissionOrder`]'s priority key; they are cached here so a
/// decision costs zero transcendentals. `est` is refreshed by the engine
/// whenever the load's remaining size changes (the only time it can), so
/// snapshots are never stale.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PendingEntry {
    /// Arrival sequence number — the tie-breaker of the admission order
    /// and the engine's handle into its per-load state.
    pub id: u64,
    /// Release time of the load (the FIFO key and the waiting-time origin
    /// of the weighted-stretch key).
    pub release: f64,
    /// Cached remaining-work estimate `R^α / Σ s_i` (the SRPT key).
    pub est: f64,
    /// Granularity-matched alone makespan — the weighted-stretch
    /// denominator. `0.0` when stretch tracking is off (never read by the
    /// static-key orders).
    pub alone: f64,
}

/// Heap item: ordered by `(key, id)` ascending; the payload rides along.
#[derive(Debug, Clone, Copy)]
struct Keyed {
    key: f64,
    entry: PendingEntry,
}

impl PartialEq for Keyed {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other) == Ordering::Equal
    }
}
impl Eq for Keyed {}
impl PartialOrd for Keyed {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for Keyed {
    fn cmp(&self, other: &Self) -> Ordering {
        self.key
            .total_cmp(&other.key)
            .then(self.entry.id.cmp(&other.entry.id))
    }
}

#[derive(Debug)]
enum Queue {
    /// Min-heap over `(key, id)` — exact for static-key orders.
    Indexed(BinaryHeap<Reverse<Keyed>>),
    /// Flat list, re-keyed lazily at each pop — time-varying keys.
    Lazy(Vec<PendingEntry>),
}

/// The indexed pending set: released-but-unfinished loads, ranked under
/// one [`AdmissionOrder`]. See the module docs for the two
/// representations and why each is exact.
#[derive(Debug)]
pub struct PendingSet {
    order: AdmissionOrder,
    queue: Queue,
    high_water: usize,
}

impl PendingSet {
    /// Empty pending set for `order`: a heap for the static-key orders,
    /// a lazily re-keyed list for weighted stretch.
    pub fn new(order: AdmissionOrder) -> Self {
        let queue = if order.key_is_static() {
            Queue::Indexed(BinaryHeap::new())
        } else {
            Queue::Lazy(Vec::new())
        };
        Self {
            order,
            queue,
            high_water: 0,
        }
    }

    /// Number of pending loads.
    pub fn len(&self) -> usize {
        match &self.queue {
            Queue::Indexed(h) => h.len(),
            Queue::Lazy(v) => v.len(),
        }
    }

    /// Whether no load is pending.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Largest number of loads ever pending at once — the service
    /// engine's steady-memory witness.
    pub fn high_water(&self) -> usize {
        self.high_water
    }

    /// Inserts a pending load. For the static-key orders the key is
    /// frozen now (`now` only matters to the time-varying key, which is
    /// not heaped); pushing the same id twice is the caller's bug.
    pub fn push(&mut self, entry: PendingEntry, now: f64) {
        match &mut self.queue {
            Queue::Indexed(h) => {
                let key = self.order.key(entry.release, entry.est, entry.alone, now);
                h.push(Reverse(Keyed { key, entry }));
            }
            Queue::Lazy(v) => v.push(entry),
        }
        self.high_water = self.high_water.max(self.len());
    }

    /// Removes and returns the load with the minimum `(key, id)` at
    /// instant `now` — the next load the platform serves.
    pub fn pop_min(&mut self, now: f64) -> Option<PendingEntry> {
        match &mut self.queue {
            Queue::Indexed(h) => h.pop().map(|Reverse(k)| k.entry),
            Queue::Lazy(v) => {
                let mut best: Option<(f64, usize)> = None;
                for (pos, e) in v.iter().enumerate() {
                    let key = self.order.key(e.release, e.est, e.alone, now);
                    // (key, id) lexicographic; `v` is not id-sorted after
                    // swap_remove, so ties compare ids explicitly.
                    let better = best.is_none_or(|(bk, bpos)| match key.total_cmp(&bk) {
                        Ordering::Less => true,
                        Ordering::Equal => e.id < v[bpos].id,
                        Ordering::Greater => false,
                    });
                    if better {
                        best = Some((key, pos));
                    }
                }
                best.map(|(_, pos)| v.swap_remove(pos))
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn entry(id: u64, release: f64, est: f64, alone: f64) -> PendingEntry {
        PendingEntry {
            id,
            release,
            est,
            alone,
        }
    }

    /// Ground truth: argmin of (key, id) by linear scan over the entries.
    fn scan_min(order: AdmissionOrder, entries: &[PendingEntry], now: f64) -> u64 {
        entries
            .iter()
            .min_by(|a, b| {
                let ka = order.key(a.release, a.est, a.alone, now);
                let kb = order.key(b.release, b.est, b.alone, now);
                ka.total_cmp(&kb).then(a.id.cmp(&b.id))
            })
            .unwrap()
            .id
    }

    /// Deterministic pseudo-random f64 in [0, 50): cheap LCG, no rand dep.
    fn lcg(state: &mut u64) -> f64 {
        *state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        (*state >> 11) as f64 / (1u64 << 53) as f64 * 50.0
    }

    #[test]
    fn pop_sequence_matches_linear_scan_for_every_order() {
        for order in AdmissionOrder::ALL {
            let mut state = 0x5eed_u64;
            let mut entries: Vec<PendingEntry> = (0..64)
                .map(|id| entry(id, lcg(&mut state), lcg(&mut state), lcg(&mut state) + 1.0))
                .collect();
            let mut set = PendingSet::new(order);
            let mut now = 0.0;
            for e in &entries {
                set.push(*e, now);
            }
            while !entries.is_empty() {
                let want = scan_min(order, &entries, now);
                let got = set.pop_min(now).unwrap();
                assert_eq!(got.id, want, "{order:?} at now={now}");
                entries.retain(|e| e.id != want);
                // Advance time between decisions: exercises the
                // time-varying weighted-stretch key.
                now += 3.25;
            }
            assert!(set.is_empty());
            assert_eq!(set.high_water(), 64);
        }
    }

    #[test]
    fn ties_break_by_arrival_id() {
        for order in AdmissionOrder::ALL {
            let mut set = PendingSet::new(order);
            // Identical keys under every order: same release/est/alone.
            for id in [7u64, 2, 5, 0, 3] {
                set.push(entry(id, 1.0, 4.0, 2.0), 0.0);
            }
            let ids: Vec<u64> = std::iter::from_fn(|| set.pop_min(0.0).map(|e| e.id)).collect();
            assert_eq!(ids, vec![0, 2, 3, 5, 7], "{order:?}");
        }
    }

    #[test]
    fn weighted_stretch_rekeys_at_pop_time_not_push_time() {
        // Load 0: released long ago, big alone (slow stretch growth).
        // Load 1: just released, tiny alone (fast stretch growth).
        // At push time (now = 10) load 0 is more urgent; by now = 100
        // load 1 has overtaken it. A heap frozen at push time would pop
        // load 0; the lazy set must pop load 1.
        let mut set = PendingSet::new(AdmissionOrder::WeightedStretch);
        let a = entry(0, 0.0, 1.0, 100.0);
        let b = entry(1, 10.0, 0.05, 1.0);
        set.push(a, 10.0);
        set.push(b, 10.0);
        let k = |e: &PendingEntry, now: f64| {
            AdmissionOrder::WeightedStretch.key(e.release, e.est, e.alone, now)
        };
        assert!(k(&a, 10.0) < k(&b, 10.0), "a is more urgent at push time");
        assert_eq!(set.pop_min(100.0).unwrap().id, 1);
        assert_eq!(set.pop_min(100.0).unwrap().id, 0);
    }

    #[test]
    fn high_water_tracks_the_peak_not_the_sum() {
        let mut set = PendingSet::new(AdmissionOrder::Srpt);
        for id in 0..10 {
            set.push(entry(id, 0.0, id as f64, 1.0), 0.0);
        }
        for _ in 0..8 {
            set.pop_min(0.0);
        }
        for id in 10..14 {
            set.push(entry(id, 0.0, id as f64, 1.0), 0.0);
        }
        // Peak was 10 (before the pops); 2 + 4 = 6 now.
        assert_eq!(set.len(), 6);
        assert_eq!(set.high_water(), 10);
    }
}
