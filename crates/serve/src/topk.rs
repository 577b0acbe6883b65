//! A bounded top-k accumulator: a size-`k` min-heap over `(score, item)`.
//!
//! Candidate ordering matches the historical recommender contract exactly —
//! higher score first, ties broken by the *smaller* item id — so the heap
//! selection is rank-identical to sorting the full score vector and
//! truncating, at `O(n log k)` instead of `O(n log n)`.

use std::cmp::Ordering;
use std::collections::BinaryHeap;

/// One scored candidate. `Ord` is "better-than": greater = higher score,
/// ties = smaller item id.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct Candidate {
    pub item: u32,
    pub score: f32,
}

impl Eq for Candidate {}

impl Ord for Candidate {
    fn cmp(&self, other: &Self) -> Ordering {
        // total_cmp gives a total order on f32 (scores from finite factors
        // are finite, but a NaN must still not poison the heap invariant).
        self.score
            .total_cmp(&other.score)
            .then_with(|| other.item.cmp(&self.item))
    }
}

impl PartialOrd for Candidate {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

/// Keeps the `k` best candidates seen so far.
#[derive(Debug)]
pub(crate) struct TopK {
    k: usize,
    /// Min-heap via `Reverse`: the root is the *worst* kept candidate, the
    /// one a better newcomer evicts.
    heap: BinaryHeap<std::cmp::Reverse<Candidate>>,
}

impl TopK {
    pub fn new(k: usize) -> TopK {
        TopK {
            k,
            // `k` is the caller's number ("everything" may be usize::MAX):
            // reserve for ordinary answers, let an enormous one grow.
            heap: BinaryHeap::with_capacity(k.min(1024)),
        }
    }

    /// Offers a candidate; keeps it only if it beats the current worst. A
    /// full heap compares against its root first — nearly every offer of a
    /// scan ends there — and an accepted candidate overwrites the root in
    /// place, one sift-down instead of a pop and a push.
    #[inline]
    pub fn offer(&mut self, item: u32, score: f32) {
        let cand = Candidate { item, score };
        if self.heap.len() < self.k {
            self.heap.push(std::cmp::Reverse(cand));
        } else if let Some(mut worst) = self.heap.peek_mut() {
            if cand > worst.0 {
                *worst = std::cmp::Reverse(cand);
            }
        }
    }

    /// Whether the heap already holds `k` candidates — the precondition
    /// for pruning on [`floor`](TopK::floor) (a non-full heap accepts any
    /// candidate, so nothing may be skipped yet). Vacuously true for
    /// `k = 0`, where every candidate is refused.
    #[inline]
    pub fn is_full(&self) -> bool {
        self.heap.len() >= self.k
    }

    /// The score a newcomer must *beat* to enter a full heap (the worst
    /// kept candidate's score), or `None` when `k = 0` and nothing can
    /// ever enter. A scan may skip any candidate whose score upper bound
    /// is strictly below this floor; a bound exactly equal to the floor
    /// must still be scored (equal scores win on smaller item id).
    #[inline]
    pub fn floor(&self) -> Option<f32> {
        self.heap.peek().map(|worst| worst.0.score)
    }

    /// Drains into a best-first `(item, score)` list.
    pub fn into_sorted(self) -> Vec<(u32, f32)> {
        let mut out: Vec<Candidate> = self.heap.into_iter().map(|r| r.0).collect();
        out.sort_by(|a, b| b.cmp(a));
        out.into_iter().map(|c| (c.item, c.score)).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn keeps_best_k_in_rank_order() {
        let mut t = TopK::new(3);
        for (i, s) in [(0, 1.0), (1, 5.0), (2, 3.0), (3, 4.0), (4, 2.0)] {
            t.offer(i, s);
        }
        assert_eq!(t.into_sorted(), vec![(1, 5.0), (3, 4.0), (2, 3.0)]);
    }

    #[test]
    fn ties_break_toward_smaller_item() {
        let mut t = TopK::new(2);
        for i in [5u32, 1, 3, 2] {
            t.offer(i, 7.0);
        }
        assert_eq!(t.into_sorted(), vec![(1, 7.0), (2, 7.0)]);
        // A full heap whose floor ties the newcomer's score: the smaller id
        // evicts the larger one, the larger id is refused.
        let mut t = TopK::new(3);
        for (i, s) in [(4u32, 9.0), (8, 7.0), (6, 7.0)] {
            t.offer(i, s);
        }
        t.offer(9, 7.0); // ties the floor with a larger id than the root (8)
        t.offer(7, 7.0); // evicts 8
        t.offer(2, 7.0); // evicts 7
        assert_eq!(t.floor(), Some(7.0));
        assert_eq!(t.into_sorted(), vec![(4, 9.0), (2, 7.0), (6, 7.0)]);
    }

    #[test]
    fn zero_k_stays_empty_and_fewer_candidates_than_k_is_fine() {
        let mut t = TopK::new(0);
        t.offer(0, 1.0);
        assert!(t.into_sorted().is_empty());
        for k in [10, usize::MAX] {
            let mut t = TopK::new(k);
            t.offer(0, 1.0);
            assert_eq!(t.into_sorted().len(), 1);
        }
    }

    #[test]
    fn floor_tracks_the_worst_kept_candidate() {
        let mut t = TopK::new(2);
        assert!(!t.is_full());
        assert_eq!(t.floor(), None);
        t.offer(0, 5.0);
        assert!(!t.is_full());
        t.offer(1, 3.0);
        assert!(t.is_full());
        assert_eq!(t.floor(), Some(3.0));
        t.offer(2, 4.0); // evicts the 3.0
        assert_eq!(t.floor(), Some(4.0));
        // k = 0: full from the start, floor never exists.
        let t = TopK::new(0);
        assert!(t.is_full());
        assert_eq!(t.floor(), None);
    }

    #[test]
    fn matches_full_sort_on_random_input() {
        // Deterministic pseudo-random scores; compare against sort+truncate.
        let mut x = 0x9e3779b97f4a7c15u64;
        let mut scores = Vec::new();
        for i in 0..500u32 {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            scores.push((i, (x % 1000) as f32 / 10.0));
        }
        for k in [1usize, 7, 100, 499, 500, 600] {
            let mut t = TopK::new(k);
            for &(i, s) in &scores {
                t.offer(i, s);
            }
            let mut want = scores.clone();
            want.sort_by(|a, b| b.1.total_cmp(&a.1).then(a.0.cmp(&b.0)));
            want.truncate(k);
            assert_eq!(t.into_sorted(), want, "k={k}");
        }
    }
}
