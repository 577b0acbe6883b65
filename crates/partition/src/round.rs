//! The round plan: which band of `Q` each worker trains in each round of an
//! epoch, cut into which chunks, and where each band goes next.
//!
//! `Q`'s rows are addressed by *position* `0..n` in some order the caller
//! keeps (the threaded engine's seeded band order; the simulator's rows as
//! they are). A band is a contiguous range of positions and a chunk a
//! contiguous piece of a band. Chunks and stream slots are the twin's: the
//! simulator gives each chunk of a band a stream of its own, as many as
//! the processor has copy engines (Strategy 3), while the threaded engine
//! plans one stream, so a band is one chunk, or none when it is empty. The
//! plan holds no clock and no randomness: the threaded engine walks it,
//! the simulator times it and the cost model prices it, so all three run
//! the same epoch.
//!
//! Its edges: a band held in round `r` is held by another worker in round
//! `r + 1` ([`RoundPlan::edges`]), and every round ends in a barrier —
//! nothing of round `r + 1` starts before all of round `r` has ended. On
//! [`RoundPlan::ring`], the engine's, the band goes straight from one holder
//! to the next (a hand-off, [`Step::to`]) and reaches the server once an
//! epoch, from its last holder; on [`RoundPlan::rotation`] every round's
//! push is installed by the server and pulled by the next holder. Both
//! begin each epoch on the band the last one ended on (the first on the
//! band a worker is set up with): that step is *carried*.

use std::ops::Range;

/// One epoch's schedule over `Q`'s positions `0..n`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RoundPlan {
    workers: usize,
    rounds: usize,
    /// Band `b` is positions `bands[b]`.
    bands: Vec<Range<usize>>,
    /// Band `b`'s chunks are `chunks[band_chunks[b]]`.
    band_chunks: Vec<Range<usize>>,
    /// Every band's chunks, band after band, over positions.
    chunks: Vec<Range<usize>>,
    /// An epoch's first round is carried (the rotation's and the ring's;
    /// never the paper's).
    carries: bool,
    /// A band goes from one round's holder straight to the next's (the
    /// ring's).
    hands_off: bool,
}

/// What one worker does in one round.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Step {
    /// The band it trains.
    pub band: usize,
    /// That band's positions.
    pub rows: Range<usize>,
    /// Ids (indices into [`RoundPlan::chunks`]) of that band's chunks, in
    /// order: in the twin the `s`-th travels over the worker's stream slot
    /// `s`; in the threaded engine, which plans one stream, there is one
    /// (none for an empty band).
    pub chunks: Range<usize>,
    /// The worker holds this band already, as nobody has trained it since
    /// its own step before (or since its fleet was built), and pulls nothing.
    pub carried: bool,
    /// The last round's holder of the band, which hands it over: the step
    /// pulls nothing. `None`: the step pulls the band from the server,
    /// unless it is carried.
    pub from: Option<usize>,
    /// The next round's holder of the band, to which the step hands it.
    /// `None`: the step pushes the band to the server, which installs it.
    pub to: Option<usize>,
}

/// A band moving from one holder to the next, both `(round, worker)`: a
/// hand-off from `from` to `to` on [`RoundPlan::ring`], the install of
/// `from`'s push before `to`'s pull on [`RoundPlan::rotation`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Edge {
    /// The band that moves.
    pub band: usize,
    /// The step it leaves.
    pub from: (usize, usize),
    /// The step of the next round it reaches.
    pub to: (usize, usize),
}

impl RoundPlan {
    /// `p` rounds over `p` bands, band `b` positions `b·n/p .. (b+1)·n/p`;
    /// in round `r` of epoch `e` worker `w` trains band
    /// `(w + r + e·(p − 1)) mod p` (the DSGD comparator's strata, turned
    /// each epoch), so each band has one holder a round, each worker holds
    /// each band once an epoch, and each epoch's first round is carried.
    /// Every step pushes its band to the server, and every step but a
    /// carried one pulls it: `2p − 1` transfers a worker an epoch.
    pub fn rotation(p: usize, n: usize, streams: usize) -> RoundPlan {
        let bands = (0..p).map(|b| b * n / p..(b + 1) * n / p).collect();
        let mut plan = RoundPlan::over(p, p, bands, streams);
        plan.carries = true;
        plan
    }

    /// The shipped engine: the rotation's bands, holders and carried first
    /// round, but round `r`'s holder hands its band straight to round
    /// `r + 1`'s — worker `w` to worker `w − 1 mod p`, in every round of
    /// every epoch — and each band is pushed to the server once, by its
    /// holder in the epoch's last round: `p` transfers a worker an epoch.
    pub fn ring(p: usize, n: usize, streams: usize) -> RoundPlan {
        RoundPlan {
            hands_off: true,
            ..RoundPlan::rotation(p, n, streams)
        }
    }

    /// The paper's Algorithm: one round in which every worker pulls all of
    /// `Q`, trains it and pushes it, and the server merges the `p` pushes.
    /// A merged `Q` is nobody's push, so nothing is carried.
    ///
    /// Every constructor tiles each band into at most `streams` chunks.
    ///
    /// # Panics
    /// Panics if `streams` is 0.
    pub fn paper(p: usize, n: usize, streams: usize) -> RoundPlan {
        RoundPlan::over(p, 1, std::iter::once(0..n).collect(), streams)
    }

    fn over(workers: usize, rounds: usize, bands: Vec<Range<usize>>, streams: usize) -> RoundPlan {
        assert!(streams >= 1, "stream count must be >= 1");
        let mut chunks = Vec::new();
        let band_chunks = bands
            .iter()
            .map(|band| {
                let first = chunks.len();
                chunks.extend(tile(band.clone(), streams));
                first..chunks.len()
            })
            .collect();
        RoundPlan {
            workers,
            rounds,
            bands,
            band_chunks,
            chunks,
            carries: false,
            hands_off: false,
        }
    }

    /// Workers the plan schedules.
    pub fn workers(&self) -> usize {
        self.workers
    }

    /// Rounds an epoch has.
    pub fn rounds(&self) -> usize {
        self.rounds
    }

    /// The bands, as position ranges that tile `0..n` in order.
    pub fn bands(&self) -> &[Range<usize>] {
        &self.bands
    }

    /// Positions of `Q` the plan covers (`n`).
    pub fn items(&self) -> usize {
        self.bands.last().map_or(0, |b| b.end)
    }

    /// Every chunk, band after band, as position ranges.
    pub fn chunks(&self) -> &[Range<usize>] {
        &self.chunks
    }

    /// The most chunks any band has: the stream slots a worker needs.
    pub fn slots(&self) -> usize {
        self.band_chunks.iter().map(Range::len).max().unwrap_or(0)
    }

    /// What worker `w` does in round `round` of epoch `epoch`.
    pub fn step(&self, epoch: usize, round: usize, w: usize) -> Step {
        let band = self.band(epoch, round, w);
        let holder = |r: usize| (0..self.workers).find(|&v| self.band(epoch, r, v) == band);
        let handed = |r: Option<usize>| r.filter(|&r| self.hands_off && r < self.rounds);
        Step {
            band,
            rows: self.bands[band].clone(),
            chunks: self.band_chunks[band].clone(),
            carried: self.carries && round == 0,
            from: handed(round.checked_sub(1)).and_then(holder),
            to: handed(Some(round + 1)).and_then(holder),
        }
    }

    /// The band worker `w` trains in round `round` of epoch `epoch`.
    fn band(&self, epoch: usize, round: usize, w: usize) -> usize {
        let p = self.bands.len();
        (w + round + (epoch % p) * (p - 1)) % p
    }

    /// The share of `Q` worker `w` trains in round `round` of epoch
    /// `epoch`: its band's rows over `n` (1 under [`paper`](Self::paper)).
    pub fn share(&self, epoch: usize, round: usize, w: usize) -> f64 {
        self.step(epoch, round, w).rows.len() as f64 / self.items().max(1) as f64
    }

    /// Every move of a band from one round's holder to the next's in epoch
    /// `epoch` (a carried band stays with its holder: no move).
    pub fn edges(&self, epoch: usize) -> impl Iterator<Item = Edge> + '_ {
        (1..self.rounds).flat_map(move |r| {
            (0..self.workers).filter_map(move |to| {
                let band = self.band(epoch, r, to);
                let from = (0..self.workers).find(|&w| self.band(epoch, r - 1, w) == band)?;
                Some(Edge {
                    band,
                    from: (r - 1, from),
                    to: (r, to),
                })
            })
        })
    }
}

/// Tiles `band` into at most `streams` contiguous, non-empty chunks of
/// width `ceil(len / streams)`, the last one short: 10 rows in 4 streams are
/// 3, 3, 3 and 1 (not `ShardRouter::uniform`'s 3, 2, 3, 2), and a band of
/// fewer than `streams` rows has one chunk a row.
fn tile(band: Range<usize>, streams: usize) -> impl Iterator<Item = Range<usize>> {
    let width = band.len().div_ceil(streams).max(1);
    let end = band.end;
    band.step_by(width).map(move |lo| lo..(lo + width).min(end))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn widths(len: usize, streams: usize) -> Vec<usize> {
        tile(0..len, streams).map(|c| c.len()).collect()
    }

    #[test]
    fn the_tiling_is_ceil_width_with_a_short_last_chunk() {
        assert_eq!(widths(10, 4), [3, 3, 3, 1]);
        assert_eq!(widths(3, 8), [1, 1, 1]);
        assert_eq!(widths(5, 5), [1, 1, 1, 1, 1]);
        assert_eq!(widths(0, 2), [0usize; 0]);
        // A plan tiles each band the same way, from the band's start.
        let plan = RoundPlan::ring(2, 20, 4);
        assert_eq!(plan.chunks()[plan.step(0, 0, 1).chunks][3], 19..20);
    }

    /// Checks one plan of `p` workers over 3 epochs: one holder a band a
    /// round, each band once a worker an epoch, a carried first round on
    /// the band the last epoch ended on, and every band's moves — on the
    /// ring `p·(p − 1)` hand-offs an epoch, each from round `r`'s holder to
    /// round `r + 1`'s, and one server push a band, in the last round; on
    /// the rotation a push to the server and a pull from it every step.
    fn holders_and_moves(plan: &RoundPlan, case: &str) {
        let p = plan.workers();
        let ring = case.starts_with("ring");
        assert_eq!(plan.rounds(), p, "{case}");
        for epoch in 0..3 {
            let case = format!("{case} epoch {epoch}");
            let mut held = vec![vec![0; p]; p]; // [worker][band]
            let mut pushed = vec![Vec::new(); p]; // [band]: rounds it reached the server
            for round in 0..p {
                let mut holders = vec![0; p];
                for (w, held) in held.iter_mut().enumerate() {
                    let step = plan.step(epoch, round, w);
                    holders[step.band] += 1;
                    held[step.band] += 1;
                    assert_eq!(step.carried, round == 0, "{case}");
                    assert_eq!(step.from.is_some(), ring && round > 0, "{case}");
                    assert_eq!(step.to.is_some(), ring && round + 1 < p, "{case}");
                    if step.to.is_none() {
                        pushed[step.band].push(round);
                    }
                }
                assert!(holders.iter().all(|&h| h == 1), "{case} round {round}");
            }
            assert!(held.iter().flatten().all(|&h| h == 1), "{case}: {held:?}");
            let want: Vec<usize> = if ring { vec![p - 1] } else { (0..p).collect() };
            assert!(
                pushed.iter().all(|rounds| *rounds == want),
                "{case}: {pushed:?}"
            );
            // An epoch begins on the band the last one ended on.
            for w in (0..p).filter(|_| epoch > 0) {
                let last = plan.step(epoch - 1, p - 1, w);
                assert_eq!(plan.step(epoch, 0, w).band, last.band, "{case}");
            }
            // Each band held in one round is held by another worker in
            // the next; on the ring it goes there straight, worker `w` to
            // worker `w - 1`.
            assert_eq!(plan.edges(epoch).count(), p * (p - 1), "{case}");
            for e in plan.edges(epoch) {
                let (from, to) = (e.from, e.to);
                let (left, reached) = (
                    plan.step(epoch, from.0, from.1),
                    plan.step(epoch, to.0, to.1),
                );
                assert_eq!((left.band, reached.band), (e.band, e.band), "{case}");
                assert_eq!(to.0, from.0 + 1, "{case}");
                if ring {
                    assert_eq!((left.to, reached.from), (Some(to.1), Some(from.1)));
                    assert_eq!(to.1, (from.1 + p - 1) % p, "{case}");
                }
            }
        }
    }

    #[test]
    fn every_band_has_one_holder_a_round_and_every_worker_holds_each_once() {
        for p in 1..=5 {
            for n in [5, 151, 10_000] {
                for streams in [1, 2, 4] {
                    for (kind, plan) in [
                        ("rotation", RoundPlan::rotation(p, n, streams)),
                        ("ring", RoundPlan::ring(p, n, streams)),
                    ] {
                        let case = format!("{kind} p {p} n {n} streams {streams}");
                        holders_and_moves(&plan, &case);
                    }
                    let case = format!("p {p} n {n} streams {streams}");
                    let plan = RoundPlan::ring(p, n, streams);
                    // Bands tile `0..n` in equal counts; each band's chunks
                    // tile it exactly, at most `streams` and none empty.
                    let mut at = 0;
                    for (b, band) in plan.bands().iter().enumerate() {
                        assert_eq!(band.start, at, "{case}");
                        assert!((n / p..=n.div_ceil(p)).contains(&band.len()), "{case}");
                        at = band.end;
                        let chunks = &plan.chunks()[plan.step(0, b, 0).chunks];
                        assert!(chunks.len() <= streams, "{case} band {b}");
                        let mut covered = band.start;
                        for chunk in chunks {
                            assert!(chunk.start == covered && !chunk.is_empty(), "{case}");
                            covered = chunk.end;
                        }
                        assert_eq!(covered, band.end, "{case} band {b}");
                    }
                    assert_eq!(at, n, "{case}");
                    // The paper's plan: one round, every worker on all of
                    // `Q`, tiled the same way, nothing handed over and
                    // nothing carried.
                    let paper = RoundPlan::paper(p, n, streams);
                    assert_eq!((paper.workers(), paper.rounds()), (p, 1), "{case}");
                    for (epoch, w) in (0..3).flat_map(|e| (0..p).map(move |w| (e, w))) {
                        let step = paper.step(epoch, 0, w);
                        assert_eq!((step.band, step.rows), (0, 0..n), "{case}");
                        assert!(!step.carried, "{case}");
                        assert_eq!((step.from, step.to), (None, None), "{case}");
                        assert_eq!(paper.share(epoch, 0, w), 1.0);
                        let tiles: Vec<_> = tile(0..n, streams).collect();
                        assert_eq!(paper.chunks()[step.chunks], tiles[..], "{case}");
                    }
                    assert_eq!(paper.edges(1).count(), 0);
                }
            }
        }
    }
}
