//! BioConsert (§3.1, [Cohen-Boulakia, Denise, Hamel 2011]).
//!
//! The generalized-Kendall-τ local search that the paper finds best in the
//! very large majority of cases. Starting from a solution (each input
//! ranking in turn, keeping the best final result), it repeatedly applies
//! the two edit operations as long as the cost decreases:
//!
//! 1. remove an element from its bucket and place it into a **new bucket**
//!    at any position;
//! 2. move an element into an **existing bucket**.
//!
//! # Kernel notes
//!
//! * All `2k+1` destinations for one element are evaluated in `O(n)` via
//!   prefix/suffix sums over per-bucket cost aggregates; the aggregates
//!   come from **one sequential walk of the element's cost-matrix row**
//!   (`[cost_before, cost_tied]` interleaved; the "after" cost is derived
//!   as `2m − cb − ct`, see [`crate::pairs::row_cost_after`]) — no
//!   per-pair branching, no second row touched.
//! * Applying a move updates the `pos` (element → bucket index) map
//!   **incrementally**: only buckets whose index actually shifted — the
//!   contiguous range between the source and destination slots — are
//!   rewritten, instead of the seed's full `O(n)` rebuild per move.
//! * The multi-start loop (one start per input ranking) runs starts on
//!   parallel workers. `local_search` is deterministic per start and the
//!   best result is chosen by `(score, start index)`, so for
//!   **deadline-free** contexts the parallel run is bit-identical to the
//!   sequential one for any thread count — the property
//!   `tests/parallel_kernel_properties.rs` pins down. Under a wall-clock
//!   deadline both paths are best-effort: which sweeps finish before the
//!   cutoff depends on timing, so truncated results may differ between
//!   paths (and between runs), exactly as the seed's sequential
//!   truncation already depended on wall-clock.
//!
//! The cost matrix itself is the `O(n²)` memory footprint the paper
//! attributes to BioConsert (§3.1, §7.4); it is taken from the context's
//! shared cache, not rebuilt per start or per wrapper repeat.

use super::{AlgoContext, ConsensusAlgorithm};
use crate::dataset::Dataset;
use crate::element::Element;
use crate::pairs::{row_cost_after, PairTable};
use crate::parallel;
use crate::ranking::Ranking;

/// BioConsert with configurable starting points.
#[derive(Debug, Clone, Default)]
pub struct BioConsert {
    /// Additional starting rankings beyond the dataset's own inputs
    /// (used by the ablation tests; normally empty).
    pub extra_starts: Vec<Ranking>,
    /// If `true`, skip the input rankings and use only `extra_starts`.
    pub only_extra_starts: bool,
    /// Force the sequential multi-start path (the parallel path is
    /// bit-identical; this exists for tests and timing baselines).
    pub force_sequential: bool,
}

/// A candidate destination for the element being moved.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Move {
    /// New singleton bucket inserted at slot `j` (before remaining bucket `j`).
    NewBucket(usize),
    /// Join remaining bucket `j`.
    IntoBucket(usize),
}

/// Steepest-descent local search from `start`; returns the refined ranking
/// and its score. Deterministic: uses no randomness, so the result is a
/// pure function of `(start, pairs)`.
pub(crate) fn local_search(
    start: &Ranking,
    pairs: &PairTable,
    ctx: &AlgoContext,
) -> (u64, Ranking) {
    let n = pairs.n();
    let m2 = 2 * pairs.m();
    let mut buckets: Vec<Vec<Element>> = start.buckets().map(|b| b.to_vec()).collect();
    let mut pos: Vec<usize> = vec![0; n];
    for (bi, b) in buckets.iter().enumerate() {
        for &e in b {
            pos[e.index()] = bi;
        }
    }
    let mut score = pairs.score(start);
    // The start itself is the run's first incumbent: a job cancelled
    // before any sweep completes still has a harvestable consensus.
    ctx.offer_incumbent(start, score);

    // Reusable per-sweep buffers (perf-book: keep workhorse collections).
    let mut ca: Vec<u64> = Vec::new(); // cost if e strictly after bucket i
    let mut cb: Vec<u64> = Vec::new(); // cost if e strictly before bucket i
    let mut ct: Vec<u64> = Vec::new(); // cost if e tied with bucket i

    let mut improved = true;
    while improved && ctx.checkpoint().is_continue() {
        improved = false;
        for id in 0..n {
            let e = Element(id as u32);
            let row = pairs.row(e);
            let cur_b = pos[id];
            let singleton = buckets[cur_b].len() == 1;

            // Per-bucket pair-cost sums with e removed; a singleton bucket
            // of e itself disappears from the remaining list. One pass over
            // e's interleaved row per bucket member — no other row needed.
            ca.clear();
            cb.clear();
            ct.clear();
            for (i, b) in buckets.iter().enumerate() {
                if i == cur_b && singleton {
                    continue;
                }
                let (mut sb, mut st, mut sa) = (0u64, 0u64, 0u64);
                for &f in b {
                    if f == e {
                        continue;
                    }
                    let fi = f.index();
                    sb += row[2 * fi] as u64;
                    st += row[2 * fi + 1] as u64;
                    sa += row_cost_after(row, m2, fi) as u64;
                }
                ca.push(sa);
                cb.push(sb);
                ct.push(st);
            }
            let k = ca.len();

            // cost of a new singleton at slot j:  Σ_{i<j} ca[i] + Σ_{i≥j} cb[i]
            // cost of joining bucket j:           Σ_{i<j} ca[i] + ct[j] + Σ_{i>j} cb[i]
            // One left-to-right walk with running prefix/suffix sums.
            let total_cb: u64 = cb.iter().sum();
            let mut pre_ca = 0u64;
            let mut suf_cb = total_cb;
            // Current placement corresponds to slot/bucket index `cur_b`
            // in the remaining list (buckets before cur_b are unchanged).
            let mut current_cost = u64::MAX;
            let mut best_cost = u64::MAX;
            let mut best_move = Move::NewBucket(0);
            for j in 0..=k {
                let new_cost = pre_ca + suf_cb;
                if new_cost < best_cost {
                    best_cost = new_cost;
                    best_move = Move::NewBucket(j);
                }
                if singleton && j == cur_b {
                    current_cost = new_cost;
                }
                if j < k {
                    let into_cost = pre_ca + ct[j] + (suf_cb - cb[j]);
                    if into_cost < best_cost {
                        best_cost = into_cost;
                        best_move = Move::IntoBucket(j);
                    }
                    if !singleton && j == cur_b {
                        current_cost = into_cost;
                    }
                    pre_ca += ca[j];
                    suf_cb -= cb[j];
                }
            }
            debug_assert_ne!(current_cost, u64::MAX);

            if best_cost < current_cost {
                apply_move(&mut buckets, &mut pos, e, cur_b, singleton, best_move);
                score -= current_cost - best_cost;
                improved = true;
            }
        }
        // Publish each improving sweep's state: the per-start quality
        // curve the anytime API streams (snapshot only when listened to).
        if improved && ctx.has_sink() {
            let snapshot = Ranking::from_buckets(buckets.clone()).expect("moves preserve validity");
            ctx.offer_incumbent(&snapshot, score);
        }
    }

    let ranking = Ranking::from_buckets(buckets).expect("moves preserve validity");
    debug_assert_eq!(score, pairs.score(&ranking));
    (score, ranking)
}

/// Apply `mv` (indices relative to the remaining list, i.e. with `e`'s
/// singleton bucket removed), updating `pos` incrementally: only the
/// contiguous range of buckets whose index shifted is rewritten.
fn apply_move(
    buckets: &mut Vec<Vec<Element>>,
    pos: &mut [usize],
    e: Element,
    cur_b: usize,
    singleton: bool,
    mv: Move,
) {
    if singleton {
        buckets.remove(cur_b);
    } else {
        buckets[cur_b].retain(|&f| f != e);
    }
    // Buckets whose index changed form one contiguous range [lo, hi]:
    // the removal (if any) shifts indices above cur_b down by one and the
    // insertion (if any) shifts indices above the slot up by one, so the
    // two cancel outside the range between them.
    let (lo, hi) = match (singleton, mv) {
        (false, Move::IntoBucket(j)) => {
            buckets[j].push(e);
            pos[e.index()] = j;
            return; // nothing shifted
        }
        (false, Move::NewBucket(j)) => {
            buckets.insert(j, vec![e]);
            (j, buckets.len() - 1) // everything from j on shifted up
        }
        (true, Move::IntoBucket(j)) => {
            buckets[j].push(e);
            (cur_b.min(j), buckets.len() - 1) // suffix after cur_b shifted down
        }
        (true, Move::NewBucket(j)) => {
            buckets.insert(j, vec![e]);
            // Outside [min, max] the −1 of the removal cancels the +1 of
            // the insertion.
            (cur_b.min(j), cur_b.max(j).min(buckets.len() - 1))
        }
    };
    for bi in lo..=hi {
        for &f in &buckets[bi] {
            pos[f.index()] = bi;
        }
    }
}

impl BioConsert {
    /// Refine every start on parallel workers and keep the best result by
    /// `(score, start index)` — deterministic for any thread count.
    fn best_start(
        &self,
        starts: &[&Ranking],
        pairs: &PairTable,
        ctx: &AlgoContext,
    ) -> Option<Ranking> {
        // One sweep per start is ~n² row reads; below the threshold the
        // search is microseconds and spawning workers would dominate it
        // (same gating idea as `CostMatrix::build`). Thresholding doesn't
        // affect results — both paths are bit-identical.
        let work = starts.len() * pairs.n() * pairs.n();
        let threads = if self.force_sequential || work < 1 << 18 {
            1
        } else {
            parallel::num_threads()
        };
        let results =
            parallel::par_map_slice(starts, threads, |_, start| local_search(start, pairs, ctx));
        results
            .into_iter()
            .min_by_key(|(score, _)| *score)
            .map(|(_, ranking)| ranking)
    }
}

impl ConsensusAlgorithm for BioConsert {
    fn name(&self) -> String {
        "BioConsert".to_owned()
    }

    fn produces_ties(&self) -> bool {
        true
    }

    fn run(&self, data: &Dataset, ctx: &mut AlgoContext) -> Ranking {
        let pairs = ctx.cost_matrix(data);
        let inputs = if self.only_extra_starts {
            &[]
        } else {
            data.rankings()
        };
        // A warm-start hint (the previous consensus of an edited dataset,
        // DESIGN.md §13) is one more start. Appended last and selected by
        // first-minimum, it only wins on strict improvement — so a warm
        // run is never worse than the cold run at equal budget, and
        // without a hint the behavior is bit-identical to before. Hints
        // over a different universe are ignored (the exact solver's block
        // decomposition re-runs BioConsert on restricted sub-datasets
        // with the whole-dataset context).
        let warm = ctx
            .warm_start()
            .filter(|w| data.is_complete_ranking(&w.ranking))
            .map(|w| w.ranking.clone());
        let starts: Vec<&Ranking> = inputs
            .iter()
            .chain(self.extra_starts.iter())
            .chain(warm.iter())
            .collect();
        self.best_start(&starts, &pairs, ctx)
            .expect("at least one start")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parse::parse_ranking;
    use crate::score::kemeny_score;

    fn data(lines: &[&str]) -> Dataset {
        Dataset::new(lines.iter().map(|l| parse_ranking(l).unwrap()).collect()).unwrap()
    }

    fn paper_dataset() -> Dataset {
        data(&["[{0},{3},{1,2}]", "[{0},{1,2},{3}]", "[{3},{0,2},{1}]"])
    }

    #[test]
    fn finds_paper_optimum() {
        let d = paper_dataset();
        let r = BioConsert::default().run(&d, &mut AlgoContext::seeded(0));
        assert_eq!(kemeny_score(&r, &d), 5);
    }

    #[test]
    fn never_worse_than_any_input() {
        let d = data(&[
            "[{0,1},{2,3},{4}]",
            "[{4},{3},{2},{1},{0}]",
            "[{2},{0,4},{1,3}]",
        ]);
        let r = BioConsert::default().run(&d, &mut AlgoContext::seeded(0));
        let s = kemeny_score(&r, &d);
        for input in d.rankings() {
            assert!(s <= kemeny_score(input, &d));
        }
        assert!(d.is_complete_ranking(&r));
    }

    #[test]
    fn matches_brute_force_on_small_instances() {
        use crate::algorithms::exact::brute_force;
        // A handful of fixed small instances; BioConsert (multi-start
        // steepest descent) should reach the optimum on all of them.
        let cases: [&[&str]; 3] = [
            &["[{0},{1,2}]", "[{2},{0},{1}]", "[{1},{2},{0}]"],
            &["[{0,1,2,3}]", "[{3},{2},{1},{0}]"],
            &["[{0},{1},{2},{3}]", "[{1},{0},{3},{2}]", "[{0,2},{1,3}]"],
        ];
        for lines in cases {
            let d = data(lines);
            let (opt, _) = brute_force(&d);
            let r = BioConsert::default().run(&d, &mut AlgoContext::seeded(0));
            assert_eq!(kemeny_score(&r, &d), opt, "instance {lines:?}");
        }
    }

    #[test]
    fn local_search_monotone_from_any_start() {
        let d = data(&["[{0},{1},{2},{3},{4}]", "[{4},{0,1},{2,3}]"]);
        let pairs = PairTable::build(&d);
        let start = parse_ranking("[{4},{3},{2},{1},{0}]").unwrap();
        let before = pairs.score(&start);
        let (after, r) = local_search(&start, &pairs, &AlgoContext::seeded(0));
        assert!(after <= before);
        assert_eq!(after, pairs.score(&r));
    }

    #[test]
    fn parallel_multi_start_is_bit_identical_to_sequential() {
        let d = data(&[
            "[{0},{1,2},{3},{4},{5},{6,7}]",
            "[{7},{6},{5},{4},{3},{2},{1},{0}]",
            "[{2},{0,4},{1,3},{5,6,7}]",
            "[{1,5},{0,2,3},{4,6},{7}]",
        ]);
        let par = BioConsert::default();
        let seq = BioConsert {
            force_sequential: true,
            ..BioConsert::default()
        };
        for seed in 0..5 {
            let rp = par.run(&d, &mut AlgoContext::seeded(seed));
            let rs = seq.run(&d, &mut AlgoContext::seeded(seed));
            assert_eq!(rp, rs, "seed {seed}");
        }
    }

    #[test]
    fn extra_starts_only_mode() {
        let d = paper_dataset();
        let algo = BioConsert {
            extra_starts: vec![parse_ranking("[{0,1,2,3}]").unwrap()],
            only_extra_starts: true,
            ..BioConsert::default()
        };
        let r = algo.run(&d, &mut AlgoContext::seeded(0));
        assert!(d.is_complete_ranking(&r));
    }

    #[test]
    fn single_element_dataset() {
        let d = data(&["[{0}]"]);
        let r = BioConsert::default().run(&d, &mut AlgoContext::seeded(0));
        assert_eq!(r.n_elements(), 1);
    }
}
