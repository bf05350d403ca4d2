//! KwikSort (§3.2, [Ailon, Charikar, Newman 2008]), tie-adapted per §4.1.2.
//!
//! The divide-and-conquer 11/7-approximation: pick a random pivot and
//! assign every other element to the side that minimizes its pairwise
//! disagreement with the pivot, then recurse. The §4.1.2 adaptation adds a
//! third choice — being *tied with the pivot* — whose cost is the
//! (un)tying disagreement; this changes the complexity by a constant
//! factor only.
//!
//! Randomized: wrap in [`super::BestOf`] for the paper's `KwikSortMin`.

use super::{AlgoContext, ConsensusAlgorithm};
use crate::dataset::Dataset;
use crate::element::Element;
use crate::pairs::PairTable;
use crate::ranking::Ranking;
use rand::Rng;

/// Tie-adapted KwikSort.
#[derive(Debug, Clone, Copy, Default)]
pub struct KwikSort;

fn kwik(
    mut elems: Vec<Element>,
    pairs: &PairTable,
    rng: &mut rand::rngs::StdRng,
    out: &mut Vec<Vec<Element>>,
) {
    match elems.len() {
        0 => return,
        1 => {
            out.push(elems);
            return;
        }
        _ => {}
    }
    let pivot = elems.swap_remove(rng.random_range(0..elems.len()));
    let mut before = Vec::new();
    let mut tied = vec![pivot];
    let mut after = Vec::new();
    for e in elems {
        let cb = pairs.cost_before(e, pivot);
        let ct = pairs.cost_tied(e, pivot);
        let ca = pairs.cost_before(pivot, e);
        let min = cb.min(ct).min(ca);
        // Random tie-breaking between equal-cost choices keeps the
        // algorithm's randomized character (and gives KwikSortMin diversity).
        let mut choices: [Option<u8>; 3] = [None; 3];
        let mut k = 0;
        if cb == min {
            choices[k] = Some(0);
            k += 1;
        }
        if ct == min {
            choices[k] = Some(1);
            k += 1;
        }
        if ca == min {
            choices[k] = Some(2);
            k += 1;
        }
        match choices[rng.random_range(0..k)].expect("at least one choice") {
            0 => before.push(e),
            1 => tied.push(e),
            _ => after.push(e),
        }
    }
    kwik(before, pairs, rng, out);
    out.push(tied);
    kwik(after, pairs, rng, out);
}

impl ConsensusAlgorithm for KwikSort {
    fn name(&self) -> String {
        "KwikSort".to_owned()
    }

    fn produces_ties(&self) -> bool {
        true // §4.1.2: elements may be tied to the pivot
    }

    fn run(&self, data: &Dataset, ctx: &mut AlgoContext) -> Ranking {
        // One-shot kernel: too fast to stop midway, but the checkpoint
        // still records a pre-expired deadline or pending cancel so the
        // report's outcome is honest.
        let _ = ctx.checkpoint();
        let pairs = ctx.cost_matrix(data);
        let elems: Vec<Element> = (0..data.n() as u32).map(Element).collect();
        let mut out = Vec::new();
        kwik(elems, &pairs, &mut ctx.rng, &mut out);
        Ranking::from_buckets(out).expect("partition of the elements")
    }
}

/// The *original* two-way KwikSort, without the §4.1.2 tie adaptation —
/// kept as an ablation so the benefit of the third (tie) pivot branch can
/// be measured (see `tests/ablation_claims.rs` and DESIGN.md §7).
#[derive(Debug, Clone, Copy, Default)]
pub struct KwikSortNoTies;

fn kwik2(
    mut elems: Vec<Element>,
    pairs: &PairTable,
    rng: &mut rand::rngs::StdRng,
    out: &mut Vec<Vec<Element>>,
) {
    match elems.len() {
        0 => return,
        1 => {
            out.push(elems);
            return;
        }
        _ => {}
    }
    let pivot = elems.swap_remove(rng.random_range(0..elems.len()));
    let mut before = Vec::new();
    let mut after = Vec::new();
    for e in elems {
        let cb = pairs.cost_before(e, pivot);
        let ca = pairs.cost_before(pivot, e);
        let go_before = match cb.cmp(&ca) {
            std::cmp::Ordering::Less => true,
            std::cmp::Ordering::Greater => false,
            std::cmp::Ordering::Equal => rng.random_bool(0.5),
        };
        if go_before {
            before.push(e);
        } else {
            after.push(e);
        }
    }
    kwik2(before, pairs, rng, out);
    out.push(vec![pivot]);
    kwik2(after, pairs, rng, out);
}

impl ConsensusAlgorithm for KwikSortNoTies {
    fn name(&self) -> String {
        "KwikSortNoTies".to_owned()
    }

    fn produces_ties(&self) -> bool {
        false
    }

    fn run(&self, data: &Dataset, ctx: &mut AlgoContext) -> Ranking {
        let pairs = ctx.cost_matrix(data);
        let elems: Vec<Element> = (0..data.n() as u32).map(Element).collect();
        let mut out = Vec::new();
        kwik2(elems, &pairs, &mut ctx.rng, &mut out);
        Ranking::from_buckets(out).expect("partition of the elements")
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

    #[test]
    fn unanimous_permutations_recovered() {
        let d = data(&["[{3},{1},{0},{2}]", "[{3},{1},{0},{2}]"]);
        for seed in 0..5 {
            let r = KwikSort.run(&d, &mut AlgoContext::seeded(seed));
            assert_eq!(
                r,
                parse_ranking("[{3},{1},{0},{2}]").unwrap(),
                "seed {seed}"
            );
        }
    }

    #[test]
    fn unanimous_ties_preserved() {
        // Everyone ties {1,2}: tying them to each other is always the
        // cheapest pivot decision.
        let d = data(&["[{0},{1,2},{3}]", "[{0},{1,2},{3}]", "[{0},{1,2},{3}]"]);
        for seed in 0..10 {
            let r = KwikSort.run(&d, &mut AlgoContext::seeded(seed));
            assert_eq!(r, parse_ranking("[{0},{1,2},{3}]").unwrap(), "seed {seed}");
        }
    }

    #[test]
    fn output_always_complete() {
        let d = data(&["[{2},{0,3},{1}]", "[{1},{3},{0,2}]", "[{0,1,2,3}]"]);
        for seed in 0..20 {
            let r = KwikSort.run(&d, &mut AlgoContext::seeded(seed));
            assert!(d.is_complete_ranking(&r), "seed {seed}");
        }
    }

    #[test]
    fn quality_reasonable_on_small_instance() {
        use crate::algorithms::exact::brute_force;
        let d = data(&["[{0},{1,2},{3}]", "[{1},{0},{3},{2}]", "[{0,3},{1},{2}]"]);
        let (opt, _) = brute_force(&d);
        let best = (0..20)
            .map(|s| kemeny_score(&KwikSort.run(&d, &mut AlgoContext::seeded(s)), &d))
            .min()
            .unwrap();
        // 11/7 bound holds for best-of(KwikSort, Pick-a-Perm) in
        // expectation; best-of-20 should land within 2× comfortably.
        assert!(best <= 2 * opt, "best {best} vs opt {opt}");
    }

    #[test]
    fn single_element() {
        let d = data(&["[{0}]"]);
        let r = KwikSort.run(&d, &mut AlgoContext::seeded(0));
        assert_eq!(r.n_elements(), 1);
    }

    #[test]
    fn no_ties_variant_outputs_permutations() {
        let d = data(&["[{0,1,2,3}]", "[{0},{1,2},{3}]"]);
        for seed in 0..10 {
            let r = KwikSortNoTies.run(&d, &mut AlgoContext::seeded(seed));
            assert!(r.is_permutation(), "seed {seed}");
            assert!(d.is_complete_ranking(&r));
        }
    }

    #[test]
    fn tie_adaptation_wins_on_tied_inputs() {
        // On unanimous ties, the adapted KwikSort pays nothing while the
        // 2-way original must untie everything.
        let d = data(&["[{0,1,2,3}]", "[{0,1,2,3}]", "[{0,1,2,3}]"]);
        let adapted = KwikSort.run(&d, &mut AlgoContext::seeded(0));
        let original = KwikSortNoTies.run(&d, &mut AlgoContext::seeded(0));
        assert!(kemeny_score(&adapted, &d) < kemeny_score(&original, &d));
    }
}
