//! DESIGN.md §7's ablation claims, asserted on the Figure 6 workload
//! (uniform n = 35, m = 7) over a seed set fixed in advance:
//!
//! * BioConsert's local search from every input ranking (the paper's
//!   choice) reaches a lower summed Kemeny score than a single start from
//!   the Borda consensus or from the all-tied ranking;
//! * KwikSort's §4.1.2 three-way pivot (before / tied / after) reaches a
//!   lower summed score than the original two-way split when every input
//!   ranking has two buckets.
//!
//! Only these two orderings hold across input shapes; §7 records the
//! cases where they reverse.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use rank_aggregation_with_ties::prelude::*;
use rank_aggregation_with_ties::ragen::UniformSampler;
use rank_aggregation_with_ties::rank_core::algorithms::borda::BordaCount;
use rank_aggregation_with_ties::rank_core::algorithms::kwiksort::{KwikSort, KwikSortNoTies};

const N: usize = 35;
const M: usize = 7;
/// Dataset seeds.
const SEEDS: std::ops::RangeInclusive<u64> = 1..=30;
/// KwikSort is randomized: runs per dataset, seeded `1..=KWIK_RUNS`.
const KWIK_RUNS: u64 = 10;

fn uniform(seed: u64) -> Dataset {
    UniformSampler::new(N).sample_dataset(N, M, &mut StdRng::seed_from_u64(seed))
}

/// `M` rankings, each putting every element in one of `k` buckets drawn
/// uniformly (empty buckets dropped).
fn bucketed(k: usize, seed: u64) -> Dataset {
    let mut rng = StdRng::seed_from_u64(seed);
    let rankings = (0..M)
        .map(|_| {
            let mut buckets = vec![Vec::new(); k];
            for e in 0..N as u32 {
                buckets[rng.random_range(0..k)].push(Element(e));
            }
            buckets.retain(|b| !b.is_empty());
            Ranking::from_buckets(buckets).expect("a partition of the elements")
        })
        .collect();
    Dataset::new(rankings).expect("rankings over one element set")
}

fn score(algo: &dyn ConsensusAlgorithm, data: &Dataset, seed: u64) -> u64 {
    kemeny_score(&algo.run(data, &mut AlgoContext::seeded(seed)), data)
}

fn single_start(start: Ranking) -> BioConsert {
    BioConsert {
        extra_starts: vec![start],
        only_extra_starts: true,
        ..BioConsert::default()
    }
}

#[test]
fn bioconsert_input_starts_beat_each_single_start() {
    let (mut inputs, mut borda, mut tied) = (0, 0, 0);
    for seed in SEEDS {
        let data = uniform(seed);
        let borda_start = BordaCount.run(&data, &mut AlgoContext::seeded(0));
        let all_tied =
            Ranking::single_bucket((0..N as u32).map(Element).collect()).expect("non-empty");
        inputs += score(&BioConsert::default(), &data, 1);
        borda += score(&single_start(borda_start), &data, 1);
        tied += score(&single_start(all_tied), &data, 1);
    }
    assert!(
        inputs < borda,
        "input starts {inputs} vs Borda start {borda}"
    );
    assert!(
        inputs < tied,
        "input starts {inputs} vs all-tied start {tied}"
    );
}

#[test]
fn kwiksort_three_way_pivot_wins_on_two_bucket_inputs() {
    let (mut three_way, mut two_way) = (0, 0);
    for seed in SEEDS {
        let data = bucketed(2, seed);
        for run in 1..=KWIK_RUNS {
            three_way += score(&KwikSort, &data, run);
            two_way += score(&KwikSortNoTies, &data, run);
        }
    }
    assert!(
        three_way < two_way,
        "three-way {three_way} vs two-way {two_way}"
    );
}
