//! Property tests for live dataset sessions (DESIGN.md §13): any edit
//! sequence leaves the delta-patched cost matrix bit-identical to a cold
//! rebuild from the current rankings, refused edits change nothing, and
//! warm-started re-solves never score worse than the run that seeded
//! them (and never corrupt exactness). Snapshots stay frozen: edits
//! after a snapshot copy what it shares instead of changing it.

use proptest::prelude::*;
use rank_aggregation_with_ties::prelude::*;
use rank_aggregation_with_ties::rank_core::session::{DatasetSession, Snapshot};
use rank_aggregation_with_ties::rank_core::CostMatrix;

fn ranking_strategy(n: usize) -> impl Strategy<Value = Ranking> {
    prop::collection::vec(0..n as u32, n).prop_map(|idx| {
        let mut used: Vec<u32> = idx.clone();
        used.sort_unstable();
        used.dedup();
        let remap: Vec<u32> = idx
            .iter()
            .map(|v| used.iter().position(|u| u == v).unwrap() as u32)
            .collect();
        Ranking::from_bucket_indices(&remap).expect("compacted")
    })
}

fn dataset_strategy() -> impl Strategy<Value = Dataset> {
    (2usize..=10, 2usize..=5).prop_flat_map(|(n, m)| {
        prop::collection::vec(ranking_strategy(n), m)
            .prop_map(|rs| Dataset::new(rs).expect("dense"))
    })
}

/// One scripted edit: the kind selector, a raw index (reduced modulo
/// `m + 1` at apply time so some indices are deliberately out of range),
/// and a ranking over up to 14 elements (larger than the base dataset,
/// so adds exercise universe growth).
fn edit_script_strategy() -> impl Strategy<Value = Vec<(u8, usize, Ranking)>> {
    (1usize..12).prop_flat_map(|len| {
        prop::collection::vec(
            (
                0u8..3,
                0usize..1_000_000,
                (1usize..=14).prop_flat_map(ranking_strategy),
            ),
            len,
        )
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The tentpole's core invariant: after every edit — add, remove,
    /// replace, including refused ones — the session's incrementally
    /// patched matrix equals `CostMatrix::build` over its current
    /// rankings, bit for bit. The O(n²)-per-edit path and the
    /// O(n²·m)-rebuild path may never drift.
    #[test]
    fn patched_matrix_is_bit_identical_to_cold_rebuild(
        data in dataset_strategy(),
        script in edit_script_strategy(),
    ) {
        let mut session = DatasetSession::new(data);
        for (kind, raw_index, ranking) in script {
            let version_before = session.version();
            let snapshot = session.matrix().clone();
            let index = raw_index % (session.m() + 1);
            let result = match kind {
                0 => session.add_ranking(ranking),
                1 => session.remove_ranking(index),
                _ => session.replace_ranking(index, ranking),
            };
            match result {
                Ok(version) => prop_assert_eq!(version, version_before + 1),
                Err(_) => {
                    // A refused edit is a full no-op: same matrix, same
                    // version.
                    prop_assert_eq!(session.matrix(), &snapshot);
                    prop_assert_eq!(session.version(), version_before);
                }
            }
            let cold = CostMatrix::build(&session.dataset());
            prop_assert_eq!(session.matrix(), &cold,
                "delta-patched matrix drifted from the cold rebuild");
            prop_assert_eq!(session.m(), session.dataset().m());
            prop_assert_eq!(session.n(), session.dataset().n());
        }
    }

    /// Snapshots share the session's dataset and matrix copy-on-write:
    /// after every later edit — add (with universe growth), remove,
    /// replace, refused ones too — every snapshot taken so far still
    /// holds its own version's dataset and a matrix equal to its cold
    /// rebuild, and a fresh snapshot equals the rebuild after the edit.
    /// An accepted edit copies the dataset and matrix exactly when a
    /// snapshot still holds them.
    #[test]
    fn snapshots_stay_frozen_across_later_edits(
        data in dataset_strategy(),
        script in edit_script_strategy(),
    ) {
        let mut session = DatasetSession::new(data);
        session
            .record_consensus(session.rankings()[0].clone())
            .expect("an input ranking is complete");
        let mut held: Vec<(Snapshot, Dataset)> = Vec::new();
        for (step, (kind, raw_index, ranking)) in script.into_iter().enumerate() {
            // Snapshot before every other edit, so some edits run
            // unshared: a held snapshot shares the session's parts only
            // until an edit is accepted.
            if step % 2 == 0 {
                let snapshot = session.snapshot();
                let before = (*snapshot.dataset).clone();
                held.push((snapshot, before));
            }
            let shared = held
                .last()
                .is_some_and(|(snapshot, _)| snapshot.version == session.version());
            let copies = session.copies();
            let index = raw_index % (session.m() + 1);
            let result = match kind {
                0 => session.add_ranking(ranking),
                1 => session.remove_ranking(index),
                _ => session.replace_ranking(index, ranking),
            };
            let copied = u64::from(result.is_ok() && shared);
            prop_assert_eq!(session.copies().dataset, copies.dataset + copied);
            prop_assert_eq!(session.copies().matrix, copies.matrix + copied);
            for (snapshot, before) in &held {
                prop_assert_eq!(&*snapshot.dataset, before, "snapshot {} changed", snapshot.version);
                prop_assert_eq!(&*snapshot.matrix, &CostMatrix::build(before));
                let warm = snapshot.warm.as_ref().expect("a consensus was recorded");
                prop_assert_eq!(warm.score, snapshot.matrix.score(&warm.ranking));
            }
            let now = session.snapshot();
            prop_assert_eq!(now.version, session.version());
            prop_assert_eq!(&*now.matrix, &CostMatrix::build(&now.dataset));
            prop_assert_eq!(now.dataset.rankings(), session.rankings());
        }
    }

    /// Warm ≤ cold at equal budget (both unbudgeted here, running to
    /// convergence): the second resolve starts from the first one's
    /// recorded consensus, and a monotone local search can only keep or
    /// improve that score. The reported score must also stay honest —
    /// equal to the ranking's actual Kemeny score.
    #[test]
    fn warm_resolve_never_scores_worse_than_the_run_that_seeded_it(
        data in dataset_strategy(),
        seed in 0u64..1_000_000,
    ) {
        let engine = Engine::new();
        let spec = AlgoSpec::parse("BioConsert").expect("registered");
        let mut session = DatasetSession::new(data);
        let cold = session.resolve(&engine, spec.clone(), seed, None);
        let warm = session.resolve(&engine, spec, seed, None);
        prop_assert!(warm.score <= cold.score,
            "warm-started re-solve regressed: {} > {}", warm.score, cold.score);
        prop_assert_eq!(warm.score, kemeny_score(&warm.ranking, &session.dataset()));
    }

    /// A warm hint survives an edit (padded into the grown universe when
    /// the edit introduced elements) and the re-solve still reports an
    /// honest score over the *edited* dataset.
    #[test]
    fn warm_resolve_after_an_edit_stays_honest(
        data in dataset_strategy(),
        added in (1usize..=12).prop_flat_map(ranking_strategy),
        seed in 0u64..1_000_000,
    ) {
        let engine = Engine::new();
        let spec = AlgoSpec::parse("BioConsert").expect("registered");
        let mut session = DatasetSession::new(data);
        session.resolve(&engine, spec.clone(), seed, None);
        session.add_ranking(added).expect("add is always accepted");
        let report = session.resolve(&engine, spec, seed, None);
        prop_assert_eq!(report.score, kemeny_score(&report.ranking, &session.dataset()));
    }
}

proptest! {
    // Exact solves are pricier; fewer, smaller cases.
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Warm starts prune, they must never change the answer: after an
    /// edit, a warm-started Exact lands on the same optimal score as a
    /// cold Exact on the identical dataset.
    #[test]
    fn warm_started_exact_matches_cold_exact(
        data in (2usize..=7, 2usize..=4).prop_flat_map(|(n, m)| {
            prop::collection::vec(ranking_strategy(n), m)
                .prop_map(|rs| Dataset::new(rs).expect("dense"))
        }),
        added in (1usize..=8).prop_flat_map(ranking_strategy),
        seed in 0u64..1_000_000,
    ) {
        let engine = Engine::new();
        let mut session = DatasetSession::new(data);
        session.resolve(&engine, AlgoSpec::Exact, seed, None);
        session.add_ranking(added).expect("add is always accepted");
        let warm = session.resolve(&engine, AlgoSpec::Exact, seed, None);
        let cold = engine.run(
            &AggregationRequest::new(session.dataset(), AlgoSpec::Exact).with_seed(seed),
        );
        prop_assert_eq!(warm.score, cold.score,
            "a warm upper bound changed the proven optimum");
        prop_assert_eq!(warm.outcome, Outcome::Optimal);
    }
}
