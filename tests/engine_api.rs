//! Integration tests of the engine API: spec round-trips, report
//! determinism, concurrent-batch equivalence, per-request outcome
//! isolation, and the shared cost-matrix build contract.

use proptest::prelude::*;
use rank_aggregation_with_ties::prelude::*;
use rank_aggregation_with_ties::rank_core::engine::SpecErrorKind;
use rank_aggregation_with_ties::rank_core::engine::{
    registry, suggest, BatchBuilder, DEFAULT_MIN_RUNS, MAX_BEST_OF_RUNS,
};
use rank_aggregation_with_ties::rank_core::parse::parse_ranking;
use std::time::Duration;

fn paper_dataset() -> Dataset {
    Dataset::new(vec![
        parse_ranking("[{0},{3},{1,2}]").unwrap(),
        parse_ranking("[{0},{1,2},{3}]").unwrap(),
        parse_ranking("[{3},{0,2},{1}]").unwrap(),
    ])
    .unwrap()
}

fn wider_dataset() -> Dataset {
    Dataset::new(vec![
        parse_ranking("[{0,1},{2,3},{4},{5,6},{7}]").unwrap(),
        parse_ranking("[{7},{5},{2},{1,6},{0,3,4}]").unwrap(),
        parse_ranking("[{2},{0,4},{1,3},{6,7},{5}]").unwrap(),
        parse_ranking("[{4,5},{6},{0,2},{1,7},{3}]").unwrap(),
    ])
    .unwrap()
}

// ---------------------------------------------------------------- specs

#[test]
fn every_registered_algorithm_round_trips_parse_display() {
    for entry in registry() {
        let spec = (entry.example)();
        let text = spec.to_string();
        let parsed = AlgoSpec::parse(&text)
            .unwrap_or_else(|e| panic!("{}: {text:?} failed to parse back: {e}", entry.canonical));
        assert_eq!(
            parsed, spec,
            "{}: display {text:?} must round-trip",
            entry.canonical
        );
        // The canonical head must at least be recognized: either it
        // parses outright (parameterized entries default their
        // arguments), or the error is about arguments — never an
        // unknown-name error.
        if let Err(e) = AlgoSpec::parse(entry.canonical) {
            assert!(
                e.message.contains("takes"),
                "canonical name {:?} must be recognized: {e}",
                entry.canonical
            );
        }
        for alias in entry.aliases {
            assert!(AlgoSpec::parse(alias).is_ok(), "alias {alias:?} must parse");
        }
    }
}

#[test]
fn panels_round_trip_including_paper_names() {
    for spec in full_panel(DEFAULT_MIN_RUNS) {
        assert_eq!(AlgoSpec::parse(&spec.to_string()).unwrap(), spec);
        // The paper-table spelling resolves to the same spec at the
        // default repeat count ("KwikSortMin" = BestOf(KwikSort,20)).
        assert_eq!(
            AlgoSpec::parse(&spec.paper_name()).unwrap(),
            spec,
            "paper name {:?} must resolve",
            spec.paper_name()
        );
    }
}

#[test]
fn parsing_is_case_insensitive_and_alias_aware() {
    let cases = [
        ("bioconsert", AlgoSpec::BioConsert),
        ("BORDACOUNT", AlgoSpec::Borda),
        ("borda", AlgoSpec::Borda),
        ("copelandmethod", AlgoSpec::Copeland),
        ("MEDRank(0.7)", AlgoSpec::MedRank(0.7)),
        ("medrank", AlgoSpec::MedRank(0.5)),
        ("pick-a-perm", AlgoSpec::PickAPerm),
        ("ailon3/2", AlgoSpec::Ailon),
        ("EXACT", AlgoSpec::Exact),
        ("ExactAlgorithm", AlgoSpec::Exact),
        (
            "bestof(kwiksort, 7)",
            AlgoSpec::BestOf {
                base: Box::new(AlgoSpec::KwikSort),
                runs: 7,
            },
        ),
        (
            "KwikSortMin",
            AlgoSpec::BestOf {
                base: Box::new(AlgoSpec::KwikSort),
                runs: DEFAULT_MIN_RUNS,
            },
        ),
        ("BnB(beam=8)", AlgoSpec::BnB { beam: Some(8) }),
        ("bnb(8)", AlgoSpec::BnB { beam: Some(8) }),
        (
            "BestOf(BestOf(KwikSort,2),3)",
            AlgoSpec::BestOf {
                base: Box::new(AlgoSpec::BestOf {
                    base: Box::new(AlgoSpec::KwikSort),
                    runs: 2,
                }),
                runs: 3,
            },
        ),
    ];
    for (text, want) in cases {
        assert_eq!(AlgoSpec::parse(text).unwrap(), want, "input {text:?}");
    }
}

#[test]
fn unknown_names_get_suggestions() {
    let err = AlgoSpec::parse("KwikSrt").unwrap_err();
    assert_eq!(err.kind, SpecErrorKind::UnknownName);
    assert_eq!(err.suggestion.as_deref(), Some("KwikSort"));
    assert!(err.to_string().contains("unknown algorithm"), "{err}");
    let err = AlgoSpec::parse("bordcount").unwrap_err();
    assert_eq!(err.suggestion.as_deref(), Some("BordaCount"));
    let err = AlgoSpec::parse("Zebra12345").unwrap_err();
    assert_eq!(err.suggestion, None);
    assert_eq!(suggest("exactt").as_deref(), Some("Exact"));
    // Bad arguments on a *known* head are argument errors: no
    // "unknown algorithm" misdirection, no did-you-mean echo.
    for bad in [
        "MedRank(2.5)",
        "BestOf(KwikSort,0)",
        "BestOf(KwikSort)",
        "KwikSort(3)",
        "BestOf(KwikSort,2",
    ] {
        let err = AlgoSpec::parse(bad).unwrap_err();
        assert_eq!(err.kind, SpecErrorKind::InvalidArguments, "{bad}");
        assert_eq!(err.suggestion, None, "{bad}");
        assert!(err.to_string().contains("invalid algorithm spec"), "{err}");
    }
}

#[test]
fn best_of_repeat_counts_are_capped_at_parse_time() {
    let at_cap = format!("BestOf(KwikSort,{MAX_BEST_OF_RUNS})");
    assert_eq!(
        AlgoSpec::parse(&at_cap).unwrap(),
        AlgoSpec::BestOf {
            base: Box::new(AlgoSpec::KwikSort),
            runs: MAX_BEST_OF_RUNS,
        }
    );
    // The largest count the repository's own runs use stays accepted.
    AlgoSpec::parse("BestOf(BioConsert,1000)").expect("CI's long-running spec");
    for bad in [
        format!("BestOf(KwikSort,{})", MAX_BEST_OF_RUNS + 1),
        "BestOf(Borda,2000000000)".to_owned(),
        format!("BestOf(Borda,{})", usize::MAX),
    ] {
        let err = AlgoSpec::parse(&bad).unwrap_err();
        assert_eq!(err.kind, SpecErrorKind::InvalidArguments, "{bad}");
        assert!(err.to_string().contains("exceeds the maximum"), "{err}");
    }
}

#[test]
fn generic_best_of_paper_names_parse_back() {
    let spec = AlgoSpec::BestOf {
        base: Box::new(AlgoSpec::BioConsert),
        runs: 5,
    };
    assert_eq!(spec.paper_name(), "BestOf(BioConsert,5)");
    assert_eq!(AlgoSpec::parse(&spec.paper_name()).unwrap(), spec);
}

#[test]
fn size_caps_live_on_the_spec() {
    assert_eq!(AlgoSpec::Ailon.max_n(), Some(45));
    assert_eq!(AlgoSpec::Exact.max_n(), Some(64));
    assert_eq!(AlgoSpec::BioConsert.max_n(), None);
    // BestOf inherits its base's bound.
    let wrapped = AlgoSpec::BestOf {
        base: Box::new(AlgoSpec::Ailon),
        runs: 3,
    };
    assert_eq!(wrapped.max_n(), Some(45));
}

// ---------------------------------------------------------------- engine

#[test]
fn same_seed_and_spec_give_bit_identical_reports() {
    let data = wider_dataset();
    let specs = [
        AlgoSpec::BioConsert,
        AlgoSpec::KwikSort,
        AlgoSpec::BestOf {
            base: Box::new(AlgoSpec::KwikSort),
            runs: 8,
        },
        AlgoSpec::MedRank(0.5),
        AlgoSpec::Exact,
    ];
    for seed in [0u64, 7, 42] {
        for spec in &specs {
            let request = AggregationRequest::new(data.clone(), spec.clone()).with_seed(seed);
            // Fresh engines: determinism must not depend on cache state,
            // engine identity, or how often the request ran before.
            let a = Engine::new().run(&request);
            let engine_b = Engine::with_workers(2);
            let _warmup = engine_b.run(&request);
            let b = engine_b.run(&request);
            assert_eq!(a.ranking, b.ranking, "{spec} seed {seed}");
            assert_eq!(a.score, b.score, "{spec} seed {seed}");
            assert_eq!(a.outcome, b.outcome, "{spec} seed {seed}");
            assert_eq!(a.seed, seed);
            assert_eq!(&a.spec, spec);
        }
    }
}

#[test]
fn exact_reports_optimal_with_zero_gap() {
    let report = Engine::new().run(&AggregationRequest::new(paper_dataset(), AlgoSpec::Exact));
    assert_eq!(report.outcome, Outcome::Optimal);
    assert_eq!(report.score, 5);
    assert_eq!(report.gap, Some(0.0));
    assert!(report.outcome.completed());
}

#[test]
fn batch_gaps_use_the_proven_optimum_as_reference() {
    let requests = AggregationRequest::batch(paper_dataset())
        .spec(AlgoSpec::Exact)
        .spec(AlgoSpec::BioConsert)
        .spec(AlgoSpec::RepeatChoice)
        .seed(1)
        .build();
    let reports = Engine::new().run_batch(&requests);
    assert_eq!(reports[0].outcome, Outcome::Optimal);
    for r in &reports {
        let gap = r.gap.expect("batch reports carry gaps");
        assert!(
            (r.score == reports[0].score) == (gap == 0.0),
            "{}",
            r.algorithm()
        );
        assert!(gap >= 0.0);
    }
}

#[test]
fn one_timeout_does_not_contaminate_neighbour_reports() {
    // The pre-engine harness shared outcome flags across a context
    // family: one algorithm's timeout stayed visible to every later
    // algorithm unless the caller remembered `reset_flags()`. Force a
    // timeout in the *middle* of a batch and check its neighbours.
    let data = wider_dataset();
    let mut requests = AggregationRequest::batch(data)
        .spec(AlgoSpec::Borda)
        .spec(AlgoSpec::BioConsert) // this one gets a zero budget
        .spec(AlgoSpec::KwikSort)
        .spec(AlgoSpec::Exact)
        .seed(3)
        .build();
    requests[1].budget = Some(Duration::ZERO);
    let reports = Engine::new().run_batch(&requests);
    assert_eq!(
        reports[1].outcome,
        Outcome::TimedOut,
        "zero budget must time out"
    );
    assert_eq!(reports[0].outcome, Outcome::Heuristic);
    assert_eq!(reports[2].outcome, Outcome::Heuristic);
    assert_eq!(reports[3].outcome, Outcome::Optimal);
    // The timed-out report still returns its best-effort ranking, but is
    // "no result" for gap purposes (and can never receive a negative gap).
    assert!(reports[1].ranking.n_buckets() > 0);
    assert_eq!(reports[1].gap, None);
    // …and completed neighbours still carry gaps against the optimum.
    assert_eq!(reports[3].gap, Some(0.0));
}

#[test]
fn a_batch_over_one_dataset_builds_the_cost_matrix_once() {
    // Heuristic panel only: the exact solver's block decomposition
    // legitimately builds sub-dataset matrices, so it would obscure the
    // count under test.
    let specs: Vec<AlgoSpec> = paper_panel(5)
        .into_iter()
        .filter(|s| *s != AlgoSpec::Ailon)
        .collect();
    let n_specs = specs.len();
    let engine = Engine::new();
    let reports = engine.run_batch(
        &AggregationRequest::batch(wider_dataset())
            .specs(specs)
            .seed(9)
            .build(),
    );
    assert_eq!(reports.len(), n_specs);
    assert_eq!(
        engine.cache().builds(),
        1,
        "every request of the batch must share one cost-matrix build"
    );
    // A second batch over the same dataset content hits the cache too.
    let more = AggregationRequest::batch(wider_dataset())
        .spec(AlgoSpec::Borda)
        .build();
    engine.run_batch(&more);
    assert_eq!(engine.cache().builds(), 1);
    // A different dataset pays exactly one more build.
    engine.run_batch(
        &AggregationRequest::batch(paper_dataset())
            .spec(AlgoSpec::Borda)
            .spec(AlgoSpec::KwikSort)
            .build(),
    );
    assert_eq!(engine.cache().builds(), 2);
}

#[test]
fn mixed_dataset_batches_get_per_dataset_gap_references() {
    let a = paper_dataset();
    let b = wider_dataset();
    let mut requests = AggregationRequest::batch(a)
        .spec(AlgoSpec::Exact)
        .spec(AlgoSpec::BioConsert)
        .build();
    requests.extend(
        AggregationRequest::batch(b)
            .spec(AlgoSpec::BioConsert)
            .spec(AlgoSpec::RepeatChoice)
            .build(),
    );
    let reports = Engine::new().run_batch(&requests);
    // Dataset A's reference is its proven optimum (score 5)…
    assert_eq!(reports[0].score, 5);
    assert_eq!(reports[1].gap, Some(gap(reports[1].score, 5)));
    // …while dataset B's m-gap reference is the best of its own two
    // members, never dataset A's optimum.
    let b_best = reports[2].score.min(reports[3].score);
    assert_eq!(reports[2].gap, Some(gap(reports[2].score, b_best)));
    assert_eq!(reports[3].gap, Some(gap(reports[3].score, b_best)));
}

#[test]
fn batch_builder_normalizes_raw_rankings() {
    let mut universe = Universe::new();
    let raw: Vec<Ranking> = ["[{A},{B}]", "[{B},{C}]", "[{C},{A},{D}]"]
        .iter()
        .map(|t| {
            rank_aggregation_with_ties::rank_core::parse::parse_ranking_labeled(t, &mut universe)
                .unwrap()
        })
        .collect();
    let (builder, norm) =
        BatchBuilder::normalized(&raw, Normalization::Unification).expect("non-empty");
    assert_eq!(norm.dataset.n(), 4, "unification keeps A, B, C, D");
    let requests = builder.spec(AlgoSpec::BioConsert).seed(5).build();
    let report = &Engine::new().run_batch(&requests)[0];
    assert_eq!(report.ranking.n_elements(), 4);
    // Projection keeps only the intersection — which is empty here.
    assert!(BatchBuilder::normalized(&raw, Normalization::Projection).is_none());
}

// ---------------------------------------------------------------- lanes

fn big_identity_dataset(n: usize) -> Dataset {
    let forward: Vec<u32> = (0..n as u32).collect();
    let reverse: Vec<u32> = (0..n as u32).rev().collect();
    Dataset::new(vec![
        Ranking::from_bucket_indices(&forward).unwrap(),
        Ranking::from_bucket_indices(&reverse).unwrap(),
    ])
    .unwrap()
}

#[test]
fn auto_lane_flips_to_matrix_free_above_the_dense_budget() {
    // Auto stays dense at small n — the one-build batch contract above
    // depends on it — and flips once the dense matrix (8n² bytes) would
    // exceed DENSE_LANE_BUDGET_BYTES (256 MiB ⇒ n > 5792).
    let small = AggregationRequest::new(wider_dataset(), AlgoSpec::Borda);
    assert_eq!(small.resolved_lane(), KernelLane::Dense);

    let big = big_identity_dataset(6000); // 8·6000² = 288 MB > budget
    let request = AggregationRequest::new(big.clone(), AlgoSpec::Borda).with_seed(1);
    assert_eq!(request.resolved_lane(), KernelLane::MatrixFree);
    let engine = Engine::new();
    let report = engine.run(&request);
    assert_eq!(report.lane, KernelLane::MatrixFree);
    assert_eq!(
        engine.cache().builds(),
        0,
        "auto-selected matrix-free run must not build the dense matrix"
    );
    // Unsupported specs resolve dense under Auto regardless of size (the
    // request is only resolved here, not run — that build is 288 MB).
    let bio = AggregationRequest::new(big, AlgoSpec::BioConsert);
    assert_eq!(bio.resolved_lane(), KernelLane::Dense);
}

#[test]
fn explicit_lane_override_beats_auto_selection() {
    // MatrixFree forced at tiny n, where Auto would stay dense…
    let request =
        AggregationRequest::new(wider_dataset(), AlgoSpec::Mc4).with_lane(LanePolicy::MatrixFree);
    assert_eq!(request.resolved_lane(), KernelLane::MatrixFree);
    let engine = Engine::new();
    let report = engine.run(&request);
    assert_eq!(report.lane, KernelLane::MatrixFree);
    assert_eq!(engine.cache().builds(), 0);
    // …and Dense forced above the budget wins too (resolution only).
    let forced = AggregationRequest::new(big_identity_dataset(6000), AlgoSpec::Borda)
        .with_lane(LanePolicy::Dense);
    assert_eq!(forced.resolved_lane(), KernelLane::Dense);
    // A caller-supplied cost matrix pins the dense lane outright: the
    // matrix is already paid for, so MatrixFree would only discard it.
    let data = wider_dataset();
    let pinned = AggregationRequest::new(data.clone(), AlgoSpec::Borda)
        .with_cost_matrix(std::sync::Arc::new(PairTable::build(&data)))
        .with_lane(LanePolicy::MatrixFree);
    assert_eq!(pinned.resolved_lane(), KernelLane::Dense);
}

#[test]
fn lane_provenance_round_trips_through_report_json() {
    use rank_aggregation_with_ties::rank_core::parse::parse_ranking_labeled;
    use rank_aggregation_with_ties::service::proto::report_json;
    let mut universe = Universe::new();
    let raw: Vec<Ranking> = ["[{A},{B},{C}]", "[{B},{A},{C}]", "[{C},{A,B}]"]
        .iter()
        .map(|t| parse_ranking_labeled(t, &mut universe).unwrap())
        .collect();
    let norm = Normalization::Unification.apply(&raw).unwrap();
    let engine = Engine::new();
    for (lane, token) in [
        (LanePolicy::MatrixFree, "\"lane\":\"matrix_free\""),
        (LanePolicy::Dense, "\"lane\":\"dense\""),
        (LanePolicy::Auto, "\"lane\":\"dense\""), // tiny n: Auto is dense
    ] {
        let request =
            AggregationRequest::new(norm.dataset.clone(), AlgoSpec::Borda).with_lane(lane);
        let report = engine.run(&request);
        let json = report_json(&report, &norm, &universe);
        assert!(json.contains(token), "lane {lane:?} missing from {json}");
    }
}

// ------------------------------------------- batch/loop equivalence (prop)

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// A concurrent `run_batch` must be report-for-report identical to a
    /// sequential loop of `run`s over the same requests.
    #[test]
    fn concurrent_batch_matches_sequential_loop(seed in 0u64..1000) {
        let data = wider_dataset();
        let specs = vec![
            AlgoSpec::BioConsert,
            AlgoSpec::Borda,
            AlgoSpec::KwikSort,
            AlgoSpec::BestOf { base: Box::new(AlgoSpec::KwikSort), runs: 6 },
            AlgoSpec::MedRank(0.5),
            AlgoSpec::RepeatChoice,
            AlgoSpec::Exact,
        ];
        let requests = AggregationRequest::batch(data)
            .specs(specs)
            .seed(seed)
            .build();
        let concurrent = Engine::new().run_batch(&requests);
        let sequential_engine = Engine::with_workers(1);
        let sequential: Vec<ConsensusReport> =
            requests.iter().map(|r| sequential_engine.run(r)).collect();
        prop_assert_eq!(concurrent.len(), sequential.len());
        for (c, s) in concurrent.iter().zip(&sequential) {
            prop_assert_eq!(&c.ranking, &s.ranking, "spec {}", c.spec);
            prop_assert_eq!(c.score, s.score);
            prop_assert_eq!(c.outcome, s.outcome);
            prop_assert_eq!(c.seed, s.seed);
        }
    }
}
