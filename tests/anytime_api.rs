//! Integration tests of the anytime execution API (DESIGN.md §9):
//! event-stream ordering, monotone incumbent traces, cooperative
//! cancellation semantics, and the submit+wait ≡ run equivalence.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;
use rank_aggregation_with_ties::prelude::*;
use rank_aggregation_with_ties::ragen::UniformSampler;
use rank_aggregation_with_ties::rank_core::parse::parse_ranking;
use std::time::Duration;

fn wider_dataset() -> Dataset {
    Dataset::new(vec![
        parse_ranking("[{0,1},{2,3},{4},{5,6},{7}]").unwrap(),
        parse_ranking("[{7},{5},{2},{1,6},{0,3,4}]").unwrap(),
        parse_ranking("[{2},{0,4},{1,3},{6,7},{5}]").unwrap(),
        parse_ranking("[{4,5},{6},{0,2},{1,7},{3}]").unwrap(),
    ])
    .unwrap()
}

/// A dataset big enough that BioConsert cannot finish before a cancel
/// issued right after its first incumbent lands.
fn big_uniform(n: usize, m: usize, seed: u64) -> Dataset {
    let mut rng = StdRng::seed_from_u64(seed);
    UniformSampler::new(n).sample_dataset(n, m, &mut rng)
}

// ------------------------------------------------------------ event stream

#[test]
fn events_run_started_incumbents_finished_in_order() {
    let handle = Engine::new()
        .submit(AggregationRequest::new(wider_dataset(), AlgoSpec::BioConsert).with_seed(3));
    let events: Vec<Event> = handle.events().collect();
    let report = handle.wait();

    assert!(
        matches!(
            events.first(),
            Some(Event::Started {
                spec: AlgoSpec::BioConsert,
                seed: 3
            })
        ),
        "first event must be Started: {events:?}"
    );
    assert_eq!(
        events.last(),
        Some(&Event::Finished(report.outcome)),
        "last event must be Finished with the report's outcome"
    );
    let incumbent_scores: Vec<u64> = events
        .iter()
        .filter_map(|e| match e {
            Event::Incumbent { score, .. } => Some(*score),
            _ => None,
        })
        .collect();
    assert!(!incumbent_scores.is_empty(), "at least the final incumbent");
    assert!(
        incumbent_scores.windows(2).all(|w| w[1] < w[0]),
        "incumbent scores must strictly decrease: {incumbent_scores:?}"
    );
    assert_eq!(
        *incumbent_scores.last().unwrap(),
        report.score,
        "the last incumbent event is the reported consensus"
    );
}

#[test]
fn every_report_carries_a_monotone_trace_ending_at_its_score() {
    // Ailon is excluded: its LP rounding may legitimately end worse than
    // the best-input incumbent it publishes early (the trace then ends
    // below the reported score — documented in DESIGN.md §9).
    let specs = [
        AlgoSpec::BioConsert,
        AlgoSpec::Borda,
        AlgoSpec::KwikSort,
        AlgoSpec::MedRank(0.5),
        AlgoSpec::PickAPerm,
        AlgoSpec::RepeatChoice,
        AlgoSpec::Chanas,
        AlgoSpec::ChanasBoth,
        AlgoSpec::BnB { beam: None },
        AlgoSpec::Mc4,
        AlgoSpec::Exact,
        AlgoSpec::BestOf {
            base: Box::new(AlgoSpec::KwikSort),
            runs: 6,
        },
    ];
    let engine = Engine::new();
    for spec in specs {
        let report =
            engine.run(&AggregationRequest::new(wider_dataset(), spec.clone()).with_seed(7));
        assert!(
            !report.trace.is_empty(),
            "{spec}: every run publishes at least its final result"
        );
        assert!(
            report.trace.windows(2).all(|w| w[1].score < w[0].score),
            "{spec}: trace scores must strictly decrease: {:?}",
            report.trace
        );
        assert!(
            report
                .trace
                .windows(2)
                .all(|w| w[1].elapsed >= w[0].elapsed),
            "{spec}: trace times must not go backwards"
        );
        assert_eq!(
            report.trace.last().unwrap().score,
            report.score,
            "{spec}: the trace ends at the reported score"
        );
        assert!(report.time_to_first_incumbent().is_some());
        assert!(report.time_to_final_incumbent() <= Some(report.trace.last().unwrap().elapsed));
    }
}

// ------------------------------------------------------- lower-bound channel

/// Replay a drained event stream, checking every invariant the
/// lower-bound channel guarantees (DESIGN.md §11.2): bounds strictly
/// increase, no bound ever exceeds any incumbent score, and every
/// event's `gap` is exactly `score − lower_bound` against the state at
/// emission time.
fn check_bound_invariants(events: &[Event]) -> (Vec<u64>, Vec<u64>) {
    let mut bounds: Vec<u64> = Vec::new();
    let mut scores: Vec<u64> = Vec::new();
    let mut last_bound: Option<u64> = None;
    let mut best_score: Option<u64> = None;
    for event in events {
        match event {
            Event::Incumbent { score, gap, .. } => {
                assert_eq!(
                    *gap,
                    last_bound.map(|lb| score - lb),
                    "incumbent gap must be score − lower_bound: {events:?}"
                );
                best_score = Some(*score);
                scores.push(*score);
            }
            Event::LowerBound {
                lower_bound, gap, ..
            } => {
                assert!(
                    last_bound.is_none_or(|prev| prev < *lower_bound),
                    "streamed lower bounds must strictly increase: {events:?}"
                );
                assert_eq!(
                    *gap,
                    best_score.map(|s| s - lower_bound),
                    "bound gap must be best score − lower_bound: {events:?}"
                );
                last_bound = Some(*lower_bound);
                bounds.push(*lower_bound);
            }
            _ => {}
        }
    }
    (scores, bounds)
}

#[test]
fn exact_jobs_stream_a_monotone_lower_bound_meeting_the_score() {
    // Disagreeing-enough data that the proof search actually explores
    // (a rotation family has no safe split and no trivial optimum).
    let data = big_uniform(14, 4, 31);
    let engine = Engine::new();
    let handle = engine.submit(AggregationRequest::new(data, AlgoSpec::Exact).with_seed(5));
    let events: Vec<Event> = handle.events().collect();
    let report = handle.wait();

    let (scores, bounds) = check_bound_invariants(&events);
    assert!(
        !bounds.is_empty(),
        "the exact solver must publish lower bounds: {events:?}"
    );
    // Every certified bound is ≤ the optimum ≤ every incumbent score —
    // across the whole stream, not just pointwise in time.
    let max_bound = *bounds.iter().max().unwrap();
    let min_score = *scores.iter().min().unwrap();
    assert!(
        max_bound <= min_score,
        "a lower bound exceeded an incumbent: bounds {bounds:?} scores {scores:?}"
    );
    assert_eq!(report.outcome, Outcome::Optimal);
    assert_eq!(
        report.lower_bound,
        Some(report.score),
        "a proved-optimal report's bound meets its score"
    );
    assert_eq!(report.certified_gap(), Some(0));
    assert_eq!(max_bound, report.score, "the stream ends certified");
}

#[test]
fn report_traces_carry_monotone_lower_bounds_below_their_scores() {
    let engine = Engine::new();
    for spec in [
        AlgoSpec::Exact,
        AlgoSpec::Ailon,
        AlgoSpec::BnB { beam: None },
        AlgoSpec::BioConsert,
    ] {
        let report =
            engine.run(&AggregationRequest::new(wider_dataset(), spec.clone()).with_seed(3));
        let bounds: Vec<Option<u64>> = report.trace.iter().map(|p| p.lower_bound).collect();
        for (p, lb) in report.trace.iter().zip(&bounds) {
            if let Some(lb) = lb {
                assert!(*lb <= p.score, "{spec}: trace point bound above its score");
            }
        }
        assert!(
            bounds
                .windows(2)
                .all(|w| w[0].unwrap_or(0) <= w[1].unwrap_or(u64::MAX)),
            "{spec}: trace bounds must be non-decreasing: {bounds:?}"
        );
        if let Some(lb) = report.lower_bound {
            assert!(lb <= report.score, "{spec}: report bound above score");
        }
        match report.outcome {
            Outcome::Optimal => assert_eq!(report.lower_bound, Some(report.score), "{spec}"),
            _ => assert_eq!(report.spec, spec),
        }
        // Heuristics prove nothing and must not pretend to.
        if matches!(report.spec, AlgoSpec::BioConsert) {
            assert_eq!(report.lower_bound, None);
            assert_eq!(report.certified_gap(), None);
        }
    }
}

#[test]
fn blocking_run_records_bounds_without_a_subscriber() {
    // `Engine::run` attaches a listenerless sink: the lower bound must
    // still land in the report (the satellite audit: nothing about the
    // channel may depend on someone streaming).
    let data = big_uniform(12, 5, 7);
    let report = Engine::new().run(&AggregationRequest::new(data, AlgoSpec::Exact).with_seed(2));
    assert_eq!(report.outcome, Outcome::Optimal);
    assert_eq!(report.lower_bound, Some(report.score));
}

// ------------------------------------------------------------ cancellation

#[test]
fn cancel_then_wait_returns_cancelled_with_the_last_incumbent() {
    let data = big_uniform(200, 20, 9);
    let engine = Engine::new();
    let handle = engine.submit(AggregationRequest::new(data.clone(), AlgoSpec::BioConsert));

    // Wait for the first incumbent, then cancel mid-run.
    let mut last_incumbent = None;
    for event in handle.events() {
        if let Event::Incumbent { score, .. } = event {
            last_incumbent = Some(score);
            handle.cancel();
            break;
        }
    }
    assert!(last_incumbent.is_some(), "BioConsert publishes incumbents");
    // Drain the rest of the stream: more incumbents may land between the
    // cancel request and the run observing it at a checkpoint.
    for event in handle.events() {
        if let Event::Incumbent { score, .. } = event {
            last_incumbent = Some(score);
        }
    }
    let report = handle.wait();

    assert_eq!(
        report.outcome,
        Outcome::Cancelled,
        "a cancel issued at the first of many sweeps must win"
    );
    assert!(!report.outcome.completed());
    assert_eq!(
        Some(report.score),
        last_incumbent,
        "the cancelled report's score equals its last Incumbent event"
    );
    // The harvested ranking is a valid complete consensus whose true
    // Kemeny score matches what the report claims.
    assert!(data.is_complete_ranking(&report.ranking));
    assert_eq!(kemeny_score(&report.ranking, &data), report.score);
    assert_eq!(report.trace.last().unwrap().score, report.score);
}

#[test]
fn cancel_before_start_still_returns_a_valid_ranking() {
    let data = big_uniform(80, 10, 4);
    let handle = Engine::new().submit(AggregationRequest::new(data.clone(), AlgoSpec::BioConsert));
    handle.cancel();
    let report = handle.wait();
    // The cancel is issued without synchronizing on an event, so on a
    // loaded machine the job can legitimately win the race and complete;
    // either way the report must be a valid, correctly-scored consensus.
    assert!(
        matches!(report.outcome, Outcome::Cancelled | Outcome::Heuristic),
        "unexpected outcome {:?}",
        report.outcome
    );
    assert!(data.is_complete_ranking(&report.ranking));
    assert_eq!(kemeny_score(&report.ranking, &data), report.score);
}

#[test]
fn best_so_far_is_harvestable_while_running_and_cancel_is_idempotent() {
    let data = big_uniform(100, 12, 11);
    let handle = Engine::new().submit(AggregationRequest::new(data.clone(), AlgoSpec::BioConsert));
    // Block until the first incumbent exists, then peek without waiting.
    let mut saw_incumbent = false;
    for event in handle.events() {
        if matches!(event, Event::Incumbent { .. }) {
            saw_incumbent = true;
            break;
        }
    }
    assert!(saw_incumbent);
    let (score, ranking) = handle.best_so_far().expect("incumbent just streamed");
    assert!(data.is_complete_ranking(&ranking));
    assert_eq!(kemeny_score(&ranking, &data), score);
    handle.cancel();
    handle.cancel(); // idempotent
    let report = handle.wait();
    assert!(
        report.score <= score,
        "the final report can only improve on a harvested snapshot"
    );
}

#[test]
fn cancelled_exact_returns_its_heuristic_incumbent_unproved() {
    // The exact solver seeds itself with a BioConsert incumbent; a cancel
    // during the proof search must return that incumbent, not panic, and
    // must not claim optimality. (n = 48 with few voters keeps the proof
    // search far longer than the cancel latency.)
    let data = big_uniform(48, 6, 2);
    let handle = Engine::new().submit(AggregationRequest::new(data.clone(), AlgoSpec::Exact));
    for event in handle.events() {
        if matches!(event, Event::Incumbent { .. }) {
            handle.cancel();
            break;
        }
    }
    let report = handle.wait();
    assert_ne!(report.outcome, Outcome::Optimal);
    assert!(data.is_complete_ranking(&report.ranking));
    assert_eq!(kemeny_score(&report.ranking, &data), report.score);
}

// ------------------------------------------------- submit ≡ run equivalence

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// `submit` + `wait` must be bit-identical to the blocking `run` for a
    /// fixed seed, spec by spec (ranking, score, outcome — not timings).
    #[test]
    fn submit_wait_matches_run_bit_identically(seed in 0u64..500) {
        let data = wider_dataset();
        let specs = vec![
            AlgoSpec::BioConsert,
            AlgoSpec::KwikSort,
            AlgoSpec::BestOf { base: Box::new(AlgoSpec::KwikSort), runs: 5 },
            AlgoSpec::MedRank(0.7),
            AlgoSpec::Exact,
        ];
        let engine = Engine::new();
        for spec in specs {
            let request = AggregationRequest::new(data.clone(), spec.clone()).with_seed(seed);
            let submitted = engine.submit(request.clone()).wait();
            let ran = engine.run(&request);
            prop_assert_eq!(&submitted.ranking, &ran.ranking, "spec {} seed {}", spec, seed);
            prop_assert_eq!(submitted.score, ran.score);
            prop_assert_eq!(submitted.outcome, ran.outcome);
            prop_assert_eq!(submitted.seed, ran.seed);
        }
    }
}

/// The paper's §2.2 example (A..D as 0..3); Exact decomposes it.
fn paper_example() -> Dataset {
    Dataset::new(vec![
        parse_ranking("[{0},{3},{1,2}]").unwrap(),
        parse_ranking("[{0},{1,2},{3}]").unwrap(),
        parse_ranking("[{3},{0,2},{1}]").unwrap(),
    ])
    .unwrap()
}

/// The kernels publish the same incumbents whoever listens, so `run`
/// and `submit` + `wait` record equal traces, not just equal endpoints:
/// Exact's pre-decomposition heuristic and Ailon's best-input scan land
/// in both.
#[test]
fn run_and_submit_record_equal_traces() {
    let engine = Engine::new();
    for (data, spec) in [
        (paper_example(), AlgoSpec::Exact),
        (wider_dataset(), AlgoSpec::Ailon),
    ] {
        let request = AggregationRequest::new(data, spec.clone())
            .with_seed(4)
            .with_policy(ExecPolicy::sequential());
        let points = |report: &ConsensusReport| -> Vec<(u64, Option<u64>)> {
            report
                .trace
                .iter()
                .map(|p| (p.score, p.lower_bound))
                .collect()
        };
        let ran = engine.run(&request);
        let submitted = engine.submit(request).wait();
        assert!(!ran.trace.is_empty(), "{spec}: empty trace");
        assert_eq!(points(&ran), points(&submitted), "{spec}");
    }
}

// ------------------------------------------------------------ context API

#[test]
fn checkpoint_distinguishes_cancel_from_deadline() {
    let ctx = AlgoContext::seeded(0);
    assert!(ctx.checkpoint().is_continue());
    assert!(!ctx.cancelled());

    // Deadline path: Stop + timed_out, no cancellation.
    let expired = AlgoContext::seeded_with_budget(0, Duration::ZERO);
    assert!(expired.checkpoint().is_stop());
    assert!(expired.timed_out());
    assert!(!expired.cancelled());

    // Cancel path: Stop + cancelled, and it wins over a live deadline.
    let ctx = AlgoContext::seeded_with_budget(0, Duration::from_secs(3600));
    ctx.cancel_token().cancel();
    assert!(ctx.checkpoint().is_stop());
    assert!(ctx.cancelled());
    assert!(!ctx.timed_out());

    // Workers share the cancellation flag and observation.
    let base = AlgoContext::seeded(1);
    let worker = base.worker(5);
    base.cancel_token().cancel();
    assert!(worker.checkpoint().is_stop());
    assert!(base.cancelled());
}

#[test]
fn offers_without_a_sink_are_noops_and_sinks_keep_only_improvements() {
    let ctx = AlgoContext::seeded(0);
    let r5 = parse_ranking("[{0},{1},{2}]").unwrap();
    ctx.offer_incumbent(&r5, 5); // no sink: must not panic
    assert!(!ctx.has_sink());

    let sink = std::sync::Arc::new(IncumbentSink::new());
    let mut ctx = AlgoContext::seeded(0);
    ctx.attach_sink(std::sync::Arc::clone(&sink));
    assert!(ctx.has_sink());
    let r3 = parse_ranking("[{0},{1,2}]").unwrap();
    ctx.offer_incumbent(&r5, 5);
    ctx.offer_incumbent(&r3, 7); // worse: ignored
    ctx.offer_incumbent(&r5, 5); // equal: ignored
    ctx.offer_incumbent(&r3, 3); // better: recorded
    let (best_score, best_ranking) = sink.best_so_far().expect("offers recorded");
    assert_eq!(best_score, 3);
    assert_eq!(best_ranking, r3);
    let trace = sink.trace();
    assert_eq!(
        trace.iter().map(|p| p.score).collect::<Vec<_>>(),
        vec![5, 3]
    );
}
