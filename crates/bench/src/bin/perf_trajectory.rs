//! Perf-trajectory snapshot for the parallel consensus kernel.
//!
//! Measures, for `n ∈ {50, 100, 200}` (m = 20, exact-uniform datasets):
//!
//! * cost-matrix build time, serial vs parallel, and the matrix footprint;
//! * one BioConsert local-search sweep (single start, sequential);
//! * full multi-start BioConsert, sequential vs parallel workers, with a
//!   consensus-score equality check (the determinism contract);
//! * an engine batch: the paper panel (minus the LP-bound Ailon) as one
//!   `Engine::run_batch` request batch, concurrent vs one-worker, with a
//!   report-equality check and the shared-build counter;
//! * an **anytime** section: per algorithm, the time to the *first*
//!   incumbent and to the *final* (best) incumbent plus the trace length,
//!   read off each report's incumbent trace — responsiveness, not just
//!   throughput, so future PRs can see when a kernel goes quiet for too
//!   long before its first answer;
//! * an **exact** section: the parallel proof search (DESIGN.md §11.1)
//!   sequential vs parallel over a family of uniform instances at the
//!   hardness knee (n = 21 explodes past ~n = 22), with a
//!   result-equality check (the bit-identical contract) and — through a
//!   submitted anytime job — the **time to certified optimal**: the
//!   elapsed moment the streamed `gap` hit 0 and a waiting caller could
//!   have stopped;
//! * a **recovery** section (DESIGN.md §12): a pre-populated journal
//!   directory of finished jobs, measuring raw replay throughput
//!   (framed-and-checksummed lines per second) and restart-to-ready time
//!   — the full `Server::bind` on that directory, i.e. how long a crashed
//!   server's jobs stay unavailable after the process is back;
//! * an **incremental** section (DESIGN.md §13): per size, one `O(n²)`
//!   delta patch vs the `O(m·n²)` cold matrix rebuild an edit would
//!   otherwise force (with the bit-identity check inline); per Chanas
//!   instance, a warm-started re-solve after one edit vs a cold solve of
//!   the same edited dataset (the hint descent converges sooner); and the
//!   wire-level win of HTTP keep-alive — the same status read hammered
//!   over one pooled connection vs a fresh TCP dial per request;
//! * a **large-n** section (DESIGN.md §16): the positional panel on the
//!   matrix-free kernel lane at `n ∈ {1000, 5000, 20000}` — wall time,
//!   peak RSS (`VmHWM`), and the matrix-build counter (pinned 0) — with
//!   the dense lane alongside at n = 1000 for a same-host comparison of
//!   both lanes' time and memory on identical data. Passing a section
//!   name after the output path (only `large_n`) runs that section
//!   alone — CI's wall-clock-capped smoke job uses it.
//!
//! The header records the host's available parallelism and a timestamp,
//! so committed BENCH files stay interpretable (PR 1's single-core
//! container numbers were only explained in a ROADMAP footnote).
//!
//! Writes the numbers as JSON (hand-rolled; no serde offline) so future
//! PRs can track the trajectory:
//!
//! ```text
//! cargo run --release -p bench --bin perf_trajectory -- BENCH_10.json
//! ```

use ragen::UniformSampler;
use rand::rngs::StdRng;
use rand::SeedableRng;
use rank_core::algorithms::bioconsert::BioConsert;
use rank_core::algorithms::exact::ExactAlgorithm;
use rank_core::algorithms::{AlgoContext, ConsensusAlgorithm};
use rank_core::engine::{
    paper_panel, AggregationRequest, AlgoSpec, Engine, Event, ExecPolicy, KernelLane, LanePolicy,
};
use rank_core::session::DatasetSession;
use rank_core::{CostMatrix, Dataset};
use service::client::Client;
use service::journal::{FsyncPolicy, Journal};
use service::proto::JobSubmission;
use service::server::{Server, ServerConfig};
use std::fmt::Write as _;
use std::time::{Duration, Instant};

const M: usize = 20;
const NS: [usize; 3] = [50, 100, 200];

/// The exact section's instance family: n = 21 sits at the hardness knee
/// of uniform data (proof searches run milliseconds to ~1 s; n = 22+ can
/// explode), m = 8 voters keeps real disagreement in play.
const EXACT_N: usize = 21;
const EXACT_M: usize = 8;
const EXACT_SEEDS: [u64; 5] = [2, 3, 4, 5, 6];
/// Safety net so one pathological host/seed can never hang the bench;
/// a timed-out instance is recorded `proved: false`, not discarded.
const EXACT_BUDGET: Duration = Duration::from_secs(60);

/// Median-of-`reps` seconds for `f`.
fn time_median<F: FnMut()>(reps: usize, mut f: F) -> f64 {
    let mut samples: Vec<f64> = (0..reps)
        .map(|_| {
            let t = Instant::now();
            f();
            t.elapsed().as_secs_f64()
        })
        .collect();
    samples.sort_by(|a, b| a.partial_cmp(b).expect("finite times"));
    samples[samples.len() / 2]
}

/// Per-algorithm anytime responsiveness, read off one report's trace.
struct AnytimeRow {
    name: String,
    first_incumbent_s: f64,
    final_incumbent_s: f64,
    incumbents: usize,
    score: u64,
}

struct SizeReport {
    n: usize,
    build_serial_s: f64,
    build_parallel_s: f64,
    matrix_bytes: usize,
    sweep_s: f64,
    multistart_seq_s: f64,
    multistart_par_s: f64,
    score: u64,
    scores_identical: bool,
    batch_seq_s: f64,
    batch_par_s: f64,
    batch_builds: usize,
    batch_identical: bool,
    anytime: Vec<AnytimeRow>,
}

fn measure(n: usize, data: &Dataset) -> SizeReport {
    let threads = rank_core::parallel::num_threads();
    let reps = if n >= 200 { 3 } else { 5 };

    let build_serial_s = time_median(reps, || {
        std::hint::black_box(CostMatrix::build_with_threads(data, 1));
    });
    let build_parallel_s = time_median(reps, || {
        std::hint::black_box(CostMatrix::build_with_threads(data, threads));
    });
    let matrix_bytes = CostMatrix::build_with_threads(data, 1).bytes();

    // One local-search sweep: a single-start sequential BioConsert run
    // (start = first input ranking). The context is primed so the matrix
    // cache hit isolates the sweep from the build measured above.
    let single_start = BioConsert {
        extra_starts: vec![data.ranking(0).clone()],
        only_extra_starts: true,
        force_sequential: true,
    };
    let mut ctx = AlgoContext::seeded(2);
    ctx.cost_matrix(data);
    let sweep_s = time_median(reps, || {
        std::hint::black_box(single_start.run(data, &mut ctx));
    });

    // Full multi-start (one start per input ranking): sequential seed path
    // vs parallel workers, both on the primed context (pure search time).
    let sequential = BioConsert {
        force_sequential: true,
        ..BioConsert::default()
    };
    let parallel = BioConsert::default();
    let multistart_seq_s = time_median(reps, || {
        std::hint::black_box(sequential.run(data, &mut ctx));
    });
    let multistart_par_s = time_median(reps, || {
        std::hint::black_box(parallel.run(data, &mut ctx));
    });

    let pairs = CostMatrix::build(data);
    let r_seq = sequential.run(data, &mut ctx);
    let r_par = parallel.run(data, &mut ctx);
    let score = pairs.score(&r_par);

    // Engine batch: the paper panel at this size (the spec capability
    // bound sits the LP-based Ailon out at n ≥ 50) as one request batch —
    // the multi-tenant serving path. A fresh engine per timing keeps the
    // first-build cost inside the measurement, and the builds counter
    // proves the batch shared it.
    let specs: Vec<AlgoSpec> = paper_panel(20)
        .into_iter()
        .filter(|s| s.max_n().is_none_or(|cap| n <= cap))
        .collect();
    let requests = AggregationRequest::batch(data.clone())
        .specs(specs)
        .seed(5)
        .build();
    let batch_reps = reps.min(3);
    let batch_par_s = time_median(batch_reps, || {
        std::hint::black_box(Engine::new().run_batch(&requests));
    });
    let batch_seq_s = time_median(batch_reps, || {
        std::hint::black_box(Engine::with_workers(1).run_batch(&requests));
    });
    let par_engine = Engine::new();
    let par_reports = par_engine.run_batch(&requests);
    let seq_reports = Engine::with_workers(1).run_batch(&requests);
    let batch_identical = par_reports
        .iter()
        .zip(&seq_reports)
        .all(|(a, b)| a.ranking == b.ranking && a.score == b.score && a.outcome == b.outcome);

    // Anytime responsiveness per algorithm: when did the first/last
    // incumbent land? Read from the *sequential* batch's traces so the
    // numbers are not skewed by batch-level scheduler contention.
    let anytime: Vec<AnytimeRow> = seq_reports
        .iter()
        .map(|r| AnytimeRow {
            name: r.algorithm(),
            first_incumbent_s: r
                .time_to_first_incumbent()
                .map_or(f64::NAN, |d| d.as_secs_f64()),
            final_incumbent_s: r
                .time_to_final_incumbent()
                .map_or(f64::NAN, |d| d.as_secs_f64()),
            incumbents: r.trace.len(),
            score: r.score,
        })
        .collect();

    SizeReport {
        n,
        build_serial_s,
        build_parallel_s,
        matrix_bytes,
        sweep_s,
        multistart_seq_s,
        multistart_par_s,
        score,
        scores_identical: r_seq == r_par && pairs.score(&r_seq) == score,
        batch_seq_s,
        batch_par_s,
        batch_builds: par_engine.cache().builds(),
        batch_identical,
        anytime,
    }
}

/// One exact instance's numbers: the proof search sequential vs parallel
/// plus the anytime view of the same job.
struct ExactInstance {
    seed: u64,
    score: u64,
    proved: bool,
    sequential_s: f64,
    parallel_s: f64,
    identical: bool,
    /// Submit-to-certified over the anytime API: the streamed `gap` hit 0
    /// at this elapsed moment (NaN if the job never certified).
    certified_optimal_s: f64,
}

struct ExactReport {
    workers: usize,
    instances: Vec<ExactInstance>,
}

/// The exact section: per instance, one sequential and one parallel
/// proof search (fresh contexts; the `O(m·n²)` matrix build is noise at
/// n = 21) with a result-equality check, then the same request as a
/// submitted job to read the time-to-certified-optimal off its events.
fn measure_exact() -> ExactReport {
    let workers = rank_core::parallel::num_threads();
    let sampler = UniformSampler::new(EXACT_N);
    let instances = EXACT_SEEDS
        .iter()
        .map(|&seed| {
            let mut rng = StdRng::seed_from_u64(seed);
            let data = sampler.sample_dataset(EXACT_N, EXACT_M, &mut rng);

            let solve = |algo: &ExactAlgorithm| {
                let mut ctx = AlgoContext::seeded(7);
                ctx.deadline = Some(Instant::now() + EXACT_BUDGET);
                let t = Instant::now();
                let (ranking, score, proved) = algo.solve(&data, &mut ctx);
                (t.elapsed().as_secs_f64(), ranking, score, proved)
            };
            let sequential = ExactAlgorithm {
                force_sequential: true,
                ..ExactAlgorithm::default()
            };
            let parallel = ExactAlgorithm {
                threads: Some(workers),
                ..ExactAlgorithm::default()
            };
            let (sequential_s, r_seq, score, proved) = solve(&sequential);
            let (parallel_s, r_par, score_par, proved_par) = solve(&parallel);

            // Anytime view: when did the streamed gap certify?
            let engine = Engine::new();
            let handle = engine.submit(
                AggregationRequest::new(data.clone(), AlgoSpec::Exact)
                    .with_seed(7)
                    .with_budget(EXACT_BUDGET),
            );
            let mut certified_optimal_s = f64::NAN;
            for event in handle.events() {
                let (gap, elapsed) = match event {
                    Event::Incumbent { gap, elapsed, .. } => (gap, elapsed),
                    Event::LowerBound { gap, elapsed, .. } => (gap, elapsed),
                    _ => continue,
                };
                if certified_optimal_s.is_nan() && gap == Some(0) {
                    certified_optimal_s = elapsed.as_secs_f64();
                }
            }
            let _ = handle.wait();

            ExactInstance {
                seed,
                score,
                proved: proved && proved_par,
                sequential_s,
                parallel_s,
                identical: r_seq == r_par && score == score_par,
                certified_optimal_s,
            }
        })
        .collect();
    ExactReport { workers, instances }
}

/// The recovery section's journal shape: enough finished jobs with long
/// event replays that the replay scan dominates setup noise.
const RECOVERY_JOBS: u64 = 64;
const RECOVERY_EVENTS_PER_JOB: usize = 128;

struct RecoveryReport {
    jobs: u64,
    events_per_job: usize,
    journal_lines: usize,
    journal_bytes: u64,
    replay_median_s: f64,
    replay_lines_per_sec: f64,
    restart_to_ready_median_s: f64,
}

/// The recovery section: fabricate a journal directory of
/// [`RECOVERY_JOBS`] finished jobs (the exact bytes an interrupted
/// server leaves), then time the raw [`Journal::replay`] scan and the
/// full restart — `Server::bind` with that journal, which validates
/// every CRC, re-prepares every submission, and rebuilds the job table
/// before the listener answers its first request.
fn measure_recovery() -> RecoveryReport {
    let dir = std::env::temp_dir().join(format!("rawt-bench-recovery-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let journal = Journal::open(&dir, FsyncPolicy::Never).expect("open journal");
    let submission = JobSubmission {
        algo: Some("BioConsert".to_owned()),
        ..JobSubmission::new("[{A},{D},{B,C}]\n[{A},{B,C},{D}]\n[{D},{A,C},{B}]\n")
    };
    let report = r#"{"algorithm":"BioConsert","spec":"BioConsert","seed":42,"score":5,"gap":null,"outcome":"heuristic","elapsed_secs":0.010000,"ranking":[["A"],["D"],["B","C"]],"trace":[]}"#;
    for id in 0..RECOVERY_JOBS {
        let mut writer = journal
            .begin_job(id, 0, &submission.to_json())
            .expect("begin journal segment");
        writer.append_event(r#"{"event":"started","spec":"BioConsert","seed":42}"#);
        for e in 0..RECOVERY_EVENTS_PER_JOB {
            writer.append_event(&format!(
                r#"{{"event":"incumbent","score":{},"gap":null,"elapsed_secs":0.00{e}}}"#,
                RECOVERY_EVENTS_PER_JOB - e
            ));
        }
        writer.finish("heuristic", Some(report));
    }
    let journal_bytes: u64 = std::fs::read_dir(&dir)
        .expect("journal dir")
        .filter_map(Result::ok)
        .filter_map(|e| e.metadata().ok())
        .map(|m| m.len())
        .sum();

    let replay_median_s = time_median(5, || {
        std::hint::black_box(journal.replay().expect("replay"));
    });
    let replay = journal.replay().expect("replay");
    assert_eq!(replay.jobs.len(), RECOVERY_JOBS as usize, "all jobs replay");
    let journal_lines = replay.lines_read;

    let restart_to_ready_median_s = time_median(5, || {
        let server = Server::bind(
            "127.0.0.1:0",
            ServerConfig {
                journal_dir: Some(dir.clone()),
                ..ServerConfig::default()
            },
        )
        .expect("bind with journal");
        std::hint::black_box(&server);
    });

    let _ = std::fs::remove_dir_all(&dir);
    RecoveryReport {
        jobs: RECOVERY_JOBS,
        events_per_job: RECOVERY_EVENTS_PER_JOB,
        journal_lines,
        journal_bytes,
        replay_median_s,
        replay_lines_per_sec: journal_lines as f64 / replay_median_s,
        restart_to_ready_median_s,
    }
}

/// Status reads per arm of the keep-alive comparison — enough that the
/// per-request cost dominates loop overhead, few enough to stay instant.
const KEEPALIVE_REQUESTS: usize = 200;

/// The warm-vs-cold instance family. BnB is the solver where a warm
/// bound has the most to prune: its cold start is a greedy permutation
/// (not the near-optimal BioConsert primer the Exact solver always
/// runs), so the previous optimum arriving as the initial incumbent
/// The warm-vs-cold instance family. Chanas is the solver where the
/// hint pays most visibly in wall clock: cold it descends from a
/// random input ranking (many full adjacent-swap passes at `O(n²)`
/// score lookups each); warm it descends from the previous consensus,
/// which after a one-ranking edit is already at or next to a local
/// optimum, so the descent terminates almost immediately. n = 200
/// (the kernel section's largest size) makes each saved pass count.
const WARM_SEEDS: [u64; 3] = [2, 3, 4];
const WARM_N: usize = 200;
const WARM_M: usize = 20;

/// One size's patch-vs-rebuild numbers: the `O(n²)` in-place delta patch
/// a live session applies per edit vs the `O(m·n²)` cold rebuild.
struct PatchRow {
    n: usize,
    rebuild_s: f64,
    patch_s: f64,
    identical: bool,
}

/// One instance's warm-vs-cold numbers: after an edit, the warm-started
/// Chanas re-solve (descending from the previous consensus) vs a cold
/// Chanas solve of the identical edited dataset.
struct WarmRow {
    seed: u64,
    warm_score: u64,
    cold_score: u64,
    cold_s: f64,
    warm_s: f64,
}

struct KeepAliveReport {
    requests: usize,
    keep_alive_per_request_s: f64,
    fresh_per_request_s: f64,
}

struct IncrementalReport {
    patch: Vec<PatchRow>,
    warm: Vec<WarmRow>,
    keep_alive: KeepAliveReport,
}

/// The incremental section (DESIGN.md §13): what does a dataset edit cost
/// with delta patching vs without, what does the recorded consensus buy
/// the next exact solve, and what does connection reuse buy the wire.
fn measure_incremental() -> IncrementalReport {
    // Patch vs rebuild, on the same datasets the kernel section measures.
    // The patched arm times one add+remove pair in place (restoring the
    // matrix, so reps don't drift) and halves it: the steady-state cost
    // of one edit. The rebuild arm is what every edit would cost without
    // the session: a full `CostMatrix::build` of the edited dataset.
    let sampler = UniformSampler::new(*NS.iter().max().expect("non-empty"));
    let patch = NS
        .iter()
        .map(|&n| {
            let mut rng = StdRng::seed_from_u64(42 + n as u64);
            let data = sampler.sample_dataset(n, M, &mut rng);
            let extra = sampler.sample_dataset(n, 1, &mut rng).ranking(0).clone();
            let mut extended = data.rankings().to_vec();
            extended.push(extra.clone());
            let extended = Dataset::new(extended).expect("extended dataset");
            let reps = if n >= 200 { 3 } else { 5 };

            let rebuild_s = time_median(reps, || {
                std::hint::black_box(CostMatrix::build(&extended));
            });
            let mut live = CostMatrix::build(&data);
            let patch_s = time_median(reps, || {
                live.patch_add(&extra);
                live.patch_remove(&extra);
            }) / 2.0;
            live.patch_add(&extra);
            let identical = live == CostMatrix::build(&extended);
            PatchRow {
                n,
                rebuild_s,
                patch_s,
                identical,
            }
        })
        .collect();

    // Warm vs cold, end to end: what one edit → re-solve costs a live
    // session (delta-patched matrix handed to the engine + the previous
    // consensus as the descent start) vs what the same edited dataset
    // costs a cold caller (engine-side `O(m·n²)` matrix build + random
    // start). Each rep runs on a *fresh* engine so the cold arm pays the
    // build it would really pay — a shared cache would launder it away.
    // The warm arm's repeated resolves re-record the (stable) consensus,
    // so every rep measures the steady re-solve state a session sits in.
    let warm_sampler = UniformSampler::new(WARM_N);
    let spec = AlgoSpec::Chanas;
    let warm = WARM_SEEDS
        .iter()
        .map(|&seed| {
            let mut rng = StdRng::seed_from_u64(seed);
            let data = warm_sampler.sample_dataset(WARM_N, WARM_M, &mut rng);
            let extra = warm_sampler
                .sample_dataset(WARM_N, 1, &mut rng)
                .ranking(0)
                .clone();
            let mut session = DatasetSession::new(data);
            session.resolve(&Engine::new(), spec.clone(), 7, None);
            session
                .add_ranking(extra)
                .expect("adds are always accepted");

            let warm = session.resolve(&Engine::new(), spec.clone(), 7, None);
            let warm_s = time_median(5, || {
                std::hint::black_box(session.resolve(&Engine::new(), spec.clone(), 7, None));
            });

            let cold_request =
                AggregationRequest::new(session.dataset(), spec.clone()).with_seed(7);
            let cold = Engine::new().run(&cold_request);
            let cold_s = time_median(5, || {
                std::hint::black_box(Engine::new().run(&cold_request));
            });

            WarmRow {
                seed,
                warm_score: warm.score,
                cold_score: cold.score,
                cold_s,
                warm_s,
            }
        })
        .collect();

    // Keep-alive vs fresh dial: the same finished-job status read,
    // [`KEEPALIVE_REQUESTS`] times over one pooled connection, then the
    // same again with a new client (new TCP connection) per request.
    let server = Server::bind("127.0.0.1:0", ServerConfig::default()).expect("bind ephemeral");
    let addr = server.local_addr().expect("local addr").to_string();
    let shutdown = server.shutdown_handle().expect("shutdown handle");
    std::thread::spawn(move || server.serve());
    let client = Client::new(&addr);
    let job = client
        .submit(&JobSubmission {
            algo: Some("BioConsert".to_owned()),
            ..JobSubmission::new("[{A},{D},{B,C}]\n[{A},{B,C},{D}]\n[{D},{A,C},{B}]\n")
        })
        .expect("submit");
    client.wait(job.id).expect("job finishes");

    let t = Instant::now();
    for _ in 0..KEEPALIVE_REQUESTS {
        std::hint::black_box(client.status(job.id).expect("pooled status read"));
    }
    let keep_alive_per_request_s = t.elapsed().as_secs_f64() / KEEPALIVE_REQUESTS as f64;

    let t = Instant::now();
    for _ in 0..KEEPALIVE_REQUESTS {
        let fresh = Client::new(&addr);
        std::hint::black_box(fresh.status(job.id).expect("fresh-dial status read"));
    }
    let fresh_per_request_s = t.elapsed().as_secs_f64() / KEEPALIVE_REQUESTS as f64;
    shutdown.shutdown();

    IncrementalReport {
        patch,
        warm,
        keep_alive: KeepAliveReport {
            requests: KEEPALIVE_REQUESTS,
            keep_alive_per_request_s,
            fresh_per_request_s,
        },
    }
}

/// The large-n lane comparison (DESIGN.md §16): sizes where the dense
/// `8n²` cost matrix goes from comfortable (8 MB) through heavy (200 MB)
/// to out of the question (3.2 GB).
const LARGE_NS: [usize; 3] = [1000, 5000, 20_000];
/// Few voters: at these sizes the `O(m·n²)` dense build — not the
/// kernels — is the wall under measurement, and m only scales it.
const LARGE_M: usize = 8;

/// A deterministic large dataset: affine permutations of `0..n` (odd
/// steps, coprime with any even n) with adjacent images tied into
/// buckets of two. The exact-uniform sampler's bignum tables are
/// needlessly expensive at n = 20 000; lane timing only needs realistic
/// shape (full support, ties everywhere), not uniformity.
fn large_dataset(n: usize, m: usize) -> Dataset {
    let steps = [3u64, 7, 11, 13, 17, 19, 23, 29];
    let rankings: Vec<_> = (0..m)
        .map(|k| {
            let step = steps[k % steps.len()];
            let idx: Vec<u32> = (0..n as u64)
                .map(|e| (((e * step + k as u64) % n as u64) / 2) as u32)
                .collect();
            rank_core::Ranking::from_bucket_indices(&idx).expect("compact buckets")
        })
        .collect();
    Dataset::new(rankings).expect("dense dataset")
}

/// Peak resident set of this process so far (`VmHWM`), in bytes; 0 where
/// `/proc` is unavailable. Monotonic — callers must read the small-
/// footprint arm before the large one.
fn peak_rss_bytes() -> u64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<u64>().ok())
        })
        .map_or(0, |kb| kb * 1024)
}

/// One (size, lane, algorithm) cell of the large-n section.
struct LargeRow {
    n: usize,
    lane: &'static str,
    algorithm: String,
    wall_s: f64,
    score: u64,
    /// The engine's matrix-build counter after the run — must stay 0 on
    /// the matrix-free lane (the whole point of it).
    matrix_builds: usize,
    /// Analytic resident footprint of the lane's cost provider: 8n²
    /// dense, 0 matrix-free.
    provider_bytes: usize,
    /// Process-wide peak RSS when the row finished (see
    /// [`peak_rss_bytes`] for the monotonicity caveat).
    peak_rss_bytes: u64,
}

/// The large-n section: the matrix-free panel at every size, plus the
/// dense lane at n = 1000 for a same-host before/after (wall time and
/// peak memory of both lanes on identical data). Above 1000 the dense
/// lane is deliberately not run: 200 MB–3.2 GB of matrix is what the
/// lane exists to avoid. MC4 joins only at n = 1000 — its adjacency
/// graph is itself up-to-quadratic, so "matrix-free MC4" buys the build
/// skip, not a memory guarantee.
fn measure_large_n() -> Vec<LargeRow> {
    let mut rows = Vec::new();
    for &n in &LARGE_NS {
        let data = std::sync::Arc::new(large_dataset(n, LARGE_M));
        let mut specs = vec![AlgoSpec::Borda, AlgoSpec::Copeland, AlgoSpec::MedRank(0.5)];
        if n <= 1000 {
            specs.push(AlgoSpec::Mc4);
        }
        // Matrix-free first: VmHWM is a high-water mark, so this lane's
        // peak must be read before the dense build inflates it.
        let lanes: &[(LanePolicy, &str)] = if n <= 1000 {
            &[
                (LanePolicy::MatrixFree, "matrix_free"),
                (LanePolicy::Dense, "dense"),
            ]
        } else {
            &[(LanePolicy::MatrixFree, "matrix_free")]
        };
        for &(policy, lane_name) in lanes {
            let engine = Engine::new();
            for spec in &specs {
                let request = AggregationRequest::new(std::sync::Arc::clone(&data), spec.clone())
                    .with_seed(7)
                    .with_policy(ExecPolicy::default().with_lane(policy));
                let t = Instant::now();
                let report = engine.run(&request);
                let wall_s = t.elapsed().as_secs_f64();
                assert_eq!(report.lane.as_str(), lane_name, "lane resolution drifted");
                rows.push(LargeRow {
                    n,
                    lane: lane_name,
                    algorithm: report.algorithm(),
                    wall_s,
                    score: report.score,
                    matrix_builds: engine.cache().builds(),
                    provider_bytes: if report.lane == KernelLane::Dense {
                        8 * n * n
                    } else {
                        0
                    },
                    peak_rss_bytes: peak_rss_bytes(),
                });
            }
            if lane_name == "matrix_free" {
                assert_eq!(
                    engine.cache().builds(),
                    0,
                    "matrix-free panel at n={n} must never build a cost matrix"
                );
            }
        }
    }
    rows
}

/// The `"large_n"` JSON object, shared by the full run and the
/// section-only run (`perf_trajectory OUT.json large_n`).
fn large_n_json(rows: &[LargeRow]) -> String {
    let mut json = String::new();
    json.push_str("  \"large_n\": {\n");
    let _ = writeln!(json, "    \"m\": {LARGE_M},");
    let _ = writeln!(
        json,
        "    \"dense_budget_bytes\": {},",
        rank_core::engine::DENSE_LANE_BUDGET_BYTES
    );
    json.push_str("    \"rows\": [\n");
    for (i, r) in rows.iter().enumerate() {
        let _ = writeln!(
            json,
            "      {{\"n\": {}, \"lane\": \"{}\", \"algorithm\": \"{}\", \"wall_secs\": {:.6}, \"score\": {}, \"matrix_builds\": {}, \"provider_bytes\": {}, \"peak_rss_bytes\": {}}}{}",
            r.n,
            r.lane,
            r.algorithm,
            r.wall_s,
            r.score,
            r.matrix_builds,
            r.provider_bytes,
            r.peak_rss_bytes,
            if i + 1 < rows.len() { "," } else { "" }
        );
    }
    json.push_str("    ]\n");
    json.push_str("  }");
    json
}

fn main() {
    let out_path = std::env::args()
        .nth(1)
        .unwrap_or_else(|| "BENCH_10.json".to_owned());
    let section = std::env::args().nth(2);
    let threads = rank_core::parallel::num_threads();
    let host_parallelism = std::thread::available_parallelism().map_or(0, |n| n.get());
    let timestamp_unix_secs = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map_or(0, |d| d.as_secs());

    // Section-only mode (`perf_trajectory OUT.json large_n`): run just
    // the named section and emit a header + that section. CI's
    // large-n-smoke job uses it to fit a wall-clock cap.
    if let Some(section) = section {
        assert_eq!(
            section, "large_n",
            "unknown section {section:?} (only \"large_n\" can run alone)"
        );
        let large = measure_large_n();
        for r in &large {
            eprintln!(
                "large_n: n={:<6} {:<11} {:<16} {:.3}s (builds={}, peak {:.0} MB)",
                r.n,
                r.lane,
                r.algorithm,
                r.wall_s,
                r.matrix_builds,
                r.peak_rss_bytes as f64 / 1e6,
            );
        }
        let mut json = String::new();
        json.push_str("{\n");
        let _ = writeln!(
            json,
            "  \"bench\": \"matrix-free large-n kernel lane (PR 10), section-only run\","
        );
        let _ = writeln!(json, "  \"worker_threads\": {threads},");
        let _ = writeln!(json, "  \"host_parallelism\": {host_parallelism},");
        let _ = writeln!(json, "  \"timestamp_unix_secs\": {timestamp_unix_secs},");
        json.push_str(&large_n_json(&large));
        json.push_str("\n}\n");
        std::fs::write(&out_path, &json).expect("write bench report");
        println!("wrote {out_path}");
        return;
    }

    let sampler = UniformSampler::new(*NS.iter().max().expect("non-empty"));

    let mut reports = Vec::new();
    for n in NS {
        let mut rng = StdRng::seed_from_u64(42 + n as u64);
        let data = sampler.sample_dataset(n, M, &mut rng);
        let r = measure(n, &data);
        let slowest_first = r
            .anytime
            .iter()
            .max_by(|a, b| {
                a.first_incumbent_s
                    .partial_cmp(&b.first_incumbent_s)
                    .expect("finite times")
            })
            .expect("non-empty panel");
        eprintln!(
            "n={:<4} slowest first incumbent: {} at {:.1}ms",
            r.n,
            slowest_first.name,
            slowest_first.first_incumbent_s * 1e3
        );
        eprintln!(
            "n={:<4} build {:.2}ms→{:.2}ms  sweep {:.2}ms  multistart {:.1}ms→{:.1}ms ({:.2}x, identical={})  batch {:.1}ms→{:.1}ms ({:.2}x, builds={}, identical={})",
            r.n,
            r.build_serial_s * 1e3,
            r.build_parallel_s * 1e3,
            r.sweep_s * 1e3,
            r.multistart_seq_s * 1e3,
            r.multistart_par_s * 1e3,
            r.multistart_seq_s / r.multistart_par_s,
            r.scores_identical,
            r.batch_seq_s * 1e3,
            r.batch_par_s * 1e3,
            r.batch_seq_s / r.batch_par_s,
            r.batch_builds,
            r.batch_identical,
        );
        reports.push(r);
    }

    // Large-n section: both kernel lanes at n = 1000, matrix-free alone
    // where the dense matrix stops fitting the budget (DESIGN.md §16).
    let large = measure_large_n();
    for r in &large {
        eprintln!(
            "large_n: n={:<6} {:<11} {:<16} {:.3}s (builds={}, peak {:.0} MB)",
            r.n,
            r.lane,
            r.algorithm,
            r.wall_s,
            r.matrix_builds,
            r.peak_rss_bytes as f64 / 1e6,
        );
    }

    // Exact section: the parallel proof search and the certified-gap
    // channel (PR 5).
    let exact = measure_exact();
    let exact_seq_total: f64 = exact.instances.iter().map(|i| i.sequential_s).sum();
    let exact_par_total: f64 = exact.instances.iter().map(|i| i.parallel_s).sum();
    eprintln!(
        "exact: n={EXACT_N} m={EXACT_M} × {} instances ({} workers): dfs {:.1}ms→{:.1}ms ({:.2}x, identical={}, proved={})",
        exact.instances.len(),
        exact.workers,
        exact_seq_total * 1e3,
        exact_par_total * 1e3,
        exact_seq_total / exact_par_total,
        exact.instances.iter().all(|i| i.identical),
        exact.instances.iter().all(|i| i.proved),
    );

    // Recovery section: how fast does a crashed server's state come back?
    let recovery = measure_recovery();
    eprintln!(
        "recovery: {} jobs × {} events: replay {:.1}ms ({:.0}k lines/s), restart-to-ready {:.1}ms",
        recovery.jobs,
        recovery.events_per_job,
        recovery.replay_median_s * 1e3,
        recovery.replay_lines_per_sec / 1e3,
        recovery.restart_to_ready_median_s * 1e3,
    );

    // Incremental section: delta patches, warm re-solves, keep-alive.
    let incremental = measure_incremental();
    for p in &incremental.patch {
        eprintln!(
            "incremental: n={:<4} patch {:.3}ms vs rebuild {:.3}ms ({:.1}x, identical={})",
            p.n,
            p.patch_s * 1e3,
            p.rebuild_s * 1e3,
            p.rebuild_s / p.patch_s,
            p.identical,
        );
    }
    let warm_total: f64 = incremental.warm.iter().map(|w| w.warm_s).sum();
    let cold_total: f64 = incremental.warm.iter().map(|w| w.cold_s).sum();
    eprintln!(
        "incremental: warm Chanas re-solve {:.2}ms vs cold {:.2}ms over {} edited instances ({:.2}x)",
        warm_total * 1e3,
        cold_total * 1e3,
        incremental.warm.len(),
        cold_total / warm_total,
    );
    eprintln!(
        "incremental: status read {:.0}µs keep-alive vs {:.0}µs fresh dial ({:.2}x over {} requests)",
        incremental.keep_alive.keep_alive_per_request_s * 1e6,
        incremental.keep_alive.fresh_per_request_s * 1e6,
        incremental.keep_alive.fresh_per_request_s / incremental.keep_alive.keep_alive_per_request_s,
        incremental.keep_alive.requests,
    );

    let mut json = String::new();
    json.push_str("{\n");
    let _ = writeln!(
        json,
        "  \"bench\": \"parallel consensus kernel + engine batch front door + anytime incumbent traces + parallel exact proof search with certified gaps + durable journal recovery + incremental sessions: delta patches, warm re-solves, keep-alive + matrix-free large-n kernel lane\","
    );
    let _ = writeln!(json, "  \"m\": {M},");
    let _ = writeln!(json, "  \"worker_threads\": {threads},");
    let _ = writeln!(json, "  \"host_parallelism\": {host_parallelism},");
    let _ = writeln!(json, "  \"timestamp_unix_secs\": {timestamp_unix_secs},");
    json.push_str(&large_n_json(&large));
    json.push_str(",\n");
    json.push_str("  \"recovery\": {\n");
    let _ = writeln!(json, "    \"jobs\": {},", recovery.jobs);
    let _ = writeln!(json, "    \"events_per_job\": {},", recovery.events_per_job);
    let _ = writeln!(json, "    \"journal_lines\": {},", recovery.journal_lines);
    let _ = writeln!(json, "    \"journal_bytes\": {},", recovery.journal_bytes);
    let _ = writeln!(
        json,
        "    \"replay_median_secs\": {:.6},",
        recovery.replay_median_s
    );
    let _ = writeln!(
        json,
        "    \"replay_lines_per_sec\": {:.0},",
        recovery.replay_lines_per_sec
    );
    let _ = writeln!(
        json,
        "    \"restart_to_ready_median_secs\": {:.6}",
        recovery.restart_to_ready_median_s
    );
    json.push_str("  },\n");
    json.push_str("  \"incremental\": {\n");
    json.push_str("    \"patch_vs_rebuild\": [\n");
    for (i, p) in incremental.patch.iter().enumerate() {
        let _ = writeln!(
            json,
            "      {{\"n\": {}, \"m\": {M}, \"patch_secs\": {:.9}, \"rebuild_secs\": {:.9}, \"speedup\": {:.2}, \"bit_identical\": {}}}{}",
            p.n,
            p.patch_s,
            p.rebuild_s,
            p.rebuild_s / p.patch_s,
            p.identical,
            if i + 1 < incremental.patch.len() { "," } else { "" }
        );
    }
    json.push_str("    ],\n");
    json.push_str("    \"warm_vs_cold_chanas\": [\n");
    for (i, w) in incremental.warm.iter().enumerate() {
        let _ = writeln!(
            json,
            "      {{\"seed\": {}, \"n\": {WARM_N}, \"m\": {}, \"warm_score\": {}, \"cold_score\": {}, \"warm_secs\": {:.6}, \"cold_secs\": {:.6}, \"speedup\": {:.2}}}{}",
            w.seed,
            WARM_M + 1,
            w.warm_score,
            w.cold_score,
            w.warm_s,
            w.cold_s,
            w.cold_s / w.warm_s,
            if i + 1 < incremental.warm.len() { "," } else { "" }
        );
    }
    json.push_str("    ],\n");
    json.push_str("    \"keep_alive\": {\n");
    let _ = writeln!(
        json,
        "      \"requests\": {},",
        incremental.keep_alive.requests
    );
    let _ = writeln!(
        json,
        "      \"keep_alive_per_request_secs\": {:.9},",
        incremental.keep_alive.keep_alive_per_request_s
    );
    let _ = writeln!(
        json,
        "      \"fresh_dial_per_request_secs\": {:.9},",
        incremental.keep_alive.fresh_per_request_s
    );
    let _ = writeln!(
        json,
        "      \"speedup\": {:.2}",
        incremental.keep_alive.fresh_per_request_s
            / incremental.keep_alive.keep_alive_per_request_s
    );
    json.push_str("    }\n");
    json.push_str("  },\n");
    json.push_str("  \"exact\": {\n");
    let _ = writeln!(json, "    \"n\": {EXACT_N},");
    let _ = writeln!(json, "    \"m\": {EXACT_M},");
    let _ = writeln!(json, "    \"workers\": {},", exact.workers);
    let _ = writeln!(
        json,
        "    \"dfs_sequential_total_secs\": {exact_seq_total:.6},"
    );
    let _ = writeln!(
        json,
        "    \"dfs_parallel_total_secs\": {exact_par_total:.6},"
    );
    let _ = writeln!(
        json,
        "    \"dfs_speedup\": {:.2},",
        exact_seq_total / exact_par_total
    );
    let _ = writeln!(
        json,
        "    \"parallel_matches_sequential\": {},",
        exact.instances.iter().all(|i| i.identical)
    );
    let _ = writeln!(
        json,
        "    \"all_proved_optimal\": {},",
        exact.instances.iter().all(|i| i.proved)
    );
    json.push_str("    \"instances\": [\n");
    for (i, inst) in exact.instances.iter().enumerate() {
        // A job that hit the safety budget never certified: emit null,
        // not a bare NaN token that would corrupt the whole JSON file.
        let certified = if inst.certified_optimal_s.is_nan() {
            "null".to_owned()
        } else {
            format!("{:.6}", inst.certified_optimal_s)
        };
        let _ = writeln!(
            json,
            "      {{\"seed\": {}, \"score\": {}, \"proved\": {}, \"dfs_sequential_secs\": {:.6}, \"dfs_parallel_secs\": {:.6}, \"identical\": {}, \"time_to_certified_optimal_secs\": {certified}}}{}",
            inst.seed,
            inst.score,
            inst.proved,
            inst.sequential_s,
            inst.parallel_s,
            inst.identical,
            if i + 1 < exact.instances.len() { "," } else { "" }
        );
    }
    json.push_str("    ]\n");
    json.push_str("  },\n");
    json.push_str("  \"sizes\": [\n");
    for (i, r) in reports.iter().enumerate() {
        let speedup = r.multistart_seq_s / r.multistart_par_s;
        let _ = writeln!(json, "    {{");
        let _ = writeln!(json, "      \"n\": {},", r.n);
        let _ = writeln!(
            json,
            "      \"matrix_build_serial_secs\": {:.6},",
            r.build_serial_s
        );
        let _ = writeln!(
            json,
            "      \"matrix_build_parallel_secs\": {:.6},",
            r.build_parallel_s
        );
        let _ = writeln!(json, "      \"matrix_peak_bytes\": {},", r.matrix_bytes);
        let _ = writeln!(json, "      \"local_search_sweep_secs\": {:.6},", r.sweep_s);
        let _ = writeln!(
            json,
            "      \"multistart_sequential_secs\": {:.6},",
            r.multistart_seq_s
        );
        let _ = writeln!(
            json,
            "      \"multistart_parallel_secs\": {:.6},",
            r.multistart_par_s
        );
        let _ = writeln!(json, "      \"multistart_speedup\": {speedup:.2},");
        let _ = writeln!(json, "      \"consensus_score\": {},", r.score);
        let _ = writeln!(
            json,
            "      \"parallel_matches_sequential\": {},",
            r.scores_identical
        );
        let _ = writeln!(
            json,
            "      \"engine_batch_sequential_secs\": {:.6},",
            r.batch_seq_s
        );
        let _ = writeln!(
            json,
            "      \"engine_batch_parallel_secs\": {:.6},",
            r.batch_par_s
        );
        let _ = writeln!(
            json,
            "      \"engine_batch_speedup\": {:.2},",
            r.batch_seq_s / r.batch_par_s
        );
        let _ = writeln!(
            json,
            "      \"engine_batch_matrix_builds\": {},",
            r.batch_builds
        );
        let _ = writeln!(
            json,
            "      \"engine_batch_matches_sequential\": {},",
            r.batch_identical
        );
        json.push_str("      \"anytime\": [\n");
        for (j, a) in r.anytime.iter().enumerate() {
            let _ = writeln!(
                json,
                "        {{\"algorithm\": \"{}\", \"time_to_first_incumbent_secs\": {:.6}, \"time_to_final_incumbent_secs\": {:.6}, \"incumbents\": {}, \"score\": {}}}{}",
                a.name,
                a.first_incumbent_s,
                a.final_incumbent_s,
                a.incumbents,
                a.score,
                if j + 1 < r.anytime.len() { "," } else { "" }
            );
        }
        json.push_str("      ]\n");
        let _ = writeln!(
            json,
            "    }}{}",
            if i + 1 < reports.len() { "," } else { "" }
        );
    }
    json.push_str("  ]\n}\n");

    std::fs::write(&out_path, &json).expect("write bench report");
    println!("wrote {out_path}");
}
