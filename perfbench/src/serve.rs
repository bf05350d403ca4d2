//! `serve`: two closed-loop clients behaving like `rawt aggregate
//! --remote`, against an in-process `Router` in front of two in-process
//! worker `Server`s (no journal).
//!
//! Each op runs `Client::submit` (inline dataset, `Borda`), then
//! `Client::events` until `finished`, then `Client::status`.
//!
//! Why this workload: it is the wire-dominated path — HTTP front, id
//! translation, per-job threads, the router hop — where the kernel does
//! little (Borda at n = 30, m = 10) and every op opens fresh TCP
//! connections. Inputs come from a pool of 8 datasets, no more than a
//! worker's matrix cache holds, so after warm-up every op hits the cache
//! and the matrix build drops out.

use crate::common::{
    closed_loop, completed, dataset_text, digest, gap_pct, latencies, phase_ms, ranking_from_wire,
    timed, Config, RssAt, RunResult, Sample,
};
use crate::host::tcp_active_opens;
use crate::stats::median;
use crate::trace::{layer_median, Tracer, OP};
use ragen::MarkovGen;
use rand::rngs::StdRng;
use rand::SeedableRng;
use rank_core::engine::{AggregationRequest, AlgoSpec, Engine, Normalization};
use rank_core::parse::parse_dataset_lines;
use rank_core::score::kemeny_score;
use rank_core::{CostMatrix, Dataset, Universe};
use service::proto::{ranking_json, JobSubmission};
use service::{
    Client, Json, Router, RouterConfig, RouterShutdown, Server, ServerConfig, ShutdownHandle,
};
use std::collections::BTreeMap;
use std::sync::Barrier;
use std::thread::JoinHandle;
use std::time::Instant;

const N: usize = 30;
const M: usize = 10;
const STEPS: usize = 1000;
/// Distinct datasets of the measured ops: no more than one worker's
/// matrix cache holds.
const POOL: usize = 8;
/// Datasets served once each during warm-up, before the pool: they cycle
/// the caches, and with the pool they make `gap_to_lb_pct` a mean over 64
/// datasets, steady across seeds, where 8 alone are not.
const ONE_OFF: usize = 56;
const CLIENTS: usize = 2;
const WORKERS: usize = 2;
/// Warm-up passes over the pool through the router before timing.
const WARMUP_PASSES: usize = 4;
/// Set-up repetitions per run; `setup_s` is the median of the quiet ones.
/// More than the other workloads: this set-up is short and waits on the
/// wire, so its median needs more reps.
const SETUP_REPS: usize = 15;
const SPEC: &str = "Borda";
/// Ops per statistics chunk (a whole number of passes over the pool).
const CHUNK: usize = 13 * POOL;
/// Measured ops (both clients together) after which `peak_rss_mb` is read.
const RSS_AT_OPS: u64 = 512 * POOL as u64;

/// The router, its workers, and the threads serving them.
struct Fleet {
    router: String,
    workers: Vec<String>,
    worker_stops: Vec<ShutdownHandle>,
    router_stop: RouterShutdown,
    threads: Vec<JoinHandle<std::io::Result<()>>>,
}

impl Fleet {
    fn start() -> std::io::Result<Fleet> {
        let mut workers = Vec::new();
        let mut worker_stops = Vec::new();
        let mut threads = Vec::new();
        for _ in 0..WORKERS {
            let server = Server::bind("127.0.0.1:0", ServerConfig::default())?;
            let addr = server.local_addr()?;
            worker_stops.push(server.shutdown_handle()?);
            workers.push(addr.to_string());
            threads.push(std::thread::spawn(move || server.serve()));
        }
        let router = Router::bind(
            "127.0.0.1:0",
            RouterConfig {
                workers: workers.clone(),
                token: None,
            },
        )?;
        let addr = router.local_addr()?;
        let router_stop = router.shutdown_handle()?;
        threads.push(std::thread::spawn(move || router.serve()));
        Ok(Fleet {
            router: addr.to_string(),
            workers,
            worker_stops,
            router_stop,
            threads,
        })
    }

    fn matrix_builds(&self) -> u64 {
        (0..self.workers.len()).map(|w| self.worker_builds(w)).sum()
    }

    /// Worker `w`'s `/healthz` `matrix_builds` count.
    fn worker_builds(&self, w: usize) -> u64 {
        Client::new(&self.workers[w])
            .healthz()
            .ok()
            .and_then(|h| h.get("matrix_builds").and_then(Json::as_u64))
            .unwrap_or(0)
    }

    /// The worker the router sends each of `submissions` to, found from
    /// what the fleet does rather than from the router's hash: after
    /// warm-up only the owner has a submission's matrix cached, so the
    /// first worker that serves it without a new build owns it. A probe of
    /// a non-owner caches one more matrix there; with the pool no larger
    /// than a cache, that evicts only the one-off datasets.
    fn owners(&self, submissions: &[JobSubmission]) -> Result<Vec<usize>, String> {
        submissions
            .iter()
            .map(|sub| {
                for w in 0..self.workers.len() {
                    let before = self.worker_builds(w);
                    serve_op(&Client::new(&self.workers[w]), sub)?;
                    if self.worker_builds(w) == before {
                        return Ok(w);
                    }
                }
                Err("no worker has the matrix cached".to_owned())
            })
            .collect()
    }

    fn stop(self) {
        self.router_stop.shutdown();
        for stop in &self.worker_stops {
            stop.shutdown();
        }
        for t in self.threads {
            t.join()
                .expect("server thread panicked")
                .expect("accept loop failed");
        }
    }
}

/// The pool's datasets first, then the one-off ones.
struct Inputs {
    own: Vec<Dataset>,
    texts: Vec<String>,
    submissions: Vec<JobSubmission>,
}

fn inputs(seed: u64) -> Inputs {
    let mut rng = StdRng::seed_from_u64(seed);
    let gen = MarkovGen::identity_seeded(N, STEPS);
    let own: Vec<Dataset> = (0..POOL + ONE_OFF)
        .map(|_| gen.dataset(M, &mut rng))
        .collect();
    let texts: Vec<String> = own.iter().map(dataset_text).collect();
    let submissions = texts
        .iter()
        .enumerate()
        .map(|(i, text)| JobSubmission {
            algo: Some(SPEC.into()),
            seed: 2000 + i as u64,
            ..JobSubmission::new(text.clone())
        })
        .collect();
    Inputs {
        own,
        texts,
        submissions,
    }
}

/// What one op produced: the final report, and the client-side instants
/// after submit, at the first event line, and at the end of the stream.
struct ServeOp {
    report: Json,
    marks: [Instant; 3],
}

fn serve_op(client: &Client, submission: &JobSubmission) -> Result<ServeOp, String> {
    let job = client
        .submit(submission)
        .map_err(|e| format!("submit: {e}"))?;
    let submitted = Instant::now();
    // Read the stream to its end, as `Client::wait` does: the server
    // closes it once the job is done, after the `finished` line.
    let mut first_event = None;
    let mut finished = false;
    for event in client.events(job.id).map_err(|e| format!("events: {e}"))? {
        let event = event.map_err(|e| format!("events: {e}"))?;
        first_event.get_or_insert_with(Instant::now);
        if event.get("event").and_then(Json::as_str) == Some("finished") {
            let outcome = event.get("outcome").and_then(Json::as_str).unwrap_or("");
            if !completed(outcome) {
                return Err(format!("job {}: outcome {outcome:?}", job.id));
            }
            finished = true;
        }
    }
    let streamed = Instant::now();
    let (Some(first_event), true) = (first_event, finished) else {
        return Err(format!(
            "job {}: event stream ended before `finished`",
            job.id
        ));
    };
    let status = client.status(job.id).map_err(|e| format!("status: {e}"))?;
    if status.get("state").and_then(Json::as_str) != Some("done") {
        return Err(format!(
            "job {}: status is not done after `finished`",
            job.id
        ));
    }
    let report = status
        .get("report")
        .filter(|r| !r.is_null())
        .cloned()
        .ok_or_else(|| format!("job {}: done without a report", job.id))?;
    Ok(ServeOp {
        report,
        marks: [submitted, first_event, streamed],
    })
}

/// The deterministic part of an answer: score and ranking.
fn answer_of(report: &Json) -> Option<(u64, u64)> {
    let score = report.get("score").and_then(Json::as_u64)?;
    let ranking = report.get("ranking")?.to_string();
    Some((score, digest([ranking.as_str()])))
}

/// One client thread's record of a phase.
#[derive(Default)]
struct ClientLog {
    attempted: u64,
    failed: u64,
    /// Routed untraced ops.
    samples: Vec<Sample>,
    /// Routed traced ops (traced runs), in ms.
    traced: Vec<f64>,
    /// Untraced ops sent straight to the owning worker (traced runs), in ms.
    direct: Vec<f64>,
    /// `(pool index, score, ranking digest)` per answered op.
    answers: Vec<(usize, u64, u64)>,
    firsts: BTreeMap<usize, Json>,
    problems: Vec<String>,
}

/// How a phase's clients run.
struct Phase<'a> {
    seconds: f64,
    /// Traced runs: each pool dataset's owning worker. Traced routed ops,
    /// untraced routed ops and untraced ops sent straight to the owner
    /// then take turns, so all three meet the same host conditions.
    owners: Option<&'a [usize]>,
    rss: &'a RssAt,
}

/// One client's closed loop until `deadline`.
fn client_loop(
    t: usize,
    fleet: &Fleet,
    inp: &Inputs,
    deadline: Instant,
    phase: &Phase,
    tracer: &mut Tracer,
) -> ClientLog {
    let routed = Client::new(&fleet.router);
    let direct: Vec<Client> = fleet.workers.iter().map(|w| Client::new(w)).collect();
    let mut log = ClientLog::default();
    closed_loop(deadline, |k| {
        let idx = (t * POOL / CLIENTS + k as usize) % POOL;
        let traced = phase.owners.is_some() && k.is_multiple_of(3);
        let direct_to = phase
            .owners
            .filter(|_| k % 3 == 2)
            .map(|owners| owners[idx]);
        let via_router = direct_to.is_none();
        let client = direct_to.map_or(&routed, |w| &direct[w]);
        let start = Instant::now();
        let out = serve_op(client, &inp.submissions[idx]);
        let end = Instant::now();
        log.attempted += 1;
        let out = match out {
            Ok(out) => out,
            Err(e) => {
                log.failed += 1;
                if log.problems.len() < 4 {
                    log.problems.push(format!("client {t} op {k}: {e}"));
                }
                return;
            }
        };
        let sample = Sample::new(start, end);
        phase.rss.op_done();
        if traced {
            log.traced.push(sample.ms);
        } else if via_router {
            log.samples.push(sample);
        } else {
            log.direct.push(sample.ms);
        }
        if traced {
            let id = ((t as u64) << 32) | k;
            let [submitted, first_event, streamed] = out.marks;
            let root = tracer.span(OP, id, None, start, end);
            tracer.span("client.submit", id, Some(root), start, submitted);
            tracer.span("client.first_event", id, Some(root), submitted, first_event);
            tracer.span("client.stream", id, Some(root), first_event, streamed);
            tracer.span("client.status", id, Some(root), streamed, end);
            for (layer, key) in [
                ("engine.queue_wait", "queue_wait_secs"),
                ("pairs.build", "matrix_build_secs"),
                ("algorithms.solve", "solve_secs"),
                ("proto.serialize", "serialize_secs"),
            ] {
                tracer.join(id, layer, phase_ms(&out.report, key));
            }
            // Outside the op: the parse and normalization the worker runs
            // on the submitted text, timed on the benchmark's copy of it.
            let t0 = Instant::now();
            let mut universe = Universe::new();
            let raw = parse_dataset_lines(&inp.texts[idx], &mut universe);
            let parsed = Instant::now();
            if let Ok(raw) = raw {
                std::hint::black_box(Normalization::Unification.apply(&raw));
            }
            tracer.span("parse", id, None, t0, parsed);
            tracer.span("normalize", id, None, parsed, Instant::now());
        }
        match answer_of(&out.report) {
            Some((score, digest)) => log.answers.push((idx, score, digest)),
            None => {
                log.failed += 1;
                log.problems
                    .push(format!("client {t} op {k}: report without score/ranking"));
            }
        }
        log.firsts.entry(idx).or_insert(out.report);
    });
    log
}

/// Run every client's loop in parallel from a common start.
fn run_clients(fleet: &Fleet, inp: &Inputs, phase: &Phase) -> (ClientLog, Tracer, Instant) {
    let barrier = Barrier::new(CLIENTS);
    let origin = Instant::now();
    let logs: Vec<(ClientLog, Tracer)> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..CLIENTS)
            .map(|t| {
                let barrier = &barrier;
                s.spawn(move || {
                    let mut tracer = Tracer::new(origin);
                    barrier.wait();
                    let deadline =
                        Instant::now() + std::time::Duration::from_secs_f64(phase.seconds);
                    let log = client_loop(t, fleet, inp, deadline, phase, &mut tracer);
                    (log, tracer)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect()
    });
    let mut merged = ClientLog::default();
    let mut tracer = Tracer::new(origin);
    for (log, tr) in logs {
        merged.attempted += log.attempted;
        merged.failed += log.failed;
        merged.samples.extend(log.samples);
        merged.traced.extend(log.traced);
        merged.direct.extend(log.direct);
        merged.answers.extend(log.answers);
        for (idx, report) in log.firsts {
            merged.firsts.entry(idx).or_insert(report);
        }
        merged.problems.extend(log.problems);
        tracer.absorb(tr);
    }
    (merged, tracer, origin)
}

/// The same request run in-process: the reference a served answer must
/// equal (router ≡ local).
fn local_answer(inp: &Inputs, idx: usize) -> Result<(u64, Json), String> {
    let mut universe = Universe::new();
    let raw = parse_dataset_lines(&inp.texts[idx], &mut universe).map_err(|e| e.to_string())?;
    let norm = Normalization::Unification
        .apply(&raw)
        .ok_or("normalization produced an empty dataset")?;
    let spec = AlgoSpec::parse(SPEC).map_err(|e| e.to_string())?;
    let request =
        AggregationRequest::new(norm.dataset.clone(), spec).with_seed(inp.submissions[idx].seed);
    let report = Engine::with_workers(1).run(&request);
    let ranking = ranking_json(&norm.denormalize(&report.ranking), &universe);
    Ok((
        report.score,
        Json::parse(&ranking).map_err(|e| e.to_string())?,
    ))
}

/// Check one pool entry's first served report; returns its gap to the
/// lower bound.
fn verify(inp: &Inputs, idx: usize, report: &Json) -> Result<f64, String> {
    let own = &inp.own[idx];
    let score = report
        .get("score")
        .and_then(Json::as_u64)
        .ok_or("no score")?;
    let wire = report.get("ranking").ok_or("no ranking")?;
    let ranking = ranking_from_wire(wire).ok_or("ranking is not a ranking of the sent labels")?;
    if !own.is_complete_ranking(&ranking) {
        return Err("ranking is incomplete".into());
    }
    let rescored = kemeny_score(&ranking, own);
    if rescored != score {
        return Err(format!("reported score {score}, rescored {rescored}"));
    }
    let (local_score, local_ranking) = local_answer(inp, idx)?;
    if local_score != score || ranking_from_wire(&local_ranking) != Some(ranking) {
        return Err(format!(
            "served answer (score {score}) differs from the in-process run (score {local_score})"
        ));
    }
    let lower_bound = CostMatrix::build(own).lower_bound();
    if score < lower_bound {
        return Err(format!("score {score} below lower bound {lower_bound}"));
    }
    Ok(gap_pct(score, lower_bound))
}

/// Run the workload.
pub fn run(cfg: &Config) -> RunResult {
    let mut result = RunResult {
        chunk: CHUNK,
        ..RunResult::default()
    };
    let mut kept: Option<(Inputs, Fleet, BTreeMap<usize, Json>)> = None;
    for _ in 0..SETUP_REPS {
        if let Some((_, fleet, _)) = kept.take() {
            fleet.stop();
            crate::host::trim_heap();
        }
        let (setup, span) = timed(|| {
            let inp = inputs(cfg.seed);
            let fleet = Fleet::start().expect("bind the in-process fleet");
            let warm = Client::new(&fleet.router);
            let one_off: BTreeMap<usize, Json> = (POOL..POOL + ONE_OFF)
                .map(|i| {
                    let op = serve_op(&warm, &inp.submissions[i]).expect("warm-up op");
                    (i, op.report)
                })
                .collect();
            for _ in 0..WARMUP_PASSES {
                for sub in &inp.submissions[..POOL] {
                    serve_op(&warm, sub).expect("warm-up op");
                }
            }
            (inp, fleet, one_off)
        });
        result.setups.push(span);
        kept = Some(setup);
    }
    let (inp, fleet, one_off) = kept.expect("at least one set-up");

    let rss = RssAt::new(RSS_AT_OPS);
    let mut logs = Vec::new();
    if cfg.trace {
        let owners = fleet
            .owners(&inp.submissions[..POOL])
            .expect("find each pool dataset's worker");
        let builds_before = fleet.matrix_builds();
        // Two thirds mixed (traced, untraced and direct ops in turn), then
        // a third of routed untraced ops only, for connections per op.
        let mixed_phase = Phase {
            seconds: cfg.seconds * 2.0 / 3.0,
            owners: Some(&owners),
            rss: &rss,
        };
        let (mixed, tracer, _) = run_clients(&fleet, &inp, &mixed_phase);
        let opens_before = tcp_active_opens();
        let routed_phase = Phase {
            seconds: cfg.seconds / 3.0,
            owners: None,
            rss: &rss,
        };
        let (routed, _, _) = run_clients(&fleet, &inp, &routed_phase);
        let opens = tcp_active_opens().saturating_sub(opens_before);
        let ops = mixed.attempted + routed.attempted;
        let builds = fleet.matrix_builds() - builds_before;
        let builds_per_op = builds as f64 / ops.max(1) as f64;
        let per_op = tracer.per_op();
        let ops_traced: Vec<_> = per_op.values().collect();
        let hop = median(&latencies(&mixed.samples)) - median(&mixed.direct);
        result.layers = vec![
            ("parse.ms", layer_median(&ops_traced, "parse")),
            ("normalize.ms", layer_median(&ops_traced, "normalize")),
            (
                "client.submit_ms",
                layer_median(&ops_traced, "client.submit"),
            ),
            (
                "client.first_event_ms",
                layer_median(&ops_traced, "client.first_event"),
            ),
            (
                "client.stream_ms",
                layer_median(&ops_traced, "client.stream"),
            ),
            (
                "client.status_ms",
                layer_median(&ops_traced, "client.status"),
            ),
            ("router.hop_ms", hop),
            (
                "engine.queue_wait_ms",
                layer_median(&ops_traced, "engine.queue_wait"),
            ),
            ("pairs.build_ms", layer_median(&ops_traced, "pairs.build")),
            (
                "algorithms.solve_ms",
                layer_median(&ops_traced, "algorithms.solve"),
            ),
            (
                "proto.serialize_ms",
                layer_median(&ops_traced, "proto.serialize"),
            ),
            ("engine.builds_per_op", builds_per_op),
            ("engine.cache_hit_ratio", (1.0 - builds_per_op).max(0.0)),
            (
                "http.tw_per_op",
                opens as f64 / routed.attempted.max(1) as f64,
            ),
        ];
        result.waterfall = vec![
            "parse.ms",
            "normalize.ms",
            "router.hop_ms",
            "engine.queue_wait_ms",
            "pairs.build_ms",
            "algorithms.solve_ms",
            "proto.serialize_ms",
        ];
        crate::finish_trace(
            cfg,
            &mut result,
            &tracer,
            &mixed.traced,
            &latencies(&mixed.samples),
        );
        logs.push(mixed);
        logs.push(routed);
    } else {
        let phase = Phase {
            seconds: cfg.seconds,
            owners: None,
            rss: &rss,
        };
        let (log, _, origin) = run_clients(&fleet, &inp, &phase);
        result.measure_start = Some(origin);
        logs.push(log);
    }
    result.peak_rss_mb = rss.mb();
    fleet.stop();

    let mut firsts = one_off;
    for log in &mut logs {
        result.attempted += log.attempted;
        result.failed += log.failed;
        result.samples.append(&mut log.samples);
        for p in log.problems.drain(..) {
            result.problem(p);
        }
        for (idx, report) in std::mem::take(&mut log.firsts) {
            firsts.entry(idx).or_insert(report);
        }
    }
    // Checks, from the recorded responses: each dataset's first answer in
    // full (the one-off ones' only answer), every later answer against it.
    let mut expected: BTreeMap<usize, (u64, u64)> = BTreeMap::new();
    let mut gaps = Vec::new();
    for (&idx, report) in &firsts {
        match verify(&inp, idx, report) {
            Ok(gap) => {
                gaps.push(gap);
                if let Some(answer) = answer_of(report) {
                    expected.insert(idx, answer);
                }
            }
            Err(e) => {
                // A pool dataset's answers fail below, against the missing
                // reference; a one-off dataset's only answer fails here.
                if idx >= POOL {
                    result.failed += 1;
                }
                result.problem(format!("dataset {idx}: {e}"));
            }
        }
    }
    for log in &logs {
        for &(idx, score, digest) in &log.answers {
            if expected.get(&idx) != Some(&(score, digest)) {
                result.failed += 1;
                if expected.contains_key(&idx) {
                    result.problem(format!("dataset {idx}: an answer differs from the first"));
                }
            }
        }
    }
    result.gap_to_lb_pct = if gaps.is_empty() {
        0.0
    } else {
        gaps.iter().sum::<f64>() / gaps.len() as f64
    };
    result
}
