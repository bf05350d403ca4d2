//! `session`: one closed-loop client editing live datasets that `follow`
//! jobs keep solving, on one in-process worker `Server` with a journal
//! (default fsync policy).
//!
//! Set-up creates 16 live datasets (Markov, n = 100, m = 20, 20 000-step
//! walks) with `PUT`
//! and starts one `follow` job running `Chanas` on each, with one
//! long-lived event stream per job. Each op sends `Client::patch_dataset`
//! with one `replace` drawn from a seeded pool to the next dataset in
//! turn, then reads that job's stream until the `resolved` event tagged
//! with the new dataset version.
//!
//! Why this workload: it uses the layers `serve` uses, but differently —
//! the cost matrix is patched in O(n²) instead of built or fetched from
//! the cache, the kernel does real work (Chanas at n = 100),
//! the journal appends on every op, almost no connections are opened,
//! and the router is not on the path. Why 16 datasets and not one: each
//! follow job warm-starts from its previous consensus, so one job's
//! versions form a single chain whose quality is one sample per seed;
//! sixteen independent chains make `gap_to_lb_pct` steady across seeds.
//! Every op still has the same shape: one PATCH, one re-solve, one
//! `resolved` line on an open stream.

use crate::common::{
    closed_loop, completed, dataset_text, gap_pct, latencies, phase_ms, ranking_from_wire, timed,
    Config, RssAt, RunResult, Sample,
};
use crate::host::{dir_bytes, tcp_active_opens};
use crate::trace::{layer_median, Tracer, OP};
use ragen::MarkovGen;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use rank_core::score::kemeny_score;
use rank_core::session::DatasetSession;
use rank_core::{CostMatrix, Dataset, Ranking};
use service::client::EventStream;
use service::proto::JobSubmission;
use service::{Client, Json, Server, ServerConfig, ShutdownHandle};
use std::path::PathBuf;
use std::thread::JoinHandle;
use std::time::Instant;

const N: usize = 100;
const M: usize = 20;
/// Walk length of the Markov generator: long walks give dissimilar inputs
/// whose gap to the lower bound is large enough to be steady across seeds
/// (with `rawt generate`'s 1000 steps Chanas lands within a few cost
/// units of the bound, and the relative gap is mostly noise).
const STEPS: usize = 20000;
/// Live datasets, each with its own follow job; ops rotate over them.
const DATASETS: usize = 16;
/// Replacement rankings per dataset.
const REPLACEMENTS: usize = 16;
/// Distinct edits per dataset, cycled.
const EDITS: usize = 32;
/// Warm-up ops before timing (two edits per dataset).
const WARMUP: usize = 2 * DATASETS;
const SETUP_REPS: usize = 5;
/// `gap_to_lb_pct` is taken over the first this many measured ops, so it
/// repeats exactly for a seed, and `peak_rss_mb` is read after them.
const FIXED_OPS: usize = 64 * DATASETS;
/// `journal.bytes_per_op` is taken over the first this many ops of a
/// traced run.
const JOURNAL_OPS: usize = 4 * DATASETS;
/// Ops per statistics chunk: eight edits on every dataset.
const CHUNK: usize = 8 * DATASETS;
const SPEC: &str = "Chanas";
const JOB_SEED: u64 = 3000;

/// One edit: the slot it replaces, the new ranking, and the PATCH body.
struct Edit {
    slot: usize,
    ranking: Ranking,
    body: String,
}

struct Inputs {
    own: Vec<Dataset>,
    /// Per dataset, its edits.
    edits: Vec<Vec<Edit>>,
}

impl Inputs {
    /// The dataset and edit of the run's `j`-th op (warm-up included).
    fn edit(&self, j: usize) -> (usize, &Edit) {
        let d = j % DATASETS;
        (d, &self.edits[d][(j / DATASETS) % EDITS])
    }
}

fn inputs(seed: u64) -> Inputs {
    let mut rng = StdRng::seed_from_u64(seed);
    let gen = MarkovGen::identity_seeded(N, STEPS);
    let mut own = Vec::new();
    let mut edits = Vec::new();
    for _ in 0..DATASETS {
        own.push(gen.dataset(M, &mut rng));
        let pool = gen.dataset(REPLACEMENTS, &mut rng);
        edits.push(
            (0..EDITS)
                .map(|_| {
                    let slot = rng.random_range(0..M);
                    let ranking = pool.ranking(rng.random_range(0..REPLACEMENTS)).clone();
                    let body = format!(
                        "{{\"ops\":[{{\"op\":\"replace\",\"index\":{slot},\"ranking\":\"{ranking}\"}}]}}"
                    );
                    Edit {
                        slot,
                        ranking,
                        body,
                    }
                })
                .collect(),
        );
    }
    Inputs { own, edits }
}

fn dataset_id(d: usize) -> String {
    format!("live-{d}")
}

/// Sessions mirroring the live datasets, with the warm-up edits applied.
fn mirrors(inp: &Inputs) -> Vec<DatasetSession> {
    let mut sessions: Vec<DatasetSession> =
        inp.own.iter().cloned().map(DatasetSession::new).collect();
    for j in 0..WARMUP {
        let (d, edit) = inp.edit(j);
        sessions[d]
            .replace_ranking(edit.slot, edit.ranking.clone())
            .expect("replacement over the same elements");
    }
    sessions
}

/// A worker serving the live datasets, their follow jobs, and the
/// client's open event stream on each.
struct Live {
    client: Client,
    jobs: Vec<u64>,
    streams: Vec<EventStream>,
    journal: PathBuf,
    stop: ShutdownHandle,
    thread: JoinHandle<std::io::Result<()>>,
}

impl Live {
    fn start(journal: PathBuf, inp: &Inputs) -> Result<Live, String> {
        let _ = std::fs::remove_dir_all(&journal);
        std::fs::create_dir_all(&journal).map_err(|e| e.to_string())?;
        let config = ServerConfig {
            journal_dir: Some(journal.clone()),
            ..ServerConfig::default()
        };
        let server = Server::bind("127.0.0.1:0", config).map_err(|e| e.to_string())?;
        let addr = server.local_addr().map_err(|e| e.to_string())?;
        let stop = server.shutdown_handle().map_err(|e| e.to_string())?;
        let thread = std::thread::spawn(move || server.serve());
        let mut live = Live {
            client: Client::new(&addr.to_string()),
            jobs: Vec::new(),
            streams: Vec::new(),
            journal,
            stop,
            thread,
        };
        for (d, own) in inp.own.iter().enumerate() {
            live.client
                .create_dataset(&dataset_id(d), &dataset_text(own))
                .map_err(|e| format!("PUT: {e}"))?;
            let job = live
                .client
                .submit(&JobSubmission {
                    algo: Some(SPEC.into()),
                    follow: true,
                    seed: JOB_SEED,
                    ..JobSubmission::for_dataset(dataset_id(d))
                })
                .map_err(|e| format!("submit follow job: {e}"))?
                .id;
            live.jobs.push(job);
            let stream = live
                .client
                .events(job)
                .map_err(|e| format!("events: {e}"))?;
            live.streams.push(stream);
            live.resolve(d, 1)?;
        }
        Ok(live)
    }

    /// Read dataset `d`'s stream until the `resolved` event of `version`;
    /// returns its score and how many rounds started for that version.
    fn resolve(&mut self, d: usize, version: u64) -> Result<(u64, u32), String> {
        let mut rounds = 0;
        loop {
            let event = self.streams[d]
                .next()
                .ok_or("event stream ended")?
                .map_err(|e| format!("events: {e}"))?;
            let kind = event.get("event").and_then(Json::as_str).unwrap_or("");
            let tagged = event.get("dataset_version").and_then(Json::as_u64);
            match kind {
                "started" if tagged == Some(version) => rounds += 1,
                "resolved" if tagged == Some(version) => {
                    let outcome = event.get("outcome").and_then(Json::as_str).unwrap_or("");
                    if !completed(outcome) {
                        return Err(format!("version {version}: outcome {outcome:?}"));
                    }
                    let score = event
                        .get("score")
                        .and_then(Json::as_u64)
                        .ok_or("resolved without a score")?;
                    return Ok((score, rounds));
                }
                "failed" | "finished" => return Err(format!("follow job ended: {event}")),
                _ => {}
            }
        }
    }

    /// One op on dataset `d`: PATCH, then wait for the new version's
    /// `resolved`. Returns the version, its score, the rounds it took,
    /// and when the PATCH returned.
    fn op(&mut self, d: usize, body: &str) -> Result<(u64, u64, u32, Instant), String> {
        let doc = self
            .client
            .patch_dataset(&dataset_id(d), body)
            .map_err(|e| format!("PATCH: {e}"))?;
        let patched = Instant::now();
        let version = doc
            .get("version")
            .and_then(Json::as_u64)
            .ok_or("PATCH reply without a version")?;
        let (score, rounds) = self.resolve(d, version)?;
        Ok((version, score, rounds, patched))
    }

    fn matrix_builds(&self) -> u64 {
        self.client
            .healthz()
            .ok()
            .and_then(|h| h.get("matrix_builds").and_then(Json::as_u64))
            .unwrap_or(0)
    }

    fn stop(self) {
        for &job in &self.jobs {
            let _ = self.client.cancel(job);
        }
        drop(self.streams);
        self.stop.shutdown();
        self.thread
            .join()
            .expect("server thread panicked")
            .expect("accept loop failed");
        let _ = std::fs::remove_dir_all(&self.journal);
    }
}

/// One measured op as recorded: the run's op index `j`, and what the
/// server answered.
struct Answer {
    j: usize,
    /// `(version, score)`, or `None` if the op failed.
    answer: Option<(u64, u64)>,
    /// Whether the PATCH took effect (the mirror must apply it too).
    patched: bool,
}

/// Run the workload.
pub fn run(cfg: &Config) -> RunResult {
    let mut result = RunResult {
        chunk: CHUNK,
        ..RunResult::default()
    };
    let mut kept: Option<(Inputs, Live)> = None;
    for rep in 0..SETUP_REPS {
        if let Some((_, live)) = kept.take() {
            live.stop();
            crate::host::trim_heap();
        }
        let journal = cfg
            .work_dir
            .join(format!("journal-{}-{rep}", std::process::id()));
        let (setup, span) = timed(|| {
            let inp = inputs(cfg.seed);
            let mut live = Live::start(journal, &inp).expect("start the live sessions");
            for j in 0..WARMUP {
                let (d, edit) = inp.edit(j);
                live.op(d, &edit.body).expect("warm-up op");
            }
            (inp, live)
        });
        result.setups.push(span);
        kept = Some(setup);
    }
    let (inp, mut live) = kept.expect("at least one set-up");

    let mut answers: Vec<Answer> = Vec::new();
    let mut tracer = Tracer::new(Instant::now());
    let mut probe = mirrors(&inp);
    let builds_before = live.matrix_builds();
    let rss = RssAt::new(FIXED_OPS as u64);
    let journal_start = dir_bytes(&live.journal);
    let mut journal_fixed = None;
    let mut next = WARMUP;
    let mut samples = Vec::new();
    let mut traced_samples = Vec::new();
    let opens_before = tcp_active_opens();
    // In a traced run, traced and untraced ops take turns, so the
    // difference between them is the tracing overhead and not a change
    // in the host.
    let trace = cfg.trace;
    result.measure_start = Some(Instant::now());
    closed_loop(Instant::now() + cfg.measure_for(), |_| {
        let j = next;
        next += 1;
        let k = (j - WARMUP) as u64;
        let traced = trace && k.is_multiple_of(2);
        let (d, edit) = inp.edit(j);
        let start = Instant::now();
        let out = live.op(d, &edit.body);
        let end = Instant::now();
        result.attempted += 1;
        if trace && k + 1 == JOURNAL_OPS as u64 {
            journal_fixed = Some(dir_bytes(&live.journal));
        }
        let (version, score, rounds, patched) = match out {
            Ok(out) => out,
            Err(e) => {
                result.failed += 1;
                result.problem(format!("op {k}: {e}"));
                let patched = !e.starts_with("PATCH");
                answers.push(Answer {
                    j,
                    answer: None,
                    patched,
                });
                return;
            }
        };
        answers.push(Answer {
            j,
            answer: Some((version, score)),
            patched: true,
        });
        rss.op_done();
        if !traced {
            samples.push(Sample::new(start, end));
            return;
        }
        traced_samples.push(Sample::new(start, end));
        let root = tracer.span(OP, k, None, start, end);
        tracer.span("client.patch", k, Some(root), start, patched);
        tracer.span("client.resolve", k, Some(root), patched, end);
        tracer.join(k, "session.rounds", f64::from(rounds));
        // Outside the op: the round's phases from the job status; the
        // same edit applied to the benchmark's own session mirror (delta
        // patch vs full rebuild); and the score of the served consensus
        // on the mirror's matrix.
        let report = live
            .client
            .status(live.jobs[d])
            .ok()
            .and_then(|status| status.get("report").cloned());
        for (layer, key) in [
            ("engine.queue_wait", "queue_wait_secs"),
            ("pairs.build", "matrix_build_secs"),
            ("algorithms.solve", "solve_secs"),
            ("proto.serialize", "serialize_secs"),
        ] {
            let ms = report.as_ref().map_or(0.0, |r| phase_ms(r, key));
            tracer.join(k, layer, ms);
        }
        let t0 = Instant::now();
        probe[d]
            .replace_ranking(edit.slot, edit.ranking.clone())
            .expect("replacement over the same elements");
        tracer.span("session.patch", k, None, t0, Instant::now());
        let snapshot = probe[d].dataset();
        let t1 = Instant::now();
        std::hint::black_box(CostMatrix::build(&snapshot));
        tracer.span("session.rebuild", k, None, t1, Instant::now());
        let consensus = report
            .as_ref()
            .and_then(|r| r.get("ranking"))
            .and_then(ranking_from_wire);
        if let Some(ranking) = consensus {
            let t2 = Instant::now();
            std::hint::black_box(probe[d].matrix().score(std::hint::black_box(&ranking)));
            tracer.span("pairs.score", k, None, t2, Instant::now());
        }
    });
    if trace {
        let opens = tcp_active_opens().saturating_sub(opens_before);
        let builds = live.matrix_builds() - builds_before;
        let builds_per_op = builds as f64 / result.attempted.max(1) as f64;
        let per_op = tracer.per_op();
        let ops: Vec<_> = per_op.values().collect();
        let rounds: f64 = ops.iter().filter_map(|m| m.get("session.rounds")).sum();
        let journal_bytes = journal_fixed.map_or(0.0, |end| {
            end.saturating_sub(journal_start) as f64 / JOURNAL_OPS as f64
        });
        result.layers = vec![
            ("client.patch_ms", layer_median(&ops, "client.patch")),
            ("client.resolve_ms", layer_median(&ops, "client.resolve")),
            ("session.rounds_per_op", rounds / ops.len().max(1) as f64),
            ("session.patch_ms", layer_median(&ops, "session.patch")),
            ("pairs.score_ms", layer_median(&ops, "pairs.score")),
            ("session.rebuild_ms", layer_median(&ops, "session.rebuild")),
            (
                "engine.queue_wait_ms",
                layer_median(&ops, "engine.queue_wait"),
            ),
            ("pairs.build_ms", layer_median(&ops, "pairs.build")),
            (
                "algorithms.solve_ms",
                layer_median(&ops, "algorithms.solve"),
            ),
            ("proto.serialize_ms", layer_median(&ops, "proto.serialize")),
            ("engine.builds_per_op", builds_per_op),
            ("engine.cache_hit_ratio", (1.0 - builds_per_op).max(0.0)),
            ("journal.bytes_per_op", journal_bytes),
            (
                "http.tw_per_op",
                opens as f64 / result.attempted.max(1) as f64,
            ),
        ];
        result.waterfall = vec![
            "session.patch_ms",
            "engine.queue_wait_ms",
            "pairs.build_ms",
            "algorithms.solve_ms",
            "proto.serialize_ms",
        ];
        crate::finish_trace(
            cfg,
            &mut result,
            &tracer,
            &latencies(&traced_samples),
            &latencies(&samples),
        );
    }
    result.samples = samples;
    result.peak_rss_mb = rss.mb();
    let final_status: Vec<_> = live
        .jobs
        .iter()
        .map(|&job| live.client.status(job))
        .collect();
    live.stop();

    // Checks, from the recorded answers: replay every edit on mirrors of
    // the datasets; each version must match and each score must be at
    // least that version's lower bound; each follow job's last consensus
    // must rescore exactly on its mirror.
    let mut mirror = mirrors(&inp);
    let mut gaps = Vec::new();
    let mut last_score: Vec<Option<u64>> = vec![None; DATASETS];
    for a in &answers {
        if !a.patched {
            continue;
        }
        let (d, edit) = inp.edit(a.j);
        let version = mirror[d]
            .replace_ranking(edit.slot, edit.ranking.clone())
            .expect("replacement over the same elements");
        let Some((served_version, score)) = a.answer else {
            continue;
        };
        let lower_bound = mirror[d].matrix().lower_bound();
        if served_version != version || score < lower_bound {
            result.failed += 1;
            result.problem(format!(
                "op {}: version {served_version} score {score}, mirror version {version} bound {lower_bound}",
                a.j - WARMUP
            ));
            continue;
        }
        if a.j - WARMUP < FIXED_OPS {
            gaps.push(gap_pct(score, lower_bound));
        }
        last_score[d] = Some(score);
    }
    for (d, status) in final_status.into_iter().enumerate() {
        let check = status.map_err(|e| e.to_string()).and_then(|status| {
            let report = status.get("report").ok_or("status without a report")?;
            let score = report
                .get("score")
                .and_then(Json::as_u64)
                .ok_or("no score")?;
            let ranking = report
                .get("ranking")
                .and_then(ranking_from_wire)
                .ok_or("ranking is not a ranking of the sent labels")?;
            let data = mirror[d].dataset();
            if !data.is_complete_ranking(&ranking) {
                return Err("final consensus is incomplete".to_owned());
            }
            let rescored = kemeny_score(&ranking, &data);
            if rescored != score || last_score[d].is_some_and(|last| last != score) {
                return Err(format!(
                    "final consensus scores {score}, rescored {rescored}, last resolved {:?}",
                    last_score[d]
                ));
            }
            Ok(())
        });
        if let Err(e) = check {
            result.failed += 1;
            result.problem(format!("dataset {d} final consensus: {e}"));
        }
    }
    result.gap_to_lb_pct = if gaps.is_empty() {
        0.0
    } else {
        gaps.iter().sum::<f64>() / gaps.len() as f64
    };
    result
}
