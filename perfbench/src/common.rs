//! What every workload shares: the run configuration, the result shape,
//! the closed-loop deadline, and the conversions between the benchmark's
//! own datasets and their wire form.

use rank_core::{Dataset, Element, Ranking};
use service::Json;
use std::hash::{DefaultHasher, Hasher};
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::OnceLock;
use std::time::{Duration, Instant};

/// One invocation's settings.
#[derive(Debug, Clone)]
pub struct Config {
    /// Workload name.
    pub workload: &'static str,
    /// Workload seed: every input is a function of it.
    pub seed: u64,
    /// Length of the measured phase.
    pub seconds: f64,
    /// Traced run (per-layer metrics) instead of the end-to-end run.
    pub trace: bool,
    /// Scratch directory for journals and span files.
    pub work_dir: PathBuf,
}

impl Config {
    /// The measured phase as a [`Duration`].
    pub fn measure_for(&self) -> Duration {
        Duration::from_secs_f64(self.seconds)
    }
}

/// What one workload run produced.
#[derive(Debug, Default)]
pub struct RunResult {
    /// Ops started in the measured phase.
    pub attempted: u64,
    /// Ops that failed in the loop or in the checks afterwards.
    pub failed: u64,
    /// Each op that did not fail in the loop (end-to-end runs).
    pub samples: Vec<Sample>,
    /// When the measured phase started.
    pub measure_start: Option<Instant>,
    /// Ops per chunk: throughput and latency percentiles are taken per
    /// chunk of consecutive ops and reported as their median across
    /// chunks, so a burst of interference moves a few chunks, not the
    /// run's figure.
    pub chunk: usize,
    /// Start and end of each repetition of the set-up.
    pub setups: Vec<(Instant, Instant)>,
    /// Mean relative distance of the results to the cost matrix's lower
    /// bound, over a fixed set of inputs (repeats exactly for a seed).
    pub gap_to_lb_pct: f64,
    /// Per-layer metrics (traced runs only).
    pub layers: Vec<(&'static str, f64)>,
    /// The layers whose medians, plus `unattributed_ms`, make up the
    /// traced op's client-observed median (traced runs only).
    pub waterfall: Vec<&'static str>,
    /// One line per failed check, for the run record.
    pub problems: Vec<String>,
    /// `VmHWM` when the run's fixed op count was reached (see [`RssAt`]).
    pub peak_rss_mb: f64,
}

impl RunResult {
    /// Record a failed check (at most a few lines are kept).
    pub fn problem(&mut self, message: String) {
        if self.problems.len() < 8 {
            self.problems.push(message);
        }
    }
}

/// One op that completed: when it ended, and its client-observed latency.
#[derive(Debug, Clone, Copy)]
pub struct Sample {
    /// End of the op.
    pub end: Instant,
    /// Start to end, in milliseconds.
    pub ms: f64,
}

impl Sample {
    /// The sample of an op that ran from `start` to `end`.
    pub fn new(start: Instant, end: Instant) -> Self {
        Sample {
            end,
            ms: end.duration_since(start).as_secs_f64() * 1e3,
        }
    }
}

/// The latencies of `samples`, in milliseconds.
pub fn latencies(samples: &[Sample]) -> Vec<f64> {
    samples.iter().map(|s| s.ms).collect()
}

/// Reads the process's peak resident set once, when the measured phase's
/// `at`-th op has completed, so the figure depends on the seed and not on
/// how many ops the host had time for: a follow job's event log and the
/// benchmark's own sample vectors grow with every op, and a faster program
/// would otherwise read as a memory regression. A run too short to reach
/// `at` ops reads it at its end.
#[derive(Debug)]
pub struct RssAt {
    at: u64,
    ops: AtomicU64,
    mb: OnceLock<f64>,
}

impl RssAt {
    /// A probe that fires at the `at`-th op.
    pub fn new(at: u64) -> Self {
        RssAt {
            at,
            ops: AtomicU64::new(0),
            mb: OnceLock::new(),
        }
    }

    /// Count one completed op (from any client thread).
    pub fn op_done(&self) {
        if self.ops.fetch_add(1, Ordering::Relaxed) + 1 == self.at {
            let _ = self.mb.set(crate::host::peak_rss_mb());
        }
    }

    /// The reading, in MiB.
    pub fn mb(&self) -> f64 {
        *self.mb.get_or_init(crate::host::peak_rss_mb)
    }
}

/// A digest of `parts` for comparing answers within one run.
pub fn digest<'a>(parts: impl IntoIterator<Item = &'a str>) -> u64 {
    let mut h = DefaultHasher::new();
    for part in parts {
        h.write(part.as_bytes());
        h.write_u8(0xff);
    }
    h.finish()
}

/// Run `op` in a closed loop until `deadline`: the next op starts only
/// when the previous one returned. `op` gets the loop's op count so far.
pub fn closed_loop(deadline: Instant, mut op: impl FnMut(u64)) {
    let mut k = 0;
    while Instant::now() < deadline {
        op(k);
        k += 1;
    }
}

/// Run `f` and return its result with when it started and ended.
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, (Instant, Instant)) {
    let start = Instant::now();
    let out = f();
    (out, (start, Instant::now()))
}

/// A dataset in the text form the CLI and the service read: one ranking
/// per line, elements labelled by their numeric id.
pub fn dataset_text(data: &Dataset) -> String {
    let lines: Vec<String> = data.rankings().iter().map(Ranking::to_string).collect();
    lines.join("\n")
}

/// A ranking from its wire form (`[["3"],["1","2"]]`, labels as the
/// benchmark wrote them), mapped back onto the benchmark's own element
/// ids. `None` when the shape or a label is not what was sent.
pub fn ranking_from_wire(json: &Json) -> Option<Ranking> {
    let buckets = json
        .as_array()?
        .iter()
        .map(|bucket| {
            bucket
                .as_array()?
                .iter()
                .map(|label| label.as_str()?.parse().ok().map(Element))
                .collect::<Option<Vec<Element>>>()
        })
        .collect::<Option<Vec<Vec<Element>>>>()?;
    Ranking::from_buckets(buckets).ok()
}

/// `100 · (score − lower_bound) / lower_bound`; 0 for a zero bound.
pub fn gap_pct(score: u64, lower_bound: u64) -> f64 {
    if lower_bound == 0 {
        return 0.0;
    }
    100.0 * (score as f64 - lower_bound as f64) / lower_bound as f64
}

/// Whether a report's outcome is a completed result.
pub fn completed(outcome: &str) -> bool {
    matches!(outcome, "optimal" | "heuristic")
}

/// Seconds in a report's `phases` object, as milliseconds (0 if absent).
pub fn phase_ms(report: &Json, key: &str) -> f64 {
    report
        .get("phases")
        .and_then(|p| p.get(key))
        .and_then(Json::as_f64)
        .unwrap_or(0.0)
        * 1e3
}
