//! The rank-aggregation algorithm suite (Table 1 of the paper).
//!
//! Every algorithm the paper re-implemented and evaluated (bold rows of
//! Table 1) is available through [`paper_algorithms`]; the remaining rows
//! (Chanas, ChanasBoth, BnB, MC4) plus a classic pairwise Copeland are
//! implemented as extensions in [`extended_algorithms`]. Both panels are
//! thin named presets over the typed [`crate::engine`] registry
//! ([`crate::engine::AlgoSpec`]); new callers should prefer the engine's
//! request/report API and treat [`ConsensusAlgorithm`] as the internal
//! kernel trait it now is.
//!
//! | Name | Class | Produces ties | Module |
//! |------|-------|---------------|--------|
//! | Ailon 3/2 | \[K\] linear programming | with rounding | [`ailon`] |
//! | BioConsert | \[G\] local search | yes | [`bioconsert`] |
//! | BordaCount | \[P\] sort by score | adapted | [`borda`] |
//! | CopelandMethod | \[P\] sort by score | adapted | [`copeland`] |
//! | FaginDyn (Small/Large) | \[G\] dynamic programming | yes | [`fagin`] |
//! | KwikSort (+Min) | \[K\] divide & conquer | adapted (3-way pivot) | [`kwiksort`] |
//! | MEDRank(h) | \[P\] extract order | adapted | [`medrank`] |
//! | Pick-a-Perm | \[K\] naive | yes (returns an input) | [`pick_a_perm`] |
//! | RepeatChoice (+Min) | \[K\] sort by order | adapted | [`repeat_choice`] |
//! | ExactAlgorithm | branch & bound / LPB (§4.2) | yes | [`exact`] |
//! | Chanas / ChanasBoth | \[K\] local search | no | [`chanas`] |
//! | BnB | \[K\] branch & bound | no | [`bnb`] |
//! | MC4 | \[P\] hybrid (Markov chain) | yes | [`mc4`] |
//!
//! # Contexts, parallelism, determinism
//!
//! [`AlgoContext`] is the per-run environment: seeded randomness, an
//! optional wall-clock deadline, outcome flags, and the shared
//! [`CostMatrix`] cache. It is designed for multi-threaded use:
//!
//! * outcome flags live behind atomics shared by every context cloned
//!   from the same run ([`AlgoContext::worker`]), so a worker hitting the
//!   deadline is visible to all its siblings and to the caller;
//! * [`AlgoContext::worker`]`(i)` derives a child context whose RNG stream
//!   depends only on the base seed and `i` — **not** on scheduling — which
//!   is what makes parallel multi-start runs reproducible;
//! * [`AlgoContext::cost_matrix`] returns the dataset's shared cost
//!   matrix, building it at most once per dataset per context family (see
//!   the [`crate::pairs`] module docs for the contract).
//!
//! # Anytime execution
//!
//! Every iterative algorithm polls [`AlgoContext::checkpoint`] at its
//! natural stopping points — one call that observes both the wall-clock
//! deadline and cooperative cancellation — and publishes improving
//! solutions through [`AlgoContext::offer_incumbent`]. The engine's job
//! API ([`crate::engine::Engine::submit`]) builds on exactly this surface:
//! streaming incumbents, harvestable best-so-far, prompt cancellation.
//! Offers are observational — they never influence the computation — so
//! the determinism contract above is unaffected.

pub mod ailon;
pub mod bioconsert;
pub mod bnb;
pub mod borda;
pub mod chanas;
pub mod copeland;
pub mod exact;
pub mod fagin;
pub mod kwiksort;
pub mod mc4;
pub mod medrank;
pub mod pick_a_perm;
pub mod repeat_choice;

use crate::dataset::Dataset;
use crate::element::Element;
use crate::engine::job::{CancelToken, IncumbentSink};
use crate::engine::{AlgoSpec, ExecPolicy, KernelLane};
use crate::pairs::CostMatrix;
use crate::parallel;
use crate::ranking::Ranking;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// A previous consensus seeding a re-solve over an edited dataset
/// (DESIGN.md §13).
///
/// Carried by [`AlgoContext`] (set through
/// [`crate::engine::AggregationRequest::with_warm_start`], propagated to
/// every worker). Consumers and their guarantees:
///
/// * **BioConsert** treats the hint as one extra start — warm results are
///   never worse than cold at equal budget (the hint start only wins on
///   strict improvement);
/// * **Chanas / ChanasBoth** seed their descent from the tie-flattened
///   hint instead of a random input — results never score worse than the
///   flattened hint;
/// * **Exact / BnB** take `min(hint score, their own heuristic
///   incumbent)` as the initial upper bound, keeping whichever ranking
///   achieves it as the incumbent witness — a tight prior bound prunes
///   most of the search after a small edit;
/// * **BestOf** and the other wrappers inherit the hint through worker
///   contexts.
///
/// The hint must be a complete ranking of the run's dataset and `score`
/// must be its generalized Kemeny score against that dataset — the engine
/// validates both before attaching.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WarmStart {
    /// The prior consensus ranking.
    pub ranking: Ranking,
    /// Its generalized Kemeny score against the current dataset.
    pub score: u64,
}

/// Outcome flags shared by a context and all its workers — but, unlike
/// the pre-engine `SharedCtx`, *not* by sibling requests: the engine gives
/// every request its own flags while sharing only the [`MatrixCache`], so
/// one request's timeout can never be mis-attributed to a neighbour.
#[derive(Debug, Default)]
struct OutcomeFlags {
    /// Set by an algorithm that had to stop early.
    timed_out: AtomicBool,
    /// Set by exact solvers when optimality was *proved* (not just a best
    /// incumbent found).
    proved_optimal: AtomicBool,
    /// Set when a [`AlgoContext::checkpoint`] observed a cancellation
    /// request — the run stopped because the caller asked, not because
    /// time ran out.
    cancelled: AtomicBool,
    /// How many [`AlgoContext::checkpoint`] polls this run performed,
    /// summed across workers — the denominator of the per-checkpoint
    /// overhead argument (DESIGN.md §15): one relaxed add per poll, cheap
    /// enough to leave on unconditionally.
    checkpoints: AtomicU64,
}

/// What an algorithm should do after a [`AlgoContext::checkpoint`].
///
/// The checkpoint folds the two early-stop sources — the wall-clock
/// deadline and cooperative cancellation
/// ([`crate::engine::job::CancelToken`]) — into one answer, replacing the
/// earlier ad-hoc `expired()`/`set_timed_out()` discipline. `#[must_use]`:
/// ignoring a `Stop` keeps the run burning budget after the caller asked
/// it to stop.
#[must_use]
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Control {
    /// Keep computing.
    Continue,
    /// Stop at the nearest consistent point and return the best incumbent
    /// published so far (the checkpoint already recorded *why* in the
    /// outcome flags).
    Stop,
}

impl Control {
    /// `true` when the algorithm should stop now.
    #[inline]
    pub fn is_stop(self) -> bool {
        self == Control::Stop
    }

    /// `true` when the algorithm may keep computing.
    #[inline]
    pub fn is_continue(self) -> bool {
        self == Control::Continue
    }
}

/// Cache key: dataset shape plus a 128-bit content fingerprint.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct MatrixKey {
    n: usize,
    m: usize,
    fp: (u64, u64),
}

impl MatrixKey {
    /// `O(m·n)` content fingerprint over every ranking's position vector —
    /// cheap next to the `O(m·n²)` build it guards against repeating.
    pub(crate) fn of(data: &Dataset) -> Self {
        let mut h1 = 0x9E37_79B9_7F4A_7C15u64;
        let mut h2 = 0xC2B2_AE3D_27D4_EB4Fu64;
        let mut absorb = |v: u64| {
            h1 = mix(h1 ^ v);
            h2 = mix(h2 ^ v.rotate_left(17) ^ 0xA5A5_A5A5_A5A5_A5A5);
        };
        absorb(data.n() as u64);
        absorb(data.m() as u64);
        for r in data.rankings() {
            for &p in r.positions() {
                absorb(p as u64);
            }
        }
        MatrixKey {
            n: data.n(),
            m: data.m(),
            fp: (h1, h2),
        }
    }
}

/// SplitMix64 finalizer — avalanching 64-bit mix.
#[inline]
fn mix(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Matrices kept per cache before FIFO eviction (the exact solver's block
/// decomposition touches several small sub-datasets; the engine's serving
/// traffic rotates through recent datasets).
const MATRIX_CACHE_CAP: usize = 8;

/// A fingerprint-keyed cache of built [`CostMatrix`]es, shareable across
/// contexts.
///
/// Every [`AlgoContext`] owns (an `Arc` to) one of these; a context and
/// all its [`AlgoContext::worker`]s share it, and the engine
/// ([`crate::engine::Engine`]) threads a single cache through *every*
/// request it serves, so concurrent requests over the same dataset pay for
/// at most one `O(m·n²)` build between them. Bounded FIFO eviction (8
/// entries).
#[derive(Debug, Default)]
pub struct MatrixCache {
    matrices: Mutex<Vec<(MatrixKey, Arc<CostMatrix>)>>,
    /// Builds actually performed (observability: cache hits don't count).
    builds: AtomicUsize,
}

impl MatrixCache {
    /// An empty cache.
    pub fn new() -> Self {
        MatrixCache::default()
    }

    /// The dataset's cost matrix, building it on first use.
    ///
    /// The cache lock is held across the build on purpose: when many
    /// concurrent requests ask for the same dataset, exactly one pays the
    /// `O(m·n²)` build and the rest block briefly and then share it.
    pub fn get(&self, data: &Dataset) -> Arc<CostMatrix> {
        self.get_with_flag(data).0
    }

    /// [`Self::get`], also reporting whether this call performed the
    /// `O(m·n²)` build (`true`) or found the matrix cached (`false`) —
    /// what the engine's telemetry uses to split matrix-build time from
    /// cache hits per job.
    pub fn get_with_flag(&self, data: &Dataset) -> (Arc<CostMatrix>, bool) {
        let key = MatrixKey::of(data);
        let mut cache = self.matrices.lock().expect("matrix cache poisoned");
        if let Some((_, matrix)) = cache.iter().find(|(k, _)| *k == key) {
            return (Arc::clone(matrix), false);
        }
        let matrix = Arc::new(CostMatrix::build(data));
        self.builds.fetch_add(1, Ordering::Relaxed);
        if cache.len() >= MATRIX_CACHE_CAP {
            cache.remove(0);
        }
        cache.push((key, Arc::clone(&matrix)));
        (matrix, true)
    }

    /// Prime the cache with an already-built matrix for `data` (e.g. a
    /// [`crate::session::DatasetSession`]'s delta-patched one), so the
    /// next [`MatrixCache::get`] is a hit instead of an `O(m·n²)` build.
    ///
    /// `matrix` must equal `CostMatrix::build(data)` bit for bit — a
    /// mismatched matrix would silently corrupt every consumer keyed to
    /// this dataset. The session's patches are property-tested to that
    /// contract, and debug builds re-verify it here.
    pub fn insert(&self, data: &Dataset, matrix: Arc<CostMatrix>) {
        debug_assert_eq!(
            *matrix,
            CostMatrix::build(data),
            "primed cost matrix must be bit-identical to a cold rebuild"
        );
        let key = MatrixKey::of(data);
        let mut cache = self.matrices.lock().expect("matrix cache poisoned");
        if cache.iter().any(|(k, _)| *k == key) {
            return;
        }
        if cache.len() >= MATRIX_CACHE_CAP {
            cache.remove(0);
        }
        cache.push((key, matrix));
    }

    /// How many `O(m·n²)` builds this cache has actually performed.
    pub fn builds(&self) -> usize {
        self.builds.load(Ordering::Relaxed)
    }

    /// Matrices currently resident.
    pub fn len(&self) -> usize {
        self.matrices.lock().expect("matrix cache poisoned").len()
    }

    /// Whether the cache holds no matrices yet.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The cache key for `data` (dataset shape + content fingerprint) —
    /// what the engine groups batch requests by.
    pub(crate) fn fingerprint(data: &Dataset) -> MatrixKey {
        MatrixKey::of(data)
    }
}

/// Per-run context: seeded randomness, optional deadline, outcome flags,
/// and the shared cost-matrix cache.
///
/// The paper limits every algorithm to two hours per dataset (§6.2.4);
/// [`AlgoContext::deadline`] plays that role. Algorithms that hit the
/// deadline return their best effort and set the timeout flag (read it
/// with [`AlgoContext::timed_out`]).
#[derive(Debug)]
pub struct AlgoContext {
    /// Random source for the randomized algorithms (seeded for
    /// reproducibility).
    pub rng: StdRng,
    /// Absolute wall-clock cutoff, if any.
    pub deadline: Option<Instant>,
    /// Seed this context's RNG (and its workers' streams) derive from.
    seed: u64,
    /// Outcome flags shared with this context's workers only.
    flags: Arc<OutcomeFlags>,
    /// Cost-matrix cache — possibly shared much wider (engine-wide).
    cache: Arc<MatrixCache>,
    /// Where this run publishes improving incumbents, if anyone listens.
    sink: Option<Arc<IncumbentSink>>,
    /// Cooperative cancellation flag shared with the job's handle.
    cancel: CancelToken,
    /// Previous-consensus hint for warm-started re-solves, if any.
    warm: Option<Arc<WarmStart>>,
    /// The pairwise-cost lane this run resolved to (set by the engine;
    /// defaults to dense for bare contexts).
    lane: KernelLane,
}

impl AlgoContext {
    /// A context with a seeded RNG, no deadline, and a private matrix
    /// cache.
    pub fn seeded(seed: u64) -> Self {
        AlgoContext::with_cache(seed, Arc::new(MatrixCache::new()))
    }

    /// A context with a seeded RNG and an externally shared matrix cache —
    /// how the engine gives every request its own outcome flags while all
    /// requests reuse one set of cost-matrix builds.
    pub fn with_cache(seed: u64, cache: Arc<MatrixCache>) -> Self {
        AlgoContext {
            rng: StdRng::seed_from_u64(seed),
            deadline: None,
            seed,
            flags: Arc::new(OutcomeFlags::default()),
            cache,
            sink: None,
            cancel: CancelToken::new(),
            warm: None,
            lane: KernelLane::default(),
        }
    }

    /// A context with a time budget starting now.
    pub fn seeded_with_budget(seed: u64, budget: Duration) -> Self {
        let mut ctx = AlgoContext::seeded(seed);
        ctx.deadline = Some(Instant::now() + budget);
        ctx
    }

    /// Derive worker `stream`'s context: an independent RNG stream that is
    /// a pure function of `(base seed, stream)`, sharing this context's
    /// deadline, outcome flags, and matrix cache.
    ///
    /// This is the determinism contract for parallel runs: however work is
    /// scheduled across threads, worker `i` always sees the same stream,
    /// so — in a deadline-free context — "best of N parallel workers" is
    /// reproducible run to run and bit-identical to the sequential
    /// `for i in 0..N` loop. With a [`Self::deadline`] set, results are
    /// best-effort and may depend on which workers beat the cutoff.
    pub fn worker(&self, stream: u64) -> AlgoContext {
        let worker_seed = mix(self.seed ^ mix(stream.wrapping_add(0x9E37_79B9_7F4A_7C15)));
        AlgoContext {
            rng: StdRng::seed_from_u64(worker_seed),
            deadline: self.deadline,
            seed: worker_seed,
            flags: Arc::clone(&self.flags),
            cache: Arc::clone(&self.cache),
            sink: self.sink.clone(),
            cancel: self.cancel.clone(),
            warm: self.warm.clone(),
            lane: self.lane,
        }
    }

    /// The dataset's shared cost matrix, building it on first use.
    ///
    /// Matrices are cached in this context's [`MatrixCache`] — shared by
    /// its whole [`Self::worker`] family, and (under the engine) by every
    /// concurrent request — so `BestOf(BioConsert)` and the exact solver's
    /// incumbent heuristics all reuse one build instead of paying
    /// `O(m·n²)` per invocation.
    pub fn cost_matrix(&self, data: &Dataset) -> Arc<CostMatrix> {
        self.cache.get(data)
    }

    /// The cooperative control checkpoint every iterative algorithm polls
    /// at its natural stopping points (per sweep, per node-expansion
    /// stride, per cutting-plane round, per repeat).
    ///
    /// One call folds both early-stop sources together and records which
    /// one fired: a pending cancellation ([`Self::cancel_token`]) sets the
    /// cancelled flag, an expired [`Self::deadline`] sets the timed-out
    /// flag. On [`Control::Stop`] the algorithm should stop at the nearest
    /// consistent point and return its best incumbent. Cancellation takes
    /// precedence over the deadline (a cancelled run reports
    /// [`crate::engine::Outcome::Cancelled`], not `TimedOut`).
    #[inline]
    pub fn checkpoint(&self) -> Control {
        self.flags.checkpoints.fetch_add(1, Ordering::Relaxed);
        if self.cancel.is_cancelled() {
            self.flags.cancelled.store(true, Ordering::Relaxed);
            return Control::Stop;
        }
        if let Some(d) = self.deadline {
            if Instant::now() >= d {
                self.flags.timed_out.store(true, Ordering::Relaxed);
                return Control::Stop;
            }
        }
        Control::Continue
    }

    /// Publish a candidate consensus to this run's incumbent sink, if one
    /// is attached. Only strict score improvements are recorded, so
    /// algorithms can offer freely (per sweep, per repeat, per
    /// branch-and-bound improvement) without checking the best themselves.
    /// A no-op — in particular, no clone — when nobody listens.
    #[inline]
    pub fn offer_incumbent(&self, ranking: &Ranking, score: u64) {
        if let Some(sink) = &self.sink {
            sink.offer(ranking, score);
        }
    }

    /// Publish a certified lower bound on the optimal Kemeny score to
    /// this run's incumbent sink, if one is attached. Only strict
    /// improvements (a *larger* bound) are recorded, so bounding solvers
    /// can offer freely — per branch-and-bound frontier update, per LP
    /// cutting-plane round — without tracking the best themselves. The
    /// caller vouches that **every** consensus of the run's dataset
    /// scores at least `lb`; bounds that are only valid for a
    /// sub-problem (a decomposition block, a permutation-only search
    /// space) must not be offered (see [`exact`] for how block bounds
    /// are summed into a whole-dataset bound instead). A no-op when
    /// nobody listens.
    #[inline]
    pub fn offer_lower_bound(&self, lb: u64) {
        if let Some(sink) = &self.sink {
            sink.offer_lower_bound(lb);
        }
    }

    /// Whether an incumbent sink is attached — lets algorithms skip
    /// building a snapshot `Ranking` for [`Self::offer_incumbent`] when
    /// nobody is listening.
    #[inline]
    pub fn has_sink(&self) -> bool {
        self.sink.is_some()
    }

    /// Attach the incumbent sink this run should publish to. Workers
    /// derived *afterwards* share it; the engine attaches one per request.
    pub fn attach_sink(&mut self, sink: Arc<IncumbentSink>) {
        self.sink = Some(sink);
    }

    /// Detach the sink (returning it), muting [`Self::offer_incumbent`].
    ///
    /// The exact solver uses this around its block decomposition:
    /// sub-instance incumbents live in a remapped element space, so
    /// publishing them to the whole-dataset job would be wrong.
    pub fn take_sink(&mut self) -> Option<Arc<IncumbentSink>> {
        self.sink.take()
    }

    /// Restore a sink previously taken with [`Self::take_sink`].
    pub fn set_sink(&mut self, sink: Option<Arc<IncumbentSink>>) {
        self.sink = sink;
    }

    /// Attach a warm-start hint (a previous consensus over the run's
    /// dataset). Workers derived *afterwards* share it; the engine
    /// attaches one per warm-started request after validating it against
    /// the dataset.
    pub fn set_warm_start(&mut self, warm: Arc<WarmStart>) {
        self.warm = Some(warm);
    }

    /// The warm-start hint, if one is attached. Algorithms consult this
    /// to seed their search (see [`WarmStart`] for the per-consumer
    /// contract); observing it never weakens a result.
    #[inline]
    pub fn warm_start(&self) -> Option<&WarmStart> {
        self.warm.as_deref()
    }

    /// Pin the pairwise-cost lane for this run (the engine sets the
    /// resolved [`KernelLane`] before invoking the kernel; workers
    /// inherit it).
    pub fn set_lane(&mut self, lane: KernelLane) {
        self.lane = lane;
    }

    /// The pairwise-cost lane this run resolved to. Lane-aware kernels
    /// (MC4) consult it to pick their [`crate::positional::CostProvider`];
    /// bare contexts default to [`KernelLane::Dense`].
    #[inline]
    pub fn lane(&self) -> KernelLane {
        self.lane
    }

    /// The cancellation token [`Self::checkpoint`] observes. Clone it and
    /// call [`CancelToken::cancel`] from any thread to stop the run
    /// cooperatively.
    pub fn cancel_token(&self) -> CancelToken {
        self.cancel.clone()
    }

    /// Replace the cancellation token (the engine wires the job handle's
    /// token in before the run starts).
    pub fn set_cancel_token(&mut self, token: CancelToken) {
        self.cancel = token;
    }

    /// Whether a checkpoint of this run observed a cancellation request.
    #[inline]
    pub fn cancelled(&self) -> bool {
        self.flags.cancelled.load(Ordering::Relaxed)
    }

    /// `true` (and records the timeout) once the deadline has passed.
    ///
    /// Prefer [`Self::checkpoint`] in algorithm loops — it also observes
    /// cancellation; `expired` remains for deadline-only call sites and
    /// tests.
    #[inline]
    pub fn expired(&self) -> bool {
        if let Some(d) = self.deadline {
            if Instant::now() >= d {
                self.flags.timed_out.store(true, Ordering::Relaxed);
                return true;
            }
        }
        false
    }

    /// Whether any worker of this run stopped early.
    #[inline]
    pub fn timed_out(&self) -> bool {
        self.flags.timed_out.load(Ordering::Relaxed)
    }

    /// Record an early stop (deadline, size cap, "no result").
    #[inline]
    pub fn set_timed_out(&self) {
        self.flags.timed_out.store(true, Ordering::Relaxed);
    }

    /// Whether an exact solver *proved* optimality this run.
    #[inline]
    pub fn proved_optimal(&self) -> bool {
        self.flags.proved_optimal.load(Ordering::Relaxed)
    }

    /// Record whether optimality was proved.
    #[inline]
    pub fn set_proved_optimal(&self, proved: bool) {
        self.flags.proved_optimal.store(proved, Ordering::Relaxed);
    }

    /// How many [`Self::checkpoint`] polls this run has performed so far,
    /// across all its workers.
    #[inline]
    pub fn checkpoints(&self) -> u64 {
        self.flags.checkpoints.load(Ordering::Relaxed)
    }

    /// Clear the per-run outcome flags (harnesses reuse contexts).
    pub fn reset_flags(&self) {
        self.flags.timed_out.store(false, Ordering::Relaxed);
        self.flags.proved_optimal.store(false, Ordering::Relaxed);
        self.flags.cancelled.store(false, Ordering::Relaxed);
        self.flags.checkpoints.store(0, Ordering::Relaxed);
    }
}

/// A consensus-ranking algorithm.
///
/// `run` must return a ranking over exactly the dataset's elements
/// (checked by the engine after every run, which fails the job otherwise;
/// also enforced by the integration tests for every registered algorithm).
pub trait ConsensusAlgorithm: Send + Sync {
    /// Display name, matching the paper's tables (e.g. `"MEDRank(0.5)"`).
    fn name(&self) -> String;

    /// Whether the algorithm can place elements in the same bucket
    /// (Table 1's "can produce ties" column, after adaptation).
    fn produces_ties(&self) -> bool;

    /// Compute a consensus ranking for `data`.
    fn run(&self, data: &Dataset, ctx: &mut AlgoContext) -> Ranking;
}

/// Wrapper running a randomized base algorithm `runs` times and keeping the
/// best result by generalized Kemeny score — the paper's "Min" variants
/// (KwikSortMin, RepeatChoiceMin, §6.2.1).
///
/// Repeats execute on parallel workers (one [`AlgoContext::worker`] stream
/// per repeat, so results are reproducible and thread-count independent)
/// and share the context's cost matrix instead of building one per repeat.
pub struct BestOf {
    base: Box<dyn ConsensusAlgorithm>,
    runs: usize,
    name: String,
    /// Force the sequential path (used by the determinism tests; the
    /// parallel path is bit-identical by construction).
    pub force_sequential: bool,
}

impl BestOf {
    /// Wrap `base`, running it `runs` times.
    pub fn new(base: Box<dyn ConsensusAlgorithm>, runs: usize, name: &str) -> Self {
        assert!(runs >= 1);
        BestOf {
            base,
            runs,
            name: name.to_owned(),
            force_sequential: false,
        }
    }
}

impl ConsensusAlgorithm for BestOf {
    fn name(&self) -> String {
        self.name.clone()
    }

    fn produces_ties(&self) -> bool {
        self.base.produces_ties()
    }

    fn run(&self, data: &Dataset, ctx: &mut AlgoContext) -> Ranking {
        let pairs = ctx.cost_matrix(data);
        // A repeat costs at least one n² table scan; below the threshold
        // worker spawning would dominate the repeats themselves (same
        // gating idea as `CostMatrix::build`). Results are unaffected —
        // the two paths are bit-identical.
        let work = self.runs * data.n() * data.n();
        let threads = if self.force_sequential || work < 1 << 18 {
            1
        } else {
            parallel::num_threads()
        };
        let repeats: Vec<usize> = (0..self.runs).collect();
        let scored = parallel::par_map_slice(&repeats, threads, |_, &r| {
            let mut worker = ctx.worker(r as u64);
            if worker.checkpoint().is_stop() {
                return None;
            }
            let cand = self.base.run(data, &mut worker);
            let score = pairs.score(&cand);
            // Each finished repeat is an anytime incumbent: a cancelled or
            // timed-out BestOf job still hands back the best repeat that
            // beat the cutoff.
            worker.offer_incumbent(&cand, score);
            Some((score, cand))
        });
        scored
            .into_iter()
            .flatten()
            .min_by_key(|(score, _)| *score)
            .map(|(_, cand)| cand)
            // Every repeat expired before starting: fall back to one
            // best-effort run so the caller still gets a ranking.
            .unwrap_or_else(|| self.base.run(data, &mut ctx.worker(0)))
    }
}

/// Sort elements by score and group equal scores into buckets — the
/// paper's §4.1.3 tie adaptation shared by the positional algorithms.
///
/// `ascending = true` ranks the smallest score first.
pub(crate) fn ranking_from_scores<T: Ord + Copy>(scores: &[T], ascending: bool) -> Ranking {
    let mut order: Vec<u32> = (0..scores.len() as u32).collect();
    if ascending {
        order.sort_by_key(|&id| scores[id as usize]);
    } else {
        order.sort_by_key(|&id| std::cmp::Reverse(scores[id as usize]));
    }
    let mut buckets: Vec<Vec<Element>> = Vec::new();
    for &id in &order {
        let start_new = match buckets.last() {
            None => true,
            Some(last) => {
                let prev = last[0].index();
                scores[prev] != scores[id as usize]
            }
        };
        if start_new {
            buckets.push(Vec::new());
        }
        buckets.last_mut().expect("just pushed").push(Element(id));
    }
    Ranking::from_buckets(buckets).expect("scores grouping is a valid ranking")
}

/// The algorithm set the paper evaluated (Table 4 / Table 5 rows), in the
/// tables' alphabetical order. `min_runs` configures the "Min" variants'
/// repeat count (the paper used "a large number of runs"; the harness
/// default is 20).
pub fn paper_algorithms(min_runs: usize) -> Vec<Box<dyn ConsensusAlgorithm>> {
    build_panel(crate::engine::paper_panel(min_runs), ExecPolicy::parallel())
}

/// [`paper_algorithms`] with every multi-start member pinned to its
/// sequential path. Timing experiments use this so measured seconds stay
/// single-threaded (comparable to the paper's and across hosts); in
/// deadline-free runs results are bit-identical to the parallel panel's.
///
/// Residual caveat: the context's cost-matrix build still auto-parallelizes
/// past `CostMatrix::build`'s work threshold (`m·n² ≥ 2²²`, i.e. beyond the
/// harness's current sweep ranges); pre-build with
/// [`CostMatrix::build_with_threads`]`(data, 1)` if a future experiment
/// crosses it and needs strictly single-threaded seconds.
pub fn paper_algorithms_sequential(min_runs: usize) -> Vec<Box<dyn ConsensusAlgorithm>> {
    build_panel(
        crate::engine::paper_panel(min_runs),
        ExecPolicy::sequential(),
    )
}

/// Instantiate every spec of a panel under one execution policy.
fn build_panel(specs: Vec<AlgoSpec>, policy: ExecPolicy) -> Vec<Box<dyn ConsensusAlgorithm>> {
    specs.iter().map(|s| s.build(policy)).collect()
}

/// The exact solver (reported as "ExactAlgorithm"/"ExactSolution" in the
/// paper's figures).
pub fn exact_algorithm() -> Box<dyn ConsensusAlgorithm> {
    AlgoSpec::Exact.build(ExecPolicy::parallel())
}

/// Non-bold Table 1 rows, implemented as extensions (see DESIGN.md §7).
pub fn extended_algorithms() -> Vec<Box<dyn ConsensusAlgorithm>> {
    build_panel(crate::engine::extended_panel(), ExecPolicy::parallel())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ranking_from_scores_groups_equal() {
        // scores: e0=5, e1=2, e2=5, e3=1 → ascending [{3},{1},{0,2}]
        let r = ranking_from_scores(&[5u64, 2, 5, 1], true);
        assert_eq!(r, Ranking::from_slices(&[&[3], &[1], &[0, 2]]).unwrap());
        let d = ranking_from_scores(&[5u64, 2, 5, 1], false);
        assert_eq!(d, Ranking::from_slices(&[&[0, 2], &[1], &[3]]).unwrap());
    }

    #[test]
    fn registry_names_are_unique_and_paper_spelled() {
        let names: Vec<String> = paper_algorithms(3).iter().map(|a| a.name()).collect();
        let expected = [
            "Ailon3/2",
            "BioConsert",
            "BordaCount",
            "CopelandMethod",
            "FaginLarge",
            "FaginSmall",
            "KwikSort",
            "KwikSortMin",
            "MEDRank(0.5)",
            "MEDRank(0.7)",
            "Pick-a-Perm",
            "RepeatChoice",
            "RepeatChoiceMin",
        ];
        assert_eq!(names, expected);
        let mut sorted = names.clone();
        sorted.sort();
        sorted.dedup();
        assert_eq!(sorted.len(), names.len());
    }

    #[test]
    fn context_deadline_expiry() {
        let ctx = AlgoContext::seeded_with_budget(0, Duration::from_secs(0));
        assert!(ctx.expired());
        assert!(ctx.timed_out());
        ctx.reset_flags();
        assert!(!ctx.timed_out());
        let free = AlgoContext::seeded(0);
        assert!(!free.expired());
    }

    #[test]
    fn worker_streams_are_deterministic_and_distinct() {
        use rand::Rng;
        let base = AlgoContext::seeded(7);
        let mut a0 = base.worker(0);
        let mut a0_again = base.worker(0);
        let mut a1 = base.worker(1);
        let (x, y, z) = (
            a0.rng.random::<u64>(),
            a0_again.rng.random::<u64>(),
            a1.rng.random::<u64>(),
        );
        assert_eq!(x, y, "worker streams must be pure functions of (seed, i)");
        assert_ne!(x, z, "distinct workers must get distinct streams");
    }

    #[test]
    fn worker_flags_propagate_to_the_base_context() {
        let base = AlgoContext::seeded(3);
        let w = base.worker(5);
        assert!(!base.timed_out());
        w.set_timed_out();
        assert!(base.timed_out());
        w.set_proved_optimal(true);
        assert!(base.proved_optimal());
    }

    #[test]
    fn cost_matrix_is_cached_per_dataset_content() {
        use crate::parse::parse_ranking;
        let d1 = Dataset::new(vec![
            parse_ranking("[{0},{1},{2}]").unwrap(),
            parse_ranking("[{2},{0,1}]").unwrap(),
        ])
        .unwrap();
        // Same content, separate allocation: must hit the cache.
        let d1_copy = Dataset::new(vec![
            parse_ranking("[{0},{1},{2}]").unwrap(),
            parse_ranking("[{2},{0,1}]").unwrap(),
        ])
        .unwrap();
        let d2 = Dataset::new(vec![parse_ranking("[{1},{0},{2}]").unwrap()]).unwrap();
        let ctx = AlgoContext::seeded(0);
        let m1 = ctx.cost_matrix(&d1);
        let m1b = ctx.cost_matrix(&d1_copy);
        assert!(
            Arc::ptr_eq(&m1, &m1b),
            "content-equal datasets share one build"
        );
        let m2 = ctx.cost_matrix(&d2);
        assert!(!Arc::ptr_eq(&m1, &m2));
        // Workers see the same cache.
        let w = ctx.worker(9);
        assert!(Arc::ptr_eq(&m1, &w.cost_matrix(&d1)));
    }

    #[test]
    fn best_of_parallel_matches_sequential() {
        use crate::parse::parse_ranking;
        let d = Dataset::new(vec![
            parse_ranking("[{0,1},{2,3},{4}]").unwrap(),
            parse_ranking("[{4},{3},{2},{1},{0}]").unwrap(),
            parse_ranking("[{2},{0,4},{1,3}]").unwrap(),
        ])
        .unwrap();
        for seed in 0..4 {
            let par = BestOf::new(Box::new(kwiksort::KwikSort), 8, "KwikSortMin");
            let seq = BestOf {
                force_sequential: true,
                ..BestOf::new(Box::new(kwiksort::KwikSort), 8, "KwikSortMin")
            };
            let rp = par.run(&d, &mut AlgoContext::seeded(seed));
            let rs = seq.run(&d, &mut AlgoContext::seeded(seed));
            assert_eq!(rp, rs, "seed {seed}");
        }
    }
}
