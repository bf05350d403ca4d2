//! Aggregation requests: what a caller asks the engine to compute.
//!
//! A request is the serving-side unit of work: one dataset, one
//! [`AlgoSpec`], a seed, an optional time budget, and a parallelism
//! policy. [`BatchBuilder`] expands one dataset and many specs into a
//! request batch — the shape the paper's §6 harness (one panel per
//! dataset) and the `rawt compare` front door both have.

use super::spec::{AlgoSpec, ExecPolicy, KernelLane, LanePolicy};
use crate::algorithms::WarmStart;
use crate::dataset::Dataset;
use crate::normalize::{projection, unification, unify, Normalized};
use crate::pairs::CostMatrix;
use crate::ranking::Ranking;
use std::fmt;
use std::str::FromStr;
use std::sync::Arc;
use std::time::Duration;

/// How rankings over different element sets are made comparable before
/// aggregation (§5).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Normalization {
    /// §5.1 unification: every ranking keeps all elements; missing ones
    /// join a trailing bucket.
    #[default]
    Unification,
    /// §5.1 projection: keep only the elements present in every ranking.
    Projection,
}

impl Normalization {
    /// Apply the policy to raw (possibly incomplete) rankings. `None` when
    /// the result would be empty (projection with an empty intersection).
    pub fn apply(&self, raw: &[Ranking]) -> Option<Normalized> {
        match self {
            Normalization::Unification => unification(raw),
            Normalization::Projection => projection(raw),
        }
    }

    /// [`Normalization::apply`] to owned rankings, which unification
    /// reuses instead of copying.
    pub fn apply_owned(&self, raw: Vec<Ranking>) -> Option<Normalized> {
        match self {
            Normalization::Unification => unify(raw),
            Normalization::Projection => projection(&raw),
        }
    }
}

impl fmt::Display for Normalization {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Normalization::Unification => write!(f, "unify"),
            Normalization::Projection => write!(f, "project"),
        }
    }
}

impl FromStr for Normalization {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s.to_ascii_lowercase().as_str() {
            "unify" | "unification" => Ok(Normalization::Unification),
            "project" | "projection" => Ok(Normalization::Projection),
            other => Err(format!(
                "unknown normalization {other:?} (use unify|project)"
            )),
        }
    }
}

/// One unit of engine work: aggregate `dataset` with `spec`.
///
/// Requests are cheap to clone (the dataset is shared through an [`Arc`])
/// and carry everything the run needs, so outcome state never leaks
/// between requests — the report the engine returns is a pure function of
/// the request in deadline-free runs.
#[derive(Debug, Clone)]
pub struct AggregationRequest {
    /// The (already normalized, dense) dataset to aggregate.
    pub dataset: Arc<Dataset>,
    /// Which algorithm to run.
    pub spec: AlgoSpec,
    /// Seed for the run's RNG streams.
    pub seed: u64,
    /// Wall-clock budget; the run starts the clock when it begins
    /// executing (the paper's two-hour rule, §6.2.4).
    pub budget: Option<Duration>,
    /// Whether the algorithm may parallelize internally.
    pub policy: ExecPolicy,
    /// A previous consensus seeding this re-solve, if any (see
    /// [`WarmStart`] for the per-algorithm contract). The engine validates
    /// it against the dataset before attaching; an invalid hint is
    /// silently dropped rather than poisoning the run.
    pub warm_start: Option<WarmStart>,
    /// An already-built cost matrix for `dataset`, if the caller holds
    /// one — a [`crate::session::DatasetSession`] maintains it by `O(n²)`
    /// delta patches, so a re-solve must not pay the engine's `O(m·n²)`
    /// rebuild. Primes the engine's fingerprint-keyed cache; it MUST
    /// equal `CostMatrix::build(&dataset)` bit for bit (debug-asserted,
    /// and property-tested for the session's patches).
    pub cost_matrix: Option<Arc<CostMatrix>>,
}

impl AggregationRequest {
    /// A request with the default seed (42), no budget, and the parallel
    /// execution policy.
    pub fn new(dataset: impl Into<Arc<Dataset>>, spec: AlgoSpec) -> Self {
        AggregationRequest {
            dataset: dataset.into(),
            spec,
            seed: 42,
            budget: None,
            policy: ExecPolicy::default(),
            warm_start: None,
            cost_matrix: None,
        }
    }

    /// Set the RNG seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Set the wall-clock budget.
    pub fn with_budget(mut self, budget: Duration) -> Self {
        self.budget = Some(budget);
        self
    }

    /// Set the parallelism policy.
    pub fn with_policy(mut self, policy: ExecPolicy) -> Self {
        self.policy = policy;
        self
    }

    /// Set only the pairwise-cost lane of the policy (threading is kept).
    pub fn with_lane(mut self, lane: LanePolicy) -> Self {
        self.policy = self.policy.with_lane(lane);
        self
    }

    /// The [`KernelLane`] the engine will resolve this request to —
    /// exposed so callers (and tests) can predict lane selection without
    /// running: a supplied [`AggregationRequest::cost_matrix`] pins dense,
    /// otherwise [`LanePolicy::resolve`] decides from spec and size.
    pub fn resolved_lane(&self) -> KernelLane {
        self.policy
            .lane
            .resolve(&self.spec, self.dataset.n(), self.cost_matrix.is_some())
    }

    /// Seed the run from a previous consensus (a
    /// [`crate::session::DatasetSession`] supplies one per re-solve).
    pub fn with_warm_start(mut self, warm: WarmStart) -> Self {
        self.warm_start = Some(warm);
        self
    }

    /// Hand the engine an already-built cost matrix for the dataset
    /// instead of letting it rebuild one (see
    /// [`AggregationRequest::cost_matrix`] for the equality contract).
    pub fn with_cost_matrix(mut self, matrix: Arc<CostMatrix>) -> Self {
        self.cost_matrix = Some(matrix);
        self
    }

    /// Start a batch of requests over one dataset.
    pub fn batch(dataset: impl Into<Arc<Dataset>>) -> BatchBuilder {
        BatchBuilder::new(dataset)
    }
}

/// Builder expanding one dataset and many specs into a request batch.
///
/// ```
/// use rank_core::engine::{AggregationRequest, AlgoSpec};
/// use rank_core::{Dataset, Ranking};
///
/// let data = Dataset::new(vec![
///     Ranking::from_slices(&[&[0], &[1, 2]]).unwrap(),
///     Ranking::from_slices(&[&[2], &[0, 1]]).unwrap(),
/// ])
/// .unwrap();
/// let requests = AggregationRequest::batch(data)
///     .spec(AlgoSpec::BioConsert)
///     .spec(AlgoSpec::Borda)
///     .seed(7)
///     .build();
/// assert_eq!(requests.len(), 2);
/// assert_eq!(requests[0].seed, 7);
/// ```
#[derive(Debug, Clone)]
pub struct BatchBuilder {
    dataset: Arc<Dataset>,
    specs: Vec<AlgoSpec>,
    seed: u64,
    budget: Option<Duration>,
    policy: ExecPolicy,
}

impl BatchBuilder {
    /// A batch over an already normalized dataset.
    pub fn new(dataset: impl Into<Arc<Dataset>>) -> Self {
        BatchBuilder {
            dataset: dataset.into(),
            specs: Vec::new(),
            seed: 42,
            budget: None,
            policy: ExecPolicy::default(),
        }
    }

    /// A batch over raw rankings (possibly covering different element
    /// sets), normalized by `how` first. Returns the builder plus the
    /// [`Normalized`] mapping so callers can denormalize consensus
    /// rankings for display; `None` when normalization empties the data.
    pub fn normalized(raw: &[Ranking], how: Normalization) -> Option<(Self, Normalized)> {
        let norm = how.apply(raw)?;
        Some((BatchBuilder::new(norm.dataset.clone()), norm))
    }

    /// Add one spec to the batch.
    pub fn spec(mut self, spec: AlgoSpec) -> Self {
        self.specs.push(spec);
        self
    }

    /// Add many specs to the batch.
    pub fn specs(mut self, specs: impl IntoIterator<Item = AlgoSpec>) -> Self {
        self.specs.extend(specs);
        self
    }

    /// Seed shared by every request of the batch (per-algorithm RNG
    /// streams are decorrelated by the engine, so one seed is enough).
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Wall-clock budget applied to every request of the batch.
    pub fn budget(mut self, budget: Duration) -> Self {
        self.budget = Some(budget);
        self
    }

    /// Parallelism policy applied to every request of the batch.
    pub fn policy(mut self, policy: ExecPolicy) -> Self {
        self.policy = policy;
        self
    }

    /// Expand into one [`AggregationRequest`] per spec, in insertion
    /// order, all sharing the dataset `Arc`.
    pub fn build(self) -> Vec<AggregationRequest> {
        self.specs
            .into_iter()
            .map(|spec| AggregationRequest {
                dataset: Arc::clone(&self.dataset),
                spec,
                seed: self.seed,
                budget: self.budget,
                policy: self.policy,
                warm_start: None,
                cost_matrix: None,
            })
            .collect()
    }
}
