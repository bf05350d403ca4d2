//! Live dataset sessions: mutable datasets with delta-patched cost
//! matrices and warm-started re-solves (DESIGN.md §13).
//!
//! The engine aggregates *frozen* datasets: every request builds (or
//! cache-hits) an `O(m·n²)` [`CostMatrix`] and every solve starts cold. A
//! production leaderboard mutates continuously — one vote arrives, one is
//! retracted, one is revised — and re-paying `O(m·n²)` plus a cold solve
//! per edit wastes almost all of its work, because a single edited input
//! ranking shifts each pair's cost by at most one.
//!
//! [`DatasetSession`] keeps the dataset and its cost matrix **live**:
//!
//! * [`DatasetSession::add_ranking`] / [`remove_ranking`] /
//!   [`replace_ranking`] patch the matrix in `O(n²)` per edit
//!   ([`CostMatrix::patch_add`] / [`CostMatrix::patch_remove`]) instead of
//!   rebuilding in `O(m·n²)` — bit-identical to a cold rebuild
//!   (property-tested in `tests/session_properties.rs`);
//! * when an edit mentions unseen elements the universe **grows**
//!   ([`CostMatrix::grow`]): existing inputs adopt the new elements as one
//!   appended tied bucket (§5.1 unification) and the new cells follow
//!   analytically, still `O(n²)`;
//! * every successful edit bumps a monotone **version** — the tag the
//!   service's live jobs attach to re-emitted incumbents;
//! * the last consensus is retained as a [`WarmStart`] hint
//!   ([`DatasetSession::record_consensus`]); [`DatasetSession::request`]
//!   attaches it so the next solve seeds from the previous answer instead
//!   of starting cold;
//! * [`DatasetSession::snapshot`] freezes the version, dataset, matrix and
//!   warm hint for a solve in O(1): the dataset and matrix are shared
//!   copy-on-write, so a later edit copies one only while a snapshot of
//!   the previous version is still held ([`DatasetSession::copies`]).
//!
//! [`remove_ranking`]: DatasetSession::remove_ranking
//! [`replace_ranking`]: DatasetSession::replace_ranking
//!
//! # Quick example
//!
//! ```
//! use rank_core::engine::{AlgoSpec, Engine};
//! use rank_core::session::DatasetSession;
//! use rank_core::{Dataset, Ranking};
//!
//! let data = Dataset::new(vec![
//!     Ranking::from_slices(&[&[0], &[3], &[1, 2]]).unwrap(),
//!     Ranking::from_slices(&[&[0], &[1, 2], &[3]]).unwrap(),
//!     Ranking::from_slices(&[&[3], &[0, 2], &[1]]).unwrap(),
//! ])
//! .unwrap();
//! let engine = Engine::new();
//! let mut session = DatasetSession::new(data);
//!
//! // Cold first solve; the session retains the consensus as a warm hint.
//! let first = session.resolve(&engine, AlgoSpec::BioConsert, 42, None);
//! assert_eq!(first.score, 5);
//!
//! // One edit: O(n²) patch instead of an O(m·n²) rebuild, version bump.
//! let v = session
//!     .add_ranking(Ranking::from_slices(&[&[0], &[1, 2], &[3]]).unwrap())
//!     .unwrap();
//! assert_eq!(v, 2);
//!
//! // Warm re-solve: seeded from the previous consensus.
//! let second = session.resolve(&engine, AlgoSpec::BioConsert, 42, None);
//! assert!(second.score <= first.score + session.matrix().n() as u64 * 4);
//! ```

mod edit;

pub use edit::{Edit, SessionError};

use crate::algorithms::WarmStart;
use crate::dataset::Dataset;
use crate::element::Element;
use crate::engine::{AggregationRequest, AlgoSpec, ConsensusReport, Engine};
use crate::pairs::CostMatrix;
use crate::ranking::Ranking;
use std::sync::Arc;
use std::time::Duration;

/// A mutable dataset with its live, delta-patched [`CostMatrix`], a
/// monotone version counter, and the previous consensus as a warm-start
/// hint (see the [module docs](self)).
///
/// The dataset and the matrix are shared copy-on-write: a [`Snapshot`]
/// (or a clone of the session) holds them by `Arc` in O(1), and an edit
/// copies one only while such a holder still shares it — a solve still
/// running on the previous version, say. [`Self::copies`] counts those
/// copies.
#[derive(Debug, Clone)]
pub struct DatasetSession {
    /// The current inputs, each complete over `0..n` (unified on entry).
    dataset: Arc<Dataset>,
    /// The live matrix — always bit-identical to
    /// `CostMatrix::build(&self.dataset())`.
    matrix: Arc<CostMatrix>,
    /// Bumped by every successful edit; starts at 1.
    version: u64,
    /// The last recorded consensus (kept complete across universe growth).
    warm: Option<Ranking>,
    copies: SnapshotCopies,
}

/// What one [`DatasetSession::snapshot`] froze: the version and the
/// dataset, matrix and warm hint of that version. The dataset and matrix
/// are shared with the session, not copied; later edits leave them as
/// they were.
#[derive(Debug, Clone)]
pub struct Snapshot {
    /// The session version the snapshot was taken at.
    pub version: u64,
    /// The inputs of that version.
    pub dataset: Arc<Dataset>,
    /// Their cost matrix, bit-identical to `CostMatrix::build(&dataset)`.
    pub matrix: Arc<CostMatrix>,
    /// The warm-start hint, scored against `matrix`.
    pub warm: Option<WarmStart>,
}

impl Snapshot {
    /// An [`AggregationRequest`] over the snapshot's dataset, carrying its
    /// delta-patched matrix — the engine primes its cache with it instead
    /// of paying the `O(m·n²)` rebuild a fresh dataset version would
    /// otherwise cost — and warm-started when a consensus was recorded.
    pub fn request(&self, spec: AlgoSpec) -> AggregationRequest {
        let mut req = AggregationRequest::new(Arc::clone(&self.dataset), spec)
            .with_cost_matrix(Arc::clone(&self.matrix));
        if let Some(w) = &self.warm {
            req = req.with_warm_start(w.clone());
        }
        req
    }
}

/// How many edits of a [`DatasetSession`] had to copy a part because a
/// snapshot still shared it (each part is copied at most once per edit).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SnapshotCopies {
    /// Edits that copied the input rankings.
    pub dataset: u64,
    /// Edits that copied the cost matrix.
    pub matrix: u64,
}

impl DatasetSession {
    /// Open a session over an already validated dataset (version 1, one
    /// cold matrix build — the last one the session ever pays for).
    pub fn new(dataset: Dataset) -> Self {
        let matrix = CostMatrix::build(&dataset);
        DatasetSession {
            dataset: Arc::new(dataset),
            matrix: Arc::new(matrix),
            version: 1,
            warm: None,
            copies: SnapshotCopies::default(),
        }
    }

    /// Number of elements (`n`).
    #[inline]
    pub fn n(&self) -> usize {
        self.dataset.n()
    }

    /// Number of input rankings (`m`).
    #[inline]
    pub fn m(&self) -> usize {
        self.dataset.m()
    }

    /// The session's current version (1 at creation, +1 per edit).
    #[inline]
    pub fn version(&self) -> u64 {
        self.version
    }

    /// The live cost matrix.
    #[inline]
    pub fn matrix(&self) -> &CostMatrix {
        &self.matrix
    }

    /// The current input rankings (unified, complete over `0..n`).
    #[inline]
    pub fn rankings(&self) -> &[Ranking] {
        self.dataset.rankings()
    }

    /// The current dataset (what a cold rebuild would aggregate), shared:
    /// O(1), and frozen — while the returned `Arc` is held, the next edit
    /// copies instead of changing it.
    pub fn dataset(&self) -> Arc<Dataset> {
        Arc::clone(&self.dataset)
    }

    /// Version, dataset, matrix and warm hint in one frozen [`Snapshot`].
    /// The dataset and matrix are shared, not copied; only the warm hint
    /// is cloned and rescored.
    pub fn snapshot(&self) -> Snapshot {
        Snapshot {
            version: self.version,
            dataset: Arc::clone(&self.dataset),
            matrix: Arc::clone(&self.matrix),
            warm: self.warm_start(),
        }
    }

    /// How many edits so far had to copy the dataset or the matrix.
    pub fn copies(&self) -> SnapshotCopies {
        self.copies
    }

    /// Append an input ranking, patching the matrix in `O(n²)`.
    ///
    /// The ranking may cover any subset of elements: unseen element ids
    /// grow the universe (every existing input adopts the new elements as
    /// one appended tied bucket, per §5.1 unification), and elements of
    /// the current universe the ranking misses are unified into it the
    /// same way. Returns the new version.
    pub fn add_ranking(&mut self, r: Ranking) -> Result<u64, SessionError> {
        let max_id = match r.elements().map(|e| e.index()).max() {
            None => return Err(SessionError::EmptyRanking),
            Some(id) => id,
        };
        self.grow_to(max_id + 1);
        let unified = unify_to(&r, self.n());
        self.matrix_mut().patch_add(&unified);
        self.dataset_mut().push(unified);
        Ok(self.bump())
    }

    /// Remove the input ranking at `index`, patching the matrix in
    /// `O(n²)`. Returns the new version. The universe never shrinks — an
    /// element mentioned only by the removed ranking stays, tied last in
    /// nothing (its costs simply reflect the remaining inputs).
    pub fn remove_ranking(&mut self, index: usize) -> Result<u64, SessionError> {
        self.check_index(index)?;
        if self.m() == 1 {
            return Err(SessionError::LastRanking);
        }
        let removed = self.dataset_mut().remove(index);
        self.matrix_mut().patch_remove(&removed);
        Ok(self.bump())
    }

    /// Replace the input ranking at `index` (remove + add as **one** edit:
    /// one version bump, and the replacement keeps its slot). Returns the
    /// new version.
    pub fn replace_ranking(&mut self, index: usize, r: Ranking) -> Result<u64, SessionError> {
        self.check_index(index)?;
        let max_id = match r.elements().map(|e| e.index()).max() {
            None => return Err(SessionError::EmptyRanking),
            Some(id) => id,
        };
        self.grow_to(max_id + 1);
        let unified = unify_to(&r, self.n());
        // Growth above already re-unified the stored old ranking, so the
        // stored value is exactly what the matrix currently accounts for.
        make_mut_counted(&mut self.matrix, &mut self.copies.matrix)
            .patch_remove(&self.dataset.rankings()[index]);
        self.matrix_mut().patch_add(&unified);
        self.dataset_mut().replace(index, unified);
        Ok(self.bump())
    }

    /// Apply one [`Edit`]. Returns the new version.
    pub fn apply(&mut self, edit: Edit) -> Result<u64, SessionError> {
        match edit {
            Edit::Add(r) => self.add_ranking(r),
            Edit::Remove(i) => self.remove_ranking(i),
            Edit::Replace(i, r) => self.replace_ranking(i, r),
        }
    }

    /// Record a consensus of the **current** dataset as the warm-start
    /// hint for the next solve. The hint survives later universe growth
    /// (it is extended like any input) and is rescored lazily, so it stays
    /// valid across edits.
    pub fn record_consensus(&mut self, ranking: Ranking) -> Result<(), SessionError> {
        if !self.dataset.is_complete_ranking(&ranking) {
            return Err(SessionError::IncompleteConsensus);
        }
        self.warm = Some(ranking);
        Ok(())
    }

    /// The warm-start hint: the last recorded consensus, rescored against
    /// the **current** matrix (edits since it was recorded change its
    /// score, not its validity). `None` before the first
    /// [`Self::record_consensus`].
    pub fn warm_start(&self) -> Option<WarmStart> {
        self.warm.as_ref().map(|r| WarmStart {
            score: self.matrix.score(r),
            ranking: r.clone(),
        })
    }

    /// An [`AggregationRequest`] over the current dataset, warm-started
    /// from the previous consensus when one was recorded and carrying the
    /// session's delta-patched cost matrix (see [`Snapshot::request`]).
    pub fn request(&self, spec: AlgoSpec) -> AggregationRequest {
        self.snapshot().request(spec)
    }

    /// Solve the current dataset (warm-started when a previous consensus
    /// exists) and record the result as the next warm hint — the
    /// edit/re-solve loop of `rawt session`, in one call.
    pub fn resolve(
        &mut self,
        engine: &Engine,
        spec: AlgoSpec,
        seed: u64,
        budget: Option<Duration>,
    ) -> ConsensusReport {
        let mut req = self.request(spec).with_seed(seed);
        if let Some(b) = budget {
            req = req.with_budget(b);
        }
        let report = engine.run(&req);
        self.record_consensus(report.ranking.clone())
            .expect("engine consensus is complete");
        report
    }

    /// Grow the universe to `n_new` elements: patch the matrix
    /// analytically and append the new elements as one tied bucket to
    /// every stored input and to the warm hint. No-op when the universe
    /// already covers `n_new`.
    fn grow_to(&mut self, n_new: usize) {
        let n = self.n();
        if n_new <= n {
            return;
        }
        self.matrix_mut().grow(n_new);
        self.dataset_mut().grow(n_new);
        if let Some(w) = &mut self.warm {
            w.append_bucket((n..n_new).map(|i| Element(i as u32)).collect());
        }
    }

    /// Raise the version counter to `version` (no-op when already past
    /// it). Crash recovery uses this: the service journals a live
    /// dataset's consolidated text together with the version it had
    /// reached, and a session rebuilt from that text must not restart the
    /// count at 1 — live jobs tag emitted incumbents by version, and the
    /// tags must stay monotone across a restart.
    pub fn restore_version(&mut self, version: u64) {
        self.version = self.version.max(version);
    }

    fn bump(&mut self) -> u64 {
        self.version += 1;
        self.version
    }

    fn check_index(&self, index: usize) -> Result<(), SessionError> {
        if index >= self.m() {
            return Err(SessionError::IndexOutOfRange { index, m: self.m() });
        }
        Ok(())
    }

    fn dataset_mut(&mut self) -> &mut Dataset {
        make_mut_counted(&mut self.dataset, &mut self.copies.dataset)
    }

    fn matrix_mut(&mut self) -> &mut CostMatrix {
        make_mut_counted(&mut self.matrix, &mut self.copies.matrix)
    }
}

/// [`Arc::make_mut`], counting on `copies` the calls that copied because
/// the value was still shared — how the session counts its
/// [`SnapshotCopies`], and how state kept next to a session (the
/// service's label universe) can count its own.
pub fn make_mut_counted<'a, T: Clone>(arc: &'a mut Arc<T>, copies: &mut u64) -> &'a mut T {
    let before = Arc::as_ptr(arc);
    let value = Arc::make_mut(arc);
    if !std::ptr::eq(before, value) {
        *copies += 1;
    }
    value
}

/// `r` unified to the dense universe `0..n`: any elements it misses join a
/// final tied bucket (§5.1 unification).
fn unify_to(r: &Ranking, n: usize) -> Ranking {
    let missing: Vec<Element> = (0..n as u32)
        .map(Element)
        .filter(|&e| !r.contains(e))
        .collect();
    let mut r = r.clone();
    if !missing.is_empty() {
        r.append_bucket(missing);
    }
    r
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parse::parse_ranking;

    fn paper_session() -> DatasetSession {
        DatasetSession::new(
            Dataset::new(vec![
                parse_ranking("[{0},{3},{1,2}]").unwrap(),
                parse_ranking("[{0},{1,2},{3}]").unwrap(),
                parse_ranking("[{3},{0,2},{1}]").unwrap(),
            ])
            .unwrap(),
        )
    }

    /// The live matrix must equal a cold rebuild after every edit.
    fn assert_matrix_cold(s: &DatasetSession) {
        assert_eq!(s.matrix(), &CostMatrix::build(&s.dataset()));
    }

    #[test]
    fn add_remove_replace_stay_cold_identical() {
        let mut s = paper_session();
        assert_eq!(s.version(), 1);
        assert_eq!(
            s.add_ranking(parse_ranking("[{1},{0,3},{2}]").unwrap()),
            Ok(2)
        );
        assert_matrix_cold(&s);
        assert_eq!(
            s.replace_ranking(0, parse_ranking("[{2,3},{0},{1}]").unwrap()),
            Ok(3)
        );
        assert_matrix_cold(&s);
        assert_eq!(s.remove_ranking(2), Ok(4));
        assert_matrix_cold(&s);
        assert_eq!(s.m(), 3);
    }

    #[test]
    fn adding_unseen_elements_grows_the_universe() {
        let mut s = paper_session();
        // Element 5 is unseen: universe grows to 6, every stored input
        // adopts {4,5} as an appended tied bucket.
        s.add_ranking(parse_ranking("[{5},{0}]").unwrap()).unwrap();
        assert_eq!(s.n(), 6);
        assert_eq!(s.m(), 4);
        for r in s.rankings() {
            assert_eq!(r.n_elements(), 6);
        }
        // The added ranking itself was unified over the missing elements.
        assert_eq!(
            s.rankings()[3],
            parse_ranking("[{5},{0},{1,2,3,4}]").unwrap()
        );
        assert_matrix_cold(&s);
    }

    #[test]
    fn refused_edits_leave_the_session_untouched() {
        let mut s = paper_session();
        let before = s.clone();
        assert_eq!(
            s.remove_ranking(7),
            Err(SessionError::IndexOutOfRange { index: 7, m: 3 })
        );
        assert_eq!(
            s.replace_ranking(9, parse_ranking("[{0}]").unwrap()),
            Err(SessionError::IndexOutOfRange { index: 9, m: 3 })
        );
        assert_eq!(s.version(), before.version());
        assert_eq!(s.matrix(), before.matrix());
        let mut one =
            DatasetSession::new(Dataset::new(vec![parse_ranking("[{0},{1}]").unwrap()]).unwrap());
        assert_eq!(one.remove_ranking(0), Err(SessionError::LastRanking));
    }

    #[test]
    fn warm_hint_is_rescored_and_survives_growth() {
        let mut s = paper_session();
        let consensus = parse_ranking("[{0},{3},{1,2}]").unwrap();
        s.record_consensus(consensus.clone()).unwrap();
        assert_eq!(s.warm_start().unwrap().score, 5);
        // Growth extends the hint; it stays complete and scoreable.
        s.add_ranking(parse_ranking("[{4},{0}]").unwrap()).unwrap();
        let warm = s.warm_start().unwrap();
        assert_eq!(warm.ranking.n_elements(), 5);
        assert_eq!(warm.score, s.matrix().score(&warm.ranking));
        // A stale-universe consensus is refused.
        assert_eq!(
            s.record_consensus(consensus),
            Err(SessionError::IncompleteConsensus)
        );
    }

    #[test]
    fn edits_copy_only_what_a_snapshot_still_shares() {
        let mut s = paper_session();
        s.add_ranking(parse_ranking("[{1},{0,3},{2}]").unwrap())
            .unwrap();
        assert_eq!(s.copies(), SnapshotCopies::default());
        let frozen = s.snapshot();
        // One edit under a live snapshot copies each part once.
        s.replace_ranking(0, parse_ranking("[{2,3},{0},{1}]").unwrap())
            .unwrap();
        s.remove_ranking(1).unwrap();
        assert_eq!(
            s.copies(),
            SnapshotCopies {
                dataset: 1,
                matrix: 1
            }
        );
        assert_eq!(frozen.version, 2);
        assert_eq!(frozen.dataset.m(), 4);
        assert_eq!(*frozen.matrix, CostMatrix::build(&frozen.dataset));
        // A dataset handle alone copies only the dataset.
        let data = s.dataset();
        drop(frozen);
        s.remove_ranking(0).unwrap();
        assert_eq!(
            s.copies(),
            SnapshotCopies {
                dataset: 2,
                matrix: 1
            }
        );
        assert_eq!(data.m(), 3);
        assert_matrix_cold(&s);
    }

    #[test]
    fn resolve_records_the_consensus_as_the_next_hint() {
        let engine = Engine::new();
        let mut s = paper_session();
        let first = s.resolve(&engine, AlgoSpec::Exact, 42, None);
        assert_eq!(first.score, 5);
        let warm = s.warm_start().unwrap();
        assert_eq!(warm.score, 5);
        // After an edit the hint is rescored against the patched matrix.
        s.add_ranking(parse_ranking("[{0},{1,2},{3}]").unwrap())
            .unwrap();
        let warm = s.warm_start().unwrap();
        assert_eq!(warm.score, s.matrix().score(&warm.ranking));
    }
}
