//! Exact optimal consensus under the generalized Kendall-τ distance.
//!
//! Three independent solvers, cross-validated against each other in the
//! test suite:
//!
//! * [`ExactAlgorithm`] — a native best-first branch-and-bound that builds
//!   the consensus bucket by bucket with an admissible pairwise lower
//!   bound, seeded with a BioConsert incumbent. This is the solver the
//!   benchmark harness uses (the paper used CPLEX; see DESIGN.md §5).
//! * [`ExactLpb`] — the paper's §4.2 linear pseudo-boolean program,
//!   verbatim (variables `x_{a<b}`, `x_{a=b}`; constraints (1)–(3)),
//!   solved with the `lpsolve` substrate. Practical only for small `n`;
//!   exists to validate the formulation and the native solver.
//! * [`brute_force`] — enumerate all `Fubini(n)` bucket orders (tests
//!   only, `n ≤ 9`).
//!
//! The problem is NP-hard for `m ≥ 4` even (§4), so all solvers are
//! deadline-aware: on timeout they return the best incumbent with
//! [`AlgoContext::timed_out`] set and `proved_optimal` unset.

use super::{bioconsert, AlgoContext, ConsensusAlgorithm};
use crate::dataset::Dataset;
use crate::element::Element;
use crate::pairs::PairTable;
use crate::parallel;
use crate::ranking::Ranking;
use lpsolve::{BnbOptions, Cmp, Problem, Var};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

/// Native branch-and-bound exact solver.
///
/// The proof search runs **in parallel** (DESIGN.md §11.1): the tree is
/// split at shallow depth into a DFS-ordered frontier of subtree roots,
/// workers steal subtrees through the parallel substrate's shared cursor,
/// one shared atomic incumbent bound prunes across all of them, and a
/// deterministic merge keeps the result **bit-identical** to the
/// sequential search for a fixed seed
/// (`tests/parallel_kernel_properties.rs`). While it searches, it feeds
/// the anytime lower-bound channel
/// ([`AlgoContext::offer_lower_bound`]): the root bound immediately, then
/// the frontier minimum every time a subtree completes, so a streaming
/// caller watches `Incumbent.gap` close toward a certified optimum.
#[derive(Debug, Clone)]
pub struct ExactAlgorithm {
    /// Hard cap on `n` (the bitmask state limits us to 64; the paper's own
    /// exact runs stop at n = 60).
    pub max_n: usize,
    /// Check the deadline every this many nodes (per worker).
    pub deadline_stride: u64,
    /// Split the instance into independently-solvable blocks first (§3.2
    /// mentions the polynomial preprocessing of [Betzler et al.] dividing
    /// the problem into smaller instances; see [`safe_blocks`]).
    pub decompose: bool,
    /// Pin the proof search to one worker (used by the determinism tests
    /// and the timing harness; the parallel path is bit-identical by
    /// construction, so only seconds change).
    pub force_sequential: bool,
    /// Explicit worker count for the subtree search; `None` sizes it from
    /// [`parallel::num_threads`]. The bench harness and the determinism
    /// tests set it so parallel-vs-sequential comparisons are meaningful
    /// even on narrow CI hosts.
    pub threads: Option<usize>,
}

impl Default for ExactAlgorithm {
    fn default() -> Self {
        ExactAlgorithm {
            max_n: 64,
            deadline_stride: 4096,
            decompose: true,
            force_sequential: false,
            threads: None,
        }
    }
}

/// Below this `n` the search tree is too small for a frontier split to
/// pay for its node clones; the solver runs the plain sequential path.
const SPLIT_MIN_N: usize = 10;

/// Subtree roots per worker the frontier split aims for — slack for the
/// work-stealing cursor to balance lopsided subtrees.
const SUBTREES_PER_WORKER: usize = 8;

/// Partition the elements into consecutive blocks such that some optimal
/// consensus orders every earlier-block element strictly before every
/// later-block element — so each block can be solved independently.
///
/// Safety argument: order elements by Borda score; a split between prefix
/// `P` and suffix `S` is *safe* when, for every cross pair `(a ∈ P, b ∈ S)`,
/// putting `a` strictly before `b` is weakly cheapest
/// (`before(a,b) ≥ max(before(b,a), tied(a,b))`). Given any consensus,
/// moving all of `S` after all of `P` while preserving the within-group
/// bucket orders changes only cross-pair costs, each to its minimum — so
/// the transformation never increases the generalized Kemeny score, and an
/// optimal consensus respecting every safe split exists.
pub fn safe_blocks(data: &Dataset) -> Vec<Vec<Element>> {
    safe_blocks_with(&PairTable::build(data), data)
}

/// [`safe_blocks`] over an already-built cost matrix (the solver passes
/// its context-shared one instead of paying a second `O(m·n²)` build).
fn safe_blocks_with(pairs: &PairTable, data: &Dataset) -> Vec<Vec<Element>> {
    let n = data.n();
    let scores = super::borda::borda_scores(data);
    let mut order: Vec<Element> = (0..n as u32).map(Element).collect();
    order.sort_by_key(|e| (scores[e.index()], e.0));

    let safe_cross =
        |a: Element, b: Element| pairs.before(a, b) >= pairs.before(b, a).max(pairs.tied(a, b));
    // ok_after[k] = the split between order[..=k] and order[k+1..] is safe.
    // Incremental check: a split is safe iff every cross pair is; walk
    // splits left to right keeping the set of "open" unsafe pairs would be
    // complex — at the exact solver's n ≤ 64 the direct O(n³) test is
    // instant and obviously correct.
    let mut blocks: Vec<Vec<Element>> = Vec::new();
    let mut start = 0usize;
    for k in 0..n - 1 {
        let safe = (start..=k).all(|i| ((k + 1)..n).all(|j| safe_cross(order[i], order[j])));
        if safe {
            blocks.push(order[start..=k].to_vec());
            start = k + 1;
        }
    }
    blocks.push(order[start..].to_vec());
    blocks
}

/// Restrict `data` to `block` (sorted by id), remapped to dense ids.
fn restrict_dataset(data: &Dataset, block: &[Element]) -> Dataset {
    let rankings: Vec<Ranking> = data
        .rankings()
        .iter()
        .map(|r| {
            let buckets: Vec<Vec<Element>> = r
                .buckets()
                .map(|b| {
                    b.iter()
                        .filter_map(|e| block.binary_search(e).ok().map(|i| Element(i as u32)))
                        .collect::<Vec<_>>()
                })
                .filter(|b: &Vec<Element>| !b.is_empty())
                .collect();
            Ranking::from_buckets(buckets).expect("restriction keeps validity")
        })
        .collect();
    Dataset::new(rankings).expect("same dense support per block")
}

/// Search state: one node of the bucket-by-bucket construction.
///
/// Canonical enumeration: a bucket's elements are added in increasing id
/// order (an element may only *join* the last bucket if its id exceeds the
/// bucket's maximum), so every bucket order is generated exactly once.
#[derive(Clone)]
struct Node {
    /// Bitmask of placed elements.
    placed: u64,
    /// Highest element id in the open (last) bucket; `u32::MAX` if none.
    max_last: u32,
    /// Cost of all decided pairs.
    g: u64,
    /// For unplaced `e`: cost against all placed if `e` starts a new
    /// bucket (everything placed ends up strictly before `e`).
    cost_new: Vec<u64>,
    /// For unplaced `e`: cost against all placed if `e` joins the open
    /// bucket.
    cost_join: Vec<u64>,
    /// For unplaced `e`: admissible lower bound on its cost against all
    /// placed elements (open-bucket members may still tie with `e`).
    forced: Vec<u64>,
    /// Σ over unplaced pairs of the per-pair minimum cost.
    rem: u64,
    /// Bucket index per element (valid where `placed`).
    assign: Vec<u32>,
    /// Next bucket index to open.
    next_bucket: u32,
}

impl Node {
    fn root(pairs: &PairTable) -> Self {
        let n = pairs.n();
        let mut rem = 0u64;
        for a in 0..n {
            for b in (a + 1)..n {
                rem += pairs.min_pair_cost(Element(a as u32), Element(b as u32)) as u64;
            }
        }
        Node {
            placed: 0,
            max_last: u32::MAX,
            g: 0,
            cost_new: vec![0; n],
            cost_join: vec![0; n],
            forced: vec![0; n],
            rem,
            assign: vec![0; n],
            next_bucket: 0,
        }
    }

    #[inline]
    fn is_placed(&self, id: usize) -> bool {
        self.placed >> id & 1 == 1
    }

    fn lower_bound(&self, n: usize) -> u64 {
        let mut lb = self.g + self.rem;
        for id in 0..n {
            if !self.is_placed(id) {
                lb += self.forced[id];
            }
        }
        lb
    }

    /// Child node: `e` starts a new bucket (closing the current one).
    fn place_new(&self, e: Element, pairs: &PairTable) -> Node {
        let n = pairs.n();
        let mut c = self.clone();
        c.g += self.cost_new[e.index()];
        c.placed |= 1 << e.index();
        c.max_last = e.0;
        c.assign[e.index()] = c.next_bucket;
        c.next_bucket += 1;
        for id in 0..n {
            if c.is_placed(id) {
                continue;
            }
            let x = Element(id as u32);
            let cb_ex = pairs.cost_before(e, x) as u64;
            let ct = pairs.cost_tied(x, e) as u64;
            // All previously placed elements are now strictly earlier.
            c.cost_join[id] = self.cost_new[id] + ct;
            c.cost_new[id] = self.cost_new[id] + cb_ex;
            c.forced[id] = self.cost_new[id] + ct.min(cb_ex);
            c.rem -= pairs.min_pair_cost(e, x) as u64;
        }
        c
    }

    /// Child node: `e` joins the open bucket (requires `e.0 > max_last`).
    fn place_join(&self, e: Element, pairs: &PairTable) -> Node {
        let n = pairs.n();
        debug_assert!(self.max_last != u32::MAX && e.0 > self.max_last);
        let mut c = self.clone();
        c.g += self.cost_join[e.index()];
        c.placed |= 1 << e.index();
        c.max_last = e.0;
        c.assign[e.index()] = c.next_bucket - 1;
        for id in 0..n {
            if c.is_placed(id) {
                continue;
            }
            let x = Element(id as u32);
            let cb_ex = pairs.cost_before(e, x) as u64;
            let ct = pairs.cost_tied(x, e) as u64;
            c.cost_new[id] += cb_ex;
            c.cost_join[id] += ct;
            c.forced[id] += ct.min(cb_ex);
            c.rem -= pairs.min_pair_cost(e, x) as u64;
        }
        c
    }

    /// Reversible in-place child move — what the subtree DFS uses instead
    /// of cloning four `O(n)` vectors per expanded node
    /// ([`Node::place_new`]/[`Node::place_join`] remain for the frontier
    /// split, whose nodes genuinely persist). The per-element values the
    /// move clobbers are pushed onto `saved`; [`Node::undo`] restores them
    /// and must be called with the returned tag in strict LIFO order.
    /// State after `apply(e, join, ..)` is element-wise identical to
    /// `place_new(e, ..)` / `place_join(e, ..)` (only `assign` slots of
    /// unplaced elements, which are never read, may differ).
    fn apply(
        &mut self,
        e: Element,
        join: bool,
        pairs: &PairTable,
        saved: &mut Vec<(u64, u64)>,
    ) -> Applied {
        let n = pairs.n();
        let tag = Applied {
            e,
            join,
            prev_max_last: self.max_last,
            saved_from: saved.len(),
        };
        if join {
            debug_assert!(self.max_last != u32::MAX && e.0 > self.max_last);
            self.g += self.cost_join[e.index()];
            self.assign[e.index()] = self.next_bucket - 1;
        } else {
            self.g += self.cost_new[e.index()];
            self.assign[e.index()] = self.next_bucket;
            self.next_bucket += 1;
        }
        self.placed |= 1 << e.index();
        self.max_last = e.0;
        for id in 0..n {
            if self.is_placed(id) {
                continue;
            }
            let x = Element(id as u32);
            let cb_ex = pairs.cost_before(e, x) as u64;
            let ct = pairs.cost_tied(x, e) as u64;
            saved.push((self.cost_join[id], self.forced[id]));
            if join {
                self.cost_new[id] += cb_ex;
                self.cost_join[id] += ct;
                self.forced[id] += ct.min(cb_ex);
            } else {
                let old_new = self.cost_new[id];
                self.cost_join[id] = old_new + ct;
                self.cost_new[id] = old_new + cb_ex;
                self.forced[id] = old_new + ct.min(cb_ex);
            }
            self.rem -= pairs.min_pair_cost(e, x) as u64;
        }
        tag
    }

    /// Exact inverse of [`Node::apply`]. `cost_new` reverses by
    /// subtraction; `cost_join`/`forced` (overwritten, not incremented, on
    /// a new-bucket move) restore from `saved`. The moved element's own
    /// `cost_new`/`cost_join` slots were skipped by `apply`'s loop (it was
    /// already placed), so the `g` delta reads back unchanged.
    fn undo(&mut self, tag: Applied, pairs: &PairTable, saved: &mut Vec<(u64, u64)>) {
        let n = pairs.n();
        let e = tag.e;
        let mut k = tag.saved_from;
        for id in 0..n {
            if self.is_placed(id) {
                continue;
            }
            let x = Element(id as u32);
            let cb_ex = pairs.cost_before(e, x) as u64;
            let (old_join, old_forced) = saved[k];
            k += 1;
            self.cost_new[id] -= cb_ex;
            self.cost_join[id] = old_join;
            self.forced[id] = old_forced;
            self.rem += pairs.min_pair_cost(e, x) as u64;
        }
        debug_assert_eq!(k, saved.len(), "undo must run in LIFO order");
        saved.truncate(tag.saved_from);
        self.placed &= !(1 << e.index());
        self.max_last = tag.prev_max_last;
        if tag.join {
            self.g -= self.cost_join[e.index()];
        } else {
            self.next_bucket -= 1;
            self.g -= self.cost_new[e.index()];
        }
    }
}

/// Undo record for one [`Node::apply`] move.
struct Applied {
    e: Element,
    join: bool,
    prev_max_last: u32,
    saved_from: usize,
}

/// The canonical child order of a node: `(immediate delta, element id,
/// join?)`, cheapest first — identical for the frontier split and the
/// in-subtree DFS, which is what makes the global exploration order (and
/// therefore the returned optimum among ties) a pure function of the
/// instance, independent of worker count and scheduling.
fn ordered_children(node: &Node, n: usize) -> Vec<(u64, u32, bool)> {
    let mut children: Vec<(u64, u32, bool)> = Vec::new();
    for id in 0..n {
        if node.is_placed(id) {
            continue;
        }
        children.push((node.cost_new[id], id as u32, false));
        if node.max_last != u32::MAX && (id as u32) > node.max_last {
            children.push((node.cost_join[id], id as u32, true));
        }
    }
    children.sort_unstable();
    children
}

/// Split the tree below `root` into a DFS-ordered frontier of subtree
/// roots, at most `target`-ish wide: repeatedly replace the shallowest
/// (leftmost-first) node by its ordered children, pruning children whose
/// lower bound cannot beat `bound`. Replacing a node by its in-order
/// children in place preserves global DFS order, so `frontier[i]` comes
/// strictly before `frontier[j]` in the sequential exploration whenever
/// `i < j` — the property the deterministic merge relies on. Returns an
/// empty frontier when everything prunes (the incumbent is optimal).
fn build_frontier(root: Node, pairs: &PairTable, n: usize, bound: u64, target: usize) -> Vec<Node> {
    let mut frontier = vec![root];
    // Heavy pruning can keep the frontier narrow forever; cap the work.
    let mut expansions = 4 * target;
    while frontier.len() < target && expansions > 0 {
        let Some(pick) = (0..frontier.len())
            .filter(|&i| (frontier[i].placed.count_ones() as usize) < n)
            .min_by_key(|&i| frontier[i].placed.count_ones())
        else {
            break; // every subtree root is already a leaf
        };
        expansions -= 1;
        let node = frontier.remove(pick);
        let mut at = pick;
        for (_, id, join) in ordered_children(&node, n) {
            let e = Element(id);
            let child = if join {
                node.place_join(e, pairs)
            } else {
                node.place_new(e, pairs)
            };
            if child.lower_bound(n) < bound {
                frontier.insert(at, child);
                at += 1;
            }
        }
        if frontier.is_empty() {
            break;
        }
    }
    frontier
}

/// One worker's exhaustive DFS over a single frontier subtree.
///
/// Pruning uses two bounds: `local_best` — this worker's own best within
/// the subtree, seeded with the heuristic incumbent, exactly the
/// sequential rule — and the shared atomic `global` bound, which other
/// workers tighten concurrently. The global prune is *non-strict*
/// (`lb > global` prunes) so it can never cut the path to the subtree's
/// first optimal leaf, which is what keeps the merged result bit-identical
/// to the sequential search (DESIGN.md §11.1 gives the argument).
struct SubtreeSearch<'a> {
    pairs: &'a PairTable,
    n: usize,
    /// Best score proved by *any* worker (plus the heuristic incumbent) —
    /// the one shared pruning bound of the parallel search.
    global: &'a AtomicU64,
    /// Set by whichever worker's checkpoint fires first; everyone else
    /// observes it at their stride and unwinds.
    aborted: &'a AtomicBool,
    local_best: u64,
    local_assign: Option<Vec<u32>>,
    nodes: u64,
    stride: u64,
    stop: bool,
    /// Clobbered-value stack for the undo-based expansion ([`Node::apply`]).
    saved: Vec<(u64, u64)>,
}

impl SubtreeSearch<'_> {
    fn dfs(&mut self, node: &mut Node, ctx: &AlgoContext) {
        self.nodes += 1;
        if self.nodes.is_multiple_of(self.stride)
            && (self.aborted.load(Ordering::Relaxed) || ctx.checkpoint().is_stop())
        {
            self.aborted.store(true, Ordering::Relaxed);
            self.stop = true;
        }
        if self.stop {
            return;
        }
        if node.placed.count_ones() as usize == self.n {
            if node.g < self.local_best {
                self.local_best = node.g;
                self.local_assign = Some(node.assign.clone());
                let prev = self.global.fetch_min(node.g, Ordering::Relaxed);
                // Snapshot only on a *global* improvement with a listening
                // sink (it is muted during block decomposition — no dead
                // allocations in the hot search loop; the sink dedups
                // under its own lock, so racing workers stay monotone).
                if node.g < prev && ctx.has_sink() {
                    ctx.offer_incumbent(
                        &Ranking::from_bucket_indices(node.assign.as_slice())
                            .expect("assignment is a partition"),
                        node.g,
                    );
                }
            }
            return;
        }
        let global_bound = self.global.load(Ordering::Relaxed);
        // Undo-based expansion: each child move is applied to the node in
        // place and exactly reversed after the recursion returns — the
        // child order, the bound values, and therefore the exploration
        // (and the returned optimum among ties) are bit-identical to the
        // former clone-per-child expansion; only the four vector
        // allocations per node are gone.
        for (_, id, join) in ordered_children(node, self.n) {
            let e = Element(id);
            let tag = node.apply(e, join, self.pairs, &mut self.saved);
            let lb = node.lower_bound(self.n);
            if lb < self.local_best && lb <= global_bound {
                self.dfs(node, ctx);
            }
            node.undo(tag, self.pairs, &mut self.saved);
            if self.stop {
                return;
            }
        }
    }
}

/// The whole-search lower bound at this moment: every unexplored leaf
/// lives under some not-yet-completed frontier subtree, so the optimum
/// is ≥ `min(best found, min over open subtree root bounds)` — the "max
/// over frontier minima" channel, made monotone by the sink. The single
/// source of this expression: both the running offers and the final
/// reported bound go through here, so the report can never desynchronize
/// from the event stream.
fn frontier_bound(best: u64, frontier_lbs: &[u64], done: &[AtomicBool]) -> u64 {
    let open = frontier_lbs
        .iter()
        .zip(done)
        .filter(|(_, d)| !d.load(Ordering::Relaxed))
        .map(|(lb, _)| *lb)
        .min();
    open.map_or(best, |m| m.min(best))
}

impl ExactAlgorithm {
    /// Solve, returning the consensus, its score, and whether optimality
    /// was proved (false only if the deadline was hit).
    pub fn solve(&self, data: &Dataset, ctx: &mut AlgoContext) -> (Ranking, u64, bool) {
        let n = data.n();
        assert!(
            n <= self.max_n && n <= 64,
            "ExactAlgorithm supports up to {} elements (dataset has {n})",
            self.max_n.min(64)
        );
        if !self.decompose {
            let (r, score, proved, _) = self.solve_monolithic(data, ctx);
            return (r, score, proved);
        }
        let pairs = ctx.cost_matrix(data);
        let blocks = safe_blocks_with(&pairs, data);
        if blocks.len() == 1 {
            let (r, score, proved, _) = self.solve_monolithic(data, ctx);
            return (r, score, proved);
        }
        // Sub-instance incumbents live in each block's remapped element
        // space — publishing them to the whole-dataset job would be
        // nonsense, so mute the sink for the decomposed solves and offer
        // only the assembled consensus below. So that a decomposed job is
        // still anytime (streams a harvestable consensus before the full
        // proof lands), first publish a whole-dataset heuristic incumbent.
        // It is published whenever a sink records the trace, so a blocking
        // `Engine::run` records the same trace as a submitted job; a bare
        // kernel call without a sink skips the extra local search.
        if ctx.has_sink() {
            let incumbent = bioconsert::BioConsert {
                force_sequential: true,
                ..bioconsert::BioConsert::default()
            }
            .run(data, ctx);
            ctx.offer_incumbent(&incumbent, pairs.score(&incumbent));
        }
        let sink = ctx.take_sink();
        // Cross-block pairs are strictly ordered block-before-block — by
        // construction of the safe split, that is each pair's cheapest
        // state.
        let mut total = 0u64;
        for i in 0..blocks.len() {
            for j in (i + 1)..blocks.len() {
                for &a in &blocks[i] {
                    for &b in &blocks[j] {
                        total += pairs.cost_before(a, b) as u64;
                    }
                }
            }
        }
        // Whole-dataset lower bound across the decomposition: the optimum
        // equals `cross-block total + Σ block optima` (the safe split is
        // optimum-preserving), so `cross total + Σ per-block bounds` is a
        // certified bound — each block floor starts at its root bound
        // (Σ per-pair minima; restriction preserves pairwise counts, so
        // the whole-dataset matrix prices it) and is replaced by the
        // block's own certified bound as its solve lands. Offered through
        // the *taken* sink directly: a block solve's `offer_lower_bound`
        // calls are muted with the rest of its context exactly so its
        // sub-instance bounds can never masquerade as whole-dataset ones
        // (the bogus-gap bug this sum replaces).
        let block_floor: Vec<u64> = blocks
            .iter()
            .map(|block| {
                let mut floor = 0u64;
                for (i, &a) in block.iter().enumerate() {
                    for &b in &block[i + 1..] {
                        floor += pairs.min_pair_cost(a, b) as u64;
                    }
                }
                floor
            })
            .collect();
        let mut lb_running: u64 = total + block_floor.iter().sum::<u64>();
        if let Some(s) = &sink {
            s.offer_lower_bound(lb_running);
        }
        let mut buckets: Vec<Vec<Element>> = Vec::new();
        let mut proved = true;
        for (bi, block) in blocks.iter().enumerate() {
            if block.len() == 1 {
                buckets.push(block.clone());
                continue;
            }
            let mut sorted = block.clone();
            sorted.sort_unstable();
            let sub = restrict_dataset(data, &sorted);
            let (r, score, p, sub_lb) = self.solve_monolithic(&sub, ctx);
            proved &= p;
            total += score;
            // `sub_lb ≥ block_floor[bi]` (both sit above the block's root
            // bound), so the floor-to-certified swap never underflows.
            lb_running += sub_lb - block_floor[bi];
            if let Some(s) = &sink {
                s.offer_lower_bound(lb_running);
            }
            for b in r.buckets() {
                buckets.push(b.iter().map(|&e| sorted[e.index()]).collect());
            }
        }
        let ranking = Ranking::from_buckets(buckets).expect("blocks partition the elements");
        debug_assert_eq!(pairs.score(&ranking), total);
        ctx.set_sink(sink);
        ctx.offer_incumbent(&ranking, total);
        (ranking, total, proved)
    }

    /// The branch-and-bound core, without decomposition: parallel
    /// work-stealing subtree exploration over a deterministic frontier
    /// split (DESIGN.md §11.1). Returns `(consensus, score, proved, lb)`
    /// where `lb` is the certified lower bound the search established —
    /// equal to `score` exactly when `proved`.
    fn solve_monolithic(&self, data: &Dataset, ctx: &mut AlgoContext) -> (Ranking, u64, bool, u64) {
        let n = data.n();
        let pairs = ctx.cost_matrix(data);

        // Incumbent from BioConsert (§7.1: its solutions are optimal in 68%
        // of uniform datasets, so the B&B mostly proves optimality).
        // Sequential multi-start: the incumbent is a small fraction of the
        // solve, and pinning it keeps the search's own parallelism the only
        // thread-count-dependent part.
        let mut incumbent = bioconsert::BioConsert {
            force_sequential: true,
            ..bioconsert::BioConsert::default()
        }
        .run(data, ctx);
        let mut incumbent_score = pairs.score(&incumbent);
        // Warm-started re-solve (DESIGN.md §13): a prior consensus that
        // still beats the fresh BioConsert start becomes the initial
        // bound, with its ranking kept as the witness — after a small
        // dataset edit it usually sits at or near the new optimum, so the
        // proof search mostly prunes. The hint is rescored here (a caller
        // score is never trusted as a bound) and skipped for decomposed
        // sub-instances, whose remapped element spaces make a
        // whole-dataset hint incomplete.
        if let Some(w) = ctx.warm_start() {
            if data.is_complete_ranking(&w.ranking) {
                let s = pairs.score(&w.ranking);
                if s < incumbent_score {
                    incumbent_score = s;
                    incumbent = w.ranking.clone();
                }
            }
        }
        let incumbent_assign: Vec<u32> = (0..n)
            .map(|id| incumbent.bucket_of(Element(id as u32)).expect("complete") as u32)
            .collect();

        let root = Node::root(&pairs);
        let root_lb = root.lower_bound(n);
        // The root bound is live before the first node expands: a
        // streaming subscriber gets a (coarse) certified gap immediately.
        ctx.offer_lower_bound(root_lb);
        if root_lb >= incumbent_score {
            // Every leaf scores ≥ the incumbent: it is optimal, no search.
            let ranking =
                Ranking::from_bucket_indices(&incumbent_assign).expect("assignment is a partition");
            return (ranking, incumbent_score, true, incumbent_score);
        }
        if ctx.checkpoint().is_stop() {
            let ranking =
                Ranking::from_bucket_indices(&incumbent_assign).expect("assignment is a partition");
            return (ranking, incumbent_score, false, root_lb);
        }

        let threads = if self.force_sequential {
            1
        } else {
            self.threads.unwrap_or_else(|| {
                if n < SPLIT_MIN_N {
                    1
                } else {
                    parallel::num_threads()
                }
            })
        };
        let target = if threads <= 1 {
            1
        } else {
            threads * SUBTREES_PER_WORKER
        };
        let frontier = build_frontier(root, &pairs, n, incumbent_score, target);
        if frontier.is_empty() {
            // Every subtree pruned against the incumbent: it is optimal.
            let ranking =
                Ranking::from_bucket_indices(&incumbent_assign).expect("assignment is a partition");
            return (ranking, incumbent_score, true, incumbent_score);
        }
        let frontier_lbs: Vec<u64> = frontier.iter().map(|nd| nd.lower_bound(n)).collect();
        let done: Vec<AtomicBool> = frontier.iter().map(|_| AtomicBool::new(false)).collect();
        let global = AtomicU64::new(incumbent_score);
        let aborted = AtomicBool::new(false);
        let shared_ctx: &AlgoContext = ctx;
        let results = parallel::par_map_slice(&frontier, threads, |i, subtree| {
            // A stop observed by any worker abandons the subtrees still
            // queued behind the cursor outright — without this, each of
            // them would expand up to `deadline_stride` nodes before its
            // own first checkpoint noticed, stretching cancellation
            // latency by frontier-width × stride.
            if aborted.load(Ordering::Relaxed) {
                return (incumbent_score, None);
            }
            let mut search = SubtreeSearch {
                pairs: &pairs,
                n,
                global: &global,
                aborted: &aborted,
                local_best: incumbent_score,
                local_assign: None,
                nodes: 0,
                stride: self.deadline_stride,
                stop: false,
                saved: Vec::new(),
            };
            // One clone per subtree root (the frontier slice is shared);
            // every node below it expands via apply/undo on this copy.
            let mut root = subtree.clone();
            search.dfs(&mut root, shared_ctx);
            if !search.stop {
                // Fully explored: this subtree's leaves can no longer pull
                // the optimum below the shared bound — tighten the
                // whole-search lower bound.
                done[i].store(true, Ordering::Relaxed);
                shared_ctx.offer_lower_bound(frontier_bound(
                    global.load(Ordering::Relaxed),
                    &frontier_lbs,
                    &done,
                ));
            }
            (search.local_best, search.local_assign)
        });

        // Deterministic merge: walk subtrees in DFS order with the same
        // strict-improvement rule the sequential search applies, so the
        // earliest subtree achieving the final best supplies the answer —
        // the very leaf the sequential DFS would have kept.
        let mut best_score = incumbent_score;
        let mut best_assign = incumbent_assign;
        for (score, assign) in results {
            if score < best_score {
                best_score = score;
                best_assign = assign.expect("improvement recorded with its assignment");
            }
        }
        let proved = !aborted.load(Ordering::Relaxed);
        let lb = frontier_bound(best_score, &frontier_lbs, &done);
        ctx.offer_lower_bound(lb);
        debug_assert!(!proved || lb == best_score);

        let ranking =
            Ranking::from_bucket_indices(&best_assign).expect("assignment is a partition");
        debug_assert_eq!(pairs.score(&ranking), best_score);
        (ranking, best_score, proved, lb)
    }
}

impl ConsensusAlgorithm for ExactAlgorithm {
    fn name(&self) -> String {
        "ExactAlgorithm".to_owned()
    }

    fn produces_ties(&self) -> bool {
        true
    }

    fn run(&self, data: &Dataset, ctx: &mut AlgoContext) -> Ranking {
        let (ranking, _, proved) = self.solve(data, ctx);
        ctx.set_proved_optimal(proved);
        ranking
    }
}

/// The §4.2 LPB formulation, verbatim, over the `lpsolve` substrate.
#[derive(Debug, Clone)]
pub struct ExactLpb {
    /// Size guard: the dense simplex B&B is practical only for small `n`.
    pub max_n: usize,
}

impl Default for ExactLpb {
    fn default() -> Self {
        ExactLpb { max_n: 10 }
    }
}

impl ExactLpb {
    /// Solve the LPB and return the optimal consensus with its score.
    pub fn solve(&self, data: &Dataset) -> (Ranking, u64) {
        let n = data.n();
        assert!(
            n <= self.max_n,
            "ExactLpb supports up to {} elements (dataset has {n})",
            self.max_n
        );
        let pairs = PairTable::build(data);
        let mut p = Problem::new();

        // x_{a<b} for every ordered pair; x_{a=b} for every unordered pair.
        let mut lt = vec![None::<Var>; n * n];
        let mut eq = vec![None::<Var>; n * n];
        for a in 0..n {
            for b in 0..n {
                if a == b {
                    continue;
                }
                let (ea, eb) = (Element(a as u32), Element(b as u32));
                // w_{b≤a}: rankings with b before or tied with a.
                let w_b_le_a = pairs.before(eb, ea) + pairs.tied(ea, eb);
                lt[a * n + b] = Some(p.add_var(w_b_le_a as f64, 0.0, 1.0));
            }
        }
        for a in 0..n {
            for b in (a + 1)..n {
                let (ea, eb) = (Element(a as u32), Element(b as u32));
                let w = pairs.before(ea, eb) + pairs.before(eb, ea);
                eq[a * n + b] = Some(p.add_var(w as f64, 0.0, 1.0));
            }
        }
        let ltv = |a: usize, b: usize| lt[a * n + b].expect("ordered pair var");
        let eqv = |a: usize, b: usize| eq[a.min(b) * n + a.max(b)].expect("unordered pair var");

        // (1) unique relation per pair.
        for a in 0..n {
            for b in (a + 1)..n {
                p.add_row(
                    &[(ltv(a, b), 1.0), (ltv(b, a), 1.0), (eqv(a, b), 1.0)],
                    Cmp::Eq,
                    1.0,
                );
            }
        }
        // (2) order transitivity for every ordered triple.
        for a in 0..n {
            for b in 0..n {
                for c in 0..n {
                    if a == b || b == c || a == c {
                        continue;
                    }
                    p.add_row(
                        &[(ltv(a, c), 1.0), (ltv(a, b), -1.0), (ltv(b, c), -1.0)],
                        Cmp::Ge,
                        -1.0,
                    );
                }
            }
        }
        // (3) bucket transitivity: for each unordered triple, each choice of
        // "middle" element b.
        for a in 0..n {
            for b in 0..n {
                for c in (a + 1)..n {
                    if b == a || b == c || c <= a {
                        continue;
                    }
                    p.add_row(
                        &[
                            (ltv(a, b), 2.0),
                            (ltv(b, a), 2.0),
                            (ltv(b, c), 2.0),
                            (ltv(c, b), 2.0),
                            (ltv(a, c), -1.0),
                            (ltv(c, a), -1.0),
                        ],
                        Cmp::Ge,
                        0.0,
                    );
                }
            }
        }

        let binaries: Vec<Var> = lt.iter().chain(eq.iter()).filter_map(|v| *v).collect();
        let sol = p
            .solve_binary(&binaries, &BnbOptions::default())
            .expect("the LPB always has a feasible point (any ranking)");

        // Reconstruct: an element's bucket level is the number of elements
        // strictly before it.
        let levels: Vec<u64> = (0..n)
            .map(|a| {
                (0..n)
                    .filter(|&b| b != a && sol.x[ltv(b, a).index()] > 0.5)
                    .count() as u64
            })
            .collect();
        let ranking = super::ranking_from_scores(&levels, true);
        let score = pairs.score(&ranking);
        debug_assert_eq!(score as f64, sol.objective.round());
        (ranking, score)
    }
}

impl ConsensusAlgorithm for ExactLpb {
    fn name(&self) -> String {
        "ExactLPB".to_owned()
    }

    fn produces_ties(&self) -> bool {
        true
    }

    fn run(&self, data: &Dataset, ctx: &mut AlgoContext) -> Ranking {
        let (ranking, score) = self.solve(data);
        ctx.set_proved_optimal(true);
        // The LPB solves to proven optimality in one shot: its score is
        // simultaneously the incumbent and the certified lower bound.
        ctx.offer_incumbent(&ranking, score);
        ctx.offer_lower_bound(score);
        ranking
    }
}

/// Enumerate every bucket order of the dataset's elements and return an
/// optimum. Test oracle only.
///
/// # Panics
/// Panics for `n > 9` (`Fubini(9) ≈ 7·10⁶` candidates is the practical
/// limit).
pub fn brute_force(data: &Dataset) -> (u64, Ranking) {
    let n = data.n();
    assert!(n <= 9, "brute force is limited to n <= 9 (got {n})");
    let pairs = PairTable::build(data);
    let mut best: Option<(u64, Vec<Vec<Element>>)> = None;
    let mut buckets: Vec<Vec<Element>> = Vec::new();
    enumerate(0, n, &mut buckets, &pairs, &mut best);
    let (score, buckets) = best.expect("n >= 1 has at least one bucket order");
    (
        score,
        Ranking::from_buckets(buckets).expect("enumeration yields valid rankings"),
    )
}

fn enumerate(
    next: usize,
    n: usize,
    buckets: &mut Vec<Vec<Element>>,
    pairs: &PairTable,
    best: &mut Option<(u64, Vec<Vec<Element>>)>,
) {
    if next == n {
        let r = Ranking::from_buckets(buckets.clone()).expect("valid partial construction");
        let score = pairs.score(&r);
        if best.as_ref().is_none_or(|(s, _)| score < *s) {
            *best = Some((score, buckets.clone()));
        }
        return;
    }
    let e = Element(next as u32);
    // Join any existing bucket…
    for i in 0..buckets.len() {
        buckets[i].push(e);
        enumerate(next + 1, n, buckets, pairs, best);
        buckets[i].pop();
    }
    // …or open a new bucket at any position.
    for i in 0..=buckets.len() {
        buckets.insert(i, vec![e]);
        enumerate(next + 1, n, buckets, pairs, best);
        buckets.remove(i);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parse::parse_ranking;
    use crate::score::kemeny_score;
    use rand::Rng;

    fn data(lines: &[&str]) -> Dataset {
        Dataset::new(lines.iter().map(|l| parse_ranking(l).unwrap()).collect()).unwrap()
    }

    fn paper_dataset() -> Dataset {
        data(&["[{0},{3},{1,2}]", "[{0},{1,2},{3}]", "[{3},{0,2},{1}]"])
    }

    #[test]
    fn brute_force_finds_paper_optimum() {
        let (score, r) = brute_force(&paper_dataset());
        assert_eq!(score, 5);
        assert_eq!(r, parse_ranking("[{0},{3},{1,2}]").unwrap());
    }

    #[test]
    fn brute_force_enumerates_all_bucket_orders() {
        // Count leaves for n = 3 via a probe dataset: Fubini(3) = 13
        // distinct rankings; the optimum of identical inputs is the input.
        let d = data(&["[{0},{1},{2}]"]);
        let (score, r) = brute_force(&d);
        assert_eq!(score, 0);
        assert_eq!(&r, d.ranking(0));
    }

    #[test]
    fn native_bnb_matches_brute_force_on_paper_example() {
        let d = paper_dataset();
        let mut ctx = AlgoContext::seeded(1);
        let (r, score, proved) = ExactAlgorithm::default().solve(&d, &mut ctx);
        assert!(proved);
        assert_eq!(score, 5);
        assert_eq!(kemeny_score(&r, &d), 5);
    }

    #[test]
    fn lpb_matches_brute_force_on_paper_example() {
        let d = paper_dataset();
        let (r, score) = ExactLpb::default().solve(&d);
        assert_eq!(score, 5);
        assert_eq!(kemeny_score(&r, &d), 5);
    }

    #[test]
    fn three_solvers_agree_on_random_small_instances() {
        use rand::SeedableRng;
        let mut rng = rand::rngs::StdRng::seed_from_u64(99);
        for trial in 0..8 {
            let n = rng.random_range(3..=5);
            let m = rng.random_range(2..=4);
            let rankings: Vec<Ranking> = (0..m)
                .map(|_| {
                    // Random bucket order: random bucket index per element,
                    // then compacted.
                    loop {
                        let idx: Vec<u32> = (0..n).map(|_| rng.random_range(0..n as u32)).collect();
                        let mut used: Vec<u32> = idx.clone();
                        used.sort_unstable();
                        used.dedup();
                        let remap: Vec<u32> = idx
                            .iter()
                            .map(|v| used.iter().position(|u| u == v).unwrap() as u32)
                            .collect();
                        if let Ok(r) = Ranking::from_bucket_indices(&remap) {
                            return r;
                        }
                    }
                })
                .collect();
            let d = Dataset::new(rankings).unwrap();
            let (bf_score, _) = brute_force(&d);
            let mut ctx = AlgoContext::seeded(trial);
            let (_, bnb_score, proved) = ExactAlgorithm::default().solve(&d, &mut ctx);
            assert!(proved, "trial {trial}");
            assert_eq!(bnb_score, bf_score, "native vs brute force, trial {trial}");
            let (_, lpb_score) = ExactLpb::default().solve(&d);
            assert_eq!(lpb_score, bf_score, "LPB vs brute force, trial {trial}");
        }
    }

    #[test]
    fn exact_beats_or_matches_every_heuristic() {
        use crate::algorithms::paper_algorithms;
        let d = data(&[
            "[{0},{1,2},{3},{4}]",
            "[{4},{1},{0,2,3}]",
            "[{2},{0},{1},{3,4}]",
        ]);
        let mut ctx = AlgoContext::seeded(5);
        let (_, opt, proved) = ExactAlgorithm::default().solve(&d, &mut ctx);
        assert!(proved);
        for algo in paper_algorithms(3) {
            let r = algo.run(&d, &mut ctx);
            assert!(
                kemeny_score(&r, &d) >= opt,
                "{} beat the proven optimum",
                algo.name()
            );
        }
    }

    #[test]
    fn handles_unanimous_dataset_with_zero_cost() {
        let d = data(&["[{1},{0,2}]", "[{1},{0,2}]"]);
        let mut ctx = AlgoContext::seeded(0);
        let (r, score, proved) = ExactAlgorithm::default().solve(&d, &mut ctx);
        assert!(proved);
        assert_eq!(score, 0);
        assert_eq!(&r, d.ranking(0));
    }

    #[test]
    fn decomposition_matches_monolithic() {
        use rand::SeedableRng;
        let mut rng = rand::rngs::StdRng::seed_from_u64(321);
        for trial in 0..10 {
            let n = rng.random_range(4..=7);
            let m = rng.random_range(2..=5);
            let rankings: Vec<Ranking> = (0..m)
                .map(|_| {
                    let idx: Vec<u32> = (0..n).map(|_| rng.random_range(0..n as u32)).collect();
                    let mut used = idx.clone();
                    used.sort_unstable();
                    used.dedup();
                    let remap: Vec<u32> = idx
                        .iter()
                        .map(|v| used.iter().position(|u| u == v).unwrap() as u32)
                        .collect();
                    Ranking::from_bucket_indices(&remap).unwrap()
                })
                .collect();
            let d = Dataset::new(rankings).unwrap();
            let with = ExactAlgorithm::default();
            let without = ExactAlgorithm {
                decompose: false,
                ..ExactAlgorithm::default()
            };
            let (_, s1, p1) = with.solve(&d, &mut AlgoContext::seeded(trial));
            let (_, s2, p2) = without.solve(&d, &mut AlgoContext::seeded(trial));
            assert!(p1 && p2);
            assert_eq!(s1, s2, "trial {trial}: decomposition changed the optimum");
        }
    }

    #[test]
    fn safe_blocks_detects_concatenated_instances() {
        // Two independent sub-instances glued together: {0,1} always
        // strictly before {2,3} in every ranking.
        let d = data(&["[{0},{1},{2},{3}]", "[{1},{0},{3},{2}]", "[{0,1},{2,3}]"]);
        let blocks = safe_blocks(&d);
        assert!(
            blocks.len() >= 2,
            "expected a split between {{0,1}} and {{2,3}}, got {blocks:?}"
        );
        let first: Vec<u32> = blocks[0].iter().map(|e| e.0).collect();
        assert!(first.iter().all(|&id| id <= 1));
    }

    #[test]
    fn decomposed_solve_streams_whole_dataset_bounds_only() {
        use crate::engine::job::IncumbentSink;
        use crate::engine::Event;
        use std::sync::mpsc;
        use std::sync::Arc;

        // Two glued sub-instances (a guaranteed safe split) with real
        // disagreement inside each block, so both block solves do work.
        let d = data(&[
            "[{0},{1},{2},{3},{4},{5}]",
            "[{2},{1},{0},{4},{5},{3}]",
            "[{1},{0,2},{3},{5},{4}]",
            "[{0,1,2},{3,4,5}]",
        ]);
        assert!(safe_blocks(&d).len() >= 2, "the split must actually fire");
        let whole_floor = PairTable::build(&d).lower_bound();

        let (tx, rx) = mpsc::channel();
        let sink = Arc::new(IncumbentSink::with_listener(Arc::new(move |e: &Event| {
            let _ = tx.send(e.clone());
        })));
        let mut ctx = AlgoContext::seeded(4);
        ctx.attach_sink(Arc::clone(&sink));
        let (_, score, proved) = ExactAlgorithm::default().solve(&d, &mut ctx);
        assert!(proved);
        drop(ctx);
        sink.close();

        let mut bounds: Vec<u64> = Vec::new();
        let mut scores: Vec<u64> = Vec::new();
        for event in rx.try_iter() {
            match event {
                Event::LowerBound { lower_bound, .. } => bounds.push(lower_bound),
                Event::Incumbent { score, .. } => scores.push(score),
                _ => {}
            }
        }
        assert!(!bounds.is_empty(), "decomposed solves must stream bounds");
        assert!(
            bounds.windows(2).all(|w| w[0] < w[1]),
            "bounds must strictly increase: {bounds:?}"
        );
        // The audit this test pins: every streamed bound is a valid
        // *whole-dataset* bound — at least the all-pairs floor — never a
        // per-block bound leaked out of a muted sub-solve (those sit far
        // below the floor because they ignore every cross-block pair).
        assert!(
            bounds.iter().all(|&lb| lb >= whole_floor),
            "a sub-instance bound leaked: {bounds:?} (floor {whole_floor})"
        );
        assert!(
            bounds.iter().all(|&lb| lb <= score),
            "a bound exceeded the optimum: {bounds:?} (optimum {score})"
        );
        assert_eq!(
            sink.lower_bound(),
            Some(score),
            "a fully proved decomposition ends with lb == optimum"
        );
        assert!(
            scores.iter().all(|&s| s >= *bounds.last().unwrap()),
            "no incumbent may undercut a certified bound"
        );
    }

    #[test]
    fn safe_blocks_refuses_unsafe_splits() {
        // A Condorcet cycle: every split has a cross pair whose majority
        // points backwards, so no decomposition is possible.
        let d = data(&["[{0},{1},{2}]", "[{1},{2},{0}]", "[{2},{0},{1}]"]);
        assert_eq!(safe_blocks(&d).len(), 1);
    }

    #[test]
    fn timeout_returns_incumbent_unproved() {
        use std::time::Duration;
        // n = 12 uniform-ish data with a zero deadline: must return the
        // BioConsert incumbent immediately, unproved.
        let lines: Vec<String> = (0..4)
            .map(|k| {
                let mut ids: Vec<usize> = (0..12).collect();
                ids.rotate_left(k * 3);
                let parts: Vec<String> = ids.iter().map(|i| format!("{{{i}}}")).collect();
                format!("[{}]", parts.join(","))
            })
            .collect();
        let refs: Vec<&str> = lines.iter().map(|s| s.as_str()).collect();
        let d = data(&refs);
        let mut ctx = AlgoContext::seeded_with_budget(0, Duration::from_millis(0));
        let exact = ExactAlgorithm {
            deadline_stride: 1,
            ..ExactAlgorithm::default()
        };
        let (r, _, proved) = exact.solve(&d, &mut ctx);
        assert!(!proved);
        assert!(d.is_complete_ranking(&r));
    }
}
