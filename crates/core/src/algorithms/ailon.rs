//! Ailon 3/2 (§3.2, [Ailon 2010]): LP relaxation + rounding.
//!
//! The paper's §4.1.2 notes the approach "relaxes the problem in
//! floating-point optimization and can be used as it is" for ties: we relax
//! the §4.2 LPB — every `x ∈ {0,1}` becomes `x ∈ [0,1]` — solve the LP,
//! and reconstruct a ranking by rounding.
//!
//! Two engineering choices (documented in DESIGN.md §5):
//!
//! * **Variable elimination.** Constraint (1) lets us substitute
//!   `x_{b<a} = 1 − x_{a<b} − x_{a=b}`, leaving two variables per
//!   unordered pair and turning every constraint into `≤` rows with
//!   non-negative right-hand sides — no Phase-1 simplex needed.
//! * **Cutting planes.** The `O(n³)` transitivity constraints are added
//!   lazily: solve, scan for violated triples, add the worst offenders,
//!   re-solve. The active set stays small.
//!
//! Rounding follows the KwikSort-style pivot scheme of Ailon's paper:
//! recursively pick a pivot and send every element to the side (before /
//! tied / after) with the largest LP value.
//!
//! Like the paper's LPSolve-based implementation — which produced no result
//! past `n = 45` (§7.1.1) — this algorithm is the slow, high-quality end of
//! the spectrum; past [`AilonThreeHalves::max_n`] it falls back to the
//! best input ranking and reports a timeout.

use super::{AlgoContext, ConsensusAlgorithm};
use crate::dataset::Dataset;
use crate::element::Element;
use crate::pairs::PairTable;
use crate::ranking::Ranking;
use lpsolve::{Cmp, Problem, Var};
use rand::Rng;

/// The Ailon 3/2 LP-relaxation algorithm.
#[derive(Debug, Clone)]
pub struct AilonThreeHalves {
    /// Past this many elements, report "no result" (timeout + fallback).
    pub max_n: usize,
    /// Cutting-plane rounds before giving up on full transitivity.
    pub max_rounds: usize,
    /// Most-violated cuts added per round.
    pub cuts_per_round: usize,
    /// Simplex pivot budget per LP solve.
    pub pivot_budget: usize,
}

impl Default for AilonThreeHalves {
    fn default() -> Self {
        AilonThreeHalves {
            max_n: 45,
            max_rounds: 60,
            cuts_per_round: 2000,
            pivot_budget: 25_000,
        }
    }
}

/// Fractional pair relation extracted from the LP solution.
struct Relaxation {
    n: usize,
    /// `p[pair(a,b)]` = x_{a<b} for a < b (id order).
    p: Vec<f64>,
    /// `q[pair(a,b)]` = x_{a=b}.
    q: Vec<f64>,
}

#[inline]
fn pair_index(n: usize, a: usize, b: usize) -> usize {
    debug_assert!(a < b);
    a * n + b
}

impl Relaxation {
    /// x_{i<j} for arbitrary ids.
    fn lt(&self, i: usize, j: usize) -> f64 {
        if i < j {
            self.p[pair_index(self.n, i, j)]
        } else {
            1.0 - self.p[pair_index(self.n, j, i)] - self.q[pair_index(self.n, j, i)]
        }
    }

    /// x_{i=j}.
    fn eq(&self, i: usize, j: usize) -> f64 {
        self.q[pair_index(self.n, i.min(j), i.max(j))]
    }
}

/// A lazily-added transitivity cut, in substituted (P, Q) variables.
enum Cut {
    /// Order transitivity (2) for the ordered triple (i, j, k).
    Order(u32, u32, u32),
    /// Bucket transitivity (3) with middle `y`: 2·x_{x=y} + 2·x_{y=z} −
    /// x_{x=z} ≤ 3.
    Bucket(u32, u32, u32), // (x, y=middle, z)
}

impl AilonThreeHalves {
    fn solve_lp(&self, pairs: &PairTable, ctx: &mut AlgoContext) -> Option<Relaxation> {
        let n = pairs.n();
        let mut problem = Problem::new();
        let mut pv = vec![None::<Var>; n * n];
        let mut qv = vec![None::<Var>; n * n];
        let mut constant = 0.0;
        for a in 0..n {
            for b in (a + 1)..n {
                let (ea, eb) = (Element(a as u32), Element(b as u32));
                let u = pairs.before(ea, eb) as f64;
                let v = pairs.before(eb, ea) as f64;
                let t = pairs.tied(ea, eb) as f64;
                // Objective after substituting x_{b<a} = 1 − P − Q:
                // (u+t) + (v−u)·P + (v−t)·Q per pair.
                let p_var = problem.add_var(v - u, 0.0, f64::INFINITY);
                let q_var = problem.add_var(v - t, 0.0, f64::INFINITY);
                constant += u + t;
                problem.add_row(&[(p_var, 1.0), (q_var, 1.0)], Cmp::Le, 1.0);
                pv[pair_index(n, a, b)] = Some(p_var);
                qv[pair_index(n, a, b)] = Some(q_var);
            }
        }
        problem.obj_constant = constant;
        let pvar = |a: usize, b: usize| pv[pair_index(n, a, b)].expect("pair var");
        let qvar = |a: usize, b: usize| qv[pair_index(n, a, b)].expect("pair var");

        // lt(i,j) as LP terms plus a constant.
        let lt_terms = |i: usize, j: usize, sign: f64, terms: &mut Vec<(Var, f64)>| -> f64 {
            if i < j {
                terms.push((pvar(i, j), sign));
                0.0
            } else {
                terms.push((pvar(j, i), -sign));
                terms.push((qvar(j, i), -sign));
                sign
            }
        };

        let mut relax = None;
        for _round in 0..self.max_rounds {
            // Cap pivots per solve relative to problem size so one LP solve
            // cannot blow far past the wall-clock deadline (checked only
            // between rounds).
            let cap = self
                .pivot_budget
                .min(6 * (problem.n_rows() + problem.n_vars()) + 2_000);
            let sol = match problem.solve_with_deadline(cap, ctx.deadline) {
                Ok(s) => s,
                Err(_) => return relax, // best fractional solution so far, if any
            };
            // A solved relaxation is a certified lower bound on the
            // optimal (integral) Kemeny score: dropping integrality and
            // any still-missing transitivity cuts only enlarges the
            // feasible region, so the true optimum — an integer — is
            // ≥ ⌈objective⌉. The epsilon absorbs simplex round-off; the
            // sink's clamp-to-incumbent catches anything worse.
            let certified = (sol.objective - 1e-6 * sol.objective.abs().max(1.0)).ceil();
            if certified >= 0.0 && certified.is_finite() {
                ctx.offer_lower_bound(certified as u64);
            }
            let r = Relaxation {
                n,
                p: (0..n * n)
                    .map(|i| pv[i].map_or(0.0, |v| sol.x[v.index()]))
                    .collect(),
                q: (0..n * n)
                    .map(|i| qv[i].map_or(0.0, |v| sol.x[v.index()]))
                    .collect(),
            };

            // Scan all triples for violated transitivity constraints.
            const TOL: f64 = 1e-6;
            let mut violated: Vec<(f64, Cut)> = Vec::new();
            for a in 0..n {
                for b in (a + 1)..n {
                    for c in (b + 1)..n {
                        let triple = [a, b, c];
                        // (2): all 6 orderings.
                        for (i, j, k) in [
                            (a, b, c),
                            (a, c, b),
                            (b, a, c),
                            (b, c, a),
                            (c, a, b),
                            (c, b, a),
                        ] {
                            let lhs = r.lt(i, k) - r.lt(i, j) - r.lt(j, k);
                            if lhs < -1.0 - TOL {
                                violated
                                    .push((-1.0 - lhs, Cut::Order(i as u32, j as u32, k as u32)));
                            }
                        }
                        // (3): each middle choice, in tie variables only.
                        for mid in 0..3 {
                            let y = triple[mid];
                            let (x, z) = match mid {
                                0 => (b, c),
                                1 => (a, c),
                                _ => (a, b),
                            };
                            let lhs = 2.0 * r.eq(x, y) + 2.0 * r.eq(y, z) - r.eq(x, z);
                            if lhs > 3.0 + TOL {
                                violated
                                    .push((lhs - 3.0, Cut::Bucket(x as u32, y as u32, z as u32)));
                            }
                        }
                    }
                }
            }
            relax = Some(r);
            if violated.is_empty() {
                return relax;
            }
            violated.sort_by(|a, b| b.0.partial_cmp(&a.0).expect("finite violations"));
            violated.truncate(self.cuts_per_round);
            for (_, cut) in violated {
                match cut {
                    Cut::Order(i, j, k) => {
                        let (i, j, k) = (i as usize, j as usize, k as usize);
                        let mut terms = Vec::with_capacity(6);
                        let mut cst = 0.0;
                        cst += lt_terms(i, k, 1.0, &mut terms);
                        cst += lt_terms(i, j, -1.0, &mut terms);
                        cst += lt_terms(j, k, -1.0, &mut terms);
                        // terms + cst ≥ -1  ⇔  terms ≥ -1 - cst
                        problem.add_row(&terms, Cmp::Ge, -1.0 - cst);
                    }
                    Cut::Bucket(x, y, z) => {
                        let (x, y, z) = (x as usize, y as usize, z as usize);
                        problem.add_row(
                            &[
                                (qvar(x.min(y), x.max(y)), 2.0),
                                (qvar(y.min(z), y.max(z)), 2.0),
                                (qvar(x.min(z), x.max(z)), -1.0),
                            ],
                            Cmp::Le,
                            3.0,
                        );
                    }
                }
            }
            if ctx.checkpoint().is_stop() {
                return relax;
            }
        }
        relax
    }

    /// KwikSort-style pivot rounding of the fractional relation.
    fn round(
        relax: &Relaxation,
        mut elems: Vec<u32>,
        rng: &mut rand::rngs::StdRng,
        out: &mut Vec<Vec<Element>>,
    ) {
        match elems.len() {
            0 => return,
            1 => {
                out.push(vec![Element(elems[0])]);
                return;
            }
            _ => {}
        }
        let pivot = elems.swap_remove(rng.random_range(0..elems.len())) as usize;
        let mut before = Vec::new();
        let mut tied = vec![Element(pivot as u32)];
        let mut after = Vec::new();
        for id in elems {
            let e = id as usize;
            let b = relax.lt(e, pivot);
            let t = relax.eq(e, pivot);
            let a = relax.lt(pivot, e);
            if b >= t && b >= a {
                before.push(id);
            } else if t >= a {
                tied.push(Element(id));
            } else {
                after.push(id);
            }
        }
        Self::round(relax, before, rng, out);
        out.push(tied);
        Self::round(relax, after, rng, out);
    }
}

impl ConsensusAlgorithm for AilonThreeHalves {
    fn name(&self) -> String {
        "Ailon3/2".to_owned()
    }

    fn produces_ties(&self) -> bool {
        true
    }

    fn run(&self, data: &Dataset, ctx: &mut AlgoContext) -> Ranking {
        let n = data.n();
        let pairs = ctx.cost_matrix(data);
        let fallback = |ctx: &mut AlgoContext| {
            // "No result" in the paper's tables; we still need to return a
            // ranking, so fall back to the best input and flag the timeout.
            ctx.set_timed_out();
            data.rankings()
                .iter()
                .min_by_key(|r| pairs.score(r))
                .expect("non-empty dataset")
                .clone()
        };
        if n > self.max_n {
            return fallback(ctx);
        }
        if n == 1 {
            return data.ranking(0).clone();
        }
        // The best input ranking is the run's immediate incumbent (what
        // Pick-a-Perm would return), so a job cancelled inside the LP —
        // whose rounds are checkpointed but not preemptible — still has a
        // harvestable consensus from the first milliseconds. It is
        // published whenever a sink records the trace, so `Engine::run` and
        // a submitted job record the same trace; a bare kernel call without
        // a sink skips the O(m·n²) input scan.
        if ctx.has_sink() {
            if let Some(best_input) = data.rankings().iter().min_by_key(|r| pairs.score(r)) {
                ctx.offer_incumbent(best_input, pairs.score(best_input));
            }
        }
        match self.solve_lp(&pairs, ctx) {
            None => fallback(ctx),
            Some(relax) => {
                let mut out = Vec::new();
                let ids: Vec<u32> = (0..n as u32).collect();
                Self::round(&relax, ids, &mut ctx.rng, &mut out);
                Ranking::from_buckets(out).expect("rounding partitions the elements")
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::algorithms::exact::brute_force;
    use crate::parse::parse_ranking;
    use crate::score::kemeny_score;

    fn data(lines: &[&str]) -> Dataset {
        Dataset::new(lines.iter().map(|l| parse_ranking(l).unwrap()).collect()).unwrap()
    }

    #[test]
    fn optimal_on_paper_example() {
        // The LP is integral here; Ailon should match the optimum (5).
        let d = data(&["[{0},{3},{1,2}]", "[{0},{1,2},{3}]", "[{3},{0,2},{1}]"]);
        let r = AilonThreeHalves::default().run(&d, &mut AlgoContext::seeded(7));
        assert_eq!(kemeny_score(&r, &d), 5);
    }

    #[test]
    fn unanimous_inputs_reproduced() {
        let d = data(&["[{1},{0,2},{3}]", "[{1},{0,2},{3}]"]);
        let mut ctx = AlgoContext::seeded(0);
        let r = AilonThreeHalves::default().run(&d, &mut ctx);
        assert_eq!(r, parse_ranking("[{1},{0,2},{3}]").unwrap());
        assert!(!ctx.timed_out());
    }

    #[test]
    fn within_factor_two_of_optimum_small() {
        let d = data(&[
            "[{0},{1,2},{3},{4}]",
            "[{4},{1},{0,2,3}]",
            "[{2},{0},{1},{3,4}]",
        ]);
        let (opt, _) = brute_force(&d);
        let r = AilonThreeHalves::default().run(&d, &mut AlgoContext::seeded(1));
        let s = kemeny_score(&r, &d);
        // 3/2-approximation in expectation; 2× is a safe deterministic check.
        assert!(s <= 2 * opt, "score {s} vs optimum {opt}");
    }

    #[test]
    fn oversize_reports_timeout_with_fallback() {
        let lines: Vec<String> = (0..3)
            .map(|k| {
                let ids: Vec<String> = (0..6).map(|i| format!("{{{}}}", (i + k) % 6)).collect();
                format!("[{}]", ids.join(","))
            })
            .collect();
        let refs: Vec<&str> = lines.iter().map(|s| s.as_str()).collect();
        let d = data(&refs);
        let algo = AilonThreeHalves {
            max_n: 4,
            ..AilonThreeHalves::default()
        };
        let mut ctx = AlgoContext::seeded(0);
        let r = algo.run(&d, &mut ctx);
        assert!(ctx.timed_out());
        assert!(d.rankings().contains(&r)); // fallback = best input
    }

    #[test]
    fn output_complete_on_adversarial_ties() {
        let d = data(&[
            "[{0,1,2,3,4}]",
            "[{4},{3},{2},{1},{0}]",
            "[{0},{1,2,3},{4}]",
        ]);
        let r = AilonThreeHalves::default().run(&d, &mut AlgoContext::seeded(3));
        assert!(d.is_complete_ranking(&r));
    }
}
