//! Normalization processes (§5.1, Table 3).
//!
//! Real datasets rarely rank the same elements everywhere; aggregation
//! algorithms require them to. The literature uses two conversions, both
//! implemented here together with the top-k retention of §6.1.3 and the
//! intermediate `k`-of-`m` process the paper proposes as future work (§8):
//!
//! * **Projection** removes every element absent from at least one ranking
//!   — it can silently drop highly relevant elements (the paper's example:
//!   the 1970 F1 champion).
//! * **Unification** appends to each ranking a final bucket holding the
//!   elements it is missing; **unification-broken** then splits that bucket
//!   into singletons (arbitrary order) for permutation-only algorithms.
//!
//! All functions return a dense [`Dataset`] plus the mapping from dense ids
//! back to the original elements.

use crate::dataset::Dataset;
use crate::element::Element;
use crate::ranking::Ranking;

/// A normalized dataset plus the id mapping: `mapping[dense_id]` is the
/// original element.
#[derive(Debug, Clone)]
pub struct Normalized {
    /// The dense dataset ready for aggregation.
    pub dataset: Dataset,
    /// Dense id → original element.
    pub mapping: Vec<Element>,
}

impl Normalized {
    /// Translate a consensus over the dense ids back to original ids.
    pub fn denormalize(&self, r: &Ranking) -> Ranking {
        r.map_elements(|e| self.mapping[e.index()])
            .expect("mapping is injective")
    }
}

/// Sorted union of the supports.
fn union(raw: &[Ranking]) -> Vec<Element> {
    let len = raw.iter().map(|r| r.positions().len()).max().unwrap_or(0);
    let mut seen = vec![false; len];
    for e in raw.iter().flat_map(Ranking::elements) {
        seen[e.index()] = true;
    }
    (0..len as u32)
        .filter(|&id| seen[id as usize])
        .map(Element)
        .collect()
}

/// Elements present in every ranking, sorted.
fn intersection(raw: &[Ranking]) -> Vec<Element> {
    union(raw)
        .into_iter()
        .filter(|&e| raw.iter().all(|r| r.contains(e)))
        .collect()
}

fn dense_index(kept: &[Element]) -> impl Fn(Element) -> Element + '_ {
    move |e| {
        let i = kept.binary_search(&e).expect("element retained");
        Element(i as u32)
    }
}

/// Keep only `kept` elements of `r` (dropping emptied buckets), remapped to
/// dense ids. Returns `None` if nothing remains.
fn restrict(r: &Ranking, kept: &[Element]) -> Option<Vec<Vec<Element>>> {
    let to_dense = dense_index(kept);
    let buckets: Vec<Vec<Element>> = r
        .buckets()
        .map(|b| {
            b.iter()
                .filter(|e| kept.binary_search(e).is_ok())
                .map(|&e| to_dense(e))
                .collect::<Vec<_>>()
        })
        .filter(|b: &Vec<Element>| !b.is_empty())
        .collect();
    if buckets.is_empty() {
        None
    } else {
        Some(buckets)
    }
}

/// **Projection** (§5.1): drop every element absent from at least one
/// ranking. Returns `None` when the intersection is empty.
pub fn projection(raw: &[Ranking]) -> Option<Normalized> {
    let kept = intersection(raw);
    if kept.is_empty() || raw.is_empty() {
        return None;
    }
    let rankings: Vec<Ranking> = raw
        .iter()
        .map(|r| {
            Ranking::from_buckets(restrict(r, &kept).expect("kept ⊆ every support"))
                .expect("projection preserves validity")
        })
        .collect();
    Some(Normalized {
        dataset: Dataset::new(rankings).expect("projected rankings share the support"),
        mapping: kept,
    })
}

/// Core of unification: append each ranking's missing elements as one final
/// bucket, or as singletons when `broken`. The rankings are taken by value:
/// when the union of supports is already dense (`0..n`, as for a universe
/// freshly interned from text) the mapping is the identity, so complete
/// rankings move through untouched and only partial ones gain a bucket.
fn unify_impl(raw: Vec<Ranking>, broken: bool) -> Option<Normalized> {
    let kept = union(&raw);
    let n = kept.len();
    let dense = kept.last()?.index() + 1 == n;
    let rankings: Vec<Ranking> = raw
        .into_iter()
        .map(|r| {
            let mut r = if dense {
                r
            } else {
                r.map_elements(dense_index(&kept))
                    .expect("the dense index is injective")
            };
            if r.n_elements() < n {
                let missing = (0..n as u32).map(Element).filter(|&e| !r.contains(e));
                r.append_bucket(missing.collect());
            }
            if broken && !r.is_permutation() {
                // Table 3's d_b is made of permutations only: *every*
                // bucket (pre-existing ties included) is broken,
                // "arbitrarily" = ascending id.
                let order: Vec<Element> = r.elements().collect();
                r = Ranking::permutation(&order).expect("unification preserves validity");
            }
            r
        })
        .collect();
    Some(Normalized {
        dataset: Dataset::new(rankings).expect("unified rankings share the support"),
        mapping: kept,
    })
}

/// **Unification** (§5.1): each ranking gets a final *unification bucket*
/// with the elements it is missing. Returns `None` for an empty input.
/// Borrowing form of [`unify`].
pub fn unification(raw: &[Ranking]) -> Option<Normalized> {
    unify_impl(raw.to_vec(), false)
}

/// [`unification`] of owned rankings, which it reuses: the form for
/// callers that parsed the rankings only to normalize them.
pub fn unify(raw: Vec<Ranking>) -> Option<Normalized> {
    unify_impl(raw, false)
}

/// **Unification broken** (§5.1): like [`unification`] but the unification
/// bucket is broken into singletons, so permutation inputs stay
/// permutations (used by [Ali & Meilă 2012]).
pub fn unification_broken(raw: &[Ranking]) -> Option<Normalized> {
    unify_impl(raw.to_vec(), true)
}

/// Top-k retention (§6.1.3, Figure 1): keep whole buckets until at least
/// `k` elements are retained.
pub fn top_k(r: &Ranking, k: usize) -> Ranking {
    let mut buckets = Vec::new();
    let mut count = 0usize;
    for b in r.buckets() {
        if count >= k {
            break;
        }
        buckets.push(b.to_vec());
        count += b.len();
    }
    Ranking::from_buckets(buckets).expect("prefix of a valid ranking")
}

/// The §8 future-work intermediate process: drop elements appearing in
/// fewer than `min_rankings` inputs, then unify the rest. `min_rankings =
/// m` degenerates to projection's element set; `min_rankings = 1` to
/// unification.
pub fn threshold_k(raw: &[Ranking], min_rankings: usize) -> Option<Normalized> {
    let kept: Vec<Element> = union(raw)
        .into_iter()
        .filter(|&e| raw.iter().filter(|r| r.contains(e)).count() >= min_rankings)
        .collect();
    if kept.is_empty() {
        return None;
    }
    let rankings: Vec<Ranking> = raw
        .iter()
        .map(|r| {
            let to_dense = dense_index(&kept);
            let mut buckets = restrict(r, &kept).unwrap_or_default();
            let missing: Vec<Element> = kept
                .iter()
                .filter(|&&e| !r.contains(e))
                .map(|&e| to_dense(e))
                .collect();
            if !missing.is_empty() {
                buckets.push(missing);
            }
            Ranking::from_buckets(buckets).expect("threshold-k preserves validity")
        })
        .collect();
    Some(Normalized {
        dataset: Dataset::new(rankings).expect("same support by construction"),
        mapping: kept,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parse::parse_ranking_labeled;
    use crate::Universe;

    /// The paper's Table 3 raw dataset d_r.
    fn table3() -> (Vec<Ranking>, Universe) {
        let mut u = Universe::new();
        let raw = ["[{A},{D},{B}]", "[{B},{E,A}]", "[{D},{A,B},{C}]"]
            .iter()
            .map(|l| parse_ranking_labeled(l, &mut u).unwrap())
            .collect();
        (raw, u)
    }

    fn show(norm: &Normalized, u: &Universe, i: usize) -> String {
        norm.denormalize(norm.dataset.ranking(i)).display_with(u)
    }

    #[test]
    fn table3_projection() {
        let (raw, u) = table3();
        let p = projection(&raw).unwrap();
        assert_eq!(show(&p, &u, 0), "[{A},{B}]");
        assert_eq!(show(&p, &u, 1), "[{B},{A}]");
        assert_eq!(show(&p, &u, 2), "[{A,B}]");
        assert_eq!(p.dataset.n(), 2);
    }

    #[test]
    fn table3_unification() {
        // Paper (up to the arbitrary order inside the unification bucket):
        // du = [{A},{D},{B},{C,E}], [{B},{E,A},{C,D}], [{D},{A,B},{C},{E}].
        // Interning order is A=0, D=1, B=2, E=3, C=4, so tied elements
        // render in id order (e.g. {E,C} instead of {C,E}).
        let (raw, u) = table3();
        let n = unification(&raw).unwrap();
        assert_eq!(show(&n, &u, 0), "[{A},{D},{B},{E,C}]");
        assert_eq!(show(&n, &u, 1), "[{B},{A,E},{D,C}]");
        assert_eq!(show(&n, &u, 2), "[{D},{A,B},{C},{E}]");
        assert_eq!(n.dataset.n(), 5);
    }

    #[test]
    fn table3_unification_broken() {
        // Paper's d_b: all rankings become permutations; the break order is
        // arbitrary (we use ascending id).
        let (raw, u) = table3();
        let n = unification_broken(&raw).unwrap();
        assert_eq!(show(&n, &u, 0), "[{A},{D},{B},{E},{C}]");
        assert_eq!(show(&n, &u, 1), "[{B},{A},{E},{D},{C}]");
        assert_eq!(show(&n, &u, 2), "[{D},{A},{B},{C},{E}]");
        assert!(n.dataset.all_permutations());
    }

    #[test]
    fn projection_empty_intersection_is_none() {
        let mut u = Universe::new();
        let raw: Vec<Ranking> = ["[{A}]", "[{B}]"]
            .iter()
            .map(|l| parse_ranking_labeled(l, &mut u).unwrap())
            .collect();
        assert!(projection(&raw).is_none());
        // Unification still works.
        assert_eq!(unification(&raw).unwrap().dataset.n(), 2);
    }

    #[test]
    fn top_k_keeps_whole_buckets() {
        // Figure 1: [{A},{B,C},{F},{D},{E}] with k=2 → [{A},{B,C}].
        let mut u = Universe::new();
        let r = parse_ranking_labeled("[{A},{B,C},{F},{D},{E}]", &mut u).unwrap();
        let t = top_k(&r, 2);
        assert_eq!(t.display_with(&u), "[{A},{B,C}]");
        assert_eq!(top_k(&r, 1).display_with(&u), "[{A}]");
        assert_eq!(top_k(&r, 100), r);
    }

    #[test]
    fn threshold_k_interpolates() {
        let (raw, _) = table3();
        // m = 3; k = 3 keeps elements in all rankings = projection's set,
        // k = 1 keeps everything = unification's set.
        let t3 = threshold_k(&raw, 3).unwrap();
        assert_eq!(t3.dataset.n(), projection(&raw).unwrap().dataset.n());
        let t1 = threshold_k(&raw, 1).unwrap();
        assert_eq!(t1.dataset.n(), unification(&raw).unwrap().dataset.n());
        // k = 2: A, B, D appear ≥ 2 times; C, E once each.
        let t2 = threshold_k(&raw, 2).unwrap();
        assert_eq!(t2.dataset.n(), 3);
    }

    #[test]
    fn denormalize_roundtrip() {
        let (raw, _) = table3();
        let n = unification(&raw).unwrap();
        let consensus = n.dataset.ranking(0).clone();
        let denorm = n.denormalize(&consensus);
        assert_eq!(denorm.n_elements(), consensus.n_elements());
        // Re-normalizing the denormalized ranking gives back the original.
        let back = denorm.map_elements(|e| Element(n.mapping.binary_search(&e).unwrap() as u32));
        assert_eq!(back.unwrap(), consensus);
    }
}
