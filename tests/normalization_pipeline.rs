//! End-to-end normalization invariants on the real-world facsimiles:
//! raw → projection/unification/threshold-k → aggregation → denormalize;
//! unification checked against its definition on generated rankings, and
//! dataset parsing against line-by-line parsing.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;
use rank_aggregation_with_ties::datasets::realworld;
use rank_aggregation_with_ties::prelude::*;
use rank_aggregation_with_ties::rank_core::normalize::{threshold_k, unification_broken, unify};
use rank_aggregation_with_ties::rank_core::parse::{parse_dataset_lines, parse_ranking_labeled};

fn raw_f1(seed: u64) -> Vec<Ranking> {
    realworld::f1::generate(
        &realworld::f1::Config::default(),
        &mut StdRng::seed_from_u64(seed),
    )
}

#[test]
fn projection_support_is_intersection() {
    for seed in 0..5 {
        let raw = raw_f1(seed);
        let p = projection(&raw).expect("regulars overlap");
        for &orig in &p.mapping {
            assert!(
                raw.iter().all(|r| r.contains(orig)),
                "projected element {orig} missing from some ranking"
            );
        }
        // Maximality: every element in all rankings is kept.
        let all_common = raw[0]
            .support()
            .into_iter()
            .filter(|&e| raw.iter().all(|r| r.contains(e)))
            .count();
        assert_eq!(all_common, p.dataset.n());
    }
}

#[test]
fn unification_support_is_union_and_order_preserved() {
    for seed in 0..5 {
        let raw = raw_f1(seed);
        let u = unification(&raw).expect("non-empty");
        let union: usize = {
            let mut all: Vec<Element> = raw.iter().flat_map(|r| r.elements()).collect();
            all.sort_unstable();
            all.dedup();
            all.len()
        };
        assert_eq!(u.dataset.n(), union);
        // Order among originally-present elements is untouched.
        for (ri, r) in raw.iter().enumerate() {
            let ur = u.dataset.ranking(ri);
            let back = u.denormalize(ur);
            for a in r.elements() {
                for b in r.elements() {
                    if r.bucket_of(a) < r.bucket_of(b) {
                        assert!(
                            back.bucket_of(a) < back.bucket_of(b),
                            "unification reordered {a} vs {b} in ranking {ri}"
                        );
                    }
                }
            }
        }
    }
}

#[test]
fn unification_broken_yields_permutations() {
    let raw = realworld::biomedical::generate(
        &realworld::biomedical::Config::default(),
        &mut StdRng::seed_from_u64(3),
    );
    let b = unification_broken(&raw).expect("non-empty");
    assert!(b.dataset.all_permutations());
    assert_eq!(
        b.dataset.n(),
        unification(&raw).unwrap().dataset.n(),
        "breaking must not change the element set"
    );
}

#[test]
fn threshold_k_monotone_in_k() {
    let raw = raw_f1(9);
    let m = raw.len();
    let mut prev = usize::MAX;
    for k in 1..=m {
        let n = threshold_k(&raw, k).map_or(0, |t| t.dataset.n());
        assert!(n <= prev, "threshold-k must shrink as k grows");
        prev = n;
    }
    assert_eq!(
        threshold_k(&raw, 1).unwrap().dataset.n(),
        unification(&raw).unwrap().dataset.n()
    );
    assert_eq!(
        threshold_k(&raw, m).unwrap().dataset.n(),
        projection(&raw).unwrap().dataset.n()
    );
}

#[test]
fn aggregate_and_denormalize_roundtrip() {
    let raw = raw_f1(11);
    let u = unification(&raw).expect("non-empty");
    let mut ctx = AlgoContext::seeded(0);
    let consensus = BioConsert::default().run(&u.dataset, &mut ctx);
    let denorm = u.denormalize(&consensus);
    assert_eq!(denorm.n_elements(), u.dataset.n());
    // Every original pilot appears exactly once in the denormalized
    // standings.
    for &orig in &u.mapping {
        assert!(denorm.contains(orig));
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn top_k_is_a_prefix(k in 1usize..=12, seed in 0u64..50) {
        let raw = raw_f1(seed);
        let r = &raw[0];
        let t = top_k(r, k);
        prop_assert!(t.n_elements() >= k.min(r.n_elements()));
        // Whole buckets only: the cut never splits a bucket.
        for (i, b) in t.buckets().enumerate() {
            prop_assert_eq!(b, r.bucket(i));
        }
        // Minimality: dropping the last bucket goes below k.
        if t.n_buckets() > 1 {
            let without_last: usize =
                (0..t.n_buckets() - 1).map(|i| t.bucket(i).len()).sum();
            prop_assert!(without_last < k);
        }
    }
}

/// Raw rankings over the ids `stride·i + offset` (`i < n`). Each ranking
/// gives every element a slot in `0..n + 2`; tied slots share a bucket.
/// A complete ranking places every element, a partial one leaves out the
/// elements of slot 0 (possibly all of them). Stride 1 and offset 0 give
/// dense supports, whose union still has gaps when some element is
/// absent everywhere.
fn raw_rankings() -> impl Strategy<Value = Vec<Ranking>> {
    (1usize..=9, 1usize..=5, 1u32..=3, 0u32..=2).prop_flat_map(|(n, m, stride, offset)| {
        prop::collection::vec((prop::collection::vec(0..n as u32 + 2, n), 0u32..2), m).prop_map(
            move |rows| {
                rows.into_iter()
                    .map(|(slots, complete)| {
                        let mut keys: Vec<u32> = slots.clone();
                        keys.sort_unstable();
                        keys.dedup();
                        let mut buckets = vec![Vec::new(); keys.len()];
                        for (i, &slot) in slots.iter().enumerate() {
                            if complete == 1 || slot != 0 {
                                let b = keys.binary_search(&slot).unwrap();
                                buckets[b].push(Element(stride * i as u32 + offset));
                            }
                        }
                        buckets.retain(|b| !b.is_empty());
                        Ranking::from_buckets(buckets).expect("distinct ids")
                    })
                    .collect()
            },
        )
    })
}

/// Unification from its definition (§5.1): the sorted union of the
/// supports, every ranking remapped to its index there, then the missing
/// elements appended as one tied bucket.
fn unification_by_definition(raw: &[Ranking]) -> (Vec<Ranking>, Vec<Element>) {
    let mut union: Vec<Element> = raw.iter().flat_map(|r| r.elements()).collect();
    union.sort_unstable();
    union.dedup();
    let dense = |e: Element| Element(union.binary_search(&e).unwrap() as u32);
    let rankings = raw
        .iter()
        .map(|r| {
            let mut buckets: Vec<Vec<Element>> = r
                .buckets()
                .map(|b| b.iter().map(|&e| dense(e)).collect())
                .collect();
            let missing: Vec<Element> = union
                .iter()
                .filter(|&&e| !r.contains(e))
                .map(|&e| dense(e))
                .collect();
            if !missing.is_empty() {
                buckets.push(missing);
            }
            Ranking::from_buckets(buckets).unwrap()
        })
        .collect();
    (rankings, union)
}

fn label_text(raw: &[Ranking]) -> String {
    let mut text = String::from("# generated\n\n");
    for r in raw {
        let buckets: Vec<String> = r
            .buckets()
            .map(|b| {
                let labels: Vec<String> = b.iter().map(|e| format!("e{e}")).collect();
                format!("{{{}}}", labels.join(", "))
            })
            .collect();
        text.push_str(&format!("[{}]\n", buckets.join(",")));
    }
    text
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn unification_matches_its_definition(raw in raw_rankings()) {
        let (want, union) = unification_by_definition(&raw);
        let owned = unify(raw.clone());
        let borrowed = unification(&raw);
        prop_assert_eq!(owned.is_none(), union.is_empty());
        prop_assert_eq!(borrowed.is_none(), union.is_empty());
        let applied = Normalization::Unification.apply_owned(raw.clone());
        for norm in [owned, borrowed, applied].into_iter().flatten() {
            prop_assert_eq!(&norm.mapping, &union);
            prop_assert_eq!(norm.dataset.rankings(), &want[..]);
            for (got, want) in norm.dataset.rankings().iter().zip(&want) {
                prop_assert_eq!(got.positions(), want.positions());
            }
        }
        if let Some(broken) = unification_broken(&raw) {
            for (got, want) in broken.dataset.rankings().iter().zip(&want) {
                let order: Vec<Element> = want.elements().collect();
                prop_assert_eq!(got, &Ranking::permutation(&order).unwrap());
            }
        }
    }

    #[test]
    fn dataset_parse_equals_line_by_line_parse(raw in raw_rankings()) {
        let text = label_text(&raw);
        let mut whole = Universe::new();
        let parsed = parse_dataset_lines(&text, &mut whole).unwrap();
        let mut by_line = Universe::new();
        let lines: Vec<Ranking> = text
            .lines()
            .filter(|l| !l.trim().is_empty() && !l.trim().starts_with('#'))
            .map(|l| parse_ranking_labeled(l, &mut by_line).unwrap())
            .collect();
        prop_assert_eq!(&parsed, &lines);
        prop_assert_eq!(parsed.len(), raw.len());
        let labels = |u: &Universe| u.iter().map(|(e, l)| (e, l.to_owned())).collect::<Vec<_>>();
        prop_assert_eq!(labels(&whole), labels(&by_line));
    }
}
