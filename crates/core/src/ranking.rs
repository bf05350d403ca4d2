//! Rankings with ties (bucket orders).
//!
//! Following §2.2 of the paper, a *ranking with ties* over a set of elements
//! is an ordered sequence of non-empty, disjoint buckets `B₁, …, B_k`;
//! elements inside a bucket are tied, and `x ≺ y` iff `x`'s bucket comes
//! before `y`'s. A permutation is the special case where every bucket has
//! size one.

use crate::element::Element;
use crate::Universe;
use std::fmt;

/// Sentinel in the position table for "element not in this ranking".
const ABSENT: u32 = u32::MAX;

/// A ranking with ties over an arbitrary subset of a universe.
///
/// Internal invariants (enforced by all constructors):
/// * no bucket is empty;
/// * buckets are pairwise disjoint;
/// * elements inside a bucket are stored sorted (canonical form, so `Eq` and
///   `Hash` compare rankings structurally).
#[derive(Clone)]
pub struct Ranking {
    buckets: Vec<Vec<Element>>,
    /// `pos[id]` = bucket index of element `id`, or `ABSENT`.
    pos: Vec<u32>,
    n_elements: usize,
}

/// Constructor-time validation failure.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RankingError {
    /// A bucket with no elements was supplied.
    EmptyBucket {
        /// Index of the empty bucket.
        bucket: usize,
    },
    /// The same element appeared twice (in one bucket or across buckets).
    DuplicateElement {
        /// The repeated element.
        element: Element,
    },
}

impl fmt::Display for RankingError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RankingError::EmptyBucket { bucket } => write!(f, "bucket {bucket} is empty"),
            RankingError::DuplicateElement { element } => {
                write!(f, "element {element} appears more than once")
            }
        }
    }
}

impl std::error::Error for RankingError {}

impl Ranking {
    /// Build a ranking from buckets of elements.
    pub fn from_buckets(buckets: Vec<Vec<Element>>) -> Result<Self, RankingError> {
        let mut max_id = 0u32;
        let mut n_elements = 0usize;
        for (bi, b) in buckets.iter().enumerate() {
            if b.is_empty() {
                return Err(RankingError::EmptyBucket { bucket: bi });
            }
            n_elements += b.len();
            for &e in b {
                max_id = max_id.max(e.0);
            }
        }
        let mut pos = vec![
            ABSENT;
            if n_elements == 0 {
                0
            } else {
                max_id as usize + 1
            }
        ];
        let mut buckets = buckets;
        for (bi, b) in buckets.iter_mut().enumerate() {
            b.sort_unstable();
            for &e in b.iter() {
                if pos[e.index()] != ABSENT {
                    return Err(RankingError::DuplicateElement { element: e });
                }
                pos[e.index()] = bi as u32;
            }
        }
        Ok(Ranking {
            buckets,
            pos,
            n_elements,
        })
    }

    /// Convenience constructor from id slices:
    /// `Ranking::from_slices(&[&[0], &[1, 2]])` = `[{0}, {1, 2}]`.
    pub fn from_slices(buckets: &[&[u32]]) -> Result<Self, RankingError> {
        Ranking::from_buckets(
            buckets
                .iter()
                .map(|b| b.iter().map(|&id| Element(id)).collect())
                .collect(),
        )
    }

    /// A permutation (all singleton buckets) in the given order.
    pub fn permutation(order: &[Element]) -> Result<Self, RankingError> {
        Ranking::from_buckets(order.iter().map(|&e| vec![e]).collect())
    }

    /// All elements tied in one bucket (the degenerate "everything equal"
    /// ranking that motivates the generalized distance, §2.2).
    pub fn single_bucket(elements: Vec<Element>) -> Result<Self, RankingError> {
        Ranking::from_buckets(vec![elements])
    }

    /// Build from a per-element bucket index table: `indices[id]` is the
    /// bucket of element `id`. Bucket indices must cover `0..k` with every
    /// index used at least once.
    pub fn from_bucket_indices(indices: &[u32]) -> Result<Self, RankingError> {
        let k = indices.iter().map(|&b| b + 1).max().unwrap_or(0) as usize;
        let mut buckets: Vec<Vec<Element>> = vec![Vec::new(); k];
        for (id, &b) in indices.iter().enumerate() {
            buckets[b as usize].push(Element(id as u32));
        }
        Ranking::from_buckets(buckets)
    }

    /// Number of elements ranked.
    #[inline]
    pub fn n_elements(&self) -> usize {
        self.n_elements
    }

    /// Number of buckets.
    #[inline]
    pub fn n_buckets(&self) -> usize {
        self.buckets.len()
    }

    /// The `i`-th bucket (elements sorted by id).
    #[inline]
    pub fn bucket(&self, i: usize) -> &[Element] {
        &self.buckets[i]
    }

    /// Iterate buckets in rank order.
    pub fn buckets(&self) -> impl Iterator<Item = &[Element]> {
        self.buckets.iter().map(|b| b.as_slice())
    }

    /// The bucket index of `e`, or `None` if `e` is not ranked.
    #[inline]
    pub fn bucket_of(&self, e: Element) -> Option<usize> {
        match self.pos.get(e.index()) {
            Some(&p) if p != ABSENT => Some(p as usize),
            _ => None,
        }
    }

    /// `true` iff `e` is ranked.
    #[inline]
    pub fn contains(&self, e: Element) -> bool {
        self.bucket_of(e).is_some()
    }

    /// Raw position table: `positions()[id]` is the bucket index of element
    /// `id`, or `u32::MAX` when the element is absent. The table's length is
    /// only `max_id + 1` — index with care.
    #[inline]
    pub fn positions(&self) -> &[u32] {
        &self.pos
    }

    /// Iterate all ranked elements, best bucket first (id order inside
    /// buckets).
    pub fn elements(&self) -> impl Iterator<Item = Element> + '_ {
        self.buckets.iter().flatten().copied()
    }

    /// Sorted list of ranked elements.
    pub fn support(&self) -> Vec<Element> {
        let mut v: Vec<Element> = self.elements().collect();
        v.sort_unstable();
        v
    }

    /// `true` iff every bucket has exactly one element.
    pub fn is_permutation(&self) -> bool {
        self.buckets.iter().all(|b| b.len() == 1)
    }

    /// Largest bucket size (1 for a permutation).
    pub fn max_bucket_size(&self) -> usize {
        self.buckets.iter().map(|b| b.len()).max().unwrap_or(0)
    }

    /// The ranking with bucket order reversed.
    pub fn reversed(&self) -> Ranking {
        let buckets: Vec<Vec<Element>> = self.buckets.iter().rev().cloned().collect();
        Ranking::from_buckets(buckets).expect("reversal preserves validity")
    }

    /// Append `bucket` (elements this ranking does not rank) as a final
    /// tied bucket, in place: only the new elements' positions are written.
    ///
    /// # Panics
    /// Panics if `bucket` is empty or repeats an element.
    pub(crate) fn append_bucket(&mut self, mut bucket: Vec<Element>) {
        assert!(!bucket.is_empty(), "appended bucket is empty");
        bucket.sort_unstable();
        let last = bucket[bucket.len() - 1].index();
        if self.pos.len() <= last {
            self.pos.resize(last + 1, ABSENT);
        }
        let index = self.buckets.len() as u32;
        for &e in &bucket {
            assert_eq!(self.pos[e.index()], ABSENT, "{e} is already ranked");
            self.pos[e.index()] = index;
        }
        self.n_elements += bucket.len();
        self.buckets.push(bucket);
    }

    /// Apply `f` to every element id (e.g. to remap into a dense universe).
    ///
    /// # Panics
    /// Panics (returns the constructor error) if `f` maps two elements to
    /// the same id.
    pub fn map_elements(
        &self,
        mut f: impl FnMut(Element) -> Element,
    ) -> Result<Ranking, RankingError> {
        Ranking::from_buckets(
            self.buckets
                .iter()
                .map(|b| b.iter().map(|&e| f(e)).collect())
                .collect(),
        )
    }

    /// Render with labels from `universe`, e.g. `[{A},{B,C}]`.
    pub fn display_with(&self, universe: &Universe) -> String {
        let mut s = String::from("[");
        for (i, b) in self.buckets.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            s.push('{');
            for (j, &e) in b.iter().enumerate() {
                if j > 0 {
                    s.push(',');
                }
                s.push_str(universe.name(e));
            }
            s.push('}');
        }
        s.push(']');
        s
    }
}

impl PartialEq for Ranking {
    fn eq(&self, other: &Self) -> bool {
        self.buckets == other.buckets
    }
}

impl Eq for Ranking {}

impl std::hash::Hash for Ranking {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        self.buckets.hash(state);
    }
}

impl fmt::Debug for Ranking {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{self}")
    }
}

impl fmt::Display for Ranking {
    /// Numeric-id rendering, e.g. `[{0},{1,2}]`. Parse back with
    /// [`crate::parse::parse_ranking`].
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[")?;
        for (i, b) in self.buckets.iter().enumerate() {
            if i > 0 {
                write!(f, ",")?;
            }
            write!(f, "{{")?;
            for (j, e) in b.iter().enumerate() {
                if j > 0 {
                    write!(f, ",")?;
                }
                write!(f, "{e}")?;
            }
            write!(f, "}}")?;
        }
        write!(f, "]")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn from_slices_and_accessors() {
        let r = Ranking::from_slices(&[&[0], &[2, 1], &[3]]).unwrap();
        assert_eq!(r.n_elements(), 4);
        assert_eq!(r.n_buckets(), 3);
        assert_eq!(r.bucket(1), &[Element(1), Element(2)]); // canonical order
        assert_eq!(r.bucket_of(Element(3)), Some(2));
        assert_eq!(r.bucket_of(Element(9)), None);
        assert!(r.contains(Element(0)));
        assert!(!r.is_permutation());
        assert_eq!(r.max_bucket_size(), 2);
    }

    #[test]
    fn empty_bucket_rejected() {
        let err = Ranking::from_slices(&[&[0], &[]]).unwrap_err();
        assert_eq!(err, RankingError::EmptyBucket { bucket: 1 });
    }

    #[test]
    fn duplicate_rejected_within_and_across_buckets() {
        assert_eq!(
            Ranking::from_slices(&[&[0, 0]]).unwrap_err(),
            RankingError::DuplicateElement {
                element: Element(0)
            }
        );
        assert_eq!(
            Ranking::from_slices(&[&[0], &[1, 0]]).unwrap_err(),
            RankingError::DuplicateElement {
                element: Element(0)
            }
        );
    }

    #[test]
    fn equality_is_canonical() {
        let a = Ranking::from_slices(&[&[2, 1], &[0]]).unwrap();
        let b = Ranking::from_slices(&[&[1, 2], &[0]]).unwrap();
        let c = Ranking::from_slices(&[&[1], &[2], &[0]]).unwrap();
        assert_eq!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    fn permutation_and_single_bucket() {
        let p = Ranking::permutation(&[Element(2), Element(0), Element(1)]).unwrap();
        assert!(p.is_permutation());
        assert_eq!(p.bucket_of(Element(2)), Some(0));
        let s = Ranking::single_bucket(vec![Element(0), Element(1)]).unwrap();
        assert_eq!(s.n_buckets(), 1);
    }

    #[test]
    fn from_bucket_indices_roundtrip() {
        let r = Ranking::from_slices(&[&[1], &[0, 3], &[2]]).unwrap();
        let indices: Vec<u32> = (0..4)
            .map(|id| r.bucket_of(Element(id)).unwrap() as u32)
            .collect();
        let r2 = Ranking::from_bucket_indices(&indices).unwrap();
        assert_eq!(r, r2);
    }

    #[test]
    fn reversed() {
        let r = Ranking::from_slices(&[&[0], &[1, 2], &[3]]).unwrap();
        let rev = r.reversed();
        assert_eq!(rev, Ranking::from_slices(&[&[3], &[1, 2], &[0]]).unwrap());
        assert_eq!(rev.reversed(), r);
    }

    #[test]
    fn display_numeric() {
        let r = Ranking::from_slices(&[&[0], &[2, 1]]).unwrap();
        assert_eq!(r.to_string(), "[{0},{1,2}]");
    }

    #[test]
    fn display_with_universe() {
        let mut u = Universe::new();
        let a = u.intern("A");
        let b = u.intern("B");
        let r = Ranking::from_buckets(vec![vec![b], vec![a]]).unwrap();
        assert_eq!(r.display_with(&u), "[{B},{A}]");
    }

    #[test]
    fn map_elements_remaps() {
        let r = Ranking::from_slices(&[&[10], &[20, 30]]).unwrap();
        let dense = r.map_elements(|e| Element(e.0 / 10 - 1)).unwrap();
        assert_eq!(dense, Ranking::from_slices(&[&[0], &[1, 2]]).unwrap());
        // Collision detection:
        assert!(r.map_elements(|_| Element(0)).is_err());
    }

    #[test]
    fn elements_iterates_rank_order() {
        let r = Ranking::from_slices(&[&[3], &[0, 2], &[1]]).unwrap();
        let order: Vec<u32> = r.elements().map(|e| e.0).collect();
        assert_eq!(order, vec![3, 0, 2, 1]);
        assert_eq!(
            r.support(),
            vec![Element(0), Element(1), Element(2), Element(3)]
        );
    }

    #[test]
    fn sparse_ids_supported() {
        let r = Ranking::from_slices(&[&[100], &[5]]).unwrap();
        assert_eq!(r.bucket_of(Element(100)), Some(0));
        assert_eq!(r.bucket_of(Element(50)), None);
        assert_eq!(r.n_elements(), 2);
    }
}
