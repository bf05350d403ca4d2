//! Datasets: sets of rankings over the same elements.
//!
//! The paper (§2.2) calls a set of input rankings a *dataset*. All the
//! aggregation algorithms require the rankings to range over exactly the
//! same elements — real data is brought into this form by the normalization
//! processes of §5.1 (projection / unification, implemented in the
//! `datasets` crate).
//!
//! For algorithmic efficiency the elements of a [`Dataset`] must be the
//! dense ids `0..n`; the `datasets` crate remaps arbitrary ids/labels.

use crate::element::Element;
use crate::ranking::Ranking;
use std::fmt;

/// A validated set of `m ≥ 1` rankings over the dense elements `0..n`.
#[derive(Clone, PartialEq, Eq)]
pub struct Dataset {
    rankings: Vec<Ranking>,
    n: usize,
}

/// Validation failure when assembling a [`Dataset`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DatasetError {
    /// At least one ranking is required.
    Empty,
    /// Ranking `index` does not cover exactly the elements `0..n`.
    NotOverSameElements {
        /// Index of the offending ranking within the input.
        index: usize,
    },
}

impl fmt::Display for DatasetError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DatasetError::Empty => write!(f, "a dataset needs at least one ranking"),
            DatasetError::NotOverSameElements { index } => write!(
                f,
                "ranking {index} is not over the same dense element set 0..n \
                 (normalize the raw data first)"
            ),
        }
    }
}

impl std::error::Error for DatasetError {}

impl Dataset {
    /// Validate and build a dataset.
    ///
    /// Every ranking must cover exactly the elements `0..n`, where `n` is
    /// the element count of the first ranking.
    pub fn new(rankings: Vec<Ranking>) -> Result<Self, DatasetError> {
        let n = match rankings.first() {
            None => return Err(DatasetError::Empty),
            Some(r) => r.n_elements(),
        };
        for (i, r) in rankings.iter().enumerate() {
            let dense = r.n_elements() == n
                && r.positions().len() == n
                && (0..n as u32).all(|id| r.contains(Element(id)));
            if !dense {
                return Err(DatasetError::NotOverSameElements { index: i });
            }
        }
        Ok(Dataset { rankings, n })
    }

    /// Number of elements (`n`).
    #[inline]
    pub fn n(&self) -> usize {
        self.n
    }

    /// Number of rankings (`m`).
    #[inline]
    pub fn m(&self) -> usize {
        self.rankings.len()
    }

    /// The `i`-th input ranking.
    #[inline]
    pub fn ranking(&self, i: usize) -> &Ranking {
        &self.rankings[i]
    }

    /// All input rankings.
    #[inline]
    pub fn rankings(&self) -> &[Ranking] {
        &self.rankings
    }

    /// `true` iff every input ranking is a permutation.
    pub fn all_permutations(&self) -> bool {
        self.rankings.iter().all(|r| r.is_permutation())
    }

    /// Check that `r` ranks exactly this dataset's elements — every
    /// algorithm's output must satisfy this.
    pub fn is_complete_ranking(&self, r: &Ranking) -> bool {
        r.n_elements() == self.n && (0..self.n as u32).all(|id| r.contains(Element(id)))
    }

    /// Append a ranking already complete over `0..n` (session edits).
    pub(crate) fn push(&mut self, r: Ranking) {
        debug_assert!(self.is_complete_ranking(&r));
        self.rankings.push(r);
    }

    /// Remove and return ranking `i`; the caller keeps `m ≥ 1`.
    pub(crate) fn remove(&mut self, i: usize) -> Ranking {
        debug_assert!(self.rankings.len() > 1);
        self.rankings.remove(i)
    }

    /// Swap ranking `i` for `r` (complete over `0..n`), returning the old one.
    pub(crate) fn replace(&mut self, i: usize, r: Ranking) -> Ranking {
        debug_assert!(self.is_complete_ranking(&r));
        std::mem::replace(&mut self.rankings[i], r)
    }

    /// Grow the universe to `0..n_new`: every ranking gains the new
    /// elements as one appended tied bucket (§5.1 unification).
    pub(crate) fn grow(&mut self, n_new: usize) {
        let fresh: Vec<Element> = (self.n..n_new).map(|i| Element(i as u32)).collect();
        for r in &mut self.rankings {
            r.append_bucket(fresh.clone());
        }
        self.n = n_new;
    }
}

impl fmt::Debug for Dataset {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "Dataset(n={}, m={})", self.n, self.m())?;
        for r in &self.rankings {
            writeln!(f, "  {r}")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_example_dataset() {
        // §2.2: R = {r1, r2, r3} over {A=0, B=1, C=2, D=3}.
        let data = Dataset::new(vec![
            Ranking::from_slices(&[&[0], &[3], &[1, 2]]).unwrap(),
            Ranking::from_slices(&[&[0], &[1, 2], &[3]]).unwrap(),
            Ranking::from_slices(&[&[3], &[0, 2], &[1]]).unwrap(),
        ])
        .unwrap();
        assert_eq!(data.n(), 4);
        assert_eq!(data.m(), 3);
        assert!(!data.all_permutations());
    }

    #[test]
    fn empty_rejected() {
        assert_eq!(Dataset::new(vec![]).unwrap_err(), DatasetError::Empty);
    }

    #[test]
    fn mismatched_support_rejected() {
        let err = Dataset::new(vec![
            Ranking::from_slices(&[&[0], &[1]]).unwrap(),
            Ranking::from_slices(&[&[0], &[2]]).unwrap(),
        ])
        .unwrap_err();
        assert_eq!(err, DatasetError::NotOverSameElements { index: 1 });
    }

    #[test]
    fn sparse_ids_rejected() {
        // {0, 2} is not dense.
        let err = Dataset::new(vec![Ranking::from_slices(&[&[0], &[2]]).unwrap()]).unwrap_err();
        assert_eq!(err, DatasetError::NotOverSameElements { index: 0 });
    }

    #[test]
    fn size_mismatch_rejected() {
        let err = Dataset::new(vec![
            Ranking::from_slices(&[&[0], &[1]]).unwrap(),
            Ranking::from_slices(&[&[0], &[1], &[2]]).unwrap(),
        ])
        .unwrap_err();
        assert_eq!(err, DatasetError::NotOverSameElements { index: 1 });
    }

    #[test]
    fn completeness_check() {
        let data = Dataset::new(vec![Ranking::from_slices(&[&[0, 1, 2]]).unwrap()]).unwrap();
        assert!(data.is_complete_ranking(&Ranking::from_slices(&[&[2], &[0, 1]]).unwrap()));
        assert!(!data.is_complete_ranking(&Ranking::from_slices(&[&[0], &[1]]).unwrap()));
    }
}
