//! Text format for rankings and datasets.
//!
//! The grammar mirrors the paper's notation:
//!
//! ```text
//! ranking  :=  '[' bucket (',' bucket)* ']'
//! bucket   :=  '{' label (',' label)* '}'
//! ```
//!
//! Labels are either raw numeric ids ([`parse_ranking`]) or arbitrary
//! whitespace-trimmed strings interned into a [`Universe`]
//! ([`parse_ranking_labeled`]). A dataset file is one ranking per non-empty,
//! non-`#`-comment line.

use crate::{Element, Ranking, RankingError, Universe};
use std::collections::HashMap;
use std::fmt;

/// Parse failure.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ParseError {
    /// The input did not follow the `[{..},{..}]` grammar.
    Syntax {
        /// Byte offset of the offending character.
        offset: usize,
        /// What the parser expected there.
        message: String,
    },
    /// A numeric label did not fit in `u32`.
    BadNumber {
        /// The offending token, verbatim.
        token: String,
    },
    /// Structurally invalid ranking (empty/duplicate buckets).
    Invalid(RankingError),
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ParseError::Syntax { offset, message } => {
                write!(f, "syntax error at byte {offset}: {message}")
            }
            ParseError::BadNumber { token } => write!(f, "invalid element id: {token:?}"),
            ParseError::Invalid(e) => write!(f, "invalid ranking: {e}"),
        }
    }
}

impl std::error::Error for ParseError {}

impl From<RankingError> for ParseError {
    fn from(e: RankingError) -> Self {
        ParseError::Invalid(e)
    }
}

/// One line's tokens, as flat scratch reused across the lines of a
/// dataset: every label in order, and the end offset (into `labels`) of
/// each bucket. Tokenizing checks the whole `[{a,b},{c}]` grammar before
/// any label is interpreted, so a line refused for syntax interns nothing.
#[derive(Default)]
struct Tokens<'a> {
    labels: Vec<&'a str>,
    ends: Vec<usize>,
}

impl<'a> Tokens<'a> {
    /// Tokenize `input`, replacing what the scratch held.
    fn tokenize(&mut self, input: &'a str) -> Result<(), ParseError> {
        self.labels.clear();
        self.ends.clear();
        let s = input.trim();
        let err = |offset: usize, message: &str| ParseError::Syntax {
            offset,
            message: message.to_owned(),
        };
        let inner = s
            .strip_prefix('[')
            .ok_or_else(|| err(0, "expected '['"))?
            .strip_suffix(']')
            .ok_or_else(|| err(s.len(), "expected ']'"))?
            .trim();
        if inner.is_empty() {
            return Ok(());
        }
        let mut rest = inner;
        loop {
            let offset = input.len() - rest.len();
            rest = rest
                .trim_start()
                .strip_prefix('{')
                .ok_or_else(|| err(offset, "expected '{'"))?;
            let close = rest
                .find('}')
                .ok_or_else(|| err(input.len() - rest.len(), "expected '}'"))?;
            for label in rest[..close].split(',').map(str::trim) {
                if label.is_empty() {
                    return Err(err(input.len() - rest.len(), "empty label"));
                }
                self.labels.push(label);
            }
            self.ends.push(self.labels.len());
            rest = rest[close + 1..].trim_start();
            if rest.is_empty() {
                return Ok(());
            }
            rest = rest
                .strip_prefix(',')
                .ok_or_else(|| err(input.len() - rest.len(), "expected ',' between buckets"))?;
        }
    }

    /// The tokenized ranking, each label resolved by `element` in order.
    fn ranking(
        &self,
        mut element: impl FnMut(&'a str) -> Result<Element, ParseError>,
    ) -> Result<Ranking, ParseError> {
        let mut buckets = Vec::with_capacity(self.ends.len());
        let mut start = 0;
        for &end in &self.ends {
            let mut bucket = Vec::with_capacity(end - start);
            for &label in &self.labels[start..end] {
                bucket.push(element(label)?);
            }
            buckets.push(bucket);
            start = end;
        }
        Ok(Ranking::from_buckets(buckets)?)
    }

    /// Tokenize `input` and intern its labels into `universe`.
    fn parse_labeled(
        &mut self,
        input: &'a str,
        universe: &mut Universe,
    ) -> Result<Ranking, ParseError> {
        self.tokenize(input)?;
        self.ranking(|label| Ok(universe.intern(label)))
    }
}

/// Parse a ranking with numeric element ids, e.g. `[{0},{1,2}]`.
pub fn parse_ranking(input: &str) -> Result<Ranking, ParseError> {
    let mut tokens = Tokens::default();
    tokens.tokenize(input)?;
    tokens.ranking(|label| {
        let id: u32 = label.parse().map_err(|_| ParseError::BadNumber {
            token: label.to_owned(),
        })?;
        Ok(Element(id))
    })
}

/// Parse a ranking with arbitrary string labels, interning them into
/// `universe`, e.g. `[{A},{B,C}]`.
pub fn parse_ranking_labeled(input: &str, universe: &mut Universe) -> Result<Ranking, ParseError> {
    Tokens::default().parse_labeled(input, universe)
}

/// Parse a labeled ranking against `universe` without changing it. Labels
/// the universe lacks get the ids interning them in order of first
/// appearance would assign, and come back in that order, so a caller can
/// intern them only once it accepts the ranking: the result then equals
/// [`parse_ranking_labeled`]'s.
pub fn parse_ranking_against(
    input: &str,
    universe: &Universe,
) -> Result<(Ranking, Vec<String>), ParseError> {
    let mut tokens = Tokens::default();
    tokens.tokenize(input)?;
    let mut fresh: HashMap<&str, Element> = HashMap::new();
    let mut order: Vec<String> = Vec::new();
    let ranking = tokens.ranking(|label| {
        Ok(match universe.get(label) {
            Some(e) => e,
            None => *fresh.entry(label).or_insert_with(|| {
                order.push(label.to_owned());
                Element((universe.len() + order.len() - 1) as u32)
            }),
        })
    })?;
    Ok((ranking, order))
}

/// Parse a multi-line dataset file: one labeled ranking per line; blank
/// lines and lines starting with `#` are skipped. Returns the raw rankings
/// (possibly over different elements — normalize before aggregating).
pub fn parse_dataset_lines(
    input: &str,
    universe: &mut Universe,
) -> Result<Vec<Ranking>, ParseError> {
    let mut tokens = Tokens::default();
    let mut out = Vec::new();
    for line in input.lines() {
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        out.push(tokens.parse_labeled(line, universe)?);
    }
    Ok(out)
}
