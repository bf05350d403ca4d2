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

/// Split `[{a,b},{c}]` into label buckets without interpreting labels.
fn tokenize(input: &str) -> Result<Vec<Vec<&str>>, ParseError> {
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
    let mut buckets = Vec::new();
    if inner.is_empty() {
        return Ok(buckets);
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
        let body = &rest[..close];
        let labels: Vec<&str> = body.split(',').map(str::trim).collect();
        if labels.iter().any(|l| l.is_empty()) {
            return Err(err(input.len() - rest.len(), "empty label"));
        }
        buckets.push(labels);
        rest = rest[close + 1..].trim_start();
        if rest.is_empty() {
            return Ok(buckets);
        }
        rest = rest
            .strip_prefix(',')
            .ok_or_else(|| err(input.len() - rest.len(), "expected ',' between buckets"))?;
    }
}

/// Parse a ranking with numeric element ids, e.g. `[{0},{1,2}]`.
pub fn parse_ranking(input: &str) -> Result<Ranking, ParseError> {
    let buckets = tokenize(input)?;
    let mut out: Vec<Vec<Element>> = Vec::with_capacity(buckets.len());
    for b in buckets {
        let mut bucket = Vec::with_capacity(b.len());
        for label in b {
            let id: u32 = label.parse().map_err(|_| ParseError::BadNumber {
                token: label.to_owned(),
            })?;
            bucket.push(Element(id));
        }
        out.push(bucket);
    }
    Ok(Ranking::from_buckets(out)?)
}

/// Parse a ranking with arbitrary string labels, interning them into
/// `universe`, e.g. `[{A},{B,C}]`.
pub fn parse_ranking_labeled(input: &str, universe: &mut Universe) -> Result<Ranking, ParseError> {
    let buckets = tokenize(input)?;
    let out: Vec<Vec<Element>> = buckets
        .into_iter()
        .map(|b| b.into_iter().map(|l| universe.intern(l)).collect())
        .collect();
    Ok(Ranking::from_buckets(out)?)
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
    let buckets = tokenize(input)?;
    let mut fresh: HashMap<&str, Element> = HashMap::new();
    let mut order: Vec<String> = Vec::new();
    let out: Vec<Vec<Element>> = buckets
        .into_iter()
        .map(|b| {
            b.into_iter()
                .map(|l| match universe.get(l) {
                    Some(e) => e,
                    None => *fresh.entry(l).or_insert_with(|| {
                        order.push(l.to_owned());
                        Element((universe.len() + order.len() - 1) as u32)
                    }),
                })
                .collect()
        })
        .collect();
    Ok((Ranking::from_buckets(out)?, order))
}

/// Parse a multi-line dataset file: one labeled ranking per line; blank
/// lines and lines starting with `#` are skipped. Returns the raw rankings
/// (possibly over different elements — normalize before aggregating).
pub fn parse_dataset_lines(
    input: &str,
    universe: &mut Universe,
) -> Result<Vec<Ranking>, ParseError> {
    let mut out = Vec::new();
    for line in input.lines() {
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        out.push(parse_ranking_labeled(line, universe)?);
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_numeric() {
        for text in ["[{0}]", "[{0},{1,2}]", "[{3},{0,2},{1}]"] {
            let r = parse_ranking(text).unwrap();
            assert_eq!(r.to_string(), text);
        }
    }

    #[test]
    fn whitespace_tolerated() {
        let r = parse_ranking("  [ {0} , { 2 , 1 } ]  ").unwrap();
        assert_eq!(r.to_string(), "[{0},{1,2}]");
    }

    #[test]
    fn labeled_parse_interns() {
        let mut u = Universe::new();
        let r = parse_ranking_labeled("[{A},{B,C}]", &mut u).unwrap();
        assert_eq!(u.len(), 3);
        assert_eq!(r.display_with(&u), "[{A},{B,C}]");
    }

    #[test]
    fn parsing_against_a_universe_leaves_it_unchanged() {
        let mut u = Universe::new();
        parse_ranking_labeled("[{A},{B}]", &mut u).unwrap();
        let text = "[{C},{B,D},{A,C}]";
        // A duplicate label is refused without touching the universe.
        assert!(parse_ranking_against(text, &u).is_err());
        let text = "[{C},{B,D},{A}]";
        let (r, fresh) = parse_ranking_against(text, &u).unwrap();
        assert_eq!(u.len(), 2);
        assert_eq!(fresh, ["C", "D"]);
        let mut interned = u.clone();
        assert_eq!(parse_ranking_labeled(text, &mut interned).unwrap(), r);
        for label in &fresh {
            u.intern(label);
        }
        assert_eq!(r.display_with(&u), text);
    }

    #[test]
    fn paper_table3_raw_dataset_parses() {
        // Table 3's raw dataset d_r.
        let mut u = Universe::new();
        let rankings = parse_dataset_lines(
            "# raw dataset dr\n\
             [{A},{D},{B}]\n\
             \n\
             [{B},{E,A}]\n\
             [{D},{A,B},{C}]\n",
            &mut u,
        )
        .unwrap();
        assert_eq!(rankings.len(), 3);
        assert_eq!(u.len(), 5);
        assert_eq!(rankings[1].n_elements(), 3);
    }

    #[test]
    fn syntax_errors_reported() {
        assert!(matches!(
            parse_ranking("{0}"),
            Err(ParseError::Syntax { .. })
        ));
        assert!(matches!(
            parse_ranking("[{0}"),
            Err(ParseError::Syntax { .. })
        ));
        assert!(matches!(
            parse_ranking("[{}]"),
            Err(ParseError::Syntax { .. })
        ));
        assert!(matches!(
            parse_ranking("[{0}{1}]"),
            Err(ParseError::Syntax { .. })
        ));
        assert!(matches!(
            parse_ranking("[{x}]"),
            Err(ParseError::BadNumber { .. })
        ));
        assert!(matches!(
            parse_ranking("[{0},{0}]"),
            Err(ParseError::Invalid(_))
        ));
    }

    #[test]
    fn duplicate_label_rejected() {
        let mut u = Universe::new();
        assert!(matches!(
            parse_ranking_labeled("[{A},{A}]", &mut u),
            Err(ParseError::Invalid(_))
        ));
    }
}
