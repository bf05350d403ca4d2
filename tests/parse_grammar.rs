//! The ranking text grammar (`rank_core::parse`): round trips, label
//! interning, parsing against a frozen universe, dataset files, and the
//! exact error each malformed shape reports.

use rank_aggregation_with_ties::prelude::*;
use rank_aggregation_with_ties::rank_core::parse::{
    parse_dataset_lines, parse_ranking, parse_ranking_against, parse_ranking_labeled, ParseError,
};
use rank_aggregation_with_ties::rank_core::RankingError;

fn syntax(offset: usize, message: &str) -> ParseError {
    ParseError::Syntax {
        offset,
        message: message.to_owned(),
    }
}

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
fn empty_brackets_parse_to_the_empty_ranking() {
    assert_eq!(parse_ranking("[ ]").unwrap().n_elements(), 0);
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
    // Offsets count from the start of the input as given, so trailing
    // whitespace moves those reported past the opening bracket.
    let cases: [(&str, ParseError); 9] = [
        ("{0}", syntax(0, "expected '['")),
        ("[{0}", syntax(4, "expected ']'")),
        ("[{}]", syntax(3, "empty label")),
        ("[{0,}]", syntax(3, "empty label")),
        ("[{0}{1}]", syntax(5, "expected ',' between buckets")),
        ("[{0}{1}]  ", syntax(7, "expected ',' between buckets")),
        ("[{0},{1]", syntax(7, "expected '}'")),
        ("[{0},,{1}]", syntax(6, "expected '{'")),
        ("[{0},{1},]", syntax(10, "expected '{'")),
    ];
    for (text, want) in cases {
        assert_eq!(parse_ranking(text).unwrap_err(), want, "{text:?}");
        let mut u = Universe::new();
        assert_eq!(
            parse_ranking_labeled(text, &mut u).unwrap_err(),
            want,
            "{text:?}"
        );
        assert!(u.is_empty(), "{text:?} interned a label");
        assert_eq!(
            parse_ranking_against(text, &u).unwrap_err(),
            want,
            "{text:?}"
        );
    }
    assert_eq!(
        parse_ranking("[{0}{1}]").unwrap_err().to_string(),
        "syntax error at byte 5: expected ',' between buckets"
    );
    let mut u = Universe::new();
    assert_eq!(
        parse_ranking_labeled("[{A},,{B}]", &mut u).unwrap_err(),
        syntax(6, "expected '{'")
    );
    assert_eq!(
        parse_ranking("[{x}]").unwrap_err(),
        ParseError::BadNumber {
            token: "x".to_owned()
        }
    );
    assert_eq!(
        parse_ranking("[{0},{1,99999999999}]").unwrap_err(),
        ParseError::BadNumber {
            token: "99999999999".to_owned()
        }
    );
    assert_eq!(
        parse_ranking("[{0},{0}]").unwrap_err(),
        ParseError::Invalid(RankingError::DuplicateElement {
            element: Element(0)
        })
    );
}

#[test]
fn duplicate_label_rejected() {
    let mut u = Universe::new();
    assert_eq!(
        parse_ranking_labeled("[{A},{A}]", &mut u).unwrap_err(),
        ParseError::Invalid(RankingError::DuplicateElement {
            element: Element(0)
        })
    );
    assert_eq!(
        parse_ranking_labeled("[{A},{B,A}]", &mut Universe::new())
            .unwrap_err()
            .to_string(),
        "invalid ranking: element 0 appears more than once"
    );
}

#[test]
fn a_syntax_error_after_a_valid_bucket_interns_nothing() {
    let mut u = Universe::new();
    assert_eq!(
        parse_ranking_labeled("[{A},{B}{C}]", &mut u).unwrap_err(),
        syntax(9, "expected ',' between buckets")
    );
    assert!(u.is_empty());
    // In a dataset, the lines before the bad one keep their labels and
    // the bad line adds none.
    let err = parse_dataset_lines("[{A},{B}]\n[{C},{D}\n", &mut u).unwrap_err();
    assert_eq!(err, syntax(8, "expected ']'"));
    let labels: Vec<&str> = u.iter().map(|(_, l)| l).collect();
    assert_eq!(labels, ["A", "B"]);
}
