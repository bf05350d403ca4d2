//! Deterministic fuzzing of the wire JSON decoder (`service::json`), which
//! every tier runs on bytes it did not produce: generated trees survive
//! `Display` → `parse` (and an alternative encoding that uses every escape
//! and surrogate pairs), every truncated prefix of a valid document is an
//! error, byte-level mutations never panic, nesting is bounded by
//! [`MAX_DEPTH`], decoding time is linear in the input, and every error
//! case keeps its exact message and byte offset. The encoders' pinned
//! bytes live here too: every event line kind under every tag, and every
//! dataset edit op.

use proptest::prelude::*;
use proptest::TestRng;
use rand::Rng;
use rank_core::engine::{AlgoSpec, Event, Outcome};
use service::json::{escape, Json, MAX_DEPTH};
use service::proto::{
    event_json, failed_json, resolved_json, tagged_event_json, DatasetOp, EventTag, JobSubmission,
};
use std::collections::BTreeMap;
use std::time::{Duration, Instant};

/// Characters worth escaping or worth not escaping: ASCII, the JSON
/// metacharacters, control bytes, DEL, and two-, three- and four-byte
/// UTF-8 scalars (the last needs a surrogate pair when `\u`-escaped).
const ALPHABET: &str = "aZ0 {}[],:\"\\/\n\r\t\u{0}\u{8}\u{c}\u{1f}\u{7f}éß€中\u{ffff}😀\u{10ffff}";

fn random_string(rng: &mut TestRng) -> String {
    let alphabet: Vec<char> = ALPHABET.chars().collect();
    let len = rng.rng().random_range(0..12usize);
    (0..len)
        .map(|_| alphabet[rng.rng().random_range(0..alphabet.len())])
        .collect()
}

fn random_number(rng: &mut TestRng) -> f64 {
    match rng.rng().random_range(0..4u32) {
        0 => rng.rng().random_range(-1000..1000i32) as f64,
        1 => rng.rng().random_range(-1e6..1e6),
        // Any finite double: `Display` prints the shortest decimal that
        // reads back to the same bits.
        _ => loop {
            let x = f64::from_bits(rng.rng().random::<u64>());
            if x.is_finite() {
                break x;
            }
        },
    }
}

/// A random JSON tree at most `depth` containers deep.
fn random_tree(rng: &mut TestRng, depth: u32) -> Json {
    let kinds = if depth == 0 { 4 } else { 6 };
    match rng.rng().random_range(0..kinds) {
        0 => Json::Null,
        1 => Json::Bool(rng.rng().random_bool(0.5)),
        2 => Json::Num(random_number(rng)),
        3 => Json::Str(random_string(rng)),
        4 => Json::Arr(random_children(rng, depth)),
        _ => Json::Obj(
            random_children(rng, depth)
                .into_iter()
                .map(|value| (random_string(rng), value))
                .collect::<BTreeMap<_, _>>(),
        ),
    }
}

fn random_children(rng: &mut TestRng, depth: u32) -> Vec<Json> {
    let len = rng.rng().random_range(0..5usize);
    (0..len).map(|_| random_tree(rng, depth - 1)).collect()
}

/// A random tree whose root is an array or an object, like every protocol
/// document — so no strict prefix of its text is itself a document.
struct Document;

impl Strategy for Document {
    type Value = Json;

    fn generate(&self, rng: &mut TestRng) -> Json {
        let mut items = random_children(rng, 4);
        if rng.rng().random_bool(0.5) {
            Json::Arr(items)
        } else {
            Json::Obj(
                items
                    .drain(..)
                    .map(|value| (random_string(rng), value))
                    .collect(),
            )
        }
    }
}

/// A random string over [`ALPHABET`] and a JSON string literal for it,
/// each character written by a different rule than [`escape`] where one
/// exists: `\/`, `\b`, `\f`, `\u` escapes of any BMP scalar, surrogate
/// pairs beyond it, raw everything else.
struct EncodedString;

impl Strategy for EncodedString {
    type Value = (String, String);

    fn generate(&self, rng: &mut TestRng) -> (String, String) {
        let s = random_string(rng);
        let mut literal = String::from("\"");
        for c in s.chars() {
            let mode = rng.rng().random_range(0..3u32);
            match c {
                '"' | '\\' if mode == 0 => literal.push_str(&format!("\\u{:04X}", c as u32)),
                '"' | '\\' => literal.push_str(&escape(&c.to_string())),
                '/' if mode == 0 => literal.push_str("\\/"),
                '\u{8}' if mode == 0 => literal.push_str("\\b"),
                '\u{c}' if mode == 0 => literal.push_str("\\f"),
                c if (c as u32) < 0x20 && mode == 1 => literal.push_str(&escape(&c.to_string())),
                c if (c as u32) < 0x20 => literal.push_str(&format!("\\u{:04x}", c as u32)),
                c if mode == 0 => {
                    let mut units = [0u16; 2];
                    for unit in c.encode_utf16(&mut units) {
                        literal.push_str(&format!("\\u{unit:04x}"));
                    }
                }
                c => literal.push(c),
            }
        }
        literal.push('"');
        (s, literal)
    }
}

/// Bytes that steer the decoder into its edge cases when spliced in.
const MUTATION_BYTES: &[u8] =
    b"\"\\[]{}:,u0123456789abcdefABCDEF-+.eEtfnl \n\t\x00\x1f\x7f\xc3\xa9\xf0";

/// The text of a [`Document`] with a few random byte edits (overwrite,
/// insert, delete, duplicate a span), made valid UTF-8 again by lossy
/// decoding.
struct MutatedDocument;

impl Strategy for MutatedDocument {
    type Value = String;

    fn generate(&self, rng: &mut TestRng) -> String {
        let mut bytes = Document.generate(rng).to_string().into_bytes();
        for _ in 0..rng.rng().random_range(1..5u32) {
            let at = rng.rng().random_range(0..=bytes.len());
            let byte = MUTATION_BYTES[rng.rng().random_range(0..MUTATION_BYTES.len())];
            match rng.rng().random_range(0..4u32) {
                0 if at < bytes.len() => bytes[at] = byte,
                1 if at < bytes.len() => {
                    bytes.remove(at);
                }
                2 => {
                    let end = rng.rng().random_range(at..=bytes.len());
                    let span = bytes[at..end].to_vec();
                    bytes.splice(at..at, span);
                }
                _ => bytes.insert(at, byte),
            }
        }
        String::from_utf8_lossy(&bytes).into_owned()
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn display_then_parse_is_the_identity(doc in Document) {
        let text = doc.to_string();
        prop_assert_eq!(Json::parse(&text), Ok(doc), "{}", text);
    }

    #[test]
    fn every_escape_and_surrogate_pair_decodes((s, literal) in EncodedString) {
        prop_assert_eq!(Json::parse(&literal), Ok(Json::Str(s.clone())), "{}", literal);
        let keyed = format!("{{{literal}:[{literal}]}}");
        let expected = Json::Obj([(s.clone(), Json::Arr(vec![Json::Str(s)]))].into());
        prop_assert_eq!(Json::parse(&keyed), Ok(expected), "{}", keyed);
    }

    #[test]
    fn every_truncated_prefix_is_an_error(doc in Document) {
        let text = doc.to_string();
        for (cut, _) in text.char_indices() {
            let prefix = &text[..cut];
            match Json::parse(prefix) {
                Ok(v) => panic!("prefix {prefix:?} of {text:?} parsed as {v}"),
                Err(e) => prop_assert!(e.offset <= prefix.len(), "{e} past the end of {prefix:?}"),
            }
        }
    }

    #[test]
    fn byte_mutations_never_panic(text in MutatedDocument) {
        match Json::parse(&text) {
            // Whatever still parses is a well-formed tree.
            Ok(v) => prop_assert_eq!(Json::parse(&v.to_string()), Ok(v)),
            Err(e) => prop_assert!(e.offset <= text.len(), "{e} past the end of {text:?}"),
        }
    }
}

/// Every error the decoder reports, with its exact message and offset.
#[test]
fn error_messages_and_offsets_are_pinned() {
    let cases: &[(&str, usize, &str)] = &[
        (r#"{"dataset": "abc"#, 16, "unterminated string"),
        (r#"{"a":1"#, 6, "expected ',' or '}' in object"),
        ("[1,2", 4, "expected ',' or ']' in array"),
        (r#""unterminated"#, 13, "unterminated string"),
        (
            r#"{"a":1} extra"#,
            8,
            "trailing characters after the document",
        ),
        (r#"{"a":}"#, 5, "expected a JSON value"),
        ("{a:1}", 1, "expected a string key"),
        ("", 0, "unexpected end of input"),
        ("nul", 0, "expected \"null\""),
        ("tru", 0, "expected \"true\""),
        ("1e999", 0, "malformed number"),
        ("-", 0, "malformed number"),
        ("[1 2]", 3, "expected ',' or ']' in array"),
        (r#"{"a" 1}"#, 5, "expected ':' after key"),
        (r#"{"a":1 "b":2}"#, 7, "expected ',' or '}' in object"),
        (r#""\x""#, 2, "unknown escape"),
        ("\"\\", 2, "unterminated escape"),
        (r#""\u12""#, 2, "expected four hex digits after \\u"),
        (r#""\u12G4""#, 2, "expected four hex digits after \\u"),
        (r#""\uD800""#, 6, "lone high surrogate"),
        (r#""\uD800\u0041""#, 12, "bad low surrogate"),
        (r#""\uDBFF\uFFFF""#, 12, "invalid surrogate pair"),
        (r#""\uD83D\uE000""#, 12, "bad low surrogate"),
        (r#""\uDC00""#, 6, "invalid codepoint"),
        ("\"a\nb\"", 2, "raw control character in string"),
        ("\"\u{1}\"", 1, "raw control character in string"),
        ("\"é\u{7}\"", 3, "raw control character in string"),
        ("[", 1, "unexpected end of input"),
        ("{", 1, "expected a string key"),
        (r#"{"a""#, 4, "expected ':' after key"),
        (r#"{"a":"#, 5, "unexpected end of input"),
        ("[1,]", 3, "expected a JSON value"),
        ("{,}", 1, "expected a string key"),
        ("@", 0, "expected a JSON value"),
        ("é", 0, "expected a JSON value"),
    ];
    for &(input, offset, message) in cases {
        let e = Json::parse(input).expect_err(input);
        assert_eq!(
            (e.message.as_str(), e.offset),
            (message, offset),
            "{input:?}"
        );
    }
}

/// The surrogate-pair edges: the lowest and highest low halves with the
/// lowest and highest high halves decode to the scalars they encode, and
/// `Display` writes each back as the character itself, which parses to
/// the same string.
#[test]
fn surrogate_pair_edges_round_trip() {
    for (literal, c) in [
        (r#""\uD800\uDC00""#, '\u{10000}'),
        (r#""\uD83D\uDE00""#, '😀'),
        (r#""\uD83D\uDFFF""#, '\u{1F7FF}'),
        (r#""\uDBFF\uDFFF""#, '\u{10FFFF}'),
    ] {
        let decoded = Json::parse(literal).expect(literal);
        assert_eq!(decoded, Json::Str(c.to_string()), "{literal}");
        assert_eq!(Json::parse(&decoded.to_string()), Ok(decoded), "{literal}");
    }
}

fn nested(open: &str, close: &str, depth: usize) -> String {
    format!("{}1{}", open.repeat(depth), close.repeat(depth))
}

#[test]
fn nesting_is_bounded_by_max_depth() {
    for (open, close) in [("[", "]"), (r#"{"k":"#, "}")] {
        let deepest = nested(open, close, MAX_DEPTH);
        assert!(
            Json::parse(&deepest).is_ok(),
            "{MAX_DEPTH} levels must parse"
        );
        let e = Json::parse(&nested(open, close, MAX_DEPTH + 1)).expect_err("one level too deep");
        assert_eq!(e.message, format!("nesting deeper than {MAX_DEPTH} levels"));
        assert_eq!(e.offset, MAX_DEPTH * open.len());
    }
    // 20 000 levels would overflow a connection thread's stack.
    let e = Json::parse(&"[".repeat(20_000)).expect_err("nesting bomb");
    assert_eq!(e.offset, MAX_DEPTH);
}

/// A 1 MiB dataset string — the largest body a server accepts — decodes
/// in well under a second even in a debug build. A decoder quadratic in
/// the string's length needs minutes here, on every tier the body crosses.
#[test]
fn a_one_mebibyte_dataset_string_decodes_in_linear_time() {
    let line = "[{é1},{B,C},{中2,😀}]\n";
    let text = line.repeat((1 << 20) / line.len());
    let body = JobSubmission::new(text.as_str()).to_json();
    let started = Instant::now();
    let submission = JobSubmission::from_json(&body).expect("valid submission");
    let took = started.elapsed();
    assert_eq!(submission.dataset, text);
    assert!(took < Duration::from_secs(1), "decoding took {took:?}");
}

/// Every line kind × every tag, byte for byte. The expected strings
/// are the lines the server produced before tags were serialized
/// with the event (they were spliced into the finished line then),
/// so this pins the wire format across that change.
#[test]
fn tagged_event_lines_are_pinned() {
    let events = [
        Event::Started {
            spec: AlgoSpec::parse("BestOf(KwikSort,7)").unwrap(),
            seed: 42,
        },
        Event::Incumbent {
            score: 17,
            gap: None,
            elapsed: Duration::from_micros(1500),
        },
        Event::Incumbent {
            score: 5,
            gap: Some(0),
            elapsed: Duration::from_nanos(250_000_400),
        },
        Event::LowerBound {
            lower_bound: 3,
            gap: Some(2),
            elapsed: Duration::from_nanos(12_345_678_901),
        },
        Event::LowerBound {
            lower_bound: 8,
            gap: None,
            elapsed: Duration::ZERO,
        },
        Event::Finished(Outcome::Optimal),
        Event::Finished(Outcome::Heuristic),
        Event::Finished(Outcome::TimedOut),
        Event::Finished(Outcome::Cancelled),
    ];
    let tags = [
        EventTag::None,
        EventTag::DatasetVersion(3),
        EventTag::Batch {
            spec: "Borda",
            job: 12,
        },
        EventTag::Batch {
            spec: "we\"ird\\spec",
            job: 7,
        },
    ];
    let mut lines = Vec::new();
    for event in &events {
        lines.extend(tags.map(|tag| tagged_event_json(event, tag)));
    }
    lines.extend(tags.map(|tag| resolved_json(&Outcome::Heuristic, 9, tag)));
    lines.extend(tags.map(|tag| failed_json("internal kernel panic", tag)));
    let expected = [
        r#"{"event":"started","spec":"BestOf(KwikSort,7)","seed":42}"#,
        r#"{"event":"started","spec":"BestOf(KwikSort,7)","seed":42,"dataset_version":3}"#,
        r#"{"event":"started","spec":"BestOf(KwikSort,7)","seed":42,"spec":"Borda","job":12}"#,
        r#"{"event":"started","spec":"BestOf(KwikSort,7)","seed":42,"spec":"we\"ird\\spec","job":7}"#,
        r#"{"event":"incumbent","score":17,"gap":null,"elapsed_secs":0.001500}"#,
        r#"{"event":"incumbent","score":17,"gap":null,"elapsed_secs":0.001500,"dataset_version":3}"#,
        r#"{"event":"incumbent","score":17,"gap":null,"elapsed_secs":0.001500,"spec":"Borda","job":12}"#,
        r#"{"event":"incumbent","score":17,"gap":null,"elapsed_secs":0.001500,"spec":"we\"ird\\spec","job":7}"#,
        r#"{"event":"incumbent","score":5,"gap":0,"elapsed_secs":0.250000}"#,
        r#"{"event":"incumbent","score":5,"gap":0,"elapsed_secs":0.250000,"dataset_version":3}"#,
        r#"{"event":"incumbent","score":5,"gap":0,"elapsed_secs":0.250000,"spec":"Borda","job":12}"#,
        r#"{"event":"incumbent","score":5,"gap":0,"elapsed_secs":0.250000,"spec":"we\"ird\\spec","job":7}"#,
        r#"{"event":"lower_bound","lower_bound":3,"gap":2,"elapsed_secs":12.345679}"#,
        r#"{"event":"lower_bound","lower_bound":3,"gap":2,"elapsed_secs":12.345679,"dataset_version":3}"#,
        r#"{"event":"lower_bound","lower_bound":3,"gap":2,"elapsed_secs":12.345679,"spec":"Borda","job":12}"#,
        r#"{"event":"lower_bound","lower_bound":3,"gap":2,"elapsed_secs":12.345679,"spec":"we\"ird\\spec","job":7}"#,
        r#"{"event":"lower_bound","lower_bound":8,"gap":null,"elapsed_secs":0.000000}"#,
        r#"{"event":"lower_bound","lower_bound":8,"gap":null,"elapsed_secs":0.000000,"dataset_version":3}"#,
        r#"{"event":"lower_bound","lower_bound":8,"gap":null,"elapsed_secs":0.000000,"spec":"Borda","job":12}"#,
        r#"{"event":"lower_bound","lower_bound":8,"gap":null,"elapsed_secs":0.000000,"spec":"we\"ird\\spec","job":7}"#,
        r#"{"event":"finished","outcome":"optimal"}"#,
        r#"{"event":"finished","outcome":"optimal","dataset_version":3}"#,
        r#"{"event":"finished","outcome":"optimal","spec":"Borda","job":12}"#,
        r#"{"event":"finished","outcome":"optimal","spec":"we\"ird\\spec","job":7}"#,
        r#"{"event":"finished","outcome":"heuristic"}"#,
        r#"{"event":"finished","outcome":"heuristic","dataset_version":3}"#,
        r#"{"event":"finished","outcome":"heuristic","spec":"Borda","job":12}"#,
        r#"{"event":"finished","outcome":"heuristic","spec":"we\"ird\\spec","job":7}"#,
        r#"{"event":"finished","outcome":"timed out"}"#,
        r#"{"event":"finished","outcome":"timed out","dataset_version":3}"#,
        r#"{"event":"finished","outcome":"timed out","spec":"Borda","job":12}"#,
        r#"{"event":"finished","outcome":"timed out","spec":"we\"ird\\spec","job":7}"#,
        r#"{"event":"finished","outcome":"cancelled"}"#,
        r#"{"event":"finished","outcome":"cancelled","dataset_version":3}"#,
        r#"{"event":"finished","outcome":"cancelled","spec":"Borda","job":12}"#,
        r#"{"event":"finished","outcome":"cancelled","spec":"we\"ird\\spec","job":7}"#,
        r#"{"event":"resolved","outcome":"heuristic","score":9}"#,
        r#"{"event":"resolved","outcome":"heuristic","score":9,"dataset_version":3}"#,
        r#"{"event":"resolved","outcome":"heuristic","score":9,"spec":"Borda","job":12}"#,
        r#"{"event":"resolved","outcome":"heuristic","score":9,"spec":"we\"ird\\spec","job":7}"#,
        r#"{"event":"failed","error":"internal kernel panic"}"#,
        r#"{"event":"failed","error":"internal kernel panic","dataset_version":3}"#,
        r#"{"event":"failed","error":"internal kernel panic","spec":"Borda","job":12}"#,
        r#"{"event":"failed","error":"internal kernel panic","spec":"we\"ird\\spec","job":7}"#,
    ];
    assert_eq!(lines, expected);
    assert_eq!(event_json(&events[0]), expected[0]);
}

/// Every dataset edit op's canonical JSON, byte for byte: journal replay
/// slices these bytes back out of each `ds-edit` record by position, from
/// its first `"op":` key. Each pinned line parses to an op that writes it.
#[test]
fn dataset_op_lines_are_pinned() {
    for line in [
        r#"{"op":"add","ranking":"[{A},{B,C}]"}"#,
        r#"{"op":"remove","index":3}"#,
        r#"{"op":"replace","index":0,"ranking":"[{we\"ird},{back\\slash}]"}"#,
    ] {
        let doc = Json::parse(line).expect("pinned line is JSON");
        let op = DatasetOp::parse(&doc).expect("pinned line is an op");
        assert_eq!(op.to_json(), line);
    }
}
