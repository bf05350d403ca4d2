//! Typed algorithm specifications and the constructor registry.
//!
//! An [`AlgoSpec`] is the serving-side name of an algorithm: a small typed
//! value (`AlgoSpec::BestOf { base, runs }`, `AlgoSpec::MedRank(0.7)`)
//! whose [`Display`](std::fmt::Display) form (`"BestOf(KwikSort,20)"`,
//! `"MedRank(0.7)"`, `"Exact"`) parses back to the same value —
//! [`AlgoSpec::parse`] ∘ `to_string` is the identity over every
//! registered algorithm (see DESIGN.md §8.1).
//!
//! Parsing is case-insensitive and alias-aware (`"bordacount"`,
//! `"MEDRank(0.5)"`, `"kwiksortmin"` all resolve), and unknown names
//! produce a [`SpecParseError`] carrying a "did you mean" suggestion
//! computed by edit distance over the whole registry.
//!
//! The hard-coded panels of earlier revisions survive as thin presets over
//! the registry: [`paper_panel`], [`extended_panel`], [`full_panel`].

use crate::algorithms::{
    ailon, bioconsert, bnb, borda, chanas, copeland, exact, fagin, kwiksort, mc4, medrank,
    pick_a_perm, repeat_choice, BestOf, ConsensusAlgorithm,
};
use std::fmt;
use std::str::FromStr;

/// Default repeat count for the paper's "Min" multi-start variants when a
/// preset or alias does not specify one (the harness default).
pub const DEFAULT_MIN_RUNS: usize = 20;

/// The largest repeat count [`AlgoSpec::parse`] accepts for `BestOf`.
/// A run plans all its repeats up front, so an unchecked count from the
/// wire (`BestOf(Borda,2000000000)`) would ask for gigabytes before the
/// first repeat; 100 000 is 100× the largest count the repository's own
/// runs use (`BestOf(BioConsert,1000)`).
pub const MAX_BEST_OF_RUNS: usize = 100_000;

/// How a built algorithm may use the machine's threads.
///
/// `Parallel` lets multi-start members (BioConsert, [`AlgoSpec::BestOf`])
/// fan repeats out to worker threads; `Sequential` pins them to one
/// thread. The two policies are bit-identical in deadline-free runs (the
/// PR-1 determinism contract), so `Sequential` exists for timing
/// experiments and reproducibility tests, not for different results.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Threading {
    /// Multi-start members may use the parallel worker substrate.
    #[default]
    Parallel,
    /// Pin every member to the sequential path (host-independent seconds).
    Sequential,
}

/// Which pairwise-cost substrate the engine should run a request on.
///
/// `Auto` materializes the dense [`crate::CostMatrix`] while its 8n² bytes
/// fit [`DENSE_LANE_BUDGET_BYTES`] and switches to the matrix-free
/// positional lane beyond that — but only for specs that support it
/// ([`AlgoSpec::supports_matrix_free`]); the rest always run dense. The
/// explicit variants override the budget in either direction (a
/// `MatrixFree` request on an unsupported spec still falls back to dense,
/// and the report's `lane` field records what actually ran).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum LanePolicy {
    /// Dense while 8n² fits the budget, matrix-free beyond (default).
    #[default]
    Auto,
    /// Always materialize the dense cost matrix.
    Dense,
    /// Skip the matrix wherever the spec's kernel allows it.
    MatrixFree,
}

/// The pairwise-cost substrate a request actually ran on — resolved from
/// [`LanePolicy`] by the engine and recorded in
/// [`super::ConsensusReport::lane`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum KernelLane {
    /// The dense 8n²-byte [`crate::CostMatrix`] was materialized.
    #[default]
    Dense,
    /// The O(m·n) positional lane ran; no matrix was built.
    MatrixFree,
}

impl KernelLane {
    /// Stable lower-snake label (`"dense"` / `"matrix_free"`) used by
    /// `report_json` and the `rawt_kernel_lane_total{lane}` counter.
    pub fn as_str(self) -> &'static str {
        match self {
            KernelLane::Dense => "dense",
            KernelLane::MatrixFree => "matrix_free",
        }
    }
}

impl fmt::Display for KernelLane {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// Memory budget (bytes) for the dense lane under [`LanePolicy::Auto`]:
/// when the packed cost matrix would exceed this (8n² > budget, i.e.
/// n > 5792), supported specs switch to the matrix-free lane. 256 MiB
/// keeps every workload the paper measured (n ≤ 250) — and everything up
/// into the low thousands — on the bit-for-bit battle-tested dense path.
pub const DENSE_LANE_BUDGET_BYTES: usize = 256 << 20;

impl LanePolicy {
    /// Resolve the policy against a concrete spec and problem size.
    /// `pinned_dense` forces the dense lane regardless of policy (set when
    /// the request carries a pre-built cost matrix).
    pub fn resolve(self, spec: &AlgoSpec, n: usize, pinned_dense: bool) -> KernelLane {
        if pinned_dense || !spec.supports_matrix_free() {
            return KernelLane::Dense;
        }
        match self {
            LanePolicy::Dense => KernelLane::Dense,
            LanePolicy::MatrixFree => KernelLane::MatrixFree,
            LanePolicy::Auto => {
                // 8n² bytes of packed matrix; saturate so absurd n can't wrap.
                let dense_bytes = n.saturating_mul(n).saturating_mul(8);
                if dense_bytes > DENSE_LANE_BUDGET_BYTES {
                    KernelLane::MatrixFree
                } else {
                    KernelLane::Dense
                }
            }
        }
    }
}

/// How a built algorithm may use the machine: threading substrate plus
/// pairwise-cost lane.
///
/// The former `Parallel`/`Sequential` enum grew a second axis in PR 10;
/// `ExecPolicy::parallel()` / `ExecPolicy::sequential()` reproduce the old
/// variants (with the default `Auto` lane), and `with_lane` sets the lane.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ExecPolicy {
    /// Thread-use policy for multi-start members.
    pub threading: Threading,
    /// Pairwise-cost substrate selection.
    pub lane: LanePolicy,
}

impl ExecPolicy {
    /// The default policy: parallel threading, `Auto` lane.
    pub fn parallel() -> Self {
        ExecPolicy {
            threading: Threading::Parallel,
            lane: LanePolicy::Auto,
        }
    }

    /// Sequential threading (host-independent seconds), `Auto` lane.
    pub fn sequential() -> Self {
        ExecPolicy {
            threading: Threading::Sequential,
            lane: LanePolicy::Auto,
        }
    }

    /// This policy with the lane replaced.
    pub fn with_lane(self, lane: LanePolicy) -> Self {
        ExecPolicy { lane, ..self }
    }
}

/// A typed, parse/display round-trippable algorithm specification.
///
/// This is the unit of the engine's request API: requests carry an
/// `AlgoSpec`, reports echo it back, and [`AlgoSpec::build`] instantiates
/// the actual [`ConsensusAlgorithm`] kernel on demand.
#[derive(Debug, Clone, PartialEq)]
pub enum AlgoSpec {
    /// Ailon's 3/2-approximation (LP + rounding) — paper "Ailon3/2".
    Ailon,
    /// BioConsert local search.
    BioConsert,
    /// Borda count — paper "BordaCount".
    Borda,
    /// Copeland's method (positional adaptation) — paper "CopelandMethod".
    Copeland,
    /// Classic pairwise Copeland (extension).
    CopelandPairwise,
    /// FaginDyn dynamic program, large-bucket variant.
    FaginLarge,
    /// FaginDyn dynamic program, small-bucket variant.
    FaginSmall,
    /// KwikSort with the 3-way pivot adaptation.
    KwikSort,
    /// MEDRank with threshold `h` — `MedRank(0.7)`.
    MedRank(f64),
    /// Pick-a-Perm (best input ranking).
    PickAPerm,
    /// RepeatChoice.
    RepeatChoice,
    /// Chanas local search (extension).
    Chanas,
    /// Chanas run in both directions (extension).
    ChanasBoth,
    /// Permutation-only branch and bound, optionally beam-limited
    /// (extension) — `BnB` or `BnB(64)`.
    BnB {
        /// Beam width cap; `None` explores the full tree.
        beam: Option<usize>,
    },
    /// MC4 Markov-chain hybrid (extension).
    Mc4,
    /// The exact solver (branch and bound over bucket orders, §4.2).
    Exact,
    /// Run `base` `runs` times and keep the best result by Kemeny score —
    /// the paper's "Min" variants are `BestOf(KwikSort,20)` and
    /// `BestOf(RepeatChoice,20)`.
    BestOf {
        /// The wrapped specification.
        base: Box<AlgoSpec>,
        /// Repeat count (≥ 1).
        runs: usize,
    },
}

/// What went wrong while parsing an [`AlgoSpec`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SpecErrorKind {
    /// The name does not resolve to any registered algorithm.
    UnknownName,
    /// The algorithm is registered but its arguments are malformed.
    InvalidArguments,
}

/// Failure to parse an [`AlgoSpec`], with a registry-wide "did you mean"
/// suggestion when the name is unknown and some known name is close.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpecParseError {
    /// The offending input.
    pub input: String,
    /// What went wrong.
    pub message: String,
    /// Unknown name vs. bad arguments to a known one.
    pub kind: SpecErrorKind,
    /// Closest registered name, if the name is unknown and some
    /// registered spelling is within edit distance 3.
    pub suggestion: Option<String>,
}

impl fmt::Display for SpecParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.kind {
            SpecErrorKind::UnknownName => {
                write!(f, "unknown algorithm {:?}: {}", self.input, self.message)?
            }
            SpecErrorKind::InvalidArguments => write!(
                f,
                "invalid algorithm spec {:?}: {}",
                self.input, self.message
            )?,
        }
        if let Some(s) = &self.suggestion {
            write!(f, " (did you mean {s:?}?)")?;
        }
        Ok(())
    }
}

impl std::error::Error for SpecParseError {}

/// One registry row: a constructible algorithm family with its canonical
/// spelling, accepted aliases, and Table 1 metadata.
pub struct AlgoEntry {
    /// Canonical spec spelling ([`AlgoSpec`]'s `Display` head).
    pub canonical: &'static str,
    /// Case-insensitively accepted alternative spellings (paper names,
    /// shorthands). Parameterized entries list alias *heads*.
    pub aliases: &'static [&'static str],
    /// Paper Table 1 class tag.
    pub class: &'static str,
    /// One-line description for `rawt list`.
    pub summary: &'static str,
    /// Representative spec (used by `rawt list` examples and the
    /// round-trip tests).
    pub example: fn() -> AlgoSpec,
}

/// The constructor registry: every algorithm family the workspace ships,
/// including extensions and the exact solver.
pub fn registry() -> &'static [AlgoEntry] {
    &[
        AlgoEntry {
            canonical: "Ailon",
            aliases: &["Ailon3/2", "AilonThreeHalves"],
            class: "[K] linear programming",
            summary: "Ailon's 3/2-approximation: LP relaxation plus rounding",
            example: || AlgoSpec::Ailon,
        },
        AlgoEntry {
            canonical: "BioConsert",
            aliases: &[],
            class: "[G] local search",
            summary: "steepest-descent local search from every input ranking",
            example: || AlgoSpec::BioConsert,
        },
        AlgoEntry {
            canonical: "Borda",
            aliases: &["BordaCount"],
            class: "[P] sort by score",
            summary: "sort by mean position, ties for equal scores",
            example: || AlgoSpec::Borda,
        },
        AlgoEntry {
            canonical: "Copeland",
            aliases: &["CopelandMethod"],
            class: "[P] sort by score",
            summary: "sort by pairwise wins minus losses",
            example: || AlgoSpec::Copeland,
        },
        AlgoEntry {
            canonical: "CopelandPairwise",
            aliases: &[],
            class: "[P] extension",
            summary: "classic pairwise Copeland (extension)",
            example: || AlgoSpec::CopelandPairwise,
        },
        AlgoEntry {
            canonical: "FaginLarge",
            aliases: &[],
            class: "[G] dynamic programming",
            summary: "FaginDyn bucket-order DP, prefers large buckets",
            example: || AlgoSpec::FaginLarge,
        },
        AlgoEntry {
            canonical: "FaginSmall",
            aliases: &[],
            class: "[G] dynamic programming",
            summary: "FaginDyn bucket-order DP, prefers small buckets",
            example: || AlgoSpec::FaginSmall,
        },
        AlgoEntry {
            canonical: "KwikSort",
            aliases: &[],
            class: "[K] divide & conquer",
            summary: "randomized quicksort with a 3-way (tie) pivot",
            example: || AlgoSpec::KwikSort,
        },
        AlgoEntry {
            canonical: "MedRank",
            aliases: &["MEDRank"],
            class: "[P] extract order",
            summary: "median-rank extraction at threshold h: MedRank(0.5)",
            example: || AlgoSpec::MedRank(0.5),
        },
        AlgoEntry {
            canonical: "PickAPerm",
            aliases: &["Pick-a-Perm"],
            class: "[K] naive",
            summary: "return the best-scoring input ranking",
            example: || AlgoSpec::PickAPerm,
        },
        AlgoEntry {
            canonical: "RepeatChoice",
            aliases: &[],
            class: "[K] sort by order",
            summary: "repeatedly pick a pivot ranking's next bucket",
            example: || AlgoSpec::RepeatChoice,
        },
        AlgoEntry {
            canonical: "Chanas",
            aliases: &[],
            class: "[K] local search",
            summary: "Chanas insertion-sort local search (extension)",
            example: || AlgoSpec::Chanas,
        },
        AlgoEntry {
            canonical: "ChanasBoth",
            aliases: &[],
            class: "[K] local search",
            summary: "Chanas run in both scan directions (extension)",
            example: || AlgoSpec::ChanasBoth,
        },
        AlgoEntry {
            canonical: "BnB",
            aliases: &["BranchAndBound"],
            class: "[K] branch & bound",
            summary: "permutation-only branch and bound; BnB(64) beam-limits it",
            example: || AlgoSpec::BnB { beam: None },
        },
        AlgoEntry {
            canonical: "MC4",
            aliases: &[],
            class: "[P] hybrid",
            summary: "MC4 Markov-chain stationary-distribution hybrid (extension)",
            example: || AlgoSpec::Mc4,
        },
        AlgoEntry {
            canonical: "Exact",
            aliases: &["ExactAlgorithm", "ExactSolution"],
            class: "exact (§4.2)",
            summary: "branch and bound over bucket orders; proves optimality",
            example: || AlgoSpec::Exact,
        },
        AlgoEntry {
            canonical: "BestOf",
            aliases: &["KwikSortMin", "RepeatChoiceMin"],
            class: "[K] wrapper",
            summary: "best of N repeats of a randomized base: BestOf(KwikSort,20)",
            example: || AlgoSpec::BestOf {
                base: Box::new(AlgoSpec::KwikSort),
                runs: DEFAULT_MIN_RUNS,
            },
        },
    ]
}

/// Lowercase and strip separators so `"Pick-a-Perm"`, `"pickaperm"` and
/// `"PICK_A_PERM"` all normalize identically.
fn normalize(name: &str) -> String {
    name.chars()
        .filter(|c| !matches!(c, '-' | '_' | '/' | ' '))
        .flat_map(char::to_lowercase)
        .collect()
}

/// Levenshtein edit distance (suggestion machinery only — inputs are short).
fn edit_distance(a: &str, b: &str) -> usize {
    let a: Vec<char> = a.chars().collect();
    let b: Vec<char> = b.chars().collect();
    let mut prev: Vec<usize> = (0..=b.len()).collect();
    for (i, &ca) in a.iter().enumerate() {
        let mut cur = vec![i + 1];
        for (j, &cb) in b.iter().enumerate() {
            let sub = prev[j] + usize::from(ca != cb);
            cur.push(sub.min(prev[j + 1] + 1).min(cur[j] + 1));
        }
        prev = cur;
    }
    prev[b.len()]
}

/// Closest registered spelling to `name` within edit distance 3, for the
/// "did you mean" diagnostics.
pub fn suggest(name: &str) -> Option<String> {
    let norm = normalize(name);
    let head = norm.split('(').next().unwrap_or(&norm);
    registry()
        .iter()
        .flat_map(|e| std::iter::once(e.canonical).chain(e.aliases.iter().copied()))
        .map(|cand| (edit_distance(head, &normalize(cand)), cand))
        .filter(|&(d, _)| d <= 3)
        .min_by_key(|&(d, _)| d)
        .map(|(_, cand)| cand.to_owned())
}

impl AlgoSpec {
    /// Parse a specification string, case-insensitively, accepting every
    /// registered alias. See the module docs for the grammar.
    pub fn parse(input: &str) -> Result<AlgoSpec, SpecParseError> {
        // Argument/shape problems on a *recognized* head: no suggestion —
        // pointing at the name the user already typed would misdirect.
        let err = |message: String| SpecParseError {
            input: input.to_owned(),
            message,
            kind: SpecErrorKind::InvalidArguments,
            suggestion: None,
        };
        let s = input.trim();
        if s.is_empty() {
            return Err(err("empty specification".to_owned()));
        }
        // Split `Head(args)`; args may nest (BestOf(BestOf(KwikSort,2),3)).
        let (head, args) = match s.find('(') {
            None => (s, Vec::new()),
            Some(open) => {
                if !s.ends_with(')') {
                    return Err(err("unbalanced parentheses".to_owned()));
                }
                let inner = &s[open + 1..s.len() - 1];
                let mut depth = 0usize;
                let mut args = Vec::new();
                let mut start = 0usize;
                for (i, c) in inner.char_indices() {
                    match c {
                        '(' => depth += 1,
                        ')' => {
                            depth = depth
                                .checked_sub(1)
                                .ok_or_else(|| err("unbalanced parentheses".to_owned()))?
                        }
                        ',' if depth == 0 => {
                            args.push(inner[start..i].trim());
                            start = i + 1;
                        }
                        _ => {}
                    }
                }
                if depth != 0 {
                    return Err(err("unbalanced parentheses".to_owned()));
                }
                args.push(inner[start..].trim());
                (&s[..open], args)
            }
        };
        let no_args = |spec: AlgoSpec| -> Result<AlgoSpec, SpecParseError> {
            if args.is_empty() {
                Ok(spec)
            } else {
                Err(err(format!("{head} takes no arguments")))
            }
        };
        match normalize(head).as_str() {
            "ailon" | "ailon32" | "ailonthreehalves" => no_args(AlgoSpec::Ailon),
            "bioconsert" => no_args(AlgoSpec::BioConsert),
            "borda" | "bordacount" => no_args(AlgoSpec::Borda),
            "copeland" | "copelandmethod" => no_args(AlgoSpec::Copeland),
            "copelandpairwise" => no_args(AlgoSpec::CopelandPairwise),
            "faginlarge" => no_args(AlgoSpec::FaginLarge),
            "faginsmall" => no_args(AlgoSpec::FaginSmall),
            "kwiksort" => no_args(AlgoSpec::KwikSort),
            "pickaperm" => no_args(AlgoSpec::PickAPerm),
            "repeatchoice" => no_args(AlgoSpec::RepeatChoice),
            "chanas" => no_args(AlgoSpec::Chanas),
            "chanasboth" => no_args(AlgoSpec::ChanasBoth),
            "mc4" => no_args(AlgoSpec::Mc4),
            "exact" | "exactalgorithm" | "exactsolution" => no_args(AlgoSpec::Exact),
            "kwiksortmin" => no_args(AlgoSpec::BestOf {
                base: Box::new(AlgoSpec::KwikSort),
                runs: DEFAULT_MIN_RUNS,
            }),
            "repeatchoicemin" => no_args(AlgoSpec::BestOf {
                base: Box::new(AlgoSpec::RepeatChoice),
                runs: DEFAULT_MIN_RUNS,
            }),
            "medrank" => match args.as_slice() {
                [] => Ok(AlgoSpec::MedRank(0.5)),
                [h] => {
                    let h: f64 = h
                        .parse()
                        .map_err(|_| err(format!("bad MedRank threshold {h:?}")))?;
                    if !(0.0..=1.0).contains(&h) {
                        return Err(err(format!("MedRank threshold {h} outside [0,1]")));
                    }
                    Ok(AlgoSpec::MedRank(h))
                }
                _ => Err(err("MedRank takes one threshold argument".to_owned())),
            },
            "bnb" | "branchandbound" => match args.as_slice() {
                [] => Ok(AlgoSpec::BnB { beam: None }),
                [b] => {
                    let b = b.trim_start_matches("beam=");
                    let beam: usize = b
                        .parse()
                        .map_err(|_| err(format!("bad BnB beam width {b:?}")))?;
                    Ok(AlgoSpec::BnB { beam: Some(beam) })
                }
                _ => Err(err("BnB takes at most one beam-width argument".to_owned())),
            },
            "bestof" => match args.as_slice() {
                [base, runs] => {
                    let base = AlgoSpec::parse(base)?;
                    let runs: usize = runs
                        .parse()
                        .map_err(|_| err(format!("bad BestOf repeat count {runs:?}")))?;
                    if runs == 0 {
                        return Err(err("BestOf needs at least one repeat".to_owned()));
                    }
                    if runs > MAX_BEST_OF_RUNS {
                        return Err(err(format!(
                            "BestOf repeat count {runs} exceeds the maximum of {MAX_BEST_OF_RUNS}"
                        )));
                    }
                    Ok(AlgoSpec::BestOf {
                        base: Box::new(base),
                        runs,
                    })
                }
                _ => Err(err("BestOf takes (base,runs)".to_owned())),
            },
            _ => Err(SpecParseError {
                input: input.to_owned(),
                message: "not a registered algorithm".to_owned(),
                kind: SpecErrorKind::UnknownName,
                suggestion: suggest(input),
            }),
        }
    }

    /// The display name the paper's tables use (`"Ailon3/2"`,
    /// `"MEDRank(0.5)"`, `"KwikSortMin"`), which [`Self::build`] gives the
    /// constructed kernel. Every paper name parses back to a registered
    /// spec, though the "Min" spellings carry no repeat count and resolve
    /// at [`DEFAULT_MIN_RUNS`] — two `BestOf(KwikSort, _)` specs
    /// differing only in `runs` share the table name `"KwikSortMin"`,
    /// exactly as the paper's tables do.
    pub fn paper_name(&self) -> String {
        match self {
            AlgoSpec::Ailon => "Ailon3/2".to_owned(),
            AlgoSpec::BioConsert => "BioConsert".to_owned(),
            AlgoSpec::Borda => "BordaCount".to_owned(),
            AlgoSpec::Copeland => "CopelandMethod".to_owned(),
            AlgoSpec::CopelandPairwise => "CopelandPairwise".to_owned(),
            AlgoSpec::FaginLarge => "FaginLarge".to_owned(),
            AlgoSpec::FaginSmall => "FaginSmall".to_owned(),
            AlgoSpec::KwikSort => "KwikSort".to_owned(),
            AlgoSpec::MedRank(h) => format!("MEDRank({h})"),
            AlgoSpec::PickAPerm => "Pick-a-Perm".to_owned(),
            AlgoSpec::RepeatChoice => "RepeatChoice".to_owned(),
            AlgoSpec::Chanas => "Chanas".to_owned(),
            AlgoSpec::ChanasBoth => "ChanasBoth".to_owned(),
            AlgoSpec::BnB { beam: None } => "BnB".to_owned(),
            AlgoSpec::BnB { beam: Some(b) } => format!("BnB(beam={b})"),
            AlgoSpec::Mc4 => "MC4".to_owned(),
            AlgoSpec::Exact => "ExactAlgorithm".to_owned(),
            AlgoSpec::BestOf { base, runs } => match base.as_ref() {
                AlgoSpec::KwikSort => "KwikSortMin".to_owned(),
                AlgoSpec::RepeatChoice => "RepeatChoiceMin".to_owned(),
                other => format!("BestOf({other},{runs})"),
            },
        }
    }

    /// Whether the built algorithm can place elements in the same bucket
    /// (Table 1's "can produce ties" column, after adaptation).
    pub fn produces_ties(&self) -> bool {
        match self {
            AlgoSpec::Chanas | AlgoSpec::ChanasBoth | AlgoSpec::BnB { .. } => false,
            AlgoSpec::BestOf { base, .. } => base.produces_ties(),
            _ => true,
        }
    }

    /// Largest `n` the algorithm handles in practice, if bounded — the
    /// single source of truth callers consult before putting a spec in a
    /// request batch (instead of re-encoding per-algorithm caps at every
    /// call site).
    ///
    /// * Ailon 3/2 — the dense simplex substrate becomes impractical past
    ///   n ≈ 45 (DESIGN.md §5; the paper itself reports "no result" for
    ///   n > 45).
    /// * Exact — the bitmask state of the branch-and-bound caps at 64
    ///   (the paper's own exact runs stop at n = 60).
    ///
    /// The heuristics are unbounded (`None`). `BnB` is not listed: past
    /// its internal size cap it degrades to a greedy incumbent and flags
    /// the run timed out, which reports surface as [`super::Outcome::TimedOut`].
    pub fn max_n(&self) -> Option<usize> {
        match self {
            AlgoSpec::Ailon => Some(45),
            AlgoSpec::Exact => Some(64),
            AlgoSpec::BestOf { base, .. } => base.max_n(),
            _ => None,
        }
    }

    /// Whether this spec's kernel can run on the matrix-free lane: its
    /// consensus is a function of O(m·n) positional statistics (Borda,
    /// Copeland, MedRank) or of on-demand cost rows (MC4), so it never
    /// needs the dense matrix resident. Everything else — local searches
    /// scoring O(n²) candidate moves, the exact solver's bound sweeps,
    /// `BestOf` rescoring repeats — re-reads pairwise costs too often for
    /// recomputation to win, and stays dense (DESIGN.md §16).
    pub fn supports_matrix_free(&self) -> bool {
        matches!(
            self,
            AlgoSpec::Borda | AlgoSpec::Copeland | AlgoSpec::MedRank(_) | AlgoSpec::Mc4
        )
    }

    /// Instantiate the algorithm kernel this spec names.
    pub fn build(&self, policy: ExecPolicy) -> Box<dyn ConsensusAlgorithm> {
        let sequential = policy.threading == Threading::Sequential;
        match self {
            AlgoSpec::Ailon => Box::new(ailon::AilonThreeHalves::default()),
            AlgoSpec::BioConsert => Box::new(bioconsert::BioConsert {
                force_sequential: sequential,
                ..bioconsert::BioConsert::default()
            }),
            AlgoSpec::Borda => Box::new(borda::BordaCount),
            AlgoSpec::Copeland => Box::new(copeland::CopelandMethod),
            AlgoSpec::CopelandPairwise => Box::new(copeland::CopelandPairwise),
            AlgoSpec::FaginLarge => Box::new(fagin::FaginDyn::large()),
            AlgoSpec::FaginSmall => Box::new(fagin::FaginDyn::small()),
            AlgoSpec::KwikSort => Box::new(kwiksort::KwikSort),
            AlgoSpec::MedRank(h) => Box::new(medrank::MedRank::new(*h)),
            AlgoSpec::PickAPerm => Box::new(pick_a_perm::PickAPerm),
            AlgoSpec::RepeatChoice => Box::new(repeat_choice::RepeatChoice),
            AlgoSpec::Chanas => Box::new(chanas::Chanas),
            AlgoSpec::ChanasBoth => Box::new(chanas::ChanasBoth),
            AlgoSpec::BnB { beam } => Box::new(bnb::BranchAndBound {
                beam: *beam,
                ..bnb::BranchAndBound::default()
            }),
            AlgoSpec::Mc4 => Box::new(mc4::Mc4::default()),
            AlgoSpec::Exact => Box::new(exact::ExactAlgorithm {
                force_sequential: sequential,
                ..exact::ExactAlgorithm::default()
            }),
            AlgoSpec::BestOf { base, runs } => {
                let mut wrapper = BestOf::new(base.build(policy), *runs, &self.paper_name());
                wrapper.force_sequential = sequential;
                Box::new(wrapper)
            }
        }
    }
}

impl fmt::Display for AlgoSpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AlgoSpec::Ailon => write!(f, "Ailon"),
            AlgoSpec::BioConsert => write!(f, "BioConsert"),
            AlgoSpec::Borda => write!(f, "Borda"),
            AlgoSpec::Copeland => write!(f, "Copeland"),
            AlgoSpec::CopelandPairwise => write!(f, "CopelandPairwise"),
            AlgoSpec::FaginLarge => write!(f, "FaginLarge"),
            AlgoSpec::FaginSmall => write!(f, "FaginSmall"),
            AlgoSpec::KwikSort => write!(f, "KwikSort"),
            AlgoSpec::MedRank(h) => write!(f, "MedRank({h})"),
            AlgoSpec::PickAPerm => write!(f, "PickAPerm"),
            AlgoSpec::RepeatChoice => write!(f, "RepeatChoice"),
            AlgoSpec::Chanas => write!(f, "Chanas"),
            AlgoSpec::ChanasBoth => write!(f, "ChanasBoth"),
            AlgoSpec::BnB { beam: None } => write!(f, "BnB"),
            AlgoSpec::BnB { beam: Some(b) } => write!(f, "BnB({b})"),
            AlgoSpec::Mc4 => write!(f, "MC4"),
            AlgoSpec::Exact => write!(f, "Exact"),
            AlgoSpec::BestOf { base, runs } => write!(f, "BestOf({base},{runs})"),
        }
    }
}

impl FromStr for AlgoSpec {
    type Err = SpecParseError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        AlgoSpec::parse(s)
    }
}

/// The algorithm set the paper evaluated (Table 4 / Table 5 rows), in the
/// tables' alphabetical order, as specs. `min_runs` configures the "Min"
/// variants' repeat count.
pub fn paper_panel(min_runs: usize) -> Vec<AlgoSpec> {
    vec![
        AlgoSpec::Ailon,
        AlgoSpec::BioConsert,
        AlgoSpec::Borda,
        AlgoSpec::Copeland,
        AlgoSpec::FaginLarge,
        AlgoSpec::FaginSmall,
        AlgoSpec::KwikSort,
        AlgoSpec::BestOf {
            base: Box::new(AlgoSpec::KwikSort),
            runs: min_runs,
        },
        AlgoSpec::MedRank(0.5),
        AlgoSpec::MedRank(0.7),
        AlgoSpec::PickAPerm,
        AlgoSpec::RepeatChoice,
        AlgoSpec::BestOf {
            base: Box::new(AlgoSpec::RepeatChoice),
            runs: min_runs,
        },
    ]
}

/// The non-bold Table 1 rows implemented as extensions (DESIGN.md §7).
pub fn extended_panel() -> Vec<AlgoSpec> {
    vec![
        AlgoSpec::Chanas,
        AlgoSpec::ChanasBoth,
        AlgoSpec::BnB { beam: None },
        AlgoSpec::Mc4,
        AlgoSpec::CopelandPairwise,
    ]
}

/// Every preset spec: the paper panel, the extensions, and the exact
/// solver — what `rawt` matches `--algo` names against.
pub fn full_panel(min_runs: usize) -> Vec<AlgoSpec> {
    let mut panel = paper_panel(min_runs);
    panel.extend(extended_panel());
    panel.push(AlgoSpec::Exact);
    panel
}
