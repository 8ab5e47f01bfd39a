//! Two-tier score cascade over CSR candidate rows.
//!
//! Tier 1 computes, per candidate pair, a provable upper bound on the
//! merged Harmony-weighted score from fixed-width per-element digests
//! (128-bit token signatures, counts, inline id sets, char-count
//! profiles, per-token Jaro-Winkler digests). Pairs whose bound falls
//! below the engine's score floor are written as `0.0` without ever
//! running the expensive voters. Tier 2 then runs the remaining voters
//! structure-of-arrays style — one voter lane at a time over the row's
//! survivors — calling the exact same free-function kernels in
//! `crate::voter` that the per-pair reference path uses, so surviving
//! cells are bit-identical to the reference by construction.
//!
//! # Losslessness
//!
//! [`MergeStrategy::HarmonyWeighted`] computes `N/D` with
//! `N = Σ vᵢ·|vᵢ|` and `D = Σ |vᵢ|`, and the floor write fires on
//! `merged < floor`. Rather than bounding `N` and `D` separately (the
//! ratio of two decorrelated bounds is loose), the test is *linearized*:
//! `merged < floor ⟺ N − floor·D < 0` whenever `D > 0`, and
//! `N − floor·D = Σ φ(vᵢ)` with the per-vote score
//! `φ(v) = v·|v| − floor·|v|`. Exact votes contribute `φ(v)` exactly; an
//! unresolved vote known to lie in `[l, u]` contributes at most
//! [`lane_max`] over `[l, u]` — `φ` is piecewise quadratic with maxima
//! only at the interval endpoints, at `v = 0` (a kink where `φ = 0`), or
//! at `v = floor/2` on the negative branch when the floor is negative. If
//! the summed maximum (`slack`) is provably negative, then *every*
//! realization has `N − floor·D < 0`; the all-zero realization (`D == 0`)
//! yields `Σ φ = 0` and is therefore excluded, so `D > 0` and
//! `merged = N/D < floor` — the reference path would write the very same
//! `0.0`. (The merge's ±(1−1e-9) clamp only ever moves a value below
//! `-LIMIT` up toward zero, which cannot cross a floor the value was
//! already below, floors being ≥ `-LIMIT` in practice.) For
//! `floor == 0.0`, `φ(v) = v·|v|` and the test collapses to "is the
//! numerator provably negative"; a zero or negative merge and the prune
//! both write the same `0.0` f32.
//!
//! Every per-lane interval is derived from a quantity that provably
//! brackets the voter's evidence *ratio*, then mapped through
//! [`Confidence::weighted`] with the weight of the voter's own
//! [`EvidenceLaw`] — the vote is monotone in the ratio, so ratio bounds
//! survive the mapping (including its clamps).
//!
//! # Digests and tables
//!
//! Four layers of precomputation keep per-pair work to integer compares,
//! popcounts, table reads and a few multiplies:
//!
//! * **Per schema** ([`Columns`], built by the first cascade pass over each
//!   [`crate::prepare::PreparedSchema`]): one `Copy` [`ColumnDigest`] per
//!   element holding every scalar the coarse verdict reads off the
//!   preparation — the name, parent, children and corpus signatures; set
//!   lengths and token counts; doc term and token counts (a pair corpus
//!   gives each distinct term one weight) and the offset of the element's
//!   squared-weight prefix in its side's buffer; raw-name length, Soundex
//!   key, raw-name and acronym ids; the first four name ids (exact-name
//!   equality); name and parent sets of up to four ids inline (their exact
//!   Jaccard is a 4×4 compare, and disjoint parent signatures settle the
//!   rest). Beside it, an [`EditDigest`] (char profile, first chars) and
//!   per-token Jaro-Winkler digests that only the refinement reads.
//! * **Per context** ([`Digests`], built on a [`MatchContext`]'s first
//!   cascade pass): each side's squared TF-IDF weight prefixes against the
//!   pair corpus, each element's type and container flag from its
//!   [`Schema`] ([`TypeDigest`]), and per lane, the evidence weight
//!   `n/(n+k)` of every count the context can produce, from the voter's
//!   own [`EvidenceLaw`] — no division per pair.
//! * **Per score pass** ([`Tier1`]): the floor fixes `φ`, so the pass
//!   tables every term that depends only on the floor and a small
//!   integer — the type vote of equal types and of every pair of distinct
//!   variants (distinct types' compatibility reads only their variants,
//!   [`DataType::distinct_compatibility`]), the role and exact-mismatch
//!   votes, an acronym hit per count, the doc and structure lower votes
//!   per count, and the edit lane's lower vote and coarse cap per (count,
//!   Soundex verdict).
//! * **Per row** (`Row`): the source digest with the source pad swapped
//!   in, the exact-name hit vote, the source's slice of the type table and
//!   its squared-weight prefix.
//!
//! # The row kernel
//!
//! [`Tier1::row`] runs in two passes. The first is straight-line per
//! pair: every lane's coarse term from the two digests, then the verdict
//! with the edit lane at its coarse cap (Jaro-Winkler and Levenshtein
//! ≤ 1). A pair is pruned when `slack + coarse < −EPS`; otherwise its
//! column is kept by a branch-free store-then-advance compaction, marked
//! an *early survivor* when no refinement — every pending lane at its
//! lower vote — could push `slack` negative. Lane presence is a select,
//! not a branch; the only branches are the rare fallbacks (names longer
//! than four ids to confirm equal, sets too large to ride inline). The
//! second pass visits only the kept columns (~16% at 1378×784 and floor
//! 0.30): undecided pairs run the scalar refinement — the char-profile
//! edit cap (phase A), then, only when a perfect refinement would prune,
//! the per-token soft-overlap cap of the token lane (phase B) — and
//! survivors record their resolved votes for tier 2.
//!
//! On x86-64 the same kernel body is also compiled with `popcnt` and
//! `avx2` and chosen at run time when the CPU has both: the signature
//! bounds popcount four `u128`s per pair. Float semantics do not change
//! (nothing contracts into fused multiply-adds), so verdicts are the same
//! bit for bit.
//!
//! # Exit histogram
//!
//! Each row reports where its pairs left tier 1 ([`Tier1Exits`]): coarse
//! prune, early survive, phase-A prune, phase-B prune, final survive. The
//! pipeline sums them per worker and adds them to the `cascade.exit.*`
//! obs counters once per score pass; the three prune exits sum to
//! `pairs_pruned`, the two survive exits to `pairs_full`.

use crate::confidence::Confidence;
use crate::context::{ElementFeatures, MatchContext};
use crate::merger::MergeStrategy;
use crate::prepare::{count, PreparedElement};
use crate::voter::{
    doc_vote, edit_distance_vote, exact_mismatch, role_clash, structure_vote, token_vote,
    type_vote_of, EvidenceLaw, ACRONYM_EVIDENCE, ACRONYM_RATIO, DOC_EVIDENCE, EDIT_EVIDENCE,
    EXACT_EVIDENCE, PATH_EVIDENCE, SOFT_DISCOUNT, STRUCTURE_EVIDENCE, TOKEN_EVIDENCE,
};
use sm_schema::{DataType, ElementId, Schema};
use sm_text::bounds::{
    edit_blend_upper_bound, id_signature, jw_prefix_len, signature_intersection_bound,
    signature_jaccard_bound, token_jw_upper_bound, CharProfile, TokenStat,
};
use sm_text::intern::{sorted_ids_contains, sorted_ids_jaccard, to_sorted_set, TokenId};
use std::sync::Arc;

/// Number of voters in the default panel (cascade is gated on it).
pub(crate) const LANES: usize = 9;
const LANE_EXACT: usize = 0;
const LANE_TOKEN: usize = 1;
const LANE_EDIT: usize = 2;
const LANE_DOC: usize = 3;
const LANE_TYPE: usize = 4;
const LANE_PATH: usize = 5;
const LANE_STRUCT: usize = 6;
const LANE_ROLE: usize = 7;
const LANE_ACRONYM: usize = 8;

/// Margin absorbing f64 rounding-order differences between the bound
/// arithmetic here and the reference merge. Both are exact to ~1e-15
/// relative, so 1e-9 is ample and costs essentially no pruning power.
const EPS: f64 = 1e-9;

/// Id sets of at most this many ids ride inline in a [`ColumnDigest`]:
/// their exact intersection is a 4×4 compare, not a merge walk behind a
/// pointer.
const INLINE_IDS: usize = 4;
/// Padding of a source row's inline ids, swapped in for the stored
/// [`TARGET_PAD`] when the row reads its digest ([`Row::new`]). Source and
/// target pad with different values and sets holding either value never go
/// inline, so a pad matches nothing on the other side.
const SOURCE_PAD: u32 = u32::MAX;
/// Padding of the inline ids every [`ColumnDigest`] stores.
const TARGET_PAD: u32 = u32::MAX - 1;

/// [`ColumnDigest::flags`]: the raw name has a Soundex key.
const SOUNDEX: u8 = 1;
/// [`ColumnDigest::flags`]: the raw name has at least two bytes (the
/// acronym voter's gate, [`PreparedElement::raw_name_spans_two_bytes`]).
const ACRONYM_GATE: u8 = 2;
/// [`ColumnDigest::flags`]: the name set rides inline.
const NAME_INLINE: u8 = 4;
/// [`ColumnDigest::flags`]: the parent-name set rides inline.
const PARENT_INLINE: u8 = 8;

/// Every scalar tier 1 reads about one element's preparation, in one
/// fixed-width record. Built once per [`crate::prepare::PreparedSchema`]
/// ([`Columns`]); the coarse verdict reads nothing else about the target
/// but its [`TypeDigest`].
#[derive(Debug, Clone, Copy)]
struct ColumnDigest {
    name_sig: u128,
    parent_sig: u128,
    children_sig: u128,
    corpus_sig: u128,
    /// The first [`INLINE_IDS`] ids of the name sequence, zero-padded:
    /// with equal lengths up to [`INLINE_IDS`], equal arrays are equal
    /// sequences.
    name_head: [u32; INLINE_IDS],
    /// The name set, padded with [`TARGET_PAD`], when it rides inline
    /// ([`NAME_INLINE`]).
    name_ids: [u32; INLINE_IDS],
    /// The parent-name set, padded with [`TARGET_PAD`], when it rides
    /// inline ([`PARENT_INLINE`]).
    parent_ids: [u32; INLINE_IDS],
    /// Name tokens in sequence (with repeats).
    name_len: u32,
    name_set_len: u32,
    parent_set_len: u32,
    parent_len: u32,
    children_set_len: u32,
    children_len: u32,
    /// Distinct terms of the TF-IDF document, one pair-corpus weight each.
    doc_terms: u32,
    doc_tokens: u32,
    /// Start of the element's squared-weight prefix in its side's buffer
    /// ([`Digests`]): each element before it takes `doc_terms + 1` slots.
    doc_prefix: u32,
    raw_chars: u32,
    raw_name_id: u32,
    acronym_id: u32,
    soundex: u32,
    flags: u8,
}

/// What the edit lane's refinement reads about one element, kept beside
/// its [`ColumnDigest`] so the coarse pass never loads it: the raw name's
/// char profile and its first chars (Jaro-Winkler's prefix).
#[derive(Debug, Clone)]
struct EditDigest {
    profile: CharProfile,
    /// The first `min(len, 4)` chars of the raw name, `'\0'`-padded.
    first: [char; 4],
}

impl EditDigest {
    fn of(e: &PreparedElement) -> Self {
        let mut first = ['\0'; 4];
        for (slot, &c) in first.iter_mut().zip(e.raw_chars.iter()) {
            *slot = c;
        }
        EditDigest {
            profile: CharProfile::of_chars(&e.raw_chars),
            first,
        }
    }

    /// The first chars, as many as the raw name has (at most 4).
    #[inline]
    fn first(&self, raw_chars: u32) -> &[char] {
        &self.first[..(raw_chars as usize).min(4)]
    }
}

/// The score cascade's tier-1 columns of one prepared schema: a
/// [`ColumnDigest`] and an [`EditDigest`] per element, and the per-token
/// Jaro-Winkler digests of every name. They read only [`PreparedElement`]s,
/// so every match context over the preparation shares them.
#[derive(Debug, Default)]
pub(crate) struct Columns {
    digests: Vec<ColumnDigest>,
    edit: Vec<EditDigest>,
    /// Element after element, aligned with each one's `name_ids`:
    /// `token_offsets[i]..token_offsets[i + 1]` slices element `i`'s.
    token_stats: Vec<TokenStat>,
    token_offsets: Vec<u32>,
}

/// The first [`INLINE_IDS`] ids, padded with `pad`.
fn padded(ids: &[TokenId], pad: u32) -> [u32; INLINE_IDS] {
    let mut head = [pad; INLINE_IDS];
    for (slot, id) in head.iter_mut().zip(ids) {
        *slot = id.0;
    }
    head
}

/// True when a set can ride inline: it fits, and holds no pad value.
fn fits_inline(set: &[TokenId]) -> bool {
    set.len() <= INLINE_IDS && set.iter().all(|id| id.0 < TARGET_PAD)
}

impl Columns {
    /// Digest every element of a preparation, from a context's features.
    pub(crate) fn build(elements: &[ElementFeatures]) -> Self {
        let mut columns = Columns {
            token_offsets: vec![0],
            ..Columns::default()
        };
        let mut doc_prefix = 0;
        for e in elements {
            let terms = to_sorted_set(e.corpus_ids.clone());
            let flags = (SOUNDEX * u8::from(e.raw_soundex.is_some()))
                | (ACRONYM_GATE * u8::from(e.raw_name_spans_two_bytes()))
                | (NAME_INLINE * u8::from(fits_inline(&e.name_set)))
                | (PARENT_INLINE * u8::from(fits_inline(&e.parent_set)));
            columns.digests.push(ColumnDigest {
                name_sig: id_signature(&e.name_set),
                parent_sig: id_signature(&e.parent_set),
                children_sig: id_signature(&e.children_set),
                corpus_sig: id_signature(&terms),
                name_head: padded(&e.name_ids, 0),
                name_ids: padded(&e.name_set, TARGET_PAD),
                parent_ids: padded(&e.parent_set, TARGET_PAD),
                name_len: count(e.name_ids.len()),
                name_set_len: count(e.name_set.len()),
                parent_set_len: count(e.parent_set.len()),
                parent_len: e.parent_len,
                children_set_len: count(e.children_set.len()),
                children_len: e.children_len,
                doc_terms: count(terms.len()),
                doc_tokens: count(e.corpus_ids.len()),
                doc_prefix: count(doc_prefix),
                raw_chars: count(e.raw_chars.len()),
                raw_name_id: e.raw_name_id.0,
                acronym_id: e.acronym_id.0,
                soundex: e.raw_soundex.unwrap_or(0),
                flags,
            });
            doc_prefix += terms.len() + 1;
            columns.edit.push(EditDigest::of(e));
            let tokens = e.name_bag.tokens.iter().map(|t| TokenStat::of(t));
            columns.token_stats.extend(tokens);
            columns.token_offsets.push(count(columns.token_stats.len()));
        }
        columns
    }

    /// Estimated heap bytes of the columns of `elements`, priced like
    /// [`crate::prepare::PreparedSchema::estimate_bytes`] whether or not
    /// they are built yet: the feature cache prices an entry once, when it
    /// admits it.
    pub(crate) fn estimate_bytes(elements: &[Arc<PreparedElement>]) -> usize {
        use std::mem::size_of;
        let tokens: usize = elements.iter().map(|e| e.name_ids.len()).sum();
        let per_element = size_of::<ColumnDigest>() + size_of::<EditDigest>() + size_of::<u32>();
        size_of::<Columns>()
            + size_of::<u32>()
            + elements.len() * per_element
            + tokens * size_of::<TokenStat>()
    }

    /// The per-token digests of element `i`'s name.
    #[inline]
    fn token_stats(&self, i: usize) -> &[TokenStat] {
        &self.token_stats[self.token_offsets[i] as usize..self.token_offsets[i + 1] as usize]
    }
}

/// What tier 1 reads about one element's [`Schema`] entry, not its
/// preparation: preparations are cached by names, docs and parents only
/// ([`crate::prepare::schema_fingerprint`]).
#[derive(Debug, Clone, Copy)]
struct TypeDigest {
    /// The data type, encoded exactly ([`type_key`]).
    key: u64,
    /// The data type's variant ([`type_kind`]).
    kind: u8,
    /// The element is a container (the role voter's only input).
    container: bool,
}

/// The score cascade's view of one match context beyond the two schemata's
/// [`Columns`]: each side's [`TypeDigest`]s and squared TF-IDF weight
/// prefixes, and the per-lane evidence-weight tables.
pub(crate) struct Digests {
    source_types: Vec<TypeDigest>,
    target_types: Vec<TypeDigest>,
    source_prefix: Vec<f64>,
    target_prefix: Vec<f64>,
    weights: Weights,
}

/// Evidence weights by combined count, one table per lane, built from the
/// voters' own [`EvidenceLaw`]s and sized to the context's largest count.
struct Weights {
    token: Vec<f64>,
    edit: Vec<f64>,
    doc: Vec<f64>,
    path: Vec<f64>,
    structure: Vec<f64>,
    acronym: Vec<f64>,
}

impl Weights {
    fn build(source: &[ColumnDigest], target: &[ColumnDigest]) -> Self {
        let table = |law: EvidenceLaw, count: fn(&ColumnDigest) -> u32| -> Vec<f64> {
            let max = |side: &[ColumnDigest]| side.iter().map(count).max().unwrap_or(0) as usize;
            (0..=law.count(max(source), max(target)))
                .map(|n| law.weight(n))
                .collect()
        };
        Weights {
            token: table(TOKEN_EVIDENCE, |d| d.name_len),
            edit: table(EDIT_EVIDENCE, |d| d.raw_chars),
            doc: table(DOC_EVIDENCE, |d| d.doc_tokens),
            path: table(PATH_EVIDENCE, |d| d.parent_len),
            structure: table(STRUCTURE_EVIDENCE, |d| d.children_len),
            acronym: table(ACRONYM_EVIDENCE, |d| d.name_len),
        }
    }
}

/// A lane's weight for one pair, read from its table.
#[inline(always)]
fn weight(table: &[f64], law: EvidenceLaw, a: u32, b: u32) -> f64 {
    table[law.count(a as usize, b as usize)]
}

/// Every data-type variant, parameters zeroed, in [`type_kind`] order.
const TYPE_KINDS: [DataType; 12] = [
    DataType::None,
    DataType::Unknown,
    DataType::Bool,
    DataType::Integer,
    DataType::Decimal {
        precision: 0,
        scale: 0,
    },
    DataType::Float,
    DataType::Text { max_len: None },
    DataType::Date,
    DataType::DateTime,
    DataType::Time,
    DataType::Binary,
    DataType::Enum { variants: 0 },
];

/// A data type's variant, as an index into [`TYPE_KINDS`]. Two distinct
/// types' compatibility depends on their variants alone
/// ([`DataType::distinct_compatibility`]), so the type vote is a table
/// lookup once equality is settled.
fn type_kind(t: DataType) -> u8 {
    match t {
        DataType::None => 0,
        DataType::Unknown => 1,
        DataType::Bool => 2,
        DataType::Integer => 3,
        DataType::Decimal { .. } => 4,
        DataType::Float => 5,
        DataType::Text { .. } => 6,
        DataType::Date => 7,
        DataType::DateTime => 8,
        DataType::Time => 9,
        DataType::Binary => 10,
        DataType::Enum { .. } => 11,
    }
}

/// An injective encoding of a data type: its variant above its
/// parameters, so equal keys are equal types.
fn type_key(t: DataType) -> u64 {
    let params = match t {
        DataType::Decimal { precision, scale } => u64::from(precision) << 8 | u64::from(scale),
        DataType::Text { max_len } => max_len.map_or(0, |n| 1 << 32 | u64::from(n)),
        DataType::Enum { variants } => u64::from(variants),
        _ => 0,
    };
    u64::from(type_kind(t)) << 40 | params
}

impl Digests {
    /// The context's part of both sides: types and kinds from each
    /// schema, squared-weight prefixes from each element's TF-IDF vector
    /// against the pair corpus.
    pub(crate) fn build(ctx: &MatchContext<'_>) -> Self {
        let (source, target) = ctx.columns();
        let types = |schema: &Schema| {
            schema
                .elements()
                .iter()
                .map(|e| TypeDigest {
                    key: type_key(e.datatype),
                    kind: type_kind(e.datatype),
                    container: e.kind.is_container_like(),
                })
                .collect()
        };
        let prefix = |features: &[ElementFeatures], columns: &Columns| {
            let mut prefix = Vec::new();
            for (f, d) in features.iter().zip(&columns.digests) {
                debug_assert_eq!(count(prefix.len()), d.doc_prefix);
                debug_assert_eq!(count(f.doc_vector.term_count()), d.doc_terms);
                f.doc_vector.append_top_squared_prefix(&mut prefix);
            }
            prefix
        };
        Digests {
            source_types: types(ctx.source),
            target_types: types(ctx.target),
            source_prefix: prefix(&ctx.source_features, source),
            target_prefix: prefix(&ctx.target_features, target),
            weights: Weights::build(&source.digests, &target.digests),
        }
    }
}

/// Reusable per-worker buffers for one row's cascade. Cleared and refilled
/// per row; allocations amortize across the whole run.
#[derive(Default)]
pub(crate) struct CascadeScratch {
    /// Target columns the coarse pass left open, compacted.
    open: Vec<u32>,
    /// Per open column: its coarse slack.
    slack: Vec<f64>,
    /// Per open column: the coarse pass already proved it survives.
    early: Vec<bool>,
    /// `LANES` vote values per survivor, panel order, survivor-major.
    votes: Vec<f64>,
    /// Per-survivor bitmask of lanes still awaiting their tier-2 vote.
    pending: Vec<u8>,
    /// Target column ids of pairs that survived tier 1.
    survivors: Vec<u32>,
    /// Merge input buffer (reused across survivors).
    scratch: Vec<Confidence>,
}

/// Where tier 1 settled each pair of a row — the five exits, in the order
/// the kernel reaches them.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub(crate) struct Tier1Exits {
    /// Pruned by the straight-line pass, every lane at its coarse cap.
    pub(crate) coarse_prune: u64,
    /// Proved to survive by the straight-line pass: no refinement could
    /// prune it.
    pub(crate) early_survive: u64,
    /// Pruned once the edit lane's char-profile cap replaced the coarse one.
    pub(crate) phase_a_prune: u64,
    /// Pruned by the per-token soft-overlap refinement of the token lane.
    pub(crate) phase_b_prune: u64,
    /// Survived every refinement.
    pub(crate) final_survive: u64,
}

impl Tier1Exits {
    /// Pairs written as `0.0` without running tier 2.
    pub(crate) fn pruned(&self) -> u64 {
        self.coarse_prune + self.phase_a_prune + self.phase_b_prune
    }

    /// Pairs handed to tier 2.
    pub(crate) fn survived(&self) -> u64 {
        self.early_survive + self.final_survive
    }

    pub(crate) fn add(&mut self, other: &Tier1Exits) {
        self.coarse_prune += other.coarse_prune;
        self.early_survive += other.early_survive;
        self.phase_a_prune += other.phase_a_prune;
        self.phase_b_prune += other.phase_b_prune;
        self.final_survive += other.final_survive;
    }
}

/// The linearized per-vote score `φ(v) = v·|v| − floor·|v|`; the merged
/// score is below the floor iff `Σ φ(vᵢ) < 0` (see the module doc).
#[inline(always)]
fn phi(v: f64, floor: f64) -> f64 {
    v * v.abs() - floor * v.abs()
}

/// Maximum of `φ` over a vote interval `[l, u]`, given `phi_l = φ(l)`.
/// `φ` is quadratic on each sign branch: on `v ≥ 0` it opens upward
/// (interior minimum only), on `v < 0` downward with its apex at
/// `floor/2` — reachable only when the floor is negative. The kink at
/// `v = 0` always scores `φ(0) = 0`.
#[inline(always)]
fn lane_max(l: f64, phi_l: f64, u: f64, floor: f64) -> f64 {
    let m = phi_l.max(phi(u, floor));
    let m = if (l <= 0.0) & (0.0 <= u) {
        m.max(0.0)
    } else {
        m
    };
    let apex = 0.5 * floor;
    if floor < 0.0 && (l <= apex) & (apex <= u) {
        m.max(phi(apex, floor))
    } else {
        m
    }
}

/// A vote the cascade resolves without tier 2, with its `φ`.
#[derive(Debug, Clone, Copy, Default)]
struct Exact {
    vote: f64,
    phi: f64,
}

impl Exact {
    #[inline(always)]
    fn new(vote: f64, floor: f64) -> Self {
        Exact {
            vote,
            phi: phi(vote, floor),
        }
    }

    /// `self` where `on`, else the neutral vote (which scores `φ(0) = 0`).
    #[inline(always)]
    fn when(self, on: bool) -> Self {
        if on {
            self
        } else {
            Exact::default()
        }
    }

    /// `lane_max` over `[self.vote, u]`.
    #[inline(always)]
    fn up_to(self, u: f64, floor: f64) -> f64 {
        lane_max(self.vote, self.phi, u, floor)
    }
}

/// The edit lane's coarse terms for one evidence count and Soundex verdict.
#[derive(Debug, Clone, Copy, Default)]
struct EditFixed {
    /// The lower vote: Jaro-Winkler and Levenshtein at 0.
    lower: Exact,
    /// The lane at its coarse cap (Jaro-Winkler and Levenshtein at 1).
    coarse: f64,
    /// The lane at its lower vote, `φ(lower)`: the least any edit
    /// refinement leaves.
    best: f64,
}

/// [`Confidence::weighted`]`(ratio, weight).value()` for a `ratio` in
/// `[0, 1]`, where the ratio clamp is a no-op, without the NaN test: a NaN
/// ratio only arises in a lane the caller masks off (an empty side's
/// `0/0` Jaccard), so the vote never needs to be neutral here.
#[inline(always)]
fn vote(ratio: f64, weight: f64) -> f64 {
    ((2.0 * ratio - 1.0) * weight).clamp(-Confidence::LIMIT, Confidence::LIMIT)
}

/// Exact Jaccard of two id sets (both non-empty when the caller uses the
/// result): a 4×4 compare of the padded inline ids when both ride inline
/// (`inline`), else zero for disjoint signatures, else the merge walk
/// `walk`. Sets are deduplicated, so the number of target ids equal to
/// some source id is the intersection size.
#[inline(always)]
fn set_jaccard(
    inline: bool,
    a: (&[u32; INLINE_IDS], u32, u128),
    b: (&[u32; INLINE_IDS], u32, u128),
    walk: impl FnOnce() -> f64,
) -> f64 {
    let ((a_ids, la, a_sig), (b_ids, lb, b_sig)) = (a, b);
    if inline {
        let mut hit = [false; INLINE_IDS];
        for k in 0..INLINE_IDS {
            for (j, h) in hit.iter_mut().enumerate() {
                *h |= b_ids[j] == a_ids[(j + k) % INLINE_IDS];
            }
        }
        let inter = hit.iter().map(|&h| u32::from(h)).sum::<u32>();
        f64::from(inter) / f64::from(la + lb - inter)
    } else if a_sig & b_sig == 0 {
        0.0
    } else {
        walk()
    }
}

/// Tier 1 of one score pass: both schemata's columns and the context's
/// digests, plus every lane term that depends only on the floor and a
/// small integer (a type variant, an evidence count, a Soundex verdict),
/// tabled once per pass.
pub(crate) struct Tier1<'a> {
    ctx: &'a MatchContext<'a>,
    source: &'a Columns,
    target: &'a Columns,
    dig: &'a Digests,
    floor: f64,
    /// The type vote of two equal types.
    type_same: Exact,
    /// The type vote of two distinct types, by (source, target) variant.
    type_kinds: Vec<Exact>,
    role_clash: Exact,
    exact_miss: Exact,
    /// By acronym-evidence count: an acronym hit.
    acronym_hit: Vec<Exact>,
    /// By doc-evidence count: the lower doc vote (cosine 0).
    doc_lower: Vec<Exact>,
    /// By structure-evidence count: the lower structure vote (Jaccard 0).
    kids_lower: Vec<Exact>,
    /// By edit-evidence count, then Soundex miss / hit.
    edit: Vec<[EditFixed; 2]>,
}

impl<'a> Tier1<'a> {
    /// Table the floor's lane terms for one score pass over `ctx`.
    pub(crate) fn new(ctx: &'a MatchContext<'a>, floor: f64) -> Self {
        let dig = ctx.digests();
        let (source, target) = ctx.columns();
        let w = &dig.weights;
        let exact = |vote: f64| Exact::new(vote, floor);
        let lower = |table: &[f64]| table.iter().map(|&w| exact(vote(0.0, w))).collect();
        let edit = w
            .edit
            .iter()
            .map(|&w| {
                [0.0, 1.0].map(|sdx| {
                    let lower = exact(vote(0.1 * sdx, w));
                    EditFixed {
                        lower,
                        coarse: lower.up_to(vote(0.9 + 0.1 * sdx, w), floor),
                        best: lower.phi,
                    }
                })
            })
            .collect();
        Tier1 {
            ctx,
            source,
            target,
            dig,
            floor,
            type_same: exact(type_vote_of(1.0).value()),
            type_kinds: TYPE_KINDS
                .iter()
                .flat_map(|a| TYPE_KINDS.iter().map(|&b| a.distinct_compatibility(b)))
                .map(|compat| exact(type_vote_of(compat).value()))
                .collect(),
            role_clash: exact(role_clash().value()),
            exact_miss: exact(exact_mismatch().value()),
            acronym_hit: w
                .acronym
                .iter()
                .map(|&w| exact(vote(ACRONYM_RATIO, w)))
                .collect(),
            doc_lower: lower(&w.doc),
            kids_lower: lower(&w.structure),
            edit,
        }
    }

    /// Tier 1 over one CSR candidate row: write `0.0` for every pruned
    /// cell, stash survivors' votes in `out`, and report where each pair
    /// exited.
    ///
    /// Two passes. The first computes every pair's coarse terms from the
    /// digests alone and compacts the columns it cannot prune into
    /// `out.open` with a branch-free store-then-advance. The second visits
    /// only those: the undecided run the scalar refinement, and survivors
    /// record their votes.
    pub(crate) fn row(
        &self,
        s: ElementId,
        cand: &[u32],
        slice: &mut [f32],
        out: &mut CascadeScratch,
    ) -> Tier1Exits {
        #[cfg(target_arch = "x86_64")]
        if std::arch::is_x86_feature_detected!("popcnt")
            && std::arch::is_x86_feature_detected!("avx2")
        {
            // SAFETY: the running CPU supports `popcnt` and `avx2`, the
            // features the function is compiled with.
            return unsafe { self.row_x86_64_v3(s, cand, slice, out) };
        }
        self.row_kernel(s, cand, slice, out)
    }

    /// [`Self::row_kernel`] compiled with hardware popcount and AVX2: the
    /// signature bounds popcount four `u128`s per pair, which the baseline
    /// target lowers to a bit-twiddling sequence, and the three-operand
    /// encoding drops most register copies from the lane arithmetic. Float
    /// semantics are unchanged (no contraction into fused multiply-adds),
    /// so both builds give bit-identical verdicts.
    ///
    /// # Safety
    ///
    /// The running CPU must support `popcnt` and `avx2`.
    #[cfg(target_arch = "x86_64")]
    #[target_feature(enable = "popcnt,avx2")]
    unsafe fn row_x86_64_v3(
        &self,
        s: ElementId,
        cand: &[u32],
        slice: &mut [f32],
        out: &mut CascadeScratch,
    ) -> Tier1Exits {
        self.row_kernel(s, cand, slice, out)
    }

    #[inline(always)]
    fn row_kernel(
        &self,
        s: ElementId,
        cand: &[u32],
        slice: &mut [f32],
        out: &mut CascadeScratch,
    ) -> Tier1Exits {
        out.votes.clear();
        out.pending.clear();
        out.survivors.clear();
        out.open.clear();
        out.open.resize(cand.len(), 0);
        out.slack.clear();
        out.slack.resize(cand.len(), 0.0);
        out.early.clear();
        out.early.resize(cand.len(), false);
        let row = Row::new(self, s);

        let mut open = 0usize;
        for &t in cand {
            let p = row.terms(t);
            slice[t as usize] = 0.0;
            out.open[open] = t;
            out.slack[open] = p.slack;
            out.early[open] = p.slack - p.tok.drop + p.edit.best >= -EPS;
            open += usize::from(p.slack + p.edit.coarse >= -EPS);
        }

        let mut exits = Tier1Exits {
            coarse_prune: (cand.len() - open) as u64,
            ..Tier1Exits::default()
        };
        for i in 0..open {
            let t = out.open[i];
            let survives = if out.early[i] {
                exits.early_survive += 1;
                true
            } else {
                row.refine(t, out.slack[i], &mut exits)
            };
            if survives {
                let p = row.terms(t);
                out.survivors.push(t);
                out.votes.extend_from_slice(&p.votes);
                out.pending.push(p.pending);
            }
        }
        exits
    }
}

/// The constants of one candidate row: the source digest, with the source
/// pad on its inline ids, and every term that depends on the source element
/// alone.
struct Row<'a> {
    pass: &'a Tier1<'a>,
    a: ColumnDigest,
    a_type: TypeDigest,
    edit_digest: &'a EditDigest,
    fa: &'a ElementFeatures,
    /// The source's per-token name digests.
    a_tokens: &'a [TokenStat],
    /// The source's squared-weight prefix.
    doc_prefix: &'a [f64],
    /// Type votes of the source's type against a distinct one, by the
    /// target's variant.
    types: &'a [Exact],
    exact_hit: Exact,
}

/// The token lane of one pair: the exact Jaccard half of the blend, the
/// Monge-Elkan soft half capped at 1.
#[derive(Clone, Copy)]
struct TokenTerms {
    jacc: f64,
    weight: f64,
    lower: Exact,
    /// `lane_max` of the capped interval.
    cap: f64,
    /// How far phase B could lower the slack: the cap collapsed to the
    /// lower vote, where `φ` is `lower.phi` (`lane_max` over the single
    /// point `[l, l]` is `φ(l)`, up to the sign of a zero no verdict sees).
    drop: f64,
}

/// The edit lane of one pair at its coarse cap.
#[derive(Clone, Copy)]
struct EditTerms {
    sdx: f64,
    weight: f64,
    lower: Exact,
    coarse: f64,
    best: f64,
}

/// The tier-1 terms of one pair: the votes it resolves exactly, the lanes
/// tier 2 must still run, and the linearized slack (see the module doc).
#[derive(Clone, Copy)]
struct Terms {
    votes: [f64; LANES],
    pending: u8,
    /// Exact lanes, the token lane's cap, the doc and structure terms.
    slack: f64,
    tok: TokenTerms,
    edit: EditTerms,
}

impl<'a> Row<'a> {
    fn new(pass: &'a Tier1<'a>, s: ElementId) -> Self {
        let mut a = pass.source.digests[s.index()];
        let repad = |id| if id == TARGET_PAD { SOURCE_PAD } else { id };
        (a.name_ids, a.parent_ids) = (a.name_ids.map(repad), a.parent_ids.map(repad));
        let a_type = pass.dig.source_types[s.index()];
        let n = a.name_len as usize;
        Row {
            pass,
            a,
            a_type,
            edit_digest: &pass.source.edit[s.index()],
            fa: pass.ctx.source_feat(s),
            a_tokens: pass.source.token_stats(s.index()),
            doc_prefix: &pass.dig.source_prefix[a.doc_prefix as usize..],
            types: &pass.type_kinds[usize::from(a_type.kind) * TYPE_KINDS.len()..]
                [..TYPE_KINDS.len()],
            exact_hit: Exact::new(EXACT_EVIDENCE.vote(1.0, n, n).value(), pass.floor),
        }
    }

    #[inline(always)]
    fn target(&self, t: u32) -> &'a ColumnDigest {
        &self.pass.target.digests[t as usize]
    }

    #[inline(always)]
    fn target_feat(&self, t: u32) -> &'a ElementFeatures {
        self.pass.ctx.target_feat(ElementId(t))
    }

    /// Same interned name sequence on both sides: equal lengths and
    /// heads decide it, unless the names are longer than the heads.
    #[inline(always)]
    fn same_name(&self, b: &ColumnDigest, t: u32) -> bool {
        let a = &self.a;
        (a.name_len == b.name_len) & (a.name_head == b.name_head)
            && (a.name_len as usize <= INLINE_IDS
                || self.fa.name_ids == self.target_feat(t).name_ids)
    }

    /// The token lane: exact Jaccard, soft half capped at 1.
    #[inline(always)]
    fn token(&self, b: &ColumnDigest, t: u32) -> TokenTerms {
        let (a, floor) = (&self.a, self.pass.floor);
        let jacc = set_jaccard(
            a.flags & b.flags & NAME_INLINE != 0,
            (&a.name_ids, a.name_set_len, a.name_sig),
            (&b.name_ids, b.name_set_len, b.name_sig),
            || sorted_ids_jaccard(&self.fa.name_set, &self.target_feat(t).name_set),
        );
        let weight = weight(
            &self.pass.dig.weights.token,
            TOKEN_EVIDENCE,
            a.name_len,
            b.name_len,
        );
        let lower = Exact::new(vote(jacc, weight), floor);
        let cap = lower.up_to(vote(jacc.max(SOFT_DISCOUNT), weight), floor);
        TokenTerms {
            jacc,
            weight,
            lower,
            cap,
            drop: cap - lower.phi,
        }
    }

    /// The edit lane at its coarse cap: Jaro-Winkler and Levenshtein ≤ 1,
    /// the Soundex term exact.
    #[inline(always)]
    fn edit(&self, b: &ColumnDigest) -> EditTerms {
        let a = &self.a;
        let hit = (a.flags & b.flags & SOUNDEX != 0) & (a.soundex == b.soundex);
        let count = EDIT_EVIDENCE.count(a.raw_chars as usize, b.raw_chars as usize);
        let fixed = self.pass.edit[count][usize::from(hit)];
        EditTerms {
            sdx: if hit { 1.0 } else { 0.0 },
            weight: self.pass.dig.weights.edit[count],
            lower: fixed.lower,
            coarse: fixed.coarse,
            best: fixed.best,
        }
    }

    /// Every lane's tier-1 term for the pair `(row, t)`. Straight-line
    /// apart from the rare fallbacks: a name-hash match to confirm, and
    /// id sets too large to ride inline.
    #[inline(always)]
    fn terms(&self, t: u32) -> Terms {
        let (a, b) = (&self.a, self.target(t));
        let pass = self.pass;
        let (floor, w) = (pass.floor, &pass.dig.weights);

        // Exact lanes: hoisted row votes, the type table, integer
        // compares, and the parent-set Jaccard.
        let names = (a.name_len != 0) & (b.name_len != 0);
        let exact = if self.same_name(b, t) {
            self.exact_hit
        } else {
            pass.exact_miss
        }
        .when(names);
        let b_type = &pass.dig.target_types[t as usize];
        let types = if self.a_type.key == b_type.key {
            pass.type_same
        } else {
            self.types[usize::from(b_type.kind)]
        };
        let path_jacc = set_jaccard(
            a.flags & b.flags & PARENT_INLINE != 0,
            (&a.parent_ids, a.parent_set_len, a.parent_sig),
            (&b.parent_ids, b.parent_set_len, b.parent_sig),
            || sorted_ids_jaccard(&self.fa.parent_set, &self.target_feat(t).parent_set),
        );
        let path = Exact::new(
            vote(
                path_jacc,
                weight(&w.path, PATH_EVIDENCE, a.parent_len, b.parent_len),
            ),
            floor,
        )
        .when((a.parent_set_len != 0) & (b.parent_set_len != 0));
        let role = pass
            .role_clash
            .when(self.a_type.container != b_type.container);
        let acronym_hit = (a.flags & b.flags & ACRONYM_GATE != 0)
            & (((b.name_len >= 2) & (a.raw_name_id == b.acronym_id))
                | ((a.name_len >= 2) & (b.raw_name_id == a.acronym_id)));
        let acronym = pass.acronym_hit
            [ACRONYM_EVIDENCE.count(a.name_len as usize, b.name_len as usize)]
        .when(acronym_hit);
        let mut slack = 0.0;
        for lane in [exact, types, path, role, acronym] {
            slack += lane.phi;
        }

        // Token lane: refined only in phase B; absent, it adds nothing.
        let mut tok = self.token(b, t);
        if !names {
            (tok.cap, tok.drop) = (0.0, 0.0);
        }
        slack += tok.cap;

        // Doc lane: corpus-signature cap on the shared-term count, then
        // Cauchy-Schwarz over each side's top-i squared TF-IDF weights. A
        // provably empty term intersection resolves the vote exactly (the
        // cosine walk accumulates nothing and returns exactly 0.0).
        let docs = (a.doc_terms != 0) & (b.doc_terms != 0);
        let doc_count = DOC_EVIDENCE.count(a.doc_tokens as usize, b.doc_tokens as usize);
        let shared = signature_intersection_bound(
            a.corpus_sig,
            a.doc_terms as usize,
            b.corpus_sig,
            b.doc_terms as usize,
        );
        let doc_lower = pass.doc_lower[doc_count];
        let dot_ub = (self.doc_prefix[shared]
            * pass.dig.target_prefix[b.doc_prefix as usize + shared])
            .sqrt()
            .min(1.0);
        let doc_open = docs & (shared != 0);
        let doc_exact = doc_lower.when(docs & !doc_open);
        slack += if doc_open {
            doc_lower.up_to(vote(dot_ub.sqrt(), w.doc[doc_count]), floor)
        } else {
            doc_exact.phi
        };

        // Structure lane: children-signature Jaccard cap; disjoint
        // signatures resolve the vote exactly (0.0 Jaccard).
        let kids = (a.children_set_len != 0) & (b.children_set_len != 0);
        let kids_count = STRUCTURE_EVIDENCE.count(a.children_len as usize, b.children_len as usize);
        let kids_lower = pass.kids_lower[kids_count];
        let kids_jacc_ub = signature_jaccard_bound(
            a.children_sig,
            a.children_set_len as usize,
            b.children_sig,
            b.children_set_len as usize,
        );
        let kids_open = kids & (a.children_sig & b.children_sig != 0);
        let kids_exact = kids_lower.when(kids & !kids_open);
        slack += if kids_open {
            kids_lower.up_to(vote(kids_jacc_ub, w.structure[kids_count]), floor)
        } else {
            kids_exact.phi
        };

        // Edit lane at its coarse cap; absent, it adds nothing.
        let raws = (a.raw_chars != 0) & (b.raw_chars != 0);
        let mut edit = self.edit(b);
        if !raws {
            (edit.coarse, edit.best) = (0.0, 0.0);
        }

        let mut votes = [0.0f64; LANES];
        votes[LANE_EXACT] = exact.vote;
        votes[LANE_DOC] = doc_exact.vote;
        votes[LANE_TYPE] = types.vote;
        votes[LANE_PATH] = path.vote;
        votes[LANE_STRUCT] = kids_exact.vote;
        votes[LANE_ROLE] = role.vote;
        votes[LANE_ACRONYM] = acronym.vote;
        Terms {
            votes,
            pending: (u8::from(names) << LANE_TOKEN)
                | (u8::from(raws) << LANE_EDIT)
                | (u8::from(doc_open) << LANE_DOC)
                | (u8::from(kids_open) << LANE_STRUCT),
            slack,
            tok,
            edit,
        }
    }

    /// The scalar refinement of a pair the coarse pass left undecided,
    /// from its coarse `slack`: the char-profile edit cap (phase A), then —
    /// only when a perfect refinement would prune — the per-token
    /// soft-overlap cap (phase B). Returns whether the pair survives.
    fn refine(&self, t: u32, mut slack: f64, exits: &mut Tier1Exits) -> bool {
        let (a, b) = (&self.a, self.target(t));
        let floor = self.pass.floor;
        if (a.raw_chars != 0) & (b.raw_chars != 0) {
            let edit = self.edit(b);
            let (ea, eb) = (self.edit_digest, &self.pass.target.edit[t as usize]);
            let blend_ub = edit_blend_upper_bound(
                &ea.profile,
                &eb.profile,
                jw_prefix_len(ea.first(a.raw_chars), eb.first(b.raw_chars)),
                edit.sdx,
            );
            let u = Confidence::weighted(blend_ub, edit.weight).value();
            slack += edit.lower.up_to(u, floor);
        }
        if slack < -EPS {
            exits.phase_a_prune += 1;
            return false;
        }
        if (a.name_len != 0) & (b.name_len != 0) {
            let tok = self.token(b, t);
            let rest = slack - tok.cap;
            if rest + tok.lower.phi < -EPS {
                let soft_ub = self.soft_upper_bound(t);
                let soft = tok.jacc.max(SOFT_DISCOUNT * soft_ub);
                let u = Confidence::weighted(soft, tok.weight).value();
                if rest + tok.lower.up_to(u, floor) < -EPS {
                    exits.phase_b_prune += 1;
                    return false;
                }
            }
        }
        exits.final_survive += 1;
        true
    }

    /// Upper bound on `monge_elkan_jw_interned` of `(row, t)` from per-token
    /// digests: shared tokens contribute their exact 1.0 (the kernel's id
    /// short-circuit), the rest their best O(1) pairwise Jaro-Winkler cap.
    /// Callers guarantee both sides are non-empty.
    fn soft_upper_bound(&self, t: u32) -> f64 {
        let (fa, fb) = (self.fa, self.target_feat(t));
        let b_tokens = self.pass.target.token_stats(t as usize);
        let d_ab = directed_soft_ub(self.a_tokens, &fa.name_ids, &fb.name_set, b_tokens);
        let d_ba = directed_soft_ub(b_tokens, &fb.name_ids, &fa.name_set, self.a_tokens);
        (d_ab + d_ba) / 2.0
    }
}

fn directed_soft_ub(
    xs: &[TokenStat],
    x_ids: &[TokenId],
    ys_set: &[TokenId],
    ys: &[TokenStat],
) -> f64 {
    let mut total = 0.0;
    for (x, &id) in xs.iter().zip(x_ids) {
        if sorted_ids_contains(ys_set, id) {
            total += 1.0;
        } else {
            let mut best = 0.0f64;
            for y in ys {
                best = best.max(token_jw_upper_bound(x, y));
            }
            total += best;
        }
    }
    total / xs.len() as f64
}

/// Tier 2 over one row's survivors, voter-major: each unresolved lane is
/// completed in its own pass so one voter's code and tables stay hot
/// across the whole row. The kernels are the same free functions the
/// per-pair reference path calls — bit-identical votes by construction.
pub(crate) fn tier2_row(ctx: &MatchContext<'_>, s: ElementId, out: &mut CascadeScratch) {
    let tag = ctx.arena_tag();
    let fa = ctx.source_feat(s);
    for (i, &t) in out.survivors.iter().enumerate() {
        if out.pending[i] & (1 << LANE_TOKEN) != 0 {
            out.votes[i * LANES + LANE_TOKEN] =
                token_vote(tag, fa, ctx.target_feat(ElementId(t))).value();
        }
    }
    for (i, &t) in out.survivors.iter().enumerate() {
        if out.pending[i] & (1 << LANE_EDIT) != 0 {
            out.votes[i * LANES + LANE_EDIT] =
                edit_distance_vote(tag, fa, ctx.target_feat(ElementId(t))).value();
        }
    }
    for (i, &t) in out.survivors.iter().enumerate() {
        if out.pending[i] & (1 << LANE_DOC) != 0 {
            out.votes[i * LANES + LANE_DOC] = doc_vote(fa, ctx.target_feat(ElementId(t))).value();
        }
    }
    for (i, &t) in out.survivors.iter().enumerate() {
        if out.pending[i] & (1 << LANE_STRUCT) != 0 {
            out.votes[i * LANES + LANE_STRUCT] =
                structure_vote(fa, ctx.target_feat(ElementId(t))).value();
        }
    }
}

/// Merge one row's survivors into the matrix slice, applying the floor on
/// the f64 merged value before the f32 narrowing — the same order the
/// reference path uses, so the written bytes are identical.
pub(crate) fn merge_row(
    merger: &MergeStrategy,
    floor: f64,
    out: &mut CascadeScratch,
    slice: &mut [f32],
) {
    for (i, &t) in out.survivors.iter().enumerate() {
        out.scratch.clear();
        out.scratch.extend(
            out.votes[i * LANES..(i + 1) * LANES]
                .iter()
                .map(|&v| Confidence::new(v)),
        );
        let merged = merger.merge(&out.scratch).value();
        slice[t as usize] = if merged < floor { 0.0 } else { merged as f32 };
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::prepare::PreparedSchema;
    use crate::voter::{default_voters, type_vote};
    use sm_schema::{Documentation, ElementKind, SchemaFormat, SchemaId};
    use sm_text::normalize::Normalizer;

    /// A pair with long names (past the inline sets), shared and repeated
    /// tokens, acronyms, non-ASCII text, docs and none, containers and
    /// leaves.
    fn fixture() -> (Schema, Schema) {
        let mut a = Schema::new(SchemaId(1), "S_A", SchemaFormat::Relational);
        let tables = [
            (
                "Customer",
                &[
                    "customer_id",
                    "cust_nm",
                    "customer_account_identifier_code_value",
                ][..],
            ),
            ("COI", &["member", "coi_id", "date_begin"][..]),
            (
                "Caf\u{e9}",
                &["na\u{ef}ve_r\u{e9}sum\u{e9}", "x", "a_b_c"][..],
            ),
        ];
        for (table, columns) in tables {
            let t = a.add_root(table, ElementKind::Table, DataType::None);
            for (i, &c) in columns.iter().enumerate() {
                let dt = [DataType::Integer, DataType::text(), DataType::Date][i % 3];
                let e = a.add_child(t, c, ElementKind::Column, dt).unwrap();
                if i != 1 {
                    let doc = format!("the {c} of the {table} record");
                    a.set_doc(e, Documentation::embedded(doc)).unwrap();
                }
            }
        }
        let mut b = Schema::new(SchemaId(2), "S_B", SchemaFormat::Xml);
        let types = [
            (
                "CustomerType",
                &[
                    "CustomerId",
                    "CustomerName",
                    "customer_account_identifier_code_val",
                ][..],
            ),
            ("CommunityOfInterest", &["Member", "DateBegin", "coi"][..]),
            ("CafeType", &["naive_resume", "X", "abc"][..]),
        ];
        for (ty, elements) in types {
            let t = b.add_root(ty, ElementKind::ComplexType, DataType::None);
            b.set_doc(t, Documentation::embedded(format!("a {ty}")))
                .unwrap();
            for (i, &e) in elements.iter().enumerate() {
                let dt = [DataType::varchar(20), DataType::Integer, DataType::Date][i % 3];
                b.add_child(t, e, ElementKind::XmlElement, dt).unwrap();
            }
        }
        (a, b)
    }

    /// One row's tier-1 outcome: exits, survivors, their votes and pending
    /// lanes, and the matrix row.
    type RowRun = (Tier1Exits, Vec<u32>, Vec<f64>, Vec<u8>, Vec<f32>);

    /// Every row of the fixture against every column, through `kernel`.
    fn run_rows(
        ctx: &MatchContext<'_>,
        floor: f64,
        kernel: impl Fn(&Tier1<'_>, ElementId, &[u32], &mut [f32], &mut CascadeScratch) -> Tier1Exits,
    ) -> Vec<RowRun> {
        let pass = Tier1::new(ctx, floor);
        let cand: Vec<u32> = (0..ctx.target.len() as u32).collect();
        ctx.source
            .ids()
            .map(|s| {
                let mut out = CascadeScratch::default();
                let mut slice = vec![f32::NAN; ctx.target.len()];
                let exits = kernel(&pass, s, &cand, &mut slice, &mut out);
                (exits, out.survivors, out.votes, out.pending, slice)
            })
            .collect()
    }

    #[test]
    fn dispatched_kernel_matches_the_portable_build() {
        let (a, b) = fixture();
        let ctx = MatchContext::build(&a, &b, &Normalizer::new());
        for floor in [0.0, 0.3, -0.2] {
            let dispatched = run_rows(&ctx, floor, |p, s, c, sl, o| p.row(s, c, sl, o));
            let portable = run_rows(&ctx, floor, |p, s, c, sl, o| p.row_kernel(s, c, sl, o));
            for (d, p) in dispatched.iter().zip(&portable) {
                assert_eq!(d.0, p.0);
                assert_eq!(d.1, p.1);
                assert_eq!(
                    d.2.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
                    p.2.iter().map(|v| v.to_bits()).collect::<Vec<_>>()
                );
                assert_eq!(d.3, p.3);
                assert_eq!(
                    d.4.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
                    p.4.iter().map(|v| v.to_bits()).collect::<Vec<_>>()
                );
            }
        }
    }

    /// Per pair: the exits partition the row, a pruned pair merges below
    /// the floor under the full panel, every cell is written, and the
    /// votes tier 1 resolves for a survivor are the voters' own.
    #[test]
    fn row_kernel_is_sound_and_resolves_the_panels_votes() {
        let (a, b) = fixture();
        let ctx = MatchContext::build(&a, &b, &Normalizer::new());
        let panel = default_voters();
        let mut pruned_somewhere = false;
        for floor in [0.0, 0.3] {
            for (s, (exits, survivors, votes, pending, slice)) in
                ctx.source
                    .ids()
                    .zip(run_rows(&ctx, floor, |p, s, c, sl, o| p.row(s, c, sl, o)))
            {
                assert_eq!(exits.pruned() + exits.survived(), ctx.target.len() as u64);
                assert_eq!(exits.survived(), survivors.len() as u64);
                pruned_somewhere |= exits.pruned() > 0;
                for t in ctx.target.ids() {
                    let full: Vec<Confidence> = panel.iter().map(|v| v.vote(&ctx, s, t)).collect();
                    let merged = MergeStrategy::HarmonyWeighted.merge(&full).value();
                    match survivors.iter().position(|&c| c == t.0) {
                        None => {
                            assert!(
                                merged < floor,
                                "pruned {s:?}/{t:?} merges {merged} >= {floor}"
                            );
                            assert_eq!(slice[t.index()], 0.0);
                        }
                        Some(i) => {
                            for (lane, vote) in full.iter().enumerate() {
                                if u32::from(pending[i]) & (1 << lane) == 0 {
                                    assert_eq!(
                                        votes[i * LANES + lane],
                                        vote.value(),
                                        "lane {lane}"
                                    );
                                }
                            }
                        }
                    }
                }
            }
        }
        assert!(pruned_somewhere);
    }

    #[test]
    fn type_table_reproduces_the_type_voter() {
        let types = [
            DataType::None,
            DataType::Unknown,
            DataType::Bool,
            DataType::Integer,
            DataType::Decimal {
                precision: 8,
                scale: 2,
            },
            DataType::Decimal {
                precision: 10,
                scale: 2,
            },
            DataType::Float,
            DataType::text(),
            DataType::varchar(0),
            DataType::varchar(20),
            DataType::varchar(50),
            DataType::Date,
            DataType::DateTime,
            DataType::Time,
            DataType::Binary,
            DataType::Enum { variants: 0 },
            DataType::Enum { variants: 4 },
        ];
        let (a, b) = fixture();
        let ctx = MatchContext::build(&a, &b, &Normalizer::new());
        let pass = Tier1::new(&ctx, 0.3);
        let k = TYPE_KINDS.len();
        for &x in &types {
            for &y in &types {
                assert_eq!(type_key(x) == type_key(y), x == y, "{x} vs {y}");
                let table = if type_key(x) == type_key(y) {
                    pass.type_same
                } else {
                    pass.type_kinds[usize::from(type_kind(x)) * k + usize::from(type_kind(y))]
                };
                assert_eq!(table.vote, type_vote(x, y).value(), "{x} vs {y}");
            }
        }
    }

    #[test]
    fn digests_decide_names_and_jaccards_like_the_features() {
        let (a, b) = fixture();
        let ctx = MatchContext::build(&a, &b, &Normalizer::new());
        let pass = Tier1::new(&ctx, 0.3);
        let mut inline = [false, false];
        for s in ctx.source.ids() {
            let row = Row::new(&pass, s);
            let fa = ctx.source_feat(s);
            for t in ctx.target.ids() {
                let (b, fb) = (row.target(t.0), ctx.target_feat(t));
                assert_eq!(row.same_name(b, t.0), fa.name_ids == fb.name_ids);
                let names = !fa.name_set.is_empty() && !fb.name_set.is_empty();
                if names {
                    let on = row.a.flags & b.flags & NAME_INLINE != 0;
                    inline[usize::from(on)] = true;
                    assert_eq!(
                        row.token(b, t.0).jacc,
                        sorted_ids_jaccard(&fa.name_set, &fb.name_set)
                    );
                }
            }
        }
        assert_eq!(
            inline,
            [true, true],
            "both the inline and the walked path ran"
        );
    }

    /// The schema columns mirror the prepared elements they digest, a
    /// pair corpus gives each element as many weights as its digest counts
    /// terms, a row reads its source ids with the source pad while the
    /// stored ids keep the target pad, and the cache prices the columns
    /// as built.
    #[test]
    fn columns_mirror_the_prepared_elements() {
        let (a, b) = fixture();
        let n = Normalizer::new();
        let (pa, pb) = (PreparedSchema::build(&a, &n), PreparedSchema::build(&b, &n));
        let ctx = MatchContext::from_prepared(&a, &b, &pa, &pb);
        let pass = Tier1::new(&ctx, 0.3);
        let mut prefix = 0;
        for (i, e) in pa.elements().iter().enumerate() {
            let (columns, _) = ctx.columns();
            let d = &columns.digests[i];
            assert_eq!(d.name_sig, id_signature(&e.name_set));
            assert_eq!(d.parent_sig, id_signature(&e.parent_set));
            assert_eq!(d.children_sig, id_signature(&e.children_set));
            assert_eq!(d.corpus_sig, id_signature(&e.corpus_ids));
            assert_eq!(columns.edit[i].profile, CharProfile::of_chars(&e.raw_chars));
            assert_eq!(columns.token_stats(i).len(), e.name_bag.tokens.len());
            for (stat, tok) in columns.token_stats(i).iter().zip(&e.name_bag.tokens) {
                assert_eq!(*stat, TokenStat::of(tok));
            }
            let doc = &ctx.source_feat(ElementId(i as u32)).doc_vector;
            assert_eq!(d.doc_terms as usize, doc.term_count());
            assert_eq!(d.doc_tokens as usize, doc.token_count);
            assert_eq!(d.doc_prefix, prefix);
            prefix += d.doc_terms + 1;
            let row = Row::new(&pass, ElementId(i as u32));
            for (stored, read, len) in [
                (d.name_ids, row.a.name_ids, d.name_set_len),
                (d.parent_ids, row.a.parent_ids, d.parent_set_len),
            ] {
                for k in (len as usize).min(INLINE_IDS)..INLINE_IDS {
                    assert_eq!((stored[k], read[k]), (TARGET_PAD, SOURCE_PAD));
                }
            }
        }
        let (built, _) = ctx.columns();
        assert_eq!(
            Columns::estimate_bytes(pa.elements()),
            std::mem::size_of::<Columns>()
                + built.digests.len() * std::mem::size_of::<ColumnDigest>()
                + built.edit.len() * std::mem::size_of::<EditDigest>()
                + built.token_stats.len() * std::mem::size_of::<TokenStat>()
                + built.token_offsets.len() * std::mem::size_of::<u32>()
        );
    }

    #[test]
    fn phi_recovers_numerator_sign_at_zero_floor() {
        assert_eq!(phi(0.5, 0.0), 0.25);
        assert_eq!(phi(-0.5, 0.0), -0.25);
        assert_eq!(phi(0.0, 0.0), 0.0);
    }

    #[test]
    fn phi_linearizes_the_floor_test() {
        // merged = N/D < f ⟺ Σφ < 0: check on a concrete panel.
        let votes = [0.6, -0.3, 0.1];
        let f = 0.35;
        let n: f64 = votes.iter().map(|&v: &f64| v * v.abs()).sum();
        let d: f64 = votes.iter().map(|v| v.abs()).sum();
        let slack: f64 = votes.iter().map(|&v| phi(v, f)).sum();
        assert_eq!(n / d < f, slack < 0.0);
    }

    #[test]
    fn lane_max_covers_the_zero_kink() {
        // φ(u) and φ(l) are both negative for a small positive floor, but
        // a vote of exactly 0 scores 0 — the interval max must include it.
        let f = 0.3;
        let (l, u) = (-0.4, 0.2);
        assert!(phi(l, f) < 0.0 && phi(u, f) < 0.0);
        assert_eq!(lane_max(l, phi(l, f), u, f), 0.0);
        // Interval strictly negative: endpoint max only.
        assert_eq!(lane_max(-0.6, phi(-0.6, f), -0.2, f), phi(-0.2, f));
    }

    #[test]
    fn lane_max_covers_the_negative_floor_apex() {
        // With f < 0 the negative branch −v² + f·v peaks at v = f/2.
        let f = -0.4;
        let apex = 0.5 * f;
        assert!(lane_max(-0.9, phi(-0.9, f), -0.1, f) >= phi(apex, f));
        assert!(phi(apex, f) > phi(-0.9, f) && phi(apex, f) > phi(-0.1, f));
    }
}
