//! Two-tier score cascade over CSR candidate rows.
//!
//! Tier 1 computes, per candidate pair, a provable upper bound on the
//! merged Harmony-weighted score from fixed-width per-element columns
//! (128-bit token signatures, counts, inline id sets, char-count
//! profiles). Pairs whose bound falls below the engine's score floor are
//! written as `0.0` without ever running the expensive voters. Tier 2 then
//! runs the remaining voters structure-of-arrays style — one voter lane at
//! a time over the row's survivors — calling the exact same free-function
//! kernels in `crate::voter` that the per-pair reference path uses, so
//! surviving cells are bit-identical to the reference by construction.
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
//! # Columns and tables
//!
//! Four layers of precomputation keep per-pair work to integer compares,
//! popcounts, table reads and a few multiplies:
//!
//! * **Per schema** ([`Columns`], built by the first cascade pass over each
//!   [`crate::prepare::PreparedSchema`]): one struct-of-arrays column per
//!   field the coarse verdict reads, indexed by element — signatures, set
//!   lengths and token counts, the doc's place in its side's weight
//!   buffer, the raw name's length, Soundex key and acronym keys, and name
//!   and parent sets of up to four ids inline (their exact intersection is
//!   a 4×4 compare, and disjoint signatures settle the rest) — and the raw
//!   name's char profile and first chars, which only phase A reads.
//! * **Per context** ([`Digests`], built on a [`MatchContext`]'s first
//!   cascade pass): each side's squared TF-IDF weight prefixes against the
//!   pair corpus, and each element's type and container flag from its
//!   [`Schema`] ([`TypeDigest`]).
//! * **Per floor** ([`LaneTables`]): the floor fixes `φ`, so every term
//!   that depends only on the floor and small integers is tabled — per
//!   lane, the evidence weight `n/(n+k)` of each count from the voter's
//!   own [`EvidenceLaw`] (no division per pair), an acronym hit per count,
//!   the doc and structure lower votes per count, the edit lane's lower
//!   vote and coarse cap per (count, Soundex verdict), and the token lane's
//!   coarse term and the path vote per (intersection, union, count) of two
//!   sets that ride inline. An entry depends on its indices and the floor
//!   alone, so each thread keeps its last tables and a score pass
//!   ([`Tier1`]) at the same floor reads them when they reach its
//!   context's largest counts; a small pair job tables nothing. The pass
//!   itself holds the role, exact-mismatch and equal-type votes. (The type
//!   vote of two distinct types reads only their variants,
//!   [`DataType::distinct_compatibility`], so that table is built once per
//!   process.)
//! * **Per row** (`Row`): the source's [`Entry`] — only the columns the
//!   gather reads — its inline ids rotated and padded with the source pad,
//!   the exact-name hit vote, the source's row of the type table and its
//!   squared-weight prefix. Phase A reads the source's char profile from
//!   its columns.
//!
//! # The row kernel
//!
//! [`Tier1::row`] scores a row's candidates in blocks of [`BLOCK`], two
//! passes per block over per-lane arrays that live in the worker's
//! [`CascadeScratch`]:
//!
//! 1. **The gather** reads each candidate's column entries — through a
//!    [`View`] that slices every target column to one length, so one
//!    bounds check per candidate covers them — and does the integer work:
//!    inline-id intersections, signature popcounts, evidence counts, and
//!    the table reads they key. Its only branches are predictable: the
//!    rare fallbacks (names longer than four ids to confirm equal, sets
//!    too large to ride inline, which walk their ids), and the structure
//!    lane, gathered only on rows whose source has children.
//! 2. **The f64 pass** runs over every lane of the block without a
//!    branch: φ of the resolved votes, the doc and structure lanes' caps
//!    and [`lane_max`], the slack, and the coarse verdict
//!    `slack + edit ≥ −EPS` with the edit lane at its coarse cap
//!    (Jaro-Winkler and Levenshtein ≤ 1). Lanes past the end of a short
//!    last block hold an earlier block's values; they are computed and
//!    never read back.
//!
//! A pair the verdict leaves open (~16% of the blocked candidates at
//! 1378×784 and floor 0.30, ~2% of the dense pairs) runs phase A, the
//! scalar char-profile edit cap; a survivor then takes its resolved votes
//! from its lane of the block.
//!
//! On x86-64 the same kernel body is also compiled with `popcnt` and
//! `avx2` and chosen at run time when the CPU has both: the signature
//! bounds popcount in hardware and the f64 pass runs four lanes per
//! instruction. Float semantics do not change (nothing contracts into
//! fused multiply-adds), so verdicts are the same bit for bit.
//!
//! # Exit histogram
//!
//! Each row reports where its pairs left tier 1 ([`Tier1Exits`]): coarse
//! prune, phase-A prune, survive. The pipeline sums them per worker and
//! adds them to the `cascade.exit.*` obs counters once per score pass; the
//! two prune exits sum to `pairs_pruned`, the survive exit is `pairs_full`.

use crate::confidence::Confidence;
use crate::context::{ElementFeatures, MatchContext, Side};
use crate::merger::MergeStrategy;
use crate::prepare::{count, PreparedElement};
use crate::voter::{
    doc_vote, edit_distance_vote, exact_mismatch, role_clash, structure_vote, token_vote,
    type_vote_of, EvidenceLaw, ACRONYM_EVIDENCE, ACRONYM_RATIO, DOC_EVIDENCE, EDIT_EVIDENCE,
    EXACT_EVIDENCE, PATH_EVIDENCE, SOFT_DISCOUNT, STRUCTURE_EVIDENCE, TOKEN_EVIDENCE,
};
use sm_schema::{DataType, ElementId, Schema};
use sm_text::bounds::{edit_blend_upper_bound, id_signature, jw_prefix_len, CharProfile};
use sm_text::intern::{sorted_ids_intersection, to_sorted_set, TokenId};
use std::sync::{Arc, OnceLock};

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

/// Candidates per block of the row kernel: two AVX2 vectors of `f64` per
/// lane array.
pub(crate) const BLOCK: usize = 8;

/// Margin absorbing f64 rounding-order differences between the bound
/// arithmetic here and the reference merge. Both are exact to ~1e-15
/// relative, so 1e-9 is ample and costs essentially no pruning power.
const EPS: f64 = 1e-9;

/// Id sets of at most this many ids ride inline in [`Columns`]: their
/// exact intersection is a 4×4 compare, not a merge walk behind a pointer.
const INLINE_IDS: usize = 4;
/// Padding of a source row's inline ids, swapped in for the stored
/// [`TARGET_PAD`] when the row reads its columns ([`Row::new`]). Source and
/// target pad with different values and sets holding either value never go
/// inline, so a pad matches nothing on the other side.
const SOURCE_PAD: u32 = u32::MAX;
/// Padding of the inline ids every [`Columns`] stores.
const TARGET_PAD: u32 = u32::MAX - 1;

/// Unions of two inline sets run `0..=2·INLINE_IDS`.
const UNIONS: usize = 2 * INLINE_IDS + 1;
/// Overlap slots per evidence count in the token and path tables: slot
/// `intersection · UNIONS + union` of two sets that ride inline.
const OVERLAPS: usize = (INLINE_IDS + 1) * UNIONS;
/// The overlap slot of two sets that share nothing, whatever their sizes:
/// intersection 0 over union 1 is the same `0.0` Jaccard as over any other.
const DISJOINT: usize = 1;

/// [`Columns::flags`]: the raw name has a Soundex key.
const SOUNDEX: u8 = 1;
/// [`Columns::flags`]: the name set rides inline.
const NAME_INLINE: u8 = 2;
/// [`Columns::flags`]: the parent-name set rides inline.
const PARENT_INLINE: u8 = 4;

/// [`Columns::raw_key`] of a raw name the acronym voter does not read:
/// one shorter than two bytes ([`PreparedElement::raw_name_spans_two_bytes`]).
const NO_RAW: u64 = u64::MAX;
/// [`Columns::acronym_key`] of an acronym the acronym voter does not read:
/// of a raw name shorter than two bytes, or of a name of one token. It
/// differs from [`NO_RAW`] and from every id, so a pair hits only when both
/// sides pass the voter's gates.
const NO_ACRONYM: u64 = u64::MAX - 1;

/// Declares [`Columns`] with one `Vec` column per listed field, and from the
/// same lists [`Entry`] (one element's entry in the columns a row's gather
/// reads, the first list), [`View`] (every column sliced to one length) and
/// [`COLUMN_BYTES`].
macro_rules! columns {
    (
        gathered { $($(#[$doc:meta])* $field:ident: $ty:ty,)* }
        rest { $($(#[$rest_doc:meta])* $rest:ident: $rest_ty:ty,)* }
    ) => {
        /// The score cascade's tier-1 columns of one prepared schema: one
        /// struct-of-arrays column per field tier 1 reads, indexed by
        /// element. They read only [`PreparedElement`]s, so every match
        /// context over the preparation shares them.
        #[derive(Debug, Default)]
        pub(crate) struct Columns {
            $($(#[$doc])* $field: Vec<$ty>,)*
            $($(#[$rest_doc])* $rest: Vec<$rest_ty>,)*
        }

        /// One element's entry in the columns the gather reads, and its
        /// [`TypeDigest`]: what a [`Row`] copies of its source.
        #[derive(Clone, Copy)]
        struct Entry {
            $($field: $ty,)*
            types: TypeDigest,
        }

        /// Every column of one side and its [`TypeDigest`]s, sliced to the
        /// side's element count, so that one bounds check per element
        /// covers every read.
        struct View<'a> {
            $($field: &'a [$ty],)*
            $($rest: &'a [$rest_ty],)*
            types: &'a [TypeDigest],
        }

        impl Columns {
            /// The columns, with `types`, as a [`View`].
            #[inline(always)]
            fn view<'a>(&'a self, types: &'a [TypeDigest]) -> View<'a> {
                let n = types.len();
                View {
                    $($field: &self.$field[..n],)*
                    $($rest: &self.$rest[..n],)*
                    types: &types[..n],
                }
            }

            /// Element `i`'s entry, with its type digest from `types`.
            fn entry(&self, i: usize, types: &[TypeDigest]) -> Entry {
                Entry {
                    $($field: self.$field[i],)*
                    types: types[i],
                }
            }

            /// Heap bytes of the built columns.
            #[cfg(test)]
            fn heap_bytes(&self) -> usize {
                0 $(+ std::mem::size_of_val(&self.$field[..]))*
                    $(+ std::mem::size_of_val(&self.$rest[..]))*
            }
        }

        /// Heap bytes per element of [`Columns`]: every column's entry.
        const COLUMN_BYTES: usize =
            0 $(+ std::mem::size_of::<$ty>())* $(+ std::mem::size_of::<$rest_ty>())*;
    };
}

columns! {
    gathered {
        name_sig: u128,
        parent_sig: u128,
        children_sig: u128,
        corpus_sig: u128,
        /// Set length minus signature popcount, of the children set and the
        /// doc terms: with it, one popcount gives the signature cap on an
        /// intersection ([`shared_bound`]).
        children_excess: u32,
        corpus_excess: u32,
        /// The first [`INLINE_IDS`] ids of the name sequence, zero-padded:
        /// with equal lengths up to [`INLINE_IDS`], equal arrays are equal
        /// sequences.
        name_head: [u32; INLINE_IDS],
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
        raw_chars: u32,
        /// The raw-name id, or [`NO_RAW`].
        raw_key: u64,
        /// The acronym id, or [`NO_ACRONYM`].
        acronym_key: u64,
        soundex: u32,
        flags: u8,
    }
    rest {
        /// The name set, padded with [`TARGET_PAD`], when it rides inline
        /// ([`NAME_INLINE`]).
        name_ids: [u32; INLINE_IDS],
        /// The parent-name set, padded with [`TARGET_PAD`], when it rides
        /// inline ([`PARENT_INLINE`]).
        parent_ids: [u32; INLINE_IDS],
        /// Start of the element's squared-weight prefix in its side's buffer
        /// ([`Digests`]): each element before it takes `doc_terms + 1` slots.
        doc_prefix: u32,
        /// The raw name's char profile, for phase A's edit cap.
        profile: CharProfile,
        /// The raw name's first `min(len, 4)` chars, `'\0'`-padded: phase A's
        /// exact Jaro-Winkler prefix.
        first_chars: [char; 4],
    }
}

/// The first `N` items, padded with `pad`.
fn padded<T: Copy, const N: usize>(items: impl IntoIterator<Item = T>, pad: T) -> [T; N] {
    let mut head = [pad; N];
    for (slot, item) in head.iter_mut().zip(items) {
        *slot = item;
    }
    head
}

/// The raw ids of a set or sequence.
fn raw(ids: &[TokenId]) -> impl Iterator<Item = u32> + '_ {
    ids.iter().map(|id| id.0)
}

/// A set's length minus the popcount of its signature (`ids` may repeat).
fn excess(ids: &[TokenId], len: usize) -> u32 {
    count(len) - id_signature(ids).count_ones()
}

/// [`sm_text::bounds::signature_intersection_bound`] from two signatures
/// and their [`excess`]es, with one popcount: every bit of `a & !b`
/// witnesses an element of `A` outside `B`, so
/// `|A ∩ B| ≤ |A| − (popcount(a) − popcount(a & b))`, which is
/// `popcount(a & b) + excess(A)`, and symmetrically for `B`. (The bound's
/// caps at `|A|` and `|B|` never bind: `popcount(a & b) ≤ popcount(a)`.)
#[inline(always)]
fn shared_bound(a_sig: u128, a_excess: u32, b_sig: u128, b_excess: u32) -> usize {
    ((a_sig & b_sig).count_ones() + a_excess.min(b_excess)) as usize
}

/// True when a set can ride inline: it fits, and holds no pad value.
fn fits_inline(set: &[TokenId]) -> bool {
    set.len() <= INLINE_IDS && set.iter().all(|id| id.0 < TARGET_PAD)
}

impl Columns {
    /// The columns of every element of a preparation, from a context's
    /// features.
    pub(crate) fn build(elements: &[ElementFeatures]) -> Self {
        fn column<T>(elements: &[ElementFeatures], f: impl Fn(&ElementFeatures) -> T) -> Vec<T> {
            elements.iter().map(f).collect()
        }
        let doc_terms = column(elements, |e| {
            count(to_sorted_set(e.corpus_ids.clone()).len())
        });
        let mut next = 0;
        let doc_prefix = doc_terms
            .iter()
            .map(|&terms| {
                let at = next;
                next += terms + 1;
                at
            })
            .collect();
        Columns {
            name_sig: column(elements, |e| id_signature(&e.name_set)),
            parent_sig: column(elements, |e| id_signature(&e.parent_set)),
            children_sig: column(elements, |e| id_signature(&e.children_set)),
            corpus_sig: column(elements, |e| id_signature(&e.corpus_ids)),
            children_excess: column(elements, |e| excess(&e.children_set, e.children_set.len())),
            corpus_excess: doc_terms
                .iter()
                .zip(elements)
                .map(|(&terms, e)| excess(&e.corpus_ids, terms as usize))
                .collect(),
            name_head: column(elements, |e| padded(raw(&e.name_ids), 0)),
            name_ids: column(elements, |e| padded(raw(&e.name_set), TARGET_PAD)),
            parent_ids: column(elements, |e| padded(raw(&e.parent_set), TARGET_PAD)),
            name_len: column(elements, |e| count(e.name_ids.len())),
            name_set_len: column(elements, |e| count(e.name_set.len())),
            parent_set_len: column(elements, |e| count(e.parent_set.len())),
            parent_len: column(elements, |e| e.parent_len),
            children_set_len: column(elements, |e| count(e.children_set.len())),
            children_len: column(elements, |e| e.children_len),
            doc_terms,
            doc_tokens: column(elements, |e| count(e.corpus_ids.len())),
            doc_prefix,
            raw_chars: column(elements, |e| count(e.raw_chars.len())),
            raw_key: column(elements, |e| match e.raw_name_spans_two_bytes() {
                true => u64::from(e.raw_name_id.0),
                false => NO_RAW,
            }),
            acronym_key: column(elements, |e| {
                match e.raw_name_spans_two_bytes() && e.name_ids.len() >= 2 {
                    true => u64::from(e.acronym_id.0),
                    false => NO_ACRONYM,
                }
            }),
            soundex: column(elements, |e| e.raw_soundex.unwrap_or(0)),
            flags: column(elements, |e| {
                (SOUNDEX * u8::from(e.raw_soundex.is_some()))
                    | (NAME_INLINE * u8::from(fits_inline(&e.name_set)))
                    | (PARENT_INLINE * u8::from(fits_inline(&e.parent_set)))
            }),
            profile: column(elements, |e| CharProfile::of_chars(&e.raw_chars)),
            first_chars: column(elements, |e| padded(e.raw_chars.iter().copied(), '\0')),
        }
    }

    /// Estimated heap bytes of the columns of `elements`, priced like
    /// [`crate::prepare::PreparedSchema::estimate_bytes`] whether or not
    /// they are built yet: the feature cache prices an entry once, when it
    /// admits it.
    pub(crate) fn estimate_bytes(elements: &[Arc<PreparedElement>]) -> usize {
        std::mem::size_of::<Columns>() + elements.len() * COLUMN_BYTES
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
/// prefixes.
pub(crate) struct Digests {
    source_types: Vec<TypeDigest>,
    target_types: Vec<TypeDigest>,
    source_prefix: Vec<f64>,
    target_prefix: Vec<f64>,
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

/// The type vote of two distinct types, by (source, target) variant:
/// the same for every pass, so tabled once per process.
fn distinct_type_votes() -> &'static [[f64; TYPE_KINDS.len()]; TYPE_KINDS.len()] {
    static VOTES: OnceLock<[[f64; TYPE_KINDS.len()]; TYPE_KINDS.len()]> = OnceLock::new();
    VOTES.get_or_init(|| {
        TYPE_KINDS.map(|a| TYPE_KINDS.map(|b| type_vote_of(a.distinct_compatibility(b)).value()))
    })
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
        let prefix = |side: Side, schema: &Schema, columns: &Columns| {
            let mut prefix = Vec::new();
            for (i, id) in schema.ids().enumerate() {
                let doc = ctx.doc_vector(side, id);
                debug_assert_eq!(count(prefix.len()), columns.doc_prefix[i]);
                debug_assert_eq!(count(doc.term_count()), columns.doc_terms[i]);
                doc.append_top_squared_prefix(&mut prefix);
            }
            prefix
        };
        Digests {
            source_types: types(ctx.source),
            target_types: types(ctx.target),
            source_prefix: prefix(Side::Source, ctx.source, source),
            target_prefix: prefix(Side::Target, ctx.target, target),
        }
    }
}

/// One block's per-lane terms, lane `i` for the block's `i`-th candidate:
/// the gather writes the inputs, the f64 pass the slack and the verdict.
#[derive(Default)]
struct BlockLanes {
    /// Resolved votes: the exact-name, type, path, role and acronym lanes.
    exact: [f64; BLOCK],
    types: [f64; BLOCK],
    path: [f64; BLOCK],
    role: [f64; BLOCK],
    acronym: [f64; BLOCK],
    /// The token lane's coarse term, `0.0` when a side has no name.
    token: [f64; BLOCK],
    /// The doc lane's lower vote (cosine 0), `0.0` when a side has no doc;
    /// with `doc_open` it is the low end of the lane's interval, without it
    /// the lane's resolved vote.
    doc_lower: [f64; BLOCK],
    doc_weight: [f64; BLOCK],
    /// The two sides' sums of their top `shared` squared weights, where
    /// `shared` caps the doc terms the pair shares.
    doc_source: [f64; BLOCK],
    doc_target: [f64; BLOCK],
    doc_open: [bool; BLOCK],
    /// The structure lane, like the doc lane: its lower vote and weight, and
    /// the signature cap on the children sets' intersection and union.
    kids_lower: [f64; BLOCK],
    kids_weight: [f64; BLOCK],
    kids_inter: [f64; BLOCK],
    kids_union: [f64; BLOCK],
    kids_open: [bool; BLOCK],
    /// The edit lane's coarse cap, `0.0` when a side has no raw name.
    edit: [f64; BLOCK],
    /// The edit lane's table key: `2 · count + Soundex hit`.
    edit_key: [u32; BLOCK],
    /// Lanes tier 2 must still run.
    pending: [u8; BLOCK],
    /// Written by the f64 pass: the slack without the edit lane, and
    /// whether the coarse verdict leaves the pair open.
    slack: [f64; BLOCK],
    open: [bool; BLOCK],
    /// The open lanes, compacted.
    kept: [u8; BLOCK],
}

impl BlockLanes {
    /// The f64 pass over every lane: φ of the resolved votes, the doc and
    /// structure caps, the slack and the coarse verdict. Each loop is
    /// branch-free, so it compiles to vector code; the structure lane's
    /// loop runs on rows whose source has children (`kids`).
    #[inline(always)]
    fn verdicts(&mut self, floor: f64, kids: bool) {
        for i in 0..BLOCK {
            let mut slack = 0.0;
            for v in [
                self.exact[i],
                self.types[i],
                self.path[i],
                self.role[i],
                self.acronym[i],
            ] {
                slack += phi(v, floor);
            }
            slack += self.token[i];
            // Doc lane: Cauchy-Schwarz over the shared-term cap, then the
            // voter's cosine transform.
            let doc = self.doc_lower[i];
            let dot_ub = (self.doc_source[i] * self.doc_target[i]).sqrt().min(1.0);
            let doc_cap = lane_max(doc, vote(dot_ub.sqrt(), self.doc_weight[i]), floor);
            slack += if self.doc_open[i] {
                doc_cap
            } else {
                phi(doc, floor)
            };
            self.slack[i] = slack;
        }
        // Structure lane: the children-signature Jaccard cap, on rows whose
        // source has children. On the others the lane is absent, and its
        // `φ(0) = +0.0` would change no slack: a sum that starts at `+0.0`
        // is never `-0.0`.
        if kids {
            for i in 0..BLOCK {
                let lower = self.kids_lower[i];
                let jacc = self.kids_inter[i] / self.kids_union[i];
                let cap = lane_max(lower, vote(jacc, self.kids_weight[i]), floor);
                self.slack[i] += if self.kids_open[i] {
                    cap
                } else {
                    phi(lower, floor)
                };
            }
        }
        for i in 0..BLOCK {
            self.open[i] = self.slack[i] + self.edit[i] >= -EPS;
        }
    }

    /// Lane `i`'s votes in panel order, `0.0` on the lanes tier 2 runs.
    fn votes(&self, i: usize) -> [f64; LANES] {
        let mut votes = [0.0f64; LANES];
        votes[LANE_EXACT] = self.exact[i];
        votes[LANE_DOC] = if self.doc_open[i] {
            0.0
        } else {
            self.doc_lower[i]
        };
        votes[LANE_TYPE] = self.types[i];
        votes[LANE_PATH] = self.path[i];
        votes[LANE_STRUCT] = if self.kids_open[i] {
            0.0
        } else {
            self.kids_lower[i]
        };
        votes[LANE_ROLE] = self.role[i];
        votes[LANE_ACRONYM] = self.acronym[i];
        votes
    }
}

/// Reusable per-worker buffers for one row's cascade. Cleared and refilled
/// per row; allocations amortize across the whole run.
#[derive(Default)]
pub(crate) struct CascadeScratch {
    /// The block being scored.
    lanes: BlockLanes,
    /// `LANES` vote values per survivor, panel order, survivor-major.
    votes: Vec<f64>,
    /// Per-survivor bitmask of lanes still awaiting their tier-2 vote.
    pending: Vec<u8>,
    /// Target column ids of pairs that survived tier 1.
    survivors: Vec<u32>,
    /// Merge input buffer (reused across survivors).
    scratch: Vec<Confidence>,
}

/// Where tier 1 settled each pair of a row — the three exits, in the order
/// the kernel reaches them.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub(crate) struct Tier1Exits {
    /// Pruned by the coarse verdict, the edit lane at its coarse cap.
    pub(crate) coarse_prune: u64,
    /// Pruned once the edit lane's char-profile cap replaced the coarse one.
    pub(crate) phase_a_prune: u64,
    /// Survived both and handed to tier 2.
    pub(crate) final_survive: u64,
}

impl Tier1Exits {
    /// Pairs written as `0.0` without running tier 2.
    pub(crate) fn pruned(&self) -> u64 {
        self.coarse_prune + self.phase_a_prune
    }

    pub(crate) fn add(&mut self, other: &Tier1Exits) {
        self.coarse_prune += other.coarse_prune;
        self.phase_a_prune += other.phase_a_prune;
        self.final_survive += other.final_survive;
    }
}

/// The linearized per-vote score `φ(v) = v·|v| − floor·|v|`; the merged
/// score is below the floor iff `Σ φ(vᵢ) < 0` (see the module doc).
#[inline(always)]
fn phi(v: f64, floor: f64) -> f64 {
    v * v.abs() - floor * v.abs()
}

/// Maximum of `φ` over a vote interval `[l, u]`.
/// `φ` is quadratic on each sign branch: on `v ≥ 0` it opens upward
/// (interior minimum only), on `v < 0` downward with its apex at
/// `floor/2` — reachable only when the floor is negative. The kink at
/// `v = 0` always scores `φ(0) = 0`.
#[inline(always)]
fn lane_max(l: f64, u: f64, floor: f64) -> f64 {
    let m = phi(l, floor).max(phi(u, floor));
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

/// The edit lane's tabled terms for one evidence count and Soundex verdict.
#[derive(Debug, Clone, Copy, Default)]
struct EditFixed {
    /// The lower vote: Jaro-Winkler and Levenshtein at 0.
    lower: f64,
    /// The lane at its coarse cap (Jaro-Winkler and Levenshtein at 1).
    coarse: f64,
}

/// [`Confidence::weighted`]`(ratio, weight).value()` for a `ratio` in
/// `[0, 1]`, where the ratio clamp is a no-op, without the NaN test: a NaN
/// ratio only arises in a lane the caller masks off (an empty side's
/// `0/0` Jaccard), so the vote never needs to be neutral here.
#[inline(always)]
fn vote(ratio: f64, weight: f64) -> f64 {
    ((2.0 * ratio - 1.0) * weight).clamp(-Confidence::LIMIT, Confidence::LIMIT)
}

/// `x` when `on`, else `+0.0`, by a mask on the bits.
#[inline(always)]
fn keep(x: f64, on: bool) -> f64 {
    f64::from_bits(x.to_bits() & u64::from(on).wrapping_neg())
}

/// The Jaccard ratio of an intersection and a union — what
/// [`sm_text::intern::sorted_ids_jaccard`] computes for two non-empty sets.
#[inline(always)]
fn jaccard(inter: usize, union: usize) -> f64 {
    inter as f64 / union as f64
}

/// The token lane's coarse term for a name-set Jaccard: `lane_max` from the
/// exact Jaccard half of the blend to the soft half capped at 1.
fn token_cap(jacc: f64, weight: f64, floor: f64) -> f64 {
    lane_max(
        vote(jacc, weight),
        vote(jacc.max(SOFT_DISCOUNT), weight),
        floor,
    )
}

/// One set overlap of a pair, as the token and path lanes key it.
enum Overlap {
    /// Both sets ride inline, or their signatures prove them disjoint: the
    /// overlap slot in the lane's table.
    Slot(usize),
    /// The walked sets' Jaccard.
    Walked(f64),
}

/// The overlap of a source set (its inline ids rotated, [`Row::new`]) and
/// a target set: a 4×4 compare when both ride inline (`inline`), else
/// the empty overlap for disjoint signatures, else the merge walk `walk`.
/// Sets are deduplicated, so the number of target ids equal to some
/// source id is the intersection size.
#[inline(always)]
fn overlap<'s>(
    inline: bool,
    (a_rot, la, a_sig): (&[[u32; INLINE_IDS]; INLINE_IDS], u32, u128),
    (b_ids, lb, b_sig): (&[u32; INLINE_IDS], u32, u128),
    walk: impl FnOnce() -> (&'s [TokenId], &'s [TokenId]),
) -> Overlap {
    if inline {
        let mut hit = [false; INLINE_IDS];
        for rot in a_rot {
            for (h, (&b, &a)) in hit.iter_mut().zip(b_ids.iter().zip(rot)) {
                *h |= b == a;
            }
        }
        let inter = hit.iter().map(|&h| u32::from(h)).sum::<u32>();
        Overlap::Slot(inter as usize * UNIONS + (la + lb - inter) as usize)
    } else if a_sig & b_sig == 0 {
        Overlap::Slot(DISJOINT)
    } else {
        let (a, b) = walk();
        let inter = sorted_ids_intersection(a, b);
        Overlap::Walked(jaccard(inter, a.len() + b.len() - inter))
    }
}

/// The lanes whose terms [`LaneTables`] tables by evidence count, as
/// indices into its sizes.
const TOKEN: usize = 0;
const EDIT: usize = 1;
const DOC: usize = 2;
const PATH: usize = 3;
const STRUCTURE: usize = 4;
const ACRONYM: usize = 5;

/// Every lane term of tier 1 that depends only on the floor and small
/// integers — an evidence count, a Soundex verdict, a set overlap — tabled
/// by count up to a size per lane ([`TOKEN`] … [`ACRONYM`]). An entry is a
/// function of its indices and the floor alone, so two tables of one floor
/// agree wherever both have it, and a score pass can read any table of its
/// floor that reaches its context's largest counts
/// ([`LaneTables::for_pass`]).
struct LaneTables {
    floor: f64,
    /// Evidence weight by count, of the token, edit and path lanes
    /// (the others' weights sit in their tables below).
    token_weight: Vec<f64>,
    edit_weight: Vec<f64>,
    path_weight: Vec<f64>,
    /// By acronym-evidence count: an acronym hit.
    acronym_hit: Vec<f64>,
    /// By doc-evidence count: the lower doc vote (cosine 0) and the lane's
    /// weight.
    doc: Vec<(f64, f64)>,
    /// By structure-evidence count: the lower structure vote (Jaccard 0)
    /// and the lane's weight.
    kids: Vec<(f64, f64)>,
    /// By edit-evidence count, then Soundex miss / hit.
    edit: Vec<EditFixed>,
    /// By token-evidence count, then overlap slot: the token lane's coarse
    /// term ([`token_cap`]).
    token: Vec<f64>,
    /// By path-evidence count, then overlap slot: the path vote.
    path: Vec<f64>,
}

impl LaneTables {
    /// Tables of `floor` holding `sizes[lane]` counts per lane.
    fn build(floor: f64, sizes: [usize; 6]) -> Self {
        let weights = |law: EvidenceLaw, lane: usize| -> Vec<f64> {
            (0..sizes[lane]).map(|n| law.weight(n)).collect()
        };
        let lower = |table: Vec<f64>| table.into_iter().map(|w| (vote(0.0, w), w)).collect();
        // Only the slots two inline sets reach are computed: intersection
        // at most the union, the two summing to at most both sets' sizes.
        // An empty intersection scores the same over any union.
        let overlaps = |table: &[f64], term: &dyn Fn(f64, f64) -> f64| {
            let reachable =
                |inter: usize, union: usize| inter <= union && inter + union <= 2 * INLINE_IDS;
            table
                .iter()
                .flat_map(|&w| {
                    let disjoint = term(0.0, w);
                    (0..OVERLAPS).map(move |slot| match (slot / UNIONS, slot % UNIONS) {
                        (0, _) => disjoint,
                        (inter, union) if reachable(inter, union) => term(jaccard(inter, union), w),
                        _ => f64::NAN,
                    })
                })
                .collect()
        };
        let token_weight = weights(TOKEN_EVIDENCE, TOKEN);
        let edit_weight = weights(EDIT_EVIDENCE, EDIT);
        let path_weight = weights(PATH_EVIDENCE, PATH);
        let edit = edit_weight
            .iter()
            .flat_map(|&w| {
                [0.0, 1.0].map(|sdx| {
                    let lower = vote(0.1 * sdx, w);
                    EditFixed {
                        lower,
                        coarse: lane_max(lower, vote(0.9 + 0.1 * sdx, w), floor),
                    }
                })
            })
            .collect();
        LaneTables {
            floor,
            acronym_hit: weights(ACRONYM_EVIDENCE, ACRONYM)
                .into_iter()
                .map(|w| vote(ACRONYM_RATIO, w))
                .collect(),
            doc: lower(weights(DOC_EVIDENCE, DOC)),
            kids: lower(weights(STRUCTURE_EVIDENCE, STRUCTURE)),
            edit,
            token: overlaps(&token_weight, &|jacc, w| token_cap(jacc, w, floor)),
            path: overlaps(&path_weight, &vote),
            token_weight,
            edit_weight,
            path_weight,
        }
    }

    /// Counts per lane a pass over `source` and `target` can produce:
    /// each lane's law over the two sides' largest counts.
    fn sizes_for(source: &Columns, target: &Columns) -> [usize; 6] {
        let size = |law: EvidenceLaw, column: fn(&Columns) -> &[u32]| {
            let max = |side| column(side).iter().copied().max().unwrap_or(0) as usize;
            law.count(max(source), max(target)) + 1
        };
        [
            size(TOKEN_EVIDENCE, |c| &c.name_len),
            size(EDIT_EVIDENCE, |c| &c.raw_chars),
            size(DOC_EVIDENCE, |c| &c.doc_tokens),
            size(PATH_EVIDENCE, |c| &c.parent_len),
            size(STRUCTURE_EVIDENCE, |c| &c.children_len),
            size(ACRONYM_EVIDENCE, |c| &c.name_len),
        ]
    }

    /// Counts tabled per lane.
    fn sizes(&self) -> [usize; 6] {
        [
            self.token_weight.len(),
            self.edit_weight.len(),
            self.doc.len(),
            self.path_weight.len(),
            self.kids.len(),
            self.acronym_hit.len(),
        ]
    }

    /// Tables of `floor` holding at least `sizes[lane]` counts per lane:
    /// the calling thread's last tables when they are of `floor` and reach
    /// that far, else new ones, which the thread keeps instead — sized to
    /// cover both, when the last ones were of the same floor.
    fn for_pass(floor: f64, mut sizes: [usize; 6]) -> Arc<LaneTables> {
        thread_local! {
            static LAST: std::cell::RefCell<Option<Arc<LaneTables>>> =
                const { std::cell::RefCell::new(None) };
        }
        LAST.with(|last| {
            let mut last = last.borrow_mut();
            if let Some(tables) = last
                .as_ref()
                .filter(|t| t.floor.to_bits() == floor.to_bits())
            {
                let held = tables.sizes();
                if held.iter().zip(&sizes).all(|(held, need)| held >= need) {
                    return Arc::clone(tables);
                }
                for (need, held) in sizes.iter_mut().zip(held) {
                    *need = (*need).max(held);
                }
            }
            let tables = Arc::new(LaneTables::build(floor, sizes));
            *last = Some(Arc::clone(&tables));
            tables
        })
    }
}

/// Tier 1 of one score pass: both schemata's columns and the context's
/// digests, plus the lane terms of the pass's floor ([`LaneTables`]).
pub(crate) struct Tier1<'a> {
    ctx: &'a MatchContext<'a>,
    source: &'a Columns,
    target: &'a Columns,
    dig: &'a Digests,
    floor: f64,
    /// The type vote of two equal types.
    type_same: f64,
    role_clash: f64,
    exact_miss: f64,
    tables: Arc<LaneTables>,
}

impl<'a> Tier1<'a> {
    /// Tier 1 of one score pass over `ctx` at `floor`, with lane tables
    /// that reach every count the context's columns can produce.
    pub(crate) fn new(ctx: &'a MatchContext<'a>, floor: f64) -> Self {
        let dig = ctx.digests();
        let (source, target) = ctx.columns();
        Tier1 {
            ctx,
            source,
            target,
            dig,
            floor,
            type_same: type_vote_of(1.0).value(),
            role_clash: role_clash().value(),
            exact_miss: exact_mismatch().value(),
            tables: LaneTables::for_pass(floor, LaneTables::sizes_for(source, target)),
        }
    }

    /// Tier 1 over one CSR candidate row: write `0.0` for every pruned
    /// cell, stash survivors' votes in `out`, and report where each pair
    /// exited.
    ///
    /// Block by block: the gather and the f64 pass give every candidate its
    /// coarse verdict, the open ones run phase A, and survivors record
    /// their votes from the block.
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
    /// target lowers to a bit-twiddling sequence, and the f64 pass runs on
    /// 256-bit vectors. Float semantics are unchanged (no contraction into
    /// fused multiply-adds), so both builds give bit-identical verdicts.
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
        let CascadeScratch {
            lanes,
            votes,
            pending,
            survivors,
            ..
        } = out;
        votes.clear();
        pending.clear();
        survivors.clear();
        let (row, view) = (Row::new(self, s), self.target.view(&self.dig.target_types));
        let mut exits = Tier1Exits::default();
        for block in cand.chunks(BLOCK) {
            row.gather(&view, block, lanes);
            lanes.verdicts(self.floor, row.a.children_set_len != 0);
            let mut open = 0usize;
            for (i, &t) in block.iter().enumerate() {
                slice[t as usize] = 0.0;
                lanes.kept[open] = i as u8;
                open += usize::from(lanes.open[i]);
            }
            exits.coarse_prune += (block.len() - open) as u64;
            for &i in &lanes.kept[..open] {
                let i = usize::from(i);
                let t = block[i];
                if !row.phase_a(&view, t, lanes, i) {
                    exits.phase_a_prune += 1;
                    continue;
                }
                exits.final_survive += 1;
                survivors.push(t);
                votes.extend_from_slice(&lanes.votes(i));
                pending.push(lanes.pending[i]);
            }
        }
        exits
    }
}

/// The constants of one candidate row: the source's entry in the columns
/// the gather reads, its inline ids rotated and padded with the source pad,
/// and every term that depends on the source element alone.
struct Row<'a> {
    pass: &'a Tier1<'a>,
    tables: &'a LaneTables,
    fa: &'a ElementFeatures,
    /// The source's element index (phase A reads its char profile).
    s: usize,
    a: Entry,
    /// The source's inline name and parent ids, each rotation `k` holding
    /// id `(j + k) % INLINE_IDS` in slot `j`, padded with [`SOURCE_PAD`].
    name_rot: [[u32; INLINE_IDS]; INLINE_IDS],
    parent_rot: [[u32; INLINE_IDS]; INLINE_IDS],
    /// Type votes of the source's type against a distinct one, by the
    /// target's variant.
    distinct_types: &'static [f64; TYPE_KINDS.len()],
    /// The source's squared-weight prefix.
    doc_prefix: &'a [f64],
    exact_hit: f64,
}

impl<'a> Row<'a> {
    fn new(pass: &'a Tier1<'a>, s: ElementId) -> Self {
        let (source, s) = (pass.source, s.index());
        let a = source.entry(s, &pass.dig.source_types);
        let rotations = |ids: [u32; INLINE_IDS]| {
            let ids = ids.map(|id| if id == TARGET_PAD { SOURCE_PAD } else { id });
            std::array::from_fn(|k| std::array::from_fn(|j| ids[(j + k) % INLINE_IDS]))
        };
        let n = a.name_len as usize;
        Row {
            pass,
            tables: &pass.tables,
            fa: pass.ctx.source_feat(ElementId(s as u32)),
            s,
            a,
            name_rot: rotations(source.name_ids[s]),
            parent_rot: rotations(source.parent_ids[s]),
            distinct_types: &distinct_type_votes()[usize::from(a.types.kind)],
            doc_prefix: &pass.dig.source_prefix[source.doc_prefix[s] as usize..],
            exact_hit: EXACT_EVIDENCE.vote(1.0, n, n).value(),
        }
    }

    #[inline(always)]
    fn target_feat(&self, t: usize) -> &'a ElementFeatures {
        self.pass.ctx.target_feat(ElementId(t as u32))
    }

    /// Same interned name sequence on both sides: equal lengths and
    /// heads decide it, unless the names are longer than the heads.
    #[inline(always)]
    fn same_name(&self, c: &View<'_>, t: usize) -> bool {
        (self.a.name_len == c.name_len[t]) & (self.a.name_head == c.name_head[t])
            && (self.a.name_len as usize <= INLINE_IDS
                || self.fa.name_ids == self.target_feat(t).name_ids)
    }

    /// The name sets' overlap.
    #[inline(always)]
    fn name_overlap(&self, c: &View<'_>, t: usize) -> Overlap {
        overlap(
            self.a.flags & c.flags[t] & NAME_INLINE != 0,
            (&self.name_rot, self.a.name_set_len, self.a.name_sig),
            (&c.name_ids[t], c.name_set_len[t], c.name_sig[t]),
            || (&self.fa.name_set[..], &self.target_feat(t).name_set[..]),
        )
    }

    /// The gather over one block: each candidate's integer work and the
    /// table reads it keys, into lane `i` of `lanes` for the block's `i`-th
    /// candidate.
    #[inline(always)]
    fn gather(&self, c: &View<'_>, block: &[u32], lanes: &mut BlockLanes) {
        let (pass, tables) = (self.pass, self.tables);
        for (i, &t) in block.iter().enumerate() {
            let t = t as usize;
            let flags = c.flags[t];

            // Names: the exact-name, token and acronym lanes.
            let name_len = c.name_len[t];
            let names = (self.a.name_len != 0) & (name_len != 0);
            let exact = if self.same_name(c, t) {
                self.exact_hit
            } else {
                pass.exact_miss
            };
            lanes.exact[i] = keep(exact, names);
            let count = TOKEN_EVIDENCE.count(self.a.name_len as usize, name_len as usize);
            let token = match self.name_overlap(c, t) {
                Overlap::Slot(slot) => tables.token[count * OVERLAPS + slot],
                Overlap::Walked(jacc) => token_cap(jacc, tables.token_weight[count], pass.floor),
            };
            lanes.token[i] = keep(token, names);
            let acronym_hit =
                (self.a.raw_key == c.acronym_key[t]) | (c.raw_key[t] == self.a.acronym_key);
            let count = ACRONYM_EVIDENCE.count(self.a.name_len as usize, name_len as usize);
            lanes.acronym[i] = keep(tables.acronym_hit[count], acronym_hit);

            // Types: the type table and the container flags.
            let b = &c.types[t];
            lanes.types[i] = if self.a.types.key == b.key {
                pass.type_same
            } else {
                self.distinct_types[usize::from(b.kind)]
            };
            lanes.role[i] = keep(pass.role_clash, self.a.types.container != b.container);

            // Path: the parent sets' Jaccard.
            let set_len = c.parent_set_len[t];
            let count = PATH_EVIDENCE.count(self.a.parent_len as usize, c.parent_len[t] as usize);
            let path = match overlap(
                self.a.flags & flags & PARENT_INLINE != 0,
                (&self.parent_rot, self.a.parent_set_len, self.a.parent_sig),
                (&c.parent_ids[t], set_len, c.parent_sig[t]),
                || (&self.fa.parent_set[..], &self.target_feat(t).parent_set[..]),
            ) {
                Overlap::Slot(slot) => tables.path[count * OVERLAPS + slot],
                Overlap::Walked(jacc) => vote(jacc, tables.path_weight[count]),
            };
            lanes.path[i] = keep(path, (self.a.parent_set_len != 0) & (set_len != 0));

            // Doc: the corpus-signature cap on the shared-term count picks
            // each side's top squared weights. A provably empty term
            // intersection resolves the vote exactly (the cosine walk
            // accumulates nothing and returns exactly 0.0).
            let docs = (self.a.doc_terms != 0) & (c.doc_terms[t] != 0);
            let shared = shared_bound(
                self.a.corpus_sig,
                self.a.corpus_excess,
                c.corpus_sig[t],
                c.corpus_excess[t],
            );
            let count = DOC_EVIDENCE.count(self.a.doc_tokens as usize, c.doc_tokens[t] as usize);
            let (lower, weight) = tables.doc[count];
            let doc_open = docs & (shared != 0);
            lanes.doc_lower[i] = keep(lower, docs);
            lanes.doc_weight[i] = weight;
            lanes.doc_source[i] = self.doc_prefix[shared];
            lanes.doc_target[i] = pass.dig.target_prefix[c.doc_prefix[t] as usize + shared];
            lanes.doc_open[i] = doc_open;

            // Structure, on rows whose source has children: the
            // children-signature cap; disjoint signatures resolve the vote
            // exactly (0.0 Jaccard). On the other rows the lane is absent.
            let mut kids_open = false;
            if self.a.children_set_len != 0 {
                let (set_len, sig) = (c.children_set_len[t], c.children_sig[t]);
                let kids = set_len != 0;
                let inter = shared_bound(
                    self.a.children_sig,
                    self.a.children_excess,
                    sig,
                    c.children_excess[t],
                );
                let count = STRUCTURE_EVIDENCE
                    .count(self.a.children_len as usize, c.children_len[t] as usize);
                let (lower, weight) = tables.kids[count];
                kids_open = kids & (self.a.children_sig & sig != 0);
                lanes.kids_lower[i] = keep(lower, kids);
                lanes.kids_weight[i] = weight;
                let inter = inter as u32;
                lanes.kids_inter[i] = f64::from(inter);
                lanes.kids_union[i] = f64::from(self.a.children_set_len + set_len - inter);
            } else {
                lanes.kids_lower[i] = 0.0;
            }
            lanes.kids_open[i] = kids_open;

            // Edit at its coarse cap: Jaro-Winkler and Levenshtein ≤ 1, the
            // Soundex term exact.
            let raw_chars = c.raw_chars[t];
            let raws = (self.a.raw_chars != 0) & (raw_chars != 0);
            let sdx = (self.a.flags & flags & SOUNDEX != 0) & (self.a.soundex == c.soundex[t]);
            let key = 2 * EDIT_EVIDENCE.count(self.a.raw_chars as usize, raw_chars as usize)
                + usize::from(sdx);
            lanes.edit[i] = keep(tables.edit[key].coarse, raws);
            lanes.edit_key[i] = key as u32;

            lanes.pending[i] = (u8::from(names) << LANE_TOKEN)
                | (u8::from(raws) << LANE_EDIT)
                | (u8::from(doc_open) << LANE_DOC)
                | (u8::from(kids_open) << LANE_STRUCT);
        }
    }

    /// Phase A for the pair in lane `i`: the edit lane's char-profile cap
    /// in place of its coarse one. Returns whether the pair survives.
    fn phase_a(&self, c: &View<'_>, t: u32, lanes: &BlockLanes, i: usize) -> bool {
        let slack = lanes.slack[i];
        if lanes.pending[i] & (1 << LANE_EDIT) == 0 {
            return slack >= -EPS;
        }
        let t = t as usize;
        let key = lanes.edit_key[i] as usize;
        let source = self.pass.source;
        let (a_len, b_len) = (self.a.raw_chars.min(4), c.raw_chars[t].min(4));
        let blend_ub = edit_blend_upper_bound(
            &source.profile[self.s],
            &c.profile[t],
            jw_prefix_len(
                &source.first_chars[self.s][..a_len as usize],
                &c.first_chars[t][..b_len as usize],
            ),
            if key % 2 == 1 { 1.0 } else { 0.0 },
        );
        let u = Confidence::weighted(blend_ub, self.tables.edit_weight[key / 2]).value();
        slack + lane_max(self.tables.edit[key].lower, u, self.pass.floor) >= -EPS
    }
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
            out.votes[i * LANES + LANE_DOC] =
                doc_vote(ctx.source_doc(s), ctx.target_doc(ElementId(t))).value();
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
    use crate::exec::Job;
    use crate::index::{generate_candidates, BlockingPolicy, CandidateSet};
    use crate::prepare::PreparedSchema;
    use crate::voter::{default_voters, type_vote};
    use sm_schema::{Documentation, ElementKind, SchemaFormat, SchemaId};
    use sm_text::bounds::signature_intersection_bound;
    use sm_text::intern::sorted_ids_jaccard;
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

    /// The fixture with a wide table on each side, so that rows run past
    /// two blocks: its columns share words with each other and with the
    /// fixture, in snake case on one side and camel case on the other.
    fn wide_fixture() -> (Schema, Schema) {
        let (mut a, mut b) = fixture();
        let words = [
            "account", "amount", "begin", "code", "customer", "date", "end", "id", "member",
            "name", "status", "type",
        ];
        let word = |k: usize| words[k % words.len()];
        let capital = |w: &str| w[..1].to_uppercase() + &w[1..];
        let ta = a.add_root("Ledger", ElementKind::Table, DataType::None);
        let tb = b.add_root("LedgerType", ElementKind::ComplexType, DataType::None);
        for k in 0..2 * BLOCK + 5 {
            let (first, second) = (word(k), word(k + 1 + k / words.len()));
            let dt = [DataType::Integer, DataType::text(), DataType::Date][k % 3];
            let e = a
                .add_child(ta, format!("{first}_{second}"), ElementKind::Column, dt)
                .unwrap();
            if k % 4 != 0 {
                let doc = format!("the {first} {second} of the ledger");
                a.set_doc(e, Documentation::embedded(doc)).unwrap();
            }
            let name = format!("{}{}", capital(second), capital(first));
            let dt = [DataType::varchar(20), DataType::Integer, DataType::Date][k % 3];
            let e = b.add_child(tb, name, ElementKind::XmlElement, dt).unwrap();
            if k % 3 == 0 {
                let doc = format!("a {second} {first} in the ledger");
                b.set_doc(e, Documentation::embedded(doc)).unwrap();
            }
        }
        (a, b)
    }

    /// One row's tier-1 outcome: exits, survivors, their votes and pending
    /// lanes, and the matrix row.
    type RowRun = (Tier1Exits, Vec<u32>, Vec<f64>, Vec<u8>, Vec<f32>);

    /// A row kernel: the dispatched one or the portable build.
    type Kernel = fn(&Tier1<'_>, ElementId, &[u32], &mut [f32], &mut CascadeScratch) -> Tier1Exits;

    /// The dense, rectangle and blocked candidate sets of a pair.
    fn candidate_sets(a: &Schema, b: &Schema) -> [(&'static str, CandidateSet); 3] {
        let n = Normalizer::new();
        let (pa, pb) = (PreparedSchema::build(a, &n), PreparedSchema::build(b, &n));
        let sources: Vec<ElementId> = a.ids().step_by(2).collect();
        let targets: Vec<ElementId> = b.ids().filter(|t| t.0 % 3 != 1).collect();
        let policy = BlockingPolicy::default();
        [
            ("dense", CandidateSet::exhaustive(a.len(), b.len())),
            (
                "rectangle",
                CandidateSet::rectangle(a, b, &sources, &targets),
            ),
            (
                "blocked",
                generate_candidates(a, b, &pa, &pb, None, &policy, Job::inline()),
            ),
        ]
    }

    /// Every candidate row through `kernel`, one scratch reused across the
    /// rows as a pipeline worker reuses it.
    fn run_rows(
        ctx: &MatchContext<'_>,
        floor: f64,
        cands: &CandidateSet,
        kernel: Kernel,
    ) -> Vec<RowRun> {
        let pass = Tier1::new(ctx, floor);
        let mut out = CascadeScratch::default();
        ctx.source
            .ids()
            .map(|s| {
                let mut slice = vec![f32::NAN; ctx.target.len()];
                let exits = kernel(&pass, s, cands.row(s.index()), &mut slice, &mut out);
                let (survivors, votes, pending) = (
                    out.survivors.clone(),
                    out.votes.clone(),
                    out.pending.clone(),
                );
                (exits, survivors, votes, pending, slice)
            })
            .collect()
    }

    fn bits(values: &[f64]) -> Vec<u64> {
        values.iter().map(|v| v.to_bits()).collect()
    }

    fn bits32(values: &[f32]) -> Vec<u32> {
        values.iter().map(|v| v.to_bits()).collect()
    }

    #[test]
    fn dispatched_kernel_matches_the_portable_build() {
        let (a, b) = wide_fixture();
        let ctx = MatchContext::build(&a, &b, &Normalizer::new());
        for (kind, cands) in candidate_sets(&a, &b) {
            for floor in [0.0, 0.3, -0.2] {
                let dispatched = run_rows(&ctx, floor, &cands, |p, s, c, sl, o| p.row(s, c, sl, o));
                let portable = run_rows(&ctx, floor, &cands, |p, s, c, sl, o| {
                    p.row_kernel(s, c, sl, o)
                });
                for (d, p) in dispatched.iter().zip(&portable) {
                    assert_eq!(d.0, p.0, "{kind} at {floor}");
                    assert_eq!(d.1, p.1, "{kind} at {floor}");
                    assert_eq!(bits(&d.2), bits(&p.2), "{kind} at {floor}");
                    assert_eq!(d.3, p.3, "{kind} at {floor}");
                    assert_eq!(bits32(&d.4), bits32(&p.4), "{kind} at {floor}");
                }
            }
        }
    }

    /// One column's tier-1 outcome: its coarse slack and verdict, whether
    /// it survives phase A, and a survivor's votes and pending lanes.
    type ColumnRun = (u64, bool, bool, Option<(Vec<u64>, u8)>);

    /// Each candidate's outcome in the row `cand`, block by block as the
    /// row kernel scores it, through one reused scratch.
    fn column_runs(row: &Row<'_>, cand: &[u32], out: &mut CascadeScratch) -> Vec<ColumnRun> {
        let view = row.pass.target.view(&row.pass.dig.target_types);
        let mut runs = Vec::new();
        for block in cand.chunks(BLOCK) {
            row.gather(&view, block, &mut out.lanes);
            out.lanes
                .verdicts(row.pass.floor, row.a.children_set_len != 0);
            for (i, &t) in block.iter().enumerate() {
                let lanes = &out.lanes;
                let survives = lanes.open[i] && row.phase_a(&view, t, lanes, i);
                let votes = survives.then(|| (bits(&lanes.votes(i)), lanes.pending[i]));
                runs.push((lanes.slack[i].to_bits(), lanes.open[i], survives, votes));
            }
        }
        runs
    }

    /// A column's verdict, slack and survivor votes do not depend on where
    /// it sits in its row: scored in a row of 1, B − 1, B, B + 1 or 2B + 3
    /// candidates (B the block width) of a dense, rectangle or blocked set,
    /// or alone, it comes out the same, and so do the row kernel's
    /// survivors, votes and matrix cells.
    #[test]
    fn verdicts_do_not_depend_on_the_column_position() {
        let (a, b) = wide_fixture();
        let ctx = MatchContext::build(&a, &b, &Normalizer::new());
        let lengths = [1, BLOCK - 1, BLOCK, BLOCK + 1, 2 * BLOCK + 3];
        let mut out = CascadeScratch::default();
        for (kind, cands) in candidate_sets(&a, &b) {
            let mut covered = [false; 5];
            for floor in [0.3, 0.0, -0.2] {
                let pass = Tier1::new(&ctx, floor);
                for s in ctx.source.ids() {
                    let row = Row::new(&pass, s);
                    let full = cands.row(s.index());
                    for (seen, &len) in covered.iter_mut().zip(&lengths) {
                        let Some(cand) = full.get(..len) else {
                            continue;
                        };
                        *seen = true;
                        let runs = column_runs(&row, cand, &mut out);
                        let mut slice = vec![f32::NAN; ctx.target.len()];
                        let exits = pass.row(s, cand, &mut slice, &mut out);
                        assert_eq!(
                            exits.final_survive,
                            runs.iter().filter(|r| r.2).count() as u64
                        );
                        let survivors = out.survivors.clone();
                        let (votes, pending) = (out.votes.clone(), out.pending.clone());
                        for (k, &t) in cand.iter().enumerate() {
                            let alone = column_runs(&row, &[t], &mut out);
                            assert_eq!(runs[k], alone[0], "{kind} row {s:?} column {t} of {len}");
                            let mut cell = vec![f32::NAN; ctx.target.len()];
                            pass.row(s, &[t], &mut cell, &mut out);
                            assert_eq!(cell[t as usize].to_bits(), slice[t as usize].to_bits());
                            let at = survivors.iter().position(|&c| c == t);
                            assert_eq!(at.is_some(), out.survivors == [t]);
                            if let Some(i) = at {
                                assert_eq!(bits(&votes[i * LANES..][..LANES]), bits(&out.votes));
                                assert_eq!(pending[i], out.pending[0]);
                            }
                        }
                    }
                }
            }
            assert_eq!(covered, [true; 5], "{kind} rows cover every length");
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
        let dense = CandidateSet::exhaustive(a.len(), b.len());
        let mut pruned_somewhere = false;
        for floor in [0.0, 0.3] {
            for (s, (exits, survivors, votes, pending, slice)) in
                ctx.source
                    .ids()
                    .zip(run_rows(&ctx, floor, &dense, |p, s, c, sl, o| {
                        p.row(s, c, sl, o)
                    }))
            {
                assert_eq!(
                    exits.pruned() + exits.final_survive,
                    ctx.target.len() as u64
                );
                assert_eq!(exits.final_survive, survivors.len() as u64);
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
        for &x in &types {
            for &y in &types {
                assert_eq!(type_key(x) == type_key(y), x == y, "{x} vs {y}");
                let table = if type_key(x) == type_key(y) {
                    pass.type_same
                } else {
                    distinct_type_votes()[usize::from(type_kind(x))][usize::from(type_kind(y))]
                };
                assert_eq!(table, type_vote(x, y).value(), "{x} vs {y}");
            }
        }
    }

    #[test]
    fn digests_decide_names_and_jaccards_like_the_features() {
        let (a, b) = fixture();
        let ctx = MatchContext::build(&a, &b, &Normalizer::new());
        let pass = Tier1::new(&ctx, 0.3);
        let view = pass.target.view(&pass.dig.target_types);
        let mut inline = [false, false];
        for s in ctx.source.ids() {
            let row = Row::new(&pass, s);
            let fa = ctx.source_feat(s);
            for t in ctx.target.ids() {
                let fb = ctx.target_feat(t);
                assert_eq!(row.same_name(&view, t.index()), fa.name_ids == fb.name_ids);
                let names = !fa.name_set.is_empty() && !fb.name_set.is_empty();
                if names {
                    let flags = view.flags[t.index()];
                    inline[usize::from(row.a.flags & flags & NAME_INLINE != 0)] = true;
                    let jacc = match row.name_overlap(&view, t.index()) {
                        Overlap::Slot(slot) => jaccard(slot / UNIONS, slot % UNIONS),
                        Overlap::Walked(jacc) => jacc,
                    };
                    assert_eq!(jacc, sorted_ids_jaccard(&fa.name_set, &fb.name_set));
                }
            }
        }
        assert_eq!(
            inline,
            [true, true],
            "both the inline and the walked path ran"
        );
    }

    /// The schema columns mirror the prepared elements they hold, a pair
    /// corpus gives each element as many weights as its columns count
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
        let (c, _) = ctx.columns();
        let mut prefix = 0;
        for (i, e) in pa.elements().iter().enumerate() {
            assert_eq!(c.name_sig[i], id_signature(&e.name_set));
            assert_eq!(c.parent_sig[i], id_signature(&e.parent_set));
            assert_eq!(c.children_sig[i], id_signature(&e.children_set));
            assert_eq!(c.corpus_sig[i], id_signature(&e.corpus_ids));
            assert_eq!(c.profile[i], CharProfile::of_chars(&e.raw_chars));
            let doc = ctx.source_doc(ElementId(i as u32));
            assert_eq!(c.doc_terms[i] as usize, doc.term_count());
            assert_eq!(c.doc_tokens[i] as usize, doc.token_count);
            assert_eq!(c.doc_prefix[i], prefix);
            prefix += c.doc_terms[i] + 1;
            let row = Row::new(&pass, ElementId(i as u32));
            for (stored, read, len) in [
                (c.name_ids[i], row.name_rot[0], c.name_set_len[i]),
                (c.parent_ids[i], row.parent_rot[0], c.parent_set_len[i]),
            ] {
                for k in (len as usize).min(INLINE_IDS)..INLINE_IDS {
                    assert_eq!((stored[k], read[k]), (TARGET_PAD, SOURCE_PAD));
                }
            }
        }
        assert_eq!(
            Columns::estimate_bytes(pa.elements()),
            std::mem::size_of::<Columns>() + c.heap_bytes()
        );
    }

    /// Every entry of a pass's lane tables, bit for bit.
    fn table_bits(t: &LaneTables) -> Vec<u64> {
        let pairs = |v: &[(f64, f64)]| v.iter().flat_map(|&(a, b)| [a, b]).collect::<Vec<_>>();
        let edit: Vec<f64> = t.edit.iter().flat_map(|e| [e.lower, e.coarse]).collect();
        [
            &t.token_weight[..],
            &t.edit_weight,
            &t.path_weight,
            &t.acronym_hit,
            &pairs(&t.doc),
            &pairs(&t.kids),
            &edit,
            &t.token,
            &t.path,
        ]
        .concat()
        .iter()
        .map(|v| v.to_bits())
        .collect()
    }

    /// A pass reads the lane tables its floor would build fresh at the
    /// sizes it holds, which reach the pass's counts: across passes of one
    /// thread at changing floors, and after a context with larger counts
    /// grew the thread's tables.
    #[test]
    fn shared_lane_tables_are_the_fresh_ones() {
        let (a, b) = fixture();
        let (wa, wb) = wide_fixture();
        let n = Normalizer::new();
        let small = MatchContext::build(&a, &b, &n);
        let wide = MatchContext::build(&wa, &wb, &n);
        let mut grew = false;
        for (ctx, floor) in [
            (&small, 0.3),
            (&small, 0.3),
            (&wide, 0.3),
            (&small, 0.3),
            (&small, -0.2),
            (&wide, f64::NEG_INFINITY),
            (&small, 0.3),
        ] {
            let pass = Tier1::new(ctx, floor);
            let (source, target) = ctx.columns();
            let (held, own) = (pass.tables.sizes(), LaneTables::sizes_for(source, target));
            assert!(held.iter().zip(own).all(|(&held, own)| held >= own));
            grew |= held != own;
            let fresh = LaneTables::build(floor, held);
            assert_eq!(pass.tables.floor.to_bits(), floor.to_bits());
            assert_eq!(
                table_bits(&pass.tables),
                table_bits(&fresh),
                "floor {floor}"
            );
        }
        assert!(grew, "a context read tables another one grew");
    }

    /// The excess form of the signature cap on a set intersection is the
    /// bounds module's, on every pair of the wide fixture's doc term sets
    /// and children sets.
    #[test]
    fn shared_bound_is_the_signature_intersection_bound() {
        let (a, b) = wide_fixture();
        let ctx = MatchContext::build(&a, &b, &Normalizer::new());
        let (ca, cb) = ctx.columns();
        let check = |(sa, ea, la): (u128, u32, u32), (sb, eb, lb): (u128, u32, u32)| {
            let bound = shared_bound(sa, ea, sb, eb);
            assert_eq!(
                bound,
                signature_intersection_bound(sa, la as usize, sb, lb as usize)
            );
            usize::from(bound != 0)
        };
        let mut shared = 0;
        for s in 0..a.len() {
            for t in 0..b.len() {
                shared += check(
                    (ca.corpus_sig[s], ca.corpus_excess[s], ca.doc_terms[s]),
                    (cb.corpus_sig[t], cb.corpus_excess[t], cb.doc_terms[t]),
                );
                shared += check(
                    (
                        ca.children_sig[s],
                        ca.children_excess[s],
                        ca.children_set_len[s],
                    ),
                    (
                        cb.children_sig[t],
                        cb.children_excess[t],
                        cb.children_set_len[t],
                    ),
                );
            }
        }
        assert!(shared > 0);
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
        assert_eq!(lane_max(l, u, f), 0.0);
        // Interval strictly negative: endpoint max only.
        assert_eq!(lane_max(-0.6, -0.2, f), phi(-0.2, f));
    }

    #[test]
    fn lane_max_covers_the_negative_floor_apex() {
        // With f < 0 the negative branch −v² + f·v peaks at v = f/2.
        let f = -0.4;
        let apex = 0.5 * f;
        assert!(lane_max(-0.9, -0.1, f) >= phi(apex, f));
        assert!(phi(apex, f) > phi(-0.9, f) && phi(apex, f) > phi(-0.1, f));
    }
}
