//! Precomputed linguistic context for one match operation.
//!
//! Voters are invoked for up to ~10^6 (source, target) pairs (the paper's
//! 1378×784 case). All per-*element* work — tokenization, stemming,
//! abbreviation expansion — lives in [`crate::prepare::PreparedSchema`] and
//! is computed once per schema (and cached across runs by
//! [`crate::prepare::FeatureCache`]). So is the per-schema half of the
//! joint TF-IDF corpus, whose IDF weights depend on the combined
//! vocabulary of the two schemata being matched: each preparation holds
//! its documents' corpus vocabulary
//! ([`crate::prepare::PreparedSchema::vocabulary`]), built by the first
//! context over it. This module assembles the per-*pair* remainder: one
//! linear merge of the two vocabularies into the pair's document vectors,
//! held in one flat buffer, and optional instance profiles. Per-pair voter
//! cost stays a handful of set intersections.

use crate::cascade::{Columns, Digests};
use crate::prepare::{PreparedElement, PreparedSchema};
use sm_schema::instances::{InstanceData, InstanceProfile};
use sm_schema::{ElementId, Schema};
use sm_text::normalize::Normalizer;
use sm_text::tfidf::{DocVectors, DocView};

/// Which side of the match an element belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Side {
    /// The left/source schema (the paper's S_A).
    Source,
    /// The right/target schema (the paper's S_B).
    Target,
}

/// Per-element precomputed features: the shared per-schema part (interned
/// name, parent, children and corpus ids with their token counts, raw-name
/// chars — see [`PreparedElement`]) plus the instance profile. The
/// element's TF-IDF vector against the joint corpus is the context's
/// ([`MatchContext::doc_vector`]).
///
/// The per-schema half is held by `Arc` and surfaced through `Deref`, so
/// voters read `feat.name_set` etc. without the context having deep-cloned
/// any feature: a context build against a warm cache copies only pointers.
#[derive(Debug, Clone)]
pub struct ElementFeatures {
    /// Shared per-schema features (interned ids and counts, raw-name chars).
    pub base: std::sync::Arc<PreparedElement>,
    /// Distributional profile of sampled instance values, when available.
    /// `None` in the paper's common case ("data … may not yet exist, or may
    /// be sensitive").
    pub instances: Option<InstanceProfile>,
}

impl std::ops::Deref for ElementFeatures {
    type Target = PreparedElement;

    fn deref(&self) -> &PreparedElement {
        &self.base
    }
}

/// Precomputed context for matching `source` against `target`.
pub struct MatchContext<'a> {
    /// The source schema (rows of the match matrix).
    pub source: &'a Schema,
    /// The target schema (columns of the match matrix).
    pub target: &'a Schema,
    pub(crate) source_features: Vec<ElementFeatures>,
    pub(crate) target_features: Vec<ElementFeatures>,
    /// Every element's TF-IDF vector against the corpus of *both*
    /// schemata's documents, so IDF reflects the joint vocabulary of the
    /// match problem: the source's elements, then the target's.
    docs: DocVectors,
    /// Tag of the arena both preparations' ids point into (memo keys).
    arena_tag: u32,
    /// The score cascade's tier-1 columns of each preparation, shared with
    /// it and built by the first cascade pass over it ([`Self::columns`]).
    source_columns: std::sync::Arc<std::sync::OnceLock<Columns>>,
    target_columns: std::sync::Arc<std::sync::OnceLock<Columns>>,
    /// What tier 1 reads about the pair and the schemata beyond the
    /// columns, built on first use: a context scored without the cascade
    /// never pays for it.
    digests: std::sync::OnceLock<Digests>,
}

impl<'a> MatchContext<'a> {
    /// Build the context, running the full normalization pipeline once per
    /// element of each schema. No instance data is consulted. Callers holding
    /// a [`crate::prepare::FeatureCache`] should prefer [`Self::from_prepared`],
    /// which skips normalization entirely.
    pub fn build(source: &'a Schema, target: &'a Schema, normalizer: &Normalizer) -> Self {
        Self::build_with_instances(
            source,
            target,
            normalizer,
            &InstanceData::empty(),
            &InstanceData::empty(),
        )
    }

    /// Build the context with sampled instance data attached to one or both
    /// schemata; the [`crate::voter::InstanceVoter`] consumes the resulting
    /// profiles.
    pub fn build_with_instances(
        source: &'a Schema,
        target: &'a Schema,
        normalizer: &Normalizer,
        source_instances: &InstanceData,
        target_instances: &InstanceData,
    ) -> Self {
        let prepared_source = PreparedSchema::build(source, normalizer);
        let prepared_target = PreparedSchema::build(target, normalizer);
        Self::from_prepared_with_instances(
            source,
            target,
            &prepared_source,
            &prepared_target,
            source_instances,
            target_instances,
        )
    }

    /// Assemble the context from already-prepared schemata (the Prepare stage
    /// of the match pipeline). Only the joint TF-IDF corpus is computed
    /// here, by merging the preparations' vocabularies.
    pub fn from_prepared(
        source: &'a Schema,
        target: &'a Schema,
        prepared_source: &PreparedSchema,
        prepared_target: &PreparedSchema,
    ) -> Self {
        Self::from_prepared_with_instances(
            source,
            target,
            prepared_source,
            prepared_target,
            &InstanceData::empty(),
            &InstanceData::empty(),
        )
    }

    /// [`Self::from_prepared`] with sampled instance data attached.
    ///
    /// # Panics
    /// Panics when a preparation does not reflect its schema's current
    /// content (see [`PreparedSchema::is_current_for`]): a stale preparation
    /// would silently misalign the TF-IDF corpus and produce wrong scores,
    /// so the check is enforced in release builds too. The fingerprint
    /// comparison is O(total name/doc bytes).
    pub fn from_prepared_with_instances(
        source: &'a Schema,
        target: &'a Schema,
        prepared_source: &PreparedSchema,
        prepared_target: &PreparedSchema,
        source_instances: &InstanceData,
        target_instances: &InstanceData,
    ) -> Self {
        assert!(
            prepared_source.is_current_for(source),
            "stale preparation for source schema {:?}",
            source.id
        );
        assert!(
            prepared_target.is_current_for(target),
            "stale preparation for target schema {:?}",
            target.id
        );
        Self::from_prepared_trusted(
            source,
            target,
            prepared_source,
            prepared_target,
            source_instances,
            target_instances,
        )
    }

    /// [`Self::from_prepared_with_instances`] without the staleness
    /// re-fingerprint — for callers that *just obtained* the preparations
    /// from a [`crate::prepare::FeatureCache`] keyed by the same schemata,
    /// where the fingerprint was computed moments ago for the cache lookup
    /// (hashing all name/doc bytes twice per run would be pure overhead on
    /// the hot path).
    pub(crate) fn from_prepared_trusted(
        source: &'a Schema,
        target: &'a Schema,
        prepared_source: &PreparedSchema,
        prepared_target: &PreparedSchema,
        source_instances: &InstanceData,
        target_instances: &InstanceData,
    ) -> Self {
        debug_assert!(prepared_source.is_current_for(source));
        debug_assert!(prepared_target.is_current_for(target));
        // Interned ids are only meaningful within one arena; preparations
        // from different arenas would silently mis-key the corpus.
        assert!(
            std::sync::Arc::ptr_eq(prepared_source.arena(), prepared_target.arena()),
            "source and target preparations must share one token arena"
        );

        // Joint TF-IDF corpus over name+doc tokens, source rows first —
        // the same document order the historical single-pass build used.
        let docs = prepared_source
            .vocabulary()
            .merge(prepared_target.vocabulary(), prepared_source.arena())
            .into_vectors();
        let attach = |schema: &Schema, prepared: &PreparedSchema, instances: &InstanceData| {
            schema
                .elements()
                .iter()
                .zip(prepared.elements())
                .map(|(e, p)| ElementFeatures {
                    base: std::sync::Arc::clone(p),
                    instances: instances.get(e.id).and_then(InstanceProfile::from_values),
                })
                .collect()
        };

        MatchContext {
            source,
            target,
            source_features: attach(source, prepared_source, source_instances),
            target_features: attach(target, prepared_target, target_instances),
            docs,
            arena_tag: prepared_source.arena().tag(),
            source_columns: std::sync::Arc::clone(&prepared_source.columns),
            target_columns: std::sync::Arc::clone(&prepared_target.columns),
            digests: std::sync::OnceLock::new(),
        }
    }

    /// The tag of the token arena this context's interned ids point into
    /// (see [`sm_text::intern::TokenArena::tag`]); voters fold it into
    /// their per-thread memo keys.
    #[inline]
    pub fn arena_tag(&self) -> u32 {
        self.arena_tag
    }

    /// The cascade's tier-1 columns of the source and target preparations,
    /// each built on the first call over its preparation.
    pub(crate) fn columns(&self) -> (&Columns, &Columns) {
        (
            self.source_columns
                .get_or_init(|| Columns::build(&self.source_features)),
            self.target_columns
                .get_or_init(|| Columns::build(&self.target_features)),
        )
    }

    /// The cascade's per-context digests, built on the first call (with
    /// the columns, when no context over a preparation built them yet).
    pub(crate) fn digests(&self) -> &Digests {
        self.digests.get_or_init(|| {
            let _span = crate::obs::span(
                crate::obs::SpanKind::ScoreDigests,
                (self.source.len() + self.target.len()) as u64,
            );
            Digests::build(self)
        })
    }

    /// Features of a source element.
    #[inline]
    pub fn source_feat(&self, id: ElementId) -> &ElementFeatures {
        &self.source_features[id.index()]
    }

    /// Features of a target element.
    #[inline]
    pub fn target_feat(&self, id: ElementId) -> &ElementFeatures {
        &self.target_features[id.index()]
    }

    /// Features of an element on the given side.
    #[inline]
    pub fn feat(&self, side: Side, id: ElementId) -> &ElementFeatures {
        match side {
            Side::Source => self.source_feat(id),
            Side::Target => self.target_feat(id),
        }
    }

    /// TF-IDF vector of a source element's name + documentation against
    /// the pair's joint corpus.
    #[inline]
    pub fn source_doc(&self, id: ElementId) -> DocView<'_> {
        self.docs.get(id.index())
    }

    /// TF-IDF vector of a target element's name + documentation against
    /// the pair's joint corpus.
    #[inline]
    pub fn target_doc(&self, id: ElementId) -> DocView<'_> {
        self.docs.get(self.source_features.len() + id.index())
    }

    /// TF-IDF vector of an element on the given side.
    #[inline]
    pub fn doc_vector(&self, side: Side, id: ElementId) -> DocView<'_> {
        match side {
            Side::Source => self.source_doc(id),
            Side::Target => self.target_doc(id),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sm_schema::{DataType, ElementKind, SchemaFormat, SchemaId};

    fn schemas() -> (Schema, Schema) {
        let mut a = Schema::new(SchemaId(1), "S_A", SchemaFormat::Relational);
        let t = a.add_root("Person", ElementKind::Table, DataType::None);
        let c = a
            .add_child(t, "birth_dt", ElementKind::Column, DataType::Date)
            .unwrap();
        a.set_doc(c, sm_schema::Documentation::embedded("the date of birth"))
            .unwrap();

        let mut b = Schema::new(SchemaId(2), "S_B", SchemaFormat::Xml);
        let ty = b.add_root("PersonType", ElementKind::ComplexType, DataType::None);
        b.add_child(ty, "BirthDate", ElementKind::XmlElement, DataType::Date)
            .unwrap();
        (a, b)
    }

    #[test]
    fn features_precomputed_for_every_element() {
        let (a, b) = schemas();
        let n = Normalizer::new();
        let ctx = MatchContext::build(&a, &b, &n);
        for id in a.ids() {
            let f = ctx.source_feat(id);
            assert!(!f.raw_chars.is_empty());
        }
        for id in b.ids() {
            let _ = ctx.target_feat(id);
        }
        assert_eq!(ctx.docs.len(), a.len() + b.len());
    }

    #[test]
    fn abbreviation_bridges_formats() {
        let (a, b) = schemas();
        let n = Normalizer::new();
        let ctx = MatchContext::build(&a, &b, &n);
        let src = a.find_by_name("birth_dt").unwrap();
        let tgt = b.find_by_name("BirthDate").unwrap();
        // birth_dt expands dt→date; BirthDate tokenizes to birth/date.
        let overlap = ctx
            .source_feat(src)
            .name_bag
            .overlap(&ctx.target_feat(tgt).name_bag);
        assert_eq!(overlap, 2, "birth and date should both be shared");
    }

    #[test]
    fn parent_and_children_sets() {
        let (a, b) = schemas();
        let n = Normalizer::new();
        let ctx = MatchContext::build(&a, &b, &n);
        let arena = sm_text::intern::TokenArena::global();
        let col = ctx.source_feat(a.find_by_name("birth_dt").unwrap());
        let table = ctx.source_feat(a.find_by_name("Person").unwrap());
        assert_eq!(
            arena.resolve_shared(&col.parent_set),
            n.name("Person").tokens,
            "column sees its parent's name tokens"
        );
        assert!(
            table.parent_set.is_empty() && table.parent_len == 0,
            "root has none"
        );
        let mut child_tokens = arena.resolve_all(&table.children_set);
        child_tokens.sort();
        assert_eq!(child_tokens, ["birth", "date"], "table sees child tokens");
        assert_eq!(table.children_len, 2);
    }

    #[test]
    fn doc_vectors_capture_documentation() {
        let (a, b) = schemas();
        let n = Normalizer::new();
        let ctx = MatchContext::build(&a, &b, &n);
        let src = a.find_by_name("birth_dt").unwrap();
        let tgt = b.find_by_name("BirthDate").unwrap();
        let sim = ctx.source_doc(src).cosine(ctx.target_doc(tgt));
        assert!(
            sim > 0.3,
            "documented date columns should be similar: {sim}"
        );
    }

    #[test]
    fn empty_schemas_build_empty_context() {
        let a = Schema::new(SchemaId(1), "e1", SchemaFormat::Generic);
        let b = Schema::new(SchemaId(2), "e2", SchemaFormat::Generic);
        let n = Normalizer::new();
        let ctx = MatchContext::build(&a, &b, &n);
        assert!(ctx.docs.is_empty());
    }

    #[test]
    fn from_prepared_equals_direct_build() {
        let (a, b) = schemas();
        let n = Normalizer::new();
        let direct = MatchContext::build(&a, &b, &n);
        let pa = PreparedSchema::build(&a, &n);
        let pb = PreparedSchema::build(&b, &n);
        let cached = MatchContext::from_prepared(&a, &b, &pa, &pb);
        for id in a.ids() {
            let d = direct.source_feat(id);
            let c = cached.source_feat(id);
            assert_eq!(d.base, c.base);
            assert_eq!(direct.source_doc(id), cached.source_doc(id));
        }
        for id in b.ids() {
            assert_eq!(direct.target_doc(id), cached.target_doc(id));
        }
    }
}
