//! N-way matching and the comprehensive vocabulary — Lesson #4.
//!
//! §4.5: *"given N schemata there are 2^N − 1 such sets partitioning their
//! N-way match; each of which supplies a potentially valuable piece of
//! knowledge."* And §3.4 describes the deliverable: "for any non-empty subset
//! of {S_A, S_C, S_D, S_E, S_F}, the customer wanted to know the terms those
//! schemata (and no others in that group) held in common" — a *comprehensive
//! vocabulary*.
//!
//! Construction: pairwise validated correspondences between the N schemata
//! are closed transitively with a union-find over (schema, element) nodes.
//! Each resulting cluster is one vocabulary *term*; the set of schemata it
//! touches is the term's *signature*; grouping terms by signature yields the
//! 2^N − 1 partition cells.

use crate::batch::{PairRequest, PlanPolicy};
use crate::confidence::Confidence;
use crate::correspondence::{MatchAnnotation, MatchSet};
use crate::engine::MatchEngine;
use crate::index::BlockingPolicy;
use crate::pipeline::StageTimings;
use crate::select::Selection;
use serde::{Deserialize, Serialize};
use sm_schema::{ElementId, Schema, SchemaId};
use std::collections::HashMap;

/// A node in the N-way union-find: element `element` of schema index
/// `schema_idx` (index into the [`NWayMatch`]'s schema list).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct GlobalElement {
    /// Index of the owning schema within the N-way match.
    pub schema_idx: usize,
    /// Element within that schema.
    pub element: ElementId,
}

/// One term of the comprehensive vocabulary: a transitively-closed cluster of
/// corresponding elements across schemata.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct VocabularyTerm {
    /// Canonical display name (the most common element name in the cluster).
    pub name: String,
    /// All member elements.
    pub members: Vec<GlobalElement>,
    /// Bitmask over schema indices: bit `i` set ⇔ schema `i` contributes.
    pub signature: u32,
}

impl VocabularyTerm {
    /// Number of distinct schemata the term spans.
    pub fn schema_count(&self) -> usize {
        self.signature.count_ones() as usize
    }

    /// Does schema `idx` contribute to this term?
    pub fn involves(&self, idx: usize) -> bool {
        self.signature & (1 << idx) != 0
    }
}

/// An N-way match. Consolidation (the union-find over elements) works at
/// any N; the *comprehensive vocabulary* ([`Self::vocabulary`]) supports up
/// to 32 schemata (its signature bitmask is a `u32` — the paper's
/// vocabulary scenarios involve single-digit N, while registry-scale
/// consolidation runs at N in the hundreds).
pub struct NWayMatch<'a> {
    schemas: Vec<&'a Schema>,
    /// Union-find parent pointers over dense node ids.
    parent: Vec<usize>,
    /// Offsets of each schema's elements in the dense node space.
    offsets: Vec<usize>,
    /// How many leading schemata have had all their pairs planned by a
    /// `populate_*` call.
    populated: usize,
    /// Settings of the last planned population, for incremental add-ones.
    standing: Option<PlanSettings>,
}

/// The settings a population plans and selects under; those of the last
/// planned population stand for incremental add-ones.
#[derive(Clone, Copy)]
struct PlanSettings {
    blocking: BlockingPolicy,
    plan_policy: PlanPolicy,
    threshold: Confidence,
}

impl<'a> NWayMatch<'a> {
    /// Start an N-way match over the given schemata.
    pub fn new(schemas: Vec<&'a Schema>) -> Self {
        let mut offsets = Vec::with_capacity(schemas.len());
        let mut total = 0usize;
        for s in &schemas {
            offsets.push(total);
            total += s.len();
        }
        NWayMatch {
            schemas,
            parent: (0..total).collect(),
            offsets,
            populated: 0,
            standing: None,
        }
    }

    /// Number of schemata.
    pub fn n(&self) -> usize {
        self.schemas.len()
    }

    /// Append schema N+1 to the match, returning its index. Its elements
    /// join the union-find as singletons; consolidate them with
    /// [`Self::populate_incremental`] (after a planned population) or
    /// explicit [`Self::add_pairwise`] calls.
    pub fn add_schema(&mut self, schema: &'a Schema) -> usize {
        let idx = self.schemas.len();
        let total = self.parent.len();
        self.offsets.push(total);
        self.parent.extend(total..total + schema.len());
        self.schemas.push(schema);
        idx
    }

    /// Number of non-empty partition cells possible: 2^N − 1.
    ///
    /// # Panics
    /// Panics beyond 32 schemata, the vocabulary's signature-bitmask cap.
    pub fn max_cells(&self) -> usize {
        assert!(
            self.schemas.len() <= 32,
            "the comprehensive vocabulary supports at most 32 schemata"
        );
        (1usize << self.schemas.len()) - 1
    }

    /// Index of a schema by its [`SchemaId`].
    pub fn schema_index(&self, id: SchemaId) -> Option<usize> {
        self.schemas.iter().position(|s| s.id == id)
    }

    fn node(&self, g: GlobalElement) -> usize {
        self.offsets[g.schema_idx] + g.element.index()
    }

    fn find(&mut self, mut x: usize) -> usize {
        while self.parent[x] != x {
            self.parent[x] = self.parent[self.parent[x]]; // path halving
            x = self.parent[x];
        }
        x
    }

    fn union(&mut self, a: usize, b: usize) {
        let ra = self.find(a);
        let rb = self.find(b);
        if ra != rb {
            self.parent[rb] = ra;
        }
    }

    /// Record the validated correspondences of a pairwise match between the
    /// schemata at indices `left` and `right`.
    ///
    /// # Panics
    /// Panics if either index is out of range, or if a validated
    /// correspondence's source is not an element of schema `left` or its
    /// target not one of schema `right` — before recording anything.
    pub fn add_pairwise(&mut self, left: usize, right: usize, matches: &MatchSet) {
        let n = self.schemas.len();
        assert!(
            left < n && right < n,
            "pairwise match ({left}, {right}) outside the {n}-schema match"
        );
        let (left_len, right_len) = (self.schemas[left].len(), self.schemas[right].len());
        let pairs: Vec<(ElementId, ElementId)> =
            matches.validated().map(|c| (c.source, c.target)).collect();
        for &(s, t) in &pairs {
            assert!(
                s.index() < left_len,
                "source element {s:?} outside schema {left}'s {left_len} elements"
            );
            assert!(
                t.index() < right_len,
                "target element {t:?} outside schema {right}'s {right_len} elements"
            );
        }
        for (s, t) in pairs {
            let a = self.node(GlobalElement {
                schema_idx: left,
                element: s,
            });
            let b = self.node(GlobalElement {
                schema_idx: right,
                element: t,
            });
            self.union(a, b);
        }
    }

    /// Drive every unordered pairwise match through `engine` as one planned
    /// **batch** (see [`crate::batch`]), select candidates above `threshold`
    /// one-to-one, auto-validate them as `asserted_by`, and record the
    /// correspondences.
    ///
    /// This replaces the historical ad-hoc loop every n-way caller wrote by
    /// hand — and since the batch planner landed, the sequential dense loop
    /// this method itself used to run. Each of the N schemata is prepared
    /// **and token-indexed** once rather than once per pairing, candidates
    /// come from those indices under [`BlockingPolicy::default`], and
    /// all pairs execute concurrently on the engine's persistent executor.
    ///
    /// Scores of scored pairs are byte-identical to the dense loop's;
    /// *which* pairs are scored is the default blocking policy's recall
    /// property — every dense above-threshold pair survives on the pinned
    /// workloads (`tests/blocking_recall.rs`, `tests/batch_pin.rs`,
    /// including exact-name pairs via the rescue closure), making
    /// vocabulary results empirically unchanged from the historical dense
    /// loop. A correspondence whose only evidence is fuzzy (shared *no*
    /// token, Soundex, or acronym feature, scored purely by edit distance)
    /// can in principle be pruned; callers that must reproduce the dense
    /// loop exactly use [`Self::populate_pairwise_with_policy`] with
    /// [`BlockingPolicy::Exhaustive`].
    ///
    /// Returns one [`PairwiseOutcome`] per pair, in `(i, j)` order.
    pub fn populate_pairwise(
        &mut self,
        engine: &MatchEngine,
        threshold: Confidence,
        asserted_by: &str,
    ) -> Vec<PairwiseOutcome> {
        self.populate_pairwise_with_policy(
            engine,
            &BlockingPolicy::default(),
            threshold,
            asserted_by,
        )
    }

    /// [`Self::populate_pairwise`] under an explicit blocking policy.
    /// [`BlockingPolicy::Exhaustive`] reproduces the historical sequential
    /// dense loop byte for byte (same scores, same selections, same
    /// vocabulary).
    pub fn populate_pairwise_with_policy(
        &mut self,
        engine: &MatchEngine,
        policy: &BlockingPolicy,
        threshold: Confidence,
        asserted_by: &str,
    ) -> Vec<PairwiseOutcome> {
        let settings = PlanSettings {
            blocking: *policy,
            plan_policy: PlanPolicy::Exhaustive,
            threshold,
        };
        let all_pairs = self.pairs_from(0);
        self.record(engine, &settings, all_pairs, asserted_by)
            .outcomes
    }

    /// Populate pairwise matches through the overlap-aware batch planner
    /// ([`PlanPolicy`]) and keep its settings **standing** so later
    /// schemata join incrementally ([`Self::populate_incremental`]) instead
    /// of re-executing all N·(N−1)/2 pairs.
    ///
    /// Under [`PlanPolicy::provable`] the consolidation equals
    /// [`Self::populate_pairwise_with_policy`] exactly: the pruned pairs
    /// provably select nothing. Higher thresholds trade recall for plan
    /// size.
    pub fn populate_planned(
        &mut self,
        engine: &MatchEngine,
        blocking: &BlockingPolicy,
        plan_policy: PlanPolicy,
        threshold: Confidence,
        asserted_by: &str,
    ) -> NWayPopulation {
        let standing = PlanSettings {
            blocking: *blocking,
            plan_policy,
            threshold,
        };
        let all_pairs = self.pairs_from(0);
        let population = self.record(engine, &standing, all_pairs, asserted_by);
        self.standing = Some(standing);
        population
    }

    /// Consolidate the schemata appended since the last planned population
    /// (via [`Self::add_schema`]) **incrementally**: only the pairs that
    /// involve a new slot — `(s, j)` for every new `j` and every `s < j` —
    /// go through the batch planner, under the standing blocking policy,
    /// [`PlanPolicy`] and threshold. The existing N-way union-find is
    /// reused, never replayed, and no standing pair is re-executed.
    ///
    /// The plan is made over all N+k schemata, so every new pair is kept or
    /// pruned exactly as a full [`Self::populate_planned`] replan would keep
    /// or prune it: its shared weight is computed at the final N. Standing
    /// pairs keep the decisions made at their own N. Under
    /// [`PlanPolicy::Exhaustive`] and [`PlanPolicy::provable`] those never
    /// change with N, so the grown consolidation is byte-identical to a
    /// full replan. Under higher cuts a replan may decide some standing
    /// pairs differently — IDF weights shift with N — and those are not
    /// revisited.
    ///
    /// The new pairs run as one batch on the engine's executor, drawing
    /// lanes from its lane budget and stopping at its job token's pair-job
    /// checkpoints. A cancelled call unwinds before recording anything, so
    /// it leaves the match as it was and may simply be retried.
    ///
    /// # Panics
    /// Panics without a prior [`Self::populate_planned`].
    pub fn populate_incremental(
        &mut self,
        engine: &MatchEngine,
        asserted_by: &str,
    ) -> NWayPopulation {
        let standing = self
            .standing
            .expect("populate_planned must precede incremental consolidation");
        let new_pairs = self.pairs_from(self.populated);
        if new_pairs.is_empty() {
            return NWayPopulation {
                outcomes: Vec::new(),
                pruned: 0,
                timings: StageTimings::default(),
            };
        }
        self.record(engine, &standing, new_pairs, asserted_by)
    }

    /// Every unordered pair `(i, j)`, `i < j`, whose right slot `j` is at
    /// least `first`, in `(i, j)` order.
    fn pairs_from(&self, first: usize) -> Vec<PairRequest> {
        let n = self.schemas.len();
        (0..n)
            .flat_map(|left| (first.max(left + 1)..n).map(move |right| PairRequest { left, right }))
            .collect()
    }

    /// Plan `requests` over all schemata under `settings`, run the
    /// survivors selection-only (vocabulary building never reads scores, so
    /// per-pair matrices drop inside the batch jobs), then validate every
    /// pair's selections as `asserted_by` and fold them into the
    /// union-find in plan order. Only after the run succeeds do all
    /// schemata count as consolidated.
    fn record(
        &mut self,
        engine: &MatchEngine,
        settings: &PlanSettings,
        requests: Vec<PairRequest>,
        asserted_by: &str,
    ) -> NWayPopulation {
        let batch = engine
            .batch()
            .with_policy(settings.blocking)
            .with_plan_policy(settings.plan_policy)
            .plan(&self.schemas, requests);
        let result = batch.run_select_only(&Selection::OneToOne {
            min: settings.threshold,
        });
        let mut outcomes = Vec::with_capacity(result.pairs.len());
        for pair in result.pairs {
            let validated =
                MatchSet::validated_from(&pair.selected, asserted_by, MatchAnnotation::Equivalent);
            self.add_pairwise(pair.left, pair.right, &validated);
            outcomes.push(PairwiseOutcome {
                left: pair.left,
                right: pair.right,
                pairs_considered: pair.pairs_considered,
                pairs_scored: pair.pairs_scored,
                validated: validated.len(),
            });
        }
        self.populated = self.schemas.len();
        NWayPopulation {
            outcomes,
            pruned: batch.pruned().len(),
            timings: result.timings,
        }
    }

    /// Close the match and build the comprehensive vocabulary.
    ///
    /// # Panics
    /// Panics beyond 32 schemata — the term signature is a `u32` bitmask.
    /// Registry-scale consolidations (N in the hundreds) read the
    /// union-find through [`Self::add_pairwise`]-driven clustering instead
    /// of the vocabulary view.
    pub fn vocabulary(mut self) -> Vocabulary {
        assert!(
            self.schemas.len() <= 32,
            "the comprehensive vocabulary supports at most 32 schemata"
        );
        let mut clusters: HashMap<usize, Vec<GlobalElement>> = HashMap::new();
        for (schema_idx, schema) in self.schemas.iter().enumerate() {
            for element in schema.ids() {
                let g = GlobalElement {
                    schema_idx,
                    element,
                };
                let node = self.offsets[schema_idx] + element.index();
                let root = {
                    // Inline find to appease the borrow checker.
                    let mut x = node;
                    while self.parent[x] != x {
                        self.parent[x] = self.parent[self.parent[x]];
                        x = self.parent[x];
                    }
                    x
                };
                clusters.entry(root).or_default().push(g);
            }
        }
        let mut terms: Vec<VocabularyTerm> = clusters
            .into_values()
            .map(|members| {
                let mut signature = 0u32;
                let mut name_votes: HashMap<&str, usize> = HashMap::new();
                for g in &members {
                    signature |= 1 << g.schema_idx;
                    let name = self.schemas[g.schema_idx].element(g.element).name.as_str();
                    *name_votes.entry(name).or_insert(0) += 1;
                }
                let name = name_votes
                    .into_iter()
                    .max_by(|a, b| a.1.cmp(&b.1).then(b.0.cmp(a.0)))
                    .map(|(n, _)| n.to_string())
                    .unwrap_or_default();
                VocabularyTerm {
                    name,
                    members,
                    signature,
                }
            })
            .collect();
        // Full tie-break: distinct same-named singleton terms in one schema
        // tie on (name, signature), and cluster order comes from a HashMap —
        // the first member pins a deterministic order.
        terms.sort_by(|a, b| {
            a.name
                .cmp(&b.name)
                .then(a.signature.cmp(&b.signature))
                .then_with(|| {
                    let ka = a.members.first().map(|g| (g.schema_idx, g.element));
                    let kb = b.members.first().map(|g| (g.schema_idx, g.element));
                    ka.cmp(&kb)
                })
        });
        Vocabulary {
            n: self.schemas.len(),
            schema_ids: self.schemas.iter().map(|s| s.id).collect(),
            schema_names: self.schemas.iter().map(|s| s.name.clone()).collect(),
            terms,
        }
    }
}

/// Outcome of a planned (or incremental) N-way population.
#[derive(Debug, Clone)]
pub struct NWayPopulation {
    /// Per executed pair, in plan order (pruned pairs have no outcome).
    pub outcomes: Vec<PairwiseOutcome>,
    /// Pairs the plan policy pruned before execution.
    pub pruned: usize,
    /// Aggregated stage timings, with the Plan stage's
    /// estimate/cluster/schedule split
    /// ([`StageTimings::plan_estimate`] and friends).
    pub timings: StageTimings,
}

impl NWayPopulation {
    /// Pairs actually executed.
    pub fn planned(&self) -> usize {
        self.outcomes.len()
    }

    /// Total correspondences validated and recorded.
    pub fn validated(&self) -> usize {
        self.outcomes.iter().map(|o| o.validated).sum()
    }
}

/// Statistics of one pairwise match inside [`NWayMatch::populate_pairwise`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PairwiseOutcome {
    /// Index of the left schema.
    pub left: usize,
    /// Index of the right schema.
    pub right: usize,
    /// Size of the pair's full cross product.
    pub pairs_considered: usize,
    /// Candidate pairs the voter panel actually scored (equal to
    /// `pairs_considered` under the exhaustive policy).
    pub pairs_scored: usize,
    /// Correspondences selected and recorded.
    pub validated: usize,
}

/// The comprehensive vocabulary of an N-way match.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Vocabulary {
    /// Number of schemata.
    pub n: usize,
    /// Schema ids, in index order.
    pub schema_ids: Vec<SchemaId>,
    /// Schema names, in index order.
    pub schema_names: Vec<String>,
    /// All terms.
    pub terms: Vec<VocabularyTerm>,
}

impl Vocabulary {
    /// Terms whose signature is *exactly* `mask` — the partition cell for one
    /// non-empty subset of schemata ("the terms those schemata, and no others
    /// in that group, held in common").
    pub fn cell(&self, mask: u32) -> Vec<&VocabularyTerm> {
        self.terms.iter().filter(|t| t.signature == mask).collect()
    }

    /// Sizes of every one of the 2^N − 1 cells, indexed by mask.
    pub fn cell_sizes(&self) -> HashMap<u32, usize> {
        let mut sizes: HashMap<u32, usize> = HashMap::new();
        for t in &self.terms {
            *sizes.entry(t.signature).or_insert(0) += 1;
        }
        sizes
    }

    /// Terms shared by *at least* the schemata in `mask` (superset match).
    pub fn shared_by_at_least(&self, mask: u32) -> Vec<&VocabularyTerm> {
        self.terms
            .iter()
            .filter(|t| t.signature & mask == mask)
            .collect()
    }

    /// Terms involving exactly one schema (that schema's distinct elements).
    pub fn unique_to(&self, idx: usize) -> Vec<&VocabularyTerm> {
        self.cell(1 << idx)
    }

    /// Total number of terms.
    pub fn len(&self) -> usize {
        self.terms.len()
    }

    /// True when the vocabulary has no terms.
    pub fn is_empty(&self) -> bool {
        self.terms.is_empty()
    }

    /// Pairwise overlap fraction between schemata `i` and `j`: shared terms /
    /// terms touching either — a numeric overlap characterization suitable as
    /// a clustering distance (§5, "Schema clustering and overlap analysis").
    pub fn overlap_fraction(&self, i: usize, j: usize) -> f64 {
        let mi = 1u32 << i;
        let mj = 1u32 << j;
        let mut shared = 0usize;
        let mut either = 0usize;
        for t in &self.terms {
            let in_i = t.signature & mi != 0;
            let in_j = t.signature & mj != 0;
            if in_i || in_j {
                either += 1;
                if in_i && in_j {
                    shared += 1;
                }
            }
        }
        if either == 0 {
            0.0
        } else {
            shared as f64 / either as f64
        }
    }

    /// Distill a minimal **mediated (exchange) schema** — the §2 emergency-
    /// response scenario: *"throw their data models into a giant beaker and
    /// distill out a minimal mediated schema that will serve as the basis
    /// for their collaboration"*.
    ///
    /// Terms appearing in at least `min_schemas` schemata qualify.
    /// Qualifying *container* terms (any member is a depth-1 element) become
    /// roots of the mediated schema; qualifying *leaf* terms attach under
    /// the container term that owns the majority of their members' parents,
    /// or under a `Common` root when their container did not qualify.
    ///
    /// `schemas` must be the same schemata, in the same order, this
    /// vocabulary was built over.
    pub fn mediated_schema(
        &self,
        schemas: &[&Schema],
        id: SchemaId,
        name: impl Into<String>,
        min_schemas: usize,
    ) -> Schema {
        use sm_schema::{DataType, ElementKind};
        assert_eq!(self.n, schemas.len(), "schema list must match arity");
        let min_schemas = min_schemas.max(1);

        // element → term index, for parent lookups.
        let mut term_of: HashMap<(usize, ElementId), usize> = HashMap::new();
        for (ti, term) in self.terms.iter().enumerate() {
            for g in &term.members {
                term_of.insert((g.schema_idx, g.element), ti);
            }
        }

        let qualifies: Vec<bool> = self
            .terms
            .iter()
            .map(|t| t.schema_count() >= min_schemas)
            .collect();
        let is_container: Vec<bool> = self
            .terms
            .iter()
            .map(|t| {
                t.members
                    .iter()
                    .any(|g| schemas[g.schema_idx].element(g.element).depth == 1)
            })
            .collect();

        let mut out = Schema::new(id, name, sm_schema::SchemaFormat::Generic);
        // Container terms first, as roots.
        let mut root_of_term: HashMap<usize, ElementId> = HashMap::new();
        for (ti, term) in self.terms.iter().enumerate() {
            if qualifies[ti] && is_container[ti] {
                let root = out.add_root(&term.name, ElementKind::Group, DataType::None);
                root_of_term.insert(ti, root);
            }
        }
        // Leaf terms attach under their majority parent term.
        let mut common_root: Option<ElementId> = None;
        for (ti, term) in self.terms.iter().enumerate() {
            if !qualifies[ti] || is_container[ti] {
                continue;
            }
            let mut votes: HashMap<usize, usize> = HashMap::new();
            let mut datatype = DataType::Unknown;
            for g in &term.members {
                let e = schemas[g.schema_idx].element(g.element);
                if datatype == DataType::Unknown {
                    datatype = e.datatype;
                }
                if let Some(p) = e.parent {
                    if let Some(&pt) = term_of.get(&(g.schema_idx, p)) {
                        *votes.entry(pt).or_insert(0) += 1;
                    }
                }
            }
            let parent_root = votes
                .into_iter()
                .max_by(|a, b| a.1.cmp(&b.1).then(b.0.cmp(&a.0)))
                .and_then(|(pt, _)| root_of_term.get(&pt).copied());
            let parent = match parent_root {
                Some(p) => p,
                None => *common_root.get_or_insert_with(|| {
                    out.add_root("Common", ElementKind::Group, DataType::None)
                }),
            };
            out.add_child(parent, &term.name, ElementKind::Column, datatype)
                .expect("parent was just created");
        }
        debug_assert!(out.validate().is_ok());
        out
    }

    /// Human-readable subset name for a mask, e.g. `{S_A, S_C}`.
    pub fn mask_name(&self, mask: u32) -> String {
        let names: Vec<&str> = (0..self.n)
            .filter(|&i| mask & (1 << i) != 0)
            .map(|i| self.schema_names[i].as_str())
            .collect();
        format!("{{{}}}", names.join(", "))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::confidence::Confidence;
    use crate::correspondence::{Correspondence, MatchAnnotation};
    use sm_schema::{DataType, ElementKind, SchemaFormat};
    use std::sync::Arc;

    fn schema(id: u32, names: &[&str]) -> Schema {
        let mut s = Schema::new(SchemaId(id), format!("S{id}"), SchemaFormat::Generic);
        for n in names {
            s.add_root(*n, ElementKind::Group, DataType::text());
        }
        s
    }

    fn validated(s: ElementId, t: ElementId) -> Correspondence {
        Correspondence::candidate(s, t, Confidence::new(0.9))
            .validate("x", MatchAnnotation::Equivalent)
    }

    /// Three schemata: "date" in all three, "name" in 0 and 1, the rest
    /// unique.
    fn three_way() -> Vocabulary {
        let a = schema(1, &["date", "name", "alpha"]);
        let b = schema(2, &["dt", "name", "beta"]);
        let c = schema(3, &["event_date", "gamma"]);
        let mut nway = NWayMatch::new(vec![&a, &b, &c]);
        // a.date ↔ b.dt ; b.dt ↔ c.event_date ; a.name ↔ b.name
        let mut ab = MatchSet::new();
        ab.push(validated(ElementId(0), ElementId(0)));
        ab.push(validated(ElementId(1), ElementId(1)));
        nway.add_pairwise(0, 1, &ab);
        let mut bc = MatchSet::new();
        bc.push(validated(ElementId(0), ElementId(0)));
        nway.add_pairwise(1, 2, &bc);
        nway.vocabulary()
    }

    #[test]
    fn transitive_closure_merges_chains() {
        let v = three_way();
        // Terms: {date,dt,event_date} mask 111; {name,name} mask 011;
        // alpha 001; beta 010; gamma 100.
        assert_eq!(v.len(), 5);
        let all_three = v.cell(0b111);
        assert_eq!(all_three.len(), 1);
        assert_eq!(all_three[0].members.len(), 3);
        assert_eq!(all_three[0].schema_count(), 3);
    }

    #[test]
    fn cells_partition_terms() {
        let v = three_way();
        let sizes = v.cell_sizes();
        let total: usize = sizes.values().sum();
        assert_eq!(total, v.len());
        assert_eq!(sizes[&0b011], 1, "name shared by S1,S2 only");
        assert_eq!(sizes[&0b001], 1, "alpha unique to S1");
        assert!(sizes.len() <= v.terms.len());
        assert!(sizes.keys().all(|&m| m > 0 && m < 8));
    }

    #[test]
    fn max_cells_is_2n_minus_1() {
        let a = schema(1, &["x"]);
        let b = schema(2, &["y"]);
        let nway = NWayMatch::new(vec![&a, &b]);
        assert_eq!(nway.max_cells(), 3);
        let c = schema(3, &["z"]);
        let d = schema(4, &["w"]);
        let e = schema(5, &["v"]);
        let five = NWayMatch::new(vec![&a, &b, &c, &d, &e]);
        assert_eq!(five.max_cells(), 31, "the paper's 5-schema scenario");
    }

    #[test]
    fn canonical_name_is_majority_name() {
        let v = three_way();
        let shared_name = v.cell(0b011);
        assert_eq!(shared_name[0].name, "name");
    }

    #[test]
    fn unique_to_and_superset_queries() {
        let v = three_way();
        assert_eq!(v.unique_to(2).len(), 1);
        assert_eq!(v.unique_to(2)[0].name, "gamma");
        // Terms involving at least S1 and S2: date-cluster and name-cluster.
        assert_eq!(v.shared_by_at_least(0b011).len(), 2);
    }

    #[test]
    fn overlap_fraction_reflects_sharing() {
        let v = three_way();
        // S1,S2 share 2 of 5 terms touching either (date, name, alpha, beta).
        let f01 = v.overlap_fraction(0, 1);
        assert!((f01 - 2.0 / 4.0).abs() < 1e-12, "{f01}");
        let f02 = v.overlap_fraction(0, 2);
        assert!((f02 - 1.0 / 4.0).abs() < 1e-12, "{f02}");
        assert!(f01 > f02);
    }

    #[test]
    fn vocabulary_covers_every_element_exactly_once() {
        let v = three_way();
        let member_total: usize = v.terms.iter().map(|t| t.members.len()).sum();
        assert_eq!(member_total, 3 + 3 + 2);
    }

    #[test]
    fn no_matches_means_all_singletons() {
        let a = schema(1, &["x", "y"]);
        let b = schema(2, &["z"]);
        let v = NWayMatch::new(vec![&a, &b]).vocabulary();
        assert_eq!(v.len(), 3);
        assert!(v.terms.iter().all(|t| t.schema_count() == 1));
        assert_eq!(v.overlap_fraction(0, 1), 0.0);
    }

    #[test]
    fn mask_name_formats_subset() {
        let v = three_way();
        assert_eq!(v.mask_name(0b101), "{S1, S3}");
    }

    /// Fixture for mediated-schema tests: two schemata sharing an Event
    /// concept with a shared date attribute, plus unique leaves.
    fn mediated_fixture() -> (Schema, Schema, Vocabulary) {
        let mk = |id: u32, root: &str, leaves: &[&str]| {
            let mut s = Schema::new(SchemaId(id), format!("S{id}"), SchemaFormat::Generic);
            let r = s.add_root(root, ElementKind::Group, sm_schema::DataType::None);
            for l in leaves {
                s.add_child(r, *l, ElementKind::Column, sm_schema::DataType::Date)
                    .unwrap();
            }
            s
        };
        let a = mk(1, "Event", &["begin_date", "alpha_only"]);
        let b = mk(2, "EventType", &["start_dt", "beta_only"]);
        let mut nway = NWayMatch::new(vec![&a, &b]);
        let mut m = MatchSet::new();
        // Event ↔ EventType, begin_date ↔ start_dt.
        m.push(validated(ElementId(0), ElementId(0)));
        m.push(validated(ElementId(1), ElementId(1)));
        nway.add_pairwise(0, 1, &m);
        let v = nway.vocabulary();
        (a, b, v)
    }

    #[test]
    fn mediated_schema_distills_shared_terms() {
        let (a, b, v) = mediated_fixture();
        let mediated = v.mediated_schema(&[&a, &b], SchemaId(50), "Exchange", 2);
        // Only the shared container + shared leaf qualify.
        assert_eq!(mediated.len(), 2);
        let root = mediated.roots()[0];
        assert_eq!(mediated.element(root).name, "Event");
        let leaf = mediated.element(root).children[0];
        assert_eq!(mediated.element(leaf).name, "begin_date");
        assert_eq!(mediated.element(leaf).datatype, sm_schema::DataType::Date);
        mediated.validate().unwrap();
    }

    #[test]
    fn mediated_schema_min_one_includes_everything() {
        let (a, b, v) = mediated_fixture();
        let mediated = v.mediated_schema(&[&a, &b], SchemaId(50), "Everything", 1);
        // 4 terms: Event-cluster (container) + date-cluster, alpha_only,
        // beta_only (leaves under it).
        assert_eq!(mediated.len(), 4);
        assert!(mediated.find_by_name("alpha_only").is_some());
        mediated.validate().unwrap();
    }

    #[test]
    fn orphan_leaves_fall_under_common() {
        // A leaf shared by both schemata whose containers do NOT correspond.
        let mk = |id: u32, root: &str| {
            let mut s = Schema::new(SchemaId(id), format!("S{id}"), SchemaFormat::Generic);
            let r = s.add_root(root, ElementKind::Group, sm_schema::DataType::None);
            s.add_child(
                r,
                "remarks",
                ElementKind::Column,
                sm_schema::DataType::text(),
            )
            .unwrap();
            s
        };
        let a = mk(1, "Vehicle");
        let b = mk(2, "Patient");
        let mut nway = NWayMatch::new(vec![&a, &b]);
        let mut m = MatchSet::new();
        m.push(validated(ElementId(1), ElementId(1))); // remarks ↔ remarks
        nway.add_pairwise(0, 1, &m);
        let v = nway.vocabulary();
        let mediated = v.mediated_schema(&[&a, &b], SchemaId(51), "Exchange", 2);
        let common = mediated.find_by_name("Common").expect("orphan holder");
        assert_eq!(mediated.element(common).children.len(), 1);
        let leaf = mediated.element(common).children[0];
        assert_eq!(mediated.element(leaf).name, "remarks");
    }

    #[test]
    fn empty_vocabulary_mediates_to_empty_schema() {
        let a = schema(1, &[]);
        let b = schema(2, &[]);
        let v = NWayMatch::new(vec![&a, &b]).vocabulary();
        let mediated = v.mediated_schema(&[&a, &b], SchemaId(52), "Empty", 2);
        assert!(mediated.is_empty());
    }

    /// Record one validated `(s, t)` between the first two of three
    /// schemata. An id past schema 0's or schema 1's three elements would
    /// map to the next schema's nodes and merge an unrelated element.
    fn add_between_first_two(s: u32, t: u32) {
        let a = schema(1, &["date", "name", "alpha"]);
        let b = schema(2, &["dt", "name", "beta"]);
        let c = schema(3, &["event_date", "gamma"]);
        let mut nway = NWayMatch::new(vec![&a, &b, &c]);
        let mut ab = MatchSet::new();
        ab.push(validated(ElementId(s), ElementId(t)));
        nway.add_pairwise(0, 1, &ab);
    }

    #[test]
    #[should_panic(expected = "source element ElementId(3) outside schema 0's 3 elements")]
    fn out_of_range_source_on_a_non_last_schema_rejected() {
        add_between_first_two(3, 0);
    }

    #[test]
    #[should_panic(expected = "target element ElementId(3) outside schema 1's 3 elements")]
    fn out_of_range_target_on_a_non_last_schema_rejected() {
        add_between_first_two(0, 3);
    }

    #[test]
    #[should_panic(expected = "at most 32")]
    fn vocabulary_beyond_32_schemata_rejected() {
        let schemas: Vec<Schema> = (0..33).map(|i| schema(i, &["x"])).collect();
        let refs: Vec<&Schema> = schemas.iter().collect();
        // Consolidation itself works at any N; only the u32-signature
        // vocabulary view is capped.
        let nway = NWayMatch::new(refs);
        assert_eq!(nway.n(), 33);
        let _ = nway.vocabulary();
    }

    /// Three structured schemata with genuine lexical overlap, for the
    /// batch-vs-legacy-loop equivalence pins.
    fn overlapping_trio() -> Vec<Schema> {
        let mk = |id: u32, root: &str, leaves: &[&str]| {
            let mut s = Schema::new(SchemaId(id), format!("S{id}"), SchemaFormat::Generic);
            let r = s.add_root(root, ElementKind::Group, DataType::None);
            for l in leaves {
                s.add_child(r, *l, ElementKind::Column, DataType::text())
                    .unwrap();
            }
            s
        };
        vec![
            mk(1, "Event", &["begin_date", "location_name", "remarks"]),
            mk(2, "EventType", &["BeginDate", "LocationName", "priority"]),
            mk(3, "Incident", &["start_date", "site_name", "severity"]),
        ]
    }

    /// The pre-batch behavior of `populate_pairwise`, reproduced verbatim:
    /// a sequential loop of dense `run_select` calls.
    fn legacy_dense_vocabulary(
        schemas: &[&Schema],
        engine: &MatchEngine,
        threshold: Confidence,
    ) -> Vocabulary {
        let selection = crate::select::Selection::OneToOne { min: threshold };
        let mut nway = NWayMatch::new(schemas.to_vec());
        for i in 0..schemas.len() {
            for j in (i + 1)..schemas.len() {
                let (_, selected) = engine
                    .pipeline()
                    .run_select(schemas[i], schemas[j], &selection);
                let mut validated = MatchSet::new();
                for c in selected.all() {
                    validated.push(c.clone().validate("x", MatchAnnotation::Equivalent));
                }
                nway.add_pairwise(i, j, &validated);
            }
        }
        nway.vocabulary()
    }

    /// Five schemata: the overlapping trio, a fourth sharing its
    /// vocabulary, and a fifth on a disjoint island.
    fn five_mixed() -> Vec<Schema> {
        let mk = |id: u32, root: &str, leaves: &[&str]| {
            let mut s = Schema::new(SchemaId(id), format!("S{id}"), SchemaFormat::Generic);
            let r = s.add_root(root, ElementKind::Group, DataType::None);
            for l in leaves {
                s.add_child(r, *l, ElementKind::Column, DataType::text())
                    .unwrap();
            }
            s
        };
        let mut schemas = overlapping_trio();
        schemas.push(mk(4, "Occurrence", &["begin_date", "site_name", "status"]));
        schemas.push(mk(5, "Starship", &["flux_capacitor", "warp_coil"]));
        schemas
    }

    /// Pin: adding schemata incrementally under the provable plan policy
    /// reproduces a full planned population over all N — same vocabulary,
    /// and the add-one step executes only the new rows' surviving pairs.
    #[test]
    fn incremental_add_one_matches_full_replan() {
        let schemas = five_mixed();
        let refs: Vec<&Schema> = schemas.iter().collect();
        let engine = MatchEngine::new().with_threads(2);
        let threshold = Confidence::new(0.3);

        let mut full = NWayMatch::new(refs.clone());
        let full_pop = full.populate_planned(
            &engine,
            &BlockingPolicy::default(),
            PlanPolicy::provable(),
            threshold,
            "x",
        );

        let mut incr = NWayMatch::new(refs[..4].to_vec());
        let base_pop = incr.populate_planned(
            &engine,
            &BlockingPolicy::default(),
            PlanPolicy::provable(),
            threshold,
            "x",
        );
        assert_eq!(incr.add_schema(refs[4]), 4);
        let add_pop = incr.populate_incremental(&engine, "x");

        // The add-one step plans only the 4 new pairs (minus pruned ones),
        // and its plan/prune split is consistent.
        assert_eq!(add_pop.planned() + add_pop.pruned, 4);
        assert_eq!(
            base_pop.planned() + base_pop.pruned + add_pop.planned() + add_pop.pruned,
            10,
            "incremental population covers exactly the full pair set"
        );
        assert!(add_pop.timings.plan_estimate > std::time::Duration::ZERO);
        assert!(add_pop.timings.plan >= add_pop.timings.plan_estimate);

        // Same pruning decisions as the full plan (bounds are exact at the
        // final N), and the same consolidation.
        assert_eq!(base_pop.pruned + add_pop.pruned, full_pop.pruned);
        assert_eq!(
            base_pop.validated() + add_pop.validated(),
            full_pop.validated()
        );
        assert_eq!(incr.vocabulary(), full.vocabulary());
    }

    /// `populate_planned` under the provable policy equals the unplanned
    /// batch population: pruned pairs select nothing.
    #[test]
    fn planned_population_matches_unplanned_under_provable_policy() {
        let schemas = five_mixed();
        let refs: Vec<&Schema> = schemas.iter().collect();
        let engine = MatchEngine::new().with_threads(2);
        let threshold = Confidence::new(0.3);

        let mut unplanned = NWayMatch::new(refs.clone());
        let outcomes = unplanned.populate_pairwise(&engine, threshold, "x");
        assert_eq!(outcomes.len(), 10);

        let mut planned = NWayMatch::new(refs.clone());
        let pop = planned.populate_planned(
            &engine,
            &BlockingPolicy::default(),
            PlanPolicy::provable(),
            threshold,
            "x",
        );
        assert!(pop.pruned > 0, "the island pairs must be pruned");
        assert_eq!(planned.vocabulary(), unplanned.vocabulary());
    }

    /// Pin: a cancelled add-one leaves the match as it was. Retried on an
    /// untripped engine sharing the feature cache, it equals an add-one
    /// that was never cancelled — same outcomes, same pruned count, same
    /// vocabulary. The cut sits exactly at the largest new-pair bound, so
    /// a retry that counted the new slot's tokens twice (an inflated df,
    /// hence a smaller IDF weight) would prune that pair.
    #[test]
    fn cancelled_add_one_retries_like_an_uncancelled_one() {
        let schemas = five_mixed();
        let refs: Vec<&Schema> = schemas[..4].iter().collect();
        let engine = MatchEngine::new().with_threads(2);
        let new = refs.len() - 1;
        let batch = engine
            .batch()
            .with_plan_policy(PlanPolicy::provable())
            .plan_all_pairs(&refs);
        let estimates = batch.overlap().expect("the provable policy estimates");
        let cut = (0..new)
            .map(|s| estimates.bound(s, new))
            .fold(0.0, f64::max);
        assert!(cut > 0.0, "the new schema must share vocabulary");
        let grown = || {
            let mut nway = NWayMatch::new(refs[..new].to_vec());
            nway.populate_planned(
                &engine,
                &BlockingPolicy::default(),
                PlanPolicy::OverlapThreshold { min_weight: cut },
                Confidence::new(0.3),
                "x",
            );
            nway.add_schema(refs[new]);
            nway
        };

        let mut clean = grown();
        let want = clean.populate_incremental(&engine, "x");
        assert!(want.planned() > 0 && want.pruned > 0);

        let mut retried = grown();
        let token = crate::serve::JobToken::new();
        token.cancel();
        let tripped = MatchEngine::new()
            .with_threads(2)
            .with_feature_cache(Arc::clone(engine.feature_cache()))
            .with_job_token(token);
        let cancelled = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            retried.populate_incremental(&tripped, "x")
        }));
        assert!(cancelled.is_err(), "a tripped token must stop the add-one");
        let got = retried.populate_incremental(&engine, "x");
        assert_eq!(got.outcomes, want.outcomes);
        assert_eq!(got.pruned, want.pruned);
        assert_eq!(retried.vocabulary(), clean.vocabulary());
    }

    #[test]
    #[should_panic(expected = "populate_planned must precede")]
    fn incremental_without_standing_plan_rejected() {
        let schemas = overlapping_trio();
        let refs: Vec<&Schema> = schemas.iter().collect();
        let engine = MatchEngine::new().with_threads(2);
        let mut nway = NWayMatch::new(refs);
        let _ = nway.populate_incremental(&engine, "x");
    }

    /// Pin: the batched `populate_pairwise` leaves vocabulary results
    /// unchanged from the historical sequential dense loop — exactly, under
    /// the exhaustive policy, and equally under the default blocking policy
    /// (whose recall property keeps every dense above-threshold pair).
    #[test]
    fn populate_pairwise_matches_legacy_dense_loop() {
        let schemas = overlapping_trio();
        let refs: Vec<&Schema> = schemas.iter().collect();
        let engine = MatchEngine::new().with_threads(2);
        let threshold = Confidence::new(0.3);
        let legacy = legacy_dense_vocabulary(&refs, &engine, threshold);
        assert!(
            legacy.terms.iter().any(|t| t.schema_count() > 1),
            "fixture must actually produce cross-schema terms"
        );

        let mut exhaustive = NWayMatch::new(refs.clone());
        let outcomes = exhaustive.populate_pairwise_with_policy(
            &engine,
            &BlockingPolicy::Exhaustive,
            threshold,
            "x",
        );
        assert!(outcomes
            .iter()
            .all(|o| o.pairs_scored == o.pairs_considered));
        assert_eq!(exhaustive.vocabulary(), legacy);

        let mut blocked = NWayMatch::new(refs.clone());
        let outcomes = blocked.populate_pairwise(&engine, threshold, "x");
        assert!(
            outcomes.iter().any(|o| o.pairs_scored < o.pairs_considered),
            "default policy must actually prune"
        );
        assert_eq!(blocked.vocabulary(), legacy);
    }
}
