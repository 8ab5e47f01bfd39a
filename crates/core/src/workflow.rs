//! The human matching workflow: incremental, concept-at-a-time review.
//!
//! §3.3 of the paper describes the loop precisely: engineers summarized both
//! schemata into concepts, then "used Harmony's sub-tree filter to
//! incrementally match each concept (i.e., the schema sub-tree rooted at that
//! concept) with the entire opposing schema. … Using the confidence filter,
//! matches scoring above a threshold were then examined by a human
//! integration engineer; valid matches and related annotations were recorded
//! in Harmony." Each increment considered "typically between 10^4 and 10^5
//! matches".
//!
//! [`IncrementalSession`] drives that loop. The human reviewer is modelled by
//! the [`Oracle`] trait; [`NoisyOracle`] wraps ground truth with a
//! configurable error rate (a deterministic xorshift RNG keeps `rand` out of
//! the core crate and makes sessions reproducible). Machine time per
//! increment rides the same persistent [`crate::exec::Executor`] as every
//! other workload — increment scoring shards across pool lanes while the
//! reviewer loop stays sequential and deterministic.

use crate::confidence::Confidence;
use crate::context::MatchContext;
use crate::correspondence::{Correspondence, MatchAnnotation, MatchSet};
use crate::engine::MatchEngine;
use crate::filter::NodeFilter;
use crate::summarize::Summary;
use sm_schema::{ElementId, Schema};
use std::collections::HashSet;

/// A reviewer: decides whether a candidate pair is a real correspondence.
pub trait Oracle {
    /// Judge one candidate. Implementations may be stateful (fatigue models,
    /// learning reviewers, …).
    fn judge(&mut self, source: ElementId, target: ElementId, score: Confidence) -> bool;

    /// Name recorded as `asserted_by` on validated correspondences.
    fn reviewer_name(&self) -> &str {
        "oracle"
    }
}

/// An oracle that knows the ground truth but errs with probability
/// `error_rate` (both false accepts and false rejects), deterministically
/// seeded.
pub struct NoisyOracle {
    truth: HashSet<(ElementId, ElementId)>,
    error_rate: f64,
    rng_state: u64,
    name: String,
}

impl NoisyOracle {
    /// Perfectly accurate oracle over the given true pairs.
    pub fn perfect(truth: HashSet<(ElementId, ElementId)>) -> Self {
        NoisyOracle {
            truth,
            error_rate: 0.0,
            rng_state: 0x9E37_79B9_7F4A_7C15,
            name: "oracle".to_string(),
        }
    }

    /// Oracle with the given error rate and seed.
    pub fn new(truth: HashSet<(ElementId, ElementId)>, error_rate: f64, seed: u64) -> Self {
        NoisyOracle {
            truth,
            error_rate: error_rate.clamp(0.0, 1.0),
            rng_state: seed | 1,
            name: "oracle".to_string(),
        }
    }

    /// Set the reviewer name recorded on validations.
    pub fn named(mut self, name: impl Into<String>) -> Self {
        self.name = name.into();
        self
    }

    fn next_unit(&mut self) -> f64 {
        // xorshift64*
        let mut x = self.rng_state;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.rng_state = x;
        let v = x.wrapping_mul(0x2545_F491_4F6C_DD1D);
        (v >> 11) as f64 / (1u64 << 53) as f64
    }
}

impl Oracle for NoisyOracle {
    fn judge(&mut self, source: ElementId, target: ElementId, _score: Confidence) -> bool {
        let true_answer = self.truth.contains(&(source, target));
        if self.error_rate > 0.0 && self.next_unit() < self.error_rate {
            !true_answer
        } else {
            true_answer
        }
    }

    fn reviewer_name(&self) -> &str {
        &self.name
    }
}

/// Statistics of one workflow increment (one concept matched against the
/// opposing schema).
#[derive(Debug, Clone, PartialEq)]
pub struct IncrementReport {
    /// Label of the concept driving the increment.
    pub label: String,
    /// Source elements enabled by the node filter.
    pub source_elements: usize,
    /// Target elements enabled by the node filter.
    pub target_elements: usize,
    /// Candidate pairs scored — the paper's "matches considered" (10^4–10^5
    /// per increment in their case study).
    pub pairs_considered: usize,
    /// Candidates above the confidence threshold, i.e. shown to the human.
    pub shown_to_reviewer: usize,
    /// Candidates the reviewer accepted.
    pub accepted: usize,
}

/// An interactive matching session over one schema pair.
pub struct IncrementalSession<'a> {
    engine: &'a MatchEngine,
    ctx: MatchContext<'a>,
    source: &'a Schema,
    target: &'a Schema,
    /// Confidence threshold above which candidates reach the reviewer.
    pub threshold: Confidence,
    validated: MatchSet,
    reports: Vec<IncrementReport>,
}

impl<'a> IncrementalSession<'a> {
    /// Start a session. The pairwise context is assembled once; per-schema
    /// linguistic features come from the engine's
    /// [`crate::prepare::FeatureCache`], so a session over schemata the
    /// engine has already matched (or searched, or clustered) skips
    /// normalization entirely.
    pub fn new(
        engine: &'a MatchEngine,
        source: &'a Schema,
        target: &'a Schema,
        threshold: Confidence,
    ) -> Self {
        IncrementalSession {
            ctx: engine.build_context(source, target),
            engine,
            source,
            target,
            threshold,
            validated: MatchSet::new(),
            reports: Vec::new(),
        }
    }

    /// Run one increment: source elements passing `source_filter` against
    /// target elements passing `target_filter`; candidates above the session
    /// threshold go to `oracle`; accepted pairs are recorded as validated.
    ///
    /// Scoring runs on the engine's persistent executor (each increment is
    /// the paper's 10^4–10^5 pairs — `run_restricted` runs the pipeline's
    /// Score/Merge/Propagate over the id rectangle); only the human-review
    /// loop is sequential.
    pub fn run_increment(
        &mut self,
        label: impl Into<String>,
        source_filter: &NodeFilter,
        target_filter: &NodeFilter,
        oracle: &mut dyn Oracle,
    ) -> &IncrementReport {
        let source_ids = source_filter.select(self.source);
        let target_ids = target_filter.select(self.target);
        let result = self
            .engine
            .run_restricted(&self.ctx, &source_ids, &target_ids);
        let candidates = result.above(self.threshold);
        let mut accepted = 0usize;
        for (s, t, score) in &candidates {
            if oracle.judge(*s, *t, *score) {
                accepted += 1;
                self.validated
                    .push(Correspondence::candidate(*s, *t, *score).validate(
                        oracle.reviewer_name().to_string(),
                        MatchAnnotation::Equivalent,
                    ));
            }
        }
        self.reports.push(IncrementReport {
            label: label.into(),
            source_elements: source_ids.len(),
            target_elements: target_ids.len(),
            pairs_considered: result.pairs_considered,
            shown_to_reviewer: candidates.len(),
            accepted,
        });
        self.reports.last().expect("just pushed")
    }

    /// The paper's concept-at-a-time workflow: for each concept of the source
    /// summary, match its subtree against the *entire* target schema.
    pub fn concept_at_a_time(
        &mut self,
        summary: &Summary,
        oracle: &mut dyn Oracle,
    ) -> Vec<IncrementReport> {
        let before = self.reports.len();
        let concepts: Vec<(String, ElementId)> = summary
            .concepts
            .iter()
            .map(|c| (c.label.clone(), c.anchor))
            .collect();
        for (label, anchor) in concepts {
            self.run_increment(
                label,
                &NodeFilter::subtree(anchor),
                &NodeFilter::All,
                oracle,
            );
        }
        self.reports[before..].to_vec()
    }

    /// Validated correspondences accumulated so far (deduplicated).
    pub fn validated(&self) -> MatchSet {
        let mut set = self.validated.clone();
        set.dedup_pairs();
        set
    }

    /// All increment reports, in execution order.
    pub fn reports(&self) -> &[IncrementReport] {
        &self.reports
    }

    /// Total candidate pairs scored across increments.
    pub fn total_pairs_considered(&self) -> usize {
        self.reports.iter().map(|r| r.pairs_considered).sum()
    }

    /// Total candidates shown to reviewers — the human-effort driver.
    pub fn total_inspected(&self) -> usize {
        self.reports.iter().map(|r| r.shown_to_reviewer).sum()
    }

    /// Borrow the session's match context (e.g. for explanations).
    pub fn context(&self) -> &MatchContext<'a> {
        &self.ctx
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sm_schema::{DataType, ElementKind, SchemaFormat, SchemaId};

    fn fixture() -> (Schema, Schema, HashSet<(ElementId, ElementId)>) {
        let mut a = Schema::new(SchemaId(1), "S_A", SchemaFormat::Relational);
        let ev = a.add_root("Event", ElementKind::Table, DataType::None);
        let a_date = a
            .add_child(ev, "begin_date", ElementKind::Column, DataType::Date)
            .unwrap();
        let a_loc = a
            .add_child(ev, "location_name", ElementKind::Column, DataType::text())
            .unwrap();
        let p = a.add_root("Person", ElementKind::Table, DataType::None);
        let a_ln = a
            .add_child(p, "last_name", ElementKind::Column, DataType::text())
            .unwrap();

        let mut b = Schema::new(SchemaId(2), "S_B", SchemaFormat::Xml);
        let ev2 = b.add_root("EventType", ElementKind::ComplexType, DataType::None);
        let b_date = b
            .add_child(ev2, "BeginDate", ElementKind::XmlElement, DataType::Date)
            .unwrap();
        let b_loc = b
            .add_child(
                ev2,
                "LocationName",
                ElementKind::XmlElement,
                DataType::text(),
            )
            .unwrap();
        let p2 = b.add_root("PersonType", ElementKind::ComplexType, DataType::None);
        let b_ln = b
            .add_child(p2, "LastName", ElementKind::XmlElement, DataType::text())
            .unwrap();

        let truth: HashSet<_> = [
            (ev, ev2),
            (a_date, b_date),
            (a_loc, b_loc),
            (p, p2),
            (a_ln, b_ln),
        ]
        .into_iter()
        .collect();
        (a, b, truth)
    }

    #[test]
    fn increments_record_pair_counts() {
        let (a, b, truth) = fixture();
        let engine = MatchEngine::new().with_threads(1);
        let mut session = IncrementalSession::new(&engine, &a, &b, Confidence::new(0.15));
        let mut oracle = NoisyOracle::perfect(truth);
        let ev = a.find_by_name("Event").unwrap();
        let report = session.run_increment(
            "Event",
            &NodeFilter::subtree(ev),
            &NodeFilter::All,
            &mut oracle,
        );
        assert_eq!(report.source_elements, 3);
        assert_eq!(report.target_elements, b.len());
        assert_eq!(report.pairs_considered, 3 * b.len());
        assert!(report.shown_to_reviewer <= report.pairs_considered);
        assert!(report.accepted <= report.shown_to_reviewer);
    }

    #[test]
    fn concept_at_a_time_covers_all_concepts() {
        let (a, b, truth) = fixture();
        let engine = MatchEngine::new().with_threads(1);
        let ev = a.find_by_name("Event").unwrap();
        let p = a.find_by_name("Person").unwrap();
        let summary = Summary::builder()
            .concept_subtree(&a, "Event", ev)
            .concept_subtree(&a, "Person", p)
            .build();
        let mut session = IncrementalSession::new(&engine, &a, &b, Confidence::new(0.15));
        let mut oracle = NoisyOracle::perfect(truth.clone());
        let reports = session.concept_at_a_time(&summary, &mut oracle);
        assert_eq!(reports.len(), 2);
        // Event subtree has 3 elements, Person subtree 2; each increment
        // scans the whole target schema.
        assert_eq!(session.total_pairs_considered(), (3 + 2) * b.len());
        // With a perfect oracle, every validated pair is true.
        let validated = session.validated();
        for c in validated.validated() {
            assert!(truth.contains(&(c.source, c.target)));
        }
        // The high-signal pairs should be found.
        let a_date = a.find_by_name("begin_date").unwrap();
        let b_date = b.find_by_name("BeginDate").unwrap();
        assert!(validated
            .validated()
            .any(|c| c.source == a_date && c.target == b_date));
    }

    #[test]
    fn noisy_oracle_errs_at_roughly_the_configured_rate() {
        let truth: HashSet<(ElementId, ElementId)> =
            (0..500).map(|i| (ElementId(i), ElementId(i))).collect();
        let mut oracle = NoisyOracle::new(truth.clone(), 0.2, 42);
        let mut errors = 0;
        for i in 0..500u32 {
            let s = ElementId(i);
            let verdict = oracle.judge(s, s, Confidence::new(0.5));
            if !verdict {
                errors += 1; // truth says yes
            }
        }
        let rate = f64::from(errors) / 500.0;
        assert!((rate - 0.2).abs() < 0.07, "observed error rate {rate}");
    }

    #[test]
    fn noisy_oracle_is_deterministic_per_seed() {
        let truth: HashSet<(ElementId, ElementId)> =
            [(ElementId(0), ElementId(0))].into_iter().collect();
        let run = |seed| {
            let mut o = NoisyOracle::new(truth.clone(), 0.5, seed);
            (0..64)
                .map(|i| o.judge(ElementId(i), ElementId(i), Confidence::NEUTRAL))
                .collect::<Vec<bool>>()
        };
        assert_eq!(run(7), run(7));
        assert_ne!(run(7), run(8), "different seeds should diverge");
    }

    #[test]
    fn validated_set_is_deduplicated() {
        let (a, b, truth) = fixture();
        let engine = MatchEngine::new().with_threads(1);
        let mut session = IncrementalSession::new(&engine, &a, &b, Confidence::new(0.15));
        let mut oracle = NoisyOracle::perfect(truth);
        let ev = a.find_by_name("Event").unwrap();
        // The same increment twice produces duplicate validations.
        for _ in 0..2 {
            session.run_increment(
                "Event",
                &NodeFilter::subtree(ev),
                &NodeFilter::All,
                &mut oracle,
            );
        }
        let validated = session.validated();
        let mut seen = HashSet::new();
        for c in validated.all() {
            assert!(
                seen.insert((c.source, c.target)),
                "duplicate survived dedup"
            );
        }
    }

    #[test]
    fn reviewer_name_recorded() {
        let (a, b, truth) = fixture();
        let engine = MatchEngine::new().with_threads(1);
        let mut session = IncrementalSession::new(&engine, &a, &b, Confidence::new(0.15));
        let mut oracle = NoisyOracle::perfect(truth).named("alice");
        let ev = a.find_by_name("Event").unwrap();
        session.run_increment(
            "Event",
            &NodeFilter::subtree(ev),
            &NodeFilter::All,
            &mut oracle,
        );
        let validated = session.validated();
        assert!(validated.validated().all(|c| c.asserted_by == "alice"));
        assert!(validated.validated().count() > 0);
    }
}
