//! # harmony-core — the Harmony-style match engine and enterprise workflow
//!
//! This crate is the primary contribution of the reproduction of *The Role of
//! Schema Matching in Large Enterprises* (Smith et al., CIDR 2009). It
//! implements:
//!
//! * the **match engine** of §3.2 — linguistic preprocessing (via `sm-text`),
//!   a panel of [`voter::MatchVoter`]s producing evidence-aware
//!   [`confidence::Confidence`] scores in (−1, +1), and a
//!   [`merger::MergeStrategy`] that combines them "based on how confident
//!   each match voter is regarding a given correspondence";
//! * the **filters** of §3.2 — the confidence [`filter::LinkFilter`] and the
//!   depth / sub-tree [`filter::NodeFilter`]s the paper's engineers "relied
//!   heavily on";
//! * the **workflow operators** the paper argues industrial-scale matching
//!   needs: [`summarize`] (`SUMMARIZE(S)`, Lesson #1),
//!   [`workflow::IncrementalSession`] (concept-at-a-time incremental
//!   matching, §3.3), [`partition::BinaryPartition`] ({S1−S2}, {S2−S1},
//!   {S1∩S2}, Lesson #3), [`nway::NWayMatch`] and the comprehensive
//!   [`nway::Vocabulary`] (Lesson #4), and [`effort::EffortModel`]
//!   (project-planning estimation, §2).
//!
//! ## Quick start
//!
//! ```
//! use harmony_core::prelude::*;
//! use sm_schema::{ddl::parse_ddl, xsd::parse_xsd, SchemaId};
//!
//! let s_a = parse_ddl(SchemaId(1), "S_A",
//!     "CREATE TABLE Person ( person_id INT PRIMARY KEY, last_name VARCHAR(40) );").unwrap();
//! let s_b = parse_xsd(SchemaId(2), "S_B", r#"
//!     <xs:schema><xs:complexType name="PersonType">
//!       <xs:element name="PersonId" type="xs:integer"/>
//!       <xs:element name="LastName" type="xs:string"/>
//!     </xs:complexType></xs:schema>"#).unwrap();
//!
//! let engine = MatchEngine::new();
//! let result = engine.run(&s_a, &s_b);
//! let candidates = Selection::OneToOne { min: Confidence::new(0.15) }
//!     .apply(&result.matrix);
//! assert!(!candidates.is_empty());
//! ```

#![warn(missing_docs)]

pub mod batch;
mod cascade;
pub mod confidence;
pub mod context;
pub mod correspondence;
pub mod effort;
pub mod engine;
pub mod exec;
pub mod filter;
pub mod index;
pub mod matrix;
pub mod merger;
pub mod nway;
pub mod obs;
pub mod partition;
pub mod pipeline;
pub mod prepare;
pub mod select;
pub mod serve;
pub mod summarize;
pub mod swap;
pub mod voter;
pub mod workflow;

/// One-stop imports for typical use.
pub mod prelude {
    pub use crate::batch::{
        BatchPairResult, BatchPlanner, BatchResult, BatchSelectResult, BatchSelection, ClusterPlan,
        MatchBatch, OverlapEstimates, PairRequest, PlanBreakdown, PlanPolicy,
    };
    pub use crate::confidence::Confidence;
    pub use crate::correspondence::{Correspondence, MatchAnnotation, MatchSet, MatchStatus};
    pub use crate::effort::{EffortEstimate, EffortModel, Workload};
    pub use crate::engine::{detect_threads, BlockedMatchResult, MatchEngine, MatchResult};
    pub use crate::exec::{ExecStats, Executor, Job};
    pub use crate::filter::{LinkFilter, NodeFilter};
    pub use crate::index::{BlockingPolicy, CandidateSet, ElementTokenIndex};
    pub use crate::matrix::MatchMatrix;
    pub use crate::merger::MergeStrategy;
    pub use crate::nway::{NWayMatch, NWayPopulation, PairwiseOutcome, Vocabulary, VocabularyTerm};
    pub use crate::obs::{SpanKind, TraceReport};
    pub use crate::partition::{BinaryPartition, SubsumptionAdvice};
    pub use crate::pipeline::{MatchPipeline, StageTimings};
    pub use crate::prepare::{FeatureCache, PreparedSchema};
    pub use crate::select::Selection;
    pub use crate::serve::{
        AdmissionController, CancelReason, ClassPolicy, JobClass, JobGrant, JobToken,
        MemoryGovernor, MemoryPolicy, ServeConfig, ServeError,
    };
    pub use crate::summarize::{auto_summarize, Concept, Summary};
    pub use crate::voter::MatchVoter;
    pub use crate::workflow::{IncrementalSession, NoisyOracle, Oracle};
}

pub use prelude::*;
