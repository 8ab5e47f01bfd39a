//! # sm-enterprise — schema matching at enterprise scale
//!
//! The paper's §2 and §5 argue that in large enterprises, schemata must be
//! "managed as data themselves" and that matching infrastructure must serve
//! decision makers: CIOs asking "which data sources contain the concept of
//! blood test", planners costing integration projects, registries holding
//! thousands of schemata. This crate implements those operations on top of
//! `harmony-core`:
//!
//! * [`repository`] — a metadata repository storing schemata *and matches as
//!   knowledge artifacts*, with context tags and provenance ("who said that X
//!   is the same as Y, and should I trust that assertion?", §5).
//! * [`shard`] — the repository-level inverted token index behind search,
//!   clustering, and COI proposal: posting lists weighted by smoothed IDF
//!   over the live schemata, so repository operations touch only schemata
//!   that share vocabulary instead of scanning the whole registry.
//!   Token-range sharded, incrementally maintained (delta logs +
//!   tombstones + per-shard compaction) and built in parallel; its weights,
//!   totals and probe sums are pinned bit for bit against a brute-force
//!   scan of the live schemata.
//! * [`persist`] — compact binary warm-start images of the prepared
//!   registry, so a restarted process skips linguistic re-preparation.
//! * [`search`] — query-by-schema search ("simply use one's target schema as
//!   the query term", §2).
//! * [`cluster`] — schema clustering over overlap distance ("revealing to
//!   integration planners the most promising (i.e., tightly clustered)
//!   candidates for integration", §5).
//! * [`coi`] — community-of-interest proposal from clusters ("a schema
//!   repository such as the MDR could automatically propose new COIs", §2).
//! * [`feasibility`] — project feasibility and cost estimation (§2).
//! * [`team`] — dividing a matching workflow into per-engineer task queues
//!   ("modular task queues appropriate to each team member", §5).

#![warn(missing_docs)]

pub mod cluster;
pub mod coi;
pub mod feasibility;
#[cfg(test)]
mod index;
pub mod persist;
pub mod repository;
pub mod search;
pub mod shard;
pub mod team;

pub use cluster::{agglomerative, ClusterEval, Clustering, Linkage};
pub use coi::{attach_match_evidence, propose_cois, CoiProposal};
pub use feasibility::{FeasibilityGrade, FeasibilityReport};
pub use persist::{load_registry, save_registry, LoadedRegistry};
pub use repository::{MatchContextTag, MatchRecord, MetadataRepository, Provenance};
pub use search::{FragmentHit, SchemaSearch, SearchHit};
pub use shard::{ShardConfig, ShardedRepositoryIndex};
pub use team::{EngineerProfile, TaskQueue, TeamPlan};
