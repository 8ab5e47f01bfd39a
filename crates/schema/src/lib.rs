//! # sm-schema — schema model substrate
//!
//! This crate provides the schema representation consumed by the Harmony-style
//! match engine in `harmony-core`. It reproduces the modelling assumptions of
//! *The Role of Schema Matching in Large Enterprises* (CIDR 2009):
//!
//! * Schemata are **trees of named elements**. In a relational schema, tables
//!   appear at depth 1 and columns at depth 2 (the paper's depth-filter
//!   example). In an XML schema, complex types nest arbitrarily deep.
//! * Every element may carry **textual documentation**; the paper's Harmony
//!   matcher "relies heavily on textual documentation … instead of data
//!   instances" (§3.2), so documentation is a first-class field here.
//! * Schemata are identified artifacts: a large enterprise manages *thousands*
//!   of them in a metadata registry (§2), so [`SchemaId`] and element paths
//!   are stable and serializable.
//!
//! The crate contains:
//!
//! * [`element`] / [`schema`] — the arena-based generic element tree.
//! * [`datatype`] — a compact data-type lattice with a compatibility measure.
//! * [`relational`] and [`xml`] — typed builders for the two schema formats
//!   the paper's case study involves (S_A was relational, S_B was XML).
//! * [`ddl`] and [`xsd`] — parsers for textual serializations of those two
//!   formats, so schemata can be loaded from files.
//! * [`stats`] — schema statistics used for summarization and search.
//! * [`path`] — slash-separated stable element paths.

#![warn(missing_docs)]

pub mod datatype;
pub mod ddl;
pub mod doc;
pub mod element;
pub mod error;
pub mod instances;
pub mod path;
pub mod relational;
pub mod schema;
pub mod stats;
pub mod xml;
pub mod xsd;

pub use datatype::DataType;
pub use doc::Documentation;
pub use element::{Element, ElementId, ElementKind};
pub use error::SchemaError;
pub use instances::{InstanceData, InstanceProfile};
pub use path::SchemaPath;
pub use relational::{ColumnSpec, RelationalSchemaBuilder, TableSpec};
pub use schema::{Schema, SchemaFormat, SchemaId};
pub use stats::SchemaStats;
pub use xml::{XmlNodeSpec, XmlSchemaBuilder};

/// `sample` cut to its first `cut` bytes with each `(offset, byte)` flip
/// applied inside the cut, read back as text (invalid UTF-8 becomes
/// U+FFFD) — the input mutation behind the parsers' robustness proptests.
#[cfg(test)]
pub(crate) fn mutated(sample: &str, cut: usize, flips: &[(usize, u8)]) -> String {
    let mut bytes = sample.as_bytes()[..cut].to_vec();
    for &(at, byte) in flips {
        if let Some(b) = bytes.get_mut(at) {
            *b = byte;
        }
    }
    String::from_utf8_lossy(&bytes).into_owned()
}
