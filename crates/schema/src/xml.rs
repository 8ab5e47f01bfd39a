//! Typed builder for XML schemata.
//!
//! The paper's S_B "is an XML Schema, contains 784 elements". In the element
//! model a top-level complex type is a depth-1 root; nested elements and
//! attributes descend from it. Cardinality (`minOccurs`/`maxOccurs`) is kept
//! because structural voters use repeatability as evidence.

use crate::datatype::DataType;
use crate::doc::Documentation;
use crate::element::{ElementId, ElementKind};
use crate::error::{check_name, SchemaError};
use crate::schema::{Schema, SchemaFormat, SchemaId};
use serde::{Deserialize, Serialize};

/// Occurrence constraint of an XML node.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct Occurs {
    /// Minimum occurrences.
    pub min: u32,
    /// Maximum occurrences; `None` = unbounded.
    pub max: Option<u32>,
}

impl Occurs {
    /// Exactly one (the XSD default).
    pub const ONE: Occurs = Occurs {
        min: 1,
        max: Some(1),
    };
    /// Zero or one.
    pub const OPTIONAL: Occurs = Occurs {
        min: 0,
        max: Some(1),
    };
    /// Zero or more.
    pub const MANY: Occurs = Occurs { min: 0, max: None };

    /// True when more than one occurrence is allowed.
    pub fn repeats(self) -> bool {
        self.max.is_none_or(|m| m > 1)
    }
}

impl Default for Occurs {
    fn default() -> Self {
        Occurs::ONE
    }
}

/// Specification of one node in an XML schema tree.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct XmlNodeSpec {
    /// Node name.
    pub name: String,
    /// Element vs attribute vs nested complex type.
    pub kind: XmlNodeKind,
    /// Value type for simple content.
    pub datatype: DataType,
    /// Occurrence constraint (ignored for attributes).
    pub occurs: Occurs,
    /// Optional documentation (xs:annotation/xs:documentation).
    pub doc: Option<String>,
    /// Nested children.
    pub children: Vec<XmlNodeSpec>,
}

/// Kinds of XML schema nodes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum XmlNodeKind {
    /// An element declaration (may nest or carry simple content).
    Element,
    /// An attribute declaration.
    Attribute,
    /// A named complex type (containers only).
    ComplexType,
}

impl XmlNodeSpec {
    /// A simple-content element.
    pub fn element(name: impl Into<String>, datatype: DataType) -> Self {
        XmlNodeSpec {
            name: name.into(),
            kind: XmlNodeKind::Element,
            datatype,
            occurs: Occurs::ONE,
            doc: None,
            children: Vec::new(),
        }
    }

    /// An attribute.
    pub fn attribute(name: impl Into<String>, datatype: DataType) -> Self {
        XmlNodeSpec {
            name: name.into(),
            kind: XmlNodeKind::Attribute,
            datatype,
            occurs: Occurs::OPTIONAL,
            doc: None,
            children: Vec::new(),
        }
    }

    /// A container element / complex type.
    pub fn complex(name: impl Into<String>) -> Self {
        XmlNodeSpec {
            name: name.into(),
            kind: XmlNodeKind::ComplexType,
            datatype: DataType::None,
            occurs: Occurs::ONE,
            doc: None,
            children: Vec::new(),
        }
    }

    /// Append a child node.
    pub fn child(mut self, c: XmlNodeSpec) -> Self {
        self.children.push(c);
        self
    }

    /// Set the occurrence constraint.
    pub fn occurs(mut self, occurs: Occurs) -> Self {
        self.occurs = occurs;
        self
    }

    /// Attach documentation.
    pub fn documented(mut self, doc: impl Into<String>) -> Self {
        self.doc = Some(doc.into());
        self
    }

    /// Total node count of this spec (itself plus descendants).
    pub fn size(&self) -> usize {
        1 + self.children.iter().map(XmlNodeSpec::size).sum::<usize>()
    }
}

/// Builder assembling an XML [`Schema`] from root [`XmlNodeSpec`]s.
#[derive(Debug)]
pub struct XmlSchemaBuilder {
    id: SchemaId,
    name: String,
    roots: Vec<XmlNodeSpec>,
}

impl XmlSchemaBuilder {
    /// Start a new XML schema.
    pub fn new(id: SchemaId, name: impl Into<String>) -> Self {
        XmlSchemaBuilder {
            id,
            name: name.into(),
            roots: Vec::new(),
        }
    }

    /// Append a top-level node (complex type or global element).
    pub fn root(mut self, spec: XmlNodeSpec) -> Self {
        self.roots.push(spec);
        self
    }

    /// Append many top-level nodes.
    pub fn roots(mut self, specs: impl IntoIterator<Item = XmlNodeSpec>) -> Self {
        self.roots.extend(specs);
        self
    }

    /// Build the schema.
    pub fn build(self) -> Result<Schema, SchemaError> {
        let mut schema = Schema::new(self.id, self.name, SchemaFormat::Xml);
        for spec in &self.roots {
            Self::check_names(spec)?;
        }
        for spec in self.roots {
            let kind = element_kind(&spec);
            let id = schema.add_root(&spec.name, kind, spec.datatype);
            if let Some(doc) = &spec.doc {
                schema.set_doc(id, Documentation::embedded(doc))?;
            }
            Self::add_children(&mut schema, id, &spec.children)?;
        }
        debug_assert!(schema.validate().is_ok());
        Ok(schema)
    }

    fn check_names(spec: &XmlNodeSpec) -> Result<(), SchemaError> {
        check_name(&spec.name)?;
        spec.children.iter().try_for_each(Self::check_names)
    }

    fn add_children(
        schema: &mut Schema,
        parent: ElementId,
        children: &[XmlNodeSpec],
    ) -> Result<(), SchemaError> {
        for c in children {
            let id = schema.add_child(parent, &c.name, element_kind(c), c.datatype)?;
            if let Some(doc) = &c.doc {
                schema.set_doc(id, Documentation::embedded(doc))?;
            }
            Self::add_children(schema, id, &c.children)?;
        }
        Ok(())
    }
}

fn element_kind(spec: &XmlNodeSpec) -> ElementKind {
    match spec.kind {
        XmlNodeKind::Attribute => ElementKind::Attribute,
        XmlNodeKind::ComplexType => ElementKind::ComplexType,
        XmlNodeKind::Element => {
            if spec.children.is_empty() {
                ElementKind::XmlElement
            } else {
                // Elements with children behave as containers structurally.
                ElementKind::XmlElement
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn vehicle_type() -> XmlNodeSpec {
        XmlNodeSpec::complex("VehicleType")
            .documented("a ground vehicle")
            .child(XmlNodeSpec::attribute("id", DataType::text()))
            .child(XmlNodeSpec::element("Vin", DataType::varchar(17)))
            .child(
                XmlNodeSpec::complex("Wheel")
                    .occurs(Occurs::MANY)
                    .child(XmlNodeSpec::element("Size", DataType::Integer)),
            )
    }

    #[test]
    fn builds_nested_tree_with_depths() {
        let s = XmlSchemaBuilder::new(SchemaId(2), "S_B")
            .root(vehicle_type())
            .build()
            .unwrap();
        assert_eq!(s.len(), 5);
        assert_eq!(s.format, SchemaFormat::Xml);
        assert_eq!(s.max_depth(), 3);
        let size = s.find_by_name("Size").unwrap();
        assert_eq!(s.element(size).depth, 3);
        assert_eq!(s.path(size).to_string(), "VehicleType/Wheel/Size");
        s.validate().unwrap();
    }

    #[test]
    fn spec_size_counts_descendants() {
        assert_eq!(vehicle_type().size(), 5);
        assert_eq!(XmlNodeSpec::element("x", DataType::text()).size(), 1);
    }

    #[test]
    fn occurs_semantics() {
        assert!(!Occurs::ONE.repeats());
        assert!(!Occurs::OPTIONAL.repeats());
        assert!(Occurs::MANY.repeats());
        assert!(Occurs {
            min: 1,
            max: Some(8)
        }
        .repeats());
        assert_eq!(Occurs::default(), Occurs::ONE);
    }

    #[test]
    fn attribute_and_kind_mapping() {
        let s = XmlSchemaBuilder::new(SchemaId(2), "x")
            .root(vehicle_type())
            .build()
            .unwrap();
        let id = s.find_by_name("id").unwrap();
        assert_eq!(s.element(id).kind, ElementKind::Attribute);
        let vt = s.find_by_name("VehicleType").unwrap();
        assert_eq!(s.element(vt).kind, ElementKind::ComplexType);
        let vin = s.find_by_name("Vin").unwrap();
        assert_eq!(s.element(vin).kind, ElementKind::XmlElement);
    }

    #[test]
    fn empty_nested_name_rejected() {
        let bad = XmlNodeSpec::complex("A").child(XmlNodeSpec::element(" ", DataType::text()));
        assert!(XmlSchemaBuilder::new(SchemaId(2), "x")
            .root(bad)
            .build()
            .is_err());
    }

    #[test]
    fn multiple_roots_supported() {
        let s = XmlSchemaBuilder::new(SchemaId(2), "x")
            .root(XmlNodeSpec::complex("A"))
            .root(XmlNodeSpec::complex("B"))
            .build()
            .unwrap();
        assert_eq!(s.roots().len(), 2);
    }
}
