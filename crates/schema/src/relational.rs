//! Typed builder for relational schemata.
//!
//! The paper's S_A is "relational, contains 1378 elements" — in the element
//! model that is tables (depth 1) plus columns (depth 2), with primary- and
//! foreign-key metadata available to structural voters.

use crate::datatype::DataType;
use crate::doc::Documentation;
use crate::element::ElementKind;
use crate::error::{check_name, SchemaError};
use crate::schema::{Schema, SchemaFormat, SchemaId};
use serde::{Deserialize, Serialize};
use std::collections::HashSet;

/// Specification of one column.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ColumnSpec {
    /// Column name.
    pub name: String,
    /// Column value type.
    pub datatype: DataType,
    /// Whether the column is part of the table's primary key.
    pub primary_key: bool,
    /// Whether the column accepts NULL.
    pub nullable: bool,
    /// `Some((table, column))` when the column references another table.
    pub references: Option<(String, String)>,
    /// Optional documentation text.
    pub doc: Option<String>,
}

impl ColumnSpec {
    /// A plain nullable column with no keys or documentation.
    pub fn new(name: impl Into<String>, datatype: DataType) -> Self {
        ColumnSpec {
            name: name.into(),
            datatype,
            primary_key: false,
            nullable: true,
            references: None,
            doc: None,
        }
    }

    /// Mark as primary key (implies NOT NULL).
    pub fn primary(mut self) -> Self {
        self.primary_key = true;
        self.nullable = false;
        self
    }

    /// Mark as NOT NULL.
    pub fn not_null(mut self) -> Self {
        self.nullable = false;
        self
    }

    /// Add a foreign-key reference.
    pub fn referencing(mut self, table: impl Into<String>, column: impl Into<String>) -> Self {
        self.references = Some((table.into(), column.into()));
        self
    }

    /// Attach documentation.
    pub fn documented(mut self, doc: impl Into<String>) -> Self {
        self.doc = Some(doc.into());
        self
    }
}

/// Specification of one table (or view).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct TableSpec {
    /// Table name.
    pub name: String,
    /// True for views; affects [`ElementKind`] only.
    pub is_view: bool,
    /// Column definitions, in order.
    pub columns: Vec<ColumnSpec>,
    /// Optional documentation text.
    pub doc: Option<String>,
}

impl TableSpec {
    /// An empty table.
    pub fn new(name: impl Into<String>) -> Self {
        TableSpec {
            name: name.into(),
            is_view: false,
            columns: Vec::new(),
            doc: None,
        }
    }

    /// Append a column.
    pub fn column(mut self, col: ColumnSpec) -> Self {
        self.columns.push(col);
        self
    }

    /// Attach documentation.
    pub fn documented(mut self, doc: impl Into<String>) -> Self {
        self.doc = Some(doc.into());
        self
    }

    /// Mark as a view.
    pub fn view(mut self) -> Self {
        self.is_view = true;
        self
    }
}

/// Builder assembling a relational [`Schema`] from [`TableSpec`]s.
///
/// Rejects duplicate table names and duplicate column names within a table —
/// real DDL would not load otherwise, and silent duplicates would corrupt
/// match statistics.
#[derive(Debug)]
pub struct RelationalSchemaBuilder {
    id: SchemaId,
    name: String,
    tables: Vec<TableSpec>,
}

impl RelationalSchemaBuilder {
    /// Start a new relational schema.
    pub fn new(id: SchemaId, name: impl Into<String>) -> Self {
        RelationalSchemaBuilder {
            id,
            name: name.into(),
            tables: Vec::new(),
        }
    }

    /// Append a table.
    pub fn table(mut self, spec: TableSpec) -> Self {
        self.tables.push(spec);
        self
    }

    /// Append many tables.
    pub fn tables(mut self, specs: impl IntoIterator<Item = TableSpec>) -> Self {
        self.tables.extend(specs);
        self
    }

    /// Number of tables queued so far.
    pub fn table_count(&self) -> usize {
        self.tables.len()
    }

    /// Build the schema, validating name uniqueness and FK targets.
    ///
    /// Foreign keys referencing unknown tables are tolerated (legacy dumps
    /// frequently reference dropped tables) but FK references to unknown
    /// *columns of known tables* are errors.
    pub fn build(self) -> Result<Schema, SchemaError> {
        let mut schema = Schema::new(self.id, self.name, SchemaFormat::Relational);
        let mut table_names: HashSet<String> = HashSet::with_capacity(self.tables.len());
        for t in &self.tables {
            check_name(&t.name)?;
            if !table_names.insert(t.name.to_ascii_lowercase()) {
                return Err(SchemaError::Duplicate(t.name.clone()));
            }
        }
        // FK validation against declared tables/columns.
        for t in &self.tables {
            for c in &t.columns {
                if let Some((rt, rc)) = &c.references {
                    if let Some(target) =
                        self.tables.iter().find(|x| x.name.eq_ignore_ascii_case(rt))
                    {
                        if !target
                            .columns
                            .iter()
                            .any(|x| x.name.eq_ignore_ascii_case(rc))
                        {
                            return Err(SchemaError::InvalidStructure(format!(
                                "foreign key {}.{} references missing column {}.{}",
                                t.name, c.name, rt, rc
                            )));
                        }
                    }
                }
            }
        }
        for t in self.tables {
            let kind = if t.is_view {
                ElementKind::View
            } else {
                ElementKind::Table
            };
            let tid = schema.add_root(&t.name, kind, DataType::None);
            if let Some(doc) = &t.doc {
                schema.set_doc(tid, Documentation::embedded(doc))?;
            }
            let mut col_names: HashSet<String> = HashSet::with_capacity(t.columns.len());
            for c in t.columns {
                check_name(&c.name)?;
                if !col_names.insert(c.name.to_ascii_lowercase()) {
                    return Err(SchemaError::Duplicate(format!("{}.{}", t.name, c.name)));
                }
                let cid = schema.add_child(tid, &c.name, ElementKind::Column, c.datatype)?;
                if let Some(doc) = &c.doc {
                    schema.set_doc(cid, Documentation::embedded(doc))?;
                }
            }
        }
        debug_assert!(schema.validate().is_ok());
        Ok(schema)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn person_vehicle() -> RelationalSchemaBuilder {
        RelationalSchemaBuilder::new(SchemaId(1), "S_A")
            .table(
                TableSpec::new("Person")
                    .documented("individuals tracked by the system")
                    .column(ColumnSpec::new("person_id", DataType::Integer).primary())
                    .column(
                        ColumnSpec::new("last_name", DataType::varchar(40))
                            .not_null()
                            .documented("family name"),
                    ),
            )
            .table(
                TableSpec::new("Vehicle")
                    .column(ColumnSpec::new("vin", DataType::varchar(17)).primary())
                    .column(
                        ColumnSpec::new("owner_id", DataType::Integer)
                            .referencing("Person", "person_id"),
                    ),
            )
    }

    #[test]
    fn builds_tables_and_columns() {
        let s = person_vehicle().build().unwrap();
        assert_eq!(s.len(), 6);
        assert_eq!(s.at_depth(1).len(), 2);
        assert_eq!(s.at_depth(2).len(), 4);
        assert_eq!(s.format, SchemaFormat::Relational);
        let person = s.find_by_name("Person").unwrap();
        assert!(s.element(person).has_doc());
        s.validate().unwrap();
    }

    #[test]
    fn duplicate_table_rejected() {
        let err = RelationalSchemaBuilder::new(SchemaId(1), "x")
            .table(TableSpec::new("T"))
            .table(TableSpec::new("t"))
            .build()
            .unwrap_err();
        assert_eq!(err, SchemaError::Duplicate("t".into()));
    }

    #[test]
    fn duplicate_column_rejected() {
        let err = RelationalSchemaBuilder::new(SchemaId(1), "x")
            .table(
                TableSpec::new("T")
                    .column(ColumnSpec::new("a", DataType::Integer))
                    .column(ColumnSpec::new("A", DataType::Integer)),
            )
            .build()
            .unwrap_err();
        assert!(matches!(err, SchemaError::Duplicate(_)));
    }

    #[test]
    fn fk_to_missing_column_rejected_but_missing_table_tolerated() {
        // Missing table: tolerated.
        RelationalSchemaBuilder::new(SchemaId(1), "x")
            .table(
                TableSpec::new("T")
                    .column(ColumnSpec::new("r", DataType::Integer).referencing("Ghost", "id")),
            )
            .build()
            .unwrap();
        // Known table, missing column: error.
        let err = RelationalSchemaBuilder::new(SchemaId(1), "x")
            .table(TableSpec::new("U").column(ColumnSpec::new("id", DataType::Integer)))
            .table(
                TableSpec::new("T")
                    .column(ColumnSpec::new("r", DataType::Integer).referencing("U", "nope")),
            )
            .build()
            .unwrap_err();
        assert!(matches!(err, SchemaError::InvalidStructure(_)));
    }

    #[test]
    fn empty_names_rejected() {
        assert!(RelationalSchemaBuilder::new(SchemaId(1), "x")
            .table(TableSpec::new("  "))
            .build()
            .is_err());
        assert!(RelationalSchemaBuilder::new(SchemaId(1), "x")
            .table(TableSpec::new("T").column(ColumnSpec::new("", DataType::Integer)))
            .build()
            .is_err());
    }

    #[test]
    fn views_get_view_kind() {
        let s = RelationalSchemaBuilder::new(SchemaId(1), "x")
            .table(TableSpec::new("All_Event_Vitals").view())
            .build()
            .unwrap();
        let v = s.find_by_name("All_Event_Vitals").unwrap();
        assert_eq!(s.element(v).kind, ElementKind::View);
    }

    #[test]
    fn primary_implies_not_null() {
        let c = ColumnSpec::new("id", DataType::Integer).primary();
        assert!(c.primary_key && !c.nullable);
    }
}
