//! A compact data-type lattice with a pairwise compatibility measure.
//!
//! The Harmony-style type voter (in `harmony-core`) needs to answer "how
//! plausible is it that a column of type X corresponds to an element of type
//! Y?". Relational and XML schemata use different type vocabularies, so both
//! are normalized into this lattice first.

use serde::{Deserialize, Serialize};
use std::fmt;

/// Normalized data type of a schema element.
///
/// The variants cover the types that actually occur in enterprise data models
/// (the paper's S_A/S_B carried dates, identifiers, free text, quantities and
/// codes). Structural nodes (tables, complex types) use [`DataType::None`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize, Default)]
pub enum DataType {
    /// Structural element without a value type (table, complex type, group).
    None,
    /// Type could not be determined.
    #[default]
    Unknown,
    /// Boolean flag.
    Bool,
    /// Integer of any width.
    Integer,
    /// Fixed-point decimal with precision and scale.
    Decimal {
        /// Total number of digits.
        precision: u8,
        /// Digits after the decimal point.
        scale: u8,
    },
    /// Floating-point number.
    Float,
    /// Character data with an optional maximum length.
    Text {
        /// Maximum length in characters; `None` for unbounded.
        max_len: Option<u32>,
    },
    /// Calendar date.
    Date,
    /// Date and time of day.
    DateTime,
    /// Time of day.
    Time,
    /// Opaque binary payload.
    Binary,
    /// Enumerated code list of the given cardinality.
    Enum {
        /// Number of values in the code list (0 when unknown).
        variants: u16,
    },
}

impl DataType {
    /// Unbounded text.
    pub const fn text() -> Self {
        DataType::Text { max_len: None }
    }

    /// Bounded text of at most `n` characters.
    pub const fn varchar(n: u32) -> Self {
        DataType::Text { max_len: Some(n) }
    }

    /// True for types representing numeric quantities.
    pub fn is_numeric(self) -> bool {
        matches!(
            self,
            DataType::Integer | DataType::Decimal { .. } | DataType::Float
        )
    }

    /// True for types representing temporal values.
    pub fn is_temporal(self) -> bool {
        matches!(self, DataType::Date | DataType::DateTime | DataType::Time)
    }

    /// True for textual types.
    pub fn is_textual(self) -> bool {
        matches!(self, DataType::Text { .. } | DataType::Enum { .. })
    }

    /// Coarse family used by the compatibility measure.
    pub fn family(self) -> TypeFamily {
        match self {
            DataType::None => TypeFamily::Structural,
            DataType::Unknown => TypeFamily::Unknown,
            DataType::Bool => TypeFamily::Boolean,
            d if d.is_numeric() => TypeFamily::Numeric,
            d if d.is_temporal() => TypeFamily::Temporal,
            d if d.is_textual() => TypeFamily::Textual,
            DataType::Binary => TypeFamily::Binary,
            _ => TypeFamily::Unknown,
        }
    }

    /// Compatibility of two types in `[0, 1]`.
    ///
    /// `1.0` means identical, values around `0.8` mean same family with
    /// different parameters, `0.3` means plausibly coercible families (e.g.
    /// text often stores codes/numbers in legacy systems), `0.0` means a
    /// correspondence is implausible on type evidence alone. When either side
    /// is [`DataType::Unknown`] there is *no* evidence, and the measure
    /// returns `0.5` (neutral) so voters can recognise the absence of signal.
    pub fn compatibility(self, other: DataType) -> f64 {
        if self == other {
            1.0
        } else {
            self.distinct_compatibility(other)
        }
    }

    /// [`DataType::compatibility`] of two types taken to differ. It reads
    /// the two variants and never their parameters, so it is a function of
    /// the variants alone — which lets a caller table it per variant pair.
    pub fn distinct_compatibility(self, other: DataType) -> f64 {
        use TypeFamily::*;
        let (a, b) = (self.family(), other.family());
        if a == Unknown || b == Unknown {
            return 0.5;
        }
        if a == b {
            return match (self, other) {
                // Same family, different parameters (e.g. VARCHAR(20) vs
                // VARCHAR(50), DECIMAL(8,2) vs DECIMAL(10,2)).
                (DataType::Text { .. }, DataType::Text { .. }) => 0.9,
                (DataType::Decimal { .. }, DataType::Decimal { .. }) => 0.9,
                (DataType::Enum { .. }, DataType::Enum { .. }) => 0.85,
                _ => 0.8,
            };
        }
        match (a, b) {
            // Legacy systems routinely store numbers, dates and codes in text.
            (Textual, Numeric) | (Numeric, Textual) => 0.3,
            (Textual, Temporal) | (Temporal, Textual) => 0.3,
            (Textual, Boolean) | (Boolean, Textual) => 0.25,
            (Numeric, Boolean) | (Boolean, Numeric) => 0.2,
            (Numeric, Temporal) | (Temporal, Numeric) => 0.15,
            (Structural, Structural) => 1.0,
            (Structural, _) | (_, Structural) => 0.0,
            (Binary, _) | (_, Binary) => 0.05,
            _ => 0.1,
        }
    }
}

impl fmt::Display for DataType {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DataType::None => write!(f, "-"),
            DataType::Unknown => write!(f, "unknown"),
            DataType::Bool => write!(f, "bool"),
            DataType::Integer => write!(f, "int"),
            DataType::Decimal { precision, scale } => {
                write!(f, "decimal({precision},{scale})")
            }
            DataType::Float => write!(f, "float"),
            DataType::Text { max_len: Some(n) } => write!(f, "varchar({n})"),
            DataType::Text { max_len: None } => write!(f, "text"),
            DataType::Date => write!(f, "date"),
            DataType::DateTime => write!(f, "datetime"),
            DataType::Time => write!(f, "time"),
            DataType::Binary => write!(f, "binary"),
            DataType::Enum { variants } => write!(f, "enum({variants})"),
        }
    }
}

/// Coarse grouping of data types used by [`DataType::compatibility`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TypeFamily {
    /// Tables, complex types and other value-less nodes.
    Structural,
    /// No type information available.
    Unknown,
    /// Boolean flags.
    Boolean,
    /// Integers, decimals, floats.
    Numeric,
    /// Dates, datetimes, times.
    Temporal,
    /// Character data and enumerated code lists.
    Textual,
    /// Opaque binary.
    Binary,
}

/// Parse a SQL-ish type name (`VARCHAR(30)`, `DECIMAL(10,2)`, `INT`, …) into a
/// [`DataType`]. Unknown names map to [`DataType::Unknown`] rather than
/// failing: enterprise DDL dumps contain vendor-specific types the matcher
/// should tolerate.
pub fn parse_sql_type(raw: &str) -> DataType {
    let t = raw.trim().to_ascii_uppercase();
    let (name, args) = match t.find('(') {
        Some(i) => {
            let name = &t[..i];
            let inner = t[i + 1..].trim_end_matches(')');
            let args: Vec<u32> = inner
                .split(',')
                .filter_map(|p| p.trim().parse::<u32>().ok())
                .collect();
            (name.trim().to_string(), args)
        }
        None => (t.clone(), Vec::new()),
    };
    match name.as_str() {
        "INT" | "INTEGER" | "BIGINT" | "SMALLINT" | "TINYINT" | "SERIAL" => DataType::Integer,
        "DECIMAL" | "NUMERIC" | "NUMBER" | "MONEY" => DataType::Decimal {
            precision: args.first().copied().unwrap_or(18).min(255) as u8,
            scale: args.get(1).copied().unwrap_or(0).min(255) as u8,
        },
        "FLOAT" | "REAL" | "DOUBLE" => DataType::Float,
        "CHAR" | "VARCHAR" | "NVARCHAR" | "NCHAR" | "CHARACTER" => DataType::Text {
            max_len: args.first().copied(),
        },
        "TEXT" | "CLOB" | "STRING" => DataType::text(),
        "DATE" => DataType::Date,
        "DATETIME" | "TIMESTAMP" => DataType::DateTime,
        "TIME" => DataType::Time,
        "BOOL" | "BOOLEAN" | "BIT" => DataType::Bool,
        "BLOB" | "BINARY" | "VARBINARY" | "BYTEA" => DataType::Binary,
        "ENUM" => DataType::Enum {
            variants: args.first().copied().unwrap_or(0).min(u16::MAX as u32) as u16,
        },
        _ => DataType::Unknown,
    }
}

/// Parse an XSD built-in type name (`xs:string`, `xs:dateTime`, …).
pub fn parse_xsd_type(raw: &str) -> DataType {
    let t = raw.trim();
    let local = t.rsplit(':').next().unwrap_or(t).to_ascii_lowercase();
    match local.as_str() {
        "string" | "normalizedstring" | "token" | "anyuri" | "id" | "idref" | "name" | "ncname"
        | "qname" => DataType::text(),
        "int" | "integer" | "long" | "short" | "byte" | "unsignedint" | "unsignedlong"
        | "unsignedshort" | "unsignedbyte" | "positiveinteger" | "nonnegativeinteger"
        | "negativeinteger" | "nonpositiveinteger" => DataType::Integer,
        "decimal" => DataType::Decimal {
            precision: 18,
            scale: 6,
        },
        "float" | "double" => DataType::Float,
        "date" => DataType::Date,
        "datetime" => DataType::DateTime,
        "time" => DataType::Time,
        "boolean" => DataType::Bool,
        "base64binary" | "hexbinary" => DataType::Binary,
        "" => DataType::Unknown,
        _ => DataType::Unknown,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn identical_types_are_fully_compatible() {
        assert_eq!(DataType::Integer.compatibility(DataType::Integer), 1.0);
        assert_eq!(
            DataType::varchar(20).compatibility(DataType::varchar(20)),
            1.0
        );
    }

    #[test]
    fn same_family_different_params_is_high() {
        let c = DataType::varchar(20).compatibility(DataType::varchar(50));
        assert!(c > 0.8 && c < 1.0);
        let d = DataType::Decimal {
            precision: 8,
            scale: 2,
        }
        .compatibility(DataType::Decimal {
            precision: 10,
            scale: 2,
        });
        assert!(d > 0.8 && d < 1.0);
    }

    #[test]
    fn unknown_is_neutral() {
        assert_eq!(DataType::Unknown.compatibility(DataType::Integer), 0.5);
        assert_eq!(DataType::Date.compatibility(DataType::Unknown), 0.5);
    }

    #[test]
    fn structural_vs_leaf_is_implausible() {
        assert_eq!(DataType::None.compatibility(DataType::Integer), 0.0);
        assert_eq!(DataType::None.compatibility(DataType::None), 1.0);
    }

    #[test]
    fn compatibility_is_symmetric() {
        let types = [
            DataType::None,
            DataType::Unknown,
            DataType::Bool,
            DataType::Integer,
            DataType::Float,
            DataType::text(),
            DataType::varchar(10),
            DataType::Date,
            DataType::DateTime,
            DataType::Binary,
            DataType::Enum { variants: 4 },
        ];
        for &a in &types {
            for &b in &types {
                assert_eq!(a.compatibility(b), b.compatibility(a), "{a} vs {b}");
            }
        }
    }

    #[test]
    fn compatibility_is_bounded() {
        let types = [
            DataType::None,
            DataType::Unknown,
            DataType::Bool,
            DataType::Integer,
            DataType::Float,
            DataType::text(),
            DataType::Date,
            DataType::Binary,
        ];
        for &a in &types {
            for &b in &types {
                let c = a.compatibility(b);
                assert!((0.0..=1.0).contains(&c));
            }
        }
    }

    #[test]
    fn parse_sql_types() {
        assert_eq!(parse_sql_type("INT"), DataType::Integer);
        assert_eq!(parse_sql_type("varchar(30)"), DataType::varchar(30));
        assert_eq!(
            parse_sql_type("DECIMAL(10,2)"),
            DataType::Decimal {
                precision: 10,
                scale: 2
            }
        );
        assert_eq!(parse_sql_type("TIMESTAMP"), DataType::DateTime);
        assert_eq!(parse_sql_type("WEIRDVENDORTYPE"), DataType::Unknown);
        assert_eq!(parse_sql_type("text"), DataType::text());
    }

    #[test]
    fn parse_xsd_types() {
        assert_eq!(parse_xsd_type("xs:string"), DataType::text());
        assert_eq!(parse_xsd_type("xsd:dateTime"), DataType::DateTime);
        assert_eq!(parse_xsd_type("xs:positiveInteger"), DataType::Integer);
        assert_eq!(parse_xsd_type("tns:VehicleType"), DataType::Unknown);
    }

    #[test]
    fn families_partition_sensibly() {
        assert!(DataType::Integer.is_numeric());
        assert!(DataType::Date.is_temporal());
        assert!(DataType::text().is_textual());
        assert_eq!(DataType::Bool.family(), TypeFamily::Boolean);
        assert_eq!(DataType::None.family(), TypeFamily::Structural);
    }

    #[test]
    fn display_round_trips_through_sql_parser_for_core_types() {
        for t in [
            DataType::Integer,
            DataType::Float,
            DataType::Date,
            DataType::DateTime,
            DataType::Time,
            DataType::varchar(12),
            DataType::text(),
            DataType::Binary,
        ] {
            assert_eq!(parse_sql_type(&t.to_string()), t, "{t}");
        }
    }
}
