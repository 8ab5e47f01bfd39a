//! Error type shared by schema construction and parsing.

use std::fmt;

/// Errors produced while building or parsing schemata.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SchemaError {
    /// An element id did not refer to an element of this schema.
    UnknownElement(usize),
    /// An element name was empty, longer than [`crate::MAX_NAME_BYTES`], or
    /// otherwise invalid.
    InvalidName(String),
    /// A parent/child edge would create a cycle or cross schemata.
    InvalidStructure(String),
    /// A duplicate definition was encountered (e.g. two tables with one name).
    Duplicate(String),
    /// A textual schema serialization could not be parsed.
    Parse {
        /// 1-based line number of the offending input line.
        line: usize,
        /// Human-readable description of the problem.
        message: String,
    },
}

impl fmt::Display for SchemaError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SchemaError::UnknownElement(id) => write!(f, "unknown element id {id}"),
            SchemaError::InvalidName(name) => write!(f, "invalid element name {name:?}"),
            SchemaError::InvalidStructure(msg) => write!(f, "invalid schema structure: {msg}"),
            SchemaError::Duplicate(name) => write!(f, "duplicate definition of {name:?}"),
            SchemaError::Parse { line, message } => {
                write!(f, "parse error at line {line}: {message}")
            }
        }
    }
}

impl std::error::Error for SchemaError {}

/// The builders' element-name check: a name must not be blank, nor longer
/// than [`crate::MAX_NAME_BYTES`].
pub(crate) fn check_name(name: &str) -> Result<(), SchemaError> {
    if name.trim().is_empty() || name.len() > crate::MAX_NAME_BYTES {
        return Err(SchemaError::InvalidName(name.to_string()));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_contains_salient_detail() {
        let e = SchemaError::Parse {
            line: 7,
            message: "expected ')'".into(),
        };
        let s = e.to_string();
        assert!(s.contains("line 7"));
        assert!(s.contains("expected ')'"));
        assert!(SchemaError::Duplicate("T".into())
            .to_string()
            .contains("\"T\""));
        assert!(SchemaError::UnknownElement(3).to_string().contains('3'));
    }

    #[test]
    fn error_trait_object_compatible() {
        let e: Box<dyn std::error::Error> = Box::new(SchemaError::InvalidName(String::new()));
        assert!(!e.to_string().is_empty());
    }
}
