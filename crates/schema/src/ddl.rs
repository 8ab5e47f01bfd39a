//! Mini-DDL parser.
//!
//! Parses the subset of SQL DDL that schema-matching consumes: `CREATE TABLE`
//! / `CREATE VIEW` statements with column definitions, `PRIMARY KEY`,
//! `NOT NULL`, `REFERENCES table(column)` and `-- comments`. A `--` comment on
//! the line *before* a table or column definition (or trailing on the same
//! line) becomes that element's documentation — this mirrors how enterprise
//! DDL dumps carry their data-dictionary text.
//!
//! ```
//! use sm_schema::ddl::parse_ddl;
//! use sm_schema::SchemaId;
//!
//! let s = parse_ddl(SchemaId(1), "S_A", r#"
//! -- individuals tracked by the system
//! CREATE TABLE Person (
//!     person_id INT PRIMARY KEY,
//!     last_name VARCHAR(40) NOT NULL, -- family name
//!     unit_id INT REFERENCES Unit(unit_id)
//! );
//! CREATE TABLE Unit ( unit_id INT PRIMARY KEY );
//! "#).unwrap();
//! assert_eq!(s.len(), 6);
//! ```

use crate::datatype::parse_sql_type;
use crate::error::SchemaError;
use crate::relational::{ColumnSpec, RelationalSchemaBuilder, TableSpec};
use crate::schema::{Schema, SchemaId};

/// Parse mini-DDL text into a relational [`Schema`].
///
/// `COMMENT ON TABLE t IS '...'` and `COMMENT ON COLUMN t.c IS '...'`
/// statements (the other place enterprise dumps keep their dictionary text)
/// are applied after all tables are built.
pub fn parse_ddl(id: SchemaId, name: &str, input: &str) -> Result<Schema, SchemaError> {
    let mut builder = RelationalSchemaBuilder::new(id, name);
    let mut pending_comment: Option<String> = None;
    let mut comments: Vec<(usize, String)> = Vec::new();
    let mut lines = NumberedLines::new(input);

    while let Some((line_no, raw)) = lines.next_line() {
        let line = strip_trailing_comment(raw).0.trim().to_string();
        let comment = strip_trailing_comment(raw).1;

        if line.is_empty() {
            if let Some(c) = comment {
                // A standalone comment documents whatever comes next.
                pending_comment = Some(match pending_comment.take() {
                    Some(prev) => format!("{prev} {c}"),
                    None => c,
                });
            } else {
                pending_comment = None;
            }
            continue;
        }

        let upper = line.to_ascii_uppercase();
        if upper.starts_with("CREATE TABLE") || upper.starts_with("CREATE VIEW") {
            let is_view = upper.starts_with("CREATE VIEW");
            let header_doc = pending_comment.take().or(comment);
            let table = parse_create(&mut lines, line_no, &line, is_view, header_doc)?;
            builder = builder.table(table);
        } else if upper.starts_with("COMMENT ON") {
            comments.push((line_no, line.clone()));
            continue;
        } else {
            return Err(SchemaError::Parse {
                line: line_no,
                message: format!("expected CREATE TABLE/VIEW, found {line:?}"),
            });
        }
    }
    let mut schema = builder.build()?;
    for (line_no, stmt) in comments {
        apply_comment_on(&mut schema, line_no, &stmt)?;
    }
    Ok(schema)
}

/// Apply one `COMMENT ON TABLE|COLUMN target IS 'text';` statement.
fn apply_comment_on(schema: &mut Schema, line: usize, stmt: &str) -> Result<(), SchemaError> {
    let err = |message: String| SchemaError::Parse { line, message };
    let upper = stmt.to_ascii_uppercase();
    let is_col = upper.starts_with("COMMENT ON COLUMN");
    let is_tab = upper.starts_with("COMMENT ON TABLE");
    if !is_col && !is_tab {
        return Err(err(format!("unsupported COMMENT statement {stmt:?}")));
    }
    let is_pos = upper
        .find(" IS ")
        .ok_or_else(|| err("missing IS clause".into()))?;
    let target = stmt[if is_col {
        "COMMENT ON COLUMN".len()
    } else {
        "COMMENT ON TABLE".len()
    }..is_pos]
        .trim();
    let text_part = stmt[is_pos + 4..].trim().trim_end_matches(';').trim();
    let text = text_part
        .strip_prefix('\'')
        .and_then(|t| t.strip_suffix('\''))
        .ok_or_else(|| {
            err(format!(
                "comment text must be single-quoted, got {text_part:?}"
            ))
        })?
        .replace("''", "'");

    let id = if is_col {
        let (table, column) = target.split_once('.').ok_or_else(|| {
            err(format!(
                "COLUMN target must be table.column, got {target:?}"
            ))
        })?;
        let tid = schema
            .find_by_name(table.trim())
            .ok_or_else(|| err(format!("unknown table {table:?}")))?;
        schema
            .element(tid)
            .children
            .iter()
            .copied()
            .find(|&c| schema.element(c).name.eq_ignore_ascii_case(column.trim()))
            .ok_or_else(|| err(format!("unknown column {target:?}")))?
    } else {
        schema
            .find_by_name(target)
            .ok_or_else(|| err(format!("unknown table {target:?}")))?
    };
    // COMMENT ON supplements (or overrides) inline docs, matching the usual
    // load order of enterprise dumps.
    schema.set_doc(id, crate::doc::Documentation::dictionary(text))?;
    Ok(())
}

/// Line source that tracks 1-based line numbers.
struct NumberedLines<'a> {
    iter: std::iter::Enumerate<std::str::Lines<'a>>,
}

impl<'a> NumberedLines<'a> {
    fn new(input: &'a str) -> Self {
        NumberedLines {
            iter: input.lines().enumerate(),
        }
    }

    fn next_line(&mut self) -> Option<(usize, &'a str)> {
        self.iter.next().map(|(i, l)| (i + 1, l))
    }
}

/// Split a line into (code, comment) at the first `--`.
fn strip_trailing_comment(line: &str) -> (&str, Option<String>) {
    match line.find("--") {
        Some(i) => {
            let c = line[i + 2..].trim();
            (
                &line[..i],
                if c.is_empty() {
                    None
                } else {
                    Some(c.to_string())
                },
            )
        }
        None => (line, None),
    }
}

/// Parse one CREATE statement. `first_line` has already had its comment
/// stripped. Column definitions may continue over subsequent lines until the
/// closing `);`.
fn parse_create(
    lines: &mut NumberedLines<'_>,
    start_line: usize,
    first_line: &str,
    is_view: bool,
    header_doc: Option<String>,
) -> Result<TableSpec, SchemaError> {
    // Accumulate the whole statement body (between parens) plus per-line
    // comments, so `col TYPE, -- doc` attaches doc to `col`.
    let after_kw = first_line
        .split_whitespace()
        .skip(2) // CREATE TABLE
        .collect::<Vec<_>>()
        .join(" ");
    let (tname_part, mut rest) = match after_kw.find('(') {
        Some(i) => (after_kw[..i].to_string(), after_kw[i + 1..].to_string()),
        None => (after_kw.clone(), String::new()),
    };
    let table_name = tname_part.trim().trim_end_matches(';').trim().to_string();
    if table_name.is_empty() {
        return Err(SchemaError::Parse {
            line: start_line,
            message: "missing table name".into(),
        });
    }
    let mut table = TableSpec {
        name: table_name,
        is_view,
        columns: Vec::new(),
        doc: header_doc,
    };

    // Column text segments paired with their trailing comment.
    let mut segments: Vec<(String, Option<String>, usize)> = Vec::new();
    let mut done = statement_closed(&rest);
    if done {
        rest = rest
            .trim_end()
            .trim_end_matches(';')
            .trim_end()
            .trim_end_matches(')')
            .to_string();
    }
    if !rest.trim().is_empty() {
        push_segments(&mut segments, &rest, None, start_line);
    }
    let mut pending_comment: Option<String> = None;
    while !done {
        let (line_no, raw) = lines.next_line().ok_or(SchemaError::Parse {
            line: start_line,
            message: "unterminated CREATE statement".into(),
        })?;
        let (code, comment) = strip_trailing_comment(raw);
        let mut code = code.trim().to_string();
        if code.is_empty() {
            if let Some(c) = comment {
                pending_comment = Some(match pending_comment.take() {
                    Some(prev) => format!("{prev} {c}"),
                    None => c,
                });
            }
            continue;
        }
        if statement_closed(&code) {
            done = true;
            code = code
                .trim_end()
                .trim_end_matches(';')
                .trim_end()
                .trim_end_matches(')')
                .to_string();
        }
        if !code.trim().is_empty() {
            let doc = match (pending_comment.take(), comment) {
                (Some(a), Some(b)) => Some(format!("{a} {b}")),
                (a, b) => a.or(b),
            };
            push_segments(&mut segments, &code, doc, line_no);
        }
    }

    for (seg, doc, line_no) in segments {
        if let Some(col) = parse_column(&seg, doc, line_no)? {
            table.columns.push(col);
        }
    }
    Ok(table)
}

/// Does this line close the statement (ends with `);` or `)` or `;`)?
fn statement_closed(code: &str) -> bool {
    let t = code.trim_end();
    t.ends_with(");") || t.ends_with(')') && !t.contains('(') || t.ends_with(';')
}

/// Split a code fragment on top-level commas (not inside parentheses) and
/// append the pieces. The trailing comment attaches to the *last* piece on
/// the line, matching `a INT, b INT -- doc for b`.
fn push_segments(
    out: &mut Vec<(String, Option<String>, usize)>,
    code: &str,
    doc: Option<String>,
    line_no: usize,
) {
    let mut depth = 0usize;
    let mut cur = String::new();
    let mut pieces: Vec<String> = Vec::new();
    for ch in code.chars() {
        match ch {
            '(' => {
                depth += 1;
                cur.push(ch);
            }
            ')' => {
                depth = depth.saturating_sub(1);
                cur.push(ch);
            }
            ',' if depth == 0 => {
                pieces.push(std::mem::take(&mut cur));
            }
            _ => cur.push(ch),
        }
    }
    if !cur.trim().is_empty() {
        pieces.push(cur);
    }
    let n = pieces.len();
    for (i, p) in pieces.into_iter().enumerate() {
        let d = if i + 1 == n { doc.clone() } else { None };
        out.push((p, d, line_no));
    }
}

/// Parse one column definition segment. Returns `Ok(None)` for table-level
/// constraints (`PRIMARY KEY (...)`, `FOREIGN KEY ...`, `CONSTRAINT ...`)
/// which do not introduce elements.
fn parse_column(
    seg: &str,
    doc: Option<String>,
    line_no: usize,
) -> Result<Option<ColumnSpec>, SchemaError> {
    let seg = seg.trim();
    if seg.is_empty() {
        return Ok(None);
    }
    let upper = seg.to_ascii_uppercase();
    if upper.starts_with("PRIMARY KEY")
        || upper.starts_with("FOREIGN KEY")
        || upper.starts_with("CONSTRAINT")
        || upper.starts_with("UNIQUE")
        || upper.starts_with("CHECK")
        || upper.starts_with("INDEX")
        || upper.starts_with("KEY ")
    {
        return Ok(None);
    }
    let mut tokens = seg.split_whitespace();
    let name = tokens.next().ok_or(SchemaError::Parse {
        line: line_no,
        message: "empty column definition".into(),
    })?;
    // The type may contain parens with spaces: re-join remaining and take up
    // to the first constraint keyword.
    let rest: Vec<&str> = tokens.collect();
    if rest.is_empty() {
        return Err(SchemaError::Parse {
            line: line_no,
            message: format!("column {name} missing type"),
        });
    }
    let rest_joined = rest.join(" ");
    let upper_rest = rest_joined.to_ascii_uppercase();
    let type_end = ["PRIMARY", "NOT", "NULL", "REFERENCES", "DEFAULT", "UNIQUE"]
        .iter()
        .filter_map(|kw| find_word(&upper_rest, kw))
        .min()
        .unwrap_or(rest_joined.len());
    let type_str = rest_joined[..type_end].trim();
    let mut col = ColumnSpec::new(name, parse_sql_type(type_str));
    col.doc = doc;
    if find_word(&upper_rest, "PRIMARY").is_some() {
        col = col.primary();
    }
    if find_word(&upper_rest, "NOT").is_some() {
        col = col.not_null();
    }
    if let Some(i) = find_word(&upper_rest, "REFERENCES") {
        let after = rest_joined[i + "REFERENCES".len()..].trim();
        let target = after.split_whitespace().next().unwrap_or("");
        if let Some(p) = target.find('(') {
            let t = &target[..p];
            let c = target[p + 1..].trim_end_matches(')');
            if t.is_empty() || c.is_empty() {
                return Err(SchemaError::Parse {
                    line: line_no,
                    message: format!("malformed REFERENCES clause {after:?}"),
                });
            }
            col = col.referencing(t, c);
        } else if !target.is_empty() {
            // REFERENCES Table — reference the table's like-named key.
            col = col.referencing(target, name);
        }
    }
    Ok(Some(col))
}

/// Find a whole-word occurrence of `word` (already uppercased input).
fn find_word(haystack: &str, word: &str) -> Option<usize> {
    let mut start = 0;
    while let Some(rel) = haystack[start..].find(word) {
        let i = start + rel;
        let before_ok = i == 0
            || !haystack.as_bytes()[i - 1].is_ascii_alphanumeric()
                && haystack.as_bytes()[i - 1] != b'_';
        let end = i + word.len();
        let after_ok = end >= haystack.len()
            || !haystack.as_bytes()[end].is_ascii_alphanumeric()
                && haystack.as_bytes()[end] != b'_';
        if before_ok && after_ok {
            return Some(i);
        }
        start = i + word.len();
    }
    None
}

/// Render a relational schema back to mini-DDL (used by exporters and tests).
pub fn to_ddl(schema: &Schema) -> String {
    use crate::element::ElementKind;
    let mut out = String::with_capacity(schema.len() * 32);
    for &root in schema.roots() {
        let t = schema.element(root);
        if let Some(d) = &t.doc {
            out.push_str(&format!("-- {}\n", d.description));
        }
        let kw = if t.kind == ElementKind::View {
            "CREATE VIEW"
        } else {
            "CREATE TABLE"
        };
        out.push_str(&format!("{kw} {} (\n", t.name));
        let n = t.children.len();
        for (i, &cid) in t.children.iter().enumerate() {
            let c = schema.element(cid);
            let comma = if i + 1 < n { "," } else { "" };
            let doc = c
                .doc
                .as_ref()
                .map(|d| format!(" -- {}", d.description))
                .unwrap_or_default();
            out.push_str(&format!("    {} {}{comma}{doc}\n", c.name, c.datatype));
        }
        out.push_str(");\n");
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::datatype::DataType;
    use proptest::prelude::*;

    const SAMPLE: &str = r#"
-- individuals tracked by the system
CREATE TABLE Person (
    person_id INT PRIMARY KEY,
    last_name VARCHAR(40) NOT NULL, -- family name
    birth_date DATE,
    unit_id INT REFERENCES Unit(unit_id)
);

CREATE TABLE Unit (
    unit_id INT PRIMARY KEY,
    -- official designation of the unit
    unit_name VARCHAR(80)
);

CREATE VIEW All_Event_Vitals (
    event_id INT,
    DATE_BEGIN_156 DATETIME
);
"#;

    #[test]
    fn parses_tables_columns_and_docs() {
        let s = parse_ddl(SchemaId(1), "S_A", SAMPLE).unwrap();
        assert_eq!(s.at_depth(1).len(), 3);
        assert_eq!(s.len(), 3 + 4 + 2 + 2);
        let person = s.find_by_name("Person").unwrap();
        assert_eq!(
            s.element(person).doc_text(),
            "individuals tracked by the system"
        );
        let ln = s.find_by_name("last_name").unwrap();
        assert_eq!(s.element(ln).doc_text(), "family name");
        assert_eq!(s.element(ln).datatype, DataType::varchar(40));
        let un = s.find_by_name("unit_name").unwrap();
        assert_eq!(s.element(un).doc_text(), "official designation of the unit");
        s.validate().unwrap();
    }

    #[test]
    fn view_kind_preserved() {
        let s = parse_ddl(SchemaId(1), "x", SAMPLE).unwrap();
        let v = s.find_by_name("All_Event_Vitals").unwrap();
        assert_eq!(s.element(v).kind, crate::element::ElementKind::View);
    }

    #[test]
    fn references_parsed() {
        let s = parse_ddl(SchemaId(1), "x", SAMPLE).unwrap();
        // Structure survives; FK metadata was validated during build.
        assert!(s.find_by_name("unit_id").is_some());
    }

    #[test]
    fn table_level_constraints_skipped() {
        let ddl = r#"
CREATE TABLE T (
    a INT,
    b INT,
    PRIMARY KEY (a, b),
    CONSTRAINT fk_b FOREIGN KEY (b) REFERENCES U(x)
);
"#;
        let s = parse_ddl(SchemaId(1), "x", ddl).unwrap();
        let t = s.find_by_name("T").unwrap();
        assert_eq!(s.element(t).children.len(), 2);
    }

    #[test]
    fn single_line_table() {
        let s = parse_ddl(SchemaId(1), "x", "CREATE TABLE T ( a INT, b DATE );").unwrap();
        assert_eq!(s.len(), 3);
    }

    #[test]
    fn garbage_rejected_with_line_number() {
        let err = parse_ddl(SchemaId(1), "x", "DROP TABLE T;").unwrap_err();
        match err {
            SchemaError::Parse { line, .. } => assert_eq!(line, 1),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn unterminated_statement_rejected() {
        let err = parse_ddl(SchemaId(1), "x", "CREATE TABLE T (\n a INT,").unwrap_err();
        assert!(matches!(err, SchemaError::Parse { .. }));
    }

    #[test]
    fn column_missing_type_rejected() {
        let err = parse_ddl(SchemaId(1), "x", "CREATE TABLE T (\n a\n);").unwrap_err();
        assert!(matches!(err, SchemaError::Parse { .. }));
    }

    #[test]
    fn round_trip_through_to_ddl() {
        let s = parse_ddl(SchemaId(1), "S_A", SAMPLE).unwrap();
        let ddl = to_ddl(&s);
        let s2 = parse_ddl(SchemaId(1), "S_A", &ddl).unwrap();
        assert_eq!(s.len(), s2.len());
        let names: Vec<_> = s.preorder().map(|e| e.name.clone()).collect();
        let names2: Vec<_> = s2.preorder().map(|e| e.name.clone()).collect();
        assert_eq!(names, names2);
        // Documentation survives the round trip.
        let ln2 = s2.find_by_name("last_name").unwrap();
        assert_eq!(s2.element(ln2).doc_text(), "family name");
    }

    #[test]
    fn comment_accumulation_across_blank_comment_lines() {
        let ddl = r#"
-- line one
-- line two
CREATE TABLE T ( a INT );
"#;
        let s = parse_ddl(SchemaId(1), "x", ddl).unwrap();
        let t = s.find_by_name("T").unwrap();
        assert_eq!(s.element(t).doc_text(), "line one line two");
    }

    #[test]
    fn comment_on_statements_attach_dictionary_docs() {
        let ddl = r#"
CREATE TABLE T ( a INT, b DATE );
COMMENT ON TABLE T IS 'the main table';
COMMENT ON COLUMN T.a IS 'alpha''s value';
"#;
        let s = parse_ddl(SchemaId(1), "x", ddl).unwrap();
        let t = s.find_by_name("T").unwrap();
        assert_eq!(s.element(t).doc_text(), "the main table");
        assert_eq!(
            s.element(t).doc.as_ref().unwrap().source,
            crate::doc::DocSource::DataDictionary
        );
        let a = s.find_by_name("a").unwrap();
        assert_eq!(s.element(a).doc_text(), "alpha's value");
    }

    #[test]
    fn comment_on_unknown_targets_rejected() {
        let base = "CREATE TABLE T ( a INT );\n";
        for bad in [
            "COMMENT ON TABLE Nope IS 'x';",
            "COMMENT ON COLUMN T.nope IS 'x';",
            "COMMENT ON COLUMN noDot IS 'x';",
            "COMMENT ON TABLE T IS unquoted;",
            "COMMENT ON SEQUENCE s IS 'x';",
        ] {
            let ddl = format!("{base}{bad}");
            assert!(
                parse_ddl(SchemaId(1), "x", &ddl).is_err(),
                "should reject: {bad}"
            );
        }
    }

    #[test]
    fn references_without_column_uses_own_name() {
        let ddl = "CREATE TABLE U ( u_id INT );\nCREATE TABLE T ( u_id INT REFERENCES U );";
        // References U(u_id) implicitly; builds fine because U.u_id exists.
        let s = parse_ddl(SchemaId(1), "x", ddl).unwrap();
        assert_eq!(s.len(), 4);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(2048))]

        /// Truncated and byte-flipped samples parse or fail with an error;
        /// the parser never panics.
        #[test]
        fn mutated_sample_never_panics(
            cut in 0..=SAMPLE.len(),
            flips in prop::collection::vec((0..SAMPLE.len(), any::<u8>()), 0..8),
        ) {
            let _ = parse_ddl(SchemaId(4), "mutated", &crate::mutated(SAMPLE, cut, &flips));
        }
    }
}
