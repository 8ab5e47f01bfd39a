//! Mini-XSD parser.
//!
//! Parses the subset of XML Schema that matters to a matcher: `xs:element`,
//! `xs:complexType`, `xs:sequence`/`xs:all`/`xs:choice`, `xs:attribute`, and
//! `xs:annotation`/`xs:documentation` (which becomes element documentation).
//! A hand-rolled XML pull tokenizer keeps the crate dependency-free.
//!
//! ```
//! use sm_schema::xsd::parse_xsd;
//! use sm_schema::SchemaId;
//!
//! let s = parse_xsd(SchemaId(2), "S_B", r#"
//! <xs:schema xmlns:xs="http://www.w3.org/2001/XMLSchema">
//!   <xs:element name="Vehicle">
//!     <xs:annotation><xs:documentation>a ground vehicle</xs:documentation></xs:annotation>
//!     <xs:complexType>
//!       <xs:sequence>
//!         <xs:element name="Vin" type="xs:string"/>
//!       </xs:sequence>
//!       <xs:attribute name="id" type="xs:string"/>
//!     </xs:complexType>
//!   </xs:element>
//! </xs:schema>
//! "#).unwrap();
//! assert_eq!(s.len(), 3);
//! ```

use crate::datatype::{parse_xsd_type, DataType};
use crate::error::SchemaError;
use crate::schema::{Schema, SchemaId};
use crate::xml::{Occurs, XmlNodeSpec, XmlSchemaBuilder};

/// Deepest `xs:complexType` nesting [`parse_xsd`] accepts; deeper input is a
/// [`SchemaError::Parse`]. Parsing, building and dropping a nested element
/// each recurse once per level, so without a limit untrusted input can
/// overflow the stack. The limit must parse on a 2 MB thread stack (Rust's
/// default for spawned and test threads): an unoptimized build spends about
/// 6 KB of stack per level and overflows 2 MB near 350 levels, so 128
/// levels keep more than half of that stack free. Hand-written schemata
/// nest a few dozen levels at most.
const MAX_NESTING: usize = 128;

/// Parse mini-XSD text into an XML [`Schema`].
///
/// # Errors
/// [`SchemaError::Parse`] on malformed XML, on XSD structure the parser
/// does not understand, and on complex types nested beyond a fixed depth
/// limit (128 levels).
pub fn parse_xsd(id: SchemaId, name: &str, input: &str) -> Result<Schema, SchemaError> {
    let tokens = tokenize(input)?;
    let mut parser = XsdParser {
        tokens,
        pos: 0,
        nesting: 0,
    };
    let roots = parser.parse_schema()?;
    XmlSchemaBuilder::new(id, name).roots(roots).build()
}

// ---------------------------------------------------------------------------
// XML pull tokenizer
// ---------------------------------------------------------------------------

/// One XML token.
#[derive(Debug, Clone, PartialEq)]
enum Token {
    /// `<name attr="v" ...>`; `self_closing` for `<.../>`.
    Open {
        name: String,
        attrs: Vec<(String, String)>,
        self_closing: bool,
        line: usize,
    },
    /// `</name>`.
    Close { name: String, line: usize },
    /// Character data between tags (whitespace-trimmed, entities decoded).
    Text { value: String },
}

/// Tokenize an XML document. Comments and processing instructions are
/// skipped; CDATA is not supported (XSD files do not need it).
fn tokenize(input: &str) -> Result<Vec<Token>, SchemaError> {
    let bytes = input.as_bytes();
    let mut i = 0usize;
    let mut line = 1usize;
    let mut out = Vec::new();
    let mut text = String::new();

    let err = |line: usize, message: String| SchemaError::Parse { line, message };

    while i < bytes.len() {
        if bytes[i] == b'<' {
            let t = text.trim();
            if !t.is_empty() {
                out.push(Token::Text {
                    value: decode_entities(t),
                });
            }
            text.clear();

            if input[i..].starts_with("<!--") {
                match input[i..].find("-->") {
                    Some(end) => {
                        line += input[i..i + end].matches('\n').count();
                        i += end + 3;
                    }
                    None => return Err(err(line, "unterminated comment".into())),
                }
                continue;
            }
            if input[i..].starts_with("<?") {
                match input[i..].find("?>") {
                    Some(end) => {
                        i += end + 2;
                    }
                    None => return Err(err(line, "unterminated processing instruction".into())),
                }
                continue;
            }
            let close = input[i..]
                .find('>')
                .ok_or_else(|| err(line, "unterminated tag".into()))?;
            let tag = &input[i + 1..i + close];
            line += tag.matches('\n').count();
            i += close + 1;

            if let Some(name) = tag.strip_prefix('/') {
                out.push(Token::Close {
                    name: name.trim().to_string(),
                    line,
                });
            } else {
                let self_closing = tag.ends_with('/');
                let body = tag.trim_end_matches('/');
                let (name, attrs) = parse_tag_body(body, line)?;
                out.push(Token::Open {
                    name,
                    attrs,
                    self_closing,
                    line,
                });
            }
        } else {
            if bytes[i] == b'\n' {
                line += 1;
            }
            // Safe: we iterate byte-wise but only push whole chars.
            let ch_len = utf8_len(bytes[i]);
            text.push_str(&input[i..i + ch_len]);
            i += ch_len;
        }
    }
    Ok(out)
}

fn utf8_len(b: u8) -> usize {
    match b {
        0x00..=0x7F => 1,
        0xC0..=0xDF => 2,
        0xE0..=0xEF => 3,
        _ => 4,
    }
}

/// Parse `name attr="v" attr2='w'` into the tag name and attribute list.
fn parse_tag_body(body: &str, line: usize) -> Result<(String, Vec<(String, String)>), SchemaError> {
    let body = body.trim();
    let name_end = body.find(|c: char| c.is_whitespace()).unwrap_or(body.len());
    let name = body[..name_end].to_string();
    if name.is_empty() {
        return Err(SchemaError::Parse {
            line,
            message: "empty tag name".into(),
        });
    }
    let mut attrs = Vec::new();
    let mut rest = body[name_end..].trim();
    while !rest.is_empty() {
        let eq = rest.find('=').ok_or(SchemaError::Parse {
            line,
            message: format!("attribute without value near {rest:?}"),
        })?;
        let key = rest[..eq].trim().to_string();
        let after = rest[eq + 1..].trim_start();
        let quote = after.chars().next().ok_or(SchemaError::Parse {
            line,
            message: "attribute missing value".into(),
        })?;
        if quote != '"' && quote != '\'' {
            return Err(SchemaError::Parse {
                line,
                message: format!("unquoted attribute value near {after:?}"),
            });
        }
        let end = after[1..].find(quote).ok_or(SchemaError::Parse {
            line,
            message: "unterminated attribute value".into(),
        })?;
        attrs.push((key, decode_entities(&after[1..1 + end])));
        rest = after[end + 2..].trim_start();
    }
    Ok((name, attrs))
}

fn decode_entities(s: &str) -> String {
    s.replace("&lt;", "<")
        .replace("&gt;", ">")
        .replace("&quot;", "\"")
        .replace("&apos;", "'")
        .replace("&amp;", "&")
}

// ---------------------------------------------------------------------------
// XSD interpretation
// ---------------------------------------------------------------------------

struct XsdParser {
    tokens: Vec<Token>,
    pos: usize,
    /// Complex-type bodies currently open (see [`MAX_NESTING`]).
    nesting: usize,
}

impl XsdParser {
    fn next(&mut self) -> Option<Token> {
        let t = self.tokens.get(self.pos).cloned();
        if t.is_some() {
            self.pos += 1;
        }
        t
    }

    /// Consume tokens until the matching close of an already-consumed open
    /// tag with the given local name.
    fn skip_to_close(&mut self, local: &str) -> Result<(), SchemaError> {
        let mut depth = 1usize;
        while let Some(t) = self.next() {
            match t {
                Token::Open {
                    name, self_closing, ..
                } => {
                    if !self_closing && local_name(&name) == local {
                        depth += 1;
                    }
                }
                Token::Close { name, .. } => {
                    if local_name(&name) == local {
                        depth -= 1;
                        if depth == 0 {
                            return Ok(());
                        }
                    }
                }
                Token::Text { .. } => {}
            }
        }
        Err(SchemaError::Parse {
            line: 0,
            message: format!("unterminated <{local}>"),
        })
    }

    /// Top level: expect `<xs:schema>` containing global elements and types.
    fn parse_schema(&mut self) -> Result<Vec<XmlNodeSpec>, SchemaError> {
        // Find the xs:schema open tag.
        loop {
            match self.next() {
                Some(Token::Open {
                    name, self_closing, ..
                }) if local_name(&name) == "schema" => {
                    if self_closing {
                        return Ok(Vec::new());
                    }
                    break;
                }
                Some(Token::Text { .. }) => continue,
                Some(other) => {
                    let line = token_line(&other);
                    return Err(SchemaError::Parse {
                        line,
                        message: "expected <xs:schema> root".into(),
                    });
                }
                None => {
                    return Err(SchemaError::Parse {
                        line: 0,
                        message: "empty document".into(),
                    })
                }
            }
        }
        let mut roots = Vec::new();
        loop {
            match self.next() {
                Some(Token::Open {
                    name,
                    attrs,
                    self_closing,
                    line,
                }) => match local_name(&name) {
                    "element" => {
                        roots.push(self.parse_element(&attrs, self_closing, line)?);
                    }
                    "complexType" => {
                        roots.push(self.parse_named_complex_type(&attrs, self_closing, line)?);
                    }
                    other => {
                        if !self_closing {
                            self.skip_to_close(other)?;
                        }
                    }
                },
                Some(Token::Close { name, .. }) if local_name(&name) == "schema" => break,
                Some(_) => continue,
                None => {
                    return Err(SchemaError::Parse {
                        line: 0,
                        message: "unterminated <xs:schema>".into(),
                    })
                }
            }
        }
        Ok(roots)
    }

    /// Parse an `xs:element` whose open tag has been consumed.
    fn parse_element(
        &mut self,
        attrs: &[(String, String)],
        self_closing: bool,
        line: usize,
    ) -> Result<XmlNodeSpec, SchemaError> {
        let name =
            attr(attrs, "name")
                .or_else(|| attr(attrs, "ref"))
                .ok_or(SchemaError::Parse {
                    line,
                    message: "xs:element missing name".into(),
                })?;
        let dtype = attr(attrs, "type")
            .map(|t| parse_xsd_type(&t))
            .unwrap_or(DataType::Unknown);
        let occurs = parse_occurs(attrs);
        let mut spec = XmlNodeSpec::element(name, dtype).occurs(occurs);

        if self_closing {
            return Ok(spec);
        }
        // Children: annotation (doc), inline complexType.
        loop {
            match self.next() {
                Some(Token::Open {
                    name,
                    attrs: cattrs,
                    self_closing: sc,
                    line: cl,
                }) => match local_name(&name) {
                    "annotation" => {
                        if !sc {
                            if let Some(doc) = self.parse_annotation()? {
                                spec = spec.documented(doc);
                            }
                        }
                    }
                    "complexType" => {
                        if !sc {
                            let (children, doc) = self.parse_complex_body(cl)?;
                            for c in children {
                                spec = spec.child(c);
                            }
                            if let (None, Some(d)) = (&spec.doc, doc) {
                                spec = spec.documented(d);
                            }
                            if spec.datatype == DataType::Unknown && !spec.children.is_empty() {
                                spec.datatype = DataType::None;
                            }
                        }
                    }
                    "simpleType" => {
                        if !sc {
                            self.skip_to_close("simpleType")?;
                        }
                    }
                    other => {
                        if !sc {
                            self.skip_to_close(other)?;
                        }
                        let _ = (cattrs, cl);
                    }
                },
                Some(Token::Close { name, .. }) if local_name(&name) == "element" => break,
                Some(_) => continue,
                None => {
                    return Err(SchemaError::Parse {
                        line,
                        message: "unterminated xs:element".into(),
                    })
                }
            }
        }
        Ok(spec)
    }

    /// Parse a named top-level `xs:complexType` (open tag consumed).
    fn parse_named_complex_type(
        &mut self,
        attrs: &[(String, String)],
        self_closing: bool,
        line: usize,
    ) -> Result<XmlNodeSpec, SchemaError> {
        let name = attr(attrs, "name").ok_or(SchemaError::Parse {
            line,
            message: "top-level xs:complexType missing name".into(),
        })?;
        let mut spec = XmlNodeSpec::complex(name);
        if !self_closing {
            let (children, doc) = self.parse_complex_body(line)?;
            for c in children {
                spec = spec.child(c);
            }
            if let Some(d) = doc {
                spec = spec.documented(d);
            }
        }
        Ok(spec)
    }

    /// Parse the body of a complexType (open tag consumed) up to its close.
    /// Returns (children, documentation).
    fn parse_complex_body(
        &mut self,
        line: usize,
    ) -> Result<(Vec<XmlNodeSpec>, Option<String>), SchemaError> {
        if self.nesting == MAX_NESTING {
            return Err(SchemaError::Parse {
                line,
                message: format!("xs:complexType nested deeper than {MAX_NESTING} levels"),
            });
        }
        self.nesting += 1;
        let mut children = Vec::new();
        let mut doc = None;
        loop {
            match self.next() {
                Some(Token::Open {
                    name,
                    attrs,
                    self_closing,
                    line,
                }) => match local_name(&name) {
                    "sequence" | "all" | "choice" => {
                        // Transparent containers; recurse inline.
                        if self_closing {
                            continue;
                        }
                    }
                    "element" => {
                        children.push(self.parse_element(&attrs, self_closing, line)?);
                    }
                    "attribute" => {
                        let aname = attr(&attrs, "name").ok_or(SchemaError::Parse {
                            line,
                            message: "xs:attribute missing name".into(),
                        })?;
                        let dtype = attr(&attrs, "type")
                            .map(|t| parse_xsd_type(&t))
                            .unwrap_or(DataType::Unknown);
                        let mut a = XmlNodeSpec::attribute(aname, dtype);
                        if !self_closing {
                            // Attributes may carry annotations too.
                            if let Some(d) = self.parse_until_close_collect_doc("attribute")? {
                                a = a.documented(d);
                            }
                        }
                        children.push(a);
                    }
                    "annotation" => {
                        if !self_closing {
                            doc = self.parse_annotation()?.or(doc);
                        }
                    }
                    other => {
                        if !self_closing {
                            self.skip_to_close(other)?;
                        }
                    }
                },
                Some(Token::Close { name, .. }) => match local_name(&name) {
                    "complexType" => break,
                    "sequence" | "all" | "choice" => continue,
                    other => {
                        return Err(SchemaError::Parse {
                            line: 0,
                            message: format!("unexpected </{other}> inside complexType"),
                        })
                    }
                },
                Some(Token::Text { .. }) => continue,
                None => {
                    return Err(SchemaError::Parse {
                        line: 0,
                        message: "unterminated xs:complexType".into(),
                    })
                }
            }
        }
        self.nesting -= 1;
        Ok((children, doc))
    }

    /// Parse `<xs:annotation>` (open consumed): return the concatenated text
    /// of all nested `<xs:documentation>` blocks.
    fn parse_annotation(&mut self) -> Result<Option<String>, SchemaError> {
        let mut docs: Vec<String> = Vec::new();
        let mut in_doc = false;
        loop {
            match self.next() {
                Some(Token::Open {
                    name, self_closing, ..
                }) => {
                    if local_name(&name) == "documentation" && !self_closing {
                        in_doc = true;
                    }
                }
                Some(Token::Text { value }) => {
                    if in_doc {
                        docs.push(value);
                    }
                }
                Some(Token::Close { name, .. }) => match local_name(&name) {
                    "documentation" => in_doc = false,
                    "annotation" => break,
                    _ => {}
                },
                None => {
                    return Err(SchemaError::Parse {
                        line: 0,
                        message: "unterminated xs:annotation".into(),
                    })
                }
            }
        }
        if docs.is_empty() {
            Ok(None)
        } else {
            Ok(Some(docs.join(" ")))
        }
    }

    /// Skip to the close of `local`, collecting any annotation doc text.
    fn parse_until_close_collect_doc(
        &mut self,
        local: &str,
    ) -> Result<Option<String>, SchemaError> {
        let mut doc = None;
        loop {
            match self.next() {
                Some(Token::Open {
                    name, self_closing, ..
                }) => {
                    if local_name(&name) == "annotation" && !self_closing {
                        doc = self.parse_annotation()?.or(doc);
                    } else if !self_closing {
                        self.skip_to_close(local_name(&name))?;
                    }
                }
                Some(Token::Close { name, .. }) if local_name(&name) == local => break,
                Some(_) => continue,
                None => {
                    return Err(SchemaError::Parse {
                        line: 0,
                        message: format!("unterminated <{local}>"),
                    })
                }
            }
        }
        Ok(doc)
    }
}

fn local_name(qname: &str) -> &str {
    qname.rsplit(':').next().unwrap_or(qname)
}

fn attr(attrs: &[(String, String)], key: &str) -> Option<String> {
    attrs
        .iter()
        .find(|(k, _)| k == key || local_name(k) == key)
        .map(|(_, v)| v.clone())
}

fn parse_occurs(attrs: &[(String, String)]) -> Occurs {
    let min = attr(attrs, "minOccurs")
        .and_then(|v| v.parse().ok())
        .unwrap_or(1);
    let max = match attr(attrs, "maxOccurs") {
        Some(v) if v == "unbounded" => None,
        Some(v) => v.parse().ok().or(Some(1)),
        None => Some(1),
    };
    Occurs { min, max }
}

fn token_line(t: &Token) -> usize {
    match t {
        Token::Open { line, .. } | Token::Close { line, .. } => *line,
        Token::Text { .. } => 0,
    }
}

/// Render an XML schema back to mini-XSD (used by exporters and tests).
pub fn to_xsd(schema: &Schema) -> String {
    use crate::element::{ElementId, ElementKind};
    fn render(schema: &Schema, id: ElementId, indent: usize, out: &mut String) {
        let e = schema.element(id);
        let pad = "  ".repeat(indent);
        match e.kind {
            ElementKind::Attribute => {
                out.push_str(&format!(
                    "{pad}<xs:attribute name=\"{}\" type=\"{}\"/>\n",
                    e.name,
                    xsd_type_name(e.datatype)
                ));
            }
            ElementKind::ComplexType | ElementKind::Group => {
                out.push_str(&format!("{pad}<xs:complexType name=\"{}\">\n", e.name));
                if let Some(d) = &e.doc {
                    out.push_str(&format!(
                        "{pad}  <xs:annotation><xs:documentation>{}</xs:documentation></xs:annotation>\n",
                        d.description
                    ));
                }
                out.push_str(&format!("{pad}  <xs:sequence>\n"));
                for &c in &e.children {
                    render(schema, c, indent + 2, out);
                }
                out.push_str(&format!("{pad}  </xs:sequence>\n"));
                out.push_str(&format!("{pad}</xs:complexType>\n"));
            }
            _ => {
                if e.children.is_empty() {
                    out.push_str(&format!(
                        "{pad}<xs:element name=\"{}\" type=\"{}\"",
                        e.name,
                        xsd_type_name(e.datatype)
                    ));
                    if let Some(d) = &e.doc {
                        out.push_str(&format!(
                            ">\n{pad}  <xs:annotation><xs:documentation>{}</xs:documentation></xs:annotation>\n{pad}</xs:element>\n",
                            d.description
                        ));
                    } else {
                        out.push_str("/>\n");
                    }
                } else {
                    out.push_str(&format!("{pad}<xs:element name=\"{}\">\n", e.name));
                    if let Some(d) = &e.doc {
                        out.push_str(&format!(
                            "{pad}  <xs:annotation><xs:documentation>{}</xs:documentation></xs:annotation>\n",
                            d.description
                        ));
                    }
                    out.push_str(&format!("{pad}  <xs:complexType><xs:sequence>\n"));
                    for &c in &e.children {
                        render(schema, c, indent + 2, out);
                    }
                    out.push_str(&format!("{pad}  </xs:sequence></xs:complexType>\n"));
                    out.push_str(&format!("{pad}</xs:element>\n"));
                }
            }
        }
    }

    let mut out = String::from("<xs:schema xmlns:xs=\"http://www.w3.org/2001/XMLSchema\">\n");
    for &r in schema.roots() {
        render(schema, r, 1, &mut out);
    }
    out.push_str("</xs:schema>\n");
    out
}

fn xsd_type_name(t: DataType) -> &'static str {
    match t {
        DataType::Integer => "xs:integer",
        DataType::Decimal { .. } => "xs:decimal",
        DataType::Float => "xs:double",
        DataType::Date => "xs:date",
        DataType::DateTime => "xs:dateTime",
        DataType::Time => "xs:time",
        DataType::Bool => "xs:boolean",
        DataType::Binary => "xs:base64Binary",
        DataType::Text { .. } | DataType::Enum { .. } => "xs:string",
        DataType::None | DataType::Unknown => "xs:anyType",
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::element::ElementKind;
    use proptest::prelude::*;

    const SAMPLE: &str = r#"<?xml version="1.0"?>
<xs:schema xmlns:xs="http://www.w3.org/2001/XMLSchema">
  <!-- legacy tracked-entity schema -->
  <xs:element name="TrackedItem">
    <xs:annotation><xs:documentation>an item tracked by the legacy system</xs:documentation></xs:annotation>
    <xs:complexType>
      <xs:sequence>
        <xs:element name="DATETIME_FIRST_INFO" type="xs:dateTime"/>
        <xs:element name="Location" minOccurs="0" maxOccurs="unbounded">
          <xs:complexType>
            <xs:sequence>
              <xs:element name="Lat" type="xs:decimal"/>
              <xs:element name="Lon" type="xs:decimal"/>
            </xs:sequence>
          </xs:complexType>
        </xs:element>
      </xs:sequence>
      <xs:attribute name="id" type="xs:ID"/>
    </xs:complexType>
  </xs:element>
  <xs:complexType name="UnitType">
    <xs:sequence>
      <xs:element name="UnitName" type="xs:string"/>
    </xs:sequence>
  </xs:complexType>
</xs:schema>
"#;

    #[test]
    fn parses_elements_types_attrs_docs() {
        let s = parse_xsd(SchemaId(2), "S_B", SAMPLE).unwrap();
        // TrackedItem, DATETIME_FIRST_INFO, Location, Lat, Lon, id, UnitType, UnitName
        assert_eq!(s.len(), 8);
        let ti = s.find_by_name("TrackedItem").unwrap();
        assert_eq!(
            s.element(ti).doc_text(),
            "an item tracked by the legacy system"
        );
        let id = s.find_by_name("id").unwrap();
        assert_eq!(s.element(id).kind, ElementKind::Attribute);
        let lat = s.find_by_name("Lat").unwrap();
        assert_eq!(s.element(lat).depth, 3);
        assert_eq!(s.path(lat).to_string(), "TrackedItem/Location/Lat");
        s.validate().unwrap();
    }

    #[test]
    fn datetime_type_mapped() {
        let s = parse_xsd(SchemaId(2), "S_B", SAMPLE).unwrap();
        let d = s.find_by_name("DATETIME_FIRST_INFO").unwrap();
        assert_eq!(s.element(d).datatype, DataType::DateTime);
    }

    #[test]
    fn named_complex_type_is_root() {
        let s = parse_xsd(SchemaId(2), "S_B", SAMPLE).unwrap();
        let ut = s.find_by_name("UnitType").unwrap();
        assert_eq!(s.element(ut).depth, 1);
        assert_eq!(s.element(ut).kind, ElementKind::ComplexType);
    }

    #[test]
    fn comments_and_pi_skipped() {
        let s = parse_xsd(
            SchemaId(2),
            "x",
            "<?xml version=\"1.0\"?><!-- c --><xs:schema><!-- d --></xs:schema>",
        )
        .unwrap();
        assert!(s.is_empty());
    }

    #[test]
    fn entities_decoded_in_docs() {
        let xsd = r#"<xs:schema><xs:element name="A" type="xs:string">
            <xs:annotation><xs:documentation>a &amp; b &lt;c&gt;</xs:documentation></xs:annotation>
        </xs:element></xs:schema>"#;
        let s = parse_xsd(SchemaId(2), "x", xsd).unwrap();
        let a = s.find_by_name("A").unwrap();
        assert_eq!(s.element(a).doc_text(), "a & b <c>");
    }

    #[test]
    fn malformed_input_rejected() {
        assert!(parse_xsd(SchemaId(2), "x", "<xs:schema>").is_err());
        assert!(parse_xsd(SchemaId(2), "x", "<notschema/>").is_err());
        assert!(parse_xsd(SchemaId(2), "x", "").is_err());
        assert!(parse_xsd(SchemaId(2), "x", "<xs:schema><xs:element/></xs:schema>").is_err());
    }

    #[test]
    fn unbounded_occurs_parsed() {
        let s = parse_xsd(SchemaId(2), "S_B", SAMPLE).unwrap();
        // Occurs is consumed at build time; presence of the repeated subtree
        // suffices here (Location has two children).
        let loc = s.find_by_name("Location").unwrap();
        assert_eq!(s.element(loc).children.len(), 2);
    }

    #[test]
    fn round_trip_through_to_xsd() {
        let s = parse_xsd(SchemaId(2), "S_B", SAMPLE).unwrap();
        let xsd = to_xsd(&s);
        let s2 = parse_xsd(SchemaId(2), "S_B", &xsd).unwrap();
        assert_eq!(s.len(), s2.len());
        let names: Vec<_> = s.preorder().map(|e| e.name.clone()).collect();
        let names2: Vec<_> = s2.preorder().map(|e| e.name.clone()).collect();
        assert_eq!(names, names2);
        let ti2 = s2.find_by_name("TrackedItem").unwrap();
        assert_eq!(
            s2.element(ti2).doc_text(),
            "an item tracked by the legacy system"
        );
    }

    #[test]
    fn attribute_annotation_collected() {
        let xsd = r#"<xs:schema><xs:complexType name="T">
          <xs:attribute name="a" type="xs:string">
            <xs:annotation><xs:documentation>attr doc</xs:documentation></xs:annotation>
          </xs:attribute>
        </xs:complexType></xs:schema>"#;
        let s = parse_xsd(SchemaId(2), "x", xsd).unwrap();
        let a = s.find_by_name("a").unwrap();
        assert_eq!(s.element(a).doc_text(), "attr doc");
    }

    /// `depth` elements, each nested in the previous one's complex type,
    /// around one leaf.
    fn nested(depth: usize) -> String {
        let mut doc = String::from(r#"<xs:schema xmlns:xs="http://www.w3.org/2001/XMLSchema">"#);
        for i in 0..depth {
            doc.push_str(&format!(
                r#"<xs:element name="e{i}"><xs:complexType><xs:sequence>"#
            ));
        }
        doc.push_str(r#"<xs:element name="leaf" type="xs:string"/>"#);
        for _ in 0..depth {
            doc.push_str("</xs:sequence></xs:complexType></xs:element>");
        }
        doc.push_str("</xs:schema>");
        doc
    }

    #[test]
    fn nesting_at_the_limit_parses() {
        let s = parse_xsd(SchemaId(3), "deep", &nested(MAX_NESTING)).unwrap();
        assert_eq!(s.len(), MAX_NESTING + 1);
    }

    #[test]
    fn nesting_beyond_the_limit_is_a_parse_error() {
        let err = parse_xsd(SchemaId(3), "deep", &nested(100_000)).unwrap_err();
        assert!(matches!(err, SchemaError::Parse { .. }), "{err}");
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
            let _ = parse_xsd(SchemaId(4), "mutated", &crate::mutated(SAMPLE, cut, &flips));
        }
    }
}
