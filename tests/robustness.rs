//! Failure-injection and adversarial-input tests: the pipeline must degrade
//! gracefully, never panic, on degenerate schemata.

use harmony_core::prelude::*;
use harmony_core::prepare::PreparedSchema;
use harmony_core::workflow::NoisyOracle;
use sm_export::{MatchReport, ScreenModel, Workbook};
use sm_schema::ddl::parse_ddl;
use sm_schema::xsd::parse_xsd;
use sm_schema::{
    DataType, ElementKind, Schema, SchemaError, SchemaFormat, SchemaId, MAX_NAME_BYTES,
};
use sm_text::normalize::Normalizer;
use sm_text::soundex::soundex;
use std::collections::HashSet;
use std::time::{Duration, Instant};

fn empty(id: u32) -> Schema {
    Schema::new(SchemaId(id), format!("S{id}"), SchemaFormat::Generic)
}

#[test]
fn empty_schemata_flow_through_the_whole_pipeline() {
    let a = empty(1);
    let b = empty(2);
    let engine = MatchEngine::new().with_threads(1);
    let result = engine.run(&a, &b);
    assert_eq!(result.pairs_considered, 0);

    let selected = Selection::Threshold(Confidence::new(0.1)).apply(&result.matrix);
    assert!(selected.is_empty());

    let partition = BinaryPartition::compute(&a, &b, &selected);
    assert_eq!(partition.cardinalities(), (0, 0, 0));

    let summary = auto_summarize(&a, 10);
    assert!(summary.is_empty());

    let wb = Workbook::build(&a, &b, &summary, &summary, &[], &selected);
    assert!(wb.element_sheet.is_empty());

    let report = MatchReport::build(&a, &b, &selected);
    assert!(report.is_empty());

    let stats = ScreenModel::default().render(&a, &b, &[], &NodeFilter::All, &NodeFilter::All);
    assert_eq!(stats.total_lines, 0);
}

#[test]
fn one_sided_emptiness() {
    let mut a = empty(1);
    let t = a.add_root("T", ElementKind::Table, DataType::None);
    a.add_child(t, "x", ElementKind::Column, DataType::text())
        .unwrap();
    let b = empty(2);
    let engine = MatchEngine::new().with_threads(1);
    assert_eq!(engine.run(&a, &b).pairs_considered, 0);
    assert_eq!(engine.run(&b, &a).pairs_considered, 0);
}

#[test]
fn adversarial_identical_names_do_not_blow_up() {
    // Every element named the same: the matcher sees maximal ambiguity.
    let build = |id: u32, n: usize| {
        let mut s = empty(id);
        let root = s.add_root("thing", ElementKind::Table, DataType::None);
        for _ in 0..n {
            s.add_child(root, "thing", ElementKind::Column, DataType::text())
                .unwrap();
        }
        s
    };
    let a = build(1, 40);
    let b = build(2, 40);
    let engine = MatchEngine::new().with_threads(1);
    let result = engine.run(&a, &b);
    // One-to-one selection still returns an injective assignment.
    let selected = Selection::OneToOne {
        min: Confidence::new(0.0),
    }
    .apply(&result.matrix);
    let mut seen = HashSet::new();
    for c in selected.all() {
        assert!(seen.insert(c.target));
    }
    assert!(selected.len() <= 41);
}

#[test]
fn documentation_free_matching_still_works() {
    // Strip all documentation: the engine must fall back to name evidence.
    let mut cfg = sm_synth::GeneratorConfig::paper_case_study(13, 0.08);
    cfg.source_doc = sm_synth::docgen::DocStyle::none();
    cfg.target_doc = sm_synth::docgen::DocStyle::none();
    let pair = sm_synth::SchemaPair::generate(&cfg);
    assert_eq!(pair.source.doc_coverage(), 0.0);

    let engine = MatchEngine::new().with_threads(1);
    let result = engine.run(&pair.source, &pair.target);
    let selected = Selection::OneToOne {
        min: Confidence::new(0.3),
    }
    .apply(&result.matrix);
    let predicted: Vec<_> = selected
        .all()
        .iter()
        .map(|c| (c.source, c.target))
        .collect();
    let eval = pair.truth.evaluate_pairs(predicted.iter());
    assert!(
        eval.f1 > 0.5,
        "doc-free matching should still be serviceable: F1 {}",
        eval.f1
    );
}

#[test]
fn unicode_and_hostile_names_survive_export() {
    let mut a = empty(1);
    let t = a.add_root("Täble,with \"quotes\"", ElementKind::Table, DataType::None);
    a.add_child(t, "naïve\ncolumn", ElementKind::Column, DataType::text())
        .unwrap();
    let mut b = empty(2);
    let u = b.add_root("日本語スキーマ", ElementKind::ComplexType, DataType::None);
    b.add_child(u, "значение", ElementKind::XmlElement, DataType::text())
        .unwrap();

    let engine = MatchEngine::new().with_threads(1);
    let result = engine.run(&a, &b);
    let mut selected = Selection::Threshold(Confidence::new(-1.0)).apply(&result.matrix);
    for c in selected.all_mut() {
        *c = c.clone().validate("t", MatchAnnotation::Equivalent);
    }
    // CSV export must quote everything correctly and round-trip.
    let report = MatchReport::build(&a, &b, &selected);
    let rows = sm_export::csv::parse_csv(&report.to_csv());
    assert_eq!(rows.len(), 1 + selected.len());
    assert!(rows.iter().any(|r| r[0].contains("naïve\ncolumn")));
}

#[test]
fn single_giant_table_is_summarizable_and_matchable() {
    let mut a = empty(1);
    let t = a.add_root("MEGA", ElementKind::Table, DataType::None);
    for i in 0..600 {
        a.add_child(t, format!("col_{i}"), ElementKind::Column, DataType::text())
            .unwrap();
    }
    let summary = auto_summarize(&a, 10);
    assert_eq!(summary.len(), 1, "one anchor tile covers everything");
    assert!((summary.coverage(&a) - 1.0).abs() < 1e-12);

    let mut b = empty(2);
    let u = b.add_root("SMALL", ElementKind::ComplexType, DataType::None);
    b.add_child(u, "col_5", ElementKind::XmlElement, DataType::text())
        .unwrap();
    let engine = MatchEngine::new().with_threads(1);
    let mut session = IncrementalSession::new(&engine, &a, &b, Confidence::new(0.2));
    let mut oracle = NoisyOracle::perfect(HashSet::new());
    let report = session.run_increment(
        "MEGA",
        &NodeFilter::subtree(t),
        &NodeFilter::All,
        &mut oracle,
    );
    assert_eq!(report.pairs_considered, 601 * 2);
    assert_eq!(report.accepted, 0, "oracle with empty truth rejects all");
}

#[test]
fn degenerate_effort_and_advice_inputs() {
    let model = EffortModel::default();
    let zero = model.estimate(&Workload::default());
    assert_eq!(zero.person_days, 0.0);
    assert!(zero.calendar_days(0).is_infinite());

    let a = empty(1);
    let b = empty(2);
    let p = BinaryPartition::compute(&a, &b, &MatchSet::new());
    // Empty target → 0% matched → retain-and-bridge is the safe default.
    assert_eq!(
        p.subsumption_advice(0.5),
        SubsumptionAdvice::RetainAndBridge
    );
}

#[test]
fn noisy_oracle_with_certain_error_inverts_truth() {
    use harmony_core::workflow::Oracle;
    let truth: HashSet<_> = [(sm_schema::ElementId(0), sm_schema::ElementId(0))]
        .into_iter()
        .collect();
    let mut oracle = NoisyOracle::new(truth, 1.0, 3);
    // error_rate 1.0 always inverts.
    assert!(!oracle.judge(
        sm_schema::ElementId(0),
        sm_schema::ElementId(0),
        Confidence::NEUTRAL
    ));
    assert!(oracle.judge(
        sm_schema::ElementId(1),
        sm_schema::ElementId(1),
        Confidence::NEUTRAL
    ));
}

fn one_table_ddl(table: &str, column: &str) -> String {
    format!("CREATE TABLE {table} (\n    {column} INT\n);\n")
}

fn one_element_xsd(root: &str, child: &str) -> String {
    format!(
        r#"<xs:schema xmlns:xs="http://www.w3.org/2001/XMLSchema">
  <xs:element name="{root}">
    <xs:complexType>
      <xs:sequence>
        <xs:element name="{child}" type="xs:string"/>
      </xs:sequence>
    </xs:complexType>
  </xs:element>
</xs:schema>"#
    )
}

fn is_invalid_name<T>(result: Result<T, SchemaError>) -> bool {
    matches!(result, Err(SchemaError::InvalidName(_)))
}

/// A 1 MB element name from untrusted DDL or XSD text is a typed error,
/// returned in time linear in the input, instead of a schema whose
/// raw-name voters are quadratic in the name's length.
#[test]
fn megabyte_names_are_rejected_by_the_parsers() {
    let started = Instant::now();
    for huge in ["n".repeat(1 << 20), "\u{e9}".repeat(1 << 19)] {
        assert!(is_invalid_name(parse_ddl(
            SchemaId(1),
            "big",
            &one_table_ddl(&huge, "id")
        )));
        assert!(is_invalid_name(parse_ddl(
            SchemaId(1),
            "big",
            &one_table_ddl("t", &huge)
        )));
        assert!(is_invalid_name(parse_xsd(
            SchemaId(2),
            "big",
            &one_element_xsd(&huge, "id")
        )));
        assert!(is_invalid_name(parse_xsd(
            SchemaId(2),
            "big",
            &one_element_xsd("t", &huge)
        )));
    }
    assert!(
        started.elapsed() < Duration::from_secs(20),
        "rejecting huge names took {:?}",
        started.elapsed()
    );

    // The limit counts bytes: 512 two-byte chars fit, 513 do not.
    let at_limit = "\u{e9}".repeat(MAX_NAME_BYTES / 2);
    let over = "\u{e9}".repeat(MAX_NAME_BYTES / 2 + 1);
    assert!(parse_ddl(SchemaId(1), "edge", &one_table_ddl("t", &at_limit)).is_ok());
    assert!(is_invalid_name(parse_ddl(
        SchemaId(1),
        "edge",
        &one_table_ddl("t", &over)
    )));
    assert!(parse_xsd(SchemaId(2), "edge", &one_element_xsd("t", &at_limit)).is_ok());
    assert!(is_invalid_name(parse_xsd(
        SchemaId(2),
        "edge",
        &one_element_xsd("t", &over)
    )));
}

/// Names under the limit — non-ASCII, combining-mark-only, emoji, dotted
/// capital I (which lowercases to two chars), and one at the byte limit —
/// pass through normalization, Soundex, preparation and a full match
/// without panicking.
#[test]
fn hostile_names_under_the_limit_prepare_and_match() {
    let names = [
        "Gr\u{f6}\u{df}e".to_string(),
        "\u{6570}\u{636e}_id".to_string(),
        "\u{301}\u{308}".to_string(),
        "\u{301}".to_string(),
        "\u{1f600}_\u{1f680}".to_string(),
        "\u{1f468}\u{200d}\u{1f469}\u{200d}\u{1f467}".to_string(),
        "\u{130}STANBUL_code".to_string(),
        "\u{130}".to_string(),
        "\u{e9}".to_string(),
        "\u{2116}".to_string(),
        "x".repeat(MAX_NAME_BYTES),
        "\u{e9}".repeat(MAX_NAME_BYTES / 2),
    ];
    let normalizer = Normalizer::new();
    for name in &names {
        let _ = normalizer.name(name);
        let _ = normalizer.prose(name);
        let _ = soundex(name);
    }
    let build = |id: u32, format: SchemaFormat, container: ElementKind, leaf: ElementKind| {
        let mut s = Schema::new(SchemaId(id), format!("hostile_{id}"), format);
        let root = s.add_root(names[6].as_str(), container, DataType::None);
        for name in &names {
            s.add_child(root, name.as_str(), leaf, DataType::text())
                .unwrap();
        }
        s
    };
    let a = build(
        1,
        SchemaFormat::Relational,
        ElementKind::Table,
        ElementKind::Column,
    );
    let b = build(
        2,
        SchemaFormat::Xml,
        ElementKind::ComplexType,
        ElementKind::XmlElement,
    );
    let prepared = PreparedSchema::build(&a, &normalizer);
    assert_eq!(prepared.len(), a.len());

    let engine = MatchEngine::new().with_threads(1);
    let dense = engine.run(&a, &b);
    assert_eq!(dense.pairs_considered, a.len() * b.len());
    let blocked = engine.run_blocked(&a, &b, &BlockingPolicy::default());
    // Both sides hold the same names, so some pair is selected.
    let selected = Selection::OneToOne {
        min: Confidence::new(0.0),
    }
    .apply(&blocked.matrix);
    assert!(!selected.is_empty());
}
