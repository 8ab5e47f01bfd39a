//! Shared helpers for the experiment harness.
//!
//! Every binary in `src/bin/` regenerates one experiment of EXPERIMENTS.md
//! (which maps them to the paper's reported statistics). The helpers here
//! keep their output format uniform: a titled, aligned table plus
//! paper-vs-measured annotations.

use harmony_core::obs;
use harmony_core::prelude::*;
use sm_synth::{GeneratorConfig, SchemaPair};

/// Print an experiment header.
pub fn header(id: &str, claim: &str) {
    println!("==============================================================");
    println!("{id}: {claim}");
    println!("==============================================================");
}

/// Print one aligned table row.
pub fn row(cells: &[String]) {
    let line = cells
        .iter()
        .map(|c| format!("{c:>14}"))
        .collect::<Vec<_>>()
        .join(" ");
    println!("{line}");
}

/// Print a table header row followed by a rule.
pub fn table_header(cols: &[&str]) {
    row(&cols.iter().map(|c| c.to_string()).collect::<Vec<_>>());
    println!("{}", "-".repeat(15 * cols.len()));
}

/// Format a float with 3 decimals.
pub fn f3(v: f64) -> String {
    format!("{v:.3}")
}

/// Format a float with 1 decimal.
pub fn f1(v: f64) -> String {
    format!("{v:.1}")
}

/// The standard case-study pair at a given scale (seed fixed so every
/// experiment sees the same world).
pub fn case_study(scale: f64) -> SchemaPair {
    SchemaPair::generate(&GeneratorConfig::paper_case_study(42, scale))
}

/// Run the automatic matcher and select one-to-one candidates at the
/// default operating threshold used across experiments.
pub fn auto_match(pair: &SchemaPair, threshold: f64) -> MatchSet {
    let engine = MatchEngine::new();
    let result = engine.run(&pair.source, &pair.target);
    Selection::OneToOne {
        min: Confidence::new(threshold),
    }
    .apply(&result.matrix)
}

/// A parsed `--trace` request: where a bench binary's instrumented run
/// should write its chrome-trace JSON and the aggregate report beside it.
pub struct TraceRequest {
    /// Chrome `trace_event` JSON (open in `chrome://tracing` or Perfetto).
    pub trace_path: String,
    /// Aggregate [`harmony_core::obs::TraceReport`] JSON: per-kind
    /// percentiles, lane utilization, and every registered counter.
    pub report_path: String,
}

/// Derive the trace/report output paths from argv. Pure so it is testable:
/// `--trace` with no following path (or a following flag) falls back to
/// `target/<stem>.trace.json`; the report lands beside the trace with the
/// `.trace.json` suffix swapped for `.report.json`.
pub fn trace_paths(args: &[String], stem: &str) -> Option<(String, String)> {
    let pos = args.iter().position(|a| a == "--trace")?;
    let trace_path = args
        .get(pos + 1)
        .filter(|a| !a.starts_with('-'))
        .cloned()
        .unwrap_or_else(|| format!("target/{stem}.trace.json"));
    let stripped = trace_path
        .strip_suffix(".trace.json")
        .or_else(|| trace_path.strip_suffix(".json"))
        .unwrap_or(&trace_path);
    Some((trace_path.clone(), format!("{stripped}.report.json")))
}

/// Parse `--trace [PATH]` (and `--help`) from a bench binary's command
/// line. Returns `Some` when the binary should skip the full benchmark and
/// instead record one instrumented run; `--help`/`-h` prints README-style
/// usage for the flag and exits.
pub fn trace_request(stem: &str, traced_run: &str) -> Option<TraceRequest> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.iter().any(|a| a == "--help" || a == "-h") {
        println!(
            "Usage: {stem} [--trace [PATH]]\n\
             \n\
             Without flags: run the full benchmark and regenerate its\n\
             checked-in BENCH_*.json at the workspace root.\n\
             \n\
             --trace [PATH]\n\
             \x20   Skip the benchmark and record one instrumented run\n\
             \x20   ({traced_run}) through the harmony_core::obs recorder,\n\
             \x20   then write two JSON artifacts:\n\
             \x20     PATH                   chrome-trace (trace_event) JSON;\n\
             \x20                            load it in chrome://tracing or\n\
             \x20                            https://ui.perfetto.dev to see\n\
             \x20                            per-stage spans on per-lane rows\n\
             \x20     PATH with .trace.json  aggregate TraceReport JSON:\n\
             \x20     -> .report.json        per-kind p50/p95/p99 latencies,\n\
             \x20                            lane busy-time, all counters\n\
             \x20   PATH defaults to target/{stem}.trace.json (untracked).\n\
             \n\
             Tracing costs <5% on instrumented runs (ci.sh gates this)."
        );
        std::process::exit(0);
    }
    let (trace_path, report_path) = trace_paths(&args, stem)?;
    Some(TraceRequest {
        trace_path,
        report_path,
    })
}

/// Collect everything recorded since the last `obs::reset()` and write the
/// two trace artifacts of a [`TraceRequest`], printing a one-line digest of
/// what the trace holds and where to open it.
pub fn write_trace(req: &TraceRequest) {
    let events = obs::collect();
    let report = obs::TraceReport::from_events(&events);
    for path in [&req.trace_path, &req.report_path] {
        if let Some(dir) = std::path::Path::new(path).parent() {
            if !dir.as_os_str().is_empty() {
                std::fs::create_dir_all(dir).expect("create trace output dir");
            }
        }
    }
    std::fs::write(&req.trace_path, obs::chrome_trace_from_events(&events))
        .expect("write chrome trace JSON");
    std::fs::write(&req.report_path, report.to_json()).expect("write trace report JSON");
    let busy_ns: u64 = report.lanes.iter().map(|l| l.busy_ns).sum();
    println!(
        "trace: {} events over {:.3} ms across {} lane(s) ({:.3} ms busy)",
        events.len(),
        report.wall_ns as f64 / 1e6,
        report.lanes.len(),
        busy_ns as f64 / 1e6,
    );
    println!(
        "wrote {} (open in chrome://tracing or ui.perfetto.dev)",
        req.trace_path
    );
    println!("wrote {}", req.report_path);
}

/// Validate every correspondence of a set (for partition accounting of
/// fully automatic runs).
pub fn validate_all(set: &MatchSet) -> MatchSet {
    let mut out = MatchSet::new();
    for c in set.all() {
        out.push(c.clone().validate("engine", MatchAnnotation::Equivalent));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn case_study_is_reproducible() {
        let a = case_study(0.05);
        let b = case_study(0.05);
        assert_eq!(a.source.len(), b.source.len());
        assert_eq!(a.truth.len(), b.truth.len());
    }

    #[test]
    fn auto_match_returns_candidates() {
        let pair = case_study(0.05);
        let m = auto_match(&pair, 0.3);
        assert!(!m.is_empty());
        let v = validate_all(&m);
        assert_eq!(v.len(), m.len());
        assert!(v.validated().count() == v.len());
    }

    #[test]
    fn trace_path_derivation() {
        let args = |v: &[&str]| v.iter().map(|s| s.to_string()).collect::<Vec<_>>();
        assert_eq!(trace_paths(&args(&["--foo"]), "x"), None);
        assert_eq!(
            trace_paths(&args(&["--trace"]), "pipeline_baseline"),
            Some((
                "target/pipeline_baseline.trace.json".into(),
                "target/pipeline_baseline.report.json".into()
            ))
        );
        assert_eq!(
            trace_paths(&args(&["--trace", "/tmp/t.trace.json"]), "x"),
            Some(("/tmp/t.trace.json".into(), "/tmp/t.report.json".into()))
        );
        assert_eq!(
            trace_paths(&args(&["--trace", "out.json"]), "x"),
            Some(("out.json".into(), "out.report.json".into()))
        );
        assert_eq!(
            trace_paths(&args(&["--trace", "plain"]), "x"),
            Some(("plain".into(), "plain.report.json".into()))
        );
    }

    #[test]
    fn formatting_helpers() {
        assert_eq!(f3(0.5), "0.500");
        assert_eq!(f1(2.25), "2.2");
    }
}
