//! Turning a run into output: the traced run's per-layer breakdown, the
//! host record, and the final one-line JSON result.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::Path;

use harmony_core::obs;

use crate::common::{Outcome, Params, END_TO_END, LAYERS, PER_LAYER, TAIL};
use crate::stats;
use crate::trace::{self, Tracer};

/// The library's obs counters at one instant.
pub struct ObsSnapshot(Vec<(&'static str, u64)>);

pub fn obs_snapshot() -> ObsSnapshot {
    ObsSnapshot(obs::counter_snapshot())
}

impl ObsSnapshot {
    /// Counter movement since this snapshot (gauges report their rise).
    pub fn delta(&self) -> Vec<(&'static str, u64)> {
        obs::counter_snapshot()
            .into_iter()
            .zip(&self.0)
            .map(|((name, now), (_, before))| (name, now.saturating_sub(*before)))
            .collect()
    }
}

/// Fold the traced run's spans into per-layer metrics, print the layer
/// table to stderr, and write the spans and obs counters next to the
/// run's other output files.
pub fn finish_trace(t: &Tracer, out: &mut Outcome, p: &Params, workload: &str) {
    let spans = t.spans();
    let selfs = trace::self_times(&spans);
    let root_wall: u64 = spans
        .iter()
        .filter(|s| s.parent == 0)
        .map(|s| s.dur_ns())
        .sum();
    for layer in LAYERS {
        let own: u64 = spans
            .iter()
            .zip(&selfs)
            .filter(|(s, _)| s.parent != 0 && s.layer() == *layer)
            .map(|(_, n)| n)
            .sum();
        let name = format!("self_share.{layer}");
        if let Some(m) = PER_LAYER.iter().find(|m| m.name == name) {
            out.layers.set(m.name, own as f64 / root_wall.max(1) as f64);
        }
    }
    for (class, cov, dark) in [
        ("op.match", "coverage.match", "dark_ms.match"),
        ("op.query", "coverage.query", "dark_ms.query"),
        ("op.bulk", "coverage.bulk", "dark_ms.bulk"),
        ("op.write", "coverage.write", "dark_ms.write"),
    ] {
        if let Some((share, dark_ms)) = trace::coverage(&spans, class) {
            out.layers.set(cov, share);
            out.layers.set(dark, dark_ms);
        }
    }

    // Serving layer: queue wait (submit call to closure entry) and run
    // (closure entry to return), at the tail percentile runs print.
    let names: BTreeMap<u32, &str> = spans.iter().map(|s| (s.id, s.name)).collect();
    for (class, wait, run) in [
        ("point", "serve.queue_wait_ms.point", "serve.run_ms.point"),
        (
            "search",
            "serve.queue_wait_ms.search",
            "serve.run_ms.search",
        ),
        ("batch", "serve.queue_wait_ms.batch", "serve.run_ms.batch"),
    ] {
        let submit = format!("serve.{class}");
        let waits = trace::queue_waits_ms(&spans, &submit);
        if !waits.is_empty() {
            out.layers
                .set(wait, stats::percentile(&stats::sorted(&waits), TAIL));
        }
        let runs: Vec<f64> = spans
            .iter()
            .filter(|s| s.name == "serve.run" && names.get(&s.parent) == Some(&submit.as_str()))
            .map(|s| s.dur_ns() as f64 / 1e6)
            .collect();
        if !runs.is_empty() {
            out.layers
                .set(run, stats::percentile(&stats::sorted(&runs), TAIL));
        }
    }

    eprintln!(
        "{:<28} {:>8} {:>12} {:>10}",
        "span", "count", "self_ms", "p50_ms"
    );
    for (name, s) in trace::by_name(&spans) {
        eprintln!(
            "{:<28} {:>8} {:>12.3} {:>10.4}",
            name,
            s.count,
            s.self_ns as f64 / 1e6,
            stats::median(&s.durs_ms)
        );
    }
    for (name, value) in PER_LAYER
        .iter()
        .filter(|m| m.name.starts_with("coverage.") || m.name.starts_with("dark_ms."))
        .map(|m| (m.name, out.layers.value(m.name)))
    {
        eprintln!("{name:<28} {value:.4}");
    }

    let stem = p.out_dir.join(format!("{workload}-{}", std::process::id()));
    let spans_path = stem.with_extension("spans.jsonl");
    if let Err(e) = trace::write_jsonl(&spans, &spans_path) {
        eprintln!("could not write {}: {e}", spans_path.display());
    }
    let mut counters = String::from("{");
    for (i, (name, v)) in out.obs.iter().enumerate() {
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(counters, "{sep}\"{name}\": {v}");
    }
    counters.push('}');
    let obs_path = stem.with_extension("obs.json");
    if let Err(e) = std::fs::write(&obs_path, counters) {
        eprintln!("could not write {}: {e}", obs_path.display());
    }
    eprintln!(
        "trace: {} spans -> {}, obs counters -> {}",
        spans.len(),
        spans_path.display(),
        obs_path.display()
    );
}

/// The commit the checkout was made from, when it is a git work tree.
pub fn git_commit(root: &Path) -> String {
    let read = |p: &Path| std::fs::read_to_string(p).ok();
    let git = root.join(".git");
    let Some(head) = read(&git.join("HEAD")) else {
        return "unknown".into();
    };
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head.to_string();
    };
    if let Some(sha) = read(&git.join(reference)) {
        return sha.trim().to_string();
    }
    read(&git.join("packed-refs"))
        .and_then(|packed| {
            packed
                .lines()
                .find(|l| l.ends_with(reference))
                .and_then(|l| l.split_whitespace().next().map(str::to_string))
        })
        .unwrap_or_else(|| "unknown".into())
}

/// The final stdout line: `correct`, `attempted`, `failed`, and every
/// end-to-end metric (untraced) or every per-layer metric (traced).
pub fn result_line(out: &Outcome, trace: bool) -> String {
    let mut metrics = String::new();
    let mut complete = true;
    let mut put = |name: &str, value: Option<f64>, unit: &str| {
        let v = value.filter(|v| v.is_finite());
        complete &= v.is_some();
        if !metrics.is_empty() {
            metrics.push_str(", ");
        }
        let _ = write!(
            metrics,
            "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
            v.unwrap_or(0.0)
        );
    };
    if trace {
        for m in PER_LAYER {
            put(m.name, Some(out.layers.value(m.name)), m.unit);
        }
    } else {
        for m in END_TO_END {
            put(m.name, out.e2e.get(m.name).copied(), m.unit);
        }
    }
    let correct = complete && out.attempted > 0 && out.failed == 0;
    format!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{metrics}}}}}",
        out.attempted, out.failed
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn result_line_names_every_metric_and_flags_gaps() {
        let mut out = Outcome::default();
        out.op(true);
        for m in END_TO_END {
            out.e2e.insert(m.name, 1.5);
        }
        let line = result_line(&out, false);
        assert!(line.starts_with("{\"correct\": true, \"attempted\": 1, \"failed\": 0"));
        for m in END_TO_END {
            assert!(line.contains(&format!("\"{}\": {{\"value\": 1.5", m.name)));
        }
        out.e2e.remove("quality");
        assert!(result_line(&out, false).starts_with("{\"correct\": false"));
        let traced = result_line(&out, true);
        assert!(PER_LAYER
            .iter()
            .all(|m| traced.contains(&format!("\"{}\"", m.name))));
    }
}
