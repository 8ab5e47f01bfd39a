//! The repository's benchmark: three seeded, closed-loop workloads driven
//! through the library's public API.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <case_study|nway_plan|registry_serving|all> \
//!     --seed <n> --seconds <s> --trace <0|1> [--data-seed <n>]
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --repeat <runs> --seconds <s> [--trace <0|1>] [--workload <name>]
//! ```
//!
//! The last stdout line is one JSON object: `correct`, `attempted`,
//! `failed`, and `metrics` — every end-to-end metric with `--trace 0`,
//! every per-layer metric with `--trace 1`. A digest mismatch against the
//! set-up reference, a refusal, a shed, a timeout, or a cancel counts as a
//! failed op. `--seed` drives the operation sequence; `--data-seed`
//! overrides the generator seed of the workload's data (defaults: 42 for
//! the case-study pair, 2031 for the N=100 corpus, 3282 for the registry).
//! `--workload all` runs each workload in its own process. `--repeat`
//! runs each workload `<runs>` times in child processes, alternating the
//! workload order, and prints each metric's median and quartile spread.
//!
//! # Operation classes
//!
//! Every workload runs three classes of operation, and every end-to-end
//! metric is defined on every workload:
//!
//! | metric          | `case_study`               | `nway_plan`                    | `registry_serving`            |
//! |-----------------|----------------------------|--------------------------------|-------------------------------|
//! | `match_*`       | blocked 1378×784 match + one-to-one selection | one planned pair's job inside the round's run (its `StageTimings` total) | point match of two registered schemata through admission + selection |
//! | `query_*`       | one concept increment (restricted match, hits ≥ 0.30) | one overlap-pruned plan of all 4,950 pairs | one registry search through admission |
//! | `bulk_p50_ms`   | dense match + selection    | plan + selection-only run of all planned pairs | one paced 12-pair background batch through admission |
//! | `quality`       | selection F1 vs. ground truth | selection recall of the pruned plan vs. the exhaustive plan | precision@5 of search vs. same-domain relevance, every eighth schema as query |
//! | `setup_s`       | cold prep + token indices of the pair | cold plan: prep + overlap estimate + batch index | cold registry: prep + sharded index + search build |
//! | `restart_s`     | save + warm start + one answered search, registry of the 2 schemata | same, 100 schemata | same, 2,048 schemata |
//! | `peak_rss_mb`   | the workload process's high-water mark | | |
//!
//! The measured loop runs the operations the workload names and nothing
//! else, for exactly `--seconds`. Each run also prints every class's p90
//! and whether ten samples lie beyond it (see `common::TAIL` for why tails
//! are not end-to-end metrics). `setup_s` and `restart_s` are medians of
//! many, all outside the loop: on `case_study` and `nway_plan` one cold
//! set-up, then twenty set-ups and twenty restarts before the loop and
//! twenty of each after it; on `registry_serving` seven set-ups before it
//! and eight restarts each before and after it.
//!
//! Every time metric is host-normalized (see `common::Calibration`): the
//! shared host's core speed drifts by up to ~1.45× within seconds, so each
//! sample is scaled by a fixed reference computation's nominal time over
//! its measured time around that sample. On `registry_serving` the
//! reference is timed only while no background batch runs, so the batch
//! load shows in the interactive latencies instead of cancelling out.
//!
//! The traced run (`--trace 1`) times every public layer call from the
//! outside under its own span (`<layer>.<call>`, see `trace`), alternating
//! traced and untraced operations. It reports per-layer self time shares,
//! each operation class's span coverage and its uncovered ("dark") time,
//! and the traced-over-untraced latency ratio per class. A layer a
//! workload never calls reports 0. A traced blocked match probes and
//! builds the pair context twice (once under its own span, once inside
//! the blocked run), so its layer shares describe more work than the
//! untraced match does. Spans (JSON lines) and the library's obs counter
//! movement go to `perfbench/out/`.
//!
//! # What supersedes the `BENCH_*.json` gates
//!
//! | gate                                                    | named metric                                   |
//! |---------------------------------------------------------|------------------------------------------------|
//! | `BENCH_pipeline` `full_run_secs.score`                  | `pipeline.dense_score_ms`, `bulk_p50_ms` (case_study) |
//! | `BENCH_pipeline` `score_cascade.*` (speedup, skip rate) | `pipeline.tier1_ms`/`tier2_ms`, `pipeline.tier1_skip_rate`, `match_p50_ms` (case_study) |
//! | `BENCH_pipeline` `obs_overhead.ratio`                   | `trace.overhead.*` (this benchmark's own tracer) |
//! | `BENCH_blocking` `block_stage_secs`, `block_scaling`    | `index.probe_ms.t1`, `index.probe_ms.t2`       |
//! | `BENCH_blocking` `blocked_run_secs`                     | `match_p50_ms` (case_study)                    |
//! | `BENCH_blocking` `candidate_recall`/`score_recall`      | `quality` (case_study) plus the digest checks  |
//! | `BENCH_blocking` `repo_search` p50/p99                  | `query_p50_ms` (registry_serving), `serve.run_ms.search` |
//! | `BENCH_blocking` `insert_over_rebuild`                  | `repo.refresh_ms`, `repo.write_visible_p90_ms` |
//! | `BENCH_blocking` `warm_over_cold`                       | `restart_s` vs. `setup_s`                      |
//! | `BENCH_nway` `twelve_schema.ratio`, `equal_selections`  | `bulk_p50_ms` (nway_plan) plus the digest checks |
//! | `BENCH_nway` `n100.ratio_vs_exhaustive`, `recall`, `planned_fraction` | `bulk_p50_ms`, `quality` (nway_plan), `batch.planned_fraction` |
//! | `BENCH_nway` `n100.addone_over_replan`                  | not measured here                              |
//! | `BENCH_serving` `loaded_over_idle_point_p99`            | `match_p50_ms` (registry_serving), `serve.queue_wait_ms.point`, `serve.run_ms.point` |
//! | `BENCH_serving` `admission.*`                           | `failed`, `serve.rejected`/`shed`/`timeouts`   |
//! | `BENCH_serving` `memory.peak_rss_bytes`                 | `peak_rss_mb`                                  |

mod case_study;
mod common;
mod nway_plan;
mod ops;
mod registry_serving;
mod report;
mod stats;
mod trace;

use std::path::Path;
use std::process::{Command, ExitCode};

use common::{Outcome, Params, END_TO_END, PER_LAYER};

const WORKLOADS: &[&str] = &["case_study", "nway_plan", "registry_serving"];

struct Args {
    workload: Option<String>,
    seed: u64,
    data_seed: Option<u64>,
    seconds: f64,
    trace: bool,
    repeat: Option<usize>,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: 1,
        data_seed: None,
        seconds: 30.0,
        trace: false,
        repeat: None,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => args.workload = Some(value()?),
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--data-seed" => {
                args.data_seed = Some(value()?.parse().map_err(|e| format!("--data-seed: {e}"))?)
            }
            "--seconds" => {
                args.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?
            }
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                }
            }
            "--repeat" => {
                args.repeat = Some(value()?.parse().map_err(|e| format!("--repeat: {e}"))?)
            }
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if !args.seconds.is_finite() || args.seconds <= 0.0 {
        return Err("--seconds must be positive".into());
    }
    Ok(args)
}

fn manifest_dir() -> &'static Path {
    Path::new(env!("CARGO_MANIFEST_DIR"))
}

fn run_one(name: &str, args: &Args) -> Result<(), String> {
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let out_dir = manifest_dir().join("out");
    std::fs::create_dir_all(&out_dir).map_err(|e| format!("{}: {e}", out_dir.display()))?;
    let params = Params {
        seed: args.seed,
        data_seed: args.data_seed,
        seconds: args.seconds,
        trace: args.trace,
        nproc,
        out_dir,
    };
    let runner: fn(&Params) -> Outcome = match name {
        "case_study" => case_study::run,
        "nway_plan" => nway_plan::run,
        "registry_serving" => registry_serving::run,
        other => return Err(format!("unknown workload {other}")),
    };
    println!(
        "# workload={name} seed={} data_seed={} nproc={nproc} executor_threads={} seconds={} trace={} commit={}",
        params.seed,
        params
            .data_seed
            .map_or_else(|| "default".to_string(), |s| s.to_string()),
        harmony_core::exec::Executor::global().threads(),
        params.seconds,
        u8::from(params.trace),
        report::git_commit(manifest_dir().parent().unwrap_or(manifest_dir())),
    );
    let out = runner(&params);
    for note in &out.notes {
        println!("# {note}");
    }
    println!("{}", report::result_line(&out, params.trace));
    Ok(())
}

/// Run this binary again as a child for one workload; returns its last
/// stdout line.
fn child(workload: &str, seed: u64, args: &Args) -> Result<String, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let mut cmd = Command::new(exe);
    cmd.args(["--workload", workload])
        .args(["--seed", &seed.to_string()])
        .args(["--seconds", &args.seconds.to_string()])
        .args(["--trace", if args.trace { "1" } else { "0" }]);
    if let Some(d) = args.data_seed {
        cmd.args(["--data-seed", &d.to_string()]);
    }
    let output = cmd.output().map_err(|e| e.to_string())?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    if !output.status.success() {
        return Err(format!("{workload} seed {seed}: exit {}", output.status));
    }
    stdout
        .lines()
        .last()
        .map(str::to_string)
        .ok_or(format!("{workload} seed {seed}: no output"))
}

/// Pull `"name": {"value": X` out of a result line.
fn metric_value(line: &str, name: &str) -> Option<f64> {
    let key = format!("\"{name}\": {{\"value\": ");
    let rest = &line[line.find(&key)? + key.len()..];
    rest[..rest.find(',')?].trim().parse().ok()
}

fn repeat(runs: usize, args: &Args) -> Result<(), String> {
    let chosen: Vec<&str> = match &args.workload {
        Some(w) => vec![w.as_str()],
        None => WORKLOADS.to_vec(),
    };
    let names: Vec<(&str, bool, f64)> = if args.trace {
        PER_LAYER
            .iter()
            .map(|m| (m.name, m.higher_is_better, 0.0))
            .collect()
    } else {
        END_TO_END
            .iter()
            .map(|m| (m.name, m.higher_is_better, m.bound))
            .collect()
    };
    let mut values: Vec<Vec<Vec<f64>>> = vec![vec![Vec::new(); names.len()]; chosen.len()];
    let mut failed = 0;
    for run in 0..runs {
        let mut order: Vec<usize> = (0..chosen.len()).collect();
        if run % 2 == 1 {
            order.reverse();
        }
        for w in order {
            let seed = args.seed + run as u64;
            let line = child(chosen[w], seed, args)?;
            if !line.starts_with("{\"correct\": true") {
                failed += 1;
                eprintln!("{} seed {seed}: {line}", chosen[w]);
            }
            for (k, (name, _, _)) in names.iter().enumerate() {
                if let Some(v) = metric_value(&line, name) {
                    values[w][k].push(v);
                }
            }
            eprintln!("run {run} {} done", chosen[w]);
        }
    }
    println!(
        "{:<18} {:<34} {:>7} {:>12} {:>12} {:>12} {:>8} {:>6}",
        "workload", "metric", "better", "median", "q1", "q3", "spread", "bound"
    );
    for (w, workload) in chosen.iter().enumerate() {
        for (k, (name, higher, bound)) in names.iter().enumerate() {
            let v = &values[w][k];
            if v.len() < 2 {
                continue;
            }
            let [q1, q2, q3] = stats::quartiles(v);
            println!(
                "{workload:<18} {name:<34} {:>7} {q2:>12.4} {q1:>12.4} {q3:>12.4} {:>8.4} {bound:>6.2}",
                if *higher { "higher" } else { "lower" },
                stats::spread(v)
            );
        }
    }
    if failed > 0 {
        return Err(format!("{failed} run(s) were not correct"));
    }
    Ok(())
}

fn main() -> ExitCode {
    let result = parse_args().and_then(|args| match (args.repeat, args.workload.as_deref()) {
        (Some(runs), _) => repeat(runs, &args),
        (None, Some("all")) => WORKLOADS.iter().try_for_each(|w| {
            let line = child(w, args.seed, &args)?;
            println!("{w}: {line}");
            Ok(())
        }),
        (None, Some(w)) => run_one(w, &args),
        (None, None) => Err("--workload or --repeat is required".into()),
    });
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn metric_values_parse_back_out_of_a_result_line() {
        let line = r#"{"correct": true, "attempted": 3, "failed": 0, "metrics": {"setup_s": {"value": 0.25, "unit": "s"}, "quality": {"value": 1, "unit": "ratio"}}}"#;
        assert_eq!(metric_value(line, "setup_s"), Some(0.25));
        assert_eq!(metric_value(line, "quality"), Some(1.0));
        assert_eq!(metric_value(line, "restart_s"), None);
    }

    #[test]
    fn benchmark_json_lists_exactly_these_metrics() {
        let path = manifest_dir().join("../BENCHMARK.json");
        let Ok(doc) = std::fs::read_to_string(&path) else {
            return;
        };
        let listed = doc.matches("\"name\":").count();
        assert_eq!(listed, WORKLOADS.len() + END_TO_END.len() + PER_LAYER.len());
        for w in WORKLOADS {
            assert!(doc.contains(&format!("\"name\": \"{w}\"")), "{w}");
        }
        for m in END_TO_END {
            let better = if m.higher_is_better {
                "higher"
            } else {
                "lower"
            };
            let entry = format!(
                "{{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{better}\", \"bound\": {}}}",
                m.name, m.unit, m.bound
            );
            assert!(doc.contains(&entry), "{entry}");
        }
        for m in PER_LAYER {
            let better = if m.higher_is_better {
                "higher"
            } else {
                "lower"
            };
            let entry = format!(
                "{{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{better}\"}}",
                m.name, m.unit
            );
            assert!(doc.contains(&entry), "{entry}");
        }
    }
}
