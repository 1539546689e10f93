//! The bench-regression gate, as a binary — runnable in CI and locally:
//!
//! ```sh
//! cargo run --release -p mirabel-bench --bin bench_diff -- \
//!     --baseline BENCH_baseline.json BENCH_stress.json BENCH_ingest.json ...
//! ```
//!
//! The baseline file holds one section per harness, keyed by the
//! report's `bench` field (each the verbatim report its harness wrote).
//! Every report given is judged by its harness's gate table (see
//! `mirabel_bench::diff`) against its section: integrity booleans hold
//! outright, relative rows stay within ±20 % (one-sided — improvements
//! pass), limits scoped to `bench_diff` hold absolutely, and each row's
//! machine-class policy decides when a miss only warns. Refresh the
//! baseline when improvements should become the new bar:
//!
//! ```sh
//! cargo run --release -p mirabel-bench --bin bench_diff -- \
//!     --baseline BENCH_baseline.json BENCH_stress.json BENCH_ingest.json \
//!     BENCH_planning.json BENCH_net.json BENCH_spatial.json \
//!     BENCH_forecast.json BENCH_columnar.json --write-baseline
//! ```
//!
//! Name the reports one by one rather than by a `BENCH_*.json` glob:
//! the glob also matches the baseline itself and the nightly reports,
//! and two reports of one harness are refused.

use std::process::ExitCode;

use mirabel_bench::cli::Args;
use mirabel_bench::diff::{
    evaluate, gates_for, guard_machine_class, Gate, Json, MetricCheck, PARALLEL_GATE_MIN_CORES,
    TOLERANCE,
};

/// A report with its `bench` name and that harness's gate table.
type Report = (String, &'static [Gate], Json);

/// Reads every report, at most one per harness.
fn read_reports(paths: &[String]) -> Result<Vec<Report>, String> {
    let mut reports: Vec<Report> = Vec::new();
    for path in paths {
        let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
        let report = Json::parse(&text).map_err(|e| format!("{path} is not valid JSON: {e}"))?;
        let Some(Json::Str(bench)) = report.get("bench") else {
            return Err(format!("{path} has no \"bench\" field — not a harness report"));
        };
        let gates = gates_for(bench).ok_or(format!("{path}: unknown bench {bench:?}"))?;
        if reports.iter().any(|(seen, ..)| seen == bench) {
            return Err(format!("{path} is a second {bench:?} report — pass one per harness"));
        }
        reports.push((bench.clone(), gates, report));
    }
    Ok(reports)
}

fn main() -> ExitCode {
    let mut args = Args::parse(
        "usage: bench_diff --baseline PATH [--write-baseline] REPORT.json...",
        &["--write-baseline"],
    );
    let write_baseline = args.switch("--write-baseline");
    let baseline_path: String = args.get("--baseline").unwrap_or_else(|| args.usage());
    let paths = args.rest();
    if paths.is_empty() {
        eprintln!("nothing to compare: pass one or more BENCH_*.json reports");
        args.usage();
    }
    args.finish();
    let reports = match read_reports(&paths) {
        Ok(reports) => reports,
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::FAILURE;
        }
    };

    // --write-baseline: (re)compose the baseline from the fresh reports
    // instead of gating against it.
    if write_baseline {
        let sections = reports.into_iter().map(|(bench, _, report)| (bench, report));
        let baseline = Json::Obj(sections.collect());
        if let Err(e) = std::fs::write(&baseline_path, baseline.to_string()) {
            eprintln!("cannot write {baseline_path}: {e}");
            return ExitCode::FAILURE;
        }
        println!("wrote {baseline_path}");
        return ExitCode::SUCCESS;
    }

    let baseline = match std::fs::read_to_string(&baseline_path)
        .map_err(|e| e.to_string())
        .and_then(|text| Json::parse(&text))
    {
        Ok(j) => j,
        Err(e) => {
            eprintln!("cannot read baseline {baseline_path}: {e}");
            return ExitCode::FAILURE;
        }
    };

    let mut checks: Vec<MetricCheck> = Vec::new();
    for (bench, gates, report) in &reports {
        let Some(section) = baseline.get(bench) else {
            eprintln!("baseline {baseline_path} has no \"{bench}\" section");
            return ExitCode::FAILURE;
        };
        // Hard machine-class guard: a baseline measured with more cores
        // than this runner has sets bars the runner cannot reach.
        let verdict = guard_machine_class(bench, section, report)
            .and_then(|()| evaluate(bench, gates, Some(section), report));
        match verdict {
            Ok(rows) => checks.extend(rows),
            Err(e) => {
                eprintln!("cannot diff {bench}: {e}");
                return ExitCode::FAILURE;
            }
        }
    }

    println!("bench gate (tolerance ±{:.0}%):", TOLERANCE * 100.0);
    for c in &checks {
        println!("  {c}");
    }
    let skipped_parallel: Vec<&str> = checks
        .iter()
        .filter(|c| c.advisory && c.name.ends_with("parallel_speedup"))
        .map(|c| c.name.as_str())
        .collect();
    if !skipped_parallel.is_empty() {
        eprintln!(
            "\nWARNING: parallel-speedup gate(s) {skipped_parallel:?} ran advisory-only — this \
             runner has fewer than {PARALLEL_GATE_MIN_CORES} cores (or a different machine class \
             than the baseline), so thread-scaling claims cannot be verified here."
        );
    }
    let advisories = checks.iter().filter(|c| !c.ok && c.advisory).count();
    if advisories > 0 {
        println!(
            "\nnote: {advisories} numeric check(s) are advisory-only — the baseline was \
             recorded on a different machine class (available_parallelism mismatch) or this \
             runner is too small to verify parallel scaling. Refresh the baseline on this \
             runner class with --write-baseline to arm the class-mismatched ones."
        );
    }
    let regressions = checks.iter().filter(|c| c.is_regression()).count();
    if regressions > 0 {
        eprintln!(
            "\nFAIL: {regressions} metric(s) regressed beyond ±{:.0}% — \
             if intentional, refresh BENCH_baseline.json with --write-baseline",
            TOLERANCE * 100.0,
        );
        ExitCode::FAILURE
    } else {
        let gated = checks.iter().filter(|c| !c.advisory).count();
        println!("\nall {gated} gated metrics within tolerance");
        ExitCode::SUCCESS
    }
}
