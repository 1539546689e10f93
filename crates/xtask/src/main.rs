//! Repo automation (the cargo-xtask pattern: plain Rust instead of a
//! Makefile, so contributors need nothing but the toolchain).
//!
//! `cargo xtask ci` runs the **exact** lint + test + bench-gate
//! sequence `.github/workflows/ci.yml` runs, in the same order with the
//! same flags, so "CI is red but it worked on my machine" reduces to
//! one local command. Subsets:
//!
//! * `cargo xtask lint` — clippy, rustfmt, rustdoc (the `lint` job),
//!   with clippy and rustfmt also run over `perfbench/`, which is a
//!   workspace of its own;
//! * `cargo xtask test` — release build + workspace tests, plus
//!   `mirabel-dw`'s tests in release (the first half of `build-test`);
//! * `cargo xtask examples` — *run* the smoke examples and the
//!   `figures` binary that regenerates the paper's Figures 1–11 (clippy
//!   only proves they compile; CI's `examples` job runs exactly this, so
//!   the list lives only here);
//! * `cargo xtask api-check` — the typestate API surface: the
//!   compile-fail doctest suites of `mirabel-flexoffer` and
//!   `mirabel-net` (invalid lifecycle transitions must not compile)
//!   plus their rustdoc under `-D warnings`;
//! * `cargo xtask perfbench` — the repository benchmark's correctness
//!   checks: its own tests, then a 3 s run of each workload through the
//!   `BENCHMARK.json` command (a run exits 1 when `"correct"` is false;
//!   CI's `build-test` job runs exactly this, so the workload list lives
//!   only here);
//! * `cargo xtask bench-gate` — the planning/spatial/forecast/columnar
//!   harnesses, each of which enforces its whole gate table (the second
//!   half; CI's `build-test` job runs exactly this).

use std::process::{Command, ExitCode};

/// One pipeline step: a display name plus the exact command CI runs.
struct Step {
    name: &'static str,
    program: &'static str,
    args: &'static [&'static str],
    env: &'static [(&'static str, &'static str)],
}

const LINT: &[Step] = &[
    Step {
        name: "clippy",
        program: "cargo",
        args: &["clippy", "--workspace", "--all-targets", "--locked", "--", "-D", "warnings"],
        env: &[],
    },
    Step { name: "rustfmt", program: "cargo", args: &["fmt", "--check"], env: &[] },
    Step {
        name: "clippy (perfbench)",
        program: "cargo",
        args: &[
            "clippy",
            "--manifest-path",
            "perfbench/Cargo.toml",
            "--all-targets",
            "--locked",
            "--",
            "-D",
            "warnings",
        ],
        env: &[],
    },
    Step {
        name: "rustfmt (perfbench)",
        program: "cargo",
        args: &["fmt", "--check", "--manifest-path", "perfbench/Cargo.toml"],
        env: &[],
    },
    Step {
        name: "rustdoc",
        program: "cargo",
        args: &["doc", "--workspace", "--no-deps", "--locked"],
        env: &[("RUSTDOCFLAGS", "-D warnings")],
    },
];

const TEST: &[Step] = &[
    Step {
        name: "build (release)",
        program: "cargo",
        args: &["build", "--workspace", "--release", "--locked"],
        env: &[],
    },
    Step {
        name: "test",
        program: "cargo",
        args: &["test", "--workspace", "-q", "--locked"],
        env: &[],
    },
    Step {
        name: "doc-tests",
        program: "cargo",
        args: &["test", "--workspace", "--doc", "--locked"],
        env: &[],
    },
    // The warehouse's segment arithmetic (shift/mask, `u32` positions)
    // overflows and asserts differently per profile, so its tests also
    // run optimized.
    Step {
        name: "test (release, mirabel-dw)",
        program: "cargo",
        args: &["test", "--release", "-p", "mirabel-dw", "--locked"],
        env: &[],
    },
];

/// The typestate API gate: the `compile_fail` doctests are the proof
/// that invalid offer/connection transitions do not compile, and the
/// crates' rustdoc is the spec they quote — both must stay green.
const API_CHECK: &[Step] = &[
    Step {
        name: "flexoffer lifecycle doctests (compile-fail suite)",
        program: "cargo",
        args: &["test", "-p", "mirabel-flexoffer", "--doc", "--locked"],
        env: &[],
    },
    Step {
        name: "net connection doctests (compile-fail suite)",
        program: "cargo",
        args: &["test", "-p", "mirabel-net", "--doc", "--locked"],
        env: &[],
    },
    Step {
        name: "API rustdoc (-D warnings)",
        program: "cargo",
        args: &["doc", "-p", "mirabel-flexoffer", "-p", "mirabel-net", "--no-deps", "--locked"],
        env: &[("RUSTDOCFLAGS", "-D warnings")],
    },
];

/// One short, untraced run of a `perfbench` workload through the
/// `BENCHMARK.json` command.
macro_rules! perfbench_run {
    ($workload:literal) => {
        Step {
            name: concat!("perfbench ", $workload, " (3 s, checked)"),
            program: "cargo",
            args: &[
                "run",
                "--release",
                "--quiet",
                "--offline",
                "--manifest-path",
                "perfbench/Cargo.toml",
                "--",
                "--workload",
                $workload,
                "--seed",
                "1",
                "--seconds",
                "3",
                "--trace",
                "0",
            ],
            env: &[],
        }
    };
}

/// The repository benchmark (`perfbench/`, declared in
/// `BENCHMARK.json`) as a correctness check: its tests, then a short
/// run of each workload. Every run checks its replies, published
/// snapshots and final plan, and exits 1 when `"correct"` is false;
/// `explore` and `city` hold every wire reply and the final frame hashes,
/// across reconnects and resumes, to an in-process replay.
const PERFBENCH: &[Step] = &[
    Step {
        name: "perfbench tests",
        program: "cargo",
        args: &["test", "--release", "--locked", "--manifest-path", "perfbench/Cargo.toml"],
        env: &[],
    },
    perfbench_run!("explore"),
    perfbench_run!("city"),
    perfbench_run!("live"),
];

/// One bench-harness run at the flags CI gates it with, writing
/// `BENCH_<bin>.json`; the binary enforces its whole gate table and
/// exits 1 on a miss.
macro_rules! harness {
    ($name:literal, $bin:literal $(, $arg:literal)*) => {
        Step {
            name: $name,
            program: "cargo",
            args: &[
                "run", "--release", "--locked", "-p", "mirabel-bench", "--bin", $bin, "--",
                $($arg,)* "--out", concat!("BENCH_", $bin, ".json"),
            ],
            env: &[],
        }
    };
}

/// The harnesses as CI's `build-test` job runs them.
const HARNESSES: &[Step] = &[
    harness!(
        "planning harness (incremental >= 10x, bundled >= 5.76x, warm cell re-plan >= 5.44x, determinism)",
        "planning", "--offers", "10000", "--partitions", "64", "--threads", "1,2,4,8"
    ),
    harness!("spatial harness (O(region) >= 10x, heatmap determinism, publish < 100 ms)", "spatial"),
    harness!(
        "forecast harness (executions beat the envelope)",
        "forecast", "--prosumers", "120", "--days", "5", "--eval-days", "3"
    ),
    harness!(
        "columnar harness (equality gates, encoded eval >= 2x the rows, filtered pushdown >= 3x the plain scan, one-pass pivot >= 4.7x per-cell eval, time-indexed window load >= 25x the scan)",
        "columnar", "--prosumers", "150", "--days", "2", "--repeats", "3", "--filter-facts",
        "1000000"
    ),
];

/// One example, run in release mode.
macro_rules! example {
    ($name:literal) => {
        Step {
            name: concat!("example: ", $name),
            program: "cargo",
            args: &["run", "--release", "--locked", "--example", $name],
            env: &[],
        }
    };
}

/// The examples smoke job: examples are *run*, not just
/// clippy-compiled, so a drifting API or a panicking main surfaces in
/// CI instead of in a reader's terminal. (`command_session` asserts that
/// a replayed command log reproduces the frame hash.) The `figures`
/// binary rides along: it regenerates the paper's Figures 1–11 into
/// the git-ignored `out/figures/`.
const EXAMPLES: &[Step] = &[
    example!("quickstart"),
    example!("enterprise_day_ahead"),
    example!("net_quickstart"),
    example!("command_session"),
    example!("olap_exploration"),
    example!("map_and_grid"),
    example!("aggregation_tuning"),
    Step {
        name: "figures: regenerate Figures 1-11",
        program: "cargo",
        args: &["run", "--release", "--locked", "-p", "mirabel-bench", "--bin", "figures"],
        env: &[],
    },
];

fn run(steps: &[&[Step]]) -> ExitCode {
    let total: usize = steps.iter().map(|s| s.len()).sum();
    let mut done = 0;
    for step in steps.iter().copied().flatten() {
        done += 1;
        println!("\n[{done}/{total}] {} — {} {}", step.name, step.program, step.args.join(" "));
        let mut cmd = Command::new(step.program);
        cmd.args(step.args);
        for (k, v) in step.env {
            cmd.env(k, v);
        }
        match cmd.status() {
            Ok(status) if status.success() => {}
            Ok(status) => {
                eprintln!("\nFAILED at step [{done}/{total}] {} ({status})", step.name);
                return ExitCode::FAILURE;
            }
            Err(e) => {
                eprintln!("\ncannot spawn {}: {e}", step.program);
                return ExitCode::FAILURE;
            }
        }
    }
    println!("\nall {total} steps passed");
    ExitCode::SUCCESS
}

fn main() -> ExitCode {
    let task = std::env::args().nth(1).unwrap_or_default();
    match task.as_str() {
        "ci" => run(&[LINT, TEST, API_CHECK, PERFBENCH, EXAMPLES, HARNESSES]),
        "lint" => run(&[LINT]),
        "test" => run(&[TEST]),
        "examples" => run(&[EXAMPLES]),
        "api-check" => run(&[API_CHECK]),
        "perfbench" => run(&[PERFBENCH]),
        "bench-gate" => run(&[HARNESSES]),
        _ => {
            eprintln!(
                "usage: cargo xtask <task>\n\n\
                 tasks:\n\
                 \x20 ci          the full CI pipeline (lint + test + api-check + perfbench + examples + bench-gate)\n\
                 \x20 lint        clippy + rustfmt + rustdoc, all -D warnings\n\
                 \x20 test        release build + workspace tests\n\
                 \x20 api-check   typestate compile-fail doctests + API rustdoc -D warnings\n\
                 \x20 perfbench   the repository benchmark's tests + a checked 3 s run of each workload\n\
                 \x20 examples    run (not just compile) the smoke examples and the figures binary\n\
                 \x20 bench-gate  the planning/spatial/forecast/columnar harnesses, each enforcing its gate table"
            );
            ExitCode::FAILURE
        }
    }
}
