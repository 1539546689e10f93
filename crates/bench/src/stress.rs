//! The concurrent-serving stress harness.
//!
//! Binds the abstract analyst traces of [`mirabel_workload::trace`] to
//! concrete session [`Command`]s, replays K users × M commands over a
//! [`ConcurrentPool`] at several thread counts, and reports throughput
//! (commands/s), p50/p99 latency, and speedup versus the single-thread
//! run — while asserting the serving layer's core promise: **frame
//! hashes are identical at every thread count**, so concurrency never
//! changes what a user sees. A hover probe ([`hover_probe`]) adds the
//! session engine's interactivity claim: a pointer event over a warm
//! frame cache is at least 10× cheaper than a full scene rebuild.
//!
//! Everything is deterministic in the config seed: user `u` receives
//! the same command stream in every run, threads only change which OS
//! thread delivers it. The `stress` binary wraps this module for CI
//! (`cargo run --release -p mirabel-bench --bin stress`).

use std::sync::Arc;
use std::time::Instant;

use mirabel_dw::{LoaderQuery, Warehouse};
use mirabel_session::{Command, ConcurrentPool, Session, SessionId, ViewMode};
use mirabel_timeseries::{Granularity, TimeSlot};
use mirabel_viz::Point;
use mirabel_workload::{generate_traces, InteractionStep, TraceConfig};

use crate::diff::{Bound, Gate, Json, Policy};

/// The stress gate table (see [`crate::diff`]). Throughput and command
/// tails are reported, not gated.
pub const GATES: &[Gate] = &[
    Gate::holds("determinism_ok"),
    // 4 threads at least 2x one thread, where 4 cores exist to show it.
    Gate::floor("runs[threads=4].speedup_vs_1", Bound::Fixed(2.0)).policy(Policy::Cores),
    // The session engine's interactivity claim: hovering a warm frame is
    // at least 10x cheaper than rebuilding the scene per event.
    Gate::floor("hover_speedup", Bound::Fixed(10.0)),
];

/// Canvas the simulated analysts work on.
const CANVAS: (f64, f64) = (960.0, 540.0);

/// Canned MDX queries for [`InteractionStep::MdxQuery`] — a mix of
/// cheap and grouping-heavy pivots, all valid against the warehouse.
const MDX_QUERIES: &[&str] = &[
    "SELECT { [Time].Children } ON COLUMNS FROM [FlexOffers]",
    "SELECT { [Geography].Children } ON COLUMNS FROM [FlexOffers]",
    "SELECT { [Time].Children } ON COLUMNS, { [Geography].Children } ON ROWS FROM [FlexOffers]",
    "SELECT { [EnergyType].Children } ON COLUMNS FROM [FlexOffers]",
    "SELECT { [Prosumer].Children } ON COLUMNS, { [Time].Children } ON ROWS FROM [FlexOffers]",
    "SELECT { [Appliance].Children } ON COLUMNS, { [Grid].Children } ON ROWS FROM [FlexOffers]",
];

/// Shape of one stress run; `Default` is the CI smoke configuration.
#[derive(Debug, Clone, PartialEq)]
pub struct StressConfig {
    /// Concurrent users (K).
    pub users: usize,
    /// Commands replayed per user (M).
    pub commands_per_user: usize,
    /// Thread counts to replay at; must include 1 for the speedup base.
    pub threads: Vec<usize>,
    /// Master seed for the traces.
    pub seed: u64,
    /// Prosumers in the shared warehouse.
    pub prosumers: usize,
    /// Days of offers in the shared warehouse.
    pub days: usize,
    /// Measurement rounds per thread count. Throughput and p50 report
    /// the best round (best-of-N noise damping); the p99 is the trimmed
    /// tail mean across rounds ([`crate::trimmed_tail_mean`]).
    /// Determinism is checked on *every* round.
    pub repeats: usize,
}

impl Default for StressConfig {
    fn default() -> Self {
        StressConfig {
            users: 8,
            commands_per_user: 300,
            threads: vec![1, 2, 4, 8],
            seed: 0x57E5,
            prosumers: 200,
            days: 1,
            repeats: 4,
        }
    }
}

/// Measured results of one thread count.
#[derive(Debug, Clone, PartialEq)]
struct RunStats {
    /// OS threads driving the pool.
    pub threads: usize,
    /// Total commands applied.
    pub commands: u64,
    /// Wall-clock duration of the replay, seconds.
    pub wall_s: f64,
    /// Commands per second.
    pub commands_per_s: f64,
    /// Median per-command latency, microseconds (best round).
    pub p50_us: f64,
    /// 99th-percentile per-command latency, microseconds — the trimmed
    /// tail mean across the config's repeat rounds (see
    /// [`crate::trimmed_tail_mean`]).
    pub p99_us: f64,
    /// Throughput relative to the baseline run: the 1-thread run when
    /// measured, else the smallest thread count (recorded as the
    /// report's `baseline_threads`).
    pub speedup_vs_1: f64,
}

/// Expands one abstract interaction step into engine commands. Shared
/// with the net harness (`crate::net`), which binds the same
/// interaction vocabulary over TCP.
pub(crate) fn bind_step(
    step: &InteractionStep,
    window_slots: i64,
    user: usize,
    seq: usize,
) -> Vec<Command> {
    let px = |(x, y): (f64, f64)| Point::new(x * CANVAS.0, y * CANVAS.1);
    match step {
        InteractionStep::HoverStorm { points } => {
            points.iter().map(|&p| Command::PointerMove(px(p))).collect()
        }
        InteractionStep::Click { x, y } => vec![Command::Click(px((*x, *y)))],
        InteractionStep::Drag { from, to } => {
            vec![Command::DragStart(px(*from)), Command::DragEnd(px(*to))]
        }
        InteractionStep::TabSwitch { slot } => vec![Command::ActivateTab(*slot)],
        InteractionStep::ToggleMode => {
            // Deterministic alternation: even sequence numbers go basic.
            let mode = if seq.is_multiple_of(2) { ViewMode::Basic } else { ViewMode::Profile };
            vec![Command::SetMode(mode)]
        }
        InteractionStep::MdxQuery { idx } => {
            vec![Command::Mdx(MDX_QUERIES[idx % MDX_QUERIES.len()].to_string())]
        }
        InteractionStep::DashboardRender { day } => {
            let from = TimeSlot::new((day % 4) as i64 * 96);
            vec![Command::Dashboard {
                from,
                to: TimeSlot::new(from.index() + 96),
                granularity: Granularity::Hour,
            }]
        }
        InteractionStep::LoadWindow { lo, hi } => {
            let a = (lo * window_slots as f64) as i64;
            let b = ((hi * window_slots as f64) as i64).max(a + 1);
            vec![Command::Load {
                query: LoaderQuery::builder().window(TimeSlot::new(a), TimeSlot::new(b)).build(),
                title: format!("u{user} s{seq}"),
            }]
        }
        InteractionStep::Aggregate { est, tft } => vec![
            Command::SetAggregationParams(mirabel_aggregation::AggregationParams::new(*est, *tft)),
            Command::Aggregate,
        ],
        InteractionStep::Render => vec![Command::Render],
    }
}

/// Builds the per-user command streams: exactly
/// `config.commands_per_user` commands each, deterministic in the seed.
pub fn build_traces(config: &StressConfig) -> Vec<Vec<Command>> {
    // Generate more steps than needed and trim at the command level so
    // every user gets exactly M commands.
    let window_slots = (config.days.max(1) as i64) * 96;
    let trace_cfg = TraceConfig {
        users: config.users,
        // A step averages ~3 commands (hover storms dominate); generate
        // a comfortable surplus, then truncate.
        steps_per_user: config.commands_per_user.max(4),
        seed: config.seed,
    };
    generate_traces(&trace_cfg)
        .iter()
        .map(|trace| {
            let mut commands = Vec::with_capacity(config.commands_per_user + 8);
            // Fixed prologue: a canvas and a full-window tab, so every
            // stream has something to hover over from command one.
            commands.push(Command::SetCanvas { width: CANVAS.0, height: CANVAS.1 });
            commands.push(Command::Load {
                query: LoaderQuery::builder()
                    .window(TimeSlot::new(0), TimeSlot::new(window_slots))
                    .build(),
                title: format!("u{} main", trace.user),
            });
            'outer: loop {
                for (seq, step) in trace.steps.iter().enumerate() {
                    for cmd in bind_step(step, window_slots, trace.user, seq) {
                        commands.push(cmd);
                        if commands.len() >= config.commands_per_user {
                            break 'outer;
                        }
                    }
                }
                // Steps exhausted below M (tiny configs): cycle them.
            }
            commands.truncate(config.commands_per_user);
            commands
        })
        .collect()
}

/// Per-user frame hashes after a replay — the observable state the
/// determinism check compares across thread counts.
type UserHashes = Vec<Vec<u64>>;

/// Replays the given per-user streams over a fresh [`ConcurrentPool`]
/// with `threads` OS threads (users are partitioned round-robin).
/// Returns the run's latencies (ns, unsorted), wall time, and the
/// per-user frame hashes.
fn replay(
    warehouse: &Arc<mirabel_dw::Warehouse>,
    traces: &[Vec<Command>],
    threads: usize,
) -> (Vec<u64>, f64, UserHashes) {
    let pool = ConcurrentPool::new(Arc::clone(warehouse));
    // Open on the coordinating thread so user → id is deterministic.
    let ids: Vec<SessionId> = traces.iter().map(|_| pool.open()).collect();

    let started = Instant::now();
    let mut lat_per_thread: Vec<Vec<u64>> = Vec::new();
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..threads)
            .map(|t| {
                let pool = &pool;
                let ids = &ids;
                scope.spawn(move || {
                    let mut lat = Vec::new();
                    // Interleave this thread's users command-by-command:
                    // closer to real serving than replaying user after
                    // user, and it keeps all users live for the whole
                    // run.
                    let mine: Vec<usize> = (0..traces.len()).filter(|u| u % threads == t).collect();
                    lat.reserve(mine.iter().map(|&u| traces[u].len()).sum());
                    let longest = mine.iter().map(|&u| traces[u].len()).max().unwrap_or(0);
                    for j in 0..longest {
                        for &u in &mine {
                            let Some(cmd) = traces[u].get(j) else { continue };
                            let t0 = Instant::now();
                            let outcome = pool.apply(ids[u], cmd.clone());
                            lat.push(t0.elapsed().as_nanos() as u64);
                            assert!(outcome.is_some(), "session {u} vanished mid-replay");
                        }
                    }
                    lat
                })
            })
            .collect();
        for h in handles {
            lat_per_thread.push(h.join().expect("stress worker panicked"));
        }
    });
    let wall_s = started.elapsed().as_secs_f64();

    let hashes: UserHashes = ids
        .iter()
        .map(|&id| pool.with_session(id, |s| s.frame_hashes()).expect("session still open"))
        .collect();
    (lat_per_thread.into_iter().flatten().collect(), wall_s, hashes)
}

/// Pointer events in the warm and the cold hover storm (cold rebuilds
/// are slow, so that run is kept short).
const HOVER_EVENTS: (usize, usize) = (10_000, 300);

/// The hover probe: ns per pointer event over a full-window tab, once
/// against a warm frame cache and once paying a full scene rebuild per
/// event (the pre-session behaviour, reproduced by invalidating the
/// cache before each event). Returns `(warm_ns, cold_ns)`.
pub fn hover_probe(warehouse: &Arc<Warehouse>) -> (f64, f64) {
    let storm = |n: usize| -> Vec<Point> {
        (0..n)
            .map(|i| {
                let k = (i as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15);
                Point::new((k % 960) as f64, ((k >> 32) % 540) as f64)
            })
            .collect()
    };
    let ns_per_event = |warm: bool, events: &[Point]| {
        let mut session = Session::new(Arc::clone(warehouse));
        let everything =
            LoaderQuery::builder().window(TimeSlot::new(-100_000), TimeSlot::new(100_000)).build();
        session.handle(Command::Load { query: everything, title: "hover".into() });
        session.handle(Command::Render);
        let built = session.frames_built();
        let t0 = Instant::now();
        for &p in events {
            if !warm {
                session.active_tab_mut(); // invalidates the cached frame
            }
            session.handle(Command::PointerMove(p));
        }
        let ns = t0.elapsed().as_nanos() as f64 / events.len() as f64;
        let rebuilt = session.frames_built() - built;
        assert_eq!(rebuilt as usize, if warm { 0 } else { events.len() }, "warm: {warm}");
        ns
    };
    (ns_per_event(true, &storm(HOVER_EVENTS.0)), ns_per_event(false, &storm(HOVER_EVENTS.1)))
}

/// Runs the full harness: builds the warehouse and traces, replays at
/// every configured thread count, cross-checks frame hashes, and probes
/// hover latency; returns the `BENCH_stress.json` report.
pub fn run_stress(config: &StressConfig) -> Json {
    let (_, dw) = crate::warehouse(config.prosumers, config.days);
    let warehouse = Arc::new(dw);
    let offers = warehouse.offers().len();
    let traces = build_traces(config);

    let mut runs = Vec::new();
    let mut reference: Option<UserHashes> = None;
    let mut determinism_ok = true;
    for &threads in &config.threads {
        // Best-of-N for throughput/p50 (damps noisy-neighbor variance
        // on shared CI runners); the p99 is the trimmed tail mean
        // across rounds, so one spiky round cannot move it but a tail
        // every kept round agrees on still does.
        // Determinism is asserted on every round, not just the kept one.
        let mut best: Option<RunStats> = None;
        let mut round_p99s = Vec::with_capacity(config.repeats.max(1));
        for _ in 0..config.repeats.max(1) {
            let (mut lat, wall_s, hashes) = replay(&warehouse, &traces, threads.max(1));
            match &reference {
                None => reference = Some(hashes),
                Some(r) => determinism_ok &= *r == hashes,
            }
            lat.sort_unstable();
            round_p99s.push(crate::percentile_us(&lat, 0.99));
            let commands = lat.len() as u64;
            let round = RunStats {
                threads,
                commands,
                wall_s,
                commands_per_s: commands as f64 / wall_s,
                p50_us: crate::percentile_us(&lat, 0.50),
                p99_us: 0.0, // filled from the trimmed mean below
                speedup_vs_1: 1.0,
            };
            if best.as_ref().is_none_or(|b| round.commands_per_s > b.commands_per_s) {
                best = Some(round);
            }
        }
        let mut best = best.expect("repeats >= 1");
        best.p99_us = crate::trimmed_tail_mean(&round_p99s);
        runs.push(best);
    }
    // Speedups are relative to the 1-thread run wherever it sits in
    // `config.threads`; a config without one falls back to its smallest
    // thread count, and the report records which baseline was used.
    let baseline_run =
        runs.iter().find(|r| r.threads == 1).or_else(|| runs.iter().min_by_key(|r| r.threads));
    let baseline_threads = baseline_run.map_or(1, |r| r.threads);
    let baseline = baseline_run.map_or(1.0, |r| r.commands_per_s);
    for r in &mut runs {
        r.speedup_vs_1 = r.commands_per_s / baseline;
    }

    let runs = runs.iter().map(|r| {
        Json::obj([
            ("threads", r.threads.into()),
            ("commands", r.commands.into()),
            ("wall_s", Json::Num(r.wall_s)),
            ("commands_per_s", Json::Num(r.commands_per_s)),
            ("p50_us", Json::Num(r.p50_us)),
            ("p99_us", Json::Num(r.p99_us)),
            ("speedup_vs_1", Json::Num(r.speedup_vs_1)),
        ])
    });
    let (hover_warm_ns, hover_cold_ns) = hover_probe(&warehouse);
    Json::obj([
        ("bench", "stress".into()),
        ("users", config.users.into()),
        ("commands_per_user", config.commands_per_user.into()),
        ("seed", config.seed.into()),
        ("prosumers", config.prosumers.into()),
        ("days", config.days.into()),
        ("offers", offers.into()),
        ("available_parallelism", crate::available_parallelism().into()),
        ("repeats", config.repeats.max(1).into()),
        ("baseline_threads", baseline_threads.into()),
        // Every run produced identical per-user frame hashes.
        ("determinism_ok", determinism_ok.into()),
        ("hover_warm_ns", Json::Num(hover_warm_ns)),
        ("hover_cold_ns", Json::Num(hover_cold_ns)),
        ("hover_speedup", Json::Num(hover_cold_ns / hover_warm_ns)),
        ("runs", Json::Arr(runs.collect())),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> StressConfig {
        StressConfig {
            users: 3,
            commands_per_user: 40,
            threads: vec![1, 2],
            seed: 7,
            prosumers: 40,
            days: 1,
            repeats: 1,
        }
    }

    #[test]
    fn traces_have_exactly_m_commands_and_are_deterministic() {
        let cfg = tiny();
        let a = build_traces(&cfg);
        let b = build_traces(&cfg);
        assert_eq!(a, b);
        assert_eq!(a.len(), 3);
        for t in &a {
            assert_eq!(t.len(), 40);
            assert!(matches!(t[0], Command::SetCanvas { .. }));
            assert!(matches!(t[1], Command::Load { .. }));
        }
        // Users do not share a stream.
        assert_ne!(a[0], a[1]);
    }

    /// The run at `threads` in a report.
    fn run_at(report: &Json, threads: usize) -> &Json {
        report
            .get("runs")
            .and_then(Json::arr)
            .unwrap()
            .iter()
            .find(|r| r.num_at(&["threads"]) == Some(threads as f64))
            .expect("measured thread count")
    }

    #[test]
    fn stress_smoke_is_deterministic_across_thread_counts() {
        let report = run_stress(&tiny());
        assert!(report.is_true("determinism_ok"), "frame hashes diverged across thread counts");
        assert_eq!(report.get("runs").and_then(Json::arr).map(<[_]>::len), Some(2));
        assert_eq!(run_at(&report, 1).num_at(&["commands"]), Some(3.0 * 40.0));
        assert_eq!(run_at(&report, 1).num_at(&["speedup_vs_1"]), Some(1.0));
        assert_eq!(report.num_at(&["baseline_threads"]), Some(1.0));
        let hover = |key| report.num_at(&[key]).unwrap();
        assert!(hover("hover_cold_ns") > hover("hover_warm_ns"), "{report}");
    }

    #[test]
    fn determinism_is_checked_on_every_repeat_round() {
        let report = run_stress(&StressConfig { repeats: 2, ..tiny() });
        assert!(report.is_true("determinism_ok"));
        assert_eq!(report.num_at(&["baseline_threads"]), Some(1.0));
    }

    #[test]
    fn missing_1_thread_run_is_recorded_as_a_different_baseline() {
        let report = run_stress(&StressConfig { threads: vec![2, 4], ..tiny() });
        assert_eq!(report.num_at(&["baseline_threads"]), Some(2.0));
        assert_eq!(run_at(&report, 2).num_at(&["speedup_vs_1"]), Some(1.0));
        // A 4-thread run is present, so every row the binary checks
        // resolves in the report.
        crate::diff::assert_binary_rows_resolve(GATES, &report);
    }

    #[test]
    fn speedup_baseline_is_the_1_thread_run_regardless_of_order() {
        // `--threads 2,1`: the baseline must still be the 1-thread run,
        // not whichever run happens to come first.
        let report = run_stress(&StressConfig { threads: vec![2, 1], ..tiny() });
        let (one, two) = (run_at(&report, 1), run_at(&report, 2));
        assert_eq!(one.num_at(&["speedup_vs_1"]), Some(1.0), "{report}");
        let cps = |run: &Json| run.num_at(&["commands_per_s"]).unwrap();
        let speedup = two.num_at(&["speedup_vs_1"]).unwrap();
        assert!((speedup - cps(two) / cps(one)).abs() < 1e-9, "{report}");
    }
}
