//! S4 — the live planning subsystem under day-ahead churn.
//!
//! Measures the three claims the `Planner` tentpole makes:
//!
//! * **incrementality** — after a full day-ahead plan over
//!   `config.offers` offers, a single-offer ingest must re-plan in a
//!   small fraction of the full-replan time (the `1/P` dirty-partition
//!   win; the CI gate demands ≥ 10×);
//! * **determinism** — the partitioned plan and the balance-view frame
//!   a session renders from it are bit-for-bit identical at every
//!   worker thread count (plan hashes and frame hashes compared across
//!   `config.threads`);
//! * **quality** — per-scheduler imbalance before/after over the same
//!   pool, so the "partition shares barely cost quality" claim stays a
//!   measured number instead of folklore;
//! * **bundling** — aggregate-then-schedule
//!   ([`BundleScheduler`]) against raw scheduling over
//!   the identical pool, single-partition/single-threaded so the ratio
//!   is purely algorithmic (the CI gate demands ≥ 5.76×), plus an exact
//!   round-trip check: every real offer must come back from
//!   disaggregation with a feasible schedule of its own.
//!
//! Everything is deterministic in the config seed. The `planning`
//! binary wraps this module for CI
//! (`cargo run --release -p mirabel-bench --bin planning`).

use std::sync::Arc;
use std::time::Instant;

use mirabel_aggregation::AggregationParams;
use mirabel_dw::LiveWarehouse;
use mirabel_flexoffer::{FlexOffer, FlexOfferId};
use mirabel_scheduling::{
    BundleScheduler, HillClimbScheduler, IncrementalPlanner, PlannerConfig, Scheduler,
    SchedulerKind,
};
use mirabel_session::{Command, ConcurrentPool, PlanningParams};
use mirabel_timeseries::{SlotSpan, TimeSeries, TimeSlot};
use mirabel_workload::curves::{base_load_curve, res_supply_curve};
use mirabel_workload::{
    generate_offer_pool, generate_offers, OfferConfig, Population, PopulationConfig,
};

use crate::diff::{Bound, Gate, Json};

/// The planning gate table (see [`crate::diff`]). Scheduler quality is a
/// pure function of the seed and is pinned exactly by this module's
/// tests; the re-plan latencies are reported, not gated.
pub const GATES: &[Gate] = &[
    Gate::holds("determinism_ok"),
    Gate::holds("frame_hash_stable"),
    Gate::holds("bundle_roundtrip_ok"),
    Gate::holds("bundle_replan_roundtrip_ok"),
    Gate::floor("incremental_speedup", Bound::Fixed(10.0)),
    // The bundling speedups are ratios of two timings taken on the same
    // host in the same run, so they hold on any runner. Each bar is 0.8x
    // the ratio once recorded at CI's flags on one core (7.2x, 6.8x).
    Gate::floor("bundle_speedup", Bound::Fixed(5.76)),
    Gate::floor("bundle_replan_speedup", Bound::Fixed(5.44)),
];

/// Shape of one planning bench run; `Default` is the CI configuration
/// (10 000 offers — the acceptance-criteria scale).
#[derive(Debug, Clone, PartialEq)]
pub struct PlanningConfig {
    /// Day-ahead offer pool size.
    pub offers: usize,
    /// Partition count `P` for the incremental planner.
    pub partitions: usize,
    /// Worker thread counts to cross-check determinism at (timings are
    /// reported per count too).
    pub threads: Vec<usize>,
    /// Prosumers in the generating population.
    pub prosumers: usize,
    /// Measurement rounds; the best round is reported (standard
    /// best-of-N damping for shared CI runners).
    pub repeats: usize,
    /// Master seed.
    pub seed: u64,
}

impl Default for PlanningConfig {
    fn default() -> Self {
        PlanningConfig {
            offers: 10_000,
            partitions: 64,
            threads: vec![1, 2, 4, 8],
            prosumers: 400,
            repeats: 3,
            seed: 0x91A7,
        }
    }
}

/// The planning window the pool lands in: one day after the history day.
fn window_start() -> TimeSlot {
    TimeSlot::EPOCH + SlotSpan::days(1)
}

/// Aggregation tolerances the bundling comparison runs under: one-hour
/// EST cells, two-hour TFT cells — coarse enough that a day-ahead pool
/// collapses into a few hundred surrogates, tight enough that the
/// disaggregated schedules stay close to what raw planning produces.
fn bundle_params() -> AggregationParams {
    AggregationParams::new(4, 8)
}

/// The shared fixture: a population, its accepted day-ahead pool, and a
/// realistic surplus target scaled to the pool's capacity.
fn fixture(config: &PlanningConfig) -> (Population, Vec<FlexOffer>, TimeSeries) {
    let population = Population::generate(&PopulationConfig {
        size: config.prosumers,
        seed: config.seed ^ 0xBEEF,
        household_share: 0.8,
    });
    let pool = generate_offer_pool(&population, config.offers, config.seed, window_start());
    // RES surplus over base load on an RES-rich day (share > 1 — the
    // regime where shifting flexible load matters), scaled so the pool
    // could in principle absorb it (otherwise every scheduler saturates
    // at max energy and the quality comparison degenerates).
    let res = res_supply_curve(window_start(), 1, config.prosumers, 1.3, config.seed);
    let base = base_load_curve(window_start(), 1, config.prosumers, config.seed);
    let raw = (&res - &base).clamp_non_negative();
    let capacity: f64 = pool.iter().map(|fo| fo.total_max_energy().kwh()).sum();
    let scale = if raw.sum() > 1e-9 { capacity * 0.6 / raw.sum() } else { 1.0 };
    (population, pool, raw.scale(scale))
}

fn planner_with(
    kind: SchedulerKind,
    config: &PlanningConfig,
    threads: usize,
    pool: &[FlexOffer],
    target: &TimeSeries,
) -> IncrementalPlanner<SchedulerKind> {
    let mut p = IncrementalPlanner::new(
        kind,
        PlannerConfig { partitions: config.partitions, threads, seed: config.seed },
        target.clone(),
    );
    p.insert(pool.iter().cloned());
    p
}

/// One extra accepted offer, id disjoint from the pool, for the
/// single-ingest probe (`round` varies the id so each repeat dirties a
/// fresh partition).
fn extra_offer(population: &Population, config: &PlanningConfig, round: u64) -> FlexOffer {
    let template = generate_offers(
        population,
        &OfferConfig { window_start: window_start(), days: 1, seed: config.seed ^ 0x5151 },
    )
    .into_iter()
    .next()
    .expect("population generates offers");
    let mut fo = template.with_id(FlexOfferId(90_000_000 + round));
    fo.accept().expect("generated offers are Offered");
    fo
}

/// Each scheduler's imbalance before and after one single-threaded,
/// partitioned plan of `pool` against `target`.
fn scheduler_quality(config: &PlanningConfig, pool: &[FlexOffer], target: &TimeSeries) -> Json {
    let schedulers = SchedulerKind::ALL.into_iter().map(|kind| {
        let mut p = planner_with(kind, config, 1, pool, target);
        let out = p.full_replan().expect("quality replan");
        let (before, after) = (&out.report.before, &out.report.after);
        Json::obj([
            ("name", kind.name().into()),
            ("before_l1", Json::Num(before.l1)),
            ("after_l1", Json::Num(after.l1)),
            // The scheduling objective, the one hill-climb is monotone in.
            ("after_l2_sq", Json::Num(after.l2_sq)),
            ("improvement", Json::Num(mirabel_scheduling::Imbalance::improvement(before, after))),
        ])
    });
    Json::Arr(schedulers.collect())
}

/// Runs the full harness; returns the `BENCH_planning.json` report.
pub fn run_planning(config: &PlanningConfig) -> Json {
    let (population, pool, target) = fixture(config);
    let repeats = config.repeats.max(1);

    // 1. Full vs incremental re-plan, single-threaded (the pure
    //    algorithmic ratio, uncontaminated by parallel speedup).
    let mut full_ms = f64::INFINITY;
    for _ in 0..repeats {
        let mut p = planner_with(SchedulerKind::Greedy, config, 1, &pool, &target);
        let t0 = Instant::now();
        p.full_replan().expect("full replan");
        full_ms = full_ms.min(t0.elapsed().as_secs_f64() * 1e3);
    }
    let mut incremental_ms = f64::INFINITY;
    let mut standing = planner_with(SchedulerKind::Greedy, config, 1, &pool, &target);
    standing.full_replan().expect("full replan");
    for round in 0..repeats {
        standing.insert([extra_offer(&population, config, round as u64)]);
        let t0 = Instant::now();
        let out = standing.replan().expect("incremental replan");
        incremental_ms = incremental_ms.min(t0.elapsed().as_secs_f64() * 1e3);
        assert_eq!(out.replanned, 1, "single ingest must dirty one partition");
    }

    // 2. Determinism across thread counts: plan hashes...
    let mut determinism_ok = true;
    let mut reference_hash = None;
    let mut runs = Vec::new();
    for &threads in &config.threads {
        let mut best = f64::INFINITY;
        for _ in 0..repeats {
            let mut p = planner_with(SchedulerKind::Greedy, config, threads.max(1), &pool, &target);
            let t0 = Instant::now();
            p.full_replan().expect("full replan");
            best = best.min(t0.elapsed().as_secs_f64() * 1e3);
            match reference_hash {
                None => reference_hash = Some(p.plan_hash()),
                Some(r) => determinism_ok &= r == p.plan_hash(),
            }
        }
        runs.push(Json::obj([("threads", threads.into()), ("full_replan_ms", Json::Num(best))]));
    }

    // 3. ...and balance-view frame hashes through the full serving
    //    stack: warehouse → session → Command::Plan → rendered frame.
    let history = generate_offers(
        &population,
        &OfferConfig { days: 1, seed: config.seed ^ 0x715, ..Default::default() },
    );
    let live = LiveWarehouse::new(population.clone(), &history);
    live.ingest(&pool);
    let snapshot = live.publish();
    let mut frame_hash_stable = true;
    let mut reference_frame = None;
    for &threads in &config.threads {
        let pool_srv = ConcurrentPool::new(Arc::clone(snapshot.warehouse()));
        let id = pool_srv.open();
        pool_srv.apply(
            id,
            Command::SetPlanningParams(PlanningParams {
                partitions: config.partitions,
                threads: threads.max(1),
                seed: config.seed,
                ..Default::default()
            }),
        );
        let planned = pool_srv.apply(id, Command::Plan).expect("session open");
        let hash = pool_srv
            .apply(id, Command::Render)
            .and_then(|o| o.frame_hash())
            .unwrap_or_else(|| panic!("plan rejected: {planned:?}"));
        match reference_frame {
            None => reference_frame = Some(hash),
            Some(r) => frame_hash_stable &= r == hash,
        }
    }

    // 4. Per-scheduler quality over the identical pool + target.
    let schedulers = scheduler_quality(config, &pool, &target);

    // 5. Aggregate-then-schedule vs raw, over the identical pool at one
    //    partition / one thread. Partitioning deliberately spreads
    //    similar offers across partitions (that is what makes partition
    //    shares balanced), which starves the aggregator of merge
    //    candidates — so the faithful comparison of the two pipelines
    //    runs unpartitioned, exactly like the incremental ratio in
    //    section 1 runs unthreaded.
    //
    //    Both sides run the *same* scheduler: hill-climb with a move
    //    budget proportional to its input (each scheduled unit gets the
    //    same number of re-planning chances). That per-unit budget is
    //    what makes the comparison meaningful — the paper's argument for
    //    aggregation is that scheduling effort scales with the number of
    //    units, so collapsing 10k offers into a few hundred surrogates
    //    shrinks the optimization itself, not just bookkeeping. A
    //    fixed-budget scheduler would hide exactly the effect the
    //    pipeline exists to exploit.
    let single = || PlannerConfig { partitions: 1, threads: 1, seed: config.seed };
    let climber = HillClimbScheduler::per_offer(6, config.seed ^ 0xB17);
    //
    // 6. Bundle-aware incremental replanning: a *standing* bundled
    //    planner re-plans after single-offer churn. The BundleScheduler
    //    keeps a per-(seed, target) grid of (direction, EST, TFT) cells
    //    across calls, so a warm replan re-groups and re-schedules only
    //    the churned cell against the residual target — measured against
    //    the cold full-pipeline re-group (`bundled_replan_ms`), which
    //    rebuilds and re-plans every cell from scratch.
    //
    // Each of the three timings is the best of max(repeats, 20) rounds,
    // taken in alternating blocks of five: every pipeline is timed after
    // rounds of its own (interleaved one by one, a bundled plan inherits
    // the raw plan's caches and reads slower), and all three sample the
    // same stretches of a shared host (timed as one block each, a single
    // slow stretch sank a whole ~50 ms bundled block).
    const BLOCK: usize = 5;
    let mut standing = IncrementalPlanner::new(
        BundleScheduler::new(climber, bundle_params()),
        single(),
        target.clone(),
    );
    standing.insert(pool.iter().cloned());
    standing.full_replan().expect("warming bundled replan");
    let mut bundle_raw_ms = f64::INFINITY;
    let mut bundled_replan_ms = f64::INFINITY;
    let mut cell_replan_ms = f64::INFINITY;
    let mut bundle_roundtrip_ok = true;
    let mut bundle_replan_roundtrip_ok = true;
    let mut churned = 0;
    for _ in 0..repeats.max(20).div_ceil(BLOCK) {
        for _ in 0..BLOCK {
            let mut p = IncrementalPlanner::new(climber, single(), target.clone());
            p.insert(pool.iter().cloned());
            let t0 = Instant::now();
            p.full_replan().expect("raw replan");
            bundle_raw_ms = bundle_raw_ms.min(t0.elapsed().as_secs_f64() * 1e3);
        }
        for _ in 0..BLOCK {
            let mut p = IncrementalPlanner::new(
                BundleScheduler::new(climber, bundle_params()),
                single(),
                target.clone(),
            );
            p.insert(pool.iter().cloned());
            let t0 = Instant::now();
            let out = p.full_replan().expect("bundled replan");
            bundled_replan_ms = bundled_replan_ms.min(t0.elapsed().as_secs_f64() * 1e3);
            bundle_roundtrip_ok &= out.report.assigned == pool.len();
            bundle_roundtrip_ok &= p
                .offers()
                .iter()
                .all(|fo| fo.schedule().is_some_and(|s| fo.check_schedule(s).is_ok()));
        }
        for _ in 0..BLOCK {
            standing.insert([extra_offer(&population, config, 1_000 + churned as u64)]);
            churned += 1;
            let t0 = Instant::now();
            let out = standing.replan().expect("cell replan");
            cell_replan_ms = cell_replan_ms.min(t0.elapsed().as_secs_f64() * 1e3);
            assert_eq!(out.replanned, 1, "single ingest must dirty one partition");
            bundle_replan_roundtrip_ok &= out.report.assigned == pool.len() + churned;
            bundle_replan_roundtrip_ok &= standing
                .offers()
                .iter()
                .all(|fo| fo.schedule().is_some_and(|s| fo.check_schedule(s).is_ok()));
        }
    }

    Json::obj([
        ("bench", "planning".into()),
        ("offers", config.offers.into()),
        ("partitions", config.partitions.into()),
        ("prosumers", config.prosumers.into()),
        ("repeats", repeats.into()),
        ("seed", config.seed.into()),
        ("available_parallelism", crate::available_parallelism().into()),
        // Single-threaded full vs single-offer incremental re-plan.
        ("full_replan_ms", Json::Num(full_ms)),
        ("incremental_replan_ms", Json::Num(incremental_ms)),
        ("incremental_speedup", Json::Num(crate::ratio(full_ms, incremental_ms))),
        // Plan hashes and balance-view frame hashes across thread counts.
        ("determinism_ok", determinism_ok.into()),
        ("frame_hash_stable", frame_hash_stable.into()),
        // Raw vs bundled full plan at one partition / one thread; the
        // round trip left every real offer feasibly scheduled.
        ("bundle_raw_ms", Json::Num(bundle_raw_ms)),
        ("bundled_replan_ms", Json::Num(bundled_replan_ms)),
        ("bundle_speedup", Json::Num(crate::ratio(bundle_raw_ms, bundled_replan_ms))),
        ("bundle_roundtrip_ok", bundle_roundtrip_ok.into()),
        // Warm single-cell re-plan after churn vs the cold re-group,
        // round trip preserved through plan reuse.
        ("cell_replan_ms", Json::Num(cell_replan_ms)),
        ("bundle_replan_speedup", Json::Num(crate::ratio(bundled_replan_ms, cell_replan_ms))),
        ("bundle_replan_roundtrip_ok", bundle_replan_roundtrip_ok.into()),
        ("runs", Json::Arr(runs)),
        ("schedulers", schedulers),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> PlanningConfig {
        PlanningConfig {
            offers: 600,
            partitions: 16,
            threads: vec![1, 2],
            prosumers: 60,
            repeats: 1,
            seed: 11,
        }
    }

    #[test]
    fn harness_reports_consistent_gates() {
        let report = run_planning(&tiny());
        let num = |key| report.num_at(&[key]).unwrap();
        assert!(report.is_true("determinism_ok"), "plan hashes diverged across threads");
        assert!(report.is_true("frame_hash_stable"), "frame hashes diverged across threads");
        assert!(num("full_replan_ms") > 0.0 && num("incremental_replan_ms") > 0.0);
        assert!(num("incremental_speedup") > 1.0, "incremental must beat full: {report}");
        assert_eq!(report.get("runs").and_then(Json::arr).map(<[_]>::len), Some(2));
        let schedulers = report.get("schedulers").and_then(Json::arr).unwrap();
        assert_eq!(schedulers.len(), 4);
        // Greedy must beat both baselines on the shared pool (in the
        // L2² objective every scheduler minimises).
        let after = |name: &str| {
            let named = |s: &&Json| matches!(s.get("name"), Some(Json::Str(n)) if n.contains(name));
            schedulers.iter().find(named).and_then(|s| s.num_at(&["after_l2_sq"])).expect(name)
        };
        assert!(after("greedy") < after("earliest"));
        assert!(after("greedy") < after("random"));
        // Hill-climb is monotone only against its own per-partition
        // share objective — globally the cross-partition terms can move
        // either way — but it must still clearly beat the baselines.
        assert!(after("hill-climb") < after("earliest"));
        assert!(after("hill-climb") < after("random"));
        // Quality is a pure function of the seed: pinned at this 600-offer
        // pool and at CI's 10 000-offer one, which needs none of the
        // timing probes.
        crate::diff::assert_pinned(
            &report,
            r#"{"schedulers": [
                {"name": "earliest-start", "before_l1": 12299.6, "after_l1": 9360.61,
                 "after_l2_sq": 1661866, "improvement": 0.238948},
                {"name": "random", "before_l1": 12299.6, "after_l1": 9726,
                 "after_l2_sq": 1493931, "improvement": 0.20924},
                {"name": "greedy-best-start", "before_l1": 12299.6, "after_l1": 6525.03,
                 "after_l2_sq": 794688, "improvement": 0.469491},
                {"name": "hill-climb", "before_l1": 12299.6, "after_l1": 7428.51,
                 "after_l2_sq": 1018998, "improvement": 0.396035}
            ]}"#,
        );
        let ci = PlanningConfig::default();
        let (_, pool, target) = fixture(&ci);
        let quality = Json::obj([("schedulers", scheduler_quality(&ci, &pool, &target))]);
        crate::diff::assert_pinned(
            &quality,
            r#"{"schedulers": [
                {"name": "earliest-start", "before_l1": 210116, "after_l1": 210586,
                 "after_l2_sq": 1175575682, "improvement": -0.00223873},
                {"name": "random", "before_l1": 210116, "after_l1": 211096,
                 "after_l2_sq": 900030177, "improvement": -0.00466267},
                {"name": "greedy-best-start", "before_l1": 210116, "after_l1": 132455,
                 "after_l2_sq": 370272050, "improvement": 0.369612},
                {"name": "hill-climb", "before_l1": 210116, "after_l1": 134791,
                 "after_l2_sq": 385981246, "improvement": 0.358493}
            ]}"#,
        );

        assert!(report.is_true("bundle_roundtrip_ok"), "bundle round trip left offers unscheduled");
        assert!(num("bundle_raw_ms") > 0.0 && num("bundled_replan_ms") > 0.0);
        assert!(num("bundle_speedup") > 0.0);

        assert!(
            report.is_true("bundle_replan_roundtrip_ok"),
            "warm cell replan left offers without feasible schedules"
        );
        assert!(num("cell_replan_ms") > 0.0);
        assert!(num("bundle_replan_speedup") > 0.0);
        assert!(
            num("cell_replan_ms") <= num("bundled_replan_ms"),
            "single-cell churn must not exceed a cold full re-group: {report}"
        );
        crate::diff::assert_binary_rows_resolve(GATES, &report);
    }
}
