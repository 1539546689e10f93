//! S5 — the spatial dimension at city scale.
//!
//! Measures the three claims the spatial tentpole makes:
//!
//! * **O(region) queries** — a region-scoped loader query
//!   ([`LoaderQuery::for_region`]) must answer from the per-region fact
//!   index in time proportional to the subtree, not the warehouse: every
//!   geography member is probed through both the indexed loader and the
//!   reference full scan, the results must match exactly, and the
//!   aggregate speedup is the headline gate (the CI bound is ≥ 10× at a
//!   million facts);
//! * **heatmap determinism** — replaying seeded region-scoped drill
//!   traces ([`mirabel_workload::spatial`]) through full serving
//!   sessions must produce bit-identical frame hashes at every planner
//!   worker thread count;
//! * **live publish** — ingesting a 1 000-offer batch into a live
//!   warehouse already holding the full city-scale fact table and
//!   publishing the next epoch (spatial index maintained incrementally,
//!   never rebuilt) must stay within the interactive bound (the CI
//!   probe is < 100 ms).
//!
//! Everything is deterministic in the config seed. The `spatial` binary
//! wraps this module for CI
//! (`cargo run --release -p mirabel-bench --bin spatial`).

use std::collections::BTreeSet;
use std::sync::Arc;
use std::time::Instant;

use mirabel_dw::{Dimension, LiveWarehouse, LoaderQuery, MemberId, Warehouse};
use mirabel_flexoffer::{FlexOffer, FlexOfferId};
use mirabel_session::{Command, ConcurrentPool, PlanningParams};
use mirabel_viz::Point;
use mirabel_workload::{
    generate_spatial_scenario, generate_spatial_traces, SpatialConfig, SpatialStep,
    SpatialTraceConfig,
};

use crate::diff::{Bound, Gate, Json};

/// The spatial gate table (see [`crate::diff`]).
pub const GATES: &[Gate] = &[
    Gate::holds("results_match"),
    Gate::holds("frame_hash_stable"),
    // The run's own scale floor and publish bound, so the headline gate
    // cannot quietly run at toy size.
    Gate::floor("facts", Bound::Field("min_facts")),
    // Indexed vs scan on the same host in the same run: a 1-core runner
    // proves the O(region) claim as well as any.
    Gate::floor("query_speedup", Bound::Fixed(10.0)),
    Gate::bound("publish_ms", Bound::Field("publish_bound_ms")),
];

/// Shape of one spatial bench run; `Default` is the CI configuration
/// (530 000 prosumers ≈ 1.02 M facts — the acceptance-criteria scale).
#[derive(Debug, Clone, PartialEq)]
pub struct SpatialBenchConfig {
    /// Prosumers in the city-scale population.
    pub prosumers: usize,
    /// Days of offers (~2 offers per prosumer per day).
    pub days: usize,
    /// City-weight exponent (see [`SpatialConfig::density_skew`]).
    pub density_skew: f64,
    /// Planner worker thread counts to cross-check heatmap frame
    /// hashes at.
    pub threads: Vec<usize>,
    /// Measurement rounds; the best round is reported (standard
    /// best-of-N damping for shared CI runners).
    pub repeats: usize,
    /// Analysts in the drill-trace determinism fixture.
    pub trace_users: usize,
    /// Steps per analyst in the drill-trace determinism fixture.
    pub trace_steps: usize,
    /// Prosumers in the (smaller) drill-trace fixture — the traces
    /// re-plan repeatedly, which would be wasteful at the full query
    /// scale without measuring anything extra.
    pub trace_prosumers: usize,
    /// Master seed.
    pub seed: u64,
    /// Facts the run must reach (its scale floor).
    pub min_facts: usize,
    /// Bound on the full-scale publish latency, milliseconds.
    pub publish_bound_ms: f64,
}

impl Default for SpatialBenchConfig {
    fn default() -> Self {
        SpatialBenchConfig {
            prosumers: 530_000,
            days: 1,
            density_skew: 1.5,
            threads: vec![1, 2, 4, 8],
            repeats: 3,
            trace_users: 4,
            trace_steps: 32,
            trace_prosumers: 2_000,
            seed: 0x5EA7,
            min_facts: 1_000_000,
            publish_bound_ms: 100.0,
        }
    }
}

/// Indexed-vs-scan timing for all probes of one hierarchy level.
#[derive(Debug, Clone, PartialEq)]
struct LevelQueryStats {
    /// Hierarchy level (1 = region, 2 = city, 3 = district).
    pub level: u8,
    /// Members probed at this level.
    pub probes: usize,
    /// Offers selected across all probes (each fact appears once per
    /// level — the levels partition the warehouse).
    pub selected: usize,
    /// Best-of-N total indexed time across the probes, milliseconds.
    pub indexed_ms: f64,
    /// Best-of-N total full-scan time across the probes, milliseconds.
    pub scan_ms: f64,
    /// `scan_ms / indexed_ms`.
    pub speedup: f64,
}

/// A loader query spanning every slot (the spatial filter alone
/// selects).
fn everywhere() -> mirabel_dw::LoaderQueryBuilder {
    LoaderQuery::builder()
}

/// Indexed-vs-scan probes over every member of `level`, best of
/// `repeats` rounds for each side, with an exact result comparison.
fn probe_level(
    dw: &Warehouse,
    level: u8,
    repeats: usize,
    results_match: &mut bool,
) -> LevelQueryStats {
    let members: Vec<MemberId> =
        dw.hierarchy(Dimension::Geography).at_level(level).map(|m| m.id).collect();
    let mut selected = 0usize;

    // Correctness first (once — the timing rounds assume it holds).
    for &m in &members {
        let q = everywhere().region(m).build();
        let indexed: BTreeSet<FlexOfferId> = dw.load_offers(&q).iter().map(|fo| fo.id()).collect();
        let scanned: BTreeSet<FlexOfferId> =
            dw.load_offers_scan(&q).iter().map(|fo| fo.id()).collect();
        *results_match &= indexed == scanned;
        selected += indexed.len();
    }

    let mut indexed_ms = f64::INFINITY;
    let mut scan_ms = f64::INFINITY;
    for _ in 0..repeats.max(1) {
        let t0 = Instant::now();
        let mut loaded = 0usize;
        for &m in &members {
            loaded += dw.load_offers(&everywhere().region(m).build()).len();
        }
        indexed_ms = indexed_ms.min(t0.elapsed().as_secs_f64() * 1e3);
        assert_eq!(loaded, selected, "indexed probe drifted between rounds");

        let t0 = Instant::now();
        let mut scanned = 0usize;
        for &m in &members {
            scanned += dw.load_offers_scan(&everywhere().region(m).build()).len();
        }
        scan_ms = scan_ms.min(t0.elapsed().as_secs_f64() * 1e3);
        assert_eq!(scanned, selected, "scan probe drifted between rounds");
    }
    LevelQueryStats {
        level,
        probes: members.len(),
        selected,
        indexed_ms,
        scan_ms,
        speedup: if indexed_ms > 0.0 { scan_ms / indexed_ms } else { 0.0 },
    }
}

/// Binds one abstract drill step to concrete session commands, tracking
/// the analyst's focus exactly as the session will (drills into a leaf
/// are sent anyway — the deterministic rejection exercises that path —
/// but never move the local focus).
fn bind_step(
    dw: &Warehouse,
    step: &SpatialStep,
    root: MemberId,
    focus: &mut MemberId,
) -> Vec<Command> {
    let h = dw.hierarchy(Dimension::Geography);
    match step {
        SpatialStep::DrillRoot => {
            *focus = root;
            vec![Command::RegionDrill(root)]
        }
        SpatialStep::DrillChild { slot } => {
            let children: Vec<&mirabel_dw::Member> = h.children(*focus).collect();
            if children.is_empty() {
                *focus = root;
                return vec![Command::RegionDrill(root)];
            }
            let child = children[slot % children.len()];
            if child.level < 3 {
                *focus = child.id;
            }
            vec![Command::RegionDrill(child.id)]
        }
        SpatialStep::Up => {
            if let Some(parent) = h.member(*focus).and_then(|m| m.parent) {
                *focus = parent;
            }
            vec![Command::RegionUp]
        }
        SpatialStep::HoverStorm { points } => points
            .iter()
            .map(|&(x, y)| Command::PointerMove(Point::new(x * 960.0, y * 540.0)))
            .collect(),
        SpatialStep::Plan => vec![Command::Plan],
        SpatialStep::Render => vec![Command::Render],
    }
}

/// Replays every analyst trace through its own session at one planner
/// thread count; returns the frame hashes in replay order.
fn replay_traces(
    snapshot_dw: &Arc<Warehouse>,
    config: &SpatialBenchConfig,
    threads: usize,
) -> Vec<u64> {
    let traces = generate_spatial_traces(&SpatialTraceConfig {
        users: config.trace_users,
        steps_per_user: config.trace_steps,
        seed: config.seed ^ 0xD811,
    });
    let root = snapshot_dw.hierarchy(Dimension::Geography).all().id;
    let pool = ConcurrentPool::new(Arc::clone(snapshot_dw));
    let mut hashes = Vec::new();
    for trace in &traces {
        let id = pool.open();
        pool.apply(
            id,
            Command::SetPlanningParams(PlanningParams {
                threads: threads.max(1),
                seed: config.seed,
                ..Default::default()
            }),
        );
        let mut focus = root;
        for step in &trace.steps {
            for cmd in bind_step(snapshot_dw, step, root, &mut focus) {
                let outcome = pool.apply(id, cmd).expect("session open");
                if let Some(hash) = outcome.frame_hash() {
                    hashes.push(hash);
                }
            }
        }
        // One final frame per analyst so even hover-only tails hash.
        if let Some(hash) = pool.apply(id, Command::Render).and_then(|o| o.frame_hash()) {
            hashes.push(hash);
        }
    }
    hashes
}

/// A 1 000-offer batch with ids disjoint from the warehouse (and from
/// every other round), cloned off live offers so the prosumers resolve.
fn publish_batch(offers: &[Arc<FlexOffer>], round: u64) -> Vec<FlexOffer> {
    offers
        .iter()
        .take(1_000)
        .enumerate()
        .map(|(i, fo)| fo.with_id(FlexOfferId(50_000_000 + round * 1_000_000 + i as u64)))
        .collect()
}

/// Runs the full harness; returns the `BENCH_spatial.json` report.
pub fn run_spatial(config: &SpatialBenchConfig) -> Json {
    // 1. The city-scale warehouse and the O(region) query probes.
    let (population, offers) = generate_spatial_scenario(&SpatialConfig {
        prosumers: config.prosumers,
        days: config.days,
        seed: config.seed,
        density_skew: config.density_skew,
        household_share: 0.8,
    });
    let dw = Warehouse::load(&population, &offers);
    let facts = dw.columns().len();
    let mut results_match = true;
    let levels: Vec<LevelQueryStats> =
        (1..=3).map(|level| probe_level(&dw, level, config.repeats, &mut results_match)).collect();
    let indexed_total_ms: f64 = levels.iter().map(|l| l.indexed_ms).sum();
    let scan_total_ms: f64 = levels.iter().map(|l| l.scan_ms).sum();

    // 2. Publish latency with the full fact table live: ingest 1k, then
    //    freeze the next epoch (clone-and-swap of the segment handles;
    //    the swap frees the replaced epoch's copied tail segments).
    let live = LiveWarehouse::from_warehouse(population.clone(), dw.clone());
    let shared_offers: Vec<Arc<FlexOffer>> = dw.offers().iter().take(1_000).cloned().collect();
    drop(dw);
    // Best of max(repeats, 5) rounds: a publish shares every segment and
    // frees only the replaced epoch's copied tail, ~0.1 ms at city scale
    // on a 2-core VM, so one slow round on a contended CI runner must not
    // set the reading — extra rounds are nearly free next to the fixture
    // build above.
    let mut publish_ms = f64::INFINITY;
    for round in 0..config.repeats.max(5) as u64 {
        live.ingest(&publish_batch(&shared_offers, round));
        let t0 = Instant::now();
        live.publish();
        publish_ms = publish_ms.min(t0.elapsed().as_secs_f64() * 1e3);
    }

    // 3. Heatmap determinism: the same drill traces through full serving
    //    sessions at every planner thread count must hash identically.
    let (trace_pop, trace_offers) = generate_spatial_scenario(&SpatialConfig {
        prosumers: config.trace_prosumers,
        days: config.days,
        seed: config.seed ^ 0x7A0,
        density_skew: config.density_skew,
        household_share: 0.8,
    });
    let trace_live = LiveWarehouse::new(trace_pop, &trace_offers);
    trace_live.advance_day();
    let snapshot = trace_live.publish();
    let mut frame_hash_stable = true;
    let mut reference: Option<Vec<u64>> = None;
    for &threads in &config.threads {
        let hashes = replay_traces(snapshot.warehouse(), config, threads);
        match &reference {
            None => reference = Some(hashes),
            Some(r) => frame_hash_stable &= *r == hashes,
        }
    }
    let trace_frames = reference.as_ref().map_or(0, Vec::len);

    let levels = levels.iter().map(|l| {
        Json::obj([
            ("level", usize::from(l.level).into()),
            ("probes", l.probes.into()),
            ("selected", l.selected.into()),
            ("indexed_ms", Json::Num(l.indexed_ms)),
            ("scan_ms", Json::Num(l.scan_ms)),
            ("speedup", Json::Num(l.speedup)),
        ])
    });
    Json::obj([
        ("bench", "spatial".into()),
        ("prosumers", config.prosumers.into()),
        ("days", config.days.into()),
        ("density_skew", Json::Num(config.density_skew)),
        ("repeats", config.repeats.max(1).into()),
        ("seed", config.seed.into()),
        ("min_facts", config.min_facts.into()),
        ("publish_bound_ms", config.publish_bound_ms.into()),
        ("available_parallelism", crate::available_parallelism().into()),
        ("facts", facts.into()),
        // Every probe's indexed result equalled the full scan; the
        // headline O(region) ratio is scan time over indexed time.
        ("results_match", results_match.into()),
        ("indexed_total_ms", Json::Num(indexed_total_ms)),
        ("scan_total_ms", Json::Num(scan_total_ms)),
        ("query_speedup", Json::Num(crate::ratio(scan_total_ms, indexed_total_ms))),
        ("levels", Json::Arr(levels.collect())),
        // Drill-trace frame hashes matched at every planner thread
        // count.
        ("frame_hash_stable", frame_hash_stable.into()),
        ("trace_frames", trace_frames.into()),
        ("publish_ms", Json::Num(publish_ms)),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> SpatialBenchConfig {
        SpatialBenchConfig {
            prosumers: 2_000,
            days: 1,
            density_skew: 1.5,
            threads: vec![1, 2],
            repeats: 1,
            trace_users: 2,
            trace_steps: 12,
            trace_prosumers: 150,
            seed: 11,
            min_facts: 3_000,
            publish_bound_ms: 100.0,
        }
    }

    #[test]
    fn harness_reports_consistent_gates() {
        let report = run_spatial(&tiny());
        let num = |key| report.num_at(&[key]).unwrap();
        assert!(report.is_true("results_match"), "indexed loader diverged from the full scan");
        assert!(report.is_true("frame_hash_stable"), "heatmap frame hashes diverged");
        assert!(num("facts") > tiny().min_facts as f64, "{report}");
        assert!(num("trace_frames") > 0.0);
        assert!(num("publish_ms") > 0.0 && num("publish_ms").is_finite());
        let levels = report.get("levels").and_then(Json::arr).unwrap();
        assert_eq!(levels.len(), 3);
        // The levels partition the warehouse: every fact sits under
        // exactly one region, city and district (Unassigned included at
        // level 1 only — unassigned facts simply never occur for
        // generated populations, so each level sums to the fact count).
        for l in levels {
            assert_eq!(l.num_at(&["selected"]), Some(num("facts")), "{l:?} does not partition");
        }
        // Even at this small scale the per-region index must clearly
        // beat 81 full scans of the fact table.
        assert!(num("query_speedup") > 1.0, "{report}");
        crate::diff::assert_binary_rows_resolve(GATES, &report);
    }

    #[test]
    fn trace_binding_is_deterministic() {
        let config = tiny();
        let (pop, offers) = generate_spatial_scenario(&SpatialConfig {
            prosumers: config.trace_prosumers,
            ..Default::default()
        });
        let dw = Arc::new(Warehouse::load(&pop, &offers));
        let a = replay_traces(&dw, &config, 1);
        let b = replay_traces(&dw, &config, 1);
        assert_eq!(a, b);
        assert!(!a.is_empty());
    }
}
