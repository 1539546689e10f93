//! S7 — columnar ≡ row equivalence under ingest churn.
//!
//! The column store behind [`Warehouse::eval`] and
//! [`Warehouse::view`] is an optimisation, not a second source of
//! truth: every columnar answer must be *bit-identical* to the
//! row-oriented reference ([`Warehouse::eval_rows`],
//! [`Warehouse::load_offers_scan`]). This harness replays a seeded
//! [`mirabel_workload::ingest`] trace — arrivals, withdrawal storms,
//! day ticks — and at **every** published epoch runs
//!
//! * a **query battery**: all nine [`Measure`]s, plain / status-filtered
//!   / time-ranged, plus group-bys at every level of every dimension
//!   hierarchy and a member-filtered probe per dimension, comparing
//!   [`Warehouse::eval`] against [`Warehouse::eval_rows`] with exact
//!   [`mirabel_dw::QueryResult`] equality (`equality_ok`);
//! * a **view battery**: full / windowed / direction / prosumer /
//!   region [`LoaderQuery`]s, comparing the borrowed
//!   [`Warehouse::view`] (both its id iterator and its
//!   `materialize()`d offers) against the linear row scan
//!   (`views_ok`);
//! * a **timing probe** on the final epoch: the whole query battery
//!   through the columns vs through the rows, best-of-N
//!   (`eval_speedup` — floored at 2× by `bench_diff`);
//! * a **filtered-query probe**: selective predicates (a city, an
//!   appliance type, a region × time window) over a bulk-loaded pool of
//!   `filter_facts` offers, timing dictionary-mask pushdown
//!   ([`Warehouse::eval`]) against the plain columnar scan
//!   ([`Warehouse::eval_scan`], the pre-pushdown baseline) with a
//!   three-way exact-equality check against [`Warehouse::eval_rows`]
//!   (`filtered_equality_ok` — hard; `filtered_speedup` — gated).
//!
//! Everything is deterministic in the config seed. The `columnar`
//! binary wraps this module for CI
//! (`cargo run --release -p mirabel-bench --bin columnar`).

use std::time::Instant;

use mirabel_dw::{Dimension, LiveWarehouse, LoaderQuery, Measure, Query, Warehouse};
use mirabel_flexoffer::{Direction, OfferState};
use mirabel_timeseries::{SlotSpan, TimeSlot};
use mirabel_workload::{
    generate_ingest_trace, generate_offer_pool, generate_offers, IngestEvent, IngestTraceConfig,
    OfferConfig, Population, PopulationConfig,
};

use crate::diff::{Bound, Gate, Json, Policy, Scope};

/// The columnar gate table (see [`crate::diff`]).
pub const GATES: &[Gate] = &[
    Gate::holds("equality_ok"),
    Gate::holds("views_ok"),
    Gate::holds("filtered_equality_ok"),
    // Battery sizes are a pure function of the seed: a shrink means the
    // equivalence gates silently cover less.
    Gate::higher("queries").optional(),
    Gate::higher("views").optional(),
    // Both speedups are same-host ratios, hard on any machine class,
    // with absolute floors besides: encoded eval at least 2x the row
    // oracle, pushdown at least 3x the plain columnar scan.
    Gate::higher("eval_speedup"),
    Gate::floor("eval_speedup", Bound::Fixed(2.0), Scope::Diff).named("eval_speedup_floor"),
    Gate::higher("filtered_speedup"),
    Gate::floor("filtered_speedup", Bound::Fixed(3.0), Scope::Both).named("filtered_speedup_floor"),
    Gate::lower("columnar_eval_ms", 1.0).policy(Policy::Class),
    Gate::lower("row_eval_ms", 1.0).policy(Policy::Class),
    Gate::lower("filtered_pushdown_ms", 1.0).policy(Policy::Class),
    Gate::lower("filtered_scan_ms", 1.0).policy(Policy::Class),
];

/// Shape of one columnar-equivalence run; `Default` is the CI smoke
/// configuration.
#[derive(Debug, Clone, PartialEq)]
pub struct ColumnarConfig {
    /// Prosumers in the population.
    pub prosumers: usize,
    /// Days of arrivals streamed after the initial load.
    pub days: usize,
    /// Arrival batches per day.
    pub batches_per_day: usize,
    /// Fraction of each day's arrivals withdrawn again.
    pub withdraw_fraction: f64,
    /// Master seed.
    pub seed: u64,
    /// Timing rounds for the final-epoch probe (best-of-N); equality is
    /// checked at every epoch regardless.
    pub repeats: usize,
    /// Facts in the bulk-loaded pool the filtered-query probe scans.
    pub filter_facts: usize,
}

impl Default for ColumnarConfig {
    fn default() -> Self {
        ColumnarConfig {
            prosumers: 150,
            days: 2,
            batches_per_day: 4,
            withdraw_fraction: 0.15,
            seed: 0xC07A,
            repeats: 3,
            filter_facts: 1_000_000,
        }
    }
}

/// The query battery for one warehouse: every measure plain,
/// status-filtered and time-ranged; group-bys at every level of every
/// hierarchy for the two headline measures; one member-filtered probe
/// per dimension.
fn query_battery(w: &Warehouse) -> Vec<Query> {
    let from = TimeSlot::EPOCH + SlotSpan::days(1);
    let to = from + SlotSpan::days(1);
    let mut qs = Vec::new();
    for m in Measure::ALL {
        qs.push(Query::new(m));
        qs.push(Query::new(m).statuses([OfferState::Accepted, OfferState::Scheduled]));
        qs.push(Query::new(m).time_range(from, to));
    }
    for m in [Measure::Count, Measure::ScheduledEnergy] {
        for dim in Dimension::ALL {
            for level in 1..w.hierarchy(dim).depth() as u8 {
                qs.push(Query::new(m).group_by(dim, level));
            }
        }
    }
    for dim in Dimension::ALL {
        if let Some(member) = w.hierarchy(dim).at_level(1).next() {
            qs.push(Query::new(Measure::Count).filter(dim, member.id));
            qs.push(
                Query::new(Measure::TotalMaxEnergy)
                    .filter(dim, member.id)
                    .group_by(dim, w.hierarchy(dim).depth() as u8 - 1),
            );
        }
    }
    qs
}

/// The view battery: one [`LoaderQuery`] per selectivity axis.
fn view_battery(w: &Warehouse, config: &ColumnarConfig) -> Vec<LoaderQuery> {
    let from = TimeSlot::EPOCH;
    let to = from + SlotSpan::days(config.days as i64 + 3);
    let mut qs = vec![
        LoaderQuery::builder().build(),
        LoaderQuery::builder().window(from, to).build(),
        LoaderQuery::builder().window(from + SlotSpan::days(1), from + SlotSpan::days(2)).build(),
        LoaderQuery::builder().direction(Direction::Consumption).build(),
        LoaderQuery::builder().direction(Direction::Production).build(),
    ];
    if let Some(fo) = w.offers().first() {
        qs.push(LoaderQuery::builder().prosumer(fo.prosumer()).build());
    }
    if let Some(region) = w.hierarchy(Dimension::Geography).at_level(1).next() {
        qs.push(LoaderQuery::builder().region(region.id).build());
        qs.push(
            LoaderQuery::builder()
                .region(region.id)
                .window(from + SlotSpan::days(1), to)
                .direction(Direction::Consumption)
                .build(),
        );
    }
    qs
}

/// Runs both batteries against one epoch's warehouse; returns
/// `(queries, views, equality_ok, views_ok)`.
fn check_epoch(w: &Warehouse, config: &ColumnarConfig) -> (usize, usize, bool, bool) {
    let mut equality_ok = true;
    let queries = query_battery(w);
    for q in &queries {
        let rows = w.eval_rows(q);
        equality_ok &= w.eval(q) == rows && w.eval_scan(q) == rows;
    }
    let mut views_ok = true;
    let views = view_battery(w, config);
    for q in &views {
        let view = w.view(q);
        let borrowed: Vec<_> = view.ids().collect();
        let scanned: Vec<_> = w.load_offers_scan(q).iter().map(|fo| fo.id()).collect();
        views_ok &= borrowed == scanned;
        let materialized: Vec<_> = view.materialize().iter().map(|fo| fo.id()).collect();
        views_ok &= materialized == scanned;
    }
    (queries.len(), views.len(), equality_ok, views_ok)
}

/// The filtered probe battery: selective predicates whose dictionary
/// masks and status runs let pushdown skip most facts — a city
/// (geography level 2), a concrete appliance type (the deepest
/// appliance level), a region × time-window conjunction, and
/// status-restricted probes that skip whole runs of the status RLE
/// column (the probe warehouse schedules a contiguous quarter of the
/// pool precisely so those runs exist).
fn filtered_battery(w: &Warehouse) -> Vec<Query> {
    let geo = w.hierarchy(Dimension::Geography);
    let mut qs = Vec::new();
    if let Some(city) = geo.at_level(2).next() {
        qs.push(Query::new(Measure::Count).filter(Dimension::Geography, city.id));
        qs.push(Query::new(Measure::ScheduledEnergy).filter(Dimension::Geography, city.id));
        qs.push(
            Query::new(Measure::TotalMaxEnergy)
                .filter(Dimension::Geography, city.id)
                .group_by(Dimension::Geography, 3),
        );
        qs.push(
            Query::new(Measure::ScheduledEnergy)
                .filter(Dimension::Geography, city.id)
                .statuses([OfferState::Scheduled]),
        );
    }
    let appliance = w.hierarchy(Dimension::Appliance);
    let deepest = appliance.depth() as u8 - 1;
    if let Some(kind) = appliance.at_level(deepest).next() {
        qs.push(Query::new(Measure::Count).filter(Dimension::Appliance, kind.id));
        qs.push(
            Query::new(Measure::AvgPrice)
                .filter(Dimension::Appliance, kind.id)
                .group_by(Dimension::ProsumerType, 1),
        );
    }
    if let Some(region) = geo.at_level(1).next() {
        let from = TimeSlot::EPOCH + SlotSpan::days(1);
        qs.push(
            Query::new(Measure::ScheduledEnergy)
                .filter(Dimension::Geography, region.id)
                .time_range(from, from + SlotSpan::days(1)),
        );
        qs.push(
            Query::new(Measure::Count)
                .filter(Dimension::Geography, region.id)
                .statuses([OfferState::Scheduled, OfferState::Executed]),
        );
    }
    qs.push(Query::new(Measure::ScheduledEnergy).statuses([OfferState::Scheduled]));
    qs
}

/// Runs the filtered-query probe over a bulk-loaded pool of
/// `filter_facts` offers: one three-way equality pass (pushdown `eval`
/// ≡ plain `eval_scan` ≡ row `eval_rows`), then best-of-N timing of
/// pushdown against the plain columnar scan.
fn run_filtered_probe(population: &Population, config: &ColumnarConfig) -> (bool, f64, f64) {
    let pool = generate_offer_pool(
        population,
        config.filter_facts.max(1),
        config.seed ^ 0xF117,
        TimeSlot::EPOCH + SlotSpan::days(1),
    );
    let mut bulk = Warehouse::load(population, &pool);
    // Schedule a contiguous quarter of the pool so the status RLE column
    // has real run structure for the status-restricted probes to skip.
    let picks: Vec<_> = pool
        .iter()
        .take(pool.len() / 4)
        .map(|fo| {
            let energies = fo.profile().slices().iter().map(|s| s.min).collect();
            (fo.id(), mirabel_flexoffer::Schedule::new(fo.earliest_start(), energies))
        })
        .collect();
    bulk.assign_schedules(&picks);
    let battery = filtered_battery(&bulk);

    let mut equality_ok = !battery.is_empty();
    for q in &battery {
        let rows = bulk.eval_rows(q);
        equality_ok &= bulk.eval(q) == rows && bulk.eval_scan(q) == rows;
    }

    let repeats = config.repeats.max(1);
    let mut pushdown_ms = f64::INFINITY;
    let mut scan_ms = f64::INFINITY;
    for _ in 0..repeats {
        let t0 = Instant::now();
        for q in &battery {
            let _ = bulk.eval(q);
        }
        pushdown_ms = pushdown_ms.min(t0.elapsed().as_secs_f64() * 1e3);
        let t0 = Instant::now();
        for q in &battery {
            let _ = bulk.eval_scan(q);
        }
        scan_ms = scan_ms.min(t0.elapsed().as_secs_f64() * 1e3);
    }
    (equality_ok, pushdown_ms, scan_ms)
}

/// Runs the full harness; returns the `BENCH_columnar.json` report.
pub fn run_columnar(config: &ColumnarConfig) -> Json {
    let population = Population::generate(&PopulationConfig {
        size: config.prosumers,
        seed: config.seed ^ 0xBE9C,
        household_share: 0.8,
    });
    let initial = generate_offers(
        &population,
        &OfferConfig { days: 1, seed: config.seed, ..Default::default() },
    );
    let trace = generate_ingest_trace(
        &population,
        &IngestTraceConfig {
            days: config.days.max(1),
            batches_per_day: config.batches_per_day.max(1),
            withdraw_fraction: config.withdraw_fraction,
            seed: config.seed,
        },
        initial.len() as u64 + 1,
        TimeSlot::EPOCH + SlotSpan::days(1),
    );

    let live = LiveWarehouse::new(population.clone(), &initial);
    let mut epochs = 0u64;
    let mut queries = 0usize;
    let mut views = 0usize;
    let mut equality_ok = true;
    let mut views_ok = true;
    let mut check = |w: &Warehouse| {
        let (q, v, eq, vw) = check_epoch(w, config);
        queries += q;
        views += v;
        equality_ok &= eq;
        views_ok &= vw;
    };

    check(live.snapshot().warehouse());
    epochs += 1;
    for event in &trace {
        match event {
            IngestEvent::Arrive { offers } => {
                live.ingest(offers);
            }
            IngestEvent::Withdraw { ids } => {
                live.withdraw(ids);
            }
            IngestEvent::AdvanceDay => {
                live.advance_day();
            }
            IngestEvent::Publish => {
                let snapshot = live.publish();
                check(snapshot.warehouse());
                epochs += 1;
            }
        }
    }

    // Timing probe on the final epoch: same battery, columns vs rows.
    let snapshot = live.publish();
    let warehouse = snapshot.warehouse();
    let battery = query_battery(warehouse);
    let repeats = config.repeats.max(1);
    let mut columnar_eval_ms = f64::INFINITY;
    let mut row_eval_ms = f64::INFINITY;
    for _ in 0..repeats {
        let t0 = Instant::now();
        for q in &battery {
            let _ = warehouse.eval(q);
        }
        columnar_eval_ms = columnar_eval_ms.min(t0.elapsed().as_secs_f64() * 1e3);
        let t0 = Instant::now();
        for q in &battery {
            let _ = warehouse.eval_rows(q);
        }
        row_eval_ms = row_eval_ms.min(t0.elapsed().as_secs_f64() * 1e3);
    }

    let (filtered_equality_ok, filtered_pushdown_ms, filtered_scan_ms) =
        run_filtered_probe(&population, config);

    Json::obj([
        ("bench", "columnar".into()),
        ("prosumers", config.prosumers.into()),
        ("days", config.days.into()),
        ("seed", config.seed.into()),
        ("repeats", repeats.into()),
        // Rows in the final epoch; epochs the batteries ran against
        // (initial snapshot + every publish) and their comparisons.
        ("offers", warehouse.offers().len().into()),
        ("epochs", epochs.into()),
        ("queries", queries.into()),
        ("views", views.into()),
        ("equality_ok", equality_ok.into()),
        ("views_ok", views_ok.into()),
        // The final-epoch battery, best of N: columns vs rows.
        ("columnar_eval_ms", Json::Num(columnar_eval_ms)),
        ("row_eval_ms", Json::Num(row_eval_ms)),
        ("eval_speedup", Json::Num(crate::ratio(row_eval_ms, columnar_eval_ms))),
        // The filtered probe, best of N: pushdown vs the plain scan.
        ("filter_facts", config.filter_facts.into()),
        ("filtered_equality_ok", filtered_equality_ok.into()),
        ("filtered_pushdown_ms", Json::Num(filtered_pushdown_ms)),
        ("filtered_scan_ms", Json::Num(filtered_scan_ms)),
        ("filtered_speedup", Json::Num(crate::ratio(filtered_scan_ms, filtered_pushdown_ms))),
        ("available_parallelism", crate::available_parallelism().into()),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> ColumnarConfig {
        ColumnarConfig {
            prosumers: 40,
            days: 1,
            batches_per_day: 2,
            withdraw_fraction: 0.2,
            seed: 17,
            repeats: 1,
            filter_facts: 5_000,
        }
    }

    #[test]
    fn columnar_answers_equal_the_row_reference_at_every_epoch() {
        let report = run_columnar(&tiny());
        let num = |key| report.num_at(&[key]).unwrap();
        assert!(report.is_true("equality_ok"), "columnar eval diverged from the row reference");
        assert!(report.is_true("views_ok"), "borrowed views diverged from the linear scan");
        assert!(num("epochs") >= 2.0, "the trace must publish at least once");
        assert!(num("queries") > 0.0 && num("views") > 0.0);
        assert!(num("offers") > 0.0);
        assert!(num("columnar_eval_ms") > 0.0 && num("row_eval_ms") > 0.0);
        assert!(
            report.is_true("filtered_equality_ok"),
            "filtered pushdown diverged from the scan or row oracle"
        );
        assert!(num("filtered_pushdown_ms") > 0.0 && num("filtered_scan_ms") > 0.0);
        crate::diff::assert_binary_rows_resolve(GATES, &report);
    }
}
