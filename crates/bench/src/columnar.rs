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
//!   region [`LoaderQuery`]s and narrow window-only ones (one slot, two
//!   hours, an empty window, a window past the last fact), comparing the
//!   borrowed [`Warehouse::view`] (both its id iterator and its
//!   `materialize()`d offers) against the linear row scan
//!   (`views_ok`);
//! * a **timing probe** on the final epoch: the whole query battery
//!   through the columns vs through the rows, best-of-N
//!   (`eval_speedup` — floored at 2×);
//! * a **filtered-query probe**: selective predicates (a city, an
//!   appliance type, a region × time window) over a bulk-loaded pool of
//!   `filter_facts` offers, timing dictionary-mask pushdown
//!   ([`Warehouse::eval`]) against the plain columnar scan
//!   ([`Warehouse::eval_scan`], the pre-pushdown baseline) with a
//!   three-way exact-equality check against [`Warehouse::eval_rows`]
//!   (`filtered_equality_ok` — hard; `filtered_speedup` — gated);
//! * a **pivot probe** over the same pool: the six MDX shapes the
//!   repository benchmark sends, a pivot with a base filter and a status
//!   restriction, a drilled mixed-level axis and one region's cities by
//!   day, comparing the one-pass [`Warehouse::pivot`] against one
//!   [`Warehouse::eval`] per cell bit for bit (`pivot_equality_ok` —
//!   hard) and timing the two (`pivot_speedup` — floored at 4.7×);
//! * a **window probe** over the same pool: selective window-only loads
//!   (single slots and one- and two-hour windows in the pool day's
//!   sparse early and late hours, with and without a direction), whose
//!   time-indexed [`Warehouse::view`] must equal
//!   [`Warehouse::load_offers_scan`] (folded into `views_ok`), timed
//!   against that scan (`window_view_speedup` — floored at 25×).
//!
//! Everything is deterministic in the config seed. The `columnar`
//! binary wraps this module for CI
//! (`cargo run --release -p mirabel-bench --bin columnar`).

use std::hint::black_box;
use std::time::Instant;

use mirabel_dw::{
    Dimension, LiveWarehouse, LoaderQuery, Measure, PivotAxis, PivotSpec, Query, Warehouse,
};
use mirabel_flexoffer::{Direction, OfferState};
use mirabel_timeseries::{SlotSpan, TimeSlot};
use mirabel_workload::{
    generate_ingest_trace, generate_offer_pool, generate_offers, IngestEvent, IngestTraceConfig,
    OfferConfig, Population, PopulationConfig,
};

use crate::diff::{Bound, Gate, Json};

/// The columnar gate table (see [`crate::diff`]). The battery sizes are
/// a pure function of the seed and are pinned exactly by this module's
/// tests; the latencies are reported, only their same-run ratios gated.
pub const GATES: &[Gate] = &[
    Gate::holds("equality_ok"),
    Gate::holds("views_ok"),
    Gate::holds("filtered_equality_ok"),
    Gate::holds("pivot_equality_ok"),
    // Same-host ratios, hard on any runner: encoded eval at least 2x the
    // row oracle, pushdown at least 3x the plain columnar scan.
    Gate::floor("eval_speedup", Bound::Fixed(2.0)),
    Gate::floor("filtered_speedup", Bound::Fixed(3.0)),
    // The one-pass pivot against one eval per cell: half the lowest of
    // twenty readings (9.56-12.8x) at CI's flags on 2 cores.
    Gate::floor("pivot_speedup", Bound::Fixed(4.7)),
    // The time-indexed window load against the index-free scan: half
    // the lowest of five readings (50-56x) at CI's flags on 2 cores.
    Gate::floor("window_view_speedup", Bound::Fixed(25.0)),
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
    /// Timing rounds per side (best-of-N) of the window probe; the
    /// final-epoch battery, the filtered probe and the pivot probe take
    /// at least 20. Equality is checked at every epoch regardless.
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

/// The view battery: one [`LoaderQuery`] per selectivity axis, plus the
/// narrow windows that read few buckets of the time index: one slot, two
/// hours, an empty window and one past the last fact.
fn view_battery(w: &Warehouse, config: &ColumnarConfig) -> Vec<LoaderQuery> {
    let from = TimeSlot::EPOCH;
    let to = from + SlotSpan::days(config.days as i64 + 3);
    let window = |lo: TimeSlot, hi: TimeSlot| LoaderQuery::builder().window(lo, hi).build();
    let day = from + SlotSpan::days(1);
    let mut qs = vec![
        LoaderQuery::builder().build(),
        window(from, to),
        window(day, day + SlotSpan::days(1)),
        LoaderQuery::builder().direction(Direction::Consumption).build(),
        LoaderQuery::builder().direction(Direction::Production).build(),
        window(day + SlotSpan::hours(10), day + SlotSpan::hours(10) + SlotSpan::slots(1)),
        window(day + SlotSpan::hours(18), day + SlotSpan::hours(20)),
        window(day, day),
        window(to, to + SlotSpan::days(1)),
    ];
    if let Some(fo) = w.offers().get(0) {
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

/// The population the churn trace and the bulk probe pool draw from.
fn population(config: &ColumnarConfig) -> Population {
    Population::generate(&PopulationConfig {
        size: config.prosumers,
        seed: config.seed ^ 0xBE9C,
        household_share: 0.8,
    })
}

/// The batteries' tally over the churn trace: epochs checked (the
/// initial snapshot and every publish), comparisons run, and whether
/// every one agreed.
struct Tally {
    epochs: u64,
    queries: usize,
    views: usize,
    equality_ok: bool,
    views_ok: bool,
}

/// Runs both batteries against one epoch's warehouse into `tally`.
fn check_epoch(w: &Warehouse, config: &ColumnarConfig, tally: &mut Tally) {
    let queries = query_battery(w);
    for q in &queries {
        let rows = w.eval_rows(q);
        tally.equality_ok &= w.eval(q) == rows && w.eval_scan(q) == rows;
    }
    let views = view_battery(w, config);
    for q in &views {
        let view = w.view(q);
        let borrowed: Vec<_> = view.ids().collect();
        let scanned: Vec<_> = w.load_offers_scan(q).iter().map(|fo| fo.id()).collect();
        tally.views_ok &= borrowed == scanned;
        let materialized: Vec<_> = view.materialize().iter().map(|fo| fo.id()).collect();
        tally.views_ok &= materialized == scanned;
    }
    tally.epochs += 1;
    tally.queries += queries.len();
    tally.views += views.len();
}

/// Replays the seeded ingest trace on a live warehouse, running both
/// batteries against the initial snapshot and every published epoch;
/// returns the warehouse after the last event and the tally.
fn replay_churn(population: &Population, config: &ColumnarConfig) -> (LiveWarehouse, Tally) {
    let initial = generate_offers(
        population,
        &OfferConfig { days: 1, seed: config.seed, ..Default::default() },
    );
    let trace = generate_ingest_trace(
        population,
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
    let mut tally = Tally { epochs: 0, queries: 0, views: 0, equality_ok: true, views_ok: true };
    check_epoch(live.snapshot().warehouse(), config, &mut tally);
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
            IngestEvent::Publish => check_epoch(live.publish().warehouse(), config, &mut tally),
        }
    }
    (live, tally)
}

/// The filtered probe battery: selective predicates that pushdown
/// resolves to dictionary and status masks — a city (geography level
/// 2), a concrete appliance type (the deepest appliance level), a
/// region × time-window conjunction, and status-restricted probes whose
/// restriction keeps a contiguous quarter of the facts (the probe
/// warehouse schedules that quarter of the pool).
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

/// The pivot battery: the six MDX shapes of the repository benchmark
/// (`[Dim].Children` on both axes), a pivot with a base filter and a
/// status restriction, a drilled mixed-level axis (one region's cities
/// beside the other regions) under an average measure, and one region's
/// cities alone, whose pass the spatial postings drive.
fn pivot_battery(w: &Warehouse) -> Vec<PivotSpec> {
    let children = |dim: Dimension| PivotAxis::children_of(w, dim, w.hierarchy(dim).all().id);
    let shape = |rows, columns, measure| PivotSpec {
        rows: children(rows),
        columns: children(columns),
        base: Query::new(measure),
    };
    let mut battery = vec![
        shape(Dimension::Geography, Dimension::Time, Measure::Count),
        shape(Dimension::Time, Dimension::ProsumerType, Measure::Count),
        shape(Dimension::Grid, Dimension::Appliance, Measure::Count),
        shape(Dimension::Geography, Dimension::EnergyType, Measure::Count),
        shape(Dimension::ProsumerType, Dimension::Geography, Measure::TotalMaxEnergy),
        shape(Dimension::EnergyType, Dimension::Time, Measure::EnergyFlexibility),
    ];
    let geo = w.hierarchy(Dimension::Geography);
    if let Some(region) = geo.at_level(1).next() {
        battery.push(PivotSpec {
            rows: children(Dimension::ProsumerType),
            columns: PivotAxis::level(w, Dimension::Appliance, 1),
            base: Query::new(Measure::ScheduledEnergy)
                .filter(Dimension::Geography, region.id)
                .statuses([OfferState::Scheduled]),
        });
        let mut drilled = children(Dimension::Geography);
        drilled.drill_down(w, region.id);
        battery.push(PivotSpec {
            rows: drilled,
            columns: PivotAxis::level(w, Dimension::ProsumerType, 2),
            base: Query::new(Measure::AvgPrice),
        });
        battery.push(PivotSpec {
            rows: PivotAxis::children_of(w, Dimension::Geography, region.id),
            columns: children(Dimension::Time),
            base: Query::new(Measure::Count),
        });
    }
    battery
}

/// The reference the one-pass [`Warehouse::pivot`] is gated against:
/// one [`Warehouse::eval`] per cell.
fn per_cell_pivot(w: &Warehouse, spec: &PivotSpec) -> Vec<Vec<f64>> {
    spec.rows
        .members
        .iter()
        .map(|&r| {
            spec.columns
                .members
                .iter()
                .map(|&c| {
                    let q = spec.base.clone().filter(spec.rows.dimension, r);
                    w.eval(&q.filter(spec.columns.dimension, c)).map_or(f64::NAN, |res| res.total)
                })
                .collect()
        })
        .collect()
}

/// The bulk-loaded probe warehouse: `filter_facts` offers, a contiguous
/// quarter of them scheduled, which is what the status-restricted
/// probes keep.
fn probe_warehouse(population: &Population, config: &ColumnarConfig) -> Warehouse {
    let pool = generate_offer_pool(
        population,
        config.filter_facts.max(1),
        config.seed ^ 0xF117,
        TimeSlot::EPOCH + SlotSpan::days(1),
    );
    let mut bulk = Warehouse::load(population, &pool);
    let picks: Vec<_> = pool
        .iter()
        .take(pool.len() / 4)
        .map(|fo| {
            let energies = fo.profile().slices().iter().map(|s| s.min).collect();
            (fo.id(), mirabel_flexoffer::Schedule::new(fo.earliest_start(), energies))
        })
        .collect();
    bulk.assign_schedules(&picks);
    bulk
}

/// The best of at least `rounds` timings of each of two batteries, in
/// milliseconds, taken in alternating blocks of five consecutive rounds
/// a side: each side is timed after rounds of its own rather than of
/// the other (whose scans evict its working set), and both sides
/// sample the same stretches of a shared host.
fn best_ms_in_blocks(rounds: usize, mut a: impl FnMut(), mut b: impl FnMut()) -> (f64, f64) {
    const BLOCK: usize = 5;
    let best = |battery: &mut dyn FnMut(), ms: &mut f64| {
        for _ in 0..BLOCK {
            let t0 = Instant::now();
            battery();
            *ms = ms.min(t0.elapsed().as_secs_f64() * 1e3);
        }
    };
    let (mut a_ms, mut b_ms) = (f64::INFINITY, f64::INFINITY);
    for _ in 0..rounds.div_ceil(BLOCK) {
        best(&mut a, &mut a_ms);
        best(&mut b, &mut b_ms);
    }
    (a_ms, b_ms)
}

/// Runs the filtered-query probe over the bulk-loaded pool: one
/// three-way equality pass (pushdown `eval` ≡ plain `eval_scan` ≡ row
/// `eval_rows`), then best-of-N timing of pushdown against the plain
/// columnar scan, each side as its own block of rounds.
fn run_filtered_probe(bulk: &Warehouse, rounds: usize) -> (bool, f64, f64) {
    let battery = filtered_battery(bulk);

    let mut equality_ok = !battery.is_empty();
    for q in &battery {
        let rows = bulk.eval_rows(q);
        equality_ok &= bulk.eval(q) == rows && bulk.eval_scan(q) == rows;
    }

    let (pushdown_ms, scan_ms) = best_ms_in_blocks(
        rounds,
        || battery.iter().for_each(|q| _ = black_box(bulk.eval(q))),
        || battery.iter().for_each(|q| _ = black_box(bulk.eval_scan(q))),
    );
    (equality_ok, pushdown_ms, scan_ms)
}

/// Runs the pivot probe over the bulk-loaded pool: every one-pass cell
/// must equal its per-cell `eval` bit for bit, then best-of-N timing of
/// the two, each side as its own block of rounds.
fn run_pivot_probe(bulk: &Warehouse, rounds: usize) -> (bool, f64, f64) {
    let battery = pivot_battery(bulk);
    let bits = |cells: &[Vec<f64>]| -> Vec<Vec<u64>> {
        cells.iter().map(|row| row.iter().map(|v| v.to_bits()).collect()).collect()
    };
    let equality_ok = !battery.is_empty()
        && battery.iter().all(|spec| {
            bulk.pivot(spec).is_ok_and(|t| bits(&t.cells) == bits(&per_cell_pivot(bulk, spec)))
        });

    let (one_pass_ms, per_cell_ms) = best_ms_in_blocks(
        rounds,
        || battery.iter().for_each(|spec| _ = black_box(bulk.pivot(spec))),
        || battery.iter().for_each(|spec| _ = black_box(per_cell_pivot(bulk, spec))),
    );
    (equality_ok, one_pass_ms, per_cell_ms)
}

/// The window probe battery: selective window-only loads over the bulk
/// pool's day (≈ 0.1–1.5 % of its facts each) — single slots and one-
/// and two-hour windows in the sparse early and late hours, each with
/// and without a direction.
fn window_battery() -> Vec<LoaderQuery> {
    let day = TimeSlot::EPOCH + SlotSpan::days(1);
    let mut qs = Vec::new();
    for (lo, hi) in [(0, 1), (4, 8), (8, 16), (126, 127), (124, 132)] {
        let window =
            LoaderQuery::builder().window(day + SlotSpan::slots(lo), day + SlotSpan::slots(hi));
        qs.push(window.build());
        qs.push(window.direction(Direction::Consumption).build());
    }
    qs
}

/// Runs the window probe over the bulk-loaded pool: every time-indexed
/// view must equal the index-free scan id for id (the first pass also
/// builds the index), then best-of-N timing of the two.
fn run_window_probe(bulk: &Warehouse, repeats: usize) -> (bool, f64, f64) {
    let battery = window_battery();
    let equality_ok = battery
        .iter()
        .all(|q| bulk.view(q).ids().eq(bulk.load_offers_scan(q).iter().map(|fo| fo.id())));

    let mut view_ms = f64::INFINITY;
    let mut scan_ms = f64::INFINITY;
    for _ in 0..repeats {
        let t0 = Instant::now();
        for q in &battery {
            black_box(bulk.view(q).len());
        }
        view_ms = view_ms.min(t0.elapsed().as_secs_f64() * 1e3);
        let t0 = Instant::now();
        for q in &battery {
            black_box(bulk.load_offers_scan(q).len());
        }
        scan_ms = scan_ms.min(t0.elapsed().as_secs_f64() * 1e3);
    }
    (equality_ok, view_ms, scan_ms)
}

/// Runs the full harness; returns the `BENCH_columnar.json` report.
pub fn run_columnar(config: &ColumnarConfig) -> Json {
    let population = population(config);
    let (live, tally) = replay_churn(&population, config);

    // Timing probe on the final epoch: same battery, columns vs rows.
    let snapshot = live.publish();
    let warehouse = snapshot.warehouse();
    let battery = query_battery(warehouse);
    let repeats = config.repeats.max(1);
    // The battery, the filtered probe and the pivot probe take the best
    // of at least 20 rounds a side, in blocks: at three rounds a side,
    // interleaved one by one, each ratio fell under its floor in some
    // runs on a shared 2-core host (the pivot's once in 120).
    let ratio_rounds = repeats.max(20);
    let (columnar_eval_ms, row_eval_ms) = best_ms_in_blocks(
        ratio_rounds,
        || battery.iter().for_each(|q| _ = black_box(warehouse.eval(q))),
        || battery.iter().for_each(|q| _ = black_box(warehouse.eval_rows(q))),
    );

    let bulk = probe_warehouse(&population, config);
    let (filtered_equality_ok, filtered_pushdown_ms, filtered_scan_ms) =
        run_filtered_probe(&bulk, ratio_rounds);
    let (pivot_equality_ok, pivot_one_pass_ms, pivot_per_cell_ms) =
        run_pivot_probe(&bulk, ratio_rounds);
    let (window_equality_ok, window_view_ms, window_scan_ms) = run_window_probe(&bulk, repeats);

    Json::obj([
        ("bench", "columnar".into()),
        ("prosumers", config.prosumers.into()),
        ("days", config.days.into()),
        ("seed", config.seed.into()),
        ("repeats", repeats.into()),
        // Rows in the final epoch; epochs the batteries ran against
        // (initial snapshot + every publish) and their comparisons.
        ("offers", warehouse.offers().len().into()),
        ("epochs", tally.epochs.into()),
        ("queries", tally.queries.into()),
        ("views", tally.views.into()),
        ("equality_ok", tally.equality_ok.into()),
        ("views_ok", (tally.views_ok && window_equality_ok).into()),
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
        // The pivot probe, best of N: one pass vs one eval per cell.
        ("pivot_equality_ok", pivot_equality_ok.into()),
        ("pivot_one_pass_ms", Json::Num(pivot_one_pass_ms)),
        ("pivot_per_cell_ms", Json::Num(pivot_per_cell_ms)),
        ("pivot_speedup", Json::Num(crate::ratio(pivot_per_cell_ms, pivot_one_pass_ms))),
        // The window probe, best of N: the time index vs the scan.
        ("window_view_ms", Json::Num(window_view_ms)),
        ("window_scan_ms", Json::Num(window_scan_ms)),
        ("window_view_speedup", Json::Num(crate::ratio(window_scan_ms, window_view_ms))),
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
        assert!(report.is_true("pivot_equality_ok"), "one-pass pivot diverged from per-cell eval");
        assert!(num("pivot_one_pass_ms") > 0.0 && num("pivot_per_cell_ms") > 0.0);
        assert!(num("window_view_ms") > 0.0 && num("window_scan_ms") > 0.0);
        crate::diff::assert_binary_rows_resolve(GATES, &report);

        // The battery sizes are a pure function of the seed: a shrink
        // means the equality gates silently cover less. Pinned at CI's
        // pool config, which needs no bulk probe to count.
        let config = ColumnarConfig::default();
        let population = population(&config);
        let (_, tally) = replay_churn(&population, &config);
        assert_eq!((tally.epochs, tally.queries, tally.views), (9, 603, 108));
        assert!(tally.equality_ok && tally.views_ok);
    }
}
