//! Property-based tests for the warehouse: rollup consistency, filter
//! monotonicity, MDX round-trips, one-pass pivots and time-indexed
//! window loads over randomized workloads.

use std::fmt::Display;
use std::sync::Arc;

use mirabel_dw::{
    mdx, Dimension, EpochSnapshot, LiveWarehouse, LoaderQuery, Measure, MemberId, PivotAxis,
    PivotSpec, Query, Warehouse,
};
use mirabel_flexoffer::{Direction, FlexOffer, FlexOfferId, OfferState, Schedule};
use mirabel_timeseries::{SlotSpan, TimeSlot};
use mirabel_workload::{
    generate_ingest_trace, generate_offers, IngestEvent, IngestTraceConfig, OfferConfig,
    Population, PopulationConfig,
};
use proptest::prelude::*;
use proptest::TestCaseError;

fn population_and_offers(seed: u64, size: usize) -> (Population, Vec<FlexOffer>) {
    let pop = Population::generate(&PopulationConfig { size, seed, household_share: 0.8 });
    let mut offers =
        generate_offers(&pop, &OfferConfig { seed: seed ^ 0xF0, ..Default::default() });
    for (i, fo) in offers.iter_mut().enumerate() {
        match i % 4 {
            0 => fo.accept().unwrap(),
            1 => fo.reject().unwrap(),
            _ => {}
        }
    }
    (pop, offers)
}

fn warehouse(seed: u64, size: usize) -> Warehouse {
    let (pop, offers) = population_and_offers(seed, size);
    Warehouse::load(&pop, &offers)
}

/// Min-energy schedules at the earliest start for every third offer:
/// assignment accepts still-offered offers and skips rejected ones.
fn schedules(offers: &[FlexOffer]) -> Vec<(FlexOfferId, Schedule)> {
    offers
        .iter()
        .step_by(3)
        .map(|fo| {
            let energies = fo.profile().slices().iter().map(|s| s.min).collect();
            (fo.id(), Schedule::new(fo.earliest_start(), energies))
        })
        .collect()
}

/// A bulk-loaded warehouse whose facts span every lifecycle status, so
/// the scheduled, executed and deviation measures are not all zero.
fn lifecycle_warehouse(seed: u64, size: usize) -> Warehouse {
    let (pop, offers) = population_and_offers(seed, size);
    let mut dw = Warehouse::load(&pop, &offers);
    dw.assign_schedules(&schedules(&offers));
    dw.execute_due(TimeSlot::new(60));
    dw
}

/// A live warehouse after scheduling, a day tick and ingest and
/// withdraw churn: its columns have been appended to and compacted, and
/// its dictionaries hold codes of withdrawn facts.
fn churned(seed: u64, size: usize) -> LiveWarehouse {
    churn(seed, size, |_| {})
}

/// Builds [`churned`]'s live warehouse, calling `on_epoch` with the
/// initial snapshot and with every snapshot the trace publishes.
fn churn(seed: u64, size: usize, mut on_epoch: impl FnMut(&Arc<EpochSnapshot>)) -> LiveWarehouse {
    let (pop, offers) = population_and_offers(seed, size);
    let trace = generate_ingest_trace(
        &pop,
        &IngestTraceConfig { days: 2, batches_per_day: 2, withdraw_fraction: 0.3, seed },
        offers.len() as u64 + 1,
        TimeSlot::EPOCH + SlotSpan::days(1),
    );
    let live = LiveWarehouse::new(pop, &offers);
    on_epoch(&live.snapshot());
    live.assign_schedules(&schedules(&offers));
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
            IngestEvent::Publish => on_epoch(&live.publish()),
        }
    }
    on_epoch(&live.publish());
    live
}

/// A member pick: a level (modulo the hierarchy depth), then a member
/// of that level — so shallow members, which most facts fall under,
/// are drawn as often as deep ones.
type Pick = (usize, usize);

/// Raw pivot inputs: row and column dimension, row and column member
/// picks, and the base query's measure, member filters, status bits
/// (a restriction to the statuses of the low six bits when bit 6 is
/// set) and optional time range.
type PivotInputs =
    ((usize, usize), (Vec<Pick>, Vec<Pick>), (usize, Vec<(usize, Pick)>, u32), Vec<(i64, i64)>);

fn pivot_inputs() -> impl Strategy<Value = PivotInputs> {
    let pick = || (0usize..4, 0usize..10_000);
    let picks = move || proptest::collection::vec(pick(), 0..6);
    (
        (0usize..6, 0usize..6),
        (picks(), picks()),
        (0usize..9, proptest::collection::vec((0usize..6, pick()), 0..3), 0u32..256),
        proptest::collection::vec((-100i64..200, 1i64..300), 0..2),
    )
}

/// The member of `dim` that `pick` names.
fn member(dw: &Warehouse, dim: Dimension, (level, pick): Pick) -> MemberId {
    let h = dw.hierarchy(dim);
    let level = (level % h.depth()) as u8;
    let members: Vec<MemberId> = h.at_level(level).map(|m| m.id).collect();
    members[pick % members.len()]
}

/// Builds the pivot the inputs describe: its axes may mix levels,
/// overlap, repeat a member, share one dimension, or name members no
/// fact falls under.
fn pivot_spec(dw: &Warehouse, inputs: &PivotInputs) -> PivotSpec {
    let ((row_dim, col_dim), (row_picks, col_picks), (measure, filters, status_bits), time) =
        inputs;
    let axis = |dim: usize, picks: &[Pick]| {
        let dimension = Dimension::ALL[dim];
        PivotAxis { dimension, members: picks.iter().map(|&p| member(dw, dimension, p)).collect() }
    };
    let mut base = Query::new(Measure::ALL[*measure]);
    for &(dim, pick) in filters {
        base = base.filter(Dimension::ALL[dim], member(dw, Dimension::ALL[dim], pick));
    }
    if status_bits & 64 != 0 {
        let statuses: Vec<OfferState> = OfferState::ALL
            .into_iter()
            .enumerate()
            .filter(|(i, _)| status_bits & (1 << i) != 0)
            .map(|(_, s)| s)
            .collect();
        base = base.statuses(statuses);
    }
    if let Some(&(from, len)) = time.first() {
        base = base.time_range(TimeSlot::new(from), TimeSlot::new(from + len));
    }
    PivotSpec { rows: axis(*row_dim, row_picks), columns: axis(*col_dim, col_picks), base }
}

/// A window pick: a kind (below [`WINDOW_KINDS`]), a pick among slots,
/// days or length classes, and a width.
type WindowPick = (usize, usize, i64);

/// The kinds of window [`window`] builds.
const WINDOW_KINDS: usize = 10;

/// The window `pick` names on `dw`: one slot, a slot inside the lookback
/// of a length class's longest extent, that lookback's far edge (the
/// extent's last slot), a whole day, a window before the first fact or
/// after the last, an empty or inverted window, `i64` extreme bounds,
/// or any window near the facts.
fn window(dw: &Warehouse, (kind, pick, width): WindowPick) -> (TimeSlot, TimeSlot) {
    let extents: Vec<(i64, i64)> =
        dw.offers().iter().map(|fo| (fo.extent().0.index(), fo.extent().1.index())).collect();
    let first = extents.iter().map(|e| e.0).min().unwrap_or(0);
    let last = extents.iter().map(|e| e.1).max().unwrap_or(0);
    let slot = first - 3 + pick as i64 % (last - first + 6);
    // The longest extent of the picked length class (⌊log₂ length⌋).
    let class_of = |(lo, hi): (i64, i64)| (hi - lo).ilog2();
    let mut classes: Vec<u32> = extents.iter().map(|&e| class_of(e)).collect();
    classes.sort_unstable();
    classes.dedup();
    let class = classes.get(pick % classes.len().max(1)).copied();
    let longest = extents
        .iter()
        .copied()
        .filter(|&e| Some(class_of(e)) == class)
        .max_by_key(|&(lo, hi)| (hi - lo, lo))
        .unwrap_or((0, 1));
    let at = TimeSlot::new;
    match kind {
        0 => (at(slot), at(slot + 1)),
        1 => {
            let from = longest.0 + 1 + width % (longest.1 - longest.0 - 1).max(1);
            (at(from), at(from + 1 + width % 5))
        }
        2 => (at(longest.1 - 1), at(longest.1 + width % 3)),
        3 => {
            let day = dw.first_day() + SlotSpan::days((pick % 4) as i64);
            (day, day + SlotSpan::days(1))
        }
        4 => (at(first - 1 - width), at(first)),
        5 => (at(last), at(last + 1 + width)),
        6 => (at(slot), at(slot)),
        7 => (at(slot + 1 + width), at(slot)),
        8 => [(at(i64::MIN), at(slot)), (at(slot), at(i64::MAX)), (at(i64::MIN), at(i64::MAX))]
            [pick % 3],
        _ => (at(slot), at(slot + width)),
    }
}

/// Every picked window, with and without a direction, selects through
/// [`Warehouse::view`] exactly the offers of the index-free scan, in fact
/// order; empty and inverted windows select nothing.
fn windows_equal_the_scan(
    dw: &Warehouse,
    picks: &[WindowPick],
    context: impl Display,
) -> Result<(), TestCaseError> {
    for &pick in picks {
        let (from, to) = window(dw, pick);
        for direction in [None, Some(Direction::Consumption), Some(Direction::Production)] {
            let builder = LoaderQuery::builder().window(from, to);
            let q = match direction {
                Some(d) => builder.direction(d).build(),
                None => builder.build(),
            };
            let view: Vec<FlexOfferId> = dw.view(&q).ids().collect();
            let scan: Vec<FlexOfferId> = dw.load_offers_scan(&q).iter().map(|fo| fo.id()).collect();
            prop_assert_eq!(&view, &scan, "{}: {:?}", context, q);
            prop_assert!(from < to || view.is_empty(), "{}: {:?} selected offers", context, q);
        }
    }
    Ok(())
}

/// Every cell of the one-pass pivot equals, bit for bit, the `eval`
/// total of its row member ∧ column member ∧ base query.
fn pivot_matches_per_cell_eval(dw: &Warehouse, spec: &PivotSpec) -> Result<(), TestCaseError> {
    let table = dw.pivot(spec).unwrap();
    prop_assert_eq!(&table.row_members, &spec.rows.members);
    prop_assert_eq!(&table.col_members, &spec.columns.members);
    prop_assert_eq!(table.cells.len(), spec.rows.members.len());
    for (r, &row) in spec.rows.members.iter().enumerate() {
        prop_assert_eq!(table.cells[r].len(), spec.columns.members.len());
        for (c, &col) in spec.columns.members.iter().enumerate() {
            let q = spec
                .base
                .clone()
                .filter(spec.rows.dimension, row)
                .filter(spec.columns.dimension, col);
            let expected = dw.eval(&q).unwrap().total;
            prop_assert_eq!(
                table.cells[r][c].to_bits(),
                expected.to_bits(),
                "cell ({}, {}) = {} but eval gives {}",
                row,
                col,
                table.cells[r][c],
                expected
            );
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// For every dimension and level, group values sum to the ungrouped
    /// total (rollup consistency: children partition the parent).
    #[test]
    fn rollups_partition_totals(seed in 0u64..50, measure_idx in 0usize..7) {
        // Skip average measures: averages do not partition.
        let measure = [
            Measure::Count,
            Measure::ScheduledEnergy,
            Measure::ExecutedEnergy,
            Measure::PlanDeviation,
            Measure::BalancingPotential,
            Measure::TotalMaxEnergy,
            Measure::EnergyFlexibility,
        ][measure_idx];
        let dw = warehouse(seed, 80);
        let total = dw.eval(&Query::new(measure)).unwrap().total;
        for dim in Dimension::ALL {
            let depth = dw.hierarchy(dim).depth() as u8;
            for level in 0..depth {
                let r = dw.eval(&Query::new(measure).group_by(dim, level)).unwrap();
                let sum: f64 = r.groups.iter().map(|(_, v)| v).sum();
                prop_assert!((sum - total).abs() < 1e-6,
                    "{dim} level {level}: {sum} != {total}");
            }
        }
    }

    /// Filtering on a member never yields more than its parent; the
    /// children of any member sum to the member itself.
    #[test]
    fn hierarchical_filters_are_monotone(seed in 0u64..50) {
        let dw = warehouse(seed, 60);
        for dim in Dimension::ALL {
            let h = dw.hierarchy(dim);
            let members: Vec<_> = h.members().iter().map(|m| m.id).collect();
            for m in members {
                let mine = dw
                    .eval(&Query::new(Measure::Count).filter(dim, m))
                    .unwrap()
                    .total;
                if let Some(parent) = h.member(m).unwrap().parent {
                    let parents = dw
                        .eval(&Query::new(Measure::Count).filter(dim, parent))
                        .unwrap()
                        .total;
                    prop_assert!(mine <= parents + 1e-9);
                }
                let child_sum: f64 = h
                    .children(m)
                    .map(|c| {
                        dw.eval(&Query::new(Measure::Count).filter(dim, c.id))
                            .unwrap()
                            .total
                    })
                    .sum();
                if h.children(m).next().is_some() {
                    prop_assert!((child_sum - mine).abs() < 1e-9,
                        "{dim} member {m}: children {child_sum} != {mine}");
                }
            }
        }
    }

    /// Status filters partition the fact count.
    #[test]
    fn status_filters_partition(seed in 0u64..50) {
        let dw = warehouse(seed, 70);
        let total = dw.eval(&Query::new(Measure::Count)).unwrap().total;
        let sum: f64 = OfferState::ALL
            .iter()
            .map(|&s| {
                dw.eval(&Query::new(Measure::Count).statuses(vec![s])).unwrap().total
            })
            .sum();
        prop_assert!((sum - total).abs() < 1e-9);
    }

    /// Time-range filters tile: adjacent windows sum to the union.
    #[test]
    fn time_ranges_tile(seed in 0u64..50, split in 0i64..200) {
        let dw = warehouse(seed, 60);
        let lo = TimeSlot::new(-1_000);
        let mid = TimeSlot::new(split);
        let hi = TimeSlot::new(100_000);
        let q = |a: TimeSlot, b: TimeSlot| {
            dw.eval(&Query::new(Measure::Count).time_range(a, b)).unwrap().total
        };
        prop_assert_eq!(q(lo, mid) + q(mid, hi), q(lo, hi));
    }

    /// MDX parse → Display → parse is the identity on generated queries.
    #[test]
    fn mdx_display_round_trip(
        col_dim in 0usize..6,
        row_dim in 0usize..6,
        with_measure in proptest::bool::ANY,
        measure_idx in 0usize..9,
    ) {
        let dims = ["Time", "Geography", "Grid", "EnergyType", "Prosumer", "Appliance"];
        let mut text = format!(
            "SELECT {{ [{}].Children }} ON COLUMNS, {{ [{}].Children }} ON ROWS FROM [FlexOffers]",
            dims[col_dim], dims[row_dim]
        );
        if with_measure {
            text.push_str(&format!(
                " WHERE ( [Measures].[{}] )",
                Measure::ALL[measure_idx].name()
            ));
        }
        let ast = mdx::parse(&text).unwrap();
        let printed = ast.to_string();
        prop_assert_eq!(mdx::parse(&printed).unwrap(), ast);
    }

    /// Evaluating an MDX query with different axis dimensions always
    /// yields a table whose cell sum equals the equivalent filtered
    /// count.
    #[test]
    fn mdx_cells_sum_to_eval(seed in 0u64..25, row_dim in 0usize..6) {
        let dims = ["Time", "Geography", "Grid", "EnergyType", "Prosumer", "Appliance"];
        if dims[row_dim] == "Time" {
            // Time on both axes would double-count; skip.
            return Ok(());
        }
        let dw = warehouse(seed, 50);
        let text = format!(
            "SELECT {{ [Time].Children }} ON COLUMNS, {{ [{}].Children }} ON ROWS FROM [FlexOffers]",
            dims[row_dim]
        );
        let table = dw.mdx(&text).unwrap();
        let total: f64 = table.cells.iter().flatten().sum();
        let expected = dw.eval(&Query::new(Measure::Count)).unwrap().total;
        prop_assert!((total - expected).abs() < 1e-9, "{total} != {expected}");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// One-pass pivot cells equal per-cell `eval` totals bit for bit on
    /// a bulk-loaded warehouse.
    #[test]
    fn pivot_cells_equal_per_cell_eval(seed in 0u64..40, inputs in pivot_inputs()) {
        let dw = lifecycle_warehouse(seed, 60);
        pivot_matches_per_cell_eval(&dw, &pivot_spec(&dw, &inputs))?;
    }

    /// The same on a live warehouse snapshot after ingest and withdraw
    /// churn.
    #[test]
    fn pivot_cells_equal_per_cell_eval_after_churn(seed in 0u64..40, inputs in pivot_inputs()) {
        let live = churned(seed, 40);
        let snapshot = live.snapshot();
        let dw = snapshot.warehouse();
        pivot_matches_per_cell_eval(dw, &pivot_spec(dw, &inputs))?;
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Time-indexed window loads equal the scan on a bulk-loaded
    /// warehouse and on every live snapshot of a churn trace, and a
    /// snapshot held from before the churn keeps answering from its own
    /// index.
    #[test]
    fn window_views_equal_the_scan(
        seed in 0u64..40,
        picks in proptest::collection::vec((0usize..WINDOW_KINDS, 0usize..10_000, 0i64..200), 8..16),
    ) {
        windows_equal_the_scan(&lifecycle_warehouse(seed, 60), &picks, "bulk")?;
        let mut held: Option<Arc<EpochSnapshot>> = None;
        let mut outcome = Ok(());
        churn(seed, 40, |snapshot| {
            let held = held.get_or_insert_with(|| Arc::clone(snapshot));
            if outcome.is_ok() {
                outcome = windows_equal_the_scan(snapshot.warehouse(), &picks, snapshot.epoch())
                    .and_then(|()| {
                        windows_equal_the_scan(held.warehouse(), &picks, "held epoch 0")
                    });
            }
        });
        outcome?;
    }
}
