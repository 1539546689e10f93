//! Cross-crate integration tests: full pipelines spanning workload →
//! planning → warehouse → views, as a downstream user would compose
//! them.

use std::sync::Arc;

use mirabel::aggregation::{AggregationParams, Aggregator};
use mirabel::dw::{Dimension, LoaderQuery, Measure, Query, Warehouse};
use mirabel::flexoffer::OfferState;
use mirabel::market::{Enterprise, EnterpriseConfig};
use mirabel::session::views::{
    annotate, basic, dashboard, map, pivot, profile, schematic, tooltip, DetailLayout,
};
use mirabel::session::{Command, Outcome, Session, VisualOffer};
use mirabel::timeseries::{Granularity, SlotSpan, TimeSlot};
use mirabel::viz::{render_ascii, render_svg, Point, Raster, Rect};
use mirabel::workload::{Scenario, ScenarioConfig};

fn scenario() -> Scenario {
    Scenario::generate(&ScenarioConfig { prosumers: 300, seed: 99, ..Default::default() })
}

/// The full enterprise day flows into the warehouse, and the five
/// Section 3 measures are all consistent with the planning outcome.
#[test]
fn enterprise_day_populates_all_measures() {
    let sc = scenario();
    let report = Enterprise::new(EnterpriseConfig::default()).run(&sc).unwrap();
    let dw = Warehouse::load(&sc.population, &report.offers);

    let total = dw.eval(&Query::new(Measure::Count)).unwrap().total as usize;
    assert_eq!(total, sc.offers.len());

    let executed =
        dw.eval(&Query::new(Measure::Count).statuses(vec![OfferState::Executed])).unwrap().total;
    assert!(executed > 0.0);

    let scheduled = dw.eval(&Query::new(Measure::ScheduledEnergy)).unwrap().total;
    let executed_kwh = dw.eval(&Query::new(Measure::ExecutedEnergy)).unwrap().total;
    let deviation = dw.eval(&Query::new(Measure::PlanDeviation)).unwrap().total;
    assert!(scheduled > 0.0);
    assert!(executed_kwh > 0.0);
    // The realization differs from the plan by exactly the recorded
    // deviation magnitudes (L1, in kWh).
    assert!(deviation > 0.0);
    assert!((executed_kwh - scheduled).abs() <= deviation + 1e-6);

    let potential = dw.eval(&Query::new(Measure::BalancingPotential)).unwrap().total;
    assert!(potential > 0.0);
}

/// Aggregate → schedule → disaggregate → load into DW → the scheduled
/// energy rollup equals the sum over individual schedules.
#[test]
fn aggregation_pipeline_is_exact_through_the_warehouse() {
    let sc = scenario();
    let mut offers = sc.offers.clone();
    for fo in offers.iter_mut() {
        fo.accept().unwrap();
    }
    let aggregator = Aggregator::new(AggregationParams::default());
    let result = aggregator.aggregate(&offers).unwrap();

    // Schedule every aggregate at its earliest start, minimum energies.
    for agg in &result.aggregates {
        let schedule = mirabel::flexoffer::Schedule::new(
            agg.offer().earliest_start(),
            agg.offer().profile().slices().iter().map(|s| s.min).collect(),
        );
        for (id, member_schedule) in aggregator.disaggregate(agg, &schedule).unwrap() {
            offers.iter_mut().find(|fo| fo.id() == id).unwrap().assign(member_schedule).unwrap();
        }
    }

    let dw = Warehouse::load(&sc.population, &offers);
    let rollup = dw.eval(&Query::new(Measure::ScheduledEnergy)).unwrap().total;
    let direct: f64 = offers.iter().filter_map(|fo| fo.schedule()).map(|s| s.total().kwh()).sum();
    assert!((rollup - direct).abs() < 1e-6, "rollup {rollup} != direct {direct}");
}

/// Every figure's view renders non-trivially from one shared warehouse,
/// in SVG, raster and ASCII backends.
#[test]
fn all_views_render_from_one_warehouse() {
    let sc = scenario();
    let report = Enterprise::new(EnterpriseConfig::default()).run(&sc).unwrap();
    let dw = Warehouse::load(&sc.population, &report.offers);
    let visual = VisualOffer::from_offers(&report.offers[..200.min(report.offers.len())]);

    let scenes = vec![
        ("fig2", annotate::build(&visual[0], 900.0, 420.0)),
        ("fig3", map::build(&dw, sc.population.geography(), &Default::default())),
        ("fig4", schematic::build(&dw, sc.population.grid(), &Default::default())),
        (
            "fig6",
            dashboard::build(
                &dw,
                &dashboard::DashboardOptions {
                    width: 900.0,
                    height: 420.0,
                    from: TimeSlot::EPOCH + SlotSpan::hours(12),
                    to: TimeSlot::EPOCH + SlotSpan::hours(13) + SlotSpan::slots(1),
                    granularity: Granularity::QuarterHour,
                },
            ),
        ),
        ("fig8", basic::build(&visual, &Default::default())),
        ("fig9", profile::build(&visual, &Default::default())),
    ];
    for (name, scene) in scenes {
        assert!(scene.primitive_count() > 5, "{name} too small");
        let svg = render_svg(&scene);
        assert!(svg.starts_with("<svg"), "{name} svg");
        assert!(svg.ends_with("</svg>\n"), "{name} svg tail");
        // The rasterizer accepts every scene without panicking.
        let raster = Raster::render(&scene);
        assert!(raster.width() > 0);
        // ASCII too.
        let ascii = render_ascii(&scene, 80);
        assert!(!ascii.trim().is_empty(), "{name} ascii");
    }

    // The pivot view via MDX.
    let scene = pivot::build_mdx(
        &dw,
        "SELECT {[Time].Children} ON COLUMNS, {[Prosumer].Children} ON ROWS FROM [FlexOffers]",
        &Default::default(),
    )
    .unwrap();
    assert!(render_svg(&scene).contains("MDX"));
}

/// The interactive walk-through of Section 4, end to end: load, hover,
/// select, new tab, aggregate, hover the aggregate for provenance.
#[test]
fn section4_walkthrough() {
    let sc = scenario();
    let mut session = Session::new(Arc::new(Warehouse::load(&sc.population, &sc.offers)));

    // Load one day of everything.
    let query =
        LoaderQuery::builder().window(TimeSlot::EPOCH, TimeSlot::EPOCH + SlotSpan::days(2)).build();
    session.handle(Command::Load { query, title: "day 1".into() });
    let n = session.active_tab().unwrap().offers.len();
    assert!(n > 100);

    // Rectangle-select everything, open in a new tab.
    session.handle(Command::DragStart(Point::new(0.0, 0.0)));
    session.handle(Command::DragEnd(Point::new(960.0, 540.0)));
    session.handle(Command::ShowSelectionInNewTab);
    assert_eq!(session.tabs().len(), 2);
    let selected = session.active_tab().unwrap().offers.len();

    // Aggregate the new tab's offers with the Figure 11 tools.
    let Outcome::Aggregated { stats, .. } = session.handle(Command::Aggregate) else {
        panic!("aggregation rejected");
    };
    assert_eq!(stats.input_count, selected);
    assert!(stats.reduction_factor > 1.0);
    assert_eq!(session.active_tab().unwrap().offers.len(), stats.output_count);

    // Hover an aggregate: the tooltip mentions the member count.
    let (target, expect_aggregate) = {
        let tab = session.active_tab().unwrap();
        let layout = tab.layout();
        let idx = tab.offers.iter().position(|v| v.aggregated);
        match idx {
            Some(i) => (layout.profile_box(i, &tab.offers).center(), true),
            None => (Point::new(0.0, 0.0), false),
        }
    };
    if expect_aggregate {
        let info =
            session.handle(Command::PointerMove(target)).tooltip().expect("tooltip over aggregate");
        assert!(info.lines.iter().any(|l| l.contains("aggregate of")));
        // And the overlay builds without panicking.
        let tab = session.active_tab().unwrap();
        let overlay = tooltip::overlay(&tab.offers, &tab.layout(), &info);
        assert!(overlay.primitive_count() >= 4);
    }
}

/// Loader semantics (Figure 7): entity + interval filters compose, and
/// loaded offers always intersect the window.
#[test]
fn loader_respects_entity_and_window() {
    let sc = scenario();
    let dw = Warehouse::load(&sc.population, &sc.offers);
    let from = TimeSlot::EPOCH + SlotSpan::hours(18);
    let to = TimeSlot::EPOCH + SlotSpan::hours(26);
    let loaded = dw.load_offers(&LoaderQuery::builder().window(from, to).build());
    assert!(!loaded.is_empty());
    for fo in &loaded {
        let (lo, hi) = fo.extent();
        assert!(lo < to && from < hi, "{} outside window", fo.id());
    }
    let entity = loaded[0].prosumer();
    let only = dw.load_offers(&LoaderQuery::for_prosumer(entity).window(from, to).build());
    assert!(only.iter().all(|fo| fo.prosumer() == entity));
    assert!(only.len() <= loaded.len());
}

/// The Section 3 compound query runs through both the programmatic API
/// and MDX with identical totals.
#[test]
fn mdx_agrees_with_programmatic_queries() {
    let sc = scenario();
    let mut offers = sc.offers.clone();
    for (i, fo) in offers.iter_mut().enumerate() {
        if i % 2 == 0 {
            fo.accept().unwrap();
        }
    }
    let dw = Warehouse::load(&sc.population, &offers);
    let geo = dw.hierarchy(Dimension::Geography);
    let region = geo.member_by_name("Sjælland").unwrap().id;

    let direct = dw
        .eval(
            &Query::new(Measure::Count)
                .filter(Dimension::Geography, region)
                .statuses(vec![OfferState::Accepted]),
        )
        .unwrap()
        .total;

    let table = dw
        .mdx(
            "SELECT {[Time].Children} ON COLUMNS, {[Geography].[Sjælland]} ON ROWS \
             FROM [FlexOffers] WHERE ([Status].[Accepted])",
        )
        .unwrap();
    let via_mdx: f64 = table.cells.iter().flatten().sum();
    assert_eq!(direct, via_mdx);
}

/// Rectangle selection on the rendered scene matches the offers whose
/// boxes intersect the rectangle geometrically.
#[test]
fn selection_matches_geometry() {
    let sc = scenario();
    let visual = VisualOffer::from_offers(&sc.offers[..80]);
    let options = basic::BasicViewOptions::default();
    let layout = DetailLayout::compute(&visual, options.width, options.height);
    let scene = basic::build_with_layout(&visual, &options, &layout);

    let query = Rect::new(200.0, 60.0, 300.0, 200.0);
    let hit: std::collections::BTreeSet<u64> =
        mirabel::viz::rect_query(&scene, query).into_iter().collect();
    let expected: std::collections::BTreeSet<u64> = (0..visual.len())
        .filter(|&i| layout.extent_box(i, &visual).intersects(&query))
        .map(|i| visual[i].id().raw())
        .collect();
    assert_eq!(hit, expected);
}
