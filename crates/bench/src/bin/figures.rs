//! Regenerates every figure of the paper as an SVG artefact under
//! `out/figures/` and prints the measured series behind each one.
//!
//! ```sh
//! cargo run -p mirabel-bench --bin figures           # all figures
//! cargo run -p mirabel-bench --bin figures -- --fig 8
//! ```
//!
//! `--fig` takes a figure number from 1 to 11; anything else exits 2.

use std::time::Instant;

use mirabel_aggregation::AggregationParams;
use mirabel_bench::cli::Args;
use mirabel_bench::{offers, visual_offers, warehouse, write_figure};
use mirabel_dw::{LoaderQuery, Warehouse};
use mirabel_flexoffer::{Energy, FlexOffer, Schedule};
use mirabel_market::{Enterprise, EnterpriseConfig};
use mirabel_scheduling::{
    EarliestStartScheduler, GreedyScheduler, HillClimbScheduler, RandomScheduler, Scheduler,
};
use mirabel_session::views::{
    annotate, basic, dashboard, map, pivot, profile, schematic, tooltip, DetailLayout,
};
use mirabel_session::{AggregationTools, VisualOffer};
use mirabel_timeseries::{Granularity, SlotSpan, TimeSeries, TimeSlot};
use mirabel_viz::{
    hit_test, nice_ticks, palette, render_svg, GridIndex, Node, Point, Scene, Style,
};
use mirabel_workload::{Scenario, ScenarioConfig};

fn main() {
    let figures: [fn(); 11] = [
        figure1, figure2, figure3, figure4, figure5, figure6, figure7, figure8, figure9, figure10,
        figure11,
    ];
    let mut args = Args::parse("usage: figures [--fig N] (N = 1..11; all figures by default)", &[]);
    let only: Option<usize> = args.get("--fig");
    if only.is_some_and(|n| !(1..=figures.len()).contains(&n)) {
        args.usage();
    }
    args.finish();

    for (n, figure) in (1..).zip(figures) {
        if only.is_none_or(|o| o == n) {
            figure();
        }
    }
    if only.is_none() {
        ablations();
    }
    println!("\nartefacts in out/figures/");
}

/// Figure 1: loads before/after MIRABEL balancing, plus the scheduler
/// comparison backing the claim.
fn figure1() {
    println!("== Figure 1: balancing before/after ==");
    let scenario = Scenario::generate(&ScenarioConfig {
        prosumers: 2_000,
        res_share: 0.5,
        ..Default::default()
    });
    let report = Enterprise::new(EnterpriseConfig::default()).run(&scenario).unwrap();
    println!(
        "  baseline imbalance L1 {:>10.1} kWh   L2² {:>12.0}",
        report.baseline_imbalance.l1, report.baseline_imbalance.l2_sq
    );
    println!(
        "  mirabel  imbalance L1 {:>10.1} kWh   L2² {:>12.0}   ({:.1}% L1 improvement)",
        report.scheduled_imbalance.l1,
        report.scheduled_imbalance.l2_sq,
        report.improvement() * 100.0
    );

    // Render the two panels of Figure 1: curves before and after.
    let scene = balancing_panels(&report);
    let path = write_figure("fig1_balancing.svg", &render_svg(&scene)).unwrap();
    println!("  wrote {}", path.display());
}

fn balancing_panels(report: &mirabel_market::PlanReport) -> Scene {
    let (w, h) = (980.0, 420.0);
    let mut scene = Scene::new(w, h);
    let series = |s: &TimeSeries| -> Vec<f64> { s.values().to_vec() };
    let panels = [
        ("before MIRABEL", series(&report.baseline_load), 20.0),
        ("after MIRABEL", series(&report.scheduled_load), w / 2.0 + 10.0),
    ];
    let res = series(&report.res_supply);
    let base = series(&report.base_load);
    let peak =
        res.iter().chain(base.iter()).chain(panels[0].1.iter()).cloned().fold(1.0f64, f64::max);
    for (title, flexible, x0) in panels {
        let pw = w / 2.0 - 30.0;
        let n = flexible.len().max(1);
        let x = |i: usize| x0 + i as f64 / n as f64 * pw;
        let y = |v: f64| h - 40.0 - v / peak * (h - 90.0);
        let poly = |vals: &[f64], color, width| Node::Polyline {
            points: vals.iter().enumerate().map(|(i, &v)| Point::new(x(i), y(v))).collect(),
            style: Style::stroked(color, width),
            tag: None,
        };
        scene.push(Node::group(
            title,
            vec![
                poly(&res, palette::STATUS_ACCEPTED, 1.5),
                poly(&base, palette::AXIS, 1.0),
                poly(&flexible, palette::SCHEDULE, 1.5),
                Node::text(Point::new(x0, 20.0), title, 11.0, palette::AXIS),
                Node::text(
                    Point::new(x0, h - 14.0),
                    "green RES / grey base / red flexible",
                    8.0,
                    palette::AXIS,
                ),
            ],
        ));
    }
    scene
}

/// Figure 2: the annotated structural-elements diagram.
fn figure2() {
    println!("== Figure 2: structural elements of a flex-offer ==");
    let midnight = TimeSlot::EPOCH + SlotSpan::days(31);
    let mut fo = FlexOffer::builder(1u64, 1u64)
        .creation_time(midnight - SlotSpan::hours(1))
        .acceptance_deadline(midnight - SlotSpan::hours(1))
        .assignment_deadline(midnight)
        .earliest_start(midnight + SlotSpan::hours(1))
        .latest_start(midnight + SlotSpan::hours(3))
        .slices(8, Energy::from_wh(400), Energy::from_wh(1_200))
        .build()
        .unwrap();
    fo.accept().unwrap();
    fo.assign(Schedule::new(midnight + SlotSpan::hours(2), vec![Energy::from_wh(800); 8])).unwrap();
    let v = VisualOffer::plain(fo);
    let scene = annotate::build(&v, 900.0, 420.0);
    let labels = scene.texts().len();
    let path = write_figure("fig2_structure.svg", &render_svg(&scene)).unwrap();
    println!("  {} labelled elements; wrote {}", labels, path.display());
}

/// Figure 3: the map view.
fn figure3() {
    println!("== Figure 3: map view ==");
    let (pop, dw) = warehouse(4_000, 1);
    let t = Instant::now();
    let scene = map::build(&dw, pop.geography(), &Default::default());
    println!(
        "  {} facts -> {} primitives in {:.1} ms",
        dw.columns().len(),
        scene.primitive_count(),
        t.elapsed().as_secs_f64() * 1e3
    );
    let path = write_figure("fig3_map.svg", &render_svg(&scene)).unwrap();
    println!("  wrote {}", path.display());
}

/// Figure 4: the schematic view.
fn figure4() {
    println!("== Figure 4: schematic view ==");
    let (pop, dw) = warehouse(4_000, 1);
    let t = Instant::now();
    let scene = schematic::build(&dw, pop.grid(), &Default::default());
    println!(
        "  grid of {} nodes -> {} primitives in {:.1} ms",
        pop.grid().nodes().len(),
        scene.primitive_count(),
        t.elapsed().as_secs_f64() * 1e3
    );
    let path = write_figure("fig4_schematic.svg", &render_svg(&scene)).unwrap();
    println!("  wrote {}", path.display());
}

/// Figure 5: the pivot view via MDX.
fn figure5() {
    println!("== Figure 5: pivot view ==");
    let (_, dw) = warehouse(2_000, 2);
    let mdx = "SELECT { [Time].Children } ON COLUMNS, \
               { [Prosumer].[All prosumers].Children } ON ROWS \
               FROM [FlexOffers] WHERE ( [Measures].[TotalMaxEnergy] )";
    let t = Instant::now();
    let table = dw.mdx(mdx).unwrap();
    println!(
        "  MDX over {} facts in {:.1} ms:",
        dw.columns().len(),
        t.elapsed().as_secs_f64() * 1e3
    );
    print!("{}", indent(&table.to_text()));
    let scene = pivot::build_mdx(&dw, mdx, &Default::default()).unwrap();
    let path = write_figure("fig5_pivot.svg", &render_svg(&scene)).unwrap();
    println!("  wrote {}", path.display());
}

/// Figure 6: the dashboard.
fn figure6() {
    println!("== Figure 6: dashboard ==");
    let (_, dw) = warehouse(4_000, 1);
    let from = TimeSlot::EPOCH + SlotSpan::hours(12);
    let opts = dashboard::DashboardOptions {
        width: 900.0,
        height: 420.0,
        from,
        to: from + SlotSpan::slots(5),
        granularity: Granularity::QuarterHour,
    };
    let data = dashboard::compute(&dw, &opts);
    let total: f64 = data.totals.iter().sum();
    println!(
        "  window 12:00-13:15: accepted {:.0}% assigned {:.0}% rejected {:.0}% of {}",
        data.totals[0] / total.max(1.0) * 100.0,
        data.totals[1] / total.max(1.0) * 100.0,
        data.totals[2] / total.max(1.0) * 100.0,
        total
    );
    let scene = dashboard::build(&dw, &opts);
    let path = write_figure("fig6_dashboard.svg", &render_svg(&scene)).unwrap();
    println!("  wrote {}", path.display());
}

/// Figure 7: loader query latency across warehouse sizes.
fn figure7() {
    println!("== Figure 7: loader ==");
    println!("  {:>9} {:>12} {:>14} {:>12}", "facts", "load ms", "entity query", "window query");
    for prosumers in [500usize, 2_000, 8_000, 32_000] {
        let (pop, raw) = offers(prosumers, 1);
        let t = Instant::now();
        let dw = Warehouse::load(&pop, &raw);
        let load_ms = t.elapsed().as_secs_f64() * 1e3;
        let entity = raw[0].prosumer();
        let window = LoaderQuery::builder()
            .window(TimeSlot::EPOCH, TimeSlot::EPOCH + SlotSpan::days(1))
            .build();
        let t = Instant::now();
        let a = dw
            .load_offers(
                &LoaderQuery::for_prosumer(entity)
                    .window(TimeSlot::EPOCH, TimeSlot::EPOCH + SlotSpan::days(1))
                    .build(),
            )
            .len();
        let entity_ms = t.elapsed().as_secs_f64() * 1e3;
        let t = Instant::now();
        let b = dw.load_offers(&window).len();
        let window_ms = t.elapsed().as_secs_f64() * 1e3;
        println!(
            "  {:>9} {:>10.1}ms {:>10.2}ms ({a}) {:>8.2}ms ({b})",
            dw.columns().len(),
            load_ms,
            entity_ms,
            window_ms
        );
    }
}

/// Figure 8: basic view scaling.
fn figure8() {
    println!("== Figure 8: basic view ==");
    println!("  {:>8} {:>10} {:>12} {:>8}", "offers", "build ms", "primitives", "lanes");
    for n in [1_000usize, 10_000, 50_000, 100_000] {
        let vs = visual_offers(n);
        let t = Instant::now();
        let layout = DetailLayout::compute(&vs, 960.0, 540.0);
        let scene = basic::build_with_layout(&vs, &Default::default(), &layout);
        println!(
            "  {:>8} {:>8.1}ms {:>12} {:>8}",
            n,
            t.elapsed().as_secs_f64() * 1e3,
            scene.primitive_count(),
            layout.lane_count
        );
        if n == 10_000 {
            let path = write_figure("fig8_basic.svg", &render_svg(&scene)).unwrap();
            println!("  wrote {}", path.display());
        }
    }
}

/// Figure 9: profile view scaling vs the basic view.
fn figure9() {
    println!("== Figure 9: profile view ==");
    println!("  {:>8} {:>12} {:>12} {:>7}", "offers", "basic ms", "profile ms", "ratio");
    for n in [500usize, 2_000, 10_000, 50_000] {
        let vs = visual_offers(n);
        let t = Instant::now();
        let _ = basic::build(&vs, &Default::default());
        let basic_ms = t.elapsed().as_secs_f64() * 1e3;
        let t = Instant::now();
        let scene = profile::build(&vs, &Default::default());
        let profile_ms = t.elapsed().as_secs_f64() * 1e3;
        println!(
            "  {:>8} {:>10.1}ms {:>10.1}ms {:>6.1}x",
            n,
            basic_ms,
            profile_ms,
            profile_ms / basic_ms.max(1e-6)
        );
        if n == 2_000 {
            let path = write_figure("fig9_profile.svg", &render_svg(&scene)).unwrap();
            println!("  wrote {}", path.display());
        }
    }
}

/// Figure 10: tooltip probe latency, linear vs indexed.
fn figure10() {
    println!("== Figure 10: on-the-fly information ==");
    let vs = visual_offers(50_000);
    let layout = DetailLayout::compute(&vs, 960.0, 540.0);
    let scene = basic::build_with_layout(&vs, &Default::default(), &layout);
    let probes: Vec<Point> = (0..200)
        .map(|i| Point::new(60.0 + (i % 20) as f64 * 45.0, 30.0 + (i / 20) as f64 * 50.0))
        .collect();
    let t = Instant::now();
    let linear_hits: usize = probes.iter().map(|&p| hit_test(&scene, p).len()).sum();
    let linear_us = t.elapsed().as_secs_f64() * 1e6 / probes.len() as f64;
    let t = Instant::now();
    let index = GridIndex::build(&scene, 24.0);
    let build_ms = t.elapsed().as_secs_f64() * 1e3;
    let t = Instant::now();
    let indexed_hits: usize = probes.iter().map(|&p| index.hit(p).len()).sum();
    let indexed_us = t.elapsed().as_secs_f64() * 1e6 / probes.len() as f64;
    println!(
        "  50k-offer scene: linear probe {linear_us:.0} µs, indexed probe {indexed_us:.1} µs \
         (index build {build_ms:.1} ms, {}x speedup; {} vs {} hits)",
        (linear_us / indexed_us.max(1e-9)) as u64,
        linear_hits,
        indexed_hits
    );

    // Artefact: a small view with the tooltip overlay visible.
    let small: Vec<VisualOffer> = vs[..40].to_vec();
    let layout = DetailLayout::compute(&small, 960.0, 540.0);
    let mut small_scene = basic::build_with_layout(&small, &Default::default(), &layout);
    let c = layout.profile_box(5, &small).center();
    if let Some(info) = tooltip::probe(&small_scene, &small, c) {
        small_scene.push(tooltip::overlay(&small, &layout, &info));
    }
    let path = write_figure("fig10_tooltip.svg", &render_svg(&small_scene)).unwrap();
    println!("  wrote {}", path.display());
}

/// Figure 11: the aggregation parameter sweep.
fn figure11() {
    println!("== Figure 11: aggregation tools ==");
    let (_, raw) = offers(25_000, 1);
    println!("  {} offers", raw.len());
    println!(
        "  {:>8} {:>9} {:>11} {:>12} {:>10}",
        "EST/TFT", "objects", "reduction", "flex lost", "agg ms"
    );
    let mut tools = AggregationTools::new();
    for tol in [1i64, 2, 4, 8, 16, 32] {
        tools.set_params(AggregationParams::new(tol, tol));
        let t = Instant::now();
        let outcome = tools.apply(&raw).unwrap();
        println!(
            "  {:>8} {:>9} {:>10.2}x {:>12} {:>8.1}ms",
            tol,
            outcome.output_count,
            outcome.reduction_factor,
            outcome.flexibility_loss_slots,
            t.elapsed().as_secs_f64() * 1e3
        );
    }
    tools.set_params(AggregationParams::default());
    let outcome = tools.apply(&raw[..2_000]).unwrap();
    let scene = basic::build(&outcome.display, &Default::default());
    let path = write_figure("fig11_aggregated.svg", &render_svg(&scene)).unwrap();
    println!("  wrote {}", path.display());
}

/// The A1–A4 ablation series.
fn ablations() {
    println!("== Ablations ==");

    // A1: pretty scales vs naive — fraction of "nice" tick steps.
    let mut nice = 0;
    let total = 500;
    for i in 0..total {
        let lo = (i as f64 * 13.7) % 900.0;
        let hi = lo + 0.5 + (i as f64 * 7.31) % 400.0;
        let (_, step) = nice_ticks(lo, hi, 6);
        let mag = 10f64.powf(step.log10().floor());
        let norm = (step / mag * 1e6).round() / 1e6;
        if [1.0, 2.0, 5.0, 10.0].contains(&norm) {
            nice += 1;
        }
    }
    println!("  A1 pretty scales: {nice}/{total} random domains get 1/2/5 steps (naive: 0)");

    // A2: incremental chunk latency vs monolithic.
    let vs = visual_offers(50_000);
    let options = basic::BasicViewOptions::default();
    let layout = DetailLayout::compute(&vs, options.width, options.height);
    let t = Instant::now();
    let _ = basic::build_with_layout(&vs, &options, &layout);
    let mono_ms = t.elapsed().as_secs_f64() * 1e3;
    let t = Instant::now();
    let mut inc =
        mirabel_viz::Incremental::new(Scene::new(options.width, options.height), vs.len(), |i| {
            basic::offer_nodes_for_bench(&layout, i, &vs)
        });
    inc.step(1_000);
    let chunk_ms = t.elapsed().as_secs_f64() * 1e3;
    println!(
        "  A2 incremental: monolithic 50k build {mono_ms:.0} ms vs {chunk_ms:.1} ms per \
         1000-offer chunk (worst stall bound)"
    );

    // A3: lanes heap vs first-fit.
    let intervals: Vec<(i64, i64)> = vs
        .iter()
        .map(|v| (v.offer.earliest_start().index(), v.offer.latest_end().index()))
        .collect();
    let t = Instant::now();
    let heap = mirabel_viz::assign_lanes(&intervals);
    let heap_ms = t.elapsed().as_secs_f64() * 1e3;
    let t = Instant::now();
    let ff = mirabel_viz::assign_lanes_first_fit(&intervals);
    let ff_ms = t.elapsed().as_secs_f64() * 1e3;
    println!(
        "  A3 lanes (50k): heap {heap_ms:.1} ms / first-fit {ff_ms:.1} ms, both {} lanes",
        heap.lane_count.max(ff.lane_count)
    );

    // A4: scheduler league table on one workload.
    let (_, mut raw) = offers(400, 1);
    for fo in raw.iter_mut() {
        fo.accept().unwrap();
    }
    let target = TimeSeries::from_fn(TimeSlot::EPOCH, 96, |i| {
        let hour = i as f64 / 4.0;
        60.0 * (-(hour - 13.0) * (hour - 13.0) / 18.0).exp()
    });
    println!("  A4 schedulers on one day (lower L2² is better):");
    let schedulers: Vec<Box<dyn Scheduler>> = vec![
        Box::new(EarliestStartScheduler),
        Box::new(RandomScheduler::new(5)),
        Box::new(GreedyScheduler),
        Box::new(HillClimbScheduler::new(300, 5)),
    ];
    for s in schedulers {
        let mut copy = raw.clone();
        let t = Instant::now();
        let r = s.schedule(&mut copy, &target).unwrap();
        println!(
            "    {:<18} L1 {:>8.1}  L2² {:>12.1}  ({:.0} ms)",
            s.name(),
            r.after.l1,
            r.after.l2_sq,
            t.elapsed().as_secs_f64() * 1e3
        );
    }
}

fn indent(text: &str) -> String {
    text.lines().map(|l| format!("    {l}\n")).collect()
}
