//! The full MIRABEL enterprise day (Section 2 of the paper): collect
//! flex-offers, forecast, aggregate, schedule, trade, disaggregate,
//! execute, settle — then render the Figure 1 balancing curves and the
//! Figure 6 dashboard from the resulting warehouse.
//!
//! ```sh
//! cargo run --example enterprise_day_ahead
//! ```

use mirabel::dw::Warehouse;
use mirabel::market::{Enterprise, EnterpriseConfig};
use mirabel::session::views::dashboard::{self, DashboardOptions};
use mirabel::timeseries::{Granularity, SlotSpan, TimeSlot};
use mirabel::viz::render_svg;
use mirabel::workload::{Scenario, ScenarioConfig};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let scenario = Scenario::generate(&ScenarioConfig {
        prosumers: 2_000,
        res_share: 0.5,
        ..Default::default()
    });
    println!(
        "scenario: {} prosumers, {} flex-offers, RES share {:.0}%",
        scenario.population.prosumers().len(),
        scenario.offers.len(),
        scenario.config.res_share * 100.0
    );

    let report = Enterprise::new(EnterpriseConfig::default()).run(&scenario)?;
    println!("\n{report}\n");
    println!(
        "plan deviations (realization vs plan): L1 {:.1} kWh, peak {:.2} kWh",
        report.realization_deviation.l1, report.realization_deviation.peak
    );

    // Figure 1: summarize the before/after balance per 2-hour block.
    println!("\nFigure 1 — residual |target - flexible load| per 2-hour block (kWh):");
    println!("{:>6} {:>12} {:>12}", "block", "baseline", "mirabel");
    let blocks = 12;
    let per = report.target.len() / blocks;
    for b in 0..blocks {
        let lo = report.target.start() + SlotSpan::slots((b * per) as i64);
        let hi = report.target.start() + SlotSpan::slots(((b + 1) * per) as i64);
        let t = report.target.window(lo, hi);
        let base = report.baseline_load.window(lo, hi);
        let plan = report.scheduled_load.window(lo, hi);
        println!(
            "{:>6} {:>12.1} {:>12.1}",
            format!("{:02}:00", b * 2),
            (&t - &base).l1_norm(),
            (&t - &plan).l1_norm()
        );
    }

    // Load the lifecycle-complete offers into the warehouse and render
    // the dashboard over the evening hours.
    let dw = Warehouse::load(&scenario.population, &report.offers);
    let from = TimeSlot::EPOCH + SlotSpan::hours(18);
    let scene = dashboard::build(
        &dw,
        &DashboardOptions {
            width: 900.0,
            height: 420.0,
            from,
            to: from + SlotSpan::hours(4),
            granularity: Granularity::Hour,
        },
    );
    std::fs::create_dir_all("out")?;
    std::fs::write("out/enterprise_dashboard.svg", render_svg(&scene))?;
    println!("\nwrote out/enterprise_dashboard.svg");
    Ok(())
}
