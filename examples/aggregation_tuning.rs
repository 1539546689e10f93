//! Interactive tuning of the aggregation parameters (Figure 11): sweep
//! the EST/TFT tolerances, watch the on-screen object count shrink and
//! the flexibility loss grow, and render before/after basic views.
//!
//! ```sh
//! cargo run --example aggregation_tuning
//! ```

use mirabel::aggregation::AggregationParams;
use mirabel::session::views::basic::{self, BasicViewOptions};
use mirabel::session::{AggregationTools, VisualOffer};
use mirabel::viz::render_svg;
use mirabel::workload::{generate_offers, OfferConfig, Population, PopulationConfig};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let population =
        Population::generate(&PopulationConfig { size: 800, seed: 11, household_share: 0.8 });
    let offers = generate_offers(&population, &OfferConfig::default());
    println!("{} flex-offers before aggregation\n", offers.len());

    println!(
        "{:>8} {:>8} {:>9} {:>11} {:>12}",
        "EST tol", "TFT tol", "objects", "reduction", "flex lost"
    );
    let mut tools = AggregationTools::new();
    for tol in [1i64, 2, 4, 8, 16, 32] {
        tools.set_params(AggregationParams::new(tol, tol));
        let outcome = tools.apply(&offers)?;
        println!(
            "{:>8} {:>8} {:>9} {:>10.2}x {:>12}",
            tol,
            tol,
            outcome.output_count,
            outcome.reduction_factor,
            outcome.flexibility_loss_slots
        );
    }

    // Render before/after with the one-hour tolerance the tool defaults
    // to — the visual effect of Figure 11's "apply".
    tools.set_params(AggregationParams::default());
    let outcome = tools.apply(&offers)?;
    println!("\napplied defaults: {outcome}");

    let before = basic::build(&VisualOffer::from_offers(&offers), &BasicViewOptions::default());
    let after = basic::build(&outcome.display, &BasicViewOptions::default());
    std::fs::create_dir_all("out")?;
    std::fs::write("out/aggregation_before.svg", render_svg(&before))?;
    std::fs::write("out/aggregation_after.svg", render_svg(&after))?;
    println!(
        "wrote out/aggregation_before.svg ({} primitives) and \
         out/aggregation_after.svg ({} primitives)",
        before.primitive_count(),
        after.primitive_count()
    );
    Ok(())
}
