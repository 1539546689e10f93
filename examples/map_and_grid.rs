//! The spatial views: the Figure 3 map (regions with embedded
//! histograms) and the Figure 4 schematic (grid topology with status
//! pies).
//!
//! ```sh
//! cargo run --example map_and_grid
//! ```

use mirabel::dw::{Measure, Warehouse};
use mirabel::session::views::map::{self, MapViewOptions};
use mirabel::session::views::schematic::{self, SchematicViewOptions};
use mirabel::viz::render_svg;
use mirabel::workload::{generate_offers, OfferConfig, Population, PopulationConfig};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let population =
        Population::generate(&PopulationConfig { size: 1_000, seed: 4_2, household_share: 0.8 });
    let mut offers = generate_offers(&population, &OfferConfig::default());
    // Spread statuses so the Figure 4 pies have all three slices.
    for (i, fo) in offers.iter_mut().enumerate() {
        match i % 10 {
            0..=3 => fo.accept()?,
            4..=7 => {
                fo.accept()?;
                let sched = mirabel::flexoffer::Schedule::new(
                    fo.earliest_start(),
                    fo.profile().slices().iter().map(|s| s.min).collect(),
                );
                fo.assign(sched)?;
            }
            8 => fo.reject()?,
            _ => {}
        }
    }
    let dw = Warehouse::load(&population, &offers);

    std::fs::create_dir_all("out")?;

    // Figure 3: choropleth of flex-offer counts with per-region
    // mini-histograms.
    let map_scene = map::build(&dw, population.geography(), &MapViewOptions::default());
    std::fs::write("out/map_view.svg", render_svg(&map_scene))?;
    println!("wrote out/map_view.svg ({} primitives)", map_scene.primitive_count());

    // The same map shaded by balancing potential instead of count.
    let potential_scene = map::build(
        &dw,
        population.geography(),
        &MapViewOptions { measure: Measure::BalancingPotential, ..Default::default() },
    );
    std::fs::write("out/map_view_potential.svg", render_svg(&potential_scene))?;
    println!("wrote out/map_view_potential.svg");

    // Figure 4: the schematic grid with accepted/scheduled/rejected pies.
    let schematic_scene =
        schematic::build(&dw, population.grid(), &SchematicViewOptions::default());
    std::fs::write("out/schematic_view.svg", render_svg(&schematic_scene))?;
    println!("wrote out/schematic_view.svg ({} primitives)", schematic_scene.primitive_count());

    // Print the per-line shares the pies encode.
    println!("\nflex-offer status by 110kV line:");
    let grid_h = dw.hierarchy(mirabel::dw::Dimension::Grid);
    for line in grid_h.at_level(1) {
        let shares = schematic::status_shares(&dw, line.id);
        let total = shares.total().max(1.0);
        println!(
            "  {:<4} accepted {:>4.0}% scheduled {:>4.0}% rejected {:>4.0}%",
            line.name,
            shares.accepted / total * 100.0,
            shares.scheduled / total * 100.0,
            shares.rejected / total * 100.0,
        );
    }
    Ok(())
}
