//! OLAP exploration of flex-offer data (Section 3 + Figure 5): the
//! Section 3 example query, hierarchical drill-down, and MDX-driven
//! pivot rendering.
//!
//! ```sh
//! cargo run --example olap_exploration
//! ```

use mirabel::dw::{Dimension, Measure, PivotAxis, PivotSpec, Query, Warehouse};
use mirabel::flexoffer::OfferState;
use mirabel::session::views::pivot::{self, PivotViewOptions};
use mirabel::viz::render_svg;
use mirabel::workload::{generate_offers, OfferConfig, Population, PopulationConfig};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // Two days of offers from 1 500 prosumers; accept/reject a share so
    // the status measures are non-trivial.
    let population =
        Population::generate(&PopulationConfig { size: 1_500, seed: 20_13, household_share: 0.8 });
    let mut offers = generate_offers(&population, &OfferConfig { days: 2, ..Default::default() });
    for (i, fo) in offers.iter_mut().enumerate() {
        match i % 5 {
            0..=2 => fo.accept()?,
            3 => fo.reject()?,
            _ => {}
        }
    }
    let dw = Warehouse::load(&population, &offers);
    println!("warehouse: {} facts", dw.columns().len());

    // --- The Section 3 example: "counts of accepted flex-offers in
    //     [a region] ... grouped by cities". -----------------------------
    let geo = dw.hierarchy(Dimension::Geography);
    let region = geo.member_by_name("Midtjylland").expect("region exists");
    let result = dw.eval(
        &Query::new(Measure::Count)
            .filter(Dimension::Geography, region.id)
            .statuses(vec![OfferState::Accepted])
            .group_by(Dimension::Geography, 2),
    )?;
    println!("\naccepted flex-offers in Midtjylland by city:");
    for (member, value) in &result.groups {
        println!("  {:<12} {:>6}", geo.member(*member).unwrap().name, value);
    }

    // --- Programmatic pivot with drill-down (Figure 5 swimlanes). ------
    let mut rows = PivotAxis::children_of(
        &dw,
        Dimension::ProsumerType,
        dw.hierarchy(Dimension::ProsumerType).all().id,
    );
    let consumer = dw.hierarchy(Dimension::ProsumerType).member_by_name("Consumer").unwrap().id;
    rows.drill_down(&dw, consumer); // All prosumers -> Household, ...
    let columns = PivotAxis::level(&dw, Dimension::Time, 3);
    let table =
        dw.pivot(&PivotSpec { rows, columns, base: Query::new(Measure::ScheduledEnergy) })?;
    println!("\npivot (scheduled energy kWh, prosumer types x days):");
    print!("{}", table.to_text());

    // --- The same exploration through the MDX window. -------------------
    let mdx = "SELECT { [Time].Children } ON COLUMNS, \
               { [Prosumer].[All prosumers].Children } ON ROWS \
               FROM [FlexOffers] \
               WHERE ( [Measures].[BalancingPotential], [Geography].[Denmark] )";
    let table = dw.mdx(mdx)?;
    println!("\nMDX: {mdx}\n{}", table.to_text());

    let scene = pivot::build_mdx(&dw, mdx, &PivotViewOptions::default())?;
    std::fs::create_dir_all("out")?;
    std::fs::write("out/olap_pivot.svg", render_svg(&scene))?;
    println!("wrote out/olap_pivot.svg");
    Ok(())
}
