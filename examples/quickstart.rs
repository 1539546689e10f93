//! Quickstart: build a handful of flex-offers, plan them, and render the
//! paper's basic and profile views to SVG.
//!
//! ```sh
//! cargo run --example quickstart
//! ```

use mirabel::flexoffer::{Direction, Energy, FlexOffer};
use mirabel::scheduling::{GreedyScheduler, Scheduler};
use mirabel::session::views::{basic, profile};
use mirabel::session::VisualOffer;
use mirabel::timeseries::{SlotSpan, TimeSeries, TimeSlot};
use mirabel::viz::{render_ascii, render_svg};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // --- 1. Model: the paper's running example — EV batteries that may
    //        charge at any time over a night (Figure 2). -----------------
    let midnight = TimeSlot::EPOCH;
    let mut offers: Vec<FlexOffer> = (0..12)
        .map(|i| {
            FlexOffer::builder(i + 1, 100 + i)
                .direction(Direction::Consumption)
                .earliest_start(midnight + SlotSpan::hours(21 + (i % 3) as i64))
                .latest_start(midnight + SlotSpan::hours(26 + (i % 4) as i64))
                .slices(8, Energy::from_wh(250), Energy::from_wh(2_000))
                .build()
                .expect("valid offer")
        })
        .collect();

    println!("built {} flex-offers; first: {}", offers.len(), offers[0]);
    println!(
        "time flexibility {}  energy flexibility {}",
        offers[0].time_flexibility(),
        offers[0].energy_flexibility()
    );

    // --- 2. Plan: wind surplus arrives after 02:00; shift the charging
    //        under it (Figure 1's promise). ------------------------------
    for fo in offers.iter_mut() {
        fo.accept()?;
    }
    let target = TimeSeries::from_fn(midnight + SlotSpan::hours(20), 14 * 4, |i| {
        if i >= 6 * 4 {
            18.0 // kWh per slot of surplus from 02:00 on
        } else {
            2.0
        }
    });
    let report = GreedyScheduler.schedule(&mut offers, &target)?;
    println!("{report}");

    // --- 3. Visualize: basic view (Figure 8) and profile view
    //        (Figure 9). --------------------------------------------------
    let visual = VisualOffer::from_offers(&offers);
    let basic_scene = basic::build(&visual, &Default::default());
    let profile_scene = profile::build(&visual, &Default::default());

    std::fs::create_dir_all("out")?;
    std::fs::write("out/quickstart_basic.svg", render_svg(&basic_scene))?;
    std::fs::write("out/quickstart_profile.svg", render_svg(&profile_scene))?;
    println!("\nwrote out/quickstart_basic.svg and out/quickstart_profile.svg");

    // A terminal glimpse of the basic view.
    println!("\n{}", render_ascii(&basic_scene, 100));
    Ok(())
}
