//! Driving the tool through the command API: a scripted session — the
//! Figure 7 loader, a Figure 10 hover tooltip drawn as an SVG overlay,
//! Figure 8 rectangle selection into a new tab, the Figure 9 profile
//! view — recorded, serialized, and replayed deterministically; then the
//! same warehouse served to many concurrent sessions through a pool.
//!
//! ```sh
//! cargo run --example command_session
//! ```

use std::sync::Arc;

use mirabel::dw::{LoaderQuery, Warehouse};
use mirabel::session::views::tooltip;
use mirabel::session::{encode_script, Command, ConcurrentPool, Outcome, Session, ViewMode};
use mirabel::timeseries::{SlotSpan, TimeSlot};
use mirabel::viz::{render_svg, Point};
use mirabel::workload::{generate_offers, OfferConfig, Population, PopulationConfig};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let population =
        Population::generate(&PopulationConfig { size: 120, seed: 8, household_share: 0.8 });
    let offers = generate_offers(&population, &OfferConfig::default());
    let dw = Arc::new(Warehouse::load(&population, &offers));

    // A recorded interactive run: load, hover, select, open tab, switch
    // view, aggregate, render.
    let mut session = Session::new(Arc::clone(&dw));
    session.set_recording(true);
    let window =
        LoaderQuery::builder().window(TimeSlot::EPOCH, TimeSlot::EPOCH + SlotSpan::days(2)).build();
    session.handle(Command::Load { query: window, title: "day 1".into() });

    // Hover the first offer and draw its tooltip over the scene, as the
    // tool would.
    let target = {
        let tab = session.active_tab().expect("loaded tab");
        tab.layout().profile_box(0, &tab.offers).center()
    };
    if let Some(info) = session.handle(Command::PointerMove(target)).tooltip() {
        println!("tooltip at {target}:\n  {}", info.lines.join("\n  "));
        let tab = session.active_tab().expect("loaded tab");
        let mut scene = tab.scene().as_ref().clone();
        scene.push(tooltip::overlay(&tab.offers, &tab.layout(), &info));
        std::fs::create_dir_all("out")?;
        std::fs::write("out/session_tooltip.svg", render_svg(&scene))?;
        println!("wrote out/session_tooltip.svg\n");
    }

    session.handle(Command::DragStart(Point::new(0.0, 0.0)));
    session.handle(Command::DragEnd(Point::new(960.0, 540.0)));
    session.handle(Command::ShowSelectionInNewTab);
    session.handle(Command::SetMode(ViewMode::Profile));
    if let Outcome::Aggregated { stats, .. } = session.handle(Command::Aggregate) {
        println!(
            "aggregated {} -> {} objects ({:.2}x reduction)",
            stats.input_count, stats.output_count, stats.reduction_factor
        );
    }
    let frame = session.handle(Command::Render).frame().expect("frame");
    println!(
        "rendered frame: revision {}, {} primitives, hash {:016x}",
        frame.revision,
        frame.scene.primitive_count(),
        frame.hash
    );

    // The log is plain text; replaying it reproduces the frame hash.
    let log = session.take_log();
    let script = encode_script(&log);
    println!("\nrecorded script ({} commands):\n{script}", log.len());
    let replayed = Session::replay(Arc::clone(&dw), &log);
    let replayed_hash = replayed.active_frame().expect("frame").hash;
    assert_eq!(frame.hash, replayed_hash);
    println!("replay reproduces hash {replayed_hash:016x} — deterministic");

    // Concurrent users: every session gets its own tabs and selection,
    // all over one shared warehouse allocation.
    let pool = ConcurrentPool::new(dw);
    let users: Vec<_> = (0..8).map(|_| pool.open()).collect();
    for &id in &users {
        pool.apply(id, Command::Load { query: window, title: format!("{id}") });
        pool.apply(id, Command::PointerMove(Point::new(480.0, 270.0)));
    }
    let built: u64 =
        users.iter().filter_map(|&id| pool.with_session(id, Session::frames_built)).sum();
    println!("\npool: {} sessions, {built} frames built (one per session, cached)", pool.len());
    Ok(())
}
