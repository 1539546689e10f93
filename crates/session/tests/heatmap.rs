//! The spatial heatmap as a session citizen: drill commands, hover
//! hit-testing over region polygons, plan integration, and the
//! `(revision, epoch, plan_generation)` frame-cache discipline.

use std::sync::Arc;

use mirabel_dw::{Dimension, LiveWarehouse, MemberId, Warehouse};
use mirabel_session::{Command, Outcome, Session, REGION_TAG_BASE};
use mirabel_viz::Point;
use mirabel_workload::{generate_offers, OfferConfig, Population, PopulationConfig};

fn warehouse() -> Arc<Warehouse> {
    let pop =
        Population::generate(&PopulationConfig { size: 150, seed: 0x5A7, household_share: 0.8 });
    let offers = generate_offers(&pop, &OfferConfig::default());
    Arc::new(Warehouse::load(&pop, &offers))
}

fn root_of(dw: &Warehouse) -> MemberId {
    dw.hierarchy(Dimension::Geography).all().id
}

#[test]
fn drill_opens_one_heatmap_tab_and_reuses_it() {
    let dw = warehouse();
    let root = root_of(&dw);
    let mut session = Session::new(Arc::clone(&dw));

    let outcome = session.handle(Command::RegionDrill(root));
    let Outcome::RegionFocus { member, level, cells } = outcome else {
        panic!("expected RegionFocus, got {outcome:?}");
    };
    assert_eq!(member, root);
    assert_eq!(level, 0);
    assert_eq!(cells, 6, "five regions + Unassigned");
    assert_eq!(session.tabs().len(), 1);
    assert!(session.tabs()[0].is_heatmap());

    // Drilling into a region reuses the same tab, never opens another.
    let region = dw
        .hierarchy(Dimension::Geography)
        .member_by_name("Midtjylland")
        .expect("synthetic region")
        .id;
    let outcome = session.handle(Command::RegionDrill(region));
    assert!(matches!(outcome, Outcome::RegionFocus { level: 1, cells: 3, .. }), "{outcome:?}");
    assert_eq!(session.tabs().len(), 1);
    assert_eq!(session.tabs()[0].heatmap().unwrap().focus, region);

    // region-up climbs back to the country.
    let outcome = session.handle(Command::RegionUp);
    assert!(
        matches!(outcome, Outcome::RegionFocus { member, .. } if member == root),
        "{outcome:?}"
    );
    // …and from the top it is rejected, session intact.
    assert!(session.handle(Command::RegionUp).is_rejected());
    assert_eq!(session.tabs().len(), 1);
}

#[test]
fn drill_rejections_leave_the_session_unchanged() {
    let dw = warehouse();
    let mut session = Session::new(Arc::clone(&dw));
    // Unknown member.
    assert!(session.handle(Command::RegionDrill(MemberId(u32::MAX))).is_rejected());
    // A district leaf has nothing below it.
    let leaf = dw.hierarchy(Dimension::Geography).at_level(3).next().unwrap().id;
    assert!(session.handle(Command::RegionDrill(leaf)).is_rejected());
    // region-up before any drill.
    assert!(session.handle(Command::RegionUp).is_rejected());
    assert!(session.tabs().is_empty());
}

#[test]
fn hovering_a_region_polygon_yields_a_cell_tooltip() {
    let dw = warehouse();
    let mut session = Session::new(Arc::clone(&dw));
    session.handle(Command::RegionDrill(root_of(&dw)));

    // Find a point inside some cell polygon via the scene's own tags.
    let scene = session.active_tab().unwrap().scene();
    let mut found = None;
    'outer: for x in (20..940).step_by(20) {
        for y in (20..520).step_by(20) {
            let p = Point::new(x as f64, y as f64);
            if mirabel_viz::hit_test(&scene, p).iter().any(|t| *t >= REGION_TAG_BASE) {
                found = Some(p);
                break 'outer;
            }
        }
    }
    let p = found.expect("some cell polygon must be hit-testable");
    let outcome = session.handle(Command::PointerMove(p));
    let Outcome::Tooltip(Some(info)) = outcome else {
        panic!("expected a cell tooltip, got {outcome:?}");
    };
    assert!(info.lines.iter().any(|l| l.starts_with("offers:")), "{:?}", info.lines);
    assert!(info.lines.iter().any(|l| l.starts_with("imbalance:")), "{:?}", info.lines);

    // Hover storms ride the cached frame: no rebuild per event.
    let builds = session.frames_built();
    for _ in 0..500 {
        session.handle(Command::PointerMove(p));
    }
    assert_eq!(session.frames_built(), builds);
}

#[test]
fn a_plan_fills_the_cells_and_bumps_the_frame() {
    let pop =
        Population::generate(&PopulationConfig { size: 80, seed: 0xB0B, household_share: 0.8 });
    let offers = generate_offers(&pop, &OfferConfig::default());
    let live = LiveWarehouse::new(pop, &offers);
    live.advance_day();
    let snap = live.publish();
    let dw = Arc::clone(snap.warehouse());
    let root = root_of(&dw);

    let mut session = Session::new(Arc::clone(&dw));
    session.handle(Command::RegionDrill(root));
    let before = session.active_frame().unwrap();
    let unplanned: f64 =
        session.tabs()[0].heatmap().unwrap().cells.iter().map(|c| c.scheduled_kwh.abs()).sum();
    assert_eq!(unplanned, 0.0, "no plan yet - cells must be empty");

    assert!(session.handle(Command::Plan).plan().is_some());
    // Re-drilling after the plan folds the scheduled energy in.
    session.handle(Command::RegionDrill(root));
    let heat_tab = session.tabs().iter().find(|t| t.is_heatmap()).unwrap();
    let planned: f64 =
        heat_tab.heatmap().unwrap().cells.iter().map(|c| c.scheduled_kwh.abs()).sum();
    assert!(planned > 0.0, "the plan must appear in the cells");
    let target: f64 = heat_tab.heatmap().unwrap().cells.iter().map(|c| c.target_kwh).sum();
    assert!(target >= 0.0);
    let after = heat_tab.frame();
    assert_ne!(before.hash, after.hash, "a filled choropleth must differ from an empty one");
}

#[test]
fn replaying_a_drill_script_reproduces_the_frame_hashes() {
    let dw = warehouse();
    let root = root_of(&dw);
    let script = [
        Command::RegionDrill(root),
        Command::Plan,
        Command::RegionDrill(root),
        Command::RegionUp, // rejected at the top; must still replay cleanly
        Command::Render,
    ];
    let a = Session::replay(Arc::clone(&dw), &script);
    let b = Session::replay(Arc::clone(&dw), &script);
    assert_eq!(a.frame_hashes(), b.frame_hashes());
    assert!(!a.frame_hashes().is_empty());
}
