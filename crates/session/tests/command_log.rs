//! Command-log properties: totality under random interleavings,
//! determinism of replay, and cache behaviour under pointer storms —
//! plus the Section 4 interaction model (the Figure 7 loader, Figure 8
//! selection and tabs, Figure 10 tooltips) driven command by command.
//!
//! A seeded generator draws random command interleavings (including
//! invalid ones) and the assertions hold for every draw.

use std::sync::Arc;

use mirabel_aggregation::AggregationParams;
use mirabel_dw::{LoaderQuery, Warehouse};
use mirabel_session::{
    encode_script, parse_script, Command, ConcurrentPool, Outcome, Session, ViewMode,
};
use mirabel_timeseries::{Granularity, TimeSlot};
use mirabel_viz::Point;
use mirabel_workload::{generate_offers, OfferConfig, Population, PopulationConfig};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn warehouse() -> Arc<Warehouse> {
    let pop =
        Population::generate(&PopulationConfig { size: 40, seed: 0xC0FFEE, household_share: 0.8 });
    let offers = generate_offers(&pop, &OfferConfig::default());
    Arc::new(Warehouse::load(&pop, &offers))
}

fn wide() -> LoaderQuery {
    LoaderQuery::builder().window(TimeSlot::new(-100_000), TimeSlot::new(100_000)).build()
}

fn random_point(rng: &mut StdRng) -> Point {
    // Deliberately overshoots the canvas on all sides.
    Point::new(rng.gen_range(-80.0..1100.0), rng.gen_range(-80.0..700.0))
}

/// Draws one command; roughly one in five draws is invalid on purpose
/// (bad tab indices, empty windows, malformed MDX, zero-sized canvas).
fn random_command(rng: &mut StdRng) -> Command {
    match rng.gen_range(0..18) {
        0..=2 => Command::PointerMove(random_point(rng)),
        3..=4 => Command::Click(random_point(rng)),
        5 => Command::DragStart(random_point(rng)),
        6 => Command::DragEnd(random_point(rng)),
        7 => Command::SetMode(if rng.gen_bool(0.5) { ViewMode::Basic } else { ViewMode::Profile }),
        8 => Command::ShowSelectionInNewTab,
        9 => Command::RemoveSelected,
        10 => Command::ActivateTab(rng.gen_range(0usize..6)),
        11 => Command::CloseTab(rng.gen_range(0usize..6)),
        12 => {
            if rng.gen_bool(0.1) {
                Command::SetCanvas { width: 0.0, height: -5.0 }
            } else if rng.gen_bool(0.1) {
                // Must be rejected by the canvas bound, never hang.
                Command::SetCanvas { width: 1e12, height: 1e12 }
            } else {
                Command::SetCanvas {
                    width: rng.gen_range(100.0..1400.0),
                    height: rng.gen_range(100.0..900.0),
                }
            }
        }
        13 => {
            let a = rng.gen_range(-200i64..200);
            let b = rng.gen_range(-200i64..200);
            Command::Load {
                query: LoaderQuery::builder()
                    .window(TimeSlot::new(a.min(b) * 10), TimeSlot::new(a.max(b) * 10 + 1))
                    .build(),
                title: format!("load {a} {b}"),
            }
        }
        14 => {
            if rng.gen_bool(0.5) {
                Command::Aggregate
            } else {
                Command::Mdx(if rng.gen_bool(0.5) {
                    "SELECT {[Time].Children} ON COLUMNS, {[Prosumer].Children} ON ROWS \
                     FROM [FlexOffers]"
                        .into()
                } else {
                    "SELECT gibberish FROM nowhere".into()
                })
            }
        }
        15 => Command::SetAggregationParams(
            AggregationParams::new(rng.gen_range(1i64..12), rng.gen_range(1i64..12))
                .with_max_group_size(rng.gen_range(0usize..6)),
        ),
        16 => {
            // Mostly sane windows; occasionally absurd ones that must be
            // rejected (never hang) by the dashboard work bound.
            let (from, to) = if rng.gen_bool(0.25) {
                (-100_000_000, 100_000_000)
            } else {
                let a = rng.gen_range(-2000i64..2000);
                (a, a + rng.gen_range(0i64..500))
            };
            Command::Dashboard {
                from: TimeSlot::new(from),
                to: TimeSlot::new(to),
                granularity: Granularity::ALL[rng.gen_range(0usize..Granularity::ALL.len())],
            }
        }
        _ => Command::Render,
    }
}

#[test]
fn random_interleavings_never_panic_and_invariants_hold() {
    let dw = warehouse();
    for seed in 0..24u64 {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut session = Session::new(Arc::clone(&dw));
        for step in 0..60 {
            let cmd = random_command(&mut rng);
            let revisions: Vec<u64> = session.tabs().iter().map(|t| t.revision()).collect();
            let outcome = session.handle(cmd.clone());
            // `is_mutating` must agree with what dispatch actually does:
            // a non-mutating command leaves every tab revision (and the
            // tab list itself) untouched.
            if !cmd.is_mutating() {
                let after: Vec<u64> = session.tabs().iter().map(|t| t.revision()).collect();
                assert_eq!(revisions, after, "seed {seed} step {step}: {cmd:?} mutated a tab");
            }
            // Invariants after every command, valid or not.
            if !session.tabs().is_empty() {
                assert!(
                    session.active_index() < session.tabs().len(),
                    "seed {seed} step {step}: active index out of range after {cmd:?}"
                );
                // The cached frame is always materialisable.
                let frame = session.active_frame().unwrap();
                assert_eq!(frame.hash, frame.scene.content_hash());
            }
            if let Outcome::Selection(delta) = &outcome {
                let tab = &session.tabs()[delta.tab];
                assert_eq!(delta.total, tab.selection.len());
                assert!(delta.total <= tab.offers.len());
            }
        }
        assert_eq!(session.stats().commands, 60);
    }
}

#[test]
fn replaying_a_recorded_log_reproduces_the_frame_hashes() {
    let dw = warehouse();
    for seed in [7u64, 99, 4242] {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut live = Session::new(Arc::clone(&dw));
        live.set_recording(true);
        // Guarantee at least one tab, then drive randomly.
        live.handle(Command::Load { query: wide(), title: "base".into() });
        for _ in 0..80 {
            live.handle(random_command(&mut rng));
        }
        let log = live.take_log();

        // Replay the log object directly…
        let replayed = Session::replay(Arc::clone(&dw), &log);
        // …and through the text encoding.
        let decoded = parse_script(&encode_script(&log)).expect("log must round-trip");
        let reparsed = Session::replay(Arc::clone(&dw), &decoded);

        assert_eq!(live.tabs().len(), replayed.tabs().len(), "seed {seed}");
        assert_eq!(live.tabs().len(), reparsed.tabs().len(), "seed {seed}");
        assert_eq!(live.active_index(), replayed.active_index());
        for (i, (a, b)) in live.tabs().iter().zip(replayed.tabs()).enumerate() {
            assert_eq!(a.frame().hash, b.frame().hash, "seed {seed} tab {i}");
            assert_eq!(a.selection, b.selection, "seed {seed} tab {i}");
            assert_eq!(a.title, b.title, "seed {seed} tab {i}");
        }
        for (a, b) in live.tabs().iter().zip(reparsed.tabs()) {
            assert_eq!(a.frame().hash, b.frame().hash);
        }
    }
}

#[test]
fn pointer_storm_of_10k_events_builds_exactly_one_frame() {
    let dw = warehouse();
    let mut session = Session::new(dw);
    session.handle(Command::Load { query: wide(), title: "storm".into() });
    // Loading alone must not render anything yet.
    assert_eq!(session.frames_built(), 0);

    let mut rng = StdRng::seed_from_u64(0x5701);
    let mut tooltips = 0u32;
    for i in 0..10_000u32 {
        let p = random_point(&mut rng);
        let outcome = if i % 4 == 0 {
            session.handle(Command::Click(p))
        } else {
            session.handle(Command::PointerMove(p))
        };
        if let Outcome::Tooltip(Some(_)) = outcome {
            tooltips += 1;
        }
    }
    assert_eq!(
        session.frames_built(),
        1,
        "a hover/click storm with no mutating command must reuse one cached frame"
    );
    assert!(tooltips > 0, "the storm should hit at least one offer");
    assert_eq!(session.stats().commands, 10_001);

    // A mutating command invalidates exactly once.
    session.handle(Command::SetMode(ViewMode::Profile));
    session.handle(Command::Render);
    session.handle(Command::PointerMove(Point::new(480.0, 270.0)));
    assert_eq!(session.frames_built(), 2);
}

#[test]
fn closing_a_tab_below_the_active_one_keeps_it_active() {
    let dw = warehouse();
    let mut session = Session::new(dw);
    session.handle(Command::Load { query: wide(), title: "A".into() });
    session.handle(Command::Load { query: wide(), title: "B".into() });
    session.handle(Command::Load { query: wide(), title: "C".into() });
    session.handle(Command::ActivateTab(1));
    assert_eq!(session.active_tab().unwrap().title, "B");

    // Closing A shifts indices; B must stay active.
    session.handle(Command::CloseTab(0));
    assert_eq!(session.active_tab().unwrap().title, "B");
    assert_eq!(session.active_index(), 0);

    // Closing the active tab falls over to the nearest remaining one.
    session.handle(Command::CloseTab(0));
    assert_eq!(session.active_tab().unwrap().title, "C");

    // Closing the last tab leaves an empty, harmless session.
    session.handle(Command::CloseTab(0));
    assert!(session.active_tab().is_none());
    assert!(session.handle(Command::Render).frame().is_none());
}

#[test]
fn pool_sessions_are_isolated_but_share_offer_allocations() {
    let pool = ConcurrentPool::new(warehouse());
    let a = pool.open();
    let b = pool.open();
    assert_eq!(pool.len(), 2);

    for id in [a, b] {
        let out = pool.apply(id, Command::Load { query: wide(), title: format!("{id}") });
        assert!(matches!(out, Some(Outcome::TabOpened { .. })));
    }
    // Same warehouse allocation behind both sessions' tabs.
    let tab_a = pool.with_session(a, |s| s.active_tab().unwrap().clone()).unwrap();
    let tab_b = pool.with_session(b, |s| s.active_tab().unwrap().clone()).unwrap();
    assert_eq!(tab_a.offers.len(), tab_b.offers.len());
    for (va, vb) in tab_a.offers.iter().zip(tab_b.offers.iter()) {
        assert!(Arc::ptr_eq(&va.offer, &vb.offer), "payload must be shared across sessions");
    }

    // Mutating one session leaves the other untouched.
    let target = tab_a.layout().profile_box(0, &tab_a.offers).center();
    pool.apply(a, Command::Click(target));
    pool.apply(a, Command::RemoveSelected);
    let len_a = pool.with_session(a, |s| s.active_tab().unwrap().offers.len()).unwrap();
    let len_b = pool.with_session(b, |s| s.active_tab().unwrap().offers.len()).unwrap();
    assert_eq!(len_a + 1, len_b);

    assert!(pool.close(a));
    assert!(!pool.close(a));
    assert_eq!(pool.len(), 1);
    assert!(pool.apply(a, Command::Render).is_none());
}

/// A session with one tab holding every offer.
fn loaded() -> Session {
    let mut session = Session::new(warehouse());
    session.handle(Command::Load { query: wide(), title: "all".into() });
    session
}

/// The centre of the first offer's profile box in the active tab.
fn first_offer_centre(session: &Session) -> Point {
    let tab = session.active_tab().unwrap();
    tab.layout().profile_box(0, &tab.offers).center()
}

#[test]
fn loader_opens_tabs_like_figure7() {
    // A second read operation for one legal entity: two tabs, as in
    // Figure 8's tab strip.
    let mut session = loaded();
    let entity = session.warehouse().unwrap().offers()[0].prosumer();
    let query = LoaderQuery::for_prosumer(entity)
        .window(TimeSlot::new(-100_000), TimeSlot::new(100_000))
        .build();
    let opened = session.handle(Command::Load { query, title: "one prosumer".into() });
    assert!(matches!(opened, Outcome::TabOpened { tab: 1, .. }));
    assert_eq!(session.active_index(), 1);
    assert!(session.tabs()[1].offers.len() < session.tabs()[0].offers.len());
    assert!(!session.tabs()[1].offers.is_empty());
    assert!(matches!(session.handle(Command::ActivateTab(0)), Outcome::TabActivated { tab: 0 }));
    // Out-of-range activation is rejected and changes nothing.
    assert!(session.handle(Command::ActivateTab(99)).is_rejected());
    assert_eq!(session.active_index(), 0);
}

#[test]
fn click_selects_one_offer_and_empty_space_clears() {
    let mut session = loaded();
    let target = first_offer_centre(&session);
    let id0 = session.active_tab().unwrap().offers[0].id();
    session.handle(Command::Click(target));
    assert_eq!(session.active_tab().unwrap().selection, vec![id0]);
    // Clicking the same offer again does not duplicate.
    session.handle(Command::Click(target));
    assert_eq!(session.active_tab().unwrap().selection.len(), 1);
    // Clicking empty space clears.
    session.handle(Command::Click(Point::new(2.0, 2.0)));
    assert!(session.active_tab().unwrap().selection.is_empty());
}

#[test]
fn drag_rectangle_selects_many() {
    let mut session = loaded();
    session.handle(Command::DragStart(Point::new(0.0, 0.0)));
    // While dragging, the dashed rectangle is in the options.
    assert!(session.active_tab().unwrap().options.selection_rect.is_some());
    session.handle(Command::DragEnd(Point::new(960.0, 540.0)));
    let tab = session.active_tab().unwrap();
    assert!(tab.options.selection_rect.is_none());
    assert_eq!(tab.selection.len(), tab.offers.len(), "full-canvas drag selects all");
}

#[test]
fn selection_to_new_tab_and_removal() {
    let mut session = loaded();
    let total = session.active_tab().unwrap().offers.len();
    session.handle(Command::DragStart(Point::new(0.0, 0.0)));
    session.handle(Command::DragEnd(Point::new(960.0, 540.0)));
    session.handle(Command::ShowSelectionInNewTab);
    assert_eq!(session.tabs().len(), 2);
    assert_eq!(session.active_tab().unwrap().offers.len(), total);
    assert!(session.active_tab().unwrap().title.contains("selection"));

    // Back on the first tab, remove the selected offers.
    session.handle(Command::ActivateTab(0));
    session.handle(Command::RemoveSelected);
    assert!(session.active_tab().unwrap().offers.is_empty());
    assert!(session.active_tab().unwrap().selection.is_empty());
    // Removing again is a no-op.
    session.handle(Command::RemoveSelected);
    assert!(session.active_tab().unwrap().offers.is_empty());
}

#[test]
fn hover_produces_tooltip_and_mode_switch_changes_scene() {
    let mut session = loaded();
    let target = first_offer_centre(&session);
    let info = session.handle(Command::PointerMove(target)).tooltip().expect("tooltip");
    assert!(!info.lines.is_empty());

    let basic_scene = session.active_tab().unwrap().scene();
    session.handle(Command::SetMode(ViewMode::Profile));
    let profile_scene = session.active_tab().unwrap().scene();
    assert_ne!(basic_scene, profile_scene);
    assert!(profile_scene.texts().iter().any(|t| t.contains("Profile view")));
}

#[test]
fn commands_without_tabs_are_harmless() {
    let mut session = Session::new(warehouse());
    assert!(session.handle(Command::PointerMove(Point::new(1.0, 1.0))).tooltip().is_none());
    for cmd in [
        Command::Click(Point::new(1.0, 1.0)),
        Command::RemoveSelected,
        Command::ShowSelectionInNewTab,
    ] {
        assert!(session.handle(cmd).is_rejected());
    }
    assert!(session.tabs().is_empty() && session.active_tab().is_none());
}
