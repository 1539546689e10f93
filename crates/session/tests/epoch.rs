//! The epoch protocol end to end: a `LiveWarehouse` publishing into a
//! `ConcurrentPool` while sessions keep serving commands.

use std::sync::Arc;

use mirabel_dw::{LiveWarehouse, LoaderQuery, Warehouse};
use mirabel_flexoffer::{FlexOffer, FlexOfferId};
use mirabel_session::{Command, ConcurrentPool, Outcome};
use mirabel_timeseries::SLOTS_PER_DAY;
use mirabel_workload::{generate_offers, OfferConfig, Population, PopulationConfig};

fn setup() -> (Population, Vec<FlexOffer>, Vec<FlexOffer>) {
    let pop =
        Population::generate(&PopulationConfig { size: 60, seed: 0xE90C, household_share: 0.8 });
    let all = generate_offers(&pop, &OfferConfig { days: 2, ..Default::default() });
    let (day1, day2) =
        all.iter().cloned().partition(|fo| fo.earliest_start().index() < SLOTS_PER_DAY);
    (pop, day1, day2)
}

fn everywhere() -> LoaderQuery {
    LoaderQuery::builder().build()
}

#[test]
fn publish_refreshes_live_tabs_lazily() {
    let (pop, day1, day2) = setup();
    let live = LiveWarehouse::new(pop, &day1);
    let pool = ConcurrentPool::new(Arc::clone(live.snapshot().warehouse()));
    let id = pool.open();

    let Some(Outcome::TabOpened { offers, .. }) =
        pool.apply(id, Command::Load { query: everywhere(), title: "live".into() })
    else {
        panic!("load rejected")
    };
    assert_eq!(offers, day1.len());
    let before = pool.with_session(id, |s| s.frame_hashes()).unwrap();
    let builds_before = pool.with_session(id, |s| s.frames_built()).unwrap();

    // Ingest + publish. The session does not move until its next command.
    live.ingest(&day2);
    pool.publish(&live.publish());
    assert_eq!(pool.epoch(), 1);

    // The next command observes the new epoch: the live tab re-runs its
    // loader query and now shows both days.
    let after = pool.with_session(id, |s| {
        assert_eq!(s.epoch(), 1);
        assert_eq!(s.active_tab().unwrap().offers.len(), day1.len() + day2.len());
        s.frame_hashes()
    });
    assert_ne!(before, after.unwrap());
    // The refresh cost exactly one frame rebuild (lazy, per tab).
    let builds_after = pool.with_session(id, |s| s.frames_built()).unwrap();
    assert_eq!(builds_after, builds_before + 1);

    // Within the epoch the frame cache works as before.
    for _ in 0..10 {
        pool.apply(id, Command::Render).unwrap();
    }
    assert_eq!(pool.with_session(id, |s| s.frames_built()).unwrap(), builds_after);
}

#[test]
fn withdrawals_prune_selection_and_view() {
    let (pop, day1, _) = setup();
    let live = LiveWarehouse::new(pop, &day1);
    let pool = ConcurrentPool::new(Arc::clone(live.snapshot().warehouse()));
    let id = pool.open();
    pool.apply(id, Command::Load { query: everywhere(), title: "live".into() }).unwrap();

    // Select the first offer by clicking its drawn position.
    let (first_id, hit) = pool
        .with_session(id, |s| {
            let tab = s.active_tab().unwrap();
            let layout = tab.layout();
            let r = layout.extent_box(0, &tab.offers);
            (tab.offers[0].id(), mirabel_viz::Point::new(r.x + r.w / 2.0, r.y + r.h / 2.0))
        })
        .unwrap();
    let Some(Outcome::Selection(delta)) = pool.apply(id, Command::Click(hit)) else {
        panic!("click rejected")
    };
    assert_eq!(delta.added, vec![first_id]);

    live.withdraw(&[first_id]);
    pool.publish(&live.publish());

    pool.apply(id, Command::Render).unwrap();
    pool.with_session(id, |s| {
        let tab = s.active_tab().unwrap();
        assert_eq!(tab.offers.len(), day1.len() - 1);
        assert!(tab.offers.iter().all(|v| v.id() != first_id));
        assert!(tab.selection.is_empty(), "selection must drop withdrawn offers");
    })
    .unwrap();
}

#[test]
fn aggregated_tabs_are_pinned_across_epochs() {
    let (pop, day1, day2) = setup();
    let live = LiveWarehouse::new(pop, &day1);
    let pool = ConcurrentPool::new(Arc::clone(live.snapshot().warehouse()));
    let id = pool.open();
    pool.apply(id, Command::Load { query: everywhere(), title: "t".into() }).unwrap();
    let Some(Outcome::Aggregated { stats, .. }) = pool.apply(id, Command::Aggregate) else {
        panic!("aggregate rejected")
    };
    assert!(stats.output_count < day1.len());

    live.ingest(&day2);
    pool.publish(&live.publish());

    pool.apply(id, Command::Render).unwrap();
    pool.with_session(id, |s| {
        let tab = s.active_tab().unwrap();
        assert_eq!(tab.query(), None, "aggregation pins the tab");
        assert_eq!(tab.offers.len(), stats.output_count, "publish must not discard aggregates");
        assert_eq!(tab.epoch(), 1, "pinned tabs still move epochs");
    })
    .unwrap();
}

#[test]
fn sessions_opened_after_a_publish_start_at_the_current_epoch() {
    let (pop, day1, day2) = setup();
    let live = LiveWarehouse::new(pop, &day1);
    let pool = ConcurrentPool::new(Arc::clone(live.snapshot().warehouse()));
    live.ingest(&day2);
    pool.publish(&live.publish());

    let id = pool.open();
    let Some(Outcome::TabOpened { offers, .. }) =
        pool.apply(id, Command::Load { query: everywhere(), title: "t".into() })
    else {
        panic!("load rejected")
    };
    assert_eq!(offers, day1.len() + day2.len());
    assert_eq!(pool.with_session(id, |s| s.epoch()).unwrap(), 1);
}

#[test]
fn stale_publishes_cannot_move_the_pool_backwards() {
    let (pop, day1, day2) = setup();
    let live = LiveWarehouse::new(pop, &day1);
    let pool = ConcurrentPool::new(Arc::clone(live.snapshot().warehouse()));
    let e0 = live.snapshot();
    live.ingest(&day2);
    let e1 = live.publish();
    assert_eq!(pool.publish(&e1), 1);
    // Replaying an old epoch is ignored.
    assert_eq!(pool.publish(&e0), 1);
    assert_eq!(pool.publish(&e1), 1);
    assert_eq!(pool.warehouse().columns().len(), day1.len() + day2.len());
}

#[test]
fn concurrent_publishes_and_commands_keep_sessions_consistent() {
    let (pop, day1, day2) = setup();
    let live = Arc::new(LiveWarehouse::new(pop, &day1));
    let pool = Arc::new(ConcurrentPool::new(Arc::clone(live.snapshot().warehouse())));
    let users: Vec<_> = (0..4).map(|_| pool.open()).collect();
    for &u in &users {
        pool.apply(u, Command::Load { query: everywhere(), title: "t".into() }).unwrap();
    }

    std::thread::scope(|scope| {
        let writer = {
            let live = Arc::clone(&live);
            let pool = Arc::clone(&pool);
            let chunks: Vec<Vec<FlexOffer>> =
                day2.chunks(day2.len().div_ceil(10).max(1)).map(<[FlexOffer]>::to_vec).collect();
            scope.spawn(move || {
                for chunk in chunks {
                    let ids: Vec<FlexOfferId> = vec![chunk[0].id()];
                    live.ingest(&chunk);
                    pool.publish(&live.publish());
                    live.withdraw(&ids);
                    pool.publish(&live.publish());
                }
            })
        };
        for &u in &users {
            let pool = Arc::clone(&pool);
            scope.spawn(move || {
                for i in 0..100 {
                    let outcome = pool
                        .apply(
                            u,
                            if i % 3 == 0 {
                                Command::Render
                            } else {
                                Command::Click(mirabel_viz::Point::new(10.0, 10.0))
                            },
                        )
                        .expect("session vanished");
                    assert!(
                        !matches!(outcome, Outcome::Rejected(_)),
                        "reader command rejected mid-publish"
                    );
                    // A session's view is always a whole epoch: the tab's
                    // offers equal the query result over some published
                    // snapshot, never a mix.
                    pool.with_session(u, |s| {
                        let tab = s.active_tab().unwrap();
                        assert!(tab.epoch() <= pool.epoch());
                    })
                    .unwrap();
                }
            });
        }
        writer.join().expect("writer panicked");
    });

    // After the storm: one final publish + command round converges every
    // session onto the same terminal offer set.
    pool.publish(&live.publish());
    let expected = {
        let dw: Arc<Warehouse> = Arc::clone(live.snapshot().warehouse());
        dw.load_offers(&everywhere()).len()
    };
    for &u in &users {
        pool.apply(u, Command::Render).unwrap();
        assert_eq!(
            pool.with_session(u, |s| s.active_tab().unwrap().offers.len()).unwrap(),
            expected
        );
    }
}

#[test]
fn plan_command_is_epoch_aware_and_incremental() {
    let (pop, day1, day2) = setup();
    let live = LiveWarehouse::new(pop, &day1);
    let pool = ConcurrentPool::new(Arc::clone(live.snapshot().warehouse()));
    let id = pool.open();

    // Day 2 arrives (minus one straggler), then the session plans it.
    let (bulk, straggler) = day2.split_at(day2.len() - 1);
    live.ingest(bulk);
    pool.publish(&live.publish());
    let Some(Outcome::Planned(first)) = pool.apply(id, Command::Plan) else {
        panic!("plan rejected")
    };
    assert!(first.assigned > 0);
    assert!(first.replanned > 0);
    assert_eq!(first.epoch, 1);

    // The balance tab exists, is active, and serves pointer storms from
    // one cached frame.
    let builds = pool
        .with_session(id, |s| {
            let tab = s.active_tab().unwrap();
            assert!(tab.is_balance());
            assert_eq!(tab.plan_generation(), first.generation);
            s.frames_built()
        })
        .unwrap();
    for i in 0..20 {
        pool.apply(id, Command::PointerMove(mirabel_viz::Point::new(i as f64 * 9.0, 200.0)))
            .unwrap();
    }
    pool.apply(id, Command::Render).unwrap();
    assert_eq!(pool.with_session(id, |s| s.frames_built()).unwrap(), builds + 1);

    // One straggler offer arrives in a new epoch: the re-plan touches a
    // single partition, and the balance frame moves to the new
    // generation.
    live.ingest(straggler);
    pool.publish(&live.publish());
    let Some(Outcome::Planned(second)) = pool.apply(id, Command::Plan) else {
        panic!("plan rejected")
    };
    assert_eq!(second.replanned, 1, "single ingest re-plans one partition");
    assert!(second.generation > first.generation);
    assert_eq!(second.epoch, 2);
    assert_eq!(second.assigned, first.assigned + 1);

    // No further delta: planning again reports a no-op.
    let Some(Outcome::Planned(third)) = pool.apply(id, Command::Plan) else {
        panic!("plan rejected")
    };
    assert_eq!(third.replanned, 0);
    assert_eq!(third.generation, second.generation);
}

#[test]
fn plan_replay_reproduces_frame_hashes() {
    let (pop, day1, day2) = setup();
    let live = LiveWarehouse::new(pop, &day1);
    live.ingest(&day2);
    let snapshot = live.publish();
    let dw: Arc<Warehouse> = Arc::clone(snapshot.warehouse());

    let commands = vec![
        Command::SetCanvas { width: 960.0, height: 540.0 },
        Command::SetPlanningParams(mirabel_session::PlanningParams {
            threads: 4,
            ..Default::default()
        }),
        Command::Plan,
        Command::Render,
    ];
    let a = mirabel_session::Session::replay(Arc::clone(&dw), &commands);
    let b = mirabel_session::Session::replay(dw, &commands);
    assert_eq!(a.frame_hashes(), b.frame_hashes());
    assert_eq!(a.plan_generation(), b.plan_generation());
    assert!(a.plan_generation() > 0);
}

#[test]
fn zero_horizon_planning_params_are_rejected() {
    let (pop, day1, _) = setup();
    let mut s = mirabel_session::Session::new(Arc::new(Warehouse::load(&pop, &day1)));
    // Insane wire params are rejected before they can cost anything.
    let bad = mirabel_session::PlanningParams { horizon: 0, ..Default::default() };
    assert!(s.handle(Command::SetPlanningParams(bad)).is_rejected());
    assert_eq!(s.planning_params(), mirabel_session::PlanningParams::default());
}
