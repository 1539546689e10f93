//! The live plan cycle pinned bit for bit.
//!
//! A seeded `LiveWarehouse` churns (ingest, withdraw, advance-day)
//! while one session plans and renders the balance tab every few
//! epochs. Every `Outcome::Planned` (its imbalances by `to_bits()`, the
//! re-planned partition count and the assigned offer count), every
//! balance frame hash and one hover probe per plan fold into a single
//! digest, pinned at planner threads 1 and 4.
//!
//! After each plan the balance tab's offers must equal, offer for
//! offer, those a fresh session planning the same snapshot shows: the
//! balance tab shares unchanged offers with the previous plan, so an
//! offer reused across a changed schedule would surface here.

use std::sync::Arc;

use mirabel_dw::{EpochSnapshot, LiveWarehouse};
use mirabel_flexoffer::{FlexOffer, FlexOfferId};
use mirabel_session::{Command, Outcome, PlanningParams, Session, Tab};
use mirabel_timeseries::{SlotSpan, TimeSlot};
use mirabel_viz::Point;
use mirabel_workload::{generate_offers, OfferConfig, Population, PopulationConfig};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// The digest the plan cycle below folds to.
const PINNED: u64 = 0xe4b2_1356_a1de_1786;

/// FNV-1a over whole words.
struct Digest(u64);

impl Digest {
    fn new() -> Digest {
        Digest(0xCBF2_9CE4_8422_2325)
    }

    fn word(&mut self, v: u64) {
        self.0 = (self.0 ^ v).wrapping_mul(0x0000_0100_0000_01B3);
    }
}

/// Day `d`'s arrivals, with ids disjoint across days.
fn day(population: &Population, d: usize) -> Vec<FlexOffer> {
    let config = OfferConfig {
        window_start: TimeSlot::EPOCH + SlotSpan::days(d as i64),
        days: 1,
        seed: 0x5EED + d as u64,
    };
    generate_offers(population, &config)
        .into_iter()
        .enumerate()
        .map(|(i, fo)| fo.with_id(FlexOfferId(((d as u64 + 1) << 20) + i as u64)))
        .collect()
}

fn balance_tab(session: &Session) -> &Tab {
    session.tabs().iter().find(|t| t.is_balance()).expect("a plan opens the balance tab")
}

/// Plans, renders and hovers the balance tab, folds what came back into
/// `digest`, and checks the tab against a fresh session's plan of the
/// same snapshot.
fn plan_and_render(
    session: &mut Session,
    snapshot: &EpochSnapshot,
    params: PlanningParams,
    digest: &mut Digest,
) {
    let Outcome::Planned(stats) = session.handle(Command::Plan) else {
        panic!("plan rejected at epoch {}", snapshot.epoch())
    };
    digest.word(stats.before_l1.to_bits());
    digest.word(stats.after_l1.to_bits());
    digest.word(stats.replanned as u64);
    digest.word(stats.assigned as u64);
    let Outcome::Frame(frame) = session.handle(Command::Render) else {
        panic!("render rejected at epoch {}", snapshot.epoch())
    };
    digest.word(frame.hash);
    let hover = match session.handle(Command::PointerMove(Point::new(480.0, 300.0))) {
        Outcome::Tooltip(Some(info)) => info.offer_index as u64,
        Outcome::Tooltip(None) => u64::MAX,
        other => panic!("hover answered {other:?}"),
    };
    digest.word(hover);

    let mut fresh = Session::new(Arc::clone(snapshot.warehouse()));
    fresh.sync_warehouse(Arc::clone(snapshot.warehouse()), snapshot.epoch());
    fresh.handle(Command::SetPlanningParams(params));
    let Outcome::Planned(want) = fresh.handle(Command::Plan) else {
        panic!("fresh plan rejected at epoch {}", snapshot.epoch())
    };
    assert_eq!(stats.assigned, want.assigned, "epoch {}", snapshot.epoch());
    assert_eq!(stats.after_l1.to_bits(), want.after_l1.to_bits(), "epoch {}", snapshot.epoch());
    let (ours, theirs) = (balance_tab(session), balance_tab(&fresh));
    assert_eq!(ours.offers.len(), theirs.offers.len(), "epoch {}", snapshot.epoch());
    for (a, b) in ours.offers.iter().zip(theirs.offers.iter()) {
        assert_eq!(a, b, "balance offer {:?} differs at epoch {}", a.id(), snapshot.epoch());
    }
    assert_eq!(frame.hash, theirs.frame().hash, "epoch {}", snapshot.epoch());
}

/// Runs the seeded churn at `threads` planner threads; returns the
/// digest and the number of plans it made.
fn cycle(threads: usize) -> (u64, usize) {
    let population =
        Population::generate(&PopulationConfig { size: 60, seed: 0x9C1E, household_share: 0.8 });
    let first = day(&population, 0);
    let mut known: Vec<FlexOfferId> = first.iter().map(FlexOffer::id).collect();
    let live = LiveWarehouse::new(population.clone(), &first);
    let params = PlanningParams { threads, ..PlanningParams::default() };
    let mut session = Session::new(Arc::clone(live.snapshot().warehouse()));
    session.handle(Command::SetPlanningParams(params));

    let mut rng = StdRng::seed_from_u64(0xC7C1E);
    let mut digest = Digest::new();
    let mut plans = 0;
    for d in 1..=3 {
        live.advance_day();
        let arrivals = day(&population, d);
        for batch in arrivals.chunks(arrivals.len() / 6 + 1) {
            live.ingest(batch);
            known.extend(batch.iter().map(FlexOffer::id));
            let withdrawn: Vec<FlexOfferId> = (0..batch.len() / 8)
                .map(|_| known.swap_remove(rng.gen_range(0..known.len())))
                .collect();
            live.withdraw(&withdrawn);
            let snapshot = live.publish();
            session.sync_warehouse(Arc::clone(snapshot.warehouse()), snapshot.epoch());
            if snapshot.epoch().is_multiple_of(2) {
                plan_and_render(&mut session, &snapshot, params, &mut digest);
                plans += 1;
            }
        }
    }
    (digest.0, plans)
}

#[test]
fn the_plan_cycle_is_pinned_at_one_and_four_threads() {
    for threads in [1, 4] {
        let (digest, plans) = cycle(threads);
        assert!(plans >= 8, "only {plans} plans");
        assert_eq!(digest, PINNED, "plan-cycle digest at {threads} threads: {digest:#018x}");
    }
}
