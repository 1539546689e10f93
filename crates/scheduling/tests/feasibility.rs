//! Property tests: every `Scheduler` yields only **feasible**
//! assignments, and never panics, on degenerate inputs.
//!
//! A seeded generator draws hundreds of randomized offer sets per
//! scheduler, skewed toward the degenerate corners that break planners
//! in practice — zero-energy slices, single-slot flexibility windows,
//! offers outside the target extent, forced minimums, production-
//! direction offers, empty targets, and withdrawals landing mid-plan.

use mirabel_flexoffer::{Direction, Energy, FlexOffer, FlexOfferId};
use mirabel_scheduling::{
    IncrementalPlanner, PlannerConfig, Scheduler, SchedulerKind, SchedulingError,
};
use mirabel_timeseries::{TimeSeries, TimeSlot};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// A seeded offer with degenerate corners drawn on purpose.
fn arbitrary_offer(rng: &mut StdRng, id: u64) -> FlexOffer {
    let est: i64 = rng.gen_range(-8..40);
    // 1 in 3 offers has a single-slot window (tf = 0).
    let tf: i64 = if rng.gen_range(0..3) == 0 { 0 } else { rng.gen_range(0..16) };
    let len: usize = rng.gen_range(1..=6);
    // Energy corners: zero-energy slices, forced minimums, wide ranges.
    let (min, max) = match rng.gen_range(0..4) {
        0 => (0, 0), // zero-energy slices
        1 => {
            let m = rng.gen_range(1..2_000);
            (m, m) // forced exact energy
        }
        2 => (0, rng.gen_range(1..3_000)), // free
        _ => {
            let m = rng.gen_range(1..1_000);
            (m, m + rng.gen_range(0..2_000)) // forced minimum
        }
    };
    let mut builder = FlexOffer::builder(id, id)
        .earliest_start(TimeSlot::new(est))
        .latest_start(TimeSlot::new(est + tf))
        .slices(len, Energy::from_wh(min), Energy::from_wh(max));
    if rng.gen_range(0..5) == 0 {
        builder = builder.direction(Direction::Production);
    }
    let mut fo = builder.build().expect("generator produces valid offers");
    // A few offers are left unaccepted (Offered/Rejected): schedulers
    // must skip them, not panic.
    match rng.gen_range(0..8) {
        0 => {}
        1 => fo.reject().unwrap(),
        _ => fo.accept().unwrap(),
    }
    fo
}

fn arbitrary_target(rng: &mut StdRng) -> TimeSeries {
    let len = rng.gen_range(1..64);
    let start = TimeSlot::new(rng.gen_range(-4..8));
    let vals: Vec<f64> = (0..len).map(|_| rng.gen_range(-2.0..8.0f64).max(0.0)).collect();
    TimeSeries::new(start, vals)
}

fn schedulers() -> [SchedulerKind; 4] {
    SchedulerKind::ALL
}

/// The core property: a scheduler run leaves every touched offer with a
/// schedule its own state machine re-validates, and untouched offers
/// untouched.
fn assert_feasible(offers: &[FlexOffer]) {
    for fo in offers {
        match fo.schedule() {
            Some(s) => {
                fo.check_schedule(s).unwrap_or_else(|e| {
                    panic!("{:?} got an infeasible schedule: {e}", fo.id());
                });
                assert!(s.start() >= fo.earliest_start() && s.start() <= fo.latest_start());
            }
            None => assert!(fo.schedule().is_none(), "offers without schedules stay schedule-free"),
        }
    }
}

#[test]
fn every_scheduler_is_feasible_on_degenerate_inputs() {
    for kind in schedulers() {
        let mut rng = StdRng::seed_from_u64(0xFEA5 ^ kind.token().len() as u64);
        for round in 0..60 {
            let mut offers: Vec<FlexOffer> = (0..rng.gen_range(0..40))
                .map(|i| arbitrary_offer(&mut rng, round * 1_000 + i + 1))
                .collect();
            let target = arbitrary_target(&mut rng);
            let report = kind
                .schedule(&mut offers, &target)
                .unwrap_or_else(|e| panic!("{kind:?} round {round}: {e}"));
            assert_eq!(report.assigned + report.skipped, offers.len());
            assert_feasible(&offers);
        }
    }
}

#[test]
fn empty_target_curves_error_not_panic() {
    let empty = TimeSeries::zeros(TimeSlot::EPOCH, 0);
    let mut rng = StdRng::seed_from_u64(7);
    for kind in schedulers() {
        let mut offers: Vec<FlexOffer> =
            (0..10).map(|i| arbitrary_offer(&mut rng, i + 1)).collect();
        assert_eq!(
            kind.schedule(&mut offers, &empty).unwrap_err(),
            SchedulingError::EmptyTarget,
            "{kind:?}"
        );
        // And through the partitioned planner too.
        let mut planner = IncrementalPlanner::new(kind, PlannerConfig::default(), empty.clone());
        planner.insert(offers);
        assert_eq!(planner.replan().unwrap_err(), SchedulingError::EmptyTarget);
    }
}

#[test]
fn offers_entirely_outside_the_target_still_get_feasible_schedules() {
    // The target covers slots 0..8; these offers live hundreds of slots
    // away, where the residual reads as zero everywhere.
    let target = TimeSeries::constant(TimeSlot::new(0), 8, 3.0);
    for kind in schedulers() {
        let mut offers: Vec<FlexOffer> = (0..12)
            .map(|i| {
                let mut fo = FlexOffer::builder(i + 1, i + 1)
                    .earliest_start(TimeSlot::new(500 + i as i64))
                    .latest_start(TimeSlot::new(503 + i as i64))
                    .slices(2, Energy::from_wh(100), Energy::from_wh(400))
                    .build()
                    .unwrap();
                fo.accept().unwrap();
                fo
            })
            .collect();
        let report = kind.schedule(&mut offers, &target).unwrap();
        assert_eq!(report.assigned, 12, "{kind:?}");
        assert_feasible(&offers);
    }
}

#[test]
fn withdrawn_offers_mid_plan_never_resurface_and_keep_the_rest_feasible() {
    let target = TimeSeries::constant(TimeSlot::new(0), 48, 4.0);
    for kind in schedulers() {
        let mut rng = StdRng::seed_from_u64(0xD0_0D ^ kind.token().len() as u64);
        let offers: Vec<FlexOffer> = (0..60).map(|i| arbitrary_offer(&mut rng, i + 1)).collect();
        let mut planner = IncrementalPlanner::new(
            kind,
            PlannerConfig { partitions: 8, threads: 2, seed: 5 },
            target.clone(),
        );
        planner.insert(offers);
        planner.replan().unwrap_or_else(|e| panic!("{kind:?}: {e}"));

        // Withdraw a random third between re-plans, several times.
        for _ in 0..4 {
            let ids = planner.ids();
            let victims: Vec<FlexOfferId> =
                ids.iter().copied().filter(|_| rng.gen_range(0..3) == 0).collect();
            planner.remove(&victims);
            let out = planner.replan().unwrap_or_else(|e| panic!("{kind:?}: {e}"));
            for v in &victims {
                assert!(!planner.contains(*v), "withdrawn {v:?} resurfaced");
            }
            assert_eq!(out.report.assigned + out.report.skipped, planner.len());
            let held: Vec<FlexOffer> = planner.offers().into_iter().cloned().collect();
            assert_feasible(&held);
        }
    }
}

#[test]
fn single_slot_windows_and_zero_energy_slices_are_planable() {
    let target = TimeSeries::constant(TimeSlot::new(0), 16, 1.0);
    for kind in schedulers() {
        let mut offers: Vec<FlexOffer> = (0..8)
            .map(|i| {
                // tf = 0 and min = max = 0: the only feasible plan is a
                // fixed start with all-zero energies.
                let mut fo = FlexOffer::builder(i + 1, i + 1)
                    .earliest_start(TimeSlot::new(i as i64 * 2))
                    .latest_start(TimeSlot::new(i as i64 * 2))
                    .slices(3, Energy::ZERO, Energy::ZERO)
                    .build()
                    .unwrap();
                fo.accept().unwrap();
                fo
            })
            .collect();
        let report = kind.schedule(&mut offers, &target).unwrap();
        assert_eq!(report.assigned, 8, "{kind:?}");
        for fo in &offers {
            let s = fo.schedule().unwrap();
            assert_eq!(s.start(), fo.earliest_start());
            assert!(s.energies().iter().all(|&e| e == Energy::ZERO));
        }
    }
}
