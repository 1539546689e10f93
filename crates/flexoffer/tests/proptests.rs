//! Property-based tests for the flex-offer model.

use mirabel_flexoffer::{Direction, Energy, EnergySlice, FlexOffer, Profile, Schedule};
use mirabel_timeseries::{SlotSpan, TimeSlot};
use proptest::prelude::*;

/// Strategy producing a valid profile of 1..=16 slices.
fn profile_strategy() -> impl Strategy<Value = Vec<(i64, i64)>> {
    proptest::collection::vec((0i64..5_000, 0i64..5_000), 1..16)
        .prop_map(|raw| raw.into_iter().map(|(a, b)| (a.min(b), a.max(b))).collect())
}

fn build_offer(slices: &[(i64, i64)], earliest: i64, tf: i64) -> FlexOffer {
    let es: Vec<EnergySlice> = slices
        .iter()
        .map(|&(lo, hi)| EnergySlice::new(Energy::from_wh(lo), Energy::from_wh(hi)).unwrap())
        .collect();
    FlexOffer::builder(1u64, 1u64)
        .direction(Direction::Consumption)
        .earliest_start(TimeSlot::new(earliest))
        .latest_start(TimeSlot::new(earliest + tf))
        .profile_slices(es)
        .build()
        .unwrap()
}

proptest! {
    /// Measures are internally consistent for every valid offer.
    #[test]
    fn measures_consistent(
        slices in profile_strategy(),
        earliest in -1_000i64..1_000,
        tf in 0i64..96,
    ) {
        let fo = build_offer(&slices, earliest, tf);
        prop_assert_eq!(fo.time_flexibility(), SlotSpan::slots(tf));
        prop_assert!(fo.total_min_energy() <= fo.total_max_energy());
        prop_assert_eq!(
            fo.energy_flexibility(),
            fo.total_max_energy() - fo.total_min_energy()
        );
        // Balancing potential is bounded by flexibility + total max.
        prop_assert!(fo.balancing_potential() >= fo.energy_flexibility());
        prop_assert!(
            fo.balancing_potential() <= fo.energy_flexibility() + fo.total_max_energy()
        );
        // Extent is consistent with duration and flexibility.
        let (lo, hi) = fo.extent();
        prop_assert_eq!(hi - lo, SlotSpan::slots(tf + slices.len() as i64));
    }

    /// Any schedule built from per-slice bounds plus a start inside the
    /// window passes the feasibility check; perturbed ones fail.
    #[test]
    fn schedules_at_bounds_feasible(
        slices in profile_strategy(),
        earliest in -500i64..500,
        tf in 0i64..48,
        start_off in 0i64..48,
        pick_max in proptest::bool::ANY,
    ) {
        let fo = build_offer(&slices, earliest, tf);
        let start = TimeSlot::new(earliest + start_off.min(tf));
        let energies: Vec<Energy> = slices
            .iter()
            .map(|&(lo, hi)| Energy::from_wh(if pick_max { hi } else { lo }))
            .collect();
        let sched = Schedule::new(start, energies);
        prop_assert!(fo.check_schedule(&sched).is_ok());

        // Starting one slot after the latest start must fail.
        let late = Schedule::new(
            TimeSlot::new(earliest + tf + 1),
            sched.energies().to_vec(),
        );
        prop_assert!(fo.check_schedule(&late).is_err());
    }

    /// Lifecycle: accept+assign+execute always succeeds with a feasible
    /// schedule, and the executed offer retains it.
    #[test]
    fn lifecycle_round_trip(
        slices in profile_strategy(),
        earliest in -500i64..500,
        tf in 0i64..48,
    ) {
        let mut fo = build_offer(&slices, earliest, tf);
        fo.accept().unwrap();
        let energies: Vec<Energy> =
            slices.iter().map(|&(lo, _)| Energy::from_wh(lo)).collect();
        let sched = Schedule::new(TimeSlot::new(earliest), energies);
        fo.assign(sched.clone()).unwrap();
        let exec = mirabel_flexoffer::Execution::compliant(&sched);
        fo.record_execution(exec).unwrap();
        prop_assert_eq!(fo.schedule(), Some(&sched));
        prop_assert_eq!(
            fo.execution().unwrap().total_absolute_deviation(&sched),
            Energy::ZERO
        );
    }

    /// Profile totals equal the sum over anchored iteration.
    #[test]
    fn anchored_iteration_totals(slices in profile_strategy(), anchor in -100i64..100) {
        let es: Vec<EnergySlice> = slices
            .iter()
            .map(|&(lo, hi)| EnergySlice::new(Energy::from_wh(lo), Energy::from_wh(hi)).unwrap())
            .collect();
        let p = Profile::new(es).unwrap();
        let total_max: Energy = p.anchored_at(TimeSlot::new(anchor)).map(|(_, s)| s.max).sum();
        prop_assert_eq!(total_max, p.total_max());
        let slots: Vec<i64> = p
            .anchored_at(TimeSlot::new(anchor))
            .map(|(t, _)| t.index())
            .collect();
        let expected: Vec<i64> = (anchor..anchor + p.len() as i64).collect();
        prop_assert_eq!(slots, expected);
    }

    /// `from_kwh_f64` rounds exactly like `f64::round` over arbitrary
    /// bit patterns: every exponent, subnormals, NaNs and infinities.
    #[test]
    fn from_kwh_f64_matches_round_on_any_bits(
        patterns in proptest::collection::vec(0u64..=u64::MAX, 64..65),
    ) {
        for bits in patterns {
            let kwh = f64::from_bits(bits);
            prop_assert_eq!(
                Energy::from_kwh_f64(kwh),
                Energy::from_wh((kwh * 1_000.0).round() as i64)
            );
        }
    }

    /// The same at the magnitudes a schedule meets, where the rounding
    /// is decided: whole, half and near-half watt-hours.
    #[test]
    fn from_kwh_f64_matches_round_near_half_wh(
        wh in -10_000_000i64..10_000_000,
        nudge in -4i64..5,
    ) {
        let tie = (wh as f64 + 0.5) / 1_000.0;
        let kwh = f64::from_bits(tie.to_bits().wrapping_add_signed(nudge));
        prop_assert_eq!(
            Energy::from_kwh_f64(kwh),
            Energy::from_wh((kwh * 1_000.0).round() as i64)
        );
    }
}
