//! Property-based tests for the schedulers.

use mirabel_flexoffer::{Energy, FlexOffer};
use mirabel_scheduling::{
    load_curve, EarliestStartScheduler, GreedyScheduler, HillClimbScheduler, Imbalance, Scheduler,
};
use mirabel_timeseries::{TimeSeries, TimeSlot};
use proptest::prelude::*;

fn offers_strategy() -> impl Strategy<Value = Vec<(i64, i64, usize, i64, i64)>> {
    proptest::collection::vec((0i64..24, 0i64..12, 1usize..6, 0i64..500, 0i64..1_500), 1..20)
}

fn build(raw: &[(i64, i64, usize, i64, i64)]) -> Vec<FlexOffer> {
    raw.iter()
        .enumerate()
        .map(|(i, &(est, tf, len, a, b))| {
            let (lo, hi) = (a.min(b), a.max(b));
            let mut fo = FlexOffer::builder(i as u64 + 1, i as u64 + 1)
                .earliest_start(TimeSlot::new(est))
                .latest_start(TimeSlot::new(est + tf))
                .slices(len, Energy::from_wh(lo), Energy::from_wh(hi))
                .build()
                .unwrap();
            fo.accept().unwrap();
            fo
        })
        .collect()
}

fn target_strategy() -> impl Strategy<Value = Vec<f64>> {
    proptest::collection::vec(0.0f64..5.0, 48..64)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Greedy never does worse than the earliest-start baseline on the
    /// quadratic objective (it contains the baseline's choice in its
    /// search space only when minimum bounds force it — so compare with a
    /// small tolerance on the rare degenerate ties).
    #[test]
    fn greedy_not_worse_than_baseline(raw in offers_strategy(), tvals in target_strategy()) {
        let target = TimeSeries::new(TimeSlot::new(0), tvals);
        let mut g = build(&raw);
        let mut b = build(&raw);
        let rg = GreedyScheduler.schedule(&mut g, &target).unwrap();
        let rb = EarliestStartScheduler.schedule(&mut b, &target).unwrap();
        // Greedy evaluates earliest-start among its candidates and picks
        // per-slot clamped energies, which dominate min-energy fills for a
        // non-negative target.
        prop_assert!(rg.after.l2_sq <= rb.after.l2_sq + 1e-6);
    }

    /// Hill climbing is monotone: never worse than greedy.
    #[test]
    fn hillclimb_monotone(raw in offers_strategy(), tvals in target_strategy(), seed in 0u64..50) {
        let target = TimeSeries::new(TimeSlot::new(0), tvals);
        let mut g = build(&raw);
        let mut h = build(&raw);
        let rg = GreedyScheduler.schedule(&mut g, &target).unwrap();
        let rh = HillClimbScheduler::new(100, seed).schedule(&mut h, &target).unwrap();
        prop_assert!(rh.after.l2_sq <= rg.after.l2_sq + 1e-6);
    }

    /// The report's "after" imbalance matches an independent recomputation
    /// from the assigned schedules.
    #[test]
    fn report_matches_recomputation(raw in offers_strategy(), tvals in target_strategy()) {
        let target = TimeSeries::new(TimeSlot::new(0), tvals);
        let mut offers = build(&raw);
        let report = GreedyScheduler.schedule(&mut offers, &target).unwrap();
        let load = load_curve(&offers, target.start(), target.len());
        let recomputed = Imbalance::of(&target, &load);
        prop_assert!((report.after.l1 - recomputed.l1).abs() < 1e-9);
        prop_assert!((report.after.l2_sq - recomputed.l2_sq).abs() < 1e-9);
    }
}
