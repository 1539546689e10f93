//! The best-start greedy scheduler with residual tracking.

use std::cmp::Reverse;

use mirabel_flexoffer::{Energy, FlexOffer, Schedule};
use mirabel_timeseries::{SlotSpan, TimeSeries, TimeSlot};

use crate::objective::{
    apply_to_residual, best_fill, fill, report, schedulable, SchedulingError, SchedulingReport,
};
use crate::Scheduler;

/// Greedy planner: offers are processed in order of decreasing total
/// maximum energy (big loads are placed while the residual is still
/// malleable); for each offer every feasible start slot is evaluated with
/// a residual-tracking energy fill, and the start with the best objective
/// delta wins. The residual curve is updated after each commitment.
///
/// Complexity: `O(n · tf · len)` for `n` offers with time flexibility
/// `tf` and profile length `len` — comfortably interactive for the
/// aggregate counts the enterprise schedules (aggregation shrinks `n`
/// first, which is exactly why reference \[27\] pairs the two).
#[derive(Debug, Clone, Copy, Default)]
pub struct GreedyScheduler;

impl Scheduler for GreedyScheduler {
    fn name(&self) -> &'static str {
        "greedy-best-start"
    }

    fn schedule(
        &self,
        offers: &mut [FlexOffer],
        target: &TimeSeries,
    ) -> Result<SchedulingReport, SchedulingError> {
        if target.is_empty() {
            return Err(SchedulingError::EmptyTarget);
        }
        let mut residual = target.clone();

        // Plan big offers first: each key is computed once, and the
        // input index breaks ties, so the unstable sort orders exactly
        // like a stable sort by key.
        let mut order: Vec<(Reverse<Energy>, usize)> =
            offers.iter().enumerate().map(|(i, fo)| (Reverse(fo.total_max_energy()), i)).collect();
        order.sort_unstable();

        let mut assigned = 0;
        let mut skipped = 0;
        for (_, i) in order {
            let fo = &offers[i];
            if !schedulable(fo) {
                skipped += 1;
                continue;
            }
            let (start, energies) = plan_one(fo, &residual);
            apply_to_residual(&mut residual, fo, start, &energies);
            offers[i].assign(Schedule::new(start, energies))?;
            assigned += 1;
        }
        Ok(report(self.name(), offers, target, assigned, skipped))
    }
}

/// Evaluates every feasible start for `fo` against `residual` and returns
/// the best `(start, energies)` pair: the lowest objective delta, the
/// earliest start among equals. Candidates are scored without
/// allocating ([`fill`] with a no-op sink); only the winner is filled.
#[allow(clippy::neg_cmp_op_on_partial_ord)]
pub(crate) fn plan_one(fo: &FlexOffer, residual: &TimeSeries) -> (TimeSlot, Vec<Energy>) {
    let tf = fo.time_flexibility().count();
    let mut best_start = fo.earliest_start();
    let mut best_delta = fill(fo, best_start, residual, |_| {});
    for shift in 1..=tf {
        let start = fo.earliest_start() + SlotSpan::slots(shift);
        let delta = fill(fo, start, residual, |_| {});
        // A later start must be strictly better to win. Negated `>=`
        // rather than `<`, so an unordered (NaN) delta replaces the
        // best, as it always has.
        if !(delta >= best_delta) {
            best_start = start;
            best_delta = delta;
        }
    }
    let (energies, _) = best_fill(fo, best_start, residual);
    (best_start, energies)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::simple::EarliestStartScheduler;

    fn wh(v: i64) -> Energy {
        Energy::from_wh(v)
    }

    fn accepted(id: u64, est: i64, tf: i64, len: usize, min: i64, max: i64) -> FlexOffer {
        let mut fo = FlexOffer::builder(id, id)
            .earliest_start(TimeSlot::new(est))
            .latest_start(TimeSlot::new(est + tf))
            .slices(len, wh(min), wh(max))
            .build()
            .unwrap();
        fo.accept().unwrap();
        fo
    }

    #[test]
    fn shifts_load_under_the_surplus() {
        // Surplus arrives at slots 8..12; the offer may start anywhere in
        // 0..=8. Greedy must start it at 8.
        let target =
            TimeSeries::from_fn(
                TimeSlot::new(0),
                16,
                |i| if (8..12).contains(&i) { 2.0 } else { 0.0 },
            );
        let mut offers = vec![accepted(1, 0, 8, 4, 0, 2_000)];
        let r = GreedyScheduler.schedule(&mut offers, &target).unwrap();
        let s = offers[0].schedule().unwrap();
        assert_eq!(s.start(), TimeSlot::new(8));
        assert!(s.energies().iter().all(|&e| e == wh(2_000)));
        assert!(r.after.l1 < 1e-9);
    }

    #[test]
    fn beats_earliest_start_baseline() {
        let target = TimeSeries::from_fn(TimeSlot::new(0), 32, |i| {
            if (16..28).contains(&i) {
                3.0
            } else {
                0.0
            }
        });
        let mk = || -> Vec<FlexOffer> {
            (0..12).map(|i| accepted(i + 1, (i % 4) as i64, 16, 4, 100, 1_500)).collect()
        };
        let mut greedy_offers = mk();
        let mut baseline_offers = mk();
        let g = GreedyScheduler.schedule(&mut greedy_offers, &target).unwrap();
        let b = EarliestStartScheduler.schedule(&mut baseline_offers, &target).unwrap();
        assert!(
            g.after.l2_sq < b.after.l2_sq,
            "greedy {} !< baseline {}",
            g.after.l2_sq,
            b.after.l2_sq
        );
    }

    #[test]
    fn plan_one_prefers_earliest_tie() {
        // Flat zero residual: every start is equally bad; the first
        // (earliest) is kept for determinism.
        let fo = accepted(1, 4, 6, 2, 100, 100);
        let residual = TimeSeries::zeros(TimeSlot::new(0), 16);
        let (start, _) = plan_one(&fo, &residual);
        assert_eq!(start, TimeSlot::new(4));
    }

    #[test]
    fn big_offers_planned_first() {
        // The big offer should take the surplus; the small one fits in
        // what remains. If order were reversed, the small offer would sit
        // in the middle of the surplus and the big one would overspill.
        let target = TimeSeries::from_fn(TimeSlot::new(0), 8, |i| if i < 4 { 4.0 } else { 0.0 });
        let mut offers = vec![
            accepted(1, 0, 4, 4, 0, 1_000), // small
            accepted(2, 0, 4, 4, 0, 4_000), // big
        ];
        GreedyScheduler.schedule(&mut offers, &target).unwrap();
        let big = offers[1].schedule().unwrap();
        assert_eq!(big.start(), TimeSlot::new(0));
        assert!(big.energies().iter().take(4).all(|&e| e == wh(4_000)));
    }

    #[test]
    fn respects_feasibility() {
        let target = TimeSeries::constant(TimeSlot::new(0), 16, 1.0);
        let mut offers: Vec<FlexOffer> =
            (0..20).map(|i| accepted(i + 1, (i % 8) as i64, (i % 5) as i64, 3, 200, 700)).collect();
        let r = GreedyScheduler.schedule(&mut offers, &target).unwrap();
        assert_eq!(r.assigned, 20);
        for fo in &offers {
            fo.check_schedule(fo.schedule().unwrap()).unwrap();
        }
    }
}
