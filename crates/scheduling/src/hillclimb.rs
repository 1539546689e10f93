//! Stochastic local search on top of the greedy plan.

use mirabel_flexoffer::{FlexOffer, Schedule};
use mirabel_timeseries::TimeSeries;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::greedy::{plan_one, GreedyScheduler};
use crate::objective::{
    add_energies, apply_to_residual, report, schedulable, SchedulingError, SchedulingReport,
};
use crate::Scheduler;

/// Hill-climbing refinement (the local-search spirit of the evolutionary
/// scheduler in reference \[27\]): start from the greedy plan, then
/// repeatedly pick a random assigned offer, *remove* it from the residual,
/// re-plan it optimally against the current residual, and keep the move
/// (re-planning a single offer against the residual-without-it never
/// worsens the objective, so the plan quality is monotone).
#[derive(Debug, Clone, Copy)]
pub struct HillClimbScheduler {
    /// Fixed number of single-offer re-planning moves.
    pub iterations: usize,
    /// Additional moves *per assigned offer*, on top of `iterations`.
    /// A non-zero value scales the optimization budget with the size of
    /// the input — every offer gets, on average, this many chances to be
    /// re-planned, regardless of pool size. Zero keeps the budget fixed.
    pub moves_per_offer: usize,
    /// RNG seed for the move order.
    pub seed: u64,
}

impl HillClimbScheduler {
    /// Creates a hill climber with the given fixed move budget and seed.
    pub fn new(iterations: usize, seed: u64) -> Self {
        HillClimbScheduler { iterations, moves_per_offer: 0, seed }
    }

    /// Creates a hill climber whose move budget scales with its input:
    /// `moves` single-offer re-planning moves per assigned offer. This is
    /// the natural budget for local search — the work grows with the
    /// number of units being scheduled, which is exactly what
    /// aggregate-then-schedule exploits (fewer units, smaller budget).
    pub fn per_offer(moves: usize, seed: u64) -> Self {
        HillClimbScheduler { iterations: 0, moves_per_offer: moves, seed }
    }
}

impl Default for HillClimbScheduler {
    fn default() -> Self {
        HillClimbScheduler { iterations: 200, moves_per_offer: 0, seed: 0xC11AB }
    }
}

impl Scheduler for HillClimbScheduler {
    fn name(&self) -> &'static str {
        "hill-climb"
    }

    fn schedule(
        &self,
        offers: &mut [FlexOffer],
        target: &TimeSeries,
    ) -> Result<SchedulingReport, SchedulingError> {
        if target.is_empty() {
            return Err(SchedulingError::EmptyTarget);
        }
        // Phase 1: greedy construction.
        let greedy = GreedyScheduler.schedule(offers, target)?;

        // Residual after the greedy plan.
        let mut residual = target.clone();
        let assigned_idx: Vec<usize> = (0..offers.len())
            .filter(|&i| schedulable(&offers[i]) && offers[i].schedule().is_some())
            .collect();
        for &i in &assigned_idx {
            let fo = &offers[i];
            let s = fo.schedule().expect("filtered to assigned");
            apply_to_residual(&mut residual, fo, s.start(), s.energies());
        }

        if assigned_idx.is_empty() {
            return Ok(report(self.name(), offers, target, 0, offers.len()));
        }

        // Phase 2: single-offer re-planning moves.
        let budget = self.iterations + self.moves_per_offer * assigned_idx.len();
        let mut rng = StdRng::seed_from_u64(self.seed);
        for _ in 0..budget {
            let pick = assigned_idx[rng.gen_range(0..assigned_idx.len())];
            // Remove the offer's current load from the residual (i.e. add
            // it back to the target side).
            let fo = &offers[pick];
            let s = fo.schedule().expect("assigned");
            add_energies(&mut residual, s.start(), s.energies(), fo.direction().sign());
            // Re-plan optimally against the residual without it.
            let (new_start, new_energies) = plan_one(&offers[pick], &residual);
            apply_to_residual(&mut residual, &offers[pick], new_start, &new_energies);
            offers[pick].assign(Schedule::new(new_start, new_energies))?;
        }

        let mut out = report(self.name(), offers, target, greedy.assigned, greedy.skipped);
        // Monotonicity guard: the refinement must never be worse than the
        // greedy construction (see invariant note in DESIGN.md §5).
        debug_assert!(out.after.l2_sq <= greedy.after.l2_sq + 1e-6);
        out.scheduler = self.name();
        Ok(out)
    }

    /// Combines the partition seed with the scheduler's own (see
    /// [`crate::Scheduler::schedule_seeded`]); the move budget is kept.
    fn schedule_seeded(
        &self,
        offers: &mut [FlexOffer],
        target: &TimeSeries,
        seed: u64,
    ) -> Result<SchedulingReport, SchedulingError> {
        HillClimbScheduler { seed: self.seed.wrapping_add(seed), ..*self }.schedule(offers, target)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mirabel_flexoffer::Energy;
    use mirabel_timeseries::{SlotSpan, TimeSlot};

    fn accepted(id: u64, est: i64, tf: i64, len: usize, min: i64, max: i64) -> FlexOffer {
        let mut fo = FlexOffer::builder(id, id)
            .earliest_start(TimeSlot::new(est))
            .latest_start(TimeSlot::new(est + tf))
            .slices(len, Energy::from_wh(min), Energy::from_wh(max))
            .build()
            .unwrap();
        fo.accept().unwrap();
        fo
    }

    fn spiky_target() -> TimeSeries {
        TimeSeries::from_fn(TimeSlot::new(0), 48, |i| match i {
            10..=14 => 4.0,
            30..=38 => 2.5,
            _ => 0.2,
        })
    }

    #[test]
    fn never_worse_than_greedy() {
        let target = spiky_target();
        let mk = || -> Vec<FlexOffer> {
            (0..16).map(|i| accepted(i + 1, (i % 6) as i64, 24, 4, 0, 1_200)).collect()
        };
        let mut g = mk();
        let mut h = mk();
        let rg = GreedyScheduler.schedule(&mut g, &target).unwrap();
        let rh = HillClimbScheduler::new(300, 42).schedule(&mut h, &target).unwrap();
        assert!(rh.after.l2_sq <= rg.after.l2_sq + 1e-9);
    }

    #[test]
    fn deterministic_for_fixed_seed() {
        let target = spiky_target();
        let mk =
            || -> Vec<FlexOffer> { (0..10).map(|i| accepted(i + 1, 0, 20, 3, 0, 900)).collect() };
        let mut a = mk();
        let mut b = mk();
        HillClimbScheduler::new(100, 9).schedule(&mut a, &target).unwrap();
        HillClimbScheduler::new(100, 9).schedule(&mut b, &target).unwrap();
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.schedule(), y.schedule());
        }
    }

    #[test]
    fn all_schedules_remain_feasible() {
        let target = spiky_target();
        let mut offers: Vec<FlexOffer> =
            (0..12).map(|i| accepted(i + 1, (i % 10) as i64, (i % 7) as i64, 2, 50, 800)).collect();
        let r = HillClimbScheduler::default().schedule(&mut offers, &target).unwrap();
        assert_eq!(r.assigned, 12);
        for fo in &offers {
            fo.check_schedule(fo.schedule().unwrap()).unwrap();
            // Start stays inside the window even after re-planning.
            let s = fo.schedule().unwrap();
            assert!(s.start() >= fo.earliest_start() && s.start() <= fo.latest_start());
            assert!(s.start() + SlotSpan::slots(s.len() as i64) == s.end());
        }
    }

    #[test]
    fn zero_iterations_equals_greedy() {
        let target = spiky_target();
        let mk =
            || -> Vec<FlexOffer> { (0..8).map(|i| accepted(i + 1, 2, 16, 3, 0, 700)).collect() };
        let mut a = mk();
        let mut b = mk();
        GreedyScheduler.schedule(&mut a, &target).unwrap();
        HillClimbScheduler::new(0, 1).schedule(&mut b, &target).unwrap();
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.schedule(), y.schedule());
        }
    }

    #[test]
    fn per_offer_budget_matches_the_equivalent_fixed_budget() {
        let target = spiky_target();
        let mk =
            || -> Vec<FlexOffer> { (0..14).map(|i| accepted(i + 1, 1, 18, 3, 0, 800)).collect() };
        // All 14 offers are schedulable, so per_offer(5) spends exactly
        // the same 70 moves (and the same RNG stream) as new(70, seed).
        let mut a = mk();
        let mut b = mk();
        HillClimbScheduler::per_offer(5, 11).schedule(&mut a, &target).unwrap();
        HillClimbScheduler::new(70, 11).schedule(&mut b, &target).unwrap();
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.schedule(), y.schedule());
        }
    }

    #[test]
    fn empty_target_rejected() {
        let mut offers = vec![accepted(1, 0, 0, 1, 0, 10)];
        let empty = TimeSeries::zeros(TimeSlot::new(0), 0);
        assert!(HillClimbScheduler::default().schedule(&mut offers, &empty).is_err());
    }

    #[test]
    fn handles_no_schedulable_offers() {
        let mut fo = FlexOffer::builder(1u64, 1u64)
            .earliest_start(TimeSlot::new(0))
            .slices(1, Energy::ZERO, Energy::from_wh(10))
            .build()
            .unwrap();
        fo.reject().unwrap();
        let mut offers = vec![fo];
        let target = TimeSeries::constant(TimeSlot::new(0), 4, 1.0);
        let r = HillClimbScheduler::default().schedule(&mut offers, &target).unwrap();
        assert_eq!(r.assigned, 0);
        assert_eq!(r.skipped, 1);
    }
}
