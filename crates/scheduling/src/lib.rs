//! Flex-offer scheduling against a residual target curve.
//!
//! Section 2 of the paper describes the planning activity of the MIRABEL
//! enterprise: "it produces a plan in which supply is equal to (balances)
//! demand", exploiting the flexibilities of collected flex-offers, and
//! Figure 1 shows the intended effect — flexible demand is *shifted under*
//! the RES production curve. This crate implements that planning step
//! (in the spirit of reference \[27\], Tušar et al., *Using Aggregation to
//! Improve the Scheduling of Flexible Energy Offers*, BIOMA 2012):
//!
//! * the **objective** ([`Imbalance`], [`load_curve`]): the residual curve
//!   is the flexible-consumption target (e.g. RES surplus after
//!   non-flexible demand); schedulers choose start times and per-slice
//!   energies so the scheduled load tracks it, minimising the quadratic
//!   imbalance;
//! * four **schedulers** implementing the common [`Scheduler`] trait:
//!   [`EarliestStartScheduler`] (flexibility-ignoring baseline),
//!   [`RandomScheduler`] (seeded random baseline), [`GreedyScheduler`]
//!   (best-start greedy with residual tracking), and
//!   [`HillClimbScheduler`] (stochastic local search on top of greedy).
//!
//! All schedulers only ever produce **feasible** assignments: start times
//! within the flexibility window and energies within slice bounds, which
//! the [`FlexOffer::assign`](mirabel_flexoffer::FlexOffer::assign) state
//! machine re-validates.
//!
//! # Example
//!
//! ```
//! use mirabel_flexoffer::{Energy, FlexOffer};
//! use mirabel_scheduling::{GreedyScheduler, Scheduler};
//! use mirabel_timeseries::{SlotSpan, TimeSlot, TimeSeries};
//!
//! let t = TimeSlot::EPOCH;
//! let mut offers: Vec<FlexOffer> = (0..10)
//!     .map(|i| {
//!         let mut fo = FlexOffer::builder(i + 1, i + 1)
//!             .earliest_start(t)
//!             .latest_start(t + SlotSpan::hours(4))
//!             .slices(4, Energy::from_wh(0), Energy::from_wh(2_000))
//!             .build()
//!             .unwrap();
//!         fo.accept().unwrap();
//!         fo
//!     })
//!     .collect();
//! // A surplus of 5 kWh per slot arrives in hours 2..4.
//! let target = TimeSeries::from_fn(t, 32, |i| if (8..16).contains(&i) { 5.0 } else { 0.0 });
//! let report = GreedyScheduler::default().schedule(&mut offers, &target).unwrap();
//! assert!(report.after.l2_sq < report.before.l2_sq);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod bundle;
mod greedy;
mod hillclimb;
mod objective;
pub mod partition;
mod random;
mod simple;

pub use bundle::BundleScheduler;
pub use greedy::GreedyScheduler;
pub use hillclimb::HillClimbScheduler;
pub use objective::{best_fill, load_curve, Imbalance, SchedulingError, SchedulingReport};
pub use partition::{IncrementalPlanner, PlanOutcome, PlannerConfig};
pub use random::RandomScheduler;
pub use simple::EarliestStartScheduler;

use mirabel_flexoffer::FlexOffer;
use mirabel_timeseries::TimeSeries;

/// A planning algorithm that assigns schedules to accepted flex-offers so
/// the resulting load tracks `target`.
///
/// Implementations must:
/// * assign only **feasible** schedules (the offer state machine enforces
///   this — an infeasible assignment is a bug and surfaces as an error);
/// * skip offers that are not in the `Accepted` or `Scheduled` state;
/// * be deterministic for a fixed configuration (stochastic schedulers
///   take explicit seeds).
///
/// Schedulers are partition-agnostic: the [`IncrementalPlanner`] calls
/// [`Scheduler::schedule_seeded`] once per dirty partition with a seed
/// derived from the partition index, so a stochastic scheduler produces
/// the same per-partition plan no matter which worker thread runs it.
pub trait Scheduler {
    /// Human-readable name used in reports and benchmark output.
    fn name(&self) -> &'static str;

    /// Assigns schedules in place and reports the imbalance before and
    /// after.
    fn schedule(
        &self,
        offers: &mut [FlexOffer],
        target: &TimeSeries,
    ) -> Result<SchedulingReport, SchedulingError>;

    /// [`Scheduler::schedule`] with an explicit seed mixed in — the
    /// entry point the partitioned planner uses so each partition gets
    /// its own deterministic randomness. Deterministic schedulers
    /// ignore the seed (the default); stochastic ones must combine it
    /// with their own.
    fn schedule_seeded(
        &self,
        offers: &mut [FlexOffer],
        target: &TimeSeries,
        seed: u64,
    ) -> Result<SchedulingReport, SchedulingError> {
        let _ = seed;
        self.schedule(offers, target)
    }
}

/// A wire-encodable choice of scheduler — what a session command or a
/// bench config carries instead of a trait object. Implements
/// [`Scheduler`] by enum dispatch, so an
/// [`IncrementalPlanner<SchedulerKind>`] is a concrete, clonable,
/// serializable planning engine.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SchedulerKind {
    /// [`EarliestStartScheduler`] — the flexibility-ignoring baseline.
    Earliest,
    /// [`RandomScheduler`] — the seeded random baseline.
    Random,
    /// [`GreedyScheduler`] — best-start greedy with residual tracking.
    #[default]
    Greedy,
    /// [`HillClimbScheduler`] (default move budget) on top of greedy.
    HillClimb,
}

impl SchedulerKind {
    /// Every kind, in quality order (baselines first).
    pub const ALL: [SchedulerKind; 4] = [
        SchedulerKind::Earliest,
        SchedulerKind::Random,
        SchedulerKind::Greedy,
        SchedulerKind::HillClimb,
    ];

    /// The stable token used in command scripts and bench JSON.
    pub fn token(self) -> &'static str {
        match self {
            SchedulerKind::Earliest => "earliest",
            SchedulerKind::Random => "random",
            SchedulerKind::Greedy => "greedy",
            SchedulerKind::HillClimb => "hillclimb",
        }
    }

    /// Parses a [`SchedulerKind::token`].
    pub fn from_token(s: &str) -> Option<SchedulerKind> {
        SchedulerKind::ALL.into_iter().find(|k| k.token() == s)
    }
}

impl Scheduler for SchedulerKind {
    fn name(&self) -> &'static str {
        match self {
            SchedulerKind::Earliest => EarliestStartScheduler.name(),
            SchedulerKind::Random => RandomScheduler::default().name(),
            SchedulerKind::Greedy => GreedyScheduler.name(),
            SchedulerKind::HillClimb => HillClimbScheduler::default().name(),
        }
    }

    fn schedule(
        &self,
        offers: &mut [FlexOffer],
        target: &TimeSeries,
    ) -> Result<SchedulingReport, SchedulingError> {
        self.schedule_seeded(offers, target, 0)
    }

    fn schedule_seeded(
        &self,
        offers: &mut [FlexOffer],
        target: &TimeSeries,
        seed: u64,
    ) -> Result<SchedulingReport, SchedulingError> {
        match self {
            SchedulerKind::Earliest => EarliestStartScheduler.schedule_seeded(offers, target, seed),
            SchedulerKind::Random => {
                RandomScheduler::default().schedule_seeded(offers, target, seed)
            }
            SchedulerKind::Greedy => GreedyScheduler.schedule_seeded(offers, target, seed),
            SchedulerKind::HillClimb => {
                HillClimbScheduler::default().schedule_seeded(offers, target, seed)
            }
        }
    }
}

#[cfg(test)]
mod kind_tests {
    use super::*;

    #[test]
    fn tokens_round_trip() {
        for kind in SchedulerKind::ALL {
            assert_eq!(SchedulerKind::from_token(kind.token()), Some(kind));
        }
        assert_eq!(SchedulerKind::from_token("simulated-annealing"), None);
        assert_eq!(SchedulerKind::default(), SchedulerKind::Greedy);
    }

    #[test]
    fn names_match_the_inner_schedulers() {
        assert_eq!(SchedulerKind::Greedy.name(), GreedyScheduler.name());
        assert_eq!(SchedulerKind::Earliest.name(), EarliestStartScheduler.name());
        assert_eq!(SchedulerKind::Random.name(), RandomScheduler::default().name());
        assert_eq!(SchedulerKind::HillClimb.name(), HillClimbScheduler::default().name());
    }
}
