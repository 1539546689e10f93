//! The imbalance objective and shared scheduling helpers.

use std::error::Error;
use std::fmt;

use mirabel_flexoffer::{Energy, FlexOffer, FlexOfferError, OfferState};
use mirabel_timeseries::{TimeSeries, TimeSlot};

/// Summary of how far a load curve is from its target.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Imbalance {
    /// Sum of absolute deviations (kWh).
    pub l1: f64,
    /// Sum of squared deviations (kWh²) — the scheduling objective.
    pub l2_sq: f64,
    /// Largest absolute single-slot deviation (kWh).
    pub peak: f64,
}

impl Imbalance {
    /// Measures `target − load` over the union of both extents.
    pub fn of(target: &TimeSeries, load: &TimeSeries) -> Imbalance {
        let residual = target - load;
        Imbalance {
            l1: residual.l1_norm(),
            l2_sq: residual.l2_sq(),
            peak: residual.values().iter().fold(0.0f64, |acc, v| acc.max(v.abs())),
        }
    }

    /// Relative L1 improvement from `before` to `after` in `0..=1`
    /// (zero when `before` is already zero).
    pub fn improvement(before: &Imbalance, after: &Imbalance) -> f64 {
        if before.l1 <= f64::EPSILON {
            0.0
        } else {
            (before.l1 - after.l1) / before.l1
        }
    }
}

impl fmt::Display for Imbalance {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "L1 {:.2} kWh, L2² {:.2}, peak {:.2} kWh", self.l1, self.l2_sq, self.peak)
    }
}

/// Outcome of one scheduling run.
#[derive(Debug, Clone)]
pub struct SchedulingReport {
    /// Name of the scheduler that produced this report.
    pub scheduler: &'static str,
    /// Offers that received (or kept) a schedule.
    pub assigned: usize,
    /// Offers skipped because they were not accepted.
    pub skipped: usize,
    /// Imbalance of the zero-load plan against the target.
    pub before: Imbalance,
    /// Imbalance of the scheduled load against the target.
    pub after: Imbalance,
}

impl fmt::Display for SchedulingReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}: assigned {}, skipped {}; before [{}] after [{}] ({:.1}% L1 improvement)",
            self.scheduler,
            self.assigned,
            self.skipped,
            self.before,
            self.after,
            Imbalance::improvement(&self.before, &self.after) * 100.0
        )
    }
}

/// Errors produced by schedulers.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SchedulingError {
    /// The target series is empty, leaving the planning horizon undefined.
    EmptyTarget,
    /// A scheduler produced an infeasible assignment — a bug surfaced by
    /// the offer state machine.
    AssignmentRejected(FlexOfferError),
    /// The aggregate-then-schedule pipeline failed to bundle or unbundle
    /// (see [`crate::BundleScheduler`]); carries the aggregation error's
    /// message.
    Bundling(String),
}

impl fmt::Display for SchedulingError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SchedulingError::EmptyTarget => write!(f, "scheduling target series is empty"),
            SchedulingError::AssignmentRejected(e) => {
                write!(f, "scheduler produced an infeasible assignment: {e}")
            }
            SchedulingError::Bundling(reason) => {
                write!(f, "aggregate-then-schedule pipeline failed: {reason}")
            }
        }
    }
}

impl Error for SchedulingError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            SchedulingError::AssignmentRejected(e) => Some(e),
            SchedulingError::EmptyTarget | SchedulingError::Bundling(_) => None,
        }
    }
}

impl From<FlexOfferError> for SchedulingError {
    fn from(e: FlexOfferError) -> Self {
        SchedulingError::AssignmentRejected(e)
    }
}

/// Builds the signed scheduled-load curve (kWh per slot) of a set of
/// offers over `[start, start+len)`: consumption counts positive,
/// production negative. Offers without schedules contribute nothing.
pub fn load_curve(offers: &[FlexOffer], start: TimeSlot, len: usize) -> TimeSeries {
    let mut load = TimeSeries::zeros(start, len);
    for fo in offers {
        if let Some(schedule) = fo.schedule() {
            add_energies(&mut load, schedule.start(), schedule.energies(), fo.direction().sign());
        }
    }
    load
}

/// Adds `scale · e` (kWh) for every energy `e` placed slot by slot from
/// `start` to the matching samples of `series`, dropping what falls
/// outside its extent — `series.add_at(slot, scale * e.kwh())` per
/// slot, with the clipping done once.
pub(crate) fn add_energies(
    series: &mut TimeSeries,
    start: TimeSlot,
    energies: &[Energy],
    scale: f64,
) {
    let offset = (start - series.start()).count();
    let values = series.values_mut();
    let (first, skip) = match usize::try_from(offset) {
        Ok(first) => (first.min(values.len()), 0),
        Err(_) => (0, offset.unsigned_abs() as usize),
    };
    for (v, e) in values[first..].iter_mut().zip(energies.iter().skip(skip)) {
        *v += scale * e.kwh();
    }
}

/// For one offer anchored at `start`, chooses per-slice energies that
/// track `residual` as closely as the slice bounds allow, and returns the
/// energies together with the objective delta `Σ[(r−sign·e)² − r²]`
/// (negative is an improvement).
pub fn best_fill(fo: &FlexOffer, start: TimeSlot, residual: &TimeSeries) -> (Vec<Energy>, f64) {
    let mut energies = Vec::with_capacity(fo.profile().len());
    let delta = fill(fo, start, residual, |e| energies.push(e));
    (energies, delta)
}

/// The one per-slice kernel behind [`best_fill`] and the greedy
/// scorer: hands each chosen energy to `emit` in slice order and returns
/// the objective delta. The scorer passes a no-op `emit`, so scoring a
/// candidate start allocates nothing, and both callers run the same
/// arithmetic in the same order: a winner re-filled through
/// [`best_fill`] gets exactly the delta it was scored with.
#[inline(always)]
pub(crate) fn fill(
    fo: &FlexOffer,
    start: TimeSlot,
    residual: &TimeSeries,
    mut emit: impl FnMut(Energy),
) -> f64 {
    let sign = fo.direction().sign();
    let values = residual.values();
    // Offset of slice 0 within the residual; slices outside its extent
    // read zero, like `TimeSeries::get_or_zero`.
    let offset = (start - residual.start()).count();
    let mut delta = 0.0;
    for (i, slice) in fo.profile().slices().iter().enumerate() {
        let k = offset + i as i64;
        let r = if k >= 0 { values.get(k as usize).copied().unwrap_or(0.0) } else { 0.0 };
        // Minimise (r − sign·e)² over e ∈ [min, max]:
        // unconstrained optimum is e = sign·r.
        let desired = Energy::from_kwh_f64(sign * r);
        let e = desired.clamp(slice.min, slice.max);
        let after = r - sign * e.kwh();
        delta += after * after - r * r;
        emit(e);
    }
    delta
}

/// Applies a committed assignment to the residual curve: subtracts the
/// offer's signed load.
pub fn apply_to_residual(
    residual: &mut TimeSeries,
    fo: &FlexOffer,
    start: TimeSlot,
    energies: &[Energy],
) {
    add_energies(residual, start, energies, -fo.direction().sign());
}

/// `true` when the scheduler should plan this offer.
pub fn schedulable(fo: &FlexOffer) -> bool {
    matches!(fo.status(), OfferState::Accepted | OfferState::Scheduled)
}

/// Builds the standard report around a scheduling pass.
pub(crate) fn report(
    name: &'static str,
    offers: &[FlexOffer],
    target: &TimeSeries,
    assigned: usize,
    skipped: usize,
) -> SchedulingReport {
    let zero = TimeSeries::zeros(target.start(), target.len());
    let load = load_curve(offers, target.start(), target.len());
    SchedulingReport {
        scheduler: name,
        assigned,
        skipped,
        before: Imbalance::of(target, &zero),
        after: Imbalance::of(target, &load),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mirabel_flexoffer::Schedule;

    fn wh(v: i64) -> Energy {
        Energy::from_wh(v)
    }

    fn accepted_offer(id: u64, est: i64, tf: i64, len: usize, min: i64, max: i64) -> FlexOffer {
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
    fn imbalance_of_matching_curves_is_zero() {
        let t = TimeSeries::constant(TimeSlot::EPOCH, 4, 2.0);
        let im = Imbalance::of(&t, &t.clone());
        assert_eq!(im.l1, 0.0);
        assert_eq!(im.l2_sq, 0.0);
        assert_eq!(im.peak, 0.0);
    }

    #[test]
    fn imbalance_metrics() {
        let target = TimeSeries::new(TimeSlot::EPOCH, vec![1.0, -2.0, 0.0]);
        let load = TimeSeries::zeros(TimeSlot::EPOCH, 3);
        let im = Imbalance::of(&target, &load);
        assert_eq!(im.l1, 3.0);
        assert_eq!(im.l2_sq, 5.0);
        assert_eq!(im.peak, 2.0);
        assert!(im.to_string().contains("L1"));
    }

    #[test]
    fn improvement_is_relative() {
        let b = Imbalance { l1: 10.0, l2_sq: 0.0, peak: 0.0 };
        let a = Imbalance { l1: 4.0, l2_sq: 0.0, peak: 0.0 };
        assert!((Imbalance::improvement(&b, &a) - 0.6).abs() < 1e-12);
        let zero = Imbalance { l1: 0.0, l2_sq: 0.0, peak: 0.0 };
        assert_eq!(Imbalance::improvement(&zero, &a), 0.0);
    }

    #[test]
    fn load_curve_signs_directions() {
        let mut cons = accepted_offer(1, 0, 0, 2, 0, 2_000);
        cons.assign(Schedule::new(TimeSlot::new(0), vec![wh(1_000), wh(2_000)])).unwrap();
        let mut prod = FlexOffer::builder(2u64, 2u64)
            .direction(mirabel_flexoffer::Direction::Production)
            .earliest_start(TimeSlot::new(1))
            .slices(1, wh(500), wh(500))
            .build()
            .unwrap();
        prod.accept().unwrap();
        prod.assign(Schedule::new(TimeSlot::new(1), vec![wh(500)])).unwrap();

        let load = load_curve(&[cons, prod], TimeSlot::new(0), 3);
        assert_eq!(load.values(), &[1.0, 1.5, 0.0]);
    }

    #[test]
    fn best_fill_tracks_residual() {
        let fo = accepted_offer(1, 0, 0, 3, 0, 2_000);
        let residual = TimeSeries::new(TimeSlot::new(0), vec![1.0, 3.0, -1.0]);
        let (energies, delta) = best_fill(&fo, TimeSlot::new(0), &residual);
        // Slot 0: desired 1 kWh within bounds; slot 1: clamped to 2 kWh;
        // slot 2: negative desired clamps to 0.
        assert_eq!(energies, vec![wh(1_000), wh(2_000), wh(0)]);
        assert!(delta < 0.0);
    }

    #[test]
    fn best_fill_respects_minimums() {
        let fo = accepted_offer(1, 0, 0, 1, 500, 2_000);
        let residual = TimeSeries::new(TimeSlot::new(0), vec![0.0]);
        let (energies, delta) = best_fill(&fo, TimeSlot::new(0), &residual);
        assert_eq!(energies, vec![wh(500)]); // forced by the minimum bound
        assert!(delta > 0.0); // worsens the objective, but is mandatory
    }

    #[test]
    fn apply_to_residual_subtracts_signed_load() {
        let fo = accepted_offer(1, 0, 0, 2, 0, 2_000);
        let mut residual = TimeSeries::new(TimeSlot::new(0), vec![2.0, 2.0]);
        apply_to_residual(&mut residual, &fo, TimeSlot::new(0), &[wh(1_000), wh(500)]);
        assert_eq!(residual.values(), &[1.0, 1.5]);
    }

    #[test]
    fn schedulable_statuses() {
        let mut fo = accepted_offer(1, 0, 0, 1, 0, 100);
        assert!(schedulable(&fo));
        fo.assign(Schedule::new(TimeSlot::new(0), vec![wh(50)])).unwrap();
        assert!(schedulable(&fo));
        let mut rejected = FlexOffer::builder(2u64, 2u64)
            .earliest_start(TimeSlot::new(0))
            .slices(1, wh(0), wh(1))
            .build()
            .unwrap();
        rejected.reject().unwrap();
        assert!(!schedulable(&rejected));
    }

    #[test]
    fn error_display_and_source() {
        let e = SchedulingError::EmptyTarget;
        assert!(e.to_string().contains("empty"));
        assert!(Error::source(&e).is_none());
        let e = SchedulingError::from(FlexOfferError::EmptyProfile);
        assert!(e.to_string().contains("infeasible"));
        assert!(Error::source(&e).is_some());
    }
}
