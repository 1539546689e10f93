//! Splitting an aggregate's schedule back to its members.

use mirabel_flexoffer::{Energy, FlexOfferId, Schedule};
use mirabel_timeseries::SlotSpan;

use crate::aggregate::{AggregateOffer, Aggregator};
use crate::error::AggregationError;

impl Aggregator {
    /// Disaggregates `schedule` (assigned to `aggregate`) into one
    /// feasible schedule per member.
    ///
    /// Guarantees (property-tested in `tests/proptests.rs`):
    /// * every member schedule starts inside the member's flexibility
    ///   window and respects its per-slice bounds;
    /// * per absolute slot, the member energies sum **exactly** to the
    ///   aggregate's scheduled energy (integer watt-hours).
    pub fn disaggregate(
        &self,
        aggregate: &AggregateOffer,
        schedule: &Schedule,
    ) -> Result<Vec<(FlexOfferId, Schedule)>, AggregationError> {
        let offer = aggregate.offer();
        let agg_id = offer.id();
        if schedule.len() != offer.profile().len() {
            return Err(AggregationError::ScheduleMismatch {
                aggregate: agg_id,
                reason: format!(
                    "schedule has {} slices, aggregate profile has {}",
                    schedule.len(),
                    offer.profile().len()
                ),
            });
        }
        if schedule.start() < offer.earliest_start() || schedule.start() > offer.latest_start() {
            return Err(AggregationError::ScheduleMismatch {
                aggregate: agg_id,
                reason: format!(
                    "start {} outside aggregate window [{}, {}]",
                    schedule.start(),
                    offer.earliest_start(),
                    offer.latest_start()
                ),
            });
        }

        let members = aggregate.members();
        // Per-member accumulated energies.
        let mut out: Vec<Vec<Energy>> =
            members.iter().map(|m| Vec::with_capacity(m.slices.len())).collect();

        // Per-slot buffers, reused across the aggregate's slots.
        let mut bounds = Vec::with_capacity(members.len());
        let mut covering = Vec::with_capacity(members.len());
        let mut splitter = Splitter::default();
        for (k, &energy) in schedule.energies().iter().enumerate() {
            // Members covering aggregate offset k, with their local index.
            bounds.clear();
            covering.clear();
            for (mi, m) in members.iter().enumerate() {
                let local = k as i64 - m.offset;
                if local >= 0 && (local as usize) < m.slices.len() {
                    let s = m.slices[local as usize];
                    bounds.push((s.min, s.max));
                    covering.push(mi);
                }
            }
            let split = splitter
                .split(energy, &bounds)
                .ok_or(AggregationError::InfeasibleSlot { aggregate: agg_id, slot_offset: k })?;
            for (&mi, &part) in covering.iter().zip(split) {
                out[mi].push(part);
            }
        }

        // Each member starts `offset` slots after the aggregate's
        // scheduled start.
        let result = members
            .iter()
            .zip(out)
            .map(|(m, energies)| {
                let start = schedule.start() + SlotSpan::slots(m.offset);
                (m.id, Schedule::new(start, energies))
            })
            .collect();
        Ok(result)
    }
}

/// Splits `total` across participants with inclusive `[min, max]` bounds.
///
/// Returns `None` when `total` lies outside `[Σmin, Σmax]`. Otherwise each
/// participant receives its minimum plus a share of the surplus
/// proportional to its capacity (`max − min`), rounded with the
/// largest-remainder method so the parts sum exactly to `total` and no
/// part exceeds its maximum.
pub fn split_energy(total: Energy, bounds: &[(Energy, Energy)]) -> Option<Vec<Energy>> {
    Splitter::default().split(total, bounds).map(<[Energy]>::to_vec)
}

/// The working buffers of [`split_energy`], kept across calls so a
/// disaggregation splits every slot of an aggregate without allocating.
#[derive(Debug, Default)]
struct Splitter {
    shares: Vec<i64>,
    remainders: Vec<(i64, usize)>,
    parts: Vec<Energy>,
}

impl Splitter {
    /// [`split_energy`] into the reused buffers.
    fn split(&mut self, total: Energy, bounds: &[(Energy, Energy)]) -> Option<&[Energy]> {
        let sum_min: i64 = bounds.iter().map(|b| b.0.wh()).sum();
        let sum_max: i64 = bounds.iter().map(|b| b.1.wh()).sum();
        let t = total.wh();
        if t < sum_min || t > sum_max {
            return None;
        }
        self.parts.clear();
        let surplus = t - sum_min;
        let capacity: i64 = sum_max - sum_min;
        if capacity == 0 || surplus == 0 {
            self.parts.extend(bounds.iter().map(|b| b.0));
            return Some(&self.parts);
        }
        // Integer proportional shares with largest-remainder correction.
        self.shares.clear();
        self.remainders.clear();
        let mut assigned = 0;
        for (i, &(lo, hi)) in bounds.iter().enumerate() {
            let cap = hi.wh() - lo.wh();
            let numer = surplus.checked_mul(cap).expect("energy arithmetic overflow");
            let share = numer / capacity;
            let rem = numer % capacity;
            self.shares.push(share);
            self.remainders.push((rem, i));
            assigned += share;
        }
        let mut leftover = surplus - assigned;
        // Give one extra watt-hour to the largest remainders first; ties
        // are broken by index for determinism (a total order, so the
        // unstable sort is exact). Since `surplus < capacity` implies
        // every floored share is strictly below its capacity, the bump
        // never overflows a participant's maximum.
        if leftover > 0 {
            self.remainders.sort_unstable_by(|a, b| b.0.cmp(&a.0).then(a.1.cmp(&b.1)));
        }
        let mut ri = 0;
        while leftover > 0 {
            let (_, idx) = self.remainders[ri % self.remainders.len()];
            let cap = bounds[idx].1.wh() - bounds[idx].0.wh();
            if self.shares[idx] < cap {
                self.shares[idx] += 1;
                leftover -= 1;
            }
            ri += 1;
        }
        self.parts.extend(
            bounds.iter().zip(&self.shares).map(|(&(lo, _), &share)| lo + Energy::from_wh(share)),
        );
        Some(&self.parts)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::params::AggregationParams;
    use mirabel_flexoffer::FlexOffer;
    use mirabel_timeseries::TimeSlot;

    fn wh(v: i64) -> Energy {
        Energy::from_wh(v)
    }

    #[test]
    fn split_respects_bounds_and_sums() {
        let bounds = vec![(wh(10), wh(20)), (wh(0), wh(5)), (wh(7), wh(7))];
        for total in 17..=32 {
            let split = split_energy(wh(total), &bounds).unwrap();
            let sum: i64 = split.iter().map(|e| e.wh()).sum();
            assert_eq!(sum, total, "total {total}");
            for (part, &(lo, hi)) in split.iter().zip(&bounds) {
                assert!(*part >= lo && *part <= hi, "part {part} outside [{lo},{hi}]");
            }
        }
        assert!(split_energy(wh(16), &bounds).is_none());
        assert!(split_energy(wh(33), &bounds).is_none());
    }

    #[test]
    fn split_zero_capacity() {
        let bounds = vec![(wh(5), wh(5)), (wh(3), wh(3))];
        assert_eq!(split_energy(wh(8), &bounds).unwrap(), vec![wh(5), wh(3)]);
        assert!(split_energy(wh(9), &bounds).is_none());
    }

    #[test]
    fn split_empty_participants() {
        assert_eq!(split_energy(Energy::ZERO, &[]), Some(vec![]));
        assert!(split_energy(wh(1), &[]).is_none());
    }

    #[test]
    fn split_is_proportional() {
        // Capacities 10 and 90: a surplus of 50 should split roughly 5/45.
        let bounds = vec![(wh(0), wh(10)), (wh(0), wh(90))];
        let split = split_energy(wh(50), &bounds).unwrap();
        assert_eq!(split[0], wh(5));
        assert_eq!(split[1], wh(45));
    }

    fn offer(id: u64, est: i64, tf: i64, len: usize, min: i64, max: i64) -> FlexOffer {
        FlexOffer::builder(id, id)
            .earliest_start(TimeSlot::new(est))
            .latest_start(TimeSlot::new(est + tf))
            .slices(len, wh(min), wh(max))
            .build()
            .unwrap()
    }

    #[test]
    fn disaggregate_round_trip() {
        let offers = vec![
            offer(1, 100, 4, 3, 100, 300),
            offer(2, 101, 4, 2, 50, 80),
            offer(3, 100, 5, 4, 10, 10),
        ];
        let aggregator = Aggregator::new(AggregationParams::new(4, 8));
        let result = aggregator.aggregate(&offers).unwrap();
        assert_eq!(result.aggregates.len(), 1);
        let agg = &result.aggregates[0];

        // Schedule the aggregate mid-window at mid energies.
        let start = agg.offer().earliest_start() + SlotSpan::slots(2);
        let energies: Vec<Energy> =
            agg.offer().profile().slices().iter().map(|s| (s.min + s.max) / 2).collect();
        let schedule = Schedule::new(start, energies.clone());
        agg.offer().check_schedule(&schedule).unwrap();

        let parts = aggregator.disaggregate(agg, &schedule).unwrap();
        assert_eq!(parts.len(), 3);

        // Every member schedule is feasible for its original offer.
        for (id, sched) in &parts {
            let original = offers.iter().find(|o| o.id() == *id).unwrap();
            original.check_schedule(sched).unwrap();
        }

        // Per absolute slot, member energies sum to the aggregate's.
        for (k, &e) in energies.iter().enumerate() {
            let slot = start + SlotSpan::slots(k as i64);
            let sum: Energy = parts.iter().map(|(_, s)| s.energy_at(slot)).sum();
            assert_eq!(sum, e, "slot {k}");
        }
    }

    #[test]
    fn disaggregate_rejects_bad_schedules() {
        let offers = vec![offer(1, 100, 4, 2, 10, 20), offer(2, 100, 4, 2, 10, 20)];
        let aggregator = Aggregator::new(AggregationParams::default());
        let result = aggregator.aggregate(&offers).unwrap();
        let agg = &result.aggregates[0];

        // Wrong length.
        let bad = Schedule::new(agg.offer().earliest_start(), vec![wh(20)]);
        assert!(matches!(
            aggregator.disaggregate(agg, &bad),
            Err(AggregationError::ScheduleMismatch { .. })
        ));

        // Start outside the window.
        let bad = Schedule::new(agg.offer().latest_start() + SlotSpan::slots(1), vec![wh(20); 2]);
        assert!(matches!(
            aggregator.disaggregate(agg, &bad),
            Err(AggregationError::ScheduleMismatch { .. })
        ));

        // Energy outside summed bounds (min per slot is 20).
        let bad = Schedule::new(agg.offer().earliest_start(), vec![wh(19), wh(40)]);
        assert!(matches!(
            aggregator.disaggregate(agg, &bad),
            Err(AggregationError::InfeasibleSlot { slot_offset: 0, .. })
        ));
    }
}
