//! Property-based tests for aggregation/disaggregation — the exactness
//! and feasibility invariants of DESIGN.md §5.

use mirabel_aggregation::{split_energy, AggregationParams, Aggregator};
use mirabel_flexoffer::{Energy, FlexOffer, Schedule};
use mirabel_timeseries::{SlotSpan, TimeSlot};
use proptest::prelude::*;

/// Raw description of one random offer.
#[derive(Debug, Clone)]
struct RawOffer {
    est: i64,
    tf: i64,
    slices: Vec<(i64, i64)>,
}

fn raw_offer_strategy() -> impl Strategy<Value = RawOffer> {
    (0i64..96, 0i64..24, proptest::collection::vec((0i64..2_000, 0i64..2_000), 1..10)).prop_map(
        |(est, tf, raw)| RawOffer {
            est,
            tf,
            slices: raw.into_iter().map(|(a, b)| (a.min(b), a.max(b))).collect(),
        },
    )
}

fn build(offers: &[RawOffer]) -> Vec<FlexOffer> {
    offers
        .iter()
        .enumerate()
        .map(|(i, r)| {
            let slices: Vec<mirabel_flexoffer::EnergySlice> = r
                .slices
                .iter()
                .map(|&(lo, hi)| mirabel_flexoffer::EnergySlice {
                    min: Energy::from_wh(lo),
                    max: Energy::from_wh(hi),
                })
                .collect();
            FlexOffer::builder(i as u64 + 1, i as u64 + 1)
                .earliest_start(TimeSlot::new(r.est))
                .latest_start(TimeSlot::new(r.est + r.tf))
                .profile_slices(slices)
                .build()
                .unwrap()
        })
        .collect()
}

proptest! {
    /// split_energy: exact sum and bound feasibility whenever the total is
    /// admissible.
    #[test]
    fn split_energy_exact(
        bounds_raw in proptest::collection::vec((0i64..500, 0i64..500), 1..12),
        frac in 0.0f64..=1.0,
    ) {
        let bounds: Vec<(Energy, Energy)> = bounds_raw
            .iter()
            .map(|&(a, b)| (Energy::from_wh(a.min(b)), Energy::from_wh(a.max(b))))
            .collect();
        let lo: i64 = bounds.iter().map(|b| b.0.wh()).sum();
        let hi: i64 = bounds.iter().map(|b| b.1.wh()).sum();
        let total = lo + ((hi - lo) as f64 * frac).round() as i64;
        let split = split_energy(Energy::from_wh(total), &bounds).unwrap();
        let sum: i64 = split.iter().map(|e| e.wh()).sum();
        prop_assert_eq!(sum, total);
        for (part, &(plo, phi)) in split.iter().zip(&bounds) {
            prop_assert!(*part >= plo && *part <= phi);
        }
        // Outside the bounds: rejected.
        prop_assert!(split_energy(Energy::from_wh(lo - 1), &bounds).is_none());
        prop_assert!(split_energy(Energy::from_wh(hi + 1), &bounds).is_none());
    }

    /// Aggregation invariants: total bounds are preserved, aggregate
    /// flexibility never exceeds any member's, and every input appears in
    /// exactly one output.
    #[test]
    fn aggregation_preserves_totals(
        raw in proptest::collection::vec(raw_offer_strategy(), 1..40),
        est_tol in 1i64..16,
        tft_tol in 1i64..16,
    ) {
        let offers = build(&raw);
        let aggregator = Aggregator::new(AggregationParams::new(est_tol, tft_tol));
        let result = aggregator.aggregate(&offers).unwrap();

        // Partition check.
        let mut seen = std::collections::BTreeSet::new();
        for agg in &result.aggregates {
            prop_assert!(agg.member_count() >= 2);
            for id in agg.member_ids() {
                prop_assert!(seen.insert(id), "member {id} in two aggregates");
            }
        }
        for &i in &result.untouched {
            prop_assert!(seen.insert(offers[i].id()));
        }
        prop_assert_eq!(seen.len(), offers.len());

        // Energy totals preserved.
        let in_min: i64 = offers.iter().map(|o| o.total_min_energy().wh()).sum();
        let out_min: i64 = result
            .aggregates
            .iter()
            .map(|a| a.offer().total_min_energy().wh())
            .chain(result.untouched.iter().map(|&i| offers[i].total_min_energy().wh()))
            .sum();
        prop_assert_eq!(in_min, out_min);

        // Aggregate flexibility = min member flexibility; loss bounded by
        // the TFT tolerance per member.
        for agg in &result.aggregates {
            let agg_tf = agg.offer().time_flexibility().count();
            for id in agg.member_ids() {
                let member = offers.iter().find(|o| o.id() == id).unwrap();
                let mtf = member.time_flexibility().count();
                prop_assert!(agg_tf <= mtf);
                prop_assert!(mtf - agg_tf < tft_tol, "tf loss exceeds tolerance");
            }
        }
        prop_assert!(result.flexibility_loss_slots(&offers) >= 0);
    }

    /// Disaggregation round-trip: for a random feasible aggregate
    /// schedule, member schedules are feasible and sum exactly.
    #[test]
    fn disaggregation_round_trip(
        raw in proptest::collection::vec(raw_offer_strategy(), 2..25),
        shift_frac in 0.0f64..=1.0,
        energy_frac in 0.0f64..=1.0,
    ) {
        let offers = build(&raw);
        let aggregator = Aggregator::new(AggregationParams::new(8, 8));
        let result = aggregator.aggregate(&offers).unwrap();

        for agg in &result.aggregates {
            let offer = agg.offer();
            let tf = offer.time_flexibility().count();
            let shift = (tf as f64 * shift_frac).round() as i64;
            let start = offer.earliest_start() + SlotSpan::slots(shift);
            let energies: Vec<Energy> = offer
                .profile()
                .slices()
                .iter()
                .map(|s| {
                    let span = s.max.wh() - s.min.wh();
                    Energy::from_wh(s.min.wh() + (span as f64 * energy_frac).round() as i64)
                })
                .collect();
            let schedule = Schedule::new(start, energies.clone());
            offer.check_schedule(&schedule).unwrap();

            let parts = aggregator.disaggregate(agg, &schedule).unwrap();
            prop_assert_eq!(parts.len(), agg.member_count());

            for (id, sched) in &parts {
                let original = offers.iter().find(|o| o.id() == *id).unwrap();
                prop_assert!(original.check_schedule(sched).is_ok(),
                    "member {} schedule infeasible", id);
            }
            for (k, &e) in energies.iter().enumerate() {
                let slot = start + SlotSpan::slots(k as i64);
                let sum: Energy = parts.iter().map(|(_, s)| s.energy_at(slot)).sum();
                prop_assert_eq!(sum, e, "slot {} mismatch", k);
            }
        }
    }
}
