//! The planner's day-ahead target learns from metered executions: on a
//! pool whose days were scheduled and metered, forecasting each day
//! with [`day_ahead_target`] beats forecasting it from the maximum
//! envelope every offer could have drawn.

use std::sync::Arc;

use mirabel_dw::{LiveWarehouse, Warehouse};
use mirabel_flexoffer::{FlexOffer, FlexOfferId, Schedule};
use mirabel_forecast::{mape, Forecaster, SeasonalSmoothing};
use mirabel_session::planner::day_ahead_target;
use mirabel_timeseries::{SlotSpan, TimeSeries, TimeSlot, SLOTS_PER_DAY};
use mirabel_workload::{generate_offers, OfferConfig, Population, PopulationConfig};

const PROSUMERS: usize = 120;
const DAYS: usize = 5;
const EVAL_DAYS: usize = 3;
const SEED: u64 = 0xF0CA;

/// The schedule-and-meter loop: day `d`'s offers are scheduled at
/// their minimums and the midnight tick meters them before day `d + 1`
/// arrives. Returns the fully metered warehouse.
fn metered_warehouse() -> Arc<Warehouse> {
    let pop = Population::generate(&PopulationConfig {
        size: PROSUMERS,
        seed: SEED,
        household_share: 0.8,
    });
    let day_offers = |d: usize| -> Vec<FlexOffer> {
        generate_offers(
            &pop,
            &OfferConfig {
                days: 1,
                seed: SEED.wrapping_add(d as u64),
                window_start: TimeSlot::EPOCH + SlotSpan::days(d as i64),
            },
        )
        .into_iter()
        .enumerate()
        .map(|(i, fo)| fo.with_id(FlexOfferId((d * 100_000 + i + 1) as u64)))
        .collect()
    };

    let live = LiveWarehouse::new(pop.clone(), &day_offers(0));
    let mut executed = 0usize;
    for d in 0..DAYS {
        let snap = live.snapshot();
        let assignments: Vec<(FlexOfferId, Schedule)> = snap
            .warehouse()
            .offers()
            .iter()
            .filter(|fo| !fo.status().is_terminal() && fo.execution().is_none())
            .map(|fo| {
                let energies = fo.profile().slices().iter().map(|s| s.min).collect();
                (fo.id(), Schedule::new(fo.earliest_start(), energies))
            })
            .collect();
        let out = live.assign_schedules(&assignments);
        assert_eq!(
            out.scheduled + out.skipped_state,
            assignments.len(),
            "minimum schedules must be feasible"
        );
        executed += live.advance_day();
        if d + 1 < DAYS {
            live.ingest(&day_offers(d + 1));
        }
        live.publish();
    }
    assert!(executed > 0, "the day ticks must meter something");
    Arc::clone(live.publish().warehouse())
}

/// The baseline: the day-ahead forecast from a history in which every
/// offer before `cutoff` drew its maximum energies at its earliest
/// start, whether or not it was metered.
fn envelope_forecast(dw: &Warehouse, cutoff: TimeSlot) -> TimeSeries {
    let first = dw.first_day();
    let mut history = TimeSeries::zeros(first, (cutoff - first).count() as usize);
    for fo in dw.offers() {
        if fo.earliest_start() >= cutoff {
            continue;
        }
        let sign = fo.direction().sign();
        for (i, slice) in fo.profile().slices().iter().enumerate() {
            history.add_at(fo.earliest_start() + SlotSpan::slots(i as i64), sign * slice.max.kwh());
        }
    }
    // Every evaluated day has at least two days of history, where the
    // planner's rule forecasts by seasonal smoothing.
    assert!(history.len() >= 2 * SLOTS_PER_DAY as usize);
    SeasonalSmoothing::daily().forecast(&history, SLOTS_PER_DAY as usize).clamp_non_negative()
}

/// What actually happened on `[day_start, day_start + 96)`: the signed
/// sum of metered execution curves.
fn metered_actual(dw: &Warehouse, day_start: TimeSlot) -> TimeSeries {
    let mut actual = TimeSeries::zeros(day_start, SLOTS_PER_DAY as usize);
    for fo in dw.offers() {
        let (Some(execution), Some(schedule)) = (fo.execution(), fo.schedule()) else { continue };
        let sign = fo.direction().sign();
        for (i, energy) in execution.energies().iter().enumerate() {
            actual.add_at(schedule.start() + SlotSpan::slots(i as i64), sign * energy.kwh());
        }
    }
    actual
}

#[test]
fn day_ahead_target_on_executions_beats_the_envelope_baseline() {
    let dw = metered_warehouse();
    let (mut envelope, mut executions) = (0.0, 0.0);
    for d in DAYS - EVAL_DAYS..DAYS {
        let day_start = dw.first_day() + SlotSpan::days(d as i64);
        let actual = metered_actual(&dw, day_start);
        envelope += mape(&envelope_forecast(&dw, day_start), &actual);
        executions += mape(&day_ahead_target(&dw, day_start, SLOTS_PER_DAY as usize), &actual);
    }
    let (mape_envelope, mape_executions) =
        (envelope / EVAL_DAYS as f64, executions / EVAL_DAYS as f64);
    assert!(
        mape_executions < mape_envelope,
        "training on metered executions must beat the max envelope: \
         {mape_executions} vs {mape_envelope}"
    );
    // Both MAPEs are a pure function of the seed; pinned to six
    // significant digits.
    assert_eq!(format!("{mape_envelope:.4}"), "19.9540");
    assert_eq!(format!("{mape_executions:.5}"), "1.98488");
}
