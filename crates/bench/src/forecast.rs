//! The forecast harness: does training on metered executions beat the
//! max-envelope guess?
//!
//! PR 7 wired the `Executed` lifecycle state through the pipeline: the
//! day tick meters due schedules into execution curves, and
//! [`mirabel_session::planner::day_ahead_target`] now prefers those
//! curves over the maximum-envelope stand-in when building its forecast
//! history. This harness quantifies that choice. It simulates a
//! multi-day schedule-and-meter loop on a [`LiveWarehouse`] (every
//! offer scheduled at its minimums, executions synthesized by the day
//! tick with seeded deviations), then forecasts each evaluation day
//! twice from the same point in time:
//!
//! * **envelope baseline** — the history every offer contributes as its
//!   maximum energies anchored at its earliest start (the pre-execution
//!   behaviour);
//! * **on executions** — metered offers contribute their recorded
//!   execution energies anchored at the schedule start instead (what
//!   the planner does now).
//!
//! Both histories feed the same daily-seasonal forecaster and are
//! scored with [`mape`] against the day's *actual* metered net load.
//! The report (`BENCH_forecast.json`) carries both MAPEs and the hard
//! quality gate `executions_beat_envelope` — training on what actually
//! happened must beat guessing the envelope, on any machine, or the
//! executed pipeline is not earning its keep. Everything is
//! seed-deterministic, so the MAPEs are exact across runs.

use std::time::Instant;

use mirabel_dw::LiveWarehouse;
use mirabel_flexoffer::{FlexOffer, FlexOfferId, Schedule};
use mirabel_forecast::{mape, Forecaster, SeasonalNaive, SeasonalSmoothing};
use mirabel_timeseries::{SlotSpan, TimeSeries, TimeSlot, SLOTS_PER_DAY};
use mirabel_workload::{generate_offers, OfferConfig, Population, PopulationConfig};

use crate::diff::{Gate, Json};

/// The forecast gate table (see [`crate::diff`]): the quality gate is
/// seed-deterministic, so it holds on any machine. The MAPEs are pinned
/// exactly by this module's tests; the wall time is reported, not gated.
pub const GATES: &[Gate] = &[Gate::holds("executions_beat_envelope")];

/// Shape of one forecast-harness run; `Default` is the CI smoke
/// configuration.
#[derive(Debug, Clone, PartialEq)]
pub struct ForecastConfig {
    /// Prosumers in the simulated pool.
    pub prosumers: usize,
    /// Simulated days (scheduled, ticked and metered in full).
    pub days: usize,
    /// Trailing days scored against their metered actuals; each is
    /// forecast from the history strictly before it.
    pub eval_days: usize,
    /// Master seed (population and per-day offer streams).
    pub seed: u64,
    /// Timing rounds; the forecast wall time keeps the best round. The
    /// MAPEs are deterministic and identical on every round.
    pub repeats: usize,
}

impl Default for ForecastConfig {
    fn default() -> Self {
        ForecastConfig { prosumers: 120, days: 5, eval_days: 3, seed: 0xF0CA, repeats: 3 }
    }
}

/// Runs the schedule-and-meter loop: day `d`'s offers are scheduled at
/// their minimums and the midnight tick meters them before day `d + 1`
/// arrives. Returns the fully metered warehouse snapshot and how many
/// offers executed.
fn metered_warehouse(config: &ForecastConfig) -> (std::sync::Arc<mirabel_dw::Warehouse>, usize) {
    let pop = Population::generate(&PopulationConfig {
        size: config.prosumers,
        seed: config.seed,
        household_share: 0.8,
    });
    let day_offers = |d: usize| -> Vec<FlexOffer> {
        generate_offers(
            &pop,
            &OfferConfig {
                days: 1,
                seed: config.seed.wrapping_add(d as u64),
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
    for d in 0..config.days.max(1) {
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
        if d + 1 < config.days {
            live.ingest(&day_offers(d + 1));
        }
        live.publish();
    }
    let snap = live.publish();
    (std::sync::Arc::clone(snap.warehouse()), executed)
}

/// The signed net history before `cutoff`, envelope-style: every
/// offer's maximum energies at its earliest start.
fn envelope_history(dw: &mirabel_dw::Warehouse, cutoff: TimeSlot) -> TimeSeries {
    let first = dw.first_day();
    let mut history = TimeSeries::zeros(first, (cutoff - first).count().max(0) as usize);
    for fo in dw.offers() {
        if fo.earliest_start() >= cutoff {
            continue;
        }
        let sign = fo.direction().sign();
        for (i, slice) in fo.profile().slices().iter().enumerate() {
            history.add_at(fo.earliest_start() + SlotSpan::slots(i as i64), sign * slice.max.kwh());
        }
    }
    history
}

/// The signed net history before `cutoff`, preferring metered
/// executions (anchored at the schedule start) and falling back to the
/// envelope — the same choice `day_ahead_target` makes.
fn execution_history(dw: &mirabel_dw::Warehouse, cutoff: TimeSlot) -> TimeSeries {
    let first = dw.first_day();
    let mut history = TimeSeries::zeros(first, (cutoff - first).count().max(0) as usize);
    for fo in dw.offers() {
        if fo.earliest_start() >= cutoff {
            continue;
        }
        let sign = fo.direction().sign();
        match (fo.execution(), fo.schedule()) {
            (Some(execution), Some(schedule)) => {
                for (i, energy) in execution.energies().iter().enumerate() {
                    history
                        .add_at(schedule.start() + SlotSpan::slots(i as i64), sign * energy.kwh());
                }
            }
            _ => {
                for (i, slice) in fo.profile().slices().iter().enumerate() {
                    history.add_at(
                        fo.earliest_start() + SlotSpan::slots(i as i64),
                        sign * slice.max.kwh(),
                    );
                }
            }
        }
    }
    history
}

/// What actually happened on `[day_start, day_start + 96)`: the signed
/// sum of metered execution curves.
fn metered_actual(dw: &mirabel_dw::Warehouse, day_start: TimeSlot) -> TimeSeries {
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

/// Day-ahead forecast over a history, with the planner's forecaster
/// rule: seasonal-naive under two full seasons, seasonal smoothing
/// beyond.
fn day_ahead(history: &TimeSeries) -> TimeSeries {
    let season = SLOTS_PER_DAY as usize;
    let forecast = if history.len() < 2 * season {
        SeasonalNaive::daily().forecast(history, season)
    } else {
        SeasonalSmoothing::daily().forecast(history, season)
    };
    forecast.clamp_non_negative()
}

/// Runs the full harness: meters the pool, then scores the trailing
/// `eval_days` days — each forecast from the history strictly before
/// it, once envelope-style and once on executions — against their
/// metered actuals. Returns the `BENCH_forecast.json` report.
pub fn run_forecast(config: &ForecastConfig) -> Json {
    let (warehouse, executed) = metered_warehouse(config);
    let offers = warehouse.offers().len();
    let days = config.days.max(1);
    let eval_days = config.eval_days.clamp(1, days.saturating_sub(1).max(1));

    let mut best_ms = f64::INFINITY;
    let mut mape_envelope = 0.0;
    let mut mape_executions = 0.0;
    for _ in 0..config.repeats.max(1) {
        let t0 = Instant::now();
        let (mut env_sum, mut exec_sum) = (0.0, 0.0);
        for d in (days - eval_days)..days {
            let day_start = warehouse.first_day() + SlotSpan::days(d as i64);
            let actual = metered_actual(&warehouse, day_start);
            env_sum += mape(&day_ahead(&envelope_history(&warehouse, day_start)), &actual);
            exec_sum += mape(&day_ahead(&execution_history(&warehouse, day_start)), &actual);
        }
        mape_envelope = env_sum / eval_days as f64;
        mape_executions = exec_sum / eval_days as f64;
        best_ms = best_ms.min(t0.elapsed().as_secs_f64() * 1e3);
    }

    Json::obj([
        ("bench", "forecast".into()),
        ("prosumers", config.prosumers.into()),
        ("days", config.days.into()),
        ("eval_days", config.eval_days.into()),
        ("seed", config.seed.into()),
        ("repeats", config.repeats.max(1).into()),
        ("offers", offers.into()),
        ("executed", executed.into()),
        ("available_parallelism", crate::available_parallelism().into()),
        // Mean MAPE over the eval days of each history's forecast.
        ("mape_envelope", Json::Num(mape_envelope)),
        ("mape_executions", Json::Num(mape_executions)),
        ("executions_beat_envelope", (mape_executions < mape_envelope).into()),
        // Building both histories and forecasting every eval day (best
        // round).
        ("forecast_ms", Json::Num(best_ms)),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> ForecastConfig {
        ForecastConfig { prosumers: 30, days: 4, eval_days: 2, seed: 0xF0CA, repeats: 1 }
    }

    #[test]
    fn harness_is_deterministic() {
        let (a, b) = (run_forecast(&tiny()), run_forecast(&tiny()));
        for key in ["mape_envelope", "mape_executions", "executed"] {
            assert_eq!(a.get(key), b.get(key), "{key}");
        }
    }

    #[test]
    fn executions_beat_the_envelope_baseline() {
        // CI's flags (`--prosumers 120 --days 5 --eval-days 3`); every
        // timing round computes the same MAPEs, so one round suffices.
        let report = run_forecast(&ForecastConfig { repeats: 1, ..ForecastConfig::default() });
        assert!(report.num_at(&["executed"]) > Some(0.0), "the day ticks must meter something");
        assert!(
            report.is_true("executions_beat_envelope"),
            "training on metered executions must beat the max envelope: {report}"
        );
        crate::diff::assert_binary_rows_resolve(GATES, &report);
        // Both MAPEs are a pure function of the seed.
        crate::diff::assert_pinned(
            &report,
            r#"{"mape_envelope": 19.954, "mape_executions": 1.98488}"#,
        );
    }
}
