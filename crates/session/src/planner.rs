//! The live planning subsystem: day-ahead scheduling as a session
//! citizen.
//!
//! The paper's Section 2 loop — forecast demand, then shift flexible
//! load under the RES curve (Figure 1) — ran only offline until now.
//! This module makes it live:
//!
//! * the **target** comes from [`mirabel_forecast`] over warehouse
//!   history ([`day_ahead_target`]): the signed flexible-load envelope
//!   of every past-day offer is summed per slot and extrapolated one
//!   horizon ahead with a daily-seasonal forecaster;
//! * the **plan** is held by an [`IncrementalPlanner`] over
//!   partitioned offer sets: when the session's warehouse moves to a new
//!   epoch, [`plan`] diffs the loadable offer set against the standing
//!   plan and re-plans **only the dirty partitions** (ingests and
//!   withdrawals touch `1/P` of the set each; a day tick moves the
//!   window and re-plans everything);
//! * the **view** is the balance tab ([`crate::views::balance`]),
//!   refreshed with the planned offers and curves after every
//!   [`Command::Plan`](crate::Command::Plan), cache-keyed by
//!   `(revision, epoch, plan_generation)`.
//!
//! Everything here is deterministic in (warehouse snapshot, params):
//! replaying the same command log over the same epochs reproduces the
//! same plan, the same generation counters and the same frame hashes at
//! any worker thread count.

use std::sync::Arc;

use mirabel_aggregation::AggregationParams;
use mirabel_dw::{Dimension, LoaderQuery, Warehouse, WarehouseRead};
use mirabel_flexoffer::{FlexOffer, FlexOfferId, OfferState};
use mirabel_forecast::{Forecaster, SeasonalNaive, SeasonalSmoothing};
use mirabel_scheduling::{
    BundleScheduler, IncrementalPlanner, PlannerConfig, Scheduler, SchedulerKind, SchedulingError,
    SchedulingReport,
};
use mirabel_timeseries::{SlotSpan, TimeSeries, TimeSlot};

use crate::outcome::PlanStats;
use crate::views::balance::BalanceData;
use crate::visual::VisualOffer;

/// Upper bound on a [`Command::SetPlanningParams`](crate::Command)
/// horizon, in slots (a week of quarter-hours): planning work is
/// O(offers × flexibility × horizon) and the command arrives over a
/// wire, so the work one of them can request must be bounded.
pub const MAX_PLAN_HORIZON: usize = 96 * 7;

/// Upper bound on partitions/threads a wire-decodable
/// [`PlanningParams`] may request.
pub const MAX_PLAN_UNITS: usize = 4_096;

/// Serializable planning parameters — the
/// [`Command::SetPlanningParams`](crate::Command::SetPlanningParams)
/// payload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PlanningParams {
    /// Which scheduler plans the partitions.
    pub scheduler: SchedulerKind,
    /// Partition count `P` (dirty granularity; see
    /// [`mirabel_scheduling::PlannerConfig`]).
    pub partitions: usize,
    /// Worker threads for a re-plan (wall-clock only — never the plan).
    pub threads: usize,
    /// Planning horizon in slots (one day = 96).
    pub horizon: usize,
    /// Master seed for stochastic schedulers.
    pub seed: u64,
    /// Route each partition's offer set through the aggregate-then-
    /// schedule pipeline ([`BundleScheduler`] under the session's
    /// aggregation parameters): offers are bundled into grid-cell
    /// aggregates before the scheduler runs and the aggregate schedules
    /// are disaggregated back to the members after — the reference \[27\]
    /// speedup, traded against the flexibility the merge forfeits.
    pub bundle: bool,
}

impl Default for PlanningParams {
    fn default() -> Self {
        PlanningParams {
            scheduler: SchedulerKind::Greedy,
            partitions: 32,
            threads: 1,
            horizon: 96,
            seed: 0x91AB,
            bundle: false,
        }
    }
}

impl PlanningParams {
    /// `true` when the wire-decoded values are within the served bounds.
    pub fn is_sane(&self) -> bool {
        (1..=MAX_PLAN_HORIZON).contains(&self.horizon)
            && (1..=MAX_PLAN_UNITS).contains(&self.partitions)
            && (1..=MAX_PLAN_UNITS).contains(&self.threads)
    }

    /// `true` when switching from `self` to `other` invalidates a
    /// standing plan (anything but the thread count changes the plan).
    fn invalidates(&self, other: &PlanningParams) -> bool {
        PlanningParams { threads: 0, ..*self } != PlanningParams { threads: 0, ..*other }
    }
}

/// First slot of the planning window: the civil day of the **newest
/// arrival** (the maximum `earliest_start` across the snapshot). Day
/// ticks move the plan forward through the offers they admit: once the
/// first offers for "tomorrow" are ingested, the window jumps to that
/// day and the next [`plan`] re-plans in full. (The last *hierarchy*
/// day would overshoot — offers crossing midnight extend the hierarchy
/// past their arrival day.) An empty warehouse falls back to the last
/// hierarchy day.
pub fn plan_window_start(dw: &Warehouse) -> TimeSlot {
    match dw.columns().earliest_starts().iter().copied().max() {
        Some(newest) => {
            let day = newest.index().div_euclid(mirabel_timeseries::SLOTS_PER_DAY);
            TimeSlot::new(day * mirabel_timeseries::SLOTS_PER_DAY)
        }
        None => {
            let days = dw.hierarchy(Dimension::Time).at_level(3).count().max(1);
            dw.first_day() + SlotSpan::days(days as i64 - 1)
        }
    }
}

/// The forecast residual target for `[window_start, window_start +
/// horizon)`: the per-slot **net** flexible-demand history (signed by
/// direction — consumption positive, production negative, exactly like
/// [`mirabel_scheduling::load_curve`] signs the plan) over all history
/// before `window_start`, extrapolated with a daily-seasonal
/// forecaster and clamped at zero. Signing matters: an unsigned
/// envelope would set a target the net scheduled load can never reach
/// whenever production offers are in the mix.
///
/// An offer's history contribution prefers what actually happened:
/// once the day tick metered an
/// [`Executed`](mirabel_flexoffer::OfferState::Executed) offer, its
/// recorded execution energies (anchored at the schedule
/// start) replace the maximum-envelope guess (anchored at the earliest
/// start). Before anything executes the two are identical by
/// construction, so a warehouse without executions plans exactly as it
/// always did.
///
/// Forecaster choice follows the forecast crate's own guidance: with
/// less than two full seasons of history, [`SeasonalSmoothing`] has
/// seen each phase at most once and washes the diurnal shape into a
/// flat level (which a temporally clustered offer pool cannot track),
/// so short histories use [`SeasonalNaive`] — repeat yesterday — and
/// longer ones the smoother. With no history the target is zero;
/// schedulers then place only mandatory minimums.
pub fn day_ahead_target(dw: &Warehouse, window_start: TimeSlot, horizon: usize) -> TimeSeries {
    let first = dw.first_day();
    let span = (window_start - first).count();
    if span <= 0 {
        return TimeSeries::zeros(window_start, horizon);
    }
    let mut history = TimeSeries::zeros(first, span as usize);
    // Columnar sweep, segment by segment in fact order: the common
    // (never-executed) case reads only the earliest-start, direction,
    // status and CSR slice-max columns; the offer store is consulted
    // only for metered executions, whose curves live on the offer.
    for seg in dw.columns().segments() {
        let facts = seg.earliest_starts().iter().zip(seg.directions()).zip(seg.statuses());
        for (k, ((&est, direction), &status)) in facts.enumerate() {
            if est >= window_start {
                continue;
            }
            let sign = direction.sign();
            if status == OfferState::Executed {
                // Metered: the execution is the ground truth the forecast
                // should learn from.
                let fo = &seg.offers()[k];
                let (execution, schedule) =
                    (fo.execution().expect("executed"), fo.schedule().expect("executed"));
                for (i, energy) in execution.energies().iter().enumerate() {
                    history
                        .add_at(schedule.start() + SlotSpan::slots(i as i64), sign * energy.kwh());
                }
            } else {
                // Not (yet) executed: the maximum envelope at the earliest
                // start is the best available stand-in.
                for (i, &max_wh) in seg.slice_max_wh(k).iter().enumerate() {
                    history.add_at(est + SlotSpan::slots(i as i64), sign * max_wh as f64 / 1_000.0);
                }
            }
        }
    }
    let season = mirabel_timeseries::SLOTS_PER_DAY as usize;
    let forecast = if history.len() < 2 * season {
        SeasonalNaive::daily().forecast(&history, horizon)
    } else {
        SeasonalSmoothing::daily().forecast(&history, horizon)
    };
    forecast.clamp_non_negative()
}

/// The concrete scheduler the session planner drives: the chosen
/// [`SchedulerKind`], either raw or routed through the
/// aggregate-then-schedule pipeline — so every *per-partition* offer set
/// the [`IncrementalPlanner`] hands down is bundled before scheduling
/// and disaggregated after when [`PlanningParams::bundle`] is on.
#[derive(Debug, Clone)]
enum PlanEngine {
    /// The scheduler plans the real offers directly.
    Raw(SchedulerKind),
    /// The scheduler plans grid-cell aggregates; members get their
    /// schedules by exact disaggregation.
    Bundled(BundleScheduler<SchedulerKind>),
}

impl PlanEngine {
    fn of(params: &PlanningParams, aggregation: AggregationParams) -> PlanEngine {
        if params.bundle {
            PlanEngine::Bundled(BundleScheduler::new(params.scheduler, aggregation))
        } else {
            PlanEngine::Raw(params.scheduler)
        }
    }
}

impl Scheduler for PlanEngine {
    fn name(&self) -> &'static str {
        match self {
            PlanEngine::Raw(kind) => kind.name(),
            PlanEngine::Bundled(bundled) => bundled.name(),
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
            PlanEngine::Raw(kind) => kind.schedule_seeded(offers, target, seed),
            PlanEngine::Bundled(bundled) => bundled.schedule_seeded(offers, target, seed),
        }
    }
}

/// The session's standing plan: the incremental core plus the keys that
/// decide whether the next [`plan`] call can diff instead of rebuild.
#[derive(Debug, Clone)]
pub struct SessionPlanner {
    params: PlanningParams,
    aggregation: AggregationParams,
    window_start: TimeSlot,
    planner: IncrementalPlanner<PlanEngine>,
    /// Carries generations across planner rebuilds (changed params, a
    /// moved window), keeping [`SessionPlanner::generation`] monotone
    /// for the whole session — the property the balance tab's
    /// `(revision, epoch, plan_generation)` cache key needs.
    generation_offset: u64,
    /// The offers the last [`plan`] handed to the balance tab, sorted by
    /// id. The next hand-off shares every entry whose offer is still
    /// equal (`==`: same schedule, same status, same everything) instead
    /// of cloning it.
    handed: Arc<[VisualOffer]>,
}

impl SessionPlanner {
    /// Plan generation of the standing plan: monotone across the whole
    /// session, bumped by every re-plan that did work.
    pub fn generation(&self) -> u64 {
        self.generation_offset + self.planner.generation()
    }

    /// First slot of the planned window.
    pub fn window_start(&self) -> TimeSlot {
        self.window_start
    }

    /// Total target energy of the planned window (kWh) — what the
    /// heatmap shares out proportionally across region cells.
    pub fn target_total(&self) -> f64 {
        self.planner.target().sum()
    }

    /// Folds the standing plan to per-district scheduled energy (kWh,
    /// signed by direction like [`mirabel_scheduling::load_curve`]),
    /// keyed by the geography leaf each offer's fact is keyed to in
    /// `dw` — the heatmap's drill-down measure. Offers the snapshot no
    /// longer knows (mid-epoch withdrawals not yet re-planned) are
    /// skipped rather than guessed.
    pub fn leaf_load(
        &self,
        dw: &Warehouse,
    ) -> std::collections::HashMap<mirabel_dw::MemberId, f64> {
        let mut load = std::collections::HashMap::new();
        for fo in self.planner.offers() {
            let Some(schedule) = fo.schedule() else { continue };
            let Some(leaf) = dw.geo_leaf_of(fo.id()) else { continue };
            let sign = fo.direction().sign();
            let kwh: f64 = schedule.energies().iter().map(|e| e.kwh()).sum();
            *load.entry(leaf).or_insert(0.0) += sign * kwh;
        }
        load
    }
}

/// Everything a successful [`plan`] call hands back to the session: the
/// stats for the [`Outcome`](crate::Outcome), plus the refreshed
/// balance-tab content.
#[derive(Debug)]
pub struct PlanUpdate {
    /// The structured outcome payload.
    pub stats: PlanStats,
    /// The planned offers (with schedules), sorted by id — the balance
    /// tab's offer set, so hover and selection work like any other view.
    /// Offers the plan left exactly as the previous hand-off had them
    /// are shared with it, not cloned.
    pub offers: Arc<[VisualOffer]>,
    /// The curves the balance view draws.
    pub balance: BalanceData,
}

/// Runs (or incrementally refreshes) the day-ahead plan against the
/// session's current warehouse snapshot — any [`WarehouseRead`]
/// implementor: an [`EpochSnapshot`](mirabel_dw::EpochSnapshot), an
/// [`EpochRef`](mirabel_dw::EpochRef) or a bare [`Warehouse`].
///
/// When `state` already holds a plan with the same parameters and the
/// same planning window, the loadable offer set is **diffed** against
/// it: new offers are inserted, vanished ones removed, and only the
/// partitions they land in are re-planned — the epoch-aware incremental
/// path. A moved window (day tick), a changed target or changed
/// parameters rebuild/re-plan in full.
/// `aggregation` feeds the bundle when [`PlanningParams::bundle`] is on
/// (the session passes its tool-panel parameters, so the plan bundles
/// exactly the way the Figure 11 panel is configured) and is ignored for
/// raw planning.
pub fn plan(
    src: &impl WarehouseRead,
    params: PlanningParams,
    aggregation: AggregationParams,
    state: &mut Option<SessionPlanner>,
) -> Result<PlanUpdate, String> {
    let dw = src.warehouse();
    let epoch = src.epoch();
    let window_start = plan_window_start(dw);
    let horizon = params.horizon.max(1);
    let target = day_ahead_target(dw, window_start, horizon);
    let window = LoaderQuery::builder()
        .window(window_start, window_start + SlotSpan::slots(horizon as i64))
        .build();

    // The loadable working set as a borrowed view over the snapshot's
    // columns, its ids sorted once (view position breaks ties): only
    // genuinely *new* arrivals are materialized further down — a
    // one-offer epoch costs one clone, not a re-clone of the window.
    let view = dw.view(&window);
    let mut desired: Vec<(FlexOfferId, usize)> = (0..view.len()).map(|k| (view.id(k), k)).collect();
    desired.sort_unstable();

    let reusable = state.as_ref().is_some_and(|s| {
        !s.params.invalidates(&params)
            && s.window_start == window_start
            && (!params.bundle || s.aggregation == aggregation)
    });
    if !reusable {
        let generation_offset = state.as_ref().map_or(0, SessionPlanner::generation);
        let handed = state.as_ref().map_or_else(|| Arc::from([]), |s| Arc::clone(&s.handed));
        let config = PlannerConfig {
            partitions: params.partitions,
            threads: params.threads,
            seed: params.seed,
        };
        *state = Some(SessionPlanner {
            params,
            aggregation,
            window_start,
            planner: IncrementalPlanner::new(
                PlanEngine::of(&params, aggregation),
                config,
                target.clone(),
            ),
            generation_offset,
            handed,
        });
    }
    let s = state.as_mut().expect("planner state just ensured");
    s.params = params;
    s.planner.set_threads(params.threads);

    // Epoch delta → dirty partitions: one merge of the window's sorted
    // ids against the planner's sorted ids yields the withdrawals (held
    // ids the window lost) and the arrivals (window ids not held).
    let (gone, arrivals) = diff_ids(&s.planner.ids(), &desired);
    s.planner.remove(&gone);
    s.planner.insert(arrivals.into_iter().map(|k| {
        // Cloned out of the immutable snapshot (a session never mutates
        // a warehouse); freshly offered → accepted, anything already
        // past that state keeps its status (the scheduler skips
        // rejected/executed).
        let mut fo = view.offer(k).clone();
        let _ = fo.accept();
        fo
    }));
    s.planner.set_target(target);

    let outcome = s.planner.replan().map_err(|e| format!("planning failed: {e}"))?;

    // The hand-off: both sides are sorted by id, so one merge pairs each
    // planned offer with its previous-generation copy.
    let mut previous = s.handed.iter().peekable();
    let offers: Arc<[VisualOffer]> = s
        .planner
        .offers()
        .into_iter()
        .map(|fo| {
            while previous.next_if(|v| v.id() < fo.id()).is_some() {}
            match previous.next_if(|v| v.id() == fo.id()) {
                Some(v) if *v.offer == *fo => v.clone(),
                _ => VisualOffer::plain(fo.clone()),
            }
        })
        .collect();
    s.handed = Arc::clone(&offers);
    let balance =
        BalanceData { target: s.planner.target().clone(), scheduled: s.planner.scheduled_load() };
    let stats = PlanStats {
        generation: s.generation(),
        epoch,
        window_start,
        replanned: outcome.replanned,
        partitions: outcome.partitions,
        assigned: outcome.report.assigned,
        skipped: outcome.report.skipped,
        before_l1: outcome.report.before.l1,
        after_l1: outcome.report.after.l1,
    };
    Ok(PlanUpdate { stats, offers, balance })
}

/// Merges the planner's sorted ids `held` against the window's
/// `desired` `(id, view position)` pairs, sorted: returns the held ids
/// the window no longer has, and the view positions of the window ids
/// the planner does not hold yet, ascending by id (a repeated new id
/// lists every position, in view order, so the last one wins the
/// insert).
fn diff_ids(
    held: &[FlexOfferId],
    desired: &[(FlexOfferId, usize)],
) -> (Vec<FlexOfferId>, Vec<usize>) {
    let mut gone = Vec::new();
    let mut arrivals = Vec::new();
    let mut held = held.iter().copied().peekable();
    let mut matched = None;
    for &(id, k) in desired {
        while let Some(old) = held.next_if(|&old| old < id) {
            gone.push(old);
        }
        if held.next_if_eq(&id).is_some() {
            matched = Some(id);
        } else if matched != Some(id) {
            arrivals.push(k);
        }
    }
    gone.extend(held);
    (gone, arrivals)
}

#[cfg(test)]
mod tests {
    use super::*;
    use mirabel_dw::LiveWarehouse;
    use mirabel_flexoffer::FlexOffer;
    use mirabel_workload::{generate_offers, OfferConfig, Population, PopulationConfig};

    fn setup() -> (Population, Vec<FlexOffer>, Vec<FlexOffer>) {
        let pop = Population::generate(&PopulationConfig {
            size: 60,
            seed: 0x91A4,
            household_share: 0.8,
        });
        let day0 = generate_offers(&pop, &OfferConfig { days: 1, seed: 1, ..Default::default() });
        let day1: Vec<FlexOffer> = generate_offers(
            &pop,
            &OfferConfig { days: 1, seed: 2, window_start: TimeSlot::EPOCH + SlotSpan::days(1) },
        )
        .into_iter()
        .enumerate()
        .map(|(i, fo)| fo.with_id(FlexOfferId(10_000 + i as u64)))
        .collect();
        (pop, day0, day1)
    }

    #[test]
    fn plan_window_follows_the_newest_arrival_day() {
        let (pop, day0, day1) = setup();
        let live = LiveWarehouse::new(pop, &day0);
        let snap = live.snapshot();
        assert_eq!(plan_window_start(snap.warehouse()), snap.warehouse().first_day());
        // A day tick alone does not move the window — there is nothing
        // to plan on the new day yet.
        live.advance_day();
        let snap = live.publish();
        assert_eq!(plan_window_start(snap.warehouse()), snap.warehouse().first_day());
        // Tomorrow's first arrivals move it.
        live.ingest(&day1);
        let snap = live.publish();
        assert_eq!(
            plan_window_start(snap.warehouse()),
            snap.warehouse().first_day() + SlotSpan::days(1)
        );
    }

    #[test]
    fn target_is_forecast_from_history_and_zero_without() {
        let (pop, day0, _) = setup();
        let live = LiveWarehouse::new(pop, &day0);
        let snap = live.snapshot();
        // Day 0 is the window: no history → zero target.
        let t0 = day_ahead_target(snap.warehouse(), snap.warehouse().first_day(), 96);
        assert_eq!(t0.len(), 96);
        assert_eq!(t0.sum(), 0.0);
        // With day 1 as the window, day 0 is history: the forecast
        // carries its diurnal envelope into day 1.
        live.advance_day();
        let snap = live.publish();
        let start = snap.warehouse().first_day() + SlotSpan::days(1);
        let t1 = day_ahead_target(snap.warehouse(), start, 96);
        assert_eq!(t1.start(), start);
        assert!(t1.sum() > 0.0, "history must produce a non-trivial target");
        assert!(t1.min().unwrap() >= 0.0);
    }

    #[test]
    fn metered_executions_replace_the_envelope_in_the_target() {
        let (pop, day0, _) = setup();
        // Reference: nothing executed, the max envelope is the history.
        let live = LiveWarehouse::new(pop.clone(), &day0);
        live.advance_day();
        let snap = live.publish();
        let start = snap.warehouse().first_day() + SlotSpan::days(1);
        let envelope = day_ahead_target(snap.warehouse(), start, 96);
        assert!(envelope.sum() > 0.0);

        // Same pool, but day 0 is scheduled at its minimums and metered
        // by the day tick before the target is taken.
        let live = LiveWarehouse::new(pop, &day0);
        let assignments: Vec<_> = day0
            .iter()
            .map(|fo| {
                let energies = fo.profile().slices().iter().map(|s| s.min).collect();
                (fo.id(), mirabel_flexoffer::Schedule::new(fo.earliest_start(), energies))
            })
            .collect();
        let out = live.assign_schedules(&assignments);
        assert_eq!(out.scheduled, day0.len());
        assert!(live.advance_day() > 0, "day-0 schedules must be due at the tick");
        let snap = live.publish();
        let metered = day_ahead_target(snap.warehouse(), start, 96);
        assert!(
            metered.sum() < envelope.sum(),
            "metered minimums must pull the target below the max envelope \
             ({} >= {})",
            metered.sum(),
            envelope.sum()
        );
        assert!(metered.min().unwrap() >= 0.0);
    }

    #[test]
    fn incremental_plan_touches_few_partitions_per_ingest() {
        let (pop, day0, day1) = setup();
        let live = LiveWarehouse::new(pop, &day0);
        live.advance_day();
        let (head, tail) = day1.split_at(day1.len() - 1);
        live.ingest(head);
        let snap = live.publish();

        let mut state = None;
        let params = PlanningParams::default();
        let up = plan(snap.as_ref(), params, AggregationParams::default(), &mut state).unwrap();
        assert!(up.stats.replanned > 0 && up.stats.replanned <= up.stats.partitions);
        assert!(up.stats.assigned > 0);
        let g1 = up.stats.generation;

        // One more offer arrives: exactly one partition goes dirty.
        live.ingest(tail);
        let snap = live.publish();
        let up = plan(snap.as_ref(), params, AggregationParams::default(), &mut state).unwrap();
        assert_eq!(up.stats.replanned, 1, "single ingest must re-plan one partition");
        assert!(up.stats.generation > g1);

        // No delta → reporting no-op.
        let up = plan(snap.as_ref(), params, AggregationParams::default(), &mut state).unwrap();
        assert_eq!(up.stats.replanned, 0);
    }

    #[test]
    fn withdrawal_dirties_and_drops_offers() {
        let (pop, day0, day1) = setup();
        let live = LiveWarehouse::new(pop, &day0);
        live.advance_day();
        live.ingest(&day1);
        let snap = live.publish();
        let mut state = None;
        let params = PlanningParams::default();
        let up = plan(snap.as_ref(), params, AggregationParams::default(), &mut state).unwrap();
        let planned = up.offers.len();

        let victims: Vec<FlexOfferId> = day1.iter().take(3).map(FlexOffer::id).collect();
        live.withdraw(&victims);
        let snap = live.publish();
        let up = plan(snap.as_ref(), params, AggregationParams::default(), &mut state).unwrap();
        assert_eq!(up.offers.len(), planned - 3);
        assert!(up.stats.replanned >= 1 && up.stats.replanned <= 3);
        for v in &victims {
            assert!(up.offers.iter().all(|o| o.id() != *v));
        }
    }

    #[test]
    fn changed_params_rebuild_but_thread_count_does_not() {
        let (pop, day0, day1) = setup();
        let live = LiveWarehouse::new(pop, &day0);
        live.advance_day();
        live.ingest(&day1);
        let snap = live.publish();
        let mut state = None;
        let params = PlanningParams::default();
        plan(snap.as_ref(), params, AggregationParams::default(), &mut state).unwrap();

        // Thread count change: plan untouched (0 replanned).
        let up = plan(
            snap.as_ref(),
            PlanningParams { threads: 4, ..params },
            AggregationParams::default(),
            &mut state,
        )
        .unwrap();
        assert_eq!(up.stats.replanned, 0);

        // Scheduler change: full rebuild.
        let up = plan(
            snap.as_ref(),
            PlanningParams { scheduler: SchedulerKind::Earliest, threads: 4, ..params },
            AggregationParams::default(),
            &mut state,
        )
        .unwrap();
        assert!(up.stats.replanned > 0);
    }

    #[test]
    fn plans_are_identical_at_any_thread_count() {
        let (pop, day0, day1) = setup();
        let live = LiveWarehouse::new(pop, &day0);
        live.advance_day();
        live.ingest(&day1);
        let snap = live.publish();
        let mut reference: Option<Vec<(FlexOfferId, Option<TimeSlot>)>> = None;
        for threads in [1, 2, 4, 8] {
            let mut state = None;
            let params = PlanningParams {
                threads,
                scheduler: SchedulerKind::HillClimb,
                ..Default::default()
            };
            let up = plan(snap.as_ref(), params, AggregationParams::default(), &mut state).unwrap();
            let plan_keys: Vec<(FlexOfferId, Option<TimeSlot>)> =
                up.offers.iter().map(|o| (o.id(), o.offer.schedule().map(|s| s.start()))).collect();
            match &reference {
                None => reference = Some(plan_keys),
                Some(r) => assert_eq!(*r, plan_keys, "{threads} threads diverged"),
            }
        }
    }

    #[test]
    fn bundled_planning_assigns_feasible_schedules() {
        let (pop, day0, day1) = setup();
        let live = LiveWarehouse::new(pop, &day0);
        live.advance_day();
        live.ingest(&day1);
        let snap = live.publish();

        let mut state = None;
        let params = PlanningParams { bundle: true, ..Default::default() };
        let up = plan(snap.as_ref(), params, AggregationParams::default(), &mut state).unwrap();
        assert!(up.stats.assigned > 0);
        for o in up.offers.iter() {
            let s = o.offer.schedule().expect("bundled plan covers every loadable offer");
            o.offer.check_schedule(s).unwrap();
        }

        // The bundle plans the same working set raw planning does; only
        // the schedules (and the wall-clock) differ.
        let mut raw_state = None;
        let raw = plan(
            snap.as_ref(),
            PlanningParams::default(),
            AggregationParams::default(),
            &mut raw_state,
        )
        .unwrap();
        assert_eq!(up.offers.len(), raw.offers.len());

        // Flipping the bundle off invalidates the standing plan (it is a
        // different plan, not a tuning knob).
        let up2 = plan(
            snap.as_ref(),
            PlanningParams::default(),
            AggregationParams::default(),
            &mut state,
        )
        .unwrap();
        assert!(up2.stats.replanned > 0);
    }

    #[test]
    fn id_diff_merges_sorted_ids() {
        let ids = |raw: &[u64]| raw.iter().copied().map(FlexOfferId).collect::<Vec<_>>();
        let held = ids(&[1, 3, 5, 7]);
        // Window ids 2, 3 (twice), 5 and 8 (twice), at view positions 0..6.
        let mut desired: Vec<(FlexOfferId, usize)> =
            [(2, 0), (3, 1), (5, 2), (8, 3), (3, 4), (8, 5)]
                .into_iter()
                .map(|(id, k)| (FlexOfferId(id), k))
                .collect();
        desired.sort_unstable();
        let (gone, arrivals) = diff_ids(&held, &desired);
        assert_eq!(gone, ids(&[1, 7]));
        // A held id is never re-inserted, however often the window
        // repeats it; a new repeated id keeps every position in view
        // order.
        assert_eq!(arrivals, vec![0, 3, 5]);
        assert_eq!(diff_ids(&held, &[]), (held.clone(), vec![]));
        assert_eq!(diff_ids(&[], &desired).1, vec![0, 1, 4, 2, 3, 5]);
    }

    #[test]
    fn sanity_bounds() {
        assert!(PlanningParams::default().is_sane());
        assert!(!PlanningParams { horizon: 0, ..Default::default() }.is_sane());
        assert!(!PlanningParams { horizon: MAX_PLAN_HORIZON + 1, ..Default::default() }.is_sane());
        assert!(!PlanningParams { partitions: 0, ..Default::default() }.is_sane());
        assert!(!PlanningParams { threads: MAX_PLAN_UNITS + 1, ..Default::default() }.is_sane());
    }
}
