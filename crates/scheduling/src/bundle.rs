//! Aggregate-then-schedule: the reference \[27\] pipeline as a
//! [`Scheduler`] wrapper.
//!
//! Tušar et al. pair aggregation with scheduling for a reason: a
//! best-start scheduler is `O(n · tf · len)` in the number of objects it
//! plans, so shrinking `n` first — merging similar offers into grid-cell
//! aggregates — buys a near-proportional speedup, at the price of the
//! flexibility the merge forfeits. [`BundleScheduler`] packages that
//! trade as a drop-in [`Scheduler`]:
//!
//! 1. the **Accepted/Scheduled** subset of the input is aggregated under
//!    the configured [`AggregationParams`] (other states are never
//!    touched, matching every other scheduler's skip contract);
//! 2. the inner scheduler plans the *surrogate* population — synthetic
//!    aggregates plus the untouched singletons — against the target;
//! 3. each aggregate's schedule is **disaggregated** back into one
//!    feasible schedule per member ([`Aggregator::disaggregate`] splits
//!    every slot exactly, so the bundled load curve re-sums to the
//!    surrogate plan), and the member schedules are assigned to the real
//!    offers through the ordinary state machine, which re-validates them.
//!
//! # Bundle-aware replanning
//!
//! The bundle is additionally **churn-aware** across calls: the grid of
//! (direction, EST-cell, TFT-cell) groups is materialised in an
//! [`IncrementalAggregator`] per `(seed, target)` planning context, and
//! a repeat call re-groups and re-schedules only the cells whose
//! membership actually changed. Clean cells keep the member schedules
//! the last call produced (an offer whose standing schedule diverged
//! from its cached plan is re-assigned through the state machine, which
//! re-validates it), their standing load — maintained as a running
//! curve across calls — is subtracted from the target in O(horizon),
//! and the inner scheduler plans just the churned cells' surrogates
//! against that residual. A cold call — new seed, new target, or a
//! population whose offers all changed — degenerates to exactly the
//! full pipeline above.
//!
//! Offers are matched by an **identity fingerprint** (direction, start
//! window, profile bounds): a status flip or a schedule assignment does
//! not dirty a cell, but any change to what the offer *is* re-inserts it
//! and re-plans its cell. A failed call drops its planning context, so
//! the next call restarts cold rather than trusting half-updated state.
//!
//! Because [`crate::IncrementalPlanner`] calls
//! [`Scheduler::schedule_seeded`] once per dirty partition with a stable
//! per-partition seed, wrapping its scheduler in a [`BundleScheduler`]
//! gives every partition its own standing grid: single-offer churn
//! re-plans one cell of one partition instead of re-grouping the world.
//! The planner itself needs no changes and keeps its determinism
//! guarantees (the pipeline adds no randomness of its own).

use std::collections::hash_map::DefaultHasher;
use std::collections::hash_map::Entry;
use std::collections::{BTreeSet, HashMap};
use std::hash::{BuildHasherDefault, Hash, Hasher};
use std::sync::{Arc, Mutex};

use mirabel_aggregation::{
    AggregateOffer, AggregationParams, Aggregator, GroupKey, IncrementalAggregator,
};
use mirabel_flexoffer::{Direction, FlexOffer, FlexOfferId, OfferState, Schedule};
use mirabel_timeseries::TimeSeries;

use crate::objective::{add_energies, report, SchedulingError, SchedulingReport};
use crate::Scheduler;

/// A splitmix64 finisher over the raw id bits: offer ids are arbitrary
/// u64s, so one round of mixing spreads them over the table without
/// paying SipHash per lookup — the warm-replan sync pass does O(offers)
/// lookups per round, which made the default hasher the bottleneck.
#[derive(Default)]
struct IdHasher(u64);

impl Hasher for IdHasher {
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0100_0000_01B3);
        }
    }

    fn write_u64(&mut self, v: u64) {
        self.0 ^= v;
    }

    fn finish(&self) -> u64 {
        let mut z = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }
}

type IdMap<V> = HashMap<FlexOfferId, V, BuildHasherDefault<IdHasher>>;

/// One cached member plan: the schedule the last planning round
/// produced plus the member's direction sign, kept so the plan's
/// standing load can be folded out of [`PartitionGrid::standing`] again
/// when the plan is dropped (the offer may be gone by then).
#[derive(Debug, Clone)]
struct CachedPlan {
    sign: f64,
    plan: Schedule,
}

/// What a grid tracks about one maintained offer.
#[derive(Debug, Clone)]
struct Tracked {
    /// Identity fingerprint — detects offers whose flexibility changed
    /// under an unchanged id.
    fingerprint: u64,
    /// The offer's index in the input slice, as of the last sync.
    index: usize,
    /// The round whose sync last saw the offer; behind the current
    /// round means the offer departed.
    seen: u64,
    /// The member schedule produced the last time the offer's cell was
    /// planned; cleared whenever the cell is re-planned.
    plan: Option<CachedPlan>,
}

/// The standing state of one `(seed, target)` planning context: the
/// materialised cell grid plus what each member was planned last call.
#[derive(Debug, Clone)]
struct PartitionGrid {
    /// The maintained (direction, EST-cell, TFT-cell) grid.
    inc: IncrementalAggregator,
    /// Every maintained offer, by id. Its iteration order (the order
    /// departures fold out of `standing`) depends only on the history
    /// of inserted and removed ids, never on the values.
    tracked: IdMap<Tracked>,
    /// Sync rounds run so far (the `seen` stamp).
    round: u64,
    /// The summed residual contribution (`-sign · energy`) of every
    /// cached plan, maintained on each plan change — so a warm round
    /// derives the residual target in O(horizon) instead of re-walking
    /// every clean member's schedule.
    standing: TimeSeries,
    /// Cells the last round re-planned but left a member unplanned in —
    /// re-planned again next round. Plan-less members can only arise in
    /// a re-planned cell (every other plan removal dirties its cell),
    /// so checking the round's churned cells on the way out replaces an
    /// O(members) sweep on the way in.
    unplanned: BTreeSet<GroupKey>,
}

impl PartitionGrid {
    fn new(params: AggregationParams) -> PartitionGrid {
        PartitionGrid {
            inc: IncrementalAggregator::new(params),
            tracked: IdMap::default(),
            round: 0,
            standing: TimeSeries::zeros(mirabel_timeseries::TimeSlot::new(0), 0),
            unplanned: BTreeSet::new(),
        }
    }
}

/// Folds one cached plan's residual contribution into (`weight` = +1)
/// or out of (`weight` = -1) the standing curve.
fn fold_standing(standing: &mut TimeSeries, cached: &CachedPlan, weight: f64) {
    add_energies(standing, cached.plan.start(), cached.plan.energies(), -weight * cached.sign);
}

/// What an offer *is*, hashed: direction, start window, and profile
/// bounds. Lifecycle state and any standing schedule are deliberately
/// excluded — they change on every planning round without moving the
/// offer to a different grid cell or altering its feasible set.
fn identity_fingerprint(fo: &FlexOffer) -> u64 {
    // FNV-1a over the identity words: the sync pass recomputes this for
    // every offer every round, so it has to be a handful of multiplies,
    // not a SipHash session.
    let mut h = 0xCBF2_9CE4_8422_2325u64;
    let mut word = |v: u64| {
        h = (h ^ v).wrapping_mul(0x0000_0100_0000_01B3);
    };
    word(u64::from(fo.direction() == Direction::Production));
    word(fo.earliest_start().index() as u64);
    word(fo.latest_start().index() as u64);
    for s in fo.profile().slices() {
        word(s.min.wh() as u64);
        word(s.max.wh() as u64);
    }
    h
}

/// Hash of a planning target's extent and exact sample bits — two
/// targets compare equal here iff replanning against them is the same
/// problem.
fn target_hash(target: &TimeSeries) -> u64 {
    let mut h = DefaultHasher::new();
    target.start().index().hash(&mut h);
    target.len().hash(&mut h);
    for v in target.values() {
        v.to_bits().hash(&mut h);
    }
    h.finish()
}

/// A [`Scheduler`] that aggregates before planning and disaggregates
/// after — aggregate the schedulable subset into surrogate offers, plan
/// those with the inner scheduler, then disaggregate exactly back onto
/// the members. Repeat calls with the same seed and target re-plan only
/// the churned grid cells (see the module docs).
#[derive(Debug)]
pub struct BundleScheduler<S> {
    inner: S,
    aggregator: Aggregator,
    /// Standing grids keyed by `(seed, target hash)` — one planning
    /// context per partition under [`crate::IncrementalPlanner`]. Locked
    /// only to take a grid out and put it back, so concurrent partitions
    /// plan in parallel.
    grids: Mutex<HashMap<(u64, u64), PartitionGrid>>,
}

impl<S: Clone> Clone for BundleScheduler<S> {
    fn clone(&self) -> BundleScheduler<S> {
        BundleScheduler {
            inner: self.inner.clone(),
            aggregator: self.aggregator.clone(),
            grids: Mutex::new(self.grids.lock().expect("grid cache lock").clone()),
        }
    }
}

impl<S> BundleScheduler<S> {
    /// Wraps `inner` so it plans aggregates built under `params`.
    pub fn new(inner: S, params: AggregationParams) -> BundleScheduler<S> {
        BundleScheduler {
            inner,
            aggregator: Aggregator::new(params),
            grids: Mutex::new(HashMap::new()),
        }
    }

    /// The wrapped scheduler.
    pub fn inner(&self) -> &S {
        &self.inner
    }

    /// The aggregation parameters the bundle is built under.
    pub fn params(&self) -> &AggregationParams {
        self.aggregator.params()
    }

    /// Drops every standing planning context: the next call of each
    /// `(seed, target)` pair restarts cold.
    pub fn clear_replan_state(&self) {
        self.grids.lock().expect("grid cache lock").clear();
    }

    /// Number of standing planning contexts (one per `(seed, target)`
    /// pair planned so far).
    pub fn replan_contexts(&self) -> usize {
        self.grids.lock().expect("grid cache lock").len()
    }
}

impl<S: Scheduler> BundleScheduler<S> {
    /// One churn-aware planning round over a standing grid. Mutates
    /// `grid` freely; the caller only persists it when this returns
    /// `Ok`.
    fn replan(
        &self,
        grid: &mut PartitionGrid,
        offers: &mut [FlexOffer],
        schedulable: &[usize],
        target: &TimeSeries,
        seed: u64,
    ) -> Result<SchedulingReport, SchedulingError> {
        let PartitionGrid { inc, tracked, round, standing, unplanned } = grid;
        // One standing curve per context: the target's extent is part of
        // the context key, so a mismatch only happens on a cold grid.
        if standing.start() != target.start() || standing.len() != target.len() {
            *standing = TimeSeries::zeros(target.start(), target.len());
        }

        // Sync the grid with the schedulable subset: departures leave,
        // arrivals and identity-changed offers (re-)enter. Each touch
        // marks exactly one cell dirty. The same pass stamps every
        // offer seen, records its input index, and notes the offers
        // whose standing schedule diverged from their cached plan.
        let cold = tracked.is_empty();
        *round += 1;
        let seen = *round;
        let mut diverged: Vec<usize> = Vec::new();
        for &i in schedulable {
            let fo = &offers[i];
            let fingerprint = identity_fingerprint(fo);
            match tracked.entry(fo.id()) {
                Entry::Occupied(mut e) if e.get().fingerprint == fingerprint => {
                    let t = e.get_mut();
                    t.index = i;
                    t.seen = seen;
                    if t.plan.as_ref().is_some_and(|c| fo.schedule() != Some(&c.plan)) {
                        diverged.push(i);
                    }
                }
                Entry::Occupied(mut e) => {
                    inc.remove(fo.id());
                    if let Some(old) = e.get_mut().plan.take() {
                        fold_standing(standing, &old, -1.0);
                    }
                    inc.insert(Arc::new(fo.clone()));
                    e.insert(Tracked { fingerprint, index: i, seen, plan: None });
                }
                Entry::Vacant(e) => {
                    inc.insert(Arc::new(fo.clone()));
                    e.insert(Tracked { fingerprint, index: i, seen, plan: None });
                }
            }
        }
        let stale: Vec<FlexOfferId> =
            tracked.iter().filter(|(_, t)| t.seen != seen).map(|(id, _)| *id).collect();
        for id in stale {
            inc.remove(id);
            let gone = tracked.remove(&id).expect("stale ids are tracked");
            if let Some(old) = gone.plan {
                fold_standing(standing, &old, -1.0);
            }
        }

        // The cells to re-plan: everything the sync churned (captured
        // before refresh clears the dirty set), plus any cell the last
        // round re-planned but left a member unplanned in.
        let mut churned: BTreeSet<GroupKey> = inc.dirty_cells().collect();
        churned.append(unplanned);
        inc.refresh().map_err(|e| SchedulingError::Bundling(e.to_string()))?;

        // A re-planned cell forgets its cached plans up front: a member
        // the inner scheduler leaves unassigned must trigger another
        // re-plan next round, not resurrect a stale schedule. (A cold
        // grid has no plans to forget.)
        if !cold {
            for cell in inc.cells().filter(|cell| churned.contains(&cell.key)) {
                for m in cell.members {
                    let t = tracked.get_mut(&m.id()).expect("members are tracked");
                    if let Some(old) = t.plan.take() {
                        fold_standing(standing, &old, -1.0);
                    }
                }
            }
        }

        // Every surviving cached plan now belongs to a clean cell (sync
        // dropped departed and re-inserted offers, the loop above
        // dropped the churned cells), and the standing curve already
        // sums their load, so the residual the inner scheduler has to
        // fill derives in O(horizon). A member already holding its
        // cached plan (the steady state: the offers slice is the
        // planner's standing population) is left untouched — assigning
        // through the state machine, which clones and re-validates, is
        // reserved for the offers the sync saw diverge, if their cell
        // stayed clean.
        let mut residual = target.clone();
        for (r, s) in residual.values_mut().iter_mut().zip(standing.values()) {
            *r += *s;
        }
        for i in diverged {
            let fo = &mut offers[i];
            let Some(cached) = &tracked[&fo.id()].plan else { continue };
            if fo.schedule() != Some(&cached.plan) {
                fo.assign(cached.plan.clone())?;
            }
        }

        // Surrogate population for the churned cells: accepted synthetic
        // aggregates first, then the untouched singletons cloned from
        // the *current* offers (their real states carry over, so a
        // Scheduled singleton is re-planned like anywhere else). Both
        // spans run in cell-key order, so the ordering is deterministic;
        // `cells` records each surrogate's cell.
        let mut surrogates: Vec<FlexOffer> = Vec::new();
        let mut cells: Vec<GroupKey> = Vec::new();
        let mut aggregates: Vec<&AggregateOffer> = Vec::new();
        for cell in inc.cells() {
            if !churned.contains(&cell.key) {
                continue;
            }
            for agg in cell.aggregates {
                let mut fo = agg.offer().clone();
                fo.accept().map_err(SchedulingError::AssignmentRejected)?;
                surrogates.push(fo);
                cells.push(cell.key);
                aggregates.push(agg);
            }
        }
        let mut untouched_ids: Vec<FlexOfferId> = Vec::new();
        for cell in inc.cells() {
            if !churned.contains(&cell.key) {
                continue;
            }
            for m in cell.untouched {
                surrogates.push(offers[tracked[&m.id()].index].clone());
                cells.push(cell.key);
                untouched_ids.push(m.id());
            }
        }

        if !surrogates.is_empty() {
            self.inner.schedule_seeded(&mut surrogates, &residual, seed)?;
        }

        // Split every aggregate's schedule back to its members and
        // assign through the state machine (which re-validates
        // feasibility), caching each member plan for the next round.
        let n_aggregates = aggregates.len();
        for (k, agg) in aggregates.iter().enumerate() {
            let Some(schedule) = surrogates[k].schedule() else { continue };
            let parts = self
                .aggregator
                .disaggregate(agg, schedule)
                .map_err(|e| SchedulingError::Bundling(e.to_string()))?;
            for (id, member_schedule) in parts {
                let t = tracked.get_mut(&id).expect("members are tracked");
                let fo = &mut offers[t.index];
                fo.assign(member_schedule.clone())?;
                let cached = CachedPlan { sign: fo.direction().sign(), plan: member_schedule };
                fold_standing(standing, &cached, 1.0);
                if let Some(old) = t.plan.replace(cached) {
                    fold_standing(standing, &old, -1.0);
                }
            }
        }
        for (k, id) in untouched_ids.iter().enumerate() {
            if let Some(schedule) = surrogates[n_aggregates + k].schedule() {
                let t = tracked.get_mut(id).expect("members are tracked");
                let fo = &mut offers[t.index];
                fo.assign(schedule.clone())?;
                let cached = CachedPlan { sign: fo.direction().sign(), plan: schedule.clone() };
                fold_standing(standing, &cached, 1.0);
                if let Some(old) = t.plan.replace(cached) {
                    fold_standing(standing, &old, -1.0);
                }
            }
        }

        // Any re-planned cell the inner scheduler left a member
        // unplanned in goes round again next call. Every member of a
        // re-planned cell lost its plan above and regains one exactly
        // when its surrogate was scheduled.
        for (surrogate, key) in surrogates.iter().zip(cells) {
            if surrogate.schedule().is_none() {
                unplanned.insert(key);
            }
        }

        // Report over the *real* offers against the *full* target: the
        // disaggregated plan plus the reused clean plans, not the
        // surrogate one.
        let assigned = offers.iter().filter(|fo| fo.schedule().is_some()).count();
        Ok(report(self.name(), offers, target, assigned, offers.len() - assigned))
    }
}

impl<S: Scheduler> Scheduler for BundleScheduler<S> {
    fn name(&self) -> &'static str {
        "bundled"
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
        if target.is_empty() {
            return Err(SchedulingError::EmptyTarget);
        }

        // The schedulable subset, by input index; everything else is
        // skipped exactly like the inner scheduler would skip it.
        let schedulable: Vec<usize> = (0..offers.len())
            .filter(|&i| matches!(offers[i].status(), OfferState::Accepted | OfferState::Scheduled))
            .collect();

        // Take this context's standing grid out of the cache (a brief
        // lock), plan unlocked, and persist the grid only on success —
        // a failed round restarts cold instead of trusting half-updated
        // state.
        let key = (seed, target_hash(target));
        let mut grid = {
            let mut grids = self.grids.lock().expect("grid cache lock");
            grids.remove(&key)
        }
        .unwrap_or_else(|| PartitionGrid::new(*self.params()));

        let result = self.replan(&mut grid, offers, &schedulable, target, seed);
        if result.is_ok() {
            self.grids.lock().expect("grid cache lock").insert(key, grid);
        }
        result
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::objective::load_curve;
    use crate::{GreedyScheduler, IncrementalPlanner, PlannerConfig};
    use mirabel_flexoffer::Energy;
    use mirabel_timeseries::TimeSlot;

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

    fn population(n: u64) -> Vec<FlexOffer> {
        (0..n).map(|i| accepted(i + 1, (i % 6) as i64, 8 + (i % 4) as i64, 3, 0, 1_200)).collect()
    }

    fn target() -> TimeSeries {
        TimeSeries::from_fn(TimeSlot::new(0), 32, |i| if (6..18).contains(&i) { 8.0 } else { 1.0 })
    }

    #[test]
    fn every_member_gets_a_feasible_schedule() {
        let mut offers = population(40);
        let bundled = BundleScheduler::new(GreedyScheduler, AggregationParams::new(2, 2));
        let r = bundled.schedule(&mut offers, &target()).unwrap();
        assert_eq!(r.assigned, 40);
        assert_eq!(r.skipped, 0);
        assert!(r.after.l2_sq < r.before.l2_sq);
        for fo in &offers {
            fo.check_schedule(fo.schedule().unwrap()).unwrap();
            assert_eq!(fo.status(), OfferState::Scheduled);
        }
    }

    #[test]
    fn disaggregated_load_resums_to_the_surrogate_plan() {
        // The bundled report's load curve is computed from the real
        // offers; exact per-slot disaggregation means it must equal the
        // curve of the surrogate plan, so `after` is the *true* imbalance.
        let mut offers = population(24);
        let t = target();
        let bundled = BundleScheduler::new(GreedyScheduler, AggregationParams::new(4, 4));
        let r = bundled.schedule(&mut offers, &t).unwrap();
        let real = load_curve(&offers, t.start(), t.len());
        let diff: f64 = real.iter().map(|(_, v)| v).zip(t.iter()).map(|(v, _)| v).sum::<f64>();
        assert!(diff.is_finite());
        assert!((crate::objective::Imbalance::of(&t, &real).l2_sq - r.after.l2_sq).abs() < 1e-9);
    }

    #[test]
    fn non_schedulable_offers_are_left_alone() {
        let mut offers = population(10);
        // Offer 0 is still Offered: the bundle must not accept it behind
        // the enterprise's back.
        offers[0] = FlexOffer::builder(99u64, 99u64)
            .earliest_start(TimeSlot::new(0))
            .latest_start(TimeSlot::new(4))
            .slices(2, Energy::from_wh(0), Energy::from_wh(500))
            .build()
            .unwrap();
        let bundled = BundleScheduler::new(GreedyScheduler, AggregationParams::new(2, 2));
        let r = bundled.schedule(&mut offers, &target()).unwrap();
        assert_eq!(r.assigned, 9);
        assert_eq!(r.skipped, 1);
        assert_eq!(offers[0].status(), OfferState::Offered);
        assert!(offers[0].schedule().is_none());
    }

    #[test]
    fn bundling_is_deterministic() {
        let bundled = BundleScheduler::new(GreedyScheduler, AggregationParams::new(2, 2));
        let t = target();
        let mut a = population(30);
        let mut b = population(30);
        bundled.schedule_seeded(&mut a, &t, 7).unwrap();
        bundled.schedule_seeded(&mut b, &t, 7).unwrap();
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.schedule(), y.schedule());
        }
    }

    #[test]
    fn singleton_groups_reduce_the_bundle_to_the_raw_schedule() {
        // With a group-size cap of 1 every cell chunks into singletons,
        // so the surrogate population *is* the real population — the
        // pipeline must collapse to exactly the raw plan, schedule for
        // schedule. This pins the round-trip: aggregate-then-schedule
        // with no merging ≡ raw scheduling. Energies are distinct so
        // greedy's big-first order is total (the bundle re-orders its
        // surrogates by grid cell, which must not matter).
        let distinct = |n: u64| -> Vec<FlexOffer> {
            (0..n)
                .map(|i| accepted(i + 1, (i % 6) as i64, 8, 3, 0, 1_000 + 10 * i as i64))
                .collect()
        };
        let t = target();
        let mut raw = distinct(32);
        GreedyScheduler.schedule(&mut raw, &t).unwrap();

        let mut bundled = distinct(32);
        let params = AggregationParams::new(2, 2).with_max_group_size(1);
        BundleScheduler::new(GreedyScheduler, params).schedule(&mut bundled, &t).unwrap();

        for (r, b) in raw.iter().zip(&bundled) {
            assert_eq!(r.schedule(), b.schedule(), "offer {:?} diverged", r.id());
        }
    }

    #[test]
    fn empty_target_is_rejected() {
        let bundled = BundleScheduler::new(GreedyScheduler, AggregationParams::new(2, 2));
        let err = bundled
            .schedule(&mut population(4), &TimeSeries::zeros(TimeSlot::new(0), 0))
            .unwrap_err();
        assert_eq!(err, SchedulingError::EmptyTarget);
    }

    #[test]
    fn incremental_planner_routes_partitions_through_the_bundle() {
        // The tentpole wiring: an IncrementalPlanner over a
        // BundleScheduler aggregates each dirty partition before
        // scheduling it and disaggregates after — every real offer ends
        // up with a feasible schedule of its own.
        let mut p = IncrementalPlanner::new(
            BundleScheduler::new(GreedyScheduler, AggregationParams::new(2, 2)),
            PlannerConfig { partitions: 4, threads: 2, seed: 3 },
            target(),
        );
        p.insert(population(48));
        let out = p.replan().unwrap();
        assert_eq!(out.report.assigned, 48);
        assert_eq!(out.report.scheduler, "bundled");
        for fo in p.offers() {
            fo.check_schedule(fo.schedule().unwrap()).unwrap();
        }
    }

    #[test]
    fn repeat_call_with_no_churn_reuses_every_plan() {
        // Same instance, same seed, same target, identical population:
        // the second call sees zero churned cells and must reproduce the
        // first call's schedules purely from the plan cache.
        let bundled = BundleScheduler::new(GreedyScheduler, AggregationParams::new(2, 2));
        let t = target();
        let mut a = population(36);
        let first = bundled.schedule_seeded(&mut a, &t, 11).unwrap();
        let planned: Vec<_> = a.iter().map(|fo| fo.schedule().cloned()).collect();

        let mut b = population(36);
        let second = bundled.schedule_seeded(&mut b, &t, 11).unwrap();
        assert_eq!(bundled.replan_contexts(), 1);
        for (fo, plan) in b.iter().zip(&planned) {
            assert_eq!(fo.schedule(), plan.as_ref(), "warm replan must not move {:?}", fo.id());
        }
        assert_eq!(first.assigned, second.assigned);
        assert!((first.after.l2_sq - second.after.l2_sq).abs() < 1e-12);
    }

    #[test]
    fn single_offer_churn_replans_only_its_cell() {
        // Cells are 2 slots wide on EST; ests 0..=5 with tf spread give
        // several distinct cells. Warm the grid, then add one offer far
        // from the others: every other offer's schedule must survive
        // verbatim, while the newcomer's cell is planned fresh.
        let bundled = BundleScheduler::new(GreedyScheduler, AggregationParams::new(2, 2));
        let t = target();
        let mut offers = population(30);
        bundled.schedule_seeded(&mut offers, &t, 5).unwrap();
        let before: Vec<_> = offers.iter().map(|fo| fo.schedule().cloned()).collect();

        // The newcomer lands in an EST cell (⌊20/2⌋) no existing offer
        // occupies.
        offers.push(accepted(1_000, 20, 4, 3, 0, 900));
        let r = bundled.schedule_seeded(&mut offers, &t, 5).unwrap();
        assert_eq!(r.assigned, 31);
        for (fo, old) in offers.iter().zip(&before) {
            assert_eq!(fo.schedule(), old.as_ref(), "clean cell {:?} was re-planned", fo.id());
        }
        let newcomer = offers.last().unwrap();
        newcomer.check_schedule(newcomer.schedule().unwrap()).unwrap();
    }

    #[test]
    fn withdrawn_offer_churns_only_its_cell() {
        let bundled = BundleScheduler::new(GreedyScheduler, AggregationParams::new(2, 2));
        let t = target();
        let mut offers = population(30);
        bundled.schedule_seeded(&mut offers, &t, 9).unwrap();

        // Drop one offer: its cell mates re-plan, everyone else stays.
        let gone = offers.remove(0);
        let same_cell = |fo: &FlexOffer| {
            GroupKey::of(fo, bundled.params()) == GroupKey::of(&gone, bundled.params())
        };
        let keep: Vec<_> = offers
            .iter()
            .filter(|fo| !same_cell(fo))
            .map(|fo| (fo.id(), fo.schedule().cloned()))
            .collect();
        let r = bundled.schedule_seeded(&mut offers, &t, 9).unwrap();
        assert_eq!(r.assigned, 29);
        for (id, old) in keep {
            let fo = offers.iter().find(|fo| fo.id() == id).unwrap();
            assert_eq!(fo.schedule(), old.as_ref(), "clean cell {id:?} was re-planned");
        }
        for fo in &offers {
            fo.check_schedule(fo.schedule().unwrap()).unwrap();
        }
    }

    #[test]
    fn identity_change_reenters_the_grid() {
        // Same id, different flexibility window: the fingerprint must
        // catch it and re-plan the affected cell(s) so the new bounds
        // are honoured.
        let bundled = BundleScheduler::new(GreedyScheduler, AggregationParams::new(2, 2));
        let t = target();
        let mut offers = population(12);
        bundled.schedule_seeded(&mut offers, &t, 2).unwrap();

        let id = offers[3].id();
        offers[3] = accepted(id.raw(), 14, 2, 3, 0, 700);
        bundled.schedule_seeded(&mut offers, &t, 2).unwrap();
        let moved = &offers[3];
        let s = moved.schedule().unwrap();
        moved.check_schedule(s).unwrap();
        assert!(s.start() >= moved.earliest_start() && s.start() <= moved.latest_start());
    }

    #[test]
    fn distinct_seeds_and_targets_keep_separate_contexts() {
        let bundled = BundleScheduler::new(GreedyScheduler, AggregationParams::new(2, 2));
        let t = target();
        bundled.schedule_seeded(&mut population(8), &t, 1).unwrap();
        bundled.schedule_seeded(&mut population(8), &t, 2).unwrap();
        let other = TimeSeries::from_fn(TimeSlot::new(0), 32, |i| i as f64);
        bundled.schedule_seeded(&mut population(8), &other, 1).unwrap();
        assert_eq!(bundled.replan_contexts(), 3);
        bundled.clear_replan_state();
        assert_eq!(bundled.replan_contexts(), 0);
    }

    #[test]
    fn warm_replan_preserves_the_exact_disaggregation_roundtrip() {
        // After churn + warm replan, every offer holds a feasible
        // schedule and the report's `after` imbalance is computed from
        // the real (disaggregated + reused) load — the round trip the
        // planning bench gates.
        let bundled = BundleScheduler::new(GreedyScheduler, AggregationParams::new(4, 4));
        let t = target();
        let mut offers = population(40);
        bundled.schedule_seeded(&mut offers, &t, 13).unwrap();
        offers.push(accepted(777, 3, 9, 3, 0, 1_100));
        let r = bundled.schedule_seeded(&mut offers, &t, 13).unwrap();
        assert_eq!(r.assigned, 41);
        for fo in &offers {
            fo.check_schedule(fo.schedule().unwrap()).unwrap();
        }
        let real = load_curve(&offers, t.start(), t.len());
        assert!((crate::objective::Imbalance::of(&t, &real).l2_sq - r.after.l2_sq).abs() < 1e-9);
    }
}
