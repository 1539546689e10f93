//! Partitioned, incremental, parallel planning — the residual-tracking
//! core behind the live `Planner` subsystem.
//!
//! The offline schedulers in this crate plan a whole offer set against a
//! whole target in one pass. A live enterprise cannot afford that: every
//! warehouse epoch (an ingest batch, a withdrawal storm, a day tick)
//! would trigger a full re-plan of tens of thousands of offers. The
//! [`IncrementalPlanner`] closes the gap with the same dirty-set design
//! `mirabel_aggregation::IncrementalAggregator` uses for its (EST × TFT)
//! cells, applied one level up:
//!
//! * offers are hashed into a **fixed number of partitions** by offer id;
//!   each partition plans against an equal **share** of the target
//!   (`target / P`), so partitions are independent by construction —
//!   no partition's plan can change another partition's residual;
//! * deltas ([`IncrementalPlanner::insert`],
//!   [`IncrementalPlanner::remove`], [`IncrementalPlanner::set_target`])
//!   mark only the partitions they touch **dirty**;
//! * [`IncrementalPlanner::replan`] re-plans *only dirty partitions*,
//!   distributing them over [`std::thread::scope`] workers, and merges
//!   deterministically: partition membership depends only on offer ids,
//!   per-partition seeds depend only on the partition index, and the
//!   merged load curve is summed in partition order on one thread — so
//!   the plan (and every balance-view frame hash derived from it) is
//!   **bit-for-bit identical at any worker thread count**.
//!
//! The price of independence is that a partition cannot borrow slack
//! from its neighbours; with tens of offers per partition the per-slot
//! law of large numbers makes the quality loss marginal (the planning
//! bench records imbalance per scheduler to keep that claim measured).

use std::collections::BTreeSet;

use mirabel_flexoffer::{FlexOffer, FlexOfferId};
use mirabel_timeseries::TimeSeries;

use crate::objective::{Imbalance, SchedulingError, SchedulingReport};
use crate::Scheduler;

/// Shape of an [`IncrementalPlanner`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PlannerConfig {
    /// Fixed partition count `P`. Membership is `id % P`, so changing
    /// `P` re-shuffles every partition — treat it as a rebuild, not a
    /// delta. More partitions = finer dirty granularity (an ingest of
    /// one offer re-plans `1/P` of the set) at slightly coarser target
    /// shares.
    pub partitions: usize,
    /// Worker threads for [`IncrementalPlanner::replan`]. Any value
    /// produces the identical plan; threads only change wall-clock.
    pub threads: usize,
    /// Master seed; each partition plans with a seed mixed from this
    /// and its index, so stochastic schedulers stay deterministic.
    pub seed: u64,
}

impl Default for PlannerConfig {
    fn default() -> Self {
        PlannerConfig { partitions: 32, threads: 1, seed: 0x91AB }
    }
}

/// What one [`IncrementalPlanner::replan`] call did.
#[derive(Debug, Clone)]
pub struct PlanOutcome {
    /// The global before/after report over the *whole* offer set and
    /// the *whole* target (not per-partition shares).
    pub report: SchedulingReport,
    /// Partitions that were actually re-planned this call.
    pub replanned: usize,
    /// Total partitions.
    pub partitions: usize,
    /// Plan generation after the call (bumped only when work was done).
    pub generation: u64,
}

/// One partition: its offers plus everything [`replan`] caches about
/// them, so reporting after an incremental re-plan costs O(P · horizon)
/// instead of O(offers · horizon).
///
/// [`replan`]: IncrementalPlanner::replan
#[derive(Debug, Clone)]
struct Partition {
    /// The offers with `id % P == p`, sorted by id.
    offers: Vec<FlexOffer>,
    /// This partition's scheduled load over the target extent, as of
    /// its last re-plan (stale while the partition is dirty).
    load: TimeSeries,
    /// Offers holding a schedule after the last re-plan.
    assigned: usize,
    /// Offers skipped by the last re-plan.
    skipped: usize,
}

impl Partition {
    fn empty(target: &TimeSeries) -> Partition {
        Partition {
            offers: Vec::new(),
            load: TimeSeries::zeros(target.start(), target.len()),
            assigned: 0,
            skipped: 0,
        }
    }

    /// Recomputes the cached load and counters from the offers' current
    /// schedules (called by the re-plan workers, so it parallelizes).
    fn refresh_cache(&mut self, target: &TimeSeries) {
        self.load = crate::objective::load_curve(&self.offers, target.start(), target.len());
        self.assigned = self.offers.iter().filter(|fo| fo.schedule().is_some()).count();
        self.skipped = self.offers.len() - self.assigned;
    }
}

/// The epoch-aware incremental planning core: a partitioned offer set,
/// a dirty-partition set, and a scheduler that re-plans only what
/// changed. See the [module docs](self) for the determinism argument.
#[derive(Debug, Clone)]
pub struct IncrementalPlanner<S> {
    scheduler: S,
    config: PlannerConfig,
    target: TimeSeries,
    /// `target / P` — the per-partition residual share.
    share: TimeSeries,
    parts: Vec<Partition>,
    dirty: BTreeSet<usize>,
    generation: u64,
}

impl<S: Scheduler + Sync> IncrementalPlanner<S> {
    /// An empty planner over `target`.
    pub fn new(scheduler: S, config: PlannerConfig, target: TimeSeries) -> Self {
        let partitions = config.partitions.max(1);
        let share = target.scale(1.0 / partitions as f64);
        let parts = (0..partitions).map(|_| Partition::empty(&target)).collect();
        IncrementalPlanner {
            scheduler,
            config: PlannerConfig { partitions, ..config },
            target,
            share,
            parts,
            dirty: BTreeSet::new(),
            generation: 0,
        }
    }

    /// The configuration (with `partitions` clamped to ≥ 1).
    pub fn config(&self) -> PlannerConfig {
        self.config
    }

    /// Changes the worker thread count for future
    /// [`IncrementalPlanner::replan`] calls. Safe at any time: threads
    /// affect wall-clock only, never the plan.
    pub fn set_threads(&mut self, threads: usize) {
        self.config.threads = threads;
    }

    /// The global target curve.
    pub fn target(&self) -> &TimeSeries {
        &self.target
    }

    /// Plan generation: bumped by every [`IncrementalPlanner::replan`]
    /// that re-planned at least one partition.
    pub fn generation(&self) -> u64 {
        self.generation
    }

    /// Number of offers across all partitions.
    pub fn len(&self) -> usize {
        self.parts.iter().map(|p| p.offers.len()).sum()
    }

    /// `true` when the planner holds no offers.
    pub fn is_empty(&self) -> bool {
        self.parts.iter().all(|p| p.offers.is_empty())
    }

    /// Partitions currently marked dirty.
    pub fn dirty_len(&self) -> usize {
        self.dirty.len()
    }

    /// `true` when an offer with `id` is held.
    pub fn contains(&self, id: FlexOfferId) -> bool {
        let part = &self.parts[self.part_of(id)];
        part.offers.binary_search_by_key(&id, FlexOffer::id).is_ok()
    }

    fn part_of(&self, id: FlexOfferId) -> usize {
        (id.raw() % self.config.partitions as u64) as usize
    }

    /// Inserts (or replaces, keyed by id) offers, marking their
    /// partitions dirty. Returns the number of offers taken in.
    pub fn insert(&mut self, offers: impl IntoIterator<Item = FlexOffer>) -> usize {
        let mut count = 0;
        for fo in offers {
            let p = self.part_of(fo.id());
            let part = &mut self.parts[p];
            match part.offers.binary_search_by_key(&fo.id(), FlexOffer::id) {
                Ok(i) => part.offers[i] = fo,
                Err(i) => part.offers.insert(i, fo),
            }
            self.dirty.insert(p);
            count += 1;
        }
        count
    }

    /// Removes offers by id — the withdrawal half of an epoch delta.
    /// Unknown ids are ignored; touched partitions go dirty. Returns
    /// the number actually removed.
    pub fn remove(&mut self, ids: &[FlexOfferId]) -> usize {
        let mut removed = 0;
        for &id in ids {
            let p = self.part_of(id);
            let part = &mut self.parts[p];
            if let Ok(i) = part.offers.binary_search_by_key(&id, FlexOffer::id) {
                part.offers.remove(i);
                self.dirty.insert(p);
                removed += 1;
            }
        }
        removed
    }

    /// Replaces the target curve (a day tick or a forecast revision).
    /// A changed target dirties **every** partition — each plans
    /// against its share of it. Equal targets are a no-op.
    pub fn set_target(&mut self, target: TimeSeries) {
        if self.target == target {
            return;
        }
        self.share = target.scale(1.0 / self.config.partitions as f64);
        self.target = target;
        self.mark_all_dirty();
    }

    /// Marks every non-empty partition dirty (the full-replan reset).
    pub fn mark_all_dirty(&mut self) {
        for (p, part) in self.parts.iter().enumerate() {
            if !part.offers.is_empty() {
                self.dirty.insert(p);
            }
        }
    }

    /// Re-plans every partition from scratch, regardless of dirt.
    pub fn full_replan(&mut self) -> Result<PlanOutcome, SchedulingError> {
        self.mark_all_dirty();
        self.replan()
    }

    /// Re-plans **only the dirty partitions**, distributing them over
    /// `config.threads` scoped workers, and merges the global plan.
    ///
    /// Deterministic: the same offer set, target and seed produce the
    /// same plan at any thread count (partitions are independent and
    /// each carries its own derived seed). With no dirty partitions the
    /// call is a cheap no-op that re-reports the standing plan.
    pub fn replan(&mut self) -> Result<PlanOutcome, SchedulingError> {
        if self.target.is_empty() {
            return Err(SchedulingError::EmptyTarget);
        }
        let dirty: Vec<usize> = self.dirty.iter().copied().collect();
        if !dirty.is_empty() {
            let threads = self.config.threads.max(1).min(dirty.len());
            let seed = self.config.seed;
            let scheduler = &self.scheduler;
            let share = &self.share;
            let target = &self.target;

            // Disjoint &mut to exactly the dirty partitions, in index
            // order; round-robin over workers. Results are keyed by
            // partition index, so completion order cannot matter.
            let mut work: Vec<(usize, &mut Partition)> =
                self.parts.iter_mut().enumerate().filter(|(p, _)| self.dirty.contains(p)).collect();
            let mut per_thread: Vec<Vec<(usize, &mut Partition)>> =
                (0..threads).map(|_| Vec::new()).collect();
            for (i, item) in work.drain(..).enumerate() {
                per_thread[i % threads].push(item);
            }

            let work = move |chunk: Vec<(usize, &mut Partition)>| {
                let mut failed = Vec::new();
                for (p, part) in chunk {
                    let mixed = mix(seed, p as u64);
                    match scheduler.schedule_seeded(&mut part.offers, share, mixed) {
                        Ok(_) => part.refresh_cache(target),
                        Err(e) => failed.push((p, e)),
                    }
                }
                failed
            };
            // The calling thread plans the first chunk itself, so a
            // one-thread re-plan spawns nothing.
            let mut failures: Vec<(usize, SchedulingError)> = std::thread::scope(|scope| {
                let mut chunks = per_thread.into_iter();
                let own = chunks.next().expect("at least one worker");
                let handles: Vec<_> =
                    chunks.map(|chunk| scope.spawn(move || work(chunk))).collect();
                let mut failed = work(own);
                for h in handles {
                    failed.extend(h.join().expect("planner worker"));
                }
                failed
            });
            if !failures.is_empty() {
                // Deterministic error: report the lowest-index failure.
                failures.sort_by_key(|(p, _)| *p);
                return Err(failures.swap_remove(0).1);
            }
            self.dirty.clear();
            self.generation += 1;
        }
        Ok(self.outcome(dirty.len()))
    }

    fn outcome(&self, replanned: usize) -> PlanOutcome {
        let zero = TimeSeries::zeros(self.target.start(), self.target.len());
        let load = self.scheduled_load();
        let (mut assigned, mut skipped) = (0usize, 0usize);
        for part in &self.parts {
            assigned += part.assigned;
            skipped += part.skipped;
        }
        PlanOutcome {
            report: SchedulingReport {
                scheduler: self.scheduler.name(),
                assigned,
                skipped,
                before: Imbalance::of(&self.target, &zero),
                after: Imbalance::of(&self.target, &load),
            },
            replanned,
            partitions: self.config.partitions,
            generation: self.generation,
        }
    }

    /// The merged scheduled-load curve over the target extent, as of the
    /// last [`IncrementalPlanner::replan`]: the cached per-partition
    /// loads summed in partition order on the calling thread — an
    /// O(P · horizon) deterministic merge, independent of offer count
    /// and of how many generations led here (each partition's curve is
    /// recomputed whole whenever it re-plans, so no float drift can
    /// accumulate across generations).
    pub fn scheduled_load(&self) -> TimeSeries {
        let mut load = TimeSeries::zeros(self.target.start(), self.target.len());
        for part in &self.parts {
            for (slot, v) in part.load.iter() {
                load.add_at(slot, v);
            }
        }
        load
    }

    /// All held offers (with their current schedules), sorted by id.
    pub fn offers(&self) -> Vec<&FlexOffer> {
        let mut all: Vec<&FlexOffer> = self.parts.iter().flat_map(|p| &p.offers).collect();
        // Ids are unique across partitions, so unstable is exact.
        all.sort_unstable_by_key(|fo| fo.id());
        all
    }

    /// Ids of all held offers, sorted.
    pub fn ids(&self) -> Vec<FlexOfferId> {
        let mut ids: Vec<FlexOfferId> =
            self.parts.iter().flat_map(|p| p.offers.iter().map(FlexOffer::id)).collect();
        ids.sort_unstable();
        ids
    }

    /// A stable FNV-1a digest of the current plan: ids, schedule starts
    /// and per-slice energies in sorted-id order. Equal hashes ⇒
    /// identical plans; the planning bench compares this across worker
    /// thread counts.
    pub fn plan_hash(&self) -> u64 {
        let mut h = Fnv::new();
        for fo in self.offers() {
            h.write(fo.id().raw());
            match fo.schedule() {
                None => h.write(u64::MAX),
                Some(s) => {
                    h.write(s.start().index() as u64);
                    for e in s.energies() {
                        h.write(e.wh() as u64);
                    }
                }
            }
        }
        h.finish()
    }
}

/// SplitMix64 over `seed ⊕ f(p)`: the per-partition seed derivation.
fn mix(seed: u64, p: u64) -> u64 {
    let mut z = seed ^ p.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Minimal FNV-1a accumulator over u64 words.
struct Fnv(u64);

impl Fnv {
    fn new() -> Fnv {
        Fnv(0xCBF2_9CE4_8422_2325)
    }
    fn write(&mut self, v: u64) {
        for byte in v.to_le_bytes() {
            self.0 ^= u64::from(byte);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01B3);
        }
    }
    fn finish(&self) -> u64 {
        self.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{GreedyScheduler, HillClimbScheduler, SchedulerKind};
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

    fn offers(n: u64) -> Vec<FlexOffer> {
        (0..n).map(|i| accepted(i + 1, (i % 8) as i64, 12, 3, 0, 1_500)).collect()
    }

    fn target() -> TimeSeries {
        TimeSeries::from_fn(TimeSlot::new(0), 32, |i| if (8..20).contains(&i) { 6.0 } else { 1.0 })
    }

    fn planner(threads: usize) -> IncrementalPlanner<GreedyScheduler> {
        IncrementalPlanner::new(
            GreedyScheduler,
            PlannerConfig { partitions: 8, threads, seed: 7 },
            target(),
        )
    }

    #[test]
    fn replan_plans_every_offer_and_improves_balance() {
        let mut p = planner(1);
        assert_eq!(p.insert(offers(40)), 40);
        assert_eq!(p.dirty_len(), 8);
        let out = p.replan().unwrap();
        assert_eq!(out.report.assigned, 40);
        assert_eq!(out.replanned, 8);
        assert_eq!(out.generation, 1);
        assert!(out.report.after.l2_sq < out.report.before.l2_sq);
        assert_eq!(p.dirty_len(), 0);
        for fo in p.offers() {
            fo.check_schedule(fo.schedule().unwrap()).unwrap();
        }
    }

    #[test]
    fn thread_count_cannot_change_the_plan() {
        let mut reference = None;
        for threads in [1, 2, 4, 8] {
            let mut p = planner(threads);
            p.insert(offers(64));
            p.replan().unwrap();
            let hash = p.plan_hash();
            match reference {
                None => reference = Some(hash),
                Some(r) => assert_eq!(r, hash, "{threads} threads diverged"),
            }
        }
    }

    #[test]
    fn stochastic_schedulers_are_thread_stable_too() {
        let mut reference = None;
        for threads in [1, 4] {
            let mut p = IncrementalPlanner::new(
                HillClimbScheduler::new(50, 3),
                PlannerConfig { partitions: 8, threads, seed: 9 },
                target(),
            );
            p.insert(offers(48));
            p.replan().unwrap();
            match reference {
                None => reference = Some(p.plan_hash()),
                Some(r) => assert_eq!(r, p.plan_hash()),
            }
        }
    }

    #[test]
    fn incremental_insert_replans_only_one_partition() {
        let mut p = planner(2);
        p.insert(offers(64));
        p.replan().unwrap();

        // Snapshot the standing schedules, then ingest one offer.
        let before: Vec<(FlexOfferId, Option<_>)> =
            p.offers().iter().map(|fo| (fo.id(), fo.schedule().cloned())).collect();
        p.insert([accepted(1_000, 4, 10, 2, 0, 900)]);
        assert_eq!(p.dirty_len(), 1);
        let out = p.replan().unwrap();
        assert_eq!(out.replanned, 1);
        assert_eq!(out.generation, 2);

        // Offers outside the dirty partition kept their schedules.
        let touched = 1_000 % 8;
        for (id, old) in before {
            if id.raw() % 8 != touched {
                let fo = p.offers().into_iter().find(|fo| fo.id() == id).unwrap().clone();
                assert_eq!(fo.schedule().cloned(), old, "{id:?} was disturbed");
            }
        }
    }

    #[test]
    fn incremental_equals_full_replan() {
        // Planning {set + x} incrementally after planning {set} must
        // equal planning {set + x} from scratch: partitions are
        // independent, so history cannot leak into the plan.
        let extra = accepted(999, 2, 8, 2, 100, 800);
        let mut incremental = planner(1);
        incremental.insert(offers(50));
        incremental.replan().unwrap();
        incremental.insert([extra.clone()]);
        incremental.replan().unwrap();

        let mut fresh = planner(1);
        fresh.insert(offers(50));
        fresh.insert([extra]);
        fresh.replan().unwrap();
        assert_eq!(incremental.plan_hash(), fresh.plan_hash());
    }

    #[test]
    fn remove_marks_dirty_and_drops_load() {
        let mut p = planner(1);
        p.insert(offers(16));
        p.replan().unwrap();
        let ids: Vec<FlexOfferId> = p.ids().into_iter().take(4).collect();
        assert_eq!(p.remove(&ids), 4);
        assert!(p.dirty_len() >= 1);
        assert_eq!(p.remove(&[FlexOfferId(55_555)]), 0);
        p.replan().unwrap();
        assert_eq!(p.len(), 12);
        for id in ids {
            assert!(!p.contains(id));
        }
    }

    #[test]
    fn set_target_dirties_everything_and_noop_on_equal() {
        let mut p = planner(1);
        p.insert(offers(16));
        p.replan().unwrap();
        p.set_target(target()); // identical → no dirt
        assert_eq!(p.dirty_len(), 0);
        p.set_target(target().scale(2.0));
        assert!(p.dirty_len() > 0);
        let out = p.replan().unwrap();
        assert_eq!(out.replanned, p.config().partitions.min(16));
    }

    #[test]
    fn replan_without_dirt_is_a_reporting_noop() {
        let mut p = planner(4);
        p.insert(offers(10));
        let g1 = p.replan().unwrap().generation;
        let out = p.replan().unwrap();
        assert_eq!(out.replanned, 0);
        assert_eq!(out.generation, g1, "no work, no generation bump");
        assert_eq!(out.report.assigned, 10);
    }

    #[test]
    fn empty_target_is_an_error() {
        let mut p = IncrementalPlanner::new(
            GreedyScheduler,
            PlannerConfig::default(),
            TimeSeries::zeros(TimeSlot::new(0), 0),
        );
        p.insert(offers(2));
        assert_eq!(p.replan().unwrap_err(), SchedulingError::EmptyTarget);
    }

    #[test]
    fn insert_replaces_by_id() {
        let mut p = planner(1);
        p.insert(offers(4));
        p.insert([accepted(2, 0, 0, 1, 50, 50)]); // replaces id 2
        assert_eq!(p.len(), 4);
        p.replan().unwrap();
        let fo = p.offers().into_iter().find(|fo| fo.id() == FlexOfferId(2)).unwrap();
        assert_eq!(fo.profile().len(), 1);
    }

    #[test]
    fn kind_dispatch_plans_all_kinds() {
        for kind in SchedulerKind::ALL {
            let mut p = IncrementalPlanner::new(
                kind,
                PlannerConfig { partitions: 4, threads: 2, seed: 1 },
                target(),
            );
            p.insert(offers(20));
            let out = p.replan().unwrap();
            assert_eq!(out.report.assigned, 20, "{kind:?}");
        }
    }
}
