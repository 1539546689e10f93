//! The live warehouse: streaming ingest with epoch-published snapshots.
//!
//! The paper's warehouse is loaded once; deployment is a stream — in
//! MIRABEL, prosumers issue flex-offers continuously and can retract
//! them until acceptance (the SAREF4ENER offered/accepted/withdrawn
//! lifecycle). [`LiveWarehouse`] is the `Send + Sync` subsystem that
//! closes that gap:
//!
//! * **writers batch** — [`LiveWarehouse::ingest`],
//!   [`LiveWarehouse::withdraw`] and [`LiveWarehouse::advance_day`]
//!   apply deltas to a private working copy under one writer lock,
//!   incrementally (fact columns append, the time hierarchy extends in
//!   place, withdrawn offers are compacted away at once — never a full
//!   [`Warehouse::load`] rebuild);
//! * **readers are wait-free** — [`LiveWarehouse::snapshot`] hands out
//!   the current immutable [`EpochSnapshot`] behind an `Arc`; a reader
//!   holds it for as long as it likes and never blocks a writer, and a
//!   torn state is unrepresentable because snapshots are frozen whole;
//! * **epochs order the world** — [`LiveWarehouse::publish`] freezes
//!   the working copy into the next epoch and swaps it in atomically;
//!   serving layers ([`ConcurrentPool::publish`]) stamp the epoch next
//!   to their revision keys so caches invalidate lazily on the next
//!   command.
//!
//! # What a write costs
//!
//! The fact columns and the offer handles live in copy-on-write
//! segments of 1,024 facts (see `columns.rs`). A publish shares the
//! working copy's segments with the new epoch: it clones the vector of
//! segment handles and the small hierarchies, nothing per fact. A batch
//! then copies only the segments it writes — the tail for appends, the
//! segment of each refreshed fact, and for a withdrawal the segments
//! from the first withdrawn fact on, because compaction keeps fact
//! order — and a replaced epoch frees only those. Nothing keyed by fact
//! position is maintained for readers: the per-prosumer, per-region, id
//! and time indices are derived by each version's first read that needs
//! them. The writer keeps its own id → position map (updated for the
//! facts a batch moves) and its prosumer → district cache, neither of
//! which an epoch shares. `DESIGN.md` records the measured split.
//!
//! [`ConcurrentPool::publish`]: https://docs.rs/mirabel-session (see `mirabel_session::ConcurrentPool`)

use std::sync::{Arc, Mutex, RwLock};

use mirabel_flexoffer::{FlexOffer, FlexOfferId, Schedule};
use mirabel_timeseries::SlotSpan;
use mirabel_workload::Population;

use crate::columns::SEGMENT_FACTS;
use crate::warehouse::{IngestOutcome, ScheduleOutcome, Warehouse};

/// One immutable published state of the live warehouse: a frozen
/// [`Warehouse`] plus the epoch counter it was published at. Cheap to
/// clone (two `Arc` words); safe to hold across any number of commands.
#[derive(Debug, Clone)]
pub struct EpochSnapshot {
    epoch: u64,
    warehouse: Arc<Warehouse>,
}

impl EpochSnapshot {
    /// The epoch this snapshot was published at (0 = the initial load).
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// The frozen warehouse.
    pub fn warehouse(&self) -> &Arc<Warehouse> {
        &self.warehouse
    }
}

/// Pending-delta counters since the last publish — what the next epoch
/// will contain beyond the current one.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PendingDeltas {
    /// Offers ingested into the working copy since the last publish.
    pub ingested: usize,
    /// Offers withdrawn from the working copy since the last publish.
    pub withdrawn: usize,
    /// Days appended to the working copy since the last publish.
    pub days_added: usize,
    /// Offers scheduled in the working copy since the last publish.
    pub scheduled: usize,
    /// Offers executed (metered) in the working copy since the last
    /// publish.
    pub executed: usize,
}

impl PendingDeltas {
    /// `true` when a publish would change nothing.
    pub fn is_empty(&self) -> bool {
        self.ingested == 0
            && self.withdrawn == 0
            && self.days_added == 0
            && self.scheduled == 0
            && self.executed == 0
    }
}

/// The writer side: the working copy plus batch accounting, all under
/// one lock so delta application is serialized and cheap.
#[derive(Debug)]
struct Writer {
    population: Population,
    working: Warehouse,
    pending: PendingDeltas,
}

/// A `Send + Sync` warehouse that accepts streaming deltas and serves
/// immutable epoch snapshots. See the [module docs](self) for the
/// batching/epoch model and `DESIGN.md` for the full protocol.
#[derive(Debug)]
pub struct LiveWarehouse {
    writer: Mutex<Writer>,
    /// The published snapshot. A reader takes the read lock only long
    /// enough to clone an `Arc`; the write lock is taken only for the
    /// pointer swap in [`LiveWarehouse::publish`] — so readers are
    /// effectively wait-free and never observe a half-applied batch.
    published: RwLock<Arc<EpochSnapshot>>,
}

impl LiveWarehouse {
    /// Boots the live warehouse: loads `offers` as epoch 0 and keeps
    /// `population` for keying future ingests.
    pub fn new(population: Population, offers: &[FlexOffer]) -> LiveWarehouse {
        let working = Warehouse::load(&population, offers);
        let snapshot = Arc::new(EpochSnapshot { epoch: 0, warehouse: Arc::new(working.clone()) });
        LiveWarehouse {
            writer: Mutex::new(Writer { population, working, pending: PendingDeltas::default() }),
            published: RwLock::new(snapshot),
        }
    }

    /// Wraps an already-loaded warehouse as epoch 0.
    pub fn from_warehouse(population: Population, warehouse: Warehouse) -> LiveWarehouse {
        let snapshot = Arc::new(EpochSnapshot { epoch: 0, warehouse: Arc::new(warehouse.clone()) });
        LiveWarehouse {
            writer: Mutex::new(Writer {
                population,
                working: warehouse,
                pending: PendingDeltas::default(),
            }),
            published: RwLock::new(snapshot),
        }
    }

    /// The current published snapshot (wait-free for practical purposes:
    /// the read lock is held for one `Arc` clone).
    pub fn snapshot(&self) -> Arc<EpochSnapshot> {
        Arc::clone(&self.published.read().expect("published lock"))
    }

    /// The current published epoch.
    pub fn epoch(&self) -> u64 {
        self.published.read().expect("published lock").epoch
    }

    /// Deltas applied to the working copy but not yet published.
    pub fn pending(&self) -> PendingDeltas {
        self.writer.lock().expect("writer lock").pending
    }

    /// Ingests a batch of arrived offers into the working copy (not yet
    /// visible to readers — call [`LiveWarehouse::publish`] to freeze an
    /// epoch). Incremental: appends facts, extends the time hierarchy in
    /// place.
    pub fn ingest(&self, offers: &[FlexOffer]) -> IngestOutcome {
        let mut w = self.writer.lock().expect("writer lock");
        let out = {
            let Writer { population, working, .. } = &mut *w;
            working.ingest(population, offers)
        };
        w.pending.ingested += out.ingested;
        w.pending.days_added += out.days_added;
        out
    }

    /// Withdraws offers by id from the working copy, compacting them
    /// away at once (see [`Warehouse::withdraw`]). Unknown ids are
    /// ignored; returns the number actually removed.
    pub fn withdraw(&self, ids: &[FlexOfferId]) -> usize {
        let mut w = self.writer.lock().expect("writer lock");
        let removed = w.working.withdraw(ids);
        w.pending.withdrawn += removed;
        removed
    }

    /// Applies enterprise schedule assignments to the working copy (see
    /// [`Warehouse::assign_schedules`]; not yet visible to readers).
    pub fn assign_schedules(&self, assignments: &[(FlexOfferId, Schedule)]) -> ScheduleOutcome {
        let mut w = self.writer.lock().expect("writer lock");
        let out = w.working.assign_schedules(assignments);
        w.pending.scheduled += out.scheduled;
        out
    }

    /// Appends one day to the working copy's time window (the midnight
    /// tick that keeps "tomorrow" loadable before its offers arrive) and
    /// **executes due schedules**: every offer whose schedule fully
    /// elapsed before the newly appended day is metered into the
    /// `Executed` state, streaming its execution curve into the fact
    /// table. Returns the number of offers executed.
    pub fn advance_day(&self) -> usize {
        let mut w = self.writer.lock().expect("writer lock");
        w.working.advance_day();
        w.pending.days_added += 1;
        let now = w.working.window_end() - SlotSpan::days(1);
        let executed = w.working.execute_due(now);
        w.pending.executed += executed;
        executed
    }

    /// Freezes the working copy into the next epoch and swaps it in for
    /// all future readers. In-flight readers keep the snapshot they
    /// hold; nobody ever observes a partially applied batch.
    ///
    /// Cost: one clone of the working warehouse — its hierarchies and
    /// the vector of segment handles, each an `Arc` shared with every
    /// epoch that has not been written since — plus a pointer swap. The
    /// working copy itself is **not** rebuilt and no index is copied, so
    /// publish latency is O(hierarchies + segments). The swap drops this
    /// handle on the previous epoch; if no reader still holds it, the
    /// segments the batch replaced are freed here, and nothing else.
    /// Returns the new snapshot.
    pub fn publish(&self) -> Arc<EpochSnapshot> {
        let mut w = self.writer.lock().expect("writer lock");
        let epoch = self.published.read().expect("published lock").epoch + 1;
        let snapshot = Arc::new(EpochSnapshot { epoch, warehouse: Arc::new(w.working.clone()) });
        w.pending = PendingDeltas::default();
        // Writer lock is still held: publishes are totally ordered and
        // the epoch counter cannot skew from the published snapshot.
        *self.published.write().expect("published lock") = Arc::clone(&snapshot);
        snapshot
    }

    /// Sanity invariants of the current published snapshot — the bench
    /// harness's torn-epoch probe. Panics (with context) on violation.
    pub fn validate_snapshot(snapshot: &EpochSnapshot) {
        let epoch = snapshot.epoch();
        let segments = snapshot.warehouse().columns().segments();
        for (s, seg) in segments.iter().enumerate() {
            assert!(
                !seg.is_empty() && (s + 1 == segments.len() || seg.len() == SEGMENT_FACTS),
                "epoch {epoch}: segment {s} holds {} facts",
                seg.len()
            );
            assert_eq!(
                seg.offer_ids().len(),
                seg.offers().len(),
                "epoch {epoch}: fact columns/offer store out of step"
            );
            for (&id, fo) in seg.offer_ids().iter().zip(seg.offers()) {
                assert_eq!(id, fo.id(), "epoch {epoch}: fact keyed to the wrong offer");
            }
        }
    }
}

// The whole point of this type: writers and readers on different
// threads. A compile-time assertion so a non-`Send` field can never
// sneak in silently.
const _: () = {
    const fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<LiveWarehouse>();
};

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Dimension, LoaderQuery, Measure, Query};
    use mirabel_timeseries::SlotSpan;
    use mirabel_workload::{generate_offers, OfferConfig, PopulationConfig};

    fn setup() -> (Population, Vec<FlexOffer>, Vec<FlexOffer>) {
        let pop = Population::generate(&PopulationConfig {
            size: 80,
            seed: 0x11FE,
            household_share: 0.8,
        });
        let all = generate_offers(&pop, &OfferConfig { days: 2, ..Default::default() });
        let (day1, day2) = all
            .iter()
            .cloned()
            .partition(|fo| fo.earliest_start().index() < mirabel_timeseries::SLOTS_PER_DAY);
        (pop, day1, day2)
    }

    #[test]
    fn epochs_are_frozen_and_ordered() {
        let (pop, day1, day2) = setup();
        let live = LiveWarehouse::new(pop, &day1);
        let e0 = live.snapshot();
        assert_eq!(e0.epoch(), 0);
        assert_eq!(live.epoch(), 0);

        let out = live.ingest(&day2);
        assert_eq!(out.ingested, day2.len());
        assert!(!live.pending().is_empty());
        // Not yet visible: readers still see epoch 0.
        assert_eq!(live.snapshot().epoch(), 0);
        assert_eq!(live.snapshot().warehouse().columns().len(), day1.len());

        let e1 = live.publish();
        assert_eq!(e1.epoch(), 1);
        assert!(live.pending().is_empty());
        assert_eq!(e1.warehouse().columns().len(), day1.len() + day2.len());
        // The old snapshot is untouched — a reader holding it is safe.
        assert_eq!(e0.warehouse().columns().len(), day1.len());
        LiveWarehouse::validate_snapshot(&e0);
        LiveWarehouse::validate_snapshot(&e1);
    }

    #[test]
    fn withdraw_is_batched_until_publish() {
        let (pop, day1, _) = setup();
        let live = LiveWarehouse::new(pop, &day1);
        let victims: Vec<FlexOfferId> = day1.iter().take(5).map(|fo| fo.id()).collect();
        assert_eq!(live.withdraw(&victims), 5);
        assert_eq!(live.pending().withdrawn, 5);
        assert_eq!(live.snapshot().warehouse().columns().len(), day1.len());
        let e1 = live.publish();
        assert_eq!(e1.warehouse().columns().len(), day1.len() - 5);
        for id in &victims {
            assert!(e1.warehouse().offer(*id).is_none());
        }
    }

    #[test]
    fn published_epochs_share_offer_allocations() {
        let (pop, day1, day2) = setup();
        let live = LiveWarehouse::new(pop, &day1);
        live.ingest(&day2);
        let e1 = live.publish();
        live.advance_day();
        let e2 = live.publish();
        assert_eq!(e2.epoch(), 2);
        // Same offers, same allocations: epochs share payload Arcs.
        for (a, b) in e1.warehouse().offers().iter().zip(e2.warehouse().offers()) {
            assert!(Arc::ptr_eq(a, b));
        }
    }

    #[test]
    fn advance_day_keeps_tomorrow_loadable() {
        let (pop, day1, _) = setup();
        let live = LiveWarehouse::new(pop.clone(), &day1);
        live.advance_day();
        live.advance_day();
        let e1 = live.publish();
        let days = e1.warehouse().hierarchy(Dimension::Time).at_level(3).count();
        assert!(days >= 3, "{days}");
        // An offer landing in the appended day ingests without another
        // extension.
        let fo = FlexOffer::builder(700_001u64, day1[0].prosumer().raw())
            .earliest_start(e1.warehouse().first_day() + SlotSpan::days(days as i64 - 1))
            .slices(1, mirabel_flexoffer::Energy::ZERO, mirabel_flexoffer::Energy::from_wh(2))
            .build()
            .unwrap();
        let out = live.ingest(std::slice::from_ref(&fo));
        assert_eq!(out.ingested, 1);
        assert_eq!(out.days_added, 0);
    }

    #[test]
    fn concurrent_readers_never_observe_a_torn_epoch() {
        let (pop, day1, day2) = setup();
        let live = Arc::new(LiveWarehouse::new(pop, &day1));
        let rounds = 20;
        std::thread::scope(|scope| {
            let writer = {
                let live = Arc::clone(&live);
                let chunks: Vec<&[FlexOffer]> = day2.chunks(day2.len().div_ceil(rounds)).collect();
                scope.spawn(move || {
                    for chunk in chunks {
                        live.ingest(chunk);
                        let victim = [chunk[0].id()];
                        live.withdraw(&victim);
                        live.publish();
                    }
                })
            };
            for _ in 0..3 {
                let live = Arc::clone(&live);
                scope.spawn(move || {
                    let mut last = 0u64;
                    for _ in 0..200 {
                        let snap = live.snapshot();
                        // Epochs are monotone per reader and internally
                        // consistent.
                        assert!(snap.epoch() >= last);
                        last = snap.epoch();
                        LiveWarehouse::validate_snapshot(&snap);
                        // Queries over a snapshot agree with themselves.
                        let q = Query::new(Measure::Count);
                        let n = snap.warehouse().eval(&q).unwrap().total as usize;
                        assert_eq!(n, snap.warehouse().columns().len());
                        let loaded = snap.warehouse().load_offers(&LoaderQuery::builder().build());
                        assert_eq!(loaded.len(), n);
                    }
                });
            }
            writer.join().expect("writer panicked");
        });
    }

    #[test]
    fn advance_day_meters_due_schedules_into_the_next_epoch() {
        let (pop, day1, _) = setup();
        let live = LiveWarehouse::new(pop, &day1);
        // Schedule a handful of day-1 offers at their earliest start.
        let assignments: Vec<(FlexOfferId, Schedule)> = day1
            .iter()
            .take(6)
            .map(|fo| {
                let energies = fo.profile().slices().iter().map(|s| s.min).collect();
                (fo.id(), Schedule::new(fo.earliest_start(), energies))
            })
            .collect();
        let out = live.assign_schedules(&assignments);
        assert_eq!(out.scheduled, 6);
        assert_eq!(live.pending().scheduled, 6);
        let before = live.publish();

        // The midnight tick executes everything that elapsed within the
        // covered window.
        let executed = live.advance_day();
        assert_eq!(executed, 6);
        assert_eq!(live.pending().executed, 6);
        let after = live.publish();

        for (id, _) in &assignments {
            // Prior epoch untouched; new epoch carries the executions.
            assert!(before.warehouse().offer(*id).unwrap().status().is_scheduled());
            let fo = after.warehouse().offer(*id).unwrap();
            assert!(fo.status().is_terminal());
            assert!(fo.execution().is_some());
        }
        // Fact measures stream along with the state.
        let metered: i64 = after.warehouse().columns().executed_wh().iter().sum();
        assert!(metered >= 0);
        // A second tick finds nothing left to execute.
        assert_eq!(live.advance_day(), 0);
    }
}
