//! Incremental aggregate maintenance for a streaming offer population.
//!
//! [`Aggregator::aggregate`](crate::Aggregator::aggregate) re-groups the whole population on every
//! call — the right shape for the Figure 11 panel (one click, one
//! screenful), and the wrong one for the live warehouse, where every
//! ingest batch touches a handful of grid cells out of thousands.
//! [`IncrementalAggregator`] keeps the (EST × TFT × direction) grid of
//! [`GroupKey`]s **materialised**: inserting or withdrawing an offer
//! marks only its own cell dirty, and [`IncrementalAggregator::refresh`]
//! re-merges exactly the dirty cells — re-anchoring member offsets
//! against the cell's possibly-changed earliest start — while every
//! clean cell keeps its built [`AggregateOffer`] untouched.
//!
//! The maintained output is definitionally equal to a from-scratch
//! [`Aggregator::aggregate`](crate::Aggregator::aggregate) run over the surviving offers (the
//! equivalence is asserted in this module's tests); only the synthetic
//! aggregate ids differ, because ids are never reused across epochs.

use std::collections::hash_map::Entry;
use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::sync::Arc;

use mirabel_flexoffer::{FlexOffer, FlexOfferId};

use crate::aggregate::{merge_group, AggregateOffer};
use crate::error::AggregationError;
use crate::group::GroupKey;
use crate::params::AggregationParams;

/// One materialised grid cell: its member offers in arrival order plus
/// the output built at the last refresh.
#[derive(Debug, Clone, Default)]
struct Cell {
    /// Member offers, arrival order (withdrawals preserve the order of
    /// the survivors — the same order a full re-run would see).
    members: Vec<Arc<FlexOffer>>,
    /// Aggregates built from chunks of two or more members.
    aggregates: Vec<AggregateOffer>,
    /// Members left untouched because their chunk was a singleton.
    untouched: Vec<Arc<FlexOffer>>,
}

/// What one [`IncrementalAggregator::refresh`] did.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RefreshStats {
    /// Cells re-merged by this refresh (the dirty set).
    pub rebuilt_groups: usize,
    /// Cells materialised in total after the refresh.
    pub total_groups: usize,
    /// Aggregates across all cells after the refresh.
    pub aggregates: usize,
    /// Untouched singletons across all cells after the refresh.
    pub untouched: usize,
}

/// Incrementally maintained aggregation over a mutating offer
/// population — see the [module docs](self).
#[derive(Debug, Clone)]
pub struct IncrementalAggregator {
    params: AggregationParams,
    cells: BTreeMap<GroupKey, Cell>,
    by_id: HashMap<FlexOfferId, GroupKey>,
    dirty: BTreeSet<GroupKey>,
    /// Synthetic aggregate ids: strictly above every id ever seen, and
    /// never reused — a rebuilt cell's aggregate is a *new* object, so
    /// stale provenance can never alias a live aggregate.
    next_synthetic: u64,
}

impl IncrementalAggregator {
    /// An empty maintainer with the given parameters.
    pub fn new(params: AggregationParams) -> IncrementalAggregator {
        IncrementalAggregator {
            params,
            cells: BTreeMap::new(),
            by_id: HashMap::new(),
            dirty: BTreeSet::new(),
            next_synthetic: 1,
        }
    }

    /// The configured parameters.
    pub fn params(&self) -> &AggregationParams {
        &self.params
    }

    /// Number of live member offers.
    pub fn len(&self) -> usize {
        self.by_id.len()
    }

    /// `true` when no offers are maintained.
    pub fn is_empty(&self) -> bool {
        self.by_id.is_empty()
    }

    /// Cells awaiting a [`IncrementalAggregator::refresh`].
    pub fn dirty_groups(&self) -> usize {
        self.dirty.len()
    }

    /// Inserts an arrived offer into its grid cell, marking only that
    /// cell dirty. Returns `false` (and changes nothing) when an offer
    /// with this id is already maintained.
    pub fn insert(&mut self, offer: Arc<FlexOffer>) -> bool {
        let key = GroupKey::of(&offer, &self.params);
        self.insert_keyed(offer, key)
    }

    /// [`IncrementalAggregator::insert`] with a pre-computed [`GroupKey`]
    /// — the columnar ingest path: a warehouse sweep derives keys from
    /// the direction/EST/TFT *columns* via [`GroupKey::from_parts`] and
    /// only dereferences the shared offer handle for storage. The key
    /// must equal `GroupKey::of(&offer, self.params())`; a mismatched
    /// key is a caller bug (checked in debug builds) that would silently
    /// corrupt cell membership in release builds.
    pub fn insert_keyed(&mut self, offer: Arc<FlexOffer>, key: GroupKey) -> bool {
        debug_assert_eq!(key, GroupKey::of(&offer, &self.params), "key/offer mismatch");
        let id = offer.id();
        match self.by_id.entry(id) {
            Entry::Occupied(_) => return false,
            Entry::Vacant(v) => v.insert(key),
        };
        self.next_synthetic = self.next_synthetic.max(id.raw() + 1);
        self.cells.entry(key).or_default().members.push(offer);
        self.dirty.insert(key);
        true
    }

    /// Withdraws an offer, marking only its cell dirty. Returns `false`
    /// for an unknown id.
    pub fn remove(&mut self, id: FlexOfferId) -> bool {
        let Some(key) = self.by_id.remove(&id) else { return false };
        let cell = self.cells.get_mut(&key).expect("cell exists for indexed member");
        cell.members.retain(|m| m.id() != id);
        self.dirty.insert(key);
        true
    }

    /// Re-merges exactly the dirty cells: each gets fresh
    /// [`AggregateOffer`]s with offsets re-anchored to the cell's
    /// current earliest start ([`crate::MemberPlacement::offset`]), and
    /// empty cells are dropped. Clean cells are not touched — this is
    /// the O(dirty) path that replaces the O(population) re-run.
    ///
    /// On a merge error (a member set the builder rejects) the
    /// maintainer stays consistent: the failing cell keeps its previous
    /// built output, its members are preserved, and it — plus every
    /// not-yet-processed cell — remains dirty for the next refresh.
    pub fn refresh(&mut self) -> Result<RefreshStats, AggregationError> {
        let dirty = std::mem::take(&mut self.dirty);
        let rebuilt_groups = dirty.len();
        let mut failed: Option<(GroupKey, AggregationError)> = None;
        for key in &dirty {
            let Some(cell) = self.cells.get_mut(key) else { continue };
            if cell.members.is_empty() {
                self.cells.remove(key);
                continue;
            }
            let cap = self.params.max_group_size.unwrap_or(usize::MAX).max(1);
            // Chunking mirrors `group_offers`: arrival order, `cap`-sized.
            // Built into temporaries so an error leaves the cell's
            // previous output (and its members) untouched.
            let mut aggregates = Vec::new();
            let mut untouched = Vec::new();
            let mut next_synthetic = self.next_synthetic;
            for chunk in cell.members.chunks(cap) {
                if chunk.len() == 1 {
                    untouched.push(Arc::clone(&chunk[0]));
                    continue;
                }
                let refs: Vec<&FlexOffer> = chunk.iter().map(Arc::as_ref).collect();
                match merge_group(FlexOfferId(next_synthetic), &refs) {
                    Ok(agg) => {
                        next_synthetic += 1;
                        aggregates.push(agg);
                    }
                    Err(e) => {
                        failed = Some((*key, e));
                        break;
                    }
                }
            }
            if failed.is_some() {
                break;
            }
            cell.aggregates = aggregates;
            cell.untouched = untouched;
            self.next_synthetic = next_synthetic;
        }
        if let Some((key, e)) = failed {
            // The failing cell and everything after it stay dirty.
            self.dirty.extend(dirty.range(key..).copied());
            return Err(e);
        }
        Ok(self.stats(rebuilt_groups))
    }

    fn stats(&self, rebuilt_groups: usize) -> RefreshStats {
        RefreshStats {
            rebuilt_groups,
            total_groups: self.cells.len(),
            aggregates: self.cells.values().map(|c| c.aggregates.len()).sum(),
            untouched: self.cells.values().map(|c| c.untouched.len()).sum(),
        }
    }

    /// All maintained aggregates, in grid-cell key order (deterministic).
    pub fn aggregates(&self) -> impl Iterator<Item = &AggregateOffer> {
        self.cells.values().flat_map(|c| c.aggregates.iter())
    }

    /// All untouched singletons, in grid-cell key order.
    pub fn untouched(&self) -> impl Iterator<Item = &Arc<FlexOffer>> {
        self.cells.values().flat_map(|c| c.untouched.iter())
    }

    /// Objects after aggregation (aggregates + untouched), the Figure 8
    /// screen-object count.
    pub fn output_count(&self) -> usize {
        self.cells.values().map(|c| c.aggregates.len() + c.untouched.len()).sum()
    }

    /// Keys of the cells currently awaiting a refresh (touched by an
    /// insert or withdraw since the last one), in key order. Captured
    /// *before* [`IncrementalAggregator::refresh`] clears the set, this
    /// is exactly the churn a bundle-aware replanner has to re-schedule.
    pub fn dirty_cells(&self) -> impl Iterator<Item = GroupKey> + '_ {
        self.dirty.iter().copied()
    }

    /// Per-cell views in key order — the iteration a replanner uses to
    /// split the grid into churned and clean cells.
    pub fn cells(&self) -> impl Iterator<Item = CellView<'_>> {
        self.cells.iter().map(|(key, cell)| CellView {
            key: *key,
            members: &cell.members,
            aggregates: &cell.aggregates,
            untouched: &cell.untouched,
        })
    }
}

/// A borrowed view of one materialised grid cell (see
/// [`IncrementalAggregator::cells`]).
#[derive(Debug, Clone, Copy)]
pub struct CellView<'a> {
    /// The cell's grid coordinates.
    pub key: GroupKey,
    /// Live member offers, arrival order.
    pub members: &'a [Arc<FlexOffer>],
    /// Aggregates built at the last refresh.
    pub aggregates: &'a [AggregateOffer],
    /// Members whose chunk was a singleton at the last refresh.
    pub untouched: &'a [Arc<FlexOffer>],
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::aggregate::Aggregator;
    use mirabel_flexoffer::{Direction, Energy, Schedule};
    use mirabel_timeseries::{SlotSpan, TimeSlot};
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn offer(id: u64, est: i64, tf: i64, len: usize, min: i64, max: i64) -> Arc<FlexOffer> {
        Arc::new(
            FlexOffer::builder(id, id)
                .earliest_start(TimeSlot::new(est))
                .latest_start(TimeSlot::new(est + tf))
                .slices(len, Energy::from_wh(min), Energy::from_wh(max))
                .build()
                .unwrap(),
        )
    }

    /// Asserts the maintained state equals a from-scratch run over the
    /// same surviving population (ids aside: synthetic ids are epochal).
    fn assert_equivalent(inc: &IncrementalAggregator, survivors: &[Arc<FlexOffer>]) {
        let full = Aggregator::new(*inc.params()).aggregate(survivors).unwrap();
        assert_eq!(
            inc.output_count(),
            full.output_count(),
            "output counts diverge ({} members)",
            survivors.len()
        );
        // Aggregates match pairwise: `group_offers` orders cells by key
        // and members by input order, exactly like the maintained map.
        let incs: Vec<&AggregateOffer> = inc.aggregates().collect();
        assert_eq!(incs.len(), full.aggregates.len());
        for (a, b) in incs.iter().zip(&full.aggregates) {
            let a_members: Vec<FlexOfferId> = a.member_ids().collect();
            let b_members: Vec<FlexOfferId> = b.member_ids().collect();
            assert_eq!(a_members, b_members);
            assert_eq!(a.offer().earliest_start(), b.offer().earliest_start());
            assert_eq!(a.offer().time_flexibility(), b.offer().time_flexibility());
            assert_eq!(a.offer().profile(), b.offer().profile());
            for (pa, pb) in a.members().iter().zip(b.members()) {
                assert_eq!(pa.offset, pb.offset, "offsets must re-anchor identically");
            }
        }
        let inc_untouched: Vec<FlexOfferId> = inc.untouched().map(|o| o.id()).collect();
        let full_untouched: Vec<FlexOfferId> =
            full.untouched.iter().map(|&i| survivors[i].id()).collect();
        assert_eq!(inc_untouched, full_untouched);
    }

    #[test]
    fn insert_refresh_matches_full_run() {
        let params = AggregationParams::new(4, 4);
        let mut inc = IncrementalAggregator::new(params);
        let offers: Vec<Arc<FlexOffer>> = (0..40)
            .map(|i| offer(i + 1, (i as i64 % 6) * 3, 4 + (i as i64 % 3), 2, 10, 30))
            .collect();
        for fo in &offers {
            assert!(inc.insert(Arc::clone(fo)));
        }
        assert!(!inc.insert(Arc::clone(&offers[0])), "duplicate ids are rejected");
        let stats = inc.refresh().unwrap();
        assert_eq!(stats.total_groups, stats.rebuilt_groups);
        assert_equivalent(&inc, &offers);
    }

    #[test]
    fn only_dirty_cells_are_rebuilt() {
        let params = AggregationParams::new(4, 4);
        let mut inc = IncrementalAggregator::new(params);
        // Two far-apart cells, two members each.
        for fo in [offer(1, 0, 4, 2, 1, 2), offer(2, 1, 4, 2, 1, 2)] {
            inc.insert(fo);
        }
        for fo in [offer(3, 400, 4, 2, 1, 2), offer(4, 401, 4, 2, 1, 2)] {
            inc.insert(fo);
        }
        inc.refresh().unwrap();
        let untouched_cell_agg = inc
            .aggregates()
            .find(|a| a.member_ids().collect::<Vec<_>>() == vec![FlexOfferId(3), FlexOfferId(4)]);
        let before_id = untouched_cell_agg.unwrap().offer().id();

        // A fifth offer lands in the first cell only.
        inc.insert(offer(5, 2, 4, 2, 1, 2));
        assert_eq!(inc.dirty_groups(), 1);
        let stats = inc.refresh().unwrap();
        assert_eq!(stats.rebuilt_groups, 1);
        assert_eq!(stats.total_groups, 2);
        // The clean cell kept its aggregate object (same synthetic id);
        // the dirty cell got a fresh one.
        let after: Vec<&AggregateOffer> = inc.aggregates().collect();
        assert!(after.iter().any(|a| a.offer().id() == before_id));
        assert!(after.iter().any(|a| a.member_count() == 3));
    }

    #[test]
    fn earlier_arrival_reanchors_offsets() {
        let params = AggregationParams::new(8, 8);
        let mut inc = IncrementalAggregator::new(params);
        inc.insert(offer(1, 12, 4, 2, 10, 20));
        inc.insert(offer(2, 13, 4, 2, 10, 20));
        inc.refresh().unwrap();
        {
            let agg = inc.aggregates().next().unwrap();
            assert_eq!(agg.offer().earliest_start(), TimeSlot::new(12));
            assert_eq!(agg.members()[0].offset, 0);
            assert_eq!(agg.members()[1].offset, 1);
        }
        // An arrival with an earlier EST in the same cell re-anchors
        // every offset against the new cell minimum.
        inc.insert(offer(3, 9, 4, 2, 10, 20));
        inc.refresh().unwrap();
        let agg = inc.aggregates().next().unwrap();
        assert_eq!(agg.offer().earliest_start(), TimeSlot::new(9));
        let offsets: Vec<i64> = agg.members().iter().map(|m| m.offset).collect();
        assert_eq!(offsets, vec![3, 4, 0]);
    }

    #[test]
    fn removal_empties_and_drops_cells() {
        let mut inc = IncrementalAggregator::new(AggregationParams::new(4, 4));
        let a = offer(1, 0, 4, 2, 1, 2);
        let b = offer(2, 1, 4, 2, 1, 2);
        inc.insert(Arc::clone(&a));
        inc.insert(Arc::clone(&b));
        inc.refresh().unwrap();
        assert_eq!(inc.output_count(), 1);

        assert!(inc.remove(b.id()));
        assert!(!inc.remove(b.id()));
        inc.refresh().unwrap();
        // The cell degrades to a singleton.
        assert_eq!(inc.aggregates().count(), 0);
        assert_eq!(inc.untouched().map(|o| o.id()).collect::<Vec<_>>(), vec![a.id()]);

        assert!(inc.remove(a.id()));
        let stats = inc.refresh().unwrap();
        assert_eq!(stats.total_groups, 0);
        assert!(inc.is_empty());
        assert_eq!(inc.output_count(), 0);
    }

    #[test]
    fn max_group_size_chunks_like_the_full_run() {
        let params = AggregationParams::new(4, 4).with_max_group_size(2);
        let mut inc = IncrementalAggregator::new(params);
        let offers: Vec<Arc<FlexOffer>> = (0..5).map(|i| offer(i + 1, 0, 4, 2, 1, 2)).collect();
        for fo in &offers {
            inc.insert(Arc::clone(fo));
        }
        inc.refresh().unwrap();
        assert_equivalent(&inc, &offers);
        assert_eq!(inc.aggregates().count(), 2);
        assert_eq!(inc.untouched().count(), 1);
    }

    /// Seeded random ingest/withdraw storm: after every refresh the
    /// maintained state must equal the from-scratch run.
    #[test]
    fn random_storms_stay_equivalent_to_full_runs() {
        let mut rng = StdRng::seed_from_u64(0x1AC5);
        for round in 0..8 {
            let params = AggregationParams::new(rng.gen_range(1i64..8), rng.gen_range(1i64..6))
                .with_max_group_size(rng.gen_range(0usize..5));
            let mut inc = IncrementalAggregator::new(params);
            let mut live: Vec<Arc<FlexOffer>> = Vec::new();
            let mut next_id = 1u64;
            for _step in 0..30 {
                let arrivals = rng.gen_range(0usize..6);
                for _ in 0..arrivals {
                    let fo = offer(
                        next_id,
                        rng.gen_range(0i64..48),
                        rng.gen_range(0i64..12),
                        rng.gen_range(1usize..5),
                        rng.gen_range(0i64..50),
                        rng.gen_range(50i64..200),
                    );
                    next_id += 1;
                    inc.insert(Arc::clone(&fo));
                    live.push(fo);
                }
                let withdrawals = rng.gen_range(0usize..3).min(live.len());
                for _ in 0..withdrawals {
                    let idx = rng.gen_range(0..live.len());
                    let victim = live.remove(idx);
                    assert!(inc.remove(victim.id()));
                }
                inc.refresh().unwrap();
                assert_equivalent(&inc, &live);
            }
            assert!(round < 8);
        }
    }

    /// The ISSUE's roundtrip property: across ingest/withdraw sequences,
    /// disaggregated schedules re-sum **exactly** to the patched
    /// aggregate's schedule, and every member schedule stays feasible —
    /// the invariant that makes live aggregates safe to hand to the
    /// scheduler mid-stream.
    #[test]
    fn disaggregation_roundtrip_across_ingest_withdraw_sequences() {
        let mut rng = StdRng::seed_from_u64(0xD15A);
        let params = AggregationParams::new(4, 4);
        let aggregator = Aggregator::new(params);
        let mut inc = IncrementalAggregator::new(params);
        let mut live: HashMap<FlexOfferId, Arc<FlexOffer>> = HashMap::new();
        let mut next_id = 1u64;

        for _step in 0..25 {
            for _ in 0..rng.gen_range(1usize..8) {
                let fo = offer(
                    next_id,
                    rng.gen_range(0i64..24),
                    rng.gen_range(0i64..10),
                    rng.gen_range(1usize..4),
                    rng.gen_range(0i64..40),
                    rng.gen_range(40i64..160),
                );
                next_id += 1;
                live.insert(fo.id(), Arc::clone(&fo));
                inc.insert(fo);
            }
            let victims: Vec<FlexOfferId> =
                live.keys().copied().filter(|_| rng.gen_range(0u32..10) == 0).collect();
            for id in victims {
                live.remove(&id);
                inc.remove(id);
            }
            inc.refresh().unwrap();

            for agg in inc.aggregates() {
                // A random feasible schedule: start anywhere in the
                // window, each slot anywhere within the summed bounds.
                let span = agg.offer().time_flexibility().count();
                let start =
                    agg.offer().earliest_start() + SlotSpan::slots(rng.gen_range(0i64..=span));
                let energies: Vec<Energy> = agg
                    .offer()
                    .profile()
                    .slices()
                    .iter()
                    .map(|s| Energy::from_wh(rng.gen_range(s.min.wh()..=s.max.wh())))
                    .collect();
                let schedule = Schedule::new(start, energies.clone());
                agg.offer().check_schedule(&schedule).expect("schedule within aggregate bounds");

                let parts = aggregator.disaggregate(agg, &schedule).unwrap();
                assert_eq!(parts.len(), agg.member_count());
                for (id, sched) in &parts {
                    let original = live.get(id).expect("member is live");
                    original.check_schedule(sched).expect("member schedule feasible");
                    assert_eq!(original.direction(), agg.offer().direction());
                }
                for (k, &e) in energies.iter().enumerate() {
                    let slot = start + SlotSpan::slots(k as i64);
                    let sum: Energy = parts.iter().map(|(_, s)| s.energy_at(slot)).sum();
                    assert_eq!(sum, e, "slot {k} must re-sum exactly");
                }
            }
        }
        assert!(!inc.is_empty());
    }

    /// The columnar ingest path: keys computed from raw attribute values
    /// (what a warehouse sweep reads off its columns) must land offers in
    /// exactly the cells the offer-object path chooses.
    #[test]
    fn columnar_keyed_insert_matches_plain_insert() {
        let params = AggregationParams::new(4, 3);
        let offers: Vec<Arc<FlexOffer>> =
            (0..30).map(|i| offer(i + 1, (i as i64 % 7) * 2, i as i64 % 5, 2, 10, 40)).collect();
        let mut plain = IncrementalAggregator::new(params);
        let mut keyed = IncrementalAggregator::new(params);
        for fo in &offers {
            assert!(plain.insert(Arc::clone(fo)));
            let key = GroupKey::from_parts(
                fo.direction() == Direction::Production,
                fo.earliest_start().index(),
                fo.time_flexibility().count(),
                &params,
            );
            assert!(keyed.insert_keyed(Arc::clone(fo), key));
        }
        plain.refresh().unwrap();
        keyed.refresh().unwrap();
        assert_eq!(plain.output_count(), keyed.output_count());
        let a: Vec<Vec<FlexOfferId>> =
            plain.aggregates().map(|x| x.member_ids().collect()).collect();
        let b: Vec<Vec<FlexOfferId>> =
            keyed.aggregates().map(|x| x.member_ids().collect()).collect();
        assert_eq!(a, b);
    }

    #[test]
    fn directions_never_mix_in_cells() {
        let mut inc = IncrementalAggregator::new(AggregationParams::new(1_000, 1_000));
        let cons = offer(1, 0, 4, 2, 1, 2);
        let prod = Arc::new(
            FlexOffer::builder(2u64, 2u64)
                .direction(Direction::Production)
                .earliest_start(TimeSlot::new(0))
                .latest_start(TimeSlot::new(4))
                .slices(2, Energy::from_wh(1), Energy::from_wh(2))
                .build()
                .unwrap(),
        );
        inc.insert(cons);
        inc.insert(prod);
        let stats = inc.refresh().unwrap();
        assert_eq!(stats.total_groups, 2);
        assert_eq!(stats.untouched, 2);
        assert_eq!(stats.aggregates, 0);
    }
}
