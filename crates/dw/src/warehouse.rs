//! The warehouse: hierarchies + fact table + loader queries.

use std::collections::HashMap;
use std::sync::{Arc, OnceLock};

use mirabel_flexoffer::{
    Direction, Energy, Execution, FlexOffer, FlexOfferId, OfferState, ProsumerId, Schedule,
};
use mirabel_geo::Geography;
use mirabel_timeseries::{SlotSpan, TimeSlot, SLOTS_PER_DAY};
use mirabel_workload::{Population, Prosumer};

use crate::columns::{
    group_by_key, locate, ColumnStore, FactBitmap, FactColumn, LeafKeys, Segment, SEGMENT_FACTS,
};
use crate::fact::FactRow;
use crate::hierarchy::{Dimension, Hierarchy, MemberId};
use crate::spatial::SpatialIndex;
use crate::time_index::TimeIndex;
use crate::view::OfferView;

/// The in-memory MIRABEL data warehouse.
///
/// Loading keys the offers into the columnar fact store
/// ([`ColumnStore`], struct-of-arrays in copy-on-write segments — one
/// contiguous column per measure and per dimension leaf key), which also
/// keeps the original offers for the detail views and the Figure 7
/// loader. A loaded warehouse is not frozen: [`Warehouse::ingest`]
/// appends newly arrived offers (extending the time hierarchy in place)
/// and [`Warehouse::withdraw`] compacts retracted ones away — the
/// incremental deltas behind [`LiveWarehouse`](crate::LiveWarehouse).
///
/// Cloning the warehouse (the live warehouse's epoch publish) copies the
/// hierarchies and the vector of segment handles; a write then copies
/// only the segments it writes (see `columns.rs`). Nothing keyed by fact
/// position is maintained per write:
///
/// * the loaders' indices — per prosumer, per region (see
///   `spatial.rs`), per id and over time (see `time_index.rs`) — belong
///   to one version: the first read that needs one builds it, clones of
///   the version share it, and `ingest` and `withdraw` drop them all.
///   The writer never builds one;
/// * the writer keeps its own id → position map, updated for the facts a
///   batch moves, and the prosumer → district membership cache. A clone
///   does not share them: it rebuilds them from its columns on its first
///   write.
#[derive(Debug, Clone)]
pub struct Warehouse {
    time: Hierarchy,
    geography: Hierarchy,
    grid: Hierarchy,
    energy: Hierarchy,
    prosumer: Hierarchy,
    appliance: Hierarchy,
    first_day: TimeSlot,
    day_leaves: Vec<MemberId>,
    /// District id → geography leaf member, kept for incremental keying.
    district_leaves: Vec<MemberId>,
    /// Leaf for locations outside every region polygon.
    unassigned_leaf: MemberId,
    /// The geometric geography model (polygons, city sites), kept for
    /// point-in-region membership resolution and the heatmap view.
    geo_model: Geography,
    /// Grid node id → grid member, kept for incremental keying.
    node_members: Vec<MemberId>,
    columns: ColumnStore,
    derived: Derived,
    writer: WriterIndex,
}

/// The indices derived from one warehouse version's facts, each built by
/// the first read that needs it. Clones share what is built; `ingest`
/// and `withdraw` drop them all. Statuses and measures are not indexed,
/// so schedule assignment and metering keep them.
#[derive(Debug, Clone, Default)]
struct Derived {
    /// Facts by earliest-start slot and extent-length class.
    time: OnceLock<Arc<TimeIndex>>,
    /// Facts per prosumer.
    prosumers: OnceLock<Arc<ProsumerIndex>>,
    /// Facts per geography leaf.
    regions: OnceLock<Arc<SpatialIndex>>,
    /// Fact id → position.
    ids: OnceLock<Arc<HashMap<FlexOfferId, u32>>>,
}

/// One version's facts grouped by prosumer: ascending positions per
/// prosumer in one CSR table. This makes entity-restricted loader queries
/// O(k in the entity's offers) instead of a scan of the whole population.
#[derive(Debug)]
struct ProsumerIndex {
    /// Prosumer → its group.
    group: HashMap<ProsumerId, u32>,
    /// Group `g` holds `facts[bounds[g]..bounds[g + 1]]`.
    bounds: Vec<u32>,
    facts: Vec<u32>,
}

impl ProsumerIndex {
    fn build(columns: &ColumnStore) -> ProsumerIndex {
        let mut group = HashMap::new();
        let mut keys = Vec::with_capacity(columns.len());
        for seg in columns.segments() {
            for &p in seg.prosumers() {
                let next = group.len() as u32;
                keys.push(*group.entry(p).or_insert(next));
            }
        }
        let (bounds, facts) = group_by_key(&keys, group.len());
        ProsumerIndex { group, bounds, facts }
    }

    /// Positions of `prosumer`'s facts, ascending (empty when unknown).
    fn facts(&self, prosumer: ProsumerId) -> &[u32] {
        self.group.get(&prosumer).map_or(&[], |&g| {
            &self.facts[self.bounds[g as usize] as usize..self.bounds[g as usize + 1] as usize]
        })
    }
}

/// What the writer reads itself: the fact id → position map and the
/// prosumer → district membership cache. It is never shared with a
/// clone (a published epoch answers [`Warehouse::offer`] from its own
/// derived index), so a clone starts without it and rebuilds it from its
/// columns on its first write.
#[derive(Debug, Default)]
struct WriterIndex {
    /// Fact id → position; `None` until this copy's first write needs it
    /// (a bulk load has no use for it).
    ids: Option<HashMap<FlexOfferId, u32>>,
    /// Prosumer → resolved district leaf.
    membership: HashMap<ProsumerId, MemberId>,
}

impl Clone for WriterIndex {
    fn clone(&self) -> WriterIndex {
        WriterIndex::default()
    }
}

/// A fact position as the indices store it.
fn position(idx: usize) -> u32 {
    u32::try_from(idx).expect("a warehouse holds fewer than 2^32 facts")
}

/// Fact id → position over `columns`, walked in fact order, so a
/// repeated id (a bulk load does not deduplicate) resolves to its last
/// fact.
fn id_positions(columns: &ColumnStore) -> HashMap<FlexOfferId, u32> {
    let mut ids = HashMap::with_capacity(columns.len());
    for (s, seg) in columns.segments().iter().enumerate() {
        for (k, &id) in seg.offer_ids().iter().enumerate() {
            ids.insert(id, position(s * SEGMENT_FACTS + k));
        }
    }
    ids
}

/// What one [`Warehouse::ingest`] batch did — every skipped offer is
/// accounted for, so a live feed can see (and alert on) malformed input
/// instead of silently losing it.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct IngestOutcome {
    /// Offers appended to the fact table.
    pub ingested: usize,
    /// Day leaves appended to the time hierarchy to cover the batch.
    pub days_added: usize,
    /// Skipped: prosumer unknown to the population (cannot be keyed to
    /// the spatial dimensions — same rule as [`Warehouse::load`]).
    pub skipped_unknown_prosumer: usize,
    /// Skipped: an offer with this id is already loaded.
    pub skipped_duplicate: usize,
    /// Skipped: the offer starts before the warehouse's first day (a
    /// live warehouse only moves forward in time).
    pub skipped_before_window: usize,
}

/// What one [`Warehouse::assign_schedules`] batch did — like
/// [`IngestOutcome`], every skipped assignment is accounted for.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ScheduleOutcome {
    /// Offers now carrying the proposed schedule (state `Scheduled`).
    pub scheduled: usize,
    /// Skipped: no offer with that id is loaded.
    pub skipped_unknown: usize,
    /// Skipped: the offer is rejected, withdrawn or already executed.
    pub skipped_state: usize,
    /// Skipped: the schedule violates the offer's flexibility bounds.
    pub skipped_infeasible: usize,
}

impl Warehouse {
    /// Loads offers issued by `population` into a fresh warehouse.
    ///
    /// Offers whose prosumer is unknown to the population are skipped
    /// (they cannot be keyed to the spatial dimensions).
    pub fn load(population: &Population, offers: &[FlexOffer]) -> Warehouse {
        let (from, to) = offer_window(offers);
        let (time, first_day, day_leaves) = Hierarchy::time(from, to);
        let (geography, district_leaves, unassigned_leaf) =
            Hierarchy::geography(population.geography());
        let (grid, node_members) = Hierarchy::grid(population.grid());
        let energy = Hierarchy::energy_type();
        let prosumer = Hierarchy::prosumer_type();
        let appliance = Hierarchy::appliance();

        let mut dw = Warehouse {
            time,
            geography,
            grid,
            energy,
            prosumer,
            appliance,
            first_day,
            day_leaves,
            district_leaves,
            unassigned_leaf,
            geo_model: population.geography().clone(),
            node_members,
            columns: ColumnStore::with_capacity(offers.len()),
            derived: Derived::default(),
            writer: WriterIndex::default(),
        };
        for fo in offers {
            if let Some(p) = population.prosumer(fo.prosumer()) {
                dw.append_offer(p, fo);
            }
        }
        dw
    }

    /// Appends one offer (already inside the time window, issued by `p`)
    /// to the fact columns and, once built, the writer's id map.
    ///
    /// Spatial membership comes from point-in-region over the prosumer's
    /// meter location, resolved once per prosumer and cached by the
    /// writer; unresolvable locations key to the `Unassigned` district
    /// leaf.
    fn append_offer(&mut self, p: &Prosumer, fo: &FlexOffer) {
        let day_idx = (fo.earliest_start().index().div_euclid(SLOTS_PER_DAY) * SLOTS_PER_DAY
            - self.first_day.index())
            / SLOTS_PER_DAY;
        let time_leaf = self.day_leaves[day_idx as usize];
        let (geo, districts, unassigned) =
            (&self.geo_model, &self.district_leaves, self.unassigned_leaf);
        let geo_leaf = *self.writer.membership.entry(p.id).or_insert_with(|| {
            geo.resolve_district(p.location)
                .and_then(|r| districts.get(r.district.0 as usize).copied())
                .unwrap_or(unassigned)
        });
        let keys: LeafKeys = [
            time_leaf,
            geo_leaf,
            self.node_members[p.feeder.0 as usize],
            Hierarchy::energy_leaf(fo.energy_type()),
            Hierarchy::prosumer_leaf(fo.prosumer_type()),
            Hierarchy::appliance_leaf(fo.appliance_type()),
        ];
        if let Some(ids) = &mut self.writer.ids {
            ids.insert(fo.id(), position(self.columns.len()));
        }
        self.columns.push(fo, keys);
    }

    /// The writer's id → position map, built from the columns (with the
    /// membership cache) on this copy's first write that needs it.
    fn writer_ids(&mut self) -> &mut HashMap<FlexOfferId, u32> {
        let WriterIndex { ids, membership } = &mut self.writer;
        ids.get_or_insert_with(|| {
            let dict = self.columns.dict(Dimension::Geography).dict();
            for seg in self.columns.segments() {
                for (&p, &code) in seg.prosumers().iter().zip(seg.codes(Dimension::Geography)) {
                    membership.entry(p).or_insert(dict[code as usize]);
                }
            }
            id_positions(&self.columns)
        })
    }

    /// First slot *after* the covered day window.
    pub fn window_end(&self) -> TimeSlot {
        self.first_day + SlotSpan::days(self.day_leaves.len() as i64)
    }

    /// Extends the time hierarchy in place so the window covers `to`
    /// (exclusive). Existing member ids are never renumbered — cached
    /// filters, pivots and fact keys all stay valid. Returns the number
    /// of day leaves appended.
    pub fn extend_to(&mut self, to: TimeSlot) -> usize {
        let end = self.window_end();
        if to <= end {
            return 0;
        }
        let added = self.time.extend_time(end, to);
        let n = added.len();
        self.day_leaves.extend(added);
        n
    }

    /// Appends one more day to the covered window (the live warehouse's
    /// midnight tick). Returns the new last day's leaf member.
    pub fn advance_day(&mut self) -> MemberId {
        self.extend_to(self.window_end() + SlotSpan::days(1));
        *self.day_leaves.last().expect("window is never empty")
    }

    /// Ingests a batch of newly arrived offers **incrementally**: fact
    /// rows are appended to the tail segment (copying it once if a
    /// published epoch shares it), the writer's id map is extended, and
    /// the time hierarchy grows in place when a batch reaches into new
    /// days — no existing row, member id or segment before the tail is
    /// touched. Skipped offers are itemised in the returned
    /// [`IngestOutcome`]. An append drops the version's derived indices;
    /// the next read that needs one rebuilds it.
    pub fn ingest(&mut self, population: &Population, offers: &[FlexOffer]) -> IngestOutcome {
        let mut out = IngestOutcome::default();
        for fo in offers {
            if self.writer_ids().contains_key(&fo.id()) {
                out.skipped_duplicate += 1;
                continue;
            }
            let day = TimeSlot::new(
                fo.earliest_start().index().div_euclid(SLOTS_PER_DAY) * SLOTS_PER_DAY,
            );
            if day < self.first_day {
                out.skipped_before_window += 1;
                continue;
            }
            let Some(p) = population.prosumer(fo.prosumer()) else {
                out.skipped_unknown_prosumer += 1;
                continue;
            };
            out.days_added += self.extend_to(day + SlotSpan::days(1));
            self.append_offer(p, fo);
            out.ingested += 1;
        }
        if out.ingested > 0 {
            self.derived = Derived::default();
        }
        out
    }

    /// Withdraws offers by id (the SAREF4ENER *withdrawn* transition),
    /// compacting them away at once and preserving fact order for the
    /// survivors. Unknown and repeated ids are ignored. Returns the
    /// number of offers removed.
    ///
    /// The segments before the first withdrawn fact stay shared with any
    /// published epoch; the survivors from there on move down into fresh
    /// segments ([`ColumnStore`]'s compaction), and the writer re-points
    /// the id map entries of exactly those facts. The derived indices are
    /// dropped, not patched; the next read that needs one rebuilds it.
    pub fn withdraw(&mut self, ids: &[FlexOfferId]) -> usize {
        let index = self.writer_ids();
        let mut dead: Vec<usize> =
            ids.iter().filter_map(|id| index.remove(id)).map(|p| p as usize).collect();
        dead.sort_unstable();
        let Some(&first) = dead.first() else { return 0 };
        self.derived = Derived::default();
        self.columns.compact(&dead);
        let moved = self.columns.offer_ids();
        let index = self.writer.ids.as_mut().expect("built above");
        for idx in first..moved.len() {
            index.insert(moved[idx], position(idx));
        }
        dead.len()
    }

    /// Applies enterprise schedule assignments to loaded offers **in
    /// place**: a still-`Offered` offer is accepted first (assignment
    /// implies acceptance), the schedule is feasibility-checked by the
    /// offer itself, and only the lifecycle measure columns of its
    /// segment are rewritten — no hierarchy work, no re-keying, no index
    /// rebuild. Unknown ids, terminal-state offers and infeasible
    /// schedules are itemised in the returned [`ScheduleOutcome`]; a
    /// skipped assignment changes nothing, not even the sharing of the
    /// fact's segment, because it is checked on the shared offer first.
    pub fn assign_schedules(&mut self, assignments: &[(FlexOfferId, Schedule)]) -> ScheduleOutcome {
        let mut out = ScheduleOutcome::default();
        for (id, schedule) in assignments {
            let Some(&idx) = self.writer_ids().get(id) else {
                out.skipped_unknown += 1;
                continue;
            };
            let fo = self.columns.offer(idx as usize);
            if !matches!(
                fo.status(),
                OfferState::Offered | OfferState::Accepted | OfferState::Scheduled
            ) {
                out.skipped_state += 1;
                continue;
            }
            if fo.check_schedule(schedule).is_err() {
                out.skipped_infeasible += 1;
                continue;
            }
            self.columns.update(idx as usize, |fo| {
                if fo.status() == OfferState::Offered {
                    fo.accept().expect("offered offers accept");
                }
                fo.assign(schedule.clone()).expect("a checked schedule assigns");
                true
            });
            out.scheduled += 1;
        }
        out
    }

    /// Executes every scheduled offer whose schedule has fully elapsed
    /// by `now` (schedule end ≤ `now`, half-open): the offer transitions
    /// to `Executed` with metered actuals and its fact's
    /// `executed_wh` / `deviation_wh` measure columns refresh in place. Returns
    /// the number of offers executed.
    ///
    /// The actuals are synthesised deterministically from the offer's
    /// identity and standing schedule (SplitMix64 keyed on offer id and
    /// slice index, ±10 % deviation clamped back into the slice bounds)
    /// — a wire replay and an in-process replay of the same trace meter
    /// bit-identically. When nothing is due this is a no-op: no
    /// copy-on-write unsharing, published epochs keep their shared
    /// segments.
    pub fn execute_due(&mut self, now: TimeSlot) -> usize {
        let due: Vec<usize> = self
            .columns
            .offers()
            .iter()
            .enumerate()
            .filter(|(_, fo)| {
                fo.status() == OfferState::Scheduled
                    && fo.schedule().is_some_and(|s| s.end() <= now)
            })
            .map(|(i, _)| i)
            .collect();
        for &idx in &due {
            let execution = synth_execution(self.columns.offer(idx));
            self.columns.update(idx, |fo| {
                fo.record_execution(execution).expect("synthesised executions cover the schedule");
                true
            });
        }
        due.len()
    }

    /// The hierarchy of `dimension`.
    pub fn hierarchy(&self, dimension: Dimension) -> &Hierarchy {
        match dimension {
            Dimension::Time => &self.time,
            Dimension::Geography => &self.geography,
            Dimension::Grid => &self.grid,
            Dimension::EnergyType => &self.energy,
            Dimension::ProsumerType => &self.prosumer,
            Dimension::Appliance => &self.appliance,
        }
    }

    /// The columnar fact store: every measure and every dimension leaf
    /// key as columns of copy-on-write segments, in fact order (see
    /// [`ColumnStore`]). Row-shaped consumers materialize individual
    /// [`FactRow`]s via [`ColumnStore::row`] / [`ColumnStore::rows`].
    pub fn columns(&self) -> &ColumnStore {
        &self.columns
    }

    /// All loaded offers (fact order). Offers are stored behind [`Arc`]
    /// so loaders can hand them to view tabs without cloning the payload
    /// (see [`crate::OfferView::materialize`]).
    pub fn offers(&self) -> FactColumn<'_, Arc<FlexOffer>> {
        self.columns.offers()
    }

    /// Looks up an offer by id, from the version's id index.
    pub fn offer(&self, id: FlexOfferId) -> Option<&FlexOffer> {
        self.id_index().get(&id).map(|&i| self.columns.offer(i as usize).as_ref())
    }

    /// First day slot of the time hierarchy.
    pub fn first_day(&self) -> TimeSlot {
        self.first_day
    }

    /// Leaf member of the day containing `slot`, if inside the window.
    pub fn day_leaf(&self, slot: TimeSlot) -> Option<MemberId> {
        let day = slot.index().div_euclid(SLOTS_PER_DAY) * SLOTS_PER_DAY;
        let idx = (day - self.first_day.index()) / SLOTS_PER_DAY;
        if idx < 0 {
            return None;
        }
        self.day_leaves.get(idx as usize).copied()
    }

    /// The leaf member key of `row` in `dimension`.
    pub fn fact_leaf(&self, row: &FactRow, dimension: Dimension) -> MemberId {
        match dimension {
            Dimension::Time => row.time_leaf,
            Dimension::Geography => row.geo_leaf,
            Dimension::Grid => row.grid_leaf,
            Dimension::EnergyType => row.energy_leaf,
            Dimension::ProsumerType => row.prosumer_leaf,
            Dimension::Appliance => row.appliance_leaf,
        }
    }

    /// The geometric geography model the warehouse was loaded on
    /// (polygons and city sites — what the heatmap view projects).
    pub fn geography_model(&self) -> &Geography {
        &self.geo_model
    }

    /// The district leaf for facts whose location resolves to no region.
    pub fn unassigned_leaf(&self) -> MemberId {
        self.unassigned_leaf
    }

    /// The version's per-region fact index, built by the first read that
    /// needs it (read access for diagnostics, the heatmap and the spatial
    /// bench harness).
    pub fn spatial_index(&self) -> &SpatialIndex {
        self.derived.regions.get_or_init(|| Arc::new(SpatialIndex::build(&self.columns)))
    }

    /// This version's time index, built by the first read that needs it.
    fn time_index(&self) -> &TimeIndex {
        self.derived.time.get_or_init(|| Arc::new(TimeIndex::build(&self.columns)))
    }

    /// This version's per-prosumer index, built by the first read that
    /// needs it.
    fn prosumer_index(&self) -> &ProsumerIndex {
        self.derived.prosumers.get_or_init(|| Arc::new(ProsumerIndex::build(&self.columns)))
    }

    /// This version's id → position index, built by the first read that
    /// needs it.
    fn id_index(&self) -> &HashMap<FlexOfferId, u32> {
        self.derived.ids.get_or_init(|| Arc::new(id_positions(&self.columns)))
    }

    /// The geography leaf the fact of offer `id` is keyed to — how the
    /// session folds a standing plan into per-region heatmap cells.
    pub fn geo_leaf_of(&self, id: FlexOfferId) -> Option<MemberId> {
        self.id_index().get(&id).map(|&i| self.columns.leaf(i as usize, Dimension::Geography))
    }

    /// `true` when fact `idx` lies in the subtree of `member` in the
    /// geography hierarchy — the per-fact hierarchy walk kept for the
    /// scan oracle ([`Warehouse::load_offers_scan`]); the indexed
    /// loaders resolve the region once via [`Warehouse::geo_code_mask`]
    /// instead.
    fn in_region(&self, idx: usize, member: MemberId) -> bool {
        self.geography.is_descendant(self.columns.leaf(idx, Dimension::Geography), member)
    }

    /// Resolves a region filter to a mask over the geography
    /// dictionary's codes: one `is_descendant` walk per *distinct* leaf
    /// instead of one per fact.
    fn geo_code_mask(&self, member: MemberId) -> Vec<bool> {
        self.columns
            .dict(Dimension::Geography)
            .mask(|leaf| self.geography.is_descendant(leaf, member))
    }

    /// The warehouse's own shared handle for fact `idx` (for the view
    /// layer's borrow/materialize split).
    pub(crate) fn shared_offer(&self, idx: usize) -> &Arc<FlexOffer> {
        self.columns.offer(idx)
    }

    /// The segment of fact `idx` and the fact's offset in it.
    fn fact(&self, idx: usize) -> (&Segment, usize) {
        let (s, k) = locate(idx);
        (&self.columns.segments()[s], k)
    }

    /// The [`LoaderQuery::matches`] predicate evaluated off the fact
    /// columns instead of the offer heap: the entity and direction
    /// filters read their own columns, and the extent test reconstructs
    /// `[earliest_start, latest_end)` from the earliest-start,
    /// time-flexibility and profile-length columns (an offer's latest
    /// end is its earliest start plus its start flexibility plus its
    /// profile duration). Semantically identical to chasing the
    /// `Arc<FlexOffer>` — the row-oriented scan oracle and the S5/S7
    /// equality gates hold the two in lockstep — but touches only
    /// contiguous arrays, which is what keeps selection cache-friendly
    /// at the million-fact scale.
    fn loader_matches_at(&self, i: usize, query: &LoaderQuery) -> bool {
        let (seg, k) = self.fact(i);
        if query.prosumer.is_some_and(|p| seg.prosumers()[k] != p) {
            return false;
        }
        if query.direction.is_some_and(|d| seg.directions()[k] != d) {
            return false;
        }
        loader_extent_at(seg, k, query)
    }

    /// Fact indices satisfying every part of `query`, ascending. Picks
    /// the cheapest index: the per-prosumer postings for entity queries,
    /// the per-region postings for spatial queries, the time index for
    /// window-only queries. A region restriction resolves to a
    /// dictionary code mask once ([`Warehouse::geo_code_mask`]); the time
    /// index takes the buckets starting inside the window whole and
    /// extent-tests only its lookback buckets.
    fn selected_indices(&self, query: &LoaderQuery) -> Vec<usize> {
        match (query.prosumer, query.region) {
            (Some(p), region) => {
                let geo_mask = region.map(|m| self.geo_code_mask(m));
                self.prosumer_index()
                    .facts(p)
                    .iter()
                    .map(|&i| i as usize)
                    .filter(|&i| {
                        geo_mask.as_ref().is_none_or(|mask| {
                            let (seg, k) = self.fact(i);
                            mask[seg.codes(Dimension::Geography)[k] as usize]
                        })
                    })
                    .filter(|&i| self.loader_matches_at(i, query))
                    .collect()
            }
            (None, Some(m)) => {
                let mut indices = self.spatial_index().indices_under(&self.geography, m);
                indices.retain(|&i| self.loader_matches_at(i, query));
                indices
            }
            (None, None) => {
                let directions = query.direction.map(|d| (d, self.columns.directions()));
                let wanted =
                    |i: usize| directions.as_ref().is_none_or(|(d, column)| column[i] == *d);
                let mut hits = FactBitmap::new(self.columns.len());
                for (lookback, inside) in self.time_index().window(query.from, query.to) {
                    let reaching = lookback.iter().filter(|&&i| {
                        let (seg, k) = self.fact(i as usize);
                        loader_extent_at(seg, k, query)
                    });
                    for &i in reaching.chain(inside).filter(|&&i| wanted(i as usize)) {
                        hits.insert(i as usize);
                    }
                }
                hits.into_ascending()
            }
        }
    }

    /// The Figure 7 loader: flex-offers of one legal entity (or all) in
    /// one spatial subtree (or anywhere) whose flexibility window
    /// intersects the absolute interval `[from, to)`. A window with
    /// `from ≥ to` selects nothing.
    ///
    /// Entity-restricted queries walk the per-prosumer index — O(k in
    /// that entity's offers); region-restricted queries merge the
    /// per-region posting lists — O(offers-in-subtree); window-only
    /// queries read the time index — O(selected) plus a short lookback.
    /// Each index is built once per warehouse version, by its first
    /// read. None scans the whole population, and results are in fact
    /// order either way.
    pub fn load_offers(&self, query: &LoaderQuery) -> Vec<&FlexOffer> {
        self.selected_indices(query).into_iter().map(|i| self.columns.offer(i).as_ref()).collect()
    }

    /// The redesigned loader: the same selection as
    /// [`Warehouse::load_offers`], from the same indices, answered as a
    /// borrowed [`OfferView`] over the fact columns — no per-offer
    /// refcounting, no allocation beyond the index list. Equal to
    /// [`Warehouse::load_offers_scan`] id for id. Callers that need owned
    /// handles call [`OfferView::materialize`] explicitly.
    pub fn view(&self, query: &LoaderQuery) -> OfferView<'_> {
        OfferView::new(self, self.selected_indices(query))
    }

    /// Calls `visit(start, idx)` for every fact whose earliest start lies
    /// in `[from, to)`, in no particular order, from the version's time
    /// index: O(facts visited), not a scan of every fact. Nothing is
    /// visited when `from ≥ to`. The Figure 6 dashboard counts its
    /// buckets with this.
    pub fn for_each_start_in(
        &self,
        from: TimeSlot,
        to: TimeSlot,
        visit: impl FnMut(TimeSlot, usize),
    ) {
        self.time_index().for_each_start(from, to, visit);
    }

    /// Reference implementation of [`Warehouse::load_offers`] that
    /// ignores every secondary index: a linear scan over all facts
    /// applying the entity, region and interval filters directly. The
    /// equality-regression tests and the spatial bench harness compare
    /// the indexed loaders against this.
    pub fn load_offers_scan(&self, query: &LoaderQuery) -> Vec<&FlexOffer> {
        self.columns
            .offers()
            .iter()
            .enumerate()
            .filter(|&(i, _)| query.region.is_none_or(|m| self.in_region(i, m)))
            .filter(|(_, fo)| query.matches(fo))
            .map(|(_, fo)| fo.as_ref())
            .collect()
    }
}

/// The interval half of [`Warehouse`]'s column-side loader predicate:
/// the extent test alone, which the time index's lookback candidates take
/// too. Like [`LoaderQuery::matches`], an empty or inverted window matches
/// nothing.
fn loader_extent_at(seg: &Segment, k: usize, query: &LoaderQuery) -> bool {
    let lo = seg.earliest_starts()[k];
    let hi = lo + SlotSpan::slots(seg.extent_len(k));
    query.from < query.to && lo < query.to && query.from < hi
}

/// The loader tab's selection (Figure 7): a legal entity (optional), a
/// spatial subtree (optional, any member of the geography hierarchy), a
/// direction (optional) and an absolute time interval.
///
/// Construct one with [`LoaderQuery::builder`] (or the pre-filtered
/// entry points [`LoaderQuery::for_region`] /
/// [`LoaderQuery::for_prosumer`]):
///
/// ```
/// use mirabel_dw::LoaderQuery;
/// use mirabel_flexoffer::Direction;
/// use mirabel_timeseries::TimeSlot;
///
/// let everything = LoaderQuery::builder().build();
/// let one_day = LoaderQuery::builder()
///     .window(TimeSlot::new(0), TimeSlot::new(96))
///     .direction(Direction::Production)
///     .build();
/// assert!(everything.from < one_day.from);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LoaderQuery {
    /// Restrict to one prosumer; `None` loads everyone.
    pub prosumer: Option<ProsumerId>,
    /// Restrict to facts under this geography member (region, city or
    /// district); `None` loads everywhere. Spatial membership lives on
    /// the fact row, so this filter is applied by the warehouse loaders,
    /// not by [`LoaderQuery::matches`].
    pub region: Option<MemberId>,
    /// Restrict to consumption or production offers; `None` loads both.
    pub direction: Option<Direction>,
    /// Interval start (inclusive).
    pub from: TimeSlot,
    /// Interval end (exclusive).
    pub to: TimeSlot,
}

impl LoaderQuery {
    /// Starts a builder over the **full** time axis with no filters:
    /// `LoaderQuery::builder().build()` loads everything.
    pub fn builder() -> LoaderQueryBuilder {
        LoaderQueryBuilder {
            query: LoaderQuery {
                prosumer: None,
                region: None,
                direction: None,
                from: TimeSlot::new(i64::MIN / 4),
                to: TimeSlot::new(i64::MAX / 4),
            },
        }
    }

    /// Builder pre-filtered to facts under one geography member — the
    /// O(offers-in-subtree) spatial query (answered from the per-region
    /// fact index, see [`crate::spatial`]).
    pub fn for_region(member: MemberId) -> LoaderQueryBuilder {
        LoaderQuery::builder().region(member)
    }

    /// Builder pre-filtered to one legal entity.
    pub fn for_prosumer(prosumer: ProsumerId) -> LoaderQueryBuilder {
        LoaderQuery::builder().prosumer(prosumer)
    }

    /// `true` when `offer` satisfies the entity and direction filters and
    /// intersects the half-open interval, which must not be empty or
    /// inverted. The spatial filter is *not* checked here (an offer alone
    /// does not know its region) — the warehouse loaders apply it against
    /// the fact table.
    pub fn matches(&self, offer: &FlexOffer) -> bool {
        if let Some(p) = self.prosumer {
            if offer.prosumer() != p {
                return false;
            }
        }
        if let Some(d) = self.direction {
            if offer.direction() != d {
                return false;
            }
        }
        let (lo, hi) = offer.extent();
        self.from < self.to && lo < self.to && self.from < hi
    }
}

/// Builder for [`LoaderQuery`]; obtained from [`LoaderQuery::builder`],
/// [`LoaderQuery::for_region`] or [`LoaderQuery::for_prosumer`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LoaderQueryBuilder {
    query: LoaderQuery,
}

impl LoaderQueryBuilder {
    /// Restricts the query to offers intersecting `[from, to)` (default:
    /// the full time axis). A window with `from ≥ to` matches nothing.
    pub fn window(mut self, from: TimeSlot, to: TimeSlot) -> Self {
        self.query.from = from;
        self.query.to = to;
        self
    }

    /// Restricts the query to one legal entity.
    pub fn prosumer(mut self, prosumer: ProsumerId) -> Self {
        self.query.prosumer = Some(prosumer);
        self
    }

    /// Restricts the query to facts under one geography member.
    pub fn region(mut self, member: MemberId) -> Self {
        self.query.region = Some(member);
        self
    }

    /// Restricts the query to one direction.
    pub fn direction(mut self, direction: Direction) -> Self {
        self.query.direction = Some(direction);
        self
    }

    /// Finishes the builder. Infallible: every combination of filters is
    /// a valid query (an inverted window simply matches nothing).
    pub fn build(self) -> LoaderQuery {
        self.query
    }
}

/// Deterministic metered actuals for one scheduled offer: per slice, the
/// scheduled amount nudged by a ±10 % pseudo-random deviation keyed on
/// (offer id, slice index), clamped back into the slice's energy bounds.
/// Depends only on the offer's identity and standing schedule — never on
/// wall-clock, ingestion order or thread timing — so every replay of the
/// same trace meters the same actuals.
fn synth_execution(fo: &FlexOffer) -> Execution {
    let schedule = fo.schedule().expect("due offers carry a schedule");
    let energies = schedule
        .energies()
        .iter()
        .zip(fo.profile().slices())
        .enumerate()
        .map(|(i, (&energy, &slice))| {
            let h = splitmix64(fo.id().raw() ^ (i as u64).wrapping_mul(0xA076_1D64_78BD_642F));
            let dev = (h >> 11) as f64 / (1u64 << 53) as f64 * 0.2 - 0.1;
            let wh = (energy.wh() as f64 * (1.0 + dev)).round() as i64;
            Energy::from_wh(wh.clamp(slice.min.wh(), slice.max.wh()))
        })
        .collect();
    Execution::new(energies)
}

/// SplitMix64 finalizer (same mixer as the workload generators).
fn splitmix64(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The half-open day-aligned slot window covering all offers (falls back
/// to a single day at the epoch for an empty set).
fn offer_window(offers: &[FlexOffer]) -> (TimeSlot, TimeSlot) {
    let lo = offers.iter().map(|fo| fo.earliest_start()).min();
    let hi = offers.iter().map(|fo| fo.latest_end()).max();
    match (lo, hi) {
        (Some(lo), Some(hi)) => (lo, hi + SlotSpan::slots(1)),
        _ => (TimeSlot::EPOCH, TimeSlot::EPOCH + SlotSpan::days(1)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mirabel_workload::{generate_offers, OfferConfig, PopulationConfig};

    fn setup() -> (Population, Vec<FlexOffer>) {
        let pop =
            Population::generate(&PopulationConfig { size: 150, seed: 5, household_share: 0.8 });
        let offers = generate_offers(&pop, &OfferConfig { days: 2, ..Default::default() });
        (pop, offers)
    }

    #[test]
    fn load_keys_every_offer() {
        let (pop, offers) = setup();
        let dw = Warehouse::load(&pop, &offers);
        assert_eq!(dw.columns().len(), offers.len());
        assert_eq!(dw.offers().len(), offers.len());
        for (row, fo) in dw.columns().rows().zip(dw.offers()) {
            assert_eq!(row.offer, fo.id());
            // Leaf members exist in their hierarchies at leaf level.
            let geo = dw.hierarchy(Dimension::Geography);
            assert_eq!(geo.member(row.geo_leaf).unwrap().level, 3);
            let grid = dw.hierarchy(Dimension::Grid);
            assert_eq!(grid.member(row.grid_leaf).unwrap().level, 3);
            let time = dw.hierarchy(Dimension::Time);
            assert_eq!(time.member(row.time_leaf).unwrap().level, 3);
        }
    }

    #[test]
    fn time_keys_match_days() {
        let (pop, offers) = setup();
        let dw = Warehouse::load(&pop, &offers);
        let time = dw.hierarchy(Dimension::Time);
        for (row, fo) in dw.columns().rows().zip(dw.offers()) {
            let day_name = fo.earliest_start().civil().date.to_string();
            assert_eq!(time.member(row.time_leaf).unwrap().name, day_name);
            assert_eq!(dw.day_leaf(fo.earliest_start()), Some(row.time_leaf));
        }
        assert_eq!(dw.day_leaf(dw.first_day() - SlotSpan::days(1)), None);
    }

    #[test]
    fn unknown_prosumers_are_skipped() {
        let (pop, mut offers) = setup();
        let alien = FlexOffer::builder(999_999u64, 42_000u64)
            .earliest_start(TimeSlot::new(10))
            .slices(1, mirabel_flexoffer::Energy::ZERO, mirabel_flexoffer::Energy::from_wh(1))
            .build()
            .unwrap();
        offers.push(alien);
        let dw = Warehouse::load(&pop, &offers);
        assert_eq!(dw.columns().len(), offers.len() - 1);
        assert!(dw.offer(FlexOfferId(999_999)).is_none());
    }

    #[test]
    fn loader_filters_by_entity_and_interval() {
        let (pop, offers) = setup();
        let dw = Warehouse::load(&pop, &offers);
        let p = offers[0].prosumer();
        let all = dw.load_offers(&LoaderQuery::builder().build());
        assert_eq!(all.len(), offers.len());
        let mine = dw.load_offers(&LoaderQuery::for_prosumer(p).build());
        assert!(!mine.is_empty());
        assert!(mine.iter().all(|fo| fo.prosumer() == p));
        assert!(mine.len() < all.len());

        // A window before all offers matches nothing.
        let none = dw.load_offers(
            &LoaderQuery::builder().window(TimeSlot::new(-10_000), TimeSlot::new(-9_999)).build(),
        );
        assert!(none.is_empty());
    }

    #[test]
    fn loader_uses_half_open_interval_on_extents() {
        let (pop, offers) = setup();
        let dw = Warehouse::load(&pop, &offers);
        let fo = &offers[0];
        let (lo, hi) = fo.extent();
        // Window touching only the exclusive end does not match.
        let after =
            dw.load_offers(&LoaderQuery::builder().window(hi, hi + SlotSpan::hours(1)).build());
        assert!(after.iter().all(|o| o.id() != fo.id()));
        // Window overlapping the first slot does.
        let at =
            dw.load_offers(&LoaderQuery::builder().window(lo, lo + SlotSpan::slots(1)).build());
        assert!(at.iter().any(|o| o.id() == fo.id()));
    }

    #[test]
    fn empty_and_inverted_windows_match_nothing() {
        let (pop, offers) = setup();
        let dw = Warehouse::load(&pop, &offers);
        let fo = &offers[0];
        let (lo, hi) = fo.extent();
        let root = dw.hierarchy(Dimension::Geography).all().id;
        let at = TimeSlot::new;
        let windows =
            [(lo, lo), (hi, lo), (at(40), at(40)), (at(50), at(40)), (at(i64::MAX), at(i64::MIN))];
        for (from, to) in windows {
            let window = LoaderQuery::builder().window(from, to);
            // The time index, with and without a direction, then the
            // prosumer and region postings.
            for q in [
                window.build(),
                window.direction(fo.direction()).build(),
                window.prosumer(fo.prosumer()).build(),
                window.region(root).build(),
            ] {
                assert!(dw.view(&q).is_empty(), "{q:?}");
                assert!(dw.load_offers(&q).is_empty(), "{q:?}");
                assert!(dw.load_offers_scan(&q).is_empty(), "{q:?}");
                assert!(offers.iter().all(|o| !q.matches(o)), "{q:?}");
            }
        }
        // The same places as one-slot windows do select offers.
        for slot in [lo, at(40)] {
            let q = LoaderQuery::builder().window(slot, slot + SlotSpan::slots(1)).build();
            assert!(!dw.view(&q).is_empty(), "{q:?}");
        }
    }

    #[test]
    fn materialized_views_alias_warehouse_allocations() {
        let (pop, offers) = setup();
        let dw = Warehouse::load(&pop, &offers);
        let q = LoaderQuery::builder().build();
        let shared = dw.view(&q).materialize();
        assert_eq!(shared.len(), dw.load_offers(&q).len());
        // Materializing hands out the warehouse's own allocations.
        for (arc, dw_arc) in shared.iter().zip(dw.offers()) {
            assert!(Arc::ptr_eq(arc, dw_arc));
        }
        let entity = offers[0].prosumer();
        let mine = dw.view(&LoaderQuery::for_prosumer(entity).build()).materialize();
        assert!(!mine.is_empty());
        for arc in &mine {
            assert_eq!(arc.prosumer(), entity);
            assert!(dw.offers().iter().any(|dw_arc| Arc::ptr_eq(arc, dw_arc)));
        }
    }

    #[test]
    fn offer_lookup() {
        let (pop, offers) = setup();
        let dw = Warehouse::load(&pop, &offers);
        let id = offers[3].id();
        assert_eq!(dw.offer(id).unwrap().id(), id);
    }

    #[test]
    fn empty_offer_set_loads() {
        let (pop, _) = setup();
        let dw = Warehouse::load(&pop, &[]);
        assert!(dw.columns().is_empty());
        assert_eq!(dw.hierarchy(Dimension::Time).at_level(3).count(), 1);
    }

    /// Full-axis builder used by the incremental tests.
    fn everywhere() -> LoaderQueryBuilder {
        LoaderQuery::builder()
    }

    #[test]
    fn ingest_matches_a_full_reload() {
        let (pop, offers) = setup();
        let (day1, rest): (Vec<FlexOffer>, Vec<FlexOffer>) = offers
            .iter()
            .cloned()
            .partition(|fo| fo.earliest_start().index() < mirabel_timeseries::SLOTS_PER_DAY);
        assert!(!day1.is_empty() && !rest.is_empty());

        let mut live = Warehouse::load(&pop, &day1);
        let out = live.ingest(&pop, &rest);
        assert_eq!(out.ingested, rest.len());
        assert_eq!(out.skipped_duplicate + out.skipped_unknown_prosumer, 0);

        // Same facts as loading everything at once, up to fact order.
        let full = Warehouse::load(&pop, &offers);
        assert_eq!(live.columns().len(), full.columns().len());
        let mut live_ids: Vec<u64> = live.offers().iter().map(|fo| fo.id().raw()).collect();
        let mut full_ids: Vec<u64> = full.offers().iter().map(|fo| fo.id().raw()).collect();
        live_ids.sort_unstable();
        full_ids.sort_unstable();
        assert_eq!(live_ids, full_ids);
        // Every ingested fact is keyed to the correct day leaf by name.
        let time = live.hierarchy(Dimension::Time);
        for (row, fo) in live.columns().rows().zip(live.offers()) {
            let day_name = fo.earliest_start().civil().date.to_string();
            assert_eq!(time.member(row.time_leaf).unwrap().name, day_name);
        }
        // Measures aggregate identically.
        let a = live.eval(&crate::Query::new(crate::Measure::TotalMaxEnergy)).unwrap();
        let b = full.eval(&crate::Query::new(crate::Measure::TotalMaxEnergy)).unwrap();
        assert!((a.total - b.total).abs() < 1e-9);
    }

    #[test]
    fn ingest_extends_the_time_hierarchy_in_place() {
        let (pop, offers) = setup();
        let mut dw = Warehouse::load(&pop, &offers);
        let days_before = dw.hierarchy(Dimension::Time).at_level(3).count();
        let member_ids_before: Vec<MemberId> =
            dw.hierarchy(Dimension::Time).members().iter().map(|m| m.id).collect();

        // An offer ten days past the window forces an extension.
        let far = dw.first_day() + SlotSpan::days(12);
        let p = offers[0].prosumer();
        let fo = FlexOffer::builder(900_001u64, p.raw())
            .earliest_start(far)
            .slices(2, mirabel_flexoffer::Energy::ZERO, mirabel_flexoffer::Energy::from_wh(5))
            .build()
            .unwrap();
        let out = dw.ingest(&pop, std::slice::from_ref(&fo));
        assert_eq!(out.ingested, 1);
        assert!(out.days_added >= 10, "{out:?}");
        assert_eq!(dw.hierarchy(Dimension::Time).at_level(3).count(), days_before + out.days_added);
        // No existing member was renumbered.
        for (i, id) in member_ids_before.iter().enumerate() {
            assert_eq!(dw.hierarchy(Dimension::Time).members()[i].id, *id);
        }
        let last = dw.columns().len() - 1;
        assert_eq!(dw.day_leaf(far), Some(dw.columns().leaf(last, Dimension::Time)));
    }

    #[test]
    fn ingest_skips_are_itemised() {
        let (pop, offers) = setup();
        let mut dw = Warehouse::load(&pop, &offers);
        let before = dw.columns().len();
        let alien = FlexOffer::builder(900_002u64, 42_000u64)
            .earliest_start(TimeSlot::new(10))
            .slices(1, mirabel_flexoffer::Energy::ZERO, mirabel_flexoffer::Energy::from_wh(1))
            .build()
            .unwrap();
        let early = FlexOffer::builder(900_003u64, offers[0].prosumer().raw())
            .earliest_start(dw.first_day() - SlotSpan::days(2))
            .slices(1, mirabel_flexoffer::Energy::ZERO, mirabel_flexoffer::Energy::from_wh(1))
            .build()
            .unwrap();
        let out = dw.ingest(&pop, &[alien, early, offers[0].clone()]);
        assert_eq!(out.ingested, 0);
        assert_eq!(out.skipped_unknown_prosumer, 1);
        assert_eq!(out.skipped_before_window, 1);
        assert_eq!(out.skipped_duplicate, 1);
        assert_eq!(dw.columns().len(), before);
    }

    #[test]
    fn withdraw_compacts_and_preserves_order() {
        let (pop, offers) = setup();
        let mut dw = Warehouse::load(&pop, &offers);
        let victims: Vec<FlexOfferId> =
            offers.iter().step_by(3).map(mirabel_flexoffer::FlexOffer::id).collect();
        let removed = dw.withdraw(&victims);
        assert_eq!(removed, victims.len());
        assert_eq!(dw.columns().len(), offers.len() - victims.len());
        // Duplicate and unknown ids are no-ops.
        assert_eq!(dw.withdraw(&victims), 0);
        assert_eq!(dw.withdraw(&[FlexOfferId(123_456_789)]), 0);

        // Survivors keep their relative order and every index agrees.
        let expected: Vec<FlexOfferId> = offers
            .iter()
            .map(mirabel_flexoffer::FlexOffer::id)
            .filter(|id| !victims.contains(id))
            .collect();
        let got: Vec<FlexOfferId> = dw.offers().iter().map(|fo| fo.id()).collect();
        assert_eq!(got, expected);
        for (row, fo) in dw.columns().rows().zip(dw.offers()) {
            assert_eq!(row.offer, fo.id());
        }
        for id in &victims {
            assert!(dw.offer(*id).is_none());
        }
        for id in &expected {
            assert_eq!(dw.offer(*id).unwrap().id(), *id);
        }
    }

    #[test]
    fn prosumer_index_matches_linear_scan() {
        let (pop, offers) = setup();
        let mut dw = Warehouse::load(&pop, &offers);
        // Exercise the index across mutations too.
        let victims: Vec<FlexOfferId> = offers.iter().step_by(5).map(|fo| fo.id()).collect();
        dw.withdraw(&victims);
        let (lo, hi) = (TimeSlot::new(0), TimeSlot::new(96));
        let prosumers: std::collections::BTreeSet<ProsumerId> =
            pop.prosumers().iter().map(|p| p.id).collect();
        for p in prosumers {
            for q in [
                everywhere().prosumer(p).build(),
                LoaderQuery::for_prosumer(p).window(lo, hi).build(),
            ] {
                let indexed: Vec<FlexOfferId> =
                    dw.load_offers(&q).iter().map(|fo| fo.id()).collect();
                // Reference: the pre-index linear scan over every offer.
                let linear: Vec<FlexOfferId> =
                    dw.offers().iter().filter(|fo| q.matches(fo)).map(|fo| fo.id()).collect();
                assert_eq!(indexed, linear, "prosumer {p:?}");
                let shared: Vec<FlexOfferId> =
                    dw.view(&q).materialize().iter().map(|fo| fo.id()).collect();
                assert_eq!(shared, linear, "prosumer {p:?} (shared)");
            }
        }
    }

    #[test]
    fn region_index_matches_full_scan() {
        let (pop, offers) = setup();
        let mut dw = Warehouse::load(&pop, &offers);
        // Exercise the index across mutations too (withdraw moves facts).
        let victims: Vec<FlexOfferId> = offers.iter().step_by(4).map(|fo| fo.id()).collect();
        dw.withdraw(&victims);
        let geo = dw.hierarchy(Dimension::Geography);
        // Every member of the geography hierarchy at every level,
        // including the root and the unassigned branch.
        let members: Vec<MemberId> = geo.members().iter().map(|m| m.id).collect();
        let (lo, hi) = (TimeSlot::new(0), TimeSlot::new(96));
        for m in members {
            for q in
                [everywhere().region(m).build(), LoaderQuery::for_region(m).window(lo, hi).build()]
            {
                let indexed: Vec<FlexOfferId> =
                    dw.load_offers(&q).iter().map(|fo| fo.id()).collect();
                let scanned: Vec<FlexOfferId> =
                    dw.load_offers_scan(&q).iter().map(|fo| fo.id()).collect();
                assert_eq!(indexed, scanned, "member {m}");
                let shared: Vec<FlexOfferId> =
                    dw.view(&q).materialize().iter().map(|fo| fo.id()).collect();
                assert_eq!(shared, scanned, "member {m} (shared)");
            }
        }
        // The root member selects everything the unfiltered query does.
        let all = dw.load_offers(&everywhere().build()).len();
        assert_eq!(dw.load_offers(&everywhere().region(geo.all().id).build()).len(), all);
    }

    #[test]
    fn region_and_prosumer_filters_compose() {
        let (pop, offers) = setup();
        let dw = Warehouse::load(&pop, &offers);
        let p = pop
            .prosumers()
            .iter()
            .find(|pr| !dw.load_offers(&everywhere().prosumer(pr.id).build()).is_empty())
            .unwrap();
        let home = dw.district_leaves[p.district.0 as usize];
        let geo = dw.hierarchy(Dimension::Geography);
        let region = geo.ancestor_at_level(home, 1).unwrap();
        // All of the prosumer's offers live in its home subtree...
        let both = dw.load_offers(&everywhere().prosumer(p.id).region(region).build());
        let mine = dw.load_offers(&everywhere().prosumer(p.id).build());
        assert_eq!(
            both.iter().map(|fo| fo.id()).collect::<Vec<_>>(),
            mine.iter().map(|fo| fo.id()).collect::<Vec<_>>()
        );
        // ...and none in a disjoint region.
        let other = geo
            .at_level(1)
            .find(|m| m.id != region && m.name != "Unassigned")
            .map(|m| m.id)
            .unwrap();
        assert!(dw.load_offers(&everywhere().prosumer(p.id).region(other).build()).is_empty());
        // Composition agrees with the scan reference either way.
        let q = everywhere().prosumer(p.id).region(other).build();
        assert_eq!(dw.load_offers(&q).len(), dw.load_offers_scan(&q).len());
    }

    #[test]
    fn spatial_membership_is_cached_per_prosumer() {
        let (pop, offers) = setup();
        let dw = Warehouse::load(&pop, &offers);
        // One membership resolution per distinct prosumer with offers,
        // not one per fact.
        let distinct: std::collections::BTreeSet<ProsumerId> =
            dw.offers().iter().map(|fo| fo.prosumer()).collect();
        assert_eq!(dw.writer.membership.len(), distinct.len());
        assert!(dw.columns().len() > distinct.len());
        // Generated locations resolve to the declared district, so no
        // fact lands on the unassigned leaf.
        let geo_leaf = |i| dw.columns().leaf(i, Dimension::Geography);
        assert!((0..dw.columns().len()).all(|i| geo_leaf(i) != dw.unassigned_leaf()));
        assert!(dw.load_offers(&everywhere().region(dw.unassigned_leaf()).build()).is_empty());
    }

    #[test]
    fn membership_is_resolved_once_and_cached() {
        let (pop, offers) = setup();
        let dw = Warehouse::load(&pop, &offers);
        // One resolution per distinct prosumer, agreeing with the
        // declared placement.
        let distinct: std::collections::BTreeSet<ProsumerId> =
            offers.iter().map(FlexOffer::prosumer).collect();
        assert_eq!(dw.writer.membership.len(), distinct.len());
        for (&p, &leaf) in &dw.writer.membership {
            let prosumer = pop.prosumer(p).unwrap();
            assert_eq!(leaf, dw.district_leaves[prosumer.district.0 as usize], "{}", prosumer.name);
        }
        // Every fact of a prosumer carries the cached leaf.
        for (i, p) in dw.columns().prosumers().iter().enumerate() {
            assert_eq!(dw.writer.membership[p], dw.columns().leaf(i, Dimension::Geography));
        }
    }

    #[test]
    fn a_clone_rebuilds_the_writer_index_on_its_first_write() {
        let (pop, offers) = setup();
        let dw = Warehouse::load(&pop, &offers);
        // Neither the load nor a clone builds an id map.
        assert!(dw.writer.ids.is_none());
        let mut copy = dw.clone();
        assert!(copy.writer.ids.is_none() && copy.writer.membership.is_empty());
        // The first write rebuilds both from the columns.
        let out = copy.ingest(&pop, &offers[..3]);
        assert_eq!(out.skipped_duplicate, 3);
        assert_eq!(copy.writer.ids.as_ref().map(HashMap::len), Some(offers.len()));
        assert_eq!(copy.writer.membership, dw.writer.membership);
        // Withdrawing re-points exactly the facts that moved.
        let victims = [offers[1].id(), offers[offers.len() / 2].id()];
        assert_eq!(copy.withdraw(&victims), 2);
        let ids = copy.writer.ids.as_ref().unwrap();
        assert_eq!(ids.len(), offers.len() - 2);
        for (i, &id) in copy.columns().offer_ids().iter().enumerate() {
            assert_eq!(ids[&id] as usize, i);
        }
        // The original never saw those writes.
        assert_eq!(dw.columns().len(), offers.len());
        assert!(victims.iter().all(|&id| dw.offer(id).is_some() && copy.offer(id).is_none()));
    }

    #[test]
    fn ingest_maintains_the_spatial_index_incrementally() {
        let (pop, offers) = setup();
        let (day1, rest): (Vec<FlexOffer>, Vec<FlexOffer>) = offers
            .iter()
            .cloned()
            .partition(|fo| fo.earliest_start().index() < mirabel_timeseries::SLOTS_PER_DAY);
        let mut live = Warehouse::load(&pop, &day1);
        live.ingest(&pop, &rest);
        let full = Warehouse::load(&pop, &offers);
        let geo = full.hierarchy(Dimension::Geography);
        for m in geo.at_level(1).chain(geo.at_level(2)) {
            let q = everywhere().region(m.id).build();
            let mut live_ids: Vec<u64> =
                live.load_offers(&q).iter().map(|fo| fo.id().raw()).collect();
            let mut full_ids: Vec<u64> =
                full.load_offers(&q).iter().map(|fo| fo.id().raw()).collect();
            live_ids.sort_unstable();
            full_ids.sort_unstable();
            assert_eq!(live_ids, full_ids, "member {}", m.name);
        }
    }

    #[test]
    fn advance_day_appends_one_leaf() {
        let (pop, offers) = setup();
        let mut dw = Warehouse::load(&pop, &offers);
        let days = dw.hierarchy(Dimension::Time).at_level(3).count();
        let leaf = dw.advance_day();
        assert_eq!(dw.hierarchy(Dimension::Time).at_level(3).count(), days + 1);
        assert_eq!(dw.hierarchy(Dimension::Time).member(leaf).unwrap().level, 3);
        // The new day is immediately ingestable.
        let last_day = dw.first_day() + SlotSpan::days(days as i64);
        assert_eq!(dw.day_leaf(last_day), Some(leaf));
    }

    /// A feasible schedule for `fo`: start at the earliest slot, midpoint
    /// energy per slice.
    fn midpoint_schedule(fo: &FlexOffer) -> Schedule {
        let energies = fo
            .profile()
            .slices()
            .iter()
            .map(|s| Energy::from_wh((s.min.wh() + s.max.wh()) / 2))
            .collect();
        Schedule::new(fo.earliest_start(), energies)
    }

    #[test]
    fn assign_schedules_refreshes_facts_in_place() {
        let (pop, offers) = setup();
        let mut dw = Warehouse::load(&pop, &offers);
        let assignments: Vec<(FlexOfferId, Schedule)> =
            offers.iter().take(10).map(|fo| (fo.id(), midpoint_schedule(fo))).collect();
        let out = dw.assign_schedules(&assignments);
        assert_eq!(out.scheduled, 10);
        assert_eq!(out, ScheduleOutcome { scheduled: 10, ..Default::default() });
        for (id, schedule) in &assignments {
            let fo = dw.offer(*id).unwrap();
            assert_eq!(fo.status(), OfferState::Scheduled);
            let idx = dw.columns().offer_ids().iter().position(|o| o == id).unwrap();
            let row = dw.columns().row(idx);
            assert_eq!(row.status, OfferState::Scheduled);
            assert_eq!(row.scheduled_wh, schedule.total().wh());
            // Dimension keys survive the in-place refresh.
            assert_eq!(row.time_leaf, dw.day_leaf(fo.earliest_start()).unwrap());
        }
    }

    #[test]
    fn assign_schedules_itemises_skips() {
        let (pop, offers) = setup();
        let mut dw = Warehouse::load(&pop, &offers);
        let fo = &offers[0];
        let infeasible = Schedule::new(
            fo.earliest_start(),
            vec![Energy::from_wh(i64::MAX / 4); fo.profile().len()],
        );
        dw.withdraw(&[offers[1].id()]);
        let mut terminal = offers[2].clone();
        // Drive offer 2 to a terminal state through the erased API.
        terminal.reject().ok();
        let mut dw2 = dw.clone();
        let out = dw2.assign_schedules(&[
            (fo.id(), infeasible),
            (offers[1].id(), midpoint_schedule(&offers[1])), // withdrawn from the table
            (FlexOfferId(987_654_321), midpoint_schedule(fo)),
        ]);
        assert_eq!(out.skipped_infeasible, 1);
        assert_eq!(out.skipped_unknown, 2); // withdrawn offers leave the table
        assert_eq!(out.scheduled, 0);
        // The infeasible attempt left the offer untouched: still offered,
        // counted as offered by the status column, and its segment still
        // the one the pre-call clone shares.
        assert_eq!(dw2.offer(fo.id()).unwrap().status(), OfferState::Offered);
        let offered = crate::Query::new(crate::Measure::Count).statuses([OfferState::Offered]);
        let by_offer = dw2.offers().iter().filter(|o| o.status() == OfferState::Offered).count();
        assert_eq!(dw2.eval(&offered).unwrap().matching_facts, by_offer);
        let idx = dw2.columns().offer_ids().iter().position(|&id| id == fo.id()).unwrap();
        let (s, _) = locate(idx);
        assert!(Arc::ptr_eq(&dw2.columns().segments()[s], &dw.columns().segments()[s]));
    }

    #[test]
    fn execute_due_meters_elapsed_schedules_deterministically() {
        let (pop, offers) = setup();
        let mut dw = Warehouse::load(&pop, &offers);
        let assignments: Vec<(FlexOfferId, Schedule)> =
            offers.iter().take(12).map(|fo| (fo.id(), midpoint_schedule(fo))).collect();
        dw.assign_schedules(&assignments);
        let mut replay = dw.clone();

        // Nothing is due before any schedule has elapsed.
        let t0 = assignments
            .iter()
            .map(|(id, _)| dw.offer(*id).unwrap())
            .map(|fo| fo.schedule().unwrap().end())
            .min()
            .unwrap();
        assert_eq!(dw.clone().execute_due(t0 - SlotSpan::slots(1)), 0);

        // After the horizon, every assignment is metered.
        let horizon = dw.window_end();
        assert_eq!(dw.execute_due(horizon), 12);
        for (id, schedule) in &assignments {
            let fo = dw.offer(*id).unwrap();
            assert_eq!(fo.status(), OfferState::Executed);
            let execution = fo.execution().unwrap();
            // Actuals stay within the offer's own slice bounds.
            for (&e, &slice) in execution.energies().iter().zip(fo.profile().slices()) {
                assert!(slice.contains(e), "{e} outside {slice}");
            }
            let idx = dw.columns().offer_ids().iter().position(|o| o == id).unwrap();
            let row = dw.columns().row(idx);
            assert_eq!(row.status, OfferState::Executed);
            assert_eq!(row.executed_wh, execution.total().wh());
            assert_eq!(row.deviation_wh, execution.total_absolute_deviation(schedule).wh());
        }

        // Replays meter bit-identically.
        replay.execute_due(horizon);
        for (id, _) in &assignments {
            assert_eq!(dw.offer(*id).unwrap().execution(), replay.offer(*id).unwrap().execution());
        }
    }

    #[test]
    fn execute_due_ignores_unscheduled_offers() {
        let (pop, offers) = setup();
        let mut dw = Warehouse::load(&pop, &offers);
        assert_eq!(dw.execute_due(dw.window_end()), 0);
        assert!(dw.columns().executed_wh().iter().all(|&e| e == 0));
    }
}
