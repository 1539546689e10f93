//! Struct-of-arrays fact storage: the columnar twin of [`FactRow`].
//!
//! The row-oriented fact table made every aggregate query walk an array
//! of ~200-byte structs to read one 8-byte measure. At city scale that
//! is cache-hostile; at the 10M-offer scale the ROADMAP targets it is
//! the difference between a nightly that holds the publish bound and
//! one that does not. The [`ColumnStore`] keeps each fact attribute in
//! its own contiguous `Vec`, so:
//!
//! * a measure scan ([`crate::Measure::value_at`]) touches exactly the
//!   column it aggregates;
//! * per-slice energy bounds live in one CSR-shaped triple
//!   (`slice_offsets` + `slice_min_wh` / `slice_max_wh`) instead of a
//!   `Vec` allocation per offer — profiles are immutable for an offer's
//!   whole lifecycle, so these columns are written once at ingest and
//!   only shifted by withdraw compaction;
//! * lifecycle mutations (schedule assignment, execution metering)
//!   rewrite only the handful of scalar columns that actually change
//!   ([`ColumnStore::refresh`]).
//!
//! The store sits behind the warehouse's copy-on-write `Arc` exactly
//! like the row table did: an epoch publish clones `Arc` handles, not
//! columns, so publish latency stays O(hierarchies) no matter how many
//! offers are loaded. [`FactRow`] survives as the *materialized row
//! view* — [`ColumnStore::row`] gathers one — so row-shaped consumers
//! and the columnar ≡ row equality gates keep a common currency.

use std::ops::Range;

use mirabel_flexoffer::{Direction, FlexOffer, FlexOfferId, OfferState, ProsumerId};
use mirabel_timeseries::TimeSlot;

use crate::fact::FactRow;
use crate::hierarchy::{Dimension, MemberId};

/// The six dimension leaf keys of one fact, in the fixed order
/// (time, geography, grid, energy type, prosumer type, appliance).
pub type LeafKeys = [MemberId; 6];

/// Dense code of a lifecycle status: its position in
/// [`OfferState::ALL`]. The codes are what the status run-length
/// column stores and what status predicates resolve to.
pub fn status_code(status: OfferState) -> u32 {
    match status {
        OfferState::Offered => 0,
        OfferState::Accepted => 1,
        OfferState::Rejected => 2,
        OfferState::Scheduled => 3,
        OfferState::Executed => 4,
        OfferState::Withdrawn => 5,
    }
}

/// A dictionary-encoded leaf-key column: the distinct [`MemberId`]s in
/// first-seen order (`dict`) plus one dense `u32` code per fact
/// (`codes`).
///
/// Code assignment rules (these make the encoding a *canonical*
/// function of the push sequence, so two stores that saw the same
/// operations compare equal):
///
/// * a member's code is its first-seen position in the push order;
/// * the dictionary is **append-only** — withdraw compaction
///   ([`ColumnStore::compact`]) drops codes of dead facts but never
///   renumbers or garbage-collects the dictionary, so codes stay
///   stable across an epoch's lifetime and predicate masks resolved
///   against one epoch's dictionary index the next epoch's codes
///   correctly.
///
/// Hierarchy member ids are dense and small (tens of members per
/// dimension), so the reverse map is a flat `Vec` indexed by
/// `MemberId`.
#[derive(Debug, Clone, PartialEq)]
pub struct DictColumn {
    dict: Vec<MemberId>,
    /// `member.0 → code + 1`; 0 = member not in the dictionary.
    code_of: Vec<u32>,
    codes: Vec<u32>,
}

impl DictColumn {
    fn new() -> DictColumn {
        DictColumn { dict: Vec::new(), code_of: Vec::new(), codes: Vec::new() }
    }

    /// Appends one fact's member, interning it on first sight.
    fn push(&mut self, member: MemberId) {
        let slot = member.0 as usize;
        if slot >= self.code_of.len() {
            self.code_of.resize(slot + 1, 0);
        }
        let code = if self.code_of[slot] == 0 {
            let code = self.dict.len() as u32;
            self.dict.push(member);
            self.code_of[slot] = code + 1;
            code
        } else {
            self.code_of[slot] - 1
        };
        self.codes.push(code);
    }

    /// A copy with room for `facts` more codes (see
    /// [`ColumnStore::clone_with_room`]).
    fn clone_with_room(&self, facts: usize) -> DictColumn {
        DictColumn {
            dict: self.dict.clone(),
            code_of: self.code_of.clone(),
            codes: copy_with_room(&self.codes, facts),
        }
    }

    /// The distinct members, indexed by code.
    pub fn dict(&self) -> &[MemberId] {
        &self.dict
    }

    /// Per-fact codes (same length as the store).
    pub fn codes(&self) -> &[u32] {
        &self.codes
    }

    /// The code of `member`, if it ever occurred in this column.
    pub fn code(&self, member: MemberId) -> Option<u32> {
        let raw = *self.code_of.get(member.0 as usize)?;
        (raw != 0).then(|| raw - 1)
    }

    /// Decodes the member of fact `idx`.
    pub fn member(&self, idx: usize) -> MemberId {
        self.dict[self.codes[idx] as usize]
    }

    /// Resolves a predicate over members to a mask over codes — the
    /// once-per-query step that lets evaluation test `mask[code]`
    /// instead of walking a hierarchy per fact.
    pub fn mask(&self, mut keep: impl FnMut(MemberId) -> bool) -> Vec<bool> {
        self.dict.iter().map(|&m| keep(m)).collect()
    }
}

/// One maximal run of equal codes: `value` repeated up to (exclusive)
/// fact index `end`. The run's start is the previous run's `end` (0
/// for the first).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Run {
    /// The repeated code.
    pub value: u32,
    /// Exclusive end index of the run.
    pub end: u32,
}

/// A run-length-encoded code column for the low-cardinality lifecycle
/// status (6 values). Runs are kept in **canonical
/// maximal form** — adjacent runs always hold distinct values — so the
/// representation is a pure function of the decoded sequence and the
/// derived `PartialEq` compares encodings the way it compares values.
///
/// Point updates (`RleColumn::set`, the status flips of
/// [`ColumnStore::refresh`]) split the containing run into at most
/// three and re-merge equal-valued neighbours; withdraw compaction
/// cuts the runs at the first dead fact and re-derives the rest from
/// the compacted plain column ("run invalidation on compact"), because
/// removing facts can splice arbitrary run fragments together.
#[derive(Debug, Clone, PartialEq)]
pub struct RleColumn {
    runs: Vec<Run>,
    len: u32,
}

impl RleColumn {
    fn new() -> RleColumn {
        RleColumn { runs: Vec::new(), len: 0 }
    }

    /// Rebuilds the canonical runs of `values` from scratch.
    #[cfg(test)]
    fn from_values(values: impl Iterator<Item = u32>) -> RleColumn {
        let mut rle = RleColumn::new();
        for v in values {
            rle.push(v);
        }
        rle
    }

    /// Keeps the first `len` values: the canonical runs of a prefix are
    /// the full runs cut at `len`, so pushing the rest again yields
    /// exactly the runs a rebuild from scratch would.
    fn truncate(&mut self, len: usize) {
        let len = len as u32;
        let k = self.run_index(len);
        let start = if k == 0 { 0 } else { self.runs[k - 1].end };
        if k < self.runs.len() && start < len {
            self.runs[k].end = len;
            self.runs.truncate(k + 1);
        } else {
            self.runs.truncate(k);
        }
        self.len = len;
    }

    /// A copy with room for `facts` more runs (see
    /// [`ColumnStore::clone_with_room`]).
    fn clone_with_room(&self, facts: usize) -> RleColumn {
        RleColumn { runs: copy_with_room(&self.runs, facts), len: self.len }
    }

    /// Appends one value, extending the last run when it matches.
    fn push(&mut self, value: u32) {
        self.len += 1;
        match self.runs.last_mut() {
            Some(run) if run.value == value => run.end = self.len,
            _ => self.runs.push(Run { value, end: self.len }),
        }
    }

    /// Index of the run containing fact `idx` (binary search over the
    /// ascending exclusive ends).
    fn run_index(&self, idx: u32) -> usize {
        self.runs.partition_point(|r| r.end <= idx)
    }

    /// Decoded value of fact `idx`.
    pub fn value(&self, idx: usize) -> u32 {
        self.runs[self.run_index(idx as u32)].value
    }

    /// Point update: rewrite fact `idx` to `value`, restoring canonical
    /// maximal form (split the containing run, then merge with
    /// equal-valued neighbours).
    fn set(&mut self, idx: usize, value: u32) {
        let idx = idx as u32;
        let k = self.run_index(idx);
        let run = self.runs[k];
        if run.value == value {
            return;
        }
        let start = if k == 0 { 0 } else { self.runs[k - 1].end };
        // Replace run k with up to three fragments [start..idx),
        // [idx..idx+1), [idx+1..end) ...
        let mut fragments = Vec::with_capacity(3);
        if idx > start {
            fragments.push(Run { value: run.value, end: idx });
        }
        fragments.push(Run { value, end: idx + 1 });
        if idx + 1 < run.end {
            fragments.push(Run { value: run.value, end: run.end });
        }
        let f = fragments.len();
        self.runs.splice(k..=k, fragments);
        // ... then re-merge the two splice boundaries to keep adjacent
        // runs distinct (interior fragment boundaries always separate
        // distinct values). Right first, so the left merge's indices
        // stay valid.
        let right = k + f;
        if right < self.runs.len() && self.runs[right].value == self.runs[right - 1].value {
            self.runs[right - 1].end = self.runs[right].end;
            self.runs.remove(right);
        }
        if k > 0 && self.runs[k].value == self.runs[k - 1].value {
            self.runs[k - 1].end = self.runs[k].end;
            self.runs.remove(k);
        }
    }

    /// The canonical maximal runs.
    pub fn runs(&self) -> &[Run] {
        &self.runs
    }

    /// Number of encoded values.
    pub fn len(&self) -> usize {
        self.len as usize
    }

    /// `true` when nothing is encoded.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }
}

/// One offer's per-slice energy bounds, borrowed straight from the CSR
/// slice columns — what the aggregator and the planner's load-curve
/// merge iterate instead of chasing an `Arc<FlexOffer>`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ColumnSlice<'a> {
    /// Per-slice minimum bounds (Wh), one entry per profile slot.
    pub min_wh: &'a [i64],
    /// Per-slice maximum bounds (Wh), one entry per profile slot.
    pub max_wh: &'a [i64],
}

impl ColumnSlice<'_> {
    /// Number of profile slots.
    pub fn len(&self) -> usize {
        self.min_wh.len()
    }

    /// `true` for a zero-length profile (never produced by the loader,
    /// but total for the API).
    pub fn is_empty(&self) -> bool {
        self.min_wh.is_empty()
    }
}

/// Struct-of-arrays fact storage: one `Vec` per fact attribute plus a
/// CSR triple for per-slice energy bounds. See the module docs
/// (`columns.rs`) for why.
///
/// All per-offer columns share one length ([`ColumnStore::len`]); the
/// CSR offsets column has `len + 1` entries. Invariants are upheld by
/// the mutators ([`ColumnStore::push`], [`ColumnStore::refresh`],
/// [`ColumnStore::compact`]) and spot-checked by the live warehouse's
/// torn-epoch probe.
#[derive(Debug, Clone, PartialEq)]
pub struct ColumnStore {
    offer: Vec<FlexOfferId>,
    prosumer: Vec<ProsumerId>,
    direction: Vec<Direction>,
    status: Vec<OfferState>,
    earliest_start: Vec<TimeSlot>,

    time_leaf: Vec<MemberId>,
    geo_leaf: Vec<MemberId>,
    grid_leaf: Vec<MemberId>,
    energy_leaf: Vec<MemberId>,
    prosumer_leaf: Vec<MemberId>,
    appliance_leaf: Vec<MemberId>,

    total_min_wh: Vec<i64>,
    total_max_wh: Vec<i64>,
    energy_flex_wh: Vec<i64>,
    time_flex_slots: Vec<i64>,
    scheduled_wh: Vec<i64>,
    executed_wh: Vec<i64>,
    deviation_wh: Vec<i64>,
    price_cents: Vec<i64>,
    balancing_potential_wh: Vec<i64>,

    /// CSR offsets into the slice columns; `len() + 1` entries, so the
    /// slices of fact `i` live at `slice_offsets[i]..slice_offsets[i+1]`.
    slice_offsets: Vec<usize>,
    slice_min_wh: Vec<i64>,
    slice_max_wh: Vec<i64>,

    /// Dictionary encodings of the six leaf-key columns, in
    /// [`Dimension::ALL`] order. The plain `Vec<MemberId>` columns stay
    /// the decode surface (and the borrowed-slice API); the dictionaries
    /// are what predicate pushdown resolves filters against.
    dicts: [DictColumn; 6],
    /// Run-length postings over [`status_code`]s.
    status_rle: RleColumn,
}

impl Default for ColumnStore {
    fn default() -> ColumnStore {
        ColumnStore::new()
    }
}

impl ColumnStore {
    /// An empty store.
    pub fn new() -> ColumnStore {
        ColumnStore {
            offer: Vec::new(),
            prosumer: Vec::new(),
            direction: Vec::new(),
            status: Vec::new(),
            earliest_start: Vec::new(),
            time_leaf: Vec::new(),
            geo_leaf: Vec::new(),
            grid_leaf: Vec::new(),
            energy_leaf: Vec::new(),
            prosumer_leaf: Vec::new(),
            appliance_leaf: Vec::new(),
            total_min_wh: Vec::new(),
            total_max_wh: Vec::new(),
            energy_flex_wh: Vec::new(),
            time_flex_slots: Vec::new(),
            scheduled_wh: Vec::new(),
            executed_wh: Vec::new(),
            deviation_wh: Vec::new(),
            price_cents: Vec::new(),
            balancing_potential_wh: Vec::new(),
            slice_offsets: vec![0],
            slice_min_wh: Vec::new(),
            slice_max_wh: Vec::new(),
            dicts: [
                DictColumn::new(),
                DictColumn::new(),
                DictColumn::new(),
                DictColumn::new(),
                DictColumn::new(),
                DictColumn::new(),
            ],
            status_rle: RleColumn::new(),
        }
    }

    /// An empty store with per-offer columns sized for `n` facts.
    pub fn with_capacity(n: usize) -> ColumnStore {
        let mut cs = ColumnStore::new();
        cs.offer.reserve(n);
        cs.prosumer.reserve(n);
        cs.direction.reserve(n);
        cs.status.reserve(n);
        cs.earliest_start.reserve(n);
        cs.slice_offsets.reserve(n);
        cs
    }

    /// Number of facts.
    pub fn len(&self) -> usize {
        self.offer.len()
    }

    /// `true` when no facts are loaded.
    pub fn is_empty(&self) -> bool {
        self.offer.is_empty()
    }

    /// Total slice entries across all facts (the CSR payload length).
    pub fn slice_count(&self) -> usize {
        self.slice_min_wh.len()
    }

    /// Appends one offer's fact with pre-resolved dimension leaf keys
    /// (same key order as [`FactRow::extract`]).
    pub fn push(&mut self, fo: &FlexOffer, keys: LeafKeys) {
        let [t, g, gr, e, p, a] = keys;
        self.offer.push(fo.id());
        self.prosumer.push(fo.prosumer());
        self.direction.push(fo.direction());
        self.status.push(fo.status());
        self.earliest_start.push(fo.earliest_start());
        self.time_leaf.push(t);
        self.geo_leaf.push(g);
        self.grid_leaf.push(gr);
        self.energy_leaf.push(e);
        self.prosumer_leaf.push(p);
        self.appliance_leaf.push(a);
        for (dict, key) in self.dicts.iter_mut().zip(keys) {
            dict.push(key);
        }
        self.status_rle.push(status_code(fo.status()));
        self.push_measures(fo);
        for s in fo.profile().slices() {
            self.slice_min_wh.push(s.min.wh());
            self.slice_max_wh.push(s.max.wh());
        }
        self.slice_offsets.push(self.slice_min_wh.len());
    }

    fn push_measures(&mut self, fo: &FlexOffer) {
        let (scheduled_wh, executed_wh, deviation_wh) = lifecycle_measures(fo);
        self.total_min_wh.push(fo.total_min_energy().wh());
        self.total_max_wh.push(fo.total_max_energy().wh());
        self.energy_flex_wh.push(fo.energy_flexibility().wh());
        self.time_flex_slots.push(fo.time_flexibility().count());
        self.scheduled_wh.push(scheduled_wh);
        self.executed_wh.push(executed_wh);
        self.deviation_wh.push(deviation_wh);
        self.price_cents.push(fo.price_per_kwh().cents());
        self.balancing_potential_wh.push(fo.balancing_potential().wh());
    }

    /// Refreshes the scalar columns of fact `idx` from its (mutated)
    /// offer: status and the lifecycle measures. Dimension keys and the
    /// CSR slice columns are untouched — an offer's profile is immutable
    /// for its whole lifecycle, so a schedule assignment or an execution
    /// rewrites a handful of words instead of a 200-byte row.
    pub fn refresh(&mut self, idx: usize, fo: &FlexOffer) {
        debug_assert_eq!(self.offer[idx], fo.id(), "refresh keyed to the wrong offer");
        let (scheduled_wh, executed_wh, deviation_wh) = lifecycle_measures(fo);
        self.status[idx] = fo.status();
        self.status_rle.set(idx, status_code(fo.status()));
        self.scheduled_wh[idx] = scheduled_wh;
        self.executed_wh[idx] = executed_wh;
        self.deviation_wh[idx] = deviation_wh;
        self.balancing_potential_wh[idx] = fo.balancing_potential().wh();
    }

    /// Drops the facts at the ascending, distinct positions `dead`,
    /// preserving survivor order — the columnar half of withdraw
    /// compaction. Only what lies after the first dead fact moves: each
    /// column shifts its survivor ranges down with one `copy_within`
    /// apiece, the CSR offsets of the shifted facts drop by the slice
    /// entries removed before them, and the run-length status column is
    /// cut at the first dead fact and re-derived from there. The
    /// dictionaries are append-only (see [`DictColumn`]), so only their
    /// per-fact codes move.
    pub fn compact(&mut self, dead: &[usize]) {
        let Some(&first) = dead.first() else { return };
        let n = self.len();
        assert!(
            dead.windows(2).all(|w| w[0] < w[1]) && dead[dead.len() - 1] < n,
            "dead positions must be ascending, distinct and in range"
        );
        let facts = || dead.iter().map(|&d| d..d + 1);
        excise(&mut self.offer, facts());
        excise(&mut self.prosumer, facts());
        excise(&mut self.direction, facts());
        excise(&mut self.status, facts());
        excise(&mut self.earliest_start, facts());
        excise(&mut self.time_leaf, facts());
        excise(&mut self.geo_leaf, facts());
        excise(&mut self.grid_leaf, facts());
        excise(&mut self.energy_leaf, facts());
        excise(&mut self.prosumer_leaf, facts());
        excise(&mut self.appliance_leaf, facts());
        excise(&mut self.total_min_wh, facts());
        excise(&mut self.total_max_wh, facts());
        excise(&mut self.energy_flex_wh, facts());
        excise(&mut self.time_flex_slots, facts());
        excise(&mut self.scheduled_wh, facts());
        excise(&mut self.executed_wh, facts());
        excise(&mut self.deviation_wh, facts());
        excise(&mut self.price_cents, facts());
        excise(&mut self.balancing_potential_wh, facts());
        for dict in &mut self.dicts {
            excise(&mut dict.codes, facts());
        }
        // Run invalidation on compact: removing facts can splice
        // arbitrary fragments of runs together, so the runs from the
        // first dead fact on are re-derived from the compacted plain
        // column instead of patched.
        self.status_rle.truncate(first);
        for &s in &self.status[first..] {
            self.status_rle.push(status_code(s));
        }

        // CSR: the dead facts' slice ranges leave the payload, then the
        // end offset of each shifted survivor drops by the slice entries
        // removed before it.
        let offsets = &mut self.slice_offsets;
        let gaps = || dead.iter().map(|&d| offsets[d]..offsets[d + 1]);
        excise(&mut self.slice_min_wh, gaps());
        excise(&mut self.slice_max_wh, gaps());
        let (mut write, mut removed) = (first + 1, 0);
        for (j, &d) in dead.iter().enumerate() {
            removed += offsets[d + 1] - offsets[d];
            // Survivors d+1 .. next dead: their end offsets sit at
            // d+2 ..= next dead.
            let ends = d + 2..dead.get(j + 1).map_or(n, |&next| next) + 1;
            let len = ends.len();
            offsets.copy_within(ends, write);
            for end in &mut offsets[write..write + len] {
                *end -= removed;
            }
            write += len;
        }
        offsets.truncate(write);
    }

    /// A copy of the store with spare capacity for `facts` more facts
    /// carrying `slices` more slice entries — what unsharing the store
    /// for an ingest batch allocates, so the batch's pushes do not
    /// reallocate (and copy) every column a second time, as an exact-size
    /// [`Clone`] followed by a push would.
    pub(crate) fn clone_with_room(&self, facts: usize, slices: usize) -> ColumnStore {
        ColumnStore {
            offer: copy_with_room(&self.offer, facts),
            prosumer: copy_with_room(&self.prosumer, facts),
            direction: copy_with_room(&self.direction, facts),
            status: copy_with_room(&self.status, facts),
            earliest_start: copy_with_room(&self.earliest_start, facts),
            time_leaf: copy_with_room(&self.time_leaf, facts),
            geo_leaf: copy_with_room(&self.geo_leaf, facts),
            grid_leaf: copy_with_room(&self.grid_leaf, facts),
            energy_leaf: copy_with_room(&self.energy_leaf, facts),
            prosumer_leaf: copy_with_room(&self.prosumer_leaf, facts),
            appliance_leaf: copy_with_room(&self.appliance_leaf, facts),
            total_min_wh: copy_with_room(&self.total_min_wh, facts),
            total_max_wh: copy_with_room(&self.total_max_wh, facts),
            energy_flex_wh: copy_with_room(&self.energy_flex_wh, facts),
            time_flex_slots: copy_with_room(&self.time_flex_slots, facts),
            scheduled_wh: copy_with_room(&self.scheduled_wh, facts),
            executed_wh: copy_with_room(&self.executed_wh, facts),
            deviation_wh: copy_with_room(&self.deviation_wh, facts),
            price_cents: copy_with_room(&self.price_cents, facts),
            balancing_potential_wh: copy_with_room(&self.balancing_potential_wh, facts),
            slice_offsets: copy_with_room(&self.slice_offsets, facts),
            slice_min_wh: copy_with_room(&self.slice_min_wh, slices),
            slice_max_wh: copy_with_room(&self.slice_max_wh, slices),
            dicts: self.dicts.each_ref().map(|d| d.clone_with_room(facts)),
            status_rle: self.status_rle.clone_with_room(facts),
        }
    }

    /// Materializes fact `idx` as a row — the gather that keeps
    /// [`FactRow`] as the common currency of row-shaped consumers and
    /// the columnar ≡ row equality gates.
    pub fn row(&self, idx: usize) -> FactRow {
        FactRow {
            offer: self.offer[idx],
            prosumer: self.prosumer[idx],
            direction: self.direction[idx],
            status: self.status[idx],
            earliest_start: self.earliest_start[idx],
            time_leaf: self.time_leaf[idx],
            geo_leaf: self.geo_leaf[idx],
            grid_leaf: self.grid_leaf[idx],
            energy_leaf: self.energy_leaf[idx],
            prosumer_leaf: self.prosumer_leaf[idx],
            appliance_leaf: self.appliance_leaf[idx],
            total_min_wh: self.total_min_wh[idx],
            total_max_wh: self.total_max_wh[idx],
            energy_flex_wh: self.energy_flex_wh[idx],
            time_flex_slots: self.time_flex_slots[idx],
            profile_len: self.slice_offsets[idx + 1] - self.slice_offsets[idx],
            scheduled_wh: self.scheduled_wh[idx],
            executed_wh: self.executed_wh[idx],
            deviation_wh: self.deviation_wh[idx],
            price_cents: self.price_cents[idx],
            balancing_potential_wh: self.balancing_potential_wh[idx],
        }
    }

    /// Materializes every fact in order — the row-oriented reference
    /// iterator.
    pub fn rows(&self) -> impl Iterator<Item = FactRow> + '_ {
        (0..self.len()).map(|i| self.row(i))
    }

    /// The per-slice energy bounds of fact `idx`, borrowed from the CSR
    /// columns.
    pub fn slices(&self, idx: usize) -> ColumnSlice<'_> {
        let (lo, hi) = (self.slice_offsets[idx], self.slice_offsets[idx + 1]);
        ColumnSlice { min_wh: &self.slice_min_wh[lo..hi], max_wh: &self.slice_max_wh[lo..hi] }
    }

    /// Offer-id column.
    pub fn offer_ids(&self) -> &[FlexOfferId] {
        &self.offer
    }

    /// Prosumer column.
    pub fn prosumers(&self) -> &[ProsumerId] {
        &self.prosumer
    }

    /// Direction column.
    pub fn directions(&self) -> &[Direction] {
        &self.direction
    }

    /// Lifecycle-status column.
    pub fn statuses(&self) -> &[OfferState] {
        &self.status
    }

    /// Earliest-start column.
    pub fn earliest_starts(&self) -> &[TimeSlot] {
        &self.earliest_start
    }

    /// Start-time flexibility column (slots) — the TFT input of
    /// columnar aggregation grouping.
    pub fn time_flex(&self) -> &[i64] {
        &self.time_flex_slots
    }

    /// Length in slots of fact `idx`'s flexibility window `[earliest
    /// start, latest end)`: its start flexibility plus its profile
    /// duration, at least one slot.
    pub(crate) fn extent_len(&self, idx: usize) -> i64 {
        self.time_flex_slots[idx] + (self.slice_offsets[idx + 1] - self.slice_offsets[idx]) as i64
    }

    /// Scheduled-energy column (Wh).
    pub fn scheduled_wh(&self) -> &[i64] {
        &self.scheduled_wh
    }

    /// Executed-energy column (Wh).
    pub fn executed_wh(&self) -> &[i64] {
        &self.executed_wh
    }

    /// Plan-deviation column (Wh).
    pub fn deviation_wh(&self) -> &[i64] {
        &self.deviation_wh
    }

    /// Σ min-bound column (Wh).
    pub fn total_min_wh(&self) -> &[i64] {
        &self.total_min_wh
    }

    /// Σ max-bound column (Wh).
    pub fn total_max_wh(&self) -> &[i64] {
        &self.total_max_wh
    }

    /// Energy-flexibility column (Wh).
    pub fn energy_flex_wh(&self) -> &[i64] {
        &self.energy_flex_wh
    }

    /// Price column (euro-cents per kWh).
    pub fn price_cents(&self) -> &[i64] {
        &self.price_cents
    }

    /// Balancing-potential column (Wh).
    pub fn balancing_potential_wh(&self) -> &[i64] {
        &self.balancing_potential_wh
    }

    /// Geography leaf column.
    pub fn geo_leaves(&self) -> &[MemberId] {
        &self.geo_leaf
    }

    /// The leaf-key column of `dimension`.
    pub fn leaves(&self, dimension: Dimension) -> &[MemberId] {
        match dimension {
            Dimension::Time => &self.time_leaf,
            Dimension::Geography => &self.geo_leaf,
            Dimension::Grid => &self.grid_leaf,
            Dimension::EnergyType => &self.energy_leaf,
            Dimension::ProsumerType => &self.prosumer_leaf,
            Dimension::Appliance => &self.appliance_leaf,
        }
    }

    /// The dictionary encoding of `dimension`'s leaf-key column.
    pub fn dict(&self, dimension: Dimension) -> &DictColumn {
        &self.dicts[match dimension {
            Dimension::Time => 0,
            Dimension::Geography => 1,
            Dimension::Grid => 2,
            Dimension::EnergyType => 3,
            Dimension::ProsumerType => 4,
            Dimension::Appliance => 5,
        }]
    }

    /// Canonical runs of the status codes ([`status_code`]).
    pub fn status_runs(&self) -> &[Run] {
        self.status_rle.runs()
    }
}

/// The three lifecycle measures extracted together (shared by push and
/// refresh so the columnar store and [`FactRow::extract`] can never
/// disagree).
fn lifecycle_measures(fo: &FlexOffer) -> (i64, i64, i64) {
    let scheduled_wh = fo.schedule().map(|s| s.total().wh()).unwrap_or(0);
    let executed_wh = fo.execution().map(|e| e.total().wh()).unwrap_or(0);
    let deviation_wh = match (fo.schedule(), fo.execution()) {
        (Some(s), Some(e)) => e.total_absolute_deviation(s).wh(),
        _ => 0,
    };
    (scheduled_wh, executed_wh, deviation_wh)
}

/// Removes the ascending, disjoint index ranges `gaps` from `column`,
/// preserving the order of what remains. Nothing before the first gap
/// moves; each survivor range after it shifts down with one
/// `copy_within`.
fn excise<T: Copy>(column: &mut Vec<T>, gaps: impl Iterator<Item = Range<usize>>) {
    let mut gaps = gaps.peekable();
    let Some(mut write) = gaps.peek().map(|g| g.start) else { return };
    let len = column.len();
    while let Some(gap) = gaps.next() {
        let keep = gap.end..gaps.peek().map_or(len, |next| next.start);
        let n = keep.len();
        column.copy_within(keep, write);
        write += n;
    }
    column.truncate(write);
}

/// Withdraw's old→new position map, kept as the batch's ascending
/// `dead` positions rather than one entry per fact: moves the fact
/// position `idx` to where it lands once `dead` is compacted away (down
/// by the dead positions before it) and returns `false` when `idx` is
/// itself dead.
pub(crate) fn remap(dead: &[usize], idx: &mut usize) -> bool {
    let below = dead.partition_point(|&d| d < *idx);
    if dead.get(below) == Some(idx) {
        return false;
    }
    *idx -= below;
    true
}

/// A set of fact positions below a bound, filled in any order and read
/// back ascending: one bit per position, then a walk over the set words.
/// That is O(inserted + bound/64) and allocation-friendly (a million
/// facts take 128 KiB, cache-resident), where sorting the positions
/// would pay O(n log n). The per-region and time indices both return
/// their candidates in fact order through it.
pub(crate) struct FactBitmap {
    words: Vec<u64>,
    /// Inserts so far: the output's capacity (exact when, as for both
    /// indices, no position is inserted twice).
    inserts: usize,
}

impl FactBitmap {
    /// An empty set over the positions `0..bound`.
    pub(crate) fn new(bound: usize) -> FactBitmap {
        FactBitmap { words: vec![0; bound.div_ceil(64)], inserts: 0 }
    }

    /// Adds position `idx`.
    pub(crate) fn insert(&mut self, idx: usize) {
        self.words[idx / 64] |= 1 << (idx % 64);
        self.inserts += 1;
    }

    /// The positions in the set, ascending.
    pub(crate) fn into_ascending(self) -> Vec<usize> {
        let mut out = Vec::with_capacity(self.inserts);
        for (w, &word) in self.words.iter().enumerate() {
            let mut word = word;
            while word != 0 {
                out.push(w * 64 + word.trailing_zeros() as usize);
                word &= word - 1;
            }
        }
        out
    }
}

/// `column` copied into an allocation with room for `extra` more
/// entries.
fn copy_with_room<T: Copy>(column: &[T], extra: usize) -> Vec<T> {
    let mut copy = Vec::with_capacity(column.len() + extra);
    copy.extend_from_slice(column);
    copy
}

#[cfg(test)]
mod tests {
    use super::*;
    use mirabel_flexoffer::{Energy, Schedule};
    use mirabel_timeseries::TimeSlot;

    fn keys() -> LeafKeys {
        [MemberId(1), MemberId(2), MemberId(3), MemberId(4), MemberId(5), MemberId(6)]
    }

    fn offer(id: u64, est: i64, len: usize, min: i64, max: i64) -> FlexOffer {
        FlexOffer::builder(id, id)
            .earliest_start(TimeSlot::new(est))
            .latest_start(TimeSlot::new(est + 4))
            .slices(len, Energy::from_wh(min), Energy::from_wh(max))
            .build()
            .unwrap()
    }

    #[test]
    fn push_and_row_round_trip_through_extract() {
        let mut cs = ColumnStore::new();
        let offers = [offer(1, 0, 3, 10, 40), offer(2, 5, 2, 0, 100), offer(3, 9, 4, 7, 7)];
        for fo in &offers {
            cs.push(fo, keys());
        }
        assert_eq!(cs.len(), 3);
        assert_eq!(cs.slice_count(), 9);
        let [t, g, gr, e, p, a] = keys();
        for (i, fo) in offers.iter().enumerate() {
            assert_eq!(cs.row(i), FactRow::extract(fo, t, g, gr, e, p, a), "row {i}");
        }
        let rows: Vec<FactRow> = cs.rows().collect();
        assert_eq!(rows.len(), 3);
        assert_eq!(rows[1].offer, FlexOfferId(2));
    }

    #[test]
    fn slices_borrow_the_csr_columns() {
        let mut cs = ColumnStore::new();
        cs.push(&offer(1, 0, 2, 10, 40), keys());
        cs.push(&offer(2, 5, 3, 1, 2), keys());
        let s0 = cs.slices(0);
        assert_eq!(s0.len(), 2);
        assert!(!s0.is_empty());
        assert_eq!(s0.min_wh, &[10, 10]);
        assert_eq!(s0.max_wh, &[40, 40]);
        let s1 = cs.slices(1);
        assert_eq!((s1.min_wh, s1.max_wh), (&[1i64, 1, 1][..], &[2i64, 2, 2][..]));
    }

    #[test]
    fn refresh_rewrites_only_lifecycle_scalars() {
        let mut cs = ColumnStore::new();
        let mut fo = offer(7, 0, 2, 0, 1_000);
        cs.push(&fo, keys());
        fo.accept().unwrap();
        fo.assign(Schedule::new(TimeSlot::new(1), vec![Energy::from_wh(600); 2])).unwrap();
        cs.refresh(0, &fo);
        assert_eq!(cs.statuses()[0], OfferState::Scheduled);
        assert_eq!(cs.scheduled_wh()[0], 1_200);
        // Keys and profile columns untouched.
        assert_eq!(cs.leaves(Dimension::Time)[0], MemberId(1));
        assert_eq!(cs.slices(0).max_wh, &[1_000, 1_000]);
        // The materialized row agrees with a fresh extract.
        let [t, g, gr, e, p, a] = keys();
        assert_eq!(cs.row(0), FactRow::extract(&fo, t, g, gr, e, p, a));
    }

    #[test]
    fn compact_drops_dead_facts_and_their_slices() {
        let mut cs = ColumnStore::new();
        let offers = [offer(1, 0, 1, 1, 2), offer(2, 1, 2, 3, 4), offer(3, 2, 3, 5, 6)];
        for fo in &offers {
            cs.push(fo, keys());
        }
        cs.compact(&[1]);
        assert_eq!(cs.len(), 2);
        assert_eq!(cs.offer_ids(), &[FlexOfferId(1), FlexOfferId(3)]);
        assert_eq!(cs.slice_count(), 4);
        assert_eq!(cs.slices(1).min_wh, &[5, 5, 5]);
        assert_eq!(cs.row(1).profile_len, 3);
        // Compacting nothing is a structural no-op.
        let before = cs.clone();
        cs.compact(&[]);
        assert_eq!(cs, before);
    }

    #[test]
    fn empty_store_is_consistent() {
        let cs = ColumnStore::new();
        assert!(cs.is_empty());
        assert_eq!(cs.len(), 0);
        assert_eq!(cs.slice_count(), 0);
        assert_eq!(cs.rows().count(), 0);
        assert!(cs.status_runs().is_empty());
        let with_cap = ColumnStore::with_capacity(64);
        assert!(with_cap.is_empty());
    }

    #[test]
    fn codes_are_positions_in_the_all_constants() {
        for (i, s) in OfferState::ALL.into_iter().enumerate() {
            assert_eq!(status_code(s) as usize, i);
        }
    }

    /// Decodes an RLE column back to one value per fact.
    fn decode(runs: &[Run]) -> Vec<u32> {
        let mut out = Vec::new();
        for r in runs {
            out.resize(r.end as usize, r.value);
        }
        out
    }

    /// Asserts every encoded column decodes to its plain twin and the
    /// runs are canonical (adjacent runs distinct, ends ascending).
    fn assert_encoded_consistent(cs: &ColumnStore) {
        for dim in Dimension::ALL {
            let dc = cs.dict(dim);
            assert_eq!(dc.codes().len(), cs.len());
            let decoded: Vec<MemberId> = (0..cs.len()).map(|i| dc.member(i)).collect();
            assert_eq!(decoded, cs.leaves(dim), "{dim:?} dictionary decode diverged");
            for (code, &m) in dc.dict().iter().enumerate() {
                assert_eq!(dc.code(m), Some(code as u32));
            }
        }
        let runs = cs.status_runs();
        let plain: Vec<u32> = cs.statuses().iter().map(|&s| status_code(s)).collect();
        assert_eq!(decode(runs), plain);
        for w in runs.windows(2) {
            assert!(w[0].value != w[1].value, "non-canonical adjacent runs: {runs:?}");
            assert!(w[0].end < w[1].end);
        }
        assert_eq!(runs.last().map(|r| r.end as usize).unwrap_or(0), cs.len());
    }

    #[test]
    fn encoded_columns_track_push_refresh_and_compact() {
        let mut cs = ColumnStore::new();
        let mut offers: Vec<FlexOffer> =
            (0..8).map(|i| offer(i + 1, i as i64, 2, 0, 1_000)).collect();
        for fo in &offers {
            cs.push(fo, keys());
        }
        assert_encoded_consistent(&cs);
        // All Offered: one status run.
        assert_eq!(cs.status_runs().len(), 1);

        // Point updates split and re-merge runs canonically.
        for &i in &[3usize, 4, 0, 7] {
            offers[i].accept().unwrap();
            cs.refresh(i, &offers[i]);
            assert_encoded_consistent(&cs);
        }
        // 3 and 4 merged into one Accepted run.
        assert_eq!(decode(cs.status_runs())[3..5], [1, 1]);

        // Flipping one back exercises the same-value early return too.
        cs.refresh(3, &offers[3]);
        assert_encoded_consistent(&cs);

        // Compaction drops codes and re-derives runs from the survivors.
        cs.compact(&[0, 3]);
        assert_eq!(cs.len(), 6);
        assert_encoded_consistent(&cs);
        // The dictionary never renumbers: surviving codes still decode.
        let before = cs.clone();
        cs.compact(&[]);
        assert_eq!(cs, before, "no-op compact must be a structural no-op");
    }

    #[test]
    fn compact_equals_the_survivor_filter_for_seeded_dead_sets() {
        let mut state = 0x00C0_FFEE_u64;
        let mut next = |bound: u64| {
            state = state
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1_442_695_040_888_963_407);
            (state >> 33) % bound
        };
        for round in 0..200 {
            let n = next(24) as usize + 1;
            let mut cs = ColumnStore::new();
            for i in 0..n {
                let direction = Direction::ALL[next(2) as usize];
                let mut fo = FlexOffer::builder(i as u64 + 1, i as u64 + 1)
                    .earliest_start(TimeSlot::new(i as i64))
                    .direction(direction)
                    .slices(next(4) as usize + 1, Energy::from_wh(0), Energy::from_wh(90))
                    .build()
                    .unwrap();
                if next(3) == 0 {
                    fo.accept().unwrap();
                }
                let k = next(5) as u32;
                cs.push(&fo, [k, k + 1, k % 2, 7, k + 3, 1].map(MemberId));
            }
            let dead: Vec<usize> = (0..n).filter(|_| next(4) == 0).collect();
            let original = cs.clone();
            cs.compact(&dead);

            let survivors: Vec<usize> = (0..n).filter(|i| !dead.contains(i)).collect();
            let rows: Vec<FactRow> = survivors.iter().map(|&i| original.row(i)).collect();
            assert_eq!(cs.rows().collect::<Vec<_>>(), rows, "round {round}: rows");
            for (k, &i) in survivors.iter().enumerate() {
                assert_eq!(cs.slices(k), original.slices(i), "round {round}: slices of fact {i}");
            }
            assert_eq!(cs.slice_count(), survivors.iter().map(|&i| original.slices(i).len()).sum());
            for dim in Dimension::ALL {
                let codes: Vec<u32> =
                    survivors.iter().map(|&i| original.dict(dim).codes()[i]).collect();
                assert_eq!(cs.dict(dim).codes(), codes, "round {round}: {dim:?} codes");
                assert_eq!(
                    cs.dict(dim).dict(),
                    original.dict(dim).dict(),
                    "append-only dictionary"
                );
            }
            assert_encoded_consistent(&cs);
            // A copy with room compacts to the same store.
            let mut roomy = original.clone_with_room(5, 9);
            assert_eq!(roomy, original);
            roomy.compact(&dead);
            assert_eq!(roomy, cs, "round {round}: compacting a copy with room");
        }
    }

    #[test]
    fn rle_truncate_keeps_the_canonical_prefix() {
        let values = [1u32, 1, 2, 2, 2, 0, 1, 1];
        let full = RleColumn::from_values(values.into_iter());
        for len in 0..=values.len() {
            let mut cut = full.clone();
            cut.truncate(len);
            assert_eq!(cut, RleColumn::from_values(values[..len].iter().copied()), "len {len}");
        }
    }

    #[test]
    fn rle_point_updates_cover_all_split_shapes() {
        // One run of five, then hit head, tail, middle, and re-merge.
        let mut rle = RleColumn::from_values([7u32; 5].into_iter());
        rle.set(0, 1); // head split
        rle.set(4, 1); // tail split
        rle.set(2, 1); // middle split
        assert_eq!(rle.runs().len(), 5);
        rle.set(1, 1); // merges 0..2
        rle.set(3, 1); // merges everything
        assert_eq!(rle.runs(), &[Run { value: 1, end: 5 }]);
        for i in 0..5 {
            assert_eq!(rle.value(i), 1);
        }
        // Single-element three-way merge.
        let mut rle = RleColumn::from_values([2u32, 9, 2].into_iter());
        rle.set(1, 2);
        assert_eq!(rle.runs(), &[Run { value: 2, end: 3 }]);
    }
}
