//! Struct-of-arrays fact storage in copy-on-write segments: the columnar
//! twin of [`FactRow`].
//!
//! The row-oriented fact table made every aggregate query walk an array
//! of ~200-byte structs to read one 8-byte measure. At city scale that
//! is cache-hostile; at the 10M-offer scale the ROADMAP targets it is
//! the difference between a nightly that holds the publish bound and
//! one that does not. The [`ColumnStore`] keeps each fact attribute in
//! its own contiguous column, so:
//!
//! * a measure scan ([`crate::Measure::value_at`]) touches exactly the
//!   column it aggregates;
//! * per-slice maximum energies live in one CSR-shaped pair
//!   (`slice_offsets` + `slice_max_wh`) instead of a `Vec` allocation
//!   per offer — profiles are immutable for an offer's whole lifecycle,
//!   so these columns are written once at ingest and only moved by
//!   withdraw compaction;
//! * lifecycle mutations (schedule assignment, execution metering)
//!   rewrite only the handful of scalar columns that actually change.
//!
//! # Segments
//!
//! The columns are cut into [`Segment`]s of [`SEGMENT_FACTS`] facts, each
//! behind its own `Arc`. A segment holds every column of its facts —
//! measures, identity and status, the dictionary codes of the leaf keys
//! and the CSR slice payload — plus their `Arc<FlexOffer>` handles.
//! Every segment but the last is full, so fact `i` sits at offset
//! `i % SEGMENT_FACTS` of segment `i / SEGMENT_FACTS`. The six leaf
//! dictionaries ([`DictColumn`]) are shared by all segments and
//! append-only, so a code names the same member in every segment and in
//! every epoch; a leaf key is stored once, as its code, and
//! [`ColumnStore::leaf`] decodes it.
//!
//! Cloning the store (the live warehouse's epoch publish) copies the
//! vector of segment handles. A write unshares only the segments it
//! writes: an append the tail, a lifecycle refresh the segment of its
//! fact, a withdrawal every segment from the first withdrawn fact on
//! (compaction keeps fact order). A shared segment is never written.
//! Readers walk [`ColumnStore::segments`] in fact order over plain
//! slices; [`FactColumn`] reads one column by fact position across them.
//! [`FactRow`] survives as the *materialized row view* —
//! [`ColumnStore::row`] gathers one — so row-shaped consumers and the
//! columnar ≡ row equality gates keep a common currency.

use std::iter::FusedIterator;
use std::ops::{Index, Range};
use std::sync::Arc;

use mirabel_flexoffer::{Direction, FlexOffer, FlexOfferId, OfferState, ProsumerId};
use mirabel_timeseries::TimeSlot;

use crate::fact::FactRow;
use crate::hierarchy::{Dimension, MemberId};

/// The six dimension leaf keys of one fact, in the fixed order
/// (time, geography, grid, energy type, prosumer type, appliance).
pub type LeafKeys = [MemberId; 6];

/// Facts per [`Segment`]. A withdrawal rewrites the segments from its
/// first withdrawn fact on, so smaller segments copy less of a live
/// warehouse whose withdrawals hit young offers near the tail; 1,024
/// keeps the per-segment walk overhead of a full scan negligible.
pub const SEGMENT_FACTS: usize = 1 << SEGMENT_BITS;

const SEGMENT_BITS: u32 = 10;

/// The segment holding fact `idx`, and the fact's offset inside it.
#[inline]
pub(crate) fn locate(idx: usize) -> (usize, usize) {
    (idx >> SEGMENT_BITS, idx & (SEGMENT_FACTS - 1))
}

/// Dense code of a lifecycle status: its position in
/// [`OfferState::ALL`]. Status predicates resolve to a mask over these
/// codes.
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

/// The dictionary of one dictionary-encoded leaf-key column: the
/// distinct [`MemberId`]s in first-seen order. Each segment stores one
/// dense `u32` code per fact ([`Segment::codes`]) indexing it.
///
/// Code assignment rules (these make the encoding a *canonical*
/// function of the push sequence, so two stores that saw the same
/// operations compare equal):
///
/// * a member's code is its first-seen position in the push order;
/// * the dictionary is **append-only** — withdraw compaction drops codes
///   of dead facts but never renumbers or garbage-collects the
///   dictionary, so codes stay stable across an epoch's lifetime and
///   predicate masks resolved against one epoch's dictionary index the
///   next epoch's codes correctly.
///
/// Hierarchy member ids are dense and small (tens of members per
/// dimension), so the reverse map is a flat `Vec` indexed by
/// `MemberId`.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct DictColumn {
    dict: Vec<MemberId>,
    /// `member.0 → code + 1`; 0 = member not in the dictionary.
    code_of: Vec<u32>,
}

impl DictColumn {
    /// The code of `member`, interning it on first sight.
    fn intern(&mut self, member: MemberId) -> u32 {
        let slot = member.0 as usize;
        if slot >= self.code_of.len() {
            self.code_of.resize(slot + 1, 0);
        }
        if self.code_of[slot] == 0 {
            self.dict.push(member);
            self.code_of[slot] = u32::try_from(self.dict.len()).expect("fewer than 2^32 members");
        }
        self.code_of[slot] - 1
    }

    /// The distinct members, indexed by code.
    pub fn dict(&self) -> &[MemberId] {
        &self.dict
    }

    /// The code of `member`, if it ever occurred in this column.
    pub fn code(&self, member: MemberId) -> Option<u32> {
        let raw = *self.code_of.get(member.0 as usize)?;
        (raw != 0).then(|| raw - 1)
    }

    /// Resolves a predicate over members to a mask over codes — the
    /// once-per-query step that lets evaluation test `mask[code]`
    /// instead of walking a hierarchy per fact.
    pub fn mask(&self, mut keep: impl FnMut(MemberId) -> bool) -> Vec<bool> {
        self.dict.iter().map(|&m| keep(m)).collect()
    }
}

/// Positions of the nine measure-input columns in [`Segment`]'s
/// `measures` array.
const TOTAL_MIN: usize = 0;
const TOTAL_MAX: usize = 1;
const ENERGY_FLEX: usize = 2;
const TIME_FLEX: usize = 3;
const SCHEDULED: usize = 4;
const EXECUTED: usize = 5;
const DEVIATION: usize = 6;
const PRICE: usize = 7;
const BALANCING: usize = 8;

/// One copy-on-write block of up to [`SEGMENT_FACTS`] consecutive facts:
/// every fact column of those facts (offsets in its CSR slice columns are
/// local to the segment) and their offer handles. See the
/// [`ColumnStore`] docs.
///
/// All per-fact columns share one length ([`Segment::len`]); the CSR
/// offsets column has `len + 1` entries, starting at 0.
#[derive(Debug, PartialEq)]
pub struct Segment {
    offer: Vec<FlexOfferId>,
    prosumer: Vec<ProsumerId>,
    direction: Vec<Direction>,
    status: Vec<OfferState>,
    earliest_start: Vec<TimeSlot>,
    /// Leaf keys in [`Dimension::ALL`] order, as codes of the store's
    /// dictionaries.
    codes: [Vec<u32>; 6],
    /// Σ min, Σ max, energy flexibility, time flexibility, scheduled,
    /// executed, deviation, price and balancing potential (see the
    /// `TOTAL_MIN`.. constants).
    measures: [Vec<i64>; 9],
    /// CSR offsets into the slice columns: the slices of offset `k` live
    /// at `slice_offsets[k]..slice_offsets[k + 1]`.
    slice_offsets: Vec<usize>,
    slice_max_wh: Vec<i64>,
    offers: Vec<Arc<FlexOffer>>,
}

impl Segment {
    /// An empty segment with room for [`SEGMENT_FACTS`] facts.
    fn empty() -> Segment {
        fn column<T>() -> Vec<T> {
            Vec::with_capacity(SEGMENT_FACTS)
        }
        let mut slice_offsets = Vec::with_capacity(SEGMENT_FACTS + 1);
        slice_offsets.push(0);
        Segment {
            offer: column(),
            prosumer: column(),
            direction: column(),
            status: column(),
            earliest_start: column(),
            codes: std::array::from_fn(|_| column()),
            measures: std::array::from_fn(|_| column()),
            slice_offsets,
            slice_max_wh: Vec::new(),
            offers: column(),
        }
    }

    /// Number of facts.
    pub fn len(&self) -> usize {
        self.offer.len()
    }

    /// `true` when the segment holds no facts.
    pub fn is_empty(&self) -> bool {
        self.offer.is_empty()
    }

    /// Appends one fact with the codes of its leaf keys.
    fn push(&mut self, fo: Arc<FlexOffer>, codes: [u32; 6]) {
        self.offer.push(fo.id());
        self.prosumer.push(fo.prosumer());
        self.direction.push(fo.direction());
        self.status.push(fo.status());
        self.earliest_start.push(fo.earliest_start());
        for (column, code) in self.codes.iter_mut().zip(codes) {
            column.push(code);
        }
        let (scheduled_wh, executed_wh, deviation_wh) = lifecycle_measures(&fo);
        let values = [
            fo.total_min_energy().wh(),
            fo.total_max_energy().wh(),
            fo.energy_flexibility().wh(),
            fo.time_flexibility().count(),
            scheduled_wh,
            executed_wh,
            deviation_wh,
            fo.price_per_kwh().cents(),
            fo.balancing_potential().wh(),
        ];
        for (column, value) in self.measures.iter_mut().zip(values) {
            column.push(value);
        }
        self.slice_max_wh.extend(fo.profile().slices().iter().map(|s| s.max.wh()));
        self.slice_offsets.push(self.slice_max_wh.len());
        self.offers.push(fo);
    }

    /// Appends the facts at offsets `range` of `src`, in order, with one
    /// slice copy per column.
    fn extend_from(&mut self, src: &Segment, range: Range<usize>) {
        if range.is_empty() {
            return;
        }
        self.offer.extend_from_slice(&src.offer[range.clone()]);
        self.prosumer.extend_from_slice(&src.prosumer[range.clone()]);
        self.direction.extend_from_slice(&src.direction[range.clone()]);
        self.status.extend_from_slice(&src.status[range.clone()]);
        self.earliest_start.extend_from_slice(&src.earliest_start[range.clone()]);
        for (to, from) in self.codes.iter_mut().zip(&src.codes) {
            to.extend_from_slice(&from[range.clone()]);
        }
        for (to, from) in self.measures.iter_mut().zip(&src.measures) {
            to.extend_from_slice(&from[range.clone()]);
        }
        let (first, last) = (src.slice_offsets[range.start], src.slice_offsets[range.end]);
        let base = self.slice_max_wh.len();
        self.slice_max_wh.extend_from_slice(&src.slice_max_wh[first..last]);
        self.slice_offsets.extend(
            src.slice_offsets[range.start + 1..=range.end].iter().map(|&end| end - first + base),
        );
        self.offers.extend_from_slice(&src.offers[range]);
    }

    /// Refreshes offset `k`'s scalar columns from its (mutated) offer:
    /// status and the lifecycle measures. Dimension keys and the CSR
    /// slice columns are untouched — an offer's profile is immutable for
    /// its whole lifecycle, so a schedule assignment or an execution
    /// rewrites a handful of words instead of a 200-byte row.
    fn refresh(&mut self, k: usize) {
        let fo = Arc::clone(&self.offers[k]);
        let (scheduled_wh, executed_wh, deviation_wh) = lifecycle_measures(&fo);
        self.status[k] = fo.status();
        self.measures[SCHEDULED][k] = scheduled_wh;
        self.measures[EXECUTED][k] = executed_wh;
        self.measures[DEVIATION][k] = deviation_wh;
        self.measures[BALANCING][k] = fo.balancing_potential().wh();
    }

    /// Materializes offset `k` as a row, decoding its leaf keys through
    /// `dicts`.
    fn row(&self, k: usize, dicts: &[DictColumn; 6]) -> FactRow {
        let [time_leaf, geo_leaf, grid_leaf, energy_leaf, prosumer_leaf, appliance_leaf] =
            std::array::from_fn(|d| dicts[d].dict[self.codes[d][k] as usize]);
        let m = |column: usize| self.measures[column][k];
        FactRow {
            offer: self.offer[k],
            prosumer: self.prosumer[k],
            direction: self.direction[k],
            status: self.status[k],
            earliest_start: self.earliest_start[k],
            time_leaf,
            geo_leaf,
            grid_leaf,
            energy_leaf,
            prosumer_leaf,
            appliance_leaf,
            total_min_wh: m(TOTAL_MIN),
            total_max_wh: m(TOTAL_MAX),
            energy_flex_wh: m(ENERGY_FLEX),
            time_flex_slots: m(TIME_FLEX),
            profile_len: self.slice_offsets[k + 1] - self.slice_offsets[k],
            scheduled_wh: m(SCHEDULED),
            executed_wh: m(EXECUTED),
            deviation_wh: m(DEVIATION),
            price_cents: m(PRICE),
            balancing_potential_wh: m(BALANCING),
        }
    }

    /// The per-slice maximum energies of offset `k` (Wh), one entry per
    /// profile slot.
    pub fn slice_max_wh(&self, k: usize) -> &[i64] {
        &self.slice_max_wh[self.slice_offsets[k]..self.slice_offsets[k + 1]]
    }

    /// Length in slots of offset `k`'s flexibility window `[earliest
    /// start, latest end)`: its start flexibility plus its profile
    /// duration, at least one slot.
    pub(crate) fn extent_len(&self, k: usize) -> i64 {
        self.measures[TIME_FLEX][k] + (self.slice_offsets[k + 1] - self.slice_offsets[k]) as i64
    }

    /// The facts' offers, shared with every epoch holding this segment.
    pub fn offers(&self) -> &[Arc<FlexOffer>] {
        &self.offers
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

    /// The dictionary codes of `dimension`'s leaf keys (see
    /// [`ColumnStore::dict`]).
    pub fn codes(&self, dimension: Dimension) -> &[u32] {
        &self.codes[dimension as usize]
    }

    /// The six code columns, in [`Dimension::ALL`] order.
    pub(crate) fn all_codes(&self) -> [&[u32]; 6] {
        self.codes.each_ref().map(Vec::as_slice)
    }

    /// Start-time flexibility column (slots).
    pub fn time_flex(&self) -> &[i64] {
        &self.measures[TIME_FLEX]
    }

    /// Scheduled-energy column (Wh).
    pub fn scheduled_wh(&self) -> &[i64] {
        &self.measures[SCHEDULED]
    }

    /// Executed-energy column (Wh).
    pub fn executed_wh(&self) -> &[i64] {
        &self.measures[EXECUTED]
    }

    /// Plan-deviation column (Wh).
    pub fn deviation_wh(&self) -> &[i64] {
        &self.measures[DEVIATION]
    }

    /// Σ min-bound column (Wh).
    pub fn total_min_wh(&self) -> &[i64] {
        &self.measures[TOTAL_MIN]
    }

    /// Σ max-bound column (Wh).
    pub fn total_max_wh(&self) -> &[i64] {
        &self.measures[TOTAL_MAX]
    }

    /// Energy-flexibility column (Wh).
    pub fn energy_flex_wh(&self) -> &[i64] {
        &self.measures[ENERGY_FLEX]
    }

    /// Price column (euro-cents per kWh).
    pub fn price_cents(&self) -> &[i64] {
        &self.measures[PRICE]
    }

    /// Balancing-potential column (Wh).
    pub fn balancing_potential_wh(&self) -> &[i64] {
        &self.measures[BALANCING]
    }
}

impl Clone for Segment {
    /// A copy with room for a full segment, at the source's slices per
    /// fact: appending to a copied tail never reallocates its columns.
    fn clone(&self) -> Segment {
        let mut copy = Segment::empty();
        copy.extend_from(self, 0..self.len());
        let room =
            (SEGMENT_FACTS - self.len()) * self.slice_max_wh.len().div_ceil(self.len().max(1));
        copy.slice_max_wh.reserve(room);
        copy
    }
}

/// Struct-of-arrays fact storage in copy-on-write [`Segment`]s plus the
/// six shared leaf dictionaries. See the module docs (`columns.rs`) for
/// why.
///
/// Invariants are upheld by the mutators (push, lifecycle refresh,
/// compaction) and spot-checked by the live warehouse's torn-epoch
/// probe: every segment but the last is full, and no segment is empty.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ColumnStore {
    segments: Vec<Arc<Segment>>,
    /// Dictionaries of the six leaf-key columns, in [`Dimension::ALL`]
    /// order; unshared only when a push meets a new member.
    dicts: Arc<[DictColumn; 6]>,
}

impl ColumnStore {
    /// An empty store.
    pub fn new() -> ColumnStore {
        ColumnStore::default()
    }

    /// An empty store with room for the segment handles of `n` facts.
    pub fn with_capacity(n: usize) -> ColumnStore {
        ColumnStore {
            segments: Vec::with_capacity(n.div_ceil(SEGMENT_FACTS)),
            ..Default::default()
        }
    }

    /// Number of facts.
    pub fn len(&self) -> usize {
        self.segments
            .last()
            .map_or(0, |tail| (self.segments.len() - 1) * SEGMENT_FACTS + tail.len())
    }

    /// `true` when no facts are loaded.
    pub fn is_empty(&self) -> bool {
        self.segments.is_empty()
    }

    /// Total slice entries across all facts (the CSR payload length).
    pub fn slice_count(&self) -> usize {
        self.segments.iter().map(|s| s.slice_max_wh.len()).sum()
    }

    /// The segments in fact order: segment `s` holds the facts from
    /// `s * SEGMENT_FACTS` on.
    pub fn segments(&self) -> &[Arc<Segment>] {
        &self.segments
    }

    /// Appends one offer's fact with pre-resolved dimension leaf keys
    /// (same key order as [`FactRow::extract`]), unsharing the tail
    /// segment.
    pub(crate) fn push(&mut self, fo: &FlexOffer, keys: LeafKeys) {
        let mut codes = [0; 6];
        for (d, &key) in keys.iter().enumerate() {
            codes[d] = match self.dicts[d].code(key) {
                Some(code) => code,
                None => Arc::make_mut(&mut self.dicts)[d].intern(key),
            };
        }
        if self.segments.last().is_none_or(|tail| tail.len() == SEGMENT_FACTS) {
            self.segments.push(Arc::new(Segment::empty()));
        }
        let tail = self.segments.last_mut().expect("a tail segment with room");
        Arc::make_mut(tail).push(Arc::new(fo.clone()), codes);
    }

    /// Mutates fact `idx`'s offer through `change`, unsharing its segment
    /// and its offer, and refreshes the fact's scalar columns when
    /// `change` returns `true`.
    pub(crate) fn update(&mut self, idx: usize, change: impl FnOnce(&mut FlexOffer) -> bool) {
        let (s, k) = locate(idx);
        let segment = Arc::make_mut(&mut self.segments[s]);
        if change(Arc::make_mut(&mut segment.offers[k])) {
            segment.refresh(k);
        }
    }

    /// Drops the facts at the ascending, distinct positions `dead`,
    /// preserving survivor order — the columnar half of withdraw
    /// compaction. The segments before the first dead fact stay shared;
    /// the survivors from that segment on are copied, one slice per
    /// column and survivor range, into fresh full segments. The
    /// dictionaries are append-only (see [`DictColumn`]), so only codes
    /// move.
    pub(crate) fn compact(&mut self, dead: &[usize]) {
        let Some(&first) = dead.first() else { return };
        assert!(
            dead.windows(2).all(|w| w[0] < w[1]) && dead[dead.len() - 1] < self.len(),
            "dead positions must be ascending, distinct and in range"
        );
        let (from, _) = locate(first);
        let old = self.segments.split_off(from);
        let mut dead = dead.iter().copied().peekable();
        let mut out = Segment::empty();
        for (j, segment) in old.iter().enumerate() {
            let base = (from + j) * SEGMENT_FACTS;
            let mut lo = 0;
            loop {
                let hi =
                    dead.next_if(|&d| d < base + segment.len()).map_or(segment.len(), |d| d - base);
                let mut at = lo;
                while at < hi {
                    let take = (hi - at).min(SEGMENT_FACTS - out.len());
                    out.extend_from(segment, at..at + take);
                    at += take;
                    if out.len() == SEGMENT_FACTS {
                        self.segments.push(Arc::new(std::mem::replace(&mut out, Segment::empty())));
                    }
                }
                if hi == segment.len() {
                    break;
                }
                lo = hi + 1;
            }
        }
        if !out.is_empty() {
            self.segments.push(Arc::new(out));
        }
    }

    /// Materializes fact `idx` as a row — the gather that keeps
    /// [`FactRow`] as the common currency of row-shaped consumers and
    /// the columnar ≡ row equality gates.
    pub fn row(&self, idx: usize) -> FactRow {
        let (s, k) = locate(idx);
        self.segments[s].row(k, &self.dicts)
    }

    /// Materializes every fact in order — the row-oriented reference
    /// iterator.
    pub fn rows(&self) -> impl Iterator<Item = FactRow> + '_ {
        let dicts = &*self.dicts;
        self.segments.iter().flat_map(move |s| (0..s.len()).map(move |k| s.row(k, dicts)))
    }

    /// The leaf key of fact `idx` in `dimension`: its code decoded
    /// through the dimension's dictionary.
    pub fn leaf(&self, idx: usize, dimension: Dimension) -> MemberId {
        let (s, k) = locate(idx);
        let d = dimension as usize;
        self.dicts[d].dict[self.segments[s].codes[d][k] as usize]
    }

    /// The offer of fact `idx`.
    pub(crate) fn offer(&self, idx: usize) -> &Arc<FlexOffer> {
        let (s, k) = locate(idx);
        &self.segments[s].offers[k]
    }

    fn column<T>(&self, field: fn(&Segment) -> &[T]) -> FactColumn<'_, T> {
        FactColumn { slices: self.segments.iter().map(|s| field(s)).collect(), len: self.len() }
    }

    /// The offers, shared with the detail views (see
    /// [`Warehouse::offers`](crate::Warehouse::offers)).
    pub fn offers(&self) -> FactColumn<'_, Arc<FlexOffer>> {
        self.column(Segment::offers)
    }

    /// Offer-id column.
    pub fn offer_ids(&self) -> FactColumn<'_, FlexOfferId> {
        self.column(Segment::offer_ids)
    }

    /// Prosumer column.
    pub fn prosumers(&self) -> FactColumn<'_, ProsumerId> {
        self.column(Segment::prosumers)
    }

    /// Direction column.
    pub fn directions(&self) -> FactColumn<'_, Direction> {
        self.column(Segment::directions)
    }

    /// Lifecycle-status column.
    pub fn statuses(&self) -> FactColumn<'_, OfferState> {
        self.column(Segment::statuses)
    }

    /// Earliest-start column.
    pub fn earliest_starts(&self) -> FactColumn<'_, TimeSlot> {
        self.column(Segment::earliest_starts)
    }

    /// Executed-energy column (Wh).
    pub fn executed_wh(&self) -> FactColumn<'_, i64> {
        self.column(Segment::executed_wh)
    }

    /// The dictionary of `dimension`'s leaf-key column; the per-fact
    /// codes live in the segments ([`Segment::codes`]).
    pub fn dict(&self, dimension: Dimension) -> &DictColumn {
        &self.dicts[dimension as usize]
    }
}

/// One fact column read across a store's segments: by fact position
/// (`column[i]`) or in fact order. It holds one slice per segment, so a
/// read by position is two loads from a small, hot table; kernels that
/// scan walk [`ColumnStore::segments`] over plain slices instead.
#[derive(Debug, Clone)]
pub struct FactColumn<'a, T> {
    slices: Vec<&'a [T]>,
    len: usize,
}

impl<'a, T> FactColumn<'a, T> {
    /// Number of facts.
    pub fn len(&self) -> usize {
        self.len
    }

    /// `true` when the store holds no facts.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The value of fact `idx`, if there is one.
    pub fn get(&self, idx: usize) -> Option<&'a T> {
        let (s, k) = locate(idx);
        self.slices.get(s)?.get(k)
    }

    /// The values in fact order.
    pub fn iter(&self) -> FactIter<'a, T> {
        FactIter { slices: self.slices.clone().into_iter(), current: [].iter(), left: self.len }
    }
}

impl<T> Index<usize> for FactColumn<'_, T> {
    type Output = T;

    #[inline]
    fn index(&self, idx: usize) -> &T {
        let (s, k) = locate(idx);
        &self.slices[s][k]
    }
}

impl<'a, T> IntoIterator for FactColumn<'a, T> {
    type Item = &'a T;
    type IntoIter = FactIter<'a, T>;

    fn into_iter(self) -> FactIter<'a, T> {
        FactIter { slices: self.slices.into_iter(), current: [].iter(), left: self.len }
    }
}

/// A [`FactColumn`]'s values in fact order, one segment slice at a
/// time.
#[derive(Debug)]
pub struct FactIter<'a, T> {
    slices: std::vec::IntoIter<&'a [T]>,
    current: std::slice::Iter<'a, T>,
    left: usize,
}

impl<'a, T> Iterator for FactIter<'a, T> {
    type Item = &'a T;

    #[inline]
    fn next(&mut self) -> Option<&'a T> {
        loop {
            if let Some(value) = self.current.next() {
                self.left -= 1;
                return Some(value);
            }
            self.current = self.slices.next()?.iter();
        }
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        (self.left, Some(self.left))
    }
}

impl<T> ExactSizeIterator for FactIter<'_, T> {}

impl<T> FusedIterator for FactIter<'_, T> {}

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

/// Groups the positions `0..keys.len()` by their key below `groups`,
/// with one counting sort: CSR bounds (`groups + 1` entries; group `g`
/// holds `positions[bounds[g]..bounds[g + 1]]`) and the positions,
/// ascending within each group. The derived indices over one version's
/// facts are built with it.
pub(crate) fn group_by_key(keys: &[u32], groups: usize) -> (Vec<u32>, Vec<u32>) {
    assert!(u32::try_from(keys.len()).is_ok(), "a derived index holds fewer than 2^32 facts");
    let mut bounds = vec![0u32; groups + 1];
    for &key in keys {
        bounds[key as usize + 1] += 1;
    }
    for g in 1..bounds.len() {
        bounds[g] += bounds[g - 1];
    }
    let mut cursor = bounds[..groups].to_vec();
    let mut positions = vec![0u32; keys.len()];
    for (i, &key) in keys.iter().enumerate() {
        let next = &mut cursor[key as usize];
        positions[*next as usize] = i as u32;
        *next += 1;
    }
    (bounds, positions)
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

    fn ids(cs: &ColumnStore) -> Vec<FlexOfferId> {
        cs.offer_ids().iter().copied().collect()
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
        let segment = &cs.segments()[0];
        assert_eq!(segment.slice_max_wh(0), &[40, 40]);
        assert_eq!(segment.slice_max_wh(1), &[2, 2, 2]);
    }

    #[test]
    fn refresh_rewrites_only_lifecycle_scalars() {
        let mut cs = ColumnStore::new();
        cs.push(&offer(7, 0, 2, 0, 1_000), keys());
        cs.update(0, |fo| {
            fo.accept().unwrap();
            fo.assign(Schedule::new(TimeSlot::new(1), vec![Energy::from_wh(600); 2])).unwrap();
            true
        });
        assert_eq!(cs.statuses()[0], OfferState::Scheduled);
        assert_eq!(cs.segments()[0].scheduled_wh()[0], 1_200);
        // Keys and profile columns untouched.
        assert_eq!(cs.leaf(0, Dimension::Time), MemberId(1));
        assert_eq!(cs.segments()[0].slice_max_wh(0), &[1_000, 1_000]);
        // The materialized row agrees with a fresh extract.
        let [t, g, gr, e, p, a] = keys();
        assert_eq!(cs.row(0), FactRow::extract(cs.offer(0), t, g, gr, e, p, a));
        // A change that reports no refresh leaves the columns alone.
        cs.update(0, |fo| {
            fo.reject().ok();
            false
        });
        assert_eq!(cs.statuses()[0], OfferState::Scheduled);
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
        assert_eq!(ids(&cs), [FlexOfferId(1), FlexOfferId(3)]);
        assert_eq!(cs.slice_count(), 4);
        assert_eq!(cs.segments()[0].slice_max_wh(1), &[6, 6, 6]);
        assert_eq!(cs.row(1).profile_len, 3);
        // Compacting nothing is a structural no-op.
        let before = cs.clone();
        cs.compact(&[]);
        assert_eq!(cs, before);
        // Compacting everything leaves no segment behind.
        cs.compact(&[0, 1]);
        assert!(cs.is_empty() && cs.segments().is_empty());
    }

    #[test]
    fn empty_store_is_consistent() {
        let cs = ColumnStore::new();
        assert!(cs.is_empty());
        assert_eq!(cs.len(), 0);
        assert_eq!(cs.slice_count(), 0);
        assert_eq!(cs.rows().count(), 0);
        assert_eq!(cs.offer_ids().iter().len(), 0);
        assert_eq!(cs.statuses().get(0), None);
        let with_cap = ColumnStore::with_capacity(64);
        assert!(with_cap.is_empty());
    }

    #[test]
    fn codes_are_positions_in_the_all_constants() {
        for (i, s) in OfferState::ALL.into_iter().enumerate() {
            assert_eq!(status_code(s) as usize, i);
        }
    }

    /// Asserts the segment layout (every segment but the last full, none
    /// empty), one code per fact that its dictionary round-trips, and
    /// that per-fact reads agree with the segment slices.
    fn assert_encoded_consistent(cs: &ColumnStore) {
        let segments = cs.segments();
        for (s, seg) in segments.iter().enumerate() {
            assert!(!seg.is_empty(), "segment {s} is empty");
            assert!(s + 1 == segments.len() || seg.len() == SEGMENT_FACTS, "segment {s} not full");
            for dim in Dimension::ALL {
                let dc = cs.dict(dim);
                assert_eq!(seg.codes(dim).len(), seg.len());
                for (code, &m) in dc.dict().iter().enumerate() {
                    assert_eq!(dc.code(m), Some(code as u32));
                }
            }
            assert_eq!(seg.statuses().len(), seg.len());
            assert_eq!(seg.slice_offsets.len(), seg.len() + 1);
            assert_eq!(seg.slice_offsets[seg.len()], seg.slice_max_wh.len());
        }
        let flat: Vec<FlexOfferId> = segments.iter().flat_map(|s| s.offer_ids()).copied().collect();
        assert_eq!(ids(cs), flat);
        for (i, id) in flat.iter().enumerate() {
            assert_eq!(cs.offer_ids()[i], *id);
            assert_eq!(cs.offer(i).id(), *id);
        }
    }

    #[test]
    fn encoded_columns_track_push_refresh_and_compact() {
        let mut cs = ColumnStore::new();
        let offers: Vec<FlexOffer> = (0..8).map(|i| offer(i + 1, i as i64, 2, 0, 1_000)).collect();
        for fo in &offers {
            cs.push(fo, keys());
        }
        assert_encoded_consistent(&cs);
        let accepted = |cs: &ColumnStore| -> Vec<bool> {
            cs.statuses().iter().map(|&s| s == OfferState::Accepted).collect()
        };

        // Point updates rewrite the status column in place.
        for &i in &[3usize, 4, 0, 7] {
            cs.update(i, |fo| fo.accept().is_ok());
            assert_encoded_consistent(&cs);
        }
        assert_eq!(accepted(&cs), [true, false, false, true, true, false, false, true]);

        // Refreshing an unchanged fact rewrites the same values.
        cs.update(3, |_| true);
        assert_encoded_consistent(&cs);

        // Compaction drops the dead facts' codes and statuses.
        cs.compact(&[0, 3]);
        assert_eq!(cs.len(), 6);
        assert_encoded_consistent(&cs);
        assert_eq!(accepted(&cs), [false, false, true, false, false, true]);
        // The dictionary never renumbers: surviving codes still decode.
        let before = cs.clone();
        cs.compact(&[]);
        assert_eq!(cs, before, "no-op compact must be a structural no-op");
    }

    /// A seeded store of `n` facts with mixed directions, statuses,
    /// profile lengths and keys.
    fn seeded_store(n: usize, next: &mut impl FnMut(u64) -> u64) -> ColumnStore {
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
        cs
    }

    /// Compacts `dead` out of `original` and checks the result against
    /// the survivor filter; returns the compacted store.
    fn assert_compacts_to_the_survivors(original: &ColumnStore, dead: &[usize], context: &str) {
        let n = original.len();
        let mut cs = original.clone();
        cs.compact(dead);
        let survivors: Vec<usize> = (0..n).filter(|i| dead.binary_search(i).is_err()).collect();
        let rows: Vec<FactRow> = survivors.iter().map(|&i| original.row(i)).collect();
        assert_eq!(cs.rows().collect::<Vec<_>>(), rows, "{context}: rows");
        let slice_max_wh = |cs: &ColumnStore, idx: usize| -> Vec<i64> {
            let (s, k) = locate(idx);
            cs.segments()[s].slice_max_wh(k).to_vec()
        };
        for (k, &i) in survivors.iter().enumerate() {
            assert_eq!(slice_max_wh(&cs, k), slice_max_wh(original, i), "{context}: slices of {i}");
            assert!(Arc::ptr_eq(cs.offer(k), original.offer(i)), "{context}: offer {i} copied");
        }
        let slices = survivors.iter().map(|&i| slice_max_wh(original, i).len()).sum();
        assert_eq!(cs.slice_count(), slices);
        for dim in Dimension::ALL {
            let codes: Vec<u32> = survivors
                .iter()
                .map(|&i| {
                    let (s, k) = locate(i);
                    original.segments()[s].codes(dim)[k]
                })
                .collect();
            let got: Vec<u32> = cs.segments().iter().flat_map(|s| s.codes(dim)).copied().collect();
            assert_eq!(got, codes, "{context}: {dim:?} codes");
            assert_eq!(cs.dict(dim), original.dict(dim), "{context}: append-only dictionary");
        }
        assert_encoded_consistent(&cs);
        // The segments before the first dead fact are still shared.
        let kept = dead.first().map_or(original.segments().len(), |&d| locate(d).0);
        for s in 0..kept {
            assert!(Arc::ptr_eq(&cs.segments()[s], &original.segments()[s]), "{context}: {s}");
        }
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
            let original = seeded_store(n, &mut next);
            let dead: Vec<usize> = (0..n).filter(|_| next(4) == 0).collect();
            assert_compacts_to_the_survivors(&original, &dead, &format!("round {round}"));
        }
        // Stores around segment boundaries, with dead sets that straddle
        // them, empty a segment or hit only the tail.
        const S: usize = SEGMENT_FACTS;
        for n in [S - 1, S, S + 1, 2 * S + 1] {
            let original = seeded_store(n, &mut next);
            assert_encoded_consistent(&original);
            let dead_sets: [Vec<usize>; 5] = [
                (S.saturating_sub(3)..(S + 2).min(n)).collect(),
                vec![0, n - 1],
                vec![n - 1],
                (0..n).filter(|i| i % 7 == 3).collect(),
                (0..S.min(n)).collect(),
            ];
            for dead in dead_sets {
                assert_compacts_to_the_survivors(&original, &dead, &format!("{n} facts"));
            }
        }
    }

    #[test]
    fn writes_unshare_only_the_segments_they_write() {
        let mut next = {
            let mut state = 7u64;
            move |bound: u64| {
                state = state.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(1);
                (state >> 33) % bound
            }
        };
        let published = seeded_store(2 * SEGMENT_FACTS + 10, &mut next);
        let shared = |cs: &ColumnStore| -> Vec<bool> {
            let old = published.segments();
            cs.segments().iter().zip(old).map(|(a, b)| Arc::ptr_eq(a, b)).collect()
        };
        // An append copies the tail alone.
        let mut cs = published.clone();
        cs.push(&offer(99_999, 0, 1, 0, 1), keys());
        assert_eq!(shared(&cs), [true, true, false]);
        // A refresh copies its fact's segment alone.
        let mut cs = published.clone();
        cs.update(5, |fo| fo.accept().is_ok());
        assert_eq!(shared(&cs), [false, true, true]);
        // A withdrawal copies from its first dead fact's segment on.
        let mut cs = published.clone();
        cs.compact(&[SEGMENT_FACTS + 3, 2 * SEGMENT_FACTS + 1]);
        assert_eq!(shared(&cs), [true, false, false]);
        // A copied tail has room for a full segment.
        let tail = Segment::clone(&published.segments()[2]);
        assert!(tail.offer.capacity() >= SEGMENT_FACTS);
        assert_eq!(&tail, published.segments()[2].as_ref());
    }

    #[test]
    fn groups_ascend_within_each_key() {
        let (bounds, positions) = group_by_key(&[2, 0, 2, 1, 0], 4);
        assert_eq!(bounds, [0, 2, 3, 5, 5]);
        assert_eq!(positions, [1, 4, 3, 0, 2]);
    }
}
