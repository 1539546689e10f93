//! Filter + group-by evaluation with the Section 3 measures.

use std::error::Error;
use std::fmt;

use mirabel_flexoffer::OfferState;
use mirabel_timeseries::TimeSlot;

use crate::columns::{locate, status_code, Segment, SEGMENT_FACTS};
use crate::fact::FactRow;
use crate::hierarchy::{Dimension, MemberId};
use crate::spatial::SpatialIndex;
use crate::warehouse::Warehouse;

/// The aggregate measures of Section 3 ("the following statistics are
/// essential and must be supported").
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Measure {
    /// "Flex-offer Count": number of flex-offers (filter by status for the
    /// accepted/assigned/rejected breakdowns).
    Count,
    /// "Scheduled Energy": planned energy in kWh.
    ScheduledEnergy,
    /// Physically used energy in kWh (the "physical realization").
    ExecutedEnergy,
    /// "Plan Deviations": Σ |actual − planned| in kWh.
    PlanDeviation,
    /// "Energy Balancing Potential" in kWh (see
    /// [`FlexOffer::balancing_potential`](mirabel_flexoffer::FlexOffer::balancing_potential)).
    BalancingPotential,
    /// "Flex-offer Attribute Value": total maximum energy in kWh.
    TotalMaxEnergy,
    /// Attribute value: total energy flexibility in kWh.
    EnergyFlexibility,
    /// Attribute value: mean price in euro-cents per kWh.
    AvgPrice,
    /// Attribute value: mean start-time flexibility in slots.
    AvgTimeFlexibility,
}

impl Measure {
    /// All measures in display order.
    pub const ALL: [Measure; 9] = [
        Measure::Count,
        Measure::ScheduledEnergy,
        Measure::ExecutedEnergy,
        Measure::PlanDeviation,
        Measure::BalancingPotential,
        Measure::TotalMaxEnergy,
        Measure::EnergyFlexibility,
        Measure::AvgPrice,
        Measure::AvgTimeFlexibility,
    ];

    /// Stable display name (also the MDX member token under
    /// `[Measures]`).
    pub fn name(self) -> &'static str {
        match self {
            Measure::Count => "Count",
            Measure::ScheduledEnergy => "ScheduledEnergy",
            Measure::ExecutedEnergy => "ExecutedEnergy",
            Measure::PlanDeviation => "PlanDeviation",
            Measure::BalancingPotential => "BalancingPotential",
            Measure::TotalMaxEnergy => "TotalMaxEnergy",
            Measure::EnergyFlexibility => "EnergyFlexibility",
            Measure::AvgPrice => "AvgPrice",
            Measure::AvgTimeFlexibility => "AvgTimeFlexibility",
        }
    }

    /// Parses a measure name (case-insensitive).
    pub fn parse(name: &str) -> Option<Measure> {
        Measure::ALL.into_iter().find(|m| m.name().eq_ignore_ascii_case(name))
    }

    /// `true` for mean-style measures (they divide by the row count).
    pub fn is_average(self) -> bool {
        matches!(self, Measure::AvgPrice | Measure::AvgTimeFlexibility)
    }

    /// The contribution of one fact row before averaging.
    pub fn value_of(self, row: &FactRow) -> f64 {
        match self {
            Measure::Count => 1.0,
            Measure::ScheduledEnergy => row.scheduled_wh as f64 / 1_000.0,
            Measure::ExecutedEnergy => row.executed_wh as f64 / 1_000.0,
            Measure::PlanDeviation => row.deviation_wh as f64 / 1_000.0,
            Measure::BalancingPotential => row.balancing_potential_wh as f64 / 1_000.0,
            Measure::TotalMaxEnergy => row.total_max_wh as f64 / 1_000.0,
            Measure::EnergyFlexibility => row.energy_flex_wh as f64 / 1_000.0,
            Measure::AvgPrice => row.price_cents as f64,
            Measure::AvgTimeFlexibility => row.time_flex_slots as f64,
        }
    }

    /// The contribution of offset `k` of `seg` read straight from the
    /// measure columns — the columnar counterpart of
    /// [`Measure::value_of`] (evaluation touches exactly one contiguous
    /// column per measure instead of striding over whole rows).
    pub fn value_at(self, seg: &Segment, k: usize) -> f64 {
        match self.column() {
            None => 1.0,
            Some((column, divisor)) => column(seg)[k] as f64 / divisor,
        }
    }

    /// The measure's input column and its divisor; `None` for `Count`.
    /// The divisor (not a reciprocal multiply: `x / 1000.0` and
    /// `x * 0.001` round differently) reproduces [`Measure::value_of`]
    /// exactly.
    fn column(self) -> Option<(MeasureColumn, f64)> {
        Some(match self {
            Measure::Count => return None,
            Measure::ScheduledEnergy => (Segment::scheduled_wh, 1_000.0),
            Measure::ExecutedEnergy => (Segment::executed_wh, 1_000.0),
            Measure::PlanDeviation => (Segment::deviation_wh, 1_000.0),
            Measure::BalancingPotential => (Segment::balancing_potential_wh, 1_000.0),
            Measure::TotalMaxEnergy => (Segment::total_max_wh, 1_000.0),
            Measure::EnergyFlexibility => (Segment::energy_flex_wh, 1_000.0),
            Measure::AvgPrice => (Segment::price_cents, 1.0),
            Measure::AvgTimeFlexibility => (Segment::time_flex, 1.0),
        })
    }
}

/// Reads one measure-input column of a segment.
type MeasureColumn = fn(&Segment) -> &[i64];

impl fmt::Display for Measure {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// A hierarchical member filter: a fact matches when its leaf in
/// `dimension` descends from (or equals) `member`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Filter {
    /// Dimension to filter on.
    pub dimension: Dimension,
    /// Member at any level of that dimension's hierarchy.
    pub member: MemberId,
}

/// A warehouse query: conjunctive member filters, optional time-range and
/// status restrictions, an optional group-by, and one measure.
///
/// Example from Section 3: "counts of accepted flex-offers in the west
/// Denmark in the period from Jan-2013 to Feb-2013 grouped by cities" is
/// `Query::new(Measure::Count).filter(geo, jutland).statuses([Accepted])
/// .time_range(jan, mar).group_by(Geography, 2)`.
#[derive(Debug, Clone)]
pub struct Query {
    /// The measure to aggregate.
    pub measure: Measure,
    /// Conjunctive hierarchical filters.
    pub filters: Vec<Filter>,
    /// Half-open earliest-start range.
    pub time_range: Option<(TimeSlot, TimeSlot)>,
    /// Restrict to these lifecycle statuses.
    pub statuses: Option<Vec<OfferState>>,
    /// Group results by the members of this dimension level.
    pub group_by: Option<(Dimension, u8)>,
}

impl Query {
    /// Creates an unfiltered, ungrouped query for `measure`.
    pub fn new(measure: Measure) -> Query {
        Query { measure, filters: Vec::new(), time_range: None, statuses: None, group_by: None }
    }

    /// Adds a hierarchical member filter.
    pub fn filter(mut self, dimension: Dimension, member: MemberId) -> Query {
        self.filters.push(Filter { dimension, member });
        self
    }

    /// Restricts earliest-start to `[from, to)`.
    pub fn time_range(mut self, from: TimeSlot, to: TimeSlot) -> Query {
        self.time_range = Some((from, to));
        self
    }

    /// Restricts to the given statuses.
    pub fn statuses(mut self, statuses: impl Into<Vec<OfferState>>) -> Query {
        self.statuses = Some(statuses.into());
        self
    }

    /// Groups by all members at `level` of `dimension`.
    pub fn group_by(mut self, dimension: Dimension, level: u8) -> Query {
        self.group_by = Some((dimension, level));
        self
    }
}

/// Result of a [`Query`]: per-group values (empty when ungrouped) plus the
/// grand total.
#[derive(Debug, Clone, PartialEq)]
pub struct QueryResult {
    /// `(group member, value)` pairs in member-id order; empty for
    /// ungrouped queries.
    pub groups: Vec<(MemberId, f64)>,
    /// The measure over all matching facts.
    pub total: f64,
    /// Number of matching facts.
    pub matching_facts: usize,
}

/// Errors for query and MDX evaluation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DwError {
    /// A member id that does not exist in its hierarchy.
    UnknownMember {
        /// Dimension looked up.
        dimension: Dimension,
        /// Offending id.
        member: MemberId,
    },
    /// A group-by level deeper than the hierarchy.
    BadLevel {
        /// Dimension looked up.
        dimension: Dimension,
        /// Requested level.
        level: u8,
    },
    /// An MDX parse error with a human-readable message.
    Mdx(String),
}

impl fmt::Display for DwError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DwError::UnknownMember { dimension, member } => {
                write!(f, "unknown member {member} in dimension {dimension}")
            }
            DwError::BadLevel { dimension, level } => {
                write!(f, "dimension {dimension} has no level {level}")
            }
            DwError::Mdx(msg) => write!(f, "MDX error: {msg}"),
        }
    }
}

impl Error for DwError {}

impl Warehouse {
    /// Evaluates `query` over the fact columns with predicate pushdown.
    ///
    /// Every hierarchical filter is resolved **once** against the
    /// touched dimension's dictionary — a mask over its dense codes —
    /// so the per-fact test is one array load instead of a hierarchy
    /// walk; a status restriction becomes a mask over the six status
    /// codes; and the measure dispatch is hoisted out of the loop into a
    /// `(column, divisor)` pair, so the inner loop is a monomorphic
    /// sequential reduction over one contiguous `i64` column. A group-by
    /// is a table from the grouped dimension's codes to dense slots, so a
    /// fact costs one table load and one add, and the groups come out in
    /// member-id order without the empty ones.
    ///
    /// `f64` accumulation stays strictly sequential in fact order (no
    /// chunked multi-accumulator tricks): `f64` addition is
    /// non-associative, and the result must stay bit-identical to
    /// [`Warehouse::eval_rows`] (the row oracle) and
    /// [`Warehouse::eval_scan`] (the plain columnar scan both are gated
    /// against). `Count` counts in integers, which is exact: `n`
    /// additions of `1.0` give `n as f64` below 2^53.
    pub fn eval(&self, query: &Query) -> Result<QueryResult, DwError> {
        self.validate(query)?;
        let measure = query.measure;
        let Some(restrictions) = Restrictions::resolve(self, query) else {
            return Ok(QueryResult { groups: Vec::new(), total: 0.0, matching_facts: 0 });
        };
        let Some((dim, level)) = query.group_by else {
            let (total, matching_facts) = match restrictions.divisor() {
                None => {
                    let mut tally = Tally(0);
                    restrictions.drive(&mut tally);
                    (tally.0 as f64, tally.0)
                }
                Some(divisor) => {
                    let mut total = Total { sum: 0.0, n: 0, divisor };
                    restrictions.drive(&mut total);
                    (measure_value(measure, total.sum, total.n), total.n)
                }
            };
            return Ok(QueryResult { groups: Vec::new(), total, matching_facts });
        };
        // One slot per distinct group member, in member-id order, and a
        // last one for the codes above the level, which no group takes.
        let h = self.hierarchy(dim);
        let ancestors: Vec<Option<MemberId>> = self
            .columns()
            .dict(dim)
            .dict()
            .iter()
            .map(|&leaf| h.ancestor_at_level(leaf, level))
            .collect();
        let mut members: Vec<MemberId> = ancestors.iter().flatten().copied().collect();
        members.sort_unstable();
        members.dedup();
        let slots: Vec<usize> = ancestors
            .iter()
            .map(|a| a.map_or(members.len(), |m| members.binary_search(&m).expect("collected")))
            .collect();
        let key = CellKey([(dim, slots.as_slice())]);
        let mut cells = Cells::new(measure, members.len() + 1);
        let (total, matching_facts) = match restrictions.divisor() {
            None => {
                restrictions.accumulate(&mut cells, key);
                let n = (0..=members.len()).map(|slot| cells.count(slot)).sum();
                (n as f64, n)
            }
            Some(divisor) => {
                // The total runs beside the groups: its own sum in fact
                // order over every matching fact.
                let groups =
                    SumInto { counts: &mut cells.counts, sums: &mut cells.sums, divisor, key };
                let mut sinks = (groups, Total { sum: 0.0, n: 0, divisor });
                restrictions.drive(&mut sinks);
                let total = sinks.1;
                (measure_value(measure, total.sum, total.n), total.n)
            }
        };
        let groups = members
            .iter()
            .enumerate()
            .filter(|&(slot, _)| cells.count(slot) > 0)
            .map(|(slot, &m)| (m, cells.value(measure, slot)))
            .collect();
        Ok(QueryResult { groups, total, matching_facts })
    }

    /// The plain columnar scan: per-fact predicate tests that decode
    /// each leaf key and walk its hierarchy, no code masks. Kept public
    /// as the baseline the filtered-query bench probe measures pushdown
    /// against (and as a second equality oracle — it must agree with
    /// [`Warehouse::eval`] bit for bit).
    pub fn eval_scan(&self, query: &Query) -> Result<QueryResult, DwError> {
        self.validate(query)?;
        let mut groups: std::collections::BTreeMap<MemberId, (f64, usize)> = Default::default();
        let mut total = 0.0;
        let mut count = 0usize;
        for seg in self.columns().segments() {
            for k in 0..seg.len() {
                if !self.matches_at(seg, k, query) {
                    continue;
                }
                let v = query.measure.value_at(seg, k);
                total += v;
                count += 1;
                if let Some((dim, level)) = query.group_by {
                    let leaf = self.columns().dict(dim).dict()[seg.codes(dim)[k] as usize];
                    if let Some(g) = self.hierarchy(dim).ancestor_at_level(leaf, level) {
                        let e = groups.entry(g).or_insert((0.0, 0));
                        e.0 += v;
                        e.1 += 1;
                    }
                }
            }
        }
        Ok(finalise(query, groups, total, count))
    }

    /// Row-oriented reference evaluator: materializes every [`FactRow`]
    /// and aggregates via [`Measure::value_of`] — semantically identical
    /// to [`Warehouse::eval`] but striding over whole rows. Kept public
    /// as the oracle for the columnar ≡ row equality gates (bench
    /// harness and property tests); not a hot path.
    pub fn eval_rows(&self, query: &Query) -> Result<QueryResult, DwError> {
        self.validate(query)?;
        let mut groups: std::collections::BTreeMap<MemberId, (f64, usize)> = Default::default();
        let mut total = 0.0;
        let mut count = 0usize;
        for row in self.columns().rows() {
            if !self.matches(&row, query) {
                continue;
            }
            let v = query.measure.value_of(&row);
            total += v;
            count += 1;
            if let Some((dim, level)) = query.group_by {
                let leaf = self.fact_leaf(&row, dim);
                if let Some(g) = self.hierarchy(dim).ancestor_at_level(leaf, level) {
                    let e = groups.entry(g).or_insert((0.0, 0));
                    e.0 += v;
                    e.1 += 1;
                }
            }
        }
        Ok(finalise(query, groups, total, count))
    }

    /// Validates `query`'s members and group-by level up front.
    pub(crate) fn validate(&self, query: &Query) -> Result<(), DwError> {
        for f in &query.filters {
            if self.hierarchy(f.dimension).member(f.member).is_none() {
                return Err(DwError::UnknownMember { dimension: f.dimension, member: f.member });
            }
        }
        if let Some((dim, level)) = query.group_by {
            if level as usize >= self.hierarchy(dim).depth() {
                return Err(DwError::BadLevel { dimension: dim, level });
            }
        }
        Ok(())
    }

    fn matches(&self, row: &FactRow, query: &Query) -> bool {
        if let Some((from, to)) = query.time_range {
            if row.earliest_start < from || row.earliest_start >= to {
                return false;
            }
        }
        if let Some(statuses) = &query.statuses {
            if !statuses.contains(&row.status) {
                return false;
            }
        }
        for f in &query.filters {
            let leaf = self.fact_leaf(row, f.dimension);
            if !self.hierarchy(f.dimension).is_descendant(leaf, f.member) {
                return false;
            }
        }
        true
    }

    /// Columnar twin of [`Warehouse::matches`]: the same predicate
    /// reading individual columns at offset `k` of `seg` instead of a
    /// materialized row.
    fn matches_at(&self, seg: &Segment, k: usize, query: &Query) -> bool {
        if let Some((from, to)) = query.time_range {
            let est = seg.earliest_starts()[k];
            if est < from || est >= to {
                return false;
            }
        }
        if let Some(statuses) = &query.statuses {
            if !statuses.contains(&seg.statuses()[k]) {
                return false;
            }
        }
        for f in &query.filters {
            let leaf = self.columns().dict(f.dimension).dict()[seg.codes(f.dimension)[k] as usize];
            if !self.hierarchy(f.dimension).is_descendant(leaf, f.member) {
                return false;
            }
        }
        true
    }
}

/// Applies the average division and flattens the group map.
fn finalise(
    query: &Query,
    groups: std::collections::BTreeMap<MemberId, (f64, usize)>,
    total: f64,
    count: usize,
) -> QueryResult {
    let groups: Vec<(MemberId, f64)> =
        groups.into_iter().map(|(m, (s, n))| (m, measure_value(query.measure, s, n))).collect();
    QueryResult { groups, total: measure_value(query.measure, total, count), matching_facts: count }
}

/// The value of `measure` over `n` facts whose contributions sum to
/// `sum`: the mean for average measures (when `n > 0`), the sum itself
/// otherwise.
pub(crate) fn measure_value(measure: Measure, sum: f64, n: usize) -> f64 {
    if measure.is_average() && n > 0 {
        sum / n as f64
    } else {
        sum
    }
}

/// A query's row restrictions resolved once against the fact columns —
/// the member masks, the status mask, the time range and the measure
/// column with its divisor — shared by [`Warehouse::eval`] and
/// [`Warehouse::pivot`], which differ only in where each matching fact's
/// value goes.
///
/// * Every hierarchical filter becomes one AND-combined mask over the
///   touched dimension's dictionary codes, so the per-fact test is one
///   array load instead of a hierarchy walk.
/// * A status restriction becomes a mask over the six status codes.
/// * The measure dispatch is hoisted into a `(column, divisor)` pair, so
///   the per-fact value is one load from one contiguous `i64` column.
///
/// A pass ([`Restrictions::drive`]) walks the segments in fact order over
/// their plain slices and hands each matching fact to a [`Sink`].
pub(crate) struct Restrictions<'a> {
    segments: &'a [std::sync::Arc<Segment>],
    facts: usize,
    /// Per filtered dimension (as its [`Dimension::ALL`] index), the mask
    /// over its dictionary codes.
    masks: Vec<(Dimension, Vec<bool>)>,
    statuses: Option<[bool; 6]>,
    time_range: Option<(TimeSlot, TimeSlot)>,
    measure: Option<(MeasureColumn, f64)>,
    spatial_hits: Option<Vec<usize>>,
}

impl<'a> Restrictions<'a> {
    /// Resolves the restrictions of a validated `query` (its group-by is
    /// ignored). `None` when a filter mask is all-false: no fact can
    /// match, so callers answer empty without touching the fact columns.
    pub(crate) fn resolve(dw: &'a Warehouse, query: &Query) -> Option<Restrictions<'a>> {
        let cols = dw.columns();
        let mut masks = Vec::new();
        for dim in Dimension::ALL {
            let members: Vec<MemberId> =
                query.filters.iter().filter(|f| f.dimension == dim).map(|f| f.member).collect();
            if members.is_empty() {
                continue;
            }
            let h = dw.hierarchy(dim);
            let mask =
                cols.dict(dim).mask(|leaf| members.iter().all(|&m| h.is_descendant(leaf, m)));
            if !mask.iter().any(|&b| b) {
                return None;
            }
            masks.push((dim, mask));
        }

        let statuses = query.statuses.as_ref().map(|statuses| {
            let mut mask = [false; 6];
            for &s in statuses {
                mask[status_code(s) as usize] = true;
            }
            mask
        });

        // A selective geography filter (below the All root) is answered
        // from the spatial per-region posting lists instead of a full
        // column pass: `indices_under` returns exactly the facts whose
        // geography leaf descends from the member, ascending, so the
        // candidate set shrinks to the subtree while the visit order —
        // and therefore the non-associative `f64` accumulation — stays
        // identical to the full scan. The geography mask is kept in
        // `masks` regardless: it re-checks the postings (harmless) and
        // carries any additional same-dimension conjuncts.
        let geography = dw.hierarchy(Dimension::Geography);
        let spatial_hits = query
            .filters
            .iter()
            .filter(|f| f.dimension == Dimension::Geography)
            .find(|f| geography.member(f.member).is_some_and(|m| m.level > 0))
            .map(|f| dw.spatial_index().indices_under(geography, f.member));

        Some(Restrictions {
            segments: cols.segments(),
            facts: cols.len(),
            masks,
            statuses,
            time_range: query.time_range,
            measure: query.measure.column(),
            spatial_hits,
        })
    }

    /// Drives the pass from the postings of the geography `leaves` when
    /// they hold at most ¾ of the current candidates. Only for a caller
    /// that uses no fact keyed elsewhere — a pivot whose geography axis
    /// lies below the root, such as a region's cities — so the pass
    /// costs O(facts under the axis), as the per-cell `eval`s it
    /// replaced did. The merged postings ascend, so the visit order is
    /// unchanged. Merging and the gathered loads cost more per fact than
    /// the sequential pass: at 0.48 M facts the postings won 1.5× at 65 %
    /// coverage and lost 1.25× at 95 %, hence the ¾.
    pub(crate) fn narrow_to_leaves(&mut self, spatial: &SpatialIndex, leaves: &[MemberId]) {
        let n: usize = leaves.iter().map(|&leaf| spatial.indices(leaf).len()).sum();
        let candidates = self.spatial_hits.as_ref().map_or(self.facts, Vec::len);
        if 4 * n <= 3 * candidates {
            self.spatial_hits = Some(spatial.indices_of(leaves));
        }
    }

    /// The measure's divisor; `None` for `Count`, which counts.
    pub(crate) fn divisor(&self) -> Option<f64> {
        self.measure.map(|(_, divisor)| divisor)
    }

    /// Adds every matching fact into its `key` cell of `cells`, in
    /// ascending fact order.
    pub(crate) fn accumulate<const N: usize>(&self, cells: &mut Cells, key: CellKey<'_, N>) {
        match self.divisor() {
            None => self.drive(&mut CountInto { counts: &mut cells.counts, key }),
            Some(divisor) => self.drive(&mut SumInto {
                counts: &mut cells.counts,
                sums: &mut cells.sums,
                divisor,
                key,
            }),
        }
    }

    /// Hands `sink` every fact that meets the restrictions, in ascending
    /// fact order whichever candidate set drives the pass, with its
    /// segment's code columns and measure column. The columns are looked
    /// up once per segment, and the postings-driven and the general pass
    /// test each fact with one predicate. With no restriction at all the
    /// pass is bare: it adds every offset of every segment and tests
    /// nothing.
    pub(crate) fn drive(&self, sink: &mut impl Sink) {
        let time_range = self.time_range;
        let columns = |seg: &'a Segment| {
            let values = self.measure.map_or(&[][..], |(column, _)| column(seg));
            (values, seg.earliest_starts(), seg.statuses(), seg.all_codes())
        };
        let check = |starts: &[TimeSlot], statuses: &[OfferState], codes: &[&[u32]; 6], k| {
            if let Some((from, to)) = time_range {
                if starts[k] < from || starts[k] >= to {
                    return false;
                }
            }
            if let Some(mask) = &self.statuses {
                if !mask[status_code(statuses[k]) as usize] {
                    return false;
                }
            }
            self.masks.iter().all(|(dim, mask)| mask[codes[*dim as usize][k] as usize])
        };
        if let Some(hits) = &self.spatial_hits {
            // Ascending positions, taken one segment's run at a time.
            let mut rest = hits.as_slice();
            while let Some(&first) = rest.first() {
                let (s, _) = locate(first);
                let seg = &self.segments[s];
                let (values, starts, statuses, codes) = columns(seg);
                let base = s * SEGMENT_FACTS;
                let here = rest.partition_point(|&i| i < base + seg.len());
                for &i in &rest[..here] {
                    let k = i - base;
                    sink.add_if(check(starts, statuses, &codes, k), &codes, values, k);
                }
                rest = &rest[here..];
            }
            return;
        }
        for seg in self.segments {
            let (values, starts, statuses, codes) = columns(seg);
            match (&self.statuses, self.masks.as_slice(), time_range) {
                (None, [], None) => sink.add_all(&codes, values, seg.len()),
                (None, [(dim, mask)], None) => {
                    // The hot filtered shape — one dictionary filter, no
                    // time bound — tests the code column directly: one
                    // load-and-test per fact.
                    sink.add_masked(&codes, values, codes[*dim as usize], mask);
                }
                _ => {
                    for k in 0..seg.len() {
                        sink.add_if(check(starts, statuses, &codes, k), &codes, values, k);
                    }
                }
            }
        }
    }
}

/// What a pass does with each matching fact: [`Restrictions::drive`]
/// hands it the fact's segment code columns ([`Dimension::ALL`] order),
/// the segment's measure column (empty for `Count`) and the fact's
/// offset in the segment.
pub(crate) trait Sink {
    /// Adds offset `k`.
    fn add(&mut self, codes: &[&[u32]; 6], values: &[i64], k: usize);

    /// Adds offsets `0..len`: the bare pass, when nothing restricts.
    #[inline]
    fn add_all(&mut self, codes: &[&[u32]; 6], values: &[i64], len: usize) {
        for k in 0..len {
            self.add(codes, values, k);
        }
    }

    /// Adds offset `k` when `keep` holds. A count adds `keep` itself, so
    /// a filtered count takes no branch per fact.
    #[inline]
    fn add_if(&mut self, keep: bool, codes: &[&[u32]; 6], values: &[i64], k: usize) {
        if keep {
            self.add(codes, values, k);
        }
    }

    /// Adds the offsets whose code in `column` the `mask` keeps: the
    /// one-filter shape. The test writes every offset into a selection
    /// and advances past it only when it passes, so selecting takes no
    /// branch per fact at any selectivity; the adds then run over the
    /// selection. A count adds the mask bits instead.
    #[inline]
    fn add_masked(&mut self, codes: &[&[u32]; 6], values: &[i64], column: &[u32], mask: &[bool]) {
        let mut selection = [0u16; SEGMENT_FACTS];
        let mut n = 0;
        for (k, &c) in column.iter().enumerate() {
            selection[n] = k as u16;
            n += usize::from(mask[c as usize]);
        }
        for &k in &selection[..n] {
            self.add(codes, values, usize::from(k));
        }
    }
}

impl<A: Sink, B: Sink> Sink for (A, B) {
    #[inline]
    fn add(&mut self, codes: &[&[u32]; 6], values: &[i64], k: usize) {
        self.0.add(codes, values, k);
        self.1.add(codes, values, k);
    }

    #[inline]
    fn add_all(&mut self, codes: &[&[u32]; 6], values: &[i64], len: usize) {
        self.0.add_all(codes, values, len);
        self.1.add_all(codes, values, len);
    }
}

/// An ungrouped `Count`.
struct Tally(usize);

impl Sink for Tally {
    #[inline]
    fn add(&mut self, _: &[&[u32]; 6], _: &[i64], _: usize) {
        self.0 += 1;
    }

    #[inline]
    fn add_if(&mut self, keep: bool, _: &[&[u32]; 6], _: &[i64], _: usize) {
        self.0 += usize::from(keep);
    }

    #[inline]
    fn add_all(&mut self, _: &[&[u32]; 6], _: &[i64], len: usize) {
        self.0 += len;
    }

    #[inline]
    fn add_masked(&mut self, _: &[&[u32]; 6], _: &[i64], column: &[u32], mask: &[bool]) {
        self.0 += column.iter().filter(|&&c| mask[c as usize]).count();
    }
}

/// An ungrouped measure: its contributions summed in fact order, and how
/// many there were.
struct Total {
    sum: f64,
    n: usize,
    divisor: f64,
}

impl Sink for Total {
    #[inline]
    fn add(&mut self, _: &[&[u32]; 6], values: &[i64], k: usize) {
        self.sum += values[k] as f64 / self.divisor;
        self.n += 1;
    }

    #[inline]
    fn add_all(&mut self, _: &[&[u32]; 6], values: &[i64], len: usize) {
        for &v in &values[..len] {
            self.sum += v as f64 / self.divisor;
        }
        self.n += len;
    }
}

/// The dense accumulator of one pass: per cell, how many facts fell in it
/// and, for every measure but `Count`, the sum of their contributions in
/// fact order. A pass finds a fact's cell through tables from dictionary
/// code to slot, one per keyed dimension, built once per query: a
/// group-by reads one slot, a pivot adds a row slot (times the row
/// stride) to a column slot. Codes that no group or axis member covers
/// share a last "no member" slot, so the pass never tests for them.
///
/// The counts come in two halves of one counter per cell. The bare count
/// pass adds even offsets into the first half and odd ones into the
/// second, so a run of facts in one cell alternates between two counters
/// instead of waiting on each store of one; the other passes use the
/// first half. Integer counts add up exactly in any order.
pub(crate) struct Cells {
    counts: Vec<usize>,
    sums: Vec<f64>,
}

impl Cells {
    /// `n` empty cells for `measure` (`Count` keeps no sums).
    pub(crate) fn new(measure: Measure, n: usize) -> Cells {
        let sums = if measure.column().is_some() { vec![0.0; n] } else { Vec::new() };
        Cells { counts: vec![0; 2 * n], sums }
    }

    /// Adds one fact into `cell`: its contribution `value`, or a count
    /// alone for `Count` (`None`).
    #[inline]
    pub(crate) fn add(&mut self, cell: usize, value: Option<f64>) {
        self.counts[cell] += 1;
        if let Some(v) = value {
            self.sums[cell] += v;
        }
    }

    /// The facts in `cell`.
    pub(crate) fn count(&self, cell: usize) -> usize {
        self.counts[cell] + self.counts[self.counts.len() / 2 + cell]
    }

    /// The value of `measure` over `cell` — bit for bit what an `eval`
    /// restricted to the cell's facts totals.
    pub(crate) fn value(&self, measure: Measure, cell: usize) -> f64 {
        match self.sums.get(cell) {
            None => self.count(cell) as f64,
            Some(&sum) => measure_value(measure, sum, self.count(cell)),
        }
    }
}

/// Where a fact lands in [`Cells`]: the sum, over `N` keyed dimensions,
/// of a table entry indexed by the fact's dictionary code in that
/// dimension. A group-by keys one dimension to its slots; a pivot keys
/// the row dimension to its slots times the row stride and the column
/// dimension to its slots.
pub(crate) struct CellKey<'t, const N: usize>(pub(crate) [(Dimension, &'t [usize]); N]);

impl<const N: usize> CellKey<'_, N> {
    /// The keyed code columns of a segment.
    #[inline]
    fn columns<'c>(&self, codes: &[&'c [u32]; 6]) -> [&'c [u32]; N] {
        self.0.map(|(dim, _)| codes[dim as usize])
    }

    /// The cell of offset `k`, given the keyed code columns.
    #[inline]
    fn cell(&self, columns: &[&[u32]; N], k: usize) -> usize {
        (0..N).map(|i| self.0[i].1[columns[i][k] as usize]).sum()
    }
}

/// `Count` into [`Cells`]: one integer add per fact.
struct CountInto<'c, 't, const N: usize> {
    counts: &'c mut [usize],
    key: CellKey<'t, N>,
}

impl<const N: usize> Sink for CountInto<'_, '_, N> {
    #[inline]
    fn add(&mut self, codes: &[&[u32]; 6], _: &[i64], k: usize) {
        self.counts[self.key.cell(&self.key.columns(codes), k)] += 1;
    }

    #[inline]
    fn add_if(&mut self, keep: bool, codes: &[&[u32]; 6], _: &[i64], k: usize) {
        self.counts[self.key.cell(&self.key.columns(codes), k)] += usize::from(keep);
    }

    #[inline]
    fn add_masked(&mut self, codes: &[&[u32]; 6], _: &[i64], column: &[u32], mask: &[bool]) {
        let columns = self.key.columns(codes);
        for (k, &c) in column.iter().enumerate() {
            self.counts[self.key.cell(&columns, k)] += usize::from(mask[c as usize]);
        }
    }

    #[inline]
    fn add_all(&mut self, codes: &[&[u32]; 6], _: &[i64], len: usize) {
        let columns = self.key.columns(codes).map(|column| &column[..len]);
        let (even, odd) = self.counts.split_at_mut(self.counts.len() / 2);
        for k in (0..len & !1).step_by(2) {
            even[self.key.cell(&columns, k)] += 1;
            odd[self.key.cell(&columns, k + 1)] += 1;
        }
        if len % 2 == 1 {
            even[self.key.cell(&columns, len - 1)] += 1;
        }
    }
}

/// A measure column into [`Cells`]: one `f64` add per fact into its
/// cell's sum, in fact order, and a count for the averages.
struct SumInto<'c, 't, const N: usize> {
    counts: &'c mut [usize],
    sums: &'c mut [f64],
    divisor: f64,
    key: CellKey<'t, N>,
}

impl<const N: usize> SumInto<'_, '_, N> {
    #[inline]
    fn add_to(&mut self, cell: usize, value: i64) {
        self.sums[cell] += value as f64 / self.divisor;
        self.counts[cell] += 1;
    }
}

impl<const N: usize> Sink for SumInto<'_, '_, N> {
    #[inline]
    fn add(&mut self, codes: &[&[u32]; 6], values: &[i64], k: usize) {
        self.add_to(self.key.cell(&self.key.columns(codes), k), values[k]);
    }

    #[inline]
    fn add_all(&mut self, codes: &[&[u32]; 6], values: &[i64], len: usize) {
        let columns = self.key.columns(codes).map(|column| &column[..len]);
        for (k, &value) in values[..len].iter().enumerate() {
            self.add_to(self.key.cell(&columns, k), value);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mirabel_workload::{generate_offers, OfferConfig, Population, PopulationConfig};

    fn warehouse() -> Warehouse {
        let pop =
            Population::generate(&PopulationConfig { size: 200, seed: 21, household_share: 0.8 });
        let offers = generate_offers(&pop, &OfferConfig::default());
        Warehouse::load(&pop, &offers)
    }

    #[test]
    fn count_all_facts() {
        let dw = warehouse();
        let r = dw.eval(&Query::new(Measure::Count)).unwrap();
        assert_eq!(r.total as usize, dw.columns().len());
        assert_eq!(r.matching_facts, dw.columns().len());
        assert!(r.groups.is_empty());
    }

    #[test]
    fn grouping_partitions_the_total() {
        let dw = warehouse();
        for dim in Dimension::ALL {
            let depth = dw.hierarchy(dim).depth() as u8;
            for level in 0..depth {
                let q = Query::new(Measure::Count).group_by(dim, level);
                let r = dw.eval(&q).unwrap();
                let group_sum: f64 = r.groups.iter().map(|(_, v)| v).sum();
                assert!(
                    (group_sum - r.total).abs() < 1e-9,
                    "{dim} level {level}: {group_sum} != {}",
                    r.total
                );
            }
        }
    }

    #[test]
    fn hierarchical_filters_nest() {
        let dw = warehouse();
        let geo = dw.hierarchy(Dimension::Geography);
        let region = geo.member_by_name("Midtjylland").unwrap().id;
        let city = geo.member_by_name("Aarhus").unwrap().id;
        let all = dw.eval(&Query::new(Measure::Count)).unwrap().total;
        let in_region = dw
            .eval(&Query::new(Measure::Count).filter(Dimension::Geography, region))
            .unwrap()
            .total;
        let in_city =
            dw.eval(&Query::new(Measure::Count).filter(Dimension::Geography, city)).unwrap().total;
        assert!(in_city <= in_region);
        assert!(in_region <= all);
        assert!(in_city > 0.0, "Aarhus should have offers");
        // City + region filter together equals the city filter.
        let both = dw
            .eval(
                &Query::new(Measure::Count)
                    .filter(Dimension::Geography, region)
                    .filter(Dimension::Geography, city),
            )
            .unwrap()
            .total;
        assert_eq!(both, in_city);
    }

    #[test]
    fn status_and_time_filters() {
        let dw = warehouse();
        let r = dw.eval(&Query::new(Measure::Count).statuses(vec![OfferState::Offered])).unwrap();
        // Freshly generated offers are all in Offered state.
        assert_eq!(r.total as usize, dw.columns().len());
        let none =
            dw.eval(&Query::new(Measure::Count).statuses(vec![OfferState::Executed])).unwrap();
        assert_eq!(none.total, 0.0);

        let mid = TimeSlot::new(48);
        let early = dw
            .eval(&Query::new(Measure::Count).time_range(TimeSlot::new(-1_000), mid))
            .unwrap()
            .total;
        let late = dw
            .eval(&Query::new(Measure::Count).time_range(mid, TimeSlot::new(100_000)))
            .unwrap()
            .total;
        assert_eq!(early + late, dw.columns().len() as f64);
    }

    #[test]
    fn sum_measures_aggregate_kwh() {
        let dw = warehouse();
        let q = Query::new(Measure::TotalMaxEnergy);
        let r = dw.eval(&q).unwrap();
        let expected: f64 = dw
            .columns()
            .segments()
            .iter()
            .flat_map(|s| s.total_max_wh())
            .map(|&wh| wh as f64 / 1_000.0)
            .sum();
        assert!((r.total - expected).abs() < 1e-6);
        // Balancing potential and flexibility are non-negative.
        assert!(dw.eval(&Query::new(Measure::BalancingPotential)).unwrap().total >= 0.0);
        assert!(dw.eval(&Query::new(Measure::EnergyFlexibility)).unwrap().total >= 0.0);
    }

    #[test]
    fn averages_divide_by_count() {
        let dw = warehouse();
        let r = dw.eval(&Query::new(Measure::AvgTimeFlexibility)).unwrap();
        let expected: f64 = dw
            .columns()
            .segments()
            .iter()
            .flat_map(|s| s.time_flex())
            .map(|&t| t as f64)
            .sum::<f64>()
            / dw.columns().len() as f64;
        assert!((r.total - expected).abs() < 1e-9);
        // Per-group averages also divide by group counts.
        let grouped =
            dw.eval(&Query::new(Measure::AvgPrice).group_by(Dimension::ProsumerType, 1)).unwrap();
        for (_, v) in &grouped.groups {
            assert!(*v >= 3.0 && *v < 30.0, "price {v} out of generator range");
        }
    }

    #[test]
    fn errors_on_bad_inputs() {
        let dw = warehouse();
        let err = dw
            .eval(&Query::new(Measure::Count).filter(Dimension::EnergyType, MemberId(999)))
            .unwrap_err();
        assert!(matches!(err, DwError::UnknownMember { .. }));
        let err =
            dw.eval(&Query::new(Measure::Count).group_by(Dimension::EnergyType, 9)).unwrap_err();
        assert!(matches!(err, DwError::BadLevel { .. }));
        assert!(err.to_string().contains("level 9"));
    }

    #[test]
    fn measure_parse_round_trip() {
        for m in Measure::ALL {
            assert_eq!(Measure::parse(m.name()), Some(m));
            assert_eq!(Measure::parse(&m.name().to_lowercase()), Some(m));
        }
        assert_eq!(Measure::parse("bogus"), None);
        assert_eq!(Measure::Count.to_string(), "Count");
    }

    #[test]
    fn columnar_eval_matches_the_row_reference() {
        let dw = warehouse();
        let geo = dw.hierarchy(Dimension::Geography);
        let region = geo.member_by_name("Midtjylland").unwrap().id;
        let queries = vec![
            Query::new(Measure::Count),
            Query::new(Measure::TotalMaxEnergy).group_by(Dimension::Geography, 2),
            Query::new(Measure::AvgPrice)
                .filter(Dimension::Geography, region)
                .group_by(Dimension::ProsumerType, 1),
            Query::new(Measure::EnergyFlexibility)
                .time_range(TimeSlot::new(0), TimeSlot::new(96))
                .statuses(vec![OfferState::Offered]),
        ];
        for q in &queries {
            let pushdown = dw.eval(q).unwrap();
            assert_eq!(pushdown, dw.eval_rows(q).unwrap());
            assert_eq!(pushdown, dw.eval_scan(q).unwrap());
        }
        // An impossible filter combination takes the all-false-mask
        // early return and must still agree with the oracles.
        let geo = dw.hierarchy(Dimension::Geography);
        let disjoint = Query::new(Measure::Count)
            .filter(Dimension::Geography, geo.member_by_name("Midtjylland").unwrap().id)
            .filter(Dimension::Geography, geo.member_by_name("Sjælland").unwrap().id);
        let empty = dw.eval(&disjoint).unwrap();
        assert_eq!(empty, dw.eval_rows(&disjoint).unwrap());
        assert_eq!(empty.matching_facts, 0);
    }
}
