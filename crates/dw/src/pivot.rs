//! Pivot-table computation for the Figure 5 view.

use crate::hierarchy::{Dimension, MemberId};
use crate::query::{CellKey, Cells, DwError, Query, Restrictions, Sink};
use crate::warehouse::Warehouse;

/// One axis of a pivot: explicit members of one dimension (the swimlanes
/// of Figure 5 are the row members).
#[derive(Debug, Clone, PartialEq)]
pub struct PivotAxis {
    /// The dimension the members belong to.
    pub dimension: Dimension,
    /// Members in display order (any mix of levels — drill-down replaces
    /// a member by its children in place).
    pub members: Vec<MemberId>,
}

impl PivotAxis {
    /// An axis listing the children of `parent` (a drill-down start).
    pub fn children_of(dw: &Warehouse, dimension: Dimension, parent: MemberId) -> PivotAxis {
        let members = dw.hierarchy(dimension).children(parent).map(|m| m.id).collect();
        PivotAxis { dimension, members }
    }

    /// An axis with every member of one level.
    pub fn level(dw: &Warehouse, dimension: Dimension, level: u8) -> PivotAxis {
        let members = dw.hierarchy(dimension).at_level(level).map(|m| m.id).collect();
        PivotAxis { dimension, members }
    }

    /// Drills down: replaces `member` by its children (no-op for leaves).
    pub fn drill_down(&mut self, dw: &Warehouse, member: MemberId) {
        if let Some(pos) = self.members.iter().position(|&m| m == member) {
            let children: Vec<MemberId> =
                dw.hierarchy(self.dimension).children(member).map(|m| m.id).collect();
            if !children.is_empty() {
                self.members.splice(pos..=pos, children);
            }
        }
    }

    /// Drills up: replaces every child of `parent` present on the axis by
    /// the single `parent` (no-op when none are present).
    pub fn drill_up(&mut self, dw: &Warehouse, parent: MemberId) {
        let h = dw.hierarchy(self.dimension);
        let is_child =
            |m: MemberId| h.member(m).map(|mm| mm.parent == Some(parent)).unwrap_or(false);
        if let Some(first) = self.members.iter().position(|&m| is_child(m)) {
            self.members.retain(|&m| !is_child(m));
            self.members.insert(first, parent);
        }
    }
}

/// A pivot specification: rows × columns × measure (+ shared
/// restrictions carried by the base query).
#[derive(Debug, Clone)]
pub struct PivotSpec {
    /// Row axis (e.g. prosumer hierarchy members — Figure 5 swimlanes).
    pub rows: PivotAxis,
    /// Column axis (e.g. time members).
    pub columns: PivotAxis,
    /// Base query: measure plus any filters/status/time restrictions.
    pub base: Query,
}

/// The evaluated pivot: headers plus a dense cell matrix
/// (`cells[row][col]`).
#[derive(Debug, Clone, PartialEq)]
pub struct PivotTable {
    /// Row header member ids (same order as `cells`).
    pub row_members: Vec<MemberId>,
    /// Row header display paths.
    pub row_labels: Vec<String>,
    /// Column header member ids.
    pub col_members: Vec<MemberId>,
    /// Column header display names.
    pub col_labels: Vec<String>,
    /// `cells[r][c]` = measure for (row member r ∧ column member c).
    pub cells: Vec<Vec<f64>>,
}

impl PivotTable {
    /// Number of rows.
    pub fn n_rows(&self) -> usize {
        self.row_members.len()
    }

    /// Number of columns.
    pub fn n_cols(&self) -> usize {
        self.col_members.len()
    }

    /// Row totals.
    pub fn row_totals(&self) -> Vec<f64> {
        self.cells.iter().map(|r| r.iter().sum()).collect()
    }

    /// Renders a plain-text table (used by examples and the figures
    /// binary).
    pub fn to_text(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!("{:<28}", ""));
        for l in &self.col_labels {
            out.push_str(&format!("{l:>14}"));
        }
        out.push('\n');
        for (r, label) in self.row_labels.iter().enumerate() {
            out.push_str(&format!("{label:<28}"));
            for c in 0..self.n_cols() {
                out.push_str(&format!("{:>14.2}", self.cells[r][c]));
            }
            out.push('\n');
        }
        out
    }
}

/// One pivot axis resolved against its dimension's dictionary: for each
/// dictionary code, the axis positions whose member the code's leaf
/// descends from, as per-code offsets into one positions array. A
/// `.Children`, level or drilled axis is disjoint — a code has at most
/// one position — and becomes one code → slot table
/// ([`AxisCodes::slots`]); an axis that lists a member beside its own
/// descendant (`{[Geography].[Denmark], [Geography].[Denmark].[Midtjylland]}`)
/// gives a code several, and its pivot adds each fact through the
/// positions instead.
struct AxisCodes<'a> {
    dimension: Dimension,
    members: usize,
    dict: &'a [MemberId],
    offsets: Vec<usize>,
    positions: Vec<usize>,
}

impl<'a> AxisCodes<'a> {
    fn resolve(dw: &'a Warehouse, axis: &PivotAxis) -> AxisCodes<'a> {
        let h = dw.hierarchy(axis.dimension);
        let dict = dw.columns().dict(axis.dimension).dict();
        let mut offsets = Vec::with_capacity(dict.len() + 1);
        let mut positions = Vec::new();
        offsets.push(0);
        for &leaf in dict {
            positions.extend(
                axis.members
                    .iter()
                    .enumerate()
                    .filter(|&(_, &m)| h.is_descendant(leaf, m))
                    .map(|(p, _)| p),
            );
            offsets.push(positions.len());
        }
        AxisCodes {
            dimension: axis.dimension,
            members: axis.members.len(),
            dict,
            offsets,
            positions,
        }
    }

    /// The dictionary leaves with at least one axis position: a fact
    /// keyed to any other leaf falls in no cell.
    fn leaves(&self) -> Vec<MemberId> {
        self.dict
            .iter()
            .zip(self.offsets.windows(2))
            .filter(|(_, w)| w[0] < w[1])
            .map(|(&leaf, _)| leaf)
            .collect()
    }

    /// For a disjoint axis, each code's slot times `stride`: its axis
    /// position, or the "no member" slot after the last position for a
    /// code no member covers. `None` when a code has several positions.
    fn slots(&self, stride: usize) -> Option<Vec<usize>> {
        self.offsets
            .windows(2)
            .map(|w| match w[1] - w[0] {
                0 => Some(self.members * stride),
                1 => Some(self.positions[w[0]] * stride),
                _ => None,
            })
            .collect()
    }

    /// The axis positions offset `k` belongs to, given its segment's
    /// code columns, ascending.
    #[inline]
    fn positions_of(&self, codes: &[&[u32]; 6], k: usize) -> &[usize] {
        let code = codes[self.dimension as usize][k] as usize;
        &self.positions[self.offsets[code]..self.offsets[code + 1]]
    }
}

/// The positions fallback for a pivot with an overlapping axis: each fact
/// adds into every cell of its row positions × column positions.
struct Overlapping<'a> {
    rows: &'a AxisCodes<'a>,
    cols: &'a AxisCodes<'a>,
    stride: usize,
    cells: &'a mut Cells,
    divisor: Option<f64>,
}

impl Sink for Overlapping<'_> {
    fn add(&mut self, codes: &[&[u32]; 6], values: &[i64], k: usize) {
        let value = self.divisor.map(|divisor| values[k] as f64 / divisor);
        for &r in self.rows.positions_of(codes, k) {
            for &c in self.cols.positions_of(codes, k) {
                self.cells.add(r * self.stride + c, value);
            }
        }
    }
}

impl Warehouse {
    /// Evaluates a pivot specification: each cell is the base query's
    /// measure over the facts under its row member and its column member,
    /// equal bit for bit to a per-cell [`Warehouse::eval`] — computed in
    /// one pass over the fact columns.
    pub fn pivot(&self, spec: &PivotSpec) -> Result<PivotTable, DwError> {
        let row_h = self.hierarchy(spec.rows.dimension);
        let col_h = self.hierarchy(spec.columns.dimension);
        for &m in &spec.rows.members {
            if row_h.member(m).is_none() {
                return Err(DwError::UnknownMember { dimension: spec.rows.dimension, member: m });
            }
        }
        for &m in &spec.columns.members {
            if col_h.member(m).is_none() {
                return Err(DwError::UnknownMember {
                    dimension: spec.columns.dimension,
                    member: m,
                });
            }
        }

        let measure = spec.base.measure;
        let n_rows = spec.rows.members.len();
        let n_cols = spec.columns.members.len();
        // One dense (rows + 1) × (columns + 1) accumulator: the last row
        // and column take the facts no member covers. One ascending pass
        // over the facts that meet the base query's restrictions adds each
        // fact into its cell, so each cell sums its facts in the same
        // order a per-cell `eval` would, and the `f64` totals are
        // bit-identical.
        let stride = n_cols + 1;
        let mut cells = Cells::new(measure, (n_rows + 1) * stride);
        if n_rows > 0 && n_cols > 0 {
            let base = Query { group_by: None, ..spec.base.clone() };
            self.validate(&base)?;
            if let Some(mut restrictions) = Restrictions::resolve(self, &base) {
                let rows = AxisCodes::resolve(self, &spec.rows);
                let cols = AxisCodes::resolve(self, &spec.columns);
                // A geography axis below the root (a region's cities, one
                // district) covers part of the facts; its spatial postings
                // then drive the pass, as they drove each per-cell `eval`.
                for (axis, codes) in [(&spec.rows, &rows), (&spec.columns, &cols)] {
                    if axis.dimension == Dimension::Geography {
                        restrictions.narrow_to_leaves(self.spatial_index(), &codes.leaves());
                    }
                }
                match (rows.slots(stride), cols.slots(1)) {
                    (Some(row_slots), Some(col_slots)) => {
                        let key = CellKey([
                            (rows.dimension, row_slots.as_slice()),
                            (cols.dimension, col_slots.as_slice()),
                        ]);
                        restrictions.accumulate(&mut cells, key);
                    }
                    _ => restrictions.drive(&mut Overlapping {
                        rows: &rows,
                        cols: &cols,
                        stride,
                        cells: &mut cells,
                        divisor: restrictions.divisor(),
                    }),
                }
            }
        }
        let cells = (0..n_rows)
            .map(|r| (0..n_cols).map(|c| cells.value(measure, r * stride + c)).collect())
            .collect();
        let row_labels = spec.rows.members.iter().map(|&m| row_h.path(m).join(" / ")).collect();
        let col_labels = spec
            .columns
            .members
            .iter()
            .map(|&m| col_h.member(m).map(|mm| mm.name.clone()).unwrap_or_default())
            .collect();
        Ok(PivotTable {
            row_members: spec.rows.members.clone(),
            row_labels,
            col_members: spec.columns.members.clone(),
            col_labels,
            cells,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::query::Measure;
    use mirabel_flexoffer::OfferState;
    use mirabel_workload::{generate_offers, OfferConfig, Population, PopulationConfig};

    fn warehouse() -> Warehouse {
        let pop =
            Population::generate(&PopulationConfig { size: 250, seed: 33, household_share: 0.8 });
        let offers = generate_offers(&pop, &OfferConfig { days: 2, ..Default::default() });
        Warehouse::load(&pop, &offers)
    }

    #[test]
    fn figure5_pivot_prosumers_by_day() {
        let dw = warehouse();
        let rows = PivotAxis::children_of(
            &dw,
            Dimension::ProsumerType,
            dw.hierarchy(Dimension::ProsumerType).all().id,
        );
        let cols = PivotAxis::level(&dw, Dimension::Time, 3);
        let spec = PivotSpec { rows, columns: cols, base: Query::new(Measure::Count) };
        let t = dw.pivot(&spec).unwrap();
        assert_eq!(t.n_rows(), 2); // Consumer, Producer
        assert!(t.n_cols() >= 2); // at least two days
                                  // Cell sums equal the unpivoted total.
        let total: f64 = t.cells.iter().flatten().sum();
        assert_eq!(total as usize, dw.columns().len());
        assert!(t.to_text().contains("Consumer"));
        assert_eq!(t.row_totals().len(), 2);
    }

    #[test]
    fn drill_down_replaces_member_with_children() {
        let dw = warehouse();
        let h = dw.hierarchy(Dimension::ProsumerType);
        let mut axis = PivotAxis::children_of(&dw, Dimension::ProsumerType, h.all().id);
        let consumer = h.member_by_name("Consumer").unwrap().id;
        axis.drill_down(&dw, consumer);
        // Consumer replaced by its four leaf types, Producer untouched.
        assert_eq!(axis.members.len(), 1 + 4);
        assert!(!axis.members.contains(&consumer));

        // Drill-up restores it.
        axis.drill_up(&dw, consumer);
        assert_eq!(axis.members.len(), 2);
        assert!(axis.members.contains(&consumer));
        // Order: Consumer back at the front.
        assert_eq!(axis.members[0], consumer);
    }

    #[test]
    fn drill_down_on_leaf_is_noop() {
        let dw = warehouse();
        let h = dw.hierarchy(Dimension::ProsumerType);
        let household = h.member_by_name("Household").unwrap().id;
        let mut axis = PivotAxis { dimension: Dimension::ProsumerType, members: vec![household] };
        axis.drill_down(&dw, household);
        assert_eq!(axis.members, vec![household]);
        // Drill-up on a parent with no children present is a no-op too.
        let producer = h.member_by_name("Producer").unwrap().id;
        axis.drill_up(&dw, producer);
        assert_eq!(axis.members, vec![household]);
    }

    #[test]
    fn drill_preserves_pivot_totals() {
        let dw = warehouse();
        let h = dw.hierarchy(Dimension::ProsumerType);
        let mut rows = PivotAxis::children_of(&dw, Dimension::ProsumerType, h.all().id);
        let cols = PivotAxis::level(&dw, Dimension::Time, 1);
        let before = dw
            .pivot(&PivotSpec {
                rows: rows.clone(),
                columns: cols.clone(),
                base: Query::new(Measure::Count),
            })
            .unwrap();
        let consumer = h.member_by_name("Consumer").unwrap().id;
        rows.drill_down(&dw, consumer);
        let after =
            dw.pivot(&PivotSpec { rows, columns: cols, base: Query::new(Measure::Count) }).unwrap();
        let sum = |t: &PivotTable| -> f64 { t.cells.iter().flatten().sum() };
        assert!((sum(&before) - sum(&after)).abs() < 1e-9);
    }

    #[test]
    fn unknown_members_rejected() {
        let dw = warehouse();
        let rows = PivotAxis { dimension: Dimension::EnergyType, members: vec![MemberId(404)] };
        let cols = PivotAxis::level(&dw, Dimension::Time, 1);
        let err = dw
            .pivot(&PivotSpec { rows, columns: cols, base: Query::new(Measure::Count) })
            .unwrap_err();
        assert!(matches!(err, DwError::UnknownMember { .. }));
    }

    #[test]
    fn measure_cells_respect_base_filters() {
        let dw = warehouse();
        let geo = dw.hierarchy(Dimension::Geography);
        let region = geo.member_by_name("Hovedstaden").unwrap().id;
        let rows = PivotAxis::level(&dw, Dimension::Appliance, 1);
        let cols = PivotAxis::level(&dw, Dimension::Time, 1);
        let unfiltered = dw
            .pivot(&PivotSpec {
                rows: rows.clone(),
                columns: cols.clone(),
                base: Query::new(Measure::Count),
            })
            .unwrap();
        let filtered = dw
            .pivot(&PivotSpec {
                rows,
                columns: cols,
                base: Query::new(Measure::Count).filter(Dimension::Geography, region),
            })
            .unwrap();
        let sum = |t: &PivotTable| -> f64 { t.cells.iter().flatten().sum() };
        assert!(sum(&filtered) < sum(&unfiltered));
        assert!(sum(&filtered) > 0.0);
    }

    #[test]
    fn overlapping_axis_members_each_count_their_facts() {
        let dw = warehouse();
        for measure in Measure::ALL {
            let t = dw
                .mdx(&format!(
                    "SELECT {{ [Prosumer].Children }} ON COLUMNS, \
                     {{ [Geography].[Denmark], [Geography].[Denmark].[Midtjylland] }} ON ROWS \
                     FROM [FlexOffers] WHERE ( [Measures].[{measure}] )"
                ))
                .unwrap();
            assert_eq!(t.n_rows(), 2);
            for (r, &row) in t.row_members.iter().enumerate() {
                for (c, &col) in t.col_members.iter().enumerate() {
                    let q = Query::new(measure)
                        .filter(Dimension::Geography, row)
                        .filter(Dimension::ProsumerType, col);
                    let expected = dw.eval(&q).unwrap().total;
                    assert_eq!(t.cells[r][c].to_bits(), expected.to_bits(), "{measure} ({r}, {c})");
                }
            }
            if measure == Measure::Count {
                // The region's facts are counted under the country as well.
                assert!(t.row_totals()[1] > 0.0 && t.row_totals()[1] < t.row_totals()[0]);
            }
        }
    }

    #[test]
    fn geography_axes_below_the_root_match_per_cell_eval() {
        // These axes cover part of the facts, so their spatial postings
        // drive the pass; base filters and statuses still apply.
        let dw = warehouse();
        let geo = dw.hierarchy(Dimension::Geography);
        let region = geo.member_by_name("Midtjylland").unwrap().id;
        let aarhus = geo.member_by_name("Aarhus").unwrap().id;
        let district = geo.children(aarhus).next().unwrap().id;
        let elsewhere = geo.member_by_name("Hovedstaden").unwrap().id;
        let axes = [
            PivotAxis::children_of(&dw, Dimension::Geography, region),
            PivotAxis { dimension: Dimension::Geography, members: vec![district] },
            PivotAxis { dimension: Dimension::Geography, members: vec![aarhus, elsewhere] },
        ];
        let bases = [
            Query::new(Measure::TotalMaxEnergy),
            Query::new(Measure::AvgPrice).filter(Dimension::Geography, aarhus),
            Query::new(Measure::Count).filter(Dimension::Geography, elsewhere),
            Query::new(Measure::Count).statuses([OfferState::Offered]).time_range(
                mirabel_timeseries::TimeSlot::new(0),
                mirabel_timeseries::TimeSlot::new(96),
            ),
        ];
        let columns = PivotAxis::level(&dw, Dimension::ProsumerType, 1);
        for rows in &axes {
            for base in &bases {
                let spec =
                    PivotSpec { rows: rows.clone(), columns: columns.clone(), base: base.clone() };
                let t = dw.pivot(&spec).unwrap();
                for (r, &row) in rows.members.iter().enumerate() {
                    for (c, &col) in columns.members.iter().enumerate() {
                        let q = base
                            .clone()
                            .filter(Dimension::Geography, row)
                            .filter(Dimension::ProsumerType, col);
                        let expected = dw.eval(&q).unwrap().total;
                        assert_eq!(t.cells[r][c].to_bits(), expected.to_bits(), "{base:?} {r} {c}");
                    }
                }
            }
        }
    }

    #[test]
    fn base_filter_errors_need_a_cell() {
        let dw = warehouse();
        let bad = Query::new(Measure::Count).filter(Dimension::Grid, MemberId(99_999));
        let rows = PivotAxis::level(&dw, Dimension::Appliance, 1);
        let cols = PivotAxis::level(&dw, Dimension::Time, 1);
        let err = dw
            .pivot(&PivotSpec { rows: rows.clone(), columns: cols, base: bad.clone() })
            .unwrap_err();
        assert!(matches!(err, DwError::UnknownMember { dimension: Dimension::Grid, .. }));
        // With no cells there is nothing to evaluate the base query for.
        let empty = PivotAxis { dimension: Dimension::Time, members: Vec::new() };
        let t = dw.pivot(&PivotSpec { rows, columns: empty, base: bad }).unwrap();
        assert_eq!(t.cells, vec![Vec::<f64>::new(); t.n_rows()]);
    }
}
