//! The MIRABEL data warehouse substrate.
//!
//! The paper's tool "reads flex-offers and related data from a database
//! employing the MIRABEL DW schema \[23\]" (Section 4, Figure 7), and
//! Section 3 demands OLAP-style analysis: filtering and grouping over
//! six dimension families, "intuitive dimension hierarchies as those in
//! OLAP", a pivot view with an MDX query window (Figure 5), and the five
//! aggregate measures (count, attribute value, scheduled energy, plan
//! deviations, energy balancing potential).
//!
//! This crate is the in-memory reproduction of that warehouse (the
//! PostgreSQL engine behind the original tool is substituted per
//! DESIGN.md — the logical query surface is identical):
//!
//! * [`Hierarchy`]/[`Member`] — dimension hierarchies built from the
//!   geography, grid topology, attribute enums and the loaded time window;
//! * [`Warehouse`] — the star schema, stored struct-of-arrays: one
//!   [`ColumnStore`] holding a column per dimension leaf key (as
//!   dictionary codes) and per measure input (plus CSR per-slice maximum
//!   energies) and the original
//!   offers for the detail views, cut into copy-on-write [`Segment`]s of
//!   [`SEGMENT_FACTS`] facts; [`FactRow`] is the row-shaped view
//!   materialized on demand;
//! * [`OfferView`]/[`WarehouseRead`] — the redesigned read surface:
//!   loader queries answer as borrowed views over the epoch's columns
//!   (with [`OfferView::materialize`] as the owned-handle escape
//!   hatch), and one trait abstracts over warehouse/snapshot flavors;
//! * [`Query`]/[`Measure`] — filter + group-by evaluation with
//!   hierarchical member semantics (filtering on `[Geography].[Jutland]`
//!   matches every fact whose district lies below it);
//! * [`PivotTable`] — rows × columns pivots for the Figure 5 view, with
//!   drill-down/up helpers;
//! * [`mdx`] — an MDX-lite parser and evaluator for the pivot view's
//!   query window ("a possibility to manually formulate a query (e.g., in
//!   MDX) for the view must be provided", Section 3);
//! * [`LoaderQuery`] — the Figure 7 loader (built with
//!   [`LoaderQuery::builder`]): select a legal entity, a direction and an
//!   absolute time interval, get flex-offers; region-scoped queries
//!   ([`LoaderQuery::for_region`]) answer from the per-region fact index
//!   in O(offers-in-subtree) (see [`spatial`]), and window-only queries
//!   from a time index over the fact extents in O(selected), which also
//!   feeds the Figure 6 dashboard ([`Warehouse::for_each_start_in`]).
//!   Every such index is derived from one warehouse version by its first
//!   read, never maintained by the writer;
//! * [`spatial`] — the spatial dimension's per-region posting lists;
//! * [`LiveWarehouse`] — streaming ingest: batched
//!   ingest/withdraw/advance-day deltas applied incrementally to a
//!   working copy, published as immutable [`EpochSnapshot`]s so readers
//!   are wait-free; a batch copies only the segments it writes (see
//!   [`live`]).
//!
//! Design note: the time dimension uses All → Year → Month → Day as its
//! member tree (compact and sufficient for pivots), while quarter-hour
//! and hour granularities are served by time-*range* filters plus series
//! bucketing — exactly how the paper's dashboard (Figure 6) consumes
//! them.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod columns;
mod fact;
mod hierarchy;
pub mod live;
pub mod mdx;
mod pivot;
mod query;
pub mod spatial;
mod time_index;
mod view;
mod warehouse;

pub use columns::{
    status_code, ColumnStore, DictColumn, FactColumn, FactIter, LeafKeys, Segment, SEGMENT_FACTS,
};
pub use fact::FactRow;
pub use hierarchy::{Dimension, Hierarchy, Member, MemberId};
pub use live::{EpochSnapshot, LiveWarehouse};
pub use pivot::{PivotAxis, PivotSpec, PivotTable};
pub use query::{DwError, Filter, Measure, Query, QueryResult};
pub use spatial::{region_leaves, SpatialIndex};
pub use view::{EpochRef, OfferView, WarehouseRead};
pub use warehouse::{IngestOutcome, LoaderQuery, LoaderQueryBuilder, ScheduleOutcome, Warehouse};
