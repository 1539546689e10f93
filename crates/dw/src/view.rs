//! The redesigned read surface: borrowed views over the epoch's columns.
//!
//! A [`LoaderQuery`](crate::LoaderQuery) used to answer with
//! `Vec<Arc<FlexOffer>>` — one refcount bump per offer per evaluation,
//! even when the caller only wanted ids or per-slice bounds. The
//! [`OfferView`] returned by [`Warehouse::view`](crate::Warehouse::view)
//! instead borrows the snapshot's [`ColumnStore`]: it owns nothing but
//! the selected indices (ascending fact positions), so diffing a
//! standing plan against an epoch, grouping offers for aggregation, or
//! merging load curves reads the segments' columns without touching an
//! `Arc`. Callers that truly
//! need owned offers (a view tab outliving the borrow, a planner
//! cloning arrivals) use the explicit [`OfferView::materialize`] escape
//! hatch, which hands out the warehouse's *own* allocations, so many
//! tabs across many sessions share one copy of each offer.
//!
//! [`WarehouseRead`] is the companion half of the redesign: one trait
//! over every snapshot flavor — a bare [`Warehouse`], a published
//! [`EpochSnapshot`], or a borrowed [`EpochRef`] — so session and
//! planner code stops special-casing which one it holds.

use std::sync::Arc;

use mirabel_flexoffer::{FlexOffer, FlexOfferId};

use crate::columns::{locate, ColumnStore};
use crate::fact::FactRow;
use crate::live::EpochSnapshot;
use crate::warehouse::Warehouse;

/// A borrowed query result: the selected fact indices over one
/// warehouse's columns. Cheap to produce (no per-offer refcounting),
/// cheap to iterate (each index is a segment and an offset into its
/// plain columns), and explicit about the one operation that allocates
/// shared handles ([`OfferView::materialize`]).
///
/// Index space: positions `0..len()` address the *selection*; each maps
/// to a fact index in the underlying store ([`OfferView::indices`]).
#[derive(Debug, Clone)]
pub struct OfferView<'a> {
    dw: &'a Warehouse,
    indices: Vec<usize>,
}

impl<'a> OfferView<'a> {
    pub(crate) fn new(dw: &'a Warehouse, indices: Vec<usize>) -> OfferView<'a> {
        OfferView { dw, indices }
    }

    /// Number of selected offers.
    pub fn len(&self) -> usize {
        self.indices.len()
    }

    /// `true` when the query matched nothing.
    pub fn is_empty(&self) -> bool {
        self.indices.is_empty()
    }

    /// The selected fact indices (ascending fact order), into the
    /// underlying [`OfferView::columns`].
    pub fn indices(&self) -> &[usize] {
        &self.indices
    }

    /// The warehouse's columnar fact store this view borrows from.
    pub fn columns(&self) -> &'a ColumnStore {
        self.dw.columns()
    }

    /// Offer id of selection position `k`.
    pub fn id(&self, k: usize) -> FlexOfferId {
        let (s, offset) = locate(self.indices[k]);
        self.columns().segments()[s].offer_ids()[offset]
    }

    /// Ids of every selected offer, in selection order.
    pub fn ids(&self) -> impl Iterator<Item = FlexOfferId> + '_ {
        let ids = self.columns().offer_ids();
        self.indices.iter().map(move |&i| ids[i])
    }

    /// Borrowed offer at selection position `k`.
    pub fn offer(&self, k: usize) -> &'a FlexOffer {
        self.dw.shared_offer(self.indices[k])
    }

    /// The warehouse's shared handle for selection position `k` — one
    /// `Arc::clone` away from an owned handle, without materializing
    /// the whole selection.
    pub fn shared(&self, k: usize) -> &'a Arc<FlexOffer> {
        self.dw.shared_offer(self.indices[k])
    }

    /// Borrowed offers in selection order.
    pub fn iter(&self) -> impl Iterator<Item = &'a FlexOffer> + '_ {
        let dw = self.dw;
        self.indices.iter().map(move |&i| -> &'a FlexOffer { dw.shared_offer(i) })
    }

    /// Materialized fact rows in selection order (the row-shaped
    /// reference; columnar consumers read [`OfferView::columns`]
    /// through [`OfferView::indices`] instead).
    pub fn rows(&self) -> impl Iterator<Item = FactRow> + '_ {
        let cols = self.columns();
        self.indices.iter().map(move |&i| cols.row(i))
    }

    /// The escape hatch: owned shared handles for every selected offer,
    /// in selection order. Hands out the warehouse's own allocations
    /// (`Arc::clone`, never a payload clone) — opt-in instead of the
    /// default cost of every query.
    pub fn materialize(&self) -> Vec<Arc<FlexOffer>> {
        self.indices.iter().map(|&i| Arc::clone(self.dw.shared_offer(i))).collect()
    }
}

/// Read access to a warehouse state, however it is held.
///
/// [`Warehouse`], [`EpochSnapshot`] and [`EpochRef`] all implement
/// this, so code that evaluates queries, opens views or plans against
/// "some snapshot" takes `&impl WarehouseRead` and stops caring whether
/// the caller holds a bare warehouse (epoch 0 by convention), a
/// published epoch, or a borrowed pair.
pub trait WarehouseRead {
    /// The underlying warehouse state.
    fn warehouse(&self) -> &Warehouse;

    /// The epoch this state was published at. A bare [`Warehouse`]
    /// reports 0 — the same convention as an initial-load snapshot.
    fn epoch(&self) -> u64 {
        0
    }
}

impl WarehouseRead for Warehouse {
    fn warehouse(&self) -> &Warehouse {
        self
    }
}

impl WarehouseRead for EpochSnapshot {
    fn warehouse(&self) -> &Warehouse {
        EpochSnapshot::warehouse(self)
    }

    fn epoch(&self) -> u64 {
        EpochSnapshot::epoch(self)
    }
}

/// A borrowed warehouse tagged with the epoch it was read at — the
/// cheapest [`WarehouseRead`] implementor, for callers (like the
/// session engine) that track epochs out of band.
#[derive(Debug, Clone, Copy)]
pub struct EpochRef<'a> {
    /// The borrowed warehouse state.
    pub warehouse: &'a Warehouse,
    /// The epoch the caller knows this state was published at.
    pub epoch: u64,
}

impl WarehouseRead for EpochRef<'_> {
    fn warehouse(&self) -> &Warehouse {
        self.warehouse
    }

    fn epoch(&self) -> u64 {
        self.epoch
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{LiveWarehouse, LoaderQuery};
    use mirabel_workload::{generate_offers, OfferConfig, Population, PopulationConfig};

    fn setup() -> (Population, Vec<FlexOffer>) {
        let pop =
            Population::generate(&PopulationConfig { size: 80, seed: 77, household_share: 0.8 });
        let offers = generate_offers(&pop, &OfferConfig::default());
        (pop, offers)
    }

    #[test]
    fn view_matches_the_borrowed_loader() {
        let (pop, offers) = setup();
        let dw = Warehouse::load(&pop, &offers);
        let q = LoaderQuery::for_prosumer(offers[0].prosumer()).build();
        let view = dw.view(&q);
        let borrowed = dw.load_offers(&q);
        assert_eq!(view.len(), borrowed.len());
        assert!(!view.is_empty());
        for (k, fo) in borrowed.iter().enumerate() {
            assert_eq!(view.id(k), fo.id());
            assert_eq!(view.offer(k).id(), fo.id());
        }
        assert_eq!(
            view.ids().collect::<Vec<_>>(),
            borrowed.iter().map(|o| o.id()).collect::<Vec<_>>()
        );
        assert_eq!(view.iter().count(), borrowed.len());
    }

    #[test]
    fn materialize_hands_out_warehouse_allocations() {
        let (pop, offers) = setup();
        let dw = Warehouse::load(&pop, &offers);
        let view = dw.view(&LoaderQuery::builder().build());
        let owned = view.materialize();
        assert_eq!(owned.len(), dw.offers().len());
        for (arc, dw_arc) in owned.iter().zip(dw.offers()) {
            assert!(Arc::ptr_eq(arc, dw_arc), "materialize must share, not clone payloads");
        }
        // `shared` exposes the same handle one position at a time.
        assert!(Arc::ptr_eq(view.shared(3), &dw.offers()[view.indices()[3]]));
    }

    #[test]
    fn view_rows_and_slices_agree_with_the_columns() {
        let (pop, offers) = setup();
        let dw = Warehouse::load(&pop, &offers);
        let q = LoaderQuery::builder().build();
        let view = dw.view(&q);
        for (k, row) in view.rows().enumerate() {
            let (s, offset) = locate(view.indices()[k]);
            assert_eq!(row, dw.columns().row(view.indices()[k]));
            let max_wh = dw.columns().segments()[s].slice_max_wh(offset);
            assert_eq!(max_wh.len(), row.profile_len);
            assert_eq!(max_wh.iter().sum::<i64>(), row.total_max_wh);
        }
    }

    #[test]
    fn warehouse_read_unifies_snapshot_flavors() {
        let (pop, offers) = setup();
        let live = LiveWarehouse::new(pop, &offers);
        live.advance_day();
        let snap = live.publish();

        fn count(r: &impl WarehouseRead) -> (u64, usize) {
            (r.epoch(), r.warehouse().columns().len())
        }

        let (e, n) = count(&*snap);
        assert_eq!(e, 1);
        assert_eq!(n, offers.len());
        // A bare warehouse reads as epoch 0.
        let (e0, n0) = count(snap.warehouse().as_ref());
        assert_eq!(e0, 0);
        assert_eq!(n0, n);
        // A borrowed pair carries whatever epoch the caller tracked.
        let (e9, n9) = count(&EpochRef { warehouse: snap.warehouse(), epoch: 9 });
        assert_eq!((e9, n9), (9, n));
    }
}
