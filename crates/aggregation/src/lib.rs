//! Flex-offer aggregation and disaggregation.
//!
//! The paper's visualization tool "integrates the flex-offer aggregation
//! and disaggregation functionalities \[28\]. This allows, for example,
//! reducing the count of flex-offers shown on a screen by aggregation, as
//! well as allows interactive tuning values of the aggregation
//! parameters" (Section 4, Figure 11). This crate implements that
//! functionality in the style of reference \[28\] (Šikšnys, Khalefa,
//! Pedersen: *Aggregating and Disaggregating Flexibility Objects*,
//! SSDBM 2012):
//!
//! 1. **Grouping** ([`group_offers`]): offers are partitioned by a grid
//!    over (earliest start time, time flexibility) controlled by the two
//!    tolerance parameters of [`AggregationParams`] — the *EST tolerance*
//!    and the *TFT (time-flexibility) tolerance* — so that only offers
//!    with similar placement and similar flexibility are merged, bounding
//!    the flexibility lost to aggregation.
//! 2. **Aggregation** ([`Aggregator::aggregate`]): each group is merged
//!    with *start alignment*: member profiles are anchored at their own
//!    earliest start, offset against the group's earliest start, and the
//!    per-slot `[min,max]` bounds are summed. The aggregate keeps the
//!    *minimum* member time flexibility, so any schedule for the aggregate
//!    is feasible for every member.
//! 3. **Disaggregation** ([`Aggregator::disaggregate`]): a schedule
//!    assigned to an aggregate is split back to the members slot by slot;
//!    each member first receives its minimum bound and the surplus is
//!    distributed proportionally to the members' remaining capacity with
//!    a largest-remainder rule, keeping integer watt-hours **exact**: the
//!    member schedules sum to the aggregate schedule per slot, and each
//!    is feasible for its offer.
//!
//! The provenance map ([`AggregateOffer::member_ids`]) powers the
//! "indications (red dashed lines) on which flex-offers were aggregated
//! to produce the pointed flex-offer" of Figure 10.
//!
//! For a *streaming* population (the live warehouse), the
//! [`IncrementalAggregator`] maintains the same grouping without
//! re-running it: ingested and withdrawn members patch only their own
//! grid cell, and [`IncrementalAggregator::refresh`] re-merges exactly
//! the dirty cells (see [`incremental`]).
//!
//! # Example
//!
//! ```
//! use mirabel_aggregation::{AggregationParams, Aggregator};
//! use mirabel_flexoffer::{Energy, FlexOffer, Schedule};
//! use mirabel_timeseries::{SlotSpan, TimeSlot};
//!
//! let t = TimeSlot::new(100);
//! let mk = |id: u64, shift: i64| {
//!     FlexOffer::builder(id, id)
//!         .earliest_start(t + SlotSpan::slots(shift))
//!         .latest_start(t + SlotSpan::slots(shift + 8))
//!         .slices(4, Energy::from_wh(100), Energy::from_wh(500))
//!         .build()
//!         .unwrap()
//! };
//! let offers = vec![mk(1, 0), mk(2, 1), mk(3, 2)];
//! let aggregator = Aggregator::new(AggregationParams::default());
//! let result = aggregator.aggregate(&offers).unwrap();
//! assert_eq!(result.aggregates.len(), 1); // all three merged
//!
//! // Schedule the aggregate at its earliest start with minimum energy,
//! // then split it back.
//! let agg = &result.aggregates[0];
//! let schedule = Schedule::new(
//!     agg.offer().earliest_start(),
//!     agg.offer().profile().slices().iter().map(|s| s.min).collect(),
//! );
//! let member_schedules = aggregator.disaggregate(agg, &schedule).unwrap();
//! assert_eq!(member_schedules.len(), 3);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod aggregate;
mod disaggregate;
mod error;
mod group;
pub mod incremental;
mod params;

pub use aggregate::{AggregateOffer, AggregationResult, Aggregator, MemberPlacement};
pub use disaggregate::split_energy;
pub use error::AggregationError;
pub use group::{group_offers, GroupKey};
pub use incremental::{CellView, IncrementalAggregator, RefreshStats};
pub use params::AggregationParams;
