//! The flex-offer model — the "complex energy planning object with
//! inherent flexibilities" of the paper's title.
//!
//! A [`FlexOffer`] (Figure 2 of the paper) captures a prosumer's intent or
//! capability to consume or produce energy, together with the
//! flexibilities an energy enterprise may exploit when planning:
//!
//! * a **profile**: per-slot `[min, max]` energy bounds
//!   ([`Profile`], [`EnergySlice`]) — the *energy flexibility*;
//! * a **start-time flexibility** window `[earliest_start, latest_start]`;
//! * **acceptance** and **assignment deadlines** by which the enterprise
//!   must answer;
//! * once planned, a **schedule** ([`Schedule`]): the chosen start time and
//!   per-slot energy amounts; and after the fact, an **execution**
//!   ([`Execution`]): what the prosumer physically consumed or produced.
//!
//! The lifecycle (offered → accepted/rejected → scheduled → executed,
//! with withdrawal before commitment) is a state machine on
//! [`FlexOffer`], and it exists at **two levels**:
//!
//! * the erased form (`FlexOffer`, state tag [`OfferState`]) offers
//!   checked `&mut` transitions for mixed-state collections — every
//!   transition validates its inputs so downstream crates (aggregation,
//!   scheduling, the data warehouse, the views) can rely on well-formed
//!   objects;
//! * the typed form (`FlexOffer<state::Offered>`,
//!   `FlexOffer<state::Accepted>`, …) makes invalid transitions
//!   *compile errors*: transition methods consume `self` and only exist
//!   on the states they are legal from. See [`state`] for the diagram
//!   and the compile-fail proofs.
//!
//! Energy is held as integer watt-hours ([`Energy`]) so that aggregation,
//! disaggregation and warehouse rollups are exact.
//!
//! # Example
//!
//! ```
//! use mirabel_flexoffer::{Direction, Energy, FlexOffer, Schedule};
//! use mirabel_timeseries::{SlotSpan, TimeSlot};
//!
//! // The canonical flex-offer of Figure 2: created 11 pm, earliest start
//! // 1 am, latest start 3 am, 2-hour profile.
//! let t0 = TimeSlot::EPOCH; // midnight
//! let fo = FlexOffer::builder(1, 42)
//!     .direction(Direction::Consumption)
//!     .creation_time(t0 - SlotSpan::hours(2))
//!     .acceptance_deadline(t0 - SlotSpan::hours(1))
//!     .assignment_deadline(t0)
//!     .earliest_start(t0 + SlotSpan::hours(1))
//!     .latest_start(t0 + SlotSpan::hours(3))
//!     .slices(8, Energy::from_wh(500), Energy::from_wh(2_000))
//!     .build()
//!     .unwrap();
//! assert_eq!(fo.time_flexibility(), SlotSpan::hours(2));
//! assert_eq!(fo.energy_flexibility(), Energy::from_wh(8 * 1_500));
//!
//! // Typed lifecycle: `accept` consumes the offer, so accepting twice —
//! // or scheduling a withdrawn offer — does not compile.
//! let accepted = fo.typed::<mirabel_flexoffer::state::Offered>().unwrap().accept();
//! let schedule = Schedule::new(t0 + SlotSpan::hours(2), vec![Energy::from_wh(1_000); 8]);
//! let scheduled = accepted.schedule_with(schedule).unwrap();
//! assert!(scheduled.status().is_scheduled());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod energy;
pub mod error;
mod ids;
mod offer;
mod profile;
mod schedule;
mod types;

pub use energy::Energy;
pub use error::FlexOfferError;
pub use ids::{FlexOfferId, ProsumerId};
pub use offer::{
    state, ExecutionRejected, FlexOffer, FlexOfferBuilder, OfferState, ScheduleRejected,
};
pub use profile::{EnergySlice, Profile};
pub use schedule::{Execution, Schedule};
pub use types::{ApplianceType, Direction, EnergyType, Money, ProsumerType};
