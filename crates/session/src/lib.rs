//! The flex-offer visual analysis engine — the paper's contribution,
//! restructured as a command-driven service.
//!
//! The paper's tool is an interactive GUI. This crate keeps its views as
//! pure functions (data + options → [`Scene`](mirabel_viz::Scene)) and
//! wraps the *interaction model* into a [`Session`]: a stateful engine
//! over a shared [`Warehouse`](mirabel_dw::Warehouse) that accepts a
//! serializable [`Command`] and answers with a structured [`Outcome`] —
//! so a server, a REPL, a test, or a recorded script can all drive the
//! tool identically (the query/response shape of E³-style exploration
//! backends). A [`ConcurrentPool`] multiplexes many independent
//! sessions over one warehouse to model concurrent users, sharded and
//! `Send + Sync` so that many OS threads drive distinct sessions in
//! parallel (see [`concurrent`]).
//!
//! | Paper artefact | Module |
//! |---|---|
//! | Figure 2 — structural elements of a flex-offer | [`views::annotate`] |
//! | Figure 3 — map view | [`views::map`] |
//! | Figure 4 — schematic (grid) view | [`views::schematic`] |
//! | Figure 5 — pivot view with MDX window | [`views::pivot`], [`Command::Mdx`] |
//! | Figure 6 — dashboard view | [`views::dashboard`], [`Command::Dashboard`] |
//! | Figure 7 — flex-offer loading tab | [`Command::Load`] |
//! | Figure 8 — basic view | [`views::basic`] |
//! | Figure 9 — profile view | [`views::profile`] |
//! | Figure 10 — on-the-fly information | [`views::tooltip`], [`Command::PointerMove`] |
//! | Figure 11 — aggregation tools | [`tools`], [`Command::Aggregate`] |
//! | Figure 1 — day-ahead balance | [`views::balance`], [`Command::Plan`], [`planner`] |
//! | Spatial heatmap drill-down | [`views::heatmap`], [`Command::RegionDrill`], [`Command::RegionUp`] |
//!
//! Performance model ("rendering does not freeze the tool"): each
//! [`Tab`] caches its layout, scene, spatial index and id lookup keyed
//! by a revision that only mutating commands bump — a hover/click storm
//! is served from one cached frame. Offers are `Arc`-shared from the
//! warehouse through the loader into every tab of every session; no
//! per-tab clones of the payload. See DESIGN.md for the architecture.
//!
//! Both halves of the command surface are line-encodable — commands via
//! [`Command::encode`]/[`Command::decode`], outcomes via their
//! [`wire`] projection — which is what lets `mirabel-net` serve a
//! session over TCP (PROTOCOL.md is the normative grammar).
//!
//! # Example
//!
//! Drive a session entirely through decoded command lines, exactly as a
//! network front would, and read the reply off the wire encoding:
//!
//! ```
//! use std::sync::Arc;
//! use mirabel_dw::Warehouse;
//! use mirabel_session::{Command, Session, WireOutcome};
//! use mirabel_workload::{generate_offers, OfferConfig, Population, PopulationConfig};
//!
//! let pop = Population::generate(&PopulationConfig {
//!     size: 20, seed: 7, household_share: 0.8 });
//! let offers = generate_offers(&pop, &OfferConfig::default());
//! let mut session = Session::new(Arc::new(Warehouse::load(&pop, &offers)));
//!
//! for line in ["load 0 96 - first day", "set-mode profile", "render"] {
//!     let cmd = Command::decode(line).expect("valid script line");
//!     let reply = session.handle(cmd).to_wire();
//!     // Every reply round-trips through its one-line wire form.
//!     assert_eq!(WireOutcome::decode(&reply.encode()), Ok(reply));
//! }
//! assert_eq!(session.tabs().len(), 1);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod command;
pub mod concurrent;
pub mod outcome;
pub mod planner;
pub mod session;
pub mod tab;
pub mod tools;
pub mod views;
pub mod visual;
pub mod wire;

pub use command::{encode_script, parse_script, Command, CommandParseError};
pub use concurrent::{ConcurrentPool, SessionId};
pub use outcome::{AggregationStats, Outcome, PlanStats, SelectionDelta};
pub use planner::PlanningParams;
pub use session::{Session, SessionStats};
pub use tab::{FrameRef, Selection, Tab, ViewMode};
pub use tools::{AggregationOutcome, AggregationTools};
pub use views::heatmap::{HeatmapCell, HeatmapData, REGION_TAG_BASE};
pub use visual::{slot_label, VisualOffer};
pub use wire::{FrameMeta, WireOutcome, WireParseError};
