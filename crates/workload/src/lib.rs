//! Seeded synthetic workloads.
//!
//! The MIRABEL enterprise of the paper "collects millions of energy
//! readings and flex-offers from individual prosumers (e.g., households)
//! in a certain geographical region, e.g., Denmark" (Section 2). That
//! data is proprietary, so the reproduction generates statistically
//! similar synthetic workloads (see the substitution table in DESIGN.md):
//!
//! * [`Population`] — prosumers placed on the synthetic Denmark geography
//!   (proportionally to city weights) and attached to grid feeders, with
//!   type-dependent appliance portfolios;
//! * [`generate_offers`] — flex-offers drawn from per-appliance
//!   archetypes (EV night charging — the paper's running example — heat
//!   pumps, wet appliances, batteries, industrial processes, and RES
//!   production offers); [`generate_offer_pool`] loops it into a
//!   fixed-size pool of accepted offers for the planning and columnar
//!   harnesses;
//! * [`curves`] — diurnal base-load and RES supply curves (solar bell +
//!   autocorrelated wind) for the Figure 1 balancing experiment;
//! * [`trace`] — seeded multi-user interaction traces (hover storms,
//!   selections, tab switches, MDX/dashboard/aggregation operations),
//!   the steps the network traces are woven from;
//! * [`ingest`] — seeded flex-offer arrival/withdrawal/day-tick streams
//!   (the SAREF4ENER lifecycle) for the live warehouse's tests, the
//!   columnar harness and the repository benchmark's `live` writer;
//! * [`net`] — seeded multi-client network traces (interaction steps
//!   plus connection-lifecycle reconnects and resumes) behind the
//!   repository benchmark's `explore` workload;
//! * [`spatial`] — city-scale density-skewed populations and
//!   region-scoped drill traces for the spatial-dimension harness
//!   (`BENCH_spatial.json`).
//!
//! Everything is deterministic in the explicit seeds: the same
//! [`ScenarioConfig`] always regenerates the same scenario, which is what
//! makes the figure artefacts reproducible.
//!
//! # Example
//!
//! ```
//! use mirabel_workload::{Scenario, ScenarioConfig};
//!
//! let scenario = Scenario::generate(&ScenarioConfig { prosumers: 100, ..Default::default() });
//! assert_eq!(scenario.population.prosumers().len(), 100);
//! assert!(!scenario.offers.is_empty());
//! // Deterministic: regenerating gives the identical offer set.
//! let again = Scenario::generate(&ScenarioConfig { prosumers: 100, ..Default::default() });
//! assert_eq!(scenario.offers.len(), again.offers.len());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod curves;
pub mod ingest;
pub mod net;
mod offers;
mod population;
mod scenario;
pub mod spatial;
pub mod trace;

pub use ingest::{generate_ingest_trace, IngestEvent, IngestTraceConfig};
pub use net::{generate_net_traces, NetClientTrace, NetEvent, NetTraceConfig};
pub use offers::{generate_offer_pool, generate_offers, OfferConfig, OfferStats};
pub use population::{Population, PopulationConfig, Prosumer};
pub use scenario::{Scenario, ScenarioConfig};
pub use spatial::{
    generate_spatial_scenario, generate_spatial_traces, SpatialConfig, SpatialStep,
    SpatialTraceConfig, SpatialUserTrace,
};
pub use trace::{generate_traces, InteractionStep, TraceConfig, UserTrace};
