//! # mirabel — visualizing complex energy planning objects with inherent flexibilities
//!
//! A from-scratch Rust reproduction of Šikšnys & Kaulakienė,
//! *Visualizing Complex Energy Planning Objects With Inherent
//! Flexibilities*, EDBT/ICDT Workshops 2013 — the flex-offer
//! visualization tool of the MIRABEL smart-grid project, together with
//! every substrate it stands on.
//!
//! This facade crate re-exports the workspace members:
//!
//! * [`timeseries`] — 15-minute slots, civil calendar, series;
//! * [`flexoffer`] — the flex-offer model (Figure 2);
//! * [`aggregation`] — flex-offer aggregation/disaggregation (Figure 11);
//! * [`scheduling`] — planners balancing flexible load against RES
//!   surplus (Figure 1);
//! * [`forecast`] — demand/supply forecasting baselines;
//! * [`geo`] / [`grid`] — synthetic Denmark geography and grid topology;
//! * [`workload`] — seeded synthetic prosumers, offers and curves;
//! * [`dw`] — the MIRABEL data warehouse: hierarchies, measures,
//!   OLAP queries, MDX-lite, pivots (Figures 5–7);
//! * [`market`] — spot market + the enterprise planning loop;
//! * [`viz`] — the headless scene-graph/render engine;
//! * [`session`] — the command-driven session engine: views
//!   (Figures 2–11), cached frames, command log replay, the sharded
//!   session pool;
//! * [`net`] — the TCP front over the serving layer (PROTOCOL.md).
//!
//! See `examples/quickstart.rs` for a five-minute tour, DESIGN.md for
//! the architecture and substitutions, and the `figures` binary of
//! `mirabel-bench` for every figure regenerated from seeded data.

pub use mirabel_aggregation as aggregation;
pub use mirabel_dw as dw;
pub use mirabel_flexoffer as flexoffer;
pub use mirabel_forecast as forecast;
pub use mirabel_geo as geo;
pub use mirabel_grid as grid;
pub use mirabel_market as market;
pub use mirabel_net as net;
pub use mirabel_scheduling as scheduling;
pub use mirabel_session as session;
pub use mirabel_timeseries as timeseries;
pub use mirabel_viz as viz;
pub use mirabel_workload as workload;
