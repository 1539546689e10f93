//! The network boundary: the session engine's command surface served
//! over TCP as a versioned, documented line protocol.
//!
//! Everything below the socket already existed — commands have been
//! line-encodable since PR 1, outcomes gained their wire projection in
//! [`mirabel_session::wire`], and
//! [`ConcurrentPool`](mirabel_session::ConcurrentPool) serves any
//! number of sessions from any number of threads. This crate adds the thin
//! part that was missing: **PROTOCOL.md** (the normative grammar this
//! crate's tests quote), a [`NetServer`] where *each connection is a
//! session*, and a blocking client for the benchmark and the tests
//! ([`NetClient`], the attached state of a [`Connection`]).
//!
//! Connections live in a typestate machine ([`Connection<S>`] — see
//! [`conn`]): the compiler rejects requests before the handshake, after
//! `bye`, or on a detached connection. Sessions are **resumable**: the
//! hello reply carries a single-use resume token, a dropped connection
//! parks its session server-side (bounded by
//! [`server::NetServerConfig`]), and a fresh connection whose first
//! request is `session resume <token>` picks the session back up —
//! tabs, epoch high-water mark and all. Every fallible operation
//! returns the structured [`NetError`] instead of stringified
//! [`std::io::Error`]s.
//!
//! Three properties carry over the wire intact:
//!
//! * **determinism** — replies embed frame content hashes, and the
//!   `hashes` request returns a session's per-tab hashes, so a client
//!   can verify that a replayed command stream rendered bit-identically
//!   to an in-process replay (the repository benchmark's `explore` and
//!   `city` runs check exactly this on every reply);
//! * **liveness** — warehouse epoch publishes reach connected clients
//!   as asynchronous `epoch <e>` notifications, pushed via
//!   [`ConcurrentPool::on_publish`](mirabel_session::ConcurrentPool::on_publish),
//!   with a documented ordering guarantee relative to command replies;
//! * **totality** — malformed lines get `err` replies, rejected
//!   commands get `ok rejected <reason>` replies, and neither kills the
//!   connection or mutates the session.
//!
//! # Example
//!
//! Serve a warehouse on a loopback port and drive it from a client:
//!
//! ```
//! use std::sync::Arc;
//! use mirabel_dw::Warehouse;
//! use mirabel_net::{NetClient, NetServer};
//! use mirabel_session::{Command, ConcurrentPool, WireOutcome};
//! use mirabel_workload::{generate_offers, OfferConfig, Population, PopulationConfig};
//!
//! let pop = Population::generate(&PopulationConfig {
//!     size: 20, seed: 7, household_share: 0.8 });
//! let offers = generate_offers(&pop, &OfferConfig::default());
//! let pool = Arc::new(ConcurrentPool::new(Arc::new(Warehouse::load(&pop, &offers))));
//!
//! let server = NetServer::bind("127.0.0.1:0", Arc::clone(&pool)).unwrap();
//! let mut client = NetClient::connect(server.local_addr()).unwrap();
//!
//! let reply = client
//!     .command(&Command::decode("load 0 96 - first day").unwrap())
//!     .unwrap();
//! assert!(matches!(reply, WireOutcome::TabOpened { .. }));
//! // The connection is a session on the shared pool.
//! assert_eq!(pool.len(), 1);
//! client.bye().unwrap();
//! ```

// `deny`, not `forbid`: the one place allowed to speak to the kernel —
// the readiness-poller FFI in `sys` — opts back in explicitly. Every
// other module stays safe Rust, enforced at the crate root.
#![deny(unsafe_code)]
#![warn(missing_docs)]

pub mod conn;
pub mod error;
pub mod protocol;
pub mod server;
#[allow(unsafe_code)]
mod sys;

pub use conn::{state, Connection, NetClient};
pub use error::NetError;
pub use protocol::{
    greeting, parse_greeting, ProtocolError, Reply, Request, ServerLine, GREETING_HEAD,
    PROTOCOL_VERSION,
};
pub use server::{NetServer, NetServerConfig};
