//! The concurrent serving layer: many OS threads, many sessions, one
//! shared warehouse.
//!
//! [`ConcurrentPool`] is the `Send + Sync` session registry for the
//! MIRABEL enterprise setting (many analysts over one warehouse):
//! sessions are sharded across 16 mutex-guarded maps (session id →
//! shard), and every session additionally sits behind its own lock, so
//!
//! * commands to *distinct* sessions never contend — a lookup holds its
//!   shard lock only to clone the session's `Arc`, and the command
//!   itself runs under the per-session lock;
//! * the warehouse is `Arc`-shared and read-only, so a thousand
//!   sessions hold one copy of the data;
//! * everything session-local (tabs, selections, frame caches,
//!   aggregation parameters) stays inside that session's lock.
//!
//! No shard lock is ever held while a session lock is taken or a
//! command runs, and the pool is the only owner of a session besides
//! commands in flight: closing a session drops it as soon as its last
//! in-flight command finishes.
//!
//! Determinism guarantee: a session's state is a pure function of the
//! command sequence *it* received **and the epoch sequence it observed**.
//! Commands never cross sessions and every warehouse snapshot is
//! immutable, so replaying the same per-session streams over any number
//! of threads — in any interleaving — produces the same per-session
//! frame hashes as a sequential replay. The `concurrent.rs` integration
//! tests hold this bar at 2, 4 and 8 threads, and `epoch.rs` holds it
//! per epoch while [`ConcurrentPool::publish`] swaps live snapshots
//! underneath the readers.

use std::collections::hash_map::Entry;
use std::collections::HashMap;
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, RwLock};

use mirabel_dw::{EpochSnapshot, Warehouse};

use crate::command::Command;
use crate::outcome::Outcome;
use crate::session::Session;

/// Identifies one session within a [`ConcurrentPool`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct SessionId(pub u64);

impl fmt::Display for SessionId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "session#{}", self.0)
    }
}

/// Shards per pool; a power of two so the id → shard map is a mask.
const SHARDS: usize = 16;

/// One shard: id → session handle. Held only to probe, insert or
/// remove an entry.
type Shard = Mutex<HashMap<u64, Arc<Mutex<Session>>>>;

/// A sharded, lock-per-session pool of [`Session`]s over one shared
/// [`Warehouse`].
///
/// `ConcurrentPool` is `Send + Sync`; `&self` suffices for every
/// operation, so any number of OS threads can drive distinct sessions
/// in parallel:
///
/// ```
/// use std::sync::Arc;
/// use mirabel_session::{Command, ConcurrentPool};
/// # use mirabel_dw::Warehouse;
/// # use mirabel_workload::{generate_offers, OfferConfig, Population, PopulationConfig};
/// # let pop = Population::generate(&PopulationConfig {
/// #     size: 10, seed: 1, household_share: 0.8 });
/// # let offers = generate_offers(&pop, &OfferConfig::default());
/// # let warehouse = Arc::new(Warehouse::load(&pop, &offers));
/// let pool = Arc::new(ConcurrentPool::new(warehouse));
/// let id = pool.open();
/// std::thread::scope(|s| {
///     let pool = &pool;
///     s.spawn(move || pool.apply(id, Command::Render));
/// });
/// assert_eq!(pool.len(), 1);
/// ```
pub struct ConcurrentPool {
    /// The current warehouse snapshot + epoch. Readers hold the read
    /// lock for one Arc clone; [`ConcurrentPool::publish`] takes the
    /// write lock for one pointer swap — in-flight commands keep the
    /// snapshot their session already synced to and are never stopped.
    current: RwLock<Current>,
    /// Mirror of `current.epoch` for the per-command fast path: a
    /// relaxed-cost atomic load answers "did an epoch change since this
    /// session's last command?" without touching the pool-global
    /// `RwLock`, so the hot path stays contention-free between publishes.
    epoch: AtomicU64,
    shards: [Shard; SHARDS],
    /// Monotone id source; [`ConcurrentPool::open`] skips live ids, so
    /// even a full `u64` wraparound cannot collide with an open session.
    next: AtomicU64,
    /// Publish subscribers (see [`ConcurrentPool::on_publish`]).
    hooks: Mutex<Vec<PublishHook>>,
}

/// A publish subscriber: called with the new epoch after every
/// *advancing* [`ConcurrentPool::publish`]. `Arc`, not `Box`, so
/// [`ConcurrentPool::publish`] can snapshot the list and run the hooks
/// with **no pool lock held** — a slow hook (or one that calls back
/// into the pool, even `publish`/`on_publish`) can never wedge the
/// registry.
type PublishHook = Arc<dyn Fn(u64) + Send + Sync>;

impl fmt::Debug for ConcurrentPool {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ConcurrentPool")
            .field("epoch", &self.epoch())
            .field("sessions", &self.len())
            .field("publish_hooks", &self.hooks.lock().expect("hooks lock").len())
            .finish()
    }
}

#[derive(Debug, Clone)]
struct Current {
    epoch: u64,
    warehouse: Arc<Warehouse>,
}

impl ConcurrentPool {
    /// An empty pool over `warehouse`.
    pub fn new(warehouse: Arc<Warehouse>) -> ConcurrentPool {
        ConcurrentPool {
            current: RwLock::new(Current { epoch: 0, warehouse }),
            epoch: AtomicU64::new(0),
            shards: std::array::from_fn(|_| Shard::default()),
            next: AtomicU64::new(0),
            hooks: Mutex::new(Vec::new()),
        }
    }

    /// Subscribes to epoch publishes: `hook` runs with the new epoch
    /// after every publish that actually advanced the pool (stale
    /// publishes never fire it). This is how a network front pushes
    /// `epoch` notifications to connected clients without polling.
    ///
    /// Hooks run on the publishing thread, *after* the snapshot swap is
    /// visible and outside every pool lock — including the hook
    /// registry's own lock, so a hook may freely call back into the
    /// pool, `on_publish` and `publish` included (and sessions
    /// observing the new epoch before their notification arrives is
    /// fine: the per-connection ordering guarantee lives in the
    /// transport, see PROTOCOL.md). A slow hook still runs on the
    /// publisher's thread, so subscribers doing I/O should bound it
    /// (the network front only enqueues bytes and never blocks on a
    /// socket). Hooks cannot be unregistered; subscribers that may
    /// outlive their interest should capture a [`std::sync::Weak`] and
    /// no-op once dead.
    pub fn on_publish(&self, hook: impl Fn(u64) + Send + Sync + 'static) {
        self.hooks.lock().expect("hooks lock").push(Arc::new(hook));
    }

    /// The current warehouse snapshot.
    pub fn warehouse(&self) -> Arc<Warehouse> {
        Arc::clone(&self.current.read().expect("current lock").warehouse)
    }

    /// The pool's current warehouse epoch (0 until the first publish).
    pub fn epoch(&self) -> u64 {
        self.epoch.load(Ordering::Acquire)
    }

    /// Swaps in a freshly published warehouse epoch **for all shards,
    /// without stopping in-flight commands**: the swap is one pointer
    /// write; every session notices the new epoch at its next command
    /// and re-syncs lazily (live-view tabs re-run their loader query,
    /// cached frames go stale through their `(revision, epoch)` key).
    ///
    /// Stale publishes (epoch ≤ the pool's current epoch) are ignored,
    /// so a racing pair of publishers cannot move the pool backwards.
    /// Returns the pool's epoch after the call.
    pub fn publish(&self, snapshot: &EpochSnapshot) -> u64 {
        let (epoch, advanced) = {
            let mut cur = self.current.write().expect("current lock");
            let advanced = snapshot.epoch() > cur.epoch;
            if advanced {
                *cur = Current {
                    epoch: snapshot.epoch(),
                    warehouse: Arc::clone(snapshot.warehouse()),
                };
                // Arm the fast path only after `current` holds the new
                // snapshot (both still under the write lock): a session
                // that reads the new epoch always finds a warehouse at
                // least that new behind the read lock.
                self.epoch.store(cur.epoch, Ordering::Release);
            }
            (cur.epoch, advanced)
        };
        // Hooks run outside every pool lock (the registry is cloned
        // out, not iterated under its mutex): a subscriber may call
        // back into the pool — even publish/on_publish — without
        // deadlocking, and a slow hook never blocks registration.
        // Racing publishers may invoke hooks out of epoch order —
        // subscribers keep a monotone high-water mark.
        if advanced {
            let hooks: Vec<PublishHook> =
                self.hooks.lock().expect("hooks lock").iter().map(Arc::clone).collect();
            for hook in hooks {
                hook(epoch);
            }
        }
        epoch
    }

    /// Snapshot + epoch in one read-lock acquisition.
    fn current(&self) -> (u64, Arc<Warehouse>) {
        let cur = self.current.read().expect("current lock");
        (cur.epoch, Arc::clone(&cur.warehouse))
    }

    fn shard(&self, id: u64) -> &Shard {
        // Sequential ids round-robin the shards, which is exactly the
        // spread we want for K users opened in a row.
        &self.shards[(id as usize) & (SHARDS - 1)]
    }

    /// The session handle for `id`. The shard lock is released before
    /// this returns, so the caller locks the session with no shard
    /// lock held.
    fn session_arc(&self, id: u64) -> Option<Arc<Mutex<Session>>> {
        self.shard(id).lock().expect("shard lock").get(&id).cloned()
    }

    /// Opens a fresh session and returns its id.
    ///
    /// Ids come from a monotone atomic counter; if the counter ever
    /// wraps (or a caller races a wraparound), ids still held by live
    /// sessions are skipped, never reissued.
    pub fn open(&self) -> SessionId {
        let (epoch, warehouse) = self.current();
        let mut session = Session::new(Arc::clone(&warehouse));
        session.sync_warehouse(warehouse, epoch);
        let session = Arc::new(Mutex::new(session));
        loop {
            let id = self.next.fetch_add(1, Ordering::Relaxed);
            if let Entry::Vacant(slot) = self.shard(id).lock().expect("shard lock").entry(id) {
                slot.insert(session);
                return SessionId(id);
            }
            // `id` is still live after a counter wraparound: skip it.
        }
    }

    /// Closes a session; returns `false` if the id is unknown. A command
    /// in flight on another thread finishes on its own handle; the
    /// session is dropped when the last handle goes away, outside the
    /// shard lock.
    pub fn close(&self, id: SessionId) -> bool {
        let removed = self.shard(id.0).lock().expect("shard lock").remove(&id.0);
        removed.is_some()
    }

    /// Locks session `id` and lazily syncs it to the pool's current
    /// epoch first — the point where a publish becomes visible to a
    /// session. The steady-state cost is one atomic load: the
    /// pool-global `current` lock is touched only when the epoch
    /// actually moved since this session's last command.
    fn locked<'a>(&self, session: &'a Arc<Mutex<Session>>) -> std::sync::MutexGuard<'a, Session> {
        let mut guard = session.lock().expect("session lock");
        if guard.epoch() != self.epoch.load(Ordering::Acquire) {
            let (epoch, warehouse) = self.current();
            guard.sync_warehouse(warehouse, epoch);
        }
        guard
    }

    /// Routes one command to session `id`; `None` for an unknown id.
    ///
    /// The shard is locked only for the map lookup; the command runs
    /// under the session's own lock, so concurrent commands to distinct
    /// sessions proceed in parallel. If the pool moved to a new
    /// warehouse epoch since this session's last command, the session
    /// re-syncs first (see [`ConcurrentPool::publish`]).
    pub fn apply(&self, id: SessionId, cmd: Command) -> Option<Outcome> {
        self.apply_with_epoch(id, cmd).map(|(_, outcome)| outcome)
    }

    /// Like [`ConcurrentPool::apply`], but also returns the warehouse
    /// epoch the command actually ran against (i.e. the session's epoch
    /// *after* the lazy sync). A network front needs this to honor the
    /// protocol's ordering guarantee: the `epoch E` notification must
    /// precede any reply computed at epoch `E` on the same connection.
    pub fn apply_with_epoch(&self, id: SessionId, cmd: Command) -> Option<(u64, Outcome)> {
        let session = self.session_arc(id.0)?;
        let mut guard = self.locked(&session);
        let epoch = guard.epoch();
        let outcome = guard.handle(cmd);
        Some((epoch, outcome))
    }

    /// Runs `f` with shared access to session `id`; `None` if unknown.
    /// Like [`ConcurrentPool::apply`], syncs the session to the current
    /// epoch first.
    pub fn with_session<R>(&self, id: SessionId, f: impl FnOnce(&Session) -> R) -> Option<R> {
        let session = self.session_arc(id.0)?;
        let guard = self.locked(&session);
        Some(f(&guard))
    }

    /// Runs `f` with exclusive access to session `id`; `None` if unknown.
    pub fn with_session_mut<R>(
        &self,
        id: SessionId,
        f: impl FnOnce(&mut Session) -> R,
    ) -> Option<R> {
        let session = self.session_arc(id.0)?;
        let mut guard = self.locked(&session);
        Some(f(&mut guard))
    }

    /// Live session ids, ascending. A point-in-time snapshot: other
    /// threads may open or close sessions while it is being taken.
    pub fn ids(&self) -> Vec<SessionId> {
        let mut ids = Vec::new();
        for shard in &self.shards {
            ids.extend(shard.lock().expect("shard lock").keys().map(|&k| SessionId(k)));
        }
        ids.sort();
        ids
    }

    /// Number of live sessions.
    pub fn len(&self) -> usize {
        self.shards.iter().map(|s| s.lock().expect("shard lock").len()).sum()
    }

    /// `true` when no sessions are open.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

// The whole point of this type: it crosses threads. A compile-time
// assertion so a non-`Send` field can never sneak in silently.
const _: () = {
    const fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<ConcurrentPool>();
};

#[cfg(test)]
mod tests {
    use super::*;
    use mirabel_dw::LoaderQuery;
    use mirabel_timeseries::TimeSlot;
    use mirabel_workload::{generate_offers, OfferConfig, Population, PopulationConfig};

    fn pool() -> ConcurrentPool {
        let pop = Population::generate(&PopulationConfig {
            size: 20,
            seed: 0xC0C0,
            household_share: 0.8,
        });
        let offers = generate_offers(&pop, &OfferConfig::default());
        ConcurrentPool::new(Arc::new(Warehouse::load(&pop, &offers)))
    }

    #[test]
    fn open_apply_close_round_trip() {
        let pool = pool();
        let a = pool.open();
        let b = pool.open();
        assert_ne!(a, b);
        assert_eq!(pool.len(), 2);
        assert_eq!(pool.ids(), vec![a, b]);

        let query =
            LoaderQuery::builder().window(TimeSlot::new(-100_000), TimeSlot::new(100_000)).build();
        let outcome = pool.apply(a, Command::Load { query, title: "t".into() }).unwrap();
        assert!(matches!(outcome, Outcome::TabOpened { .. }));
        // `b` is untouched by `a`'s commands.
        assert_eq!(pool.with_session(b, |s| s.tabs().len()).unwrap(), 0);
        assert_eq!(pool.with_session(a, |s| s.tabs().len()).unwrap(), 1);

        assert!(pool.close(a));
        assert!(!pool.close(a));
        assert!(pool.apply(a, Command::Render).is_none());
        assert_eq!(pool.len(), 1);
    }

    #[test]
    fn publish_hooks_fire_once_per_advancing_epoch() {
        use mirabel_dw::LiveWarehouse;
        use std::sync::atomic::AtomicUsize;

        let pop = Population::generate(&PopulationConfig {
            size: 10,
            seed: 0xF00D,
            household_share: 0.8,
        });
        let offers = generate_offers(&pop, &OfferConfig::default());
        let live = LiveWarehouse::new(pop, &offers);
        let pool = ConcurrentPool::new(Arc::clone(live.snapshot().warehouse()));

        let seen = Arc::new(Mutex::new(Vec::new()));
        let calls = Arc::new(AtomicUsize::new(0));
        {
            let seen = Arc::clone(&seen);
            pool.on_publish(move |epoch| seen.lock().unwrap().push(epoch));
        }
        {
            let calls = Arc::clone(&calls);
            pool.on_publish(move |_| {
                calls.fetch_add(1, Ordering::SeqCst);
            });
        }

        live.advance_day();
        let snap1 = live.publish();
        assert_eq!(pool.publish(&snap1), 1);
        // A stale re-publish must not fire the hooks again.
        assert_eq!(pool.publish(&snap1), 1);
        live.advance_day();
        let snap2 = live.publish();
        assert_eq!(pool.publish(&snap2), 2);

        assert_eq!(*seen.lock().unwrap(), vec![1, 2]);
        assert_eq!(calls.load(Ordering::SeqCst), 2);
        // Debug output reports the subscriber count without panicking.
        assert!(format!("{pool:?}").contains("publish_hooks: 2"));
    }

    #[test]
    fn apply_with_epoch_reports_the_synced_epoch() {
        use mirabel_dw::LiveWarehouse;

        let pop = Population::generate(&PopulationConfig {
            size: 10,
            seed: 0xF00D,
            household_share: 0.8,
        });
        let offers = generate_offers(&pop, &OfferConfig::default());
        let live = LiveWarehouse::new(pop, &offers);
        let pool = ConcurrentPool::new(Arc::clone(live.snapshot().warehouse()));
        let id = pool.open();

        let (epoch, _) = pool.apply_with_epoch(id, Command::Render).unwrap();
        assert_eq!(epoch, 0);

        live.advance_day();
        pool.publish(&live.publish());
        // The next command lazily syncs the session and reports the
        // epoch it actually ran against.
        let (epoch, _) = pool.apply_with_epoch(id, Command::Render).unwrap();
        assert_eq!(epoch, 1);
        assert!(pool.apply_with_epoch(SessionId(999), Command::Render).is_none());
    }

    #[test]
    fn wraparound_never_reissues_a_live_id() {
        let pool = pool();
        let first = pool.open();
        assert_eq!(first, SessionId(0));
        // Park the counter at the end of the id space: the next two
        // opens take u64::MAX, wrap to 0 — which is live — and must
        // skip to 1 instead of clobbering `first`.
        pool.next.store(u64::MAX, Ordering::Relaxed);
        let high = pool.open();
        assert_eq!(high, SessionId(u64::MAX));
        let wrapped = pool.open();
        assert_eq!(wrapped, SessionId(1));
        assert_eq!(pool.len(), 3);
    }

    #[test]
    fn open_after_close_never_reuses_until_wraparound() {
        let pool = pool();
        let a = pool.open();
        let b = pool.open();
        assert!(pool.close(a));
        // Closing must not make the counter reuse `a` for the next open.
        let c = pool.open();
        assert_ne!(c, a);
        assert_ne!(c, b);
    }

    #[test]
    fn wraparound_skips_live_ids() {
        // Regression: with a plain `next += 1` the second open below
        // would overflow (debug) or hand out id 0 — which is still
        // live — replacing that session's state (release).
        let pool = pool();
        let first = pool.open();
        assert_eq!(first, SessionId(0));
        pool.next.store(u64::MAX, Ordering::Relaxed);
        let high = pool.open();
        assert_eq!(high, SessionId(u64::MAX));
        let wrapped = pool.open();
        assert_eq!(wrapped, SessionId(1), "id 0 is live and must be skipped");
        assert_eq!(pool.len(), 3);
        // After closing id 0 a later wraparound may reuse it.
        assert!(pool.close(first));
        pool.next.store(0, Ordering::Relaxed);
        assert_eq!(pool.open(), SessionId(0));
    }

    #[test]
    fn closing_a_session_frees_it() {
        let pool = pool();
        let id = pool.open();
        assert!(pool.apply(id, Command::Render).is_some());
        let session = Arc::downgrade(&pool.session_arc(id.0).unwrap());
        assert!(pool.close(id));
        assert!(session.upgrade().is_none(), "the pool still holds a closed session");
    }
}
