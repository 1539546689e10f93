//! The concurrent serving layer: many OS threads, many sessions, one
//! shared warehouse.
//!
//! [`ConcurrentPool`] is the `Send + Sync` session registry for the
//! MIRABEL enterprise setting (many analysts over one warehouse):
//! sessions are sharded across `N` copy-on-write snapshot maps
//! (session id → shard), and every session additionally sits behind
//! its own lock, so
//!
//! * commands to *distinct* sessions never contend — lookup on the hot
//!   command path is lock-free against a published shard snapshot, and
//!   the command itself runs under the per-session lock;
//! * the warehouse is `Arc`-shared and read-only, so a thousand
//!   sessions hold one copy of the data;
//! * everything session-local (tabs, selections, frame caches,
//!   aggregation parameters) stays inside that session's lock.
//!
//! ## Read-mostly shards
//!
//! Each shard is a *snapshot map*: an `Arc<HashMap>` plus a generation
//! counter. Writers (open/close — rare) clone the map, install a new
//! `Arc`, and bump the generation; readers either clone the current
//! `Arc` under a briefly-held slot lock, or — on the serving hot path —
//! go through a [`PoolReader`], which caches the `(generation, Arc)`
//! pair per shard and revalidates with one atomic load. Steady state
//! (no opens/closes since the last lookup) touches **no lock at all**:
//! one `Acquire` load plus a probe of an immutable `HashMap`.
//!
//! Determinism guarantee: a session's state is a pure function of the
//! command sequence *it* received **and the epoch sequence it observed**.
//! Commands never cross sessions and every warehouse snapshot is
//! immutable, so replaying the same per-session streams over any number
//! of threads — in any interleaving — produces the same per-session
//! frame hashes as a sequential replay. The stress harness in
//! `mirabel-bench` and the `concurrent.rs` integration tests hold this
//! bar at every thread count; the ingest harness holds it per epoch
//! while [`ConcurrentPool::publish`] swaps live snapshots underneath
//! the readers.

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

/// Default shard count ([`ConcurrentPool::new`]); power of two so the
/// id → shard map is a mask.
pub const DEFAULT_SHARDS: usize = 16;

/// The immutable value of one shard generation: id → session handle.
type SessionMap = HashMap<u64, Arc<Mutex<Session>>>;

/// One copy-on-write shard. `slot` always holds the *current* snapshot;
/// `gen` is bumped (with `Release` ordering, under the slot lock, after
/// the new snapshot is installed) on every open/close that lands here.
/// A reader that observes generation `g` and then clones the slot is
/// guaranteed a snapshot at least as new as `g` — which is all
/// [`PoolReader`] needs to keep its per-shard cache coherent.
struct Shard {
    gen: AtomicU64,
    slot: Mutex<Arc<SessionMap>>,
}

impl Default for Shard {
    fn default() -> Shard {
        Shard { gen: AtomicU64::new(0), slot: Mutex::new(Arc::new(HashMap::new())) }
    }
}

impl Shard {
    /// Clones the current snapshot, applies `mutate` to the clone,
    /// installs it and bumps the generation — all under the slot lock,
    /// so writers serialize and a generation observed by a reader can
    /// never pair with an older snapshot.
    fn mutate<R>(&self, mutate: impl FnOnce(&mut SessionMap) -> R) -> R {
        let mut slot = self.slot.lock().expect("shard lock");
        let mut next: SessionMap = (**slot).clone();
        let out = mutate(&mut next);
        *slot = Arc::new(next);
        self.gen.fetch_add(1, Ordering::Release);
        out
    }

    /// The current snapshot (one lock acquisition, one `Arc` clone).
    fn snapshot(&self) -> Arc<SessionMap> {
        Arc::clone(&self.slot.lock().expect("shard lock"))
    }
}

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
    /// `RwLock`, so the hot path stays contention-free between publishes
    /// (the PR2 scaling property the stress gate enforces).
    epoch: AtomicU64,
    shards: Box<[Shard]>,
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
            .field("shards", &self.shards.len())
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
    /// An empty pool over `warehouse` with [`DEFAULT_SHARDS`] shards.
    pub fn new(warehouse: Arc<Warehouse>) -> ConcurrentPool {
        ConcurrentPool::with_shards(warehouse, DEFAULT_SHARDS)
    }

    /// An empty pool with at least `shards` shards (rounded up to a
    /// power of two, minimum 1).
    pub fn with_shards(warehouse: Arc<Warehouse>, shards: usize) -> ConcurrentPool {
        let n = shards.max(1).next_power_of_two();
        let shards = (0..n).map(|_| Shard::default()).collect::<Vec<_>>().into_boxed_slice();
        ConcurrentPool {
            current: RwLock::new(Current { epoch: 0, warehouse }),
            epoch: AtomicU64::new(0),
            shards,
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

    /// Number of shards (always a power of two).
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    fn shard_index(&self, id: u64) -> usize {
        // Sequential ids round-robin the shards, which is exactly the
        // spread we want for K users opened in a row.
        (id as usize) & (self.shards.len() - 1)
    }

    fn shard(&self, id: u64) -> &Shard {
        &self.shards[self.shard_index(id)]
    }

    /// The session handle for `id` from the shard's current snapshot.
    fn session_arc(&self, id: u64) -> Option<Arc<Mutex<Session>>> {
        self.shard(id).slot.lock().expect("shard lock").get(&id).cloned()
    }

    /// A cached lock-free reader over this pool — see [`PoolReader`].
    pub fn reader(self: &Arc<Self>) -> PoolReader {
        let cache = self.shards.iter().map(|_| None).collect();
        PoolReader { pool: Arc::clone(self), cache }
    }

    /// Opens a fresh session and returns its id.
    ///
    /// Ids come from a monotone atomic counter; if the counter ever
    /// wraps (or a caller races a wraparound), ids still held by live
    /// sessions are skipped, never reissued.
    pub fn open(&self) -> SessionId {
        let (epoch, warehouse) = self.current();
        loop {
            let id = self.next.fetch_add(1, Ordering::Relaxed);
            let inserted = self.shard(id).mutate(|map| {
                if map.contains_key(&id) {
                    // `id` is still live after a counter wraparound.
                    return false;
                }
                let mut session = Session::new(Arc::clone(&warehouse));
                session.sync_warehouse(Arc::clone(&warehouse), epoch);
                map.insert(id, Arc::new(Mutex::new(session)));
                true
            });
            if inserted {
                return SessionId(id);
            }
        }
    }

    /// Closes a session; returns `false` if the id is unknown. A command
    /// in flight on another thread finishes on its own handle; the
    /// session is dropped when the last handle goes away.
    pub fn close(&self, id: SessionId) -> bool {
        self.shard(id.0).mutate(|map| map.remove(&id.0).is_some())
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
    /// The shard snapshot is consulted only for the map lookup; the
    /// command runs under the session's own lock, so concurrent commands
    /// to distinct sessions proceed in parallel. If the pool moved to a
    /// new warehouse epoch since this session's last command, the
    /// session re-syncs first (see [`ConcurrentPool::publish`]).
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
        let mut ids: Vec<SessionId> = self
            .shards
            .iter()
            .flat_map(|s| s.snapshot().keys().map(|&k| SessionId(k)).collect::<Vec<_>>())
            .collect();
        ids.sort();
        ids
    }

    /// Number of live sessions.
    pub fn len(&self) -> usize {
        self.shards.iter().map(|s| s.snapshot().len()).sum()
    }

    /// `true` when no sessions are open.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// A per-thread cached reader over a [`ConcurrentPool`]: the serving
/// hot path of the network front.
///
/// Each reader caches, per shard, the `(generation, snapshot)` pair it
/// last observed. A lookup loads the shard's generation (`Acquire`);
/// if it matches the cache, the probe runs against the cached immutable
/// `HashMap` — **no lock taken**. Only when an open/close has moved the
/// generation does the reader briefly take the shard's slot lock to
/// re-clone the current snapshot.
///
/// Coherence: a reader observes a session no later than any event that
/// *happens-before* the lookup. In the server, a session id only
/// reaches a reader thread through a channel after
/// [`ConcurrentPool::open`] returned, so the generation bump is always
/// visible and a fresh id can never miss. A reader may briefly keep
/// resolving an id that another thread already closed (until its next
/// cache refresh); the server never routes commands to a session after
/// its owning connection retired it, so this staleness is unobservable
/// on the wire — and the authoritative `&ConcurrentPool` API never
/// serves stale snapshots at all.
///
/// `PoolReader` is `Send` (hand one to each worker thread) but
/// deliberately not shareable: lookups take `&mut self` to update the
/// cache in place.
#[derive(Debug)]
pub struct PoolReader {
    pool: Arc<ConcurrentPool>,
    /// Per-shard cache: generation + the snapshot observed at it.
    cache: Vec<Option<(u64, Arc<SessionMap>)>>,
}

impl PoolReader {
    /// The pool this reader serves.
    pub fn pool(&self) -> &Arc<ConcurrentPool> {
        &self.pool
    }

    /// Resolves `id` against the cached shard snapshot, refreshing the
    /// cache only if the shard's generation moved.
    fn session_arc(&mut self, id: u64) -> Option<Arc<Mutex<Session>>> {
        let idx = self.pool.shard_index(id);
        let shard = &self.pool.shards[idx];
        let gen = shard.gen.load(Ordering::Acquire);
        let slot = &mut self.cache[idx];
        let stale = !matches!(slot, Some((cached_gen, _)) if *cached_gen == gen);
        if stale {
            // Re-pair generation and snapshot under the slot lock: the
            // writer installs the snapshot *then* bumps the generation
            // (both under the same lock), so this pair is consistent.
            let guard = shard.slot.lock().expect("shard lock");
            *slot = Some((shard.gen.load(Ordering::Acquire), Arc::clone(&guard)));
        }
        slot.as_ref().and_then(|(_, map)| map.get(&id).cloned())
    }

    /// Cached twin of [`ConcurrentPool::apply_with_epoch`].
    pub fn apply_with_epoch(&mut self, id: SessionId, cmd: Command) -> Option<(u64, Outcome)> {
        let session = self.session_arc(id.0)?;
        let mut guard = self.pool.locked(&session);
        let epoch = guard.epoch();
        let outcome = guard.handle(cmd);
        Some((epoch, outcome))
    }

    /// Cached twin of [`ConcurrentPool::apply`].
    pub fn apply(&mut self, id: SessionId, cmd: Command) -> Option<Outcome> {
        self.apply_with_epoch(id, cmd).map(|(_, outcome)| outcome)
    }

    /// Cached twin of [`ConcurrentPool::with_session`].
    pub fn with_session<R>(&mut self, id: SessionId, f: impl FnOnce(&Session) -> R) -> Option<R> {
        let session = self.session_arc(id.0)?;
        let guard = self.pool.locked(&session);
        Some(f(&guard))
    }
}

// The whole point of these types: they cross threads. Compile-time
// assertions so a non-`Send` field can never sneak in silently.
const _: () = {
    const fn assert_send_sync<T: Send + Sync>() {}
    const fn assert_send<T: Send>() {}
    assert_send_sync::<ConcurrentPool>();
    assert_send::<PoolReader>();
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
    fn shard_count_rounds_up_to_power_of_two() {
        let dw = pool().warehouse();
        assert_eq!(ConcurrentPool::with_shards(Arc::clone(&dw), 0).shard_count(), 1);
        assert_eq!(ConcurrentPool::with_shards(Arc::clone(&dw), 3).shard_count(), 4);
        assert_eq!(ConcurrentPool::with_shards(dw, 16).shard_count(), 16);
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
    fn reader_sees_opens_and_closes_without_locking_steady_state() {
        let pool = Arc::new(pool());
        let mut reader = pool.reader();
        let a = pool.open();

        // A fresh id resolves through the reader (generation moved).
        assert!(matches!(reader.apply_with_epoch(a, Command::Render), Some((0, _))));
        // Steady state: repeated lookups hit the cached snapshot.
        for _ in 0..100 {
            assert!(reader.with_session(a, |s| s.tabs().len()).is_some());
        }

        // After a close, the authoritative API misses immediately and
        // the reader misses after its cache revalidates (the close
        // bumped the generation, so the very next lookup refreshes).
        assert!(pool.close(a));
        assert!(pool.apply(a, Command::Render).is_none());
        assert!(reader.apply(a, Command::Render).is_none());
        assert!(reader.with_session(a, |_| ()).is_none());
    }
}
