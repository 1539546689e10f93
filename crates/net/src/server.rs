//! The TCP server: one connection = one session over a shared
//! [`ConcurrentPool`] — served by readiness-polled event-loop shards
//! with a parking lot for resumable sessions.
//!
//! The server owns no sessions and no warehouse — it is a thin framing
//! layer. It runs N **shards** (the machine's parallelism, clamped to
//! 2..=8), each one thread with its own readiness poller
//! (`crate::sys`: `epoll` on Linux, `poll(2)` elsewhere):
//!
//! * connection token `t` lives on shard `t % N` for its whole life.
//!   Its shard alone reads its nonblocking socket, reassembles request
//!   lines across read boundaries, runs each line to completion through
//!   the connection's phase machine (commands go to
//!   [`ConcurrentPool::apply_with_epoch`] by session id, which holds a
//!   pool shard lock only for the lookup), appends the replies to the
//!   connection's outbox and flushes once per read. One connection's
//!   requests therefore stay FIFO, and a long-running plan stalls only
//!   the connections that share its shard;
//! * shard 0 also owns the listener: it accepts, numbers each socket
//!   and hands it to its shard;
//! * every reply and epoch notification is appended to the
//!   connection's **outbox** under its own lock. A slow client fills
//!   its own outbox and nothing else: past a high-water mark its shard
//!   stops *reading* from it, and a client that accepts no bytes for
//!   `WRITE_TIMEOUT` is dropped.
//!
//! The few paths that cross threads — a socket handed over by shard 0,
//! a resume completed or refused by another shard, a listener to re-arm
//! after an accept error — change shared state under the phase, outbox,
//! lot and registry locks and end with one write to the owning shard's
//! wake pipe. A woken shard adopts the sockets handed to it, re-arms
//! the listener (shard 0) and flushes its connections. The one socket
//! write off the owning shard is the publish hook's: an `epoch` line
//! for an empty outbox is written at once, nonblocking, so a push never
//! waits behind the command its shard is running.
//!
//! The protocol surface is bit-for-bit the one PROTOCOL.md specifies
//! for the old thread-per-connection server: same grammar, same error
//! strings, same epoch-push ordering, same resume semantics. What
//! changed is purely how many clients one process can carry.
//!
//! ## Resumable sessions
//!
//! The hello reply carries a single-use resume token
//! (`<session>-<nonce>-<mac>`, hex). When a connection ends *without*
//! `bye` — EOF, socket error, kill — its session is not closed but
//! **parked**: the pool session stays alive, and the token can
//! re-attach it from a fresh connection whose first request is
//! `session resume <token>` instead of `hello`. On attach the token is
//! rotated (the old one is dead), and the reply's epoch is the
//! session's announced high-water mark joined with the pool's current
//! epoch — so a resumed client never sees a duplicated `epoch` push.
//! The MAC is keyed per server process ([`RandomState`]), so tokens
//! cannot be forged or replayed across server restarts.
//!
//! An EOF parks the session at once: every line read before it has
//! already run on the same shard.
//!
//! A resume that races the old connection's teardown (the client
//! reconnected before the server noticed the drop) does not poll:
//! the resuming connection registers a **waiter** on the lot entry and
//! goes idle; the moment the old connection parks, the parking shard
//! hands the session straight to the waiter and appends its session
//! reply. If nothing parks within `RESUME_ATTACH_WAIT`, a shard's
//! housekeeping tick fails the waiter with `err session is still
//! attached`.
//!
//! The lot is bounded by [`NetServerConfig`]: parked sessions expire
//! after `park_ttl` and the oldest is evicted beyond `park_capacity`
//! (expired/evicted sessions are closed on the pool). `bye` and
//! shutdown close sessions for good.
//!
//! ## Epoch-push ordering
//!
//! [`NetServer::bind`] registers a
//! [`ConcurrentPool::on_publish`] hook that appends `epoch <e>` to
//! every connection's outbox. Two writers touch an outbox — the
//! publish hook and the connection's own reply path — so each outbox
//! keeps a high-water `announced` epoch under its lock:
//!
//! * the hook appends `epoch e` only when `e > announced`;
//! * the reply path, which knows the epoch every command actually ran
//!   against ([`ConcurrentPool::apply_with_epoch`]), injects the
//!   notification *before* the reply if the hook has not delivered it
//!   yet.
//!
//! Together these give the PROTOCOL.md guarantee: at most one
//! notification per epoch per connection, never inside a frame, and
//! always before any reply computed at that epoch. The hook skips a
//! connection until its session reply is in the outbox (the outbox's
//! `attached` mark, set under the same lock), so no notification
//! precedes the greeting or the handshake reply, and the handshake
//! epoch is never announced twice. Parking preserves the mark across
//! connections: a parked session remembers its announced epoch, and
//! the resume reply carries it forward.

use std::collections::HashMap;
use std::hash::{BuildHasher, RandomState};
use std::io::{ErrorKind, Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::os::fd::AsRawFd;
use std::os::unix::net::UnixStream;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use mirabel_session::{ConcurrentPool, SessionId};

use crate::protocol::{greeting, Reply, Request, PROTOCOL_VERSION, RESUME_TOKEN_EXPIRED};
use crate::sys::{Event, Interest, Poller};

/// Bounds on the parking lot of resumable sessions.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct NetServerConfig {
    /// Most sessions parked at once; beyond it the oldest parked
    /// session is evicted (and closed on the pool).
    pub park_capacity: usize,
    /// How long a parked session stays resumable before it expires.
    pub park_ttl: Duration,
    /// How long a minted resume token stays valid, measured from the
    /// moment it was handed out — **not** from when the session parked.
    /// Tokens are bearer credentials; this bounds the replay window of
    /// a leaked token independently of [`park_ttl`](Self::park_ttl)
    /// (the session itself may still be parked when its token expires —
    /// resuming it then requires a fresh `hello`). See PROTOCOL.md,
    /// "Resumable sessions".
    pub resume_token_ttl: Duration,
}

impl Default for NetServerConfig {
    fn default() -> NetServerConfig {
        NetServerConfig {
            park_capacity: 1_024,
            park_ttl: Duration::from_secs(300),
            resume_token_ttl: Duration::from_secs(150),
        }
    }
}

/// A TCP front over a [`ConcurrentPool`]; see the [module
/// docs](crate::server) and PROTOCOL.md.
///
/// Dropping the server stops accepting, closes every live connection
/// and every parked session, and joins all of its threads.
pub struct NetServer {
    addr: SocketAddr,
    inner: Arc<Inner>,
    shards: Vec<JoinHandle<()>>,
}

/// How long a resume request waits for the token's session to finish
/// detaching. Covers the race where the client's old connection has
/// dropped but the server has not yet parked the session.
const RESUME_ATTACH_WAIT: Duration = Duration::from_secs(2);

/// A connection whose outbox is nonempty but which has accepted no
/// bytes for this long is dead or hostile: it is dropped (and its
/// session parked). A *slow* client that keeps draining — however
/// slowly — keeps resetting the clock and is never killed.
const WRITE_TIMEOUT: Duration = Duration::from_secs(10);

/// Longest request line the server will buffer. Requests arrive from
/// untrusted peers, so the read must be bounded the same way the
/// decode layer bounds attacker-declared list sizes — no legitimate
/// command line (titles, MDX) comes anywhere near 64 KiB.
const MAX_REQUEST_LINE: usize = 64 * 1024;

/// Outbox high-water mark: past this many buffered bytes the shard
/// stops reading from the connection (backpressure), resuming below
/// [`OUTBOX_LOW_WATER`].
const OUTBOX_HIGH_WATER: usize = 256 * 1024;
const OUTBOX_LOW_WATER: usize = 64 * 1024;

/// Shard housekeeping cadence: write-stall detection, resume-waiter
/// deadlines and parked-session TTL sweeps run at this granularity.
const TICK: Duration = Duration::from_millis(100);

/// Poller token of the listening socket (shard 0).
const TOKEN_LISTENER: u64 = 0;
/// Poller token of a shard's wake pipe.
const TOKEN_WAKE: u64 = 1;
/// First token handed to an accepted connection.
const FIRST_CONN_TOKEN: u64 = 2;

impl NetServer {
    /// Binds `addr` (use port 0 for an OS-assigned port) and starts
    /// serving `pool` with the default [`NetServerConfig`]. Returns
    /// once the listener is live; [`NetServer::local_addr`] is
    /// immediately connectable.
    pub fn bind(addr: impl ToSocketAddrs, pool: Arc<ConcurrentPool>) -> std::io::Result<NetServer> {
        NetServer::bind_with(addr, pool, NetServerConfig::default())
    }

    /// [`NetServer::bind`] with explicit parking-lot bounds.
    pub fn bind_with(
        addr: impl ToSocketAddrs,
        pool: Arc<ConcurrentPool>,
        config: NetServerConfig,
    ) -> std::io::Result<NetServer> {
        let listener = TcpListener::bind(addr)?;
        crate::sys::listen_deep(&listener)?;
        listener.set_nonblocking(true)?;
        let addr = listener.local_addr()?;
        // One wake pipe per shard: anyone holding `Inner` can nudge a
        // shard out of its poll wait. Writes to a full pipe fail with
        // `WouldBlock`, which is fine — a wake is already pending.
        let mut mailboxes = Vec::new();
        let mut wake_rxs = Vec::new();
        for _ in 0..shard_count() {
            let (wake_rx, wake_tx) = UnixStream::pair()?;
            wake_rx.set_nonblocking(true)?;
            wake_tx.set_nonblocking(true)?;
            mailboxes.push(Mailbox { wake_tx, handoff: Mutex::new(Vec::new()) });
            wake_rxs.push(wake_rx);
        }

        let inner = Arc::new(Inner {
            pool: Arc::clone(&pool),
            config,
            shutdown: AtomicBool::new(false),
            registry: Mutex::new(HashMap::new()),
            mailboxes,
            accept_paused: AtomicBool::new(false),
            lot: Mutex::new(HashMap::new()),
            mac_key: RandomState::new(),
            nonce: AtomicU64::new(0),
        });

        // The publish hook holds the server state weakly: once the
        // server drops, publishes fall through to a no-op instead of
        // keeping dead connection lists alive inside the pool.
        let hook_inner = Arc::downgrade(&inner);
        pool.on_publish(move |epoch| {
            if let Some(inner) = hook_inner.upgrade() {
                inner.broadcast_epoch(epoch);
            }
        });

        // Should a later shard fail to start, dropping `server` shuts
        // down and joins the ones already running.
        let mut server = NetServer { addr, inner, shards: Vec::new() };
        let mut listener = Some(listener);
        for (index, wake_rx) in wake_rxs.into_iter().enumerate() {
            let shard = Shard::new(index, Arc::clone(&server.inner), wake_rx, listener.take())?;
            server.shards.push(
                std::thread::Builder::new()
                    .name(format!("mirabel-net-shard-{index}"))
                    .spawn(move || shard.run())?,
            );
        }
        Ok(server)
    }

    /// The bound address (the one to hand to
    /// [`Connection::connect`](crate::Connection::connect)).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// The pool this server fronts.
    pub fn pool(&self) -> &Arc<ConcurrentPool> {
        &self.inner.pool
    }

    /// Number of live connections (attached network sessions).
    pub fn connections(&self) -> usize {
        self.inner.registry.lock().expect("registry lock").len()
    }

    /// Number of sessions currently parked (resumable), after expiring
    /// overdue ones.
    pub fn parked(&self) -> usize {
        self.inner.sweep_lot();
        self.inner
            .lot
            .lock()
            .expect("lot lock")
            .values()
            .filter(|e| matches!(e.attachment, Attachment::Parked { .. }))
            .count()
    }

    /// Stops accepting, closes every connection and every parked
    /// session, and joins all server threads. Idempotent; also runs on
    /// drop. Notification-driven: every shard is woken through its
    /// wake pipe and drains immediately — no sleep-polling, no
    /// throwaway connection.
    pub fn shutdown(&mut self) {
        if self.inner.shutdown.swap(true, Ordering::SeqCst) {
            return;
        }
        for shard in 0..self.inner.mailboxes.len() {
            self.inner.wake(shard);
        }
        for handle in self.shards.drain(..) {
            let _ = handle.join();
        }
        // Every remaining lot entry — parked sessions, plus any a
        // shard parked while we were joining — dies with the server.
        let drained: Vec<u64> =
            self.inner.lot.lock().expect("lot lock").drain().map(|(id, _)| id).collect();
        for id in drained {
            self.inner.pool.close(SessionId(id));
        }
    }
}

impl Drop for NetServer {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// Event-loop shards: the machine's parallelism, clamped to a small
/// range — connection count is bounded by fds, not threads.
fn shard_count() -> usize {
    std::thread::available_parallelism().map_or(2, |n| n.get()).clamp(2, 8)
}

// ---------------------------------------------------------------------
// Shared state
// ---------------------------------------------------------------------

/// State shared between the server handle, the shards and the pool's
/// publish hook.
struct Inner {
    pool: Arc<ConcurrentPool>,
    config: NetServerConfig,
    shutdown: AtomicBool,
    /// Live connections by token — the broadcast fan-out list. A
    /// connection leaves the registry the moment its socket reads EOF
    /// or dies.
    registry: Mutex<HashMap<u64, Arc<Conn>>>,
    /// Each shard's cross-thread inbox, indexed by shard.
    mailboxes: Vec<Mailbox>,
    /// Shard 0 took the listener out of its poller after an accept
    /// error (fd exhaustion); a connection closing on any shard wakes
    /// shard 0 to re-arm it — notification-driven, not a backoff sleep.
    accept_paused: AtomicBool,
    /// Every open session's lot entry — attached or parked. The key is
    /// the raw session id; the entry holds the nonce of the one valid
    /// resume token.
    lot: Mutex<HashMap<u64, LotEntry>>,
    /// Per-process MAC key for resume tokens.
    mac_key: RandomState,
    /// Token nonce counter (nonces are unique per process).
    nonce: AtomicU64,
}

/// What other threads hand one shard: accepted sockets to adopt, and
/// the write half of its wake pipe.
struct Mailbox {
    wake_tx: UnixStream,
    /// Sockets shard 0 accepted for this shard, with their tokens.
    handoff: Mutex<Vec<(u64, TcpStream)>>,
}

/// One session's entry in the parking lot.
struct LotEntry {
    /// Nonce of the currently valid resume token (rotated per attach).
    nonce: u64,
    /// When the current token was minted; resume tokens expire
    /// `resume_token_ttl` after this, independently of the park TTL.
    minted_at: Instant,
    attachment: Attachment,
    /// A connection waiting to resume this session the moment the old
    /// connection parks it (see the module docs).
    waiter: Option<Waiter>,
}

enum Attachment {
    /// A connection currently serves this session.
    Attached,
    /// The connection dropped without `bye`; resumable until TTL or
    /// eviction.
    Parked {
        /// The epoch high-water mark announced on the last connection.
        announced: u64,
        parked_at: Instant,
    },
}

/// A connection parked (pun intended) in `Resuming` phase until the
/// session it wants detaches or `deadline` passes.
struct Waiter {
    conn: Arc<Conn>,
    deadline: Instant,
}

/// One connection: the nonblocking socket plus what its shard shares
/// with the other threads that may append to it.
struct Conn {
    /// Poller token; also selects the owning shard.
    token: u64,
    stream: TcpStream,
    out: Mutex<Outbox>,
    phase: Mutex<Phase>,
}

/// Where a connection is in the protocol lifecycle. Guarded by a
/// mutex that doubles as the per-connection execution lock: all
/// request processing happens under it, so phase transitions and the
/// commands they gate can never interleave.
enum Phase {
    /// Nothing received yet; the first request must be `hello` or
    /// `session resume`.
    Greeting,
    /// A resume is waiting for the old connection to park. Requests
    /// pipelined behind the resume land in `backlog` and run, in
    /// order, the moment the session attaches.
    Resuming { session: u64, backlog: Vec<LineIn> },
    /// A session is attached; requests route to it.
    Active { session: u64 },
    /// Closed (bye, refusal, teardown): every further line is ignored.
    Done,
}

/// One reassembled input line.
enum LineIn {
    /// A complete, UTF-8, non-blank, non-comment request line.
    Line(String),
    /// A line exceeded [`MAX_REQUEST_LINE`] before its newline arrived
    /// (the overflow is discarded up to the next newline).
    Oversized,
    /// A complete line that was not valid UTF-8.
    BadUtf8,
}

/// A connection's buffered output plus the epoch high-water mark,
/// under one lock so a notification can never split a reply frame.
struct Outbox {
    buf: WriteBuf,
    /// Highest epoch already announced on this connection.
    announced: u64,
    /// The session reply is queued: from here on the publish hook
    /// pushes epochs to this connection.
    attached: bool,
    /// Close the socket once the buffer drains (orderly close: `bye`,
    /// handshake refusals).
    closing: bool,
    /// The socket is gone; appends are dropped.
    dead: bool,
    /// Last time a write syscall moved bytes; drives [`WRITE_TIMEOUT`].
    last_progress: Instant,
}

impl Outbox {
    /// Writes as much of the buffer as `stream` accepts right now
    /// (nonblocking). The caller holds the outbox lock, so writes to
    /// one socket never interleave.
    fn write_to(&mut self, mut stream: &TcpStream) {
        while !self.buf.is_empty() && !self.dead {
            match stream.write(self.buf.pending()) {
                Ok(0) => self.dead = true,
                Ok(n) => {
                    self.buf.consume(n);
                    self.last_progress = Instant::now();
                }
                Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == ErrorKind::Interrupted => continue,
                Err(_) => self.dead = true,
            }
        }
        if self.dead {
            self.buf.clear();
        }
    }
}

/// An append-at-back, consume-at-front byte buffer that compacts
/// lazily — the write half of a connection.
#[derive(Default)]
struct WriteBuf {
    buf: Vec<u8>,
    start: usize,
}

impl WriteBuf {
    fn extend(&mut self, bytes: &[u8]) {
        self.buf.extend_from_slice(bytes);
    }

    fn pending(&self) -> &[u8] {
        &self.buf[self.start..]
    }

    fn len(&self) -> usize {
        self.buf.len() - self.start
    }

    fn is_empty(&self) -> bool {
        self.start == self.buf.len()
    }

    fn consume(&mut self, n: usize) {
        self.start += n;
        debug_assert!(self.start <= self.buf.len());
        if self.start == self.buf.len() {
            self.buf.clear();
            self.start = 0;
        } else if self.start > 64 * 1024 && self.start * 2 > self.buf.len() {
            // Mostly-consumed large buffer: reclaim the dead prefix.
            self.buf.drain(..self.start);
            self.start = 0;
        }
    }

    fn clear(&mut self) {
        self.buf.clear();
        self.start = 0;
    }
}

/// A successful immediate re-attach (the session was parked).
struct Resumed {
    session: u64,
    announced: u64,
    token: String,
}

/// How a `session resume` request starts out.
enum ResumeStart {
    /// The session was parked: attached immediately.
    Attached(Resumed),
    /// The session is still attached to its old connection: a waiter
    /// is installed; the connection idles in `Resuming` phase.
    Waiting { session: u64 },
    /// Refused for `reason` (the canonical error strings).
    Refused(String),
}

impl Inner {
    /// Nudges shard `shard` out of its poll wait.
    fn wake(&self, shard: usize) {
        // A full pipe (`WouldBlock`) means a wake is already pending.
        let _ = (&self.mailboxes[shard].wake_tx).write(&[1]);
    }

    /// The shard that owns connection `token`.
    fn shard_of(&self, token: u64) -> usize {
        (token % self.mailboxes.len() as u64) as usize
    }

    /// Wakes the shard that owns `conn`, to flush what another thread
    /// appended to its outbox.
    fn wake_owner(&self, conn: &Conn) {
        self.wake(self.shard_of(conn.token));
    }

    /// Appends `epoch <e>` to every attached connection's outbox
    /// (dedup'd against the per-connection high-water mark). Into an
    /// empty outbox the line is written at once — one nonblocking write
    /// under the outbox lock, so the push never waits behind the command
    /// the connection's shard is running, and a publisher can never be
    /// blocked by a client. Anything else wakes the owning shard.
    fn broadcast_epoch(&self, epoch: u64) {
        let conns: Vec<Arc<Conn>> =
            { self.registry.lock().expect("registry lock").values().map(Arc::clone).collect() };
        for conn in conns {
            let wake = {
                let mut out = conn.out.lock().expect("outbox lock");
                if !out.attached || out.dead || epoch <= out.announced {
                    continue;
                }
                out.announced = epoch;
                let was_empty = out.buf.is_empty();
                out.buf.extend(format!("epoch {epoch}\n").as_bytes());
                if was_empty {
                    out.write_to(&conn.stream);
                }
                !out.buf.is_empty() || out.dead
            };
            if wake {
                self.wake_owner(&conn);
            }
        }
    }

    /// Appends one reply frame (with its `epoch` notification injected
    /// first if news) to `conn`'s outbox; the owning shard flushes it.
    /// `close` marks the connection for orderly close-after-drain. A
    /// dead outbox (client gone) drops the reply.
    fn reply(&self, conn: &Conn, reply: &Reply, epoch: Option<u64>, close: bool) {
        let mut out = conn.out.lock().expect("outbox lock");
        if out.dead {
            return;
        }
        if let Some(e) = epoch {
            if e > out.announced {
                out.announced = e;
                out.buf.extend(format!("epoch {e}\n").as_bytes());
            }
        }
        out.buf.extend(reply.encode().as_bytes());
        out.buf.extend(b"\n");
        if close {
            out.closing = true;
        }
    }

    /// The session reply for a fresh open or a resume: joins the
    /// connection's announced mark with `floor` (the parked high-water
    /// mark; 0 for a fresh session) and the pool's current epoch, so
    /// the reported epoch can never move backwards and nothing at or
    /// below it is ever pushed again. Marks the outbox attached, which
    /// starts the epoch pushes.
    fn reply_session(&self, conn: &Conn, session: u64, floor: u64, token: String) -> bool {
        let mut out = conn.out.lock().expect("outbox lock");
        if out.dead {
            return false;
        }
        out.announced = out.announced.max(floor).max(self.pool.epoch());
        out.attached = true;
        let reply = Reply::Session { session, epoch: out.announced, resume: token };
        out.buf.extend(reply.encode().as_bytes());
        out.buf.extend(b"\n");
        true
    }

    // -- parking lot ---------------------------------------------------

    /// Mints a resume token for `session` with a fresh nonce.
    fn mint(&self, session: u64) -> (u64, String) {
        let nonce = self.nonce.fetch_add(1, Ordering::Relaxed) + 1;
        let mac = self.mac_key.hash_one((session, nonce));
        (nonce, format!("{session:08x}-{nonce:016x}-{mac:016x}"))
    }

    /// Parses and MAC-checks a token; `None` if malformed or forged.
    fn verify(&self, token: &str) -> Option<(u64, u64)> {
        let mut parts = token.split('-');
        let (s, n, m) = (parts.next()?, parts.next()?, parts.next()?);
        if parts.next().is_some() {
            return None;
        }
        let session = u64::from_str_radix(s, 16).ok()?;
        let nonce = u64::from_str_radix(n, 16).ok()?;
        let mac = u64::from_str_radix(m, 16).ok()?;
        (self.mac_key.hash_one((session, nonce)) == mac).then_some((session, nonce))
    }

    /// Registers a freshly opened session as attached and returns its
    /// first resume token.
    fn lot_open(&self, session: u64) -> String {
        let (nonce, token) = self.mint(session);
        self.lot.lock().expect("lot lock").insert(
            session,
            LotEntry {
                nonce,
                minted_at: Instant::now(),
                attachment: Attachment::Attached,
                waiter: None,
            },
        );
        token
    }

    /// Starts re-attaching the session a resume token names. A parked
    /// session attaches immediately; a still-attached one (the client
    /// reconnected faster than the server noticed the drop) installs a
    /// waiter that [`Inner::park`] completes — no polling anywhere.
    fn begin_resume(&self, conn: &Arc<Conn>, token: &str) -> ResumeStart {
        let Some((session, nonce)) = self.verify(token) else {
            return ResumeStart::Refused("bad resume token".into());
        };
        self.sweep_lot();
        let mut lot = self.lot.lock().expect("lot lock");
        match lot.get_mut(&session) {
            None => ResumeStart::Refused("unknown or expired resume token".into()),
            Some(entry) if entry.nonce != nonce => {
                ResumeStart::Refused("stale resume token".into())
            }
            Some(entry) if entry.minted_at.elapsed() > self.config.resume_token_ttl => {
                // The token outlived its own TTL — independent of the
                // park TTL, so the session may well still be parked.
                // Report the canonical reason so the client can
                // distinguish this from a lot miss.
                ResumeStart::Refused(RESUME_TOKEN_EXPIRED.into())
            }
            Some(entry) => match entry.attachment {
                Attachment::Parked { announced, .. } => {
                    let (new_nonce, new_token) = self.mint(session);
                    entry.nonce = new_nonce;
                    entry.minted_at = Instant::now();
                    entry.attachment = Attachment::Attached;
                    entry.waiter = None;
                    ResumeStart::Attached(Resumed { session, announced, token: new_token })
                }
                Attachment::Attached => {
                    if entry.waiter.is_some() || self.shutdown.load(Ordering::SeqCst) {
                        // A second contender for the same token, or a
                        // server already draining: nothing will park
                        // this session for the newcomer.
                        ResumeStart::Refused("session is still attached".into())
                    } else {
                        entry.waiter = Some(Waiter {
                            conn: Arc::clone(conn),
                            deadline: Instant::now() + RESUME_ATTACH_WAIT,
                        });
                        ResumeStart::Waiting { session }
                    }
                }
            },
        }
    }

    /// Parks `session` for later resume (or retires it outright when
    /// the server is shutting down), enforcing TTL and capacity. If a
    /// resume is already waiting for this session, the park becomes a
    /// direct handover: the waiter's connection attaches on the spot.
    fn park(&self, session: u64, announced: u64) {
        if self.shutdown.load(Ordering::SeqCst) {
            self.retire(session);
            return;
        }
        self.sweep_lot();
        enum After {
            Nothing,
            Evicted(Vec<u64>),
            Handover(Waiter, String),
        }
        let after = {
            let mut lot = self.lot.lock().expect("lot lock");
            let Some(entry) = lot.get_mut(&session) else {
                // Already evicted/retired under us; nothing to park.
                return;
            };
            if let Some(waiter) = entry.waiter.take() {
                let (new_nonce, new_token) = self.mint(session);
                entry.nonce = new_nonce;
                entry.minted_at = Instant::now();
                entry.attachment = Attachment::Attached;
                After::Handover(waiter, new_token)
            } else {
                entry.attachment = Attachment::Parked { announced, parked_at: Instant::now() };
                let mut evicted = Vec::new();
                loop {
                    let parked: Vec<(u64, Instant)> = lot
                        .iter()
                        .filter_map(|(id, e)| match e.attachment {
                            Attachment::Parked { parked_at, .. } => Some((*id, parked_at)),
                            Attachment::Attached => None,
                        })
                        .collect();
                    if parked.len() <= self.config.park_capacity {
                        break;
                    }
                    // Evict the longest-parked session.
                    let (oldest, _) =
                        parked.iter().min_by_key(|(_, at)| *at).copied().expect("nonempty");
                    lot.remove(&oldest);
                    evicted.push(oldest);
                }
                if evicted.is_empty() {
                    After::Nothing
                } else {
                    After::Evicted(evicted)
                }
            }
        };
        match after {
            After::Nothing => {}
            After::Evicted(ids) => {
                for id in ids {
                    self.pool.close(SessionId(id));
                }
            }
            After::Handover(waiter, token) => {
                self.complete_resume(waiter.conn, session, announced, token);
            }
        }
    }

    /// Finishes a waiter-based resume: the old connection just parked
    /// `session`, and `conn` has been idling in `Resuming` phase for
    /// it. Appends the session reply, replays any requests the client
    /// pipelined behind the resume — in order, under the phase lock, so
    /// nothing its shard reads later can overtake them — and wakes the
    /// shard that owns `conn` to flush the replies.
    fn complete_resume(&self, conn: Arc<Conn>, session: u64, announced: u64, token: String) {
        let mut phase = conn.phase.lock().expect("phase lock");
        let backlog = match std::mem::replace(&mut *phase, Phase::Done) {
            Phase::Resuming { backlog, .. } => backlog,
            Phase::Done => {
                // The waiting connection died before the handover. The
                // rotated token was never delivered, so nobody can ever
                // resume this session: retire it.
                drop(phase);
                self.retire(session);
                return;
            }
            // A waiter conn can only be in Resuming or Done.
            other => {
                *phase = other;
                return;
            }
        };
        if !self.reply_session(&conn, session, announced, token) {
            // Outbox dead: the client vanished mid-resume and never saw
            // the rotated token — a half-resumed session is
            // unreachable. Retire, exactly like the old write-failure
            // path.
            drop(phase);
            self.retire(session);
            return;
        }
        *phase = Phase::Active { session };
        for line in backlog {
            if let Some(next) = self.process_active(&conn, session, line) {
                *phase = next;
                if matches!(*phase, Phase::Done) {
                    break;
                }
            }
        }
        self.wake_owner(&conn);
    }

    /// Fails a connection idling in `Resuming` phase with `err reason`
    /// and an orderly close, and wakes its shard to send it. No-op if
    /// it already moved on (attached or died).
    fn refuse_waiting(&self, conn: &Conn, reason: &str) {
        let mut phase = conn.phase.lock().expect("phase lock");
        if matches!(&*phase, Phase::Resuming { .. }) {
            *phase = Phase::Done;
            drop(phase);
            self.reply(conn, &Reply::Error(reason.into()), None, true);
            self.wake_owner(conn);
        }
    }

    /// Takes every waiter whose deadline has passed (shard tick).
    fn take_overdue_waiters(&self, now: Instant) -> Vec<Arc<Conn>> {
        let mut lot = self.lot.lock().expect("lot lock");
        let mut overdue = Vec::new();
        for entry in lot.values_mut() {
            if entry.waiter.as_ref().is_some_and(|w| now >= w.deadline) {
                if let Some(waiter) = entry.waiter.take() {
                    overdue.push(waiter.conn);
                }
            }
        }
        overdue
    }

    /// Drops `conn`'s waiter registration on `session`, if it still
    /// holds one (the waiting connection died).
    fn cancel_waiter(&self, session: u64, conn: &Arc<Conn>) {
        let mut lot = self.lot.lock().expect("lot lock");
        if let Some(entry) = lot.get_mut(&session) {
            if entry.waiter.as_ref().is_some_and(|w| Arc::ptr_eq(&w.conn, conn)) {
                entry.waiter = None;
            }
        }
    }

    /// Closes `session` for good: lot entry gone, pool session closed.
    /// A resume still waiting for it is refused — the session it
    /// wanted no longer exists.
    fn retire(&self, session: u64) {
        let waiter = {
            let mut lot = self.lot.lock().expect("lot lock");
            lot.remove(&session).and_then(|e| e.waiter)
        };
        if let Some(w) = waiter {
            self.refuse_waiting(&w.conn, "unknown or expired resume token");
        }
        self.pool.close(SessionId(session));
    }

    /// Expires parked sessions past their TTL.
    fn sweep_lot(&self) {
        let expired: Vec<u64> = {
            let mut lot = self.lot.lock().expect("lot lock");
            let ttl = self.config.park_ttl;
            let dead: Vec<u64> = lot
                .iter()
                .filter_map(|(id, e)| match e.attachment {
                    Attachment::Parked { parked_at, .. } if parked_at.elapsed() > ttl => Some(*id),
                    _ => None,
                })
                .collect();
            for id in &dead {
                lot.remove(id);
            }
            dead
        };
        for id in expired {
            self.pool.close(SessionId(id));
        }
    }

    // -- request processing --------------------------------------------

    /// Routes one reassembled line through the connection's phase
    /// machine. All processing happens under the phase lock, which is
    /// the per-connection execution lock: one connection's requests
    /// are strictly serial, exactly like the old one-thread-per-
    /// connection server.
    fn handle_line(&self, conn: &Arc<Conn>, line: LineIn) {
        let mut phase = conn.phase.lock().expect("phase lock");
        match &mut *phase {
            Phase::Done => {}
            Phase::Resuming { backlog, .. } => backlog.push(line),
            Phase::Greeting => {
                *phase = self.handshake(conn, line);
            }
            Phase::Active { session } => {
                let session = *session;
                if let Some(next) = self.process_active(conn, session, line) {
                    *phase = next;
                }
            }
        }
    }

    /// Consumes the first request: `hello` opens a fresh session,
    /// `session resume <token>` re-attaches a parked one, anything
    /// else is refused (err + close, exactly the old strings).
    fn handshake(&self, conn: &Arc<Conn>, line: LineIn) -> Phase {
        let text = match line {
            LineIn::Line(text) => text,
            LineIn::Oversized => {
                let reason = format!("request line exceeds {MAX_REQUEST_LINE} bytes");
                self.reply(conn, &Reply::Error(reason), None, true);
                return Phase::Done;
            }
            LineIn::BadUtf8 => {
                self.reply(
                    conn,
                    &Reply::Error("request line is not valid utf-8".into()),
                    None,
                    true,
                );
                return Phase::Done;
            }
        };
        match Request::decode(&text) {
            Ok(Request::Hello { version }) if version == PROTOCOL_VERSION => {
                let session = self.pool.open();
                let token = self.lot_open(session.0);
                if self.reply_session(conn, session.0, 0, token) {
                    Phase::Active { session: session.0 }
                } else {
                    // The client never saw the session: close it, not
                    // park it.
                    self.retire(session.0);
                    Phase::Done
                }
            }
            Ok(Request::Hello { version }) => {
                let reason = format!(
                    "unsupported version {version} (this server speaks {PROTOCOL_VERSION})"
                );
                self.reply(conn, &Reply::Error(reason), None, true);
                Phase::Done
            }
            Ok(Request::Resume { token }) => match self.begin_resume(conn, &token) {
                ResumeStart::Attached(resumed) => {
                    if self.reply_session(conn, resumed.session, resumed.announced, resumed.token) {
                        Phase::Active { session: resumed.session }
                    } else {
                        // The client never saw the rotated token: a
                        // half-resumed session is unreachable. Retire.
                        self.retire(resumed.session);
                        Phase::Done
                    }
                }
                ResumeStart::Waiting { session } => {
                    Phase::Resuming { session, backlog: Vec::new() }
                }
                ResumeStart::Refused(reason) => {
                    self.reply(conn, &Reply::Error(reason), None, true);
                    Phase::Done
                }
            },
            Ok(_) | Err(_) => {
                self.reply(
                    conn,
                    &Reply::Error("expected hello or session resume first".into()),
                    None,
                    true,
                );
                Phase::Done
            }
        }
    }

    /// One request on an attached session. Returns the phase to move
    /// to, if any (bye and a vanished session end the connection).
    fn process_active(&self, conn: &Arc<Conn>, session: u64, line: LineIn) -> Option<Phase> {
        let sid = SessionId(session);
        let text = match line {
            LineIn::Line(text) => text,
            LineIn::Oversized => {
                let reason = format!("request line exceeds {MAX_REQUEST_LINE} bytes");
                self.reply(conn, &Reply::Error(reason), None, false);
                return None;
            }
            LineIn::BadUtf8 => {
                self.reply(
                    conn,
                    &Reply::Error("request line is not valid utf-8".into()),
                    None,
                    false,
                );
                return None;
            }
        };
        match Request::decode(&text) {
            Err(e) => {
                self.reply(conn, &Reply::Error(e.0), None, false);
                None
            }
            Ok(Request::Hello { .. }) => {
                self.reply(
                    conn,
                    &Reply::Error("hello is only valid as the first request".into()),
                    None,
                    false,
                );
                None
            }
            Ok(Request::Resume { .. }) => {
                self.reply(
                    conn,
                    &Reply::Error("session resume is only valid as the first request".into()),
                    None,
                    false,
                );
                None
            }
            Ok(Request::Hashes) => {
                match self.pool.with_session(sid, |s| (s.epoch(), s.frame_hashes())) {
                    Some((epoch, hashes)) => {
                        self.reply(conn, &Reply::Hashes(hashes), Some(epoch), false);
                        None
                    }
                    None => {
                        self.reply(conn, &Reply::Error("session closed".into()), None, true);
                        self.retire(session);
                        Some(Phase::Done)
                    }
                }
            }
            Ok(Request::Bye) => {
                self.reply(conn, &Reply::Bye, None, true);
                self.retire(session);
                Some(Phase::Done)
            }
            Ok(Request::Command(cmd)) => match self.pool.apply_with_epoch(sid, cmd) {
                Some((epoch, outcome)) => {
                    self.reply(conn, &Reply::Outcome(outcome.to_wire()), Some(epoch), false);
                    None
                }
                None => {
                    self.reply(conn, &Reply::Error("session closed".into()), None, true);
                    self.retire(session);
                    Some(Phase::Done)
                }
            },
        }
    }

    /// The exactly-once session teardown for a connection that read
    /// EOF or died: parks an attached session (with the announced mark
    /// it had), cancels a pending resume waiter, and is a no-op for a
    /// connection that already finished (bye) or never attached.
    fn teardown(&self, conn: &Arc<Conn>) {
        let prev = {
            let mut phase = conn.phase.lock().expect("phase lock");
            std::mem::replace(&mut *phase, Phase::Done)
        };
        match prev {
            Phase::Greeting | Phase::Done => {}
            Phase::Resuming { session, .. } => self.cancel_waiter(session, conn),
            Phase::Active { session } => {
                let announced = conn.out.lock().expect("outbox lock").announced;
                self.park(session, announced);
            }
        }
    }
}

// ---------------------------------------------------------------------
// The shards
// ---------------------------------------------------------------------

/// A shard's per-connection bookkeeping (single-threaded state;
/// everything shared lives in [`Conn`]).
struct ShardConn {
    conn: Arc<Conn>,
    assembler: LineAssembler,
    /// Read gate closed (outbox over the high-water mark).
    paused: bool,
    /// EOF seen: no more reads; close the socket once the outbox
    /// drains.
    draining: bool,
    /// Interest currently registered with the poller.
    interest: Interest,
}

/// One event-loop thread: reads, runs and flushes every request of the
/// connections it owns.
struct Shard {
    index: usize,
    inner: Arc<Inner>,
    poller: Poller,
    wake_rx: UnixStream,
    /// The listening socket: shard 0's alone.
    listener: Option<TcpListener>,
    conns: HashMap<u64, ShardConn>,
    /// Token of the next accepted connection (shard 0 numbers them).
    next_token: u64,
}

impl Shard {
    fn new(
        index: usize,
        inner: Arc<Inner>,
        wake_rx: UnixStream,
        listener: Option<TcpListener>,
    ) -> std::io::Result<Shard> {
        let mut poller = Poller::new()?;
        if let Some(listener) = &listener {
            poller.register(listener.as_raw_fd(), TOKEN_LISTENER, Interest::READ)?;
        }
        poller.register(wake_rx.as_raw_fd(), TOKEN_WAKE, Interest::READ)?;
        Ok(Shard {
            index,
            inner,
            poller,
            wake_rx,
            listener,
            conns: HashMap::new(),
            next_token: FIRST_CONN_TOKEN,
        })
    }

    fn run(mut self) {
        let mut events: Vec<Event> = Vec::new();
        let mut last_tick = Instant::now();
        while !self.inner.shutdown.load(Ordering::SeqCst) {
            if self.poller.wait(&mut events, Some(TICK)).is_err() {
                break;
            }
            let mut woken = false;
            for ev in &events {
                match ev.token {
                    TOKEN_LISTENER => self.accept_ready(),
                    TOKEN_WAKE => {
                        drain_wake(&self.wake_rx);
                        woken = true;
                    }
                    token => {
                        if ev.writable {
                            self.flush_conn(token);
                        }
                        if ev.readable || ev.hangup {
                            self.read_conn(token);
                        }
                    }
                }
            }
            if woken {
                self.woken();
            }
            if last_tick.elapsed() >= TICK {
                last_tick = Instant::now();
                self.tick();
            }
        }
        self.drain();
    }

    /// Accepts until the listener would block, handing each socket to
    /// the shard its token selects. Accept errors (EMFILE above all)
    /// pause the listener instead of spinning or sleeping; a connection
    /// closing on any shard wakes shard 0 to re-arm it.
    fn accept_ready(&mut self) {
        loop {
            let Some(listener) = &self.listener else { return };
            match listener.accept() {
                Ok((stream, _)) => {
                    if self.inner.shutdown.load(Ordering::SeqCst) {
                        return;
                    }
                    let token = self.next_token;
                    self.next_token += 1;
                    let owner = self.inner.shard_of(token);
                    if owner == self.index {
                        self.add_conn(token, stream);
                    } else {
                        let mailbox = &self.inner.mailboxes[owner];
                        mailbox.handoff.lock().expect("handoff lock").push((token, stream));
                        self.inner.wake(owner);
                    }
                }
                Err(e) if e.kind() == ErrorKind::WouldBlock => return,
                Err(e) if e.kind() == ErrorKind::Interrupted => continue,
                Err(_) => {
                    if !self.inner.accept_paused.swap(true, Ordering::SeqCst) {
                        let _ = self.poller.deregister(listener.as_raw_fd());
                    }
                    return;
                }
            }
        }
    }

    /// Handles a wake: adopts the sockets shard 0 handed over, re-arms
    /// a paused listener, and flushes every connection — whatever
    /// another thread appended to an outbox goes out now.
    fn woken(&mut self) {
        let handed = std::mem::take(
            &mut *self.inner.mailboxes[self.index].handoff.lock().expect("handoff lock"),
        );
        for (token, stream) in handed {
            self.add_conn(token, stream);
        }
        if let Some(listener) = &self.listener {
            if self.inner.accept_paused.swap(false, Ordering::SeqCst)
                && self
                    .poller
                    .register(listener.as_raw_fd(), TOKEN_LISTENER, Interest::READ)
                    .is_ok()
            {
                self.accept_ready();
            }
        }
        let tokens: Vec<u64> = self.conns.keys().copied().collect();
        for token in tokens {
            self.flush_conn(token);
        }
    }

    fn add_conn(&mut self, token: u64, stream: TcpStream) {
        if stream.set_nonblocking(true).is_err() || stream.set_nodelay(true).is_err() {
            return;
        }
        // The greeting is pre-filled into the outbox; the publish hook
        // skips the connection until its session reply marks the outbox
        // attached, so no epoch push precedes `mirabel-net 1` or the
        // handshake reply on the stream.
        let mut buf = WriteBuf::default();
        buf.extend(format!("{}\n", greeting()).as_bytes());
        let conn = Arc::new(Conn {
            token,
            stream,
            out: Mutex::new(Outbox {
                buf,
                announced: 0,
                attached: false,
                closing: false,
                dead: false,
                last_progress: Instant::now(),
            }),
            phase: Mutex::new(Phase::Greeting),
        });
        if self.poller.register(conn.stream.as_raw_fd(), token, Interest::READ).is_err() {
            return;
        }
        self.inner.registry.lock().expect("registry lock").insert(token, Arc::clone(&conn));
        self.conns.insert(
            token,
            ShardConn {
                conn,
                assembler: LineAssembler::default(),
                paused: false,
                draining: false,
                interest: Interest::READ,
            },
        );
        self.flush_conn(token);
    }

    /// One bounded read per readiness event (level-triggered polling
    /// re-fires while bytes remain, which keeps one firehose client
    /// from starving the rest), then line reassembly, every completed
    /// line run to completion in order, and one flush.
    fn read_conn(&mut self, token: u64) {
        let Some(sc) = self.conns.get_mut(&token) else { return };
        if sc.paused || sc.draining {
            return;
        }
        let mut buf = [0u8; 16 * 1024];
        let lines = loop {
            match (&sc.conn.stream).read(&mut buf) {
                Ok(0) => return self.eof_conn(token),
                Ok(n) => break sc.assembler.push(&buf[..n]),
                Err(e) if e.kind() == ErrorKind::WouldBlock => return,
                Err(e) if e.kind() == ErrorKind::Interrupted => continue,
                Err(_) => return self.finish_conn(token),
            }
        };
        let conn = Arc::clone(&sc.conn);
        for line in lines {
            self.inner.handle_line(&conn, line);
        }
        self.flush_conn(token);
    }

    /// Flushes a connection's outbox and settles its fate: reap dead
    /// sockets, finish orderly closes and drained EOF connections whose
    /// buffer emptied, otherwise recompute the read gate (backpressure)
    /// and re-arm interest (write iff bytes pending, read iff not gated).
    fn flush_conn(&mut self, token: u64) {
        let Some(sc) = self.conns.get_mut(&token) else { return };
        let (len, closing, dead) = {
            let mut out = sc.conn.out.lock().expect("outbox lock");
            out.write_to(&sc.conn.stream);
            (out.buf.len(), out.closing, out.dead)
        };
        if dead || (len == 0 && (closing || sc.draining)) {
            return self.finish_conn(token);
        }
        if !sc.paused && len >= OUTBOX_HIGH_WATER {
            sc.paused = true;
        } else if sc.paused && len <= OUTBOX_LOW_WATER {
            sc.paused = false;
        }
        let want = Interest { read: !sc.paused && !sc.draining, write: len > 0 };
        if want != sc.interest {
            sc.interest = want;
            let _ = self.poller.modify(sc.conn.stream.as_raw_fd(), token, want);
        }
    }

    /// Orderly EOF: stop reading, leave the registry (broadcasts and
    /// `connections()` drop it now) and tear the session down — every
    /// line read before the EOF has already run — but keep the socket
    /// until pending replies flush: a client may half-close after `bye`
    /// and still expect `ok bye`.
    fn eof_conn(&mut self, token: u64) {
        let Some(sc) = self.conns.get_mut(&token) else { return };
        sc.draining = true;
        let conn = Arc::clone(&sc.conn);
        self.inner.registry.lock().expect("registry lock").remove(&token);
        self.inner.teardown(&conn);
        self.flush_conn(token);
    }

    /// Hard connection end: socket gone from the poller, the registry
    /// and the shard; outbox dead; session teardown run (a no-op after
    /// an EOF's).
    fn finish_conn(&mut self, token: u64) {
        let Some(sc) = self.conns.remove(&token) else { return };
        let _ = self.poller.deregister(sc.conn.stream.as_raw_fd());
        self.inner.registry.lock().expect("registry lock").remove(&token);
        {
            let mut out = sc.conn.out.lock().expect("outbox lock");
            out.dead = true;
            out.buf.clear();
        }
        let _ = sc.conn.stream.shutdown(Shutdown::Both);
        self.inner.teardown(&sc.conn);
        if self.inner.accept_paused.load(Ordering::SeqCst) {
            self.inner.wake(0);
        }
    }

    /// Housekeeping: kill this shard's write-stalled connections, fail
    /// overdue resume waiters, expire parked sessions.
    fn tick(&mut self) {
        let now = Instant::now();
        let stalled: Vec<u64> = self
            .conns
            .iter()
            .filter(|(_, sc)| {
                let out = sc.conn.out.lock().expect("outbox lock");
                !out.buf.is_empty() && now.duration_since(out.last_progress) > WRITE_TIMEOUT
            })
            .map(|(&token, _)| token)
            .collect();
        for token in stalled {
            self.finish_conn(token);
        }
        for conn in self.inner.take_overdue_waiters(now) {
            self.inner.refuse_waiting(&conn, "session is still attached");
        }
        self.inner.sweep_lot();
    }

    /// Shutdown: tear every connection down (sessions retire — the
    /// shutdown flag is set) and exit.
    fn drain(&mut self) {
        let tokens: Vec<u64> = self.conns.keys().copied().collect();
        for token in tokens {
            self.finish_conn(token);
        }
    }
}

/// Drains a shard's wake pipe.
fn drain_wake(mut wake_rx: &UnixStream) {
    let mut buf = [0u8; 256];
    loop {
        match wake_rx.read(&mut buf) {
            Ok(0) => return,
            Ok(_) => continue,
            Err(e) if e.kind() == ErrorKind::Interrupted => continue,
            Err(_) => return,
        }
    }
}

// ---------------------------------------------------------------------
// Line reassembly
// ---------------------------------------------------------------------

/// Reassembles request lines from arbitrary byte chunks: the framing
/// codec of the event-loop server. Splits on `\n`, strips one optional
/// trailing `\r`, skips blank and `#`-comment lines (so a recorded
/// command script can be piped at a server verbatim), flags non-UTF-8
/// lines, and bounds memory: a line still incomplete past
/// [`MAX_REQUEST_LINE`] yields one [`LineIn::Oversized`] and the
/// overflow is discarded up to the next newline — the framing never
/// desyncs, whatever the chunking.
#[derive(Default)]
struct LineAssembler {
    buf: Vec<u8>,
    /// Inside an oversized line: drop bytes until the next newline.
    discarding: bool,
}

impl LineAssembler {
    /// Feeds one received chunk; returns the lines completed by it.
    fn push(&mut self, chunk: &[u8]) -> Vec<LineIn> {
        self.buf.extend_from_slice(chunk);
        let mut out = Vec::new();
        let mut start = 0;
        loop {
            let newline = self.buf[start..].iter().position(|&b| b == b'\n');
            if self.discarding {
                match newline {
                    Some(pos) => {
                        start += pos + 1;
                        self.discarding = false;
                    }
                    None => {
                        start = self.buf.len();
                        break;
                    }
                }
                continue;
            }
            match newline {
                Some(pos) => {
                    let mut line = &self.buf[start..start + pos];
                    if line.last() == Some(&b'\r') {
                        line = &line[..line.len() - 1];
                    }
                    match std::str::from_utf8(line) {
                        Ok(text) => {
                            let trimmed = text.trim();
                            if !trimmed.is_empty() && !trimmed.starts_with('#') {
                                out.push(LineIn::Line(trimmed.to_string()));
                            }
                        }
                        Err(_) => out.push(LineIn::BadUtf8),
                    }
                    start += pos + 1;
                }
                None => {
                    if self.buf.len() - start >= MAX_REQUEST_LINE {
                        out.push(LineIn::Oversized);
                        self.discarding = true;
                        start = self.buf.len();
                    }
                    break;
                }
            }
        }
        self.buf.drain(..start);
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn texts(lines: Vec<LineIn>) -> Vec<String> {
        lines
            .into_iter()
            .map(|l| match l {
                LineIn::Line(t) => t,
                LineIn::Oversized => "<oversized>".into(),
                LineIn::BadUtf8 => "<bad-utf8>".into(),
            })
            .collect()
    }

    /// Splitmix64 — a tiny deterministic generator for the chunking
    /// property test (no external crates, no global RNG state).
    fn splitmix(state: &mut u64) -> u64 {
        *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = *state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    #[test]
    fn splits_lines_strips_cr_and_skips_blanks_and_comments() {
        let mut asm = LineAssembler::default();
        let got = asm.push(b"hello 1\r\n\n  \n# comment\nrender\n");
        assert_eq!(texts(got), vec!["hello 1".to_string(), "render".to_string()]);
        assert!(asm.buf.is_empty());
    }

    #[test]
    fn reassembles_lines_split_across_arbitrary_read_boundaries() {
        // The property: however a byte stream is chunked, the line
        // sequence is identical. 64 random chunkings of one stream
        // with every edge in it (CRLF, blank, comment, partial tail).
        let stream: Vec<u8> =
            b"hello 1\r\nrender\n# note\nload 0 96 - a b\n\r\nzoom 3\nbye\n".to_vec();
        let reference = LineAssembler::default().push(&stream);
        let expected = texts(reference);
        let mut seed = 0x51C5_EED5_u64;
        for _ in 0..64 {
            let mut asm = LineAssembler::default();
            let mut got = Vec::new();
            let mut off = 0;
            while off < stream.len() {
                let step = 1 + (splitmix(&mut seed) as usize) % 7;
                let end = (off + step).min(stream.len());
                got.extend(asm.push(&stream[off..end]));
                off = end;
            }
            assert_eq!(texts(got), expected);
            assert!(asm.buf.is_empty());
        }
    }

    #[test]
    fn oversized_lines_yield_one_marker_and_never_desync_framing() {
        let mut asm = LineAssembler::default();
        // Just under the limit without a newline: nothing yet.
        let almost = vec![b'a'; MAX_REQUEST_LINE - 1];
        assert!(asm.push(&almost).is_empty());
        // One more byte crosses the limit: exactly one Oversized.
        let got = asm.push(b"bb");
        assert!(matches!(got.as_slice(), [LineIn::Oversized]));
        // More overflow bytes produce nothing further...
        assert!(asm.push(&vec![b'c'; 1000]).is_empty());
        // ...and the next newline resyncs: the following line parses.
        let got = asm.push(b"tail\nrender\n");
        assert_eq!(texts(got), vec!["render".to_string()]);
        assert!(!asm.discarding);
    }

    #[test]
    fn exact_limit_line_with_newline_still_parses() {
        // A line whose content is MAX-1 bytes (plus the newline) stays
        // under the limit and must survive byte-at-a-time delivery.
        let mut asm = LineAssembler::default();
        let mut line = vec![b'x'; MAX_REQUEST_LINE - 1];
        line.push(b'\n');
        let mut got = Vec::new();
        for b in &line {
            got.extend(asm.push(std::slice::from_ref(b)));
        }
        assert_eq!(got.len(), 1);
        assert!(matches!(&got[0], LineIn::Line(t) if t.len() == MAX_REQUEST_LINE - 1));
    }

    #[test]
    fn invalid_utf8_is_flagged_without_killing_the_stream() {
        let mut asm = LineAssembler::default();
        let got = asm.push(b"ok line\n\xff\xfe\xfd\nstill here\n");
        let got = texts(got);
        assert_eq!(
            got,
            vec!["ok line".to_string(), "<bad-utf8>".to_string(), "still here".to_string()]
        );
    }

    #[test]
    fn write_buf_consumes_and_compacts() {
        let mut buf = WriteBuf::default();
        buf.extend(b"hello world");
        assert_eq!(buf.len(), 11);
        buf.consume(6);
        assert_eq!(buf.pending(), b"world");
        buf.consume(5);
        assert!(buf.is_empty());
        assert_eq!(buf.start, 0);
        // Large mostly-consumed buffers reclaim their dead prefix.
        buf.extend(&vec![b'z'; 200 * 1024]);
        buf.consume(150 * 1024);
        assert_eq!(buf.len(), 50 * 1024);
        assert!(buf.start < 150 * 1024, "compaction should have run");
    }
}
