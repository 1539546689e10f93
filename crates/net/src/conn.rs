//! The client connection lifecycle as a typestate machine.
//!
//! [`Connection<S>`] encodes the PROTOCOL.md connection states in the
//! type parameter, so an invalid transition is a *compile error*, not a
//! runtime `err` frame:
//!
//! ```text
//!              open()                hello()
//!   [TCP] ────────────► Greeting ─────────────► Active ◄──────┐
//!                          │                    │  │  │        │
//!                          │ resume_with(tok)   │  │  └─ detach() ──► Resumable
//!                          └────────────────────┘  │                    │
//!                                                  │ bye()              │ resume()
//!                                                  ▼                    │ (reconnect +
//!                                                Closed                 │  session resume)
//!                                                                       └──────► Active
//! ```
//!
//! * [`state::Greeting`] — the TCP stream is up and the server's
//!   greeting has been verified, but no session exists yet. The only
//!   things a client can say are `hello` or `session resume`.
//! * [`state::Active`] — a session is attached; commands, hashes and
//!   epoch waits are available. Holds the current single-use resume
//!   token.
//! * [`state::Resumable`] — the socket has been dropped *without*
//!   `bye` (a deliberate [`Connection::detach`] or a simulated crash);
//!   the session is parked server-side and the retained token can
//!   re-attach. No I/O methods exist in this state.
//! * [`state::Closed`] — `bye` acknowledged; the session is gone and
//!   the token is dead. Terminal.
//!
//! Transitions consume `self` (the old state is unusable afterwards),
//! and methods that need a live socket simply do not exist on
//! `Greeting`/`Resumable`/`Closed` — see the `compile_fail` doctests
//! below. [`NetClient`] names the `Active` state, and
//! [`Connection::connect`] reaches it in one call.
//!
//! The client is synchronous — send a request, block for the reply — so
//! a replay loop's behaviour depends only on its request stream. Epoch
//! pushes arriving meanwhile land in [`Connection::notifications`];
//! [`Connection::wait_for_epoch`] waits for one while idle.
//!
//! Sending a command before the handshake does not compile:
//!
//! ```compile_fail,E0599
//! fn misuse(mut conn: mirabel_net::Connection<mirabel_net::state::Greeting>) {
//!     // No session yet: `command` is not defined in the Greeting state.
//!     let _ = conn.command(&mirabel_session::Command::Render);
//! }
//! ```
//!
//! Using a connection after `bye` does not compile (it was consumed):
//!
//! ```compile_fail,E0382
//! fn misuse(mut conn: mirabel_net::Connection<mirabel_net::state::Active>) {
//!     let _closed = conn.bye();
//!     let _ = conn.hashes(); // `conn` was moved by `bye`
//! }
//! ```
//!
//! A detached connection has no socket, so no requests compile:
//!
//! ```compile_fail,E0599
//! fn misuse(mut conn: mirabel_net::Connection<mirabel_net::state::Resumable>) {
//!     let _ = conn.hashes(); // must `resume()` first
//! }
//! ```
//!
//! And the handshake cannot be repeated on an established connection:
//!
//! ```compile_fail,E0599
//! fn misuse(conn: mirabel_net::Connection<mirabel_net::state::Active>) {
//!     let _ = conn.hello(); // `hello` only exists in the Greeting state
//! }
//! ```

use std::io::{BufRead, BufReader, Write};
use std::marker::PhantomData;
use std::net::{SocketAddr, TcpStream, ToSocketAddrs};
use std::time::{Duration, Instant};

use mirabel_session::{Command, WireOutcome};

use crate::error::NetError;
use crate::protocol::{
    parse_greeting, Reply, Request, ServerLine, PROTOCOL_VERSION, RESUME_TOKEN_EXPIRED,
};

/// Connection lifecycle state markers (zero-sized; the trait is
/// sealed, so this set is closed).
pub mod state {
    use std::fmt::Debug;

    mod sealed {
        pub trait Sealed {}
        impl Sealed for super::Greeting {}
        impl Sealed for super::Active {}
        impl Sealed for super::Resumable {}
        impl Sealed for super::Closed {}
    }

    /// Marker trait for [`Connection`](super::Connection) lifecycle
    /// states. Sealed: exactly [`Greeting`], [`Active`], [`Resumable`]
    /// and [`Closed`] implement it.
    pub trait ConnState: sealed::Sealed + Debug + Copy + Send + 'static {}

    /// Greeting verified, no session yet — `hello` or `session resume`
    /// are the only legal next steps.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub struct Greeting;
    /// Session attached — the full request surface is available.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub struct Active;
    /// Socket dropped without `bye`; the parked session can be
    /// re-attached with the retained resume token.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub struct Resumable;
    /// `bye` acknowledged; terminal.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub struct Closed;

    impl ConnState for Greeting {}
    impl ConnState for Active {}
    impl ConnState for Resumable {}
    impl ConnState for Closed {}
}

use state::ConnState;

/// The live half of a connection; absent in the socket-less states.
#[derive(Debug)]
struct Io {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
}

/// One attached connection to a [`NetServer`](crate::NetServer) — and
/// therefore one session on the server's pool.
pub type NetClient = Connection<state::Active>;

/// One client connection in lifecycle state `S` — see the [module
/// docs](self) for the state machine.
///
/// ```no_run
/// use mirabel_net::Connection;
/// use mirabel_session::Command;
///
/// # fn main() -> Result<(), mirabel_net::NetError> {
/// let mut conn = Connection::open("127.0.0.1:9170")?.hello()?;
/// conn.command(&Command::Render)?;
///
/// // Simulate a crash: drop the socket without `bye`…
/// let parked = conn.detach();
/// // …and pick the session back up on a fresh connection.
/// let mut conn = parked.resume()?;
/// let hashes = conn.hashes()?;
/// # let _ = hashes;
/// conn.bye()?;
/// # Ok(())
/// # }
/// ```
#[derive(Debug)]
pub struct Connection<S: ConnState> {
    io: Option<Io>,
    addr: SocketAddr,
    session: u64,
    token: String,
    /// Epoch notifications in arrival order (including the handshake
    /// epoch when it is non-zero), preserved across detach/resume.
    notifications: Vec<u64>,
    /// Highest epoch the server has told us about.
    epoch: u64,
    /// Bytes of a line whose read was interrupted by a
    /// [`Connection::wait_for_epoch`] timeout mid-line. `read_line`
    /// keeps everything it consumed in its buffer on error, so parking
    /// the partial line here (and resuming into it on the next read)
    /// keeps the frame stream aligned — dropping those bytes would
    /// desynchronize every subsequent frame on the connection.
    partial: String,
    _state: PhantomData<S>,
}

impl<S: ConnState> Connection<S> {
    /// Rewraps the carried state under a new lifecycle marker.
    fn cast<T: ConnState>(self) -> Connection<T> {
        Connection {
            io: self.io,
            addr: self.addr,
            session: self.session,
            token: self.token,
            notifications: self.notifications,
            epoch: self.epoch,
            partial: self.partial,
            _state: PhantomData,
        }
    }

    fn io_mut(&mut self) -> &mut Io {
        self.io.as_mut().expect("socket present in this state")
    }

    fn record_epoch(&mut self, epoch: u64) {
        self.notifications.push(epoch);
        self.epoch = self.epoch.max(epoch);
    }

    /// Reads one complete line, resuming a line left half-read by a
    /// timed-out epoch wait.
    fn read_line(&mut self) -> Result<String, NetError> {
        let partial = std::mem::take(&mut self.partial);
        let io = self.io_mut();
        let mut buf = partial;
        if io.reader.read_line(&mut buf)? == 0 {
            return Err(NetError::UnexpectedEof);
        }
        Ok(buf.trim_end().to_string())
    }

    /// Reads server lines until a reply frame arrives, recording any
    /// epoch notifications on the way.
    fn read_reply(&mut self) -> Result<Reply, NetError> {
        loop {
            let line = self.read_line()?;
            match ServerLine::decode(&line)? {
                ServerLine::Epoch(e) => self.record_epoch(e),
                ServerLine::Reply(reply) => return Ok(reply),
            }
        }
    }

    fn send(&mut self, request: &Request) -> Result<(), NetError> {
        let line = format!("{}\n", request.encode());
        self.io_mut().writer.write_all(line.as_bytes())?;
        Ok(())
    }
}

impl Connection<state::Greeting> {
    /// Connects to `addr` and verifies the server greeting. Fails with
    /// [`NetError::Handshake`] if the endpoint is not `mirabel-net` or
    /// speaks a different protocol version. No session is opened yet —
    /// follow with [`hello`](Connection::hello) or
    /// [`resume_with`](Connection::resume_with).
    pub fn open(addr: impl ToSocketAddrs) -> Result<Connection<state::Greeting>, NetError> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        let addr = stream.peer_addr()?;
        let mut conn = Connection {
            io: Some(Io { reader: BufReader::new(stream.try_clone()?), writer: stream }),
            addr,
            session: 0,
            token: String::new(),
            notifications: Vec::new(),
            epoch: 0,
            partial: String::new(),
            _state: PhantomData,
        };
        let line = conn.read_line()?;
        let version =
            parse_greeting(&line).map_err(|e| NetError::Handshake { detail: e.to_string() })?;
        if version != PROTOCOL_VERSION {
            return Err(NetError::Handshake {
                detail: format!(
                    "server speaks protocol {version}, this client speaks {PROTOCOL_VERSION}"
                ),
            });
        }
        Ok(conn)
    }

    /// Opens a fresh session: sends `hello`, consumes the `ok session`
    /// reply (session id, starting epoch, resume token).
    pub fn hello(self) -> Result<Connection<state::Active>, NetError> {
        self.attach(Request::Hello { version: PROTOCOL_VERSION })
    }

    /// Re-attaches to a parked session: sends `session resume <token>`
    /// instead of `hello`. The server answers with the same session id
    /// and a *fresh* token (tokens are single-use); the reply's epoch
    /// is the session's announced high-water mark, so no `epoch` push
    /// is ever repeated after a resume.
    pub fn resume_with(self, token: &str) -> Result<Connection<state::Active>, NetError> {
        self.attach(Request::Resume { token: token.to_string() })
    }

    fn attach(mut self, request: Request) -> Result<Connection<state::Active>, NetError> {
        self.send(&request)?;
        match self.read_reply()? {
            Reply::Session { session, epoch, resume } => {
                self.session = session;
                self.token = resume;
                // The handshake epoch counts as a notification — but a
                // publish racing the handshake may have pushed the very
                // same epoch already (absorbed by read_reply above), and
                // the at-most-once-per-epoch property must hold.
                if epoch > 0 && !self.notifications.contains(&epoch) {
                    self.notifications.push(epoch);
                }
                self.epoch = self.epoch.max(epoch);
                Ok(self.cast())
            }
            Reply::Error(reason) if reason == RESUME_TOKEN_EXPIRED => Err(NetError::ResumeExpired),
            Reply::Error(reason) => Err(NetError::Refused { reason }),
            other => Err(NetError::UnexpectedReply { expected: "session", got: other.encode() }),
        }
    }
}

impl Connection<state::Active> {
    /// Connects to `addr`, performs the version handshake and opens a
    /// fresh session ([`open`](Connection::open) then
    /// [`hello`](Connection::hello)). Fails if the server is not a
    /// `mirabel-net` endpoint or speaks a different protocol version.
    pub fn connect(addr: impl ToSocketAddrs) -> Result<NetClient, NetError> {
        Connection::open(addr)?.hello()
    }

    /// The session id the server attached to this connection.
    pub fn session(&self) -> u64 {
        self.session
    }

    /// The highest warehouse epoch the server has announced.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Every epoch notification received so far, in arrival order
    /// (preserved across detach/resume).
    pub fn notifications(&self) -> &[u64] {
        &self.notifications
    }

    /// The current single-use resume token, as issued at the last
    /// attach (hello or resume).
    pub fn resume_token(&self) -> &str {
        &self.token
    }

    /// Sends one request and blocks for its reply frame. Epoch
    /// notifications arriving in between are absorbed (see
    /// [`Connection::notifications`]).
    pub fn request(&mut self, request: &Request) -> Result<Reply, NetError> {
        self.send(request)?;
        self.read_reply()
    }

    /// Sends one session command and returns its wire outcome. An `err`
    /// reply (protocol failure) maps to [`NetError::Refused`]; note a
    /// *rejected command* is not an error but
    /// [`WireOutcome::Rejected`], mirroring the in-process API.
    pub fn command(&mut self, cmd: &Command) -> Result<WireOutcome, NetError> {
        match self.request(&Request::Command(cmd.clone()))? {
            Reply::Outcome(outcome) => Ok(outcome),
            Reply::Error(reason) => Err(NetError::Refused { reason }),
            other => Err(NetError::UnexpectedReply { expected: "outcome", got: other.encode() }),
        }
    }

    /// Sends a raw request line (useful for scripted transcripts) and
    /// returns the raw reply/notification lines up to and including the
    /// reply frame.
    pub fn request_raw(&mut self, line: &str) -> Result<Vec<String>, NetError> {
        let out = format!("{line}\n");
        self.io_mut().writer.write_all(out.as_bytes())?;
        let mut lines = Vec::new();
        loop {
            let raw = self.read_line()?;
            let parsed = ServerLine::decode(&raw)?;
            lines.push(raw);
            match parsed {
                ServerLine::Epoch(e) => self.record_epoch(e),
                ServerLine::Reply(_) => return Ok(lines),
            }
        }
    }

    /// Asks the server for the session's per-tab frame hashes — the
    /// wire twin of
    /// [`Session::frame_hashes`](mirabel_session::Session::frame_hashes).
    pub fn hashes(&mut self) -> Result<Vec<u64>, NetError> {
        match self.request(&Request::Hashes)? {
            Reply::Hashes(hashes) => Ok(hashes),
            other => Err(NetError::UnexpectedReply { expected: "hashes", got: other.encode() }),
        }
    }

    /// Blocks up to `timeout` for the server to push epoch `epoch` (or
    /// newer). Returns `true` if it arrived (possibly earlier),
    /// `false` on timeout. Only valid while no request is in flight —
    /// any reply frame arriving here is a protocol violation.
    pub fn wait_for_epoch(&mut self, epoch: u64, timeout: Duration) -> Result<bool, NetError> {
        let deadline = Instant::now() + timeout;
        while self.epoch < epoch {
            let remaining = deadline.saturating_duration_since(Instant::now());
            if remaining.is_zero() {
                return Ok(false);
            }
            self.io_mut().writer.set_read_timeout(Some(remaining))?;
            let read = {
                let partial = std::mem::take(&mut self.partial);
                let mut buf = partial;
                let res = self.io_mut().reader.read_line(&mut buf);
                self.partial = buf;
                res
            };
            self.io_mut().writer.set_read_timeout(None)?;
            match read {
                Ok(0) => return Err(NetError::UnexpectedEof),
                Ok(_) => {
                    let line = std::mem::take(&mut self.partial);
                    match ServerLine::decode(line.trim_end())? {
                        ServerLine::Epoch(e) => self.record_epoch(e),
                        ServerLine::Reply(r) => {
                            return Err(NetError::UnexpectedReply {
                                expected: "epoch notification (idle)",
                                got: r.encode(),
                            });
                        }
                    }
                }
                Err(e)
                    if e.kind() == std::io::ErrorKind::WouldBlock
                        || e.kind() == std::io::ErrorKind::TimedOut =>
                {
                    // Whatever was consumed so far stays in
                    // `self.partial`; the next read (here or in
                    // read_reply) resumes the same line instead of
                    // dropping bytes and misframing the stream.
                    return Ok(false);
                }
                Err(e) => return Err(e.into()),
            }
        }
        Ok(true)
    }

    /// Orderly close: sends `bye`, waits for `ok bye`. The server
    /// closes the session for good — the resume token dies with it.
    pub fn bye(mut self) -> Result<Connection<state::Closed>, NetError> {
        match self.request(&Request::Bye)? {
            Reply::Bye => {
                self.io = None;
                self.token.clear();
                Ok(self.cast())
            }
            other => Err(NetError::UnexpectedReply { expected: "bye", got: other.encode() }),
        }
    }

    /// Drops the socket *without* `bye` — from the server's point of
    /// view this is indistinguishable from a crash, so it parks the
    /// session. The returned handle keeps the address, token and
    /// notification history needed to [`resume`](Connection::resume).
    pub fn detach(mut self) -> Connection<state::Resumable> {
        self.io = None;
        self.partial.clear();
        self.cast()
    }
}

/// Pause between [`Connection::resume_with_retry`] attempts: long
/// enough for a restarting listener to come back, short enough that a
/// handful of attempts stays well inside interactive latency.
const RESUME_RETRY_BACKOFF: Duration = Duration::from_millis(10);

/// `true` for failures worth a second resume attempt: the socket layer
/// failed (connect refused, reset, timeout) or the server dropped the
/// connection before replying. Everything the *server said* — an
/// expired token, a refusal, a protocol violation — is a verdict, not a
/// glitch, and repeating the question cannot change it.
fn transient_resume_failure(err: &NetError) -> bool {
    matches!(err, NetError::Io(_) | NetError::UnexpectedEof)
}

impl Connection<state::Resumable> {
    /// The id of the parked session this handle can re-attach to.
    pub fn session(&self) -> u64 {
        self.session
    }

    /// The retained single-use resume token.
    pub fn resume_token(&self) -> &str {
        &self.token
    }

    /// One resume attempt, leaving this handle reusable on failure.
    fn attempt_resume(&self) -> Result<Connection<state::Active>, NetError> {
        let mut fresh = Connection::open(self.addr)?;
        fresh.notifications = self.notifications.clone();
        fresh.epoch = self.epoch;
        fresh.resume_with(&self.token)
    }

    /// Reconnects to the same server and re-attaches to the parked
    /// session with `session resume <token>`. Notification history and
    /// the epoch high-water mark carry over; if the warehouse moved on
    /// while detached, the resume reply's (newer) epoch is recorded
    /// exactly once.
    pub fn resume(self) -> Result<Connection<state::Active>, NetError> {
        self.attempt_resume()
    }

    /// [`resume`](Connection::resume) with bounded retry on *transient*
    /// failure: a refused connect, a reset socket or an EOF before the
    /// reply is retried up to `attempts` times (with a short pause in
    /// between), then the last error surfaces. Failures the server
    /// *pronounced* — [`NetError::ResumeExpired`] above all, but also
    /// refusals and protocol violations — surface immediately: the
    /// token is single-use, so re-asking after a verdict can only burn
    /// it.
    pub fn resume_with_retry(self, attempts: usize) -> Result<Connection<state::Active>, NetError> {
        let attempts = attempts.max(1);
        let mut last = None;
        for round in 0..attempts {
            if round > 0 {
                std::thread::sleep(RESUME_RETRY_BACKOFF);
            }
            match self.attempt_resume() {
                Ok(active) => return Ok(active),
                Err(err) if transient_resume_failure(&err) => last = Some(err),
                Err(err) => return Err(err),
            }
        }
        Err(last.expect("at least one attempt ran"))
    }
}

impl Connection<state::Closed> {
    /// The id of the session that was closed.
    pub fn session(&self) -> u64 {
        self.session
    }
}
