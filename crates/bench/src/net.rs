//! The wire-protocol harness: the same seeded trace, once in-process,
//! once over loopback TCP — outcomes and frame hashes must be
//! bit-identical.
//!
//! Binds the multi-client network traces of [`mirabel_workload::net`]
//! (interaction steps plus connection-lifecycle drops) to session
//! commands, then replays them two ways over the *same* warehouse:
//!
//! * **in-process reference** — a [`ConcurrentPool`] driven directly;
//!   a reconnect closes the session and opens a fresh one, a resume is
//!   a no-op (the session never went anywhere);
//! * **over the wire** — a [`NetServer`] on `127.0.0.1:0`, one
//!   [`NetClient`] thread per trace client; a reconnect is an actual
//!   `bye` + reconnect, a resume actually kills the connection without
//!   `bye` and re-attaches the parked session with
//!   `session resume <token>` (PROTOCOL.md).
//!
//! The harness's core assertion is PROTOCOL.md's determinism promise:
//! the wire adds nothing and loses nothing — every reply's wire
//! encoding equals the wire projection of the in-process outcome
//! (`outcome_match`), and the final per-client `hashes` replies equal
//! the in-process frame hashes (`hash_match`), resumes included. A
//! dedicated **reconnect storm** round additionally kills and resumes
//! 25% of the clients mid-trace and re-checks both equalities
//! (`storm_outcome_match` / `storm_hash_match`). All four are hard
//! rows of [`GATES`]; throughput and tail latency are held against
//! `BENCH_baseline.json` by `bench_diff`.

use std::sync::Arc;
use std::time::Instant;

use mirabel_dw::LoaderQuery;
use mirabel_net::{NetClient, NetServer};
use mirabel_session::{Command, ConcurrentPool};
use mirabel_timeseries::TimeSlot;
use mirabel_workload::{generate_net_traces, NetEvent, NetTraceConfig};

use crate::diff::{Bound, Gate, Json, Policy, Scope};

/// The net gate table (see [`crate::diff`]). The wire must be bit-exact
/// — park/resume seams included — on any machine class.
pub const GATES: &[Gate] = &[
    Gate::holds("outcome_match"),
    Gate::holds("hash_match"),
    Gate::holds("storm_outcome_match"),
    Gate::holds("storm_hash_match"),
    Gate::higher("commands_per_s").policy(Policy::Class),
    // The request→reply tail crosses two loopback hops and a scheduler
    // handoff: it only arms above one millisecond.
    Gate::lower("p99_us", 1_000.0).policy(Policy::Class),
    // The connection storm holds every client at once: a dropped
    // connect is a correctness failure, not noise.
    Gate::floor("peak_connections", Bound::Field("clients"), Scope::Both),
    // The event-loop server drains a full backlog per readiness event;
    // under 200 accepts/s the accept path regressed to per-connection
    // setup costs. Below 4 cores the herd and the reactor share a core.
    Gate::floor("accepts_per_s", Bound::Fixed(200.0), Scope::Diff).policy(Policy::Cores),
    // A thundering herd queues on the listener backlog by design: the
    // connect tail only arms past ~200 ms.
    Gate::lower("connect_p99_us", 200_000.0).policy(Policy::Cores).optional(),
];

/// Canvas the simulated clients work on (same as the stress harness).
const CANVAS: (f64, f64) = (960.0, 540.0);

/// Shape of one net-harness run; `Default` is the CI smoke
/// configuration.
#[derive(Debug, Clone, PartialEq)]
pub struct NetConfig {
    /// Concurrent clients (K), each on its own connection.
    pub clients: usize,
    /// Commands replayed per client (M; reconnects not counted).
    pub commands_per_client: usize,
    /// Probability of a connection drop between two trace steps.
    pub reconnect_rate: f64,
    /// Fraction of drops that resume the parked session instead of
    /// opening a fresh one.
    pub resume_share: f64,
    /// Master seed for the traces.
    pub seed: u64,
    /// Prosumers in the shared warehouse.
    pub prosumers: usize,
    /// Days of offers in the shared warehouse.
    pub days: usize,
    /// Measurement rounds; throughput keeps the best round, the p99
    /// gate runs on the trimmed tail mean across rounds
    /// ([`crate::trimmed_tail_mean`]). Outcome/hash equality is
    /// asserted on *every* round.
    pub repeats: usize,
}

impl Default for NetConfig {
    fn default() -> Self {
        NetConfig {
            clients: 4,
            commands_per_client: 150,
            reconnect_rate: 0.02,
            resume_share: 0.5,
            seed: 0x4E37,
            prosumers: 150,
            days: 1,
            repeats: 3,
        }
    }
}

/// One replayable per-client event stream: commands plus lifecycle.
#[derive(Debug, Clone, PartialEq)]
pub enum ReplayEvent {
    /// Apply one command on the client's current session.
    Cmd(Command),
    /// Drop the session/connection and start a fresh one.
    Reconnect,
    /// Kill the connection without `bye` and resume the same session
    /// with its token; in-process this is a no-op (the session never
    /// went anywhere), which is exactly the equivalence the gates
    /// assert.
    Resume,
}

/// Builds the per-client replay streams: exactly
/// `config.commands_per_client` commands each (cycling the trace if it
/// runs short), reconnects interleaved, deterministic in the seed.
pub fn build_replays(config: &NetConfig) -> Vec<Vec<ReplayEvent>> {
    let window_slots = (config.days.max(1) as i64) * 96;
    let traces = generate_net_traces(&NetTraceConfig {
        clients: config.clients,
        steps_per_client: config.commands_per_client.max(4),
        reconnect_rate: config.reconnect_rate,
        resume_share: config.resume_share,
        seed: config.seed,
    });
    traces
        .iter()
        .map(|trace| {
            let mut events = Vec::with_capacity(config.commands_per_client + 8);
            let mut commands = 0usize;
            // Fixed prologue, same idea as the stress harness: every
            // session starts with a canvas and a full-window tab.
            let mut push = |cmd: Command, events: &mut Vec<ReplayEvent>| {
                events.push(ReplayEvent::Cmd(cmd));
                commands += 1;
                commands >= config.commands_per_client
            };
            let prologue = |client: usize| {
                [
                    Command::SetCanvas { width: CANVAS.0, height: CANVAS.1 },
                    Command::Load {
                        query: LoaderQuery::builder()
                            .window(TimeSlot::new(0), TimeSlot::new(window_slots))
                            .build(),
                        title: format!("c{client} main"),
                    },
                ]
            };
            'outer: loop {
                for cmd in prologue(trace.client) {
                    if push(cmd, &mut events) {
                        break 'outer;
                    }
                }
                for (seq, event) in trace.events.iter().enumerate() {
                    match event {
                        NetEvent::Reconnect => {
                            events.push(ReplayEvent::Reconnect);
                            for cmd in prologue(trace.client) {
                                if push(cmd, &mut events) {
                                    break 'outer;
                                }
                            }
                        }
                        // No prologue: the resumed session kept its
                        // canvas and tabs.
                        NetEvent::Resume => events.push(ReplayEvent::Resume),
                        NetEvent::Step(step) => {
                            for cmd in
                                crate::stress::bind_step(step, window_slots, trace.client, seq)
                            {
                                if push(cmd, &mut events) {
                                    break 'outer;
                                }
                            }
                        }
                    }
                }
                // Trace exhausted below M (tiny configs): cycle it.
            }
            events
        })
        .collect()
}

/// What one client observed over a full replay — the determinism
/// comparand between the two transports.
#[derive(Debug, Clone, PartialEq)]
pub struct ClientObservation {
    /// The wire encoding of every command's outcome, in order.
    pub outcomes: Vec<String>,
    /// The final session's per-tab frame hashes.
    pub hashes: Vec<u64>,
}

/// The in-process reference replay: same pool type, same sessions-per-
/// reconnect semantics, no sockets.
pub fn replay_in_process(
    warehouse: &Arc<mirabel_dw::Warehouse>,
    replays: &[Vec<ReplayEvent>],
) -> Vec<ClientObservation> {
    let pool = ConcurrentPool::new(Arc::clone(warehouse));
    replays
        .iter()
        .map(|events| {
            let mut id = pool.open();
            let mut outcomes = Vec::new();
            for event in events {
                match event {
                    ReplayEvent::Reconnect => {
                        pool.close(id);
                        id = pool.open();
                    }
                    // In-process the session never detaches; resuming
                    // it is the identity.
                    ReplayEvent::Resume => {}
                    ReplayEvent::Cmd(cmd) => {
                        let outcome = pool.apply(id, cmd.clone()).expect("session open").to_wire();
                        outcomes.push(outcome.encode());
                    }
                }
            }
            let hashes = pool.with_session(id, |s| s.frame_hashes()).expect("session open");
            pool.close(id);
            ClientObservation { outcomes, hashes }
        })
        .collect()
}

/// One full wire replay: K client threads against a fresh server over
/// `warehouse`. Returns per-client observations, per-command latencies
/// (ns, unsorted) and the wall-clock seconds.
fn replay_over_wire(
    warehouse: &Arc<mirabel_dw::Warehouse>,
    replays: &[Vec<ReplayEvent>],
) -> (Vec<ClientObservation>, Vec<u64>, f64) {
    let pool = Arc::new(ConcurrentPool::new(Arc::clone(warehouse)));
    let server = NetServer::bind("127.0.0.1:0", pool).expect("bind loopback");
    let addr = server.local_addr();

    let started = Instant::now();
    let results: Vec<(ClientObservation, Vec<u64>)> = std::thread::scope(|scope| {
        let handles: Vec<_> = replays
            .iter()
            .map(|events| {
                scope.spawn(move || {
                    let mut client = NetClient::connect(addr).expect("connect");
                    let mut outcomes = Vec::new();
                    let mut latencies = Vec::new();
                    for event in events {
                        match event {
                            ReplayEvent::Reconnect => {
                                client.bye().expect("bye");
                                client = NetClient::connect(addr).expect("reconnect");
                            }
                            ReplayEvent::Resume => {
                                let (session, epoch) = (client.session(), client.epoch());
                                let parked = client.detach();
                                client = parked.resume().expect("resume");
                                assert_eq!(client.session(), session, "resume changed the session");
                                assert!(
                                    client.epoch() >= epoch,
                                    "resume lost the epoch high-water mark"
                                );
                            }
                            ReplayEvent::Cmd(cmd) => {
                                let t0 = Instant::now();
                                let outcome = client.command(cmd).expect("command reply");
                                latencies.push(t0.elapsed().as_nanos() as u64);
                                outcomes.push(outcome.encode());
                            }
                        }
                    }
                    // Epoch pushes stay at-most-once across resume
                    // seams: the high-water mark must keep the list
                    // strictly increasing.
                    let notes = client.notifications();
                    assert!(
                        notes.windows(2).all(|w| w[0] < w[1]),
                        "duplicate epoch push after a resume: {notes:?}"
                    );
                    let hashes = client.hashes().expect("hashes reply");
                    client.bye().expect("final bye");
                    (ClientObservation { outcomes, hashes }, latencies)
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().expect("client thread")).collect()
    });
    let wall_s = started.elapsed().as_secs_f64();
    drop(server);

    let mut observations = Vec::with_capacity(results.len());
    let mut latencies = Vec::new();
    for (obs, lat) in results {
        observations.push(obs);
        latencies.extend(lat);
    }
    (observations, latencies, wall_s)
}

/// The connection-scale storm: every client connects at once against a
/// fresh server, all connections are held open simultaneously (the
/// peak is read off the server, not assumed), each client proves its
/// connection live with one round-trip, and everything `bye`s down.
/// Returns `(accepts_per_s, connect_p99_us, peak_connections)`.
///
/// This is the event-loop payoff measurement: with one OS thread per
/// connection this topped out at thread-spawn scale; the reactor holds
/// `--clients 1000+` on a single core, bounded by fds alone.
fn connect_storm(warehouse: &Arc<mirabel_dw::Warehouse>, clients: usize) -> (f64, f64, usize) {
    let pool = Arc::new(ConcurrentPool::new(Arc::clone(warehouse)));
    let server = NetServer::bind("127.0.0.1:0", pool).expect("bind loopback");
    let addr = server.local_addr();
    let barrier = std::sync::Barrier::new(clients + 1);
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..clients)
            .map(|_| {
                let barrier = &barrier;
                scope.spawn(move || {
                    barrier.wait(); // all clients fire together
                    let t0 = Instant::now();
                    let mut client = NetClient::connect(addr).expect("storm connect");
                    let connect_ns = t0.elapsed().as_nanos() as u64;
                    barrier.wait(); // all connected — peak is now
                    barrier.wait(); // peak sampled; prove liveness
                    let reply = client.request(&mirabel_net::Request::Hashes).expect("storm probe");
                    assert!(
                        matches!(reply, mirabel_net::Reply::Hashes(_)),
                        "storm probe got {reply:?}"
                    );
                    client.bye().expect("storm bye");
                    connect_ns
                })
            })
            .collect();
        barrier.wait();
        let t0 = Instant::now();
        barrier.wait();
        let accept_wall = t0.elapsed().as_secs_f64();
        let peak = server.connections();
        barrier.wait();
        let mut connect_ns: Vec<u64> =
            handles.into_iter().map(|h| h.join().expect("storm client")).collect();
        connect_ns.sort_unstable();
        let accepts_per_s = clients as f64 / accept_wall.max(f64::EPSILON);
        (accepts_per_s, crate::percentile_us(&connect_ns, 0.99), peak)
    })
}

/// Share of clients the storm round kills and resumes mid-trace.
pub const STORM_SHARE: f64 = 0.25;

fn splitmix64(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The reconnect-storm scenario: kills and resumes [`STORM_SHARE`] of
/// the clients (at least one) halfway through their event streams by
/// splicing a [`ReplayEvent::Resume`] into the seeded replays. Returns
/// the stormed replays and how many clients were hit; deterministic in
/// the seed.
pub fn storm_replays(replays: &[Vec<ReplayEvent>], seed: u64) -> (Vec<Vec<ReplayEvent>>, usize) {
    let hit = ((replays.len() as f64 * STORM_SHARE).round() as usize).clamp(1, replays.len());
    // Seeded ranking: the `hit` clients with the smallest hashes storm.
    let mut ranked: Vec<usize> = (0..replays.len()).collect();
    ranked.sort_by_key(|&i| splitmix64(seed ^ i as u64));
    let stormed: Vec<usize> = ranked.into_iter().take(hit).collect();
    let replays = replays
        .iter()
        .enumerate()
        .map(|(i, events)| {
            let mut events = events.clone();
            if stormed.contains(&i) {
                events.insert(events.len() / 2, ReplayEvent::Resume);
            }
            events
        })
        .collect();
    (replays, hit)
}

/// Runs the full harness: builds the warehouse and traces, replays
/// in-process once (the reference is seed-deterministic — one replay
/// serves every round), then replays over loopback `repeats` times,
/// cross-checking outcomes and hashes on every round; finally runs the
/// reconnect-storm round (kill + resume 25% of the clients mid-trace)
/// and cross-checks it the same way. Returns the `BENCH_net.json`
/// report.
pub fn run_net(config: &NetConfig) -> Json {
    let (_, dw) = crate::warehouse(config.prosumers, config.days);
    let warehouse = Arc::new(dw);
    let offers = warehouse.offers().len();
    let replays = build_replays(config);
    let count = |replays: &[Vec<ReplayEvent>], wanted: fn(&ReplayEvent) -> bool| -> usize {
        replays.iter().map(|events| events.iter().filter(|e| wanted(e)).count()).sum()
    };
    let reconnects = count(&replays, |e| matches!(e, ReplayEvent::Reconnect));
    let resumes = count(&replays, |e| matches!(e, ReplayEvent::Resume));

    let reference = replay_in_process(&warehouse, &replays);

    let mut outcome_match = true;
    let mut hash_match = true;
    let mut best: Option<(f64, f64, u64, f64)> = None; // (cps, wall, commands, p50)
    let mut round_p99s = Vec::new();
    for _ in 0..config.repeats.max(1) {
        let (observed, mut latencies, wall_s) = replay_over_wire(&warehouse, &replays);
        for (o, r) in observed.iter().zip(&reference) {
            outcome_match &= o.outcomes == r.outcomes;
            hash_match &= o.hashes == r.hashes;
        }
        latencies.sort_unstable();
        let commands = latencies.len() as u64;
        let cps = commands as f64 / wall_s;
        round_p99s.push(crate::percentile_us(&latencies, 0.99));
        let p50 = crate::percentile_us(&latencies, 0.50);
        if best.as_ref().is_none_or(|(b, ..)| cps > *b) {
            best = Some((cps, wall_s, commands, p50));
        }
    }
    let (commands_per_s, wall_s, commands, p50_us) = best.expect("repeats >= 1");

    // The storm round: same trace, but 25% of the clients get killed
    // and resumed halfway through. Unmeasured — equivalence only.
    let (stormed, storm_clients) = storm_replays(&replays, config.seed);
    let storm_reference = replay_in_process(&warehouse, &stormed);
    let (storm_observed, _, _) = replay_over_wire(&warehouse, &stormed);
    let mut storm_outcome_match = true;
    let mut storm_hash_match = true;
    for (o, r) in storm_observed.iter().zip(&storm_reference) {
        storm_outcome_match &= o.outcomes == r.outcomes;
        storm_hash_match &= o.hashes == r.hashes;
    }

    // The connection-scale storm: all K clients at once, held open
    // simultaneously. Unrelated to the trace replays — this one
    // measures the serving core's connection scalability.
    let (accepts_per_s, connect_p99_us, peak_connections) =
        connect_storm(&warehouse, config.clients);

    Json::obj([
        ("bench", "net".into()),
        ("clients", config.clients.into()),
        ("commands_per_client", config.commands_per_client.into()),
        ("reconnect_rate", config.reconnect_rate.into()),
        ("resume_share", config.resume_share.into()),
        ("seed", config.seed.into()),
        ("prosumers", config.prosumers.into()),
        ("days", config.days.into()),
        ("repeats", config.repeats.max(1).into()),
        ("offers", offers.into()),
        ("reconnects", reconnects.into()),
        ("resumes", resumes.into()),
        ("available_parallelism", crate::available_parallelism().into()),
        // Every wire reply and every client's final frame hashes equal
        // the in-process replay's, on every round.
        ("outcome_match", outcome_match.into()),
        ("hash_match", hash_match.into()),
        ("storm_clients", storm_clients.into()),
        ("storm_outcome_match", storm_outcome_match.into()),
        ("storm_hash_match", storm_hash_match.into()),
        // The connection-scale storm: connections live at once (must be
        // `clients`), accept throughput, connect→handshake p99.
        ("peak_connections", peak_connections.into()),
        ("accepts_per_s", Json::Num(accepts_per_s)),
        ("connect_p99_us", Json::Num(connect_p99_us)),
        // The best wire round; the p99 is the trimmed tail mean across
        // rounds (the gated number).
        ("commands", commands.into()),
        ("wall_s", Json::Num(wall_s)),
        ("commands_per_s", Json::Num(commands_per_s)),
        ("p50_us", Json::Num(p50_us)),
        ("p99_us", Json::Num(crate::trimmed_tail_mean(&round_p99s))),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> NetConfig {
        NetConfig {
            clients: 3,
            commands_per_client: 40,
            reconnect_rate: 0.08,
            resume_share: 0.5,
            seed: 11,
            prosumers: 40,
            days: 1,
            repeats: 1,
        }
    }

    #[test]
    fn replays_are_deterministic_and_sized() {
        let cfg = tiny();
        let a = build_replays(&cfg);
        assert_eq!(a, build_replays(&cfg));
        assert_eq!(a.len(), 3);
        for events in &a {
            let commands = events.iter().filter(|e| matches!(e, ReplayEvent::Cmd(_))).count();
            assert_eq!(commands, 40);
            assert!(matches!(events[0], ReplayEvent::Cmd(Command::SetCanvas { .. })));
        }
        // Clients do not share a stream.
        assert_ne!(a[0], a[1]);
    }

    #[test]
    fn wire_replay_is_bit_identical_to_in_process() {
        let report = run_net(&tiny());
        let num = |key| report.num_at(&[key]).unwrap();
        assert!(report.is_true("outcome_match"), "a wire outcome diverged from in-process");
        assert!(report.is_true("hash_match"), "frame hashes diverged across the wire");
        assert_eq!(num("commands"), 3.0 * 40.0);
        assert!(num("commands_per_s") > 0.0);
        assert!(num("storm_clients") >= 1.0, "the storm must hit at least one client");
        assert!(report.is_true("storm_outcome_match"), "storm outcomes diverged from in-process");
        assert!(report.is_true("storm_hash_match"), "storm frame hashes diverged across the wire");
        assert_eq!(num("peak_connections"), 3.0, "the connection storm must hold all clients");
        assert!(num("accepts_per_s") > 0.0);
        assert!(num("connect_p99_us") > 0.0);
        crate::diff::assert_binary_rows_resolve(GATES, &report);
    }

    #[test]
    fn connection_scale_storm_holds_every_connection_open_at_once() {
        let (_, dw) = crate::warehouse(30, 1);
        let warehouse = Arc::new(dw);
        let (accepts_per_s, connect_p99_us, peak) = connect_storm(&warehouse, 48);
        assert_eq!(peak, 48, "a storm connect failed or a connection dropped early");
        assert!(accepts_per_s > 0.0);
        assert!(connect_p99_us > 0.0);
    }

    #[test]
    fn reconnects_and_resumes_actually_happen_and_stay_deterministic() {
        let cfg = NetConfig { commands_per_client: 120, ..tiny() };
        let replays = build_replays(&cfg);
        let count = |wanted: fn(&ReplayEvent) -> bool| -> usize {
            replays.iter().map(|e| e.iter().filter(|e| wanted(e)).count()).sum()
        };
        assert!(
            count(|e| matches!(e, ReplayEvent::Reconnect)) > 0,
            "a 4% fresh rate over 360 steps must reconnect somewhere"
        );
        assert!(
            count(|e| matches!(e, ReplayEvent::Resume)) > 0,
            "a 4% resume rate over 360 steps must resume somewhere"
        );
        // Lifecycle semantics match across transports even with
        // mid-stream session churn and park/resume seams.
        let (_, dw) = crate::warehouse(cfg.prosumers, cfg.days);
        let warehouse = Arc::new(dw);
        let reference = replay_in_process(&warehouse, &replays);
        let (observed, _, _) = replay_over_wire(&warehouse, &replays);
        assert_eq!(reference, observed);
    }

    #[test]
    fn storm_replays_splice_resumes_deterministically() {
        let cfg = tiny();
        let replays = build_replays(&cfg);
        let (stormed, hit) = storm_replays(&replays, cfg.seed);
        assert_eq!((stormed.clone(), hit), storm_replays(&replays, cfg.seed));
        assert_eq!(hit, 1, "25% of 3 clients rounds to one stormed client");
        let spliced = stormed.iter().zip(&replays).filter(|(s, r)| s.len() == r.len() + 1).count();
        assert_eq!(spliced, hit, "every stormed client gains exactly one resume");
        // A different seed may pick different victims, never a
        // different count.
        assert_eq!(storm_replays(&replays, !cfg.seed).1, hit);
    }
}
