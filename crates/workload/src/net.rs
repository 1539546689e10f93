//! Deterministic multi-client *network* traces.
//!
//! The wire protocol's unit of state is the connection (connection =
//! session, PROTOCOL.md), so a network workload is more than a command
//! stream: clients connect, work, drop, and reconnect with a fresh
//! session. This module models that as a seeded stream of
//! [`NetEvent`]s per client — the interaction vocabulary of
//! [`trace`](crate::trace) plus an explicit [`NetEvent::Reconnect`]
//! lifecycle event.
//!
//! Connection drops come in two seeded flavours, mixed by
//! [`NetTraceConfig::resume_share`]:
//!
//! * [`NetEvent::Reconnect`] — the orderly `bye` + fresh session: the
//!   old session dies with everything on it, so the trace forces a
//!   [`InteractionStep::LoadWindow`] right after (a fresh session has
//!   no tabs);
//! * [`NetEvent::Resume`] — the connection is killed and the *same*
//!   session picked back up via `session resume <token>`
//!   (PROTOCOL.md): tabs and the announced-epoch high-water mark
//!   survive, so the next step is whatever the trace would have done
//!   anyway — no forced load.
//!
//! Like every workload generator, the traces are engine-agnostic and
//! fully deterministic in the seed: the repository benchmark binds the
//! steps to session commands, sends them over loopback TCP and checks
//! every reply against an in-process replay of the same stream —
//! reconnects and resumes included (an in-process "reconnect" closes
//! the session and opens a fresh one; an in-process "resume" is a
//! no-op, exactly what a parked-and-resumed session observes
//! server-side).

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::trace::{InteractionStep, TraceConfig};

/// One event in a network client's life.
#[derive(Debug, Clone, PartialEq)]
pub enum NetEvent {
    /// An ordinary interaction (bound to one or more commands).
    Step(InteractionStep),
    /// Drop the connection and reconnect: the old session dies with
    /// everything on it, the next step starts on a fresh one.
    Reconnect,
    /// Drop the connection *without* `bye` and resume the same session
    /// with its token: tabs and the epoch high-water mark survive.
    Resume,
}

/// One client's network trace.
#[derive(Debug, Clone, PartialEq)]
pub struct NetClientTrace {
    /// Client index in `0..config.clients`.
    pub client: usize,
    /// The events, in order. Never starts or ends with a lifecycle
    /// event ([`NetEvent::Reconnect`] / [`NetEvent::Resume`]), and
    /// lifecycle events are never adjacent.
    pub events: Vec<NetEvent>,
}

impl NetClientTrace {
    /// Number of fresh-session reconnects in this trace.
    pub fn reconnects(&self) -> usize {
        self.events.iter().filter(|e| matches!(e, NetEvent::Reconnect)).count()
    }

    /// Number of kill-and-resume events in this trace.
    pub fn resumes(&self) -> usize {
        self.events.iter().filter(|e| matches!(e, NetEvent::Resume)).count()
    }
}

/// Parameters of a multi-client network trace; `Default` is a small smoke shape.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NetTraceConfig {
    /// Number of concurrent clients (K).
    pub clients: usize,
    /// Interaction steps per client (excluding reconnects; a step can
    /// expand to more than one command).
    pub steps_per_client: usize,
    /// Probability of a connection drop between two consecutive steps.
    pub reconnect_rate: f64,
    /// Fraction of connection drops that resume the parked session
    /// ([`NetEvent::Resume`]) instead of opening a fresh one
    /// ([`NetEvent::Reconnect`]).
    pub resume_share: f64,
    /// Master seed; each client derives an independent stream.
    pub seed: u64,
}

impl Default for NetTraceConfig {
    fn default() -> Self {
        NetTraceConfig {
            clients: 4,
            steps_per_client: 64,
            reconnect_rate: 0.02,
            resume_share: 0.5,
            seed: 0x4E37,
        }
    }
}

/// Generates `config.clients` deterministic network traces: each
/// client's interaction steps come from [`crate::trace`] (hover-storm
/// dominated, occasional heavy operations), with seeded connection
/// drops woven between steps at `config.reconnect_rate` and split
/// between [`NetEvent::Resume`] and [`NetEvent::Reconnect`] by
/// `config.resume_share`. After every fresh reconnect the next step is
/// forced to be a [`InteractionStep::LoadWindow`] so the fresh session
/// immediately has a tab to work on — the same invariant the first
/// step of every trace has. A resume keeps the trace's own next step:
/// the resumed session still has its tabs.
pub fn generate_net_traces(config: &NetTraceConfig) -> Vec<NetClientTrace> {
    let steps = crate::trace::generate_traces(&TraceConfig {
        users: config.clients,
        steps_per_user: config.steps_per_client.max(1),
        seed: config.seed ^ 0x4E54_5752_4143_4531, // distinct stream from plain traces
    });
    steps
        .into_iter()
        .map(|trace| {
            let seed = config
                .seed
                .wrapping_mul(0xA076_1D64_78BD_642F)
                .wrapping_add(trace.user as u64 ^ 0x004E_4554);
            let mut rng = StdRng::seed_from_u64(seed);
            let mut events = Vec::with_capacity(trace.steps.len() + 4);
            let last = trace.steps.len().saturating_sub(1);
            for (i, step) in trace.steps.into_iter().enumerate() {
                // Never first (the session just connected), never last
                // (a trailing drop would be unobservable), never
                // adjacent (a step always lands right after a drop).
                let drop_here =
                    i > 0 && i < last && rng.gen_range(0.0..1.0) < config.reconnect_rate;
                if drop_here {
                    if rng.gen_range(0.0..1.0) < config.resume_share {
                        // The parked session keeps its tabs, so the
                        // trace's own step still has state to act on.
                        events.push(NetEvent::Resume);
                        events.push(NetEvent::Step(step));
                    } else {
                        events.push(NetEvent::Reconnect);
                        // A fresh session has no tabs: make the step a
                        // load so whatever follows has something to act
                        // on.
                        events.push(NetEvent::Step(InteractionStep::LoadWindow {
                            lo: rng.gen_range(0.0..0.4),
                            hi: rng.gen_range(0.5..1.0),
                        }));
                    }
                } else {
                    events.push(NetEvent::Step(step));
                }
            }
            NetClientTrace { client: trace.user, events }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn net_traces_are_deterministic() {
        let cfg = NetTraceConfig::default();
        assert_eq!(generate_net_traces(&cfg), generate_net_traces(&cfg));
        let other = generate_net_traces(&NetTraceConfig { seed: 1, ..cfg });
        assert_ne!(generate_net_traces(&cfg), other);
    }

    #[test]
    fn reconnects_follow_the_documented_shape() {
        let cfg = NetTraceConfig {
            clients: 6,
            steps_per_client: 120,
            reconnect_rate: 0.10,
            resume_share: 0.5,
            seed: 0xD1A1,
        };
        let traces = generate_net_traces(&cfg);
        assert_eq!(traces.len(), 6);
        let (mut total_reconnects, mut total_resumes) = (0, 0);
        for t in &traces {
            assert!(matches!(t.events.first(), Some(NetEvent::Step(_))));
            assert!(matches!(t.events.last(), Some(NetEvent::Step(_))));
            for pair in t.events.windows(2) {
                match pair[0] {
                    // A fresh session has no tabs: the next step must
                    // be a load.
                    NetEvent::Reconnect => assert!(
                        matches!(pair[1], NetEvent::Step(InteractionStep::LoadWindow { .. })),
                        "a reconnect must be followed by a load"
                    ),
                    // A resumed session kept its tabs: any step may
                    // follow, but never another lifecycle event.
                    NetEvent::Resume => assert!(
                        matches!(pair[1], NetEvent::Step(_)),
                        "a resume must be followed by an ordinary step"
                    ),
                    NetEvent::Step(_) => {}
                }
            }
            total_reconnects += t.reconnects();
            total_resumes += t.resumes();
        }
        assert!(total_reconnects > 0, "a 5% fresh rate over 720 steps must reconnect somewhere");
        assert!(total_resumes > 0, "a 5% resume rate over 720 steps must resume somewhere");
    }

    #[test]
    fn traces_scale_to_a_thousand_clients_and_stay_deterministic() {
        // The connection-scale story: the nightly `--clients 1000` run
        // feeds on these traces, so generation at that width must stay
        // cheap, deterministic, and per-client independent (client i's
        // trace does not change when more clients are added after it).
        let wide = NetTraceConfig {
            clients: 1_000,
            steps_per_client: 12,
            reconnect_rate: 0.02,
            resume_share: 0.5,
            seed: 0x5CA1E,
        };
        let traces = generate_net_traces(&wide);
        assert_eq!(traces.len(), 1_000);
        for (i, t) in traces.iter().enumerate() {
            assert_eq!(t.client, i);
            assert_eq!(
                t.events.iter().filter(|e| matches!(e, NetEvent::Step(_))).count(),
                12,
                "client {i} lost interaction steps"
            );
            assert!(matches!(t.events.first(), Some(NetEvent::Step(_))));
            assert!(matches!(t.events.last(), Some(NetEvent::Step(_))));
        }
        // Distinct clients get distinct streams…
        assert_ne!(traces[0].events, traces[999].events);
        // …and a narrower run is a prefix of the wide one, client for
        // client: scaling the fleet up never rewrites existing traces.
        let narrow = generate_net_traces(&NetTraceConfig { clients: 64, ..wide });
        assert_eq!(&traces[..64], &narrow[..]);
    }

    #[test]
    fn zero_rate_means_no_reconnects() {
        let cfg = NetTraceConfig {
            clients: 3,
            steps_per_client: 50,
            reconnect_rate: 0.0,
            resume_share: 0.5,
            seed: 5,
        };
        for t in generate_net_traces(&cfg) {
            assert_eq!(t.reconnects(), 0);
            assert_eq!(t.resumes(), 0);
            assert_eq!(t.events.len(), 50);
        }
    }

    #[test]
    fn resume_share_bounds_pick_a_single_flavour() {
        let all_fresh = NetTraceConfig {
            clients: 4,
            steps_per_client: 100,
            reconnect_rate: 0.15,
            resume_share: 0.0,
            seed: 0xF00,
        };
        let traces = generate_net_traces(&all_fresh);
        assert!(traces.iter().map(NetClientTrace::reconnects).sum::<usize>() > 0);
        assert_eq!(traces.iter().map(NetClientTrace::resumes).sum::<usize>(), 0);

        let all_resume = NetTraceConfig { resume_share: 1.0, ..all_fresh };
        let traces = generate_net_traces(&all_resume);
        assert_eq!(traces.iter().map(NetClientTrace::reconnects).sum::<usize>(), 0);
        assert!(traces.iter().map(NetClientTrace::resumes).sum::<usize>() > 0);
    }
}
