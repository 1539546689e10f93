//! Deterministic multi-user interaction traces.
//!
//! The paper's tool serves *analysts*, and the MIRABEL enterprise
//! setting implies many of them at once. This module models what one
//! analyst does — hover storms over a view, rectangle selections, tab
//! switches, MDX queries, dashboard renders, aggregation sweeps — as a
//! seeded stream of abstract [`InteractionStep`]s.
//!
//! The steps are deliberately engine-agnostic (unit-square coordinates,
//! index slots, day offsets) so this crate stays a pure behaviour
//! model: the consumer binds them to concrete session `Command`s (the
//! repository benchmark does, through [`crate::net`]'s traces).
//! Like every other workload generator, traces are fully deterministic
//! in the seed — the same [`TraceConfig`] always produces the same
//! steps for every user, so a replay can be checked hash for hash.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// One abstract analyst interaction. Coordinates are in the unit square
/// (the consumer scales them to its canvas); indices and days are taken
/// modulo whatever is live on the consumer's side.
#[derive(Debug, Clone, PartialEq)]
pub enum InteractionStep {
    /// A burst of pointer positions — the hover storm that dominates
    /// real interactive load ("on-the-fly information", Figure 10).
    HoverStorm {
        /// Unit-square pointer positions, in order.
        points: Vec<(f64, f64)>,
    },
    /// One click at a unit-square position (select or clear).
    Click {
        /// Horizontal position in `[0, 1]`.
        x: f64,
        /// Vertical position in `[0, 1]`.
        y: f64,
    },
    /// A rectangle-selection drag.
    Drag {
        /// Unit-square drag origin.
        from: (f64, f64),
        /// Unit-square drag release point.
        to: (f64, f64),
    },
    /// Switch to (roughly) tab `slot` — consumers take it modulo the
    /// number of live tabs.
    TabSwitch {
        /// Requested tab slot.
        slot: usize,
    },
    /// Toggle between the basic and profile detail views (Figures 8/9).
    ToggleMode,
    /// Evaluate the `idx`-th canned MDX query (Figure 5).
    MdxQuery {
        /// Index into the consumer's canned query list.
        idx: usize,
    },
    /// Render the Figure 6 dashboard for day `day` of the window.
    DashboardRender {
        /// Day offset into the scenario window.
        day: usize,
    },
    /// Load a sub-window of the scenario's offers into a new tab
    /// (Figure 7 loader); bounds are fractions of the full window.
    LoadWindow {
        /// Window start as a fraction of the scenario window.
        lo: f64,
        /// Window end as a fraction of the scenario window (`> lo`).
        hi: f64,
    },
    /// Run the Figure 11 aggregation on the active tab.
    Aggregate {
        /// Earliest-start-time tolerance, in slots.
        est: i64,
        /// Time-flexibility tolerance, in slots.
        tft: i64,
    },
    /// Request the current frame of the active tab.
    Render,
}

/// Parameters of a multi-user trace; `Default` is a small smoke shape.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceConfig {
    /// Number of concurrent users (K).
    pub users: usize,
    /// Interaction steps generated per user (a step can expand to more
    /// than one engine command).
    pub steps_per_user: usize,
    /// Master seed; each user derives an independent stream.
    pub seed: u64,
}

impl Default for TraceConfig {
    fn default() -> Self {
        TraceConfig { users: 8, steps_per_user: 64, seed: 0x57E5 }
    }
}

/// One user's interaction stream.
#[derive(Debug, Clone, PartialEq)]
pub struct UserTrace {
    /// User index in `0..config.users`.
    pub user: usize,
    /// The steps, in interaction order.
    pub steps: Vec<InteractionStep>,
}

/// Generates `config.users` deterministic traces. Every trace begins
/// with a [`InteractionStep::LoadWindow`] so the user always has a tab
/// to interact with; the remaining mix is dominated by hover storms,
/// with clicks, drags, tab switches, mode toggles and the occasional
/// heavy operation (MDX, dashboard, aggregation, another load).
pub fn generate_traces(config: &TraceConfig) -> Vec<UserTrace> {
    (0..config.users)
        .map(|user| {
            let seed = config.seed.wrapping_mul(0x9E37_79B9_7F4A_7C15).wrapping_add(user as u64);
            let mut rng = StdRng::seed_from_u64(seed);
            let mut steps = Vec::with_capacity(config.steps_per_user);
            steps.push(load_window(&mut rng));
            while steps.len() < config.steps_per_user {
                steps.push(random_step(&mut rng));
            }
            steps.truncate(config.steps_per_user);
            UserTrace { user, steps }
        })
        .collect()
}

fn unit(rng: &mut StdRng) -> (f64, f64) {
    (rng.gen_range(0.0..1.0), rng.gen_range(0.0..1.0))
}

fn load_window(rng: &mut StdRng) -> InteractionStep {
    let lo = rng.gen_range(0.0..0.5);
    let hi = rng.gen_range(lo + 0.25..1.0);
    InteractionStep::LoadWindow { lo, hi }
}

fn random_step(rng: &mut StdRng) -> InteractionStep {
    match rng.gen_range(0u32..100) {
        // Interactive load dominates: pointer storms of 4–12 events.
        0..=39 => {
            let n = rng.gen_range(4usize..=12);
            InteractionStep::HoverStorm { points: (0..n).map(|_| unit(rng)).collect() }
        }
        40..=54 => {
            let (x, y) = unit(rng);
            InteractionStep::Click { x, y }
        }
        55..=64 => InteractionStep::Drag { from: unit(rng), to: unit(rng) },
        65..=72 => InteractionStep::TabSwitch { slot: rng.gen_range(0usize..4) },
        73..=79 => InteractionStep::ToggleMode,
        80..=85 => InteractionStep::Render,
        86..=89 => load_window(rng),
        90..=93 => InteractionStep::MdxQuery { idx: rng.gen_range(0usize..8) },
        94..=96 => InteractionStep::DashboardRender { day: rng.gen_range(0usize..4) },
        _ => InteractionStep::Aggregate {
            est: rng.gen_range(2i64..=12),
            tft: rng.gen_range(1i64..=6),
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn traces_are_deterministic() {
        let cfg = TraceConfig::default();
        assert_eq!(generate_traces(&cfg), generate_traces(&cfg));
    }

    #[test]
    fn seeds_and_users_differentiate_traces() {
        let a = generate_traces(&TraceConfig { seed: 1, ..Default::default() });
        let b = generate_traces(&TraceConfig { seed: 2, ..Default::default() });
        assert_ne!(a, b);
        // Distinct users draw distinct streams from the same master seed.
        assert_ne!(a[0].steps, a[1].steps);
    }

    #[test]
    fn every_trace_starts_with_a_load_and_has_the_requested_length() {
        let cfg = TraceConfig { users: 5, steps_per_user: 40, seed: 9 };
        let traces = generate_traces(&cfg);
        assert_eq!(traces.len(), 5);
        for t in &traces {
            assert_eq!(t.steps.len(), 40);
            assert!(matches!(t.steps[0], InteractionStep::LoadWindow { .. }));
        }
    }

    #[test]
    fn hover_storms_dominate_the_mix() {
        let cfg = TraceConfig { users: 4, steps_per_user: 200, seed: 0xA11CE };
        let traces = generate_traces(&cfg);
        let (mut storms, mut total) = (0usize, 0usize);
        for t in &traces {
            for s in &t.steps {
                total += 1;
                if matches!(s, InteractionStep::HoverStorm { .. }) {
                    storms += 1;
                }
            }
        }
        assert!(storms * 100 / total >= 25, "{storms}/{total} storms");
    }

    #[test]
    fn load_windows_are_well_formed() {
        for t in generate_traces(&TraceConfig { users: 6, steps_per_user: 80, seed: 3 }) {
            for s in &t.steps {
                if let InteractionStep::LoadWindow { lo, hi } = s {
                    assert!((0.0..1.0).contains(lo) && *hi > *lo && *hi < 1.0, "{lo}..{hi}");
                }
            }
        }
    }
}
