//! The bench harnesses, their reports and gate tables, and the shared
//! fixtures behind them and the `figures` binary.
//!
//! Each harness module (`stress`, `ingest`, `planning`, `spatial`,
//! `net`, `forecast`, `columnar`) runs one workload, builds its report
//! as a [`diff::Json`] tree and declares the [`diff::Gate`] table that
//! judges it; its binary under `src/bin/` writes the report and
//! enforces the table, and `bench_diff` holds the reports against
//! `BENCH_baseline.json`.
//!
//! Everything here is deterministic: the same sizes and seeds always
//! produce the same offers, scenes and warehouses, so bench numbers and
//! figure artefacts are comparable across runs.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cli;
pub mod columnar;
pub mod diff;
pub mod forecast;
pub mod ingest;
pub mod net;
pub mod planning;
pub mod spatial;
pub mod stress;

use mirabel_dw::Warehouse;
use mirabel_flexoffer::FlexOffer;
use mirabel_session::VisualOffer;
use mirabel_workload::{generate_offers, OfferConfig, Population, PopulationConfig};

/// A deterministic population of `size` prosumers (seed fixed).
pub fn population(size: usize) -> Population {
    Population::generate(&PopulationConfig { size, seed: 0xBE9C, household_share: 0.8 })
}

/// `days` days of offers for a fixed-seed population of `prosumers`.
pub fn offers(prosumers: usize, days: usize) -> (Population, Vec<FlexOffer>) {
    let pop = population(prosumers);
    let offers = generate_offers(&pop, &OfferConfig { days, seed: 0xF16, ..Default::default() });
    (pop, offers)
}

/// Offers with a deterministic spread of lifecycle statuses (for status
/// pies and dashboards).
pub fn offers_with_statuses(prosumers: usize, days: usize) -> (Population, Vec<FlexOffer>) {
    let (pop, mut offers) = self::offers(prosumers, days);
    for (i, fo) in offers.iter_mut().enumerate() {
        match i % 10 {
            0..=3 => fo.accept().expect("offered"),
            4..=7 => {
                fo.accept().expect("offered");
                let sched = mirabel_flexoffer::Schedule::new(
                    fo.earliest_start(),
                    fo.profile().slices().iter().map(|s| s.min).collect(),
                );
                fo.assign(sched).expect("feasible");
            }
            8 => fo.reject().expect("offered"),
            _ => {}
        }
    }
    (pop, offers)
}

/// A loaded warehouse over `prosumers` × `days` with mixed statuses.
pub fn warehouse(prosumers: usize, days: usize) -> (Population, Warehouse) {
    let (pop, offers) = offers_with_statuses(prosumers, days);
    let dw = Warehouse::load(&pop, &offers);
    (pop, dw)
}

/// Exactly `n` visual offers (truncating or cycling the generator as
/// needed) — the unit of the F8/F9 view-scaling figures.
pub fn visual_offers(n: usize) -> Vec<VisualOffer> {
    // Scale the population so the generator yields at least n offers.
    let prosumers = (n / 2).max(50);
    let (_, mut raw) = offers(prosumers, 1 + n / (prosumers * 2));
    while raw.len() < n {
        let extra = raw.len();
        let clone = raw[extra % raw.len().max(1)].clone();
        raw.push(clone);
    }
    raw.truncate(n);
    VisualOffer::from_offers(&raw)
}

/// `std::thread::available_parallelism()` on this host (1 when
/// unknown) — every report records it as its machine class.
pub fn available_parallelism() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// `slow / fast` — a speedup, or 0 when `fast` measured nothing.
pub fn ratio(slow: f64, fast: f64) -> f64 {
    if fast > 0.0 {
        slow / fast
    } else {
        0.0
    }
}

/// Nearest-rank percentile over sorted per-command latencies, reported
/// in microseconds — the single estimator every harness (stress, net)
/// feeds into the p99 gates, shared so the gated metrics cannot drift
/// apart across harnesses.
pub fn percentile_us(sorted_ns: &[u64], p: f64) -> f64 {
    if sorted_ns.is_empty() {
        return 0.0;
    }
    let idx = ((sorted_ns.len() - 1) as f64 * p).round() as usize;
    sorted_ns[idx] as f64 / 1_000.0
}

/// The tail-latency estimator the regression gates run on: drop the
/// highest ⌈n/4⌉ rounds and average the rest (a one-sided trimmed
/// mean). Worst-round spikes on shared CI runners are almost always a
/// noisy neighbour, not a regression — but unlike best-of-N, the
/// surviving rounds still have to *agree* that the tail is low, so a
/// real regression shows up in every kept round. This is what lets the
/// p99 gates run with noise floors tight enough to re-arm
/// sub-millisecond tails (see DESIGN.md, "Bench gating policy").
///
/// With a single round this is the identity; an empty slice yields 0.
pub fn trimmed_tail_mean(rounds: &[f64]) -> f64 {
    if rounds.is_empty() {
        return 0.0;
    }
    let mut sorted = rounds.to_vec();
    sorted.sort_by(f64::total_cmp);
    let drop = rounds.len().div_ceil(4).min(rounds.len() - 1);
    let kept = &sorted[..sorted.len() - drop];
    kept.iter().sum::<f64>() / kept.len() as f64
}

/// Writes `content` under `out/figures/`, creating the directory.
pub fn write_figure(name: &str, content: &str) -> std::io::Result<std::path::PathBuf> {
    let dir = std::path::Path::new("out/figures");
    std::fs::create_dir_all(dir)?;
    let path = dir.join(name);
    std::fs::write(&path, content)?;
    Ok(path)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fixtures_are_deterministic() {
        let a = visual_offers(500);
        let b = visual_offers(500);
        assert_eq!(a.len(), 500);
        assert_eq!(a, b);
        let (_, w1) = warehouse(100, 1);
        let (_, w2) = warehouse(100, 1);
        assert_eq!(w1.columns().len(), w2.columns().len());
    }

    #[test]
    fn trimmed_tail_mean_drops_only_the_top_quarter() {
        assert_eq!(trimmed_tail_mean(&[]), 0.0);
        assert_eq!(trimmed_tail_mean(&[7.0]), 7.0);
        // Two rounds: ⌈2/4⌉ = 1 dropped — the spike goes, the floor stays.
        assert_eq!(trimmed_tail_mean(&[100.0, 3.0]), 3.0);
        // Four rounds: one dropped, mean of the remaining three.
        assert_eq!(trimmed_tail_mean(&[1.0, 2.0, 3.0, 1000.0]), 2.0);
        // A consistent tail survives trimming — regressions still gate.
        let consistent = trimmed_tail_mean(&[50.0, 52.0, 51.0, 49.0]);
        assert!((consistent - 50.0).abs() < 1.0, "{consistent}");
    }

    #[test]
    fn statuses_are_mixed() {
        let (_, offers) = offers_with_statuses(200, 1);
        let statuses: std::collections::BTreeSet<_> = offers.iter().map(|fo| fo.status()).collect();
        assert!(statuses.len() >= 3, "{statuses:?}");
    }
}
