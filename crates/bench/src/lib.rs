//! The bench harnesses, their reports and gate tables, and the shared
//! fixtures behind them and the `figures` binary.
//!
//! Each harness module (`planning`, `spatial`, `columnar`)
//! runs one workload, builds its report as a [`diff::Json`] tree and
//! declares the [`diff::Gate`] table that judges it; its binary under
//! `src/bin/` writes the report and enforces every row of the table on
//! every run. Serving, wire and live-writer timings are not measured
//! here: the repository benchmark (`perfbench/`) drives that traffic
//! over the wire and checks every reply.
//!
//! Everything here is deterministic: the same sizes and seeds always
//! produce the same offers, scenes and warehouses, so bench numbers and
//! figure artefacts are comparable across runs.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cli;
pub mod columnar;
pub mod diff;
pub mod planning;
pub mod spatial;

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
/// unknown) — every report records it.
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
    fn statuses_are_mixed() {
        let (_, offers) = offers_with_statuses(200, 1);
        let statuses: std::collections::BTreeSet<_> = offers.iter().map(|fo| fo.status()).collect();
        assert!(statuses.len() >= 3, "{statuses:?}");
    }
}
