//! Deterministic flex-offer ingest traces: the stream the live
//! warehouse drinks from.
//!
//! In deployment, MIRABEL's warehouse is fed continuously: prosumers
//! issue offers through the day, retract some of them before
//! acceptance (the SAREF4ENER offered → accepted/withdrawn lifecycle),
//! and midnight rolls the planning window forward. This module models
//! that feed as a seeded sequence of [`IngestEvent`]s — arrival
//! batches, withdrawal batches, day ticks, and publish points — that
//! the live warehouse's tests, the columnar harness and the repository
//! benchmark's `live` writer replay against a `LiveWarehouse`.
//!
//! Like every other generator in this crate, a trace is fully
//! deterministic in its config: the same [`IngestTraceConfig`] always
//! yields the same events, which is what lets a test assert that
//! per-epoch frame hashes are identical at every reader thread count.

use mirabel_flexoffer::{FlexOffer, FlexOfferId};
use mirabel_timeseries::{SlotSpan, TimeSlot};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::offers::{generate_offers, OfferConfig};
use crate::population::Population;

/// One event of an ingest trace, in stream order.
#[derive(Debug, Clone, PartialEq)]
pub enum IngestEvent {
    /// A batch of newly issued offers arrives.
    Arrive {
        /// The arrived offers, ids unique across the whole trace.
        offers: Vec<FlexOffer>,
    },
    /// Prosumers retract a batch of still-live offers.
    Withdraw {
        /// Ids to retract (always previously arrived, never repeated).
        ids: Vec<FlexOfferId>,
    },
    /// Midnight: the planning window rolls one day forward.
    AdvanceDay,
    /// The writer freezes the pending deltas into the next epoch.
    Publish,
}

/// Shape of an ingest trace; `Default` is the CI smoke configuration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct IngestTraceConfig {
    /// Days of arrivals to stream.
    pub days: usize,
    /// Arrival batches per day (each followed by a possible withdrawal
    /// batch; every batch group ends in a publish).
    pub batches_per_day: usize,
    /// Fraction of each day's arrivals withdrawn again, in `[0, 1]`.
    pub withdraw_fraction: f64,
    /// Master seed (also seeds the per-day offer generation).
    pub seed: u64,
}

impl Default for IngestTraceConfig {
    fn default() -> Self {
        IngestTraceConfig { days: 2, batches_per_day: 4, withdraw_fraction: 0.15, seed: 0x1462 }
    }
}

/// Generates a deterministic ingest trace for `population`.
///
/// Day `d` starts with an [`IngestEvent::AdvanceDay`] (except day 0,
/// whose window the initial load already covers), then streams that
/// day's offers in `batches_per_day` arrival batches. After each
/// arrival batch, a seeded subset of the *still-live* arrivals is
/// withdrawn again, and the batch group closes with an
/// [`IngestEvent::Publish`] — so every publish freezes a
/// mixed arrival/withdrawal storm, which is exactly the shape that
/// tears a non-epochal cache.
///
/// Offer ids are disjoint from any id the initial `Warehouse::load`
/// produced for the same population when `first_id` starts above them.
pub fn generate_ingest_trace(
    population: &Population,
    config: &IngestTraceConfig,
    first_id: u64,
    window_start: TimeSlot,
) -> Vec<IngestEvent> {
    let mut rng = StdRng::seed_from_u64(config.seed ^ 0xA11C_E5ED_F00D_u64);
    let mut events = Vec::new();
    let mut next_id = first_id;
    for day in 0..config.days.max(1) {
        if day > 0 {
            events.push(IngestEvent::AdvanceDay);
        }
        // One day of offers, re-identified into the trace's id space.
        let day_cfg = OfferConfig {
            window_start: window_start + SlotSpan::days(day as i64),
            days: 1,
            seed: config.seed.wrapping_mul(0x9E37_79B9_7F4A_7C15).wrapping_add(day as u64),
        };
        let mut day_offers: Vec<FlexOffer> = generate_offers(population, &day_cfg)
            .into_iter()
            .map(|fo| {
                let id = next_id;
                next_id += 1;
                fo.with_id(FlexOfferId(id))
            })
            .collect();

        let batches = config.batches_per_day.max(1);
        let per_batch = day_offers.len().div_ceil(batches).max(1);
        let mut live_today: Vec<FlexOfferId> = Vec::new();
        while !day_offers.is_empty() {
            let take = per_batch.min(day_offers.len());
            let batch: Vec<FlexOffer> = day_offers.drain(..take).collect();
            live_today.extend(batch.iter().map(FlexOffer::id));
            events.push(IngestEvent::Arrive { offers: batch });

            // A seeded slice of today's live offers is retracted.
            let want = (take as f64 * config.withdraw_fraction.clamp(0.0, 1.0)).round() as usize;
            let mut ids = Vec::with_capacity(want);
            for _ in 0..want.min(live_today.len()) {
                let idx = rng.gen_range(0..live_today.len());
                ids.push(live_today.swap_remove(idx));
            }
            if !ids.is_empty() {
                events.push(IngestEvent::Withdraw { ids });
            }
            events.push(IngestEvent::Publish);
        }
    }
    events
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::population::PopulationConfig;
    use std::collections::HashSet;

    fn pop() -> Population {
        Population::generate(&PopulationConfig { size: 50, seed: 3, household_share: 0.8 })
    }

    #[test]
    fn traces_are_deterministic() {
        let p = pop();
        let cfg = IngestTraceConfig::default();
        let a = generate_ingest_trace(&p, &cfg, 10_000, TimeSlot::EPOCH);
        let b = generate_ingest_trace(&p, &cfg, 10_000, TimeSlot::EPOCH);
        assert_eq!(a, b);
        let c = generate_ingest_trace(
            &p,
            &IngestTraceConfig { seed: 9, ..cfg },
            10_000,
            TimeSlot::EPOCH,
        );
        assert_ne!(a, c);
    }

    #[test]
    fn ids_are_unique_and_start_at_first_id() {
        let p = pop();
        let events =
            generate_ingest_trace(&p, &IngestTraceConfig::default(), 5_000, TimeSlot::EPOCH);
        let mut seen = HashSet::new();
        for e in &events {
            if let IngestEvent::Arrive { offers } = e {
                for fo in offers {
                    assert!(fo.id().raw() >= 5_000);
                    assert!(seen.insert(fo.id()), "duplicate id {:?}", fo.id());
                }
            }
        }
        assert!(!seen.is_empty());
    }

    #[test]
    fn withdrawals_reference_live_arrivals_exactly_once() {
        let p = pop();
        let events = generate_ingest_trace(&p, &IngestTraceConfig::default(), 1, TimeSlot::EPOCH);
        let mut arrived = HashSet::new();
        let mut withdrawn = HashSet::new();
        for e in &events {
            match e {
                IngestEvent::Arrive { offers } => {
                    arrived.extend(offers.iter().map(FlexOffer::id));
                }
                IngestEvent::Withdraw { ids } => {
                    for id in ids {
                        assert!(arrived.contains(id), "withdrawal of a never-arrived id");
                        assert!(withdrawn.insert(*id), "double withdrawal");
                    }
                }
                _ => {}
            }
        }
        assert!(!withdrawn.is_empty());
        assert!(withdrawn.len() < arrived.len());
    }

    #[test]
    fn day_structure_matches_config() {
        let p = pop();
        let cfg = IngestTraceConfig { days: 3, batches_per_day: 2, ..Default::default() };
        let events = generate_ingest_trace(&p, &cfg, 1, TimeSlot::EPOCH);
        let count = |wanted: &IngestEvent| events.iter().filter(|e| *e == wanted).count();
        assert_eq!(count(&IngestEvent::AdvanceDay), 2); // day 0 needs no tick
        assert!(count(&IngestEvent::Publish) >= 3 * 2);
        // Every publish is preceded by at least one arrival since the
        // previous publish.
        let mut pending = 0usize;
        for e in &events {
            match e {
                IngestEvent::Arrive { offers } => pending += offers.len(),
                IngestEvent::Publish => {
                    assert!(pending > 0, "publish without pending deltas");
                    pending = 0;
                }
                _ => {}
            }
        }
    }

    #[test]
    fn arrivals_fall_on_their_day() {
        let p = pop();
        let cfg = IngestTraceConfig { days: 2, ..Default::default() };
        let events = generate_ingest_trace(&p, &cfg, 1, TimeSlot::EPOCH);
        let mut day = 0i64;
        for e in &events {
            match e {
                IngestEvent::AdvanceDay => day += 1,
                IngestEvent::Arrive { offers } => {
                    for fo in offers {
                        let d = fo.earliest_start().index().div_euclid(96);
                        assert_eq!(d, day, "offer {fo} arrived on the wrong day");
                    }
                }
                _ => {}
            }
        }
        assert_eq!(day, 1);
    }
}
