//! Flex-offer generation from appliance archetypes.

use mirabel_flexoffer::{
    ApplianceType, Direction, Energy, EnergyType, FlexOffer, FlexOfferId, Money,
};
use mirabel_timeseries::{SlotSpan, TimeSlot, SLOTS_PER_DAY};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::population::{Population, Prosumer};

/// Parameters for flex-offer generation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OfferConfig {
    /// First slot of the generation window (midnight of day one).
    pub window_start: TimeSlot,
    /// Number of days to generate offers for.
    pub days: usize,
    /// RNG seed.
    pub seed: u64,
}

impl Default for OfferConfig {
    fn default() -> Self {
        OfferConfig { window_start: TimeSlot::EPOCH, days: 1, seed: 0x0F_FE_12 }
    }
}

/// Generates flex-offers for every prosumer and day, drawing one offer
/// per appliance per day with archetype-specific placement, profile and
/// flexibility distributions. Ids are dense starting at 1.
pub fn generate_offers(population: &Population, config: &OfferConfig) -> Vec<FlexOffer> {
    let mut rng = StdRng::seed_from_u64(config.seed);
    let mut offers = Vec::new();
    let mut next_id = 1u64;
    for day in 0..config.days {
        let midnight = config.window_start + SlotSpan::days(day as i64);
        for prosumer in population.prosumers() {
            for &appliance in &prosumer.appliances {
                if let Some(offer) =
                    archetype_offer(&mut rng, next_id, prosumer, appliance, midnight)
                {
                    offers.push(offer);
                    next_id += 1;
                }
            }
        }
    }
    offers
}

/// Generates exactly `count` accepted flex-offers for the day starting
/// at `window_start`, ids `first_id..first_id + count` — the fixed-size
/// pool the planning bench needs (the per-population generators yield
/// however many the appliance portfolios produce; this helper loops
/// them with distinct seeds until the pool is full).
pub fn generate_offer_pool(
    population: &Population,
    count: usize,
    seed: u64,
    window_start: TimeSlot,
) -> Vec<FlexOffer> {
    let mut pool = Vec::with_capacity(count);
    let mut round = 0u64;
    while pool.len() < count {
        let batch = generate_offers(
            population,
            &OfferConfig {
                window_start,
                days: 1,
                seed: seed.wrapping_mul(0x9E37_79B9_7F4A_7C15).wrapping_add(round),
            },
        );
        assert!(!batch.is_empty(), "a population must generate offers");
        for fo in batch {
            if pool.len() >= count {
                break;
            }
            let id = first_pool_id(seed) + pool.len() as u64;
            let mut fo = fo.with_id(FlexOfferId(id));
            fo.accept().expect("generated offers are Offered");
            pool.push(fo);
        }
        round += 1;
    }
    pool
}

/// First id [`generate_offer_pool`] assigns for `seed`.
fn first_pool_id(seed: u64) -> u64 {
    1_000_000 + (seed % 1_000) * 100_000
}

/// Draws one offer for `appliance` on the day starting at `midnight`.
/// Returns `None` when the appliance skips the day (e.g. a washing
/// machine not used daily).
fn archetype_offer(
    rng: &mut StdRng,
    id: u64,
    prosumer: &Prosumer,
    appliance: ApplianceType,
    midnight: TimeSlot,
) -> Option<FlexOffer> {
    // (skip probability, earliest-start hour range, time flexibility slot
    // range, profile slot range, per-slot max Wh range, min/max ratio).
    let spec = match appliance {
        // The paper's running example: charge an EV battery at any time
        // over a night.
        ApplianceType::ElectricVehicle => (0.15, (20, 23), (8, 20), (8, 16), (1_500, 2_500), 0.0),
        ApplianceType::HeatPump => (0.05, (5, 20), (2, 8), (2, 6), (300, 700), 0.3),
        ApplianceType::Dishwasher => (0.35, (18, 22), (4, 24), (4, 8), (250, 450), 0.6),
        ApplianceType::WashingMachine => (0.45, (7, 19), (4, 16), (4, 8), (300, 500), 0.6),
        ApplianceType::Battery => (0.25, (0, 20), (8, 24), (4, 8), (1_000, 1_800), 0.0),
        ApplianceType::IndustrialProcess => (0.10, (6, 14), (0, 8), (8, 32), (10_000, 50_000), 0.5),
        ApplianceType::WindTurbine => (0.05, (0, 12), (0, 2), (12, 24), (5_000, 40_000), 0.85),
        ApplianceType::SolarPanel => (0.05, (8, 11), (0, 2), (16, 28), (3_000, 20_000), 0.85),
        ApplianceType::HydroGenerator => (0.10, (0, 12), (2, 8), (12, 24), (20_000, 60_000), 0.7),
        ApplianceType::Other => (0.5, (0, 20), (0, 8), (1, 4), (100, 400), 0.5),
    };
    let (skip, (h_lo, h_hi), (tf_lo, tf_hi), (len_lo, len_hi), (wh_lo, wh_hi), min_ratio) = spec;
    if rng.gen_bool(skip) {
        return None;
    }

    let hour = rng.gen_range(h_lo..=h_hi);
    let quarter = rng.gen_range(0..4);
    let earliest = midnight + SlotSpan::slots(hour * 4 + quarter);
    let tf = rng.gen_range(tf_lo..=tf_hi);
    let len = rng.gen_range(len_lo..=len_hi).min(SLOTS_PER_DAY as usize);
    let direction =
        if appliance.is_generator() { Direction::Production } else { Direction::Consumption };
    let energy_type = match appliance {
        ApplianceType::WindTurbine => EnergyType::Wind,
        ApplianceType::SolarPanel => EnergyType::Solar,
        ApplianceType::HydroGenerator => EnergyType::Hydro,
        _ => EnergyType::Mixed,
    };
    let price = Money::from_cents(rng.gen_range(3..30));

    let mut builder = FlexOffer::builder(id, prosumer.id)
        .direction(direction)
        .earliest_start(earliest)
        .latest_start(earliest + SlotSpan::slots(tf))
        .creation_time(earliest - SlotSpan::hours(6))
        .acceptance_deadline(earliest - SlotSpan::hours(3))
        .assignment_deadline(earliest - SlotSpan::hours(1))
        .energy_type(energy_type)
        .prosumer_type(prosumer.prosumer_type)
        .appliance_type(appliance)
        .price_per_kwh(price);
    for i in 0..len {
        let mut max_wh = rng.gen_range(wh_lo..=wh_hi);
        // Solar profiles ramp up and down over the window.
        if appliance == ApplianceType::SolarPanel {
            let t = (i as f64 + 0.5) / len as f64;
            let bell = (std::f64::consts::PI * t).sin();
            max_wh = (max_wh as f64 * bell).max(1.0) as i64;
        }
        let min_wh = (max_wh as f64 * min_ratio) as i64;
        builder = builder.slice(Energy::from_wh(min_wh), Energy::from_wh(max_wh));
    }
    Some(builder.build().expect("archetype parameters are always valid"))
}

/// Summary statistics over a generated offer set (used by tests and
/// examples).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OfferStats {
    /// Number of offers.
    pub count: usize,
    /// Consumption offers.
    pub consumption: usize,
    /// Production offers.
    pub production: usize,
    /// Mean time flexibility in slots.
    pub mean_time_flexibility: f64,
    /// Mean profile length in slots.
    pub mean_profile_len: f64,
    /// Total maximum energy in kWh.
    pub total_max_kwh: f64,
}

impl OfferStats {
    /// Computes statistics over `offers`.
    pub fn of(offers: &[FlexOffer]) -> OfferStats {
        let count = offers.len();
        let consumption = offers.iter().filter(|o| o.direction() == Direction::Consumption).count();
        let sum_tf: i64 = offers.iter().map(|o| o.time_flexibility().count()).sum();
        let sum_len: usize = offers.iter().map(|o| o.profile().len()).sum();
        let total_max_kwh: f64 = offers.iter().map(|o| o.total_max_energy().kwh()).sum();
        OfferStats {
            count,
            consumption,
            production: count - consumption,
            mean_time_flexibility: if count == 0 { 0.0 } else { sum_tf as f64 / count as f64 },
            mean_profile_len: if count == 0 { 0.0 } else { sum_len as f64 / count as f64 },
            total_max_kwh,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::population::PopulationConfig;

    fn small_population() -> Population {
        Population::generate(&PopulationConfig { size: 120, seed: 11, household_share: 0.8 })
    }

    #[test]
    fn pool_has_exact_count_sequential_ids_accepted() {
        let p = Population::generate(&PopulationConfig { size: 40, seed: 9, household_share: 0.8 });
        let pool = generate_offer_pool(&p, 137, 5, TimeSlot::EPOCH);
        assert_eq!(pool.len(), 137);
        let first = first_pool_id(5);
        for (i, fo) in pool.iter().enumerate() {
            assert_eq!(fo.id().raw(), first + i as u64);
            assert_eq!(fo.status(), mirabel_flexoffer::OfferState::Accepted);
            assert!(fo.earliest_start() >= TimeSlot::EPOCH);
        }
        // Deterministic.
        assert_eq!(pool, generate_offer_pool(&p, 137, 5, TimeSlot::EPOCH));
    }

    #[test]
    fn generation_is_deterministic() {
        let pop = small_population();
        let cfg = OfferConfig::default();
        let a = generate_offers(&pop, &cfg);
        let b = generate_offers(&pop, &cfg);
        assert_eq!(a, b);
        assert!(!a.is_empty());
    }

    #[test]
    fn ids_are_dense_and_unique() {
        let pop = small_population();
        let offers = generate_offers(&pop, &OfferConfig::default());
        for (i, fo) in offers.iter().enumerate() {
            assert_eq!(fo.id().raw(), i as u64 + 1);
        }
    }

    #[test]
    fn offers_reference_known_prosumers() {
        let pop = small_population();
        let offers = generate_offers(&pop, &OfferConfig::default());
        for fo in &offers {
            let p = pop.prosumer(fo.prosumer()).expect("prosumer exists");
            assert!(p.appliances.contains(&fo.appliance_type()));
            assert_eq!(p.prosumer_type, fo.prosumer_type());
        }
    }

    #[test]
    fn directions_match_appliances() {
        let pop = small_population();
        let offers = generate_offers(&pop, &OfferConfig::default());
        for fo in &offers {
            if fo.appliance_type().is_generator() {
                assert_eq!(fo.direction(), Direction::Production);
            } else {
                assert_eq!(fo.direction(), Direction::Consumption);
            }
        }
    }

    #[test]
    fn offers_stay_within_their_day_window() {
        let pop = small_population();
        let cfg = OfferConfig { days: 3, ..Default::default() };
        let offers = generate_offers(&pop, &cfg);
        let window_end = cfg.window_start + SlotSpan::days(cfg.days as i64) + SlotSpan::days(2);
        for fo in &offers {
            assert!(fo.earliest_start() >= cfg.window_start);
            // Latest end may run into the following night but not beyond.
            assert!(fo.latest_end() < window_end, "{}", fo);
        }
    }

    #[test]
    fn ev_offers_are_nightly_with_large_flexibility() {
        let pop = small_population();
        let offers = generate_offers(&pop, &OfferConfig::default());
        let evs: Vec<&FlexOffer> = offers
            .iter()
            .filter(|o| o.appliance_type() == ApplianceType::ElectricVehicle)
            .collect();
        assert!(!evs.is_empty());
        for ev in evs {
            assert!(ev.earliest_start().hour_of_day() >= 20);
            assert!(ev.time_flexibility().count() >= 8);
        }
    }

    #[test]
    fn multi_day_generation_scales() {
        let pop = small_population();
        let one = generate_offers(&pop, &OfferConfig { days: 1, ..Default::default() });
        let three = generate_offers(&pop, &OfferConfig { days: 3, ..Default::default() });
        assert!(three.len() > 2 * one.len());
    }

    #[test]
    fn stats_are_consistent() {
        let pop = small_population();
        let offers = generate_offers(&pop, &OfferConfig::default());
        let stats = OfferStats::of(&offers);
        assert_eq!(stats.count, offers.len());
        assert_eq!(stats.consumption + stats.production, stats.count);
        assert!(stats.mean_time_flexibility > 0.0);
        assert!(stats.mean_profile_len >= 1.0);
        assert!(stats.total_max_kwh > 0.0);
        assert_eq!(OfferStats::of(&[]).count, 0);
    }
}
