//! The live-warehouse ingest stress harness.
//!
//! Replays a seeded [`mirabel_workload::ingest`] trace — arrival
//! batches, withdrawal storms, day ticks, publish points — against a
//! [`LiveWarehouse`] feeding a [`ConcurrentPool`] of analyst sessions,
//! at several reader thread counts, and reports:
//!
//! * **publish latency** (ms, p50/p99/max): how long freezing an epoch
//!   takes while readers keep hammering the pool, plus a dedicated
//!   1 000-offer-batch publish probe for the CI gate;
//! * **frame-hash stability**: after every epoch, each reader session's
//!   frame hashes are recorded; the same (epoch, user) must hash
//!   identically at every thread count, proving no reader ever observed
//!   a torn epoch;
//! * **throughput**: offers ingested per second on the writer side and
//!   commands per second on the reader side.
//!
//! Everything is deterministic in the config seed; threads only change
//! which OS thread delivers a command. The `ingest` binary wraps this
//! module for CI (`cargo run --release -p mirabel-bench --bin ingest`).

use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::Instant;

use mirabel_dw::{LiveWarehouse, LoaderQuery};
use mirabel_session::{Command, ConcurrentPool, SessionId};
use mirabel_timeseries::TimeSlot;
use mirabel_viz::Point;
use mirabel_workload::{
    generate_ingest_trace, generate_offers, IngestEvent, IngestTraceConfig, IngestTraceStats,
    OfferConfig, Population, PopulationConfig,
};

use crate::diff::{Bound, Gate, Json};

/// The ingest gate table (see [`crate::diff`]). The 100 ms bounds are
/// the interactive wall every publish probe is held to, the bulk one at
/// 100 k offers in PR CI and 10 M nightly; reader throughput and
/// publish tails are reported, not gated.
pub const GATES: &[Gate] = &[
    Gate::holds("hash_stable"),
    Gate::bound("publish_1k_ms", Bound::Fixed(100.0)),
    Gate::bound("publish_bulk_ms", Bound::Fixed(100.0)),
    Gate::bound("publish_bulk_delta_ms", Bound::Fixed(100.0)),
];

/// Canvas the simulated analysts work on.
const CANVAS: (f64, f64) = (960.0, 540.0);

/// Shape of one ingest stress run; `Default` is the CI smoke
/// configuration.
#[derive(Debug, Clone, PartialEq)]
pub struct IngestConfig {
    /// Concurrent reader sessions (K).
    pub readers: usize,
    /// Reader commands per session per epoch.
    pub commands_per_epoch: usize,
    /// Reader thread counts to replay at.
    pub threads: Vec<usize>,
    /// Prosumers in the population.
    pub prosumers: usize,
    /// Days of arrivals streamed after the initial load.
    pub days: usize,
    /// Arrival batches per day.
    pub batches_per_day: usize,
    /// Fraction of each day's arrivals withdrawn again.
    pub withdraw_fraction: f64,
    /// Master seed.
    pub seed: u64,
    /// Measurement rounds per thread count. Throughput reports the
    /// best round (best-of-N noise damping); the publish p99 is the
    /// trimmed tail mean across rounds
    /// ([`crate::trimmed_tail_mean`]). Epoch-hash stability is checked
    /// on *every* round.
    pub repeats: usize,
    /// Offers in the bulk-ingest publish probe ([`publish_bulk_probe`]).
    /// The CI smoke default is 100 000; the nightly job raises it to the
    /// acceptance-criteria 10 000 000 (`--bulk-offers`). The gated
    /// number — `publish_bulk_ms` — must stay flat across that factor of
    /// 100, because publish is an O(1) Arc swap over the copy-on-write
    /// columns, never a row copy.
    pub bulk_offers: usize,
}

impl Default for IngestConfig {
    fn default() -> Self {
        IngestConfig {
            readers: 4,
            commands_per_epoch: 24,
            threads: vec![1, 2, 4, 8],
            prosumers: 150,
            days: 2,
            batches_per_day: 4,
            withdraw_fraction: 0.15,
            seed: 0x11FE57,
            repeats: 3,
            bulk_offers: 100_000,
        }
    }
}

/// Measured results of one reader thread count.
#[derive(Debug, Clone, PartialEq)]
struct IngestRunStats {
    /// Reader OS threads driving the pool.
    pub threads: usize,
    /// Epochs published during the run.
    pub epochs: u64,
    /// Median publish latency, milliseconds (best round).
    pub publish_p50_ms: f64,
    /// 99th-percentile publish latency, milliseconds — the trimmed
    /// tail mean across the config's repeat rounds (see
    /// [`crate::trimmed_tail_mean`]).
    pub publish_p99_ms: f64,
    /// Worst publish latency, milliseconds.
    pub publish_max_ms: f64,
    /// Writer-side ingest throughput, offers per second (time spent
    /// inside ingest/withdraw/publish calls only).
    pub ingest_offers_per_s: f64,
    /// Reader-side command throughput over the whole run.
    pub reader_commands_per_s: f64,
    /// Wall-clock duration of the run, seconds.
    pub wall_s: f64,
}

/// Deterministic reader command `j` for `user` during `epoch` — a
/// hover/click/render mix over the live tab, identical at every thread
/// count by construction.
fn reader_command(user: usize, epoch: u64, j: usize) -> Command {
    let frac = |a: usize, b: usize| ((a * 37 + b * 53 + 11) % 100) as f64 / 100.0;
    let p = Point::new(
        frac(j + user, epoch as usize) * CANVAS.0,
        frac(j, user + epoch as usize) * CANVAS.1,
    );
    match j % 5 {
        0 => Command::Render,
        1 | 2 => Command::PointerMove(p),
        3 => Command::Click(p),
        _ => Command::Render,
    }
}

/// Per-epoch observable state: epoch → per-reader frame hashes.
type EpochHashes = BTreeMap<u64, Vec<Vec<u64>>>;

/// The fixture both the harness and its tests use: a population, its
/// epoch-0 offers, and the ingest trace streaming `config.days` more.
fn fixture(
    config: &IngestConfig,
) -> (Population, Vec<mirabel_flexoffer::FlexOffer>, Vec<IngestEvent>) {
    let population = Population::generate(&PopulationConfig {
        size: config.prosumers,
        seed: config.seed ^ 0xBE9C,
        household_share: 0.8,
    });
    let initial = generate_offers(
        &population,
        &OfferConfig { days: 1, seed: config.seed, ..Default::default() },
    );
    let trace = generate_ingest_trace(
        &population,
        &IngestTraceConfig {
            days: config.days.max(1),
            batches_per_day: config.batches_per_day.max(1),
            withdraw_fraction: config.withdraw_fraction,
            seed: config.seed,
        },
        initial.len() as u64 + 1,
        TimeSlot::EPOCH + mirabel_timeseries::SlotSpan::days(1),
    );
    (population, initial, trace)
}

/// One full replay at `threads` reader threads. Returns the run stats
/// and the per-epoch frame hashes.
fn replay(
    population: &Population,
    initial: &[mirabel_flexoffer::FlexOffer],
    trace: &[IngestEvent],
    config: &IngestConfig,
    threads: usize,
) -> (IngestRunStats, EpochHashes) {
    let live = LiveWarehouse::new(population.clone(), initial);
    let pool = ConcurrentPool::new(Arc::clone(live.snapshot().warehouse()));
    let window = LoaderQuery::builder()
        .window(
            TimeSlot::EPOCH,
            TimeSlot::EPOCH + mirabel_timeseries::SlotSpan::days(config.days as i64 + 3),
        )
        .build();
    let ids: Vec<SessionId> = (0..config.readers.max(1)).map(|_| pool.open()).collect();
    for (u, &id) in ids.iter().enumerate() {
        pool.apply(id, Command::SetCanvas { width: CANVAS.0, height: CANVAS.1 });
        pool.apply(id, Command::Load { query: window, title: format!("reader {u}") });
    }

    let started = Instant::now();
    let mut publish_ns: Vec<u64> = Vec::new();
    let mut ingest_ns: u64 = 0;
    let mut ingested: u64 = 0;
    let mut commands: u64 = 0;
    let mut hashes = EpochHashes::new();

    for event in trace {
        match event {
            IngestEvent::Arrive { offers } => {
                let t0 = Instant::now();
                let out = live.ingest(offers);
                ingest_ns += t0.elapsed().as_nanos() as u64;
                ingested += out.ingested as u64;
            }
            IngestEvent::Withdraw { ids } => {
                let t0 = Instant::now();
                live.withdraw(ids);
                ingest_ns += t0.elapsed().as_nanos() as u64;
            }
            IngestEvent::AdvanceDay => {
                live.advance_day();
            }
            IngestEvent::Publish => {
                let t0 = Instant::now();
                let snapshot = live.publish();
                let epoch = pool.publish(&snapshot);
                publish_ns.push(t0.elapsed().as_nanos() as u64);
                mirabel_dw::LiveWarehouse::validate_snapshot(&snapshot);

                // One reader round per epoch: every session replays its
                // per-epoch command slice, partitioned over `threads`.
                std::thread::scope(|scope| {
                    for t in 0..threads.max(1) {
                        let pool = &pool;
                        let ids = &ids;
                        scope.spawn(move || {
                            for (u, &id) in ids.iter().enumerate() {
                                if u % threads.max(1) != t {
                                    continue;
                                }
                                for j in 0..config.commands_per_epoch {
                                    let outcome = pool.apply(id, reader_command(u, epoch, j));
                                    assert!(outcome.is_some(), "reader session vanished");
                                }
                            }
                        });
                    }
                });
                commands += (ids.len() * config.commands_per_epoch) as u64;

                let per_user: Vec<Vec<u64>> = ids
                    .iter()
                    .map(|&id| pool.with_session(id, |s| s.frame_hashes()).expect("open"))
                    .collect();
                hashes.insert(epoch, per_user);
            }
        }
    }
    let wall_s = started.elapsed().as_secs_f64();

    publish_ns.sort_unstable();
    let pct = |p: f64| -> f64 {
        if publish_ns.is_empty() {
            return 0.0;
        }
        let idx = ((publish_ns.len() - 1) as f64 * p).round() as usize;
        publish_ns[idx] as f64 / 1_000_000.0
    };
    let run = IngestRunStats {
        threads,
        epochs: publish_ns.len() as u64,
        publish_p50_ms: pct(0.50),
        publish_p99_ms: pct(0.99),
        publish_max_ms: pct(1.0),
        ingest_offers_per_s: if ingest_ns == 0 {
            0.0
        } else {
            ingested as f64 / (ingest_ns as f64 / 1e9)
        },
        reader_commands_per_s: commands as f64 / wall_s,
        wall_s,
    };
    (run, hashes)
}

/// Measures one 1 000-offer ingest batch publish, in milliseconds — the
/// acceptance-criteria probe, isolated from the trace replay.
pub fn publish_1k_probe(seed: u64) -> f64 {
    let population =
        Population::generate(&PopulationConfig { size: 500, seed, household_share: 0.8 });
    let initial =
        generate_offers(&population, &OfferConfig { days: 1, seed, ..Default::default() });
    let batch: Vec<mirabel_flexoffer::FlexOffer> = generate_offers(
        &population,
        &OfferConfig {
            days: 1,
            seed: seed ^ 1,
            window_start: TimeSlot::EPOCH + mirabel_timeseries::SlotSpan::days(1),
        },
    )
    .into_iter()
    .take(1_000)
    .enumerate()
    .map(|(i, fo)| fo.with_id(mirabel_flexoffer::FlexOfferId(1_000_000 + i as u64)))
    .collect();
    let live = LiveWarehouse::new(population, &initial);
    let out = live.ingest(&batch);
    assert_eq!(out.ingested, batch.len(), "probe batch must ingest whole");
    let t0 = Instant::now();
    let snapshot = live.publish();
    let ms = t0.elapsed().as_secs_f64() * 1_000.0;
    assert_eq!(snapshot.epoch(), 1);
    ms
}

/// Measured results of the bulk-ingest publish probe
/// ([`publish_bulk_probe`]).
#[derive(Debug, Clone, PartialEq)]
pub struct BulkProbe {
    /// Offers resident in the warehouse when publish was measured.
    pub offers: usize,
    /// Wall-clock of bulk-ingesting them (chunked), milliseconds —
    /// reported for context, not gated (it is honestly O(rows)).
    pub ingest_ms: f64,
    /// Publishing the epoch that exposes all `offers` rows,
    /// milliseconds — **the acceptance gate** (< 100 ms at 10 M): the
    /// copy-on-write columns make publish an Arc swap, O(1) in rows.
    pub publish_ms: f64,
    /// Publishing a second epoch after a single-offer delta,
    /// milliseconds. The delta ingest pays the one CoW column copy
    /// (the snapshot still holds the old Arc); the publish itself must
    /// stay O(1) again.
    pub delta_publish_ms: f64,
}

/// Bulk-scale probe: synthesizes `offers` flex-offers over a fixed
/// population, bulk-ingests them, and measures epoch publish latency at
/// that scale (plus a re-publish after a one-offer delta). Offers are
/// built directly — one day of earliest-starts, two slices each — so a
/// 10 M run spends its time in the warehouse, not the workload
/// generator.
pub fn publish_bulk_probe(offers: usize, seed: u64) -> BulkProbe {
    use mirabel_flexoffer::{Energy, FlexOffer, FlexOfferId};

    let population =
        Population::generate(&PopulationConfig { size: 1_000, seed, household_share: 0.8 });
    let prosumers: Vec<mirabel_flexoffer::ProsumerId> =
        population.prosumers().iter().map(|p| p.id).collect();
    let day = TimeSlot::EPOCH + mirabel_timeseries::SlotSpan::days(1);
    let build = |i: usize| -> FlexOffer {
        let est = day + mirabel_timeseries::SlotSpan::slots((i % 90) as i64);
        FlexOffer::builder(FlexOfferId(10_000_000 + i as u64), prosumers[i % prosumers.len()])
            .earliest_start(est)
            .latest_start(est + mirabel_timeseries::SlotSpan::slots((i % 5) as i64))
            .slices(2, Energy::from_wh(0), Energy::from_wh(500 + (i % 7) as i64 * 100))
            .build()
            .expect("probe offers are well-formed")
    };

    // Seed the warehouse with one offer (fixes the day window), then
    // stream the bulk in chunks so peak memory is one chunk, not 2×N.
    let live = LiveWarehouse::new(population, std::slice::from_ref(&build(0)));
    const CHUNK: usize = 100_000;
    let mut ingest_ms = 0.0;
    let mut ingested = 1usize;
    let mut next = 1usize;
    while next < offers {
        let chunk: Vec<FlexOffer> = (next..offers.min(next + CHUNK)).map(build).collect();
        next += chunk.len();
        let t0 = Instant::now();
        let out = live.ingest(&chunk);
        ingest_ms += t0.elapsed().as_secs_f64() * 1_000.0;
        ingested += out.ingested;
    }
    assert_eq!(ingested, offers, "probe offers must ingest whole");

    let t0 = Instant::now();
    let snapshot = live.publish();
    let publish_ms = t0.elapsed().as_secs_f64() * 1_000.0;
    assert_eq!(snapshot.warehouse().columns().len(), offers, "all rows must be visible");

    // One-offer delta: the ingest pays the CoW copy (the snapshot pins
    // the previous columns), the publish must stay O(1).
    let one = build(offers).with_id(FlexOfferId(99_999_999));
    assert_eq!(live.ingest(std::slice::from_ref(&one)).ingested, 1);
    let t0 = Instant::now();
    let second = live.publish();
    let delta_publish_ms = t0.elapsed().as_secs_f64() * 1_000.0;
    assert_eq!(second.warehouse().columns().len(), offers + 1);

    BulkProbe { offers, ingest_ms, publish_ms, delta_publish_ms }
}

/// Runs the full harness: replays the same seeded ingest trace at every
/// configured reader thread count, cross-checks per-epoch frame hashes,
/// and runs both publish probes; returns the `BENCH_ingest.json` report.
pub fn run_ingest(config: &IngestConfig) -> Json {
    let (population, initial, trace) = fixture(config);
    let stats = IngestTraceStats::of(&trace);

    let mut runs = Vec::new();
    let mut reference: Option<EpochHashes> = None;
    let mut hash_stable = true;
    for &threads in &config.threads {
        // Best-of-N per thread count for throughput (damps
        // noisy-neighbor variance on shared CI runners); the publish
        // p99 is the trimmed tail mean across rounds.
        // Epoch-hash stability is asserted on every round, not just
        // the kept one.
        let mut best: Option<IngestRunStats> = None;
        let mut round_p99s = Vec::with_capacity(config.repeats.max(1));
        for _ in 0..config.repeats.max(1) {
            let (round, hashes) = replay(&population, &initial, &trace, config, threads.max(1));
            match &reference {
                None => reference = Some(hashes),
                Some(r) => hash_stable &= *r == hashes,
            }
            round_p99s.push(round.publish_p99_ms);
            if best.as_ref().is_none_or(|b| round.reader_commands_per_s > b.reader_commands_per_s) {
                best = Some(round);
            }
        }
        let mut best = best.expect("repeats >= 1");
        best.publish_p99_ms = crate::trimmed_tail_mean(&round_p99s);
        runs.push(best);
    }

    let runs = runs.iter().map(|r| {
        Json::obj([
            ("threads", r.threads.into()),
            ("epochs", r.epochs.into()),
            ("publish_p50_ms", Json::Num(r.publish_p50_ms)),
            ("publish_p99_ms", Json::Num(r.publish_p99_ms)),
            ("publish_max_ms", Json::Num(r.publish_max_ms)),
            ("ingest_offers_per_s", Json::Num(r.ingest_offers_per_s)),
            ("reader_commands_per_s", Json::Num(r.reader_commands_per_s)),
            ("wall_s", Json::Num(r.wall_s)),
        ])
    });
    let publish_1k_ms = publish_1k_probe(config.seed);
    let bulk = publish_bulk_probe(config.bulk_offers.max(1), config.seed);
    Json::obj([
        ("bench", "ingest".into()),
        ("readers", config.readers.into()),
        ("commands_per_epoch", config.commands_per_epoch.into()),
        ("prosumers", config.prosumers.into()),
        ("days", config.days.into()),
        ("seed", config.seed.into()),
        ("repeats", config.repeats.max(1).into()),
        ("initial_offers", initial.len().into()),
        ("arrivals", stats.arrivals.into()),
        ("withdrawals", stats.withdrawals.into()),
        ("available_parallelism", crate::available_parallelism().into()),
        // Every (epoch, reader) frame-hash vector was identical across
        // all thread counts: no reader ever saw a torn epoch.
        ("hash_stable", hash_stable.into()),
        ("publish_1k_ms", Json::Num(publish_1k_ms)),
        ("bulk_offers", bulk.offers.into()),
        ("bulk_ingest_ms", Json::Num(bulk.ingest_ms)),
        ("publish_bulk_ms", Json::Num(bulk.publish_ms)),
        ("publish_bulk_delta_ms", Json::Num(bulk.delta_publish_ms)),
        ("runs", Json::Arr(runs.collect())),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> IngestConfig {
        IngestConfig {
            readers: 3,
            commands_per_epoch: 10,
            threads: vec![1, 2],
            prosumers: 40,
            days: 1,
            batches_per_day: 3,
            withdraw_fraction: 0.2,
            seed: 11,
            repeats: 1,
            bulk_offers: 2_000,
        }
    }

    #[test]
    fn per_epoch_hashes_are_stable_across_thread_counts() {
        let report = run_ingest(&tiny());
        assert!(report.is_true("hash_stable"), "a reader observed a torn epoch");
        let runs = report.get("runs").and_then(Json::arr).unwrap();
        assert_eq!(runs.len(), 2);
        for r in runs {
            let num = |key| r.num_at(&[key]).unwrap();
            assert!(num("epochs") >= 3.0, "{r:?}");
            assert!(num("publish_p99_ms") >= num("publish_p50_ms"));
            assert!(num("publish_max_ms") >= num("publish_p99_ms"));
            assert!(num("reader_commands_per_s") > 0.0);
        }
        assert!(report.num_at(&["arrivals"]) > Some(0.0));
        assert!(report.num_at(&["withdrawals"]) > Some(0.0));
        crate::diff::assert_binary_rows_resolve(GATES, &report);
    }

    #[test]
    fn readers_see_every_arrival_by_the_final_epoch() {
        let config = tiny();
        let (population, initial, trace) = fixture(&config);
        let (run, hashes) = replay(&population, &initial, &trace, &config, 2);
        let stats = IngestTraceStats::of(&trace);
        assert_eq!(run.epochs as usize, stats.publishes);
        // Hash map keys are exactly the epochs 1..=publishes.
        let epochs: Vec<u64> = hashes.keys().copied().collect();
        assert_eq!(epochs, (1..=stats.publishes as u64).collect::<Vec<_>>());
        // Every reader produced a hash per epoch.
        for per_user in hashes.values() {
            assert_eq!(per_user.len(), config.readers);
        }
    }

    #[test]
    fn publish_probe_is_positive_and_finite() {
        let ms = publish_1k_probe(7);
        assert!(ms.is_finite() && ms >= 0.0);
    }

    #[test]
    fn bulk_probe_publishes_all_rows() {
        let probe = publish_bulk_probe(5_000, 7);
        assert_eq!(probe.offers, 5_000);
        assert!(probe.ingest_ms > 0.0);
        assert!(probe.publish_ms.is_finite() && probe.publish_ms >= 0.0);
        assert!(probe.delta_publish_ms.is_finite() && probe.delta_publish_ms >= 0.0);
    }
}
