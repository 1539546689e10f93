//! S3 — the live warehouse under a streaming ingest storm.
//!
//! Replays a deterministic arrival/withdrawal/day-tick trace against a
//! `LiveWarehouse` publishing epochs into a `ConcurrentPool` of reader
//! sessions, at several reader thread counts, writes
//! `BENCH_ingest.json`, and enforces every row of
//! `mirabel_bench::ingest::GATES`: per-(epoch, reader) frame hashes
//! identical at every thread count (no reader ever observes a torn
//! epoch), and the 1 000-offer-batch and bulk publish probes within
//! 100 ms.
//!
//! ```sh
//! cargo run --release -p mirabel-bench --bin ingest -- \
//!     --readers 4 --commands 24 --threads 1,2,4,8
//! ```

use std::process::ExitCode;

use mirabel_bench::cli::Args;
use mirabel_bench::diff::write_and_enforce;
use mirabel_bench::ingest::{run_ingest, IngestConfig, GATES};

fn main() -> ExitCode {
    let mut args = Args::parse(
        "usage: ingest [--readers K] [--commands M] [--threads 1,2,4,8] [--prosumers N] \
         [--days D] [--batches B] [--withdraw F] [--repeats N] [--seed S] [--bulk-offers N] \
         [--out PATH]",
    );
    let mut config = IngestConfig::default();
    let mut out_path = String::from("BENCH_ingest.json");
    args.set("--readers", &mut config.readers);
    args.set("--commands", &mut config.commands_per_epoch);
    args.list("--threads", &mut config.threads);
    args.set("--prosumers", &mut config.prosumers);
    args.set("--days", &mut config.days);
    args.set("--batches", &mut config.batches_per_day);
    args.set("--withdraw", &mut config.withdraw_fraction);
    args.set("--repeats", &mut config.repeats);
    args.set("--seed", &mut config.seed);
    args.set("--bulk-offers", &mut config.bulk_offers);
    args.set("--out", &mut out_path);
    if config.readers == 0
        || config.commands_per_epoch == 0
        || config.threads.is_empty()
        || config.threads.contains(&0)
    {
        args.usage();
    }
    args.finish();

    println!(
        "S3 ingest — {} readers x {} commands/epoch over threads {:?} \
         ({} prosumers, {} streamed days, {} batches/day, {:.0}% withdrawn)",
        config.readers,
        config.commands_per_epoch,
        config.threads,
        config.prosumers,
        config.days,
        config.batches_per_day,
        config.withdraw_fraction * 100.0,
    );
    write_and_enforce(&out_path, GATES, &run_ingest(&config))
}
