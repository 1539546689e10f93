//! S6 — forecasting on metered executions vs the envelope guess.
//!
//! Simulates a multi-day schedule-and-meter loop, then forecasts each
//! trailing day twice — once from the max-envelope history, once from
//! the metered execution history — and scores both against the day's
//! actual metered net load. Writes `BENCH_forecast.json` and enforces
//! the one row of `mirabel_bench::forecast::GATES`: training on
//! executions must beat the envelope baseline
//! (`executions_beat_envelope`).
//!
//! ```sh
//! cargo run --release -p mirabel-bench --bin forecast -- \
//!     --prosumers 120 --days 5 --eval-days 3
//! ```

use std::process::ExitCode;

use mirabel_bench::cli::Args;
use mirabel_bench::diff::write_and_enforce;
use mirabel_bench::forecast::{run_forecast, ForecastConfig, GATES};

fn main() -> ExitCode {
    let mut args = Args::parse(
        "usage: forecast [--prosumers N] [--days D] [--eval-days E] [--seed S] \
         [--repeats N] [--out PATH]",
    );
    let mut config = ForecastConfig::default();
    let mut out_path = String::from("BENCH_forecast.json");
    args.set("--prosumers", &mut config.prosumers);
    args.set("--days", &mut config.days);
    args.set("--eval-days", &mut config.eval_days);
    args.set("--seed", &mut config.seed);
    args.set("--repeats", &mut config.repeats);
    args.set("--out", &mut out_path);
    if config.prosumers == 0 || config.days < 2 || config.eval_days == 0 {
        args.usage();
    }
    args.finish();

    println!(
        "S6 forecast — {} prosumers x {} metered days, scoring the last {} day(s)",
        config.prosumers, config.days, config.eval_days,
    );
    write_and_enforce(&out_path, GATES, &run_forecast(&config))
}
