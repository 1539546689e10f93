//! S7 — columnar ≡ row equivalence under ingest churn, as a CI binary.
//!
//! Runs the columnar harness, writes `BENCH_columnar.json`, and
//! enforces every row of `mirabel_bench::columnar::GATES`:
//!
//! * **query equality**: every columnar `eval` answer equals the
//!   row-oriented `eval_rows` reference exactly, at every epoch;
//! * **view equality**: every borrowed `view` (ids and materialized
//!   offers) matches the linear row scan, at every epoch;
//! * **encoded speedup**: the query battery runs ≥ 2× faster through
//!   the encoded columns than through the row reference, on the final
//!   epoch;
//! * **filtered equality**: every selective probe over the bulk pool
//!   agrees three ways — pushdown `eval` ≡ plain `eval_scan` ≡ row
//!   `eval_rows`;
//! * **filtered speedup**: dictionary-mask pushdown is ≥ 3× faster
//!   than the plain columnar scan on the filtered probe battery;
//! * **pivot equality**: every one-pass `pivot` cell over the bulk pool
//!   equals its per-cell `eval` bit for bit;
//! * **pivot speedup**: the one-pass pivot is ≥ 3× faster than one
//!   `eval` per cell on the pivot battery;
//! * **window speedup**: the time-indexed window-only `view` is ≥ 25×
//!   faster than `load_offers_scan` on selective windows over the bulk
//!   pool (its views must equal the scan, as `views_ok` checks).
//!
//! ```sh
//! cargo run --release -p mirabel-bench --bin columnar -- \
//!     --prosumers 150 --days 2 --repeats 3 --filter-facts 1000000
//! ```

use std::process::ExitCode;

use mirabel_bench::cli::Args;
use mirabel_bench::columnar::{run_columnar, ColumnarConfig, GATES};
use mirabel_bench::diff::write_and_enforce;

fn main() -> ExitCode {
    let mut args = Args::parse(
        "usage: columnar [--prosumers N] [--days N] [--batches-per-day N] \
         [--withdraw-fraction F] [--repeats N] [--seed S] [--out PATH] [--filter-facts N]",
    );
    let mut config = ColumnarConfig::default();
    let mut out_path = String::from("BENCH_columnar.json");
    args.set("--prosumers", &mut config.prosumers);
    args.set("--days", &mut config.days);
    args.set("--batches-per-day", &mut config.batches_per_day);
    args.set("--withdraw-fraction", &mut config.withdraw_fraction);
    args.set("--repeats", &mut config.repeats);
    args.set("--seed", &mut config.seed);
    args.set("--out", &mut out_path);
    args.set("--filter-facts", &mut config.filter_facts);
    if config.prosumers == 0 || config.days == 0 || config.filter_facts == 0 {
        args.usage();
    }
    args.finish();

    println!(
        "S7 columnar — {} prosumers, {} days of churn (seed {:#x})",
        config.prosumers, config.days, config.seed,
    );
    write_and_enforce(&out_path, GATES, &run_columnar(&config))
}
