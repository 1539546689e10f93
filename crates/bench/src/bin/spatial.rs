//! S5 — the spatial dimension at city scale, as a CI binary.
//!
//! Runs the spatial harness, writes `BENCH_spatial.json`, and enforces
//! every row of `mirabel_bench::spatial::GATES`:
//!
//! * **result equality**: every region-scoped indexed query returns
//!   exactly the full scan's offers;
//! * **heatmap determinism**: drill-trace frame hashes are identical at
//!   every planner worker thread count;
//! * **O(region) speedup**: the indexed loader beats the full scan by
//!   ≥ 10× across all probes;
//! * **scale floor** (`--min-facts N`, default 1 000 000): the headline
//!   gate cannot quietly run at toy size;
//! * **publish latency** (`--assert-publish-ms MS`, default 100):
//!   publishing after a 1 000-offer ingest into the full city-scale
//!   live warehouse completes within the bound.
//!
//! ```sh
//! cargo run --release -p mirabel-bench --bin spatial -- \
//!     --prosumers 530000 --min-facts 1000000 --assert-publish-ms 100
//! ```

use std::process::ExitCode;

use mirabel_bench::cli::Args;
use mirabel_bench::diff::write_and_enforce;
use mirabel_bench::spatial::{run_spatial, SpatialBenchConfig, GATES};

fn main() -> ExitCode {
    let mut args = Args::parse(
        "usage: spatial [--prosumers N] [--days D] [--skew F] [--threads 1,2,4,8] \
         [--repeats N] [--trace-users K] [--trace-steps M] [--trace-prosumers N] [--seed S] \
         [--out PATH] [--min-facts N] [--assert-publish-ms MS]",
    );
    let mut config = SpatialBenchConfig::default();
    let mut out_path = String::from("BENCH_spatial.json");
    args.set("--prosumers", &mut config.prosumers);
    args.set("--days", &mut config.days);
    args.set("--skew", &mut config.density_skew);
    args.list("--threads", &mut config.threads);
    args.set("--repeats", &mut config.repeats);
    args.set("--trace-users", &mut config.trace_users);
    args.set("--trace-steps", &mut config.trace_steps);
    args.set("--trace-prosumers", &mut config.trace_prosumers);
    args.set("--seed", &mut config.seed);
    args.set("--out", &mut out_path);
    args.set("--min-facts", &mut config.min_facts);
    args.set("--assert-publish-ms", &mut config.publish_bound_ms);
    if config.prosumers == 0
        || config.days == 0
        || config.threads.is_empty()
        || config.threads.contains(&0)
    {
        args.usage();
    }
    args.finish();

    println!(
        "S5 spatial — {} prosumers x {} day(s), skew {:.1}, threads {:?}",
        config.prosumers, config.days, config.density_skew, config.threads,
    );
    write_and_enforce(&out_path, GATES, &run_spatial(&config))
}
