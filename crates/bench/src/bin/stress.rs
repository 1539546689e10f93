//! S2 — the concurrent serving layer under multi-user load.
//!
//! Replays a deterministic K-users × M-commands trace (hover storms,
//! selections, tab switches, MDX, dashboards, aggregation) over a
//! sharded `ConcurrentPool` at several thread counts, probes warm-cache
//! against cold-rebuild hover latency, writes `BENCH_stress.json`, and
//! enforces every row of `mirabel_bench::stress::GATES`:
//! per-user frame hashes identical at every thread count, 4-thread
//! throughput ≥ 2× the 1-thread run (on hosts with ≥ 4 CPUs — fewer
//! cannot show it), and warm hover ≥ 10× a cold rebuild.
//!
//! ```sh
//! cargo run --release -p mirabel-bench --bin stress -- \
//!     --users 8 --commands 300 --threads 1,2,4,8
//! ```

use std::process::ExitCode;

use mirabel_bench::cli::Args;
use mirabel_bench::diff::write_and_enforce;
use mirabel_bench::stress::{run_stress, StressConfig, GATES};

fn main() -> ExitCode {
    let mut args = Args::parse(
        "usage: stress [--users K] [--commands M] [--threads 1,2,4,8] [--repeats N] \
         [--prosumers N] [--days D] [--seed S] [--out PATH]",
    );
    let mut config = StressConfig::default();
    let mut out_path = String::from("BENCH_stress.json");
    args.set("--users", &mut config.users);
    args.set("--commands", &mut config.commands_per_user);
    args.list("--threads", &mut config.threads);
    args.set("--repeats", &mut config.repeats);
    args.set("--prosumers", &mut config.prosumers);
    args.set("--days", &mut config.days);
    args.set("--seed", &mut config.seed);
    args.set("--out", &mut out_path);
    if config.users == 0
        || config.commands_per_user == 0
        || config.threads.is_empty()
        || config.threads.contains(&0)
    {
        args.usage();
    }
    args.finish();

    println!(
        "S2 stress — {} users x {} commands over threads {:?} (warehouse: {} prosumers x {} days)",
        config.users, config.commands_per_user, config.threads, config.prosumers, config.days,
    );
    write_and_enforce(&out_path, GATES, &run_stress(&config))
}
