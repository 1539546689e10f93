//! S4 — the live planning subsystem under day-ahead churn, as a CI
//! binary.
//!
//! Runs the planning harness, writes `BENCH_planning.json`, and
//! enforces every row of `mirabel_bench::planning::GATES` on
//! every run:
//!
//! * **determinism**: plan hashes and the balance-view frame a session
//!   renders from the plan are identical at every worker thread count;
//! * **incrementality**: a single-offer incremental re-plan is ≥ 10×
//!   faster than a full re-plan;
//! * **bundling**: aggregate-then-schedule plans the pool ≥ 5.76× faster
//!   than raw scheduling, and its round trip leaves every offer
//!   feasibly scheduled;
//! * **bundle-aware replanning**: after single-offer churn the standing
//!   bundle grid re-plans ≥ 5.44× faster than a cold full re-group, with
//!   the exact disaggregation round trip preserved through plan reuse.
//!
//! ```sh
//! cargo run --release -p mirabel-bench --bin planning -- \
//!     --offers 10000 --partitions 64 --threads 1,2,4,8
//! ```

use std::process::ExitCode;

use mirabel_bench::cli::Args;
use mirabel_bench::diff::write_and_enforce;
use mirabel_bench::planning::{run_planning, PlanningConfig, GATES};

fn main() -> ExitCode {
    let mut args = Args::parse(
        "usage: planning [--offers N] [--partitions P] [--threads 1,2,4,8] [--prosumers N] \
         [--repeats N] [--seed S] [--out PATH]",
    );
    let mut config = PlanningConfig::default();
    let mut out_path = String::from("BENCH_planning.json");
    args.set("--offers", &mut config.offers);
    args.set("--partitions", &mut config.partitions);
    args.list("--threads", &mut config.threads);
    args.set("--prosumers", &mut config.prosumers);
    args.set("--repeats", &mut config.repeats);
    args.set("--seed", &mut config.seed);
    args.set("--out", &mut out_path);
    if config.offers == 0
        || config.partitions == 0
        || config.threads.is_empty()
        || config.threads.contains(&0)
    {
        args.usage();
    }
    args.finish();

    println!(
        "S4 planning — {} offers over {} partitions, threads {:?} ({} prosumers)",
        config.offers, config.partitions, config.threads, config.prosumers,
    );
    write_and_enforce(&out_path, GATES, &run_planning(&config))
}
