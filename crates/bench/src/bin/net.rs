//! S4 — the wire protocol under multi-client load.
//!
//! Replays a deterministic K-clients network trace (interaction steps
//! plus seeded fresh-reconnects and kill-and-resumes) twice over the
//! same warehouse — once in-process through `ConcurrentPool`, once
//! over loopback TCP through `mirabel-net` — writes `BENCH_net.json`,
//! and enforces the PROTOCOL.md determinism promise and the storm's
//! connection floors as the rows of `mirabel_bench::net::GATES`:
//!
//! * **outcome equivalence**: every wire reply equals the wire
//!   projection of the in-process outcome, bit for bit;
//! * **frame-hash equivalence**: every client's final `hashes` reply
//!   equals the in-process session's frame hashes;
//! * **storm equivalence**: a reconnect-storm round kills and resumes
//!   25% of the clients mid-trace via `session resume <token>` and
//!   still passes both equalities;
//! * **connection scale**: a connection storm opens all K connections
//!   at once and holds every one live at the peak, accepting at least
//!   200 connections/s on hosts with ≥ 4 CPUs (fewer share one core
//!   between the herd and the reactor); the connect p99 is reported,
//!   not gated.
//!
//! ```sh
//! cargo run --release -p mirabel-bench --bin net -- \
//!     --clients 4 --commands 150 --repeats 3
//! ```

use std::process::ExitCode;

use mirabel_bench::cli::Args;
use mirabel_bench::diff::write_and_enforce;
use mirabel_bench::net::{run_net, NetConfig, GATES};

fn main() -> ExitCode {
    let mut args = Args::parse(
        "usage: net [--clients K] [--commands M] [--reconnect-rate R] [--resume-share R] \
         [--repeats N] [--prosumers N] [--days D] [--seed S] [--out PATH]",
    );
    let mut config = NetConfig::default();
    let mut out_path = String::from("BENCH_net.json");
    args.set("--clients", &mut config.clients);
    args.set("--commands", &mut config.commands_per_client);
    args.set("--reconnect-rate", &mut config.reconnect_rate);
    args.set("--resume-share", &mut config.resume_share);
    args.set("--repeats", &mut config.repeats);
    args.set("--prosumers", &mut config.prosumers);
    args.set("--days", &mut config.days);
    args.set("--seed", &mut config.seed);
    args.set("--out", &mut out_path);
    if config.clients == 0 || config.commands_per_client == 0 {
        args.usage();
    }
    args.finish();

    println!(
        "S4 net — {} clients x {} commands over loopback TCP \
         (drop rate {:.0}%, resume share {:.0}%, warehouse: {} prosumers x {} days)",
        config.clients,
        config.commands_per_client,
        config.reconnect_rate * 100.0,
        config.resume_share * 100.0,
        config.prosumers,
        config.days,
    );
    write_and_enforce(&out_path, GATES, &run_net(&config))
}
