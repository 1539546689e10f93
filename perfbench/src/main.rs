//! The repository benchmark: three seeded analyst workloads against a
//! real `NetServer` over loopback, with end-to-end metrics from an
//! untraced run and a per-layer breakdown from a separate traced run.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload explore|city|live --seed N --seconds S --trace 0|1
//! ```
//!
//! The report goes to standard output; its last line is one JSON object
//! with `correct`, `attempted`, `failed` and `metrics` (the end-to-end
//! metrics with `--trace 0`, the per-layer ones with `--trace 1`). A
//! failed correctness check prints `"correct": false` and exits 1. See
//! README.md for the workloads and every metric.

mod check;
mod inputs;
mod serve;
mod sys;
mod trace;
mod wire;

use std::process::ExitCode;
use std::sync::Arc;

use mirabel_dw::Warehouse;

use inputs::{Inputs, Sizes, Workload};
use serve::{measure, ClientLog, Phase, Setup};
use trace::{Class, Layers};

/// Bytes of the sequential-read ceiling's buffer: about the size of
/// city's fact columns (~0.5M facts at ~100 bytes each).
const CITY_COLUMN_BYTES: usize = 48 << 20;

/// Share of a run's seconds the end-to-end metrics are taken over: the
/// ones with the least CPU stolen by the hypervisor. On a shared host,
/// steal swings throughput several-fold from one second to the next;
/// the quietest seconds show the program rather than its neighbours.
const QUIET_SHARE: f64 = 0.25;

/// Host steal share at or below which a second counts as quiet; every
/// quiet second is used, and at least the quietest [`QUIET_SHARE`].
const QUIET_STEAL: f64 = 0.02;

/// Requests an analyst's log takes without growing, as a multiple of
/// the interaction steps generated for it.
const LOG_HEADROOM: usize = 4;

/// Most spans written to the span file per traced run.
const MAX_SPANS_WRITTEN: usize = 200_000;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, 1u64, 10u64, false);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(&value).ok_or_else(|| format!("unknown workload {value}"))?,
                )
            }
            "--seed" => seed = value.parse().map_err(|_| format!("bad seed {value}"))?,
            "--seconds" => seconds = value.parse().map_err(|_| format!("bad seconds {value}"))?,
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, got {value}")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    Ok(Args { workload, seed, seconds: seconds.max(1), trace })
}

/// One named metric of the report.
struct Metric {
    name: &'static str,
    value: f64,
    unit: &'static str,
    samples: usize,
}

fn metric(name: &'static str, value: f64, unit: &'static str, samples: usize) -> Metric {
    Metric { name, value, unit, samples }
}

/// The result of a whole run.
struct Run {
    lines: Vec<String>,
    attempted: u64,
    failed: u64,
    errors: Vec<String>,
    metrics: Vec<Metric>,
    extra: Vec<Metric>,
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let sizes = Sizes::full(args.workload);
    let inputs = Inputs::generate(args.workload, sizes, args.seed, args.seconds);
    let run = match run(&inputs, args.seconds as f64, args.trace) {
        Ok(run) => run,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(1);
        }
    };
    for line in &run.lines {
        println!("{line}");
    }
    for m in run.metrics.iter().chain(&run.extra) {
        println!("metric {} = {} {} (n={})", m.name, m.value, m.unit, m.samples);
    }
    for e in &run.errors {
        println!("check failed: {e}");
    }
    let correct = run.errors.is_empty() && run.failed == 0;
    let metrics: Vec<String> = run
        .metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name,
                json_num(m.value),
                m.unit
            )
        })
        .collect();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        run.attempted.max(1),
        run.failed,
        metrics.join(", ")
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}

fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".into()
    }
}

/// Nearest-rank percentile of nanosecond samples, in `unit_ns` units.
fn pct(samples: &[u64], p: f64, unit_ns: f64) -> f64 {
    let mut v: Vec<f64> = samples.iter().map(|&ns| ns as f64 / unit_ns).collect();
    sys::percentile(&mut v, p)
}

fn run(inputs: &Inputs, seconds: f64, traced: bool) -> std::io::Result<Run> {
    let mut out = Run {
        lines: Vec::new(),
        attempted: 0,
        failed: 0,
        errors: Vec::new(),
        metrics: Vec::new(),
        extra: Vec::new(),
    };
    // The peak RSS is reported above a baseline taken once the inputs
    // and the untraced phase's logs are resident: the program's memory,
    // not the load generator's.
    let logs = |inputs: &Inputs| -> Vec<ClientLog> {
        let requests = inputs.sizes.steps_per_second * seconds as usize * LOG_HEADROOM;
        inputs.streams.iter().map(|_| ClientLog::with_capacity(requests)).collect()
    };
    let plain_logs = logs(inputs);
    let rss_baseline = sys::reset_peak_rss_mb();
    // Untraced: the end-to-end phase, after `setups` set-ups.
    let setups = if traced { 1 } else { inputs.sizes.setups.max(1) };
    let (mut setup_s, mut setup_wall) = (Vec::new(), Vec::new());
    let mut setup = None;
    for i in 0..setups {
        let s = Setup::new(inputs)?;
        setup_s.push(s.cpu_seconds);
        setup_wall.push(s.seconds);
        out.attempted += s.attempted;
        out.failed += s.failed;
        if i + 1 < setups {
            s.close()?;
        } else {
            setup = Some(s);
        }
    }
    let setup = setup.expect("at least one set-up ran");
    let facts = setup.warehouse.columns().len();
    let warehouse = Arc::clone(&setup.warehouse);
    let plain = measure(inputs, setup, seconds, false, plain_logs);
    let peak_rss = plain.peak_rss_mb - rss_baseline;
    tally(&mut out, inputs, &warehouse, &plain);

    let traced_phase = if traced {
        let setup = Setup::new(inputs)?;
        out.attempted += setup.attempted;
        out.failed += setup.failed;
        let connect_ns = setup.connect_ns.clone();
        let phase = measure(inputs, setup, seconds, true, logs(inputs));
        tally(&mut out, inputs, &warehouse, &phase);
        Some((phase, connect_ns))
    } else {
        None
    };

    let rtt = sys::loopback_rtt_us(2_000)?;
    let mem = sys::mem_read_gbs(CITY_COLUMN_BYTES);
    describe(&mut out, inputs, facts, &plain, rtt, mem, traced);

    match traced_phase {
        None => {
            end_to_end(&mut out, inputs, &plain, &mut setup_s, peak_rss);
            let n = setup_wall.len();
            out.extra.push(metric("setup_wall_s", sys::median(&mut setup_wall), "s", n));
        }
        Some((phase, connect_ns)) => {
            per_layer(&mut out, &plain, &phase, &connect_ns, facts, rtt, mem);
            write_spans(inputs, &phase, &mut out);
        }
    }
    Ok(out)
}

/// Adds a phase's operation counts and runs its correctness checks.
fn tally(out: &mut Run, inputs: &Inputs, warehouse: &Arc<Warehouse>, phase: &Phase) {
    for (i, log) in phase.clients.iter().enumerate() {
        out.attempted += log.attempted;
        out.failed += log.failed;
        if let Some(e) = &log.first_error {
            out.errors.push(format!("client {i}: {e}"));
        }
    }
    match &phase.writer {
        Some(writer) => {
            out.attempted += writer.attempted;
            out.failed += writer.failed;
            out.errors.extend(check::live(writer, &phase.clients));
        }
        None if phase.tracers.is_empty() => {
            let errors: Vec<Vec<String>> = std::thread::scope(|scope| {
                let handles: Vec<_> = inputs
                    .streams
                    .iter()
                    .zip(&phase.clients)
                    .map(|(stream, log)| scope.spawn(move || check::replay(warehouse, stream, log)))
                    .collect();
                handles.into_iter().map(|h| h.join().expect("reference replay")).collect()
            });
            for (i, e) in errors.into_iter().enumerate() {
                out.errors.extend(e.into_iter().map(|e| format!("client {i}: {e}")));
            }
        }
        None => {}
    }
    for (i, t) in phase.tracers.iter().enumerate() {
        if let Some(m) = &t.first_mismatch {
            out.errors.push(format!(
                "client {i} mirror: {} reply and {} work mismatches, first: {m}",
                t.reply_mismatches, t.work_mismatches
            ));
        }
    }
}

/// Machine facts and generated sizes, in every report.
fn describe(
    out: &mut Run,
    inputs: &Inputs,
    facts: usize,
    phase: &Phase,
    rtt: f64,
    mem: f64,
    traced: bool,
) {
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    let hovers: usize = phase.clients.iter().map(|c| c.hover_ns.len()).sum();
    let queries: usize = phase.clients.iter().map(|c| c.query_ns.len()).sum();
    let epochs = phase.writer.as_ref().map_or(0, |w| w.publishes.len());
    out.lines.push(format!(
        "perfbench workload={} seed={} seconds={} trace={}",
        inputs.workload.name(),
        inputs.seed,
        phase.wall_s.round(),
        u8::from(traced)
    ));
    out.lines.push(format!("machine available_parallelism={cores}"));
    out.lines.push(format!(
        "sizes prosumers={} offers={} facts={} clients={} epochs={} batches_generated={} \
         arrivals_generated={} requests_hover={hovers} requests_query={queries}",
        inputs.sizes.prosumers,
        inputs.offers.len(),
        facts,
        inputs.streams.len(),
        epochs,
        inputs.batches.len(),
        inputs.arrivals(),
    ));
    out.lines.push(format!(
        "host loopback_rtt_us={rtt} mem_read_gbs={mem} (buffer {} MiB)",
        CITY_COLUMN_BYTES >> 20
    ));
}

/// One second of a measured phase.
#[derive(Default)]
struct Slice {
    hover: Vec<u64>,
    query: Vec<u64>,
    cpu_ns: u64,
    steal: f64,
}

/// Splits a phase into whole seconds by reply time, with the program's
/// CPU time and the host's steal share of each second.
///
/// The guest kernel charges time the hypervisor stole from a running
/// thread to that thread, so each second's CPU time is scaled by the
/// share not stolen. On a 2-vCPU VM the live program's CPU per request
/// read ~20 % higher at 10–20 % steal than at none, and within a few
/// per cent of it after the scaling.
fn slices(phase: &Phase) -> Vec<Slice> {
    let n = phase.cpu_ticks.len().saturating_sub(1).min(phase.steal_ticks.len().saturating_sub(1));
    let mut out: Vec<Slice> = (0..n)
        .map(|i| {
            let ((s0, t0), (s1, t1)) = (phase.steal_ticks[i], phase.steal_ticks[i + 1]);
            let steal = (s1 - s0) as f64 / (t1 - t0).max(1) as f64;
            let cpu_ns = phase.cpu_ticks[i + 1].saturating_sub(phase.cpu_ticks[i]);
            Slice {
                cpu_ns: (cpu_ns as f64 * (1.0 - steal).max(0.0)) as u64,
                steal,
                ..Slice::default()
            }
        })
        .collect();
    for c in &phase.clients {
        for (samples, query) in [(&c.hover_ns, false), (&c.query_ns, true)] {
            for &(at, ns) in samples {
                if let Some(s) = out.get_mut((at / serve::SLICE.as_nanos() as u64) as usize) {
                    if query {
                        s.query.push(ns)
                    } else {
                        s.hover.push(ns)
                    }
                }
            }
        }
    }
    out
}

/// The untraced phase's end-to-end metrics: over the run's quietest
/// seconds where the workload allows it (see [`QUIET_SHARE`]), else over
/// the whole run.
fn end_to_end(out: &mut Run, inputs: &Inputs, phase: &Phase, setup_s: &mut [f64], peak: f64) {
    let mut sl = slices(phase);
    let steal_all = sl.iter().map(|s| s.steal).sum::<f64>() / sl.len().max(1) as f64;
    let (kept, seconds) = if inputs.sizes.quiet_seconds && !sl.is_empty() {
        sl.sort_by(|a, b| a.steal.total_cmp(&b.steal));
        let quiet = sl.iter().filter(|s| s.steal <= QUIET_STEAL).count();
        let keep = quiet.max((sl.len() as f64 * QUIET_SHARE).ceil() as usize).min(sl.len());
        (&sl[..keep], keep as f64 * serve::SLICE.as_secs_f64())
    } else {
        (&sl[..], phase.wall_s.max(1e-9))
    };
    let hover: Vec<u64> = kept.iter().flat_map(|s| s.hover.iter().copied()).collect();
    let query: Vec<u64> = kept.iter().flat_map(|s| s.query.iter().copied()).collect();
    let done = (hover.len() + query.len()) as u64;
    let cpu = kept.iter().map(|s| s.cpu_ns).sum::<u64>() as f64 / done.max(1) as f64 / 1e3;
    let steal_kept = kept.iter().map(|s| s.steal).sum::<f64>() / kept.len().max(1) as f64;
    out.lines.push(format!(
        "measured seconds={} of {} host_steal={steal_kept:.3} (whole run {steal_all:.3})",
        kept.len(),
        sl.len(),
    ));
    let n = setup_s.len();
    out.metrics = vec![
        metric("setup_s", sys::median(setup_s), "s", n),
        metric("cpu_us_per_req", cpu, "us", done as usize),
        metric("peak_rss_mb", peak, "MiB", 1),
    ];
    // Latency and throughput swing with the host by more than any bound
    // the gate could hold on a shared host: reported only. Steal moves
    // throughput and the tails; the live analyst's hovers, which leave
    // a core idle between requests, also move with how fast the
    // hypervisor wakes an idle core, even at no steal.
    out.extra = vec![
        metric("hover_p50_us", pct(&hover, 0.50, 1e3), "us", hover.len()),
        metric("req_per_s", done as f64 / seconds, "1/s", done as usize),
        metric("query_p50_us", pct(&query, 0.50, 1e3), "us", query.len()),
        metric("hover_p99_us", pct(&hover, 0.99, 1e3), "us", hover.len()),
        metric("query_p99_us", pct(&query, 0.99, 1e3), "us", query.len()),
    ];
    if let (Workload::Live, Some(writer)) = (inputs.workload, &phase.writer) {
        let publish: Vec<u64> = writer.publishes.iter().map(|p| p.2).collect();
        let due: std::collections::HashMap<u64, std::time::Instant> =
            writer.publishes.iter().map(|p| (p.0, p.1)).collect();
        let fresh: Vec<u64> = phase
            .clients
            .iter()
            .flat_map(|c| &c.epochs)
            .filter_map(|(e, seen)| due.get(e).map(|d| seen.duration_since(*d).as_nanos() as u64))
            .collect();
        let plan: Vec<u64> = phase.clients.iter().flat_map(|c| c.plan_ns.iter().copied()).collect();
        let batches = writer.publishes.len().max(1);
        out.extra.extend([
            metric("publish_p50_ms", pct(&publish, 0.50, 1e6), "ms", publish.len()),
            metric("publish_p99_ms", pct(&publish, 0.99, 1e6), "ms", publish.len()),
            metric("fresh_p50_ms", pct(&fresh, 0.50, 1e6), "ms", fresh.len()),
            metric("fresh_p99_ms", pct(&fresh, 0.99, 1e6), "ms", fresh.len()),
            metric("plan_p50_ms", pct(&plan, 0.50, 1e6), "ms", plan.len()),
            metric(
                "writer_cpu_us_per_epoch",
                writer.cpu_ns as f64 / batches as f64 / 1e3,
                "us",
                batches,
            ),
        ]);
    }
}

/// The traced phase's per-layer metrics.
fn per_layer(
    out: &mut Run,
    plain: &Phase,
    phase: &Phase,
    connect_ns: &[u64],
    facts: usize,
    rtt: f64,
    mem: f64,
) {
    let layers = Layers::of(phase.tracers.iter().map(|t| &t.rec).chain(&phase.writer_spans));
    let done = phase.completed().max(1) as f64;
    let requests = layers.net_self_ns.len().max(1) as f64;
    // The CPU split comes from the untraced phase, like `cpu_us_per_req`:
    // the traced one runs program code (the mirror) on analyst threads.
    // Everything of the program's CPU that is neither the reactor's nor
    // the live writer's is the workers', with the planner threads they
    // spawn.
    let plain_done = plain.completed().max(1) as f64;
    let writer_ns = plain.writer.as_ref().map_or(0, |w| w.cpu_ns);
    let cpu = plain.program_cpu;
    let reactor = cpu.reactor_ns as f64 / plain_done / 1e3;
    let worker = cpu.total_ns.saturating_sub(cpu.reactor_ns + writer_ns) as f64 / plain_done / 1e3;
    let mut net_selves: Vec<f64> = layers.net_self_ns.iter().map(|&ns| ns as f64 / 1e3).collect();
    let net_self = sys::median(&mut net_selves);
    let apply_mean = layers.mean_us("session.apply");
    let codec = layers.mean_us("session.codec");
    // On live the workers also re-sync sessions to each new epoch, work
    // the mirror records outside any request.
    let resync =
        layers.mean_us("session.resync") * layers.count("session.resync") as f64 / requests;
    let server_net_cpu = (reactor + worker - apply_mean - codec / 2.0 - resync).max(0.0);
    let mut connects: Vec<u64> = connect_ns.to_vec();
    connects.extend(phase.clients.iter().flat_map(|c| c.connect_ns.iter().copied()));
    let resumes: Vec<u64> =
        phase.clients.iter().flat_map(|c| c.resume_ns.iter().copied()).collect();
    let mean = |v: &[u64]| v.iter().sum::<u64>() as f64 / v.len().max(1) as f64;
    let frames = phase.tracers.iter().map(|t| t.frames).sum::<u64>();
    let nodes = phase.tracers.iter().map(|t| t.nodes).sum::<u64>();
    let rebuilt = layers.count("viz.hash").max(1) as f64;
    let reductions: Vec<f64> =
        phase.tracers.iter().flat_map(|t| t.reductions.iter().copied()).collect();
    let replanned: Vec<f64> =
        phase.tracers.iter().flat_map(|t| t.replanned.iter().copied()).collect();
    let avg = |v: &[f64]| if v.is_empty() { 0.0 } else { v.iter().sum::<f64>() / v.len() as f64 };
    let client_cpu = plain.clients.iter().map(|c| c.cpu_ns).sum::<u64>() as f64;
    let plain_rate = plain.completed() as f64 / plain.wall_s.max(1e-9);
    let traced_rate = phase.completed() as f64 / phase.wall_s.max(1e-9);
    let errs: u64 = plain.clients.iter().chain(&phase.clients).map(|c| c.errs).sum();
    let rejected: u64 = plain.clients.iter().chain(&phase.clients).map(|c| c.rejected).sum();
    let bytes = phase.clients.iter().map(|c| c.reply_bytes).sum::<u64>() as f64 / done;
    let n = |name: &str| layers.count(name) as usize;
    out.metrics = vec![
        metric("host.loopback_rtt_us", rtt, "us", 2_000),
        metric("host.mem_read_gbs", mem, "GB/s", 5),
        metric("net.self_us", net_self, "us", layers.net_self_ns.len()),
        metric("net.reactor_cpu_us", reactor, "us", plain_done as usize),
        metric("net.worker_cpu_us", worker, "us", plain_done as usize),
        metric("net.wait_us", (net_self - server_net_cpu).max(0.0), "us", done as usize),
        metric("net.connect_us", mean(&connects) / 1e3, "us", connects.len()),
        metric("net.reply_bytes", bytes, "bytes", done as usize),
        metric("net.err_replies", errs as f64, "count", done as usize),
        metric(
            "session.apply_hover_us",
            layers.mean_class_us("session.apply", Class::Hover),
            "us",
            layers.count_class("session.apply", Class::Hover) as usize,
        ),
        metric(
            "session.apply_query_us",
            layers.mean_class_us("session.apply", Class::Query),
            "us",
            layers.count_class("session.apply", Class::Query) as usize,
        ),
        metric("session.codec_us", codec, "us", n("session.codec")),
        metric(
            "session.frames_per_kreq",
            frames as f64 * 1e3 / requests,
            "count",
            requests as usize,
        ),
        metric(
            "session.dashboard_us",
            layers.mean_us("session.dashboard"),
            "us",
            n("session.dashboard"),
        ),
        metric("session.rejected", rejected as f64, "count", done as usize),
        metric("viz.layout_us", layers.mean_us("viz.layout"), "us", n("viz.layout")),
        metric("viz.scene_us", layers.mean_us("viz.scene"), "us", n("viz.scene")),
        metric("viz.grid_index_us", layers.mean_us("viz.grid_index"), "us", n("viz.grid_index")),
        metric("viz.hash_us", layers.mean_us("viz.hash"), "us", n("viz.hash")),
        metric("viz.nodes_per_frame", nodes as f64 / rebuilt, "count", n("viz.hash")),
        metric("viz.hit_ns", layers.mean_us("viz.hit") * 1e3, "ns", n("viz.hit")),
        metric("dw.view_us", layers.mean_us("dw.view"), "us", n("dw.view")),
        metric(
            "dw.view_ns_per_fact",
            layers.mean_us("dw.view") * 1e3 / facts.max(1) as f64,
            "ns",
            n("dw.view"),
        ),
        metric("dw.mdx_us", layers.mean_us("dw.mdx"), "us", n("dw.mdx")),
        metric(
            "aggregation.apply_us",
            layers.mean_us("aggregation.apply"),
            "us",
            n("aggregation.apply"),
        ),
        metric("aggregation.reduction", avg(&reductions), "ratio", reductions.len()),
        metric(
            "bench.client_cpu_us_per_req",
            client_cpu / plain.completed().max(1) as f64 / 1e3,
            "us",
            plain.completed() as usize,
        ),
        metric("bench.trace_overhead", traced_rate / plain_rate.max(1e-9), "ratio", 2),
    ];
    let late: Vec<u64> =
        phase.writer.iter().flat_map(|w| w.publishes.iter().map(|p| p.3)).collect();
    out.extra = vec![
        metric("net.resume_us", mean(&resumes) / 1e3, "us", resumes.len()),
        metric("session.heatmap_us", layers.mean_us("session.heatmap"), "us", n("session.heatmap")),
        metric(
            "session.pool_publish_us",
            layers.mean_us("session.pool_publish"),
            "us",
            n("session.pool_publish"),
        ),
        metric("session.resync_us", layers.mean_us("session.resync"), "us", n("session.resync")),
        metric("dw.ingest_us", layers.mean_us("dw.ingest"), "us", n("dw.ingest")),
        metric("dw.withdraw_us", layers.mean_us("dw.withdraw"), "us", n("dw.withdraw")),
        metric("dw.advance_day_us", layers.mean_us("dw.advance_day"), "us", n("dw.advance_day")),
        metric("dw.publish_us", layers.mean_us("dw.publish"), "us", n("dw.publish")),
        metric("scheduling.plan_us", layers.mean_us("scheduling.plan"), "us", n("scheduling.plan")),
        metric("scheduling.replanned_share", avg(&replanned), "ratio", replanned.len()),
        metric("forecast.target_us", layers.mean_us("forecast.target"), "us", n("forecast.target")),
        metric("bench.writer_late_p99_ms", pct(&late, 0.99, 1e6), "ms", late.len()),
    ];
    for class in [Class::Hover, Class::Query] {
        let total: f64 = LAYERS.iter().map(|l| layers.per_request_us(class, l)).sum();
        let shares: Vec<String> = LAYERS
            .iter()
            .map(|l| {
                let us = layers.per_request_us(class, l);
                format!("{l}={us:.2}us({:.0}%)", 100.0 * us / total.max(1e-9))
            })
            .collect();
        out.lines.push(format!("layers {class:?} self time per request: {}", shares.join(" ")));
    }
    out.lines.push(format!(
        "traced requests={} frames_rebuilt={} spans={}",
        requests,
        layers.count("viz.hash"),
        layers.calls.values().map(|c| c.0).sum::<u64>()
    ));
}

/// Layers on the serving path, in the order the report lists them.
const LAYERS: [&str; 7] = ["net", "session", "viz", "dw", "aggregation", "scheduling", "forecast"];

/// Writes the traced phase's spans as JSON lines next to the manifest.
fn write_spans(inputs: &Inputs, phase: &Phase, out: &mut Run) {
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("out");
    let path = dir.join(format!("spans-{}-{}.jsonl", inputs.workload.name(), inputs.seed));
    let written = (|| -> std::io::Result<usize> {
        std::fs::create_dir_all(&dir)?;
        let mut file = std::io::BufWriter::new(std::fs::File::create(&path)?);
        let mut written = 0;
        for rec in phase.tracers.iter().map(|t| &t.rec).chain(&phase.writer_spans) {
            let take = rec.spans.len().min(MAX_SPANS_WRITTEN.saturating_sub(written));
            rec.write_jsonl(&mut file, take)?;
            written += take;
        }
        std::io::Write::flush(&mut file)?;
        Ok(written)
    })();
    match written {
        Ok(n) => out.lines.push(format!("spans written={n} to {}", path.display())),
        Err(e) => out.lines.push(format!("spans not written: {e}")),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_tiny_run_of_each_workload_fails_nothing() {
        for workload in [Workload::Explore, Workload::City, Workload::Live] {
            let inputs = Inputs::generate(workload, Sizes::tiny(workload), 11, 1);
            for traced in [false, true] {
                let run = run(&inputs, 1.0, traced).expect("the run completes");
                assert_eq!(run.failed, 0, "{workload:?} traced={traced}: {:?}", run.errors);
                assert!(run.errors.is_empty(), "{workload:?} traced={traced}: {:?}", run.errors);
                assert!(run.attempted > 0);
                assert!(run.metrics.iter().all(|m| m.value.is_finite()));
            }
        }
    }
}
