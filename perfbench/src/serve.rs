//! Set-up and measurement: a real `NetServer` over loopback, one thread
//! per analyst connection (closed loop: each waits for its reply before
//! sending the next request) and, on `live`, one open-loop writer that
//! publishes an epoch per batch on a fixed schedule.

use std::hash::{DefaultHasher, Hash, Hasher};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use mirabel_dw::{EpochSnapshot, LiveWarehouse, Warehouse};
use mirabel_net::{NetServer, Reply};
use mirabel_session::{Command, ConcurrentPool};
use mirabel_workload::IngestEvent;

use crate::inputs::{Event, Inputs, Workload};
use crate::sys::{resident_vec, thread_cpu_ns, LoadCpu, ProgramCpu};
use crate::trace::{Class, Recorder, Tracer};
use crate::wire::Client;

/// The live analyst works in cycles: one plan and its renders, then
/// this many stream commands (hovers and queries).
pub const PLAN_EVERY: usize = 64;

/// The live analyst starts a cycle every this many epochs, waiting
/// (idle, outside any request) when it is ahead. At the writer's 50
/// epochs per second the analyst re-plans five times a second, which it
/// sustains with room to spare, so its requests see a steady amount of
/// epoch re-sync work instead of however much its own speed lets pile
/// up.
pub const EPOCHS_PER_PLAN: u64 = 10;

/// The phase is cut into slices this long; the program's CPU time and
/// the host's steal are read at every slice boundary.
pub const SLICE: Duration = Duration::from_secs(1);

/// How long the live analyst waits for the writer's last epoch push.
const LAST_EPOCH_WAIT: Duration = Duration::from_secs(20);

/// Request class of a command: `pointer-move` and `click` are hovers,
/// everything else is a query.
pub fn is_hover(cmd: &Command) -> bool {
    matches!(cmd, Command::PointerMove(_) | Command::Click(_))
}

/// Hash of one reply line: what the check compares.
pub fn line_hash(line: &str) -> u64 {
    let mut h = DefaultHasher::new();
    line.hash(&mut h);
    h.finish()
}

/// The serving stack of one set-up, connected and warmed up.
pub struct Setup {
    /// The server (dropping it joins its threads).
    pub server: NetServer,
    /// The pool behind it.
    pub pool: Arc<ConcurrentPool>,
    /// The warehouse the analysts start on.
    pub warehouse: Arc<Warehouse>,
    /// Live only: the writer's warehouse.
    pub live: Option<Arc<LiveWarehouse>>,
    /// One connection per stream, past its warm-up.
    pub clients: Vec<Client>,
    /// Per client: reply hashes of the warm-up commands.
    pub warm: Vec<Vec<u64>>,
    /// Connect + `hello` times, nanoseconds.
    pub connect_ns: Vec<u64>,
    /// Operations attempted and failed during the warm-up.
    pub attempted: u64,
    /// See `attempted`.
    pub failed: u64,
    /// Wall-clock seconds the set-up took.
    pub seconds: f64,
    /// CPU seconds the set-up took, across every thread of the process.
    pub cpu_seconds: f64,
}

impl Setup {
    /// Loads the warehouse, binds the server, connects every analyst
    /// and sends each stream's warm-up prologue.
    pub fn new(inputs: &Inputs) -> std::io::Result<Setup> {
        let cpu0 = crate::sys::process_cpu_ns();
        let t0 = Instant::now();
        let (warehouse, live) = match inputs.workload {
            Workload::Live => {
                let live = LiveWarehouse::new(inputs.population.clone(), &inputs.offers);
                (Arc::clone(live.snapshot().warehouse()), Some(Arc::new(live)))
            }
            _ => (Arc::new(Warehouse::load(&inputs.population, &inputs.offers)), None),
        };
        let pool = Arc::new(ConcurrentPool::new(Arc::clone(&warehouse)));
        let server = NetServer::bind("127.0.0.1:0", Arc::clone(&pool))?;
        let mut setup = Setup {
            server,
            pool,
            warehouse,
            live,
            clients: Vec::new(),
            warm: Vec::new(),
            connect_ns: Vec::new(),
            attempted: 0,
            failed: 0,
            seconds: 0.0,
            cpu_seconds: 0.0,
        };
        for stream in &inputs.streams {
            let c0 = Instant::now();
            let mut client = Client::connect(setup.server.local_addr())?;
            setup.connect_ns.push(c0.elapsed().as_nanos() as u64);
            let mut hashes = Vec::new();
            for event in &stream.events[..stream.warmup] {
                let Event::Cmd(cmd) = event else { continue };
                setup.attempted += 1;
                let reply = client.call(&cmd.encode())?;
                if !accepted(reply) {
                    setup.failed += 1;
                }
                hashes.push(line_hash(reply));
            }
            setup.clients.push(client);
            setup.warm.push(hashes);
        }
        setup.seconds = t0.elapsed().as_secs_f64();
        setup.cpu_seconds = crate::sys::process_cpu_ns().saturating_sub(cpu0) as f64 / 1e9;
        Ok(setup)
    }

    /// Closes every connection and stops the server.
    pub fn close(self) -> std::io::Result<()> {
        for client in self.clients {
            client.bye()?;
        }
        Ok(())
    }
}

/// `true` when `reply` is an `ok` frame whose outcome is not rejected.
pub fn accepted(reply: &str) -> bool {
    matches!(Reply::decode(reply), Ok(Reply::Outcome(o)) if !o.is_rejected())
}

/// What one analyst connection observed.
#[derive(Debug, Default)]
pub struct ClientLog {
    /// Stream positions consumed, warm-up included.
    pub events: usize,
    /// Reply hashes of every stream command, warm-up included (explore
    /// and city; the live analyst's re-plans make its replies timing
    /// dependent).
    pub replies: Vec<u64>,
    /// Hovers: (reply time since the phase start, latency), ns.
    pub hover_ns: Vec<(u64, u64)>,
    /// Queries: (reply time since the phase start, latency), ns.
    pub query_ns: Vec<(u64, u64)>,
    /// Live: `plan` latencies, nanoseconds.
    pub plan_ns: Vec<u64>,
    /// Requests whose reply arrived.
    pub completed: u64,
    /// Operations attempted (requests, reconnects, resumes).
    pub attempted: u64,
    /// Failed operations: `err` replies, rejected outcomes, I/O errors
    /// and timeouts.
    pub failed: u64,
    /// The first failure, for the report.
    pub first_error: Option<String>,
    /// `err` replies.
    pub errs: u64,
    /// Rejected outcomes.
    pub rejected: u64,
    /// Reconnect times (connect + `hello`), nanoseconds.
    pub connect_ns: Vec<u64>,
    /// Resume times, nanoseconds.
    pub resume_ns: Vec<u64>,
    /// Reply bytes read.
    pub reply_bytes: u64,
    /// Epoch pushes read, with when.
    pub epochs: Vec<(u64, Instant)>,
    /// CPU time of this load-generator thread while measuring, ns.
    pub cpu_ns: u64,
    /// When the last reply of the measured window arrived.
    pub last_reply: Option<Instant>,
    /// Explore and city: the final `hashes` reply line.
    pub final_hashes: Option<String>,
    /// Live: the final `plan` and `render` reply lines.
    pub final_plan: Option<(String, String)>,
}

impl ClientLog {
    /// An empty log whose per-request vectors take `requests` entries
    /// without growing. Their memory is resident before the peak-RSS
    /// baseline is taken, so a faster program, which logs more requests,
    /// does not raise the reported peak.
    pub fn with_capacity(requests: usize) -> ClientLog {
        ClientLog {
            replies: resident_vec(requests, 0),
            hover_ns: resident_vec(requests, (0, 0)),
            query_ns: resident_vec(requests, (0, 0)),
            ..ClientLog::default()
        }
    }

    fn fail(&mut self, what: String) {
        self.failed += 1;
        self.first_error.get_or_insert(what);
    }
}

/// What the live writer observed.
#[derive(Debug, Default)]
pub struct WriterLog {
    /// Per published epoch: (epoch, due instant, due → `publish`
    /// returned in ns, how late the batch started in ns).
    pub publishes: Vec<(u64, Instant, u64, u64)>,
    /// Batches attempted.
    pub attempted: u64,
    /// Batches failed (a snapshot failed validation).
    pub failed: u64,
    /// CPU time of the writer thread in program calls, ns: its whole
    /// CPU time less the snapshot checks and the log keeping.
    pub cpu_ns: u64,
    /// The final snapshot.
    pub last: Option<Arc<EpochSnapshot>>,
}

/// Recent published snapshots, for the traced mirror to follow the
/// epoch its analyst has seen.
#[derive(Debug, Default)]
pub struct SnapshotRing {
    ring: Mutex<std::collections::VecDeque<Arc<EpochSnapshot>>>,
}

impl SnapshotRing {
    const CAPACITY: usize = 16;

    fn push(&self, snapshot: Arc<EpochSnapshot>) {
        let mut ring = self.ring.lock().expect("snapshot ring lock");
        if ring.len() == Self::CAPACITY {
            ring.pop_front();
        }
        ring.push_back(snapshot);
    }

    /// The newest snapshot at or before `epoch`, else the oldest held.
    pub fn at(&self, epoch: u64) -> Option<Arc<EpochSnapshot>> {
        let ring = self.ring.lock().expect("snapshot ring lock");
        ring.iter().rev().find(|s| s.epoch() <= epoch).or(ring.front()).cloned()
    }
}

/// One measured phase.
pub struct Phase {
    /// Per analyst connection.
    pub clients: Vec<ClientLog>,
    /// Live only.
    pub writer: Option<WriterLog>,
    /// The program's CPU over the measured window.
    pub program_cpu: ProgramCpu,
    /// The program's CPU read at every slice boundary, ns.
    pub cpu_ticks: Vec<u64>,
    /// Host steal and total CPU ticks read at every slice boundary.
    pub steal_ticks: Vec<(u64, u64)>,
    /// Peak resident set size, MiB: read when the analysts complete
    /// [`Sizes::rss_requests`](crate::inputs::Sizes) requests, else at
    /// every slice boundary. The kernel's high-water mark is only brought
    /// up to date when memory is unmapped, so it is read while the
    /// phase's memory is all live.
    pub peak_rss_mb: f64,
    /// Seconds from the first request to the last reply.
    pub wall_s: f64,
    /// Traced phases: the span recorders and mirror checks.
    pub tracers: Vec<Tracer>,
    /// Traced live phases: the writer's spans.
    pub writer_spans: Option<Recorder>,
}

impl Phase {
    /// Requests whose reply arrived.
    pub fn completed(&self) -> u64 {
        self.clients.iter().map(|c| c.completed).sum()
    }
}

/// Shared state of one phase.
struct Ctx<'a> {
    inputs: &'a Inputs,
    addr: std::net::SocketAddr,
    start: Instant,
    deadline: Instant,
    writer_done: AtomicBool,
    last_epoch: AtomicU64,
    ring: Option<SnapshotRing>,
    load: LoadCpu,
    completed: AtomicU64,
    rss_at_requests: Mutex<Option<f64>>,
}

/// Runs the analysts (and the live writer) against `setup` for
/// `seconds`, filing each analyst's requests in its entry of `logs`;
/// with `traced`, every request is also mirrored in process and its
/// layer calls recorded as spans.
///
/// The program's CPU is the process's, exited threads included, less
/// the load generator's: the analyst threads, this sampling thread and
/// the writer's snapshot checks.
pub fn measure(
    inputs: &Inputs,
    setup: Setup,
    seconds: f64,
    traced: bool,
    logs: Vec<ClientLog>,
) -> Phase {
    let Setup { server, pool, warehouse, live, clients, warm, .. } = setup;
    let start = Instant::now();
    let ctx = Ctx {
        inputs,
        addr: server.local_addr(),
        start,
        deadline: start + Duration::from_secs_f64(seconds),
        writer_done: AtomicBool::new(live.is_none()),
        last_epoch: AtomicU64::new(0),
        ring: (traced && live.is_some()).then(SnapshotRing::default),
        load: LoadCpu::default(),
        completed: AtomicU64::new(0),
        rss_at_requests: Mutex::new(None),
    };
    let sampler = ctx.load.enter();
    let mirror = traced.then(|| Arc::new(ConcurrentPool::new(Arc::clone(&warehouse))));
    let cpu_start = ctx.load.program();
    let (logs, writer, tracers, writer_spans, program_cpu, cpu_ticks, steal_ticks, peak_rss_mb) =
        std::thread::scope(|scope| {
            let writer = live.as_ref().map(|live| {
                let (ctx, pool) = (&ctx, &pool);
                std::thread::Builder::new()
                    .name("perfbench-writer".into())
                    .spawn_scoped(scope, move || write(ctx, live, pool, traced))
                    .expect("spawn the writer")
            });
            let analysts: Vec<_> = clients
                .into_iter()
                .zip(warm)
                .zip(logs)
                .enumerate()
                .map(|(i, ((client, warm), log))| {
                    let ctx = &ctx;
                    let tracer = mirror.as_ref().map(|m| {
                        let mut tracer = Tracer::new(Arc::clone(m), i, ctx.start, live.is_some());
                        let stream = &inputs.streams[i];
                        for event in &stream.events[..stream.warmup] {
                            if let Event::Cmd(cmd) = event {
                                tracer.prime(cmd);
                            }
                        }
                        tracer
                    });
                    std::thread::Builder::new()
                        .name(format!("perfbench-client-{i}"))
                        .spawn_scoped(scope, move || analyst(ctx, i, client, warm, log, tracer))
                        .expect("spawn an analyst")
                })
                .collect();
            let mut cpu_ticks = vec![cpu_start.total_ns];
            let mut steal_ticks = vec![crate::sys::host_steal()];
            let mut peak_rss = crate::sys::peak_rss_mb();
            for slice in 1.. {
                let tick = ctx.start + SLICE * slice;
                if tick > ctx.deadline {
                    break;
                }
                std::thread::sleep(tick.saturating_duration_since(Instant::now()));
                cpu_ticks.push(ctx.load.program().total_ns);
                steal_ticks.push(crate::sys::host_steal());
                peak_rss = peak_rss.max(crate::sys::peak_rss_mb());
            }
            std::thread::sleep(ctx.deadline.saturating_duration_since(Instant::now()));
            let program_cpu = ctx.load.program().since(cpu_start);
            peak_rss = peak_rss.max(crate::sys::peak_rss_mb());
            let (writer, writer_spans) = match writer.map(|w| w.join().expect("writer thread")) {
                Some((log, spans)) => (Some(log), spans),
                None => (None, None),
            };
            let mut logs = Vec::new();
            let mut tracers = Vec::new();
            for handle in analysts {
                let (log, tracer) = handle.join().expect("analyst thread");
                logs.push(log);
                tracers.extend(tracer);
            }
            (logs, writer, tracers, writer_spans, program_cpu, cpu_ticks, steal_ticks, peak_rss)
        });
    drop(sampler);
    let last = logs.iter().filter_map(|l| l.last_reply).max().unwrap_or(ctx.deadline);
    let peak_rss_mb = ctx.rss_at_requests.lock().expect("peak RSS lock").unwrap_or(peak_rss_mb);
    drop(server);
    Phase {
        clients: logs,
        writer,
        program_cpu,
        cpu_ticks,
        steal_ticks,
        peak_rss_mb,
        wall_s: last.duration_since(start).as_secs_f64(),
        tracers,
        writer_spans,
    }
}

/// The open-loop writer: batch `i` is due `i + 1` periods after the
/// start; its deltas are applied and its epoch published, late or not.
/// Its program calls count as the program's CPU; the snapshot check and
/// the log keeping after each publish count as the load generator's.
fn write(
    ctx: &Ctx,
    live: &LiveWarehouse,
    pool: &ConcurrentPool,
    traced: bool,
) -> (WriterLog, Option<Recorder>) {
    let cpu0 = thread_cpu_ns();
    let period = Duration::from_millis(ctx.inputs.sizes.epoch_ms);
    let mut log = WriterLog::default();
    let mut spans = traced.then(|| Recorder::new(ctx.start));
    let mut excluded = 0;
    for (i, batch) in ctx.inputs.batches.iter().enumerate() {
        let due = ctx.start + period * (i as u32 + 1);
        if due >= ctx.deadline {
            break;
        }
        std::thread::sleep(due.saturating_duration_since(Instant::now()));
        let began = Instant::now();
        log.attempted += 1;
        let req = i as u64;
        let root = spans.as_mut().map(|r| r.open("writer.batch", None, req, Class::Write));
        for event in &batch.events {
            let t = Instant::now();
            let name = match event {
                IngestEvent::Arrive { offers } => {
                    live.ingest(offers);
                    "dw.ingest"
                }
                IngestEvent::Withdraw { ids } => {
                    live.withdraw(ids);
                    "dw.withdraw"
                }
                IngestEvent::AdvanceDay => {
                    live.advance_day();
                    "dw.advance_day"
                }
                IngestEvent::Publish => continue,
            };
            if let Some(r) = spans.as_mut() {
                r.record(name, root, req, Class::Write, t, Instant::now());
            }
        }
        let t = Instant::now();
        let snapshot = live.publish();
        if let Some(ring) = &ctx.ring {
            // Before the pool publishes, so the mirror finds every epoch
            // the analyst can see.
            ring.push(Arc::clone(&snapshot));
        }
        let t_pool = Instant::now();
        let epoch = pool.publish(&snapshot);
        let done = Instant::now();
        let check0 = thread_cpu_ns();
        if let Some(r) = spans.as_mut() {
            r.record("dw.publish", root, req, Class::Write, t, t_pool);
            r.record("session.pool_publish", root, req, Class::Write, t_pool, done);
            r.close(root.expect("traced batches have a root"), done);
        }
        log.publishes.push((
            epoch,
            due,
            done.duration_since(due).as_nanos() as u64,
            began.duration_since(due).as_nanos() as u64,
        ));
        let valid = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            LiveWarehouse::validate_snapshot(&snapshot)
        }));
        if valid.is_err() {
            log.failed += 1;
        }
        ctx.last_epoch.store(epoch, Ordering::SeqCst);
        log.last = Some(snapshot);
        let check = thread_cpu_ns().saturating_sub(check0);
        ctx.load.exclude(check);
        excluded += check;
    }
    log.cpu_ns = thread_cpu_ns().saturating_sub(cpu0).saturating_sub(excluded);
    ctx.writer_done.store(true, Ordering::SeqCst);
    (log, spans)
}

/// One closed-loop analyst: sends its stream until the deadline, then
/// closes out (final `hashes`, or on `live` the final plan).
fn analyst(
    ctx: &Ctx,
    index: usize,
    client: Client,
    warm: Vec<u64>,
    mut log: ClientLog,
    mut tracer: Option<Tracer>,
) -> (ClientLog, Option<Tracer>) {
    let _load = ctx.load.enter();
    let stream = &ctx.inputs.streams[index];
    let live = ctx.inputs.workload == Workload::Live;
    log.events = stream.warmup;
    log.replies.extend(warm);
    let cpu0 = thread_cpu_ns();
    let mut client = Some(client);
    let mut k = stream.warmup;
    let mut since_plan = 0;
    let mut planned = client.as_ref().map_or(0, Client::epoch);
    while Instant::now() < ctx.deadline {
        let Some(c) = client.as_mut() else { break };
        if live && since_plan >= PLAN_EVERY {
            let left = ctx.deadline.saturating_duration_since(Instant::now());
            match c.wait_for_epoch(planned + EPOCHS_PER_PLAN, left) {
                Ok(true) => {}
                Ok(false) => break,
                Err(e) => {
                    log.fail(format!("waiting for an epoch: {e}"));
                    client = None;
                    break;
                }
            }
            planned = c.epoch();
            since_plan = 0;
            let back = stream.active_at(k.wrapping_sub(1));
            for cmd in [Command::Plan, Command::Render, Command::ActivateTab(back), Command::Render]
            {
                if request(ctx, c, &cmd, &mut log, tracer.as_mut(), false).is_err() {
                    client = None;
                    break;
                }
            }
            continue;
        }
        let outcome = match stream.at(k) {
            Event::Cmd(cmd) => {
                since_plan += 1;
                request(ctx, c, cmd, &mut log, tracer.as_mut(), !live).map(|()| None)
            }
            Event::Reconnect => {
                log.attempted += 1;
                let old = client.take().expect("client is connected");
                let t = Instant::now();
                old.bye().and_then(|()| Client::connect(ctx.addr)).map(|fresh| {
                    log.connect_ns.push(t.elapsed().as_nanos() as u64);
                    if let Some(tr) = tracer.as_mut() {
                        tr.reconnect();
                    }
                    Some(fresh)
                })
            }
            Event::Resume => {
                log.attempted += 1;
                let old = client.take().expect("client is connected");
                let t = Instant::now();
                old.resume().map(|fresh| {
                    log.resume_ns.push(t.elapsed().as_nanos() as u64);
                    Some(fresh)
                })
            }
        };
        match outcome {
            Ok(Some(fresh)) => client = Some(fresh),
            Ok(None) => {}
            Err(e) => {
                log.fail(format!("event {k}: {e}"));
                client = None;
            }
        }
        k += 1;
        log.events = k;
    }
    log.cpu_ns = thread_cpu_ns().saturating_sub(cpu0);
    if let Some(c) = client {
        if let Err(e) = close_out(ctx, c, &mut log, tracer.as_mut()) {
            log.fail(format!("close-out: {e}"));
        }
    }
    (log, tracer)
}

/// Sends one command, times it to the decoded reply and files it.
fn request(
    ctx: &Ctx,
    client: &mut Client,
    cmd: &Command,
    log: &mut ClientLog,
    tracer: Option<&mut Tracer>,
    keep_reply: bool,
) -> std::io::Result<()> {
    log.attempted += 1;
    let seen = client.epoch();
    let line = cmd.encode();
    let t0 = Instant::now();
    let reply = match client.call(&line) {
        Ok(reply) => reply,
        Err(e) => {
            log.fail(format!("{}: {e}", cmd.name()));
            return Err(e);
        }
    };
    let decoded = Reply::decode(reply);
    let t1 = Instant::now();
    let ok = match &decoded {
        Ok(Reply::Outcome(o)) if o.is_rejected() => {
            log.rejected += 1;
            false
        }
        Ok(Reply::Outcome(_)) => true,
        Ok(Reply::Error(_)) => {
            log.errs += 1;
            false
        }
        _ => false,
    };
    let ns = t1.duration_since(t0).as_nanos() as u64;
    let at = t1.duration_since(ctx.start).as_nanos() as u64;
    if is_hover(cmd) {
        log.hover_ns.push((at, ns));
    } else {
        log.query_ns.push((at, ns));
    }
    if matches!(cmd, Command::Plan) {
        log.plan_ns.push(ns);
    }
    log.completed += 1;
    log.last_reply = Some(t1);
    let done = ctx.completed.fetch_add(1, Ordering::Relaxed) + 1;
    if Some(done) == ctx.inputs.sizes.rss_requests {
        *ctx.rss_at_requests.lock().expect("peak RSS lock") = Some(crate::sys::peak_rss_mb());
    }
    if !ok {
        log.fail(format!("{} -> {reply}", cmd.name()));
    }
    if keep_reply {
        log.replies.push(line_hash(reply));
    }
    if let Some(tr) = tracer {
        let ring = ctx.ring.as_ref();
        tr.mirror(cmd, t0, t1, reply, ring.and_then(|r| r.at(seen)));
    }
    log.reply_bytes += reply.len() as u64 + 1;
    Ok(())
}

/// After the deadline: explore and city ask for the final frame hashes;
/// the live analyst waits for the writer's last epoch, then plans once
/// more and renders the balance tab.
fn close_out(
    ctx: &Ctx,
    mut client: Client,
    log: &mut ClientLog,
    tracer: Option<&mut Tracer>,
) -> std::io::Result<()> {
    if ctx.inputs.workload == Workload::Live {
        while !ctx.writer_done.load(Ordering::SeqCst) {
            std::thread::sleep(Duration::from_millis(1));
        }
        let last = ctx.last_epoch.load(Ordering::SeqCst);
        if !client.wait_for_epoch(last, LAST_EPOCH_WAIT)? {
            log.fail(format!("epoch {last} never pushed (saw {})", client.epoch()));
        }
        let plan = client.call("plan")?.to_string();
        let render = client.call("render")?.to_string();
        log.final_plan = Some((plan, render));
    } else {
        let hashes = client.call("hashes")?.to_string();
        if let Some(tr) = tracer {
            tr.check_hashes(&hashes);
        }
        log.final_hashes = Some(hashes);
    }
    log.epochs.clone_from(&client.epochs);
    client.bye()
}
