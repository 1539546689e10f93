//! The traced run: spans recorded in memory from the benchmark's own
//! code, around calls into each layer's public functions.
//!
//! Every wire request is replayed right after its reply on an in-process
//! mirror `ConcurrentPool`, aligned by request id. Around the mirrored
//! `apply`, the layer calls the session made are re-executed on the same
//! inputs, read back through `Session::tabs()`: the warehouse view of a
//! load, the MDX evaluation, the frame pipeline (layout, scene, grid
//! index, content hash), aggregation, heatmap and dashboard data, the
//! plan and its forecast target. Each re-executed frame must hash equal
//! to the mirrored session's own frame, so the timings measure the same
//! work the session did.
//!
//! Span tree of one request: `net.wire` (client send → reply decoded)
//! is the root; `session.apply` and `session.codec` are its children;
//! the re-executed layer calls are children of `session.apply`. A
//! span's self time is its duration minus its children's durations, so
//! `net.wire`'s self time is the wire round trip less the session's
//! apply and the codec: what the network layer adds.

use std::collections::{BTreeMap, HashMap};
use std::sync::Arc;
use std::time::Instant;

use mirabel_aggregation::AggregationParams;
use mirabel_dw::{EpochRef, EpochSnapshot, Warehouse};
use mirabel_flexoffer::FlexOffer;
use mirabel_net::{Reply, Request};
use mirabel_session::planner::{self, SessionPlanner};
use mirabel_session::views::balance::{self, BalanceData};
use mirabel_session::views::dashboard::{self, DashboardOptions};
use mirabel_session::views::heatmap::{self, HeatmapData};
use mirabel_session::views::{basic, profile, DetailLayout};
use mirabel_session::{
    AggregationTools, Command, ConcurrentPool, Outcome, SessionId, ViewMode, VisualOffer,
};
use mirabel_viz::{GridIndex, Scene};

use crate::serve::is_hover;

/// Cell size of the session's pointer grid index.
const GRID_CELL: f64 = 32.0;

/// Which traffic a span belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Class {
    /// `pointer-move` and `click` requests.
    Hover,
    /// Every other request.
    Query,
    /// The live writer's batches.
    Write,
    /// The live mirror catching up with a published epoch, outside any
    /// wire request.
    Sync,
}

/// One recorded span. Times are nanoseconds since the phase started.
#[derive(Debug, Clone)]
pub struct Span {
    /// Layer-qualified name, `layer.call`.
    pub name: &'static str,
    /// Start.
    pub start_ns: u64,
    /// End.
    pub end_ns: u64,
    /// Index of the parent span in the same recorder.
    pub parent: Option<u32>,
    /// Request (or writer batch) id.
    pub req: u64,
    /// Traffic class.
    pub class: Class,
}

impl Span {
    fn dur(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }

    /// The layer: the name up to its first dot.
    pub fn layer(&self) -> &'static str {
        self.name.split('.').next().unwrap_or(self.name)
    }
}

/// In-memory span store of one thread.
#[derive(Debug)]
pub struct Recorder {
    t0: Instant,
    /// The spans, parents before children.
    pub spans: Vec<Span>,
}

impl Recorder {
    /// An empty recorder timing from `t0`.
    pub fn new(t0: Instant) -> Recorder {
        Recorder { t0, spans: Vec::new() }
    }

    fn ns(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.t0).as_nanos() as u64
    }

    /// Records a finished span; returns its index.
    pub fn record(
        &mut self,
        name: &'static str,
        parent: Option<u32>,
        req: u64,
        class: Class,
        start: Instant,
        end: Instant,
    ) -> u32 {
        let span =
            Span { name, start_ns: self.ns(start), end_ns: self.ns(end), parent, req, class };
        self.spans.push(span);
        (self.spans.len() - 1) as u32
    }

    /// Opens a span now; [`Recorder::close`] sets its end.
    pub fn open(&mut self, name: &'static str, parent: Option<u32>, req: u64, class: Class) -> u32 {
        let now = Instant::now();
        self.record(name, parent, req, class, now, now)
    }

    /// Sets the end of an opened span.
    pub fn close(&mut self, index: u32, end: Instant) {
        let end = self.ns(end);
        self.spans[index as usize].end_ns = end;
    }

    fn time<R>(
        &mut self,
        name: &'static str,
        parent: u32,
        req: u64,
        class: Class,
        f: impl FnOnce() -> R,
    ) -> (u32, R) {
        let start = Instant::now();
        let out = std::hint::black_box(f());
        let index = self.record(name, Some(parent), req, class, start, Instant::now());
        (index, out)
    }

    /// Writes the first `limit` spans as JSON lines.
    pub fn write_jsonl(&self, out: &mut impl std::io::Write, limit: usize) -> std::io::Result<()> {
        for s in self.spans.iter().take(limit) {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"req\":{},\"class\":\"{:?}\"}}",
                s.name, s.start_ns, s.end_ns, s.req, s.class
            )?;
        }
        Ok(())
    }
}

/// One analyst's mirror: an in-process session fed the same requests.
#[derive(Debug)]
pub struct Tracer {
    pool: Arc<ConcurrentPool>,
    id: SessionId,
    client: u64,
    seq: u64,
    agg: AggregationParams,
    planner: Option<SessionPlanner>,
    epoch: u64,
    live: bool,
    /// The spans.
    pub rec: Recorder,
    /// Mirrored replies whose encoding differed from the wire reply
    /// (explore and city; live replies depend on epoch timing).
    pub reply_mismatches: u64,
    /// Re-executed frames (and dashboards, plans, aggregations) that
    /// differed from what the mirrored session produced.
    pub work_mismatches: u64,
    /// The first mismatch, for the report.
    pub first_mismatch: Option<String>,
    /// Frames the mirrored session built.
    pub frames: u64,
    /// Scene nodes across re-executed frames.
    pub nodes: u64,
    /// Aggregation reduction factors.
    pub reductions: Vec<f64>,
    /// Share of plan partitions each `plan` re-planned.
    pub replanned: Vec<f64>,
}

impl Tracer {
    /// A mirror session on `pool` for analyst `client`; `live` when a
    /// writer publishes epochs beside it.
    pub fn new(pool: Arc<ConcurrentPool>, client: usize, t0: Instant, live: bool) -> Tracer {
        let id = pool.open();
        Tracer {
            pool,
            id,
            client: client as u64,
            seq: 0,
            agg: AggregationTools::new().params(),
            planner: None,
            epoch: 0,
            live,
            rec: Recorder::new(t0),
            reply_mismatches: 0,
            work_mismatches: 0,
            first_mismatch: None,
            frames: 0,
            nodes: 0,
            reductions: Vec::new(),
            replanned: Vec::new(),
        }
    }

    fn mismatch(&mut self, replies: bool, what: String) {
        if replies {
            self.reply_mismatches += 1;
        } else {
            self.work_mismatches += 1;
        }
        self.first_mismatch.get_or_insert(what);
    }

    /// Mirrors a reconnect: the old session closes, a fresh one opens.
    pub fn reconnect(&mut self) {
        self.pool.close(self.id);
        self.id = self.pool.open();
        self.agg = AggregationTools::new().params();
        self.planner = None;
    }

    /// Applies a warm-up command the wire session already ran during
    /// set-up, keeping the re-executed planner and tool state in step.
    pub fn prime(&mut self, cmd: &Command) {
        let outcome = self.pool.apply(self.id, cmd.clone()).expect("mirror session is open");
        match cmd {
            Command::SetAggregationParams(params) => self.agg = *params,
            Command::Plan if matches!(outcome, Outcome::Planned(_)) => {
                let (dw, epoch, params) = self
                    .pool
                    .with_session(self.id, |s| {
                        (
                            s.warehouse().cloned().expect("sessions have a warehouse"),
                            s.epoch(),
                            s.planning_params(),
                        )
                    })
                    .expect("mirror session is open");
                let at = EpochRef { warehouse: &dw, epoch };
                // The outcome was checked by the mirrored session; only
                // the planner state matters here.
                let _ = planner::plan(&at, params, self.agg, &mut self.planner);
            }
            _ => {}
        }
    }

    /// Compares the final `hashes` reply with the mirror's frames.
    pub fn check_hashes(&mut self, line: &str) {
        let hashes = self.pool.with_session(self.id, |s| s.frame_hashes()).unwrap_or_default();
        let expected = Reply::Hashes(hashes).encode();
        if expected != line {
            self.mismatch(true, format!("hashes: wire {line:?} mirror {expected:?}"));
        }
    }

    /// Mirrors one wire request (sent at `t0`, reply decoded at `t1`)
    /// and records its span tree. On `live`, `snapshot` is the epoch the
    /// analyst had seen when it sent the request; the mirror publishes
    /// it first, in spans of their own: that publish is the writer's
    /// work, not the request's.
    pub fn mirror(
        &mut self,
        cmd: &Command,
        t0: Instant,
        t1: Instant,
        reply: &str,
        snapshot: Option<Arc<EpochSnapshot>>,
    ) {
        let req = (self.client << 48) | self.seq;
        self.seq += 1;
        let class = if is_hover(cmd) { Class::Hover } else { Class::Query };
        if let Some(snapshot) = snapshot.filter(|s| s.epoch() > self.epoch) {
            self.epoch = snapshot.epoch();
            let t = Instant::now();
            self.pool.publish(&snapshot);
            let t_sync = Instant::now();
            self.pool.with_session_mut(self.id, |_| ());
            self.rec.record("session.pool_publish", None, req, Class::Sync, t, t_sync);
            self.rec.record("session.resync", None, req, Class::Sync, t_sync, Instant::now());
        }
        let root = self.rec.record("net.wire", None, req, class, t0, t1);
        let live = self.live;

        let (id, pool) = (self.id, Arc::clone(&self.pool));
        let before = pool
            .with_session(id, |s| {
                let offers = match cmd {
                    Command::Aggregate => s.active_tab().map(|t| Arc::clone(&t.offers)),
                    _ => None,
                };
                (s.frames_built(), offers)
            })
            .expect("mirror session is open");
        let a0 = Instant::now();
        let outcome = pool.apply(id, cmd.clone()).expect("mirror session is open");
        let apply = self.rec.record("session.apply", Some(root), req, class, a0, Instant::now());

        let c0 = Instant::now();
        let line = cmd.encode();
        let parsed = Request::decode(&line);
        let encoded = format!("ok {}", outcome.to_wire().encode());
        let decoded = Reply::decode(&encoded);
        let _ = std::hint::black_box((parsed, decoded));
        self.rec.record("session.codec", Some(root), req, class, c0, Instant::now());
        if !live && encoded != reply {
            self.mismatch(true, format!("{}: wire {reply:?} mirror {encoded:?}", cmd.name()));
        }

        let (dw, epoch, frames_after, hit) = pool
            .with_session(id, |s| {
                let hit = match cmd {
                    Command::PointerMove(p) | Command::Click(p) => {
                        s.active_tab().map(|t| (t.grid_index(), *p))
                    }
                    _ => None,
                };
                (
                    s.warehouse().cloned().expect("sessions have a warehouse"),
                    s.epoch(),
                    s.frames_built(),
                    hit,
                )
            })
            .expect("mirror session is open");
        self.layer_calls(cmd, &outcome, &dw, epoch, before.1, hit, apply, req, class);
        if frames_after > before.0 {
            self.frames += frames_after - before.0;
            self.frame(apply, req, class);
        }
    }

    #[allow(clippy::too_many_arguments)]
    fn layer_calls(
        &mut self,
        cmd: &Command,
        outcome: &Outcome,
        dw: &Arc<Warehouse>,
        epoch: u64,
        offers: Option<Arc<[VisualOffer]>>,
        hit: Option<(Arc<GridIndex>, mirabel_viz::Point)>,
        apply: u32,
        req: u64,
        class: Class,
    ) {
        let rec = &mut self.rec;
        match cmd {
            Command::PointerMove(_) | Command::Click(_) => {
                if let Some((grid, p)) = hit {
                    rec.time("viz.hit", apply, req, class, || grid.hit_topmost(p));
                }
            }
            Command::Load { query, .. } => {
                let (_, n) =
                    rec.time("dw.view", apply, req, class, || dw.view(query).materialize().len());
                if !matches!(outcome, Outcome::TabOpened { offers, .. } if *offers == n) {
                    self.mismatch(false, format!("load: view has {n} offers, session {outcome:?}"));
                }
            }
            Command::Mdx(query) => {
                rec.time("dw.mdx", apply, req, class, || dw.mdx(query).is_ok());
            }
            Command::Dashboard { from, to, granularity } => {
                let (width, height) = self
                    .pool
                    .with_session(self.id, |s| {
                        s.active_tab()
                            .map_or((960.0, 540.0), |t| (t.options.width, t.options.height))
                    })
                    .expect("mirror session is open");
                let options = DashboardOptions {
                    width,
                    height,
                    from: *from,
                    to: *to,
                    granularity: *granularity,
                };
                rec.time("session.dashboard", apply, req, class, || {
                    dashboard::compute(dw, &options)
                });
                let hash = dashboard::build(dw, &options).content_hash();
                if !matches!(outcome, Outcome::Frame(f) if f.hash == hash) {
                    self.mismatch(false, "dashboard frame hash".into());
                }
            }
            Command::RegionDrill(_) | Command::RegionUp => {
                let focus = self
                    .pool
                    .with_session(self.id, |s| {
                        s.tabs().iter().find_map(|t| t.heatmap().map(|h| h.focus))
                    })
                    .flatten();
                if let Some(focus) = focus {
                    let (leaf, target) = match &self.planner {
                        Some(p) => (p.leaf_load(dw), p.target_total()),
                        None => (HashMap::new(), 0.0),
                    };
                    let (_, data) = rec.time("session.heatmap", apply, req, class, || {
                        heatmap::data_for(dw, &leaf, target, focus)
                    });
                    let cells = data.map(|d| d.cells.len()).unwrap_or(usize::MAX);
                    if !matches!(outcome, Outcome::RegionFocus { cells: c, .. } if *c == cells) {
                        self.mismatch(
                            false,
                            format!("heatmap: {cells} cells, session {outcome:?}"),
                        );
                    }
                }
            }
            Command::SetAggregationParams(params) => self.agg = *params,
            Command::Aggregate => {
                let offers: Vec<FlexOffer> =
                    offers.iter().flat_map(|o| o.iter()).map(|v| (*v.offer).clone()).collect();
                let mut tools = AggregationTools::new();
                tools.set_params(self.agg);
                let (_, result) =
                    rec.time("aggregation.apply", apply, req, class, || tools.apply(&offers));
                match (result, outcome) {
                    (Ok(r), Outcome::Aggregated { stats, .. })
                        if r.output_count == stats.output_count =>
                    {
                        self.reductions.push(stats.reduction_factor);
                    }
                    _ => self.mismatch(false, "aggregation output count".into()),
                }
            }
            Command::Plan => {
                let params = self
                    .pool
                    .with_session(self.id, |s| s.planning_params())
                    .expect("mirror session is open");
                let at = EpochRef { warehouse: dw, epoch };
                let plan = rec.open("scheduling.plan", Some(apply), req, class);
                let result = planner::plan(&at, params, self.agg, &mut self.planner);
                rec.close(plan, Instant::now());
                let start = planner::plan_window_start(dw);
                rec.time("forecast.target", plan, req, class, || {
                    planner::day_ahead_target(dw, start, params.horizon)
                });
                match (result, outcome) {
                    (Ok(update), Outcome::Planned(stats))
                        if update.stats.assigned == stats.assigned
                            && update.stats.after_l1 == stats.after_l1 =>
                    {
                        self.replanned.push(stats.replanned_fraction());
                    }
                    _ => self.mismatch(false, "plan stats".into()),
                }
            }
            _ => {}
        }
    }

    /// Re-executes the active tab's frame pipeline the way the session's
    /// frame cache builds it, and checks the hash.
    fn frame(&mut self, apply: u32, req: u64, class: Class) {
        let tab = self
            .pool
            .with_session(self.id, |s| {
                s.active_tab().map(|t| {
                    (
                        Arc::clone(&t.offers),
                        t.options,
                        t.mode,
                        t.balance().cloned(),
                        t.heatmap().cloned(),
                        t.frame().hash,
                    )
                })
            })
            .flatten();
        let Some((offers, options, mode, balance, heat, hash)) = tab else { return };
        let rec = &mut self.rec;
        let (_, layout) = rec.time("viz.layout", apply, req, class, || {
            DetailLayout::compute(&offers, options.width, options.height)
        });
        let (_, scene): (_, Scene) = rec.time("viz.scene", apply, req, class, || match mode {
            ViewMode::Basic => basic::build_with_layout(&offers, &options, &layout),
            ViewMode::Profile => profile::build_with_layout(&offers, &options, &layout),
            ViewMode::Balance => balance::build(
                &offers,
                balance.as_deref().unwrap_or(&BalanceData::empty()),
                &options,
            ),
            ViewMode::Heatmap => {
                heatmap::build(heat.as_deref().unwrap_or(&HeatmapData::empty()), &options)
            }
        });
        rec.time("viz.grid_index", apply, req, class, || GridIndex::build(&scene, GRID_CELL));
        let (_, rebuilt) = rec.time("viz.hash", apply, req, class, || scene.content_hash());
        self.nodes += scene.primitive_count() as u64;
        if rebuilt != hash {
            self.mismatch(false, format!("frame hash {rebuilt} != session {hash}"));
        }
    }
}

/// Span totals of a traced phase.
#[derive(Debug, Default)]
pub struct Layers {
    /// Per span name and class: (count, total duration ns).
    pub calls: BTreeMap<(&'static str, Class), (u64, u64)>,
    /// Per class and layer: total self time, ns.
    pub self_ns: BTreeMap<(Class, &'static str), u64>,
    /// Requests (root spans) per class.
    pub requests: BTreeMap<Class, u64>,
    /// Per root `net.wire` span: its self time, ns.
    pub net_self_ns: Vec<u64>,
}

impl Layers {
    /// Folds the spans of `recorders` into totals.
    pub fn of<'a>(recorders: impl IntoIterator<Item = &'a Recorder>) -> Layers {
        let mut out = Layers::default();
        for rec in recorders {
            let mut children = vec![0u64; rec.spans.len()];
            for s in &rec.spans {
                if let Some(p) = s.parent {
                    children[p as usize] += s.dur();
                }
            }
            for (s, child) in rec.spans.iter().zip(children) {
                let own = s.dur().saturating_sub(child);
                let call = out.calls.entry((s.name, s.class)).or_default();
                call.0 += 1;
                call.1 += s.dur();
                *out.self_ns.entry((s.class, s.layer())).or_default() += own;
                if s.parent.is_none() {
                    *out.requests.entry(s.class).or_default() += 1;
                    if s.name == "net.wire" {
                        out.net_self_ns.push(own);
                    }
                }
            }
        }
        out
    }

    fn totals(&self, name: &str, class: Option<Class>) -> (u64, u64) {
        self.calls
            .iter()
            .filter(|((n, c), _)| *n == name && class.is_none_or(|want| want == *c))
            .fold((0, 0), |(n, ns), (_, &(k, t))| (n + k, ns + t))
    }

    /// Mean duration of one `name` call, microseconds; 0 if none ran.
    pub fn mean_us(&self, name: &str) -> f64 {
        let (n, ns) = self.totals(name, None);
        ns as f64 / n.max(1) as f64 / 1_000.0
    }

    /// Mean duration of one `name` call in `class` requests, µs.
    pub fn mean_class_us(&self, name: &str, class: Class) -> f64 {
        let (n, ns) = self.totals(name, Some(class));
        ns as f64 / n.max(1) as f64 / 1_000.0
    }

    /// Calls of `name` recorded.
    pub fn count(&self, name: &str) -> u64 {
        self.totals(name, None).0
    }

    /// Calls of `name` recorded in `class` requests.
    pub fn count_class(&self, name: &str, class: Class) -> u64 {
        self.totals(name, Some(class)).0
    }

    /// Mean self time per request of `class` spent in `layer`, µs.
    pub fn per_request_us(&self, class: Class, layer: &str) -> f64 {
        let n = self.requests.get(&class).copied().unwrap_or(0).max(1) as f64;
        let ns = self
            .self_ns
            .iter()
            .filter(|((c, l), _)| *c == class && *l == layer)
            .map(|(_, &ns)| ns)
            .sum::<u64>();
        ns as f64 / n / 1_000.0
    }
}
