//! Seeded inputs of the three workloads.
//!
//! Everything here is a pure function of the workload, its sizes and the
//! seed: the warehouse contents, each analyst's request stream and the
//! live writer's ingest batches. The program under test only ever sees
//! what this module generates.
//!
//! The binder turns abstract interaction steps into session commands
//! while tracking a model of the session (tabs, active tab, view modes,
//! heatmap focus), so it only sends commands the server accepts: no
//! `set-canvas` before a tab exists, only two-axis MDX, `activate-tab`
//! within the live tabs, dashboards over days the warehouse holds. A
//! `render` follows every view-changing command, as a client showing
//! the frame would, so frame builds are charged to the query class and
//! a hover measures the cached probe alone.

use mirabel_aggregation::AggregationParams;
use mirabel_dw::{Hierarchy, LoaderQuery, MemberId};
use mirabel_flexoffer::{FlexOffer, Schedule};
use mirabel_session::{Command, ViewMode};
use mirabel_timeseries::{Granularity, SlotSpan, TimeSlot};
use mirabel_viz::Point;
use mirabel_workload::{
    generate_ingest_trace, generate_net_traces, generate_offers, generate_spatial_scenario,
    IngestEvent, IngestTraceConfig, InteractionStep, NetEvent, NetTraceConfig, OfferConfig,
    Population, PopulationConfig, SpatialConfig,
};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// The canvas every analyst sizes its tabs to.
pub const CANVAS: (f64, f64) = (1280.0, 720.0);

/// Offer tabs an analyst keeps open; the oldest closes before a load
/// beyond this (a session otherwise accumulates a tab per load).
const MAX_OFFER_TABS: usize = 4;

/// Two-axis MDX-lite queries; the parser rejects single-axis ones.
const MDX: &[&str] = &[
    "SELECT { [Time].Children } ON COLUMNS, { [Geography].Children } ON ROWS FROM [FlexOffers]",
    "SELECT { [Prosumer].Children } ON COLUMNS, { [Time].Children } ON ROWS FROM [FlexOffers]",
    "SELECT { [Appliance].Children } ON COLUMNS, { [Grid].Children } ON ROWS FROM [FlexOffers]",
    "SELECT { [EnergyType].Children } ON COLUMNS, { [Geography].Children } ON ROWS FROM [FlexOffers]",
    "SELECT { [Geography].Children } ON COLUMNS, { [Prosumer].Children } ON ROWS FROM [FlexOffers] WHERE ( [Measures].[TotalMaxEnergy] )",
    "SELECT { [Time].Children } ON COLUMNS, { [EnergyType].Children } ON ROWS FROM [FlexOffers] WHERE ( [Measures].[EnergyFlexibility] )",
];

/// The three workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Paper-sized view, hover-dominated trace with reconnect churn.
    Explore,
    /// City-scale warehouse, query-heavy OLAP mix.
    City,
    /// Open-loop ingest writer beside one analyst that re-plans.
    Live,
}

impl Workload {
    /// Parses a workload name.
    pub fn parse(name: &str) -> Option<Workload> {
        match name {
            "explore" => Some(Workload::Explore),
            "city" => Some(Workload::City),
            "live" => Some(Workload::Live),
            _ => None,
        }
    }

    /// The workload's name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::Explore => "explore",
            Workload::City => "city",
            Workload::Live => "live",
        }
    }
}

/// Sizes of one workload run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Sizes {
    /// Prosumers in the generated population.
    pub prosumers: usize,
    /// Analyst connections.
    pub clients: usize,
    /// Interaction steps generated per analyst per measured second.
    pub steps_per_second: usize,
    /// Times the set-up is repeated to report its median.
    pub setups: usize,
    /// Take the end-to-end metrics over the run's quietest seconds
    /// (those with the least CPU stolen by the hypervisor) rather than
    /// all of them. Right for analysts that saturate the server with a
    /// steady mix, so any second is a fair sample; wrong for `live`,
    /// whose analyst works in bursts of a cycle every 200 ms, so a few
    /// seconds hold an uneven share of its requests and re-plans.
    pub quiet_seconds: bool,
    /// Live only: epoch period of the open-loop writer.
    pub epoch_ms: u64,
    /// Live only: ingest batches per day of arrivals.
    pub batches_per_day: usize,
    /// The peak RSS is read once the analysts have completed this many
    /// measured requests together, so it covers the same work however
    /// fast the host lets them go: explore's and city's closed-loop
    /// analysts complete more requests on a quieter host, and the
    /// server's memory grows with the requests it serves. `None` (live,
    /// whose analyst is paced by the epoch schedule) reads it over the
    /// whole phase.
    pub rss_requests: Option<u64>,
}

impl Sizes {
    /// The benchmark sizes.
    pub fn full(workload: Workload) -> Sizes {
        match workload {
            Workload::Explore => Sizes {
                prosumers: 150,
                clients: 2,
                steps_per_second: 4_000,
                setups: 300,
                quiet_seconds: true,
                epoch_ms: 0,
                batches_per_day: 0,
                rss_requests: Some(50_000),
            },
            Workload::City => Sizes {
                prosumers: 250_000,
                clients: 2,
                steps_per_second: 150,
                setups: 5,
                quiet_seconds: true,
                epoch_ms: 0,
                batches_per_day: 0,
                rss_requests: Some(4_000),
            },
            Workload::Live => Sizes {
                prosumers: 5_000,
                clients: 1,
                steps_per_second: 400,
                setups: 21,
                quiet_seconds: false,
                epoch_ms: 20,
                batches_per_day: 500,
                rss_requests: None,
            },
        }
    }

    /// Small sizes for the benchmark's own tests.
    #[cfg(test)]
    pub fn tiny(workload: Workload) -> Sizes {
        let full = Sizes::full(workload);
        match workload {
            Workload::Explore => Sizes { prosumers: 40, setups: 1, ..full },
            Workload::City => Sizes { prosumers: 3_000, setups: 1, ..full },
            Workload::Live => {
                Sizes { prosumers: 200, setups: 1, epoch_ms: 10, batches_per_day: 20, ..full }
            }
        }
    }
}

/// One event of an analyst stream.
#[derive(Debug, Clone, PartialEq)]
pub enum Event {
    /// Send one session command.
    Cmd(Command),
    /// `bye`, then a fresh connection and session.
    Reconnect,
    /// Drop the connection without `bye` and resume the parked session.
    Resume,
}

/// One analyst's stream. Position `k` of the endless stream is
/// `events[k % (len + 1)]`, where the extra position is a
/// [`Event::Reconnect`] that starts the stream over on a fresh session.
#[derive(Debug, Clone, PartialEq)]
pub struct Stream {
    /// The events, prologue first.
    pub events: Vec<Event>,
    /// The session model's active tab after each event (the live
    /// analyst returns to it after a re-plan).
    pub active: Vec<usize>,
    /// Leading events sent during set-up (the warm-up).
    pub warmup: usize,
}

impl Stream {
    /// Event at position `k` of the endless stream.
    pub fn at(&self, k: usize) -> &Event {
        self.events.get(k % (self.events.len() + 1)).unwrap_or(&Event::Reconnect)
    }

    /// Active tab of the session model after position `k`.
    pub fn active_at(&self, k: usize) -> usize {
        self.active.get(k % (self.events.len() + 1)).copied().unwrap_or(0)
    }
}

/// One batch of the live writer: the deltas applied before one publish.
#[derive(Debug, Clone, PartialEq)]
pub struct Batch {
    /// Arrivals, withdrawals and day ticks, in trace order.
    pub events: Vec<IngestEvent>,
}

/// Everything one run needs, generated from the seed.
#[derive(Debug, Clone)]
pub struct Inputs {
    /// The workload.
    pub workload: Workload,
    /// Its sizes.
    pub sizes: Sizes,
    /// The seed everything was generated from.
    pub seed: u64,
    /// Population the warehouse is keyed by.
    pub population: Population,
    /// Offers loaded at set-up.
    pub offers: Vec<FlexOffer>,
    /// One stream per analyst connection.
    pub streams: Vec<Stream>,
    /// Live only: the writer's batches, one publish each.
    pub batches: Vec<Batch>,
}

impl Inputs {
    /// Generates the inputs of `workload` for a run of `seconds`.
    pub fn generate(workload: Workload, sizes: Sizes, seed: u64, seconds: u64) -> Inputs {
        let steps = sizes.steps_per_second * seconds.max(1) as usize;
        match workload {
            Workload::Explore => explore(sizes, seed, steps),
            Workload::City => city(sizes, seed, steps),
            Workload::Live => live(sizes, seed, steps, seconds),
        }
    }

    /// Offers the live writer streams in, across all batches.
    pub fn arrivals(&self) -> usize {
        self.batches
            .iter()
            .flat_map(|b| &b.events)
            .map(|e| match e {
                IngestEvent::Arrive { offers } => offers.len(),
                _ => 0,
            })
            .sum()
    }
}

fn mix(seed: u64, salt: u64) -> u64 {
    let mut z = seed ^ salt.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Gives a deterministic share of the offers a lifecycle status, so
/// dashboards and status measures have something to count.
fn with_statuses(mut offers: Vec<FlexOffer>) -> Vec<FlexOffer> {
    for (i, fo) in offers.iter_mut().enumerate() {
        match i % 10 {
            0..=3 => fo.accept().expect("generated offers start offered"),
            4..=6 => {
                fo.accept().expect("generated offers start offered");
                let minimum = fo.profile().slices().iter().map(|s| s.min).collect();
                fo.assign(Schedule::new(fo.earliest_start(), minimum))
                    .expect("the minimum profile at the earliest start is feasible");
            }
            7 => fo.reject().expect("generated offers start offered"),
            _ => {}
        }
    }
    offers
}

/// Picks load windows whose offer count falls in a target range, from
/// the generated offers' extents (a window matches the offers it
/// intersects, as the warehouse loader does).
struct WindowPicker {
    starts: Vec<i64>,
    ends: Vec<i64>,
    first: i64,
    last: i64,
}

impl WindowPicker {
    fn new(offers: &[FlexOffer]) -> WindowPicker {
        let mut starts: Vec<i64> = offers.iter().map(|o| o.extent().0.index()).collect();
        let mut ends: Vec<i64> = offers.iter().map(|o| o.extent().1.index()).collect();
        starts.sort_unstable();
        ends.sort_unstable();
        let first = starts.first().copied().unwrap_or(0);
        let last = ends.last().copied().unwrap_or(96);
        WindowPicker { starts, ends, first, last }
    }

    fn count(&self, a: i64, b: i64) -> usize {
        let begun = self.starts.partition_point(|&s| s < b);
        let ended = self.ends.partition_point(|&e| e <= a);
        begun - ended
    }

    /// Every window of 1..=16 slots whose count lies in `range`; on a
    /// data set too small for the range, the window nearest to it.
    fn candidates(&self, range: std::ops::RangeInclusive<usize>) -> Vec<(i64, i64)> {
        let mut out = Vec::new();
        let mut nearest = ((self.first, self.first + 1), usize::MAX);
        for a in self.first..self.last {
            for w in 1..=16 {
                let n = self.count(a, a + w);
                if range.contains(&n) {
                    out.push((a, a + w));
                }
                let miss = n.abs_diff(*range.start()).min(n.abs_diff(*range.end()));
                if n > 0 && miss < nearest.1 {
                    nearest = ((a, a + w), miss);
                }
            }
        }
        if out.is_empty() {
            out.push(nearest.0);
        }
        out
    }
}

/// The session model the binder keeps in step with the server.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Kind {
    Offers(ViewMode),
    Heatmap,
    Balance,
}

struct Binder {
    tabs: Vec<Kind>,
    active: usize,
    focus: Option<(MemberId, u8)>,
    events: Vec<Event>,
    actives: Vec<usize>,
    loads: usize,
}

impl Binder {
    fn new() -> Binder {
        Binder {
            tabs: Vec::new(),
            active: 0,
            focus: None,
            events: Vec::new(),
            actives: Vec::new(),
            loads: 0,
        }
    }

    fn event(&mut self, event: Event) {
        if event == Event::Reconnect {
            self.tabs.clear();
            self.active = 0;
            self.focus = None;
        }
        self.events.push(event);
        self.actives.push(self.active);
    }

    /// Sends `cmd` and moves the model the way the session moves.
    fn cmd(&mut self, cmd: Command) {
        match &cmd {
            Command::Load { .. } => {
                self.tabs.push(Kind::Offers(ViewMode::Basic));
                self.active = self.tabs.len() - 1;
            }
            Command::CloseTab(i) => {
                self.tabs.remove(*i);
                if *i < self.active {
                    self.active -= 1;
                } else if self.active >= self.tabs.len() {
                    self.active = self.tabs.len().saturating_sub(1);
                }
            }
            Command::ActivateTab(i) => self.active = *i,
            Command::SetMode(mode) => self.tabs[self.active] = Kind::Offers(*mode),
            Command::RegionDrill(_) | Command::RegionUp => self.activate_or_open(Kind::Heatmap),
            Command::Plan => self.activate_or_open(Kind::Balance),
            _ => {}
        }
        self.event(Event::Cmd(cmd));
    }

    fn activate_or_open(&mut self, kind: Kind) {
        match self.tabs.iter().position(|&k| k == kind) {
            Some(i) => self.active = i,
            None => {
                self.tabs.push(kind);
                self.active = self.tabs.len() - 1;
            }
        }
    }

    fn active_kind(&self) -> Option<Kind> {
        self.tabs.get(self.active).copied()
    }

    fn offer_tabs(&self) -> usize {
        self.tabs.iter().filter(|k| matches!(k, Kind::Offers(_))).count()
    }

    /// Opens a tab over `[a, b)` sized to the canvas, closing the oldest
    /// offer tab first when the analyst already keeps the maximum.
    fn load(&mut self, a: i64, b: i64) {
        if self.offer_tabs() >= MAX_OFFER_TABS {
            // The first offer tab is the analyst's main view; close the
            // oldest one after it.
            let victim = self
                .tabs
                .iter()
                .enumerate()
                .filter(|(_, k)| matches!(k, Kind::Offers(_)))
                .map(|(i, _)| i)
                .nth(1)
                .expect("more than one offer tab is open");
            self.cmd(Command::CloseTab(victim));
        }
        self.loads += 1;
        let query = LoaderQuery::builder().window(TimeSlot::new(a), TimeSlot::new(b)).build();
        self.cmd(Command::Load { query, title: format!("window {a}-{b} #{}", self.loads) });
        self.cmd(Command::SetCanvas { width: CANVAS.0, height: CANVAS.1 });
        self.cmd(Command::Render);
    }

    fn hover(&mut self, points: &[(f64, f64)]) {
        for &p in points {
            self.cmd(Command::PointerMove(px(p)));
        }
    }

    fn click(&mut self, p: (f64, f64)) {
        if !self.tabs.is_empty() {
            self.cmd(Command::Click(px(p)));
        }
    }

    fn drag(&mut self, from: (f64, f64), to: (f64, f64)) {
        if !self.tabs.is_empty() {
            self.cmd(Command::DragStart(px(from)));
            self.cmd(Command::DragEnd(px(to)));
            self.cmd(Command::Render);
        }
    }

    fn switch(&mut self, slot: usize) {
        if !self.tabs.is_empty() {
            self.cmd(Command::ActivateTab(slot % self.tabs.len()));
            self.cmd(Command::Render);
        }
    }

    /// Activates an offer tab: on `live` the analyst keeps off the
    /// balance tab between plans, so how often it hovers the big
    /// re-planned frame does not depend on the seed.
    fn switch_offers(&mut self, slot: usize) {
        let offers: Vec<usize> =
            (0..self.tabs.len()).filter(|&i| matches!(self.tabs[i], Kind::Offers(_))).collect();
        if !offers.is_empty() {
            self.cmd(Command::ActivateTab(offers[slot % offers.len()]));
            self.cmd(Command::Render);
        }
    }

    fn toggle(&mut self) {
        if let Some(Kind::Offers(mode)) = self.active_kind() {
            let next = if mode == ViewMode::Basic { ViewMode::Profile } else { ViewMode::Basic };
            self.cmd(Command::SetMode(next));
            self.cmd(Command::Render);
        }
    }

    fn aggregate(&mut self, est: i64, tft: i64) {
        if let Some(Kind::Offers(_)) = self.active_kind() {
            self.cmd(Command::SetAggregationParams(AggregationParams::new(est, tft)));
            self.cmd(Command::Aggregate);
            self.cmd(Command::Render);
        }
    }

    fn mdx(&mut self, idx: usize) {
        self.cmd(Command::Mdx(MDX[idx % MDX.len()].to_string()));
    }

    /// A Figure 6 dashboard over `hours` hours from `hour` of a day the
    /// warehouse holds.
    fn dashboard(&mut self, first_day: i64, day: usize, hour: usize, hours: usize, fine: bool) {
        let hour = (hour % 24).min(24 - hours.clamp(1, 24));
        let from = TimeSlot::new(first_day + day as i64 * 96 + hour as i64 * 4);
        let to = from + SlotSpan::slots(4 * hours.clamp(1, 24) as i64);
        let granularity = if fine { Granularity::QuarterHour } else { Granularity::Hour };
        self.cmd(Command::Dashboard { from, to, granularity });
    }

    fn render(&mut self) {
        if !self.tabs.is_empty() {
            self.cmd(Command::Render);
        }
    }

    fn finish(self, warmup: usize) -> Stream {
        Stream { events: self.events, active: self.actives, warmup }
    }
}

fn px((x, y): (f64, f64)) -> Point {
    Point::new(x * CANVAS.0, y * CANVAS.1)
}

fn unit(rng: &mut StdRng) -> (f64, f64) {
    (rng.gen_range(0.0..1.0), rng.gen_range(0.0..1.0))
}

fn explore(sizes: Sizes, seed: u64, steps: usize) -> Inputs {
    let population = Population::generate(&PopulationConfig {
        size: sizes.prosumers,
        seed: mix(seed, 1),
        household_share: 0.8,
    });
    let offers = with_statuses(generate_offers(
        &population,
        &OfferConfig { days: 1, seed: mix(seed, 2), ..Default::default() },
    ));
    let first_day =
        offers.iter().map(|o| o.extent().0.index()).min().unwrap_or(0).div_euclid(96) * 96;
    let traces = generate_net_traces(&NetTraceConfig {
        clients: sizes.clients,
        steps_per_client: steps,
        reconnect_rate: 0.02,
        resume_share: 0.5,
        seed: mix(seed, 3),
    });
    let streams = traces
        .iter()
        .map(|trace| {
            let mut b = Binder::new();
            let mut warmup = 0;
            for (seq, event) in trace.events.iter().enumerate() {
                match event {
                    NetEvent::Reconnect => b.event(Event::Reconnect),
                    NetEvent::Resume => b.event(Event::Resume),
                    NetEvent::Step(step) => bind_trace_step(&mut b, step, first_day, seq),
                }
                if seq == 0 {
                    warmup = b.events.len();
                }
            }
            b.finish(warmup)
        })
        .collect();
    Inputs {
        workload: Workload::Explore,
        sizes,
        seed,
        population,
        offers,
        streams,
        batches: Vec::new(),
    }
}

fn bind_trace_step(b: &mut Binder, step: &InteractionStep, first_day: i64, seq: usize) {
    match step {
        InteractionStep::HoverStorm { points } => b.hover(points),
        InteractionStep::Click { x, y } => b.click((*x, *y)),
        InteractionStep::Drag { from, to } => b.drag(*from, *to),
        InteractionStep::TabSwitch { slot } => b.switch(*slot),
        InteractionStep::ToggleMode => b.toggle(),
        InteractionStep::MdxQuery { idx } => b.mdx(*idx),
        InteractionStep::DashboardRender { day } => {
            // The warehouse holds one day; the trace's day picks the hour.
            b.dashboard(first_day, 0, day * 6 + seq % 6, 1 + seq % 4, seq.is_multiple_of(2))
        }
        InteractionStep::LoadWindow { lo, hi } => {
            let a = first_day + (lo * 96.0) as i64;
            let z = (first_day + (hi * 96.0) as i64).max(a + 1);
            b.load(a, z);
        }
        InteractionStep::Aggregate { est, tft } => b.aggregate(*est, *tft),
        InteractionStep::Render => b.render(),
    }
}

fn city(sizes: Sizes, seed: u64, steps: usize) -> Inputs {
    let (population, offers) = generate_spatial_scenario(&SpatialConfig {
        prosumers: sizes.prosumers,
        days: 1,
        seed: mix(seed, 4),
        ..Default::default()
    });
    let offers = with_statuses(offers);
    let picker = WindowPicker::new(&offers);
    // District- and city-sized offer sets. The wire's `load` has no
    // region token, so the sets are cut by time window to those sizes.
    let district = picker.candidates(800..=2_000);
    let city = picker.candidates(5_000..=8_000);
    let first_day = picker.first.div_euclid(96) * 96;
    let (geo, _, _) = Hierarchy::geography(population.geography());
    let root = geo.all().id;
    let streams = (0..sizes.clients)
        .map(|client| {
            let mut rng = StdRng::seed_from_u64(mix(seed, 100 + client as u64));
            let mut b = Binder::new();
            let (a, z) = district[rng.gen_range(0..district.len())];
            b.load(a, z);
            b.cmd(Command::RegionDrill(root));
            b.cmd(Command::Render);
            b.cmd(Command::ActivateTab(0));
            b.cmd(Command::Render);
            let warmup = b.events.len();
            let mut mix = Mix::default();
            for _ in 0..steps {
                match mix.draw(&mut rng) {
                    0..=24 => {
                        let n = rng.gen_range(3usize..=8);
                        let points: Vec<_> = (0..n).map(|_| unit(&mut rng)).collect();
                        b.hover(&points);
                    }
                    25..=27 => b.click(unit(&mut rng)),
                    28..=39 => navigate(&mut b, &geo, root, &mut rng),
                    40..=54 => {
                        let (a, z) = district[rng.gen_range(0..district.len())];
                        b.load(a, z);
                    }
                    55..=60 => {
                        let (a, z) = city[rng.gen_range(0..city.len())];
                        b.load(a, z);
                    }
                    61..=66 => b.toggle(),
                    67..=70 => b.drag(unit(&mut rng), unit(&mut rng)),
                    71..=73 => b.switch(rng.gen_range(0..8)),
                    74..=85 => b.mdx(rng.gen_range(0..MDX.len())),
                    86..=93 => dashboard(&mut b, first_day, &mut rng),
                    _ => b.aggregate(rng.gen_range(2..=12), rng.gen_range(1..=6)),
                }
            }
            b.finish(warmup)
        })
        .collect();
    Inputs { workload: Workload::City, sizes, seed, population, offers, streams, batches: vec![] }
}

/// Draws the kind of each analyst step as a percentile, 0 to 99, from
/// shuffled blocks of all hundred: every block of 100 steps has the
/// mix's exact proportions, so how much a run's requests cost varies
/// with the seed's parameters (regions, windows, points) rather than
/// with how many expensive steps the dice happened to pick.
#[derive(Default)]
struct Mix {
    block: Vec<u32>,
}

impl Mix {
    fn draw(&mut self, rng: &mut StdRng) -> u32 {
        if self.block.is_empty() {
            self.block.extend(0..100);
            for i in (1..self.block.len()).rev() {
                self.block.swap(i, rng.gen_range(0..=i));
            }
        }
        self.block.pop().expect("the block was just filled")
    }
}

/// A dashboard of one to four hours of the loaded day.
fn dashboard(b: &mut Binder, first_day: i64, rng: &mut StdRng) {
    let (hour, hours, fine) = (rng.gen_range(0..24), rng.gen_range(1..=4), rng.gen_bool(0.5));
    b.dashboard(first_day, 0, hour, hours, fine);
}

/// Region drill-down and climb on the heatmap: into a child of the
/// focus while one exists above district level, otherwise back up.
fn navigate(b: &mut Binder, geo: &Hierarchy, root: MemberId, rng: &mut StdRng) {
    let (focus, level) = b.focus.unwrap_or((root, 0));
    let children: Vec<_> = geo.children(focus).filter(|m| m.level < 3).collect();
    let down = !children.is_empty() && (level == 0 || rng.gen_bool(0.6));
    let cmd = if b.focus.is_none() {
        b.focus = Some((root, 0));
        Command::RegionDrill(root)
    } else if down {
        let child = children[rng.gen_range(0..children.len())];
        b.focus = Some((child.id, child.level));
        Command::RegionDrill(child.id)
    } else {
        let parent = geo.member(focus).and_then(|m| m.parent).unwrap_or(root);
        b.focus = Some((parent, level.saturating_sub(1)));
        Command::RegionUp
    };
    b.cmd(cmd);
    b.cmd(Command::Render);
}

fn live(sizes: Sizes, seed: u64, steps: usize, seconds: u64) -> Inputs {
    let population = Population::generate(&PopulationConfig {
        size: sizes.prosumers,
        seed: mix(seed, 5),
        household_share: 0.8,
    });
    let offers = with_statuses(generate_offers(
        &population,
        &OfferConfig { days: 1, seed: mix(seed, 6), ..Default::default() },
    ));
    let picker = WindowPicker::new(&offers);
    let first_day = picker.first.div_euclid(96) * 96;
    let district =
        picker.candidates((sizes.prosumers / 20).max(20)..=(sizes.prosumers / 10).max(60));
    // Enough batches for the run at the epoch rate, plus slack.
    let publishes = (seconds.max(1) * 1_000 / sizes.epoch_ms.max(1)) as usize * 5 / 4 + 8;
    let days = publishes.div_ceil(sizes.batches_per_day.max(1)) + 1;
    let first_id = offers.iter().map(|o| o.id().raw()).max().unwrap_or(0) + 1;
    let trace = generate_ingest_trace(
        &population,
        &IngestTraceConfig {
            days,
            batches_per_day: sizes.batches_per_day,
            withdraw_fraction: 0.15,
            seed: mix(seed, 7),
        },
        first_id,
        TimeSlot::new(first_day) + SlotSpan::days(1),
    );
    let mut batches = Vec::new();
    let mut current = Vec::new();
    for event in trace {
        if event == IngestEvent::Publish {
            batches.push(Batch { events: std::mem::take(&mut current) });
        } else {
            current.push(event);
        }
    }

    let mut rng = StdRng::seed_from_u64(mix(seed, 200));
    let mut b = Binder::new();
    // The main tab is two hours of the first arrival day: a live view
    // that fills as the writer streams offers in. The balance tab opens
    // at once.
    b.load(first_day + 96 + 32, first_day + 96 + 40);
    b.cmd(Command::Plan);
    b.cmd(Command::Render);
    b.cmd(Command::ActivateTab(0));
    b.cmd(Command::Render);
    let warmup = b.events.len();
    let mut mix = Mix::default();
    for _ in 0..steps {
        match mix.draw(&mut rng) {
            0..=44 => {
                let n = rng.gen_range(3usize..=8);
                let points: Vec<_> = (0..n).map(|_| unit(&mut rng)).collect();
                b.hover(&points);
            }
            45..=54 => b.click(unit(&mut rng)),
            55..=59 => b.drag(unit(&mut rng), unit(&mut rng)),
            60..=69 => b.switch_offers(rng.gen_range(0..8)),
            70..=74 => {
                let (a, z) = district[rng.gen_range(0..district.len())];
                b.load(a, z);
            }
            75..=84 => b.mdx(rng.gen_range(0..MDX.len())),
            85..=89 => dashboard(&mut b, first_day, &mut rng),
            90..=94 => b.aggregate(rng.gen_range(2..=12), rng.gen_range(1..=6)),
            _ => b.render(),
        }
    }
    let streams = vec![b.finish(warmup)];
    Inputs { workload: Workload::Live, sizes, seed, population, offers, streams, batches }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_same_seed_gives_the_same_inputs_and_another_seed_others() {
        for workload in [Workload::Explore, Workload::City, Workload::Live] {
            let sizes = Sizes::tiny(workload);
            let a = Inputs::generate(workload, sizes, 7, 1);
            let b = Inputs::generate(workload, sizes, 7, 1);
            let c = Inputs::generate(workload, sizes, 8, 1);
            assert_eq!(a.streams, b.streams, "{workload:?}");
            assert_eq!(a.batches, b.batches, "{workload:?}");
            assert_eq!(a.offers, b.offers, "{workload:?}");
            assert_ne!(a.streams, c.streams, "{workload:?}");
            assert_ne!(a.offers, c.offers, "{workload:?}");
            if workload == Workload::Live {
                assert!(!a.batches.is_empty());
                assert_ne!(a.batches, c.batches);
            }
        }
    }

    #[test]
    fn streams_never_set_the_canvas_before_a_tab_exists() {
        for workload in [Workload::Explore, Workload::City, Workload::Live] {
            let inputs = Inputs::generate(workload, Sizes::tiny(workload), 3, 1);
            for stream in &inputs.streams {
                let mut tabs = false;
                for event in &stream.events {
                    match event {
                        Event::Reconnect => tabs = false,
                        Event::Cmd(Command::Load { .. }) => tabs = true,
                        Event::Cmd(Command::SetCanvas { .. }) => assert!(tabs, "{workload:?}"),
                        _ => {}
                    }
                }
            }
        }
    }
}
