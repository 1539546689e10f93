//! The stateful session engine: tabs over a shared warehouse, driven by
//! serializable commands.

use std::sync::Arc;

use mirabel_dw::{Dimension, LoaderQuery, MemberId, Warehouse};
use mirabel_viz::Rect;

use crate::command::Command;
use crate::outcome::{AggregationStats, Outcome, SelectionDelta};
use crate::planner::{self, PlanningParams, SessionPlanner};
use crate::tab::{FrameRef, Tab, ViewMode};
use crate::tools::AggregationTools;
use crate::views::dashboard::{self, DashboardOptions};
use crate::views::heatmap::{self, REGION_TAG_BASE};
use crate::views::tooltip::{self, TooltipInfo};
use crate::visual::VisualOffer;

/// Upper bound on a [`Command::Dashboard`] window, in slots (366 days of
/// quarter-hours): commands arrive over a wire, so the work one of them
/// can request must be bounded.
pub const MAX_DASHBOARD_SLOTS: i64 = 96 * 366;

/// Upper bound on a [`Command::SetCanvas`] dimension, in pixels. Layout
/// and the spatial index do O(canvas area / cell area) work, so a
/// wire-decodable canvas size must be bounded like the dashboard window.
pub const MAX_CANVAS_PX: f64 = 16_384.0;

/// Counters a session keeps about its own behaviour — the observable
/// side of the frame cache.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SessionStats {
    /// Commands handled (including rejected ones).
    pub commands: u64,
    /// Commands rejected.
    pub rejected: u64,
}

/// A stateful analysis session: the engine behind the paper's main
/// window, addressable purely through [`Command`]s.
///
/// A `Session` owns view tabs over a shared [`Warehouse`]; a server, a
/// REPL, a test or a recorded script all drive it through
/// [`Session::handle`], which returns a structured [`Outcome`] and never
/// panics. Tabs cache their rendered frame keyed by a revision that only
/// mutating commands bump, so pointer storms (hover, click) are served
/// without rebuilding a scene.
///
/// Many sessions can share one warehouse — see
/// [`crate::ConcurrentPool`].
#[derive(Debug, Clone)]
pub struct Session {
    warehouse: Arc<Warehouse>,
    epoch: u64,
    tabs: Vec<Tab>,
    active: usize,
    tools: AggregationTools,
    planning: Option<PlanningParams>,
    planner: Option<SessionPlanner>,
    stats: SessionStats,
    log: Option<Vec<Command>>,
}

impl Session {
    /// A session over a shared warehouse.
    pub fn new(warehouse: Arc<Warehouse>) -> Session {
        Session {
            warehouse,
            epoch: 0,
            tabs: Vec::new(),
            active: 0,
            tools: AggregationTools::default(),
            planning: None,
            planner: None,
            stats: SessionStats::default(),
            log: None,
        }
    }

    /// The shared warehouse (always `Some`; the `Option` keeps the
    /// signature callers already match on).
    pub fn warehouse(&self) -> Option<&Arc<Warehouse>> {
        Some(&self.warehouse)
    }

    /// The warehouse epoch this session last synchronised to (0 until a
    /// [`LiveWarehouse`](mirabel_dw::LiveWarehouse) publish reaches it).
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Moves the session to a freshly published warehouse snapshot.
    ///
    /// This is the lazy half of the epoch protocol: a publish swaps the
    /// pool's snapshot immediately, but each session pays for the move
    /// only when its next command arrives — live-view tabs re-run their
    /// loader query against the new snapshot, every tab's cached frame
    /// goes stale through the epoch half of its `(revision, epoch)` key,
    /// and frames rebuild on next read. No-op when already at `epoch`.
    pub fn sync_warehouse(&mut self, warehouse: Arc<Warehouse>, epoch: u64) {
        if self.epoch == epoch {
            return;
        }
        for tab in &mut self.tabs {
            tab.sync_epoch(&warehouse, epoch);
        }
        self.warehouse = warehouse;
        self.epoch = epoch;
    }

    /// All tabs.
    pub fn tabs(&self) -> &[Tab] {
        &self.tabs
    }

    /// The active tab, if any.
    pub fn active_tab(&self) -> Option<&Tab> {
        self.tabs.get(self.active)
    }

    /// Mutable access to the active tab.
    ///
    /// Pessimistically bumps the tab's revision: mutations through the
    /// public fields cannot be observed, so the cached frame is assumed
    /// stale.
    pub fn active_tab_mut(&mut self) -> Option<&mut Tab> {
        self.tab_mut(self.active)
    }

    /// Mutable access to tab `index` (revision bumped, see
    /// [`Session::active_tab_mut`]).
    pub fn tab_mut(&mut self, index: usize) -> Option<&mut Tab> {
        let tab = self.tabs.get_mut(index)?;
        tab.touch();
        Some(tab)
    }

    /// Index of the active tab (0 when there are no tabs yet).
    pub fn active_index(&self) -> usize {
        self.active
    }

    /// Command/rejection counters.
    pub fn stats(&self) -> SessionStats {
        self.stats
    }

    /// The planning parameters the next [`Command::Plan`] will use.
    pub fn planning_params(&self) -> PlanningParams {
        self.planning.unwrap_or_default()
    }

    /// Plan generation of the session's standing plan (0 before the
    /// first [`Command::Plan`]); monotone for the whole session.
    pub fn plan_generation(&self) -> u64 {
        self.planner.as_ref().map_or(0, SessionPlanner::generation)
    }

    /// Total frames built across the session's live tabs — compare with
    /// `stats().commands` to see the cache working.
    pub fn frames_built(&self) -> u64 {
        self.tabs.iter().map(Tab::frame_builds).sum()
    }

    /// Starts or stops recording handled commands into a replayable log.
    pub fn set_recording(&mut self, on: bool) {
        if on {
            self.log.get_or_insert_with(Vec::new);
        } else {
            self.log = None;
        }
    }

    /// The recorded command log, if recording is on.
    pub fn log(&self) -> Option<&[Command]> {
        self.log.as_deref()
    }

    /// Stops recording and returns the log recorded so far.
    pub fn take_log(&mut self) -> Vec<Command> {
        self.log.take().unwrap_or_default()
    }

    /// Replays a command log against a fresh session: the deterministic
    /// twin of an interactive run. Replaying the same log over the same
    /// warehouse reproduces the same tabs and the same frame hashes.
    pub fn replay(warehouse: Arc<Warehouse>, commands: &[Command]) -> Session {
        let mut session = Session::new(warehouse);
        for cmd in commands {
            session.handle(cmd.clone());
        }
        session
    }

    /// Opens a prepared tab and activates it. Returns the tab index.
    /// The tab is stamped with the session's current warehouse epoch.
    pub fn open_tab(&mut self, mut tab: Tab) -> usize {
        tab.stamp_epoch(self.epoch);
        self.tabs.push(tab);
        self.active = self.tabs.len() - 1;
        self.active
    }

    /// The Figure 7 loader: offers are shared with the warehouse, not
    /// cloned. The tab remembers its query, so it re-loads as a live
    /// view when the warehouse moves to a new epoch. Returns the new
    /// tab index.
    fn load(&mut self, query: &LoaderQuery, title: String) -> usize {
        let shared = self.warehouse.view(query).materialize();
        self.open_tab(Tab::new(title, VisualOffer::from_shared(&shared)).with_query(*query))
    }

    /// The current frame of the active tab, if any.
    pub fn active_frame(&self) -> Option<FrameRef> {
        self.active_tab().map(Tab::frame)
    }

    /// Content hashes of every tab's current frame, in tab order — the
    /// whole observable rendering of the session in one comparable
    /// value. Two sessions with equal `frame_hashes()` draw pixel-
    /// identical windows; the concurrency tests use this to assert that
    /// parallel replay matches sequential.
    pub fn frame_hashes(&self) -> Vec<u64> {
        self.tabs.iter().map(|t| t.frame().hash).collect()
    }

    /// Applies one command and returns its structured outcome.
    ///
    /// Total: invalid commands (bad tab index, empty selection,
    /// malformed MDX) return [`Outcome::Rejected`] and leave the session
    /// unchanged — they never panic.
    pub fn handle(&mut self, cmd: Command) -> Outcome {
        self.stats.commands += 1;
        if let Some(log) = &mut self.log {
            log.push(cmd.clone());
        }
        let outcome = self.dispatch(cmd);
        if outcome.is_rejected() {
            self.stats.rejected += 1;
        }
        outcome
    }

    fn dispatch(&mut self, cmd: Command) -> Outcome {
        match cmd {
            Command::PointerMove(p) => {
                let Some(tab) = self.tabs.get(self.active) else {
                    return Outcome::Tooltip(None);
                };
                // Served entirely from the cached frame: grid-index probe
                // plus cached id→index lookup; no scene rebuild, no scan.
                let cached = tab.cached();
                let hit = cached.index().hit_topmost(p);
                if tab.is_heatmap() {
                    let info = hit
                        .and_then(|raw| raw.checked_sub(REGION_TAG_BASE))
                        .and_then(|m| heatmap_tooltip(tab, m));
                    return Outcome::Tooltip(info);
                }
                let info = hit
                    .and_then(|raw| cached.lookup().get(&raw).copied())
                    .map(|i| tooltip::info_for(&tab.offers, i));
                Outcome::Tooltip(info)
            }
            Command::Click(p) => {
                let active = self.active;
                let Some(tab) = self.tabs.get_mut(active) else {
                    return Outcome::Rejected("no active tab".into());
                };
                let cached = tab.cached();
                let hit = cached
                    .index()
                    .hit_topmost(p)
                    .and_then(|raw| cached.lookup().get(&raw).copied());
                let mut delta = SelectionDelta { tab: active, ..Default::default() };
                match hit {
                    Some(i) => {
                        let id = tab.offers[i].id();
                        if tab.selection.insert(id) {
                            delta.added.push(id);
                        }
                    }
                    None => {
                        delta.removed = tab.selection.ids().to_vec();
                        tab.selection.clear();
                    }
                }
                delta.total = tab.selection.len();
                Outcome::Selection(delta)
            }
            Command::DragStart(p) => {
                let Some(tab) = self.tabs.get_mut(self.active) else {
                    return Outcome::Rejected("no active tab".into());
                };
                tab.drag_origin = Some(p);
                tab.options.selection_rect = Some(Rect::from_corners(p, p));
                tab.touch();
                Outcome::Ack
            }
            Command::DragEnd(p) => {
                let active = self.active;
                let Some(tab) = self.tabs.get_mut(active) else {
                    return Outcome::Rejected("no active tab".into());
                };
                let Some(origin) = tab.drag_origin.take() else {
                    return Outcome::Rejected("drag-end without drag-start".into());
                };
                let rect = Rect::from_corners(origin, p);
                tab.options.selection_rect = None;
                tab.touch();
                let mut delta = SelectionDelta { tab: active, ..Default::default() };
                // The query runs on the rebuilt frame (sans drag overlay),
                // matching what a user sees when the button is released.
                // One cache access for the whole sweep: per-hit re-locking
                // would make a full-canvas drag O(n) lock round-trips.
                let cached = tab.cached();
                let lookup = cached.lookup();
                for raw in cached.index().query_ordered(rect) {
                    if let Some(&i) = lookup.get(&raw) {
                        let id = tab.offers[i].id();
                        if tab.selection.insert(id) {
                            delta.added.push(id);
                        }
                    }
                }
                delta.total = tab.selection.len();
                Outcome::Selection(delta)
            }
            Command::SetMode(mode) => {
                let Some(tab) = self.tabs.get_mut(self.active) else {
                    return Outcome::Rejected("no active tab".into());
                };
                if tab.mode != mode {
                    tab.mode = mode;
                    tab.touch();
                }
                Outcome::Ack
            }
            Command::ShowSelectionInNewTab => {
                let Some(tab) = self.tabs.get(self.active) else {
                    return Outcome::Rejected("no active tab".into());
                };
                if tab.selection.is_empty() {
                    return Outcome::Rejected("selection is empty".into());
                }
                let all_in_order = tab.selection.len() == tab.offers.len()
                    && tab.selection.iter().zip(tab.offers.iter()).all(|(id, v)| *id == v.id());
                let title = format!("{} (selection)", tab.title);
                let offers = if all_in_order {
                    // Whole view selected in paint order: share the slice.
                    Arc::clone(&tab.offers)
                } else {
                    let cached = tab.cached();
                    let lookup = cached.lookup();
                    tab.selection
                        .iter()
                        .filter_map(|id| lookup.get(&id.raw()).map(|&i| tab.offers[i].clone()))
                        .collect::<Vec<_>>()
                        .into()
                };
                let count = offers.len();
                let tab_idx = self.open_tab(Tab::new(title, offers));
                Outcome::TabOpened { tab: tab_idx, offers: count }
            }
            Command::RemoveSelected => {
                let active = self.active;
                let Some(tab) = self.tabs.get_mut(active) else {
                    return Outcome::Rejected("no active tab".into());
                };
                let mut delta = SelectionDelta { tab: active, ..Default::default() };
                if tab.selection.is_empty() {
                    return Outcome::Selection(delta);
                }
                delta.removed = tab.selection.ids().to_vec();
                let keep: Vec<VisualOffer> = tab
                    .offers
                    .iter()
                    .filter(|v| !tab.selection.contains(v.id()))
                    .cloned()
                    .collect();
                tab.offers = keep.into();
                tab.selection.clear();
                // The on-screen set now diverges from the loader query:
                // stop tracking it across epochs.
                tab.pin_data();
                tab.touch();
                Outcome::Selection(delta)
            }
            Command::ActivateTab(i) => {
                if i < self.tabs.len() {
                    self.active = i;
                    Outcome::TabActivated { tab: i }
                } else {
                    Outcome::Rejected(format!("no tab {i}"))
                }
            }
            Command::CloseTab(i) => {
                if i < self.tabs.len() {
                    self.tabs.remove(i);
                    // Keep the same tab active when one below it closes.
                    if i < self.active {
                        self.active -= 1;
                    } else if self.active >= self.tabs.len() {
                        self.active = self.tabs.len().saturating_sub(1);
                    }
                    Outcome::TabClosed { tab: i }
                } else {
                    Outcome::Rejected(format!("no tab {i}"))
                }
            }
            Command::SetCanvas { width, height } => {
                let sane = width.is_finite()
                    && height.is_finite()
                    && width > 0.0
                    && height > 0.0
                    && width <= MAX_CANVAS_PX
                    && height <= MAX_CANVAS_PX;
                if !sane {
                    return Outcome::Rejected(format!("bad canvas {width}x{height}"));
                }
                let Some(tab) = self.tabs.get_mut(self.active) else {
                    return Outcome::Rejected("no active tab".into());
                };
                tab.options.width = width;
                tab.options.height = height;
                tab.touch();
                Outcome::Ack
            }
            Command::Load { query, title } => {
                let tab_idx = self.load(&query, title);
                let offers = self.tabs[tab_idx].offers.len();
                Outcome::TabOpened { tab: tab_idx, offers }
            }
            Command::SetAggregationParams(params) => {
                self.tools.set_params(params);
                Outcome::Ack
            }
            Command::SetPlanningParams(params) => {
                if !params.is_sane() {
                    return Outcome::Rejected(format!("bad planning params {params:?}"));
                }
                self.planning = Some(params);
                Outcome::Ack
            }
            Command::Plan => {
                let dw = Arc::clone(&self.warehouse);
                let params = self.planning.unwrap_or_default();
                let at = mirabel_dw::EpochRef { warehouse: &dw, epoch: self.epoch };
                match planner::plan(&at, params, self.tools.params(), &mut self.planner) {
                    Ok(update) => {
                        let stats = update.stats;
                        let balance = Arc::new(update.balance);
                        let offers = update.offers;
                        match self.tabs.iter().position(Tab::is_balance) {
                            Some(i) => {
                                let epoch = self.epoch;
                                let tab = self.tab_mut(i).expect("position is in range");
                                tab.offers = offers;
                                tab.set_balance(balance, stats.generation);
                                tab.stamp_epoch(epoch);
                                self.active = i;
                            }
                            None => {
                                let mut tab = Tab::new("Balance", offers);
                                tab.mode = ViewMode::Balance;
                                tab.set_balance(balance, stats.generation);
                                self.open_tab(tab);
                            }
                        }
                        Outcome::Planned(stats)
                    }
                    Err(e) => Outcome::Rejected(e),
                }
            }
            Command::RegionDrill(member) => self.region_focus(member),
            Command::RegionUp => {
                let Some(data) =
                    self.tabs.iter().find(|t| t.is_heatmap()).and_then(|t| t.heatmap()).cloned()
                else {
                    return Outcome::Rejected("no heatmap tab - run region-drill first".into());
                };
                let parent = self
                    .warehouse
                    .hierarchy(Dimension::Geography)
                    .member(data.focus)
                    .and_then(|m| m.parent);
                match parent {
                    Some(p) => self.region_focus(p),
                    None => Outcome::Rejected("already at the top of the geography".into()),
                }
            }
            Command::Aggregate => {
                let Some(tab) = self.tabs.get_mut(self.active) else {
                    return Outcome::Rejected("no active tab".into());
                };
                match self.tools.apply_visual(&tab.offers) {
                    Ok(outcome) => {
                        tab.offers = outcome.display.into();
                        // Aggregation replaces the on-screen set, so the
                        // selection is cleared; report the cleared ids so
                        // thin clients mirroring selection state stay in
                        // sync (every other mutation reports them too).
                        let deselected = std::mem::take(&mut tab.selection).ids().to_vec();
                        // Aggregates are not the loader query's result:
                        // pin the tab so an epoch sync cannot discard
                        // the user's aggregation.
                        tab.pin_data();
                        tab.touch();
                        Outcome::Aggregated {
                            stats: AggregationStats {
                                input_count: outcome.input_count,
                                output_count: outcome.output_count,
                                reduction_factor: outcome.reduction_factor,
                                flexibility_loss_slots: outcome.flexibility_loss_slots,
                            },
                            deselected,
                        }
                    }
                    Err(e) => Outcome::Rejected(format!("aggregation failed: {e}")),
                }
            }
            Command::Mdx(query) => match self.warehouse.mdx(&query) {
                Ok(table) => Outcome::Pivot(table),
                Err(e) => Outcome::Rejected(format!("mdx failed: {e}")),
            },
            Command::Dashboard { from, to, granularity } => {
                if from >= to {
                    return Outcome::Rejected("empty dashboard window".into());
                }
                // The command is wire-decodable, so bound the work it can
                // request: a year of quarter-hours is already far beyond
                // what the Figure 6 dashboard can draw.
                let slots = to.index().saturating_sub(from.index());
                if slots > MAX_DASHBOARD_SLOTS {
                    return Outcome::Rejected(format!(
                        "dashboard window of {slots} slots exceeds the \
                         {MAX_DASHBOARD_SLOTS}-slot limit"
                    ));
                }
                let (width, height) = self
                    .active_tab()
                    .map(|t| (t.options.width, t.options.height))
                    .unwrap_or((960.0, 540.0));
                let scene = Arc::new(dashboard::build(
                    &self.warehouse,
                    &DashboardOptions { width, height, from, to, granularity },
                ));
                let hash = scene.content_hash();
                Outcome::Frame(FrameRef { scene, revision: 0, epoch: self.epoch, hash })
            }
            Command::Render => match self.active_tab() {
                Some(tab) => Outcome::Frame(tab.frame()),
                None => Outcome::Rejected("no active tab".into()),
            },
        }
    }

    /// Focuses the heatmap tab on `member` (its children become the
    /// choropleth cells), opening the tab if the session has none yet.
    /// The per-cell measure is the standing plan folded to geography
    /// leaves — zero everywhere before the first [`Command::Plan`].
    fn region_focus(&mut self, member: MemberId) -> Outcome {
        let dw = Arc::clone(&self.warehouse);
        let (leaf_load, target_total) = match &self.planner {
            Some(p) => (p.leaf_load(&dw), p.target_total()),
            None => (Default::default(), 0.0),
        };
        let data = match heatmap::data_for(&dw, &leaf_load, target_total, member) {
            Ok(data) => Arc::new(data),
            Err(e) => return Outcome::Rejected(e),
        };
        let outcome =
            Outcome::RegionFocus { member: data.focus, level: data.level, cells: data.cells.len() };
        let generation = self.plan_generation();
        match self.tabs.iter().position(Tab::is_heatmap) {
            Some(i) => {
                let epoch = self.epoch;
                let tab = self.tab_mut(i).expect("position is in range");
                tab.set_heatmap(data, generation);
                tab.stamp_epoch(epoch);
                self.active = i;
            }
            None => {
                let mut tab = Tab::new("Heatmap", Vec::<VisualOffer>::new());
                tab.mode = ViewMode::Heatmap;
                tab.set_heatmap(data, generation);
                self.open_tab(tab);
            }
        }
        outcome
    }
}

/// The hover card of one heatmap cell, mirroring what the cell label
/// abbreviates: name, fact count, scheduled vs target energy, and the
/// signed imbalance.
fn heatmap_tooltip(tab: &Tab, member_raw: u64) -> Option<TooltipInfo> {
    let data = tab.heatmap()?;
    let (idx, cell) =
        data.cells.iter().enumerate().find(|(_, c)| u64::from(c.member.0) == member_raw)?;
    Some(TooltipInfo {
        offer_index: idx,
        lines: vec![
            cell.name.clone(),
            format!("offers: {}", cell.offers),
            format!("scheduled: {:+.2} kWh", cell.scheduled_kwh),
            format!("target share: {:.2} kWh", cell.target_kwh),
            format!("imbalance: {:+.2} kWh", cell.imbalance_kwh()),
        ],
    })
}
