//! View tabs with revision-keyed frame caches.
//!
//! A [`Tab`] owns an [`Arc`]-shared slice of [`VisualOffer`]s and lazily
//! materialises everything derived from them into one `CachedFrame`
//! keyed by `(revision, epoch, plan_generation)`. Read-only commands
//! (hover, click, render) reuse the cached frame; only mutating commands
//! bump the key and pay for a rebuild on the next read. This is the
//! paper's "rendering does not freeze the tool" discipline made
//! explicit: a 10k-event pointer storm builds exactly one frame.
//!
//! A frame builds eagerly only what a `render` reads: the [`Scene`], its
//! content hash, and the [`DetailLayout`] when the basic or profile view
//! draws with it. The rest is built on first use, once per frame,
//! through a `OnceLock`: the [`GridIndex`] on the first pointer probe
//! (hover, click, drag), the id→index lookup when a hit, a drag or a
//! show-selection first needs it, and the layout of a balance or
//! heatmap frame on the first [`Tab::layout`] call. A live balance tab re-planned and
//! rendered, then left for another tab, never pays for the index.

use std::collections::HashMap;
use std::sync::{Arc, Mutex, OnceLock};

use mirabel_dw::{LoaderQuery, Warehouse};
use mirabel_flexoffer::FlexOfferId;
use mirabel_viz::{GridIndex, Point, Scene};

use crate::views::balance::{self, BalanceData};
use crate::views::basic::{self, BasicViewOptions};
use crate::views::heatmap::{self, HeatmapData};
use crate::views::profile;
use crate::views::DetailLayout;
use crate::visual::VisualOffer;

/// Grid-index cell size (pixels) for cached pointer probes.
const GRID_CELL: f64 = 32.0;

/// Which detail view a tab shows: the paper's basic and profile views,
/// plus the balance view the live planning subsystem adds (Figure 1 as
/// a tab).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ViewMode {
    /// The Figure 8 basic view.
    #[default]
    Basic,
    /// The Figure 9 profile view.
    Profile,
    /// The Figure 1 balance view (target vs. scheduled load) — only
    /// meaningful on a tab carrying [`Tab::balance`] data.
    Balance,
    /// The spatial heatmap (per-region choropleth of scheduled load) —
    /// only meaningful on a tab carrying [`Tab::heatmap`] data.
    Heatmap,
}

/// An insertion-ordered selection with O(1) membership tests — the
/// set-backed replacement for the old `Vec<FlexOfferId>` whose
/// `contains` made click/drag selection O(n²).
#[derive(Debug, Clone, Default)]
pub struct Selection {
    order: Vec<FlexOfferId>,
    set: std::collections::HashSet<FlexOfferId>,
}

impl Selection {
    /// An empty selection.
    pub fn new() -> Selection {
        Selection::default()
    }

    /// Adds `id` if absent; returns `true` when it was added.
    pub fn insert(&mut self, id: FlexOfferId) -> bool {
        if self.set.insert(id) {
            self.order.push(id);
            true
        } else {
            false
        }
    }

    /// O(1) membership test.
    pub fn contains(&self, id: FlexOfferId) -> bool {
        self.set.contains(&id)
    }

    /// Empties the selection.
    pub fn clear(&mut self) {
        self.order.clear();
        self.set.clear();
    }

    /// Number of selected offers.
    pub fn len(&self) -> usize {
        self.order.len()
    }

    /// `true` when nothing is selected.
    pub fn is_empty(&self) -> bool {
        self.order.is_empty()
    }

    /// Selected ids in insertion order.
    pub fn ids(&self) -> &[FlexOfferId] {
        &self.order
    }

    /// Iterates the selected ids in insertion order.
    pub fn iter(&self) -> std::slice::Iter<'_, FlexOfferId> {
        self.order.iter()
    }
}

impl PartialEq for Selection {
    fn eq(&self, other: &Selection) -> bool {
        self.order == other.order
    }
}

/// Lets tests keep asserting `tab.selection == vec![id]`.
impl PartialEq<Vec<FlexOfferId>> for Selection {
    fn eq(&self, other: &Vec<FlexOfferId>) -> bool {
        self.order == *other
    }
}

impl<'a> IntoIterator for &'a Selection {
    type Item = &'a FlexOfferId;
    type IntoIter = std::slice::Iter<'a, FlexOfferId>;
    fn into_iter(self) -> Self::IntoIter {
        self.order.iter()
    }
}

impl FromIterator<FlexOfferId> for Selection {
    fn from_iter<I: IntoIterator<Item = FlexOfferId>>(iter: I) -> Selection {
        let mut s = Selection::new();
        for id in iter {
            s.insert(id);
        }
        s
    }
}

/// A handle to one rendered, versioned frame: cheap to clone, cheap to
/// compare, safe to ship to a thin client or hold across commands.
#[derive(Debug, Clone)]
pub struct FrameRef {
    /// The rendered scene (shared with the tab's cache).
    pub scene: Arc<Scene>,
    /// Tab revision the frame was built at.
    pub revision: u64,
    /// Warehouse epoch the frame was built at (0 until the session sees
    /// its first [`publish`](mirabel_dw::LiveWarehouse::publish)).
    pub epoch: u64,
    /// Structural content hash of the scene (see
    /// [`Scene::content_hash`]); equal hashes ⇒ identical rendering.
    pub hash: u64,
}

/// Everything derived from a tab's offers at one
/// `(revision, epoch, plan_generation)` key: the scene and its hash,
/// built with the frame, and the parts built on first use (see the
/// [module docs](self)).
#[derive(Debug)]
pub(crate) struct CachedFrame {
    pub(crate) revision: u64,
    pub(crate) epoch: u64,
    pub(crate) plan_generation: u64,
    pub(crate) scene: Arc<Scene>,
    pub(crate) hash: u64,
    /// The offers and canvas the frame was drawn from, kept for the
    /// parts built on first use.
    offers: Arc<[VisualOffer]>,
    canvas: (f64, f64),
    layout: OnceLock<Arc<DetailLayout>>,
    index: OnceLock<Arc<GridIndex>>,
    /// Raw offer id → first index in `offers` (mirrors the linear
    /// `position()` the pre-session `App` ran per hit).
    lookup: OnceLock<HashMap<u64, usize>>,
}

impl CachedFrame {
    /// The layout the frame's offers take on its canvas.
    pub(crate) fn layout(&self) -> &Arc<DetailLayout> {
        self.layout.get_or_init(|| {
            Arc::new(DetailLayout::compute(&self.offers, self.canvas.0, self.canvas.1))
        })
    }

    /// The spatial index over the frame's scene, for pointer probes.
    pub(crate) fn index(&self) -> &Arc<GridIndex> {
        self.index.get_or_init(|| Arc::new(GridIndex::build(&self.scene, GRID_CELL)))
    }

    /// Raw offer id → first index in the frame's offers.
    pub(crate) fn lookup(&self) -> &HashMap<u64, usize> {
        self.lookup.get_or_init(|| {
            let mut lookup = HashMap::with_capacity(self.offers.len());
            for (i, v) in self.offers.iter().enumerate() {
                lookup.entry(v.id().raw()).or_insert(i);
            }
            lookup
        })
    }

    /// Which lazy parts exist yet: `(layout, index, lookup)`.
    #[cfg(test)]
    fn built(&self) -> (bool, bool, bool) {
        (self.layout.get().is_some(), self.index.get().is_some(), self.lookup.get().is_some())
    }
}

#[derive(Debug, Default)]
struct CacheSlot {
    frame: Option<Arc<CachedFrame>>,
    builds: u64,
}

/// One view tab in the main window.
#[derive(Debug)]
pub struct Tab {
    /// Tab title (e.g. the loader selection that produced it).
    pub title: String,
    /// The offers on this tab, shared rather than cloned per tab.
    pub offers: Arc<[VisualOffer]>,
    /// Current view mode.
    pub mode: ViewMode,
    /// Selected offer ids.
    pub selection: Selection,
    /// An in-progress drag rectangle (origin point), if any.
    pub(crate) drag_origin: Option<Point>,
    /// Canvas geometry.
    pub options: BasicViewOptions,
    /// The loader query this tab tracks across warehouse epochs, if any.
    /// Cleared when a command pins the tab's data (aggregation, removal).
    query: Option<LoaderQuery>,
    /// The plan curves of a balance tab (`None` on ordinary tabs).
    balance: Option<Arc<BalanceData>>,
    /// The region cells of a heatmap tab (`None` on ordinary tabs).
    heatmap: Option<Arc<HeatmapData>>,
    /// Plan generation the balance data or heatmap cells were produced
    /// at — the third part of the cache key, set with the balance data
    /// after every re-plan and with the heatmap cells on every drill.
    plan_generation: u64,
    revision: u64,
    epoch: u64,
    cache: Mutex<CacheSlot>,
}

impl Clone for Tab {
    fn clone(&self) -> Tab {
        Tab {
            title: self.title.clone(),
            offers: Arc::clone(&self.offers),
            mode: self.mode,
            selection: self.selection.clone(),
            drag_origin: self.drag_origin,
            options: self.options,
            query: self.query,
            balance: self.balance.clone(),
            heatmap: self.heatmap.clone(),
            plan_generation: self.plan_generation,
            revision: self.revision,
            epoch: self.epoch,
            cache: Mutex::new(CacheSlot {
                frame: self.cache.lock().expect("tab cache").frame.clone(),
                builds: 0,
            }),
        }
    }
}

impl Tab {
    /// Creates a tab over the given offers.
    pub fn new(title: impl Into<String>, offers: impl Into<Arc<[VisualOffer]>>) -> Tab {
        Tab {
            title: title.into(),
            offers: offers.into(),
            mode: ViewMode::Basic,
            selection: Selection::new(),
            drag_origin: None,
            options: BasicViewOptions::default(),
            query: None,
            balance: None,
            heatmap: None,
            plan_generation: 0,
            revision: 0,
            epoch: 0,
            cache: Mutex::new(CacheSlot::default()),
        }
    }

    /// The plan curves of a balance tab, if this is one.
    pub fn balance(&self) -> Option<&Arc<BalanceData>> {
        self.balance.as_ref()
    }

    /// `true` when this tab is the session's balance view.
    pub fn is_balance(&self) -> bool {
        self.balance.is_some()
    }

    /// Plan generation this tab's balance data was produced at.
    pub fn plan_generation(&self) -> u64 {
        self.plan_generation
    }

    /// Installs fresh plan curves and generation (the session calls
    /// this after every successful re-plan). The cached frame goes
    /// stale through the `plan_generation` third of its key.
    pub(crate) fn set_balance(&mut self, data: Arc<BalanceData>, generation: u64) {
        self.balance = Some(data);
        self.plan_generation = generation;
    }

    /// The region cells of a heatmap tab, if this is one.
    pub fn heatmap(&self) -> Option<&Arc<HeatmapData>> {
        self.heatmap.as_ref()
    }

    /// `true` when this tab is the session's spatial heatmap.
    pub fn is_heatmap(&self) -> bool {
        self.heatmap.is_some()
    }

    /// Installs fresh heatmap cells, stamped with the plan generation
    /// they were folded from. The session calls this on every
    /// `region-drill` and `region-up`, never on a plan:
    /// [`Command::Plan`](crate::Command::Plan) refreshes only the
    /// balance tab, so the cells pick up a newer plan at the next drill.
    /// The generation rides the same `plan_generation` third of the
    /// cache key as balance data, so a drill that folds a newer plan
    /// invalidates the choropleth without touching the revision, and a
    /// hover storm between drills builds one frame.
    pub(crate) fn set_heatmap(&mut self, data: Arc<HeatmapData>, generation: u64) {
        self.heatmap = Some(data);
        self.plan_generation = generation;
    }

    /// Marks this tab as a **live view** of `query`: when the session's
    /// warehouse moves to a new epoch, the tab re-runs the query against
    /// the fresh snapshot (see
    /// [`Session::sync_warehouse`](crate::Session::sync_warehouse)).
    pub fn with_query(mut self, query: LoaderQuery) -> Tab {
        self.query = Some(query);
        self
    }

    /// The loader query this tab tracks, if it is a live view.
    pub fn query(&self) -> Option<LoaderQuery> {
        self.query
    }

    /// Pins the tab's current data set: it stops tracking its loader
    /// query across epochs. Called when a command makes the on-screen
    /// set diverge from the query result (aggregation, manual removal).
    pub(crate) fn pin_data(&mut self) {
        self.query = None;
    }

    /// The warehouse epoch this tab last synchronised to.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Stamps the tab with the session's current epoch at open time
    /// (without reloading anything — the tab was just built from that
    /// epoch's data).
    pub(crate) fn stamp_epoch(&mut self, epoch: u64) {
        self.epoch = epoch;
    }

    /// Moves the tab to warehouse epoch `epoch`: a live-view tab re-runs
    /// its loader query against `dw` (dropping selection entries whose
    /// offers vanished), every tab's cached frame goes stale via the
    /// epoch half of its `(revision, epoch)` key, and the rebuild is
    /// paid lazily on the next read — a publish never blocks on
    /// rendering.
    ///
    /// Note for thin clients mirroring selection state: an epoch sync
    /// happens *between* commands, so selection pruning here is not
    /// reported through a [`SelectionDelta`](crate::SelectionDelta) —
    /// on observing a new [`FrameRef::epoch`], re-read the tab's
    /// selection instead of diffing outcomes.
    pub(crate) fn sync_epoch(&mut self, dw: &Warehouse, epoch: u64) {
        if self.epoch == epoch {
            return;
        }
        if let Some(q) = self.query {
            let offers = VisualOffer::from_shared(&dw.view(&q).materialize());
            let live: std::collections::HashSet<FlexOfferId> =
                offers.iter().map(VisualOffer::id).collect();
            self.selection =
                self.selection.iter().copied().filter(|id| live.contains(id)).collect();
            self.offers = offers.into();
        }
        self.epoch = epoch;
    }

    /// The tab's current revision. Bumped by every mutating command (and
    /// pessimistically by mutable access); the cached frame is valid
    /// exactly while the `(revision, epoch)` pair stands still — a
    /// warehouse publish invalidates through [`Tab::epoch`] without
    /// touching the revision, so clients tracking frame identity must
    /// compare both halves (or simply compare [`FrameRef::hash`]).
    pub fn revision(&self) -> u64 {
        self.revision
    }

    /// Invalidates the cached frame by bumping the revision.
    ///
    /// Called by the session for mutating commands, and by anything
    /// handing out `&mut Tab` (mutations through the public fields
    /// cannot be observed, so mutable access invalidates pessimistically).
    pub fn touch(&mut self) {
        self.revision += 1;
    }

    /// How many frames this tab has built so far — the cache-efficiency
    /// counter behind [`crate::SessionStats`].
    pub fn frame_builds(&self) -> u64 {
        self.cache.lock().expect("tab cache").builds
    }

    /// The layout shared by rendering and interaction.
    pub fn layout(&self) -> Arc<DetailLayout> {
        Arc::clone(self.cached().layout())
    }

    /// The tab's current scene (without tooltip overlay), served from the
    /// frame cache.
    pub fn scene(&self) -> Arc<Scene> {
        Arc::clone(&self.cached().scene)
    }

    /// The spatial index over the current scene, for pointer probes
    /// (built by the first probe of each frame).
    pub fn grid_index(&self) -> Arc<GridIndex> {
        Arc::clone(self.cached().index())
    }

    /// A versioned handle to the current frame.
    pub fn frame(&self) -> FrameRef {
        let c = self.cached();
        FrameRef { scene: Arc::clone(&c.scene), revision: c.revision, epoch: c.epoch, hash: c.hash }
    }

    /// Index of the offer with `id` (first match, as the views draw it).
    pub fn index_of(&self, id: FlexOfferId) -> Option<usize> {
        self.index_of_raw(id.raw())
    }

    /// Index of the offer whose raw id is `raw`, via the cached lookup.
    pub(crate) fn index_of_raw(&self, raw: u64) -> Option<usize> {
        self.cached().lookup().get(&raw).copied()
    }

    /// The cached frame for the current `(revision, epoch,
    /// plan_generation)` key, building its scene if stale.
    pub(crate) fn cached(&self) -> Arc<CachedFrame> {
        let mut slot = self.cache.lock().expect("tab cache");
        if let Some(c) = &slot.frame {
            if c.revision == self.revision
                && c.epoch == self.epoch
                && c.plan_generation == self.plan_generation
            {
                return Arc::clone(c);
            }
        }
        let (width, height) = (self.options.width, self.options.height);
        let layout = OnceLock::new();
        let scene = match (self.mode, &self.balance) {
            (ViewMode::Balance, Some(data)) => balance::build(&self.offers, data, &self.options),
            (ViewMode::Balance, None) => {
                balance::build(&self.offers, &BalanceData::empty(), &self.options)
            }
            (ViewMode::Heatmap, _) => match &self.heatmap {
                Some(data) => heatmap::build(data, &self.options),
                None => heatmap::build(&HeatmapData::empty(), &self.options),
            },
            (ViewMode::Basic | ViewMode::Profile, _) => {
                let drawn = layout
                    .get_or_init(|| Arc::new(DetailLayout::compute(&self.offers, width, height)));
                if self.mode == ViewMode::Basic {
                    basic::build_with_layout(&self.offers, &self.options, drawn)
                } else {
                    profile::build_with_layout(&self.offers, &self.options, drawn)
                }
            }
        };
        let hash = scene.content_hash();
        let frame = Arc::new(CachedFrame {
            revision: self.revision,
            epoch: self.epoch,
            plan_generation: self.plan_generation,
            scene: Arc::new(scene),
            hash,
            offers: Arc::clone(&self.offers),
            canvas: (width, height),
            layout,
            index: OnceLock::new(),
            lookup: OnceLock::new(),
        });
        slot.frame = Some(Arc::clone(&frame));
        slot.builds += 1;
        frame
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mirabel_flexoffer::{Energy, FlexOffer};
    use mirabel_timeseries::TimeSlot;

    fn offers(n: u64) -> Vec<VisualOffer> {
        VisualOffer::from_offers(
            &(0..n)
                .map(|i| {
                    FlexOffer::builder(i + 1, i + 1)
                        .earliest_start(TimeSlot::new((i % 8) as i64))
                        .latest_start(TimeSlot::new((i % 8) as i64 + 4))
                        .slices(2, Energy::from_wh(10), Energy::from_wh(40))
                        .build()
                        .unwrap()
                })
                .collect::<Vec<_>>(),
        )
    }

    #[test]
    fn repeated_reads_reuse_one_frame() {
        let tab = Tab::new("t", offers(30));
        let s1 = tab.scene();
        let s2 = tab.scene();
        let f = tab.frame();
        let _ = tab.layout();
        let _ = tab.grid_index();
        assert!(Arc::ptr_eq(&s1, &s2), "scene must be cached");
        assert!(Arc::ptr_eq(&s1, &f.scene));
        assert_eq!(tab.frame_builds(), 1);
        assert_eq!(f.revision, 0);
        assert_eq!(f.hash, s1.content_hash());
    }

    #[test]
    fn touch_invalidates_and_mode_changes_frame() {
        let mut tab = Tab::new("t", offers(12));
        let before = tab.frame();
        tab.mode = ViewMode::Profile;
        tab.touch();
        let after = tab.frame();
        assert_eq!(tab.frame_builds(), 2);
        assert!(after.revision > before.revision);
        assert_ne!(before.hash, after.hash);
        assert!(!Arc::ptr_eq(&before.scene, &after.scene));
    }

    #[test]
    fn lookup_matches_linear_position() {
        let vs = offers(20);
        let tab = Tab::new("t", vs.clone());
        for (i, v) in vs.iter().enumerate() {
            assert_eq!(tab.index_of(v.id()), Some(i));
        }
        assert_eq!(tab.index_of(FlexOfferId(999)), None);
    }

    #[test]
    fn plan_generation_is_the_third_cache_key() {
        use crate::views::balance::BalanceData;
        use mirabel_timeseries::TimeSeries;
        let mut tab = Tab::new("balance", offers(6));
        tab.mode = ViewMode::Balance;
        let placeholder = tab.frame();
        assert_eq!(tab.frame_builds(), 1);

        let data = BalanceData {
            target: TimeSeries::constant(TimeSlot::EPOCH, 8, 2.0),
            scheduled: TimeSeries::constant(TimeSlot::EPOCH, 8, 1.0),
        };
        tab.set_balance(Arc::new(data.clone()), 1);
        let planned = tab.frame();
        assert_eq!(tab.frame_builds(), 2, "new generation must invalidate");
        assert_ne!(placeholder.hash, planned.hash);

        // Same generation, same revision, same epoch → cached.
        let again = tab.frame();
        assert_eq!(tab.frame_builds(), 2);
        assert!(Arc::ptr_eq(&planned.scene, &again.scene));

        // A re-plan with identical curves but a new generation rebuilds
        // (the session cannot inspect curve equality cheaply).
        tab.set_balance(Arc::new(data), 2);
        let _ = tab.frame();
        assert_eq!(tab.frame_builds(), 3);
        assert_eq!(tab.plan_generation(), 2);
        assert!(tab.is_balance());
    }

    /// Probes every view mode through the session and checks each
    /// answer against an eager `GridIndex::build` of the scene the probe
    /// ran on, with a linear id lookup.
    #[test]
    fn frames_build_the_index_on_first_probe_and_probe_like_an_eager_build() {
        use crate::views::heatmap::REGION_TAG_BASE;
        use crate::{Command, Outcome, Session};
        use mirabel_dw::{Dimension, LiveWarehouse};
        use mirabel_viz::Rect;
        use mirabel_workload::{generate_offers, OfferConfig, Population, PopulationConfig};

        let pop = Population::generate(&PopulationConfig {
            size: 40,
            seed: 0x1A2E,
            household_share: 0.8,
        });
        let live = LiveWarehouse::new(pop.clone(), &generate_offers(&pop, &OfferConfig::default()));
        live.advance_day();
        let dw = Arc::clone(live.publish().warehouse());
        let root = dw.hierarchy(Dimension::Geography).all().id;
        let mut session = Session::new(Arc::clone(&dw));
        session
            .handle(Command::Load { query: LoaderQuery::builder().build(), title: "all".into() });
        assert!(session.handle(Command::Plan).plan().is_some());
        session.handle(Command::RegionDrill(root));
        let tab_of = |s: &Session, mode: ViewMode| {
            s.tabs().iter().position(|t| t.mode == mode).expect("tab per mode")
        };

        // A rendered balance or heatmap frame has built none of the lazy
        // parts; the first hover builds the index, and only it, once.
        for mode in [ViewMode::Balance, ViewMode::Heatmap] {
            let i = tab_of(&session, mode);
            session.handle(Command::ActivateTab(i));
            assert!(matches!(session.handle(Command::Render), Outcome::Frame(_)));
            let tab = &session.tabs()[i];
            let builds = tab.frame_builds();
            assert_eq!(tab.cached().built(), (false, false, false), "{mode:?} after render");
            session.handle(Command::PointerMove(Point::new(300.0, 200.0)));
            let tab = &session.tabs()[i];
            let index = Arc::clone(tab.cached().index());
            assert!(tab.cached().built().1, "{mode:?}: the first probe builds the index");
            session.handle(Command::PointerMove(Point::new(310.0, 210.0)));
            let tab = &session.tabs()[i];
            assert!(Arc::ptr_eq(&index, tab.cached().index()), "{mode:?}: built once");
            assert_eq!(tab.frame_builds(), builds, "{mode:?}: probes build no frame");
        }

        // Basic and profile draw the loaded tab; every mode answers
        // hovers, clicks, drags and show-selection like an eager index.
        let loaded = tab_of(&session, ViewMode::Basic);
        for mode in [ViewMode::Basic, ViewMode::Profile, ViewMode::Balance, ViewMode::Heatmap] {
            let i = if mode == ViewMode::Profile { loaded } else { tab_of(&session, mode) };
            session.handle(Command::ActivateTab(i));
            session.handle(Command::SetMode(mode));
            let tab = &session.tabs()[i];
            let (w, h) = (tab.options.width, tab.options.height);
            let points: Vec<Point> = (0..16)
                .flat_map(|x| (0..9).map(move |y| (x, y)))
                .map(|(x, y)| Point::new(w * (x as f64 + 0.5) / 16.0, h * (y as f64 + 0.5) / 9.0))
                .collect();
            // Offer index (or heatmap cell index) an eager index finds.
            let eager_hit = |s: &Session, p: Point| {
                let tab = &s.tabs()[i];
                let raw = GridIndex::build(&tab.scene(), GRID_CELL).hit_topmost(p)?;
                match tab.heatmap() {
                    Some(data) => data.cells.iter().position(|c| {
                        Some(u64::from(c.member.0)) == raw.checked_sub(REGION_TAG_BASE)
                    }),
                    None => tab.offers.iter().position(|v| v.id().raw() == raw),
                }
            };
            let mut hits = 0;
            for &p in &points {
                let want = eager_hit(&session, p);
                hits += usize::from(want.is_some());
                match session.handle(Command::PointerMove(p)) {
                    Outcome::Tooltip(info) => {
                        assert_eq!(info.map(|t| t.offer_index), want, "{mode:?} hover at {p:?}")
                    }
                    other => panic!("{mode:?} hover answered {other:?}"),
                }
            }
            assert!(hits > 0, "{mode:?}: the probe grid must hit something");

            // Clicks select what an eager hit names (heatmap cells are
            // not offers: a click there clears the selection).
            for &p in points.iter().step_by(7) {
                let tab = &session.tabs()[i];
                let want = if tab.is_heatmap() {
                    None
                } else {
                    eager_hit(&session, p).map(|k| tab.offers[k].id())
                };
                let before = tab.selection.clone();
                let Outcome::Selection(delta) = session.handle(Command::Click(p)) else {
                    panic!("{mode:?} click rejected")
                };
                match want {
                    Some(id) if !before.contains(id) => assert_eq!(delta.added, vec![id]),
                    Some(_) => assert!(delta.added.is_empty()),
                    None => assert_eq!(delta.removed, before.ids().to_vec(), "{mode:?}"),
                }
            }

            // A drag selects the eager index's ordered query over the
            // scene it ran on, minus what was already selected.
            let before = session.tabs()[i].selection.clone();
            let (a, b) = (Point::new(w * 0.2, h * 0.1), Point::new(w * 0.8, h * 0.9));
            session.handle(Command::DragStart(a));
            let Outcome::Selection(delta) = session.handle(Command::DragEnd(b)) else {
                panic!("{mode:?} drag rejected")
            };
            let tab = &session.tabs()[i];
            let mut want = Vec::new();
            if !tab.is_heatmap() {
                for raw in GridIndex::build(&tab.scene(), GRID_CELL)
                    .query_ordered(Rect::from_corners(a, b))
                {
                    if let Some(v) = tab.offers.iter().find(|v| v.id().raw() == raw) {
                        if !before.contains(v.id()) && !want.contains(&v.id()) {
                            want.push(v.id());
                        }
                    }
                }
            }
            assert_eq!(delta.added, want, "{mode:?} drag");

            // Show-selection opens the selected offers, in selection
            // order, each resolved to its first position.
            let tab = &session.tabs()[i];
            let want: Vec<FlexOfferId> = tab
                .selection
                .iter()
                .filter_map(|id| tab.offers.iter().find(|v| v.id() == *id).map(VisualOffer::id))
                .collect();
            match session.handle(Command::ShowSelectionInNewTab) {
                Outcome::TabOpened { tab: opened, .. } => {
                    let got: Vec<FlexOfferId> =
                        session.tabs()[opened].offers.iter().map(VisualOffer::id).collect();
                    assert_eq!(got, want, "{mode:?} show-selection");
                    session.handle(Command::CloseTab(opened));
                }
                Outcome::Rejected(_) => assert!(want.is_empty(), "{mode:?} show-selection"),
                other => panic!("{mode:?} show-selection answered {other:?}"),
            }
        }
    }

    #[test]
    fn selection_is_ordered_and_deduplicated() {
        let mut s = Selection::new();
        assert!(s.insert(FlexOfferId(3)));
        assert!(s.insert(FlexOfferId(1)));
        assert!(!s.insert(FlexOfferId(3)));
        assert_eq!(s.len(), 2);
        assert!(s.contains(FlexOfferId(1)));
        assert_eq!(s, vec![FlexOfferId(3), FlexOfferId(1)]);
        s.clear();
        assert!(s.is_empty());
    }
}
