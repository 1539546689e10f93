//! The heatmap tab: a drill-down choropleth of per-region scheduled
//! load and imbalance over the spatial dimension.
//!
//! Where the map view (Figure 3) shades the five static regions by a
//! warehouse measure, the heatmap rides the *plan*: each cell is one
//! child of the current focus member of the geography hierarchy —
//! country → regions, region → cities, city → districts — shaded by the
//! scheduled energy the standing plan placed in that subtree, and
//! annotated with the cell's proportional target share so imbalance is
//! readable per region. `region-drill`/`region-up` commands move the
//! focus; every cell polygon is tagged so hover hit-testing works like
//! the detail views.
//!
//! The scene is a pure function of `(data, options)`; the tab caches it
//! keyed by `(revision, epoch, plan_generation)` exactly like the
//! balance view, so a hover storm between drills builds one frame. The
//! cells are folded from the standing plan when a drill runs; a plan
//! alone does not refresh them.

use std::collections::HashMap;

use mirabel_dw::{region_leaves, Dimension, MemberId, Warehouse};
use mirabel_geo::{choropleth_bucket, BoundingBox, GeoPoint, Geography, Projection};
use mirabel_viz::{palette, Node, Point, Scene, Style};

use crate::views::basic::BasicViewOptions;

/// Scene tags of heatmap cells are `REGION_TAG_BASE + member id`, so
/// they can never collide with the offer-id tags of the detail views
/// (offer ids live far below this in every workload).
pub const REGION_TAG_BASE: u64 = 1 << 48;

/// One cell of the heatmap: a child of the focus member.
#[derive(Debug, Clone, PartialEq)]
pub struct HeatmapCell {
    /// The geography hierarchy member this cell covers.
    pub member: MemberId,
    /// Member display name.
    pub name: String,
    /// Facts in the member's subtree (answered by the spatial index).
    pub offers: usize,
    /// Net scheduled energy (kWh, signed) the standing plan placed in
    /// the subtree; 0 before the first plan.
    pub scheduled_kwh: f64,
    /// The cell's proportional share of the plan target (kWh).
    pub target_kwh: f64,
    /// Cell outline in geographic coordinates: the real region polygon
    /// at level 1, synthetic site squares at levels 2–3.
    pub outline: Vec<GeoPoint>,
}

impl HeatmapCell {
    /// Scheduled minus target share: the cell's signed imbalance (kWh).
    pub fn imbalance_kwh(&self) -> f64 {
        self.scheduled_kwh - self.target_kwh
    }
}

/// Everything one heatmap frame is built from.
#[derive(Debug, Clone, PartialEq)]
pub struct HeatmapData {
    /// The focus member (cells are its children).
    pub focus: MemberId,
    /// Hierarchy level of the focus (0 = country).
    pub level: u8,
    /// Root-to-focus names, for the title breadcrumb.
    pub path: Vec<String>,
    /// One cell per child of the focus, in member-id order.
    pub cells: Vec<HeatmapCell>,
}

impl HeatmapData {
    /// A placeholder (used by heatmap tabs before the first drill).
    pub fn empty() -> HeatmapData {
        HeatmapData { focus: MemberId(0), level: 0, path: Vec::new(), cells: Vec::new() }
    }
}

/// Builds the heatmap data for `focus` against one warehouse snapshot
/// and the standing plan, folded to per-leaf scheduled energy
/// (`leaf_load`, kWh signed) with `target_total` kWh to share out.
/// Rejects unknown members and district leaves (nothing below them to
/// drill into).
pub fn data_for(
    dw: &Warehouse,
    leaf_load: &HashMap<MemberId, f64>,
    target_total: f64,
    focus: MemberId,
) -> Result<HeatmapData, String> {
    let h = dw.hierarchy(Dimension::Geography);
    let Some(member) = h.member(focus) else {
        return Err(format!("no geography member {}", focus.0));
    };
    if member.level >= 3 {
        return Err(format!("cannot drill into district {:?}", member.name));
    }
    let geo = dw.geography_model();
    let total_facts = dw.columns().len();
    let spatial = dw.spatial_index();
    let mut cells = Vec::new();
    for child in h.children(focus) {
        // Every fact has exactly one geography leaf, so the subtree's
        // count is the sum of its leaves' posting lengths.
        let leaves = region_leaves(h, child.id);
        let offers = leaves.iter().map(|&leaf| spatial.indices(leaf).len()).sum();
        let scheduled_kwh: f64 =
            leaves.iter().map(|leaf| leaf_load.get(leaf).copied().unwrap_or(0.0)).sum();
        let target_kwh =
            if total_facts == 0 { 0.0 } else { target_total * offers as f64 / total_facts as f64 };
        cells.push(HeatmapCell {
            member: child.id,
            name: child.name.clone(),
            offers,
            scheduled_kwh,
            target_kwh,
            outline: outline_of(geo, h, child.id),
        });
    }
    Ok(HeatmapData {
        focus,
        level: member.level,
        path: h.path(focus).into_iter().map(str::to_string).collect(),
        cells,
    })
}

/// The geographic outline of one hierarchy member: the real polygon for
/// a region, a square around the city site for a city, a quadrant
/// square next to the parent city site for a district (matching the
/// quadrant [`Geography::resolve_district`] assigns), and a square east
/// of the country for the synthetic `Unassigned` branch.
fn outline_of(geo: &Geography, h: &mirabel_dw::Hierarchy, member: MemberId) -> Vec<GeoPoint> {
    let Some(m) = h.member(member) else { return Vec::new() };
    match m.level {
        1 => match geo.region_by_name(&m.name) {
            Some(region) => region.polygon.vertices().to_vec(),
            None => unassigned_square(geo, 0.30),
        },
        2 => match geo.city_by_name(&m.name) {
            Some(city) => square(city.location, 0.15),
            None => unassigned_square(geo, 0.20),
        },
        3 => {
            let city = m.parent.and_then(|p| h.member(p)).and_then(|pm| geo.city_by_name(&pm.name));
            let Some(city) = city else { return unassigned_square(geo, 0.12) };
            let quadrant =
                m.parent.map(|p| h.children(p).take_while(|c| c.id != member).count()).unwrap_or(0);
            let east = if quadrant % 2 == 1 { 1.0 } else { -1.0 };
            let north = if quadrant / 2 == 1 { 1.0 } else { -1.0 };
            let center =
                GeoPoint::new(city.location.lon + east * 0.11, city.location.lat + north * 0.11);
            square(center, 0.09)
        }
        _ => Vec::new(),
    }
}

fn square(center: GeoPoint, half: f64) -> Vec<GeoPoint> {
    vec![
        GeoPoint::new(center.lon - half, center.lat - half),
        GeoPoint::new(center.lon + half, center.lat - half),
        GeoPoint::new(center.lon + half, center.lat + half),
        GeoPoint::new(center.lon - half, center.lat + half),
    ]
}

/// A deterministic parking spot east of the country outline for the
/// `Unassigned` members, which have no geometry of their own.
fn unassigned_square(geo: &Geography, half: f64) -> Vec<GeoPoint> {
    let bb = geo.bounding_box();
    let center =
        GeoPoint::new(bb.max_lon + bb.width().max(1.0) * 0.12, (bb.min_lat + bb.max_lat) / 2.0);
    square(center, half)
}

/// Builds the heatmap scene: one tagged polygon per cell, shaded by
/// scheduled load, labelled with name and scheduled/target numbers.
pub fn build(data: &HeatmapData, options: &BasicViewOptions) -> Scene {
    let mut scene = Scene::new(options.width, options.height);
    if data.cells.is_empty() {
        scene.push(Node::text_centered(
            Point::new(options.width / 2.0, options.height / 2.0),
            "no heatmap yet - run the region-drill command",
            10.0,
            palette::AXIS,
        ));
        return scene;
    }

    let mut bb = BoundingBox::empty();
    for cell in &data.cells {
        for &p in &cell.outline {
            bb.include(p);
        }
    }
    let proj = Projection::fit(bb, options.width, options.height, 24.0);
    let classes = 5usize;
    let max_abs = data.cells.iter().map(|c| c.scheduled_kwh.abs()).fold(0.0f64, f64::max).max(1.0);

    let mut polys = Vec::with_capacity(data.cells.len());
    let mut labels = Vec::new();
    for cell in &data.cells {
        let points: Vec<Point> = cell
            .outline
            .iter()
            .map(|&g| {
                let (x, y) = proj.project(g);
                Point::new(x, y)
            })
            .collect();
        if points.is_empty() {
            continue;
        }
        let class = choropleth_bucket(cell.scheduled_kwh.abs(), 0.0, max_abs, classes);
        let (cx, cy) = points.iter().fold((0.0, 0.0), |(sx, sy), p| (sx + p.x, sy + p.y));
        let n = points.len() as f64;
        polys.push(Node::Polygon {
            points,
            style: Style::filled(palette::choropleth(class, classes))
                .with_stroke(palette::AXIS, 1.0),
            tag: Some(REGION_TAG_BASE + cell.member.0 as u64),
        });
        labels.push(Node::text_centered(
            Point::new(cx / n, cy / n),
            cell.name.clone(),
            9.0,
            palette::AXIS,
        ));
        labels.push(Node::text_centered(
            Point::new(cx / n, cy / n + 11.0),
            format!(
                "{} offers, {:+.0}/{:.0} kWh",
                cell.offers, cell.scheduled_kwh, cell.target_kwh
            ),
            7.0,
            palette::AXIS,
        ));
    }
    scene.push(Node::group("heatmap-cells", polys));
    scene.push(Node::group("heatmap-labels", labels));

    let scheduled: f64 = data.cells.iter().map(|c| c.scheduled_kwh).sum();
    let imbalance: f64 = data.cells.iter().map(|c| c.imbalance_kwh().abs()).sum();
    scene.push(Node::text(
        Point::new(8.0, 16.0),
        format!(
            "Heatmap - {} - {} cells, scheduled {scheduled:.0} kWh, |imbalance| {imbalance:.0} kWh",
            data.path.join(" > "),
            data.cells.len(),
        ),
        11.0,
        palette::AXIS,
    ));
    scene
}

#[cfg(test)]
mod tests {
    use super::*;
    use mirabel_viz::hit_test;
    use mirabel_workload::{generate_offers, OfferConfig, Population, PopulationConfig};

    fn setup() -> Warehouse {
        let pop =
            Population::generate(&PopulationConfig { size: 120, seed: 31, household_share: 0.8 });
        let offers = generate_offers(&pop, &OfferConfig::default());
        Warehouse::load(&pop, &offers)
    }

    #[test]
    fn root_focus_yields_region_cells_covering_every_fact() {
        let dw = setup();
        let h = dw.hierarchy(Dimension::Geography);
        let data = data_for(&dw, &HashMap::new(), 0.0, h.all().id).unwrap();
        assert_eq!(data.level, 0);
        assert_eq!(data.cells.len(), 6, "five regions + Unassigned");
        let covered: usize = data.cells.iter().map(|c| c.offers).sum();
        assert_eq!(covered, dw.columns().len(), "cells partition the facts");
        assert!(data.cells.iter().all(|c| !c.outline.is_empty()));
    }

    #[test]
    fn drilling_narrows_and_leaves_reject() {
        let dw = setup();
        let h = dw.hierarchy(Dimension::Geography);
        let region = h.member_by_name("Midtjylland").unwrap().id;
        let data = data_for(&dw, &HashMap::new(), 0.0, region).unwrap();
        assert_eq!(data.level, 1);
        assert_eq!(data.cells.len(), 3, "three cities per region");
        assert_eq!(data.path.last().map(String::as_str), Some("Midtjylland"));

        let city = h.member_by_name("Aarhus").unwrap().id;
        let city_data = data_for(&dw, &HashMap::new(), 0.0, city).unwrap();
        assert_eq!(city_data.cells.len(), 4, "four district quadrants");

        let leaf = city_data.cells[0].member;
        assert!(data_for(&dw, &HashMap::new(), 0.0, leaf).is_err());
        assert!(data_for(&dw, &HashMap::new(), 0.0, MemberId(9_999)).is_err());
    }

    #[test]
    fn leaf_load_folds_into_cells_and_target_shares_sum() {
        let dw = setup();
        let h = dw.hierarchy(Dimension::Geography);
        // Put 5 kWh on every populated leaf and check region cells sum
        // exactly the leaves below them.
        let mut leaf_load = HashMap::new();
        for leaf in h.at_level(3) {
            if !dw.spatial_index().indices(leaf.id).is_empty() {
                leaf_load.insert(leaf.id, 5.0);
            }
        }
        let data = data_for(&dw, &leaf_load, 100.0, h.all().id).unwrap();
        let scheduled: f64 = data.cells.iter().map(|c| c.scheduled_kwh).sum();
        assert!((scheduled - 5.0 * leaf_load.len() as f64).abs() < 1e-9);
        let target: f64 = data.cells.iter().map(|c| c.target_kwh).sum();
        assert!((target - 100.0).abs() < 1e-9, "shares must sum to the target");
        let cell = data.cells.iter().find(|c| c.scheduled_kwh > 0.0).unwrap();
        assert_eq!(cell.imbalance_kwh(), cell.scheduled_kwh - cell.target_kwh);
    }

    #[test]
    fn scene_tags_every_cell_above_the_offer_range() {
        let dw = setup();
        let h = dw.hierarchy(Dimension::Geography);
        let data = data_for(&dw, &HashMap::new(), 0.0, h.all().id).unwrap();
        let scene = build(&data, &BasicViewOptions::default());
        let tags = scene.tags();
        for cell in &data.cells {
            assert!(tags.contains(&(REGION_TAG_BASE + cell.member.0 as u64)), "{}", cell.name);
        }
        assert!(scene.texts().iter().any(|t| t.contains("Heatmap - Denmark")));
        // Cells are hit-testable somewhere on the canvas.
        let mut hit = false;
        'outer: for x in (40..760).step_by(40) {
            for y in (40..600).step_by(40) {
                if hit_test(&scene, Point::new(x as f64, y as f64))
                    .iter()
                    .any(|t| *t >= REGION_TAG_BASE)
                {
                    hit = true;
                    break 'outer;
                }
            }
        }
        assert!(hit, "no cell hit-testable");
    }

    #[test]
    fn identical_data_hashes_identically_and_placeholder_renders() {
        let dw = setup();
        let h = dw.hierarchy(Dimension::Geography);
        let data = data_for(&dw, &HashMap::new(), 0.0, h.all().id).unwrap();
        let a = build(&data, &BasicViewOptions::default());
        let b = build(&data, &BasicViewOptions::default());
        assert_eq!(a.content_hash(), b.content_hash());
        let empty = build(&HeatmapData::empty(), &BasicViewOptions::default());
        assert!(empty.texts().iter().any(|t| t.contains("no heatmap yet")));
    }
}
