//! The pivot view (Figure 5): hierarchy members on swimlanes with an
//! MDX query window.

use mirabel_dw::{DwError, PivotTable, Warehouse};
use mirabel_viz::{palette, Node, Point, Rect, Scene, Style};

/// Options for [`build_mdx`] and [`build_table`].
#[derive(Debug, Clone)]
pub struct PivotViewOptions {
    /// Canvas width.
    pub width: f64,
    /// Canvas height.
    pub height: f64,
    /// The MDX text to show in the query window (echoed verbatim, as in
    /// the figure's "MDX query window" pane).
    pub mdx_text: String,
}

impl Default for PivotViewOptions {
    fn default() -> Self {
        PivotViewOptions { width: 960.0, height: 560.0, mdx_text: String::new() }
    }
}

/// Evaluates `mdx` on the warehouse and renders the result as swimlanes:
/// one lane per row member (drillable hierarchy members on the left,
/// as in Figure 5's "All prosumers / Consumer / Producer / Household…"
/// rail), with per-column bars inside each lane.
pub fn build_mdx(dw: &Warehouse, mdx: &str, options: &PivotViewOptions) -> Result<Scene, DwError> {
    let table = dw.mdx(mdx)?;
    let mut opts = options.clone();
    if opts.mdx_text.is_empty() {
        opts.mdx_text = mdx.to_owned();
    }
    Ok(build_table(&table, &opts))
}

/// Renders an already-computed pivot table.
pub fn build_table(table: &PivotTable, options: &PivotViewOptions) -> Scene {
    let mut scene = Scene::new(options.width, options.height);
    let rail_w = 220.0;
    let header_h = 64.0;
    let left = rail_w + 8.0;
    let right = options.width - 12.0;
    let top = header_h + 8.0;
    let bottom = options.height - 28.0;

    // MDX query window at the top, like the figure.
    scene.push(Node::rect(
        Rect::new(8.0, 8.0, options.width - 16.0, header_h - 12.0),
        Style::filled(palette::BACKGROUND).with_stroke(palette::AXIS, 1.0),
    ));
    scene.push(Node::text(Point::new(14.0, 24.0), "MDX query window", 9.0, palette::AXIS));
    scene.push(Node::text(Point::new(14.0, 40.0), options.mdx_text.clone(), 8.0, palette::AXIS));

    let n_rows = table.n_rows().max(1);
    let n_cols = table.n_cols().max(1);
    let lane_h = (bottom - top) / n_rows as f64;
    let peak = table.cells.iter().flatten().cloned().fold(0.0f64, f64::max).max(1e-9);

    let mut lanes = Vec::new();
    for r in 0..table.n_rows() {
        let y = top + r as f64 * lane_h;
        // Swimlane separator + indented member label.
        lanes.push(Node::line(
            Point::new(8.0, y),
            Point::new(right, y),
            Style::stroked(palette::AXIS.with_alpha(60), 0.5),
        ));
        let depth = table.row_labels[r].matches('/').count();
        lanes.push(Node::text(
            Point::new(14.0 + depth as f64 * 10.0, y + lane_h / 2.0 + 3.0),
            table.row_labels[r]
                .rsplit('/')
                .next()
                .unwrap_or(&table.row_labels[r])
                .trim()
                .to_owned(),
            9.0,
            palette::AXIS,
        ));
        // Bars per column, tagged with the row member for drill-down
        // clicks.
        let col_w = (right - left) / n_cols as f64;
        for c in 0..table.n_cols() {
            let v = table.cells[r][c];
            let bh = (v / peak) * (lane_h - 8.0);
            lanes.push(Node::RectNode {
                rect: Rect::new(
                    left + c as f64 * col_w + 2.0,
                    y + lane_h - 4.0 - bh,
                    (col_w - 4.0).max(1.0),
                    bh,
                ),
                style: Style::filled(palette::CATEGORICAL[r % palette::CATEGORICAL.len()]),
                tag: Some(table.row_members[r].0 as u64),
            });
        }
    }
    scene.push(Node::group("swimlanes", lanes));

    // Column headers along the bottom.
    let col_w = (right - left) / n_cols as f64;
    let mut headers = Vec::new();
    for (c, label) in table.col_labels.iter().enumerate() {
        headers.push(Node::text_centered(
            Point::new(left + (c as f64 + 0.5) * col_w, bottom + 14.0),
            label.clone(),
            8.0,
            palette::AXIS,
        ));
    }
    scene.push(Node::group("columns", headers));
    scene
}

/// The paper's "next immediate enhancement": "the basic and the detailed
/// views will be integrated into the pivot view, where the flex-offer
/// aggregation will be applied to produce inputs for the flex-offer
/// visualization on swimlanes" (Section 4). This renders, for each row
/// member, a miniature basic view of that member's (aggregated)
/// flex-offers inside its swimlane.
pub fn build_swimlane_offers(
    dw: &Warehouse,
    dimension: mirabel_dw::Dimension,
    members: &[mirabel_dw::MemberId],
    aggregation: mirabel_aggregation::AggregationParams,
    options: &PivotViewOptions,
) -> Result<Scene, DwError> {
    use crate::views::DetailLayout;
    use crate::visual::VisualOffer;

    let mut scene = Scene::new(options.width, options.height);
    scene.push(Node::text(
        Point::new(8.0, 16.0),
        format!("Pivot swimlanes with aggregated flex-offers ({dimension})"),
        11.0,
        mirabel_viz::palette::AXIS,
    ));
    let h = dw.hierarchy(dimension);
    let rail_w = 200.0;
    let top = 26.0;
    let lane_h = (options.height - top - 10.0) / members.len().max(1) as f64;
    let aggregator = mirabel_aggregation::Aggregator::new(aggregation);

    for (r, &member) in members.iter().enumerate() {
        let m = h.member(member).ok_or(DwError::UnknownMember { dimension, member })?;
        let y = top + r as f64 * lane_h;
        scene.push(Node::line(
            Point::new(8.0, y),
            Point::new(options.width - 8.0, y),
            Style::stroked(mirabel_viz::palette::AXIS.with_alpha(70), 0.5),
        ));
        scene.push(Node::text(
            Point::new(12.0, y + lane_h / 2.0),
            m.name.clone(),
            9.0,
            mirabel_viz::palette::AXIS,
        ));

        // Offers of this member, aggregated to fit the lane.
        let leaf_offers: Vec<mirabel_flexoffer::FlexOffer> = dw
            .offers()
            .iter()
            .enumerate()
            .filter(|&(i, _)| h.is_descendant(dw.columns().leaf(i, dimension), member))
            .map(|(_, fo)| fo.as_ref().clone())
            .collect();
        let result = aggregator
            .aggregate(&leaf_offers)
            .map_err(|e| DwError::Mdx(format!("aggregation failed: {e}")))?;
        let visual = VisualOffer::from_aggregation(&leaf_offers, &result);

        // A miniature basic view inside the lane.
        let lane_w = options.width - rail_w - 16.0;
        let layout = DetailLayout::compute(&visual, lane_w, lane_h.max(20.0));
        let mut mini = Vec::new();
        for (i, v) in visual.iter().enumerate() {
            let mut rect = layout.profile_box(i, &visual);
            rect.x += rail_w;
            rect.y = y + 2.0 + (rect.y - layout.top).max(0.0).min(lane_h - 6.0);
            rect.h = rect.h.min(lane_h - 4.0);
            let fill = if v.aggregated {
                mirabel_viz::palette::AGGREGATED
            } else {
                mirabel_viz::palette::NON_AGGREGATED
            };
            mini.push(Node::tagged_rect(rect, Style::filled(fill), v.id().raw()));
        }
        scene.push(Node::group(format!("lane-{}", m.name), mini));
    }
    Ok(scene)
}

#[cfg(test)]
mod tests {
    use super::*;
    use mirabel_viz::{rect_query, render_svg};
    use mirabel_workload::{generate_offers, OfferConfig, Population, PopulationConfig};

    fn warehouse() -> Warehouse {
        let pop =
            Population::generate(&PopulationConfig { size: 200, seed: 41, household_share: 0.8 });
        let offers = generate_offers(&pop, &OfferConfig { days: 2, ..Default::default() });
        Warehouse::load(&pop, &offers)
    }

    const MDX: &str = "SELECT {[Time].Children} ON COLUMNS, \
                       {[Prosumer].[All prosumers].Children} ON ROWS FROM [FlexOffers]";

    #[test]
    fn mdx_window_and_swimlanes_render() {
        let dw = warehouse();
        let scene = build_mdx(&dw, MDX, &PivotViewOptions::default()).unwrap();
        let texts = scene.texts();
        assert!(texts.iter().any(|t| t.contains("MDX query window")));
        assert!(texts.iter().any(|t| t.contains("SELECT")));
        assert!(texts.contains(&"Consumer"));
        assert!(texts.contains(&"Producer"));
        let svg = render_svg(&scene);
        assert!(svg.contains("<rect"));
    }

    #[test]
    fn bars_are_tagged_with_row_members() {
        let dw = warehouse();
        let table = dw.mdx(MDX).unwrap();
        let scene = build_table(&table, &PivotViewOptions::default());
        let tags = rect_query(&scene, Rect::new(0.0, 0.0, 960.0, 560.0));
        for m in &table.row_members {
            assert!(tags.contains(&(m.0 as u64)), "row member {m} not clickable");
        }
    }

    #[test]
    fn invalid_mdx_propagates_error() {
        let dw = warehouse();
        let err = build_mdx(&dw, "SELECT garbage", &PivotViewOptions::default()).unwrap_err();
        assert!(err.to_string().contains("MDX"));
    }

    #[test]
    fn drilled_query_shows_leaf_members() {
        let dw = warehouse();
        let scene = build_mdx(
            &dw,
            "SELECT {[Time].Children} ON COLUMNS, \
             {[Prosumer].[Consumer].Children} ON ROWS FROM [FlexOffers]",
            &PivotViewOptions::default(),
        )
        .unwrap();
        let texts = scene.texts();
        assert!(texts.contains(&"Household"));
        assert!(texts.contains(&"Commercial"));
    }

    #[test]
    fn swimlane_offers_render_aggregates_per_member() {
        let dw = warehouse();
        let h = dw.hierarchy(mirabel_dw::Dimension::ProsumerType);
        let members: Vec<mirabel_dw::MemberId> = h.children(h.all().id).map(|m| m.id).collect();
        let scene = build_swimlane_offers(
            &dw,
            mirabel_dw::Dimension::ProsumerType,
            &members,
            mirabel_aggregation::AggregationParams::default(),
            &PivotViewOptions::default(),
        )
        .unwrap();
        // Both role lanes are labelled and carry offer boxes.
        let texts = scene.texts();
        assert!(texts.contains(&"Consumer"));
        assert!(texts.contains(&"Producer"));
        assert!(!scene.tags().is_empty(), "lanes must contain offer boxes");
        let svg = render_svg(&scene);
        // Aggregated boxes (light red) appear — aggregation was applied
        // to produce the lane inputs, as the paper's extension requires.
        assert!(svg.contains(&palette::AGGREGATED.to_hex()));

        // Unknown members are rejected.
        assert!(build_swimlane_offers(
            &dw,
            mirabel_dw::Dimension::ProsumerType,
            &[mirabel_dw::MemberId(999)],
            mirabel_aggregation::AggregationParams::default(),
            &PivotViewOptions::default(),
        )
        .is_err());
    }

    #[test]
    fn column_headers_come_from_the_table() {
        let dw = warehouse();
        let table = dw.mdx(MDX).unwrap();
        let scene = build_table(&table, &PivotViewOptions::default());
        for label in &table.col_labels {
            assert!(scene.texts().iter().any(|t| t == label));
        }
    }
}
