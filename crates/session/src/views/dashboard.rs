//! The dashboard view (Figure 6): status pie + stacked per-interval
//! bars for a selected time window.

use std::f64::consts::TAU;

use mirabel_dw::Warehouse;
use mirabel_flexoffer::OfferState;
use mirabel_timeseries::{Granularity, TimeSlot};
use mirabel_viz::{palette, Node, Point, Rect, Scene, Style};

use crate::visual::slot_label;

/// Options for [`build`].
#[derive(Debug, Clone, Copy)]
pub struct DashboardOptions {
    /// Canvas width.
    pub width: f64,
    /// Canvas height.
    pub height: f64,
    /// Window start (inclusive) — Figure 6 uses 2012-02-01 12:00.
    pub from: TimeSlot,
    /// Window end (exclusive) — Figure 6 uses 2012-02-01 13:15.
    pub to: TimeSlot,
    /// Bucket granularity for the stacked bars.
    pub granularity: Granularity,
}

/// Per-status counts for one time bucket.
#[derive(Debug, Clone, PartialEq)]
pub struct DashboardData {
    /// Bucket start slots.
    pub buckets: Vec<TimeSlot>,
    /// `counts[status][bucket]` for accepted/scheduled/rejected.
    pub counts: [Vec<f64>; 3],
    /// Window totals per status (accepted, assigned, rejected).
    pub totals: [f64; 3],
}

/// Computes the dashboard aggregates from the warehouse's time index:
/// a slot → bucket table over `[from, to)` (the buckets tile the window;
/// the session caps it at
/// [`MAX_DASHBOARD_SLOTS`](crate::session::MAX_DASHBOARD_SLOTS) slots)
/// sends each fact starting in the window to its bucket, and only those
/// facts' statuses are read ([`Warehouse::for_each_start_in`]). Each
/// count is the status-restricted `Count` query over its bucket; counts
/// are integers, so adding them in index order instead of fact order
/// gives the per-bucket [`Warehouse::eval`] loop's result bit for bit.
pub fn compute(dw: &Warehouse, options: &DashboardOptions) -> DashboardData {
    let buckets = options.granularity.buckets(options.from, options.to);
    let mut bucket_of = Vec::new();
    for (b, &start) in buckets.iter().enumerate() {
        let lo = start.max(options.from);
        let hi = options.granularity.next_boundary(start).min(options.to);
        bucket_of.resize(bucket_of.len() + (hi - lo).count() as usize, b);
    }
    let mut counts: [Vec<f64>; 3] = std::array::from_fn(|_| vec![0.0; buckets.len()]);
    let statuses = dw.columns().statuses();
    dw.for_each_start_in(options.from, options.to, |start, idx| {
        let si = match statuses[idx] {
            OfferState::Accepted => 0,
            OfferState::Scheduled => 1,
            OfferState::Rejected => 2,
            _ => return,
        };
        counts[si][bucket_of[(start - options.from).count() as usize]] += 1.0;
    });
    let totals = std::array::from_fn(|si| counts[si].iter().fold(0.0, |total, &v| total + v));
    DashboardData { buckets, counts, totals }
}

/// Builds the Figure 6 dashboard: the window header, the status pie with
/// percentage labels, and the stacked bar chart per bucket with a legend.
pub fn build(dw: &Warehouse, options: &DashboardOptions) -> Scene {
    let data = compute(dw, options);
    let mut scene = Scene::new(options.width, options.height);

    scene.push(Node::text(
        Point::new(8.0, 18.0),
        format!("From: {} To: {}", slot_label(options.from, true), slot_label(options.to, true)),
        11.0,
        palette::AXIS,
    ));

    // Status pie on the left with percentage labels.
    let total: f64 = data.totals.iter().sum();
    let pie_c = Point::new(options.width * 0.2, options.height * 0.5);
    let radius = (options.height * 0.28).min(options.width * 0.16);
    let labels = ["Accepted", "Scheduled", "Rejected"];
    let colors = [palette::STATUS_ACCEPTED, palette::STATUS_SCHEDULED, palette::STATUS_REJECTED];
    let mut pie = Vec::new();
    if total > 0.0 {
        let mut angle = 0.0;
        for ((&value, &color), label) in data.totals.iter().zip(&colors).zip(labels) {
            if value <= 0.0 {
                continue;
            }
            let sweep = value / total * TAU;
            pie.push(Node::Wedge {
                center: pie_c,
                radius,
                start: angle,
                end: angle + sweep,
                style: Style::filled(color).with_stroke(palette::BACKGROUND, 1.0),
                tag: None,
            });
            // Percentage label outside the arc midpoint.
            let mid = angle + sweep / 2.0;
            let lx = pie_c.x + (radius + 16.0) * mid.sin();
            let ly = pie_c.y - (radius + 16.0) * mid.cos();
            pie.push(Node::text_centered(
                Point::new(lx, ly),
                format!("{} {:.0}%", label, value / total * 100.0),
                8.0,
                palette::AXIS,
            ));
            angle += sweep;
        }
    } else {
        pie.push(Node::text_centered(pie_c, "no flex-offers in window", 9.0, palette::AXIS));
    }
    scene.push(Node::group("status-pie", pie));

    // Stacked bars on the right.
    let chart_x = options.width * 0.42;
    let chart_w = options.width * 0.54;
    let chart_y = 40.0;
    let chart_h = options.height - 90.0;
    let n = data.buckets.len().max(1);
    let bar_w = chart_w / n as f64;
    let peak = (0..data.buckets.len())
        .map(|b| data.counts.iter().map(|c| c[b]).sum::<f64>())
        .fold(0.0f64, f64::max)
        .max(1.0);
    let mut bars = Vec::new();
    for (b, &bucket) in data.buckets.iter().enumerate() {
        let mut y = chart_y + chart_h;
        for (si, color) in colors.iter().enumerate() {
            let v = data.counts[si][b];
            let h = v / peak * chart_h;
            if h > 0.0 {
                y -= h;
                bars.push(Node::rect(
                    Rect::new(chart_x + b as f64 * bar_w + 1.0, y, (bar_w - 2.0).max(1.0), h),
                    Style::filled(*color),
                ));
            }
        }
        bars.push(Node::text_centered(
            Point::new(chart_x + (b as f64 + 0.5) * bar_w, chart_y + chart_h + 14.0),
            options.granularity.label(bucket),
            8.0,
            palette::AXIS,
        ));
    }
    // Legend.
    for (si, (label, color)) in labels.iter().zip(&colors).enumerate() {
        let ly = chart_y + si as f64 * 14.0;
        bars.push(Node::rect(
            Rect::new(chart_x + chart_w - 70.0, ly, 10.0, 10.0),
            Style::filled(*color),
        ));
        bars.push(Node::text(
            Point::new(chart_x + chart_w - 56.0, ly + 9.0),
            (*label).to_owned(),
            8.0,
            palette::AXIS,
        ));
    }
    scene.push(Node::group("stacked-bars", bars));
    scene
}

#[cfg(test)]
mod tests {
    use super::*;
    use mirabel_timeseries::{CivilDateTime, SlotSpan};
    use mirabel_viz::render_svg;
    use mirabel_workload::{generate_offers, OfferConfig, Population, PopulationConfig};

    fn warehouse_with_statuses() -> Warehouse {
        let pop =
            Population::generate(&PopulationConfig { size: 400, seed: 3, household_share: 0.8 });
        let mut offers = generate_offers(&pop, &OfferConfig::default());
        for (i, fo) in offers.iter_mut().enumerate() {
            match i % 4 {
                0 | 1 => fo.accept().unwrap(),
                2 => fo.reject().unwrap(),
                _ => {}
            }
        }
        Warehouse::load(&pop, &offers)
    }

    fn figure6_options() -> DashboardOptions {
        // The paper's window runs 12:00–13:15; our synthetic offers live
        // on day 0, so use the analogous window there.
        let from = CivilDateTime::new(2012, 1, 1, 12, 0).unwrap().to_slot().unwrap();
        DashboardOptions {
            width: 900.0,
            height: 420.0,
            from,
            to: from + SlotSpan::slots(5),
            granularity: Granularity::QuarterHour,
        }
    }

    #[test]
    fn compute_totals_match_bucket_sums() {
        let dw = warehouse_with_statuses();
        let data = compute(&dw, &figure6_options());
        assert_eq!(data.buckets.len(), 5); // 12:00..13:00 inclusive starts
        for si in 0..3 {
            let sum: f64 = data.counts[si].iter().sum();
            assert!((sum - data.totals[si]).abs() < 1e-9);
        }
    }

    #[test]
    fn header_and_legend_render() {
        let dw = warehouse_with_statuses();
        let scene = build(&dw, &figure6_options());
        let texts = scene.texts().join("\n");
        assert!(texts.contains("From: 01-01 12:00"));
        assert!(texts.contains("To: 01-01 13:15"));
        assert!(texts.contains("Accepted"));
        assert!(texts.contains("Scheduled"));
        assert!(texts.contains("Rejected"));
        // Quarter-hour bucket labels as in the figure.
        assert!(texts.contains("12:15"));
        assert!(texts.contains("13:00"));
    }

    #[test]
    fn pie_percentages_sum_to_100() {
        let dw = warehouse_with_statuses();
        // A wide window catches many offers.
        let opts = DashboardOptions {
            from: TimeSlot::new(0),
            to: TimeSlot::new(200),
            ..figure6_options()
        };
        let scene = build(&dw, &opts);
        let total_pct: f64 = scene
            .texts()
            .iter()
            .filter_map(|t| {
                t.strip_suffix('%')
                    .and_then(|s| s.rsplit(' ').next())
                    .and_then(|n| n.parse::<f64>().ok())
            })
            .sum();
        assert!((99.0..=101.0).contains(&total_pct), "percentages sum to {total_pct}");
        let svg = render_svg(&scene);
        assert!(svg.contains("<path")); // wedges
    }

    #[test]
    fn empty_window_shows_placeholder() {
        let dw = warehouse_with_statuses();
        let opts = DashboardOptions {
            from: TimeSlot::new(-5_000),
            to: TimeSlot::new(-4_990),
            ..figure6_options()
        };
        let scene = build(&dw, &opts);
        assert!(scene.texts().iter().any(|t| t.contains("no flex-offers")));
    }

    #[test]
    fn hourly_granularity_reduces_buckets() {
        let dw = warehouse_with_statuses();
        let mut opts = figure6_options();
        opts.granularity = Granularity::Hour;
        let data = compute(&dw, &opts);
        assert_eq!(data.buckets.len(), 2); // 12:00 and 13:00
    }
}
