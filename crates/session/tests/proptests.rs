//! Property-based tests for the views: every offer is rendered,
//! hit-testable and selectable, on randomized offer sets, and the
//! one-pass dashboard equals its per-bucket query loop.

use mirabel_dw::{Measure, Query, Warehouse};
use mirabel_flexoffer::{Energy, FlexOffer, OfferState, Schedule};
use mirabel_session::views::basic::{build_with_layout, BasicViewOptions};
use mirabel_session::views::dashboard::{self, DashboardData, DashboardOptions};
use mirabel_session::views::{profile, DetailLayout};
use mirabel_session::VisualOffer;
use mirabel_timeseries::{Granularity, TimeSlot};
use mirabel_viz::{hit_test, rect_query, Rect};
use mirabel_workload::{generate_offers, OfferConfig, Population, PopulationConfig};
use proptest::prelude::*;

fn offers_strategy() -> impl Strategy<Value = Vec<(i64, i64, usize, i64)>> {
    proptest::collection::vec((0i64..96, 0i64..24, 1usize..10, 1i64..3_000), 1..60)
}

fn build_offers(raw: &[(i64, i64, usize, i64)]) -> Vec<VisualOffer> {
    let offers: Vec<FlexOffer> = raw
        .iter()
        .enumerate()
        .map(|(i, &(est, tf, len, max_wh))| {
            FlexOffer::builder(i as u64 + 1, 1u64)
                .earliest_start(TimeSlot::new(est))
                .latest_start(TimeSlot::new(est + tf))
                .slices(len, Energy::from_wh(max_wh / 2), Energy::from_wh(max_wh))
                .build()
                .unwrap()
        })
        .collect();
    VisualOffer::from_offers(&offers)
}

/// A warehouse whose facts are accepted, rejected, scheduled and still
/// offered, over three days.
fn status_warehouse(seed: u64) -> Warehouse {
    let pop = Population::generate(&PopulationConfig { size: 60, seed, household_share: 0.8 });
    let mut offers = generate_offers(&pop, &OfferConfig { days: 3, seed, ..Default::default() });
    for (i, fo) in offers.iter_mut().enumerate() {
        match i % 4 {
            0 | 1 => fo.accept().unwrap(),
            2 => fo.reject().unwrap(),
            _ => {}
        }
    }
    let mut dw = Warehouse::load(&pop, &offers);
    let picks: Vec<_> = offers
        .iter()
        .step_by(5)
        .map(|fo| {
            let energies = fo.profile().slices().iter().map(|s| s.min).collect();
            (fo.id(), Schedule::new(fo.earliest_start(), energies))
        })
        .collect();
    dw.assign_schedules(&picks);
    dw
}

/// The dashboard as one status-restricted `Count` query per status ×
/// bucket: the loop the one-pass `dashboard::compute` replaced.
fn per_bucket_eval(dw: &Warehouse, options: &DashboardOptions) -> DashboardData {
    let buckets = options.granularity.buckets(options.from, options.to);
    let statuses = [OfferState::Accepted, OfferState::Scheduled, OfferState::Rejected];
    let mut counts: [Vec<f64>; 3] = [Vec::new(), Vec::new(), Vec::new()];
    let mut totals = [0.0; 3];
    for (si, status) in statuses.iter().enumerate() {
        for &b in &buckets {
            let hi = options.granularity.next_boundary(b).min(options.to);
            let lo = b.max(options.from);
            let v = dw
                .eval(&Query::new(Measure::Count).statuses(vec![*status]).time_range(lo, hi))
                .map(|r| r.total)
                .unwrap_or(0.0);
            counts[si].push(v);
            totals[si] += v;
        }
    }
    DashboardData { buckets, counts, totals }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// The one-pass dashboard equals the per-bucket query loop bit for
    /// bit, for quarter-hour, hour and day buckets over windows that
    /// need not align to bucket edges and may hold no facts at all.
    #[test]
    fn dashboard_matches_per_bucket_eval(
        seed in 0u64..20,
        granularity in 0usize..3,
        from in -400i64..400,
        width in 0i64..500,
    ) {
        let dw = status_warehouse(seed);
        let options = DashboardOptions {
            width: 900.0,
            height: 420.0,
            from: TimeSlot::new(from),
            to: TimeSlot::new(from + width),
            granularity: [Granularity::QuarterHour, Granularity::Hour, Granularity::Day][granularity],
        };
        let data = dashboard::compute(&dw, &options);
        let expected = per_bucket_eval(&dw, &options);
        let bits = |d: &DashboardData| -> (Vec<Vec<u64>>, Vec<u64>) {
            (
                d.counts.iter().map(|c| c.iter().map(|v| v.to_bits()).collect()).collect(),
                d.totals.iter().map(|v| v.to_bits()).collect(),
            )
        };
        prop_assert_eq!(&data.buckets, &expected.buckets);
        prop_assert_eq!(bits(&data), bits(&expected));
    }

    /// Every offer appears in the scene with its tag, and hovering the
    /// centre of its profile box finds it.
    #[test]
    fn every_offer_is_rendered_and_hoverable(raw in offers_strategy()) {
        let vs = build_offers(&raw);
        let options = BasicViewOptions::default();
        let layout = DetailLayout::compute(&vs, options.width, options.height);
        let scene = build_with_layout(&vs, &options, &layout);

        let tags: std::collections::BTreeSet<u64> = scene.tags().into_iter().collect();
        for v in &vs {
            prop_assert!(tags.contains(&v.id().raw()), "offer {} missing", v.id());
        }
        for (i, v) in vs.iter().enumerate() {
            let c = layout.profile_box(i, &vs).center();
            let hits = hit_test(&scene, c);
            prop_assert!(hits.contains(&v.id().raw()),
                "offer {} not hit at its own box centre", v.id());
        }
    }

    /// All boxes stay within the canvas and lanes never mix overlapping
    /// offers.
    #[test]
    fn layout_boxes_within_canvas(raw in offers_strategy()) {
        let vs = build_offers(&raw);
        let layout = DetailLayout::compute(&vs, 960.0, 540.0);
        for i in 0..vs.len() {
            let b = layout.extent_box(i, &vs);
            prop_assert!(b.x >= 0.0 && b.right() <= 960.0, "{b}");
            prop_assert!(b.y >= 0.0 && b.bottom() <= 540.0 + 1e-9, "{b}");
            for j in (i + 1)..vs.len() {
                if layout.lanes[i] == layout.lanes[j] {
                    let (a0, a1) = vs[i].offer.extent();
                    let (b0, b1) = vs[j].offer.extent();
                    prop_assert!(a1 <= b0 || b1 <= a0,
                        "overlapping offers {i},{j} share lane {}", layout.lanes[i]);
                }
            }
        }
    }

    /// Rectangle selection over the whole canvas selects exactly the
    /// rendered offer set (no phantom tags, no missing offers).
    #[test]
    fn full_canvas_selection_is_exhaustive(raw in offers_strategy()) {
        let vs = build_offers(&raw);
        let options = BasicViewOptions::default();
        let layout = DetailLayout::compute(&vs, options.width, options.height);
        let scene = build_with_layout(&vs, &options, &layout);
        let hit: std::collections::BTreeSet<u64> =
            rect_query(&scene, Rect::new(0.0, 0.0, 960.0, 540.0)).into_iter().collect();
        let expected: std::collections::BTreeSet<u64> =
            vs.iter().map(|v| v.id().raw()).collect();
        prop_assert_eq!(hit, expected);
    }

    /// The profile view renders the same offer set with the same tags
    /// and at least as many primitives as the basic view.
    #[test]
    fn profile_view_covers_same_offers(raw in offers_strategy()) {
        let vs = build_offers(&raw);
        let options = BasicViewOptions::default();
        let layout = DetailLayout::compute(&vs, options.width, options.height);
        let basic = build_with_layout(&vs, &options, &layout);
        let prof = profile::build_with_layout(&vs, &options, &layout);
        let b_tags: std::collections::BTreeSet<u64> = basic.tags().into_iter().collect();
        let p_tags: std::collections::BTreeSet<u64> = prof.tags().into_iter().collect();
        prop_assert_eq!(&b_tags, &p_tags);
        // Per offer, the profile view draws at least as many *tagged*
        // primitives (boxes + per-slice bars) as the basic view (boxes);
        // untagged chrome like the time axis is excluded — for tiny sets
        // the basic view's axis can dominate raw primitive counts.
        prop_assert!(prof.tags().len() >= basic.tags().len());
    }
}
