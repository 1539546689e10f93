//! Property-based tests for the views: every offer is rendered,
//! hit-testable and selectable, on randomized offer sets.

use mirabel_flexoffer::{Energy, FlexOffer};
use mirabel_session::views::basic::{build_with_layout, BasicViewOptions};
use mirabel_session::views::{profile, DetailLayout};
use mirabel_session::VisualOffer;
use mirabel_timeseries::TimeSlot;
use mirabel_viz::{hit_test, rect_query, Rect};
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

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

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
