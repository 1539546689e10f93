//! Property-based tests for the visualization engine.

use mirabel_viz::{
    assign_lanes, assign_lanes_first_fit, hit_test, max_overlap, nice_ticks, rect_query, GridIndex,
    LinearScale, Node, Point, Rect, Scene, Style,
};
use proptest::prelude::*;

fn intervals_strategy() -> impl Strategy<Value = Vec<(i64, i64)>> {
    proptest::collection::vec((0i64..500, 1i64..60), 0..150)
        .prop_map(|v| v.into_iter().map(|(s, len)| (s, s + len)).collect())
}

proptest! {
    /// Greedy lane assignment: no two intervals in one lane overlap, and
    /// the lane count equals the maximum point overlap (optimality).
    #[test]
    fn lanes_valid_and_optimal(intervals in intervals_strategy()) {
        for layout in [assign_lanes(&intervals), assign_lanes_first_fit(&intervals)] {
            prop_assert_eq!(layout.lanes.len(), intervals.len());
            // Validity.
            let mut by_lane: std::collections::HashMap<usize, Vec<(i64, i64)>> = Default::default();
            for (i, &lane) in layout.lanes.iter().enumerate() {
                by_lane.entry(lane).or_default().push(intervals[i]);
            }
            for (_, mut ivs) in by_lane {
                ivs.sort_unstable();
                for w in ivs.windows(2) {
                    prop_assert!(w[0].1 <= w[1].0, "overlap within a lane");
                }
            }
            // Optimality (both greedy variants are optimal for interval
            // graphs).
            if !intervals.is_empty() {
                prop_assert_eq!(layout.lane_count, max_overlap(&intervals));
            }
        }
    }

    /// Pretty ticks: cover the domain, even spacing, 1/2/5 step.
    #[test]
    fn nice_ticks_invariants(
        a in -1.0e6f64..1.0e6,
        span in 1e-3f64..1.0e6,
        target in 2usize..12,
    ) {
        let (min, max) = (a, a + span);
        let (ticks, step) = nice_ticks(min, max, target);
        prop_assert!(ticks.len() >= 2);
        prop_assert!(ticks[0] <= min + step * 1e-6);
        prop_assert!(*ticks.last().unwrap() >= max - step * 1e-6);
        for w in ticks.windows(2) {
            prop_assert!((w[1] - w[0] - step).abs() < step * 1e-6);
        }
        let mag = 10f64.powf(step.log10().floor());
        let norm = (step / mag * 1e6).round() / 1e6;
        prop_assert!([1.0, 2.0, 5.0, 10.0].iter().any(|n| (norm - n).abs() < 1e-9),
            "step {} not nice", step);
        // Not absurdly many ticks.
        prop_assert!(ticks.len() <= 3 * target + 2);
    }

    /// Linear scales invert exactly.
    #[test]
    fn scale_round_trip(
        d0 in -1e4f64..1e4, dspan in 1e-3f64..1e4,
        r0 in -1e4f64..1e4, rspan in 1e-3f64..1e4,
        v in -2e4f64..2e4,
    ) {
        let s = LinearScale::new((d0, d0 + dspan), (r0, r0 + rspan));
        prop_assert!((s.invert(s.map(v)) - v).abs() < 1e-6 * (1.0 + v.abs()));
    }

    /// The uniform-grid index agrees with the linear scan on random
    /// scenes of overlapping boxes with repeated tags: sorted point hits,
    /// the topmost hit (the hover probe) and paint-ordered rectangle
    /// queries (the drag-select probe).
    #[test]
    fn grid_index_equivalence(
        boxes in proptest::collection::vec((0.0f64..900.0, 0.0f64..500.0, 1.0f64..80.0, 1.0f64..60.0), 0..80),
        probes in proptest::collection::vec((-50.0f64..1050.0, -50.0f64..650.0), 1..30),
        cell in 8.0f64..200.0,
        distinct_tags in 1u64..100,
        rects in proptest::collection::vec((0.0f64..1000.0, 0.0f64..600.0, 0.0f64..1000.0, 0.0f64..600.0), 1..8),
    ) {
        let mut scene = Scene::new(1000.0, 600.0);
        for (i, &(x, y, w, h)) in boxes.iter().enumerate() {
            let tag = i as u64 % distinct_tags;
            scene.push(Node::tagged_rect(Rect::new(x, y, w, h), Style::default(), tag));
        }
        let index = GridIndex::build(&scene, cell);
        for &(px, py) in &probes {
            let p = Point::new(px, py);
            let linear = hit_test(&scene, p);
            prop_assert_eq!(index.hit_topmost(p), linear.last().copied(), "probe ({}, {})", px, py);
            let mut sorted = linear;
            sorted.sort_unstable();
            sorted.dedup();
            prop_assert_eq!(index.hit(p), sorted, "probe ({}, {})", px, py);
        }
        // Rectangle queries agree, in paint order, on in-canvas rects.
        let mut queries = vec![Rect::new(100.0, 100.0, 300.0, 200.0)];
        queries.extend(rects.iter().map(|&(x0, y0, x1, y1)| {
            Rect::new(x0.min(x1), y0.min(y1), (x1 - x0).abs(), (y1 - y0).abs())
        }));
        for query in queries {
            prop_assert_eq!(index.query_ordered(query), rect_query(&scene, query), "{}", query);
        }
    }
}
