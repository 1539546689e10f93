//! Hit-testing: the substrate of the hover tooltips (Figure 10) and
//! rectangle selection (Figure 8).

use crate::geometry::{Point, Rect};
use crate::scene::Scene;

/// Tags of all tagged primitives whose bounds contain `p`, in paint
/// order (topmost last). Linear scan over the scene.
pub fn hit_test(scene: &Scene, p: Point) -> Vec<u64> {
    let mut hits = Vec::new();
    scene.visit(&mut |node| {
        if let Some(tag) = node.tag() {
            if let Some(b) = node.bounds() {
                if b.contains(p) {
                    hits.push(tag);
                }
            }
        }
    });
    hits
}

/// Tags of all tagged primitives intersecting `query` (the Figure 8
/// rectangle selection), deduplicated, in first-touch paint order.
pub fn rect_query(scene: &Scene, query: Rect) -> Vec<u64> {
    let mut hits = Vec::new();
    let mut seen = std::collections::HashSet::new();
    scene.visit(&mut |node| {
        if let Some(tag) = node.tag() {
            if let Some(b) = node.bounds() {
                if b.intersects(&query) && seen.insert(tag) {
                    hits.push(tag);
                }
            }
        }
    });
    hits
}

/// A uniform-grid spatial index over tagged primitive bounds,
/// accelerating repeated pointer probes on large scenes (the F10
/// experiment compares it against the linear scan).
///
/// The cells are one flat compressed-sparse-row layout: `entries` holds
/// the `(bounds, tag)` primitives in paint order, and cell `i` (row-major)
/// lists the ids of the entries that overlap it in
/// `ids[offsets[i]..offsets[i + 1]]`, ascending — an entry's id is its
/// paint sequence, so the topmost hit in a cell is the last one. The
/// offsets cost 4 bytes per cell whatever the scene holds.
#[derive(Debug, Clone)]
pub struct GridIndex {
    cell: f64,
    cols: usize,
    rows: usize,
    entries: Vec<(Rect, u64)>,
    offsets: Vec<u32>,
    ids: Vec<u32>,
}

impl GridIndex {
    /// Builds an index over all tagged primitives of `scene` with the
    /// given cell size (pixels).
    pub fn build(scene: &Scene, cell: f64) -> GridIndex {
        let cell = cell.max(1.0);
        let cols = (scene.width / cell).ceil().max(1.0) as usize;
        let rows = (scene.height / cell).ceil().max(1.0) as usize;
        assert!(u32::try_from(cols * rows).is_ok(), "a grid holds fewer than 2^32 cells");
        let mut index = GridIndex {
            cell,
            cols,
            rows,
            entries: Vec::new(),
            offsets: Vec::new(),
            ids: Vec::new(),
        };
        let mut spans = Vec::new();
        scene.visit(&mut |node| {
            if let Some(tag) = node.tag() {
                if let Some(b) = node.bounds() {
                    index.entries.push((b, tag));
                    spans.push(index.span(b));
                }
            }
        });
        assert!(
            u32::try_from(index.entries.len()).is_ok(),
            "a scene holds fewer than 2^32 tagged primitives"
        );
        // Two passes over the entries' cell spans: count each cell's
        // overlaps (no count exceeds the entry count) and prefix-sum the
        // counts into cell ends, checked so the `u32` total cannot wrap;
        // then walk the entries backwards, decrementing each cell's end
        // as its ids are filled in — which leaves every cell ascending
        // and `offsets[i]` at the start of cell `i` (`offsets[cols *
        // rows]` stays the total).
        let mut offsets = vec![0u32; cols * rows + 1];
        for span in &spans {
            index.for_cells(span, |i| offsets[i] += 1);
        }
        let mut total = 0u32;
        for end in &mut offsets {
            total = total.checked_add(*end).expect("a grid holds fewer than 2^32 cell entries");
            *end = total;
        }
        let mut ids = vec![0u32; total as usize];
        for (id, span) in spans.iter().enumerate().rev() {
            index.for_cells(span, |i| {
                offsets[i] -= 1;
                ids[offsets[i] as usize] = id as u32;
            });
        }
        index.offsets = offsets;
        index.ids = ids;
        index
    }

    /// The cells `bounds` overlaps, as inclusive corner cells
    /// `[c0, r0, c1, r1]` (`u32`: `build` checks the grid size).
    fn span(&self, bounds: Rect) -> [u32; 4] {
        let (c0, r0) = self.cell_of(bounds.x, bounds.y);
        let (c1, r1) = self.cell_of(bounds.right(), bounds.bottom());
        [c0 as u32, r0 as u32, c1 as u32, r1 as u32]
    }

    /// Calls `f` with the row-major index of every cell of `span`.
    fn for_cells(&self, &[c0, r0, c1, r1]: &[u32; 4], mut f: impl FnMut(usize)) {
        for r in r0 as usize..=r1 as usize {
            for c in c0 as usize..=c1 as usize {
                f(r * self.cols + c);
            }
        }
    }

    fn cell_of(&self, x: f64, y: f64) -> (usize, usize) {
        let c = (x / self.cell).floor().max(0.0) as usize;
        let r = (y / self.cell).floor().max(0.0) as usize;
        (c.min(self.cols - 1), r.min(self.rows - 1))
    }

    /// The ids of the entries overlapping cell `i`, ascending (in paint
    /// order).
    fn cell_ids(&self, i: usize) -> &[u32] {
        &self.ids[self.offsets[i] as usize..self.offsets[i + 1] as usize]
    }

    /// The ids of the entries overlapping the cell that holds `p`.
    fn ids_at(&self, p: Point) -> &[u32] {
        let (c, r) = self.cell_of(p.x, p.y);
        self.cell_ids(r * self.cols + c)
    }

    /// Number of indexed primitives.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// `true` when nothing is indexed.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Tags whose bounds contain `p`, sorted and deduplicated.
    pub fn hit(&self, p: Point) -> Vec<u64> {
        let mut hits: Vec<u64> = self
            .ids_at(p)
            .iter()
            .map(|&id| self.entries[id as usize])
            .filter(|(b, _)| b.contains(p))
            .map(|(_, t)| t)
            .collect();
        hits.sort_unstable();
        hits.dedup();
        hits
    }

    /// The tag painted topmost under `p`, if any — exactly
    /// [`hit_test`]`(scene, p).last()` for the indexed scene, served from
    /// the grid. This is the hover-tooltip probe of the interactive
    /// session engine.
    pub fn hit_topmost(&self, p: Point) -> Option<u64> {
        self.ids_at(p)
            .iter()
            .rev()
            .map(|&id| self.entries[id as usize])
            .find(|(b, _)| b.contains(p))
            .map(|(_, t)| t)
    }

    /// Tags whose bounds intersect `query`, deduplicated, in first-touch
    /// paint order — exactly [`rect_query`] for the indexed scene, served
    /// from the grid.
    pub fn query_ordered(&self, query: Rect) -> Vec<u64> {
        let mut touched: Vec<u32> = Vec::new();
        self.for_cells(&self.span(query), |i| {
            touched.extend(
                self.cell_ids(i)
                    .iter()
                    .filter(|&&id| self.entries[id as usize].0.intersects(&query)),
            );
        });
        touched.sort_unstable();
        touched.dedup();
        let mut seen = std::collections::HashSet::new();
        touched
            .into_iter()
            .map(|id| self.entries[id as usize].1)
            .filter(|&t| seen.insert(t))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scene::{Node, Style};

    fn scene_with_boxes() -> Scene {
        let mut scene = Scene::new(100.0, 100.0);
        scene.push(Node::tagged_rect(Rect::new(10.0, 10.0, 20.0, 20.0), Style::default(), 1));
        scene.push(Node::tagged_rect(Rect::new(25.0, 25.0, 20.0, 20.0), Style::default(), 2));
        scene.push(Node::group(
            "g",
            vec![Node::tagged_rect(Rect::new(70.0, 70.0, 10.0, 10.0), Style::default(), 3)],
        ));
        scene
    }

    #[test]
    fn point_hits_in_paint_order() {
        let scene = scene_with_boxes();
        assert_eq!(hit_test(&scene, Point::new(15.0, 15.0)), vec![1]);
        assert_eq!(hit_test(&scene, Point::new(28.0, 28.0)), vec![1, 2]);
        assert_eq!(hit_test(&scene, Point::new(75.0, 75.0)), vec![3]);
        assert!(hit_test(&scene, Point::new(99.0, 1.0)).is_empty());
    }

    #[test]
    fn rect_query_selects_intersecting() {
        let scene = scene_with_boxes();
        let all = rect_query(&scene, Rect::new(0.0, 0.0, 100.0, 100.0));
        assert_eq!(all, vec![1, 2, 3]);
        let some = rect_query(&scene, Rect::new(40.0, 40.0, 50.0, 50.0));
        assert_eq!(some, vec![2, 3]);
        let none = rect_query(&scene, Rect::new(0.0, 90.0, 5.0, 5.0));
        assert!(none.is_empty());
    }

    #[test]
    fn grid_index_agrees_with_linear_scan() {
        let scene = scene_with_boxes();
        let index = GridIndex::build(&scene, 16.0);
        assert_eq!(index.len(), 3);
        assert!(!index.is_empty());
        for &(x, y) in &[(15.0, 15.0), (28.0, 28.0), (75.0, 75.0), (99.0, 1.0), (45.0, 45.0)] {
            let mut linear = hit_test(&scene, Point::new(x, y));
            linear.sort_unstable();
            assert_eq!(index.hit(Point::new(x, y)), linear, "at ({x},{y})");
        }
        for &rect in &[
            Rect::new(0.0, 0.0, 100.0, 100.0),
            Rect::new(40.0, 40.0, 50.0, 50.0),
            Rect::new(0.0, 90.0, 5.0, 5.0),
        ] {
            assert_eq!(index.query_ordered(rect), rect_query(&scene, rect), "{rect}");
        }
    }

    #[test]
    fn ordered_probes_match_linear_paint_order() {
        // Paint order deliberately disagrees with tag order: tag 9 is
        // painted first, tag 3 on top of it.
        let mut scene = Scene::new(100.0, 100.0);
        scene.push(Node::tagged_rect(Rect::new(10.0, 10.0, 40.0, 40.0), Style::default(), 9));
        scene.push(Node::tagged_rect(Rect::new(20.0, 20.0, 40.0, 40.0), Style::default(), 3));
        scene.push(Node::tagged_rect(Rect::new(80.0, 80.0, 10.0, 10.0), Style::default(), 5));
        let index = GridIndex::build(&scene, 16.0);

        for &(x, y) in &[(15.0, 15.0), (25.0, 25.0), (55.0, 55.0), (85.0, 85.0), (1.0, 99.0)] {
            let p = Point::new(x, y);
            assert_eq!(index.hit_topmost(p), hit_test(&scene, p).last().copied(), "at ({x},{y})");
        }
        for &rect in &[
            Rect::new(0.0, 0.0, 100.0, 100.0),
            Rect::new(25.0, 25.0, 10.0, 10.0),
            Rect::new(75.0, 75.0, 20.0, 20.0),
            Rect::new(0.0, 90.0, 5.0, 5.0),
        ] {
            assert_eq!(index.query_ordered(rect), rect_query(&scene, rect), "{rect}");
        }
    }

    #[test]
    fn index_handles_out_of_canvas_probes() {
        let scene = scene_with_boxes();
        let index = GridIndex::build(&scene, 10.0);
        assert!(index.hit(Point::new(-5.0, -5.0)).is_empty());
        assert!(index.hit(Point::new(500.0, 500.0)).is_empty());
    }

    #[test]
    fn large_primitives_span_cells() {
        let mut scene = Scene::new(100.0, 100.0);
        scene.push(Node::tagged_rect(Rect::new(0.0, 0.0, 100.0, 100.0), Style::default(), 9));
        let index = GridIndex::build(&scene, 10.0);
        assert_eq!(index.hit(Point::new(5.0, 5.0)), vec![9]);
        assert_eq!(index.hit(Point::new(95.0, 95.0)), vec![9]);
    }
}
