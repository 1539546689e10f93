//! The time dimension's fact index: facts bucketed by earliest-start
//! slot and extent-length class.
//!
//! The Figure 7 loader selects the offers whose flexibility window
//! `[earliest start, latest end)` intersects `[from, to)`, and the
//! Figure 6 dashboard counts offers per earliest-start bucket. Facts are
//! stored in prosumer order, so neither can skip a block of the fact
//! columns: without an index both read every fact. [`TimeIndex`] keeps
//! one compressed-sparse-row table of fact positions keyed by
//! (earliest-start slot, ⌊log₂ extent length⌋). Per length class, a
//! window read takes the buckets starting inside the window whole
//! (every extent is at least one slot long, so they intersect it) and
//! extent-tests only the *lookback* buckets: those starting before
//! `from` by less than the class's longest extent. Extents are short
//! and the classes keep the lookback of the many short ones short, so a
//! read visits about the facts it selects.
//!
//! The index belongs to one warehouse version. The first time-selective
//! read of a version builds it with one counting sort, and
//! [`Warehouse::ingest`](crate::Warehouse::ingest) and
//! [`Warehouse::withdraw`](crate::Warehouse::withdraw), the only calls
//! that add, remove or move facts, drop it. Statuses and measures stay
//! in the columns, so schedule assignment and metering leave it valid.

use mirabel_timeseries::TimeSlot;

use crate::columns::{group_by_key, ColumnStore};

/// Fact positions bucketed by (earliest-start slot, extent-length
/// class) in one CSR table; see the [module docs](self).
#[derive(Debug)]
pub(crate) struct TimeIndex {
    /// Earliest-start slot of bucket row 0 (the earliest start of all).
    first: i64,
    /// Slot rows per class: one per slot from the earliest to the latest
    /// start (0 for an empty warehouse).
    rows: usize,
    /// The longest extent, in slots, of each length class. Class `c`
    /// holds the extents of `2^c` to `2^(c+1) - 1` slots; an empty class
    /// reads 0.
    longest: Vec<i64>,
    /// Bucket bounds, class-major: bucket (class `c`, row `r`) holds
    /// `facts[offsets[c * rows + r]..offsets[c * rows + r + 1]]`, so the
    /// buckets of one class over a run of slots are one slice.
    offsets: Vec<u32>,
    /// Fact positions, ascending within each bucket.
    facts: Vec<u32>,
}

/// The length class of an extent of `len ≥ 1` slots: ⌊log₂ len⌋.
fn class_of(len: i64) -> usize {
    len.ilog2() as usize
}

impl TimeIndex {
    /// Buckets every fact of `columns` with one counting sort: a walk
    /// over the segments for the slot range and classes, a walk keying
    /// each fact to its bucket, and the sort placing positions, ascending,
    /// so each bucket ascends.
    pub(crate) fn build(columns: &ColumnStore) -> TimeIndex {
        let (mut first, mut last, mut classes) = (i64::MAX, i64::MIN, 0);
        for seg in columns.segments() {
            for (k, start) in seg.earliest_starts().iter().enumerate() {
                first = first.min(start.index());
                last = last.max(start.index());
                classes = classes.max(class_of(seg.extent_len(k)) + 1);
            }
        }
        let rows = if columns.is_empty() { 0 } else { (last - first + 1) as usize };
        let mut longest = vec![0; classes];
        let mut buckets = Vec::with_capacity(columns.len());
        for seg in columns.segments() {
            for (k, start) in seg.earliest_starts().iter().enumerate() {
                let len = seg.extent_len(k);
                let class = class_of(len);
                longest[class] = longest[class].max(len);
                let bucket = class * rows + (start.index() - first) as usize;
                buckets.push(u32::try_from(bucket).expect("fewer than 2^32 time buckets"));
            }
        }
        let (offsets, facts) = group_by_key(&buckets, classes * rows);
        TimeIndex { first, rows, longest, offsets, facts }
    }

    /// The bucket row of `slot`, clamped to the covered rows; saturating,
    /// so any `i64` slot is a valid argument.
    fn row(&self, slot: i64) -> usize {
        slot.saturating_sub(self.first).clamp(0, self.rows as i64) as usize
    }

    /// The facts of class `class` starting in rows `lo..hi`.
    fn bucket_rows(&self, class: usize, lo: usize, hi: usize) -> &[u32] {
        let base = class * self.rows;
        &self.facts[self.offsets[base + lo] as usize..self.offsets[base + hi] as usize]
    }

    /// The candidates of the window `[from, to)`, one pair per length
    /// class: the lookback facts, which start before `from` by less than
    /// the class's longest extent and intersect the window only when
    /// their own extent reaches `from`, and the facts starting inside the
    /// window, which all intersect it. A fact appears at most once
    /// overall; within a slice, positions ascend per bucket. An empty or
    /// inverted window (`from ≥ to`) has no candidates.
    pub(crate) fn window(
        &self,
        from: TimeSlot,
        to: TimeSlot,
    ) -> impl Iterator<Item = (&[u32], &[u32])> + '_ {
        let (from, to) = (from.index(), to.index());
        let classes = if from < to { self.longest.len() } else { 0 };
        let (start, end) = (self.row(from), self.row(to));
        (0..classes).map(move |class| {
            let reach = self.row(from.saturating_sub((self.longest[class] - 1).max(0)));
            (self.bucket_rows(class, reach, start), self.bucket_rows(class, start, end))
        })
    }

    /// Calls `visit(start, idx)` for every fact whose earliest start lies
    /// in `[from, to)`, class by class and slot by slot (so not in fact
    /// order). Nothing for `from ≥ to`.
    pub(crate) fn for_each_start(
        &self,
        from: TimeSlot,
        to: TimeSlot,
        mut visit: impl FnMut(TimeSlot, usize),
    ) {
        let (lo, hi) = (self.row(from.index()), self.row(to.index()));
        for class in 0..self.longest.len() {
            for row in lo..hi {
                let start = TimeSlot::new(self.first + row as i64);
                for &i in self.bucket_rows(class, row, row + 1) {
                    visit(start, i as usize);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hierarchy::MemberId;
    use mirabel_flexoffer::{Energy, FlexOffer};

    /// A store of offers given as (earliest start, start flexibility,
    /// profile slots).
    fn store(shapes: &[(i64, i64, usize)]) -> ColumnStore {
        let mut cs = ColumnStore::new();
        for (k, &(est, flex, len)) in shapes.iter().enumerate() {
            let fo = FlexOffer::builder(k as u64 + 1, 1u64)
                .earliest_start(TimeSlot::new(est))
                .latest_start(TimeSlot::new(est + flex))
                .slices(len, Energy::ZERO, Energy::from_wh(1))
                .build()
                .unwrap();
            cs.push(&fo, [MemberId(1); 6]);
        }
        cs
    }

    /// Fact `i`'s earliest start and extent end, as slot indices.
    fn extent(cs: &ColumnStore, i: usize) -> (i64, i64) {
        let (s, k) = crate::columns::locate(i);
        let seg = &cs.segments()[s];
        let lo = seg.earliest_starts()[k].index();
        (lo, lo + seg.extent_len(k))
    }

    /// The window's facts through the index, with the lookback facts
    /// extent-tested as the warehouse does, sorted.
    fn window(cs: &ColumnStore, from: i64, to: i64) -> Vec<usize> {
        let index = TimeIndex::build(cs);
        let mut out = Vec::new();
        for (lookback, inside) in index.window(TimeSlot::new(from), TimeSlot::new(to)) {
            out.extend(lookback.iter().map(|&i| i as usize).filter(|&i| from < extent(cs, i).1));
            out.extend(inside.iter().map(|&i| i as usize));
        }
        out.sort_unstable();
        out
    }

    /// The same selection by testing every fact's extent.
    fn scan(cs: &ColumnStore, from: i64, to: i64) -> Vec<usize> {
        (0..cs.len())
            .filter(|&i| {
                let (lo, hi) = extent(cs, i);
                from < to && lo < to && from < hi
            })
            .collect()
    }

    #[test]
    fn buckets_ascend_and_classes_record_their_longest_extent() {
        // Extents 1, 3, 2, 8, 5, 3 slots: classes 0, 1, 1, 3, 2, 1.
        let cs = store(&[(4, 0, 1), (2, 1, 2), (4, 0, 2), (0, 5, 3), (2, 4, 1), (2, 0, 3)]);
        let index = TimeIndex::build(&cs);
        assert_eq!(index.first, 0);
        assert_eq!(index.rows, 5);
        assert_eq!(index.longest, vec![1, 3, 5, 8]);
        assert_eq!(index.offsets.len(), 4 * 5 + 1);
        // Class 1, slot 2 holds facts 1 and 5, ascending.
        assert_eq!(index.bucket_rows(1, 2, 3), &[1, 5]);
        for class in 0..4 {
            for row in 0..5 {
                assert!(index.bucket_rows(class, row, row + 1).windows(2).all(|w| w[0] < w[1]));
            }
        }
        assert_eq!(index.facts.len(), cs.len());
    }

    #[test]
    fn windows_equal_the_extent_test_on_every_slot_pair() {
        let cs = store(&[
            (4, 0, 1),
            (2, 1, 2),
            (4, 0, 2),
            (0, 5, 3),
            (2, 4, 1),
            (2, 0, 3),
            (9, 0, 1),
            (7, 30, 2),
        ]);
        for from in -3..45 {
            for to in -3..45 {
                assert_eq!(window(&cs, from, to), scan(&cs, from, to), "[{from}, {to})");
            }
        }
        for (from, to) in [(i64::MIN, i64::MAX), (i64::MIN, 5), (5, i64::MAX), (i64::MAX, i64::MIN)]
        {
            assert_eq!(window(&cs, from, to), scan(&cs, from, to), "[{from}, {to})");
        }
    }

    #[test]
    fn starts_visit_each_fact_starting_in_the_window_once() {
        let cs = store(&[(4, 0, 1), (2, 1, 2), (4, 0, 2), (0, 5, 3), (2, 4, 1)]);
        let index = TimeIndex::build(&cs);
        let mut seen = Vec::new();
        index.for_each_start(TimeSlot::new(1), TimeSlot::new(5), |start, i| {
            assert_eq!(cs.earliest_starts()[i], start);
            seen.push(i);
        });
        seen.sort_unstable();
        assert_eq!(seen, vec![0, 1, 2, 4]);
        index.for_each_start(TimeSlot::new(5), TimeSlot::new(1), |_, _| panic!("inverted"));
        index.for_each_start(TimeSlot::new(i64::MIN), TimeSlot::new(i64::MAX), |_, i| {
            seen.retain(|&j| j != i)
        });
        assert!(seen.is_empty());
    }

    #[test]
    fn an_empty_store_has_no_buckets() {
        let index = TimeIndex::build(&ColumnStore::new());
        assert_eq!(index.rows, 0);
        assert_eq!(index.window(TimeSlot::new(i64::MIN), TimeSlot::new(i64::MAX)).count(), 0);
        index.for_each_start(TimeSlot::new(0), TimeSlot::new(9), |_, _| panic!("no facts"));
    }
}
