//! The spatial dimension's fact index: per-region postings.
//!
//! Section 3 requires filtering "for a spatial object, e.g., country,
//! city, or district". The warehouse keys every fact to a geography leaf
//! at load time, but answering *"offers in Midtjylland"* by scanning all
//! facts is O(population). [`SpatialIndex`] keeps one ascending posting
//! list of fact positions per district leaf, so a region-scoped
//! [`LoaderQuery`](crate::LoaderQuery) merges the posting lists of the
//! leaves under the queried member — O(offers-in-subtree) — instead of
//! scanning everything.
//!
//! The index is derived from one warehouse version's geography leaf
//! column: the first read that needs it builds it with one counting sort
//! (see `DESIGN.md`, "Derived indices"), and
//! [`Warehouse::ingest`](crate::Warehouse::ingest) and
//! [`Warehouse::withdraw`](crate::Warehouse::withdraw) drop it. The
//! writer never maintains it.
//!
//! Membership itself is resolved by the writer **once per prosumer**, not
//! once per fact: the first offer of a prosumer runs point-in-region over
//! its meter location ([`Geography::resolve_district`]) and the writer
//! caches the result, so a million-offer load does point-in-polygon work
//! proportional to the number of distinct prosumers. Locations outside
//! every region polygon deterministically land on the synthetic
//! `Unassigned` district leaf (appended by
//! [`Hierarchy::geography`](crate::Hierarchy::geography)) — facts are
//! never dropped from the spatial dimension.
//!
//! [`Geography::resolve_district`]: mirabel_geo::Geography::resolve_district

use crate::columns::{group_by_key, ColumnStore, FactBitmap};
use crate::hierarchy::{Dimension, Hierarchy, MemberId};

/// Per-region fact index of one warehouse version: the fact positions
/// keyed to each geography leaf, ascending, in one CSR table indexed by
/// the leaf's member id.
#[derive(Debug, Default)]
pub struct SpatialIndex {
    /// Leaf member `m` holds `facts[bounds[m]..bounds[m + 1]]`.
    bounds: Vec<u32>,
    facts: Vec<u32>,
}

impl SpatialIndex {
    /// Groups the facts of `columns` by geography leaf, walking the
    /// segments in fact order.
    pub(crate) fn build(columns: &ColumnStore) -> SpatialIndex {
        let dict = columns.dict(Dimension::Geography).dict();
        let mut leaves = Vec::with_capacity(columns.len());
        for seg in columns.segments() {
            leaves.extend(seg.codes(Dimension::Geography).iter().map(|&c| dict[c as usize].0));
        }
        let groups = leaves.iter().max().map_or(0, |&m| m as usize + 1);
        let (bounds, facts) = group_by_key(&leaves, groups);
        SpatialIndex { bounds, facts }
    }

    /// Posting list of one district leaf (empty when no facts key to it).
    pub fn indices(&self, leaf: MemberId) -> &[u32] {
        let m = leaf.0 as usize;
        match (self.bounds.get(m), self.bounds.get(m + 1)) {
            (Some(&lo), Some(&hi)) => &self.facts[lo as usize..hi as usize],
            _ => &[],
        }
    }

    /// Fact positions under `member` (any level of the geography
    /// hierarchy), ascending: the posting lists of every district leaf in
    /// the member's subtree, merged. A single-leaf subtree is answered by
    /// copying its (already ascending) posting list; wider subtrees merge
    /// through a fact-position bitmap, which is
    /// O(offers-in-subtree + max-fact-index/64), where the comparison sort
    /// it replaces paid O(n log n) on the leaf-interleaved order and
    /// dominated the S5 region-query harness at city scale.
    pub fn indices_under(&self, geography: &Hierarchy, member: MemberId) -> Vec<usize> {
        self.indices_of(&region_leaves(geography, member))
    }

    /// Fact positions keyed to any of the distinct district `leaves`,
    /// ascending: their posting lists merged as
    /// [`SpatialIndex::indices_under`] describes.
    pub(crate) fn indices_of(&self, leaves: &[MemberId]) -> Vec<usize> {
        if let [leaf] = leaves {
            return self.indices(*leaf).iter().map(|&i| i as usize).collect();
        }
        let lists: Vec<&[u32]> = leaves.iter().map(|&leaf| self.indices(leaf)).collect();
        let Some(max) = lists.iter().filter_map(|l| l.last()).max() else {
            return Vec::new();
        };
        let mut merged = FactBitmap::new(*max as usize + 1);
        for &i in lists.iter().copied().flatten() {
            merged.insert(i as usize);
        }
        merged.into_ascending()
    }

    /// Number of distinct leaves with at least one fact.
    pub fn populated_leaves(&self) -> usize {
        self.bounds.windows(2).filter(|w| w[0] < w[1]).count()
    }
}

/// The district (level 3) leaves in the subtree of `member`: the member
/// itself when it already is a leaf, otherwise every leaf below it.
pub fn region_leaves(geography: &Hierarchy, member: MemberId) -> Vec<MemberId> {
    match geography.member(member) {
        Some(m) if m.level == 3 => vec![member],
        Some(_) => geography
            .at_level(3)
            .filter(|leaf| geography.is_descendant(leaf.id, member))
            .map(|leaf| leaf.id)
            .collect(),
        None => Vec::new(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mirabel_flexoffer::{Energy, FlexOffer};
    use mirabel_geo::Geography as Geo;
    use mirabel_timeseries::TimeSlot;

    fn geo_hierarchy() -> (Hierarchy, Vec<MemberId>, MemberId) {
        Hierarchy::geography(&Geo::synthetic_denmark())
    }

    #[test]
    fn leaves_under_each_level_have_expected_counts() {
        let (h, district_leaves, unassigned) = geo_hierarchy();
        assert_eq!(region_leaves(&h, h.all().id).len(), 61);
        let region = h.member_by_name("Midtjylland").unwrap().id;
        assert_eq!(region_leaves(&h, region).len(), 12); // 3 cities x 4
        let city = h.member_by_name("Aarhus").unwrap().id;
        assert_eq!(region_leaves(&h, city).len(), 4);
        let leaf = district_leaves[0];
        assert_eq!(region_leaves(&h, leaf), vec![leaf]);
        assert_eq!(region_leaves(&h, unassigned), vec![unassigned]);
        assert!(region_leaves(&h, MemberId(9_999)).is_empty());
    }

    #[test]
    fn postings_merge_ascending_under_ancestors() {
        let (h, _, _) = geo_hierarchy();
        // Facts 3 and 7 in one Aarhus district, 5 in another, 1 in a
        // Copenhagen district; the rest outside both cities.
        let aarhus = h.member_by_name("Aarhus").unwrap().id;
        let aarhus_leaves: Vec<MemberId> = region_leaves(&h, aarhus);
        let copenhagen = h.member_by_name("Copenhagen").unwrap().id;
        let elsewhere = h.member_by_name("Hovedstaden").unwrap().id;
        let other = region_leaves(&h, elsewhere)
            .into_iter()
            .find(|&l| !region_leaves(&h, copenhagen).contains(&l))
            .unwrap();
        let mut leaves = [other; 8];
        leaves[3] = aarhus_leaves[0];
        leaves[7] = aarhus_leaves[0];
        leaves[5] = aarhus_leaves[1];
        leaves[1] = region_leaves(&h, copenhagen)[0];
        let mut columns = ColumnStore::new();
        for (i, &leaf) in leaves.iter().enumerate() {
            let fo = FlexOffer::builder(i as u64 + 1, 1u64)
                .earliest_start(TimeSlot::new(0))
                .slices(1, Energy::ZERO, Energy::from_wh(1))
                .build()
                .unwrap();
            let mut keys = [MemberId(0); 6];
            keys[Dimension::Geography as usize] = leaf;
            columns.push(&fo, keys);
        }
        let index = SpatialIndex::build(&columns);

        assert_eq!(index.indices(aarhus_leaves[0]), &[3, 7]);
        assert_eq!(index.indices_under(&h, aarhus), vec![3, 5, 7]);
        let midt = h.member_by_name("Midtjylland").unwrap().id;
        assert_eq!(index.indices_under(&h, midt), vec![3, 5, 7]);
        assert_eq!(index.indices_under(&h, h.all().id), (0..8).collect::<Vec<_>>());
        assert_eq!(index.populated_leaves(), 4);
        assert!(index.indices(MemberId(9_999)).is_empty());
        assert_eq!(SpatialIndex::build(&ColumnStore::new()).populated_leaves(), 0);
    }
}
