//! The spatial dimension's fact index: per-region postings plus a
//! per-prosumer membership cache.
//!
//! Section 3 requires filtering "for a spatial object, e.g., country,
//! city, or district". The warehouse keys every fact to a geography leaf
//! at load time, but answering *"offers in Midtjylland"* by scanning all
//! facts is O(population). [`SpatialIndex`] keeps one ascending posting
//! list of fact indices per district leaf, so a region-scoped
//! [`LoaderQuery`](crate::LoaderQuery) merges the posting lists of the
//! leaves under the queried member — O(offers-in-subtree) — instead of
//! scanning everything.
//!
//! Membership itself is resolved **once per prosumer**, not once per
//! fact: the first offer of a prosumer runs point-in-region over its
//! meter location ([`Geography::resolve_district`]) and the result is
//! cached, so a million-offer load does point-in-polygon work
//! proportional to the number of distinct prosumers. Locations outside
//! every region polygon deterministically land on the synthetic
//! `Unassigned` district leaf (appended by
//! [`Hierarchy::geography`](crate::Hierarchy::geography)) — facts are
//! never dropped from the spatial dimension.

use std::collections::HashMap;

use mirabel_flexoffer::ProsumerId;
use mirabel_geo::Geography;
use mirabel_workload::Prosumer;

use crate::columns::{remap, FactBitmap};
use crate::hierarchy::{Hierarchy, MemberId};

/// Per-region fact index of one warehouse.
///
/// Maintained incrementally: [`Warehouse::ingest`](crate::Warehouse::ingest)
/// appends to one posting list per fact, and
/// [`Warehouse::withdraw`](crate::Warehouse::withdraw) remaps the postings
/// in place with the same old→new position map as the other secondary
/// indices — dead entries drop out, later survivors shift down, emptied
/// lists are removed. The warehouse holds the index behind a
/// copy-on-write [`Arc`](std::sync::Arc), so cloning the warehouse (the
/// live warehouse's epoch publish) freezes the index by *sharing* it —
/// the next mutating batch unshares its own copy.
#[derive(Debug, Clone, Default)]
pub struct SpatialIndex {
    /// District leaf member → fact indices, ascending.
    postings: HashMap<MemberId, Vec<usize>>,
    /// Prosumer → resolved district leaf (the per-prosumer cache).
    membership: HashMap<ProsumerId, MemberId>,
}

impl SpatialIndex {
    /// An empty index.
    pub fn new() -> SpatialIndex {
        SpatialIndex::default()
    }

    /// The geography leaf of `prosumer`, resolving its meter location by
    /// point-in-region on first sight and answering from the cache after
    /// that. Unresolvable locations map to `unassigned`.
    pub fn leaf_for(
        &mut self,
        geo: &Geography,
        district_leaves: &[MemberId],
        unassigned: MemberId,
        prosumer: &Prosumer,
    ) -> MemberId {
        *self.membership.entry(prosumer.id).or_insert_with(|| {
            geo.resolve_district(prosumer.location)
                .and_then(|r| district_leaves.get(r.district.0 as usize).copied())
                .unwrap_or(unassigned)
        })
    }

    /// Appends a fact index to the posting list of `leaf` (fact indices
    /// arrive in ascending order by construction).
    pub fn insert(&mut self, leaf: MemberId, fact_idx: usize) {
        self.postings.entry(leaf).or_default().push(fact_idx);
    }

    /// Withdraw maintenance: removes the facts at the ascending `dead`
    /// positions from every posting list and shifts the later survivors
    /// down, in order; lists left empty are dropped. The membership
    /// cache is unaffected — prosumers do not move.
    pub(crate) fn remap(&mut self, dead: &[usize]) {
        self.postings.retain(|_, list| {
            list.retain_mut(|idx| remap(dead, idx));
            !list.is_empty()
        });
    }

    /// Posting list of one district leaf (empty when no facts key to it).
    pub fn indices(&self, leaf: MemberId) -> &[usize] {
        self.postings.get(&leaf).map(Vec::as_slice).unwrap_or(&[])
    }

    /// Fact indices under `member` (any level of the geography
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

    /// Fact indices keyed to any of the distinct district `leaves`,
    /// ascending: their posting lists merged as
    /// [`SpatialIndex::indices_under`] describes.
    pub(crate) fn indices_of(&self, leaves: &[MemberId]) -> Vec<usize> {
        if let [leaf] = leaves {
            return self.indices(*leaf).to_vec();
        }
        let lists: Vec<&[usize]> = leaves.iter().map(|&leaf| self.indices(leaf)).collect();
        let Some(max) = lists.iter().filter_map(|l| l.last()).max() else {
            return Vec::new();
        };
        let mut merged = FactBitmap::new(max + 1);
        for &i in lists.iter().copied().flatten() {
            merged.insert(i);
        }
        merged.into_ascending()
    }

    /// Number of distinct leaves with at least one fact.
    pub fn populated_leaves(&self) -> usize {
        self.postings.values().filter(|v| !v.is_empty()).count()
    }

    /// Number of cached prosumer memberships.
    pub fn cached_memberships(&self) -> usize {
        self.membership.len()
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
    use mirabel_geo::Geography as Geo;

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
        let (h, district_leaves, _) = geo_hierarchy();
        let mut index = SpatialIndex::new();
        // Two Aarhus districts and one Copenhagen district.
        let aarhus = h.member_by_name("Aarhus").unwrap().id;
        let aarhus_leaves: Vec<MemberId> = region_leaves(&h, aarhus);
        index.insert(aarhus_leaves[0], 3);
        index.insert(aarhus_leaves[0], 7);
        index.insert(aarhus_leaves[1], 5);
        let copenhagen = h.member_by_name("Copenhagen").unwrap().id;
        index.insert(region_leaves(&h, copenhagen)[0], 1);

        assert_eq!(index.indices_under(&h, aarhus), vec![3, 5, 7]);
        let midt = h.member_by_name("Midtjylland").unwrap().id;
        assert_eq!(index.indices_under(&h, midt), vec![3, 5, 7]);
        assert_eq!(index.indices_under(&h, h.all().id), vec![1, 3, 5, 7]);
        assert_eq!(index.populated_leaves(), 3);
        let _ = district_leaves;
    }

    #[test]
    fn membership_is_resolved_once_and_cached() {
        use mirabel_workload::{Population, PopulationConfig};
        let pop =
            Population::generate(&PopulationConfig { size: 50, seed: 9, household_share: 0.8 });
        let (h, district_leaves, unassigned) = Hierarchy::geography(pop.geography());
        let mut index = SpatialIndex::new();
        for p in pop.prosumers() {
            let leaf = index.leaf_for(pop.geography(), &district_leaves, unassigned, p);
            // The cached resolution agrees with the declared placement.
            assert_eq!(leaf, district_leaves[p.district.0 as usize], "{}", p.name);
            // Second call answers from the cache (same result).
            assert_eq!(index.leaf_for(pop.geography(), &district_leaves, unassigned, p), leaf);
        }
        assert_eq!(index.cached_memberships(), pop.prosumers().len());
        let _ = h;
    }
}
