//! Building aggregate flex-offers from groups (start alignment).

use std::borrow::Borrow;

use mirabel_flexoffer::{Energy, EnergySlice, FlexOffer, FlexOfferId};
use mirabel_timeseries::SlotSpan;

use crate::error::AggregationError;
use crate::group::group_offers;
use crate::params::AggregationParams;

/// Where a member sits inside an aggregate: its profile is anchored
/// `offset` slots after the aggregate's earliest start (start alignment
/// keeps `offset = est_member − est_aggregate`).
#[derive(Debug, Clone, PartialEq)]
pub struct MemberPlacement {
    /// The member offer's id.
    pub id: FlexOfferId,
    /// Slots between the aggregate's earliest start and the member's.
    pub offset: i64,
    /// A copy of the member's profile slices (the aggregate is
    /// self-contained so disaggregation needs no access to the originals).
    pub slices: Vec<EnergySlice>,
}

/// An aggregate flex-offer: a synthetic [`FlexOffer`] plus the provenance
/// of its members. Rendered light-red in the basic view (Figure 8); the
/// provenance drives the red dashed lines of Figure 10.
#[derive(Debug, Clone, PartialEq)]
pub struct AggregateOffer {
    offer: FlexOffer,
    members: Vec<MemberPlacement>,
}

impl AggregateOffer {
    /// The synthetic merged offer.
    pub fn offer(&self) -> &FlexOffer {
        &self.offer
    }

    /// Member placements, in input order.
    pub fn members(&self) -> &[MemberPlacement] {
        &self.members
    }

    /// Ids of the members (aggregation provenance).
    pub fn member_ids(&self) -> impl Iterator<Item = FlexOfferId> + '_ {
        self.members.iter().map(|m| m.id)
    }

    /// Number of members merged into this aggregate.
    pub fn member_count(&self) -> usize {
        self.members.len()
    }
}

/// Outcome of one aggregation run.
#[derive(Debug, Clone, PartialEq)]
pub struct AggregationResult {
    /// Aggregates built from groups of two or more offers.
    pub aggregates: Vec<AggregateOffer>,
    /// Indices (into the input slice) of offers left untouched because
    /// their group was a singleton; rendered light-blue in Figure 8.
    pub untouched: Vec<usize>,
}

impl AggregationResult {
    /// Number of objects after aggregation (aggregates + untouched).
    pub fn output_count(&self) -> usize {
        self.aggregates.len() + self.untouched.len()
    }

    /// Input count divided by output count — the screen-object reduction
    /// the paper aggregates for (`≥ 1`).
    pub fn reduction_factor(&self, input_count: usize) -> f64 {
        if self.output_count() == 0 {
            1.0
        } else {
            input_count as f64 / self.output_count() as f64
        }
    }

    /// Total flexibility (in slot·offers) lost by aggregation: the sum
    /// over members of `tf_member − tf_aggregate`.
    pub fn flexibility_loss_slots<O: Borrow<FlexOffer>>(&self, offers: &[O]) -> i64 {
        let tf_by_id: std::collections::HashMap<FlexOfferId, i64> = offers
            .iter()
            .map(|fo| (fo.borrow().id(), fo.borrow().time_flexibility().count()))
            .collect();
        let mut loss = 0;
        for agg in &self.aggregates {
            let agg_tf = agg.offer().time_flexibility().count();
            for m in agg.members() {
                if let Some(&tf) = tf_by_id.get(&m.id) {
                    loss += tf - agg_tf;
                }
            }
        }
        loss
    }
}

/// The aggregation engine; construct with the parameters from the tool
/// panel of Figure 11.
#[derive(Debug, Clone)]
pub struct Aggregator {
    params: AggregationParams,
}

impl Aggregator {
    /// Creates an aggregator with the given parameters.
    pub fn new(params: AggregationParams) -> Self {
        Aggregator { params }
    }

    /// The configured parameters.
    pub fn params(&self) -> &AggregationParams {
        &self.params
    }

    /// Groups `offers` and merges every multi-member group into an
    /// [`AggregateOffer`]. Synthetic aggregate ids start after the
    /// largest input id.
    pub fn aggregate<O: Borrow<FlexOffer>>(
        &self,
        offers: &[O],
    ) -> Result<AggregationResult, AggregationError> {
        let groups = group_offers(offers, &self.params);
        let mut next_id = offers.iter().map(|fo| fo.borrow().id().raw()).max().unwrap_or(0) + 1;
        let mut aggregates = Vec::new();
        let mut untouched = Vec::new();
        for group in groups {
            if group.len() == 1 {
                untouched.push(group[0]);
                continue;
            }
            let members: Vec<&FlexOffer> = group.iter().map(|&i| offers[i].borrow()).collect();
            let agg = merge_group(FlexOfferId(next_id), &members)?;
            next_id += 1;
            aggregates.push(agg);
        }
        Ok(AggregationResult { aggregates, untouched })
    }
}

/// Merges a non-empty group of same-direction offers with start
/// alignment.
pub(crate) fn merge_group(
    id: FlexOfferId,
    members: &[&FlexOffer],
) -> Result<AggregateOffer, AggregationError> {
    let first = *members.first().ok_or(AggregationError::EmptyGroup)?;
    let group_est = members.iter().map(|m| m.earliest_start()).min().expect("non-empty");
    let agg_tf = members.iter().map(|m| m.time_flexibility().count()).min().expect("non-empty");
    let agg_len = members
        .iter()
        .map(|m| {
            let offset = (m.earliest_start() - group_est).count();
            offset + m.profile().len() as i64
        })
        .max()
        .expect("non-empty") as usize;

    // Sum member bounds into the aggregate profile (uncovered slots are
    // implicitly [0, 0], which stays valid because bounds are magnitudes).
    let mut slices = vec![EnergySlice { min: Energy::ZERO, max: Energy::ZERO }; agg_len];
    let mut placements = Vec::with_capacity(members.len());
    for m in members {
        let offset = (m.earliest_start() - group_est).count();
        for (i, &s) in m.profile().slices().iter().enumerate() {
            let k = offset as usize + i;
            slices[k] = slices[k].merge(s);
        }
        placements.push(MemberPlacement {
            id: m.id(),
            offset,
            slices: m.profile().slices().to_vec(),
        });
    }

    let creation = members.iter().map(|m| m.creation_time()).min().expect("non-empty");
    let acceptance = members.iter().map(|m| m.acceptance_deadline()).min().expect("non-empty");
    let assignment = members.iter().map(|m| m.assignment_deadline()).min().expect("non-empty");

    // Categorical attributes survive only when uniform across members.
    let uniform = |f: fn(&FlexOffer) -> bool| members.iter().all(|m| f(m));
    let energy_type = if members.iter().all(|m| m.energy_type() == first.energy_type()) {
        first.energy_type()
    } else {
        mirabel_flexoffer::EnergyType::Mixed
    };
    let appliance_type = if members.iter().all(|m| m.appliance_type() == first.appliance_type()) {
        first.appliance_type()
    } else {
        mirabel_flexoffer::ApplianceType::Other
    };
    debug_assert!(
        uniform(|m| m.direction() == Direction::Consumption)
            || uniform(|m| m.direction() == Direction::Production)
    );

    let offer = FlexOffer::builder(id, first.prosumer())
        .direction(first.direction())
        .earliest_start(group_est)
        .latest_start(group_est + SlotSpan::slots(agg_tf))
        .creation_time(creation)
        .acceptance_deadline(acceptance)
        .assignment_deadline(assignment)
        .energy_type(energy_type)
        .prosumer_type(first.prosumer_type())
        .appliance_type(appliance_type)
        .price_per_kwh(first.price_per_kwh())
        .profile_slices(slices)
        .build()
        .map_err(|source| AggregationError::MemberInvalid { id: first.id(), source })?;

    Ok(AggregateOffer { offer, members: placements })
}

use mirabel_flexoffer::Direction;

#[cfg(test)]
mod tests {
    use super::*;
    use mirabel_flexoffer::Energy;
    use mirabel_timeseries::TimeSlot;

    fn wh(v: i64) -> Energy {
        Energy::from_wh(v)
    }

    fn offer(id: u64, est: i64, tf: i64, len: usize, min: i64, max: i64) -> FlexOffer {
        FlexOffer::builder(id, id)
            .earliest_start(TimeSlot::new(est))
            .latest_start(TimeSlot::new(est + tf))
            .slices(len, wh(min), wh(max))
            .build()
            .unwrap()
    }

    #[test]
    fn merge_sums_bounds_with_start_alignment() {
        let a = offer(1, 100, 8, 2, 100, 200);
        let b = offer(2, 101, 8, 2, 50, 60);
        let agg = merge_group(FlexOfferId(10), &[&a, &b]).unwrap();
        let p = agg.offer().profile();
        // Offsets: a at 0, b at 1; length = max(0+2, 1+2) = 3.
        assert_eq!(p.len(), 3);
        assert_eq!(p.slices()[0], EnergySlice { min: wh(100), max: wh(200) });
        assert_eq!(p.slices()[1], EnergySlice { min: wh(150), max: wh(260) });
        assert_eq!(p.slices()[2], EnergySlice { min: wh(50), max: wh(60) });
        assert_eq!(agg.offer().earliest_start(), TimeSlot::new(100));
        assert_eq!(agg.member_count(), 2);
        let ids: Vec<FlexOfferId> = agg.member_ids().collect();
        assert_eq!(ids, vec![FlexOfferId(1), FlexOfferId(2)]);
    }

    #[test]
    fn aggregate_keeps_minimum_flexibility() {
        let a = offer(1, 100, 6, 2, 1, 2);
        let b = offer(2, 100, 4, 2, 1, 2);
        let agg = merge_group(FlexOfferId(10), &[&a, &b]).unwrap();
        assert_eq!(agg.offer().time_flexibility(), SlotSpan::slots(4));
    }

    #[test]
    fn empty_group_rejected() {
        assert_eq!(merge_group(FlexOfferId(1), &[]).unwrap_err(), AggregationError::EmptyGroup);
    }

    #[test]
    fn aggregator_separates_singletons() {
        let offers = vec![
            offer(1, 100, 4, 2, 1, 2),
            offer(2, 100, 4, 2, 1, 2),
            offer(3, 500, 4, 2, 1, 2), // far away, alone in its cell
        ];
        let result = Aggregator::new(AggregationParams::default()).aggregate(&offers).unwrap();
        assert_eq!(result.aggregates.len(), 1);
        assert_eq!(result.untouched, vec![2]);
        assert_eq!(result.output_count(), 2);
        assert!((result.reduction_factor(3) - 1.5).abs() < 1e-12);
    }

    #[test]
    fn aggregate_ids_do_not_collide_with_inputs() {
        let offers = vec![offer(7, 100, 4, 2, 1, 2), offer(3, 100, 4, 2, 1, 2)];
        let result = Aggregator::new(AggregationParams::default()).aggregate(&offers).unwrap();
        assert_eq!(result.aggregates[0].offer().id(), FlexOfferId(8));
    }

    #[test]
    fn mixed_attributes_collapse_to_neutral() {
        let b = offer(2, 100, 4, 2, 1, 2);
        // Like `b` but with distinctive energy and appliance types.
        let a = FlexOffer::builder(1u64, 1u64)
            .earliest_start(TimeSlot::new(100))
            .latest_start(TimeSlot::new(104))
            .slices(2, wh(1), wh(2))
            .energy_type(mirabel_flexoffer::EnergyType::Wind)
            .appliance_type(mirabel_flexoffer::ApplianceType::ElectricVehicle)
            .build()
            .unwrap();
        let agg = merge_group(FlexOfferId(10), &[&a, &b]).unwrap();
        assert_eq!(agg.offer().energy_type(), mirabel_flexoffer::EnergyType::Mixed);
        assert_eq!(agg.offer().appliance_type(), mirabel_flexoffer::ApplianceType::Other);
    }

    #[test]
    fn flexibility_loss_accounting() {
        let offers = vec![offer(1, 100, 6, 2, 1, 2), offer(2, 100, 4, 2, 1, 2)];
        let params = AggregationParams::new(4, 8); // both in one TF cell
        let result = Aggregator::new(params).aggregate(&offers).unwrap();
        assert_eq!(result.aggregates.len(), 1);
        // Aggregate tf = 4; losses: (6-4) + (4-4) = 2.
        assert_eq!(result.flexibility_loss_slots(&offers), 2);
    }

    #[test]
    fn aggregate_total_bounds_equal_member_sums() {
        let offers = [
            offer(1, 100, 4, 3, 100, 300),
            offer(2, 102, 4, 2, 50, 80),
            offer(3, 101, 4, 4, 10, 10),
        ];
        let refs: Vec<&FlexOffer> = offers.iter().collect();
        let agg = merge_group(FlexOfferId(99), &refs).unwrap();
        let expect_min: Energy = offers.iter().map(|o| o.total_min_energy()).sum();
        let expect_max: Energy = offers.iter().map(|o| o.total_max_energy()).sum();
        assert_eq!(agg.offer().total_min_energy(), expect_min);
        assert_eq!(agg.offer().total_max_energy(), expect_max);
    }
}
