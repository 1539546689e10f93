//! Property tests for the encoded column path and the write path.
//!
//! The invariants pinned here, against the public crate surface only:
//!
//! 1. **dictionary round-trip** — after every mutation of a seeded
//!    ingest/refresh/withdraw churn trace, each segment holds one code
//!    per fact that round-trips through its dimension's dictionary, the
//!    dictionaries hold distinct members, and every segment but the last
//!    is full. The same trace also checks the write path: a clone held as the
//!    published epoch stays frozen while the working copy moves on, and
//!    every derived index (per id, per prosumer, per region, the time
//!    index behind window-only loads) agrees with the fact columns and
//!    the index-free scan — on the working copy, on the epoch held since
//!    the last publish and on one held across the whole trace;
//! 2. **pushdown ≡ the row oracle** — `Warehouse::eval` (dictionary-mask
//!    pushdown) agrees bit-for-bit with both `eval_scan` (the plain
//!    columnar scan) and `eval_rows` (the row-shaped reference) for
//!    every dimension × hierarchy level × operator (filter, group-by,
//!    status restriction, time range, conjunctions) × measure;
//! 3. **segment boundaries** — at one fact either side of a segment
//!    boundary, after withdrawals that straddle it, `eval` (plain and
//!    grouped on every dimension; bare, one-mask and postings-driven
//!    passes, and a status restriction under a time range), `pivot`
//!    (every pass shape: the bare pass over the six benchmark MDX
//!    shapes, an axis that leaves codes uncovered, an overlapping axis,
//!    both axes on one dimension, status-restricted, one-mask and
//!    postings-driven passes) and `mdx` match their oracles bit for bit,
//!    and the store equals a fresh load of the survivors;
//! 4. **a write copies what it writes** — across a live trace, every
//!    segment a batch neither appended to, refreshed nor compacted is
//!    the very segment the previous epoch holds.
//!
//! The state space is walked deterministically from fixed seeds.

use std::collections::{HashMap, HashSet};
use std::sync::Arc;

use mirabel_dw::{
    ColumnStore, Dimension, FactRow, LiveWarehouse, LoaderQuery, Measure, MemberId, PivotAxis,
    PivotSpec, Query, Warehouse, SEGMENT_FACTS,
};
use mirabel_flexoffer::{Direction, FlexOffer, FlexOfferId, OfferState, ProsumerId, Schedule};
use mirabel_timeseries::{SlotSpan, TimeSlot};
use mirabel_workload::{
    generate_ingest_trace, generate_offers, IngestEvent, IngestTraceConfig, OfferConfig,
    Population, PopulationConfig,
};

fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A feasible schedule for `fo`: its earliest start, minimum energies.
fn min_schedule(fo: &FlexOffer) -> Schedule {
    Schedule::new(fo.earliest_start(), fo.profile().slices().iter().map(|s| s.min).collect())
}

/// The dictionary round-trip: each segment holds one code per fact,
/// every code decodes to a leaf that encodes back to it, the dictionary
/// values are unique, and every segment but the last is full.
fn assert_encoded_consistent(cols: &ColumnStore) {
    let segments = cols.segments();
    for (s, seg) in segments.iter().enumerate() {
        assert!(!seg.is_empty(), "segment {s} is empty");
        assert!(s + 1 == segments.len() || seg.len() == SEGMENT_FACTS, "segment {s} is not full");
        for dim in Dimension::ALL {
            let dc = cols.dict(dim);
            assert_eq!(seg.codes(dim).len(), seg.len(), "{dim:?}: one code per fact");
            for &code in seg.codes(dim) {
                let leaf = dc.dict()[code as usize];
                assert_eq!(dc.code(leaf), Some(code), "{dim:?}: leaves encode back to their code");
            }
            let mut seen = HashSet::new();
            assert!(
                dc.dict().iter().all(|m| seen.insert(*m)),
                "{dim:?}: dictionary values are unique"
            );
        }
        assert_eq!(seg.statuses().len(), seg.len(), "status: one per fact");
    }
    assert_eq!(cols.len(), segments.iter().map(|s| s.len()).sum::<usize>());
}

/// What a published epoch shows: every fact row, the unfiltered
/// loader's offers, each geography member's view and each window-only
/// view of [`window_queries`].
type EpochState = (Vec<FactRow>, Vec<FlexOfferId>, Vec<Vec<FlexOfferId>>, Vec<Vec<FlexOfferId>>);

fn published_state(dw: &Warehouse) -> EpochState {
    let rows = dw.columns().rows().collect();
    let loaded = dw.load_offers(&LoaderQuery::builder().build()).iter().map(|fo| fo.id()).collect();
    let regions = geography_members(dw)
        .into_iter()
        .map(|m| dw.view(&LoaderQuery::for_region(m).build()).ids().collect())
        .collect();
    let windows = window_queries().iter().map(|q| dw.view(q).ids().collect()).collect();
    (rows, loaded, regions, windows)
}

/// Window-only loads over the trace's three days, with and without a
/// direction: single slots, two hours, whole days, windows before and
/// after every fact, empty and inverted windows, and `i64` extremes.
fn window_queries() -> Vec<LoaderQuery> {
    let at = |slot: i64| TimeSlot::new(slot);
    let mut windows: Vec<(TimeSlot, TimeSlot)> =
        [0, 37, 95, 96, 150, 287, 300].into_iter().map(|s| (at(s), at(s + 1))).collect();
    windows.extend([
        (at(40), at(48)),
        (at(130), at(138)),
        (at(0), at(96)),
        (at(96), at(192)),
        (at(-50), at(0)),
        (at(400), at(500)),
        (at(60), at(60)),
        (at(80), at(20)),
        (at(i64::MIN), at(50)),
        (at(50), at(i64::MAX)),
        (at(i64::MIN), at(i64::MAX)),
        (at(i64::MAX), at(i64::MIN)),
    ]);
    let mut queries = Vec::new();
    for (from, to) in windows {
        for direction in [None, Some(Direction::Consumption), Some(Direction::Production)] {
            let builder = LoaderQuery::builder().window(from, to);
            queries.push(match direction {
                Some(d) => builder.direction(d).build(),
                None => builder.build(),
            });
        }
    }
    queries
}

/// Every member of the geography hierarchy, at every level.
fn geography_members(dw: &Warehouse) -> Vec<MemberId> {
    dw.hierarchy(Dimension::Geography).members().iter().map(|m| m.id).collect()
}

/// The secondary indices against the fact columns: `offer` and
/// `geo_leaf_of` resolve every live id to its own fact and no withdrawn
/// id at all, and the indexed loaders (per-prosumer and per-region
/// postings, the time index) return exactly the index-free scan's
/// offers.
fn assert_indices_match_columns(
    dw: &Warehouse,
    withdrawn: &[FlexOfferId],
    prosumers: &[ProsumerId],
    context: &str,
) {
    let cols = dw.columns();
    for (i, &id) in cols.offer_ids().iter().enumerate() {
        let fo = dw.offer(id).unwrap_or_else(|| panic!("{context}: live {id:?} has no offer"));
        assert!(std::ptr::eq(fo, dw.offers()[i].as_ref()), "{context}: {id:?} is not fact {i}");
        assert_eq!(fo.prosumer(), cols.prosumers()[i], "{context}: prosumer of fact {i}");
        let leaf = cols.leaf(i, Dimension::Geography);
        assert_eq!(dw.geo_leaf_of(id), Some(leaf), "{context}: leaf of fact {i}");
    }
    for &id in withdrawn {
        assert!(dw.offer(id).is_none(), "{context}: withdrawn {id:?} still resolves");
        assert_eq!(dw.geo_leaf_of(id), None, "{context}: withdrawn {id:?} still has a leaf");
    }
    let scan = |q: &LoaderQuery| -> Vec<FlexOfferId> {
        dw.load_offers_scan(q).iter().map(|fo| fo.id()).collect()
    };
    for &p in prosumers {
        let q = LoaderQuery::for_prosumer(p).build();
        assert_eq!(dw.view(&q).ids().collect::<Vec<_>>(), scan(&q), "{context}: prosumer {p:?}");
    }
    for m in geography_members(dw) {
        let q = LoaderQuery::for_region(m).build();
        assert_eq!(dw.view(&q).ids().collect::<Vec<_>>(), scan(&q), "{context}: region {m}");
    }
    for q in window_queries() {
        let view: Vec<FlexOfferId> = dw.view(&q).ids().collect();
        assert_eq!(view, scan(&q), "{context}: window {q:?}");
        assert!(q.from < q.to || view.is_empty(), "{context}: {q:?} is empty");
    }
}

#[test]
fn encoded_columns_decode_to_plain_under_seeded_churn() {
    let population =
        Population::generate(&PopulationConfig { size: 32, seed: 0xE5C0, household_share: 0.8 });
    let window_start = TimeSlot::new(0);
    let initial = generate_offers(&population, &OfferConfig { window_start, days: 1, seed: 0xA0 });
    let first_id = initial.len() as u64 + 1;
    let trace = generate_ingest_trace(
        &population,
        &IngestTraceConfig { days: 2, batches_per_day: 3, withdraw_fraction: 0.25, seed: 0x5EED },
        first_id,
        window_start,
    );

    let mut dw = Warehouse::load(&population, &initial);
    assert_encoded_consistent(dw.columns());
    // The published epoch: held across each batch, so every batch's
    // first mutation unshares the copy-on-write state. `first` is held
    // across the whole trace.
    let mut held = dw.clone();
    let mut held_state = published_state(&held);
    let first = dw.clone();
    let first_state = published_state(&first);
    let mut withdrawn: Vec<FlexOfferId> = Vec::new();
    let mut held_withdrawn: Vec<FlexOfferId> = Vec::new();

    // Every arrived offer, retained so schedule churn can synthesise a
    // feasible assignment for it later in the trace.
    let mut arrived: HashMap<FlexOfferId, FlexOffer> =
        initial.iter().map(|fo| (fo.id(), fo.clone())).collect();
    let mut rng = 0x0DDB_1A5E_5BAD_5EEDu64;
    let mut publishes = 0usize;

    for (step, event) in trace.into_iter().enumerate() {
        let is_publish = event == IngestEvent::Publish;
        match event {
            IngestEvent::Arrive { offers } => {
                arrived.extend(offers.iter().map(|fo| (fo.id(), fo.clone())));
                dw.ingest(&population, &offers);
            }
            IngestEvent::Withdraw { ids } => {
                for id in &ids {
                    arrived.remove(id);
                }
                dw.withdraw(&ids);
                withdrawn.extend(&ids);
            }
            IngestEvent::AdvanceDay => {
                dw.advance_day();
            }
            IngestEvent::Publish => {
                publishes += 1;
                // Refresh churn: schedule a pseudo-random third of the
                // still-Offered facts (in-place status rewrites), then
                // execute whatever is due.
                let picks: Vec<(FlexOfferId, Schedule)> = dw
                    .offers()
                    .iter()
                    .filter(|fo| fo.status() == OfferState::Offered)
                    .filter(|_| splitmix(&mut rng).is_multiple_of(3))
                    .filter_map(|fo| arrived.get(&fo.id()).map(|o| (o.id(), min_schedule(o))))
                    .collect();
                let outcome = dw.assign_schedules(&picks);
                assert_eq!(outcome.scheduled, picks.len(), "synthesised schedules are feasible");
                dw.execute_due(window_start + SlotSpan::days(1));
            }
        }
        assert_encoded_consistent(dw.columns());
        let context = format!("after event {step}");
        assert!(published_state(&held) == held_state, "{context}: the held epoch moved");
        assert!(published_state(&first) == first_state, "{context}: the first epoch moved");
        let sample: Vec<ProsumerId> = population
            .prosumers()
            .iter()
            .filter(|_| splitmix(&mut rng).is_multiple_of(4))
            .map(|p| p.id)
            .collect();
        assert_indices_match_columns(&dw, &withdrawn, &sample, &context);
        assert_indices_match_columns(&held, &held_withdrawn, &sample, &format!("{context}, held"));
        assert_indices_match_columns(&first, &[], &sample, &format!("{context}, first"));
        if is_publish {
            held = dw.clone();
            held_state = published_state(&held);
            held_withdrawn.clone_from(&withdrawn);
        }
    }

    assert!(publishes >= 4, "the trace exercised several publish boundaries");
    assert!(
        dw.columns().statuses().iter().any(|&s| s != OfferState::Offered),
        "schedule churn actually rewrote lifecycle columns"
    );
}

/// Asserts pushdown ≡ plain scan ≡ row oracle, bit for bit.
fn assert_oracle_equal(dw: &Warehouse, q: &Query, context: &str) {
    let rows = dw.eval_rows(q).expect(context);
    let scan = dw.eval_scan(q).expect(context);
    let push = dw.eval(q).expect(context);
    assert_eq!(push, rows, "pushdown vs row oracle: {context}");
    assert_eq!(push, scan, "pushdown vs plain scan: {context}");
}

#[test]
fn pushdown_eval_matches_the_row_oracle_for_every_dimension_level_and_operator() {
    let population =
        Population::generate(&PopulationConfig { size: 48, seed: 0xBEEF, household_share: 0.75 });
    let offers = generate_offers(
        &population,
        &OfferConfig { window_start: TimeSlot::new(0), days: 2, seed: 0xFACADE },
    );
    let mut dw = Warehouse::load(&population, &offers);

    // Mixed lifecycle states: schedule every third offer, execute the
    // early ones, withdraw every eleventh (forcing a compaction), so the
    // status restrictions keep some facts but not all.
    let picks: Vec<(FlexOfferId, Schedule)> = offers
        .iter()
        .enumerate()
        .filter(|(i, _)| i % 3 == 0)
        .map(|(_, fo)| (fo.id(), min_schedule(fo)))
        .collect();
    dw.assign_schedules(&picks);
    dw.execute_due(TimeSlot::new(96));
    let gone: Vec<FlexOfferId> =
        offers.iter().enumerate().filter(|(i, _)| i % 11 == 7).map(|(_, fo)| fo.id()).collect();
    dw.withdraw(&gone);
    assert_encoded_consistent(dw.columns());

    let status_subsets: [&[OfferState]; 5] = [
        &[OfferState::Offered],
        &[OfferState::Scheduled],
        &[OfferState::Executed],
        &[OfferState::Scheduled, OfferState::Executed],
        &OfferState::ALL,
    ];
    let time_ranges =
        [(TimeSlot::new(0), TimeSlot::new(96)), (TimeSlot::new(50), TimeSlot::new(150))];

    for dim in Dimension::ALL {
        let hierarchy = dw.hierarchy(dim).clone();
        for level in 0..hierarchy.depth() as u8 {
            // A bounded member sample per level: first, middle, last.
            let at: Vec<_> = hierarchy.at_level(level).map(|m| m.id).collect();
            let mut sample = vec![at[0]];
            if at.len() > 2 {
                sample.push(at[at.len() / 2]);
            }
            if at.len() > 1 {
                sample.push(at[at.len() - 1]);
            }

            for (k, member) in sample.into_iter().enumerate() {
                for measure in Measure::ALL {
                    let base = Query::new(measure).filter(dim, member);
                    let ctx = format!("{dim:?} level {level} member {member:?} {measure:?}");
                    assert_oracle_equal(&dw, &base, &ctx);
                    assert_oracle_equal(
                        &dw,
                        &base.clone().statuses(status_subsets[(k + level as usize) % 5].to_vec()),
                        &format!("{ctx} + statuses"),
                    );
                    let (from, to) = time_ranges[k % 2];
                    assert_oracle_equal(
                        &dw,
                        &base.clone().time_range(from, to),
                        &format!("{ctx} + time range"),
                    );
                }
                // Conjunction across dimensions: this member AND a
                // geography region, grouped by prosumer type.
                let region = dw.hierarchy(Dimension::Geography).at_level(1).next().unwrap().id;
                let cross = Query::new(Measure::Count)
                    .filter(dim, member)
                    .filter(Dimension::Geography, region)
                    .group_by(Dimension::ProsumerType, 1);
                assert_oracle_equal(&dw, &cross, &format!("{dim:?} ∧ geography, grouped"));
            }

            // Group-by at this level, bare and status-restricted.
            for measure in Measure::ALL {
                let grouped = Query::new(measure).group_by(dim, level);
                assert_oracle_equal(&dw, &grouped, &format!("group {dim:?}@{level} {measure:?}"));
                assert_oracle_equal(
                    &dw,
                    &grouped.clone().statuses(vec![OfferState::Scheduled, OfferState::Executed]),
                    &format!("group {dim:?}@{level} {measure:?} + statuses"),
                );
            }
        }
    }

    // Degenerate operators: an empty status set (all-false mask → the
    // pushdown's early return) and two disjoint same-dimension filters
    // (an all-false dictionary mask).
    let empty = Query::new(Measure::ScheduledEnergy).statuses(Vec::<OfferState>::new());
    assert_oracle_equal(&dw, &empty, "empty status set");
    let mut regions = dw.hierarchy(Dimension::Geography).at_level(1);
    let (a, b) = (regions.next().unwrap().id, regions.next().unwrap().id);
    let disjoint =
        Query::new(Measure::Count).filter(Dimension::Geography, a).filter(Dimension::Geography, b);
    assert_oracle_equal(&dw, &disjoint, "disjoint same-dimension filters");
}

/// Every cell of `dw`'s pivot of `spec` equals, bit for bit, the `eval`
/// total of its row member ∧ column member ∧ base query.
fn assert_pivot_equals_per_cell_eval(dw: &Warehouse, spec: &PivotSpec, context: &str) {
    let table = dw.pivot(spec).expect(context);
    for (r, &row) in spec.rows.members.iter().enumerate() {
        for (c, &col) in spec.columns.members.iter().enumerate() {
            let q = spec
                .base
                .clone()
                .filter(spec.rows.dimension, row)
                .filter(spec.columns.dimension, col);
            let expected = dw.eval(&q).expect(context).total;
            assert_eq!(
                table.cells[r][c].to_bits(),
                expected.to_bits(),
                "{context}: cell ({r}, {c})"
            );
        }
    }
}

#[test]
fn segment_boundaries_answer_like_a_fresh_load_of_the_survivors() {
    const S: usize = SEGMENT_FACTS;
    let population =
        Population::generate(&PopulationConfig { size: 900, seed: 0x5E6, household_share: 0.8 });
    let mut offers = generate_offers(
        &population,
        &OfferConfig { window_start: TimeSlot::new(0), days: 2, seed: 0x5E6 },
    );
    // Half the offers scheduled, so the statuses and the lifecycle
    // measures vary on both sides of a boundary.
    for fo in offers.iter_mut().step_by(2) {
        fo.accept().unwrap();
        fo.assign(min_schedule(fo)).unwrap();
    }
    // Withdrawals never take an offer that sets the time window, so the
    // survivors load onto the same hierarchies.
    let lo = offers.iter().map(|fo| fo.extent().0).min().unwrap();
    let hi = offers.iter().map(|fo| fo.extent().1).max().unwrap();
    let movable = |fo: &FlexOffer| fo.extent().0 != lo && fo.extent().1 != hi;
    let geography = Dimension::Geography;

    for facts in [S - 1, S, S + 1, 2 * S + 1] {
        // Withdraw seven facts around position S (three before the
        // boundary, four after) and one just before 2S, from a load just
        // long enough to leave `facts`.
        let around: Vec<usize> =
            (S - 3..).filter(|&i| movable(&offers[i])).take(7).chain([2 * S - 1]).collect();
        let mut n = facts;
        while n - around.iter().filter(|&&i| i < n).count() < facts {
            n += 1;
        }
        let loaded: Vec<FlexOffer> = offers[..n].to_vec();
        let mut dw = Warehouse::load(&population, &loaded);
        let gone: Vec<FlexOfferId> =
            around.iter().filter(|&&i| i < n).map(|&i| loaded[i].id()).collect();
        assert_eq!(dw.withdraw(&gone), gone.len());
        let survivors: Vec<FlexOffer> =
            loaded.iter().filter(|fo| !gone.contains(&fo.id())).cloned().collect();
        let fresh = Warehouse::load(&population, &survivors);
        assert_eq!(dw.columns().len(), facts);
        let context = format!("{facts} facts");
        assert_encoded_consistent(dw.columns());

        // The same store, fact for fact and segment for segment.
        assert_eq!(dw.columns().len(), fresh.columns().len(), "{context}");
        assert!(dw.columns().rows().eq(fresh.columns().rows()), "{context}: rows differ");
        let lengths =
            |w: &Warehouse| w.columns().segments().iter().map(|s| s.len()).collect::<Vec<_>>();
        assert_eq!(lengths(&dw), lengths(&fresh), "{context}: segment layout");
        for (a, b) in dw.offers().iter().zip(fresh.offers()) {
            assert_eq!(a.as_ref(), b.as_ref(), "{context}: offers differ");
        }

        // eval ≡ eval_scan ≡ eval_rows, and equal to the fresh load's.
        let region = dw.hierarchy(geography).at_level(1).next().unwrap().id;
        let districts = dw.hierarchy(geography).depth() as u8 - 1;
        let mut queries = Vec::new();
        for measure in Measure::ALL {
            queries.push(Query::new(measure));
            queries.push(Query::new(measure).group_by(geography, 2));
            queries.push(Query::new(measure).filter(geography, region));
            queries.push(Query::new(measure).statuses(vec![OfferState::Scheduled]));
            queries.push(Query::new(measure).time_range(TimeSlot::new(20), TimeSlot::new(70)));
            let scheduled_in_range = Query::new(measure)
                .statuses(vec![OfferState::Scheduled])
                .time_range(TimeSlot::new(20), TimeSlot::new(70));
            queries.push(scheduled_in_range.clone());
            queries.push(scheduled_in_range.group_by(geography, districts));
        }
        // Group-bys on every dimension: bare, under a geography filter
        // (its postings drive the pass) and under one appliance filter
        // (the one-mask pass), a broad and a narrow one that each keep
        // some facts but not all.
        let appliance_h = dw.hierarchy(Dimension::Appliance);
        let one_mask = [1, appliance_h.depth() as u8 - 1]
            .map(|level| appliance_h.at_level(level).next().unwrap().id);
        for appliance in one_mask {
            let kept = dw.eval(&Query::new(Measure::Count).filter(Dimension::Appliance, appliance));
            let kept = kept.unwrap().matching_facts;
            assert!(0 < kept && kept < facts, "{context}: {appliance:?} keeps {kept}");
        }
        for measure in Measure::ALL {
            for appliance in one_mask {
                queries.push(Query::new(measure).filter(Dimension::Appliance, appliance));
            }
            for dim in Dimension::ALL {
                let deepest = dw.hierarchy(dim).depth() as u8 - 1;
                for level in [1.min(deepest), deepest] {
                    queries.push(Query::new(measure).group_by(dim, level));
                }
                queries.push(Query::new(measure).filter(geography, region).group_by(dim, deepest));
                for appliance in one_mask {
                    let filtered = Query::new(measure).filter(Dimension::Appliance, appliance);
                    queries.push(filtered.group_by(dim, deepest));
                }
            }
        }
        for q in &queries {
            assert_oracle_equal(&dw, q, &format!("{context}: {q:?}"));
            assert_eq!(dw.eval(q), fresh.eval(q), "{context}: {q:?} against a fresh load");
        }

        // One-pass pivots ≡ per-cell eval; MDX ≡ its pivot.
        let cities = PivotAxis::children_of(&dw, geography, region);
        let types = PivotAxis::level(&dw, Dimension::ProsumerType, 1);
        let appliances = PivotAxis::level(&dw, Dimension::Appliance, 1);
        // Every pass shape with no restriction (the bare pass): the six
        // benchmark MDX shapes; an axis that leaves codes to the "no
        // member" slot; an overlapping axis (the positions fallback); rows
        // and columns on one dimension.
        let children = |dim: Dimension| {
            let root = dw.hierarchy(dim).all().id;
            PivotAxis::children_of(&dw, dim, root)
        };
        let mut shapes: Vec<(PivotAxis, PivotAxis)> = [
            (geography, Dimension::Time),
            (Dimension::Time, Dimension::ProsumerType),
            (Dimension::Grid, Dimension::Appliance),
            (geography, Dimension::EnergyType),
            (Dimension::ProsumerType, geography),
            (Dimension::EnergyType, Dimension::Time),
        ]
        .into_iter()
        .map(|(rows, columns)| (children(rows), children(columns)))
        .collect();
        let some_appliances = PivotAxis {
            dimension: Dimension::Appliance,
            members: appliances.members[..2].to_vec(),
        };
        let city = cities.members[0];
        let overlapping = PivotAxis { dimension: geography, members: vec![region, city] };
        shapes.push((some_appliances, children(Dimension::Grid)));
        shapes.push((overlapping, types.clone()));
        shapes.push((children(geography), PivotAxis::level(&dw, geography, 2)));
        for (rows, columns) in &shapes {
            for measure in [Measure::Count, Measure::ScheduledEnergy, Measure::AvgPrice] {
                let spec = PivotSpec {
                    rows: rows.clone(),
                    columns: columns.clone(),
                    base: Query::new(measure),
                };
                let shape =
                    format!("{context}: {measure} by {} x {}", rows.dimension, columns.dimension);
                assert_pivot_equals_per_cell_eval(&dw, &spec, &shape);
                assert_eq!(dw.pivot(&spec), fresh.pivot(&spec), "{shape}: pivot vs a fresh load");
            }
        }
        // Base filters, statuses, one-mask and postings-driven passes.
        for (rows, columns) in
            [(cities.clone(), types.clone()), (appliances.clone(), types.clone())]
        {
            let one_mask_bases = one_mask.into_iter().flat_map(|appliance| {
                [Measure::Count, Measure::ScheduledEnergy]
                    .map(|measure| Query::new(measure).filter(Dimension::Appliance, appliance))
            });
            for base in [
                Query::new(Measure::TotalMaxEnergy),
                Query::new(Measure::AvgPrice).statuses(vec![OfferState::Offered]),
            ]
            .into_iter()
            .chain(one_mask_bases)
            {
                let spec = PivotSpec { rows: rows.clone(), columns: columns.clone(), base };
                assert_pivot_equals_per_cell_eval(&dw, &spec, &context);
                assert_eq!(dw.pivot(&spec), fresh.pivot(&spec), "{context}: pivot vs a fresh load");
            }
        }
        let mdx = "SELECT { [Prosumer].Children } ON COLUMNS, { [Geography].Children } ON ROWS \
                   FROM [FlexOffers] WHERE ( [Measures].[ScheduledEnergy] )";
        let table = dw.mdx(mdx).expect(&context);
        let spec = PivotSpec {
            rows: PivotAxis { dimension: geography, members: table.row_members.clone() },
            columns: PivotAxis {
                dimension: Dimension::ProsumerType,
                members: table.col_members.clone(),
            },
            base: Query::new(Measure::ScheduledEnergy),
        };
        assert_eq!(Ok(table.clone()), dw.pivot(&spec), "{context}: mdx vs pivot");
        assert_pivot_equals_per_cell_eval(&dw, &spec, &context);
        assert_eq!(Ok(table), fresh.mdx(mdx), "{context}: mdx vs a fresh load");
    }
}

#[test]
fn a_live_write_copies_only_the_segments_it_writes() {
    let population =
        Population::generate(&PopulationConfig { size: 1_200, seed: 0x5E9, household_share: 0.8 });
    let window_start = TimeSlot::new(0);
    let initial = generate_offers(&population, &OfferConfig { window_start, days: 3, seed: 0x5E9 });
    let trace = generate_ingest_trace(
        &population,
        &IngestTraceConfig { days: 2, batches_per_day: 6, withdraw_fraction: 0.15, seed: 0x5E9 },
        initial.len() as u64 + 1,
        window_start + SlotSpan::days(3),
    );
    let live = LiveWarehouse::new(population, &initial);
    let mut previous = live.snapshot();
    assert!(previous.warehouse().columns().segments().len() >= 6, "a multi-segment warehouse");

    // What the current batch touched, as facts of the previous epoch:
    // ids it withdrew or refreshed, and whether it appended.
    let mut withdrawn: Vec<FlexOfferId> = Vec::new();
    let mut refreshed: Vec<FlexOfferId> = Vec::new();
    let mut appended = false;
    let (mut publishes, mut shared_checked) = (0, 0);
    let mut rng = 0x5EED_u64;
    for event in trace {
        match event {
            IngestEvent::Arrive { offers } => appended |= live.ingest(&offers).ingested > 0,
            IngestEvent::Withdraw { ids } => {
                live.withdraw(&ids);
                withdrawn.extend(ids);
            }
            IngestEvent::AdvanceDay => {
                live.advance_day();
            }
            IngestEvent::Publish => {
                // Refresh churn: schedule two facts of the previous
                // epoch (skipped unless still Offered).
                let offers = previous.warehouse().offers();
                let picks: Vec<(FlexOfferId, Schedule)> = (0..2)
                    .map(|_| &offers[splitmix(&mut rng) as usize % offers.len()])
                    .map(|fo| (fo.id(), min_schedule(fo)))
                    .collect();
                live.assign_schedules(&picks);
                refreshed.extend(picks.iter().map(|(id, _)| *id));

                let next = live.publish();
                publishes += 1;
                let (old, new) = (previous.warehouse(), next.warehouse());
                // Metering shows as a status change.
                let status_of = |dw: &Warehouse, id| dw.offer(id).map(FlexOffer::status);
                refreshed.extend(old.offers().iter().map(|fo| fo.id()).filter(|&id| {
                    status_of(new, id).is_some_and(|s| Some(s) != status_of(old, id))
                }));
                let position: HashMap<FlexOfferId, usize> =
                    old.columns().offer_ids().iter().enumerate().map(|(i, &id)| (id, i)).collect();
                let segment_of = |id: &FlexOfferId| position.get(id).map(|&i| i / SEGMENT_FACTS);
                let written: HashSet<usize> = refreshed.iter().filter_map(segment_of).collect();
                let mut keep = old.columns().segments().len();
                if appended {
                    keep = keep.min(old.columns().len() / SEGMENT_FACTS);
                }
                if let Some(first) = withdrawn.iter().filter_map(segment_of).min() {
                    keep = keep.min(first);
                }
                for s in (0..keep).filter(|s| !written.contains(s)) {
                    assert!(
                        Arc::ptr_eq(&old.columns().segments()[s], &new.columns().segments()[s]),
                        "epoch {}: segment {s} was copied but not written",
                        next.epoch()
                    );
                    shared_checked += 1;
                }
                LiveWarehouse::validate_snapshot(&next);
                (withdrawn, refreshed, appended) = (Vec::new(), Vec::new(), false);
                previous = next;
            }
        }
    }
    assert!(publishes >= 10, "{publishes} publishes");
    assert!(shared_checked >= 2 * publishes, "only {shared_checked} shared segments checked");
}
