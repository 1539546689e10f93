//! Property tests for the encoded column path and the write path.
//!
//! Two invariants from the encoded-columns work are pinned here, against
//! the public crate surface only:
//!
//! 1. **encode/decode ≡ plain columns** — after every mutation of a
//!    seeded ingest/refresh/withdraw churn trace, the per-dimension
//!    dictionaries and the status run-length column decode to exactly
//!    the plain leaf-key and lifecycle columns, in canonical
//!    (maximal-run) form. The same trace also checks the write path:
//!    a clone held as the published epoch stays frozen while the working
//!    copy moves on, and every secondary index (per id, per prosumer,
//!    per region, the time index behind window-only loads) agrees with
//!    the fact columns and the index-free scan;
//! 2. **pushdown ≡ the row oracle** — `Warehouse::eval` (dictionary-mask
//!    pushdown) agrees bit-for-bit with both `eval_scan` (the plain
//!    columnar scan) and `eval_rows` (the row-shaped reference) for
//!    every dimension × hierarchy level × operator (filter, group-by,
//!    status restriction, time range, conjunctions) × measure.
//!
//! The state space is walked deterministically from fixed seeds.

use std::collections::HashMap;

use mirabel_dw::{
    status_code, ColumnStore, Dimension, FactRow, LoaderQuery, Measure, MemberId, Query, Run,
    Warehouse,
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

fn decode_runs(runs: &[Run], len: usize) -> Vec<u32> {
    let mut out = Vec::with_capacity(len);
    let mut lo = 0u32;
    for r in runs {
        assert!(r.end > lo, "runs have non-empty, strictly ascending extents");
        out.extend(std::iter::repeat_n(r.value, (r.end - lo) as usize));
        lo = r.end;
    }
    assert_eq!(out.len(), len, "the last run ends at the column length");
    out
}

/// The encode→decode property: dictionaries and the status RLE column
/// reproduce the plain columns exactly, in canonical form.
fn assert_encoded_consistent(cols: &ColumnStore) {
    for dim in Dimension::ALL {
        let dc = cols.dict(dim);
        let plain = cols.leaves(dim);
        assert_eq!(dc.codes().len(), plain.len(), "{dim:?}: one code per fact");
        for (idx, (code, leaf)) in dc.codes().iter().zip(plain).enumerate() {
            assert_eq!(dc.dict()[*code as usize], *leaf, "{dim:?}: codes decode to plain leaves");
            assert_eq!(dc.member(idx), *leaf, "{dim:?}: fact {idx} decodes to its plain leaf");
            assert_eq!(dc.code(*leaf), Some(*code), "{dim:?}: leaves encode back to their code");
        }
        let mut seen = std::collections::HashSet::new();
        assert!(dc.dict().iter().all(|m| seen.insert(*m)), "{dim:?}: dictionary values are unique");
    }
    let statuses: Vec<u32> = cols.statuses().iter().map(|&s| status_code(s)).collect();
    let runs = cols.status_runs();
    assert_eq!(decode_runs(runs, cols.len()), statuses, "status: RLE decodes to plain codes");
    for w in runs.windows(2) {
        assert_ne!(w[0].value, w[1].value, "status: adjacent runs are distinct (canonical)");
    }
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
        assert_eq!(dw.geo_leaf_of(id), Some(cols.geo_leaves()[i]), "{context}: leaf of fact {i}");
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
    // first mutation unshares the copy-on-write state.
    let mut held = dw.clone();
    let mut held_state = published_state(&held);
    let mut withdrawn: Vec<FlexOfferId> = Vec::new();

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
                // still-Offered facts (in-place status rewrites exercise
                // the RLE point updates), then execute whatever is due.
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
        let sample: Vec<ProsumerId> = population
            .prosumers()
            .iter()
            .filter(|_| splitmix(&mut rng).is_multiple_of(4))
            .map(|p| p.id)
            .collect();
        assert_indices_match_columns(&dw, &withdrawn, &sample, &context);
        if is_publish {
            held = dw.clone();
            held_state = published_state(&held);
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
    // status RLE has real run structure.
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
