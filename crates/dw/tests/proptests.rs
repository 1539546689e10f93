//! Property-based tests for the warehouse: rollup consistency, filter
//! monotonicity and MDX round-trips over randomized workloads.

use mirabel_dw::{mdx, Dimension, Measure, Query, Warehouse};
use mirabel_flexoffer::OfferState;
use mirabel_timeseries::TimeSlot;
use mirabel_workload::{generate_offers, OfferConfig, Population, PopulationConfig};
use proptest::prelude::*;

fn warehouse(seed: u64, size: usize) -> Warehouse {
    let pop = Population::generate(&PopulationConfig { size, seed, household_share: 0.8 });
    let mut offers =
        generate_offers(&pop, &OfferConfig { seed: seed ^ 0xF0, ..Default::default() });
    for (i, fo) in offers.iter_mut().enumerate() {
        match i % 4 {
            0 => fo.accept().unwrap(),
            1 => fo.reject().unwrap(),
            _ => {}
        }
    }
    Warehouse::load(&pop, &offers)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// For every dimension and level, group values sum to the ungrouped
    /// total (rollup consistency: children partition the parent).
    #[test]
    fn rollups_partition_totals(seed in 0u64..50, measure_idx in 0usize..7) {
        // Skip average measures: averages do not partition.
        let measure = [
            Measure::Count,
            Measure::ScheduledEnergy,
            Measure::ExecutedEnergy,
            Measure::PlanDeviation,
            Measure::BalancingPotential,
            Measure::TotalMaxEnergy,
            Measure::EnergyFlexibility,
        ][measure_idx];
        let dw = warehouse(seed, 80);
        let total = dw.eval(&Query::new(measure)).unwrap().total;
        for dim in Dimension::ALL {
            let depth = dw.hierarchy(dim).depth() as u8;
            for level in 0..depth {
                let r = dw.eval(&Query::new(measure).group_by(dim, level)).unwrap();
                let sum: f64 = r.groups.iter().map(|(_, v)| v).sum();
                prop_assert!((sum - total).abs() < 1e-6,
                    "{dim} level {level}: {sum} != {total}");
            }
        }
    }

    /// Filtering on a member never yields more than its parent; the
    /// children of any member sum to the member itself.
    #[test]
    fn hierarchical_filters_are_monotone(seed in 0u64..50) {
        let dw = warehouse(seed, 60);
        for dim in Dimension::ALL {
            let h = dw.hierarchy(dim);
            let members: Vec<_> = h.members().iter().map(|m| m.id).collect();
            for m in members {
                let mine = dw
                    .eval(&Query::new(Measure::Count).filter(dim, m))
                    .unwrap()
                    .total;
                if let Some(parent) = h.member(m).unwrap().parent {
                    let parents = dw
                        .eval(&Query::new(Measure::Count).filter(dim, parent))
                        .unwrap()
                        .total;
                    prop_assert!(mine <= parents + 1e-9);
                }
                let child_sum: f64 = h
                    .children(m)
                    .map(|c| {
                        dw.eval(&Query::new(Measure::Count).filter(dim, c.id))
                            .unwrap()
                            .total
                    })
                    .sum();
                if h.children(m).next().is_some() {
                    prop_assert!((child_sum - mine).abs() < 1e-9,
                        "{dim} member {m}: children {child_sum} != {mine}");
                }
            }
        }
    }

    /// Status filters partition the fact count.
    #[test]
    fn status_filters_partition(seed in 0u64..50) {
        let dw = warehouse(seed, 70);
        let total = dw.eval(&Query::new(Measure::Count)).unwrap().total;
        let sum: f64 = OfferState::ALL
            .iter()
            .map(|&s| {
                dw.eval(&Query::new(Measure::Count).statuses(vec![s])).unwrap().total
            })
            .sum();
        prop_assert!((sum - total).abs() < 1e-9);
    }

    /// Time-range filters tile: adjacent windows sum to the union.
    #[test]
    fn time_ranges_tile(seed in 0u64..50, split in 0i64..200) {
        let dw = warehouse(seed, 60);
        let lo = TimeSlot::new(-1_000);
        let mid = TimeSlot::new(split);
        let hi = TimeSlot::new(100_000);
        let q = |a: TimeSlot, b: TimeSlot| {
            dw.eval(&Query::new(Measure::Count).time_range(a, b)).unwrap().total
        };
        prop_assert_eq!(q(lo, mid) + q(mid, hi), q(lo, hi));
    }

    /// MDX parse → Display → parse is the identity on generated queries.
    #[test]
    fn mdx_display_round_trip(
        col_dim in 0usize..6,
        row_dim in 0usize..6,
        with_measure in proptest::bool::ANY,
        measure_idx in 0usize..9,
    ) {
        let dims = ["Time", "Geography", "Grid", "EnergyType", "Prosumer", "Appliance"];
        let mut text = format!(
            "SELECT {{ [{}].Children }} ON COLUMNS, {{ [{}].Children }} ON ROWS FROM [FlexOffers]",
            dims[col_dim], dims[row_dim]
        );
        if with_measure {
            text.push_str(&format!(
                " WHERE ( [Measures].[{}] )",
                Measure::ALL[measure_idx].name()
            ));
        }
        let ast = mdx::parse(&text).unwrap();
        let printed = ast.to_string();
        prop_assert_eq!(mdx::parse(&printed).unwrap(), ast);
    }

    /// Evaluating an MDX query with different axis dimensions always
    /// yields a table whose cell sum equals the equivalent filtered
    /// count.
    #[test]
    fn mdx_cells_sum_to_eval(seed in 0u64..25, row_dim in 0usize..6) {
        let dims = ["Time", "Geography", "Grid", "EnergyType", "Prosumer", "Appliance"];
        if dims[row_dim] == "Time" {
            // Time on both axes would double-count; skip.
            return Ok(());
        }
        let dw = warehouse(seed, 50);
        let text = format!(
            "SELECT {{ [Time].Children }} ON COLUMNS, {{ [{}].Children }} ON ROWS FROM [FlexOffers]",
            dims[row_dim]
        );
        let table = dw.mdx(&text).unwrap();
        let total: f64 = table.cells.iter().flatten().sum();
        let expected = dw.eval(&Query::new(Measure::Count)).unwrap().total;
        prop_assert!((total - expected).abs() < 1e-9, "{total} != {expected}");
    }
}
