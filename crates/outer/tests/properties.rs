//! Property-based tests for the distribution strategies.

use dlt_linalg::Matrix;
use dlt_outer::Strategy as DistStrategy;
use dlt_outer::{
    comm_lower_bound, evaluate, execute_partitioned_matmul, het_rects, hom_blocks,
    hom_blocks_abstract, summa_comm_volume, tile_domain,
};
use dlt_platform::Platform;
use dlt_sim::{simulate_demand, DemandConfig, DemandTask};
use proptest::prelude::*;
use rand::SeedableRng;

fn platforms() -> impl Strategy<Value = Platform> {
    proptest::collection::vec(0.1f64..50.0, 1..24).prop_map(|s| Platform::from_speeds(&s).unwrap())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(40))]

    #[test]
    fn every_strategy_is_above_the_lower_bound(
        platform in platforms(),
        n in 32usize..600,
    ) {
        let lb = comm_lower_bound(&platform, n);
        for s in DistStrategy::paper_strategies() {
            let r = evaluate(&platform, n, s);
            // Integer-grid rounding can dip a hair below the continuous LB.
            prop_assert!(
                r.comm_volume >= lb * 0.95,
                "{}: volume {} vs LB {lb}", s.name(), r.comm_volume
            );
        }
    }

    #[test]
    fn het_respects_the_seven_fourths_guarantee(
        platform in platforms(),
        n in 64usize..600,
    ) {
        let r = evaluate(&platform, n, DistStrategy::HetRects);
        // 7/4·LB plus grid-rounding slack (±2p cells on the perimeter).
        let slack = 2.0 * platform.len() as f64;
        prop_assert!(
            r.comm_volume <= 1.75 * comm_lower_bound(&platform, n) + slack,
            "volume {} exceeds guarantee", r.comm_volume
        );
    }

    #[test]
    fn hom_blocks_partition_the_domain(
        platform in platforms(),
        n in 16usize..400,
    ) {
        let out = hom_blocks(&platform, n);
        let area: usize = out.blocks.iter().map(|b| b.area()).sum();
        prop_assert_eq!(area, n * n);
        prop_assert_eq!(out.owner.len(), out.blocks.len());
        let counted: usize = out.demand.task_counts().iter().sum();
        prop_assert_eq!(counted, out.blocks.len());
    }

    #[test]
    fn abstract_blocks_match_the_heap_on_the_materialised_queue(
        platform in platforms(),
        n in 16usize..400,
        k in 1usize..6,
    ) {
        // The identical-task dispatcher behind hom_blocks_abstract against
        // simulate_demand on the block queue it never builds: bitwise.
        let out = hom_blocks_abstract(&platform, n, k);
        let d = out.block_side;
        let tasks = vec![DemandTask::new(2.0 * d, d * d); out.n_blocks];
        let heap = simulate_demand(&platform, &tasks, DemandConfig::default());
        prop_assert_eq!(&out.demand.counts, &heap.task_counts());
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        prop_assert_eq!(bits(&out.demand.finish_times), bits(&heap.finish_times));
        prop_assert_eq!(bits(&out.demand.comm_volume), bits(&heap.comm_volume));
        prop_assert_eq!(out.comm_volume.to_bits(), heap.total_comm().to_bits());
        prop_assert_eq!(out.imbalance.to_bits(), heap.imbalance().to_bits());
    }

    #[test]
    fn tiles_have_bounded_sides(n in 1usize..300, side in 1usize..300) {
        let side = side.min(n);
        let blocks = tile_domain(n, side);
        for b in &blocks {
            prop_assert!(b.width() >= 1 && b.width() <= side);
            prop_assert!(b.height() >= 1 && b.height() <= side);
        }
    }

    #[test]
    fn summa_per_worker_sums_to_total(platform in platforms(), n in 16usize..256) {
        let het = het_rects(&platform, n);
        let sim = summa_comm_volume(n, &het.rects);
        let s: f64 = sim.per_worker.iter().sum();
        prop_assert!((s - sim.total).abs() < 1e-6);
        prop_assert!((sim.per_step * n as f64 - sim.total).abs() < 1e-6);
    }

    #[test]
    fn partitioned_matmul_is_exact(
        speeds in proptest::collection::vec(0.2f64..10.0, 1..6),
        n in 4usize..24,
        seed in any::<u64>(),
    ) {
        let platform = Platform::from_speeds(&speeds).unwrap();
        let het = het_rects(&platform, n);
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let a = Matrix::random(n, n, &mut rng);
        let b = Matrix::random(n, n, &mut rng);
        let (_, err) = execute_partitioned_matmul(&a, &b, &het.rects);
        prop_assert!(err < 1e-9, "error {err}");
    }

    #[test]
    fn refined_never_has_worse_imbalance_than_plain(
        platform in platforms(),
        n in 64usize..400,
    ) {
        let plain = evaluate(&platform, n, DistStrategy::HomBlocks);
        let refined = evaluate(&platform, n, DistStrategy::HomBlocksRefined { target: 0.01 });
        if plain.imbalance.is_finite() {
            prop_assert!(refined.imbalance <= plain.imbalance + 1e-9);
        }
    }
}
