//! Property-based tests for the discrete-event simulator.
//!
//! The identical-task dispatcher properties (the second block) honor
//! `PROPTEST_CASES` / `PROPTEST_SEED`, which the CI property matrix sets.

use dlt_platform::Platform;
use dlt_sim::{
    simulate, simulate_demand, simulate_demand_identical, simulate_demand_reference,
    ChunkAssignment, CommMode, DemandConfig, DemandTask, Round, Schedule,
};
use proptest::prelude::*;

fn platform_and_schedule() -> impl Strategy<Value = (Platform, Schedule)> {
    let speeds = proptest::collection::vec(0.1f64..20.0, 1..8);
    (speeds, 1usize..4, any::<bool>()).prop_flat_map(|(speeds, n_rounds, one_port)| {
        let p = speeds.len();
        let chunk = (0usize..p, 0.0f64..50.0, 0.0f64..50.0, 0.0f64..2.0)
            .prop_map(|(w, d, work, oh)| ChunkAssignment::new(w, d, work).with_overhead(oh));
        let round = proptest::collection::vec(chunk, 0..6).prop_map(Round::new);
        let rounds = proptest::collection::vec(round, n_rounds..=n_rounds);
        let platform = Platform::from_speeds(&speeds).unwrap();
        rounds.prop_map(move |rs| {
            let mode = if one_port {
                CommMode::OnePort
            } else {
                CommMode::Parallel
            };
            (platform.clone(), Schedule::multi_round(rs, mode))
        })
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn makespan_is_max_finish_time((platform, schedule) in platform_and_schedule()) {
        let r = simulate(&platform, &schedule);
        let max_finish = r.finish_times().into_iter().fold(0.0, f64::max);
        prop_assert!((r.makespan - max_finish).abs() < 1e-9);
    }

    #[test]
    fn intervals_are_well_formed((platform, schedule) in platform_and_schedule()) {
        let r = simulate(&platform, &schedule);
        for tl in &r.timelines {
            for &(_, s, e) in tl.recvs.iter().chain(&tl.computes) {
                prop_assert!(e >= s && s >= 0.0);
            }
            // Chunks on one worker are received in order, computed in order.
            for w in tl.recvs.windows(2) {
                prop_assert!(w[1].1 >= w[0].2 - 1e-9);
            }
            for w in tl.computes.windows(2) {
                prop_assert!(w[1].1 >= w[0].2 - 1e-9);
            }
            // Computation never precedes its reception.
            for (r_ev, c_ev) in tl.recvs.iter().zip(&tl.computes) {
                prop_assert!(c_ev.1 >= r_ev.2 - 1e-9);
            }
        }
    }

    #[test]
    fn one_port_master_sends_are_disjoint((platform, schedule) in platform_and_schedule()) {
        prop_assume!(schedule.comm_mode == CommMode::OnePort);
        let r = simulate(&platform, &schedule);
        let mut sends: Vec<(f64, f64)> = r
            .timelines
            .iter()
            .flat_map(|tl| tl.recvs.iter().map(|&(_, s, e)| (s, e)))
            .collect();
        sends.sort_by(|a, b| a.0.partial_cmp(&b.0).unwrap());
        for w in sends.windows(2) {
            prop_assert!(w[1].0 >= w[0].1 - 1e-9, "master overlap: {:?}", w);
        }
    }

    #[test]
    fn parallel_never_slower_than_one_port((platform, schedule) in platform_and_schedule()) {
        let par = Schedule { comm_mode: CommMode::Parallel, ..schedule.clone() };
        let op = Schedule { comm_mode: CommMode::OnePort, ..schedule };
        let r_par = simulate(&platform, &par);
        let r_op = simulate(&platform, &op);
        prop_assert!(r_par.makespan <= r_op.makespan + 1e-9);
    }

    #[test]
    fn demand_executes_every_task(
        speeds in proptest::collection::vec(0.1f64..20.0, 1..8),
        works in proptest::collection::vec(0.01f64..10.0, 0..40),
    ) {
        let platform = Platform::from_speeds(&speeds).unwrap();
        let tasks: Vec<DemandTask> =
            works.iter().map(|&w| DemandTask::new(1.0, w)).collect();
        let r = simulate_demand(&platform, &tasks, DemandConfig::default());
        let executed: usize = r.task_counts().iter().sum();
        prop_assert_eq!(executed, tasks.len());
        // Each worker's finish time equals the sum of its tasks' times.
        for (w, assigned) in r.assignments.iter().enumerate() {
            let expect: f64 = assigned
                .iter()
                .map(|&t| tasks[t].work / platform.worker(w).speed())
                .sum();
            prop_assert!((r.finish_times[w] - expect).abs() < 1e-6);
        }
    }

    #[test]
    fn heap_scheduler_matches_linear_reference(
        speeds in proptest::collection::vec(0.1f64..20.0, 1..12),
        tasks in proptest::collection::vec(
            (0.0f64..10.0, 0.01f64..10.0).prop_map(|(d, w)| DemandTask::new(d, w)),
            0..80,
        ),
        include_comm in any::<bool>(),
    ) {
        let platform = Platform::from_speeds(&speeds).unwrap();
        let config = DemandConfig { include_comm };
        let heap = simulate_demand(&platform, &tasks, config);
        let linear = simulate_demand_reference(&platform, &tasks, config);
        // Bit-identical, not approximately equal: both schedulers must
        // perform the same float additions in the same order.
        prop_assert_eq!(heap, linear);
    }

    #[test]
    fn heap_scheduler_matches_linear_reference_under_ties(
        n_workers in 1usize..9,
        // Quantized work units over few distinct values on a homogeneous
        // platform: free times collide constantly, exercising the
        // smallest-id tie-break on both sides.
        works in proptest::collection::vec(1u8..4, 0..60),
        include_comm in any::<bool>(),
    ) {
        let platform = Platform::homogeneous(n_workers, 1.0, 1.0).unwrap();
        let tasks: Vec<DemandTask> = works
            .iter()
            .map(|&w| DemandTask::new(1.0, w as f64))
            .collect();
        let config = DemandConfig { include_comm };
        let heap = simulate_demand(&platform, &tasks, config);
        let linear = simulate_demand_reference(&platform, &tasks, config);
        prop_assert_eq!(heap, linear);
    }

    #[test]
    fn heap_matches_reference_on_identical_instances(
        n_workers in 1usize..10,
        speed in 0.1f64..20.0,
        cost in 0.0f64..5.0,
        n_tasks in 0usize..120,
        data in 0.0f64..10.0,
        work in 0.0f64..10.0,
        include_comm in any::<bool>(),
    ) {
        // Homogeneous platform + identical tasks: every decision is a
        // free-time tie, and the heap must still reproduce the linear-scan
        // reference bit for bit — finish times and volumes included, ulp
        // for ulp.
        let platform = Platform::homogeneous(n_workers, speed, cost.max(1e-6)).unwrap();
        let tasks = vec![DemandTask::new(data, work); n_tasks];
        let config = DemandConfig { include_comm };
        let heap = simulate_demand(&platform, &tasks, config);
        let linear = simulate_demand_reference(&platform, &tasks, config);
        prop_assert_eq!(heap, linear);
    }
}

/// Asserts that the identical-task dispatcher reproduces the linear-scan
/// reference on the materialised queue: counts, and the bits of every
/// finish time and volume.
fn assert_identical_matches_reference(platform: &Platform, task: DemandTask, count: usize) {
    let got = simulate_demand_identical(platform, task, count);
    let want = simulate_demand_reference(platform, &vec![task; count], DemandConfig::default());
    assert_eq!(
        got.counts,
        want.task_counts(),
        "count {count}, task {task:?}"
    );
    let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
    assert_eq!(
        bits(&got.finish_times),
        bits(&want.finish_times),
        "finish times, count {count}, task {task:?}"
    );
    assert_eq!(
        bits(&got.comm_volume),
        bits(&want.comm_volume),
        "volumes, count {count}, task {task:?}"
    );
}

/// A task count for a `p`-worker platform: none, one, below `p`, exactly
/// `p`, around the `2p` threshold of the head start, or up to 10⁴.
fn task_count(class: usize, p: usize, raw: usize) -> usize {
    match class {
        0 => 0,
        1 => 1,
        2 => raw % p,
        3 => p,
        4 => 2 * p + raw % (2 * p + 1),
        _ => raw,
    }
}

/// Speeds drawn from {0.5, 1, 2, 3}: with small integer work, many
/// workers' free-time chains meet exactly.
fn colliding_speeds() -> impl Strategy<Value = Vec<f64>> {
    proptest::collection::vec(0usize..4, 1..16)
        .prop_map(|ix| ix.iter().map(|&i| [0.5, 1.0, 2.0, 3.0][i]).collect())
}

proptest! {
    #![proptest_config(ProptestConfig::default())]

    #[test]
    fn identical_dispatch_matches_reference_on_heterogeneous_platforms(
        speeds in proptest::collection::vec(0.1f64..20.0, 1..24),
        class in 0usize..6,
        raw in 0usize..10_001,
        data in 0.0f64..10.0,
        work in 0.01f64..10.0,
    ) {
        let platform = Platform::from_speeds(&speeds).unwrap();
        let count = task_count(class, speeds.len(), raw);
        assert_identical_matches_reference(&platform, DemandTask::new(data, work), count);
    }

    #[test]
    fn identical_dispatch_matches_reference_on_identical_speeds(
        n_workers in 1usize..17,
        speed in 0.1f64..20.0,
        class in 0usize..6,
        raw in 0usize..4_001,
        data in 0.0f64..10.0,
        work in 0.01f64..10.0,
    ) {
        // Every chain is the same: each pop is a free-time tie broken by
        // worker id.
        let platform = Platform::homogeneous(n_workers, speed, 1.0).unwrap();
        let count = task_count(class, n_workers, raw);
        assert_identical_matches_reference(&platform, DemandTask::new(data, work), count);
    }

    #[test]
    fn identical_dispatch_matches_reference_when_chains_collide(
        speeds in colliding_speeds(),
        class in 0usize..6,
        raw in 0usize..4_001,
        work in 1u8..5,
    ) {
        let platform = Platform::from_speeds(&speeds).unwrap();
        let count = task_count(class, speeds.len(), raw);
        assert_identical_matches_reference(&platform, DemandTask::new(1.5, work as f64), count);
    }

    #[test]
    fn identical_dispatch_matches_reference_on_zero_work(
        speeds in proptest::collection::vec(0.1f64..20.0, 1..12),
        count in 0usize..300,
        data in 0.0f64..10.0,
    ) {
        // Zero occupancy: worker 0 keeps winning the tie and takes every
        // task.
        let platform = Platform::from_speeds(&speeds).unwrap();
        assert_identical_matches_reference(&platform, DemandTask::new(data, 0.0), count);
    }
}
