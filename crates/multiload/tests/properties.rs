//! Property-based tests for the multi-load schedulers: conservation,
//! release-time feasibility, heap-vs-reference bit-identity, the `N = 1`
//! degeneration to the single-load solvers, the admission-policy engines
//! against their linear-scan references, and the service engine's indexed
//! pending set against both its rescan reference and the
//! `online_schedule` oracle, plus the `_with_alone` wrappers against
//! their parents.

use dlt_core::nonlinear;
use dlt_multiload::{
    alone_makespans, alone_policy_makespans, fifo_schedule, online_schedule,
    online_schedule_reference, online_schedule_with_alone, policy_schedule,
    policy_schedule_reference, policy_schedule_with_alone, round_robin_schedule,
    round_robin_schedule_reference, round_robin_schedule_with_alone, serve_trace,
    serve_trace_reference, AdmissionOrder, CompletedLoad, InstallmentPolicy, LoadSpec,
    MultiLoadConfig, PolicyConfig, ServiceConfig,
};
use dlt_platform::Platform;
use dlt_sim::{simulate_demand, DemandConfig, DemandTask};
use proptest::prelude::*;

/// Random heterogeneous platform (1–8 workers) and load batch (1–6 loads
/// with mixed sizes, exponents and release times).
fn instance() -> impl Strategy<Value = (Platform, Vec<LoadSpec>)> {
    let speeds = proptest::collection::vec(0.2f64..10.0, 1..8);
    let load = (0.5f64..200.0, 1.0f64..3.0, 0.0f64..50.0)
        .prop_map(|(size, alpha, release)| LoadSpec::new(size, alpha, release).unwrap());
    let loads = proptest::collection::vec(load, 1..6);
    (speeds, loads).prop_map(|(speeds, loads)| (Platform::from_speeds(&speeds).unwrap(), loads))
}

/// As [`instance`], but every load released at 0 — the regime where the
/// online scheduler must equal the offline (clairvoyant) one exactly.
fn instance_all_released() -> impl Strategy<Value = (Platform, Vec<LoadSpec>)> {
    instance().prop_map(|(platform, loads)| {
        let loads = loads
            .into_iter()
            .map(|l| LoadSpec::immediate(l.size, l.alpha()).unwrap())
            .collect();
        (platform, loads)
    })
}

/// Chunk counts worth exercising: degenerate (1) through fine-grained.
fn chunk_count() -> impl Strategy<Value = usize> {
    (0usize..40).prop_map(|c| c.max(1))
}

/// Adversarial chunk counts for the conservation property: values whose
/// division `size / c` is maximally inexact (primes), plus large counts
/// that accumulate many rounding errors.
fn adversarial_chunk_count() -> impl Strategy<Value = usize> {
    const PRIMES: [usize; 6] = [3, 7, 13, 97, 499, 997];
    (0usize..1000).prop_map(|c| if c < PRIMES.len() { PRIMES[c] } else { c })
}

/// One of the three admission orders.
fn admission_order() -> impl Strategy<Value = AdmissionOrder> {
    (0usize..AdmissionOrder::ALL.len()).prop_map(|i| AdmissionOrder::ALL[i])
}

/// Installment counts: 1 (non-preemptive) through fine-grained.
fn installment_count() -> impl Strategy<Value = usize> {
    (0usize..8).prop_map(|c| c.max(1))
}

/// Fixed and adaptive installment policies of the service engine.
fn installment_policy() -> impl Strategy<Value = InstallmentPolicy> {
    (any::<bool>(), 1usize..4, 0usize..4).prop_map(|(fixed, k, extra)| {
        if fixed {
            InstallmentPolicy::Fixed(k)
        } else {
            InstallmentPolicy::Adaptive {
                min: k,
                max: k + extra,
            }
        }
    })
}

/// The service engine admits strictly in stream order, so its oracle
/// comparisons need release-sorted batches (the sort is stable: ties keep
/// their batch order, matching the engines' id tie-break).
fn sort_by_release(mut loads: Vec<LoadSpec>) -> Vec<LoadSpec> {
    loads.sort_by(|a, b| a.release.total_cmp(&b.release));
    loads
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn fifo_conserves_every_load((platform, loads) in instance()) {
        let out = fifo_schedule(&platform, &loads).unwrap();
        for (j, load) in loads.iter().enumerate() {
            let shipped: f64 = out.shares[j].iter().sum();
            prop_assert!((shipped - load.size).abs() < 1e-9 * load.size.max(1.0),
                "load {j}: shipped {shipped} of {}", load.size);
        }
    }

    #[test]
    fn fifo_respects_release_times((platform, loads) in instance()) {
        let out = fifo_schedule(&platform, &loads).unwrap();
        for m in &out.report.per_load {
            prop_assert!(m.start >= loads[m.load].release);
            prop_assert!(m.finish > m.start);
        }
        // Consecutive installments never overlap.
        let mut by_start: Vec<_> = out.report.per_load.clone();
        by_start.sort_by(|a, b| a.start.total_cmp(&b.start));
        for w in by_start.windows(2) {
            prop_assert!(w[1].start >= w[0].finish - 1e-9);
        }
    }

    #[test]
    fn round_robin_conserves_total_volume(
        (platform, loads) in instance(),
        chunks in chunk_count(),
        include_comm in any::<bool>(),
    ) {
        let cfg = MultiLoadConfig { chunks_per_load: chunks, include_comm };
        let out = round_robin_schedule(&platform, &loads, &cfg).unwrap();
        let shipped: f64 = out.comm_volume.iter().sum();
        let total: f64 = loads.iter().map(|l| l.size).sum();
        prop_assert!((shipped - total).abs() < 1e-9 * total.max(1.0));
        // Every load contributes exactly chunks_per_load chunk executions.
        let mut counts = vec![0usize; loads.len()];
        for c in &out.chunk_log {
            counts[c.load] += 1;
        }
        prop_assert!(counts.iter().all(|&c| c == chunks));
    }

    #[test]
    fn round_robin_respects_release_times(
        (platform, loads) in instance(),
        chunks in chunk_count(),
    ) {
        let cfg = MultiLoadConfig { chunks_per_load: chunks, include_comm: false };
        let out = round_robin_schedule(&platform, &loads, &cfg).unwrap();
        for c in &out.chunk_log {
            prop_assert!(c.start >= loads[c.load].release,
                "chunk of load {} started {} before release {}",
                c.load, c.start, loads[c.load].release);
            prop_assert!(c.finish >= c.start);
        }
        for m in &out.report.per_load {
            prop_assert!(m.start >= m.release);
        }
    }

    #[test]
    fn heap_dispatcher_matches_linear_reference(
        (platform, loads) in instance(),
        chunks in chunk_count(),
        include_comm in any::<bool>(),
    ) {
        let cfg = MultiLoadConfig { chunks_per_load: chunks, include_comm };
        let heap = round_robin_schedule(&platform, &loads, &cfg).unwrap();
        let linear = round_robin_schedule_reference(&platform, &loads, &cfg).unwrap();
        prop_assert_eq!(heap, linear);
    }

    #[test]
    fn heap_matches_reference_on_tie_heavy_instances(
        p in 1usize..6,
        n_loads in 1usize..5,
        chunks in 1usize..20,
    ) {
        // Homogeneous platform + identical loads: every dispatch decision
        // is a free-time tie, the harshest determinism check.
        let platform = Platform::homogeneous(p, 1.0, 1.0).unwrap();
        let loads = vec![LoadSpec::immediate(12.0, 2.0).unwrap(); n_loads];
        let cfg = MultiLoadConfig { chunks_per_load: chunks, include_comm: false };
        let heap = round_robin_schedule(&platform, &loads, &cfg).unwrap();
        let linear = round_robin_schedule_reference(&platform, &loads, &cfg).unwrap();
        prop_assert_eq!(heap, linear);
    }

    #[test]
    fn single_immediate_load_fifo_is_the_single_load_solver(
        speeds in proptest::collection::vec(0.2f64..10.0, 1..8),
        size in 0.5f64..500.0,
        alpha in 1.0f64..3.0,
    ) {
        let platform = Platform::from_speeds(&speeds).unwrap();
        let load = LoadSpec::immediate(size, alpha).unwrap();
        let out = fifo_schedule(&platform, &[load]).unwrap();
        let direct = nonlinear::equal_finish_parallel(&platform, size, alpha).unwrap();
        // Bitwise equality: N = 1 must take exactly the single-load path.
        prop_assert_eq!(out.report.makespan(), direct.makespan);
        prop_assert_eq!(&out.shares[0], &direct.x);
        prop_assert_eq!(out.report.per_load[0].start, 0.0);
    }

    #[test]
    fn single_immediate_load_round_robin_is_simulate_demand(
        speeds in proptest::collection::vec(0.2f64..10.0, 1..8),
        size in 0.5f64..500.0,
        alpha in 1.0f64..3.0,
        chunks in 1usize..40,
        include_comm in any::<bool>(),
    ) {
        let platform = Platform::from_speeds(&speeds).unwrap();
        let load = LoadSpec::immediate(size, alpha).unwrap();
        let cfg = MultiLoadConfig { chunks_per_load: chunks, include_comm };
        let out = round_robin_schedule(&platform, &[load], &cfg).unwrap();

        // The chunk geometry of `chunk_queue`: body chunks of size/c, the
        // last chunk absorbing the rounding remainder.
        let body = size / chunks as f64;
        let last = (size - body * (chunks - 1) as f64).max(0.0);
        let tasks: Vec<DemandTask> = (0..chunks)
            .map(|k| {
                let d = if k == chunks - 1 { last } else { body };
                DemandTask::new(d, d.powf(alpha))
            })
            .collect();
        let demand = simulate_demand(
            &platform,
            &tasks,
            DemandConfig { include_comm, ..Default::default() },
        );
        // The heap machineries agree bit for bit.
        prop_assert_eq!(&out.report.worker_finish, &demand.finish_times);
        prop_assert_eq!(&out.comm_volume, &demand.comm_volume);
    }

    #[test]
    fn stretch_is_at_least_one_under_fifo((platform, loads) in instance()) {
        let out = fifo_schedule(&platform, &loads).unwrap();
        for m in &out.report.per_load {
            prop_assert!(m.stretch() >= 1.0 - 1e-12, "stretch {}", m.stretch());
        }
        // The aggregate is complete on its own: total_data comes from the
        // report (regression for the silently-zero `total_data`).
        let agg = out.report.aggregate();
        prop_assert!(agg.max_stretch >= agg.mean_stretch);
        prop_assert!((agg.total_data - loads.iter().map(|l| l.size).sum::<f64>()).abs() < 1e-12
            * agg.total_data.max(1.0));
    }

    #[test]
    fn round_robin_conserves_each_load_adversarially(
        (platform, loads) in instance(),
        chunks in adversarial_chunk_count(),
    ) {
        // Per-load conservation under the remainder-on-last-chunk queue:
        // each load's executed chunk data sums back to its size within
        // pure summation rounding (c additions), even for chunk counts
        // whose division is maximally inexact.
        let cfg = MultiLoadConfig { chunks_per_load: chunks, include_comm: false };
        let out = round_robin_schedule(&platform, &loads, &cfg).unwrap();
        let mut shipped = vec![0.0f64; loads.len()];
        for c in &out.chunk_log {
            shipped[c.load] += c.data;
        }
        for (j, load) in loads.iter().enumerate() {
            let tol = 4.0 * chunks as f64 * f64::EPSILON * load.size;
            prop_assert!((shipped[j] - load.size).abs() <= tol,
                "load {j}: shipped {} of {} (chunks={chunks})", shipped[j], load.size);
        }
    }

    #[test]
    fn policy_engines_match_linear_scan_references(
        (platform, loads) in instance(),
        order in admission_order(),
        installments in installment_count(),
    ) {
        // The cached-key engines must reproduce the rescan-everything
        // references bit for bit — offline and online, every policy,
        // preemptive and not.
        let cfg = PolicyConfig { order, installments };
        let off = policy_schedule(&platform, &loads, &cfg).unwrap();
        let off_ref = policy_schedule_reference(&platform, &loads, &cfg).unwrap();
        prop_assert_eq!(off, off_ref);
        let on = online_schedule(&platform, &loads, &cfg).unwrap();
        let on_ref = online_schedule_reference(&platform, &loads, &cfg).unwrap();
        prop_assert_eq!(on, on_ref);
    }

    #[test]
    fn policy_stretch_is_at_least_one(
        (platform, loads) in instance(),
        order in admission_order(),
        installments in installment_count(),
    ) {
        // Against the granularity-matched alone denominator, no policy —
        // FIFO, SRPT or weighted stretch, preemptive or not, offline or
        // online — can push a load's stretch below 1: contention only
        // ever delays installments.
        let cfg = PolicyConfig { order, installments };
        for schedule in [policy_schedule, online_schedule] {
            let out = schedule(&platform, &loads, &cfg).unwrap();
            for m in &out.report.per_load {
                prop_assert!(m.stretch() >= 1.0 - 1e-9,
                    "{order:?} k={installments}: stretch {}", m.stretch());
            }
        }
    }

    #[test]
    fn policy_conserves_and_respects_releases(
        (platform, loads) in instance(),
        order in admission_order(),
        installments in installment_count(),
    ) {
        let cfg = PolicyConfig { order, installments };
        let out = online_schedule(&platform, &loads, &cfg).unwrap();
        // Installments never start before their load's release, never
        // overlap (one platform), and each load is conserved exactly.
        let mut prev_finish = 0.0f64;
        for e in &out.installment_log {
            prop_assert!(e.start >= loads[e.load].release);
            prop_assert!(e.start >= prev_finish - 1e-9 * prev_finish.max(1.0));
            prev_finish = e.finish;
        }
        for (j, load) in loads.iter().enumerate() {
            let shipped: f64 = out.shares[j].iter().sum();
            prop_assert!((shipped - load.size).abs() < 1e-9 * load.size.max(1.0));
            let queued: f64 = out.installment_log
                .iter()
                .filter(|e| e.load == j)
                .map(|e| e.data)
                .sum();
            let tol = 4.0 * installments as f64 * f64::EPSILON * load.size;
            prop_assert!((queued - load.size).abs() <= tol);
        }
    }

    #[test]
    fn online_equals_offline_when_everything_is_released(
        (platform, loads) in instance_all_released(),
        order in admission_order(),
        installments in installment_count(),
    ) {
        // With every load released at 0 the online scheduler has full
        // knowledge from the first decision: it must take exactly the
        // offline (clairvoyant) path, bit for bit.
        let cfg = PolicyConfig { order, installments };
        let off = policy_schedule(&platform, &loads, &cfg).unwrap();
        let on = online_schedule(&platform, &loads, &cfg).unwrap();
        prop_assert_eq!(off, on);
    }

    #[test]
    fn single_immediate_load_policy_is_the_single_load_solver(
        speeds in proptest::collection::vec(0.2f64..10.0, 1..8),
        size in 0.5f64..500.0,
        alpha in 1.0f64..3.0,
        order in admission_order(),
    ) {
        // The policy anchor: one immediate load, one installment, any
        // admission order — the schedule IS the cold single-load solve.
        let platform = Platform::from_speeds(&speeds).unwrap();
        let load = LoadSpec::immediate(size, alpha).unwrap();
        let cfg = PolicyConfig { order, installments: 1 };
        let direct = nonlinear::equal_finish_parallel(&platform, size, alpha).unwrap();
        for schedule in [policy_schedule, online_schedule] {
            let out = schedule(&platform, &[load], &cfg).unwrap();
            prop_assert_eq!(out.report.makespan(), direct.makespan);
            prop_assert_eq!(&out.shares[0], &direct.x);
            prop_assert_eq!(out.report.per_load[0].stretch(), 1.0);
        }
    }

    #[test]
    fn service_defaults_match_online_schedule_bitwise(
        (platform, loads) in instance(),
        order in admission_order(),
        installments in installment_count(),
    ) {
        // At window 1 + fixed installments the service engine IS the
        // online scheduler: every admission, selection, solve, start,
        // finish, share and preemption must match bit for bit.
        let loads = sort_by_release(loads);
        let cfg = ServiceConfig {
            order,
            batch: 1,
            installments: InstallmentPolicy::Fixed(installments),
            track_stretch: true,
        };
        let mut done: Vec<CompletedLoad> = Vec::new();
        let report = serve_trace(&platform, loads.iter().copied(), &cfg, &mut done).unwrap();
        let oracle = online_schedule(&platform, &loads, &PolicyConfig { order, installments })
            .unwrap();
        prop_assert_eq!(report.makespan, oracle.report.makespan());
        prop_assert_eq!(&report.worker_finish, &oracle.report.worker_finish);
        prop_assert_eq!(report.preemptions, oracle.preemptions as u64);
        prop_assert_eq!(report.decisions, report.solves);
        prop_assert_eq!(done.len(), loads.len());
        for c in &done {
            let j = c.id as usize;
            prop_assert_eq!(c.start, oracle.report.per_load[j].start);
            prop_assert_eq!(c.finish, oracle.report.per_load[j].finish);
            prop_assert_eq!(c.alone, oracle.report.per_load[j].alone);
            prop_assert_eq!(&c.shares, &oracle.shares[j]);
        }
    }

    #[test]
    fn service_engine_matches_rescan_reference(
        (platform, loads) in instance(),
        order in admission_order(),
        batch in 1usize..5,
        policy in installment_policy(),
    ) {
        // The indexed pending set (heap / lazy re-keying) against the
        // rescan-everything selector, across the full configuration cube
        // the batch oracle cannot express: windows > 1 and adaptive
        // installment counts.
        let loads = sort_by_release(loads);
        let cfg = ServiceConfig { order, batch, installments: policy, track_stretch: true };
        let mut fast: Vec<CompletedLoad> = Vec::new();
        let mut slow: Vec<CompletedLoad> = Vec::new();
        let a = serve_trace(&platform, loads.iter().copied(), &cfg, &mut fast).unwrap();
        let b = serve_trace_reference(&platform, &loads, &cfg, &mut slow).unwrap();
        prop_assert_eq!(a, b);
        prop_assert_eq!(fast, slow);
    }

    #[test]
    fn service_matches_reference_on_release_tie_heavy_instances(
        p in 1usize..6,
        n_loads in 1usize..13,
        order in admission_order(),
        batch in 1usize..4,
        installments in 1usize..4,
    ) {
        // Homogeneous platform + identical loads + quantized releases
        // (groups of 3 share an arrival instant): every selection is a
        // key tie decided purely by arrival id — the harshest
        // determinism check for the heap's tie-breaking.
        let platform = Platform::homogeneous(p, 1.0, 1.0).unwrap();
        let loads: Vec<LoadSpec> = (0..n_loads)
            .map(|j| LoadSpec::new(12.0, 2.0, (j / 3) as f64 * 5.0).unwrap())
            .collect();
        let cfg = ServiceConfig {
            order,
            batch,
            installments: InstallmentPolicy::Fixed(installments),
            track_stretch: true,
        };
        let mut fast: Vec<CompletedLoad> = Vec::new();
        let mut slow: Vec<CompletedLoad> = Vec::new();
        let a = serve_trace(&platform, loads.iter().copied(), &cfg, &mut fast).unwrap();
        let b = serve_trace_reference(&platform, &loads, &cfg, &mut slow).unwrap();
        prop_assert_eq!(a, b);
        prop_assert_eq!(fast, slow);
        // And at window 1 the batch oracle must agree too, ties and all.
        let one = ServiceConfig { batch: 1, ..cfg };
        let mut done: Vec<CompletedLoad> = Vec::new();
        let report = serve_trace(&platform, loads.iter().copied(), &one, &mut done).unwrap();
        let oracle = online_schedule(&platform, &loads, &PolicyConfig { order, installments })
            .unwrap();
        prop_assert_eq!(report.preemptions, oracle.preemptions as u64);
        for c in &done {
            prop_assert_eq!(c.finish, oracle.report.per_load[c.id as usize].finish);
        }
    }

    #[test]
    fn service_burst_admits_everything_then_drains(
        (platform, loads) in instance_all_released(),
        order in admission_order(),
        batch in 1usize..5,
        policy in installment_policy(),
    ) {
        // All arrivals at once: the pending set peaks at exactly the
        // trace length on the first admission sweep, and the engine still
        // matches the rescan reference decision for decision.
        let cfg = ServiceConfig { order, batch, installments: policy, track_stretch: true };
        let mut fast: Vec<CompletedLoad> = Vec::new();
        let mut slow: Vec<CompletedLoad> = Vec::new();
        let a = serve_trace(&platform, loads.iter().copied(), &cfg, &mut fast).unwrap();
        let b = serve_trace_reference(&platform, &loads, &cfg, &mut slow).unwrap();
        prop_assert_eq!(a.pending_high_water, loads.len());
        prop_assert_eq!(a, b);
        prop_assert_eq!(fast, slow);
    }

    #[test]
    fn service_conserves_and_keeps_the_stretch_floor(
        (platform, loads) in instance(),
        order in admission_order(),
        batch in 1usize..5,
        policy in installment_policy(),
    ) {
        // Merged windows split one solve across members, adaptive counts
        // vary the granularity — but each load still receives exactly its
        // data, and against its own granularity-matched alone denominator
        // no load's stretch drops below 1.
        let loads = sort_by_release(loads);
        let cfg = ServiceConfig { order, batch, installments: policy, track_stretch: true };
        let mut done: Vec<CompletedLoad> = Vec::new();
        let report = serve_trace(&platform, loads.iter().copied(), &cfg, &mut done).unwrap();
        prop_assert_eq!(report.loads as usize, loads.len());
        for c in &done {
            let shipped: f64 = c.shares.iter().sum();
            prop_assert!((shipped - c.spec.size).abs() < 1e-9 * c.spec.size.max(1.0),
                "load {}: shipped {shipped} of {}", c.id, c.spec.size);
            prop_assert!(c.stretch() >= 1.0 - 1e-9,
                "load {}: stretch {}", c.id, c.stretch());
            prop_assert!(c.start >= c.spec.release);
        }
    }
}

/// The `_with_alone` wrappers are pure plumbing: handing them exactly the
/// denominators their parent computes must reproduce the parent's outcome
/// bit for bit (`PolicyOutcome`/`RoundRobinOutcome` derive `PartialEq`).
#[test]
fn with_alone_wrappers_are_bit_identical_to_their_parents() {
    let platform =
        Platform::from_speeds_and_costs(&[1.0, 3.0, 0.7, 2.2], &[1.0, 0.2, 2.0, 0.6]).unwrap();
    let loads = vec![
        LoadSpec::new(40.0, 2.0, 0.0).unwrap(),
        LoadSpec::new(17.0, 1.5, 1.0).unwrap(),
        LoadSpec::new(63.0, 3.0, 2.5).unwrap(),
        LoadSpec::new(9.0, 1.2, 4.0).unwrap(),
        LoadSpec::new(28.0, 2.7, 6.0).unwrap(),
    ];
    let cfg = PolicyConfig {
        order: AdmissionOrder::Srpt,
        installments: 3,
    };
    let alone = alone_policy_makespans(&platform, &loads, cfg.installments).unwrap();

    let parent = policy_schedule(&platform, &loads, &cfg).unwrap();
    let wrapped = policy_schedule_with_alone(&platform, &loads, &cfg, &alone).unwrap();
    assert_eq!(parent, wrapped, "policy_schedule_with_alone");

    let parent = online_schedule(&platform, &loads, &cfg).unwrap();
    let wrapped = online_schedule_with_alone(&platform, &loads, &cfg, &alone).unwrap();
    assert_eq!(parent, wrapped, "online_schedule_with_alone");

    let rr_cfg = MultiLoadConfig::default();
    let rr_alone = alone_makespans(&platform, &loads).unwrap();
    let parent = round_robin_schedule(&platform, &loads, &rr_cfg).unwrap();
    let wrapped = round_robin_schedule_with_alone(&platform, &loads, &rr_cfg, &rr_alone).unwrap();
    assert_eq!(parent, wrapped, "round_robin_schedule_with_alone");
}
