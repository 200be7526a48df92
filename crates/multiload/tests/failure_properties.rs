//! Property-based tests of the fault-injection layer: engine /
//! linear-rescan bit-identity **under failures** (batch `schedule`,
//! streamed `serve_trace` across windows), zero-failure
//! runs costing nothing, bitwise ledger conservation (retained prefixes +
//! re-queued remainders recompose each load), per-piece feasibility (cuts
//! land on event times), and the realized-stretch floor.
//!
//! This file runs at `ProptestConfig::default()`, so the CI seed-matrix
//! job can deepen it with `PROPTEST_CASES` and explore independent input
//! sets with `PROPTEST_SEED` — no rebuild, no code change.

use dlt_multiload::{
    alone_makespans, realized_alone_makespans, replay_ledger, schedule, schedule_reference,
    serve_trace, serve_trace_with_failures, serve_trace_with_failures_reference, AdmissionOrder,
    CompletedLoad, FailureEvent, FailureTrace, InstallmentPolicy, LoadSpec, PolicyConfig,
    PolicyOutcome, ScheduleOptions, ServiceConfig,
};
use dlt_platform::Platform;
use proptest::prelude::*;

/// Random heterogeneous platform (1–8 workers) and load batch (1–6 loads
/// with mixed sizes, exponents and release times) — the same instance
/// space as the failure-free property suite.
fn instance() -> impl Strategy<Value = (Platform, Vec<LoadSpec>)> {
    let speeds = proptest::collection::vec(0.2f64..10.0, 1..8);
    let load = (0.5f64..200.0, 1.0f64..3.0, 0.0f64..50.0)
        .prop_map(|(size, alpha, release)| LoadSpec::new(size, alpha, release).unwrap());
    let loads = proptest::collection::vec(load, 1..6);
    (speeds, loads).prop_map(|(speeds, loads)| (Platform::from_speeds(&speeds).unwrap(), loads))
}

/// Raw failure-event descriptors, platform-agnostic: `(time, worker
/// draw, lethal, factor)`. [`assemble_trace`] maps them onto a concrete
/// platform.
fn raw_events() -> impl Strategy<Value = Vec<(f64, usize, bool, f64)>> {
    proptest::collection::vec(
        (0.0f64..120.0, 0usize..64, any::<bool>(), 1.0f64..3.0),
        0..6,
    )
}

/// Builds a valid [`FailureTrace`] for a `p`-worker platform: times
/// sorted, workers reduced mod `p`, and drop-outs capped at `p − 1`
/// distinct workers (the survivor keeps every schedule total —
/// `AllWorkersFailed` paths get their own unit tests).
fn assemble_trace(p: usize, raw: &[(f64, usize, bool, f64)]) -> FailureTrace {
    let mut raw: Vec<_> = raw.to_vec();
    raw.sort_by(|a, b| a.0.total_cmp(&b.0));
    let mut down = vec![false; p];
    let mut downs = 0usize;
    let mut events = Vec::new();
    for &(at, w, lethal, factor) in &raw {
        let worker = w % p;
        if lethal && !down[worker] && downs + 1 < p {
            down[worker] = true;
            downs += 1;
            events.push(FailureEvent::down(at, worker));
        } else {
            events.push(FailureEvent::slow(at, worker, factor));
        }
    }
    FailureTrace::new(events).expect("assembled trace is sorted and valid")
}

/// One of the three admission orders.
fn admission_order() -> impl Strategy<Value = AdmissionOrder> {
    (0usize..AdmissionOrder::ALL.len()).prop_map(|i| AdmissionOrder::ALL[i])
}

/// Installment counts: 1 (non-preemptive) through fine-grained.
fn installment_count() -> impl Strategy<Value = usize> {
    (0usize..8).prop_map(|c| c.max(1))
}

/// Release-sorted batches for the service engine (stable sort: release
/// ties keep batch order).
fn sort_by_release(mut loads: Vec<LoadSpec>) -> Vec<LoadSpec> {
    loads.sort_by(|a, b| a.release.total_cmp(&b.release));
    loads
}

/// A batch schedule under `failures`.
fn run(
    platform: &Platform,
    loads: &[LoadSpec],
    cfg: &PolicyConfig,
    failures: &FailureTrace,
) -> PolicyOutcome {
    let opts = ScheduleOptions {
        failures: Some(failures),
        alone: None,
    };
    schedule(platform, loads, cfg, &opts).unwrap()
}

proptest! {
    #![proptest_config(ProptestConfig::default())]

    #[test]
    fn failure_engines_match_linear_scan_references(
        (platform, loads) in instance(),
        raw in raw_events(),
        order in admission_order(),
        installments in installment_count(),
    ) {
        // The indexed selector must stay in bitwise lockstep with the
        // rescan-everything twin on the failure paths too: same cuts, same
        // retained prefixes, same degraded-platform solves.
        let failures = assemble_trace(platform.len(), &raw);
        let cfg = PolicyConfig { order, installments };
        let opts = ScheduleOptions { failures: Some(&failures), alone: None };
        let fast = schedule(&platform, &loads, &cfg, &opts).unwrap();
        let slow = schedule_reference(&platform, &loads, &cfg, &opts).unwrap();
        prop_assert_eq!(&fast, &slow);
    }

    #[test]
    fn zero_failure_realized_alone_is_the_planned_alone(
        (platform, loads) in instance(),
        order in admission_order(),
        installments in installment_count(),
    ) {
        // The empty trace cuts nothing, and the realized stretch
        // denominators collapse to the planned ones.
        let cfg = PolicyConfig { order, installments };
        let out = run(&platform, &loads, &cfg, &FailureTrace::none());
        prop_assert_eq!(out.interruptions, 0);
        prop_assert_eq!(out.requeued_data, 0.0);
        let realized = realized_alone_makespans(&platform, &loads, &out.pieces).unwrap();
        let planned = alone_makespans(&platform, &loads, installments).unwrap();
        prop_assert_eq!(&realized, &planned);
    }

    #[test]
    fn ledger_replays_bitwise_and_conserves_data(
        (platform, loads) in instance(),
        raw in raw_events(),
        order in admission_order(),
        installments in installment_count(),
    ) {
        // Bitwise data conservation: every load's served pieces —
        // retained prefixes plus re-queued remainders — recompose its
        // size exactly under the engine's own update rule, and the
        // summed worker shares agree within summation rounding.
        let failures = assemble_trace(platform.len(), &raw);
        let cfg = PolicyConfig { order, installments };
        let out = run(&platform, &loads, &cfg, &failures);
        for (j, load) in loads.iter().enumerate() {
            let rest = replay_ledger(load.size, installments, &out.pieces[j])
                .unwrap_or_else(|e| panic!("load {j}: ledger replay failed: {e}"));
            prop_assert_eq!(rest, 0.0);
            let shipped: f64 = out.shares[j].iter().sum();
            prop_assert!((shipped - load.size).abs() < 1e-9 * load.size.max(1.0),
                "load {j}: shipped {shipped} of {}", load.size);
        }
        // Cuts and re-queued volume come in pairs.
        let cut = out.pieces.iter().flatten().filter(|e| e.interrupted).count();
        prop_assert_eq!(cut, out.interruptions);
        if out.interruptions == 0 {
            prop_assert_eq!(out.requeued_data, 0.0);
        }
    }

    #[test]
    fn pieces_respect_releases_never_overlap_and_cut_at_events(
        (platform, loads) in instance(),
        raw in raw_events(),
        order in admission_order(),
        installments in installment_count(),
    ) {
        // The per-installment view: every piece starts at or after its
        // load's release, the platform serves one piece at a time, and a
        // cut piece ends exactly at a failure event's time.
        let failures = assemble_trace(platform.len(), &raw);
        let cfg = PolicyConfig { order, installments };
        let out = run(&platform, &loads, &cfg, &failures);
        let mut all: Vec<_> = out.pieces.iter().flatten().copied().collect();
        all.sort_by(|a, b| a.start.total_cmp(&b.start));
        for w in all.windows(2) {
            prop_assert!(w[1].start >= w[0].finish, "{:?} overlaps {:?}", w[0], w[1]);
        }
        for (j, load) in loads.iter().enumerate() {
            for piece in &out.pieces[j] {
                prop_assert!(piece.start >= load.release);
                prop_assert!(piece.finish >= piece.start);
                if piece.interrupted {
                    prop_assert!(failures.events().iter().any(|e| e.at == piece.finish),
                        "load {j}: cut at {} is no event time", piece.finish);
                }
            }
        }
    }

    #[test]
    fn realized_stretch_is_at_least_one_under_failures(
        (platform, loads) in instance(),
        raw in raw_events(),
        order in admission_order(),
        installments in installment_count(),
    ) {
        // Against the realized-granularity alone denominator (healthy
        // platform, the pieces actually served), failures can only delay:
        // no load's realized stretch dips below 1.
        let failures = assemble_trace(platform.len(), &raw);
        let cfg = PolicyConfig { order, installments };
        let out = run(&platform, &loads, &cfg, &failures);
        let realized = realized_alone_makespans(&platform, &loads, &out.pieces).unwrap();
        for (m, &alone) in out.report.per_load.iter().zip(&realized) {
            let stretch = (m.finish - m.release) / alone;
            prop_assert!(stretch >= 1.0 - 1e-7,
                "load {}: realized stretch {stretch}", m.load);
        }
    }

    #[test]
    fn service_failure_engine_matches_rescan_reference(
        (platform, loads) in instance(),
        raw in raw_events(),
        order in admission_order(),
        batch in 1usize..4,
        installments in 1usize..4,
    ) {
        // The streamed engine's failure path against its linear-rescan
        // twin, across windows the batch engines cannot express — and
        // every completed load's piece ledger replays to exactly 0.
        let loads = sort_by_release(loads);
        let failures = assemble_trace(platform.len(), &raw);
        let cfg = ServiceConfig {
            order,
            batch,
            installments: InstallmentPolicy::Fixed(installments),
            track_stretch: true,
        };
        let mut fast: Vec<CompletedLoad> = Vec::new();
        let mut slow: Vec<CompletedLoad> = Vec::new();
        let a = serve_trace_with_failures(
            &platform, loads.iter().copied(), &cfg, &failures, &mut fast).unwrap();
        let b = serve_trace_with_failures_reference(
            &platform, &loads, &cfg, &failures, &mut slow).unwrap();
        prop_assert_eq!(&a, &b);
        prop_assert_eq!(&fast, &slow);
        for c in &fast {
            let rest = replay_ledger(c.spec.size, c.installments, &c.pieces)
                .unwrap_or_else(|e| panic!("load {}: {e}", c.id));
            prop_assert_eq!(rest, 0.0);
        }
    }

    #[test]
    fn service_zero_failure_run_is_serve_trace_bitwise(
        (platform, loads) in instance(),
        order in admission_order(),
        batch in 1usize..4,
        installments in 1usize..4,
    ) {
        let loads = sort_by_release(loads);
        let cfg = ServiceConfig {
            order,
            batch,
            installments: InstallmentPolicy::Fixed(installments),
            track_stretch: true,
        };
        let mut with: Vec<CompletedLoad> = Vec::new();
        let mut without: Vec<CompletedLoad> = Vec::new();
        let a = serve_trace_with_failures(
            &platform, loads.iter().copied(), &cfg, &FailureTrace::none(), &mut with).unwrap();
        let b = serve_trace(&platform, loads.iter().copied(), &cfg, &mut without).unwrap();
        prop_assert_eq!(&a, &b);
        prop_assert_eq!(&with, &without);
        prop_assert_eq!(a.interruptions, 0);
        prop_assert_eq!(a.requeued_data, 0.0);
    }
}
