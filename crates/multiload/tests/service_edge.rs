//! Edge-case traces through the service engine, each checked
//! **bitwise** against the linear-rescan reference: the empty trace, a
//! single load, all-simultaneous releases (tie ordering by
//! `(key, arrival id)`), and burst-then-silence arrival patterns. These
//! are the shapes where an indexed pending set or an event loop most
//! plausibly diverges from its executable specification.

use dlt_multiload::{
    serve_trace, serve_trace_reference, AdmissionOrder, CompletedLoad, InstallmentPolicy, LoadSpec,
    ServiceConfig, ServiceReport,
};
use dlt_platform::Platform;

fn platform() -> Platform {
    Platform::from_speeds_and_costs(&[1.0, 2.5, 4.0], &[0.02, 0.01, 0.005]).unwrap()
}

/// Every engine configuration the edge traces sweep: each admission
/// order at the oracle point and in batched/multi-installment modes,
/// including the unbounded window `usize::MAX` ("merge the whole pending
/// set").
fn configs() -> Vec<ServiceConfig> {
    let mut cfgs = Vec::new();
    for order in AdmissionOrder::ALL {
        for batch in [1usize, 3, usize::MAX] {
            for installments in [
                InstallmentPolicy::Fixed(1),
                InstallmentPolicy::Fixed(3),
                InstallmentPolicy::Adaptive { min: 1, max: 4 },
            ] {
                cfgs.push(ServiceConfig {
                    order,
                    batch,
                    installments,
                    track_stretch: true,
                });
            }
        }
    }
    cfgs
}

/// Runs one trace through the fast engine and the linear-rescan
/// reference and demands bitwise equality of reports and completions.
/// The unbounded window must also serve exactly as a window as wide as
/// the trace.
fn assert_lockstep(loads: &[LoadSpec], what: &str) -> Vec<(ServiceReport, Vec<CompletedLoad>)> {
    let platform = platform();
    let mut runs = Vec::new();
    for cfg in configs() {
        let mut fast_out: Vec<CompletedLoad> = Vec::new();
        let fast = serve_trace(&platform, loads.iter().cloned(), &cfg, &mut fast_out)
            .unwrap_or_else(|e| panic!("{what}: fast engine failed under {cfg:?}: {e}"));
        let mut ref_out: Vec<CompletedLoad> = Vec::new();
        let reference = serve_trace_reference(&platform, loads, &cfg, &mut ref_out)
            .unwrap_or_else(|e| panic!("{what}: reference failed under {cfg:?}: {e}"));
        assert_eq!(fast, reference, "{what}: report diverged under {cfg:?}");
        assert_eq!(
            fast_out, ref_out,
            "{what}: completions diverged under {cfg:?}"
        );
        if cfg.batch == usize::MAX && !loads.is_empty() {
            let whole = ServiceConfig {
                batch: loads.len(),
                ..cfg
            };
            let mut whole_out: Vec<CompletedLoad> = Vec::new();
            let whole_report =
                serve_trace(&platform, loads.iter().cloned(), &whole, &mut whole_out)
                    .unwrap_or_else(|e| panic!("{what}: fast engine failed under {whole:?}: {e}"));
            assert_eq!(
                (&fast, &fast_out),
                (&whole_report, &whole_out),
                "{what}: window usize::MAX differs from window {}",
                loads.len()
            );
        }
        runs.push((fast, fast_out));
    }
    runs
}

#[test]
fn empty_trace_is_an_empty_report() {
    for (report, completions) in assert_lockstep(&[], "empty trace") {
        assert_eq!(report.loads, 0);
        assert_eq!(report.decisions, 0);
        assert_eq!(report.makespan, 0.0);
        assert_eq!(report.total_data, 0.0);
        assert_eq!(report.pending_high_water, 0);
        assert!(completions.is_empty());
    }
}

#[test]
fn single_load_serves_alone() {
    let loads = vec![LoadSpec::new(120.0, 1.5, 3.0).unwrap()];
    for (report, completions) in assert_lockstep(&loads, "single load") {
        assert_eq!(report.loads, 1);
        assert_eq!(completions.len(), 1);
        let cl = &completions[0];
        assert_eq!(cl.id, 0);
        assert!(cl.start >= 3.0, "service cannot precede the release");
        assert!(cl.finish > cl.start);
        // Alone on the platform: flow == alone, stretch exactly 1 at
        // matched granularity.
        assert_eq!(cl.flow(), cl.alone);
        assert_eq!(report.pending_high_water, 1);
    }
}

#[test]
fn simultaneous_identical_releases_tie_break_by_arrival_id() {
    // Eight clones: same size, same alpha, same release — every
    // admission order's key is identical across them, so selection falls
    // entirely to the (key, arrival id) tie rule. Any divergence between
    // the heap and the rescan (or any instability in either) shows up as
    // a different service order and different finish times.
    let loads: Vec<LoadSpec> = (0..8)
        .map(|_| LoadSpec::new(60.0, 2.0, 0.0).unwrap())
        .collect();
    for (report, completions) in assert_lockstep(&loads, "simultaneous ties") {
        assert_eq!(report.loads, 8);
        assert_eq!(completions.len(), 8);
    }
    // At the oracle point (window 1, one installment, no preemption
    // possible between identical loads) the service order IS the id
    // order; completions stream in that order too.
    let platform = platform();
    for order in AdmissionOrder::ALL {
        let cfg = ServiceConfig {
            order,
            batch: 1,
            installments: InstallmentPolicy::Fixed(1),
            track_stretch: true,
        };
        let mut out: Vec<CompletedLoad> = Vec::new();
        serve_trace(&platform, loads.iter().cloned(), &cfg, &mut out).unwrap();
        let ids: Vec<u64> = out.iter().map(|c| c.id).collect();
        assert_eq!(
            ids,
            (0..8).collect::<Vec<u64>>(),
            "{order:?} must break exact key ties by arrival id"
        );
        // Identical loads served back to back: finishes strictly
        // increase, each later clone waits longer.
        for w in out.windows(2) {
            assert!(w[0].finish < w[1].finish);
            assert!(w[0].flow() < w[1].flow());
        }
    }
}

#[test]
fn burst_then_silence_then_burst() {
    // Two tight bursts separated by a silence much longer than either
    // burst's service time: the engine must drain the first burst, idle
    // across the gap (no phantom decisions), and restart cleanly.
    let mut loads = Vec::new();
    for j in 0..6 {
        loads.push(LoadSpec::new(40.0 + j as f64, 1.5, j as f64 * 0.1).unwrap());
    }
    for j in 0..6 {
        loads.push(LoadSpec::new(35.0 + j as f64, 1.5, 5_000.0 + j as f64 * 0.1).unwrap());
    }
    for (report, completions) in assert_lockstep(&loads, "burst-silence-burst") {
        assert_eq!(report.loads, 12);
        let first_burst_end = completions
            .iter()
            .filter(|c| c.id < 6)
            .map(|c| c.finish)
            .fold(0.0f64, f64::max);
        assert!(
            first_burst_end < 5_000.0,
            "the first burst must drain during the silence (ended {first_burst_end})"
        );
        for c in completions.iter().filter(|c| c.id >= 6) {
            assert!(c.start >= 5_000.0, "second-burst load served early");
        }
        assert!(report.makespan > 5_000.0);
        // The backlog never mixes the bursts.
        assert!(report.pending_high_water <= 6);
    }
}

#[test]
fn all_simultaneous_releases_with_distinct_sizes_stay_in_lockstep() {
    // Same instant, different sizes: SRPT and weighted stretch now rank
    // by key, FIFO still falls to the id tie. Exercises the opposite
    // branch of the tie rule on the same event-queue state.
    let loads: Vec<LoadSpec> = (0..8)
        .map(|j| LoadSpec::new(30.0 + 17.0 * j as f64, 1.5, 0.0).unwrap())
        .collect();
    for (report, _) in assert_lockstep(&loads, "simultaneous distinct") {
        assert_eq!(report.loads, 8);
        assert!(report.mean_stretch() >= 1.0 - 1e-9);
    }
    // SRPT at the oracle point must serve the smallest load first and
    // the largest last.
    let cfg = ServiceConfig {
        order: AdmissionOrder::Srpt,
        batch: 1,
        installments: InstallmentPolicy::Fixed(1),
        track_stretch: true,
    };
    let mut out: Vec<CompletedLoad> = Vec::new();
    serve_trace(&platform(), loads.iter().cloned(), &cfg, &mut out).unwrap();
    assert_eq!(out.first().unwrap().id, 0);
    assert_eq!(out.last().unwrap().id, 7);
}
