//! Property-based tests for the multi-load schedulers: conservation,
//! release-time feasibility, heap-vs-reference bit-identity, the `N = 1`
//! degeneration to the single-load solvers, the installment engine's
//! indexed selector against its linear-rescan twin (batch `schedule` in
//! both arrival modes, streamed `serve_trace` across windows and
//! installment policies), online = clairvoyant when everything is
//! released at once, and twin coverage: every engine has a `_reference`
//! twin, and a property suite names both.

// Test code: reference workloads may use the std transcendentals.
#![allow(clippy::disallowed_methods)]

use dlt_core::nonlinear;
use dlt_multiload::{
    alone_makespans, round_robin_schedule, round_robin_schedule_reference, schedule,
    schedule_reference, serve_trace, serve_trace_reference, AdmissionOrder, Arrivals,
    CompletedLoad, InstallmentPolicy, LoadSpec, MultiLoadConfig, MultiLoadError, PolicyConfig,
    PolicyOutcome, RoundRobinOutcome, ScheduleOptions, ServiceConfig,
};
use dlt_platform::Platform;
use dlt_sim::{simulate_demand, DemandConfig, DemandTask};
use proptest::prelude::*;
use std::collections::BTreeSet;
use std::path::Path;

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

/// The service engine admits strictly in stream order, so streamed
/// traces must be release-sorted (the sort is stable: ties keep their
/// batch order).
fn sort_by_release(mut loads: Vec<LoadSpec>) -> Vec<LoadSpec> {
    loads.sort_by(|a, b| a.release.total_cmp(&b.release));
    loads
}

/// Both arrival modes.
fn arrivals() -> impl Strategy<Value = Arrivals> {
    any::<bool>().prop_map(|c| {
        if c {
            Arrivals::Clairvoyant
        } else {
            Arrivals::Online
        }
    })
}

/// A batch schedule with default options in the given arrival mode.
fn run(
    platform: &Platform,
    loads: &[LoadSpec],
    cfg: &PolicyConfig,
    arrivals: Arrivals,
) -> PolicyOutcome {
    let opts = ScheduleOptions {
        arrivals,
        ..ScheduleOptions::default()
    };
    schedule(platform, loads, cfg, &opts).unwrap()
}

/// FIFO with one installment per load: the classical scheduler.
fn fifo(platform: &Platform, loads: &[LoadSpec]) -> PolicyOutcome {
    run(platform, loads, &PolicyConfig::default(), Arrivals::Online)
}

/// The round-robin heap dispatcher and its linear reference, with
/// single-round stretch denominators.
fn round_robin(
    platform: &Platform,
    loads: &[LoadSpec],
    cfg: &MultiLoadConfig,
) -> Result<(RoundRobinOutcome, RoundRobinOutcome), MultiLoadError> {
    let alone = alone_makespans(platform, loads, 1)?;
    Ok((
        round_robin_schedule(platform, loads, cfg, &alone)?,
        round_robin_schedule_reference(platform, loads, cfg, &alone)?,
    ))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn fifo_conserves_every_load((platform, loads) in instance()) {
        let out = fifo(&platform, &loads);
        for (j, load) in loads.iter().enumerate() {
            let shipped: f64 = out.shares[j].iter().sum();
            prop_assert!((shipped - load.size).abs() < 1e-9 * load.size.max(1.0),
                "load {j}: shipped {shipped} of {}", load.size);
        }
    }

    #[test]
    fn fifo_respects_release_times((platform, loads) in instance()) {
        let out = fifo(&platform, &loads);
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
        let (out, _) = round_robin(&platform, &loads, &cfg).unwrap();
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
        let (out, _) = round_robin(&platform, &loads, &cfg).unwrap();
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
        let (heap, linear) = round_robin(&platform, &loads, &cfg).unwrap();
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
        let (heap, linear) = round_robin(&platform, &loads, &cfg).unwrap();
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
        let out = fifo(&platform, &[load]);
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
        let (out, _) = round_robin(&platform, &[load], &cfg).unwrap();

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
            DemandConfig { include_comm },
        );
        // The heap machineries agree bit for bit.
        prop_assert_eq!(&out.report.worker_finish, &demand.finish_times);
        prop_assert_eq!(&out.comm_volume, &demand.comm_volume);
    }

    #[test]
    fn stretch_is_at_least_one_under_fifo((platform, loads) in instance()) {
        let out = fifo(&platform, &loads);
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
        let (out, _) = round_robin(&platform, &loads, &cfg).unwrap();
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
    fn schedule_matches_its_rescan_reference(
        (platform, loads) in instance(),
        order in admission_order(),
        installments in installment_count(),
        arrivals in arrivals(),
    ) {
        // The indexed selector must reproduce the rescan-everything twin
        // bit for bit — online and clairvoyant, every policy, preemptive
        // and not.
        let cfg = PolicyConfig { order, installments };
        let opts = ScheduleOptions { arrivals, ..ScheduleOptions::default() };
        let fast = schedule(&platform, &loads, &cfg, &opts).unwrap();
        let slow = schedule_reference(&platform, &loads, &cfg, &opts).unwrap();
        prop_assert_eq!(fast, slow);
    }

    #[test]
    fn schedule_matches_its_reference_on_tie_heavy_batches(
        p in 1usize..6,
        n_loads in 1usize..13,
        order in admission_order(),
        installments in 1usize..4,
        arrivals in arrivals(),
        salt in 0usize..4,
    ) {
        // Homogeneous platform + identical loads + quantized releases in
        // scrambled batch order: every selection is a key tie decided
        // purely by batch index.
        let platform = Platform::homogeneous(p, 1.0, 1.0).unwrap();
        let loads: Vec<LoadSpec> = (0..n_loads)
            .map(|j| LoadSpec::new(12.0, 2.0, ((j * 7 + salt) % 4) as f64 * 5.0).unwrap())
            .collect();
        let cfg = PolicyConfig { order, installments };
        let opts = ScheduleOptions { arrivals, ..ScheduleOptions::default() };
        let fast = schedule(&platform, &loads, &cfg, &opts).unwrap();
        let slow = schedule_reference(&platform, &loads, &cfg, &opts).unwrap();
        prop_assert_eq!(fast, slow);
    }

    #[test]
    fn policy_stretch_is_at_least_one(
        (platform, loads) in instance(),
        order in admission_order(),
        installments in installment_count(),
        arrivals in arrivals(),
    ) {
        // Against the granularity-matched alone denominator, no policy —
        // FIFO, SRPT or weighted stretch, preemptive or not, online or
        // clairvoyant — can push a load's stretch below 1: contention
        // only ever delays installments.
        let cfg = PolicyConfig { order, installments };
        let out = run(&platform, &loads, &cfg, arrivals);
        for m in &out.report.per_load {
            prop_assert!(m.stretch() >= 1.0 - 1e-9,
                "{order:?} k={installments}: stretch {}", m.stretch());
        }
    }

    #[test]
    fn policy_conserves_and_respects_releases(
        (platform, loads) in instance(),
        order in admission_order(),
        installments in installment_count(),
        arrivals in arrivals(),
    ) {
        let cfg = PolicyConfig { order, installments };
        let out = run(&platform, &loads, &cfg, arrivals);
        // Installments never start before their load's release, never
        // overlap (one platform), and each load is conserved exactly.
        let mut all: Vec<_> = out.pieces.iter().flatten().copied().collect();
        all.sort_by(|a, b| a.start.total_cmp(&b.start));
        for w in all.windows(2) {
            prop_assert!(w[1].start >= w[0].finish - 1e-9 * w[0].finish.max(1.0));
        }
        for (j, load) in loads.iter().enumerate() {
            prop_assert_eq!(out.pieces[j].len(), installments);
            for piece in &out.pieces[j] {
                prop_assert!(piece.start >= load.release);
                prop_assert!(piece.finish > piece.start);
            }
            let shipped: f64 = out.shares[j].iter().sum();
            prop_assert!((shipped - load.size).abs() < 1e-9 * load.size.max(1.0));
            let queued: f64 = out.pieces[j].iter().map(|e| e.data).sum();
            let tol = 4.0 * installments as f64 * f64::EPSILON * load.size;
            prop_assert!((queued - load.size).abs() <= tol);
        }
    }

    #[test]
    fn online_equals_clairvoyant_when_everything_is_released(
        (platform, loads) in instance_all_released(),
        order in admission_order(),
        installments in installment_count(),
    ) {
        // With every load released at 0 the online scheduler has full
        // knowledge from the first decision: it must take exactly the
        // clairvoyant path, bit for bit.
        let cfg = PolicyConfig { order, installments };
        let off = run(&platform, &loads, &cfg, Arrivals::Clairvoyant);
        let on = run(&platform, &loads, &cfg, Arrivals::Online);
        prop_assert_eq!(off, on);
    }

    #[test]
    fn single_immediate_load_policy_is_the_single_load_solver(
        speeds in proptest::collection::vec(0.2f64..10.0, 1..8),
        size in 0.5f64..500.0,
        alpha in 1.0f64..3.0,
        order in admission_order(),
        arrivals in arrivals(),
    ) {
        // The policy anchor: one immediate load, one installment, any
        // admission order — the schedule IS the cold single-load solve.
        let platform = Platform::from_speeds(&speeds).unwrap();
        let load = LoadSpec::immediate(size, alpha).unwrap();
        let cfg = PolicyConfig { order, installments: 1 };
        let direct = nonlinear::equal_finish_parallel(&platform, size, alpha).unwrap();
        let out = run(&platform, &[load], &cfg, arrivals);
        prop_assert_eq!(out.report.makespan(), direct.makespan);
        prop_assert_eq!(&out.shares[0], &direct.x);
        prop_assert_eq!(out.report.per_load[0].stretch(), 1.0);
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

/// The identifier words of `text`, outside `//` comments and string
/// literals, so a name quoted in prose or in a string is no evidence.
fn code_words(text: &str) -> BTreeSet<&str> {
    text.lines()
        .flat_map(|line| {
            line.split("//")
                .next()
                .unwrap_or_default()
                .split('"')
                .step_by(2)
        })
        .flat_map(|code| code.split(|c: char| !c.is_alphanumeric() && c != '_'))
        .filter(|word| !word.is_empty())
        .collect()
}

/// The text of every `.rs` file under `dir`, subdirectories included,
/// whose file stem passes `keep`.
fn rust_sources(dir: &Path, keep: fn(&str) -> bool) -> String {
    let mut text = String::new();
    for entry in std::fs::read_dir(dir).unwrap() {
        let path = entry.unwrap().path();
        if path.is_dir() {
            text += &rust_sources(&path, keep);
        } else if path.extension().is_some_and(|e| e == "rs")
            && keep(path.file_stem().unwrap().to_str().unwrap())
        {
            text += &std::fs::read_to_string(&path).unwrap();
            text.push('\n');
        }
    }
    text
}

/// The free functions `source` declares `pub` or `pub(…)`, at any
/// indentation (an inline module's too). A method, one whose parameter
/// list opens with a `self` receiver, is no engine entry point.
fn free_pub_fns(source: &str) -> BTreeSet<&str> {
    let lines: Vec<&str> = source.lines().collect();
    (0..lines.len())
        .filter_map(|i| {
            let rest = lines[i].trim_start().strip_prefix("pub")?;
            let rest = match rest.strip_prefix('(') {
                Some(visibility) => visibility.split_once(')')?.1,
                None => rest,
            };
            let rest = rest.strip_prefix(" fn ")?;
            let name = rest
                .split(|c: char| !c.is_alphanumeric() && c != '_')
                .next()?;
            // The parameter list may open on the next line.
            let signature = [rest, lines.get(i + 1).copied().unwrap_or_default()].concat();
            let params = signature.split_once('(')?.1.trim_start();
            let receiver = ["self", "&self", "&mut self", "mut self", "&'"]
                .iter()
                .any(|r| params.starts_with(r));
            (!receiver).then_some(name)
        })
        .collect()
}

/// Twin coverage: every free `pub fn` engine of this crate (a name with
/// the word `schedule`, or one starting with `serve_trace`) has a
/// `pub fn {name}_reference` twin, and the crate's property suites name
/// both in code.
#[test]
fn every_engine_has_a_reference_twin_under_property_test() {
    let dir = Path::new(env!("CARGO_MANIFEST_DIR"));
    let sources = rust_sources(&dir.join("src"), |_| true);
    let suites = rust_sources(&dir.join("tests"), |stem| stem.contains("properties"));
    let pub_fns = free_pub_fns(&sources);
    let suite_words = code_words(&suites);
    let engines: Vec<&str> = pub_fns
        .iter()
        .copied()
        .filter(|name| !name.contains("reference"))
        .filter(|name| name.split('_').any(|w| w == "schedule") || name.starts_with("serve_trace"))
        .collect();
    for name in &engines {
        let twin = format!("{name}_reference");
        assert!(
            pub_fns.contains(twin.as_str()),
            "engine `{name}` has no `pub fn {twin}`"
        );
        for tested in [*name, &twin] {
            assert!(
                suite_words.contains(tested),
                "no property suite names `{tested}`"
            );
        }
    }
    assert_eq!(
        engines,
        [
            "round_robin_schedule",
            "schedule",
            "serve_trace",
            "serve_trace_with_failures"
        ]
    );
}
