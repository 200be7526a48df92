//! Hot-path kernels vs their executable specifications, with a JSON
//! trajectory emitter.
//!
//! The kernels that dominate reproduction wall-clock (ROADMAP perf
//! items):
//!
//! * `simulate_demand` — binary-heap scheduler vs the linear per-task
//!   worker scan (`simulate_demand_reference`), at Figure-4 scale
//!   (512 workers × 10 000 tasks);
//! * `demand_identical` — one Figure 4 platform's whole `Commhom/k`
//!   refinement loop (p = 100, uniform profile, N = 10⁴): every level's
//!   identical blocks materialised and dispatched by `simulate_demand`,
//!   vs the same levels through `simulate_demand_identical`, which
//!   builds no queue;
//! * the PERI-SUM DP — dominance-pruned `PeriSumDp` vs the full `O(p²)`
//!   suffix scan (`peri_sum_partition_reference`), at the top of the
//!   partition-quality sweep (p = 512);
//! * `multiload` round-robin — the heap chunk dispatcher of
//!   `dlt-multiload` vs its linear worker-scan reference, on a contended
//!   many-load batch;
//! * `multiload_policy` — the installment engine of `dlt-multiload`
//!   through its batch entry point (`schedule`: SRPT selection from the
//!   indexed pending set, cached keys) vs its rescan twin
//!   (`schedule_reference`: every candidate re-keyed with a `powf` at
//!   every decision), on a many-load online arrival stream;
//! * `multiload_failure` — the same pair under a failure trace (cut
//!   in-flight installments, requeue remainders, re-solve on the degraded
//!   platform), on the same arrival stream under periodic degradation
//!   waves;
//! * `multiload_service` — the same engine through its streamed entry
//!   point (`serve_trace`, `O(log n)` heap selection) vs its rescan twin
//!   (`serve_trace_reference`), on a 4096-load burst; the record also
//!   carries the service's decisions-per-second throughput;
//! * the `solver` group — the equal-finish lanes kernel through one warm
//!   `BatchSolver` handle vs the nested-bisection oracle
//!   (`equal_finish_parallel_reference`), on a FIFO-style sequence of
//!   shrinking installments at p = 8 (the service's platform) and
//!   p = 512 (the `dlt-multiload` and sweep hot path);
//! * the `costmodel` group — the same pair with the law passed as
//!   `CostLaw::AlphaPower` instead of a bare `f64` α, so the kernel pays
//!   its once-per-solve law match in `BatchSolver::solve`. Its kernel
//!   time next to the `solver` group's shows the `CostModel` dispatch
//!   cost (expected ≈ 0);
//! * the `solver_sweep` group — the shared-α sweep of the sec2 /
//!   sec-amdahl runners (`BatchSolver::solve_sweep`: one platform scan,
//!   share seeds chained law to law) vs one oracle solve per law.
//!
//! Besides the criterion groups, the run re-times each pair directly and
//! writes `BENCH_hotpaths.json` (override the path with
//! `DLT_BENCH_JSON`): one record per kernel with baseline/optimized
//! nanoseconds and the speedup. CI uploads the file as an artifact so the
//! perf trajectory of future PRs stays diffable; the committed copy holds
//! the numbers quoted in CHANGES.md, and the `bench-guard` binary fails
//! CI when a fresh measurement regresses a committed speedup by more
//! than 2×.
//!
//! Set `DLT_BENCH_SMOKE=1` to skip the criterion groups and emit the JSON
//! from fewer repetitions — the CI regression-guard mode, which keeps the
//! bench job fast while still producing comparable speedup ratios.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use dlt_bench::BENCH_SEED;
use dlt_core::batch::BatchSolver;
use dlt_core::costmodel::{CostLaw, CostModel};
use dlt_core::nonlinear;
use dlt_multiload::{
    round_robin_schedule, round_robin_schedule_reference, schedule, schedule_reference,
    serve_trace, serve_trace_reference, AdmissionOrder, DiscardCompletions, FailureEvent,
    FailureTrace, InstallmentPolicy, LoadSpec, MultiLoadConfig, PolicyConfig, ScheduleOptions,
    ServiceConfig,
};
use dlt_outer::strategies::PAPER_IMBALANCE_TARGET;
use dlt_outer::{hom_blocks_abstract, hom_blocks_refined_abstract};
use dlt_partition::{peri_sum_partition_reference, PeriSumDp};
use dlt_platform::{Platform, PlatformSpec, SpeedDistribution};
use dlt_sim::{
    simulate_demand, simulate_demand_identical, simulate_demand_reference, DemandConfig, DemandTask,
};
use std::hint::black_box;
use std::time::Instant;

/// True when the run is the CI smoke/guard mode: criterion groups are
/// skipped and the JSON emitter uses fewer repetitions.
fn smoke_mode() -> bool {
    std::env::var_os("DLT_BENCH_SMOKE").is_some_and(|v| v != "0" && !v.is_empty())
}

/// Figure-4-scale demand instance: `p` workers from the paper's uniform
/// profile, `t` tasks with mildly varied data/work so the dispatch order
/// is not degenerate.
fn demand_instance(p: usize, t: usize) -> (Platform, Vec<DemandTask>) {
    let platform = PlatformSpec::new(p, SpeedDistribution::paper_uniform())
        .generate(BENCH_SEED)
        .unwrap();
    let tasks = (0..t)
        .map(|i| DemandTask::new(2.0 + (i % 7) as f64, 10.0 + (i % 13) as f64))
        .collect();
    (platform, tasks)
}

/// The `Commhom/k` refinement levels of one Figure 4 platform (`p`
/// workers, uniform profile, `N = n`): each level's block and block
/// count, up to the level the paper's 1% stopping rule picks.
fn refinement_instance(p: usize, n: usize) -> (Platform, Vec<(DemandTask, usize)>) {
    let platform = PlatformSpec::new(p, SpeedDistribution::paper_uniform())
        .generate(BENCH_SEED)
        .unwrap();
    let k_final = hom_blocks_refined_abstract(&platform, n, PAPER_IMBALANCE_TARGET).k;
    let levels = (1..=k_final)
        .map(|k| {
            let out = hom_blocks_abstract(&platform, n, k);
            let d = out.block_side;
            (DemandTask::new(2.0 * d, d * d), out.n_blocks)
        })
        .collect();
    (platform, levels)
}

/// Every refinement level's blocks materialised and dispatched by the
/// heap: the baseline the identical-task dispatcher reproduces bit for
/// bit.
fn refinement_heap(platform: &Platform, levels: &[(DemandTask, usize)]) -> f64 {
    levels
        .iter()
        .map(|&(task, count)| {
            simulate_demand(platform, &vec![task; count], DemandConfig::default()).imbalance()
        })
        .sum()
}

/// The same levels through the identical-task dispatcher.
fn refinement_identical(platform: &Platform, levels: &[(DemandTask, usize)]) -> f64 {
    levels
        .iter()
        .map(|&(task, count)| simulate_demand_identical(platform, task, count).imbalance())
        .sum()
}

fn partition_weights(p: usize) -> Vec<f64> {
    PlatformSpec::new(p, SpeedDistribution::paper_uniform())
        .generate(BENCH_SEED)
        .unwrap()
        .speeds()
}

/// Contended multi-load batch: `loads` α-power loads with staggered
/// releases on a `p`-worker uniform-profile platform, `chunks` chunks
/// each.
///
/// The stretch denominators (`alone`) are unit placeholders: the real
/// values come from per-load equal-finish solves (`alone_makespans`) and
/// are copied verbatim into the report without influencing a single
/// dispatch decision — the bench compares the *dispatch* kernels.
fn multiload_instance(
    p: usize,
    loads: usize,
    chunks: usize,
) -> (Platform, Vec<LoadSpec>, MultiLoadConfig, Vec<f64>) {
    let platform = PlatformSpec::new(p, SpeedDistribution::paper_uniform())
        .generate(BENCH_SEED)
        .unwrap();
    let batch: Vec<LoadSpec> = (0..loads)
        .map(|j| {
            let size = 500.0 + 37.0 * (j % 11) as f64;
            let alpha = 1.0 + 0.25 * (j % 5) as f64;
            let release = 3.0 * (j % 7) as f64;
            LoadSpec::new(size, alpha, release).unwrap()
        })
        .collect();
    let config = MultiLoadConfig {
        chunks_per_load: chunks,
        include_comm: false,
    };
    let alone = vec![1.0; batch.len()];
    (platform, batch, config, alone)
}

/// Online admission-policy arrival stream: `loads` α-power loads with
/// staggered releases on a small platform, `installments` installments
/// each under SRPT — the regime where *selection* (not the per-solve
/// Newton) dominates: every decision the reference rescans all pending
/// loads and recomputes each priority key (one `powf` per candidate),
/// while the engine pops its indexed heap. Releases repeat every 31
/// loads and sizes every 17, so key ties, broken by batch index, are
/// common.
///
/// The stretch denominators (`alone`) are unit placeholders, exactly as in
/// [`multiload_instance`]: SRPT keys never read them, so they influence no
/// dispatch decision — the bench compares the *selection* kernels.
fn policy_instance(
    p: usize,
    loads: usize,
    installments: usize,
) -> (Platform, Vec<LoadSpec>, PolicyConfig, Vec<f64>) {
    let platform = PlatformSpec::new(p, SpeedDistribution::paper_uniform())
        .generate(BENCH_SEED)
        .unwrap();
    let batch: Vec<LoadSpec> = (0..loads)
        .map(|j| {
            let size = 200.0 + 13.0 * (j % 17) as f64;
            let alpha = 1.0 + 0.25 * (j % 3) as f64;
            let release = 0.5 * (j % 31) as f64;
            LoadSpec::new(size, alpha, release).unwrap()
        })
        .collect();
    let config = PolicyConfig {
        order: AdmissionOrder::Srpt,
        installments,
    };
    let alone = vec![1.0; batch.len()];
    (platform, batch, config, alone)
}

/// Failure trace for the policy arrival stream: periodic slow-down
/// waves sweeping the workers plus one mid-run drop-out — enough cuts
/// that the interrupt/requeue path (retain the served prefix, requeue
/// the remainder, re-solve on the degraded platform), not just healthy
/// dispatch, shapes the comparison.
fn failure_instance(p: usize, waves: usize) -> FailureTrace {
    let events = (0..waves)
        .map(|i| {
            let at = 25.0 * (i + 1) as f64;
            if i == waves / 2 {
                FailureEvent::down(at, i % p)
            } else {
                FailureEvent::slow(at, i % p, 1.5 + 0.25 * (i % 3) as f64)
            }
        })
        .collect();
    FailureTrace::new(events).unwrap()
}

/// Service-engine burst: `loads` α-power loads all released at time 0 on
/// a small platform — the deepest possible backlog, where *selection*
/// dominates. The baseline is the streamed engine's rescan twin
/// (`serve_trace_reference`: a linear scan of the whole pending set, one
/// `powf` per candidate per decision); the optimized side is
/// `serve_trace` at window 1, one installment, SRPT, whose indexed heap
/// pops the next load in `O(log n)`. Both sides issue identical
/// equal-finish solves — they are property-tested bit-identical — so the
/// ratio isolates the pending-set data structure.
fn service_instance(p: usize, loads: usize) -> (Platform, Vec<LoadSpec>, ServiceConfig) {
    let platform = PlatformSpec::new(p, SpeedDistribution::paper_uniform())
        .generate(BENCH_SEED)
        .unwrap();
    let batch: Vec<LoadSpec> = (0..loads)
        .map(|j| {
            let size = 200.0 + 13.0 * (j % 17) as f64;
            let alpha = 1.0 + 0.25 * (j % 3) as f64;
            LoadSpec::immediate(size, alpha).unwrap()
        })
        .collect();
    let config = ServiceConfig {
        order: AdmissionOrder::Srpt,
        batch: 1,
        installments: InstallmentPolicy::Fixed(1),
        track_stretch: false,
    };
    (platform, batch, config)
}

/// FIFO-style solver workload: `installments` equal-finish solves of
/// shrinking loads on one `p`-worker uniform-profile platform — exactly
/// the sequence `dlt-multiload`'s FIFO scheduler and the stretch
/// denominators of `alone_makespans` issue.
fn solver_instance(p: usize, installments: usize) -> (Platform, Vec<f64>) {
    let platform = PlatformSpec::new(p, SpeedDistribution::paper_uniform())
        .generate(BENCH_SEED)
        .unwrap();
    let sizes = (0..installments)
        .map(|j| 4096.0 * 0.8f64.powi(j as i32))
        .collect();
    (platform, sizes)
}

/// Runs the FIFO-style sequence through the lanes kernel with one warm
/// handle (the configuration of the installment engine).
fn solver_kernel_warm<M: CostModel>(platform: &Platform, sizes: &[f64], model: M) -> f64 {
    let config = nonlinear::SolverConfig::default();
    let mut solver = BatchSolver::default();
    let mut acc = 0.0;
    for &n in sizes {
        acc += solver.solve(platform, n, model, &config).unwrap().makespan;
    }
    acc
}

/// The same sequence through the nested-bisection oracle (no warm start —
/// the seed implementation had none).
fn solver_reference<M: CostModel>(platform: &Platform, sizes: &[f64], model: M) -> f64 {
    let mut acc = 0.0;
    for &n in sizes {
        acc += nonlinear::equal_finish_parallel_reference(platform, n, model)
            .unwrap()
            .makespan;
    }
    acc
}

/// The shared-α sweep workload of the `solver_sweep` group: `width`
/// α-power laws solved on one platform for one load — exactly the
/// per-platform inner loop of the sec2 / sec-amdahl sweeps.
fn sweep_laws(width: usize) -> Vec<CostLaw> {
    (0..width)
        .map(|j| CostLaw::alpha_power(1.25 + 0.25 * j as f64))
        .collect()
}

/// The sweep through the bisection oracle, one solve per law.
fn sweep_reference(platform: &Platform, n: f64, laws: &[CostLaw]) -> f64 {
    laws.iter()
        .map(|&law| {
            nonlinear::equal_finish_parallel_reference(platform, n, law)
                .unwrap()
                .makespan
        })
        .sum()
}

/// The same sweep through the lanes kernel: one platform scan,
/// shared-exponent `exp/ln` lane passes, share seeds chained law to law.
fn sweep_kernel(platform: &Platform, n: f64, laws: &[CostLaw]) -> f64 {
    let config = nonlinear::SolverConfig::default();
    let mut solver = BatchSolver::default();
    solver
        .solve_sweep(platform, n, laws, &config)
        .unwrap()
        .iter()
        .map(|a| a.makespan)
        .sum()
}

fn bench_costmodel(c: &mut Criterion) {
    if smoke_mode() {
        return;
    }
    let mut group = c.benchmark_group("costmodel");
    let law = CostLaw::alpha_power(1.5);
    for &(p, installments) in &[(8usize, 8usize), (512, 8)] {
        let (platform, sizes) = solver_instance(p, installments);
        let id = format!("p{p}_seq{installments}");
        group.bench_with_input(BenchmarkId::new("kernel_costlaw", &id), &p, |b, _| {
            b.iter(|| solver_kernel_warm(black_box(&platform), black_box(&sizes), black_box(law)))
        });
        group.bench_with_input(BenchmarkId::new("bisection_costlaw", &id), &p, |b, _| {
            b.iter(|| solver_reference(black_box(&platform), black_box(&sizes), black_box(law)))
        });
    }
    group.finish();
}

fn bench_solver(c: &mut Criterion) {
    if smoke_mode() {
        return;
    }
    let mut group = c.benchmark_group("solver");
    for &(p, installments) in &[(8usize, 8usize), (512, 8)] {
        let (platform, sizes) = solver_instance(p, installments);
        let id = format!("p{p}_seq{installments}");
        group.bench_with_input(BenchmarkId::new("kernel_warm", &id), &p, |b, _| {
            b.iter(|| solver_kernel_warm(black_box(&platform), black_box(&sizes), black_box(1.5)))
        });
        group.bench_with_input(BenchmarkId::new("bisection_reference", &id), &p, |b, _| {
            b.iter(|| solver_reference(black_box(&platform), black_box(&sizes), black_box(1.5)))
        });
    }
    group.finish();
}

fn bench_solver_sweep(c: &mut Criterion) {
    if smoke_mode() {
        return;
    }
    let mut group = c.benchmark_group("solver_sweep");
    let laws = sweep_laws(8);
    for &p in &[8usize, 512] {
        let (platform, _) = solver_instance(p, 8);
        let id = format!("p{p}_sweep8");
        group.bench_with_input(BenchmarkId::new("kernel_sweep", &id), &p, |b, _| {
            b.iter(|| sweep_kernel(black_box(&platform), black_box(4096.0), black_box(&laws)))
        });
        group.bench_with_input(BenchmarkId::new("bisection_sweep", &id), &p, |b, _| {
            b.iter(|| sweep_reference(black_box(&platform), black_box(4096.0), black_box(&laws)))
        });
    }
    group.finish();
}

fn bench_demand(c: &mut Criterion) {
    if smoke_mode() {
        return;
    }
    let mut group = c.benchmark_group("simulate_demand");
    for &(p, t) in &[(64usize, 2_000usize), (512, 10_000)] {
        let (platform, tasks) = demand_instance(p, t);
        let id = format!("p{p}_t{t}");
        group.bench_with_input(BenchmarkId::new("heap", &id), &p, |b, _| {
            b.iter(|| {
                simulate_demand(
                    black_box(&platform),
                    black_box(&tasks),
                    DemandConfig::default(),
                )
            })
        });
        group.bench_with_input(BenchmarkId::new("linear_reference", &id), &p, |b, _| {
            b.iter(|| {
                simulate_demand_reference(
                    black_box(&platform),
                    black_box(&tasks),
                    DemandConfig::default(),
                )
            })
        });
    }
    group.finish();
}

fn bench_demand_identical(c: &mut Criterion) {
    if smoke_mode() {
        return;
    }
    let mut group = c.benchmark_group("demand_identical");
    let (platform, levels) = refinement_instance(100, 10_000);
    let id = format!("p100_n10000_k{}", levels.len());
    group.bench_with_input(BenchmarkId::new("chains", &id), &levels, |b, levels| {
        b.iter(|| refinement_identical(black_box(&platform), black_box(levels)))
    });
    group.bench_with_input(
        BenchmarkId::new("heap_materialised", &id),
        &levels,
        |b, levels| b.iter(|| refinement_heap(black_box(&platform), black_box(levels))),
    );
    group.finish();
}

fn bench_peri_sum(c: &mut Criterion) {
    if smoke_mode() {
        return;
    }
    let mut group = c.benchmark_group("peri_sum_dp");
    for &p in &[64usize, 512] {
        let w = partition_weights(p);
        group.bench_with_input(BenchmarkId::new("pruned_workspace", p), &p, |b, _| {
            let mut ws = PeriSumDp::new();
            b.iter(|| ws.partition(black_box(&w)).unwrap())
        });
        group.bench_with_input(BenchmarkId::new("full_reference", p), &p, |b, _| {
            b.iter(|| peri_sum_partition_reference(black_box(&w)).unwrap())
        });
    }
    group.finish();
}

fn bench_multiload(c: &mut Criterion) {
    if smoke_mode() {
        return;
    }
    let mut group = c.benchmark_group("multiload");
    for &(p, loads, chunks) in &[(64usize, 16usize, 64usize), (512, 64, 128)] {
        let (platform, batch, config, alone) = multiload_instance(p, loads, chunks);
        let id = format!("p{p}_l{loads}_c{chunks}");
        group.bench_with_input(BenchmarkId::new("rr_heap", &id), &p, |b, _| {
            b.iter(|| {
                round_robin_schedule(black_box(&platform), black_box(&batch), &config, &alone)
                    .unwrap()
            })
        });
        group.bench_with_input(BenchmarkId::new("rr_linear_reference", &id), &p, |b, _| {
            b.iter(|| {
                round_robin_schedule_reference(
                    black_box(&platform),
                    black_box(&batch),
                    &config,
                    &alone,
                )
                .unwrap()
            })
        });
    }
    group.finish();
}

fn bench_policy(c: &mut Criterion) {
    if smoke_mode() {
        return;
    }
    let mut group = c.benchmark_group("multiload_policy");
    for &(p, loads, installments) in &[(8usize, 128usize, 2usize), (8, 768, 2)] {
        let (platform, batch, config, alone) = policy_instance(p, loads, installments);
        let opts = ScheduleOptions {
            alone: Some(&alone),
            ..ScheduleOptions::default()
        };
        let id = format!("p{p}_l{loads}_k{installments}");
        group.bench_with_input(BenchmarkId::new("srpt_indexed_heap", &id), &p, |b, _| {
            b.iter(|| schedule(black_box(&platform), black_box(&batch), &config, &opts).unwrap())
        });
        group.bench_with_input(BenchmarkId::new("srpt_linear_rescan", &id), &p, |b, _| {
            b.iter(|| {
                schedule_reference(black_box(&platform), black_box(&batch), &config, &opts).unwrap()
            })
        });
    }
    group.finish();
}

fn bench_failure(c: &mut Criterion) {
    if smoke_mode() {
        return;
    }
    let mut group = c.benchmark_group("multiload_failure");
    for &(p, loads, installments) in &[(8usize, 128usize, 2usize), (8, 768, 2)] {
        let (platform, batch, config, alone) = policy_instance(p, loads, installments);
        let failures = failure_instance(p, 12);
        let opts = ScheduleOptions {
            failures: Some(&failures),
            alone: Some(&alone),
            ..ScheduleOptions::default()
        };
        let id = format!("p{p}_l{loads}_k{installments}");
        group.bench_with_input(BenchmarkId::new("indexed_heap_failure", &id), &p, |b, _| {
            b.iter(|| schedule(black_box(&platform), black_box(&batch), &config, &opts).unwrap())
        });
        group.bench_with_input(
            BenchmarkId::new("linear_rescan_failure", &id),
            &p,
            |b, _| {
                b.iter(|| {
                    schedule_reference(black_box(&platform), black_box(&batch), &config, &opts)
                        .unwrap()
                })
            },
        );
    }
    group.finish();
}

fn bench_service(c: &mut Criterion) {
    if smoke_mode() {
        return;
    }
    let mut group = c.benchmark_group("multiload_service");
    for &(p, loads) in &[(8usize, 1_024usize), (8, 4_096)] {
        let (platform, batch, config) = service_instance(p, loads);
        let id = format!("p{p}_l{loads}");
        group.bench_with_input(BenchmarkId::new("indexed_heap_service", &id), &p, |b, _| {
            b.iter(|| {
                serve_trace(
                    black_box(&platform),
                    batch.iter().copied(),
                    &config,
                    &mut DiscardCompletions,
                )
                .unwrap()
            })
        });
        group.bench_with_input(
            BenchmarkId::new("linear_rescan_service", &id),
            &p,
            |b, _| {
                b.iter(|| {
                    serve_trace_reference(
                        black_box(&platform),
                        black_box(&batch),
                        &config,
                        &mut DiscardCompletions,
                    )
                    .unwrap()
                })
            },
        );
    }
    group.finish();
}

/// Minimum wall-clock of `reps` calls, in nanoseconds (min is the most
/// reproducible point estimate for a CPU-bound kernel).
fn time_min_ns<O>(reps: usize, mut f: impl FnMut() -> O) -> f64 {
    black_box(f());
    let mut best = f64::INFINITY;
    for _ in 0..reps {
        let start = Instant::now();
        black_box(f());
        best = best.min(start.elapsed().as_nanos() as f64);
    }
    best
}

fn emit_json(c: &mut Criterion) {
    // Touch the harness handle so the signature matches criterion_group!.
    let _ = c;

    // Smoke mode (CI regression guard) divides the repetition counts:
    // min-of-reps stays a stable point estimate, and only the *ratio*
    // baseline/optimized is compared — against a 2× tolerance.
    let reps = |full: usize| {
        if smoke_mode() {
            (full / 5).max(3)
        } else {
            full
        }
    };

    let (platform, tasks) = demand_instance(512, 10_000);
    let config = DemandConfig::default();
    let sim_base = time_min_ns(reps(10), || {
        simulate_demand_reference(&platform, &tasks, config)
    });
    let sim_opt = time_min_ns(reps(50), || simulate_demand(&platform, &tasks, config));

    let (ref_platform, ref_levels) = refinement_instance(100, 10_000);
    let ref_blocks: usize = ref_levels.iter().map(|&(_, count)| count).sum();
    let ref_base = time_min_ns(reps(10), || refinement_heap(&ref_platform, &ref_levels));
    let ref_opt = time_min_ns(reps(50), || {
        refinement_identical(&ref_platform, &ref_levels)
    });

    let w = partition_weights(512);
    let dp_base = time_min_ns(reps(50), || peri_sum_partition_reference(&w).unwrap());
    let mut ws = PeriSumDp::new();
    let dp_opt = time_min_ns(reps(200), || ws.partition(&w).unwrap());

    // The equal-finish kernel against the bisection oracle, at the
    // service's p = 8 and the sweeps' p = 512: a warm installment
    // sequence with a bare α, the same sequence through the `CostLaw`
    // enum (its kernel time next to the bare-α one is the dispatch
    // cost), and the shared-α sweep.
    let law = CostLaw::alpha_power(1.5);
    let bt_laws = sweep_laws(8);
    let solver_records = [8usize, 512].map(|p| {
        let (platform, sizes) = solver_instance(p, 8);
        // One p = 512 oracle pass is most of a second.
        let oracle_reps = reps(if p == 512 { 10 } else { 50 });
        let pair = |base: &dyn Fn() -> f64, opt: &dyn Fn() -> f64| {
            (time_min_ns(oracle_reps, base), time_min_ns(reps(200), opt))
        };
        [
            pair(
                &|| solver_reference(&platform, &sizes, black_box(1.5)),
                &|| solver_kernel_warm(&platform, &sizes, black_box(1.5)),
            ),
            pair(
                &|| solver_reference(&platform, &sizes, black_box(law)),
                &|| solver_kernel_warm(&platform, &sizes, black_box(law)),
            ),
            pair(
                &|| sweep_reference(&platform, black_box(4096.0), &bt_laws),
                &|| sweep_kernel(&platform, black_box(4096.0), &bt_laws),
            ),
        ]
    });

    let (ml_platform, ml_batch, ml_config, ml_alone) = multiload_instance(512, 64, 128);
    let ml_base = time_min_ns(reps(10), || {
        round_robin_schedule_reference(&ml_platform, &ml_batch, &ml_config, &ml_alone).unwrap()
    });
    let ml_opt = time_min_ns(reps(50), || {
        round_robin_schedule(&ml_platform, &ml_batch, &ml_config, &ml_alone).unwrap()
    });

    // One instance for the healthy and the failure pair: the same 768
    // loads, placeholder denominators, with and without the trace.
    let (po_platform, po_batch, po_config, po_alone) = policy_instance(8, 768, 2);
    let fa_trace = failure_instance(8, 12);
    let time_pair = |failures: Option<&FailureTrace>| {
        let opts = ScheduleOptions {
            failures,
            alone: Some(&po_alone),
            ..ScheduleOptions::default()
        };
        let base = time_min_ns(reps(10), || {
            schedule_reference(&po_platform, &po_batch, &po_config, &opts).unwrap()
        });
        let opt = time_min_ns(reps(50), || {
            schedule(&po_platform, &po_batch, &po_config, &opts).unwrap()
        });
        (base, opt)
    };
    let (po_base, po_opt) = time_pair(None);
    let (fa_base, fa_opt) = time_pair(Some(&fa_trace));

    let (se_platform, se_batch, se_config) = service_instance(8, 4_096);
    let se_base = time_min_ns(reps(10), || {
        serve_trace_reference(&se_platform, &se_batch, &se_config, &mut DiscardCompletions).unwrap()
    });
    let se_opt = time_min_ns(reps(10), || {
        serve_trace(
            &se_platform,
            se_batch.iter().copied(),
            &se_config,
            &mut DiscardCompletions,
        )
        .unwrap()
    });
    // The service's headline number: admission decisions committed per
    // wall-clock second on the burst (one decision per load at k = 1).
    let se_decisions_per_sec = se_batch.len() as f64 / (se_opt / 1e9);

    let record = |name: &str, config: &str, baseline: &str, optimized: &str, b: f64, o: f64| {
        format!(
            "  {{\n    \"bench\": \"{name}\",\n    \"config\": \"{config}\",\n    \
             \"baseline\": \"{baseline}\",\n    \"baseline_ns\": {b:.0},\n    \
             \"optimized\": \"{optimized}\",\n    \"optimized_ns\": {o:.0},\n    \
             \"speedup\": {:.2}\n  }}",
            b / o
        )
    };
    let mut records = vec![
        record(
            "simulate_demand",
            "p=512, tasks=10000, uniform profile",
            "linear per-task worker scan (simulate_demand_reference)",
            "binary-heap free-time scheduler (simulate_demand)",
            sim_base,
            sim_opt,
        ),
        record(
            "demand_identical",
            &format!(
                "p=100, N=10000, uniform profile, Commhom/k levels k=1..{}, {ref_blocks} blocks",
                ref_levels.len()
            ),
            "blocks materialised, heap per level (simulate_demand)",
            "per-worker free-time chains, O(p) memory (simulate_demand_identical)",
            ref_base,
            ref_opt,
        ),
        record(
            "peri_sum_dp",
            "p=512, uniform profile",
            "full O(p^2) suffix DP (peri_sum_partition_reference)",
            "dominance-pruned DP with reused workspace (PeriSumDp)",
            dp_base,
            dp_opt,
        ),
        record(
            "multiload_round_robin",
            "p=512, loads=64, chunks=128, uniform profile",
            "linear per-chunk worker scan (round_robin_schedule_reference)",
            "binary-heap chunk dispatcher (round_robin_schedule)",
            ml_base,
            ml_opt,
        ),
        record(
            "multiload_policy",
            "p=8, loads=768, installments=2, SRPT online, uniform profile",
            "linear rescan + per-candidate powf (schedule_reference)",
            "indexed pending set, cached keys (schedule)",
            po_base,
            po_opt,
        ),
        record(
            "multiload_failure",
            "p=8, loads=768, installments=2, SRPT online, 12 failure waves, uniform profile",
            "linear rescan under failures (schedule_reference)",
            "indexed pending set under failures (schedule)",
            fa_base,
            fa_opt,
        ),
        record(
            "multiload_service",
            &format!(
                "p=8, loads=4096 burst, SRPT batch=1 k=1, uniform profile, \
                 {se_decisions_per_sec:.0} decisions/sec"
            ),
            "linear rescan + per-candidate powf (serve_trace_reference)",
            "indexed heap pending set (serve_trace)",
            se_base,
            se_opt,
        ),
    ];
    for (p, timed) in [8usize, 512].into_iter().zip(&solver_records) {
        let suffix = if p == 512 { "" } else { "_p8" };
        records.push(record(
            &format!("solver_equal_finish{suffix}"),
            &format!("p={p}, 8 shrinking installments, alpha=1.5, uniform profile"),
            "nested bisection (equal_finish_parallel_reference)",
            "lanes kernel, one warm handle (BatchSolver::solve)",
            timed[0].0,
            timed[0].1,
        ));
        records.push(record(
            &format!("costmodel_dispatch{suffix}"),
            &format!("p={p}, 8 shrinking installments, CostLaw::AlphaPower(1.5), uniform profile"),
            "nested bisection over CostLaw (equal_finish_parallel_reference)",
            "lanes kernel over CostLaw, one warm handle (BatchSolver::solve)",
            timed[1].0,
            timed[1].1,
        ));
        records.push(record(
            &format!("solver_batched{suffix}"),
            &format!("p={p}, shared-alpha sweep width 8, n=4096, uniform profile"),
            "nested bisection per law (equal_finish_parallel_reference)",
            "lanes kernel sweep, share seeds chained (BatchSolver::solve_sweep)",
            timed[2].0,
            timed[2].1,
        ));
    }
    let json = format!("[\n{}\n]\n", records.join(",\n"));
    // Bench binaries run with CWD = crates/bench; default to the
    // workspace root so the trajectory file lands next to CHANGES.md.
    let path = std::env::var_os("DLT_BENCH_JSON").unwrap_or_else(|| {
        concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_hotpaths.json").into()
    });
    match std::fs::write(&path, &json) {
        Ok(()) => eprintln!("wrote {}", std::path::Path::new(&path).display()),
        Err(e) => eprintln!(
            "warning: could not write {}: {e}",
            std::path::Path::new(&path).display()
        ),
    }
    let [p8, p512] = solver_records.map(|t| t.map(|(b, o)| b / o));
    eprintln!(
        "hotpaths: simulate_demand {:.1}x, demand_identical {:.1}x, peri_sum_dp {:.1}x, \
         multiload_round_robin {:.1}x, multiload_policy {:.1}x, multiload_failure {:.1}x, \
         multiload_service {:.1}x ({:.0} decisions/sec), solver_equal_finish {:.1}x / {:.1}x, \
         costmodel_dispatch {:.1}x / {:.1}x, solver_batched {:.1}x / {:.1}x (p = 8 / 512)",
        sim_base / sim_opt,
        ref_base / ref_opt,
        dp_base / dp_opt,
        ml_base / ml_opt,
        po_base / po_opt,
        fa_base / fa_opt,
        se_base / se_opt,
        se_decisions_per_sec,
        p8[0],
        p512[0],
        p8[1],
        p512[1],
        p8[2],
        p512[2]
    );
}

criterion_group!(
    benches,
    bench_demand,
    bench_demand_identical,
    bench_peri_sum,
    bench_multiload,
    bench_policy,
    bench_failure,
    bench_service,
    bench_solver,
    bench_costmodel,
    bench_solver_sweep,
    emit_json
);
criterion_main!(benches);
