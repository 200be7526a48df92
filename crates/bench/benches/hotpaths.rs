//! Hot-path kernels vs their executable specifications: times each
//! kernel/reference pair once and writes the trajectory file
//! `BENCH_hotpaths.json`.
//!
//! ```text
//! cargo bench -p dlt-bench --bench hotpaths
//! ```
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
//!   (`serve_trace_reference`), on a 4096-load burst, one admission
//!   decision per load: 4096 over the `optimized_ns` median is the
//!   service's decisions per second;
//! * `solver_equal_finish` — the equal-finish lanes kernel through one
//!   warm `BatchSolver` handle vs the nested-bisection oracle
//!   (`equal_finish_parallel_reference`), on a FIFO-style sequence of
//!   shrinking installments at p = 8 (the service's platform) and
//!   p = 512 (the `dlt-multiload` and sweep hot path);
//! * `solver_batched` — the shared-α sweep of the sec2 / sec-amdahl
//!   runners (`BatchSolver::solve_sweep`: one platform scan, share seeds
//!   chained law to law) vs one oracle solve per law, at the same two
//!   platform sizes.
//!
//! Each side of a pair is sampled: one warm-up call, then `n` timed
//! calls. A record keeps each side's median, lower and upper quartile
//! (nanoseconds) and `n`, and its `speedup` is the ratio of the two
//! medians. CI uploads the file as an artifact so the perf trajectory of
//! future PRs stays diffable; the committed copy holds the numbers quoted
//! in CHANGES.md, and the `bench-guard` binary fails CI when a fresh
//! measurement regresses a committed speedup by more than 2×.
//!
//! `DLT_BENCH_JSON` overrides the output path. `DLT_BENCH_SMOKE=1` divides
//! the baseline sides' sample counts by five (at least 5) — the CI
//! regression-guard mode, which keeps the bench job fast while still
//! producing comparable speedup ratios. The kernel sides keep their full
//! counts: they cost little, and a median of a few dozen sub-millisecond
//! samples moves with a busy host.

// Benchmark code: timing reads the wall clock by design.
#![allow(clippy::disallowed_methods)]

use dlt_core::batch::BatchSolver;
use dlt_core::costmodel::CostLaw;
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

/// Deterministic seed of every generated platform.
const BENCH_SEED: u64 = 42;

/// True when the run is the CI smoke/guard mode: fewer baseline samples.
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
fn solver_kernel_warm(platform: &Platform, sizes: &[f64], alpha: f64) -> f64 {
    let config = nonlinear::SolverConfig::default();
    let mut solver = BatchSolver::default();
    let mut acc = 0.0;
    for &n in sizes {
        acc += solver.solve(platform, n, alpha, &config).unwrap().makespan;
    }
    acc
}

/// The same sequence through the nested-bisection oracle (no warm start —
/// the seed implementation had none).
fn solver_reference(platform: &Platform, sizes: &[f64], alpha: f64) -> f64 {
    let mut acc = 0.0;
    for &n in sizes {
        acc += nonlinear::equal_finish_parallel_reference(platform, n, alpha)
            .unwrap()
            .makespan;
    }
    acc
}

/// The shared-α sweep workload of the `solver_batched` records: `width`
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

/// Wall-clock samples of one side of a pair, in nanoseconds.
struct Samples {
    median: f64,
    q1: f64,
    q3: f64,
    n: usize,
}

/// One warm-up call of `f`, then `n` timed calls.
fn sample<O>(n: usize, mut f: impl FnMut() -> O) -> Samples {
    black_box(f());
    let mut ns: Vec<f64> = (0..n)
        .map(|_| {
            let start = Instant::now();
            black_box(f());
            start.elapsed().as_nanos() as f64
        })
        .collect();
    ns.sort_by(f64::total_cmp);
    Samples {
        median: quantile(&ns, 0.5),
        q1: quantile(&ns, 0.25),
        q3: quantile(&ns, 0.75),
        n,
    }
}

/// The `q`-quantile of non-empty sorted samples, interpolated between
/// ranks.
fn quantile(sorted: &[f64], q: f64) -> f64 {
    let rank = q * (sorted.len() - 1) as f64;
    let (lo, hi) = (rank.floor() as usize, rank.ceil() as usize);
    sorted[lo] + (sorted[hi] - sorted[lo]) * (rank - lo as f64)
}

/// One kernel/reference pair of the trajectory file.
struct Record {
    bench: String,
    config: String,
    baseline: &'static str,
    optimized: &'static str,
    base: Samples,
    opt: Samples,
}

impl Record {
    fn speedup(&self) -> f64 {
        self.base.median / self.opt.median
    }

    fn to_json(&self) -> String {
        let side = |s: &Samples| {
            format!(
                "{{ \"median\": {:.0}, \"q1\": {:.0}, \"q3\": {:.0}, \"n\": {} }}",
                s.median, s.q1, s.q3, s.n
            )
        };
        format!(
            "  {{\n    \"bench\": \"{}\",\n    \"config\": \"{}\",\n    \
             \"baseline\": \"{}\",\n    \"baseline_ns\": {},\n    \
             \"optimized\": \"{}\",\n    \"optimized_ns\": {},\n    \
             \"speedup\": {:.2}\n  }}",
            self.bench,
            self.config,
            self.baseline,
            side(&self.base),
            self.optimized,
            side(&self.opt),
            self.speedup()
        )
    }
}

fn main() {
    // Smoke mode (CI regression guard) divides the baseline sample
    // counts; only the *ratio* of the medians is compared, against a 2×
    // floor.
    let base_reps = |full: usize| {
        if smoke_mode() {
            (full / 5).max(5)
        } else {
            full
        }
    };
    let mut records = Vec::new();

    let (platform, tasks) = demand_instance(512, 10_000);
    let config = DemandConfig::default();
    records.push(Record {
        bench: "simulate_demand".into(),
        config: "p=512, tasks=10000, uniform profile".into(),
        baseline: "linear per-task worker scan (simulate_demand_reference)",
        optimized: "binary-heap free-time scheduler (simulate_demand)",
        base: sample(base_reps(10), || {
            simulate_demand_reference(&platform, &tasks, config)
        }),
        opt: sample(50, || simulate_demand(&platform, &tasks, config)),
    });

    let (platform, levels) = refinement_instance(100, 10_000);
    let blocks: usize = levels.iter().map(|&(_, count)| count).sum();
    records.push(Record {
        bench: "demand_identical".into(),
        config: format!(
            "p=100, N=10000, uniform profile, Commhom/k levels k=1..{}, {blocks} blocks",
            levels.len()
        ),
        baseline: "blocks materialised, heap per level (simulate_demand)",
        optimized: "per-worker free-time chains, O(p) memory (simulate_demand_identical)",
        base: sample(base_reps(10), || refinement_heap(&platform, &levels)),
        opt: sample(50, || refinement_identical(&platform, &levels)),
    });

    let w = partition_weights(512);
    let mut ws = PeriSumDp::new();
    records.push(Record {
        bench: "peri_sum_dp".into(),
        config: "p=512, uniform profile".into(),
        baseline: "full O(p^2) suffix DP (peri_sum_partition_reference)",
        optimized: "dominance-pruned DP with reused workspace (PeriSumDp)",
        base: sample(base_reps(50), || peri_sum_partition_reference(&w).unwrap()),
        opt: sample(200, || ws.partition(&w).unwrap()),
    });

    let (platform, batch, config, alone) = multiload_instance(512, 64, 128);
    records.push(Record {
        bench: "multiload_round_robin".into(),
        config: "p=512, loads=64, chunks=128, uniform profile".into(),
        baseline: "linear per-chunk worker scan (round_robin_schedule_reference)",
        optimized: "binary-heap chunk dispatcher (round_robin_schedule)",
        base: sample(base_reps(10), || {
            round_robin_schedule_reference(&platform, &batch, &config, &alone).unwrap()
        }),
        opt: sample(50, || {
            round_robin_schedule(&platform, &batch, &config, &alone).unwrap()
        }),
    });

    // One instance for the healthy and the failure pair: the same 768
    // loads, placeholder denominators, with and without the trace.
    let (platform, batch, config, alone) = policy_instance(8, 768, 2);
    let trace = failure_instance(8, 12);
    let time_schedule = |failures: Option<&FailureTrace>| {
        let opts = ScheduleOptions {
            failures,
            alone: Some(&alone),
        };
        (
            sample(base_reps(10), || {
                schedule_reference(&platform, &batch, &config, &opts).unwrap()
            }),
            sample(50, || schedule(&platform, &batch, &config, &opts).unwrap()),
        )
    };
    let (base, opt) = time_schedule(None);
    records.push(Record {
        bench: "multiload_policy".into(),
        config: "p=8, loads=768, installments=2, SRPT online, uniform profile".into(),
        baseline: "linear rescan + per-candidate powf (schedule_reference)",
        optimized: "indexed pending set, cached keys (schedule)",
        base,
        opt,
    });
    let (base, opt) = time_schedule(Some(&trace));
    records.push(Record {
        bench: "multiload_failure".into(),
        config: "p=8, loads=768, installments=2, SRPT online, 12 failure waves, uniform profile"
            .into(),
        baseline: "linear rescan under failures (schedule_reference)",
        optimized: "indexed pending set under failures (schedule)",
        base,
        opt,
    });

    let (platform, batch, config) = service_instance(8, 4_096);
    let base = sample(base_reps(10), || {
        serve_trace_reference(&platform, &batch, &config, &mut DiscardCompletions).unwrap()
    });
    let opt = sample(10, || {
        serve_trace(
            &platform,
            batch.iter().copied(),
            &config,
            &mut DiscardCompletions,
        )
        .unwrap()
    });
    records.push(Record {
        bench: "multiload_service".into(),
        config: "p=8, loads=4096 burst, SRPT batch=1 k=1, uniform profile".into(),
        baseline: "linear rescan + per-candidate powf (serve_trace_reference)",
        optimized: "indexed heap pending set (serve_trace)",
        base,
        opt,
    });

    // The equal-finish kernel against the bisection oracle, at the
    // service's p = 8 and the sweeps' p = 512: a warm installment
    // sequence, and the shared-α sweep.
    let laws = sweep_laws(8);
    for p in [8usize, 512] {
        let (platform, sizes) = solver_instance(p, 8);
        let suffix = if p == 512 { "" } else { "_p8" };
        // One p = 512 oracle pass is most of a second.
        let oracle_reps = base_reps(if p == 512 { 10 } else { 50 });
        records.push(Record {
            bench: format!("solver_equal_finish{suffix}"),
            config: format!("p={p}, 8 shrinking installments, alpha=1.5, uniform profile"),
            baseline: "nested bisection (equal_finish_parallel_reference)",
            optimized: "lanes kernel, one warm handle (BatchSolver::solve)",
            base: sample(oracle_reps, || {
                solver_reference(&platform, &sizes, black_box(1.5))
            }),
            opt: sample(200, || {
                solver_kernel_warm(&platform, &sizes, black_box(1.5))
            }),
        });
        records.push(Record {
            bench: format!("solver_batched{suffix}"),
            config: format!("p={p}, shared-alpha sweep width 8, n=4096, uniform profile"),
            baseline: "nested bisection per law (equal_finish_parallel_reference)",
            optimized: "lanes kernel sweep, share seeds chained (BatchSolver::solve_sweep)",
            base: sample(oracle_reps, || {
                sweep_reference(&platform, black_box(4096.0), &laws)
            }),
            opt: sample(200, || sweep_kernel(&platform, black_box(4096.0), &laws)),
        });
    }

    let json = format!(
        "[\n{}\n]\n",
        records
            .iter()
            .map(Record::to_json)
            .collect::<Vec<_>>()
            .join(",\n")
    );
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
    for r in &records {
        eprintln!("hotpaths: {:<24} {:>8.1}x", r.bench, r.speedup());
    }
}
