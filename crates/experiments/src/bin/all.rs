//! Runs every experiment with paper-scale parameters and writes all CSVs
//! under `results/` — the one-shot reproduction driver.
//!
//! `cargo run --release -p dlt-experiments --bin all --
//! [--quick|--smoke] [--threads W]`
//!
//! `--quick` trims trial counts (useful in CI); without it the Figure 4
//! sweep runs the paper's full 100 trials per point. `--smoke` shrinks
//! every dimension (trials, N, p sweeps) to the minimum that still
//! exercises each runner end to end — it is what the harness smoke test
//! drives, and finishes in seconds even in debug builds. `--threads W`
//! caps the trial-loop worker pool (default `0` = all cores); every CSV
//! is byte-identical regardless of the thread count.

use dlt_experiments::affinity::run_affinity;
use dlt_experiments::competitive::{
    competitive_table, run_competitive, DEFAULT_COMPETITIVE_LOADS, DEFAULT_COMPETITIVE_P,
    DEFAULT_COMPETITIVE_TRIALS,
};
use dlt_experiments::fig4::{fig4_table, run_fig4, PAPER_P_VALUES, PAPER_TRIALS};
use dlt_experiments::footprint::run_fig2;
use dlt_experiments::models::ModelFamily;
use dlt_experiments::multiload::{
    multiload_policy_table, multiload_table, run_multiload, run_multiload_policy, DEFAULT_ALPHAS,
    DEFAULT_INSTALLMENTS,
};
use dlt_experiments::partition_quality::run_partition_quality;
use dlt_experiments::rho::run_rho_table;
use dlt_experiments::runner::{flags, parse_flags, thread_count, write_and_print};
use dlt_experiments::sec2::{run_sec2, PAPER_ALPHAS};
use dlt_experiments::sec3::{run_hetero_sort, run_sample_sort};
use dlt_experiments::sec_amdahl::{run_sec_amdahl, PAPER_SERIALS};
use dlt_experiments::service::{
    default_cells, run_service, service_table, smoke_cells, DEFAULT_SERVICE_LOADS,
    DEFAULT_SERVICE_P, DEFAULT_UTILIZATION,
};
use dlt_experiments::traces::{fig1_sample_sort_trace, fig3_matmul_trace};
use dlt_platform::SpeedDistribution;

fn main() {
    let flags = parse_flags(std::env::args().skip(1), flags::ALL);
    let smoke = flags.contains_key("smoke");
    let quick = smoke || flags.contains_key("quick");
    let threads = thread_count(&flags);
    let seed = 42u64;
    let (fig4_trials, sort_trials, part_trials) = if smoke {
        (1, 1, 1)
    } else if quick {
        (10, 2, 10)
    } else {
        (PAPER_TRIALS, 5, 50)
    };
    let fig4_ps: &[usize] = if smoke { &[10, 20] } else { &PAPER_P_VALUES };
    let fig4_n = if smoke { 1_000 } else { 10_000 };
    let part_ps: &[usize] = if smoke {
        &[2, 8, 32]
    } else {
        &[2, 4, 8, 16, 32, 64, 128, 256, 512]
    };

    println!("== Section 2: no free lunch ==");
    let t = run_sec2(
        &[2, 4, 8, 16, 32, 64, 128, 256, 512, 1024],
        &PAPER_ALPHAS,
        4096.0,
        seed,
        ModelFamily::AlphaPower,
    );
    write_and_print(&t, "sec2_no_free_lunch");

    println!("== Extension: Amdahl-law relief of the no-free-lunch bound ==");
    {
        // Mirrors the `sec-amdahl` binary defaults exactly so the
        // committed full-scale CSV stays regenerable from either entry
        // point; smoke trims the P sweep.
        let amdahl_ps: &[usize] = if smoke {
            &[2, 8, 32]
        } else {
            &[2, 4, 8, 16, 32, 64, 128, 256, 512, 1024]
        };
        let t = run_sec_amdahl(
            amdahl_ps,
            &PAPER_SERIALS,
            &PAPER_ALPHAS,
            4096.0,
            seed,
            threads,
        );
        write_and_print(&t, "sec_amdahl");
    }

    println!("== Section 3.1: sample sort ==");
    let ns: &[usize] = if smoke {
        &[1 << 12]
    } else if quick {
        &[1 << 14, 1 << 16]
    } else {
        &[1 << 14, 1 << 16, 1 << 18, 1 << 20]
    };
    let t = run_sample_sort(ns, &[4, 16, 64], sort_trials, seed);
    write_and_print(&t, "sec3_sample_sort");
    let robustness_n = if smoke { 1 << 12 } else { 1 << 18 };
    let t = dlt_experiments::sec3::run_distribution_robustness(robustness_n, 16, sort_trials, seed);
    write_and_print(&t, "sec3_distribution_robustness");

    println!("== Section 3.2: heterogeneous sample sort ==");
    for profile in [
        SpeedDistribution::paper_uniform(),
        SpeedDistribution::paper_lognormal(),
    ] {
        let hetero_n = if smoke { 1 << 12 } else { 1 << 18 };
        let t = run_hetero_sort(hetero_n, &[4, 8, 16, 32], &profile, sort_trials, seed);
        write_and_print(&t, &format!("sec3_hetero_sort_{}", profile.name()));
    }

    println!("== Figure 1: sample-sort trace ==");
    let (_, chart) = fig1_sample_sort_trace(4096, seed);
    println!("{chart}");

    println!("== Figure 2: footprints ==");
    let t = run_fig2(4, 12.0, 240);
    write_and_print(&t, "fig2_footprint");

    println!("== Figure 3: matmul trace ==");
    let (_, chart) = fig3_matmul_trace(16, 2, 4);
    println!("{chart}");

    println!("== Figure 4 (a)(b)(c) ==");
    for profile in SpeedDistribution::paper_profiles() {
        let pts = run_fig4(&profile, fig4_ps, fig4_trials, fig4_n, seed, threads);
        let t = fig4_table(profile.name(), &pts);
        write_and_print(&t, &format!("fig4_{}", profile.name()));
    }

    println!("== Section 4.1.3: rho table ==");
    let (rho_p, rho_n) = if smoke { (4, 256) } else { (32, 4096) };
    let t = run_rho_table(
        &[1.0, 2.0, 4.0, 9.0, 16.0, 25.0, 36.0, 49.0, 64.0],
        rho_p,
        rho_n,
        threads,
    );
    write_and_print(&t, "rho_table");

    println!("== Section 4.1.2: partition quality ==");
    for profile in SpeedDistribution::paper_profiles() {
        let t = run_partition_quality(part_ps, &profile, part_trials, seed, threads);
        write_and_print(&t, &format!("partition_quality_{}", profile.name()));
    }

    println!("== Extension: multi-load scheduling (FIFO vs round-robin) ==");
    for profile in SpeedDistribution::paper_profiles() {
        let (ml_p, ml_n, ml_chunks) = if smoke {
            (4, 100.0, 4)
        } else {
            (16, 1000.0, 32)
        };
        let ml_loads: &[usize] = if smoke { &[1, 2] } else { &[1, 2, 4, 8] };
        let pts = run_multiload(
            &profile,
            ml_p,
            ml_loads,
            &DEFAULT_ALPHAS,
            ml_n,
            ml_chunks,
            part_trials,
            seed,
            threads,
            ModelFamily::AlphaPower,
        );
        let t = multiload_table(profile.name(), ml_p, &pts);
        write_and_print(&t, &format!("multiload_{}", profile.name()));
    }

    println!("== Extension: multi-load admission policies (SRPT, preemption, online) ==");
    for profile in SpeedDistribution::paper_profiles() {
        let (mlp_p, mlp_n) = if smoke { (4, 100.0) } else { (16, 1000.0) };
        let mlp_loads: &[usize] = if smoke { &[1, 2] } else { &[1, 2, 4, 8] };
        let mlp_installments: &[usize] = if smoke {
            &[1, 2]
        } else {
            &DEFAULT_INSTALLMENTS
        };
        let pts = run_multiload_policy(
            &profile,
            mlp_p,
            mlp_loads,
            &DEFAULT_ALPHAS,
            mlp_n,
            mlp_installments,
            part_trials,
            seed,
            threads,
            ModelFamily::AlphaPower,
        );
        let t = multiload_policy_table(profile.name(), mlp_p, &pts);
        write_and_print(&t, &format!("multiload_policy_{}", profile.name()));
    }

    println!("== Extension: service engine (streamed arrivals) ==");
    {
        // Mirrors the `multiload-service` binary defaults exactly, so the
        // committed full-scale CSVs stay regenerable from either entry
        // point; smoke shrinks to the binary's `--smoke` shape.
        let (svc_p, svc_loads, svc_n) = if smoke {
            (4, 2_000, 100.0)
        } else {
            (DEFAULT_SERVICE_P, DEFAULT_SERVICE_LOADS, 1000.0)
        };
        let svc_cells = if smoke {
            smoke_cells()
        } else {
            default_cells()
        };
        for profile in SpeedDistribution::paper_profiles() {
            let pts = run_service(
                &profile,
                svc_p,
                svc_loads,
                svc_n,
                &DEFAULT_ALPHAS,
                DEFAULT_UTILIZATION,
                &svc_cells,
                seed,
                ModelFamily::AlphaPower,
                threads,
            );
            let t = service_table(profile.name(), svc_p, svc_loads, DEFAULT_UTILIZATION, &pts);
            write_and_print(&t, &format!("multiload_service_{}", profile.name()));
        }
    }

    println!("== Extension: competitive ratios under adversarial arrivals and failures ==");
    {
        // Mirrors the `multiload-competitive` binary defaults, so the
        // committed full-scale CSVs stay regenerable from either entry
        // point; smoke shrinks to the binary's `--smoke` shape.
        let (cr_p, cr_loads, cr_trials) = if smoke {
            (4, 8, 2)
        } else if quick {
            (DEFAULT_COMPETITIVE_P, 24, 10)
        } else {
            (
                DEFAULT_COMPETITIVE_P,
                DEFAULT_COMPETITIVE_LOADS,
                DEFAULT_COMPETITIVE_TRIALS,
            )
        };
        let cr_cells = if smoke {
            dlt_experiments::competitive::smoke_cells()
        } else {
            dlt_experiments::competitive::default_cells()
        };
        for profile in SpeedDistribution::paper_profiles() {
            let pts = run_competitive(
                &profile, cr_p, cr_loads, &cr_cells, cr_trials, seed, threads,
            );
            let t = competitive_table(profile.name(), cr_p, cr_loads, cr_trials, &pts);
            write_and_print(&t, &format!("multiload_competitive_{}", profile.name()));
        }
    }

    println!("== Extension: affinity-aware dispatch (paper's conclusion) ==");
    for profile in [
        SpeedDistribution::paper_uniform(),
        SpeedDistribution::paper_lognormal(),
    ] {
        let (aff_p, aff_n) = if smoke { (4, 256) } else { (32, 2048) };
        let t = run_affinity(
            aff_p,
            aff_n,
            &profile,
            &[1, 2, 4, 8, 16, 32, 64],
            part_trials.min(20),
            seed,
        );
        write_and_print(&t, &format!("affinity_{}", profile.name()));
    }

    println!("all experiments done.");
}
