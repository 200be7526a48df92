#![forbid(unsafe_code)]
//! # dlt-experiments
//!
//! The experiment harness: one function per paper table/figure, each
//! returning a [`dlt_stats::Table`] that the binaries print and write to
//! `results/*.csv`. The mapping to the paper is recorded in
//! `DESIGN.md` (experiment index) and the measured outcomes in
//! `EXPERIMENTS.md`.
//!
//! | paper artifact | runner | binary |
//! |----------------|--------|--------|
//! | §2 no-free-lunch analysis | [`sec2::run_sec2`] | `sec2-no-free-lunch` |
//! | §2 Amdahl-law relief (extension, arXiv:1902.01952) | [`sec_amdahl::run_sec_amdahl`] | `sec-amdahl` |
//! | §3.1 sample sort | [`sec3::run_sample_sort`] | `sec3-sample-sort` |
//! | §3.2 heterogeneous sort | [`sec3::run_hetero_sort`] | `sec3-hetero-sort` |
//! | Figure 1 trace | [`traces::fig1_sample_sort_trace`] | `fig1-trace` |
//! | Figure 2 footprints | [`footprint::run_fig2`] | `fig2-footprint` |
//! | Figure 3 MM trace | [`traces::fig3_matmul_trace`] | `fig3-matmul-trace` |
//! | Figure 4(a)(b)(c) | [`fig4::run_fig4`] | `fig4` |
//! | §4.1.3 ρ bounds | [`rho::run_rho_table`] | `rho-table` |
//! | §4.1.2 partition quality | [`partition_quality::run_partition_quality`] | `partition-quality` |
//! | Conclusion: affinity dispatch (extension) | [`affinity::run_affinity`] | `affinity` |
//! | Multi-load scheduling (extension, Gallet–Robert–Vivien) | [`multiload::run_multiload`] | `multiload` |
//! | Service engine (extension, streamed arrivals) | [`service::run_service`] | `multiload-service` |
//! | Competitive ratios under failures (extension, adversarial) | [`competitive::run_competitive`] | `multiload-competitive` |
//!
//! Every runner takes explicit seeds; the binaries default to the seeds
//! used to produce the numbers quoted in `EXPERIMENTS.md`.

pub mod affinity;
pub mod competitive;
pub mod fig4;
pub mod footprint;
pub mod generators;
pub mod models;
pub mod multiload;
pub mod partition_quality;
pub mod rho;
pub mod runner;
pub mod sec2;
pub mod sec3;
pub mod sec_amdahl;
pub mod service;
pub mod traces;

pub use runner::{
    par_map, par_map_with, parse_flags, resolve_threads, results_dir, thread_count, write_and_print,
};
