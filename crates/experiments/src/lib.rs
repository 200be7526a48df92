#![forbid(unsafe_code)]
//! # dlt-experiments
//!
//! The experiment harness: one runner per paper table/figure, each
//! returning a [`dlt_stats::Table`], and the artifact table
//! ([`artifacts::ARTIFACTS`]) that the `all` binary runs to print them
//! and write `results/*.csv`. `docs/paper-map.md` maps every paper claim
//! to its runner, artifact name and CSV; the committed `results/` hold
//! the paper-scale outputs.
//!
//! Every runner takes explicit seeds; the artifact table runs them from
//! [`artifacts::SEED`], the seed of the committed CSVs.

pub mod affinity;
pub mod artifacts;
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
