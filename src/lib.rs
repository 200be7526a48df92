#![warn(missing_docs)]
#![forbid(unsafe_code)]

//! # nonlinear-dlt
//!
//! A Rust reproduction of **"Non-Linear Divisible Loads: There is No Free
//! Lunch"** (Beaumont, Larchevêque, Marchal — IPDPS 2013, INRIA RR-8170).
//!
//! The paper's program in one paragraph: classical Divisible Load Theory
//! (DLT) and MapReduce-style demand-driven execution are excellent for
//! *linear* workloads, where splitting `N` data into chunks splits the
//! work proportionally. For super-linear workloads (`N^α`, `α > 1` — outer
//! products, matrix multiplication) a single data distribution round can
//! only perform a `1/P^{α−1}` fraction of the work, so the non-linear DLT
//! scheduling literature optimizes a vanishing quantity (*no free lunch*,
//! Section 2). Sorting (`N log N`) is the benign middle case: a cheap
//! sample-sort preprocessing makes it divisible (Section 3). For genuinely
//! non-linear work the right lever is *data partitioning*: giving each
//! processor a rectangle of the computation domain with area proportional
//! to its speed (the PERI-SUM partitioner) achieves perfect load balance
//! within ~2% of the communication lower bound, where demand-driven
//! homogeneous blocks pay 15–30× on heterogeneous platforms (Section 4).
//!
//! This facade crate re-exports the workspace libraries:
//!
//! * [`platform`] — heterogeneous star platforms and speed profiles;
//! * [`sim`] — discrete-event execution of schedules, demand-driven
//!   dispatch, Gantt traces;
//! * [`dlt`] — linear/non-linear divisible-load solvers and the
//!   no-free-lunch analysis;
//! * [`partition`] — PERI-SUM square partitioning;
//! * [`samplesort`] — parallel sample sort with heterogeneous splitters;
//! * [`linalg`] — dense GEMM / outer-product kernels;
//! * [`outer`] — the `Commhom` / `Commhom/k` / `Commhet` strategies and
//!   the SUMMA-style matrix-multiplication accounting;
//! * [`multiload`] — FIFO and round-robin schedulers for batches of
//!   divisible loads with release times, plus flow/stretch metrics;
//! * [`stats`] — summaries, tables, ASCII plots;
//! * [`experiments`] — runners that regenerate every paper figure/table.
//!
//! ## Quickstart
//!
//! ```
//! use nonlinear_dlt::platform::Platform;
//! use nonlinear_dlt::dlt::{linear, nonlinear};
//! use nonlinear_dlt::outer::{evaluate, Strategy};
//!
//! let platform = Platform::from_speeds(&[1.0, 2.0, 4.0, 8.0]).unwrap();
//!
//! // Linear loads: DLT closed form, everyone finishes together.
//! let lin = linear::single_round_parallel(&platform, 1000.0);
//! assert!((lin.chunks.iter().sum::<f64>() - 1000.0).abs() < 1e-6);
//!
//! // Quadratic loads: one round leaves most of the work undone...
//! let quad = nonlinear::equal_finish_parallel(&platform, 1000.0, 2.0).unwrap();
//! assert!(quad.work_fraction_done() < 0.5);
//!
//! // ...so distribute the *domain* instead: Commhet sits near the bound.
//! let report = evaluate(&platform, 1000, Strategy::HetRects);
//! assert!(report.ratio_to_lb < 1.1);
//! ```

pub use dlt_core as dlt;
pub use dlt_experiments as experiments;
pub use dlt_linalg as linalg;
pub use dlt_mapreduce as mapreduce;
pub use dlt_multiload as multiload;
pub use dlt_outer as outer;
pub use dlt_partition as partition;
pub use dlt_platform as platform;
pub use dlt_samplesort as samplesort;
pub use dlt_sim as sim;
pub use dlt_stats as stats;
