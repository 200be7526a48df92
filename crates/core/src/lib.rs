#![warn(missing_docs)]
#![deny(unsafe_op_in_unsafe_fn)]
// Tests may check the kernels against the std transcendentals.
#![cfg_attr(test, allow(clippy::disallowed_methods))]

//! # dlt-core
//!
//! Divisible Load Theory (DLT) solvers and the paper's central analysis.
//!
//! A *divisible load* is a perfectly parallel job: `N` units of data can be
//! split arbitrarily across workers, each piece processed independently.
//! This crate implements, on the star platform of
//! [`dlt_platform::Platform`]:
//!
//! * **Linear DLT** ([`linear`]) — the classical theory where processing
//!   `x` data units costs `w_i · x`. Closed-form optimal single-round
//!   allocations under both the paper's parallel-communication model and
//!   the classical one-port model (with its optimal bandwidth ordering),
//!   plus multi-installment schedules.
//! * **Non-linear DLT** ([`nonlinear`]) — the α-power workloads
//!   (`cost = w_i · x^α`, `α > 1`) studied by Hung & Robertazzi and Suresh
//!   et al. (refs [31–35]): equal-finish-time allocations computed by a
//!   two-level safeguarded Newton solver ([`nonlinear::SolverConfig`]),
//!   under both communication models. The parallel model runs the
//!   structure-of-arrays lanes kernel of [`batch`], threaded across
//!   consecutive solves by a [`batch::BatchSolver`] handle; the one-port
//!   model runs the same outer Newton over a scalar inner loop; the
//!   original nested bisection is kept as the `*_reference` oracles.
//!   These are the *baselines* whose asymptotic irrelevance the paper
//!   proves. The solvers are generic over a pluggable
//!   [`costmodel::CostModel`] — a bare `f64` α is the paper's power law,
//!   and [`costmodel::AmdahlSerial`],
//!   [`costmodel::AffineLatency`], and [`costmodel::Piecewise`] open the
//!   scenario families of arXiv:1902.01952 and friends.
//! * **The no-free-lunch analysis** ([`analysis`]) — Section 2's result:
//!   a single DLT round of `N` data over `P` homogeneous workers executes
//!   only `W_partial/W = 1/P^(α−1)` of the total work, so the remaining
//!   fraction tends to 1 as `P` grows; and Section 3's counterpoint for
//!   sorting, whose non-divisible fraction `log p / log N` vanishes.
//!
//! ```
//! use dlt_platform::Platform;
//! use dlt_core::{linear, nonlinear, analysis};
//!
//! let platform = Platform::from_speeds(&[1.0, 2.0, 4.0]).unwrap();
//!
//! // Linear load: everyone finishes simultaneously.
//! let alloc = linear::single_round_parallel(&platform, 100.0);
//! assert!((alloc.chunks.iter().sum::<f64>() - 100.0).abs() < 1e-9);
//!
//! // Quadratic load: the same platform leaves most of the work undone.
//! let quad = nonlinear::equal_finish_parallel(&platform, 100.0, 2.0).unwrap();
//! assert!(quad.work_fraction_done() < 0.5);
//!
//! // ... and the fraction left over grows with the platform size:
//! assert!(analysis::remaining_fraction_homogeneous(100, 2.0)
//!     > analysis::remaining_fraction_homogeneous(10, 2.0));
//! ```

pub mod analysis;
pub mod batch;
pub mod costmodel;
pub mod error;
// The one module allowed `unsafe`: the runtime-detected AVX2 kernels.
#[allow(unsafe_code)]
pub mod fastmath;
pub mod linear;
pub mod nonlinear;

pub use batch::{BatchSolver, SolveBackend};
pub use costmodel::{AffineLatency, AmdahlSerial, CostLaw, CostModel, Piecewise};
pub use error::DltError;
