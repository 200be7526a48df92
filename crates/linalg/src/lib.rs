#![warn(missing_docs)]
#![forbid(unsafe_code)]

//! # dlt-linalg
//!
//! Dense linear-algebra substrate. The paper's Section 4 reasons about the
//! *communication volume* of outer products and matrix multiplication; this
//! crate supplies the actual kernels so the partitioned algorithms of
//! `dlt-outer` can be **executed and checked for numerical correctness**,
//! not merely counted:
//!
//! * [`Matrix`] — a row-major dense `f64` matrix with seeded random
//!   fill and approximate comparison;
//! * [`gemm`] — reference (naive), cache-blocked and multi-threaded
//!   general matrix multiplication `C ← A·B`;
//! * [`outer`] — outer-product kernels `M ← a·bᵀ`, full and restricted to
//!   a sub-rectangle (the unit of work a processor owns under the paper's
//!   distributions).

pub mod gemm;
pub mod matrix;
pub mod outer;

pub use gemm::{gemm_blocked, gemm_naive, gemm_parallel};
pub use matrix::Matrix;
pub use outer::{outer_product, outer_product_block};
