#![warn(missing_docs)]
#![forbid(unsafe_code)]

//! # dlt-outer
//!
//! Data-distribution strategies for the paper's flagship non-linear
//! workloads (Section 4): the **outer product** `aᵀ × b` (`N²` work on `N`
//! data) and **matrix multiplication** (`N³` work on `N²` data, built from
//! outer products à la ScaLAPACK).
//!
//! Since super-linear loads are not divisible, the data must be
//! *replicated*; the communication volume then depends entirely on how the
//! `N × N` computation domain is cut:
//!
//! * [`hom_blocks`] — **`Commhom`**: the MapReduce-style baseline. Square
//!   blocks sized so the *slowest* worker gets exactly one
//!   (`D = √x₁·N`), handed out demand-driven. Each block ships `2D` data.
//! * [`hom_blocks_refined_abstract`] — **`Commhom/k`**: same, but the
//!   block side is divided by increasing `k` until the demand-driven
//!   run's load imbalance `e = (tmax − tmin)/tmin` drops below a
//!   threshold (1% in the paper) — the realistic variant, since
//!   `s_i/s_1` is never an integer.
//! * [`het_rects`] — **`Commhet`**: one rectangle per worker with area
//!   proportional to its speed, chosen by the PERI-SUM partitioner of
//!   [`dlt_partition`]; communication is the sum of half-perimeters,
//!   guaranteed within `7/4` of the lower bound `LB = 2N Σ√x_i` and ~2% in
//!   practice.
//!
//! [`matmul`] lifts all of this to matrix multiplication (communication
//! per SUMMA step is again the half-perimeter sum) and can *execute* the
//! partitioned algorithm against the reference GEMM of [`dlt_linalg`]. [`footprint`] measures the per-worker memory footprints
//! of Figure 2; [`ratio`] carries the closed-form ρ bounds of
//! Section 4.1.3.

pub mod affinity;
pub mod footprint;
pub mod het;
pub mod hom;
pub mod matmul;
pub mod ratio;
pub mod strategies;

pub use affinity::{demand_driven_affinity, AffinityOutcome};
pub use dlt_partition::IntRect;
pub use footprint::{footprints, Footprint};
pub use het::het_rects;
pub use hom::{
    hom_block_side, hom_blocks, hom_blocks_abstract, hom_blocks_refined_abstract, tile_domain,
};
pub use matmul::{block_cyclic_rects, execute_partitioned_matmul, summa_comm_volume, SummaSim};
pub use ratio::{commhom_analytic, rho_lower_bound, two_class_rho_bound};
pub use strategies::{comm_lower_bound, evaluate, Strategy, StrategyReport};
