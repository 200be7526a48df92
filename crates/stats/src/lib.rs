#![warn(missing_docs)]
#![forbid(unsafe_code)]

//! # dlt-stats
//!
//! Small, dependency-free statistics and reporting toolkit used by the
//! experiment harness of this reproduction:
//!
//! * [`Summary`] — streaming mean / standard deviation / min / max
//!   (Welford's algorithm), used for the "average over 100 simulations with
//!   error bars" aggregation of the paper's Figure 4;
//! * [`Table`] — a column-oriented results table that renders to aligned
//!   plain text, GitHub markdown and CSV (the figure/table files written
//!   under `results/`);
//! * [`plot`] — ASCII scatter/series plots so `cargo run -p
//!   dlt-experiments --bin all -- fig4` can draw the figure directly in a
//!   terminal.
//!
//! Nothing in this crate knows about scheduling; it exists so the
//! experiment runners stay tiny and uniform.

pub mod plot;
pub mod summary;
pub mod table;

pub use plot::AsciiPlot;
pub use summary::Summary;
pub use table::Table;
