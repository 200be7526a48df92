#![warn(missing_docs)]
#![forbid(unsafe_code)]

//! # dlt-sim
//!
//! Discrete-event simulation substrate for master–worker star platforms.
//!
//! The paper's statements are about *schedules*: which worker receives how
//! much data, in which order, and when everyone finishes. This crate
//! executes such schedules against a [`dlt_platform::Platform`] under the
//! two communication models of the DLT literature:
//!
//! * [`CommMode::Parallel`] — the paper's model (Section 1.2): the master
//!   serves all workers simultaneously, each transfer limited only by the
//!   worker's incoming bandwidth `1/c_i`;
//! * [`CommMode::OnePort`] — the classical model where the master sends to
//!   one worker at a time, in a specified order.
//!
//! Four entry points:
//!
//! * [`star::simulate`] — executes an explicit (multi-round) divisible-load
//!   schedule and returns per-worker timelines plus the makespan;
//! * [`demand::simulate_demand`] — the demand-driven ("MapReduce-style")
//!   executor of Section 4: free workers repeatedly grab the next task
//!   from an explicit queue;
//! * [`demand::simulate_demand_identical`] — the same executor on a queue
//!   of identical tasks, the `Commhom` strategies' equal blocks: per-worker
//!   counts, finish times and volumes, bit-identical to
//!   [`demand::simulate_demand`], in `O(p)` memory whatever the count;
//! * [`gantt`] — ASCII Gantt rendering of any simulation trace (used to
//!   regenerate the paper's illustrative Figures 1 and 3).
//!
//! All simulated times are `f64` seconds in the paper's abstract units
//! (`c_i` per data unit, `w_i` per work unit).

pub mod demand;
pub mod gantt;
pub mod metrics;
pub mod schedule;
pub mod star;

pub use demand::{
    occupancy, simulate_demand, simulate_demand_identical, simulate_demand_reference, DemandConfig,
    DemandCounts, DemandReport, DemandTask, OrdF64,
};
pub use gantt::{ascii_gantt, TraceEvent, TraceKind};
pub use metrics::{imbalance, utilization};
pub use schedule::{ChunkAssignment, CommMode, Round, Schedule};
pub use star::{simulate, SimReport, WorkerTimeline};
