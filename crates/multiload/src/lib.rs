#![warn(missing_docs)]
#![forbid(unsafe_code)]
// Tests may build reference inputs with the std transcendentals.
#![cfg_attr(test, allow(clippy::disallowed_methods))]

//! # dlt-multiload
//!
//! Scheduling **several** divisible loads on one heterogeneous star
//! platform — the multi-load setting of Gallet–Robert–Vivien and
//! Wu–Cao–Robertazzi, grafted onto this reproduction's single-load
//! machinery.
//!
//! A [`LoadSpec`] is one divisible load with its own size `N_j`,
//! nonlinearity exponent `α_j` (cost `w_i · x^{α_j}` for `x` data units on
//! worker `i`, as in [`dlt_core::nonlinear`]) and release time `r_j`.
//! Two scheduler families turn a batch of loads into a
//! [`MultiLoadReport`]:
//!
//! * [`schedule`] — the **installment scheduler**: loads are cut into
//!   installments, each served through the optimal single-round closed
//!   forms ([`dlt_core::nonlinear::equal_finish_parallel`]), in the order
//!   of a pluggable [`AdmissionOrder`] (FIFO, SRPT by remaining work,
//!   weighted stretch) re-evaluated at every installment boundary, so a
//!   running load can be preempted. [`ScheduleOptions`] picks online or
//!   clairvoyant arrivals, a failure trace and the stretch denominators.
//!   FIFO with one installment per load is the classical scheduler; with
//!   a single load released at time 0 it reproduces the single-load
//!   solver **bit for bit** — the property tests pin that down.
//!   [`schedule_reference`] is its linear-rescan twin (bit-identical,
//!   property-tested).
//! * [`round_robin::round_robin_schedule`] — the interleaved scheduler:
//!   each load is chopped into equal chunks which are dispatched
//!   round-robin across loads on the binary-heap free-worker machinery of
//!   [`dlt_sim::simulate_demand`], respecting release times. A linear-scan
//!   executable specification
//!   ([`round_robin::round_robin_schedule_reference`]) is kept as the
//!   property-test oracle and bench baseline, mirroring the
//!   `simulate_demand` / `simulate_demand_reference` pair.
//!
//! Both installment entry points run on the **service engine**
//! ([`service`]), which also serves *streamed* arrival traces
//! ([`service::serve_trace`]) — millions of loads — at steady memory,
//! with an indexed pending set ([`event_queue::PendingSet`]: `O(log n)`
//! heap selection for static-key orders, lazy re-keying for weighted
//! stretch), windowed admission that merges same-cost-law winners
//! (grouped by [`dlt_core::costmodel::CostLaw::bits_eq`]) into one
//! warm-started solve, and adaptive installment counts. It is the only
//! code that cuts installments; its linear-rescan twin
//! ([`service::serve_trace_reference`]) gates it.
//!
//! The **fault-injection layer** ([`failure`]) threads a [`FailureTrace`]
//! of worker drop-outs and slow-downs through that engine
//! ([`ScheduleOptions::failures`], [`service::serve_trace_with_failures`]):
//! an installment in flight at a failure event is cut — the served prefix
//! retained, the remainder re-queued — and every later solve runs on the
//! degraded platform, with bitwise-replayable conservation
//! ([`failure::replay_ledger`]) and the same fast/reference lockstep as
//! everywhere else.
//!
//! Per-load metrics (start, finish, flow time, stretch) and aggregates
//! (makespan, mean flow, mean/max stretch, total data) live in
//! [`metrics`]; the `multiload`, `multiload-policy`,
//! `multiload-service` and `multiload-competitive` binaries of
//! `dlt-experiments` sweep them over load count, platform heterogeneity,
//! nonlinearity, admission policy, arrival-stream pressure and failure
//! rate.
//!
//! ```
//! use dlt_multiload::{
//!     alone_makespans, round_robin_schedule, schedule, LoadSpec, MultiLoadConfig, PolicyConfig,
//!     ScheduleOptions,
//! };
//! use dlt_platform::Platform;
//!
//! let platform = Platform::from_speeds(&[1.0, 2.0, 4.0]).unwrap();
//! let loads = vec![
//!     LoadSpec::new(100.0, 2.0, 0.0).unwrap(),
//!     LoadSpec::new(50.0, 1.5, 1.0).unwrap(),
//! ];
//! let fifo = schedule(&platform, &loads, &PolicyConfig::default(), &ScheduleOptions::default())
//!     .unwrap();
//! let alone = alone_makespans(&platform, &loads, 1).unwrap();
//! let rr = round_robin_schedule(&platform, &loads, &MultiLoadConfig::default(), &alone).unwrap();
//! assert!(fifo.report.makespan() > 0.0 && rr.report.makespan() > 0.0);
//! assert!(fifo.report.aggregate().mean_stretch >= 1.0 - 1e-9);
//! ```

pub mod error;
pub mod event_queue;
pub mod failure;
pub mod load;
pub mod metrics;
pub mod policy;
pub mod round_robin;
pub mod service;

pub use error::MultiLoadError;
pub use event_queue::{PendingEntry, PendingSet};
pub use failure::{
    realized_alone_makespans, replay_ledger, FailureEvent, FailureKind, FailureTrace, ServedPiece,
};
pub use load::LoadSpec;
pub use metrics::{AggregateMetrics, LoadMetrics, MultiLoadReport, SchedulerKind};
pub use policy::{
    alone_makespans, schedule, schedule_reference, AdmissionOrder, Arrivals, PolicyConfig,
    PolicyOutcome, ScheduleOptions,
};
pub use round_robin::{
    round_robin_schedule, round_robin_schedule_reference, ChunkExec, MultiLoadConfig,
    RoundRobinOutcome,
};
pub use service::{
    serve_trace, serve_trace_reference, serve_trace_with_failures,
    serve_trace_with_failures_reference, CompletedLoad, CompletionSink, DiscardCompletions,
    InstallmentPolicy, ServiceConfig, ServiceReport,
};
