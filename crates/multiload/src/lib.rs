#![warn(missing_docs)]
#![forbid(unsafe_code)]

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
//! Three scheduler families turn a batch of loads into a
//! [`MultiLoadReport`]:
//!
//! * [`fifo::fifo_schedule`] — the FIFO/installment scheduler: loads are
//!   served one at a time in release order, each through the existing
//!   optimal single-round closed forms
//!   ([`dlt_core::nonlinear::equal_finish_parallel`]). With a single load
//!   released at time 0 this reproduces the single-load solver **bit for
//!   bit** — the property tests pin that down.
//! * [`round_robin::round_robin_schedule`] — the interleaved scheduler:
//!   each load is chopped into equal chunks which are dispatched
//!   round-robin across loads on the binary-heap free-worker machinery of
//!   [`dlt_sim::simulate_demand`], respecting release times. A linear-scan
//!   executable specification
//!   ([`round_robin::round_robin_schedule_reference`]) is kept as the
//!   property-test oracle and bench baseline, mirroring the
//!   `simulate_demand` / `simulate_demand_reference` pair.
//! * [`policy::policy_schedule`] / [`policy::online_schedule`] — the
//!   **admission-policy subsystem**: a generalized installment scheduler
//!   whose service order is a pluggable [`AdmissionOrder`] (FIFO, SRPT by
//!   remaining work, weighted stretch), with preemption between
//!   installments and an online entry point that commits without future
//!   knowledge. Each engine keeps a linear-scan reference
//!   (bit-identical, property-tested), mirroring the round-robin pair.
//!
//! On top of the batch schedulers sits the **service engine**
//! ([`service::serve_trace`]): an event-driven online scheduler that
//! ingests a *streamed* arrival trace — millions of loads — at steady
//! memory, with an indexed pending set ([`event_queue::PendingSet`]:
//! `O(log n)` heap selection for static-key orders, lazy re-keying for
//! weighted stretch), windowed admission that merges same-cost-law winners
//! (grouped by [`dlt_core::costmodel::CostLaw::bits_eq`]) into one
//! warm-started solve, and adaptive installment counts. At its
//! defaults (window 1, fixed installments) it reproduces
//! [`policy::online_schedule`] bit for bit; its own linear-rescan twin
//! ([`service::serve_trace_reference`]) gates the batched/adaptive modes.
//!
//! The **fault-injection layer** ([`failure`]) threads a [`FailureTrace`]
//! of worker drop-outs and slow-downs through the policy and service
//! engines ([`online_schedule_with_failures`],
//! [`service::serve_trace_with_failures`]): an installment in flight at a
//! failure event is cut — the served prefix retained, the remainder
//! re-queued — and every later solve runs on the degraded platform, with
//! bitwise-replayable conservation ([`failure::replay_ledger`]) and the
//! same fast/reference lockstep as everywhere else.
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
//! use dlt_multiload::{fifo_schedule, round_robin_schedule, LoadSpec, MultiLoadConfig};
//! use dlt_platform::Platform;
//!
//! let platform = Platform::from_speeds(&[1.0, 2.0, 4.0]).unwrap();
//! let loads = vec![
//!     LoadSpec::new(100.0, 2.0, 0.0).unwrap(),
//!     LoadSpec::new(50.0, 1.5, 1.0).unwrap(),
//! ];
//! let fifo = fifo_schedule(&platform, &loads).unwrap();
//! let rr = round_robin_schedule(&platform, &loads, &MultiLoadConfig::default()).unwrap();
//! assert!(fifo.report.makespan() > 0.0 && rr.report.makespan() > 0.0);
//! assert!(fifo.report.aggregate().mean_stretch >= 1.0 - 1e-9);
//! ```

pub mod error;
pub mod event_queue;
pub mod failure;
pub mod fifo;
pub mod load;
pub mod metrics;
pub mod policy;
pub mod round_robin;
pub mod service;

pub use dlt_core::batch::BatchSolver;
pub use error::MultiLoadError;
pub use event_queue::{PendingEntry, PendingSet};
pub use failure::{
    online_schedule_with_failures, online_schedule_with_failures_reference,
    policy_schedule_with_failures, policy_schedule_with_failures_reference,
    realized_alone_makespans, replay_ledger, replay_policy_ledger, FailureEvent, FailureKind,
    FailureOutcome, FailureTrace, ServedPiece,
};
pub use fifo::{fifo_schedule, FifoOutcome};
pub use load::{release_order, LoadSpec};
pub use metrics::{AggregateMetrics, LoadMetrics, MultiLoadReport, SchedulerKind};
pub use policy::{
    alone_policy_makespans, online_schedule, online_schedule_reference,
    online_schedule_reference_with_alone, online_schedule_with_alone, policy_schedule,
    policy_schedule_reference, policy_schedule_reference_with_alone, policy_schedule_with_alone,
    AdmissionOrder, InstallmentExec, PolicyConfig, PolicyOutcome,
};
pub use round_robin::{
    alone_makespans, round_robin_schedule, round_robin_schedule_reference,
    round_robin_schedule_reference_with_alone, round_robin_schedule_with_alone, ChunkExec,
    MultiLoadConfig, RoundRobinOutcome,
};
pub use service::{
    serve_trace, serve_trace_reference, serve_trace_with_failures,
    serve_trace_with_failures_reference, CompletedLoad, CompletionSink, DiscardCompletions,
    InstallmentPolicy, ServiceConfig, ServiceReport,
};
