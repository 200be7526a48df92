//! The FIFO/installment scheduler: loads are served **one at a time** in
//! release order, each through the optimal single-round closed forms of
//! `dlt-core`.
//!
//! This is the natural multi-load extension of classical DLT (the
//! "installment" viewpoint of Gallet–Robert–Vivien): the platform is given
//! exclusively to one load per installment, so within an installment the
//! existing equal-finish-time solution is optimal. With a single load
//! released at time 0 the schedule **is** the single-load solution, bit
//! for bit — the property tests and the `multiload` experiment's `N = 1`
//! column rely on that.

use crate::error::MultiLoadError;
use crate::load::{release_order, validate_batch, LoadSpec};
use crate::metrics::{LoadMetrics, MultiLoadReport, SchedulerKind};
use dlt_core::batch::BatchSolver;
use dlt_core::nonlinear;
use dlt_platform::Platform;

/// Result of the FIFO scheduler: the report plus the per-load allocations.
#[derive(Debug, Clone, PartialEq)]
pub struct FifoOutcome {
    /// Per-load timings and aggregates.
    pub report: MultiLoadReport,
    /// Service order (indices into the input batch, by release time).
    pub order: Vec<usize>,
    /// Per-load data shares, indexed like the input batch:
    /// `shares[j][i]` data units of load `j` go to worker `i`. Each row is
    /// exactly the single-round allocation `x` of
    /// [`nonlinear::equal_finish_parallel`].
    pub shares: Vec<Vec<f64>>,
}

/// Schedules `loads` FIFO (by release time, ties by index): each load is
/// distributed in one optimal single round starting when both the load has
/// been released and the previous installment has finished.
///
/// The per-installment makespan and shares come from
/// [`nonlinear::equal_finish_parallel`]; since every installment starts
/// from an idle platform, equal finish times make all workers available
/// simultaneously for the next installment. Consecutive installments run
/// on the same platform with comparable sizes, so each solve seeds the
/// next through one [`BatchSolver`] handle — the first installment starts
/// cold and therefore stays bit-identical to the plain single-load solver.
///
/// # Examples
///
/// ```
/// use dlt_multiload::{fifo_schedule, LoadSpec};
/// use dlt_platform::Platform;
///
/// let platform = Platform::from_speeds(&[1.0, 3.0]).unwrap();
/// let loads = [
///     LoadSpec::immediate(30.0, 1.5).unwrap(),
///     LoadSpec::immediate(30.0, 1.5).unwrap(),
/// ];
/// let out = fifo_schedule(&platform, &loads).unwrap();
/// // Identical back-to-back loads: the second waits a full installment.
/// assert!((out.report.per_load[1].stretch() - 2.0).abs() < 1e-9);
/// ```
// dlt-analyze: allow(twin-coverage) — gated directly: bit-identical to policy_schedule(Fifo, k=1) and to equal_finish_parallel at N=1 (tests/policy_properties.rs), no separate rescan twin needed
pub fn fifo_schedule(
    platform: &Platform,
    loads: &[LoadSpec],
) -> Result<FifoOutcome, MultiLoadError> {
    validate_batch(loads)?;
    let order = release_order(loads);
    let mut per_load = vec![None; loads.len()];
    let mut shares = vec![Vec::new(); loads.len()];
    let mut platform_free = 0.0f64;
    // A worker's finish is the end of the last installment that gave it a
    // positive share — NOT `platform_free` across the board: a zero-share
    // worker (e.g. a near-dead link contributing nothing to the tail
    // installment) finished earlier, and a worker that never computed
    // reports 0.
    let mut worker_finish = vec![0.0f64; platform.len()];
    let config = nonlinear::SolverConfig::default();
    let mut solver = BatchSolver::default();
    for &j in &order {
        let load = loads[j];
        let alloc = solver.solve(platform, load.size, load.model, &config)?;
        let start = load.release.max(platform_free);
        let finish = start + alloc.makespan;
        per_load[j] = Some(LoadMetrics {
            load: j,
            start,
            finish,
            release: load.release,
            // The installment's own makespan IS the alone-makespan: same
            // solver, same inputs, so the stretch denominator is exact.
            alone: alloc.makespan,
            size: load.size,
        });
        for (w, &x) in alloc.x.iter().enumerate() {
            if x > 0.0 {
                worker_finish[w] = finish;
            }
        }
        shares[j] = alloc.x;
        platform_free = finish;
    }
    let per_load: Vec<LoadMetrics> = per_load
        .into_iter()
        .map(|m| m.expect("every load scheduled exactly once"))
        .collect();
    Ok(FifoOutcome {
        report: MultiLoadReport::new(SchedulerKind::Fifo, per_load, worker_finish),
        order,
        shares,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_load_is_bit_identical_to_single_round_solver() {
        let platform = Platform::from_speeds_and_costs(&[1.0, 2.5, 4.0], &[1.0, 0.5, 0.7]).unwrap();
        let loads = [LoadSpec::immediate(120.0, 2.0).unwrap()];
        let out = fifo_schedule(&platform, &loads).unwrap();
        let direct = nonlinear::equal_finish_parallel(&platform, 120.0, 2.0).unwrap();
        // Bitwise equality, not approximate: the FIFO path must degenerate
        // to exactly the single-load code path.
        assert_eq!(out.report.makespan(), direct.makespan);
        assert_eq!(out.shares[0], direct.x);
        assert_eq!(out.report.per_load[0].stretch(), 1.0);
    }

    #[test]
    fn loads_are_served_in_release_order() {
        let platform = Platform::from_speeds(&[1.0, 1.0]).unwrap();
        let loads = [
            LoadSpec::new(8.0, 1.0, 10.0).unwrap(),
            LoadSpec::new(8.0, 1.0, 0.0).unwrap(),
        ];
        let out = fifo_schedule(&platform, &loads).unwrap();
        assert_eq!(out.order, vec![1, 0]);
        assert!(out.report.per_load[1].finish <= out.report.per_load[0].start + 1e-12);
        assert!(out.report.per_load[0].start >= 10.0);
    }

    #[test]
    fn release_gap_leaves_platform_idle() {
        let platform = Platform::from_speeds(&[1.0]).unwrap();
        let loads = [
            LoadSpec::new(1.0, 1.0, 0.0).unwrap(),
            LoadSpec::new(1.0, 1.0, 100.0).unwrap(),
        ];
        let out = fifo_schedule(&platform, &loads).unwrap();
        assert_eq!(out.report.per_load[1].start, 100.0);
        assert!(out.report.makespan() > 100.0);
    }

    #[test]
    fn back_to_back_loads_stack_makespans() {
        let platform = Platform::from_speeds(&[1.0, 3.0]).unwrap();
        let loads = [
            LoadSpec::immediate(30.0, 1.5).unwrap(),
            LoadSpec::immediate(30.0, 1.5).unwrap(),
        ];
        let out = fifo_schedule(&platform, &loads).unwrap();
        let single = loads[0].alone_makespan(&platform).unwrap();
        assert!((out.report.makespan() - 2.0 * single).abs() < 1e-9 * single);
        // Second load waits for the first: stretch 2, flow doubled.
        assert!((out.report.per_load[1].stretch() - 2.0).abs() < 1e-9);
    }

    #[test]
    fn empty_batch_rejected() {
        let platform = Platform::from_speeds(&[1.0]).unwrap();
        assert!(matches!(
            fifo_schedule(&platform, &[]),
            Err(MultiLoadError::EmptyBatch)
        ));
    }

    #[test]
    fn worker_finish_derives_from_positive_shares() {
        // Regression: worker_finish used to be `vec![platform_free; p]`
        // unconditionally. It must equal the finish of each worker's last
        // positive-share installment (0 when the worker never computed).
        let platform =
            Platform::from_speeds_and_costs(&[1.0, 2.0, 0.01], &[1.0, 0.5, 50.0]).unwrap();
        let loads = [
            LoadSpec::immediate(40.0, 2.0).unwrap(),
            LoadSpec::new(10.0, 1.5, 90.0).unwrap(),
        ];
        let out = fifo_schedule(&platform, &loads).unwrap();
        for w in 0..platform.len() {
            let expect = out
                .shares
                .iter()
                .enumerate()
                .filter(|(_, s)| s[w] > 0.0)
                .map(|(j, _)| out.report.per_load[j].finish)
                .fold(0.0, f64::max);
            assert_eq!(out.report.worker_finish[w], expect);
        }
        // Every worker that computed anything finishes no later than the
        // batch makespan; none is reported past it.
        let makespan = out.report.makespan();
        for &f in &out.report.worker_finish {
            assert!(f <= makespan);
        }
    }

    #[test]
    fn shares_conserve_each_load() {
        let platform = Platform::from_speeds(&[1.0, 2.0, 5.0]).unwrap();
        let loads = [
            LoadSpec::immediate(40.0, 2.0).unwrap(),
            LoadSpec::new(25.0, 1.0, 3.0).unwrap(),
        ];
        let out = fifo_schedule(&platform, &loads).unwrap();
        for (j, load) in loads.iter().enumerate() {
            let total: f64 = out.shares[j].iter().sum();
            assert!((total - load.size).abs() < 1e-9 * load.size);
        }
    }
}
