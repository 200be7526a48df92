//! Per-load and aggregate metrics of a multi-load schedule.

/// The two schedulers the `multiload` sweep compares, as its CSV rows
/// name them.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SchedulerKind {
    /// Loads served whole, one at a time in release order, through the
    /// single-round closed forms: [`crate::schedule`] under
    /// [`crate::PolicyConfig::default`].
    Fifo,
    /// Chunked loads interleaved round-robin on the demand machinery.
    RoundRobin,
}

impl SchedulerKind {
    /// Short name used in tables and CSV columns.
    pub fn name(&self) -> &'static str {
        match self {
            Self::Fifo => "fifo",
            Self::RoundRobin => "round_robin",
        }
    }
}

/// Timing of one load within a multi-load schedule.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LoadMetrics {
    /// Index of the load in the input batch.
    pub load: usize,
    /// Instant the first byte of this load starts moving (≥ its release).
    pub start: f64,
    /// Instant the last chunk of this load finishes computing.
    pub finish: f64,
    /// Release time copied from the spec (for self-contained reports).
    pub release: f64,
    /// Makespan of the load alone on the platform (stretch denominator).
    pub alone: f64,
    /// Data volume `N_j` copied from the spec, so aggregates (notably
    /// `total_data`) never need the original batch alongside the report.
    pub size: f64,
}

impl LoadMetrics {
    /// Flow time (a.k.a. response time): `finish − release`.
    pub fn flow(&self) -> f64 {
        self.finish - self.release
    }

    /// Stretch: flow time over the load's alone-on-the-platform makespan.
    /// ≥ 1 for any feasible schedule of the FIFO family.
    pub fn stretch(&self) -> f64 {
        self.flow() / self.alone
    }
}

/// Aggregates over a batch (computed once, stored for cheap reuse).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AggregateMetrics {
    /// Largest finish time over all loads.
    pub makespan: f64,
    /// Mean flow time `Σ (finish_j − release_j) / n`.
    pub mean_flow: f64,
    /// Largest per-load stretch.
    pub max_stretch: f64,
    /// Mean per-load stretch.
    pub mean_stretch: f64,
    /// Total data units distributed, `Σ N_j`.
    pub total_data: f64,
}

/// Outcome of scheduling a batch of loads.
#[derive(Debug, Clone, PartialEq)]
pub struct MultiLoadReport {
    /// Per-load timings, indexed like the input batch.
    pub per_load: Vec<LoadMetrics>,
    /// Per-worker final finish times: the instant each worker completes
    /// its last positive share (0 for workers that never computed).
    pub worker_finish: Vec<f64>,
}

impl MultiLoadReport {
    /// Largest per-load finish time. Workers finishing the last
    /// installment share it; workers that sat out the tail finish earlier
    /// (see `worker_finish`).
    pub fn makespan(&self) -> f64 {
        self.per_load.iter().map(|l| l.finish).fold(0.0, f64::max)
    }

    /// Aggregate metrics over the batch. Complete on its own: the per-load
    /// sizes travel inside the report, so `total_data` is always `Σ N_j`
    /// (it used to require a separate `aggregate_with_loads` call and
    /// silently read 0 otherwise).
    pub fn aggregate(&self) -> AggregateMetrics {
        let n = self.per_load.len().max(1) as f64;
        let mut mean_flow = 0.0;
        let mut max_stretch: f64 = 0.0;
        let mut mean_stretch = 0.0;
        let mut total_data = 0.0;
        for l in &self.per_load {
            mean_flow += l.flow();
            let s = l.stretch();
            max_stretch = max_stretch.max(s);
            mean_stretch += s;
            total_data += l.size;
        }
        AggregateMetrics {
            makespan: self.makespan(),
            mean_flow: mean_flow / n,
            max_stretch,
            mean_stretch: mean_stretch / n,
            total_data,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn metrics(load: usize, start: f64, finish: f64, release: f64, alone: f64) -> LoadMetrics {
        LoadMetrics {
            load,
            start,
            finish,
            release,
            alone,
            size: 5.0,
        }
    }

    #[test]
    fn flow_and_stretch() {
        let m = metrics(0, 1.0, 7.0, 1.0, 3.0);
        assert_eq!(m.flow(), 6.0);
        assert_eq!(m.stretch(), 2.0);
    }

    #[test]
    fn aggregate_over_two_loads() {
        let report = MultiLoadReport {
            per_load: vec![
                metrics(0, 0.0, 4.0, 0.0, 4.0),
                metrics(1, 4.0, 10.0, 2.0, 4.0),
            ],
            worker_finish: vec![10.0, 10.0],
        };
        let agg = report.aggregate();
        assert_eq!(agg.makespan, 10.0);
        assert_eq!(agg.mean_flow, (4.0 + 8.0) / 2.0);
        assert_eq!(agg.max_stretch, 2.0);
        assert_eq!(agg.mean_stretch, 1.5);
    }

    #[test]
    fn aggregate_total_data_needs_no_side_channel() {
        // Regression: `aggregate()` used to hardcode `total_data: 0.0`
        // and rely on callers remembering `aggregate_with_loads`.
        let report = MultiLoadReport {
            per_load: vec![
                metrics(0, 0.0, 4.0, 0.0, 4.0),
                metrics(1, 4.0, 10.0, 2.0, 4.0),
            ],
            worker_finish: vec![10.0],
        };
        assert_eq!(report.aggregate().total_data, 10.0);
    }

    #[test]
    fn scheduler_names() {
        assert_eq!(SchedulerKind::Fifo.name(), "fifo");
        assert_eq!(SchedulerKind::RoundRobin.name(), "round_robin");
    }
}
