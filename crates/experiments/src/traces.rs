//! Regeneration of the paper's illustrative figures as executable traces.
//!
//! * **Figure 1** — the three phases of sample sort with `p = 4`,
//!   `s = 4`: pivot choice/sort on the master, bucket construction, data
//!   communication, local sorts. We time the phases under the analytic
//!   cost model and render a Gantt chart.
//! * **Figure 3** — the outer-product matrix multiplication: at each step
//!   `k`, the owners of row `k` of `A` / column `k` of `B` broadcast; each
//!   processor receives its half-perimeter. We trace a few steps on a 2×2
//!   grid.

use dlt_outer::block_cyclic_rects;
use dlt_samplesort::{sample_sort, CostModel, SampleSortConfig};
use dlt_sim::{ascii_gantt, TraceEvent, TraceKind};

/// Builds the Figure 1 trace: a real sample-sort run with `p = 4`,
/// `s = 4` on `n` keys, phases mapped onto a master (row 0) and four
/// workers under the analytic cost model. Returns the events and the
/// rendered chart.
pub fn fig1_sample_sort_trace(n: usize, seed: u64) -> (Vec<TraceEvent>, String) {
    let p = 4;
    let s = 4;
    let data: Vec<u64> = {
        let mut rng = dlt_platform::rng::seeded(seed);
        use rand::Rng;
        (0..n).map(|_| rng.gen()).collect()
    };
    let out = sample_sort(
        data,
        &SampleSortConfig::homogeneous(p, seed).with_oversampling(s),
    );
    let model = CostModel::evaluate(n, s, &out.stats.sizes, &vec![1.0; p]);

    // Master = worker index 0 in the chart; workers 1..=p.
    let mut events = Vec::new();
    let t1 = model.step1;
    let t2 = t1 + model.step2;
    events.push(TraceEvent::new(
        0,
        TraceKind::Phase,
        "pivot choice + pivot sort",
        0.0,
        t1,
    ));
    events.push(TraceEvent::new(
        0,
        TraceKind::Compute,
        "bucket construction",
        t1,
        t2,
    ));
    for (i, &size) in out.stats.sizes.iter().enumerate() {
        // Communication of bucket i, then its local sort.
        let comm = size as f64; // unit bandwidth
        let sort = if size > 1 {
            size as f64 * (size as f64).log2()
        } else {
            0.0
        };
        events.push(TraceEvent::new(
            i + 1,
            TraceKind::Recv,
            "bucket data",
            t2,
            t2 + comm,
        ));
        events.push(TraceEvent::new(
            i + 1,
            TraceKind::Compute,
            "local sort",
            t2 + comm,
            t2 + comm + sort,
        ));
    }
    let chart = ascii_gantt(&events, 72);
    (events, chart)
}

/// Builds the Figure 3 trace: per-step broadcast volumes of the
/// outer-product MM on a `q×q` homogeneous grid over an `n×n` domain.
/// Each step every processor receives `|I| + |J|` elements; the trace
/// shows `steps` successive steps.
pub fn fig3_matmul_trace(n: usize, q: usize, steps: usize) -> (Vec<TraceEvent>, String) {
    let rects = block_cyclic_rects(n, q);
    let mut events = Vec::new();
    let mut clock = 0.0;
    for step in 0..steps {
        let mut step_end = clock;
        for (w, r) in rects.iter().enumerate() {
            let recv = r.half_perimeter() as f64;
            let comp = r.area() as f64 / n as f64; // one rank-1 update
            events.push(TraceEvent::new(
                w,
                TraceKind::Recv,
                &format!("bcast step {step}"),
                clock,
                clock + recv,
            ));
            events.push(TraceEvent::new(
                w,
                TraceKind::Compute,
                &format!("update step {step}"),
                clock + recv,
                clock + recv + comp,
            ));
            step_end = step_end.max(clock + recv + comp);
        }
        clock = step_end;
    }
    let chart = ascii_gantt(&events, 72);
    (events, chart)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig1_has_master_and_four_workers() {
        let (events, chart) = fig1_sample_sort_trace(4096, 1);
        let workers: std::collections::BTreeSet<usize> = events.iter().map(|e| e.worker).collect();
        assert_eq!(workers.len(), 5); // master + 4
        assert!(chart.contains("P1"));
        assert!(chart.contains("P5"));
    }

    #[test]
    fn fig1_phases_are_ordered() {
        let (events, _) = fig1_sample_sort_trace(2048, 2);
        // Master phases precede every worker phase.
        let master_end = events
            .iter()
            .filter(|e| e.worker == 0)
            .map(|e| e.end)
            .fold(0.0, f64::max);
        for e in events.iter().filter(|e| e.worker != 0) {
            assert!(e.start >= master_end - 1e-9);
        }
    }

    #[test]
    fn fig3_trace_steps_advance_monotonically() {
        let (events, chart) = fig3_matmul_trace(16, 2, 3);
        assert_eq!(events.len(), 2 * 4 * 3); // recv+compute × workers × steps
        assert!(chart.contains("P4"));
        // The trace advances: the last event ends after the first one.
        assert!(events.last().unwrap().end > events[0].end);
    }
}
