//! Executes an explicit divisible-load schedule on a star platform.

use crate::gantt::{TraceEvent, TraceKind};
use crate::schedule::{CommMode, Schedule};
use dlt_platform::Platform;

/// Timeline of one worker across all rounds.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct WorkerTimeline {
    /// `(round, start, end)` of every data reception, in time order.
    pub recvs: Vec<(usize, f64, f64)>,
    /// `(round, start, end)` of every computation, in time order.
    pub computes: Vec<(usize, f64, f64)>,
}

impl WorkerTimeline {
    /// Instant at which this worker is completely done (0 when idle).
    pub fn finish(&self) -> f64 {
        let recv_end = self.recvs.last().map_or(0.0, |r| r.2);
        let comp_end = self.computes.last().map_or(0.0, |c| c.2);
        recv_end.max(comp_end)
    }
}

/// Result of executing a schedule.
#[derive(Debug, Clone, PartialEq)]
pub struct SimReport {
    /// One timeline per platform worker (idle workers have empty timelines).
    pub timelines: Vec<WorkerTimeline>,
    /// Time at which the last worker finishes.
    pub makespan: f64,
    /// Total data units the master sent.
    pub total_data: f64,
    /// Total work units executed.
    pub total_work: f64,
}

impl SimReport {
    /// Per-worker finish times.
    pub fn finish_times(&self) -> Vec<f64> {
        self.timelines.iter().map(WorkerTimeline::finish).collect()
    }

    /// Flattens the timelines into renderable trace events.
    pub fn to_trace(&self) -> Vec<TraceEvent> {
        let mut events = Vec::new();
        for (w, tl) in self.timelines.iter().enumerate() {
            for &(round, s, e) in &tl.recvs {
                events.push(TraceEvent {
                    worker: w,
                    kind: TraceKind::Recv,
                    label: format!("recv r{round}"),
                    start: s,
                    end: e,
                });
            }
            for &(round, s, e) in &tl.computes {
                events.push(TraceEvent {
                    worker: w,
                    kind: TraceKind::Compute,
                    label: format!("comp r{round}"),
                    start: s,
                    end: e,
                });
            }
        }
        events.sort_by(|a, b| a.start.partial_cmp(&b.start).unwrap());
        events
    }
}

/// Executes `schedule` on `platform`.
///
/// Semantics:
/// * a worker starts computing a chunk only once the chunk has **fully**
///   arrived (the DLT convention; Section 1.2);
/// * chunks assigned to the same worker are received and computed in
///   schedule order, and computation of round `r` may overlap the reception
///   of round `r+1` (this is what makes multi-installment schedules
///   worthwhile);
/// * under [`CommMode::OnePort`] the master serializes sends in assignment
///   order; under [`CommMode::Parallel`] only the per-worker link is a
///   resource.
///
/// Panics when the schedule references a worker outside the platform or
/// contains a negative/non-finite chunk; both are caller bugs.
pub fn simulate(platform: &Platform, schedule: &Schedule) -> SimReport {
    if let Some(max) = schedule.max_worker() {
        assert!(
            max < platform.len(),
            "schedule references worker {max} but the platform has {} workers",
            platform.len()
        );
    }
    let p = platform.len();
    let mut timelines = vec![WorkerTimeline::default(); p];
    // Next instant each worker's incoming link is free.
    let mut link_free = vec![0.0f64; p];
    // Next instant each worker's CPU is free.
    let mut cpu_free = vec![0.0f64; p];
    // Next instant the master's outgoing port is free (one-port only).
    let mut master_free = 0.0f64;

    for (round_idx, round) in schedule.rounds.iter().enumerate() {
        for a in &round.assignments {
            assert!(
                a.data.is_finite()
                    && a.data >= 0.0
                    && a.work.is_finite()
                    && a.work >= 0.0
                    && a.overhead.is_finite()
                    && a.overhead >= 0.0,
                "invalid chunk {a:?}"
            );
            let worker = platform.worker(a.worker);
            let comm = a.overhead + worker.comm_time(a.data);
            let recv_start = match schedule.comm_mode {
                CommMode::Parallel => link_free[a.worker],
                CommMode::OnePort => master_free.max(link_free[a.worker]),
            };
            let recv_end = recv_start + comm;
            link_free[a.worker] = recv_end;
            if schedule.comm_mode == CommMode::OnePort {
                master_free = recv_end;
            }
            timelines[a.worker]
                .recvs
                .push((round_idx, recv_start, recv_end));

            let comp_start = recv_end.max(cpu_free[a.worker]);
            let comp_end = comp_start + worker.compute_time(a.work);
            cpu_free[a.worker] = comp_end;
            timelines[a.worker]
                .computes
                .push((round_idx, comp_start, comp_end));
        }
    }

    let makespan = timelines
        .iter()
        .map(WorkerTimeline::finish)
        .fold(0.0, f64::max);
    SimReport {
        timelines,
        makespan,
        total_data: schedule.total_data(),
        total_work: schedule.total_work(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schedule::{ChunkAssignment, Round};

    fn platform2() -> Platform {
        // Worker 0: speed 1, c = 1. Worker 1: speed 2, c = 0.5.
        Platform::from_speeds_and_costs(&[1.0, 2.0], &[1.0, 0.5]).unwrap()
    }

    #[test]
    fn parallel_single_round_basic_times() {
        let s = Schedule::single_round(
            vec![
                ChunkAssignment::linear(0, 4.0),
                ChunkAssignment::linear(1, 8.0),
            ],
            CommMode::Parallel,
        );
        let r = simulate(&platform2(), &s);
        // Worker 0: recv [0,4], compute [4,8]. Worker 1: recv [0,4], compute [4,8].
        assert_eq!(r.timelines[0].recvs, vec![(0, 0.0, 4.0)]);
        assert_eq!(r.timelines[0].computes, vec![(0, 4.0, 8.0)]);
        assert_eq!(r.timelines[1].recvs, vec![(0, 0.0, 4.0)]);
        assert_eq!(r.timelines[1].computes, vec![(0, 4.0, 8.0)]);
        assert_eq!(r.makespan, 8.0);
        assert_eq!(r.total_data, 12.0);
    }

    #[test]
    fn one_port_serializes_master_sends() {
        let s = Schedule::single_round(
            vec![
                ChunkAssignment::linear(0, 4.0),
                ChunkAssignment::linear(1, 8.0),
            ],
            CommMode::OnePort,
        );
        let r = simulate(&platform2(), &s);
        // Master sends to worker 0 during [0,4], then worker 1 during [4,8].
        assert_eq!(r.timelines[0].recvs, vec![(0, 0.0, 4.0)]);
        assert_eq!(r.timelines[1].recvs, vec![(0, 4.0, 8.0)]);
        // Worker 1 computes 8 units at speed 2 → 4s after recv.
        assert_eq!(r.timelines[1].computes, vec![(0, 8.0, 12.0)]);
        assert_eq!(r.makespan, 12.0);
    }

    #[test]
    fn multi_round_pipelines_comm_and_compute() {
        // One worker, two rounds: compute of round 0 overlaps recv of round 1.
        let platform = Platform::from_speeds_and_costs(&[1.0], &[1.0]).unwrap();
        let s = Schedule::multi_round(
            vec![
                Round::new(vec![ChunkAssignment::linear(0, 2.0)]),
                Round::new(vec![ChunkAssignment::linear(0, 2.0)]),
            ],
            CommMode::Parallel,
        );
        let r = simulate(&platform, &s);
        // recv r0 [0,2], compute r0 [2,4]; recv r1 [2,4] (overlaps), compute r1 [4,6].
        assert_eq!(r.timelines[0].recvs, vec![(0, 0.0, 2.0), (1, 2.0, 4.0)]);
        assert_eq!(r.timelines[0].computes, vec![(0, 2.0, 4.0), (1, 4.0, 6.0)]);
        assert_eq!(r.makespan, 6.0);
    }

    #[test]
    fn nonlinear_work_uses_work_field() {
        // data 3, work 9 (α = 2): compute time = 9/w with speed 1.
        let platform = Platform::from_speeds_and_costs(&[1.0], &[1.0]).unwrap();
        let s = Schedule::single_round(vec![ChunkAssignment::new(0, 3.0, 9.0)], CommMode::Parallel);
        let r = simulate(&platform, &s);
        assert_eq!(r.makespan, 3.0 + 9.0);
    }

    #[test]
    fn zero_bandwidth_cost_makes_recv_instant() {
        let platform = Platform::from_speeds_and_costs(&[2.0], &[0.0]).unwrap();
        let s = Schedule::single_round(vec![ChunkAssignment::linear(0, 10.0)], CommMode::OnePort);
        let r = simulate(&platform, &s);
        assert_eq!(r.timelines[0].recvs, vec![(0, 0.0, 0.0)]);
        assert_eq!(r.makespan, 5.0);
    }

    #[test]
    fn idle_workers_have_empty_timelines() {
        let platform = Platform::from_speeds(&[1.0, 1.0, 1.0]).unwrap();
        let s = Schedule::single_round(vec![ChunkAssignment::linear(1, 1.0)], CommMode::Parallel);
        let r = simulate(&platform, &s);
        assert!(r.timelines[0].recvs.is_empty());
        assert!(r.timelines[2].computes.is_empty());
        assert_eq!(r.timelines[0].finish(), 0.0);
    }

    #[test]
    fn trace_events_are_time_sorted() {
        let s = Schedule::single_round(
            vec![
                ChunkAssignment::linear(0, 4.0),
                ChunkAssignment::linear(1, 2.0),
            ],
            CommMode::OnePort,
        );
        let r = simulate(&platform2(), &s);
        let trace = r.to_trace();
        assert!(!trace.is_empty());
        for pair in trace.windows(2) {
            assert!(pair[0].start <= pair[1].start);
        }
    }

    #[test]
    fn per_message_overhead_extends_reception() {
        let platform = Platform::from_speeds_and_costs(&[1.0], &[1.0]).unwrap();
        let s = Schedule::single_round(
            vec![ChunkAssignment::linear(0, 2.0).with_overhead(3.0)],
            CommMode::Parallel,
        );
        let r = simulate(&platform, &s);
        // recv = overhead 3 + c·data 2 = 5; compute 2 more.
        assert_eq!(r.timelines[0].recvs, vec![(0, 0.0, 5.0)]);
        assert_eq!(r.makespan, 7.0);
    }

    #[test]
    fn overhead_occupies_the_one_port_master() {
        let platform = Platform::from_speeds_and_costs(&[1.0, 1.0], &[1.0, 1.0]).unwrap();
        let s = Schedule::single_round(
            vec![
                ChunkAssignment::linear(0, 1.0).with_overhead(4.0),
                ChunkAssignment::linear(1, 1.0),
            ],
            CommMode::OnePort,
        );
        let r = simulate(&platform, &s);
        // Master is busy [0,5] with worker 0 (4 latency + 1 transfer).
        assert_eq!(r.timelines[1].recvs, vec![(0, 5.0, 6.0)]);
    }

    #[test]
    #[should_panic(expected = "references worker")]
    fn out_of_range_worker_panics() {
        let s = Schedule::single_round(vec![ChunkAssignment::linear(9, 1.0)], CommMode::Parallel);
        simulate(&platform2(), &s);
    }

    #[test]
    fn busy_and_recv_times() {
        let s = Schedule::single_round(
            vec![
                ChunkAssignment::linear(0, 4.0),
                ChunkAssignment::linear(0, 2.0),
            ],
            CommMode::Parallel,
        );
        let r = simulate(&platform2(), &s);
        let total = |spans: &[(usize, f64, f64)]| spans.iter().map(|&(_, s, e)| e - s).sum::<f64>();
        assert_eq!(total(&r.timelines[0].recvs), 6.0);
        assert_eq!(total(&r.timelines[0].computes), 6.0);
    }
}
