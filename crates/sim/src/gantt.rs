//! ASCII Gantt charts of simulation traces.
//!
//! Used by the experiment artifacts that regenerate the paper's illustrative
//! figures (the sample-sort phases of Figure 1 and the outer-product-based
//! matrix multiplication of Figure 3) as machine-checkable traces.

use std::fmt::Write as _;

/// Kind of activity an event represents.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TraceKind {
    /// Data reception from the master.
    Recv,
    /// Computation.
    Compute,
    /// Anything else (labelled phases, broadcasts, ...).
    Phase,
}

impl TraceKind {
    /// Glyph used when rendering.
    fn glyph(self) -> char {
        match self {
            TraceKind::Recv => '-',
            TraceKind::Compute => '#',
            TraceKind::Phase => '~',
        }
    }
}

/// One horizontal bar of the chart.
#[derive(Debug, Clone, PartialEq)]
pub struct TraceEvent {
    /// Worker the activity belongs to.
    pub worker: usize,
    /// Activity kind (decides the glyph).
    pub kind: TraceKind,
    /// Free-form label shown in the event listing.
    pub label: String,
    /// Start time.
    pub start: f64,
    /// End time (`end >= start`).
    pub end: f64,
}

impl TraceEvent {
    /// Convenience constructor.
    pub fn new(worker: usize, kind: TraceKind, label: &str, start: f64, end: f64) -> Self {
        assert!(end >= start, "event ends before it starts");
        Self {
            worker,
            kind,
            label: label.to_string(),
            start,
            end,
        }
    }
}

/// Renders events as one row per worker, `width` characters of timeline.
///
/// Later events overwrite earlier glyphs on overlap, which is the right
/// visual for "compute hides behind the next receive" pipelining. Instant
/// (zero-length) events are drawn as a single glyph.
pub fn ascii_gantt(events: &[TraceEvent], width: usize) -> String {
    assert!(width >= 10, "gantt width too small");
    let mut out = String::new();
    if events.is_empty() {
        let _ = writeln!(out, "(empty trace)");
        return out;
    }
    let t_end = events.iter().map(|e| e.end).fold(0.0, f64::max).max(1e-12);
    let n_workers = events.iter().map(|e| e.worker).max().unwrap() + 1;
    let mut rows = vec![vec![' '; width]; n_workers];
    let scale =
        |t: f64| -> usize { (((t / t_end) * (width - 1) as f64).round() as usize).min(width - 1) };
    for e in events {
        let (a, b) = (scale(e.start), scale(e.end));
        for cell in rows[e.worker][a..=b].iter_mut() {
            *cell = e.kind.glyph();
        }
    }
    let _ = writeln!(out, "time 0 {:->w$} {t_end:.2}", ">", w = width - 2);
    for (w, row) in rows.iter().enumerate() {
        let line: String = row.iter().collect();
        let _ = writeln!(out, "P{:<3} |{line}|", w + 1);
    }
    let _ = writeln!(out, "legend: '-' recv   '#' compute   '~' phase");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_one_row_per_worker() {
        let events = vec![
            TraceEvent::new(0, TraceKind::Recv, "r", 0.0, 1.0),
            TraceEvent::new(1, TraceKind::Compute, "c", 1.0, 2.0),
        ];
        let g = ascii_gantt(&events, 20);
        assert!(g.contains("P1"));
        assert!(g.contains("P2"));
        assert!(g.contains('-'));
        assert!(g.contains('#'));
    }

    #[test]
    fn empty_trace_renders_placeholder() {
        assert!(ascii_gantt(&[], 20).contains("empty trace"));
    }

    #[test]
    fn zero_length_event_draws_single_glyph() {
        let events = vec![TraceEvent::new(0, TraceKind::Phase, "p", 1.0, 1.0)];
        let g = ascii_gantt(&events, 20);
        let row = g.lines().find(|l| l.starts_with("P1")).unwrap();
        assert_eq!(row.matches('~').count(), 1);
    }

    #[test]
    fn compute_follows_recv_on_the_timeline() {
        let events = vec![
            TraceEvent::new(0, TraceKind::Recv, "r", 0.0, 5.0),
            TraceEvent::new(0, TraceKind::Compute, "c", 5.0, 10.0),
        ];
        let g = ascii_gantt(&events, 40);
        let row = g.lines().find(|l| l.starts_with("P1")).unwrap();
        let recv_pos = row.find('-').unwrap();
        let comp_pos = row.find('#').unwrap();
        assert!(recv_pos < comp_pos);
    }

    #[test]
    #[should_panic(expected = "ends before")]
    fn backwards_event_rejected() {
        let _ = TraceEvent::new(0, TraceKind::Recv, "bad", 2.0, 1.0);
    }
}
