//! Per-task execution traces ([`crate::MetricsReport::trace`]) and their
//! Chrome Tracing export.

use crate::graph::TaskId;

/// One executed task in the trace.
#[derive(Clone, Copy, Debug)]
pub struct TraceEvent {
    pub task: TaskId,
    pub kind: &'static str,
    /// Tile coordinates `(i, j)` when the task was inserted with
    /// [`crate::TaskGraph::insert_at`].
    pub coords: Option<(u32, u32)>,
    pub worker: usize,
    /// Seconds since execution start.
    pub start: f64,
    pub end: f64,
}

impl TraceEvent {
    pub fn duration(&self) -> f64 {
        self.end - self.start
    }
}

/// Export a trace as Chrome Tracing JSON (`chrome://tracing`, Perfetto).
///
/// Workers map to thread lanes; each task becomes one complete ("X")
/// event, giving the Gantt view the paper uses to discuss load imbalance
/// under the adaptive formats.
pub fn chrome_trace_json(trace: &[TraceEvent]) -> String {
    let mut out = String::from("[\n");
    for (i, e) in trace.iter().enumerate() {
        let tile = match e.coords {
            Some((r, c)) => format!(", \"tile\": [{r}, {c}]"),
            None => String::new(),
        };
        out.push_str(&format!(
            "  {{\"name\": \"{}\", \"cat\": \"task\", \"ph\": \"X\", \"ts\": {:.3}, \
             \"dur\": {:.3}, \"pid\": 1, \"tid\": {}, \"args\": {{\"task\": {}{}}}}}{}\n",
            e.kind,
            e.start * 1e6,
            e.duration() * 1e6,
            e.worker,
            e.task.0,
            tile,
            if i + 1 == trace.len() { "" } else { "," }
        ));
    }
    out.push(']');
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(task: usize, kind: &'static str, worker: usize, start: f64, end: f64) -> TraceEvent {
        TraceEvent {
            task: TaskId(task),
            kind,
            coords: None,
            worker,
            start,
            end,
        }
    }

    #[test]
    fn chrome_trace_is_valid_shape() {
        let trace = vec![
            TraceEvent {
                task: TaskId(0),
                kind: "potrf",
                coords: Some((3, 3)),
                worker: 0,
                start: 0.0,
                end: 0.5e-3,
            },
            ev(1, "gemm", 1, 0.2e-3, 1.0e-3),
        ];
        let json = chrome_trace_json(&trace);
        assert!(json.starts_with('['));
        assert!(json.ends_with(']'));
        assert!(json.contains("\"name\": \"potrf\""));
        assert!(json.contains("\"tile\": [3, 3]"));
        assert!(json.contains("\"tid\": 1"));
        // Two events, one comma between them.
        assert_eq!(json.matches("\"ph\": \"X\"").count(), 2);
        // The coordinate-less event carries no tile annotation.
        assert_eq!(json.matches("\"tile\"").count(), 1);
    }

    #[test]
    fn chrome_trace_empty() {
        assert_eq!(chrome_trace_json(&[]), "[\n]");
    }
}
