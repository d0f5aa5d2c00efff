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
    // Timestamps in µs, rounded to the nanosecond.
    let us = |seconds: f64| (seconds * 1e9).round() / 1e3;
    let mut w = crate::json::Writer::new();
    w.begin_array_lines();
    for e in trace {
        w.begin_object();
        w.key("name").string(e.kind);
        w.key("cat").string("task");
        w.key("ph").string("X");
        w.key("ts").f64(us(e.start));
        w.key("dur").f64(us(e.duration()));
        w.key("pid").u64(1);
        w.key("tid").u64(e.worker as u64);
        w.key("args").begin_object();
        w.key("task").u64(e.task.0 as u64);
        if let Some((r, c)) = e.coords {
            w.key("tile").begin_array();
            w.u64(r.into()).u64(c.into()).end_array();
        }
        w.end_object().end_object();
    }
    w.end_array();
    w.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::{parse_json, JsonValue};

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
        let v = parse_json(&chrome_trace_json(&trace)).unwrap();
        let events = v.as_array().unwrap();
        // Two complete ("X") events.
        assert_eq!(events.len(), 2);
        assert!(events
            .iter()
            .all(|e| e.get("ph").unwrap().as_str() == Some("X")));
        assert_eq!(events[0].get("name").unwrap().as_str(), Some("potrf"));
        let tile = |e: &JsonValue| e.get("args").unwrap().get("tile").cloned();
        assert_eq!(
            tile(&events[0]),
            Some(JsonValue::Array(vec![3.0.into(), 3.0.into()]))
        );
        assert_eq!(events[1].get("tid").unwrap().as_u64(), Some(1));
        // The coordinate-less event carries no tile annotation.
        assert_eq!(tile(&events[1]), None);
    }

    #[test]
    fn chrome_trace_empty() {
        let v = parse_json(&chrome_trace_json(&[])).unwrap();
        assert_eq!(v.as_array().map(<[_]>::len), Some(0));
    }
}
