//! Spans recorded by the benchmark around its calls into each layer.
//!
//! A span is `(name, t0, t1, parent, op_id)`; spans of one op share the
//! op id. They stay in memory and are written as one Chrome-trace JSON
//! when the run ends. With the tracer disabled every call is a plain
//! passthrough, which is how the untraced run measures.

use std::time::Instant;

pub struct Span {
    pub name: &'static str,
    /// Seconds since the tracer was made.
    pub t0: f64,
    pub t1: f64,
    pub parent: Option<usize>,
    pub op_id: u64,
    /// Chrome-trace lane: 0 for the benchmark's main thread, 1.. for
    /// client connections.
    pub lane: u32,
}

pub struct Tracer {
    pub enabled: bool,
    origin: Instant,
    pub spans: Vec<Span>,
    stack: Vec<usize>,
}

impl Tracer {
    pub fn new(enabled: bool) -> Tracer {
        Tracer {
            enabled,
            origin: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
        }
    }

    pub fn now(&self) -> f64 {
        self.origin.elapsed().as_secs_f64()
    }

    /// Seconds of `t` on this tracer's clock.
    pub fn at(&self, t: Instant) -> f64 {
        t.saturating_duration_since(self.origin).as_secs_f64()
    }

    /// Run `f` under a span on the main lane; spans opened inside `f`
    /// become its children.
    pub fn span<R>(
        &mut self,
        name: &'static str,
        op_id: u64,
        f: impl FnOnce(&mut Tracer) -> R,
    ) -> R {
        if !self.enabled {
            return f(self);
        }
        let idx = self.spans.len();
        let t0 = self.now();
        self.spans.push(Span {
            name,
            t0,
            t1: t0,
            parent: self.stack.last().copied(),
            op_id,
            lane: 0,
        });
        self.stack.push(idx);
        let out = f(self);
        self.stack.pop();
        self.spans[idx].t1 = self.now();
        out
    }

    /// Record a span another thread timed (client-side send → reply).
    pub fn add(&mut self, name: &'static str, op_id: u64, lane: u32, t0: f64, t1: f64) {
        if self.enabled {
            self.spans.push(Span {
                name,
                t0,
                t1,
                parent: None,
                op_id,
                lane,
            });
        }
    }

    /// Self seconds per span: its duration minus its direct children's.
    fn self_times(&self) -> Vec<f64> {
        let mut own: Vec<f64> = self.spans.iter().map(|s| s.t1 - s.t0).collect();
        for s in &self.spans {
            if let Some(p) = s.parent {
                own[p] -= s.t1 - s.t0;
            }
        }
        own.iter().map(|t| t.max(0.0)).collect()
    }

    /// `(name, count, total seconds, self seconds)` per span name, in first
    /// appearance order.
    pub fn summary(&self) -> Vec<(&'static str, usize, f64, f64)> {
        let own = self.self_times();
        let mut rows: Vec<(&'static str, usize, f64, f64)> = Vec::new();
        for (s, self_s) in self.spans.iter().zip(own) {
            match rows.iter_mut().find(|r| r.0 == s.name) {
                Some(r) => {
                    r.1 += 1;
                    r.2 += s.t1 - s.t0;
                    r.3 += self_s;
                }
                None => rows.push((s.name, 1, s.t1 - s.t0, self_s)),
            }
        }
        rows
    }

    /// Share of the wall time of the spans called `root` that their direct
    /// children account for (0 when no such span has a child).
    pub fn coverage(&self, root: &str) -> f64 {
        match self.summary().iter().find(|r| r.0 == root) {
            Some(&(_, _, total, own)) if total > 0.0 => (total - own) / total,
            _ => 0.0,
        }
    }

    pub fn chrome_json(&self) -> String {
        let events: Vec<String> = self
            .spans
            .iter()
            .map(|s| {
                let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
                format!(
                    "{{\"name\":\"{}\",\"ph\":\"X\",\"pid\":1,\"tid\":{},\"ts\":{:.3},\"dur\":{:.3},\
                     \"args\":{{\"op\":{},\"parent\":{}}}}}",
                    s.name,
                    s.lane,
                    s.t0 * 1e6,
                    (s.t1 - s.t0) * 1e6,
                    s.op_id,
                    parent
                )
            })
            .collect();
        format!("{{\"traceEvents\":[{}]}}\n", events.join(",\n"))
    }
}
