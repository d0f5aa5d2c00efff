//! Lightweight execution metrics.
//!
//! The paper's performance story lives in runtime observability: which
//! kernel class dominates, how deep the ready queue stays (starvation vs.
//! saturation), how evenly the adaptive tile formats load the workers, and
//! how much precision-conversion traffic the format mix generates. This
//! module aggregates those signals during a [`crate::exec`] run into a
//! [`MetricsReport`] that serializes to JSON next to the Chrome trace
//! export ([`crate::stats::chrome_trace_json`]).
//!
//! Collection is cheap by construction: workers accumulate into
//! thread-local scratch merged once at the end, and queue depth is sampled
//! inside the queue mutex that is already held.

use crate::convert::ConversionCounts;
use crate::validate::ValidationSummary;

/// Number of log-scale duration buckets in [`TimeHistogram`].
pub const HIST_BUCKETS: usize = 24;

/// Log₂-scale histogram of task durations.
///
/// Bucket 0 holds durations under 1 µs; bucket `i >= 1` holds
/// `[2^(i-1), 2^i)` µs; the last bucket is open-ended (≈ 84 min and up).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct TimeHistogram {
    pub buckets: [u64; HIST_BUCKETS],
}

impl TimeHistogram {
    pub fn record(&mut self, seconds: f64) {
        self.buckets[Self::bucket_index(seconds)] += 1;
    }

    /// Bucket a duration falls into (NaN and negatives clamp to bucket 0).
    pub fn bucket_index(seconds: f64) -> usize {
        let us = seconds * 1e6;
        if us.is_nan() || us < 1.0 {
            return 0;
        }
        let exp = (us as u64).ilog2() as usize + 1;
        exp.min(HIST_BUCKETS - 1)
    }

    pub fn merge(&mut self, other: &TimeHistogram) {
        for (a, b) in self.buckets.iter_mut().zip(other.buckets.iter()) {
            *a += b;
        }
    }

    pub fn count(&self) -> u64 {
        self.buckets.iter().sum()
    }
}

/// Aggregated timing of one kernel class ("potrf", "gemm", ...).
#[derive(Clone, Copy, Debug)]
pub struct KernelStats {
    pub kind: &'static str,
    pub count: u64,
    pub total_seconds: f64,
    pub min_seconds: f64,
    pub max_seconds: f64,
    pub histogram: TimeHistogram,
}

impl KernelStats {
    pub fn new(kind: &'static str) -> KernelStats {
        KernelStats {
            kind,
            count: 0,
            total_seconds: 0.0,
            min_seconds: f64::INFINITY,
            max_seconds: 0.0,
            histogram: TimeHistogram::default(),
        }
    }

    pub fn record(&mut self, seconds: f64) {
        self.count += 1;
        self.total_seconds += seconds;
        self.min_seconds = self.min_seconds.min(seconds);
        self.max_seconds = self.max_seconds.max(seconds);
        self.histogram.record(seconds);
    }

    pub fn merge(&mut self, other: &KernelStats) {
        self.count += other.count;
        self.total_seconds += other.total_seconds;
        self.min_seconds = self.min_seconds.min(other.min_seconds);
        self.max_seconds = self.max_seconds.max(other.max_seconds);
        self.histogram.merge(&other.histogram);
    }

    pub fn mean_seconds(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.total_seconds / self.count as f64
        }
    }
}

/// Ready-queue depth, sampled at every pop and push batch.
#[derive(Clone, Copy, Debug, Default)]
pub struct QueueDepthStats {
    pub samples: u64,
    pub sum: u64,
    pub max: usize,
}

impl QueueDepthStats {
    pub fn sample(&mut self, depth: usize) {
        self.samples += 1;
        self.sum += depth as u64;
        self.max = self.max.max(depth);
    }

    pub fn merge(&mut self, other: &QueueDepthStats) {
        self.samples += other.samples;
        self.sum += other.sum;
        self.max = self.max.max(other.max);
    }

    /// Mean sampled depth (0.0 with no samples).
    pub fn mean(&self) -> f64 {
        if self.samples == 0 {
            0.0
        } else {
            self.sum as f64 / self.samples as f64
        }
    }
}

/// Per-worker execution counters.
#[derive(Clone, Copy, Debug, Default)]
pub struct WorkerStats {
    pub busy_seconds: f64,
    /// Tasks this worker executed.
    pub tasks: u64,
    /// Times this worker parked waiting for the queue.
    pub parks: u64,
}

/// Bytes-on-wire census for one frame kind of the shard protocol
/// ("hello", "tile", ...). `bytes` counts full frames — the 5-byte
/// length/kind header plus the payload — in both directions, as seen from
/// the coordinator (the hub sees all traffic). The distsim projection
/// budgets with the same closed form, so measured and projected censuses
/// are directly comparable.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct WireStats {
    pub kind: &'static str,
    pub frames: u64,
    pub bytes: u64,
}

/// Work-stealing pool activity during a run: a delta of the `rayon` pool's
/// cumulative counters. `jobs` counts chunks executed by pool workers,
/// `inline_jobs` chunks the submitting thread ran while waiting, `steals`
/// deque-to-deque ticket thefts, `parks` worker sleeps on an empty pool.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct PoolCounters {
    pub workers: usize,
    pub jobs: u64,
    pub inline_jobs: u64,
    pub steals: u64,
    pub parks: u64,
}

/// Everything the runtime observed about one graph execution.
#[derive(Clone, Debug, Default)]
pub struct MetricsReport {
    pub wall_seconds: f64,
    pub tasks: usize,
    pub workers: usize,
    /// Per kernel class, sorted by descending total time.
    pub kernels: Vec<KernelStats>,
    pub queue_depth: QueueDepthStats,
    pub worker_stats: Vec<WorkerStats>,
    /// Precision conversions performed during the run (delta of the
    /// process-global [`crate::convert`] counters).
    pub conversions: ConversionCounts,
    /// Bytes-on-wire census per frame kind (sharded runs and distsim
    /// projections; empty for in-process executions).
    pub wire: Vec<WireStats>,
    /// Present when the schedule validator ran (and passed).
    pub validation: Option<ValidationSummary>,
    /// Present when intra-kernel parallel work ran on the shared
    /// work-stealing pool during the measured region.
    pub pool: Option<PoolCounters>,
}

impl MetricsReport {
    /// Accumulate another run's metrics into this one (e.g. to summarize
    /// all factorizations of an MLE optimization). Wall time, task counts,
    /// conversions, and validation censuses add; per-kernel and per-worker
    /// stats merge element-wise; worker count takes the maximum.
    pub fn merge(&mut self, other: &MetricsReport) {
        self.wall_seconds += other.wall_seconds;
        self.tasks += other.tasks;
        self.workers = self.workers.max(other.workers);
        for ok in &other.kernels {
            match self.kernels.iter_mut().find(|k| k.kind == ok.kind) {
                Some(k) => k.merge(ok),
                None => self.kernels.push(*ok),
            }
        }
        self.kernels
            .sort_by(|a, b| b.total_seconds.total_cmp(&a.total_seconds));
        self.queue_depth.merge(&other.queue_depth);
        if self.worker_stats.len() < other.worker_stats.len() {
            self.worker_stats
                .resize(other.worker_stats.len(), WorkerStats::default());
        }
        for (w, ow) in self.worker_stats.iter_mut().zip(&other.worker_stats) {
            w.busy_seconds += ow.busy_seconds;
            w.tasks += ow.tasks;
            w.parks += ow.parks;
        }
        for ow in &other.wire {
            match self.wire.iter_mut().find(|w| w.kind == ow.kind) {
                Some(w) => {
                    w.frames += ow.frames;
                    w.bytes += ow.bytes;
                }
                None => self.wire.push(*ow),
            }
        }
        let c = &other.conversions;
        self.conversions.f64_to_f32 += c.f64_to_f32;
        self.conversions.f64_to_f16 += c.f64_to_f16;
        self.conversions.f32_to_f64 += c.f32_to_f64;
        self.conversions.f32_to_f16 += c.f32_to_f16;
        self.conversions.f16_to_f32 += c.f16_to_f32;
        self.conversions.f16_to_f64 += c.f16_to_f64;
        match (&mut self.validation, &other.validation) {
            (Some(a), Some(b)) => a.add(b),
            (None, Some(b)) => self.validation = Some(*b),
            _ => {}
        }
        match (&mut self.pool, &other.pool) {
            (Some(a), Some(b)) => {
                a.workers = a.workers.max(b.workers);
                a.jobs += b.jobs;
                a.inline_jobs += b.inline_jobs;
                a.steals += b.steals;
                a.parks += b.parks;
            }
            (None, Some(b)) => self.pool = Some(*b),
            _ => {}
        }
    }

    /// Serialize to a JSON object (schema documented in the repository
    /// README under "Metrics JSON"), written by
    /// [`JsonValue::to_json_string`](crate::json::JsonValue::to_json_string):
    /// a non-finite value reads `null`, never `NaN`.
    pub fn to_json(&self) -> String {
        use crate::json::JsonValue as J;
        let kernels = self.kernels.iter().map(|k| {
            J::object([
                ("kind", k.kind.into()),
                ("count", k.count.into()),
                ("total_seconds", k.total_seconds.into()),
                ("mean_seconds", k.mean_seconds().into()),
                (
                    "min_seconds",
                    if k.count == 0 { 0.0 } else { k.min_seconds }.into(),
                ),
                ("max_seconds", k.max_seconds.into()),
                (
                    "histogram_log2us",
                    J::Array(k.histogram.buckets.iter().map(|&b| b.into()).collect()),
                ),
            ])
        });
        let workers = self.worker_stats.iter().enumerate().map(|(w, s)| {
            J::object([
                ("worker", w.into()),
                ("busy_seconds", s.busy_seconds.into()),
                ("tasks", s.tasks.into()),
                ("parks", s.parks.into()),
            ])
        });
        let wire = self.wire.iter().map(|w| {
            J::object([
                ("kind", w.kind.into()),
                ("frames", w.frames.into()),
                ("bytes", w.bytes.into()),
            ])
        });
        let c = &self.conversions;
        let validation = self.validation.as_ref().map_or(J::Null, |v| {
            J::object([
                ("edges_checked", v.edges_checked.into()),
                ("raw_edges", v.raw_edges.into()),
                ("war_edges", v.war_edges.into()),
                ("waw_edges", v.waw_edges.into()),
                ("edges_skipped", v.edges_skipped.into()),
            ])
        });
        let pool = self.pool.as_ref().map_or(J::Null, |p| {
            J::object([
                ("workers", p.workers.into()),
                ("jobs", p.jobs.into()),
                ("inline_jobs", p.inline_jobs.into()),
                ("steals", p.steals.into()),
                ("parks", p.parks.into()),
            ])
        });
        J::object([
            ("wall_seconds", self.wall_seconds.into()),
            ("tasks", self.tasks.into()),
            ("workers", self.workers.into()),
            ("kernels", J::Array(kernels.collect())),
            (
                "queue_depth",
                J::object([
                    ("samples", self.queue_depth.samples.into()),
                    ("max", self.queue_depth.max.into()),
                    ("mean", self.queue_depth.mean().into()),
                ]),
            ),
            ("worker_stats", J::Array(workers.collect())),
            (
                "conversions",
                J::object([
                    ("f64_to_f32", c.f64_to_f32.into()),
                    ("f64_to_f16", c.f64_to_f16.into()),
                    ("f32_to_f64", c.f32_to_f64.into()),
                    ("f32_to_f16", c.f32_to_f16.into()),
                    ("f16_to_f32", c.f16_to_f32.into()),
                    ("f16_to_f64", c.f16_to_f64.into()),
                    ("total", c.total().into()),
                    ("demotions", c.demotions().into()),
                    ("promotions", c.promotions().into()),
                    (
                        "bytes",
                        J::Object(
                            c.bytes()
                                .into_iter()
                                .chain([("total", c.total_bytes())])
                                .map(|(k, b)| (k.to_string(), b.into()))
                                .collect(),
                        ),
                    ),
                ]),
            ),
            ("wire", J::Array(wire.collect())),
            ("validation", validation),
            ("pool", pool),
        ])
        .to_json_string()
    }

    /// Parse a report back from its [`MetricsReport::to_json`] export.
    ///
    /// Missing fields default to zero/empty so the reader stays tolerant of
    /// schema growth; structurally invalid documents are an error. Kernel
    /// kinds are interned (the well-known names map to the static strings
    /// the runtime itself uses; unknown kinds leak a one-off allocation,
    /// which is fine for the report-analysis tools this feeds).
    pub fn from_json(input: &str) -> Result<MetricsReport, crate::json::JsonError> {
        use crate::json::{parse_json, JsonValue};

        fn num(v: Option<&JsonValue>) -> f64 {
            v.and_then(JsonValue::as_f64).unwrap_or(0.0)
        }
        fn count(v: Option<&JsonValue>) -> u64 {
            v.and_then(JsonValue::as_u64).unwrap_or(0)
        }
        fn intern_kind(name: &str) -> &'static str {
            const KNOWN: &[&str] = &[
                "potrf",
                "trsm",
                "syrk",
                "gemm",
                "generate",
                "compress",
                "convert",
                "solve",
                "batch_solve",
                "batch_size",
                "request",
                "shed",
                "deadline",
                "evict",
                "even",
                "odd",
                "hello",
                "tile",
                "task",
                "done",
                "join",
                "heartbeat",
                "assign",
                "worker_join",
                "worker_death",
                "panel_replay",
                "standby_promote",
            ];
            KNOWN
                .iter()
                .find(|k| **k == name)
                .copied()
                .unwrap_or_else(|| Box::leak(name.to_string().into_boxed_str()))
        }

        let doc = parse_json(input)?;
        let mut report = MetricsReport {
            wall_seconds: num(doc.get("wall_seconds")),
            tasks: count(doc.get("tasks")) as usize,
            workers: count(doc.get("workers")) as usize,
            ..MetricsReport::default()
        };

        for k in doc
            .get("kernels")
            .and_then(JsonValue::as_array)
            .unwrap_or(&[])
        {
            let kind = intern_kind(k.get("kind").and_then(JsonValue::as_str).unwrap_or("?"));
            let mut ks = KernelStats::new(kind);
            ks.count = count(k.get("count"));
            ks.total_seconds = num(k.get("total_seconds"));
            ks.max_seconds = num(k.get("max_seconds"));
            ks.min_seconds = if ks.count == 0 {
                f64::INFINITY
            } else {
                num(k.get("min_seconds"))
            };
            if let Some(buckets) = k.get("histogram_log2us").and_then(JsonValue::as_array) {
                for (slot, b) in ks.histogram.buckets.iter_mut().zip(buckets) {
                    *slot = b.as_u64().unwrap_or(0);
                }
            }
            report.kernels.push(ks);
        }

        if let Some(q) = doc.get("queue_depth") {
            report.queue_depth.samples = count(q.get("samples"));
            report.queue_depth.max = count(q.get("max")) as usize;
            // `sum` is reconstructed from the exported mean.
            report.queue_depth.sum =
                (num(q.get("mean")) * report.queue_depth.samples as f64).round() as u64;
        }

        for w in doc
            .get("worker_stats")
            .and_then(JsonValue::as_array)
            .unwrap_or(&[])
        {
            report.worker_stats.push(WorkerStats {
                busy_seconds: num(w.get("busy_seconds")),
                tasks: count(w.get("tasks")),
                parks: count(w.get("parks")),
            });
        }

        if let Some(c) = doc.get("conversions") {
            report.conversions = ConversionCounts {
                f64_to_f32: count(c.get("f64_to_f32")),
                f64_to_f16: count(c.get("f64_to_f16")),
                f32_to_f64: count(c.get("f32_to_f64")),
                f32_to_f16: count(c.get("f32_to_f16")),
                f16_to_f32: count(c.get("f16_to_f32")),
                f16_to_f64: count(c.get("f16_to_f64")),
            };
        }

        for w in doc.get("wire").and_then(JsonValue::as_array).unwrap_or(&[]) {
            report.wire.push(WireStats {
                kind: intern_kind(w.get("kind").and_then(JsonValue::as_str).unwrap_or("?")),
                frames: count(w.get("frames")),
                bytes: count(w.get("bytes")),
            });
        }

        match doc.get("validation") {
            Some(v) if !v.is_null() => {
                report.validation = Some(ValidationSummary {
                    edges_checked: count(v.get("edges_checked")),
                    raw_edges: count(v.get("raw_edges")),
                    war_edges: count(v.get("war_edges")),
                    waw_edges: count(v.get("waw_edges")),
                    edges_skipped: count(v.get("edges_skipped")),
                });
            }
            _ => {}
        }
        match doc.get("pool") {
            Some(p) if !p.is_null() => {
                report.pool = Some(PoolCounters {
                    workers: count(p.get("workers")) as usize,
                    jobs: count(p.get("jobs")),
                    inline_jobs: count(p.get("inline_jobs")),
                    steals: count(p.get("steals")),
                    parks: count(p.get("parks")),
                });
            }
            _ => {}
        }
        Ok(report)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn histogram_bucket_boundaries() {
        assert_eq!(TimeHistogram::bucket_index(0.0), 0);
        assert_eq!(TimeHistogram::bucket_index(-1.0), 0);
        assert_eq!(TimeHistogram::bucket_index(f64::NAN), 0);
        assert_eq!(TimeHistogram::bucket_index(0.9e-6), 0);
        assert_eq!(TimeHistogram::bucket_index(1.0e-6), 1); // [1, 2) µs
        assert_eq!(TimeHistogram::bucket_index(1.9e-6), 1);
        assert_eq!(TimeHistogram::bucket_index(2.0e-6), 2); // [2, 4) µs
        assert_eq!(TimeHistogram::bucket_index(1.0e-3), 10); // [512, 1024) µs
        assert_eq!(TimeHistogram::bucket_index(1e9), HIST_BUCKETS - 1);
    }

    #[test]
    fn histogram_records_and_merges() {
        let mut a = TimeHistogram::default();
        a.record(1.5e-6);
        a.record(3e-6);
        let mut b = TimeHistogram::default();
        b.record(1.2e-6);
        a.merge(&b);
        assert_eq!(a.count(), 3);
        assert_eq!(a.buckets[1], 2);
        assert_eq!(a.buckets[2], 1);
    }

    #[test]
    fn kernel_stats_track_extremes() {
        let mut k = KernelStats::new("gemm");
        k.record(2e-3);
        k.record(1e-3);
        k.record(5e-3);
        assert_eq!(k.count, 3);
        assert!((k.total_seconds - 8e-3).abs() < 1e-12);
        assert_eq!(k.min_seconds, 1e-3);
        assert_eq!(k.max_seconds, 5e-3);
        assert!((k.mean_seconds() - 8e-3 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn empty_kernel_stats_have_no_nans() {
        let k = KernelStats::new("potrf");
        assert_eq!(k.mean_seconds(), 0.0);
        let mut m = MetricsReport::default();
        m.kernels.push(k);
        let json = m.to_json();
        assert!(!json.contains("NaN"));
        assert!(!json.contains("inf"));
        assert!(json.contains("\"min_seconds\":0"));
        // A non-finite value that does reach the writer stays valid JSON,
        // and a kind with a quote in it is escaped, so the reader accepts
        // both.
        m.wall_seconds = f64::NAN;
        m.kernels.push(KernelStats::new("a\"b"));
        let json = m.to_json();
        assert!(json.contains("\"wall_seconds\":null"), "{json}");
        let back = MetricsReport::from_json(&json).expect("own export parses");
        assert_eq!(back.kernels[1].kind, "a\"b");
    }

    #[test]
    fn queue_depth_mean_is_sample_weighted() {
        let mut q = QueueDepthStats::default();
        q.sample(2);
        q.sample(6);
        assert_eq!(q.samples, 2);
        assert_eq!(q.max, 6);
        assert_eq!(q.mean(), 4.0);
        assert_eq!(QueueDepthStats::default().mean(), 0.0);
    }

    #[test]
    fn json_has_expected_shape() {
        let mut m = MetricsReport {
            wall_seconds: 0.5,
            tasks: 3,
            workers: 2,
            worker_stats: vec![WorkerStats::default(); 2],
            validation: Some(ValidationSummary {
                edges_checked: 4,
                raw_edges: 2,
                war_edges: 1,
                waw_edges: 1,
                edges_skipped: 3,
            }),
            ..MetricsReport::default()
        };
        let mut k = KernelStats::new("trsm");
        k.record(1e-3);
        m.kernels.push(k);
        let json = m.to_json();
        assert!(json.starts_with('{') && json.ends_with('}'));
        assert!(json.contains("\"kind\":\"trsm\""));
        assert!(json.contains("\"edges_checked\":4"));
        assert!(json.contains("\"worker\":1"));
        assert!(json.contains("\"histogram_log2us\":["));
        // Balanced braces — cheap structural sanity for the hand-rolled JSON.
        assert_eq!(json.matches('{').count(), json.matches('}').count());
    }

    #[test]
    fn merge_accumulates_across_runs() {
        let mk = |kind, secs: f64, tasks| {
            let mut k = KernelStats::new(kind);
            k.record(secs);
            MetricsReport {
                wall_seconds: secs,
                tasks,
                workers: 2,
                kernels: vec![k],
                worker_stats: vec![
                    WorkerStats {
                        busy_seconds: secs,
                        tasks: tasks as u64,
                        parks: 1,
                    },
                    WorkerStats::default(),
                ],
                validation: Some(ValidationSummary {
                    edges_checked: 3,
                    ..Default::default()
                }),
                ..MetricsReport::default()
            }
        };
        let mut a = mk("gemm", 1.0, 10);
        a.merge(&mk("gemm", 2.0, 5));
        a.merge(&mk("trsm", 0.5, 1));
        assert_eq!(a.tasks, 16);
        assert!((a.wall_seconds - 3.5).abs() < 1e-12);
        assert_eq!(a.kernels.len(), 2);
        let gemm = a.kernels.iter().find(|k| k.kind == "gemm").unwrap();
        assert_eq!(gemm.count, 2);
        assert_eq!(a.kernels[0].kind, "gemm", "sorted by total time");
        assert_eq!(a.worker_stats[0].parks, 3);
        assert_eq!(a.validation.unwrap().edges_checked, 9);
    }

    #[test]
    fn json_validation_null_when_not_run() {
        let m = MetricsReport::default();
        assert!(m.to_json().contains("\"validation\":null"));
        assert!(m.to_json().contains("\"pool\":null"));
    }

    #[test]
    fn pool_counters_merge_and_survive_json() {
        let mk = |jobs, steals| MetricsReport {
            pool: Some(PoolCounters {
                workers: 4,
                jobs,
                inline_jobs: 1,
                steals,
                parks: 2,
            }),
            ..MetricsReport::default()
        };
        let mut a = MetricsReport::default();
        a.merge(&mk(10, 3)); // None + Some adopts
        a.merge(&mk(5, 1)); // Some + Some sums counters, maxes workers
        let p = a.pool.unwrap();
        assert_eq!(p.workers, 4);
        assert_eq!(p.jobs, 15);
        assert_eq!(p.inline_jobs, 2);
        assert_eq!(p.steals, 4);
        assert_eq!(p.parks, 4);
        let back = MetricsReport::from_json(&a.to_json()).expect("parse own export");
        assert_eq!(back.pool, a.pool);
        // Reports written before the pool existed parse with pool = None.
        let legacy = MetricsReport::default()
            .to_json()
            .replace(",\"pool\":null", "");
        assert!(MetricsReport::from_json(&legacy)
            .expect("legacy")
            .pool
            .is_none());
    }

    #[test]
    fn json_export_round_trips_through_from_json() {
        let mut m = MetricsReport {
            wall_seconds: 2.75,
            tasks: 12,
            workers: 3,
            worker_stats: vec![
                WorkerStats {
                    busy_seconds: 1.5,
                    tasks: 8,
                    parks: 2,
                },
                WorkerStats::default(),
                WorkerStats {
                    busy_seconds: 0.25,
                    tasks: 4,
                    parks: 0,
                },
            ],
            validation: Some(ValidationSummary {
                edges_checked: 10,
                raw_edges: 6,
                war_edges: 3,
                waw_edges: 1,
                edges_skipped: 7,
            }),
            pool: Some(PoolCounters {
                workers: 4,
                jobs: 120,
                inline_jobs: 17,
                steals: 9,
                parks: 33,
            }),
            ..MetricsReport::default()
        };
        m.conversions.f64_to_f32 = 9;
        m.wire.push(WireStats {
            kind: "tile",
            frames: 40,
            bytes: 123456,
        });
        m.wire.push(WireStats {
            kind: "task",
            frames: 55,
            bytes: 1925,
        });
        m.queue_depth.sample(2);
        m.queue_depth.sample(4);
        let mut gemm = KernelStats::new("gemm");
        gemm.record(1e-3);
        gemm.record(3e-3);
        m.kernels.push(gemm);
        let mut custom = KernelStats::new("batch_size");
        custom.record(8e-6);
        m.kernels.push(custom);

        let back = MetricsReport::from_json(&m.to_json()).expect("parse own export");
        assert_eq!(back.wall_seconds, m.wall_seconds);
        assert_eq!(back.tasks, 12);
        assert_eq!(back.workers, 3);
        assert_eq!(back.kernels.len(), 2);
        let g = back.kernels.iter().find(|k| k.kind == "gemm").unwrap();
        assert_eq!(g.count, 2);
        assert_eq!(g.total_seconds, 4e-3);
        assert_eq!(g.min_seconds, 1e-3);
        assert_eq!(g.max_seconds, 3e-3);
        assert_eq!(g.histogram, m.kernels[0].histogram);
        assert_eq!(back.queue_depth.samples, 2);
        assert_eq!(back.queue_depth.max, 4);
        assert_eq!(back.queue_depth.mean(), 3.0);
        assert_eq!(back.worker_stats.len(), 3);
        assert_eq!(back.worker_stats[0].tasks, 8);
        assert_eq!(back.conversions.f64_to_f32, 9);
        assert_eq!(back.wire, m.wire);
        assert_eq!(back.validation, m.validation);
        assert_eq!(back.pool, m.pool);
        // A reparsed report can merge with a live one (kind interning gives
        // back pointer-comparable statics for known kinds).
        let mut live = MetricsReport::default();
        let mut k = KernelStats::new("gemm");
        k.record(5e-3);
        live.kernels.push(k);
        live.merge(&back);
        assert_eq!(
            live.kernels
                .iter()
                .find(|k| k.kind == "gemm")
                .unwrap()
                .count,
            3
        );
    }

    #[test]
    fn from_json_rejects_garbage_and_tolerates_missing_fields() {
        assert!(MetricsReport::from_json("not json").is_err());
        let minimal = MetricsReport::from_json("{}").unwrap();
        assert_eq!(minimal.tasks, 0);
        assert!(minimal.kernels.is_empty());
        assert!(minimal.wire.is_empty());
        assert!(minimal.validation.is_none());
    }

    #[test]
    fn wire_census_merges_by_kind() {
        let mk = |frames, bytes| MetricsReport {
            wire: vec![WireStats {
                kind: "tile",
                frames,
                bytes,
            }],
            ..MetricsReport::default()
        };
        let mut a = mk(10, 1000);
        a.merge(&mk(5, 500));
        a.merge(&MetricsReport {
            wire: vec![WireStats {
                kind: "done",
                frames: 3,
                bytes: 93,
            }],
            ..MetricsReport::default()
        });
        assert_eq!(a.wire.len(), 2);
        let tile = a.wire.iter().find(|w| w.kind == "tile").unwrap();
        assert_eq!((tile.frames, tile.bytes), (15, 1500));
    }
}
