//! Request batching: bounded queue + coalescing policy + response routing.
//!
//! Concurrent predict requests against the same model are merged into one
//! multi-RHS solve — the cross-covariance assembly and the triangular
//! solves process every point of the batch in one pass over the cached
//! factor, which is where the service's throughput over one-shot CLI runs
//! comes from. Batching never changes results: each point's mean and
//! variance are computed column-independently (see the bitwise tests in
//! `xgs-core::predict` and `xgs-cholesky::solve`), so a batch of 64 equals
//! 64 singleton queries bit for bit.
//!
//! Two robustness properties live here:
//!
//! * **Backpressure** — the queue carries a total-points budget; once the
//!   backlog reaches it, [`BatchQueue::push`] refuses new work so the
//!   handler can shed the request with a `retry_after_ms` hint instead of
//!   queueing unboundedly ([`PushError::Overloaded`]).
//! * **Out-of-order delivery** — jobs carry a [`Responder`] that posts
//!   the *formatted* response line (id attached) to the event loop's
//!   [`CompletionHub`] under the connection's key, so answers flow back
//!   whenever their batch completes, independent of request order on the
//!   connection.

use std::collections::VecDeque;
use std::sync::Arc;
use std::time::Instant;

use parking_lot::{Condvar, Mutex};
use xgs_core::PredictionPlan;
use xgs_covariance::Location;

use crate::protocol::{predict_response, with_id};
use crate::reactor::CompletionHub;

/// One response line headed back to a connection, paired with the request
/// arrival time (the event loop records end-to-end latency as it drains
/// the hub) and an error flag.
pub(crate) struct Reply {
    /// Complete response line, id already attached, no trailing newline.
    pub line: String,
    /// When the request was read off the socket.
    pub t0: Instant,
    /// Whether this is an `{"ok":false,…}` response (for the error census).
    pub err: bool,
}

/// Where a request's answer goes: the completion hub, under the owning
/// connection's key. Solver and `load` threads never touch a socket; the
/// hub wakes the event loop, which owns them all. Consuming `send`
/// enforces exactly-one-response per accepted request. A connection that
/// hung up mid-flight still has its reply pushed, so the loop records it
/// for latency and drain accounting.
pub(crate) struct Responder {
    /// Serialized id to echo (`None` = request carried no id).
    pub id: Option<String>,
    pub hub: Arc<CompletionHub>,
    /// Poll key of the connection the request arrived on.
    pub conn: usize,
    pub t0: Instant,
}

impl Responder {
    /// Send a response body (a JSON object literal).
    pub fn send(self, body: String, err: bool) {
        let line = with_id(self.id.as_deref(), body);
        self.hub.push(
            self.conn,
            Reply {
                line,
                t0: self.t0,
                err,
            },
        );
    }
}

/// One enqueued predict request.
pub(crate) struct Job {
    /// Registry key — jobs only coalesce within the same model.
    pub model: String,
    pub plan: Arc<PredictionPlan>,
    pub points: Vec<Location>,
    pub uncertainty: bool,
    pub enqueued: Instant,
    /// Absolute per-request deadline; expired jobs are answered with a
    /// timeout error at dequeue instead of being solved (or dropped).
    pub deadline: Option<Instant>,
    pub resp: Responder,
}

/// Why a push was refused. The job comes back so its responder can still
/// answer the client (the drain invariant "every accepted request is
/// answered" extends to refused ones: they're answered *immediately*).
pub(crate) enum PushError {
    /// The queue's points budget is exhausted; shed with a retry hint.
    Overloaded {
        /// Backlog size at refusal time (for the retry_after estimate).
        queued_points: usize,
    },
    /// The queue has been closed (server draining).
    Closed,
}

struct Inner {
    jobs: VecDeque<Job>,
    /// Total points across `jobs` (the backpressure quantity: solve cost
    /// scales with points, not with request count).
    queued_points: usize,
    closed: bool,
}

/// MPMC job queue with same-model coalescing on pop and a points budget
/// on push.
pub(crate) struct BatchQueue {
    inner: Mutex<Inner>,
    cv: Condvar,
    /// Push refuses work once the backlog holds this many points. A single
    /// request larger than the budget is still accepted when the queue is
    /// empty (otherwise it could never run).
    max_queued_points: usize,
}

impl BatchQueue {
    pub fn new(max_queued_points: usize) -> BatchQueue {
        BatchQueue {
            inner: Mutex::new(Inner {
                jobs: VecDeque::new(),
                queued_points: 0,
                closed: false,
            }),
            cv: Condvar::new(),
            max_queued_points: max_queued_points.max(1),
        }
    }

    /// Enqueue a job, or hand it back with the refusal reason.
    // Returning the Job by value is the point: the caller must still
    // answer the client through its responder, and one ~170-byte move per
    // refused request is noise next to the solve it avoided.
    #[allow(clippy::result_large_err)]
    pub fn push(&self, job: Job) -> Result<(), (Job, PushError)> {
        let mut inner = self.inner.lock();
        if inner.closed {
            return Err((job, PushError::Closed));
        }
        if inner.queued_points >= self.max_queued_points {
            let queued_points = inner.queued_points;
            return Err((job, PushError::Overloaded { queued_points }));
        }
        inner.queued_points += job.points.len();
        inner.jobs.push_back(job);
        drop(inner);
        self.cv.notify_one();
        Ok(())
    }

    /// Block until work is available, then return a batch: the oldest job
    /// plus every queued job for the same `(model, uncertainty)` key, up
    /// to `max_points` total points. Returns `(batch, queue depth seen)`;
    /// `None` once the queue is closed and fully drained.
    pub fn pop_batch(&self, max_points: usize) -> Option<(Vec<Job>, usize)> {
        let mut inner = self.inner.lock();
        loop {
            if let Some(first) = inner.jobs.pop_front() {
                let depth = inner.jobs.len() + 1;
                let mut batch = vec![first];
                let mut points = batch[0].points.len();
                let mut i = 0;
                while i < inner.jobs.len() && points < max_points {
                    let same = inner.jobs[i].model == batch[0].model
                        && inner.jobs[i].uncertainty == batch[0].uncertainty;
                    if same {
                        // The loop guard keeps `i` in range so `remove`
                        // yields the job; the `None` arm skips it rather
                        // than trusting that proof with a panic.
                        match inner.jobs.remove(i) {
                            Some(job) => {
                                points += job.points.len();
                                batch.push(job);
                            }
                            None => i += 1,
                        }
                    } else {
                        i += 1;
                    }
                }
                inner.queued_points -= batch.iter().map(|j| j.points.len()).sum::<usize>();
                return Some((batch, depth));
            }
            if inner.closed {
                return None;
            }
            self.cv.wait(&mut inner);
        }
    }

    /// Current backlog in points (the backpressure quantity).
    #[cfg(test)]
    pub fn queued_points(&self) -> usize {
        self.inner.lock().queued_points
    }

    /// Close the queue: pending jobs still drain, new pushes are refused,
    /// and idle solvers wake up to exit.
    pub fn close(&self) {
        self.inner.lock().closed = true;
        self.cv.notify_all();
    }
}

/// Execute one coalesced batch: a single multi-point query against the
/// shared plan, then send each request's slice of the result back through
/// its responder. Returns `(total points, solve seconds, longest queue
/// wait of the batch)` for metrics.
pub(crate) fn solve_batch(batch: Vec<Job>) -> (usize, f64, f64) {
    let plan = batch[0].plan.clone();
    let uncertainty = batch[0].uncertainty;
    let n_requests = batch.len();
    let all_points: Vec<Location> = batch
        .iter()
        .flat_map(|j| j.points.iter().copied())
        .collect();
    let total = all_points.len();
    let max_wait = batch
        .iter()
        .map(|j| j.enqueued.elapsed().as_secs_f64())
        .fold(0.0, f64::max);

    let t0 = Instant::now();
    let result = plan.query(&all_points, uncertainty);
    let solve_seconds = t0.elapsed().as_secs_f64();

    let mut offset = 0;
    for job in batch {
        let k = job.points.len();
        let body = predict_response(
            &result.mean[offset..offset + k],
            result
                .uncertainty
                .as_deref()
                .map(|u| &u[offset..offset + k]),
            total,
            n_requests,
        );
        offset += k;
        job.resp.send(body, false);
    }
    (total, solve_seconds, max_wait)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use xgs_core::{simulate_field, ModelFamily};
    use xgs_covariance::jittered_grid;
    use xgs_runtime::parse_json;
    use xgs_tile::Variant;

    fn test_plan() -> Arc<PredictionPlan> {
        let mut rng = StdRng::seed_from_u64(5);
        let locs = jittered_grid(100, &mut rng);
        let kernel = ModelFamily::MaternSpace.kernel(&[1.0, 0.1, 0.5]);
        let z = simulate_field(kernel.as_ref(), &locs, 6);
        crate::registry::build_plan(
            ModelFamily::MaternSpace,
            &[1.0, 0.1, 0.5],
            Variant::DenseF64,
            32,
            locs,
            &z,
            1,
        )
        .unwrap()
        .0
    }

    /// A job whose reply lands on `hub` under connection key `conn`.
    fn job(
        hub: &Arc<CompletionHub>,
        conn: usize,
        plan: &Arc<PredictionPlan>,
        model: &str,
        points: Vec<Location>,
        uncertainty: bool,
    ) -> Job {
        let now = Instant::now();
        Job {
            model: model.to_string(),
            plan: plan.clone(),
            points,
            uncertainty,
            enqueued: now,
            deadline: None,
            resp: Responder {
                id: None,
                hub: hub.clone(),
                conn,
                t0: now,
            },
        }
    }

    #[test]
    fn pop_batch_coalesces_only_matching_jobs() {
        let plan = test_plan();
        let q = BatchQueue::new(1 << 16);
        let hub = CompletionHub::new().unwrap();
        let pts = |x: f64| vec![Location::new(x, 0.5)];
        let j1 = job(&hub, 1, &plan, "a", pts(0.1), false);
        let j2 = job(&hub, 1, &plan, "b", pts(0.2), false);
        let j3 = job(&hub, 1, &plan, "a", pts(0.3), false);
        let j4 = job(&hub, 1, &plan, "a", pts(0.4), true); // different key
        for j in [j1, j2, j3, j4] {
            assert!(q.push(j).is_ok());
        }
        assert_eq!(q.queued_points(), 4);

        let (batch, depth) = q.pop_batch(1024).unwrap();
        assert_eq!(depth, 4);
        assert_eq!(batch.len(), 2, "both 'a'/plain jobs coalesce");
        assert!(batch.iter().all(|j| j.model == "a" && !j.uncertainty));
        assert_eq!(q.queued_points(), 2);
        let (batch2, _) = q.pop_batch(1024).unwrap();
        assert_eq!(batch2[0].model, "b");
        let (batch3, _) = q.pop_batch(1024).unwrap();
        assert!(batch3[0].uncertainty);
        assert_eq!(q.queued_points(), 0);

        q.close();
        assert!(q.pop_batch(1024).is_none());
        let j5 = job(&hub, 1, &plan, "a", pts(0.5), false);
        assert!(
            matches!(q.push(j5), Err((_, PushError::Closed))),
            "closed queue refuses work"
        );
    }

    #[test]
    fn max_points_caps_a_batch() {
        let plan = test_plan();
        let q = BatchQueue::new(1 << 16);
        let hub = CompletionHub::new().unwrap();
        for i in 0..6 {
            let points = vec![Location::new(0.1 * i as f64, 0.5); 4];
            assert!(q.push(job(&hub, 1, &plan, "m", points, false)).is_ok());
        }
        // First pop stops adding once >= 8 points are gathered.
        let (batch, _) = q.pop_batch(8).unwrap();
        assert_eq!(batch.len(), 2);
        assert_eq!(batch.iter().map(|j| j.points.len()).sum::<usize>(), 8);
    }

    #[test]
    fn points_budget_sheds_past_the_cap() {
        let plan = test_plan();
        let q = BatchQueue::new(10);
        let hub = CompletionHub::new().unwrap();
        let mk = |n: usize| job(&hub, 1, &plan, "m", vec![Location::new(0.3, 0.5); n], false);

        // 4 + 4 fills to 8 < 10; the third push finds 8 < 10 and is
        // accepted (budget is a threshold, not a hard ceiling)…
        assert!(q.push(mk(4)).is_ok() && q.push(mk(4)).is_ok() && q.push(mk(4)).is_ok());
        assert_eq!(q.queued_points(), 12);
        // …and now the backlog ≥ budget: even a 1-point job is refused,
        // with the backlog size attached for the retry hint.
        match q.push(mk(1)) {
            Err((job, PushError::Overloaded { queued_points })) => {
                assert_eq!(queued_points, 12);
                assert_eq!(job.points.len(), 1, "job handed back intact");
            }
            _ => panic!("expected overload"),
        }
        // Draining restores capacity.
        let (batch, _) = q.pop_batch(1 << 16).unwrap();
        assert_eq!(batch.len(), 3);
        assert_eq!(q.queued_points(), 0);
        assert!(q.push(mk(1)).is_ok());

        // An empty queue accepts even a request larger than the budget
        // (it could otherwise never run).
        let q2 = BatchQueue::new(4);
        assert!(q2.push(mk(64)).is_ok());
    }

    #[test]
    fn solve_batch_scatters_slices_bitwise() {
        let plan = test_plan();
        let points: Vec<Location> = (0..9)
            .map(|i| Location::new(0.1 * i as f64, 0.37))
            .collect();
        // Reference: one flat query.
        let reference = plan.query(&points, true);

        // One connection key per request, so each reply is told apart.
        let hub = CompletionHub::new().unwrap();
        let jobs: Vec<Job> = points
            .chunks(3)
            .enumerate()
            .map(|(conn, chunk)| job(&hub, conn, &plan, "m", chunk.to_vec(), true))
            .collect();
        let (total, secs, wait) = solve_batch(jobs);
        assert_eq!(total, 9);
        assert!(secs >= 0.0 && wait >= 0.0);
        let mut replies = hub.drain();
        replies.sort_by_key(|(conn, _)| *conn);
        assert_eq!(replies.len(), 3, "one reply per job");
        let mut got_mean = Vec::new();
        let mut got_unc = Vec::new();
        for (_, reply) in replies {
            assert!(!reply.err);
            let v = parse_json(&reply.line).unwrap();
            let batch = v.get("batch").unwrap();
            assert_eq!(batch.get("points").unwrap().as_usize(), Some(9));
            assert_eq!(batch.get("requests").unwrap().as_usize(), Some(3));
            for x in v.get("mean").unwrap().as_array().unwrap() {
                got_mean.push(x.as_f64().unwrap());
            }
            for x in v.get("uncertainty").unwrap().as_array().unwrap() {
                got_unc.push(x.as_f64().unwrap());
            }
        }
        for (a, b) in reference.mean.iter().zip(&got_mean) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
        for (a, b) in reference.uncertainty.unwrap().iter().zip(&got_unc) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
    }
}
