//! A task that panics must not hang the executor or cost the pool a thread.
//!
//! At the parent of PR 17 the panicking worker unwound between the heap pop
//! and the `remaining` decrement, so every other worker parked forever and
//! `execute` never returned on >= 2 workers.

use rayon::prelude::*;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc::channel;
use std::sync::{Arc, Barrier};
use std::time::Duration;
use xgs_runtime::{execute, Access, DataId, TaskGraph};

#[test]
fn panicking_task_propagates_and_leaves_the_pool_usable() {
    // A 1-thread pool: with >= 2 loops its only worker is inside the
    // aborted run, so the barrier batch below can finish only if that
    // worker came back.
    let pool = Arc::new(
        rayon::ThreadPoolBuilder::new()
            .num_threads(1)
            .build()
            .unwrap(),
    );
    for workers in [1, 2, 4] {
        let (tx, rx) = channel();
        let pool = pool.clone();
        let runner = std::thread::spawn(move || {
            let mut g = TaskGraph::new();
            g.insert("boom", vec![Access::write(DataId(0))], 9, 0.0, || {
                panic!("task exploded")
            });
            for i in 1..40u64 {
                let accesses = vec![Access::read(DataId(i % 2)), Access::write(DataId(i + 1))];
                g.insert("t", accesses, 0, 0.0, || {});
            }
            let first = catch_unwind(AssertUnwindSafe(|| {
                pool.install(|| execute(g, workers, false))
            }));
            tx.send(first.map(|r| r.tasks)).unwrap();

            let ran = Arc::new(AtomicU64::new(0));
            let mut g = TaskGraph::new();
            for i in 0..40u64 {
                let ran = ran.clone();
                g.insert("t", vec![Access::write(DataId(i % 3))], 0, 0.0, move || {
                    ran.fetch_add(1, Ordering::Relaxed);
                });
            }
            let barrier = Barrier::new(2);
            pool.install(|| {
                execute(g, workers, false);
                [0, 1].par_iter().for_each(|_| {
                    barrier.wait();
                });
            });
            tx.send(Ok(ran.load(Ordering::Relaxed) as usize)).unwrap();
        });
        let timeout = Duration::from_secs(20);
        let payload = rx
            .recv_timeout(timeout)
            .unwrap_or_else(|_| panic!("{workers} workers: execute hung on a panicking task"))
            .expect_err("the task's panic must reach the caller");
        assert_eq!(payload.downcast_ref::<&str>(), Some(&"task exploded"));
        let ran = rx
            .recv_timeout(timeout)
            .unwrap_or_else(|_| panic!("{workers} workers: pool unusable after the panic"));
        assert_eq!(ran.ok(), Some(40));
        runner.join().unwrap();
    }
}
