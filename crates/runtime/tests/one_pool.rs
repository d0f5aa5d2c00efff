//! The executor creates no thread: while a graph runs, the process holds
//! exactly the OS threads it held before `execute` was called, and every
//! task runs on the calling thread or on a pool worker.
//!
//! One test per binary on purpose — the libtest harness starts a thread
//! per test, which would move the count under measurement.
#![cfg(target_os = "linux")]

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use xgs_runtime::{execute, Access, DataId, TaskGraph};

fn os_threads() -> usize {
    let status = std::fs::read_to_string("/proc/self/status").expect("procfs");
    let line = status
        .lines()
        .find(|l| l.starts_with("Threads:"))
        .expect("Threads: row");
    line["Threads:".len()..].trim().parse().expect("a count")
}

#[test]
fn execute_runs_on_the_pool_and_the_caller_only() {
    let caller = std::thread::current().id();
    let foreign = Arc::new(Mutex::new(Vec::<String>::new()));
    let graph = |expected: usize, drift: &Arc<AtomicUsize>| {
        let mut g = TaskGraph::new();
        for i in 0..24u64 {
            let (drift, foreign) = (drift.clone(), foreign.clone());
            let accesses = vec![Access::read(DataId(i % 3)), Access::write(DataId(i + 3))];
            g.insert("probe", accesses, 0, 0.0, move || {
                if os_threads() != expected {
                    drift.fetch_add(1, Ordering::Relaxed);
                }
                let me = std::thread::current();
                let pooled = me.name().is_some_and(|n| n.starts_with("rayon-worker-"));
                if me.id() != caller && !pooled {
                    foreign.lock().unwrap().push(format!("{:?}", me.name()));
                }
            });
        }
        g
    };
    // Warm the pool: its workers are created on first use and live on.
    let drift = Arc::new(AtomicUsize::new(0));
    execute(graph(0, &drift), 4, false);
    for call in 0..50 {
        let before = os_threads();
        let drift = Arc::new(AtomicUsize::new(0));
        execute(graph(before, &drift), 4, false);
        assert_eq!(
            drift.load(Ordering::Relaxed),
            0,
            "call {call}: tasks saw a thread count other than the {before} before execute"
        );
    }
    assert_eq!(*foreign.lock().unwrap(), Vec::<String>::new());
}
