//! Property tests for the schedule validator: every realized schedule of a
//! random DAG must pass, at every worker count, and corrupted schedules of
//! the same DAGs must be rejected.

use proptest::prelude::*;
use xgs_runtime::{
    check_schedule, crosscheck_static_edges, derived_edges, execute_opts, Access, DataId,
    ExecOptions, TaskGraph, TaskOrder,
};

/// Random access lists over a small data pool, from a splitmix-style LCG.
/// The leading write/read pair guarantees at least one RAW edge.
fn random_accesses(seed: u64, tasks: usize) -> Vec<Vec<Access>> {
    let mut s = seed.wrapping_mul(0x9E3779B97F4A7C15) | 1;
    let mut next = move || {
        s = s
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        s >> 16
    };
    let mut out = vec![
        vec![Access::write(DataId(0))],
        vec![Access::read(DataId(0))],
    ];
    for _ in 2..tasks {
        let n_acc = 1 + (next() % 3) as usize;
        let mut accs = Vec::with_capacity(n_acc);
        for _ in 0..n_acc {
            let d = DataId(next() % 6);
            if next() % 2 == 0 {
                accs.push(Access::read(d));
            } else {
                accs.push(Access::write(d));
            }
        }
        out.push(accs);
    }
    out
}

fn graph_from(accesses: &[Vec<Access>]) -> TaskGraph {
    let mut g = TaskGraph::new();
    for (i, accs) in accesses.iter().enumerate() {
        // Mixed priorities exercise the heap ordering.
        g.insert("task", accs.clone(), (i % 7) as i64, 0.0, || {
            std::hint::black_box(0u64);
        });
    }
    g
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn every_worker_count_produces_a_valid_schedule(seed in 0u64..1_000_000) {
        let accesses = random_accesses(seed, 60);
        for workers in [1, 2, 4] {
            // execute_opts panics if the validator finds a violation; the
            // summary confirms it actually checked real edges.
            let r = execute_opts(
                graph_from(&accesses),
                workers,
                ExecOptions { validate: true, ..ExecOptions::default() },
            );
            let v = r.metrics.unwrap().validation.unwrap();
            prop_assert!(
                v.edges_checked >= 1,
                "{workers} workers: seeded RAW edge missing from census"
            );
            prop_assert!(v.raw_edges >= 1);
        }
    }

    #[test]
    fn static_edges_match_dynamic_derivation(seed in 0u64..1_000_000) {
        // The pre-execution checker (xgs-analysis) and the post-run
        // validator derive hazard edges independently; on any access
        // lists they must agree edge-for-edge, in order.
        let accesses = random_accesses(seed, 60);
        let checked = match crosscheck_static_edges(&accesses) {
            Ok(n) => n,
            Err(e) => return Err(e),
        };
        prop_assert_eq!(checked, derived_edges(&accesses).len());
        prop_assert!(checked >= 1, "seeded RAW edge missing");
    }

    #[test]
    fn reversed_schedules_are_rejected(seed in 0u64..1_000_000) {
        let accesses = random_accesses(seed, 40);
        let n = accesses.len();
        // Forward serial order: task i runs i-th — always valid.
        let forward: Vec<TaskOrder> = (0..n)
            .map(|i| TaskOrder { start_seq: 2 * i as u64, end_seq: 2 * i as u64 + 1 })
            .collect();
        let summary = match check_schedule(&accesses, &forward) {
            Ok(s) => s,
            Err(v) => {
                return Err(format!("insertion order must validate, got {} violations", v.len()))
            }
        };
        prop_assert!(summary.edges_checked >= 1);
        // Reversed serial order: every edge (pred before succ in insertion
        // order) is now violated, so the check must fail.
        let reversed: Vec<TaskOrder> = (0..n)
            .map(|i| {
                let pos = (n - 1 - i) as u64;
                TaskOrder { start_seq: 2 * pos, end_seq: 2 * pos + 1 }
            })
            .collect();
        let violations = match check_schedule(&accesses, &reversed) {
            Ok(_) => return Err("reversed schedule must not validate".to_string()),
            Err(v) => v,
        };
        prop_assert_eq!(violations.len() as u64, summary.edges_checked);
    }
}
