//! Post-hoc schedule validation.
//!
//! The executor's only correctness obligation is that every data-hazard
//! edge implied by the declared accesses (RAW, WAR, WAW in insertion
//! order) is respected by the realized schedule. This module checks that
//! obligation *independently*: it re-derives the hazard edges from the
//! access lists alone — deliberately not reusing [`crate::graph`]'s
//! dependency tables, so a bookkeeping bug there cannot hide itself — and
//! compares them against per-task start/end sequence numbers recorded
//! during execution.
//!
//! An edge `pred -> succ` is respected iff both tasks were stamped and
//! `pred` finished before `succ` started: `end_seq(pred) < start_seq(succ)`.
//! Sequence numbers come from a single atomic counter, so they give a total
//! order on observable start/end events regardless of wall-clock
//! resolution, and every stamped task has `start_seq < end_seq`; a task
//! whose record does not (the `(0, 0)` default) never ran under the
//! recorder, so every edge touching it is a violation.
//!
//! The executor runs this check automatically in debug builds (i.e. under
//! `cargo test`) and on request in release builds — see
//! [`crate::exec::ExecOptions::validate`].

use crate::graph::{Access, AccessMode, DataId, TaskId};
use std::collections::HashMap;

/// When each task started and ended, in ticks of one global counter.
///
/// Both fields are draws from the same atomic counter, so all starts and
/// ends across all workers are totally ordered and `start_seq < end_seq`
/// for every executed task. The default `(0, 0)` is an unstamped task.
#[derive(Clone, Copy, Debug, Default)]
pub struct TaskOrder {
    pub start_seq: u64,
    pub end_seq: u64,
}

/// Hazard class of a dependency edge.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Hazard {
    /// Read-after-write: reader must wait for the writer.
    Raw,
    /// Write-after-read: writer must wait for earlier readers.
    War,
    /// Write-after-write: writer must wait for the previous writer.
    Waw,
}

impl Hazard {
    pub fn name(self) -> &'static str {
        match self {
            Hazard::Raw => "RAW",
            Hazard::War => "WAR",
            Hazard::Waw => "WAW",
        }
    }
}

/// One hazard edge the schedule failed to respect.
#[derive(Clone, Copy, Debug)]
pub struct Violation {
    /// The task that had to finish first (earlier in insertion order).
    pub pred: TaskId,
    /// The task that started before `pred` finished.
    pub succ: TaskId,
    /// The datum carrying the hazard.
    pub data: DataId,
    pub hazard: Hazard,
}

/// Outcome of a successful schedule check.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ValidationSummary {
    /// Distinct hazard edges checked (an edge carried by several data or
    /// hazard classes is counted once per class/datum pair).
    pub edges_checked: u64,
    pub raw_edges: u64,
    pub war_edges: u64,
    pub waw_edges: u64,
}

impl ValidationSummary {
    /// Accumulate another (passed) run's census into this one.
    pub fn add(&mut self, other: &ValidationSummary) {
        self.edges_checked += other.edges_checked;
        self.raw_edges += other.raw_edges;
        self.war_edges += other.war_edges;
        self.waw_edges += other.waw_edges;
    }
}

/// Re-derive every hazard edge from the access lists (insertion order) and
/// check each against the recorded schedule. `accesses[i]` and `order[i]`
/// describe the task inserted `i`-th; the two slices must be equally long.
///
/// Returns the edge census on success, or every violated edge (in
/// insertion order of the violating successor) on failure.
pub fn check_schedule(
    accesses: &[Vec<Access>],
    order: &[TaskOrder],
) -> Result<ValidationSummary, Vec<Violation>> {
    assert_eq!(
        accesses.len(),
        order.len(),
        "schedule check needs one order record per task"
    );

    let mut summary = ValidationSummary::default();
    let mut violations = Vec::new();
    let stamped = |o: &TaskOrder| o.start_seq < o.end_seq;

    for_each_edge(accesses, |pred, succ, data, hazard| {
        summary.edges_checked += 1;
        match hazard {
            Hazard::Raw => summary.raw_edges += 1,
            Hazard::War => summary.war_edges += 1,
            Hazard::Waw => summary.waw_edges += 1,
        }
        let (p, s) = (&order[pred.0], &order[succ.0]);
        if !(stamped(p) && stamped(s) && p.end_seq < s.start_seq) {
            violations.push(Violation {
                pred,
                succ,
                data,
                hazard,
            });
        }
    });

    if violations.is_empty() {
        Ok(summary)
    } else {
        Err(violations)
    }
}

/// The validator's hazard-edge list as data, in derivation order. This is
/// the same walk [`check_schedule`] performs — the pre-execution checker
/// (`xgs-analysis`) re-derives the list with its own independent
/// implementation and the executor asserts element-wise equality.
pub fn derived_edges(accesses: &[Vec<Access>]) -> Vec<(TaskId, TaskId, DataId, Hazard)> {
    let mut edges = Vec::new();
    for_each_edge(accesses, |pred, succ, data, hazard| {
        edges.push((pred, succ, data, hazard));
    });
    edges
}

/// Cross-check [`derived_edges`] against `xgs_analysis::hazard_edges`,
/// the deliberately independent re-implementation in the zero-dependency
/// analysis crate. The two walk the same access lists with separately
/// written code; element-wise equality (same edges, same order, same
/// hazard classes) is the executor's pre-flight proof that the static
/// and dynamic views of the graph agree.
///
/// Returns the common edge count, or a description of the first
/// divergence.
pub fn crosscheck_static_edges(accesses: &[Vec<Access>]) -> Result<usize, String> {
    let spec: Vec<Vec<xgs_analysis::AccessSpec>> = accesses
        .iter()
        .map(|list| {
            list.iter()
                .map(|a| match a.mode {
                    AccessMode::Read => xgs_analysis::AccessSpec::read(a.data.0),
                    AccessMode::Write => xgs_analysis::AccessSpec::write(a.data.0),
                })
                .collect()
        })
        .collect();
    let statics = xgs_analysis::hazard_edges(&spec);
    let dynamics = derived_edges(accesses);
    if statics.len() != dynamics.len() {
        return Err(format!(
            "static derivation found {} edges, validator found {}",
            statics.len(),
            dynamics.len()
        ));
    }
    for (i, (s, (pred, succ, data, hazard))) in statics.iter().zip(&dynamics).enumerate() {
        let dyn_kind = match hazard {
            Hazard::Raw => xgs_analysis::HazardKind::Raw,
            Hazard::War => xgs_analysis::HazardKind::War,
            Hazard::Waw => xgs_analysis::HazardKind::Waw,
        };
        if (s.pred, s.succ, s.data, s.kind) != (pred.0, succ.0, data.0, dyn_kind) {
            return Err(format!(
                "edge {i} diverges: static {}->{} on data {} ({}), validator {}->{} on data {} ({})",
                s.pred,
                s.succ,
                s.data,
                s.kind,
                pred.0,
                succ.0,
                data.0,
                hazard.name()
            ));
        }
    }
    Ok(statics.len())
}

/// Walk every hazard edge implied by the access lists, in insertion
/// order. Each task contributes edges against the *pre-task* state: all
/// of its accesses are matched against earlier tasks before any of them
/// update the writer/reader tables.
fn for_each_edge(accesses: &[Vec<Access>], mut visit: impl FnMut(TaskId, TaskId, DataId, Hazard)) {
    let mut last_writer: HashMap<DataId, TaskId> = HashMap::new();
    let mut readers: HashMap<DataId, Vec<TaskId>> = HashMap::new();

    for (idx, accs) in accesses.iter().enumerate() {
        let id = TaskId(idx);
        for acc in accs {
            match acc.mode {
                AccessMode::Read => {
                    if let Some(&w) = last_writer.get(&acc.data) {
                        visit(w, id, acc.data, Hazard::Raw);
                    }
                }
                AccessMode::Write => {
                    if let Some(&w) = last_writer.get(&acc.data) {
                        visit(w, id, acc.data, Hazard::Waw);
                    }
                    for &r in readers.get(&acc.data).into_iter().flatten() {
                        if r != id {
                            visit(r, id, acc.data, Hazard::War);
                        }
                    }
                }
            }
        }
        for acc in accs {
            match acc.mode {
                AccessMode::Read => readers.entry(acc.data).or_default().push(id),
                AccessMode::Write => {
                    last_writer.insert(acc.data, id);
                    readers.insert(acc.data, Vec::new());
                }
            }
        }
    }
}

/// Human-readable digest of a violation list (first few edges), used by
/// the executor's panic message and available for custom reporting.
/// `labels` names each task (kind, optionally with tile coordinates).
pub fn describe_violations<S: AsRef<str>>(violations: &[Violation], labels: &[S]) -> String {
    let shown = violations.len().min(5);
    let mut out = format!(
        "schedule violated {} hazard edge(s); first {shown}:",
        violations.len()
    );
    let label = |id: TaskId| {
        labels
            .get(id.0)
            .map(|s| s.as_ref())
            .unwrap_or("?")
            .to_string()
    };
    for v in &violations[..shown] {
        out.push_str(&format!(
            "\n  {} on data {}: task {}({}) must precede task {}({})",
            v.hazard.name(),
            v.data.0,
            v.pred.0,
            label(v.pred),
            v.succ.0,
            label(v.succ),
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn w(d: u64) -> Vec<Access> {
        vec![Access::write(DataId(d))]
    }

    fn r(d: u64) -> Vec<Access> {
        vec![Access::read(DataId(d))]
    }

    /// Order records for tasks run back-to-back in the given permutation.
    fn serial_order(n: usize, perm: &[usize]) -> Vec<TaskOrder> {
        let mut order = vec![TaskOrder::default(); n];
        let mut seq = 0u64;
        for &i in perm {
            order[i] = TaskOrder {
                start_seq: seq,
                end_seq: seq + 1,
            };
            seq += 2;
        }
        order
    }

    #[test]
    fn insertion_order_always_passes() {
        let accesses = vec![w(0), r(0), r(0), w(0), w(1)];
        let order = serial_order(5, &[0, 1, 2, 3, 4]);
        let s = check_schedule(&accesses, &order).expect("sequential order is valid");
        // RAW w0->r1, RAW w0->r2, WAW w0->w3, WAR r1->w3, WAR r2->w3.
        assert_eq!(s.raw_edges, 2);
        assert_eq!(s.war_edges, 2);
        assert_eq!(s.waw_edges, 1);
        assert_eq!(s.edges_checked, 5);
    }

    #[test]
    fn independent_tasks_may_run_in_any_order() {
        let accesses = vec![w(0), w(1), w(2)];
        let order = serial_order(3, &[2, 0, 1]);
        let s = check_schedule(&accesses, &order).unwrap();
        assert_eq!(s.edges_checked, 0);
    }

    #[test]
    fn raw_violation_detected() {
        let accesses = vec![w(7), r(7)];
        let order = serial_order(2, &[1, 0]); // reader ran first
        let violations = check_schedule(&accesses, &order).unwrap_err();
        assert_eq!(violations.len(), 1);
        let v = violations[0];
        assert_eq!(v.hazard, Hazard::Raw);
        assert_eq!((v.pred, v.succ, v.data), (TaskId(0), TaskId(1), DataId(7)));
    }

    #[test]
    fn war_violation_detected() {
        // read d, then write d: swapping them is a WAR violation.
        let accesses = vec![w(3), r(3), w(3)];
        let order = serial_order(3, &[0, 2, 1]);
        let violations = check_schedule(&accesses, &order).unwrap_err();
        assert!(violations
            .iter()
            .any(|v| v.hazard == Hazard::War && v.pred == TaskId(1) && v.succ == TaskId(2)));
    }

    #[test]
    fn waw_violation_detected() {
        let accesses = vec![w(5), w(5)];
        let order = serial_order(2, &[1, 0]);
        let violations = check_schedule(&accesses, &order).unwrap_err();
        assert!(violations.iter().any(|v| v.hazard == Hazard::Waw));
    }

    #[test]
    fn overlapping_execution_of_dependent_tasks_fails() {
        // succ started (seq 1) before pred ended (seq 2): violation even
        // though pred started first.
        let accesses = vec![w(0), r(0)];
        let order = vec![
            TaskOrder {
                start_seq: 0,
                end_seq: 2,
            },
            TaskOrder {
                start_seq: 1,
                end_seq: 3,
            },
        ];
        assert!(check_schedule(&accesses, &order).is_err());
    }

    #[test]
    fn overlapping_execution_of_independent_tasks_passes() {
        let accesses = vec![w(0), w(1)];
        let order = vec![
            TaskOrder {
                start_seq: 0,
                end_seq: 2,
            },
            TaskOrder {
                start_seq: 1,
                end_seq: 3,
            },
        ];
        assert!(check_schedule(&accesses, &order).is_ok());
    }

    #[test]
    fn unstamped_predecessor_is_rejected() {
        // The reader is stamped after where the writer would have ended,
        // but the writer was never stamped: the edge cannot be proven, so
        // it is a violation, not an edge to skip.
        let accesses = vec![w(4), r(4)];
        let mut order = serial_order(2, &[0, 1]);
        order[0] = TaskOrder::default();
        let violations = check_schedule(&accesses, &order).unwrap_err();
        assert_eq!(violations.len(), 1);
        assert_eq!(violations[0].hazard, Hazard::Raw);
        assert_eq!(
            (violations[0].pred, violations[0].succ),
            (TaskId(0), TaskId(1))
        );
    }

    #[test]
    fn describe_names_the_kinds() {
        let accesses = vec![w(1), r(1)];
        let order = serial_order(2, &[1, 0]);
        let violations = check_schedule(&accesses, &order).unwrap_err();
        let msg = describe_violations(&violations, &["potrf", "trsm"]);
        assert!(msg.contains("RAW"));
        assert!(msg.contains("potrf"));
        assert!(msg.contains("trsm"));
    }
}
