//! Dataflow task graph with superscalar hazard tracking.
//!
//! Tasks are inserted in the sequential (numerically correct) order of the
//! algorithm, declaring which data handles they read and write. The graph
//! derives read-after-write, write-after-read, and write-after-write
//! dependencies, which is sufficient for any execution order the executor
//! picks to be equivalent to the sequential one — the same "separation of
//! concerns" contract StarPU/PaRSEC give the paper's solver.

use std::collections::HashMap;

/// Opaque identifier of a datum (a tile, a vector segment, ...).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct DataId(pub u64);

/// Task handle within one graph.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct TaskId(pub usize);

/// How a task touches a datum.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum AccessMode {
    Read,
    /// Read-modify-write (the common case for tile kernels).
    Write,
}

/// One declared access.
#[derive(Clone, Copy, Debug)]
pub struct Access {
    pub data: DataId,
    pub mode: AccessMode,
}

impl Access {
    pub fn read(data: DataId) -> Access {
        Access {
            data,
            mode: AccessMode::Read,
        }
    }

    pub fn write(data: DataId) -> Access {
        Access {
            data,
            mode: AccessMode::Write,
        }
    }
}

pub(crate) struct TaskNode {
    pub kind: &'static str,
    /// Tile coordinates `(i, j)` for kernels that act on a tile; carried
    /// into traces and validator diagnostics.
    pub coords: Option<(u32, u32)>,
    pub closure: Option<Box<dyn FnOnce() + Send>>,
    /// Tasks that must run after this one.
    pub dependents: Vec<TaskId>,
    /// Number of unmet dependencies.
    pub n_deps: usize,
    /// Scheduling priority (higher runs earlier among ready tasks).
    pub priority: i64,
    /// Accesses, kept for the schedule validator.
    pub accesses: Vec<Access>,
}

/// A dependency graph under construction.
#[derive(Default)]
pub struct TaskGraph {
    pub(crate) tasks: Vec<TaskNode>,
    /// Last task that wrote each datum.
    last_writer: HashMap<DataId, TaskId>,
    /// Tasks that read each datum since its last write.
    readers: HashMap<DataId, Vec<TaskId>>,
}

impl TaskGraph {
    pub fn new() -> TaskGraph {
        TaskGraph::default()
    }

    /// Number of tasks inserted so far.
    pub fn len(&self) -> usize {
        self.tasks.len()
    }

    pub fn is_empty(&self) -> bool {
        self.tasks.is_empty()
    }

    /// Insert a task. `priority` breaks ties among ready tasks (the tile
    /// Cholesky uses panel depth so the critical path advances first).
    /// `_cost` is unused: the distributed simulator prices its own DAG
    /// (`xgs_cholesky::dag`).
    pub fn insert(
        &mut self,
        kind: &'static str,
        accesses: Vec<Access>,
        priority: i64,
        _cost: f64,
        closure: impl FnOnce() + Send + 'static,
    ) -> TaskId {
        self.insert_task(kind, None, accesses, priority, closure)
    }

    /// [`insert`](TaskGraph::insert) for a kernel acting on tile `(i, j)`;
    /// the coordinates flow into execution traces and schedule-validator
    /// diagnostics.
    pub fn insert_at(
        &mut self,
        kind: &'static str,
        coords: (u32, u32),
        accesses: Vec<Access>,
        priority: i64,
        closure: impl FnOnce() + Send + 'static,
    ) -> TaskId {
        self.insert_task(kind, Some(coords), accesses, priority, closure)
    }

    fn insert_task(
        &mut self,
        kind: &'static str,
        coords: Option<(u32, u32)>,
        accesses: Vec<Access>,
        priority: i64,
        closure: impl FnOnce() + Send + 'static,
    ) -> TaskId {
        let id = TaskId(self.tasks.len());
        let mut n_deps = 0usize;
        let add_dep = |tasks: &mut Vec<TaskNode>, from: TaskId, n_deps: &mut usize| {
            // Dedup: a task may depend on the same predecessor through
            // several data; count it once.
            if !tasks[from.0].dependents.contains(&id) {
                tasks[from.0].dependents.push(id);
                *n_deps += 1;
            }
        };

        for acc in &accesses {
            match acc.mode {
                AccessMode::Read => {
                    if let Some(&w) = self.last_writer.get(&acc.data) {
                        add_dep(&mut self.tasks, w, &mut n_deps); // RAW
                    }
                }
                AccessMode::Write => {
                    if let Some(&w) = self.last_writer.get(&acc.data) {
                        add_dep(&mut self.tasks, w, &mut n_deps); // WAW
                    }
                    for &r in self.readers.get(&acc.data).into_iter().flatten() {
                        if r != id {
                            add_dep(&mut self.tasks, r, &mut n_deps); // WAR
                        }
                    }
                }
            }
        }

        // Update hazard tables after computing deps (a Write resets the
        // reader set; a Read appends).
        for acc in &accesses {
            match acc.mode {
                AccessMode::Read => {
                    self.readers.entry(acc.data).or_default().push(id);
                }
                AccessMode::Write => {
                    self.last_writer.insert(acc.data, id);
                    self.readers.insert(acc.data, Vec::new());
                }
            }
        }

        self.tasks.push(TaskNode {
            kind,
            coords,
            closure: Some(Box::new(closure)),
            dependents: Vec::new(),
            n_deps,
            priority,
            accesses,
        });
        id
    }

    /// Kind label of every task, in insertion (task-id) order. Cheap view
    /// for static checks such as the Cholesky kernel census.
    pub fn task_kinds(&self) -> impl Iterator<Item = &'static str> + '_ {
        self.tasks.iter().map(|t| t.kind)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn noop() {}

    #[test]
    fn raw_dependency() {
        let mut g = TaskGraph::new();
        let a = DataId(1);
        let t0 = g.insert("w", vec![Access::write(a)], 0, 0.0, noop);
        let t1 = g.insert("r", vec![Access::read(a)], 0, 0.0, noop);
        assert_eq!(g.tasks[t0.0].dependents, vec![t1]);
        assert_eq!(g.tasks[t1.0].n_deps, 1);
    }

    #[test]
    fn war_and_waw_dependencies() {
        let mut g = TaskGraph::new();
        let a = DataId(1);
        let w0 = g.insert("w0", vec![Access::write(a)], 0, 0.0, noop);
        let r0 = g.insert("r0", vec![Access::read(a)], 0, 0.0, noop);
        let r1 = g.insert("r1", vec![Access::read(a)], 0, 0.0, noop);
        let w1 = g.insert("w1", vec![Access::write(a)], 0, 0.0, noop);
        // w1 must wait for both readers (WAR) and the previous writer (WAW,
        // subsumed here through the readers but counted if no readers).
        assert!(g.tasks[r0.0].dependents.contains(&w1));
        assert!(g.tasks[r1.0].dependents.contains(&w1));
        assert_eq!(g.tasks[w1.0].n_deps, 3); // w0 (WAW) + two readers
        let _ = w0;
    }

    #[test]
    fn independent_tasks_have_no_edges() {
        let mut g = TaskGraph::new();
        let t0 = g.insert("a", vec![Access::write(DataId(1))], 0, 0.0, noop);
        let t1 = g.insert("b", vec![Access::write(DataId(2))], 0, 0.0, noop);
        assert!(g.tasks[t0.0].dependents.is_empty());
        assert_eq!(g.tasks[t1.0].n_deps, 0);
    }

    #[test]
    fn duplicate_dependencies_counted_once() {
        let mut g = TaskGraph::new();
        let (a, b) = (DataId(1), DataId(2));
        let t0 = g.insert("w", vec![Access::write(a), Access::write(b)], 0, 0.0, noop);
        let t1 = g.insert("r", vec![Access::read(a), Access::read(b)], 0, 0.0, noop);
        assert_eq!(g.tasks[t0.0].dependents, vec![t1]);
        assert_eq!(g.tasks[t1.0].n_deps, 1);
    }

    #[test]
    fn cholesky_like_dag_shape() {
        // 3x3 tile Cholesky: potrf(0), trsm(1,0), trsm(2,0), syrk(1,1),
        // gemm(2,1), syrk(2,2), potrf(1), ... — verify the DAG depth matches
        // the known critical path of tile Cholesky.
        let mut g = TaskGraph::new();
        let nt = 3usize;
        let d = |i: usize, j: usize| DataId((i * nt + j) as u64);
        for k in 0..nt {
            g.insert("potrf", vec![Access::write(d(k, k))], 0, 1.0, noop);
            for i in k + 1..nt {
                g.insert(
                    "trsm",
                    vec![Access::read(d(k, k)), Access::write(d(i, k))],
                    0,
                    1.0,
                    noop,
                );
            }
            for i in k + 1..nt {
                for j in k + 1..=i {
                    if i == j {
                        g.insert(
                            "syrk",
                            vec![Access::read(d(i, k)), Access::write(d(i, i))],
                            0,
                            1.0,
                            noop,
                        );
                    } else {
                        g.insert(
                            "gemm",
                            vec![
                                Access::read(d(i, k)),
                                Access::read(d(j, k)),
                                Access::write(d(i, j)),
                            ],
                            0,
                            1.0,
                            noop,
                        );
                    }
                }
            }
        }
        // Critical path of 3x3 tile Cholesky: potrf0 -> trsm(1,0) ->
        // syrk(1) -> potrf1 -> trsm(2,1) -> syrk(2) -> potrf2 = 7 tasks.
        // Tasks are in topological (insertion) order.
        let mut depth = vec![1usize; g.tasks.len()];
        for i in 0..g.tasks.len() {
            for &TaskId(s) in &g.tasks[i].dependents {
                depth[s] = depth[s].max(depth[i] + 1);
            }
        }
        assert_eq!(depth.iter().max(), Some(&7));
    }
}
