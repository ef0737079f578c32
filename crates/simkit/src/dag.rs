//! Task graphs: the unit of work executed by the [`crate::engine`].
//!
//! A training iteration compiles to a DAG of tasks — GPU/CPU compute spans,
//! network/host/NVMe transfers, and pure delays — with explicit dependency
//! edges. The engine executes any such DAG against a [`crate::flow::FlowNet`]
//! and a set of compute resources; strategies never talk to the event loop
//! directly.

use crate::flow::LinkId;
use crate::time::SimTime;

/// Identifies a task within one [`Dag`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct TaskId(pub(crate) usize);

impl TaskId {
    /// Index of the task in insertion order.
    pub fn index(self) -> usize {
        self.0
    }
}

/// Identifies a compute resource (a GPU SM array, a CPU socket, ...) known
/// to the engine.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ResourceId(pub usize);

/// What a task does.
#[derive(Debug, Clone, PartialEq)]
pub enum TaskKind {
    /// Occupies one slot of `resource` for `duration`.
    Compute {
        /// Resource the task runs on.
        resource: ResourceId,
        /// Busy time.
        duration: SimTime,
    },
    /// Moves `bytes` along `route` at the max-min fair rate, after an
    /// initial `latency` during which no bandwidth is consumed.
    Transfer {
        /// Links crossed, in order.
        route: Vec<LinkId>,
        /// Payload size in bytes.
        bytes: f64,
        /// Startup latency before the first byte moves.
        latency: SimTime,
        /// Per-flow rate ceiling (bytes/second); `f64::INFINITY` when
        /// uncapped. Models path-specific degradation (SerDes pairs).
        cap: f64,
    },
    /// Waits for `duration` without occupying anything.
    Delay {
        /// Wait time.
        duration: SimTime,
    },
    /// Completes instantly; used as a join/barrier point.
    Marker,
}

/// A task plus its profiling metadata.
#[derive(Debug, Clone, PartialEq)]
pub struct TaskSpec {
    /// The work performed.
    pub kind: TaskKind,
    /// Span label for timeline profiling (`None` = not profiled).
    pub label: Option<String>,
    /// Timeline track (defaults to the resource index for compute tasks).
    pub track: Option<u32>,
}

/// An immutable task graph.
///
/// Built with [`DagBuilder`]; guaranteed acyclic by construction because
/// dependencies may only reference previously created tasks.
///
/// # Layout
///
/// Edges are stored in compressed sparse row (CSR) form: the predecessors
/// of task `t` are `pred_list[pred_start[t]..pred_start[t + 1]]`, in the
/// order they were given to the builder (duplicates kept), and the
/// successors likewise in `succ_start`/`succ_list`, in ascending task id.
/// Predecessors are appended as tasks are pushed; successors are derived
/// once by [`DagBuilder::build`]. Four flat vectors replace two small
/// vectors per task, so a graph of a million tasks builds and frees in a
/// handful of allocations.
#[derive(Debug, Clone, Default)]
pub struct Dag {
    tasks: Vec<TaskSpec>,
    /// CSR offsets into `pred_list`: one per task plus the end (empty only
    /// for [`Dag::default`]).
    pred_start: Vec<usize>,
    pred_list: Vec<TaskId>,
    /// CSR offsets into `succ_list`, as `pred_start`.
    succ_start: Vec<usize>,
    succ_list: Vec<TaskId>,
}

impl Dag {
    /// Number of tasks.
    pub fn len(&self) -> usize {
        self.tasks.len()
    }

    /// True when the DAG contains no tasks.
    pub fn is_empty(&self) -> bool {
        self.tasks.is_empty()
    }

    /// The spec of `task`.
    ///
    /// # Panics
    /// Panics if `task` does not belong to this DAG.
    pub fn task(&self, task: TaskId) -> &TaskSpec {
        &self.tasks[task.0]
    }

    /// Predecessors of `task`, in the order given to the builder.
    ///
    /// # Panics
    /// Panics if `task` does not belong to this DAG.
    pub fn preds(&self, task: TaskId) -> &[TaskId] {
        &self.pred_list[self.pred_start[task.0]..self.pred_start[task.0 + 1]]
    }

    /// Successors of `task`, in ascending id.
    ///
    /// # Panics
    /// Panics if `task` does not belong to this DAG.
    pub fn succs(&self, task: TaskId) -> &[TaskId] {
        &self.succ_list[self.succ_start[task.0]..self.succ_start[task.0 + 1]]
    }

    /// Iterator over all task ids in insertion (topological) order.
    pub fn task_ids(&self) -> impl Iterator<Item = TaskId> + '_ {
        (0..self.tasks.len()).map(TaskId)
    }

    /// Total bytes moved by all transfer tasks.
    pub fn total_transfer_bytes(&self) -> f64 {
        self.tasks
            .iter()
            .filter_map(|t| match &t.kind {
                TaskKind::Transfer { bytes, .. } => Some(*bytes),
                _ => None,
            })
            .sum()
    }

    /// Overwrites the duration of an existing compute task.
    ///
    /// This is the engine-facing half of the strategies' lower-once /
    /// re-stamp pipeline: DAG *structure* (topology, routes, byte
    /// volumes) is iteration-invariant, while jittered compute durations
    /// change per iteration seed. Re-stamping durations in place avoids
    /// rebuilding the whole graph every iteration.
    ///
    /// # Panics
    /// Panics if `task` does not belong to this DAG or is not a
    /// [`TaskKind::Compute`] task.
    pub fn set_compute_duration(&mut self, task: TaskId, duration: SimTime) {
        match &mut self.tasks[task.0].kind {
            TaskKind::Compute { duration: d, .. } => *d = duration,
            other => panic!("task {task:?} is not a compute task (got {other:?})"),
        }
    }

    /// Total busy time requested from `resource` by compute tasks.
    pub fn compute_demand(&self, resource: ResourceId) -> SimTime {
        self.tasks
            .iter()
            .filter_map(|t| match &t.kind {
                TaskKind::Compute {
                    resource: r,
                    duration,
                } if *r == resource => Some(*duration),
                _ => None,
            })
            .sum()
    }
}

/// Incrementally builds a [`Dag`].
///
/// ```
/// use zerosim_simkit::dag::{DagBuilder, ResourceId};
/// use zerosim_simkit::SimTime;
///
/// let mut b = DagBuilder::new();
/// let fwd = b.compute(ResourceId(0), SimTime::from_ms(2.0), "fwd", &[]);
/// let bwd = b.compute(ResourceId(0), SimTime::from_ms(4.0), "bwd", &[fwd]);
/// let dag = b.build();
/// assert_eq!(dag.len(), 2);
/// assert_eq!(dag.preds(bwd), &[fwd]);
/// ```
#[derive(Debug)]
pub struct DagBuilder {
    /// The graph so far; its successor lists are derived in
    /// [`DagBuilder::build`].
    dag: Dag,
}

impl Default for DagBuilder {
    fn default() -> Self {
        DagBuilder {
            dag: Dag {
                pred_start: vec![0],
                ..Dag::default()
            },
        }
    }
}

impl DagBuilder {
    /// Creates an empty builder.
    pub fn new() -> Self {
        Self::default()
    }

    fn push(&mut self, spec: TaskSpec, deps: &[TaskId]) -> TaskId {
        let id = TaskId(self.dag.tasks.len());
        for d in deps {
            assert!(d.0 < id.0, "dependency {d:?} does not precede task {id:?}");
        }
        self.dag.tasks.push(spec);
        self.dag.pred_list.extend_from_slice(deps);
        self.dag.pred_start.push(self.dag.pred_list.len());
        id
    }

    /// Adds a compute task.
    #[allow(clippy::cast_possible_truncation)] // resource ids are small
    pub fn compute(
        &mut self,
        resource: ResourceId,
        duration: SimTime,
        label: impl Into<String>,
        deps: &[TaskId],
    ) -> TaskId {
        self.push(
            TaskSpec {
                kind: TaskKind::Compute { resource, duration },
                label: Some(label.into()),
                track: Some(resource.0 as u32),
            },
            deps,
        )
    }

    /// Adds an unlabelled compute task (not profiled on the timeline).
    pub fn compute_silent(
        &mut self,
        resource: ResourceId,
        duration: SimTime,
        deps: &[TaskId],
    ) -> TaskId {
        self.push(
            TaskSpec {
                kind: TaskKind::Compute { resource, duration },
                label: None,
                track: None,
            },
            deps,
        )
    }

    /// Adds a transfer task.
    ///
    /// # Panics
    /// Panics if the route is empty or `bytes` is not finite and positive.
    pub fn transfer(
        &mut self,
        route: Vec<LinkId>,
        bytes: f64,
        latency: SimTime,
        label: impl Into<String>,
        track: u32,
        deps: &[TaskId],
    ) -> TaskId {
        self.transfer_capped(route, bytes, latency, f64::INFINITY, label, track, deps)
    }

    /// Adds a transfer task with a per-flow rate ceiling in bytes/second.
    ///
    /// # Panics
    /// Same conditions as [`DagBuilder::transfer`], plus a non-positive or
    /// NaN `cap`.
    #[allow(clippy::too_many_arguments)]
    pub fn transfer_capped(
        &mut self,
        route: Vec<LinkId>,
        bytes: f64,
        latency: SimTime,
        cap: f64,
        label: impl Into<String>,
        track: u32,
        deps: &[TaskId],
    ) -> TaskId {
        assert!(!route.is_empty(), "transfer route must not be empty");
        assert!(
            bytes.is_finite() && bytes > 0.0,
            "transfer size must be positive (got {bytes})"
        );
        assert!(cap > 0.0 && !cap.is_nan(), "transfer cap must be positive");
        self.push(
            TaskSpec {
                kind: TaskKind::Transfer {
                    route,
                    bytes,
                    latency,
                    cap,
                },
                label: Some(label.into()),
                track: Some(track),
            },
            deps,
        )
    }

    /// Adds a pure delay.
    pub fn delay(&mut self, duration: SimTime, deps: &[TaskId]) -> TaskId {
        self.push(
            TaskSpec {
                kind: TaskKind::Delay { duration },
                label: None,
                track: None,
            },
            deps,
        )
    }

    /// Adds a zero-duration join point over `deps`.
    pub fn marker(&mut self, deps: &[TaskId]) -> TaskId {
        self.push(
            TaskSpec {
                kind: TaskKind::Marker,
                label: None,
                track: None,
            },
            deps,
        )
    }

    /// Number of tasks added so far.
    pub fn len(&self) -> usize {
        self.dag.tasks.len()
    }

    /// True when no tasks have been added yet.
    pub fn is_empty(&self) -> bool {
        self.dag.tasks.is_empty()
    }

    /// Finalizes the DAG, deriving the successor lists with one counting
    /// pass: a task's successors come out in ascending id because tasks
    /// are visited in id order.
    pub fn build(self) -> Dag {
        let mut dag = self.dag;
        let n = dag.tasks.len();
        let mut start = vec![0usize; n + 1];
        for p in &dag.pred_list {
            start[p.0 + 1] += 1;
        }
        for i in 0..n {
            start[i + 1] += start[i];
        }
        let mut cursor = start.clone();
        let mut list = vec![TaskId(0); dag.pred_list.len()];
        for t in 0..n {
            for p in &dag.pred_list[dag.pred_start[t]..dag.pred_start[t + 1]] {
                list[cursor[p.0]] = TaskId(t);
                cursor[p.0] += 1;
            }
        }
        dag.succ_start = start;
        dag.succ_list = list;
        dag
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_links_dependencies_both_ways() {
        let mut b = DagBuilder::new();
        let a = b.marker(&[]);
        let c = b.delay(SimTime::from_ms(1.0), &[a]);
        let d = b.marker(&[a, c]);
        let dag = b.build();
        assert_eq!(dag.preds(d), &[a, c]);
        assert_eq!(dag.succs(a), &[c, d]);
        assert_eq!(dag.len(), 3);
        assert!(!dag.is_empty());
    }

    #[test]
    fn empty_and_default_dags_have_no_tasks() {
        let built = DagBuilder::new().build();
        let default = Dag::default();
        for dag in [&built, &default, &default.clone()] {
            assert_eq!(dag.len(), 0);
            assert!(dag.is_empty());
            assert_eq!(dag.task_ids().count(), 0);
            assert_eq!(dag.total_transfer_bytes(), 0.0);
        }
    }

    use zerosim_testkit::gen::{usize_range, vec_of};
    use zerosim_testkit::{prop, prop_assert_eq};

    prop! {
        /// On random DAGs, duplicate dependencies included, the CSR edge
        /// lists match a naive per-task `Vec` reference in content and
        /// order — predecessors as given, successors in ascending id with
        /// one entry per dependency edge — and so does a clone.
        #[cases(128)]
        fn csr_edges_match_a_naive_reference(
            // Per task, picks reduced modulo its id to an earlier task.
            picks in vec_of(vec_of(usize_range(0, 999), 0, 5), 0, 40),
        ) {
            let mut b = DagBuilder::new();
            let mut preds: Vec<Vec<TaskId>> = Vec::new();
            let mut succs: Vec<Vec<TaskId>> = Vec::new();
            for (i, task_picks) in picks.iter().enumerate() {
                let deps: Vec<TaskId> = if i == 0 {
                    Vec::new()
                } else {
                    task_picks.iter().map(|p| TaskId(p % i)).collect()
                };
                let id = b.marker(&deps);
                prop_assert_eq!(id, TaskId(i));
                for d in &deps {
                    succs[d.0].push(id);
                }
                preds.push(deps);
                succs.push(Vec::new());
            }
            let dag = b.build();
            for dag in [&dag, &dag.clone()] {
                prop_assert_eq!(dag.len(), picks.len());
                for t in dag.task_ids() {
                    prop_assert_eq!(dag.preds(t), preds[t.0].as_slice());
                    prop_assert_eq!(dag.succs(t), succs[t.0].as_slice());
                }
            }
        }
    }

    #[test]
    fn aggregate_queries() {
        let mut b = DagBuilder::new();
        let r = ResourceId(3);
        b.compute(r, SimTime::from_ms(2.0), "k1", &[]);
        b.compute(r, SimTime::from_ms(3.0), "k2", &[]);
        b.compute(ResourceId(4), SimTime::from_ms(9.0), "k3", &[]);
        b.transfer(vec![LinkId(0)], 1024.0, SimTime::ZERO, "xfer", 0, &[]);
        let dag = b.build();
        assert_eq!(dag.compute_demand(r), SimTime::from_ms(5.0));
        assert_eq!(dag.total_transfer_bytes(), 1024.0);
    }

    #[test]
    fn insertion_order_is_topological() {
        let mut b = DagBuilder::new();
        let a = b.marker(&[]);
        let c = b.marker(&[a]);
        let dag = b.build();
        let ids: Vec<TaskId> = dag.task_ids().collect();
        assert_eq!(ids, vec![a, c]);
    }

    #[test]
    fn restamping_updates_compute_durations_in_place() {
        let mut b = DagBuilder::new();
        let r = ResourceId(0);
        let t = b.compute(r, SimTime::from_ms(2.0), "gemm", &[]);
        let mut dag = b.build();
        assert_eq!(dag.compute_demand(r), SimTime::from_ms(2.0));
        dag.set_compute_duration(t, SimTime::from_ms(5.0));
        assert_eq!(dag.compute_demand(r), SimTime::from_ms(5.0));
        // Structure untouched.
        assert_eq!(dag.len(), 1);
    }

    #[test]
    #[should_panic(expected = "not a compute task")]
    fn restamping_a_marker_panics() {
        let mut b = DagBuilder::new();
        let m = b.marker(&[]);
        let mut dag = b.build();
        dag.set_compute_duration(m, SimTime::from_ms(1.0));
    }

    #[test]
    #[should_panic(expected = "does not precede")]
    fn forward_dependency_panics() {
        let mut b = DagBuilder::new();
        let a = b.marker(&[]);
        // Fabricate a not-yet-existing dependency.
        let bogus = TaskId(7);
        let _ = a;
        b.marker(&[bogus]);
    }

    #[test]
    #[should_panic(expected = "must be positive")]
    fn zero_byte_transfer_panics() {
        let mut b = DagBuilder::new();
        b.transfer(vec![LinkId(0)], 0.0, SimTime::ZERO, "x", 0, &[]);
    }
}
