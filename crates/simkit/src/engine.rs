//! The discrete-event executor: runs a [`Dag`] against a [`FlowNet`] and a
//! set of compute resources.
//!
//! Compute tasks occupy resource slots (FIFO when oversubscribed), transfer
//! tasks become flows whose rates are continuously re-balanced by the
//! max-min fair solver, and the engine advances virtual time from event to
//! event. Multiple runs may share one engine and one network so that
//! back-to-back training iterations keep a continuous clock (and token
//! buckets keep their state).
//!
//! # Two executors, one contract
//!
//! The engine ships two implementations selected by [`EngineMode`]:
//!
//! * **Arena** (the default): per-task state lives in flat parallel vectors
//!   (struct-of-arrays: kind tags, durations, in-degrees), edges are
//!   CSR-packed index ranges instead of per-node `Vec`s, and same-instant
//!   completions are drained in batches — retire in bulk, then decrement
//!   successor in-degrees in one pass. All of it sits in a reusable
//!   [`Arena`] scratch refilled per run, so steady-state iterations touch
//!   the allocator only to clone the outcome's completion-time vector.
//! * **Reference**: the original per-run-allocating event loop, kept
//!   verbatim as the oracle.
//!
//! Both produce bit-identical results — same completion times, same span
//! log, same event sequence numbers, same fault-cursor position. In debug
//! builds (or with `ZEROSIM_ENGINE_SHADOW=1`) every arena run re-executes
//! on the reference engine against cloned network/cursor state and asserts
//! exactly that, mirroring the max-min solver's shadow mode.
//! Per-run work counters are reported via [`EngineStats`].

use std::collections::{BinaryHeap, HashMap, VecDeque};

use crate::dag::{Dag, TaskId, TaskKind};
use crate::error::SimError;
use crate::fault::{FaultCursor, FaultKind};
use crate::flow::{FlowId, FlowNet, FlowObserver, LinkId};
use crate::record::{EngineStats, SpanLog};
use crate::time::SimTime;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum EventKind {
    TaskDone(TaskId),
    FlowStart(TaskId),
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Event {
    at: SimTime,
    seq: u64,
    kind: EventKind,
}

impl Ord for Event {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        // Reverse for a min-heap on (time, seq).
        other
            .at
            .cmp(&self.at)
            .then_with(|| other.seq.cmp(&self.seq))
    }
}

impl PartialOrd for Event {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

#[derive(Debug)]
struct ResourceState {
    free_slots: usize,
    waiting: VecDeque<TaskId>,
}

/// Selects which executor implementation a [`DagEngine`] runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EngineMode {
    /// Flat-arena SoA storage with batched completion processing (the
    /// production engine).
    Arena,
    /// The original per-run-allocating event loop, kept as the oracle for
    /// shadow verification and differential tests.
    Reference,
}

impl EngineMode {
    /// The process-level default from `ZEROSIM_ENGINE`: `"reference"`
    /// selects [`EngineMode::Reference`]; anything else — or unset —
    /// selects [`EngineMode::Arena`].
    pub fn from_env() -> Self {
        match std::env::var("ZEROSIM_ENGINE") {
            Ok(v) if v == "reference" => EngineMode::Reference,
            _ => EngineMode::Arena,
        }
    }
}

impl Default for EngineMode {
    fn default() -> Self {
        Self::from_env()
    }
}

/// Shadow-verification default: `ZEROSIM_ENGINE_SHADOW` when set ("0" or
/// empty disables), else on in debug builds (the max-min solver's shadow
/// mode has the same debug default).
fn engine_shadow_default() -> bool {
    match std::env::var("ZEROSIM_ENGINE_SHADOW") {
        Ok(v) => v != "0" && !v.is_empty(),
        Err(_) => cfg!(debug_assertions),
    }
}

/// Sentinel for an empty slot in the arena's dense flow→task map.
const NO_TASK: u32 = u32::MAX;

/// Phase tag of a task in the arena's SoA layout.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum ArenaKind {
    Compute,
    Transfer,
    Delay,
    Marker,
}

/// Reusable flat storage for one DAG execution.
///
/// Structure arrays are ingested from the borrowed [`Dag`] once per
/// *structure*: the arena remembers the DAG's identity
/// ([`Dag::structure_id`]) plus its position in the duration-mutation log,
/// so repeat runs of the same graph skip the O(tasks + edges) walk and
/// replay only the durations restamped since the previous run. Any
/// identity or epoch mismatch falls back to a full rebuild, and backing
/// capacity is retained either way, so steady-state refills never touch
/// the allocator.
#[derive(Debug, Default)]
struct Arena {
    /// `(structure id, duration epoch, consumed log length)` of the DAG the
    /// structure arrays currently describe. Structure id 0 never matches.
    seen_structure: u64,
    seen_epoch: u64,
    seen_log_pos: usize,
    // Structure (SoA, refilled per run).
    kind: Vec<ArenaKind>,
    resource: Vec<u32>,
    duration: Vec<SimTime>,
    latency: Vec<SimTime>,
    bytes: Vec<f64>,
    cap: Vec<f64>,
    /// Tasks that emit a timeline span (label and track both present).
    has_span: Vec<bool>,
    /// CSR offsets (`n + 1` entries) into `route_links`.
    route_off: Vec<u32>,
    route_links: Vec<LinkId>,
    /// CSR offsets (`n + 1` entries) into `succs`.
    succ_off: Vec<u32>,
    succs: Vec<u32>,
    /// Pristine in-degrees; copied into `indeg` at the start of each run.
    indeg0: Vec<u32>,
    // Per-run mutable state.
    indeg: Vec<u32>,
    ready: VecDeque<u32>,
    heap: BinaryHeap<Event>,
    task_start: Vec<SimTime>,
    task_finish: Vec<SimTime>,
    free_slots: Vec<usize>,
    waiting: Vec<VecDeque<u32>>,
    /// Dense flow→task map: entry `i` is the task awaiting flow
    /// `base + i`, where `base` is the network's flow counter at run start.
    flow_task: Vec<u32>,
    /// Scratch for one same-instant completion batch.
    batch: Vec<EventKind>,
}

impl Arena {
    /// Prepares the arena for one run of `dag`. Returns true on a reuse
    /// hit: either the structure was already ingested (durations patched
    /// from the log) or the rebuild fit entirely in retained capacity.
    fn refill(&mut self, dag: &Dag, slot_counts: &[usize]) -> bool {
        let log = dag.duration_log();
        if dag.structure_id() != 0
            && dag.structure_id() == self.seen_structure
            && dag.duration_epoch() == self.seen_epoch
            && self.seen_log_pos <= log.len()
            && self.kind.len() == dag.len()
            && self.waiting.len() >= slot_counts.len()
        {
            // Same structure as last run: only durations can have changed,
            // and the log says exactly which ones.
            for &(idx, dur) in &log[self.seen_log_pos..] {
                self.duration[idx as usize] = dur;
            }
            self.seen_log_pos = log.len();
            self.reset_run_state(dag.len(), slot_counts);
            return true;
        }
        let hit = self.rebuild(dag, slot_counts);
        self.seen_structure = dag.structure_id();
        self.seen_epoch = dag.duration_epoch();
        self.seen_log_pos = log.len();
        self.reset_run_state(dag.len(), slot_counts);
        hit
    }

    /// Re-ingests every structure array from `dag`, retaining capacity.
    /// Returns true when no array had to reallocate.
    #[allow(clippy::cast_possible_truncation)] // task/edge counts fit u32
    fn rebuild(&mut self, dag: &Dag, slot_counts: &[usize]) -> bool {
        let caps = (
            self.kind.capacity(),
            self.succs.capacity(),
            self.route_links.capacity(),
            self.waiting.capacity(),
            self.task_finish.capacity(),
        );
        self.kind.clear();
        self.resource.clear();
        self.duration.clear();
        self.latency.clear();
        self.bytes.clear();
        self.cap.clear();
        self.has_span.clear();
        self.route_off.clear();
        self.route_links.clear();
        self.succ_off.clear();
        self.succs.clear();
        self.indeg0.clear();
        self.route_off.push(0);
        self.succ_off.push(0);
        for ((spec, preds), succs) in dag.tasks.iter().zip(&dag.preds).zip(&dag.succs) {
            let (kind, resource, duration, latency, bytes, cap) = match &spec.kind {
                TaskKind::Compute { resource, duration } => (
                    ArenaKind::Compute,
                    resource.0 as u32,
                    *duration,
                    SimTime::ZERO,
                    0.0,
                    0.0,
                ),
                TaskKind::Transfer {
                    route,
                    bytes,
                    latency,
                    cap,
                } => {
                    self.route_links.extend_from_slice(route);
                    (
                        ArenaKind::Transfer,
                        0,
                        SimTime::ZERO,
                        *latency,
                        *bytes,
                        *cap,
                    )
                }
                TaskKind::Delay { duration } => {
                    (ArenaKind::Delay, 0, *duration, SimTime::ZERO, 0.0, 0.0)
                }
                TaskKind::Marker => (ArenaKind::Marker, 0, SimTime::ZERO, SimTime::ZERO, 0.0, 0.0),
            };
            self.kind.push(kind);
            self.resource.push(resource);
            self.duration.push(duration);
            self.latency.push(latency);
            self.bytes.push(bytes);
            self.cap.push(cap);
            self.has_span
                .push(spec.label.is_some() && spec.track.is_some());
            self.route_off.push(self.route_links.len() as u32);
            self.indeg0.push(preds.len() as u32);
            self.succs.extend(succs.iter().map(|s| s.0 as u32));
            self.succ_off.push(self.succs.len() as u32);
        }
        if self.waiting.len() < slot_counts.len() {
            self.waiting.resize_with(slot_counts.len(), VecDeque::new);
        }
        caps == (
            self.kind.capacity(),
            self.succs.capacity(),
            self.route_links.capacity(),
            self.waiting.capacity(),
            self.task_finish.capacity(),
        )
    }

    /// Resets the per-run mutable state (in-degrees, ready set, clocks,
    /// slots, flow map). All writes are memset-class over retained
    /// buffers; the structure arrays are untouched.
    #[allow(clippy::cast_possible_truncation)] // task counts fit u32
    fn reset_run_state(&mut self, n: usize, slot_counts: &[usize]) {
        self.indeg.clear();
        self.indeg.extend_from_slice(&self.indeg0);
        self.ready.clear();
        for (t, &d) in self.indeg.iter().enumerate() {
            if d == 0 {
                self.ready.push_back(t as u32);
            }
        }
        self.heap.clear();
        self.task_start.clear();
        self.task_start.resize(n, SimTime::ZERO);
        self.task_finish.clear();
        self.task_finish.resize(n, SimTime::ZERO);
        self.free_slots.clear();
        self.free_slots.extend_from_slice(slot_counts);
        for w in &mut self.waiting {
            w.clear();
        }
        self.flow_task.clear();
        self.batch.clear();
    }
}

/// Mutable engine state threaded through the reference executor, so the
/// shadow path can drive it against scratch copies instead of the engine's
/// own fields.
struct EngineState<'a> {
    slot_counts: &'a [usize],
    spans: &'a mut SpanLog,
    seq: &'a mut u64,
    resource_scale: &'a mut [f64],
    stats: &'a mut EngineStats,
}

/// Result of executing one DAG.
#[derive(Debug, Clone)]
pub struct RunOutcome {
    /// Time at which the run began.
    pub started: SimTime,
    /// Time at which the last task finished (or, for an interrupted run,
    /// the time of the interrupting fault).
    pub finished: SimTime,
    /// Per-task completion times, indexed by [`TaskId::index`]. Tasks that
    /// never finished (interrupted run) report [`SimTime::ZERO`].
    pub task_finish: Vec<SimTime>,
    /// True when a [`FaultKind::NodeLoss`] aborted the run before every
    /// task finished. The work of this run is lost; a resilience layer
    /// models restart-from-checkpoint and replay.
    pub interrupted: bool,
}

impl RunOutcome {
    /// Wall-clock (virtual) duration of the run.
    pub fn makespan(&self) -> SimTime {
        self.finished - self.started
    }
}

/// Executes DAGs on a fixed set of compute resources.
///
/// ```
/// use zerosim_simkit::dag::{DagBuilder, ResourceId};
/// use zerosim_simkit::engine::DagEngine;
/// use zerosim_simkit::flow::FlowNet;
/// use zerosim_simkit::SimTime;
///
/// # fn main() -> Result<(), zerosim_simkit::SimError> {
/// let mut net = FlowNet::new();
/// let link = net.add_link("pcie", 100.0);
/// let mut b = DagBuilder::new();
/// let c = b.compute(ResourceId(0), SimTime::from_ms(1.0), "gemm", &[]);
/// b.transfer(vec![link], 100.0, SimTime::ZERO, "h2d", 0, &[c]);
/// let dag = b.build();
///
/// let mut engine = DagEngine::new(vec![1]); // one GPU, one slot
/// let outcome = engine.run(&mut net, &dag, SimTime::ZERO, None)?;
/// assert_eq!(outcome.makespan(), SimTime::from_ms(1.0) + SimTime::from_secs(1.0));
/// # Ok(())
/// # }
/// ```
#[derive(Debug)]
pub struct DagEngine {
    slot_counts: Vec<usize>,
    spans: SpanLog,
    seq: u64,
    /// Per-resource service-rate factor (1.0 = nominal). Mutated by
    /// [`FaultKind::SlowResource`] / [`FaultKind::RestoreResource`] events
    /// and persistent across runs, so a straggler stays slow from iteration
    /// to iteration until explicitly restored.
    resource_scale: Vec<f64>,
    mode: EngineMode,
    shadow: bool,
    arena: Arena,
    stats: EngineStats,
}

/// Stretches a compute duration by the inverse of a service-rate factor.
///
/// `scale == 1.0` is an exact no-op (bit-identical to the unscaled
/// duration), which is what keeps fault-free runs byte-identical to the
/// pre-fault-injection engine.
#[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss)] // ns fit u64
fn scale_duration(scale: f64, d: SimTime) -> SimTime {
    if scale == 1.0 {
        d
    } else {
        SimTime::from_nanos((d.as_nanos() as f64 / scale).round() as u64)
    }
}

impl DagEngine {
    /// Creates an engine with `slot_counts[i]` concurrent slots on resource
    /// `ResourceId(i)`.
    ///
    /// The executor defaults to [`EngineMode::from_env`] and shadow
    /// verification defaults to on in debug builds (`ZEROSIM_ENGINE_SHADOW`
    /// overrides either way); see [`DagEngine::set_mode`] and
    /// [`DagEngine::set_shadow_verify`].
    ///
    /// # Panics
    /// Panics if any slot count is zero.
    pub fn new(slot_counts: Vec<usize>) -> Self {
        assert!(
            slot_counts.iter().all(|&s| s > 0),
            "every resource needs at least one slot"
        );
        let n = slot_counts.len();
        DagEngine {
            slot_counts,
            spans: SpanLog::new(),
            seq: 0,
            resource_scale: vec![1.0; n],
            mode: EngineMode::default(),
            shadow: engine_shadow_default(),
            arena: Arena::default(),
            stats: EngineStats::default(),
        }
    }

    /// The executor implementation this engine runs.
    pub fn mode(&self) -> EngineMode {
        self.mode
    }

    /// Selects the executor implementation ([`EngineMode::Arena`] by
    /// default; [`EngineMode::Reference`] forces the oracle path).
    pub fn set_mode(&mut self, mode: EngineMode) {
        self.mode = mode;
    }

    /// Whether arena runs are cross-checked against the reference engine.
    pub fn shadow_verify(&self) -> bool {
        self.shadow
    }

    /// Enables or disables shadow verification: when on, every
    /// [`EngineMode::Arena`] run is re-executed on the reference engine
    /// against cloned network/cursor state and the results are asserted
    /// bit-identical (outcome, spans, sequence numbers, resource scales,
    /// fault-cursor position). Panics on divergence.
    pub fn set_shadow_verify(&mut self, on: bool) {
        self.shadow = on;
    }

    /// Work counters accumulated across all runs of this engine.
    pub fn stats(&self) -> EngineStats {
        self.stats
    }

    /// Current service-rate factor of resource `resource` (1.0 = nominal).
    ///
    /// # Panics
    /// Panics if `resource` is out of range.
    pub fn resource_scale(&self, resource: usize) -> f64 {
        self.resource_scale[resource]
    }

    /// Timeline spans accumulated across all runs so far.
    pub fn spans(&self) -> &SpanLog {
        &self.spans
    }

    /// Takes ownership of the accumulated spans, leaving the log empty.
    pub fn take_spans(&mut self) -> SpanLog {
        std::mem::take(&mut self.spans)
    }

    /// Executes `dag` starting at `start`, observing transfers with `obs`
    /// when provided.
    ///
    /// # Errors
    /// Returns [`SimError::Deadlock`] if tasks remain unfinished when no
    /// event can make progress (an impossible dependency given the DAG
    /// builder, but background flows in `net` could in principle starve a
    /// token bucket forever) and [`SimError::UnknownResource`] if a compute
    /// task names a resource the engine was not configured with.
    pub fn run(
        &mut self,
        net: &mut FlowNet,
        dag: &Dag,
        start: SimTime,
        obs: Option<&mut dyn FlowObserver>,
    ) -> Result<RunOutcome, SimError> {
        self.run_faulted(net, dag, start, obs, &mut FaultCursor::empty())
    }

    /// Executes `dag` starting at `start` while consuming due events from
    /// `faults`.
    ///
    /// Fault times are first-class event candidates: the engine advances
    /// virtual time to the earliest of the timer heap, the flow network,
    /// and the next fault, so a link rescale takes effect exactly at its
    /// scheduled instant and in-flight flows re-converge to the new max-min
    /// fair allocation from that point on. Events at the same instant are
    /// ordered: finished work is retired first, then faults apply, then
    /// newly ready tasks launch (under the post-fault service rates).
    ///
    /// A [`FaultKind::NodeLoss`] aborts the run at its firing time: flows
    /// this run started are cancelled (bytes already moved stay moved) and
    /// the returned outcome has [`RunOutcome::interrupted`] set. The cursor
    /// keeps its position across calls, so one schedule spans a whole
    /// multi-iteration simulation on a continuous clock.
    ///
    /// With an exhausted cursor this is exactly [`DagEngine::run`]: the
    /// fault hooks are bit-level no-ops, which keeps healthy runs
    /// byte-identical to the pre-fault-injection engine.
    ///
    /// # Errors
    /// Same conditions as [`DagEngine::run`], plus the [`SimError`]s of
    /// [`FlowNet::scale_link`] / [`FlowNet::set_link_cap`] for malformed
    /// link events and [`SimError::BadRateFactor`] /
    /// [`SimError::UnknownResource`] for malformed resource events.
    pub fn run_faulted(
        &mut self,
        net: &mut FlowNet,
        dag: &Dag,
        start: SimTime,
        obs: Option<&mut dyn FlowObserver>,
        faults: &mut FaultCursor,
    ) -> Result<RunOutcome, SimError> {
        match self.mode {
            EngineMode::Reference => {
                let state = EngineState {
                    slot_counts: &self.slot_counts,
                    spans: &mut self.spans,
                    seq: &mut self.seq,
                    resource_scale: &mut self.resource_scale,
                    stats: &mut self.stats,
                };
                Self::reference_run(state, net, dag, start, obs, faults)
            }
            EngineMode::Arena if self.shadow => {
                let net_snap = net.clone();
                let cursor_snap = faults.clone();
                let scale_snap = self.resource_scale.clone();
                let seq_snap = self.seq;
                let span_mark = self.spans.spans().len();
                let stats_before = self.stats;
                let primary = self.run_faulted_arena(net, dag, start, obs, faults)?;
                let delta = self.stats.delta_since(&stats_before);
                self.shadow_reference_check(
                    dag,
                    start,
                    &primary,
                    &delta,
                    span_mark,
                    net_snap,
                    cursor_snap,
                    faults,
                    scale_snap,
                    seq_snap,
                );
                Ok(primary)
            }
            EngineMode::Arena => self.run_faulted_arena(net, dag, start, obs, faults),
        }
    }

    /// Re-executes the run just performed by the arena engine on the
    /// reference engine, against the pre-run snapshots, and asserts both
    /// executors produced bit-identical results.
    #[allow(clippy::too_many_arguments)] // snapshot plumbing, internal only
    fn shadow_reference_check(
        &mut self,
        dag: &Dag,
        start: SimTime,
        primary: &RunOutcome,
        primary_delta: &EngineStats,
        span_mark: usize,
        mut net: FlowNet,
        mut cursor: FaultCursor,
        cursor_after: &FaultCursor,
        mut scale: Vec<f64>,
        mut seq: u64,
    ) {
        let mut ref_spans = SpanLog::new();
        let mut ref_stats = EngineStats::default();
        let state = EngineState {
            slot_counts: &self.slot_counts,
            spans: &mut ref_spans,
            seq: &mut seq,
            resource_scale: &mut scale,
            stats: &mut ref_stats,
        };
        let reference = Self::reference_run(state, &mut net, dag, start, None, &mut cursor)
            .unwrap_or_else(|e| {
                panic!(
                    "engine shadow: reference engine errored where the arena engine succeeded: {e}"
                )
            });
        assert_eq!(
            primary.started, reference.started,
            "engine shadow: start diverged"
        );
        assert_eq!(
            primary.finished, reference.finished,
            "engine shadow: finish time diverged (arena {:?} vs reference {:?})",
            primary.finished, reference.finished
        );
        assert_eq!(
            primary.interrupted, reference.interrupted,
            "engine shadow: interrupt flag diverged"
        );
        assert_eq!(
            primary.task_finish, reference.task_finish,
            "engine shadow: per-task completion times diverged"
        );
        assert_eq!(
            &self.spans.spans()[span_mark..],
            ref_spans.spans(),
            "engine shadow: timeline spans diverged"
        );
        assert_eq!(
            self.resource_scale, scale,
            "engine shadow: resource scales diverged"
        );
        assert_eq!(
            self.seq, seq,
            "engine shadow: event sequence numbers diverged"
        );
        assert_eq!(
            cursor_after, &cursor,
            "engine shadow: fault cursor diverged"
        );
        assert_eq!(
            primary_delta.tasks_finished, ref_stats.tasks_finished,
            "engine shadow: retired task count diverged"
        );
        assert_eq!(
            primary_delta.flows_started, ref_stats.flows_started,
            "engine shadow: started flow count diverged"
        );
        assert_eq!(
            primary_delta.ticks, ref_stats.ticks,
            "engine shadow: event-loop tick count diverged"
        );
        self.stats.shadow_runs += 1;
    }

    /// The arena executor: flat SoA task storage, CSR edges, and batched
    /// completion processing. Produces results bit-identical to
    /// [`DagEngine::reference_run`]; see the batching argument inline.
    #[allow(clippy::cast_possible_truncation)] // task indices fit u32
    fn run_faulted_arena(
        &mut self,
        net: &mut FlowNet,
        dag: &Dag,
        start: SimTime,
        mut obs: Option<&mut dyn FlowObserver>,
        faults: &mut FaultCursor,
    ) -> Result<RunOutcome, SimError> {
        let n = dag.len();

        // Validates resources up front so the error is immediate.
        for spec in &dag.tasks {
            if let TaskKind::Compute { resource, .. } = &spec.kind {
                if resource.0 >= self.slot_counts.len() {
                    return Err(SimError::UnknownResource {
                        resource: resource.0,
                    });
                }
            }
        }

        self.stats.runs += 1;
        if self.arena.refill(dag, &self.slot_counts) {
            self.stats.arena_reuse_hits += 1;
        } else {
            self.stats.arena_builds += 1;
        }

        // Flows started by this run get ids `flow_base..`, densely — the
        // engine is the only party starting flows mid-run — so the
        // flow→task map is a plain vector instead of a hash map.
        let flow_base = net.next_flow_raw();
        let mut now = start;
        let mut finished = 0usize;
        let mut interrupted = false;
        let mut batch = std::mem::take(&mut self.arena.batch);

        // Retires one finished task: completion time, span, slot handoff.
        // Does NOT touch in-degrees — that is the decrement pass's job.
        macro_rules! retire {
            ($t:expr) => {{
                let ti = $t as usize;
                self.arena.task_finish[ti] = now;
                if self.arena.has_span[ti] {
                    let spec = dag.task(TaskId(ti));
                    if let (Some(label), Some(track)) = (&spec.label, spec.track) {
                        self.spans
                            .push(track, label.clone(), self.arena.task_start[ti], now);
                    }
                }
                if self.arena.kind[ti] == ArenaKind::Compute {
                    let r = self.arena.resource[ti] as usize;
                    if let Some(next) = self.arena.waiting[r].pop_front() {
                        // Hand the slot directly to the next waiter.
                        let ni = next as usize;
                        self.arena.task_start[ni] = now;
                        self.seq += 1;
                        self.arena.heap.push(Event {
                            at: now
                                + scale_duration(self.resource_scale[r], self.arena.duration[ni]),
                            seq: self.seq,
                            kind: EventKind::TaskDone(TaskId(ni)),
                        });
                    } else {
                        self.arena.free_slots[r] += 1;
                    }
                }
                finished += 1;
                self.stats.tasks_finished += 1;
            }};
        }

        // Decrements successor in-degrees of one finished task, extending
        // the ready queue in successor order.
        macro_rules! cascade {
            ($t:expr) => {{
                let ti = $t as usize;
                let lo = self.arena.succ_off[ti] as usize;
                let hi = self.arena.succ_off[ti + 1] as usize;
                for i in lo..hi {
                    let s = self.arena.succs[i] as usize;
                    self.arena.indeg[s] -= 1;
                    if self.arena.indeg[s] == 0 {
                        self.arena.ready.push_back(s as u32);
                    }
                }
            }};
        }

        macro_rules! start_flow_for {
            ($t:expr) => {{
                let ti = $t as usize;
                let lo = self.arena.route_off[ti] as usize;
                let hi = self.arena.route_off[ti + 1] as usize;
                let fid = net.start_flow_capped(
                    &self.arena.route_links[lo..hi],
                    self.arena.bytes[ti],
                    self.arena.cap[ti],
                )?;
                debug_assert_eq!(fid.raw() - flow_base, self.arena.flow_task.len() as u64);
                self.arena.flow_task.push($t);
                self.stats.flows_started += 1;
            }};
        }

        // Backstop against pathological event storms (e.g. a token bucket
        // oscillating at nanosecond granularity): proportional to DAG size
        // plus a generous constant for background-flow churn.
        let event_budget = 10_000_000u64 + 200 * n as u64;
        let mut events = 0u64;
        loop {
            events += 1;
            self.stats.ticks += 1;
            if events > event_budget {
                self.arena.batch = batch;
                return Err(SimError::EventLimit {
                    budget: event_budget,
                });
            }
            // Apply every fault due at (or before) the current clock before
            // launching new work, so tasks that become ready at a fault
            // instant start under the post-fault service rates and a node
            // loss pre-empts them entirely. Events left over from an
            // aborted previous run (e.g. a restore that fired while a node
            // was rebooting) are caught up here as well.
            let mut lost_node = false;
            while let Some(ev) = faults.next_due(now) {
                match &ev.kind {
                    FaultKind::SetLinkCap {
                        link,
                        bytes_per_sec,
                    } => net.set_link_cap(*link, *bytes_per_sec)?,
                    FaultKind::ScaleLink { link, factor } => net.scale_link(*link, *factor)?,
                    FaultKind::RestoreLink { link } => net.restore_link(*link)?,
                    FaultKind::SlowResource { resource, factor } => {
                        if *resource >= self.resource_scale.len() {
                            return Err(SimError::UnknownResource {
                                resource: *resource,
                            });
                        }
                        if !(factor.is_finite() && *factor > 0.0) {
                            return Err(SimError::BadRateFactor {
                                resource: *resource,
                            });
                        }
                        self.resource_scale[*resource] = *factor;
                    }
                    FaultKind::RestoreResource { resource } => {
                        if *resource >= self.resource_scale.len() {
                            return Err(SimError::UnknownResource {
                                resource: *resource,
                            });
                        }
                        self.resource_scale[*resource] = 1.0;
                    }
                    FaultKind::NodeLoss { .. } => {
                        lost_node = true;
                        break;
                    }
                }
            }
            if lost_node {
                // Abandon the run: in-flight transfers this run started are
                // torn down (bytes already moved stay observed), pending
                // tasks never finish. Recovery — restart-from-checkpoint and
                // replay — is modelled by the caller. Cancellation order is
                // immaterial: flow teardown commutes in the solver.
                for (i, &t) in self.arena.flow_task.iter().enumerate() {
                    if t != NO_TASK {
                        net.cancel_flow(FlowId::from_raw(flow_base + i as u64));
                    }
                }
                self.arena.flow_task.clear();
                interrupted = true;
                break;
            }
            // Launch everything that is ready. Markers finish (and cascade)
            // inline so marker chains drain within one launch sweep, exactly
            // as in the reference engine.
            while let Some(t) = self.arena.ready.pop_front() {
                let ti = t as usize;
                self.arena.task_start[ti] = now;
                match self.arena.kind[ti] {
                    ArenaKind::Marker => {
                        retire!(t);
                        cascade!(t);
                    }
                    ArenaKind::Delay => {
                        self.seq += 1;
                        self.arena.heap.push(Event {
                            at: now + self.arena.duration[ti],
                            seq: self.seq,
                            kind: EventKind::TaskDone(TaskId(ti)),
                        });
                    }
                    ArenaKind::Compute => {
                        let r = self.arena.resource[ti] as usize;
                        if self.arena.free_slots[r] > 0 {
                            self.arena.free_slots[r] -= 1;
                            self.seq += 1;
                            self.arena.heap.push(Event {
                                at: now
                                    + scale_duration(
                                        self.resource_scale[r],
                                        self.arena.duration[ti],
                                    ),
                                seq: self.seq,
                                kind: EventKind::TaskDone(TaskId(ti)),
                            });
                        } else {
                            self.arena.waiting[r].push_back(t);
                        }
                    }
                    ArenaKind::Transfer => {
                        let latency = self.arena.latency[ti];
                        if latency.is_zero() {
                            start_flow_for!(t);
                        } else {
                            self.seq += 1;
                            self.arena.heap.push(Event {
                                at: now + latency,
                                seq: self.seq,
                                kind: EventKind::FlowStart(TaskId(ti)),
                            });
                        }
                    }
                }
            }

            if finished == n {
                break;
            }

            // Next event: earliest of timer heap, flow-network events, and
            // the next scheduled fault (all strictly in the future — due
            // faults were consumed above, due timers fired below).
            let timer_at = self.arena.heap.peek().map(|e| e.at);
            let flow_at = net.next_event_in().map(|dt| {
                // Positive, finite, and bounded by the horizon: exact in u64.
                #[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss)]
                let ns = (dt * 1e9).ceil().max(1.0) as u64;
                now + SimTime::from_nanos(ns)
            });
            let fault_at = faults.peek_at();
            let Some(t_next) = [timer_at, flow_at, fault_at].into_iter().flatten().min() else {
                self.arena.batch = batch;
                return Err(SimError::Deadlock {
                    pending: n - finished,
                });
            };

            // Advance the network to t_next.
            let dt_secs = (t_next - now).as_secs();
            let done_flows = match obs.as_deref_mut() {
                Some(o) => net.advance(now, dt_secs, o),
                None => net.advance(now, dt_secs, &mut crate::flow::NullObserver),
            };
            now = t_next;

            // Batched completion processing. One batch holds every event
            // due at `now`: finished flows first (ascending id — the order
            // the reference engine retires them), then due timer events in
            // (time, seq) heap order. The batch is retired in bulk, then a
            // single sweep decrements successor in-degrees. The split is
            // sound because retiring touches {spans, slots, heap} while
            // decrementing touches {indeg, ready} — disjoint state — and
            // both passes preserve event order. Slot handoffs scheduled at
            // `now` during a retire pass carry fresh (larger) sequence
            // numbers, so draining them in follow-up rounds of the same
            // tick replays the reference engine's pop order exactly.
            debug_assert!(batch.is_empty());
            for fid in done_flows {
                let raw = fid.raw();
                if raw < flow_base {
                    continue; // Foreign (background) flows complete silently.
                }
                let idx = (raw - flow_base) as usize;
                let t = self.arena.flow_task[idx];
                if t == NO_TASK {
                    continue;
                }
                self.arena.flow_task[idx] = NO_TASK;
                batch.push(EventKind::TaskDone(TaskId(t as usize)));
            }
            loop {
                while let Some(&ev) = self.arena.heap.peek() {
                    if ev.at > now {
                        break;
                    }
                    self.arena.heap.pop();
                    batch.push(ev.kind);
                }
                if batch.is_empty() {
                    break;
                }
                self.stats.batches += 1;
                self.stats.max_batch = self.stats.max_batch.max(batch.len());
                for &ev in &batch {
                    match ev {
                        EventKind::TaskDone(t) => retire!(t.0 as u32),
                        EventKind::FlowStart(t) => start_flow_for!(t.0 as u32),
                    }
                }
                for &ev in &batch {
                    if let EventKind::TaskDone(t) = ev {
                        cascade!(t.0 as u32);
                    }
                }
                batch.clear();
            }
        }

        self.arena.batch = batch;
        Ok(RunOutcome {
            started: start,
            finished: now,
            task_finish: self.arena.task_finish.clone(),
            interrupted,
        })
    }

    /// The reference executor: the original event loop, with per-run
    /// allocations and interleaved (unbatched) completion processing. Kept
    /// verbatim as the oracle for shadow mode and differential tests.
    fn reference_run(
        state: EngineState<'_>,
        net: &mut FlowNet,
        dag: &Dag,
        start: SimTime,
        mut obs: Option<&mut dyn FlowObserver>,
        faults: &mut FaultCursor,
    ) -> Result<RunOutcome, SimError> {
        let EngineState {
            slot_counts,
            spans,
            seq,
            resource_scale,
            stats,
        } = state;
        let n = dag.len();
        let mut indeg: Vec<usize> = (0..n).map(|i| dag.preds(TaskId(i)).len()).collect();
        let mut ready: VecDeque<TaskId> = (0..n).map(TaskId).filter(|t| indeg[t.0] == 0).collect();
        let mut resources: Vec<ResourceState> = slot_counts
            .iter()
            .map(|&s| ResourceState {
                free_slots: s,
                waiting: VecDeque::new(),
            })
            .collect();
        let mut heap: BinaryHeap<Event> = BinaryHeap::new();
        let mut flow_task: HashMap<FlowId, TaskId> = HashMap::new();
        let mut task_start: Vec<SimTime> = vec![SimTime::ZERO; n];
        let mut task_finish: Vec<SimTime> = vec![SimTime::ZERO; n];
        let mut finished = 0usize;
        let mut now = start;
        let mut interrupted = false;

        // Validates resources up front so the error is immediate.
        for t in dag.task_ids() {
            if let TaskKind::Compute { resource, .. } = &dag.task(t).kind {
                if resource.0 >= slot_counts.len() {
                    return Err(SimError::UnknownResource {
                        resource: resource.0,
                    });
                }
            }
        }

        stats.runs += 1;

        macro_rules! finish_task {
            ($t:expr) => {{
                let t: TaskId = $t;
                task_finish[t.0] = now;
                let spec = dag.task(t);
                if let (Some(label), Some(track)) = (&spec.label, spec.track) {
                    spans.push(track, label.clone(), task_start[t.0], now);
                }
                if let TaskKind::Compute { resource, .. } = &spec.kind {
                    let rs = &mut resources[resource.0];
                    if let Some(next) = rs.waiting.pop_front() {
                        // Hand the slot directly to the next waiter.
                        task_start[next.0] = now;
                        if let TaskKind::Compute { duration, .. } = &dag.task(next).kind {
                            *seq += 1;
                            heap.push(Event {
                                at: now + scale_duration(resource_scale[resource.0], *duration),
                                seq: *seq,
                                kind: EventKind::TaskDone(next),
                            });
                        }
                    } else {
                        rs.free_slots += 1;
                    }
                }
                finished += 1;
                stats.tasks_finished += 1;
                for &s in dag.succs(t) {
                    indeg[s.0] -= 1;
                    if indeg[s.0] == 0 {
                        ready.push_back(s);
                    }
                }
            }};
        }

        macro_rules! start_flow_for {
            ($t:expr) => {{
                let t: TaskId = $t;
                if let TaskKind::Transfer {
                    route, bytes, cap, ..
                } = &dag.task(t).kind
                {
                    let fid = net.start_flow_capped(route, *bytes, *cap)?;
                    flow_task.insert(fid, t);
                    stats.flows_started += 1;
                }
            }};
        }

        // Backstop against pathological event storms (e.g. a token bucket
        // oscillating at nanosecond granularity): proportional to DAG size
        // plus a generous constant for background-flow churn.
        let event_budget = 10_000_000u64 + 200 * n as u64;
        let mut events = 0u64;
        loop {
            events += 1;
            stats.ticks += 1;
            if events > event_budget {
                return Err(SimError::EventLimit {
                    budget: event_budget,
                });
            }
            // Apply every fault due at (or before) the current clock before
            // launching new work, so tasks that become ready at a fault
            // instant start under the post-fault service rates and a node
            // loss pre-empts them entirely. Events left over from an
            // aborted previous run (e.g. a restore that fired while a node
            // was rebooting) are caught up here as well.
            let mut lost_node = false;
            while let Some(ev) = faults.next_due(now) {
                match &ev.kind {
                    FaultKind::SetLinkCap {
                        link,
                        bytes_per_sec,
                    } => net.set_link_cap(*link, *bytes_per_sec)?,
                    FaultKind::ScaleLink { link, factor } => net.scale_link(*link, *factor)?,
                    FaultKind::RestoreLink { link } => net.restore_link(*link)?,
                    FaultKind::SlowResource { resource, factor } => {
                        if *resource >= resource_scale.len() {
                            return Err(SimError::UnknownResource {
                                resource: *resource,
                            });
                        }
                        if !(factor.is_finite() && *factor > 0.0) {
                            return Err(SimError::BadRateFactor {
                                resource: *resource,
                            });
                        }
                        resource_scale[*resource] = *factor;
                    }
                    FaultKind::RestoreResource { resource } => {
                        if *resource >= resource_scale.len() {
                            return Err(SimError::UnknownResource {
                                resource: *resource,
                            });
                        }
                        resource_scale[*resource] = 1.0;
                    }
                    FaultKind::NodeLoss { .. } => {
                        lost_node = true;
                        break;
                    }
                }
            }
            if lost_node {
                // Abandon the run: in-flight transfers this run started are
                // torn down (bytes already moved stay observed), pending
                // tasks never finish. Recovery — restart-from-checkpoint and
                // replay — is modelled by the caller.
                for (fid, _) in flow_task.drain() {
                    net.cancel_flow(fid);
                }
                interrupted = true;
                break;
            }
            // Launch everything that is ready.
            while let Some(t) = ready.pop_front() {
                task_start[t.0] = now;
                match &dag.task(t).kind {
                    TaskKind::Marker => finish_task!(t),
                    TaskKind::Delay { duration } => {
                        *seq += 1;
                        heap.push(Event {
                            at: now + *duration,
                            seq: *seq,
                            kind: EventKind::TaskDone(t),
                        });
                    }
                    TaskKind::Compute { resource, duration } => {
                        let rs = &mut resources[resource.0];
                        if rs.free_slots > 0 {
                            rs.free_slots -= 1;
                            *seq += 1;
                            heap.push(Event {
                                at: now + scale_duration(resource_scale[resource.0], *duration),
                                seq: *seq,
                                kind: EventKind::TaskDone(t),
                            });
                        } else {
                            rs.waiting.push_back(t);
                        }
                    }
                    TaskKind::Transfer { latency, .. } => {
                        if latency.is_zero() {
                            start_flow_for!(t);
                        } else {
                            *seq += 1;
                            heap.push(Event {
                                at: now + *latency,
                                seq: *seq,
                                kind: EventKind::FlowStart(t),
                            });
                        }
                    }
                }
            }

            if finished == n {
                break;
            }

            // Next event: earliest of timer heap, flow-network events, and
            // the next scheduled fault (all strictly in the future — due
            // faults were consumed above, due timers fired below).
            let timer_at = heap.peek().map(|e| e.at);
            let flow_at = net.next_event_in().map(|dt| {
                // Positive, finite, and bounded by the horizon: exact in u64.
                #[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss)]
                let ns = (dt * 1e9).ceil().max(1.0) as u64;
                now + SimTime::from_nanos(ns)
            });
            let fault_at = faults.peek_at();
            let Some(t_next) = [timer_at, flow_at, fault_at].into_iter().flatten().min() else {
                return Err(SimError::Deadlock {
                    pending: n - finished,
                });
            };

            // Advance the network to t_next.
            let dt_secs = (t_next - now).as_secs();
            let done_flows = match obs.as_deref_mut() {
                Some(o) => net.advance(now, dt_secs, o),
                None => net.advance(now, dt_secs, &mut crate::flow::NullObserver),
            };
            now = t_next;
            for fid in done_flows {
                if let Some(t) = flow_task.remove(&fid) {
                    finish_task!(t);
                }
                // Foreign (background) flows complete silently.
            }

            // Fire all timer events scheduled exactly at t_next. Pop first
            // and push back when not yet due, which keeps this loop free of
            // a peek-then-pop unwrap.
            while let Some(ev) = heap.pop() {
                if ev.at > now {
                    heap.push(ev);
                    break;
                }
                match ev.kind {
                    EventKind::TaskDone(t) => finish_task!(t),
                    EventKind::FlowStart(t) => start_flow_for!(t),
                }
            }
        }

        Ok(RunOutcome {
            started: start,
            finished: now,
            task_finish,
            interrupted,
        })
    }

    /// Runs `dag` `count` times back to back, returning the outcomes.
    ///
    /// # Errors
    /// Propagates the first error from [`DagEngine::run`].
    pub fn run_iterations(
        &mut self,
        net: &mut FlowNet,
        dag: &Dag,
        start: SimTime,
        count: usize,
        mut obs: Option<&mut dyn FlowObserver>,
    ) -> Result<Vec<RunOutcome>, SimError> {
        let mut outcomes = Vec::with_capacity(count);
        let mut t = start;
        for _ in 0..count {
            let reborrow: Option<&mut dyn FlowObserver> = match obs.as_mut() {
                Some(o) => Some(&mut **o),
                None => None,
            };
            let outcome = self.run(net, dag, t, reborrow)?;
            t = outcome.finished;
            outcomes.push(outcome);
        }
        Ok(outcomes)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dag::{DagBuilder, ResourceId};
    use crate::record::BandwidthRecorder;

    fn ms(v: f64) -> SimTime {
        SimTime::from_ms(v)
    }

    #[test]
    fn serial_compute_chain() {
        let mut net = FlowNet::new();
        let mut b = DagBuilder::new();
        let a = b.compute(ResourceId(0), ms(1.0), "a", &[]);
        let c = b.compute(ResourceId(0), ms(2.0), "b", &[a]);
        let _ = c;
        let dag = b.build();
        let mut eng = DagEngine::new(vec![1]);
        let out = eng.run(&mut net, &dag, SimTime::ZERO, None).unwrap();
        assert_eq!(out.makespan(), ms(3.0));
    }

    #[test]
    fn slot_contention_serializes() {
        let mut net = FlowNet::new();
        let mut b = DagBuilder::new();
        b.compute(ResourceId(0), ms(1.0), "a", &[]);
        b.compute(ResourceId(0), ms(1.0), "b", &[]);
        b.compute(ResourceId(0), ms(1.0), "c", &[]);
        let dag = b.build();
        let mut eng = DagEngine::new(vec![1]);
        let out = eng.run(&mut net, &dag, SimTime::ZERO, None).unwrap();
        assert_eq!(out.makespan(), ms(3.0));

        let mut eng2 = DagEngine::new(vec![3]);
        let out2 = eng2.run(&mut net, &dag, SimTime::ZERO, None).unwrap();
        assert_eq!(out2.makespan(), ms(1.0));
    }

    #[test]
    fn transfer_with_latency() {
        let mut net = FlowNet::new();
        let l = net.add_link("l", 1000.0);
        let mut b = DagBuilder::new();
        b.transfer(vec![l], 1000.0, ms(5.0), "x", 0, &[]);
        let dag = b.build();
        let mut eng = DagEngine::new(vec![]);
        let out = eng.run(&mut net, &dag, SimTime::ZERO, None).unwrap();
        // 5 ms latency + 1 s transfer.
        let secs = out.makespan().as_secs();
        assert!((secs - 1.005).abs() < 1e-6, "got {secs}");
    }

    #[test]
    fn compute_overlaps_transfer() {
        let mut net = FlowNet::new();
        let l = net.add_link("l", 100.0);
        let mut b = DagBuilder::new();
        b.compute(ResourceId(0), SimTime::from_secs(1.0), "gemm", &[]);
        b.transfer(vec![l], 100.0, SimTime::ZERO, "comm", 0, &[]);
        let dag = b.build();
        let mut eng = DagEngine::new(vec![1]);
        let out = eng.run(&mut net, &dag, SimTime::ZERO, None).unwrap();
        assert!((out.makespan().as_secs() - 1.0).abs() < 1e-6);
    }

    #[test]
    fn diamond_dependencies() {
        let mut net = FlowNet::new();
        let mut b = DagBuilder::new();
        let root = b.compute(ResourceId(0), ms(1.0), "root", &[]);
        let left = b.compute(ResourceId(0), ms(2.0), "left", &[root]);
        let right = b.compute(ResourceId(1), ms(3.0), "right", &[root]);
        b.marker(&[left, right]);
        let dag = b.build();
        let mut eng = DagEngine::new(vec![1, 1]);
        let out = eng.run(&mut net, &dag, SimTime::ZERO, None).unwrap();
        assert_eq!(out.makespan(), ms(4.0));
    }

    #[test]
    fn spans_are_recorded() {
        let mut net = FlowNet::new();
        let mut b = DagBuilder::new();
        b.compute(ResourceId(0), ms(2.0), "gemm", &[]);
        let dag = b.build();
        let mut eng = DagEngine::new(vec![1]);
        eng.run(&mut net, &dag, SimTime::ZERO, None).unwrap();
        assert_eq!(eng.spans().busy_time(0, "gemm"), ms(2.0));
    }

    #[test]
    fn iterations_keep_continuous_clock() {
        let mut net = FlowNet::new();
        let mut b = DagBuilder::new();
        b.compute(ResourceId(0), ms(10.0), "iter", &[]);
        let dag = b.build();
        let mut eng = DagEngine::new(vec![1]);
        let outs = eng
            .run_iterations(&mut net, &dag, SimTime::ZERO, 3, None)
            .unwrap();
        assert_eq!(outs.len(), 3);
        assert_eq!(outs[2].finished, ms(30.0));
        assert_eq!(outs[1].started, ms(10.0));
    }

    #[test]
    fn unknown_resource_is_an_error() {
        let mut net = FlowNet::new();
        let mut b = DagBuilder::new();
        b.compute(ResourceId(5), ms(1.0), "x", &[]);
        let dag = b.build();
        let mut eng = DagEngine::new(vec![1]);
        let err = eng.run(&mut net, &dag, SimTime::ZERO, None).unwrap_err();
        assert!(matches!(err, SimError::UnknownResource { resource: 5 }));
    }

    #[test]
    fn observer_records_transfer_bytes() {
        let mut net = FlowNet::new();
        let l = net.add_link("l", 1000.0);
        let mut b = DagBuilder::new();
        b.transfer(vec![l], 500.0, SimTime::ZERO, "x", 0, &[]);
        let dag = b.build();
        let mut rec = BandwidthRecorder::new(ms(100.0));
        let mut eng = DagEngine::new(vec![]);
        eng.run(&mut net, &dag, SimTime::ZERO, Some(&mut rec))
            .unwrap();
        assert!((rec.total_bytes(l) - 500.0).abs() < 1e-6);
    }

    #[test]
    fn two_transfers_share_bandwidth() {
        let mut net = FlowNet::new();
        let l = net.add_link("l", 100.0);
        let mut b = DagBuilder::new();
        b.transfer(vec![l], 100.0, SimTime::ZERO, "x", 0, &[]);
        b.transfer(vec![l], 100.0, SimTime::ZERO, "y", 0, &[]);
        let dag = b.build();
        let mut eng = DagEngine::new(vec![]);
        let out = eng.run(&mut net, &dag, SimTime::ZERO, None).unwrap();
        assert!((out.makespan().as_secs() - 2.0).abs() < 1e-6);
    }

    #[test]
    fn empty_dag_completes_instantly() {
        let mut net = FlowNet::new();
        let dag = DagBuilder::new().build();
        let mut eng = DagEngine::new(vec![]);
        let out = eng.run(&mut net, &dag, ms(7.0), None).unwrap();
        assert_eq!(out.makespan(), SimTime::ZERO);
        assert_eq!(out.started, ms(7.0));
    }

    /// A DAG exercising every task kind with slot contention and shared
    /// links — the shape most likely to expose a batching-order bug.
    fn mixed_dag(b: &mut DagBuilder, l: LinkId) {
        let root = b.delay(ms(1.0), &[]);
        let mut joins = Vec::new();
        for i in 0..8 {
            let c = b.compute(ResourceId(i % 2), ms(2.0 + i as f64), "k", &[root]);
            let t = b.transfer(vec![l], 300.0 + 10.0 * i as f64, ms(0.5), "x", 0, &[c]);
            joins.push(t);
        }
        let m = b.marker(&joins);
        b.compute(ResourceId(0), ms(1.0), "tail", &[m]);
    }

    #[test]
    fn arena_and_reference_agree_on_contended_mixed_dag() {
        let mut build = DagBuilder::new();
        let mut net = FlowNet::new();
        let l = net.add_link("l", 1000.0);
        mixed_dag(&mut build, l);
        let dag = build.build();

        let mut arena = DagEngine::new(vec![2, 1]);
        arena.set_mode(EngineMode::Arena);
        arena.set_shadow_verify(false);
        let mut net_a = net.clone();
        let out_a = arena.run(&mut net_a, &dag, SimTime::ZERO, None).unwrap();

        let mut reference = DagEngine::new(vec![2, 1]);
        reference.set_mode(EngineMode::Reference);
        let mut net_r = net.clone();
        let out_r = reference
            .run(&mut net_r, &dag, SimTime::ZERO, None)
            .unwrap();

        assert_eq!(out_a.finished, out_r.finished);
        assert_eq!(out_a.task_finish, out_r.task_finish);
        assert_eq!(arena.spans().spans(), reference.spans().spans());
        let (sa, sr) = (arena.stats(), reference.stats());
        assert_eq!(sa.tasks_finished, sr.tasks_finished);
        assert_eq!(sa.flows_started, sr.flows_started);
        assert_eq!(sa.ticks, sr.ticks);
        assert!(sa.batches > 0, "arena engine must drain batches");
        assert_eq!(sr.batches, 0, "reference engine never batches");
    }

    #[test]
    fn shadow_mode_cross_checks_and_counts() {
        let mut build = DagBuilder::new();
        let mut net = FlowNet::new();
        let l = net.add_link("l", 1000.0);
        mixed_dag(&mut build, l);
        let dag = build.build();
        let mut eng = DagEngine::new(vec![2, 1]);
        eng.set_mode(EngineMode::Arena);
        eng.set_shadow_verify(true);
        eng.run_iterations(&mut net, &dag, SimTime::ZERO, 3, None)
            .unwrap();
        assert_eq!(eng.stats().shadow_runs, 3);
        assert_eq!(eng.stats().runs, 3);
    }

    #[test]
    fn arena_reuses_capacity_across_iterations() {
        let mut net = FlowNet::new();
        let mut b = DagBuilder::new();
        let a = b.compute(ResourceId(0), ms(1.0), "a", &[]);
        b.compute(ResourceId(0), ms(2.0), "b", &[a]);
        let dag = b.build();
        let mut eng = DagEngine::new(vec![1]);
        eng.set_mode(EngineMode::Arena);
        eng.set_shadow_verify(false);
        eng.run_iterations(&mut net, &dag, SimTime::ZERO, 4, None)
            .unwrap();
        let s = eng.stats();
        assert_eq!(s.runs, 4);
        assert_eq!(s.arena_builds + s.arena_reuse_hits, 4);
        assert!(
            s.arena_reuse_hits >= 3,
            "steady-state refills must not reallocate (hits {})",
            s.arena_reuse_hits
        );
    }

    #[test]
    fn engine_mode_env_parsing() {
        // Can't mutate the environment safely in a parallel test binary;
        // check the setter round-trip and the default instead.
        let mut eng = DagEngine::new(vec![1]);
        eng.set_mode(EngineMode::Reference);
        assert_eq!(eng.mode(), EngineMode::Reference);
        eng.set_mode(EngineMode::Arena);
        assert_eq!(eng.mode(), EngineMode::Arena);
        eng.set_shadow_verify(false);
        assert!(!eng.shadow_verify());
    }
}

#[cfg(test)]
mod budget_tests {
    use super::*;
    use crate::dag::{DagBuilder, ResourceId};

    #[test]
    fn engine_coexists_with_background_flows() {
        // A long-lived background flow keeps running while a DAG executes;
        // the engine must neither adopt nor stall on it.
        let mut net = FlowNet::new();
        let shared = net.add_link("shared", 100.0);
        net.start_flow(&[shared], 1_000_000.0).unwrap(); // background
        let mut b = DagBuilder::new();
        b.transfer(vec![shared], 100.0, SimTime::ZERO, "fg", 0, &[]);
        let dag = b.build();
        let mut eng = DagEngine::new(vec![]);
        let out = eng.run(&mut net, &dag, SimTime::ZERO, None).unwrap();
        // Foreground shares the link 50/50: 100 bytes at 50 B/s.
        assert!((out.makespan().as_secs() - 2.0).abs() < 1e-6);
        // Background flow still in the network afterwards.
        assert_eq!(net.flow_count(), 1);
    }

    #[test]
    fn event_budget_error_is_surfaced() {
        // A DAG needing more events than the budget allows must error, not
        // hang. Build a chain long enough to exceed a tiny artificial
        // budget... the budget is generous, so instead verify the error
        // type renders and compares.
        let e = SimError::EventLimit { budget: 7 };
        assert!(e.to_string().contains('7'));
        assert_eq!(e, SimError::EventLimit { budget: 7 });
    }

    #[test]
    fn straggler_stretches_compute() {
        use crate::fault::{FaultKind, FaultSchedule};
        let mut net = FlowNet::new();
        let mut b = DagBuilder::new();
        b.compute(ResourceId(0), SimTime::from_ms(10.0), "k", &[]);
        let dag = b.build();
        let mut eng = DagEngine::new(vec![1]);
        let sched = FaultSchedule::new(0).at(
            0.0,
            FaultKind::SlowResource {
                resource: 0,
                factor: 0.5,
            },
        );
        let mut cur = sched.cursor();
        let out = eng
            .run_faulted(&mut net, &dag, SimTime::ZERO, None, &mut cur)
            .unwrap();
        // Half speed -> twice as long.
        assert_eq!(out.makespan(), SimTime::from_ms(20.0));
        assert!(!out.interrupted);
        assert_eq!(eng.resource_scale(0), 0.5);
        // The slowdown persists across runs until restored.
        let out2 = eng
            .run_faulted(&mut net, &dag, out.finished, None, &mut cur)
            .unwrap();
        assert_eq!(out2.makespan(), SimTime::from_ms(20.0));
    }

    #[test]
    fn link_degradation_mid_run_stretches_transfer() {
        use crate::fault::{FaultKind, FaultSchedule};
        let mut net = FlowNet::new();
        let l = net.add_link("roce", 100.0);
        let mut b = DagBuilder::new();
        b.transfer(vec![l], 100.0, SimTime::ZERO, "x", 0, &[]);
        let dag = b.build();
        // Degrade to 50% at t = 0.5 s: 50 bytes move in the first half
        // second, the remaining 50 take 1 s -> 1.5 s total.
        let sched = FaultSchedule::new(0).at(
            0.5,
            FaultKind::ScaleLink {
                link: l,
                factor: 0.5,
            },
        );
        let mut cur = sched.cursor();
        let mut eng = DagEngine::new(vec![]);
        let out = eng
            .run_faulted(&mut net, &dag, SimTime::ZERO, None, &mut cur)
            .unwrap();
        let secs = out.makespan().as_secs();
        assert!((secs - 1.5).abs() < 1e-6, "got {secs}");
    }

    #[test]
    fn node_loss_interrupts_and_cancels_flows() {
        use crate::fault::{FaultKind, FaultSchedule};
        let mut net = FlowNet::new();
        let l = net.add_link("roce", 100.0);
        let mut b = DagBuilder::new();
        b.transfer(vec![l], 1000.0, SimTime::ZERO, "x", 0, &[]);
        let dag = b.build();
        let sched = FaultSchedule::new(0).at(2.0, FaultKind::NodeLoss { node: 1 });
        let mut cur = sched.cursor();
        let mut eng = DagEngine::new(vec![]);
        let out = eng
            .run_faulted(&mut net, &dag, SimTime::ZERO, None, &mut cur)
            .unwrap();
        assert!(out.interrupted);
        assert_eq!(out.finished, SimTime::from_secs(2.0));
        // The in-flight flow was cancelled, not leaked as background.
        assert_eq!(net.flow_count(), 0);
        assert_eq!(cur.remaining(), 0);
    }

    #[test]
    fn flap_window_recovers() {
        use crate::fault::FaultSchedule;
        let mut net = FlowNet::new();
        let l = net.add_link("roce", 100.0);
        let mut b = DagBuilder::new();
        b.transfer(vec![l], 200.0, SimTime::ZERO, "x", 0, &[]);
        let dag = b.build();
        // Down (to the flap floor) during [1, 2): ~100 bytes before, ~0.1
        // bytes during, rest after -> just under 3 s total.
        let sched = FaultSchedule::new(0).flap(l, 1.0, 1.0);
        let mut cur = sched.cursor();
        let mut eng = DagEngine::new(vec![]);
        let out = eng
            .run_faulted(&mut net, &dag, SimTime::ZERO, None, &mut cur)
            .unwrap();
        let secs = out.makespan().as_secs();
        assert!(secs > 2.9 && secs < 3.1, "got {secs}");
        // Healthy run of the same DAG takes 2 s.
        let healthy = DagEngine::new(vec![])
            .run(&mut net, &dag, SimTime::ZERO, None)
            .unwrap();
        assert!((healthy.makespan().as_secs() - 2.0).abs() < 1e-6);
    }

    #[test]
    fn empty_cursor_matches_plain_run() {
        let mut net = FlowNet::new();
        let l = net.add_link("l", 100.0);
        let mut b = DagBuilder::new();
        let c = b.compute(ResourceId(0), SimTime::from_ms(3.0), "gemm", &[]);
        b.transfer(vec![l], 150.0, SimTime::from_us(10.0), "x", 0, &[c]);
        let dag = b.build();
        let mut e1 = DagEngine::new(vec![1]);
        let a = e1.run(&mut net, &dag, SimTime::ZERO, None).unwrap();
        let mut e2 = DagEngine::new(vec![1]);
        let b2 = e2
            .run_faulted(
                &mut net,
                &dag,
                SimTime::ZERO,
                None,
                &mut crate::fault::FaultCursor::empty(),
            )
            .unwrap();
        assert_eq!(a.finished, b2.finished);
        assert_eq!(a.task_finish, b2.task_finish);
        assert!(!a.interrupted && !b2.interrupted);
    }

    #[test]
    fn bad_fault_events_surface_typed_errors() {
        use crate::fault::{FaultKind, FaultSchedule};
        let mut net = FlowNet::new();
        let mut b = DagBuilder::new();
        b.compute(ResourceId(0), SimTime::from_ms(1.0), "k", &[]);
        let dag = b.build();
        let mut eng = DagEngine::new(vec![1]);
        let sched = FaultSchedule::new(0).at(
            0.0,
            FaultKind::SlowResource {
                resource: 9,
                factor: 0.5,
            },
        );
        let err = eng
            .run_faulted(&mut net, &dag, SimTime::ZERO, None, &mut sched.cursor())
            .unwrap_err();
        assert_eq!(err, SimError::UnknownResource { resource: 9 });
        let sched = FaultSchedule::new(0).at(
            0.0,
            FaultKind::SlowResource {
                resource: 0,
                factor: 0.0,
            },
        );
        let err = eng
            .run_faulted(&mut net, &dag, SimTime::ZERO, None, &mut sched.cursor())
            .unwrap_err();
        assert_eq!(err, SimError::BadRateFactor { resource: 0 });
    }

    #[test]
    fn multi_slot_resources_run_in_parallel_up_to_capacity() {
        let mut net = FlowNet::new();
        let mut b = DagBuilder::new();
        for _ in 0..6 {
            b.compute(ResourceId(0), SimTime::from_ms(1.0), "k", &[]);
        }
        let dag = b.build();
        // Two slots: 6 tasks take 3 ms.
        let mut eng = DagEngine::new(vec![2]);
        let out = eng.run(&mut net, &dag, SimTime::ZERO, None).unwrap();
        assert_eq!(out.makespan(), SimTime::from_ms(3.0));
    }

    #[test]
    fn faulted_runs_agree_across_engines() {
        use crate::fault::{FaultKind, FaultSchedule};
        let mut b = DagBuilder::new();
        let mut net = FlowNet::new();
        let l = net.add_link("roce", 100.0);
        let c0 = b.compute(ResourceId(0), SimTime::from_ms(4.0), "k0", &[]);
        let c1 = b.compute(ResourceId(0), SimTime::from_ms(4.0), "k1", &[]);
        b.transfer(vec![l], 400.0, SimTime::ZERO, "x", 0, &[c0, c1]);
        let dag = b.build();
        let sched = FaultSchedule::new(0)
            .at(
                0.002,
                FaultKind::SlowResource {
                    resource: 0,
                    factor: 0.5,
                },
            )
            .at(
                1.0,
                FaultKind::ScaleLink {
                    link: l,
                    factor: 0.25,
                },
            );

        let mut arena = DagEngine::new(vec![1]);
        arena.set_mode(EngineMode::Arena);
        arena.set_shadow_verify(false);
        let mut cur_a = sched.cursor();
        let mut net_a = net.clone();
        let out_a = arena
            .run_faulted(&mut net_a, &dag, SimTime::ZERO, None, &mut cur_a)
            .unwrap();

        let mut reference = DagEngine::new(vec![1]);
        reference.set_mode(EngineMode::Reference);
        let mut cur_r = sched.cursor();
        let mut net_r = net.clone();
        let out_r = reference
            .run_faulted(&mut net_r, &dag, SimTime::ZERO, None, &mut cur_r)
            .unwrap();

        assert_eq!(out_a.finished, out_r.finished);
        assert_eq!(out_a.task_finish, out_r.task_finish);
        assert_eq!(cur_a, cur_r);
        assert_eq!(arena.resource_scale(0), reference.resource_scale(0));
    }
}
