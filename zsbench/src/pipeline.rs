//! `TrainingSim::run` replayed from outside, one span per layer call.
//!
//! The replay calls the same public functions in the same order —
//! `plan_memory` → `plan_iteration` → `lower` → `stamp` →
//! `DagEngine::run` → recorder reports — so its simulated results must
//! equal the untraced run's bit for bit; [`Replay::matches`] checks that.
//! Flow solve, advance and event scan happen inside `DagEngine::run`, so
//! from outside they show only as engine time plus the solver counters.

use std::hash::{DefaultHasher, Hash, Hasher};
use std::time::Instant;

use zerosim_core::{HotLink, RunConfig, TrainingReport, TrainingSim};
use zerosim_hw::{Cluster, LinkClass};
use zerosim_model::GptConfig;
use zerosim_simkit::{
    BandwidthRecorder, BandwidthStats, Dag, DagEngine, EngineStats, FlowNet, FlowObserver, LinkId,
    RunOutcome, SimTime, SolverStats, Span, SpanLog,
};
use zerosim_strategies::{lower, IterCtx, LoweredPlan, MemoryPlan, StrategyPlan, TrainOptions};

use crate::measure::settle_allocator;
use crate::trace::Tracer;

/// Entries the library's hot-link ranking keeps.
const HOT_LINKS_TOP: usize = 16;

/// Runs `dag` inside an `engine` span and books the engine and solver
/// counters it moved.
///
/// # Errors
/// The engine's error, rendered.
pub fn engine_run(
    tr: &mut Tracer,
    engine: &mut DagEngine,
    net: &mut FlowNet,
    dag: &Dag,
    start: SimTime,
    obs: Option<&mut dyn FlowObserver>,
) -> Result<(RunOutcome, f64), String> {
    let (solver0, engine0) = (net.solver_stats(), engine.stats());
    tr.begin("engine");
    let out = engine.run(net, dag, start, obs);
    let secs = tr.end();
    let s = net.solver_stats().delta_since(&solver0);
    let e = engine.stats().delta_since(&engine0);
    tr.add("engine.runs", e.runs as f64);
    tr.add("engine.ticks", e.ticks as f64);
    tr.add("engine.tasks", e.tasks_finished as f64);
    tr.add("engine.flows", e.flows_started as f64);
    tr.add("flow.solves", s.solves as f64);
    tr.add("flow.full_solves", s.full_solves as f64);
    tr.add("flow.links_touched", s.links_touched as f64);
    tr.add("flow.flows_touched", s.flows_touched as f64);
    tr.max("flow.max_component_links", s.max_component_links as f64);
    let out = out.map_err(|e| format!("engine: {e}"))?;
    if out.interrupted {
        return Err("engine: run interrupted".into());
    }
    Ok((out, secs))
}

/// Checks that a simulated iteration is no faster than its ZL009 static
/// step-time lower bound (with the analyzer tests' 1e-9 tolerance).
///
/// # Errors
/// States both times.
pub fn check_bound(iter_time: SimTime, bound_s: f64) -> Result<(), String> {
    if bound_s <= iter_time.as_secs() * (1.0 + 1e-9) {
        Ok(())
    } else {
        Err(format!(
            "iteration {} s below the ZL009 bound {bound_s} s",
            iter_time.as_secs()
        ))
    }
}

/// What the fidelity check compares: every simulated result
/// `TrainingReport::digest` covers, plus the solver and engine work
/// counters. The device timeline enters as a fingerprint so the untraced
/// report can be dropped before the traced replay runs.
#[derive(Debug, PartialEq)]
pub struct Summary {
    iter_time: SimTime,
    memory: MemoryPlan,
    /// Per-(node, class) stats and series, nodes outer, Table IV order.
    bandwidth: Vec<(BandwidthStats, Vec<f64>)>,
    hot_links: Vec<HotLink>,
    spans: u64,
    solver: SolverStats,
    engine: EngineStats,
    flops_bits: u64,
    tokens_bits: u64,
}

impl Summary {
    /// Summarizes an untraced report of a run on `nodes` nodes.
    pub fn of_report(report: &TrainingReport, nodes: usize) -> Self {
        let mut bandwidth = Vec::new();
        for node in 0..nodes {
            for class in LinkClass::TABLE_IV {
                let series = report.bandwidth.series(node, class).to_vec();
                bandwidth.push((report.bandwidth.stats(node, class), series));
            }
        }
        Summary {
            iter_time: report.iter_time,
            memory: report.memory.clone(),
            bandwidth,
            hot_links: report.hot_links.clone(),
            spans: fingerprint(report.spans.spans()),
            solver: report.solver,
            engine: report.engine,
            flops_bits: report.flops_per_iteration.to_bits(),
            tokens_bits: report.tokens_per_iteration.to_bits(),
        }
    }
}

fn fingerprint(spans: &[Span]) -> u64 {
    let mut h = DefaultHasher::new();
    for s in spans {
        (s.track, &s.label, s.start.as_nanos(), s.end.as_nanos()).hash(&mut h);
    }
    h.finish()
}

/// One outside-in replay of a training run.
#[derive(Debug)]
pub struct Replay {
    /// Mean simulated iteration time over the measured iterations.
    pub iter_time: SimTime,
    memory: MemoryPlan,
    bandwidth: Vec<(BandwidthStats, Vec<f64>)>,
    hot_links: Vec<HotLink>,
    spans: SpanLog,
    solver: SolverStats,
    engine: EngineStats,
    flops: f64,
    tokens: f64,
    /// Simulated makespan of the measured iterations together.
    makespan: SimTime,
    /// `(jitter seed, start, engine seconds)` of each measured run.
    measured: Vec<(u64, SimTime, f64)>,
    lowered: LoweredPlan,
}

impl Replay {
    /// Simulated throughput in FLOP/s, computed as the library does.
    pub fn throughput_flops(&self) -> f64 {
        self.flops / self.iter_time.as_secs()
    }

    /// Checks that the replay equals the untraced run bit for bit.
    ///
    /// # Errors
    /// Names the first field that differs.
    pub fn matches(&self, want: &Summary) -> Result<(), String> {
        let fields = [
            ("iter_time", self.iter_time == want.iter_time),
            ("memory", self.memory == want.memory),
            ("bandwidth", self.bandwidth == want.bandwidth),
            ("hot_links", self.hot_links == want.hot_links),
            ("spans", fingerprint(self.spans.spans()) == want.spans),
            ("solver stats", self.solver == want.solver),
            ("engine stats", self.engine == want.engine),
            ("flops", self.flops.to_bits() == want.flops_bits),
            ("tokens", self.tokens.to_bits() == want.tokens_bits),
        ];
        match fields.iter().find(|(_, same)| !same) {
            Some((name, _)) => Err(format!(
                "traced replay differs from the untraced run in {name}"
            )),
            None => Ok(()),
        }
    }
}

/// Replays `TrainingSim::run(strategy, model, opts, cfg)` on `sim`.
///
/// # Errors
/// A plan, fit, lowering or engine failure, rendered.
pub fn replay(
    tr: &mut Tracer,
    sim: &mut TrainingSim,
    strategy: &dyn StrategyPlan,
    model: &GptConfig,
    opts: &TrainOptions,
    cfg: &RunConfig,
) -> Result<Replay, String> {
    let calib = *sim.calibration();
    let ctx = IterCtx {
        cluster: sim.cluster(),
        model,
        opts,
        calib: &calib,
    };
    let memory = tr
        .span("plan", || strategy.plan_memory(&ctx))
        .map_err(|e| format!("plan: {e}"))?;
    if !cfg.allow_overflow {
        if let Some(tier) = memory.bottleneck(sim.cluster()) {
            return Err(format!("does not fit ({tier} tier)"));
        }
    }
    let plan = tr
        .span("plan", || strategy.plan_iteration(&ctx))
        .map_err(|e| format!("plan: {e}"))?;
    let mut lowered = tr
        .span("lower", || lower(&plan, sim.cluster(), &calib))
        .map_err(|e| format!("lower: {e}"))?;
    tr.add("lower.tasks", lowered.len() as f64);

    let mut engine = DagEngine::new(sim.cluster().resource_slots());
    engine.set_mode(sim.engine_mode());
    let mut t = SimTime::ZERO;
    let mut seed = opts.jitter_seed;
    for _ in 0..cfg.warmup_iters {
        tr.begin("stamp");
        let dag = lowered.stamp(seed);
        tr.end();
        seed += 1;
        let net = sim.cluster_mut().net_mut();
        t = engine_run(tr, &mut engine, net, dag, t, None)?.0.finished;
    }
    engine.take_spans();

    let solver_before = sim.cluster().net().solver_stats();
    let mut rec = BandwidthRecorder::with_origin(cfg.bucket, t);
    let mut total = SimTime::ZERO;
    let n_measured = cfg.measure_iters.max(1);
    let mut measured = Vec::with_capacity(n_measured);
    for _ in 0..n_measured {
        tr.begin("stamp");
        let dag = lowered.stamp(seed);
        tr.end();
        let net = sim.cluster_mut().net_mut();
        let (out, secs) = engine_run(tr, &mut engine, net, dag, t, Some(&mut rec))?;
        measured.push((seed, t, secs));
        seed += 1;
        total += out.makespan();
        t = out.finished;
    }
    let iter_time = total / (n_measured as u64);

    tr.begin("report");
    let cluster = sim.cluster();
    let mut bandwidth = Vec::new();
    for node in 0..opts.nodes {
        for class in LinkClass::TABLE_IV {
            let links = cluster.links(node, class);
            bandwidth.push((rec.stats(links), rec.aggregate_series(links)));
        }
    }
    let hot_links = rank_hot_links(cluster, opts.nodes, &rec, total.as_secs());
    let tokens = model.tokens_per_iteration(opts.per_gpu_batch, opts.num_gpus(cluster))
        * opts.grad_accum as f64;
    let flops = model.iteration_flops(tokens).total();
    tr.end();

    Ok(Replay {
        iter_time,
        memory,
        bandwidth,
        hot_links,
        spans: engine.take_spans(),
        solver: cluster.net().solver_stats().delta_since(&solver_before),
        engine: engine.stats(),
        flops,
        tokens,
        makespan: total,
        measured,
        lowered,
    })
}

/// Every active physical link ranked by utilization over the window, as
/// the library's report ranks them.
fn rank_hot_links(
    cluster: &Cluster,
    nodes: usize,
    rec: &BandwidthRecorder,
    window_secs: f64,
) -> Vec<HotLink> {
    let window = window_secs.max(1e-12);
    let mut hot: Vec<HotLink> = Vec::new();
    for node in 0..nodes {
        for class in LinkClass::TABLE_IV.into_iter().chain([LinkClass::Fabric]) {
            for &link in cluster.links(node, class) {
                let avg = rec.total_bytes(link) / window;
                if avg <= 0.0 {
                    continue;
                }
                hot.push(HotLink {
                    name: cluster.net().link_name(link).to_string(),
                    avg,
                    utilization: avg / cluster.net().link_capacity(link),
                });
            }
        }
    }
    hot.sort_by(|a, b| b.utilization.total_cmp(&a.utilization));
    hot.truncate(HOT_LINKS_TOP);
    hot
}

/// Counts recorder callbacks and discards them.
#[derive(Debug, Default)]
struct CountingObserver {
    calls: u64,
}

impl FlowObserver for CountingObserver {
    fn on_transfer(&mut self, _: LinkId, _: SimTime, _: f64, _: f64) {
        self.calls += 1;
    }
}

/// Measures the bandwidth recorder's cost by difference: re-runs each of
/// `replay`'s measured DAGs on `sim` (a fresh copy of the replay's
/// world) with a no-op observer and books the engine time saved as
/// `record.ms`, and the callbacks as `record.calls`. Timing each callback
/// instead would distort the engine time it is part of. Warm-up runs are
/// not re-run, so the first re-run pays the engine's arena build as the
/// first recorded run does only when the replay had no warm-up; every
/// workload here measures without one.
///
/// # Errors
/// An engine failure, or a re-run whose makespan differs from the
/// recorded run's (the two runs must be the same simulation).
pub fn record_by_difference(
    tr: &mut Tracer,
    sim: &mut TrainingSim,
    replay: &mut Replay,
) -> Result<(), String> {
    let mut engine = DagEngine::new(sim.cluster().resource_slots());
    engine.set_mode(sim.engine_mode());
    let mut total = SimTime::ZERO;
    for &(seed, start, recorded_s) in &replay.measured {
        let dag = replay.lowered.stamp(seed);
        let mut obs = CountingObserver::default();
        // Settled before, not after: the recorded run's engine span ends
        // when the run returns.
        settle_allocator();
        let t = Instant::now();
        let out = engine
            .run(sim.cluster_mut().net_mut(), dag, start, Some(&mut obs))
            .map_err(|e| format!("engine: {e}"))?;
        let null_s = t.elapsed().as_secs_f64();
        tr.add("record.ms", (recorded_s - null_s) * 1e3);
        tr.add("record.calls", obs.calls as f64);
        total += out.makespan();
    }
    if total == replay.makespan {
        Ok(())
    } else {
        Err("the no-op observer re-run is not the recorded simulation".into())
    }
}
