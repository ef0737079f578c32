//! `planfind-pods32`: the user-facing what-if query — `search_plans` for
//! a 14 B wide model on 32 GPUs. Every candidate is analyzed statically,
//! and every survivor is planned, lowered and simulated once, so this is
//! the workload where the analyzer and lowering carry weight.
//!
//! `search_plans` builds its training options itself, so its input does
//! not vary with the seed: every run asks the same query and checks the
//! pinned digest.

use zerosim_analyzer::{analyze_strategy, LintConfig};
use zerosim_core::{search_plans, CandidateOutcome, SearchConfig, SearchReport, TrainingSim};
use zerosim_hw::{Cluster, TopologySpec};
use zerosim_model::GptConfig;
use zerosim_strategies::{ParallelPlacement, Strategy, TrainOptions};

use crate::measure::{closed_loop, ratio, settle_allocator, time, Outcome, Timed};
use crate::pipeline::{check_bound, record_by_difference, replay, Replay};
use crate::trace::Tracer;
use crate::Args;

const TOPOLOGY: &str = "pods:2x2x8:1:1";
const MODEL_BILLIONS: f64 = 14.0;
/// `SearchReport::digest` of the query.
const PINNED_DIGEST: u64 = 0x1886_bd6a_20f8_e23b;

struct World {
    cfg: SearchConfig,
    /// Tokens one simulated iteration trains (the same for every
    /// candidate: all use every GPU with the default batch).
    tokens_per_iter: f64,
}

fn build() -> Result<World, String> {
    let topology = TopologySpec::parse(TOPOLOGY)?;
    let model = GptConfig::wide_model_with_params(MODEL_BILLIONS);
    let cluster = Cluster::new(topology.build()?).map_err(|e| e.to_string())?;
    let opts = TrainOptions::for_nodes(topology.nodes());
    let tokens_per_iter = model.tokens_per_iteration(opts.per_gpu_batch, opts.num_gpus(&cluster))
        * opts.grad_accum as f64;
    Ok(World {
        cfg: SearchConfig::new(topology, model).with_workers(1),
        tokens_per_iter,
    })
}

/// Checks the search's own accounting.
fn check_search(report: &SearchReport) -> Result<(), String> {
    if report.pruned() + report.simulated() != report.enumerated() {
        return Err(format!(
            "pruned {} + simulated {} != enumerated {}",
            report.pruned(),
            report.simulated(),
            report.enumerated()
        ));
    }
    if report.failed() != 0 {
        return Err(format!("{} simulated candidates failed", report.failed()));
    }
    if report.digest() != PINNED_DIGEST {
        return Err(format!(
            "digest {:#018x} != pinned {PINNED_DIGEST:#018x}",
            report.digest()
        ));
    }
    Ok(())
}

/// Checks one traced survivor against the untraced `report`: the same
/// throughput bit for bit and an iteration time at or above its ZL009
/// bound. Then measures its recording by difference.
fn check_survivor(
    tr: &mut Tracer,
    cfg: &SearchConfig,
    report: &SearchReport,
    i: usize,
    bound_s: f64,
    mut r: Replay,
) -> Result<(), String> {
    let want = match &report.candidates[i].outcome {
        CandidateOutcome::Simulated {
            throughput_flops, ..
        } => *throughput_flops,
        other => {
            return Err(format!(
                "candidate {i} simulated only when traced: {other:?}"
            ))
        }
    };
    if r.throughput_flops().to_bits() != want.to_bits() {
        return Err(format!("candidate {i}: traced throughput differs"));
    }
    check_bound(r.iter_time, bound_s).map_err(|e| format!("candidate {i}: {e}"))?;
    let spec = cfg.topology.build()?;
    let mut sim =
        TrainingSim::with_calibration(spec, cfg.calibration).map_err(|e| e.to_string())?;
    record_by_difference(tr, &mut sim, &mut r)
}

/// Replays `search_plans` from outside — every candidate analyzed, every
/// survivor planned, lowered and simulated on a fresh cluster — and
/// checks each verdict and survivor against the untraced `report` with
/// the traced clock paused. Returns the number of candidates pruned.
fn replay_search(
    tr: &mut Tracer,
    cfg: &SearchConfig,
    report: &SearchReport,
) -> Result<usize, String> {
    let spec = cfg.topology.build()?;
    let cluster = tr
        .span("hw", || Cluster::new(spec.clone()))
        .map_err(|e| e.to_string())?;
    tr.max("hw.links", cluster.net().link_count() as f64);
    let opts = TrainOptions::for_nodes(cfg.topology.nodes());
    let mut pruned = 0;
    for (i, c) in report.candidates.iter().enumerate() {
        let (tp, pp) = match c.strategy {
            Strategy::Megatron { tp, pp } => (tp, pp),
            _ => (1, 1),
        };
        let spans = ParallelPlacement::resolve(opts.gpus(&cluster), tp, pp)
            .map(|p| p.spans(&cluster).describe(&cluster))
            .unwrap_or_else(|e| format!("unplaceable: {e}"));
        if spans != c.spans {
            return Err(format!("candidate {i}: placement spans differ"));
        }
        let analysis = tr.span("analyze", || {
            analyze_strategy(
                &cluster,
                &c.strategy,
                &cfg.model,
                &opts,
                &cfg.calibration,
                LintConfig::new(),
            )
        });
        let bound_s = match &analysis {
            Ok(a) if a.memory.as_ref().is_none_or(|m| m.fits) && a.deny_count() == 0 => {
                a.bound.as_ref().map_or(0.0, |b| b.protocol_s)
            }
            _ => {
                pruned += 1;
                if !matches!(c.outcome, CandidateOutcome::Pruned { .. }) {
                    return Err(format!("candidate {i} pruned only when traced"));
                }
                continue;
            }
        };
        let mut sim = tr
            .span("hw", || {
                TrainingSim::with_calibration(spec.clone(), cfg.calibration)
            })
            .map_err(|e| e.to_string())?;
        let r = replay(tr, &mut sim, &c.strategy, &cfg.model, &opts, &cfg.run)?;
        tr.pause();
        let checked = check_survivor(tr, cfg, report, i, bound_s, r);
        settle_allocator();
        tr.resume();
        checked?;
    }
    Ok(pruned)
}

/// Runs the workload.
///
/// # Errors
/// A set-up failure; failed operations are counted, not returned.
pub fn run(args: &Args) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    if !args.trace {
        let mut timed = Timed::default();
        closed_loop(args.budget(), |_| {
            let world = match timed.setup(build) {
                Ok(world) => world,
                Err(e) => return out.check(Err(e)),
            };
            let (result, host_s) = time(|| search_plans(&world.cfg));
            out.check(result.map_err(|e| e.to_string()).and_then(|report| {
                let run = &world.cfg.run;
                let iters = ((report.simulated() - report.failed())
                    * (run.warmup_iters + run.measure_iters.max(1)))
                    as f64;
                timed.push(host_s, iters, iters * world.tokens_per_iter);
                check_search(&report)
            }));
        });
        out.set_end_to_end(&timed);
        return Ok(out);
    }

    let world = build()?;
    let mut tr = Tracer::new();
    let (mut untraced_s, mut traced_s) = (0.0, 0.0);
    let (mut pruned, mut enumerated, mut failed) = (0, 0, 0);
    closed_loop(args.budget(), |k| {
        let (result, secs) = time(|| search_plans(&world.cfg));
        untraced_s += secs;
        tr.set_op(k);
        out.check(result.map_err(|e| e.to_string()).and_then(|report| {
            check_search(&report)?;
            tr.resume();
            let c0 = tr.clock_s();
            tr.begin("search");
            let replayed = replay_search(&mut tr, &world.cfg, &report);
            tr.end();
            traced_s += tr.clock_s() - c0;
            tr.pause();
            let p = replayed?;
            pruned += p;
            enumerated += report.enumerated();
            failed += report.failed();
            Ok(())
        }));
    });
    out.set_per_layer(&tr, untraced_s, traced_s);
    out.set("search.prune_frac", ratio(pruned as f64, enumerated as f64));
    out.set("search.failed", failed as f64);
    Ok(out)
}
