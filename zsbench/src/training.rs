//! The training workloads: fixed training configurations run by
//! `TrainingSim::run`, one pass over all of them per closed-loop
//! operation.
//!
//! - `train-zero3-pods64`: ZeRO-3 training of a 14 B wide model on 64
//!   GPUs, the scaling wall. One simulated iteration per call, recorder
//!   on, no warm-up iteration. Nearly all host time goes to flow solve,
//!   advance/scan and bandwidth recording inside the engine.
//! - `paper-goldens`: the 12 golden configurations on the paper testbed —
//!   DDP, Megatron, ZeRO-1/2/3, ZeRO-Offload and ZeRO-Infinity on a
//!   two-drive RAID0 — each one quick simulated iteration per call, all
//!   twelve per operation, so each sample is the same mix. It is
//!   the only workload with token-bucketed NVMe links and CPU-offload
//!   DRAM/xGMI traffic, and the only one with reference results from the
//!   paper: the repro scorecard rows are its accuracy check.

use zerosim_analyzer::{analyze_strategy, LintConfig};
use zerosim_bench::data::golden_specs;
use zerosim_bench::experiments::scorecard::compute_rows;
use zerosim_core::{RunConfig, SweepSpec, TrainingSim};
use zerosim_hw::TopologySpec;
use zerosim_model::GptConfig;
use zerosim_strategies::{Strategy, TrainOptions, ZeroStage};
use zerosim_testkit::json::Json;

use crate::measure::{closed_loop, input_seed, time, Outcome, Timed, DEFAULT_SEED};
use crate::pipeline::{check_bound, record_by_difference, replay, Summary};
use crate::trace::Tracer;
use crate::Args;

/// `TrainingReport::digest` of the train workload's operation 0 at the
/// default seed.
const TRAIN_DIGESTS: [[u64; 1]; 1] = [[0x6671_d567_01e7_d9a6]];

/// `TrainingReport::digest` of each golden configuration at jitter seeds
/// 0 and 1 (passes 0 and 1 at the default seed), in `golden_specs()`
/// order: the values `tests/plan_equivalence.rs` pins.
const GOLDEN_DIGESTS: [[u64; 12]; 2] = [
    [
        0x1dc0_034c_5881_c635,
        0x4467_c7b4_43b8_80b3,
        0xd1fa_8dd0_bdd6_e35d,
        0xad04_9396_e9fe_98f0,
        0xbf40_502f_8d64_2ff8,
        0x0895_3036_5908_4461,
        0xbddc_c5ce_52a0_da37,
        0x12b5_a755_d296_01d5,
        0x8576_88ce_45f1_c8e1,
        0xa3ed_7e9e_b7dc_4233,
        0x813d_f1c8_2aa4_3b22,
        0xa99a_c6f1_fb2d_08fd,
    ],
    [
        0x8228_70bf_4929_cde6,
        0xfaf1_58bc_72b0_c8e1,
        0xd125_1311_f1ac_64f5,
        0xd1e4_ca28_5077_dcba,
        0x25a8_a41b_a5bf_eec7,
        0xc5e1_39c3_f320_140e,
        0x39f0_7a2a_67c0_6880,
        0x8031_5faa_6442_522e,
        0x2dbc_5be2_960c_17e8,
        0xc432_f7a8_924c_e20e,
        0x2842_1903_95ca_10d3,
        0xdc4c_a018_e753_0e9e,
    ],
];

fn train_specs() -> Result<Vec<SweepSpec>, String> {
    let topo = TopologySpec::parse("pods:2x4x8:1:1")?;
    let spec = SweepSpec::new(
        "ZeRO-3 14B pods:2x4x8",
        Strategy::Zero {
            stage: ZeroStage::Three,
        },
        GptConfig::wide_model_with_params(14.0),
        TrainOptions::for_nodes(topo.nodes()),
    )
    .with_cluster(topo.build()?)
    .with_run(RunConfig {
        warmup_iters: 0,
        measure_iters: 1,
        ..RunConfig::default()
    });
    Ok(vec![spec])
}

/// Runs `train-zero3-pods64`.
///
/// # Errors
/// A set-up failure; failed operations are counted, not returned.
pub fn run_train(args: &Args) -> Result<Outcome, String> {
    run(args, train_specs, &TRAIN_DIGESTS)
}

/// Runs `paper-goldens`, with the paper scorecard as an extra check on
/// untraced runs.
///
/// # Errors
/// A set-up failure; failed operations are counted, not returned.
pub fn run_goldens(args: &Args) -> Result<Outcome, String> {
    let mut out = run(args, || Ok(golden_specs()), &GOLDEN_DIGESTS)?;
    if !args.trace {
        check_paper(&mut out);
    }
    Ok(out)
}

fn build_sim(spec: &SweepSpec) -> Result<TrainingSim, String> {
    let mut sim = TrainingSim::with_calibration(spec.cluster.clone(), spec.calibration)
        .map_err(|e| e.to_string())?;
    sim.set_engine_mode(spec.engine);
    for members in &spec.volumes {
        sim.cluster_mut().create_volume(members.clone());
    }
    Ok(sim)
}

/// The ZL009 bound of every configuration, in seconds.
fn step_bounds(tr: &mut Tracer, world: &[(SweepSpec, TrainingSim)]) -> Result<Vec<f64>, String> {
    world
        .iter()
        .map(|(spec, sim)| {
            let report = tr
                .span("analyze", || {
                    analyze_strategy(
                        sim.cluster(),
                        &spec.strategy,
                        &spec.model,
                        &spec.opts,
                        sim.calibration(),
                        LintConfig::new(),
                    )
                })
                .map_err(|e| format!("{}: analyze: {e}", spec.label))?;
            report
                .bound
                .map(|b| b.protocol_s)
                .ok_or_else(|| format!("{}: no ZL009 bound", spec.label))
        })
        .collect()
}

/// Runs the configurations `specs` builds. An untraced operation is a
/// pass that runs every configuration once with the pass's jitter seed,
/// each on a freshly built simulator; a traced operation replays one
/// configuration, round-robin. At the default seed, pass `p` must
/// reproduce `pinned[p]`.
fn run<const N: usize>(
    args: &Args,
    specs: impl Fn() -> Result<Vec<SweepSpec>, String>,
    pinned: &[[u64; N]],
) -> Result<Outcome, String> {
    let build = || -> Result<Vec<(SweepSpec, TrainingSim)>, String> {
        specs()?
            .into_iter()
            .map(|spec| build_sim(&spec).map(|sim| (spec, sim)))
            .collect()
    };
    let world = build()?;
    let n = world.len();
    let mut out = Outcome::default();
    if !args.trace {
        let mut timed = Timed::default();
        let mut runs = Vec::new();
        closed_loop(args.budget(), |pass| {
            // Fresh simulators for every call, built before the clock
            // starts: a second ZeRO-Infinity run on one simulator inherits
            // its NVMe token-bucket state and simulates something else.
            let mut fresh = timed.setup(build);
            let (mut host_s, mut iters, mut tokens) = (0.0, 0.0, 0.0);
            for i in 0..n {
                let spec = &world[i].0;
                let opts = spec.opts.with_jitter_seed(input_seed(args.seed, pass));
                let (result, secs) = time(|| match &mut fresh {
                    Ok(fresh) => fresh[i]
                        .1
                        .run(&spec.strategy, &spec.model, &opts, &spec.run)
                        .map_err(|e| e.to_string()),
                    Err(e) => Err(e.clone()),
                });
                host_s += secs;
                runs.push(result.map(|r| {
                    let simulated = (spec.run.warmup_iters + spec.run.measure_iters.max(1)) as f64;
                    iters += simulated;
                    tokens += simulated * r.tokens_per_iteration;
                    (r.iter_time, r.digest())
                }));
            }
            timed.push(host_s, iters, tokens);
        });
        let bounds = step_bounds(&mut Tracer::new(), &world)?;
        for (k, run) in runs.into_iter().enumerate() {
            let checked = run.and_then(|(iter_time, digest)| {
                check_bound(iter_time, bounds[k % n])?;
                let want = pinned.get(k / n).and_then(|pass| pass.get(k % n));
                match want {
                    Some(&want) if args.seed == DEFAULT_SEED && want != digest => {
                        Err(format!("digest {digest:#018x} != pinned {want:#018x}"))
                    }
                    _ => Ok(()),
                }
            });
            out.check(checked.map_err(|e| format!("{}: {e}", world[k % n].0.label)));
        }
        out.set_end_to_end(&timed);
        return Ok(out);
    }

    let mut tr = Tracer::new();
    tr.resume();
    let bounds = step_bounds(&mut tr, &world);
    tr.pause();
    let bounds = bounds?;
    let (mut untraced_s, mut traced_s) = (0.0, 0.0);
    closed_loop(args.budget(), |k| {
        let spec = &world[k % n].0;
        let opts = spec.opts.with_jitter_seed(input_seed(args.seed, k / n));
        // Untraced reference: build the world and run, as the traced
        // replay below does. Only its summary outlives the timing.
        let (reference, secs) = time(|| {
            build_sim(spec).and_then(|mut sim| {
                sim.run(&spec.strategy, &spec.model, &opts, &spec.run)
                    .map_err(|e| e.to_string())
            })
        });
        untraced_s += secs;
        let reference = reference.map(|r| Summary::of_report(&r, opts.nodes));

        tr.set_op(k);
        tr.resume();
        let c0 = tr.clock_s();
        tr.begin("train");
        let replayed = tr.span("hw", || build_sim(spec)).and_then(|mut sim| {
            tr.max("hw.links", sim.cluster().net().link_count() as f64);
            replay(
                &mut tr,
                &mut sim,
                &spec.strategy,
                &spec.model,
                &opts,
                &spec.run,
            )
        });
        tr.end();
        traced_s += tr.clock_s() - c0;
        tr.pause();

        let checked = reference.and_then(|want| {
            let mut r = replayed?;
            r.matches(&want)?;
            check_bound(r.iter_time, bounds[k % n])?;
            record_by_difference(&mut tr, &mut build_sim(spec)?, &mut r)
        });
        out.check(checked.map_err(|e| format!("{}: {e}", spec.label)));
    });
    out.set_per_layer(&tr, untraced_s, traced_s);
    Ok(out)
}

/// The paper's own numbers as the accuracy check: one attempted
/// operation that fails when any scorecard row is outside tolerance.
fn check_paper(out: &mut Outcome) {
    let rows = compute_rows();
    let failed = rows.iter().filter(|r| !r.pass()).count();
    let err_pct =
        rows.iter().map(|r| r.delta().abs()).sum::<f64>() / rows.len().max(1) as f64 * 100.0;
    out.detail("paper_rows", Json::Num(rows.len() as f64));
    out.detail("paper_rows_failed", Json::Num(failed as f64));
    out.detail("paper_err_pct", Json::Num(err_pct));
    out.check(if failed == 0 && !rows.is_empty() {
        Ok(())
    } else {
        Err(format!(
            "{failed} of {} paper scorecard rows outside tolerance",
            rows.len()
        ))
    });
}
