//! `zsbench` — ZeroSim's benchmark: four workloads driven through the
//! public API on one thread, each a closed loop with one caller.
//!
//! ```text
//! zsbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! With `--trace 0` the run is untraced and reports the end-to-end
//! metrics (host time). With `--trace 1` a separate run replays each
//! operation from outside with one span per layer call and reports the
//! per-layer metrics, after checking that the replay reproduces the
//! untraced simulated results bit for bit. Simulated values are checked,
//! never scored. The last line of standard output is the result object;
//! the line before it holds workload-specific figures. A traced run
//! writes its spans to `zsbench/out/` when it ends.

mod measure;
mod pipeline;
mod planfind;
mod serve;
mod trace;
mod training;

use std::process::ExitCode;
use std::time::Duration;

use zerosim_testkit::json::Json;

use crate::measure::Outcome;

/// Workload names, in `BENCHMARK.json` order.
pub const WORKLOADS: [&str; 4] = [
    "train-zero3-pods64",
    "planfind-pods32",
    "serve-dense-open",
    "paper-goldens",
];

/// Parsed command line.
#[derive(Debug)]
pub struct Args {
    /// One of [`WORKLOADS`].
    pub workload: String,
    /// Workload seed; every generated input derives from it.
    pub seed: u64,
    /// How long the closed loop measures.
    pub seconds: f64,
    /// Whether this is the traced run.
    pub trace: bool,
}

impl Args {
    /// The closed loop's time budget.
    pub fn budget(&self) -> Duration {
        Duration::from_secs_f64(self.seconds)
    }
}

const USAGE: &str = "usage: zsbench --workload <name> --seed <n> --seconds <s> --trace <0|1>";

fn parse_args(mut it: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, 0u64, 10.0f64, false);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |_| format!("{flag}: cannot parse {value:?}");
        match flag.as_str() {
            "--workload" => {
                if !WORKLOADS.contains(&value.as_str()) {
                    return Err(format!(
                        "unknown workload {value:?}; expected one of {WORKLOADS:?}"
                    ));
                }
                workload = Some(value);
            }
            "--seed" => seed = value.parse().map_err(bad)?,
            "--seconds" => {
                seconds = value
                    .parse()
                    .map_err(|_| format!("--seconds: cannot parse {value:?}"))?;
                if !(seconds.is_finite() && seconds > 0.0 && seconds <= 3600.0) {
                    return Err("--seconds must be in (0, 3600]".into());
                }
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace must be 0 or 1".into()),
                }
            }
            _ => return Err(format!("unknown flag {flag:?}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed,
        seconds,
        trace,
    })
}

fn run(args: &Args) -> Result<Outcome, String> {
    match args.workload.as_str() {
        "train-zero3-pods64" => training::run_train(args),
        "planfind-pods32" => planfind::run(args),
        "serve-dense-open" => serve::run(args),
        "paper-goldens" => training::run_goldens(args),
        other => Err(format!("unknown workload {other:?}")),
    }
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("zsbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let outcome = match run(&args) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("zsbench: {}: {e}", args.workload);
            return ExitCode::FAILURE;
        }
    };
    for why in &outcome.failures {
        eprintln!("zsbench: {}: failed: {why}", args.workload);
    }
    let line = match outcome.render(args.trace) {
        Ok(line) => line,
        Err(e) => {
            eprintln!("zsbench: {}: {e}", args.workload);
            return ExitCode::FAILURE;
        }
    };
    if let Some(spans) = &outcome.spans {
        let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/out");
        let path = format!("{dir}/spans-{}-seed{}.json", args.workload, args.seed);
        let written =
            std::fs::create_dir_all(dir).and_then(|()| std::fs::write(&path, spans.render()));
        if let Err(e) = written {
            eprintln!("zsbench: cannot write {path}: {e}");
            return ExitCode::FAILURE;
        }
    }
    let mut detail = vec![
        ("workload".to_string(), Json::Str(args.workload.clone())),
        ("seed".to_string(), Json::Num(args.seed as f64)),
        ("trace".to_string(), Json::Bool(args.trace)),
        (
            "error_rate".to_string(),
            Json::Num(outcome.failed() as f64 / outcome.attempted.max(1) as f64),
        ),
    ];
    detail.extend(outcome.detail);
    println!("{}", Json::Obj(detail).render());
    println!("{line}");
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Result<Args, String> {
        parse_args(s.split_whitespace().map(String::from))
    }

    #[test]
    fn parses_the_benchmark_command_line() {
        let a = args("--workload paper-goldens --seed 7 --seconds 10 --trace 1").unwrap();
        assert_eq!(a.workload, "paper-goldens");
        assert_eq!((a.seed, a.seconds, a.trace), (7, 10.0, true));
        assert!(args("--workload nope --seed 1").is_err());
        assert!(args("--seed 1").is_err());
        assert!(args("--workload paper-goldens --trace 2").is_err());
        assert!(args("--workload paper-goldens --seconds -1").is_err());
        assert!(args("--workload paper-goldens --seed").is_err());
    }

    /// The metric names and units the program emits are exactly the ones
    /// `BENCHMARK.json` declares, in both modes.
    #[test]
    fn metric_names_and_units_match_the_manifest() {
        let manifest = Json::parse(include_str!("../../BENCHMARK.json")).unwrap();
        for (key, registry) in [
            ("end_to_end", measure::END_TO_END),
            ("per_layer", measure::PER_LAYER),
        ] {
            let declared: Vec<(String, String)> = manifest
                .get(key)
                .and_then(Json::as_arr)
                .unwrap()
                .iter()
                .map(|m| {
                    let field = |f| m.get(f).and_then(Json::as_str).unwrap().to_string();
                    (field("name"), field("unit"))
                })
                .collect();
            let emitted: Vec<(String, String)> = registry
                .iter()
                .map(|(n, u)| ((*n).to_string(), (*u).to_string()))
                .collect();
            assert_eq!(declared, emitted, "{key}");
        }
        let names: Vec<&str> = manifest
            .get("workloads")
            .and_then(Json::as_arr)
            .unwrap()
            .iter()
            .map(|w| w.get("name").and_then(Json::as_str).unwrap())
            .collect();
        assert_eq!(names, WORKLOADS);
    }

    /// A rendered result carries every metric of the mode by name, each
    /// with its unit, and refuses to render when one is missing.
    #[test]
    fn rendered_result_carries_every_metric_with_its_unit() {
        for (traced, registry) in [(false, measure::END_TO_END), (true, measure::PER_LAYER)] {
            let mut out = Outcome::default();
            out.check(Ok(()));
            assert!(out.render(traced).is_err());
            for (i, &(name, _)) in registry.iter().enumerate() {
                out.set(name, i as f64 + 0.5);
            }
            let line = Json::parse(&out.render(traced).unwrap()).unwrap();
            assert_eq!(line.get("correct"), Some(&Json::Bool(true)));
            assert_eq!(line.get("attempted").and_then(Json::as_f64), Some(1.0));
            assert_eq!(line.get("failed").and_then(Json::as_f64), Some(0.0));
            let metrics = line.get("metrics").unwrap();
            for &(name, unit) in registry {
                let m = metrics.get(name).unwrap();
                assert_eq!(m.get("unit").and_then(Json::as_str), Some(unit));
                assert!(m.get("value").and_then(Json::as_f64).is_some());
            }
            out.check(Err("boom".into()));
            let line = Json::parse(&out.render(traced).unwrap()).unwrap();
            assert_eq!(line.get("correct"), Some(&Json::Bool(false)));
        }
    }
}
