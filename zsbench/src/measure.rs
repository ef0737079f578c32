//! The metric registry, the closed-loop driver, and result rendering.

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

use zerosim_testkit::json::Json;

use crate::trace::Tracer;

/// End-to-end metrics, reported by every untraced run: `(name, unit)`.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("iter_host_ms_p50", "ms"),
    ("sim_iters_per_host_s", "1/s"),
    ("sim_tokens_per_host_s", "1/s"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics, reported by every traced run: `(name, unit)`.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("hw.build_ms", "ms"),
    ("hw.links", "count"),
    ("plan.calls", "count"),
    ("plan.ms", "ms"),
    ("lower.calls", "count"),
    ("lower.ms", "ms"),
    ("lower.tasks", "count"),
    ("stamp.calls", "count"),
    ("stamp.ms", "ms"),
    ("analyze.calls", "count"),
    ("analyze.ms", "ms"),
    ("search.prune_frac", "ratio"),
    ("search.failed", "count"),
    ("engine.runs", "count"),
    ("engine.ms", "ms"),
    ("engine.ticks", "count"),
    ("engine.tasks", "count"),
    ("engine.flows", "count"),
    ("engine.us_per_tick", "us"),
    ("flow.solves", "count"),
    ("flow.full_solves", "count"),
    ("flow.links_per_solve", "count"),
    ("flow.flows_per_solve", "count"),
    ("flow.max_component_links", "count"),
    ("record.calls", "count"),
    ("record.calls_per_tick", "count"),
    ("record.ms", "ms"),
    ("report.ms", "ms"),
    ("serve.steps", "count"),
    ("serve.lowerings", "count"),
    ("serve.plan_cache_hit_frac", "ratio"),
    ("serve.host_us_per_step", "us"),
    ("trace.coverage_frac", "ratio"),
    ("trace.overhead_pct", "%"),
];

/// Names of the root spans, one per traced operation: the benchmark's
/// call into the workload, whose self time no layer claims.
pub const ROOT_SPANS: &[&str] = &["train", "search", "serve"];

/// The least share of the traced wall time the layer spans must cover.
pub const MIN_COVERAGE: f64 = 0.95;

/// The seed whose first operations must reproduce the pinned digests.
pub const DEFAULT_SEED: u64 = 0;

/// The jitter (and trace) seed of closed-loop operation `op` under
/// workload seed `seed`. Operation 0 of [`DEFAULT_SEED`] uses seed 0, the
/// library default, so its digests match the repository's golden values.
pub fn input_seed(seed: u64, op: usize) -> u64 {
    seed.wrapping_mul(1 << 20).wrapping_add(op as u64)
}

/// What one workload run measured and checked.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Operations attempted (closed-loop calls plus output checks).
    pub attempted: u64,
    /// Metric values by name.
    pub metrics: BTreeMap<&'static str, f64>,
    /// Workload-specific figures printed on the line before the result.
    pub detail: Vec<(String, Json)>,
    /// Why each failed operation failed, one entry per failed operation.
    pub failures: Vec<String>,
    /// Every span of a traced run, written out when the run ends.
    pub spans: Option<Json>,
}

impl Outcome {
    /// Records one attempted operation; `Err` marks it failed.
    pub fn check(&mut self, result: Result<(), String>) {
        self.attempted += 1;
        if let Err(why) = result {
            self.failures.push(why);
        }
    }

    /// Operations whose result failed a check.
    pub fn failed(&self) -> u64 {
        self.failures.len() as u64
    }

    /// Sets metric `name`.
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.metrics.insert(name, value);
    }

    /// Adds a detail figure.
    pub fn detail(&mut self, name: &str, value: Json) {
        self.detail.push((name.to_string(), value));
    }

    /// Sets every end-to-end metric from the timed closed-loop samples,
    /// and the iteration-time p90 as a detail where at least ten samples
    /// lie beyond it.
    pub fn set_end_to_end(&mut self, timed: &Timed) {
        self.set("setup_s", median(&timed.setup_s));
        self.set("iter_host_ms_p50", median(&timed.iter_ms));
        self.set("sim_iters_per_host_s", timed.sim_iters / timed.host_s());
        self.set("sim_tokens_per_host_s", timed.sim_tokens / timed.host_s());
        // After the first operation, so the figure does not grow with the
        // number of operations a run fits in.
        self.set("peak_rss_mb", timed.first_op_rss_mb.unwrap_or(f64::NAN));
        self.detail("ops", Json::Num(timed.op_s.len() as f64));
        self.detail("op_s_p50", Json::Num(median(&timed.op_s)));
        let p90 = quantile(&timed.iter_ms, 0.9);
        let beyond = timed.iter_ms.iter().filter(|&&x| x > p90).count();
        if beyond >= 10 {
            self.detail("iter_host_ms_p90", Json::Num(p90));
            self.detail("iter_host_ms_p90_beyond", Json::Num(beyond as f64));
        }
    }

    /// Sets the per-layer metrics every traced run derives from its
    /// tracer, and checks the layer coverage as one more operation. The
    /// `search.*` and `serve.*` metrics start at 0 for the workloads that
    /// set them afterwards.
    pub fn set_per_layer(&mut self, tr: &Tracer, untraced_s: f64, traced_s: f64) {
        for (name, _) in PER_LAYER {
            if name.starts_with("search.") || name.starts_with("serve.") {
                self.set(name, 0.0);
            }
        }
        let ms = tr.self_ms();
        let self_ms = |name: &str| ms.get(name).copied().unwrap_or(0.0);
        self.set("hw.build_ms", self_ms("hw"));
        self.set("hw.links", tr.counter("hw.links"));
        self.set("plan.calls", tr.calls("plan"));
        self.set("plan.ms", self_ms("plan"));
        self.set("lower.calls", tr.calls("lower"));
        self.set("lower.ms", self_ms("lower"));
        self.set("lower.tasks", tr.counter("lower.tasks"));
        self.set("stamp.calls", tr.calls("stamp"));
        self.set("stamp.ms", self_ms("stamp"));
        self.set("analyze.calls", tr.calls("analyze"));
        self.set("analyze.ms", self_ms("analyze"));
        let engine_ms = self_ms("engine");
        let ticks = tr.counter("engine.ticks");
        self.set("engine.runs", tr.counter("engine.runs"));
        self.set("engine.ms", engine_ms);
        self.set("engine.ticks", ticks);
        self.set("engine.tasks", tr.counter("engine.tasks"));
        self.set("engine.flows", tr.counter("engine.flows"));
        self.set("engine.us_per_tick", ratio(engine_ms * 1e3, ticks));
        let solves = tr.counter("flow.solves");
        self.set("flow.solves", solves);
        self.set("flow.full_solves", tr.counter("flow.full_solves"));
        self.set(
            "flow.links_per_solve",
            ratio(tr.counter("flow.links_touched"), solves),
        );
        self.set(
            "flow.flows_per_solve",
            ratio(tr.counter("flow.flows_touched"), solves),
        );
        self.set(
            "flow.max_component_links",
            tr.counter("flow.max_component_links"),
        );
        let calls = tr.counter("record.calls");
        self.set("record.calls", calls);
        self.set("record.calls_per_tick", ratio(calls, ticks));
        self.set("record.ms", tr.counter("record.ms"));
        self.set("report.ms", self_ms("report"));
        // A root span's self time is the benchmark's own glue around the
        // layer calls: time no layer span claims.
        let unattributed: f64 = ROOT_SPANS.iter().map(|r| self_ms(r)).sum();
        let covered = ms.values().sum::<f64>() - unattributed;
        let coverage = ratio(covered, tr.clock_s() * 1e3);
        self.set("trace.coverage_frac", coverage);
        self.check(if coverage >= MIN_COVERAGE {
            Ok(())
        } else {
            Err(format!(
                "layer spans cover {:.2}% of the traced wall time, below {}%",
                coverage * 100.0,
                MIN_COVERAGE * 100.0
            ))
        });
        self.set(
            "trace.overhead_pct",
            ratio(traced_s - untraced_s, untraced_s) * 100.0,
        );
        self.spans = Some(tr.spans_json());
        self.detail("traced_s", Json::Num(traced_s));
        self.detail("untraced_s", Json::Num(untraced_s));
        self.detail("unattributed_ms", Json::Num(unattributed));
        self.detail(
            "self_ms",
            Json::Obj(
                ms.iter()
                    .map(|(k, v)| ((*k).to_string(), Json::Num(*v)))
                    .collect(),
            ),
        );
    }

    /// Renders the result line: every metric the mode requires, by name
    /// with its unit.
    ///
    /// # Errors
    /// Names a required metric that is missing or not a finite number.
    pub fn render(&self, traced: bool) -> Result<String, String> {
        let registry = if traced { PER_LAYER } else { END_TO_END };
        let mut metrics = Vec::with_capacity(registry.len());
        for &(name, unit) in registry {
            let value = self
                .metrics
                .get(name)
                .copied()
                .filter(|v| v.is_finite())
                .ok_or_else(|| format!("metric {name} was not measured"))?;
            metrics.push((
                name.to_string(),
                Json::Obj(vec![
                    ("value".into(), Json::Num(value)),
                    ("unit".into(), Json::Str(unit.into())),
                ]),
            ));
        }
        Ok(Json::Obj(vec![
            ("correct".into(), Json::Bool(self.failures.is_empty())),
            ("attempted".into(), Json::Num(self.attempted as f64)),
            ("failed".into(), Json::Num(self.failed() as f64)),
            ("metrics".into(), Json::Obj(metrics)),
        ])
        .render())
    }
}

/// Host-time samples of a closed loop's timed calls.
#[derive(Debug, Default)]
pub struct Timed {
    /// Host seconds of each operation's fresh-world build, taken before
    /// its timed call.
    pub setup_s: Vec<f64>,
    /// Host seconds per closed-loop operation.
    pub op_s: Vec<f64>,
    /// Host milliseconds per simulated iteration, one sample per
    /// operation.
    pub iter_ms: Vec<f64>,
    /// Simulated iterations (training iterations or serving steps).
    pub sim_iters: f64,
    /// Simulated tokens (trained or generated).
    pub sim_tokens: f64,
    /// Peak resident memory after set-up and the first operation, MiB.
    pub first_op_rss_mb: Option<f64>,
}

impl Timed {
    /// Host seconds spent inside timed calls.
    pub fn host_s(&self) -> f64 {
        self.op_s.iter().sum()
    }

    /// Runs `build`, the fresh-world build an operation does before its
    /// timed call, and records its host time as a set-up sample. Taking
    /// one sample per operation spreads them over the whole run, as the
    /// operation samples are.
    pub fn setup<T>(&mut self, build: impl FnOnce() -> T) -> T {
        let (world, secs) = time(build);
        self.setup_s.push(secs);
        world
    }

    /// Records one timed operation of `host_s` seconds that simulated
    /// `iters` iterations and `tokens` tokens.
    pub fn push(&mut self, host_s: f64, iters: f64, tokens: f64) {
        if self.op_s.is_empty() {
            self.first_op_rss_mb = peak_rss_mb();
        }
        self.op_s.push(host_s);
        self.iter_ms.push(host_s * 1e3 / iters.max(1.0));
        self.sim_iters += iters;
        self.sim_tokens += tokens;
    }
}

/// Runs `op(k)` for `k = 0, 1, ...` with one caller: each call starts
/// only after the previous one returned. Stops before a call whose
/// predicted end (the median call so far) would pass `budget`; at least
/// one call always runs. Returns the number of calls made.
pub fn closed_loop(budget: Duration, mut op: impl FnMut(usize)) -> usize {
    let start = Instant::now();
    let mut took: Vec<f64> = Vec::new();
    loop {
        let t = Instant::now();
        op(took.len());
        took.push(t.elapsed().as_secs_f64());
        if start.elapsed().as_secs_f64() + median(&took) > budget.as_secs_f64() {
            return took.len();
        }
    }
}

/// Makes the allocator do now the work that earlier frees left it. glibc
/// merges freed small blocks only when a later request needs a large one,
/// so after a serving trace frees millions of small objects the merge
/// (about 50 ms on a 2-core VM) lands in whatever allocates next: in some
/// operations the next cluster build, in others the next timed call.
/// One large request forces it; with nothing to merge it costs a
/// microsecond.
pub fn settle_allocator() {
    drop(std::hint::black_box(Vec::<u8>::with_capacity(64 << 10)));
}

/// Runs `f` and returns its result with its host time in seconds. The
/// allocator is settled before the clock starts and again before it
/// stops, so the time includes the merging of what `f` freed and none of
/// what earlier code freed.
pub fn time<T>(f: impl FnOnce() -> T) -> (T, f64) {
    settle_allocator();
    let t = Instant::now();
    let out = f();
    settle_allocator();
    (out, t.elapsed().as_secs_f64())
}

/// Median of `xs` (NaN when empty).
pub fn median(xs: &[f64]) -> f64 {
    quantile(xs, 0.5)
}

/// Linearly interpolated quantile `q` of `xs` (NaN when empty).
pub fn quantile(xs: &[f64], q: f64) -> f64 {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => f64::NAN,
        n => {
            let pos = q.clamp(0.0, 1.0) * (n - 1) as f64;
            #[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss)]
            let lo = pos.floor() as usize;
            let hi = (lo + 1).min(n - 1);
            v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
        }
    }
}

/// `num / den`, or 0 when `den` is 0.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// The process's peak resident set (`VmHWM`) in MiB.
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[1.0, 2.0, 3.0, 4.0]), 2.5);
        assert!(median(&[]).is_nan());
        assert_eq!(quantile(&[0.0, 10.0], 0.9), 9.0);
    }

    #[test]
    fn closed_loop_runs_at_least_once_and_stops_at_budget() {
        let mut calls = 0;
        assert_eq!(closed_loop(Duration::ZERO, |_| calls += 1), 1);
        assert_eq!(calls, 1);
        let n = closed_loop(Duration::from_millis(50), |_| {
            std::thread::sleep(Duration::from_millis(10));
        });
        assert!((3..=5).contains(&n), "{n}");
    }

    #[test]
    fn input_seeds_are_distinct_per_seed_and_op() {
        assert_eq!(input_seed(DEFAULT_SEED, 0), 0);
        assert_eq!(input_seed(7, 3), input_seed(7, 3));
        assert_ne!(input_seed(7, 3), input_seed(8, 3));
        assert_ne!(input_seed(7, 3), input_seed(7, 4));
    }

    /// Time in a root span that no layer span claims counts against the
    /// coverage, and too little coverage fails the run.
    #[test]
    fn root_self_time_is_not_coverage() {
        let sleep = |ms| std::thread::sleep(Duration::from_millis(ms));
        for (glue_ms, passes) in [(0, true), (30, false)] {
            let mut tr = Tracer::new();
            tr.resume();
            tr.begin("train");
            tr.span("engine", || sleep(20));
            sleep(glue_ms);
            tr.end();
            tr.pause();
            let mut out = Outcome::default();
            out.set_per_layer(&tr, 1.0, 1.0);
            let coverage = out.metrics["trace.coverage_frac"];
            assert_eq!(out.failures.is_empty(), passes, "{coverage}");
            assert_eq!(coverage >= MIN_COVERAGE, passes, "{coverage}");
        }
    }

    #[test]
    fn peak_rss_is_read() {
        assert!(peak_rss_mb().unwrap() > 0.0);
    }
}
