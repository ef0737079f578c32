//! Outside-in tracing: one span per public call into a ZeroSim layer,
//! recorded by the benchmark around the call, plus plain counters.
//!
//! Spans live in memory until the run ends. A span's self time is its
//! duration minus the time its child spans cover; summing self times by
//! span name gives each layer's busy time. Spans are stamped with the
//! tracer's own clock, which runs only between [`Tracer::resume`] and
//! [`Tracer::pause`]: the benchmark's checks and untraced reference runs
//! happen while it is paused and appear in no span and in no traced wall
//! time, even when they happen inside an open span.

use std::collections::BTreeMap;
use std::time::Instant;

use zerosim_testkit::json::Json;

/// One recorded call.
#[derive(Debug, Clone)]
pub struct Span {
    /// Layer name (`plan`, `lower`, `engine`, ...).
    pub name: &'static str,
    /// Traced-clock nanoseconds at the call.
    pub start_ns: u64,
    /// Traced-clock nanoseconds at the return; 0 while open.
    pub end_ns: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// Closed-loop operation the span belongs to.
    pub op: usize,
    /// Whether the span is a call into its layer, counted by
    /// [`Tracer::calls`], or work [`Tracer::charge`] books to the layer.
    pub call: bool,
}

impl Span {
    fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Span and counter recorder for one traced run.
#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    op: usize,
    counters: BTreeMap<&'static str, f64>,
    /// Paused time before the current pause (or before now, if running).
    paused_ns: u64,
    /// When the current pause began; `None` while running.
    paused_at: Option<Instant>,
}

impl Tracer {
    /// A paused tracer with no spans.
    pub fn new() -> Self {
        let origin = Instant::now();
        Tracer {
            origin,
            spans: Vec::new(),
            open: Vec::new(),
            op: 0,
            counters: BTreeMap::new(),
            paused_ns: 0,
            paused_at: Some(origin),
        }
    }

    fn now_ns(&self) -> u64 {
        let now = Instant::now();
        let ns = |since: Instant| {
            u64::try_from(now.duration_since(since).as_nanos()).unwrap_or(u64::MAX)
        };
        let pausing = self.paused_at.map_or(0, ns);
        ns(self.origin).saturating_sub(self.paused_ns + pausing)
    }

    /// Starts the traced clock.
    pub fn resume(&mut self) {
        if let Some(p) = self.paused_at.take() {
            self.paused_ns += u64::try_from(p.elapsed().as_nanos()).unwrap_or(u64::MAX);
        }
    }

    /// Stops the traced clock.
    pub fn pause(&mut self) {
        self.paused_at.get_or_insert_with(Instant::now);
    }

    /// The traced clock, in seconds: host time spent running.
    pub fn clock_s(&self) -> f64 {
        self.now_ns() as f64 * 1e-9
    }

    /// Sets the operation id stamped on spans opened from now on.
    pub fn set_op(&mut self, op: usize) {
        self.op = op;
    }

    /// Opens a span nested in the innermost open one.
    pub fn begin(&mut self, name: &'static str) {
        self.open_span(name, true);
    }

    fn open_span(&mut self, name: &'static str, call: bool) {
        let span = Span {
            name,
            start_ns: self.now_ns(),
            end_ns: 0,
            parent: self.open.last().copied(),
            op: self.op,
            call,
        };
        self.open.push(self.spans.len());
        self.spans.push(span);
    }

    /// Closes the innermost open span and returns its duration in seconds.
    pub fn end(&mut self) -> f64 {
        let now = self.now_ns();
        let idx = self.open.pop().expect("end() matches a begin()");
        self.spans[idx].end_ns = now;
        self.spans[idx].duration_ns() as f64 * 1e-9
    }

    /// Runs `f` inside a span named `name`.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        self.begin(name);
        let out = f();
        self.end();
        out
    }

    /// Runs `f` inside a span named `name` that books its time to that
    /// layer without counting as a call into it: freeing what earlier
    /// calls built, for instance.
    pub fn charge<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        self.open_span(name, false);
        let out = f();
        self.end();
        out
    }

    /// Adds `v` to counter `name`.
    pub fn add(&mut self, name: &'static str, v: f64) {
        *self.counters.entry(name).or_insert(0.0) += v;
    }

    /// Raises counter `name` to at least `v`.
    pub fn max(&mut self, name: &'static str, v: f64) {
        let c = self.counters.entry(name).or_insert(0.0);
        *c = c.max(v);
    }

    /// Counter `name` (0 when never touched).
    pub fn counter(&self, name: &str) -> f64 {
        self.counters.get(name).copied().unwrap_or(0.0)
    }

    /// Number of calls into layer `name`.
    pub fn calls(&self, name: &str) -> f64 {
        self.spans
            .iter()
            .filter(|s| s.call && s.name == name)
            .count() as f64
    }

    /// Self time per span name, in milliseconds.
    pub fn self_ms(&self) -> BTreeMap<&'static str, f64> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p] += s.duration_ns();
            }
        }
        let mut out: BTreeMap<&'static str, f64> = BTreeMap::new();
        for (s, c) in self.spans.iter().zip(child_ns) {
            *out.entry(s.name).or_insert(0.0) += s.duration_ns().saturating_sub(c) as f64 * 1e-6;
        }
        out
    }

    /// Every span as a JSON array, for writing out when the run ends.
    pub fn spans_json(&self) -> Json {
        Json::Arr(
            self.spans
                .iter()
                .map(|s| {
                    Json::Obj(vec![
                        ("name".into(), Json::Str(s.name.into())),
                        ("start_ns".into(), Json::Num(s.start_ns as f64)),
                        ("end_ns".into(), Json::Num(s.end_ns as f64)),
                        (
                            "parent".into(),
                            s.parent.map_or(Json::Null, |p| Json::Num(p as f64)),
                        ),
                        ("op".into(), Json::Num(s.op as f64)),
                        ("call".into(), Json::Bool(s.call)),
                    ])
                })
                .collect(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    use std::thread::sleep;
    use std::time::Duration;

    #[test]
    fn self_time_subtracts_children_and_pauses() {
        let mut tr = Tracer::new();
        sleep(Duration::from_millis(10));
        assert_eq!(tr.clock_s(), 0.0);
        tr.resume();
        tr.begin("outer");
        tr.span("inner", || sleep(Duration::from_millis(20)));
        tr.pause();
        sleep(Duration::from_millis(50));
        tr.resume();
        sleep(Duration::from_millis(5));
        let outer_s = tr.end();
        tr.pause();
        let self_ms = tr.self_ms();
        assert!(self_ms["inner"] >= 20.0);
        assert!((5.0..50.0).contains(&self_ms["outer"]), "{self_ms:?}");
        assert!((self_ms["inner"] + self_ms["outer"] - outer_s * 1e3).abs() < 1e-6);
        assert!(tr.clock_s() >= outer_s && tr.clock_s() < 0.05);
        assert_eq!(tr.calls("inner"), 1.0);
        tr.resume();
        tr.charge("inner", || sleep(Duration::from_millis(1)));
        assert_eq!(tr.calls("inner"), 1.0);
        assert!(tr.self_ms()["inner"] >= 21.0);
        assert_eq!(tr.spans[1].parent, Some(0));
    }
}
