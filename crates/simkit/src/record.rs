//! Measurement instrumentation: time-bucketed bandwidth recording and
//! timeline span logging.
//!
//! The paper samples every interconnect with AMD µProf / `nvidia-smi` and
//! reports average, 90th-percentile, and peak utilization (Table IV) plus
//! utilization-pattern plots (Figs. 9, 10, 12). [`BandwidthRecorder`]
//! reproduces that methodology: bytes moved on each link are accumulated
//! into fixed-width time buckets, and statistics are computed over the
//! bucket samples exactly as a periodic hardware counter would observe them.

use crate::flow::{FlowObserver, LinkId};
use crate::time::SimTime;

/// Bandwidth statistics over a sampled series, in bytes/second.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct BandwidthStats {
    /// Mean over all samples (including idle ones).
    pub avg: f64,
    /// 90th percentile sample.
    pub p90: f64,
    /// Maximum sample.
    pub peak: f64,
}

impl BandwidthStats {
    /// Computes stats from raw samples in bytes/second.
    ///
    /// Returns all-zero stats for an empty slice. The 90th percentile uses
    /// the nearest-rank method, matching how the paper post-processes its
    /// sampled counters.
    #[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss)] // rank <= len
    pub fn from_samples(samples: &[f64]) -> Self {
        if samples.is_empty() {
            return Self::default();
        }
        let mut sorted: Vec<f64> = samples.to_vec();
        sorted.sort_by(|a, b| a.partial_cmp(b).expect("NaN bandwidth sample"));
        let sum: f64 = sorted.iter().sum();
        let rank = ((0.90 * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
        BandwidthStats {
            avg: sum / sorted.len() as f64,
            p90: sorted[rank - 1],
            peak: *sorted.last().expect("non-empty"),
        }
    }

    /// Converts all fields from bytes/second to gigabytes/second (1e9).
    pub fn to_gbps(self) -> BandwidthStats {
        BandwidthStats {
            avg: self.avg / 1e9,
            p90: self.p90 / 1e9,
            peak: self.peak / 1e9,
        }
    }
}

/// Counters describing how much work the incremental max-min solver did.
///
/// The solver re-converges only the *dirty component* — the links reachable
/// from the event's touched links through shared flows — so these counters
/// are the direct measure of how much cheaper an event was than a full
/// network recompute. They accumulate monotonically over the life of a
/// [`FlowNet`](crate::flow::FlowNet); use [`SolverStats::delta_since`] to
/// window them around a measured region (e.g. the timed iterations of a
/// training run).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct SolverStats {
    /// Number of solves (one per batch of dirty links at a read point).
    pub solves: u64,
    /// Solves whose dirty component spanned the whole network (cold start,
    /// forced full mode, or genuinely global events).
    pub full_solves: u64,
    /// Cumulative links re-converged across all solves.
    pub links_touched: u64,
    /// Cumulative flows re-converged across all solves.
    pub flows_touched: u64,
    /// Largest single dirty component, in links.
    pub max_component_links: usize,
    /// Size of the most recent dirty component, in links.
    pub last_component_links: usize,
}

impl SolverStats {
    /// Mean links re-converged per solve (0 when no solve happened).
    pub fn mean_links_per_solve(&self) -> f64 {
        if self.solves == 0 {
            0.0
        } else {
            self.links_touched as f64 / self.solves as f64
        }
    }

    /// Mean flows re-converged per solve (0 when no solve happened).
    pub fn mean_flows_per_solve(&self) -> f64 {
        if self.solves == 0 {
            0.0
        } else {
            self.flows_touched as f64 / self.solves as f64
        }
    }

    /// Counter difference `self - earlier` for windowed measurement. The
    /// `max_component_links` / `last_component_links` gauges are taken from
    /// `self` (an upper bound for the window).
    pub fn delta_since(&self, earlier: &SolverStats) -> SolverStats {
        SolverStats {
            solves: self.solves.saturating_sub(earlier.solves),
            full_solves: self.full_solves.saturating_sub(earlier.full_solves),
            links_touched: self.links_touched.saturating_sub(earlier.links_touched),
            flows_touched: self.flows_touched.saturating_sub(earlier.flows_touched),
            max_component_links: self.max_component_links,
            last_component_links: self.last_component_links,
        }
    }
}

/// Counters describing how much work the DAG engine did.
///
/// They accumulate monotonically over the life of a
/// [`DagEngine`](crate::engine::DagEngine); use
/// [`EngineStats::delta_since`] to window them around a measured region.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct EngineStats {
    /// Completed `run`/`run_faulted` calls.
    pub runs: u64,
    /// Tasks retired across all runs (every task finishes exactly once in
    /// an uninterrupted run).
    pub tasks_finished: u64,
    /// Flows handed to the network across all runs.
    pub flows_started: u64,
    /// Outer event-loop iterations (virtual-time advances) across all runs.
    pub ticks: u64,
}

impl EngineStats {
    /// Counter difference `self - earlier` for windowed measurement.
    pub fn delta_since(&self, earlier: &EngineStats) -> EngineStats {
        EngineStats {
            runs: self.runs.saturating_sub(earlier.runs),
            tasks_finished: self.tasks_finished.saturating_sub(earlier.tasks_finished),
            flows_started: self.flows_started.saturating_sub(earlier.flows_started),
            ticks: self.ticks.saturating_sub(earlier.ticks),
        }
    }
}

/// Accumulates per-link bytes into fixed-width time buckets.
///
/// # Layout
///
/// `bytes[link][bucket]` holds the bytes a link moved in each bucket of
/// recorder-local time (simulated time minus the origin). A transfer that
/// falls inside one bucket is added to it whole; one that spans several is
/// spread over them in proportion to each bucket's overlap with the
/// interval, `bytes * overlap_ns / total_ns`.
///
/// [`FlowNet::advance`](crate::flow::FlowNet::advance) reports a whole
/// tick at once through [`FlowObserver::on_interval`], and every transfer
/// of a tick shares its interval. The recorder therefore works out the
/// interval's bucket geometry — origin shift, first and last bucket, the
/// per-bucket overlaps — once per tick and then only adds per transfer.
/// Each bucket receives the same floating-point operations, in the same
/// order, as when the transfers arrive one by one through
/// [`FlowObserver::on_transfer`], which is the one-entry case of the same
/// path. A tick that straddles the origin clips to one window, `[0, kept)`
/// in local time, for all its transfers; only each transfer's bytes are
/// scaled, to `bytes * kept / dt`.
///
/// ```
/// use zerosim_simkit::flow::{FlowNet, FlowObserver};
/// use zerosim_simkit::record::BandwidthRecorder;
/// use zerosim_simkit::SimTime;
///
/// let mut net = FlowNet::new();
/// let l = net.add_link("pcie", 100.0);
/// net.start_flow(&[l], 200.0).unwrap();
/// let mut rec = BandwidthRecorder::new(SimTime::from_secs(1.0));
/// net.drain(&mut rec).unwrap();
/// let series = rec.series(l);
/// assert_eq!(series.len(), 2); // two 1-second buckets at 100 B/s
/// assert!((series[0] - 100.0).abs() < 1e-9);
/// ```
#[derive(Debug, Clone)]
pub struct BandwidthRecorder {
    bucket: SimTime,
    /// Bytes per time bucket, indexed by link; a link past the end has
    /// recorded nothing.
    bytes: Vec<Vec<f64>>,
    horizon: SimTime,
    origin: SimTime,
    /// Scratch: overlap in nanoseconds of the current interval with each of
    /// its buckets, first to last (filled only for a multi-bucket
    /// interval).
    overlap: Vec<f64>,
}

/// Bucket geometry of one recorder-local interval.
struct Window {
    end: SimTime,
    first: usize,
    last: usize,
    /// Interval length in nanoseconds; the divisor of a spread transfer.
    total_ns: f64,
}

impl BandwidthRecorder {
    /// Creates a recorder with the given bucket width.
    ///
    /// # Panics
    /// Panics if `bucket` is zero.
    pub fn new(bucket: SimTime) -> Self {
        Self::with_origin(bucket, SimTime::ZERO)
    }

    /// Creates a recorder whose bucket 0 starts at `origin`; transfers
    /// before the origin are ignored (e.g. warm-up iterations).
    ///
    /// # Panics
    /// Panics if `bucket` is zero.
    pub fn with_origin(bucket: SimTime, origin: SimTime) -> Self {
        assert!(!bucket.is_zero(), "bucket width must be positive");
        BandwidthRecorder {
            bucket,
            bytes: Vec::new(),
            horizon: SimTime::ZERO,
            origin,
            overlap: Vec::new(),
        }
    }

    /// The configured bucket width.
    pub fn bucket_width(&self) -> SimTime {
        self.bucket
    }

    /// Latest instant covered by any recorded transfer.
    pub fn horizon(&self) -> SimTime {
        self.horizon
    }

    /// Bandwidth series for `link` in bytes/second per bucket, padded with
    /// trailing idle buckets up to the recorder horizon.
    pub fn series(&self, link: LinkId) -> Vec<f64> {
        let n = self.bucket_count();
        let width = self.bucket.as_secs();
        let mut out = vec![0.0; n];
        if let Some(b) = self.bytes.get(link.index()) {
            for (i, v) in b.iter().enumerate() {
                out[i] = v / width;
            }
        }
        out
    }

    /// Sum of the bandwidth series of several links (e.g. the two directions
    /// of a full-duplex interface, or all 12 NVLinks of a node).
    pub fn aggregate_series(&self, links: &[LinkId]) -> Vec<f64> {
        let n = self.bucket_count();
        let width = self.bucket.as_secs();
        let mut out = vec![0.0; n];
        for link in links {
            if let Some(b) = self.bytes.get(link.index()) {
                for (i, v) in b.iter().enumerate() {
                    out[i] += v / width;
                }
            }
        }
        out
    }

    /// Statistics (avg/p90/peak, bytes/second) over the aggregate series of
    /// `links`.
    pub fn stats(&self, links: &[LinkId]) -> BandwidthStats {
        BandwidthStats::from_samples(&self.aggregate_series(links))
    }

    /// Total bytes recorded on `link`.
    pub fn total_bytes(&self, link: LinkId) -> f64 {
        self.bytes.get(link.index()).map_or(0.0, |b| b.iter().sum())
    }

    #[allow(clippy::cast_possible_truncation)] // bucket counts are small
    fn bucket_count(&self) -> usize {
        (self
            .horizon
            .as_nanos()
            .div_ceil(self.bucket.as_nanos().max(1))) as usize
    }

    /// The bucket geometry of recorder-local `[start, start + dt_secs)`;
    /// fills `overlap` when the interval spans more than one bucket.
    // Bucket indices are bounded by horizon / bucket width, far below
    // usize::MAX on any supported target.
    #[allow(clippy::cast_possible_truncation)]
    fn window(&mut self, start: SimTime, dt_secs: f64) -> Window {
        let end = start + SimTime::from_secs(dt_secs);
        let width_ns = self.bucket.as_nanos();
        let first = start.as_nanos() / width_ns;
        let last = (end.as_nanos().saturating_sub(1)) / width_ns;
        if first != last {
            self.overlap.clear();
            for b in first..=last {
                let b_start = b * width_ns;
                let b_end = b_start + width_ns;
                let overlap = (end.as_nanos().min(b_end) - start.as_nanos().max(b_start)) as f64;
                self.overlap.push(overlap);
            }
        }
        Window {
            end,
            first: first as usize,
            last: last as usize,
            total_ns: (end.as_nanos() - start.as_nanos()) as f64,
        }
    }

    /// Adds `bytes` on `link` to the buckets of `w`, spreading them by
    /// overlap when `w` spans several.
    fn deposit(&mut self, w: &Window, link: LinkId, bytes: f64) {
        if self.bytes.len() <= link.index() {
            self.bytes.resize_with(link.index() + 1, Vec::new);
        }
        let buf = &mut self.bytes[link.index()];
        if buf.len() <= w.last {
            buf.resize(w.last + 1, 0.0);
        }
        if w.first == w.last {
            buf[w.first] += bytes;
            return;
        }
        for (b, overlap) in buf[w.first..=w.last].iter_mut().zip(&self.overlap) {
            *b += bytes * overlap / w.total_ns;
        }
    }
}

impl FlowObserver for BandwidthRecorder {
    fn on_transfer(&mut self, link: LinkId, start: SimTime, dt_secs: f64, bytes: f64) {
        self.on_interval(start, dt_secs, &[(link, bytes)]);
    }

    /// Works out the interval's bucket geometry once, then adds each
    /// transfer; see the type's layout notes.
    fn on_interval(&mut self, start: SimTime, dt_secs: f64, transfers: &[(LinkId, f64)]) {
        if dt_secs <= 0.0 {
            return;
        }
        // Shift into recorder-local time; clip anything before the origin.
        let raw_end = start + SimTime::from_secs(dt_secs);
        if raw_end <= self.origin {
            return;
        }
        let (local_start, kept) = if start < self.origin {
            (SimTime::ZERO, Some((raw_end - self.origin).as_secs()))
        } else {
            (start - self.origin, None)
        };
        let w = self.window(local_start, kept.unwrap_or(dt_secs));
        let mut recorded = false;
        for &(link, bytes) in transfers {
            if bytes <= 0.0 {
                continue;
            }
            recorded = true;
            let bytes = kept.map_or(bytes, |kept| bytes * kept / dt_secs);
            self.deposit(&w, link, bytes);
        }
        if recorded {
            self.horizon = self.horizon.max(w.end);
        }
    }
}

/// A labelled interval on a device timeline (the simulated analogue of an
/// `nsys` kernel span; Fig. 5).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// Device/track the span belongs to (e.g. a GPU index).
    pub track: u32,
    /// Category label (e.g. "gemm", "allreduce").
    pub label: String,
    /// Span start.
    pub start: SimTime,
    /// Span end.
    pub end: SimTime,
}

/// Collects timeline spans emitted during a simulation.
#[derive(Debug, Clone, Default)]
pub struct SpanLog {
    spans: Vec<Span>,
}

impl SpanLog {
    /// Creates an empty log.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records a span.
    ///
    /// # Panics
    /// Panics in debug builds if `end < start`.
    pub fn push(&mut self, track: u32, label: impl Into<String>, start: SimTime, end: SimTime) {
        debug_assert!(end >= start, "span ends before it starts");
        self.spans.push(Span {
            track,
            label: label.into(),
            start,
            end,
        });
    }

    /// All spans in insertion order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Spans on a single track, sorted by start time.
    pub fn track(&self, track: u32) -> Vec<&Span> {
        let mut v: Vec<&Span> = self.spans.iter().filter(|s| s.track == track).collect();
        v.sort_by_key(|s| s.start);
        v
    }

    /// Total busy time on `track` attributed to spans whose label matches
    /// `label` exactly.
    pub fn busy_time(&self, track: u32, label: &str) -> SimTime {
        self.spans
            .iter()
            .filter(|s| s.track == track && s.label == label)
            .map(|s| s.end - s.start)
            .sum()
    }

    /// Latest end time across all tracks ([`SimTime::ZERO`] when empty).
    pub fn horizon(&self) -> SimTime {
        self.spans
            .iter()
            .map(|s| s.end)
            .fold(SimTime::ZERO, SimTime::max)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::flow::FlowNet;

    #[test]
    fn stats_from_samples() {
        let s = BandwidthStats::from_samples(&[1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0, 9.0, 10.0]);
        assert!((s.avg - 5.5).abs() < 1e-9);
        assert_eq!(s.p90, 9.0);
        assert_eq!(s.peak, 10.0);
    }

    #[test]
    fn stats_empty_is_zero() {
        assert_eq!(BandwidthStats::from_samples(&[]), BandwidthStats::default());
    }

    #[test]
    fn gbps_conversion() {
        let s = BandwidthStats {
            avg: 2e9,
            p90: 3e9,
            peak: 4e9,
        }
        .to_gbps();
        assert_eq!(s.avg, 2.0);
        assert_eq!(s.p90, 3.0);
        assert_eq!(s.peak, 4.0);
    }

    #[test]
    fn recorder_buckets_constant_flow() {
        let mut net = FlowNet::new();
        let l = net.add_link("l", 100.0);
        net.start_flow(&[l], 250.0).unwrap();
        let mut rec = BandwidthRecorder::new(SimTime::from_secs(1.0));
        net.drain(&mut rec).unwrap();
        let s = rec.series(l);
        assert_eq!(s.len(), 3);
        assert!((s[0] - 100.0).abs() < 1e-9);
        assert!((s[1] - 100.0).abs() < 1e-9);
        assert!((s[2] - 50.0).abs() < 1e-6);
        assert!((rec.total_bytes(l) - 250.0).abs() < 1e-6);
    }

    #[test]
    fn recorder_spreads_across_bucket_boundaries() {
        let mut rec = BandwidthRecorder::new(SimTime::from_secs(1.0));
        // 3-second transfer of 300 bytes starting at t=0.5.
        rec.on_transfer(LinkId(0), SimTime::from_secs(0.5), 3.0, 300.0);
        let s = rec.series(LinkId(0));
        assert_eq!(s.len(), 4);
        assert!((s[0] - 50.0).abs() < 1e-6);
        assert!((s[1] - 100.0).abs() < 1e-6);
        assert!((s[2] - 100.0).abs() < 1e-6);
        assert!((s[3] - 50.0).abs() < 1e-6);
    }

    #[test]
    fn origin_clips_warmup_traffic() {
        let mut rec =
            BandwidthRecorder::with_origin(SimTime::from_secs(1.0), SimTime::from_secs(2.0));
        // Fully before the origin: dropped.
        rec.on_transfer(LinkId(0), SimTime::ZERO, 1.0, 100.0);
        assert_eq!(rec.total_bytes(LinkId(0)), 0.0);
        // Straddling the origin: only the post-origin share counts.
        rec.on_transfer(LinkId(0), SimTime::from_secs(1.0), 2.0, 200.0);
        assert!((rec.total_bytes(LinkId(0)) - 100.0).abs() < 1e-6);
        // After the origin: shifted to local time.
        rec.on_transfer(LinkId(0), SimTime::from_secs(3.0), 1.0, 50.0);
        let s = rec.series(LinkId(0));
        assert_eq!(s.len(), 2);
        assert!((s[1] - 50.0).abs() < 1e-6);
    }

    #[test]
    fn aggregate_series_sums_links() {
        let mut rec = BandwidthRecorder::new(SimTime::from_secs(1.0));
        rec.on_transfer(LinkId(0), SimTime::ZERO, 1.0, 10.0);
        rec.on_transfer(LinkId(1), SimTime::ZERO, 1.0, 20.0);
        let agg = rec.aggregate_series(&[LinkId(0), LinkId(1)]);
        assert_eq!(agg, vec![30.0]);
        let stats = rec.stats(&[LinkId(0), LinkId(1)]);
        assert_eq!(stats.peak, 30.0);
    }

    #[test]
    fn unknown_link_series_is_idle() {
        let mut rec = BandwidthRecorder::new(SimTime::from_secs(1.0));
        rec.on_transfer(LinkId(0), SimTime::ZERO, 2.0, 10.0);
        assert_eq!(rec.series(LinkId(9)), vec![0.0, 0.0]);
    }

    /// Records every `on_transfer` call; implements nothing else, so it
    /// sees [`FlowObserver::on_interval`]'s default forwarding.
    #[derive(Default)]
    struct Calls(Vec<(LinkId, SimTime, f64, f64)>);

    impl FlowObserver for Calls {
        fn on_transfer(&mut self, link: LinkId, start: SimTime, dt_secs: f64, bytes: f64) {
            self.0.push((link, start, dt_secs, bytes));
        }
    }

    /// The recorder's arithmetic written out per transfer, independently
    /// of `window`/`deposit`: the oracle the batched and per-transfer
    /// paths must both match bit for bit.
    struct Reference {
        width: SimTime,
        origin: SimTime,
        bytes: Vec<Vec<f64>>,
        horizon: SimTime,
    }

    impl Reference {
        #[allow(clippy::cast_possible_truncation)]
        fn add(&mut self, link: usize, start: SimTime, dt: f64, bytes: f64) {
            if bytes <= 0.0 || dt <= 0.0 {
                return;
            }
            let raw_end = start + SimTime::from_secs(dt);
            if raw_end <= self.origin {
                return;
            }
            let (start, bytes, dt) = if start < self.origin {
                let kept = (raw_end - self.origin).as_secs();
                (SimTime::ZERO, bytes * kept / dt, kept)
            } else {
                (start - self.origin, bytes, dt)
            };
            let (start, end) = (
                start.as_nanos(),
                (start + SimTime::from_secs(dt)).as_nanos(),
            );
            self.horizon = self.horizon.max(SimTime::from_nanos(end));
            let w = self.width.as_nanos();
            let (first, last) = (start / w, end.saturating_sub(1) / w);
            if self.bytes.len() <= link {
                self.bytes.resize_with(link + 1, Vec::new);
            }
            let buf = &mut self.bytes[link];
            if buf.len() <= last as usize {
                buf.resize(last as usize + 1, 0.0);
            }
            if first == last {
                buf[first as usize] += bytes;
                return;
            }
            for b in first..=last {
                let overlap = end.min((b + 1) * w) - start.max(b * w);
                buf[b as usize] += bytes * overlap as f64 / (end - start) as f64;
            }
        }

        #[allow(clippy::cast_possible_truncation)]
        fn series_bits(&self, link: usize) -> Vec<u64> {
            let buf = self.bytes.get(link).map_or(&[][..], Vec::as_slice);
            (0..self.horizon.as_nanos().div_ceil(self.width.as_nanos()))
                .map(|i| buf.get(i as usize).copied().unwrap_or(0.0))
                .map(|v| (v / self.width.as_secs()).to_bits())
                .collect()
        }
    }

    use zerosim_testkit::gen::{f64_range, map, one_of, tuple2, tuple3, u64_range, vec_of};
    use zerosim_testkit::{prop, prop_assert_eq};

    prop! {
        /// Feeding a tick's transfers through `on_interval` once records
        /// exactly what feeding them one by one through `on_transfer`
        /// does, and both match the written-out reference arithmetic —
        /// series, totals and horizon bit for bit — for ticks
        /// inside one bucket, spanning several, straddling the origin,
        /// lying wholly before it, and carrying zero-byte entries. An
        /// observer that implements only `on_transfer` receives the
        /// entries in order.
        #[cases(128)]
        fn batched_recording_equals_per_transfer_recording(
            width_ns in one_of(&[1_000_000u64, 3_333_333]),
            origin_ns in one_of(&[0u64, 10_000_000, 12_345_678]),
            ticks in vec_of(
                tuple3(
                    u64_range(0, 40_000_000),
                    // Up to ~12 ms: from well inside one bucket to several.
                    map(f64_range(0.0, 1.0), |x: f64| x * x * 12e-3),
                    vec_of(
                        tuple2(
                            u64_range(0, 4),
                            // One entry in four moves no bytes.
                            map(tuple2(u64_range(0, 3), f64_range(1.0, 1e6)), |(k, b)| {
                                if k == 0 { 0.0 } else { b }
                            }),
                        ),
                        0,
                        8,
                    ),
                ),
                1,
                24,
            ),
        ) {
            let width = SimTime::from_nanos(width_ns);
            let origin = SimTime::from_nanos(origin_ns);
            let mut batched = BandwidthRecorder::with_origin(width, origin);
            let mut single = BandwidthRecorder::with_origin(width, origin);
            let mut reference = Reference {
                width,
                origin,
                bytes: Vec::new(),
                horizon: SimTime::ZERO,
            };
            for (start_ns, dt_secs, entries) in &ticks {
                let start = SimTime::from_nanos(*start_ns);
                #[allow(clippy::cast_possible_truncation)] // link < 4
                let transfers: Vec<(LinkId, f64)> =
                    entries.iter().map(|&(l, b)| (LinkId(l as usize), b)).collect();
                batched.on_interval(start, *dt_secs, &transfers);
                for &(link, bytes) in &transfers {
                    single.on_transfer(link, start, *dt_secs, bytes);
                    reference.add(link.index(), start, *dt_secs, bytes);
                }
                let mut calls = Calls::default();
                calls.on_interval(start, *dt_secs, &transfers);
                let expected: Vec<(LinkId, SimTime, f64, f64)> = transfers
                    .iter()
                    .map(|&(link, bytes)| (link, start, *dt_secs, bytes))
                    .collect();
                prop_assert_eq!(calls.0, expected);
            }
            prop_assert_eq!(batched.horizon(), single.horizon());
            prop_assert_eq!(batched.horizon(), reference.horizon);
            for l in 0..5 {
                let bits = |r: &BandwidthRecorder| -> Vec<u64> {
                    r.series(LinkId(l)).iter().map(|v| v.to_bits()).collect()
                };
                prop_assert_eq!(bits(&batched), bits(&single));
                prop_assert_eq!(bits(&batched), reference.series_bits(l));
                prop_assert_eq!(
                    batched.total_bytes(LinkId(l)).to_bits(),
                    single.total_bytes(LinkId(l)).to_bits()
                );
            }
        }
    }

    #[test]
    fn solver_stats_means_and_delta() {
        let earlier = SolverStats {
            solves: 2,
            full_solves: 1,
            links_touched: 10,
            flows_touched: 6,
            max_component_links: 8,
            last_component_links: 2,
        };
        let later = SolverStats {
            solves: 6,
            full_solves: 1,
            links_touched: 18,
            flows_touched: 14,
            max_component_links: 8,
            last_component_links: 1,
        };
        let d = later.delta_since(&earlier);
        assert_eq!(d.solves, 4);
        assert_eq!(d.full_solves, 0);
        assert_eq!(d.links_touched, 8);
        assert_eq!(d.flows_touched, 8);
        assert_eq!(d.max_component_links, 8);
        assert!((d.mean_links_per_solve() - 2.0).abs() < 1e-12);
        assert!((d.mean_flows_per_solve() - 2.0).abs() < 1e-12);
        assert_eq!(SolverStats::default().mean_links_per_solve(), 0.0);
        assert_eq!(SolverStats::default().mean_flows_per_solve(), 0.0);
    }

    #[test]
    fn engine_stats_delta() {
        let earlier = EngineStats {
            runs: 1,
            tasks_finished: 10,
            flows_started: 2,
            ticks: 8,
        };
        let later = EngineStats {
            runs: 3,
            tasks_finished: 30,
            flows_started: 6,
            ticks: 24,
        };
        let d = later.delta_since(&earlier);
        assert_eq!(d.runs, 2);
        assert_eq!(d.tasks_finished, 20);
        assert_eq!(d.flows_started, 4);
        assert_eq!(d.ticks, 16);
    }

    #[test]
    fn span_log_tracks_and_busy_time() {
        let mut log = SpanLog::new();
        log.push(0, "gemm", SimTime::ZERO, SimTime::from_ms(2.0));
        log.push(0, "allreduce", SimTime::from_ms(2.0), SimTime::from_ms(3.0));
        log.push(1, "gemm", SimTime::from_ms(1.0), SimTime::from_ms(4.0));
        assert_eq!(log.spans().len(), 3);
        assert_eq!(log.track(0).len(), 2);
        assert_eq!(log.busy_time(0, "gemm"), SimTime::from_ms(2.0));
        assert_eq!(log.busy_time(1, "gemm"), SimTime::from_ms(3.0));
        assert_eq!(log.horizon(), SimTime::from_ms(4.0));
    }
}

/// Interval-union coverage utilities over span logs.
impl SpanLog {
    /// Total time on `track` covered by at least one span whose label is
    /// in `labels` (overlaps counted once — unlike [`SpanLog::busy_time`],
    /// which sums durations).
    pub fn coverage(&self, track: u32, labels: &[&str]) -> SimTime {
        let mut intervals: Vec<(SimTime, SimTime)> = self
            .spans
            .iter()
            .filter(|s| s.track == track && labels.contains(&s.label.as_str()))
            .map(|s| (s.start, s.end))
            .collect();
        intervals.sort();
        let mut total = SimTime::ZERO;
        let mut current: Option<(SimTime, SimTime)> = None;
        for (start, end) in intervals {
            match current {
                Some((cs, ce)) if start <= ce => {
                    current = Some((cs, ce.max(end)));
                }
                Some((cs, ce)) => {
                    total += ce - cs;
                    current = Some((start, end));
                }
                None => current = Some((start, end)),
            }
        }
        if let Some((cs, ce)) = current {
            total += ce - cs;
        }
        total
    }

    /// Time on `track` covered by a span in `labels` but NOT by any span
    /// in `unless` — e.g. communication time not hidden under compute.
    pub fn exposed(&self, track: u32, labels: &[&str], unless: &[&str]) -> SimTime {
        // coverage(A) − coverage(A ∩ B) via inclusion-exclusion over the
        // merged sets: |A \ B| = |A ∪ B| − |B|.
        let union: Vec<&str> = labels.iter().chain(unless).copied().collect();
        self.coverage(track, &union) - self.coverage(track, unless)
    }
}

#[cfg(test)]
mod coverage_tests {
    use super::*;

    fn log() -> SpanLog {
        let mut l = SpanLog::new();
        let ms = SimTime::from_ms;
        l.push(0, "gemm", ms(0.0), ms(4.0));
        l.push(0, "gemm", ms(2.0), ms(6.0)); // overlaps the first
        l.push(0, "allreduce", ms(5.0), ms(9.0)); // 1 ms under gemm
        l.push(0, "allreduce", ms(12.0), ms(14.0)); // fully exposed
        l
    }

    #[test]
    fn coverage_merges_overlaps() {
        let l = log();
        assert_eq!(l.coverage(0, &["gemm"]), SimTime::from_ms(6.0));
        assert_eq!(l.coverage(0, &["allreduce"]), SimTime::from_ms(6.0));
        assert_eq!(
            l.coverage(0, &["gemm", "allreduce"]),
            SimTime::from_ms(11.0)
        );
        assert_eq!(l.coverage(1, &["gemm"]), SimTime::ZERO);
        assert_eq!(l.coverage(0, &["nope"]), SimTime::ZERO);
    }

    #[test]
    fn exposed_subtracts_hidden_portion() {
        let l = log();
        // allreduce spans cover 6 ms total, 1 ms of which is under gemm.
        assert_eq!(
            l.exposed(0, &["allreduce"], &["gemm"]),
            SimTime::from_ms(5.0)
        );
        // gemm is never hidden by allreduce... except the same 1 ms overlap.
        assert_eq!(
            l.exposed(0, &["gemm"], &["allreduce"]),
            SimTime::from_ms(5.0)
        );
    }
}
