//! Metric names, the run's outcome, statistics helpers and the result
//! line the benchmark prints last.

use crate::trace::{KernelTotals, Recorder, Span};
use serde_json::{json, Value};
use std::collections::BTreeMap;
use std::time::{Duration, Instant};

/// End-to-end metrics, printed by every untraced run: (name, unit).
/// Each is measured on every workload; what one operation is depends on
/// the workload (see `perfbench/README.md`).
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("ops_per_s", "1/s"),
    ("latency_p50_ms", "ms"),
    ("latency_p99_ms", "ms"),
];

/// Per-layer metrics, printed by every traced run: (name, unit). A
/// layer the workload does not run reads 0.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("mcmc.remaining_ms_per_gen", "ms"),
    ("mcmc.acceptance_ratio", "ratio"),
    ("incremental.kernel_calls_per_gen", "count"),
    ("kernels.down.calls", "count"),
    ("kernels.root.calls", "count"),
    ("kernels.scale.calls", "count"),
    ("kernels.patterns", "count"),
    ("kernels.busy_ms", "ms"),
    ("kernels.ns_per_pattern", "ns"),
    ("multicore.us_per_call", "us"),
    ("multicore.speedup_vs_simd", "ratio"),
    ("fused.ops_per_call", "count"),
    ("fused.calls_per_job", "count"),
    ("clv_cache.hit_ratio", "ratio"),
    ("clv_cache.evictions", "count"),
    ("plfd.wait_ms_mean", "ms"),
    ("plfd.service_ms_mean", "ms"),
    ("plfd.jobs_per_batch", "count"),
    ("plfd.batch_occupancy", "ratio"),
    ("plfd.queue_depth_peak", "count"),
    ("plfd.rejected", "count"),
    ("plfd.shed", "count"),
    ("plfd.sol_ratio", "ratio"),
    ("journal.fsyncs", "count"),
    ("journal.appends_per_fsync", "count"),
    ("net.overhead_ms_mean", "ms"),
    ("net.bytes_per_job", "B"),
    ("net.frames_per_job", "count"),
    ("net.protocol_errors", "count"),
    ("net.rejects_per_job", "count"),
    ("loadgen.late_ms_p99", "ms"),
    ("cellbe.host_ms_per_call", "ms"),
    ("cellbe.host_ms_per_eval", "ms"),
    ("cellbe.modeled_ms_per_eval", "ms"),
    ("cellbe.dma_bytes_per_eval", "B"),
    ("cellbe.overlap_ratio", "ratio"),
    ("gpu.host_ms_per_call", "ms"),
    ("gpu.host_ms_per_eval", "ms"),
    ("gpu.modeled_ms_per_eval", "ms"),
    ("gpu.launches_per_eval", "count"),
    ("gpu.pcie_share_modeled", "ratio"),
    ("setup.engine_s", "s"),
    ("setup.service_s", "s"),
    ("setup.workspace_s", "s"),
    ("trace.overhead_frac", "ratio"),
];

/// One measured operation: when it finished, in seconds after the
/// window opened, and how long it took.
#[derive(Debug, Clone, Copy)]
pub struct Op {
    pub at_s: f64,
    pub latency_ms: f64,
}

/// Equal slices each measured window is cut into.
pub const SUB_WINDOWS: usize = 8;

/// The operations of one measured window.
pub struct Window {
    pub seconds: f64,
    pub ops: Vec<Op>,
}

/// Throughput and latency of a window.
#[derive(Debug, Clone, Copy)]
pub struct WindowStats {
    pub ops_per_s: f64,
    pub p50_ms: f64,
    pub p99_ms: f64,
    pub samples: usize,
}

impl Window {
    /// The median latency is taken by nearest rank over every operation
    /// of the window. The rate and the p99 are medians over
    /// [`SUB_WINDOWS`] equal slices of the window, so that a stall from
    /// another process that hits one or two slices barely moves them: a
    /// slice's rate is its operations over the time between its first
    /// and last completion, and its p99 is taken by nearest rank (with
    /// fewer than 100 operations in a slice, that is the slice's
    /// slowest). Operations finishing after the window are left out.
    pub fn stats(&self) -> WindowStats {
        let width = self.seconds / SUB_WINDOWS as f64;
        let mut slices: Vec<Vec<Op>> = vec![Vec::new(); SUB_WINDOWS];
        let mut latencies = Vec::new();
        for op in self.ops.iter().filter(|op| op.at_s <= self.seconds) {
            slices[((op.at_s / width) as usize).min(SUB_WINDOWS - 1)].push(*op);
            latencies.push(op.latency_ms);
        }
        let med = |f: &dyn Fn(&[Op]) -> f64| {
            median(
                &slices
                    .iter()
                    .filter(|s| s.len() >= 2)
                    .map(|s| f(s))
                    .collect::<Vec<_>>(),
            )
        };
        WindowStats {
            ops_per_s: med(&|s| {
                let first = s.iter().map(|op| op.at_s).fold(f64::INFINITY, f64::min);
                let last = s.iter().map(|op| op.at_s).fold(0.0, f64::max);
                ratio((s.len() - 1) as f64, last - first)
            }),
            p50_ms: percentile(&latencies, 0.50),
            p99_ms: med(&|s| {
                let slice: Vec<f64> = s.iter().map(|op| op.latency_ms).collect();
                percentile(&slice, 0.99)
            }),
            samples: latencies.len(),
        }
    }
}

/// End-to-end figures of an untraced run (peak RSS is read at exit).
pub struct EndToEnd {
    pub setup_s: f64,
    pub window: Window,
}

/// Per-layer figures of a traced run, keyed by a [`PER_LAYER`] name.
#[derive(Default)]
pub struct Layers(BTreeMap<&'static str, f64>);

impl Layers {
    pub fn set(&mut self, name: &'static str, value: f64) {
        assert!(
            PER_LAYER.iter().any(|(n, _)| *n == name),
            "{name} is not a per-layer metric"
        );
        self.0.insert(name, value);
    }

    pub fn get(&self, name: &str) -> f64 {
        self.0.get(name).copied().unwrap_or(0.0)
    }
}

/// What one workload run produced.
#[derive(Default)]
pub struct Outcome {
    /// Operations attempted and failed inside the measured window(s).
    pub attempted: u64,
    pub failed: u64,
    /// Correctness checks that did not hold.
    pub check_failures: Vec<String>,
    pub end_to_end: Option<EndToEnd>,
    pub layers: Layers,
    /// Extra run facts for the `run` line, as (key, JSON value).
    pub info: Vec<(&'static str, Value)>,
    pub spans: Vec<Span>,
}

impl Outcome {
    pub fn info(&mut self, key: &'static str, value: impl serde::Serialize) {
        self.info.push((key, json!(value)));
    }

    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.check_failures.push(what());
        }
    }
}

/// Timings of one set-up, in seconds.
#[derive(Debug, Default, Clone, Copy)]
pub struct SetupTimes {
    pub engine: f64,
    pub service: f64,
    pub workspace: f64,
}

impl SetupTimes {
    pub fn total(&self) -> f64 {
        self.engine + self.service + self.workspace
    }
}

/// The `kernels.*` figures of one set of engine-call spans.
pub fn kernel_layers(k: &KernelTotals, l: &mut Layers) {
    l.set("kernels.down.calls", k.down_calls as f64);
    l.set("kernels.root.calls", k.root_calls as f64);
    l.set("kernels.scale.calls", k.scale_calls as f64);
    l.set("kernels.patterns", k.patterns as f64);
    l.set("kernels.busy_ms", k.busy_ns as f64 / 1e6);
    l.set(
        "kernels.ns_per_pattern",
        ratio(k.busy_ns as f64, k.patterns as f64),
    );
}

/// Record the set-up figures of several set-ups: the end-to-end
/// `setup_s` is the median total, each `setup.*` the median part.
pub fn setup_metrics(reps: &[SetupTimes], layers: &mut Layers) -> f64 {
    let med = |f: fn(&SetupTimes) -> f64| median(&reps.iter().map(f).collect::<Vec<_>>());
    layers.set("setup.engine_s", med(|s| s.engine));
    layers.set("setup.service_s", med(|s| s.service));
    layers.set("setup.workspace_s", med(|s| s.workspace));
    med(SetupTimes::total)
}

/// Run `f`, as a span when a recorder is given; returns its seconds.
pub fn timed<T>(rec: &mut Option<Recorder>, name: &'static str, f: impl FnOnce() -> T) -> (T, f64) {
    let t0 = Instant::now();
    let out = match rec {
        Some(r) => r.span(name, 0, f),
        None => f(),
    };
    (out, t0.elapsed().as_secs_f64())
}

pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// `a / b`, or 0 when `b` is 0.
pub fn ratio(a: f64, b: f64) -> f64 {
    if b == 0.0 {
        0.0
    } else {
        a / b
    }
}

pub fn mean(v: &[f64]) -> f64 {
    ratio(v.iter().sum(), v.len() as f64)
}

pub fn median(v: &[f64]) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let n = s.len();
    if n % 2 == 1 {
        s[n / 2]
    } else {
        (s[n / 2 - 1] + s[n / 2]) / 2.0
    }
}

/// Nearest-rank percentile, `p` in (0, 1].
pub fn percentile(v: &[f64], p: f64) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let rank = (p * s.len() as f64).ceil() as usize;
    s[rank.clamp(1, s.len()) - 1]
}

/// Peak resident set of this process, from `/proc/self/status`.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// A JSON object with its keys in the given order.
pub fn object<K: Into<String>>(fields: impl IntoIterator<Item = (K, Value)>) -> Value {
    Value::Object(fields.into_iter().map(|(k, v)| (k.into(), v)).collect())
}

/// The result line: exactly `correct`, `attempted`, `failed`, `metrics`.
pub fn result_line(outcome: &Outcome, trace: bool) -> String {
    let metrics: Vec<(&str, f64, &str)> = if trace {
        PER_LAYER
            .iter()
            .map(|&(name, unit)| (name, outcome.layers.get(name), unit))
            .collect()
    } else {
        let e2e = outcome
            .end_to_end
            .as_ref()
            .expect("an untraced run measures the end-to-end metrics");
        let w = e2e.window.stats();
        let values = [e2e.setup_s, peak_rss_mb(), w.ops_per_s, w.p50_ms, w.p99_ms];
        END_TO_END
            .iter()
            .zip(values)
            .map(|(&(name, unit), value)| (name, value, unit))
            .collect()
    };
    let metrics = object(metrics.into_iter().map(|(name, value, unit)| {
        assert!(value.is_finite(), "metric {name} = {value} is not finite");
        (name, json!({"value": value, "unit": unit}))
    }));
    let line = json!({
        "correct": (outcome.check_failures.is_empty()),
        "attempted": (outcome.attempted),
        "failed": (outcome.failed),
        "metrics": metrics
    });
    serde_json::to_string(&line).expect("a JSON value serializes")
}
