//! Spans recorded from the benchmark's own code, around calls into each
//! layer's public API. Nothing inside the program under test changes:
//! engine calls are observed through [`Traced`], a forwarding
//! [`PlfBackend`] handed to `Chain`, `TreeLikelihood` and `PlfService`.
//!
//! Spans are kept in memory per thread (or per engine) and merged into
//! one [`Tracer`] when their [`Recorder`] drops; the run writes them out
//! when it ends.

use plf_phylo::clv::{Clv, TransitionMatrices};
use plf_phylo::kernels::{FusedDown, FusedRoot, FusedScale, PlfBackend};
use plf_phylo::resilience::PlfError;
use std::cell::Cell;
use std::collections::HashMap;
use std::io::Write;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Instant;

/// One timed interval.
#[derive(Debug, Clone)]
pub struct Span {
    /// Unique id (never 0).
    pub id: u64,
    /// Enclosing span on the same thread, or 0.
    pub parent: u64,
    /// Trace id: the client job id for service jobs, else 0.
    pub trace: u64,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Kernel ops carried by an engine call (a fused call carries many).
    pub ops: u64,
    /// Alignment patterns processed by an engine call, summed over ops.
    pub patterns: u64,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

static NEXT_ID: AtomicU64 = AtomicU64::new(1);

thread_local! {
    /// The innermost open span on this thread (0 = none).
    static CURRENT: Cell<u64> = const { Cell::new(0) };
}

/// The time origin every span of the process is measured from, so that
/// spans of different tracers nest and compare.
static EPOCH: OnceLock<Instant> = OnceLock::new();

/// A span sink; a run may keep several, one per engine or phase.
#[derive(Clone)]
pub struct Tracer {
    epoch: Instant,
    sink: Arc<Mutex<Vec<Span>>>,
}

impl Tracer {
    pub fn new() -> Tracer {
        Tracer {
            epoch: *EPOCH.get_or_init(Instant::now),
            sink: Arc::new(Mutex::new(Vec::new())),
        }
    }

    pub fn recorder(&self) -> Recorder {
        Recorder {
            tracer: self.clone(),
            spans: Vec::new(),
        }
    }

    /// Nanoseconds from the time origin to `at`.
    pub fn ns(&self, at: Instant) -> u64 {
        at.saturating_duration_since(self.epoch).as_nanos() as u64
    }

    /// Every span flushed so far, in id order.
    pub fn spans(&self) -> Vec<Span> {
        let mut spans = self.sink.lock().expect("span sink poisoned").clone();
        spans.sort_by_key(|s| s.id);
        spans
    }
}

/// A span buffer owned by one thread or one engine.
pub struct Recorder {
    tracer: Tracer,
    spans: Vec<Span>,
}

impl Recorder {
    /// Time `f` as a span nested in the thread's current span.
    pub fn span<T>(&mut self, name: &'static str, trace: u64, f: impl FnOnce() -> T) -> T {
        self.span_sized(name, trace, 0, 0, f)
    }

    pub fn span_sized<T>(
        &mut self,
        name: &'static str,
        trace: u64,
        ops: u64,
        patterns: u64,
        f: impl FnOnce() -> T,
    ) -> T {
        let id = NEXT_ID.fetch_add(1, Ordering::Relaxed);
        let parent = CURRENT.with(|c| c.replace(id));
        let start = Instant::now();
        let out = f();
        let end = Instant::now();
        CURRENT.with(|c| c.set(parent));
        self.push(id, parent, name, trace, start, end, ops, patterns);
        out
    }

    /// Record an interval measured by the caller (for example a
    /// pipelined job's submit → response, which overlaps other jobs and
    /// so never nests). It gets the thread's current span as parent.
    pub fn record(&mut self, name: &'static str, trace: u64, start: Instant, end: Instant) {
        let id = NEXT_ID.fetch_add(1, Ordering::Relaxed);
        let parent = CURRENT.with(|c| c.get());
        self.push(id, parent, name, trace, start, end, 0, 0);
    }

    #[allow(clippy::too_many_arguments)]
    fn push(
        &mut self,
        id: u64,
        parent: u64,
        name: &'static str,
        trace: u64,
        start: Instant,
        end: Instant,
        ops: u64,
        patterns: u64,
    ) {
        self.spans.push(Span {
            id,
            parent,
            trace,
            name,
            start_ns: self.tracer.ns(start),
            end_ns: self.tracer.ns(end),
            ops,
            patterns,
        });
    }
}

impl Drop for Recorder {
    fn drop(&mut self) {
        if let Ok(mut sink) = self.tracer.sink.lock() {
            sink.append(&mut self.spans);
        }
    }
}

/// Self time of every span: its duration minus its children's.
pub fn self_times(spans: &[Span]) -> HashMap<u64, u64> {
    let mut child_ns: HashMap<u64, u64> = HashMap::new();
    for s in spans.iter().filter(|s| s.parent != 0) {
        *child_ns.entry(s.parent).or_default() += s.dur_ns();
    }
    spans
        .iter()
        .map(|s| {
            let children = child_ns.get(&s.id).copied().unwrap_or(0);
            (s.id, s.dur_ns().saturating_sub(children))
        })
        .collect()
}

/// Write one JSON object per line: a header with the run description,
/// then every span with its self time.
pub fn write_spans(path: &Path, header: &str, spans: &[Span]) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let selfs = self_times(spans);
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    writeln!(out, "{header}")?;
    for s in spans {
        let line = serde_json::json!({
            "id": (s.id),
            "parent": (s.parent),
            "trace": (s.trace),
            "name": (s.name),
            "start_ns": (s.start_ns),
            "end_ns": (s.end_ns),
            "self_ns": (selfs[&s.id]),
            "ops": (s.ops),
            "patterns": (s.patterns)
        });
        writeln!(
            out,
            "{}",
            serde_json::to_string(&line).expect("a JSON value serializes")
        )?;
    }
    out.flush()
}

/// A forwarding engine that records one span per engine call.
///
/// It forwards every method the trait has, including the three
/// `_fused` entry points, `preferred_batch_patterns` and
/// `begin_evaluation`: a wrapper that fell back to the trait's default
/// per-op loops would silently measure a different execution path.
pub struct Traced<B> {
    pub inner: B,
    rec: Recorder,
}

impl<B: PlfBackend> Traced<B> {
    pub fn new(inner: B, tracer: &Tracer) -> Traced<B> {
        Traced {
            inner,
            rec: tracer.recorder(),
        }
    }
}

impl<B: PlfBackend> PlfBackend for Traced<B> {
    fn name(&self) -> String {
        self.inner.name()
    }

    fn cond_like_down(
        &mut self,
        left: &Clv,
        p_left: &TransitionMatrices,
        right: &Clv,
        p_right: &TransitionMatrices,
        out: &mut Clv,
    ) -> Result<(), PlfError> {
        let patterns = out.n_patterns() as u64;
        let inner = &mut self.inner;
        self.rec.span_sized("kernel.down", 0, 1, patterns, || {
            inner.cond_like_down(left, p_left, right, p_right, out)
        })
    }

    fn cond_like_root(
        &mut self,
        a: &Clv,
        p_a: &TransitionMatrices,
        b: &Clv,
        p_b: &TransitionMatrices,
        c: Option<(&Clv, &TransitionMatrices)>,
        out: &mut Clv,
    ) -> Result<(), PlfError> {
        let patterns = out.n_patterns() as u64;
        let inner = &mut self.inner;
        self.rec.span_sized("kernel.root", 0, 1, patterns, || {
            inner.cond_like_root(a, p_a, b, p_b, c, out)
        })
    }

    fn cond_like_scaler(&mut self, clv: &mut Clv, ln_scalers: &mut [f32]) -> Result<(), PlfError> {
        let patterns = clv.n_patterns() as u64;
        let inner = &mut self.inner;
        self.rec.span_sized("kernel.scale", 0, 1, patterns, || {
            inner.cond_like_scaler(clv, ln_scalers)
        })
    }

    fn begin_evaluation(&mut self) {
        self.inner.begin_evaluation();
    }

    fn preferred_batch_patterns(&self, n_rates: usize) -> usize {
        self.inner.preferred_batch_patterns(n_rates)
    }

    fn cond_like_down_fused(&mut self, ops: &mut [FusedDown<'_>]) -> Result<(), PlfError> {
        let patterns = ops.iter().map(|op| op.out.n_patterns() as u64).sum();
        let inner = &mut self.inner;
        self.rec
            .span_sized("kernel.down_fused", 0, ops.len() as u64, patterns, || {
                inner.cond_like_down_fused(ops)
            })
    }

    fn cond_like_root_fused(&mut self, ops: &mut [FusedRoot<'_>]) -> Result<(), PlfError> {
        let patterns = ops.iter().map(|op| op.out.n_patterns() as u64).sum();
        let inner = &mut self.inner;
        self.rec
            .span_sized("kernel.root_fused", 0, ops.len() as u64, patterns, || {
                inner.cond_like_root_fused(ops)
            })
    }

    fn cond_like_scaler_fused(&mut self, ops: &mut [FusedScale<'_>]) -> Result<(), PlfError> {
        let patterns = ops.iter().map(|op| op.clv.n_patterns() as u64).sum();
        let inner = &mut self.inner;
        self.rec
            .span_sized("kernel.scale_fused", 0, ops.len() as u64, patterns, || {
                inner.cond_like_scaler_fused(ops)
            })
    }
}

/// Kernel-call totals over a set of spans.
#[derive(Debug, Default, Clone, Copy)]
pub struct KernelTotals {
    pub down_calls: u64,
    pub root_calls: u64,
    pub scale_calls: u64,
    pub fused_calls: u64,
    pub fused_ops: u64,
    pub patterns: u64,
    pub busy_ns: u64,
}

impl KernelTotals {
    pub fn of(spans: &[Span]) -> KernelTotals {
        let mut t = KernelTotals::default();
        for s in spans.iter().filter(|s| s.name.starts_with("kernel.")) {
            match s.name.trim_end_matches("_fused") {
                "kernel.down" => t.down_calls += 1,
                "kernel.root" => t.root_calls += 1,
                _ => t.scale_calls += 1,
            }
            if s.name.ends_with("_fused") {
                t.fused_calls += 1;
                t.fused_ops += s.ops;
            }
            t.patterns += s.patterns;
            t.busy_ns += s.dur_ns();
        }
        t
    }

    pub fn calls(&self) -> u64 {
        self.down_calls + self.root_calls + self.scale_calls
    }
}
