//! `device_sim`: repeated full `TreeLikelihood` evaluations of 50 taxa ×
//! 20K patterns on the simulated `qs20` Cell and `8800gt` GPU engines.
//!
//! One operation is one evaluation on the Cell followed by one on the
//! GPU. Host milliseconds and modeled device milliseconds are separate
//! metrics; every share is computed within the modeled clock alone.

use crate::report::{
    kernel_layers, ms, ratio, setup_metrics, timed, EndToEnd, Op, Outcome, SetupTimes, Window,
};
use crate::trace::{KernelTotals, Traced, Tracer};
use crate::Ctx;
use plf_cellbe::CellBackend;
use plf_gpu::GpuBackend;
use plf_phylo::kernels::{PlfBackend, ScalarBackend};
use plf_phylo::likelihood::TreeLikelihood;
use plf_phylo::metrics::PlfCounters;
use plf_seqgen::DatasetSpec;
use std::time::{Duration, Instant};

/// Evaluation pairs in each phase of a traced run (a fixed count, so
/// the modeled figures and kernel counts repeat exactly for a seed).
fn traced_pairs(ctx: &Ctx) -> usize {
    if ctx.tiny {
        2
    } else {
        40
    }
}

fn eval(
    lik: &mut TreeLikelihood,
    tree: &plf_phylo::tree::Tree,
    engine: &mut dyn PlfBackend,
    lnls: &mut Vec<u64>,
    failed: &mut u64,
) {
    match lik.log_likelihood(tree, engine) {
        Ok(lnl) => lnls.push(lnl.to_bits()),
        Err(_) => *failed += 1,
    }
}

pub fn run(ctx: &Ctx) -> Result<Outcome, String> {
    let spec = if ctx.tiny {
        DatasetSpec::new(8, 300)
    } else {
        DatasetSpec::new(50, 20_000)
    };
    let ds = plf_seqgen::generate(spec, ctx.seed);
    let (tree, data) = (ds.tree, ds.data);
    let model = plf_seqgen::default_model();
    let mut out = Outcome::default();
    let tracer = Tracer::new();
    let mut rec = ctx.trace.then(|| tracer.recorder());

    let mut reps = Vec::new();
    let mut built = None;
    for _ in 0..ctx.setup_reps() {
        drop(built.take()); // release the previous workspace first
        let ((cell, gpu), engine_s) = timed(&mut rec, "setup.engine", || {
            (CellBackend::qs20(), GpuBackend::gt8800())
        });
        let (lik, workspace_s) = timed(&mut rec, "setup.workspace", || {
            TreeLikelihood::new(&tree, &data, model.clone())
        });
        reps.push(SetupTimes {
            engine: engine_s,
            workspace: workspace_s,
            ..SetupTimes::default()
        });
        built = Some((
            cell,
            gpu,
            lik.map_err(|e| format!("TreeLikelihood::new: {e}"))?,
        ));
    }
    let setup_s = setup_metrics(&reps, &mut out.layers);
    let (mut cell, mut gpu, mut lik) = built.expect("at least one set-up");
    out.info(
        "engines",
        format!("{} (16 SPEs), {}", cell.name(), gpu.name()),
    );

    // Warm-up: the first call configures the SPEs and sizes buffers.
    let mut lnls = Vec::new();
    let mut failed = 0;
    eval(&mut lik, &tree, &mut cell, &mut lnls, &mut failed);
    eval(&mut lik, &tree, &mut gpu, &mut lnls, &mut failed);
    cell.reset_stats();
    gpu.reset_stats();

    if !ctx.trace {
        let start = Instant::now();
        let end = start + Duration::from_secs_f64(ctx.seconds);
        let mut ops = Vec::new();
        let mut last = start;
        while last < end {
            let t0 = Instant::now();
            eval(&mut lik, &tree, &mut cell, &mut lnls, &mut failed);
            eval(&mut lik, &tree, &mut gpu, &mut lnls, &mut failed);
            last = Instant::now();
            ops.push(Op {
                at_s: (last - start).as_secs_f64(),
                latency_ms: ms(last - t0),
            });
        }
        out.attempted = ops.len() as u64;
        out.end_to_end = Some(EndToEnd {
            setup_s,
            window: Window {
                seconds: ctx.seconds,
                ops,
            },
        });
    } else {
        let pairs = traced_pairs(ctx);
        out.info("pairs", pairs);
        let t0 = Instant::now();
        for _ in 0..pairs {
            eval(&mut lik, &tree, &mut cell, &mut lnls, &mut failed);
            eval(&mut lik, &tree, &mut gpu, &mut lnls, &mut failed);
        }
        let untraced_s = t0.elapsed().as_secs_f64();

        // Traced phase: fresh engines with the program's own counters
        // attached, warmed up before the wrapper starts recording.
        let cell_counters = PlfCounters::new();
        let mut cell_eng = CellBackend::qs20().with_metrics(cell_counters.clone());
        let mut gpu_eng = GpuBackend::gt8800().with_metrics(PlfCounters::new());
        eval(&mut lik, &tree, &mut cell_eng, &mut lnls, &mut failed);
        eval(&mut lik, &tree, &mut gpu_eng, &mut lnls, &mut failed);
        cell_eng.reset_stats();
        gpu_eng.reset_stats();
        cell_counters.reset();
        let (cell_tracer, gpu_tracer) = (Tracer::new(), Tracer::new());
        let mut cell_t = Traced::new(cell_eng, &cell_tracer);
        let mut gpu_t = Traced::new(gpu_eng, &gpu_tracer);
        let mut r = tracer.recorder();
        let t0 = Instant::now();
        for _ in 0..pairs {
            r.span("likelihood.cell", 0, || {
                eval(&mut lik, &tree, &mut cell_t, &mut lnls, &mut failed)
            });
            r.span("likelihood.gpu", 0, || {
                eval(&mut lik, &tree, &mut gpu_t, &mut lnls, &mut failed)
            });
        }
        let traced_s = t0.elapsed().as_secs_f64();
        drop(r);
        let (cell_stats, gpu_stats) = (cell_t.inner.stats(), gpu_t.inner.stats());
        let transfer = cell_counters.snapshot().transfer;
        drop((cell_t, gpu_t));
        out.attempted = 2 * pairs as u64;

        let (cell_spans, gpu_spans) = (cell_tracer.spans(), gpu_tracer.spans());
        let (kc, kg) = (KernelTotals::of(&cell_spans), KernelTotals::of(&gpu_spans));
        let mut both = cell_spans.clone();
        both.extend(gpu_spans.iter().cloned());
        let n = pairs as f64;
        let l = &mut out.layers;
        kernel_layers(&KernelTotals::of(&both), l);
        l.set(
            "cellbe.host_ms_per_call",
            ratio(kc.busy_ns as f64 / 1e6, kc.calls() as f64),
        );
        l.set(
            "gpu.host_ms_per_call",
            ratio(kg.busy_ns as f64 / 1e6, kg.calls() as f64),
        );
        let evals = tracer.spans();
        let host_ms = |name: &str| {
            let v: Vec<f64> = evals
                .iter()
                .filter(|s| s.name == name)
                .map(|s| s.dur_ns() as f64 / 1e6)
                .collect();
            crate::report::median(&v)
        };
        l.set("cellbe.host_ms_per_eval", host_ms("likelihood.cell"));
        l.set("gpu.host_ms_per_eval", host_ms("likelihood.gpu"));
        l.set(
            "cellbe.modeled_ms_per_eval",
            cell_stats.modeled_seconds * 1e3 / n,
        );
        l.set(
            "cellbe.dma_bytes_per_eval",
            transfer.total_bytes() as f64 / n,
        );
        l.set("cellbe.overlap_ratio", transfer.overlap_ratio());
        l.set(
            "gpu.modeled_ms_per_eval",
            gpu_stats.total_seconds() * 1e3 / n,
        );
        l.set("gpu.launches_per_eval", gpu_stats.launches as f64 / n);
        l.set(
            "gpu.pcie_share_modeled",
            ratio(gpu_stats.pcie_seconds, gpu_stats.total_seconds()),
        );
        l.set("trace.overhead_frac", traced_s / untraced_s - 1.0);
        drop(rec);
        out.spans = tracer.spans();
        out.spans.extend(cell_spans);
        out.spans.extend(gpu_spans);
    }
    out.failed = failed;

    // Every evaluation must carry the scalar reference's exact bits.
    let reference = lik
        .log_likelihood(&tree, &mut ScalarBackend)
        .map_err(|e| format!("scalar reference: {e}"))?;
    let mismatches = lnls.iter().filter(|&&b| b != reference.to_bits()).count();
    out.check(mismatches == 0 && failed == 0, || {
        format!(
            "{mismatches} of {} device evaluations differ from scalar lnL {reference}; {failed} failed",
            lnls.len()
        )
    });
    Ok(out)
}
