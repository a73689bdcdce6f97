//! `mcmc_chain`: seeded MrBayes-style chains (incremental flip-buffer
//! updates, GTR+Γ4) over 20 taxa × 5K patterns on the `rayon` engine
//! with `nproc` threads — the paper's application end to end.
//!
//! One operation is one generation (`Chain::step`). A run steps one
//! chain per sub-window, each on its own seeded alignment and starting
//! tree: the cost of a partial update follows the tree's shape, so the
//! median over sub-windows is then a median over eight data sets rather
//! than the luck of one tree.

use crate::report::{
    kernel_layers, ms, ratio, setup_metrics, timed, EndToEnd, Op, Outcome, SetupTimes, Window,
    SUB_WINDOWS,
};
use crate::trace::{self_times, KernelTotals, Traced, Tracer};
use crate::Ctx;
use plf_mcmc::{Chain, ChainOptions, Priors, RunAccum};
use plf_multicore::RayonBackend;
use plf_phylo::alignment::PatternAlignment;
use plf_phylo::kernels::{PlfBackend, ScalarBackend, Simd4Backend};
use plf_phylo::likelihood::TreeLikelihood;
use plf_phylo::model::{GtrParams, SiteModel};
use plf_phylo::tree::Tree;
use plf_seqgen::DatasetSpec;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::time::{Duration, Instant};

/// Salt separating the starting-tree stream from the data stream.
const START_TREE_SALT: u64 = 0x7265_7065;

/// Largest relative gap allowed between a chain's incremental lnL and a
/// from-scratch scalar evaluation of its final state. Both use the same
/// `f32` kernels, but incremental updates reuse CLVs and log scalers
/// computed under earlier states and sum them in another order, so the
/// results differ in the last bits of single precision (a few parts in
/// 10⁹ measured); 10⁻⁷ is about one `f32` ulp of the lnL.
const FINAL_LNL_REL_TOL: f64 = 1e-7;

/// Generations per chain in each phase of a traced run. A fixed count,
/// so that every count the traced run reports repeats exactly for a
/// seed.
fn traced_generations(ctx: &Ctx) -> usize {
    if ctx.tiny {
        5
    } else {
        200
    }
}

struct Inputs {
    seed: u64,
    data: PatternAlignment,
    tree: Tree,
}

/// The alignment and starting tree of chain `k` of the run.
fn inputs(ctx: &Ctx, k: usize) -> Inputs {
    let spec = if ctx.tiny {
        DatasetSpec::new(8, 200)
    } else {
        DatasetSpec::new(20, 5_000)
    };
    let seed = ctx
        .seed
        .wrapping_mul(SUB_WINDOWS as u64)
        .wrapping_add(k as u64);
    let ds = plf_seqgen::generate(spec, seed);
    let mut rng = StdRng::seed_from_u64(seed ^ START_TREE_SALT);
    let tree = plf_seqgen::random_tree_for_taxa(ds.data.taxa(), 0.1, &mut rng);
    Inputs {
        seed,
        data: ds.data,
        tree,
    }
}

/// A chain built and initialized on `engine`.
fn new_chain(inp: &Inputs, engine: &mut dyn PlfBackend) -> Result<Chain, String> {
    let options = ChainOptions {
        generations: usize::MAX,
        seed: inp.seed,
        sample_every: 0,
        incremental: true,
        ..ChainOptions::default()
    };
    let mut chain = Chain::new(
        inp.tree.clone(),
        &inp.data,
        GtrParams::jc69(),
        0.5,
        Priors::default(),
        options,
    )
    .map_err(|e| format!("Chain::new: {e}"))?;
    chain
        .initialize(engine)
        .map_err(|e| format!("Chain::initialize: {e}"))?;
    Ok(chain)
}

fn rayon(ctx: &Ctx) -> Result<RayonBackend, String> {
    RayonBackend::new(ctx.nproc).map_err(|e| format!("RayonBackend::new: {e}"))
}

/// Re-evaluate a chain's final state from scratch on `scalar`.
fn check_final_state(inp: &Inputs, chain: &Chain, out: &mut Outcome) -> Result<(), String> {
    let state = chain.state();
    let model = SiteModel::new(state.params.clone(), state.shape, 4)
        .and_then(|m| m.with_pinvar(state.pinvar))
        .map_err(|e| format!("final model: {e}"))?;
    let fresh = TreeLikelihood::new(&state.tree, &inp.data, model)
        .and_then(|mut eval| eval.log_likelihood(&state.tree, &mut ScalarBackend))
        .map_err(|e| format!("scalar re-evaluation: {e}"))?;
    let chained = state.ln_likelihood;
    out.check(
        (fresh - chained).abs() <= FINAL_LNL_REL_TOL * chained.abs(),
        || {
            format!(
                "chain {}: final lnL {chained} differs from scalar re-evaluation {fresh}",
                inp.seed
            )
        },
    );
    Ok(())
}

/// Step `chain` `gens` times on `engine`, as `mcmc.step` spans when a
/// tracer is given; returns the seconds taken.
fn steps(
    chain: &mut Chain,
    engine: &mut dyn PlfBackend,
    gens: usize,
    tracer: Option<&Tracer>,
    out: &mut Outcome,
) -> f64 {
    let mut rec = tracer.map(Tracer::recorder);
    let t0 = Instant::now();
    for _ in 0..gens {
        let result = match rec.as_mut() {
            Some(rec) => rec.span("mcmc.step", 0, || chain.step(&mut *engine)),
            None => chain.step(&mut *engine),
        };
        out.attempted += 1;
        if result.is_err() {
            out.failed += 1;
        }
    }
    t0.elapsed().as_secs_f64()
}

fn proposals(a: &RunAccum) -> (u64, u64) {
    a.proposals.iter().fold((0, 0), |(p, acc), (_, s)| {
        (p + s.proposed, acc + s.accepted)
    })
}

pub fn run(ctx: &Ctx) -> Result<Outcome, String> {
    let all: Vec<Inputs> = (0..SUB_WINDOWS).map(|k| inputs(ctx, k)).collect();
    let mut out = Outcome::default();
    let tracer = Tracer::new();
    let mut rec = ctx.trace.then(|| tracer.recorder());

    let mut reps = Vec::new();
    let mut built = None;
    for _ in 0..ctx.setup_reps() {
        let (engine, engine_s) = timed(&mut rec, "setup.engine", || rayon(ctx));
        let mut engine = engine?;
        let (chain, workspace_s) = timed(&mut rec, "setup.workspace", || {
            new_chain(&all[0], &mut engine)
        });
        reps.push(SetupTimes {
            engine: engine_s,
            workspace: workspace_s,
            ..SetupTimes::default()
        });
        built = Some((engine, chain?));
    }
    let setup_s = setup_metrics(&reps, &mut out.layers);
    let (mut engine, first_chain) = built.expect("at least one set-up");
    out.info(
        "engine",
        format!("{} x{} threads", engine.name(), engine.n_threads()),
    );
    out.info("chains", SUB_WINDOWS);

    if !ctx.trace {
        // Chain k owns sub-window k: it steps for a slice of the window,
        // timed on its own; building the next chain is not timed.
        let slice = ctx.seconds / SUB_WINDOWS as f64;
        let mut ops = Vec::new();
        let mut first_chain = Some(first_chain);
        for (k, inp) in all.iter().enumerate() {
            let mut chain = match first_chain.take() {
                Some(chain) => chain,
                None => new_chain(inp, &mut engine)?,
            };
            let start = Instant::now();
            let end = start + Duration::from_secs_f64(slice);
            let mut last = start;
            while last < end {
                let t0 = Instant::now();
                out.attempted += 1;
                if chain.step(&mut engine).is_err() {
                    out.failed += 1;
                }
                last = Instant::now();
                ops.push(Op {
                    at_s: k as f64 * slice + (last - start).as_secs_f64(),
                    latency_ms: ms(last - t0),
                });
            }
            check_final_state(inp, &chain, &mut out)?;
        }
        out.end_to_end = Some(EndToEnd {
            setup_s,
            window: Window {
                seconds: ctx.seconds,
                ops,
            },
        });
        return Ok(out);
    }

    // Traced run: every chain three times for a fixed number of
    // generations — untraced on rayon, traced on rayon, traced on
    // single-threaded simd — from the same seed and start.
    drop(first_chain);
    let gens = traced_generations(ctx);
    out.info("generations_per_chain", gens);
    let (rayon_tracer, simd_tracer) = (Tracer::new(), Tracer::new());
    let mut traced_rayon = Traced::new(rayon(ctx)?, &rayon_tracer);
    let mut traced_simd = Traced::new(Simd4Backend::col_wise(), &simd_tracer);
    let (mut untraced_s, mut traced_s) = (0.0, 0.0);
    let (mut calls, mut proposed, mut accepted) = (0, 0, 0);
    for inp in &all {
        let mut chain_u = new_chain(inp, &mut engine)?;
        untraced_s += steps(&mut chain_u, &mut engine, gens, None, &mut out);

        let mut chain_r = new_chain(inp, &mut engine)?;
        let before = chain_r.accum().clone();
        traced_s += steps(
            &mut chain_r,
            &mut traced_rayon,
            gens,
            Some(&rayon_tracer),
            &mut out,
        );
        let after = chain_r.accum().clone();
        calls += after.plf_calls - before.plf_calls;
        let ((p0, a0), (p1, a1)) = (proposals(&before), proposals(&after));
        proposed += p1 - p0;
        accepted += a1 - a0;

        let mut chain_s = new_chain(inp, &mut Simd4Backend::col_wise())?;
        steps(
            &mut chain_s,
            &mut traced_simd,
            gens,
            Some(&simd_tracer),
            &mut out,
        );

        let (lnl_u, lnl_r, lnl_s) = (
            chain_u.state().ln_likelihood,
            chain_r.state().ln_likelihood,
            chain_s.state().ln_likelihood,
        );
        out.check(lnl_r.to_bits() == lnl_s.to_bits(), || {
            format!(
                "chain {}: simd ended at lnL {lnl_s}, rayon at {lnl_r}",
                inp.seed
            )
        });
        out.check(lnl_r.to_bits() == lnl_u.to_bits(), || {
            format!(
                "chain {}: traced rayon ended at lnL {lnl_r}, untraced at {lnl_u}",
                inp.seed
            )
        });
        check_final_state(inp, &chain_r, &mut out)?;
    }
    drop((traced_rayon, traced_simd));

    let spans_r = rayon_tracer.spans();
    let spans_s = simd_tracer.spans();
    let k = KernelTotals::of(&spans_r);
    let ks = KernelTotals::of(&spans_s);
    let selfs = self_times(&spans_r);
    let step_self_ns: u64 = spans_r
        .iter()
        .filter(|s| s.name == "mcmc.step")
        .map(|s| selfs[&s.id])
        .sum();
    let g = (gens * all.len()) as f64;
    let l = &mut out.layers;
    l.set("mcmc.remaining_ms_per_gen", step_self_ns as f64 / 1e6 / g);
    l.set(
        "mcmc.acceptance_ratio",
        ratio(accepted as f64, proposed as f64),
    );
    l.set("incremental.kernel_calls_per_gen", calls as f64 / g);
    kernel_layers(&k, l);
    l.set(
        "multicore.us_per_call",
        ratio(k.busy_ns as f64 / 1e3, k.calls() as f64),
    );
    l.set(
        "multicore.speedup_vs_simd",
        ratio(ks.busy_ns as f64, k.busy_ns as f64),
    );
    l.set("trace.overhead_frac", traced_s / untraced_s - 1.0);

    drop(rec);
    out.spans = tracer.spans();
    out.spans.extend(spans_r);
    out.spans.extend(spans_s);
    Ok(out)
}
