//! Cross-backend agreement: every execution engine — host scalar, host
//! SIMD, rayon multicore, simulated Cell/BE, simulated GPU — must
//! compute the same Phylogenetic Likelihood Function.
//!
//! Canonical-order backends (scalar, colwise SIMD, rayon, Cell colwise,
//! GPU entry-parallel) must agree *bitwise*; the row-wise/reduction
//! variants only reorder float additions and must agree to tolerance.

use plf_repro::prelude::*;
use plf_repro::{all_backends, evaluate_on_all_backends, seqgen};
use proptest::prelude::*;

fn check_agreement(taxa: usize, patterns: usize, seed: u64, shape: f64) {
    let ds = seqgen::generate(DatasetSpec::new(taxa, patterns), seed);
    let model = SiteModel::gtr_gamma4(
        GtrParams::gtr([1.2, 3.9, 0.9, 1.1, 4.5, 1.0], [0.3, 0.21, 0.24, 0.25]),
        shape,
    )
    .unwrap();
    let results = evaluate_on_all_backends(&ds.tree, &ds.data, &model).unwrap();
    let reference = results[0].1;
    assert!(reference.is_finite() && reference < 0.0);
    for (name, lnl) in &results {
        if name.contains("rowwise") || name.contains("reduction") {
            let tol = reference.abs() * 1e-6 + 1e-3;
            assert!((lnl - reference).abs() < tol, "{name}: {lnl} vs {reference}");
        } else {
            assert_eq!(*lnl, reference, "{name} must be bitwise identical");
        }
    }
}

#[test]
fn agreement_small() {
    check_agreement(6, 50, 1, 0.5);
}

#[test]
fn agreement_medium() {
    check_agreement(16, 300, 2, 0.8);
}

#[test]
fn agreement_many_taxa() {
    check_agreement(40, 120, 3, 0.3);
}

/// The same tree with every child list reversed, re-parsed so its
/// leaves sit at other node ids.
fn renumbered(tree: &Tree) -> Tree {
    let mut flipped = tree.clone();
    for id in tree.node_ids() {
        flipped.node_mut(id).children.reverse();
    }
    Tree::from_newick(&flipped.to_newick()).unwrap()
}

#[test]
fn rebind_matches_a_fresh_workspace_on_every_backend() {
    // One workspace, rebound in turn onto the same tree with its leaves
    // at other node ids, a fresh topology and a one-branch proposal
    // off it, must give the bits of a workspace built for each tree.
    let ds = seqgen::generate(DatasetSpec::new(12, 300), 7);
    let model = SiteModel::gtr_gamma4(GtrParams::hky85(2.5, [0.3, 0.2, 0.2, 0.3]), 0.6).unwrap();
    let moved = renumbered(&ds.tree);
    let leaf_names = |t: &Tree| -> Vec<Option<String>> {
        t.leaves()
            .iter()
            .map(|&id| t.node(id).name.clone())
            .collect()
    };
    assert_ne!(leaf_names(&moved), leaf_names(&ds.tree));
    let fresh = seqgen::generate(DatasetSpec::new(12, 8), 8).tree;
    let mut proposal = fresh.clone();
    let branch = proposal.branches()[3];
    proposal.node_mut(branch).branch *= 1.3;
    for mut backend in all_backends().unwrap() {
        let mut eval = TreeLikelihood::new(&ds.tree, &ds.data, model.clone()).unwrap();
        eval.log_likelihood(&ds.tree, backend.as_mut()).unwrap();
        for tree in [&moved, &fresh, &proposal, &ds.tree] {
            eval.rebind(tree, model.clone()).unwrap();
            let got = eval.log_likelihood(tree, backend.as_mut()).unwrap();
            let mut new = TreeLikelihood::new(tree, &ds.data, model.clone()).unwrap();
            let want = new.log_likelihood(tree, backend.as_mut()).unwrap();
            assert_eq!(got.to_bits(), want.to_bits(), "{}", backend.name());
        }
    }
}

#[test]
fn agreement_after_mcmc_moves() {
    // Run a short chain on each backend; fixed seeds must give the
    // exact same trajectory wherever the canonical kernels run.
    use plf_repro::mcmc::{Chain, ChainOptions, Priors};
    let ds = seqgen::generate(DatasetSpec::new(8, 80), 5);
    let run = |backend: &mut dyn plf_repro::phylo::kernels::PlfBackend| {
        let mut chain = Chain::new(
            ds.tree.clone(),
            &ds.data,
            GtrParams::jc69(),
            0.6,
            Priors::default(),
            ChainOptions {
                generations: 120,
                seed: 99,
                sample_every: 0,
                ..ChainOptions::default()
            },
        )
        .unwrap();
        chain.run(backend).unwrap().final_ln_likelihood
    };
    let mut scalar = plf_repro::phylo::kernels::ScalarBackend;
    let expect = run(&mut scalar);
    let mut cell = plf_repro::cellbe::CellBackend::ps3();
    assert_eq!(run(&mut cell), expect, "cell trajectory diverged");
    let mut gpu = plf_repro::gpu::GpuBackend::gtx285();
    assert_eq!(run(&mut gpu), expect, "gpu trajectory diverged");
    let mut rayon = plf_repro::multicore::RayonBackend::new(3).unwrap();
    assert_eq!(run(&mut rayon), expect, "rayon trajectory diverged");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn prop_backends_agree_on_random_inputs(
        taxa in 4usize..12,
        patterns in 10usize..120,
        seed in 0u64..1000,
        shape in 0.2f64..5.0,
    ) {
        check_agreement(taxa, patterns, seed, shape);
    }

    #[test]
    fn prop_likelihood_improves_with_true_tree_signal(
        seed in 0u64..200,
    ) {
        // The generating tree should score at least as well as a tree
        // with all branch lengths stretched 20x (data carry signal).
        let ds = seqgen::generate(DatasetSpec::new(6, 150), seed);
        let model = seqgen::default_model();
        let mut scalar = plf_repro::phylo::kernels::ScalarBackend;
        let mut eval = TreeLikelihood::new(&ds.tree, &ds.data, model.clone()).unwrap();
        let lnl_true = eval.log_likelihood(&ds.tree, &mut scalar).unwrap();
        let mut stretched = ds.tree.clone();
        for id in stretched.branches() {
            stretched.node_mut(id).branch *= 20.0;
        }
        let mut eval2 = TreeLikelihood::new(&stretched, &ds.data, model).unwrap();
        let lnl_stretched = eval2.log_likelihood(&stretched, &mut scalar).unwrap();
        prop_assert!(lnl_true > lnl_stretched,
            "true {lnl_true} vs stretched {lnl_stretched}");
    }
}
