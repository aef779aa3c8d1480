//! Pinned bits of the MLP training step.
//!
//! Trains the Cifar10 proxy architecture (24 → 128 → 10) on an 87-sample
//! set at batch 20 for 5 epochs, so every epoch ends with a ragged 7-row
//! batch, under each acceleration hook and drift correction the round
//! engine drives. For each case the FNV-1a hash of the final parameters'
//! `f32` bits and the bits of `evaluate_mut` on the training set are
//! pinned. The GEMM kernels, the element-wise passes, the loss and the
//! optimizer step may be restructured freely, but every change must
//! reproduce these values exactly: the experiment goldens downstream
//! depend on the training trajectory bit for bit.

use float_tensor::model::TrainOptions;
use float_tensor::rng::split_seed;
use float_tensor::{seed_rng, Dataset, DriftOptions, Mlp, MlpConfig, Sgd};
use rand::Rng;

const SAMPLES: usize = 87;
const DIM: usize = 24;
const CLASSES: usize = 10;
const BATCH: usize = 20;
const EPOCHS: u64 = 5;
const LR: f32 = 0.05;

/// Class-conditioned blobs: each class has its own centre, so training
/// makes real progress and the activations cross zero in both directions.
fn dataset() -> Dataset {
    let mut rng = seed_rng(0x5EED);
    let centres: Vec<Vec<f32>> = (0..CLASSES)
        .map(|_| (0..DIM).map(|_| rng.gen_range(-1.0f32..1.0)).collect())
        .collect();
    let mut rows = Vec::with_capacity(SAMPLES);
    let mut labels = Vec::with_capacity(SAMPLES);
    for i in 0..SAMPLES {
        let y = i % CLASSES;
        rows.push(
            centres[y]
                .iter()
                .map(|&c| c + rng.gen_range(-0.8f32..0.8))
                .collect(),
        );
        labels.push(y);
    }
    Dataset::from_rows(&rows, &labels, CLASSES).expect("rows are DIM wide, labels in range")
}

fn model() -> Mlp {
    Mlp::new(&MlpConfig::new(DIM, &[128], CLASSES), 42)
}

/// A deterministic per-parameter vector in `[-scale, scale)`.
fn variate(n: usize, seed: u64, scale: f32) -> Vec<f32> {
    let mut rng = seed_rng(seed);
    (0..n).map(|_| rng.gen_range(-scale..scale)).collect()
}

fn fnv1a(params: &[f32]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for b in params.iter().flat_map(|p| p.to_bits().to_le_bytes()) {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Train 5 epochs with one optimizer (as the round engine does) and
/// return `(param hash, eval loss bits, eval accuracy bits)`.
fn train(opts: &TrainOptions, drift: &DriftOptions<'_>) -> (u64, u32, u32) {
    let data = dataset();
    let mut m = model();
    let mut opt = Sgd::new(LR);
    for e in 0..EPOCHS {
        m.train_epoch_corrected(&data, BATCH, &mut opt, split_seed(9, e), opts, drift);
    }
    let eval = m.evaluate_mut(&data);
    assert_eq!(eval.samples, SAMPLES);
    (
        fnv1a(&m.params()),
        eval.loss.to_bits(),
        eval.accuracy.to_bits(),
    )
}

fn check(case: &str, got: (u64, u32, u32), want: (u64, u32, u32)) {
    assert_eq!(
        got, want,
        "{case}: training-step bits drifted (got hash {:#018x}, loss bits {:#010x}, acc bits {:#010x})",
        got.0, got.1, got.2
    );
}

/// Prune the unprotected weights in a fixed index pattern (every third),
/// keeping biases and the classifier layer as `protected_mask` requires.
fn protected_prune_mask() -> Vec<bool> {
    model()
        .protected_mask()
        .iter()
        .enumerate()
        .map(|(i, &protected)| protected || i % 3 != 0)
        .collect()
}

/// Freeze every fifth parameter, across both layers and their biases.
fn frozen_mask() -> Vec<bool> {
    (0..model().num_params()).map(|i| i % 5 == 0).collect()
}

#[test]
fn plain() {
    check(
        "plain",
        train(&TrainOptions::default(), &DriftOptions::default()),
        (0x2fd1_fc2e_ddf0_6626, 0x3f11_7eef, 0x3f7a_1d6d),
    );
}

#[test]
fn protected_prune_mask_keeps_pruned_weights_at_zero() {
    let mask = protected_prune_mask();
    let opts = TrainOptions {
        prune_mask: Some(mask),
        frozen: None,
    };
    check(
        "prune",
        train(&opts, &DriftOptions::default()),
        (0x10b6_4041_04fe_f49e, 0x3f65_365a, 0x3f74_3ada),
    );
}

#[test]
fn frozen_mask_holds_params() {
    let opts = TrainOptions {
        prune_mask: None,
        frozen: Some(frozen_mask()),
    };
    check(
        "frozen",
        train(&opts, &DriftOptions::default()),
        (0xff7e_1b77_9dbf_ffcc, 0x3f78_7747, 0x3f4d_fa1d),
    );
}

#[test]
fn fedprox() {
    let anchor = variate(model().num_params(), 7, 0.1);
    let drift = DriftOptions {
        prox: Some((0.5, &anchor)),
        scaffold: None,
    };
    check(
        "fedprox",
        train(&TrainOptions::default(), &drift),
        (0x5554_9816_59b1_5fa1, 0x3fb5_cd1d, 0x3f6b_66fd),
    );
}

#[test]
fn scaffold_empty_client_variate() {
    let c = variate(model().num_params(), 11, 0.01);
    let drift = DriftOptions {
        prox: None,
        scaffold: Some((&c, &[])),
    };
    check(
        "scaffold empty c_i",
        train(&TrainOptions::default(), &drift),
        (0xf445_8c8a_5d52_63d5, 0x3f11_2da8, 0x3f7a_1d6d),
    );
}

#[test]
fn scaffold_client_variate() {
    let n = model().num_params();
    let c = variate(n, 11, 0.01);
    let ci = variate(n, 13, 0.01);
    let drift = DriftOptions {
        prox: None,
        scaffold: Some((&c, &ci)),
    };
    check(
        "scaffold c_i",
        train(&TrainOptions::default(), &drift),
        (0xf034_edfa_72f6_1639, 0x3f11_ebb5, 0x3f7a_1d6d),
    );
}

/// Every hook at once: the drift terms, the frozen mask, the SGD step
/// and the prune mask must compose in that order per element.
#[test]
fn all_hooks_combined() {
    let n = model().num_params();
    let anchor = variate(n, 7, 0.1);
    let c = variate(n, 11, 0.01);
    let ci = variate(n, 13, 0.01);
    let opts = TrainOptions {
        prune_mask: Some(protected_prune_mask()),
        frozen: Some(frozen_mask()),
    };
    let drift = DriftOptions {
        prox: Some((0.5, &anchor)),
        scaffold: Some((&c, &ci)),
    };
    check(
        "all hooks",
        train(&opts, &drift),
        (0x1bee_c234_cfba_a4f1, 0x3fdd_0167, 0x3f36_6fd1),
    );
}
