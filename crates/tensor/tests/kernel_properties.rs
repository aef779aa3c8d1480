//! Property tests for the GEMM micro-kernels, the operand placement rule,
//! and the packed-panel reuse cache.
//!
//! The contract under test: every dispatched tile (4×8, 8×8, 4×16) with
//! its zero-padded edges, in-place and packed operands, and the cached
//! conv entry point produce results **bit-identical** to the
//! ascending-`p` reference (per `KC` depth panel), for shapes
//! straddling each tile boundary and the KC depth-panel boundary. None of
//! these choices changes the ascending reduction order of any single
//! element, and a panel-cache hit replays byte-identical packed operands,
//! so any diff is a bug. Non-finite inputs must propagate as in the
//! reference: NaN where it has NaN (payload aside, see [`same`]), the same
//! infinities elsewhere.

use float_tensor::kernels::{gemm_nn, gemm_nn_a_cached, gemm_nt, gemm_tn, PanelCache};
use float_tensor::Linear;
use float_tensor::Tensor;
use proptest::prelude::*;

/// Deterministic pseudo-random buffer (golden-ratio hash, same family the
/// unit tests use) so failures reproduce from the shape alone.
fn pseudo(n: usize, salt: u64) -> Vec<f32> {
    (0..n)
        .map(|i| {
            let h = (i as u64)
                .wrapping_mul(0x9E3779B97F4A7C15)
                .wrapping_add(salt.wrapping_mul(0xD1B54A32D192ED03));
            ((h >> 40) as f32 / 8388608.0) - 1.0
        })
        .collect()
}

/// Dimension values that straddle every micro-kernel boundary: below / at /
/// above MR (4) and the widened rows (8), below / at / above NR (8) and the
/// widened columns (16), plus multi-tile sizes.
fn boundary_dim() -> impl Strategy<Value = usize> {
    const DIMS: [usize; 12] = [1, 3, 4, 5, 7, 8, 9, 15, 16, 17, 31, 33];
    (0..DIMS.len()).prop_map(|i| DIMS[i])
}

/// Depth values straddling the KC = 256 panel boundary.
fn depth_dim() -> impl Strategy<Value = usize> {
    const DEPTHS: [usize; 9] = [1, 2, 7, 8, 64, 255, 256, 257, 300];
    (0..DEPTHS.len()).prop_map(|i| DEPTHS[i])
}

fn bits(v: &[f32]) -> Vec<u32> {
    v.iter().map(|x| x.to_bits()).collect()
}

/// Ascending-`p` reference over strided operands, committed per `KC`
/// (256) depth panel like the kernels: `C[i][j] = Σ_panels (Σ_p
/// A'[i][p]·B'[p][j])` with `A'[i][p] = a[i*a_rs + p*a_cs]` and
/// `B'[p][j] = b[p*b_rs + j*b_cs]`.
#[allow(clippy::too_many_arguments)]
fn reference(
    (m, k, n): (usize, usize, usize),
    a: &[f32],
    (a_rs, a_cs): (usize, usize),
    b: &[f32],
    (b_rs, b_cs): (usize, usize),
) -> Vec<f32> {
    let mut out = vec![0.0f32; m * n];
    for pc in (0..k).step_by(256) {
        for i in 0..m {
            for j in 0..n {
                let mut acc = 0.0f32;
                for p in pc..k.min(pc + 256) {
                    acc += a[i * a_rs + p * a_cs] * b[p * b_rs + j * b_cs];
                }
                out[i * n + j] += acc;
            }
        }
    }
    out
}

/// Bit-identical, except that any NaN matches any NaN: neither IEEE nor
/// the compiler pins which operand's payload a NaN produced from two NaN
/// operands carries (LLVM may commute a multiply when it vectorizes).
fn same(got: &[f32], want: &[f32]) -> bool {
    got.len() == want.len()
        && got
            .iter()
            .zip(want)
            .all(|(g, w)| (g.is_nan() && w.is_nan()) || g.to_bits() == w.to_bits())
}

/// Overwrite a few entries with NaN, +∞ and −∞ (positions from `salt`).
fn poison(v: &mut [f32], salt: u64) {
    if v.is_empty() {
        return;
    }
    let n = v.len() as u64;
    for (i, x) in [f32::NAN, f32::INFINITY, f32::NEG_INFINITY]
        .into_iter()
        .enumerate()
    {
        let at = (salt.wrapping_mul(0x9E37_79B9).wrapping_add(i as u64 * 7919)) % n;
        v[at as usize] = x;
    }
}

/// Batch sizes the layer calls are checked at: a single row, the ragged
/// tail of an 87-sample shard at batch 20, the trained batch, and a batch
/// wider than one 8-row tile pair.
fn batch() -> impl Strategy<Value = usize> {
    const BATCHES: [usize; 4] = [1, 7, 20, 30];
    (0..BATCHES.len()).prop_map(|i| BATCHES[i])
}

proptest! {
    /// N·N through the shape dispatcher == the tensor-level matmul (which
    /// exercises the same kernel through the public API), bit for bit.
    #[test]
    fn widened_nn_is_bitwise_stable_across_boundaries(
        m in boundary_dim(),
        n in boundary_dim(),
        k in depth_dim(),
        salt in 0u64..1024,
    ) {
        let a = pseudo(m * k, salt);
        let b = pseudo(k * n, salt + 1);
        let mut got = vec![f32::NAN; m * n];
        gemm_nn(m, k, n, &a, &b, &mut got);
        // Reference: ascending-p accumulation per KC panel — the pinned
        // summation order, independent of the dispatched tile.
        let mut want = vec![0.0f32; m * n];
        for pc in (0..k).step_by(256) {
            let kc = 256.min(k - pc);
            for i in 0..m {
                for j in 0..n {
                    let mut acc = 0.0f32;
                    for p in pc..pc + kc {
                        acc += a[i * k + p] * b[p * n + j];
                    }
                    want[i * n + j] += acc;
                }
            }
        }
        prop_assert_eq!(bits(&got), bits(&want));
    }

    /// The cached entry point == its uncached twin bit for bit, on both
    /// the first call (miss → pack) and a replay (hit → cached panels).
    #[test]
    fn cached_entry_points_match_uncached_bitwise(
        m in boundary_dim(),
        n in boundary_dim(),
        k in depth_dim(),
        salt in 0u64..1024,
    ) {
        let a = pseudo(m * k, salt);
        let b = pseudo(k * n, salt + 1);
        let mut cache = PanelCache::new();
        let mut want = vec![0.0f32; m * n];
        let mut got = vec![0.0f32; m * n];
        for pass in 0..2 {
            gemm_nn(m, k, n, &a, &b, &mut want);
            gemm_nn_a_cached(m, k, n, &a, 2, &b, &mut got, &mut cache);
            prop_assert_eq!(bits(&got), bits(&want), "nn_a pass {}", pass);
        }
        // A row-major `A` must be packed unless it is a single element
        // (`k == m == 1`, lanes adjacent): packed on the first pass,
        // replayed on the second.
        let packed = u64::from(!(k == 1 && m == 1));
        prop_assert_eq!(cache.misses(), packed);
        prop_assert_eq!(cache.hits(), packed);
    }

    /// All three variants, through whichever tile and operand placement
    /// the dispatcher picks, against the strided ascending
    /// reference — with NaN and infinities injected into both operands.
    #[test]
    fn variants_match_reference_including_non_finite(
        m in boundary_dim(),
        n in boundary_dim(),
        k in depth_dim(),
        salt in 0u64..1024,
        poisoned in any::<bool>(),
    ) {
        let mut a = pseudo(m * k, salt);
        let mut b = pseudo(k * n, salt + 1);
        if poisoned {
            poison(&mut a, salt);
            poison(&mut b, salt + 1);
        }
        let mut got = vec![f32::NAN; m * n];
        gemm_nn(m, k, n, &a, &b, &mut got);
        let want = reference((m, k, n), &a, (k, 1), &b, (n, 1));
        prop_assert!(same(&got, &want), "nn ({}x{}x{})", m, k, n);
        // The same buffers read as `A` stored [k×m] and `B` stored [n×k].
        gemm_tn(m, k, n, &a, &b, &mut got);
        let want = reference((m, k, n), &a, (1, m), &b, (n, 1));
        prop_assert!(same(&got, &want), "tn ({}x{}x{})", m, k, n);
        gemm_nt(m, k, n, &a, &b, &mut got);
        let want = reference((m, k, n), &a, (k, 1), &b, (1, k));
        prop_assert!(same(&got, &want), "nt ({}x{}x{})", m, k, n);
    }

    /// Every GEMM of an MLP proxy training step (24 → 128 → 10), through
    /// the real layer calls — forward `matmul_into` (`nn`, weight read in
    /// place), backward `t_matmul_into` (`tn`, `A` columns adjacent) and
    /// `matmul_t_into` (`nt`, weight view packed) — against the reference.
    #[test]
    fn layer_calls_match_reference(
        m in batch(),
        salt in 0u64..1024,
        poisoned in any::<bool>(),
    ) {
        for (in_dim, out_dim, seed) in [(24usize, 128usize, 1u64), (128, 10, 2)] {
            let mut layer = Linear::new(in_dim, out_dim, seed);
            let mut xv = pseudo(m * in_dim, salt);
            let mut gv = pseudo(m * out_dim, salt + 1);
            if poisoned {
                poison(&mut xv, salt);
                poison(&mut gv, salt + 1);
            }
            let x = Tensor::from_vec(m, in_dim, xv).unwrap();
            let g = Tensor::from_vec(m, out_dim, gv).unwrap();
            let w = layer.weight.data().to_vec();
            let want_y = reference((m, in_dim, out_dim), x.data(), (in_dim, 1), &w, (out_dim, 1));
            let want_gw = reference((in_dim, m, out_dim), x.data(), (1, in_dim), g.data(), (out_dim, 1));
            let want_gin = reference((m, out_dim, in_dim), g.data(), (out_dim, 1), &w, (1, out_dim));
            let mut y = Tensor::default();
            layer.forward_matmul_into(&x, &mut y).unwrap();
            prop_assert!(same(y.data(), &want_y), "fwd {}x{}", in_dim, out_dim);
            let mut gin = Tensor::default();
            layer.backward_into(&x, &g, &mut gin).unwrap();
            prop_assert!(same(layer.grad_weight.data(), &want_gw), "gW {}x{}", in_dim, out_dim);
            prop_assert!(same(gin.data(), &want_gin), "gin {}x{}", in_dim, out_dim);
        }
    }

    /// Stamp discipline: replays hit, mutations (new stamps) miss and
    /// recompute correctly, and eviction pressure never corrupts results.
    #[test]
    fn cache_hits_misses_and_eviction_track_stamps(
        m in boundary_dim(),
        n in boundary_dim(),
        k in 1usize..32,
        generations in 1usize..20,
    ) {
        let b = pseudo(k * n, 7);
        let mut cache = PanelCache::new();
        for g in 0..generations as u64 {
            // `A` stored [m×k]: the conv forward product's weight.
            let a = pseudo(m * k, 100 + g);
            let mut want = vec![0.0f32; m * n];
            gemm_nn(m, k, n, &a, &b, &mut want);
            // First sight of stamp g: miss. Replay: hit.
            let mut got = vec![0.0f32; m * n];
            gemm_nn_a_cached(m, k, n, &a, g, &b, &mut got, &mut cache);
            prop_assert_eq!(bits(&got), bits(&want));
            let mut replay = vec![f32::NAN; m * n];
            gemm_nn_a_cached(m, k, n, &a, g, &b, &mut replay, &mut cache);
            prop_assert_eq!(bits(&replay), bits(&want));
        }
        // A packed view misses once per stamp and then hits; one readable
        // in place (`k == m == 1`) never reaches the cache.
        let expect = if k == 1 && m == 1 { 0 } else { generations as u64 };
        prop_assert_eq!(cache.misses(), expect);
        prop_assert_eq!(cache.hits(), expect);
    }

    /// A cached product keyed by a real tensor's stamp agrees with the
    /// uncached kernel across arbitrary weight mutations: every mutation
    /// re-stamps the tensor, so no call may replay a stale packing.
    #[test]
    fn weight_mutation_invalidates_cached_panels(
        rows in boundary_dim(),
        inner in boundary_dim(),
        cols in boundary_dim(),
        steps in 1usize..6,
    ) {
        let mut w = Tensor::from_vec(rows, inner, pseudo(rows * inner, 12)).unwrap();
        let x = pseudo(inner * cols, 11);
        let mut cache = PanelCache::new();
        let mut cached = vec![0.0f32; rows * cols];
        let mut plain = vec![0.0f32; rows * cols];
        for s in 0..steps {
            gemm_nn_a_cached(rows, inner, cols, w.data(), w.stamp(), &x, &mut cached, &mut cache);
            gemm_nn(rows, inner, cols, w.data(), &x, &mut plain);
            prop_assert_eq!(bits(&cached), bits(&plain), "step {}", s);
            w.data_mut()[0] += 0.25;
        }
        let expect = if inner == 1 && rows == 1 { 0 } else { steps as u64 };
        prop_assert_eq!(cache.misses(), expect);
        prop_assert_eq!(cache.hits(), 0);
    }
}
