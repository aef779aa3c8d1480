//! `kernel_throughput` — GFLOP/s of the blocked GEMM kernels on the
//! training hot-path shapes, against a naive triple-loop baseline.
//!
//! Shapes mirror what one local-training step actually runs: the MLP
//! proxy's forward/backward GEMMs at the default batch size, every GEMM
//! the Conv2d layers issue per sample (forward `weight·cols`, backward
//! `grad·colsᵀ` and `weightᵀ·grad`), and two square sizes that exercise
//! the cache blocking. Before timing, each GEMM shape is checked
//! bit-identical to the ascending-order reference — the determinism
//! contract the round engine relies on. Each shape is also timed through
//! the packed-panel cache (steady-state hit path) to show what operand
//! reuse buys. Results land in `BENCH_kernels.json` with per-shape deltas
//! against the committed PR 3 numbers and geomean summaries; the tool
//! re-reads and validates its own output (`--quick` keeps iteration
//! counts CI-sized).
//!
//! The `results` rows all go through `gemm_nn` at batch 16. The
//! `layer_calls` rows time each GEMM of one MLP training step exactly as
//! the `Linear` layer makes it — the same entry point (`gemm_nn`,
//! `gemm_tn`, `gemm_nt`), operand layouts and strides — at the trained
//! batch size (20) and a ragged tail batch (7). Each is checked bit-identical to the ascending-order reference of
//! the same layout first, and timed over several repeats (median and
//! spread reported). The report opens with a host fingerprint.
//!
//! With `--gate`, after writing the report the tool enforces the
//! committed per-shape `speedup_vs_naive` floors (both row kinds) and
//! exits nonzero if any shape regressed below its floor — the CI
//! kernel-regression gate.
//!
//! ```text
//! kernel_throughput [--quick] [--out PATH] [--gate]
//! ```

use std::hint::black_box;
use std::time::Instant;

use float_bench::selfcheck;

use float_tensor::conv::{Conv2d, FeatureShape};
use float_tensor::kernels::PanelCache;
use float_tensor::{kernels, seed_rng, Tensor};
use rand::Rng;
use serde::Serialize;

#[derive(Serialize)]
struct ShapeResult {
    name: String,
    m: usize,
    k: usize,
    n: usize,
    iters: usize,
    gflops: f64,
    /// Steady-state rate through the packed-panel cache (A operand hit).
    cached_gflops: f64,
    naive_gflops: f64,
    speedup_vs_naive: f64,
    /// `gflops` of the same shape in the committed PR 3 report, where the
    /// shape existed then.
    #[serde(skip_serializing_if = "Option::is_none")]
    pr3_gflops: Option<f64>,
    /// `gflops / pr3_gflops` — the before/after delta per shape.
    #[serde(skip_serializing_if = "Option::is_none")]
    speedup_vs_pr3: Option<f64>,
}

/// Which kernel entry point a layer call goes through, and so the
/// operand layouts.
#[derive(Debug, Clone, Copy)]
enum Call {
    /// `gemm_nn`: `A [m×k]`, weight `B [k×n]` (forward).
    Nn,
    /// `gemm_tn`: `A` stored `[k×m]`, `B [k×n]` (weight gradient).
    Tn,
    /// `gemm_nt`: `A [m×k]`, weight stored `[n×k]` (input gradient).
    Nt,
}

impl Call {
    fn name(self) -> &'static str {
        match self {
            Call::Nn => "gemm_nn",
            Call::Tn => "gemm_tn",
            Call::Nt => "gemm_nt",
        }
    }

    /// `(a_rs, a_cs, b_rs, b_cs)` of the logical `A'[m×k] · B'[k×n]`.
    fn strides(self, m: usize, k: usize, n: usize) -> (usize, usize, usize, usize) {
        match self {
            Call::Nn => (k, 1, n, 1),
            Call::Tn => (1, m, n, 1),
            Call::Nt => (k, 1, 1, k),
        }
    }

    fn run(self, m: usize, k: usize, n: usize, a: &[f32], b: &[f32], out: &mut [f32]) {
        match self {
            Call::Nn => kernels::gemm_nn(m, k, n, a, b, out),
            Call::Tn => kernels::gemm_tn(m, k, n, a, b, out),
            Call::Nt => kernels::gemm_nt(m, k, n, a, b, out),
        }
    }
}

/// One training-step GEMM timed as the layer calls it.
#[derive(Serialize)]
struct LayerCallResult {
    name: String,
    /// Kernel entry point the layer calls.
    call: &'static str,
    m: usize,
    k: usize,
    n: usize,
    iters: usize,
    repeats: usize,
    /// Median over `repeats` timed loops of `iters` calls.
    gflops: f64,
    /// Lowest and highest of the repeats.
    gflops_min: f64,
    gflops_max: f64,
    /// Ascending-order triple loop over the same layout, median of the
    /// same repeats.
    naive_gflops: f64,
    speedup_vs_naive: f64,
}

/// Where and how the numbers were measured.
#[derive(Serialize)]
struct Host {
    /// `std::thread::available_parallelism` (what `nproc` reports).
    nproc: usize,
    /// Vector extensions this binary was compiled to use.
    target_features: Vec<&'static str>,
    /// `rustc --version` on the `PATH` at run time, or `unknown`.
    rustc: String,
    /// `git rev-parse --short HEAD` at run time, or `none`.
    git_rev: String,
    /// Timed repeats per layer-call row (the spread is their min..max).
    repeats: usize,
}

/// Vector extensions enabled at compile time, in a fixed order.
fn target_features() -> Vec<&'static str> {
    let mut f = Vec::new();
    macro_rules! probe {
        ($($name:tt),*) => {$(
            if cfg!(target_feature = $name) {
                f.push($name);
            }
        )*};
    }
    probe!("sse2", "sse4.2", "avx", "avx2", "fma", "avx512f", "avx512bw", "avx512vl", "neon");
    f
}

/// First line of a command's stdout, or `fallback` if it cannot run.
fn command_line(cmd: &str, args: &[&str], fallback: &str) -> String {
    std::process::Command::new(cmd)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .and_then(|s| s.lines().next().map(str::to_string))
        .unwrap_or_else(|| fallback.to_string())
}

#[derive(Serialize)]
struct BenchReport {
    benchmark: String,
    quick: bool,
    host: Host,
    results: Vec<ShapeResult>,
    /// Every GEMM of one MLP proxy training step, as the layers call them.
    layer_calls: Vec<LayerCallResult>,
    /// Geometric mean of `gflops` over all shapes.
    geomean_gflops: f64,
    /// Geometric mean of `speedup_vs_naive` over all shapes.
    geomean_speedup_vs_naive: f64,
    /// Geometric mean of `speedup_vs_pr3` over the shapes PR 3 benched —
    /// the headline before/after number (target ≥ 1.2).
    geomean_speedup_vs_pr3: f64,
    conv_fwd_bwd_gflops: f64,
}

/// The committed PR 3 `gflops` per shape (from `BENCH_kernels.json` as of
/// the 4×8 fixed-tile kernels), for before/after deltas.
const PR3_GFLOPS: &[(&str, f64)] = &[
    ("mlp_fwd_l0", 10.929614117802865),
    ("mlp_fwd_l1", 6.996982457279465),
    ("mlp_bwd_gw_l0", 9.882120151788026),
    ("mlp_bwd_gw_l1", 8.42426507953991),
    ("mlp_bwd_gin_l1", 8.270690633215322),
    ("conv_im2col_8x8", 7.014427464357629),
    ("square_128", 15.291581512618444),
    ("square_256", 17.178793928930403),
];

/// Committed per-shape `speedup_vs_naive` floors for the CI gate. Set
/// from measured quick-mode runs with ~50% headroom for timer noise on a
/// loaded CI host; a drop below a floor means the kernels (or the tile
/// dispatcher) genuinely regressed, not that the machine was busy —
/// speedup is a ratio of two rates measured back-to-back, so load mostly
/// cancels.
const SPEEDUP_FLOORS: &[(&str, f64)] = &[
    ("mlp_fwd_l0", 3.0),
    ("mlp_fwd_l1", 2.0),
    ("mlp_bwd_gw_l0", 3.0),
    ("mlp_bwd_gw_l1", 1.8),
    ("mlp_bwd_gin_l1", 2.8),
    ("conv_im2col_8x8", 2.0),
    ("conv_bwd_gw_8x8", 2.0),
    ("conv_bwd_gcols_8x8", 2.0),
    ("square_128", 8.0),
    ("square_256", 8.0),
];

/// Committed `speedup_vs_naive` floors for the `layer_calls` rows: about
/// half the lowest of three measured quick-mode runs (2-core x86-64 with
/// AVX-512, shared), like [`SPEEDUP_FLOORS`] leaving headroom for timer
/// noise on a loaded host.
const LAYER_SPEEDUP_FLOORS: &[(&str, f64)] = &[
    ("layer_fwd_l0_m20", 6.5),
    ("layer_fwd_l1_m20", 2.2),
    ("layer_bwd_gw_l1_m20", 3.9),
    ("layer_bwd_gin_l1_m20", 3.6),
    ("layer_bwd_gw_l0_m20", 7.6),
    ("layer_fwd_l0_m7", 6.5),
    ("layer_fwd_l1_m7", 2.7),
    ("layer_bwd_gw_l1_m7", 2.2),
    ("layer_bwd_gin_l1_m7", 2.9),
    ("layer_bwd_gw_l0_m7", 5.2),
];

/// Ascending-`p` triple loop over strided operands: `A'[i][p] =
/// a[i*a_rs + p*a_cs]`, `B'[p][j] = b[p*b_rs + j*b_cs]`.
#[allow(clippy::too_many_arguments)]
fn naive_strided(
    (m, k, n): (usize, usize, usize),
    a: &[f32],
    (a_rs, a_cs): (usize, usize),
    b: &[f32],
    (b_rs, b_cs): (usize, usize),
    out: &mut [f32],
) {
    for i in 0..m {
        for j in 0..n {
            let mut acc = 0.0f32;
            for p in 0..k {
                acc += a[i * a_rs + p * a_cs] * b[p * b_rs + j * b_cs];
            }
            out[i * n + j] = acc;
        }
    }
}

fn median(v: &mut [f64]) -> f64 {
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// Time every GEMM of one training step of the MLP proxy
/// (24 → 128 → 10) at batch `m`, through the entry point and layouts the
/// layers use.
fn bench_layer_calls(m: usize, quick: bool, repeats: usize) -> Vec<LayerCallResult> {
    // (row, entry point, m, k, n) of: forward layer 0 and 1, the weight
    // gradient of layer 1, the input gradient of layer 1, and the weight
    // gradient of layer 0 (layer 0 has no input gradient).
    let calls = [
        ("layer_fwd_l0", Call::Nn, m, 24, 128),
        ("layer_fwd_l1", Call::Nn, m, 128, 10),
        ("layer_bwd_gw_l1", Call::Tn, 128, m, 10),
        ("layer_bwd_gin_l1", Call::Nt, m, 10, 128),
        ("layer_bwd_gw_l0", Call::Tn, 24, m, 128),
    ];
    let mut rows = Vec::new();
    for (name, call, m_, k, n) in calls {
        let name = format!("{name}_m{m}");
        let (a_rs, a_cs, b_rs, b_cs) = call.strides(m_, k, n);
        let a = random_vec(m_ * k, 0xA7);
        let b = random_vec(k * n, 0x7A);
        let mut reference = vec![0.0f32; m_ * n];
        naive_strided(
            (m_, k, n),
            &a,
            (a_rs, a_cs),
            &b,
            (b_rs, b_cs),
            &mut reference,
        );
        let mut out = vec![f32::NAN; m_ * n];
        call.run(m_, k, n, &a, &b, &mut out);
        assert!(
            out.iter()
                .zip(&reference)
                .all(|(x, y)| x.to_bits() == y.to_bits()),
            "{name}: {} diverged from the ascending-order reference",
            call.name()
        );
        let flops = 2.0 * (m_ * k * n) as f64;
        let iters = if quick {
            2000
        } else {
            ((2e8 / flops).ceil() as usize).clamp(20, 200_000)
        };
        let mut fast = Vec::new();
        let mut slow = Vec::new();
        for _ in 0..repeats {
            let start = Instant::now();
            for _ in 0..iters {
                call.run(m_, k, n, black_box(&a), black_box(&b), &mut out);
                black_box(&out);
            }
            fast.push(flops * iters as f64 / start.elapsed().as_secs_f64().max(1e-12) / 1e9);
            let start = Instant::now();
            for _ in 0..iters {
                naive_strided(
                    (m_, k, n),
                    black_box(&a),
                    (a_rs, a_cs),
                    black_box(&b),
                    (b_rs, b_cs),
                    &mut out,
                );
                black_box(&out);
            }
            slow.push(flops * iters as f64 / start.elapsed().as_secs_f64().max(1e-12) / 1e9);
        }
        let gflops_min = fast.iter().copied().fold(f64::INFINITY, f64::min);
        let gflops_max = fast.iter().copied().fold(0.0, f64::max);
        let gflops = median(&mut fast);
        let naive_gflops = median(&mut slow);
        let speedup_vs_naive = gflops / naive_gflops.max(1e-12);
        eprintln!(
            "  {name:>22} {:>16} ({m_:>3}x{k:>3}x{n:>3}): {gflops:7.2} GFLOP/s \
             [{gflops_min:.2}..{gflops_max:.2}] (naive {naive_gflops:6.2}, x{speedup_vs_naive:.2})",
            call.name()
        );
        rows.push(LayerCallResult {
            name,
            call: call.name(),
            m: m_,
            k,
            n,
            iters,
            repeats,
            gflops,
            gflops_min,
            gflops_max,
            naive_gflops,
            speedup_vs_naive,
        });
    }
    rows
}

/// Ascending-`p` triple loop — the pre-kernel implementation, kept here as
/// the honest baseline and bitwise reference.
fn naive_gemm(m: usize, k: usize, n: usize, a: &[f32], b: &[f32], out: &mut [f32]) {
    for i in 0..m {
        for j in 0..n {
            let mut acc = 0.0f32;
            for p in 0..k {
                acc += a[i * k + p] * b[p * n + j];
            }
            out[i * n + j] = acc;
        }
    }
}

fn random_vec(len: usize, seed: u64) -> Vec<f32> {
    let mut rng = seed_rng(seed);
    (0..len).map(|_| rng.gen_range(-1.0f32..1.0)).collect()
}

fn geomean(vals: impl Iterator<Item = f64>) -> f64 {
    let (mut log_sum, mut count) = (0.0f64, 0usize);
    for v in vals {
        log_sum += v.max(1e-12).ln();
        count += 1;
    }
    if count == 0 {
        0.0
    } else {
        (log_sum / count as f64).exp()
    }
}

fn usage() -> ! {
    eprintln!("usage: kernel_throughput [--quick] [--out PATH] [--gate]");
    std::process::exit(2);
}

fn main() {
    let mut quick = false;
    let mut gate = false;
    let mut out_path = "BENCH_kernels.json".to_string();
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--quick" => quick = true,
            "--gate" => gate = true,
            "--out" => out_path = it.next().cloned().unwrap_or_else(|| usage()),
            _ => usage(),
        }
    }

    // The MLP proxy (24 → 128 → 10 at batch 16) forward/backward GEMMs,
    // the three Conv2d per-sample GEMMs for the 2×8×8 → 8-channel layer
    // (forward weight·cols, backward grad·colsᵀ and weightᵀ·grad), and
    // two square blocking stress shapes.
    let shapes: &[(&str, usize, usize, usize)] = &[
        ("mlp_fwd_l0", 16, 24, 128),
        ("mlp_fwd_l1", 16, 128, 10),
        ("mlp_bwd_gw_l0", 24, 16, 128),
        ("mlp_bwd_gw_l1", 128, 16, 10),
        ("mlp_bwd_gin_l1", 16, 10, 128),
        ("conv_im2col_8x8", 8, 18, 64),
        ("conv_bwd_gw_8x8", 8, 64, 18),
        ("conv_bwd_gcols_8x8", 18, 8, 64),
        ("square_128", 128, 128, 128),
        ("square_256", 256, 256, 256),
    ];

    let mut results = Vec::new();
    for &(name, m, k, n) in shapes {
        let a = random_vec(m * k, 0xA5);
        let b = random_vec(k * n, 0x5A);
        let mut out = vec![0.0f32; m * n];
        let mut reference = vec![0.0f32; m * n];

        // Determinism contract: bit-identical to the ascending-order
        // reference (all hot-path shapes fit in one k-panel).
        naive_gemm(m, k, n, &a, &b, &mut reference);
        kernels::gemm_nn(m, k, n, &a, &b, &mut out);
        assert!(
            out.iter()
                .zip(&reference)
                .all(|(x, y)| x.to_bits() == y.to_bits()),
            "{name}: blocked GEMM diverged from the ascending-order reference"
        );
        // And the cached path must agree with the uncached one on both the
        // miss (pack) and hit (replay) calls.
        let mut cache = PanelCache::new();
        for pass in 0..2 {
            kernels::gemm_nn_a_cached(m, k, n, &a, 1, &b, &mut out, &mut cache);
            assert!(
                out.iter()
                    .zip(&reference)
                    .all(|(x, y)| x.to_bits() == y.to_bits()),
                "{name}: cached GEMM diverged on pass {pass}"
            );
        }

        let flops_per_iter = 2.0 * m as f64 * k as f64 * n as f64;
        let iters = if quick {
            10
        } else {
            ((2e8 / flops_per_iter).ceil() as usize).clamp(20, 200_000)
        };

        let start = Instant::now();
        for _ in 0..iters {
            kernels::gemm_nn(m, k, n, black_box(&a), black_box(&b), &mut out);
            black_box(&out);
        }
        let blocked_s = start.elapsed().as_secs_f64();

        // Steady-state cached path: the A panels were packed above, so
        // every timed iteration is a pure hit — the per-sample reuse the
        // conv forward sees within one batch.
        let start = Instant::now();
        for _ in 0..iters {
            kernels::gemm_nn_a_cached(
                m,
                k,
                n,
                black_box(&a),
                1,
                black_box(&b),
                &mut out,
                &mut cache,
            );
            black_box(&out);
        }
        let cached_s = start.elapsed().as_secs_f64();

        let start = Instant::now();
        for _ in 0..iters {
            naive_gemm(m, k, n, black_box(&a), black_box(&b), &mut out);
            black_box(&out);
        }
        let naive_s = start.elapsed().as_secs_f64();

        let gflops = flops_per_iter * iters as f64 / blocked_s.max(1e-12) / 1e9;
        let cached_gflops = flops_per_iter * iters as f64 / cached_s.max(1e-12) / 1e9;
        let naive_gflops = flops_per_iter * iters as f64 / naive_s.max(1e-12) / 1e9;
        let pr3_gflops = PR3_GFLOPS.iter().find(|(s, _)| *s == name).map(|&(_, g)| g);
        eprintln!(
            "  {name:>18} ({m:>3}x{k:>3}x{n:>3}): {gflops:7.2} GFLOP/s  \
             (cached {cached_gflops:7.2}, naive {naive_gflops:6.2}, x{:.2}{})",
            gflops / naive_gflops.max(1e-12),
            pr3_gflops
                .map(|p| format!(", vs PR3 x{:.2}", gflops / p))
                .unwrap_or_default()
        );
        results.push(ShapeResult {
            name: name.to_string(),
            m,
            k,
            n,
            iters,
            gflops,
            cached_gflops,
            naive_gflops,
            speedup_vs_naive: gflops / naive_gflops.max(1e-12),
            pr3_gflops,
            speedup_vs_pr3: pr3_gflops.map(|p| gflops / p),
        });
    }

    let repeats = if quick { 3 } else { 7 };
    let mut layer_calls = bench_layer_calls(20, quick, repeats);
    layer_calls.extend(bench_layer_calls(7, quick, repeats));

    // End-to-end im2col convolution: forward + backward over a batch.
    let shape = FeatureShape::new(2, 8, 8);
    let (oc, kernel, batch) = (8usize, 3usize, 16usize);
    let mut conv = Conv2d::new(shape, oc, kernel, 7);
    let x = Tensor::from_vec(batch, shape.len(), random_vec(batch * shape.len(), 0xC0))
        .expect("sized by construction");
    let grad = Tensor::from_vec(
        batch,
        conv.output_shape().len(),
        random_vec(batch * conv.output_shape().len(), 0xC1),
    )
    .expect("sized by construction");
    let conv_iters = if quick { 5 } else { 2000 };
    let fan_in = shape.channels * kernel * kernel;
    let hw = shape.height * shape.width;
    // Forward GEMM + two backward GEMMs per sample.
    let conv_flops = 6.0 * (oc * fan_in * hw * batch) as f64;
    let start = Instant::now();
    for _ in 0..conv_iters {
        let y = conv.forward(black_box(&x)).expect("conv input fits");
        black_box(&y);
        let gin = conv.backward(black_box(&grad)).expect("after forward");
        black_box(&gin);
    }
    let conv_s = start.elapsed().as_secs_f64();
    let conv_gflops = conv_flops * conv_iters as f64 / conv_s.max(1e-12) / 1e9;
    eprintln!("  conv2d fwd+bwd (2x8x8 -> 8ch, batch 16): {conv_gflops:.2} GFLOP/s");

    let geomean_gflops = geomean(results.iter().map(|r| r.gflops));
    let geomean_speedup_vs_naive = geomean(results.iter().map(|r| r.speedup_vs_naive));
    let geomean_speedup_vs_pr3 = geomean(results.iter().filter_map(|r| r.speedup_vs_pr3));
    eprintln!(
        "  geomean: {geomean_gflops:.2} GFLOP/s, x{geomean_speedup_vs_naive:.2} vs naive, \
         x{geomean_speedup_vs_pr3:.2} vs PR 3"
    );

    let host = Host {
        nproc: std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get),
        target_features: target_features(),
        rustc: command_line("rustc", &["--version"], "unknown"),
        git_rev: command_line("git", &["rev-parse", "--short", "HEAD"], "none"),
        repeats,
    };
    let report = BenchReport {
        benchmark: "kernel_throughput".to_string(),
        quick,
        host,
        results,
        layer_calls,
        geomean_gflops,
        geomean_speedup_vs_naive,
        geomean_speedup_vs_pr3,
        conv_fwd_bwd_gflops: conv_gflops,
    };
    selfcheck::write_report(&out_path, &report);

    // Self-check: the file must parse back and every rate must be a
    // positive finite number — this is what CI's quick run asserts.
    let v: serde_json::Value = selfcheck::parse_back(&out_path);
    let parsed = v
        .get("results")
        .and_then(|r| r.as_array())
        .expect("results array present");
    assert_eq!(parsed.len(), shapes.len(), "one result per shape");
    for entry in parsed {
        for field in ["gflops", "cached_gflops", "naive_gflops"] {
            let g = entry
                .get(field)
                .and_then(|g| g.as_f64())
                .expect("rate present");
            selfcheck::assert_positive(g, field);
        }
    }
    let parsed_layers = v
        .get("layer_calls")
        .and_then(|r| r.as_array())
        .expect("layer_calls array present");
    assert_eq!(
        parsed_layers.len(),
        LAYER_SPEEDUP_FLOORS.len(),
        "one row per layer call"
    );
    for entry in parsed_layers {
        for field in ["gflops", "gflops_min", "gflops_max", "naive_gflops"] {
            let g = entry
                .get(field)
                .and_then(|g| g.as_f64())
                .expect("rate present");
            selfcheck::assert_positive(g, field);
        }
    }
    let cg = v
        .get("conv_fwd_bwd_gflops")
        .and_then(|g| g.as_f64())
        .expect("conv rate present");
    selfcheck::assert_positive(cg, "conv fwd+bwd GFLOP/s");
    eprintln!("self-check OK: report parses, all rates positive");

    if gate {
        // Kernel-regression gate: re-read the report just written and
        // enforce the committed floors on the parsed values (so the gate
        // exercises the same parse path CI depends on).
        let mut failed = false;
        let floors = SPEEDUP_FLOORS.iter().chain(LAYER_SPEEDUP_FLOORS);
        for entry in parsed.iter().chain(parsed_layers) {
            let name = entry
                .get("name")
                .and_then(|s| s.as_str())
                .expect("name present");
            let speedup = entry
                .get("speedup_vs_naive")
                .and_then(|g| g.as_f64())
                .expect("speedup present");
            let floor = floors
                .clone()
                .find(|(s, _)| *s == name)
                .map(|&(_, f)| f)
                .unwrap_or_else(|| panic!("no committed floor for shape {name}"));
            if speedup < floor {
                eprintln!("GATE FAIL: {name} speedup_vs_naive {speedup:.2} < floor {floor:.2}");
                failed = true;
            } else {
                eprintln!("gate ok: {name} x{speedup:.2} >= floor x{floor:.2}");
            }
        }
        if failed {
            eprintln!("kernel-regression gate FAILED");
            std::process::exit(1);
        }
        eprintln!("kernel-regression gate passed");
    }
}
