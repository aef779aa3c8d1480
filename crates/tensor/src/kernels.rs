//! Cache-blocked, register-tiled compute kernels for the training hot path.
//!
//! The FL experiments spend nearly all wall-clock inside the three GEMM
//! variants (`matmul`, `t_matmul`, `matmul_t`) and the convolution loops.
//! This module is the single place that work happens: a blocked GEMM with
//! register micro-kernels fitted per call shape, which reads contiguous
//! operands in place and packs only strided ones, a packed-panel reuse
//! cache for the conv weight that recurs across a batch, plus the fused
//! elementwise passes (bias+ReLU forward, ReLU-mask backward) the layers
//! use.
//!
//! # Design
//!
//! - **Blocking.** The driver tiles `C[m×n] = Σ_p A'[i][p]·B'[p][j]` with
//!   the classic three-loop structure: `NC`-wide column panels of `B'`,
//!   `KC`-deep depth panels, `MC`-tall row panels of `A'`. Both operands
//!   are handled as *lane-major* views: for `A'` a lane is a row, for
//!   `B'` a column, and one micro-kernel step reads, for one depth `p`, a
//!   group of adjacent lanes (the `R` rows it broadcasts, or the `C`
//!   columns it loads as vectors).
//! - **In-place operands.** When a view's lanes are adjacent in memory
//!   (`B'` rows with unit column stride, as in every `N·N` and `T·N`
//!   product; `A'` columns with unit row stride, as in `T·N`'s transposed
//!   left operand) the micro-kernel reads its groups straight from the
//!   source at the source's depth stride, and nothing is packed. Only a
//!   strided view (the `N·T` weight, an `N·N` left operand) is packed into
//!   contiguous tile-major scratch, and so is the ragged edge tile of an
//!   in-place view, which needs zero padding.
//! - **Micro-kernels.** `R×C` accumulator blocks updated over the depth
//!   dimension, monomorphized per tile shape. The tile (`8×8`, `4×16`,
//!   or the `4×8` reference, each at most eight 256-bit accumulators) is
//!   picked once per call as a pure function of the output shape
//!   ([`select_tile`]); a ragged edge runs the same kernel over
//!   zero-padded lanes. Loop bounds are compile-time constants over
//!   fixed-size arrays, so LLVM unrolls and vectorizes the inner loop with
//!   no per-element branching. Wider blocks are out of reach in safe Rust
//!   here: an `8×16` block needs sixteen 256-bit accumulators, which spill
//!   (measured at ~1/10th of `8×8`), and 512-bit vectors need either
//!   intrinsics (this crate forbids `unsafe`) or rustc's unstable
//!   `-prefer-256-bit` override.
//! - **Determinism.** For every output element the reduction over the
//!   depth dimension runs in ascending index order from `0.0`: ascending
//!   `p` inside a depth panel, panels visited in ascending order, partial
//!   sums committed to `C` per panel. No fused multiply-add is ever
//!   formed. The order is a pure function of the operand *shape* — never
//!   of thread count, data values, tile width, operand placement, or
//!   cache state — so results are bit-identical run-to-run,
//!   across the round engine's worker-pool sizes, and across every
//!   micro-kernel variant: a tile shape only changes *which* output
//!   elements a register block covers, not the order any single element's
//!   dot product accumulates in (zero-padded edge lanes feed accumulator
//!   slots that are never committed). For `k ≤ KC` (every shape on the MLP
//!   hot path) the reduction degenerates to a single ascending pass, which
//!   is bit-identical to the pre-kernel naive loops on finite inputs.
//! - **Packed-panel reuse.** The conv forward product's weight, a strided
//!   left operand that recurs for every sample of a batch, is memoized in
//!   a [`PanelCache`] keyed by *(generation stamp, shape, strides, tile
//!   width)*; the stamp (see [`crate::Tensor`]) changes on every mutation,
//!   so a hit is guaranteed to replay byte-identical packed panels and
//!   results cannot depend on cache state. The MLP's products need no
//!   cache: their weights are read in place, except the input-gradient
//!   product's transposed view, which every optimizer step re-stamps
//!   before it could recur.
//! - **Allocation.** Packing buffers are thread-local and grown once;
//!   steady-state calls perform zero heap allocation. The `*_into` entry
//!   points on [`crate::Tensor`] write into caller-owned scratch.
//!
//! Inputs containing NaN/Inf propagate through (IEEE semantics); nothing
//! here filters non-finite values, so poisoned updates stay poisoned until
//! the server-side quarantine sees them. A NaN's payload is not pinned:
//! when both factors of a product are NaN, which payload survives is up to
//! the compiler (LLVM may commute a multiply when it vectorizes).

use std::cell::RefCell;

/// Rows of the *reference* micro-kernel (the narrowest main tile, used for
/// small shapes; wider variants are selected by [`select_tile`]).
pub const MR: usize = 4;
/// Columns (vector lanes) of the reference micro-kernel.
pub const NR: usize = 8;
/// Row-panel height of `A'` blocks.
const MC: usize = 64;
/// Depth of panels; reductions with `k ≤ KC` are single-pass.
const KC: usize = 256;
/// Column-panel width of `B'` blocks.
const NC: usize = 256;

thread_local! {
    static PACK_A: RefCell<Vec<f32>> = const { RefCell::new(Vec::new()) };
    static PACK_B: RefCell<Vec<f32>> = const { RefCell::new(Vec::new()) };
}

/// A read-only strided matrix view: element `(i, j)` is
/// `data[i * rs + j * cs]`.
#[derive(Debug, Clone, Copy)]
struct View<'a> {
    data: &'a [f32],
    rs: usize,
    cs: usize,
}

impl View<'_> {
    /// The same storage read as the transposed matrix.
    fn t(self) -> Self {
        View {
            data: self.data,
            rs: self.cs,
            cs: self.rs,
        }
    }

    /// Whether a lane-major view (`lanes × depth`) can feed the
    /// micro-kernel's vector loads without packing: its lanes are adjacent
    /// for every depth, and one depth's lanes never overlap the next
    /// depth's.
    fn in_place(self, lanes: usize) -> bool {
        self.rs == 1 && self.cs >= lanes
    }
}

/// A register tile: `r` broadcast rows × `c` vector lanes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Tile {
    r: usize,
    c: usize,
}

/// Choose the micro-kernel once per GEMM call, as a pure function of the
/// output shape `(m, n)` only — never of `k`, data values, or cache state —
/// so the packing layout (and therefore the panel-cache key) is
/// reproducible from the call shape alone.
///
/// Tall-enough outputs take `8×8` (each `B'` load is reused across 8 rows
/// of `C`); short, wide outputs take `4×16` (one `A'` broadcast feeds 16
/// lanes); small leftovers fall back to the `4×8` reference tile. An
/// `8×16` tile was measured and rejected: its sixteen 256-bit accumulators
/// exceed the register file and the spills collapse throughput to ~1/10th
/// of `8×8`.
fn select_tile(m: usize, n: usize) -> Tile {
    if m >= 8 && n >= 8 {
        Tile { r: 8, c: 8 }
    } else if n >= 16 {
        Tile { r: 4, c: 16 }
    } else {
        Tile { r: MR, c: NR }
    }
}

/// `C[m×n] = A[m×k] · B[k×n]`, all row-major. Overwrites `out`.
///
/// # Panics
///
/// Panics (debug and release) if a slice is shorter than its shape implies.
pub fn gemm_nn(m: usize, k: usize, n: usize, a: &[f32], b: &[f32], out: &mut [f32]) {
    gemm(m, k, n, nn_a(a, k), nn_b(b, n), out, false, None);
}

/// `C[m×n] += A[m×k] · B[k×n]`, all row-major.
pub fn gemm_nn_acc(m: usize, k: usize, n: usize, a: &[f32], b: &[f32], out: &mut [f32]) {
    gemm(m, k, n, nn_a(a, k), nn_b(b, n), out, true, None);
}

/// `C[m×n] = Aᵀ · B` where `A` is stored row-major `[k×m]` (so the logical
/// left operand is its transpose) and `B` is `[k×n]`. Overwrites `out`.
pub fn gemm_tn(m: usize, k: usize, n: usize, a: &[f32], b: &[f32], out: &mut [f32]) {
    gemm(m, k, n, tn_a(a, m), nn_b(b, n), out, false, None);
}

/// `C[m×n] = A · Bᵀ` where `A` is `[m×k]` and `B` is stored row-major
/// `[n×k]`. Overwrites `out`.
pub fn gemm_nt(m: usize, k: usize, n: usize, a: &[f32], b: &[f32], out: &mut [f32]) {
    gemm(m, k, n, nn_a(a, k), nt_b(b, k), out, false, None);
}

/// `C[m×n] += A · Bᵀ` where `A` is `[m×k]` and `B` is stored row-major
/// `[n×k]` (used to accumulate conv weight gradients across a batch).
pub fn gemm_nt_acc(m: usize, k: usize, n: usize, a: &[f32], b: &[f32], out: &mut [f32]) {
    gemm(m, k, n, nn_a(a, k), nt_b(b, k), out, true, None);
}

/// [`gemm_nn`] with the `A` operand's packed panels memoized — the conv
/// forward product, where one weight matrix is the left operand for every
/// sample of the batch.
#[allow(clippy::too_many_arguments)] // GEMM shape + stamp + cache: splitting loses clarity
pub fn gemm_nn_a_cached(
    m: usize,
    k: usize,
    n: usize,
    a: &[f32],
    a_stamp: u64,
    b: &[f32],
    out: &mut [f32],
    cache: &mut PanelCache,
) {
    let memo = Some((cache, a_stamp));
    gemm(m, k, n, nn_a(a, k), nn_b(b, n), out, false, memo);
}

/// `A'` of a row-major `[m×k]` left operand.
fn nn_a(a: &[f32], k: usize) -> View<'_> {
    View {
        data: a,
        rs: k,
        cs: 1,
    }
}

/// `A' = Aᵀ` of a left operand stored row-major `[k×m]`.
fn tn_a(a: &[f32], m: usize) -> View<'_> {
    View {
        data: a,
        rs: 1,
        cs: m,
    }
}

/// `B'` of a row-major `[k×n]` right operand.
fn nn_b(b: &[f32], n: usize) -> View<'_> {
    View {
        data: b,
        rs: n,
        cs: 1,
    }
}

/// `B' = Bᵀ` of a right operand stored row-major `[n×k]`.
fn nt_b(b: &[f32], k: usize) -> View<'_> {
    View {
        data: b,
        rs: 1,
        cs: k,
    }
}

/// A memoization request for the left operand: the cache and the
/// operand's generation stamp.
type Memo<'c> = Option<(&'c mut PanelCache, u64)>;

/// GEMM driver: `C[i][j] (+)= Σ_p A'[i][p] · B'[p][j]` with `C` row-major
/// `[m×n]`, zeroed first unless `accumulate`. Picks the tile from the
/// shape, resolves (or builds) a memoized packing of `A'` when it must be
/// packed at all, then runs the blocked kernel.
#[allow(clippy::too_many_arguments)] // GEMM shape + operands + memo: splitting loses clarity
fn gemm(
    m: usize,
    k: usize,
    n: usize,
    a: View<'_>,
    b: View<'_>,
    out: &mut [f32],
    accumulate: bool,
    memo: Memo<'_>,
) {
    assert!(out.len() >= m * n, "output buffer too small for {m}x{n}");
    if !accumulate {
        out[..m * n].fill(0.0);
    }
    if m == 0 || n == 0 || k == 0 {
        return;
    }
    // Both operands as lane-major `lanes × depth` views: A' as is, B'
    // transposed (its lanes are columns).
    let b = b.t();
    let tile = select_tile(m, n);
    let cached_a = match memo {
        Some((cache, stamp)) if !a.in_place(m) => {
            let key = PanelKey {
                stamp,
                lanes: m,
                depth: k,
                rs: a.rs,
                cs: a.cs,
                tile: tile.r,
            };
            let idx = cache.ensure(key, |buf, offsets| pack_all(buf, offsets, a, m, k, tile.r));
            let entry = &cache.entries[idx];
            Some(PanelRef {
                buf: &entry.buf,
                offsets: &entry.offsets,
            })
        }
        _ => None,
    };
    match (tile.r, tile.c) {
        (8, 8) => gemm_blocked::<8, 8>(m, k, n, a, b, cached_a, out),
        (4, 16) => gemm_blocked::<4, 16>(m, k, n, a, b, cached_a, out),
        _ => gemm_blocked::<MR, NR>(m, k, n, a, b, cached_a, out),
    }
}

/// A borrowed, fully packed operand: panel `i` (in driver iteration
/// order) lives at `buf[offsets[i]..]`.
#[derive(Clone, Copy)]
struct PanelRef<'a> {
    buf: &'a [f32],
    offsets: &'a [usize],
}

/// Blocked GEMM over lane-major operand views (`a`: `m × k`, `b`:
/// `n × k`) with tile `R×C`. Each operand panel is read in place, taken
/// from its memoized packing (`A'` only), or packed into thread-local
/// scratch; the micro-kernels see the same values in the same order
/// either way, so results cannot depend on placement or cache state.
fn gemm_blocked<const R: usize, const C: usize>(
    m: usize,
    k: usize,
    n: usize,
    a: View<'_>,
    b: View<'_>,
    cached_a: Option<PanelRef<'_>>,
    out: &mut [f32],
) {
    let num_ic = m.div_ceil(MC);
    let a_in_place = a.in_place(m);
    let b_in_place = b.in_place(n);
    PACK_A.with(|pa| {
        PACK_B.with(|pb| {
            let pa = &mut *pa.borrow_mut();
            let pb = &mut *pb.borrow_mut();
            for jc in (0..n).step_by(NC) {
                let nc = NC.min(n - jc);
                for (pi, pc) in (0..k).step_by(KC).enumerate() {
                    let kc = KC.min(k - pc);
                    pb.clear();
                    pack_panel(pb, b, jc, nc, pc, kc, C, b_in_place);
                    let bp = Panel::new(b, jc, pc, nc, kc, C, b_in_place, pb);
                    for (ii, ic) in (0..m).step_by(MC).enumerate() {
                        let mc = MC.min(m - ic);
                        let ap = match cached_a {
                            Some(p) => {
                                let buf = &p.buf[p.offsets[pi * num_ic + ii]..];
                                Panel::packed(buf, mc, R, kc)
                            }
                            None => {
                                pa.clear();
                                pack_panel(pa, a, ic, mc, pc, kc, R, a_in_place);
                                Panel::new(a, ic, pc, mc, kc, R, a_in_place, pa)
                            }
                        };
                        macro_kernel::<R, C>(&ap, &bp, kc, out, n, ic, jc);
                    }
                }
            }
        })
    });
}

/// Where one micro-tile's operand groups live: the group for depth `p`
/// (the tile's adjacent lanes) starts at `buf[off + p * ld]`.
#[derive(Clone, Copy)]
struct Src<'a> {
    buf: &'a [f32],
    off: usize,
    ld: usize,
}

/// One operand panel (`len` lanes × `kc` depths) as the macro-kernel
/// walks it: `len / w` full tiles of `w` lanes, then at most one ragged
/// edge tile. Full tiles come from `full` (the source itself when read in
/// place, otherwise the packed buffer); the edge tile is always packed.
#[derive(Clone, Copy)]
struct Panel<'a> {
    /// Full tile 0; tile `t` starts `t * step` further on.
    full: Src<'a>,
    step: usize,
    /// The packed edge tile, if the panel has one.
    edge: Src<'a>,
    len: usize,
    w: usize,
}

impl<'a> Panel<'a> {
    /// A panel whose every tile is packed, in [`pack_panel`] layout.
    fn packed(buf: &'a [f32], len: usize, w: usize, kc: usize) -> Self {
        let full = len / w;
        Panel {
            full: Src { buf, off: 0, ld: w },
            step: kc * w,
            edge: Src {
                buf,
                off: full * kc * w,
                ld: w,
            },
            len,
            w,
        }
    }

    /// A panel of lane-major view `v` at lanes `l0..l0 + len`, depths
    /// `pc..pc + kc`, whose [`pack_panel`] output is `packed`: full tiles
    /// are read from `v` itself when `in_place`, otherwise from `packed`.
    #[allow(clippy::too_many_arguments)]
    fn new(
        v: View<'a>,
        l0: usize,
        pc: usize,
        len: usize,
        kc: usize,
        w: usize,
        in_place: bool,
        packed: &'a [f32],
    ) -> Self {
        if !in_place {
            return Panel::packed(packed, len, w, kc);
        }
        Panel {
            full: Src {
                buf: v.data,
                off: l0 + pc * v.cs,
                ld: v.cs,
            },
            step: w,
            edge: Src {
                buf: packed,
                off: 0,
                ld: w,
            },
            len,
            w,
        }
    }

    fn tiles(&self) -> usize {
        self.len.div_ceil(self.w)
    }

    /// Tile `t`: its source and live lanes.
    fn tile(&self, t: usize) -> (Src<'a>, usize) {
        if (t + 1) * self.w <= self.len {
            let src = Src {
                off: self.full.off + t * self.step,
                ..self.full
            };
            (src, self.w)
        } else {
            (self.edge, self.len - t * self.w)
        }
    }
}

/// Append a panel of lane-major view `v` (lanes `l0..l0 + len`, depths
/// `pc..pc + kc`) to `dst`, tile-major: full tile `t` holds lanes
/// `[t*w, t*w + w)` as `kc` groups of `w` adjacent values; a ragged edge
/// follows in the same layout, zero-padded past the live lanes so the
/// micro-kernel never branches on the edge. With
/// `edge_only`, full tiles are skipped (they are read in place).
#[allow(clippy::too_many_arguments)]
fn pack_panel(
    dst: &mut Vec<f32>,
    v: View<'_>,
    l0: usize,
    len: usize,
    pc: usize,
    kc: usize,
    w: usize,
    edge_only: bool,
) {
    let full = len / w;
    if !edge_only {
        for t in 0..full {
            pack_tile(dst, v, l0 + t * w, w, w, pc, kc);
        }
    }
    let live = len - full * w;
    if live > 0 {
        pack_tile(dst, v, l0 + full * w, live, w, pc, kc);
    }
}

/// Append one tile (`live` lanes from `l0`, padded to `width`, a tile
/// width from [`select_tile`]) of `kc` depth groups to `dst`.
fn pack_tile(
    dst: &mut Vec<f32>,
    v: View<'_>,
    l0: usize,
    live: usize,
    width: usize,
    pc: usize,
    kc: usize,
) {
    // A compile-time width keeps the group walk free of a runtime
    // division per tile.
    match width {
        16 => pack_tile_w::<16>(dst, v, l0, live, pc, kc),
        8 => pack_tile_w::<8>(dst, v, l0, live, pc, kc),
        4 => pack_tile_w::<4>(dst, v, l0, live, pc, kc),
        w => unreachable!("no {w}-lane tile: widths come from select_tile"),
    }
}

fn pack_tile_w<const W: usize>(
    dst: &mut Vec<f32>,
    v: View<'_>,
    l0: usize,
    live: usize,
    pc: usize,
    kc: usize,
) {
    let base = dst.len();
    dst.resize(base + kc * W, 0.0);
    let tile = &mut dst[base..];
    if live == W {
        // A full tile: a fixed-length gather per depth, fully unrolled.
        for (p, group) in tile.chunks_exact_mut(W).enumerate() {
            let col = (pc + p) * v.cs;
            for (l, slot) in group.iter_mut().enumerate() {
                *slot = v.data[(l0 + l) * v.rs + col];
            }
        }
        return;
    }
    for (p, group) in tile.chunks_exact_mut(W).enumerate() {
        let col = (pc + p) * v.cs;
        for (l, slot) in group.iter_mut().take(live).enumerate() {
            *slot = v.data[(l0 + l) * v.rs + col];
        }
        // Slots past `live` stay at the zero fill from `resize`.
    }
}

/// Pack every panel of the lane-major left operand `A'` (`lanes × depth`)
/// into `dst`, in the exact order the blocked driver consumes them: depth
/// panels outer and row panels inner (`offsets[pi*num_ic + ii]`).
fn pack_all(
    dst: &mut Vec<f32>,
    offsets: &mut Vec<usize>,
    v: View<'_>,
    lanes: usize,
    depth: usize,
    w: usize,
) {
    dst.clear();
    offsets.clear();
    for pc in (0..depth).step_by(KC) {
        let kc = KC.min(depth - pc);
        for l0 in (0..lanes).step_by(MC) {
            offsets.push(dst.len());
            pack_panel(dst, v, l0, MC.min(lanes - l0), pc, kc, w, false);
        }
    }
}

/// Multiply one `A'` panel by one `B'` panel, committing each micro-tile's
/// partial sum into the row-major `out` (row stride `ldc`; `+=`, since
/// `out` was zeroed by the driver unless accumulating).
fn macro_kernel<const R: usize, const C: usize>(
    ap: &Panel<'_>,
    bp: &Panel<'_>,
    kc: usize,
    out: &mut [f32],
    ldc: usize,
    ic: usize,
    jc: usize,
) {
    for t in 0..ap.tiles() {
        let (asrc, rows) = ap.tile(t);
        for u in 0..bp.tiles() {
            let (bsrc, cols) = bp.tile(u);
            let acc = micro_kernel::<R, C>(asrc, bsrc, kc);
            let o = (ic + t * R) * ldc + jc + u * C;
            for (r, acc_row) in acc.iter().enumerate().take(rows) {
                let crow = &mut out[o + r * ldc..][..cols];
                for (d, v) in crow.iter_mut().zip(acc_row) {
                    *d += v;
                }
            }
        }
    }
}

/// The `R×C` register block: `acc[r][c] += a[p][r] * b[p][c]` over the
/// depth dimension, in ascending `p`, where group `p` of each operand
/// starts at `off + p * ld`. Fixed-size arrays give LLVM exact trip counts
/// for the two inner loops, which unroll into straight-line vector code.
/// Each accumulator lane is an independent dot product, so the tile shape
/// never changes any output element's summation order.
#[inline(always)]
fn micro_kernel<const R: usize, const C: usize>(
    a: Src<'_>,
    b: Src<'_>,
    kc: usize,
) -> [[f32; C]; R] {
    let mut acc = [[0.0f32; C]; R];
    if kc == 0 {
        return acc;
    }
    if a.ld == R && b.ld == C {
        // Both tiles packed: constant strides, so `chunks_exact` needs no
        // runtime division and the loop carries no bounds checks.
        let ag = &a.buf[a.off..][..kc * R];
        let bg = &b.buf[b.off..][..kc * C];
        for (av, bv) in ag.chunks_exact(R).zip(bg.chunks_exact(C)) {
            rank1_update(&mut acc, av, bv);
        }
        return acc;
    }
    // At least one operand is read in place at its source's stride: step
    // through the groups by re-slicing (a per-tile `chunks_exact` with a
    // runtime size would cost two integer divisions, more than a short
    // depth's worth of steps).
    let mut ag = &a.buf[a.off..a.off + (kc - 1) * a.ld + R];
    let mut bg = &b.buf[b.off..b.off + (kc - 1) * b.ld + C];
    for _ in 1..kc {
        rank1_update(&mut acc, &ag[..R], &bg[..C]);
        ag = &ag[a.ld..];
        bg = &bg[b.ld..];
    }
    rank1_update(&mut acc, &ag[..R], &bg[..C]);
    acc
}

/// `acc[r][c] += av[r] * bv[c]` for one depth: `av` holds `R` values,
/// `bv` holds `C`.
#[inline(always)]
fn rank1_update<const R: usize, const C: usize>(acc: &mut [[f32; C]; R], av: &[f32], bv: &[f32]) {
    for (r, acc_row) in acc.iter_mut().enumerate() {
        let x = av[r];
        for (c, slot) in acc_row.iter_mut().enumerate() {
            *slot += x * bv[c];
        }
    }
}

/// Number of memoized packed operands a [`PanelCache`] retains. A conv
/// layer's cache holds its one forward weight packing; the rest is slack
/// for callers that share a cache across layers.
const PANEL_CACHE_CAP: usize = 12;

/// Identity of one memoized packed operand. Two lookups may share an
/// entry only if every field matches: the generation stamp pins the byte
/// content of the source tensor, the shape/stride fields pin which logical
/// operand view was packed, and the tile width pins the packed layout.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct PanelKey {
    stamp: u64,
    /// Lanes (rows) of the packed `A'` view.
    lanes: usize,
    /// Depth of the view (`k`).
    depth: usize,
    /// The lane-major view's strides.
    rs: usize,
    cs: usize,
    /// Register-tile rows `R` — wider tiles interleave differently.
    tile: usize,
}

/// One memoized packed operand (all panels concatenated in driver order).
#[derive(Debug, Clone, Default)]
struct PanelEntry {
    key: Option<PanelKey>,
    buf: Vec<f32>,
    offsets: Vec<usize>,
    last_used: u64,
}

/// A small memo of fully packed GEMM operands, keyed by the owning
/// tensor's generation stamp plus the packed view's shape, strides, and
/// tile width. Lives in conv scratch state so one forward pass packs the
/// weight once per batch instead of once per sample.
///
/// Purely a performance structure: a hit replays byte-identical packed
/// panels (the stamp changes whenever the source tensor is mutated), so
/// results never depend on hits, misses, capacity, or eviction order.
#[derive(Debug, Clone, Default)]
pub struct PanelCache {
    entries: Vec<PanelEntry>,
    clock: u64,
    hits: u64,
    misses: u64,
}

impl PanelCache {
    /// An empty cache.
    pub fn new() -> Self {
        PanelCache::default()
    }

    /// Lookups that replayed an existing packed operand.
    pub fn hits(&self) -> u64 {
        self.hits
    }

    /// Lookups that had to pack (first sight of a stamp/view, or after
    /// eviction).
    pub fn misses(&self) -> u64 {
        self.misses
    }

    /// Drop every memoized operand (counters survive).
    pub fn clear(&mut self) {
        self.entries.clear();
    }

    /// Find or build the entry for `key`; returns its index. Eviction is
    /// least-recently-used over a deterministic insertion order.
    fn ensure(
        &mut self,
        key: PanelKey,
        pack: impl FnOnce(&mut Vec<f32>, &mut Vec<usize>),
    ) -> usize {
        self.clock += 1;
        if let Some(i) = self.entries.iter().position(|e| e.key == Some(key)) {
            self.entries[i].last_used = self.clock;
            self.hits += 1;
            return i;
        }
        self.misses += 1;
        let i = if self.entries.len() < PANEL_CACHE_CAP {
            self.entries.push(PanelEntry::default());
            self.entries.len() - 1
        } else {
            self.entries
                .iter()
                .enumerate()
                .min_by_key(|(_, e)| e.last_used)
                .map(|(i, _)| i)
                .expect("cache at capacity is non-empty")
        };
        let e = &mut self.entries[i];
        e.key = Some(key);
        e.last_used = self.clock;
        pack(&mut e.buf, &mut e.offsets);
        i
    }
}

/// Fused bias-add + ReLU forward over a row-major `[rows×cols]` activation
/// buffer: `y = max(y + bias, 0)` in one pass, recording the post-bias
/// positive mask for the backward pass. `mask` is cleared and refilled.
///
/// # Panics
///
/// Panics if `bias.len() != cols` or `y.len() != rows * cols`.
pub fn bias_relu_forward(
    y: &mut [f32],
    rows: usize,
    cols: usize,
    bias: &[f32],
    mask: &mut Vec<bool>,
) {
    assert_eq!(bias.len(), cols, "bias width mismatch");
    assert_eq!(y.len(), rows * cols, "activation buffer shape mismatch");
    // Size the mask up front and write it in lockstep with `y`: pushing
    // element by element would keep the loop from vectorizing.
    mask.clear();
    mask.resize(rows * cols, false);
    for (row, mrow) in y.chunks_exact_mut(cols).zip(mask.chunks_exact_mut(cols)) {
        for ((v, m), &b) in row.iter_mut().zip(mrow).zip(bias) {
            let z = *v + b;
            *m = z > 0.0;
            *v = if z > 0.0 { z } else { 0.0 };
        }
    }
}

/// Inference-only fused bias-add + ReLU (no mask recording).
///
/// # Panics
///
/// Panics if `bias.len() != cols` or `y.len() != rows * cols`.
pub fn bias_relu_inference(y: &mut [f32], rows: usize, cols: usize, bias: &[f32]) {
    assert_eq!(bias.len(), cols, "bias width mismatch");
    assert_eq!(y.len(), rows * cols, "activation buffer shape mismatch");
    for row in y.chunks_exact_mut(cols) {
        for (v, &b) in row.iter_mut().zip(bias) {
            let z = *v + b;
            *v = if z > 0.0 { z } else { 0.0 };
        }
    }
}

/// Fused ReLU-mask backward: zero `g[i]` wherever the forward activation
/// was non-positive, in place.
///
/// # Panics
///
/// Panics if `g.len() != mask.len()`.
pub fn relu_mask_backward(g: &mut [f32], mask: &[bool]) {
    assert_eq!(g.len(), mask.len(), "gradient/mask length mismatch");
    for (v, &keep) in g.iter_mut().zip(mask) {
        if !keep {
            *v = 0.0;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Naive reference: plain triple loop, ascending-p accumulation.
    fn reference(m: usize, k: usize, n: usize, a: &[f32], b: &[f32]) -> Vec<f32> {
        let mut out = vec![0.0f32; m * n];
        for i in 0..m {
            for j in 0..n {
                let mut acc = 0.0f32;
                for p in 0..k {
                    acc += a[i * k + p] * b[p * n + j];
                }
                out[i * n + j] = acc;
            }
        }
        out
    }

    /// The historical fixed-tile kernel (4×8): every wider or in-place
    /// variant must match it bit for bit, on every shape and stride
    /// pattern.
    #[allow(clippy::too_many_arguments)]
    fn gemm_4x8(
        m: usize,
        k: usize,
        n: usize,
        a: &[f32],
        a_rs: usize,
        a_cs: usize,
        b: &[f32],
        b_rs: usize,
        b_cs: usize,
        out: &mut [f32],
    ) {
        out[..m * n].fill(0.0);
        let a = View {
            data: a,
            rs: a_rs,
            cs: a_cs,
        };
        let b = View {
            data: b,
            rs: b_rs,
            cs: b_cs,
        };
        gemm_blocked::<MR, NR>(m, k, n, a, b.t(), None, out);
    }

    fn pseudo(n: usize, salt: u64) -> Vec<f32> {
        (0..n)
            .map(|i| {
                let h = (i as u64)
                    .wrapping_mul(0x9E3779B97F4A7C15)
                    .wrapping_add(salt);
                ((h >> 40) as f32 / 8388608.0) - 1.0
            })
            .collect()
    }

    #[test]
    fn gemm_nn_matches_reference_over_shapes() {
        // Shapes straddle every tile boundary: below, at, and above MR/NR,
        // and above KC to exercise multi-panel depth reduction.
        for &(m, k, n) in &[
            (1, 1, 1),
            (3, 5, 7),
            (4, 8, 8),
            (5, 9, 17),
            (16, 24, 128),
            (16, 128, 10),
            (65, 300, 70),
        ] {
            let a = pseudo(m * k, 1);
            let b = pseudo(k * n, 2);
            let mut out = vec![f32::NAN; m * n];
            gemm_nn(m, k, n, &a, &b, &mut out);
            let want = reference(m, k, n, &a, &b);
            for (i, (&got, &w)) in out.iter().zip(&want).enumerate() {
                assert!(
                    (got - w).abs() <= 1e-4 * w.abs().max(1.0),
                    "({m},{k},{n}) elem {i}: {got} vs {w}"
                );
            }
        }
    }

    #[test]
    fn gemm_nn_single_panel_is_bitwise_ascending_order() {
        // For k ≤ KC the kernel must reproduce the naive ascending-p sum
        // bit for bit — this is what keeps pinned experiment seeds valid.
        let (m, k, n) = (7, 129, 33);
        let a = pseudo(m * k, 3);
        let b = pseudo(k * n, 4);
        let mut out = vec![0.0f32; m * n];
        gemm_nn(m, k, n, &a, &b, &mut out);
        assert_eq!(out, reference(m, k, n, &a, &b));
    }

    #[test]
    fn widened_tiles_match_4x8_bitwise_across_tile_boundaries() {
        // Every dispatchable shape class, with m and n straddling each
        // MR/NR boundary (below / at / above 4, 8, 16) and k crossing the
        // KC panel boundary: the dispatched kernel must equal the 4×8
        // reference bit for bit, because widening a register tile never
        // reorders any single element's reduction.
        for &m in &[1, 3, 4, 5, 7, 8, 9, 16, 17, 65] {
            for &n in &[1, 7, 8, 9, 15, 16, 17, 33] {
                for &k in &[1, 4, 129, 257] {
                    let a = pseudo(m * k, (m * 31 + n) as u64);
                    let b = pseudo(k * n, (n * 17 + k) as u64);
                    let mut got = vec![f32::NAN; m * n];
                    gemm_nn(m, k, n, &a, &b, &mut got);
                    let mut want = vec![f32::NAN; m * n];
                    gemm_4x8(m, k, n, &a, k, 1, &b, n, 1, &mut want);
                    let gb: Vec<u32> = got.iter().map(|v| v.to_bits()).collect();
                    let wb: Vec<u32> = want.iter().map(|v| v.to_bits()).collect();
                    assert_eq!(gb, wb, "({m},{k},{n}) diverged from the 4x8 tile");
                }
            }
        }
    }

    #[test]
    fn transposed_variants_match_4x8_bitwise() {
        // The strided views (T·N reads A column-major, N·T reads B
        // row-transposed) under every tile the dispatcher can pick.
        for &(m, k, n) in &[(9, 14, 11), (17, 40, 19), (8, 300, 16), (33, 12, 65)] {
            let a_tn = pseudo(k * m, 5);
            let b = pseudo(k * n, 6);
            let mut got = vec![0.0f32; m * n];
            gemm_tn(m, k, n, &a_tn, &b, &mut got);
            let mut want = vec![0.0f32; m * n];
            gemm_4x8(m, k, n, &a_tn, 1, m, &b, n, 1, &mut want);
            assert_eq!(
                got.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
                want.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
                "tn ({m},{k},{n})"
            );
            let a = pseudo(m * k, 7);
            let b_nt = pseudo(n * k, 8);
            let mut got = vec![0.0f32; m * n];
            gemm_nt(m, k, n, &a, &b_nt, &mut got);
            let mut want = vec![0.0f32; m * n];
            gemm_4x8(m, k, n, &a, k, 1, &b_nt, 1, k, &mut want);
            assert_eq!(
                got.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
                want.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
                "nt ({m},{k},{n})"
            );
        }
    }

    #[test]
    fn gemm_tn_matches_transposed_reference() {
        let (m, k, n) = (13, 6, 21); // A stored [k×m]
        let a = pseudo(k * m, 5);
        let b = pseudo(k * n, 6);
        let mut at = vec![0.0f32; m * k];
        for p in 0..k {
            for i in 0..m {
                at[i * k + p] = a[p * m + i];
            }
        }
        let mut out = vec![0.0f32; m * n];
        gemm_tn(m, k, n, &a, &b, &mut out);
        assert_eq!(out, reference(m, k, n, &at, &b));
    }

    #[test]
    fn gemm_nt_matches_transposed_reference() {
        let (m, k, n) = (9, 14, 11); // B stored [n×k]
        let a = pseudo(m * k, 7);
        let b = pseudo(n * k, 8);
        let mut bt = vec![0.0f32; k * n];
        for j in 0..n {
            for p in 0..k {
                bt[p * n + j] = b[j * k + p];
            }
        }
        let mut out = vec![0.0f32; m * n];
        gemm_nt(m, k, n, &a, &b, &mut out);
        assert_eq!(out, reference(m, k, n, &a, &bt));
    }

    #[test]
    fn accumulate_variants_add_to_existing() {
        let (m, k, n) = (5, 4, 6);
        let a = pseudo(m * k, 9);
        let b = pseudo(k * n, 10);
        let mut out = vec![1.0f32; m * n];
        gemm_nn_acc(m, k, n, &a, &b, &mut out);
        let want = reference(m, k, n, &a, &b);
        for (got, w) in out.iter().zip(&want) {
            assert!((got - (w + 1.0)).abs() < 1e-5);
        }
    }

    #[test]
    fn zero_k_zeroes_output_unless_accumulating() {
        let mut out = vec![3.0f32; 4];
        gemm_nn(2, 0, 2, &[], &[], &mut out);
        assert_eq!(out, vec![0.0; 4]);
        let mut out = vec![3.0f32; 4];
        gemm_nn_acc(2, 0, 2, &[], &[], &mut out);
        assert_eq!(out, vec![3.0; 4]);
    }

    #[test]
    fn nan_propagates_through_gemm() {
        // The old zero-skip silently dropped `0 * NaN`; the kernel must
        // keep IEEE semantics so poisoned payloads reach quarantine.
        let a = [0.0f32, 0.0];
        let b = [f32::NAN, 1.0, 2.0, 3.0];
        let mut out = [0.0f32; 2];
        gemm_nn(1, 2, 2, &a, &b, &mut out);
        assert!(out[0].is_nan(), "0·NaN must stay NaN");
    }

    #[test]
    fn panel_cache_hits_replay_bitwise_identical_results() {
        // The conv forward product: its weight is the strided left
        // operand, packed once per stamp and then replayed.
        let (oc, fan_in, hw) = (8, 18, 64);
        let w = pseudo(oc * fan_in, 11);
        let cols = pseudo(fan_in * hw, 12);
        let mut cache = PanelCache::new();
        let mut uncached = vec![0.0f32; oc * hw];
        gemm_nn(oc, fan_in, hw, &w, &cols, &mut uncached);
        let mut first = vec![0.0f32; oc * hw];
        gemm_nn_a_cached(oc, fan_in, hw, &w, 77, &cols, &mut first, &mut cache);
        assert_eq!((cache.hits(), cache.misses()), (0, 1));
        let mut second = vec![f32::NAN; oc * hw];
        gemm_nn_a_cached(oc, fan_in, hw, &w, 77, &cols, &mut second, &mut cache);
        assert_eq!((cache.hits(), cache.misses()), (1, 1));
        for ((u, f), s) in uncached.iter().zip(&first).zip(&second) {
            assert_eq!(u.to_bits(), f.to_bits());
            assert_eq!(u.to_bits(), s.to_bits());
        }
    }

    #[test]
    fn panel_cache_misses_on_stamp_and_shape_changes() {
        let (m, k, n) = (8, 10, 16);
        let a = pseudo(m * k, 13);
        let b = pseudo(k * n, 14);
        let mut cache = PanelCache::new();
        let mut out = vec![0.0f32; m * n];
        gemm_nn_a_cached(m, k, n, &a, 1, &b, &mut out, &mut cache);
        // A new stamp (mutated tensor) must repack.
        gemm_nn_a_cached(m, k, n, &a, 2, &b, &mut out, &mut cache);
        assert_eq!((cache.hits(), cache.misses()), (0, 2));
        // The same storage read under another shape is a distinct entry...
        let mut out_t = vec![0.0f32; k * k];
        gemm_nn_a_cached(k, m, k, &a, 2, &a, &mut out_t, &mut cache);
        assert_eq!((cache.hits(), cache.misses()), (0, 3));
        // ...and each repeat lookup hits its own entry.
        gemm_nn_a_cached(m, k, n, &a, 2, &b, &mut out, &mut cache);
        gemm_nn_a_cached(k, m, k, &a, 2, &a, &mut out_t, &mut cache);
        assert_eq!((cache.hits(), cache.misses()), (2, 3));
    }

    #[test]
    fn panel_cache_eviction_keeps_results_correct() {
        // Thrash far past capacity with distinct stamps; every call must
        // still match the uncached kernel bit for bit.
        let (m, k, n) = (5, 7, 9);
        let b = pseudo(k * n, 16);
        let mut cache = PanelCache::new();
        for stamp in 0..(PANEL_CACHE_CAP as u64 * 3) {
            let a = pseudo(m * k, 100 + stamp);
            let mut got = vec![0.0f32; m * n];
            gemm_nn_a_cached(m, k, n, &a, stamp, &b, &mut got, &mut cache);
            let mut want = vec![0.0f32; m * n];
            gemm_nn(m, k, n, &a, &b, &mut want);
            assert_eq!(
                got.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
                want.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
                "stamp {stamp}"
            );
        }
        assert_eq!(cache.misses(), PANEL_CACHE_CAP as u64 * 3);
    }

    #[test]
    fn bias_relu_forward_matches_separate_passes() {
        let rows = 3;
        let cols = 5;
        let mut y = pseudo(rows * cols, 11);
        let bias = pseudo(cols, 12);
        let mut want = y.clone();
        for row in want.chunks_exact_mut(cols) {
            for (v, &b) in row.iter_mut().zip(&bias) {
                *v += b;
                if *v < 0.0 {
                    *v = 0.0;
                }
            }
        }
        // A stale, wrongly sized mask must be replaced, not appended to.
        let mut mask = vec![true; 2];
        bias_relu_forward(&mut y, rows, cols, &bias, &mut mask);
        assert_eq!(y, want);
        assert_eq!(mask.len(), rows * cols);
        for (v, &keep) in y.iter().zip(&mask) {
            assert_eq!(keep, *v > 0.0);
        }
    }

    #[test]
    fn relu_mask_backward_zeroes_dead_units() {
        let mut g = vec![1.0f32, 2.0, 3.0];
        relu_mask_backward(&mut g, &[true, false, true]);
        assert_eq!(g, vec![1.0, 0.0, 3.0]);
    }
}
