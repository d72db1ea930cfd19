//! Pluggable render backends behind one trait.
//!
//! The splat pipeline's forward kernels — projection (①), tile binning (②)
//! and rasterization (③) — sit behind [`RenderBackend`] so alternative
//! implementations can slot in per stream. The backward pass (④) is shared:
//! it walks the [`crate::render::BlendLog`] the forward tile kernel records,
//! so it never re-evaluates a splat. Two CPU backends ship today:
//!
//! * [`ReferenceBackend`] — the scalar row kernels in [`crate::render`],
//!   the bit-exactness anchor every other backend is measured against.
//! * [`VectorizedBackend`] — repacks each tile's Gaussian table into
//!   structure-of-arrays slabs and evaluates the Mahalanobis quadratic four
//!   pixels wide with `std::arch` SSE2/NEON kernels (portable chunked
//!   fallback elsewhere), plus an α-cut that skips the `exp` for provably
//!   negligible pixels. **Bit-identical to the reference**: per-lane SIMD
//!   mul/add/sub are IEEE-exact, the quadratic replicates the scalar
//!   operation order term for term, and blending keeps the scalar branch
//!   structure — so outputs, blend logs (hence gradients) and every workload
//!   counter match the reference bit for bit (enforced by the tests in this module and by the
//!   determinism suites running under `AGS_RENDER_BACKEND=vectorized`).
//!
//! A future `wgpu` backend implements the same trait; the sorted table
//! layout produced by [`RenderBackend::build_tables`] is the inter-stage
//! contract it must honour.

use crate::gaussian::GaussianCloud;
use crate::idset::IdSet;
use crate::project::{project_gaussians, Projection};
use crate::render::{
    rasterize_tile, splat_covers_tile, Contribution, RenderOptions, TileLog, TileRaster,
};
use crate::tiles::{GaussianTables, TableEntry};
use crate::{ALPHA_THRESHOLD, TILE_SIZE, TRANSMITTANCE_MIN};
use ags_math::parallel::Parallelism;
use ags_math::{Se3, Vec3};
use ags_scene::PinholeCamera;
use std::sync::OnceLock;

/// Which render backend executes the splat kernels.
///
/// The default is read once from the `AGS_RENDER_BACKEND` environment
/// variable (`"reference"` or `"vectorized"`), falling back to
/// [`BackendKind::Reference`] — which lets CI re-run the entire test suite
/// under the vectorized kernels without touching any call site.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BackendKind {
    /// Scalar row kernels — the bit-exact reference implementation.
    Reference,
    /// SoA + SIMD kernels, bit-identical to the reference (see module docs).
    Vectorized,
}

impl Default for BackendKind {
    fn default() -> Self {
        static DEFAULT: OnceLock<BackendKind> = OnceLock::new();
        *DEFAULT.get_or_init(|| match std::env::var("AGS_RENDER_BACKEND") {
            Ok(name) => BackendKind::from_name(&name)
                .unwrap_or_else(|| panic!("unknown AGS_RENDER_BACKEND value: {name:?}")),
            Err(_) => BackendKind::Reference,
        })
    }
}

impl BackendKind {
    /// Stable lower-case name (used in stats, benches and the env knob).
    pub fn name(self) -> &'static str {
        match self {
            BackendKind::Reference => "reference",
            BackendKind::Vectorized => "vectorized",
        }
    }

    /// Parses a [`BackendKind::name`] back into the kind.
    pub fn from_name(name: &str) -> Option<Self> {
        match name {
            "reference" => Some(BackendKind::Reference),
            "vectorized" => Some(BackendKind::Vectorized),
            _ => None,
        }
    }

    /// The backend implementation for this kind (static, zero-cost).
    pub fn backend(self) -> &'static dyn RenderBackend {
        match self {
            BackendKind::Reference => &ReferenceBackend,
            BackendKind::Vectorized => &VectorizedBackend,
        }
    }
}

/// One implementation of the forward splat kernels.
///
/// Steps ① (projection) and ② (binning) have shared default bodies — their
/// outputs are the inter-stage contract (sorted per-tile tables of
/// [`TableEntry`]), and a backend overriding them must reproduce the same
/// entries in the same order. Step ③ is the per-tile hot loop each backend
/// supplies; its blend log is the contract with the shared backward pass.
pub trait RenderBackend: Send + Sync + std::fmt::Debug {
    /// Which [`BackendKind`] this backend implements.
    fn kind(&self) -> BackendKind;

    /// Stable short name (used in stream stats and bench output).
    fn name(&self) -> &'static str {
        self.kind().name()
    }

    /// Step ①: projects the cloud to screen-space splats.
    fn project(&self, cloud: &GaussianCloud, camera: &PinholeCamera, pose: &Se3) -> Projection {
        project_gaussians(cloud, camera, pose)
    }

    /// Step ②: bins projected splats into depth-sorted per-tile tables.
    fn build_tables(
        &self,
        projection: &Projection,
        camera: &PinholeCamera,
        parallelism: &Parallelism,
    ) -> GaussianTables {
        GaussianTables::build_with(projection, camera, parallelism)
    }

    /// Step ③: rasterizes one tile into tile-local buffers and, with a
    /// `log`, records every pixel's blend list (in blend order) into it.
    fn rasterize_tile(
        &self,
        projection: &Projection,
        table: &[TableEntry],
        bounds: (usize, usize, usize, usize),
        tile_idx: usize,
        options: &RenderOptions,
        log: Option<&mut TileLog>,
    ) -> TileRaster;
}

/// The scalar reference backend — today's row kernels, unchanged.
#[derive(Debug)]
pub struct ReferenceBackend;

impl RenderBackend for ReferenceBackend {
    fn kind(&self) -> BackendKind {
        BackendKind::Reference
    }

    fn rasterize_tile(
        &self,
        projection: &Projection,
        table: &[TableEntry],
        bounds: (usize, usize, usize, usize),
        tile_idx: usize,
        options: &RenderOptions,
        log: Option<&mut TileLog>,
    ) -> TileRaster {
        rasterize_tile(projection, table, bounds, tile_idx, options, log)
    }
}

/// The SoA/SIMD backend (see module docs for the bit-identity argument).
#[derive(Debug)]
pub struct VectorizedBackend;

impl RenderBackend for VectorizedBackend {
    fn kind(&self) -> BackendKind {
        BackendKind::Vectorized
    }

    fn rasterize_tile(
        &self,
        projection: &Projection,
        table: &[TableEntry],
        bounds: (usize, usize, usize, usize),
        tile_idx: usize,
        options: &RenderOptions,
        log: Option<&mut TileLog>,
    ) -> TileRaster {
        rasterize_tile_vec(projection, table, bounds, tile_idx, options, log)
    }
}

// ---------------------------------------------------------------------------
// Row-wide Mahalanobis quadratic kernel.
// ---------------------------------------------------------------------------

/// Per-(entry, row) coefficients of the Mahalanobis quadratic
/// `q(x) = a·dx² + 2b·dx·dy + c·dy²` with `dy` fixed for the row.
///
/// `s2b = 2·b` and `t3 = (c·dy)·dy` are precomputed with exactly the scalar
/// reference's operation order, so the per-lane evaluation
/// `q = ((a·dx)·dx + ((s2b·dx)·dy)) + t3` reproduces
/// [`crate::project::falloff`]'s quadratic bit for bit (f32 `*`/`+`/`-` are
/// IEEE-exact per lane on every SIMD path used here).
#[derive(Clone, Copy)]
struct QuadCoeffs {
    mean_x: f32,
    a: f32,
    s2b: f32,
    dy: f32,
    t3: f32,
}

/// Scalar evaluation of one lane, shared by every tail/fallback path.
#[inline(always)]
fn quad_lane(fx: f32, c: &QuadCoeffs) -> f32 {
    let dx = fx - c.mean_x;
    let t1 = (c.a * dx) * dx;
    let t2 = (c.s2b * dx) * c.dy;
    (t1 + t2) + c.t3
}

/// Evaluates the quadratic for a row of pixel centers `fx` into `out`.
#[inline]
fn quad_row(fx: &[f32], out: &mut [f32], c: &QuadCoeffs) {
    debug_assert!(out.len() >= fx.len());
    #[cfg(all(target_arch = "x86_64", target_feature = "sse2"))]
    {
        quad_row_sse2(fx, out, c);
    }
    #[cfg(target_arch = "aarch64")]
    {
        quad_row_neon(fx, out, c);
    }
    #[cfg(not(any(
        all(target_arch = "x86_64", target_feature = "sse2"),
        target_arch = "aarch64"
    )))]
    {
        quad_row_portable(fx, out, c);
    }
}

/// Name of the active quadratic row kernel (for bench/diagnostic output).
pub fn quad_kernel_name() -> &'static str {
    #[cfg(all(target_arch = "x86_64", target_feature = "sse2"))]
    {
        "sse2"
    }
    #[cfg(target_arch = "aarch64")]
    {
        "neon"
    }
    #[cfg(not(any(
        all(target_arch = "x86_64", target_feature = "sse2"),
        target_arch = "aarch64"
    )))]
    {
        "portable"
    }
}

/// SSE2 quadratic row: four lanes of `dx = fx - μx`, `(a·dx)·dx`,
/// `(2b·dx)·dy` and the final adds — each a per-lane IEEE operation, so the
/// result is bit-identical to [`quad_lane`].
#[cfg(all(target_arch = "x86_64", target_feature = "sse2"))]
#[inline]
fn quad_row_sse2(fx: &[f32], out: &mut [f32], c: &QuadCoeffs) {
    use std::arch::x86_64::{
        _mm_add_ps, _mm_loadu_ps, _mm_mul_ps, _mm_set1_ps, _mm_storeu_ps, _mm_sub_ps,
    };
    let n = fx.len();
    let mut i = 0usize;
    // SAFETY: SSE2 is statically enabled (cfg above); each unaligned load and
    // store touches 4 f32s at `i` with `i + 4 <= n`, inside both slices
    // (`out.len() >= fx.len()` is debug-asserted by the dispatcher and
    // guaranteed by the callers' fixed-size row buffers).
    unsafe {
        let va = _mm_set1_ps(c.a);
        let vs2b = _mm_set1_ps(c.s2b);
        let vdy = _mm_set1_ps(c.dy);
        let vt3 = _mm_set1_ps(c.t3);
        let vmx = _mm_set1_ps(c.mean_x);
        while i + 4 <= n {
            let vfx = _mm_loadu_ps(fx.as_ptr().add(i));
            let dx = _mm_sub_ps(vfx, vmx);
            let t1 = _mm_mul_ps(_mm_mul_ps(va, dx), dx);
            let t2 = _mm_mul_ps(_mm_mul_ps(vs2b, dx), vdy);
            let q = _mm_add_ps(_mm_add_ps(t1, t2), vt3);
            _mm_storeu_ps(out.as_mut_ptr().add(i), q);
            i += 4;
        }
    }
    while i < n {
        out[i] = quad_lane(fx[i], c);
        i += 1;
    }
}

/// NEON quadratic row: the same per-lane IEEE operations as the SSE2 kernel
/// (`vmulq_f32`/`vaddq_f32`/`vsubq_f32` do not fuse), four lanes wide.
#[cfg(target_arch = "aarch64")]
#[inline]
fn quad_row_neon(fx: &[f32], out: &mut [f32], c: &QuadCoeffs) {
    use std::arch::aarch64::{vaddq_f32, vdupq_n_f32, vld1q_f32, vmulq_f32, vst1q_f32, vsubq_f32};
    let n = fx.len();
    let mut i = 0usize;
    // SAFETY: NEON is baseline on aarch64; each load/store touches 4 f32s at
    // `i` with `i + 4 <= n`, inside both slices.
    unsafe {
        let va = vdupq_n_f32(c.a);
        let vs2b = vdupq_n_f32(c.s2b);
        let vdy = vdupq_n_f32(c.dy);
        let vt3 = vdupq_n_f32(c.t3);
        let vmx = vdupq_n_f32(c.mean_x);
        while i + 4 <= n {
            let vfx = vld1q_f32(fx.as_ptr().add(i));
            let dx = vsubq_f32(vfx, vmx);
            let t1 = vmulq_f32(vmulq_f32(va, dx), dx);
            let t2 = vmulq_f32(vmulq_f32(vs2b, dx), vdy);
            let q = vaddq_f32(vaddq_f32(t1, t2), vt3);
            vst1q_f32(out.as_mut_ptr().add(i), q);
            i += 4;
        }
    }
    while i < n {
        out[i] = quad_lane(fx[i], c);
        i += 1;
    }
}

/// Width of the portable lane group (one SSE2/NEON register of f32s).
#[allow(dead_code)] // only the fallback target dispatches to it
const QUAD_LANES: usize = 4;

/// Portable quadratic row: fixed-width lane groups plus a scalar tail. The
/// lanes are independent per-element f32 chains, so the branch-free inner
/// loop autovectorises while staying bit-identical to [`quad_lane`].
#[allow(dead_code)]
#[inline]
fn quad_row_portable(fx: &[f32], out: &mut [f32], c: &QuadCoeffs) {
    let n = fx.len();
    let mut i = 0usize;
    while i + QUAD_LANES <= n {
        for l in 0..QUAD_LANES {
            out[i + l] = quad_lane(fx[i + l], c);
        }
        i += QUAD_LANES;
    }
    while i < n {
        out[i] = quad_lane(fx[i], c);
        i += 1;
    }
}

// ---------------------------------------------------------------------------
// α-threshold cut.
// ---------------------------------------------------------------------------

/// Quadratic cut above which a splat's α is provably negligible: any `q`
/// with `q > qcut(opacity)` has `(opacity·exp(-½q)).min(0.99) <
/// ALPHA_THRESHOLD`, so the `exp` — whose value the scalar path computes and
/// then discards on that branch — can be skipped without changing anything
/// observable.
///
/// Derived in f64 with a `+0.5` margin: `q > 2·ln(o/τ) + 0.5` implies
/// `o·exp(-½q) < τ·e^(-0.25) ≈ 0.78·τ`, a 22 % gap that f32 `exp` and
/// multiply rounding (a few ulp) cannot bridge — the classification is
/// value-identical to evaluating α and comparing (tested below).
#[inline]
fn qcut(opacity: f32) -> f32 {
    (2.0 * (opacity as f64 / ALPHA_THRESHOLD as f64).ln() + 0.5) as f32
}

// ---------------------------------------------------------------------------
// SoA tile slab.
// ---------------------------------------------------------------------------

/// Structure-of-arrays repack of one tile's Gaussian table: the per-entry
/// fields the row kernels stream, split into contiguous slabs.
struct TileSlab {
    mean_x: Vec<f32>,
    mean_y: Vec<f32>,
    a: Vec<f32>,
    s2b: Vec<f32>,
    c: Vec<f32>,
    opacity: Vec<f32>,
    qcut: Vec<f32>,
    color: Vec<Vec3>,
    depth: Vec<f32>,
    skipped: Vec<bool>,
    interior: Vec<bool>,
}

impl TileSlab {
    const fn new() -> Self {
        Self {
            mean_x: Vec::new(),
            mean_y: Vec::new(),
            a: Vec::new(),
            s2b: Vec::new(),
            c: Vec::new(),
            opacity: Vec::new(),
            qcut: Vec::new(),
            color: Vec::new(),
            depth: Vec::new(),
            skipped: Vec::new(),
            interior: Vec::new(),
        }
    }

    fn clear(&mut self) {
        self.mean_x.clear();
        self.mean_y.clear();
        self.a.clear();
        self.s2b.clear();
        self.c.clear();
        self.opacity.clear();
        self.qcut.clear();
        self.color.clear();
        self.depth.clear();
        self.skipped.clear();
        self.interior.clear();
    }

    /// Fills the slab from a tile's table, classifying each entry against
    /// the tile `bounds` for the interior fast path.
    fn fill(
        &mut self,
        projection: &Projection,
        table: &[TableEntry],
        skip: Option<&IdSet>,
        bounds: (usize, usize, usize, usize),
    ) {
        self.clear();
        for entry in table {
            let splat = &projection.splats[entry.splat_index as usize];
            let skipped = skip.is_some_and(|s| s.contains(splat.id as usize));
            let (ca, cb, cc) = splat.conic;
            self.mean_x.push(splat.mean.x);
            self.mean_y.push(splat.mean.y);
            self.a.push(ca);
            self.s2b.push(2.0 * cb);
            self.c.push(cc);
            self.opacity.push(splat.opacity);
            self.qcut.push(qcut(splat.opacity));
            self.color.push(splat.color);
            self.depth.push(splat.depth);
            self.skipped.push(skipped);
            self.interior.push(!skipped && splat_covers_tile(splat, bounds));
        }
    }
}

std::thread_local! {
    /// Per-worker slab, reused across tiles (and across passes on long-lived
    /// threads) so the SoA repack costs no allocation on the hot path.
    static SLAB_SCRATCH: std::cell::RefCell<TileSlab> =
        const { std::cell::RefCell::new(TileSlab::new()) };
}

// ---------------------------------------------------------------------------
// Vectorized forward tile kernel.
// ---------------------------------------------------------------------------

/// One slab entry's walk over a pixel row: the SoA fields plus the row-local
/// accumulators it blends into (the vectorized twin of `render::RowPass`).
struct VecRowPass<'a> {
    splat_index: u32,
    opacity: f32,
    color: Vec3,
    depth: f32,
    qcut: f32,
    /// Precomputed `q` per pixel of the row (from [`quad_row`]).
    qrow: &'a [f32],
    /// `(id, touched, negligible)` counters of this entry, when recording.
    contrib: Option<&'a mut (u32, u32, u32)>,
    /// The row's blend-log lanes, when logging.
    log: Option<&'a mut [Vec<Contribution>]>,
    active: &'a mut Vec<u32>,
    row_t: &'a mut [f32],
    row_c: &'a mut [Vec3],
    row_d: &'a mut [f32],
    row_evals: &'a mut [u32],
    row_blends: &'a mut [u32],
    early_terminated: &'a mut u64,
}

/// Blends one slab entry across a row's active pixels, consuming the
/// vector-evaluated `q` row. Branch structure and blend arithmetic replicate
/// `render::blend_entry_row` exactly; the only deviation is the α-cut
/// (`q > qcut`), which skips an `exp` whose value the scalar path provably
/// discards — so counters and outputs stay bit-identical. `LOG` gates the
/// blend-log recording as in the scalar kernel.
#[inline(always)]
fn blend_entry_row_vec<const INTERIOR: bool, const LOG: bool>(pass: &mut VecRowPass<'_>) {
    let mut i = 0usize;
    while i < pass.active.len() {
        let px_off = pass.active[i] as usize;
        pass.row_evals[px_off] += 1;
        let q = pass.qrow[px_off];
        if !INTERIOR && (q < 0.0 || q > pass.qcut) {
            // Provably negligible: the scalar path computes α here, records
            // the same counters, and takes its `alpha < ALPHA_THRESHOLD`
            // continue. α's value is never observed, so exp is skipped.
            if let Some(entry_stats) = pass.contrib.as_deref_mut() {
                entry_stats.1 += 1;
                entry_stats.2 += 1;
            }
            i += 1;
            continue;
        }
        let g = if q < 0.0 { 0.0 } else { (-0.5 * q).exp() };
        let raw_alpha = pass.opacity * g;
        let alpha = raw_alpha.min(0.99);
        if INTERIOR {
            debug_assert!(alpha >= ALPHA_THRESHOLD, "interior test must be conservative");
        }
        if let Some(entry_stats) = pass.contrib.as_deref_mut() {
            entry_stats.1 += 1;
            if !INTERIOR && alpha < ALPHA_THRESHOLD {
                entry_stats.2 += 1;
            }
        }
        if !INTERIOR && alpha < ALPHA_THRESHOLD {
            i += 1;
            continue;
        }
        pass.row_blends[px_off] += 1;
        let t = pass.row_t[px_off];
        if let Some(lanes) = pass.log.as_deref_mut().filter(|_| LOG) {
            lanes[px_off].push(Contribution {
                splat_index: pass.splat_index,
                alpha,
                weight: g,
                t_before: t,
                clamped: raw_alpha > 0.99,
            });
        }
        pass.row_c[px_off] += pass.color * (t * alpha);
        pass.row_d[px_off] += pass.depth * (t * alpha);
        let t = t * (1.0 - alpha);
        pass.row_t[px_off] = t;
        if t < TRANSMITTANCE_MIN {
            *pass.early_terminated += 1;
            pass.active.swap_remove(i);
        } else {
            i += 1;
        }
    }
}

/// Vectorized tile rasterizer: SoA slab + row-wide quadratic evaluation +
/// α-cut, structured exactly like `render::rasterize_tile` so outputs, blend
/// logs and every workload counter are bit-identical to it.
fn rasterize_tile_vec(
    projection: &Projection,
    table: &[TableEntry],
    bounds: (usize, usize, usize, usize),
    tile_idx: usize,
    options: &RenderOptions,
    mut log: Option<&mut TileLog>,
) -> TileRaster {
    let (x0, y0, x1, y1) = bounds;
    let tile_w = x1 - x0;
    let tile_h = y1 - y0;
    let mut out = TileRaster::empty(tile_idx, tile_w, tile_h, options);
    if let Some(log) = log.as_deref_mut() {
        log.reset(tile_w);
    }
    if table.is_empty() {
        return out;
    }
    out.color = vec![Vec3::ZERO; tile_w * tile_h];
    out.depth = vec![0.0; tile_w * tile_h];
    out.silhouette = vec![0.0; tile_w * tile_h];
    if options.record_contributions {
        out.contributions =
            table.iter().map(|e| (projection.splats[e.splat_index as usize].id, 0, 0)).collect();
    }

    SLAB_SCRATCH.with(|cell| {
        let mut slab = cell.borrow_mut();
        slab.fill(projection, table, options.skip.as_deref(), bounds);
        out.interior_pairs = slab.interior.iter().filter(|&&fast| fast).count() as u64;

        // Pixel-center x coordinates of the row, shared by every entry.
        let mut fx = [0.0f32; TILE_SIZE];
        for (i, f) in fx.iter_mut().enumerate().take(tile_w) {
            *f = (x0 + i) as f32;
        }
        let mut qrow = [0.0f32; TILE_SIZE];

        // Row-local accumulators, reused across rows.
        let mut row_t = vec![1.0f32; tile_w];
        let mut row_c = vec![Vec3::ZERO; tile_w];
        let mut row_d = vec![0.0f32; tile_w];
        let mut row_evals = vec![0u32; tile_w];
        let mut row_blends = vec![0u32; tile_w];
        let mut active: Vec<u32> = Vec::with_capacity(tile_w);

        for py in y0..y1 {
            row_t.fill(1.0);
            row_c.fill(Vec3::ZERO);
            row_d.fill(0.0);
            row_evals.fill(0);
            row_blends.fill(0);
            active.clear();
            active.extend(0..tile_w as u32);
            let fy = py as f32;

            for (k, entry) in table.iter().enumerate() {
                if slab.skipped[k] {
                    continue;
                }
                let dy = fy - slab.mean_y[k];
                let t3 = (slab.c[k] * dy) * dy;
                let coeffs =
                    QuadCoeffs { mean_x: slab.mean_x[k], a: slab.a[k], s2b: slab.s2b[k], dy, t3 };
                quad_row(&fx[..tile_w], &mut qrow[..tile_w], &coeffs);
                let contrib =
                    options.record_contributions.then(|| out.contributions.get_mut(k)).flatten();
                let mut pass = VecRowPass {
                    splat_index: entry.splat_index,
                    opacity: slab.opacity[k],
                    color: slab.color[k],
                    depth: slab.depth[k],
                    qcut: slab.qcut[k],
                    qrow: &qrow[..tile_w],
                    contrib,
                    log: log.as_deref_mut().map(TileLog::row_lanes),
                    active: &mut active,
                    row_t: &mut row_t,
                    row_c: &mut row_c,
                    row_d: &mut row_d,
                    row_evals: &mut row_evals,
                    row_blends: &mut row_blends,
                    early_terminated: &mut out.early_terminated,
                };
                match (slab.interior[k], pass.log.is_some()) {
                    (true, false) => blend_entry_row_vec::<true, false>(&mut pass),
                    (false, false) => blend_entry_row_vec::<false, false>(&mut pass),
                    (true, true) => blend_entry_row_vec::<true, true>(&mut pass),
                    (false, true) => blend_entry_row_vec::<false, true>(&mut pass),
                }
                if active.is_empty() {
                    if k + 1 < table.len() {
                        out.saturated_rows += 1;
                    }
                    break;
                }
            }

            if let Some(log) = log.as_deref_mut() {
                log.flush_row();
            }
            let row_base = (py - y0) * tile_w;
            for px_off in 0..tile_w {
                out.alpha_evals += row_evals[px_off] as u64;
                out.blend_ops += row_blends[px_off] as u64;
                let i = row_base + px_off;
                out.color[i] = row_c[px_off];
                out.depth[i] = row_d[px_off];
                out.silhouette[i] = 1.0 - row_t[px_off];
                if let Some(w) = out.work.as_mut() {
                    w.per_pixel_evals[i] = row_evals[px_off].min(u16::MAX as u32) as u16;
                    w.per_pixel_blends[i] = row_blends[px_off].min(u16::MAX as u32) as u16;
                }
            }
        }
    });

    if let Some(skip) = &options.skip {
        out.skipped_pairs = table
            .iter()
            .filter(|e| skip.contains(projection.splats[e.splat_index as usize].id as usize))
            .count() as u64;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backward::{backward, GradMode};
    use crate::gaussian::Gaussian;
    use crate::loss::{compute_loss, LossConfig, LossKind};
    use crate::render::{rasterize, rasterize_logged, render, BlendLog};
    use ags_image::{DepthImage, RgbImage};
    use ags_math::{Pcg32, Vec3};
    use std::sync::Arc;

    #[test]
    fn backend_names_round_trip() {
        for kind in [BackendKind::Reference, BackendKind::Vectorized] {
            assert_eq!(BackendKind::from_name(kind.name()), Some(kind));
            assert_eq!(kind.backend().kind(), kind);
            assert_eq!(kind.backend().name(), kind.name());
        }
        assert_eq!(BackendKind::from_name("gpu"), None);
    }

    #[test]
    fn quad_kernel_name_matches_target() {
        let name = quad_kernel_name();
        #[cfg(all(target_arch = "x86_64", target_feature = "sse2"))]
        assert_eq!(name, "sse2");
        #[cfg(target_arch = "aarch64")]
        assert_eq!(name, "neon");
        assert!(!name.is_empty());
    }

    /// The SIMD row kernel must reproduce the scalar falloff quadratic bit
    /// for bit: random coefficients, every width 0..2·TILE_SIZE, unaligned
    /// slice offsets and tail remainders below the 4-lane width.
    #[test]
    fn quad_row_matches_scalar_reference_bitwise() {
        let mut rng = Pcg32::seeded(99);
        let mut buf = vec![0.0f32; 3 * TILE_SIZE + 8];
        let mut out = vec![0.0f32; 3 * TILE_SIZE + 8];
        for trial in 0..200 {
            let c0 = rng.range_f32(1e-4, 2.0);
            let c1 = rng.range_f32(-0.5, 0.5);
            let c2 = rng.range_f32(1e-4, 2.0);
            let mean_x = rng.range_f32(-10.0, 70.0);
            let dy = rng.range_f32(-20.0, 20.0);
            for v in buf.iter_mut() {
                *v = rng.range_f32(-5.0, 70.0);
            }
            let width = trial % (2 * TILE_SIZE + 1);
            let offset = trial % 5; // exercises unaligned starts
            let fx = &buf[offset..offset + width];
            let coeffs = QuadCoeffs { mean_x, a: c0, s2b: 2.0 * c1, dy, t3: (c2 * dy) * dy };
            quad_row(fx, &mut out[offset..offset + width], &coeffs);
            for (lane, &x) in fx.iter().enumerate() {
                let dx = x - mean_x;
                // The scalar reference expression, verbatim from `falloff`.
                let q_ref = c0 * dx * dx + 2.0 * c1 * dx * dy + c2 * dy * dy;
                assert_eq!(
                    out[offset + lane].to_bits(),
                    q_ref.to_bits(),
                    "trial {trial} lane {lane}: {} vs {q_ref}",
                    out[offset + lane]
                );
            }
        }
    }

    /// Every `q > qcut` must map to an α strictly below the threshold — the
    /// soundness condition that lets the vectorized kernels skip the exp.
    #[test]
    fn alpha_cut_is_sound_at_the_boundary() {
        let mut rng = Pcg32::seeded(31);
        for _ in 0..500 {
            let opacity = rng.range_f32(2e-4, 0.9999);
            let cut = qcut(opacity);
            // Walk upward from the cut (or from 0 for faint splats whose cut
            // is negative — q is never negative on the exp path).
            let mut q = cut.max(0.0);
            for step in 0..40 {
                q = if step == 0 { f32::from_bits(q.to_bits() + 1) } else { q * 1.05 + 1e-3 };
                if q <= cut {
                    continue;
                }
                let alpha = (opacity * (-0.5 * q).exp()).min(0.99);
                assert!(
                    alpha < ALPHA_THRESHOLD,
                    "opacity {opacity}: q {q} > qcut {cut} but alpha {alpha} above threshold"
                );
            }
        }
    }

    fn random_cloud(seed: u64, n: usize, opacity_range: (f32, f32)) -> GaussianCloud {
        let mut cloud = GaussianCloud::new();
        let mut rng = Pcg32::seeded(seed);
        for _ in 0..n {
            cloud.push(Gaussian::isotropic(
                Vec3::new(
                    rng.range_f32(-1.0, 1.0),
                    rng.range_f32(-1.0, 1.0),
                    rng.range_f32(0.5, 5.0),
                ),
                rng.range_f32(0.02, 0.4),
                Vec3::new(rng.next_f32(), rng.next_f32(), rng.next_f32()),
                rng.range_f32(opacity_range.0, opacity_range.1),
            ));
        }
        cloud
    }

    /// Mixed scene exercising every path: frame-filling opaque splats
    /// (interior fast path + row saturation), faint splats (negligible
    /// recording), a skip set, and a camera whose edge tiles are narrower
    /// than a SIMD register.
    fn stress_scene() -> (GaussianCloud, IdSet, PinholeCamera) {
        let mut cloud = random_cloud(7, 400, (0.005, 0.995));
        for i in 0..4 {
            cloud.push(Gaussian::isotropic(
                Vec3::new(0.0, 0.0, 2.0 + i as f32 * 0.3),
                2.5,
                Vec3::new(0.8, 0.6, 0.4),
                0.8,
            ));
        }
        let mut skip = IdSet::with_capacity(cloud.len());
        for id in (0..cloud.len()).step_by(5) {
            skip.insert(id);
        }
        // 61×45: right/bottom edge tiles are 13 and 3 pixels wide — tail
        // lanes below the 4-wide SIMD width.
        let cam = PinholeCamera::from_fov(61, 45, 1.2);
        (cloud, skip, cam)
    }

    #[test]
    fn vectorized_render_is_bit_identical_to_reference() {
        let (cloud, skip, cam) = stress_scene();
        let base = RenderOptions {
            skip: Some(Arc::new(skip)),
            record_contributions: true,
            collect_tile_work: true,
            parallelism: Parallelism::serial(),
            backend: BackendKind::Reference,
        };
        let reference = render(&cloud, &cam, &Se3::IDENTITY, &base);
        let options = RenderOptions { backend: BackendKind::Vectorized, ..base };
        let vectorized = render(&cloud, &cam, &Se3::IDENTITY, &options);

        assert_eq!(reference.color.pixels(), vectorized.color.pixels());
        assert_eq!(reference.depth.pixels(), vectorized.depth.pixels());
        assert_eq!(reference.silhouette.pixels(), vectorized.silhouette.pixels());
        assert_eq!(reference.stats.alpha_evals, vectorized.stats.alpha_evals);
        assert_eq!(reference.stats.blend_ops, vectorized.stats.blend_ops);
        assert_eq!(reference.stats.skipped_pairs, vectorized.stats.skipped_pairs);
        assert_eq!(
            reference.stats.early_terminated_pixels,
            vectorized.stats.early_terminated_pixels
        );
        assert_eq!(reference.stats.saturated_rows, vectorized.stats.saturated_rows);
        assert_eq!(reference.stats.interior_pairs, vectorized.stats.interior_pairs);
        assert!(reference.stats.interior_pairs > 0, "stress scene must hit the interior path");
        assert!(reference.stats.saturated_rows > 0, "stress scene must saturate rows");
        assert_eq!(reference.stats.tile_work.len(), vectorized.stats.tile_work.len());
        for (a, b) in reference.stats.tile_work.iter().zip(&vectorized.stats.tile_work) {
            assert_eq!(a.tile, b.tile);
            assert_eq!(a.per_pixel_evals, b.per_pixel_evals);
            assert_eq!(a.per_pixel_blends, b.per_pixel_blends);
        }
        let (rc, vc) = (reference.contributions.unwrap(), vectorized.contributions.unwrap());
        assert_eq!(rc.touched, vc.touched);
        assert_eq!(rc.negligible, vc.negligible);
    }

    #[test]
    fn vectorized_parallel_render_is_bit_identical_to_serial() {
        let (cloud, skip, cam) = stress_scene();
        let base = RenderOptions {
            skip: Some(Arc::new(skip)),
            record_contributions: true,
            collect_tile_work: false,
            parallelism: Parallelism::serial(),
            backend: BackendKind::Vectorized,
        };
        let serial = render(&cloud, &cam, &Se3::IDENTITY, &base);
        for threads in [2, 4, 7] {
            let options = RenderOptions {
                parallelism: Parallelism::with_threads(threads).min_items(0),
                ..base.clone()
            };
            let parallel = render(&cloud, &cam, &Se3::IDENTITY, &options);
            assert_eq!(serial.color.pixels(), parallel.color.pixels(), "{threads} threads");
            assert_eq!(serial.depth.pixels(), parallel.depth.pixels());
            assert_eq!(serial.stats.alpha_evals, parallel.stats.alpha_evals);
            assert_eq!(serial.stats.blend_ops, parallel.stats.blend_ops);
        }
    }

    fn l2_config() -> LossConfig {
        LossConfig {
            kind: LossKind::L2,
            color_weight: 1.0,
            depth_weight: 0.3,
            silhouette_mask: false,
            mask_threshold: 0.0,
        }
    }

    /// Gradients from the vectorized kernel's blend log must match those
    /// from the reference kernel's, at every forward/backward thread count.
    #[test]
    fn vectorized_backward_is_bit_identical_to_reference() {
        let (cloud, skip, cam) = stress_scene();
        let projection = project_gaussians(&cloud, &cam, &Se3::IDENTITY);
        let tables = GaussianTables::build(&projection, &cam);
        let options = RenderOptions { skip: Some(Arc::new(skip)), ..RenderOptions::default() };
        let out = rasterize(&cloud, &projection, &tables, &cam, &options);
        let mut gt_rng = Pcg32::seeded(5);
        let gt_rgb = RgbImage::from_vec(
            cam.width,
            cam.height,
            (0..cam.num_pixels()).map(|_| Vec3::splat(gt_rng.next_f32())).collect(),
        );
        let gt_depth = DepthImage::filled(cam.width, cam.height, 2.0);
        let loss = compute_loss(&out, &gt_rgb, &gt_depth, &l2_config());

        let run = |backend: BackendKind, threads: Option<usize>| {
            let par = match threads {
                None => Parallelism::serial(),
                Some(t) => Parallelism::with_threads(t).min_items(0),
            };
            let options = RenderOptions { parallelism: par.clone(), backend, ..options.clone() };
            let mut log = BlendLog::default();
            rasterize_logged(&cloud, &projection, &tables, &cam, &options, &mut log);
            backward(&cloud, &projection, &tables, &cam, &loss, &log, GradMode::Both, &par)
        };
        let reference = run(BackendKind::Reference, None);
        let rg = reference.grads.as_ref().unwrap();
        assert!(rg.touched_count() > 0, "fixture must produce gradients");
        for threads in [None, Some(2), Some(7)] {
            let vectorized = run(BackendKind::Vectorized, threads);
            let vg = vectorized.grads.as_ref().unwrap();
            assert_eq!(rg.position, vg.position, "{threads:?} threads");
            assert_eq!(rg.log_scale, vg.log_scale);
            assert_eq!(rg.rotation, vg.rotation);
            assert_eq!(rg.color, vg.color);
            assert_eq!(rg.opacity_logit, vg.opacity_logit);
            assert_eq!(rg.touched, vg.touched);
            assert_eq!(reference.pose.unwrap().twist, vectorized.pose.unwrap().twist);
            assert_eq!(reference.stats.grad_ops, vectorized.stats.grad_ops);
            assert_eq!(reference.stats.pixels, vectorized.stats.pixels);
        }
    }
}
