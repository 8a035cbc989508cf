//! Pool-parameterized parallel kernels behind the [`Matrix`] hot paths.
//!
//! The public `Matrix` methods (`matmul`, `softmax_rows`, …) and the
//! [`crate::distance`] kernels delegate here with the process-wide
//! [`runtime::global`] pool; these explicit-pool variants exist so tests can
//! assert the determinism contract across pools of different sizes.
//!
//! Every kernel computes exactly the same per-element arithmetic as its
//! serial predecessor — parallelism only re-schedules disjoint row blocks —
//! so outputs are **bit-identical for every thread count**, including the
//! `TABLEDC_THREADS=1` pure-serial mode.
//!
//! The matmul kernel ([`matmul`], [`matmul_tn`], [`matmul_nt`]) is packed
//! and register-tiled: B is packed into KC×NR column panels, A into MR×KC
//! row panels, and an MR×NR micro-kernel accumulates in registers. The
//! kernel has three compiled copies — the baseline target (4×8 tile), the
//! same body with AVX2 enabled (4×8 tile in eight ymm registers), and an
//! AVX-512F copy written with intrinsics (8×8 tile in eight zmm registers)
//! — and runtime CPU detection picks the widest one the CPU supports
//! ([`kernel_copy`] names it). Every copy adds the separately rounded
//! products `a[i][p] * b[p][j]` for ascending `p` onto 0.0, with no fused
//! multiply-add, so its output is the naive triple loop's to the bit.
//!
//! [`RowStrips`] serves the other shape, many rows times one vector (a
//! K-means++ seed's distances): rows packed feature-major so that each SIMD
//! lane sums one row's dot product, with the same arithmetic and the same
//! three compiled copies.

use runtime::{block_rows, par_for_rows, par_join, ThreadPool};

use crate::matrix::Matrix;

/// Rows below which row-wise maps stay on one thread (scheduling overhead
/// dominates under this size; the cutoff never affects results).
const MIN_MAP_ROWS: usize = 64;

/// Rows of one micro-tile of the plain and AVX2 copies: the micro-kernel
/// keeps an MR×NR block of the output in registers.
const MR: usize = 4;
/// Rows of one micro-tile of the AVX-512 copy: one zmm accumulator per row.
#[cfg(target_arch = "x86_64")]
const MR_AVX512: usize = 8;
/// Columns of one micro-tile (two AVX2 vectors or one AVX-512 vector of
/// `f64`). Every copy shares it, so [`pack_b`]'s layout is copy-independent.
const NR: usize = 8;
/// Depth of one packed slab of the inner dimension: an MR×KC panel of A
/// (8 KiB, or 16 KiB for the 8-row tile) stays in L1 while the KC×NR
/// panels of B stream past it.
const KC: usize = 256;

/// A read-only matrix operand addressed through strides: element `(i, j)`
/// is `data[i * rs + j * cs]`. Packing reads through it, so a transposed
/// operand is consumed in place instead of being copied first.
#[derive(Clone, Copy)]
struct Operand<'a> {
    data: &'a [f64],
    rs: usize,
    cs: usize,
}

impl<'a> Operand<'a> {
    /// `m` as stored (row-major).
    fn plain(m: &'a Matrix) -> Self {
        Operand { data: m.as_slice(), rs: m.cols(), cs: 1 }
    }

    /// `mᵀ`, read in place.
    fn transposed(m: &'a Matrix) -> Self {
        Operand { data: m.as_slice(), rs: 1, cs: m.cols() }
    }

    #[inline(always)]
    fn at(&self, i: usize, j: usize) -> f64 {
        self.data[i * self.rs + j * self.cs]
    }
}

/// Which compiled copy of the kernel body runs. Every copy performs the
/// same scalar operations in the same order (see [`micro`]), so the choice
/// never changes output bits — only speed.
#[derive(Clone, Copy, Debug)]
enum Isa {
    /// The build's baseline target features (SSE2 on x86-64).
    Plain,
    /// The body compiled with AVX2 enabled.
    #[cfg(target_arch = "x86_64")]
    Avx2(isa::Avx2Detected),
    /// The 8-row AVX-512F micro-kernel ([`micro_avx512`]).
    #[cfg(target_arch = "x86_64")]
    Avx512(isa::Avx512Detected),
}

mod isa {
    use super::Isa;

    /// Proof that runtime detection found AVX2: private to this module, so
    /// [`Isa::avx2`] is the only way to obtain an [`Isa::Avx2`].
    #[cfg(target_arch = "x86_64")]
    #[derive(Clone, Copy, Debug)]
    pub(super) struct Avx2Detected(());

    /// Proof that runtime detection found AVX-512F: only [`Isa::avx512`]
    /// makes one.
    #[cfg(target_arch = "x86_64")]
    #[derive(Clone, Copy, Debug)]
    pub(super) struct Avx512Detected(());

    impl Isa {
        /// The fastest copy this CPU can run.
        pub(super) fn detect() -> Isa {
            Isa::avx512().or_else(Isa::avx2).unwrap_or(Isa::Plain)
        }

        /// The AVX2 copy, if this CPU supports AVX2.
        pub(super) fn avx2() -> Option<Isa> {
            #[cfg(target_arch = "x86_64")]
            if std::arch::is_x86_feature_detected!("avx2") {
                return Some(Isa::Avx2(Avx2Detected(())));
            }
            None
        }

        /// The AVX-512 copy, if this CPU supports AVX-512F.
        pub(super) fn avx512() -> Option<Isa> {
            #[cfg(target_arch = "x86_64")]
            if std::arch::is_x86_feature_detected!("avx512f") {
                return Some(Isa::Avx512(Avx512Detected(())));
            }
            None
        }
    }
}

impl Isa {
    /// Rows of this copy's micro-tile.
    fn mr(self) -> usize {
        match self {
            #[cfg(target_arch = "x86_64")]
            Isa::Avx512(_) => MR_AVX512,
            _ => MR,
        }
    }
}

/// The compiled copy of the matmul kernel that runs on this CPU: `plain`,
/// `avx2` or `avx512`. Picked by CPU detection alone; every copy gives the
/// same bits.
pub fn kernel_copy() -> &'static str {
    match Isa::detect() {
        Isa::Plain => "plain",
        #[cfg(target_arch = "x86_64")]
        Isa::Avx2(_) => "avx2",
        #[cfg(target_arch = "x86_64")]
        Isa::Avx512(_) => "avx512",
    }
}

/// Matrix product `a · b` on an explicit pool.
///
/// Runs the packed kernel described in the module docs; output rows are
/// computed in disjoint parallel blocks and are bit-identical for every
/// thread count.
///
/// # Panics
/// Panics if `a.cols() != b.rows()`.
pub fn matmul(pool: &ThreadPool, a: &Matrix, b: &Matrix) -> Matrix {
    assert_eq!(
        a.cols(),
        b.rows(),
        "matmul: inner dimensions differ ({}x{} · {}x{})",
        a.rows(),
        a.cols(),
        b.rows(),
        b.cols()
    );
    gemm(pool, Isa::detect(), (a.rows(), a.cols(), b.cols()), Operand::plain(a), Operand::plain(b), &|_| {})
}

/// [`matmul`] followed by `epilogue` on the product's output: each
/// parallel row block, once its last slab is accumulated, is handed to
/// `epilogue` as whole rows while it is still in cache. The product
/// entries `epilogue` sees are [`matmul`]'s bits, and it runs once per row
/// block (on every row exactly once), so an elementwise epilogue gives the
/// same result as a separate pass over [`matmul`]'s output.
///
/// # Panics
/// Panics if `a.cols() != b.rows()`.
pub fn matmul_then(pool: &ThreadPool, a: &Matrix, b: &Matrix, epilogue: &(dyn Fn(&mut [f64]) + Sync)) -> Matrix {
    assert_eq!(
        a.cols(),
        b.rows(),
        "matmul_then: inner dimensions differ ({}x{} · {}x{})",
        a.rows(),
        a.cols(),
        b.rows(),
        b.cols()
    );
    gemm(pool, Isa::detect(), (a.rows(), a.cols(), b.cols()), Operand::plain(a), Operand::plain(b), epilogue)
}

/// Transposed-left product `aᵀ · b` on an explicit pool, without
/// materializing `aᵀ`. Bit-identical to `matmul(pool, &a.transpose(), b)`.
///
/// # Panics
/// Panics if `a.rows() != b.rows()`.
pub fn matmul_tn(pool: &ThreadPool, a: &Matrix, b: &Matrix) -> Matrix {
    assert_eq!(
        a.rows(),
        b.rows(),
        "matmul_tn: inner dimensions differ ({}x{}ᵀ · {}x{})",
        a.rows(),
        a.cols(),
        b.rows(),
        b.cols()
    );
    gemm(pool, Isa::detect(), (a.cols(), a.rows(), b.cols()), Operand::transposed(a), Operand::plain(b), &|_| {})
}

/// Transposed-right product `a · bᵀ` on an explicit pool, without
/// materializing `bᵀ`. Bit-identical to `matmul(pool, a, &b.transpose())`.
///
/// # Panics
/// Panics if `a.cols() != b.cols()`.
pub fn matmul_nt(pool: &ThreadPool, a: &Matrix, b: &Matrix) -> Matrix {
    assert_eq!(
        a.cols(),
        b.cols(),
        "matmul_nt: inner dimensions differ ({}x{} · {}x{}ᵀ)",
        a.rows(),
        a.cols(),
        b.rows(),
        b.cols()
    );
    gemm(pool, Isa::detect(), (a.rows(), a.cols(), b.rows()), Operand::plain(a), Operand::transposed(b), &|_| {})
}

/// The packed, register-tiled product of an `n×k` operand `a` and a `k×m`
/// operand `b`.
///
/// The inner dimension is walked in slabs of [`KC`]. For each slab, `b` is
/// packed into KC×NR column panels, then every parallel row
/// block packs MR×KC panels of `a` and runs the MR×NR [`micro`] kernel over
/// all column panels, carrying partial sums through the output between
/// slabs. Every output element therefore sees exactly
/// `acc = 0.0; for p in 0..k { acc += a[i][p] * b[p][j] }`, with the
/// multiply and add rounded separately — the same bits as a naive loop,
/// whatever the blocking, thread count or [`Isa`]. `epilogue` then runs
/// on each finished row block (see [`matmul_then`]).
fn gemm(
    pool: &ThreadPool,
    isa: Isa,
    (n, k, m): (usize, usize, usize),
    a: Operand,
    b: Operand,
    epilogue: &(dyn Fn(&mut [f64]) + Sync),
) -> Matrix {
    let _timer = obs::span!("tensor.matmul");
    let mut out = Matrix::zeros(n, m);
    if n == 0 || m == 0 {
        return out;
    }
    if k == 0 {
        epilogue(out.as_mut_slice());
        return out;
    }
    let panels = m.div_ceil(NR);
    let mut b_pack = vec![0.0; k.min(KC) * panels * NR];
    // Cheap rows (small k·m) get coarser blocks so per-task work stays
    // meaningful; the blocking is invisible in the output.
    let min_rows = (32_768 / (k * m).max(1)).max(8);
    let block = block_rows(n, pool.threads(), min_rows).next_multiple_of(isa.mr());
    for pc in (0..k).step_by(KC) {
        let kc = KC.min(k - pc);
        let b_slab = &mut b_pack[..kc * panels * NR];
        pack_b(b, pc, kc, m, b_slab);
        let b_slab = &*b_slab;
        let last = pc + kc == k;
        par_for_rows(pool, out.as_mut_slice(), m, block, |first_row, chunk| {
            RowBlock { a, first_row, pc, kc, b_slab, m }.run_on(isa, chunk);
            if last {
                epilogue(chunk);
            }
        });
    }
    out
}

/// A right-hand matmul operand packed once, slab after slab, into the
/// kernel's KC×NR column panels (the layout [`pack_b`] writes). A frozen
/// layer's weights or a model's centers are packed when the model is
/// frozen, so a request's products skip the packing pass.
#[derive(Clone, Debug)]
pub struct PackedRhs {
    /// Inner dimension (rows of the operand).
    k: usize,
    /// Output columns (columns of the operand).
    m: usize,
    /// Slab `pc / KC` starts at `pc · ⌈m/NR⌉·NR`.
    panels: Vec<f64>,
}

impl PackedRhs {
    /// Packs `b` as the right operand of `a · b`.
    pub fn new(b: &Matrix) -> Self {
        Self::pack(Operand::plain(b), b.rows(), b.cols())
    }

    /// Packs `bᵀ` as the right operand of `a · bᵀ`, read in place.
    pub fn transposed(b: &Matrix) -> Self {
        Self::pack(Operand::transposed(b), b.cols(), b.rows())
    }

    fn pack(b: Operand, k: usize, m: usize) -> Self {
        let width = m.div_ceil(NR) * NR;
        let mut panels = vec![0.0; k * width];
        for pc in (0..k).step_by(KC) {
            let kc = KC.min(k - pc);
            pack_b(b, pc, kc, m, &mut panels[pc * width..][..kc * width]);
        }
        Self { k, m, panels }
    }

    /// Inner dimension: the rows of the packed operand.
    pub fn rows(&self) -> usize {
        self.k
    }

    /// Output columns: the columns of the packed operand.
    pub fn cols(&self) -> usize {
        self.m
    }
}

/// `out = a · b` for a row-major block `a` of `b.rows()`-wide rows, on the
/// calling thread. Callers that already run one task per row block (the
/// frozen inference plan) call it inside the block. Every output element
/// is [`matmul`]'s to the bit: the same ascending-`p` sum of separately
/// rounded products, through the same [`RowBlock`] and [`micro`] kernel.
///
/// # Panics
/// Panics unless `out` holds whole `b.cols()`-wide rows and `a` holds as
/// many `b.rows()`-wide rows.
pub fn matmul_packed(a: &[f64], b: &PackedRhs, out: &mut [f64]) {
    packed_product(Isa::detect(), a, b, out);
}

/// [`matmul_packed`] with the given compiled copy.
fn packed_product(isa: Isa, a: &[f64], b: &PackedRhs, out: &mut [f64]) {
    let PackedRhs { k, m, ref panels } = *b;
    if m == 0 {
        assert!(out.is_empty(), "matmul_packed: output for zero columns must be empty");
        return;
    }
    assert_eq!(out.len() % m, 0, "matmul_packed: output is not whole rows of {m}");
    let rows = out.len() / m;
    assert_eq!(a.len(), rows * k, "matmul_packed: left operand is not {rows} rows of {k}");
    if k == 0 {
        out.fill(0.0);
        return;
    }
    let a = Operand { data: a, rs: k, cs: 1 };
    let width = m.div_ceil(NR) * NR;
    for pc in (0..k).step_by(KC) {
        let kc = KC.min(k - pc);
        let b_slab = &panels[pc * width..][..kc * width];
        RowBlock { a, first_row: 0, pc, kc, b_slab, m }.run_on(isa, out);
    }
}

/// Packs rows `pc..pc + kc` of `b` into `dst` as consecutive KC×NR column
/// panels, each stored p-major (`NR` values per `p`), zero-padding the
/// columns past `m` in the last panel. Packing is O(k·m) against the
/// product's O(n·k·m), so it runs serially.
fn pack_b(b: Operand, pc: usize, kc: usize, m: usize, dst: &mut [f64]) {
    for (jp, panel) in dst.chunks_exact_mut(kc * NR).enumerate() {
        let j0 = jp * NR;
        let nr = NR.min(m - j0);
        for (p, dst_row) in panel.chunks_exact_mut(NR).enumerate() {
            for (c, v) in dst_row[..nr].iter_mut().enumerate() {
                *v = b.at(pc + p, j0 + c);
            }
            dst_row[nr..].fill(0.0);
        }
    }
}

/// One parallel row block's share of one KC slab.
struct RowBlock<'a> {
    a: Operand<'a>,
    /// Output row of the block's first row.
    first_row: usize,
    /// First inner index of the slab.
    pc: usize,
    /// Slab depth.
    kc: usize,
    /// The slab of `b`, packed by [`pack_b`].
    b_slab: &'a [f64],
    /// Output columns.
    m: usize,
}

impl RowBlock<'_> {
    /// Runs the block with the [`Isa`]'s compiled copy of the body.
    fn run_on(&self, isa: Isa, out: &mut [f64]) {
        match isa {
            Isa::Plain => self.run(out, micro),
            #[cfg(target_arch = "x86_64")]
            // SAFETY: an `Avx2Detected` exists only after
            // `is_x86_feature_detected!("avx2")` returned true.
            Isa::Avx2(_) => unsafe { self.run_avx2(out) },
            #[cfg(target_arch = "x86_64")]
            // SAFETY: an `Avx512Detected` exists only after
            // `is_x86_feature_detected!("avx512f")` returned true.
            Isa::Avx512(_) => unsafe { self.run_avx512(out) },
        }
    }

    /// [`RowBlock::run`]'s body compiled with AVX2 enabled.
    ///
    /// # Safety
    /// The CPU must support AVX2.
    #[cfg(target_arch = "x86_64")]
    #[target_feature(enable = "avx2")]
    unsafe fn run_avx2(&self, out: &mut [f64]) {
        self.run(out, micro);
    }

    /// [`RowBlock::run`] with AVX-512F enabled and the 8-row
    /// [`micro_avx512`] tile.
    ///
    /// # Safety
    /// The CPU must support AVX-512F.
    #[cfg(target_arch = "x86_64")]
    #[target_feature(enable = "avx512f")]
    unsafe fn run_avx512(&self, out: &mut [f64]) {
        // The closure inherits this function's target features, so the
        // intrinsics inline into the loop.
        // SAFETY: the caller guarantees AVX-512F, `micro_avx512`'s only
        // requirement.
        self.run(out, |kc, a_panel, b_panel, c| unsafe { micro_avx512(kc, a_panel, b_panel, c) });
    }

    /// Accumulates this slab's contribution into the block's output rows
    /// `out` (row-major, `m` columns), `R` rows at a time through `micro`.
    #[inline(always)]
    fn run<const R: usize>(&self, out: &mut [f64], micro: impl Fn(usize, &[f64], &[f64], &mut [[f64; NR]; R])) {
        let Self { a, first_row, pc, kc, b_slab, m } = *self;
        let rows = out.len() / m;
        // p-major: `a_panel[p][r]` is row `r`'s value at inner index `p`.
        let mut a_panel = [[0.0f64; R]; KC];
        for i0 in (0..rows).step_by(R) {
            let mr = R.min(rows - i0);
            // Pack the R×kc panel of `a`, zero-padding rows past the end
            // of the block.
            for r in 0..R {
                let dst = a_panel[..kc].iter_mut().map(|col| &mut col[r]);
                if r < mr {
                    let start = (first_row + i0 + r) * a.rs + pc * a.cs;
                    dst.zip(a.data[start..].iter().step_by(a.cs)).for_each(|(d, &v)| *d = v);
                } else {
                    dst.for_each(|d| *d = 0.0);
                }
            }
            let a_flat = a_panel.as_flattened();
            for (jp, b_panel) in b_slab.chunks_exact(kc * NR).enumerate() {
                let j0 = jp * NR;
                let nr = NR.min(m - j0);
                let mut c = [[0.0; NR]; R];
                if pc > 0 {
                    for (r, c_row) in c.iter_mut().enumerate().take(mr) {
                        copy_tile_row(&mut c_row[..nr], &out[(i0 + r) * m + j0..][..nr]);
                    }
                }
                micro(kc, a_flat, b_panel, &mut c);
                for (r, c_row) in c.iter().enumerate().take(mr) {
                    copy_tile_row(&mut out[(i0 + r) * m + j0..][..nr], &c_row[..nr]);
                }
            }
        }
    }
}

/// Copies one row of a tile (at most NR values). Full-width rows take a
/// constant-length path, which compiles to two vector moves instead of a
/// `memcpy` call that costs as much as a short micro-kernel run.
#[inline(always)]
fn copy_tile_row(dst: &mut [f64], src: &[f64]) {
    if dst.len() == NR {
        dst[..NR].copy_from_slice(&src[..NR]);
    } else {
        dst.copy_from_slice(src);
    }
}

/// The MR×NR register-tile micro-kernel: `c += a_panel · b_panel` over
/// `kc` steps, `p` ascending, with each product rounded before it is added
/// (no fused multiply-add). Kept a separate always-inlined function so the
/// accumulator tile lives in registers rather than being spilled.
#[inline(always)]
fn micro(kc: usize, a_panel: &[f64], b_panel: &[f64], c: &mut [[f64; NR]; MR]) {
    let mut acc = *c;
    for (a, b) in a_panel[..kc * MR].chunks_exact(MR).zip(b_panel[..kc * NR].chunks_exact(NR)) {
        let a: &[f64; MR] = a.try_into().expect("MR-wide chunk");
        let b: &[f64; NR] = b.try_into().expect("NR-wide chunk");
        for (acc_row, &av) in acc.iter_mut().zip(a) {
            for (acc_v, &bv) in acc_row.iter_mut().zip(b) {
                *acc_v += av * bv;
            }
        }
    }
    *c = acc;
}

/// [`micro`]'s arithmetic on an 8×8 tile held in eight zmm registers, one
/// per row: for each `p`, one load of the `b` row, then per tile row a
/// broadcast of its `a` value, `_mm512_mul_pd` and `_mm512_add_pd`. Each
/// lane thus does `acc += a * b` with both operations rounded, exactly as
/// the scalar loop. Written with intrinsics: LLVM's code for a generic
/// tile compiled with AVX-512F enabled was no faster than the AVX2 copy at
/// 8 rows and slower than this tile on most shapes at 4 rows.
///
/// # Safety
/// The CPU must support AVX-512F.
#[cfg(target_arch = "x86_64")]
#[inline(always)]
unsafe fn micro_avx512(kc: usize, a_panel: &[f64], b_panel: &[f64], c: &mut [[f64; NR]; MR_AVX512]) {
    use std::arch::x86_64::{_mm512_add_pd, _mm512_loadu_pd, _mm512_mul_pd, _mm512_set1_pd, _mm512_storeu_pd};
    let mut acc = c.map(|row| _mm512_loadu_pd(row.as_ptr()));
    for (a, b) in a_panel[..kc * MR_AVX512].chunks_exact(MR_AVX512).zip(b_panel[..kc * NR].chunks_exact(NR)) {
        let b = _mm512_loadu_pd(b.as_ptr());
        for (acc_row, &av) in acc.iter_mut().zip(a) {
            *acc_row = _mm512_add_pd(*acc_row, _mm512_mul_pd(_mm512_set1_pd(av), b));
        }
    }
    for (row, acc_row) in c.iter_mut().zip(acc) {
        _mm512_storeu_pd(row.as_mut_ptr(), acc_row);
    }
}

/// Rows of one strip of a [`RowStrips`] operand: one dot product per SIMD
/// lane, four AVX2 or two AVX-512 vectors of `f64`.
pub const LANES: usize = 16;

/// The rows of a matrix packed feature-major in strips of [`LANES`] rows:
/// strip `s` holds, for each feature `p` in ascending order, the `p`-th
/// entries of rows `s·LANES .. s·LANES + LANES` side by side, zero past the
/// last row. [`RowStrips::dots`] then takes the dot products of many rows
/// with one vector, a row per SIMD lane, where a row-at-a-time loop is one
/// serial chain of dependent adds.
#[derive(Clone, Debug)]
pub struct RowStrips {
    rows: usize,
    cols: usize,
    /// Strip `s` starts at `s · cols · LANES`.
    data: Vec<f64>,
}

impl RowStrips {
    /// Packs the rows of `x`.
    pub fn new(x: &Matrix) -> Self {
        let (rows, cols) = x.shape();
        let mut data = vec![0.0; rows.div_ceil(LANES) * cols * LANES];
        for (s, strip) in data.chunks_exact_mut((cols * LANES).max(1)).enumerate() {
            for (l, i) in (s * LANES..rows.min(s * LANES + LANES)).enumerate() {
                for (p, &v) in x.row(i).iter().enumerate() {
                    strip[p * LANES + l] = v;
                }
            }
        }
        Self { rows, cols, data }
    }

    /// `out[r] = x_{first + r} · y` for every `r`, each summed as
    /// `acc = 0.0; for p ascending { acc += x[p] * y[p] }` with the product
    /// rounded before the add: one [`matmul`] entry's bits.
    ///
    /// # Panics
    /// Panics unless `first` is a multiple of [`LANES`], `y` has one value
    /// per column and rows `first .. first + out.len()` exist.
    pub fn dots(&self, first: usize, y: &[f64], out: &mut [f64]) {
        assert_eq!(first % LANES, 0, "RowStrips::dots: first row {first} is not a strip start");
        assert_eq!(y.len(), self.cols, "RowStrips::dots: vector length {} != {} columns", y.len(), self.cols);
        assert!(first + out.len() <= self.rows, "RowStrips::dots: rows past {}", self.rows);
        if self.cols == 0 {
            out.fill(0.0);
            return;
        }
        let width = self.cols * LANES;
        dots_on(Isa::detect(), &self.data[first / LANES * width..], y, out);
    }
}

/// [`RowStrips::dots`] over the strips starting at `strips`, with the
/// given compiled copy.
fn dots_on(isa: Isa, strips: &[f64], y: &[f64], out: &mut [f64]) {
    match isa {
        Isa::Plain => dots_body(strips, y, out),
        #[cfg(target_arch = "x86_64")]
        // SAFETY: an `Avx2Detected` exists only after
        // `is_x86_feature_detected!("avx2")` returned true.
        Isa::Avx2(_) => unsafe { dots_avx2(strips, y, out) },
        #[cfg(target_arch = "x86_64")]
        // SAFETY: an `Avx512Detected` exists only after
        // `is_x86_feature_detected!("avx512f")` returned true.
        Isa::Avx512(_) => unsafe { dots_avx512(strips, y, out) },
    }
}

/// [`dots_body`] compiled with AVX2 enabled.
///
/// # Safety
/// The CPU must support AVX2.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn dots_avx2(strips: &[f64], y: &[f64], out: &mut [f64]) {
    dots_body(strips, y, out);
}

/// [`dots_body`]'s arithmetic with the strip's accumulator in two zmm
/// registers: per feature, a broadcast of `y[p]`, `_mm512_mul_pd` and
/// `_mm512_add_pd`, so each lane does the scalar `acc += x * v` with both
/// operations rounded.
///
/// # Safety
/// The CPU must support AVX-512F.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f")]
unsafe fn dots_avx512(strips: &[f64], y: &[f64], out: &mut [f64]) {
    use std::arch::x86_64::{
        _mm512_add_pd, _mm512_loadu_pd, _mm512_mul_pd, _mm512_set1_pd, _mm512_setzero_pd, _mm512_storeu_pd,
    };
    for (strip, out) in strips.chunks_exact(y.len() * LANES).zip(out.chunks_mut(LANES)) {
        let (mut lo, mut hi) = (_mm512_setzero_pd(), _mm512_setzero_pd());
        for (x, &v) in strip.chunks_exact(LANES).zip(y) {
            let v = _mm512_set1_pd(v);
            lo = _mm512_add_pd(lo, _mm512_mul_pd(_mm512_loadu_pd(x.as_ptr()), v));
            hi = _mm512_add_pd(hi, _mm512_mul_pd(_mm512_loadu_pd(x[LANES / 2..].as_ptr()), v));
        }
        let mut acc = [0.0f64; LANES];
        _mm512_storeu_pd(acc.as_mut_ptr(), lo);
        _mm512_storeu_pd(acc[LANES / 2..].as_mut_ptr(), hi);
        out.copy_from_slice(&acc[..out.len()]);
    }
}

/// The body of [`RowStrips::dots`]: per strip, a [`LANES`]-wide
/// accumulator kept in registers across every feature.
#[inline(always)]
fn dots_body(strips: &[f64], y: &[f64], out: &mut [f64]) {
    for (strip, out) in strips.chunks_exact(y.len() * LANES).zip(out.chunks_mut(LANES)) {
        let mut acc = [0.0f64; LANES];
        for (x, &v) in strip.chunks_exact(LANES).zip(y) {
            let x: &[f64; LANES] = x.try_into().expect("LANES-wide chunk");
            for (a, &xv) in acc.iter_mut().zip(x) {
                *a += xv * v;
            }
        }
        out.copy_from_slice(&acc[..out.len()]);
    }
}

/// Pairwise squared Euclidean distances on an explicit pool (see
/// [`crate::distance::sq_euclidean_cdist`]).
pub fn sq_euclidean_cdist(pool: &ThreadPool, x: &Matrix, y: &Matrix) -> Matrix {
    assert_eq!(
        x.cols(),
        y.cols(),
        "sq_euclidean_cdist: feature dims differ ({} vs {})",
        x.cols(),
        y.cols()
    );
    let _timer = obs::span!("tensor.cdist");
    let (xn, yn): (Vec<f64>, Vec<f64>) =
        par_join(pool, || x.row_iter().map(sq_norm).collect(), || y.row_iter().map(sq_norm).collect());
    let mut g = matmul_nt(pool, x, y);
    let m = g.cols();
    if m == 0 || g.rows() == 0 {
        return g;
    }
    let block = block_rows(g.rows(), pool.threads(), MIN_MAP_ROWS);
    let (xn, yn) = (&xn, &yn);
    par_for_rows(pool, g.as_mut_slice(), m, block, |first_row, chunk| {
        for (r, row) in chunk.chunks_exact_mut(m).enumerate() {
            sq_dist_row(row, xn[first_row + r], yn);
        }
    });
    g
}

/// `‖v‖²`, summed in ascending order: the row norm every squared-distance
/// kernel uses.
#[inline]
pub fn sq_norm(v: &[f64]) -> f64 {
    v.iter().map(|x| x * x).sum()
}

/// Turns one row of inner products `gⱼ = x·yⱼ` into squared distances
/// `‖x‖² + ‖yⱼ‖² − 2·gⱼ`, clamped at 0, in place. `xn` is `‖x‖²` and `yn`
/// holds every `‖yⱼ‖²` (see [`sq_norm`]).
#[inline]
pub fn sq_dist_row(row: &mut [f64], xn: f64, yn: &[f64]) {
    for (v, &ynj) in row.iter_mut().zip(yn) {
        *v = (xn + ynj - 2.0 * *v).max(0.0);
    }
}

/// Standardizes one row with given column statistics:
/// `out[j] = (x[j] − means[j]) · inv_std[j]` (see
/// [`Matrix::standardize_cols_with`]).
#[inline]
pub fn standardize_row(out: &mut [f64], x: &[f64], means: &[f64], inv_std: &[f64]) {
    for ((v, &raw), (&mean, &inv)) in out.iter_mut().zip(x).zip(means.iter().zip(inv_std)) {
        *v = (raw - mean) * inv;
    }
}

/// Row-wise softmax on an explicit pool (see [`Matrix::softmax_rows`]).
pub fn softmax_rows(pool: &ThreadPool, x: &Matrix) -> Matrix {
    let mut out = x.clone();
    map_rows(pool, &mut out, softmax_row);
    out
}

/// Softmax of one row in place (paper Eq. 9): `exp(v − max)` summed in
/// ascending order, then each entry divided by the sum.
#[inline]
pub fn softmax_row(row: &mut [f64]) {
    let max = row.iter().copied().fold(f64::NEG_INFINITY, f64::max);
    let mut sum = 0.0;
    for v in row.iter_mut() {
        *v = (*v - max).exp();
        sum += *v;
    }
    if sum > 0.0 {
        for v in row.iter_mut() {
            *v /= sum;
        }
    }
}

/// Row-wise L2 normalization on an explicit pool (see
/// [`Matrix::normalize_rows`]); zero rows are left unchanged.
pub fn normalize_rows(pool: &ThreadPool, x: &Matrix) -> Matrix {
    let mut out = x.clone();
    map_rows(pool, &mut out, |row| {
        let norm = row.iter().map(|v| v * v).sum::<f64>().sqrt();
        if norm > 0.0 {
            for v in row.iter_mut() {
                *v /= norm;
            }
        }
    });
    out
}

/// Per-row argmax on an explicit pool (ties to the first maximum, matching
/// the serial [`Matrix::argmax_rows`]).
pub fn argmax_rows(pool: &ThreadPool, x: &Matrix) -> Vec<usize> {
    let n = x.rows();
    let mut out = vec![0usize; n];
    if n == 0 || x.cols() == 0 {
        return out;
    }
    let block = block_rows(n, pool.threads(), 256);
    par_for_rows(pool, &mut out, 1, block, |first_row, chunk| {
        for (r, slot) in chunk.iter_mut().enumerate() {
            let row = x.row(first_row + r);
            let mut best = 0;
            for (j, &v) in row.iter().enumerate().skip(1) {
                if v > row[best] {
                    best = j;
                }
            }
            *slot = best;
        }
    });
    out
}

/// Most rows in one block of a frozen inference request: bounds each
/// thread's scratch and keeps a block's activations in cache.
const MAX_PLAN_ROWS: usize = 64;

/// Rows per block when a frozen model scores `rows` rows on `threads`
/// threads: one block per thread, rounded up to whole micro-tiles of the
/// running kernel copy, at most [`MAX_PLAN_ROWS`]. A block's rows are
/// scored from their own inputs alone, so the blocking never changes an
/// output bit.
pub fn plan_block_rows(rows: usize, threads: usize) -> usize {
    plan_rows(rows, threads, Isa::detect().mr())
}

/// [`plan_block_rows`] for micro-tiles of `mr` rows.
fn plan_rows(rows: usize, threads: usize, mr: usize) -> usize {
    rows.div_ceil(threads.max(1)).next_multiple_of(mr).min(MAX_PLAN_ROWS)
}

thread_local! {
    static SCRATCH: std::cell::Cell<Vec<f64>> = const { std::cell::Cell::new(Vec::new()) };
}

/// Runs `f` on this thread's reusable scratch buffer, `len` values long
/// with unspecified contents. The buffer only grows, so a pool worker
/// allocates it once. It is taken out of its slot for the call: a nested
/// call gets a fresh buffer rather than a conflicting borrow.
pub fn with_scratch<R>(len: usize, f: impl FnOnce(&mut [f64]) -> R) -> R {
    let mut buf = SCRATCH.take();
    if buf.len() < len {
        buf.resize(len, 0.0);
    }
    let out = f(&mut buf[..len]);
    SCRATCH.set(buf);
    out
}

/// Applies `f` to every row of `m` in parallel disjoint blocks.
fn map_rows(pool: &ThreadPool, m: &mut Matrix, f: impl Fn(&mut [f64]) + Sync) {
    let cols = m.cols();
    if m.rows() == 0 || cols == 0 {
        return;
    }
    let block = block_rows(m.rows(), pool.threads(), MIN_MAP_ROWS);
    par_for_rows(pool, m.as_mut_slice(), cols, block, |_, chunk| {
        for row in chunk.chunks_exact_mut(cols) {
            f(row);
        }
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pools() -> Vec<ThreadPool> {
        [1, 2, 4, 8].into_iter().map(ThreadPool::new).collect()
    }

    /// Every compiled copy this CPU can run.
    fn copies() -> Vec<Isa> {
        [Some(Isa::Plain), Isa::avx2(), Isa::avx512()].into_iter().flatten().collect()
    }

    /// Deterministic pseudo-random matrix without an RNG dependency.
    fn test_matrix(rows: usize, cols: usize, salt: u64) -> Matrix {
        Matrix::from_fn(rows, cols, |i, j| {
            let h = (i as u64)
                .wrapping_mul(0x9E37_79B9_7F4A_7C15)
                .wrapping_add((j as u64).wrapping_mul(0xBF58_476D_1CE4_E5B9))
                .wrapping_add(salt);
            ((h >> 11) as f64 / (1u64 << 53) as f64) * 10.0 - 5.0
        })
    }

    #[test]
    fn matmul_bit_identical_across_pools() {
        let a = test_matrix(67, 33, 1);
        let b = test_matrix(33, 29, 2);
        let reference = matmul(&ThreadPool::new(1), &a, &b);
        for pool in pools() {
            let got = matmul(&pool, &a, &b);
            assert!(got == reference, "threads = {}", pool.threads());
        }
    }

    /// The reference product: `out[i][j]` starts at 0.0 and adds
    /// `a[i][p] * b[p][j]` for ascending `p`, each product rounded before
    /// the add — the arithmetic every kernel copy must reproduce bit for bit.
    fn naive(a: &Matrix, b: &Matrix) -> Matrix {
        let mut out = Matrix::zeros(a.rows(), b.cols());
        for i in 0..a.rows() {
            for p in 0..a.cols() {
                let av = a[(i, p)];
                for j in 0..b.cols() {
                    out[(i, j)] += av * b[(p, j)];
                }
            }
        }
        out
    }

    fn assert_same_bits(got: &Matrix, want: &Matrix, what: &str) {
        assert_eq!(got.shape(), want.shape(), "{what}: shape");
        for (idx, (g, w)) in got.as_slice().iter().zip(want.as_slice()).enumerate() {
            assert_eq!(g.to_bits(), w.to_bits(), "{what}: element {idx}: {g} vs {w}");
        }
    }

    /// `(n, k, m)` products covering MR/NR remainders on both sides, k = 1,
    /// k exactly KC, k past KC (several slabs), and 64-row batch shapes.
    const SHAPES: [(usize, usize, usize); 12] = [
        (1, 1, 1),
        (3, 1, 5),
        (5, 7, 3),
        (7, 5, 13),
        (4, 8, 8),
        (13, 256, 9),
        (13, 257, 9),
        (9, 513, 17),
        (67, 33, 29),
        (64, 48, 37),
        (64, 160, 256),
        (64, 64, 128),
    ];

    #[test]
    fn nn_nt_tn_match_naive_reference_bitwise() {
        for (s, &(n, k, m)) in SHAPES.iter().enumerate() {
            let a = test_matrix(n, k, 10 + s as u64);
            let b = test_matrix(k, m, 40 + s as u64);
            let want = naive(&a, &b);
            let (at, bt) = (a.transpose(), b.transpose());
            for pool in pools() {
                let what = |op: &str| format!("{op} {n}x{k}·{k}x{m}, {} threads", pool.threads());
                assert_same_bits(&matmul(&pool, &a, &b), &want, &what("nn"));
                assert_same_bits(&matmul_tn(&pool, &at, &b), &want, &what("tn"));
                assert_same_bits(&matmul_nt(&pool, &a, &bt), &want, &what("nt"));
            }
        }
    }

    #[test]
    fn packed_rhs_products_match_naive_reference_bitwise() {
        for (s, &(n, k, m)) in SHAPES.iter().enumerate() {
            let a = test_matrix(n, k, 110 + s as u64);
            let b = test_matrix(k, m, 130 + s as u64);
            let want = naive(&a, &b);
            let packed = PackedRhs::new(&b);
            let packed_t = PackedRhs::transposed(&b.transpose());
            assert_eq!((packed.rows(), packed.cols()), (k, m));
            // Row blocks of any size, stale output contents included: the
            // first slab overwrites rather than accumulates.
            for rows in [1, 3, MR, 5, n] {
                for (what, b) in [("plain", &packed), ("transposed", &packed_t)] {
                    let mut got = Matrix::full(n, m, f64::NAN);
                    let blocks = a.as_slice().chunks(rows * k).zip(got.as_mut_slice().chunks_mut(rows * m));
                    for (a_block, out) in blocks {
                        matmul_packed(a_block, b, out);
                    }
                    assert_same_bits(&got, &want, &format!("{what} {n}x{k}·{k}x{m}, {rows}-row blocks"));
                }
            }
        }
        // Empty inner dimension: zeros, whatever the output held.
        let mut out = vec![f64::NAN; 6];
        matmul_packed(&[], &PackedRhs::new(&Matrix::zeros(0, 3)), &mut out);
        assert_eq!(out, vec![0.0; 6]);
        matmul_packed(&[1.0, 2.0], &PackedRhs::new(&Matrix::zeros(2, 0)), &mut []);
    }

    #[test]
    fn row_strip_dots_match_naive_reference_bitwise() {
        // Row counts around the strip width, one row, features past KC.
        for (s, &(n, d)) in [(1, 1), (15, 7), (16, 48), (17, 3), (100, 48), (45, 300), (9, 0)].iter().enumerate() {
            let x = test_matrix(n, d, 150 + s as u64);
            let y = test_matrix(1, d, 170 + s as u64);
            let want = naive(&x, &y.transpose());
            let strips = RowStrips::new(&x);
            // Every strip start, to the end and one row short of it.
            for first in (0..n).step_by(LANES) {
                for len in [n - first, (n - first).saturating_sub(1)] {
                    let mut got = vec![f64::NAN; len];
                    strips.dots(first, y.row(0), &mut got);
                    for (r, g) in got.iter().enumerate() {
                        assert_eq!(g.to_bits(), want[(first + r, 0)].to_bits(), "{n}x{d}: row {}", first + r);
                    }
                    // Every compiled copy gives the dispatched copy's bits.
                    for isa in copies().into_iter().filter(|_| d > 0) {
                        let mut copy = vec![f64::NAN; len];
                        dots_on(isa, &strips.data[first * d..], y.row(0), &mut copy);
                        assert!(copy.iter().zip(&got).all(|(c, g)| c.to_bits() == g.to_bits()), "{isa:?} {n}x{d}");
                    }
                }
            }
        }
    }

    #[test]
    fn plan_blocks_give_each_thread_one_block_of_whole_tiles() {
        for isa in copies() {
            let mr = isa.mr();
            assert_eq!(plan_rows(64, 1, mr), 64);
            assert_eq!(plan_rows(64, 2, mr), 32);
            assert_eq!(plan_rows(65, 2, mr), 33usize.next_multiple_of(mr));
            assert_eq!(plan_rows(1, 4, mr), mr);
            assert_eq!(plan_rows(1100, 2, mr), MAX_PLAN_ROWS);
            for threads in 1..=8 {
                assert_eq!(plan_rows(64, threads, mr) % mr, 0);
                assert!(64usize.div_ceil(plan_rows(64, threads, mr)) <= threads);
            }
        }
        // The public plan follows the tile of the copy that runs.
        let mr = Isa::detect().mr();
        for (rows, threads) in [(64, 1), (65, 2), (1, 4), (100, 3), (1100, 2)] {
            assert_eq!(plan_block_rows(rows, threads), plan_rows(rows, threads, mr));
        }
    }

    #[test]
    fn scratch_is_reused_and_nested_calls_get_their_own() {
        with_scratch(8, |outer| {
            outer.fill(1.0);
            with_scratch(4, |inner| inner.fill(2.0));
            assert_eq!(outer, &[1.0; 8]);
        });
        assert_eq!(with_scratch(3, |buf| buf.len()), 3);
    }

    #[test]
    fn matmul_then_runs_its_epilogue_once_after_the_last_slab() {
        // An affine epilogue: applied to a partial sum, or twice, it would
        // change the bits.
        let epilogue = |rows: &mut [f64]| rows.iter_mut().for_each(|v| *v = *v * 0.5 - 1.0);
        for (s, &(n, k, m)) in SHAPES.iter().enumerate() {
            let a = test_matrix(n, k, 110 + s as u64);
            let b = test_matrix(k, m, 130 + s as u64);
            let mut want = naive(&a, &b);
            epilogue(want.as_mut_slice());
            for pool in pools() {
                let what = format!("{n}x{k}·{k}x{m}, {} threads", pool.threads());
                assert_same_bits(&matmul_then(&pool, &a, &b, &epilogue), &want, &what);
            }
        }
    }

    #[test]
    fn every_compiled_copy_matches_naive_reference_bitwise() {
        // Rows around the 4- and 8-row tiles, columns around the 8-wide
        // panel, and depths of one step, one whole slab and one past it.
        let pools: Vec<ThreadPool> = [1, 2, 4].into_iter().map(ThreadPool::new).collect();
        let epilogue = |rows: &mut [f64]| rows.iter_mut().for_each(|v| *v = *v * 0.5 - 1.0);
        let mut salt = 200;
        for n in [1, 7, 9, 17, 64, 65] {
            for k in [1, KC, KC + 1] {
                for m in [5, 8, 37] {
                    salt += 2;
                    let a = test_matrix(n, k, salt);
                    let b = test_matrix(k, m, salt + 1);
                    let want = naive(&a, &b);
                    let mut want_then = want.clone();
                    epilogue(want_then.as_mut_slice());
                    let (at, bt) = (a.transpose(), b.transpose());
                    let packed = PackedRhs::new(&b);
                    for isa in copies() {
                        let what =
                            |op: &str, threads: usize| format!("{isa:?} {op} {n}x{k}·{k}x{m}, {threads} threads");
                        for pool in &pools {
                            let run = |a, b, epilogue: &(dyn Fn(&mut [f64]) + Sync)| {
                                gemm(pool, isa, (n, k, m), a, b, epilogue)
                            };
                            let t = pool.threads();
                            let (a_nn, b_nn) = (Operand::plain(&a), Operand::plain(&b));
                            assert_same_bits(&run(a_nn, b_nn, &|_| {}), &want, &what("nn", t));
                            assert_same_bits(&run(Operand::transposed(&at), b_nn, &|_| {}), &want, &what("tn", t));
                            assert_same_bits(&run(a_nn, Operand::transposed(&bt), &|_| {}), &want, &what("nt", t));
                            assert_same_bits(&run(a_nn, b_nn, &epilogue), &want_then, &what("then", t));
                        }
                        let mut got = Matrix::full(n, m, f64::NAN);
                        packed_product(isa, a.as_slice(), &packed, got.as_mut_slice());
                        assert_same_bits(&got, &want, &what("packed", 1));
                    }
                }
            }
        }
    }

    #[test]
    fn cdist_bit_identical_across_pools() {
        let x = test_matrix(131, 17, 3);
        let y = test_matrix(9, 17, 4);
        let reference = sq_euclidean_cdist(&ThreadPool::new(1), &x, &y);
        for pool in pools() {
            assert!(sq_euclidean_cdist(&pool, &x, &y) == reference);
        }
    }

    #[test]
    fn rowwise_kernels_bit_identical_across_pools() {
        let x = test_matrix(200, 13, 5);
        let serial = ThreadPool::new(1);
        for pool in pools() {
            assert!(softmax_rows(&pool, &x) == softmax_rows(&serial, &x));
            assert!(normalize_rows(&pool, &x) == normalize_rows(&serial, &x));
            assert_eq!(argmax_rows(&pool, &x), argmax_rows(&serial, &x));
        }
    }

    #[test]
    fn adversarial_shapes() {
        for pool in pools() {
            // 0×n and n×0 matmuls.
            assert_eq!(matmul(&pool, &Matrix::zeros(0, 5), &Matrix::zeros(5, 3)).shape(), (0, 3));
            assert_eq!(matmul(&pool, &Matrix::zeros(4, 0), &Matrix::zeros(0, 3)).shape(), (4, 3));
            assert_eq!(matmul(&pool, &Matrix::zeros(4, 5), &Matrix::zeros(5, 0)).shape(), (4, 0));
            assert_eq!(matmul_tn(&pool, &Matrix::zeros(5, 0), &Matrix::zeros(5, 3)).shape(), (0, 3));
            assert!(matmul_tn(&pool, &Matrix::zeros(0, 4), &Matrix::zeros(0, 3)) == Matrix::zeros(4, 3));
            assert!(matmul_nt(&pool, &Matrix::zeros(4, 0), &Matrix::zeros(3, 0)) == Matrix::zeros(4, 3));
            assert_eq!(matmul_nt(&pool, &Matrix::zeros(4, 5), &Matrix::zeros(0, 5)).shape(), (4, 0));
            // 1×1.
            let one = Matrix::from_rows(&[&[3.0]]);
            assert_eq!(matmul(&pool, &one, &one)[(0, 0)], 9.0);
            // Empty cdist.
            assert_eq!(sq_euclidean_cdist(&pool, &Matrix::zeros(0, 4), &Matrix::zeros(2, 4)).shape(), (0, 2));
            assert_eq!(argmax_rows(&pool, &Matrix::zeros(0, 0)), Vec::<usize>::new());
        }
    }
}
