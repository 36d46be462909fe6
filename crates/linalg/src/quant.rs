//! Symmetric i8 quantization for inference-time matmuls.
//!
//! The f32 training path is bitwise-deterministic and stays untouched;
//! this module exists for *inference only*, where a bounded, documented
//! error is an acceptable trade for integer throughput.
//!
//! Scheme (per row of the stored matrix):
//!
//! * scale `s = max_abs / 127` (`0` for an all-zero row);
//! * codes `q = round(x / s)` clamped to `[-127, 127]`, so every
//!   element satisfies the **epsilon contract** `|x − s·q| ≤ s/2`;
//! * products accumulate in `i32`, which is *exact*: the largest
//!   possible magnitude is `K · 127 · 127` ≈ 24.5 M for the workspace's
//!   widest reduction (K = 1517 input features), far below `i32::MAX`,
//!   so the integer sum is order-free and overflow-free.
//!
//! Activations quantize **per row** into a [`QuantizedMatrix`] (one
//! scale per sample). Weights quantize **per output column** into
//! [`QuantizedWeights`]. The end-to-end elementwise error of
//! `C = A @ B` against f32 is then bounded by
//! `K · s_a[i] · s_b[j] · (127 + 1/4)` (write `x = s_a q_a + e_a`,
//! `y = s_b q_b + e_b` with `|e| ≤ s/2` and expand), which the
//! kernel property tests assert case by case.
//!
//! The matmul is a register-blocked micro-kernel over one packed
//! weight layout. The weights are packed once, into panels of 16
//! output columns by 4-byte reduction groups, and the activation rows
//! are zero-padded to whole groups. On AVX-512 VNNI the kernel keeps
//! 4 rows × 2 panels of i32 accumulators in registers: per group it
//! loads one 64-byte word per panel, broadcasts one group per row and
//! issues one `vpdpbusd` per accumulator, then dequantizes 16 outputs
//! per instruction. Elsewhere a portable kernel reads the same layout.
//! Both sums are exact in i32 and both end in the same
//! `sa · sb[j] · s as f32`, so the kernels are **bit-identical** —
//! hardware dispatch never changes an attribution, only its latency.

use crate::{Matrix, Result, ShapeError};

/// Reduction bytes per group: `vpdpbusd` contracts 4 byte pairs into
/// each i32 lane. Activation rows are padded to a multiple of it.
const GROUP: usize = 4;
/// Output columns per weight panel: one 512-bit register of i32 sums.
const PANEL: usize = 16;
/// Bytes of one panel's group: the VNNI kernel's 64-byte load.
const PANEL_GROUP: usize = PANEL * GROUP;

/// A row-major i8 matrix with one dequantization scale per row: the
/// activation side of [`matmul_quant_into`]. Each row is stored
/// zero-padded to a whole number of 4-byte groups.
#[derive(Debug, Clone, Default)]
pub struct QuantizedMatrix {
    rows: usize,
    cols: usize,
    /// Row stride in bytes: `cols` rounded up to a multiple of
    /// `GROUP`, the padding zero.
    stride: usize,
    data: Vec<i8>,
    scales: Vec<f32>,
    /// Per-row Σq, maintained by the quantizers. The matmul reads the
    /// weights as unsigned `q + 128` (see [`QuantizedWeights`]), so it
    /// computes `Σ q_a · (q_b + 128)` and subtracts `128 · Σ q_a` —
    /// this is that correction term, free at quantization time.
    rowsums: Vec<i32>,
}

impl QuantizedMatrix {
    /// Empty placeholder; fill it with [`Self::quantize_rows_into`].
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of stored rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of stored columns (the reduction dimension).
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Per-row dequantization scales.
    pub fn scales(&self) -> &[f32] {
        &self.scales
    }

    /// Per-row sums of the stored codes (see the field docs; used by
    /// the matmul's unsigned-operand bias correction).
    pub fn rowsums(&self) -> &[i32] {
        &self.rowsums
    }

    /// One stored row of codes, without its padding.
    pub fn row(&self, r: usize) -> &[i8] {
        debug_assert!(r < self.rows);
        &self.data[r * self.stride..r * self.stride + self.cols]
    }

    /// Quantize `m` row by row (one scale per row). Allocating form of
    /// [`Self::quantize_rows_into`].
    pub fn quantize_rows(m: &Matrix) -> Self {
        let mut out = Self::new();
        out.quantize_rows_into(m);
        out
    }

    /// Quantize `m` row by row into `self`, reusing the existing code
    /// and scale buffers (allocation-free once shapes stabilise).
    pub fn quantize_rows_into(&mut self, m: &Matrix) {
        self.quantize_prefix_into(m, m.rows());
    }

    /// Quantize the first `rows` rows of `m` into `self`. Each row has
    /// its own scale, so every stored row is bitwise the one
    /// [`Self::quantize_rows_into`] stores for it.
    ///
    /// # Panics
    /// If `rows > m.rows()`.
    pub fn quantize_prefix_into(&mut self, m: &Matrix, rows: usize) {
        assert!(rows <= m.rows(), "quantize {rows} of {} rows", m.rows());
        let cols = m.cols();
        let stride = cols.next_multiple_of(GROUP);
        self.rows = rows;
        self.cols = cols;
        self.stride = stride;
        self.data.clear();
        self.data.resize(rows * stride, 0);
        self.scales.clear();
        self.scales.resize(rows, 0.0);
        self.rowsums.clear();
        self.rowsums.resize(rows, 0);
        let simd = simd_quantize_available();
        for (r, row) in m
            .as_slice()
            .chunks_exact(cols.max(1))
            .take(rows)
            .enumerate()
        {
            let q = &mut self.data[r * stride..r * stride + cols];
            let (scale, rowsum) = quantize_row_dispatch(row, q, simd);
            self.scales[r] = scale;
            self.rowsums[r] = rowsum;
        }
    }
}

/// A weight matrix quantized **per column** (one scale per output) and
/// packed for [`matmul_quant_into`]: the right-hand side of `x @ W`.
///
/// The codes are stored in panels of 16 output columns. Within a
/// panel, each 4-byte reduction group holds 16 columns' 4 codes in a
/// row, so one 64-byte load feeds 16 i32 lanes. Codes are stored
/// biased as the unsigned byte `q + 128`, the operand `vpdpbusd`
/// wants unsigned; the padding (reduction tail and missing columns of
/// the last panel) is the byte 0, which adds nothing to any sum.
#[derive(Debug, Clone, Default)]
pub struct QuantizedWeights {
    /// Reduction length K: the rows of the quantized matrix.
    inputs: usize,
    /// Output columns: the columns of the quantized matrix.
    outputs: usize,
    /// 4-byte groups per column, `ceil(K / 4)`.
    groups: usize,
    /// Byte `t` of group `g` of column `16p + c` sits at
    /// `((p · groups + g) · 16 + c) · 4 + t`.
    packed: Vec<u8>,
    scales: Vec<f32>,
}

impl QuantizedWeights {
    /// Quantize `m` **per column** and pack it. Column `j` gets the
    /// codes and scale that [`QuantizedMatrix::quantize_rows`] gives
    /// row `j` of `m`'s transpose.
    pub fn from_cols(m: &Matrix) -> Self {
        let (inputs, outputs) = m.shape();
        let groups = inputs.div_ceil(GROUP);
        let mut packed = vec![0u8; outputs.div_ceil(PANEL) * groups * PANEL_GROUP];
        let mut scales = vec![0.0f32; outputs];
        let mut col = vec![0.0f32; inputs];
        let mut q = vec![0i8; inputs];
        let simd = simd_quantize_available();
        for (j, scale) in scales.iter_mut().enumerate() {
            for (r, v) in col.iter_mut().enumerate() {
                *v = m[(r, j)];
            }
            *scale = quantize_row_dispatch(&col, &mut q, simd).0;
            let panel = (j / PANEL) * groups * PANEL_GROUP + (j % PANEL) * GROUP;
            for (k, &c) in q.iter().enumerate() {
                packed[panel + (k / GROUP) * PANEL_GROUP + k % GROUP] = c as u8 ^ 0x80;
            }
        }
        Self {
            inputs,
            outputs,
            groups,
            packed,
            scales,
        }
    }

    /// Per-output-column dequantization scales.
    pub fn scales(&self) -> &[f32] {
        &self.scales
    }
}

/// f32 lanes per partial maximum in [`quantize_row`]'s max-abs scan.
/// `max` is exact in any order, so the lane split changes no result.
const ML: usize = 16;

/// Quantize one row into `q`, returning its scale.
///
/// The rounding step deliberately avoids a float→int `as` cast: Rust's
/// cast saturates (`llvm.fptosi.sat`), which LLVM only lowers as scalar
/// `vcvttss2si` — it kept every earlier version of this loop at well
/// under 1 element/ns. Adding `1.5·2²³` instead forces the value into
/// a mantissa window where the low bits *are* the round-to-nearest-even
/// integer, so one add + bit reinterpretation rounds and converts in
/// plain vectorizable integer ops. `|v · 127/max_abs| ≤ 127` by
/// construction, so the biased sum stays in-window and the final `as
/// i8` truncation is exact; ties round to even rather than away from
/// zero, which the `|x − s·q| ≤ s/2` contract permits. Non-finite
/// inputs produce meaningless (but defined) codes; the quantized path
/// is inference-only and documented to expect finite activations.
fn quantize_row(row: &[f32], q: &mut [i8]) -> f32 {
    let mut maxes = [0.0f32; ML];
    let mut chunks = row.chunks_exact(ML);
    for xs in &mut chunks {
        let xs: &[f32; ML] = xs.try_into().unwrap();
        for l in 0..ML {
            maxes[l] = maxes[l].max(xs[l].abs());
        }
    }
    let mut max_abs = chunks
        .remainder()
        .iter()
        .fold(0.0f32, |m, &v| m.max(v.abs()));
    for &m in &maxes {
        max_abs = max_abs.max(m);
    }
    if max_abs == 0.0 {
        q.fill(0);
        return 0.0;
    }
    let inv = 127.0 / max_abs;
    const MAGIC: f32 = 12582912.0; // 1.5 · 2²³
    const BIAS: i32 = 0x4B40_0000; // MAGIC.to_bits() as i32
    for (qi, &v) in q.iter_mut().zip(row) {
        *qi = ((v * inv + MAGIC).to_bits() as i32).wrapping_sub(BIAS) as i8;
    }
    max_abs / 127.0
}

/// True when the hand-vectorized quantizer can run. Resolved once per
/// matrix (the detection macro caches, but hoisting keeps it out of
/// the per-row path entirely).
fn simd_quantize_available() -> bool {
    #[cfg(target_arch = "x86_64")]
    {
        std::arch::is_x86_feature_detected!("avx512bw")
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        false
    }
}

/// Quantize one row and return `(scale, Σq)`. The SIMD and portable
/// paths produce identical codes on finite input: both round with
/// ties-to-even (`vcvtps2dq` vs the magic-number add) from the same
/// `v · 127/max_abs` f32 product, and the max/sum reductions are exact
/// in any order. `quantize_paths_agree_bitwise` asserts this.
fn quantize_row_dispatch(row: &[f32], q: &mut [i8], simd: bool) -> (f32, i32) {
    #[cfg(target_arch = "x86_64")]
    {
        if simd {
            // SAFETY: `simd` is only true when AVX-512BW (which
            // implies AVX-512F) was detected at runtime.
            return unsafe { x86::quantize_row_avx512(row, q) };
        }
    }
    let _ = simd;
    let scale = quantize_row(row, q);
    (scale, q.iter().map(|&v| v as i32).sum())
}

/// Rows per tile of [`matmul_portable`]: each panel group is unpacked
/// once for this many activation rows.
const PORTABLE_ROWS: usize = 4;

/// Portable kernel over the packed layout, `PORTABLE_ROWS` rows by one
/// panel at a time. Each 4-byte group's 64 weight bytes are split once
/// into the 4 byte planes of its 16 columns; every row then adds its 4
/// codes times those planes into 16 i32 sums, in fixed-size arrays
/// LLVM keeps in vector registers.
fn matmul_portable(a: &QuantizedMatrix, w: &QuantizedWeights, out: &mut [f32], accumulate: bool) {
    let m = w.outputs;
    let panel_len = w.groups * PANEL_GROUP;
    for (i0, o_rows) in (0..)
        .step_by(PORTABLE_ROWS)
        .zip(out.chunks_mut(PORTABLE_ROWS * m))
    {
        let rows = o_rows.len() / m;
        let a_rows = &a.data[i0 * a.stride..(i0 + rows) * a.stride];
        for (p, panel) in w.packed.chunks_exact(panel_len).enumerate() {
            let mut acc = [[0i32; PANEL]; PORTABLE_ROWS];
            for (g, xb) in panel.chunks_exact(PANEL_GROUP).enumerate() {
                let mut planes = [[0i16; PANEL]; GROUP];
                for (c, b) in xb.chunks_exact(GROUP).enumerate() {
                    for t in 0..GROUP {
                        planes[t][c] = b[t] as i16;
                    }
                }
                for (acc, xa) in acc.iter_mut().zip(a_rows.chunks_exact(a.stride)) {
                    let xa = &xa[g * GROUP..(g + 1) * GROUP];
                    for (t, plane) in planes.iter().enumerate() {
                        let x = xa[t] as i16;
                        for (s, &b) in acc.iter_mut().zip(plane) {
                            // Any i8 times any u8 fits in i16: 128 · 255 < 2¹⁵.
                            *s += (x * b) as i32;
                        }
                    }
                }
            }
            let j0 = p * PANEL;
            let cols = PANEL.min(m - j0);
            for (r, acc) in acc.iter().enumerate().take(rows) {
                let i = i0 + r;
                let (sa, bias) = (a.scales[i], 128 * a.rowsums[i]);
                let o = &mut o_rows[r * m + j0..r * m + j0 + cols];
                for ((o, &b), &s) in o.iter_mut().zip(&w.scales[j0..]).zip(acc) {
                    let v = sa * b * (s - bias) as f32;
                    if accumulate {
                        *o += v;
                    } else {
                        *o = v;
                    }
                }
            }
        }
    }
}

/// The AVX-512 kernels. Integer sums are exact, so the VNNI kernel's
/// outputs are bit-identical to [`matmul_portable`]'s; the unit tests
/// below check both against a plain i32 reference, tails included.
#[cfg(target_arch = "x86_64")]
mod x86 {
    use super::{QuantizedMatrix, QuantizedWeights, GROUP, PANEL, PANEL_GROUP};
    use std::arch::x86_64::*;

    /// One-row quantizer: masked-load max-abs scan, then
    /// multiply + `vcvtps2dq` + truncating `vpmovdb` store, with the
    /// `Σq` row sum fused into the same pass. `vcvtps2dq` rounds
    /// ties-to-even — exactly what the portable magic-number path
    /// computes — and `|v · 127/max_abs| ≤ 127` makes the i32→i8
    /// truncation lossless, so codes, scale and row sum are identical
    /// to [`super::quantize_row`] on finite input.
    ///
    /// # Safety
    /// Caller must ensure AVX-512F + AVX-512BW are available.
    #[target_feature(enable = "avx512f,avx512bw")]
    pub unsafe fn quantize_row_avx512(row: &[f32], q: &mut [i8]) -> (f32, i32) {
        let k = row.len();
        let rp = row.as_ptr();
        let mut vmax = _mm512_setzero_ps();
        let mut p = 0;
        while p + 16 <= k {
            vmax = _mm512_max_ps(vmax, _mm512_abs_ps(_mm512_loadu_ps(rp.add(p))));
            p += 16;
        }
        if p < k {
            let mask = (1u16 << (k - p)) - 1;
            vmax = _mm512_max_ps(vmax, _mm512_abs_ps(_mm512_maskz_loadu_ps(mask, rp.add(p))));
        }
        let max_abs = _mm512_reduce_max_ps(vmax);
        if max_abs == 0.0 {
            q.fill(0);
            return (0.0, 0);
        }
        let inv = _mm512_set1_ps(127.0 / max_abs);
        let qp = q.as_mut_ptr();
        let mut vsum = _mm512_setzero_si512();
        p = 0;
        while p + 16 <= k {
            let qi = _mm512_cvtps_epi32(_mm512_mul_ps(_mm512_loadu_ps(rp.add(p)), inv));
            vsum = _mm512_add_epi32(vsum, qi);
            _mm512_mask_cvtepi32_storeu_epi8(qp.add(p), 0xffff, qi);
            p += 16;
        }
        if p < k {
            // Masked-off lanes load as +0.0 → code 0 → no effect on Σq.
            let mask = (1u16 << (k - p)) - 1;
            let qi = _mm512_cvtps_epi32(_mm512_mul_ps(_mm512_maskz_loadu_ps(mask, rp.add(p)), inv));
            vsum = _mm512_add_epi32(vsum, qi);
            _mm512_mask_cvtepi32_storeu_epi8(qp.add(p), mask, qi);
        }
        (max_abs / 127.0, _mm512_reduce_add_epi32(vsum))
    }

    /// Rows per register tile of [`matmul_vnni`].
    const ROWS: usize = 4;
    /// Panels per register tile: 4 × 2 accumulators, 2 weight words
    /// and a broadcast use 11 of the 32 zmm registers.
    const PANELS: usize = 2;

    /// `out (=|+=) a @ w` on AVX-512 VNNI, tile by tile: `ROWS` rows by
    /// `PANELS` panels, then the row and panel tails with smaller tiles.
    /// Every load stays inside its buffer because the quantizers keep
    /// `a.stride == 4 · w.groups` whenever `a.cols == w.inputs`, store
    /// `a.stride` bytes per row and `groups · 64` bytes per panel, and
    /// the last panel's missing columns are masked.
    ///
    /// # Safety
    /// Caller must ensure AVX-512F, AVX-512BW and AVX-512VNNI are
    /// available, `a.cols == w.inputs` and
    /// `out.len() == a.rows · w.outputs`.
    #[target_feature(enable = "avx512f,avx512bw,avx512vnni")]
    pub unsafe fn matmul_vnni(
        a: &QuantizedMatrix,
        w: &QuantizedWeights,
        out: &mut [f32],
        accumulate: bool,
    ) {
        let panels = w.outputs.div_ceil(PANEL);
        let mut i = 0;
        while i < a.rows {
            let rows = ROWS.min(a.rows - i);
            let mut p = 0;
            while p < panels {
                let np = PANELS.min(panels - p);
                match (rows, np) {
                    (4, 2) => tile::<4, 2>(a, w, i, p, out, accumulate),
                    (4, _) => tile::<4, 1>(a, w, i, p, out, accumulate),
                    (3, 2) => tile::<3, 2>(a, w, i, p, out, accumulate),
                    (3, _) => tile::<3, 1>(a, w, i, p, out, accumulate),
                    (2, 2) => tile::<2, 2>(a, w, i, p, out, accumulate),
                    (2, _) => tile::<2, 1>(a, w, i, p, out, accumulate),
                    (_, 2) => tile::<1, 2>(a, w, i, p, out, accumulate),
                    _ => tile::<1, 1>(a, w, i, p, out, accumulate),
                }
                p += np;
            }
            i += rows;
        }
    }

    /// One register tile: rows `i0..i0 + R` against panels
    /// `p0..p0 + P`. Per 4-byte group, each panel's 64 weight bytes
    /// are loaded once and each row's 4 activation codes broadcast
    /// once, then `vpdpbusd` adds `Σ_t (q_b + 128) · q_a` into every
    /// lane. The epilogue removes the bias (`− 128 · Σ q_a`) and
    /// dequantizes 16 lanes at once as `(sa · sb[j]) · s`, the
    /// portable kernel's expression; the last panel's missing columns
    /// are masked off on load and store.
    ///
    /// # Safety
    /// As [`matmul_vnni`], plus `i0 + R ≤ a.rows` and
    /// `16 · (p0 + P) < w.outputs + 16`.
    #[target_feature(enable = "avx512f,avx512bw,avx512vnni")]
    #[inline]
    unsafe fn tile<const R: usize, const P: usize>(
        a: &QuantizedMatrix,
        w: &QuantizedWeights,
        i0: usize,
        p0: usize,
        out: &mut [f32],
        accumulate: bool,
    ) {
        let mut acc = [[_mm512_setzero_si512(); P]; R];
        let panel_len = w.groups * PANEL_GROUP;
        let xa = a.data.as_ptr().add(i0 * a.stride);
        let xb = w.packed.as_ptr().add(p0 * panel_len);
        for g in 0..w.groups {
            let mut b = [_mm512_setzero_si512(); P];
            for (p, b) in b.iter_mut().enumerate() {
                *b = _mm512_loadu_si512(xb.add(p * panel_len + g * PANEL_GROUP) as *const __m512i);
            }
            for (r, acc) in acc.iter_mut().enumerate() {
                let x = (xa.add(r * a.stride + g * GROUP) as *const i32).read_unaligned();
                let x = _mm512_set1_epi32(x);
                for (acc, &b) in acc.iter_mut().zip(&b) {
                    *acc = _mm512_dpbusd_epi32(*acc, b, x);
                }
            }
        }
        let m = w.outputs;
        for (r, acc) in acc.iter().enumerate() {
            let i = i0 + r;
            let bias = _mm512_set1_epi32(128 * a.rowsums[i]);
            let sa = _mm512_set1_ps(a.scales[i]);
            for (p, &acc) in acc.iter().enumerate() {
                let j0 = (p0 + p) * PANEL;
                let mask = if m - j0 >= PANEL {
                    u16::MAX
                } else {
                    (1u16 << (m - j0)) - 1
                };
                let sb = _mm512_maskz_loadu_ps(mask, w.scales.as_ptr().add(j0));
                let s = _mm512_cvtepi32_ps(_mm512_sub_epi32(acc, bias));
                let mut v = _mm512_mul_ps(_mm512_mul_ps(sa, sb), s);
                let o = out.as_mut_ptr().add(i * m + j0);
                if accumulate {
                    v = _mm512_add_ps(_mm512_maskz_loadu_ps(mask, o), v);
                }
                _mm512_mask_storeu_ps(o, mask, v);
            }
        }
    }
}

/// True when the VNNI kernel can run; resolved once per matmul call.
fn vnni_available() -> bool {
    #[cfg(target_arch = "x86_64")]
    {
        std::arch::is_x86_feature_detected!("avx512vnni")
            && std::arch::is_x86_feature_detected!("avx512bw")
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        false
    }
}

/// `out[i][j] = a.scale[i] · w.scale[j] · Σ_k a[i][k] · w[k][j]`.
///
/// `a` is row-quantized activations `(n × K)`, `w` column-quantized
/// weights from [`QuantizedWeights::from_cols`] `(K × m)`; `out` has
/// shape `(n, m)` and is fully overwritten. The i32 accumulation is
/// exact (see module docs), so all rounding error comes from the two
/// quantizations.
pub fn matmul_quant_into(
    a: &QuantizedMatrix,
    w: &QuantizedWeights,
    out: &mut Matrix,
) -> Result<()> {
    quant_mm(a, w, out, false, vnni_available())
}

/// Accumulating form of [`matmul_quant_into`]: `out[i][j] += …`. Used
/// to fuse the root- and neighbour-weight products of a SAGE layer
/// without a second output buffer.
pub fn matmul_quant_acc(a: &QuantizedMatrix, w: &QuantizedWeights, out: &mut Matrix) -> Result<()> {
    quant_mm(a, w, out, true, vnni_available())
}

fn quant_mm(
    a: &QuantizedMatrix,
    w: &QuantizedWeights,
    out: &mut Matrix,
    accumulate: bool,
    vnni: bool,
) -> Result<()> {
    if a.cols != w.inputs || out.shape() != (a.rows, w.outputs) {
        return Err(ShapeError::new(format!(
            "quant matmul ({}x{}) x ({}x{}) into {:?}",
            a.rows,
            a.cols,
            w.inputs,
            w.outputs,
            out.shape()
        )));
    }
    if a.cols == 0 || w.outputs == 0 {
        // Empty reduction: the product is all zeros.
        if !accumulate {
            out.as_mut_slice().fill(0.0);
        }
        return Ok(());
    }
    #[cfg(target_arch = "x86_64")]
    if vnni {
        // SAFETY: `vnni` is only true when AVX-512BW and AVX-512VNNI
        // were detected at runtime (AVX-512BW implies AVX-512F), and
        // the shapes were checked above.
        unsafe { x86::matmul_vnni(a, w, out.as_mut_slice(), accumulate) };
        return Ok(());
    }
    let _ = vnni;
    matmul_portable(a, w, out.as_mut_slice(), accumulate);
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn roundtrip_error_within_half_scale() {
        let m = Matrix::from_vec(2, 4, vec![1.0, -0.5, 0.25, 0.0, 100.0, -3.0, 7.5, 0.1]).unwrap();
        let q = QuantizedMatrix::quantize_rows(&m);
        for r in 0..2 {
            let s = q.scales()[r];
            for (c, &qc) in q.row(r).iter().enumerate() {
                let err = (m[(r, c)] - s * qc as f32).abs();
                assert!(
                    err <= s / 2.0 + 1e-12,
                    "row {r} col {c}: err {err} > s/2 {}",
                    s / 2.0
                );
            }
        }
    }

    #[test]
    fn zero_row_gets_zero_scale_and_codes() {
        let m = Matrix::zeros(1, 5);
        let q = QuantizedMatrix::quantize_rows(&m);
        assert_eq!(q.scales(), &[0.0]);
        assert!(q.row(0).iter().all(|&v| v == 0));
    }

    #[test]
    fn prefix_rows_equal_the_full_quantization() {
        let m = Matrix::from_fn(6, 19, |r, c| ((r * 7 + c * 3) % 11) as f32 * 0.37 - 1.8);
        let full = QuantizedMatrix::quantize_rows(&m);
        let mut q = QuantizedMatrix::quantize_rows(&Matrix::zeros(9, 19));
        for rows in [0, 1, 4, 6] {
            q.quantize_prefix_into(&m, rows);
            assert_eq!(q.rows(), rows);
            assert_eq!(q.scales(), &full.scales()[..rows]);
            assert_eq!(q.rowsums(), &full.rowsums()[..rows]);
            for r in 0..rows {
                assert_eq!(q.row(r), full.row(r), "row {r} of a {rows}-row prefix");
            }
        }
    }

    #[test]
    fn quant_matmul_tracks_f32_within_bound() {
        let a = Matrix::from_fn(5, 33, |r, c| ((r * 31 + c * 7) % 17) as f32 * 0.21 - 1.6);
        let b = Matrix::from_fn(33, 6, |r, c| ((r * 13 + c * 5) % 23) as f32 * 0.09 - 1.0);
        let exact = a.matmul(&b).unwrap();
        let qa = QuantizedMatrix::quantize_rows(&a);
        let qbt = QuantizedWeights::from_cols(&b);
        let mut got = Matrix::zeros(5, 6);
        matmul_quant_into(&qa, &qbt, &mut got).unwrap();
        for i in 0..5 {
            for j in 0..6 {
                let bound = 33.0 * qa.scales()[i] * qbt.scales()[j] * 127.25 + 1e-4;
                let err = (exact[(i, j)] - got[(i, j)]).abs();
                assert!(err <= bound, "({i},{j}): err {err} > bound {bound}");
            }
        }
    }

    #[test]
    fn acc_form_adds_onto_existing_values() {
        let a = Matrix::from_fn(3, 8, |r, c| (r + c) as f32 * 0.3 - 1.0);
        let b = Matrix::from_fn(8, 3, |r, c| (r * c) as f32 * 0.1 - 0.4);
        let qa = QuantizedMatrix::quantize_rows(&a);
        let qbt = QuantizedWeights::from_cols(&b);
        let mut once = Matrix::zeros(3, 3);
        matmul_quant_into(&qa, &qbt, &mut once).unwrap();
        let mut twice = once.clone();
        matmul_quant_acc(&qa, &qbt, &mut twice).unwrap();
        for (o, t) in once.as_slice().iter().zip(twice.as_slice()) {
            assert!((t - 2.0 * o).abs() <= 1e-5, "{t} vs 2*{o}");
        }
    }

    /// The SIMD quantizer must emit the same codes, scale and row sum
    /// as the portable magic-number path — both round ties-to-even
    /// from the same f32 product. Sweeps k across lane-width tails.
    #[test]
    fn quantize_paths_agree_bitwise() {
        for &k in &[1usize, 7, 15, 16, 17, 31, 32, 33, 59, 64, 100, 129] {
            let row: Vec<f32> = (0..k)
                .map(|i| {
                    if i % 5 == 3 {
                        0.0
                    } else {
                        ((i * 37 + 11) % 83) as f32 * 0.047 - 1.9
                    }
                })
                .collect();
            let mut q_ref = vec![0i8; k];
            let scale_ref = quantize_row(&row, &mut q_ref);
            let sum_ref: i32 = q_ref.iter().map(|&v| v as i32).sum();
            let (scale, sum) = {
                let mut q = vec![0i8; k];
                let got = quantize_row_dispatch(&row, &mut q, simd_quantize_available());
                assert_eq!(q, q_ref, "codes diverged at k={k}");
                got
            };
            assert_eq!(
                scale.to_bits(),
                scale_ref.to_bits(),
                "scale diverged at k={k}"
            );
            assert_eq!(sum, sum_ref, "rowsum diverged at k={k}");
            // All-zero rows keep the zero-scale contract on both paths.
            let zeros = vec![0.0f32; k];
            let mut qz = vec![1i8; k];
            let (sz, rz) = quantize_row_dispatch(&zeros, &mut qz, simd_quantize_available());
            assert_eq!((sz, rz), (0.0, 0));
            assert!(qz.iter().all(|&v| v == 0));
        }
    }

    /// Deterministic values in about ±10, sign-symmetric, with exact
    /// zeros mixed in.
    fn fill(seed: u64, len: usize) -> Vec<f32> {
        let mut s = seed | 1;
        (0..len)
            .map(|_| {
                s = s
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                if (s >> 20).is_multiple_of(5) {
                    0.0
                } else {
                    ((s >> 33) as i32 % 2001 - 1000) as f32 / 97.0
                }
            })
            .collect()
    }

    /// Like [`fill`], but on the quantizer's edges: every third row (of
    /// `cols` values) is all zeros, and with `saturate` the other values
    /// are `-1`, `0` or `+1`, so the nonzero codes are all `±127`.
    fn fill_codes(seed: u64, rows: usize, cols: usize, saturate: bool) -> Vec<f32> {
        let mut v = fill(seed, rows * cols);
        for (r, row) in v.chunks_mut(cols.max(1)).enumerate() {
            for x in row.iter_mut() {
                if r % 3 == 1 {
                    *x = 0.0;
                } else if saturate {
                    *x = (*x as i32 % 3).signum() as f32;
                }
            }
        }
        v
    }

    /// Plain i32 dot product of two code rows: the reference every
    /// kernel must equal exactly.
    fn dot_i8(a: &[i8], b: &[i8]) -> i32 {
        a.iter().zip(b).map(|(&x, &y)| x as i32 * y as i32).sum()
    }

    /// `x (n×k) @ w (k×m)` through the dispatched kernel (VNNI where the
    /// CPU has it) and the portable one, in both the overwriting and the
    /// accumulating form, each bitwise against `sa · sb[j] · dot as f32`
    /// over the stored codes. Returns the lowest activation and weight
    /// codes, so callers can see that negative codes were drawn.
    fn check_quant_kernels(n: usize, k: usize, m: usize, seed: u64, saturate: bool) -> [i8; 2] {
        let x = Matrix::from_vec(n, k, fill_codes(seed, n, k, saturate)).unwrap();
        let w =
            Matrix::from_vec(k, m, fill_codes(seed ^ 0x94d049bb133111eb, k, m, saturate)).unwrap();
        let qa = QuantizedMatrix::quantize_rows(&x);
        let qw = QuantizedWeights::from_cols(&w);
        // Column j of the packed weights holds the codes the row
        // quantizer gives row j of the transpose.
        let qwt = QuantizedMatrix::quantize_rows(&w.transpose());
        let scale_bits = |s: &[f32]| s.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        assert_eq!(scale_bits(qw.scales()), scale_bits(qwt.scales()));
        let start = fill(seed ^ 0x2545f4914f6cdd1d, n * m);
        let mut want_into = vec![0.0f32; n * m];
        let mut want_acc = start.clone();
        for i in 0..n {
            for j in 0..m {
                let s = dot_i8(qa.row(i), qwt.row(j));
                let v = qa.scales()[i] * qwt.scales()[j] * s as f32;
                want_into[i * m + j] = v;
                want_acc[i * m + j] += v;
            }
        }
        for (kernel, vnni) in [("dispatched", vnni_available()), ("portable", false)] {
            for (form, accumulate, want) in [("into", false, &want_into), ("acc", true, &want_acc)]
            {
                let mut got = Matrix::from_vec(n, m, start.clone()).unwrap();
                quant_mm(&qa, &qw, &mut got, accumulate, vnni).unwrap();
                for (idx, (x, y)) in want.iter().zip(got.as_slice()).enumerate() {
                    assert!(
                        x.to_bits() == y.to_bits(),
                        "{kernel} {form} (n={n}, K={k}, m={m}, saturate={saturate}) \
                         diverged at {idx}: {x} vs {y}"
                    );
                }
            }
        }
        let lowest = |q: &QuantizedMatrix| {
            (0..q.rows())
                .flat_map(|r| q.row(r))
                .fold(0, |a, &c| c.min(a))
        };
        [lowest(&qa), lowest(&qwt)]
    }

    /// Every reduction length up to 200 (each tail mod 4 and mod 64), at
    /// fixed row and column counts that cover empty and partial row
    /// tiles and 1-, 16-, 17- and 40-column panels; the property below
    /// draws random shapes in the same ranges. Both operands draw codes
    /// down to −127.
    #[test]
    fn quant_kernels_match_the_i32_reference_at_every_k() {
        let shapes = [(0, 1), (1, 1), (3, 16), (4, 17), (5, 32), (9, 40)];
        let mut lowest = [0i8; 2];
        for k in 0..=200 {
            let (n, m) = shapes[k % shapes.len()];
            let [a, w] = check_quant_kernels(n, k, m, k as u64, k % 2 == 0);
            lowest = [lowest[0].min(a), lowest[1].min(w)];
        }
        assert_eq!(lowest, [-127, -127]);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        /// Every kernel equals the plain i32 reference bit for bit, at
        /// random shapes with all-zero rows and, half the time, only
        /// `±127` codes.
        #[test]
        fn quant_kernels_are_bitwise_exact(
            n in 0usize..=9,
            k in 0usize..=200,
            m in 1usize..=40,
            seed in 0u64..1 << 48,
            saturate in any::<bool>(),
        ) {
            check_quant_kernels(n, k, m, seed, saturate);
        }
    }

    #[test]
    fn shape_mismatch_is_an_error() {
        let qa = QuantizedMatrix::quantize_rows(&Matrix::zeros(2, 3));
        let qbt = QuantizedWeights::from_cols(&Matrix::zeros(4, 2));
        let mut out = Matrix::zeros(2, 2);
        assert!(matmul_quant_into(&qa, &qbt, &mut out).is_err());
    }
}
