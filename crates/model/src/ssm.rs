//! The selective-state-space (SSM) recurrence of Mamba2.
//!
//! Decode-step semantics per head `h` (paper Fig. 1, Eq. 1a):
//!
//! ```text
//! Δ_h  = softplus(Δraw_h + Δbias_h)
//! Ā_h  = exp(-exp(a_log_h) · Δ_h)                  (scalar per head)
//! h_t[h,p,n] = Ā_h · h_{t-1}[h,p,n] + (Δ_h · B[n]) · x[h,p]
//! y[h,p]     = Σ_n h_t[h,p,n] · C[n] + D_h · x[h,p]
//! ```
//!
//! The element-wise structure (`Δ⊙B`, `B̄⊙x`, `Ā⊙h`, `h⊙C`, `x⊙D`) maps
//! one-to-one onto the EMUs of the accelerator's SSMU (Fig. 5c), and the
//! head/state tiling of the recurrence is what the fine-grained pipeline
//! (Fig. 6c) exploits. This module is deliberately written head-by-head so
//! the cycle model and the quantized path can mirror its loop structure.
//!
//! The recurrence is **not rotation-equivariant**: multiplying `h_t` by a
//! Hadamard matrix does not commute with the element-wise products
//! (Eq. 1b–1d of the paper). `tests::ssm_is_not_rotation_equivariant`
//! verifies this numerically, which is why the quantizer rotates only the
//! linear layers and quantizes the SSM with the PoT scheme instead.
//!
//! # State layout
//!
//! The hidden state `h[h,p,n]` is *stored* `(nheads, d_state, headdim)`:
//! for each head, `d_state` rows of `headdim` channels, so the `headdim`
//! rows `p` that share one `B[n]` and one `C[n]` lie side by side. The
//! math above still indexes `[h][p][n]`; [`state_to_logical`] and
//! [`state_from_logical`] convert between the two orders for code that
//! needs the logical one (LightMamba*'s PoT groups, which run over
//! `[h][p][n]`).
//!
//! # Forms
//!
//! The head step — update a head's `(d_state × headdim)` slab and read
//! `y` out of it — has three forms, selected by the `Isa` that
//! [`ssm_step_into_on`] is handed (the model's step asks the workspace's
//! one runtime CPU check, [`lightmamba_tensor::isa::detect`], once and
//! hands it down; [`active_isa`] names the one that runs):
//!
//! * **scalar** — row by row, `s ← Ā·s + (Δ·x_p)·B[n]` and
//!   `acc += s·C[n]` for `n` ascending. This loop *defines* the float
//!   order of the recurrence (every batched ≡ sequential pin, the serve
//!   golden digests and the benchmark's exact lane rest on it) and is
//!   the only form on a host without AVX2.
//! * **AVX2** (compiled on every `x86_64` build) — lane `r` of a
//!   register is row `p + r`. For `n` ascending it loads the state's
//!   `[n][p..]` run contiguously, forms `Ā·s + (Δ·x)·B[n]` with separate
//!   `mul`, `mul`, `add`, stores it back and adds `s·C[n]` into that
//!   row's accumulator: exactly the scalar chain
//!   `((0 + s₀c₀) + s₁c₁) + …` per lane, nothing reassociated, no
//!   transpose. 32 rows run at once in four accumulators, then 8 in
//!   one; the last `headdim % 8` rows run the scalar loop.
//! * **AVX-512** (compiled on every `x86_64` build, run on hosts with
//!   AVX512F, AVX512BW and AVX512-VNNI — the GEMM's tier) — the AVX2
//!   form at 16 lanes: 64 rows in four accumulators, then 16 in one,
//!   then the scalar loop for the last `headdim % 16` rows.
//!
//! Outputs and state are bit-identical across the forms (the in-crate
//! tests pin each form this host has on every blocking edge,
//! `tests/properties.rs` the dispatched one on a ragged grid, and the
//! phase-copy tests of `MambaBlock` and `QuantizedMamba` each form over
//! a whole model; NaN payloads are the one thing operand order may
//! change).
//!
//! Separate multiply and add are load-bearing: an FMA rounds
//! `Ā·s + (Δ·x)·B` and `acc + s·C` once instead of twice, which would
//! be faster and *different* — the forms would disagree, and so would
//! every recorded digest. Nothing here is compiled with the `fma`
//! target feature, and Rust never contracts `a * b + c` on its own.

use lightmamba_tensor::isa::{detect, Isa};

use crate::{MambaConfig, ModelError, Result};

/// Name of the form [`ssm_step_into`] dispatches to on this host
/// ("avx512", "avx2" or "scalar"): the workspace's one detector,
/// [`lightmamba_tensor::isa`].
pub use lightmamba_tensor::isa::active_isa;

/// Dimensions needed by the SSM kernel, extracted from a [`MambaConfig`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SsmDims {
    /// Number of heads.
    pub nheads: usize,
    /// Channels per head `P`.
    pub headdim: usize,
    /// State size `N` per group.
    pub d_state: usize,
    /// Number of B/C groups.
    pub ngroups: usize,
}

impl SsmDims {
    /// Extracts the SSM dimensions from a model configuration.
    pub fn new(cfg: &MambaConfig) -> Self {
        SsmDims {
            nheads: cfg.nheads(),
            headdim: cfg.headdim,
            d_state: cfg.d_state,
            ngroups: cfg.ngroups,
        }
    }

    /// Length of the flattened hidden state `nheads · headdim · d_state`.
    pub fn state_len(&self) -> usize {
        self.nheads * self.headdim * self.d_state
    }

    /// Length of the per-step `x`/`y` vectors (`d_inner`).
    pub fn inner_len(&self) -> usize {
        self.nheads * self.headdim
    }

    /// Length of the per-step `B`/`C` vectors (`ngroups · d_state`).
    pub fn bc_len(&self) -> usize {
        self.ngroups * self.d_state
    }
}

/// Copies a stored `(nheads, d_state, headdim)` state into `logical` in
/// the `(nheads, headdim, d_state)` order of the recurrence's math
/// (module docs, "State layout").
///
/// # Panics
///
/// Unless both slices are [`SsmDims::state_len`] long.
pub fn state_to_logical(dims: SsmDims, state: &[f32], logical: &mut [f32]) {
    let (p, n) = (dims.headdim, dims.d_state);
    assert_eq!(state.len(), dims.state_len(), "stored state length");
    assert_eq!(logical.len(), dims.state_len(), "logical state length");
    for (head, out) in state
        .chunks_exact(p * n)
        .zip(logical.chunks_exact_mut(p * n))
    {
        for (j, row) in head.chunks_exact(p).enumerate() {
            for (i, &v) in row.iter().enumerate() {
                out[i * n + j] = v;
            }
        }
    }
}

/// The inverse of [`state_to_logical`]: writes a `(nheads, headdim,
/// d_state)` state into the stored `(nheads, d_state, headdim)` order.
///
/// # Panics
///
/// Unless both slices are [`SsmDims::state_len`] long.
pub fn state_from_logical(dims: SsmDims, logical: &[f32], state: &mut [f32]) {
    let (p, n) = (dims.headdim, dims.d_state);
    assert_eq!(state.len(), dims.state_len(), "stored state length");
    assert_eq!(logical.len(), dims.state_len(), "logical state length");
    for (head, src) in state
        .chunks_exact_mut(p * n)
        .zip(logical.chunks_exact(p * n))
    {
        for (j, row) in head.chunks_exact_mut(p).enumerate() {
            for (i, v) in row.iter_mut().enumerate() {
                *v = src[i * n + j];
            }
        }
    }
}

/// Per-head scalar coefficients computed from `Δ` before the recurrence.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HeadCoeffs {
    /// `Δ_h` after bias and softplus.
    pub dt: f32,
    /// State decay `Ā_h = exp(-exp(a_log)·Δ_h)` in `(0, 1]`.
    pub decay: f32,
}

/// Computes `Δ` and `Ā` for one head.
pub fn head_coeffs(dt_raw: f32, dt_bias: f32, a_log: f32) -> HeadCoeffs {
    let dt = lightmamba_tensor::activation::softplus(dt_raw + dt_bias);
    let decay = (-(a_log.exp()) * dt).exp();
    HeadCoeffs { dt, decay }
}

/// Advances the recurrence for a single head in place; the caller reads
/// `y` out of `y_head`.
///
/// `state` is the head's `(d_state × headdim)` slab, `x_head` its
/// `headdim` inputs, `b`/`c` the group's `d_state` vectors.
///
/// # Panics
///
/// Unless `state.len() == x_head.len() · b.len()`,
/// `y_head.len() == x_head.len()` and `c.len() == b.len()`.
/// [`ssm_step_into_on`] validates the whole layer's lengths once, so these
/// only fire on a bug in this module — but the AVX2 form indexes by
/// raw pointer, so they are real `assert!`s, not debug ones.
#[allow(clippy::too_many_arguments)]
fn ssm_head_step(
    isa: Isa,
    state: &mut [f32],
    y_head: &mut [f32],
    x_head: &[f32],
    b: &[f32],
    c: &[f32],
    coeffs: HeadCoeffs,
    d_skip: f32,
) {
    assert_eq!(state.len(), x_head.len() * b.len());
    assert_eq!(y_head.len(), x_head.len());
    assert_eq!(c.len(), b.len());
    match isa {
        Isa::Scalar => rows_scalar(0, state, y_head, x_head, b, c, coeffs, d_skip),
        #[cfg(target_arch = "x86_64")]
        // SAFETY: no other crate can build an `Isa::Avx2`, and
        // `detect` / `Isa::supported` hand one out only where AVX2 is
        // present; the length contract is asserted just above.
        Isa::Avx2 { .. } => unsafe { avx2::head_step(state, y_head, x_head, b, c, coeffs, d_skip) },
        #[cfg(target_arch = "x86_64")]
        // SAFETY: as for `Isa::Avx2`, with AVX512F.
        Isa::Avx512 { .. } => unsafe {
            avx512::head_step(state, y_head, x_head, b, c, coeffs, d_skip)
        },
    }
}

/// The scalar head step (module docs, "Forms") for rows `from..`: row by
/// row, each row's `d_state` products added in ascending `n`.
#[allow(clippy::too_many_arguments)]
fn rows_scalar(
    from: usize,
    state: &mut [f32],
    y_head: &mut [f32],
    x_head: &[f32],
    b: &[f32],
    c: &[f32],
    coeffs: HeadCoeffs,
    d_skip: f32,
) {
    let p_len = x_head.len();
    for p in from..p_len {
        let (xv, dtx) = (x_head[p], coeffs.dt * x_head[p]);
        let mut acc = 0.0f32;
        for (s, (&bn, &cn)) in state[p..].iter_mut().step_by(p_len).zip(b.iter().zip(c)) {
            *s = coeffs.decay * *s + dtx * bn;
            acc += *s * cn;
        }
        y_head[p] = acc + d_skip * xv;
    }
}

#[cfg(target_arch = "x86_64")]
mod avx2 {
    use std::arch::x86_64::*;

    use super::{rows_scalar, HeadCoeffs};

    /// Rows per register.
    const W: usize = 8;

    /// AVX2 head step (module docs, "Forms"): rows in runs of 32 (four
    /// accumulators), then 8 (one), then the scalar loop for the rest.
    ///
    /// # Safety
    ///
    /// * The CPU must support AVX2.
    /// * `state.len() == x_head.len() · b.len()`,
    ///   `y_head.len() == x_head.len()` and `c.len() == b.len()` — the
    ///   loads and stores below index `state`, `x_head` and `y_head` by
    ///   raw pointer from those lengths.
    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn head_step(
        state: &mut [f32],
        y_head: &mut [f32],
        x_head: &[f32],
        b: &[f32],
        c: &[f32],
        coeffs: HeadCoeffs,
        d_skip: f32,
    ) {
        let p_len = x_head.len();
        let mut p = 0;
        while p + 4 * W <= p_len {
            // SAFETY: AVX2 is the caller's contract; rows `p..p + 32`
            // exist, and the slice lengths are as documented.
            unsafe { rows::<4>(p, state, y_head, x_head, b, c, coeffs, d_skip) };
            p += 4 * W;
        }
        while p + W <= p_len {
            // SAFETY: as above, for rows `p..p + 8`.
            unsafe { rows::<1>(p, state, y_head, x_head, b, c, coeffs, d_skip) };
            p += W;
        }
        rows_scalar(p, state, y_head, x_head, b, c, coeffs, d_skip);
    }

    /// Rows `p..p + 8·R` of one head: `R` registers of rows, one
    /// accumulator each, the state streamed one `[n][p..]` run per `n`.
    ///
    /// # Safety
    ///
    /// AVX2, `p + 8·R ≤ x_head.len()`, and the slice lengths of
    /// [`head_step`].
    #[inline]
    #[target_feature(enable = "avx2")]
    #[allow(clippy::too_many_arguments)]
    unsafe fn rows<const R: usize>(
        p: usize,
        state: &mut [f32],
        y_head: &mut [f32],
        x_head: &[f32],
        b: &[f32],
        c: &[f32],
        coeffs: HeadCoeffs,
        d_skip: f32,
    ) {
        let p_len = x_head.len();
        let decay = _mm256_set1_ps(coeffs.decay);
        let dt = _mm256_set1_ps(coeffs.dt);
        let mut xv = [_mm256_setzero_ps(); R];
        let mut dtx = [_mm256_setzero_ps(); R];
        let mut acc = [_mm256_setzero_ps(); R];
        for r in 0..R {
            // SAFETY: `p + 8·R ≤ x_head.len()`.
            xv[r] = unsafe { _mm256_loadu_ps(x_head.as_ptr().add(p + r * W)) };
            dtx[r] = _mm256_mul_ps(dt, xv[r]);
        }
        for (j, (&bn, &cn)) in b.iter().zip(c).enumerate() {
            let (bv, cv) = (_mm256_set1_ps(bn), _mm256_set1_ps(cn));
            for r in 0..R {
                // SAFETY: `j < b.len()` and `p + 8·R ≤ p_len`, so the 8
                // floats at `j·p_len + p + 8r` lie inside `state`
                // (`b.len() · p_len` long).
                unsafe {
                    let at = state.as_mut_ptr().add(j * p_len + p + r * W);
                    let s = _mm256_add_ps(
                        _mm256_mul_ps(decay, _mm256_loadu_ps(at)),
                        _mm256_mul_ps(dtx[r], bv),
                    );
                    _mm256_storeu_ps(at, s);
                    acc[r] = _mm256_add_ps(acc[r], _mm256_mul_ps(s, cv));
                }
            }
        }
        let d = _mm256_set1_ps(d_skip);
        for r in 0..R {
            let y = _mm256_add_ps(acc[r], _mm256_mul_ps(d, xv[r]));
            // SAFETY: `p + 8·R ≤ y_head.len()`.
            unsafe { _mm256_storeu_ps(y_head.as_mut_ptr().add(p + r * W), y) };
        }
    }
}

#[cfg(target_arch = "x86_64")]
mod avx512 {
    use std::arch::x86_64::*;

    use super::{rows_scalar, HeadCoeffs};

    /// Rows per register.
    const W: usize = 16;

    /// AVX-512 head step (module docs, "Forms"): rows in runs of 64
    /// (four accumulators), then 16 (one), then the scalar loop for the
    /// rest.
    ///
    /// # Safety
    ///
    /// * The CPU must support AVX512F.
    /// * The slice lengths of [`super::avx2::head_step`], for the same
    ///   reason.
    #[target_feature(enable = "avx512f")]
    pub(super) unsafe fn head_step(
        state: &mut [f32],
        y_head: &mut [f32],
        x_head: &[f32],
        b: &[f32],
        c: &[f32],
        coeffs: HeadCoeffs,
        d_skip: f32,
    ) {
        let p_len = x_head.len();
        let mut p = 0;
        while p + 4 * W <= p_len {
            // SAFETY: AVX512F is the caller's contract; rows `p..p + 64`
            // exist, and the slice lengths are as documented.
            unsafe { rows::<4>(p, state, y_head, x_head, b, c, coeffs, d_skip) };
            p += 4 * W;
        }
        while p + W <= p_len {
            // SAFETY: as above, for rows `p..p + 16`.
            unsafe { rows::<1>(p, state, y_head, x_head, b, c, coeffs, d_skip) };
            p += W;
        }
        rows_scalar(p, state, y_head, x_head, b, c, coeffs, d_skip);
    }

    /// Rows `p..p + 16·R` of one head, as the AVX2 form's `rows` does
    /// for 8.
    ///
    /// # Safety
    ///
    /// AVX512F, `p + 16·R ≤ x_head.len()`, and the slice lengths of
    /// [`head_step`].
    #[inline]
    #[target_feature(enable = "avx512f")]
    #[allow(clippy::too_many_arguments)]
    unsafe fn rows<const R: usize>(
        p: usize,
        state: &mut [f32],
        y_head: &mut [f32],
        x_head: &[f32],
        b: &[f32],
        c: &[f32],
        coeffs: HeadCoeffs,
        d_skip: f32,
    ) {
        let p_len = x_head.len();
        let decay = _mm512_set1_ps(coeffs.decay);
        let dt = _mm512_set1_ps(coeffs.dt);
        let mut xv = [_mm512_setzero_ps(); R];
        let mut dtx = [_mm512_setzero_ps(); R];
        let mut acc = [_mm512_setzero_ps(); R];
        for r in 0..R {
            // SAFETY: `p + 16·R ≤ x_head.len()`.
            xv[r] = unsafe { _mm512_loadu_ps(x_head.as_ptr().add(p + r * W)) };
            dtx[r] = _mm512_mul_ps(dt, xv[r]);
        }
        for (j, (&bn, &cn)) in b.iter().zip(c).enumerate() {
            let (bv, cv) = (_mm512_set1_ps(bn), _mm512_set1_ps(cn));
            for r in 0..R {
                // SAFETY: `j < b.len()` and `p + 16·R ≤ p_len`, so the 16
                // floats at `j·p_len + p + 16r` lie inside `state`
                // (`b.len() · p_len` long).
                unsafe {
                    let at = state.as_mut_ptr().add(j * p_len + p + r * W);
                    let s = _mm512_add_ps(
                        _mm512_mul_ps(decay, _mm512_loadu_ps(at)),
                        _mm512_mul_ps(dtx[r], bv),
                    );
                    _mm512_storeu_ps(at, s);
                    acc[r] = _mm512_add_ps(acc[r], _mm512_mul_ps(s, cv));
                }
            }
        }
        let d = _mm512_set1_ps(d_skip);
        for r in 0..R {
            let y = _mm512_add_ps(acc[r], _mm512_mul_ps(d, xv[r]));
            // SAFETY: `p + 16·R ≤ y_head.len()`.
            unsafe { _mm512_storeu_ps(y_head.as_mut_ptr().add(p + r * W), y) };
        }
    }
}

/// One full decode step of the SSM layer.
///
/// * `x` — `d_inner` inputs (heads × headdim)
/// * `b`, `c` — `ngroups · d_state` projections
/// * `dt_raw` — `nheads` raw timesteps from the input projection
/// * `a_log`, `dt_bias`, `d_skip` — per-head parameters
/// * `state` — flattened hidden state, stored `(nheads, d_state,
///   headdim)` (module docs, "State layout")
///
/// Returns the `d_inner` outputs `y`.
///
/// # Errors
///
/// Returns [`ModelError::StateMismatch`] when any slice length disagrees
/// with `dims`.
#[allow(clippy::too_many_arguments)]
pub fn ssm_step(
    dims: SsmDims,
    x: &[f32],
    b: &[f32],
    c: &[f32],
    dt_raw: &[f32],
    a_log: &[f32],
    dt_bias: &[f32],
    d_skip: &[f32],
    state: &mut [f32],
) -> Result<Vec<f32>> {
    let mut y = vec![0.0f32; dims.inner_len()];
    ssm_step_into(dims, x, b, c, dt_raw, a_log, dt_bias, d_skip, state, &mut y)?;
    Ok(y)
}

/// [`ssm_step`] writing the `d_inner` outputs into a caller-provided
/// buffer — the allocation-free variant decode hot paths use. Runs the
/// form [`active_isa`] names: [`ssm_step_into_on`] of [`detect`].
///
/// # Errors
///
/// Same conditions as [`ssm_step`], plus a length check on `y`.
#[allow(clippy::too_many_arguments)]
pub fn ssm_step_into(
    dims: SsmDims,
    x: &[f32],
    b: &[f32],
    c: &[f32],
    dt_raw: &[f32],
    a_log: &[f32],
    dt_bias: &[f32],
    d_skip: &[f32],
    state: &mut [f32],
    y: &mut [f32],
) -> Result<()> {
    ssm_step_into_on(
        detect(),
        dims,
        x,
        b,
        c,
        dt_raw,
        a_log,
        dt_bias,
        d_skip,
        state,
        y,
    )
}

/// [`ssm_step_into`] on `isa`'s head step (module docs, "Forms"); every
/// form gives the same bits, and `Isa::Scalar` is the oracle the others
/// are tested against.
///
/// # Errors
///
/// Same conditions as [`ssm_step_into`].
#[allow(clippy::too_many_arguments)]
pub fn ssm_step_into_on(
    isa: Isa,
    dims: SsmDims,
    x: &[f32],
    b: &[f32],
    c: &[f32],
    dt_raw: &[f32],
    a_log: &[f32],
    dt_bias: &[f32],
    d_skip: &[f32],
    state: &mut [f32],
    y: &mut [f32],
) -> Result<()> {
    // `dims` is caller-built (every field is `pub`): the head→group map
    // below divides by `ngroups` and slices `b`/`c` by the quotient.
    if dims.ngroups == 0 || !dims.nheads.is_multiple_of(dims.ngroups) {
        return Err(ModelError::StateMismatch(format!(
            "ssm_step needs nheads divisible by a non-zero ngroups, got {dims:?}"
        )));
    }
    if x.len() != dims.inner_len()
        || b.len() != dims.bc_len()
        || c.len() != dims.bc_len()
        || dt_raw.len() != dims.nheads
        || a_log.len() != dims.nheads
        || dt_bias.len() != dims.nheads
        || d_skip.len() != dims.nheads
        || state.len() != dims.state_len()
        || y.len() != dims.inner_len()
    {
        return Err(ModelError::StateMismatch(format!(
            "ssm_step slice lengths do not match dims {dims:?}"
        )));
    }
    let p = dims.headdim;
    let n = dims.d_state;
    let heads_per_group = dims.nheads / dims.ngroups;
    for h in 0..dims.nheads {
        let g = h / heads_per_group;
        let coeffs = head_coeffs(dt_raw[h], dt_bias[h], a_log[h]);
        ssm_head_step(
            isa,
            &mut state[h * p * n..(h + 1) * p * n],
            &mut y[h * p..(h + 1) * p],
            &x[h * p..(h + 1) * p],
            &b[g * n..(g + 1) * n],
            &c[g * n..(g + 1) * n],
            coeffs,
            d_skip[h],
        );
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn dims1() -> SsmDims {
        SsmDims {
            nheads: 1,
            headdim: 1,
            d_state: 1,
            ngroups: 1,
        }
    }

    #[test]
    fn scalar_recurrence_matches_closed_form() {
        // With P = N = H = 1 the recurrence is h' = ā·h + Δ·b·x.
        let dims = dims1();
        let mut state = vec![0.5f32];
        let a_log = [0.0f32]; // A = -1
        let dt_bias = [0.0f32];
        let dt_raw = [0.3f32];
        let d_skip = [0.25f32];
        let x = [2.0f32];
        let b = [1.5f32];
        let c = [0.7f32];
        let coeffs = head_coeffs(dt_raw[0], dt_bias[0], a_log[0]);
        let expected_state = coeffs.decay * 0.5 + coeffs.dt * b[0] * x[0];
        let expected_y = expected_state * c[0] + d_skip[0] * x[0];
        let y = ssm_step(
            dims, &x, &b, &c, &dt_raw, &a_log, &dt_bias, &d_skip, &mut state,
        )
        .unwrap();
        assert!((state[0] - expected_state).abs() < 1e-6);
        assert!((y[0] - expected_y).abs() < 1e-6);
    }

    #[test]
    fn decay_is_in_unit_interval() {
        for &(raw, bias, al) in &[(0.0f32, 0.0f32, 0.0f32), (3.0, 1.0, 2.0), (-5.0, 0.5, -1.0)] {
            let c = head_coeffs(raw, bias, al);
            assert!(c.decay > 0.0 && c.decay <= 1.0, "decay {}", c.decay);
            assert!(c.dt >= 0.0);
        }
    }

    #[test]
    fn state_decays_to_zero_without_input() {
        let dims = SsmDims {
            nheads: 2,
            headdim: 3,
            d_state: 4,
            ngroups: 1,
        };
        let mut state = vec![1.0f32; dims.state_len()];
        let zeros_x = vec![0.0f32; dims.inner_len()];
        let b = vec![1.0f32; 4];
        let c = vec![1.0f32; 4];
        let dt_raw = vec![1.0f32; 2];
        let a_log = vec![0.5f32; 2];
        let dt_bias = vec![0.0f32; 2];
        let d_skip = vec![0.0f32; 2];
        for _ in 0..50 {
            ssm_step(
                dims, &zeros_x, &b, &c, &dt_raw, &a_log, &dt_bias, &d_skip, &mut state,
            )
            .unwrap();
        }
        assert!(state.iter().all(|&s| s.abs() < 1e-3));
    }

    #[test]
    fn groups_share_bc_within_group_only() {
        let dims = SsmDims {
            nheads: 2,
            headdim: 1,
            d_state: 1,
            ngroups: 2,
        };
        let mut state = vec![0.0f32; 2];
        // Head 0 uses group 0 (b = 1), head 1 uses group 1 (b = 0), so only
        // head 0 accumulates state.
        let y = ssm_step(
            dims,
            &[1.0, 1.0],
            &[1.0, 0.0],
            &[1.0, 1.0],
            &[0.0, 0.0],
            &[0.0, 0.0],
            &[0.0, 0.0],
            &[0.0, 0.0],
            &mut state,
        )
        .unwrap();
        assert!(state[0] > 0.0);
        assert_eq!(state[1], 0.0);
        assert!(y[0] > y[1]);
    }

    #[test]
    fn rejects_wrong_lengths() {
        let dims = dims1();
        let mut state = vec![0.0f32];
        let bad = ssm_step(
            dims,
            &[1.0, 2.0],
            &[1.0],
            &[1.0],
            &[0.0],
            &[0.0],
            &[0.0],
            &[0.0],
            &mut state,
        );
        assert!(matches!(bad, Err(ModelError::StateMismatch(_))));
    }

    #[test]
    fn rejects_dims_whose_heads_do_not_split_into_groups() {
        // `SsmDims` is caller-built: zero groups would divide by zero and
        // 3 heads over 2 groups would slice `b`/`c` past their end.
        for (nheads, ngroups) in [(2usize, 0usize), (3, 2), (1, 2)] {
            let dims = SsmDims {
                nheads,
                headdim: 1,
                d_state: 2,
                ngroups,
            };
            let per_head = vec![0.0f32; nheads];
            let bc = vec![1.0f32; dims.bc_len()];
            let mut state = vec![0.0f32; dims.state_len()];
            let bad = ssm_step(
                dims, &per_head, &bc, &bc, &per_head, &per_head, &per_head, &per_head, &mut state,
            );
            assert!(
                matches!(bad, Err(ModelError::StateMismatch(_))),
                "{dims:?}: {bad:?}"
            );
        }
    }

    #[test]
    fn every_head_step_form_matches_rows_scalar() {
        // Each form this host has against the scalar rows, bit for bit on
        // outputs and carried state, over head widths that hit every
        // edge of the 64/16-row (AVX-512) and 32/8-row (AVX2) blocking.
        let mut seed = 0x2545_f491u32;
        let mut next = move || {
            seed = seed.wrapping_mul(1_664_525).wrapping_add(1_013_904_223);
            (seed >> 8) as f32 / (1u32 << 23) as f32 - 1.0
        };
        let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        for isa in Isa::tiers() {
            for headdim in [1, 7, 8, 15, 16, 17, 24, 32, 40, 48, 61, 64, 65, 96, 128] {
                for d_state in [1, 5, 16] {
                    let x: Vec<f32> = (0..headdim).map(|_| 2.0 * next()).collect();
                    let b: Vec<f32> = (0..d_state).map(|_| next()).collect();
                    let c: Vec<f32> = (0..d_state).map(|_| next()).collect();
                    let coeffs = head_coeffs(next(), 0.1, next());
                    let mut state: Vec<f32> = (0..headdim * d_state).map(|_| next()).collect();
                    let mut state_ref = state.clone();
                    let (mut y, mut y_ref) = (vec![0.0; headdim], vec![0.0; headdim]);
                    for _ in 0..2 {
                        ssm_head_step(isa, &mut state, &mut y, &x, &b, &c, coeffs, 0.7);
                        rows_scalar(0, &mut state_ref, &mut y_ref, &x, &b, &c, coeffs, 0.7);
                    }
                    let at = format!("{isa:?} headdim {headdim} d_state {d_state}");
                    assert_eq!(bits(&y), bits(&y_ref), "y, {at}");
                    assert_eq!(bits(&state), bits(&state_ref), "state, {at}");
                }
            }
        }
    }

    #[test]
    fn ssm_is_not_rotation_equivariant() {
        // Paper Eq. 1b–1d: rotating the hidden state does NOT commute with
        // the element-wise recurrence. Run two steps on a 1-head system with
        // P = 1, N = 4 and compare rotate-then-recur vs recur-then-rotate.
        use lightmamba_hadamard_stub::hadamard4;
        let dims = SsmDims {
            nheads: 1,
            headdim: 1,
            d_state: 4,
            ngroups: 1,
        };
        let b = [0.9f32, -0.4, 0.7, 0.2];
        let c = [1.0f32, 0.5, -0.3, 0.8];
        let dt_raw = [0.4f32];
        let a_log = [0.3f32];
        let dt_bias = [0.1f32];
        let d_skip = [0.0f32];

        // Path 1: plain recurrence, then rotate the final state.
        let mut s1 = [0.2f32, -0.1, 0.05, 0.3];
        for x in [1.0f32, -0.5] {
            ssm_step(
                dims,
                &[x],
                &b,
                &c,
                &dt_raw,
                &a_log,
                &dt_bias,
                &d_skip,
                &mut s1,
            )
            .unwrap();
        }
        let rotated_after = hadamard4(&s1);

        // Path 2: rotate initial state and B (as Eq. 1d would require),
        // run the recurrence in rotated space.
        let mut s2: [f32; 4] = hadamard4(&[0.2f32, -0.1, 0.05, 0.3]);
        let b_rot = hadamard4(&b);
        for x in [1.0f32, -0.5] {
            ssm_step(
                dims,
                &[x],
                &b_rot,
                &c,
                &dt_raw,
                &a_log,
                &dt_bias,
                &d_skip,
                &mut s2,
            )
            .unwrap();
        }

        // If the SSM were rotation-equivariant these would agree. For this
        // recurrence (decay is scalar per head so Ā⊙h *does* commute, but a
        // second rotation-sensitive term exists once B̄⊙X is element-wise
        // in the state index *and* h is consumed by ⊙C), the outputs the
        // model ultimately cares about differ:
        let y1: f32 = s1.iter().zip(c.iter()).map(|(a, b)| a * b).sum();
        let y2: f32 = s2.iter().zip(c.iter()).map(|(a, b)| a * b).sum();
        let diff = (y1 - y2).abs();
        assert!(diff > 1e-3, "rotated SSM should not match, diff {diff}");
        // Sanity: the rotated state itself also differs from rotate-after.
        let state_diff: f32 = rotated_after
            .iter()
            .zip(s2.iter())
            .map(|(a, b)| (a - b).abs())
            .sum();
        assert!(state_diff.is_finite()); // recorded either way
    }

    /// Local 4-point Hadamard used only by the non-equivariance test, to
    /// avoid a circular dev-dependency on the hadamard crate.
    mod lightmamba_hadamard_stub {
        pub fn hadamard4(x: &[f32]) -> [f32; 4] {
            let s = 0.5f32;
            [
                s * (x[0] + x[1] + x[2] + x[3]),
                s * (x[0] - x[1] + x[2] - x[3]),
                s * (x[0] + x[1] - x[2] - x[3]),
                s * (x[0] - x[1] - x[2] + x[3]),
            ]
        }
    }
}
