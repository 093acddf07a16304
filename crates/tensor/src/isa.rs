//! Which instruction set the hand-vectorized kernels run with.
//!
//! There are three tiers. [`detect`] picks the best one the host has, once
//! per process, and every dispatching kernel asks it:
//!
//! | tier | W4A4 GEMM (`lightmamba_quant::simd`) | SSM head step (`lightmamba_model::ssm`) | per-sequence phases |
//! |---|---|---|---|
//! | [`Isa::Scalar`] | i16-then-widen loops | row by row | baseline |
//! | [`Isa::Avx2`] | `maddubs`, i16 lanes | 8 rows per register | AVX2 copy |
//! | [`Isa::Avx512`] | `vpdpbusd`, i32 lanes | 16 rows per register | AVX2 copy |
//!
//! Every form of both kernels is compiled on every `x86_64` build. The
//! scalar forms are the only ones on other targets (`aarch64` included)
//! and the bit-exactness oracles the vector forms are tested against.
//!
//! The last column is the two compilations of each block's per-sequence
//! phases (`MambaBlock`'s step, `QuantizedMamba`'s layer step and
//! finish): the same source built once for the baseline and once under
//! `#[target_feature(enable = "avx2")]`. Any vector tier runs the AVX2
//! copy ([`Isa::has_avx2`]); there is no 512-bit copy. Without FMA a
//! float operation can neither contract nor reassociate, so both copies
//! compute the same bits. The element-wise kernels those phases call —
//! this crate's norms, [`crate::activation::silu`] and the fused conv
//! step, the Hadamard transforms, `ActQuant` — are `#[inline(always)]`:
//! only code inlined into the AVX2 copy is compiled for AVX2.

/// The instruction set a dispatching kernel runs with.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Isa {
    /// The portable scalar forms (the bit-exactness oracles).
    Scalar,
    /// The 256-bit AVX2 forms (`x86_64`, runtime-detected).
    #[cfg(target_arch = "x86_64")]
    Avx2,
    /// The 512-bit forms (`x86_64` with AVX2, AVX512F, AVX512BW and
    /// AVX512-VNNI, runtime-detected).
    #[cfg(target_arch = "x86_64")]
    Avx512,
}

impl Isa {
    /// Every instruction set this host can run, scalar first and
    /// [`detect`]'s pick last, so tests can pin each form, not only the
    /// detected one.
    pub fn supported() -> impl Iterator<Item = Isa> {
        let all = [
            Isa::Scalar,
            #[cfg(target_arch = "x86_64")]
            Isa::Avx2,
            #[cfg(target_arch = "x86_64")]
            Isa::Avx512,
        ];
        let best = detect();
        all.into_iter()
            .take_while(move |&isa| isa != best)
            .chain([best])
    }

    /// Whether this tier includes AVX2 — the per-sequence phases run
    /// their AVX2 copy on every vector tier (module docs).
    pub fn has_avx2(self) -> bool {
        self != Isa::Scalar
    }
}

/// The best instruction set this host supports, detected once (cached):
/// AVX-512 when AVX2, AVX512F, AVX512BW and AVX512-VNNI are all there,
/// else AVX2 when it is, on `x86_64`; [`Isa::Scalar`] everywhere else.
pub fn detect() -> Isa {
    static ACTIVE: std::sync::OnceLock<Isa> = std::sync::OnceLock::new();
    *ACTIVE.get_or_init(|| {
        #[cfg(target_arch = "x86_64")]
        {
            use std::arch::is_x86_feature_detected as has;
            if has!("avx2") {
                if has!("avx512f") && has!("avx512bw") && has!("avx512vnni") {
                    return Isa::Avx512;
                }
                return Isa::Avx2;
            }
        }
        Isa::Scalar
    })
}

/// Name of the instruction set the dispatching kernels run on this host
/// ("avx512", "avx2" or "scalar"), so tests and benchmark records can say
/// what ran.
pub fn active_isa() -> &'static str {
    match detect() {
        Isa::Scalar => "scalar",
        #[cfg(target_arch = "x86_64")]
        Isa::Avx2 => "avx2",
        #[cfg(target_arch = "x86_64")]
        Isa::Avx512 => "avx512",
    }
}
