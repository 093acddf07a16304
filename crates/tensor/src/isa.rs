//! Which instruction set the hand-vectorized kernels run with.
//!
//! There are three tiers, and the top one has two forms of its GEMM.
//! [`detect`] picks the best the host has, once per process (cached).
//! The pick is made once per decode step and handed down: the model's
//! step entry points (`QuantizedMamba`'s layer step and finish,
//! `MambaBlock`'s step) ask [`detect`] and pass that one [`Isa`] to
//! every kernel their phases call, each through its `*_on(isa, …)`
//! form. A public kernel entry point without an [`Isa`] parameter is
//! its `*_on(detect(), …)`.
//!
//! | [`Isa`] | W4A4 GEMM (`lightmamba_quant::simd`) | SSM head step (`lightmamba_model::ssm`) | element-wise kernels | per-sequence phases |
//! |---|---|---|---|---|
//! | `Scalar` | i16-then-widen loops | row by row | scalar source | baseline |
//! | `Avx2` | `maddubs`, i16 lanes | 8 rows per register | scalar source | AVX2 copy |
//! | `Avx512`, AMX not granted | `vpdpbusd`, i32 lanes | 16 rows per register | 16-lane forms | AVX-512 copy (W4A4) |
//! | `Avx512`, AMX granted | as above; `tdpbsud` tiles for 5–16 activations | 16 rows per register | 16-lane forms | AVX-512 copy (W4A4) |
//!
//! `Avx512`'s [`Amx`] says whether the host has AMX-TILE and AMX-INT8
//! and the kernel grants this process the tile state; only the GEMM
//! reads it.
//!
//! Every form of every kernel is compiled on every `x86_64` build. The
//! scalar forms are the only ones on other targets (`aarch64` included)
//! and the bit-exactness oracles the vector forms are tested against:
//! each kernel's in-crate tests run every form the host has against
//! its scalar form (the GEMM's every [`Isa::supported`] value, the
//! other kernels' every [`Isa::tiers`] one), and two tests run whole
//! models, each copy of the phases on its own tier's kernels against
//! the scalar copy on the scalar kernels —
//! `every_phase_copy_matches_the_baseline_bit_for_bit`
//! (`lightmamba_quant`'s `qmodel`, the W4A4 layer step and finish, over
//! `supported`) and `every_step_copy_matches_the_baseline_bit_for_bit`
//! (`lightmamba_model`'s `block`, the FP step, over `tiers`).
//!
//! The element-wise kernels with 16-lane forms are the fused conv + SiLU
//! step, the FWHT and the factored Hadamard's column stages, and
//! `ActQuant`. On `Isa::Avx512` each runs an explicit 16-lane form
//! (`std::arch`, masked tails) that gives every element the scalar
//! form's operations in the scalar order; elsewhere it runs its scalar
//! source, which the phase copy it is inlined into vectorises. The
//! gated norm's SiLU gate has no explicit form: its scalar loop,
//! vectorised inside the AVX-512 copy, timed faster than one.
//!
//! Off the decode path, `Tensor::matmul` (the set-up's dense products)
//! has register-blocked AVX2 and AVX-512 forms with the same order
//! contract: the scalar loop's operations for every output element
//! (`ops` module docs).
//!
//! The last column is the compilations of each block's per-sequence
//! phases (`MambaBlock`'s step, `QuantizedMamba`'s layer step and
//! finish): the same source built for the baseline and under
//! `#[target_feature(enable = "avx2")]`, and `QuantizedMamba`'s also
//! under `#[target_feature(enable = "avx512f,avx512bw")]`. The FP
//! `MambaBlock` runs its AVX2 copy, with the 16-lane kernels, on
//! `Isa::Avx512`: an AVX-512 copy of its step timed no faster. Without
//! FMA a float operation can neither contract nor reassociate, so every
//! copy computes the same bits. The kernels those phases call are
//! `#[inline(always)]`: only code inlined into a copy is compiled for
//! its tier.
//!
//! No code outside this crate can make a vector [`Isa`] or a granted
//! [`Amx`] of its own: the vector variants are `#[non_exhaustive]`, so
//! it can match them (`Isa::Avx2 { .. }`, `Isa::Avx512 { amx, .. }`)
//! but not build them, and `Amx`'s field is private, so a pattern that
//! binds `amx` mutably can only store an `Amx` it was handed. Every
//! vector `Isa` it holds came from [`detect`] or [`Isa::supported`],
//! which verified the features and the tile grant, and a public
//! `*_on(isa, …)` form may run `isa`'s instructions. It reads the
//! grant, but cannot forge one:
//!
//! ```
//! use lightmamba_tensor::isa::{detect, Isa};
//! # #[cfg(target_arch = "x86_64")]
//! let _granted = matches!(detect(), Isa::Avx512 { amx, .. } if amx.granted());
//! ```
//!
//! Each fragment that must not compile below is followed by its twin,
//! the same lines with only the forbidden construct replaced, which must
//! compile: stable rustdoc does not check a `compile_fail` error code,
//! so without the twin a fragment broken by a typo would pass as well.
//! Naming a vector variant:
//!
//! ```compile_fail,E0603
//! let forged = lightmamba_tensor::isa::Isa::Avx2;
//! ```
//!
//! ```
//! let forged = lightmamba_tensor::isa::Isa::Scalar;
//! ```
//!
//! Rebuilding one around a grant it matched:
//!
//! ```compile_fail,E0639
//! use lightmamba_tensor::isa::{detect, Isa};
//! if let Isa::Avx512 { amx, .. } = detect() {
//!     let forged = Isa::Avx512 { amx };
//! }
//! ```
//!
//! ```
//! use lightmamba_tensor::isa::{detect, Isa};
//! # #[cfg(target_arch = "x86_64")]
//! if let Isa::Avx512 { amx, .. } = detect() {
//!     let forged = amx;
//! }
//! ```
//!
//! Storing a grant of its own through a mutable binding:
//!
//! ```compile_fail,E0423
//! use lightmamba_tensor::isa::{detect, Amx, Isa};
//! let mut isa = detect();
//! if let Isa::Avx512 { amx, .. } = &mut isa {
//!     *amx = Amx(true);
//! }
//! ```
//!
//! ```
//! use lightmamba_tensor::isa::{detect, Amx, Isa};
//! let mut isa = detect();
//! # #[cfg(target_arch = "x86_64")]
//! if let Isa::Avx512 { amx, .. } = &mut isa {
//!     *amx = Amx::clone(amx);
//! }
//! ```

/// The instruction set a dispatching kernel runs with.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Isa {
    /// The portable scalar forms (the bit-exactness oracles).
    Scalar,
    /// The 256-bit AVX2 forms (`x86_64`, runtime-detected).
    #[cfg(target_arch = "x86_64")]
    #[non_exhaustive]
    Avx2,
    /// The 512-bit forms (`x86_64` with AVX2, AVX512F, AVX512BW and
    /// AVX512-VNNI, runtime-detected); with `amx` granted, the W4A4
    /// GEMM's AMX-INT8 form as well (module docs).
    #[cfg(target_arch = "x86_64")]
    #[non_exhaustive]
    Avx512 {
        /// Whether the host has AMX-TILE and AMX-INT8 and Linux grants
        /// this process the tile data state.
        amx: Amx,
    },
}

/// Whether an [`Isa::Avx512`] host may run the AMX-INT8 form of the
/// W4A4 GEMM. The field is private: only [`detect`] and
/// [`Isa::supported`] make one, so a granted value proves the grant.
#[cfg(target_arch = "x86_64")]
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Amx(bool);

#[cfg(target_arch = "x86_64")]
impl Amx {
    /// Whether the host has AMX-TILE and AMX-INT8 and Linux grants this
    /// process the tile data state.
    pub fn granted(self) -> bool {
        self.0
    }
}

impl Isa {
    /// Every instruction set this host can run, scalar first and
    /// [`detect`]'s pick last (plain AVX-512 before AVX-512 with AMX),
    /// so tests can pin each form, not only the detected one.
    pub fn supported() -> impl Iterator<Item = Isa> {
        let all = [
            Isa::Scalar,
            #[cfg(target_arch = "x86_64")]
            Isa::Avx2,
            #[cfg(target_arch = "x86_64")]
            Isa::Avx512 { amx: Amx(false) },
            #[cfg(target_arch = "x86_64")]
            Isa::Avx512 { amx: Amx(true) },
        ];
        let best = detect();
        all.into_iter()
            .take_while(move |&isa| isa != best)
            .chain([best])
    }

    /// [`Isa::supported`] once per tier: without the AVX-512 value that
    /// grants AMX, which only the W4A4 GEMM reads, so tests of the other
    /// kernels run each of their forms once.
    pub fn tiers() -> impl Iterator<Item = Isa> {
        Isa::supported().filter(|&isa| {
            #[cfg(target_arch = "x86_64")]
            if let Isa::Avx512 { amx } = isa {
                return !amx.granted();
            }
            true
        })
    }
}

/// The loads and stores of the 16-lane forms. A form walks its data in
/// strips of 16 and compiles each strip's body twice: with `FULL`, on
/// plain whole-register moves, for every strip but a short last one,
/// which runs on the moves masked to [`lanes16::mask16`]'s lanes.
#[cfg(target_arch = "x86_64")]
pub mod lanes16 {
    use std::arch::x86_64::*;

    /// The low `n` lanes of a 16-lane mask, all 16 from `n ≥ 16`.
    #[inline(always)]
    pub fn mask16(n: usize) -> __mmask16 {
        if n >= 16 {
            u16::MAX
        } else {
            ((1u32 << n) - 1) as u16
        }
    }

    /// The 16 floats from `p` — with `FULL` all of them, else those `m`
    /// selects, the rest zero.
    ///
    /// # Safety
    ///
    /// The CPU must support AVX512F, and every selected float must be
    /// readable.
    #[inline]
    #[target_feature(enable = "avx512f")]
    pub unsafe fn load<const FULL: bool>(m: __mmask16, p: *const f32) -> __m512 {
        // SAFETY: the caller's contract.
        unsafe {
            if FULL {
                _mm512_loadu_ps(p)
            } else {
                _mm512_maskz_loadu_ps(m, p)
            }
        }
    }

    /// Stores `v` to the 16 floats from `p` — with `FULL` all of them,
    /// else those `m` selects.
    ///
    /// # Safety
    ///
    /// The CPU must support AVX512F, and every selected float must be
    /// writable.
    #[inline]
    #[target_feature(enable = "avx512f")]
    pub unsafe fn store<const FULL: bool>(p: *mut f32, m: __mmask16, v: __m512) {
        // SAFETY: the caller's contract.
        unsafe {
            if FULL {
                _mm512_storeu_ps(p, v)
            } else {
                _mm512_mask_storeu_ps(p, m, v)
            }
        }
    }
}

/// The best instruction set this host supports, detected once (cached):
/// AVX-512 when AVX2, AVX512F, AVX512BW and AVX512-VNNI are all there —
/// with `amx` when CPUID reports AMX-TILE and AMX-INT8 and Linux grants
/// the tile state — else AVX2 when it is, on `x86_64`; [`Isa::Scalar`]
/// everywhere else.
pub fn detect() -> Isa {
    static ACTIVE: std::sync::OnceLock<Isa> = std::sync::OnceLock::new();
    *ACTIVE.get_or_init(|| {
        #[cfg(target_arch = "x86_64")]
        {
            use std::arch::is_x86_feature_detected as has;
            if has!("avx2") {
                if has!("avx512f") && has!("avx512bw") && has!("avx512vnni") {
                    return Isa::Avx512 {
                        amx: Amx(amx_granted()),
                    };
                }
                return Isa::Avx2;
            }
        }
        Isa::Scalar
    })
}

/// Whether this AVX-512 process may run the AMX-INT8 form of the W4A4
/// GEMM: CPUID leaf 7 reports AMX-TILE and AMX-INT8, and the Linux
/// kernel grants the process the tile data state
/// (`arch_prctl(ARCH_REQ_XCOMP_PERM, XFEATURE_XTILEDATA)` returns 0).
/// `false` off Linux or on refusal.
#[cfg(target_arch = "x86_64")]
fn amx_granted() -> bool {
    #[cfg(target_os = "linux")]
    {
        // CPUID leaf 7 exists: AVX-512 was read from it.
        #[allow(unused_unsafe)]
        // SAFETY: `cpuid` has no side effect; older releases merely
        // declare the intrinsic `unsafe`.
        let leaf7 = unsafe { std::arch::x86_64::__cpuid_count(7, 0) };
        let (tile, int8) = ((leaf7.edx >> 24) & 1 == 1, (leaf7.edx >> 25) & 1 == 1);
        tile && int8 && request_tile_data()
    }
    #[cfg(not(target_os = "linux"))]
    false
}

/// Asks Linux for permission to use the AMX tile data state (state
/// component 18), which the kernel grants per process on request. The
/// workspace has no `libc`, so this is the raw `arch_prctl` system call.
#[cfg(all(target_arch = "x86_64", target_os = "linux"))]
fn request_tile_data() -> bool {
    const SYS_ARCH_PRCTL: isize = 158;
    const ARCH_REQ_XCOMP_PERM: usize = 0x1023;
    const XFEATURE_XTILEDATA: usize = 18;
    let ret: isize;
    // SAFETY: the call only changes which state components the kernel
    // lets this process use; it touches none of our memory. `syscall`
    // clobbers `rcx` and `r11`, declared below.
    unsafe {
        std::arch::asm!(
            "syscall",
            inlateout("rax") SYS_ARCH_PRCTL => ret,
            in("rdi") ARCH_REQ_XCOMP_PERM,
            in("rsi") XFEATURE_XTILEDATA,
            lateout("rcx") _,
            lateout("r11") _,
            options(nostack),
        );
    }
    ret == 0
}

/// Name of the instruction set the dispatching kernels run on this host
/// ("avx512+amx", "avx512", "avx2" or "scalar"), so tests and benchmark
/// records can say what ran.
pub fn active_isa() -> &'static str {
    match detect() {
        Isa::Scalar => "scalar",
        #[cfg(target_arch = "x86_64")]
        Isa::Avx2 => "avx2",
        #[cfg(target_arch = "x86_64")]
        Isa::Avx512 { amx: Amx(false) } => "avx512",
        #[cfg(target_arch = "x86_64")]
        Isa::Avx512 { amx: Amx(true) } => "avx512+amx",
    }
}
