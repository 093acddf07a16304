//! Which instruction set the hand-vectorized kernels run with.
//!
//! There are three tiers. [`detect`] picks the best one the host has, once
//! per process, and every dispatching kernel asks it:
//!
//! | tier | W4A4 GEMM (`lightmamba_quant::simd`) | SSM head step (`lightmamba_model::ssm`) | element-wise kernels | per-sequence phases |
//! |---|---|---|---|---|
//! | [`Isa::Scalar`] | i16-then-widen loops | row by row | scalar source | baseline |
//! | [`Isa::Avx2`] | `maddubs`, i16 lanes | 8 rows per register | scalar source | AVX2 copy |
//! | [`Isa::Avx512`] | `vpdpbusd`, i32 lanes; `tdpbsud` tiles for 5–16 activations where [`amx`] | 16 rows per register | 16-lane forms | AVX-512 copy (W4A4) |
//!
//! AMX is a form of the AVX-512 tier's GEMM, not a tier: [`amx`] says
//! whether the host has AMX-TILE and AMX-INT8 and the kernel grants this
//! process the tile state, and only the GEMM asks it.
//!
//! Every form of every kernel is compiled on every `x86_64` build. The
//! scalar forms are the only ones on other targets (`aarch64` included)
//! and the bit-exactness oracles the vector forms are tested against.
//!
//! The element-wise kernels with 16-lane forms are the fused conv + SiLU
//! step, the FWHT and the factored Hadamard's column stages, and
//! `ActQuant`. On [`Isa::Avx512`] each runs an explicit 16-lane form
//! (`std::arch`, masked tails) that gives every element the scalar
//! form's operations in the scalar order; elsewhere it runs its scalar
//! source, which the phase copy it is inlined into vectorises. The
//! gated norm's SiLU gate has no explicit form: its scalar loop,
//! vectorised inside the AVX-512 copy, timed faster than one.
//!
//! The last column is the compilations of each block's per-sequence
//! phases (`MambaBlock`'s step, `QuantizedMamba`'s layer step and
//! finish): the same source built for the baseline and under
//! `#[target_feature(enable = "avx2")]`, and `QuantizedMamba`'s also
//! under `#[target_feature(enable = "avx512f,avx512bw")]`. The FP
//! `MambaBlock` runs its AVX2 copy on [`Isa::Avx512`]: an AVX-512 copy
//! of its step timed no faster. Without FMA a float operation can
//! neither contract nor reassociate, so every copy computes the same
//! bits. The kernels those phases call are
//! `#[inline(always)]`: only code inlined into a copy is compiled for
//! its tier.

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

/// Whether this process may run the AMX-INT8 form of the W4A4 GEMM, a
/// form of [`Isa::Avx512`]'s GEMM (not a tier of its own): the host is
/// [`Isa::Avx512`], CPUID leaf 7 reports AMX-TILE and AMX-INT8, and the
/// Linux kernel grants the process the tile data state
/// (`arch_prctl(ARCH_REQ_XCOMP_PERM, XFEATURE_XTILEDATA)` returns 0).
/// Asked once per process (cached), like [`detect`]; anywhere else, or
/// on refusal, the answer is `false`.
pub fn amx() -> bool {
    static GRANTED: std::sync::OnceLock<bool> = std::sync::OnceLock::new();
    *GRANTED.get_or_init(|| {
        #[cfg(all(target_arch = "x86_64", target_os = "linux"))]
        {
            if detect() == Isa::Avx512 {
                // CPUID leaf 7 exists: AVX-512 was read from it.
                #[allow(unused_unsafe)]
                // SAFETY: `cpuid` has no side effect; older releases
                // merely declare the intrinsic `unsafe`.
                let leaf7 = unsafe { std::arch::x86_64::__cpuid_count(7, 0) };
                let (tile, int8) = ((leaf7.edx >> 24) & 1 == 1, (leaf7.edx >> 25) & 1 == 1);
                return tile && int8 && request_tile_data();
            }
        }
        false
    })
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
