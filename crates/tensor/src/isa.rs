//! Which instruction set the hand-vectorized kernels run with.
//!
//! Two kernels have an `std::arch` AVX2 form next to their scalar one:
//! the packed-W4A4 micro-kernel (`lightmamba_quant::simd`) and the SSM
//! head step (`lightmamba_model::ssm`). Both forms of each are compiled
//! on every `x86_64` build, and both kernels ask [`detect`] which one to
//! run, so one host runs one instruction set everywhere. The scalar
//! forms are the only ones on other targets (`aarch64` included) and the
//! bit-exactness oracles the vector forms are tested against.

/// The instruction set a dispatching kernel runs with.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Isa {
    /// The portable scalar forms (the bit-exactness oracles).
    Scalar,
    /// The 256-bit AVX2 forms (`x86_64`, runtime-detected).
    #[cfg(target_arch = "x86_64")]
    Avx2,
}

/// The best instruction set this host supports, detected once (cached):
/// an AVX2 CPUID check on `x86_64`, [`Isa::Scalar`] everywhere else.
pub fn detect() -> Isa {
    static ACTIVE: std::sync::OnceLock<Isa> = std::sync::OnceLock::new();
    *ACTIVE.get_or_init(|| {
        #[cfg(target_arch = "x86_64")]
        {
            if std::arch::is_x86_feature_detected!("avx2") {
                return Isa::Avx2;
            }
        }
        Isa::Scalar
    })
}

/// Name of the instruction set the dispatching kernels run on this host
/// ("avx2" or "scalar"), so tests and benchmark records can say what ran.
pub fn active_isa() -> &'static str {
    match detect() {
        Isa::Scalar => "scalar",
        #[cfg(target_arch = "x86_64")]
        Isa::Avx2 => "avx2",
    }
}
