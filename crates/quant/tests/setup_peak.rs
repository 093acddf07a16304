//! Pins the set-up's memory high-water: `quantize_model` works one block
//! at a time (and the LM head one 32-output tile at a time), so what it
//! allocates on top of the reference it is handed stays well below a
//! second copy of that reference. A counting global allocator tracks
//! the live heap bytes and their peak.
//!
//! On the benchmark's model (`d_model` 256, 4 layers, vocabulary 2048,
//! seed 7) under `quantize_model(LightMamba, w4a4_grouped(128))`, the
//! reference holds 8.63 MiB. Preparing and rewriting the whole model
//! before packing it peaked 14.10 MiB above it (1.63×); streaming the
//! blocks alone, with the LM head still built whole and packed through
//! a transposed copy, stays above 1×. Streaming both peaks at 0.62×.
//! The model keeps 3.82 MiB either way.
//!
//! What remains of the whole-model path is pinned too, at the 1.63× the
//! whole-model set-up peaked at before streaming: `PreparedModel::
//! from_reference` then `rotation::apply`, the rotation the benchmark
//! times as `quant.rotation.apply_ms`. Building the LM head through two
//! whole transposes took the set-up to 16.10 MiB (1.87×);
//! `rotation::apply` rotates the `(d_model, vocab)` head in place, a
//! tile of outputs at a time, and frees the dense HTU rotation before
//! the embedding, so it peaks at 13.60 MiB (1.57×), while it rotates the
//! embedding — the same high-water the set-up had when packing followed.
//!
//! The two tests take one lock for their whole run, so neither
//! allocates inside the other's measured window.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

use lightmamba_model::{MambaConfig, MambaModel};
use lightmamba_quant::pipeline::{quantize_model, Method, QuantSpec};
use rand::rngs::StdRng;
use rand::SeedableRng;

struct PeakAlloc;

static LIVE: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);

fn grow(bytes: usize) {
    let live = LIVE.fetch_add(bytes, Ordering::SeqCst) + bytes;
    PEAK.fetch_max(live, Ordering::SeqCst);
}

unsafe impl GlobalAlloc for PeakAlloc {
    unsafe fn alloc(&self, l: Layout) -> *mut u8 {
        let p = System.alloc(l);
        if !p.is_null() {
            grow(l.size());
        }
        p
    }
    unsafe fn alloc_zeroed(&self, l: Layout) -> *mut u8 {
        let p = System.alloc_zeroed(l);
        if !p.is_null() {
            grow(l.size());
        }
        p
    }
    unsafe fn realloc(&self, p: *mut u8, l: Layout, n: usize) -> *mut u8 {
        let q = System.realloc(p, l, n);
        if !q.is_null() {
            // Counted as the new block arriving before the old one goes:
            // a moving realloc holds both for a moment.
            grow(n);
            LIVE.fetch_sub(l.size(), Ordering::SeqCst);
        }
        q
    }
    unsafe fn dealloc(&self, p: *mut u8, l: Layout) {
        System.dealloc(p, l);
        LIVE.fetch_sub(l.size(), Ordering::SeqCst);
    }
}

#[global_allocator]
static COUNTER: PeakAlloc = PeakAlloc;

const MIB: f64 = 1024.0 * 1024.0;

/// The benchmark's model configuration (`benchmark/src/workload.rs`).
fn bench_config() -> MambaConfig {
    MambaConfig {
        d_model: 256,
        n_layer: 4,
        d_state: 64,
        d_conv: 4,
        expand: 2,
        headdim: 64,
        ngroups: 1,
        vocab_size: 2048,
    }
}

/// Serializes the tests' measured windows.
static SERIAL: Mutex<()> = Mutex::new(());

/// The benchmark's reference model and the live heap bytes it holds,
/// checked against the 8.63 MiB the figures above are relative to.
fn reference() -> (MambaModel, f64) {
    let before = LIVE.load(Ordering::SeqCst);
    let reference = MambaModel::synthetic(bench_config(), &mut StdRng::seed_from_u64(7)).unwrap();
    let bytes = (LIVE.load(Ordering::SeqCst) - before) as f64;
    assert!(
        (8.5..8.8).contains(&(bytes / MIB)),
        "the reference is {:.2} MiB, not the benchmark model's 8.63",
        bytes / MIB
    );
    (reference, bytes)
}

#[test]
fn quantize_model_peaks_below_three_quarters_of_its_reference() {
    let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let (reference, reference_bytes) = reference();
    let start = LIVE.load(Ordering::SeqCst);
    PEAK.store(start, Ordering::SeqCst);
    let q = quantize_model(
        &reference,
        Method::LightMamba,
        &QuantSpec::w4a4_grouped(128),
        &[],
    )
    .unwrap();
    let peak = (PEAK.load(Ordering::SeqCst) - start) as f64;
    let kept = (LIVE.load(Ordering::SeqCst) - start) as f64;
    drop(q);

    let ratio = peak / reference_bytes;
    eprintln!(
        "reference {:.2} MiB, set-up peak {:.2} MiB above it ({ratio:.2}x), kept {:.2} MiB",
        reference_bytes / MIB,
        peak / MIB,
        kept / MIB
    );
    assert!(
        ratio <= 0.75,
        "quantize_model peaked {:.2} MiB above its {:.2} MiB reference ({ratio:.2}x > 0.75x)",
        peak / MIB,
        reference_bytes / MIB
    );
    assert!(
        (3.80..3.84).contains(&(kept / MIB)),
        "the quantized model keeps {:.2} MiB, not 3.82",
        kept / MIB
    );
}

#[test]
fn the_whole_model_rewrite_peaks_no_higher_than_before_streaming() {
    use lightmamba_quant::rotation::{self, RotationConfig};
    use lightmamba_quant::PreparedModel;
    let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let (reference, reference_bytes) = reference();
    let start = LIVE.load(Ordering::SeqCst);
    PEAK.store(start, Ordering::SeqCst);
    let mut prepared = PreparedModel::from_reference(&reference).unwrap();
    rotation::apply(&mut prepared, &RotationConfig::default()).unwrap();
    let peak = (PEAK.load(Ordering::SeqCst) - start) as f64;
    drop(prepared);

    let ratio = peak / reference_bytes;
    eprintln!(
        "reference {:.2} MiB, whole-model rotation peak {:.2} MiB above it ({ratio:.2}x)",
        reference_bytes / MIB,
        peak / MIB,
    );
    assert!(
        ratio <= 1.63,
        "the whole-model rotation peaked {:.2} MiB above its {:.2} MiB reference ({ratio:.2}x > 1.63x)",
        peak / MIB,
        reference_bytes / MIB
    );
}
