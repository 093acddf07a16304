//! What the benchmark reads from the host: peak resident memory and the
//! facts recorded beside every result.
//!
//! The peak is the process's, set-ups included: freed heap pages stay
//! resident, so a watermark reset before the rounds
//! (`/proc/self/clear_refs`) reads whatever the allocator happened to
//! keep from the set-ups — 17.9 or 24.8 MB from one run to the next on
//! `shared_prefix` — not what the rounds need.

/// Peak resident set size of this process in MB (`VmHWM`), 0 where
/// `/proc` is unavailable.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Host facts recorded in every result file.
#[derive(Debug, Clone)]
pub struct HostInfo {
    /// `std::thread::available_parallelism`.
    pub nproc: usize,
    /// First `model name` of `/proc/cpuinfo`.
    pub cpu_model: String,
    /// The SIMD instruction set the packed kernels dispatch to.
    pub isa: &'static str,
}

impl HostInfo {
    /// Reads the facts once.
    pub fn read() -> Self {
        let cpu_model = std::fs::read_to_string("/proc/cpuinfo")
            .ok()
            .and_then(|s| {
                s.lines()
                    .find(|l| l.starts_with("model name"))
                    .and_then(|l| l.split(':').nth(1))
                    .map(|m| m.trim().to_string())
            })
            .unwrap_or_else(|| "unknown".into());
        HostInfo {
            nproc: std::thread::available_parallelism().map_or(1, |n| n.get()),
            cpu_model,
            isa: lightmamba_quant::simd::active_isa(),
        }
    }
}
