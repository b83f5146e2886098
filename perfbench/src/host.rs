//! Host facts printed with every result, and the process's memory
//! high-water mark.

/// Facts about the host that results depend on.
#[derive(Clone, Debug)]
pub struct Host {
    /// Available parallelism (`nproc`).
    pub nproc: usize,
    /// CPU model name from `/proc/cpuinfo`.
    pub cpu: String,
    /// Whether the channel and FFT kernels detected AVX2 at runtime.
    pub avx2: bool,
    /// Git revision of the checkout, or `unknown` outside a git tree.
    pub git_rev: String,
}

impl Host {
    /// Reads the host facts.
    pub fn probe() -> Self {
        let cpu = std::fs::read_to_string("/proc/cpuinfo")
            .ok()
            .and_then(|s| {
                s.lines()
                    .find(|l| l.starts_with("model name"))
                    .and_then(|l| l.split_once(':'))
                    .map(|(_, v)| v.trim().to_string())
            })
            .unwrap_or_else(|| "unknown".to_string());
        Host {
            nproc: nproc(),
            cpu,
            avx2: msc_dsp::simd::avx2_available(),
            git_rev: msc_obs::manifest::git_rev(std::path::Path::new(".")),
        }
    }
}

/// Worker threads the nproc-wide workloads use.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1)
}

/// Resets the resident-set high-water mark so that [`peak_rss_mib`]
/// covers only what runs after this call. Freed heap pages are returned
/// to the kernel first, so the mark starts from live data and not from
/// whatever the repeated set-ups left in the allocator. Returns `false`
/// when the kernel refuses (the mark then also covers set-up).
pub fn reset_peak_rss() -> bool {
    trim_heap();
    std::fs::write("/proc/self/clear_refs", "5").is_ok()
}

/// Returns free heap memory of every allocator arena to the kernel
/// (glibc `malloc_trim`); a no-op elsewhere.
fn trim_heap() {
    #[cfg(all(target_os = "linux", target_env = "gnu"))]
    {
        extern "C" {
            fn malloc_trim(pad: usize) -> i32;
        }
        // SAFETY: `malloc_trim` takes no pointers; it only releases
        // memory the allocator holds as free.
        unsafe {
            malloc_trim(0);
        }
    }
}

/// The process's resident-set high-water mark (`VmHWM`), MiB.
pub fn peak_rss_mib() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}
