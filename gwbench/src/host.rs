//! Host fingerprint and the ceilings measured on it: ZGEMM peak and
//! STREAM-style triad bandwidth. Both are probed during set-up so each
//! layer's rate can be read against a ceiling from the same host.

use bgw_linalg::autotune::{self, AutotuneEntry, AutotuneTable, ShapeClass};
use bgw_linalg::{
    matmul, microkernel, zgemm_flops, zgemm_with_microkernel, CMatrix, GemmBackend, Op, TileParams,
};
use bgw_num::{simd, Complex64};
use std::path::Path;
use std::process::Command;
use std::time::Instant;

/// Square ZGEMM size of the ceiling probe.
pub const ZGEMM_CEILING_N: usize = 512;
/// Command-line flag of the bandwidth child process.
pub const STREAM_FLAG: &str = "--stream-probe";
/// Fallback last-level cache size when the host does not report one.
const DEFAULT_LLC_BYTES: u64 = 32 << 20;
/// Upper bound on the triad's working set, to stay a good neighbour on a
/// shared machine whatever cache size the host reports.
const MAX_STREAM_BYTES: u64 = 3 << 30;

/// Fingerprint fields recorded with every run.
pub fn fingerprint(llc_bytes: u64) -> Vec<(&'static str, String)> {
    let isa = simd::effective();
    let kernel = microkernel::select(
        ZGEMM_CEILING_N,
        ZGEMM_CEILING_N,
        ZGEMM_CEILING_N,
        None,
        true,
    )
    .kernel
    .label();
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    vec![
        ("isa", isa.name().to_string()),
        ("microkernel", kernel),
        ("nproc", nproc.to_string()),
        ("num_threads", bgw_par::num_threads().to_string()),
        (
            "bgw_threads_env",
            std::env::var("BGW_THREADS").unwrap_or_else(|_| "unset".into()),
        ),
        ("git_rev", git_rev(Path::new("."))),
        ("llc_bytes", llc_bytes.to_string()),
        (
            "autotune_path",
            std::env::var(autotune::PATH_ENV).unwrap_or_default(),
        ),
    ]
}

/// The commit checked out at `root`, read from `.git` without running
/// git; `"unknown"` outside a git checkout.
pub fn git_rev(root: &Path) -> String {
    let git = root.join(".git");
    let Ok(head) = std::fs::read_to_string(git.join("HEAD")) else {
        return "unknown".into();
    };
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head.to_string();
    };
    if let Ok(rev) = std::fs::read_to_string(git.join(reference)) {
        return rev.trim().to_string();
    }
    std::fs::read_to_string(git.join("packed-refs"))
        .ok()
        .and_then(|packed| {
            packed
                .lines()
                .find(|l| l.ends_with(reference))
                .and_then(|l| l.split_whitespace().next())
                .map(str::to_string)
        })
        .unwrap_or_else(|| "unknown".into())
}

/// Size of the largest cache level the kernel reports for CPU 0.
pub fn llc_bytes() -> u64 {
    let mut best = (0u32, 0u64);
    for i in 0..8 {
        let dir = format!("/sys/devices/system/cpu/cpu0/cache/index{i}");
        let read = |f: &str| std::fs::read_to_string(format!("{dir}/{f}")).ok();
        let (Some(level), Some(size)) = (read("level"), read("size")) else {
            continue;
        };
        let level: u32 = level.trim().parse().unwrap_or(0);
        let size = size.trim();
        let bytes = match size.strip_suffix('K') {
            Some(k) => k.parse::<u64>().unwrap_or(0) << 10,
            None => match size.strip_suffix('M') {
                Some(m) => m.parse::<u64>().unwrap_or(0) << 20,
                None => size.parse().unwrap_or(0),
            },
        };
        if level > best.0 || (level == best.0 && bytes > best.1) {
            best = (level, bytes);
        }
    }
    if best.1 == 0 {
        DEFAULT_LLC_BYTES
    } else {
        best.1
    }
}

/// Peak resident set size of this process (`VmHWM`), MiB.
pub fn peak_rss_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

/// Sweeps the effective ISA's microkernels over a few cache tiles for
/// every shape class and writes the winners to `path`, the table the
/// tuned ZGEMM backend reads at first use.
pub fn warm_autotune(path: &Path) -> std::io::Result<()> {
    let isa = simd::effective();
    let tiles = [
        TileParams {
            mc: 32,
            kc: 128,
            nc: 128,
        },
        TileParams::default(),
        TileParams {
            mc: 64,
            kc: 256,
            nc: 256,
        },
    ];
    let mut table = AutotuneTable::new();
    for class in ShapeClass::all() {
        let dim = class.representative_dim();
        let a = CMatrix::random(dim, dim, 11);
        let b = CMatrix::random(dim, dim, 13);
        let mut c = CMatrix::zeros(dim, dim);
        let flops = zgemm_flops(dim, dim, dim) as f64;
        let mut best: Option<AutotuneEntry> = None;
        for kernel in microkernel::kernels_for(isa) {
            for &t in &tiles {
                let mut secs = f64::INFINITY;
                for _ in 0..3 {
                    let t0 = Instant::now();
                    zgemm_with_microkernel(
                        Complex64::ONE,
                        &a,
                        Op::None,
                        &b,
                        Op::None,
                        Complex64::ZERO,
                        &mut c,
                        kernel,
                        t,
                        true,
                    );
                    secs = secs.min(t0.elapsed().as_secs_f64());
                }
                let gflops = flops / secs / 1e9;
                if best.as_ref().is_none_or(|e| gflops > e.gflops) {
                    best = Some(AutotuneEntry {
                        mr: kernel.mr,
                        nr: kernel.nr,
                        tiles: t,
                        gflops,
                    });
                }
            }
        }
        if let Some(e) = best {
            table.set(isa, class, e);
        }
    }
    autotune::save(path, &table)
}

/// Best-of-five GF/s of the tuned ZGEMM at `n x n x n`.
pub fn zgemm_ceiling_gflops(n: usize) -> f64 {
    let a = CMatrix::random(n, n, 1);
    let b = CMatrix::random(n, n, 2);
    let backend = GemmBackend::Tuned(TileParams::AUTO);
    std::hint::black_box(matmul(&a, Op::None, &b, Op::None, backend));
    let secs = (0..5)
        .map(|_| {
            let t = Instant::now();
            std::hint::black_box(matmul(&a, Op::None, &b, Op::None, backend));
            t.elapsed().as_secs_f64()
        })
        .fold(f64::INFINITY, f64::min);
    zgemm_flops(n, n, n) as f64 / secs / 1e9
}

/// Bytes per triad array: the three arrays together hold 4x the LLC.
pub fn stream_array_bytes(llc: u64) -> u64 {
    (4 * llc).min(MAX_STREAM_BYTES) / 3
}

/// Runs the triad in a child process (so its arrays never count in this
/// process's peak RSS) and returns its GB/s.
pub fn stream_gbs(array_bytes: u64) -> Result<f64, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let out = Command::new(exe)
        .arg(STREAM_FLAG)
        .arg(array_bytes.to_string())
        .output()
        .map_err(|e| format!("stream probe: {e}"))?;
    if !out.status.success() {
        return Err(format!("stream probe exited with {}", out.status));
    }
    String::from_utf8_lossy(&out.stdout)
        .trim()
        .parse()
        .map_err(|e| format!("stream probe output: {e}"))
}

/// The child side of [`stream_gbs`]: `a = b + s c` over three arrays of
/// `array_bytes` each on every available core, best of five passes,
/// counting 24 bytes per element as STREAM does.
pub fn stream_triad(array_bytes: u64) -> f64 {
    let n = (array_bytes / 8) as usize;
    let workers = std::thread::available_parallelism().map_or(1, |n| n.get());
    let chunk = n.div_ceil(workers);
    let mut a = vec![0.0f64; n];
    let mut b = vec![0.0f64; n];
    let mut c = vec![0.0f64; n];
    let par = |a: &mut [f64],
               b: &mut [f64],
               c: &mut [f64],
               f: &(dyn Fn(&mut f64, &mut f64, &mut f64) + Sync)| {
        std::thread::scope(|s| {
            for ((a, b), c) in a
                .chunks_mut(chunk)
                .zip(b.chunks_mut(chunk))
                .zip(c.chunks_mut(chunk))
            {
                s.spawn(move || {
                    for ((x, y), z) in a.iter_mut().zip(b.iter_mut()).zip(c.iter_mut()) {
                        f(x, y, z);
                    }
                });
            }
        });
    };
    // First touch on the workers that later stream the same pages.
    par(&mut a, &mut b, &mut c, &|x, y, z| {
        *x = 0.0;
        *y = 1.0;
        *z = 2.0;
    });
    let mut best = f64::INFINITY;
    for _ in 0..5 {
        let t = Instant::now();
        par(&mut a, &mut b, &mut c, &|x, y, z| *x = *y + 3.0 * *z);
        best = best.min(t.elapsed().as_secs_f64());
    }
    std::hint::black_box(&a);
    24.0 * n as f64 / best / 1e9
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn triad_reports_a_positive_rate() {
        assert!(stream_triad(1 << 20) > 0.0);
    }

    #[test]
    fn stream_arrays_hold_four_llc_together() {
        assert_eq!(stream_array_bytes(30 << 20), 40 << 20);
        assert_eq!(stream_array_bytes(8 << 30), MAX_STREAM_BYTES / 3);
    }

    #[test]
    fn git_rev_outside_a_checkout_is_unknown() {
        assert_eq!(git_rev(Path::new("/nonexistent-gwbench-dir")), "unknown");
    }
}
