//! What the results were measured on: the host fingerprint, the host's
//! single-thread FMA peak, and the process's peak resident memory.

use std::process::Command;
use std::time::Instant;

/// The facts two results must share before their numbers may be compared.
/// The git revision is recorded for provenance but is not part of
/// comparability: comparing two revisions is the point.
#[derive(Debug, Clone, PartialEq)]
pub struct Fingerprint {
    pub cpu_model: String,
    pub nproc: usize,
    pub avx512f: bool,
    pub fma: bool,
    pub rustc: String,
    pub profile: String,
    pub git_rev: String,
    pub git_dirty: bool,
}

impl Fingerprint {
    pub fn collect() -> Self {
        let cpu_model = std::fs::read_to_string("/proc/cpuinfo")
            .ok()
            .and_then(|s| {
                s.lines()
                    .find(|l| l.starts_with("model name"))
                    .and_then(|l| l.split_once(':'))
                    .map(|(_, v)| v.trim().to_string())
            })
            .unwrap_or_else(|| "unknown".to_string());
        let (git_rev, git_dirty) = git_revision();
        Self {
            cpu_model,
            nproc: nproc(),
            avx512f: has_avx512f(),
            fma: has_fma(),
            rustc: env!("PERFBENCH_RUSTC").to_string(),
            profile: env!("PERFBENCH_PROFILE").to_string(),
            git_rev,
            git_dirty,
        }
    }

    /// Whether numbers measured under `self` and `other` may be compared.
    pub fn comparable(&self, other: &Fingerprint) -> bool {
        (
            &self.cpu_model,
            self.nproc,
            self.avx512f,
            self.fma,
            &self.rustc,
            &self.profile,
        ) == (
            &other.cpu_model,
            other.nproc,
            other.avx512f,
            other.fma,
            &other.rustc,
            &other.profile,
        )
    }

    pub fn to_json(&self) -> String {
        format!(
            "{{\"cpu_model\": \"{}\", \"nproc\": {}, \"avx512f\": {}, \"fma\": {}, \
             \"rustc\": \"{}\", \"profile\": \"{}\", \"git_rev\": \"{}\", \"git_dirty\": {}}}",
            lsv_obs::escape_json(&self.cpu_model),
            self.nproc,
            self.avx512f,
            self.fma,
            lsv_obs::escape_json(&self.rustc),
            lsv_obs::escape_json(&self.profile),
            lsv_obs::escape_json(&self.git_rev),
            self.git_dirty
        )
    }

    pub fn from_json(v: &lsv_obs::JsonValue) -> Option<Self> {
        use lsv_obs::JsonValue::{Bool, Num, Str};
        let s = |k: &str| match v.get(k) {
            Some(Str(s)) => Some(s.clone()),
            _ => None,
        };
        let b = |k: &str| match v.get(k) {
            Some(Bool(b)) => Some(*b),
            _ => None,
        };
        Some(Self {
            cpu_model: s("cpu_model")?,
            nproc: match v.get("nproc") {
                Some(Num(n)) => *n as usize,
                _ => return None,
            },
            avx512f: b("avx512f")?,
            fma: b("fma")?,
            rustc: s("rustc")?,
            profile: s("profile")?,
            git_rev: s("git_rev")?,
            git_dirty: b("git_dirty")?,
        })
    }
}

pub fn nproc() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// `(revision, dirty)` of the source tree, or `("unknown", false)` outside
/// a git checkout.
fn git_revision() -> (String, bool) {
    let src = concat!(env!("CARGO_MANIFEST_DIR"), "/..");
    let git = |args: &[&str]| {
        Command::new("git")
            .arg("-C")
            .arg(src)
            .args(args)
            .output()
            .ok()
            .filter(|o| o.status.success())
            .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
    };
    // A checkout without its own `.git` may sit inside another repository,
    // whose revision says nothing about this source tree.
    let top = git(&["rev-parse", "--show-toplevel"]).and_then(|t| std::fs::canonicalize(t).ok());
    if top.is_none() || top != std::fs::canonicalize(src).ok() {
        return ("unknown".to_string(), false);
    }
    match git(&["rev-parse", "HEAD"]) {
        Some(rev) => {
            let dirty = git(&["status", "--porcelain", "--untracked-files=no"])
                .is_some_and(|s| !s.is_empty());
            (rev, dirty)
        }
        None => ("unknown".to_string(), false),
    }
}

fn has_avx512f() -> bool {
    #[cfg(target_arch = "x86_64")]
    {
        is_x86_feature_detected!("avx512f")
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        false
    }
}

fn has_fma() -> bool {
    #[cfg(target_arch = "x86_64")]
    {
        is_x86_feature_detected!("fma")
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        false
    }
}

/// User plus system CPU seconds of this process so far (all threads).
pub fn cpu_s() -> f64 {
    let stat = std::fs::read_to_string("/proc/self/stat").unwrap_or_default();
    // Fields after the parenthesised command name; utime and stime are the
    // 12th and 13th of them, in clock ticks (100 per second on Linux).
    let rest = stat.rsplit_once(')').map_or("", |(_, r)| r);
    let f: Vec<f64> = rest
        .split_whitespace()
        .skip(11)
        .take(2)
        .filter_map(|x| x.parse().ok())
        .collect();
    f.iter().sum::<f64>() / 100.0
}

/// Peak resident set size of this process so far, in MB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map(|kb| kb / 1024.0)
        .unwrap_or(0.0)
}

/// Independent accumulator chains in the peak loop: enough to cover the
/// FMA latency times the number of FMA ports.
const CHAINS: usize = 16;

/// Single-thread f32 FMA throughput of this host in GFLOP/s: the best of a
/// few short runs of `CHAINS` independent vector FMA chains. Uses AVX-512F
/// (16 lanes) or AVX2+FMA (8 lanes) when the CPU has them, and scalar
/// multiply-add otherwise.
pub fn peak_gflops() -> f64 {
    const ITERS: u64 = 400_000;
    (0..5)
        .map(|_| {
            let t0 = Instant::now();
            let (lanes, checksum) = fma_loop(ITERS);
            let secs = t0.elapsed().as_secs_f64().max(1e-9);
            std::hint::black_box(checksum);
            (2 * lanes * CHAINS as u64 * ITERS) as f64 / secs / 1e9
        })
        .fold(0.0, f64::max)
}

/// Run the FMA chains `iters` times; returns `(lanes per FMA, checksum)`.
fn fma_loop(iters: u64) -> (u64, f32) {
    #[cfg(target_arch = "x86_64")]
    {
        if has_avx512f() {
            // SAFETY: the CPU reports AVX-512F, the only feature the
            // function enables.
            return (16, unsafe { x86::fma_avx512(iters) });
        }
        if has_fma() && is_x86_feature_detected!("avx2") {
            // SAFETY: the CPU reports FMA and AVX2, the features the
            // function enables.
            return (8, unsafe { x86::fma_avx2(iters) });
        }
    }
    (1, fma_scalar(iters))
}

fn fma_scalar(iters: u64) -> f32 {
    let mut acc = [1.0f32; CHAINS];
    let (a, b) = (
        std::hint::black_box(0.999_999f32),
        std::hint::black_box(1e-7f32),
    );
    for _ in 0..iters {
        for x in acc.iter_mut() {
            *x = x.mul_add(a, b);
        }
    }
    acc.iter().sum()
}

#[cfg(target_arch = "x86_64")]
mod x86 {
    use super::CHAINS;
    use std::arch::x86_64::*;

    /// # Safety
    /// The CPU must support AVX-512F.
    #[target_feature(enable = "avx512f")]
    pub unsafe fn fma_avx512(iters: u64) -> f32 {
        let a = _mm512_set1_ps(std::hint::black_box(0.999_999));
        let b = _mm512_set1_ps(std::hint::black_box(1e-7));
        let mut acc = [_mm512_set1_ps(1.0); CHAINS];
        for _ in 0..iters {
            for x in acc.iter_mut() {
                *x = _mm512_fmadd_ps(*x, a, b);
            }
        }
        let mut sum = _mm512_setzero_ps();
        for x in acc {
            sum = _mm512_add_ps(sum, x);
        }
        _mm512_reduce_add_ps(sum)
    }

    /// # Safety
    /// The CPU must support AVX2 and FMA.
    #[target_feature(enable = "avx2,fma")]
    pub unsafe fn fma_avx2(iters: u64) -> f32 {
        let a = _mm256_set1_ps(std::hint::black_box(0.999_999));
        let b = _mm256_set1_ps(std::hint::black_box(1e-7));
        let mut acc = [_mm256_set1_ps(1.0); CHAINS];
        for _ in 0..iters {
            for x in acc.iter_mut() {
                *x = _mm256_fmadd_ps(*x, a, b);
            }
        }
        let mut out = [0.0f32; 8];
        let mut sum = _mm256_setzero_ps();
        for x in acc {
            sum = _mm256_add_ps(sum, x);
        }
        _mm256_storeu_ps(out.as_mut_ptr(), sum);
        out.iter().sum()
    }
}
