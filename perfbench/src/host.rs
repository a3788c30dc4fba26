//! The host a run executed on: environment guard, fingerprint, speed
//! probe and memory high-water mark.

use std::time::Instant;

/// Environment variables the program reads that would change what a run
/// measures. The benchmark sets shards, ingest threads and the blockstore
/// explicitly, so the `FI_TEST_*` knobs are inert; these two families are
/// not, and a run refuses to start under them.
pub fn forbidden_env() -> Vec<String> {
    std::env::vars()
        .map(|(k, _)| k)
        .filter(|k| k.starts_with("FI_TUNE_") || k == "FI_FORCE_SCALAR_SHA")
        .collect()
}

/// `FI_TEST_*` variables present (recorded, overridden by the benchmark).
pub fn inert_env() -> Vec<String> {
    let mut vars: Vec<String> = std::env::vars()
        .map(|(k, v)| format!("{k}={v}"))
        .filter(|kv| kv.starts_with("FI_TEST_"))
        .collect();
    vars.sort();
    vars
}

/// Cores the process may use.
pub fn nproc() -> usize {
    std::thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(1)
}

/// CPU model from `/proc/cpuinfo`, or `unknown`.
pub fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split(':').nth(1))
                .map(|m| m.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into())
}

/// The commit of the checkout, read from `.git` when the working
/// directory is a git checkout; `unknown` otherwise.
pub fn commit() -> String {
    let read = |p: &str| {
        std::fs::read_to_string(p)
            .ok()
            .map(|s| s.trim().to_string())
    };
    match read(".git/HEAD") {
        Some(head) => match head.strip_prefix("ref: ") {
            Some(r) => read(&format!(".git/{r}")).unwrap_or_else(|| "unknown".into()),
            None => head,
        },
        None => "unknown".into(),
    }
}

/// Peak resident set size of this process (`VmHWM`), in MiB.
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

/// A fixed kernel in the benchmark's own code (no program code): a
/// dependent random walk over a 64 MiB table, mixing each visited word.
/// Like the program's hash-map and HAMT work it is bound by cache misses,
/// so it slows down with the host. Its wall time tells a slow host from a
/// slow change; it is reported, never gated.
pub fn probe_ms() -> f64 {
    const WORDS: usize = 1 << 23;
    let mut table: Vec<u64> = (0..WORDS as u64)
        .map(|i| i.wrapping_mul(0x9E37_79B9_7F4A_7C15))
        .collect();
    let mut x: u64 = 0x2545_F491_4F6C_DD1D;
    let start = Instant::now();
    for _ in 0..(1 << 21) {
        let i = (x as usize) & (WORDS - 1);
        x ^= table[i];
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        table[i] = x;
    }
    let ms = start.elapsed().as_secs_f64() * 1e3;
    std::hint::black_box(&table);
    ms
}

/// Median of `xs` (mean of the middle two for even lengths).
///
/// # Panics
///
/// Panics on an empty slice or a NaN.
pub fn median(xs: &[f64]) -> f64 {
    let mut v = xs.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).expect("no NaN"));
    let n = v.len();
    assert!(n > 0, "median of nothing");
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Nearest-rank percentile `p` (0–100) of `xs`.
///
/// # Panics
///
/// Panics on an empty slice or a NaN.
pub fn percentile(xs: &[f64], p: f64) -> f64 {
    let mut v = xs.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).expect("no NaN"));
    assert!(!v.is_empty(), "percentile of nothing");
    let rank = ((p / 100.0) * v.len() as f64).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1]
}
