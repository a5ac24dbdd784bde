//! Seeding, order statistics and host probes shared by every workload.

use std::time::Instant;

/// SplitMix64: the benchmark's own generator, so inputs depend on
/// `--seed` alone and not on any generator inside the program.
#[derive(Clone, Debug)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (multiply-shift; bias below 2^-32 for the small
    /// ranges used here).
    pub fn below(&mut self, n: u64) -> u64 {
        ((self.next_u64() >> 32) * n) >> 32
    }
}

/// Derives an independent seed for one purpose (`tag`) and one stream
/// (`index`: a thread, a slice, a rate) from the run's `--seed`.
pub fn derive(seed: u64, tag: &str, index: u64) -> u64 {
    let mut h = seed ^ 0x6A09_E667_F3BC_C908;
    for b in tag.bytes() {
        h = (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01B3);
    }
    Rng::new(h ^ index.wrapping_mul(0xD6E8_FEB8_6659_FD93)).next_u64()
}

/// The `q`-quantile of `sorted` by linear interpolation between the two
/// nearest order statistics.
pub fn quantile_sorted(sorted: &[f64], q: f64) -> f64 {
    assert!(!sorted.is_empty(), "quantile of no samples");
    let pos = q.clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

pub fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).expect("samples are finite"));
    v
}

pub fn median(values: &[f64]) -> f64 {
    quantile_sorted(&sorted(values), 0.5)
}

/// Distance between the quartiles as a share of the median: the spread
/// the driver compares with a metric's bound. Zero below four samples,
/// where quartiles mean nothing.
pub fn iqr_share(values: &[f64]) -> f64 {
    if values.len() < 4 {
        return 0.0;
    }
    let s = sorted(values);
    let mid = quantile_sorted(&s, 0.5);
    if mid == 0.0 {
        return 0.0;
    }
    (quantile_sorted(&s, 0.75) - quantile_sorted(&s, 0.25)) / mid.abs()
}

/// The percentile rule: percentile `p` may be reported from `samples`
/// samples only when at least ten of them lie beyond it.
pub fn percentile_allowed(samples: usize, p: f64) -> bool {
    // The rank of the percentile, proof against `100 * 0.9 = 89.99..`.
    let rank = (p * samples as f64 - 1e-9).ceil().max(0.0) as usize;
    samples.saturating_sub(rank) >= 10
}

/// Exact percentile of integer samples (sorts in place): the smallest
/// sample with at least `ceil(p * n)` samples at or below it.
pub fn percentile_u64(samples: &mut [u64], p: f64) -> u64 {
    assert!(!samples.is_empty(), "percentile of no samples");
    samples.sort_unstable();
    let rank = ((p * samples.len() as f64).ceil() as usize).clamp(1, samples.len());
    samples[rank - 1]
}

/// Percentile of integer samples treated as grouped data (sorts in
/// place): each integer `v` stands for the interval `[v - 0.5, v + 0.5)`
/// and the percentile is interpolated inside the interval that holds it.
/// Modeled times are small integers with many ties; this keeps their
/// percentiles continuous, so a shift of a few per cent of the samples
/// shows instead of hiding behind the tie.
pub fn percentile_grouped(samples: &mut [u64], p: f64) -> f64 {
    assert!(!samples.is_empty(), "percentile of no samples");
    samples.sort_unstable();
    let target = p.clamp(0.0, 1.0) * samples.len() as f64;
    let rank = (target.ceil() as usize).clamp(1, samples.len());
    let value = samples[rank - 1];
    let below = samples.partition_point(|s| *s < value);
    let ties = samples.partition_point(|s| *s <= value) - below;
    value as f64 - 0.5 + (target - below as f64) / ties as f64
}

/// Peak resident set size of this process in MB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// The checkout's git revision read from `.git` in the working
/// directory, or `unknown` (the driver's checkouts are not repositories).
pub fn git_revision() -> String {
    let head = match std::fs::read_to_string(".git/HEAD") {
        Ok(h) => h.trim().to_string(),
        Err(_) => return "unknown".into(),
    };
    match head.strip_prefix("ref: ") {
        Some(reference) => std::fs::read_to_string(format!(".git/{reference}"))
            .map_or_else(|_| "unknown".into(), |s| s.trim().to_string()),
        None => head,
    }
}

/// Seconds `f` took, with its result.
pub fn timed<T>(f: impl FnOnce() -> T) -> (f64, T) {
    let start = Instant::now();
    let out = f();
    (start.elapsed().as_secs_f64(), out)
}

/// Wall nanoseconds per call: the minimum over `batches` batches of
/// `per_batch` calls each (one untimed batch first). The minimum is the
/// run least disturbed by the host.
pub fn min_ns_per_call(batches: usize, per_batch: u64, mut call: impl FnMut(u64)) -> f64 {
    let mut best = f64::INFINITY;
    for batch in 0..=batches {
        let start = Instant::now();
        for i in 0..per_batch {
            call(i);
        }
        let ns = start.elapsed().as_nanos() as f64 / per_batch as f64;
        if batch > 0 {
            best = best.min(ns);
        }
    }
    best
}

/// The message of a caught panic.
pub fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    payload
        .downcast_ref::<&str>()
        .map(|s| s.to_string())
        .or_else(|| payload.downcast_ref::<String>().cloned())
        .unwrap_or_else(|| "panic with a non-string payload".into())
}
