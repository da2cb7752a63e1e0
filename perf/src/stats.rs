//! Sample statistics shared by every workload: the repository's one
//! quantile definition, the tail rule, and the seeded arrival schedule.

use std::time::Duration;

use ssr_analysis::stats::percentile;

/// Tail percentiles the tail rule chooses from, highest first.
const TAILS: [f64; 4] = [99.9, 99.0, 95.0, 90.0];

/// The tail rule: the highest percentile that has at least ten samples
/// beyond it, so a reported tail is never one or two outliers. Falls back
/// to the median for tiny samples. Ranks are computed exactly as
/// [`percentile`] computes them.
pub fn tail_percentile(samples: usize) -> f64 {
    TAILS
        .into_iter()
        .find(|&p| samples - ((p / 100.0) * samples as f64).ceil() as usize >= 10)
        .unwrap_or(50.0)
}

/// Median, 95th percentile and rule-chosen tail of a latency sample, in
/// microseconds. The fixed p95 is what runs are compared on: it means the
/// same on every run and, unlike p99, repeats within a bound on a shared
/// machine. The tail-rule percentile is reported beside it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Latency {
    /// Median, µs.
    pub p50_us: f64,
    /// 95th percentile, µs.
    pub p95_us: f64,
    /// The tail-rule percentile, µs.
    pub tail_us: f64,
    /// Which percentile `tail_us` is.
    pub tail_pct: f64,
    /// Sample count.
    pub n: usize,
}

impl Latency {
    /// Summarize nanosecond samples; `None` when there are none.
    pub fn of(mut ns: Vec<u64>) -> Option<Latency> {
        if ns.is_empty() {
            return None;
        }
        ns.sort_unstable();
        let tail_pct = tail_percentile(ns.len());
        Some(Latency {
            p50_us: percentile(&ns, 50.0) as f64 / 1e3,
            p95_us: percentile(&ns, 95.0) as f64 / 1e3,
            tail_us: percentile(&ns, tail_pct) as f64 / 1e3,
            tail_pct,
            n: ns.len(),
        })
    }
}

/// Nearest-rank percentile `p` of nanosecond samples, in microseconds (0
/// for an empty sample).
pub fn pct_us(ns: &[u64], p: f64) -> f64 {
    if ns.is_empty() {
        return 0.0;
    }
    let mut sorted = ns.to_vec();
    sorted.sort_unstable();
    percentile(&sorted, p) as f64 / 1e3
}

/// Median of a non-empty slice of durations.
pub fn median(values: &[Duration]) -> Duration {
    let mut sorted = values.to_vec();
    sorted.sort_unstable();
    sorted[(sorted.len() - 1) / 2]
}

/// `num / den`, or 0 when `den` is 0 (a layer the workload never used).
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// SplitMix64: a tiny seeded generator, so the benchmark's inputs depend on
/// nothing but `--seed`.
#[derive(Debug, Clone)]
pub struct SplitMix64(u64);

impl SplitMix64 {
    /// A generator seeded with `seed`.
    pub fn new(seed: u64) -> Self {
        SplitMix64(seed)
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// Open-loop arrivals over `span`: `(offset, tenant)` pairs in time order.
///
/// A Poisson process at `rate` per second, conditioned on its expected
/// count: `round(rate · span)` arrival times drawn uniformly over the span
/// and sorted (the arrival times of a Poisson process given its count are
/// exactly that). Fixing the count keeps the offered load identical for
/// every seed, so only the system's response varies between runs.
pub fn arrivals(seed: u64, rate: f64, span: Duration, tenants: usize) -> Vec<(Duration, usize)> {
    let mut rng = SplitMix64::new(seed);
    let count = (rate * span.as_secs_f64()).round() as usize;
    let mut out: Vec<(Duration, usize)> = (0..count)
        .map(|_| {
            let at = span.mul_f64(rng.unit());
            (at, (rng.next_u64() % tenants as u64) as usize)
        })
        .collect();
    out.sort_by_key(|&(at, _)| at);
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_rule_keeps_ten_samples_beyond_the_percentile() {
        assert_eq!(tail_percentile(10_010), 99.9);
        assert_eq!(tail_percentile(10_000), 99.0, "rank 9991 leaves only 9 beyond p99.9");
        assert_eq!(tail_percentile(1_000), 99.0);
        assert_eq!(tail_percentile(999), 95.0);
        assert_eq!(tail_percentile(200), 95.0);
        assert_eq!(tail_percentile(100), 90.0);
        assert_eq!(tail_percentile(99), 50.0);
        assert_eq!(tail_percentile(0), 50.0);
        for n in [100, 200, 1_000, 5_000, 10_000, 10_010, 123_456] {
            let p = tail_percentile(n);
            let rank = ((p / 100.0) * n as f64).ceil() as usize;
            assert!(n - rank >= 10, "n={n}: p{p} leaves {} beyond", n - rank);
        }
    }

    #[test]
    fn latency_summary_uses_nearest_rank() {
        let ns: Vec<u64> = (1..=1000).rev().map(|v| v * 1000).collect();
        let lat = Latency::of(ns).unwrap();
        assert_eq!(lat.n, 1000);
        assert_eq!(lat.p50_us, 500.0);
        assert_eq!(lat.p95_us, 950.0);
        assert_eq!(lat.tail_pct, 99.0);
        assert_eq!(lat.tail_us, 990.0);
        let small = Latency::of((1..=200).collect()).unwrap();
        assert_eq!((small.tail_pct, small.tail_us), (95.0, 0.19));
        assert!(Latency::of(Vec::new()).is_none());
    }

    #[test]
    fn arrivals_are_deterministic_per_seed() {
        let span = Duration::from_secs(10);
        let a = arrivals(7, 150.0, span, 8);
        assert_eq!(a, arrivals(7, 150.0, span, 8), "same seed, same schedule");
        assert_ne!(a, arrivals(8, 150.0, span, 8), "another seed, another schedule");
        assert_eq!(a.len(), 1500, "the count is fixed by rate and span");
        assert!(a.windows(2).all(|w| w[0].0 <= w[1].0), "time-ordered");
        assert!(a.iter().all(|&(at, t)| at < span && t < 8));
        // Exponential gaps: about e^-1 of them exceed the mean gap.
        let mean = span.as_secs_f64() / a.len() as f64;
        let long = a.windows(2).filter(|w| (w[1].0 - w[0].0).as_secs_f64() > mean).count();
        let share = long as f64 / (a.len() - 1) as f64;
        assert!((share - (-1f64).exp()).abs() < 0.05, "share of long gaps {share}");
        // Every tenant gets traffic.
        for t in 0..8 {
            assert!(a.iter().any(|&(_, x)| x == t));
        }
    }
}
