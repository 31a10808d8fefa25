//! Host-side measurement: the wall clock, process CPU time, peak RSS, and
//! the order statistics every reported timing goes through.

use std::time::Instant;

/// The benchmark's one wall-clock read; every span and timer starts here.
pub fn now() -> Instant {
    #[allow(clippy::disallowed_methods)] // measuring host time is this binary's purpose
    let t = Instant::now();
    t
}

/// Milliseconds between two instants.
pub fn ms_between(from: Instant, to: Instant) -> f64 {
    to.duration_since(from).as_secs_f64() * 1e3
}

/// User + system CPU seconds of the whole process (all threads, exited
/// ones included), from `/proc/self/stat`. Linux reports them in clock
/// ticks, which are 1/100 s on every supported kernel configuration.
pub fn cpu_seconds() -> f64 {
    const TICKS_PER_SEC: f64 = 100.0;
    let Ok(stat) = std::fs::read_to_string("/proc/self/stat") else {
        return 0.0;
    };
    // The command name (field 2) may contain spaces; fields resume after
    // its closing parenthesis with field 3 (state). utime/stime are 14/15.
    let Some(rest) = stat.rsplit_once(')').map(|(_, r)| r) else {
        return 0.0;
    };
    let mut fields = rest.split_whitespace().skip(11);
    let utime: f64 = fields.next().and_then(|s| s.parse().ok()).unwrap_or(0.0);
    let stime: f64 = fields.next().and_then(|s| s.parse().ok()).unwrap_or(0.0);
    (utime + stime) / TICKS_PER_SEC
}

/// Peak resident set size (`VmHWM`) in MB.
pub fn peak_rss_mb() -> f64 {
    let Ok(status) = std::fs::read_to_string("/proc/self/status") else {
        return 0.0;
    };
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|l| l.split_whitespace().next())
        .and_then(|kb| kb.parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Nearest-rank percentile of an ascending slice (`p` in 0..=100).
fn percentile_of_sorted(v: &[f64], p: f64) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    let rank = (p / 100.0 * v.len() as f64).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1]
}

/// Median (the mean of the two middle values of an even sample); 0 for an
/// empty one.
pub fn median(values: &[f64]) -> f64 {
    let v = sorted(values);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// Arithmetic mean; `None` for an empty sample.
pub fn mean(values: &[f64]) -> Option<f64> {
    (!values.is_empty()).then(|| values.iter().sum::<f64>() / values.len() as f64)
}

/// The percentile ladder the `*_hi` metrics climb.
const LADDER: [(f64, &str); 5] = [
    (50.0, "p50"),
    (90.0, "p90"),
    (99.0, "p99"),
    (99.9, "p99.9"),
    (99.99, "p99.99"),
];

/// The highest ladder percentile that still has at least ten samples
/// beyond it, so the reported tail is never a single outlier. Below twenty
/// samples nothing qualifies and the median stands in.
pub fn hi_percentile(values: &[f64]) -> (&'static str, f64) {
    let v = sorted(values);
    let n = v.len() as f64;
    let (p, label) = LADDER
        .iter()
        .rev()
        .find(|(p, _)| n * (100.0 - p) / 100.0 >= 10.0)
        .copied()
        .unwrap_or(LADDER[0]);
    (label, percentile_of_sorted(&v, p))
}

/// Quartiles by the exclusive method, matching Python's
/// `statistics.quantiles(values, n=4)`; `None` below two samples.
pub fn quartiles(values: &[f64]) -> Option<[f64; 3]> {
    let v = sorted(values);
    let n = v.len();
    if n < 2 {
        return None;
    }
    let m = n + 1;
    let mut out = [0.0; 3];
    for (slot, i) in out.iter_mut().zip(1..4usize) {
        let j = (i * m / 4).clamp(1, n - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        *slot = (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0;
    }
    Some(out)
}

/// 64-bit FNV-1a, the `sim_digest` hash: stable across runs, hosts and
/// toolchains, which `std`'s hashers do not promise.
pub fn fnv1a(hash: u64, bytes: &[u8]) -> u64 {
    bytes.iter().fold(hash, |h, b| {
        (h ^ u64::from(*b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// FNV-1a offset basis.
pub const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hi_percentile_needs_ten_samples_beyond() {
        let ramp = |n: usize| (1..=n).map(|i| i as f64).collect::<Vec<_>>();
        // 19 samples: not even the median has ten beyond it.
        assert_eq!(hi_percentile(&ramp(19)), ("p50", 10.0));
        assert_eq!(hi_percentile(&ramp(20)).0, "p50");
        // 100 samples: p90 leaves exactly ten beyond, p99 only one.
        assert_eq!(hi_percentile(&ramp(100)), ("p90", 90.0));
        assert_eq!(hi_percentile(&ramp(999)).0, "p90");
        assert_eq!(hi_percentile(&ramp(1_000)), ("p99", 990.0));
        assert_eq!(hi_percentile(&ramp(100_000)).0, "p99.99");
        assert_eq!(hi_percentile(&[]), ("p50", 0.0));
    }

    #[test]
    fn median_and_quartiles_match_the_reference_rules() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
        // statistics.quantiles([1..=10], n=4) == [2.75, 5.5, 8.25]
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&ten), Some([2.75, 5.5, 8.25]));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[2.0, 1.0]), Some([0.75, 1.5, 2.25]));
        assert_eq!(quartiles(&[1.0]), None);
    }

    #[test]
    fn fnv1a_matches_the_published_vectors() {
        assert_eq!(fnv1a(FNV_OFFSET, b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a(FNV_OFFSET, b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a(FNV_OFFSET, b"foobar"), 0x8594_4171_f739_67e8);
    }

    #[test]
    fn host_counters_read_something() {
        assert!(peak_rss_mb() > 0.0);
        assert!(cpu_seconds() >= 0.0);
    }
}
