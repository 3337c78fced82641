//! Medians and percentiles.

/// Median of `values` (mean of the middle pair for an even count).
///
/// # Panics
/// On an empty slice: every caller measures at least once.
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of no samples");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// Mean of the values between the quartiles (the interquartile mean).
/// The per-window values of one run are often bimodal here — a
/// client/server thread pair is fast while it shares a core and slow
/// while it does not, and the scheduler flips that every few seconds —
/// so their median jumps between the modes from run to run, while this
/// moves smoothly with the mix and still ignores the outlying windows.
pub fn midmean(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "midmean of no samples");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let cut = v.len() / 4;
    let middle = &v[cut..v.len() - cut];
    middle.iter().sum::<f64>() / middle.len() as f64
}

/// Percentiles a latency sample may be summarised at, ascending, each
/// with the reciprocal of the share of samples beyond it.
pub const PERCENTILES: [(f64, usize); 5] = [
    (50.0, 2),
    (90.0, 10),
    (99.0, 100),
    (99.9, 1000),
    (99.99, 10_000),
];

/// The highest of [`PERCENTILES`] that still has at least ten of
/// `samples` beyond it — the tail percentile a sample of that size
/// supports. `None` below 20 samples, where not even the median does.
pub fn highest_supported_percentile(samples: usize) -> Option<f64> {
    PERCENTILES
        .iter()
        .rev()
        .find(|(_, one_in)| samples >= 10 * one_in)
        .map(|&(p, _)| p)
}

/// The `p`-th percentile (nearest rank) of an ascending-sorted sample.
pub fn percentile(sorted: &[u32], p: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of no samples");
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    f64::from(sorted[rank.clamp(1, sorted.len()) - 1])
}

/// Median and tail of one window's latency sample, in microseconds.
/// The tail is p99 when the sample supports it, else the highest
/// percentile it does support (reported alongside).
pub struct LatencySummary {
    pub p50_us: f64,
    pub tail_percentile: f64,
    pub tail_us: f64,
}

/// Summarises nanosecond latencies; sorts `ns` in place.
pub fn summarise_latencies(ns: &mut [u32]) -> Option<LatencySummary> {
    let supported = highest_supported_percentile(ns.len())?;
    ns.sort_unstable();
    let tail_percentile = supported.min(99.0);
    Some(LatencySummary {
        p50_us: percentile(ns, 50.0) / 1e3,
        tail_percentile,
        tail_us: percentile(ns, tail_percentile) / 1e3,
    })
}

/// Saturating nanoseconds of a duration as `u32` (4.29 s ceiling —
/// beyond any single request here, and a saturated sample still sorts
/// into the tail where it belongs).
pub fn ns_u32(d: std::time::Duration) -> u32 {
    u32::try_from(d.as_nanos()).unwrap_or(u32::MAX)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn picks_highest_percentile_with_ten_samples_beyond() {
        assert_eq!(highest_supported_percentile(19), None);
        assert_eq!(highest_supported_percentile(20), Some(50.0));
        assert_eq!(highest_supported_percentile(99), Some(50.0));
        assert_eq!(highest_supported_percentile(100), Some(90.0));
        assert_eq!(highest_supported_percentile(999), Some(90.0));
        assert_eq!(highest_supported_percentile(1000), Some(99.0));
        assert_eq!(highest_supported_percentile(10_000), Some(99.9));
        assert_eq!(highest_supported_percentile(100_000), Some(99.99));
    }

    #[test]
    fn nearest_rank_percentiles() {
        let v: Vec<u32> = (1..=100).collect();
        assert_eq!(percentile(&v, 50.0), 50.0);
        assert_eq!(percentile(&v, 99.0), 99.0);
        assert_eq!(percentile(&v, 100.0), 100.0);
        assert_eq!(percentile(&[7], 99.0), 7.0);
    }

    #[test]
    fn medians() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }

    #[test]
    fn midmean_drops_the_outer_quarters() {
        assert_eq!(midmean(&[5.0]), 5.0);
        assert_eq!(midmean(&[1.0, 100.0, 3.0, 2.0]), 2.5);
        assert_eq!(
            midmean(&[0.0, 10.0, 10.0, 10.0, 20.0, 20.0, 20.0, 1000.0]),
            15.0
        );
    }

    #[test]
    fn tail_falls_back_when_p99_is_unsupported() {
        let mut few: Vec<u32> = (0..200).map(|i| i * 1000).collect();
        let s = summarise_latencies(&mut few).unwrap();
        assert_eq!(s.tail_percentile, 90.0);
        let mut many: Vec<u32> = (0..20_000).map(|i| i * 10).collect();
        assert_eq!(
            summarise_latencies(&mut many).unwrap().tail_percentile,
            99.0
        );
    }
}
