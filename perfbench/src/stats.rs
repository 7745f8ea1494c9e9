//! Summary statistics used by every workload.

/// Median of `xs` (mean of the two middle values for even lengths); `NaN`
/// for an empty slice.
pub fn median(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return f64::NAN;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// First and third quartiles with the same rule as Python's
/// `statistics.quantiles(xs, n=4)` (the default "exclusive" method), so the
/// spreads printed here match the ones the acceptance check computes.
/// Needs at least two values.
pub fn quartiles(xs: &[f64]) -> Option<(f64, f64)> {
    if xs.len() < 2 {
        return None;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let m = (v.len() + 1) as i64;
    let at = |i: i64| {
        // Position i/4 of the way through m = n + 1 slots, 1-based, clamped
        // to the sample range; outside it the end pair extrapolates.
        let j = (i * m / 4).clamp(1, v.len() as i64 - 1);
        let delta = (i * m - j * 4) as f64;
        let j = j as usize;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    Some((at(1), at(3)))
}

/// The percentile `serve_tail_ms` reports.
pub const TAIL_PERCENTILE: u32 = 98;

/// Samples that must lie beyond the reported tail percentile.
pub const TAIL_BEYOND: usize = 10;

/// Requests every serve run sends: the fewest that leave [`TAIL_BEYOND`]
/// samples ranked above [`TAIL_PERCENTILE`]. A fixed count keeps the
/// percentile's rank the same however fast the program answers.
pub const TAIL_SAMPLES: usize = 500;

/// A tail latency at a fixed percentile.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tail {
    /// The sample at the percentile's nearest rank.
    pub value: f64,
    /// Samples ranked above it.
    pub beyond: usize,
}

/// The nearest-rank `percentile` of `xs` (the smallest rank `r` with
/// `r/n >= percentile/100`). `None` when fewer than [`TAIL_BEYOND`] samples
/// are ranked above it.
pub fn tail(xs: &[f64], percentile: u32) -> Option<Tail> {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    let rank = (percentile as usize * n).div_ceil(100).max(1);
    let beyond = n.checked_sub(rank)?;
    (beyond >= TAIL_BEYOND).then(|| Tail {
        value: v[rank - 1],
        beyond,
    })
}

/// Least-squares slope of `ln y` against `ln x`: the exponent `b` of a
/// power-law fit `y ≈ a·x^b`. `NaN` for fewer than two points or a
/// degenerate `x` range; every value must be positive.
pub fn loglog_slope(xs: &[f64], ys: &[f64]) -> f64 {
    let pts: Vec<(f64, f64)> = xs.iter().zip(ys).map(|(x, y)| (x.ln(), y.ln())).collect();
    if pts.len() < 2 {
        return f64::NAN;
    }
    let n = pts.len() as f64;
    let mx = pts.iter().map(|p| p.0).sum::<f64>() / n;
    let my = pts.iter().map(|p| p.1).sum::<f64>() / n;
    let sxx: f64 = pts.iter().map(|p| (p.0 - mx) * (p.0 - mx)).sum();
    let sxy: f64 = pts.iter().map(|p| (p.0 - mx) * (p.1 - my)).sum();
    if sxx <= 0.0 {
        return f64::NAN;
    }
    sxy / sxx
}

/// A cache hit ratio together with its base, so the ratio is never quoted
/// without the counts it came from.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct HitRatio {
    /// Lookups answered from the cache.
    pub hits: u64,
    /// Lookups that had to compute.
    pub misses: u64,
}

impl HitRatio {
    /// `hits / (hits + misses)`; `NaN` with no lookups.
    pub fn ratio(&self) -> f64 {
        let base = self.hits + self.misses;
        if base == 0 {
            f64::NAN
        } else {
            self.hits as f64 / base as f64
        }
    }

    /// Adds another tally.
    pub fn add(&mut self, hits: u64, misses: u64) {
        self.hits += hits;
        self.misses += misses;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_odd_even_and_empty() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert!(median(&[]).is_nan());
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let xs: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&xs), Some((2.75, 8.25)));
        // statistics.quantiles([1, 2, 3, 4, 5], n=4) == [1.5, 3.0, 4.5]
        assert_eq!(quartiles(&[5.0, 1.0, 4.0, 2.0, 3.0]), Some((1.5, 4.5)));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), Some((0.75, 2.25)));
        assert_eq!(quartiles(&[1.0]), None);
    }

    #[test]
    fn tail_keeps_ten_samples_beyond() {
        // 500 samples in reverse order: p98 is rank 490, ten beyond.
        let xs: Vec<f64> = (1..=500).rev().map(f64::from).collect();
        assert_eq!(
            tail(&xs, 98),
            Some(Tail {
                value: 490.0,
                beyond: 10
            })
        );
        // 1000 samples: the same percentile, twenty beyond.
        let xs: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(
            tail(&xs, 98).map(|t| (t.value, t.beyond)),
            Some((980.0, 20))
        );
        // 100 samples: p90 has exactly ten beyond, p98 too few.
        let xs: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(tail(&xs, 90).map(|t| (t.value, t.beyond)), Some((90.0, 10)));
        assert_eq!(tail(&xs, 98), None);
        assert_eq!(tail(&[], 98), None);
    }

    #[test]
    fn tail_samples_is_the_fewest_for_the_tail_percentile() {
        let beyond = |n: usize| tail(&vec![1.0; n], TAIL_PERCENTILE).map(|t| t.beyond);
        assert_eq!(beyond(TAIL_SAMPLES), Some(TAIL_BEYOND));
        assert_eq!(beyond(TAIL_SAMPLES - 1), None);
    }

    #[test]
    fn loglog_slope_recovers_power_laws() {
        let xs = [1000.0, 4000.0, 10000.0];
        let lin: Vec<f64> = xs.iter().map(|x| 3e-3 * x).collect();
        assert!((loglog_slope(&xs, &lin) - 1.0).abs() < 1e-12);
        let quad: Vec<f64> = xs.iter().map(|x| 2e-7 * x * x).collect();
        assert!((loglog_slope(&xs, &quad) - 2.0).abs() < 1e-12);
        let flat = [5.0, 5.0, 5.0];
        assert!(loglog_slope(&xs, &flat).abs() < 1e-12);
        assert!(loglog_slope(&[1.0], &[1.0]).is_nan());
        assert!(loglog_slope(&[2.0, 2.0], &[1.0, 3.0]).is_nan());
    }

    #[test]
    fn hit_ratio_carries_its_base() {
        let mut r = HitRatio::default();
        assert!(r.ratio().is_nan());
        r.add(30, 10);
        r.add(10, 0);
        assert_eq!((r.hits, r.misses), (40, 10));
        assert!((r.ratio() - 0.8).abs() < 1e-12);
    }
}
