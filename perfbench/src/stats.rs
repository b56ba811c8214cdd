//! Order statistics for timing samples.

/// The value at a tail percentile and the percentile it was read at.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tail {
    pub value: f64,
    pub pct: f64,
}

/// A timing distribution reduced to the numbers the benchmark reports.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    pub n: usize,
    pub p50: f64,
    /// The highest percentile up to p90 with at least [`TAIL_SAMPLES`]
    /// samples beyond it.
    pub p90: Tail,
    /// The highest percentile up to p99 with at least [`TAIL_SAMPLES`]
    /// samples beyond it.
    pub p99: Tail,
}

/// Samples that must lie beyond a reported tail percentile.
pub const TAIL_SAMPLES: usize = 10;

/// Median (mean of the two middle values for an even count).
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    match n {
        0 => f64::NAN,
        _ if n % 2 == 1 => v[n / 2],
        _ => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    values.iter().sum::<f64>() / values.len() as f64
}

/// 0-based nearest-rank index of the tail value in a sorted sample of
/// `n`: the highest percentile up to `cap` (in percent) with at least
/// [`TAIL_SAMPLES`] samples above it. `None` when `n` is too small for
/// any index at or above the median to qualify.
pub fn tail_index(n: usize, cap: usize) -> Option<usize> {
    if n < 2 * TAIL_SAMPLES + 1 {
        return None;
    }
    let at_cap = (cap * n).div_ceil(100) - 1;
    Some(at_cap.min(n - 1 - TAIL_SAMPLES))
}

/// The median and the p90 and p99 tails (each the median when the sample
/// is too small for any percentile above it to qualify).
pub fn summarize(values: &[f64]) -> Summary {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    let p50 = median(&v);
    let tail = |cap| match tail_index(n, cap) {
        Some(k) => Tail {
            value: v[k],
            pct: 100.0 * (k + 1) as f64 / n as f64,
        },
        None => Tail {
            value: p50,
            pct: 50.0,
        },
    };
    Summary {
        n,
        p50,
        p90: tail(90),
        p99: tail(99),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tails_are_p90_and_p99_when_the_sample_supports_them() {
        // 2000 samples: p90 (index 1799) and p99 (index 1979, 20 beyond).
        assert_eq!(tail_index(2000, 90), Some(1799));
        assert_eq!(tail_index(2000, 99), Some(1979));
        let v: Vec<f64> = (1..=2000).map(f64::from).collect();
        let s = summarize(&v);
        assert_eq!((s.p90.value, s.p90.pct), (1800.0, 90.0));
        assert_eq!((s.p99.value, s.p99.pct), (1980.0, 99.0));
    }

    #[test]
    fn tail_keeps_ten_samples_beyond_it() {
        // 100 samples: p99 would leave one beyond it; the highest
        // percentile with ten beyond is p90 (index 89).
        assert_eq!(tail_index(100, 99), Some(89));
        assert_eq!(tail_index(100, 90), Some(89));
        let v: Vec<f64> = (0..100).rev().map(f64::from).collect();
        let s = summarize(&v);
        assert_eq!(s.p99.value, 89.0);
        assert_eq!(v.iter().filter(|&&x| x > s.p99.value).count(), TAIL_SAMPLES);
        assert_eq!(s.p99.pct, 90.0);
        // 50 samples: ten beyond caps both tails at index 39 (p80).
        assert_eq!(tail_index(50, 90), Some(39));
        // Exactly 1000: p99 leaves exactly ten beyond it.
        assert_eq!(tail_index(1000, 99), Some(989));
        assert_eq!(tail_index(1000, 90), Some(899));
    }

    #[test]
    fn small_samples_fall_back_to_the_median() {
        assert_eq!(tail_index(20, 99), None);
        assert_eq!(tail_index(21, 99), Some(10));
        assert_eq!(tail_index(21, 90), Some(10));
        let s = summarize(&[3.0, 1.0, 2.0]);
        assert_eq!((s.p50, s.p90.value, s.p99.pct), (2.0, 2.0, 50.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }
}
