//! Order statistics over the raw samples a run holds.
//!
//! Every percentile the benchmark reports comes from here, never from a
//! `dpr-telemetry` histogram: those use 1-2-5 buckets up to 2.5× wide,
//! so their quantiles are bucket bounds, not measurements.

/// A sorted copy of `samples` (NaN-free by construction of the callers).
fn sorted(samples: &[f64]) -> Vec<f64> {
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// The median, averaging the two middle samples of an even count; 0 for
/// no samples.
pub fn median(samples: &[f64]) -> f64 {
    let v = sorted(samples);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// Samples at or below which `TAIL_BEYOND` samples remain: the tail is
/// the highest percentile that still has this many samples beyond it.
pub const TAIL_BEYOND: usize = 10;

/// A tail estimate: the value, the percentile it sits at, and how many
/// samples it was taken from.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tail {
    /// The sample value at the tail percentile.
    pub value: f64,
    /// The share of samples at or below `value`, in percent.
    pub percentile: f64,
    /// The number of samples.
    pub samples: usize,
}

/// The highest percentile with at least [`TAIL_BEYOND`] samples beyond
/// it. With too few samples for that percentile to lie above the median
/// (at most `2 × TAIL_BEYOND`), the maximum, flagged by its percentile
/// of 100.
pub fn tail(samples: &[f64]) -> Tail {
    let v = sorted(samples);
    let n = v.len();
    if n <= 2 * TAIL_BEYOND {
        return Tail {
            value: v.last().copied().unwrap_or(0.0),
            percentile: 100.0,
            samples: n,
        };
    }
    Tail {
        value: v[n - TAIL_BEYOND - 1],
        percentile: 100.0 * (n - TAIL_BEYOND) as f64 / n as f64,
        samples: n,
    }
}

impl std::fmt::Display for Tail {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "p{:.1} of {} samples", self.percentile, self.samples)
    }
}

/// `part / whole`, or 0 when `whole` is 0.
pub fn ratio(part: f64, whole: f64) -> f64 {
    if whole > 0.0 {
        part / whole
    } else {
        0.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn tail_keeps_ten_samples_beyond() {
        let samples: Vec<f64> = (1..=100).map(f64::from).collect();
        let t = tail(&samples);
        assert_eq!(t.value, 90.0);
        assert_eq!(t.percentile, 90.0);
        assert_eq!(
            samples.iter().filter(|&&s| s > t.value).count(),
            TAIL_BEYOND
        );
    }

    #[test]
    fn tail_of_few_samples_is_the_maximum() {
        let t = tail(&[5.0, 1.0, 3.0]);
        assert_eq!((t.value, t.percentile, t.samples), (5.0, 100.0, 3));
        let twenty: Vec<f64> = (1..=20).map(f64::from).collect();
        assert_eq!(tail(&twenty).value, 20.0);
    }
}
