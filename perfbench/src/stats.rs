//! Order statistics over timing samples.

/// Median of `samples` (mean of the two middle values for an even
/// count); `None` when empty.
pub fn median(samples: &[f64]) -> Option<f64> {
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    match n {
        0 => None,
        _ if n % 2 == 1 => Some(sorted[n / 2]),
        _ => Some((sorted[n / 2 - 1] + sorted[n / 2]) / 2.0),
    }
}

/// The minimum number of samples that must lie beyond a reported tail
/// percentile.
pub const TAIL_BEYOND: usize = 10;

/// A tail-latency readout: the value at `percentile`, with the sample
/// count it rests on and how many samples lie beyond it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tail {
    /// Nearest-rank percentile, in percent.
    pub percentile: f64,
    /// The sample at that rank.
    pub value: f64,
    /// Samples the readout was taken from.
    pub samples: usize,
    /// Samples ranked above it.
    pub beyond: usize,
}

/// The highest nearest-rank percentile that still has at least
/// [`TAIL_BEYOND`] samples beyond it. `None` when fewer than
/// `TAIL_BEYOND + 1` samples exist: no percentile qualifies then.
pub fn tail(samples: &[f64]) -> Option<Tail> {
    let n = samples.len();
    if n <= TAIL_BEYOND {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = n - TAIL_BEYOND; // 1-based nearest rank
    Some(Tail {
        percentile: 100.0 * rank as f64 / n as f64,
        value: sorted[rank - 1],
        samples: n,
        beyond: n - rank,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[]), None);
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
    }

    #[test]
    fn tail_needs_more_than_ten_samples() {
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(tail(&ten), None);
        let eleven: Vec<f64> = (1..=11).map(f64::from).collect();
        let t = tail(&eleven).unwrap();
        assert_eq!((t.value, t.samples, t.beyond), (1.0, 11, 10));
    }

    #[test]
    fn tail_is_the_highest_percentile_with_ten_beyond() {
        // 100 samples 1..=100 in scrambled order: p90 is 90, with
        // exactly ten samples (91..=100) beyond it.
        let samples: Vec<f64> = (0..100).map(|i| f64::from((i * 37) % 100 + 1)).collect();
        let t = tail(&samples).unwrap();
        assert_eq!(t.percentile, 90.0);
        assert_eq!(t.value, 90.0);
        assert_eq!((t.samples, t.beyond), (100, 10));
        assert_eq!(samples.iter().filter(|&&s| s > t.value).count(), TAIL_BEYOND);

        // 20 samples: the rule lands on the median rank.
        let twenty: Vec<f64> = (1..=20).map(f64::from).collect();
        let t = tail(&twenty).unwrap();
        assert_eq!((t.percentile, t.value, t.beyond), (50.0, 10.0, 10));
    }
}
