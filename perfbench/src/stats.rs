//! Order statistics over run samples: the median and quartiles the
//! steadiness check uses, and the tail-percentile rule for latencies.

/// Median of `values` (mean of the two middle values for an even count).
/// `None` when empty.
pub fn median(values: &[f64]) -> Option<f64> {
    let s = sorted(values);
    let n = s.len();
    match n {
        0 => None,
        _ if n % 2 == 1 => Some(s[n / 2]),
        _ => Some((s[n / 2 - 1] + s[n / 2]) / 2.0),
    }
}

/// First and third quartiles by the "exclusive" method (Python's
/// `statistics.quantiles(values, n=4)` default), so spreads printed here
/// read the same as one computed from the printed values. `None` below
/// two samples.
pub fn quartiles(values: &[f64]) -> Option<(f64, f64)> {
    let s = sorted(values);
    let ld = s.len();
    if ld < 2 {
        return None;
    }
    let m = ld + 1;
    let cut = |i: usize| {
        let j = (i * m / 4).clamp(1, ld - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (s[j - 1] * (4.0 - delta) + s[j] * delta) / 4.0
    };
    Some((cut(1), cut(3)))
}

/// Percentiles the tail rule tries, highest first.
const TAIL_LADDER: [f64; 5] = [99.0, 95.0, 90.0, 75.0, 50.0];

/// Samples that must lie beyond a reported tail percentile.
pub const TAIL_MIN_BEYOND: usize = 10;

/// A latency tail: the highest percentile of the ladder that leaves at
/// least [`TAIL_MIN_BEYOND`] samples beyond it, with the sample count.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tail {
    /// Percentile reported; 100 (the maximum) when no ladder rung leaves
    /// enough samples beyond it.
    pub percentile: f64,
    /// Its value.
    pub value: f64,
    /// Samples it was taken over.
    pub samples: usize,
}

/// Nearest-rank percentile `p` of sorted data: the value at 1-based rank
/// `ceil(p/100 * n)`. Returns the value and how many samples lie beyond
/// that rank.
fn nearest_rank(sorted: &[f64], p: f64) -> (f64, usize) {
    let n = sorted.len();
    let rank = ((p / 100.0 * n as f64).ceil() as usize).clamp(1, n);
    (sorted[rank - 1], n - rank)
}

/// The tail of `values` by the rule in [`Tail`]. `None` when empty.
pub fn tail(values: &[f64]) -> Option<Tail> {
    let s = sorted(values);
    let samples = s.len();
    let max = *s.last()?;
    let rung = TAIL_LADDER.iter().find_map(|&p| {
        let (value, beyond) = nearest_rank(&s, p);
        (beyond >= TAIL_MIN_BEYOND).then_some(Tail {
            percentile: p,
            value,
            samples,
        })
    });
    Some(rung.unwrap_or(Tail {
        percentile: 100.0,
        value: max,
        samples,
    }))
}

fn sorted(values: &[f64]) -> Vec<f64> {
    let mut s = values.to_vec();
    s.sort_by(f64::total_cmp);
    s
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
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), Some((2.75, 8.25)));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[2.0, 1.0]), Some((0.75, 2.25)));
        // statistics.quantiles([5, 1, 4, 2, 3], n=4) == [1.5, 3.0, 4.5]
        assert_eq!(quartiles(&[5.0, 1.0, 4.0, 2.0, 3.0]), Some((1.5, 4.5)));
        assert_eq!(quartiles(&[1.0]), None);
    }

    #[test]
    fn tail_is_p99_once_ten_samples_lie_beyond_it() {
        // 1000 samples: rank 990 for p99 leaves exactly 10 beyond.
        let v: Vec<f64> = (1..=1000).map(f64::from).collect();
        let t = tail(&v).unwrap();
        assert_eq!((t.percentile, t.value, t.samples), (99.0, 990.0, 1000));
        // 20000 samples leave 200 beyond p99.
        let v: Vec<f64> = (1..=20_000).map(f64::from).collect();
        assert_eq!(tail(&v).unwrap().percentile, 99.0);
    }

    #[test]
    fn tail_steps_down_the_ladder_for_small_samples() {
        // 999 samples: p99 is rank 990, only 9 beyond; p95 is rank 950.
        let v: Vec<f64> = (1..=999).map(f64::from).collect();
        let t = tail(&v).unwrap();
        assert_eq!((t.percentile, t.value), (95.0, 950.0));
        // 40 samples: p75 is rank 30 with 10 beyond.
        let v: Vec<f64> = (1..=40).map(f64::from).collect();
        assert_eq!(tail(&v).unwrap().percentile, 75.0);
        // 20 samples: only the median leaves 10 beyond.
        let v: Vec<f64> = (1..=20).map(f64::from).collect();
        assert_eq!(tail(&v).unwrap().percentile, 50.0);
    }

    #[test]
    fn tail_falls_back_to_the_maximum() {
        let t = tail(&[3.0, 9.0, 1.0]).unwrap();
        assert_eq!((t.percentile, t.value, t.samples), (100.0, 9.0, 3));
        assert_eq!(tail(&[]), None);
    }
}
