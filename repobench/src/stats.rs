//! Order statistics shared by every workload: medians, quartiles, and the
//! tail-percentile rule.

/// Percentile ladder searched by [`tail`], highest first.
pub const TAIL_LADDER: [f64; 9] = [99.99, 99.9, 99.5, 99.0, 97.5, 95.0, 90.0, 75.0, 50.0];

/// Samples that must lie strictly beyond a reported tail percentile.
pub const TAIL_MIN_BEYOND: usize = 10;

/// A tail latency together with the percentile it sits at and the number of
/// samples it was taken from.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tail {
    /// The sample value at the percentile.
    pub value: f64,
    /// The percentile (100 = the maximum).
    pub percentile: f64,
    /// Samples strictly beyond the reported value's rank.
    pub beyond: usize,
    /// Total samples.
    pub samples: usize,
}

fn sorted(xs: &[f64]) -> Vec<f64> {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Median (mean of the two middle samples for even counts); 0 when empty.
pub fn median(xs: &[f64]) -> f64 {
    let v = sorted(xs);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => 0.5 * (v[n / 2 - 1] + v[n / 2]),
    }
}

/// Arithmetic mean; 0 when empty.
pub fn mean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        0.0
    } else {
        xs.iter().sum::<f64>() / xs.len() as f64
    }
}

/// Nearest-rank percentile: the smallest sample with at least `p`% of the
/// samples at or below it. Returns `(value, rank)` with a 1-based rank.
fn nearest_rank(v: &[f64], p: f64) -> (f64, usize) {
    let rank = ((p / 100.0) * v.len() as f64).ceil().max(1.0) as usize;
    let rank = rank.min(v.len());
    (v[rank - 1], rank)
}

/// The highest percentile of [`TAIL_LADDER`] that has at least
/// [`TAIL_MIN_BEYOND`] samples beyond it. With fewer than 20 samples no
/// ladder step qualifies, and the tail is the maximum (percentile 100,
/// nothing beyond). `None` when there are no samples.
pub fn tail(xs: &[f64]) -> Option<Tail> {
    let v = sorted(xs);
    let n = v.len();
    if n == 0 {
        return None;
    }
    for p in TAIL_LADDER {
        let (value, rank) = nearest_rank(&v, p);
        if n - rank >= TAIL_MIN_BEYOND {
            return Some(Tail { value, percentile: p, beyond: n - rank, samples: n });
        }
    }
    Some(Tail { value: v[n - 1], percentile: 100.0, beyond: 0, samples: n })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: usize) -> Vec<f64> {
        // Reversed so the functions must sort.
        (1..=n).rev().map(|i| i as f64).collect()
    }

    #[test]
    fn tail_keeps_ten_samples_beyond() {
        // 400 samples: p97.5 sits at rank 390 with exactly 10 beyond; p99
        // would leave only 4.
        let t = tail(&ramp(400)).unwrap();
        assert_eq!((t.percentile, t.value, t.beyond, t.samples), (97.5, 390.0, 10, 400));
        // 1000 samples: p99 has 10 beyond, p99.5 only 5.
        let t = tail(&ramp(1000)).unwrap();
        assert_eq!((t.percentile, t.value, t.beyond), (99.0, 990.0, 10));
        // Every ladder answer honours the rule at every size.
        for n in 20..600 {
            let t = tail(&ramp(n)).unwrap();
            assert!(t.beyond >= TAIL_MIN_BEYOND, "n={n}: {t:?}");
            let higher = TAIL_LADDER.iter().filter(|&&p| p > t.percentile);
            for &p in higher {
                let rank = ((p / 100.0) * n as f64).ceil() as usize;
                assert!(n - rank < TAIL_MIN_BEYOND, "n={n}: p{p} also qualifies");
            }
        }
    }

    #[test]
    fn tail_falls_back_to_the_maximum_below_twenty_samples() {
        let t = tail(&ramp(19)).unwrap();
        assert_eq!((t.percentile, t.value, t.beyond), (100.0, 19.0, 0));
        let t = tail(&ramp(20)).unwrap();
        assert_eq!((t.percentile, t.value, t.beyond), (50.0, 10.0, 10));
        assert!(tail(&[]).is_none());
    }

    #[test]
    fn median_and_mean() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
        assert_eq!(mean(&[1.0, 2.0, 6.0]), 3.0);
    }
}
