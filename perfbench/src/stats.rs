//! Order statistics shared by every workload.
//!
//! Percentiles are nearest-rank over an ascending sample: the p-th
//! percentile of `n` samples is the `ceil(p·n)`-th smallest. A failed
//! request is recorded as `f64::INFINITY`, so it counts as over any
//! latency limit and pushes the upper percentiles up.

/// Sorts a sample ascending (`total_cmp`, so infinities sort last).
pub fn sorted(mut v: Vec<f64>) -> Vec<f64> {
    v.sort_by(f64::total_cmp);
    v
}

/// Nearest-rank percentile, `p` in `[0, 1]`, of an ascending sample;
/// `NaN` for an empty one.
pub fn nearest_rank(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return f64::NAN;
    }
    let rank = (p * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Nearest-rank median of an ascending sample.
pub fn median(sorted: &[f64]) -> f64 {
    nearest_rank(sorted, 0.5)
}

/// The tail of a sample: the highest percentile that still has at least
/// ten samples beyond it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tail {
    pub value: f64,
    /// The nearest-rank percentile `value` sits at, in percent.
    pub percentile: f64,
    /// Samples strictly beyond `value`'s rank.
    pub beyond: usize,
}

/// Samples beyond the tail, by the rule above.
pub const TAIL_BEYOND: usize = 10;

/// The tail of an ascending sample. With `n ≥ 2·10 + 2` samples it is the
/// `(n − 10)`-th smallest (exactly ten beyond it, and above the median).
/// A smaller sample has no such percentile above its median; its tail is
/// then the maximum and `beyond` reports 0.
pub fn tail(sorted: &[f64]) -> Tail {
    let n = sorted.len();
    if n == 0 {
        return Tail {
            value: f64::NAN,
            percentile: f64::NAN,
            beyond: 0,
        };
    }
    let idx = if n > 2 * TAIL_BEYOND + 1 {
        n - TAIL_BEYOND - 1
    } else {
        n - 1
    };
    Tail {
        value: sorted[idx],
        percentile: 100.0 * (idx + 1) as f64 / n as f64,
        beyond: n - idx - 1,
    }
}

/// The median, over `⌊n / window⌋` consecutive near-equal windows of `v`
/// (in order), of each window's p99 — a p99 that a burst confined to a few
/// windows cannot move. One window when `v` is shorter than two.
pub fn windowed_p99(v: &[f64], window: usize) -> f64 {
    let k = (v.len() / window).max(1);
    let p99s: Vec<f64> = (0..k)
        .map(|i| {
            nearest_rank(
                &sorted(v[i * v.len() / k..(i + 1) * v.len() / k].to_vec()),
                0.99,
            )
        })
        .collect();
    median(&sorted(p99s))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: usize) -> Vec<f64> {
        (1..=n).map(|i| i as f64).collect()
    }

    #[test]
    fn nearest_rank_picks_the_ceiling_rank() {
        let s = ramp(10);
        assert_eq!(nearest_rank(&s, 0.5), 5.0);
        assert_eq!(nearest_rank(&s, 0.99), 10.0);
        assert_eq!(nearest_rank(&s, 0.0), 1.0);
        assert_eq!(nearest_rank(&ramp(200), 0.99), 198.0);
        assert!(nearest_rank(&[], 0.5).is_nan());
    }

    #[test]
    fn failures_sort_last_and_lift_the_tail() {
        let mut v = ramp(99);
        v.push(f64::INFINITY);
        let s = sorted(v);
        assert_eq!(nearest_rank(&s, 0.99), 99.0);
        assert_eq!(nearest_rank(&s, 1.0), f64::INFINITY);
    }

    #[test]
    fn windowed_p99_ignores_a_burst_in_one_window() {
        let mut v: Vec<f64> = (0..5000).map(|i| (i % 100) as f64).collect();
        assert_eq!(windowed_p99(&v, 1000), 98.0);
        for x in &mut v[1000..1100] {
            *x = 1e6;
        }
        assert_eq!(windowed_p99(&v, 1000), 98.0);
        assert_eq!(nearest_rank(&sorted(v.clone()), 0.99), 1e6);
        // Shorter than two windows: the plain p99.
        assert_eq!(
            windowed_p99(&v[..1999], 1000),
            nearest_rank(&sorted(v[..1999].to_vec()), 0.99)
        );
    }

    #[test]
    fn tail_keeps_exactly_ten_samples_beyond() {
        for n in [22usize, 33, 100, 1000] {
            let s = ramp(n);
            let t = tail(&s);
            assert_eq!(t.beyond, TAIL_BEYOND, "n = {n}");
            assert_eq!(s.iter().filter(|&&x| x > t.value).count(), TAIL_BEYOND);
            assert_eq!(t.value, (n - TAIL_BEYOND) as f64);
            assert!(t.value > median(&s), "tail above the median at n = {n}");
        }
        // 33 epochs: the 23rd smallest, the 69.7th percentile.
        let t = tail(&ramp(33));
        assert!((t.percentile - 69.69).abs() < 0.01);
        // 1000 requests: the 99th percentile.
        assert_eq!(tail(&ramp(1000)).percentile, 99.0);
    }

    #[test]
    fn tail_of_a_small_sample_is_its_maximum() {
        for n in [1usize, 3, 21] {
            let t = tail(&ramp(n));
            assert_eq!(t.value, n as f64);
            assert_eq!(t.beyond, 0);
            assert_eq!(t.percentile, 100.0);
        }
        assert!(tail(&[]).value.is_nan());
    }
}
