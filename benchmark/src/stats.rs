//! Order statistics shared by the runner and `compare`.

/// Percentiles a tail metric may report, lowest first.
pub const TAIL_CANDIDATES: [f64; 6] = [75.0, 80.0, 90.0, 95.0, 99.0, 99.9];

/// Samples that must lie beyond a reported tail percentile.
pub const TAIL_MIN_BEYOND: usize = 10;

/// Fewest samples with a tail percentile: p75 of 40 has ten beyond it.
pub const MIN_TAIL_SAMPLES: usize = 40;

/// The highest candidate percentile with at least [`TAIL_MIN_BEYOND`]
/// of `samples` beyond it (nearest-rank), or `None` when even the
/// lowest candidate has too few.
pub fn tail_percentile(samples: usize) -> Option<f64> {
    TAIL_CANDIDATES
        .iter()
        .rev()
        .copied()
        .find(|&p| samples.saturating_sub(nearest_rank(p, samples)) >= TAIL_MIN_BEYOND)
}

/// 1-based nearest rank of percentile `p` among `n` samples.
fn nearest_rank(p: f64, n: usize) -> usize {
    ((p * n as f64 / 100.0).ceil() as usize).clamp(1, n.max(1))
}

/// Nearest-rank percentile `p` of `values` (need not be sorted).
///
/// # Panics
///
/// Panics if `values` is empty.
pub fn percentile(values: &[f64], p: f64) -> f64 {
    assert!(!values.is_empty(), "percentile of nothing");
    let sorted = sorted(values);
    sorted[nearest_rank(p, sorted.len()) - 1]
}

/// The median (mean of the two middle values for an even count).
///
/// # Panics
///
/// Panics if `values` is empty.
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of nothing");
    let s = sorted(values);
    let mid = s.len() / 2;
    if s.len() % 2 == 1 {
        s[mid]
    } else {
        (s[mid - 1] + s[mid]) / 2.0
    }
}

/// First quartile, median and third quartile, computed exactly as
/// Python's `statistics.quantiles(values, n=4)` (its default
/// "exclusive" method), so spreads here match the ones the benchmark's
/// acceptance check computes.
///
/// # Panics
///
/// Panics if `values` is empty.
pub fn quartiles(values: &[f64]) -> [f64; 3] {
    assert!(!values.is_empty(), "quartiles of nothing");
    let s = sorted(values);
    let ld = s.len();
    if ld == 1 {
        return [s[0]; 3];
    }
    let m = ld + 1;
    let mut out = [0.0; 3];
    for (k, slot) in out.iter_mut().enumerate() {
        let i = k + 1;
        let j = (i * m / 4).clamp(1, ld - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        *slot = (s[j - 1] * (4.0 - delta) + s[j] * delta) / 4.0;
    }
    out
}

/// Distance between the quartiles.
pub fn iqr(values: &[f64]) -> f64 {
    let [q1, _, q3] = quartiles(values);
    q3 - q1
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
    fn tail_percentile_keeps_ten_samples_beyond() {
        // Too few samples for any candidate.
        assert_eq!(tail_percentile(0), None);
        assert_eq!(tail_percentile(MIN_TAIL_SAMPLES - 1), None);
        // 40 samples: rank 30 at p75 leaves exactly 10 beyond.
        assert_eq!(tail_percentile(MIN_TAIL_SAMPLES), Some(75.0));
        assert_eq!(tail_percentile(50), Some(80.0));
        assert_eq!(tail_percentile(99), Some(80.0));
        assert_eq!(tail_percentile(100), Some(90.0));
        assert_eq!(tail_percentile(199), Some(90.0));
        assert_eq!(tail_percentile(200), Some(95.0));
        assert_eq!(tail_percentile(448), Some(95.0));
        assert_eq!(tail_percentile(999), Some(95.0));
        assert_eq!(tail_percentile(1000), Some(99.0));
        assert_eq!(tail_percentile(10_000), Some(99.9));
        // Whatever is chosen really has ten samples beyond it.
        for n in 40..3000 {
            let p = tail_percentile(n).unwrap();
            assert!(n - nearest_rank(p, n) >= TAIL_MIN_BEYOND, "n={n} p={p}");
        }
    }

    #[test]
    fn nearest_rank_percentiles() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0), 50.0);
        assert_eq!(percentile(&v, 90.0), 90.0);
        assert_eq!(percentile(&v, 99.9), 100.0);
        assert_eq!(percentile(&[7.0], 95.0), 7.0);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), [2.75, 5.5, 8.25]);
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), [1.0, 2.0, 3.0]);
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), [0.75, 1.5, 2.25]);
        assert_eq!(iqr(&v), 5.5);
        assert_eq!(median(&v), 5.5);
        assert_eq!(median(&[4.0, 1.0, 9.0]), 4.0);
    }
}
