//! Order statistics used by every report: the median, the quartiles and
//! the upper-percentile rule.

/// Percentiles the upper-tail rule may report, highest first.
const UPPER_LADDER: [f64; 5] = [99.0, 95.0, 90.0, 75.0, 50.0];

/// Samples that must lie strictly beyond a reported upper percentile.
pub const MIN_BEYOND: usize = 10;

fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// The median (mean of the two middle values for an even count).
/// Returns 0 for an empty slice.
pub fn median(values: &[f64]) -> f64 {
    let v = sorted(values);
    let n = v.len();
    match n {
        0 => 0.0,
        _ if n % 2 == 1 => v[n / 2],
        _ => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// The three quartile cut points, computed exactly as Python's
/// `statistics.quantiles(values, n=4)` does (the default "exclusive"
/// method), so spreads printed here match the ones an acceptance script
/// computes. Needs at least two values.
pub fn quartiles(values: &[f64]) -> Option<[f64; 3]> {
    let v = sorted(values);
    let ld = v.len();
    if ld < 2 {
        return None;
    }
    let m = ld + 1;
    let mut out = [0.0; 3];
    for (k, slot) in out.iter_mut().enumerate() {
        let i = k + 1;
        let j = (i * m / 4).clamp(1, ld - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        *slot = (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0;
    }
    Some(out)
}

/// Nearest-rank percentile `p` of an ascending slice, with the number of
/// samples strictly beyond it.
fn nearest_rank(sorted: &[f64], p: f64) -> (f64, usize) {
    let n = sorted.len();
    let rank = ((p / 100.0) * n as f64).ceil().max(1.0) as usize;
    let idx = rank.min(n) - 1;
    (sorted[idx], n - idx - 1)
}

/// An upper-tail latency: the highest percentile of [`UPPER_LADDER`] that
/// has at least [`MIN_BEYOND`] samples beyond it, with the sample count.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Upper {
    /// The percentile reported (99 when the sample supports it).
    pub pct: f64,
    /// Its value.
    pub value: f64,
    /// Number of samples.
    pub n: usize,
}

/// Applies the upper-percentile rule. With too few samples for even the
/// median to have ten beyond it, the maximum is reported as percentile
/// 100 so that a short run is visible rather than silently flattered.
pub fn upper(values: &[f64]) -> Upper {
    let v = sorted(values);
    let n = v.len();
    if n == 0 {
        return Upper {
            pct: 0.0,
            value: 0.0,
            n,
        };
    }
    for &p in &UPPER_LADDER {
        let (value, beyond) = nearest_rank(&v, p);
        if beyond >= MIN_BEYOND {
            return Upper { pct: p, value, n };
        }
    }
    Upper {
        pct: 100.0,
        value: v[n - 1],
        n,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_odd_even_empty() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..=10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), Some([2.75, 5.5, 8.25]));
        // statistics.quantiles([5, 1, 4, 2], n=4) == [1.25, 3.0, 4.75]
        assert_eq!(quartiles(&[5.0, 1.0, 4.0, 2.0]), Some([1.25, 3.0, 4.75]));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), Some([0.75, 1.5, 2.25]));
        assert_eq!(quartiles(&[1.0]), None);
    }

    #[test]
    fn upper_reports_p99_only_with_ten_samples_beyond() {
        // 1000 samples 1..=1000: p99 is the 990th value, 10 beyond it.
        let v: Vec<f64> = (1..=1000).map(f64::from).collect();
        let u = upper(&v);
        assert_eq!((u.pct, u.value, u.n), (99.0, 990.0, 1000));

        // 999 samples: p99 would leave 9 beyond, so p95 is reported.
        let u = upper(&v[..999]);
        assert_eq!(u.pct, 95.0);
        assert_eq!(u.value, 950.0);

        // 200 samples: p95 leaves exactly 10 beyond.
        let u = upper(&v[..200]);
        assert_eq!((u.pct, u.value), (95.0, 190.0));

        // 25 samples: p75 leaves 6, p50 leaves 12.
        let u = upper(&v[..25]);
        assert_eq!((u.pct, u.value), (50.0, 13.0));

        // Too few samples for any rung: the maximum, flagged as p100.
        let u = upper(&v[..5]);
        assert_eq!((u.pct, u.value, u.n), (100.0, 5.0, 5));
    }

    #[test]
    fn upper_ignores_input_order() {
        let mut v: Vec<f64> = (1..=1000).map(f64::from).collect();
        v.reverse();
        assert_eq!(upper(&v).value, 990.0);
    }
}
