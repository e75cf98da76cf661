//! Valid-value aggregation kernels (paper Definition 2, `f(e, mask)`),
//! with the overflow behaviour of §VI-C: SIMD lanes accumulate in 64 bits
//! with sign-rule overflow detection, and overflowing blocks are
//! recomputed with a wider (`i128`) quantity, so every result is exact.
//! The mergeable state these kernels fill lives with the query engine
//! (`etsqp_core::partial::PartialState`).

use crate::backend::dispatch;

/// Exact sum over all values. Never overflows (accumulates into `i128`).
///
/// ```
/// assert_eq!(etsqp_simd::agg::sum_i64(&[i64::MAX, i64::MAX]),
///            2 * i64::MAX as i128);
/// ```
pub fn sum_i64(vals: &[i64]) -> i128 {
    dispatch!(sum_i64(vals))
}

/// Exact sum and count over mask-selected values.
pub fn masked_sum_i64(vals: &[i64], mask: &[u64]) -> (i128, u64) {
    assert!(mask.len() * 64 >= vals.len(), "mask too small");
    dispatch!(masked_sum_i64(vals, mask))
}

/// Minimum and maximum over all values; `None` when empty.
pub fn min_max_i64(vals: &[i64]) -> Option<(i64, i64)> {
    dispatch!(min_max_i64(vals))
}

/// Minimum and maximum over mask-selected values; `None` when the mask
/// selects nothing.
pub fn masked_min_max_i64(vals: &[i64], mask: &[u64]) -> Option<(i64, i64)> {
    assert!(mask.len() * 64 >= vals.len(), "mask too small");
    dispatch!(masked_min_max_i64(vals, mask))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::filter::{fill_mask, new_mask};

    #[test]
    fn sum_matches_naive() {
        let vals: Vec<i64> = (-500..500).map(|i| i * 7919).collect();
        assert_eq!(sum_i64(&vals), vals.iter().map(|&v| v as i128).sum());
    }

    #[test]
    fn sum_survives_extreme_values() {
        // Values that overflow i64 lane accumulation immediately.
        let vals = vec![
            i64::MAX,
            i64::MAX,
            i64::MIN,
            i64::MAX,
            1,
            i64::MAX,
            i64::MAX,
            i64::MAX,
        ];
        let expect: i128 = vals.iter().map(|&v| v as i128).sum();
        assert_eq!(sum_i64(&vals), expect);
    }

    #[test]
    fn masked_sum_respects_mask() {
        let vals: Vec<i64> = (0..130).collect();
        let mut mask = new_mask(vals.len());
        fill_mask(&mut mask, vals.len());
        let (s, c) = masked_sum_i64(&vals, &mask);
        assert_eq!(c, 130);
        assert_eq!(s, (0..130).sum::<i128>());
        // Sparse mask: every 13th element.
        mask.iter_mut().for_each(|w| *w = 0);
        for i in (0..130).step_by(13) {
            mask[i / 64] |= 1 << (i % 64);
        }
        let (s, c) = masked_sum_i64(&vals, &mask);
        assert_eq!(c, 10);
        assert_eq!(s, (0..130).step_by(13).sum::<usize>() as i128);
    }

    #[test]
    fn masked_sum_extreme_values() {
        let vals = vec![i64::MAX; 64];
        let mut mask = new_mask(64);
        fill_mask(&mut mask, 64);
        let (s, c) = masked_sum_i64(&vals, &mask);
        assert_eq!(c, 64);
        assert_eq!(s, i64::MAX as i128 * 64);
    }

    #[test]
    fn min_max_basics() {
        assert_eq!(min_max_i64(&[]), None);
        assert_eq!(min_max_i64(&[3]), Some((3, 3)));
        let vals: Vec<i64> = vec![5, -2, 9, 0, 7, -8, 3, 3, 1];
        assert_eq!(min_max_i64(&vals), Some((-8, 9)));
    }
}
