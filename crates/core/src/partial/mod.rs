//! Partializable aggregate states: the one mergeable state behind every
//! aggregate — SUM, COUNT, MIN/MAX, VARIANCE, FIRST/LAST, `GROUP BY
//! time(..)` buckets, `rate()`/`delta()`, the sketch-based `p50/p95/p99`
//! quantiles and the marginals of the paired aggregates — plus the
//! process-global partial cache keyed by page checksums.
//!
//! The paper's §IV closed-form polynomials already compute page-local
//! moments without decoding — exactly a partial aggregate. A
//! [`PartialState`] holds those moments (count, Σ/Σ² typed by the
//! source, min/max, first/last) with the first/last *timestamps* (for
//! `rate()`/`delta()`) and an optional [`TDigest`] quantile sketch, and
//! merges **in time order** (the same discipline the driver already
//! follows: sealed pages in storage order, hot chunk last). The SIMD
//! folds that fill it from decoded columns are its methods.
//!
//! Merge algebra (property-tested in `tests/partial_properties.rs`):
//!
//! * all exact fields are associative; sums/counts/min/max are also
//!   commutative, FIRST/LAST and the timestamp bounds are
//!   order-sensitive (time-ordered merging keeps them exact);
//! * the empty partial is a two-sided identity, bit for bit (an empty
//!   digest merge never re-clusters);
//! * t-digest quantiles are *approximate*: for compression `δ =`
//!   [`TDIGEST_COMPRESSION`], the rank error of `quantile(q)` against
//!   the exact sorted ranks stays within [`TDigest::rank_error_bound`]
//!   (`3·n/δ + 2`), regardless of how the input was split into merged
//!   partials.
//!
//! The serialized form ([`PartialState::to_bytes`]) is the wire format
//! future scatter-gather shard layers ship between sub-pipelines; it is
//! fuzzed (hostile centroid counts, non-finite means, weight lies) by
//! the `partial` target of `cargo run -p xtask -- fuzz`.

use etsqp_encoding::ordered_i64_to_f64;
use etsqp_simd::agg::{masked_min_max_i64, masked_sum_i64, min_max_i64, sum_i64};
use etsqp_simd::filter::{count_mask, new_mask, range_mask_i64};

use crate::expr::{AggFunc, ValueType, NON_NAN_IMAGES};
use crate::{Error, Result};

mod cache;
mod tdigest;

pub use cache::{CacheKey, PartialCache};
use tdigest::TDIGEST_MAX_SERIALIZED;
pub use tdigest::{Centroid, TDigest, TDIGEST_COMPRESSION};

/// Σ v and Σ v² of the folded values, in the source's own arithmetic.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Sums {
    /// Integer sources: Σ is exact in `i128`; Σ² saturates at the
    /// `i128` limits (Σx² of a few dozen values near `i64::MAX` exceeds
    /// 2¹²⁷, and VARIANCE is finalized in `f64`, where magnitudes that
    /// extreme have long lost integer precision anyway).
    Int {
        /// Σ v.
        sum: i128,
        /// Σ v² (saturating).
        sum_sq: i128,
    },
    /// Float sources: a time-ordered `f64` fold; NaN propagates.
    Float {
        /// Σ v.
        sum: f64,
        /// Σ v².
        sum_sq: f64,
    },
}

impl Default for Sums {
    fn default() -> Self {
        Sums::Int { sum: 0, sum_sq: 0 }
    }
}

/// The mergeable aggregate state: the exact moments plus the timestamp
/// bounds (`rate`/`delta`) and the optional quantile sketch. On a float
/// source, min/max/first/last hold ordered-i64 images (NaN never enters
/// min/max). [`PartialState::merge`] must be called **in time order**.
#[derive(Debug, Clone, Default)]
pub struct PartialState {
    /// Number of folded values.
    pub count: u64,
    /// Σ/Σ², typed by the source.
    pub sums: Sums,
    /// Minimum folded value, if any.
    pub min: Option<i64>,
    /// Maximum folded value, if any.
    pub max: Option<i64>,
    /// First folded value in time order (FIRST_VALUE).
    pub first: Option<i64>,
    /// Last folded value in time order (LAST_VALUE).
    pub last: Option<i64>,
    /// Timestamp of the first qualifying tuple (set on tuple-level
    /// paths; fused whole-page paths leave it `None` — only
    /// `rate()`/`delta()` read it, and those never fuse).
    pub first_ts: Option<i64>,
    /// Timestamp of the last qualifying tuple.
    pub last_ts: Option<i64>,
    /// Quantile sketch; allocated only when the aggregate needs it.
    pub digest: Option<TDigest>,
}

impl PartialState {
    /// An empty partial shaped for `func` over a source of type `ty`:
    /// the digest is allocated only for quantile aggregates, and Σ/Σ²
    /// take the source's arithmetic.
    pub fn new(func: AggFunc, ty: ValueType) -> Self {
        PartialState {
            sums: match ty {
                ValueType::I64 => Sums::default(),
                ValueType::F64 => Sums::Float {
                    sum: 0.0,
                    sum_sq: 0.0,
                },
            },
            digest: func.needs_digest().then(TDigest::new),
            ..PartialState::default()
        }
    }

    /// Folds one value into every exact field. On a float source `v` is
    /// an ordered-i64 image: NaN counts and propagates through Σ/Σ² but
    /// never enters min/max.
    pub fn push(&mut self, v: i64) {
        let nan = match self.sums {
            Sums::Int { sum, sum_sq } => {
                self.sums = Sums::Int {
                    sum: sum.saturating_add(i128::from(v)),
                    sum_sq: sum_sq.saturating_add(i128::from(v) * i128::from(v)),
                };
                false
            }
            Sums::Float { sum, sum_sq } => {
                let f = ordered_i64_to_f64(v);
                self.sums = Sums::Float {
                    sum: sum + f,
                    sum_sq: sum_sq + f * f,
                };
                f.is_nan()
            }
        };
        if !nan {
            self.widen(v, v);
        }
        self.count = self.count.saturating_add(1);
        self.ends(v, v);
    }

    /// Folds one qualifying tuple, tracking timestamps and the sketch.
    pub fn push_tv(&mut self, t: i64, v: i64) {
        self.push(v);
        self.first_ts.get_or_insert(t);
        self.last_ts = Some(t);
        if let Some(d) = &mut self.digest {
            d.push(v as f64);
        }
    }

    /// Merges `other` after `self` in time order. Exact fields combine
    /// exactly; an empty `other` is a bit-for-bit no-op, and an empty
    /// `self` takes `other`'s source type.
    pub fn merge(&mut self, other: &PartialState) {
        if other.count == 0 {
            return;
        }
        self.sums = match (self.sums, other.sums) {
            (Sums::Int { sum, sum_sq }, Sums::Int { sum: s, sum_sq: q }) => Sums::Int {
                // Σx over 2⁶⁴ i64 values stays inside i128; saturating
                // keeps the theoretical limit panic-free.
                sum: sum.saturating_add(s),
                sum_sq: sum_sq.saturating_add(q),
            },
            (Sums::Float { sum, sum_sq }, Sums::Float { sum: s, sum_sq: q }) => Sums::Float {
                sum: sum + s,
                sum_sq: sum_sq + q,
            },
            (mine, theirs) => {
                if self.count == 0 {
                    theirs
                } else {
                    mine
                }
            }
        };
        self.count = self.count.saturating_add(other.count);
        let pick = |a: Option<i64>, b: Option<i64>, f: fn(i64, i64) -> i64| match (a, b) {
            (Some(a), Some(b)) => Some(f(a, b)),
            (a, b) => a.or(b),
        };
        self.min = pick(self.min, other.min, i64::min);
        self.max = pick(self.max, other.max, i64::max);
        self.first = self.first.or(other.first);
        self.last = other.last.or(self.last);
        if self.first_ts.is_none() {
            self.first_ts = other.first_ts;
        }
        if other.last_ts.is_some() {
            self.last_ts = other.last_ts;
        }
        match (&mut self.digest, &other.digest) {
            (Some(a), Some(b)) => a.merge(b),
            (d @ None, Some(b)) => *d = Some(b.clone()),
            _ => {}
        }
    }

    /// Σ as `f64` (for AVG, VARIANCE and the pair moments).
    pub fn sum_f64(&self) -> f64 {
        match self.sums {
            Sums::Int { sum, .. } => sum as f64,
            Sums::Float { sum, .. } => sum,
        }
    }

    /// Population variance; `None` when nothing was folded. The pair
    /// aggregates' correlation reads its marginals through this too.
    pub fn variance(&self) -> Option<f64> {
        if self.count == 0 {
            return None;
        }
        let n = self.count as f64;
        let sum_sq = match self.sums {
            Sums::Int { sum_sq, .. } => sum_sq as f64,
            Sums::Float { sum_sq, .. } => sum_sq,
        };
        let mean = self.sum_f64() / n;
        // Population variance is non-negative by definition; the clamp
        // absorbs f64 rounding and, at extreme magnitudes, the Σx²
        // saturation which can otherwise push the estimate below zero.
        Some((sum_sq / n - mean * mean).max(0.0))
    }

    /// Widens min/max to cover `[lo, hi]`.
    fn widen(&mut self, lo: i64, hi: i64) {
        self.min = Some(self.min.map_or(lo, |m| m.min(lo)));
        self.max = Some(self.max.map_or(hi, |m| m.max(hi)));
    }

    /// Records `head`/`tail` as the first/last values of a time-ordered
    /// run folded after everything already in the state.
    fn ends(&mut self, head: i64, tail: i64) {
        self.first.get_or_insert(head);
        self.last = Some(tail);
    }

    /// Adds an integer source's Σ (and Σ²). Float sources fold Σ/Σ² per
    /// value ([`PartialState::fold_run`]), so on them this is a no-op.
    fn add_int_sums(&mut self, s: i128, sq: i128) {
        if let Sums::Int { sum, sum_sq } = &mut self.sums {
            *sum = sum.saturating_add(s);
            *sum_sq = sum_sq.saturating_add(sq);
        }
    }

    /// Folds one run of decoded values under the optional value range —
    /// the `Filter → PartialAgg` tail of the decode pipeline, computing
    /// only what `func` reads (Σx² only for VARIANCE; MIN/MAX skip Σ).
    /// Integer runs and float COUNT/MIN/MAX/FIRST/LAST use the SIMD
    /// kernels on the i64 column (float MIN/MAX masked to non-NaN
    /// images); float Σ/Σ² fold value by value in `f64`.
    pub(crate) fn fold_run(&mut self, slice: &[i64], mut value: Option<(i64, i64)>, func: AggFunc) {
        if let Sums::Float { .. } = self.sums {
            match func {
                AggFunc::Sum | AggFunc::Avg | AggFunc::Variance => {
                    for &v in slice {
                        if value.is_none_or(|(lo, hi)| lo <= v && v <= hi) {
                            self.push(v);
                        }
                    }
                    return;
                }
                // A float value range is already clamped to non-NaN images.
                AggFunc::Min | AggFunc::Max => value = value.or(Some(NON_NAN_IMAGES)),
                _ => {}
            }
        }
        match value {
            None => self.fold_slice(slice, func),
            Some((lo, hi)) => {
                let mut mask = new_mask(slice.len());
                range_mask_i64(slice, lo, hi, &mut mask);
                self.fold_masked(slice, &mask, func);
            }
        }
    }

    /// Folds a dense time-ordered run with the SIMD kernels.
    pub(crate) fn fold_slice(&mut self, slice: &[i64], func: AggFunc) {
        let (Some(&head), Some(&tail)) = (slice.first(), slice.last()) else {
            return;
        };
        self.count = self.count.saturating_add(slice.len() as u64);
        match func {
            AggFunc::Sum | AggFunc::Avg | AggFunc::Count => self.add_int_sums(sum_i64(slice), 0),
            AggFunc::Min | AggFunc::Max => {
                if let Some((lo, hi)) = min_max_i64(slice) {
                    self.widen(lo, hi);
                }
            }
            AggFunc::First | AggFunc::Last => self.ends(head, tail),
            // VARIANCE reads Σx². Partial-only aggregates take the
            // tuple-level path (they need timestamps and/or a sketch);
            // fold every exact field anyway so a planner slip degrades
            // to a sound superset, never silence.
            AggFunc::Variance
            | AggFunc::P50
            | AggFunc::P95
            | AggFunc::P99
            | AggFunc::Rate
            | AggFunc::Delta => {
                let sq = slice.iter().fold(0i128, |acc, &v| {
                    acc.saturating_add(i128::from(v) * i128::from(v))
                });
                self.add_int_sums(sum_i64(slice), sq);
                if let Some((lo, hi)) = min_max_i64(slice) {
                    self.widen(lo, hi);
                }
                self.ends(head, tail);
            }
        }
    }

    /// Mask-filtered variant of [`PartialState::fold_slice`].
    fn fold_masked(&mut self, slice: &[i64], mask: &[u64], func: AggFunc) {
        let selected = || {
            slice
                .iter()
                .enumerate()
                .filter(|(i, _)| mask[i / 64] & (1u64 << (i % 64)) != 0)
                .map(|(_, &v)| v)
        };
        let ends = || {
            let mut it = selected();
            let head = it.next()?;
            Some((head, it.next_back().unwrap_or(head)))
        };
        match func {
            AggFunc::Sum | AggFunc::Avg | AggFunc::Count => {
                let (s, c) = masked_sum_i64(slice, mask);
                self.add_int_sums(s, 0);
                self.count = self.count.saturating_add(c);
            }
            AggFunc::Min | AggFunc::Max => {
                if let Some((lo, hi)) = masked_min_max_i64(slice, mask) {
                    self.widen(lo, hi);
                }
                self.count = self.count.saturating_add(count_mask(mask, slice.len()));
            }
            AggFunc::First | AggFunc::Last => {
                if let Some((head, tail)) = ends() {
                    self.ends(head, tail);
                }
                self.count = self.count.saturating_add(count_mask(mask, slice.len()));
            }
            // See fold_slice: every exact field.
            AggFunc::Variance
            | AggFunc::P50
            | AggFunc::P95
            | AggFunc::P99
            | AggFunc::Rate
            | AggFunc::Delta => {
                let (s, c) = masked_sum_i64(slice, mask);
                let sq = selected().fold(0i128, |acc, v| {
                    acc.saturating_add(i128::from(v) * i128::from(v))
                });
                self.add_int_sums(s, sq);
                self.count = self.count.saturating_add(c);
                if let Some((lo, hi)) = masked_min_max_i64(slice, mask) {
                    self.widen(lo, hi);
                }
                if let Some((head, tail)) = ends() {
                    self.ends(head, tail);
                }
            }
        }
    }

    /// Serialized wire form:
    /// `[sum: i128][sum_sq: i128][count: u64][6 × option(i64)]`
    /// `[option(digest bytes)]`, options as a `0/1` tag byte, then — on
    /// float sources only — `[1][Σ: f64][Σ²: f64]` (their `i128` sums
    /// are written as zeros). This is the format sub-pipelines will ship
    /// partials in; it round-trips through [`PartialState::from_bytes`].
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(96);
        let (sum, sum_sq) = match self.sums {
            Sums::Int { sum, sum_sq } => (sum, sum_sq),
            Sums::Float { .. } => (0, 0),
        };
        out.extend_from_slice(&sum.to_le_bytes());
        out.extend_from_slice(&sum_sq.to_le_bytes());
        out.extend_from_slice(&self.count.to_le_bytes());
        let opt = |out: &mut Vec<u8>, v: Option<i64>| match v {
            Some(v) => {
                out.push(1);
                out.extend_from_slice(&v.to_le_bytes());
            }
            None => out.push(0),
        };
        opt(&mut out, self.min);
        opt(&mut out, self.max);
        opt(&mut out, self.first);
        opt(&mut out, self.last);
        opt(&mut out, self.first_ts);
        opt(&mut out, self.last_ts);
        match &self.digest {
            Some(d) => {
                out.push(1);
                out.extend_from_slice(&d.to_bytes());
            }
            None => out.push(0),
        }
        if let Sums::Float { sum, sum_sq } = self.sums {
            out.push(1);
            out.extend_from_slice(&sum.to_le_bytes());
            out.extend_from_slice(&sum_sq.to_le_bytes());
        }
        out
    }

    /// Parses and validates a serialized partial. Structural lies —
    /// bad option tags, inverted min/max, counts that disagree with
    /// presence, a corrupt embedded digest — are typed
    /// [`Error::Decode`]s, never panics.
    pub fn from_bytes(data: &[u8]) -> Result<PartialState> {
        let mut pos = 0usize;
        let take = |pos: &mut usize, n: usize| -> Result<&[u8]> {
            let end = pos
                .checked_add(n)
                .ok_or(Error::Decode("partial: length overflow"))?;
            let s = data
                .get(*pos..end)
                .ok_or(Error::Decode("partial: truncated"))?;
            *pos = end;
            Ok(s)
        };
        let i128_of = |b: &[u8]| -> Result<i128> {
            b.try_into()
                .map(i128::from_le_bytes)
                .map_err(|_| Error::Decode("partial: truncated i128"))
        };
        let sum = i128_of(take(&mut pos, 16)?)?;
        let sum_sq = i128_of(take(&mut pos, 16)?)?;
        let count_b: [u8; 8] = take(&mut pos, 8)?
            .try_into()
            .map_err(|_| Error::Decode("partial: truncated count"))?;
        let count = u64::from_le_bytes(count_b);
        let opt = |pos: &mut usize| -> Result<Option<i64>> {
            let tag = take(pos, 1)?[0];
            match tag {
                0 => Ok(None),
                1 => {
                    let b: [u8; 8] = take(pos, 8)?
                        .try_into()
                        .map_err(|_| Error::Decode("partial: truncated option"))?;
                    Ok(Some(i64::from_le_bytes(b)))
                }
                _ => Err(Error::Decode("partial: bad option tag")),
            }
        };
        let min = opt(&mut pos)?;
        let max = opt(&mut pos)?;
        let first = opt(&mut pos)?;
        let last = opt(&mut pos)?;
        let first_ts = opt(&mut pos)?;
        let last_ts = opt(&mut pos)?;
        let digest = match take(&mut pos, 1)?[0] {
            0 => None,
            1 => {
                // The sketch's length follows from its centroid count; a
                // short or hostile one is the sketch parser's to reject.
                let m = data
                    .get(pos..pos + 4)
                    .and_then(|b| b.try_into().ok())
                    .map_or(0, u32::from_le_bytes) as usize;
                let end = (pos + 4 + m.min(TDIGEST_MAX_SERIALIZED + 1) * 16 + 24).min(data.len());
                let digest = TDigest::from_bytes(data.get(pos..end).unwrap_or_default())?;
                pos = end;
                Some(digest)
            }
            _ => return Err(Error::Decode("partial: bad digest tag")),
        };
        let float = match data.get(pos) {
            None => None,
            Some(1) => {
                let f64_at = |at: usize| {
                    data.get(at..at + 8)?
                        .try_into()
                        .ok()
                        .map(f64::from_le_bytes)
                };
                let (sum, sum_sq) = f64_at(pos + 1)
                    .zip(f64_at(pos + 9))
                    .ok_or(Error::Decode("partial: truncated f64"))?;
                pos = pos.saturating_add(17);
                Some(Sums::Float { sum, sum_sq })
            }
            Some(_) => return Err(Error::Decode("partial: bad float tag")),
        };
        if pos != data.len() {
            return Err(Error::Decode("partial: trailing bytes"));
        }
        if let (Some(lo), Some(hi)) = (min, max) {
            if lo > hi {
                return Err(Error::Decode("partial: inverted min/max"));
            }
        }
        if let (Some(ft), Some(lt)) = (first_ts, last_ts) {
            if ft > lt {
                return Err(Error::Decode("partial: inverted timestamps"));
            }
        }
        if count == 0 && (min.is_some() || first.is_some() || first_ts.is_some()) {
            return Err(Error::Decode("partial: fields present on empty state"));
        }
        let sums = match float {
            None => Sums::Int { sum, sum_sq },
            Some(_) if (sum, sum_sq) != (0, 0) => {
                return Err(Error::Decode("partial: integer sums on a float state"))
            }
            Some(sums) => sums,
        };
        Ok(PartialState {
            count,
            sums,
            min,
            max,
            first,
            last,
            first_ts,
            last_ts,
            digest,
        })
    }

    /// Approximate heap footprint, for the cache's byte accounting.
    pub(crate) fn approx_bytes(&self) -> usize {
        128 + self.digest.as_ref().map_or(0, TDigest::approx_bytes)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn digest_of(vals: &[i64]) -> TDigest {
        let mut d = TDigest::new();
        for &v in vals {
            d.push(v as f64);
        }
        d
    }

    #[test]
    fn tdigest_quantile_within_rank_bound() {
        let vals: Vec<i64> = (0..5000).map(|i| (i * 37) % 4999).collect();
        let d = digest_of(&vals);
        let mut sorted = vals.clone();
        sorted.sort_unstable();
        for q in [0.01, 0.25, 0.5, 0.75, 0.95, 0.99] {
            let est = d.quantile(q);
            let rank = sorted.partition_point(|&v| (v as f64) <= est) as f64;
            let target = q * sorted.len() as f64;
            let bound = TDigest::rank_error_bound(sorted.len() as u64);
            assert!(
                (rank - target).abs() <= bound,
                "q={q}: est={est} rank={rank} target={target} bound={bound}"
            );
        }
    }

    #[test]
    fn tdigest_roundtrip_and_rejects_lies() {
        let d = digest_of(&[5, 1, 9, 3, 3, 7]);
        let bytes = d.to_bytes();
        let back = TDigest::from_bytes(&bytes).unwrap();
        assert_eq!(back.to_bytes(), bytes, "canonical form round-trips");
        assert_eq!(back.count(), 6);
        // Truncation, hostile counts, non-finite means: typed errors.
        assert!(TDigest::from_bytes(&bytes[..bytes.len() - 1]).is_err());
        let mut hostile = bytes.clone();
        hostile[..4].copy_from_slice(&u32::MAX.to_le_bytes());
        assert!(TDigest::from_bytes(&hostile).is_err());
        let mut nan = bytes.clone();
        nan[4..12].copy_from_slice(&f64::NAN.to_le_bytes());
        assert!(TDigest::from_bytes(&nan).is_err());
    }

    #[test]
    fn empty_merge_is_identity() {
        let mut d = digest_of(&[1, 2, 3]);
        let before = d.clone();
        d.merge(&TDigest::new());
        assert_eq!(d, before);
        let mut empty = TDigest::new();
        empty.merge(&before);
        assert_eq!(empty.to_bytes(), before.to_bytes());
    }

    #[test]
    fn partial_state_roundtrip() {
        let mut p = PartialState::new(AggFunc::P95, ValueType::I64);
        for (t, v) in [(10, 4), (20, -1), (30, 9)] {
            p.push_tv(t, v);
        }
        let bytes = p.to_bytes();
        let back = PartialState::from_bytes(&bytes).unwrap();
        assert_eq!(back.count, 3);
        assert_eq!(back.first_ts, Some(10));
        assert_eq!(back.last_ts, Some(30));
        assert_eq!(back.to_bytes(), bytes);
        assert!(PartialState::from_bytes(&bytes[..5]).is_err());
    }

    #[test]
    fn float_partial_appends_its_sums() {
        let mut p = PartialState::new(AggFunc::Sum, ValueType::F64);
        for (t, v) in [(10, 1.5), (20, f64::NAN), (30, -2.25)] {
            p.push_tv(t, etsqp_encoding::f64_to_ordered_i64(v));
        }
        let bytes = p.to_bytes();
        let back = PartialState::from_bytes(&bytes).unwrap();
        assert_eq!(back.to_bytes(), bytes);
        assert_eq!(back.count, 3, "NaN counts");
        assert!(back.sum_f64().is_nan(), "NaN propagates through Σ");
        let (lo, hi) = (back.min.unwrap(), back.max.unwrap());
        assert_eq!(ordered_i64_to_f64(lo), -2.25, "NaN never wins MIN");
        assert_eq!(ordered_i64_to_f64(hi), 1.5, "NaN never wins MAX");
        // The integer wire form is a prefix: the f64 block is appended
        // after zeroed i128 sums, and a float state with non-zero i128
        // sums is a lie.
        let int_form = PartialState {
            sums: Sums::default(),
            ..p
        }
        .to_bytes();
        assert_eq!(bytes[..int_form.len()], int_form[..]);
        let mut lie = bytes.clone();
        lie[0] = 1;
        assert!(PartialState::from_bytes(&lie).is_err());
    }

    #[test]
    fn slice_folds_agree_with_push_and_merge() {
        let vals: Vec<i64> = (0..97).map(|i| i * i - 50).collect();
        let state = |vals: &[i64]| {
            let mut s = PartialState::new(AggFunc::Variance, ValueType::I64);
            s.fold_slice(vals, AggFunc::Variance);
            s
        };
        let mut pushed = PartialState::new(AggFunc::Variance, ValueType::I64);
        vals.iter().for_each(|&v| pushed.push(v));
        let whole = state(&vals);
        assert_eq!(whole.to_bytes(), pushed.to_bytes());
        let mut left = state(&vals[..31]);
        left.merge(&state(&vals[31..]));
        assert_eq!(left.to_bytes(), whole.to_bytes());
        let s = state(&[2, 4, 6, 8]);
        assert_eq!(s.sum_f64() / s.count as f64, 5.0);
        assert_eq!(s.variance(), Some(5.0)); // population variance
        assert_eq!(
            (s.min, s.max, s.first, s.last),
            (Some(2), Some(8), Some(2), Some(8))
        );
    }

    fn hex(bytes: &[u8]) -> String {
        bytes.iter().map(|b| format!("{b:02x}")).collect()
    }

    /// The exact wire bytes, pinned: an integer SUM state (with an
    /// `i64::MAX` value, so Σ needs the `i128` width), a float state
    /// holding a NaN and a `-0.0`, and a P95 state with its digest.
    #[test]
    fn wire_bytes_are_pinned() {
        let mut int = PartialState::new(AggFunc::Sum, ValueType::I64);
        for (t, v) in [(10, 7), (20, -3), (30, i64::MAX), (40, 5)] {
            int.push_tv(t, v);
        }
        assert_eq!(
            hex(&int.to_bytes()),
            "080000000000008000000000000000005400000000000000ffffffffffffff3f\
             040000000000000001fdffffffffffffff01ffffffffffffff7f010700000000\
             000000010500000000000000010a0000000000000001280000000000000000"
        );
        let mut float = PartialState::new(AggFunc::Sum, ValueType::F64);
        for (t, v) in [(10, 1.5), (20, f64::NAN), (30, -2.25), (40, -0.0)] {
            float.push_tv(t, etsqp_encoding::f64_to_ordered_i64(v));
        }
        assert_eq!(
            hex(&float.to_bytes()),
            "0000000000000000000000000000000000000000000000000000000000000000\
             040000000000000001fffffffffffffdbf01000000000000f83f010000000000\
             00f83f01ffffffffffffffff010a000000000000000128000000000000000001\
             000000000000f87f000000000000f87f"
        );
        let mut p95 = PartialState::new(AggFunc::P95, ValueType::I64);
        for (t, v) in [(10, 4), (20, -1), (30, 9), (40, 9), (50, 2)] {
            p95.push_tv(t, v);
        }
        assert_eq!(
            hex(&p95.to_bytes()),
            "17000000000000000000000000000000b7000000000000000000000000000000\
             050000000000000001ffffffffffffffff010900000000000000010400000000\
             000000010200000000000000010a000000000000000132000000000000000105\
             000000000000000000f0bf010000000000000000000000000000400100000000\
             0000000000000000001040010000000000000000000000000022400100000000\
             0000000000000000002240010000000000000005000000000000000000000000\
             00f0bf0000000000002240"
        );
    }
}
