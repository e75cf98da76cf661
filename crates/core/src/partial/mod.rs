//! Partializable aggregate states: the mergeable per-page/per-bucket
//! partials behind `GROUP BY time(..)`, `rate()`/`delta()` and the
//! sketch-based `p50/p95/p99` quantiles, plus the process-global
//! partial cache keyed by page checksums.
//!
//! The paper's §IV closed-form polynomials already compute page-local
//! moments without decoding — exactly a partial aggregate. This module
//! makes that notion explicit: a [`PartialState`] wraps the exact
//! moments ([`AggState`]) with the first/last *timestamps* (for
//! `rate()`/`delta()`) and an optional [`TDigest`] quantile sketch, and
//! merges **in time order** (the same discipline the driver already
//! follows: sealed pages in storage order, hot chunk last).
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

use std::collections::HashMap;
use std::collections::VecDeque;
use std::sync::{Mutex, OnceLock};

use etsqp_encoding::ordered_i64_to_f64;
use etsqp_simd::agg::AggState;
use etsqp_storage::page::Page;

use crate::expr::{AggFunc, ValueType};
use crate::{Error, Result};

mod tdigest;

use tdigest::TDIGEST_MAX_SERIALIZED;
pub use tdigest::{Centroid, TDigest, TDIGEST_COMPRESSION};

/// Σ and Σ² of a float source's values, accumulated in `f64`.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct FloatSums {
    /// Σ v.
    pub sum: f64,
    /// Σ v².
    pub sum_sq: f64,
}

/// A mergeable partial aggregate state: the exact moments plus the
/// timestamp bounds (`rate`/`delta`) and the optional quantile sketch.
/// [`PartialState::merge`] must be called **in time order** — the same
/// contract [`AggState::merge`] already documents for FIRST/LAST.
#[derive(Debug, Clone, Default)]
pub struct PartialState {
    /// Exact first-order/second-order moments, min/max, first/last. On
    /// a float source, min/max/first/last hold ordered-i64 images (NaN
    /// never enters min/max) and `sum`/`sum_sq` stay zero.
    pub agg: AggState,
    /// `Some` exactly on float sources: their Σ/Σ² in `f64`.
    pub float: Option<FloatSums>,
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
    /// An empty partial shaped for `func`: the digest is allocated only
    /// for quantile aggregates.
    pub fn new(func: AggFunc) -> Self {
        PartialState {
            digest: func.needs_digest().then(TDigest::new),
            ..PartialState::default()
        }
    }

    /// An empty partial shaped for `func` over a source of type `ty`.
    pub fn for_source(func: AggFunc, ty: ValueType) -> Self {
        PartialState {
            float: (ty == ValueType::F64).then(FloatSums::default),
            ..PartialState::new(func)
        }
    }

    /// Folds one value of a float source (an ordered-i64 image): NaN
    /// counts and propagates through Σ/Σ² but never enters min/max.
    pub(crate) fn push_ordered(&mut self, v: i64) {
        let f = ordered_i64_to_f64(v);
        let sums = self.float.get_or_insert_with(FloatSums::default);
        sums.sum += f;
        sums.sum_sq += f * f;
        let agg = &mut self.agg;
        agg.count += 1;
        if !f.is_nan() {
            agg.min = Some(agg.min.map_or(v, |m| m.min(v)));
            agg.max = Some(agg.max.map_or(v, |m| m.max(v)));
        }
        agg.first.get_or_insert(v);
        agg.last = Some(v);
    }

    /// Folds one qualifying tuple, tracking timestamps and the sketch.
    pub fn push_tv(&mut self, t: i64, v: i64) {
        if self.float.is_some() {
            self.push_ordered(v);
        } else {
            self.agg.push(v);
        }
        self.first_ts.get_or_insert(t);
        self.last_ts = Some(t);
        if let Some(d) = &mut self.digest {
            d.push(v as f64);
        }
    }

    /// Merges `other` after `self` in time order. Exact fields combine
    /// exactly; an empty `other` is a bit-for-bit no-op.
    pub fn merge(&mut self, other: &PartialState) {
        if other.agg.count == 0 {
            return;
        }
        self.agg.merge(&other.agg);
        if let Some(o) = other.float {
            let sums = self.float.get_or_insert_with(FloatSums::default);
            sums.sum += o.sum;
            sums.sum_sq += o.sum_sq;
        }
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

    /// Serialized wire form:
    /// `[sum: i128][sum_sq: i128][count: u64][6 × option(i64)]`
    /// `[option(digest bytes)]`, options as a `0/1` tag byte, then — on
    /// float sources only — `[1][Σ: f64][Σ²: f64]`. This is
    /// the format sub-pipelines will ship partials in (ROADMAP item 4);
    /// it round-trips through [`PartialState::from_bytes`].
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(96);
        out.extend_from_slice(&self.agg.sum.to_le_bytes());
        out.extend_from_slice(&self.agg.sum_sq.to_le_bytes());
        out.extend_from_slice(&self.agg.count.to_le_bytes());
        let opt = |out: &mut Vec<u8>, v: Option<i64>| match v {
            Some(v) => {
                out.push(1);
                out.extend_from_slice(&v.to_le_bytes());
            }
            None => out.push(0),
        };
        opt(&mut out, self.agg.min);
        opt(&mut out, self.agg.max);
        opt(&mut out, self.agg.first);
        opt(&mut out, self.agg.last);
        opt(&mut out, self.first_ts);
        opt(&mut out, self.last_ts);
        match &self.digest {
            Some(d) => {
                out.push(1);
                out.extend_from_slice(&d.to_bytes());
            }
            None => out.push(0),
        }
        if let Some(f) = self.float {
            out.push(1);
            out.extend_from_slice(&f.sum.to_le_bytes());
            out.extend_from_slice(&f.sum_sq.to_le_bytes());
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
                pos += 17;
                Some(FloatSums { sum, sum_sq })
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
        let mut agg = AggState::new();
        agg.sum = sum;
        agg.sum_sq = sum_sq;
        agg.count = count;
        agg.min = min;
        agg.max = max;
        agg.first = first;
        agg.last = last;
        Ok(PartialState {
            agg,
            float,
            first_ts,
            last_ts,
            digest,
        })
    }

    /// Approximate heap footprint, for the cache's byte accounting.
    fn approx_bytes(&self) -> usize {
        128 + self.digest.as_ref().map_or(0, TDigest::approx_bytes)
    }
}

impl From<AggState> for PartialState {
    fn from(agg: AggState) -> Self {
        PartialState {
            agg,
            ..PartialState::default()
        }
    }
}

/// Content-addressed key of one cached whole-page partial: the page's
/// FNV checksum plus every exact header statistic and the aggregate
/// function. Two pages colliding on the full key while differing in
/// content would need an FNV-32 collision *and* identical header
/// statistics; the hit path still re-verifies the page checksum before
/// trusting the entry (the cache-obligation invariant), so a stale or
/// colliding entry can never silently stand in for corrupted bytes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct CacheKey {
    /// Page FNV checksum ([`Page::checksum`]).
    pub checksum: u32,
    /// Header tuple count.
    pub count: u32,
    /// Header first timestamp.
    pub first_ts: i64,
    /// Header last timestamp.
    pub last_ts: i64,
    /// Header minimum value.
    pub min_value: i64,
    /// Header maximum value.
    pub max_value: i64,
    /// The aggregate the partial was computed for.
    pub func: AggFunc,
}

impl CacheKey {
    /// The key for `page`'s whole-page partial under `func`.
    pub fn for_page(page: &Page, func: AggFunc) -> CacheKey {
        CacheKey {
            checksum: page.checksum,
            count: page.header.count,
            first_ts: page.header.first_ts,
            last_ts: page.header.last_ts,
            min_value: page.header.min_value,
            max_value: page.header.max_value,
            func,
        }
    }
}

/// Bounded FIFO cache state behind the [`PartialCache`] mutex.
#[derive(Debug, Default)]
struct CacheInner {
    map: HashMap<CacheKey, PartialState>,
    order: VecDeque<CacheKey>,
    bytes: usize,
}

/// Maximum cached entries (FIFO-evicted beyond this).
const CACHE_MAX_ENTRIES: usize = 8192;

/// Approximate byte budget for cached states (digests dominate).
const CACHE_MAX_BYTES: usize = 8 << 20;

/// The process-global cache of whole-page partial aggregate states,
/// keyed by [`CacheKey`] (content-addressed — safe to share across
/// stores and queries). Bounded by entry count and approximate bytes
/// with FIFO eviction; `EXPLAIN` renders the static `[cacheable]`
/// eligibility and [`crate::exec::ExecStats`] counts the live
/// hits/misses (EXPLAIN text must stay a pure function of the plan).
#[derive(Debug, Default)]
pub struct PartialCache {
    inner: Mutex<CacheInner>,
}

impl PartialCache {
    /// The process-global instance.
    pub fn global() -> &'static PartialCache {
        static CACHE: OnceLock<PartialCache> = OnceLock::new();
        CACHE.get_or_init(PartialCache::default)
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, CacheInner> {
        // A panic while holding the lock cannot corrupt the FIFO
        // invariants (no partial mutations escape), so poisoning is
        // recovered instead of propagated.
        self.inner.lock().unwrap_or_else(|p| p.into_inner())
    }

    /// Looks up a cached whole-page partial.
    pub fn get(&self, key: &CacheKey) -> Option<PartialState> {
        self.lock().map.get(key).cloned()
    }

    /// Inserts a whole-page partial, evicting FIFO past the bounds.
    /// The digest (if any) is compressed first so cached entries hold
    /// their minimal form.
    pub fn insert(&self, key: CacheKey, mut state: PartialState) {
        if let Some(d) = &mut state.digest {
            d.compress();
        }
        let bytes = state.approx_bytes();
        let mut inner = self.lock();
        if inner.map.insert(key, state).is_none() {
            inner.order.push_back(key);
            inner.bytes += bytes;
        }
        while inner.order.len() > CACHE_MAX_ENTRIES || inner.bytes > CACHE_MAX_BYTES {
            let Some(old) = inner.order.pop_front() else {
                break;
            };
            if let Some(evicted) = inner.map.remove(&old) {
                inner.bytes = inner.bytes.saturating_sub(evicted.approx_bytes());
            }
        }
    }

    /// Current entry count.
    pub fn len(&self) -> usize {
        self.lock().map.len()
    }

    /// Whether the cache is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Drops every entry (benchmark cold-start; tests).
    pub fn clear(&self) {
        let mut inner = self.lock();
        inner.map.clear();
        inner.order.clear();
        inner.bytes = 0;
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
        let mut p = PartialState::new(AggFunc::P95);
        for (t, v) in [(10, 4), (20, -1), (30, 9)] {
            p.push_tv(t, v);
        }
        let bytes = p.to_bytes();
        let back = PartialState::from_bytes(&bytes).unwrap();
        assert_eq!(back.agg.count, 3);
        assert_eq!(back.first_ts, Some(10));
        assert_eq!(back.last_ts, Some(30));
        assert_eq!(back.to_bytes(), bytes);
        assert!(PartialState::from_bytes(&bytes[..5]).is_err());
    }

    #[test]
    fn float_partial_appends_its_sums() {
        let mut p = PartialState::for_source(AggFunc::Sum, ValueType::F64);
        for (t, v) in [(10, 1.5), (20, f64::NAN), (30, -2.25)] {
            p.push_tv(t, etsqp_encoding::f64_to_ordered_i64(v));
        }
        let bytes = p.to_bytes();
        let back = PartialState::from_bytes(&bytes).unwrap();
        assert_eq!(back.to_bytes(), bytes);
        assert_eq!(back.agg.count, 3, "NaN counts");
        assert!(back.float.unwrap().sum.is_nan(), "NaN propagates through Σ");
        let (lo, hi) = (back.agg.min.unwrap(), back.agg.max.unwrap());
        assert_eq!(ordered_i64_to_f64(lo), -2.25, "NaN never wins MIN");
        assert_eq!(ordered_i64_to_f64(hi), 1.5, "NaN never wins MAX");
        // The integer wire form is a prefix: the f64 block is appended.
        let int_form = PartialState { float: None, ..p }.to_bytes();
        assert_eq!(bytes[..int_form.len()], int_form[..]);
    }

    #[test]
    fn cache_bounds_and_clear() {
        let cache = PartialCache::default();
        let mut key = CacheKey {
            checksum: 0,
            count: 1,
            first_ts: 0,
            last_ts: 0,
            min_value: 0,
            max_value: 0,
            func: AggFunc::Sum,
        };
        for i in 0..(CACHE_MAX_ENTRIES + 10) as u32 {
            key.checksum = i;
            cache.insert(key, PartialState::default());
        }
        assert!(cache.len() <= CACHE_MAX_ENTRIES);
        cache.clear();
        assert!(cache.is_empty());
    }
}
