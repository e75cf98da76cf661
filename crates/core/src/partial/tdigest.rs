//! The merging t-digest quantile sketch carried by
//! [`super::PartialState`] for `p50/p95/p99`.

use crate::{Error, Result};

/// t-digest compression factor `δ`: the sketch keeps roughly `δ..2δ`
/// centroids after compression, giving a worst-case rank error that
/// shrinks toward the distribution tails (where p95/p99 live).
pub const TDIGEST_COMPRESSION: usize = 100;

/// Uncompressed centroids accumulate up to this many before a merge
/// pass runs (amortizes the sort; bounds transient memory).
const TDIGEST_BUFFER: usize = 4 * TDIGEST_COMPRESSION;

/// Clustering threshold for [`TDigest::merge`], deliberately larger
/// than the push-path buffer: the cross-page merge chain appends one
/// compressed (~2δ-centroid) block per page, and clustering after every
/// block would re-traverse the whole accumulator per merge. 64 KiB of
/// transient centroids buys an amortized-linear chain.
const TDIGEST_MERGE_BUFFER: usize = 4096;

/// Hard ceiling on centroid counts accepted by [`TDigest::from_bytes`]
/// — a hostile length prefix must not drive allocation.
pub(super) const TDIGEST_MAX_SERIALIZED: usize = 4096;

/// One weighted cluster of the sketch.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Centroid {
    /// Weighted mean of the cluster's values.
    pub mean: f64,
    /// Number of values absorbed by the cluster (never zero).
    pub weight: u64,
}

/// A merging t-digest (Dunning): an ordered list of weighted centroids
/// whose per-cluster weight is capped by `4·n·q(1−q)/δ`, so clusters
/// near the tails stay tiny and extreme quantiles stay sharp.
///
/// Determinism: compression sorts with `f64::total_cmp` (stable) and
/// merges in one sequential pass, so the same push/merge sequence always
/// yields the same centroids — required by the differential oracle and
/// the partial cache.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct TDigest {
    /// Centroids; the first `len − unsorted` are sorted and compressed,
    /// the tail is a raw append buffer.
    centroids: Vec<Centroid>,
    /// Trailing raw (possibly unsorted) centroids.
    unsorted: usize,
    /// Total weight across all centroids.
    count: u64,
    /// Exact minimum pushed value (valid when `count > 0`).
    min: f64,
    /// Exact maximum pushed value (valid when `count > 0`).
    max: f64,
}

impl TDigest {
    /// An empty sketch.
    pub fn new() -> Self {
        TDigest::default()
    }

    /// Total weight (number of pushed values).
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Exact minimum pushed value, if any.
    pub fn min(&self) -> Option<f64> {
        (self.count > 0).then_some(self.min)
    }

    /// Exact maximum pushed value, if any.
    pub fn max(&self) -> Option<f64> {
        (self.count > 0).then_some(self.max)
    }

    /// The documented worst-case rank error of [`TDigest::quantile`]
    /// for a sketch over `n` values: `3·n/δ + 2` ranks. (Measured error
    /// is typically `n/δ`; the slack covers repeated partial merges.)
    pub fn rank_error_bound(n: u64) -> f64 {
        3.0 * n as f64 / TDIGEST_COMPRESSION as f64 + 2.0
    }

    /// Pushes one value. Non-finite values are ignored (the engine only
    /// pushes integer-valued samples; the guard keeps hostile merges
    /// from poisoning the means).
    pub fn push(&mut self, v: f64) {
        if !v.is_finite() {
            return;
        }
        if self.count == 0 {
            self.min = v;
            self.max = v;
        } else {
            self.min = self.min.min(v);
            self.max = self.max.max(v);
        }
        self.centroids.push(Centroid { mean: v, weight: 1 });
        self.unsorted += 1;
        self.count += 1;
        if self.centroids.len() >= TDIGEST_BUFFER {
            self.compress();
        }
    }

    /// Merges `other` into `self`. Merging an empty sketch is a no-op
    /// (bit-for-bit identity — the property tests rely on this).
    pub fn merge(&mut self, other: &TDigest) {
        if other.count == 0 {
            return;
        }
        if self.count == 0 {
            self.min = other.min;
            self.max = other.max;
        } else {
            self.min = self.min.min(other.min);
            self.max = self.max.max(other.max);
        }
        // Append the incoming block and defer clustering: the driver's
        // warm-cache path merges one ~2δ-centroid partial per page, and
        // re-clustering the whole accumulator on every merge made the
        // chain quadratic. The larger merge buffer amortizes clustering
        // to O(total/TDIGEST_MERGE_BUFFER) passes, and the stable sort
        // in [`TDigest::compress`] is near-linear on the concatenation
        // of already-sorted runs cached partials produce.
        self.centroids.extend_from_slice(&other.centroids);
        self.unsorted += other.centroids.len();
        self.count += other.count;
        if self.centroids.len() >= TDIGEST_MERGE_BUFFER {
            self.compress();
        }
    }

    /// Sorts and re-clusters the centroids under the `4·n·q(1−q)/δ`
    /// per-cluster weight cap. Deterministic: stable sort by
    /// `total_cmp`, one sequential merging pass.
    pub fn compress(&mut self) {
        if self.centroids.len() <= 1 {
            self.unsorted = 0;
            return;
        }
        if self.unsorted > 0 {
            self.centroids.sort_by(|a, b| a.mean.total_cmp(&b.mean));
        }
        let total = self.count as f64;
        let delta = TDIGEST_COMPRESSION as f64;
        let mut out: Vec<Centroid> = Vec::with_capacity(self.centroids.len().min(512));
        let mut iter = self.centroids.iter();
        // `len > 1` above guarantees a first centroid.
        let Some(first) = iter.next() else {
            self.unsorted = 0;
            return;
        };
        let mut acc = *first;
        let mut w_before = 0.0f64;
        for c in iter {
            let merged = acc.weight.saturating_add(c.weight);
            let q = (w_before + merged as f64 / 2.0) / total;
            let cap = (4.0 * total * q * (1.0 - q) / delta).max(1.0);
            if (merged as f64) <= cap {
                let wa = acc.weight as f64;
                let wc = c.weight as f64;
                acc.mean = (acc.mean * wa + c.mean * wc) / (wa + wc);
                acc.weight = merged;
            } else {
                w_before += acc.weight as f64;
                out.push(acc);
                acc = *c;
            }
        }
        out.push(acc);
        self.centroids = out;
        self.unsorted = 0;
    }

    /// Estimates the `q`-quantile (`q` clamped to `[0, 1]`). Returns
    /// `NaN` on an empty sketch; otherwise the covering centroid's mean
    /// clamped into the exact `[min, max]` envelope.
    pub fn quantile(&self, q: f64) -> f64 {
        if self.count == 0 {
            return f64::NAN;
        }
        if self.unsorted > 0 {
            let mut c = self.clone();
            c.compress();
            return c.quantile_sorted(q);
        }
        self.quantile_sorted(q)
    }

    fn quantile_sorted(&self, q: f64) -> f64 {
        let target = q.clamp(0.0, 1.0) * self.count as f64;
        let mut cum = 0.0f64;
        let last = self.centroids.len().saturating_sub(1);
        for (i, c) in self.centroids.iter().enumerate() {
            let w = c.weight as f64;
            if cum + w >= target || i == last {
                return c.mean.clamp(self.min, self.max);
            }
            cum += w;
        }
        self.max
    }

    /// Canonical serialized form: compressed centroids as
    /// `[m: u32][m × (mean: f64, weight: u64)][count: u64][min: f64]
    /// [max: f64]`, all little-endian. Round-trips bit-exactly through
    /// [`TDigest::from_bytes`].
    pub fn to_bytes(&self) -> Vec<u8> {
        let canon;
        let src = if self.unsorted > 0 {
            let mut c = self.clone();
            c.compress();
            canon = c;
            &canon
        } else {
            self
        };
        let mut out = Vec::with_capacity(4 + src.centroids.len() * 16 + 24);
        out.extend_from_slice(&(src.centroids.len() as u32).to_le_bytes());
        for c in &src.centroids {
            out.extend_from_slice(&c.mean.to_le_bytes());
            out.extend_from_slice(&c.weight.to_le_bytes());
        }
        out.extend_from_slice(&src.count.to_le_bytes());
        out.extend_from_slice(&src.min.to_le_bytes());
        out.extend_from_slice(&src.max.to_le_bytes());
        out
    }

    /// Parses and validates a serialized sketch. Every structural lie a
    /// hostile stream can tell — oversized centroid counts, non-finite
    /// or unsorted means, zero weights, weight sums that disagree with
    /// the count, means outside the `[min, max]` envelope, truncation
    /// or trailing bytes — is a typed [`Error::Decode`], never a panic.
    pub fn from_bytes(data: &[u8]) -> Result<TDigest> {
        let mut pos = 0usize;
        let take = |pos: &mut usize, n: usize| -> Result<&[u8]> {
            let end = pos
                .checked_add(n)
                .ok_or(Error::Decode("tdigest: length overflow"))?;
            let s = data
                .get(*pos..end)
                .ok_or(Error::Decode("tdigest: truncated"))?;
            *pos = end;
            Ok(s)
        };
        let m_bytes: [u8; 4] = take(&mut pos, 4)?
            .try_into()
            .map_err(|_| Error::Decode("tdigest: truncated count"))?;
        let m = u32::from_le_bytes(m_bytes) as usize;
        if m > TDIGEST_MAX_SERIALIZED {
            return Err(Error::Decode("tdigest: hostile centroid count"));
        }
        let mut centroids = Vec::with_capacity(m);
        let mut weight_sum: u64 = 0;
        let mut prev = f64::NEG_INFINITY;
        for _ in 0..m {
            let mean_b: [u8; 8] = take(&mut pos, 8)?
                .try_into()
                .map_err(|_| Error::Decode("tdigest: truncated mean"))?;
            let w_b: [u8; 8] = take(&mut pos, 8)?
                .try_into()
                .map_err(|_| Error::Decode("tdigest: truncated weight"))?;
            let mean = f64::from_le_bytes(mean_b);
            let weight = u64::from_le_bytes(w_b);
            if !mean.is_finite() {
                return Err(Error::Decode("tdigest: non-finite mean"));
            }
            if weight == 0 {
                return Err(Error::Decode("tdigest: zero-weight centroid"));
            }
            if mean < prev {
                return Err(Error::Decode("tdigest: unsorted means"));
            }
            prev = mean;
            weight_sum = weight_sum
                .checked_add(weight)
                .ok_or(Error::Decode("tdigest: weight sum overflow"))?;
            centroids.push(Centroid { mean, weight });
        }
        let count_b: [u8; 8] = take(&mut pos, 8)?
            .try_into()
            .map_err(|_| Error::Decode("tdigest: truncated total"))?;
        let count = u64::from_le_bytes(count_b);
        let min_b: [u8; 8] = take(&mut pos, 8)?
            .try_into()
            .map_err(|_| Error::Decode("tdigest: truncated min"))?;
        let max_b: [u8; 8] = take(&mut pos, 8)?
            .try_into()
            .map_err(|_| Error::Decode("tdigest: truncated max"))?;
        let (min, max) = (f64::from_le_bytes(min_b), f64::from_le_bytes(max_b));
        if pos != data.len() {
            return Err(Error::Decode("tdigest: trailing bytes"));
        }
        if count != weight_sum {
            return Err(Error::Decode("tdigest: count disagrees with weights"));
        }
        if count > 0 {
            if !min.is_finite() || !max.is_finite() || min > max {
                return Err(Error::Decode("tdigest: bad min/max envelope"));
            }
            if centroids.is_empty() {
                return Err(Error::Decode("tdigest: count without centroids"));
            }
            if centroids.iter().any(|c| c.mean < min || c.mean > max) {
                return Err(Error::Decode("tdigest: mean outside envelope"));
            }
        } else if !centroids.is_empty() {
            return Err(Error::Decode("tdigest: centroids without count"));
        }
        Ok(TDigest {
            centroids,
            unsorted: 0,
            count,
            min,
            max,
        })
    }

    /// Approximate heap footprint, for the cache's byte accounting.
    pub(super) fn approx_bytes(&self) -> usize {
        48 + self.centroids.capacity() * std::mem::size_of::<Centroid>()
    }
}
