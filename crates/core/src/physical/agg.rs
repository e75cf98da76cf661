//! Aggregation operator bodies: per-page pipelines (`FusedAgg`,
//! `DecodeScan → Filter → PartialAgg`) and the §III-C symbolic slice
//! partials, all resolving into [`PartialState`]s (whose methods are the
//! SIMD folds).
//!
//! The strategy a page runs is no longer chosen here: the `Pipe` planner
//! ([`crate::physical::pipe`]) picks a [`Strategy`] per page from header
//! statistics, and [`agg_page_job`] dispatches on that decision (with
//! [`Strategy::Decode`] as the sound fallback whenever a runtime check —
//! e.g. the resolved index range — falls outside what a fused form
//! handles).

use etsqp_encoding::{delta_rle, stream_vbyte, ts2diff, Encoding};
use etsqp_storage::page::Page;
use etsqp_storage::store::SeriesStore;

use crate::decode::decode_page;
use crate::exec::ExecStats;
use crate::expr::{AggFunc, Predicate, SlidingWindow, TimeRange, ValueType, NON_NAN_IMAGES};
use crate::fused::{aggregate_delta_rle, sum_svb, sum_ts2diff_range, FuseLevel};
use crate::partial::{CacheKey, PartialCache, PartialState, Sums};
use crate::physical::node::{Stage, Strategy};
use crate::physical::scan::{charge_page_io, decode_ts_column, decode_val_column};
use crate::physical::window::{constant_positions, whole_page_bucket, window_index_ranges};
use crate::plan::PipelineConfig;
use crate::slice::slice_range;
use crate::{Error, Result};

/// Partial aggregate states keyed by window index (0 when unwindowed).
pub(crate) type WindowStates = Vec<(usize, PartialState)>;

/// True when the page's value spread `max − min` is representable in
/// `i64`, which guarantees every pairwise difference — in particular
/// every encoded delta — equals the true mathematical difference.
///
/// The fused closed forms (§IV) and the slice-coefficient chain (§III-C)
/// sum *stored deltas* symbolically in `i128`; that widening is only
/// exact when the deltas did not wrap at encode time. The decode paths
/// are immune (their wrapping adds reproduce each value bit-exactly), so
/// pages failing this check simply fall back to decode-then-aggregate.
/// Regression: `overflow_audit.rs` (values spanning more than `i64::MAX`
/// used to wrap SUM on the sliced and fused paths).
pub(crate) fn spread_fits_i64(page: &Page) -> bool {
    page.header
        .max_value
        .checked_sub(page.header.min_value)
        .is_some()
}

/// Whether the header min/max may answer MIN/MAX: always on integer
/// pages; on float pages only when neither bound is a NaN image (MIN/MAX
/// skip NaN, but the header bounds include it).
pub(crate) fn header_bounds_are_values(page: &Page) -> bool {
    let (lo, hi) = NON_NAN_IMAGES;
    !page.header.val_encoding.is_float()
        || (lo <= page.header.min_value && page.header.max_value <= hi)
}

/// Whether the fused path can produce what `func` needs without decode.
pub(crate) fn fusion_covers(func: AggFunc, val_enc: Encoding, fuse: FuseLevel) -> bool {
    // Quantile sketches and rate/delta need per-tuple values and
    // timestamps; no closed form over (Δ, run-length) pairs produces
    // them. This gate must stay ahead of the per-encoding arms — the
    // Delta-RLE arm below claims *all* remaining functions.
    if func.partial_only() {
        return false;
    }
    match val_enc {
        Encoding::Ts2Diff => {
            fuse >= FuseLevel::Delta && matches!(func, AggFunc::Sum | AggFunc::Avg | AggFunc::Count)
        }
        Encoding::DeltaRle => fuse >= FuseLevel::DeltaRepeat,
        // Stream VByte stores length-coded deltas: fusing skips the
        // prefix sum (the Delta decoder), same family as TS2DIFF.
        Encoding::StreamVByte => {
            fuse >= FuseLevel::Delta && matches!(func, AggFunc::Sum | AggFunc::Avg | AggFunc::Count)
        }
        _ => false,
    }
}

/// Symbolic partial of a slice over a TS2DIFF value column: every term is
/// expressed relative to the unknown slice-start value `v_pre`, so slice
/// jobs never wait on each other's prefix sums (§III-C / Fig. 14(c)).
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct SliceCoeff {
    /// Values covered by the slice.
    len: u64,
    /// Σ rel_k where `rel_k = v_k − v_pre`.
    rel_sum: i128,
    /// Σ rel_k².
    rel_sq: i128,
    /// min rel_k.
    rel_min: i64,
    /// max rel_k.
    rel_max: i64,
    /// `v_first − v_pre` (the slice's first covered value, relative).
    rel_first: i64,
    /// `v_last − v_pre`: carried into the next slice's `v_pre`.
    pub(crate) delta_total: i64,
    /// The page's first value (meaningful on part 0; seeds the chain).
    pub(crate) first_value: i64,
}

impl SliceCoeff {
    /// Resolves the symbolic partial against the now-known `v_pre` and
    /// folds it into `state` — the prefix-stitching merge node.
    pub(crate) fn fold_into(&self, state: &mut PartialState, v_pre: i128) {
        if self.len == 0 {
            return;
        }
        let n = i128::from(self.len);
        // Sliced pages pass `spread_fits_i64`, so every resolved value
        // is an i64.
        let value = |rel: i64| Some((v_pre + i128::from(rel)) as i64);
        state.merge(&PartialState {
            count: self.len,
            sums: Sums::Int {
                sum: n.saturating_mul(v_pre).saturating_add(self.rel_sum),
                sum_sq: n
                    .saturating_mul(v_pre.saturating_mul(v_pre))
                    .saturating_add((2 * v_pre).saturating_mul(self.rel_sum))
                    .saturating_add(self.rel_sq),
            },
            min: value(self.rel_min),
            max: value(self.rel_max),
            first: value(self.rel_first),
            last: value(self.delta_total),
            ..PartialState::default()
        });
    }
}

/// Slice phase-1 job: unpack the slice's delta range and summarize it
/// relative to the unknown start value.
pub(crate) fn slice_coeff_job(
    page: &Page,
    part: usize,
    parts: usize,
    stats: &ExecStats,
    store: &SeriesStore,
) -> Result<SliceCoeff> {
    // Slice jobs unpack chunk bytes directly; reject corrupt payloads
    // before the symbolic coefficients are built from them. Part 0 is
    // enough: every part of a page runs, and one failure aborts the
    // query.
    if part == 0 {
        charge_page_io(page, stats, store);
        page.verify().map_err(Error::Storage)?;
    }
    let parsed = ts2diff::parse(&page.val_bytes)?;
    let count = parsed.count;
    let (lo, hi) = slice_range(count, part, parts);
    if lo >= hi {
        return Ok(SliceCoeff {
            first_value: parsed.first[0],
            ..Default::default()
        });
    }
    // Deltas connecting the slice's values: indices (max(lo,1)−1)..(hi−1).
    let d_lo = lo.saturating_sub(1);
    let d_hi = hi.saturating_sub(1);
    let n_deltas = d_hi - d_lo;
    let mut stored = vec![0u64; n_deltas];
    {
        let _u = Stage::Unpack.timer(stats);
        etsqp_simd::unpack::unpack_u64(
            parsed.payload,
            d_lo * parsed.width as usize,
            parsed.width,
            &mut stored,
        );
    }
    let _d = Stage::Delta.timer(stats);
    let mut coeff = SliceCoeff {
        first_value: parsed.first[0],
        ..Default::default()
    };
    let mut rel: i64 = 0;
    let push = |r: i64, c: &mut SliceCoeff| {
        c.len = c.len.saturating_add(1);
        c.rel_sum += r as i128;
        c.rel_sq = c.rel_sq.saturating_add((r as i128) * (r as i128));
        if c.len == 1 {
            c.rel_min = r;
            c.rel_max = r;
            c.rel_first = r;
        } else {
            c.rel_min = c.rel_min.min(r);
            c.rel_max = c.rel_max.max(r);
        }
    };
    if lo == 0 {
        // Value 0 itself has rel 0.
        push(0, &mut coeff);
    }
    for &s in &stored {
        rel = rel.wrapping_add(parsed.min_delta.wrapping_add(s as i64));
        push(rel, &mut coeff);
    }
    coeff.delta_total = rel;
    Ok(coeff)
}

/// The per-page aggregation pipeline, executing the planner's
/// [`Strategy`]. Returns partial states keyed by window index (0 when
/// unwindowed).
///
/// `cacheable` is the planner's [`crate::physical::node::PageDecision::cacheable`]
/// verdict: the page's whole-range partial is content-addressed in the
/// global [`PartialCache`]. The hit path still charges I/O and
/// re-verifies the page checksum first (the cache-obligation
/// invariant), so a cached entry can never stand in for corrupted
/// bytes.
#[allow(clippy::too_many_arguments)]
pub(crate) fn agg_page_job(
    page: &Page,
    pred: &Predicate,
    window: Option<SlidingWindow>,
    func: AggFunc,
    strategy: Strategy,
    cacheable: bool,
    cfg: &PipelineConfig,
    stats: &ExecStats,
    store: &SeriesStore,
) -> Result<WindowStates> {
    charge_page_io(page, stats, store);
    // Every non-serial strategy below reads chunk bytes without going
    // through the checksum-verified Page::decode — the fused closed
    // forms would otherwise turn corruption into a silently wrong
    // aggregate rather than an error. The checksum re-verification also
    // discharges the cache hit path: the cache key embeds this checksum.
    page.verify().map_err(Error::Storage)?;

    // The planner only marks pages cacheable when the whole page
    // qualifies and lands in one bucket; re-derive the bucket index
    // defensively (a straddling page just skips the cache).
    let cached_bucket = if cacheable {
        whole_page_bucket(page, window).map(|k| (k, CacheKey::for_page(page, func)))
    } else {
        None
    };
    if let Some((k, key)) = &cached_bucket {
        if let Some(state) = PartialCache::global().get(key) {
            stats
                .cache_hits
                .fetch_add(1, std::sync::atomic::Ordering::Relaxed);
            if state.count == 0 {
                return Ok(Vec::new());
            }
            return Ok(vec![(*k, state)]);
        }
        stats
            .cache_misses
            .fetch_add(1, std::sync::atomic::Ordering::Relaxed);
    }
    let out = agg_page_states(page, pred, window, func, strategy, cfg, stats)?;
    if let Some((_, key)) = cached_bucket {
        // Cache-eligible pages aggregate whole-page into one bucket, so
        // `out` holds at most one state; an empty page caches an empty
        // partial (served as "no states" above).
        let state = out
            .first()
            .map(|(_, s)| s.clone())
            .unwrap_or_else(|| PartialState::new(func, ValueType::of(page.header.val_encoding)));
        PartialCache::global().insert(key, state);
    }
    Ok(out)
}

/// Strategy dispatch body of [`agg_page_job`] (everything after the I/O
/// charge, checksum verification and cache probe).
fn agg_page_states(
    page: &Page,
    pred: &Predicate,
    window: Option<SlidingWindow>,
    func: AggFunc,
    strategy: Strategy,
    cfg: &PipelineConfig,
    stats: &ExecStats,
) -> Result<WindowStates> {
    if strategy == Strategy::Serial {
        return serial_agg_page(page, pred, window, func, cfg, stats);
    }

    let count = page.header.count as usize;
    let trange = pred.time.unwrap_or_else(TimeRange::all);

    // ---- Resolve the qualifying positions from the timestamp column ----
    // Ordered timestamps make every time filter an index range [a, b].
    let mut ts_decoded: Option<Vec<i64>> = None;
    let (a, b) = if pred.time.is_none() && window.is_none() {
        (0usize, count.saturating_sub(1))
    } else {
        let wide = match window {
            // Windows only constrain below by t_min; combine with filter.
            Some(w) => TimeRange {
                lo: w.t_min,
                hi: i64::MAX,
            }
            .intersect(&trange),
            None => trange,
        };
        match constant_positions(page, wide.lo, wide.hi) {
            Some(Some(range)) => range,
            Some(None) => return Ok(Vec::new()), // constant interval, no overlap
            None => {
                let _f = Stage::Filter.timer(stats);
                let ts = decode_ts_column(page, cfg, stats)?;
                let a = ts.partition_point(|&t| t < wide.lo);
                let b = ts.partition_point(|&t| t <= wide.hi);
                if a >= b {
                    return Ok(Vec::new());
                }
                ts_decoded = Some(ts);
                (a, b - 1)
            }
        }
    };

    // ---- The planner's fused strategies (FusedAgg node) --------------
    match strategy {
        Strategy::FusedTs2Diff if window.is_none() => {
            let parsed = ts2diff::parse(&page.val_bytes)?;
            let _a = Stage::Agg.timer(stats);
            let state = sum_ts2diff_range(&parsed, a, b, &cfg.decode)?;
            return Ok(vec![(0, state)]);
        }
        // Delta-RLE fusion, SVB fusion and header MIN/MAX are whole-page
        // forms; the planner chose them from exact header bounds (for a
        // windowed aggregate additionally proving the page lies inside
        // one bucket), but both conditions are re-checked so any
        // mismatch falls through to the decode path below.
        Strategy::FusedDeltaRle if a == 0 && b + 1 == count => {
            if let Some(k) = whole_page_bucket(page, window) {
                let parsed = delta_rle::parse(&page.val_bytes)?;
                let _a = Stage::Agg.timer(stats);
                return Ok(vec![(k, aggregate_delta_rle(&parsed)?)]);
            }
        }
        Strategy::FusedSvb if a == 0 && b + 1 == count => {
            if let Some(k) = whole_page_bucket(page, window) {
                let parsed = stream_vbyte::parse(&page.val_bytes)?;
                let _a = Stage::Agg.timer(stats);
                return Ok(vec![(k, sum_svb(&parsed, &cfg.decode)?)]);
            }
        }
        Strategy::HeaderMinMax if a == 0 && b + 1 == count => {
            if let Some(k) = whole_page_bucket(page, window) {
                let state = PartialState {
                    count: count as u64,
                    min: Some(page.header.min_value),
                    max: Some(page.header.max_value),
                    ..PartialState::new(func, ValueType::of(page.header.val_encoding))
                };
                return Ok(vec![(k, state)]);
            }
        }
        // Windowed fused path: resolve each window's index subrange
        // (constant-interval arithmetic or binary search over decoded
        // timestamps), then aggregate every subrange in closed form over
        // the packed deltas — no value decode.
        Strategy::FusedTs2Diff => {
            let Some(w) = window else {
                return Err(Error::Plan("windowed fused strategy without window".into()));
            };
            let ranges = window_index_ranges(page, &w, &trange, a, b, ts_decoded.as_deref())?;
            let parsed = ts2diff::parse(&page.val_bytes)?;
            let _a = Stage::Agg.timer(stats);
            let mut out: WindowStates = Vec::with_capacity(ranges.len());
            for (k, i, j) in ranges {
                let state = sum_ts2diff_range(&parsed, i, j, &cfg.decode)?;
                if state.count > 0 {
                    out.push((k, state));
                }
            }
            return Ok(out);
        }
        _ => {}
    }

    // ---- General path: decode values (DecodeScan → Filter → PartialAgg)
    let Some(vals) = decode_val_column(page, pred, cfg, stats)? else {
        return Ok(Vec::new()); // fully pruned during scan
    };
    if a >= vals.len() {
        // The qualifying index range lies entirely in the pruned suffix —
        // sound because pruned elements provably fail the value filter.
        return Ok(Vec::new());
    }
    // Tuple-level folds and window splits read the timestamp column
    // (decoded above, or now).
    let ts = match ts_decoded {
        Some(ts) => ts,
        None if func.partial_only() || window.is_some() => decode_ts_column(page, cfg, stats)?,
        None => Vec::new(),
    };

    let _a = Stage::Agg.timer(stats);

    // Partial-only aggregates (quantile sketches, rate/delta) fold
    // tuple-at-a-time with timestamps — this is the "straddling pages
    // decode" leg of the bucket pipeline.
    let ty = ValueType::of(page.header.val_encoding);
    if func.partial_only() {
        let hi = b.min(vals.len() - 1).min(ts.len().saturating_sub(1));
        return Ok(fold_tuples(
            &ts[a..=hi],
            &vals[a..=hi],
            pred,
            window,
            func,
            ty,
        ));
    }

    let mut out: WindowStates = Vec::new();
    match window {
        None => {
            let mut state = PartialState::new(func, ty);
            state.fold_run(&vals[a..=b.min(vals.len() - 1)], pred.value, func);
            if state.count > 0 {
                out.push((0, state));
            }
        }
        Some(w) => {
            // Split [a, b] into per-window index subranges via the
            // timestamp column.
            let mut i = a;
            let hi = b.min(vals.len() - 1);
            while i <= hi {
                // This window's run of indices is [i, j); an index in no
                // window, or outside the time filter, is skipped.
                let k = w.window_of(ts[i]);
                let j = k.map_or(i, |k| {
                    let wrange = w.range(k).intersect(&trange);
                    i + ts[i..=hi]
                        .iter()
                        .take_while(|&&t| wrange.contains(t))
                        .count()
                });
                if let (Some(k), true) = (k, j > i) {
                    let mut state = PartialState::new(func, ty);
                    state.fold_run(&vals[i..j], pred.value, func);
                    if state.count > 0 {
                        out.push((k, state));
                    }
                }
                i = j.max(i + 1);
            }
        }
    }
    Ok(out)
}

/// Byte-serial per-value pipeline — the "Serial"/"IoTDB" baseline: decode
/// value-at-a-time with the reference decoders, branch per tuple.
fn serial_agg_page(
    page: &Page,
    pred: &Predicate,
    window: Option<SlidingWindow>,
    func: AggFunc,
    _cfg: &PipelineConfig,
    stats: &ExecStats,
) -> Result<WindowStates> {
    let (ts, vals) = {
        let _d = Stage::Delta.timer(stats);
        decode_page(page)?
    };
    let ty = ValueType::of(page.header.val_encoding);
    stats.materialized_bytes.fetch_add(
        (ts.len() + vals.len()) as u64 * 8,
        std::sync::atomic::Ordering::Relaxed,
    );
    let _a = Stage::Agg.timer(stats);
    Ok(fold_tuples(&ts, &vals, pred, window, func, ty))
}

/// Folds tuples one at a time through `pred` into per-window partial
/// states (window 0 when unwindowed): the tuple-level `Filter →
/// PartialAgg` of the serial baseline and of partial-only aggregates.
fn fold_tuples(
    ts: &[i64],
    vals: &[i64],
    pred: &Predicate,
    window: Option<SlidingWindow>,
    func: AggFunc,
    ty: ValueType,
) -> WindowStates {
    let mut windows = std::collections::BTreeMap::new();
    for (&t, &v) in ts.iter().zip(vals) {
        let k = window.map_or(Some(0), |w| w.window_of(t));
        let qualifies = pred.time.is_none_or(|tr| tr.contains(t))
            && pred.value.is_none_or(|(lo, hi)| lo <= v && v <= hi);
        if let (true, Some(k)) = (qualifies, k) {
            windows
                .entry(k)
                .or_insert_with(|| PartialState::new(func, ty))
                .push_tv(t, v);
        }
    }
    windows.into_iter().collect()
}
