//! Differential-testing oracle: a deliberately naive reference executor.
//!
//! Every fast path in this crate — vectorized unpacking, operator fusion
//! (§IV), pruning (§V), slicing and multi-threaded scheduling (§III-C) —
//! is an *optimization* of one simple semantics: decode everything,
//! filter tuple by tuple, aggregate with exact arithmetic. This module
//! implements that semantics directly, with none of the optimizations:
//!
//! * every page is fully decoded with the serial reference decoders
//!   ([`Page::decode`], or [`Page::decode_f64`] on float series); no page
//!   pruning, no suffix pruning, no fusion, no slicing, no threads;
//! * filters are evaluated per tuple, in time order;
//! * aggregates accumulate in `i128` ([`PartialState`] / [`PairMoments`]),
//!   so no intermediate result ever wraps; float series fold naively in
//!   `f64`, in time order.
//!
//! The only code shared with the engine is the *output contract* —
//! [`finalize`]'s integer `Null`/`Int`/`Float` widening rules and the column
//! naming — because that is the surface being compared, not the
//! computation behind it. `tests/differential.rs` (repo root) sweeps
//! every [`PipelineConfig`](crate::plan::PipelineConfig) variant × codec
//! × dataset × query against this oracle.

use std::collections::BTreeMap;

use etsqp_encoding::ordered_i64_to_f64;
use etsqp_storage::store::{SeriesSnapshot, SeriesStore};

use crate::expr::{AggFunc, BinOp, CmpOp, Plan, Predicate, SlidingWindow, ValueType};
use crate::partial::PartialState;
use crate::plan::{finalize, finalize_pair, flatten_scan, PairMoments, Value};
use crate::{Error, Result};

/// A result relation: column names and rows.
type Table = (Vec<String>, Vec<Vec<Value>>);

/// Evaluates `plan` naively. Returns `(columns, rows)` shaped exactly
/// like [`crate::plan::execute`]'s `QueryResult` (same column names, same
/// row order, same `Value` widening), so results compare cell-for-cell.
pub fn execute(plan: &Plan, store: &SeriesStore) -> Result<(Vec<String>, Vec<Vec<Value>>)> {
    match plan {
        Plan::Aggregate { input, func } => unary(store, input, Some(*func), None),
        Plan::WindowAggregate {
            input,
            window,
            func,
        } => unary(store, input, Some(*func), Some(window)),
        Plan::Scan { .. } | Plan::Filter { .. } => unary(store, plan, None, None),
        Plan::Union { left, right } => {
            let (lt, lv, _, rt, rv, _) = both_sides(store, left, right)?;
            Ok((
                vec!["time".into(), "value".into()],
                union_rows(&lt, &lv, &rt, &rv),
            ))
        }
        Plan::Join { left, right, on } => {
            let (lt, lv, ls, rt, rv, rs) = both_sides(store, left, right)?;
            let rows = join_rows(&lt, &lv, &rt, &rv, None, *on);
            Ok((vec!["time".into(), ls, rs], rows))
        }
        Plan::JoinExpr { left, right, op } => {
            let (lt, lv, ls, rt, rv, rs) = both_sides(store, left, right)?;
            let rows = join_rows(&lt, &lv, &rt, &rv, Some(*op), None);
            Ok((vec!["time".into(), format!("{ls}.A op {rs}.A")], rows))
        }
        Plan::JoinAggregate { left, right, func } => {
            let (lt, lv, ls, rt, rv, rs) = both_sides(store, left, right)?;
            let mut m = PairMoments::default();
            let (mut i, mut j) = (0usize, 0usize);
            while i < lt.len() && j < rt.len() {
                match lt[i].cmp(&rt[j]) {
                    std::cmp::Ordering::Less => i += 1,
                    std::cmp::Ordering::Greater => j += 1,
                    std::cmp::Ordering::Equal => {
                        m.push(lv[i], rv[j]);
                        i += 1;
                        j += 1;
                    }
                }
            }
            let col = format!("{}({ls}, {rs})", func.name());
            Ok((vec![col], vec![vec![finalize_pair(*func, m)]]))
        }
    }
}

/// Decodes every sealed page of `series` with the serial reference
/// decoders, then walks the hot chunk's buffered columns — both halves
/// of one atomic [`SeriesStore::snapshot`], so the oracle sees exactly
/// the prefix of the append stream a concurrently planned engine query
/// would. Tuples pass `pred` one at a time. Float series reach here only
/// under binary plans, which are integer-only.
fn scan_tuples(
    store: &SeriesStore,
    series: &str,
    pred: &Predicate,
) -> Result<(Vec<i64>, Vec<i64>)> {
    let snap = store.snapshot(series)?;
    if pred.float.is_some() || is_float(&snap) {
        return Err(Error::Plan(format!(
            "{series}: float series in an integer-only plan"
        )));
    }
    let mut out = (Vec::new(), Vec::new());
    let mut keep = |ts: &[i64], vals: &[i64]| {
        for (&t, &v) in ts.iter().zip(vals) {
            if pred.time.is_none_or(|r| r.contains(t))
                && pred.value.is_none_or(|(lo, hi)| lo <= v && v <= hi)
            {
                out.0.push(t);
                out.1.push(v);
            }
        }
    };
    for page in snap.pages {
        let (ts, vals) = page.decode()?;
        keep(&ts, &vals);
    }
    if let Some(h) = snap.hot {
        keep(&h.ts, &h.vals);
    }
    Ok(out)
}

/// The exact (reference) aggregate over time-ordered qualifying tuples.
///
/// * Quantiles use the **nearest-rank** definition over a full sorted
///   copy — `sorted[round(q·(n−1))]`. The engine's t-digest answer is
///   *not* expected to match this bit-for-bit; the differential harness
///   compares by rank within [`crate::partial::TDigest::rank_error_bound`].
/// * `RATE`/`DELTA` use the same `i128` first/last formulas as
///   [`finalize`], so they compare bit-exact.
/// * Everything else accumulates through [`PartialState`] and shares
///   [`finalize`]'s widening rules with the engine.
pub fn exact_agg(func: AggFunc, ts: &[i64], vals: &[i64]) -> Value {
    if vals.is_empty() {
        return Value::Null;
    }
    match func {
        AggFunc::P50 | AggFunc::P95 | AggFunc::P99 => {
            let q = func.quantile().unwrap_or(0.5);
            let mut sorted = vals.to_vec();
            sorted.sort_unstable();
            let idx = ((sorted.len() - 1) as f64 * q).round() as usize;
            Value::Float(sorted[idx.min(sorted.len() - 1)] as f64)
        }
        AggFunc::Rate => {
            let (ft, lt) = (ts[0], ts[ts.len() - 1]);
            if ft == lt {
                return Value::Null; // fewer than two distinct instants
            }
            let dv = vals[vals.len() - 1] as i128 - vals[0] as i128;
            let dt = lt as i128 - ft as i128;
            Value::Float(dv as f64 / dt as f64)
        }
        AggFunc::Delta => {
            let dv = vals[vals.len() - 1] as i128 - vals[0] as i128;
            i64::try_from(dv)
                .map(Value::Int)
                .unwrap_or(Value::Float(dv as f64))
        }
        _ => {
            let mut state = PartialState::new(func, ValueType::I64);
            for &v in vals {
                state.push(v);
            }
            finalize(func, &state)
        }
    }
}

/// Whether a snapshot holds float values.
fn is_float(snap: &SeriesSnapshot) -> bool {
    snap.hot.iter().any(|h| h.val_encoding.is_float())
        || snap.pages.iter().any(|p| p.header.val_encoding.is_float())
}

/// A unary plan: the rows of a (filtered) scan, or its aggregate, whole
/// or per window. Float series decode through `Page::decode_f64` plus
/// the hot chunk's images mapped back to `f64`; their integer value
/// bounds compare as `f64`
/// (`i64::MIN`/`i64::MAX` unbounded, a strict bound excluding its
/// literal), NaN lies in no value range, and
/// quantiles and rate/delta are a typed [`Error::Plan`], as in the
/// engine.
fn unary(
    store: &SeriesStore,
    input: &Plan,
    func: Option<AggFunc>,
    window: Option<&SlidingWindow>,
) -> Result<Table> {
    let (series, pred) = flatten_scan(input)?;
    let snap = store.snapshot(&series)?;
    // An empty series has no codec to type it; a float conjunct reads it
    // as float.
    let empty = snap.pages.is_empty() && snap.hot.is_none();
    if !(is_float(&snap) || empty && pred.float.is_some()) {
        let (ts, vals) = scan_tuples(store, &series, &pred)?;
        return Ok(relation(
            series,
            func,
            window,
            &ts,
            &vals,
            exact_agg,
            Value::Int,
        ));
    }
    if let Some(f) = func.filter(|f| f.partial_only()) {
        let name = f.name();
        return Err(Error::Plan(format!(
            "{name} is not supported on float series {series}"
        )));
    }
    let mut columns = Vec::new();
    for page in &snap.pages {
        columns.push(page.decode_f64()?);
    }
    // The hot chunk buffers ordered-i64 images; the inverse map is a
    // bijection on bits, so NaN payloads and -0.0 come back intact.
    if let Some(h) = snap.hot {
        let vals = h.vals.iter().map(|&v| ordered_i64_to_f64(v)).collect();
        columns.push((h.ts.to_vec(), vals));
    }
    // A strict bound was normalized from `> lo - 1` / `< hi + 1`.
    let (strict_lo, strict_hi) = pred.strict;
    let above = |v: f64, lo: i64| {
        if strict_lo {
            v > (lo - 1) as f64
        } else {
            v >= lo as f64
        }
    };
    let below = |v: f64, hi: i64| {
        if strict_hi {
            v < (hi + 1) as f64
        } else {
            v <= hi as f64
        }
    };
    let bounds = |v: f64, lo: i64, hi: i64| {
        !v.is_nan() && (lo == i64::MIN || above(v, lo)) && (hi == i64::MAX || below(v, hi))
    };
    let (ts, vals): (Vec<i64>, Vec<f64>) = columns
        .into_iter()
        .flat_map(|(ts, vals)| ts.into_iter().zip(vals))
        .filter(|&(t, v)| {
            pred.time.is_none_or(|r| r.contains(t))
                && pred.value.is_none_or(|(lo, hi)| bounds(v, lo, hi))
                && pred.float.is_none_or(|r| v >= r.lo && v <= r.hi)
        })
        .unzip();
    let agg = |func, _: &[i64], vals: &[f64]| exact_agg_f64(func, vals);
    Ok(relation(
        series,
        func,
        window,
        &ts,
        &vals,
        agg,
        Value::Float,
    ))
}

/// Shapes qualifying tuples into the engine's relation: `(time, value)`
/// rows without `func`, else one aggregate cell, whole or per window.
fn relation<V: Copy>(
    series: String,
    func: Option<AggFunc>,
    window: Option<&SlidingWindow>,
    ts: &[i64],
    vals: &[V],
    agg: impl Fn(AggFunc, &[i64], &[V]) -> Value,
    cell: impl Fn(V) -> Value,
) -> Table {
    let Some(func) = func else {
        let rows = ts
            .iter()
            .zip(vals)
            .map(|(&t, &v)| vec![Value::Int(t), cell(v)]);
        return (vec!["time".into(), series], rows.collect());
    };
    let col = format!("{}({series})", func.name());
    let Some(w) = window else {
        return (vec![col], vec![vec![agg(func, ts, vals)]]);
    };
    let rows = window_tuples(ts, vals, w)
        .into_iter()
        .map(|(k, (wts, wvals))| {
            vec![
                Value::Int(w.t_min + k as i64 * w.dt),
                agg(func, &wts, &wvals),
            ]
        });
    (vec!["window_start".into(), col], rows.collect())
}

/// The reference aggregate over a float series' time-ordered values: a
/// naive left fold in `f64`. NaN counts, propagates through SUM/AVG and
/// never wins MIN/MAX; `-0.0` orders below `+0.0`.
fn exact_agg_f64(func: AggFunc, vals: &[f64]) -> Value {
    let n = vals.len() as f64;
    let sum: f64 = vals.iter().sum();
    let non_nan = vals.iter().copied().filter(|v| !v.is_nan());
    let float = |v: Option<f64>| v.map_or(Value::Null, Value::Float);
    match func {
        _ if vals.is_empty() => Value::Null,
        AggFunc::Count => Value::Int(vals.len() as i64),
        AggFunc::Sum => Value::Float(sum),
        AggFunc::Avg => Value::Float(sum / n),
        AggFunc::Variance => {
            let sum_sq: f64 = vals.iter().map(|v| v * v).sum();
            Value::Float((sum_sq / n - (sum / n).powi(2)).max(0.0))
        }
        AggFunc::Min => float(non_nan.min_by(f64::total_cmp)),
        AggFunc::Max => float(non_nan.max_by(f64::total_cmp)),
        AggFunc::First => float(vals.first().copied()),
        _ => float(vals.last().copied()),
    }
}

/// Buckets qualifying tuples into per-window tuple lists, ascending by
/// window index; only non-empty windows appear (matching the engine
/// contract). Tuples stay in time order inside each bucket, which the
/// order-sensitive reference aggregates (FIRST/LAST/RATE/DELTA) rely on.
#[allow(clippy::type_complexity)]
fn window_tuples<V: Copy>(
    ts: &[i64],
    vals: &[V],
    w: &SlidingWindow,
) -> Vec<(usize, (Vec<i64>, Vec<V>))> {
    let mut windows: BTreeMap<usize, (Vec<i64>, Vec<V>)> = BTreeMap::new();
    for (&t, &v) in ts.iter().zip(vals) {
        if let Some(k) = w.window_of(t) {
            let bucket = windows.entry(k).or_default();
            bucket.0.push(t);
            bucket.1.push(v);
        }
    }
    windows.into_iter().collect()
}

/// Flattens + scans both inputs of a binary plan node.
#[allow(clippy::type_complexity)]
fn both_sides(
    store: &SeriesStore,
    left: &Plan,
    right: &Plan,
) -> Result<(Vec<i64>, Vec<i64>, String, Vec<i64>, Vec<i64>, String)> {
    let (ls, lp) = flatten_scan(left)?;
    let (rs, rp) = flatten_scan(right)?;
    let (lt, lv) = scan_tuples(store, &ls, &lp)?;
    let (rt, rv) = scan_tuples(store, &rs, &rp)?;
    Ok((lt, lv, ls, rt, rv, rs))
}

/// Time-ordered two-way merge; ties emit the left tuple first.
fn union_rows(lt: &[i64], lv: &[i64], rt: &[i64], rv: &[i64]) -> Vec<Vec<Value>> {
    let mut rows = Vec::with_capacity(lt.len() + rt.len());
    let (mut i, mut j) = (0usize, 0usize);
    while i < lt.len() || j < rt.len() {
        let take_left = match (lt.get(i), rt.get(j)) {
            (Some(&a), Some(&b)) => a <= b,
            (Some(_), None) => true,
            _ => false,
        };
        if take_left {
            rows.push(vec![Value::Int(lt[i]), Value::Int(lv[i])]);
            i += 1;
        } else {
            rows.push(vec![Value::Int(rt[j]), Value::Int(rv[j])]);
            j += 1;
        }
    }
    rows
}

/// Natural (equal-timestamp) merge join. With `op`, emits
/// `(t, op(a, b))`; without, `(t, a, b)` filtered by the optional `on`.
fn join_rows(
    lt: &[i64],
    lv: &[i64],
    rt: &[i64],
    rv: &[i64],
    op: Option<BinOp>,
    on: Option<CmpOp>,
) -> Vec<Vec<Value>> {
    let mut rows = Vec::new();
    let (mut i, mut j) = (0usize, 0usize);
    while i < lt.len() && j < rt.len() {
        match lt[i].cmp(&rt[j]) {
            std::cmp::Ordering::Less => i += 1,
            std::cmp::Ordering::Greater => j += 1,
            std::cmp::Ordering::Equal => {
                if on.is_none_or(|c| c.eval(lv[i], rv[j])) {
                    match op {
                        Some(op) => {
                            rows.push(vec![Value::Int(lt[i]), Value::Int(op.apply(lv[i], rv[j]))])
                        }
                        None => rows.push(vec![
                            Value::Int(lt[i]),
                            Value::Int(lv[i]),
                            Value::Int(rv[j]),
                        ]),
                    }
                }
                i += 1;
                j += 1;
            }
        }
    }
    rows
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::expr::{AggFunc, TimeRange};
    use crate::plan::{execute as engine_execute, PipelineConfig};
    use etsqp_encoding::Encoding;

    fn store_with(series: &str, ts: &[i64], vals: &[i64]) -> SeriesStore {
        let store = SeriesStore::new(128);
        store.create_series(series, Encoding::Ts2Diff, Encoding::Ts2Diff);
        store.append_all(series, ts, vals).unwrap();
        store.flush(series).unwrap();
        store
    }

    #[test]
    fn oracle_matches_engine_on_simple_aggregate() {
        let ts: Vec<i64> = (0..500).map(|i| i * 10).collect();
        let vals: Vec<i64> = (0..500).map(|i| 40 + i % 13).collect();
        let store = store_with("s", &ts, &vals);
        let plan = Plan::scan("s")
            .filter(Predicate {
                time: Some(TimeRange { lo: 100, hi: 4200 }),
                value: Some((41, 50)),
                ..Predicate::default()
            })
            .aggregate(AggFunc::Sum);
        let (ocols, orows) = execute(&plan, &store).unwrap();
        let got = engine_execute(&plan, &store, &PipelineConfig::default()).unwrap();
        assert_eq!(ocols, got.columns);
        assert_eq!(orows, got.rows);
    }

    #[test]
    fn oracle_aggregate_is_exact_in_i128() {
        // Two values whose sum exceeds i64: the oracle must widen, not
        // wrap (the engine's §VI-C contract).
        let store = store_with("w", &[0, 10], &[i64::MAX - 1, i64::MAX - 1]);
        let plan = Plan::scan("w").aggregate(AggFunc::Sum);
        let (_, rows) = execute(&plan, &store).unwrap();
        let want = (i64::MAX - 1) as f64 * 2.0;
        match rows[0][0] {
            Value::Float(f) => assert_eq!(f, want),
            other => panic!("expected widened Float, got {other:?}"),
        }
    }

    #[test]
    fn oracle_rejects_non_scan_aggregate_input() {
        let store = store_with("s", &[0], &[1]);
        let bad = Plan::Aggregate {
            input: Box::new(Plan::Union {
                left: Box::new(Plan::scan("s")),
                right: Box::new(Plan::scan("s")),
            }),
            func: AggFunc::Sum,
        };
        assert!(execute(&bad, &store).is_err());
    }

    #[test]
    fn oracle_window_rows_only_for_nonempty_windows() {
        // Gap between t=0..40 and t=1000..1040: middle windows are absent.
        let ts = [0, 10, 20, 30, 40, 1000, 1010, 1020, 1030, 1040];
        let vals = [1i64, 2, 3, 4, 5, 6, 7, 8, 9, 10];
        let store = store_with("g", &ts, &vals);
        let plan = Plan::scan("g").window(0, 100, AggFunc::Count);
        let (_, rows) = execute(&plan, &store).unwrap();
        assert_eq!(rows.len(), 2);
        assert_eq!(rows[0], vec![Value::Int(0), Value::Int(5)]);
        assert_eq!(rows[1], vec![Value::Int(1000), Value::Int(5)]);
    }
}
