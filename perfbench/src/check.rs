//! The correctness gate. Exact aggregates must equal the reference
//! bit for bit; t-digest quantiles must land within
//! `TDigest::rank_error_bound` ranks of the exact answer; row-returning
//! queries (Q4–Q6) must match the reference's row count and checksum.

use etsqp_core::expr::AggFunc;
use etsqp_core::oracle;
use etsqp_core::partial::TDigest;
use etsqp_core::plan::Value;
use etsqp_core::sql;
use etsqp_storage::store::SeriesStore;

use crate::gen::{IntSeries, SqlQuery};

/// One expected result cell.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Cell {
    /// Must equal this value bit for bit.
    Exact(Value),
    /// A quantile estimate: any float in `[lo, hi]` is within the rank
    /// bound.
    Between(f64, f64),
}

/// The expected answer to one operation.
#[derive(Debug, Clone, PartialEq)]
pub enum Expect {
    /// Aggregate rows, cell by cell.
    Rows(Vec<Vec<Cell>>),
    /// Row count and checksum of a row-returning query.
    Digest {
        /// Number of rows.
        rows: u64,
        /// [`rows_digest`] of the rows.
        checksum: u64,
    },
    /// A float aggregate; `rel_tol` 0 means bit-exact.
    Float {
        /// Expected value (`None` when no point qualifies).
        want: Option<f64>,
        /// Allowed relative error.
        rel_tol: f64,
    },
}

fn value_bits(v: &Value) -> (u8, u64) {
    match v {
        Value::Int(x) => (1, *x as u64),
        Value::Float(x) => (2, x.to_bits()),
        Value::Null => (3, 0),
    }
}

/// Row count and an FNV-1a checksum over every cell's tag and bits.
pub fn rows_digest(rows: &[Vec<Value>]) -> (u64, u64) {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut eat = |b: u8| {
        h ^= b as u64;
        h = h.wrapping_mul(0x100_0000_01b3);
    };
    for row in rows {
        eat(0xFF);
        for cell in row {
            let (tag, bits) = value_bits(cell);
            eat(tag);
            for b in bits.to_le_bytes() {
                eat(b);
            }
        }
    }
    (rows.len() as u64, h)
}

/// The float interval a quantile estimate may fall in: estimates whose
/// rank interval `[#(v < est), #(v <= est)]` comes within
/// `TDigest::rank_error_bound(n)` of `q·n` (ties widen the interval, so
/// heavily repeated values are not mis-flagged).
pub fn quantile_bounds(sorted: &[i64], q: f64) -> (f64, f64) {
    let n = sorted.len();
    assert!(n > 0, "quantile of an empty bucket");
    let bound = TDigest::rank_error_bound(n as u64);
    let target = q * n as f64;
    let need = (target - bound).ceil();
    let lo = if need >= 1.0 {
        sorted[(need as usize).min(n) - 1]
    } else {
        sorted[0]
    };
    let most = (target + bound).floor();
    let hi = if most < n as f64 {
        sorted[most as usize]
    } else {
        sorted[n - 1]
    };
    (lo as f64, hi as f64)
}

/// The exact or banded cell for `func` over the qualifying tuples,
/// computed with the oracle's own reference aggregate.
fn agg_cell(func: AggFunc, ts: &[i64], vals: &[i64]) -> Cell {
    match func.quantile() {
        Some(q) if !vals.is_empty() => {
            let mut sorted = vals.to_vec();
            sorted.sort_unstable();
            let (lo, hi) = quantile_bounds(&sorted, q);
            Cell::Between(lo, hi)
        }
        _ => Cell::Exact(oracle::exact_agg(func, ts, vals)),
    }
}

/// Expected rows of an aggregate query computed from the benchmark's own
/// inputs: the qualifying tuples are found by binary search on the
/// generated timestamps, bucketed like the engine's windows (only
/// non-empty buckets appear), and aggregated by `oracle::exact_agg`.
pub fn rows_from_inputs(q: &SqlQuery, s: &IntSeries) -> Vec<Vec<Cell>> {
    let func = q.func.expect("aggregate query");
    let span = s.span(q.lo, q.hi);
    let (ts, vals) = (&s.ts[span.clone()], &s.vals[span]);
    let filtered: (Vec<i64>, Vec<i64>);
    let (ts, vals) = match q.value_gt {
        None => (ts, vals),
        Some(x) => {
            filtered = ts.iter().zip(vals).filter(|&(_, &v)| v > x).unzip();
            (&filtered.0[..], &filtered.1[..])
        }
    };
    match q.buckets {
        None => vec![vec![agg_cell(func, ts, vals)]],
        Some((t_min, dt)) => {
            let mut rows = Vec::new();
            let mut i = ts.partition_point(|&t| t < t_min);
            while i < ts.len() {
                let k = (ts[i] - t_min) / dt;
                let end = t_min + (k + 1) * dt;
                let j = i + ts[i..].partition_point(|&t| t < end);
                rows.push(vec![
                    Cell::Exact(Value::Int(t_min + k * dt)),
                    agg_cell(func, &ts[i..j], &vals[i..j]),
                ]);
                i = j;
            }
            rows
        }
    }
}

/// The expected answer to a SQL query over a static store. Q4–Q6 are
/// the oracle's rows (`oracle::execute`) reduced to row count and
/// checksum. Aggregates are [`rows_from_inputs`]; with `cross_check` the
/// oracle's rows are computed too and must pass against them — every
/// exact cell bit for bit, every exact quantile inside its band — which
/// validates the input-based reference itself.
pub fn expect_sql(
    store: &SeriesStore,
    q: &SqlQuery,
    inputs: &[IntSeries],
    cross_check: bool,
) -> Result<Expect, String> {
    let oracle_rows = || -> Result<Vec<Vec<Value>>, String> {
        let plan = sql::parse(&q.sql).map_err(|e| format!("{}: {e}", q.sql))?;
        let (_, rows) = oracle::execute(&plan, store).map_err(|e| format!("oracle: {e}"))?;
        Ok(rows)
    };
    if q.func.is_none() {
        let (rows, checksum) = rows_digest(&oracle_rows()?);
        return Ok(Expect::Digest { rows, checksum });
    }
    let want = Expect::Rows(rows_from_inputs(q, &inputs[q.sources[0]]));
    if cross_check {
        check_rows(&want, &oracle_rows()?)
            .map_err(|e| format!("{}: reference disagrees with oracle::execute: {e}", q.sql))?;
    }
    Ok(want)
}

fn same(want: &Value, got: &Value) -> bool {
    value_bits(want) == value_bits(got)
}

/// Checks result rows against the expectation.
pub fn check_rows(expect: &Expect, got: &[Vec<Value>]) -> Result<(), String> {
    match expect {
        Expect::Digest { rows, checksum } => {
            let (n, h) = rows_digest(got);
            if (n, h) != (*rows, *checksum) {
                return Err(format!(
                    "rows/checksum {n}/{h:016x}, want {rows}/{checksum:016x}"
                ));
            }
            Ok(())
        }
        Expect::Rows(want) => {
            if want.len() != got.len() {
                return Err(format!("{} rows, want {}", got.len(), want.len()));
            }
            for (i, (w, g)) in want.iter().zip(got).enumerate() {
                if w.len() != g.len() {
                    return Err(format!("row {i}: {} cells, want {}", g.len(), w.len()));
                }
                for (c, v) in w.iter().zip(g) {
                    let ok = match (c, v) {
                        (Cell::Exact(x), v) => same(x, v),
                        (Cell::Between(lo, hi), Value::Float(f)) => f >= lo && f <= hi,
                        (Cell::Between(..), _) => false,
                    };
                    if !ok {
                        return Err(format!("row {i}: got {v:?}, want {c:?}"));
                    }
                }
            }
            Ok(())
        }
        Expect::Float { .. } => Err("float expectation on a row result".into()),
    }
}

/// Checks a float aggregate.
pub fn check_float(expect: &Expect, got: Option<f64>) -> Result<(), String> {
    let Expect::Float { want, rel_tol } = expect else {
        return Err("row expectation on a float result".into());
    };
    let ok = match (want, got) {
        (None, None) => true,
        (Some(w), Some(g)) if *rel_tol == 0.0 => w.to_bits() == g.to_bits(),
        (Some(w), Some(g)) => (w - g).abs() <= rel_tol * w.abs().max(1.0),
        _ => false,
    };
    if ok {
        Ok(())
    } else {
        Err(format!("got {got:?}, want {want:?} (rel_tol {rel_tol})"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use etsqp_core::engine::{EngineOptions, IotDb};
    use etsqp_encoding::Encoding;

    fn fixture() -> (IotDb, Vec<IntSeries>) {
        let db = IotDb::new(EngineOptions::default());
        let ts: Vec<i64> = (0..5000).map(|i| i * 1000).collect();
        let vals: Vec<i64> = (0..5000).map(|i| (i * 37) % 1000).collect();
        db.create_series_with("s", Encoding::Ts2Diff, Encoding::Sprintz)
            .unwrap();
        db.append_all("s", &ts, &vals).unwrap();
        db.flush().unwrap();
        let s = IntSeries {
            name: "s".into(),
            enc: Encoding::Sprintz,
            ts,
            vals,
        };
        (db, vec![s])
    }

    fn query(sql: &str, func: Option<AggFunc>, buckets: Option<(i64, i64)>) -> SqlQuery {
        SqlQuery {
            kind: "t",
            sql: sql.into(),
            sources: vec![0],
            lo: 100_000,
            hi: 3_999_000,
            value_gt: None,
            buckets,
            func,
        }
    }

    #[test]
    fn engine_answer_passes_and_perturbed_answer_is_caught() {
        let (db, inputs) = fixture();
        let q = query(
            "SELECT SUM(s) FROM s WHERE time >= 100000 AND time <= 3999000",
            Some(AggFunc::Sum),
            None,
        );
        let want = expect_sql(db.store(), &q, &inputs, true).unwrap();
        let mut got = db.query(&q.sql).unwrap().rows;
        check_rows(&want, &got).unwrap();

        let Value::Int(x) = got[0][0] else { panic!() };
        got[0][0] = Value::Int(x + 1);
        assert!(check_rows(&want, &got).is_err());
        got[0][0] = Value::Float(x as f64);
        assert!(check_rows(&want, &got).is_err(), "Int vs Float must differ");
    }

    #[test]
    fn quantile_band_accepts_engine_and_rejects_far_estimates() {
        let (db, inputs) = fixture();
        let q = query(
            "SELECT P95(s) FROM s WHERE time >= 100000 AND time <= 3999000 GROUP BY TIME(500000)",
            Some(AggFunc::P95),
            Some((0, 500_000)),
        );
        let want = expect_sql(db.store(), &q, &inputs, true).unwrap();
        let mut got = db.query(&q.sql).unwrap().rows;
        check_rows(&want, &got).unwrap();
        got[3][1] = Value::Float(-1.0);
        assert!(check_rows(&want, &got).is_err());
    }

    #[test]
    fn cross_check_catches_a_wrong_reference() {
        let (db, mut inputs) = fixture();
        let q = query(
            "SELECT MAX(s) FROM s WHERE time >= 100000 AND time <= 3999000",
            Some(AggFunc::Max),
            None,
        );
        let Expect::Rows(rows) = expect_sql(db.store(), &q, &inputs, true).unwrap() else {
            panic!("aggregate expectation")
        };
        let Cell::Exact(Value::Int(max)) = rows[0][0] else {
            panic!()
        };
        let span = inputs[0].span(q.lo, q.hi);
        let at = span.start + inputs[0].vals[span].iter().position(|&v| v == max).unwrap();
        inputs[0].vals[at] += 1;
        assert!(expect_sql(db.store(), &q, &inputs, true).is_err());
        assert!(expect_sql(db.store(), &q, &inputs, false).is_ok());
    }

    #[test]
    fn row_queries_are_checked_by_count_and_checksum() {
        let (db, inputs) = fixture();
        db.create_series_with("t", Encoding::Ts2Diff, Encoding::Ts2Diff)
            .unwrap();
        let ts: Vec<i64> = (0..3000).map(|i| i * 2000).collect();
        db.append_all("t", &ts, &ts).unwrap();
        db.flush().unwrap();
        let mut q = query(
            "SELECT * FROM s, t WHERE time >= 0 AND time <= 5000000",
            None,
            None,
        );
        q.sources = vec![0, 0];
        let want = expect_sql(db.store(), &q, &inputs, true).unwrap();
        let mut got = db.query(&q.sql).unwrap().rows;
        check_rows(&want, &got).unwrap();
        got.swap(0, 1);
        assert!(check_rows(&want, &got).is_err(), "order matters");
        got.swap(0, 1);
        got.pop();
        assert!(check_rows(&want, &got).is_err(), "count matters");
    }

    #[test]
    fn quantile_bounds_cover_exact_rank_and_handle_ties() {
        let sorted: Vec<i64> = (0..1000).collect();
        let (lo, hi) = quantile_bounds(&sorted, 0.5);
        let b = TDigest::rank_error_bound(1000);
        assert!(lo <= 500.0 && hi >= 500.0);
        assert!((500.0 - lo) <= b + 1.0 && (hi - 500.0) <= b + 1.0);
        let ties = vec![7i64; 100];
        assert_eq!(quantile_bounds(&ties, 0.95), (7.0, 7.0));
    }

    #[test]
    fn float_check_is_bit_exact_unless_tolerance_given() {
        let exact = Expect::Float {
            want: Some(0.1 + 0.2),
            rel_tol: 0.0,
        };
        assert!(check_float(&exact, Some(0.3)).is_err());
        assert!(check_float(&exact, Some(0.1 + 0.2)).is_ok());
        let loose = Expect::Float {
            want: Some(0.3),
            rel_tol: 1e-9,
        };
        assert!(check_float(&loose, Some(0.1 + 0.2)).is_ok());
        assert!(check_float(&loose, None).is_err());
    }
}
