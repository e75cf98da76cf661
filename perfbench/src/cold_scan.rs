//! `cold_scan`: one closed-loop client sends seeded selective aggregates
//! over four integer series — one per value codec — and a float series.
//!
//! The working set (4 series × 1,024 pages × 5 cacheable functions =
//! 20,480 page partials, t-digests included) is 2.5× the partial cache's
//! 8,192-entry cap and several times its 8 MiB byte cap, and the loop
//! cycles through it, so the FIFO cache thrashes and every query pays
//! prune → unpack → delta → filter → aggregate.

use etsqp_core::engine::{EngineOptions, IotDb};
use etsqp_core::expr::AggFunc;
use etsqp_encoding::Encoding;

use crate::gen::{self, FloatQuery, FloatSeries, IntSeries, Op, Rng, SqlQuery};
use crate::run::{self, Ctx, LayerAcc, Prepared, Setups};

/// Points per integer series: 1,024 pages at the default page size.
pub const INT_POINTS: usize = 1 << 20;

/// Points of the float series.
const FLOAT_POINTS: usize = 1 << 18;

/// First timestamp (ms).
const T0: i64 = 1_600_000_000_000;

/// One series per value codec.
const SERIES: [(&str, Encoding); 4] = [
    ("cs_ts2diff", Encoding::Ts2Diff),
    ("cs_sprintz", Encoding::Sprintz),
    ("cs_svb", Encoding::StreamVByte),
    ("cs_drle", Encoding::DeltaRle),
];

/// Generates the series for `seed` (stream 1).
pub fn generate(seed: u64) -> (Vec<IntSeries>, Vec<FloatSeries>) {
    let mut rng = Rng::new(seed, 1);
    let ints = SERIES
        .iter()
        .map(|&(name, enc)| {
            let ts = gen::timestamps(&mut rng, INT_POINTS, T0, 1000, 9);
            gen::int_series(&mut rng, name, enc, ts)
        })
        .collect();
    let ts = gen::timestamps(&mut rng, FLOAT_POINTS, T0, 4000, 9);
    let floats = vec![gen::float_series(
        &mut rng,
        "cs_float",
        Encoding::GorillaFloat,
        ts,
    )];
    (ints, floats)
}

/// Query shapes on every integer series.
const KINDS: [&str; 8] = [
    "sum",
    "max",
    "count",
    "q1",
    "q2",
    "q3",
    "avg_by_time",
    "p95_by_time",
];

/// Range lengths per (series, shape).
const LENGTHS: usize = 8;

/// Positions per range length: a range's cost also depends on its
/// alignment to pages, buckets and cached partials, which averages out
/// over several.
const POSITIONS: usize = 2;

/// Every this many aggregates, the input-based reference is also
/// checked against `oracle::execute`, which decodes the whole 1M-point
/// series per query (about 25 ms) and so cannot run for all of them.
const ORACLE_EVERY: usize = 8;

/// Windows per Q1/Q2 query and buckets per `GROUP BY TIME` query. Like
/// the range lengths they are fixed, so a query's cost depends on its
/// shape and length and only its position and data come from the seed.
const SW_WINDOWS: i64 = 32;
const BUCKETS: i64 = 16;

/// Q3 keeps values above this percentile of the range's values.
const Q3_PERCENTILE: usize = 90;

/// A bucket width near `span / buckets`, rounded up to whole minutes.
fn bucket_width(span: i64, buckets: i64) -> i64 {
    let minute = 60_000;
    ((span / buckets).max(1) + minute - 1) / minute * minute
}

/// The seeded operation list (stream 2): for every series and shape,
/// [`LENGTHS`] fixed, log-spaced range lengths, each at [`POSITIONS`]
/// random positions, plus MIN/MAX/AVG on the float series likewise; then
/// shuffled.
pub fn queries(seed: u64, ints: &[IntSeries], floats: &[FloatSeries]) -> Vec<Op> {
    let mut rng = Rng::new(seed, 2);
    let mut ops = Vec::new();
    for (si, s) in ints.iter().enumerate() {
        let (t_lo, t_hi) = s.bounds();
        let n = &s.name;
        for kind in KINDS {
            for frac in gen::range_fractions(LENGTHS)
                .into_iter()
                .flat_map(|f| [f; POSITIONS])
            {
                let (lo, hi) = gen::range_at(&mut rng, t_lo, t_hi, frac);
                let within = format!("time >= {lo} AND time <= {hi}");
                let mut q = SqlQuery {
                    kind,
                    sql: String::new(),
                    sources: vec![si],
                    lo,
                    hi,
                    value_gt: None,
                    buckets: None,
                    func: None,
                };
                let (func, sql) = match kind {
                    "sum" | "max" | "count" => {
                        let f = match kind {
                            "sum" => AggFunc::Sum,
                            "max" => AggFunc::Max,
                            _ => AggFunc::Count,
                        };
                        (
                            f,
                            format!("SELECT {}({n}) FROM {n} WHERE {within}", f.name()),
                        )
                    }
                    "q1" | "q2" => {
                        let f = if kind == "q1" {
                            AggFunc::Sum
                        } else {
                            AggFunc::Avg
                        };
                        let dt = ((hi - lo) / SW_WINDOWS).max(1);
                        q.buckets = Some((lo, dt));
                        (
                            f,
                            format!(
                                "SELECT {}({n}) FROM {n} WHERE {within} SW({lo}, {dt})",
                                f.name()
                            ),
                        )
                    }
                    "q3" => {
                        let span = s.span(lo, hi);
                        let step = (span.len() / 1024).max(1);
                        let mut sample: Vec<i64> =
                            s.vals[span].iter().step_by(step).copied().collect();
                        sample.sort_unstable();
                        let th = sample[(sample.len() - 1) * Q3_PERCENTILE / 100];
                        q.value_gt = Some(th);
                        (
                            AggFunc::Sum,
                            format!("SELECT SUM({n}) FROM (SELECT * FROM {n} WHERE {within} AND {n} > {th})"),
                        )
                    }
                    _ => {
                        let f = if kind == "avg_by_time" {
                            AggFunc::Avg
                        } else {
                            AggFunc::P95
                        };
                        let dt = bucket_width(hi - lo, BUCKETS);
                        q.buckets = Some((lo.div_euclid(dt) * dt, dt));
                        (
                            f,
                            format!(
                                "SELECT {}({n}) FROM {n} WHERE {within} GROUP BY TIME({dt})",
                                f.name()
                            ),
                        )
                    }
                };
                q.func = Some(func);
                q.sql = sql;
                ops.push(Op::Sql(q));
            }
        }
    }
    for (fi, f) in floats.iter().enumerate() {
        let (t_lo, t_hi) = (f.ts[0], f.ts[f.ts.len() - 1]);
        for func in [AggFunc::Min, AggFunc::Max, AggFunc::Avg] {
            for frac in gen::range_fractions(LENGTHS)
                .into_iter()
                .flat_map(|f| [f; POSITIONS])
            {
                let (lo, hi) = gen::range_at(&mut rng, t_lo, t_hi, frac);
                ops.push(Op::Float(FloatQuery {
                    series: fi,
                    lo,
                    hi,
                    func,
                }));
            }
        }
    }
    rng.shuffle(&mut ops);
    ops
}

/// Runs the workload.
pub fn run(ctx: &mut Ctx) -> Result<(), String> {
    let seed = ctx.seed;
    let mut setup = |acc: &mut LayerAcc| {
        let (ints, floats) = generate(seed);
        let db = IotDb::new(EngineOptions::default());
        for s in &ints {
            run::load_int(&db, s, s.ts.len(), acc)?;
        }
        for f in &floats {
            run::load_float(&db, f)?;
        }
        run::flush(&db, acc)?;
        Ok((db, ints, floats))
    };
    let mut setups = Setups::default();
    let (db, ints, floats) = setups.before(&mut ctx.acc, &mut setup)?;

    let ops = queries(seed, &ints, &floats);
    let p = Prepared::finish(db, ints, floats, ops, ORACLE_EVERY)?;
    ctx.prov.set(
        "load",
        format!("closed loop, 1 client, {} operations per pass", p.ops.len()),
    );
    ctx.prov.set(
        "data",
        format!(
            "4 series x {INT_POINTS} points (page 1024) + 1 float series x {FLOAT_POINTS}; \
             working set 4 x 1024 pages x 5 cacheable functions vs a cache of 8192 entries / 8 MiB"
        ),
    );
    run::closed_loop(ctx, &p)?;
    if ctx.traced() {
        run::probe_layers(ctx, p.db.store(), &p.ints);
    }
    drop(p);
    setups.after(&mut ctx.report, &mut ctx.acc, &mut setup)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_queries_other_seed_other_queries() {
        let small = |seed| {
            let (mut ints, mut floats) = generate(seed);
            for s in &mut ints {
                s.ts.truncate(5000);
                s.vals.truncate(5000);
            }
            floats[0].ts.truncate(5000);
            floats[0].vals.truncate(5000);
            (ints, floats)
        };
        let (i1, f1) = small(11);
        let (i2, f2) = small(11);
        let (i3, f3) = small(12);
        assert_eq!(i1, i2);
        assert_ne!(i1, i3);
        let q1 = queries(11, &i1, &f1);
        assert_eq!(q1, queries(11, &i2, &f2));
        assert_ne!(q1, queries(12, &i3, &f3));
        assert_eq!(q1.len(), (4 * KINDS.len() + 3) * LENGTHS * POSITIONS);
    }
}
