//! `merge_join`: one closed-loop client runs Table III's Q4
//! (`a.A + b.A`), Q5 (`UNION … ORDER BY TIME`) and Q6 (join) in-process
//! over two series pairs: one on identical clocks, one on jittered,
//! partly overlapping clocks. Merge and row materialization dominate and
//! the partial cache is not used; results exceed the 1 MiB wire frame,
//! so the workload stays in-process.

use etsqp_core::engine::{EngineOptions, IotDb};
use etsqp_encoding::Encoding;

use crate::gen::{self, IntSeries, Op, Rng, SqlQuery};
use crate::run::{self, Ctx, LayerAcc, Prepared, Setups};

/// Points per series.
pub const POINTS: usize = 1 << 17;

/// Range lengths per (pair, query).
const LENGTHS: usize = 8;

/// Positions per range length. A range's cost also depends on where it
/// falls — on its alignment to pages and merge partitions (measured: the
/// same 242k-row union takes 9 to 16 ms at different offsets) and on
/// the jittered pair's overlap — so each length is drawn at several.
const POSITIONS: usize = 8;

/// First timestamp (ms).
const T0: i64 = 1_600_000_000_000;

/// Clock step (ms).
const STEP: i64 = 1000;

/// Generates the two pairs for `seed` (stream 1): `mj_a1`/`mj_a2` share
/// one clock; `mj_b1`/`mj_b2` jitter by multiples of 250 ms (so about a
/// quarter of their instants coincide) and `mj_b2` starts a quarter of
/// the span later.
pub fn generate(seed: u64) -> Vec<IntSeries> {
    let mut rng = Rng::new(seed, 1);
    let clock = gen::timestamps(&mut rng, POINTS, T0, STEP, 0);
    let mut jittered = |start: i64| -> Vec<i64> {
        (0..POINTS as i64)
            .map(|i| start + i * STEP + 250 * rng.range(0, 3))
            .collect()
    };
    let b1 = jittered(T0);
    let b2 = jittered(T0 + (POINTS as i64 / 4) * STEP);
    vec![
        gen::int_series(&mut rng, "mj_a1", Encoding::Ts2Diff, clock.clone()),
        gen::int_series(&mut rng, "mj_a2", Encoding::Sprintz, clock),
        gen::int_series(&mut rng, "mj_b1", Encoding::StreamVByte, b1),
        gen::int_series(&mut rng, "mj_b2", Encoding::DeltaRle, b2),
    ]
}

/// The seeded operation list (stream 2): per pair and query (Q4, Q5,
/// Q6), [`LENGTHS`] fixed, log-spaced range lengths, each at
/// [`POSITIONS`] random positions inside the pair's joint span; then
/// shuffled.
pub fn queries(seed: u64, ints: &[IntSeries]) -> Vec<Op> {
    let mut rng = Rng::new(seed, 2);
    let mut ops = Vec::new();
    for (l, r) in [(0usize, 1usize), (2, 3)] {
        let (a, b) = (&ints[l].name, &ints[r].name);
        let t_lo = ints[l].bounds().0.min(ints[r].bounds().0);
        let t_hi = ints[l].bounds().1.max(ints[r].bounds().1);
        for kind in ["q4", "q5", "q6"] {
            for frac in gen::range_fractions(LENGTHS)
                .into_iter()
                .flat_map(|f| [f; POSITIONS])
            {
                let (lo, hi) = gen::range_at(&mut rng, t_lo, t_hi, frac);
                let within = format!("time >= {lo} AND time <= {hi}");
                let sql = match kind {
                    "q4" => format!("SELECT {a}.A + {b}.A FROM {a}, {b} WHERE {within}"),
                    "q5" => format!(
                        "SELECT * FROM (SELECT * FROM {a} WHERE {within}) UNION \
                         (SELECT * FROM {b} WHERE {within}) ORDER BY TIME"
                    ),
                    _ => format!("SELECT * FROM {a}, {b} WHERE {within}"),
                };
                ops.push(Op::Sql(SqlQuery {
                    kind,
                    sql,
                    sources: vec![l, r],
                    lo,
                    hi,
                    value_gt: None,
                    buckets: None,
                    func: None,
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
        let ints = generate(seed);
        let db = IotDb::new(EngineOptions::default());
        for s in &ints {
            run::load_int(&db, s, s.ts.len(), acc)?;
        }
        run::flush(&db, acc)?;
        Ok((db, ints))
    };
    let mut setups = Setups::default();
    let (db, ints) = setups.before(&mut ctx.acc, &mut setup)?;

    let ops = queries(seed, &ints);
    let p = Prepared::finish(db, ints, Vec::new(), ops, 1)?;
    ctx.prov.set(
        "load",
        format!("closed loop, 1 client, {} operations per pass", p.ops.len()),
    );
    ctx.prov.set(
        "data",
        format!("2 pairs x 2 series x {POINTS} points (page 1024)"),
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
        let a = generate(5);
        assert_eq!(a, generate(5));
        assert_ne!(a, generate(6));
        let q = queries(5, &a);
        assert_eq!(q, queries(5, &a));
        assert_ne!(q, queries(6, &a));
        assert_eq!(q.len(), 2 * 3 * LENGTHS * POSITIONS);
    }

    #[test]
    fn jittered_pair_partly_overlaps() {
        let s = generate(1);
        assert!(s[2].ts.windows(2).all(|w| w[0] < w[1]));
        assert!(s[3].bounds().0 > s[2].bounds().0 && s[3].bounds().0 < s[2].bounds().1);
    }
}
