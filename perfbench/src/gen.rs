//! Seeded input generation: series data, writer batches and query
//! parameters all come from the `--seed` argument and nothing else.

use etsqp_core::expr::AggFunc;
use etsqp_encoding::Encoding;

/// SplitMix64: small, fast and identical on every platform, so a seed
/// names the same inputs everywhere.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A generator for `stream` of `seed`; distinct streams of one seed
    /// are independent (data, queries and writer values each use one).
    pub fn new(seed: u64, stream: u64) -> Rng {
        let mut r = Rng(seed ^ stream.wrapping_mul(0xD6E8_FEB8_6659_FD93));
        r.next_u64();
        r
    }

    /// Next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: u64) -> u64 {
        ((self.next_u64() as u128 * n as u128) >> 64) as u64
    }

    /// Uniform in `lo..=hi`.
    pub fn range(&mut self, lo: i64, hi: i64) -> i64 {
        lo + self.below((hi - lo + 1) as u64) as i64
    }

    /// Fisher–Yates shuffle.
    pub fn shuffle<T>(&mut self, v: &mut [T]) {
        for i in (1..v.len()).rev() {
            let j = self.below(i as u64 + 1) as usize;
            v.swap(i, j);
        }
    }
}

/// One integer series as generated: the benchmark's own copy of what it
/// appends, used for tuple accounting and reference answers.
#[derive(Debug, Clone, PartialEq)]
pub struct IntSeries {
    /// Series name (also its value column name in SQL).
    pub name: String,
    /// Value codec.
    pub enc: Encoding,
    /// Strictly increasing timestamps (ms).
    pub ts: Vec<i64>,
    /// Values.
    pub vals: Vec<i64>,
}

impl IntSeries {
    /// Index range of the points with `lo <= t <= hi`, by binary search.
    pub fn span(&self, lo: i64, hi: i64) -> std::ops::Range<usize> {
        let a = self.ts.partition_point(|&t| t < lo);
        let b = self.ts.partition_point(|&t| t <= hi);
        a..b.max(a)
    }

    /// Points with `lo <= t <= hi`.
    pub fn count_in(&self, lo: i64, hi: i64) -> u64 {
        self.span(lo, hi).len() as u64
    }

    /// First and last timestamp.
    pub fn bounds(&self) -> (i64, i64) {
        (self.ts[0], self.ts[self.ts.len() - 1])
    }
}

/// One float series as generated.
#[derive(Debug, Clone, PartialEq)]
pub struct FloatSeries {
    /// Series name.
    pub name: String,
    /// Value codec.
    pub enc: Encoding,
    /// Strictly increasing timestamps (ms).
    pub ts: Vec<i64>,
    /// Values (finite, two decimals).
    pub vals: Vec<f64>,
}

/// Bytes the generated series occupy, which the benchmark keeps resident
/// for checking answers.
pub fn input_bytes(ints: &[IntSeries], floats: &[FloatSeries]) -> usize {
    let words: usize = ints
        .iter()
        .map(|s| s.ts.capacity() + s.vals.capacity())
        .chain(floats.iter().map(|s| s.ts.capacity() + s.vals.capacity()))
        .sum();
    words * 8
}

/// `n` timestamps from `t0`, `step` ms apart plus a jitter in
/// `0..=jitter` ms that keeps them strictly increasing.
pub fn timestamps(rng: &mut Rng, n: usize, t0: i64, step: i64, jitter: i64) -> Vec<i64> {
    assert!(jitter < step, "jitter must keep timestamps increasing");
    (0..n as i64)
        .map(|i| t0 + i * step + if jitter > 0 { rng.range(0, jitter) } else { 0 })
        .collect()
}

/// `n` values shaped for `enc`, so each codec sees data of the kind it
/// is built for: small random walks for the bit-packing codecs, walks
/// with bursts of large steps for Stream VByte's byte lengths, and runs
/// of repeated deltas for delta-RLE.
pub fn values(rng: &mut Rng, enc: Encoding, n: usize) -> Vec<i64> {
    let mut v = Vec::with_capacity(n);
    let mut x: i64 = 10_000 + rng.range(-1_000, 1_000);
    let (mut run_left, mut run_delta) = (0i64, 0i64);
    for _ in 0..n {
        v.push(x);
        x += match enc {
            Encoding::Sprintz => rng.range(-8, 8),
            Encoding::StreamVByte => {
                if rng.below(64) == 0 {
                    rng.range(-70_000, 70_000)
                } else {
                    rng.range(-300, 300)
                }
            }
            Encoding::DeltaRle => {
                if run_left == 0 {
                    run_left = rng.range(1, 64);
                    run_delta = rng.range(-3, 3);
                }
                run_left -= 1;
                run_delta
            }
            _ => rng.range(-50, 50),
        };
        // Keep the walk in a band so value filters stay selective.
        x = x.clamp(-1_000_000, 1_000_000);
    }
    v
}

/// A generated integer series.
pub fn int_series(rng: &mut Rng, name: &str, enc: Encoding, ts: Vec<i64>) -> IntSeries {
    let vals = values(rng, enc, ts.len());
    IntSeries {
        name: name.to_string(),
        enc,
        ts,
        vals,
    }
}

/// A generated float series: a bounded sensor-like walk rounded to two
/// decimals.
pub fn float_series(rng: &mut Rng, name: &str, enc: Encoding, ts: Vec<i64>) -> FloatSeries {
    let mut x = 20.0f64;
    let vals = ts
        .iter()
        .map(|_| {
            x = (x + (rng.range(-50, 50) as f64) / 100.0).clamp(-40.0, 60.0);
            (x * 100.0).round() / 100.0
        })
        .collect();
    FloatSeries {
        name: name.to_string(),
        enc,
        ts,
        vals,
    }
}

/// What a SQL query asks for, as far as checking and accounting need to
/// know: which series it reads, its time range, its value filter and its
/// buckets.
#[derive(Debug, Clone, PartialEq)]
pub struct SqlQuery {
    /// Short label of the query shape (`sum`, `q1`, `q5`, …).
    pub kind: &'static str,
    /// The SQL text sent to the engine.
    pub sql: String,
    /// Indices of the series read (one, or two for Q4–Q6).
    pub sources: Vec<usize>,
    /// Inclusive time range.
    pub lo: i64,
    /// Inclusive time range.
    pub hi: i64,
    /// `value > x` filter (Q3).
    pub value_gt: Option<i64>,
    /// Bucket origin and width of a windowed aggregate.
    pub buckets: Option<(i64, i64)>,
    /// Aggregate function; `None` for Q4–Q6, which return rows.
    pub func: Option<AggFunc>,
}

/// A float aggregate through `IotDb::aggregate_f64`.
#[derive(Debug, Clone, PartialEq)]
pub struct FloatQuery {
    /// Index of the float series.
    pub series: usize,
    /// Inclusive time range.
    pub lo: i64,
    /// Inclusive time range.
    pub hi: i64,
    /// Aggregate function.
    pub func: AggFunc,
}

/// One operation of a closed-loop workload.
#[derive(Debug, Clone, PartialEq)]
pub enum Op {
    /// A SQL statement through `IotDb::query`.
    Sql(SqlQuery),
    /// A float aggregate.
    Float(FloatQuery),
}

impl Op {
    /// Short label of the operation's shape.
    pub fn kind(&self) -> &'static str {
        match self {
            Op::Sql(q) => q.kind,
            Op::Float(_) => "float",
        }
    }
}

/// `k` fractions of a series' span for query ranges, evenly spaced on a
/// log scale over `[1/64, 1]` (the midpoints of `k` equal slices). The
/// lengths are the same for every seed — the longest queries set the
/// upper percentiles and most of the work, so a seeded length would move
/// them from seed to seed — while many lengths keep the cost distribution
/// smooth, with no gap for a median to fall into. Positions come from
/// the seed.
pub fn range_fractions(k: usize) -> Vec<f64> {
    (0..k)
        .map(|i| 64f64.powf(-(i as f64 + 0.5) / k as f64))
        .collect()
}

/// A range covering `frac` of `[t_lo, t_hi]` at a seeded position.
pub fn range_at(rng: &mut Rng, t_lo: i64, t_hi: i64, frac: f64) -> (i64, i64) {
    let span = t_hi - t_lo;
    let len = ((span as f64) * frac) as i64;
    let lo = t_lo + rng.range(0, span - len);
    (lo, lo + len)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_stream() {
        let a: Vec<u64> = {
            let mut r = Rng::new(7, 1);
            (0..8).map(|_| r.next_u64()).collect()
        };
        let b: Vec<u64> = {
            let mut r = Rng::new(7, 1);
            (0..8).map(|_| r.next_u64()).collect()
        };
        let c: Vec<u64> = {
            let mut r = Rng::new(8, 1);
            (0..8).map(|_| r.next_u64()).collect()
        };
        let d: Vec<u64> = {
            let mut r = Rng::new(7, 2);
            (0..8).map(|_| r.next_u64()).collect()
        };
        assert_eq!(a, b);
        assert_ne!(a, c);
        assert_ne!(a, d);
    }

    #[test]
    fn timestamps_strictly_increase() {
        let mut r = Rng::new(1, 0);
        let ts = timestamps(&mut r, 10_000, 5, 1000, 999);
        assert!(ts.windows(2).all(|w| w[0] < w[1]));
    }

    #[test]
    fn span_is_inclusive() {
        let s = IntSeries {
            name: "s".into(),
            enc: Encoding::Ts2Diff,
            ts: vec![10, 20, 30, 40],
            vals: vec![1, 2, 3, 4],
        };
        assert_eq!(s.count_in(20, 30), 2);
        assert_eq!(s.count_in(11, 19), 0);
        assert_eq!(s.count_in(i64::MIN, i64::MAX), 4);
        assert_eq!(s.span(35, 5), 3..3);
    }

    #[test]
    fn ranges_stay_inside_the_series() {
        let mut r = Rng::new(3, 0);
        let fracs = range_fractions(8);
        assert!(fracs.windows(2).all(|w| w[0] > w[1]));
        assert!(fracs[0] <= 1.0 && fracs[7] >= 1.0 / 64.0);
        for &f in &fracs {
            let (lo, hi) = range_at(&mut r, 1000, 2_000_000, f);
            assert!(lo >= 1000 && hi <= 2_000_000 && lo <= hi);
        }
    }
}
