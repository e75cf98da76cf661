//! Logical query plans — the IoT expression language of Definitions 1–2
//! (filters, aggregations, sliding windows, concatenation, natural join),
//! the input to the `Pipe` pipeline generator (Algorithm 2).

use etsqp_encoding::{f64_to_ordered_i64, Encoding};

/// Aggregation functions (`f` in `f(e, mask)` / `G_sw:f`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AggFunc {
    /// Σ of valid values.
    Sum,
    /// Arithmetic mean (algebraic: SUM/COUNT).
    Avg,
    /// Number of valid tuples.
    Count,
    /// Minimum valid value.
    Min,
    /// Maximum valid value.
    Max,
    /// Population variance (algebraic: needs Σx²).
    Variance,
    /// First qualifying value in time order (IoT FIRST_VALUE).
    First,
    /// Last qualifying value in time order (IoT LAST_VALUE).
    Last,
    /// Median (50th percentile), estimated by a t-digest sketch.
    P50,
    /// 95th percentile, estimated by a t-digest sketch.
    P95,
    /// 99th percentile, estimated by a t-digest sketch.
    P99,
    /// `(last − first) / (last_ts − first_ts)` — per-time-unit rate of
    /// change between the first and last qualifying tuples.
    Rate,
    /// `last − first` — value change between the first and last
    /// qualifying tuples.
    Delta,
}

impl AggFunc {
    /// SQL spelling.
    pub fn name(self) -> &'static str {
        match self {
            AggFunc::Sum => "SUM",
            AggFunc::Avg => "AVG",
            AggFunc::Count => "COUNT",
            AggFunc::Min => "MIN",
            AggFunc::Max => "MAX",
            AggFunc::Variance => "VARIANCE",
            AggFunc::First => "FIRST",
            AggFunc::Last => "LAST",
            AggFunc::P50 => "P50",
            AggFunc::P95 => "P95",
            AggFunc::P99 => "P99",
            AggFunc::Rate => "RATE",
            AggFunc::Delta => "DELTA",
        }
    }

    /// The quantile level of a percentile aggregate, if this is one.
    pub fn quantile(self) -> Option<f64> {
        match self {
            AggFunc::P50 => Some(0.5),
            AggFunc::P95 => Some(0.95),
            AggFunc::P99 => Some(0.99),
            _ => None,
        }
    }

    /// Whether finalization needs a t-digest sketch of the values.
    pub fn needs_digest(self) -> bool {
        self.quantile().is_some()
    }

    /// Whether finalization needs the first/last qualifying timestamps
    /// (rate/delta read the time axis, not just the values).
    pub fn needs_ts(self) -> bool {
        matches!(self, AggFunc::Rate | AggFunc::Delta)
    }

    /// Aggregates computable only from tuple-level partials: they never
    /// take the §IV closed-form fused path and are never sliced — every
    /// kept page decodes (with its timestamps) into a
    /// [`crate::partial::PartialState`].
    pub fn partial_only(self) -> bool {
        self.needs_digest() || self.needs_ts()
    }
}

/// An inclusive time range `[lo, hi]`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TimeRange {
    /// Inclusive lower bound.
    pub lo: i64,
    /// Inclusive upper bound.
    pub hi: i64,
}

impl TimeRange {
    /// The full time domain.
    pub fn all() -> Self {
        TimeRange {
            lo: i64::MIN,
            hi: i64::MAX,
        }
    }

    /// Intersection of two ranges; empty ranges have `lo > hi`.
    pub fn intersect(&self, other: &TimeRange) -> TimeRange {
        TimeRange {
            lo: self.lo.max(other.lo),
            hi: self.hi.min(other.hi),
        }
    }

    /// Whether the range contains no instants.
    pub fn is_empty(&self) -> bool {
        self.lo > self.hi
    }

    /// Whether `t` lies inside.
    pub fn contains(&self, t: i64) -> bool {
        t >= self.lo && t <= self.hi
    }
}

/// The value type of a series. Floats travel through the pipeline as
/// their order-preserving `f64_to_ordered_i64` images, the domain float
/// page headers keep their min/max in; only Σ/Σ² accumulate in `f64`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ValueType {
    /// Integer values.
    #[default]
    I64,
    /// Float values (GorillaFloat / Chimp / Elf columns).
    F64,
}

impl ValueType {
    /// The value type stored by a value codec.
    pub(crate) fn of(val_encoding: Encoding) -> ValueType {
        if val_encoding.is_float() {
            ValueType::F64
        } else {
            ValueType::I64
        }
    }
}

/// The ordered-i64 images of `-inf` and `+inf`: every non-NaN float's
/// image lies between them, every NaN image outside.
pub(crate) const NON_NAN_IMAGES: (i64, i64) =
    (i64::MIN + 0x000F_FFFF_FFFF_FFFF, 0x7FF0_0000_0000_0000);

/// A float range filter `[lo, hi]` (inclusive, NaN never matches).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FloatRange {
    /// Inclusive lower bound.
    pub lo: f64,
    /// Inclusive upper bound.
    pub hi: f64,
}

impl FloatRange {
    /// The range holding exactly `x`.
    pub(crate) fn point(x: f64) -> Self {
        FloatRange { lo: x, hi: x }
    }

    /// The range in the ordered-i64 domain, clamped to
    /// [`NON_NAN_IMAGES`] so NaN never matches; `-0.0` and `+0.0` both
    /// match a zero bound, as `f64` comparisons do; a NaN bound matches
    /// nothing (`lo > hi`).
    pub(crate) fn ordered(self) -> (i64, i64) {
        if self.lo.is_nan() || self.hi.is_nan() {
            return (1, 0);
        }
        let lo = if self.lo == 0.0 { -0.0 } else { self.lo };
        let hi = if self.hi == 0.0 { 0.0 } else { self.hi };
        let (min, max) = NON_NAN_IMAGES;
        (
            f64_to_ordered_i64(lo).max(min),
            f64_to_ordered_i64(hi).min(max),
        )
    }
}

/// Conjunctive predicates over one series (single-column: time or value).
///
/// Bounds are **inclusive**; strict SQL comparisons are normalized by the
/// parser (`A > a` ⇒ `lo = a + 1` on the integer domain) and marked in
/// `strict`. On a float series the integer bounds compare against the
/// values as `f64`, a strict bound excluding `a` itself.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Predicate {
    /// Optional time-range conjunct.
    pub time: Option<TimeRange>,
    /// Optional value-range conjunct `[lo, hi]`.
    pub value: Option<(i64, i64)>,
    /// Whether `value`'s lower/upper bound was normalized from a strict
    /// comparison (`> lo - 1` / `< hi + 1`). Integer series ignore it.
    pub strict: (bool, bool),
    /// Optional float value-range conjunct (float series only).
    pub float: Option<FloatRange>,
}

impl Predicate {
    /// A predicate with only a time conjunct.
    pub fn time(lo: i64, hi: i64) -> Self {
        Predicate {
            time: Some(TimeRange { lo, hi }),
            ..Predicate::default()
        }
    }

    /// A predicate with only a value conjunct.
    pub fn value(lo: i64, hi: i64) -> Self {
        Predicate {
            value: Some((lo, hi)),
            ..Predicate::default()
        }
    }

    /// Conjunction of two predicates.
    pub fn and(&self, other: &Predicate) -> Predicate {
        let (value, strict) = match (self.value, other.value) {
            (Some((al, ah)), Some((bl, bh))) => {
                let (lo, hi) = (al.max(bl), ah.min(bh));
                // A bound stays strict unless an equal inclusive one
                // joins it (`x >= a + 1` implies `x > a` on floats).
                let strict = |b: i64, s: bool, at: i64| s || b != at;
                let (sa, sb) = (self.strict, other.strict);
                let s_lo = strict(al, sa.0, lo) && strict(bl, sb.0, lo);
                let s_hi = strict(ah, sa.1, hi) && strict(bh, sb.1, hi);
                (Some((lo, hi)), (s_lo, s_hi))
            }
            (Some(v), None) => (Some(v), self.strict),
            (None, v) => (v, other.strict),
        };
        Predicate {
            time: match (self.time, other.time) {
                (Some(a), Some(b)) => Some(a.intersect(&b)),
                (a, b) => a.or(b),
            },
            value,
            strict,
            float: match (self.float, other.float) {
                // A NaN bound (which matches nothing) wins either side.
                (Some(a), Some(b)) => {
                    let pick = |a: f64, b: f64, b_wins| if b_wins || b.is_nan() { b } else { a };
                    Some(FloatRange {
                        lo: pick(a.lo, b.lo, a.lo < b.lo),
                        hi: pick(a.hi, b.hi, a.hi > b.hi),
                    })
                }
                (a, b) => a.or(b),
            },
        }
    }

    /// True when no conjunct is present.
    pub fn is_trivial(&self) -> bool {
        self.time.is_none() && self.value.is_none() && self.float.is_none()
    }

    /// This predicate over a float series: every value conjunct mapped
    /// into the ordered-i64 domain and intersected into `value` (the
    /// integer bounds as floats, `i64::MIN`/`i64::MAX` as unbounded; a
    /// strict bound starts one image past its literal's).
    pub(crate) fn on_floats(&self) -> Predicate {
        let (min, max) = NON_NAN_IMAGES;
        // The images of the floats equal to `b` (both zeros for 0).
        let images = |b: i64| FloatRange::point(b as f64).ordered();
        let int = self.value.map(|(lo, hi)| {
            let lo = match (lo, self.strict.0) {
                (i64::MIN, _) => min,
                (b, true) => images(b - 1).1 + 1,
                (b, false) => images(b).0,
            };
            let hi = match (hi, self.strict.1) {
                (i64::MAX, _) => max,
                (b, true) => images(b + 1).0 - 1,
                (b, false) => images(b).1,
            };
            (lo, hi)
        });
        Predicate {
            time: self.time,
            value: int
                .into_iter()
                .chain(self.float.map(FloatRange::ordered))
                .reduce(|(al, ah), (bl, bh)| (al.max(bl), ah.min(bh))),
            ..Predicate::default()
        }
    }
}

/// A sliding-window description `sw(T_min, ΔT)`: window `k` covers
/// `[T_min + k·ΔT, T_min + (k+1)·ΔT)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SlidingWindow {
    /// Start of window 0.
    pub t_min: i64,
    /// Window width (must be positive).
    pub dt: i64,
}

impl SlidingWindow {
    /// The window index containing `t`, if `t ≥ t_min`.
    pub fn window_of(&self, t: i64) -> Option<usize> {
        (t >= self.t_min).then(|| ((t - self.t_min) / self.dt) as usize)
    }

    /// Inclusive time range of window `k` (`[start, start + dt − 1]`).
    pub fn range(&self, k: usize) -> TimeRange {
        let start = self.t_min + k as i64 * self.dt;
        TimeRange {
            lo: start,
            hi: start + self.dt - 1,
        }
    }
}

/// Comparison operators for inter-column predicates (Algorithm 2 line 8:
/// filters that need both columns decoded, applied to the joined vectors).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CmpOp {
    /// `a < b`
    Lt,
    /// `a <= b`
    Le,
    /// `a > b`
    Gt,
    /// `a >= b`
    Ge,
    /// `a = b`
    Eq,
}

impl CmpOp {
    /// Evaluates the comparison.
    pub fn eval(self, a: i64, b: i64) -> bool {
        match self {
            CmpOp::Lt => a < b,
            CmpOp::Le => a <= b,
            CmpOp::Gt => a > b,
            CmpOp::Ge => a >= b,
            CmpOp::Eq => a == b,
        }
    }
}

/// Element-wise binary operators for inter-column expressions (Q4).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BinOp {
    /// `a + b`
    Add,
    /// `a - b`
    Sub,
    /// `a * b`
    Mul,
}

impl BinOp {
    /// Applies the operator with wrapping semantics.
    pub fn apply(self, a: i64, b: i64) -> i64 {
        match self {
            BinOp::Add => a.wrapping_add(b),
            BinOp::Sub => a.wrapping_sub(b),
            BinOp::Mul => a.wrapping_mul(b),
        }
    }
}

/// Two-series (paired) aggregation functions computed over naturally
/// joined tuples — the §IV extension to `Σ AᵢBᵢ`-style aggregates.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PairAggFunc {
    /// `Σ AᵢBᵢ` over matching timestamps.
    Dot,
    /// Population covariance of the matched pairs.
    Covariance,
    /// Pearson correlation of the matched pairs.
    Correlation,
}

impl PairAggFunc {
    /// SQL spelling.
    pub fn name(self) -> &'static str {
        match self {
            PairAggFunc::Dot => "DOT",
            PairAggFunc::Covariance => "COV",
            PairAggFunc::Correlation => "CORR",
        }
    }
}

/// Logical query plans — the `e` of Algorithm 2.
#[derive(Debug, Clone, PartialEq)]
pub enum Plan {
    /// Scan one series.
    Scan {
        /// Series name.
        series: String,
    },
    /// `σ_θ(e)` with a single-column conjunctive predicate.
    Filter {
        /// Input plan.
        input: Box<Plan>,
        /// The predicate.
        pred: Predicate,
    },
    /// Whole-input aggregation `f(e, mask)`.
    Aggregate {
        /// Input plan.
        input: Box<Plan>,
        /// Aggregation function.
        func: AggFunc,
    },
    /// `G_{sw(T_min, ΔT): f}(e)` — one aggregate row per window instance.
    WindowAggregate {
        /// Input plan.
        input: Box<Plan>,
        /// Window description.
        window: SlidingWindow,
        /// Aggregation function.
        func: AggFunc,
    },
    /// Natural join on timestamps followed by an element-wise expression
    /// over the two value columns (Q4: `ts1.A + ts2.A`).
    JoinExpr {
        /// Left series plan.
        left: Box<Plan>,
        /// Right series plan.
        right: Box<Plan>,
        /// The element-wise operator.
        op: BinOp,
    },
    /// Series concatenation / merge ordered by time (Q5: `UNION … ORDER
    /// BY TIME`).
    Union {
        /// Left series plan.
        left: Box<Plan>,
        /// Right series plan.
        right: Box<Plan>,
    },
    /// Natural join emitting `(t, a_left, a_right)` tuples (Q6),
    /// optionally restricted by an inter-column predicate
    /// `left.A <op> right.A` (Algorithm 2 Eq. 3: applied to the decoded
    /// vectors after the timestamp join).
    Join {
        /// Left series plan.
        left: Box<Plan>,
        /// Right series plan.
        right: Box<Plan>,
        /// Inter-column predicate between the joined values.
        on: Option<CmpOp>,
    },
    /// Paired aggregation over the natural join (§IV: `Σ AᵢBᵢ`,
    /// covariance, correlation).
    JoinAggregate {
        /// Left series plan.
        left: Box<Plan>,
        /// Right series plan.
        right: Box<Plan>,
        /// The paired aggregate.
        func: PairAggFunc,
    },
}

impl Plan {
    /// Convenience: scan of a named series.
    pub fn scan(series: &str) -> Plan {
        Plan::Scan {
            series: series.to_string(),
        }
    }

    /// Pushes `pred` onto this plan.
    pub fn filter(self, pred: Predicate) -> Plan {
        Plan::Filter {
            input: Box::new(self),
            pred,
        }
    }

    /// Wraps this plan in a whole-input aggregate.
    pub fn aggregate(self, func: AggFunc) -> Plan {
        Plan::Aggregate {
            input: Box::new(self),
            func,
        }
    }

    /// Wraps this plan in a sliding-window aggregate.
    pub fn window(self, t_min: i64, dt: i64, func: AggFunc) -> Plan {
        Plan::WindowAggregate {
            input: Box::new(self),
            window: SlidingWindow { t_min, dt },
            func,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn time_range_algebra() {
        let a = TimeRange { lo: 0, hi: 100 };
        let b = TimeRange { lo: 50, hi: 200 };
        assert_eq!(a.intersect(&b), TimeRange { lo: 50, hi: 100 });
        assert!(!a.intersect(&b).is_empty());
        let c = TimeRange { lo: 150, hi: 200 };
        assert!(a.intersect(&c).is_empty());
        assert!(TimeRange::all().contains(i64::MIN));
    }

    #[test]
    fn predicate_conjunction() {
        let p = Predicate::time(0, 100).and(&Predicate::value(5, 50));
        assert_eq!(p.time, Some(TimeRange { lo: 0, hi: 100 }));
        assert_eq!(p.value, Some((5, 50)));
        let q = p.and(&Predicate::time(50, 200));
        assert_eq!(q.time, Some(TimeRange { lo: 50, hi: 100 }));
    }

    #[test]
    fn nan_float_bound_wins_on_either_side() {
        let band = FloatRange { lo: 1.0, hi: 5.0 };
        let nan = |lo: f64, hi: f64| Predicate {
            float: Some(FloatRange { lo, hi }),
            ..Predicate::default()
        };
        let band = Predicate {
            float: Some(band),
            ..Predicate::default()
        };
        for (lo, hi) in [(f64::NAN, 5.0), (1.0, f64::NAN)] {
            for p in [band.and(&nan(lo, hi)), nan(lo, hi).and(&band)] {
                let (l, h) = p.float.unwrap().ordered();
                assert!(l > h, "[{lo}, {hi}] ∧ [1, 5] matches nothing");
            }
        }
    }

    #[test]
    fn strict_bounds_exclude_their_literal_on_floats() {
        let img = f64_to_ordered_i64;
        // `x > 20 AND x < 21` as the parser normalizes it.
        let p = Predicate {
            value: Some((21, 20)),
            strict: (true, true),
            ..Predicate::default()
        };
        let (lo, hi) = p.on_floats().value.unwrap();
        assert!(lo <= img(20.5) && img(20.5) <= hi);
        assert!(img(20.0) < lo && hi < img(21.0));
        // `x > 0` excludes both zeros, `x < 0` too.
        let gt0 = Predicate {
            value: Some((1, i64::MAX)),
            strict: (true, false),
            ..Predicate::default()
        };
        let (lo, _) = gt0.on_floats().value.unwrap();
        assert_eq!(lo, img(f64::from_bits(1)));
        let lt0 = Predicate {
            value: Some((i64::MIN, -1)),
            strict: (false, true),
            ..Predicate::default()
        };
        let (_, hi) = lt0.on_floats().value.unwrap();
        assert_eq!(hi, img(-f64::from_bits(1)));
        // Of equal integer bounds the inclusive one is tighter.
        let ge21 = Predicate::value(21, i64::MAX);
        assert_eq!(gt0.and(&p).strict, (true, true));
        assert_eq!(p.and(&ge21).strict, (false, true));
        assert_eq!(ge21.and(&p).strict, (false, true));
    }

    #[test]
    fn non_nan_images_bound_every_float() {
        let inf = |v: f64| f64_to_ordered_i64(v);
        assert_eq!(NON_NAN_IMAGES, (inf(f64::NEG_INFINITY), inf(f64::INFINITY)));
        let (lo, hi) = FloatRange { lo: 0.0, hi: 0.0 }.ordered();
        assert!(
            lo <= inf(-0.0) && inf(0.0) <= hi,
            "a zero bound admits both zeros"
        );
        assert!(
            inf(f64::NAN) > hi && inf(-f64::NAN) < lo,
            "NaN lies outside"
        );
    }

    #[test]
    fn sliding_window_indexing() {
        let sw = SlidingWindow { t_min: 100, dt: 50 };
        assert_eq!(sw.window_of(100), Some(0));
        assert_eq!(sw.window_of(149), Some(0));
        assert_eq!(sw.window_of(150), Some(1));
        assert_eq!(sw.window_of(99), None);
        assert_eq!(sw.range(2), TimeRange { lo: 200, hi: 249 });
    }

    #[test]
    fn binop_semantics() {
        assert_eq!(BinOp::Add.apply(2, 3), 5);
        assert_eq!(BinOp::Sub.apply(2, 3), -1);
        assert_eq!(BinOp::Mul.apply(i64::MAX, 2), -2); // wrapping
    }

    #[test]
    fn plan_builders_compose() {
        let p = Plan::scan("velocity")
            .filter(Predicate::time(0, 10))
            .aggregate(AggFunc::Avg);
        match p {
            Plan::Aggregate { input, func } => {
                assert_eq!(func, AggFunc::Avg);
                assert!(matches!(*input, Plan::Filter { .. }));
            }
            _ => panic!("wrong shape"),
        }
    }
}
