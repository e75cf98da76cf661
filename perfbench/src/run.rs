//! What the workloads share: loading series, repeated timed set-up, the
//! closed-loop runner, traced query execution and the per-layer probes.

use std::collections::BTreeMap;
use std::hint::black_box;
use std::time::{Duration, Instant};

use etsqp_core::cancel::CancellationToken;
use etsqp_core::decode::{decode_column, DecodeOptions};
use etsqp_core::engine::IotDb;
use etsqp_core::exec::StatsSnapshot;
use etsqp_core::expr::TimeRange;
use etsqp_core::partial::PartialCache;
use etsqp_core::physical::pipe;
use etsqp_core::plan::{self, QueryResult};
use etsqp_core::sql::{self, Statement};
use etsqp_encoding::{stream_vbyte, Encoding};
use etsqp_storage::store::SeriesStore;

use crate::check::{self, Expect};
use crate::gen::{FloatSeries, IntSeries, Op, Rng, SqlQuery};
use crate::report::{Report, RssWatch};
use crate::stats;
use crate::trace::Tracer;

/// Set-up time a run spends before its measured phase.
const SETUP_BUDGET: Duration = Duration::from_millis(1500);

/// Fewest set-ups before the measured phase.
const MIN_SETUPS: usize = 3;

/// Points per `append_all` call when loading.
pub const LOAD_BATCH: usize = 1024;

/// Longest warm-up before the measured phase.
const WARMUP: Duration = Duration::from_secs(1);

/// Fewest measured passes, however long they take.
const MIN_PASSES: usize = 3;

/// Per-run state every workload writes into.
pub struct Ctx {
    /// Input seed.
    pub seed: u64,
    /// Length of the measured phase.
    pub seconds: f64,
    /// Time origin of spans.
    pub epoch: Instant,
    /// Span log (records nothing on untraced runs).
    pub tracer: Tracer,
    /// Metrics and failures.
    pub report: Report,
    /// Per-layer accumulators.
    pub acc: LayerAcc,
    /// Workload-specific provenance.
    pub prov: crate::report::Provenance,
    /// Resident set at process start (MB).
    pub rss_start_mb: f64,
}

impl Ctx {
    /// Whether this is the traced run.
    pub fn traced(&self) -> bool {
        self.tracer.on()
    }
}

/// Per-layer samples gathered during a traced run.
#[derive(Debug, Default)]
pub struct LayerAcc {
    /// Named sample lists reported as medians.
    pub samples: BTreeMap<&'static str, Vec<f64>>,
    /// Named sums reported as means per traced SQL query.
    pub sums: BTreeMap<&'static str, f64>,
    /// Traced SQL queries behind `sums`.
    pub traced_sql: u64,
    /// Partial-cache hits over every query.
    pub hits: u64,
    /// Partial-cache misses over every query.
    pub misses: u64,
}

impl LayerAcc {
    /// Adds a sample to a median-reported list.
    pub fn sample(&mut self, name: &'static str, v: f64) {
        self.samples.entry(name).or_default().push(v);
    }

    fn add(&mut self, name: &'static str, v: f64) {
        *self.sums.entry(name).or_default() += v;
    }

    /// Counts the partial-cache traffic of any query.
    pub fn cache(&mut self, st: &StatsSnapshot) {
        self.hits += st.cache_hits;
        self.misses += st.cache_misses;
    }

    /// Folds one traced query's engine counters. `run_ns` is the
    /// executor's wall time net of compilation.
    pub fn fold(&mut self, st: &StatsSnapshot, run_ns: f64, rows: usize, pruned_expected: u64) {
        let threads = plan::PipelineConfig::default().threads as f64;
        let stages = [
            ("stage.io_ns", st.io_ns),
            ("stage.unpack_ns", st.unpack_ns),
            ("stage.delta_ns", st.delta_ns),
            ("stage.filter_ns", st.filter_ns),
            ("stage.agg_ns", st.agg_ns),
            ("stage.merge_ns", st.merge_ns),
        ];
        let mut staged = 0.0;
        for (name, ns) in stages {
            self.add(name, ns as f64);
            staged += ns as f64;
        }
        self.add("exec.idle_ns", st.idle_ns as f64);
        self.add(
            "exec.unattributed_ns",
            run_ns * threads - staged - st.idle_ns as f64,
        );
        self.add("prune.pages_kept", st.pages_loaded as f64);
        self.add("prune.pages_pruned", st.pages_pruned as f64);
        self.add("prune.pages_pruned_expected", pruned_expected as f64);
        self.add("pool.steals", st.steals as f64);
        self.add("pool.local_pops", st.local_pops as f64);
        self.add("result.rows", rows as f64);
        self.add("result.materialized_bytes", st.materialized_bytes as f64);
        self.traced_sql += 1;
    }

    /// Writes every per-layer metric into `out`; layers without samples
    /// on this workload report 0.
    pub fn finish(&self, out: &mut BTreeMap<&'static str, f64>) {
        for m in crate::report::PER_LAYER {
            out.insert(m.name, 0.0);
        }
        for (name, v) in &self.samples {
            out.insert(name, stats::median(v));
        }
        let n = self.traced_sql.max(1) as f64;
        for (name, v) in &self.sums {
            out.insert(name, v / n);
        }
        let lookups = (self.hits + self.misses).max(1) as f64;
        out.insert("partial.hit_ratio", self.hits as f64 / lookups);
        out.insert("partial.entries", PartialCache::global().len() as f64);
        if let (Some(t), Some(u)) = (
            self.samples.get("trace.traced_wall_us"),
            self.samples.get("trace.untraced_wall_us"),
        ) {
            out.insert("trace.overhead_us", stats::median(t) - stats::median(u));
        }
        out.retain(|k, _| crate::report::PER_LAYER.iter().any(|m| m.name == *k));
    }
}

/// Creates `s` in `db` and appends its first `n` points in
/// [`LOAD_BATCH`] batches, timing each call as a `storage.append_us`
/// sample.
pub fn load_int(db: &IotDb, s: &IntSeries, n: usize, acc: &mut LayerAcc) -> Result<(), String> {
    db.create_series_with(&s.name, Encoding::Ts2Diff, s.enc)
        .map_err(|e| e.to_string())?;
    let (ts, vals) = (&s.ts[..n], &s.vals[..n]);
    for (ts, vals) in ts.chunks(LOAD_BATCH).zip(vals.chunks(LOAD_BATCH)) {
        let t = Instant::now();
        db.append_all(&s.name, ts, vals)
            .map_err(|e| e.to_string())?;
        acc.sample("storage.append_us", t.elapsed().as_secs_f64() * 1e6);
    }
    Ok(())
}

/// Creates a float series and appends it point by point.
pub fn load_float(db: &IotDb, s: &FloatSeries) -> Result<(), String> {
    db.create_series_f64(&s.name, s.enc)
        .map_err(|e| e.to_string())?;
    for (&t, &v) in s.ts.iter().zip(&s.vals) {
        db.append_f64(&s.name, t, v).map_err(|e| e.to_string())?;
    }
    Ok(())
}

/// Flushes `db`, recording the time as a `storage.flush_ms` sample.
pub fn flush(db: &IotDb, acc: &mut LayerAcc) -> Result<(), String> {
    let t = Instant::now();
    db.flush().map_err(|e| e.to_string())?;
    acc.sample("storage.flush_ms", t.elapsed().as_secs_f64() * 1e3);
    Ok(())
}

/// Set-up durations of one run: set-ups repeated before the measured
/// phase and, as many again, after it. The two ends of a run lie half a
/// minute apart, so a slow stretch of a shared host at one end does not
/// set `setup_s` alone.
#[derive(Debug, Default)]
pub struct Setups {
    times: Vec<f64>,
}

impl Setups {
    fn timed<T>(
        &mut self,
        acc: &mut LayerAcc,
        setup: &mut impl FnMut(&mut LayerAcc) -> Result<T, String>,
    ) -> Result<T, String> {
        let t = Instant::now();
        let built = setup(acc)?;
        self.times.push(t.elapsed().as_secs_f64());
        Ok(built)
    }

    /// Runs `setup` until it has used [`SETUP_BUDGET`] and run at least
    /// [`MIN_SETUPS`] times, dropping each result before building the
    /// next, and returns the last result.
    pub fn before<T>(
        &mut self,
        acc: &mut LayerAcc,
        setup: &mut impl FnMut(&mut LayerAcc) -> Result<T, String>,
    ) -> Result<T, String> {
        let began = Instant::now();
        let mut built = self.timed(acc, setup)?;
        while self.times.len() < MIN_SETUPS || began.elapsed() < SETUP_BUDGET {
            drop(built);
            built = self.timed(acc, setup)?;
        }
        Ok(built)
    }

    /// Runs `setup` as many times again as [`Setups::before`] did,
    /// dropping each result, and records `setup_s` (the median over both
    /// ends), the number of set-ups and their spread within the run
    /// (interquartile range over the median).
    pub fn after<T>(
        mut self,
        r: &mut Report,
        acc: &mut LayerAcc,
        setup: &mut impl FnMut(&mut LayerAcc) -> Result<T, String>,
    ) -> Result<(), String> {
        for _ in 0..self.times.len() {
            drop(self.timed(acc, setup)?);
        }
        let median = stats::median(&self.times);
        r.e2e.insert("setup_s", median);
        r.extra
            .push(("setup_repeats", self.times.len() as f64, "count"));
        if let Some([q1, _, q3]) = stats::quartiles(&self.times) {
            r.extra.push(("setup_spread", (q3 - q1) / median, "ratio"));
        }
        Ok(())
    }
}

/// Pages whose header statistics alone exclude them from `q`.
pub fn pruned_expected(store: &SeriesStore, q: &SqlQuery, inputs: &[IntSeries]) -> u64 {
    q.sources
        .iter()
        .filter_map(|&i| store.peek_pages(&inputs[i].name).ok())
        .flatten()
        .filter(|p| {
            let h = &p.header;
            !h.overlaps_time(q.lo, q.hi) || q.value_gt.is_some_and(|x| h.max_value <= x)
        })
        .count() as u64
}

/// Runs a SQL query with one span per layer call — parse, compile,
/// execute — under a root span, and folds its counters into `acc`.
///
/// Returns the result and the time an untraced `IotDb::query` would have
/// spent (parse + execute, without the separate compile).
pub fn traced_sql(
    db: &IotDb,
    sql_text: &str,
    trace_id: u64,
    parent: Option<u64>,
    tracer: &mut Tracer,
    acc: &mut LayerAcc,
    pruned_expected: u64,
) -> Result<(QueryResult, f64), String> {
    let cfg = db.options().pipeline;
    let t0 = Instant::now();
    let plan = match sql::parse_statement(sql_text).map_err(|e| e.to_string())? {
        Statement::Query(p) => p,
        Statement::Explain(_) => return Err("EXPLAIN in a workload".into()),
    };
    let t1 = Instant::now();
    black_box(pipe::compile(&plan, db.store(), &cfg).map_err(|e| e.to_string())?);
    let t2 = Instant::now();
    let res = plan::execute_ctl(&plan, db.store(), &cfg, &CancellationToken::none())
        .map_err(|e| e.to_string())?;
    let t3 = Instant::now();
    let root = tracer.record(trace_id, parent, "iotdb.query", t0, t3);
    tracer.record(trace_id, Some(root), "sql.parse", t0, t1);
    tracer.record(trace_id, Some(root), "pipe.compile", t1, t2);
    tracer.record(trace_id, Some(root), "plan.execute_ctl", t2, t3);
    let us = |a: Instant, b: Instant| (b - a).as_secs_f64() * 1e6;
    let run_us = us(t2, t3) - us(t1, t2);
    acc.sample("sql.parse_us", us(t0, t1));
    acc.sample("pipe.compile_us", us(t1, t2));
    acc.sample("exec.run_us", run_us);
    acc.fold(&res.stats, run_us * 1e3, res.rows.len(), pruned_expected);
    Ok((res, us(t0, t3) - us(t1, t2)))
}

/// A closed-loop workload ready to run: the database, its operations
/// and, per operation, the expected answer, the tuples its time range
/// covers and the pages its predicate should prune.
pub struct Prepared {
    /// The loaded database.
    pub db: IotDb,
    /// Generated integer series.
    pub ints: Vec<IntSeries>,
    /// Generated float series.
    pub floats: Vec<FloatSeries>,
    /// Operations, in issue order.
    pub ops: Vec<Op>,
    /// Expected answers.
    pub expects: Vec<Expect>,
    /// Tuples covered by each operation's time range.
    pub tuples: Vec<u64>,
    /// Pages each SQL operation's predicate excludes by header.
    pub pruned: Vec<u64>,
}

impl Prepared {
    /// Computes expectations, tuple counts and prune counts (outside any
    /// timing). Every `oracle_every`-th SQL aggregate also cross-checks
    /// its reference against `oracle::execute` (see [`check::expect_sql`]).
    pub fn finish(
        db: IotDb,
        ints: Vec<IntSeries>,
        floats: Vec<FloatSeries>,
        ops: Vec<Op>,
        oracle_every: usize,
    ) -> Result<Prepared, String> {
        let mut expects = Vec::with_capacity(ops.len());
        let mut tuples = Vec::with_capacity(ops.len());
        let mut pruned = Vec::with_capacity(ops.len());
        for (k, op) in ops.iter().enumerate() {
            match op {
                Op::Sql(q) => {
                    let cross = k % oracle_every.max(1) == 0;
                    expects.push(check::expect_sql(db.store(), q, &ints, cross)?);
                    tuples.push(
                        q.sources
                            .iter()
                            .map(|&i| ints[i].count_in(q.lo, q.hi))
                            .sum(),
                    );
                    pruned.push(pruned_expected(db.store(), q, &ints));
                }
                Op::Float(f) => {
                    let s = &floats[f.series];
                    let a = s.ts.partition_point(|&t| t < f.lo);
                    let b = s.ts.partition_point(|&t| t <= f.hi);
                    expects.push(float_expect(f.func, &s.vals[a..b]));
                    tuples.push((b - a) as u64);
                    pruned.push(0);
                }
            }
        }
        Ok(Prepared {
            db,
            ints,
            floats,
            ops,
            expects,
            tuples,
            pruned,
        })
    }
}

/// The expected float aggregate: MIN/MAX/COUNT bit-exact; AVG and SUM
/// depend on summation order, so they get a 1e-9 relative tolerance.
fn float_expect(func: etsqp_core::expr::AggFunc, vals: &[f64]) -> Expect {
    use etsqp_core::expr::AggFunc::*;
    let want = if vals.is_empty() {
        None
    } else {
        match func {
            Min => vals.iter().copied().reduce(f64::min),
            Max => vals.iter().copied().reduce(f64::max),
            Count => Some(vals.len() as f64),
            Sum => Some(vals.iter().sum()),
            _ => Some(vals.iter().sum::<f64>() / vals.len() as f64),
        }
    };
    let rel_tol = if matches!(func, Min | Max | Count) {
        0.0
    } else {
        1e-9
    };
    Expect::Float { want, rel_tol }
}

/// Executes op `i`, traced or not. Returns the service time and whether
/// the answer was right (errors are returned as `Err`).
fn run_op(
    ctx: &mut Ctx,
    p: &Prepared,
    i: usize,
    traced: bool,
    trace_id: u64,
) -> Result<(f64, Result<(), String>), String> {
    match &p.ops[i] {
        Op::Sql(q) => {
            let t = Instant::now();
            let res = if traced {
                traced_sql(
                    &p.db,
                    &q.sql,
                    trace_id,
                    None,
                    &mut ctx.tracer,
                    &mut ctx.acc,
                    p.pruned[i],
                )?
                .0
            } else {
                p.db.query(&q.sql).map_err(|e| e.to_string())?
            };
            let secs = t.elapsed().as_secs_f64();
            ctx.acc.cache(&res.stats);
            Ok((secs, check::check_rows(&p.expects[i], &res.rows)))
        }
        Op::Float(f) => {
            let range = Some(TimeRange { lo: f.lo, hi: f.hi });
            let t = Instant::now();
            let got =
                p.db.aggregate_f64(&p.floats[f.series].name, range, None, f.func)
                    .map_err(|e| e.to_string())?;
            let end = Instant::now();
            if traced {
                ctx.tracer.record(trace_id, None, "float.aggregate", t, end);
                ctx.acc
                    .sample("float.aggregate_us", (end - t).as_secs_f64() * 1e6);
            }
            Ok((
                (end - t).as_secs_f64(),
                check::check_float(&p.expects[i], got),
            ))
        }
    }
}

/// Runs the operations in a closed loop (one client, next operation
/// only after the previous answer) in whole passes until `ctx.seconds`
/// have elapsed (at least [`MIN_PASSES`]), after a warm-up of at most
/// [`WARMUP`] that issues the largest operations first, so the biggest
/// result buffers have been allocated once before timing starts. Each pass issues
/// every operation once in a fresh seeded order, so which partials
/// happen to be cached averages out over the passes instead of being
/// fixed by one order. Every answer is checked; the check is the
/// client's think time and is not part of the service time. Each pass is
/// one stretch of `peak_rss_mb` (the first also holds the warm-up).
///
/// On a traced run every other operation is traced, so traced and
/// untraced samples share the mix and the tracing overhead is their
/// difference.
pub fn closed_loop(ctx: &mut Ctx, p: &Prepared) -> Result<(), String> {
    let inputs = crate::gen::input_bytes(&p.ints, &p.floats);
    let mut rss = RssWatch::start(ctx.rss_start_mb, inputs)?;
    let warm_end = Instant::now() + WARMUP;
    let mut biggest_first: Vec<usize> = (0..p.ops.len()).collect();
    biggest_first.sort_by_key(|&i| std::cmp::Reverse(p.tuples[i]));
    for i in biggest_first {
        if Instant::now() >= warm_end {
            break;
        }
        match run_op(ctx, p, i, false, 0) {
            Ok((_, Ok(()))) => {}
            Ok((_, Err(e))) => ctx
                .report
                .wrong(format!("warm-up {}: {e}", p.ops[i].kind())),
            Err(e) => {
                ctx.report.errors += 1;
                ctx.report
                    .wrong_notes
                    .push(format!("warm-up {} failed: {e}", p.ops[i].kind()));
            }
        }
    }
    ctx.acc.hits = 0;
    ctx.acc.misses = 0;

    let mut lat_ms = Vec::new();
    let mut op_s = vec![Vec::new(); p.ops.len()];
    let mut passes = 0;
    let start = Instant::now();
    let mut trace_id = 0u64;
    let mut order: Vec<usize> = (0..p.ops.len()).collect();
    let mut rng = Rng::new(ctx.seed, 3);
    for pass in 0.. {
        if pass >= MIN_PASSES && start.elapsed().as_secs_f64() >= ctx.seconds {
            break;
        }
        rng.shuffle(&mut order);
        passes += 1;
        for (pos, &i) in order.iter().enumerate() {
            trace_id += 1;
            let traced = ctx.traced() && (pass + pos) % 2 == 0;
            ctx.report.attempted += 1;
            match run_op(ctx, p, i, traced, trace_id) {
                Ok((secs, verdict)) => {
                    if let Err(e) = verdict {
                        ctx.report.wrong(format!("{} #{i}: {e}", p.ops[i].kind()));
                    }
                    lat_ms.push(secs * 1e3);
                    op_s[i].push(secs);
                    let wall = if traced {
                        "trace.traced_wall_us"
                    } else {
                        "trace.untraced_wall_us"
                    };
                    if ctx.traced() && matches!(p.ops[i], Op::Sql(_)) {
                        ctx.acc.sample(wall, secs * 1e6);
                    }
                }
                Err(e) => {
                    ctx.report.errors += 1;
                    ctx.report
                        .wrong_notes
                        .push(format!("{} #{i} failed: {e}", p.ops[i].kind()));
                }
            }
        }
        rss.mark();
    }
    rss.finish(&mut ctx.report)?;
    query_metrics(&mut ctx.report, &lat_ms);
    // Every pass is the same work. A typical pass charges each operation
    // its median service time over the passes, so a stall from outside
    // the program that hits a few operations does not move it; a slower
    // engine does.
    let per_pass: f64 = op_s.iter().map(|v| stats::median(v)).sum::<f64>().max(1e-9);
    let tuples: u64 = p.tuples.iter().sum();
    ctx.report
        .e2e
        .insert("queries_per_s", p.ops.len() as f64 / per_pass);
    ctx.report
        .e2e
        .insert("tuples_per_s", tuples as f64 / per_pass);
    ctx.report.extra.push(("passes", passes as f64, "count"));
    Ok(())
}

/// Records the printed `query_p50_ms` and `query_p99_ms` (the highest
/// percentile with at least ten samples beyond it, see [`stats::upper`])
/// with the percentile and the sample count behind it.
pub fn query_metrics(r: &mut Report, lat_ms: &[f64]) {
    let up = stats::upper(lat_ms);
    r.extra.push(("query_p50_ms", stats::median(lat_ms), "ms"));
    r.extra.push(("query_p99_ms", up.value, "ms"));
    r.extra.push(("query_upper_pct", up.pct, "%"));
    r.extra.push(("query_n", up.n as f64, "count"));
}

/// Median over `rounds` timings of `f`, each repeated until it has run
/// for at least 5 ms, in ns per unit of `units` work per call.
fn ns_per_unit(units: usize, rounds: usize, mut f: impl FnMut()) -> f64 {
    let mut per = Vec::with_capacity(rounds);
    for _ in 0..rounds {
        let t = Instant::now();
        let mut calls = 0usize;
        while calls == 0 || t.elapsed() < Duration::from_millis(5) {
            f();
            calls += 1;
        }
        per.push(t.elapsed().as_nanos() as f64 / (calls * units.max(1)) as f64);
    }
    stats::median(&per)
}

/// Per-layer probes on the workload's own pages: decode cost per codec
/// (checked against the reference decoder first), the Stream VByte
/// kernel on the same bytes, snapshot time and bytes per point.
pub fn probe_layers(ctx: &mut Ctx, store: &SeriesStore, ints: &[IntSeries]) {
    let opts = DecodeOptions::default();
    let (mut bytes, mut points) = (0usize, 0u64);
    for s in ints {
        let Ok(pages) = store.peek_pages(&s.name) else {
            ctx.report.wrong(format!("{}: no pages", s.name));
            continue;
        };
        let values: usize = pages.iter().map(|p| p.header.count as usize).sum();
        bytes += pages.iter().map(|p| p.encoded_len()).sum::<usize>();
        points += values as u64;
        let mut out = Vec::new();
        for (k, page) in pages.iter().enumerate() {
            let want = page.decode().map(|(_, v)| v);
            let got = decode_column(s.enc, &page.val_bytes, &opts, &mut out).map(|_| &out);
            if !matches!((&want, &got), (Ok(w), Ok(g)) if w == *g) {
                ctx.report
                    .wrong(format!("{} page {k}: decode_column disagrees", s.name));
            }
        }
        let name: &'static str = match s.enc {
            Encoding::Ts2Diff => "decode.ts2diff.ns_per_value",
            Encoding::Sprintz => "decode.sprintz.ns_per_value",
            Encoding::StreamVByte => "decode.stream_vbyte.ns_per_value",
            Encoding::DeltaRle => "decode.delta_rle.ns_per_value",
            _ => continue,
        };
        let ns = ns_per_unit(values, 5, || {
            for page in &pages {
                let _ = black_box(decode_column(s.enc, &page.val_bytes, &opts, &mut out));
            }
        });
        ctx.acc.sample(name, ns);
        if s.enc == Encoding::StreamVByte {
            let parsed: Vec<_> = pages
                .iter()
                .filter_map(|p| stream_vbyte::parse(&p.val_bytes).ok())
                .filter(|p| p.mode == 0)
                .collect();
            let deltas: usize = parsed.iter().map(|p| p.num_deltas()).sum();
            let mut buf = vec![0u32; parsed.iter().map(|p| p.num_deltas()).max().unwrap_or(0)];
            let ns = ns_per_unit(deltas, 5, || {
                for p in &parsed {
                    let n = p.num_deltas();
                    black_box(etsqp_simd::svb::decode_quads(
                        p.controls,
                        p.data,
                        n,
                        &mut buf[..n],
                    ));
                }
            });
            ctx.acc.sample("simd.svb_kernel.ns_per_value", ns);
        }
    }
    ctx.acc.sample(
        "storage.bytes_per_point",
        bytes as f64 / points.max(1) as f64,
    );
    if let Some(s) = ints.first() {
        for _ in 0..200 {
            let t = Instant::now();
            let _ = black_box(store.snapshot(&s.name));
            ctx.acc
                .sample("storage.snapshot_us", t.elapsed().as_secs_f64() * 1e6);
        }
    }
}
