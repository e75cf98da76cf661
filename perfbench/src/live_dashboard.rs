//! `live_dashboard`: an in-process `etsqp-serve` server on loopback. One
//! `Client` connection sends recent-window dashboard queries while one
//! writer thread appends fixed-rate batches to the same series, so every
//! query spans sealed pages and the hot chunk. The measured phase first
//! sends open-loop at a fixed rate (latency from the due time, printed),
//! then closed-loop on the same connection; throughput comes from the
//! closed-loop round trips, so the program, not the offered rate, sets it.
//!
//! The working set (4 series × ~200 pages, a few functions) fits the
//! partial cache, so per-query fixed costs dominate: parse, compile, the
//! pool's wait, the server's idle polling and cache lookups.
//!
//! Every query's upper time bound is the last timestamp the writer had
//! acknowledged when the query was sent. Points at or below it are all
//! in the store and later appends lie above it, so the answer is fixed
//! and is checked after the run against the benchmark's own inputs.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, AtomicI64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use etsqp_core::engine::{EngineOptions, IotDb};
use etsqp_core::expr::AggFunc;
use etsqp_core::plan::Value;
use etsqp_encoding::Encoding;
use etsqp_serve::client::{Client, Response};
use etsqp_serve::server::{self, ServeConfig, ServerHandle};

use crate::check::{self, Expect};
use crate::gen::{self, IntSeries, Rng, SqlQuery};
use crate::report::RssWatch;
use crate::run::{self, Ctx, LayerAcc, Setups};
use crate::stats;
use crate::trace::Tracer;

/// History points per series before the run (~2.3 days at 1 point/s).
pub const HISTORY: usize = 200_000;

/// Data clock step (ms).
const STEP: i64 = 1000;

/// First timestamp (ms).
const T0: i64 = 1_700_000_000_000;

/// Offered query rate of the measured phase.
pub const RATE_QPS: f64 = 400.0;

/// Share of the measured phase sent open-loop at [`RATE_QPS`] (latency);
/// the rest is sent closed-loop on the same connection (throughput).
const OPEN_SHARE: f64 = 0.4;

/// Queries per stretch of `peak_rss_mb`.
const RSS_WINDOW: usize = 512;

/// Writer batches per second.
const WRITER_HZ: f64 = 100.0;

/// Points per series per writer batch.
const BATCH: usize = 2;

/// Rates tried for `sustained_qps`, each for [`LADDER_STEP`], with the
/// name under which each rung's upper latency is printed (the highest
/// percentile with ten samples beyond it: p95 at 400 samples).
const LADDER: [(f64, &str); 4] = [
    (400.0, "ladder.400qps.upper_ms"),
    (800.0, "ladder.800qps.upper_ms"),
    (1600.0, "ladder.1600qps.upper_ms"),
    (3200.0, "ladder.3200qps.upper_ms"),
];

/// Length of one ladder rung.
const LADDER_STEP: Duration = Duration::from_millis(1000);

/// The `query_p99_ms` limit a ladder rung must meet.
pub const P99_LIMIT_MS: f64 = 20.0;

/// One series per value codec, all on one clock.
const SERIES: [(&str, Encoding); 4] = [
    ("ld_ts2diff", Encoding::Ts2Diff),
    ("ld_sprintz", Encoding::Sprintz),
    ("ld_svb", Encoding::StreamVByte),
    ("ld_drle", Encoding::DeltaRle),
];

/// Dashboard query shapes.
const KINDS: [&str; 4] = ["avg_1h", "max_5m", "sum_all", "p95_1h"];

/// Generates history plus `future` writer points per series (stream 1).
pub fn generate(seed: u64, future: usize) -> Vec<IntSeries> {
    let mut rng = Rng::new(seed, 1);
    let ts = gen::timestamps(&mut rng, HISTORY + future, T0, STEP, 0);
    SERIES
        .iter()
        .map(|&(name, enc)| gen::int_series(&mut rng, name, enc, ts.clone()))
        .collect()
}

/// The seeded query list (stream 2): blocks of every (shape, series)
/// pair, each block shuffled, so any window of 16 queries has the full
/// mix.
pub fn templates(seed: u64) -> Vec<(&'static str, usize)> {
    let mut rng = Rng::new(seed, 2);
    let mut out = Vec::new();
    for _ in 0..64 {
        let mut block: Vec<(&'static str, usize)> = KINDS
            .iter()
            .flat_map(|&k| (0..SERIES.len()).map(move |s| (k, s)))
            .collect();
        rng.shuffle(&mut block);
        out.extend(block);
    }
    out
}

/// The query of shape `kind` on series `si` as of acknowledged
/// timestamp `now`.
pub fn dashboard_query(kind: &'static str, si: usize, name: &str, now: i64) -> SqlQuery {
    let bucket = 300_000;
    let (lo, func, grouped) = match kind {
        "avg_1h" => (now - 3_600_000 + 1, AggFunc::Avg, true),
        "max_5m" => (now - 300_000 + 1, AggFunc::Max, false),
        "sum_all" => (i64::MIN, AggFunc::Sum, false),
        _ => (now - 3_600_000 + 1, AggFunc::P95, true),
    };
    let within = if lo == i64::MIN {
        format!("time <= {now}")
    } else {
        format!("time >= {lo} AND time <= {now}")
    };
    let mut sql = format!("SELECT {}({name}) FROM {name} WHERE {within}", func.name());
    if grouped {
        sql.push_str(&format!(" GROUP BY TIME({bucket})"));
    }
    SqlQuery {
        kind,
        sql,
        sources: vec![si],
        lo,
        hi: now,
        value_gt: None,
        buckets: grouped.then(|| (lo.div_euclid(bucket) * bucket, bucket)),
        func: Some(func),
    }
}

/// A loaded database with its server; shuts the server down on drop.
struct Live {
    db: Arc<IotDb>,
    server: Option<ServerHandle>,
}

impl Drop for Live {
    fn drop(&mut self) {
        if let Some(h) = self.server.take() {
            h.shutdown();
        }
    }
}

/// One sent query and what came back.
struct Sent {
    q: SqlQuery,
    rows: Result<Vec<Vec<Value>>, String>,
}

/// What one open-loop phase measured.
#[derive(Default)]
struct Phase {
    lat_ms: Vec<f64>,
    late_ms: Vec<f64>,
    /// Shape (kind, series), round-trip time (s) and tuples covered, per
    /// answered query.
    served: Vec<((&'static str, usize), f64, f64)>,
    completed: u64,
    errors: u64,
    wall_s: f64,
}

impl Phase {
    /// Throughput over the program's typical service times: every
    /// answered query is charged the median round trip of its shape
    /// (kind × series). A stall from outside the program that hits a few
    /// queries then does not move it; a slower query path does.
    fn service_throughput(&self) -> (f64, f64) {
        let mut by_shape: BTreeMap<(&str, usize), Vec<f64>> = BTreeMap::new();
        for &(shape, rtt, _) in &self.served {
            by_shape.entry(shape).or_default().push(rtt);
        }
        let busy: f64 = by_shape
            .values()
            .map(|v| v.len() as f64 * stats::median(v))
            .sum::<f64>()
            .max(1e-9);
        let tuples: f64 = self.served.iter().map(|s| s.2).sum();
        (self.served.len() as f64 / busy, tuples / busy)
    }
}

/// Shared state of the sending side.
struct Sender<'a> {
    db: &'a IotDb,
    client: Client,
    ints: &'a [IntSeries],
    templates: Vec<(&'static str, usize)>,
    next: usize,
    acked: &'a AtomicI64,
    /// Answers left to check after the run.
    sent: Vec<Sent>,
    /// Wrong answers found so far.
    wrong: Vec<String>,
    /// Failed queries (already counted as errors by their phase).
    failed: Vec<String>,
    /// Peak memory per [`RSS_WINDOW`] queries, until taken.
    rss: Option<RssWatch>,
}

impl Sender<'_> {
    /// Checks one answer against the benchmark's own inputs.
    fn check(&mut self, s: Sent) {
        match &s.rows {
            Ok(rows) => {
                let want = Expect::Rows(check::rows_from_inputs(&s.q, &self.ints[s.q.sources[0]]));
                if let Err(e) = check::check_rows(&want, rows) {
                    self.wrong.push(format!("{}: {e}", s.q.kind));
                }
            }
            Err(e) => self.failed.push(format!("{} failed: {e}", s.q.kind)),
        }
    }

    /// Sends queries for `length`: open-loop at `Some(rate)`, latency
    /// counted from each query's due time, or closed-loop at `None`, each
    /// query sent once the previous answer is in. Traced runs trace every
    /// other query. With `check_now` each answer is checked before the next query is
    /// due (so the phase keeps no answers in memory); otherwise answers
    /// are kept for [`Sender::check_rest`], which suits rates whose gaps
    /// are too short for a check.
    fn phase(
        &mut self,
        rate: Option<f64>,
        length: Duration,
        check_now: bool,
        tracer: &mut Tracer,
        acc: &mut LayerAcc,
    ) -> Phase {
        let mut ph = Phase::default();
        let start = Instant::now();
        for i in 0u64.. {
            let due = match rate {
                Some(r) => start + Duration::from_secs_f64(i as f64 / r),
                None => Instant::now(),
            };
            if due >= start + length {
                break;
            }
            if let Some(wait) = due.checked_duration_since(Instant::now()) {
                std::thread::sleep(wait);
            }
            let send = Instant::now();
            ph.late_ms.push((send - due).as_secs_f64() * 1e3);
            let (kind, si) = self.templates[self.next % self.templates.len()];
            self.next += 1;
            let q = dashboard_query(
                kind,
                si,
                &self.ints[si].name,
                self.acked.load(Ordering::Acquire),
            );
            let traced = tracer.on() && i % 2 == 0;
            let trace_id = self.next as u64;
            let pruned = if traced {
                run::pruned_expected(self.db.store(), &q, self.ints)
            } else {
                0
            };
            let rows = match self.client.query(&q.sql) {
                Ok(Response::Rows(w)) => Ok(w.rows),
                Ok(Response::ServerError(e)) => Err(format!("server error: {e:?}")),
                Err(e) => Err(format!("client: {e}")),
            };
            let done = Instant::now();
            if rows.is_err() {
                ph.errors += 1;
            } else {
                ph.completed += 1;
                let tuples = self.ints[si].count_in(q.lo, q.hi) as f64;
                ph.served
                    .push(((kind, si), (done - send).as_secs_f64(), tuples));
            }
            ph.lat_ms.push((done - due).as_secs_f64() * 1e3);
            if traced {
                let root = tracer.record(trace_id, None, "query", send, done);
                tracer.record(trace_id, Some(root), "serve.rtt", send, done);
                match run::traced_sql(self.db, &q.sql, trace_id, Some(root), tracer, acc, pruned) {
                    Ok((res, inproc_us)) => {
                        acc.cache(&res.stats);
                        let rtt_us = (done - send).as_secs_f64() * 1e6;
                        acc.sample("serve.rtt_us", rtt_us);
                        acc.sample("serve.overhead_us", rtt_us - inproc_us);
                        acc.sample("trace.traced_wall_us", rtt_us);
                        tracer.extend(root, Instant::now());
                    }
                    Err(_) => ph.errors += 1,
                }
            } else if tracer.on() {
                acc.sample("trace.untraced_wall_us", (done - send).as_secs_f64() * 1e6);
            }
            if self.next.is_multiple_of(RSS_WINDOW) {
                if let Some(rss) = &mut self.rss {
                    rss.mark();
                }
            }
            let sent = Sent { q, rows };
            if check_now {
                self.check(sent);
            } else {
                self.sent.push(sent);
            }
        }
        ph.wall_s = start.elapsed().as_secs_f64();
        ph
    }

    /// Checks the answers kept by phases run without `check_now`.
    fn check_rest(&mut self) {
        for s in std::mem::take(&mut self.sent) {
            self.check(s);
        }
    }
}

/// What the writer measured.
#[derive(Default)]
struct Writer {
    append_ms: Vec<f64>,
    call_us: Vec<f64>,
    late_ms: Vec<f64>,
    errors: u64,
}

/// Appends [`BATCH`] points per series every 1/[`WRITER_HZ`] s from the
/// pre-generated future, publishing the batch's timestamp once every
/// series has it. Batch latency counts from the due time; only batches
/// due before `measure_end` are kept.
fn write_loop(
    db: &IotDb,
    ints: &[IntSeries],
    acked: &AtomicI64,
    stop: &AtomicBool,
    measure_end: Instant,
    tracer: &mut Tracer,
) -> Writer {
    let mut w = Writer::default();
    let start = Instant::now();
    let mut k = HISTORY;
    for j in 0u64.. {
        if stop.load(Ordering::Acquire) || k + BATCH > ints[0].ts.len() {
            break;
        }
        let due = start + Duration::from_secs_f64(j as f64 / WRITER_HZ);
        if let Some(wait) = due.checked_duration_since(Instant::now()) {
            std::thread::sleep(wait);
        }
        let begin = Instant::now();
        w.late_ms.push((begin - due).as_secs_f64() * 1e3);
        let root = tracer.record(1 << 40 | j, None, "writer.batch", begin, begin);
        for s in ints {
            let t = Instant::now();
            if db
                .append_all(&s.name, &s.ts[k..k + BATCH], &s.vals[k..k + BATCH])
                .is_err()
            {
                w.errors += 1;
            }
            let end = Instant::now();
            tracer.record(1 << 40 | j, Some(root), "storage.append", t, end);
            w.call_us.push((end - t).as_secs_f64() * 1e6);
        }
        acked.store(ints[0].ts[k + BATCH - 1], Ordering::Release);
        k += BATCH;
        if due < measure_end {
            w.append_ms.push(due.elapsed().as_secs_f64() * 1e3);
        }
    }
    w
}

/// Runs the workload.
pub fn run(ctx: &mut Ctx) -> Result<(), String> {
    let seed = ctx.seed;
    let ladder_s = LADDER.len() as f64 * LADDER_STEP.as_secs_f64();
    let future = ((ctx.seconds + ladder_s + 5.0) * WRITER_HZ) as usize * BATCH;
    let mut setup = |acc: &mut LayerAcc| {
        let ints = generate(seed, future);
        let db = Arc::new(IotDb::new(EngineOptions::default()));
        for s in &ints {
            // History loads in large batches; `storage.append_us` here is
            // the writer's small appends.
            run::load_int(&db, s, HISTORY, &mut LayerAcc::default())?;
        }
        run::flush(&db, acc)?;
        let handle = server::start(Arc::clone(&db), "127.0.0.1:0", ServeConfig::default())
            .map_err(|e| format!("server start: {e}"))?;
        Ok((
            Live {
                db,
                server: Some(handle),
            },
            ints,
        ))
    };
    let mut setups = Setups::default();
    let (live, ints) = setups.before(&mut ctx.acc, &mut setup)?;
    let addr = live.server.as_ref().map(|h| h.addr()).ok_or("no server")?;
    let client = Client::connect(addr).map_err(|e| format!("connect: {e}"))?;
    let acked = AtomicI64::new(ints[0].ts[HISTORY - 1]);
    let stop = AtomicBool::new(false);
    let traced = ctx.traced();
    let mut sender = Sender {
        db: &live.db,
        client,
        ints: &ints,
        templates: templates(seed),
        next: 0,
        acked: &acked,
        sent: Vec::new(),
        wrong: Vec::new(),
        failed: Vec::new(),
        rss: Some(RssWatch::start(
            ctx.rss_start_mb,
            gen::input_bytes(&ints, &[]),
        )?),
    };

    // Warm-up: one pass over the mix fills the cache and starts the pool.
    let mut off = Tracer::new(false, ctx.epoch, 0);
    let mut scratch = LayerAcc::default();
    let warm = sender.phase(
        Some(RATE_QPS),
        Duration::from_millis(500),
        true,
        &mut off,
        &mut scratch,
    );

    let epoch = ctx.epoch;
    let seconds = ctx.seconds;
    let report = &mut ctx.report;
    let (main, closed, ladder, writer, writer_spans) = std::thread::scope(|sc| {
        let measure_end = Instant::now() + Duration::from_secs_f64(seconds);
        let (db, ints_ref, acked_ref, stop_ref) = (&*live.db, &ints[..], &acked, &stop);
        let w = sc.spawn(move || {
            let mut wt = Tracer::new(traced, epoch, 1 << 48);
            let out = write_loop(db, ints_ref, acked_ref, stop_ref, measure_end, &mut wt);
            (out, wt)
        });
        let main = sender.phase(
            Some(RATE_QPS),
            Duration::from_secs_f64(seconds * OPEN_SHARE),
            true,
            &mut ctx.tracer,
            &mut ctx.acc,
        );
        let closed = sender.phase(
            None,
            Duration::from_secs_f64(seconds * (1.0 - OPEN_SHARE)),
            true,
            &mut ctx.tracer,
            &mut ctx.acc,
        );
        let measured = sender
            .rss
            .take()
            .ok_or("no memory watch".to_string())
            .and_then(|w| w.finish(report));
        let mut ladder = Vec::new();
        if !traced {
            for &(rate, _) in &LADDER {
                ladder.push(sender.phase(Some(rate), LADDER_STEP, false, &mut off, &mut scratch));
            }
        }
        stop.store(true, Ordering::Release);
        let (out, wt) = w.join().unwrap_or_else(|_| {
            (
                Writer {
                    errors: 1,
                    ..Default::default()
                },
                Tracer::new(false, epoch, 0),
            )
        });
        measured.map(|()| (main, closed, ladder, out, wt))
    })?;
    ctx.tracer.absorb(writer_spans);

    // Every answer is checked, warm-up and ladder included.
    sender.check_rest();
    for note in std::mem::take(&mut sender.wrong) {
        ctx.report.wrong(note);
    }
    let failed = std::mem::take(&mut sender.failed);
    ctx.report.wrong_notes.extend(failed.into_iter().take(5));
    drop(sender);
    let ladder_errors: u64 = ladder.iter().map(|p| p.errors).sum();
    ctx.report.attempted = main.completed + main.errors + closed.completed + closed.errors;
    ctx.report.errors = main.errors + closed.errors + ladder_errors + warm.errors + writer.errors;

    run::query_metrics(&mut ctx.report, &main.lat_ms);
    let (qps, tps) = closed.service_throughput();
    ctx.report.e2e.insert("queries_per_s", qps);
    ctx.report.e2e.insert("tuples_per_s", tps);
    ctx.report.extra.push((
        "offered.queries_per_s",
        main.completed as f64 / main.wall_s.max(1e-9),
        "1/s",
    ));
    // Append latency from the batch's due time: printed, not gated (its
    // upper tail is scheduler noise on a small shared host).
    let up = stats::upper(&writer.append_ms);
    ctx.report
        .extra
        .push(("append_p50_ms", stats::median(&writer.append_ms), "ms"));
    ctx.report.extra.push(("append_p99_ms", up.value, "ms"));
    ctx.report.extra.push(("append_upper_pct", up.pct, "%"));
    ctx.report.extra.push(("append_n", up.n as f64, "count"));
    for us in &writer.call_us {
        ctx.acc.sample("storage.append_us", *us);
    }

    // sustained_qps: the achieved rate of the highest rung whose upper
    // latency meets the limit with no backlog left at its end.
    let sustained = ladder
        .iter()
        .filter(|p| {
            let backlog = p.late_ms.last().copied().unwrap_or(f64::INFINITY);
            p.errors == 0
                && stats::upper(&p.lat_ms).value <= P99_LIMIT_MS
                && backlog <= P99_LIMIT_MS
        })
        .map(|p| p.completed as f64 / p.wall_s.max(1e-9))
        .fold(0.0, f64::max);
    if !traced {
        for (p, &(_, name)) in ladder.iter().zip(&LADDER) {
            ctx.report
                .extra
                .push((name, stats::upper(&p.lat_ms).value, "ms"));
        }
        ctx.report.extra.push(("sustained_qps", sustained, "1/s"));
        ctx.report
            .extra
            .push(("sustained_qps.limit_ms", P99_LIMIT_MS, "ms"));
    }
    let q_late = stats::upper(&main.late_ms);
    let w_late = stats::upper(&writer.late_ms);
    ctx.prov.set(
        "loadgen.late_ms",
        format!(
            "query p50 {:.3} p{} {:.3}; writer p50 {:.3} p{} {:.3}",
            stats::median(&main.late_ms),
            q_late.pct,
            q_late.value,
            stats::median(&writer.late_ms),
            w_late.pct,
            w_late.value
        ),
    );
    ctx.prov.set("load", format!("open loop {RATE_QPS} q/s, 1 connection; writer {WRITER_HZ} batches/s x {BATCH} points x 4 series"));
    ctx.prov.set(
        "data",
        format!("4 series x {HISTORY} history points, page 1024"),
    );

    if traced {
        run::probe_layers(ctx, live.db.store(), &ints);
    }
    let shed = live.server.as_ref().map_or(0, |h| h.stats().shed);
    ctx.acc.sample("serve.shed", shed as f64);
    drop(live);
    setups.after(&mut ctx.report, &mut ctx.acc, &mut setup)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_queries_and_writes_other_seed_differs() {
        assert_eq!(templates(3), templates(3));
        assert_ne!(templates(3), templates(4));
        let a = generate(3, 100);
        assert_eq!(a, generate(3, 100));
        assert_ne!(a, generate(4, 100));
        assert_eq!(a[0].ts.len(), HISTORY + 100);
    }

    #[test]
    fn service_throughput_charges_each_shape_its_median() {
        let mut ph = Phase::default();
        // One stall among shape a's round trips does not count.
        for rtt in [0.001, 0.001, 0.1, 0.001] {
            ph.served.push((("a", 0), rtt, 10.0));
        }
        for rtt in [0.003, 0.003] {
            ph.served.push((("b", 1), rtt, 100.0));
        }
        // Busy time: 4 x 1 ms + 2 x 3 ms = 10 ms.
        let (qps, tps) = ph.service_throughput();
        assert!((qps - 600.0).abs() < 1e-6, "{qps}");
        assert!((tps - 24_000.0).abs() < 1e-6, "{tps}");
    }

    #[test]
    fn grouped_query_buckets_match_sql_origin() {
        let q = dashboard_query("p95_1h", 0, "s", 1_700_000_123_000);
        assert!(q.sql.ends_with("GROUP BY TIME(300000)"));
        let (t_min, dt) = q.buckets.unwrap();
        assert_eq!(t_min % dt, 0);
        assert!(t_min <= q.lo && q.lo < t_min + dt);
    }
}
