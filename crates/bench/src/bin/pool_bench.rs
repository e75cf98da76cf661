//! Short-query throughput on the persistent work-stealing pool.
//!
//! Runs a batch of short selective aggregations (the high-QPS regime of
//! the ROADMAP north star) at 1/2/4/8 configured threads and reports
//! queries/second as JSON on stdout (redirected to `BENCH_pool.json` by
//! `scripts/bench.sh`). Every cell's answers must match the
//! single-thread (inline) run.
//!
//! Scale control: `ETSQP_BENCH_QUERIES` (default 1000) sets the batch
//! size per thread-count cell.

use std::time::Instant;

use etsqp_core::engine::{EngineOptions, IotDb};
use etsqp_core::expr::{AggFunc, Plan, Predicate};
use etsqp_core::plan::{execute, PipelineConfig, Value};

const PAGE_POINTS: usize = 256;
const PAGES: usize = 64;
const THREAD_COUNTS: [usize; 4] = [1, 2, 4, 8];

fn build_db() -> IotDb {
    let opts = EngineOptions::default().with_page_points(PAGE_POINTS);
    let db = IotDb::new(opts);
    db.create_series("sensor").unwrap();
    let rows = (PAGE_POINTS * PAGES) as i64;
    for i in 0..rows {
        db.append("sensor", i * 1000, 60 + (i % 25) - (i % 7))
            .unwrap();
    }
    db.flush().unwrap();
    db
}

/// One short selective query, rotated over `k` so page pruning and the
/// aggregated window vary across the batch like independent clients.
fn query_plan(k: usize, rows: i64) -> Plan {
    let span = rows * 1000;
    let lo = (k as i64 * 37_000) % (span / 2);
    let hi = lo + span / 4;
    let func = match k % 4 {
        0 => AggFunc::Sum,
        1 => AggFunc::Count,
        2 => AggFunc::Min,
        _ => AggFunc::Max,
    };
    Plan::scan("sensor")
        .filter(Predicate::time(lo, hi))
        .aggregate(func)
}

/// Folds a result table into a checksum so every thread count can be
/// asserted to compute identical answers.
fn checksum(rows: &[Vec<Value>]) -> i64 {
    let mut acc = 0i64;
    for row in rows {
        for v in row {
            let x = match v {
                Value::Int(i) => *i,
                Value::Float(f) => f.to_bits() as i64,
                Value::Null => -1,
            };
            acc = acc.wrapping_mul(31).wrapping_add(x);
        }
    }
    acc
}

/// Runs the batch at one configured thread count; returns
/// (queries/sec, checksum over all results).
fn run_cell(db: &IotDb, threads: usize, queries: usize) -> (f64, i64) {
    let cfg = PipelineConfig {
        threads,
        ..db.options().pipeline
    };
    let rows = (PAGE_POINTS * PAGES) as i64;
    let mut acc = 0i64;
    let start = Instant::now();
    for k in 0..queries {
        let result = execute(&query_plan(k, rows), db.store(), &cfg).unwrap();
        acc = acc.wrapping_mul(7).wrapping_add(checksum(&result.rows));
    }
    let secs = start.elapsed().as_secs_f64();
    (queries as f64 / secs, acc)
}

fn main() {
    let queries: usize = std::env::var("ETSQP_BENCH_QUERIES")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(1000);
    let db = build_db();

    // Warm the pool and the page cache outside the timed region.
    run_cell(&db, 8, 16.min(queries));

    let mut cells = Vec::new();
    let mut want = None;
    for &threads in &THREAD_COUNTS {
        let (qps, sum) = run_cell(&db, threads, queries);
        assert_eq!(
            *want.get_or_insert(sum),
            sum,
            "threads={threads} disagrees with threads=1"
        );
        eprintln!("threads={threads}: pool {qps:.0} q/s");
        cells.push(format!(
            "    {{\"threads\": {threads}, \"pool_qps\": {qps:.1}}}"
        ));
    }

    println!("{{");
    println!("  \"bench\": \"pool_short_queries\",");
    println!("  \"queries_per_cell\": {queries},");
    println!("  \"pages\": {PAGES},");
    println!("  \"page_points\": {PAGE_POINTS},");
    println!("  \"pool_threads\": {},", etsqp_core::pool::pool_threads());
    println!("  \"cells\": [");
    println!("{}", cells.join(",\n"));
    println!("  ]");
    println!("}}");
}
