//! Differential correctness sweep: every engine configuration must agree
//! with the naive oracle (`etsqp::core::oracle`) on every codec, dataset
//! and query in the battery.
//!
//! On a mismatch the harness prints a single-line reproducer
//! (`DIFF spec=… codec=… cfg=… query=… rows=…`) before panicking, so a
//! failure in CI pins down the exact (codec × config × query) cell.

use etsqp::core::decode::DecodeOptions;
use etsqp::core::expr::{BinOp, CmpOp, PairAggFunc};
use etsqp::core::oracle;
use etsqp::core::physical::pipe;
use etsqp::core::plan::execute;
use etsqp::core::sql;
use etsqp::datasets::Spec;
use etsqp::storage::store::SeriesStore;
use etsqp::{
    AggFunc, Encoding, FloatRange, FuseLevel, IotDb, PipelineConfig, Plan, Predicate, Value,
};

const ROWS: usize = 256;
const PAGE_POINTS: usize = 64;

/// Integer codecs usable for the value column.
const VAL_CODECS: [Encoding; 9] = [
    Encoding::Plain,
    Encoding::Ts2Diff,
    Encoding::Ts2DiffOrder2,
    Encoding::Rle,
    Encoding::DeltaRle,
    Encoding::Sprintz,
    Encoding::Rlbe,
    Encoding::Gorilla,
    Encoding::StreamVByte,
];

/// Timestamp codecs exercised by the dedicated ts-codec block.
const TS_CODECS: [Encoding; 6] = [
    Encoding::Plain,
    Encoding::Ts2Diff,
    Encoding::Ts2DiffOrder2,
    Encoding::DeltaRle,
    Encoding::Gorilla,
    Encoding::StreamVByte,
];

/// The full config cross: vectorized/serial × fuse × prune × threads ×
/// slicing (the ablation axes of Fig. 10/13/14).
fn all_configs() -> Vec<PipelineConfig> {
    let mut out = Vec::new();
    for vectorized in [true, false] {
        for fuse in [FuseLevel::None, FuseLevel::Delta, FuseLevel::DeltaRepeat] {
            for prune in [true, false] {
                for threads in [1usize, 4, 8] {
                    for allow_slicing in [true, false] {
                        out.push(PipelineConfig {
                            threads,
                            prune,
                            fuse,
                            vectorized,
                            decode: DecodeOptions::default(),
                            allow_slicing,
                            decode_budget_bytes: None,
                            partial_cache: true,
                        });
                    }
                }
            }
        }
    }
    out
}

/// A handful of corner configs used when running the complete battery.
fn canonical_configs() -> Vec<PipelineConfig> {
    let base = PipelineConfig {
        threads: 1,
        prune: false,
        fuse: FuseLevel::None,
        vectorized: false,
        decode: DecodeOptions::default(),
        allow_slicing: false,
        decode_budget_bytes: None,
        partial_cache: true,
    };
    vec![
        base,
        PipelineConfig {
            vectorized: true,
            fuse: FuseLevel::DeltaRepeat,
            prune: true,
            threads: 4,
            allow_slicing: true,
            ..base
        },
        // The same vectorized config with every job run inline on the
        // caller must agree with the pool on the full battery (scheduler
        // differential: pool threads 1 vs N).
        PipelineConfig {
            vectorized: true,
            fuse: FuseLevel::DeltaRepeat,
            prune: true,
            threads: 1,
            allow_slicing: true,
            ..base
        },
        PipelineConfig {
            vectorized: true,
            fuse: FuseLevel::Delta,
            prune: true,
            threads: 8,
            allow_slicing: true,
            ..base
        },
        PipelineConfig {
            vectorized: false,
            threads: 4,
            prune: true,
            ..base
        },
    ]
}

fn cfg_label(cfg: &PipelineConfig) -> String {
    format!(
        "vec={} fuse={:?} prune={} threads={} slice={}",
        cfg.vectorized, cfg.fuse, cfg.prune, cfg.threads, cfg.allow_slicing
    )
}

/// Engine/oracle result shape: column names plus rows of values.
type Table = (Vec<String>, Vec<Vec<Value>>);

struct Fixture {
    /// Data label for reproducer lines (dataset, or the float layout).
    label: String,
    codec: Encoding,
    store: SeriesStore,
    /// Registered series names (first two columns of the dataset).
    a: String,
    b: String,
    queries: Vec<(String, Plan)>,
    /// Oracle results, computed lazily per query index.
    oracle: Vec<Option<Table>>,
    /// Float series: Σ-derived cells (SUM/AVG/VARIANCE) depend on the
    /// summation order, so they compare within 1e-9 relative.
    approx: bool,
}

/// Builds the store for one (spec, value codec, ts codec) cell and the
/// deterministic query battery derived from the data's actual ranges.
fn fixture(spec: Spec, val_codec: Encoding, ts_codec: Encoding) -> Fixture {
    let data = spec.generate(ROWS);
    let store = SeriesStore::new(PAGE_POINTS);
    let a = format!("{}_a", spec.label());
    let b = format!("{}_b", spec.label());
    for (name, col_idx) in [(&a, 0usize), (&b, 1usize)] {
        store.create_series(name, ts_codec, val_codec);
        store
            .append_all(name, &data.timestamps, &data.columns[col_idx].1)
            .unwrap();
        store.flush(name).unwrap();
    }

    let t0 = *data.timestamps.first().unwrap();
    let tn = *data.timestamps.last().unwrap();
    let span = (tn - t0).max(1);
    let col = &data.columns[0].1;
    let (vmin, vmax) = col
        .iter()
        .fold((i64::MAX, i64::MIN), |(lo, hi), &v| (lo.min(v), hi.max(v)));
    let vspan = (vmax - vmin).max(1);
    let t_mid = Predicate::time(t0 + span / 4, tn - span / 4);
    let v_band = Predicate::value(vmin + vspan / 5, vmax - vspan / 5);
    let both = t_mid.and(&v_band);
    let w_min = t0 + span / 5;
    let w_dt = (span / 9).max(1);

    let scan_a = || Plan::scan(&a);
    let scan_b = || Plan::scan(&b);
    let queries: Vec<(String, Plan)> = vec![
        ("SUM(all)".into(), scan_a().aggregate(AggFunc::Sum)),
        (
            "AVG(time)".into(),
            scan_a().filter(t_mid).aggregate(AggFunc::Avg),
        ),
        (
            "COUNT(value)".into(),
            scan_a().filter(v_band).aggregate(AggFunc::Count),
        ),
        (
            "MIN(both)".into(),
            scan_a().filter(both).aggregate(AggFunc::Min),
        ),
        (
            "MAX(time)".into(),
            scan_a().filter(t_mid).aggregate(AggFunc::Max),
        ),
        (
            "VARIANCE(all)".into(),
            scan_a().aggregate(AggFunc::Variance),
        ),
        (
            "FIRST(value)".into(),
            scan_a().filter(v_band).aggregate(AggFunc::First),
        ),
        ("LAST(all)".into(), scan_a().aggregate(AggFunc::Last)),
        ("WSUM".into(), scan_a().window(w_min, w_dt, AggFunc::Sum)),
        (
            "WCOUNT(value)".into(),
            scan_a().filter(v_band).window(w_min, w_dt, AggFunc::Count),
        ),
        ("SCAN(both)".into(), scan_a().filter(both)),
        (
            "UNION".into(),
            Plan::Union {
                left: Box::new(scan_a().filter(t_mid)),
                right: Box::new(scan_b()),
            },
        ),
        (
            "JOIN(on>)".into(),
            Plan::Join {
                left: Box::new(scan_a()),
                right: Box::new(scan_b()),
                on: Some(CmpOp::Gt),
            },
        ),
        (
            "JOINEXPR(+)".into(),
            Plan::JoinExpr {
                left: Box::new(scan_a()),
                right: Box::new(scan_b()),
                op: BinOp::Add,
            },
        ),
        (
            "JOINAGG(dot)".into(),
            Plan::JoinAggregate {
                left: Box::new(scan_a()),
                right: Box::new(scan_b()),
                func: PairAggFunc::Dot,
            },
        ),
        (
            "JOINAGG(corr)".into(),
            Plan::JoinAggregate {
                left: Box::new(scan_a().filter(t_mid)),
                right: Box::new(scan_b()),
                func: PairAggFunc::Correlation,
            },
        ),
        // Partial-state battery (appended so earlier indices stay
        // stable for Block D): exact first/last-derived aggregates and
        // bucketed order-sensitive merges — all compare bit-exact.
        ("DELTA(all)".into(), scan_a().aggregate(AggFunc::Delta)),
        (
            "RATE(value)".into(),
            scan_a().filter(v_band).aggregate(AggFunc::Rate),
        ),
        (
            "WRATE(time)".into(),
            scan_a().filter(t_mid).window(w_min, w_dt, AggFunc::Rate),
        ),
        (
            "WDELTA".into(),
            scan_a().window(w_min, w_dt, AggFunc::Delta),
        ),
        (
            "WFIRST".into(),
            scan_a().window(w_min, w_dt, AggFunc::First),
        ),
        (
            "WLAST(time)".into(),
            scan_a().filter(t_mid).window(w_min, w_dt, AggFunc::Last),
        ),
    ];
    let n = queries.len();
    Fixture {
        label: spec.label().to_string(),
        codec: val_codec,
        store,
        a,
        b,
        queries,
        oracle: vec![None; n],
        approx: false,
    }
}

/// Where a float fixture's points live when queried.
#[derive(Debug, Clone, Copy)]
enum Layout {
    /// Every point flushed into pages.
    Sealed,
    /// Every point still in the unflushed hot chunk.
    Hot,
    /// Sealed pages plus an unflushed hot tail.
    Mixed,
}

/// A float series `f` (two-decimal sensor readings, including `-0.0` and
/// `0.0`) under one XOR codec and layout, and the float query battery:
/// SQL (the shapes that used to misreport or fail) and plans carrying a
/// [`FloatRange`].
fn float_fixture(codec: Encoding, layout: Layout) -> Fixture {
    let store = SeriesStore::new(PAGE_POINTS);
    store.create_series_f64("f", Encoding::Ts2Diff, codec);
    let ts: Vec<i64> = (0..ROWS as i64).map(|i| 1_000 + i * 10).collect();
    let vals: Vec<f64> = (0..ROWS)
        .map(|i| match i % 41 {
            7 => -0.0,
            8 => 0.0,
            _ => ((i as f64 * 0.05).sin() * 300.0).round() / 100.0 + 23.5 * (i % 3) as f64,
        })
        .collect();
    let sealed = match layout {
        Layout::Sealed => ROWS,
        Layout::Hot => 0,
        Layout::Mixed => ROWS - 40,
    };
    for (i, (&t, &v)) in ts.iter().zip(&vals).enumerate() {
        store.append_f64("f", t, v).unwrap();
        if i + 1 == sealed {
            store.flush("f").unwrap();
        }
    }
    let sql_battery = [
        "SELECT MAX(f) FROM f",
        "SELECT COUNT(f) FROM f",
        "SELECT SUM(f) FROM f",
        "SELECT MIN(f) FROM f WHERE time >= 1500 AND time <= 2300",
        "SELECT AVG(f) FROM f WHERE time >= 1200",
        "SELECT COUNT(f) FROM f WHERE f >= 1 AND f <= 25",
        "SELECT MAX(f) FROM f WHERE f <= 20 AND time <= 2000",
        "SELECT VARIANCE(f) FROM f",
        "SELECT FIRST(f) FROM f WHERE f >= 24",
        "SELECT LAST(f) FROM f WHERE time <= 3000",
        "SELECT SUM(f) FROM f SW(1200, 400)",
        "SELECT MAX(f) FROM f SW(1000, 640)",
        "SELECT AVG(f) FROM f GROUP BY TIME(500)",
        "SELECT COUNT(f) FROM f WHERE f >= 20 GROUP BY TIME(700)",
        "SELECT * FROM f WHERE f >= 25 AND time >= 1800",
        "SELECT COUNT(f) FROM f WHERE f > 20 AND f < 23",
        "SELECT MIN(f) FROM f WHERE f > 0",
        "SELECT * FROM f WHERE f > 24 AND f < 25 AND time <= 2500",
    ];
    let mut queries: Vec<(String, Plan)> = sql_battery
        .iter()
        .map(|q| (q.to_string(), sql::parse(q).unwrap()))
        .collect();
    let band = Predicate {
        float: Some(FloatRange {
            lo: -0.0,
            hi: 23.75,
        }),
        ..Predicate::time(1_300, 3_200)
    };
    for func in [AggFunc::Count, AggFunc::Sum, AggFunc::Min, AggFunc::Max] {
        let plan = Plan::scan("f").filter(band).aggregate(func);
        queries.push((format!("{}(float range)", func.name()), plan));
    }
    let n = queries.len();
    Fixture {
        label: format!("float-{layout:?}"),
        codec,
        store,
        a: "f".into(),
        b: "f".into(),
        queries,
        oracle: vec![None; n],
        approx: true,
    }
}

fn value_eq(a: &Value, b: &Value, approx: bool) -> bool {
    match (a, b) {
        (Value::Float(x), Value::Float(y)) => {
            x == y
                || (x.is_nan() && y.is_nan())
                || (approx && (x - y).abs() <= 1e-9 * x.abs().max(y.abs()).max(1.0))
        }
        _ => a == b,
    }
}

fn rows_eq(a: &[Vec<Value>], b: &[Vec<Value>], approx: bool) -> bool {
    a.len() == b.len()
        && a.iter().zip(b).all(|(ra, rb)| {
            ra.len() == rb.len() && ra.iter().zip(rb).all(|(x, y)| value_eq(x, y, approx))
        })
}

/// Runs query `qi` of `fx` under `cfg` and compares against the cached
/// oracle answer. Returns 1 (a case) — panics with a one-line reproducer
/// on mismatch.
fn check(fx: &mut Fixture, qi: usize, cfg: &PipelineConfig) -> usize {
    let (qname, plan) = &fx.queries[qi];
    if fx.oracle[qi].is_none() {
        fx.oracle[qi] = Some(oracle::execute(plan, &fx.store).unwrap());
    }
    let (ocols, orows) = fx.oracle[qi].as_ref().unwrap();
    // Every oracle case also goes through the physical planner: the plan
    // must compile, and its EXPLAIN rendering must be deterministic (the
    // driver below executes this same compiled shape).
    let phys = pipe::compile(plan, &fx.store, cfg).unwrap_or_else(|e| {
        panic!(
            "DIFF spec={} codec={:?} cfg=[{}] query={}: physical compile error {e}",
            fx.label,
            fx.codec,
            cfg_label(cfg),
            qname,
        )
    });
    let rendered = phys.render(cfg);
    assert!(
        rendered.starts_with("physical plan ("),
        "query={qname}: malformed EXPLAIN header:\n{rendered}"
    );
    assert_eq!(
        rendered,
        pipe::explain(plan, &fx.store, cfg).unwrap(),
        "query={qname}: EXPLAIN not deterministic across compiles"
    );
    let got = execute(plan, &fx.store, cfg).unwrap_or_else(|e| {
        panic!(
            "DIFF spec={} codec={:?} cfg=[{}] query={} seed=rows{}: engine error {e}",
            fx.label,
            fx.codec,
            cfg_label(cfg),
            qname,
            ROWS
        )
    });
    if &got.columns != ocols || !rows_eq(&got.rows, orows, fx.approx) {
        // Single-line reproducer first, then the diffing payloads.
        eprintln!(
            "DIFF spec={} codec={:?} cfg=[{}] query={} seed=rows{}",
            fx.label,
            fx.codec,
            cfg_label(cfg),
            qname,
            ROWS
        );
        eprintln!("  series: {} / {}", fx.a, fx.b);
        eprintln!("  oracle: {:?} {:?}", ocols, preview(orows));
        eprintln!("  engine: {:?} {:?}", got.columns, preview(&got.rows));
        panic!("engine diverged from oracle (see DIFF line above)");
    }
    1
}

fn preview(rows: &[Vec<Value>]) -> &[Vec<Value>] {
    &rows[..rows.len().min(8)]
}

/// Block A: the full 72-config cross on every (spec × value codec) cell,
/// rotating deterministically through the query battery.
#[test]
fn every_config_agrees_with_oracle() {
    let configs = all_configs();
    let mut cases = 0usize;
    for spec in Spec::ALL {
        for codec in VAL_CODECS {
            let mut fx = fixture(spec, codec, Encoding::Ts2Diff);
            let nq = fx.queries.len();
            for (ci, cfg) in configs.iter().enumerate() {
                let qi = (ci + cases) % nq;
                cases += check(&mut fx, qi, cfg);
            }
        }
    }
    assert!(cases >= 200, "sweep too small: {cases} cases");
    eprintln!("differential config sweep: {cases} cases, zero mismatches");
}

/// Block B: the complete query battery under the canonical corner
/// configs, on every (spec × value codec) cell, plus the float battery
/// on every (float codec × sealed/hot/mixed layout) cell.
#[test]
fn full_battery_agrees_with_oracle() {
    let configs = canonical_configs();
    let mut cases = 0usize;
    let mut fixtures: Vec<Fixture> = Vec::new();
    for spec in Spec::ALL {
        for codec in VAL_CODECS {
            fixtures.push(fixture(spec, codec, Encoding::Ts2Diff));
        }
    }
    for codec in [Encoding::GorillaFloat, Encoding::Chimp, Encoding::Elf] {
        for layout in [Layout::Sealed, Layout::Hot, Layout::Mixed] {
            fixtures.push(float_fixture(codec, layout));
        }
    }
    for mut fx in fixtures {
        for qi in 0..fx.queries.len() {
            for cfg in &configs {
                cases += check(&mut fx, qi, cfg);
            }
        }
    }
    assert!(cases >= 200, "battery too small: {cases} cases");
    eprintln!("differential battery: {cases} cases, zero mismatches");
}

/// Block B′: float edge cases pinned to fixed answers through SQL. NaN
/// counts, propagates through SUM/AVG, never wins MIN/MAX and never lies
/// inside a value range — also when a page header's bound is a NaN image,
/// which must send MIN/MAX to the decode path instead of the header.
/// Quantiles, rate/delta and the binary operators (Q4–Q6) over a float
/// series are a typed plan error (exit 1), never a corrupt-data error.
#[test]
fn float_edge_cases_are_pinned() {
    let db = IotDb::new(etsqp::EngineOptions::default().with_page_points(PAGE_POINTS));
    db.create_series_f64("n", Encoding::Chimp).unwrap();
    db.create_series_f64("z", Encoding::Chimp).unwrap();
    for i in 0..150i64 {
        let v = if i % 10 == 0 { f64::NAN } else { i as f64 };
        db.append_f64("n", i, v).unwrap();
        db.append_f64("z", i, i as f64 * 0.5).unwrap();
    }
    db.flush().unwrap();
    db.append_f64("n", 150, f64::NAN).unwrap(); // a hot NaN too
    let nan = Value::Float(f64::NAN);
    let cases: [(&str, Value); 15] = [
        ("SELECT MAX(n) FROM n", Value::Float(149.0)),
        ("SELECT MIN(n) FROM n", Value::Float(1.0)),
        ("SELECT MAX(n) FROM n WHERE time <= 63", Value::Float(63.0)),
        (
            "SELECT MAX(n) FROM n WHERE time >= 140",
            Value::Float(149.0),
        ),
        ("SELECT COUNT(n) FROM n", Value::Int(151)),
        ("SELECT SUM(n) FROM n", nan),
        ("SELECT AVG(n) FROM n WHERE time >= 100", nan),
        (
            "SELECT COUNT(n) FROM n WHERE n >= -1000000",
            Value::Int(135),
        ),
        ("SELECT SUM(n) FROM n WHERE n <= 19", Value::Float(180.0)),
        ("SELECT MAX(z) FROM z", Value::Float(74.5)),
        ("SELECT MIN(z) FROM z WHERE time >= 64", Value::Float(32.0)),
        // Strict comparisons exclude their literal, not the integer gap.
        ("SELECT MIN(z) FROM z WHERE z > 20", Value::Float(20.5)),
        ("SELECT MAX(z) FROM z WHERE z < 21", Value::Float(20.5)),
        (
            "SELECT COUNT(z) FROM z WHERE z > 20 AND z < 23",
            Value::Int(5),
        ),
        (
            "SELECT COUNT(z) FROM z WHERE z > 0 AND z >= 1",
            Value::Int(148),
        ),
    ];
    for cfg in canonical_configs() {
        let db = IotDb::with_store(
            db.store().clone(),
            etsqp::EngineOptions {
                pipeline: cfg,
                ..Default::default()
            },
        );
        for (q, want) in cases {
            let got = db.query(q).unwrap_or_else(|e| panic!("{q}: {e}")).rows[0][0];
            assert!(
                value_eq(&got, &want, false),
                "{q} [{}]: got {got:?}, want {want:?}",
                cfg_label(&cfg)
            );
        }
    }
    // The header path is taken exactly where the bounds are values.
    let explain = db.explain("SELECT MAX(n) FROM n").unwrap();
    assert!(!explain.contains("header(min/max)"), "{explain}");
    assert!(
        explain.contains("tuples [ts=ts2diff, val=chimp] f64\n"),
        "{explain}"
    );
    let explain = db.explain("SELECT MAX(z) FROM z").unwrap();
    assert!(explain.contains("header(min/max)"), "{explain}");
    // The pinned value-range rule through the API's float ranges.
    let all = FloatRange {
        lo: f64::NEG_INFINITY,
        hi: f64::INFINITY,
    };
    let count = db.aggregate_f64("n", None, Some(all), AggFunc::Count);
    assert_eq!(count.unwrap(), Some(135.0));

    for q in [
        "SELECT P50(n) FROM n",
        "SELECT P95(n) FROM n GROUP BY TIME(50)",
        "SELECT P99(z) FROM z",
        "SELECT RATE(n) FROM n",
        "SELECT DELTA(z) FROM z WHERE time >= 5",
        "SELECT n.A + z.A FROM n, z",
        "SELECT * FROM n UNION z ORDER BY TIME",
        "SELECT * FROM z, n",
        "SELECT DOT(n, z) FROM n, z",
    ] {
        match db.query(q) {
            Err(e @ etsqp::core::Error::Plan(_)) => assert_eq!(e.exit_code(), 1, "{q}"),
            other => panic!("{q}: expected a plan error, got {other:?}"),
        }
        let plan = sql::parse(q).unwrap();
        assert!(
            matches!(
                oracle::execute(&plan, db.store()),
                Err(etsqp::core::Error::Plan(_))
            ),
            "{q}: the oracle must refuse it too"
        );
    }
}

/// Block C: timestamp-codec sweep (value codec fixed to Ts2Diff) — the
/// time column drives filters, windows and joins.
#[test]
fn timestamp_codecs_agree_with_oracle() {
    let configs = canonical_configs();
    let mut cases = 0usize;
    for spec in [Spec::Atmosphere, Spec::Timestamp, Spec::Tpch] {
        for ts_codec in TS_CODECS {
            let mut fx = fixture(spec, Encoding::Ts2Diff, ts_codec);
            for qi in 0..fx.queries.len() {
                for cfg in &configs {
                    cases += check(&mut fx, qi, cfg);
                }
            }
        }
    }
    assert!(cases >= 200, "ts sweep too small: {cases} cases");
    eprintln!("differential ts-codec sweep: {cases} cases, zero mismatches");
}

/// Block E: Stream VByte under live ingestion. The fixture flushes, then
/// appends an unsealed hot tail to both series, so every query in the
/// battery runs against a mix of sealed SVB pages and the hot-chunk
/// snapshot (the `SourceHot` pipeline source) — the planner's fused(svb)
/// partials must merge correctly with the decoded hot partial.
#[test]
fn stream_vbyte_hot_and_sealed_agree_with_oracle() {
    let configs = canonical_configs();
    let mut cases = 0usize;
    for spec in [Spec::Atmosphere, Spec::Timestamp] {
        let mut fx = fixture(spec, Encoding::StreamVByte, Encoding::StreamVByte);
        // Hot tail: strictly-increasing timestamps past the sealed range,
        // values alternating sign and magnitude (1..3-byte deltas).
        let data = spec.generate(ROWS);
        let tn = *data.timestamps.last().unwrap();
        for name in [fx.a.clone(), fx.b.clone()] {
            for i in 0..40i64 {
                let v = (i * 1003) % 757 - 378 + ((i % 3) << 16);
                fx.store.append(&name, tn + (i + 1) * 7, v).unwrap();
            }
        }
        for qi in 0..fx.queries.len() {
            for cfg in &configs {
                cases += check(&mut fx, qi, cfg);
            }
        }
    }
    assert!(cases >= 100, "hot+sealed sweep too small: {cases} cases");
    eprintln!("differential hot+sealed svb sweep: {cases} cases, zero mismatches");
}

/// Block D: fault injection. Every page mutation breaks the sealed
/// checksum (`SeriesStore::corrupt_page` deliberately does not reseal),
/// so any query whose pipeline contains the page — decoded, fast-path
/// aggregated, or pruned away — must abort with a typed error. The
/// invariant under test: corruption is *never* absorbed into a silently
/// wrong aggregate, and an untouched series keeps answering correctly.
#[test]
fn corrupted_pages_abort_never_lie() {
    use etsqp::storage::page::Page;
    use etsqp::storage::Bytes;

    type Mutation = (&'static str, fn(&mut Page));
    let mutations: [Mutation; 4] = [
        ("val_payload_bitflip", |p| {
            let mut v = p.val_bytes.to_vec();
            let mid = v.len() / 2;
            v[mid] ^= 0x20;
            p.val_bytes = Bytes::from(v);
        }),
        ("ts_payload_bitflip", |p| {
            let mut v = p.ts_bytes.to_vec();
            let mid = v.len() / 2;
            v[mid] ^= 0x01;
            p.ts_bytes = Bytes::from(v);
        }),
        // Header lies: caught because the checksum covers header bytes.
        ("count_lie", |p| {
            p.header.count = p.header.count.wrapping_add(1)
        }),
        // A min/max lie tries to steer the §V verdicts into wrongly
        // excluding the page; verify-on-prune must catch it instead.
        ("minmax_lie", |p| {
            p.header.min_value = i64::MAX - 1;
            p.header.max_value = i64::MAX;
        }),
    ];

    let configs = canonical_configs();
    let mut cases = 0usize;
    for (mname, mutate) in mutations {
        // DeltaRle values + identical clocks on both series keep the
        // fused §IV pair path eligible, so JOINAGG(dot) exercises it.
        let mut fx = fixture(Spec::Atmosphere, Encoding::DeltaRle, Encoding::Ts2Diff);
        // Clean engine baselines must exist before injection.
        for qi in [0usize, 3] {
            check(&mut fx, qi, &configs[0]);
        }
        fx.store.corrupt_page(&fx.a, 1, mutate).unwrap();
        for cfg in &configs {
            // SUM(all), MIN(both) [time+value filter under prune],
            // JOINAGG(dot) [fused pair path].
            for (qname, plan) in [&fx.queries[0], &fx.queries[3], &fx.queries[14]] {
                let got = execute(plan, &fx.store, cfg);
                assert!(
                    got.is_err(),
                    "FAULT spec=atmosphere mutation={mname} cfg=[{}] query={qname}: \
                     corrupted page produced Ok({:?})",
                    cfg_label(cfg),
                    got.as_ref().map(|r| preview(&r.rows)),
                );
                cases += 1;
            }
            // The untouched series keeps answering — corruption in `a`
            // must not poison queries that never read it.
            let healthy = Plan::scan(&fx.b).aggregate(AggFunc::Sum);
            let got = execute(&healthy, &fx.store, cfg).expect("healthy series must still answer");
            let (ocols, orows) = oracle::execute(&healthy, &fx.store).unwrap();
            assert!(
                got.columns == ocols && rows_eq(&got.rows, &orows, false),
                "FAULT mutation={mname} cfg=[{}]: healthy series diverged",
                cfg_label(cfg),
            );
            cases += 1;
        }
    }
    assert!(cases >= 60, "fault sweep too small: {cases} cases");
    eprintln!("differential fault injection: {cases} cases, all aborted with typed errors");
}

/// Block F: quantile sketches. The t-digest answer is approximate, so
/// this block checks the documented *rank* contract instead of equality:
/// the engine's estimate, ranked against the exact sorted qualifying
/// values of its bucket, lies within `TDigest::rank_error_bound(n)` ranks
/// of the target `q·n` — across codecs, configs (partial cache on and
/// off), whole-range and bucketed shapes, and a hot+sealed tail. Each
/// query also runs twice per config: the second run answers from the
/// partial cache and must reproduce the first bit-for-bit.
#[test]
fn quantile_sketches_stay_within_rank_bound() {
    use etsqp::core::partial::TDigest;

    let check_rank = |est: f64, bucket: &mut Vec<i64>, q: f64, label: &str| {
        bucket.sort_unstable();
        let n = bucket.len();
        assert!(n > 0, "{label}: engine answered for an empty bucket");
        let rank = bucket.partition_point(|&v| (v as f64) <= est) as f64;
        let target = q * n as f64;
        let bound = TDigest::rank_error_bound(n as u64);
        assert!(
            (rank - target).abs() <= bound,
            "{label}: est={est} rank={rank} target={target} bound={bound} n={n}"
        );
        assert!(
            est >= bucket[0] as f64 && est <= bucket[n - 1] as f64,
            "{label}: est={est} outside the exact [min, max] envelope"
        );
    };

    let mut configs = canonical_configs();
    configs.push(PipelineConfig {
        partial_cache: false,
        ..Default::default()
    });
    let mut cases = 0usize;
    for spec in [Spec::Atmosphere, Spec::Timestamp, Spec::Tpch] {
        for codec in [Encoding::Ts2Diff, Encoding::DeltaRle, Encoding::StreamVByte] {
            for hot in [false, true] {
                let data = spec.generate(ROWS);
                let store = SeriesStore::new(PAGE_POINTS);
                let name = format!("{}_q", spec.label());
                store.create_series(&name, Encoding::Ts2Diff, codec);
                store
                    .append_all(&name, &data.timestamps, &data.columns[0].1)
                    .unwrap();
                store.flush(&name).unwrap();
                let mut ts = data.timestamps.clone();
                let mut vals = data.columns[0].1.clone();
                if hot {
                    let tn = *ts.last().unwrap();
                    for i in 0..40i64 {
                        let v = (i * 907) % 511 - 200;
                        store.append(&name, tn + (i + 1) * 3, v).unwrap();
                        ts.push(tn + (i + 1) * 3);
                        vals.push(v);
                    }
                }
                let t0 = ts[0];
                let span = (*ts.last().unwrap() - t0).max(1);
                let w_dt = (span / 7).max(1);
                for (func, q) in [
                    (AggFunc::P50, 0.5),
                    (AggFunc::P95, 0.95),
                    (AggFunc::P99, 0.99),
                ] {
                    for windowed in [false, true] {
                        let plan = if windowed {
                            Plan::scan(&name).window(t0, w_dt, func)
                        } else {
                            Plan::scan(&name).aggregate(func)
                        };
                        for cfg in &configs {
                            let label = format!(
                                "spec={} codec={codec:?} hot={hot} {func:?} windowed={windowed} \
                                 cfg=[{}]",
                                spec.label(),
                                cfg_label(cfg)
                            );
                            let r = execute(&plan, &store, cfg).unwrap();
                            let again = execute(&plan, &store, cfg).unwrap();
                            assert!(
                                rows_eq(&r.rows, &again.rows, false),
                                "{label}: cached re-run diverged from the first answer"
                            );
                            if windowed {
                                for row in &r.rows {
                                    let (Value::Int(start), v) = (row[0], row[1]) else {
                                        panic!("{label}: malformed window row {row:?}");
                                    };
                                    let Value::Float(est) = v else {
                                        panic!("{label}: quantile cell was {v:?}");
                                    };
                                    let mut bucket: Vec<i64> = ts
                                        .iter()
                                        .zip(&vals)
                                        .filter(|(&t, _)| t >= start && t < start + w_dt)
                                        .map(|(_, &v)| v)
                                        .collect();
                                    check_rank(est, &mut bucket, q, &label);
                                    cases += 1;
                                }
                            } else {
                                let Value::Float(est) = r.rows[0][0] else {
                                    panic!("{label}: quantile cell was {:?}", r.rows[0][0]);
                                };
                                let mut bucket = vals.clone();
                                check_rank(est, &mut bucket, q, &label);
                                cases += 1;
                            }
                        }
                    }
                }
            }
        }
    }
    assert!(cases >= 200, "quantile sweep too small: {cases} cases");
    eprintln!("differential quantile sweep: {cases} cases within the rank bound");
}
