//! Float series through `IotDb::aggregate_f64` / `IotDb::scan_f64`: the
//! engine pipeline over the XOR codec family (GorillaFloat / Chimp /
//! Elf), with float values carried as ordered-i64 images.

use etsqp_core::engine::{EngineOptions, IotDb};
use etsqp_core::expr::{AggFunc, FloatRange, Plan, Predicate, TimeRange};
use etsqp_encoding::Encoding;

fn float_db(enc: Encoding) -> (IotDb, Vec<i64>, Vec<f64>) {
    let db = IotDb::new(
        EngineOptions::default()
            .with_threads(2)
            .with_page_points(256),
    );
    db.create_series_f64("t", enc).unwrap();
    let ts: Vec<i64> = (0..3000).map(|i| i * 10).collect();
    let vals: Vec<f64> = (0..3000)
        .map(|i| 20.0 + (i as f64 * 0.01).sin() * 5.0)
        .collect();
    for (&t, &v) in ts.iter().zip(&vals) {
        db.append_f64("t", t, v).unwrap();
    }
    db.flush().unwrap();
    (db, ts, vals)
}

fn agg(db: &IotDb, func: AggFunc, t: Option<TimeRange>, v: Option<FloatRange>) -> f64 {
    db.aggregate_f64("t", t, v, func).unwrap().unwrap()
}

#[test]
fn full_aggregate_matches_naive_for_all_float_codecs() {
    for enc in [Encoding::GorillaFloat, Encoding::Chimp, Encoding::Elf] {
        let (db, _, vals) = float_db(enc);
        let want: f64 = vals.iter().sum();
        assert!(
            (agg(&db, AggFunc::Sum, None, None) - want).abs() < 1e-6,
            "{}",
            enc.name()
        );
        assert_eq!(agg(&db, AggFunc::Count, None, None), 3000.0);
        let naive_min = vals.iter().cloned().fold(f64::INFINITY, f64::min);
        assert_eq!(agg(&db, AggFunc::Min, None, None), naive_min);
        let naive_max = vals.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
        assert_eq!(agg(&db, AggFunc::Max, None, None), naive_max);
        let stats = db
            .execute(&Plan::scan("t").aggregate(AggFunc::Sum))
            .unwrap()
            .stats;
        assert_eq!(stats.tuples_scanned, 3000, "{}", enc.name());
    }
}

#[test]
fn time_range_prunes_pages() {
    let (db, ts, vals) = float_db(Encoding::Chimp);
    let tr = TimeRange {
        lo: ts[1000],
        hi: ts[1999],
    };
    let want: f64 = vals[1000..2000].iter().sum();
    assert!((agg(&db, AggFunc::Sum, Some(tr), None) - want).abs() < 1e-6);
    assert_eq!(agg(&db, AggFunc::Count, Some(tr), None), 1000.0);
    let plan = Plan::scan("t")
        .filter(Predicate::time(tr.lo, tr.hi))
        .aggregate(AggFunc::Sum);
    let stats = db.execute(&plan).unwrap().stats;
    assert!(stats.pages_pruned > 0, "header pruning must fire");
}

#[test]
fn float_value_range_prunes_and_filters() {
    let (db, _, vals) = float_db(Encoding::GorillaFloat);
    let range = FloatRange { lo: 22.5, hi: 24.0 };
    let want_count = vals.iter().filter(|&&v| (22.5..=24.0).contains(&v)).count() as f64;
    assert_eq!(agg(&db, AggFunc::Count, None, Some(range)), want_count);
    // Out-of-domain range prunes everything at the header level.
    let far = FloatRange {
        lo: 100.0,
        hi: 200.0,
    };
    assert_eq!(
        db.aggregate_f64("t", None, Some(far), AggFunc::Count)
            .unwrap(),
        None
    );
    let plan = Plan::scan("t")
        .filter(Predicate {
            float: Some(far),
            ..Predicate::default()
        })
        .aggregate(AggFunc::Count);
    let stats = db.execute(&plan).unwrap().stats;
    assert_eq!(stats.pages_loaded, 0, "all pages header-pruned");
}

#[test]
fn scan_returns_rows_in_order() {
    let (db, ts, vals) = float_db(Encoding::Elf);
    let (t2, v2) = db.scan_f64("t", None).unwrap();
    assert_eq!(t2, ts);
    assert_eq!(v2.len(), vals.len());
    for (a, b) in v2.iter().zip(&vals) {
        assert_eq!(a.to_bits(), b.to_bits());
    }
}

#[test]
fn nan_values_never_match_ranges() {
    let db = IotDb::new(EngineOptions::default().with_page_points(64));
    db.create_series_f64("n", Encoding::Chimp).unwrap();
    for i in 0..100i64 {
        let v = if i % 10 == 0 { f64::NAN } else { i as f64 };
        db.append_f64("n", i, v).unwrap();
    }
    db.flush().unwrap();
    let all = FloatRange {
        lo: f64::MIN,
        hi: f64::MAX,
    };
    let count = db.aggregate_f64("n", None, Some(all), AggFunc::Count);
    assert_eq!(count.unwrap(), Some(90.0));
    let sum = db.aggregate_f64("n", None, Some(all), AggFunc::Sum);
    assert!(sum.unwrap().unwrap().is_finite());
}

#[test]
fn empty_float_series_answers_nothing() {
    let db = IotDb::new(EngineOptions::default());
    db.create_series_f64("e", Encoding::Chimp).unwrap();
    let range = FloatRange { lo: 1.0, hi: 2.0 };
    for func in [AggFunc::Count, AggFunc::Sum, AggFunc::Min, AggFunc::Max] {
        for v in [None, Some(range)] {
            let got = db.aggregate_f64("e", None, v, func).unwrap();
            assert_eq!(got, None, "{} over {v:?}", func.name());
        }
    }
    let (ts, vals) = db.scan_f64("e", None).unwrap();
    assert!(ts.is_empty() && vals.is_empty());
}

#[test]
fn integer_series_rejected() {
    let db = IotDb::new(EngineOptions::default());
    db.create_series("i").unwrap();
    db.append("i", 1, 1).unwrap();
    db.flush().unwrap();
    assert!(db.aggregate_f64("i", None, None, AggFunc::Sum).is_err());
    assert!(db.scan_f64("i", None).is_err());
}

#[test]
fn variance_matches_naive() {
    let (db, _, vals) = float_db(Encoding::Chimp);
    let n = vals.len() as f64;
    let mean = vals.iter().sum::<f64>() / n;
    let want = vals.iter().map(|v| (v - mean).powi(2)).sum::<f64>() / n;
    assert!((agg(&db, AggFunc::Variance, None, None) - want).abs() < 1e-6);
}
