//! Float series over the wire: SQL aggregates on a float series (sealed
//! pages plus an unflushed hot tail) answer through `Client` exactly as
//! the naive oracle does, and the integer-only shapes come back as a
//! typed `Plan` error, never `Corrupt`.

use std::sync::Arc;

use etsqp_core::engine::{EngineOptions, IotDb};
use etsqp_core::oracle;
use etsqp_core::plan::Value;
use etsqp_core::sql;
use etsqp_encoding::Encoding;
use etsqp_serve::client::{Client, Response};
use etsqp_serve::proto::ErrorCode;
use etsqp_serve::server;
use etsqp_serve::ServeConfig;

fn float_db() -> Arc<IotDb> {
    let db = IotDb::new(EngineOptions::default().with_page_points(128));
    db.create_series_f64("f", Encoding::Elf).unwrap();
    for i in 0..1000i64 {
        let v = ((i as f64 * 0.013).cos() * 600.0).round() / 100.0 + 20.0;
        db.append_f64("f", i * 10, v).unwrap();
    }
    Arc::new(db)
}

/// Σ-derived cells depend on the summation order: 1e-9 relative.
fn close(a: &Value, b: &Value) -> bool {
    match (a, b) {
        (Value::Float(x), Value::Float(y)) => {
            x == y || (x - y).abs() <= 1e-9 * x.abs().max(y.abs()).max(1.0)
        }
        _ => a == b,
    }
}

#[test]
fn float_sql_over_the_wire_matches_the_oracle() {
    let db = float_db();
    assert!(db.store().buffered_points("f").unwrap() > 0, "hot tail");
    let handle = server::start(Arc::clone(&db), "127.0.0.1:0", ServeConfig::default()).unwrap();
    let mut c = Client::connect(handle.addr()).unwrap();
    for q in [
        "SELECT SUM(f) FROM f",
        "SELECT COUNT(f) FROM f WHERE time >= 2500",
        "SELECT AVG(f) FROM f WHERE f >= 20",
        "SELECT MIN(f) FROM f WHERE time <= 7000",
        "SELECT MAX(f) FROM f",
        "SELECT VARIANCE(f) FROM f WHERE time >= 1000 AND time <= 9000",
        "SELECT FIRST(f) FROM f WHERE f >= 25",
        "SELECT LAST(f) FROM f",
        "SELECT AVG(f) FROM f GROUP BY TIME(1500)",
        "SELECT MAX(f) FROM f SW(0, 2000)",
    ] {
        let (_, want) = oracle::execute(&sql::parse(q).unwrap(), db.store()).unwrap();
        let Response::Rows(got) = c.query(q).unwrap() else {
            panic!("{q}: server error");
        };
        assert_eq!(got.rows.len(), want.len(), "{q}");
        for (g, w) in got.rows.iter().zip(&want) {
            assert!(
                g.iter().zip(w).all(|(a, b)| close(a, b)),
                "{q}: {g:?} vs {w:?}"
            );
        }
    }
    for q in [
        "SELECT P95(f) FROM f",
        "SELECT * FROM f UNION f ORDER BY TIME",
    ] {
        match c.query(q).unwrap() {
            Response::ServerError(e) => assert_eq!(e.code, ErrorCode::Plan, "{q}: {e}"),
            Response::Rows(r) => panic!("{q}: expected a plan error, got {:?}", r.rows),
        }
    }
}
