//! Drives the `etsqp-cli` binary end to end through a pipe: generate a
//! dataset, query it, persist to a TsFile, reload, and re-query.

use std::io::Write;
use std::path::PathBuf;
use std::process::{Command, Stdio};
use std::sync::atomic::{AtomicU32, Ordering};

/// A per-test scratch directory, removed on drop. The path embeds the
/// process id and a counter so concurrent `cargo test` invocations (and
/// the tests within one run) never collide on a shared fixed path.
struct TempDir(PathBuf);

impl TempDir {
    fn new(tag: &str) -> Self {
        static SEQ: AtomicU32 = AtomicU32::new(0);
        let dir = std::env::temp_dir().join(format!(
            "etsqp_cli_smoke_{tag}_{}_{}",
            std::process::id(),
            SEQ.fetch_add(1, Ordering::Relaxed)
        ));
        std::fs::create_dir_all(&dir).unwrap();
        TempDir(dir)
    }

    fn file(&self, name: &str) -> PathBuf {
        self.0.join(name)
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        std::fs::remove_dir_all(&self.0).ok();
    }
}

fn run_cli(script: &str, args: &[&str]) -> String {
    let mut child = Command::new(env!("CARGO_BIN_EXE_etsqp-cli"))
        .args(args)
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn etsqp-cli");
    child
        .stdin
        .as_mut()
        .unwrap()
        .write_all(script.as_bytes())
        .expect("write script");
    let out = child.wait_with_output().expect("cli exit");
    assert!(out.status.success(), "cli failed: {:?}", out);
    String::from_utf8_lossy(&out.stdout).into_owned()
}

#[test]
fn generate_query_save_reload() {
    let dir = TempDir::new("save_reload");
    let file = dir.file("cli_smoke.etsqp");
    let file_str = file.to_str().unwrap();

    let script = format!(
        ".gen atm 5000\n\
         .series\n\
         SELECT COUNT(atm_temperature) FROM atm_temperature\n\
         .save {file_str}\n\
         .quit\n"
    );
    let out = run_cli(&script, &[]);
    assert!(out.contains("generated Atmosphere (5000 rows"), "{out}");
    assert!(out.contains("atm_temperature: 5000 points"), "{out}");
    assert!(out.contains("5000"), "count row missing: {out}");
    assert!(out.contains("saved"), "{out}");

    // Reload via the CLI argument and query again.
    let out = run_cli(
        "SELECT COUNT(atm_humidity) FROM atm_humidity\n.quit\n",
        &[file_str],
    );
    assert!(out.contains("loaded"), "{out}");
    assert!(out.contains("5000"), "{out}");
}

#[test]
fn errors_do_not_kill_the_shell() {
    let script = ".gen atm 1000\n\
                  SELECT FROM nonsense(\n\
                  SELECT SUM(missing) FROM missing\n\
                  .bogus\n\
                  SELECT COUNT(atm_pressure) FROM atm_pressure\n\
                  .quit\n";
    let out = run_cli(script, &[]);
    // The final valid query must still have run.
    assert!(out.contains("1000"), "{out}");
}

#[test]
fn config_switches_apply() {
    let script = ".gen sine 2000\n\
                  .config threads 1 prune off fuse none vectorized off\n\
                  SELECT SUM(sine_sine0) FROM sine_sine0\n\
                  .config prune on vectorized on fuse repeat\n\
                  SELECT SUM(sine_sine0) FROM sine_sine0\n\
                  .quit\n";
    let out = run_cli(script, &[]);
    // Both engine configurations produce the same SUM line twice.
    let sums: Vec<&str> = out
        .lines()
        .filter(|l| {
            l.starts_with("SUM(")
                || l.chars()
                    .next()
                    .is_some_and(|c| c == '-' || c.is_ascii_digit())
        })
        .collect();
    assert!(sums.len() >= 2, "{out}");
}

#[test]
fn float_series_answer_through_the_cli() {
    use etsqp::{AggFunc, Encoding, EngineOptions, IotDb, Plan};

    let dir = TempDir::new("float");
    let file = dir.file("float.etsqp");
    let db = IotDb::new(EngineOptions::default().with_page_points(100));
    db.create_series_f64("f", Encoding::Chimp).unwrap();
    for i in 0..1000i64 {
        db.append_f64("f", i * 10, 20.5 + (i % 25) as f64 * 0.25)
            .unwrap();
    }
    db.flush().unwrap();
    etsqp::storage::tsfile::write(db.store(), &file).unwrap();

    let out = run_cli(
        "SELECT MAX(f) FROM f\nSELECT COUNT(f) FROM f WHERE f >= 24\nSELECT P95(f) FROM f\n.quit\n",
        &[file.to_str().unwrap()],
    );
    let oracle = |plan: Plan| etsqp::core::oracle::execute(&plan, db.store()).unwrap().1;
    assert_eq!(
        oracle(Plan::scan("f").aggregate(AggFunc::Max))[0][0],
        etsqp::Value::Float(26.5)
    );
    assert!(out.contains("\n26.5000\n"), "{out}");
    let count = oracle(etsqp::core::sql::parse("SELECT COUNT(f) FROM f WHERE f >= 24").unwrap());
    assert!(
        out.contains(&format!("\n{}\n", count[0][0].as_f64())),
        "{out}"
    );
    assert!(!out.contains("corrupt"), "{out}");
}
