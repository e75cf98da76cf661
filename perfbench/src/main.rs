//! End-to-end and per-layer benchmark of the ETSQP engine.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <cold_scan|merge_join|live_dashboard> --seed <n> --seconds <n> --trace <0|1>
//! ```
//!
//! Each run builds its inputs from the seed, sets up the database
//! repeatedly, warms up, measures for `--seconds`, sets up as many times
//! again (`setup_s` is the median over both ends of the run), checks
//! every answer, and prints its metrics. The last line of stdout is one JSON object: `--trace 0`
//! reports the end-to-end metrics, `--trace 1` the per-layer metrics,
//! measured from spans the benchmark records around its own calls into
//! each module; those spans are written to `perfbench/out/` when the run
//! ends. The exit status is non-zero on any wrong answer or failed
//! operation.

mod check;
mod cold_scan;
mod gen;
mod live_dashboard;
mod merge_join;
mod report;
mod run;
mod stats;
mod trace;

use std::time::Instant;

use etsqp_core::partial::PartialCache;
use etsqp_core::plan::PipelineConfig;

use report::{Provenance, Report};
use run::{Ctx, LayerAcc};
use trace::Tracer;

/// The workloads, in the order BENCHMARK.json lists them.
pub const WORKLOADS: [&str; 3] = ["cold_scan", "merge_join", "live_dashboard"];

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut it = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace must be 0 or 1".into()),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!("unknown workload {workload}; one of {WORKLOADS:?}"));
    }
    Ok(Args {
        workload,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.unwrap_or(10.0),
        trace: trace.unwrap_or(false),
    })
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!(
                "usage: --workload <{}> --seed <n> --seconds <n> --trace <0|1>\n{e}",
                WORKLOADS.join("|")
            );
            std::process::exit(2);
        }
    };
    let rss_start_mb = match report::status_mb("VmRSS:") {
        Ok(mb) => mb,
        Err(e) => {
            eprintln!("{e}");
            std::process::exit(1);
        }
    };
    let steal_before = report::cpu_ticks();
    let epoch = Instant::now();
    let mut ctx = Ctx {
        seed: args.seed,
        seconds: args.seconds,
        epoch,
        tracer: Tracer::new(args.trace, epoch, 1),
        report: Report::default(),
        acc: LayerAcc::default(),
        prov: Provenance::default(),
        rss_start_mb,
    };
    let outcome = match args.workload.as_str() {
        "cold_scan" => cold_scan::run(&mut ctx),
        "merge_join" => merge_join::run(&mut ctx),
        _ => live_dashboard::run(&mut ctx),
    };
    if let Err(e) = outcome {
        eprintln!("{}: {e}", args.workload);
        std::process::exit(1);
    }

    let cfg = PipelineConfig::default();
    let mut prov = Provenance::default();
    prov.set("workload", &args.workload);
    prov.set("seed", args.seed);
    prov.set("seconds", args.seconds);
    prov.set("trace", args.trace as u8);
    prov.set("commit", report::git_commit());
    prov.set("cpu", report::cpu_model());
    prov.set(
        "nproc",
        std::thread::available_parallelism().map_or(0, |n| n.get()),
    );
    prov.set("simd.backend", etsqp_simd::backend());
    prov.set("pool.threads", etsqp_core::pool::pool_threads());
    prov.set("pipeline.threads", cfg.threads);
    prov.set("partial.entries_final", PartialCache::global().len());
    if let (Some((s0, t0)), Some((s1, t1))) = (steal_before, report::cpu_ticks()) {
        // Time the hypervisor ran something else on this machine's vCPUs:
        // runs with a high share read slower for reasons outside the code.
        let pct = 100.0 * (s1 - s0) as f64 / (t1 - t0).max(1) as f64;
        prov.set("host.steal_pct", format!("{pct:.2}"));
    }
    if !ctx.prov.fields.iter().any(|(k, _)| *k == "loadgen.late_ms") {
        prov.set("loadgen.late_ms", "closed loop: 0");
    }
    prov.fields.append(&mut ctx.prov.fields);

    let mut report = std::mem::take(&mut ctx.report);
    if args.trace {
        ctx.acc.finish(&mut report.layers);
        let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/out");
        let path = format!("{dir}/spans-{}-seed{}.jsonl", args.workload, args.seed);
        let written = std::fs::create_dir_all(dir)
            .and_then(|_| std::fs::File::create(&path))
            .and_then(|f| ctx.tracer.write_to(std::io::BufWriter::new(f)));
        match written {
            Ok(()) => prov.set(
                "spans",
                format!("{} spans in {path}", ctx.tracer.spans().len()),
            ),
            Err(e) => {
                eprintln!("writing {path}: {e}");
                std::process::exit(1);
            }
        }
    }
    match report.render(&prov, args.trace) {
        Ok(text) => print!("{text}"),
        Err(e) => {
            eprintln!("{e}");
            std::process::exit(1);
        }
    }
    if !report.passed() {
        std::process::exit(1);
    }
}
