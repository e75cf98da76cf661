//! The metric catalogue and the run's output: a human-readable block
//! (provenance, every metric with its unit, report-only figures) followed
//! by the one-line JSON result as the last line of stdout.

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// An end-to-end metric with its regression bound (share of the parent's
/// median by which it may worsen).
pub struct EndToEnd {
    /// Metric name.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// `lower` or `higher`.
    pub better: &'static str,
    /// Regression bound.
    pub bound: f64,
}

/// Gated end-to-end metrics; every workload reports each of them.
///
/// `queries_per_s` and `tuples_per_s` are over the program's typical
/// service time: each in-process operation is charged its median over
/// the passes, each `live_dashboard` query the median round trip of its
/// shape in the closed-loop wire phase, so no offered rate sets them.
/// `peak_rss_mb` is the program's resident memory at its peak while it
/// serves queries, without the benchmark's own share (see [`RssWatch`]).
///
/// Query latency (`query_p50_ms`, `query_p99_ms`), `failed_ratio`, the
/// live writer's append latency and `sustained_qps` are printed but not
/// gated: on a shared 2-vCPU VM, CPU steal moved the latency of
/// identical runs by up to 2x (median) and 6x (tail), far beyond any
/// usable bound, and the append and ladder figures exist only for
/// `live_dashboard`.
pub const END_TO_END: &[EndToEnd] = &[
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: "lower",
        bound: 0.25,
    },
    EndToEnd {
        name: "queries_per_s",
        unit: "1/s",
        better: "higher",
        bound: 0.25,
    },
    EndToEnd {
        name: "tuples_per_s",
        unit: "1/s",
        better: "higher",
        bound: 0.25,
    },
    EndToEnd {
        name: "peak_rss_mb",
        unit: "MB",
        better: "lower",
        bound: 0.2,
    },
];

/// A per-layer metric: which module it measures, and which end-to-end
/// metric on which workload it should move.
pub struct PerLayer {
    /// Metric name (prefixed by its layer).
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// `lower` or `higher`.
    pub better: &'static str,
    /// How it is measured from outside the engine.
    pub how: &'static str,
    /// End-to-end metric → workload it should move.
    pub moves: &'static str,
}

macro_rules! layer {
    ($name:expr, $unit:expr, $better:expr, $how:expr, $moves:expr) => {
        PerLayer {
            name: $name,
            unit: $unit,
            better: $better,
            how: $how,
            moves: $moves,
        }
    };
}

/// Per-layer metrics reported by a traced run. Every workload reports
/// every metric; a layer that does no work on a workload reports 0.
/// Times are medians per traced call; counts and stage times are means
/// per traced query, so stages + idle + unattributed = run wall × threads.
pub const PER_LAYER: &[PerLayer] = &[
    layer!(
        "sql.parse_us",
        "us",
        "lower",
        "time of sql::parse_statement",
        "query_p50_ms on live_dashboard"
    ),
    layer!(
        "pipe.compile_us",
        "us",
        "lower",
        "time of physical::pipe::compile on the parsed plan",
        "query_p50_ms on live_dashboard, cold_scan"
    ),
    layer!(
        "exec.run_us",
        "us",
        "lower",
        "plan::execute_ctl time minus the compile time",
        "tuples_per_s on cold_scan; queries_per_s on merge_join"
    ),
    layer!(
        "prune.pages_kept",
        "count",
        "lower",
        "QueryResult.stats.pages_loaded",
        "tuples_per_s on cold_scan"
    ),
    layer!(
        "prune.pages_pruned",
        "count",
        "higher",
        "QueryResult.stats.pages_pruned",
        "tuples_per_s on cold_scan"
    ),
    layer!(
        "prune.pages_pruned_expected",
        "count",
        "higher",
        "pages whose header misses the predicate (store.peek_pages)",
        "tuples_per_s on cold_scan (cross-check, not gated)"
    ),
    layer!(
        "stage.io_ns",
        "ns",
        "lower",
        "QueryResult.stats.io_ns",
        "tuples_per_s on cold_scan"
    ),
    layer!(
        "stage.unpack_ns",
        "ns",
        "lower",
        "QueryResult.stats.unpack_ns",
        "tuples_per_s on cold_scan"
    ),
    layer!(
        "stage.delta_ns",
        "ns",
        "lower",
        "QueryResult.stats.delta_ns",
        "tuples_per_s on cold_scan"
    ),
    layer!(
        "stage.filter_ns",
        "ns",
        "lower",
        "QueryResult.stats.filter_ns",
        "tuples_per_s on cold_scan"
    ),
    layer!(
        "stage.agg_ns",
        "ns",
        "lower",
        "QueryResult.stats.agg_ns",
        "tuples_per_s on cold_scan"
    ),
    layer!(
        "stage.merge_ns",
        "ns",
        "lower",
        "QueryResult.stats.merge_ns",
        "queries_per_s, peak_rss_mb on merge_join"
    ),
    layer!(
        "exec.idle_ns",
        "ns",
        "lower",
        "QueryResult.stats.idle_ns",
        "query_p50_ms on live_dashboard"
    ),
    layer!(
        "exec.unattributed_ns",
        "ns",
        "lower",
        "run wall x PipelineConfig.threads - stages - idle",
        "tuples_per_s on cold_scan"
    ),
    layer!(
        "pool.steals",
        "count",
        "lower",
        "QueryResult.stats.steals",
        "query_p50_ms on live_dashboard"
    ),
    layer!(
        "pool.local_pops",
        "count",
        "higher",
        "QueryResult.stats.local_pops",
        "query_p50_ms on live_dashboard"
    ),
    layer!(
        "decode.ts2diff.ns_per_value",
        "ns/value",
        "lower",
        "decode::decode_column over the workload's ts2diff value pages",
        "tuples_per_s on cold_scan"
    ),
    layer!(
        "decode.sprintz.ns_per_value",
        "ns/value",
        "lower",
        "decode::decode_column over the workload's sprintz value pages",
        "tuples_per_s on cold_scan"
    ),
    layer!(
        "decode.stream_vbyte.ns_per_value",
        "ns/value",
        "lower",
        "decode::decode_column over the workload's stream_vbyte value pages",
        "tuples_per_s on cold_scan"
    ),
    layer!(
        "decode.delta_rle.ns_per_value",
        "ns/value",
        "lower",
        "decode::decode_column over the workload's delta_rle value pages",
        "tuples_per_s on cold_scan"
    ),
    layer!(
        "simd.svb_kernel.ns_per_value",
        "ns/value",
        "lower",
        "etsqp_simd::svb::decode_quads on the same stream_vbyte bytes",
        "ceiling for decode.stream_vbyte on cold_scan"
    ),
    layer!(
        "partial.hit_ratio",
        "ratio",
        "higher",
        "cache_hits / (cache_hits + cache_misses) over every query",
        "query_p50_ms on live_dashboard; tuples_per_s on cold_scan"
    ),
    layer!(
        "partial.entries",
        "count",
        "higher",
        "PartialCache::global().len() at the end",
        "query_p50_ms on live_dashboard; tuples_per_s on cold_scan"
    ),
    layer!(
        "result.rows",
        "count",
        "lower",
        "rows per query result",
        "queries_per_s, peak_rss_mb on merge_join"
    ),
    layer!(
        "result.materialized_bytes",
        "B",
        "lower",
        "QueryResult.stats.materialized_bytes",
        "queries_per_s, peak_rss_mb on merge_join"
    ),
    layer!(
        "float.aggregate_us",
        "us",
        "lower",
        "time of IotDb::aggregate_f64",
        "query_p50_ms on cold_scan"
    ),
    layer!(
        "storage.append_us",
        "us",
        "lower",
        "time of one IotDb::append_all batch",
        "setup_s on all; append latency on live_dashboard"
    ),
    layer!(
        "storage.flush_ms",
        "ms",
        "lower",
        "time of IotDb::flush in set-up",
        "setup_s on all"
    ),
    layer!(
        "storage.snapshot_us",
        "us",
        "lower",
        "time of SeriesStore::snapshot",
        "setup_s on all; append latency on live_dashboard"
    ),
    layer!(
        "storage.bytes_per_point",
        "B/point",
        "lower",
        "sealed page bytes / sealed points",
        "setup_s on all"
    ),
    layer!(
        "serve.rtt_us",
        "us",
        "lower",
        "time of Client::query",
        "query_p50_ms on live_dashboard"
    ),
    layer!(
        "serve.overhead_us",
        "us",
        "lower",
        "Client::query time minus in-process IotDb::query for the same SQL",
        "query_p50_ms on live_dashboard"
    ),
    layer!(
        "serve.shed",
        "count",
        "lower",
        "ServerHandle::stats().shed",
        "query_p99_ms (printed) on live_dashboard"
    ),
    layer!(
        "trace.overhead_us",
        "us",
        "lower",
        "median traced minus median untraced call time (IotDb::query in process; Client::query round trip on live_dashboard)",
        "none (cost of the traced run itself)"
    ),
];

/// Where a run came from; printed with every result.
#[derive(Debug, Default, Clone)]
pub struct Provenance {
    /// Pairs in print order.
    pub fields: Vec<(&'static str, String)>,
}

impl Provenance {
    /// Adds a field.
    pub fn set(&mut self, key: &'static str, value: impl ToString) {
        self.fields.push((key, value.to_string()));
    }

    fn json(&self) -> String {
        let mut s = String::from("{");
        for (i, (k, v)) in self.fields.iter().enumerate() {
            let sep = if i == 0 { "" } else { ", " };
            let _ = write!(s, "{sep}\"{k}\": \"{}\"", escape(v));
        }
        s.push('}');
        s
    }
}

fn escape(s: &str) -> String {
    s.chars()
        .flat_map(|c| match c {
            '"' => vec!['\\', '"'],
            '\\' => vec!['\\', '\\'],
            c if (c as u32) < 0x20 => vec![' '],
            c => vec![c],
        })
        .collect()
}

/// The commit of the checkout, read from `.git` without running git;
/// `unknown` outside a repository.
pub fn git_commit() -> String {
    let read = |p: &str| std::fs::read_to_string(p).ok();
    let Some(head) = read(".git/HEAD") else {
        return "unknown".into();
    };
    let head = head.trim();
    let Some(r) = head.strip_prefix("ref: ") else {
        return head.to_string();
    };
    if let Some(c) = read(&format!(".git/{r}")) {
        return c.trim().to_string();
    }
    read(".git/packed-refs")
        .and_then(|p| {
            p.lines()
                .find(|l| l.ends_with(r))
                .and_then(|l| l.split_whitespace().next().map(str::to_string))
        })
        .unwrap_or_else(|| "unknown".into())
}

/// CPU model name from /proc/cpuinfo.
pub fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split(':').nth(1).map(|m| m.trim().to_string()))
        })
        .unwrap_or_else(|| "unknown".into())
}

/// Machine-wide (steal, total) CPU ticks from /proc/stat.
pub fn cpu_ticks() -> Option<(u64, u64)> {
    let stat = std::fs::read_to_string("/proc/stat").ok()?;
    let ticks: Vec<u64> = stat
        .lines()
        .next()?
        .split_whitespace()
        .skip(1)
        .filter_map(|t| t.parse().ok())
        .collect();
    Some((*ticks.get(7)?, ticks.iter().sum()))
}

/// A field of /proc/self/status given in kB, in MB.
pub fn status_mb(field: &str) -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status").map_err(|e| e.to_string())?;
    status
        .lines()
        .find_map(|l| l.strip_prefix(field))
        .and_then(|rest| rest.split_whitespace().next()?.parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| format!("no {field} in /proc/self/status"))
}

/// Releases free heap memory held by the C allocator (glibc only; the
/// benchmark uses the system allocator, as the engine does).
fn trim_heap() {
    #[cfg(all(target_os = "linux", target_env = "gnu"))]
    {
        extern "C" {
            fn malloc_trim(pad: usize) -> i32;
        }
        // SAFETY: malloc_trim only returns unused pages of the allocator's
        // own arenas to the system; it touches no memory the program owns.
        unsafe {
            malloc_trim(0);
        }
    }
}

/// The program's resident memory at its peak while it serves queries:
/// its store plus its query working memory. [`RssWatch::start`] resets
/// the process's resident-set high-water mark once set-up is done and the
/// expected answers are computed, so neither the set-up repeats nor the
/// reference computations count; [`RssWatch::mark`] ends one stretch of
/// queries (a pass or a window) and starts the next. `peak_rss_mb` is
/// the median over stretches of their peak, less the benchmark's own
/// share: the resident set the process started with and the generated
/// inputs it keeps for checking. One stretch whose allocations happened
/// to overlap more than usual does not move it; a larger store or larger
/// per-query buffers do.
pub struct RssWatch {
    harness_mb: f64,
    peaks_mb: Vec<f64>,
}

fn reset_peak() -> Result<(), String> {
    std::fs::write("/proc/self/clear_refs", "5")
        .map_err(|e| format!("resetting the peak resident set: {e}"))
}

impl RssWatch {
    /// Returns the allocator's free memory to the system, so memory the
    /// set-up freed is not counted, then resets the high-water mark (`5`
    /// to /proc/self/clear_refs). `start_mb` is the resident set at
    /// process start, `input_bytes` the size of the kept inputs.
    pub fn start(start_mb: f64, input_bytes: usize) -> Result<RssWatch, String> {
        trim_heap();
        reset_peak()?;
        Ok(RssWatch {
            harness_mb: start_mb + input_bytes as f64 / (1024.0 * 1024.0),
            peaks_mb: Vec::new(),
        })
    }

    /// Records the peak since the last mark, returns the allocator's free
    /// memory (so what one stretch freed is not carried into the next)
    /// and resets the peak. A failure is kept and reported by
    /// [`RssWatch::finish`].
    pub fn mark(&mut self) {
        let peak = status_mb("VmHWM:");
        trim_heap();
        let peak = peak.and_then(|mb| reset_peak().map(|()| mb));
        self.peaks_mb.push(peak.unwrap_or(f64::NAN));
    }

    /// Records `peak_rss_mb`, with the process's highest peak and the
    /// benchmark's share as report-only figures.
    pub fn finish(mut self, r: &mut Report) -> Result<(), String> {
        if self.peaks_mb.is_empty() {
            self.mark();
        }
        if self.peaks_mb.iter().any(|p| p.is_nan()) {
            return Err("reading the peak resident set failed".into());
        }
        let peak = crate::stats::median(&self.peaks_mb);
        r.e2e.insert("peak_rss_mb", peak - self.harness_mb);
        let top = self.peaks_mb.iter().copied().fold(0.0, f64::max);
        r.extra.push(("rss.process_peak_mb", top, "MB"));
        r.extra.push(("rss.harness_mb", self.harness_mb, "MB"));
        r.extra
            .push(("rss.stretches", self.peaks_mb.len() as f64, "count"));
        Ok(())
    }
}

/// Everything one run measured.
#[derive(Debug, Default)]
pub struct Report {
    /// Gated end-to-end metrics (`--trace 0`).
    pub e2e: BTreeMap<&'static str, f64>,
    /// Per-layer metrics (`--trace 1`).
    pub layers: BTreeMap<&'static str, f64>,
    /// Report-only figures: `(name, value, unit)`.
    pub extra: Vec<(&'static str, f64, &'static str)>,
    /// Operations attempted in the measured phase.
    pub attempted: u64,
    /// Operations that errored or were refused.
    pub errors: u64,
    /// Operations whose answer was wrong.
    pub wrong: u64,
    /// First few wrong-answer descriptions.
    pub wrong_notes: Vec<String>,
}

impl Report {
    /// Records a wrong answer.
    pub fn wrong(&mut self, what: String) {
        self.wrong += 1;
        if self.wrong_notes.len() < 5 {
            self.wrong_notes.push(what);
        }
    }

    /// Whether every answer was right and no operation failed.
    pub fn passed(&self) -> bool {
        self.wrong == 0 && self.errors == 0
    }

    /// Renders the output; the JSON result is the last line. Metrics are
    /// the end-to-end set, or the per-layer set when `traced`.
    pub fn render(&self, prov: &Provenance, traced: bool) -> Result<String, String> {
        let mut out = String::new();
        let _ = writeln!(out, "provenance {}", prov.json());
        let failed = self.errors + self.wrong;
        let _ = writeln!(
            out,
            "metric failed_ratio {} ratio",
            failed as f64 / self.attempted.max(1) as f64
        );
        for (name, v, unit) in &self.extra {
            let _ = writeln!(out, "metric {name} {v} {unit}");
        }
        let mut json = String::new();
        let catalogue: Vec<(&str, &str, String)> = if traced {
            PER_LAYER
                .iter()
                .map(|m| {
                    (
                        m.name,
                        m.unit,
                        format!("{}; {} is better; moves {}", m.how, m.better, m.moves),
                    )
                })
                .collect()
        } else {
            END_TO_END
                .iter()
                .map(|m| {
                    (
                        m.name,
                        m.unit,
                        format!("{} is better; bound {}", m.better, m.bound),
                    )
                })
                .collect()
        };
        let values = if traced { &self.layers } else { &self.e2e };
        for (i, (name, unit, note)) in catalogue.iter().enumerate() {
            let v = *values
                .get(name)
                .ok_or_else(|| format!("metric {name} was not measured"))?;
            if !v.is_finite() {
                return Err(format!("metric {name} is not finite: {v}"));
            }
            let _ = writeln!(out, "metric {name} {v} {unit} ({note})");
            let sep = if i == 0 { "" } else { ", " };
            let _ = write!(
                json,
                "{sep}\"{name}\": {{\"value\": {v}, \"unit\": \"{unit}\"}}"
            );
        }
        for note in &self.wrong_notes {
            let _ = writeln!(out, "wrong {note}");
        }
        let _ = writeln!(
            out,
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {failed}, \"metrics\": {{{json}}}}}",
            self.wrong == 0,
            self.attempted.max(1),
        );
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn manifest() -> String {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root")
    }

    #[test]
    fn benchmark_json_lists_exactly_these_metrics() {
        let m = manifest();
        for e in END_TO_END {
            let line = format!(
                "{{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\", \"bound\": {}}}",
                e.name, e.unit, e.better, e.bound
            );
            assert!(m.contains(&line), "BENCHMARK.json lacks {line}");
        }
        for l in PER_LAYER {
            let line = format!(
                "{{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\"}}",
                l.name, l.unit, l.better
            );
            assert!(m.contains(&line), "BENCHMARK.json lacks {line}");
        }
        let listed = m.matches("\"name\":").count();
        let workloads = crate::WORKLOADS.len();
        assert_eq!(listed, END_TO_END.len() + PER_LAYER.len() + workloads);
    }

    #[test]
    fn setup_has_the_largest_bound() {
        let setup = END_TO_END.iter().find(|e| e.name == "setup_s").unwrap();
        assert!(END_TO_END
            .iter()
            .all(|e| e.bound <= setup.bound && e.bound <= 0.25));
    }

    #[test]
    fn render_ends_with_the_result_line() {
        let mut r = Report {
            attempted: 10,
            ..Default::default()
        };
        for e in END_TO_END {
            r.e2e.insert(e.name, 1.5);
        }
        let out = r.render(&Provenance::default(), false).unwrap();
        let last = out.lines().last().unwrap();
        assert!(last.starts_with("{\"correct\": true, \"attempted\": 10, \"failed\": 0,"));
        assert!(last.contains("\"setup_s\": {\"value\": 1.5, \"unit\": \"s\"}"));

        r.wrong("x".into());
        let out = r.render(&Provenance::default(), false).unwrap();
        assert!(out.lines().last().unwrap().contains("\"correct\": false"));

        r.e2e.remove("setup_s");
        assert!(r.render(&Provenance::default(), false).is_err());
    }
}
