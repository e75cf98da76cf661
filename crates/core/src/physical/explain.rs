//! `EXPLAIN`: renders a compiled [`PhysicalPlan`] as stable ASCII text —
//! config header, root merge node, and per-series pipelines with
//! page-group strategies and prune verdicts. The text is a pure function
//! of the plan and config (the verifier's explain-round-trip invariant).

use std::fmt::Write as _;

use etsqp_encoding::ordered_i64_to_f64;

use crate::expr::{AggFunc, BinOp, CmpOp, Predicate, TimeRange, ValueType};
use crate::fused::FuseLevel;
use crate::physical::node::{Node, Parallelism, RootNode, Strategy};
use crate::physical::pipe::PhysicalPlan;
use crate::plan::PipelineConfig;

fn fuse_name(level: FuseLevel) -> &'static str {
    match level {
        FuseLevel::None => "none",
        FuseLevel::Delta => "delta",
        FuseLevel::DeltaRepeat => "delta-repeat",
    }
}

fn on_off(flag: bool) -> &'static str {
    if flag {
        "on"
    } else {
        "off"
    }
}

fn fmt_bound(t: i64) -> String {
    match t {
        i64::MIN => "-inf".into(),
        i64::MAX => "+inf".into(),
        other => other.to_string(),
    }
}

fn fmt_range(r: &TimeRange) -> String {
    format!("[{}, {}]", fmt_bound(r.lo), fmt_bound(r.hi))
}

fn fmt_pred(pred: &Predicate, val_type: ValueType) -> String {
    let mut parts = Vec::new();
    if let Some(t) = pred.time {
        parts.push(format!("time in {}", fmt_range(&t)));
    }
    match (pred.value, val_type) {
        (Some((lo, hi)), ValueType::I64) => parts.push(format!("value in [{lo}, {hi}]")),
        (Some((lo, hi)), ValueType::F64) => {
            let (lo, hi) = (ordered_i64_to_f64(lo), ordered_i64_to_f64(hi));
            parts.push(format!("value in [{lo}, {hi}]"))
        }
        (None, _) => {}
    }
    if parts.is_empty() {
        "none".into()
    } else {
        parts.join(" and ")
    }
}

fn cmp_name(op: CmpOp) -> &'static str {
    match op {
        CmpOp::Lt => "<",
        CmpOp::Le => "<=",
        CmpOp::Gt => ">",
        CmpOp::Ge => ">=",
        CmpOp::Eq => "=",
    }
}

fn binop_name(op: BinOp) -> &'static str {
    match op {
        BinOp::Add => "+",
        BinOp::Sub => "-",
        BinOp::Mul => "*",
    }
}

/// The operator chain a page group runs through, built from [`Node`]
/// renderings so `EXPLAIN` and the node catalogue cannot drift apart.
fn chain(strategy: Strategy, pred: &Predicate, role_func: Option<AggFunc>, sliced: bool) -> String {
    let filter = Node::Filter {
        time: pred.time.is_some(),
        value: pred.value.is_some(),
    };
    let mut nodes: Vec<Node> = vec![Node::SourcePages];
    match (strategy, role_func) {
        _ if sliced => {
            nodes.push(Node::Slice);
            if let Some(func) = role_func {
                nodes.push(Node::PartialAgg { func });
            }
        }
        (
            Strategy::FusedTs2Diff
            | Strategy::FusedDeltaRle
            | Strategy::FusedSvb
            | Strategy::HeaderMinMax,
            Some(func),
        ) => {
            nodes.push(Node::FusedAgg { strategy, func });
        }
        (s, Some(func)) => {
            nodes.push(Node::DecodeScan {
                serial: s == Strategy::Serial,
            });
            nodes.push(filter);
            nodes.push(Node::PartialAgg { func });
        }
        (s, None) => {
            nodes.push(Node::DecodeScan {
                serial: s == Strategy::Serial,
            });
            nodes.push(filter);
        }
    }
    nodes
        .iter()
        .map(|n| n.to_string())
        .collect::<Vec<_>>()
        .join(" -> ")
}

impl PhysicalPlan {
    /// Renders the pipeline DAG as stable ASCII text (the `EXPLAIN`
    /// output): config header, root merge node, and per-series pipelines
    /// with page-group strategies and prune verdicts.
    pub fn render(&self, cfg: &PipelineConfig) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "physical plan (threads={}, prune={}, fuse={}, vectorized={}, slicing={}, cache={})",
            cfg.threads,
            on_off(cfg.prune),
            fuse_name(cfg.fuse),
            on_off(cfg.vectorized),
            on_off(cfg.allow_slicing),
            on_off(cfg.partial_cache),
        );
        let role_func = match &self.root {
            RootNode::Aggregate { func, window } => {
                match window {
                    Some(w) => {
                        let _ = writeln!(
                            out,
                            "WindowAggregate[{}, t_min={}, dt={}] <- {}",
                            func.name(),
                            w.t_min,
                            w.dt,
                            Node::MergeConcat
                        );
                    }
                    None => {
                        let _ =
                            writeln!(out, "Aggregate[{}] <- {}", func.name(), Node::MergeConcat);
                    }
                }
                Some(*func)
            }
            RootNode::Rows => {
                let _ = writeln!(out, "Rows <- {}", Node::MergeConcat);
                None
            }
            RootNode::Union { partitions } => {
                let _ = writeln!(
                    out,
                    "Union <- {} ({} partitions)",
                    Node::MergeUnion,
                    partitions.len()
                );
                render_partitions(&mut out, partitions);
                None
            }
            RootNode::Join { partitions, op, on } => {
                let mut extras = String::new();
                if let Some(op) = op {
                    let _ = write!(extras, ", expr: a {} b", binop_name(*op));
                }
                if let Some(on) = on {
                    let _ = write!(extras, ", on: a {} b", cmp_name(*on));
                }
                let _ = writeln!(
                    out,
                    "Join <- {} ({} partitions{extras})",
                    Node::MergeJoin,
                    partitions.len()
                );
                render_partitions(&mut out, partitions);
                None
            }
            RootNode::PairAgg { func, fused } => {
                let how = if *fused {
                    "FusedPairAgg (delta-rle, page-aligned)".to_string()
                } else {
                    format!("{}[moments]", Node::MergeJoin)
                };
                let _ = writeln!(out, "PairAgg[{}] <- {how}", func.name());
                None
            }
        };
        for p in &self.pipelines {
            let kept_pages = p.decisions.iter().filter(|d| d.verdict.kept()).count();
            let total_tuples: u64 = p.decisions.iter().map(|d| d.tuples).sum();
            let encs = p
                .pages
                .first()
                .map(|pg| {
                    format!(
                        " [ts={}, val={}]",
                        pg.header.ts_encoding.name(),
                        pg.header.val_encoding.name()
                    )
                })
                .unwrap_or_default();
            // The value type renders only on float sources, so integer
            // plans read exactly as before.
            let ty = if p.val_type == ValueType::F64 {
                " f64"
            } else {
                ""
            };
            let _ = writeln!(
                out,
                "  pipeline {}: {} pages ({} kept), {} tuples{}{ty}",
                p.series,
                p.pages.len(),
                kept_pages,
                total_tuples,
                encs
            );
            let _ = writeln!(out, "    pred: {}", fmt_pred(&p.pred, p.val_type));
            let _ = writeln!(out, "    parallelism: {}", p.parallelism);
            let sliced = matches!(p.parallelism, Parallelism::Sliced { .. });
            // Group consecutive pages with the same verdict + strategy.
            let mut i = 0;
            while i < p.decisions.len() {
                let d = &p.decisions[i];
                let mut j = i;
                while j + 1 < p.decisions.len()
                    && p.decisions[j + 1].verdict == d.verdict
                    && p.decisions[j + 1].strategy == d.strategy
                    && p.decisions[j + 1].cacheable == d.cacheable
                {
                    j += 1;
                }
                let span = if i == j {
                    format!("page {i}")
                } else {
                    format!("pages {i}-{j}")
                };
                // Static cache *eligibility* only — never live hit/miss
                // counts, which would break the EXPLAIN purity check
                // (`verify_explain` re-renders byte-identically).
                let cache_tag = if d.cacheable { " [cacheable]" } else { "" };
                match d.strategy {
                    Some(s) => {
                        let _ = writeln!(
                            out,
                            "    {span}: {} -> {}{cache_tag}",
                            d.verdict,
                            chain(s, &p.pred, role_func, sliced)
                        );
                    }
                    None => {
                        let _ = writeln!(out, "    {span}: {}", d.verdict);
                    }
                }
                i = j + 1;
            }
            // The hot-chunk source renders last: the executor folds it
            // after every sealed-page partial (its timestamps follow all
            // sealed ones). Absent when nothing is buffered, so plans
            // over flushed stores render exactly as before.
            if let Some(hot) = &p.hot {
                if hot.verdict.kept() {
                    let _ = writeln!(
                        out,
                        "    hot ({} tuples): {} -> {}",
                        hot.ts.len(),
                        hot.verdict,
                        hot_chain(&p.pred, role_func)
                    );
                } else {
                    let _ = writeln!(out, "    hot ({} tuples): {}", hot.ts.len(), hot.verdict);
                }
            }
        }
        out
    }
}

/// The operator chain a kept hot snapshot runs through: its columns are
/// already decoded, so the chain is source → filter (→ partial agg).
fn hot_chain(pred: &Predicate, role_func: Option<AggFunc>) -> String {
    let mut nodes: Vec<Node> = vec![
        Node::SourceHot,
        Node::Filter {
            time: pred.time.is_some(),
            value: pred.value.is_some(),
        },
    ];
    if let Some(func) = role_func {
        nodes.push(Node::PartialAgg { func });
    }
    nodes
        .iter()
        .map(|n| n.to_string())
        .collect::<Vec<_>>()
        .join(" -> ")
}

fn render_partitions(out: &mut String, partitions: &[TimeRange]) {
    for (i, r) in partitions.iter().enumerate() {
        let _ = writeln!(out, "  partition {i}: {}", fmt_range(r));
    }
}
