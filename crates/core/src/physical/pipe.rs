//! The Algorithm 2 `Pipe` generator: compiles a logical [`Plan`] plus
//! per-page encoding statistics into an explicit pipeline DAG
//! ([`PhysicalPlan`]), making every fused/decoded/sliced and prune
//! decision *data* instead of control flow buried in the executor.
//!
//! The same compiled plan drives both execution
//! ([`crate::physical::driver::run`]) and `EXPLAIN`
//! ([`PhysicalPlan::render`], in the `explain` module) — what the
//! snapshot tests pin is by construction what the executor does.

use std::sync::Arc;

use etsqp_encoding::Encoding;
use etsqp_storage::page::Page;
use etsqp_storage::store::{SeriesSnapshot, SeriesStore};

use crate::expr::{AggFunc, BinOp, CmpOp, Plan, Predicate, SlidingWindow, TimeRange, ValueType};
use crate::fused::FuseLevel;
use crate::physical::agg::{fusion_covers, header_bounds_are_values, spread_fits_i64};
use crate::physical::merge::merge_partitions;
use crate::physical::node::{
    HotScan, PageDecision, Parallelism, RootNode, SeriesPipeline, Strategy,
};
use crate::physical::scan::{hot_verdict, page_verdict};
use crate::physical::window::single_bucket_index;
use crate::plan::{flatten_scan, PipelineConfig};
use crate::slice::distribute;
use crate::{Error, Result};

/// A compiled physical pipeline DAG: per-series pipelines feeding the
/// root merge node (Figure 9).
#[derive(Debug, Clone)]
pub struct PhysicalPlan {
    /// The root merge node combining the per-series partials.
    pub root: RootNode,
    /// One pipeline per scanned series (left before right for binary
    /// operators).
    pub pipelines: Vec<SeriesPipeline>,
}

/// What the pages of a pipeline feed — decides the per-page strategy.
enum Role {
    /// Partial aggregation (`FusedAgg` / `PartialAgg` pipelines).
    Agg {
        func: AggFunc,
        window: Option<SlidingWindow>,
    },
    /// Row production (scans and binary-operator sides).
    Rows,
}

/// A series' value type, read from its value codecs (an empty series
/// reads as integers).
fn value_type(snap: &SeriesSnapshot) -> ValueType {
    let float = snap.hot.iter().any(|h| h.val_encoding.is_float())
        || snap.pages.iter().any(|p| p.header.val_encoding.is_float());
    if float {
        ValueType::F64
    } else {
        ValueType::I64
    }
}

/// A unary pipeline's source: pages, hot scan, value type, and the
/// pushed-down predicate in that type's value domain.
type Source = (Vec<Arc<Page>>, Option<HotScan>, ValueType, Predicate);

/// Captures a series' atomic `(sealed pages, hot snapshot)` pair for a
/// unary pipeline, maps the predicate into the series' value domain, and
/// compiles the hot half into a [`HotScan`] with its §V verdict over the
/// snapshot's exact statistics. Float sources reject the aggregates
/// whose state is integer-only (quantile sketches, rate/delta).
fn unary_source(
    store: &SeriesStore,
    series: &str,
    pred: Predicate,
    func: Option<AggFunc>,
    cfg: &PipelineConfig,
) -> Result<Source> {
    let snap = store.snapshot(series).map_err(Error::Storage)?;
    // An empty series has no codec to type it; a float conjunct selects
    // nothing there either way.
    let empty = snap.pages.is_empty() && snap.hot.is_none();
    let val_type = match value_type(&snap) {
        ValueType::I64 if empty && pred.float.is_some() => ValueType::F64,
        ty => ty,
    };
    let pred = match (val_type, func) {
        (ValueType::F64, Some(f)) if f.partial_only() => {
            let name = f.name();
            return Err(Error::Plan(format!(
                "{name} is not supported on float series {series}"
            )));
        }
        (ValueType::F64, _) => pred.on_floats(),
        (ValueType::I64, _) if pred.float.is_some() => {
            return Err(Error::Plan(format!(
                "float value range on integer series {series}"
            )))
        }
        (ValueType::I64, _) => pred,
    };
    let hot = snap.hot.map(|h| HotScan {
        verdict: hot_verdict(&h.ts, h.min_value, h.max_value, &pred, cfg.prune),
        ts: h.ts,
        vals: h.vals,
    });
    Ok((snap.pages, hot, val_type, pred))
}

/// Captures a series' snapshot for a binary-operator side, materializing
/// any hot points as one transient checksummed page (encoded with the
/// series' own codecs) appended after the sealed pages. Partitioned
/// merge nodes then see a single uniform page list — partitioning,
/// pruning and pair-fusion checks all apply to live data unchanged.
/// Binary operators are integer-only: a float series is a typed
/// [`Error::Plan`].
fn pages_with_hot(store: &SeriesStore, series: &str, pred: Predicate) -> Result<Source> {
    let snap = store.snapshot(series).map_err(Error::Storage)?;
    if pred.float.is_some() || value_type(&snap) == ValueType::F64 {
        return Err(Error::Plan(format!(
            "binary operators over float series are not supported ({series})"
        )));
    }
    let mut pages = snap.pages;
    if let Some(h) = snap.hot {
        pages.push(Arc::new(h.to_page().map_err(Error::Storage)?));
    }
    Ok((pages, None, ValueType::I64, pred))
}

/// Algorithm 2 `Pipe`: compiles the logical plan against the store's
/// page headers under `cfg` into an explicit [`PhysicalPlan`].
///
/// Debug builds run the `etsqp-verify` invariant catalog
/// ([`crate::physical::verify`]) over every compiled plan — including an
/// `EXPLAIN` round-trip — before handing it to the executor, so a
/// planner regression aborts at compile time instead of silently
/// mis-executing. Release builds skip the pass; `cargo run -p xtask --
/// verify-plans` covers the full plan space there.
pub fn compile(plan: &Plan, store: &SeriesStore, cfg: &PipelineConfig) -> Result<PhysicalPlan> {
    let compiled = compile_inner(plan, store, cfg)?;
    #[cfg(debug_assertions)]
    {
        use crate::physical::verify;
        verify::verify(&compiled, cfg).map_err(Error::Verify)?;
        let rendered = compiled.render(cfg);
        verify::verify_explain(&compiled, cfg, &rendered).map_err(Error::Verify)?;
    }
    Ok(compiled)
}

fn compile_inner(plan: &Plan, store: &SeriesStore, cfg: &PipelineConfig) -> Result<PhysicalPlan> {
    match plan {
        Plan::Aggregate { input, func } => aggregate(input, *func, None, store, cfg),
        Plan::WindowAggregate {
            input,
            window,
            func,
        } => aggregate(input, *func, Some(*window), store, cfg),
        Plan::Scan { .. } | Plan::Filter { .. } => {
            let (series, pred) = flatten_scan(plan)?;
            let source = unary_source(store, &series, pred, None, cfg)?;
            let pipeline = build_pipeline(series, source, Role::Rows, cfg);
            Ok(PhysicalPlan {
                root: RootNode::Rows,
                pipelines: vec![pipeline],
            })
        }
        Plan::Union { left, right } => {
            let (lpipe, rpipe, partitions) = binary_sides(left, right, store, cfg)?;
            Ok(PhysicalPlan {
                root: RootNode::Union { partitions },
                pipelines: vec![lpipe, rpipe],
            })
        }
        Plan::Join { left, right, on } => join(left, right, None, *on, store, cfg),
        Plan::JoinExpr { left, right, op } => join(left, right, Some(*op), None, store, cfg),
        Plan::JoinAggregate { left, right, func } => {
            let (ls, lp) = flatten_scan(left)?;
            let (rs, rp) = flatten_scan(right)?;
            let lsrc = pages_with_hot(store, &ls, lp)?;
            let rsrc = pages_with_hot(store, &rs, rp)?;
            let fused = lp.is_trivial() && rp.is_trivial() && pair_fusible(&lsrc.0, &rsrc.0, cfg);
            let lpipe = build_pipeline(ls, lsrc, Role::Rows, cfg);
            let rpipe = build_pipeline(rs, rsrc, Role::Rows, cfg);
            Ok(PhysicalPlan {
                root: RootNode::PairAgg { func: *func, fused },
                pipelines: vec![lpipe, rpipe],
            })
        }
    }
}

/// A whole-input or windowed aggregate over one series.
fn aggregate(
    input: &Plan,
    func: AggFunc,
    window: Option<SlidingWindow>,
    store: &SeriesStore,
    cfg: &PipelineConfig,
) -> Result<PhysicalPlan> {
    let (series, pred) = flatten_scan(input)?;
    let source = unary_source(store, &series, pred, Some(func), cfg)?;
    Ok(PhysicalPlan {
        root: RootNode::Aggregate { func, window },
        pipelines: vec![build_pipeline(
            series,
            source,
            Role::Agg { func, window },
            cfg,
        )],
    })
}

/// A natural join, emitting `op(a, b)` or the pairs passing `on`.
fn join(
    left: &Plan,
    right: &Plan,
    op: Option<BinOp>,
    on: Option<CmpOp>,
    store: &SeriesStore,
    cfg: &PipelineConfig,
) -> Result<PhysicalPlan> {
    let (lpipe, rpipe, partitions) = binary_sides(left, right, store, cfg)?;
    Ok(PhysicalPlan {
        root: RootNode::Join { partitions, op, on },
        pipelines: vec![lpipe, rpipe],
    })
}

/// Compiles both sides of a binary operator and the time-range
/// partitions its merge node runs over.
fn binary_sides(
    left: &Plan,
    right: &Plan,
    store: &SeriesStore,
    cfg: &PipelineConfig,
) -> Result<(SeriesPipeline, SeriesPipeline, Vec<TimeRange>)> {
    let (ls, lp) = flatten_scan(left)?;
    let (rs, rp) = flatten_scan(right)?;
    let lsrc = pages_with_hot(store, &ls, lp)?;
    let rsrc = pages_with_hot(store, &rs, rp)?;
    let partitions = merge_partitions(&lsrc.0, &rsrc.0, cfg.threads);
    let lpipe = build_pipeline(ls, lsrc, Role::Rows, cfg);
    let rpipe = build_pipeline(rs, rsrc, Role::Rows, cfg);
    Ok((lpipe, rpipe, partitions))
}

/// Builds one per-series pipeline: §V verdict per page, strategy per
/// kept page, and the §III-C morsel shape.
fn build_pipeline(
    series: String,
    source: Source,
    role: Role,
    cfg: &PipelineConfig,
) -> SeriesPipeline {
    let (pages, hot, val_type, pred) = source;
    let mut decisions = Vec::with_capacity(pages.len());
    let mut kept: Vec<Arc<Page>> = Vec::new();
    for (index, page) in pages.iter().enumerate() {
        let verdict = page_verdict(page, &pred, cfg.prune);
        let strategy = verdict.kept().then(|| match &role {
            Role::Agg { func, window } => {
                choose_page_strategy(page, &pred, window.as_ref(), *func, cfg)
            }
            Role::Rows => {
                if cfg.vectorized {
                    Strategy::Decode
                } else {
                    Strategy::Serial
                }
            }
        });
        if verdict.kept() {
            kept.push(Arc::clone(page));
        }
        decisions.push(PageDecision {
            index,
            tuples: page.header.count as u64,
            verdict,
            strategy,
            // Pruning trusts header min/max without decoding, so every
            // pruned page carries the obligation to checksum-verify
            // before it is dropped (§V verify-before-prune).
            checksum_obligation: !verdict.kept(),
            cacheable: cacheable_page(page, &pred, &role, verdict.kept(), cfg),
        });
    }
    let parallelism = match &role {
        Role::Agg { func, window } if sliceable(&kept, &pred, window.is_some(), *func, cfg) => {
            Parallelism::Sliced {
                pages: kept.len(),
                jobs: distribute(&kept, cfg.threads).len(),
            }
        }
        _ => Parallelism::PerPage { jobs: kept.len() },
    };
    if matches!(parallelism, Parallelism::Sliced { .. }) {
        // Sliced pipelines run slice-coefficient jobs, which never probe
        // the partial cache; a `[cacheable]` tag would be a lie.
        for d in &mut decisions {
            d.cacheable = false;
        }
    }
    SeriesPipeline {
        series,
        val_type,
        pred,
        pages,
        decisions,
        parallelism,
        hot,
    }
}

/// The static partial-cache eligibility of one page (rendered as
/// `[cacheable]` in `EXPLAIN`; checked by the cache-obligation
/// invariant): the whole-page partial must be a pure function of the
/// page content — kept, no value filter, time filter covering the whole
/// page, and (under a windowed aggregate) the page inside one bucket.
fn cacheable_page(
    page: &Page,
    pred: &Predicate,
    role: &Role,
    kept: bool,
    cfg: &PipelineConfig,
) -> bool {
    let Role::Agg { window, .. } = role else {
        return false;
    };
    cfg.partial_cache
        && kept
        && pred.value.is_none()
        && time_covers_page(page, pred)
        && window.is_none_or(|w| single_bucket_index(page, &w).is_some())
}

/// Whether the §III-C slicing morsel shape applies: unfiltered,
/// unwindowed TS2DIFF scans with fewer kept pages than threads, where
/// the slice partials combine symbolically. Partial-only aggregates
/// (quantiles, rate/delta) never slice — a symbolic slice coefficient
/// cannot carry a sketch or the covered timestamps.
pub(crate) fn sliceable(
    kept: &[Arc<Page>],
    pred: &Predicate,
    windowed: bool,
    func: AggFunc,
    cfg: &PipelineConfig,
) -> bool {
    cfg.allow_slicing
        && cfg.vectorized
        && !windowed
        && !func.partial_only()
        && pred.is_trivial()
        && kept.len() < cfg.threads
        && kept
            .iter()
            .all(|p| p.header.val_encoding == Encoding::Ts2Diff && spread_fits_i64(p))
}

/// Whether the time conjunct (if any) covers the whole page — header
/// first/last timestamps are exact, so this equals "the qualifying index
/// range is the full page".
pub(crate) fn time_covers_page(page: &Page, pred: &Predicate) -> bool {
    pred.time
        .is_none_or(|t| t.lo <= page.header.first_ts && t.hi >= page.header.last_ts)
}

/// The per-page strategy choice — previously an implicit branch chain in
/// the executor, now a planner decision from header statistics alone.
fn choose_page_strategy(
    page: &Page,
    pred: &Predicate,
    window: Option<&SlidingWindow>,
    func: AggFunc,
    cfg: &PipelineConfig,
) -> Strategy {
    if !cfg.vectorized {
        return Strategy::Serial;
    }
    if pred.value.is_some() {
        return Strategy::Decode;
    }
    let enc = page.header.val_encoding;
    let covers = fusion_covers(func, enc, cfg.fuse) && spread_fits_i64(page);
    // TS2DIFF fuses (per-window index subranges when windowed) on any
    // page; the whole-page forms (Delta-RLE, SVB, header MIN/MAX) need
    // the page *aligned* — fully covered by the time filter and, under a
    // window, inside a single bucket — so only straddling pages decode.
    let aligned = time_covers_page(page, pred)
        && window.is_none_or(|w| single_bucket_index(page, w).is_some());
    if covers && enc == Encoding::Ts2Diff {
        Strategy::FusedTs2Diff
    } else if covers && enc == Encoding::DeltaRle && aligned {
        Strategy::FusedDeltaRle
    } else if covers && enc == Encoding::StreamVByte && aligned {
        Strategy::FusedSvb
    } else if matches!(func, AggFunc::Min | AggFunc::Max)
        && aligned
        && header_bounds_are_values(page)
    {
        Strategy::HeaderMinMax
    } else {
        Strategy::Decode
    }
}

/// The §IV pair-fusion alignment check: pairwise-aligned pages (identical
/// clocks, bit for bit) with Delta-RLE value columns on both sides.
pub(crate) fn pair_fusible(left: &[Arc<Page>], right: &[Arc<Page>], cfg: &PipelineConfig) -> bool {
    if cfg.fuse < FuseLevel::DeltaRepeat || !cfg.vectorized || left.len() != right.len() {
        return false;
    }
    left.iter().zip(right).all(|(a, b)| {
        let ha = &a.header;
        let hb = &b.header;
        ha.count == hb.count
            && ha.first_ts == hb.first_ts
            && ha.last_ts == hb.last_ts
            && ha.val_encoding == Encoding::DeltaRle
            && hb.val_encoding == Encoding::DeltaRle
            && spread_fits_i64(a)
            && spread_fits_i64(b)
            && a.ts_bytes == b.ts_bytes // identical clocks, bit for bit
    })
}

/// Compiles and renders in one step — the engine's `EXPLAIN` entry point.
pub fn explain(plan: &Plan, store: &SeriesStore, cfg: &PipelineConfig) -> Result<String> {
    Ok(compile(plan, store, cfg)?.render(cfg))
}
