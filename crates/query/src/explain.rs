//! `EXPLAIN` for textual-join queries: show the plan, the pushdown, the
//! six cost estimates and the integrated algorithm's choice — the paper's
//! section 6.1 decision procedure, made visible.
//!
//! `EXPLAIN ANALYZE` goes further: it *runs* every feasible algorithm on
//! the actual data, renders the measured execution statistics and the
//! per-phase span timings of the chosen one, and reports the drift of each
//! cost formula — the paper's six (`hhs`/`hhr`/`hvs`/`hvr`/`vvs`/`vvr`)
//! plus the filtered pair (`fns`/`fnr`) — against the measured page
//! traffic: the model-validation experiment of section 6, on demand.

use crate::catalog::Catalog;
use crate::executor::{execute_batch_plan, ShardExecution};
use crate::parser::parse;
use crate::planner::{plan, plan_batch, plan_with_profile, plan_with_shards, Plan};
use std::collections::HashMap;
use std::fmt::Write as _;
use std::sync::Arc;
use textjoin_common::{Error, QueryParams, Result, SystemParams};
use textjoin_core::{
    execute_sharded, fnl, hhnl, hvnl, parallel, vvm, ExecStats, JoinSpec, OuterDocs, QueryReport,
    ResultQuality, ShardOptions, ShardPartitioning,
};
use textjoin_costmodel::{parallel as par_cost, Algorithm, CalibrationProfile, IoScenario};
use textjoin_obs::{MetricValue, Registry, SpanRecord, Tracer};

/// Plans the query and renders a human-readable explanation.
pub fn explain_query(
    catalog: &Catalog,
    sql: &str,
    sys: SystemParams,
    base_query_params: QueryParams,
    scenario: IoScenario,
) -> Result<String> {
    let query = parse(sql)?;
    let p = plan(catalog, &query, sys, base_query_params, scenario)?;
    Ok(render(&p, sys, scenario))
}

fn render(p: &Plan, sys: SystemParams, scenario: IoScenario) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "TextualJoin λ={}", p.lambda);
    let _ = writeln!(
        out,
        "  inner  : {}.{} (N={}, T={})",
        p.inner_rel, p.inner_column, p.inputs.inner.num_docs, p.inputs.inner.distinct_terms
    );
    let outer_note = match (&p.outer_rows, &p.inputs.outer_original) {
        (Some(ids), Some(_)) => format!(
            " — selection kept {} of {} rows; random document fetches, inverted file \
             stays full-size",
            ids.len(),
            p.inputs
                .outer_original
                .as_ref()
                .map(|o| o.num_docs)
                .unwrap_or_default()
        ),
        _ => String::new(),
    };
    let _ = writeln!(
        out,
        "  outer  : {}.{} (N={}, T={}){outer_note}",
        p.outer_rel, p.outer_column, p.inputs.outer.num_docs, p.inputs.outer.distinct_terms
    );
    if let Some(ids) = &p.inner_rows {
        let _ = writeln!(
            out,
            "  filter : inner selection keeps {} rows (matches restricted; I/O unchanged)",
            ids.len()
        );
    }
    let _ = writeln!(
        out,
        "  system : B={} pages, P={}B, α={}, q={:.3}",
        sys.buffer_pages, sys.page_size, sys.alpha, p.inputs.q
    );
    if p.inputs.is_fragmented() {
        let fi = &p.inputs.inner_frag;
        let fo = &p.inputs.outer_frag;
        let _ = writeln!(
            out,
            "  frag   : inner Δdoc={} Δinv={} dead={:.1}% | outer Δdoc={} Δinv={} \
             dead={:.1}% — {:.0} delta pages folded into every estimate",
            fi.doc_delta_pages,
            fi.inv_delta_pages,
            fi.tombstone_ratio * 100.0,
            fo.doc_delta_pages,
            fo.inv_delta_pages,
            fo.tombstone_ratio * 100.0,
            p.inputs.fragmentation_pages(),
        );
    }
    let _ = writeln!(
        out,
        "  estimates (sequential | worst-case random, page units):"
    );
    for alg in Algorithm::ALL {
        let seq = p.estimates.cost(alg, IoScenario::Dedicated);
        let rand = p.estimates.cost(alg, IoScenario::SharedWorstCase);
        let marker = if alg == p.chosen { " ← chosen" } else { "" };
        let _ = writeln!(out, "    {alg:<5} {seq:>14.0} | {rand:>14.0}{marker}");
    }
    let _ = writeln!(
        out,
        "  scenario: {}",
        match scenario {
            IoScenario::Dedicated => "dedicated drives (sequential estimates)",
            IoScenario::SharedWorstCase => "shared device worst case (random estimates)",
        }
    );
    if let Some(sp) = &p.shard_plan {
        let _ = writeln!(
            out,
            "  shards : S={} sites, β={}, {} boundaries (per-site local | shipped pages):",
            sp.shards, p.comm.beta, p.shard_partitioning
        );
        for s in &sp.per_shard {
            let _ = writeln!(
                out,
                "    shard {} f={:.3} {:>12.0} | {:>10.0}",
                s.shard, s.fraction, s.local, s.shipped
            );
        }
        let _ = writeln!(
            out,
            "    merge {:.0} pages; total {:.0}; critical path {:.0} (max shard {:.0})",
            sp.merge_pages, sp.total, sp.elapsed, sp.max_shard
        );
    }
    let _ = writeln!(out, "  output : {}", {
        let mut cols: Vec<&str> = p.output.iter().map(|(h, _)| h.as_str()).collect();
        cols.push("SIMILARITY");
        cols.join(", ")
    });
    out
}

/// Signed percent error `(measured − predicted) / predicted · 100`.
///
/// The ratio is withheld (`None`) when the prediction is degenerate —
/// non-finite, or under one page (empty collection, λ = 0) — *or* when the
/// measurement itself is zero: dividing by a sub-page prediction yields
/// `inf`/`NaN` or meaningless five-digit percentages, and a zero
/// measurement against a real prediction says the run never happened, not
/// that the model was 100% wrong. This is the same guard
/// [`QueryReport::drift_pct`] applies, shared by the sequential and batch
/// drift tables.
fn drift_ratio(predicted: f64, measured: f64) -> Option<f64> {
    (predicted.is_finite() && predicted >= 1.0 && measured > 0.0)
        .then(|| (measured - predicted) / predicted * 100.0)
}

/// One predicted-vs-measured line of the drift report.
#[derive(Clone, Debug)]
pub struct DriftRow {
    /// The formula name: the paper's `hhs`/`hhr`/`hvs`/`hvr`/`vvs`/`vvr`,
    /// or the filter family's `fns`/`fnr`.
    pub formula: &'static str,
    /// The algorithm the formula models.
    pub algorithm: Algorithm,
    /// The formula's prediction in page-cost units (`INFINITY` when the
    /// algorithm is infeasible in the given memory).
    pub predicted: f64,
    /// The measured cost under the same pricing, or `None` when the
    /// algorithm could not run (insufficient memory at run time).
    pub measured: Option<f64>,
    /// Signed percent error `(measured − predicted) / predicted · 100`,
    /// when both sides are available, the prediction is finite and at
    /// least one page, and the measurement is non-zero (see
    /// `drift_ratio`); withheld and rendered as `n/a` otherwise.
    pub percent_error: Option<f64>,
}

/// One row of the parallel-scaling table: the chosen algorithm run at one
/// worker count, with the parallel cost model's prediction next to it.
#[derive(Clone, Debug)]
pub struct WorkerScaling {
    /// Worker count of this run.
    pub workers: usize,
    /// The parallel estimate (`hhs_par`/`hvs_par`/`vvs_par`) at this count.
    pub predicted: f64,
    /// Measured page cost (`seq + α·rand`) of the run.
    pub measured_cost: f64,
    /// Total pages read.
    pub pages: u64,
    /// Measured wall time.
    pub wall_ns: u64,
}

/// One row of the calibrated-prediction table: the raw formula output,
/// the profile-corrected prediction, and the drift of each against the
/// measured cost — the before/after picture of one calibration round.
#[derive(Clone, Copy, Debug)]
pub struct CalibratedDrift {
    /// The algorithm the predictions rank.
    pub algorithm: Algorithm,
    /// The seed cost formula's prediction under the planning scenario.
    pub raw: f64,
    /// The prediction after the profile's correction factor.
    pub calibrated: f64,
    /// Drift of the raw prediction vs the measured cost (guards of
    /// `drift_ratio` apply), `None` when the algorithm did not run.
    pub drift_raw: Option<f64>,
    /// Drift of the calibrated prediction vs the same measurement.
    pub drift_calibrated: Option<f64>,
}

/// One row of the per-shard drift table: what the uniform-fraction
/// [`textjoin_costmodel::ShardPlan`] predicted for a site against what its
/// drive actually did.
#[derive(Clone, Debug)]
pub struct ShardDrift {
    /// Site index.
    pub shard: usize,
    /// Predicted local page cost of this site's slice.
    pub predicted_local: f64,
    /// Predicted pages shipped to assemble this site, blowup included.
    pub predicted_shipped: f64,
    /// Measured page cost on this site's drive (builds excluded).
    pub measured_pages: f64,
    /// Measured pages shipped to or from this site.
    pub measured_shipped: u64,
    /// Signed percent error of the local prediction (guards of
    /// `drift_ratio` apply).
    pub drift_pct: Option<f64>,
    /// Whether this site had to skip unreadable data.
    pub quality: ResultQuality,
}

/// The result of `EXPLAIN ANALYZE`: the rendered report plus the raw
/// numbers it was built from, for programmatic checks.
pub struct AnalyzeOutput {
    /// The full human-readable report.
    pub text: String,
    /// The algorithm the plan chose (and which was traced).
    pub executed: Algorithm,
    /// Measured statistics of the chosen algorithm's run, when feasible.
    pub stats: Option<ExecStats>,
    /// Model-vs-measured drift, one row per cost formula.
    pub drift: Vec<DriftRow>,
    /// One resource-accounting report per algorithm that ran (the drift
    /// table and the latency column are derived from these).
    pub reports: Vec<QueryReport>,
    /// Predicted-vs-measured cost of the chosen algorithm per worker
    /// count. Empty unless ANALYZE ran with `workers > 1`.
    pub scaling: Vec<WorkerScaling>,
    /// Raw-vs-calibrated predictions with before/after drift, one row per
    /// algorithm. Empty unless ANALYZE ran with a calibration profile.
    pub calibrated: Vec<CalibratedDrift>,
    /// Per-shard predicted-vs-measured rows. Empty unless ANALYZE ran
    /// sharded (`shards > 1`).
    pub shard_drift: Vec<ShardDrift>,
    /// The sharded run's measured summary, when ANALYZE ran sharded.
    pub sharded: Option<ShardExecution>,
}

impl AnalyzeOutput {
    /// The drift row for one formula name.
    pub fn row(&self, formula: &str) -> Option<&DriftRow> {
        self.drift.iter().find(|r| r.formula == formula)
    }
}

/// Plans the query, runs every feasible algorithm against the stored
/// collections, and renders estimates, measured statistics, per-phase
/// span timings and the model-vs-measured drift report.
pub fn explain_analyze_query(
    catalog: &Catalog,
    sql: &str,
    sys: SystemParams,
    base_query_params: QueryParams,
    scenario: IoScenario,
) -> Result<AnalyzeOutput> {
    explain_analyze_query_with_workers(catalog, sql, sys, base_query_params, scenario, 1)
}

/// [`explain_analyze_query`] with a worker knob: with `workers > 1` the
/// chosen algorithm is additionally run on the parallel executors at each
/// worker count of `{1, workers}`, and the report gains a scaling table of
/// predicted (`hhs_par`/`hvs_par`/`vvs_par`) vs measured cost and the
/// measured wall-clock speedup.
pub fn explain_analyze_query_with_workers(
    catalog: &Catalog,
    sql: &str,
    sys: SystemParams,
    base_query_params: QueryParams,
    scenario: IoScenario,
    workers: usize,
) -> Result<AnalyzeOutput> {
    explain_analyze_inner(
        catalog,
        sql,
        sys,
        base_query_params,
        scenario,
        workers,
        1,
        ShardPartitioning::default(),
        None,
    )
}

/// [`explain_analyze_query`] in the multidatabase setting: the plan is
/// priced per shard ([`textjoin_costmodel::ShardPlan`]), the chosen
/// algorithm additionally runs on the sharded executor, and the report
/// gains a per-shard table of predicted vs measured pages — the drift of
/// the uniform-fraction assumption against what each site's drive did.
#[allow(clippy::too_many_arguments)]
pub fn explain_analyze_query_sharded(
    catalog: &Catalog,
    sql: &str,
    sys: SystemParams,
    base_query_params: QueryParams,
    scenario: IoScenario,
    workers: usize,
    shards: usize,
    partitioning: ShardPartitioning,
) -> Result<AnalyzeOutput> {
    explain_analyze_inner(
        catalog,
        sql,
        sys,
        base_query_params,
        scenario,
        workers,
        shards,
        partitioning,
        None,
    )
}

/// [`explain_analyze_query`] ranking algorithms by the profile's
/// *calibrated* predictions. The report gains a raw-vs-calibrated table
/// showing each formula's drift before and after the correction — the
/// observable effect of one calibration round.
pub fn explain_analyze_query_with_profile(
    catalog: &Catalog,
    sql: &str,
    sys: SystemParams,
    base_query_params: QueryParams,
    scenario: IoScenario,
    profile: &CalibrationProfile,
) -> Result<AnalyzeOutput> {
    explain_analyze_inner(
        catalog,
        sql,
        sys,
        base_query_params,
        scenario,
        1,
        1,
        ShardPartitioning::default(),
        Some(profile),
    )
}

#[allow(clippy::too_many_arguments)]
fn explain_analyze_inner(
    catalog: &Catalog,
    sql: &str,
    sys: SystemParams,
    base_query_params: QueryParams,
    scenario: IoScenario,
    workers: usize,
    shards: usize,
    partitioning: ShardPartitioning,
    profile: Option<&CalibrationProfile>,
) -> Result<AnalyzeOutput> {
    let query = parse(sql)?;
    let p = match profile {
        Some(prof) => plan_with_profile(catalog, &query, sys, base_query_params, scenario, prof)?,
        None if shards > 1 => {
            let mut p = plan_with_shards(
                catalog,
                &query,
                sys,
                base_query_params,
                scenario,
                workers,
                shards,
                textjoin_costmodel::CommParams::default_network(),
            )?;
            p.shard_partitioning = partitioning;
            p
        }
        None => plan(catalog, &query, sys, base_query_params, scenario)?,
    };

    let inner_rel = catalog
        .relation(&p.inner_rel)
        .expect("planned relation exists");
    let outer_rel = catalog
        .relation(&p.outer_rel)
        .expect("planned relation exists");
    let inner_tc = inner_rel
        .text_column(&p.inner_column)
        .expect("planned text column");
    let outer_tc = outer_rel
        .text_column(&p.outer_column)
        .expect("planned text column");

    let mut base = JoinSpec::new(&inner_tc.collection, &outer_tc.collection)
        .with_sys(sys)
        .with_query(base_query_params.with_lambda(p.lambda));
    if let Some(ids) = &p.outer_rows {
        base = base.with_outer_docs(OuterDocs::Selected(ids));
    }
    if let Some(ids) = &p.inner_rows {
        base = base.with_inner_docs(ids);
    }

    // Run each feasible algorithm once. The plan's choice runs with the
    // tracer attached so its phase spans appear in the report — and, since
    // the tracer carries a registry, every span feeds the `span.wall_ns`
    // latency histograms the report's latency section reads back.
    let registry = Arc::new(Registry::new());
    let tracer = Tracer::with_registry(1024, Arc::clone(&registry));
    let mut measured: [Option<ExecStats>; 4] = [None, None, None, None];
    let mut reports: Vec<QueryReport> = Vec::new();
    for (i, alg) in Algorithm::ALL.into_iter().enumerate() {
        if p.estimates.cost(alg, IoScenario::Dedicated).is_infinite() {
            continue;
        }
        let spec = if alg == p.chosen {
            base.with_trace(&tracer)
        } else {
            base
        };
        let run = match alg {
            Algorithm::Hhnl => hhnl::execute(&spec),
            Algorithm::Hvnl => hvnl::execute(&spec, &inner_tc.inverted),
            Algorithm::Vvm => vvm::execute(&spec, &inner_tc.inverted, &outer_tc.inverted),
            Algorithm::Fnl => fnl::execute(&spec, &inner_tc.fnl),
        };
        match run {
            Ok(out) => {
                measured[i] = Some(out.stats);
                reports.push(QueryReport::from_outcome(
                    format!("explain-analyze {alg}"),
                    &out,
                    (alg == p.chosen).then_some(&tracer),
                    Some(p.estimates.cost(alg, IoScenario::Dedicated)),
                ));
            }
            // The estimate was optimistic, or the algorithm hit unreadable
            // storage its rivals may not need (e.g. a corrupt inverted
            // file does not stop HHNL); report the formula as unmeasurable
            // rather than failing the whole ANALYZE.
            Err(Error::InsufficientMemory { .. } | Error::Corrupt(_) | Error::Io { .. }) => {}
            Err(e) => return Err(e),
        }
    }

    // Parallel scaling: run the plan's choice at each worker count and put
    // the parallel cost model's prediction (`hhs_par`/`hvs_par`/`vvs_par`)
    // next to the measurement. Runs untraced so the chosen run's span tree
    // and prefetch counters above stay those of the sequential execution.
    let mut scaling: Vec<WorkerScaling> = Vec::new();
    if workers > 1 {
        for w in [1, workers] {
            let run = match p.chosen {
                Algorithm::Hhnl => parallel::execute_hhnl(&base, w),
                Algorithm::Hvnl => parallel::execute_hvnl(&base, &inner_tc.inverted, w),
                Algorithm::Vvm => {
                    parallel::execute_vvm(&base, &inner_tc.inverted, &outer_tc.inverted, w)
                }
                Algorithm::Fnl => parallel::execute_fnl(&base, &inner_tc.fnl, w),
            };
            match run {
                Ok(out) => scaling.push(WorkerScaling {
                    workers: w,
                    predicted: par_cost::estimate(&p.inputs, p.chosen, w as u64),
                    measured_cost: out.stats.cost,
                    pages: out.stats.io.total_reads(),
                    wall_ns: out.stats.wall_ns,
                }),
                Err(Error::InsufficientMemory { .. } | Error::Corrupt(_) | Error::Io { .. }) => {}
                Err(e) => return Err(e),
            }
        }
    }

    // Sharded run: execute the chosen algorithm on the multi-site path and
    // line each site's measured drive cost up against the uniform-fraction
    // prediction the plan carries — per-shard drift, the distributed
    // analogue of the formula drift table below.
    let mut shard_drift: Vec<ShardDrift> = Vec::new();
    let mut sharded: Option<ShardExecution> = None;
    if p.shards > 1 {
        let opts = ShardOptions::new(p.shards)
            .with_partitioning(p.shard_partitioning)
            .with_comm(p.comm)
            .with_workers(workers.max(1));
        match execute_sharded(&base, p.chosen, &opts) {
            Ok(run) => {
                if let Some(sp) = &p.shard_plan {
                    for (cost, rep) in sp.per_shard.iter().zip(&run.shards) {
                        shard_drift.push(ShardDrift {
                            shard: rep.shard,
                            predicted_local: cost.local,
                            predicted_shipped: cost.shipped,
                            measured_pages: rep.pages_io,
                            measured_shipped: rep.shipped_pages,
                            drift_pct: drift_ratio(cost.local, rep.pages_io),
                            quality: rep.quality,
                        });
                    }
                }
                sharded = Some(ShardExecution {
                    reports: run.shards,
                    shipped_pages: run.shipped_pages,
                    comm_cost: run.comm_cost,
                    max_shard_pages: run.max_shard_pages,
                    network_ns: run.network_ns,
                    partitioning: run.partitioning,
                });
            }
            Err(Error::InsufficientMemory { .. } | Error::Corrupt(_) | Error::Io { .. }) => {}
            Err(e) => return Err(e),
        }
    }

    // Drift, derived from the per-run QueryReports: the sequential
    // formulas price the run's actual seq/rand page classification
    // (`measured_cost = seq + α·rand`); the worst-case-random formulas
    // price the same page traffic with every read reclassified as random
    // (the paper's interference scenario), i.e. α · total pages.
    let mut drift = Vec::with_capacity(8);
    for alg in Algorithm::ALL {
        let (seq_name, rand_name) = match alg {
            Algorithm::Hhnl => ("hhs", "hhr"),
            Algorithm::Hvnl => ("hvs", "hvr"),
            Algorithm::Vvm => ("vvs", "vvr"),
            Algorithm::Fnl => ("fns", "fnr"),
        };
        let report = reports.iter().find(|r| r.algorithm == alg);
        let rows = [
            (
                seq_name,
                IoScenario::Dedicated,
                report.map(|r| r.measured_cost),
            ),
            (
                rand_name,
                IoScenario::SharedWorstCase,
                report.map(|r| sys.alpha * r.pages_read.total_reads() as f64),
            ),
        ];
        for (formula, sc, meas) in rows {
            let predicted = p.estimates.cost(alg, sc);
            let percent_error = meas.and_then(|m| drift_ratio(predicted, m));
            drift.push(DriftRow {
                formula,
                algorithm: alg,
                predicted,
                measured: meas,
                percent_error,
            });
        }
    }

    // Raw vs calibrated: the plan recorded both predictions for every
    // algorithm, so the report can show what the correction factor did to
    // the drift — before (seed formula) and after (profile-adjusted).
    let calibrated: Vec<CalibratedDrift> = if profile.is_some() {
        p.predictions
            .iter()
            .map(|pred| {
                let meas = reports
                    .iter()
                    .find(|r| r.algorithm == pred.algorithm)
                    .map(|r| r.measured_cost);
                CalibratedDrift {
                    algorithm: pred.algorithm,
                    raw: pred.raw,
                    calibrated: pred.calibrated,
                    drift_raw: meas.and_then(|m| drift_ratio(pred.raw, m)),
                    drift_calibrated: meas.and_then(|m| drift_ratio(pred.calibrated, m)),
                }
            })
            .collect()
    } else {
        Vec::new()
    };

    let chosen_idx = Algorithm::ALL
        .iter()
        .position(|a| *a == p.chosen)
        .expect("chosen is one of ALL");
    let stats = measured[chosen_idx];

    let mut text = String::from("EXPLAIN ANALYZE\n");
    text.push_str(&render(&p, sys, scenario));
    let _ = writeln!(text, "  analyze:");
    match &stats {
        Some(s) => {
            let _ = writeln!(text, "    executed {s}");
        }
        None => {
            let _ = writeln!(
                text,
                "    executed {}: infeasible at run time (insufficient memory)",
                p.chosen
            );
        }
    }
    let _ = writeln!(
        text,
        "    drift (page-cost units; % = (measured − predicted)/predicted):"
    );
    for row in &drift {
        let predicted = if row.predicted.is_finite() {
            format!("{:>12.1}", row.predicted)
        } else if row.predicted.is_infinite() {
            format!("{:>12}", "inf")
        } else {
            format!("{:>12}", "n/a")
        };
        let (meas, err) = match (row.measured, row.percent_error) {
            (Some(m), Some(e)) => (format!("{m:>12.1}"), format!("{e:>+7.1}%")),
            // A measured cost with no ratio: the prediction was zero or
            // non-finite (empty collection, λ = 0), so the division is
            // undefined — report `n/a` rather than inf/NaN.
            (Some(m), None) => (format!("{m:>12.1}"), format!("{:>8}", "n/a")),
            _ => (format!("{:>12}", "n/a"), format!("{:>8}", "n/a")),
        };
        // VVM's measured cost is its last attempt's; the attempts it
        // abandoned to re-partition are listed beside it.
        let retried = measured
            .iter()
            .flatten()
            .find(|s| s.algorithm == Algorithm::Vvm)
            .filter(|s| row.formula == "vvs" && s.repartitions > 0)
            .map(|s| {
                format!(
                    "  ({} repartitions, {:.1} pages discarded)",
                    s.repartitions, s.discarded_cost
                )
            })
            .unwrap_or_default();
        let _ = writeln!(
            text,
            "      {} {predicted} vs {meas} {err}{retried}",
            row.formula
        );
    }
    if !calibrated.is_empty() {
        let _ = writeln!(
            text,
            "    calibrated predictions (raw → calibrated; drift before → after):"
        );
        let fmt_drift = |d: Option<f64>| match d {
            Some(e) => format!("{e:>+7.1}%"),
            None => format!("{:>8}", "n/a"),
        };
        for row in &calibrated {
            let _ = writeln!(
                text,
                "      {:<5} {:>12.1} → {:>12.1}  drift {} → {}",
                row.algorithm,
                row.raw,
                row.calibrated,
                fmt_drift(row.drift_raw),
                fmt_drift(row.drift_calibrated),
            );
        }
    }
    // Latency: per-algorithm wall time from the reports, then percentile
    // summaries of the chosen run's per-phase `span.wall_ns` histograms
    // (the registry-backed tracer filled them as each span finished).
    let _ = writeln!(text, "    latency (wall time per algorithm):");
    for alg in Algorithm::ALL {
        match reports.iter().find(|r| r.algorithm == alg) {
            Some(r) => {
                let _ = writeln!(text, "      {alg:<5} {}", fmt_ns(r.wall_ns));
            }
            None => {
                let _ = writeln!(text, "      {alg:<5} n/a");
            }
        }
    }
    let mut span_hists: Vec<_> = registry
        .snapshot()
        .into_iter()
        .filter(|m| m.name == "span.wall_ns")
        .collect();
    span_hists.sort_by(|a, b| a.label.cmp(&b.label));
    if !span_hists.is_empty() {
        let _ = writeln!(
            text,
            "    phase latency ({} only; p50 / p99 / max):",
            p.chosen
        );
        for m in &span_hists {
            if let MetricValue::Histogram(h) = &m.value {
                let _ = writeln!(
                    text,
                    "      {:<20} {} / {} / {} ({} samples)",
                    m.label,
                    fmt_ns(h.quantile(0.5)),
                    fmt_ns(h.quantile(0.99)),
                    fmt_ns(h.max),
                    h.count,
                );
            }
        }
    }
    // Prefetch counters the chosen (traced) run registered per scan phase.
    let mut prefetch: HashMap<String, [u64; 3]> = HashMap::new();
    for m in registry.snapshot() {
        let slot = match m.name {
            "prefetch.issued" => 0,
            "prefetch.hits" => 1,
            "prefetch.wasted" => 2,
            _ => continue,
        };
        if let MetricValue::Counter(v) = m.value {
            prefetch.entry(m.label.clone()).or_default()[slot] = v;
        }
    }
    if !prefetch.is_empty() {
        let mut labels: Vec<&String> = prefetch.keys().collect();
        labels.sort();
        let _ = writeln!(
            text,
            "    prefetch ({} only; issued / hits / wasted pages):",
            p.chosen
        );
        for label in labels {
            let c = prefetch[label];
            let _ = writeln!(text, "      {:<20} {} / {} / {}", label, c[0], c[1], c[2]);
        }
    }
    if !scaling.is_empty() {
        let _ = writeln!(
            text,
            "    parallel scaling ({}; page-cost units):",
            p.chosen
        );
        let base_wall = scaling[0].wall_ns;
        for row in &scaling {
            let speedup = if row.wall_ns > 0 {
                base_wall as f64 / row.wall_ns as f64
            } else {
                0.0
            };
            let _ = writeln!(
                text,
                "      w={:<3} predicted {:>10.1}  measured {:>10.1} ({} pages)  wall {}  speedup ×{speedup:.2}",
                row.workers,
                row.predicted,
                row.measured_cost,
                row.pages,
                fmt_ns(row.wall_ns),
            );
        }
    }
    if let Some(sh) = &sharded {
        let _ = writeln!(
            text,
            "    shards (S={}, {}; per-site local predicted vs measured pages):",
            sh.reports.len(),
            sh.partitioning
        );
        for row in &shard_drift {
            let err = row
                .drift_pct
                .map_or_else(|| format!("{:>8}", "n/a"), |e| format!("{e:>+7.1}%"));
            let _ = writeln!(
                text,
                "      shard {} {:>10.1} vs {:>10.1} {err}  shipped {:>6.0} vs {:<6}  {}",
                row.shard,
                row.predicted_local,
                row.measured_pages,
                row.predicted_shipped,
                row.measured_shipped,
                row.quality,
            );
        }
        let predicted_max = p.shard_plan.as_ref().map_or(f64::NAN, |sp| sp.max_shard);
        let _ = writeln!(
            text,
            "      max shard {:.1} (predicted {predicted_max:.1}); shipped {} pages, \
             comm cost {:.1}, network {}",
            sh.max_shard_pages,
            sh.shipped_pages,
            sh.comm_cost,
            fmt_ns(sh.network_ns),
        );
    }
    let _ = writeln!(text, "    spans ({} recorded):", tracer.finished().len());
    render_span_tree(&mut text, &tracer.finished());

    Ok(AnalyzeOutput {
        text,
        executed: p.chosen,
        stats,
        drift,
        reports,
        scaling,
        calibrated,
        shard_drift,
        sharded,
    })
}

/// The result of batch `EXPLAIN ANALYZE`: the rendered report plus the
/// raw numbers, for programmatic checks.
pub struct BatchAnalyzeOutput {
    /// The full human-readable report.
    pub text: String,
    /// The algorithm the whole batch executed.
    pub executed: Algorithm,
    /// Batch-level measured statistics: the real shared I/O and cost.
    pub stats: ExecStats,
    /// Per-query statistics (own CPU counters; the shared I/O lives in
    /// [`Self::stats`]), in input order.
    pub per_query: Vec<ExecStats>,
    /// Model-vs-measured drift, one row per *batch* cost formula
    /// (`hhs_batch`/`hhr_batch`/…). Only the executed algorithm has a
    /// measurement.
    pub drift: Vec<DriftRow>,
    /// Total pages read by the batch divided by the number of queries —
    /// the amortization the shared scans buy.
    pub amortized_pages_per_query: f64,
    /// Σ of the per-query best estimates under the same scenario: what
    /// running the queries one at a time was predicted to cost.
    pub sequential_cost: f64,
}

impl BatchAnalyzeOutput {
    /// The drift row for one batch formula name.
    pub fn row(&self, formula: &str) -> Option<&DriftRow> {
        self.drift.iter().find(|r| r.formula == formula)
    }
}

/// Plans a batch of queries onto one shared-scan algorithm, executes it,
/// and renders per-query and amortized statistics next to the batch cost
/// formulas (`hhs_batch`/`hvs_batch`/`vvs_batch`) — the batched analogue
/// of [`explain_analyze_query`].
pub fn explain_analyze_batch(
    catalog: &Catalog,
    sqls: &[&str],
    sys: SystemParams,
    base_query_params: QueryParams,
    scenario: IoScenario,
) -> Result<BatchAnalyzeOutput> {
    let queries = sqls.iter().map(|s| parse(s)).collect::<Result<Vec<_>>>()?;
    let bp = plan_batch(catalog, &queries, sys, base_query_params, scenario)?;
    let out = execute_batch_plan(catalog, &bp, sys, base_query_params)?;
    let n = bp.plans.len();

    // Drift of the batch formulas. Only the executed algorithm was
    // measured; the others keep their predictions with `n/a` measurements,
    // mirroring the sequential drift table.
    let mut drift = Vec::with_capacity(8);
    for alg in Algorithm::ALL {
        let (seq_name, rand_name) = match alg {
            Algorithm::Hhnl => ("hhs_batch", "hhr_batch"),
            Algorithm::Hvnl => ("hvs_batch", "hvr_batch"),
            Algorithm::Vvm => ("vvs_batch", "vvr_batch"),
            Algorithm::Fnl => ("fns_batch", "fnr_batch"),
        };
        let ran = alg == out.algorithm;
        let rows = [
            (
                seq_name,
                IoScenario::Dedicated,
                ran.then_some(out.stats.cost),
            ),
            (
                rand_name,
                IoScenario::SharedWorstCase,
                ran.then(|| sys.alpha * out.stats.io.total_reads() as f64),
            ),
        ];
        for (formula, sc, meas) in rows {
            let predicted = bp.estimates.cost(alg, sc);
            let percent_error = meas.and_then(|m| drift_ratio(predicted, m));
            drift.push(DriftRow {
                formula,
                algorithm: alg,
                predicted,
                measured: meas,
                percent_error,
            });
        }
    }

    let total_pages = out.stats.io.total_reads();
    let amortized_pages_per_query = total_pages as f64 / n as f64;

    let p0 = &bp.plans[0];
    let mut text = format!("EXPLAIN ANALYZE BATCH (N={n})\n");
    let _ = writeln!(
        text,
        "  shared pair: {}.{} SIMILAR_TO {}.{}",
        p0.inner_rel, p0.inner_column, p0.outer_rel, p0.outer_column
    );
    let _ = writeln!(
        text,
        "  batch estimates (sequential | worst-case random, page units):"
    );
    for alg in Algorithm::ALL {
        let seq = bp.estimates.cost(alg, IoScenario::Dedicated);
        let rand = bp.estimates.cost(alg, IoScenario::SharedWorstCase);
        let marker = if alg == bp.chosen { " ← chosen" } else { "" };
        let _ = writeln!(text, "    {alg:<5} {seq:>14.0} | {rand:>14.0}{marker}");
    }
    let batch_predicted = bp.estimates.cost(bp.chosen, bp.scenario);
    if bp.sequential_cost >= 1.0 && batch_predicted.is_finite() {
        let _ = writeln!(
            text,
            "  one-at-a-time estimate: {:.0} (batch predicted {:.0}, saves {:.1}%)",
            bp.sequential_cost,
            batch_predicted,
            (1.0 - batch_predicted / bp.sequential_cost) * 100.0
        );
    }
    let _ = writeln!(text, "  analyze:");
    let _ = writeln!(text, "    executed {}", out.stats);
    let _ = writeln!(
        text,
        "    amortized: {amortized_pages_per_query:.1} pages I/O per query \
         ({total_pages} total over {n} queries)"
    );
    let _ = writeln!(text, "    per query (CPU counters; I/O is shared):");
    for (i, (p, q)) in bp.plans.iter().zip(&out.queries).enumerate() {
        let _ = writeln!(
            text,
            "      q{i} λ={} rows={} sim_ops={} cells={} quality={:?}",
            p.lambda,
            q.rows.len(),
            q.stats.sim_ops,
            q.stats.cells_touched,
            q.quality,
        );
    }
    let _ = writeln!(
        text,
        "    drift (batch formulas; % = (measured − predicted)/predicted):"
    );
    for row in &drift {
        let predicted = if row.predicted.is_finite() {
            format!("{:>12.1}", row.predicted)
        } else {
            format!("{:>12}", "inf")
        };
        let (meas, err) = match (row.measured, row.percent_error) {
            (Some(m), Some(e)) => (format!("{m:>12.1}"), format!("{e:>+7.1}%")),
            (Some(m), None) => (format!("{m:>12.1}"), format!("{:>8}", "n/a")),
            _ => (format!("{:>12}", "n/a"), format!("{:>8}", "n/a")),
        };
        let _ = writeln!(text, "      {:<9} {predicted} vs {meas} {err}", row.formula);
    }

    let per_query = out.queries.iter().map(|q| q.stats).collect();
    Ok(BatchAnalyzeOutput {
        text,
        executed: out.algorithm,
        stats: out.stats,
        per_query,
        drift,
        amortized_pages_per_query,
        sequential_cost: bp.sequential_cost,
    })
}

/// Human-scale nanosecond formatting for the latency report.
fn fmt_ns(ns: u64) -> String {
    if ns >= 1_000_000 {
        format!("{:.1}ms", ns as f64 / 1e6)
    } else if ns >= 1_000 {
        format!("{:.1}µs", ns as f64 / 1e3)
    } else {
        format!("{ns}ns")
    }
}

/// Renders finished spans as an indented tree (roots first, children by
/// start time).
fn render_span_tree(out: &mut String, spans: &[SpanRecord]) {
    let mut children: HashMap<u64, Vec<&SpanRecord>> = HashMap::new();
    for s in spans {
        children.entry(s.parent).or_default().push(s);
    }
    for v in children.values_mut() {
        v.sort_by_key(|s| (s.start_us, s.id));
    }
    fn rec(out: &mut String, children: &HashMap<u64, Vec<&SpanRecord>>, id: u64, depth: usize) {
        let Some(kids) = children.get(&id) else {
            return;
        };
        for s in kids {
            let _ = write!(
                out,
                "      {:indent$}{} {}µs",
                "",
                s.name,
                s.dur_us,
                indent = depth * 2
            );
            if !s.detail.is_empty() {
                let _ = write!(out, " — {}", s.detail);
            }
            for (k, v) in &s.fields {
                let _ = write!(out, " {k}={v}");
            }
            out.push('\n');
            rec(out, children, s.id, depth + 1);
        }
    }
    rec(out, &children, 0, 0);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::catalog::{ColumnType, RelationBuilder, Value};
    use std::sync::Arc;
    use textjoin_storage::DiskSim;

    fn catalog() -> Catalog {
        let disk = Arc::new(DiskSim::new(4096));
        let mut c = Catalog::new(disk);
        c.add(
            RelationBuilder::new("Positions")
                .column("Title", ColumnType::Str)
                .column("Job_descr", ColumnType::Text)
                .row(vec![
                    Value::Str("Engineer".into()),
                    Value::Text("databases and queries".into()),
                ])
                .unwrap()
                .row(vec![
                    Value::Str("Chef".into()),
                    Value::Text("cooking pasta".into()),
                ])
                .unwrap(),
        )
        .unwrap();
        c.add(
            RelationBuilder::new("Applicants")
                .column("Name", ColumnType::Str)
                .column("Resume", ColumnType::Text)
                .row(vec![
                    Value::Str("Ada".into()),
                    Value::Text("databases, queries, indexes".into()),
                ])
                .unwrap(),
        )
        .unwrap();
        c
    }

    #[test]
    fn explain_names_plan_pieces_and_choice() {
        let c = catalog();
        let text = explain_query(
            &c,
            "Select P.Title, A.Name From Positions P, Applicants A \
             Where P.Title like '%Eng%' and A.Resume SIMILAR_TO(3) P.Job_descr",
            SystemParams::paper_base(),
            QueryParams::paper_base(),
            IoScenario::Dedicated,
        )
        .unwrap();
        assert!(text.contains("TextualJoin λ=3"), "{text}");
        assert!(text.contains("inner  : Applicants.Resume"), "{text}");
        assert!(text.contains("outer  : Positions.Job_descr"), "{text}");
        assert!(text.contains("selection kept 1 of 2 rows"), "{text}");
        assert!(text.contains("← chosen"), "{text}");
        assert!(text.contains("HHNL") && text.contains("HVNL") && text.contains("VVM"));
        assert!(text.contains("SIMILARITY"));
    }

    /// A catalog big enough that per-scan seeks and final-page ceilings
    /// are noise next to the sequential page counts the formulas predict.
    /// Every document gets exactly `words_per_doc` distinct words drawn
    /// from a shared rotating vocabulary.
    fn big_catalog(
        page_size: usize,
        inner_rows: usize,
        outer_rows: usize,
        words_per_doc: usize,
        vocab: usize,
    ) -> Catalog {
        assert!(words_per_doc <= vocab, "rows must hold distinct words");
        let word = |i: usize| format!("w{:03}", i % vocab);
        let disk = Arc::new(DiskSim::new(page_size));
        let mut c = Catalog::new(disk);
        let mut docs = RelationBuilder::new("Docs")
            .column("Id", ColumnType::Int)
            .column("Body", ColumnType::Text);
        for r in 0..inner_rows {
            let text: Vec<String> = (0..words_per_doc).map(|j| word(r * 7 + j)).collect();
            docs = docs
                .row(vec![Value::Int(r as i64), Value::Text(text.join(" "))])
                .unwrap();
        }
        c.add(docs).unwrap();
        let mut queries = RelationBuilder::new("Queries")
            .column("Id", ColumnType::Int)
            .column("Body", ColumnType::Text);
        for r in 0..outer_rows {
            let text: Vec<String> = (0..words_per_doc).map(|j| word(r * 11 + 3 + j)).collect();
            queries = queries
                .row(vec![Value::Int(r as i64), Value::Text(text.join(" "))])
                .unwrap();
        }
        c.add(queries).unwrap();
        c
    }

    #[test]
    fn analyze_drift_under_ten_percent_for_hhnl_and_vvm() {
        // Page-format v2 adds a checksummed header, but it is stored out of
        // band (payload capacity per page is unchanged), so the paper's
        // page-count formulas — and these drift bounds — survive the format
        // migration untouched. This assertion pins the expectation: if a
        // future format revision moves the header in band, the formulas (and
        // this test's tolerance) must be revisited together.
        assert_eq!(textjoin_storage::PAGE_FORMAT_VERSION, 2);
        let c = big_catalog(512, 200, 100, 60, 300);
        let sys = SystemParams {
            buffer_pages: 2000,
            page_size: 512,
            alpha: 5.0,
        };
        let out = explain_analyze_query(
            &c,
            "Select D.Id, Q.Id From Docs D, Queries Q \
             Where D.Body SIMILAR_TO(3) Q.Body",
            sys,
            QueryParams::paper_base(),
            IoScenario::Dedicated,
        )
        .unwrap();
        for formula in ["hhs", "vvs"] {
            let row = out.row(formula).expect("row exists");
            let err = row
                .percent_error
                .unwrap_or_else(|| panic!("{formula} did not run: {:?}", row.measured));
            assert!(
                err.abs() < 10.0,
                "{formula}: predicted {:.1}, measured {:?}, drift {err:+.1}%",
                row.predicted,
                row.measured,
            );
        }
    }

    #[test]
    fn explain_renders_the_shard_plan_table() {
        let c = catalog();
        let query = parse(
            "Select P.Title, A.Name From Positions P, Applicants A \
             Where A.Resume SIMILAR_TO(1) P.Job_descr",
        )
        .unwrap();
        let p = plan_with_shards(
            &c,
            &query,
            SystemParams::paper_base(),
            QueryParams::paper_base(),
            IoScenario::Dedicated,
            1,
            4,
            textjoin_costmodel::CommParams::default_network(),
        )
        .unwrap();
        let text = super::render(&p, SystemParams::paper_base(), IoScenario::Dedicated);
        assert!(text.contains("shards : S=4"), "{text}");
        assert!(text.contains("shard 0 f=0.250"), "{text}");
        assert!(text.contains("critical path"), "{text}");
        // Single-node plans stay shard-free.
        let p1 = plan(
            &c,
            &query,
            SystemParams::paper_base(),
            QueryParams::paper_base(),
            IoScenario::Dedicated,
        )
        .unwrap();
        let text1 = super::render(&p1, SystemParams::paper_base(), IoScenario::Dedicated);
        assert!(!text1.contains("shards :"), "{text1}");
    }

    #[test]
    fn sharded_analyze_reports_per_shard_drift() {
        let c = big_catalog(512, 120, 60, 40, 200);
        let sys = SystemParams {
            buffer_pages: 2000,
            page_size: 512,
            alpha: 5.0,
        };
        let out = explain_analyze_query_sharded(
            &c,
            "Select D.Id, Q.Id From Docs D, Queries Q \
             Where D.Body SIMILAR_TO(3) Q.Body",
            sys,
            QueryParams::paper_base(),
            IoScenario::Dedicated,
            1,
            2,
            ShardPartitioning::SkewAware,
        )
        .unwrap();
        let sh = out.sharded.as_ref().expect("sharded run happened");
        assert_eq!(sh.reports.len(), 2);
        assert!(sh.shipped_pages > 0);
        assert_eq!(out.shard_drift.len(), 2);
        for row in &out.shard_drift {
            assert!(row.predicted_local.is_finite());
            assert!(row.measured_pages > 0.0, "shard {} read nothing", row.shard);
        }
        assert!(out.text.contains("shards (S=2, skew-aware"), "{}", out.text);
        assert!(out.text.contains("max shard"), "{}", out.text);
    }

    #[test]
    fn degenerate_spec_reports_drift_as_na_never_inf_or_nan() {
        // A selection keeping zero outer rows makes several predicted
        // costs zero; the drift ratio is then undefined and must render
        // as `n/a`, never as inf or NaN.
        let c = catalog();
        let out = explain_analyze_query(
            &c,
            "Select P.Title, A.Name From Positions P, Applicants A \
             Where P.Title like '%Nomatch%' and A.Resume SIMILAR_TO(2) P.Job_descr",
            SystemParams::paper_base(),
            QueryParams::paper_base(),
            IoScenario::Dedicated,
        )
        .unwrap();
        for row in &out.drift {
            if let Some(e) = row.percent_error {
                assert!(e.is_finite(), "{}: drift {e} not finite", row.formula);
            } else if row.measured.is_some() {
                // Measured but no ratio: only legitimate when the
                // prediction itself is degenerate or the measurement was
                // zero (the run never touched a page).
                assert!(
                    !(row.predicted.is_finite() && row.predicted >= 1.0)
                        || row.measured == Some(0.0),
                    "{}: ratio withheld despite usable prediction {} and measurement {:?}",
                    row.formula,
                    row.predicted,
                    row.measured
                );
            }
        }
        assert!(!out.text.contains("inf%"), "{}", out.text);
        assert!(!out.text.contains("NaN"), "{}", out.text);
        assert!(out.text.contains("n/a"), "{}", out.text);
    }

    #[test]
    fn drift_ratio_withholds_on_degenerate_prediction_or_zero_measurement() {
        assert_eq!(drift_ratio(100.0, 110.0), Some(10.0));
        assert_eq!(drift_ratio(200.0, 100.0), Some(-50.0));
        // Degenerate predictions: non-finite or under one page.
        assert_eq!(drift_ratio(0.0, 10.0), None);
        assert_eq!(drift_ratio(0.5, 10.0), None);
        assert_eq!(drift_ratio(f64::INFINITY, 10.0), None);
        assert_eq!(drift_ratio(f64::NAN, 10.0), None);
        // Zero measurement: the same guard QueryReport::drift_pct applies.
        assert_eq!(drift_ratio(100.0, 0.0), None);
    }

    #[test]
    fn batch_drift_rows_never_render_inf_or_nan() {
        // λ = 0 batch queries predict degenerate (sub-page) costs for some
        // formulas; the batch drift table must withhold those ratios under
        // the same guards as the sequential table — including the
        // zero-measurement guard — rather than printing inf/NaN.
        let c = catalog();
        let out = explain_analyze_batch(
            &c,
            &[
                "Select P.Title, A.Name From Positions P, Applicants A \
                 Where A.Resume SIMILAR_TO(0) P.Job_descr",
                "Select P.Title, A.Name From Positions P, Applicants A \
                 Where A.Resume SIMILAR_TO(0) P.Job_descr",
            ],
            SystemParams::paper_base(),
            QueryParams::paper_base(),
            IoScenario::Dedicated,
        )
        .unwrap();
        for row in &out.drift {
            if let Some(e) = row.percent_error {
                assert!(e.is_finite(), "{}: drift {e} not finite", row.formula);
            } else if let Some(m) = row.measured {
                assert!(
                    !(row.predicted.is_finite() && row.predicted >= 1.0) || m == 0.0,
                    "{}: ratio withheld despite usable prediction {} and measurement {m}",
                    row.formula,
                    row.predicted
                );
            }
        }
        assert!(!out.text.contains("inf%"), "{}", out.text);
        assert!(!out.text.contains("NaN"), "{}", out.text);
    }

    #[test]
    fn analyze_report_shows_stats_drift_and_spans() {
        let c = catalog();
        let out = explain_analyze_query(
            &c,
            "Select P.Title, A.Name From Positions P, Applicants A \
             Where A.Resume SIMILAR_TO(2) P.Job_descr",
            SystemParams::paper_base(),
            QueryParams::paper_base(),
            IoScenario::Dedicated,
        )
        .unwrap();
        assert!(out.text.starts_with("EXPLAIN ANALYZE\n"), "{}", out.text);
        assert!(out.text.contains("analyze:"), "{}", out.text);
        assert!(out.text.contains("executed "), "{}", out.text);
        assert!(out.text.contains("drift"), "{}", out.text);
        for f in ["hhs", "hhr", "hvs", "hvr", "vvs", "vvr", "fns", "fnr"] {
            assert!(out.text.contains(f), "missing {f} in:\n{}", out.text);
        }
        assert_eq!(out.drift.len(), 8);
        // The chosen algorithm ran with the tracer attached, so its root
        // span appears in the report.
        let stats = out.stats.expect("chosen algorithm ran");
        assert_eq!(stats.algorithm, out.executed);
        assert!(out.text.contains("spans ("), "{}", out.text);
        let root = out.executed.to_string().to_lowercase();
        assert!(out.text.contains(&root), "no {root} span in:\n{}", out.text);
        // The latency column lists every algorithm that ran, and the
        // chosen run's spans surface as per-phase histograms.
        assert!(out.text.contains("latency (wall time"), "{}", out.text);
        assert!(out.text.contains("phase latency ("), "{}", out.text);
        assert!(!out.reports.is_empty(), "no QueryReports collected");
        let chosen = out
            .reports
            .iter()
            .find(|r| r.algorithm == out.executed)
            .expect("chosen algorithm has a report");
        assert!(chosen.wall_ns > 0, "report has no wall time");
        assert!(!chosen.phases.is_empty(), "traced run has no phases");
        assert!(
            chosen.predicted_cost.is_some(),
            "drift table needs a prediction"
        );
        // The drift table was derived from the reports: the measured hhs
        // value equals the HHNL report's measured cost.
        if let Some(r) = out
            .reports
            .iter()
            .find(|r| r.algorithm == textjoin_costmodel::Algorithm::Hhnl)
        {
            let row = out.row("hhs").unwrap();
            assert_eq!(row.measured, Some(r.measured_cost));
        }
    }

    #[test]
    fn analyze_reports_vvm_repartitions_beside_its_drift_row() {
        // δ far below the real density: VVM's one-pass estimate overflows
        // the budget and re-partitions before it succeeds.
        let c = big_catalog(512, 120, 60, 40, 200);
        let sys = SystemParams {
            buffer_pages: 16,
            page_size: 512,
            alpha: 5.0,
        };
        let out = explain_analyze_query(
            &c,
            "Select Q.Id, D.Id From Docs D, Queries Q \
             Where Q.Body SIMILAR_TO(3) D.Body",
            sys,
            QueryParams {
                lambda: 3,
                delta: 0.0001,
            },
            IoScenario::Dedicated,
        )
        .unwrap();
        let vvm = out
            .reports
            .iter()
            .find(|r| r.algorithm == Algorithm::Vvm)
            .expect("VVM ran");
        let line = out
            .text
            .lines()
            .find(|l| l.trim_start().starts_with("vvs "))
            .expect("vvs drift row");
        assert!(line.contains(" repartitions, "), "{line}");
        assert!(line.contains(" pages discarded)"), "{line}");
        // The row's measured cost is the successful attempt's alone.
        assert_eq!(out.row("vvs").unwrap().measured, Some(vvm.measured_cost));
    }

    #[test]
    fn profile_aware_analyze_shows_raw_vs_calibrated_with_reduced_drift() {
        use textjoin_costmodel::ReportObs;
        let c = big_catalog(512, 200, 100, 60, 300);
        let sys = SystemParams {
            buffer_pages: 2000,
            page_size: 512,
            alpha: 5.0,
        };
        let sql = "Select D.Id, Q.Id From Docs D, Queries Q \
                   Where D.Body SIMILAR_TO(3) Q.Body";
        let before = explain_analyze_query(
            &c,
            sql,
            sys,
            QueryParams::paper_base(),
            IoScenario::Dedicated,
        )
        .unwrap();
        assert!(before.calibrated.is_empty(), "no profile, no table");
        assert!(!before.text.contains("calibrated predictions ("));
        // Fit a profile from the uncalibrated run's own reports; with one
        // observation per algorithm the correction factor maps each raw
        // prediction exactly onto the measured cost.
        let obs: Vec<ReportObs> = before
            .reports
            .iter()
            .map(|r| ReportObs {
                pair: "Docs/Queries".into(),
                algorithm: r.algorithm.to_string(),
                seq_reads: r.pages_read.seq_reads,
                rand_reads: r.pages_read.rand_reads,
                cells: r.cells_touched,
                wall_ns: r.wall_ns,
                predicted_cost: r.predicted_cost,
                measured_cost: r.measured_cost,
            })
            .collect();
        let profile = CalibrationProfile::fit(&obs);
        let after = explain_analyze_query_with_profile(
            &c,
            sql,
            sys,
            QueryParams::paper_base(),
            IoScenario::Dedicated,
            &profile,
        )
        .unwrap();
        assert_eq!(after.calibrated.len(), 4);
        assert!(
            after.text.contains("calibrated predictions ("),
            "{}",
            after.text
        );
        let row = after
            .calibrated
            .iter()
            .find(|r| r.algorithm == after.executed)
            .expect("executed algorithm has a calibrated row");
        let b = row.drift_raw.expect("raw drift measurable");
        let a = row.drift_calibrated.expect("calibrated drift measurable");
        assert!(
            a.abs() <= b.abs() + 1e-6,
            "calibration did not reduce drift: {b:+.3}% -> {a:+.3}%"
        );
        assert!(
            a.abs() < 1.0,
            "exact per-pair correction should land within 1%: {a:+.3}%"
        );
    }

    #[test]
    fn analyze_with_workers_adds_scaling_and_prefetch_sections() {
        let c = big_catalog(512, 120, 60, 40, 200);
        let sys = SystemParams {
            buffer_pages: 800,
            page_size: 512,
            alpha: 5.0,
        };
        let out = explain_analyze_query_with_workers(
            &c,
            "Select D.Id, Q.Id From Docs D, Queries Q \
             Where D.Body SIMILAR_TO(3) Q.Body",
            sys,
            QueryParams::paper_base(),
            IoScenario::Dedicated,
            4,
        )
        .unwrap();
        assert_eq!(out.scaling.len(), 2, "{}", out.text);
        assert_eq!(out.scaling[0].workers, 1);
        assert_eq!(out.scaling[1].workers, 4);
        // The parallel model never predicts a slowdown from partitioning
        // the scans, and both runs were measured.
        assert!(out.scaling[1].predicted <= out.scaling[0].predicted);
        assert!(out.scaling.iter().all(|r| r.pages > 0 && r.wall_ns > 0));
        assert!(out.text.contains("parallel scaling ("), "{}", out.text);
        // The traced sequential run registered prefetch counters, and its
        // sequential scan phases actually hit the readahead window.
        assert!(out.text.contains("prefetch ("), "{}", out.text);
        let hits: u64 = out
            .text
            .lines()
            .skip_while(|l| !l.contains("prefetch ("))
            .skip(1)
            .take_while(|l| l.starts_with("      "))
            .filter_map(|l| {
                let mut cells = l.split('/');
                cells.nth(1)?.trim().parse::<u64>().ok()
            })
            .sum();
        assert!(hits > 0, "no prefetch hits in:\n{}", out.text);
    }

    #[test]
    fn sequential_analyze_has_no_scaling_table() {
        let c = catalog();
        let out = explain_analyze_query(
            &c,
            "Select P.Title, A.Name From Positions P, Applicants A \
             Where A.Resume SIMILAR_TO(2) P.Job_descr",
            SystemParams::paper_base(),
            QueryParams::paper_base(),
            IoScenario::Dedicated,
        )
        .unwrap();
        assert!(out.scaling.is_empty());
        assert!(!out.text.contains("parallel scaling ("), "{}", out.text);
    }

    #[test]
    fn batch_analyze_reports_amortization_and_drift() {
        let c = big_catalog(512, 120, 60, 40, 200);
        let sys = SystemParams {
            buffer_pages: 800,
            page_size: 512,
            alpha: 5.0,
        };
        let sqls: Vec<String> = [1usize, 2, 3]
            .iter()
            .map(|l| {
                format!(
                    "Select D.Id, Q.Id From Docs D, Queries Q \
                     Where D.Body SIMILAR_TO({l}) Q.Body"
                )
            })
            .collect();
        let sql_refs: Vec<&str> = sqls.iter().map(String::as_str).collect();
        let out = explain_analyze_batch(
            &c,
            &sql_refs,
            sys,
            QueryParams::paper_base(),
            IoScenario::Dedicated,
        )
        .unwrap();
        assert!(
            out.text.starts_with("EXPLAIN ANALYZE BATCH (N=3)\n"),
            "{}",
            out.text
        );
        assert!(out.text.contains("amortized:"), "{}", out.text);
        assert!(out.text.contains("← chosen"), "{}", out.text);
        assert_eq!(out.per_query.len(), 3);
        assert_eq!(out.drift.len(), 8);
        assert!(out.amortized_pages_per_query > 0.0);
        // The executed algorithm's batch formula has a measurement and a
        // finite ratio; the others render n/a.
        let (seq_name, _) = match out.executed {
            Algorithm::Hhnl => ("hhs_batch", "hhr_batch"),
            Algorithm::Hvnl => ("hvs_batch", "hvr_batch"),
            Algorithm::Vvm => ("vvs_batch", "vvr_batch"),
            Algorithm::Fnl => ("fns_batch", "fnr_batch"),
        };
        let row = out.row(seq_name).expect("executed row exists");
        assert!(row.measured.is_some());
        assert!(row.percent_error.expect("finite prediction").is_finite());
        assert!(out.text.contains(seq_name), "{}", out.text);
        // Per-query lines carry the λs in input order.
        for l in [1, 2, 3] {
            assert!(out.text.contains(&format!("λ={l}")), "{}", out.text);
        }
    }

    #[test]
    fn batch_hhnl_reads_strictly_fewer_pages_than_solo_runs() {
        use crate::executor::{execute_batch_plan, execute_plan};
        let c = big_catalog(512, 120, 60, 40, 200);
        let sys = SystemParams {
            buffer_pages: 800,
            page_size: 512,
            alpha: 5.0,
        };
        let qp = QueryParams::paper_base();
        let queries: Vec<_> = [1usize, 2, 3, 2]
            .iter()
            .map(|l| {
                parse(&format!(
                    "Select D.Id, Q.Id From Docs D, Queries Q \
                     Where D.Body SIMILAR_TO({l}) Q.Body"
                ))
                .unwrap()
            })
            .collect();
        let mut bp = plan_batch(&c, &queries, sys, qp, IoScenario::Dedicated).unwrap();
        bp.chosen = Algorithm::Hhnl;
        let batch = execute_batch_plan(&c, &bp, sys, qp).unwrap();
        let mut solo_pages = 0u64;
        for q in &queries {
            let mut p = plan(&c, q, sys, qp, IoScenario::Dedicated).unwrap();
            p.chosen = Algorithm::Hhnl;
            solo_pages += execute_plan(&c, &p, sys, qp)
                .unwrap()
                .stats
                .io
                .total_reads();
        }
        let batch_pages = batch.stats.io.total_reads();
        assert!(
            batch_pages < solo_pages,
            "batch {batch_pages} pages vs {solo_pages} one at a time"
        );
    }

    #[test]
    fn fragmented_column_raises_estimates_and_shows_in_explain() {
        use textjoin_common::FragStats;
        let sql = "Select D.Id, Q.Id From Docs D, Queries Q \
                   Where D.Body SIMILAR_TO(3) Q.Body";
        let sys = SystemParams {
            buffer_pages: 2000,
            page_size: 512,
            alpha: 5.0,
        };
        let mut c = big_catalog(512, 120, 60, 40, 200);
        let pristine = explain_query(
            &c,
            sql,
            sys,
            QueryParams::paper_base(),
            IoScenario::Dedicated,
        )
        .unwrap();
        assert!(!pristine.contains("frag   :"), "{pristine}");

        c.set_text_column_frag(
            "Docs",
            "Body",
            // Zero tombstones: pure side-file growth, so every formula's
            // estimate must strictly rise (tombstones can legitimately
            // *lower* costs by shrinking live counts).
            FragStats {
                doc_delta_pages: 200,
                inv_delta_pages: 80,
                tombstone_ratio: 0.0,
            },
        )
        .unwrap();
        let fragmented = explain_query(
            &c,
            sql,
            sys,
            QueryParams::paper_base(),
            IoScenario::Dedicated,
        )
        .unwrap();
        assert!(fragmented.contains("frag   :"), "{fragmented}");
        assert!(fragmented.contains("Δdoc=200"), "{fragmented}");

        // The delta pages feed the actual estimates: re-plan both ways and
        // compare the formulas the planner ranks.
        let query = parse(sql).unwrap();
        let frag_plan = plan(
            &c,
            &query,
            sys,
            QueryParams::paper_base(),
            IoScenario::Dedicated,
        )
        .unwrap();
        c.set_text_column_frag("Docs", "Body", FragStats::default())
            .unwrap();
        let clean_plan = plan(
            &c,
            &query,
            sys,
            QueryParams::paper_base(),
            IoScenario::Dedicated,
        )
        .unwrap();
        for alg in Algorithm::ALL {
            let clean = clean_plan.estimates.cost(alg, IoScenario::Dedicated);
            let frag = frag_plan.estimates.cost(alg, IoScenario::Dedicated);
            if clean.is_finite() {
                assert!(
                    frag > clean,
                    "{alg}: fragmentation must cost pages ({clean} vs {frag})"
                );
            }
        }
        // Unknown names are rejected, not silently ignored.
        assert!(c
            .set_text_column_frag("Nope", "Body", FragStats::default())
            .is_err());
        assert!(c
            .set_text_column_frag("Docs", "Id", FragStats::default())
            .is_err());
    }

    #[test]
    fn fnl_crossover_is_lambda_dependent_with_honest_drift() {
        // The λ sweep the filter family was built for: the signature index
        // (Ip < D1) makes every extra pass cheaper than HHNL's, so FNL's
        // measured page bill stays below HHNL's and the gap widens with λ,
        // while the planner's choice flips between FNL and its rivals
        // exactly where the calibrated estimates say it should.
        let c = big_catalog(512, 300, 150, 40, 200);
        let sys = SystemParams {
            buffer_pages: 100,
            page_size: 512,
            alpha: 5.0,
        };
        let mut fnl_drifts: Vec<f64> = Vec::new();
        let mut prev_gap: i64 = i64::MIN;
        for l in [5usize, 60, 100] {
            let sql = format!(
                "Select D.Id, Q.Id From Docs D, Queries Q \
                 Where D.Body SIMILAR_TO({l}) Q.Body"
            );
            let out = explain_analyze_query(
                &c,
                &sql,
                sys,
                QueryParams::paper_base(),
                IoScenario::Dedicated,
            )
            .unwrap();
            // The executed algorithm is the argmin of the recorded
            // predictions: FNL is selected exactly where the model says
            // it wins, and nowhere else.
            let query = parse(&sql).unwrap();
            let p = plan(
                &c,
                &query,
                sys,
                QueryParams::paper_base(),
                IoScenario::Dedicated,
            )
            .unwrap();
            let fnl_pred = p.prediction(Algorithm::Fnl).calibrated;
            let best = p
                .predictions
                .iter()
                .map(|pr| pr.calibrated)
                .fold(f64::INFINITY, f64::min);
            assert_eq!(
                out.executed == Algorithm::Fnl,
                fnl_pred <= best,
                "λ={l}: executed {} but FNL predicted {fnl_pred:.1} vs best {best:.1}",
                out.executed
            );
            // Measured, not modelled: FNL reads fewer pages than HHNL at
            // every λ, and the saving grows as λ shrinks the batches.
            let pages = |alg: Algorithm| {
                out.reports
                    .iter()
                    .find(|r| r.algorithm == alg)
                    .map(|r| r.pages_read.total_reads())
                    .unwrap_or_else(|| panic!("λ={l}: {alg} did not run"))
            };
            let (fnl_pages, hhnl_pages) = (pages(Algorithm::Fnl), pages(Algorithm::Hhnl));
            assert!(
                fnl_pages < hhnl_pages,
                "λ={l}: FNL read {fnl_pages} pages vs HHNL {hhnl_pages}"
            );
            let gap = hhnl_pages as i64 - fnl_pages as i64;
            assert!(
                gap > prev_gap,
                "λ={l}: gap {gap} did not widen from {prev_gap}"
            );
            prev_gap = gap;
            let row = out.row("fns").expect("fns drift row");
            fnl_drifts.push(row.percent_error.expect("fns measurable").abs());
        }
        // The crossover is real: FNL is the choice at the low end of the
        // sweep and loses the high end to VVM's λ-independent cost.
        // (Asserted via the per-λ argmin check above; here we pin that both
        // regimes actually occur in the sweep.)
        let chosen: Vec<Algorithm> = [5usize, 60, 100]
            .iter()
            .map(|l| {
                let sql = format!(
                    "Select D.Id, Q.Id From Docs D, Queries Q \
                     Where D.Body SIMILAR_TO({l}) Q.Body"
                );
                let query = parse(&sql).unwrap();
                plan(
                    &c,
                    &query,
                    sys,
                    QueryParams::paper_base(),
                    IoScenario::Dedicated,
                )
                .unwrap()
                .chosen
            })
            .collect();
        assert_eq!(chosen[0], Algorithm::Fnl, "low λ belongs to FNL");
        assert_ne!(chosen[2], Algorithm::Fnl, "high λ crossover away from FNL");
        // Model honesty: the fns drift rows stay tight — median under 10%.
        fnl_drifts.sort_by(f64::total_cmp);
        let median = fnl_drifts[fnl_drifts.len() / 2];
        assert!(
            median < 10.0,
            "fns drift median {median:.1}% (all {fnl_drifts:?})"
        );
    }

    #[test]
    fn explain_rejects_invalid_queries() {
        let c = catalog();
        assert!(explain_query(
            &c,
            "Select x From Y",
            SystemParams::paper_base(),
            QueryParams::paper_base(),
            IoScenario::Dedicated,
        )
        .is_err());
    }
}
