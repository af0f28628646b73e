//! Plan execution: run the chosen join algorithm and project result tuples.

use crate::catalog::{Catalog, Relation, Value};
use crate::parser::parse;
use crate::planner::{
    plan, plan_batch, plan_with_shards, plan_with_workers, BatchPlan, OutputCol, Plan,
};
use textjoin_common::{Error, QueryParams, Result, Score, SystemParams};
use textjoin_core::{
    batch, execute_sharded, fnl, hhnl, hvnl, parallel, vvm, Algorithm, ExecStats, IoScenario,
    JoinResult, JoinSpec, OuterDocs, ResultQuality, ShardOptions, ShardPartitioning, ShardReport,
};
use textjoin_costmodel::Algorithm as Alg;
use textjoin_obs::{LiveRegistry, TicketGuard};

/// Live-introspection handle for plan execution: where to file the
/// in-flight [`textjoin_obs::QueryTicket`] and the query text `/queries`
/// shows for it. The ticket is registered before the join starts and
/// deregistered by RAII when execution returns — normally, on error, or
/// during a panic unwind — so the registry never leaks entries.
#[derive(Clone, Copy)]
pub struct Introspect<'r> {
    /// Registry the in-flight ticket lives in.
    pub live: &'r LiveRegistry,
    /// Human-readable query text for the ticket.
    pub query: &'r str,
}

/// `Some(pages)` when a prediction is a usable page count for the ticket.
fn finite_pages(pages: f64) -> Option<f64> {
    (pages.is_finite() && pages > 0.0).then_some(pages)
}

/// The `C2.col ⋈ C1.col` pair key shown by `/queries`.
fn pair_key(p: &Plan) -> String {
    format!(
        "{}.{} ⋈ {}.{}",
        p.outer_rel, p.outer_column, p.inner_rel, p.inner_column
    )
}

/// Measured per-site breakdown of a sharded run (`Plan::shards > 1`):
/// what EXPLAIN ANALYZE's shard table compares against
/// [`Plan::shard_plan`]'s predictions.
#[derive(Clone, Debug)]
pub struct ShardExecution {
    /// Per-site drive statistics and shipping, in shard order.
    pub reports: Vec<ShardReport>,
    /// Total pages shipped between sites, blowup included.
    pub shipped_pages: u64,
    /// `β × shipped_pages` — the measured comm term.
    pub comm_cost: f64,
    /// The heaviest site's page cost — the balance metric.
    pub max_shard_pages: f64,
    /// Simulated network transfer time.
    pub network_ns: u64,
    /// The boundary strategy that ran.
    pub partitioning: ShardPartitioning,
}

/// The result of running a textual-join query.
pub struct QueryOutput {
    /// Column headers, ending with the implicit `SIMILARITY` column.
    pub headers: Vec<String>,
    /// Result tuples: one per `(outer row, matched inner row)` pair, in
    /// outer-row order, best match first.
    pub rows: Vec<Vec<Value>>,
    /// Which algorithm the integrated optimizer executed (after any
    /// fallback re-planning on unreadable storage).
    pub algorithm: Algorithm,
    /// Measured execution statistics.
    pub stats: ExecStats,
    /// Whether degraded-mode execution had to skip unreadable data.
    pub quality: ResultQuality,
    /// Per-site measurements when the plan was sharded (`shards > 1`),
    /// `None` for single-node execution.
    pub sharded: Option<ShardExecution>,
}

/// Parses, plans and executes a query against the catalog.
pub fn run_query(
    catalog: &Catalog,
    sql: &str,
    sys: SystemParams,
    base_query_params: QueryParams,
    scenario: IoScenario,
) -> Result<QueryOutput> {
    let query = parse(sql)?;
    let p = plan(catalog, &query, sys, base_query_params, scenario)?;
    execute_plan(catalog, &p, sys, base_query_params)
}

/// [`run_query`] with a worker knob: plans on the parallel cost estimates
/// and executes the winning algorithm on `workers` threads.
pub fn run_query_with_workers(
    catalog: &Catalog,
    sql: &str,
    sys: SystemParams,
    base_query_params: QueryParams,
    scenario: IoScenario,
    workers: usize,
) -> Result<QueryOutput> {
    let query = parse(sql)?;
    let p = plan_with_workers(catalog, &query, sys, base_query_params, scenario, workers)?;
    execute_plan(catalog, &p, sys, base_query_params)
}

/// [`run_query`] in the multidatabase setting: the join is partitioned
/// across `shards` simulated sites (each with its own drive and `workers`
/// threads), intermediate structures are shipped at the default network
/// pricing, and per-site top-λ lists are merged into the exact global
/// answer. `QueryOutput::sharded` carries the per-site measurements.
#[allow(clippy::too_many_arguments)]
pub fn run_query_sharded(
    catalog: &Catalog,
    sql: &str,
    sys: SystemParams,
    base_query_params: QueryParams,
    scenario: IoScenario,
    workers: usize,
    shards: usize,
    partitioning: ShardPartitioning,
) -> Result<QueryOutput> {
    let query = parse(sql)?;
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
    execute_plan(catalog, &p, sys, base_query_params)
}

/// [`run_query`] with live introspection: the run registers an in-flight
/// ticket in `live` (query text, pair, algorithm, calibrated prediction,
/// worker count), feeds it progress at every executor checkpoint, and
/// honours its cancel token — `/queries` sees the run, `/queries/<id>/cancel`
/// stops it with a `Partial` result.
pub fn run_query_introspected(
    catalog: &Catalog,
    sql: &str,
    sys: SystemParams,
    base_query_params: QueryParams,
    scenario: IoScenario,
    live: &LiveRegistry,
) -> Result<QueryOutput> {
    let query = parse(sql)?;
    let p = plan(catalog, &query, sys, base_query_params, scenario)?;
    execute_plan_inner(
        catalog,
        &p,
        sys,
        base_query_params,
        None,
        None,
        Some(Introspect { live, query: sql }),
    )
}

/// Executes an already-planned query.
pub fn execute_plan(
    catalog: &Catalog,
    p: &Plan,
    sys: SystemParams,
    base_query_params: QueryParams,
) -> Result<QueryOutput> {
    execute_plan_traced(catalog, p, sys, base_query_params, None)
}

/// Executes an already-planned query, opening executor spans on `trace`
/// when one is given (the `EXPLAIN ANALYZE` path).
pub fn execute_plan_traced(
    catalog: &Catalog,
    p: &Plan,
    sys: SystemParams,
    base_query_params: QueryParams,
    trace: Option<&textjoin_obs::Tracer>,
) -> Result<QueryOutput> {
    execute_plan_inner(catalog, p, sys, base_query_params, trace, None, None)
}

/// [`execute_plan_traced`] with live introspection (see
/// [`run_query_introspected`]).
pub fn execute_plan_introspected(
    catalog: &Catalog,
    p: &Plan,
    sys: SystemParams,
    base_query_params: QueryParams,
    trace: Option<&textjoin_obs::Tracer>,
    introspect: Introspect<'_>,
) -> Result<QueryOutput> {
    execute_plan_inner(
        catalog,
        p,
        sys,
        base_query_params,
        trace,
        None,
        Some(introspect),
    )
}

/// Executes a plan with the drift watchdog armed: the chosen algorithm may
/// spend at most `drift_factor ×` its (calibrated) predicted page cost.
/// If it overruns — the prediction was badly optimistic — the run aborts
/// mid-flight with `Error::CostOverrun` and re-plans onto the
/// next-cheapest algorithm, which executes unwatched (the budget belonged
/// to the aborted prediction). Results are identical either way; only the
/// I/O spent differs.
pub fn execute_plan_watched(
    catalog: &Catalog,
    p: &Plan,
    sys: SystemParams,
    base_query_params: QueryParams,
    trace: Option<&textjoin_obs::Tracer>,
    drift_factor: f64,
) -> Result<QueryOutput> {
    execute_plan_watched_introspected(
        catalog,
        p,
        sys,
        base_query_params,
        trace,
        drift_factor,
        None,
    )
}

/// [`execute_plan_watched`] with optional live introspection: the ticket
/// additionally carries the watchdog budget, so `/queries` shows each
/// run's remaining headroom.
pub fn execute_plan_watched_introspected(
    catalog: &Catalog,
    p: &Plan,
    sys: SystemParams,
    base_query_params: QueryParams,
    trace: Option<&textjoin_obs::Tracer>,
    drift_factor: f64,
    introspect: Option<Introspect<'_>>,
) -> Result<QueryOutput> {
    let predicted = p.chosen_prediction().calibrated;
    let budget = (predicted.is_finite() && predicted > 0.0 && drift_factor.is_finite())
        .then_some(predicted * drift_factor);
    execute_plan_inner(
        catalog,
        p,
        sys,
        base_query_params,
        trace,
        budget,
        introspect,
    )
}

fn execute_plan_inner(
    catalog: &Catalog,
    p: &Plan,
    sys: SystemParams,
    base_query_params: QueryParams,
    trace: Option<&textjoin_obs::Tracer>,
    cost_budget: Option<f64>,
    introspect: Option<Introspect<'_>>,
) -> Result<QueryOutput> {
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

    let mut spec = JoinSpec::new(&inner_tc.collection, &outer_tc.collection)
        .with_sys(sys)
        .with_query(base_query_params.with_lambda(p.lambda));
    if let Some(ids) = &p.outer_rows {
        spec = spec.with_outer_docs(OuterDocs::Selected(ids));
    }
    if let Some(ids) = &p.inner_rows {
        spec = spec.with_inner_docs(ids);
    }
    if let Some(t) = trace {
        spec = spec.with_trace(t);
    }
    if let Some(budget) = cost_budget {
        spec = spec.with_cost_budget(budget);
    }
    // Register the in-flight ticket before the first page is read: it
    // carries the plan's calibrated prediction (the progress denominator),
    // the watchdog budget if armed, and the worker count. The guard's
    // lifetime is this function — RAII deregistration covers every exit.
    let guard: Option<TicketGuard> = introspect.map(|i| {
        i.live.register(
            i.query,
            pair_key(p),
            p.chosen.to_string(),
            finite_pages(p.chosen_prediction().calibrated),
            cost_budget,
            p.workers as u64,
        )
    });
    if let Some(g) = &guard {
        spec = spec
            .with_ticket(g.ticket())
            .with_cancel(g.ticket().cancel_token());
    }

    // Sharded plans take the multi-site path: partition, run one join per
    // site, merge at the coordinator. There is no single-node fallback
    // chain here — the sharded executor degrades per site (an unreadable
    // site skips data and marks its report `Partial`) instead of
    // re-planning the whole query.
    if p.shards > 1 {
        let mut opts = ShardOptions::new(p.shards)
            .with_partitioning(p.shard_partitioning)
            .with_comm(p.comm)
            .with_workers(p.workers.max(1));
        if let Some(i) = introspect {
            opts = opts.with_live(i.live);
        }
        let run = execute_sharded(&spec, p.chosen, &opts)?;
        let (headers, rows) = project(p, inner_rel, outer_rel, &run.outcome.result);
        return Ok(QueryOutput {
            headers,
            rows,
            algorithm: p.chosen,
            stats: run.outcome.stats,
            quality: run.outcome.quality,
            sharded: Some(ShardExecution {
                reports: run.shards,
                shipped_pages: run.shipped_pages,
                comm_cost: run.comm_cost,
                max_shard_pages: run.max_shard_pages,
                network_ns: run.network_ns,
                partitioning: run.partitioning,
            }),
        });
    }

    let run_alg = |alg: Alg, spec: &JoinSpec<'_>| {
        if p.workers > 1 {
            match alg {
                Alg::Hhnl => parallel::execute_hhnl(spec, p.workers),
                Alg::Hvnl => parallel::execute_hvnl(spec, &inner_tc.inverted, p.workers),
                Alg::Vvm => {
                    parallel::execute_vvm(spec, &inner_tc.inverted, &outer_tc.inverted, p.workers)
                }
                Alg::Fnl => parallel::execute_fnl(spec, &inner_tc.fnl, p.workers),
            }
        } else {
            match alg {
                Alg::Hhnl => hhnl::execute(spec),
                Alg::Hvnl => hvnl::execute(spec, &inner_tc.inverted),
                Alg::Vvm => vvm::execute(spec, &inner_tc.inverted, &outer_tc.inverted),
                Alg::Fnl => fnl::execute(spec, &inner_tc.fnl),
            }
        }
    };

    // Run the plan's choice; if it dies mid-run on unreadable storage (a
    // corrupt page, an exhausted retry) or overruns its watchdog budget
    // (the cost prediction was badly optimistic), re-plan onto the
    // remaining feasible algorithms cheapest-first — e.g. HVNL failing on
    // a corrupt inverted file falls back to HHNL, which never touches the
    // inverted file. Fallbacks run with the watchdog disarmed: the budget
    // was derived from the aborted choice's prediction.
    let mut executed = p.chosen;
    let outcome = match run_alg(p.chosen, &spec) {
        Ok(outcome) => outcome,
        Err(e @ (Error::Corrupt(_) | Error::Io { .. } | Error::CostOverrun { .. })) => {
            let spec = spec.without_cost_budget();
            let mut fallbacks: Vec<Alg> = Alg::ALL.into_iter().filter(|a| *a != p.chosen).collect();
            fallbacks.sort_by(|a, b| {
                p.estimates
                    .cost(*a, IoScenario::Dedicated)
                    .total_cmp(&p.estimates.cost(*b, IoScenario::Dedicated))
            });
            let mut last_err = e;
            let mut recovered = None;
            for alg in fallbacks {
                if p.estimates.cost(alg, IoScenario::Dedicated).is_infinite() {
                    continue;
                }
                // Keep the live ticket honest across the re-plan: new
                // algorithm label, its prediction as the new progress
                // denominator, and no budget (the watchdog is disarmed).
                if let Some(g) = &guard {
                    let ticket = g.ticket();
                    ticket.set_algorithm(alg.to_string());
                    ticket.set_predicted_pages(finite_pages(p.prediction(alg).calibrated));
                    ticket.set_budget_pages(None);
                }
                match run_alg(alg, &spec) {
                    Ok(outcome) => {
                        executed = alg;
                        recovered = Some(outcome);
                        break;
                    }
                    Err(
                        e @ (Error::InsufficientMemory { .. }
                        | Error::Corrupt(_)
                        | Error::Io { .. }),
                    ) => last_err = e,
                    Err(e) => return Err(e),
                }
            }
            match recovered {
                Some(outcome) => outcome,
                None => return Err(last_err),
            }
        }
        Err(e) => return Err(e),
    };

    let (headers, rows) = project(p, inner_rel, outer_rel, &outcome.result);
    Ok(QueryOutput {
        headers,
        rows,
        algorithm: executed,
        stats: outcome.stats,
        quality: outcome.quality,
        sharded: None,
    })
}

/// Projects a join result: one tuple per `(outer row, match)` pair, plus
/// the implicit `SIMILARITY` column.
fn project(
    p: &Plan,
    inner_rel: &Relation,
    outer_rel: &Relation,
    result: &JoinResult,
) -> (Vec<String>, Vec<Vec<Value>>) {
    let mut headers: Vec<String> = p.output.iter().map(|(h, _)| h.clone()).collect();
    headers.push("SIMILARITY".to_string());
    let mut rows = Vec::with_capacity(result.num_pairs());
    for (outer_doc, matches) in result.iter() {
        for m in matches {
            let mut tuple = Vec::with_capacity(p.output.len() + 1);
            for (_, col) in &p.output {
                let v = match col {
                    OutputCol::Outer(i) => outer_rel.value(outer_doc.index(), *i).clone(),
                    OutputCol::Inner(i) => inner_rel.value(m.inner.index(), *i).clone(),
                };
                tuple.push(v);
            }
            tuple.push(score_value(m.score));
            rows.push(tuple);
        }
    }
    (headers, rows)
}

/// The result of running a *batch* of textual-join queries with shared
/// scans.
pub struct BatchQueryOutput {
    /// Per-query outputs, in input order. Each query's `stats` carry its
    /// own CPU counters; the shared I/O lives in the batch-level `stats`.
    pub queries: Vec<QueryOutput>,
    /// Batch-level statistics: the real (shared) I/O, cost, memory
    /// high-water and pass counts, with CPU counters summed over queries.
    pub stats: ExecStats,
    /// Which algorithm the whole batch executed (after any fallback).
    pub algorithm: Algorithm,
}

/// Parses, plans and executes a batch of queries over one shared textual
/// column pair. The batch engine reads shared structures (inner scans, the
/// inverted-file dictionary, merge cursors) once for all queries.
pub fn run_query_batch(
    catalog: &Catalog,
    sqls: &[&str],
    sys: SystemParams,
    base_query_params: QueryParams,
    scenario: IoScenario,
) -> Result<BatchQueryOutput> {
    let queries = sqls.iter().map(|s| parse(s)).collect::<Result<Vec<_>>>()?;
    let bp = plan_batch(catalog, &queries, sys, base_query_params, scenario)?;
    execute_batch_plan(catalog, &bp, sys, base_query_params)
}

/// [`run_query_batch`] with live introspection: one ticket per query in
/// the batch, each with its own cancel token — cancelling one query
/// tags it `Partial` while its siblings run to completion unchanged.
pub fn run_query_batch_introspected(
    catalog: &Catalog,
    sqls: &[&str],
    sys: SystemParams,
    base_query_params: QueryParams,
    scenario: IoScenario,
    live: &LiveRegistry,
) -> Result<BatchQueryOutput> {
    let queries = sqls.iter().map(|s| parse(s)).collect::<Result<Vec<_>>>()?;
    let bp = plan_batch(catalog, &queries, sys, base_query_params, scenario)?;
    execute_batch_plan_inner(catalog, &bp, sys, base_query_params, Some((live, sqls)))
}

/// Executes an already-planned batch on its chosen algorithm, falling back
/// to the remaining feasible algorithms (cheapest batch estimate first)
/// when the choice dies on unreadable storage — the same recovery policy
/// as [`execute_plan_traced`], applied batch-wide.
pub fn execute_batch_plan(
    catalog: &Catalog,
    bp: &BatchPlan,
    sys: SystemParams,
    base_query_params: QueryParams,
) -> Result<BatchQueryOutput> {
    execute_batch_plan_inner(catalog, bp, sys, base_query_params, None)
}

fn execute_batch_plan_inner(
    catalog: &Catalog,
    bp: &BatchPlan,
    sys: SystemParams,
    base_query_params: QueryParams,
    introspect: Option<(&LiveRegistry, &[&str])>,
) -> Result<BatchQueryOutput> {
    let p0 = &bp.plans[0];
    let inner_rel = catalog
        .relation(&p0.inner_rel)
        .expect("planned relation exists");
    let outer_rel = catalog
        .relation(&p0.outer_rel)
        .expect("planned relation exists");
    let inner_tc = inner_rel
        .text_column(&p0.inner_column)
        .expect("planned text column");
    let outer_tc = outer_rel
        .text_column(&p0.outer_column)
        .expect("planned text column");

    // One ticket per query: each carries its own cancel token, so one
    // batch member can be cancelled without touching its siblings.
    let guards: Vec<TicketGuard> = introspect
        .map(|(live, sqls)| {
            bp.plans
                .iter()
                .enumerate()
                .map(|(i, p)| {
                    live.register(
                        sqls.get(i).copied().unwrap_or(""),
                        pair_key(p),
                        bp.chosen.to_string(),
                        finite_pages(p.prediction(bp.chosen).calibrated),
                        None,
                        1,
                    )
                })
                .collect()
        })
        .unwrap_or_default();

    // All plans share the collection pair (checked by `plan_batch`), so
    // every spec borrows the *same* `Collection` values — the identity the
    // batch executors insist on.
    let specs: Vec<JoinSpec<'_>> = bp
        .plans
        .iter()
        .enumerate()
        .map(|(i, p)| {
            let mut spec = JoinSpec::new(&inner_tc.collection, &outer_tc.collection)
                .with_sys(sys)
                .with_query(base_query_params.with_lambda(p.lambda));
            if let Some(ids) = &p.outer_rows {
                spec = spec.with_outer_docs(OuterDocs::Selected(ids));
            }
            if let Some(ids) = &p.inner_rows {
                spec = spec.with_inner_docs(ids);
            }
            if let Some(g) = guards.get(i) {
                spec = spec
                    .with_ticket(g.ticket())
                    .with_cancel(g.ticket().cancel_token());
            }
            spec
        })
        .collect();

    let run_alg = |alg: Alg| match alg {
        Alg::Hhnl => batch::execute_hhnl(&specs),
        Alg::Hvnl => batch::execute_hvnl(&specs, &inner_tc.inverted),
        Alg::Vvm => batch::execute_vvm(&specs, &inner_tc.inverted, &outer_tc.inverted),
        Alg::Fnl => batch::execute_fnl(&specs, &inner_tc.fnl),
    };

    let mut executed = bp.chosen;
    let outcome = match run_alg(bp.chosen) {
        Ok(outcome) => outcome,
        Err(e @ (Error::Corrupt(_) | Error::Io { .. })) => {
            let mut fallbacks: Vec<Alg> =
                Alg::ALL.into_iter().filter(|a| *a != bp.chosen).collect();
            fallbacks.sort_by(|a, b| {
                bp.estimates
                    .cost(*a, IoScenario::Dedicated)
                    .total_cmp(&bp.estimates.cost(*b, IoScenario::Dedicated))
            });
            let mut last_err = e;
            let mut recovered = None;
            for alg in fallbacks {
                if bp.estimates.cost(alg, IoScenario::Dedicated).is_infinite() {
                    continue;
                }
                for (g, p) in guards.iter().zip(&bp.plans) {
                    let ticket = g.ticket();
                    ticket.set_algorithm(alg.to_string());
                    ticket.set_predicted_pages(finite_pages(p.prediction(alg).calibrated));
                }
                match run_alg(alg) {
                    Ok(outcome) => {
                        executed = alg;
                        recovered = Some(outcome);
                        break;
                    }
                    Err(
                        e @ (Error::InsufficientMemory { .. }
                        | Error::Corrupt(_)
                        | Error::Io { .. }),
                    ) => last_err = e,
                    Err(e) => return Err(e),
                }
            }
            match recovered {
                Some(outcome) => outcome,
                None => return Err(last_err),
            }
        }
        Err(e) => return Err(e),
    };

    let queries = bp
        .plans
        .iter()
        .zip(outcome.queries)
        .map(|(p, q)| {
            let (headers, rows) = project(p, inner_rel, outer_rel, &q.result);
            QueryOutput {
                headers,
                rows,
                algorithm: executed,
                stats: q.stats,
                quality: q.quality,
                sharded: None,
            }
        })
        .collect();

    Ok(BatchQueryOutput {
        queries,
        stats: outcome.stats,
        algorithm: executed,
    })
}

fn score_value(score: Score) -> Value {
    let v = score.value();
    if v.fract() == 0.0 && v.abs() < i64::MAX as f64 {
        Value::Int(v as i64)
    } else {
        Value::Float(v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::catalog::{ColumnType, RelationBuilder};
    use std::sync::Arc;
    use textjoin_storage::DiskSim;

    fn catalog() -> Catalog {
        let disk = Arc::new(DiskSim::new(4096));
        let mut c = Catalog::new(disk);
        c.add(
            RelationBuilder::new("Positions")
                .column("P#", ColumnType::Int)
                .column("Title", ColumnType::Str)
                .column("Job_descr", ColumnType::Text)
                .row(vec![
                    Value::Int(1),
                    Value::Str("Database Engineer".into()),
                    Value::Text(
                        "design query engines, storage systems and database indexes".into(),
                    ),
                ])
                .unwrap()
                .row(vec![
                    Value::Int(2),
                    Value::Str("Chef".into()),
                    Value::Text("cook pasta and design recipes daily".into()),
                ])
                .unwrap(),
        )
        .unwrap();
        c.add(
            RelationBuilder::new("Applicants")
                .column("SSN", ColumnType::Str)
                .column("Name", ColumnType::Str)
                .column("Years", ColumnType::Int)
                .column("Resume", ColumnType::Text)
                .row(vec![
                    Value::Str("111".into()),
                    Value::Str("Ada".into()),
                    Value::Int(10),
                    Value::Text(
                        "expert in storage systems, database indexes and query engines".into(),
                    ),
                ])
                .unwrap()
                .row(vec![
                    Value::Str("222".into()),
                    Value::Str("Bob".into()),
                    Value::Int(2),
                    Value::Text("pasta cooking, recipes, italian kitchen".into()),
                ])
                .unwrap()
                .row(vec![
                    Value::Str("333".into()),
                    Value::Str("Cam".into()),
                    Value::Int(7),
                    Value::Text("gardening and landscaping".into()),
                ])
                .unwrap(),
        )
        .unwrap();
        c
    }

    fn run(c: &Catalog, sql: &str) -> QueryOutput {
        run_query(
            c,
            sql,
            SystemParams::paper_base(),
            QueryParams::paper_base(),
            IoScenario::Dedicated,
        )
        .unwrap()
    }

    #[test]
    fn end_to_end_match_quality() {
        let c = catalog();
        let out = run(
            &c,
            "Select P.Title, A.Name From Positions P, Applicants A \
             Where A.Resume SIMILAR_TO(1) P.Job_descr",
        );
        assert_eq!(
            out.headers,
            vec!["Positions.Title", "Applicants.Name", "SIMILARITY"]
        );
        // Each position gets its one best applicant: Ada for the engineer
        // role, Bob for the chef role.
        assert_eq!(out.rows.len(), 2);
        assert_eq!(out.rows[0][0], Value::Str("Database Engineer".into()));
        assert_eq!(out.rows[0][1], Value::Str("Ada".into()));
        assert_eq!(out.rows[1][1], Value::Str("Bob".into()));
    }

    #[test]
    fn like_selection_restricts_outer_rows() {
        let c = catalog();
        let out = run(
            &c,
            "Select P.Title, A.Name From Positions P, Applicants A \
             Where P.Title like '%Engineer%' and A.Resume SIMILAR_TO(2) P.Job_descr",
        );
        // Only the engineer position participates; it gets up to 2 matches.
        assert!(out
            .rows
            .iter()
            .all(|r| r[0] == Value::Str("Database Engineer".into())));
        assert!(!out.rows.is_empty());
    }

    #[test]
    fn inner_selection_excludes_candidates() {
        let c = catalog();
        let out = run(
            &c,
            "Select P.Title, A.Name From Positions P, Applicants A \
             Where A.Years >= 5 and A.Resume SIMILAR_TO(3) P.Job_descr",
        );
        // Bob (2 years) can never appear.
        assert!(out.rows.iter().all(|r| r[1] != Value::Str("Bob".into())));
    }

    #[test]
    fn lambda_bounds_matches_per_outer_row() {
        let c = catalog();
        let out = run(
            &c,
            "Select P.P#, A.Name From Positions P, Applicants A \
             Where A.Resume SIMILAR_TO(2) P.Job_descr",
        );
        let per_position_1 = out.rows.iter().filter(|r| r[0] == Value::Int(1)).count();
        assert!(per_position_1 <= 2);
    }

    #[test]
    fn similarity_column_is_appended_and_positive() {
        let c = catalog();
        let out = run(
            &c,
            "Select A.Name From Positions P, Applicants A \
             Where A.Resume SIMILAR_TO(1) P.Job_descr",
        );
        for row in &out.rows {
            match row.last().unwrap() {
                Value::Int(s) => assert!(*s > 0),
                Value::Float(s) => assert!(*s > 0.0),
                other => panic!("similarity should be numeric, got {other:?}"),
            }
        }
    }

    #[test]
    fn worker_knob_gives_the_same_tuples() {
        let c = catalog();
        let sql = "Select P.P#, A.SSN From Positions P, Applicants A \
                   Where A.Resume SIMILAR_TO(2) P.Job_descr";
        let seq = run(&c, sql);
        for workers in [2, 4] {
            let par = run_query_with_workers(
                &c,
                sql,
                SystemParams::paper_base(),
                QueryParams::paper_base(),
                IoScenario::Dedicated,
                workers,
            )
            .unwrap();
            assert_eq!(par.rows, seq.rows, "workers={workers}");
        }
    }

    #[test]
    fn sharded_query_matches_single_node() {
        let c = catalog();
        let sql = "Select P.Title, A.Name From Positions P, Applicants A \
                   Where A.Resume SIMILAR_TO(2) P.Job_descr";
        let single = run(&c, sql);
        for partitioning in [ShardPartitioning::SkewAware, ShardPartitioning::Naive] {
            let sharded = run_query_sharded(
                &c,
                sql,
                SystemParams::paper_base(),
                QueryParams::paper_base(),
                IoScenario::Dedicated,
                1,
                2,
                partitioning,
            )
            .unwrap();
            assert_eq!(sharded.headers, single.headers, "{partitioning}");
            assert_eq!(sharded.rows, single.rows, "{partitioning}");
            let sh = sharded.sharded.expect("sharded summary present");
            assert!(!sh.reports.is_empty());
            assert!(sh.shipped_pages > 0, "replicas must cross the wire");
            assert_eq!(sh.partitioning, partitioning);
        }
    }

    #[test]
    fn sharded_query_honours_selections() {
        let c = catalog();
        let sql = "Select P.Title, A.Name From Positions P, Applicants A \
                   Where P.Title like '%Engineer%' and A.Years >= 5 \
                   and A.Resume SIMILAR_TO(2) P.Job_descr";
        let single = run(&c, sql);
        let sharded = run_query_sharded(
            &c,
            sql,
            SystemParams::paper_base(),
            QueryParams::paper_base(),
            IoScenario::Dedicated,
            1,
            3,
            ShardPartitioning::SkewAware,
        )
        .unwrap();
        assert_eq!(sharded.rows, single.rows);
    }

    #[test]
    fn batch_execution_matches_individual_queries() {
        let c = catalog();
        let sqls = [
            "Select P.Title, A.Name From Positions P, Applicants A \
             Where A.Resume SIMILAR_TO(1) P.Job_descr",
            "Select P.P#, A.SSN From Positions P, Applicants A \
             Where A.Resume SIMILAR_TO(2) P.Job_descr",
            "Select A.Name From Positions P, Applicants A \
             Where A.Years >= 5 and A.Resume SIMILAR_TO(1) P.Job_descr",
        ];
        let sys = SystemParams::paper_base();
        let qp = QueryParams::paper_base();
        let batch_out = run_query_batch(&c, &sqls, sys, qp, IoScenario::Dedicated).unwrap();
        assert_eq!(batch_out.queries.len(), 3);
        for (sql, q) in sqls.iter().zip(&batch_out.queries) {
            let solo = run(&c, sql);
            assert_eq!(q.headers, solo.headers, "{sql}");
            assert_eq!(q.rows, solo.rows, "{sql}");
        }
        // The batch-level stats carry the real shared I/O.
        assert!(batch_out.stats.io.total_reads() > 0);
        assert_eq!(batch_out.stats.algorithm, batch_out.algorithm);
    }

    #[test]
    fn batch_runs_every_algorithm_to_the_same_tuples() {
        let c = catalog();
        let sqls = [
            "Select P.Title, A.Name From Positions P, Applicants A \
             Where A.Resume SIMILAR_TO(2) P.Job_descr",
            "Select P.Title, A.Name From Positions P, Applicants A \
             Where A.Resume SIMILAR_TO(1) P.Job_descr",
        ];
        let sys = SystemParams::paper_base();
        let qp = QueryParams::paper_base();
        let queries: Vec<_> = sqls.iter().map(|s| parse(s).unwrap()).collect();
        let mut outputs = Vec::new();
        for force in Alg::ALL {
            let mut bp =
                crate::planner::plan_batch(&c, &queries, sys, qp, IoScenario::Dedicated).unwrap();
            bp.chosen = force;
            let out = execute_batch_plan(&c, &bp, sys, qp).unwrap();
            assert_eq!(out.algorithm, force);
            outputs.push(out.queries.into_iter().map(|q| q.rows).collect::<Vec<_>>());
        }
        for pair in outputs.windows(2) {
            assert_eq!(pair[0], pair[1]);
        }
    }

    #[test]
    fn watchdog_overrun_replans_mid_run_onto_next_cheapest_identically() {
        let c = catalog();
        let query = parse(
            "Select P.P#, A.SSN From Positions P, Applicants A \
             Where A.Resume SIMILAR_TO(2) P.Job_descr",
        )
        .unwrap();
        let sys = SystemParams::paper_base();
        let qp = QueryParams::paper_base();
        let mut p = plan(&c, &query, sys, qp, IoScenario::Dedicated).unwrap();
        let baseline = execute_plan(&c, &p, sys, qp).unwrap();
        assert_eq!(baseline.algorithm, p.chosen);
        // Seed a gross misprediction: the chosen algorithm claims it needs
        // a fraction of a page. The watchdog budget (1.5 × 0.2 pages) is
        // overrun at the first checkpoint, the executor re-plans onto the
        // next-cheapest algorithm, and the tuples are byte-identical.
        let idx = p
            .predictions
            .iter()
            .position(|pr| pr.algorithm == p.chosen)
            .unwrap();
        p.predictions[idx].calibrated = 0.2;
        let watched = execute_plan_watched(&c, &p, sys, qp, None, 1.5).unwrap();
        assert_ne!(
            watched.algorithm, baseline.algorithm,
            "the overrun must force a different algorithm"
        );
        assert_eq!(watched.rows, baseline.rows);
        assert_eq!(watched.headers, baseline.headers);
        // A sane prediction with generous headroom never trips the guard.
        let unwatched = execute_plan_watched(&c, &p, sys, qp, None, f64::INFINITY);
        assert!(unwatched.is_ok());
        assert_eq!(unwatched.unwrap().rows, baseline.rows);
    }

    #[test]
    fn all_three_algorithms_give_the_same_tuples() {
        let c = catalog();
        let query = parse(
            "Select P.P#, A.SSN From Positions P, Applicants A \
             Where A.Resume SIMILAR_TO(2) P.Job_descr",
        )
        .unwrap();
        let sys = SystemParams::paper_base();
        let qp = QueryParams::paper_base();
        let mut outputs = Vec::new();
        for force in Alg::ALL {
            let mut p = plan(&c, &query, sys, qp, IoScenario::Dedicated).unwrap();
            p.chosen = force;
            let out = execute_plan(&c, &p, sys, qp).unwrap();
            assert_eq!(out.algorithm, force);
            outputs.push(out.rows);
        }
        for pair in outputs.windows(2) {
            assert_eq!(pair[0], pair[1]);
        }
    }
}
