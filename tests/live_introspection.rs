//! End-to-end tests of the live introspection layer: in-flight tickets
//! with monotone progress, cooperative cancellation observed within one
//! checkpoint, the query-layer registration path, and the embedded scrape
//! endpoint agreeing with the registry it serves.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use textjoin::core::ResultQuality;
use textjoin::costmodel;
use textjoin::obs::{IntrospectionServer, LiveRegistry, Registry};
use textjoin::prelude::*;
use textjoin::query::run_query_introspected;
use textjoin::sim::live::{http_get, parse_queries};

struct Fixture {
    _disk: Arc<DiskSim>,
    c1: Collection,
    c2: Collection,
    inv1: InvertedFile,
    inv2: InvertedFile,
    fnl1: FnlIndex,
    sys: textjoin::common::SystemParams,
}

/// Small pages + a small buffer force every algorithm through several
/// passes/rounds, i.e. several cooperative checkpoints per run.
fn fixture(seed: u64) -> Fixture {
    let sys = textjoin::common::SystemParams {
        buffer_pages: 24,
        page_size: 256,
        alpha: 5.0,
    };
    let disk = Arc::new(DiskSim::new(sys.page_size));
    let c1 = SynthSpec::from_stats(CollectionStats::new(150, 12.0, 300), seed)
        .generate(Arc::clone(&disk), "c1")
        .unwrap();
    let c2 = SynthSpec::from_stats(CollectionStats::new(200, 12.0, 300), seed + 1)
        .generate(Arc::clone(&disk), "c2")
        .unwrap();
    let inv1 = InvertedFile::build(Arc::clone(&disk), "c1", &c1).unwrap();
    let inv2 = InvertedFile::build(Arc::clone(&disk), "c2", &c2).unwrap();
    let fnl1 = FnlIndex::build(Arc::clone(&disk), "c1", &c1).unwrap();
    Fixture {
        _disk: disk,
        c1,
        c2,
        inv1,
        inv2,
        fnl1,
        sys,
    }
}

fn run(f: &Fixture, alg: Algorithm, spec: &JoinSpec<'_>) -> JoinOutcome {
    match alg {
        Algorithm::Hhnl => textjoin::core::hhnl::execute(spec).unwrap(),
        Algorithm::Hvnl => textjoin::core::hvnl::execute(spec, &f.inv1).unwrap(),
        Algorithm::Vvm => textjoin::core::vvm::execute(spec, &f.inv1, &f.inv2).unwrap(),
        Algorithm::Fnl => textjoin::core::fnl::execute(spec, &f.fnl1).unwrap(),
    }
}

fn predicted(f: &Fixture, spec: &JoinSpec<'_>, alg: Algorithm) -> Option<f64> {
    let inputs = spec.cost_inputs().with_fnl(f.fnl1.stats());
    match alg {
        Algorithm::Hhnl => costmodel::hhnl::sequential(&inputs).ok(),
        Algorithm::Hvnl => Some(costmodel::hvnl::sequential(&inputs)),
        Algorithm::Vvm => costmodel::vvm::sequential(&inputs).ok(),
        Algorithm::Fnl => costmodel::fnl::sequential(&inputs).ok(),
    }
    .filter(|p| p.is_finite() && *p > 0.0)
}

/// A watcher thread samples the ticket while the join runs on the test
/// thread. Whatever the interleaving, the sampled pages and progress
/// sequences must be monotone non-decreasing and progress stays in
/// `[0, 1]` — for all three algorithms.
#[test]
fn progress_is_monotone_under_a_live_watcher() {
    let f = fixture(7);
    for alg in Algorithm::ALL {
        let live = LiveRegistry::new();
        let spec = JoinSpec::new(&f.c1, &f.c2)
            .with_sys(f.sys)
            .with_query(QueryParams::paper_base().with_lambda(3));
        let guard = live.register(
            "watched",
            "c1 ⋈ c2",
            alg.to_string(),
            predicted(&f, &spec, alg),
            None,
            1,
        );
        let spec = spec
            .with_ticket(guard.ticket())
            .with_cancel(guard.ticket().cancel_token());

        let done = Arc::new(AtomicBool::new(false));
        let watcher = {
            let ticket = guard.ticket().clone();
            let done = Arc::clone(&done);
            std::thread::spawn(move || {
                let mut samples = Vec::new();
                while !done.load(Ordering::Acquire) {
                    samples.push(ticket.snapshot());
                    std::thread::yield_now();
                }
                samples.push(ticket.snapshot());
                samples
            })
        };
        let outcome = run(&f, alg, &spec);
        done.store(true, Ordering::Release);
        let samples = watcher.join().unwrap();

        assert_eq!(outcome.quality, ResultQuality::Full, "{alg}");
        let last = samples.last().unwrap();
        assert!(last.pages > 0.0, "{alg}: ticket saw no pages");
        let progress = last.progress.expect("predicted pages were provided");
        assert!(progress > 0.0, "{alg}: progress stuck at zero");
        for w in samples.windows(2) {
            assert!(
                w[1].pages >= w[0].pages,
                "{alg}: pages regressed {} -> {}",
                w[0].pages,
                w[1].pages
            );
            let (a, b) = (w[0].progress.unwrap_or(0.0), w[1].progress.unwrap_or(0.0));
            assert!(b >= a, "{alg}: progress regressed {a} -> {b}");
            assert!((0.0..=1.0).contains(&b), "{alg}: progress {b} out of range");
        }
        drop(guard);
        assert!(live.is_empty(), "{alg}: guard drop must deregister");
    }
}

/// A token set before the run starts is observed at the very first
/// cooperative checkpoint: every algorithm returns `Partial` having done
/// at most one checkpoint interval's work, with stats that account for
/// exactly the pages the ticket saw.
#[test]
fn preset_cancel_is_observed_within_one_checkpoint() {
    let f = fixture(11);
    for alg in Algorithm::ALL {
        let live = LiveRegistry::new();
        let base = JoinSpec::new(&f.c1, &f.c2)
            .with_sys(f.sys)
            .with_query(QueryParams::paper_base().with_lambda(3));
        let clean = run(&f, alg, &base);
        assert_eq!(clean.quality, ResultQuality::Full);

        let guard = live.register(
            "cancelled",
            "c1 ⋈ c2",
            alg.to_string(),
            predicted(&f, &base, alg),
            None,
            1,
        );
        guard.ticket().cancel_token().cancel();
        let spec = base
            .with_ticket(guard.ticket())
            .with_cancel(guard.ticket().cancel_token());
        let outcome = run(&f, alg, &spec);

        assert_eq!(
            outcome.quality,
            ResultQuality::Partial,
            "{alg}: pre-set cancel must surface as a Partial result"
        );
        assert!(
            outcome.stats.cost < clean.stats.cost,
            "{alg}: cancelled run cost {} not below clean {}",
            outcome.stats.cost,
            clean.stats.cost
        );
        assert!(
            outcome.result.num_outer_docs() <= clean.result.num_outer_docs(),
            "{alg}: partial result larger than the full one"
        );
        // The ticket's accumulated pages match the run's own accounting
        // (both derive from the same thread-local I/O tally).
        let ticket_pages = guard.ticket().pages();
        assert!(
            (ticket_pages - outcome.stats.cost).abs() <= 1.0,
            "{alg}: ticket saw {ticket_pages} pages, stats say {}",
            outcome.stats.cost
        );
    }
}

/// Outer-partitioned workers share one ticket. Each worker feeds it the
/// pages its own thread read, so the ticket ends within a page of the
/// merged stats' cost: no worker counts a sibling's traffic.
#[test]
fn shared_ticket_across_outer_partitioned_workers_matches_merged_cost() {
    let f = fixture(13);
    for alg in [Algorithm::Hhnl, Algorithm::Fnl] {
        let live = LiveRegistry::new();
        let base = JoinSpec::new(&f.c1, &f.c2)
            .with_sys(f.sys)
            .with_query(QueryParams::paper_base().with_lambda(3));
        let guard = live.register(
            "parallel",
            "c1 ⋈ c2",
            alg.to_string(),
            predicted(&f, &base, alg),
            None,
            2,
        );
        let spec = base.with_ticket(guard.ticket());
        let outcome = match alg {
            Algorithm::Hhnl => textjoin::core::parallel::execute_hhnl(&spec, 2),
            _ => textjoin::core::parallel::execute_fnl(&spec, &f.fnl1, 2),
        }
        .unwrap();
        assert_eq!(outcome.quality, ResultQuality::Full, "{alg}");
        let ticket_pages = guard.ticket().pages();
        assert!(
            ticket_pages > 0.0 && (ticket_pages - outcome.stats.cost).abs() <= 1.0,
            "{alg}: ticket saw {ticket_pages} pages, merged stats say {}",
            outcome.stats.cost
        );
    }
}

/// The SQL layer registers a ticket per query, reports Full on a clean
/// run, and the registry is empty again afterwards (RAII deregistration).
#[test]
fn query_layer_registers_and_deregisters() {
    let disk = Arc::new(DiskSim::new(4096));
    let mut catalog = Catalog::new(disk);
    catalog
        .add(
            RelationBuilder::new("Positions")
                .column("P#", ColumnType::Int)
                .column("Job_descr", ColumnType::Text)
                .row(vec![
                    Value::Int(1),
                    Value::Text("query engines, storage systems, indexes".into()),
                ])
                .unwrap(),
        )
        .unwrap();
    catalog
        .add(
            RelationBuilder::new("Applicants")
                .column("Name", ColumnType::Str)
                .column("Resume", ColumnType::Text)
                .row(vec![
                    Value::Str("Ada".into()),
                    Value::Text("storage systems and query engines expert".into()),
                ])
                .unwrap()
                .row(vec![
                    Value::Str("Bob".into()),
                    Value::Text("pasta, recipes, kitchens".into()),
                ])
                .unwrap(),
        )
        .unwrap();

    let live = LiveRegistry::new();
    let out = run_query_introspected(
        &catalog,
        "Select P.P#, A.Name From Positions P, Applicants A \
         Where A.Resume SIMILAR_TO(1) P.Job_descr",
        textjoin::common::SystemParams::paper_base(),
        QueryParams::paper_base(),
        IoScenario::Dedicated,
        &live,
    )
    .unwrap();
    assert_eq!(out.quality, textjoin::core::ResultQuality::Full);
    assert!(!out.rows.is_empty());
    assert!(live.is_empty(), "finished query must deregister its ticket");
}

/// `GET /metrics` and `GET /queries` agree with the registry objects they
/// serve, field for field.
#[test]
fn scrape_endpoint_agrees_with_registry_snapshots() {
    let registry = Arc::new(Registry::new());
    let live = LiveRegistry::with_metrics(Arc::clone(&registry));
    let g1 = live.register("alpha", "c1 ⋈ c2", "HHNL", Some(100.0), Some(250.0), 2);
    let g2 = live.register("beta", "c1 ⋈ c2", "VVM", None, None, 1);
    g1.ticket().add_pages(40.0);
    g1.ticket().set_phase("hhnl.round 2");
    g2.ticket().cancel_token().cancel();

    let server =
        IntrospectionServer::start("127.0.0.1:0", Arc::clone(&registry), live.clone()).unwrap();
    let addr = server.addr().to_string();

    assert_eq!(http_get(&addr, "/healthz").unwrap(), "ok\n");

    let metrics = http_get(&addr, "/metrics").unwrap();
    assert_eq!(metrics, registry.to_prometheus_text());
    assert!(metrics.contains("queries_inflight 2"), "{metrics}");

    let rows = parse_queries(&http_get(&addr, "/queries").unwrap()).unwrap();
    let snaps = live.snapshot();
    assert_eq!(rows.len(), snaps.len());
    for (row, snap) in rows.iter().zip(&snaps) {
        assert_eq!(row.id, snap.id);
        assert_eq!(row.query, snap.query);
        assert_eq!(row.algorithm, snap.algorithm);
        assert_eq!(row.phase, snap.phase);
        assert!((row.pages - snap.pages).abs() < 1e-6);
        assert_eq!(row.predicted_pages, snap.predicted_pages);
        assert_eq!(row.workers, snap.workers);
        assert_eq!(row.cancelled, snap.cancelled);
    }
    assert_eq!(rows[0].progress, Some(0.4));
    assert_eq!(rows[0].budget_headroom_pages, Some(210.0));
    assert!(rows[1].cancelled);

    // Dropping the guards deregisters: the inflight gauge falls to zero
    // and the cancelled counter counts the one cancelled ticket.
    let body = http_get(&addr, "/queries").unwrap();
    assert!(body.contains("\"cancelled\":true"));
    drop(g1);
    drop(g2);
    let metrics = http_get(&addr, "/metrics").unwrap();
    assert!(metrics.contains("queries_inflight 0"), "{metrics}");
    assert!(metrics.contains("queries_cancelled 1"), "{metrics}");
    server.stop();
}

/// Every query of a batch carries its own ticket. The batch's checkpoints
/// split the shared reads, setup included, across the live queries, so the
/// tickets together end within a page of the batch's cost.
#[test]
fn batch_tickets_sum_to_the_batch_cost() {
    let f = fixture(11);
    for alg in [Algorithm::Hhnl, Algorithm::Hvnl, Algorithm::Fnl] {
        let live = LiveRegistry::new();
        let base = JoinSpec::new(&f.c1, &f.c2)
            .with_sys(f.sys)
            .with_query(QueryParams::paper_base().with_lambda(3));
        let guards: Vec<_> = ["first", "second"]
            .into_iter()
            .map(|name| live.register(name, "c1 ⋈ c2", alg.to_string(), None, None, 1))
            .collect();
        let specs: Vec<JoinSpec<'_>> = guards
            .iter()
            .map(|g| base.with_ticket(g.ticket()))
            .collect();
        let outcome = match alg {
            Algorithm::Hhnl => textjoin::core::batch::execute_hhnl(&specs),
            Algorithm::Hvnl => textjoin::core::batch::execute_hvnl(&specs, &f.inv1),
            _ => textjoin::core::batch::execute_fnl(&specs, &f.fnl1),
        }
        .unwrap();
        let tickets: f64 = guards.iter().map(|g| g.ticket().pages()).sum();
        assert!(
            tickets > 0.0 && (tickets - outcome.stats.cost).abs() <= 1.0,
            "{alg}: tickets saw {tickets} pages, the batch cost {}",
            outcome.stats.cost
        );
    }
}
