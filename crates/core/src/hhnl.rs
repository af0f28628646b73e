//! Algorithm HHNL — Horizontal-Horizontal Nested Loop (section 4.1).
//!
//! The outer collection gets as much memory as possible: read the next `X`
//! outer documents into memory, scan the inner collection once, and score
//! every inner document against every resident outer document, keeping a
//! λ-bounded heap per outer document. Repeat until the outer collection is
//! exhausted — `⌈N2/X⌉` inner scans in total.
//!
//! The executor reserves space for the largest inner document (the paper
//! reserves `⌈S1⌉` pages) plus, per resident outer document, the document
//! itself and `λ` similarity slots — exactly the memory layout behind the
//! `X = (B − ⌈S1⌉)/(S2 + 4λ/P)` estimate of section 4.1, except that real
//! document sizes are used instead of averages, so the budget is *never*
//! exceeded rather than exceeded on average.
//!
//! Within a pass the resident batch is scored through the inverted batch
//! kernel ([`crate::kernel`]): the batch's cells become one term-keyed
//! postings view, and each scanned document visits only the postings its
//! terms hit instead of merging with every resident document. The view
//! replaces the resident cells, so the memory charge per document is the
//! same `S2` as above.
//!
//! The forward order is the nested-loop engine ([`crate::nl`]) over the
//! inner document store, run for one query; batched HHNL is the same
//! engine for N queries.

use crate::batch::{self, BatchProgress, QueryAcc};
use crate::kernel::{self, BatchPostings};
use crate::nl::{self, InnerScan};
use crate::report::observe_phase_sim_io;
use crate::result::{JoinOutcome, Match};
use crate::spec::JoinSpec;
use crate::topk::TopK;
use std::time::Instant;
use textjoin_collection::Document;
use textjoin_common::{DocId, Error, Result};
use textjoin_costmodel::Algorithm;
use textjoin_obs::Tracer;
use textjoin_storage::MemTracker;

/// Executes the join with HHNL: the nested-loop engine ([`crate::nl`])
/// over the inner document store, as a batch of one.
pub fn execute(spec: &JoinSpec<'_>) -> Result<JoinOutcome> {
    nl::run_one(spec, InnerScan::Store)
}

/// Executes the join with HHNL in the *backward order* of section 4.1: the
/// inner collection is batched in memory and the outer collection is
/// scanned once per batch. Because an outer document's λ best matches are
/// only known after it has been compared with *all* inner documents, one
/// λ-heap per outer document must stay resident across every batch —
/// memory proportional to `N2·λ`, the price the paper cites for this
/// order. It can still win when `C1` is much smaller than `C2` (fewer
/// scans of the big collection).
pub fn execute_backward(spec: &JoinSpec<'_>) -> Result<JoinOutcome> {
    let started = Instant::now();
    let mut root = Tracer::maybe(spec.trace, "hhnl.backward");
    let disk = spec.inner.store().disk();
    let start_io = disk.stats();
    let tracker = MemTracker::new(&spec.sys);
    let lambda = spec.query.lambda;

    // Room for the outer document currently streaming past.
    let outer_doc_bytes = spec.outer.store().max_doc_bytes().max(1);
    tracker.allocate(outer_doc_bytes, "backward HHNL outer document slot")?;

    // One persistent λ-heap per participating outer document.
    let num_outer = spec.num_outer_docs();
    tracker.allocate(
        (TopK::budget_bytes(lambda).max(1)) * num_outer.max(1),
        "backward HHNL result heaps (λ per outer document)",
    )?;
    let mut heaps: std::collections::HashMap<u32, TopK> = std::collections::HashMap::new();

    let mut inner = spec.inner_iter();
    let mut pending: Option<(DocId, Document)> = None;
    let mut passes = 0u64;
    let mut work = QueryAcc::default();
    let mut progress = BatchProgress::new(std::slice::from_ref(spec));
    let inner_profile = spec.inner.profile();
    let outer_profile = spec.outer.profile();

    loop {
        // Fill a batch of inner documents: ids in slot order, cells in
        // the postings view.
        let mut batch: Vec<DocId> = Vec::new();
        let mut view = BatchPostings::new();
        let mut batch_bytes = 0u64;
        loop {
            let item = match pending.take() {
                Some(p) => Some(Ok(p)),
                None => inner.next(),
            };
            let Some(item) = item else { break };
            let Some((id, doc)) = nl::readable(spec, item, &mut work.skipped_docs)? else {
                continue;
            };
            if !spec.inner_doc_allowed(id) {
                continue;
            }
            let need = doc.size_bytes().max(1);
            if tracker.allocate(need, "backward HHNL inner batch").is_err() {
                if batch.is_empty() {
                    return Err(Error::InsufficientMemory {
                        context: "backward HHNL cannot hold even one inner document".into(),
                        required_pages: need.div_ceil(spec.sys.page_size as u64),
                        available_pages: spec.sys.buffer_pages,
                    });
                }
                pending = Some((id, doc));
                break;
            }
            batch_bytes += need;
            view.push(kernel::term_keys(&doc));
            batch.push(id);
        }
        if batch.is_empty() {
            break;
        }

        // One pass over the outer documents for this inner batch.
        passes += 1;
        let mut pass_span = root.child("hhnl.outer_scan");
        pass_span.record("batch_docs", batch.len() as u64);
        for item in spec.outer_iter() {
            let Some((outer_id, outer_doc)) = nl::readable(spec, item, &mut work.skipped_docs)?
            else {
                continue;
            };
            let heap = heaps
                .entry(outer_id.raw())
                .or_insert_with(|| TopK::new(lambda));
            // The view is over the inner batch and the outer document is
            // the probe; the weight product is exact, so each pair sums
            // exactly as the forward order does.
            work.cells_touched +=
                view.probe(kernel::term_keys(&outer_doc), kernel::term_factor(spec));
            view.drain(|slot, acc, hits| {
                let inner_id = batch[slot];
                if !spec.pair_allowed(inner_id, outer_id) {
                    return;
                }
                work.sim_ops += hits;
                let score =
                    spec.weighting
                        .finalize(acc, inner_profile, inner_id, outer_profile, outer_id);
                if !score.is_zero() {
                    heap.offer(inner_id, score);
                }
            });
        }
        drop(pass_span);
        tracker.release(batch_bytes);
        // Watchdog/introspection checkpoint at pass granularity, by the
        // forward order's progress rule.
        if progress.observe(
            std::slice::from_ref(spec),
            disk.stats().since(&start_io).cost(spec.sys.alpha),
            || format!("hhnl.backward.pass {passes}"),
        )? {
            break;
        }
    }

    // Outer documents that never met a batch (empty inner side) still get
    // empty rows.
    let mut rows: Vec<(DocId, Vec<Match>)> = heaps
        .into_iter()
        .map(|(id, heap)| (DocId::new(id), heap.into_matches()))
        .collect();
    if rows.is_empty() && num_outer > 0 {
        for item in spec.outer_iter() {
            if let Some((outer_id, _)) = nl::readable(spec, item, &mut work.skipped_docs)? {
                rows.push((outer_id, Vec::new()));
            }
        }
    }

    let io = disk.stats().since(&start_io);
    if root.is_enabled() {
        root.record("passes", passes);
        root.record("seq_reads", io.seq_reads);
        root.record("rand_reads", io.rand_reads);
        root.record("sim_ops", work.sim_ops);
        observe_phase_sim_io(spec.trace, "hhnl.backward", &io, spec.sys.alpha);
    }
    work.passes = passes;
    work.rows = rows;
    Ok(batch::finish(
        Algorithm::Hhnl,
        spec.sys.alpha,
        vec![work],
        &progress.cancelled,
        io,
        passes,
        tracker.high_water(),
        0,
        0,
        started,
    )
    .into_single())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reference::naive_join;
    use crate::spec::OuterDocs;
    use std::sync::Arc;
    use textjoin_collection::{Collection, SynthSpec};
    use textjoin_common::{CollectionStats, QueryParams, SystemParams};
    use textjoin_storage::DiskSim;

    fn fixture(
        n1: u64,
        n2: u64,
        k: f64,
        vocab: u64,
        page: usize,
    ) -> (
        Arc<DiskSim>,
        Collection,
        Collection,
        Vec<Document>,
        Vec<Document>,
    ) {
        let disk = Arc::new(DiskSim::new(page));
        let d1 = SynthSpec::from_stats(CollectionStats::new(n1, k, vocab), 11).generate_docs();
        let d2 = SynthSpec::from_stats(CollectionStats::new(n2, k, vocab), 22).generate_docs();
        let c1 = Collection::build(Arc::clone(&disk), "c1", d1.clone()).unwrap();
        let c2 = Collection::build(Arc::clone(&disk), "c2", d2.clone()).unwrap();
        (disk, c1, c2, d1, d2)
    }

    #[test]
    fn matches_reference_on_small_collections() {
        let (_, c1, c2, d1, d2) = fixture(30, 20, 10.0, 80, 256);
        let spec = JoinSpec::new(&c1, &c2)
            .with_sys(SystemParams::paper_base().with_buffer_pages(100))
            .with_query(QueryParams::paper_base().with_lambda(5));
        let got = execute(&spec).unwrap();
        let want = naive_join(&d1, &d2, OuterDocs::Full, 5, crate::Weighting::RawCount);
        assert_eq!(got.result, want);
        assert_eq!(got.stats.algorithm, Algorithm::Hhnl);
    }

    #[test]
    fn tight_memory_forces_multiple_passes_same_result() {
        let (_, c1, c2, d1, d2) = fixture(25, 40, 12.0, 100, 128);
        // Budget of 4 pages of 128 bytes: a handful of docs per batch.
        let spec = JoinSpec::new(&c1, &c2)
            .with_sys(SystemParams {
                buffer_pages: 4,
                page_size: 128,
                alpha: 5.0,
            })
            .with_query(QueryParams::paper_base().with_lambda(3));
        let got = execute(&spec).unwrap();
        assert!(got.stats.passes > 1, "tight memory must force batching");
        let want = naive_join(&d1, &d2, OuterDocs::Full, 3, crate::Weighting::RawCount);
        assert_eq!(got.result, want);
        assert!(got.stats.mem_high_water_bytes <= spec.sys.buffer_bytes());
    }

    #[test]
    fn io_matches_hhs_shape() {
        let (disk, c1, c2, _, _) = fixture(40, 30, 10.0, 100, 128);
        let spec = JoinSpec::new(&c1, &c2)
            .with_sys(SystemParams {
                buffer_pages: 6,
                page_size: 128,
                alpha: 5.0,
            })
            .with_query(QueryParams::paper_base().with_lambda(2));
        disk.reset_stats();
        disk.reset_head();
        let got = execute(&spec).unwrap();
        let d1 = c1.store().num_pages();
        let d2 = c2.store().num_pages();
        // hhs = D2 + passes·D1 (plus one seek per scan start).
        let expect = d2 + got.stats.passes * d1;
        assert_eq!(got.stats.io.total_reads(), expect);
        assert!(got.stats.io.rand_reads <= 2 * got.stats.passes + 1);
    }

    #[test]
    fn selection_reduces_outer_side() {
        let (_, c1, c2, d1, d2) = fixture(20, 30, 10.0, 80, 256);
        let chosen = [DocId::new(3), DocId::new(17), DocId::new(29)];
        let spec = JoinSpec::new(&c1, &c2)
            .with_outer_docs(OuterDocs::Selected(&chosen))
            .with_query(QueryParams::paper_base().with_lambda(4));
        let got = execute(&spec).unwrap();
        assert_eq!(got.result.num_outer_docs(), 3);
        let want = naive_join(
            &d1,
            &d2,
            OuterDocs::Selected(&chosen),
            4,
            crate::Weighting::RawCount,
        );
        assert_eq!(got.result, want);
    }

    #[test]
    fn cosine_weighting_matches_reference() {
        let (_, c1, c2, d1, d2) = fixture(15, 15, 8.0, 60, 256);
        let spec = JoinSpec::new(&c1, &c2)
            .with_weighting(crate::Weighting::Cosine)
            .with_query(QueryParams::paper_base().with_lambda(5));
        let got = execute(&spec).unwrap();
        let want = naive_join(&d1, &d2, OuterDocs::Full, 5, crate::Weighting::Cosine);
        assert!(got.result.approx_eq(&want, 1e-12));
    }

    #[test]
    fn impossible_budget_is_an_error() {
        let (_, c1, c2, _, _) = fixture(10, 10, 50.0, 100, 64);
        // One page of 64 bytes cannot hold an inner doc slot + outer doc.
        let spec = JoinSpec::new(&c1, &c2).with_sys(SystemParams {
            buffer_pages: 1,
            page_size: 64,
            alpha: 5.0,
        });
        assert!(matches!(
            execute(&spec),
            Err(Error::InsufficientMemory { .. })
        ));
    }

    #[test]
    fn cost_budget_overrun_aborts_both_orders() {
        let (_, c1, c2, _, _) = fixture(30, 20, 10.0, 80, 256);
        // A sub-page budget cannot survive the first pass checkpoint.
        let spec = JoinSpec::new(&c1, &c2).with_cost_budget(0.5);
        assert!(matches!(execute(&spec), Err(Error::CostOverrun { .. })));
        assert!(matches!(
            execute_backward(&spec),
            Err(Error::CostOverrun { .. })
        ));
        // Disarmed, the same spec completes.
        assert!(execute(&spec.without_cost_budget()).is_ok());
    }

    #[test]
    fn backward_order_matches_forward_order() {
        let (_, c1, c2, d1, d2) = fixture(30, 25, 10.0, 90, 256);
        let spec = JoinSpec::new(&c1, &c2)
            .with_sys(SystemParams {
                buffer_pages: 40,
                page_size: 256,
                alpha: 5.0,
            })
            .with_query(QueryParams::paper_base().with_lambda(4));
        let forward = execute(&spec).unwrap();
        let backward = execute_backward(&spec).unwrap();
        assert_eq!(forward.result, backward.result);
        let want = naive_join(&d1, &d2, OuterDocs::Full, 4, crate::Weighting::RawCount);
        assert_eq!(backward.result, want);
        assert!(backward.stats.mem_high_water_bytes <= spec.sys.buffer_bytes());
    }

    #[test]
    fn backward_order_wins_when_inner_is_tiny() {
        // C1 of 5 docs vs C2 of 80: backward batches all of C1 once and
        // scans C2 once; forward scans C1 once per outer batch but C1 is
        // tiny — the interesting direction is the pass count over the BIG
        // collection.
        let (disk, c1, c2, _, _) = fixture(5, 80, 12.0, 100, 128);
        // Note the memory premium of the backward order: the λ-heaps of
        // all 80 outer documents must stay resident (80·2·8 bytes), so the
        // budget is larger than the forward tests need.
        let spec = JoinSpec::new(&c1, &c2)
            .with_sys(SystemParams {
                buffer_pages: 32,
                page_size: 128,
                alpha: 5.0,
            })
            .with_query(QueryParams::paper_base().with_lambda(2));
        disk.reset_stats();
        disk.reset_head();
        let backward = execute_backward(&spec).unwrap();
        assert_eq!(backward.stats.passes, 1, "all 5 inner docs fit one batch");
        // One pass = D1 + D2 pages.
        let expect = c1.store().num_pages() + c2.store().num_pages();
        assert_eq!(backward.stats.io.total_reads(), expect);
        let forward = execute(&spec).unwrap();
        assert_eq!(forward.result, backward.result);
    }

    #[test]
    fn backward_order_respects_selections() {
        let (_, c1, c2, d1, d2) = fixture(20, 30, 10.0, 80, 256);
        let chosen = [DocId::new(3), DocId::new(17)];
        let inner_ids = [DocId::new(1), DocId::new(5), DocId::new(9)];
        let spec = JoinSpec::new(&c1, &c2)
            .with_outer_docs(OuterDocs::Selected(&chosen))
            .with_inner_docs(&inner_ids)
            .with_query(QueryParams::paper_base().with_lambda(3));
        let got = execute_backward(&spec).unwrap();
        let want = crate::reference::naive_join_filtered(
            &d1,
            &d2,
            OuterDocs::Selected(&chosen),
            Some(&inner_ids),
            3,
            crate::Weighting::RawCount,
        );
        assert_eq!(got.result, want);
    }

    #[test]
    fn attached_tracer_captures_phase_spans() {
        let (_, c1, c2, _, _) = fixture(25, 40, 12.0, 100, 128);
        let tracer = textjoin_obs::Tracer::enabled(256);
        let spec = JoinSpec::new(&c1, &c2)
            .with_sys(SystemParams {
                buffer_pages: 4,
                page_size: 128,
                alpha: 5.0,
            })
            .with_query(QueryParams::paper_base().with_lambda(3))
            .with_trace(&tracer);
        let got = execute(&spec).unwrap();
        let spans = tracer.finished();
        let root = spans.iter().find(|s| s.name == "hhnl").expect("root span");
        assert!(root.fields.contains(&("passes", got.stats.passes)));
        assert!(root.fields.contains(&("seq_reads", got.stats.io.seq_reads)));
        let scans = spans.iter().filter(|s| s.name == "hhnl.inner_scan");
        assert_eq!(scans.count() as u64, got.stats.passes);
        // Per-pass page deltas sum to the run's total reads.
        let per_pass: u64 = spans
            .iter()
            .filter(|s| s.name == "hhnl.inner_scan")
            .flat_map(|s| &s.fields)
            .filter(|(k, _)| *k == "seq_reads" || *k == "rand_reads")
            .map(|(_, v)| v)
            .sum();
        assert!(per_pass <= got.stats.io.total_reads());
        // Without a tracer nothing is recorded and results are identical.
        let untraced = execute(&JoinSpec {
            trace: None,
            ..spec
        })
        .unwrap();
        assert_eq!(untraced.result, got.result);
    }

    #[test]
    fn empty_outer_collection_yields_empty_result() {
        let disk = Arc::new(DiskSim::new(256));
        let c1 = Collection::build(
            Arc::clone(&disk),
            "c1",
            SynthSpec::from_stats(CollectionStats::new(5, 5.0, 20), 1).generate_docs(),
        )
        .unwrap();
        let c2 = Collection::build(Arc::clone(&disk), "c2", Vec::<Document>::new()).unwrap();
        let got = execute(&JoinSpec::new(&c1, &c2)).unwrap();
        assert_eq!(got.result.num_outer_docs(), 0);
        assert_eq!(got.stats.passes, 0);
    }
}
