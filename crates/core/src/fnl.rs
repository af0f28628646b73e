//! Algorithm FNL — Filtered Nested Loops.
//!
//! The fourth registered algorithm: HHNL's batched nested loop, with the
//! inner collection's sequential scan replaced by a scan of the compact
//! signature index ([`FnlIndex`]). FNL has no executor of its own: it is
//! the nested-loop engine ([`crate::nl`]) over the signature source. Each signature entry re-encodes a
//! document's d-cells as `(rank, weight)` pairs in increasing global
//! rarity rank, so a pass reads the signature file's `Ip` pages instead
//! of the document store's `D1` pages (signatures gap-code the rank
//! sequence, typically 40–60% of the store).
//!
//! In memory a pass scores exactly as HHNL does, through the inverted
//! batch kernel ([`crate::kernel`]): the resident outer batch's rank
//! cells become one rank-keyed postings view, each scanned signature
//! visits only the postings its ranks hit, and a flush applies the
//! overlap threshold τ before finalizing. A pair survives when it shares
//! at least τ terms — the same pairs the prefix/position-filtered merge
//! ([`textjoin_invfile::filtered_merge`]) keeps, summed in the same rank
//! order. FNL's only edge over HHNL is therefore the pages it reads.
//!
//! At the registered threshold τ = 1 the filter is vacuous as a
//! *predicate* (any pair with at least one common term survives, and a
//! pair with none scores zero under every weighting), so the surviving
//! candidates are exactly the nonzero-score pairs HHNL offers to its
//! λ-heaps — the result is byte-identical to HHNL under integer-valued
//! weightings. τ > 1 is an executor knob
//! ([`FnlOptions::min_overlap`]) for callers that want a genuine overlap
//! join; it changes the result by design (pairs below the threshold are
//! dropped) and is exercised by unit tests, not by the planner.
//!
//! The index is built over the **base** collection only. A base+delta
//! overlay is handled the way the delta-aware planner prices it
//! (`costmodel::fnl`'s overlay-rescoring term): tombstoned base documents
//! are masked at probe time via [`JoinSpec::inner_doc_allowed`], and the
//! overlay's live delta documents are re-read each pass and scored raw
//! against a term-keyed view of the same batch — they never have
//! signatures, so rank space cannot wrongly drop their terms. Both paths
//! count CPU work by one rule: `pruned_pairs` is the allowed pairs whose
//! overlap falls below τ, and `sim_ops` counts only the pairs that
//! survive it.

use crate::nl::{self, InnerScan};
use crate::result::JoinOutcome;
use crate::spec::JoinSpec;
use textjoin_common::Result;
use textjoin_invfile::FnlIndex;

/// Tuning knobs for the filtered executor.
#[derive(Clone, Copy, Debug)]
pub struct FnlOptions {
    /// Minimum number of common terms a pair must reach to be scored.
    /// The registered default is 1 — the largest threshold at which the
    /// filter is lossless with respect to HHNL's nonzero-score pairs.
    pub min_overlap: u64,
}

impl Default for FnlOptions {
    fn default() -> Self {
        Self { min_overlap: 1 }
    }
}

/// Executes the join with FNL at the registered threshold (τ = 1).
pub fn execute(spec: &JoinSpec<'_>, index: &FnlIndex) -> Result<JoinOutcome> {
    execute_with(spec, index, FnlOptions::default())
}

/// [`execute`] with explicit options: the nested-loop engine
/// ([`crate::nl`]) over the signature file, as a batch of one.
pub fn execute_with(
    spec: &JoinSpec<'_>,
    index: &FnlIndex,
    opts: FnlOptions,
) -> Result<JoinOutcome> {
    let min_overlap = opts.min_overlap;
    nl::run_one(spec, InnerScan::Signatures { index, min_overlap })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reference::naive_join;
    use crate::result::JoinResult;
    use crate::spec::OuterDocs;
    use std::sync::Arc;
    use textjoin_collection::Document;
    use textjoin_collection::{Collection, SynthSpec};
    use textjoin_common::{CollectionStats, QueryParams, SystemParams};
    use textjoin_common::{DocId, Error};
    use textjoin_costmodel::Algorithm;
    use textjoin_storage::DiskSim;

    #[allow(clippy::type_complexity)]
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
        FnlIndex,
        Vec<Document>,
        Vec<Document>,
    ) {
        let disk = Arc::new(DiskSim::new(page));
        let d1 = SynthSpec::from_stats(CollectionStats::new(n1, k, vocab), 11).generate_docs();
        let d2 = SynthSpec::from_stats(CollectionStats::new(n2, k, vocab), 22).generate_docs();
        let c1 = Collection::build(Arc::clone(&disk), "c1", d1.clone()).unwrap();
        let c2 = Collection::build(Arc::clone(&disk), "c2", d2.clone()).unwrap();
        let index = FnlIndex::build(Arc::clone(&disk), "c1", &c1).unwrap();
        (disk, c1, c2, index, d1, d2)
    }

    #[test]
    fn matches_hhnl_and_reference_at_the_registered_threshold() {
        let (_, c1, c2, index, d1, d2) = fixture(30, 20, 10.0, 80, 256);
        let spec = JoinSpec::new(&c1, &c2)
            .with_sys(SystemParams::paper_base().with_buffer_pages(100))
            .with_query(QueryParams::paper_base().with_lambda(5));
        let got = execute(&spec, &index).unwrap();
        let hhnl = crate::hhnl::execute(&spec).unwrap();
        assert_eq!(got.result, hhnl.result);
        let want = naive_join(&d1, &d2, OuterDocs::Full, 5, crate::Weighting::RawCount);
        assert_eq!(got.result, want);
        assert_eq!(got.stats.algorithm, Algorithm::Fnl);
    }

    #[test]
    fn reads_fewer_pages_per_pass_than_hhnl() {
        let (disk, c1, c2, index, _, _) = fixture(60, 30, 12.0, 120, 256);
        let spec = JoinSpec::new(&c1, &c2)
            .with_sys(SystemParams {
                buffer_pages: 60,
                page_size: 256,
                alpha: 5.0,
            })
            .with_query(QueryParams::paper_base().with_lambda(3));
        disk.reset_stats();
        let hhnl = crate::hhnl::execute(&spec).unwrap();
        disk.reset_stats();
        let fnl = execute(&spec, &index).unwrap();
        assert_eq!(fnl.result, hhnl.result);
        // Same batching geometry would give the same pass count; FNL's
        // batches are slightly smaller (rank cells are charged), so allow
        // equal-or-more passes but demand strictly fewer pages overall.
        assert!(
            fnl.stats.io.total_reads() < hhnl.stats.io.total_reads(),
            "fnl {} pages vs hhnl {}",
            fnl.stats.io.total_reads(),
            hhnl.stats.io.total_reads()
        );
    }

    #[test]
    fn tight_memory_forces_multiple_passes_same_result() {
        let (_, c1, c2, index, d1, d2) = fixture(25, 40, 12.0, 100, 128);
        let spec = JoinSpec::new(&c1, &c2)
            .with_sys(SystemParams {
                buffer_pages: 6,
                page_size: 128,
                alpha: 5.0,
            })
            .with_query(QueryParams::paper_base().with_lambda(3));
        let got = execute(&spec, &index).unwrap();
        assert!(got.stats.passes > 1, "tight memory must force batching");
        let want = naive_join(&d1, &d2, OuterDocs::Full, 3, crate::Weighting::RawCount);
        assert_eq!(got.result, want);
        assert!(got.stats.mem_high_water_bytes <= spec.sys.buffer_bytes());
    }

    #[test]
    fn cosine_and_tfidf_match_hhnl_within_tolerance() {
        // Rank-order accumulation reassociates the float sums, so the
        // fractional weightings agree to a tolerance, not bit-for-bit.
        let (_, c1, c2, index, _, _) = fixture(20, 15, 8.0, 60, 256);
        for weighting in [crate::Weighting::Cosine, crate::Weighting::TfIdf] {
            let spec = JoinSpec::new(&c1, &c2)
                .with_weighting(weighting)
                .with_query(QueryParams::paper_base().with_lambda(5));
            let got = execute(&spec, &index).unwrap();
            let hhnl = crate::hhnl::execute(&spec).unwrap();
            assert!(got.result.approx_eq(&hhnl.result, 1e-9), "{weighting:?}");
        }
    }

    #[test]
    fn higher_threshold_drops_pairs_below_it() {
        let (_, c1, c2, index, d1, d2) = fixture(25, 15, 10.0, 70, 256);
        let spec = JoinSpec::new(&c1, &c2).with_query(QueryParams::paper_base().with_lambda(8));
        let got = execute_with(&spec, &index, FnlOptions { min_overlap: 3 }).unwrap();
        // Every emitted match shares at least 3 terms with its outer doc;
        // the reference's matches below the threshold are gone.
        for (outer_id, matches) in got.result.iter() {
            let outer = &d2[outer_id.raw() as usize];
            for m in matches {
                let inner = &d1[m.inner.raw() as usize];
                let common = inner
                    .cells()
                    .iter()
                    .filter(|c| outer.cells().iter().any(|o| o.term == c.term))
                    .count();
                assert!(common >= 3, "pair ({}, {outer_id:?})", m.inner.raw());
            }
        }
        let unfiltered = execute(&spec, &index).unwrap();
        let total = |r: &JoinResult| r.iter().map(|(_, m)| m.len()).sum::<usize>();
        assert!(total(&got.result) <= total(&unfiltered.result));
    }

    #[test]
    fn prunes_pairs_without_full_merges() {
        let (_, c1, c2, index, _, _) = fixture(40, 25, 8.0, 300, 256);
        let tracer = textjoin_obs::Tracer::enabled(256);
        let spec = JoinSpec::new(&c1, &c2)
            .with_query(QueryParams::paper_base().with_lambda(3))
            .with_trace(&tracer);
        let got = execute_with(&spec, &index, FnlOptions { min_overlap: 2 }).unwrap();
        let spans = tracer.finished();
        let root = spans.iter().find(|s| s.name == "fnl").expect("root span");
        let pruned = root
            .fields
            .iter()
            .find(|(k, _)| *k == "pruned_pairs")
            .map(|(_, v)| *v)
            .unwrap();
        assert!(pruned > 0, "a sparse vocabulary must trip the filter");
        assert!(got.stats.cells_touched > 0);
    }

    #[test]
    fn signature_and_overlay_paths_count_cpu_by_one_rule() {
        // τ = 2 over a base with one tombstone plus six overlay documents:
        // both the signature scan and the overlay rescore must count
        // `pruned_pairs` as the allowed pairs below τ and `sim_ops` as the
        // matched terms of the pairs at or above it.
        let (_, c1, c2, index, d1, d2) = fixture(25, 15, 10.0, 70, 256);
        let mut overlay = textjoin_invfile::DeltaOverlay::new();
        let extra = SynthSpec::from_stats(CollectionStats::new(6, 10.0, 70), 99).generate_docs();
        for (k, doc) in extra.iter().enumerate() {
            overlay.insert_tail(DocId::new(25 + k as u32), doc.clone());
        }
        overlay.delete(DocId::new(0));
        let tracer = textjoin_obs::Tracer::enabled(256);
        let spec = JoinSpec::new(&c1, &c2)
            .with_inner_delta(&overlay)
            .with_query(QueryParams::paper_base().with_lambda(4))
            .with_trace(&tracer);
        let got = execute_with(&spec, &index, FnlOptions { min_overlap: 2 }).unwrap();

        let inner: Vec<&Document> = d1.iter().skip(1).chain(&extra).collect();
        let (mut pruned, mut sim_ops) = (0u64, 0u64);
        for outer in &d2 {
            for doc in &inner {
                let overlap = doc
                    .cells()
                    .iter()
                    .filter(|c| outer.weight_of(c.term) > 0)
                    .count() as u64;
                if overlap < 2 {
                    pruned += 1;
                } else {
                    sim_ops += overlap;
                }
            }
        }
        let root = tracer
            .finished()
            .into_iter()
            .find(|s| s.name == "fnl")
            .expect("root span");
        assert!(root.fields.contains(&("pruned_pairs", pruned)));
        assert_eq!(got.stats.sim_ops, sim_ops);
        assert!(
            pruned > 0 && sim_ops > 0,
            "the fixture exercises both sides"
        );
    }

    #[test]
    fn selection_and_self_exclusion_match_hhnl() {
        let (_, c1, c2, index, _, _) = fixture(20, 30, 10.0, 80, 256);
        let chosen = [DocId::new(3), DocId::new(17), DocId::new(29)];
        let inner_keep: Vec<DocId> = (0..20).step_by(2).map(DocId::new).collect();
        let spec = JoinSpec::new(&c1, &c2)
            .with_outer_docs(OuterDocs::Selected(&chosen))
            .with_inner_docs(&inner_keep)
            .with_query(QueryParams::paper_base().with_lambda(4));
        let got = execute(&spec, &index).unwrap();
        let hhnl = crate::hhnl::execute(&spec).unwrap();
        assert_eq!(got.result, hhnl.result);
    }

    #[test]
    fn impossible_budget_is_an_error() {
        let (_, c1, c2, index, _, _) = fixture(10, 10, 50.0, 100, 64);
        let spec = JoinSpec::new(&c1, &c2).with_sys(SystemParams {
            buffer_pages: 1,
            page_size: 64,
            alpha: 5.0,
        });
        assert!(matches!(
            execute(&spec, &index),
            Err(Error::InsufficientMemory { .. })
        ));
    }

    #[test]
    fn cost_budget_overrun_aborts() {
        let (_, c1, c2, index, _, _) = fixture(30, 20, 10.0, 80, 256);
        let spec = JoinSpec::new(&c1, &c2).with_cost_budget(0.5);
        assert!(matches!(
            execute(&spec, &index),
            Err(Error::CostOverrun { .. })
        ));
        assert!(execute(&spec.without_cost_budget(), &index).is_ok());
    }

    #[test]
    fn attached_tracer_captures_phase_spans() {
        let (_, c1, c2, index, _, _) = fixture(25, 40, 12.0, 100, 128);
        let tracer = textjoin_obs::Tracer::enabled(256);
        let spec = JoinSpec::new(&c1, &c2)
            .with_sys(SystemParams {
                buffer_pages: 8,
                page_size: 128,
                alpha: 5.0,
            })
            .with_query(QueryParams::paper_base().with_lambda(3))
            .with_trace(&tracer);
        let got = execute(&spec, &index).unwrap();
        let spans = tracer.finished();
        assert!(spans.iter().any(|s| s.name == "fnl.term_order"));
        let scans = spans.iter().filter(|s| s.name == "fnl.sig_scan");
        assert_eq!(scans.count() as u64, got.stats.passes);
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
        let index = FnlIndex::build(Arc::clone(&disk), "c1", &c1).unwrap();
        let got = execute(&JoinSpec::new(&c1, &c2), &index).unwrap();
        assert_eq!(got.result.num_outer_docs(), 0);
        assert_eq!(got.stats.passes, 0);
    }
}
