//! Batched multi-query execution with shared scans.
//!
//! When several `SIMILAR_TO(λ)` queries target the same collection pair
//! `(C1, C2)`, running them back to back repeats the expensive shared
//! structure reads: HHNL rescans the inner collection per query, HVNL
//! reloads the dictionary and refetches overlapping entries, VVM rescans
//! both inverted files. Every algorithm has one engine that takes `N ≥ 1`
//! queries and does those reads once for the whole batch; a sequential
//! run is the same engine with `N = 1`:
//!
//! * **HHNL** and **FNL** run the nested-loop engine ([`crate::nl`]): it
//!   concatenates the queries' outer streams and fills memory rounds
//!   across query boundaries, so the inner collection (or the signature
//!   file) is scanned `⌈Σᵢ N2ᵢ/Xᵢ⌉` times for the whole batch
//!   (`costmodel::hhs_batch`) instead of `Σᵢ ⌈N2ᵢ/Xᵢ⌉` times.
//! * **HVNL** runs the HVNL engine ([`crate::hvnl`]): it reads each outer
//!   document once and processes it for every query that selects it
//!   against a *single shared entry cache* — an entry fetched for one
//!   query is a cache hit for the rest.
//! * **VVM** runs the VVM engine ([`crate::vvm`]): each pooled pass scans
//!   both inverted files once and fills one accumulator table per query,
//!   emitting per-query result sets.
//!
//! This module holds what the engines share: the batch invariants
//! (`validate`), per-query accumulation (`QueryAcc`), checkpoints
//! (`BatchProgress`) and the outcome assembly (`finish`).
//!
//! Results are exactly what sequential execution produces: each query's
//! [`JoinOutcome`] in [`BatchOutcome::queries`] carries the same
//! [`JoinResult`] as running that query alone, under every weighting —
//! each query's pairs are summed in the same order whatever shares the
//! scan. Batch-level I/O lives in [`BatchOutcome::stats`]; per-query
//! stats carry the CPU-side counters attributable to that query (shared
//! I/O cannot be split honestly, so it is reported once, amortized by the
//! caller).
//!
//! All specs in a batch must share the collection pair, the system
//! parameters and the degraded flag; per-query λ, weighting, outer
//! selection and inner filters are free.

use crate::hvnl::{self, HvnlOptions};
use crate::kernel::ProbeCounts;
use crate::nl::{self, InnerScan};
use crate::result::{ExecStats, JoinOutcome, JoinResult, Match, ResultQuality};
use crate::spec::{Checkpoint, JoinSpec};
use crate::vvm;
use std::time::Instant;
use textjoin_common::{DocId, Error, Result};
use textjoin_costmodel::Algorithm;
use textjoin_invfile::{FnlIndex, InvertedFile};
use textjoin_storage::IoStats;

/// The outcome of one batched execution: one [`JoinOutcome`] per input
/// spec (same order) plus the batch-level statistics.
#[derive(Debug)]
pub struct BatchOutcome {
    /// Per-query outcomes, parallel to the input specs. Each query's
    /// `stats` holds only the counters attributable to that query alone
    /// (similarity ops, cells, skips, participation passes); its `io` is
    /// zero because the scans are shared.
    pub queries: Vec<JoinOutcome>,
    /// Batch-level statistics: all I/O, the summed CPU counters, the peak
    /// memory of the shared tracker and the pooled pass count.
    pub stats: ExecStats,
}

impl BatchOutcome {
    /// A batch of one as a sequential run reports it: the query's rows
    /// and quality with the run's full statistics.
    pub(crate) fn into_single(self) -> JoinOutcome {
        let [query]: [JoinOutcome; 1] = self.queries.try_into().expect("a batch of one");
        JoinOutcome {
            stats: self.stats,
            ..query
        }
    }
}

/// Checks the batch invariants: non-empty, one collection pair, one set of
/// system parameters, one degraded flag, one delta overlay per side. The
/// shared scans serve every query from the same base+delta view, so a
/// query with a different overlay would see phantom or missing documents.
pub(crate) fn validate(specs: &[JoinSpec<'_>]) -> Result<()> {
    fn same_delta(
        a: Option<&textjoin_invfile::DeltaOverlay>,
        b: Option<&textjoin_invfile::DeltaOverlay>,
    ) -> bool {
        match (a, b) {
            (None, None) => true,
            (Some(x), Some(y)) => std::ptr::eq(x, y),
            _ => false,
        }
    }
    let first = specs
        .first()
        .ok_or_else(|| Error::InvalidArgument("batch is empty".into()))?;
    for (i, s) in specs.iter().enumerate().skip(1) {
        if !std::ptr::eq(s.inner, first.inner) || !std::ptr::eq(s.outer, first.outer) {
            return Err(Error::InvalidArgument(format!(
                "batch query {i} targets a different collection pair"
            )));
        }
        if s.sys != first.sys {
            return Err(Error::InvalidArgument(format!(
                "batch query {i} has different system parameters"
            )));
        }
        if s.degraded != first.degraded {
            return Err(Error::InvalidArgument(format!(
                "batch query {i} has a different degraded flag"
            )));
        }
        if !same_delta(s.inner_delta, first.inner_delta)
            || !same_delta(s.outer_delta, first.outer_delta)
        {
            return Err(Error::InvalidArgument(format!(
                "batch query {i} has a different delta overlay"
            )));
        }
    }
    Ok(())
}

/// Per-query accumulation while the batch runs.
#[derive(Default)]
pub(crate) struct QueryAcc {
    pub(crate) rows: Vec<(DocId, Vec<Match>)>,
    /// Rounds / pooled passes this query participated in.
    pub(crate) passes: u64,
    pub(crate) entry_fetches: u64,
    pub(crate) cache_hits: u64,
    pub(crate) sim_ops: u64,
    pub(crate) cells_touched: u64,
    pub(crate) skipped_docs: u64,
    pub(crate) skipped_entries: u64,
}

impl QueryAcc {
    /// Adds one kernel probe's work.
    pub(crate) fn add(&mut self, counts: ProbeCounts) {
        self.sim_ops += counts.sim_ops;
        self.cells_touched += counts.cells_touched;
    }
}

/// Per-batch cooperative progress: at the batch's natural checkpoints it
/// feeds the live tickets, latches each spec's cancel token and runs each
/// live spec's cost-budget watchdog. A cancel is per query — the latched
/// query stops consuming shared passes while its siblings keep running,
/// results untouched (each sibling's scores depend only on its own
/// (query, document) pairs, never on what else shares the scan). A
/// budget overrun aborts the whole batch with `CostOverrun`, as it aborts
/// a sequential run.
///
/// Ticket pages come from the thread-local I/O tally ([`Checkpoint`]), so
/// a batch of one inside a parallel worker reports only its own worker's
/// pages. Shared-scan I/O cannot be attributed to one query honestly, so
/// each checkpoint splits the delta equally across the queries that are
/// still live — the tickets' sum tracks the real batch cost and each
/// query's progress bar still moves.
pub(crate) struct BatchProgress {
    pub(crate) cancelled: Vec<bool>,
    tally: Checkpoint,
    /// Whether any spec carries a token, ticket or budget; when not,
    /// `observe` is a single branch.
    armed: bool,
}

impl BatchProgress {
    /// Must be created on the thread that performs the batch's I/O,
    /// before any of it happens.
    pub(crate) fn new(specs: &[JoinSpec<'_>]) -> Self {
        Self {
            cancelled: vec![false; specs.len()],
            tally: Checkpoint::new(),
            armed: specs
                .iter()
                .any(|s| s.cancel.is_some() || s.ticket.is_some() || s.cost_budget.is_some()),
        }
    }

    /// One checkpoint: feed tickets, latch freshly-set tokens, then check
    /// the budgets of the queries still live against `cost`, the batch's
    /// running page cost on the shared disk. Returns `true` when every
    /// query in the batch is cancelled — the caller stops the shared scan
    /// entirely.
    pub(crate) fn observe(
        &mut self,
        specs: &[JoinSpec<'_>],
        cost: f64,
        phase: impl Fn() -> String,
    ) -> Result<bool> {
        if !self.armed {
            return Ok(false);
        }
        let live = self.cancelled.iter().filter(|c| !**c).count().max(1) as f64;
        let share = self.tally.take_pages(specs[0].sys.alpha) / live;
        for (i, spec) in specs.iter().enumerate() {
            if self.cancelled[i] {
                continue;
            }
            if let Some(ticket) = spec.ticket {
                ticket.add_pages(share);
                ticket.set_phase(phase());
            }
            if spec.cancel.is_some_and(|c| c.is_cancelled()) {
                self.cancelled[i] = true;
            } else {
                spec.check_cost_budget(cost)?;
            }
        }
        Ok(self.cancelled.iter().all(|&c| c))
    }
}

/// Assembles the [`BatchOutcome`]: batch stats carry the real I/O and the
/// summed CPU counters; per-query stats carry each query's own counters
/// with zero I/O. A skip on a *shared* structure (inner scan page,
/// inverted entry) degrades every query — they all read through it. A
/// cancelled query's rows are the prefix it accumulated before its token
/// was latched, tagged `Partial`.
#[allow(clippy::too_many_arguments)]
pub(crate) fn finish(
    algorithm: Algorithm,
    alpha: f64,
    accs: Vec<QueryAcc>,
    cancelled: &[bool],
    io: IoStats,
    passes: u64,
    mem_high_water_bytes: u64,
    shared_skipped_docs: u64,
    shared_skipped_entries: u64,
    started: Instant,
) -> BatchOutcome {
    let wall_ns = started.elapsed().as_nanos() as u64;
    let mut batch_stats = ExecStats {
        algorithm,
        io,
        cost: io.cost(alpha),
        mem_high_water_bytes,
        passes,
        entry_fetches: 0,
        cache_hits: 0,
        sim_ops: 0,
        cells_touched: 0,
        skipped_docs: shared_skipped_docs,
        skipped_entries: shared_skipped_entries,
        wall_ns,
        ..ExecStats::zero(algorithm)
    };
    for a in &accs {
        batch_stats.entry_fetches += a.entry_fetches;
        batch_stats.cache_hits += a.cache_hits;
        batch_stats.sim_ops += a.sim_ops;
        batch_stats.cells_touched += a.cells_touched;
        batch_stats.skipped_docs += a.skipped_docs;
        batch_stats.skipped_entries += a.skipped_entries;
    }
    let shared_partial = shared_skipped_docs + shared_skipped_entries > 0;
    let queries = accs
        .into_iter()
        .zip(cancelled)
        .map(|(a, &was_cancelled)| {
            let stats = ExecStats {
                passes: a.passes,
                entry_fetches: a.entry_fetches,
                cache_hits: a.cache_hits,
                sim_ops: a.sim_ops,
                cells_touched: a.cells_touched,
                skipped_docs: a.skipped_docs,
                skipped_entries: a.skipped_entries,
                wall_ns,
                ..ExecStats::zero(algorithm)
            };
            let quality = if was_cancelled || shared_partial {
                ResultQuality::Partial
            } else {
                stats.quality()
            };
            JoinOutcome {
                result: JoinResult::from_rows(a.rows),
                stats,
                quality,
            }
        })
        .collect();
    BatchOutcome {
        queries,
        stats: batch_stats,
    }
}

/// Batched HHNL: memory rounds filled across query boundaries, one
/// shared inner-collection scan per round (the nested-loop engine,
/// [`crate::nl`], over the document store).
pub fn execute_hhnl(specs: &[JoinSpec<'_>]) -> Result<BatchOutcome> {
    nl::run(specs, InnerScan::Store)
}

/// Batched FNL: the HHNL pooling applied to the signature index, with the
/// term-ordering sidecar loaded once for the whole batch
/// (`costmodel::fns_batch`'s shared-sidecar saving). Every query runs at
/// the registered threshold τ = 1, so each result is byte-identical to
/// its sequential FNL run.
pub fn execute_fnl(specs: &[JoinSpec<'_>], index: &FnlIndex) -> Result<BatchOutcome> {
    nl::run(
        specs,
        InnerScan::Signatures {
            index,
            min_overlap: 1,
        },
    )
}

/// Batched HVNL: one outer pass, every query served from one shared entry
/// cache (the HVNL engine, [`crate::hvnl`], under the paper's options).
/// The dictionary is loaded once (`Bt1` paid once — the
/// `costmodel::hvs_batch` saving); an entry fetched for one query is a
/// cache hit for every other query that needs the same term.
pub fn execute_hvnl(specs: &[JoinSpec<'_>], inner_inv: &InvertedFile) -> Result<BatchOutcome> {
    hvnl::run(specs, inner_inv, HvnlOptions::default())
}

/// Batched VVM: all queries' accumulators share the similarity budget of
/// one merge scan, so both inverted files are read `⌈Σᵢ SMᵢ/M⌉` times for
/// the whole batch (`costmodel::vvs_batch`; the VVM engine,
/// [`crate::vvm`]).
pub fn execute_vvm(
    specs: &[JoinSpec<'_>],
    inner_inv: &InvertedFile,
    outer_inv: &InvertedFile,
) -> Result<BatchOutcome> {
    vvm::run(specs, inner_inv, outer_inv)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hvnl::{EvictionPolicy, OuterOrder};
    use crate::spec::OuterDocs;
    use crate::Weighting;
    use std::sync::Arc;
    use textjoin_collection::{Collection, SynthSpec};
    use textjoin_common::{CollectionStats, QueryParams, SystemParams};
    use textjoin_storage::{DiskSim, FaultKind, FaultPlan};

    struct Fixture {
        disk: Arc<DiskSim>,
        c1: Collection,
        c2: Collection,
        inv1: InvertedFile,
        inv2: InvertedFile,
    }

    fn fixture(n1: u64, n2: u64, k: f64, vocab: u64, page: usize, seed: u64) -> Fixture {
        let disk = Arc::new(DiskSim::new(page));
        let d1 = SynthSpec::from_stats(CollectionStats::new(n1, k, vocab), seed).generate_docs();
        let d2 =
            SynthSpec::from_stats(CollectionStats::new(n2, k, vocab), seed + 1).generate_docs();
        let c1 = Collection::build(Arc::clone(&disk), "c1", d1).unwrap();
        let c2 = Collection::build(Arc::clone(&disk), "c2", d2).unwrap();
        let inv1 = InvertedFile::build(Arc::clone(&disk), "c1", &c1).unwrap();
        let inv2 = InvertedFile::build(Arc::clone(&disk), "c2", &c2).unwrap();
        Fixture {
            disk,
            c1,
            c2,
            inv1,
            inv2,
        }
    }

    fn sys(buffer_pages: u64, page_size: usize) -> SystemParams {
        SystemParams {
            buffer_pages,
            page_size,
            alpha: 5.0,
        }
    }

    /// Runs the same specs sequentially with each algorithm's own executor.
    fn sequential_hhnl(specs: &[JoinSpec<'_>]) -> Vec<JoinOutcome> {
        specs
            .iter()
            .map(|s| crate::hhnl::execute(s).unwrap())
            .collect()
    }
    fn sequential_hvnl(specs: &[JoinSpec<'_>], inv: &InvertedFile) -> Vec<JoinOutcome> {
        specs
            .iter()
            .map(|s| crate::hvnl::execute(s, inv).unwrap())
            .collect()
    }
    fn sequential_vvm(
        specs: &[JoinSpec<'_>],
        inv1: &InvertedFile,
        inv2: &InvertedFile,
    ) -> Vec<JoinOutcome> {
        specs
            .iter()
            .map(|s| crate::vvm::execute(s, inv1, inv2).unwrap())
            .collect()
    }

    #[test]
    fn empty_batch_is_rejected() {
        assert!(matches!(execute_hhnl(&[]), Err(Error::InvalidArgument(_))));
    }

    #[test]
    fn mismatched_collections_are_rejected() {
        let f = fixture(10, 8, 8.0, 40, 256, 7);
        let g = fixture(10, 8, 8.0, 40, 256, 9);
        let specs = [JoinSpec::new(&f.c1, &f.c2), JoinSpec::new(&g.c1, &g.c2)];
        assert!(matches!(
            execute_hhnl(&specs),
            Err(Error::InvalidArgument(_))
        ));
    }

    #[test]
    fn mismatched_sys_or_degraded_are_rejected() {
        let f = fixture(10, 8, 8.0, 40, 256, 7);
        let base = JoinSpec::new(&f.c1, &f.c2);
        let other_sys = [base, base.with_sys(sys(999, 256))];
        assert!(matches!(
            execute_hhnl(&other_sys),
            Err(Error::InvalidArgument(_))
        ));
        let mixed_degraded = [base, base.with_degraded()];
        assert!(matches!(
            execute_hvnl(&mixed_degraded, &f.inv1),
            Err(Error::InvalidArgument(_))
        ));
    }

    #[test]
    fn hhnl_batch_matches_sequential_and_shares_the_inner_scan() {
        let f = fixture(40, 25, 10.0, 80, 256, 101);
        let base = JoinSpec::new(&f.c1, &f.c2).with_sys(sys(400, 256));
        let specs: Vec<JoinSpec<'_>> = [2usize, 5, 9, 5]
            .iter()
            .map(|&l| base.with_query(QueryParams::paper_base().with_lambda(l)))
            .collect();

        f.disk.reset_stats();
        let seq = sequential_hhnl(&specs);
        let seq_reads: u64 = seq.iter().map(|o| o.stats.io.total_reads()).sum();

        f.disk.reset_stats();
        let batch = execute_hhnl(&specs).unwrap();
        assert_eq!(batch.queries.len(), specs.len());
        for (b, s) in batch.queries.iter().zip(&seq) {
            assert_eq!(b.result, s.result);
            assert_eq!(b.stats.sim_ops, s.stats.sim_ops);
            assert_eq!(b.quality, ResultQuality::Full);
        }
        // The batch shares inner scans: strictly fewer reads than 4
        // sequential runs, but at least one full outer + inner pass.
        assert!(
            batch.stats.io.total_reads() < seq_reads,
            "batch {} vs sequential {seq_reads}",
            batch.stats.io.total_reads()
        );
        assert!(batch.stats.mem_high_water_bytes <= specs[0].sys.buffer_bytes());
    }

    #[test]
    fn hhnl_batch_pools_rounds_across_query_boundaries() {
        // Tight memory: each query alone needs several passes; the batch's
        // pooled rounds must not exceed the sum of per-query passes.
        let f = fixture(30, 20, 10.0, 60, 128, 55);
        let base = JoinSpec::new(&f.c1, &f.c2)
            .with_sys(sys(6, 128))
            .with_query(QueryParams::paper_base().with_lambda(3));
        let specs = vec![base; 3];
        let seq = sequential_hhnl(&specs);
        let batch = execute_hhnl(&specs).unwrap();
        for (b, s) in batch.queries.iter().zip(&seq) {
            assert_eq!(b.result, s.result);
        }
        let seq_passes: u64 = seq.iter().map(|o| o.stats.passes).sum();
        assert!(batch.stats.passes <= seq_passes);
        assert!(batch.stats.passes >= seq.iter().map(|o| o.stats.passes).max().unwrap());
    }

    #[test]
    fn fnl_batch_matches_sequential_and_shares_the_signature_scan() {
        let f = fixture(40, 25, 10.0, 80, 256, 101);
        let index = FnlIndex::build(Arc::clone(&f.disk), "c1", &f.c1).unwrap();
        let base = JoinSpec::new(&f.c1, &f.c2).with_sys(sys(400, 256));
        let specs: Vec<JoinSpec<'_>> = [2usize, 5, 9, 5]
            .iter()
            .map(|&l| base.with_query(QueryParams::paper_base().with_lambda(l)))
            .collect();

        f.disk.reset_stats();
        let seq: Vec<JoinOutcome> = specs
            .iter()
            .map(|s| crate::fnl::execute(s, &index).unwrap())
            .collect();
        let seq_reads: u64 = seq.iter().map(|o| o.stats.io.total_reads()).sum();

        f.disk.reset_stats();
        let batch = execute_fnl(&specs, &index).unwrap();
        assert_eq!(batch.queries.len(), specs.len());
        for (b, s) in batch.queries.iter().zip(&seq) {
            assert_eq!(b.result, s.result);
            assert_eq!(b.stats.sim_ops, s.stats.sim_ops);
            assert_eq!(b.quality, ResultQuality::Full);
        }
        // Shared signature scans plus a once-loaded sidecar: strictly
        // fewer reads than 4 sequential runs.
        assert!(
            batch.stats.io.total_reads() < seq_reads,
            "batch {} vs sequential {seq_reads}",
            batch.stats.io.total_reads()
        );
        assert!(batch.stats.mem_high_water_bytes <= specs[0].sys.buffer_bytes());
        // And the pooled rounds stay byte-identical to batched HHNL.
        let hhnl = execute_hhnl(&specs).unwrap();
        for (b, h) in batch.queries.iter().zip(&hhnl.queries) {
            assert_eq!(b.result, h.result);
        }
    }

    #[test]
    fn hvnl_batch_matches_sequential_with_fewer_fetches() {
        let f = fixture(35, 20, 10.0, 70, 256, 77);
        let base = JoinSpec::new(&f.c1, &f.c2).with_sys(sys(1_000, 256));
        let specs: Vec<JoinSpec<'_>> = [3usize, 6, 3]
            .iter()
            .map(|&l| base.with_query(QueryParams::paper_base().with_lambda(l)))
            .collect();

        for options in [
            HvnlOptions::default(),
            HvnlOptions {
                eviction: EvictionPolicy::Lru,
                ..HvnlOptions::default()
            },
            HvnlOptions {
                order: OuterOrder::GreedyIntersection,
                ..HvnlOptions::default()
            },
        ] {
            f.disk.reset_stats();
            let seq: Vec<JoinOutcome> = specs
                .iter()
                .map(|s| crate::hvnl::execute_with(s, &f.inv1, options).unwrap())
                .collect();
            let seq_reads: u64 = seq.iter().map(|o| o.stats.io.total_reads()).sum();
            let seq_fetches: u64 = seq.iter().map(|o| o.stats.entry_fetches).sum();

            f.disk.reset_stats();
            let batch = hvnl::run(&specs, &f.inv1, options).unwrap();
            for (b, s) in batch.queries.iter().zip(&seq) {
                assert_eq!(b.result, s.result, "{options:?}");
            }
            // The shared cache and the once-loaded dictionary: strictly
            // fewer reads than three sequential runs, and never more entry
            // fetches (an entry fetched for one query serves the rest).
            assert!(
                batch.stats.io.total_reads() < seq_reads,
                "{options:?}: batch {} vs sequential {seq_reads}",
                batch.stats.io.total_reads()
            );
            assert!(batch.stats.entry_fetches <= seq_fetches);
        }
    }

    #[test]
    fn vvm_batch_matches_sequential_with_fewer_scans() {
        let f = fixture(30, 25, 10.0, 60, 256, 31);
        let base = JoinSpec::new(&f.c1, &f.c2).with_sys(sys(10_000, 256));
        let specs: Vec<JoinSpec<'_>> = [2usize, 7, 4]
            .iter()
            .map(|&l| base.with_query(QueryParams::paper_base().with_lambda(l)))
            .collect();

        f.disk.reset_stats();
        let seq = sequential_vvm(&specs, &f.inv1, &f.inv2);
        let seq_reads: u64 = seq.iter().map(|o| o.stats.io.total_reads()).sum();

        f.disk.reset_stats();
        let batch = execute_vvm(&specs, &f.inv1, &f.inv2).unwrap();
        for (b, s) in batch.queries.iter().zip(&seq) {
            assert_eq!(b.result, s.result);
            assert_eq!(b.stats.sim_ops, s.stats.sim_ops);
        }
        // Roomy memory: one folded merge scan serves all three queries.
        assert_eq!(batch.stats.passes, 1);
        assert!(batch.stats.io.total_reads() < seq_reads);
    }

    #[test]
    fn vvm_batch_partitions_under_tight_memory_and_stays_correct() {
        let f = fixture(40, 30, 10.0, 50, 128, 13);
        let base = JoinSpec::new(&f.c1, &f.c2)
            .with_sys(sys(12, 128))
            .with_query(QueryParams::paper_base().with_lambda(4));
        let specs = vec![base; 3];
        let seq = sequential_vvm(&specs, &f.inv1, &f.inv2);
        let batch = execute_vvm(&specs, &f.inv1, &f.inv2).unwrap();
        for (b, s) in batch.queries.iter().zip(&seq) {
            assert_eq!(b.result, s.result);
        }
        assert!(batch.stats.passes > 1, "tight memory must partition");
        assert!(batch.stats.mem_high_water_bytes <= specs[0].sys.buffer_bytes());
    }

    #[test]
    fn selected_outers_and_inner_filters_match_sequential() {
        let f = fixture(30, 25, 10.0, 60, 256, 211);
        let chosen_a = [DocId::new(1), DocId::new(7), DocId::new(19)];
        let chosen_b = [DocId::new(0), DocId::new(7), DocId::new(12), DocId::new(24)];
        let inner_keep: Vec<DocId> = (0..30).step_by(2).map(DocId::new).collect();
        let base = JoinSpec::new(&f.c1, &f.c2).with_sys(sys(2_000, 256));
        let specs = [
            base.with_outer_docs(OuterDocs::Selected(&chosen_a))
                .with_query(QueryParams::paper_base().with_lambda(2)),
            base.with_outer_docs(OuterDocs::Selected(&chosen_b))
                .with_inner_docs(&inner_keep)
                .with_query(QueryParams::paper_base().with_lambda(6)),
            base.with_query(QueryParams::paper_base().with_lambda(4)),
        ];

        let batch_hh = execute_hhnl(&specs).unwrap();
        let batch_hv = execute_hvnl(&specs, &f.inv1).unwrap();
        let batch_vv = execute_vvm(&specs, &f.inv1, &f.inv2).unwrap();
        for (i, spec) in specs.iter().enumerate() {
            let hh = crate::hhnl::execute(spec).unwrap();
            let hv = crate::hvnl::execute(spec, &f.inv1).unwrap();
            let vv = crate::vvm::execute(spec, &f.inv1, &f.inv2).unwrap();
            assert_eq!(batch_hh.queries[i].result, hh.result, "hhnl query {i}");
            assert_eq!(batch_hv.queries[i].result, hv.result, "hvnl query {i}");
            assert_eq!(batch_vv.queries[i].result, vv.result, "vvm query {i}");
        }
    }

    #[test]
    fn all_selected_batch_reads_only_the_union() {
        let f = fixture(20, 30, 8.0, 50, 256, 97);
        let a = [DocId::new(3), DocId::new(11)];
        let b = [DocId::new(3), DocId::new(20)];
        let base = JoinSpec::new(&f.c1, &f.c2).with_sys(sys(2_000, 256));
        let specs = [
            base.with_outer_docs(OuterDocs::Selected(&a)),
            base.with_outer_docs(OuterDocs::Selected(&b)),
        ];
        let batch = execute_hvnl(&specs, &f.inv1).unwrap();
        let seq = sequential_hvnl(&specs, &f.inv1);
        for (bo, so) in batch.queries.iter().zip(&seq) {
            assert_eq!(bo.result, so.result);
        }
    }

    #[test]
    fn single_query_batch_reduces_to_sequential_counters() {
        // N = 1: the batch engine is the sequential algorithm — identical
        // results, passes and CPU counters (the executor analogue of the
        // cost model's N = 1 reduction).
        let f = fixture(25, 18, 10.0, 60, 256, 43);
        let spec = JoinSpec::new(&f.c1, &f.c2)
            .with_sys(sys(50, 256))
            .with_query(QueryParams::paper_base().with_lambda(5));
        let specs = [spec];

        let hh_seq = crate::hhnl::execute(&spec).unwrap();
        let hh = execute_hhnl(&specs).unwrap();
        assert_eq!(hh.queries[0].result, hh_seq.result);
        assert_eq!(hh.stats.passes, hh_seq.stats.passes);
        assert_eq!(hh.stats.sim_ops, hh_seq.stats.sim_ops);

        let hv_seq = crate::hvnl::execute_with(&spec, &f.inv1, HvnlOptions::default()).unwrap();
        // BatchAggregateDf with one query IS LowestOuterDf.
        let hv = execute_hvnl(&specs, &f.inv1).unwrap();
        assert_eq!(hv.queries[0].result, hv_seq.result);
        assert_eq!(hv.stats.entry_fetches, hv_seq.stats.entry_fetches);
        assert_eq!(hv.stats.cache_hits, hv_seq.stats.cache_hits);

        let vv_seq = crate::vvm::execute(&spec, &f.inv1, &f.inv2).unwrap();
        let vv = execute_vvm(&specs, &f.inv1, &f.inv2).unwrap();
        assert_eq!(vv.queries[0].result, vv_seq.result);
        assert_eq!(vv.stats.passes, vv_seq.stats.passes);
    }

    #[test]
    fn cancelling_one_query_leaves_siblings_byte_identical() {
        use textjoin_obs::CancelToken;
        let f = fixture(30, 25, 10.0, 60, 256, 19);
        let base = JoinSpec::new(&f.c1, &f.c2).with_sys(sys(400, 256));
        let specs: Vec<JoinSpec<'_>> = [2usize, 5, 9, 4]
            .iter()
            .map(|&l| base.with_query(QueryParams::paper_base().with_lambda(l)))
            .collect();
        // A pre-set token is observed at the very first checkpoint, so the
        // cancelled query does the least possible work — the strictest
        // version of the sibling-survival guarantee.
        let token = CancelToken::new();
        token.cancel();
        let mut with_cancel = specs.clone();
        with_cancel[1] = with_cancel[1].with_cancel(&token);

        let runs: [(&str, BatchOutcome, BatchOutcome); 3] = [
            (
                "hhnl",
                execute_hhnl(&specs).unwrap(),
                execute_hhnl(&with_cancel).unwrap(),
            ),
            (
                "hvnl",
                execute_hvnl(&specs, &f.inv1).unwrap(),
                execute_hvnl(&with_cancel, &f.inv1).unwrap(),
            ),
            (
                "vvm",
                execute_vvm(&specs, &f.inv1, &f.inv2).unwrap(),
                execute_vvm(&with_cancel, &f.inv1, &f.inv2).unwrap(),
            ),
        ];
        for (name, clean, got) in &runs {
            assert_eq!(
                got.queries[1].quality,
                ResultQuality::Partial,
                "{name}: the cancelled query must be tagged Partial"
            );
            for i in [0usize, 2, 3] {
                assert_eq!(
                    got.queries[i].result, clean.queries[i].result,
                    "{name}: sibling {i} must be byte-identical to an uncancelled run"
                );
                assert_eq!(got.queries[i].quality, ResultQuality::Full, "{name} {i}");
            }
        }
    }

    #[test]
    fn a_live_specs_cost_budget_aborts_every_batch_algorithm() {
        let f = fixture(30, 25, 10.0, 60, 256, 23);
        let index = FnlIndex::build(Arc::clone(&f.disk), "c1", &f.c1).unwrap();
        let base = JoinSpec::new(&f.c1, &f.c2).with_sys(sys(400, 256));
        let run = |specs: &[JoinSpec<'_>]| {
            [
                ("hhnl", execute_hhnl(specs)),
                ("hvnl", execute_hvnl(specs, &f.inv1)),
                ("vvm", execute_vvm(specs, &f.inv1, &f.inv2)),
                ("fnl", execute_fnl(specs, &index)),
            ]
        };
        // A sub-page budget on one query of two cannot survive the
        // batch's checkpoints, just as it aborts a sequential run.
        for (name, got) in run(&[base, base.with_cost_budget(0.5)]) {
            assert!(
                matches!(got, Err(Error::CostOverrun { .. })),
                "{name}: {got:?}"
            );
        }
        // The watchdog guards live queries only: once the over-budget
        // query is cancelled, its siblings finish.
        let token = textjoin_obs::CancelToken::new();
        token.cancel();
        let cancelled = base.with_cost_budget(0.5).with_cancel(&token);
        for (name, got) in run(&[base, cancelled]) {
            let got = got.unwrap_or_else(|e| panic!("{name}: {e}"));
            assert_eq!(got.queries[0].quality, ResultQuality::Full, "{name}");
            assert_eq!(got.queries[1].quality, ResultQuality::Partial, "{name}");
        }
    }

    /// Every batch engine traces like its sequential run: one root span
    /// carrying the pass count (VVM: and the partition count) and one
    /// child span per pass — HVNL's single outer pass is its
    /// `hvnl.outer_scan`, after the `hvnl.setup` phase — whose reads fall
    /// within the batch's.
    #[test]
    fn every_batch_algorithm_traces_its_passes() {
        let f = fixture(30, 20, 10.0, 60, 128, 55);
        let index = FnlIndex::build(Arc::clone(&f.disk), "c1", &f.c1).unwrap();
        for (root_name, pass_name) in [
            ("hhnl", "hhnl.inner_scan"),
            ("fnl", "fnl.sig_scan"),
            ("hvnl", "hvnl.outer_scan"),
            ("vvm", "vvm.merge_pass"),
        ] {
            let registry = Arc::new(textjoin_obs::Registry::new());
            let tracer = textjoin_obs::Tracer::with_registry(1_024, Arc::clone(&registry));
            let base = JoinSpec::new(&f.c1, &f.c2)
                .with_sys(sys(12, 128))
                .with_query(QueryParams::paper_base().with_lambda(3))
                .with_trace(&tracer);
            let specs = vec![base; 3];
            let batch = match root_name {
                "hhnl" => execute_hhnl(&specs),
                "fnl" => execute_fnl(&specs, &index),
                "hvnl" => execute_hvnl(&specs, &f.inv1),
                _ => execute_vvm(&specs, &f.inv1, &f.inv2),
            }
            .unwrap();
            if root_name != "hvnl" {
                assert!(batch.stats.passes > 1, "{root_name}: several passes");
            }

            // VVM opens a root per partitioning attempt; the last one
            // produced the result.
            let spans = tracer.finished();
            let root = spans
                .iter()
                .rfind(|s| s.name == root_name && s.parent == 0)
                .expect("root");
            let field = |name: &str| root.fields.iter().find(|(k, _)| *k == name).map(|f| f.1);
            if root_name != "hvnl" {
                assert_eq!(field("passes"), Some(batch.stats.passes), "{root_name}");
            }
            if root_name == "vvm" {
                assert!(field("partitions").is_some_and(|p| p >= batch.stats.passes));
            }
            let children = |name: &str| -> Vec<_> {
                spans
                    .iter()
                    .filter(|s| s.name == name && s.parent == root.id)
                    .collect()
            };
            let passes = children(pass_name);
            assert_eq!(passes.len() as u64, batch.stats.passes, "{root_name}");
            if root_name == "hvnl" {
                assert_eq!(children("hvnl.setup").len(), 1);
                assert!(field("entry_fetches").is_some_and(|n| n == batch.stats.entry_fetches));
                continue;
            }
            let pass_reads: u64 = passes
                .iter()
                .flat_map(|s| &s.fields)
                .filter(|(k, _)| *k == "seq_reads" || *k == "rand_reads")
                .map(|(_, v)| v)
                .sum();
            assert!(
                pass_reads > 0 && pass_reads <= batch.stats.io.total_reads(),
                "{root_name}: passes read {pass_reads} of {}",
                batch.stats.io.total_reads()
            );
            // The shared scan reports its readahead like a sequential run.
            let label = match root_name {
                "hhnl" => "inner_scan",
                "fnl" => "fnl_sig_scan",
                _ => "inv1",
            };
            assert!(
                registry.counter("prefetch.issued", label).get() > 0,
                "{label}"
            );
        }
    }

    use proptest::prelude::*;

    /// Builds N specs with proptest-chosen λ values over one fixture.
    fn lambda_specs<'a>(base: JoinSpec<'a>, lambdas: &[usize]) -> Vec<JoinSpec<'a>> {
        lambdas
            .iter()
            .map(|&l| base.with_query(QueryParams::paper_base().with_lambda(l)))
            .collect()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(12))]

        /// The tentpole invariant: for every algorithm, executing a batch
        /// of N ∈ {1, 3, 8} queries with λ ∈ {1, 5, 20} and a weighting
        /// drawn per query from {raw count, cosine, tf-idf} — mixed within
        /// one batch — yields results byte-identical to running each query
        /// alone. Each query's sums run in the same order whatever shares
        /// its scan, so even fractional scores compare exactly.
        #[test]
        fn batch_equals_sequential_for_all_algorithms(
            n1 in 10u64..35,
            n2 in 8u64..25,
            vocab in 30u64..80,
            buffer_pages in 20u64..2_000,
            seed in 0u64..1_000,
            n_idx in 0usize..3,
            lambda_seed in 0usize..27,
            weighting_seed in 0usize..3,
        ) {
            let n = [1usize, 3, 8][n_idx];
            let lambda_pool = [1usize, 5, 20];
            let weightings = [Weighting::RawCount, Weighting::Cosine, Weighting::TfIdf];
            let f = fixture(n1, n2, 10.0, vocab, 128, seed);
            let index = FnlIndex::build(Arc::clone(&f.disk), "c1", &f.c1).unwrap();
            let base = JoinSpec::new(&f.c1, &f.c2).with_sys(sys(buffer_pages, 128));
            let specs: Vec<JoinSpec<'_>> = (0..n)
                .map(|i| {
                    base.with_query(
                        QueryParams::paper_base().with_lambda(lambda_pool[(lambda_seed + i) % 3]),
                    )
                    .with_weighting(weightings[(weighting_seed + i) % 3])
                })
                .collect();

            // A budget too small for the mandatory structures is a
            // legitimate outcome for both modes, not a mismatch.
            let run = |r: Result<BatchOutcome>| match r {
                Ok(b) => Ok(Some(b)),
                Err(Error::InsufficientMemory { .. }) => Ok(None),
                Err(e) => Err(proptest::test_runner::TestCaseError::fail(e.to_string())),
            };
            if let Some(batch) = run(execute_hhnl(&specs))? {
                for (b, spec) in batch.queries.iter().zip(&specs) {
                    let s = crate::hhnl::execute(spec).unwrap();
                    prop_assert_eq!(&b.result, &s.result);
                }
                prop_assert!(batch.stats.mem_high_water_bytes <= base.sys.buffer_bytes());
            }
            if let Some(batch) = run(execute_fnl(&specs, &index))? {
                for (b, spec) in batch.queries.iter().zip(&specs) {
                    let s = crate::fnl::execute(spec, &index).unwrap();
                    prop_assert_eq!(&b.result, &s.result);
                }
            }
            if let Some(batch) = run(execute_hvnl(&specs, &f.inv1))? {
                for (b, spec) in batch.queries.iter().zip(&specs) {
                    let s = crate::hvnl::execute(spec, &f.inv1).unwrap();
                    prop_assert_eq!(&b.result, &s.result);
                }
            }
            if let Some(batch) = run(execute_vvm(&specs, &f.inv1, &f.inv2))? {
                for (b, spec) in batch.queries.iter().zip(&specs) {
                    let s = crate::vvm::execute(spec, &f.inv1, &f.inv2).unwrap();
                    prop_assert_eq!(&b.result, &s.result);
                }
            }
        }

        /// Degraded mode: with *permanent* page corruption (bit flips are
        /// detected on every read), batch and sequential execution skip
        /// exactly the same data and produce byte-identical partial
        /// results. (Transient nth-access faults would fire at different
        /// points of the two access sequences — permanence is what makes
        /// the comparison well-defined.)
        #[test]
        fn degraded_batch_equals_degraded_sequential(
            seed in 0u64..500,
            store_page in 0u64..10_000,
            inv_page in 0u64..10_000,
            bit in 0u64..4_096,
            lambda_seed in 0usize..27,
        ) {
            let f = fixture(25, 18, 10.0, 60, 128, seed);
            let lambda_pool = [1usize, 5, 20];
            let lambdas: Vec<usize> = (0..3).map(|i| lambda_pool[(lambda_seed + i) % 3]).collect();
            let base = JoinSpec::new(&f.c1, &f.c2)
                .with_sys(sys(2_000, 128))
                .with_degraded();
            let specs = lambda_specs(base, &lambdas);

            // Flip one bit in an outer-store page and one in an inner
            // inverted-file page; both corruptions are permanent, so every
            // executor sees the same unreadable data.
            let store_file = f.c2.store().file();
            let inv_file = f.inv1.file();
            let plan = FaultPlan::new()
                .with_fault(
                    store_file,
                    store_page % f.disk.num_pages(store_file).max(1),
                    0,
                    FaultKind::BitFlip { bit_offset: bit },
                )
                .with_fault(
                    inv_file,
                    inv_page % f.disk.num_pages(inv_file).max(1),
                    0,
                    FaultKind::BitFlip { bit_offset: bit },
                );
            f.disk.set_fault_plan(plan);

            let batch_hh = execute_hhnl(&specs).unwrap();
            let batch_hv = execute_hvnl(&specs, &f.inv1).unwrap();
            let batch_vv = execute_vvm(&specs, &f.inv1, &f.inv2).unwrap();
            for (i, spec) in specs.iter().enumerate() {
                let hh = crate::hhnl::execute(spec).unwrap();
                let hv = crate::hvnl::execute(spec, &f.inv1).unwrap();
                let vv = crate::vvm::execute(spec, &f.inv1, &f.inv2).unwrap();
                prop_assert_eq!(&batch_hh.queries[i].result, &hh.result);
                prop_assert_eq!(&batch_hv.queries[i].result, &hv.result);
                prop_assert_eq!(&batch_vv.queries[i].result, &vv.result);
            }
        }
    }
}
