//! Algorithm VVM — Vertical-Vertical Merge (section 4.3).
//!
//! Both inverted files are scanned in parallel, "very much like the merge
//! phase of sort merge": entries are in ascending term order, so one
//! sequential pass over each file visits every shared term once. For a
//! shared term `t` with entries `I1ᵗ = {(r, u)}` and `I2ᵗ = {(s, v)}`, the
//! similarity of every pair `(r, s)` is advanced by `u·v`.
//!
//! The price is holding the intermediate similarity of *every* non-zero
//! document pair at once. The paper budgets 4 bytes per non-zero pair,
//! `SM = 4·δ·N1·N2/P` pages in all; when that exceeds the available memory
//! `M = B − ⌈J1⌉ − ⌈J2⌉`, the outer collection is split into `⌈SM/M⌉`
//! subcollections and both files are rescanned once per subcollection
//! (section 4.3's extension). If the δ-based estimate proves too
//! optimistic at run time, the executor doubles the partition count and
//! retries rather than exceeding the budget; the retries and the page cost
//! of the abandoned attempts are reported in [`ExecStats::repartitions`]
//! and [`ExecStats::discarded_cost`].
//!
//! The sums themselves live in [`SimRows`]: one dense row per outer
//! document of the current subcollection, indexed by inner document
//! number. The memory tracker is charged the paper's 4 bytes for each
//! pair the rows mark non-zero, so the partition count and the memory
//! high-water mark follow the paper's accounting, not the rows' real size.

use crate::kernel::SimRows;
use crate::report::observe_phase_sim_io;
use crate::result::{ExecStats, JoinOutcome, JoinResult, Match, ResultQuality};
use crate::spec::{Checkpoint, JoinSpec};
use crate::topk::TopK;
use std::time::Instant;
use textjoin_common::{DocId, Error, ICell, Result, TermId, SIM_VALUE_BYTES};
use textjoin_costmodel::Algorithm;
use textjoin_invfile::InvertedFile;
use textjoin_obs::{Span, Tracer};
use textjoin_storage::MemTracker;

/// Bytes charged per non-zero pair. The paper budgets exactly 4 bytes per
/// non-zero intermediate similarity (`SM = 4·δ·N1·N2/P`); we charge the
/// same so the executor's partition count matches the ⌈SM/M⌉ the model
/// predicts. The dense [`SimRows`] actually hold `8·N1` bytes per outer
/// document of the subcollection; like the paper, the accounting treats
/// the representation as outside the buffer budget.
pub(crate) const ACC_BYTES: u64 = SIM_VALUE_BYTES as u64;

/// Re-partitions of one VVM run: attempts abandoned because the
/// accumulators outgrew the budget, and the page cost they had spent.
#[derive(Clone, Copy, Debug, Default)]
pub(crate) struct Repartitions {
    pub(crate) count: u64,
    pub(crate) discarded_cost: f64,
}

impl Repartitions {
    /// Counts one abandoned attempt that had spent `cost` pages.
    pub(crate) fn note(&mut self, cost: f64) {
        self.count += 1;
        self.discarded_cost += cost;
    }

    /// Copies the tally into a run's statistics.
    pub(crate) fn record(&self, stats: &mut ExecStats) {
        stats.repartitions = self.count;
        stats.discarded_cost = self.discarded_cost;
    }

    /// Records the tally on a run's root span, if there was a retry.
    pub(crate) fn trace(&self, root: &mut Span<'_>) {
        if self.count > 0 && root.is_enabled() {
            root.record("repartitions", self.count);
            root.record("discarded_pages", self.discarded_cost.round() as u64);
        }
    }
}

/// Executes the join with VVM.
pub fn execute(
    spec: &JoinSpec<'_>,
    inner_inv: &InvertedFile,
    outer_inv: &InvertedFile,
) -> Result<JoinOutcome> {
    let outer_ids: Vec<DocId> = spec.outer_live_ids();

    let disk = spec.inner.store().disk();
    let mut partitions =
        estimate_partitions(spec, inner_inv, outer_inv, outer_ids.len() as u64, 1)?;
    let mut retries = Repartitions::default();
    loop {
        let before = disk.stats();
        match run(spec, inner_inv, outer_inv, &outer_ids, partitions, retries) {
            Ok(outcome) => return Ok(outcome),
            Err(Error::InsufficientMemory { .. }) if partitions < outer_ids.len() as u64 => {
                // The δ estimate undershot the real non-zero density;
                // re-partition more finely and rerun (costs more scans, as
                // the paper's ⌈SM/M⌉ analysis predicts).
                retries.note(disk.stats().since(&before).cost(spec.sys.alpha));
                partitions = (partitions * 2).min(outer_ids.len() as u64);
            }
            Err(e) => return Err(e),
        }
    }
}

/// `⌈SM / M⌉` from measured statistics — the paper's partition estimate.
/// With `workers > 1` both the similarity space and the buffer budget are
/// divided evenly: each term-partitioned worker holds roughly `SM/w`
/// accumulator bytes against its `B/w`-page share.
pub(crate) fn estimate_partitions(
    spec: &JoinSpec<'_>,
    inner_inv: &InvertedFile,
    outer_inv: &InvertedFile,
    num_outer: u64,
    workers: u64,
) -> Result<u64> {
    let p = spec.sys.page_size as f64;
    let n1 = spec.inner.store().num_docs() as f64;
    let sm =
        SIM_VALUE_BYTES as f64 * spec.query.delta * n1 * num_outer as f64 / (p * workers as f64);
    // Size against the smallest worker share of the exact budget split
    // (remainder pages go to the lower-indexed workers), so the partition
    // count is safe for every worker.
    let min_share = crate::parallel::buffer_shares(spec.sys.buffer_pages, workers as usize)
        .into_iter()
        .min()
        .expect("at least one worker");
    let m =
        min_share as f64 - inner_inv.avg_entry_pages().ceil() - outer_inv.avg_entry_pages().ceil();
    if m <= 0.0 {
        return Err(Error::InsufficientMemory {
            context: "VVM similarity space (M ≤ 0)".into(),
            required_pages: (inner_inv.avg_entry_pages().ceil()
                + outer_inv.avg_entry_pages().ceil()
                + 1.0) as u64
                * workers,
            available_pages: spec.sys.buffer_pages,
        });
    }
    Ok(((sm / m).ceil() as u64).clamp(1, num_outer.max(1)))
}

/// Holds the next readable entry of one inverted-file scan. In degraded
/// mode, entries that cannot be read are skipped (and counted) so the merge
/// continues over the readable remainder; otherwise the first read error
/// aborts the merge.
pub(crate) struct EntryCursor<I> {
    iter: I,
    current: Option<(TermId, Vec<ICell>)>,
}

impl<I: Iterator<Item = Result<(TermId, Vec<ICell>)>>> EntryCursor<I> {
    pub(crate) fn new(iter: I, spec: &JoinSpec<'_>, skipped: &mut u64) -> Result<Self> {
        let mut cursor = Self {
            iter,
            current: None,
        };
        cursor.advance(spec, skipped)?;
        Ok(cursor)
    }

    /// Replaces `current` with the next readable entry (`None` at end of
    /// scan), skipping unreadable ones when the spec allows it.
    pub(crate) fn advance(&mut self, spec: &JoinSpec<'_>, skipped: &mut u64) -> Result<()> {
        self.current = loop {
            match self.iter.next() {
                None => break None,
                Some(Ok(pair)) => break Some(pair),
                Some(Err(e)) if spec.skippable(&e) => *skipped += 1,
                Some(Err(e)) => return Err(e),
            }
        };
        Ok(())
    }

    pub(crate) fn term(&self) -> Option<TermId> {
        self.current.as_ref().map(|(t, _)| *t)
    }

    /// Takes the current entry out of the cursor (the caller advances next).
    pub(crate) fn take_current(&mut self) -> Option<(TermId, Vec<ICell>)> {
        self.current.take()
    }
}

/// Merges a base inverted-file scan with a delta overlay's entries over the
/// term range `[lo, hi)` (`hi = None` means unbounded). A term present in
/// both layers yields *base cells ++ delta cells*, which is ascending
/// document order by the id-allocation invariant (delta documents are
/// numbered after every base document). Without an overlay the base
/// iterator is returned untouched, so the pristine path allocates and reads
/// nothing extra. A delta read error is yielded as one leading `Err` item:
/// degraded mode then drops the delta wholesale (and counts one skip) while
/// strict mode aborts the merge.
pub(crate) fn merged_entries<'a>(
    base: impl Iterator<Item = Result<(TermId, Vec<ICell>)>> + 'a,
    overlay: Option<&textjoin_invfile::DeltaOverlay>,
    lo: u32,
    hi: Option<u32>,
) -> Box<dyn Iterator<Item = Result<(TermId, Vec<ICell>)>> + 'a> {
    let Some(overlay) = overlay else {
        return Box::new(base);
    };
    let (delta, err) = match overlay.entries_between(lo, hi) {
        Ok(d) => (d, None),
        Err(e) => (Vec::new(), Some(e)),
    };
    if delta.is_empty() && err.is_none() {
        return Box::new(base);
    }
    Box::new(MergedEntries {
        base: base.peekable(),
        delta: delta.into_iter().peekable(),
        err,
    })
}

struct MergedEntries<B: Iterator<Item = Result<(TermId, Vec<ICell>)>>> {
    base: std::iter::Peekable<B>,
    delta: std::iter::Peekable<std::vec::IntoIter<(TermId, Vec<ICell>)>>,
    err: Option<Error>,
}

impl<B: Iterator<Item = Result<(TermId, Vec<ICell>)>>> Iterator for MergedEntries<B> {
    type Item = Result<(TermId, Vec<ICell>)>;

    fn next(&mut self) -> Option<Self::Item> {
        if let Some(e) = self.err.take() {
            return Some(Err(e));
        }
        match (self.base.peek(), self.delta.peek()) {
            (None, None) => None,
            // Base errors pass through for the cursor's skippable loop.
            (Some(Err(_)), _) => self.base.next(),
            (Some(Ok((bt, _))), Some((dt, _))) => {
                if bt < dt {
                    self.base.next()
                } else if dt < bt {
                    self.delta.next().map(Ok)
                } else {
                    let (term, mut cells) = match self.base.next()? {
                        Ok(pair) => pair,
                        Err(e) => return Some(Err(e)),
                    };
                    let (_, delta_cells) = self.delta.next()?;
                    cells.extend(delta_cells);
                    Some(Ok((term, cells)))
                }
            }
            (Some(Ok(_)), None) => self.base.next(),
            (None, Some(_)) => self.delta.next().map(Ok),
        }
    }
}

fn run(
    spec: &JoinSpec<'_>,
    inner_inv: &InvertedFile,
    outer_inv: &InvertedFile,
    outer_ids: &[DocId],
    partitions: u64,
    retries: Repartitions,
) -> Result<JoinOutcome> {
    let started = Instant::now();
    let mut root = Tracer::maybe(spec.trace, "vvm");
    if root.is_enabled() {
        root.record("partitions", partitions);
    }
    retries.trace(&mut root);
    let disk = spec.inner.store().disk();
    let start_io = disk.stats();
    let tracker = MemTracker::new(&spec.sys);
    // Entry buffers: one current entry per file, sized by the largest.
    // (The paper budgets ⌈J1⌉ + ⌈J2⌉ — the average; we hold the max so the
    // budget is strict.)
    let entry_buf_bytes = max_entry_bytes(inner_inv) + max_entry_bytes(outer_inv);
    tracker.allocate(entry_buf_bytes.max(1), "VVM entry buffers")?;
    tracker.allocate(TopK::budget_bytes(spec.query.lambda), "VVM result heap")?;

    let mut rows: Vec<(DocId, Vec<Match>)> = Vec::new();
    let chunk_size = (outer_ids.len() as u64).div_ceil(partitions).max(1) as usize;
    let mut passes = 0u64;
    let mut sim_ops = 0u64;
    // Accumulated across passes: a corrupt entry that survives the whole
    // run is skipped (and counted) once per rescan.
    let mut skipped_entries = 0u64;
    let mut progress = Checkpoint::new();
    let mut cancelled = false;
    // One row per outer document of a chunk, reused by every pass.
    let mut sims = SimRows::new(spec.inner_id_bound());

    for chunk in outer_ids.chunks(chunk_size) {
        passes += 1;
        let mut pass_span = root.child("vvm.merge_pass");
        let pass_io = disk.stats();
        let ops_before = sim_ops;

        let inner_cur = EntryCursor::new(
            merged_entries(
                inner_inv.scan_with_prefetch(spec.prefetch_metrics("inv1")),
                spec.inner_delta,
                0,
                None,
            ),
            spec,
            &mut skipped_entries,
        )?;
        let outer_cur = EntryCursor::new(
            merged_entries(
                outer_inv.scan_with_prefetch(spec.prefetch_metrics("inv2")),
                spec.outer_delta,
                0,
                None,
            ),
            spec,
            &mut skipped_entries,
        )?;
        merge_accumulate(
            std::slice::from_ref(spec),
            inner_cur,
            outer_cur,
            &[chunk],
            &tracker,
            std::slice::from_mut(&mut sims),
            std::slice::from_mut(&mut sim_ops),
            &mut skipped_entries,
        )?;

        // Emit this subcollection's results.
        tracker.release(sims.nonzero() * ACC_BYTES);
        emit_chunk(spec, chunk, &mut sims, &mut rows);
        if pass_span.is_enabled() {
            let d = disk.stats().since(&pass_io);
            pass_span.record("outer_docs", chunk.len() as u64);
            pass_span.record("seq_reads", d.seq_reads);
            pass_span.record("rand_reads", d.rand_reads);
            pass_span.record("sim_ops", sim_ops - ops_before);
            observe_phase_sim_io(spec.trace, "vvm.merge_pass", &d, spec.sys.alpha);
        }
        drop(pass_span);
        // Watchdog/introspection checkpoint: each merge pass costs I1 + I2
        // pages, so a partition-count blow-up is caught after the first
        // extra pass. A cancel keeps the chunks already emitted.
        match spec.checkpoint(
            &mut progress,
            disk.stats().since(&start_io).cost(spec.sys.alpha),
            || format!("vvm.merge_pass {passes}"),
        ) {
            Err(Error::Cancelled { .. }) => {
                cancelled = true;
                break;
            }
            other => other?,
        }
    }

    let io = disk.stats().since(&start_io);
    if root.is_enabled() {
        root.record("passes", passes);
        root.record("seq_reads", io.seq_reads);
        root.record("rand_reads", io.rand_reads);
        root.record("sim_ops", sim_ops);
        observe_phase_sim_io(spec.trace, "vvm", &io, spec.sys.alpha);
    }
    let mut stats = ExecStats {
        io,
        cost: io.cost(spec.sys.alpha),
        mem_high_water_bytes: tracker.high_water(),
        passes,
        sim_ops,
        // VVM's merge only visits non-zero postings.
        cells_touched: sim_ops,
        // VVM never reads documents, only inverted files.
        skipped_entries,
        wall_ns: started.elapsed().as_nanos() as u64,
        ..ExecStats::zero(Algorithm::Vvm)
    };
    retries.record(&mut stats);
    let quality = if cancelled {
        ResultQuality::Partial
    } else {
        stats.quality()
    };
    Ok(JoinOutcome {
        result: JoinResult::from_rows(rows),
        quality,
        stats,
    })
}

/// One term-ordered merge over a pair of entry streams, accumulating each
/// query's pairs for the outer documents of its chunk (sorted by id; the
/// document's position in the chunk is its slot in the query's
/// [`SimRows`]). Every VVM mode runs its passes through here — the
/// sequential and batched executors over whole files, the parallel workers
/// and the shard sites over term ranges — so all of them apply
/// bit-identical arithmetic per pair. `specs` share their collections;
/// `chunks`, `sims` and `sim_ops` hold one entry per spec.
///
/// The tracker is charged [`ACC_BYTES`] per pair marked non-zero, one call
/// per (term, outer cell); nothing is released mid-pass, so the budget
/// fails exactly where a per-pair charge would.
#[allow(clippy::too_many_arguments)]
pub(crate) fn merge_accumulate<I1, I2>(
    specs: &[JoinSpec<'_>],
    mut inner_cur: EntryCursor<I1>,
    mut outer_cur: EntryCursor<I2>,
    chunks: &[&[DocId]],
    tracker: &MemTracker,
    sims: &mut [SimRows],
    sim_ops: &mut [u64],
    skipped_entries: &mut u64,
) -> Result<()>
where
    I1: Iterator<Item = Result<(TermId, Vec<ICell>)>>,
    I2: Iterator<Item = Result<(TermId, Vec<ICell>)>>,
{
    let spec0 = &specs[0];
    let inner_profile = spec0.inner.profile();
    // The term's inner cells a query may match, filtered once per term.
    let mut allowed: Vec<ICell> = Vec::new();
    // Merge by term: advance the scan with the smaller term.
    while let (Some(inner_term), Some(outer_term)) = (inner_cur.term(), outer_cur.term()) {
        match inner_term.cmp(&outer_term) {
            std::cmp::Ordering::Less => inner_cur.advance(spec0, skipped_entries)?,
            std::cmp::Ordering::Greater => outer_cur.advance(spec0, skipped_entries)?,
            std::cmp::Ordering::Equal => {
                let Some((term, inner_cells)) = inner_cur.take_current() else {
                    break;
                };
                let Some((_, outer_cells)) = outer_cur.take_current() else {
                    break;
                };
                inner_cur.advance(spec0, skipped_entries)?;
                outer_cur.advance(spec0, skipped_entries)?;
                for (si, spec) in specs.iter().enumerate() {
                    let factor = spec.weighting.term_factor(term, inner_profile);
                    if factor == 0.0 || chunks[si].is_empty() {
                        continue;
                    }
                    allowed.clear();
                    allowed.extend(
                        inner_cells
                            .iter()
                            .filter(|ic| spec.inner_doc_allowed(ic.doc)),
                    );
                    for oc in &outer_cells {
                        let Ok(slot) = chunks[si].binary_search(&oc.doc) else {
                            continue;
                        };
                        let added = sims[si].add(
                            slot,
                            oc.weight,
                            factor,
                            allowed
                                .iter()
                                .filter(|ic| spec.pair_allowed(ic.doc, oc.doc)),
                        );
                        sim_ops[si] += added.pairs;
                        if added.fresh > 0 {
                            tracker
                                .allocate(added.fresh * ACC_BYTES, "VVM similarity accumulators")?;
                        }
                    }
                }
            }
        }
    }
    Ok(())
}

/// Turns one chunk's accumulated similarities into result rows: a λ-heap
/// per outer document, ties broken by document id (order-independent), so
/// any executor emitting from equal sums produces identical rows. Resets
/// the chunk's rows for the next pass.
pub(crate) fn emit_chunk(
    spec: &JoinSpec<'_>,
    chunk: &[DocId],
    sims: &mut SimRows,
    rows: &mut Vec<(DocId, Vec<Match>)>,
) {
    for (slot, &outer_id) in chunk.iter().enumerate() {
        let mut topk = TopK::new(spec.query.lambda);
        sims.emit(slot, spec, outer_id, &mut topk);
        rows.push((outer_id, topk.into_matches()));
    }
}

pub(crate) fn max_entry_bytes(inv: &InvertedFile) -> u64 {
    (0..inv.num_entries() as u32)
        .map(|o| inv.entry_bytes(o))
        .max()
        .unwrap_or(0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reference::naive_join;
    use crate::spec::OuterDocs;
    use std::sync::Arc;
    use textjoin_collection::{Collection, Document, SynthSpec};
    use textjoin_common::{CollectionStats, QueryParams, SystemParams};
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
        InvertedFile,
        InvertedFile,
        Vec<Document>,
        Vec<Document>,
    ) {
        let disk = Arc::new(DiskSim::new(page));
        let d1 = SynthSpec::from_stats(CollectionStats::new(n1, k, vocab), 41).generate_docs();
        let d2 = SynthSpec::from_stats(CollectionStats::new(n2, k, vocab), 42).generate_docs();
        let c1 = Collection::build(Arc::clone(&disk), "c1", d1.clone()).unwrap();
        let c2 = Collection::build(Arc::clone(&disk), "c2", d2.clone()).unwrap();
        let inv1 = InvertedFile::build(Arc::clone(&disk), "c1", &c1).unwrap();
        let inv2 = InvertedFile::build(Arc::clone(&disk), "c2", &c2).unwrap();
        (disk, c1, c2, inv1, inv2, d1, d2)
    }

    #[test]
    fn matches_reference_on_small_collections() {
        let (_, c1, c2, inv1, inv2, d1, d2) = fixture(30, 20, 10.0, 80, 256);
        let spec = JoinSpec::new(&c1, &c2).with_query(QueryParams::paper_base().with_lambda(5));
        let got = execute(&spec, &inv1, &inv2).unwrap();
        let want = naive_join(&d1, &d2, OuterDocs::Full, 5, crate::Weighting::RawCount);
        assert_eq!(got.result, want);
        assert_eq!(got.stats.algorithm, Algorithm::Vvm);
    }

    #[test]
    fn single_pass_scans_each_file_once() {
        let (disk, c1, c2, inv1, inv2, _, _) = fixture(25, 15, 8.0, 60, 128);
        let spec = JoinSpec::new(&c1, &c2).with_sys(SystemParams {
            buffer_pages: 10_000,
            page_size: 128,
            alpha: 5.0,
        });
        disk.reset_stats();
        disk.reset_head();
        let got = execute(&spec, &inv1, &inv2).unwrap();
        assert_eq!(got.stats.passes, 1);
        // One scan of each inverted file: I1 + I2 pages, two seeks.
        assert_eq!(
            got.stats.io.total_reads(),
            inv1.num_pages() + inv2.num_pages()
        );
        assert!(got.stats.io.rand_reads <= 2);
    }

    #[test]
    fn tight_memory_partitions_and_stays_correct() {
        let (_, c1, c2, inv1, inv2, d1, d2) = fixture(40, 30, 10.0, 50, 128);
        // A small buffer forces multiple merge passes.
        let spec = JoinSpec::new(&c1, &c2)
            .with_sys(SystemParams {
                buffer_pages: 12,
                page_size: 128,
                alpha: 5.0,
            })
            .with_query(QueryParams::paper_base().with_lambda(4));
        let got = execute(&spec, &inv1, &inv2).unwrap();
        assert!(got.stats.passes > 1, "expected partitioning, got 1 pass");
        let want = naive_join(&d1, &d2, OuterDocs::Full, 4, crate::Weighting::RawCount);
        assert_eq!(got.result, want);
        assert!(got.stats.mem_high_water_bytes <= spec.sys.buffer_bytes());
    }

    #[test]
    fn passes_multiply_scan_cost() {
        let (disk, c1, c2, inv1, inv2, _, _) = fixture(40, 30, 10.0, 50, 128);
        let spec = JoinSpec::new(&c1, &c2).with_sys(SystemParams {
            buffer_pages: 12,
            page_size: 128,
            alpha: 5.0,
        });
        disk.reset_stats();
        disk.reset_head();
        let got = execute(&spec, &inv1, &inv2).unwrap();
        let per_pass = inv1.num_pages() + inv2.num_pages();
        assert_eq!(got.stats.io.total_reads(), got.stats.passes * per_pass);
    }

    #[test]
    fn selection_filters_outer_documents() {
        let (_, c1, c2, inv1, inv2, d1, d2) = fixture(20, 30, 10.0, 80, 256);
        let chosen = [DocId::new(0), DocId::new(9), DocId::new(25)];
        let spec = JoinSpec::new(&c1, &c2)
            .with_outer_docs(OuterDocs::Selected(&chosen))
            .with_query(QueryParams::paper_base().with_lambda(3));
        let got = execute(&spec, &inv1, &inv2).unwrap();
        assert_eq!(got.result.num_outer_docs(), 3);
        let want = naive_join(
            &d1,
            &d2,
            OuterDocs::Selected(&chosen),
            3,
            crate::Weighting::RawCount,
        );
        assert_eq!(got.result, want);
    }

    #[test]
    fn cosine_weighting_matches_reference() {
        let (_, c1, c2, inv1, inv2, d1, d2) = fixture(15, 15, 8.0, 60, 256);
        let spec = JoinSpec::new(&c1, &c2)
            .with_weighting(crate::Weighting::Cosine)
            .with_query(QueryParams::paper_base().with_lambda(5));
        let got = execute(&spec, &inv1, &inv2).unwrap();
        let want = naive_join(&d1, &d2, OuterDocs::Full, 5, crate::Weighting::Cosine);
        assert!(got.result.approx_eq(&want, 1e-12));
    }

    #[test]
    fn adaptive_repartition_recovers_from_bad_delta_estimate() {
        let (_, c1, c2, inv1, inv2, d1, d2) = fixture(30, 30, 12.0, 40, 128);
        // δ = 0.0001 wildly underestimates the true non-zero density of
        // these dense collections; the executor must recover by doubling.
        let spec = JoinSpec::new(&c1, &c2)
            .with_sys(SystemParams {
                buffer_pages: 12,
                page_size: 128,
                alpha: 5.0,
            })
            .with_query(QueryParams {
                lambda: 4,
                delta: 0.0001,
            });
        let got = execute(&spec, &inv1, &inv2).unwrap();
        let want = naive_join(&d1, &d2, OuterDocs::Full, 4, crate::Weighting::RawCount);
        assert_eq!(got.result, want);
        assert!(got.stats.passes > 1);
    }

    #[test]
    fn empty_outer_yields_empty_result() {
        let disk = Arc::new(DiskSim::new(256));
        let c1 = Collection::build(
            Arc::clone(&disk),
            "c1",
            SynthSpec::from_stats(CollectionStats::new(5, 5.0, 20), 1).generate_docs(),
        )
        .unwrap();
        let c2 = Collection::build(Arc::clone(&disk), "c2", Vec::<Document>::new()).unwrap();
        let inv1 = InvertedFile::build(Arc::clone(&disk), "c1", &c1).unwrap();
        let inv2 = InvertedFile::build(Arc::clone(&disk), "c2", &c2).unwrap();
        let got = execute(&JoinSpec::new(&c1, &c2), &inv1, &inv2).unwrap();
        assert_eq!(got.result.num_outer_docs(), 0);
    }
}
