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
//!
//! `run` is the one VVM engine, sequential (one query) and batched (`N`
//! queries over one collection pair) alike: all queries' accumulators
//! share the similarity budget of one merge scan, so the partitions are
//! sized on the pooled `Σᵢ SMᵢ` and pass `k` serves chunk `k` of every
//! query (`costmodel::vvs_batch`). It opens the `vvm` span (with the
//! partition count) and one `vvm.merge_pass` span per pass, checkpoints
//! before every pass through `batch::BatchProgress` (so a token set
//! before the run stops it before the first pass) and assembles the
//! outcome once (`batch::finish`). [`execute`] is the batch of one. The
//! re-partition loop, `with_repartitions`, and the per-term merge,
//! `merge_accumulate`, also drive the parallel and sharded VVM.

use crate::batch::{self, BatchOutcome, BatchProgress, QueryAcc};
use crate::kernel::SimRows;
use crate::report::observe_phase_sim_io;
use crate::result::{ExecStats, JoinOutcome, Match};
use crate::spec::JoinSpec;
use crate::topk::TopK;
use std::cell::Cell;
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

/// Executes the join with VVM: the engine run as a batch of one.
pub fn execute(
    spec: &JoinSpec<'_>,
    inner_inv: &InvertedFile,
    outer_inv: &InvertedFile,
) -> Result<JoinOutcome> {
    run(std::slice::from_ref(spec), inner_inv, outer_inv).map(BatchOutcome::into_single)
}

/// Runs VVM for `specs` (validated as one batch): all queries'
/// accumulators share the similarity budget of one merge scan, so both
/// inverted files are read `⌈Σᵢ SMᵢ/M⌉` times for the whole batch
/// (`costmodel::vvs_batch`), re-partitioned more finely when the pooled δ
/// estimate proves too optimistic.
pub(crate) fn run(
    specs: &[JoinSpec<'_>],
    inner_inv: &InvertedFile,
    outer_inv: &InvertedFile,
) -> Result<BatchOutcome> {
    batch::validate(specs)?;
    let outer_ids: Vec<Vec<DocId>> = specs.iter().map(|s| s.outer_live_ids()).collect();
    let num_outer: Vec<u64> = outer_ids.iter().map(|ids| ids.len() as u64).collect();
    let first = estimate_partitions(specs, &num_outer, inner_inv, outer_inv, 1)?;
    let longest = num_outer.iter().copied().max().unwrap_or(0);
    let disk = specs[0].inner.store().disk();
    let attempt_io = Cell::new(disk.stats());
    with_repartitions(
        first,
        longest,
        |partitions, retries| {
            attempt_io.set(disk.stats());
            merge_passes(specs, inner_inv, outer_inv, &outer_ids, partitions, retries)
        },
        || {
            disk.stats()
                .since(&attempt_io.get())
                .cost(specs[0].sys.alpha)
        },
    )
}

/// The one re-partition loop of every VVM mode: runs `attempt` at
/// `first` outer partitions and, while an attempt fails with
/// `InsufficientMemory` (the δ estimate undershot the real non-zero
/// density), doubles the count up to `max` and reruns — more scans, as
/// the paper's ⌈SM/M⌉ analysis predicts. `spent` measures the pages the
/// failed attempt read; each attempt receives the tally of those before
/// it, to report beside its own statistics.
pub(crate) fn with_repartitions<T>(
    first: u64,
    max: u64,
    mut attempt: impl FnMut(u64, Repartitions) -> Result<T>,
    mut spent: impl FnMut() -> f64,
) -> Result<T> {
    let mut partitions = first;
    let mut retries = Repartitions::default();
    loop {
        match attempt(partitions, retries) {
            Err(Error::InsufficientMemory { .. }) if partitions < max => {
                retries.note(spent());
                partitions = (partitions * 2).min(max);
            }
            done => return done,
        }
    }
}

/// `⌈Σᵢ SMᵢ / M⌉` from measured statistics — the paper's partition
/// estimate, pooled over a batch: every query's accumulators compete for
/// the similarity budget of the same scan. `num_outer` holds each query's
/// participating outer document count. With `workers > 1` both the
/// similarity space and the buffer budget are divided evenly: each
/// term-partitioned worker holds roughly `SM/w` accumulator bytes against
/// its `B/w`-page share.
pub(crate) fn estimate_partitions(
    specs: &[JoinSpec<'_>],
    num_outer: &[u64],
    inner_inv: &InvertedFile,
    outer_inv: &InvertedFile,
    workers: u64,
) -> Result<u64> {
    let spec0 = &specs[0];
    let p = spec0.sys.page_size as f64;
    let n1 = spec0.inner.store().num_docs() as f64;
    let sm: f64 = specs
        .iter()
        .zip(num_outer)
        .map(|(s, &n)| {
            SIM_VALUE_BYTES as f64 * s.query.delta * n1 * n as f64 / (p * workers as f64)
        })
        .sum();
    // Size against the smallest worker share of the exact budget split
    // (remainder pages go to the lower-indexed workers), so the partition
    // count is safe for every worker.
    let min_share = crate::parallel::buffer_shares(spec0.sys.buffer_pages, workers as usize)
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
            available_pages: spec0.sys.buffer_pages,
        });
    }
    let longest = num_outer.iter().copied().max().unwrap_or(0);
    Ok(((sm / m).ceil() as u64).clamp(1, longest.max(1)))
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

/// One attempt at `partitions` outer chunks per query: pass `k` merges
/// both inverted files once and serves chunk `k` of every query. A query
/// whose outer set is exhausted contributes an empty chunk (and skips the
/// pass in its own accounting). Fails with `InsufficientMemory` when the
/// accumulators outgrow the budget, for `with_repartitions` to re-partition.
fn merge_passes(
    specs: &[JoinSpec<'_>],
    inner_inv: &InvertedFile,
    outer_inv: &InvertedFile,
    outer_ids: &[Vec<DocId>],
    partitions: u64,
    retries: Repartitions,
) -> Result<BatchOutcome> {
    let started = Instant::now();
    let spec0 = &specs[0];
    let mut root = Tracer::maybe(spec0.trace, "vvm");
    if root.is_enabled() {
        root.record("partitions", partitions);
    }
    retries.trace(&mut root);
    let disk = spec0.inner.store().disk();
    let start_io = disk.stats();
    let mut progress = BatchProgress::new(specs);
    let tracker = MemTracker::new(&spec0.sys);
    // Entry buffers: one current entry per file, sized by the largest.
    // (The paper budgets ⌈J1⌉ + ⌈J2⌉ — the average; we hold the max so the
    // budget is strict.)
    let entry_buf_bytes = max_entry_bytes(inner_inv) + max_entry_bytes(outer_inv);
    tracker.allocate(entry_buf_bytes.max(1), "VVM entry buffers")?;
    // One result heap lives at a time; the batch's largest λ sizes it.
    let heap_bytes = specs.iter().map(|s| TopK::budget_bytes(s.query.lambda));
    tracker.allocate(heap_bytes.max().unwrap_or(0), "VVM result heap")?;

    let chunk_sizes: Vec<usize> = outer_ids
        .iter()
        .map(|ids| (ids.len() as u64).div_ceil(partitions).max(1) as usize)
        .collect();
    let mut accs: Vec<QueryAcc> = specs.iter().map(|_| QueryAcc::default()).collect();
    let mut passes = 0u64;
    // Accumulated across passes: a corrupt entry that survives the whole
    // run is skipped (and counted) once per rescan. The scans are shared,
    // so a skip degrades every query.
    let mut skipped_entries = 0u64;
    // One accumulator table per query, reused by every pass.
    let mut sims: Vec<SimRows> = specs
        .iter()
        .map(|s| SimRows::new(s.inner_id_bound()))
        .collect();
    let mut sim_ops = vec![0u64; specs.len()];
    // Pass boundaries are the checkpoints: each merge pass costs I1 + I2
    // pages, so a partition-count blow-up is caught after the first extra
    // pass. A latched query contributes an empty chunk from here on, so
    // the shared scan stops doing its work while sibling chunk boundaries
    // stay where an uncancelled run puts them.
    let checkpoint = |progress: &mut BatchProgress, pass: u64| {
        let cost = disk.stats().since(&start_io).cost(spec0.sys.alpha);
        progress.observe(specs, cost, || format!("vvm.merge_pass {pass}"))
    };

    for k in 0..partitions as usize {
        if checkpoint(&mut progress, passes + 1)? {
            break;
        }
        let chunks: Vec<&[DocId]> = outer_ids
            .iter()
            .zip(&chunk_sizes)
            .zip(&progress.cancelled)
            .map(|((ids, &cs), &cancelled)| {
                if cancelled {
                    return &[] as &[DocId];
                }
                &ids[(k * cs).min(ids.len())..((k + 1) * cs).min(ids.len())]
            })
            .collect();
        if chunks.iter().all(|c| c.is_empty()) {
            break;
        }
        passes += 1;
        for (acc, c) in accs.iter_mut().zip(&chunks) {
            acc.passes += u64::from(!c.is_empty());
        }
        let mut pass_span = root.child("vvm.merge_pass");
        let pass_io = disk.stats();
        let ops_before: u64 = sim_ops.iter().sum();

        let inner_cur = EntryCursor::new(
            merged_entries(
                inner_inv.scan_with_prefetch(spec0.prefetch_metrics("inv1")),
                spec0.inner_delta,
                0,
                None,
            ),
            spec0,
            &mut skipped_entries,
        )?;
        let outer_cur = EntryCursor::new(
            merged_entries(
                outer_inv.scan_with_prefetch(spec0.prefetch_metrics("inv2")),
                spec0.outer_delta,
                0,
                None,
            ),
            spec0,
            &mut skipped_entries,
        )?;
        merge_accumulate(
            specs,
            inner_cur,
            outer_cur,
            &chunks,
            &tracker,
            &mut sims,
            &mut sim_ops,
            &mut skipped_entries,
        )?;

        // Emit this subcollection's results.
        for ((spec, chunk), (sims, acc)) in specs
            .iter()
            .zip(&chunks)
            .zip(sims.iter_mut().zip(accs.iter_mut()))
        {
            tracker.release(sims.nonzero() * ACC_BYTES);
            emit_chunk(spec, chunk, sims, &mut acc.rows);
        }
        if pass_span.is_enabled() {
            let d = disk.stats().since(&pass_io);
            let outer_docs = chunks.iter().map(|c| c.len() as u64).sum();
            pass_span.record("outer_docs", outer_docs);
            pass_span.record("seq_reads", d.seq_reads);
            pass_span.record("rand_reads", d.rand_reads);
            pass_span.record("sim_ops", sim_ops.iter().sum::<u64>() - ops_before);
            observe_phase_sim_io(spec0.trace, "vvm.merge_pass", &d, spec0.sys.alpha);
        }
    }
    // A closing checkpoint prices the last pass.
    checkpoint(&mut progress, passes)?;

    for (acc, &ops) in accs.iter_mut().zip(&sim_ops) {
        acc.sim_ops = ops;
        // VVM's merge only visits non-zero postings.
        acc.cells_touched = ops;
    }
    let io = disk.stats().since(&start_io);
    if root.is_enabled() {
        root.record("passes", passes);
        root.record("seq_reads", io.seq_reads);
        root.record("rand_reads", io.rand_reads);
        root.record("sim_ops", sim_ops.iter().sum());
        observe_phase_sim_io(spec0.trace, "vvm", &io, spec0.sys.alpha);
    }
    let mut outcome = batch::finish(
        Algorithm::Vvm,
        spec0.sys.alpha,
        accs,
        &progress.cancelled,
        io,
        passes,
        tracker.high_water(),
        0,
        skipped_entries,
        started,
    );
    retries.record(&mut outcome.stats);
    Ok(outcome)
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
