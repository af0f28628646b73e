//! Algorithm HVNL — Horizontal-Vertical Nested Loop (section 4.2).
//!
//! For each outer document, the terms it shares with the inner collection
//! are looked up in the inner B+tree (loaded into memory once, cost `Bt1`)
//! and their inverted-file entries are fetched (`⌈J1⌉` random pages each),
//! accumulating similarities into per-inner-document counters. Entries read
//! for earlier documents are kept in an in-memory cache; when space runs
//! out, the entry whose term has the **lowest document frequency in the
//! outer collection** is evicted — it is the least likely to be needed
//! again. Terms whose entries are already resident are processed first.
//!
//! The paper proves that choosing an optimal processing order for the outer
//! documents is NP-hard (reduction from Optimal Batch Integrity Assertion
//! Verification); the default is storage order, and a greedy
//! largest-intersection order is available as the ablation the paper
//! discusses (and warns about: it turns the outer scan into random I/O).
//!
//! `run` is the one HVNL engine, sequential (one query) and batched (`N`
//! queries over one collection pair) alike. It loads the dictionary once,
//! reads each participating outer document once — a scan of the outer
//! collection when some query wants all of it, else the sorted union of
//! the selections — and processes the document for every query that
//! selects it against one shared entry cache, so an entry fetched for one
//! query is a cache hit for the rest (`costmodel::hvs_batch`). Every query
//! keys evictions by the same outer document frequency: the queries share
//! the outer collection. The engine opens the `hvnl`, `hvnl.setup` and
//! `hvnl.outer_scan` spans, checkpoints before every outer document
//! through `batch::BatchProgress` (so a token set before the run stops it
//! before the first document) and assembles the outcome once
//! (`batch::finish`). [`execute`] and [`execute_with`] are the batch of
//! one.

use crate::batch::{self, BatchOutcome, BatchProgress, QueryAcc};
use crate::kernel::{Added, SimRows};
use crate::nl::readable;
use crate::report::observe_phase_sim_io;
use crate::result::JoinOutcome;
use crate::spec::{JoinSpec, OuterDocs};
use crate::topk::TopK;
use crate::vvm::max_entry_bytes;
use std::collections::{BTreeSet, HashMap};
use std::time::Instant;
use textjoin_collection::Document;
use textjoin_common::{DCell, DocId, Result, TermId};
use textjoin_costmodel::Algorithm;
use textjoin_invfile::InvertedFile;
use textjoin_obs::{Histogram, Tracer, LATENCY_BOUNDS_NS};
use textjoin_storage::MemTracker;

/// Cache replacement policies for inverted-file entries.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum EvictionPolicy {
    /// The paper's policy: evict the entry whose term has the lowest
    /// document frequency in the outer collection (least likely reuse).
    #[default]
    LowestOuterDf,
    /// Plain least-recently-used, as the ablation baseline.
    Lru,
}

/// Order in which outer documents are processed.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum OuterOrder {
    /// Storage order — cheap sequential reads (the paper's choice).
    #[default]
    Storage,
    /// Greedy: always pick the unprocessed document sharing the most terms
    /// with the entries currently cached. The optimal order is NP-hard;
    /// this heuristic maximises short-term reuse at the price of reading
    /// documents randomly, exactly the trade-off section 4.2 warns about.
    GreedyIntersection,
}

/// Tuning knobs (defaults reproduce the paper's algorithm).
#[derive(Clone, Copy, Debug, Default)]
pub struct HvnlOptions {
    /// Cache replacement policy.
    pub eviction: EvictionPolicy,
    /// Outer document processing order.
    pub order: OuterOrder,
}

/// Executes the join with HVNL under the paper's default options.
pub fn execute(spec: &JoinSpec<'_>, inner_inv: &InvertedFile) -> Result<JoinOutcome> {
    execute_with(spec, inner_inv, HvnlOptions::default())
}

/// Executes the join with HVNL under explicit options: the engine run as
/// a batch of one.
pub fn execute_with(
    spec: &JoinSpec<'_>,
    inner_inv: &InvertedFile,
    options: HvnlOptions,
) -> Result<JoinOutcome> {
    run(std::slice::from_ref(spec), inner_inv, options).map(BatchOutcome::into_single)
}

/// Runs HVNL for `specs` (validated as one batch) against one dictionary
/// and one entry cache.
pub(crate) fn run(
    specs: &[JoinSpec<'_>],
    inner_inv: &InvertedFile,
    options: HvnlOptions,
) -> Result<BatchOutcome> {
    batch::validate(specs)?;
    let started = Instant::now();
    let spec0 = &specs[0];
    let mut root = Tracer::maybe(spec0.trace, "hvnl");
    let disk = spec0.inner.store().disk();
    let start_io = disk.stats();
    // At the I/O baseline, so the tickets' thread-local tally covers the
    // setup reads (the dictionary load, a preload) that the first
    // checkpoint reports.
    let mut progress = BatchProgress::new(specs);
    let tracker = MemTracker::new(&spec0.sys);

    // One-time cost: read the whole B+tree into memory (Bt1) and keep it
    // resident for the duration of the join. A corrupt dictionary is a
    // hard failure even in degraded mode — without it no entry can be
    // located, so the integrated algorithm re-plans instead.
    let mut setup_span = root.child("hvnl.setup");
    let dict = inner_inv.btree().load_leaves()?;
    tracker.allocate(dict.size_bytes().max(1), "HVNL B+tree dictionary")?;
    // Room for the outer document currently being processed (⌈S2⌉).
    tracker.allocate(
        spec0.outer.store().max_doc_bytes().max(1),
        "HVNL outer document slot",
    )?;
    // Room for the λ result slots built per outer document; one heap
    // lives at a time, so the batch's largest λ sizes it.
    let heap_bytes = specs.iter().map(|s| TopK::budget_bytes(s.query.lambda));
    tracker.allocate(heap_bytes.max().unwrap_or(0), "HVNL result heap")?;
    // Room for the entry currently being fetched (the paper budgets the
    // average ⌈J1⌉; we reserve the worst case so even an entry that cannot
    // be cached can still be streamed through without busting the budget).
    tracker.allocate(
        max_entry_bytes(inner_inv).max(1),
        "HVNL current entry buffer",
    )?;

    // With a registry-backed tracer attached, each inverted-entry lookup
    // is timed separately by outcome, making the cache-hit vs disk-fetch
    // latency gap directly observable.
    let lookup_hists = spec0.trace.and_then(|t| t.registry()).map(|r| {
        (
            r.histogram("hvnl.entry_hit_ns", "", &LATENCY_BOUNDS_NS),
            r.histogram("hvnl.entry_fetch_ns", "", &LATENCY_BOUNDS_NS),
        )
    });
    let mut state = EntryJoinState::new(
        inner_inv,
        dict,
        &tracker,
        options.eviction,
        lookup_hists,
        spec0.inner_id_bound(),
    );
    // Section 5.2, case X ≥ T1: when the entire inner inverted file fits in
    // the remaining memory and one sequential scan of it (I1 pages) is
    // cheaper than fetching the needed entries at the random rate, read it
    // in up front.
    state.maybe_preload_inverted_file(spec0)?;
    if setup_span.is_enabled() {
        let d = disk.stats().since(&start_io);
        setup_span.record("seq_reads", d.seq_reads);
        setup_span.record("rand_reads", d.rand_reads);
        setup_span.record("preloaded_entries", state.cache.len() as u64);
        observe_phase_sim_io(spec0.trace, "hvnl.setup", &d, spec0.sys.alpha);
    }
    drop(setup_span);

    let mut accs: Vec<QueryAcc> = specs.iter().map(|_| QueryAcc::default()).collect();
    let mut shared_skipped_docs = 0u64;
    let mut outer = OuterPass::new(specs);
    let mut docs = 0u64;
    let scan_io_start = disk.stats();
    let mut scan_span = root.child("hvnl.outer_scan");
    // Outer documents are the checkpoint grain: HVNL's cost accrues per
    // document (entry fetches). A query latched as cancelled keeps the
    // rows already scored and takes no part in later documents.
    let checkpoint = |progress: &mut BatchProgress, docs: u64| {
        let cost = disk.stats().since(&start_io).cost(spec0.sys.alpha);
        progress.observe(specs, cost, || format!("hvnl.outer_doc {docs}"))
    };
    match options.order {
        OuterOrder::Storage => {
            while !checkpoint(&mut progress, docs)? {
                let Some((id, doc)) = outer.next(specs, &mut accs, &mut shared_skipped_docs)?
                else {
                    break;
                };
                docs += 1;
                state.process_outer_doc(specs, &progress.cancelled, id, &doc, &mut accs)?;
            }
        }
        OuterOrder::GreedyIntersection => {
            // Read all participating outer documents up front (random I/O),
            // then process them in greedy max-intersection order.
            let mut remaining: Vec<(DocId, Document)> = Vec::new();
            let mut held_bytes = 0u64;
            while let Some((id, doc)) = outer.next(specs, &mut accs, &mut shared_skipped_docs)? {
                held_bytes += doc.size_bytes().max(1);
                tracker.allocate(doc.size_bytes().max(1), "HVNL greedy-order document set")?;
                remaining.push((id, doc));
            }
            while !remaining.is_empty() && !checkpoint(&mut progress, docs)? {
                let best = remaining
                    .iter()
                    .enumerate()
                    .max_by_key(|(_, (_, doc))| {
                        doc.cells()
                            .iter()
                            .filter(|c| state.cache.contains(c.term))
                            .count()
                    })
                    .map(|(i, _)| i)
                    .expect("non-empty");
                let (id, doc) = remaining.swap_remove(best);
                docs += 1;
                state.process_outer_doc(specs, &progress.cancelled, id, &doc, &mut accs)?;
            }
            tracker.release(held_bytes);
        }
    }
    // A closing checkpoint prices the last document's fetches.
    checkpoint(&mut progress, docs)?;
    drop(state);

    let (entry_fetches, cache_hits, sim_ops) = accs.iter().fold((0, 0, 0), |(f, h, o), a| {
        (f + a.entry_fetches, h + a.cache_hits, o + a.sim_ops)
    });
    if scan_span.is_enabled() {
        scan_span.record("entry_fetches", entry_fetches);
        scan_span.record("cache_hits", cache_hits);
        scan_span.record("sim_ops", sim_ops);
        observe_phase_sim_io(
            spec0.trace,
            "hvnl.outer_scan",
            &disk.stats().since(&scan_io_start),
            spec0.sys.alpha,
        );
    }
    drop(scan_span);
    let io = disk.stats().since(&start_io);
    if root.is_enabled() {
        root.record("seq_reads", io.seq_reads);
        root.record("rand_reads", io.rand_reads);
        root.record("entry_fetches", entry_fetches);
        root.record("cache_hits", cache_hits);
        observe_phase_sim_io(spec0.trace, "hvnl", &io, spec0.sys.alpha);
    }
    for acc in &mut accs {
        acc.passes = 1;
        // HVNL only ever visits non-zero cells: every touch is an op.
        acc.cells_touched = acc.sim_ops;
    }
    Ok(batch::finish(
        Algorithm::Hvnl,
        spec0.sys.alpha,
        accs,
        &progress.cancelled,
        io,
        1,
        tracker.high_water(),
        shared_skipped_docs,
        0,
        started,
    ))
}

/// The batch's participating outer documents, each read once: a scan of
/// the outer collection when some query wants all of it (`outer_iter`
/// folds in the shared outer delta), else the sorted union of the
/// selections, each document read directly.
enum OuterPass<'a> {
    Scan(Box<dyn Iterator<Item = Result<(DocId, Document)>> + 'a>),
    Union(std::vec::IntoIter<DocId>),
}

impl<'a> OuterPass<'a> {
    fn new(specs: &[JoinSpec<'a>]) -> Self {
        if let Some(full) = specs
            .iter()
            .find(|s| matches!(s.outer_docs, OuterDocs::Full))
        {
            return OuterPass::Scan(full.outer_iter());
        }
        let mut union: Vec<DocId> = specs
            .iter()
            .flat_map(|s| match s.outer_docs {
                OuterDocs::Full => &[],
                OuterDocs::Selected(ids) => ids,
            })
            .copied()
            .collect();
        union.sort_unstable();
        union.dedup();
        OuterPass::Union(union.into_iter())
    }

    /// The next readable document. In degraded mode an unreadable one is
    /// skipped and counted against the queries that wanted it: all of
    /// them for a scan, those that selected it otherwise.
    fn next(
        &mut self,
        specs: &[JoinSpec<'_>],
        accs: &mut [QueryAcc],
        shared_skipped_docs: &mut u64,
    ) -> Result<Option<(DocId, Document)>> {
        let spec0 = &specs[0];
        loop {
            match self {
                OuterPass::Scan(iter) => {
                    let Some(item) = iter.next() else {
                        return Ok(None);
                    };
                    if let Some(pair) = readable(spec0, item, shared_skipped_docs)? {
                        return Ok(Some(pair));
                    }
                }
                OuterPass::Union(ids) => {
                    let Some(id) = ids.next() else {
                        return Ok(None);
                    };
                    match spec0.read_selected_outer(id) {
                        None => {}
                        Some(Ok(doc)) => return Ok(Some((id, doc))),
                        Some(Err(e)) if spec0.skippable(&e) => {
                            for (spec, acc) in specs.iter().zip(accs.iter_mut()) {
                                acc.skipped_docs += u64::from(outer_participates(spec, id));
                            }
                        }
                        Some(Err(e)) => return Err(e),
                    }
                }
            }
        }
    }
}

/// Whether `id` is one of the spec's participating outer documents. A
/// tombstoned document never participates, whatever the selection.
fn outer_participates(spec: &JoinSpec<'_>, id: DocId) -> bool {
    if spec.outer_delta.is_some_and(|d| d.is_deleted(id)) {
        return false;
    }
    match spec.outer_docs {
        OuterDocs::Full => true,
        OuterDocs::Selected(ids) => ids.binary_search(&id).is_ok(),
    }
}

/// Bytes a cached entry charges: its i-cells plus one resident-term-list
/// slot of `|t#|` bytes (the list of section 4.2 that tracks which entries
/// are in memory).
fn cached_entry_bytes(cells: &[textjoin_common::ICell]) -> u64 {
    (cells.len() * textjoin_common::CELL_BYTES + textjoin_common::NUMBER_BYTES) as u64
}

/// Lifecycle of the one-shot delta-postings materialization. The overlay
/// cannot change while an executor holds it (mutation needs
/// `&mut LiveCollection`), and `batch::validate` checks that every spec of
/// a batch shares the same overlay pointer per side, so a single
/// materialization serves the whole run.
enum DeltaPostings {
    /// No delta lookup has happened yet.
    Unbuilt,
    /// Term → merged flushed+tail cells, bytes charged to the tracker.
    Built(HashMap<TermId, Vec<textjoin_common::ICell>>),
    /// The materialization scan hit an unreadable page in degraded mode:
    /// the delta is dropped wholesale and every lookup counts a skip.
    Dropped,
    /// The map did not fit in memory even after emptying the entry cache;
    /// fall back to per-term reads against the overlay.
    PerTerm,
}

/// The spec-independent heart of HVNL: the loaded dictionary, the shared
/// entry cache and the per-document accumulator scratch space. `run`
/// processes each outer document for every query of the batch against the
/// *same* cache, which is exactly where the batched I/O saving comes from.
struct EntryJoinState<'b> {
    inner_inv: &'b InvertedFile,
    dict: textjoin_invfile::Dictionary,
    tracker: &'b MemTracker,
    cache: EntryCache,
    /// Similarity accumulators of the current (outer document, query)
    /// pair: one slot, one sum per inner document. Drained after each call
    /// to `Self::process_for`.
    sims: SimRows,
    acc_bytes: u64,
    /// Inner-delta postings, materialized with one sequential scan of the
    /// flushed side file on first use instead of a random read per outer
    /// term occurrence.
    delta_postings: DeltaPostings,
    /// Per-lookup latency histograms (cache hit, disk fetch), present only
    /// when a registry-backed tracer is attached to the spec.
    lookup_hists: Option<(Histogram, Histogram)>,
}

impl<'b> EntryJoinState<'b> {
    fn new(
        inner_inv: &'b InvertedFile,
        dict: textjoin_invfile::Dictionary,
        tracker: &'b MemTracker,
        eviction: EvictionPolicy,
        lookup_hists: Option<(Histogram, Histogram)>,
        inner_width: usize,
    ) -> Self {
        Self {
            inner_inv,
            dict,
            tracker,
            cache: EntryCache::new(eviction),
            sims: SimRows::new(inner_width),
            acc_bytes: 0,
            delta_postings: DeltaPostings::Unbuilt,
            lookup_hists,
        }
    }

    /// Loads the whole inner inverted file into the cache with one
    /// sequential scan when (a) it fits in the available memory and (b) the
    /// scan is cheaper than the expected on-demand random fetches — the
    /// first case of the paper's `hvs` formula.
    fn maybe_preload_inverted_file(&mut self, spec: &JoinSpec<'_>) -> Result<()> {
        let inv = self.inner_inv;
        if inv.num_entries() == 0 {
            return Ok(());
        }
        let total_cached_bytes: u64 = (0..inv.num_entries() as u32)
            .map(|o| inv.entry_bytes(o) + textjoin_common::NUMBER_BYTES as u64)
            .sum();
        if total_cached_bytes > self.tracker.available() {
            return Ok(());
        }
        // Expected on-demand cost: every inner entry whose term also
        // appears in the outer collection is fetched once at ⌈J1⌉·α.
        let alpha = spec.sys.alpha;
        let entry_pages = inv.avg_entry_pages().ceil().max(1.0);
        let needed = spec
            .inner
            .profile()
            .term_overlap_probability(spec.outer.profile())
            * inv.num_entries() as f64;
        let scan_cost = inv.num_pages() as f64;
        if scan_cost >= needed * entry_pages * alpha {
            return Ok(());
        }
        for item in inv.scan_with_prefetch(spec.prefetch_metrics("inv_preload")) {
            let (term, cells) = match item {
                Ok(pair) => pair,
                Err(e) if spec.skippable(&e) => {
                    // The entry stays out of the cache; a later lookup of
                    // this term will retry it on demand (and skip it there
                    // too if the page is genuinely unreadable).
                    continue;
                }
                Err(e) => return Err(e),
            };
            let bytes = cached_entry_bytes(&cells);
            self.tracker
                .allocate(bytes, "HVNL preloaded inverted file")?;
            self.cache.insert(term, cells, bytes, outer_df(spec, term));
        }
        Ok(())
    }

    /// Processes one outer document for every live query that selects it,
    /// in query order.
    fn process_outer_doc(
        &mut self,
        specs: &[JoinSpec<'_>],
        cancelled: &[bool],
        outer_id: DocId,
        doc: &Document,
        accs: &mut [QueryAcc],
    ) -> Result<()> {
        for (si, spec) in specs.iter().enumerate() {
            if !cancelled[si] && outer_participates(spec, outer_id) {
                self.process_for(spec, outer_id, doc, &mut accs[si])?;
            }
        }
        Ok(())
    }

    /// Scores one outer document for one query and appends its row.
    fn process_for(
        &mut self,
        spec: &JoinSpec<'_>,
        outer_id: DocId,
        doc: &Document,
        acc: &mut QueryAcc,
    ) -> Result<()> {
        // Terms whose entries are already in memory are considered first
        // (section 4.2's reuse optimization); order within each group stays
        // by term number for determinism.
        let (cached_terms, uncached_terms): (Vec<DCell>, Vec<DCell>) = doc
            .cells()
            .iter()
            .partition(|c| self.cache.contains(c.term));

        // Entries this document is guaranteed to need are pinned so that
        // evictions forced while fetching its *uncached* terms cannot throw
        // away a hit we already counted on; each pin is released once the
        // term has been consumed.
        for cell in &cached_terms {
            self.cache.pin(cell.term);
        }
        for cell in cached_terms.iter().chain(uncached_terms.iter()) {
            // Terms that do not appear in C1 have no entry and cost nothing.
            self.cache.unpin(cell.term);
            if let Some(entry) = self.dict.lookup(cell.term) {
                self.accumulate_term(spec, outer_id, cell, entry.ordinal, acc)?;
            }
            // Inner delta documents contribute through the overlay's side
            // postings — consulted for dictionary-known *and* delta-only
            // terms, since an inserted document may introduce new terms.
            if let Some(overlay) = spec.inner_delta {
                self.accumulate_delta_term(spec, outer_id, cell, overlay, acc)?;
            }
        }

        // Extract the λ best inner documents for this outer document.
        let mut topk = TopK::new(spec.query.lambda);
        self.sims.emit(0, spec, outer_id, &mut topk);
        acc.rows.push((outer_id, topk.into_matches()));

        self.tracker.release(self.acc_bytes);
        self.acc_bytes = 0;
        Ok(())
    }

    fn accumulate_term(
        &mut self,
        spec: &JoinSpec<'_>,
        outer_id: DocId,
        cell: &DCell,
        ordinal: u32,
        acc: &mut QueryAcc,
    ) -> Result<()> {
        let factor = spec.weighting.term_factor(cell.term, spec.inner.profile());
        if factor == 0.0 {
            return Ok(());
        }

        // The Instant is only taken when a registry is attached, so the
        // untraced hot path pays nothing beyond an Option check.
        let lookup_start = self.lookup_hists.as_ref().map(|_| Instant::now());

        // Accumulate while the cached postings are borrowed; the memory
        // charge, which may evict them, comes after.
        if let Some(cells) = self.cache.get(cell.term) {
            acc.cache_hits += 1;
            let added = accumulate(&mut self.sims, spec, outer_id, cell.weight, factor, cells);
            self.charge_accumulators(added, acc)?;
            if let (Some((hit, _)), Some(t0)) = (&self.lookup_hists, lookup_start) {
                hit.observe(t0.elapsed().as_nanos() as u64);
            }
            return Ok(());
        }

        // Fetch from disk (⌈J1⌉ random pages) and try to cache. A failed
        // fetch still counts as a fetch attempt; in degraded mode the
        // unreadable entry is skipped (its postings contribute nothing)
        // and counted, rather than failing the whole join.
        acc.entry_fetches += 1;
        let cells = match self.inner_inv.read_entry(ordinal) {
            Ok(cells) => cells,
            Err(e) if spec.skippable(&e) => {
                acc.skipped_entries += 1;
                return Ok(());
            }
            Err(e) => return Err(e),
        };
        if let (Some((_, fetch)), Some(t0)) = (&self.lookup_hists, lookup_start) {
            fetch.observe(t0.elapsed().as_nanos() as u64);
        }
        let bytes = cached_entry_bytes(&cells);

        // Make room by evicting lowest-priority entries; an entry larger
        // than everything evictable is used transiently instead.
        while self.tracker.allocate(bytes, "HVNL entry cache").is_err() {
            match self.cache.evict_one() {
                Some(freed) => self.tracker.release(freed),
                None => {
                    // Nothing left to evict: accumulate without caching.
                    let added =
                        accumulate(&mut self.sims, spec, outer_id, cell.weight, factor, &cells);
                    return self.charge_accumulators(added, acc);
                }
            }
        }
        let added = accumulate(&mut self.sims, spec, outer_id, cell.weight, factor, &cells);
        self.charge_accumulators(added, acc)?;
        self.cache
            .insert(cell.term, cells, bytes, outer_df(spec, cell.term));
        Ok(())
    }

    /// Applies the inner overlay's postings for one outer term. The whole
    /// overlay is materialized into memory on first use with one sequential
    /// scan of the flushed side file — fetching it per outer-term occurrence
    /// would cost a random entry read each time, swamping the join. Delta
    /// postings never enter the entry cache proper: the next flush or merge
    /// rewrites them, and the pristine path must not pay for the
    /// invalidation machinery that caching them would need. They also stay
    /// outside `entry_fetches`/`cache_hits`, which account for the base
    /// inverted file only.
    fn accumulate_delta_term(
        &mut self,
        spec: &JoinSpec<'_>,
        outer_id: DocId,
        cell: &DCell,
        overlay: &textjoin_invfile::DeltaOverlay,
        acc: &mut QueryAcc,
    ) -> Result<()> {
        let factor = spec.weighting.term_factor(cell.term, spec.inner.profile());
        if factor == 0.0 {
            return Ok(());
        }
        if matches!(self.delta_postings, DeltaPostings::Unbuilt) {
            self.build_delta_postings(spec, overlay)?;
        }
        let weight = cell.weight;
        let added = match &self.delta_postings {
            DeltaPostings::Built(map) => match map.get(&cell.term) {
                Some(cells) => accumulate(&mut self.sims, spec, outer_id, weight, factor, cells),
                None => return Ok(()),
            },
            DeltaPostings::Dropped => {
                // The delta is unreadable: every lookup that would have
                // consulted it is a counted skip, so any query touching
                // the dropped overlay reports a Partial result.
                acc.skipped_entries += 1;
                return Ok(());
            }
            DeltaPostings::PerTerm => match overlay.postings_for(cell.term) {
                Ok(cells) => accumulate(&mut self.sims, spec, outer_id, weight, factor, &cells),
                Err(e) if spec.skippable(&e) => {
                    acc.skipped_entries += 1;
                    return Ok(());
                }
                Err(e) => return Err(e),
            },
            DeltaPostings::Unbuilt => unreachable!("built above"),
        };
        self.charge_accumulators(added, acc)
    }

    /// One-shot materialization of the inner delta overlay: a single
    /// sequential scan of the flushed side file merged with the in-memory
    /// tail. In degraded mode an unreadable page drops the delta wholesale
    /// (mirroring VVM's merged-entries idiom); if the map cannot be charged
    /// to the tracker even after emptying the entry cache, lookups fall
    /// back to per-term overlay reads.
    fn build_delta_postings(
        &mut self,
        spec: &JoinSpec<'_>,
        overlay: &textjoin_invfile::DeltaOverlay,
    ) -> Result<()> {
        let entries = match overlay.entries() {
            Ok(entries) => entries,
            Err(e) if spec.skippable(&e) => {
                self.delta_postings = DeltaPostings::Dropped;
                return Ok(());
            }
            Err(e) => return Err(e),
        };
        let bytes: u64 = entries
            .iter()
            .map(|(_, cells)| cached_entry_bytes(cells))
            .sum();
        while self.tracker.allocate(bytes, "HVNL delta postings").is_err() {
            match self.cache.evict_one() {
                Some(freed) => self.tracker.release(freed),
                None => {
                    self.delta_postings = DeltaPostings::PerTerm;
                    return Ok(());
                }
            }
        }
        self.delta_postings = DeltaPostings::Built(entries.into_iter().collect());
        Ok(())
    }

    /// Counts one term's multiply-adds and charges its newly non-zero
    /// pairs 4 bytes each — the same accounting the cost model's
    /// `4·N1·δ/P` term uses. One allocation covers them when it fits;
    /// otherwise they are charged pair by pair, and the entry cache, being
    /// discretionary, shrinks before mandatory accumulator space is given
    /// up on. Either way the evictions and the high-water mark are those
    /// of charging each pair as it is first touched.
    fn charge_accumulators(&mut self, added: Added, acc: &mut QueryAcc) -> Result<()> {
        acc.sim_ops += added.pairs;
        let bytes = 4 * added.fresh;
        if bytes == 0
            || self
                .tracker
                .allocate(bytes, "HVNL similarity accumulators")
                .is_ok()
        {
            self.acc_bytes += bytes;
            return Ok(());
        }
        for _ in 0..added.fresh {
            loop {
                match self.tracker.allocate(4, "HVNL similarity accumulators") {
                    Ok(()) => break,
                    Err(err) => match self.cache.evict_one() {
                        Some(freed) => self.tracker.release(freed),
                        // Mandatory space outranks pin hints: the pins are
                        // released first (so the entries become evictable)
                        // rather than ever evicting a pinned entry
                        // directly.
                        None if self.cache.has_pinned() => self.cache.unpin_all(),
                        None => return Err(err),
                    },
                }
            }
            self.acc_bytes += 4;
        }
        Ok(())
    }
}

/// Adds one term's postings into the one-slot accumulator of outer
/// document `outer_id`: every posting the spec lets pair with it.
fn accumulate(
    sims: &mut SimRows,
    spec: &JoinSpec<'_>,
    outer_id: DocId,
    outer_weight: u16,
    factor: f64,
    cells: &[textjoin_common::ICell],
) -> Added {
    sims.add(
        0,
        outer_weight,
        factor,
        cells
            .iter()
            .filter(|ic| spec.inner_doc_allowed(ic.doc) && spec.pair_allowed(ic.doc, outer_id)),
    )
}

/// The eviction key of the paper's policy: the term's document frequency
/// in the outer collection. The queries of a batch share that collection,
/// so one key serves them all.
fn outer_df(spec: &JoinSpec<'_>, term: TermId) -> u64 {
    u64::from(spec.outer.profile().doc_frequency(term))
}

/// The in-memory entry cache with its two replacement policies.
struct EntryCache {
    policy: EvictionPolicy,
    entries: HashMap<TermId, CacheSlot>,
    /// Eviction order: smallest key evicted first. The key is
    /// `(outer document frequency, term)` for the paper's policy and
    /// `(last access tick, term)` for LRU.
    order: BTreeSet<(u64, u32)>,
    tick: u64,
}

struct CacheSlot {
    cells: Vec<textjoin_common::ICell>,
    bytes: u64,
    key: (u64, u32),
    /// Pinned slots are exempt from eviction: their key is withdrawn from
    /// the eviction order until [`EntryCache::unpin`] restores it.
    pinned: bool,
}

impl EntryCache {
    fn new(policy: EvictionPolicy) -> Self {
        Self {
            policy,
            entries: HashMap::new(),
            order: BTreeSet::new(),
            tick: 0,
        }
    }

    fn contains(&self, term: TermId) -> bool {
        self.entries.contains_key(&term)
    }

    fn get(&mut self, term: TermId) -> Option<&[textjoin_common::ICell]> {
        self.tick += 1;
        let tick = self.tick;
        let refresh_lru = self.policy == EvictionPolicy::Lru;
        let slot = self.entries.get_mut(&term)?;
        if refresh_lru {
            // A pinned slot's key is not in the order set; just refresh
            // the key so unpinning restores the right recency.
            if !slot.pinned {
                self.order.remove(&slot.key);
            }
            slot.key = (tick, term.raw());
            if !slot.pinned {
                self.order.insert(slot.key);
            }
        }
        Some(&slot.cells)
    }

    /// Caches an entry. `df` is the term's outer document frequency, the
    /// key [`EvictionPolicy::LowestOuterDf`] evicts by (ignored under
    /// LRU). Ties on `df` break by term id, so eviction order is
    /// reproducible.
    fn insert(&mut self, term: TermId, cells: Vec<textjoin_common::ICell>, bytes: u64, df: u64) {
        debug_assert!(!self.entries.contains_key(&term));
        self.tick += 1;
        let key = match self.policy {
            EvictionPolicy::LowestOuterDf => (df, term.raw()),
            EvictionPolicy::Lru => (self.tick, term.raw()),
        };
        self.order.insert(key);
        self.entries.insert(
            term,
            CacheSlot {
                cells,
                bytes,
                key,
                pinned: false,
            },
        );
    }

    /// Evicts the lowest-priority *unpinned* entry, returning the bytes it
    /// freed. Pinned entries are invisible here: their keys are withdrawn
    /// from the eviction order, so a pinned entry is never evicted.
    fn evict_one(&mut self) -> Option<u64> {
        while let Some(&key) = self.order.iter().next() {
            self.order.remove(&key);
            let term = TermId::new(key.1);
            // The order set and the entry map are maintained in lockstep; a
            // stale order key (which would indicate an internal bug) is
            // dropped and the next candidate tried rather than panicking
            // mid-join.
            if let Some(slot) = self.entries.remove(&term) {
                return Some(slot.bytes);
            }
            debug_assert!(false, "order and entries disagree on term {term:?}");
        }
        None
    }

    /// Exempts a cached entry from eviction until [`Self::unpin`].
    fn pin(&mut self, term: TermId) {
        if let Some(slot) = self.entries.get_mut(&term) {
            if !slot.pinned {
                slot.pinned = true;
                self.order.remove(&slot.key);
            }
        }
    }

    /// Makes a pinned entry evictable again.
    fn unpin(&mut self, term: TermId) {
        if let Some(slot) = self.entries.get_mut(&term) {
            if slot.pinned {
                slot.pinned = false;
                self.order.insert(slot.key);
            }
        }
    }

    /// Releases every pin (mandatory allocations outrank pin hints).
    fn unpin_all(&mut self) {
        for slot in self.entries.values_mut() {
            if slot.pinned {
                slot.pinned = false;
                self.order.insert(slot.key);
            }
        }
    }

    /// Whether any entry is currently pinned.
    fn has_pinned(&self) -> bool {
        self.entries.values().any(|s| s.pinned)
    }

    fn len(&self) -> usize {
        self.entries.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reference::naive_join;
    use crate::spec::OuterDocs;
    use std::sync::Arc;
    use textjoin_collection::{Collection, SynthSpec};
    use textjoin_common::{CollectionStats, ICell, QueryParams, SystemParams};
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
        InvertedFile,
        Vec<Document>,
        Vec<Document>,
    ) {
        let disk = Arc::new(DiskSim::new(page));
        let d1 = SynthSpec::from_stats(CollectionStats::new(n1, k, vocab), 31).generate_docs();
        let d2 = SynthSpec::from_stats(CollectionStats::new(n2, k, vocab), 32).generate_docs();
        let c1 = Collection::build(Arc::clone(&disk), "c1", d1.clone()).unwrap();
        let c2 = Collection::build(Arc::clone(&disk), "c2", d2.clone()).unwrap();
        let inv = InvertedFile::build(Arc::clone(&disk), "c1", &c1).unwrap();
        (disk, c1, c2, inv, d1, d2)
    }

    #[test]
    fn matches_reference_on_small_collections() {
        let (_, c1, c2, inv, d1, d2) = fixture(30, 20, 10.0, 80, 256);
        let spec = JoinSpec::new(&c1, &c2).with_query(QueryParams::paper_base().with_lambda(5));
        let got = execute(&spec, &inv).unwrap();
        let want = naive_join(&d1, &d2, OuterDocs::Full, 5, crate::Weighting::RawCount);
        assert_eq!(got.result, want);
        assert_eq!(got.stats.algorithm, Algorithm::Hvnl);
        assert_eq!(got.stats.passes, 1);
    }

    #[test]
    fn tight_cache_still_correct_with_more_fetches() {
        let (_, c1, c2, inv, d1, d2) = fixture(25, 25, 12.0, 60, 128);
        let roomy = JoinSpec::new(&c1, &c2)
            .with_sys(SystemParams {
                buffer_pages: 400,
                page_size: 128,
                alpha: 5.0,
            })
            .with_query(QueryParams::paper_base().with_lambda(4));
        let tight = roomy.with_sys(SystemParams {
            buffer_pages: 10,
            page_size: 128,
            alpha: 5.0,
        });
        let got_roomy = execute(&roomy, &inv).unwrap();
        let got_tight = execute(&tight, &inv).unwrap();
        let want = naive_join(&d1, &d2, OuterDocs::Full, 4, crate::Weighting::RawCount);
        assert_eq!(got_roomy.result, want);
        assert_eq!(got_tight.result, want);
        assert!(
            got_tight.stats.entry_fetches > got_roomy.stats.entry_fetches,
            "tight cache must re-fetch more: {} vs {}",
            got_tight.stats.entry_fetches,
            got_roomy.stats.entry_fetches
        );
        assert!(got_tight.stats.mem_high_water_bytes <= tight.sys.buffer_bytes());
    }

    #[test]
    fn large_cache_fetches_each_needed_entry_once() {
        let (_, c1, c2, inv, _, _) = fixture(30, 20, 10.0, 80, 256);
        let spec = JoinSpec::new(&c1, &c2).with_sys(SystemParams {
            buffer_pages: 10_000,
            page_size: 256,
            alpha: 5.0,
        });
        let got = execute(&spec, &inv).unwrap();
        // With unbounded cache every entry is read at most once.
        assert!(got.stats.entry_fetches <= inv.num_entries());
        assert!(got.stats.cache_hits > 0);
    }

    #[test]
    fn io_includes_btree_and_entry_fetches() {
        let (disk, c1, c2, inv, _, _) = fixture(20, 10, 8.0, 50, 128);
        let spec = JoinSpec::new(&c1, &c2).with_sys(SystemParams {
            buffer_pages: 2_000,
            page_size: 128,
            alpha: 5.0,
        });
        disk.reset_stats();
        disk.reset_head();
        let got = execute(&spec, &inv).unwrap();
        let bt = inv.btree().num_pages();
        let d2 = c2.store().num_pages();
        // At least Bt + D2 + one page per fetch; at most that plus slack
        // for multi-page entries.
        let floor = bt + d2 + got.stats.entry_fetches;
        assert!(got.stats.io.total_reads() >= floor);
    }

    #[test]
    fn selected_outer_docs_match_reference() {
        let (_, c1, c2, inv, d1, d2) = fixture(20, 30, 10.0, 80, 256);
        let chosen = [DocId::new(1), DocId::new(15), DocId::new(22)];
        let spec = JoinSpec::new(&c1, &c2)
            .with_outer_docs(OuterDocs::Selected(&chosen))
            .with_query(QueryParams::paper_base().with_lambda(3));
        let got = execute(&spec, &inv).unwrap();
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
    fn greedy_order_and_lru_produce_identical_results() {
        let (_, c1, c2, inv, d1, d2) = fixture(25, 15, 10.0, 60, 256);
        let spec = JoinSpec::new(&c1, &c2)
            .with_sys(SystemParams {
                buffer_pages: 300,
                page_size: 256,
                alpha: 5.0,
            })
            .with_query(QueryParams::paper_base().with_lambda(4));
        let want = naive_join(&d1, &d2, OuterDocs::Full, 4, crate::Weighting::RawCount);
        for options in [
            HvnlOptions {
                eviction: EvictionPolicy::Lru,
                order: OuterOrder::Storage,
            },
            HvnlOptions {
                eviction: EvictionPolicy::LowestOuterDf,
                order: OuterOrder::GreedyIntersection,
            },
        ] {
            let got = execute_with(&spec, &inv, options).unwrap();
            assert_eq!(got.result, want, "{options:?}");
        }
    }

    #[test]
    fn tfidf_weighting_matches_reference_approximately() {
        let (_, c1, c2, inv, d1, d2) = fixture(15, 10, 8.0, 40, 256);
        let spec = JoinSpec::new(&c1, &c2)
            .with_weighting(crate::Weighting::TfIdf)
            .with_query(QueryParams::paper_base().with_lambda(5));
        let got = execute(&spec, &inv).unwrap();
        let want = naive_join(&d1, &d2, OuterDocs::Full, 5, crate::Weighting::TfIdf);
        assert!(got.result.approx_eq(&want, 1e-9));
    }

    #[test]
    fn eviction_cache_prefers_high_outer_df() {
        let mut cache = EntryCache::new(EvictionPolicy::LowestOuterDf);
        let cells = vec![ICell::new(DocId::new(0), 1)];
        cache.insert(TermId::new(1), cells.clone(), 8, 100); // frequent in C2
        cache.insert(TermId::new(2), cells.clone(), 8, 1); // rare in C2
        cache.insert(TermId::new(3), cells, 8, 50);
        assert_eq!(cache.len(), 3);
        cache.evict_one();
        assert!(!cache.contains(TermId::new(2)), "rare term evicted first");
        cache.evict_one();
        assert!(!cache.contains(TermId::new(3)));
        assert!(cache.contains(TermId::new(1)));
    }

    #[test]
    fn lru_cache_evicts_least_recently_used() {
        let mut cache = EntryCache::new(EvictionPolicy::Lru);
        let cells = vec![ICell::new(DocId::new(0), 1)];
        cache.insert(TermId::new(1), cells.clone(), 8, 0);
        cache.insert(TermId::new(2), cells.clone(), 8, 0);
        let _ = cache.get(TermId::new(1)); // refresh term 1
        cache.evict_one();
        assert!(cache.contains(TermId::new(1)));
        assert!(!cache.contains(TermId::new(2)));
    }

    /// Regression: entries whose terms tie on document frequency must
    /// evict in ascending term order, whatever order they were inserted
    /// in — `evict_one` is reproducible across runs and executors.
    #[test]
    fn equal_df_ties_evict_in_ascending_term_order() {
        let cells = vec![ICell::new(DocId::new(0), 1)];
        let mut forward = EntryCache::new(EvictionPolicy::LowestOuterDf);
        let mut reverse = EntryCache::new(EvictionPolicy::LowestOuterDf);
        let terms = [9u32, 3, 27, 14, 5];
        for &t in &terms {
            forward.insert(TermId::new(t), cells.clone(), 8, 7);
        }
        for &t in terms.iter().rev() {
            reverse.insert(TermId::new(t), cells.clone(), 8, 7);
        }
        let drain = |mut c: EntryCache| {
            let mut order = Vec::new();
            while c.evict_one().is_some() {
                let survivors: Vec<u32> = terms
                    .iter()
                    .copied()
                    .filter(|&t| c.contains(TermId::new(t)))
                    .collect();
                order.push(survivors);
            }
            order
        };
        let f = drain(forward);
        assert_eq!(f, drain(reverse), "order depends on insertion");
        // Ascending term order: 3 goes first, 27 survives longest.
        assert!(!f[0].contains(&3), "lowest term id evicts first");
        assert_eq!(f[3], vec![27], "highest term id evicts last");
    }

    use proptest::prelude::*;

    proptest! {
        /// Accounting invariant: every inverted-entry lookup is either a
        /// disk fetch or a cache hit — `entry_fetches + cache_hits` equals
        /// the number of (outer document, term-known-to-C1) pairs, under
        /// any memory budget (raw-count weighting, where no term factor
        /// vanishes).
        #[test]
        fn fetches_plus_hits_account_for_every_lookup(
            n1 in 5u64..30,
            n2 in 5u64..20,
            vocab in 20u64..80,
            buffer_pages in 8u64..400,
            lambda in 1usize..6
        ) {
            let (_, c1, c2, inv, _, d2) = fixture(n1, n2, 10.0, vocab, 128);
            let spec = JoinSpec::new(&c1, &c2)
                .with_sys(SystemParams {
                    buffer_pages,
                    page_size: 128,
                    alpha: 5.0,
                })
                .with_query(QueryParams::paper_base().with_lambda(lambda));
            let got = match execute(&spec, &inv) {
                Ok(got) => got,
                // A budget too small for the mandatory structures is a
                // legitimate outcome, not an accounting violation.
                Err(textjoin_common::Error::InsufficientMemory { .. }) => return Ok(()),
                Err(e) => return Err(proptest::test_runner::TestCaseError::fail(e.to_string())),
            };
            let dict = inv.btree().load_leaves().unwrap();
            let lookups: u64 = d2
                .iter()
                .map(|doc| {
                    doc.cells()
                        .iter()
                        .filter(|c| dict.lookup(c.term).is_some())
                        .count() as u64
                })
                .sum();
            prop_assert_eq!(got.stats.entry_fetches + got.stats.cache_hits, lookups);
        }

        /// The lowest-outer-df eviction policy never evicts a pinned
        /// entry: after draining `evict_one`, exactly the pinned entries
        /// survive, and unpinning makes them evictable again.
        #[test]
        fn pinned_entries_are_never_evicted(
            dfs in prop::collection::vec(0u32..50, 1..20),
            pin_bits in prop::collection::vec(prop::bool::ANY, 20)
        ) {
            let mut cache = EntryCache::new(EvictionPolicy::LowestOuterDf);
            let cells = vec![ICell::new(DocId::new(0), 1)];
            for (i, &df) in dfs.iter().enumerate() {
                cache.insert(TermId::new(i as u32), cells.clone(), 8, u64::from(df));
            }
            let pinned: Vec<u32> = (0..dfs.len() as u32)
                .filter(|&i| pin_bits[i as usize])
                .collect();
            for &t in &pinned {
                cache.pin(TermId::new(t));
            }
            while cache.evict_one().is_some() {}
            for i in 0..dfs.len() as u32 {
                prop_assert_eq!(
                    cache.contains(TermId::new(i)),
                    pinned.contains(&i),
                    "term {} pinned={}",
                    i,
                    pinned.contains(&i)
                );
            }
            prop_assert_eq!(cache.has_pinned(), !pinned.is_empty());
            // Unpinning restores evictability; the cache drains fully.
            cache.unpin_all();
            prop_assert_eq!(cache.len(), pinned.len());
            while cache.evict_one().is_some() {}
            prop_assert_eq!(cache.len(), 0);
        }
    }
}
