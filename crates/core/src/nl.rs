//! The nested-loop engine: one round loop behind HHNL and FNL, sequential
//! and batched alike.
//!
//! HHNL (section 4.1) holds as many outer documents in memory as the
//! budget allows and scans the inner side once per such round. FNL is the
//! same loop, except that each pass reads the signature file instead of
//! the document store. `run` takes `N ≥ 1` specs over one collection
//! pair plus an `InnerScan` source, and does the rest once:
//!
//! * fills memory rounds from the queries' concatenated outer streams,
//!   across query boundaries, carrying a document that did not fit over
//!   to the next round. With `N = 1` a round is the sequential executor's
//!   batch of `X` documents; with more queries the rounds pool into
//!   `⌈Σᵢ N2ᵢ/Xᵢ⌉` passes (`costmodel::hhs_batch`);
//! * charges the memory budget per resident document and raises
//!   `InsufficientMemory` when not even one fits;
//! * opens the root and per-pass spans (`hhnl`/`hhnl.inner_scan`,
//!   `fnl`/`fnl.term_order`/`fnl.sig_scan`) on the first spec's tracer;
//! * checkpoints at every round boundary through `batch::BatchProgress`:
//!   tickets, per-query cancels and the cost-budget watchdog. The first
//!   checkpoint precedes the first round, so a token set before the run
//!   stops it before any pass;
//! * assembles the outcome once (`batch::finish`).
//!
//! A round holds each query's residents in that query's own postings
//! views ([`crate::kernel`]), so each query scores with its own
//! weighting, filters and counters, and every pair scores exactly as it
//! would in a run of its own.

use crate::batch::{self, BatchOutcome, BatchProgress, QueryAcc};
use crate::kernel::{self, BatchPostings, ProbeCounts};
use crate::report::observe_phase_sim_io;
use crate::result::JoinOutcome;
use crate::spec::JoinSpec;
use crate::topk::TopK;
use std::time::Instant;
use textjoin_collection::Document;
use textjoin_common::{DocId, Error, Result};
use textjoin_costmodel::fnl::RANK_CELL_BYTES;
use textjoin_costmodel::Algorithm;
use textjoin_invfile::{DeltaOverlay, FnlIndex, RankCell, TermOrder};
use textjoin_obs::{Span, Tracer};
use textjoin_storage::MemTracker;

/// What each pass of the round loop scans on the inner side.
#[derive(Clone, Copy)]
pub(crate) enum InnerScan<'a> {
    /// HHNL: the inner document store, overlay delta documents included.
    Store,
    /// FNL: the signature file, keeping the pairs that share at least
    /// `min_overlap` terms, then a rescore of the inner overlay's delta
    /// documents, which have no signatures.
    Signatures {
        index: &'a FnlIndex,
        min_overlap: u64,
    },
}

impl InnerScan<'_> {
    /// The algorithm, its root span (which ticket phases extend) and its
    /// per-pass span.
    fn names(&self) -> (Algorithm, &'static str, &'static str) {
        match self {
            InnerScan::Store => (Algorithm::Hhnl, "hhnl", "hhnl.inner_scan"),
            InnerScan::Signatures { .. } => (Algorithm::Fnl, "fnl", "fnl.sig_scan"),
        }
    }
}

/// An opened scan source: what it pinned in memory for the whole run.
enum Source<'a> {
    Store,
    Signatures {
        index: &'a FnlIndex,
        order: TermOrder,
        tau: u64,
        overlay: Option<&'a DeltaOverlay>,
    },
}

impl<'a> Source<'a> {
    /// Loads and charges what every pass needs. Returns the source and the
    /// bytes it reserved, which the out-of-memory error reports.
    fn open(
        scan: InnerScan<'a>,
        spec0: &JoinSpec<'a>,
        root: &Span<'_>,
        tracker: &MemTracker,
    ) -> Result<(Self, u64)> {
        match scan {
            InnerScan::Store => {
                // Room to hold one inner document at a time during a scan.
                let slot = spec0.inner.store().max_doc_bytes().max(1);
                tracker.allocate(slot, "HHNL inner document slot")?;
                Ok((Source::Store, slot))
            }
            InnerScan::Signatures { index, min_overlap } => {
                // The term-ordering sidecar: real page I/O (the cost
                // model's `meta_pages`), pinned for the whole run and
                // shared by every query.
                let order = {
                    let mut span = root.child("fnl.term_order");
                    let disk = spec0.inner.store().disk();
                    let before = disk.stats();
                    let order = index.read_term_order()?;
                    if span.is_enabled() {
                        let d = disk.stats().since(&before);
                        span.record("terms", order.len() as u64);
                        span.record("seq_reads", d.seq_reads);
                        span.record("rand_reads", d.rand_reads);
                        observe_phase_sim_io(spec0.trace, "fnl.term_order", &d, spec0.sys.alpha);
                    }
                    order
                };
                tracker.allocate(index.meta_bytes().max(1), "FNL term-order sidecar")?;
                // Room to hold one signature entry at a time during a scan.
                let entry = index.max_entry_bytes().max(1);
                tracker.allocate(entry, "FNL signature entry slot")?;
                let source = Source::Signatures {
                    index,
                    order,
                    tau: min_overlap,
                    overlay: spec0.inner_delta,
                };
                Ok((source, index.meta_bytes() + entry))
            }
        }
    }

    /// The rank cells FNL keeps resident beside an outer document (none
    /// for HHNL). Outer terms absent from the inner base carry no rank and
    /// are dropped: they cannot match a signature, and overlay documents
    /// are rescored from the raw cells.
    fn rank_cells(&self, doc: &Document) -> Vec<RankCell> {
        match self {
            Source::Store => Vec::new(),
            Source::Signatures { order, .. } => order.rank_cells(doc),
        }
    }

    /// Adds a resident outer document's cells to its query's views.
    fn push(&self, group: &mut QueryRound, doc: &Document, cells: &[RankCell]) {
        match self {
            Source::Store => {
                group.terms.push(kernel::term_keys(doc));
            }
            Source::Signatures { overlay, .. } => {
                group.ranks.push(kernel::rank_keys(cells));
                if overlay.is_some() {
                    group.terms.push(kernel::term_keys(doc));
                }
            }
        }
    }

    /// One pass over the inner side, scoring every inner document against
    /// every query of the round; returns the pass's kernel work. A skipped
    /// unreadable inner document degrades every query — they all read
    /// through it.
    fn scan(
        &self,
        specs: &[JoinSpec<'_>],
        round: &mut [QueryRound],
        accs: &mut [QueryAcc],
        shared_skipped_docs: &mut u64,
    ) -> Result<ProbeCounts> {
        let spec0 = &specs[0];
        let mut work = ProbeCounts::default();
        match self {
            Source::Store => {
                // `inner_iter` folds in the shared inner overlay:
                // tombstoned base documents are dropped, delta documents
                // trail the base scan.
                for item in spec0.inner_iter() {
                    if let Some((id, doc)) = readable(spec0, item, shared_skipped_docs)? {
                        work +=
                            score_round(specs, round, accs, id, kernel::term_keys(&doc), None, 1);
                    }
                }
            }
            Source::Signatures {
                index,
                order,
                tau,
                overlay,
            } => {
                for item in index.scan_with_prefetch(spec0.prefetch_metrics("fnl_sig_scan")) {
                    if let Some((id, entry)) = readable(spec0, item, shared_skipped_docs)? {
                        let cells = kernel::rank_keys(&entry);
                        work += score_round(specs, round, accs, id, cells, Some(order), *tau);
                    }
                }
                // Tombstoned base documents are masked at probe time by
                // `inner_doc_allowed`; live delta documents are scored raw.
                let Some(overlay) = overlay else {
                    return Ok(work);
                };
                if let Some(docs) = readable(spec0, overlay.live_docs(), shared_skipped_docs)? {
                    for (id, doc) in docs {
                        let cells = kernel::term_keys(&doc);
                        work += score_round(specs, round, accs, id, cells, None, *tau);
                    }
                }
            }
        }
        Ok(work)
    }
}

/// One query's share of a memory round: its resident outer documents
/// (ids and λ-heaps, in slot order) and the postings views that hold their
/// cells.
#[derive(Default)]
struct QueryRound {
    si: usize,
    outer: Vec<(DocId, TopK)>,
    /// Term-keyed: probed by HHNL's scan and by FNL's overlay rescore.
    terms: BatchPostings,
    /// Rank-keyed: probed by FNL's signature scan.
    ranks: BatchPostings,
}

/// The round's group for query `si`, opened on first use. The streams
/// are concatenated, so a query's residents are contiguous in a round and
/// its group, once opened, is the last one.
fn query_round(round: &mut Vec<QueryRound>, si: usize) -> &mut QueryRound {
    if round.last().map(|g| g.si) != Some(si) {
        round.push(QueryRound {
            si,
            ..QueryRound::default()
        });
    }
    round.last_mut().expect("a group was just ensured")
}

/// Scores one inner document against every query of the round: through
/// each query's rank-keyed view when `order` maps ranks back to terms,
/// through its term-keyed view otherwise. Returns the work summed over
/// the queries.
fn score_round(
    specs: &[JoinSpec<'_>],
    round: &mut [QueryRound],
    accs: &mut [QueryAcc],
    inner_id: DocId,
    cells: impl Iterator<Item = (u32, u16)> + Clone,
    order: Option<&TermOrder>,
    tau: u64,
) -> ProbeCounts {
    let mut work = ProbeCounts::default();
    for group in round.iter_mut() {
        let spec = &specs[group.si];
        let (outer, cells) = (&mut group.outer, cells.clone());
        let counts = match order {
            None => {
                let factor = kernel::term_factor(spec);
                kernel::score_inner_doc(spec, &mut group.terms, outer, inner_id, cells, factor, tau)
            }
            Some(order) => {
                let factor = kernel::rank_factor(spec, order);
                kernel::score_inner_doc(spec, &mut group.ranks, outer, inner_id, cells, factor, tau)
            }
        };
        accs[group.si].add(counts);
        work += counts;
    }
    work
}

/// `Ok(None)` for a read error that degraded mode skips, counted in
/// `skipped`; other errors propagate.
pub(crate) fn readable<T>(
    spec: &JoinSpec<'_>,
    item: Result<T>,
    skipped: &mut u64,
) -> Result<Option<T>> {
    match item {
        Ok(value) => Ok(Some(value)),
        Err(e) if spec.skippable(&e) => {
            *skipped += 1;
            Ok(None)
        }
        Err(e) => Err(e),
    }
}

type OuterIter<'a> = Box<dyn Iterator<Item = Result<(DocId, Document)>> + 'a>;

/// The queries' outer streams, concatenated: query 0's outer documents,
/// then query 1's, and so on. A round with room left after one stream
/// ends keeps filling from the next — the pooled `⌈Σ N2ᵢ/Xᵢ⌉` saving over
/// `Σ ⌈N2ᵢ/Xᵢ⌉`.
struct OuterStreams<'a> {
    streams: Vec<OuterIter<'a>>,
    at: usize,
    /// A document pulled for a round it did not fit; it leads the next.
    pending: Option<(usize, DocId, Document)>,
}

impl<'a> OuterStreams<'a> {
    fn new(specs: &[JoinSpec<'a>]) -> Self {
        Self {
            streams: specs.iter().map(|s| s.outer_iter()).collect(),
            at: 0,
            pending: None,
        }
    }

    /// The next `(query, id, document)`. A cancelled query's stream,
    /// held document included, feeds no more rounds; an unreadable
    /// document a degraded spec skips counts against its query.
    fn next(
        &mut self,
        specs: &[JoinSpec<'_>],
        cancelled: &[bool],
        accs: &mut [QueryAcc],
    ) -> Result<Option<(usize, DocId, Document)>> {
        if let Some(held) = self.pending.take().filter(|(si, ..)| !cancelled[*si]) {
            return Ok(Some(held));
        }
        while let Some(stream) = self.streams.get_mut(self.at) {
            let si = self.at;
            let item = if cancelled[si] { None } else { stream.next() };
            let Some(item) = item else {
                self.at += 1;
                continue;
            };
            if let Some((id, doc)) = readable(&specs[si], item, &mut accs[si].skipped_docs)? {
                return Ok(Some((si, id, doc)));
            }
        }
        Ok(None)
    }
}

/// Runs the nested loop for `specs` (validated as one batch) over `scan`.
pub(crate) fn run(specs: &[JoinSpec<'_>], scan: InnerScan<'_>) -> Result<BatchOutcome> {
    batch::validate(specs)?;
    let started = Instant::now();
    let spec0 = &specs[0];
    let (algorithm, name, pass_name) = scan.names();
    let mut root = Tracer::maybe(spec0.trace, name);
    let disk = spec0.inner.store().disk();
    let start_io = disk.stats();
    // Before any I/O, so the tickets' thread-local tally covers the setup
    // reads (FNL's sidecar) that the first checkpoint reports.
    let mut progress = BatchProgress::new(specs);
    let tracker = MemTracker::new(&spec0.sys);
    let (source, reserved) = Source::open(scan, spec0, &root, &tracker)?;

    let mut accs: Vec<QueryAcc> = specs.iter().map(|_| QueryAcc::default()).collect();
    let mut shared_skipped_docs = 0u64;
    let mut passes = 0u64;
    let mut outers = OuterStreams::new(specs);
    let mut work = ProbeCounts::default();

    // Round boundaries are the checkpoints: a freshly latched query stops
    // feeding rounds here while its siblings fill the freed space.
    while !progress.observe(
        specs,
        disk.stats().since(&start_io).cost(spec0.sys.alpha),
        || format!("{name}.pass {passes}"),
    )? {
        // Fill one memory round. Each resident is charged its document,
        // its rank cells (FNL: the `8·K2/P` term of the cost model's X)
        // and its λ-heap.
        let mut round: Vec<QueryRound> = Vec::new();
        let mut round_bytes = 0u64;
        while let Some((si, id, doc)) = outers.next(specs, &progress.cancelled, &mut accs)? {
            let lambda = specs[si].query.lambda;
            let cells = source.rank_cells(&doc);
            let need = doc.size_bytes().max(1)
                + (RANK_CELL_BYTES * cells.len()) as u64
                + TopK::budget_bytes(lambda);
            if tracker.allocate(need, "nested-loop outer round").is_err() {
                if round.is_empty() {
                    return Err(Error::InsufficientMemory {
                        context: format!("{algorithm} cannot hold even one outer document"),
                        required_pages: (reserved + need).div_ceil(spec0.sys.page_size as u64),
                        available_pages: spec0.sys.buffer_pages,
                    });
                }
                outers.pending = Some((si, id, doc));
                break;
            }
            round_bytes += need;
            let group = query_round(&mut round, si);
            source.push(group, &doc, &cells);
            group.outer.push((id, TopK::new(lambda)));
        }
        if round.is_empty() {
            break;
        }

        passes += 1;
        let mut pass_span = root.child(pass_name);
        let pass_io = disk.stats();
        let pass = source.scan(specs, &mut round, &mut accs, &mut shared_skipped_docs)?;
        work += pass;
        if pass_span.is_enabled() {
            let d = disk.stats().since(&pass_io);
            let round_docs = round.iter().map(|g| g.outer.len() as u64).sum();
            pass_span.record("batch_docs", round_docs);
            pass_span.record("seq_reads", d.seq_reads);
            pass_span.record("rand_reads", d.rand_reads);
            pass_span.record("sim_ops", pass.sim_ops);
            if algorithm == Algorithm::Fnl {
                pass_span.record("pruned_pairs", pass.pruned_pairs);
            }
            observe_phase_sim_io(spec0.trace, pass_name, &d, spec0.sys.alpha);
        }
        drop(pass_span);

        for group in round {
            let acc = &mut accs[group.si];
            acc.passes += 1;
            let rows = group.outer.into_iter();
            acc.rows
                .extend(rows.map(|(id, topk)| (id, topk.into_matches())));
        }
        tracker.release(round_bytes);
    }

    let io = disk.stats().since(&start_io);
    if root.is_enabled() {
        root.record("passes", passes);
        root.record("seq_reads", io.seq_reads);
        root.record("rand_reads", io.rand_reads);
        root.record("sim_ops", work.sim_ops);
        if algorithm == Algorithm::Fnl {
            root.record("pruned_pairs", work.pruned_pairs);
        }
        observe_phase_sim_io(spec0.trace, name, &io, spec0.sys.alpha);
    }
    Ok(batch::finish(
        algorithm,
        spec0.sys.alpha,
        accs,
        &progress.cancelled,
        io,
        passes,
        tracker.high_water(),
        shared_skipped_docs,
        0,
        started,
    ))
}

/// Runs one spec as a batch of one, reported as a sequential run.
pub(crate) fn run_one(spec: &JoinSpec<'_>, scan: InnerScan<'_>) -> Result<JoinOutcome> {
    run(std::slice::from_ref(spec), scan).map(BatchOutcome::into_single)
}
