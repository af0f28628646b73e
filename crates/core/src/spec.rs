//! Join specifications shared by the three executors.

use textjoin_collection::{Collection, Document};
use textjoin_common::{CollectionStats, DocId, FragStats, QueryParams, Result, SystemParams};
use textjoin_costmodel::JoinInputs;
use textjoin_invfile::DeltaOverlay;
use textjoin_obs::{CancelToken, QueryTicket, Tracer};
use textjoin_storage::{DiskSim, IoStats, PrefetchMetrics};

use crate::weighting::Weighting;

/// Which outer documents participate in the join.
///
/// Section 2: selections on non-textual attributes can reduce a collection
/// before the join. A reduced *originally large* collection (group 3) is
/// read document-at-a-time in random order; a full collection — large or
/// originally small (group 4) — is scanned sequentially.
#[derive(Clone, Copy, Debug)]
pub enum OuterDocs<'a> {
    /// Every document of the outer collection, in storage order.
    Full,
    /// Only these documents (sorted by id), read randomly from the
    /// original collection.
    Selected(&'a [DocId]),
}

impl OuterDocs<'_> {
    /// Number of participating documents given the collection size.
    pub fn count(&self, collection_docs: u64) -> u64 {
        match self {
            OuterDocs::Full => collection_docs,
            OuterDocs::Selected(ids) => ids.len() as u64,
        }
    }
}

/// Everything an executor needs to run `C1 SIMILAR_TO(λ) C2`.
#[derive(Clone, Copy)]
pub struct JoinSpec<'a> {
    /// `C1` — the inner collection.
    pub inner: &'a Collection,
    /// `C2` — the outer collection.
    pub outer: &'a Collection,
    /// Which outer documents participate.
    pub outer_docs: OuterDocs<'a>,
    /// Optional restriction of the inner side to these documents (sorted by
    /// id) — the result of a selection on the inner relation's non-textual
    /// attributes. Per section 5.4, such a selection does *not* shrink the
    /// stored collection or its inverted file, so the I/O pattern is
    /// unchanged; filtered-out documents simply cannot appear as matches.
    pub inner_docs: Option<&'a [DocId]>,
    /// System parameters `B`, `P`, `α`.
    pub sys: SystemParams,
    /// Query parameters `λ`, `δ`.
    pub query: QueryParams,
    /// Similarity weighting scheme.
    pub weighting: Weighting,
    /// For self-joins (clustering, section 1: "find, for each document d,
    /// those documents similar to d in the same document collection"):
    /// when true, a pair with equal inner and outer document numbers is
    /// skipped, so a document does not trivially match itself.
    pub exclude_self: bool,
    /// Optional tracer the executors open phase/batch spans on. `None`
    /// (the default) keeps every instrumentation point a single branch.
    pub trace: Option<&'a Tracer>,
    /// Degraded mode: unreadable documents and inverted entries
    /// (`Error::Corrupt` / `Error::Io`) are skipped and counted in
    /// `ExecStats::skipped_*` instead of failing the join; the outcome is
    /// tagged `ResultQuality::Partial`. Hard errors (insufficient memory,
    /// out-of-bounds addressing) still propagate.
    pub degraded: bool,
    /// Drift-watchdog budget, in page-cost units (`seq + α·rand`). When
    /// set, executors compare their running cost against it at natural
    /// checkpoints (HHNL/VVM passes, HVNL outer documents) and abort with
    /// [`textjoin_common::Error::CostOverrun`] once exceeded — the signal
    /// for the query layer to re-plan onto the next-cheapest algorithm.
    /// `None` (the default) disables the watchdog entirely.
    pub cost_budget: Option<f64>,
    /// Base+delta overlay of the inner collection. When set, the overlay's
    /// live delta documents join as additional inner documents and
    /// tombstoned documents are masked everywhere via
    /// [`inner_doc_allowed`](Self::inner_doc_allowed). `None` (the default)
    /// keeps every pristine code path byte-identical, with zero extra I/O.
    pub inner_delta: Option<&'a DeltaOverlay>,
    /// Base+delta overlay of the outer collection: delta documents extend
    /// the outer scan and tombstoned outer documents drop out of it.
    pub outer_delta: Option<&'a DeltaOverlay>,
    /// Cooperative cancellation token, polled at the same checkpoints as
    /// the cost-budget watchdog. When observed set, the executor winds
    /// down at the next checkpoint and returns whatever it has with
    /// `ResultQuality::Partial`. `None` (the default) keeps checkpoints a
    /// single branch. Parallel workers inherit the reference, so every
    /// worker observes one token.
    pub cancel: Option<&'a CancelToken>,
    /// Live introspection ticket. When set, executors feed their
    /// accumulated page-cost deltas and current phase into it at the same
    /// checkpoints, so `/queries` shows progress while the join runs.
    pub ticket: Option<&'a QueryTicket>,
}

/// Per-run progress tracker for [`JoinSpec::checkpoint`] and the batch
/// engine's per-query checkpoints: snapshots the *thread-local* I/O
/// tally at construction and remembers how much has already been
/// reported, so ticket updates are non-negative deltas of the pages
/// **this thread** caused. Parallel workers share one disk —
/// the global tally includes sibling traffic — but the thread-local
/// mirrors partition it exactly, so per-worker delta streams interleave
/// into a monotone, non-double-counted sum on the shared ticket.
#[derive(Clone, Copy, Debug)]
pub struct Checkpoint {
    base: IoStats,
    reported: f64,
}

impl Checkpoint {
    /// Must be created on the thread that will perform the run's I/O,
    /// before any of it happens.
    pub fn new() -> Self {
        Self {
            base: DiskSim::thread_io_stats(),
            reported: 0.0,
        }
    }

    /// This thread's page cost (`seq + α·rand`) since the previous call,
    /// never negative.
    pub(crate) fn take_pages(&mut self, alpha: f64) -> f64 {
        let own = DiskSim::thread_io_stats().since(&self.base).cost(alpha);
        let delta = (own - self.reported).max(0.0);
        self.reported = self.reported.max(own);
        delta
    }
}

impl Default for Checkpoint {
    fn default() -> Self {
        Self::new()
    }
}

impl<'a> JoinSpec<'a> {
    /// A spec joining two full collections with default parameters.
    pub fn new(inner: &'a Collection, outer: &'a Collection) -> Self {
        Self {
            inner,
            outer,
            outer_docs: OuterDocs::Full,
            inner_docs: None,
            sys: SystemParams::paper_base(),
            query: QueryParams::paper_base(),
            weighting: Weighting::RawCount,
            exclude_self: false,
            trace: None,
            degraded: false,
            cost_budget: None,
            inner_delta: None,
            outer_delta: None,
            cancel: None,
            ticket: None,
        }
    }

    /// Attaches a cooperative cancellation token. Executors poll it at
    /// their per-pass checkpoints.
    pub fn with_cancel(self, cancel: &'a CancelToken) -> Self {
        Self {
            cancel: Some(cancel),
            ..self
        }
    }

    /// Attaches a live introspection ticket that checkpoints update.
    pub fn with_ticket(self, ticket: &'a QueryTicket) -> Self {
        Self {
            ticket: Some(ticket),
            ..self
        }
    }

    /// Attaches a base+delta overlay to the inner side.
    pub fn with_inner_delta(self, delta: &'a DeltaOverlay) -> Self {
        Self {
            inner_delta: Some(delta),
            ..self
        }
    }

    /// Attaches a base+delta overlay to the outer side.
    pub fn with_outer_delta(self, delta: &'a DeltaOverlay) -> Self {
        Self {
            outer_delta: Some(delta),
            ..self
        }
    }

    /// Enables degraded mode: skip unreadable data instead of failing.
    pub fn with_degraded(self) -> Self {
        Self {
            degraded: true,
            ..self
        }
    }

    /// Whether degraded mode may absorb this error by skipping the data it
    /// covers. Only read-level failures qualify; planning and memory
    /// errors always propagate.
    #[inline]
    pub fn skippable(&self, err: &textjoin_common::Error) -> bool {
        use textjoin_common::Error;
        self.degraded && matches!(err, Error::Corrupt(_) | Error::Io { .. })
    }

    /// Arms the drift watchdog: the join aborts with
    /// [`textjoin_common::Error::CostOverrun`] once its running page cost
    /// exceeds `budget`.
    pub fn with_cost_budget(self, budget: f64) -> Self {
        Self {
            cost_budget: Some(budget),
            ..self
        }
    }

    /// Disarms the drift watchdog (used when re-planning onto a fallback
    /// algorithm, which must be allowed to finish).
    pub fn without_cost_budget(self) -> Self {
        Self {
            cost_budget: None,
            ..self
        }
    }

    /// Watchdog checkpoint: errors with `CostOverrun` if `cost` (the join's
    /// running page cost, `seq + α·rand`) exceeds the armed budget. A cheap
    /// single branch when the watchdog is disarmed.
    #[inline]
    pub fn check_cost_budget(&self, cost: f64) -> Result<()> {
        if let Some(budget) = self.cost_budget {
            if cost > budget {
                return Err(textjoin_common::Error::CostOverrun {
                    observed_pages: cost.ceil() as u64,
                    budget_pages: budget.ceil() as u64,
                });
            }
        }
        Ok(())
    }

    /// Combined per-pass checkpoint: feeds the live ticket (this thread's
    /// page-cost delta since the previous checkpoint plus the current
    /// phase), polls the cancel token, then runs the cost-budget watchdog.
    ///
    /// `cost` is the run's accumulated page cost (`seq + α·rand`) as the
    /// executor sees it on the shared disk; it drives the budget watchdog
    /// and the `observed_pages` a cancel reports. Ticket pages come from
    /// the *thread-local* I/O tally instead (see [`Checkpoint`]), so
    /// concurrent workers never double-count sibling traffic. The `phase`
    /// closure only runs when a ticket is attached, keeping the common
    /// no-ticket path allocation-free. Returns
    /// [`textjoin_common::Error::Cancelled`] when the token is observed
    /// set; callers absorb that into a `Partial` outcome.
    #[inline]
    pub fn checkpoint(
        &self,
        progress: &mut Checkpoint,
        cost: f64,
        phase: impl FnOnce() -> String,
    ) -> Result<()> {
        if let Some(ticket) = self.ticket {
            ticket.add_pages(progress.take_pages(self.sys.alpha));
            ticket.set_phase(phase());
        }
        if self.cancel.is_some_and(|c| c.is_cancelled()) {
            return Err(textjoin_common::Error::Cancelled {
                observed_pages: cost.ceil() as u64,
            });
        }
        self.check_cost_budget(cost)
    }

    /// Attaches a tracer; executors will open spans per phase and batch.
    pub fn with_trace(self, trace: &'a Tracer) -> Self {
        Self {
            trace: Some(trace),
            ..self
        }
    }

    /// Restricts the outer side to selected documents.
    pub fn with_outer_docs(self, outer_docs: OuterDocs<'a>) -> Self {
        Self { outer_docs, ..self }
    }

    /// Restricts the inner side to these documents (must be sorted by id).
    pub fn with_inner_docs(self, inner_docs: &'a [DocId]) -> Self {
        debug_assert!(inner_docs.windows(2).all(|w| w[0] < w[1]));
        Self {
            inner_docs: Some(inner_docs),
            ..self
        }
    }

    /// Whether an inner document may appear as a match. Tombstoned
    /// documents of the inner overlay are masked here, which covers every
    /// executor's match emission in one place.
    #[inline]
    pub fn inner_doc_allowed(&self, doc: DocId) -> bool {
        if self.inner_delta.is_some_and(|d| d.is_deleted(doc)) {
            return false;
        }
        match self.inner_docs {
            None => true,
            Some(ids) => ids.binary_search(&doc).is_ok(),
        }
    }

    /// Replaces the system parameters.
    pub fn with_sys(self, sys: SystemParams) -> Self {
        Self { sys, ..self }
    }

    /// Replaces the query parameters.
    pub fn with_query(self, query: QueryParams) -> Self {
        Self { query, ..self }
    }

    /// Replaces the weighting scheme.
    pub fn with_weighting(self, weighting: Weighting) -> Self {
        Self { weighting, ..self }
    }

    /// Marks the join as a self-join whose identical pairs are skipped
    /// (clustering mode). Only meaningful when both sides are the same
    /// collection, where document numbers coincide.
    pub fn with_exclude_self(self) -> Self {
        Self {
            exclude_self: true,
            ..self
        }
    }

    /// Whether the pair `(inner, outer)` participates.
    #[inline]
    pub fn pair_allowed(&self, inner: DocId, outer: DocId) -> bool {
        !(self.exclude_self && inner == outer)
    }

    /// Number of participating outer documents (live ones only when an
    /// outer overlay is attached).
    pub fn num_outer_docs(&self) -> u64 {
        match (self.outer_docs, self.outer_delta) {
            (_, None) => self.outer_docs.count(self.outer.store().num_docs()),
            (OuterDocs::Full, Some(overlay)) => {
                let base_live = self
                    .outer
                    .store()
                    .doc_ids()
                    .into_iter()
                    .filter(|&id| !overlay.is_deleted(id))
                    .count() as u64;
                base_live + overlay.live_ids().len() as u64
            }
            (OuterDocs::Selected(ids), Some(overlay)) => {
                ids.iter().filter(|&&id| !overlay.is_deleted(id)).count() as u64
            }
        }
    }

    /// The participating outer document ids in ascending order: the base
    /// store's ids (minus tombstones) followed by the overlay's live delta
    /// ids, which are strictly larger by the id-allocation invariant. The
    /// VVM family builds its accumulator chunks from this list, so outer
    /// tombstone masking falls out of chunk membership.
    pub fn outer_live_ids(&self) -> Vec<DocId> {
        match self.outer_docs {
            OuterDocs::Full => match self.outer_delta {
                None => self.outer.store().doc_ids(),
                Some(overlay) => {
                    let mut ids: Vec<DocId> = self
                        .outer
                        .store()
                        .doc_ids()
                        .into_iter()
                        .filter(|&id| !overlay.is_deleted(id))
                        .collect();
                    ids.extend(overlay.live_ids());
                    ids
                }
            },
            OuterDocs::Selected(ids) => match self.outer_delta {
                None => ids.to_vec(),
                Some(overlay) => ids
                    .iter()
                    .copied()
                    .filter(|&id| !overlay.is_deleted(id))
                    .collect(),
            },
        }
    }

    /// The cost-model inputs matching this execution: *measured* statistics
    /// of both collections (outer side restricted by the selection), the
    /// measured term-overlap probability, and the spec's parameters.
    pub fn cost_inputs(&self) -> JoinInputs {
        let inner_stats = self.inner.profile().stats();
        let outer_full = self.outer.profile().stats();
        let (outer_stats, outer_original) = match self.outer_docs {
            OuterDocs::Full => (outer_full, None),
            OuterDocs::Selected(ids) => {
                (outer_full.select_docs(ids.len() as u64), Some(outer_full))
            }
        };
        let q = self
            .outer
            .profile()
            .term_overlap_probability(self.inner.profile());
        let inner_frag = self.inner_delta.map_or_else(FragStats::default, |d| {
            d.frag_stats(self.inner.store().num_docs())
        });
        let outer_frag = self.outer_delta.map_or_else(FragStats::default, |d| {
            d.frag_stats(self.outer.store().num_docs())
        });
        JoinInputs {
            inner: inner_stats,
            outer: outer_stats,
            sys: self.sys,
            query: self.query,
            q,
            outer_original,
            inner_frag,
            outer_frag,
            // The signature index lives outside the spec: the FNL-aware
            // entry points overlay its measured stats via `with_fnl`.
            fnl: None,
        }
    }

    /// The nominal statistics pair `(inner, outer)` for reporting.
    pub fn stats(&self) -> (CollectionStats, CollectionStats) {
        (self.inner.profile().stats(), self.outer.profile().stats())
    }

    /// Reads the participating outer documents in order, invoking `f` for
    /// each. `Full` streams the collection sequentially; `Selected` fetches
    /// each document randomly (group 3 pricing).
    pub fn for_each_outer_doc(
        &self,
        mut f: impl FnMut(DocId, Document) -> Result<()>,
    ) -> Result<()> {
        for item in self.outer_iter() {
            let (id, doc) = item?;
            f(id, doc)?;
        }
        Ok(())
    }

    /// A prefetch-metrics sink on the trace's registry (if both exist), so
    /// scanner readahead counters surface in EXPLAIN ANALYZE and exports.
    pub fn prefetch_metrics(&self, label: &str) -> Option<PrefetchMetrics> {
        self.trace
            .and_then(|t| t.registry())
            .map(|r| PrefetchMetrics::register(r, label))
    }

    /// A lazy iterator over the participating outer documents; I/O happens
    /// on pull, so executors can interleave reading outer documents with
    /// other work (HHNL fills memory batches this way).
    pub fn outer_iter(&self) -> Box<dyn Iterator<Item = Result<(DocId, Document)>> + 'a> {
        let delta = self.outer_delta;
        match self.outer_docs {
            OuterDocs::Full => {
                let base = self
                    .outer
                    .store()
                    .scan_with_prefetch(self.prefetch_metrics("outer_scan"));
                match delta {
                    None => Box::new(base),
                    Some(overlay) => {
                        let filtered = base.filter(move |item| match item {
                            Ok((id, _)) => !overlay.is_deleted(*id),
                            Err(_) => true,
                        });
                        // The overlay read happens on first pull, not at
                        // iterator construction, keeping the scan lazy.
                        let tail =
                            std::iter::once(()).flat_map(move |()| match overlay.live_docs() {
                                Ok(docs) => docs.into_iter().map(Ok).collect::<Vec<_>>(),
                                Err(e) => vec![Err(e)],
                            });
                        Box::new(filtered.chain(tail))
                    }
                }
            }
            OuterDocs::Selected(ids) => {
                let store = self.outer.store();
                match delta {
                    None => Box::new(
                        ids.iter()
                            .map(move |&id| store.read_doc_direct(id).map(|d| (id, d))),
                    ),
                    Some(overlay) => Box::new(ids.iter().filter_map(move |&id| {
                        if overlay.is_deleted(id) {
                            return None;
                        }
                        if !store.contains(id) {
                            match overlay.doc(id) {
                                Ok(Some(doc)) => return Some(Ok((id, doc))),
                                Ok(None) => {} // unknown id: surface the base store's error
                                Err(e) => return Some(Err(e)),
                            }
                        }
                        Some(store.read_doc_direct(id).map(|d| (id, d)))
                    })),
                }
            }
        }
    }

    /// A lazy iterator over the participating inner documents: the base
    /// scan (minus tombstoned documents) followed by the inner overlay's
    /// live delta documents. The nested-loop executors stream the inner
    /// collection through this, so delta documents compete for the λ best
    /// matches exactly like base documents. Callers still apply
    /// [`inner_doc_allowed`](Self::inner_doc_allowed) for the inner
    /// selection.
    pub fn inner_iter(&self) -> Box<dyn Iterator<Item = Result<(DocId, Document)>> + 'a> {
        let base = self
            .inner
            .store()
            .scan_with_prefetch(self.prefetch_metrics("inner_scan"));
        match self.inner_delta {
            None => Box::new(base),
            Some(overlay) => {
                let filtered = base.filter(move |item| match item {
                    Ok((id, _)) => !overlay.is_deleted(*id),
                    Err(_) => true,
                });
                let tail = std::iter::once(()).flat_map(move |()| match overlay.live_docs() {
                    Ok(docs) => docs.into_iter().map(Ok).collect::<Vec<_>>(),
                    Err(e) => vec![Err(e)],
                });
                Box::new(filtered.chain(tail))
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;
    use textjoin_collection::SynthSpec;
    use textjoin_common::CollectionStats;
    use textjoin_storage::DiskSim;

    fn tiny() -> (Arc<DiskSim>, Collection, Collection) {
        let disk = Arc::new(DiskSim::new(256));
        let c1 = SynthSpec::from_stats(CollectionStats::new(20, 8.0, 60), 1)
            .generate(Arc::clone(&disk), "c1")
            .unwrap();
        let c2 = SynthSpec::from_stats(CollectionStats::new(10, 8.0, 60), 2)
            .generate(Arc::clone(&disk), "c2")
            .unwrap();
        (disk, c1, c2)
    }

    #[test]
    fn full_outer_iterates_in_storage_order() {
        let (_, c1, c2) = tiny();
        let spec = JoinSpec::new(&c1, &c2);
        let mut ids = Vec::new();
        spec.for_each_outer_doc(|id, _| {
            ids.push(id.raw());
            Ok(())
        })
        .unwrap();
        assert_eq!(ids, (0..10u32).collect::<Vec<_>>());
        assert_eq!(spec.num_outer_docs(), 10);
    }

    #[test]
    fn selected_outer_reads_only_chosen_docs_randomly() {
        let (disk, c1, c2) = tiny();
        let chosen = [DocId::new(2), DocId::new(7)];
        let spec = JoinSpec::new(&c1, &c2).with_outer_docs(OuterDocs::Selected(&chosen));
        disk.reset_stats();
        disk.reset_head();
        let mut ids = Vec::new();
        spec.for_each_outer_doc(|id, _| {
            ids.push(id.raw());
            Ok(())
        })
        .unwrap();
        assert_eq!(ids, vec![2, 7]);
        assert_eq!(spec.num_outer_docs(), 2);
        assert!(
            disk.stats().rand_reads >= 1,
            "selected docs are random reads"
        );
    }

    #[test]
    fn cost_inputs_reflect_selection() {
        let (_, c1, c2) = tiny();
        let chosen = [DocId::new(0)];
        let spec = JoinSpec::new(&c1, &c2).with_outer_docs(OuterDocs::Selected(&chosen));
        let inputs = spec.cost_inputs();
        assert_eq!(inputs.outer.num_docs, 1);
        assert_eq!(inputs.inner.num_docs, 20);
        assert!(inputs.q > 0.0 && inputs.q <= 1.0);
    }
}
