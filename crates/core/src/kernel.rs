//! Inverted batch scoring — the one in-memory kernel behind every
//! nested-loop pass.
//!
//! HHNL and FNL fix their I/O schedule by the memory budget: a pass holds
//! a batch of documents resident and streams the other side past it. The
//! paper prices only that schedule; how a pass *scores* its batch is free.
//! Merging the streamed document with every resident one walks almost the
//! whole document-term matrix (section 4.2). This kernel instead turns the
//! resident batch into a small inverted file once per pass —
//! [`BatchPostings`], one `(key, slot, weight)` array sorted by
//! `(key, slot)` — and scores each streamed document by walking its cells
//! and visiting only the postings their keys hit.
//!
//! The key is whatever orders both sides: the term number for HHNL and
//! for FNL's overlay rescore, the global rarity rank for FNL's signature
//! scan. Each pair's sum is accumulated in ascending key order with the
//! product `(probe weight · resident weight) · factor(key)` — the order and
//! the operand grouping of the pairwise merges ([`Weighting::score_pair_counted`],
//! [`textjoin_invfile::filtered_merge`]). The two weights are 16-bit
//! integers, so their product is exact in `f64` whichever side is named
//! first. Every pair therefore scores bit-identically to the pairwise
//! merge, under every weighting.
//!
//! [`Weighting::score_pair_counted`]: crate::Weighting::score_pair_counted

use crate::spec::JoinSpec;
use crate::topk::TopK;
use textjoin_collection::Document;
use textjoin_common::{DocId, TermId};
use textjoin_invfile::{RankCell, TermOrder};

/// One resident cell, indexed by key.
#[derive(Clone, Copy, Debug)]
struct Posting {
    key: u32,
    slot: u32,
    weight: u16,
}

/// A resident batch of documents as a `(key, slot)`-sorted postings array
/// plus a dense per-slot accumulator: an `f64` sum and a `u32` hit count
/// per slot, and a touched-slot list of at most one `u32` per slot.
///
/// Documents are [`push`](Self::push)ed in slot order; each
/// [`probe`](Self::probe) adds one streamed document's contributions into
/// the slots it shares keys with, and [`drain`](Self::drain) hands the
/// touched slots to the caller and resets them.
#[derive(Debug, Default)]
pub struct BatchPostings {
    postings: Vec<Posting>,
    sorted: bool,
    acc: Vec<f64>,
    hits: Vec<u32>,
    touched: Vec<u32>,
}

impl BatchPostings {
    /// An empty view.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds one resident document as the next slot and returns the slot.
    /// `cells` are `(key, weight)` pairs with distinct keys.
    pub fn push(&mut self, cells: impl IntoIterator<Item = (u32, u16)>) -> usize {
        let slot = self.acc.len();
        self.postings
            .extend(cells.into_iter().map(|(key, weight)| Posting {
                key,
                slot: slot as u32,
                weight,
            }));
        self.acc.push(0.0);
        self.hits.push(0);
        self.sorted = false;
        slot
    }

    /// Adds one streamed document into the accumulators. `cells` must be
    /// `(key, weight)` pairs in strictly ascending key order; each key is
    /// found with a forward-only binary search from the previous one, and
    /// every resident posting under it gets `(weight · posting weight) ·
    /// factor(key)`. `factor` is called at most once per key, and only for
    /// keys some resident document holds.
    ///
    /// Returns the cells visited: every probe cell plus every posting hit.
    pub fn probe(
        &mut self,
        cells: impl IntoIterator<Item = (u32, u16)>,
        mut factor: impl FnMut(u32) -> f64,
    ) -> u64 {
        if !self.sorted {
            self.postings.sort_unstable_by_key(|p| (p.key, p.slot));
            self.sorted = true;
        }
        let Self {
            postings,
            acc,
            hits,
            touched,
            ..
        } = self;
        let mut pos = 0usize;
        let mut visited = 0u64;
        for (key, weight) in cells {
            visited += 1;
            pos += postings[pos..].partition_point(|p| p.key < key);
            let mut f = None;
            while let Some(p) = postings.get(pos).filter(|p| p.key == key) {
                let f = *f.get_or_insert_with(|| factor(key));
                let slot = p.slot as usize;
                if hits[slot] == 0 {
                    touched.push(p.slot);
                }
                hits[slot] += 1;
                acc[slot] += weight as f64 * p.weight as f64 * f;
                visited += 1;
                pos += 1;
            }
        }
        visited
    }

    /// Hands every slot touched since the last drain to `visit` as
    /// `(slot, weighted sum, matched keys)`, in first-touch order, and
    /// resets it. Untouched slots share no key with the probes.
    pub fn drain(&mut self, mut visit: impl FnMut(usize, f64, u64)) {
        for &slot in &self.touched {
            let slot = slot as usize;
            visit(slot, self.acc[slot], self.hits[slot] as u64);
            self.acc[slot] = 0.0;
            self.hits[slot] = 0;
        }
        self.touched.clear();
    }
}

/// A document's cells as term-keyed `(key, weight)` pairs.
pub fn term_keys(doc: &Document) -> impl Iterator<Item = (u32, u16)> + Clone + '_ {
    doc.cells().iter().map(|c| (c.term.raw(), c.weight))
}

/// Rank cells as rank-keyed `(key, weight)` pairs.
pub fn rank_keys(cells: &[RankCell]) -> impl Iterator<Item = (u32, u16)> + Clone + '_ {
    cells.iter().map(|c| (c.rank, c.weight))
}

/// The spec's term factor for term-keyed views.
pub fn term_factor<'s>(spec: &'s JoinSpec<'_>) -> impl FnMut(u32) -> f64 + 's {
    let inner_profile = spec.inner.profile();
    move |term| spec.weighting.term_factor(TermId::new(term), inner_profile)
}

/// The spec's term factor for rank-keyed views: `order` maps the rank
/// back to the term the weighting knows.
pub fn rank_factor<'s>(
    spec: &'s JoinSpec<'_>,
    order: &'s TermOrder,
) -> impl FnMut(u32) -> f64 + 's {
    let inner_profile = spec.inner.profile();
    move |rank| spec.weighting.term_factor(order.term(rank), inner_profile)
}

/// CPU work of scoring streamed documents against a resident batch.
#[derive(Clone, Copy, Debug, Default)]
pub struct ProbeCounts {
    /// Multiply-adds of the pairs that reached the overlap threshold.
    pub sim_ops: u64,
    /// Probe cells walked plus resident postings visited.
    pub cells_touched: u64,
    /// Allowed pairs whose overlap fell below the threshold.
    pub pruned_pairs: u64,
}

impl std::ops::AddAssign for ProbeCounts {
    fn add_assign(&mut self, other: Self) {
        self.sim_ops += other.sim_ops;
        self.cells_touched += other.cells_touched;
        self.pruned_pairs += other.pruned_pairs;
    }
}

/// Scores one inner document against a view whose slots are the resident
/// outer documents `outer[slot]`, then flushes every touched slot in
/// order: the spec's document and pair filters, the overlap threshold
/// `min_overlap` (τ, at least 1), [`Weighting::finalize`](crate::Weighting::finalize),
/// and the outer document's λ-heap. `factor` maps a key to the
/// weighting's term factor.
pub fn score_inner_doc(
    spec: &JoinSpec<'_>,
    view: &mut BatchPostings,
    outer: &mut [(DocId, TopK)],
    inner_id: DocId,
    cells: impl IntoIterator<Item = (u32, u16)>,
    factor: impl FnMut(u32) -> f64,
    min_overlap: u64,
) -> ProbeCounts {
    let mut counts = ProbeCounts::default();
    if !spec.inner_doc_allowed(inner_id) {
        return counts;
    }
    counts.cells_touched = view.probe(cells, factor);
    let inner_profile = spec.inner.profile();
    let outer_profile = spec.outer.profile();
    let tau = min_overlap.max(1);
    let mut survivors = 0u64;
    view.drain(|slot, acc, hits| {
        let (outer_id, topk) = &mut outer[slot];
        if !spec.pair_allowed(inner_id, *outer_id) || hits < tau {
            return;
        }
        survivors += 1;
        counts.sim_ops += hits;
        let score = spec
            .weighting
            .finalize(acc, inner_profile, inner_id, outer_profile, *outer_id);
        if !score.is_zero() {
            topk.offer(inner_id, score);
        }
    });
    // Untouched pairs share no key: when allowed, they are pruned too.
    let allowed = if spec.exclude_self {
        outer
            .iter()
            .filter(|(outer_id, _)| spec.pair_allowed(inner_id, *outer_id))
            .count() as u64
    } else {
        outer.len() as u64
    };
    counts.pruned_pairs = allowed - survivors;
    counts
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Weighting;
    use proptest::prelude::*;
    use std::sync::Arc;
    use textjoin_collection::Collection;
    use textjoin_invfile::{filtered_merge, FnlIndex};
    use textjoin_storage::DiskSim;

    const WEIGHTINGS: [Weighting; 3] = [Weighting::RawCount, Weighting::Cosine, Weighting::TfIdf];

    fn doc(pairs: &[(u32, u16)]) -> Document {
        Document::from_term_counts(pairs.iter().map(|&(t, w)| (TermId::new(t), w as u32)))
    }

    #[test]
    fn probe_visits_only_shared_keys_and_drain_resets() {
        let mut view = BatchPostings::new();
        assert_eq!(view.push([(1, 2), (4, 3)]), 0);
        assert_eq!(view.push([(4, 5), (9, 1)]), 1);
        assert_eq!(view.push([(7, 1)]), 2);
        // Probe {1, 4, 8}: key 1 hits slot 0, key 4 hits slots 0 and 1,
        // key 8 hits nothing — 3 probe cells + 3 postings.
        let mut asked = Vec::new();
        let visited = view.probe([(1, 10), (4, 2), (8, 6)], |k| {
            asked.push(k);
            if k == 4 {
                0.5
            } else {
                1.0
            }
        });
        assert_eq!(visited, 6);
        assert_eq!(asked, vec![1, 4], "factor only for keys the view holds");
        let mut got = Vec::new();
        view.drain(|slot, acc, hits| got.push((slot, acc, hits)));
        assert_eq!(
            got,
            vec![(0, 20.0 + 3.0, 2), (1, 5.0, 1)],
            "first-touch order; untouched slot 2 absent"
        );
        let mut again = Vec::new();
        view.drain(|slot, acc, hits| again.push((slot, acc, hits)));
        assert!(again.is_empty(), "a drain resets the touched slots");
        view.probe([(4, 1)], |_| 1.0);
        view.drain(|slot, acc, hits| again.push((slot, acc, hits)));
        assert_eq!(again, vec![(0, 3.0, 1), (1, 5.0, 1)]);
    }

    #[test]
    fn empty_view_and_empty_probe_touch_nothing() {
        let mut view = BatchPostings::new();
        assert_eq!(view.probe([(3, 1)], |_| 1.0), 1);
        view.push(std::iter::empty());
        assert_eq!(view.probe(std::iter::empty(), |_| 1.0), 0);
        view.drain(|_, _, _| panic!("nothing was touched"));
    }

    /// Random documents over a small vocabulary, so pairs overlap often;
    /// weights up to 1000 make the products and the TF-IDF factors
    /// non-trivial floats.
    fn docs(max_docs: usize) -> impl Strategy<Value = Vec<Document>> {
        proptest::collection::vec(
            proptest::collection::vec((0u32..40, 1u16..1000), 0..12),
            1..max_docs,
        )
        .prop_map(|ds| ds.iter().map(|d| doc(d)).collect())
    }

    struct Fixture {
        _disk: Arc<DiskSim>,
        inner: Collection,
        outer: Collection,
        index: FnlIndex,
        inner_docs: Vec<Document>,
        outer_docs: Vec<Document>,
    }

    fn fixture(inner_docs: Vec<Document>, outer_docs: Vec<Document>) -> Fixture {
        let disk = Arc::new(DiskSim::new(256));
        let inner = Collection::build(Arc::clone(&disk), "inner", inner_docs.clone()).unwrap();
        let outer = Collection::build(Arc::clone(&disk), "outer", outer_docs.clone()).unwrap();
        let index = FnlIndex::build(Arc::clone(&disk), "inner", &inner).unwrap();
        Fixture {
            _disk: disk,
            inner,
            outer,
            index,
            inner_docs,
            outer_docs,
        }
    }

    fn ids(n: usize) -> impl Iterator<Item = DocId> {
        (0..n as u32).map(DocId::new)
    }

    /// Scores every inner document against the whole outer collection
    /// through `score_inner_doc`, λ large enough to keep every offer.
    /// Returns the kept `(outer, inner, score bits)` and the summed counts.
    fn kernel_join(
        spec: &JoinSpec<'_>,
        outer_keys: &[Vec<(u32, u16)>],
        inner_keys: &[Vec<(u32, u16)>],
        factor: &dyn Fn(u32) -> f64,
        min_overlap: u64,
    ) -> (Vec<(u32, u32, u64)>, ProbeCounts) {
        let mut view = BatchPostings::new();
        let mut outer: Vec<(DocId, TopK)> = Vec::new();
        for (id, keys) in ids(outer_keys.len()).zip(outer_keys) {
            view.push(keys.iter().copied());
            outer.push((id, TopK::new(inner_keys.len())));
        }
        let mut counts = ProbeCounts::default();
        for (inner_id, keys) in ids(inner_keys.len()).zip(inner_keys) {
            counts += score_inner_doc(
                spec,
                &mut view,
                &mut outer,
                inner_id,
                keys.iter().copied(),
                factor,
                min_overlap,
            );
        }
        let mut kept = Vec::new();
        for (outer_id, topk) in outer {
            for m in topk.into_matches() {
                kept.push((outer_id.raw(), m.inner.raw(), m.score.value().to_bits()));
            }
        }
        kept.sort_unstable();
        (kept, counts)
    }

    proptest! {
        #![proptest_config(ProptestConfig { cases: 64, ..ProptestConfig::default() })]

        /// The term-keyed kernel sums every pair exactly as the pairwise
        /// merge does: same score bits, same match count, every weighting.
        #[test]
        fn prop_term_kernel_equals_score_pair_counted(
            inner_docs in docs(10),
            outer_docs in docs(8),
        ) {
            let f = fixture(inner_docs, outer_docs);
            let (ip, op) = (f.inner.profile(), f.outer.profile());
            for weighting in WEIGHTINGS {
                let mut view = BatchPostings::new();
                for d in &f.outer_docs {
                    view.push(term_keys(d));
                }
                for (iid, inner) in ids(f.inner_docs.len()).zip(&f.inner_docs) {
                    view.probe(term_keys(inner), |t| weighting.term_factor(TermId::new(t), ip));
                    let mut per_slot = vec![None; f.outer_docs.len()];
                    view.drain(|slot, acc, hits| per_slot[slot] = Some((acc, hits)));
                    for ((oid, outer), got) in ids(f.outer_docs.len()).zip(&f.outer_docs).zip(per_slot) {
                        let (want, ops, _) =
                            weighting.score_pair_counted(iid, inner, oid, outer, ip, op);
                        let (acc, hits) = got.unwrap_or((0.0, 0));
                        let score = weighting.finalize(acc, ip, iid, op, oid);
                        prop_assert_eq!(hits, ops, "{:?} pair ({:?}, {:?})", weighting, iid, oid);
                        prop_assert_eq!(
                            score.value().to_bits(),
                            want.value().to_bits(),
                            "{:?} pair ({:?}, {:?})", weighting, iid, oid
                        );
                    }
                }
            }
        }

        /// The flush applies the spec's filters: with `exclude_self` and an
        /// inner-document filter on or off, the kept pairs and `sim_ops`
        /// equal a pairwise scan under `pair_allowed`/`inner_doc_allowed`.
        #[test]
        fn prop_term_kernel_flush_honours_spec_filters(
            inner_docs in docs(10),
            outer_docs in docs(8),
            exclude_self in proptest::bool::ANY,
            keep in proptest::collection::vec(proptest::bool::ANY, 10),
            filter_inner in proptest::bool::ANY,
        ) {
            let f = fixture(inner_docs, outer_docs);
            let kept_ids: Vec<DocId> =
                ids(f.inner_docs.len()).filter(|id| keep[id.index()]).collect();
            for weighting in WEIGHTINGS {
                let mut spec = JoinSpec::new(&f.inner, &f.outer).with_weighting(weighting);
                if exclude_self {
                    spec = spec.with_exclude_self();
                }
                if filter_inner {
                    spec = spec.with_inner_docs(&kept_ids);
                }
                let (ip, op) = (f.inner.profile(), f.outer.profile());
                let outer_keys: Vec<_> = f.outer_docs.iter().map(|d| term_keys(d).collect()).collect();
                let inner_keys: Vec<_> = f.inner_docs.iter().map(|d| term_keys(d).collect()).collect();
                let (got, counts) = kernel_join(
                    &spec,
                    &outer_keys,
                    &inner_keys,
                    &|t| weighting.term_factor(TermId::new(t), ip),
                    1,
                );
                let mut want = Vec::new();
                let mut sim_ops = 0;
                for (oid, outer) in ids(f.outer_docs.len()).zip(&f.outer_docs) {
                    for (iid, inner) in ids(f.inner_docs.len()).zip(&f.inner_docs) {
                        if !spec.inner_doc_allowed(iid) || !spec.pair_allowed(iid, oid) {
                            continue;
                        }
                        let (score, ops, _) =
                            weighting.score_pair_counted(iid, inner, oid, outer, ip, op);
                        sim_ops += ops;
                        if !score.is_zero() {
                            want.push((oid.raw(), iid.raw(), score.value().to_bits()));
                        }
                    }
                }
                want.sort_unstable();
                prop_assert_eq!(got, want, "{:?}", weighting);
                prop_assert_eq!(counts.sim_ops, sim_ops, "{:?}", weighting);
            }
        }

        /// The rank-keyed kernel equals the prefix/position-filtered merge
        /// at τ ∈ {1, 2, 3}: the same pairs pruned, the same match counts
        /// and the same score bits for the survivors.
        #[test]
        fn prop_rank_kernel_equals_filtered_merge(
            inner_docs in docs(10),
            outer_docs in docs(8),
            exclude_self in proptest::bool::ANY,
            keep in proptest::collection::vec(proptest::bool::ANY, 10),
            filter_inner in proptest::bool::ANY,
        ) {
            let f = fixture(inner_docs, outer_docs);
            let order = f.index.read_term_order().unwrap();
            let kept_ids: Vec<DocId> =
                ids(f.inner_docs.len()).filter(|id| keep[id.index()]).collect();
            let signatures: Vec<Vec<RankCell>> =
                f.index.scan().map(|r| r.unwrap().1).collect();
            let outer_cells: Vec<Vec<RankCell>> =
                f.outer_docs.iter().map(|d| order.rank_cells(d)).collect();
            let outer_keys: Vec<_> = outer_cells.iter().map(|c| rank_keys(c).collect()).collect();
            let inner_keys: Vec<_> = signatures.iter().map(|c| rank_keys(c).collect()).collect();
            for weighting in WEIGHTINGS {
                let mut spec = JoinSpec::new(&f.inner, &f.outer).with_weighting(weighting);
                if exclude_self {
                    spec = spec.with_exclude_self();
                }
                if filter_inner {
                    spec = spec.with_inner_docs(&kept_ids);
                }
                let (ip, op) = (f.inner.profile(), f.outer.profile());
                let factor = |rank: u32| weighting.term_factor(order.term(rank), ip);
                for tau in [1u64, 2, 3] {
                    let (got, counts) = kernel_join(&spec, &outer_keys, &inner_keys, &factor, tau);
                    let mut want = Vec::new();
                    let (mut sim_ops, mut pruned) = (0, 0);
                    for (oid, oc) in ids(outer_cells.len()).zip(&outer_cells) {
                        for (iid, ic) in ids(signatures.len()).zip(&signatures) {
                            if !spec.inner_doc_allowed(iid) || !spec.pair_allowed(iid, oid) {
                                continue;
                            }
                            match filtered_merge(oc, ic, tau, factor) {
                                None => pruned += 1,
                                Some((matched, acc, _)) => {
                                    sim_ops += matched;
                                    let score = weighting.finalize(acc, ip, iid, op, oid);
                                    if !score.is_zero() {
                                        want.push((oid.raw(), iid.raw(), score.value().to_bits()));
                                    }
                                }
                            }
                        }
                    }
                    want.sort_unstable();
                    prop_assert_eq!(got, want, "{:?} τ={}", weighting, tau);
                    prop_assert_eq!(counts.sim_ops, sim_ops, "{:?} τ={}", weighting, tau);
                    prop_assert_eq!(counts.pruned_pairs, pruned, "{:?} τ={}", weighting, tau);
                }
            }
        }
    }
}
