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
//!
//! HVNL and VVM sum each pair term by term instead, and hold the running
//! sums in [`SimRows`]: one dense row per outer slot, indexed by inner
//! document number, with a first-touch bitset and a touched list that
//! record which pairs are non-zero. The same operand grouping and the same
//! ascending term order keep those sums bit-identical too.
//!
//! [`Weighting::score_pair_counted`]: crate::Weighting::score_pair_counted

use crate::spec::JoinSpec;
use crate::topk::TopK;
use textjoin_collection::Document;
use textjoin_common::{DocId, ICell, TermId};
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

/// Dense similarity accumulators for the term-at-a-time algorithms: one
/// `f64` row per outer slot, indexed by inner document number, for every
/// document number below the width (base plus delta ids, see
/// [`JoinSpec::inner_id_bound`]).
///
/// A pair's sum starts at `0.0` and grows by `(outer weight · inner weight)
/// · factor` per [`add`](Self::add), so callers that add terms in
/// ascending order reproduce the pairwise sums bit for bit. Which pairs are
/// non-zero is recorded apart from the sums: a per-row first-touch bitset
/// and a touched list in first-touch order. A zero contribution therefore
/// still makes its pair non-zero, exactly as an inserted map entry did.
///
/// A row is allocated the first time its slot is touched and kept: a
/// [`drain`](Self::drain) or [`emit`](Self::emit) resets only the touched
/// entries, so later passes and outer documents reuse it. The price is
/// `8·width` bytes (plus a `width/8`-byte bitset) per touched slot, however
/// few of its pairs are non-zero.
#[derive(Debug)]
pub struct SimRows {
    width: usize,
    rows: Vec<Row>,
    nonzero: u64,
}

#[derive(Debug, Default)]
struct Row {
    sums: Vec<f64>,
    seen: Vec<u64>,
    touched: Vec<u32>,
}

impl Row {
    /// Adds `value` to `doc`'s sum; whether this touched it first.
    #[inline]
    fn add(&mut self, doc: u32, value: f64) -> bool {
        let d = doc as usize;
        let (word, bit) = (d / 64, 1u64 << (d % 64));
        let fresh = self.seen[word] & bit == 0;
        if fresh {
            self.seen[word] |= bit;
            self.touched.push(doc);
        }
        self.sums[d] += value;
        fresh
    }
}

/// What one [`SimRows::add`] did.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Added {
    /// Pairs added to: one multiply-add each.
    pub pairs: u64,
    /// Pairs among them touched for the first time.
    pub fresh: u64,
}

impl SimRows {
    /// Empty accumulators for inner document numbers below `width`.
    pub fn new(width: usize) -> Self {
        Self {
            width,
            rows: Vec::new(),
            nonzero: 0,
        }
    }

    /// The row of `slot`, allocated on first use.
    fn row(&mut self, slot: usize) -> &mut Row {
        if slot >= self.rows.len() {
            self.rows.resize_with(slot + 1, Row::default);
        }
        let row = &mut self.rows[slot];
        if row.sums.len() != self.width {
            row.sums = vec![0.0; self.width];
            row.seen = vec![0; self.width.div_ceil(64)];
        }
        row
    }

    /// Adds `(weight · cell weight) · factor` to the sum of `slot` and each
    /// cell's document. `cells` must carry distinct documents.
    pub fn add<'c>(
        &mut self,
        slot: usize,
        weight: u16,
        factor: f64,
        cells: impl IntoIterator<Item = &'c ICell>,
    ) -> Added {
        let row = self.row(slot);
        let mut added = Added::default();
        for c in cells {
            added.pairs += 1;
            let fresh = row.add(c.doc.raw(), weight as f64 * c.weight as f64 * factor);
            added.fresh += u64::from(fresh);
        }
        self.nonzero += added.fresh;
        added
    }

    /// Non-zero pairs held: the pairs touched since they were last drained.
    pub fn nonzero(&self) -> u64 {
        self.nonzero
    }

    /// Hands every non-zero pair of `slot` to `visit` as `(inner document,
    /// sum)`, in first-touch order, and resets them.
    pub fn drain(&mut self, slot: usize, mut visit: impl FnMut(DocId, f64)) {
        let Some(row) = self.rows.get_mut(slot) else {
            return;
        };
        for &doc in &row.touched {
            let d = doc as usize;
            visit(DocId::new(doc), row.sums[d]);
            row.sums[d] = 0.0;
            // Every set bit belongs to a touched document, so clearing
            // whole words clears exactly this row's marks.
            row.seen[d / 64] = 0;
        }
        self.nonzero -= row.touched.len() as u64;
        row.touched.clear();
    }

    /// Drains `slot` into the λ-heap of outer document `outer_id`: each
    /// sum through [`Weighting::finalize`](crate::Weighting::finalize),
    /// zero scores dropped.
    pub fn emit(&mut self, slot: usize, spec: &JoinSpec<'_>, outer_id: DocId, topk: &mut TopK) {
        let (inner_profile, outer_profile) = (spec.inner.profile(), spec.outer.profile());
        self.drain(slot, |inner_id, sum| {
            let score =
                spec.weighting
                    .finalize(sum, inner_profile, inner_id, outer_profile, outer_id);
            if !score.is_zero() {
                topk.offer(inner_id, score);
            }
        });
    }

    /// Adds every non-zero pair of `partial` into these rows, slot by
    /// slot, and resets `partial`. Folding the partial tables of
    /// consecutive term ranges in range order keeps each pair's sum in
    /// that order.
    pub fn fold(&mut self, partial: &mut SimRows) {
        for slot in 0..partial.rows.len() {
            partial.drain(slot, |inner_id, sum| {
                let fresh = self.row(slot).add(inner_id.raw(), sum);
                self.nonzero += u64::from(fresh);
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Weighting;
    use proptest::prelude::*;
    use std::collections::hash_map::Entry;
    use std::collections::{BTreeMap, HashMap};
    use std::sync::Arc;
    use textjoin_collection::Collection;
    use textjoin_invfile::{filtered_merge, DeltaOverlay, FnlIndex};
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

    #[test]
    fn sim_rows_mark_first_touch_apart_from_the_sum_and_reuse_rows() {
        let cells = |pairs: &[(u32, u16)]| -> Vec<ICell> {
            pairs
                .iter()
                .map(|&(d, w)| ICell::new(DocId::new(d), w))
                .collect()
        };
        let mut rows = SimRows::new(70);
        let a = rows.add(2, 3, 1.0, &cells(&[(1, 2), (65, 0)]));
        assert_eq!(
            a,
            Added { pairs: 2, fresh: 2 },
            "a zero contribution is non-zero"
        );
        let b = rows.add(2, 1, 0.5, &cells(&[(65, 0), (69, 4)]));
        assert_eq!(b, Added { pairs: 2, fresh: 1 });
        assert_eq!(rows.add(0, 1, 1.0, &cells(&[(1, 1)])).fresh, 1);
        assert_eq!(rows.nonzero(), 4);
        let mut got = Vec::new();
        rows.drain(2, |d, sum| got.push((d.raw(), sum)));
        assert_eq!(
            got,
            vec![(1, 6.0), (65, 0.0), (69, 2.0)],
            "first-touch order"
        );
        assert_eq!(rows.nonzero(), 1);
        // The drained row is reused from zero; the untouched slot 1 and a
        // slot past the end drain nothing.
        assert_eq!(rows.add(2, 1, 1.0, &cells(&[(65, 3)])).fresh, 1);
        got.clear();
        rows.drain(2, |d, sum| got.push((d.raw(), sum)));
        rows.drain(1, |_, _| panic!("slot 1 was never touched"));
        rows.drain(9, |_, _| panic!("slot 9 does not exist"));
        assert_eq!(got, vec![(65, 3.0)]);
    }

    /// The accumulator the executors kept before [`SimRows`]: outer slot →
    /// (inner document → sum), a pair non-zero once its entry exists.
    #[derive(Default)]
    struct MapAcc(HashMap<u32, HashMap<u32, f64>>);

    impl MapAcc {
        /// One pair's contribution; whether it inserted the entry.
        fn add(&mut self, slot: usize, inner: DocId, contribution: f64) -> bool {
            match self.0.entry(slot as u32).or_default().entry(inner.raw()) {
                Entry::Occupied(mut e) => {
                    *e.get_mut() += contribution;
                    false
                }
                Entry::Vacant(e) => {
                    e.insert(contribution);
                    true
                }
            }
        }

        fn nonzero(&self) -> u64 {
            self.0.values().map(|m| m.len() as u64).sum()
        }

        /// The partial-table fold of the parallel and sharded executors.
        fn fold(&mut self, partial: MapAcc) {
            for (slot, per_outer) in partial.0 {
                let dst = self.0.entry(slot).or_default();
                for (inner, sum) in per_outer {
                    *dst.entry(inner).or_insert(0.0) += sum;
                }
            }
        }

        /// Every non-zero pair as sorted `(slot, inner, sum bits)`.
        fn pairs(&self) -> Vec<(u32, u32, u64)> {
            let mut out: Vec<_> = self
                .0
                .iter()
                .flat_map(|(&slot, m)| m.iter().map(move |(&i, &sum)| (slot, i, sum.to_bits())))
                .collect();
            out.sort_unstable();
            out
        }
    }

    /// Drains every slot of `rows` as sorted `(slot, inner, sum bits)`.
    fn drained(rows: &mut SimRows, slots: usize) -> Vec<(u32, u32, u64)> {
        let mut out = Vec::new();
        for slot in 0..slots {
            rows.drain(slot, |d, sum| {
                out.push((slot as u32, d.raw(), sum.to_bits()))
            });
        }
        out.sort_unstable();
        out
    }

    /// Postings `term → ascending (document, weight)` of `docs`, with the
    /// weight of every cell whose running index hits `zero` set to 0 so
    /// zero contributions occur.
    fn postings(docs: &[Document], zero: &[bool]) -> BTreeMap<u32, Vec<ICell>> {
        let mut out: BTreeMap<u32, Vec<ICell>> = BTreeMap::new();
        let mut n = 0usize;
        for (id, d) in ids(docs.len()).zip(docs) {
            for c in d.cells() {
                let weight = if zero[n % zero.len()] { 0 } else { c.weight };
                out.entry(c.term.raw())
                    .or_default()
                    .push(ICell::new(id, weight));
                n += 1;
            }
        }
        out
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
        /// [`SimRows`] sums every pair term by term exactly as the nested
        /// maps did — same bits, same multiply-adds, same first touches and
        /// the same non-zero count — under every weighting, with and
        /// without `exclude_self`, an inner selection and delta deletes.
        #[test]
        fn prop_sim_rows_equal_the_nested_map_accumulator(
            inner_docs in docs(12),
            outer_docs in docs(8),
            zero in proptest::collection::vec(prop_oneof![Just(false), Just(false), Just(true)], 1..9),
            exclude_self in proptest::bool::ANY,
            keep in proptest::collection::vec(proptest::bool::ANY, 12),
            filter_inner in proptest::bool::ANY,
            deleted in proptest::collection::vec(0u32..12, 0..4),
        ) {
            let f = fixture(inner_docs, outer_docs);
            let inner_post = postings(&f.inner_docs, &zero);
            let outer_post = postings(&f.outer_docs, &zero);
            let kept_ids: Vec<DocId> =
                ids(f.inner_docs.len()).filter(|id| keep[id.index()]).collect();
            let mut overlay = DeltaOverlay::new();
            for &d in &deleted {
                overlay.delete(DocId::new(d));
            }
            for weighting in WEIGHTINGS {
                let mut spec = JoinSpec::new(&f.inner, &f.outer)
                    .with_weighting(weighting)
                    .with_inner_delta(&overlay);
                if exclude_self {
                    spec = spec.with_exclude_self();
                }
                if filter_inner {
                    spec = spec.with_inner_docs(&kept_ids);
                }
                let ip = f.inner.profile();
                let mut rows = SimRows::new(spec.inner_id_bound());
                // The second round reuses the drained rows, as a later pass
                // or outer document does.
                for _round in 0..2 {
                let mut oracle = MapAcc::default();
                let (mut ops, mut fresh) = (0u64, 0u64);
                let (mut want_ops, mut want_fresh) = (0u64, 0u64);
                let mut allowed: Vec<ICell> = Vec::new();
                for (&term, inner_cells) in &inner_post {
                    let Some(outer_cells) = outer_post.get(&term) else {
                        continue;
                    };
                    let factor = weighting.term_factor(TermId::new(term), ip);
                    if factor == 0.0 {
                        continue;
                    }
                    allowed.clear();
                    allowed.extend(inner_cells.iter().filter(|ic| spec.inner_doc_allowed(ic.doc)));
                    for oc in outer_cells {
                        let slot = oc.doc.index();
                        let added = rows.add(
                            slot,
                            oc.weight,
                            factor,
                            allowed.iter().filter(|ic| spec.pair_allowed(ic.doc, oc.doc)),
                        );
                        ops += added.pairs;
                        fresh += added.fresh;
                        for ic in inner_cells {
                            if !spec.inner_doc_allowed(ic.doc) || !spec.pair_allowed(ic.doc, oc.doc) {
                                continue;
                            }
                            want_ops += 1;
                            let contribution = oc.weight as f64 * ic.weight as f64 * factor;
                            want_fresh += u64::from(oracle.add(slot, ic.doc, contribution));
                        }
                    }
                }
                prop_assert_eq!(ops, want_ops, "{:?}", weighting);
                prop_assert_eq!(fresh, want_fresh, "{:?}", weighting);
                prop_assert_eq!(rows.nonzero(), oracle.nonzero(), "{:?}", weighting);
                prop_assert_eq!(drained(&mut rows, f.outer_docs.len()), oracle.pairs(), "{:?}", weighting);
                prop_assert_eq!(rows.nonzero(), 0, "{:?}: a drain empties the rows", weighting);
                }
            }
        }

        /// Folding k partial tables in index order gives the bits and the
        /// non-zero count of the nested-map fold.
        #[test]
        fn prop_sim_rows_fold_equals_the_nested_map_fold(
            partials in proptest::collection::vec(
                proptest::collection::vec(
                    (0usize..4, 0u32..20, prop_oneof![Just(0u16), 1u16..1000], 0u32..8),
                    0..30,
                ),
                1..5,
            ),
        ) {
            let factors = [1.0, 0.5, 0.1, 1.0 / 3.0, 2.7, 1e-3, 7.25, 0.0];
            let mut rows: Vec<SimRows> = partials.iter().map(|_| SimRows::new(20)).collect();
            let mut maps: Vec<MapAcc> = partials.iter().map(|_| MapAcc::default()).collect();
            for ((adds, table), map) in partials.iter().zip(&mut rows).zip(&mut maps) {
                for &(slot, inner, weight, f) in adds {
                    let factor = factors[f as usize];
                    let cell = ICell::new(DocId::new(inner), weight);
                    let fresh = table.add(slot, 3, factor, [&cell]).fresh;
                    let want = map.add(slot, cell.doc, 3.0 * weight as f64 * factor);
                    prop_assert_eq!(fresh == 1, want);
                }
                prop_assert_eq!(table.nonzero(), map.nonzero());
            }
            let (acc, rest) = rows.split_first_mut().unwrap();
            for partial in rest {
                acc.fold(partial);
                prop_assert_eq!(partial.nonzero(), 0, "a fold drains the partial");
            }
            let mut maps = maps.into_iter();
            let mut want = maps.next().unwrap();
            for partial in maps {
                want.fold(partial);
            }
            prop_assert_eq!(acc.nonzero(), want.nonzero());
            prop_assert_eq!(drained(acc, 4), want.pairs());
        }
    }
}
