//! The FNL signature index: per-document rarity-ordered signatures.
//!
//! The filtered nested loop (FNL) keeps HHNL's loop structure but scans a
//! *signature file* instead of the document store: for each base document,
//! its d-cells re-encoded as `(rank, weight)` pairs where `rank` is the
//! term's position in the **global rarity order** — document frequency
//! ascending, term number as the tie-break, a total order. Two properties
//! make this worth a second copy of the collection:
//!
//! * **Compression.** Ranks within one signature are strictly increasing,
//!   so they gap-code as varints exactly like posting lists; the signature
//!   file (`Ip` pages) is typically 40–60% of the document store (`D1`),
//!   and FNL's per-pass scan bill shrinks by the same factor.
//! * **Prefix/position filtering.** With both sides in the same global
//!   order, two documents can share at least `τ` terms only if their first
//!   `n − τ + 1` rarest terms intersect ([`prefix_len`]); during the
//!   merge, `matched + min(remaining_a, remaining_b) < τ` prunes the pair
//!   without finishing it. Both checks are conservative upper bounds, so
//!   the candidate set is a superset of the qualifying pairs — never a
//!   miss.
//!
//! The index is built from the **base** collection only. Delta-overlay
//! documents are not in it; executors rescore them from the raw side file
//! each pass (the `ΔD1` term of the cost model). Tombstones are masked at
//! probe time via the executor's usual `inner_doc_allowed` check, so a
//! stale signature entry can never resurrect a deleted document.
//!
//! On disk the index is two files, both written through the page-packed
//! append path and read back with real page I/O:
//!
//! * `<name>.fnlsig` — the signatures, gap-coded, tightly packed;
//! * `<name>.fnlmeta` — the term-order sidecar: for each rank, the term
//!   number and its document frequency (varints). Executors read it once
//!   at start-up (`M` pages) to translate outer documents into rank space.

use crate::codec::{read_varint, write_varint};
use std::collections::HashMap;
use std::sync::Arc;
use textjoin_collection::{Collection, Document};
use textjoin_common::{DocId, Error, FnlStats, Result, TermId};
use textjoin_storage::{
    ByteSpan, DiskSim, FileId, PageKind, PrefetchMetrics, PrefetchStats, Prefetcher,
};

/// Length of the filtering prefix for a document with `num_terms` terms at
/// overlap threshold `min_overlap` (`τ`).
///
/// Two documents with at least `τ` common terms must share a term within
/// the first `n − (τ − 1)` of either side's rarity-ordered terms: if the
/// whole prefix misses, at most `τ − 1` terms remain to match. `τ = 0`
/// (or 1) keeps the filter vacuous — the prefix is the whole document —
/// and `τ > n` yields an empty prefix: the document cannot reach the
/// threshold at all.
pub fn prefix_len(num_terms: usize, min_overlap: u64) -> usize {
    if min_overlap <= 1 {
        return num_terms;
    }
    num_terms.saturating_sub(min_overlap as usize - 1)
}

/// One cell of a rank-space signature: the term's global rarity rank and
/// its weight in the document.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct RankCell {
    /// Position of the term in the global rarity order (df asc, term asc).
    pub rank: u32,
    /// The term's weight in the document.
    pub weight: u16,
}

/// Directory record of one document's signature.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SigMeta {
    /// The document the signature encodes.
    pub doc: DocId,
    /// Where the gap-coded cells live in the signature file.
    pub span: ByteSpan,
    /// Number of cells (= the document's distinct terms).
    pub num_terms: u32,
}

/// The decoded term-order sidecar: rank ↔ term translation plus document
/// frequencies, resident for the duration of a run.
#[derive(Clone, Debug, Default)]
pub struct TermOrder {
    /// `terms[rank] = (term, document frequency)`.
    terms: Vec<(TermId, u32)>,
    rank_of: HashMap<TermId, u32>,
}

impl TermOrder {
    /// The global rarity rank of `term`, or `None` for a term absent from
    /// the indexed collection.
    #[inline]
    pub fn rank(&self, term: TermId) -> Option<u32> {
        self.rank_of.get(&term).copied()
    }

    /// The term at `rank`.
    #[inline]
    pub fn term(&self, rank: u32) -> TermId {
        self.terms[rank as usize].0
    }

    /// Document frequency of the term at `rank`.
    #[inline]
    pub fn doc_freq(&self, rank: u32) -> u32 {
        self.terms[rank as usize].1
    }

    /// Number of ranked terms.
    pub fn len(&self) -> usize {
        self.terms.len()
    }

    /// Whether the order is empty.
    pub fn is_empty(&self) -> bool {
        self.terms.is_empty()
    }

    /// Translates a document into rank space, in increasing rank order.
    /// Terms the indexed collection has never seen carry no rank and are
    /// dropped: they cannot match any signature entry (overlay documents,
    /// where they could match, are rescored from raw cells instead).
    pub fn rank_cells(&self, doc: &Document) -> Vec<RankCell> {
        let mut cells: Vec<RankCell> = doc
            .cells()
            .iter()
            .filter_map(|c| {
                self.rank(c.term).map(|rank| RankCell {
                    rank,
                    weight: c.weight,
                })
            })
            .collect();
        cells.sort_unstable_by_key(|c| c.rank);
        cells
    }
}

/// The FNL signature index over one collection: the rarity order, the
/// gap-coded signature file and its in-memory directory.
pub struct FnlIndex {
    disk: Arc<DiskSim>,
    sig_file: FileId,
    meta_file: FileId,
    directory: Vec<SigMeta>,
    sig_bytes: u64,
    meta_bytes: u64,
    max_entry_bytes: u64,
}

impl FnlIndex {
    /// Builds the signature index for a collection: one scan to collect
    /// documents and count frequencies, then the rarity order, then both
    /// files through the page-packed append path.
    pub fn build(disk: Arc<DiskSim>, name: &str, collection: &Collection) -> Result<Self> {
        let mut docs: Vec<(DocId, Document)> = Vec::new();
        let mut df: HashMap<TermId, u32> = HashMap::new();
        for item in collection.store().scan() {
            let (id, doc) = item?;
            for cell in doc.cells() {
                *df.entry(cell.term).or_insert(0) += 1;
            }
            docs.push((id, doc));
        }

        // The global rarity order: document frequency ascending, term
        // number as the tie-break — a total order even when every
        // frequency ties.
        let mut ranked: Vec<(TermId, u32)> = df.into_iter().collect();
        ranked.sort_unstable_by_key(|&(term, freq)| (freq, term));
        let rank_of: HashMap<TermId, u32> = ranked
            .iter()
            .enumerate()
            .map(|(rank, &(term, _))| (term, rank as u32))
            .collect();

        // The term-order sidecar: per rank, varint term and frequency.
        let meta_file = disk.create_file_with_kind(&format!("{name}.fnlmeta"), PageKind::Raw)?;
        let mut meta_buf = Vec::new();
        for &(term, freq) in &ranked {
            write_varint(&mut meta_buf, term.raw() as u64);
            write_varint(&mut meta_buf, freq as u64);
        }
        let meta_bytes = meta_buf.len() as u64;
        append_packed(&disk, meta_file, &meta_buf)?;

        // The signature file: per document, gap-coded (rank, weight)
        // cells in increasing rank order.
        let sig_file = disk.create_file_with_kind(&format!("{name}.fnlsig"), PageKind::Raw)?;
        let page_size = disk.page_size();
        let mut directory = Vec::with_capacity(docs.len());
        let mut page_buf: Vec<u8> = Vec::with_capacity(page_size);
        let mut written: u64 = 0;
        let mut max_entry_bytes: u64 = 0;
        for (id, doc) in &docs {
            let mut cells: Vec<RankCell> = doc
                .cells()
                .iter()
                .map(|c| RankCell {
                    rank: rank_of[&c.term],
                    weight: c.weight,
                })
                .collect();
            cells.sort_unstable_by_key(|c| c.rank);
            let mut bytes = Vec::with_capacity(cells.len() * 2);
            let mut prev = 0u32;
            for (i, c) in cells.iter().enumerate() {
                let gap = if i == 0 { c.rank } else { c.rank - prev - 1 };
                prev = c.rank;
                write_varint(&mut bytes, gap as u64);
                write_varint(&mut bytes, c.weight as u64);
            }
            let offset = written + page_buf.len() as u64;
            directory.push(SigMeta {
                doc: *id,
                span: ByteSpan::new(offset, bytes.len() as u64),
                num_terms: cells.len() as u32,
            });
            max_entry_bytes = max_entry_bytes.max(bytes.len() as u64);
            let mut rest: &[u8] = &bytes;
            while !rest.is_empty() {
                let room = page_size - page_buf.len();
                let take = room.min(rest.len());
                page_buf.extend_from_slice(&rest[..take]);
                rest = &rest[take..];
                if page_buf.len() == page_size {
                    disk.append_page(sig_file, &page_buf)?;
                    written += page_size as u64;
                    page_buf.clear();
                }
            }
        }
        if !page_buf.is_empty() {
            let tail = page_buf.len() as u64;
            page_buf.resize(page_size, 0);
            disk.append_page(sig_file, &page_buf)?;
            written += tail;
        }

        Ok(Self {
            disk,
            sig_file,
            meta_file,
            directory,
            sig_bytes: written,
            meta_bytes,
            max_entry_bytes,
        })
    }

    /// The measured sizes the cost model prices FNL with.
    pub fn stats(&self) -> FnlStats {
        FnlStats {
            meta_pages: self.meta_pages(),
            index_pages: self.num_pages(),
            meta_bytes: self.meta_bytes,
        }
    }

    /// Pages of the signature file (tightly packed).
    pub fn num_pages(&self) -> u64 {
        self.sig_bytes.div_ceil(self.disk.page_size() as u64)
    }

    /// Pages of the term-order sidecar.
    pub fn meta_pages(&self) -> u64 {
        self.meta_bytes.div_ceil(self.disk.page_size() as u64)
    }

    /// Logical bytes of the sidecar — what a resident decoded copy costs
    /// the buffer budget (to first order).
    pub fn meta_bytes(&self) -> u64 {
        self.meta_bytes
    }

    /// Largest single signature entry in bytes, for the executor's
    /// entry-slot reservation.
    pub fn max_entry_bytes(&self) -> u64 {
        self.max_entry_bytes
    }

    /// Number of indexed documents.
    pub fn num_docs(&self) -> u64 {
        self.directory.len() as u64
    }

    /// The signature directory, in document order.
    pub fn directory(&self) -> &[SigMeta] {
        &self.directory
    }

    /// The simulated disk.
    pub fn disk(&self) -> &Arc<DiskSim> {
        &self.disk
    }

    /// The gap-coded signature file's id — fault-injection harnesses
    /// target it the way they target the document store and inverted file.
    pub fn sig_file(&self) -> FileId {
        self.sig_file
    }

    /// The term-order sidecar file's id.
    pub fn meta_file(&self) -> FileId {
        self.meta_file
    }

    /// Reads the term-order sidecar back with real page I/O (`M` pages,
    /// sequential) and decodes it. Executors call this once per run and
    /// keep the result resident.
    pub fn read_term_order(&self) -> Result<TermOrder> {
        let page_size = self.disk.page_size();
        let num_pages = self.meta_bytes.div_ceil(page_size as u64);
        let mut bytes = Vec::with_capacity(self.meta_bytes as usize);
        if num_pages > 0 {
            let pages = self.disk.read_run(self.meta_file, 0, num_pages)?;
            for page in &pages {
                bytes.extend_from_slice(page);
            }
            bytes.truncate(self.meta_bytes as usize);
        }
        let mut terms = Vec::new();
        let mut pos = 0usize;
        while pos < bytes.len() {
            let (term, n) = read_varint(&bytes[pos..])?;
            pos += n;
            let (freq, n) = read_varint(&bytes[pos..])?;
            pos += n;
            if term > u32::MAX as u64 || freq > u32::MAX as u64 {
                return Err(Error::Corrupt("term-order sidecar value overflow".into()));
            }
            terms.push((TermId::new(term as u32), freq as u32));
        }
        let rank_of = terms
            .iter()
            .enumerate()
            .map(|(rank, &(term, _))| (term, rank as u32))
            .collect();
        Ok(TermOrder { terms, rank_of })
    }

    /// Scans the whole signature file sequentially in document order.
    pub fn scan(&self) -> SigScanner<'_> {
        self.scan_with_prefetch(None)
    }

    /// [`scan`](Self::scan) with prefetch counters mirrored into an
    /// observability registry.
    pub fn scan_with_prefetch(&self, metrics: Option<PrefetchMetrics>) -> SigScanner<'_> {
        let end_page = match self.directory.last() {
            Some(meta) => {
                let (first, n) = meta.span.page_range(self.disk.page_size());
                first + n
            }
            None => 0,
        };
        SigScanner {
            index: self,
            next: 0,
            prefetcher: Prefetcher::new(&self.disk, self.sig_file, end_page).with_metrics(metrics),
        }
    }

    fn decode_entry(
        &self,
        pages: &[Arc<[u8]>],
        meta: &SigMeta,
        first: u64,
    ) -> Result<Vec<RankCell>> {
        let page_size = self.disk.page_size();
        let mut bytes = Vec::with_capacity(meta.span.len as usize);
        let mut remaining = meta.span.len as usize;
        let mut offset = (meta.span.offset - first * page_size as u64) as usize;
        for page in pages {
            if remaining == 0 {
                break;
            }
            let take = remaining.min(page_size - offset);
            bytes.extend_from_slice(&page[offset..offset + take]);
            remaining -= take;
            offset = 0;
        }
        let mut cells = Vec::with_capacity(meta.num_terms as usize);
        let mut pos = 0usize;
        let mut prev: Option<u32> = None;
        while pos < bytes.len() {
            let (gap, n) = read_varint(&bytes[pos..])?;
            pos += n;
            let (weight, n) = read_varint(&bytes[pos..])?;
            pos += n;
            let rank = match prev {
                None => gap as u32,
                Some(p) => p
                    .checked_add(gap as u32)
                    .and_then(|v| v.checked_add(1))
                    .ok_or_else(|| Error::Corrupt("signature rank gap overflow".into()))?,
            };
            prev = Some(rank);
            if weight > u16::MAX as u64 {
                return Err(Error::Corrupt("signature weight exceeds 16 bits".into()));
            }
            cells.push(RankCell {
                rank,
                weight: weight as u16,
            });
        }
        if cells.len() != meta.num_terms as usize {
            return Err(Error::Corrupt(format!(
                "signature for doc {} decoded {} cells, directory says {}",
                meta.doc.raw(),
                cells.len(),
                meta.num_terms
            )));
        }
        Ok(cells)
    }
}

/// Sequential scanner over the signature file, yielding
/// `(DocId, Vec<RankCell>)` in document order through a [`Prefetcher`].
pub struct SigScanner<'a> {
    index: &'a FnlIndex,
    next: usize,
    prefetcher: Prefetcher<'a>,
}

impl SigScanner<'_> {
    /// Readahead counters accumulated so far.
    pub fn prefetch_stats(&self) -> PrefetchStats {
        self.prefetcher.stats()
    }
}

impl Iterator for SigScanner<'_> {
    type Item = Result<(DocId, Vec<RankCell>)>;

    fn next(&mut self) -> Option<Self::Item> {
        if self.next >= self.index.directory.len() {
            return None;
        }
        let meta = self.index.directory[self.next];
        self.next += 1;
        let (first, n) = meta.span.page_range(self.index.disk.page_size());
        let mut pages = Vec::with_capacity(n as usize);
        for page_no in first..first + n {
            match self.prefetcher.get(page_no) {
                Ok(p) => pages.push(p),
                Err(e) => return Some(Err(e)),
            }
        }
        Some(
            self.index
                .decode_entry(&pages, &meta, first)
                .map(|cells| (meta.doc, cells)),
        )
    }
}

/// Appends `bytes` to `file` page by page, zero-padding the tail.
fn append_packed(disk: &DiskSim, file: FileId, bytes: &[u8]) -> Result<()> {
    let page_size = disk.page_size();
    for chunk in bytes.chunks(page_size) {
        if chunk.len() == page_size {
            disk.append_page(file, chunk)?;
        } else {
            let mut padded = chunk.to_vec();
            padded.resize(page_size, 0);
            disk.append_page(file, &padded)?;
        }
    }
    Ok(())
}

/// The prefix/position-filtered merge: scores an outer document (as rank
/// cells) against one signature entry, both in increasing rank order.
///
/// Returns `None` when the pair provably cannot reach `min_overlap`
/// common terms — either the prefix pre-check fails (one side's filtering
/// prefix ends before the other side begins) or the running position
/// filter (`matched + min(remaining) < τ`) trips mid-merge. Otherwise
/// returns `(matched_terms, weighted_sum, cells_visited)` where the sum
/// accumulates `u·v·factor(rank)` over the common terms.
///
/// Both prunes are conservative: a `Some` is returned for every pair with
/// `matched ≥ τ`, so at `τ ≤ 1` the non-`None` results are exactly the
/// pairs a full merge would score.
///
/// The executors no longer call this per pair: they score whole batches
/// through `textjoin_core::kernel`, whose rank-keyed view keeps the same
/// pairs with the same sums. This merge stays as the pairwise reference
/// that kernel is tested against.
pub fn filtered_merge(
    outer: &[RankCell],
    inner: &[RankCell],
    min_overlap: u64,
    mut factor: impl FnMut(u32) -> f64,
) -> Option<(u64, f64, u64)> {
    let tau = min_overlap.max(1) as usize;
    if outer.len().min(inner.len()) < tau {
        return None;
    }
    if tau > 1 {
        // Prefix pre-check: if one side's filtering prefix lies entirely
        // before the other side's first rank, the prefixes cannot
        // intersect and at most τ−1 matches remain.
        let po = prefix_len(outer.len(), min_overlap);
        let pi = prefix_len(inner.len(), min_overlap);
        if outer[po - 1].rank < inner[0].rank || inner[pi - 1].rank < outer[0].rank {
            return None;
        }
    }
    let (mut i, mut j) = (0usize, 0usize);
    let mut matched = 0u64;
    let mut acc = 0.0f64;
    while i < outer.len() && j < inner.len() {
        let remaining = (outer.len() - i).min(inner.len() - j) as u64;
        if matched + remaining < tau as u64 {
            return None;
        }
        match outer[i].rank.cmp(&inner[j].rank) {
            std::cmp::Ordering::Less => i += 1,
            std::cmp::Ordering::Greater => j += 1,
            std::cmp::Ordering::Equal => {
                acc += outer[i].weight as f64 * inner[j].weight as f64 * factor(outer[i].rank);
                matched += 1;
                i += 1;
                j += 1;
            }
        }
    }
    if matched < tau as u64 {
        return None;
    }
    Some((matched, acc, (i + j) as u64))
}

#[cfg(test)]
mod tests {
    use super::*;
    use textjoin_collection::SynthSpec;
    use textjoin_common::CollectionStats;

    fn doc(pairs: &[(u32, u16)]) -> Document {
        Document::from_term_counts(pairs.iter().map(|&(t, w)| (TermId::new(t), w as u32)))
    }

    fn build(page: usize, docs: Vec<Document>) -> (Arc<DiskSim>, FnlIndex, Vec<Document>) {
        let disk = Arc::new(DiskSim::new(page));
        let coll = Collection::build(Arc::clone(&disk), "c", docs.clone()).unwrap();
        let index = FnlIndex::build(Arc::clone(&disk), "c", &coll).unwrap();
        (disk, index, docs)
    }

    // ---- prefix_len boundaries (the p(λ) edge cases) ----

    #[test]
    fn prefix_len_is_whole_document_when_filter_is_vacuous() {
        // τ = 0 and τ = 1 (the registered threshold) keep the prefix
        // maximal: every term participates, the filter rejects nothing.
        assert_eq!(prefix_len(7, 0), 7);
        assert_eq!(prefix_len(7, 1), 7);
        assert_eq!(prefix_len(0, 0), 0);
        assert_eq!(prefix_len(0, 1), 0);
    }

    #[test]
    fn prefix_len_at_maximal_threshold_keeps_one_term() {
        // τ = n: all terms must match, and a single shared rarest term is
        // still required — the prefix never drops to zero while the
        // threshold is attainable.
        assert_eq!(prefix_len(5, 5), 1);
        assert_eq!(prefix_len(1, 1), 1);
    }

    #[test]
    fn prefix_len_saturates_to_zero_past_the_document_size() {
        // τ > n is unattainable: the empty prefix encodes "prune always".
        assert_eq!(prefix_len(5, 6), 0);
        assert_eq!(prefix_len(0, 2), 0);
        assert_eq!(prefix_len(3, u64::MAX), 0);
    }

    #[test]
    fn single_term_docs_filter_on_their_only_term() {
        assert_eq!(prefix_len(1, 1), 1);
        let a = [RankCell { rank: 3, weight: 2 }];
        let b = [RankCell { rank: 3, weight: 5 }];
        let c = [RankCell { rank: 4, weight: 5 }];
        let hit = filtered_merge(&a, &b, 1, |_| 1.0).unwrap();
        assert_eq!((hit.0, hit.1), (1, 10.0));
        assert!(filtered_merge(&a, &c, 1, |_| 1.0).is_none());
        // τ = 2 is unattainable for single-term docs.
        assert!(filtered_merge(&a, &b, 2, |_| 1.0).is_none());
    }

    #[test]
    fn all_tied_frequencies_still_give_a_total_order() {
        // Every term occurs exactly once, so every frequency ties and the
        // term number must break them: ranks are a permutation, and the
        // order round-trips through the sidecar.
        let docs = vec![doc(&[(30, 1), (10, 1)]), doc(&[(20, 1)])];
        let (_, index, _) = build(64, docs);
        let order = index.read_term_order().unwrap();
        assert_eq!(order.len(), 3);
        let ranked: Vec<u32> = (0..3).map(|r| order.term(r).raw()).collect();
        assert_eq!(ranked, vec![10, 20, 30], "df ties break by term number");
        for r in 0..3u32 {
            assert_eq!(order.rank(order.term(r)), Some(r));
            assert_eq!(order.doc_freq(r), 1);
        }
    }

    // ---- index structure ----

    #[test]
    fn rarest_terms_rank_first() {
        // Term 5 is in every doc (df 3), term 9 in one (df 1).
        let docs = vec![
            doc(&[(5, 1), (9, 2)]),
            doc(&[(5, 1), (7, 1)]),
            doc(&[(5, 2), (7, 3)]),
        ];
        let (_, index, _) = build(64, docs);
        let order = index.read_term_order().unwrap();
        assert_eq!(order.term(0), TermId::new(9), "df 1 outranks df 2 and 3");
        assert_eq!(order.term(order.len() as u32 - 1), TermId::new(5));
        assert!(order.rank(TermId::new(999)).is_none());
    }

    #[test]
    fn signatures_round_trip_every_document() {
        let docs = SynthSpec::from_stats(CollectionStats::new(40, 12.0, 60), 7).generate_docs();
        let (_, index, docs) = build(128, docs);
        let order = index.read_term_order().unwrap();
        assert_eq!(index.num_docs(), 40);
        let scanned: Vec<(DocId, Vec<RankCell>)> = index.scan().map(|r| r.unwrap()).collect();
        assert_eq!(scanned.len(), 40);
        for (i, (id, cells)) in scanned.iter().enumerate() {
            assert_eq!(id.raw() as usize, i);
            // The signature is exactly the document translated to rank
            // space: same weights, ranks strictly increasing.
            assert_eq!(cells, &order.rank_cells(&docs[i]));
            assert!(cells.windows(2).all(|w| w[0].rank < w[1].rank));
            assert_eq!(cells.len(), docs[i].num_terms());
        }
    }

    #[test]
    fn signature_file_is_smaller_than_the_document_store() {
        let docs = SynthSpec::from_stats(CollectionStats::new(120, 18.0, 300), 3).generate_docs();
        let doc_bytes: u64 = docs.iter().map(|d| d.size_bytes()).sum();
        let (_, index, _) = build(256, docs);
        assert!(
            index.sig_bytes * 3 < doc_bytes * 2,
            "gap-coded signatures should be < 2/3 of the 5-byte store: {} vs {}",
            index.sig_bytes,
            doc_bytes
        );
        assert!(index.stats().index_pages > 0);
        assert_eq!(index.stats().meta_bytes, index.meta_bytes());
    }

    #[test]
    fn scan_reads_index_pages_sequentially_and_meta_costs_its_pages() {
        let docs = SynthSpec::from_stats(CollectionStats::new(80, 10.0, 100), 9).generate_docs();
        let (disk, index, _) = build(64, docs);
        disk.reset_stats();
        disk.reset_head();
        let n = index.scan().count() as u64;
        assert_eq!(n, index.num_docs());
        let s = disk.stats();
        assert_eq!(s.total_reads(), index.num_pages());
        assert_eq!(s.rand_reads, 1, "one seek, then sequential");
        disk.reset_stats();
        disk.reset_head();
        index.read_term_order().unwrap();
        assert_eq!(disk.stats().total_reads(), index.meta_pages());
    }

    #[test]
    fn empty_collection_builds_an_empty_index() {
        let (_, index, _) = build(64, Vec::new());
        assert_eq!(index.num_docs(), 0);
        assert_eq!(index.num_pages(), 0);
        assert_eq!(index.scan().count(), 0);
        let order = index.read_term_order().unwrap();
        assert!(order.is_empty());
        assert_eq!(order.rank_cells(&doc(&[(1, 1)])), Vec::new());
    }

    // ---- the filtered merge ----

    #[test]
    fn merge_matches_raw_dot_product_at_the_vacuous_threshold() {
        let docs = SynthSpec::from_stats(CollectionStats::new(30, 10.0, 40), 5).generate_docs();
        let (_, index, docs) = build(128, docs);
        let order = index.read_term_order().unwrap();
        for a in &docs {
            let ra = order.rank_cells(a);
            for b in &docs {
                let rb = order.rank_cells(b);
                let dot = a.dot(b);
                match filtered_merge(&ra, &rb, 1, |_| 1.0) {
                    Some((matched, acc, _)) => {
                        assert!(matched >= 1);
                        assert_eq!(acc, dot.value());
                    }
                    None => assert!(dot.is_zero(), "filter may only drop zero pairs"),
                }
            }
        }
    }

    #[test]
    fn higher_thresholds_never_admit_below_threshold_pairs() {
        let docs = SynthSpec::from_stats(CollectionStats::new(25, 8.0, 30), 13).generate_docs();
        let (_, index, docs) = build(128, docs);
        let order = index.read_term_order().unwrap();
        for tau in [2u64, 3, 5] {
            for a in &docs {
                let ra = order.rank_cells(a);
                for b in &docs {
                    let rb = order.rank_cells(b);
                    let true_overlap =
                        a.cells().iter().filter(|c| b.weight_of(c.term) > 0).count() as u64;
                    match filtered_merge(&ra, &rb, tau, |_| 1.0) {
                        Some((matched, acc, _)) => {
                            assert_eq!(matched, true_overlap);
                            assert!(matched >= tau);
                            assert_eq!(acc, a.dot(b).value());
                        }
                        None => assert!(
                            true_overlap < tau,
                            "pruned a qualifying pair: overlap {true_overlap} ≥ τ {tau}"
                        ),
                    }
                }
            }
        }
    }

    #[test]
    fn position_filter_prunes_disjoint_prefixes() {
        // a = ranks {0,1,2}, b = ranks {3,4,5}: τ=2 needs 2 shared terms,
        // prefixes (first 2 ranks each) are disjoint and in fact the whole
        // documents are — the pre-check alone must prune.
        let a: Vec<RankCell> = (0..3).map(|r| RankCell { rank: r, weight: 1 }).collect();
        let b: Vec<RankCell> = (3..6).map(|r| RankCell { rank: r, weight: 1 }).collect();
        assert!(filtered_merge(&a, &b, 2, |_| 1.0).is_none());
        assert!(filtered_merge(&b, &a, 2, |_| 1.0).is_none());
    }

    #[test]
    fn factor_is_applied_per_matched_rank() {
        let a = [
            RankCell { rank: 0, weight: 2 },
            RankCell { rank: 5, weight: 3 },
        ];
        let b = [
            RankCell { rank: 0, weight: 1 },
            RankCell { rank: 5, weight: 4 },
        ];
        let (matched, acc, visited) =
            filtered_merge(&a, &b, 1, |rank| if rank == 0 { 10.0 } else { 1.0 }).unwrap();
        assert_eq!(matched, 2);
        assert_eq!(acc, 2.0 * 10.0 + 12.0);
        assert_eq!(visited, 4);
    }
}
