//! Join results and execution statistics.

use textjoin_common::{DocId, Score};
use textjoin_costmodel::Algorithm;
use textjoin_storage::IoStats;

/// One matched inner document with its similarity to the outer document.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Match {
    /// The inner (C1) document.
    pub inner: DocId,
    /// The similarity score.
    pub score: Score,
}

/// The result of `C1 SIMILAR_TO(λ) C2`: for every participating outer
/// document, its λ best inner matches, best first.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct JoinResult {
    rows: Vec<(DocId, Vec<Match>)>,
}

impl JoinResult {
    /// Builds a result from per-outer-document rows; rows are sorted by
    /// outer document id for deterministic comparison.
    pub fn from_rows(mut rows: Vec<(DocId, Vec<Match>)>) -> Self {
        rows.sort_by_key(|&(outer, _)| outer);
        Self { rows }
    }

    /// Number of outer documents in the result.
    pub fn num_outer_docs(&self) -> usize {
        self.rows.len()
    }

    /// Iterates `(outer document, matches)` in outer-document order.
    pub fn iter(&self) -> impl Iterator<Item = (DocId, &[Match])> + '_ {
        self.rows.iter().map(|(d, m)| (*d, m.as_slice()))
    }

    /// The matches for one outer document, if it participated.
    pub fn matches(&self, outer: DocId) -> Option<&[Match]> {
        self.rows
            .binary_search_by_key(&outer, |&(d, _)| d)
            .ok()
            .map(|i| self.rows[i].1.as_slice())
    }

    /// Total number of `(outer, inner)` result pairs.
    pub fn num_pairs(&self) -> usize {
        self.rows.iter().map(|(_, m)| m.len()).sum()
    }

    /// Compares with another result under a score tolerance (used for the
    /// floating-point weighting schemes, where accumulation order may
    /// differ across algorithms by a few ulps).
    pub fn approx_eq(&self, other: &JoinResult, tol: f64) -> bool {
        if self.rows.len() != other.rows.len() {
            return false;
        }
        self.rows
            .iter()
            .zip(other.rows.iter())
            .all(|((d1, m1), (d2, m2))| {
                d1 == d2
                    && m1.len() == m2.len()
                    && m1.iter().zip(m2.iter()).all(|(a, b)| {
                        a.inner == b.inner && (a.score.value() - b.score.value()).abs() <= tol
                    })
            })
    }
}

/// What one execution cost.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct ExecStats {
    /// Which algorithm ran.
    pub algorithm: Algorithm,
    /// Page reads, split by rate class.
    pub io: IoStats,
    /// The paper's cost metric: sequential pages + α × random pages.
    pub cost: f64,
    /// Highest memory usage observed, in bytes (must stay within `B · P`).
    pub mem_high_water_bytes: u64,
    /// Passes over the inner structure (HHNL: inner scans; VVM: merge
    /// passes; HVNL: always 1).
    pub passes: u64,
    /// Inverted-entry fetches from disk (HVNL only).
    pub entry_fetches: u64,
    /// Inverted-entry cache hits (HVNL only).
    pub cache_hits: u64,
    /// CPU work: similarity multiply-add operations performed.
    pub sim_ops: u64,
    /// CPU work: document/inverted-file cells visited. For HHNL and FNL
    /// it is the scanned documents' cells walked plus the resident
    /// batch postings they hit (the inverted batch kernel); HVNL and VVM
    /// visit one inverted-file cell per multiply-add. Every algorithm
    /// therefore touches only non-zero structure plus one walk of the
    /// scanned side per pass.
    pub cells_touched: u64,
    /// Documents skipped because they could not be read (degraded mode
    /// only; zero otherwise).
    pub skipped_docs: u64,
    /// Inverted-file entries skipped because they could not be read
    /// (degraded mode only; zero otherwise).
    pub skipped_entries: u64,
    /// Wall-clock execution time in nanoseconds.
    pub wall_ns: u64,
    /// VVM only: attempts abandoned and re-run with twice the partitions
    /// because the similarity accumulators outgrew the memory budget.
    pub repartitions: u64,
    /// VVM only: page cost (`seq + α·rand`) the abandoned attempts spent.
    /// It is not part of [`io`](Self::io) or [`cost`](Self::cost), which
    /// describe the run that produced the result.
    pub discarded_cost: f64,
}

impl ExecStats {
    /// Zeroed statistics for an algorithm — the identity of [`merge`].
    ///
    /// [`merge`]: Self::merge
    pub fn zero(algorithm: Algorithm) -> Self {
        Self {
            algorithm,
            io: IoStats::default(),
            cost: 0.0,
            mem_high_water_bytes: 0,
            passes: 0,
            entry_fetches: 0,
            cache_hits: 0,
            sim_ops: 0,
            cells_touched: 0,
            skipped_docs: 0,
            skipped_entries: 0,
            wall_ns: 0,
            repartitions: 0,
            discarded_cost: 0.0,
        }
    }

    /// The quality tag the skip counters imply: [`ResultQuality::Partial`]
    /// as soon as anything unreadable was skipped.
    pub fn quality(&self) -> ResultQuality {
        if self.skipped_docs > 0 || self.skipped_entries > 0 {
            ResultQuality::Partial
        } else {
            ResultQuality::Full
        }
    }

    /// Folds another run's statistics into this one, saturating on
    /// overflow. Counters add; memory high-waters add too, because merged
    /// stats come from *concurrent* workers whose budgets coexist (the
    /// parallel executor's accounting). The algorithm tag must agree.
    pub fn merge(&mut self, other: &ExecStats) {
        debug_assert_eq!(self.algorithm, other.algorithm, "merging unlike runs");
        self.io.merge(&other.io);
        self.cost += other.cost;
        self.mem_high_water_bytes = self
            .mem_high_water_bytes
            .saturating_add(other.mem_high_water_bytes);
        self.passes = self.passes.saturating_add(other.passes);
        self.entry_fetches = self.entry_fetches.saturating_add(other.entry_fetches);
        self.cache_hits = self.cache_hits.saturating_add(other.cache_hits);
        self.sim_ops = self.sim_ops.saturating_add(other.sim_ops);
        self.cells_touched = self.cells_touched.saturating_add(other.cells_touched);
        self.skipped_docs = self.skipped_docs.saturating_add(other.skipped_docs);
        self.skipped_entries = self.skipped_entries.saturating_add(other.skipped_entries);
        self.repartitions = self.repartitions.saturating_add(other.repartitions);
        self.discarded_cost += other.discarded_cost;
        // Concurrent workers overlap in time, so the merged wall time is
        // the longest individual run, not the sum.
        self.wall_ns = self.wall_ns.max(other.wall_ns);
    }
}

impl std::ops::AddAssign<&ExecStats> for ExecStats {
    fn add_assign(&mut self, rhs: &ExecStats) {
        self.merge(rhs);
    }
}

impl std::fmt::Display for ExecStats {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{}: {}, cost {:.1}, {} passes, {} sim ops, mem high water {} bytes",
            self.algorithm,
            self.io,
            self.cost,
            self.passes,
            self.sim_ops,
            self.mem_high_water_bytes
        )?;
        if self.entry_fetches > 0 || self.cache_hits > 0 {
            write!(
                f,
                ", {} entry fetches, {} cache hits",
                self.entry_fetches, self.cache_hits
            )?;
        }
        if self.repartitions > 0 {
            write!(
                f,
                ", {} repartitions ({:.1} pages discarded)",
                self.repartitions, self.discarded_cost
            )?;
        }
        if self.skipped_docs > 0 || self.skipped_entries > 0 {
            write!(
                f,
                ", PARTIAL ({} docs + {} entries skipped)",
                self.skipped_docs, self.skipped_entries
            )?;
        }
        Ok(())
    }
}

/// Whether a join outcome covers everything it was asked to cover.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum ResultQuality {
    /// Every requested document and entry was read.
    #[default]
    Full,
    /// Degraded-mode execution skipped unreadable data; the result is the
    /// correct top-λ over what *could* be read, and the skip counters in
    /// [`ExecStats`] say how much was lost.
    Partial,
}

impl std::fmt::Display for ResultQuality {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ResultQuality::Full => write!(f, "full"),
            ResultQuality::Partial => write!(f, "partial"),
        }
    }
}

/// A completed join: the result plus its execution statistics.
#[derive(Clone, Debug)]
pub struct JoinOutcome {
    /// The λ best inner matches per outer document.
    pub result: JoinResult,
    /// Measured cost of producing it.
    pub stats: ExecStats,
    /// Whether degraded-mode execution had to skip unreadable data.
    pub quality: ResultQuality,
}

#[cfg(test)]
mod tests {
    use super::*;

    fn m(inner: u32, score: f64) -> Match {
        Match {
            inner: DocId::new(inner),
            score: Score::new(score),
        }
    }

    #[test]
    fn rows_are_sorted_and_queryable() {
        let r = JoinResult::from_rows(vec![
            (DocId::new(5), vec![m(1, 2.0)]),
            (DocId::new(2), vec![m(3, 4.0), m(1, 1.0)]),
        ]);
        assert_eq!(r.num_outer_docs(), 2);
        assert_eq!(r.num_pairs(), 3);
        let order: Vec<u32> = r.iter().map(|(d, _)| d.raw()).collect();
        assert_eq!(order, vec![2, 5]);
        assert_eq!(r.matches(DocId::new(2)).unwrap().len(), 2);
        assert!(r.matches(DocId::new(3)).is_none());
    }

    #[test]
    fn approx_eq_tolerates_small_score_drift() {
        let a = JoinResult::from_rows(vec![(DocId::new(0), vec![m(1, 1.0)])]);
        let b = JoinResult::from_rows(vec![(DocId::new(0), vec![m(1, 1.0 + 1e-12)])]);
        assert!(a.approx_eq(&b, 1e-9));
        assert!(!a.approx_eq(&b, 1e-15));
        let c = JoinResult::from_rows(vec![(DocId::new(0), vec![m(2, 1.0)])]);
        assert!(!a.approx_eq(&c, 1.0), "different doc ids never match");
    }

    #[test]
    fn exact_equality_for_raw_scores() {
        let a = JoinResult::from_rows(vec![(DocId::new(1), vec![m(0, 7.0)])]);
        let b = JoinResult::from_rows(vec![(DocId::new(1), vec![m(0, 7.0)])]);
        assert_eq!(a, b);
    }

    #[test]
    fn exec_stats_merge_saturates_and_displays() {
        let mut a = ExecStats::zero(Algorithm::Hvnl);
        a.io.seq_reads = 10;
        a.io.rand_reads = 4;
        a.cost = 30.0;
        a.passes = 1;
        a.entry_fetches = u64::MAX - 1;
        a.cache_hits = 3;
        a.sim_ops = 100;
        let mut b = ExecStats::zero(Algorithm::Hvnl);
        b.io.seq_reads = 5;
        b.cost = 5.0;
        b.passes = 2;
        b.entry_fetches = 10;
        b.mem_high_water_bytes = 64;
        a += &b;
        assert_eq!(a.io.seq_reads, 15);
        assert_eq!(a.passes, 3);
        assert_eq!(a.entry_fetches, u64::MAX, "saturates, never wraps");
        assert_eq!(a.mem_high_water_bytes, 64);
        assert_eq!(a.cost, 35.0);
        let text = a.to_string();
        assert!(text.starts_with("HVNL: "), "{text}");
        assert!(text.contains("3 passes"), "{text}");
        assert!(text.contains("cache hits"), "{text}");
        // The HVNL-only clause disappears when those counters are zero.
        let plain = ExecStats::zero(Algorithm::Hhnl).to_string();
        assert!(!plain.contains("cache hits"), "{plain}");
    }

    #[test]
    fn quality_tracks_skip_counters() {
        let mut s = ExecStats::zero(Algorithm::Hhnl);
        assert_eq!(s.quality(), ResultQuality::Full);
        assert!(!s.to_string().contains("PARTIAL"), "{s}");
        s.skipped_docs = 2;
        s.skipped_entries = 1;
        assert_eq!(s.quality(), ResultQuality::Partial);
        assert!(s.to_string().contains("2 docs + 1 entries skipped"), "{s}");
        assert_eq!(ResultQuality::Partial.to_string(), "partial");
        assert_eq!(ResultQuality::default(), ResultQuality::Full);
    }
}
