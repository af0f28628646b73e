//! Parallel execution — the paper's future-work item (3): "develop
//! algorithms that process textual joins in parallel", covering all three
//! executors.
//!
//! Two partitioning strategies preserve exactness:
//!
//! * **Outer partitioning** (HHNL, HVNL): the outer collection is
//!   range-partitioned across `workers` threads; each worker runs the
//!   sequential executor over its slice with an equal share of the memory
//!   budget (`B / workers` pages — for HVNL that share bounds the worker's
//!   entry cache). A document's λ best matches depend only on that
//!   document and the full inner side, so partitioning the *outer* side
//!   never changes any row; results concatenate.
//! * **Term-range partitioning** (VVM): both inverted files are split at
//!   the same term boundaries, one contiguous ordinal range per worker.
//!   Entries are term-sorted, so every shared term falls to exactly one
//!   worker; per-worker partial similarity tables are summed in worker
//!   (= ascending term) order and emitted through the same λ-heap as the
//!   sequential merge. With integer-valued weights (raw counts) the
//!   partial sums are exact, so results are bit-identical; fractional
//!   weightings agree to floating-point reassociation.
//!
//! The workers share one simulated disk. Per-worker I/O is attributed
//! exactly via [`DiskSim::thread_io_stats`] — thread-local mirrors bumped
//! under the same lock as the global counters — and each merge asserts
//! that the worker deltas sum to the global delta, sequential/random split
//! included.
//!
//! The I/O bill grows with outer partitioning (`D2 + workers ·
//! ⌈N2/(workers·X')⌉ · D1` for HHNL: every worker scans the inner
//! collection) and stays flat for VVM (each file is still read about
//! once per pass, plus one shared boundary page per split), traded
//! against wall-clock: with `w` dedicated drives the elapsed scan time
//! divides by ~`w`.

use crate::kernel::SimRows;
use crate::result::{ExecStats, JoinOutcome, JoinResult, Match, ResultQuality};
use crate::spec::{JoinSpec, OuterDocs};
use crate::topk::TopK;
use crate::{hhnl, hvnl, vvm, Algorithm};
use std::cell::Cell;
use std::time::Instant;
use textjoin_common::{DocId, Error, Result, SystemParams, TermId};
use textjoin_invfile::InvertedFile;
use textjoin_obs::Tracer;
use textjoin_storage::{DiskSim, IoStats, MemTracker};

/// Splits a `total`-page buffer budget across `workers`. Integer division
/// alone loses `total % workers` pages (a 5-way split of 64 pages would
/// grant 5·12 = 60); instead the first `total % workers` workers get one
/// extra page, so the shares sum to exactly `total`. A budget smaller than
/// the worker count degrades to the executors' one-page floor — the only
/// case where the sum may exceed `total`.
pub(crate) fn buffer_shares(total: u64, workers: usize) -> Vec<u64> {
    assert!(workers > 0, "at least one worker is required");
    let w = workers as u64;
    let (base, rem) = (total / w, (total % w) as usize);
    let shares: Vec<u64> = (0..workers)
        .map(|i| (base + u64::from(i < rem)).max(1))
        .collect();
    if total >= w {
        assert_eq!(
            shares.iter().sum::<u64>(),
            total,
            "worker buffer shares must sum to the budget"
        );
    }
    shares
}

/// Runs HHNL with the outer collection partitioned across `workers`
/// threads, each budgeted `B / workers` pages.
pub fn execute_hhnl(spec: &JoinSpec<'_>, workers: usize) -> Result<JoinOutcome> {
    execute_outer_partitioned(spec, workers, hhnl::execute)
}

/// Runs FNL with the outer collection partitioned across `workers`
/// threads, each budgeted `B / workers` pages. The signature index and
/// its term-ordering sidecar are shared read-only; every worker loads the
/// sidecar into its own share, mirroring the per-worker dictionary loads
/// of parallel HVNL.
pub fn execute_fnl(
    spec: &JoinSpec<'_>,
    index: &textjoin_invfile::FnlIndex,
    workers: usize,
) -> Result<JoinOutcome> {
    execute_outer_partitioned(spec, workers, |s| crate::fnl::execute(s, index))
}

/// Runs HVNL with the outer collection partitioned across `workers`
/// threads. Each worker owns a `B / workers`-page share of the budget, so
/// its entry cache holds a proportional slice of the hot entries; the
/// shared inverted file and dictionary are read concurrently.
pub fn execute_hvnl(
    spec: &JoinSpec<'_>,
    inner_inv: &InvertedFile,
    workers: usize,
) -> Result<JoinOutcome> {
    execute_outer_partitioned(spec, workers, |s| hvnl::execute(s, inner_inv))
}

/// Shared scaffold for the two outer-partitioned algorithms: slice the
/// participating outer ids, run `run` per slice on its own thread with a
/// `B / workers` budget, and merge rows and counters.
fn execute_outer_partitioned<F>(spec: &JoinSpec<'_>, workers: usize, run: F) -> Result<JoinOutcome>
where
    F: for<'b> Fn(&JoinSpec<'b>) -> Result<JoinOutcome> + Sync,
{
    if workers == 0 {
        return Err(Error::InvalidArgument(
            "at least one worker is required".into(),
        ));
    }
    // Materialise the participating outer ids (live ones only — the
    // worker slices must not waste shares on tombstoned documents) and
    // slice them. Worker specs keep the deltas via `..*spec`, so delta
    // documents in a slice are served through the overlay fallback of
    // `outer_iter` and inner-side masking works unchanged per worker.
    let outer_ids: Vec<DocId> = spec.outer_live_ids();
    if outer_ids.is_empty() {
        return run(spec);
    }
    let started = Instant::now();
    let workers = workers.min(outer_ids.len());
    let chunk = outer_ids.len().div_ceil(workers);
    // Ceiling division can leave fewer slices than requested workers;
    // split the budget across the slices that actually run, remainder
    // pages included, so no page of B goes unused.
    let slices: Vec<&[DocId]> = outer_ids.chunks(chunk).collect();
    let shares = buffer_shares(spec.sys.buffer_pages, slices.len());

    let disk = spec.inner.store().disk();
    let start_io = disk.stats();
    // Worker spans stitch under this run's root span: `SpanContext` carries
    // the shared ring plus the root's id, so each worker's executor opens
    // its spans parented under `parallel.outer` even across threads.
    let mut root = Tracer::maybe(spec.trace, "parallel.outer");
    if root.is_enabled() {
        root.record("workers", slices.len() as u64);
    }
    let stitched = root.context().map(|c| c.tracer());
    let run = &run;
    let outcomes = crossbeam::thread::scope(|s| {
        let handles: Vec<_> = slices
            .iter()
            .zip(&shares)
            .map(|(&slice, &share)| {
                let worker_spec = JoinSpec {
                    outer_docs: OuterDocs::Selected(slice),
                    sys: SystemParams {
                        buffer_pages: share,
                        ..spec.sys
                    },
                    trace: stitched.as_ref(),
                    ..*spec
                };
                s.spawn(move |_| {
                    // Bracket the run with thread-local I/O snapshots: the
                    // TLS mirror is bumped under the same lock as the
                    // global counters, so this delta is exactly the
                    // traffic this worker caused on the shared disk.
                    let before = DiskSim::thread_io_stats();
                    let mut outcome = run(&worker_spec)?;
                    outcome.stats.io = DiskSim::thread_io_stats().since(&before);
                    outcome.stats.cost = outcome.stats.io.cost(worker_spec.sys.alpha);
                    Ok(outcome)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("worker panicked"))
            .collect::<Result<Vec<JoinOutcome>>>()
    })
    .expect("crossbeam scope panicked")?;

    // Merge: rows are disjoint by construction; worker counters AddAssign
    // into one outcome (mem high-waters included — the workers run
    // concurrently, so their sum is the real peak footprint).
    let mut rows = Vec::with_capacity(outer_ids.len());
    let mut stats = ExecStats::zero(outcomes[0].stats.algorithm);
    // A cancelled worker returns a Partial outcome with whatever rows it
    // had, possibly without bumping any skip counter — so the merged
    // quality must OR the workers' tags, not just re-derive from counters.
    let mut any_partial = false;
    for outcome in outcomes {
        any_partial |= outcome.quality == ResultQuality::Partial;
        for (id, matches) in outcome.result.iter() {
            rows.push((id, matches.to_vec()));
        }
        stats += &outcome.stats;
    }
    // The thread-local deltas partition the global tally exactly,
    // sequential/random split included.
    assert_eq!(
        stats.io,
        disk.stats().since(&start_io),
        "per-worker I/O deltas must sum to the global delta"
    );
    stats.cost = stats.io.cost(spec.sys.alpha);
    // Workers overlap, so the run's wall time is the whole scope's elapsed
    // time, not the per-worker maximum the merge computed.
    stats.wall_ns = started.elapsed().as_nanos() as u64;
    Ok(JoinOutcome {
        result: JoinResult::from_rows(rows),
        // Merged stats carry every worker's skip counters; the explicit OR
        // additionally catches workers that went Partial via cancellation.
        quality: if any_partial {
            ResultQuality::Partial
        } else {
            stats.quality()
        },
        stats,
    })
}

/// What one VVM term-range worker hands back per merge pass (its partial
/// sums stay in the worker's own [`SimRows`]).
struct VvmPartial {
    skipped_entries: u64,
    sim_ops: u64,
    io: IoStats,
    mem_high_water: u64,
}

/// Inner/outer ordinal ranges assigned to one worker: both cover the same
/// half-open term interval.
#[derive(Clone, Copy)]
struct TermRange {
    inner: (u32, u32),
    outer: (u32, u32),
}

/// Runs VVM with both inverted files term-range-partitioned across
/// `workers` threads. Each worker merges its ordinal ranges with a
/// `B / workers`-page budget; partial similarity tables are summed in
/// ascending term order and emitted exactly like the sequential merge.
/// Memory pressure repartitions the outer side adaptively, as in the
/// sequential executor.
pub fn execute_vvm(
    spec: &JoinSpec<'_>,
    inner_inv: &InvertedFile,
    outer_inv: &InvertedFile,
    workers: usize,
) -> Result<JoinOutcome> {
    if workers == 0 {
        return Err(Error::InvalidArgument(
            "at least one worker is required".into(),
        ));
    }
    let outer_ids: Vec<DocId> = spec.outer_live_ids();
    let workers = (workers as u64).min(inner_inv.num_entries()).max(1) as usize;
    if outer_ids.is_empty() || workers == 1 {
        // One worker is the sequential merge; run it directly so the
        // single-worker plan is identical to the sequential executor by
        // construction.
        return vvm::execute(spec, inner_inv, outer_inv);
    }

    let ranges = term_ranges(inner_inv, outer_inv, workers);
    let num_outer = outer_ids.len() as u64;
    let specs = std::slice::from_ref(spec);
    let first =
        vvm::estimate_partitions(specs, &[num_outer], inner_inv, outer_inv, workers as u64)?;
    let disk = spec.inner.store().disk();
    let attempt_io = Cell::new(disk.stats());
    vvm::with_repartitions(
        first,
        num_outer,
        |partitions, retries| {
            attempt_io.set(disk.stats());
            run_vvm(
                spec, inner_inv, outer_inv, &outer_ids, &ranges, partitions, retries,
            )
        },
        || disk.stats().since(&attempt_io.get()).cost(spec.sys.alpha),
    )
}

/// Splits the inner file's ordinals into document-frequency-weighted
/// ranges (so Zipfian vocabularies don't pile all the heavy postings onto
/// one worker) and maps each split term onto the outer file, so both
/// ranges of a worker cover the same term interval and the outer ranges
/// tile `[0, T2)` contiguously. When the vocabulary is smaller than the
/// worker count the split degrades gracefully to one term per worker
/// instead of producing empty/duplicate partitions.
fn term_ranges(
    inner_inv: &InvertedFile,
    outer_inv: &InvertedFile,
    workers: usize,
) -> Vec<TermRange> {
    let t1 = inner_inv.num_entries() as u32;
    let t2 = outer_inv.num_entries() as u32;
    if t1 == 0 {
        // No inner vocabulary: a single worker sweeps the outer file so
        // the scan-side accounting still happens exactly once.
        return vec![TermRange {
            inner: (0, 0),
            outer: (0, t2),
        }];
    }
    let df: Vec<u64> = (0..t1).map(|i| inner_inv.meta(i).doc_freq as u64).collect();
    let bounds = crate::shard::weighted_boundaries(&df, workers);
    let mut ranges = Vec::with_capacity(bounds.len());
    let mut outer_start = 0u32;
    let last = bounds.len() - 1;
    for (i, (inner_start, inner_end)) in bounds.into_iter().enumerate() {
        let outer_end = if i == last {
            t2
        } else {
            lower_bound(outer_inv, inner_inv.meta(inner_end).term)
        };
        ranges.push(TermRange {
            inner: (inner_start, inner_end),
            outer: (outer_start, outer_end),
        });
        outer_start = outer_end;
    }
    ranges
}

/// First ordinal of `inv` whose term is ≥ `term` (the directory is sorted
/// by term).
fn lower_bound(inv: &InvertedFile, term: TermId) -> u32 {
    let (mut lo, mut hi) = (0u32, inv.num_entries() as u32);
    while lo < hi {
        let mid = lo + (hi - lo) / 2;
        if inv.meta(mid).term < term {
            lo = mid + 1;
        } else {
            hi = mid;
        }
    }
    lo
}

fn run_vvm(
    spec: &JoinSpec<'_>,
    inner_inv: &InvertedFile,
    outer_inv: &InvertedFile,
    outer_ids: &[DocId],
    ranges: &[TermRange],
    partitions: u64,
    retries: vvm::Repartitions,
) -> Result<JoinOutcome> {
    let started = Instant::now();
    let workers = ranges.len();
    let mut root = Tracer::maybe(spec.trace, "vvm.parallel");
    if root.is_enabled() {
        root.record("workers", workers as u64);
        root.record("partitions", partitions);
    }
    retries.trace(&mut root);
    // Worker spans parent under this root span across threads.
    let stitched = root.context().map(|c| c.tracer());
    let disk = spec.inner.store().disk();
    let start_io = disk.stats();
    let shares = buffer_shares(spec.sys.buffer_pages, workers);
    // Every worker holds one current entry per file (budgeted at the
    // global maximum, so the bound is strict) plus its partial table.
    let entry_buf_bytes = vvm::max_entry_bytes(inner_inv) + vvm::max_entry_bytes(outer_inv);

    let mut rows: Vec<(DocId, Vec<Match>)> = Vec::with_capacity(outer_ids.len());
    let chunk_size = (outer_ids.len() as u64).div_ceil(partitions).max(1) as usize;
    let mut passes = 0u64;
    let mut sim_ops = 0u64;
    let mut skipped_entries = 0u64;
    let mut io_sum = IoStats::default();
    let mut mem_high_water = 0u64;
    let mut reported_pages = 0.0f64;
    let mut cancelled = false;
    // One partial table per worker, reused by every pass.
    let width = spec.inner_id_bound();
    let mut tables: Vec<SimRows> = ranges.iter().map(|_| SimRows::new(width)).collect();

    for chunk in outer_ids.chunks(chunk_size) {
        passes += 1;
        let partials = crossbeam::thread::scope(|s| {
            let handles: Vec<_> = ranges
                .iter()
                .zip(&shares)
                .zip(tables.iter_mut())
                .enumerate()
                .map(|(idx, ((&range, &share), sims))| {
                    // Each worker opens one span per pass through the
                    // stitched tracer, so its work shows up parented under
                    // the `vvm.parallel` root span.
                    let worker_spec = JoinSpec {
                        sys: SystemParams {
                            buffer_pages: share,
                            ..spec.sys
                        },
                        trace: stitched.as_ref(),
                        ..*spec
                    };
                    s.spawn(move |_| -> Result<VvmPartial> {
                        let mut wspan = Tracer::maybe(worker_spec.trace, "vvm.worker");
                        if wspan.is_enabled() {
                            wspan.record("worker", idx as u64);
                        }
                        let before = DiskSim::thread_io_stats();
                        let tracker = MemTracker::new(&worker_spec.sys);
                        tracker.allocate(entry_buf_bytes.max(1), "parallel VVM entry buffers")?;
                        tracker.allocate(
                            TopK::budget_bytes(worker_spec.query.lambda),
                            "VVM result heap",
                        )?;
                        let mut skipped = 0u64;
                        let mut ops = 0u64;
                        let (i_start, i_end) = range.inner;
                        let (o_start, o_end) = range.outer;
                        // Term bounds for the delta overlays: the ordinal
                        // boundaries map onto terms, with the first worker
                        // taking every delta term below the first boundary
                        // and the last everything above — the bounds tile
                        // [0, ∞), so each delta term lands on exactly one
                        // worker. Both files' ranges cover the same term
                        // interval, so the inner-derived bounds serve both.
                        let term_lo = if idx == 0 {
                            0
                        } else {
                            inner_inv.meta(i_start).term.raw()
                        };
                        let term_hi = if idx + 1 == ranges.len() {
                            None
                        } else {
                            Some(inner_inv.meta(i_end).term.raw())
                        };
                        let inner_cur = vvm::EntryCursor::new(
                            vvm::merged_entries(
                                inner_inv.scan_range(i_start, i_end),
                                worker_spec.inner_delta,
                                term_lo,
                                term_hi,
                            ),
                            &worker_spec,
                            &mut skipped,
                        )?;
                        let outer_cur = vvm::EntryCursor::new(
                            vvm::merged_entries(
                                outer_inv.scan_range(o_start, o_end),
                                worker_spec.outer_delta,
                                term_lo,
                                term_hi,
                            ),
                            &worker_spec,
                            &mut skipped,
                        )?;
                        vvm::merge_accumulate(
                            std::slice::from_ref(&worker_spec),
                            inner_cur,
                            outer_cur,
                            &[chunk],
                            &tracker,
                            std::slice::from_mut(sims),
                            std::slice::from_mut(&mut ops),
                            &mut skipped,
                        )?;
                        Ok(VvmPartial {
                            skipped_entries: skipped,
                            sim_ops: ops,
                            io: DiskSim::thread_io_stats().since(&before),
                            mem_high_water: tracker.high_water(),
                        })
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("worker panicked"))
                .collect::<Result<Vec<VvmPartial>>>()
        })
        .expect("crossbeam scope panicked")?;

        // Sum the partial tables in worker index order — ascending term
        // order, the same order the sequential merge accumulates in — into
        // the first worker's table. Folding resets each table for the next
        // pass.
        let mut pass_mem = 0u64;
        for partial in partials {
            skipped_entries += partial.skipped_entries;
            sim_ops += partial.sim_ops;
            io_sum.merge(&partial.io);
            pass_mem += partial.mem_high_water;
        }
        let (acc, rest) = tables.split_first_mut().expect("at least one worker");
        for partial in rest {
            acc.fold(partial);
        }
        // Concurrent workers peak together: their summed high-waters are
        // the pass's true footprint.
        mem_high_water = mem_high_water.max(pass_mem);
        vvm::emit_chunk(spec, chunk, acc, &mut rows);
        // The pass boundary is this scaffold's cooperative checkpoint. The
        // coordinator thread did none of the I/O, so its thread-local
        // tally is useless here; feed the exact per-worker sums instead.
        if let Some(ticket) = spec.ticket {
            let own = io_sum.cost(spec.sys.alpha);
            ticket.add_pages(own - reported_pages);
            reported_pages = own;
            ticket.set_phase(format!("vvm.parallel.pass {passes}"));
        }
        if spec.cancel.is_some_and(|c| c.is_cancelled()) {
            cancelled = true;
            break;
        }
        spec.check_cost_budget(io_sum.cost(spec.sys.alpha))?;
    }

    let io = disk.stats().since(&start_io);
    // The thread-local deltas partition the global tally exactly,
    // sequential/random split included.
    assert_eq!(
        io_sum, io,
        "per-worker I/O deltas must sum to the global delta"
    );
    if root.is_enabled() {
        root.record("passes", passes);
        root.record("seq_reads", io.seq_reads);
        root.record("rand_reads", io.rand_reads);
        root.record("sim_ops", sim_ops);
    }
    let mut stats = ExecStats {
        io,
        cost: io.cost(spec.sys.alpha),
        mem_high_water_bytes: mem_high_water,
        passes,
        sim_ops,
        cells_touched: sim_ops,
        skipped_entries,
        wall_ns: started.elapsed().as_nanos() as u64,
        ..ExecStats::zero(Algorithm::Vvm)
    };
    retries.record(&mut stats);
    Ok(JoinOutcome {
        result: JoinResult::from_rows(rows),
        // A cancel at a pass boundary truncates the remaining chunks, so
        // the rows are an honest prefix — tag them Partial.
        quality: if cancelled {
            ResultQuality::Partial
        } else {
            stats.quality()
        },
        stats,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reference::naive_join;
    use std::sync::Arc;
    use textjoin_collection::{Collection, SynthSpec};
    use textjoin_common::{CollectionStats, QueryParams, SystemParams};
    use textjoin_storage::DiskSim;

    fn fixture() -> (
        Arc<DiskSim>,
        Collection,
        Collection,
        Vec<textjoin_collection::Document>,
        Vec<textjoin_collection::Document>,
    ) {
        let disk = Arc::new(DiskSim::new(512));
        let d1 = SynthSpec::from_stats(CollectionStats::new(60, 12.0, 200), 61).generate_docs();
        let d2 = SynthSpec::from_stats(CollectionStats::new(45, 12.0, 200), 62).generate_docs();
        let c1 = Collection::build(Arc::clone(&disk), "c1", d1.clone()).unwrap();
        let c2 = Collection::build(Arc::clone(&disk), "c2", d2.clone()).unwrap();
        (disk, c1, c2, d1, d2)
    }

    fn inv_fixture() -> (
        Arc<DiskSim>,
        Collection,
        Collection,
        InvertedFile,
        InvertedFile,
        Vec<textjoin_collection::Document>,
        Vec<textjoin_collection::Document>,
    ) {
        let (disk, c1, c2, d1, d2) = fixture();
        let inv1 = InvertedFile::build(Arc::clone(&disk), "c1", &c1).unwrap();
        let inv2 = InvertedFile::build(Arc::clone(&disk), "c2", &c2).unwrap();
        (disk, c1, c2, inv1, inv2, d1, d2)
    }

    #[test]
    fn parallel_matches_serial_for_any_worker_count() {
        let (_, c1, c2, d1, d2) = fixture();
        let spec = JoinSpec::new(&c1, &c2)
            .with_sys(SystemParams {
                buffer_pages: 64,
                page_size: 512,
                alpha: 5.0,
            })
            .with_query(QueryParams::paper_base().with_lambda(4));
        let want = naive_join(&d1, &d2, OuterDocs::Full, 4, crate::Weighting::RawCount);
        for workers in [1, 2, 3, 7, 100] {
            let got = execute_hhnl(&spec, workers).unwrap();
            assert_eq!(got.result, want, "workers = {workers}");
        }
    }

    #[test]
    fn buffer_shares_sum_to_the_budget() {
        for (total, workers) in [
            (64u64, 5usize),
            (63, 4),
            (100, 7),
            (17, 3),
            (8, 8),
            (160, 3),
        ] {
            let shares = buffer_shares(total, workers);
            assert_eq!(shares.len(), workers);
            assert_eq!(
                shares.iter().sum::<u64>(),
                total,
                "B={total} w={workers}: no page may be lost to integer division"
            );
            // The remainder lands on the first B % w workers, one page each.
            let (base, rem) = (total / workers as u64, (total % workers as u64) as usize);
            for (i, &s) in shares.iter().enumerate() {
                assert_eq!(s, base + u64::from(i < rem), "worker {i}");
            }
        }
    }

    #[test]
    fn buffer_shares_floor_at_one_page() {
        // A budget smaller than the worker count cannot sum to B with the
        // executors' one-page-per-worker floor; each worker still gets 1.
        let shares = buffer_shares(3, 5);
        assert_eq!(shares, vec![1, 1, 1, 1, 1]);
    }

    #[test]
    fn uneven_budget_split_matches_serial() {
        // B = 67 across 4 workers: 17+17+17+16 after the fix (the old
        // B/w split would have granted 4·16 = 64 and silently dropped 3
        // pages of budget).
        let (_, c1, c2, d1, d2) = fixture();
        let spec = JoinSpec::new(&c1, &c2)
            .with_sys(SystemParams {
                buffer_pages: 67,
                page_size: 512,
                alpha: 5.0,
            })
            .with_query(QueryParams::paper_base().with_lambda(3));
        let want = naive_join(&d1, &d2, OuterDocs::Full, 3, crate::Weighting::RawCount);
        let got = execute_hhnl(&spec, 4).unwrap();
        assert_eq!(got.result, want);
        assert!(got.stats.mem_high_water_bytes <= spec.sys.buffer_bytes());
    }

    #[test]
    fn zero_workers_is_an_error() {
        let (_, c1, c2, _, _) = fixture();
        let spec = JoinSpec::new(&c1, &c2);
        assert!(execute_hhnl(&spec, 0).is_err());
        let (_, c1, c2, inv1, inv2, _, _) = inv_fixture();
        let spec = JoinSpec::new(&c1, &c2);
        assert!(execute_hvnl(&spec, &inv1, 0).is_err());
        assert!(execute_vvm(&spec, &inv1, &inv2, 0).is_err());
    }

    #[test]
    fn workers_share_the_budget() {
        let (_, c1, c2, _, _) = fixture();
        let spec = JoinSpec::new(&c1, &c2)
            .with_sys(SystemParams {
                buffer_pages: 64,
                page_size: 512,
                alpha: 5.0,
            })
            .with_query(QueryParams::paper_base().with_lambda(2));
        let got = execute_hhnl(&spec, 4).unwrap();
        // The summed high-water of all workers stays within the global B·P.
        assert!(got.stats.mem_high_water_bytes <= spec.sys.buffer_bytes());
    }

    #[test]
    fn parallel_respects_selection() {
        let (_, c1, c2, d1, d2) = fixture();
        let chosen = [
            DocId::new(2),
            DocId::new(11),
            DocId::new(30),
            DocId::new(44),
        ];
        let spec = JoinSpec::new(&c1, &c2)
            .with_outer_docs(OuterDocs::Selected(&chosen))
            .with_query(QueryParams::paper_base().with_lambda(3));
        let got = execute_hhnl(&spec, 3).unwrap();
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
    fn parallel_hvnl_is_identical_to_sequential() {
        let (_, c1, c2, inv1, _, _, _) = inv_fixture();
        let spec = JoinSpec::new(&c1, &c2)
            .with_sys(SystemParams {
                buffer_pages: 400,
                page_size: 512,
                alpha: 5.0,
            })
            .with_query(QueryParams::paper_base().with_lambda(5));
        let want = hvnl::execute(&spec, &inv1).unwrap();
        for workers in [1, 2, 4, 9] {
            let got = execute_hvnl(&spec, &inv1, workers).unwrap();
            assert_eq!(got.result, want.result, "workers = {workers}");
            assert_eq!(got.quality, want.quality);
        }
    }

    #[test]
    fn parallel_fnl_is_identical_to_sequential() {
        let (disk, c1, c2, _, _) = fixture();
        let index = textjoin_invfile::FnlIndex::build(Arc::clone(&disk), "c1", &c1).unwrap();
        let spec = JoinSpec::new(&c1, &c2)
            .with_sys(SystemParams {
                buffer_pages: 400,
                page_size: 512,
                alpha: 5.0,
            })
            .with_query(QueryParams::paper_base().with_lambda(5));
        let want = crate::fnl::execute(&spec, &index).unwrap();
        for workers in [1, 2, 4, 9] {
            let got = execute_fnl(&spec, &index, workers).unwrap();
            assert_eq!(got.result, want.result, "workers = {workers}");
            assert_eq!(got.quality, want.quality);
        }
    }

    #[test]
    fn parallel_vvm_is_identical_to_sequential() {
        let (_, c1, c2, inv1, inv2, _, _) = inv_fixture();
        let spec = JoinSpec::new(&c1, &c2)
            .with_sys(SystemParams {
                buffer_pages: 400,
                page_size: 512,
                alpha: 5.0,
            })
            .with_query(QueryParams::paper_base().with_lambda(5));
        let want = vvm::execute(&spec, &inv1, &inv2).unwrap();
        for workers in [1, 2, 3, 4, 16] {
            let got = execute_vvm(&spec, &inv1, &inv2, workers).unwrap();
            assert_eq!(got.result, want.result, "workers = {workers}");
        }
    }

    #[test]
    fn parallel_vvm_respects_selection_and_tight_memory() {
        let (_, c1, c2, inv1, inv2, d1, d2) = inv_fixture();
        let chosen = [DocId::new(1), DocId::new(7), DocId::new(20), DocId::new(41)];
        // A small buffer forces multiple merge passes per worker.
        let spec = JoinSpec::new(&c1, &c2)
            .with_outer_docs(OuterDocs::Selected(&chosen))
            .with_sys(SystemParams {
                buffer_pages: 40,
                page_size: 512,
                alpha: 5.0,
            })
            .with_query(QueryParams::paper_base().with_lambda(3));
        let got = execute_vvm(&spec, &inv1, &inv2, 4).unwrap();
        let want = naive_join(
            &d1,
            &d2,
            OuterDocs::Selected(&chosen),
            3,
            crate::Weighting::RawCount,
        );
        assert_eq!(got.result, want);
        assert!(got.stats.mem_high_water_bytes <= spec.sys.buffer_bytes());
    }

    #[test]
    fn parallel_vvm_cosine_matches_within_tolerance() {
        let (_, c1, c2, inv1, inv2, d1, d2) = inv_fixture();
        let spec = JoinSpec::new(&c1, &c2)
            .with_weighting(crate::Weighting::Cosine)
            .with_query(QueryParams::paper_base().with_lambda(5));
        let got = execute_vvm(&spec, &inv1, &inv2, 3).unwrap();
        let want = naive_join(&d1, &d2, OuterDocs::Full, 5, crate::Weighting::Cosine);
        assert!(got.result.approx_eq(&want, 1e-9));
    }

    /// A watched plan re-plans when its run overruns the page budget, so
    /// every parallel algorithm must honour it: the outer-partitioned
    /// workers at their own checkpoints, term-range VVM at each pass
    /// boundary against the workers' summed reads.
    #[test]
    fn every_parallel_algorithm_enforces_the_cost_budget() {
        let (disk, c1, c2, inv1, inv2, _, _) = inv_fixture();
        let index = textjoin_invfile::FnlIndex::build(Arc::clone(&disk), "c1", &c1).unwrap();
        let spec = JoinSpec::new(&c1, &c2)
            .with_sys(SystemParams {
                buffer_pages: 64,
                page_size: 512,
                alpha: 5.0,
            })
            .with_cost_budget(1.0);
        for (name, got) in [
            ("hhnl", execute_hhnl(&spec, 2)),
            ("hvnl", execute_hvnl(&spec, &inv1, 2)),
            ("vvm", execute_vvm(&spec, &inv1, &inv2, 2)),
            ("fnl", execute_fnl(&spec, &index, 2)),
        ] {
            assert!(
                matches!(got, Err(Error::CostOverrun { .. })),
                "{name}: {got:?}"
            );
        }
    }

    #[test]
    fn term_ranges_tile_both_files() {
        let (_, _, _, inv1, inv2, _, _) = inv_fixture();
        for workers in [2usize, 3, 5, 8] {
            let ranges = term_ranges(&inv1, &inv2, workers);
            assert_eq!(ranges.len(), workers);
            assert_eq!(ranges[0].inner.0, 0);
            assert_eq!(ranges[0].outer.0, 0);
            assert_eq!(ranges[workers - 1].inner.1 as u64, inv1.num_entries());
            assert_eq!(ranges[workers - 1].outer.1 as u64, inv2.num_entries());
            for w in ranges.windows(2) {
                assert_eq!(w[0].inner.1, w[1].inner.0, "inner ranges contiguous");
                assert_eq!(w[0].outer.1, w[1].outer.0, "outer ranges contiguous");
                // The outer boundary lands exactly on the inner boundary
                // term, so a term is merged by exactly one worker.
                let boundary = inv1.meta(w[1].inner.0).term;
                if w[1].outer.0 < inv2.num_entries() as u32 {
                    assert!(inv2.meta(w[1].outer.0).term >= boundary);
                }
                if w[0].outer.1 > 0 {
                    assert!(inv2.meta(w[0].outer.1 - 1).term < boundary);
                }
            }
        }
    }

    #[test]
    fn term_ranges_guard_degenerate_worker_counts() {
        // Regression: the old `(t1 * i / workers) as u32` split produced
        // empty and duplicate partitions whenever the vocabulary was
        // smaller than the worker count.
        let (_, _, _, inv1, inv2, _, _) = inv_fixture();
        let t1 = inv1.num_entries() as usize;
        let ranges = term_ranges(&inv1, &inv2, t1 + 50);
        assert_eq!(ranges.len(), t1, "never more ranges than inner terms");
        assert_eq!(ranges[0].inner.0, 0);
        assert_eq!(ranges[t1 - 1].inner.1 as u64, inv1.num_entries());
        assert_eq!(ranges[t1 - 1].outer.1 as u64, inv2.num_entries());
        for r in &ranges {
            assert!(r.inner.0 < r.inner.1, "no empty inner partitions");
        }
        for w in ranges.windows(2) {
            assert_eq!(w[0].inner.1, w[1].inner.0, "inner ranges contiguous");
            assert_eq!(w[0].outer.1, w[1].outer.0, "outer ranges contiguous");
        }
    }

    #[test]
    fn term_ranges_weight_by_document_frequency() {
        // A Zipf-style head term carrying 100 postings next to nine
        // singleton tail terms: the uniform ordinal split gave worker 0
        // half the vocabulary (and nearly all the I/O); the df-weighted
        // split isolates the head.
        use std::collections::HashMap;
        use textjoin_common::{DocId, ICell, TermId};
        let disk = Arc::new(DiskSim::new(512));
        let mut post: HashMap<TermId, Vec<ICell>> = HashMap::new();
        post.insert(
            TermId::new(0),
            (0..100).map(|d| ICell::new(DocId::new(d), 1)).collect(),
        );
        for t in 1..10u32 {
            post.insert(TermId::new(t), vec![ICell::new(DocId::new(t), 1)]);
        }
        let inv = InvertedFile::from_postings(Arc::clone(&disk), "skew", post).unwrap();
        let ranges = term_ranges(&inv, &inv, 2);
        assert_eq!(ranges.len(), 2);
        assert_eq!(ranges[0].inner, (0, 1), "heavy head term isolated");
        assert_eq!(ranges[1].inner, (1, 10));
    }

    #[test]
    fn parallel_io_attribution_sums_match() {
        // The assert inside the merge fires on any mismatch; this exercises
        // it with concurrent scans on every algorithm.
        let (_, c1, c2, inv1, inv2, _, _) = inv_fixture();
        let spec = JoinSpec::new(&c1, &c2).with_query(QueryParams::paper_base().with_lambda(2));
        let h = execute_hhnl(&spec, 4).unwrap();
        assert!(h.stats.io.total_reads() > 0);
        let v = execute_hvnl(&spec, &inv1, 4).unwrap();
        assert!(v.stats.io.total_reads() > 0);
        let m = execute_vvm(&spec, &inv1, &inv2, 4).unwrap();
        assert!(m.stats.io.total_reads() > 0);
    }

    use proptest::prelude::*;
    use proptest::test_runner::TestCaseError;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]

        /// Parallel HVNL and VVM are identical to their sequential
        /// executors — result sets and per-document top-λ scores — on
        /// random collections, for λ ∈ {1, 5, 20} and workers ∈ {1, 2, 4}.
        /// Raw-count weighting keeps every score integer-valued, so
        /// "identical" is exact equality, not a tolerance.
        #[test]
        fn parallel_hvnl_and_vvm_match_sequential_on_random_collections(
            n1 in 8u64..48,
            n2 in 8u64..36,
            vocab in 30u64..150,
            buffer_pages in 64u64..256,
            seed in 0u64..1_000,
        ) {
            let disk = Arc::new(DiskSim::new(512));
            let d1 = SynthSpec::from_stats(CollectionStats::new(n1, 10.0, vocab), seed)
                .generate_docs();
            let d2 = SynthSpec::from_stats(CollectionStats::new(n2, 10.0, vocab), seed + 1)
                .generate_docs();
            let c1 = Collection::build(Arc::clone(&disk), "c1", d1).unwrap();
            let c2 = Collection::build(Arc::clone(&disk), "c2", d2).unwrap();
            let inv1 = InvertedFile::build(Arc::clone(&disk), "c1", &c1).unwrap();
            let inv2 = InvertedFile::build(Arc::clone(&disk), "c2", &c2).unwrap();
            for lambda in [1usize, 5, 20] {
                let spec = JoinSpec::new(&c1, &c2)
                    .with_sys(SystemParams { buffer_pages, page_size: 512, alpha: 5.0 })
                    .with_query(QueryParams::paper_base().with_lambda(lambda));
                let seq_hvnl = hvnl::execute(&spec, &inv1);
                let seq_vvm = vvm::execute(&spec, &inv1, &inv2);
                for workers in [1usize, 2, 4] {
                    let runs = [
                        ("hvnl", &seq_hvnl, execute_hvnl(&spec, &inv1, workers)),
                        ("vvm", &seq_vvm, execute_vvm(&spec, &inv1, &inv2, workers)),
                    ];
                    for (name, seq, par) in runs {
                        match (seq, par) {
                            (Ok(want), Ok(got)) => prop_assert_eq!(
                                &got.result,
                                &want.result,
                                "{} λ={} workers={}",
                                name, lambda, workers
                            ),
                            // A budget too small for the mandatory
                            // structures (sequentially, or split w ways)
                            // is a legitimate outcome, not a divergence.
                            (Err(Error::InsufficientMemory { .. }), _)
                            | (_, Err(Error::InsufficientMemory { .. })) => {}
                            (Err(e), _) => return Err(TestCaseError::fail(
                                format!("{name} sequential: {e}")
                            )),
                            (_, Err(e)) => return Err(TestCaseError::fail(
                                format!("{name} parallel: {e}")
                            )),
                        }
                    }
                }
            }
        }
    }
}
