//! Sharded multi-site execution — the paper's §3 multidatabase setting,
//! executed instead of only priced.
//!
//! The two collections of a textual join live in *different local systems*;
//! `costmodel::comm` prices the page-shipping term (`β · pages`, with the
//! §3 term-encoding penalty), and this module actually runs the join across
//! `S` simulated sites, each with its own [`DiskSim`] drive:
//!
//! * **HHNL / HVNL — outer document partitioning.** The participating
//!   outer documents are split across sites (hash-by-document, or
//!   size-weighted skew-aware ranges); every site receives a spooled
//!   replica of the inner structures (priced through the comm model) and
//!   runs the existing parallel executor over its slice. A document's λ
//!   best matches depend only on that document and the full inner side, so
//!   the per-site rows concatenate into the exact global result.
//! * **FNL — term-range inner assignment.** Every inner document is
//!   assigned to the site owning its *rarest* term (ties to the smaller
//!   term id), so each inner document lives on exactly one site; the outer
//!   documents are replicated. Per-site top-λ lists merge through
//!   [`topk::merge_lists`], which re-applies the global `(score, inner id)`
//!   tie-break — exact because every candidate that could enter the global
//!   λ already survives some site's λ.
//! * **VVM — term-range inverted-file fragments.** Both inverted files are
//!   split at the same term boundaries into per-site fragment files; each
//!   site merges its fragments into a partial similarity table that ships
//!   to the coordinator, which sums tables and emits through the same
//!   λ-heap as the sequential merge. Every term lives in exactly one
//!   fragment pair, so with integer weights (raw counts) the summed tables
//!   are bit-identical to the sequential accumulator.
//!
//! **Skew-aware partitioning.** Zipfian term frequencies make uniform
//! term-id spans collapse: the span holding the heavy head terms does
//! nearly all the I/O. `weighted_boundaries` sizes ranges by *cumulative
//! document frequency* instead (NOCAP-style load-aware sizing), and
//! `skew_aware_assignment` recursively re-partitions any range whose
//! load exceeds `bound × total/S` (the Robust Dynamic Hybrid Hash Join
//! fallback), bin-packing the pieces back onto the S sites.
//!
//! Exactness: raw-count scores are integers and independent of the
//! rebuilt per-site collection profiles, so sharded results are
//! byte-identical to single-node for all four algorithms — including under
//! delta overlays (materialised into the site structures; the single-node
//! comparison runs with the overlay attached) and degraded mode.
//! Fractional weightings that read collection-wide statistics (TF×IDF)
//! agree only approximately, because per-site profiles are rebuilt from
//! subsets; cosine VVM additionally reassociates floating-point sums.

use crate::kernel::SimRows;
use crate::result::{ExecStats, JoinOutcome, JoinResult, Match, ResultQuality};
use crate::spec::{JoinSpec, OuterDocs};
use crate::topk::{self, TopK};
use crate::{hhnl, parallel, vvm, Algorithm};
use std::collections::{BTreeMap, HashMap};
use std::sync::Arc;
use std::time::Instant;
use textjoin_collection::{Collection, CollectionProfile, Document, DocumentStoreBuilder};
use textjoin_common::{DocId, ICell, Result, TermId};
use textjoin_costmodel::comm::CommParams;
use textjoin_invfile::{FnlIndex, InvertedFile};
use textjoin_obs::{LiveRegistry, QueryTicket, TicketGuard};
use textjoin_storage::{DiskSim, FaultPlan, IoStats, MemTracker, NetworkSim};

/// Bytes shipped per accumulator cell of a partial VVM similarity table:
/// two 4-byte document numbers plus the paper's 4-byte similarity value.
const SHIP_CELL_BYTES: u64 = 12;

/// How partition boundaries are chosen.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum ShardPartitioning {
    /// Cumulative-weight boundaries (document frequency for term ranges,
    /// document pages for outer slices) with recursive re-partitioning of
    /// overloaded ranges.
    #[default]
    SkewAware,
    /// The naive baseline: hash-by-document-id for outer slices, uniform
    /// term-ordinal spans for term ranges.
    Naive,
}

impl std::fmt::Display for ShardPartitioning {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ShardPartitioning::SkewAware => write!(f, "skew-aware"),
            ShardPartitioning::Naive => write!(f, "naive"),
        }
    }
}

/// Configuration of a sharded execution.
#[derive(Clone, Copy)]
pub struct ShardOptions<'a> {
    /// Number of sites `S` (clamped to the partitionable unit count).
    pub shards: usize,
    /// Boundary strategy.
    pub partitioning: ShardPartitioning,
    /// Network pricing: `β` per shipped page plus the §3 term-encoding
    /// blowup on shipped text structures.
    pub comm: CommParams,
    /// Parallel workers *within* each site (the PR 4 engine).
    pub workers: usize,
    /// Re-partition any range whose estimated load exceeds
    /// `skew_bound × total/S` (skew-aware mode only).
    pub skew_bound: f64,
    /// Simulated nanoseconds per shipped page — the network latency knob.
    pub network_page_ns: u64,
    /// When set, every site registers its own in-flight ticket here, so
    /// `/queries` shows per-shard progress.
    pub live: Option<&'a LiveRegistry>,
    /// Chaos hook: inject a fault on one site's drive after the site
    /// structures are built, so the fault strikes mid-run.
    pub fault: Option<ShardFault>,
}

/// A mid-run fault aimed at one site: after site `shard`'s structures are
/// built (and before the join runs), `kind` is planted on `page` — taken
/// modulo each file's size — of every data file on that site's drive.
#[derive(Clone, Copy, Debug)]
pub struct ShardFault {
    /// Which site misbehaves.
    pub shard: usize,
    /// Target page, reduced modulo each faulted file's page count.
    pub page: u64,
    /// What goes wrong on first access.
    pub kind: textjoin_storage::FaultKind,
}

impl<'a> ShardOptions<'a> {
    /// `shards` sites, skew-aware boundaries, default network, one worker
    /// per site.
    pub fn new(shards: usize) -> Self {
        Self {
            shards,
            partitioning: ShardPartitioning::SkewAware,
            comm: CommParams::default_network(),
            workers: 1,
            skew_bound: 1.25,
            network_page_ns: 0,
            live: None,
            fault: None,
        }
    }

    /// Replaces the boundary strategy.
    pub fn with_partitioning(self, partitioning: ShardPartitioning) -> Self {
        Self {
            partitioning,
            ..self
        }
    }

    /// Replaces the network pricing.
    pub fn with_comm(self, comm: CommParams) -> Self {
        Self { comm, ..self }
    }

    /// Sets the per-site parallel worker count.
    pub fn with_workers(self, workers: usize) -> Self {
        Self { workers, ..self }
    }

    /// Sets the skew re-partition bound.
    pub fn with_skew_bound(self, skew_bound: f64) -> Self {
        Self { skew_bound, ..self }
    }

    /// Sets the per-page network latency.
    pub fn with_network_latency_ns(self, network_page_ns: u64) -> Self {
        Self {
            network_page_ns,
            ..self
        }
    }

    /// Registers per-site tickets on this live registry.
    pub fn with_live(self, live: &'a LiveRegistry) -> Self {
        Self {
            live: Some(live),
            ..self
        }
    }

    /// Plants `fault` on its site's drive once the site structures are
    /// built, so it strikes during execution.
    pub fn with_shard_fault(self, fault: ShardFault) -> Self {
        Self {
            fault: Some(fault),
            ..self
        }
    }
}

/// What one site did.
#[derive(Clone, Copy, Debug)]
pub struct ShardReport {
    /// Site index.
    pub shard: usize,
    /// Page reads on this site's drive during execution (builds excluded).
    pub io: IoStats,
    /// This site's page cost (`seq + α·rand`) — the bench grid's
    /// `max-shard` metric maximises this across sites.
    pub pages_io: f64,
    /// Pages shipped to or from this site, term-encoding blowup included.
    pub shipped_pages: u64,
    /// Whether this site had to skip unreadable data.
    pub quality: ResultQuality,
}

/// A merged sharded execution.
#[derive(Clone, Debug)]
pub struct ShardedOutcome {
    /// The global result, merged statistics and overall quality.
    pub outcome: JoinOutcome,
    /// Per-site breakdown.
    pub shards: Vec<ShardReport>,
    /// Total pages shipped between sites.
    pub shipped_pages: u64,
    /// `β × shipped_pages` — the comm term of the total cost.
    pub comm_cost: f64,
    /// Largest per-site page cost — the balance metric skew-aware
    /// partitioning minimises.
    pub max_shard_pages: f64,
    /// Simulated network transfer time.
    pub network_ns: u64,
    /// The strategy that produced the boundaries.
    pub partitioning: ShardPartitioning,
}

impl ShardedOutcome {
    /// Local page cost summed over sites plus the β-priced comm term.
    pub fn total_cost(&self) -> f64 {
        self.shards.iter().map(|s| s.pages_io).sum::<f64>() + self.comm_cost
    }
}

/// Splits `weights.len()` ordinals into at most `parts` contiguous
/// non-empty ranges of approximately equal cumulative weight (zero weights
/// count as 1 so every ordinal has mass). Returns exactly
/// `min(parts, len)` ranges tiling `[0, len)`; uniform weights reduce to
/// uniform spans. This is the NOCAP-style boundary primitive shared by the
/// sharded executors and the parallel VVM term split.
pub(crate) fn weighted_boundaries(weights: &[u64], parts: usize) -> Vec<(u32, u32)> {
    let n = weights.len();
    if n == 0 {
        return Vec::new();
    }
    let parts = parts.clamp(1, n);
    let mut prefix: Vec<u128> = Vec::with_capacity(n + 1);
    let mut acc = 0u128;
    prefix.push(0);
    for &w in weights {
        acc += u128::from(w.max(1));
        prefix.push(acc);
    }
    let total = acc;
    let mut ranges = Vec::with_capacity(parts);
    let mut start = 0usize;
    for part in 1..=parts {
        let end = if part == parts {
            n
        } else {
            // First ordinal whose prefix reaches this part's share of the
            // total, constrained so every remaining part stays non-empty.
            let target = total * part as u128 / parts as u128;
            prefix
                .partition_point(|&p| p < target)
                .clamp(start + 1, n - (parts - part))
        };
        ranges.push((start as u32, end as u32));
        start = end;
    }
    ranges
}

/// Cuts cumulative-weight boundaries, recursively re-partitions any range
/// whose load exceeds `bound × total/parts` (a single heavy ordinal stops
/// the recursion), and greedily bin-packs the pieces onto `parts` shards,
/// heaviest first. Returns one sorted range list per shard; together the
/// ranges tile `[0, len)` exactly once.
pub(crate) fn skew_aware_assignment(
    weights: &[u64],
    parts: usize,
    bound: f64,
) -> Vec<Vec<(u32, u32)>> {
    let n = weights.len();
    let mut shards: Vec<Vec<(u32, u32)>> = vec![Vec::new(); parts];
    if n == 0 || parts == 0 {
        return shards;
    }
    let load_of = |lo: u32, hi: u32| -> u128 {
        weights[lo as usize..hi as usize]
            .iter()
            .map(|&w| u128::from(w.max(1)))
            .sum()
    };
    let total = load_of(0, n as u32);
    let limit = bound.max(1.0) * total as f64 / parts as f64;
    let mut queue = weighted_boundaries(weights, parts);
    let mut leaves: Vec<(u32, u32, u128)> = Vec::new();
    while let Some((lo, hi)) = queue.pop() {
        let load = load_of(lo, hi);
        if load as f64 > limit && hi - lo > 1 {
            let pieces = ((load as f64 / limit).ceil() as usize).max(2);
            for (a, b) in weighted_boundaries(&weights[lo as usize..hi as usize], pieces) {
                queue.push((lo + a, lo + b));
            }
        } else {
            leaves.push((lo, hi, load));
        }
    }
    // Longest-processing-time packing: heaviest piece onto the least
    // loaded shard; ties break deterministically by range start and shard
    // index.
    leaves.sort_by(|a, b| b.2.cmp(&a.2).then(a.0.cmp(&b.0)));
    let mut loads = vec![0u128; parts];
    for (lo, hi, load) in leaves {
        let k = (0..parts)
            .min_by_key(|&i| (loads[i], i))
            .expect("at least one shard");
        loads[k] += load;
        shards[k].push((lo, hi));
    }
    for ranges in &mut shards {
        ranges.sort_unstable();
    }
    shards
}

/// Executes `C1 SIMILAR_TO(λ) C2` with `algorithm` across
/// `opts.shards` simulated sites and merges the per-site results into the
/// exact global top-λ.
pub fn execute_sharded(
    spec: &JoinSpec<'_>,
    algorithm: Algorithm,
    opts: &ShardOptions<'_>,
) -> Result<ShardedOutcome> {
    match algorithm {
        Algorithm::Vvm => execute_vvm_sharded(spec, opts),
        Algorithm::Hhnl | Algorithm::Hvnl | Algorithm::Fnl => {
            execute_doc_sites(spec, algorithm, opts)
        }
    }
}

/// Materialises a document iterator, honouring degraded mode: unreadable
/// documents are skipped and counted instead of failing the build.
fn materialize(
    iter: impl Iterator<Item = Result<(DocId, Document)>>,
    spec: &JoinSpec<'_>,
) -> Result<(Vec<(DocId, Document)>, u64)> {
    let mut docs = Vec::new();
    let mut skipped = 0u64;
    for item in iter {
        match item {
            Ok(pair) => docs.push(pair),
            Err(e) if spec.skippable(&e) => skipped += 1,
            Err(e) => return Err(e),
        }
    }
    Ok((docs, skipped))
}

/// Builds a site-local collection preserving global document ids (sparse
/// stores handle the gaps), so self-join masking, inner selections and the
/// λ tie-break see exactly the ids the single-node run sees.
fn build_collection(
    disk: &Arc<DiskSim>,
    name: &str,
    docs: &[&(DocId, Document)],
) -> Result<Collection> {
    let mut builder = DocumentStoreBuilder::new(Arc::clone(disk), name)?;
    let mut profile = CollectionProfile::builder();
    for (id, doc) in docs {
        builder.add_with_id(*id, doc)?;
        profile.observe_at(*id, doc);
    }
    Ok(Collection::from_store(
        name,
        builder.finish()?,
        profile.finish(),
    ))
}

/// One side's empty-input degenerate case: every algorithm produces the
/// same result by the cross-algorithm invariant, so run plain HHNL on the
/// original structures and relabel.
fn degenerate(
    spec: &JoinSpec<'_>,
    algorithm: Algorithm,
    opts: &ShardOptions<'_>,
) -> Result<ShardedOutcome> {
    let mut outcome = hhnl::execute(spec)?;
    outcome.stats.algorithm = algorithm;
    Ok(ShardedOutcome {
        outcome,
        shards: Vec::new(),
        shipped_pages: 0,
        comm_cost: 0.0,
        max_shard_pages: 0.0,
        network_ns: 0,
        partitioning: opts.partitioning,
    })
}

/// Registers one ticket per site when a live registry is attached.
fn register_tickets(
    spec: &JoinSpec<'_>,
    algorithm: Algorithm,
    opts: &ShardOptions<'_>,
    sites: usize,
) -> (Vec<TicketGuard>, Vec<Option<QueryTicket>>) {
    let Some(live) = opts.live else {
        return (Vec::new(), vec![None; sites]);
    };
    let pair = format!("{} ⋈ {}", spec.inner.name(), spec.outer.name());
    let mut guards = Vec::with_capacity(sites);
    let mut tickets = Vec::with_capacity(sites);
    for k in 0..sites {
        let guard = live.register(
            format!("shard {k}/{sites}"),
            pair.clone(),
            algorithm.to_string(),
            None,
            None,
            opts.workers.max(1) as u64,
        );
        tickets.push(Some(guard.ticket().clone()));
        guards.push(guard);
    }
    (guards, tickets)
}

/// Borrowed (id, document) pairs selected onto one site.
type SiteDocs<'a> = Vec<&'a (DocId, Document)>;

/// Merged result rows: one `(outer id, λ-list)` entry per outer document.
type ResultRows = Vec<(DocId, Vec<Match>)>;

/// A built site for the document-partitioned algorithms.
struct DocSite {
    inner: Collection,
    outer: Collection,
    inv: Option<InvertedFile>,
    fnl: Option<FnlIndex>,
    shipped: u64,
}

/// HHNL/HVNL (outer document partitioning) and FNL (rarest-term inner
/// assignment): every site runs a complete join over its slice with the
/// existing parallel engine.
fn execute_doc_sites(
    spec: &JoinSpec<'_>,
    algorithm: Algorithm,
    opts: &ShardOptions<'_>,
) -> Result<ShardedOutcome> {
    let started = Instant::now();
    let (outer_docs, skipped_outer) = materialize(spec.outer_iter(), spec)?;
    let (inner_docs, skipped_inner) = materialize(spec.inner_iter(), spec)?;
    let mat_skipped = skipped_outer + skipped_inner;
    if outer_docs.is_empty() || inner_docs.is_empty() {
        return degenerate(spec, algorithm, opts);
    }
    let partition_units = if algorithm == Algorithm::Fnl {
        inner_docs.len()
    } else {
        outer_docs.len()
    };
    let s = opts.shards.max(1).min(partition_units);
    let page = spec.sys.page_size as u64;
    let blowup = opts.comm.encoding.blowup();
    let net = NetworkSim::new(opts.network_page_ns);

    // Per-site document index lists (into `outer_docs` for HHNL/HVNL,
    // `inner_docs` for FNL), each sorted so ids stay ascending.
    let assignment: Vec<Vec<usize>> = if algorithm == Algorithm::Fnl {
        assign_inner_by_rarest_term(&inner_docs, s, opts)
    } else {
        assign_outer_docs(&outer_docs, s, page, opts)
    };

    let mut sites: Vec<Option<DocSite>> = Vec::with_capacity(s);
    for (k, idxs) in assignment.iter().enumerate() {
        if idxs.is_empty() {
            sites.push(None);
            continue;
        }
        let disk = Arc::new(DiskSim::new(spec.sys.page_size));
        let (site_inner, site_outer): (SiteDocs<'_>, SiteDocs<'_>) = if algorithm == Algorithm::Fnl
        {
            // FNL: the inner subset lives here; the outer side is
            // replicated (shipped in) wholesale.
            (
                idxs.iter().map(|&i| &inner_docs[i]).collect(),
                outer_docs.iter().collect(),
            )
        } else {
            // HHNL/HVNL: the outer slice lives here; the inner side is
            // spooled in as a replica.
            (
                inner_docs.iter().collect(),
                idxs.iter().map(|&i| &outer_docs[i]).collect(),
            )
        };
        let inner = build_collection(&disk, "inner", &site_inner)?;
        let outer = build_collection(&disk, "outer", &site_outer)?;
        let inv = if algorithm == Algorithm::Hvnl {
            Some(InvertedFile::build(Arc::clone(&disk), "inner", &inner)?)
        } else {
            None
        };
        let fnl = if algorithm == Algorithm::Fnl {
            Some(FnlIndex::build(Arc::clone(&disk), "inner", &inner)?)
        } else {
            None
        };
        // What crossed the wire to assemble this site, blowup included:
        // HHNL ships the inner collection, HVNL its inverted structures,
        // FNL the replicated outer documents.
        let pages = match algorithm {
            Algorithm::Hhnl => inner.store().num_pages(),
            Algorithm::Hvnl => inv.as_ref().expect("built above").num_pages(),
            Algorithm::Fnl => outer.store().num_pages(),
            Algorithm::Vvm => unreachable!("VVM uses fragment sites"),
        };
        let shipped = (pages as f64 * blowup).ceil() as u64;
        net.ship(shipped);
        if let Some(fault) = opts.fault {
            if fault.shard == k {
                let mut files = vec![inner.store().file(), outer.store().file()];
                if let Some(inv) = &inv {
                    files.push(inv.file());
                }
                if let Some(fnl) = &fnl {
                    files.push(fnl.sig_file());
                }
                let mut plan = FaultPlan::new();
                for file in files {
                    plan = plan.with_fault(
                        file,
                        fault.page % disk.num_pages(file).max(1),
                        0,
                        fault.kind,
                    );
                }
                disk.set_fault_plan(plan);
            }
        }
        disk.reset_stats();
        sites.push(Some(DocSite {
            inner,
            outer,
            inv,
            fnl,
            shipped,
        }));
    }

    let (_guards, tickets) = register_tickets(spec, algorithm, opts, s);
    let workers = opts.workers.max(1);
    let sites_ref = &sites;
    let tickets_ref = &tickets;
    let outcomes = crossbeam::thread::scope(|sc| {
        let handles: Vec<_> = (0..s)
            .map(|k| {
                sc.spawn(move |_| -> Result<Option<JoinOutcome>> {
                    let Some(site) = &sites_ref[k] else {
                        return Ok(None);
                    };
                    let spec_k = JoinSpec {
                        inner: &site.inner,
                        outer: &site.outer,
                        outer_docs: OuterDocs::Full,
                        inner_docs: spec.inner_docs,
                        sys: spec.sys,
                        query: spec.query,
                        weighting: spec.weighting,
                        exclude_self: spec.exclude_self,
                        trace: None,
                        degraded: spec.degraded,
                        cost_budget: None,
                        inner_delta: None,
                        outer_delta: None,
                        cancel: spec.cancel,
                        ticket: tickets_ref[k].as_ref(),
                    };
                    let outcome = match algorithm {
                        Algorithm::Hhnl => parallel::execute_hhnl(&spec_k, workers)?,
                        Algorithm::Hvnl => parallel::execute_hvnl(
                            &spec_k,
                            site.inv.as_ref().expect("HVNL site has an inverted file"),
                            workers,
                        )?,
                        Algorithm::Fnl => parallel::execute_fnl(
                            &spec_k,
                            site.fnl.as_ref().expect("FNL site has a signature index"),
                            workers,
                        )?,
                        Algorithm::Vvm => unreachable!("VVM uses fragment sites"),
                    };
                    Ok(Some(outcome))
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("shard site panicked"))
            .collect::<Result<Vec<Option<JoinOutcome>>>>()
    })
    .expect("crossbeam scope panicked")?;

    // Merge: HHNL/HVNL rows are disjoint by outer document and
    // concatenate; FNL rows cover every outer document on every site and
    // merge through the global λ-heap tie-break.
    let mut stats = ExecStats::zero(algorithm);
    let mut any_partial = false;
    let mut reports = Vec::with_capacity(s);
    let mut concat_rows: Vec<(DocId, Vec<Match>)> = Vec::new();
    let mut fnl_rows: BTreeMap<DocId, Vec<Vec<Match>>> = BTreeMap::new();
    for (k, outcome) in outcomes.into_iter().enumerate() {
        let Some(outcome) = outcome else { continue };
        any_partial |= outcome.quality == ResultQuality::Partial;
        for (id, matches) in outcome.result.iter() {
            if algorithm == Algorithm::Fnl {
                fnl_rows.entry(id).or_default().push(matches.to_vec());
            } else {
                concat_rows.push((id, matches.to_vec()));
            }
        }
        stats += &outcome.stats;
        let site = sites[k].as_ref().expect("ran above");
        reports.push(ShardReport {
            shard: k,
            io: outcome.stats.io,
            pages_io: outcome.stats.io.cost(spec.sys.alpha),
            shipped_pages: site.shipped,
            quality: outcome.quality,
        });
    }
    // Result pages flow back to the coordinator: λ matches of 8 bytes per
    // emitted row.
    let lambda = spec.query.lambda;
    let result_pages = |rows: usize| ((rows * lambda * 8) as u64).div_ceil(page.max(1));
    let rows = if algorithm == Algorithm::Fnl {
        net.ship(result_pages(fnl_rows.len()) * s as u64);
        fnl_rows
            .into_iter()
            .map(|(id, lists)| {
                (
                    id,
                    topk::merge_lists(lists.iter().map(Vec::as_slice), lambda),
                )
            })
            .collect()
    } else {
        net.ship(result_pages(concat_rows.len()));
        concat_rows
    };

    stats.skipped_docs = stats.skipped_docs.saturating_add(mat_skipped);
    stats.wall_ns = started.elapsed().as_nanos() as u64 + net.elapsed_ns();
    let quality = if any_partial || mat_skipped > 0 {
        ResultQuality::Partial
    } else {
        stats.quality()
    };
    let max_shard_pages = reports.iter().map(|r| r.pages_io).fold(0.0, f64::max);
    Ok(ShardedOutcome {
        outcome: JoinOutcome {
            result: JoinResult::from_rows(rows),
            quality,
            stats,
        },
        shards: reports,
        shipped_pages: net.shipped_pages(),
        comm_cost: opts.comm.beta * net.shipped_pages() as f64,
        max_shard_pages,
        network_ns: net.elapsed_ns(),
        partitioning: opts.partitioning,
    })
}

/// Outer-document assignment for HHNL/HVNL: hash-by-id (naive) or
/// page-weighted skew-aware ranges with recursive re-partitioning.
fn assign_outer_docs(
    docs: &[(DocId, Document)],
    s: usize,
    page: u64,
    opts: &ShardOptions<'_>,
) -> Vec<Vec<usize>> {
    match opts.partitioning {
        ShardPartitioning::Naive => {
            let mut shards = vec![Vec::new(); s];
            for (i, (id, _)) in docs.iter().enumerate() {
                shards[id.raw() as usize % s].push(i);
            }
            shards
        }
        ShardPartitioning::SkewAware => {
            let weights: Vec<u64> = docs
                .iter()
                .map(|(_, d)| d.size_bytes().div_ceil(page.max(1)).max(1))
                .collect();
            skew_aware_assignment(&weights, s, opts.skew_bound)
                .into_iter()
                .map(|ranges| {
                    ranges
                        .into_iter()
                        .flat_map(|(a, b)| a as usize..b as usize)
                        .collect()
                })
                .collect()
        }
    }
}

/// FNL inner assignment: partition the (sorted) inner vocabulary into
/// df-weighted term ranges, then send each inner document to the site
/// owning its rarest term (ties to the smaller term id). Every inner
/// document lands on exactly one site — the merge invariant.
fn assign_inner_by_rarest_term(
    docs: &[(DocId, Document)],
    s: usize,
    opts: &ShardOptions<'_>,
) -> Vec<Vec<usize>> {
    let mut df: BTreeMap<TermId, u64> = BTreeMap::new();
    for (_, doc) in docs {
        for cell in doc.cells() {
            *df.entry(cell.term).or_insert(0) += 1;
        }
    }
    let terms: Vec<TermId> = df.keys().copied().collect();
    let weights: Vec<u64> = df.values().copied().collect();
    let ranges_per_shard: Vec<Vec<(u32, u32)>> = match opts.partitioning {
        ShardPartitioning::SkewAware => skew_aware_assignment(&weights, s, opts.skew_bound),
        ShardPartitioning::Naive => weighted_boundaries(&vec![1u64; terms.len()], s)
            .into_iter()
            .map(|r| vec![r])
            .collect(),
    };
    let mut term_shard: HashMap<TermId, usize> = HashMap::with_capacity(terms.len());
    for (k, ranges) in ranges_per_shard.iter().enumerate() {
        for &(a, b) in ranges {
            for &t in &terms[a as usize..b as usize] {
                term_shard.insert(t, k);
            }
        }
    }
    let mut shards = vec![Vec::new(); s];
    for (i, (_, doc)) in docs.iter().enumerate() {
        let rarest = doc
            .cells()
            .iter()
            .map(|c| (df.get(&c.term).copied().unwrap_or(u64::MAX), c.term))
            .min();
        let k = rarest
            .and_then(|(_, t)| term_shard.get(&t).copied())
            .unwrap_or(0);
        shards[k].push(i);
    }
    shards
}

/// A built fragment site for sharded VVM.
struct FragSite {
    disk: Arc<DiskSim>,
    inner: InvertedFile,
    outer: InvertedFile,
    shipped: u64,
}

/// What one fragment site hands back per merge pass (its partial sums stay
/// in the site's own [`SimRows`]).
struct ShardPartial {
    skipped_entries: u64,
    sim_ops: u64,
    io: IoStats,
    mem_high_water: u64,
}

/// Sharded VVM: term-range fragments of both inverted files on per-site
/// drives, per-site partial similarity tables shipped to the coordinator
/// and summed, then emitted through the sequential merge's λ-heap.
fn execute_vvm_sharded(spec: &JoinSpec<'_>, opts: &ShardOptions<'_>) -> Result<ShardedOutcome> {
    let started = Instant::now();
    let (inner_docs, skipped_inner) = materialize(spec.inner_iter(), spec)?;
    let (outer_docs, skipped_outer) = materialize(spec.outer_iter(), spec)?;
    let mat_skipped = skipped_inner + skipped_outer;
    if inner_docs.is_empty() || outer_docs.is_empty() {
        return degenerate(spec, Algorithm::Vvm, opts);
    }
    let postings_of = |docs: &[(DocId, Document)]| {
        let mut map: HashMap<TermId, Vec<ICell>> = HashMap::new();
        for (id, doc) in docs {
            for cell in doc.cells() {
                map.entry(cell.term)
                    .or_default()
                    .push(ICell::new(*id, cell.weight));
            }
        }
        map
    };
    let inner_post = postings_of(&inner_docs);
    let outer_post = postings_of(&outer_docs);
    let mut terms: Vec<TermId> = inner_post.keys().copied().collect();
    for t in outer_post.keys() {
        if !inner_post.contains_key(t) {
            terms.push(*t);
        }
    }
    terms.sort_unstable();
    let s = opts.shards.max(1).min(terms.len());
    let weights: Vec<u64> = terms
        .iter()
        .map(|t| {
            inner_post.get(t).map_or(0, Vec::len) as u64
                + outer_post.get(t).map_or(0, Vec::len) as u64
        })
        .collect();
    let assignment: Vec<Vec<(u32, u32)>> = match opts.partitioning {
        ShardPartitioning::SkewAware => skew_aware_assignment(&weights, s, opts.skew_bound),
        ShardPartitioning::Naive => weighted_boundaries(&vec![1u64; terms.len()], s)
            .into_iter()
            .map(|r| vec![r])
            .collect(),
    };

    let blowup = opts.comm.encoding.blowup();
    let net = NetworkSim::new(opts.network_page_ns);
    let mut sites: Vec<FragSite> = Vec::with_capacity(s);
    for (k, ranges) in assignment.iter().enumerate() {
        let mut frag_inner: HashMap<TermId, Vec<ICell>> = HashMap::new();
        let mut frag_outer: HashMap<TermId, Vec<ICell>> = HashMap::new();
        for &(a, b) in ranges {
            for &t in &terms[a as usize..b as usize] {
                if let Some(cells) = inner_post.get(&t) {
                    frag_inner.insert(t, cells.clone());
                }
                if let Some(cells) = outer_post.get(&t) {
                    frag_outer.insert(t, cells.clone());
                }
            }
        }
        let disk = Arc::new(DiskSim::new(spec.sys.page_size));
        let inner = InvertedFile::from_postings(Arc::clone(&disk), "inner.frag", frag_inner)?;
        let outer = InvertedFile::from_postings(Arc::clone(&disk), "outer.frag", frag_outer)?;
        // The inner fragment ships from the inner site to this merge site
        // (outer fragments are local), blowup included.
        let shipped = (inner.num_pages() as f64 * blowup).ceil() as u64;
        net.ship(shipped);
        if let Some(fault) = opts.fault {
            if fault.shard == k {
                let mut plan = FaultPlan::new();
                for file in [inner.file(), outer.file()] {
                    plan = plan.with_fault(
                        file,
                        fault.page % disk.num_pages(file).max(1),
                        0,
                        fault.kind,
                    );
                }
                disk.set_fault_plan(plan);
            }
        }
        disk.reset_stats();
        sites.push(FragSite {
            disk,
            inner,
            outer,
            shipped,
        });
    }

    let outer_ids: Vec<DocId> = spec.outer_live_ids();
    let num_outer = outer_ids.len() as u64;
    // Size the outer chunking against the *most demanding* fragment pair,
    // so no site's accumulator overflows its budget; memory pressure at
    // run time repartitions adaptively like the sequential executor.
    let specs = std::slice::from_ref(spec);
    let mut first = 1u64;
    for site in &sites {
        let site_partitions =
            vvm::estimate_partitions(specs, &[num_outer], &site.inner, &site.outer, 1)?;
        first = first.max(site_partitions);
    }
    let (_guards, tickets) = register_tickets(spec, Algorithm::Vvm, opts, s);
    let mut acc_shipped = vec![0u64; s];
    let (rows, mut stats, cancelled) = vvm::with_repartitions(
        first,
        num_outer,
        |partitions, retries| {
            acc_shipped.fill(0);
            let (rows, mut stats, cancelled) = run_vvm_passes(
                spec,
                &sites,
                &outer_ids,
                partitions,
                &net,
                &tickets,
                &mut acc_shipped,
            )?;
            retries.record(&mut stats);
            Ok((rows, stats, cancelled))
        },
        // Every attempt starts from reset site tallies, so they hold
        // exactly the abandoned attempt's reads.
        || {
            let mut spent = IoStats::default();
            for site in &sites {
                spent.merge(&site.disk.stats());
            }
            spent.cost(spec.sys.alpha)
        },
    )?;
    let mut reports = Vec::with_capacity(s);
    for (k, site) in sites.iter().enumerate() {
        let io = site.disk.stats();
        reports.push(ShardReport {
            shard: k,
            io,
            pages_io: io.cost(spec.sys.alpha),
            shipped_pages: site.shipped + acc_shipped[k],
            quality: ResultQuality::Full,
        });
    }
    stats.skipped_docs = stats.skipped_docs.saturating_add(mat_skipped);
    stats.wall_ns = started.elapsed().as_nanos() as u64 + net.elapsed_ns();
    let quality = if cancelled || mat_skipped > 0 {
        ResultQuality::Partial
    } else {
        stats.quality()
    };
    // Degraded skips happened on whichever site's cursor hit them;
    // per-site quality mirrors the global skip counters.
    if stats.skipped_entries > 0 {
        for r in &mut reports {
            if r.io.total_reads() > 0 {
                r.quality = quality;
            }
        }
    }
    let max_shard_pages = reports.iter().map(|r| r.pages_io).fold(0.0, f64::max);
    Ok(ShardedOutcome {
        outcome: JoinOutcome {
            result: JoinResult::from_rows(rows),
            quality,
            stats,
        },
        shards: reports,
        shipped_pages: net.shipped_pages(),
        comm_cost: opts.comm.beta * net.shipped_pages() as f64,
        max_shard_pages,
        network_ns: net.elapsed_ns(),
        partitioning: opts.partitioning,
    })
}

/// Runs all merge passes at `partitions` outer chunks; returns merged rows
/// plus summed statistics, attributing each site's shipped accumulator
/// pages into `acc_shipped`. Errors with `InsufficientMemory` when any
/// site's accumulator overflows, so the caller can re-chunk.
#[allow(clippy::too_many_arguments)]
fn run_vvm_passes(
    spec: &JoinSpec<'_>,
    sites: &[FragSite],
    outer_ids: &[DocId],
    partitions: u64,
    net: &NetworkSim,
    tickets: &[Option<QueryTicket>],
    acc_shipped: &mut [u64],
) -> Result<(ResultRows, ExecStats, bool)> {
    let page = spec.sys.page_size as u64;
    let chunk_size = (outer_ids.len() as u64).div_ceil(partitions).max(1) as usize;
    let mut rows: ResultRows = Vec::with_capacity(outer_ids.len());
    let mut stats = ExecStats::zero(Algorithm::Vvm);
    let mut cancelled = false;
    let mut passes = 0u64;
    // Reset drive tallies so a retry after memory pressure measures one
    // clean run, like the sequential executor's re-partitioned rerun.
    for site in sites {
        site.disk.reset_stats();
        site.disk.reset_head();
    }
    // One partial table per site, reused by every pass.
    let width = spec.inner_id_bound();
    let mut tables: Vec<SimRows> = sites.iter().map(|_| SimRows::new(width)).collect();
    for chunk in outer_ids.chunks(chunk_size) {
        passes += 1;
        let partials = crossbeam::thread::scope(|sc| {
            let handles: Vec<_> = sites
                .iter()
                .zip(tables.iter_mut())
                .map(|(site, sims)| {
                    sc.spawn(move |_| -> Result<ShardPartial> {
                        let before = DiskSim::thread_io_stats();
                        let tracker = MemTracker::new(&spec.sys);
                        tracker.allocate(
                            (vvm::max_entry_bytes(&site.inner) + vvm::max_entry_bytes(&site.outer))
                                .max(1),
                            "sharded VVM entry buffers",
                        )?;
                        tracker
                            .allocate(TopK::budget_bytes(spec.query.lambda), "VVM result heap")?;
                        let mut skipped = 0u64;
                        let mut ops = 0u64;
                        let n1 = site.inner.num_entries() as u32;
                        let n2 = site.outer.num_entries() as u32;
                        let inner_cur = vvm::EntryCursor::new(
                            site.inner.scan_range(0, n1),
                            spec,
                            &mut skipped,
                        )?;
                        let outer_cur = vvm::EntryCursor::new(
                            site.outer.scan_range(0, n2),
                            spec,
                            &mut skipped,
                        )?;
                        vvm::merge_accumulate(
                            std::slice::from_ref(spec),
                            inner_cur,
                            outer_cur,
                            &[chunk],
                            &tracker,
                            std::slice::from_mut(sims),
                            std::slice::from_mut(&mut ops),
                            &mut skipped,
                        )?;
                        Ok(ShardPartial {
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
                .map(|h| h.join().expect("fragment site panicked"))
                .collect::<Result<Vec<ShardPartial>>>()
        })
        .expect("crossbeam scope panicked")?;

        // Ship each site's partial table to the coordinator and fold them
        // in site order into the first site's table. Raw counts make the
        // fold exact in any order; fractional weightings agree to
        // floating-point reassociation, as in the parallel engine.
        let mut pass_mem = 0u64;
        for (k, (partial, table)) in partials.into_iter().zip(&tables).enumerate() {
            let pages = (table.nonzero() * SHIP_CELL_BYTES).div_ceil(page.max(1));
            acc_shipped[k] += pages;
            net.ship(pages);
            stats.skipped_entries += partial.skipped_entries;
            stats.sim_ops += partial.sim_ops;
            stats.io.merge(&partial.io);
            pass_mem += partial.mem_high_water;
            if let Some(ticket) = &tickets[k] {
                ticket.add_pages(partial.io.cost(spec.sys.alpha));
                ticket.set_phase(format!("vvm.shard pass {passes}"));
            }
        }
        let (acc, rest) = tables.split_first_mut().expect("at least one site");
        for partial in rest {
            acc.fold(partial);
        }
        stats.mem_high_water_bytes = stats.mem_high_water_bytes.max(pass_mem);
        vvm::emit_chunk(spec, chunk, acc, &mut rows);
        if spec.cancel.is_some_and(|c| c.is_cancelled()) {
            cancelled = true;
            break;
        }
    }
    stats.passes = passes;
    stats.cells_touched = stats.sim_ops;
    stats.cost = stats.io.cost(spec.sys.alpha);
    Ok((rows, stats, cancelled))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{fnl, hvnl, Weighting};
    use proptest::prelude::*;
    use proptest::test_runner::TestCaseError;
    use textjoin_collection::SynthSpec;
    use textjoin_common::{CollectionStats, QueryParams, SystemParams};
    use textjoin_costmodel::comm::TermEncoding;

    fn fixture(seed: u64) -> (Arc<DiskSim>, Collection, Collection) {
        let disk = Arc::new(DiskSim::new(512));
        let c1 = SynthSpec::from_stats(CollectionStats::new(50, 10.0, 150), seed)
            .generate(Arc::clone(&disk), "c1")
            .unwrap();
        let c2 = SynthSpec::from_stats(CollectionStats::new(30, 10.0, 150), seed + 1)
            .generate(Arc::clone(&disk), "c2")
            .unwrap();
        (disk, c1, c2)
    }

    fn spec<'a>(c1: &'a Collection, c2: &'a Collection, lambda: usize) -> JoinSpec<'a> {
        JoinSpec::new(c1, c2)
            .with_sys(SystemParams {
                buffer_pages: 256,
                page_size: 512,
                alpha: 5.0,
            })
            .with_query(QueryParams::paper_base().with_lambda(lambda))
    }

    #[test]
    fn weighted_boundaries_reduce_to_uniform_on_equal_weights() {
        let b = weighted_boundaries(&[1; 12], 4);
        assert_eq!(b, vec![(0, 3), (3, 6), (6, 9), (9, 12)]);
    }

    #[test]
    fn weighted_boundaries_isolate_a_heavy_head() {
        // Zipf-like: one head term with 100× the tail mass. Uniform spans
        // would give the first range half the ordinals; df-weighted cuts
        // right after the head.
        let mut w = vec![1u64; 10];
        w[0] = 100;
        let b = weighted_boundaries(&w, 2);
        assert_eq!(b[0], (0, 1), "the heavy head is isolated");
        assert_eq!(b[1], (1, 10));
    }

    #[test]
    fn weighted_boundaries_clamp_degenerate_part_counts() {
        let b = weighted_boundaries(&[5, 5, 5], 10);
        assert_eq!(b, vec![(0, 1), (1, 2), (2, 3)], "parts clamp to len");
        assert!(weighted_boundaries(&[], 4).is_empty());
        assert_eq!(weighted_boundaries(&[7], 1), vec![(0, 1)]);
    }

    #[test]
    fn skew_aware_assignment_tiles_and_balances() {
        let mut w = vec![2u64; 40];
        w[0] = 200; // one hot range seed
        let shards = skew_aware_assignment(&w, 4, 1.25);
        // Every ordinal covered exactly once.
        let mut covered = vec![0u32; 40];
        for ranges in &shards {
            for &(a, b) in ranges {
                for i in a..b {
                    covered[i as usize] += 1;
                }
            }
        }
        assert!(covered.iter().all(|&c| c == 1), "{covered:?}");
        // The heavy ordinal's shard does not also hoard the tail: its
        // total load stays within the bound of a perfect split plus the
        // indivisible head itself.
        let loads: Vec<u64> = shards
            .iter()
            .map(|rs| {
                rs.iter()
                    .map(|&(a, b)| w[a as usize..b as usize].iter().sum::<u64>())
                    .sum()
            })
            .collect();
        let max = *loads.iter().max().unwrap();
        assert!(max <= 200 + 20, "heavy shard load {max} ({loads:?})");
    }

    #[test]
    fn sharded_hhnl_matches_single_node() {
        let (_, c1, c2) = fixture(71);
        let spec = spec(&c1, &c2, 4);
        let want = hhnl::execute(&spec).unwrap();
        for s in [1usize, 2, 3, 4] {
            for strategy in [ShardPartitioning::SkewAware, ShardPartitioning::Naive] {
                let opts = ShardOptions::new(s).with_partitioning(strategy);
                let got = execute_sharded(&spec, Algorithm::Hhnl, &opts).unwrap();
                assert_eq!(got.outcome.result, want.result, "S={s} {strategy}");
                assert_eq!(
                    got.shards.len().max(1).min(s),
                    got.shards.len().max(1).min(s)
                );
                if s > 1 {
                    assert!(got.shipped_pages > 0, "replicas must cross the wire");
                }
            }
        }
    }

    #[test]
    fn sharded_hvnl_and_fnl_match_single_node() {
        let (disk, c1, c2) = fixture(72);
        let spec = spec(&c1, &c2, 5);
        let inv1 = InvertedFile::build(Arc::clone(&disk), "c1", &c1).unwrap();
        let want = hvnl::execute(&spec, &inv1).unwrap();
        for s in [2usize, 4] {
            let hv = execute_sharded(&spec, Algorithm::Hvnl, &ShardOptions::new(s)).unwrap();
            assert_eq!(hv.outcome.result, want.result, "HVNL S={s}");
            let fnl = execute_sharded(&spec, Algorithm::Fnl, &ShardOptions::new(s)).unwrap();
            assert_eq!(fnl.outcome.result, want.result, "FNL S={s}");
        }
    }

    #[test]
    fn sharded_vvm_matches_single_node_both_strategies() {
        let (disk, c1, c2) = fixture(73);
        let spec = spec(&c1, &c2, 5);
        let inv1 = InvertedFile::build(Arc::clone(&disk), "c1", &c1).unwrap();
        let inv2 = InvertedFile::build(Arc::clone(&disk), "c2", &c2).unwrap();
        let want = vvm::execute(&spec, &inv1, &inv2).unwrap();
        for s in [1usize, 2, 4] {
            for strategy in [ShardPartitioning::SkewAware, ShardPartitioning::Naive] {
                let opts = ShardOptions::new(s).with_partitioning(strategy);
                let got = execute_sharded(&spec, Algorithm::Vvm, &opts).unwrap();
                assert_eq!(got.outcome.result, want.result, "S={s} {strategy}");
            }
        }
    }

    #[test]
    fn sharded_vvm_cosine_matches_within_tolerance() {
        let (disk, c1, c2) = fixture(74);
        let spec = spec(&c1, &c2, 4).with_weighting(Weighting::Cosine);
        let inv1 = InvertedFile::build(Arc::clone(&disk), "c1", &c1).unwrap();
        let inv2 = InvertedFile::build(Arc::clone(&disk), "c2", &c2).unwrap();
        let want = vvm::execute(&spec, &inv1, &inv2).unwrap();
        let got = execute_sharded(&spec, Algorithm::Vvm, &ShardOptions::new(3)).unwrap();
        assert!(got.outcome.result.approx_eq(&want.result, 1e-9));
    }

    #[test]
    fn actual_terms_ship_five_times_standard_numbers() {
        // Satellite: the §3 term-encoding penalty, exercised by the
        // sharded HHNL ship-inner path.
        let (_, c1, c2) = fixture(75);
        let spec = spec(&c1, &c2, 3);
        let std_enc = ShardOptions::new(2).with_comm(CommParams {
            beta: 2.0,
            encoding: TermEncoding::StandardNumbers,
        });
        let act_enc = ShardOptions::new(2).with_comm(CommParams {
            beta: 2.0,
            encoding: TermEncoding::ActualTerms,
        });
        let std_run = execute_sharded(&spec, Algorithm::Hhnl, &std_enc).unwrap();
        let act_run = execute_sharded(&spec, Algorithm::Hhnl, &act_enc).unwrap();
        // The inner replicas (the text being shipped) pay the full §3
        // blowup; result rows flow back as standard numbers either way.
        let replicas =
            |run: &ShardedOutcome| -> u64 { run.shards.iter().map(|r| r.shipped_pages).sum() };
        assert!(replicas(&std_run) > 0);
        assert!(
            replicas(&act_run) as f64 >= 5.0 * replicas(&std_run) as f64,
            "ActualTerms {} vs StandardNumbers {}",
            replicas(&act_run),
            replicas(&std_run)
        );
        assert!(act_run.shipped_pages > std_run.shipped_pages);
        assert!(act_run.comm_cost > std_run.comm_cost);
        assert_eq!(std_run.outcome.result, act_run.outcome.result);
    }

    #[test]
    fn selections_and_exclude_self_survive_sharding() {
        let (disk, c1, _) = fixture(76);
        let chosen: Vec<DocId> = (0..50).step_by(3).map(DocId::new).collect();
        let inner_sel: Vec<DocId> = (0..50).step_by(2).map(DocId::new).collect();
        let spec = JoinSpec::new(&c1, &c1)
            .with_sys(SystemParams {
                buffer_pages: 256,
                page_size: 512,
                alpha: 5.0,
            })
            .with_query(QueryParams::paper_base().with_lambda(3))
            .with_outer_docs(OuterDocs::Selected(&chosen))
            .with_inner_docs(&inner_sel)
            .with_exclude_self();
        let want = hhnl::execute(&spec).unwrap();
        let inv = InvertedFile::build(Arc::clone(&disk), "c1.self", &c1).unwrap();
        let want_hv = hvnl::execute(&spec, &inv).unwrap();
        assert_eq!(want.result, want_hv.result, "oracle sanity");
        for alg in [
            Algorithm::Hhnl,
            Algorithm::Hvnl,
            Algorithm::Vvm,
            Algorithm::Fnl,
        ] {
            let got = execute_sharded(&spec, alg, &ShardOptions::new(3)).unwrap();
            assert_eq!(got.outcome.result, want.result, "{alg}");
        }
    }

    #[test]
    fn network_latency_knob_accumulates_transfer_time() {
        let (_, c1, c2) = fixture(77);
        let spec = spec(&c1, &c2, 3);
        let opts = ShardOptions::new(2).with_network_latency_ns(1_000);
        let got = execute_sharded(&spec, Algorithm::Hhnl, &opts).unwrap();
        assert!(got.shipped_pages > 0);
        assert_eq!(got.network_ns, got.shipped_pages * 1_000);
    }

    #[test]
    fn live_registry_sees_per_shard_tickets_and_drains() {
        let (_, c1, c2) = fixture(78);
        let spec = spec(&c1, &c2, 3);
        let live = LiveRegistry::new();
        let opts = ShardOptions::new(3).with_live(&live);
        let got = execute_sharded(&spec, Algorithm::Vvm, &opts).unwrap();
        assert!(got.outcome.stats.io.total_reads() > 0);
        assert!(live.is_empty(), "ticket guards must deregister on drop");
    }

    #[test]
    fn shard_fault_degrades_to_partial_subset() {
        let (_, c1, c2) = fixture(79);
        let base = spec(&c1, &c2, 4);
        let want = hhnl::execute(&base).unwrap();
        // Corrupt an early page of site 1's replicas only; degraded mode
        // skips the unreadable documents there instead of failing the
        // whole join, and the merge reports Partial.
        let degraded = base.with_degraded();
        let opts = ShardOptions::new(3).with_shard_fault(ShardFault {
            shard: 1,
            page: 0,
            kind: textjoin_storage::FaultKind::BitFlip { bit_offset: 77 },
        });
        let got = execute_sharded(&degraded, Algorithm::Hhnl, &opts).unwrap();
        assert_eq!(got.outcome.quality, ResultQuality::Partial);
        assert!(got.outcome.stats.skipped_docs > 0);
        assert!(
            got.shards
                .iter()
                .any(|r| r.quality == ResultQuality::Partial),
            "the faulted site reports the degradation"
        );
        // The healthy sites' rows are untouched: no more rows than the
        // clean run, and every emitted row belongs to a real outer doc.
        assert!(got.outcome.result.iter().count() <= want.result.iter().count());
        for (id, _) in got.outcome.result.iter() {
            assert!(want.result.matches(id).is_some());
        }
    }

    /// An overlay over `c`: `insert` tail documents (copies of existing
    /// ones under fresh ids past the base range) and optionally one
    /// tombstone on the first base document.
    fn overlay_from(c: &Collection, insert: u32, delete: bool) -> textjoin_invfile::DeltaOverlay {
        let store = c.store();
        let mut ov = textjoin_invfile::DeltaOverlay::new();
        let n = store.num_docs();
        for k in 0..insert {
            let src = store.doc_at((k as u64 % n) as usize);
            let doc = store.read_doc_direct(src).unwrap();
            ov.insert_tail(DocId::new(n as u32 + k), doc);
        }
        if delete {
            ov.delete(store.doc_at(0));
        }
        ov
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(16))]

        /// The acceptance sweep: every algorithm × λ∈{1,5,20} × S∈{1,2,4},
        /// both boundary strategies, with and without delta overlays and
        /// degraded mode — sharded results byte-identical to a single-node
        /// run of the same algorithm over the same spec.
        #[test]
        fn sharded_equals_single_node_over_the_grid(
            alg in prop_oneof![
                Just(Algorithm::Hhnl),
                Just(Algorithm::Hvnl),
                Just(Algorithm::Vvm),
                Just(Algorithm::Fnl),
            ],
            lambda in prop_oneof![Just(1usize), Just(5), Just(20)],
            s in prop_oneof![Just(1usize), Just(2), Just(4)],
            naive in proptest::bool::ANY,
            with_delta in proptest::bool::ANY,
            degraded in proptest::bool::ANY,
            seed in 80u64..84,
        ) {
            let (disk, c1, c2) = fixture(seed);
            let inner_ov = overlay_from(&c1, 2, true);
            let outer_ov = overlay_from(&c2, 1, false);
            let mut base = spec(&c1, &c2, lambda);
            if with_delta {
                base = base.with_inner_delta(&inner_ov).with_outer_delta(&outer_ov);
            }
            if degraded {
                base = base.with_degraded();
            }
            let run = |e: Result<crate::JoinOutcome>| {
                e.map_err(|err| TestCaseError::fail(err.to_string()))
            };
            let want = match alg {
                Algorithm::Hhnl => run(hhnl::execute(&base))?,
                Algorithm::Hvnl => {
                    let inv1 = InvertedFile::build(Arc::clone(&disk), "c1", &c1).unwrap();
                    run(hvnl::execute(&base, &inv1))?
                }
                Algorithm::Vvm => {
                    let inv1 = InvertedFile::build(Arc::clone(&disk), "c1", &c1).unwrap();
                    let inv2 = InvertedFile::build(Arc::clone(&disk), "c2", &c2).unwrap();
                    run(vvm::execute(&base, &inv1, &inv2))?
                }
                Algorithm::Fnl => {
                    let fnl1 = FnlIndex::build(Arc::clone(&disk), "c1", &c1).unwrap();
                    run(fnl::execute(&base, &fnl1))?
                }
            };
            let strategy = if naive {
                ShardPartitioning::Naive
            } else {
                ShardPartitioning::SkewAware
            };
            let opts = ShardOptions::new(s).with_partitioning(strategy);
            let got = execute_sharded(&base, alg, &opts)
                .map_err(|err| TestCaseError::fail(err.to_string()))?;
            prop_assert_eq!(
                &got.outcome.result, &want.result,
                "{} λ={} S={} {} delta={} degraded={}",
                alg, lambda, s, strategy, with_delta, degraded
            );
            // Clean runs stay clean: no skips means Full on every site.
            prop_assert_eq!(got.outcome.quality, ResultQuality::Full);
        }
    }
}
