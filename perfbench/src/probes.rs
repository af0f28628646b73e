//! Unit costs of each layer's public calls, timed on the round's own data.
//!
//! These run only in the traced run, after the forced joins. A probe
//! repeats its call until it has run for at least [`MIN_PROBE`] (and at
//! least [`MIN_REPS`] times) and reports nanoseconds per unit of work.
//! Calls made thousands of times per pass (scoring, top-λ offers, CRC,
//! entry fetches, dictionary searches, scanner steps) get one span per
//! pass; every other call gets a span of its own.

use std::collections::BTreeSet;
use std::hint::black_box;
use std::time::Duration;

use textjoin_common::{DocId, Result, TermId};
use textjoin_core::{Algorithm, IoScenario, JoinSpec, TopK, Weighting};
use textjoin_query::planner::plan_with_workers;
use textjoin_storage::disk::crc32;

use crate::trace::Recorder;
use crate::workload::{execute, span_name, Built, Inputs, Workload};

const MIN_PROBE: Duration = Duration::from_millis(40);
const MIN_REPS: u32 = 3;
/// Pages appended per write-probe pass; the scratch file is capped at
/// [`MAX_WRITE_PAGES`] and removed afterwards.
const WRITE_BATCH: u64 = 256;
const MAX_WRITE_PAGES: u64 = 4096;

/// Nanoseconds per unit, measured by the traced run.
#[derive(Default)]
pub struct Units {
    pub read_ns_per_page: f64,
    pub crc_ns_per_page: f64,
    pub write_ns_per_page: f64,
    pub scan_ns_per_doc: f64,
    pub decode_ns_per_doc: f64,
    pub inv_scan_ns_per_cell: f64,
    pub inv_decode_ns_per_cell: f64,
    pub fetch_ns_per_entry: f64,
    pub btree_load_ns: f64,
    pub btree_search_ns: f64,
    pub sig_scan_ns_per_doc: f64,
    pub term_order_ns: f64,
    pub score_ns_per_cell: f64,
    pub topk_ns_per_offer: f64,
    pub parse_ns: f64,
    pub plan_ns: f64,
}

/// Repeats `pass` (which returns its units of work) until the time and
/// repetition floors are met; returns nanoseconds per unit.
fn per_unit(
    rec: &Recorder,
    name: &'static str,
    mut pass: impl FnMut() -> Result<u64>,
) -> Result<f64> {
    let (mut units, mut busy, mut reps) = (0u64, Duration::ZERO, 0u32);
    while reps < MIN_REPS || busy < MIN_PROBE {
        let (n, t) = rec.span(name, &mut pass);
        units += n?;
        busy += t;
        reps += 1;
    }
    Ok(busy.as_nanos() as f64 / units.max(1) as f64)
}

/// Distinct terms of the outer documents, ascending.
fn outer_terms(inputs: &Inputs) -> Vec<TermId> {
    let set: BTreeSet<TermId> = inputs
        .outer
        .iter()
        .flat_map(|d| d.cells().iter().map(|c| c.term))
        .collect();
    set.into_iter().collect()
}

pub fn measure(wl: &Workload, inputs: &Inputs, built: &Built, rec: &Recorder) -> Result<Units> {
    let disk = &built.disk;
    let base = built.live.base();
    let inv = built.live.base_inv();
    let mut u = Units::default();

    // storage: sequential scans of every file the joins read.
    let files = [
        base.store().file(),
        inv.file(),
        built.fnl.sig_file(),
        built.outer.store().file(),
        built.outer_inv.file(),
    ];
    let mut pages = Vec::new();
    u.read_ns_per_page = per_unit(rec, "storage.read_scan", || {
        pages.clear();
        for &f in &files {
            pages.extend(disk.read_scan(f, 0, disk.num_pages(f))?);
        }
        Ok(pages.len() as u64)
    })?;
    u.crc_ns_per_page = per_unit(rec, "storage.crc32", || {
        for p in &pages {
            black_box(crc32(black_box(p)));
        }
        Ok(pages.len() as u64)
    })?;
    let scratch = disk.create_file("probe.write")?;
    let payload = vec![0x5Au8; disk.page_size()];
    let (mut written, mut busy, mut reps) = (0u64, Duration::ZERO, 0u32);
    while written < MAX_WRITE_PAGES && (reps < MIN_REPS || busy < MIN_PROBE) {
        let (r, t) = rec.span("storage.append_page", || -> Result<()> {
            for _ in 0..WRITE_BATCH {
                disk.append_page(scratch, &payload)?;
            }
            Ok(())
        });
        r?;
        busy += t;
        reps += 1;
        written += WRITE_BATCH;
    }
    u.write_ns_per_page = busy.as_nanos() as f64 / written as f64;
    disk.remove_file("probe.write")?;

    // collection: a full scan of the inner base store; decode is what the
    // scan costs beyond reading its pages.
    let store = base.store();
    u.scan_ns_per_doc = per_unit(rec, "collection.scan", || {
        let mut n = 0u64;
        for d in store.scan() {
            black_box(d?);
            n += 1;
        }
        Ok(n)
    })?;
    u.decode_ns_per_doc = u.scan_ns_per_doc
        - store.num_pages() as f64 * u.read_ns_per_page / store.num_docs().max(1) as f64;

    // invfile
    let mut inv_cells = 0u64;
    u.inv_scan_ns_per_cell = per_unit(rec, "invfile.scan", || {
        inv_cells = 0;
        for e in inv.scan() {
            inv_cells += e?.1.len() as u64;
        }
        Ok(inv_cells)
    })?;
    u.inv_decode_ns_per_cell = u.inv_scan_ns_per_cell
        - inv.num_pages() as f64 * u.read_ns_per_page / inv_cells.max(1) as f64;
    let terms = outer_terms(inputs);
    let ordinals: Vec<u32> = terms.iter().filter_map(|&t| inv.find_term(t)).collect();
    u.fetch_ns_per_entry = per_unit(rec, "invfile.read_entry", || {
        for &o in &ordinals {
            black_box(inv.read_entry(o)?);
        }
        Ok(ordinals.len() as u64)
    })?;
    let btree = inv.btree();
    u.btree_load_ns = per_unit(rec, "invfile.btree_load_leaves", || {
        black_box(btree.load_leaves()?);
        Ok(1)
    })?;
    u.btree_search_ns = per_unit(rec, "invfile.btree_search", || {
        for &t in &terms {
            black_box(btree.search(t)?);
        }
        Ok(terms.len() as u64)
    })?;
    u.sig_scan_ns_per_doc = per_unit(rec, "invfile.sig_scan", || {
        let mut n = 0u64;
        for s in built.fnl.scan() {
            black_box(s?);
            n += 1;
        }
        Ok(n)
    })?;
    u.term_order_ns = per_unit(rec, "invfile.read_term_order", || {
        black_box(built.fnl.read_term_order()?);
        Ok(1)
    })?;

    // core kernels: score every inner base document against the sampled
    // outer documents, then offer those scores to a top-λ heap.
    let (ip, op) = (base.profile(), built.outer.profile());
    let mut scores = Vec::with_capacity(inputs.inner.len() * inputs.oracle_sample.len());
    u.score_ns_per_cell = per_unit(rec, "core.score_pair_counted", || {
        scores.clear();
        let mut cells = 0u64;
        for &o in &inputs.oracle_sample {
            let outer = &inputs.outer[o.index()];
            for (i, inner) in inputs.inner.iter().enumerate() {
                let id = DocId::new(i as u32);
                let (s, _, visited) =
                    Weighting::RawCount.score_pair_counted(id, inner, o, outer, ip, op);
                scores.push((id, s));
                cells += visited;
            }
        }
        Ok(cells)
    })?;
    u.topk_ns_per_offer = per_unit(rec, "core.topk_offer", || {
        for chunk in scores.chunks(inputs.inner.len().max(1)) {
            let mut top = TopK::new(wl.lambda);
            for &(id, s) in chunk {
                top.offer(id, s);
            }
            black_box(top.into_matches());
        }
        Ok(scores.len() as u64)
    })?;

    // query: parse and plan the benchmark's SQL.
    let sql = wl.sql();
    u.parse_ns = per_unit(rec, "query.parse", || {
        black_box(textjoin_query::parse(&sql)?);
        Ok(1)
    })?;
    let query = textjoin_query::parse(&sql)?;
    u.plan_ns = per_unit(rec, "query.plan_with_workers", || {
        black_box(plan_with_workers(
            &built.catalog,
            &query,
            wl.sys(),
            wl.query_params(),
            IoScenario::Dedicated,
            wl.workers,
        )?);
        Ok(1)
    })?;
    Ok(u)
}

/// The four joins at the other worker count (2 if the workload runs one,
/// else 1): `(algorithm, wall seconds, page cost)`. Failures and results
/// that differ from `expected` are returned as messages.
pub fn other_workers(
    wl: &Workload,
    built: &Built,
    spec: &JoinSpec<'_>,
    expected: Option<&textjoin_core::JoinResult>,
    rec: &Recorder,
) -> (Vec<(Algorithm, f64, f64)>, Vec<String>) {
    let w = if wl.workers > 1 { 1 } else { 2 };
    let mut runs = Vec::new();
    let mut failures = Vec::new();
    for alg in Algorithm::ALL {
        let (r, wall) = rec.span(span_name(alg, w), || execute(alg, spec, built, w));
        match r {
            Ok(o) => {
                if expected.is_some_and(|e| *e != o.result) {
                    failures.push(format!("{alg} at w={w} differs from w={}", wl.workers));
                }
                runs.push((alg, wall.as_secs_f64(), o.stats.cost));
            }
            Err(e) => failures.push(format!("{alg} at w={w} failed: {e}")),
        }
    }
    (runs, failures)
}
