//! FNL cost model — Filtered Nested Loop over the rarity-ordered
//! signature index.
//!
//! FNL keeps HHNL's loop structure (outer documents batched in memory,
//! inner side streamed once per batch) but retargets the per-pass inner
//! scan from the document store (`D1` pages) onto the compact signature
//! index (`Ip` pages, *measured* at build time — the index is gap-coded,
//! so its size has no closed formula). A term-ordering sidecar (`M`
//! pages) is read once at start-up and stays resident, shrinking the
//! outer batch capacity; resident outer documents additionally carry
//! their rank-translated cells (8 bytes per term against the 5-byte
//! d-cells):
//!
//! ```text
//! X   = (B − M_res − ⌈S1⌉) / (S2 + 8·K2/P + 8λ/P)
//! fns = M + outer_read_cost + ⌈N2/X⌉ · (Ip + ΔD1)
//! ```
//!
//! Unlike the paper's 4-byte-per-similarity assumption, the `8λ/P` term
//! bills what the executor's top-λ collector actually pins per resident
//! outer document: λ similarity values *and* λ document numbers. FNL is
//! not a paper formula, so it prices the measured reality rather than the
//! 1996 assumption — this is what keeps its drift rows honest in the
//! multi-pass, high-λ regime where the 4-byte variant underpredicts
//! passes.
//!
//! `ΔD1` is the **false-positive / overlay rescoring term**: documents in
//! the inner delta overlay are not in the signature index, so every pass
//! re-reads the flushed delta side file and rescores those documents
//! from their raw cells outside the signature scan. At the registered
//! threshold (`τ = 1`) the overlap filter is lossless *and* complete —
//! the candidate set is exactly the non-zero-score pairs — so the
//! overlay rescore is the only page bill beyond the signature scan.
//!
//! The λ-dependence is the whole point: HHNL's batch capacity shrinks as
//! λ grows (4λ/P similarity slots per resident document), multiplying
//! passes over the full `D1`; FNL pays the same shrinkage but each extra
//! pass costs only `Ip < D1`. The crossover λ is where
//! `M + ⌈N2/X_f⌉·Ip < ⌈N2/X_h⌉·D1` first holds.
//!
//! The worst-case variant mirrors `hhr`: when the device is shared, every
//! signature-entry read and every batch boundary becomes a seek.

use crate::inputs::JoinInputs;
use textjoin_common::{Error, FnlStats, Result, NUMBER_BYTES, SIM_VALUE_BYTES};

/// In-memory bytes per rank-translated cell of a resident outer document
/// (a 4-byte rank plus a weight, padded).
pub const RANK_CELL_BYTES: usize = 8;

/// Bytes one top-λ slot pins per resident outer document: a similarity
/// value plus the matched document's number — the executor's actual
/// accounting, not the paper's values-only 4 bytes.
pub const TOPK_SLOT_BYTES: usize = SIM_VALUE_BYTES + NUMBER_BYTES;

/// The signature-index statistics, or the error that makes FNL infeasible.
fn stats(inputs: &JoinInputs) -> Result<FnlStats> {
    inputs.fnl.ok_or_else(|| {
        Error::InvalidArgument("FNL requires a signature index on the inner side".into())
    })
}

/// Buffer pages pinned by the decoded term-ordering sidecar for the whole
/// run.
fn meta_resident_pages(inputs: &JoinInputs, fnl: &FnlStats) -> f64 {
    fnl.meta_bytes as f64 / inputs.sys.page_size as f64
}

/// `X` — outer documents held in memory per pass. Smaller than HHNL's
/// `X`: the sidecar stays resident and every outer document also carries
/// its rank-translated cells.
pub fn batch_size(inputs: &JoinInputs) -> Result<f64> {
    let fnl = stats(inputs)?;
    let p = inputs.sys.page_size as f64;
    let per_outer_doc = inputs.s2()
        + (RANK_CELL_BYTES as f64 * inputs.outer.avg_terms_per_doc) / p
        + (TOPK_SLOT_BYTES * inputs.query.lambda) as f64 / p;
    let fixed = meta_resident_pages(inputs, &fnl) + inputs.s1().ceil();
    let x = (inputs.b() - fixed) / per_outer_doc;
    if x < 1.0 {
        return Err(Error::InsufficientMemory {
            context: "FNL outer batch (X < 1)".into(),
            required_pages: (fixed + per_outer_doc).ceil() as u64,
            available_pages: inputs.sys.buffer_pages,
        });
    }
    Ok(x)
}

/// Number of passes over the signature index: `⌈N2 / X⌉` over the live
/// outer documents.
pub fn num_passes(inputs: &JoinInputs) -> Result<f64> {
    Ok((inputs.n2_live() / batch_size(inputs)?).ceil().max(1.0))
}

/// Pages one pass over the inner side actually reads: the signature index
/// plus the overlay rescore (`ΔD1`, the flushed delta document pages).
fn pass_pages(inputs: &JoinInputs, fnl: &FnlStats) -> f64 {
    fnl.index_pages as f64 + inputs.inner_frag.doc_delta_pages as f64
}

/// Extra cost of the run's unavoidable head repositionings even on a
/// dedicated device: one to open the sidecar, one to rewind the signature
/// file at the start of every pass. Each turns a 1-page sequential read
/// into an α-priced random one, so the surcharge is `(1 + passes)(α − 1)`.
fn seek_cost(inputs: &JoinInputs, passes: f64) -> f64 {
    (1.0 + passes) * (inputs.alpha() - 1.0)
}

/// `fns` — dedicated-device cost: sidecar once, outer side once, one
/// signature scan (plus overlay rescore) per pass, and the per-pass rewind
/// seeks the executor cannot avoid.
pub fn sequential(inputs: &JoinInputs) -> Result<f64> {
    let fnl = stats(inputs)?;
    let passes = num_passes(inputs)?;
    Ok(fnl.meta_pages as f64
        + inputs.outer_read_cost()
        + passes * pass_pages(inputs, &fnl)
        + seek_cost(inputs, passes))
}

/// `fnr` — worst-case cost when the I/O device is shared. Mirrors `hhr`:
/// for `N2 ≥ X` every signature-entry read and every batch becomes a
/// seek; for `N2 < X` the resident outer side leaves the leftover memory
/// to read the index in blocks.
pub fn worst_case_random(inputs: &JoinInputs) -> Result<f64> {
    let fnl = stats(inputs)?;
    let x = batch_size(inputs)?;
    let fns = sequential(inputs)?;
    let extra_per_seek = inputs.alpha() - 1.0;
    let pass = pass_pages(inputs, &fnl);
    if inputs.n2_live() >= x {
        let random_ios = pass.min(inputs.n1());
        Ok(fns + num_passes(inputs)? * (1.0 + random_ios) * extra_per_seek)
    } else {
        let leftover_pages = ((x - inputs.n2_live()) * inputs.s2()).max(1.0);
        Ok(fns + (pass / leftover_pages).ceil() * extra_per_seek)
    }
}

/// `⌈Σᵢ N2ᵢ/Xᵢ⌉` — signature scans for the pooled outer batches of a
/// multi-query batch (one ceiling over the summed fractional passes,
/// exactly like `hhs_batch_passes`).
pub fn batch_passes(inputs: &[JoinInputs]) -> Result<f64> {
    let mut fractional = 0.0;
    for i in inputs {
        fractional += i.n2_live() / batch_size(i)?;
    }
    Ok(fractional.ceil().max(1.0))
}

/// `fns_batch` — batched FNL: the sidecar is read once for the whole
/// batch, every query's outer side once, and the signature index once per
/// pooled pass (each with its rewind seek). Reduces exactly to `fns` at
/// `N = 1`.
pub fn fns_batch(inputs: &[JoinInputs]) -> Result<f64> {
    let Some(first) = inputs.first() else {
        return Ok(0.0);
    };
    let fnl = stats(first)?;
    let outer: f64 = inputs.iter().map(|i| i.outer_read_cost()).sum();
    let passes = batch_passes(inputs)?;
    Ok(fnl.meta_pages as f64 + outer + passes * pass_pages(first, &fnl) + seek_cost(first, passes))
}

/// `fnr_batch` — worst-case batched FNL: pooled sequential savings plus
/// every query's own seek penalty (same shape as `hhr_batch`; exact at
/// `N = 1`).
pub fn fnr_batch(inputs: &[JoinInputs]) -> Result<f64> {
    let mut penalty = 0.0;
    for i in inputs {
        penalty += worst_case_random(i)? - sequential(i)?;
    }
    Ok(fns_batch(inputs)? + penalty)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hhnl;
    use textjoin_common::{CollectionStats, FragStats, QueryParams, SystemParams};

    /// The hand-checkable HHNL configuration plus a signature index that
    /// is 40% of `D1` (typical gap-coding ratio) and a one-page sidecar.
    fn simple() -> JoinInputs {
        JoinInputs::with_paper_q(
            CollectionStats::new(1000, 409.6, 10_000),
            CollectionStats::new(2000, 409.6, 10_000),
            SystemParams::paper_base().with_buffer_pages(101),
            QueryParams::paper_base(),
        )
        .with_fnl(FnlStats {
            meta_pages: 1,
            index_pages: 200, // vs D1 = 500
            meta_bytes: 4096,
        })
    }

    #[test]
    fn no_index_means_no_estimate() {
        let i = JoinInputs {
            fnl: None,
            ..simple()
        };
        assert!(batch_size(&i).is_err());
        assert!(sequential(&i).is_err());
        assert!(worst_case_random(&i).is_err());
    }

    #[test]
    fn sequential_cost_matches_the_formula() {
        let i = simple();
        let x = batch_size(&i).unwrap();
        let passes = (2000.0 / x).ceil();
        // M + D2 + passes·Ip + (1 + passes)(α − 1)
        let expect = 1.0 + 1000.0 + passes * 200.0 + (1.0 + passes) * 4.0;
        assert!((sequential(&i).unwrap() - expect).abs() < 1e-9);
        assert_eq!(passes, num_passes(&i).unwrap());
    }

    #[test]
    fn batch_capacity_is_smaller_than_hhnl() {
        // The resident sidecar and the rank-translated cells shrink X, so
        // FNL makes at least as many passes as HHNL over the same join.
        let i = simple();
        assert!(batch_size(&i).unwrap() < hhnl::batch_size(&i).unwrap());
    }

    #[test]
    fn compact_index_beats_hhnl_at_selective_lambdas() {
        // Multi-pass regime at high λ: each FNL pass reads 200 pages
        // against HHNL's 500, which out-earns the extra passes FNL's
        // smaller X causes — and the gap widens as λ shrinks both batch
        // capacities further.
        let base = simple();
        let at = |lambda: usize| JoinInputs {
            query: base.query.with_lambda(lambda),
            ..base
        };
        let hi = at(200);
        assert!(num_passes(&hi).unwrap() >= 2.0);
        assert!(sequential(&hi).unwrap() < hhnl::sequential(&hi).unwrap());
        let gap = |i: &JoinInputs| hhnl::sequential(i).unwrap() - sequential(i).unwrap();
        assert!(gap(&at(500)) > gap(&at(200)));
    }

    #[test]
    fn worst_case_exceeds_sequential_and_flattens_at_alpha_one() {
        let i = simple();
        let fns = sequential(&i).unwrap();
        let fnr = worst_case_random(&i).unwrap();
        assert!(fnr > fns);
        let flat = JoinInputs {
            sys: i.sys.with_alpha(1.0),
            ..i
        };
        assert!((worst_case_random(&flat).unwrap() - sequential(&flat).unwrap()).abs() < 1e-9);
    }

    #[test]
    fn fragmentation_strictly_raises_the_cost() {
        let pristine = simple();
        let frag = JoinInputs {
            inner_frag: FragStats {
                doc_delta_pages: 40,
                ..FragStats::default()
            },
            ..pristine
        };
        // The overlay rescore bills the delta side file on every pass.
        let passes = num_passes(&frag).unwrap();
        let expect = sequential(&pristine).unwrap() + passes * 40.0;
        assert!((sequential(&frag).unwrap() - expect).abs() < 1e-9);
        assert!(sequential(&frag).unwrap() > sequential(&pristine).unwrap());
    }

    #[test]
    fn insufficient_memory_is_an_error() {
        let i = JoinInputs {
            sys: simple().sys.with_buffer_pages(2),
            ..simple()
        };
        assert!(batch_size(&i).is_err());
        assert!(sequential(&i).is_err());
    }

    #[test]
    fn n1_batch_reduces_exactly_to_sequential() {
        let i = simple();
        assert_eq!(fns_batch(&[i]).unwrap(), sequential(&i).unwrap());
        assert_eq!(fnr_batch(&[i]).unwrap(), worst_case_random(&i).unwrap());
        assert_eq!(fns_batch(&[]).unwrap(), 0.0);
        assert_eq!(fnr_batch(&[]).unwrap(), 0.0);
    }

    #[test]
    fn batch_pools_passes_and_shares_the_sidecar() {
        let i = simple();
        let batch = vec![i; 4];
        let sum = 4.0 * sequential(&i).unwrap();
        let pooled = fns_batch(&batch).unwrap();
        assert!(pooled <= sum);
        // The sidecar is genuinely shared: at minimum (N−1)·M is saved.
        assert!(sum - pooled >= 3.0 * 1.0 - 1e-9);
    }
}
