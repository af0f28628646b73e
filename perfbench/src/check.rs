//! Answer checks. Every mismatch is returned as a failure message and
//! counts as one failed operation.

use textjoin_common::DocId;
use textjoin_core::reference::naive_join_filtered;
use textjoin_core::{JoinOutcome, JoinResult, OuterDocs, Weighting};
use textjoin_query::catalog::Value;
use textjoin_query::executor::QueryOutput;

use crate::workload::{Built, Inputs, JoinRun, Workload};

/// `(outer, inner, score)` triples in result order.
fn triples(result: &JoinResult) -> Vec<(u32, u32, f64)> {
    result
        .iter()
        .flat_map(|(outer, ms)| {
            ms.iter()
                .map(move |m| (outer.raw(), m.inner.raw(), m.score.value()))
        })
        .collect()
}

fn number(v: &Value) -> Option<f64> {
    match v {
        Value::Int(i) => Some(*i as f64),
        Value::Float(f) => Some(*f),
        _ => None,
    }
}

fn sql_triples(out: &QueryOutput) -> Result<Vec<(u32, u32, f64)>, String> {
    out.rows
        .iter()
        .map(|r| match (r.first(), r.get(1), r.get(2).and_then(number)) {
            (Some(Value::Int(o)), Some(Value::Int(i)), Some(s)) => Ok((*o as u32, *i as u32, s)),
            _ => Err(format!("SQL row has an unexpected shape: {r:?}")),
        })
        .collect()
}

/// The four forced joins must return identical results (raw-count weights
/// make the comparison exact).
pub fn joins_agree(joins: &[JoinRun]) -> Vec<String> {
    let mut failures = Vec::new();
    let ok: Vec<(&JoinRun, &JoinOutcome)> = joins
        .iter()
        .filter_map(|j| j.outcome.as_ref().map(|o| (j, o)))
        .collect();
    if let Some(((first, a), rest)) = ok.split_first() {
        for (j, b) in rest {
            if a.result != b.result {
                failures.push(format!("{} result differs from {}", j.alg, first.alg));
            }
        }
    }
    for (j, o) in ok {
        if o.stats.skipped_docs + o.stats.skipped_entries > 0 {
            failures.push(format!("{} skipped unreadable data", j.alg));
        }
    }
    failures
}

/// The SQL rows must be exactly the join result.
pub fn sql_matches(out: &QueryOutput, expected: &JoinResult) -> Result<(), String> {
    if sql_triples(out)? != triples(expected) {
        return Err(format!(
            "SQL rows ({} via {}) differ from the forced joins",
            out.rows.len(),
            out.algorithm
        ));
    }
    Ok(())
}

/// Untimed, once per run: the catalog's term mapping, and the sampled
/// outer documents against the naive oracle for both the forced joins and
/// the SQL rows.
pub fn oracle(
    wl: &Workload,
    inputs: &Inputs,
    built: &Built,
    sql_out: Option<&QueryOutput>,
    joined: Option<&JoinOutcome>,
) -> Vec<String> {
    let mut failures = Vec::new();
    if let Err(f) = term_mapping(inputs, built) {
        failures.push(f);
    }
    let sample = OuterDocs::Selected(&inputs.oracle_sample);
    let pristine = naive_join_filtered(
        &inputs.inner,
        &inputs.outer,
        sample,
        None,
        wl.lambda,
        Weighting::RawCount,
    );
    if let Some(joined) = joined {
        let expected = if wl.joins_over_delta {
            let mut all = inputs.inner.clone();
            all.extend(inputs.inserts.iter().cloned());
            let live = built.live.live_ids();
            naive_join_filtered(
                &all,
                &inputs.outer,
                sample,
                Some(&live),
                wl.lambda,
                Weighting::RawCount,
            )
        } else {
            pristine.clone()
        };
        for &id in &inputs.oracle_sample {
            if joined.result.matches(id) != expected.matches(id) {
                failures.push(format!(
                    "outer doc {} differs from the naive oracle",
                    id.raw()
                ));
            }
        }
    }
    if let Some(sql_out) = sql_out {
        match sql_triples(sql_out) {
            Ok(rows) => {
                for &id in &inputs.oracle_sample {
                    let got: Vec<_> = rows.iter().filter(|t| t.0 == id.raw()).copied().collect();
                    let want: Vec<_> = triples(&pristine)
                        .into_iter()
                        .filter(|t| t.0 == id.raw())
                        .collect();
                    if got != want {
                        failures.push(format!(
                            "SQL rows of outer doc {} differ from the naive oracle",
                            id.raw()
                        ));
                    }
                }
            }
            Err(f) => failures.push(f),
        }
    }
    failures
}

/// Synthetic term `t` enters the catalog as the token `t<t>`; tokenizing
/// and stemming must leave every such token intact, so the catalog's
/// documents are the synthetic ones under a one-to-one renumbering.
fn term_mapping(inputs: &Inputs, built: &Built) -> Result<(), String> {
    let registry = built.catalog.registry();
    let mut distinct = std::collections::BTreeSet::new();
    for (rel, docs) in [("L", &inputs.inner), ("R", &inputs.outer)] {
        let store = built
            .catalog
            .relation(rel)
            .and_then(|r| r.text_column("body"))
            .ok_or_else(|| format!("catalog lacks {rel}.body"))?
            .collection
            .store();
        for (i, doc) in docs.iter().enumerate() {
            let mut mapped = Vec::with_capacity(doc.num_terms());
            for cell in doc.cells() {
                distinct.insert(cell.term.raw());
                let token = format!("t{}", cell.term.raw());
                let id = registry
                    .lookup(&token)
                    .ok_or_else(|| format!("token {token} missing from the catalog"))?;
                mapped.push((id, cell.weight as u32));
            }
            let want = textjoin_collection::Document::from_term_counts(mapped);
            let got = store
                .read_doc_direct(DocId::new(i as u32))
                .map_err(|e| format!("catalog read of {rel} doc {i} failed: {e}"))?;
            if got != want {
                return Err(format!(
                    "catalog {rel} doc {i} is not the synthetic document"
                ));
            }
        }
    }
    if registry.len() != distinct.len() {
        return Err(format!(
            "catalog has {} terms for {} synthetic terms",
            registry.len(),
            distinct.len()
        ));
    }
    Ok(())
}
