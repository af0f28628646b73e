//! Wall-clock benchmark of the textjoin library.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload scale|pressure|churn --seed N --seconds S --trace 0|1
//! ```
//!
//! Each workload is generated from `--seed` (default 1; seed 2 is kept
//! for confirming later claims) and driven through the library's public
//! entry points with simulated page latency off. A run repeats whole
//! rounds (set-up, SQL query, four forced joins, mutations, merge) until
//! `--seconds` have passed and at least three rounds are done, and reports
//! each timing as the median over its rounds.
//!
//! `--trace 0` prints the end-to-end metrics. `--trace 1` runs one
//! untraced round, then one round with benchmark-side spans around every
//! library call plus the per-layer probes, prints the per-layer metrics,
//! and writes the spans to `perfbench/out/trace-<workload>-<seed>.jsonl`.
//! Per-layer `_share` metrics are estimates: an exact count times a
//! probed unit cost, divided by the join's thread time (wall × workers).
//!
//! The last line of standard output is one JSON object:
//! `{"correct", "attempted", "failed", "metrics": {name: {value, unit}}}`.

mod check;
mod probes;
#[cfg(test)]
mod selftest;
mod trace;
mod workload;

use std::fmt::Write as _;
use std::process::ExitCode;
use std::time::{Duration, Instant, SystemTime, UNIX_EPOCH};

use textjoin_core::{Algorithm, ExecStats, IoScenario, JoinResult};
use textjoin_costmodel::CostEstimates;

use trace::Recorder;
use workload::{join_spec, median, run_round, Built, Inputs, RoundOut, Workload, PAGE_SIZE};

const DEFAULT_SEED: u64 = 1;
const MIN_ROUNDS: usize = 3;
const MIB: f64 = 1024.0 * 1024.0;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, DEFAULT_SEED, 20, false);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |_| format!("bad value for {flag}: {value}");
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::by_name(&value).ok_or_else(|| format!("unknown workload {value}"))?,
                )
            }
            "--seed" => seed = value.parse().map_err(bad)?,
            "--seconds" => seconds = value.parse().map_err(bad)?,
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, got {value}")),
                }
            }
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required (scale, pressure or churn)")?,
        seed,
        seconds,
        trace,
    })
}

/// Metrics in output order: `(name, value, unit)`.
#[derive(Default)]
pub struct Metrics(Vec<(String, f64, &'static str)>);

impl Metrics {
    fn push(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.0.push((name.into(), value, unit));
    }
}

/// What a run reports.
pub struct Report {
    pub metrics: Metrics,
    pub attempted: u64,
    pub failures: Vec<String>,
}

impl Report {
    fn new() -> Self {
        Self {
            metrics: Metrics::default(),
            attempted: 0,
            failures: Vec::new(),
        }
    }

    fn absorb(&mut self, round: &RoundOut) {
        self.attempted += round.attempted;
        self.failures.extend(round.failures.iter().cloned());
    }

    /// The result line: one JSON object. A metric that is not a finite
    /// number is printed as 0 and counted as a failure.
    pub fn json(&self) -> String {
        let mut m = String::new();
        let mut failed = self.failures.len();
        for (i, (name, value, unit)) in self.metrics.0.iter().enumerate() {
            let v = if value.is_finite() {
                *value
            } else {
                failed += 1;
                0.0
            };
            let sep = if i == 0 { "" } else { ", " };
            let _ = write!(m, r#"{sep}"{name}": {{"value": {v}, "unit": "{unit}"}}"#);
        }
        format!(
            r#"{{"correct": {}, "attempted": {}, "failed": {failed}, "metrics": {{{m}}}}}"#,
            failed == 0,
            self.attempted.max(1),
        )
    }
}

fn alg_key(alg: Algorithm) -> &'static str {
    match alg {
        Algorithm::Hhnl => "hhnl",
        Algorithm::Hvnl => "hvnl",
        Algorithm::Vvm => "vvm",
        Algorithm::Fnl => "fnl",
    }
}

/// The counts that must repeat exactly for a given seed.
#[derive(Debug, PartialEq)]
pub struct Counts {
    pub pages_io: f64,
    pub mem_peak_bytes: u64,
    /// `(cells_touched, sim_ops, passes)` per algorithm.
    pub per_alg: Vec<(u64, u64, u64)>,
}

pub fn counts(round: &RoundOut) -> Counts {
    let all: Vec<&ExecStats> = Algorithm::ALL
        .iter()
        .filter_map(|&a| round.join(a).outcome.as_ref().map(|o| &o.stats))
        .collect();
    Counts {
        pages_io: all.iter().map(|s| s.cost).sum(),
        mem_peak_bytes: all
            .iter()
            .map(|s| s.mem_high_water_bytes)
            .max()
            .unwrap_or(0),
        per_alg: all
            .iter()
            .map(|s| (s.cells_touched, s.sim_ops, s.passes))
            .collect(),
    }
}

/// `--trace 0`: rounds until the time is up, medians of every timing.
pub fn timed_run(wl: &Workload, seed: u64, seconds: u64) -> Result<Report, String> {
    let rec = Recorder::new(String::new(), false);
    let start = Instant::now();
    let mut rounds: Vec<RoundOut> = Vec::new();
    while rounds.len() < MIN_ROUNDS || start.elapsed() < Duration::from_secs(seconds) {
        let round = run_round(wl, seed, &rec, rounds.is_empty(), None)
            .map_err(|e| format!("set-up failed: {e}"))?;
        let joins: Vec<String> = round
            .joins
            .iter()
            .map(|j| format!("{} {:.3}", j.alg, median(&j.wall_s)))
            .collect();
        eprintln!(
            "round {}: setup {:.3} s, planned {:.3} s ({}), joins [{}] s, mutate {:.3} s, merge {:.3} s",
            rounds.len() + 1,
            round.setup_s,
            median(&round.planned_s),
            round.planned_alg.map_or("failed".into(), |a| a.to_string()),
            joins.join(", "),
            median(&round.mutate_s),
            median(&round.merge_s)
        );
        rounds.push(round);
    }
    let mut report = Report::new();
    for r in &rounds {
        report.absorb(r);
    }
    let first = counts(&rounds[0]);
    if rounds.iter().any(|r| counts(r) != first) {
        report
            .failures
            .push("deterministic counts differ between rounds".into());
    }

    let m = &mut report.metrics;
    // Median over every sample of every round.
    let med = |f: &dyn Fn(&RoundOut) -> &[f64]| {
        median(
            &rounds
                .iter()
                .flat_map(|r| f(r).iter().copied())
                .collect::<Vec<_>>(),
        )
    };
    m.push("setup_s", med(&|r| std::slice::from_ref(&r.setup_s)), "s");
    for alg in Algorithm::ALL {
        m.push(
            format!("{}_s", alg_key(alg)),
            med(&|r| &r.join(alg).wall_s),
            "s",
        );
    }
    m.push("planned_s", med(&|r| &r.planned_s), "s");
    m.push("mutate_s", med(&|r| &r.mutate_s), "s");
    m.push("merge_s", med(&|r| &r.merge_s), "s");
    m.push("pages_io", first.pages_io, "pages");
    m.push("mem_peak_mib", first.mem_peak_bytes as f64 / MIB, "MiB");
    eprintln!("rounds: {}", rounds.len());
    Ok(report)
}

/// Per-algorithm figures the traced round's hook collects.
#[derive(Default)]
struct Extras {
    units: Option<probes::Units>,
    /// `(algorithm, wall s, page cost)` at the other worker count.
    other: Vec<(Algorithm, f64, f64)>,
    /// Cost-model prediction per algorithm, in `Algorithm::ALL` order.
    predicted: Vec<f64>,
    /// Live delta documents the joins saw (churn only).
    delta_docs: u64,
    /// Cells in the inner (base + delta) and outer inverted files.
    inv_cells: u64,
    failures: Vec<String>,
}

fn after_joins(
    wl: &Workload,
    inputs: &Inputs,
    built: &Built,
    round: &RoundOut,
    rec: &Recorder,
    x: &mut Extras,
) -> textjoin_common::Result<()> {
    let spec = join_spec(wl, built);
    let expected: Option<&JoinResult> = round
        .joins
        .iter()
        .find_map(|j| j.outcome.as_ref().map(|o| &o.result));
    let (other, failures) = rec
        .span("round.other_workers", || {
            probes::other_workers(wl, built, &spec, expected, rec)
        })
        .0;
    x.other = other;
    x.failures.extend(failures);
    let inputs_model = spec.cost_inputs().with_fnl(built.fnl.stats());
    x.predicted = Algorithm::ALL
        .iter()
        .map(|&alg| {
            if wl.workers == 1 {
                CostEstimates::compute(&inputs_model).cost(alg, IoScenario::Dedicated)
            } else {
                textjoin_costmodel::parallel::estimate(&inputs_model, alg, wl.workers as u64)
            }
        })
        .collect();
    let delta: Vec<usize> = if wl.joins_over_delta {
        let base = wl.inner_docs as usize;
        built
            .live
            .overlay()
            .live_ids()
            .iter()
            .map(|id| id.index() - base)
            .collect()
    } else {
        Vec::new()
    };
    x.delta_docs = delta.len() as u64;
    x.inv_cells = inputs
        .inner
        .iter()
        .chain(&inputs.outer)
        .chain(delta.iter().map(|&i| &inputs.inserts[i]))
        .map(|d| d.num_terms() as u64)
        .sum();
    x.units = Some(
        rec.span("round.probes", || probes::measure(wl, inputs, built, rec))
            .0?,
    );
    Ok(())
}

/// `--trace 1`: an untraced round, then a traced round with the per-layer
/// probes; spans are written out at the end.
pub fn traced_run(
    wl: &Workload,
    seed: u64,
    out_dir: Option<&std::path::Path>,
) -> Result<Report, String> {
    let plain = run_round(wl, seed, &Recorder::new(String::new(), false), true, None)
        .map_err(|e| format!("set-up failed: {e}"))?;
    let stamp = SystemTime::now()
        .duration_since(UNIX_EPOCH)
        .map_or(0, |d| d.as_nanos());
    let rec = Recorder::new(
        format!("{}-{seed}-{}-{stamp}", wl.name, std::process::id()),
        true,
    );
    let mut x = Extras::default();
    let traced = run_round(
        wl,
        seed,
        &rec,
        false,
        Some(&mut |inputs, built, round| after_joins(wl, inputs, built, round, &rec, &mut x)),
    )
    .map_err(|e| format!("set-up failed: {e}"))?;

    let mut report = Report::new();
    report.absorb(&plain);
    report.absorb(&traced);
    report.failures.append(&mut x.failures);
    if counts(&plain) != counts(&traced) {
        report
            .failures
            .push("deterministic counts differ between the untraced and traced rounds".into());
    }
    let u = x.units.as_ref().ok_or("the traced round ran no probes")?;
    let m = &mut report.metrics;
    let workers = wl.workers as f64;

    m.push("storage.read_ns_per_page", u.read_ns_per_page, "ns/page");
    m.push("storage.crc_ns_per_page", u.crc_ns_per_page, "ns/page");
    m.push("storage.write_ns_per_page", u.write_ns_per_page, "ns/page");
    m.push("collection.scan_ns_per_doc", u.scan_ns_per_doc, "ns/doc");
    m.push(
        "collection.decode_ns_per_doc",
        u.decode_ns_per_doc,
        "ns/doc",
    );
    m.push(
        "invfile.scan_ns_per_cell",
        u.inv_scan_ns_per_cell,
        "ns/cell",
    );
    m.push(
        "invfile.decode_ns_per_cell",
        u.inv_decode_ns_per_cell,
        "ns/cell",
    );
    m.push(
        "invfile.fetch_ns_per_entry",
        u.fetch_ns_per_entry,
        "ns/entry",
    );
    m.push("invfile.btree_load_ns", u.btree_load_ns, "ns");
    m.push("invfile.btree_search_ns", u.btree_search_ns, "ns");
    m.push(
        "invfile.sig_scan_ns_per_doc",
        u.sig_scan_ns_per_doc,
        "ns/doc",
    );
    m.push("invfile.term_order_ns", u.term_order_ns, "ns");
    m.push("core.score_ns_per_cell", u.score_ns_per_cell, "ns/cell");
    m.push("core.topk_ns_per_offer", u.topk_ns_per_offer, "ns/offer");

    let mut fastest = f64::INFINITY;
    for (i, alg) in Algorithm::ALL.into_iter().enumerate() {
        let k = alg_key(alg);
        let run = traced.join(alg);
        let wall_s = median(&run.wall_s);
        fastest = fastest.min(wall_s);
        let Some(s) = run.outcome.as_ref().map(|o| &o.stats) else {
            continue;
        };
        let thread_ns = wall_s * 1e9 * workers;
        let pages = s.io.total_reads() as f64;
        let storage = pages * u.read_ns_per_page / thread_ns;
        // Documents decoded, or for VVM inverted cells decoded: every pass
        // decodes both inverted files.
        let decode_ns = match alg {
            Algorithm::Hhnl => {
                (wl.outer_docs + s.passes * (wl.inner_docs + x.delta_docs)) as f64
                    * u.decode_ns_per_doc
            }
            Algorithm::Hvnl => wl.outer_docs as f64 * u.decode_ns_per_doc,
            Algorithm::Fnl => {
                (wl.outer_docs + s.passes * x.delta_docs) as f64 * u.decode_ns_per_doc
            }
            Algorithm::Vvm => (s.passes * x.inv_cells) as f64 * u.inv_decode_ns_per_cell,
        };
        let decode = decode_ns / thread_ns;
        let score = s.cells_touched as f64 * u.score_ns_per_cell / thread_ns;
        m.push(format!("{k}.seq_pages"), s.io.seq_reads as f64, "pages");
        m.push(format!("{k}.rand_pages"), s.io.rand_reads as f64, "pages");
        m.push(format!("{k}.storage_share"), storage, "fraction");
        m.push(format!("{k}.decode_share"), decode, "fraction");
        m.push(format!("{k}.score_share"), score, "fraction");
        m.push(
            format!("{k}.residual_share"),
            1.0 - storage - decode - score,
            "fraction",
        );
        m.push(
            format!("{k}.cells_touched"),
            s.cells_touched as f64,
            "count",
        );
        m.push(format!("{k}.sim_ops"), s.sim_ops as f64, "count");
        m.push(
            format!("{k}.useful_ratio"),
            s.sim_ops as f64 / s.cells_touched.max(1) as f64,
            "fraction",
        );
        m.push(format!("{k}.passes"), s.passes as f64, "count");
        m.push(
            format!("{k}.mem_bytes"),
            s.mem_high_water_bytes as f64,
            "bytes",
        );
        if alg == Algorithm::Hvnl {
            m.push("hvnl.entry_fetches", s.entry_fetches as f64, "count");
            m.push(
                "hvnl.cache_hit_rate",
                s.cache_hits as f64 / (s.cache_hits + s.entry_fetches).max(1) as f64,
                "fraction",
            );
        }
        if let Some(&(_, other_wall, other_cost)) = x.other.iter().find(|o| o.0 == alg) {
            let (w1, w2) = if wl.workers > 1 {
                ((other_wall, other_cost), (wall_s, s.cost))
            } else {
                ((wall_s, s.cost), (other_wall, other_cost))
            };
            m.push(format!("parallel.{k}.speedup"), w1.0 / w2.0, "ratio");
            m.push(format!("parallel.{k}.pages_ratio"), w2.1 / w1.1, "ratio");
        }
        let predicted = x.predicted[i];
        m.push(
            format!("costmodel.{k}.drift_pct"),
            ((s.cost - predicted) / predicted * 100.0).abs(),
            "%",
        );
    }

    m.push("query.parse_ns", u.parse_ns, "ns");
    m.push("query.plan_ns", u.plan_ns, "ns");
    m.push("query.regret", median(&traced.planned_s) / fastest, "ratio");

    let w = &traced.writes;
    // The first write pass is the one `traced.writes` describes; every
    // merge does the same work, so its cost is the median.
    let (mutate_s, merge_s) = (traced.mutate_s[0], median(&traced.merge_s));
    let ops = w.mutation_ops.max(1) as f64;
    m.push("live.op_ns", (mutate_s - w.flush_s) * 1e9 / ops, "ns");
    m.push(
        "live.write_share",
        w.mutate_pages_written as f64 * u.write_ns_per_page / (mutate_s * 1e9),
        "fraction",
    );
    m.push(
        "live.flush_ns",
        w.flush_s * 1e9 / w.flushes.max(1) as f64,
        "ns",
    );
    m.push("live.merge_ns", merge_s * 1e9, "ns");
    m.push(
        "live.pages_written_per_op",
        w.mutate_pages_written as f64 / ops,
        "pages/op",
    );
    m.push(
        "live.write_amp",
        ((w.mutate_pages_written + w.merge_pages_written) * PAGE_SIZE as u64) as f64
            / w.user_bytes.max(1) as f64,
        "ratio",
    );
    m.push(
        "trace.overhead_pct",
        (traced.phases_s() - plain.phases_s()) / plain.phases_s() * 100.0,
        "%",
    );

    let mut layers: std::collections::BTreeMap<&str, u64> = Default::default();
    for (name, ns) in rec.self_times() {
        *layers
            .entry(name.split('.').next().unwrap_or(name))
            .or_default() += ns;
    }
    eprintln!("self time by layer (traced round):");
    for (layer, ns) in layers {
        eprintln!("  {layer:<12} {:>10.3} s", ns as f64 / 1e9);
    }
    if let Some(dir) = out_dir {
        let path = dir.join(format!("trace-{}-{seed}.jsonl", wl.name));
        std::fs::create_dir_all(dir)
            .and_then(|_| std::fs::write(&path, rec.to_jsonl()))
            .map_err(|e| format!("writing {}: {e}", path.display()))?;
        eprintln!("spans written to {}", path.display());
    }
    Ok(report)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::from(2);
        }
    };
    let wl = &args.workload;
    eprintln!("workload {} seed {}: {}", wl.name, args.seed, wl.describe());
    let report = if args.trace {
        let out = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("out");
        traced_run(wl, args.seed, Some(&out))
    } else {
        timed_run(wl, args.seed, args.seconds)
    };
    let report = match report {
        Ok(r) => r,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::FAILURE;
        }
    };
    for f in &report.failures {
        eprintln!("FAILED: {f}");
    }
    let failed = report.failures.len() as f64;
    println!("{:<36} {:>16}  unit", "metric", "value");
    for (name, value, unit) in &report.metrics.0 {
        println!("{name:<36} {value:>16.6}  {unit}");
    }
    println!(
        "{:<36} {:>16.6}  fraction",
        "error_rate",
        failed / report.attempted.max(1) as f64
    );
    println!("{}", report.json());
    ExitCode::SUCCESS
}
