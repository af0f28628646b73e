//! Deterministic benchmark suites over the paper's experiment grid.
//!
//! The criterion targets under `benches/` measure micro-level throughput;
//! this library is the *macro* harness behind `textjoin-sim bench`: it
//! sweeps a grid of (collection pair, λ, buffer size) cases, runs every
//! registered executor on each, and emits a [`BenchReport`] whose JSON
//! form (`BENCH_textjoin.json`) a CI job can archive and diff against a
//! checked-in baseline with [`compare`] (or [`compare_allowing`] when a
//! grid change deliberately adds rows the baseline predates).
//!
//! Two kinds of numbers live in each [`BenchCase`]:
//!
//! * `pages_io` — the paper's `seq + α·rand` page cost, **deterministic**
//!   for a given grid (the simulated disk counts pages, not time); this is
//!   what the regression gate compares;
//! * `wall_*_ns` — wall-clock percentiles over the case's iterations,
//!   exact nearest-rank order statistics (the obs histograms' log-spaced
//!   buckets are too coarse to compare same-magnitude walls); informative
//!   on a given machine, never gated on.

use std::sync::Arc;
use textjoin_collection::SynthSpec;
use textjoin_common::{CollectionStats, DocId, Error, QueryParams, Result, SystemParams};
use textjoin_core::{
    batch, execute_sharded, fnl, hhnl, hvnl, parallel, vvm, JoinSpec, QueryReport, ShardOptions,
    ShardPartitioning,
};
use textjoin_costmodel as costmodel;
use textjoin_costmodel::{Algorithm, CalibrationProfile};
use textjoin_invfile::{FnlIndex, InvertedFile};
use textjoin_live::LiveCollection;
use textjoin_storage::{DiskSim, PageLatency};

/// One collection pair of the benchmark grid.
#[derive(Clone, Debug)]
pub struct BenchPair {
    /// Pair label, e.g. `"balanced"`.
    pub label: String,
    /// Spec for the inner collection (C1).
    pub inner: SynthSpec,
    /// Spec for the outer collection (C2).
    pub outer: SynthSpec,
}

/// The benchmark grid: every combination of pair × λ × B runs all three
/// algorithms `iterations` times.
#[derive(Clone, Debug)]
pub struct BenchGrid {
    /// Suite name recorded in the report.
    pub suite: String,
    /// Collection pairs to sweep.
    pub pairs: Vec<BenchPair>,
    /// λ values to sweep (the paper's group sweeps vary λ).
    pub lambdas: Vec<usize>,
    /// Extra, *selective* λ values — the filter axis. Each runs only the
    /// sequential (w=1, N=1, pristine) executors, and at the base
    /// `sys.buffer_pages` budget rather than the headroom `buffer_pages`
    /// sweep: memory pressure is where the FNL signature filter earns its
    /// keep — high λ inflates every algorithm's per-batch top-λ memory,
    /// and the compact rarest-first index amortizes it over fewer pages
    /// per pass. Labels follow the classic `"<pair> λ=<λ> B=<B>"` scheme,
    /// so a freshly regenerated baseline gates them like any other
    /// sequential row; keep these λ values disjoint from `lambdas` (and
    /// `sys.buffer_pages` out of `buffer_pages`) so labels stay unique.
    pub filter_lambdas: Vec<usize>,
    /// Buffer sizes `B` (pages) to sweep — the paper's memory axis.
    pub buffer_pages: Vec<u64>,
    /// Worker counts to sweep. `1` runs the sequential executors and keeps
    /// the classic case labels; higher counts run the parallel executors
    /// and label their rows `… w=<n>`, so a baseline that only lists the
    /// sequential labels never gates the (wall-clock-motivated,
    /// machine-local) parallel rows.
    pub workers: Vec<usize>,
    /// Batch sizes `N` to sweep. `1` is the classic single-query row (its
    /// label stays `"<pair> λ=<λ> B=<B>"`, so the regression baseline keeps
    /// gating it); higher counts run `N` copies of the query through the
    /// batch engine's shared scans and label their rows `… N=<n>`. Batch
    /// rows record the *total* batch cost — the amortization shows as
    /// `pages_io(N=4) < 4 × pages_io(N=1)`.
    pub batch_sizes: Vec<usize>,
    /// Mutation (fragmentation) levels to sweep. `0.0` is the pristine
    /// bulk-loaded inner collection — the classic rows above, labels
    /// unchanged, so the checked-in baseline keeps gating them. A level
    /// `f > 0` rebuilds the inner side as a [`textjoin_live::LiveCollection`]
    /// with `⌈f·N1⌉` deletes and `⌈f·N1⌉` inserts flushed to delta side
    /// files, runs the sequential executors over the base+delta read path,
    /// and labels the rows `… frag=<pct>%` — measuring what document
    /// churn costs each algorithm before a merge.
    pub frag_levels: Vec<f64>,
    /// Site counts `S` for the sharded (multidatabase) axis. Counts > 1
    /// run the multi-site executor over `shard_pairs` (not the classic
    /// pairs) with both boundary strategies and label their rows
    /// `"<pair> λ=<λ> B=<B> S=<s> <strategy>"` — the `S=` token is what
    /// `--allow-new S=` admits until the checked-in baseline is
    /// regenerated. `pages_io` for these rows records the **max-shard**
    /// page cost (the balance metric sites gate the answer on), so a naive
    /// row sitting above its skew-aware sibling is the measured price of
    /// ignoring skew. `1` runs the single-site sharded path once, as the
    /// axis origin.
    pub shard_counts: Vec<usize>,
    /// Collection pairs the shards axis sweeps. The default grid uses one
    /// Zipfian pair (exponent 1.4, no stop-word removal) whose head terms
    /// concentrate posting mass: naive uniform term spans hand one site
    /// nearly the whole inverted file, which skew-aware df-weighted
    /// boundaries avoid.
    pub shard_pairs: Vec<BenchPair>,
    /// Simulated per-page service time, enabled once the collections and
    /// indexes are built. Zero makes reads instantaneous, which on a
    /// single-core machine means parallel rows can never beat sequential
    /// ones — with real per-page latency, workers overlap their simulated
    /// I/O waits exactly as the paper's dedicated-drive model assumes.
    pub page_latency: PageLatency,
    /// Calibration profile applied to the sequential (w=1) predictions,
    /// keyed by the pair label. `None` keeps the seed cost formulas. The
    /// case labels never change, so a calibrated run gates against the
    /// same baseline — only `drift_pct` moves.
    pub calibration: Option<CalibrationProfile>,
    /// System parameters; `buffer_pages` above overrides `sys.buffer_pages`.
    pub sys: SystemParams,
    /// δ (non-zero similarity fraction) used for every case.
    pub delta: f64,
    /// Wall-clock repetitions per case (percentiles come from these).
    pub iterations: u32,
}

/// A heavily skewed synthetic spec for the shards axis: classic-plus Zipf
/// exponent with stop-word removal off, so the head terms keep their full
/// posting mass and naive uniform term spans visibly overload one site.
fn zipf_spec(stats: CollectionStats, seed: u64) -> SynthSpec {
    let mut spec = SynthSpec::from_stats(stats, seed);
    spec.zipf_exponent = 1.4;
    spec.stopword_fraction = 0.0;
    spec
}

/// The small default grid used by `textjoin-sim bench` and CI: two
/// synthetic collection pairs, two λ values, two buffer sizes and two
/// worker counts — 16 grid points × 3 algorithms, small enough for a test
/// budget. Only the workers=1 rows carry the classic labels the CI
/// baseline gates on; the w=4 rows document parallel speedup.
pub fn small_grid() -> BenchGrid {
    BenchGrid {
        suite: "paper-grid-small".into(),
        pairs: vec![
            BenchPair {
                label: "balanced".into(),
                inner: SynthSpec::from_stats(CollectionStats::new(150, 20.0, 800), 901),
                outer: SynthSpec::from_stats(CollectionStats::new(100, 20.0, 800), 902),
            },
            BenchPair {
                label: "asymmetric".into(),
                inner: SynthSpec::from_stats(CollectionStats::new(220, 15.0, 1000), 903),
                outer: SynthSpec::from_stats(CollectionStats::new(40, 45.0, 700), 904),
            },
        ],
        lambdas: vec![5, 20],
        filter_lambdas: vec![80],
        // 160 keeps the algorithms under memory pressure at w=4 (B/w=40
        // forces extra merge passes); 400 is the headroom point where
        // parallel VVM keeps its single pass per partition and the w=4
        // wall clock actually drops below sequential.
        buffer_pages: vec![160, 400],
        workers: vec![1, 4],
        batch_sizes: vec![1, 4, 16],
        frag_levels: vec![0.0, 0.10, 0.30],
        shard_counts: vec![1, 2, 4],
        shard_pairs: vec![BenchPair {
            label: "zipf".into(),
            inner: zipf_spec(CollectionStats::new(120, 12.0, 300), 905),
            outer: zipf_spec(CollectionStats::new(80, 12.0, 300), 906),
        }],
        page_latency: PageLatency {
            seq_ns: 150_000,
            rand_ns: 300_000,
        },
        calibration: None,
        sys: SystemParams {
            buffer_pages: 60,
            page_size: 512,
            alpha: 5.0,
        },
        delta: 1.0,
        iterations: 3,
    }
}

/// One grid point × algorithm of a finished suite.
#[derive(Clone, Debug, PartialEq)]
pub struct BenchCase {
    /// Case label: `"<pair> λ=<λ> B=<B>"`.
    pub case: String,
    /// Algorithm name (`"HHNL"`, `"HVNL"`, `"VVM"`).
    pub algorithm: String,
    /// Measured `seq + α·rand` page cost — deterministic, gate-able.
    pub pages_io: f64,
    /// Wall-clock p50 over the iterations, nanoseconds.
    pub wall_p50_ns: u64,
    /// Wall-clock p90 over the iterations, nanoseconds.
    pub wall_p90_ns: u64,
    /// Wall-clock p99 over the iterations, nanoseconds.
    pub wall_p99_ns: u64,
    /// Slowest iteration, nanoseconds.
    pub wall_max_ns: u64,
    /// Model-vs-measured drift percent (`(measured − predicted)/measured`),
    /// when the cost model could price the case.
    pub drift_pct: Option<f64>,
}

/// A finished benchmark suite, serialisable to `BENCH_textjoin.json`.
#[derive(Clone, Debug, PartialEq)]
pub struct BenchReport {
    /// Suite name (from the grid).
    pub suite: String,
    /// One entry per grid point × feasible algorithm.
    pub cases: Vec<BenchCase>,
}

impl BenchReport {
    /// Renders the report as one JSON object (hand-rolled — the vendored
    /// serde is a no-op stand-in).
    pub fn to_json(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let _ = write!(out, "{{\"suite\":\"{}\",\"cases\":[", escape(&self.suite));
        for (i, c) in self.cases.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(
                out,
                "{{\"suite\":\"{}\",\"case\":\"{}\",\"algorithm\":\"{}\",\"pages_io\":{:.3},\
                 \"wall_p50_ns\":{},\"wall_p90_ns\":{},\"wall_p99_ns\":{},\"wall_max_ns\":{}",
                escape(&self.suite),
                escape(&c.case),
                escape(&c.algorithm),
                c.pages_io,
                c.wall_p50_ns,
                c.wall_p90_ns,
                c.wall_p99_ns,
                c.wall_max_ns,
            );
            if let Some(d) = c.drift_pct {
                let _ = write!(out, ",\"drift_pct\":{d:.2}");
            }
            out.push('}');
        }
        out.push_str("]}");
        out
    }

    /// Parses a report produced by [`to_json`](Self::to_json). The parser
    /// accepts exactly that shape (flat case objects inside a `cases`
    /// array) — enough for the `--baseline` gate without a JSON library.
    pub fn from_json(text: &str) -> Result<BenchReport> {
        let bad = |what: &str| Error::InvalidArgument(format!("malformed bench report: {what}"));
        let suite = json_str_field(text, "suite").ok_or_else(|| bad("missing suite"))?;
        let cases_at = text
            .find("\"cases\":[")
            .ok_or_else(|| bad("missing cases array"))?;
        let mut cases = Vec::new();
        let mut rest = &text[cases_at + "\"cases\":[".len()..];
        while let Some(open) = rest.find('{') {
            let close = rest[open..]
                .find('}')
                .ok_or_else(|| bad("unterminated case object"))?;
            let obj = &rest[open..open + close + 1];
            cases.push(BenchCase {
                case: json_str_field(obj, "case").ok_or_else(|| bad("case missing label"))?,
                algorithm: json_str_field(obj, "algorithm")
                    .ok_or_else(|| bad("case missing algorithm"))?,
                pages_io: json_num_field(obj, "pages_io")
                    .ok_or_else(|| bad("case missing pages_io"))?,
                wall_p50_ns: json_num_field(obj, "wall_p50_ns").unwrap_or(0.0) as u64,
                wall_p90_ns: json_num_field(obj, "wall_p90_ns").unwrap_or(0.0) as u64,
                wall_p99_ns: json_num_field(obj, "wall_p99_ns").unwrap_or(0.0) as u64,
                wall_max_ns: json_num_field(obj, "wall_max_ns").unwrap_or(0.0) as u64,
                drift_pct: json_num_field(obj, "drift_pct"),
            });
            rest = &rest[open + close + 1..];
        }
        Ok(BenchReport { suite, cases })
    }

    /// The case for one `(case label, algorithm)` key, if present.
    pub fn case(&self, case: &str, algorithm: &str) -> Option<&BenchCase> {
        self.cases
            .iter()
            .find(|c| c.case == case && c.algorithm == algorithm)
    }
}

/// Runs every grid point and returns the finished report. Grid points an
/// algorithm cannot run (insufficient memory) are silently absent from the
/// report — the same case key will then show up as *missing* in a
/// [`compare`] against a baseline that had it.
pub fn run_suite(grid: &BenchGrid) -> Result<BenchReport> {
    Ok(run_suite_with_reports(grid)?.0)
}

/// [`run_suite`] additionally returning one keyed [`QueryReport`] per
/// single-query case — the raw material `textjoin-sim calibrate` appends
/// to the report store. Each report carries the pair label, λ and B, so
/// the calibration fit can group observations by workload.
pub fn run_suite_with_reports(grid: &BenchGrid) -> Result<(BenchReport, Vec<QueryReport>)> {
    let mut cases = Vec::new();
    let mut reports = Vec::new();
    for pair in &grid.pairs {
        let disk = Arc::new(DiskSim::new(grid.sys.page_size));
        let c1 = pair.inner.generate(Arc::clone(&disk), "c1")?;
        let c2 = pair.outer.generate(Arc::clone(&disk), "c2")?;
        let inv1 = InvertedFile::build(Arc::clone(&disk), "c1", &c1)?;
        let inv2 = InvertedFile::build(Arc::clone(&disk), "c2", &c2)?;
        let fnl1 = FnlIndex::build(Arc::clone(&disk), "c1", &c1)?;
        // Mutated inner fixtures for the fragmentation axis: each level
        // rebuilds the inner side as a live collection with ⌈f·N1⌉
        // deterministic deletes and as many fresh inserts, flushed so the
        // delta sits in packed side files (the pre-merge steady state).
        let mut frag_fixtures: Vec<(f64, LiveCollection, FnlIndex)> = Vec::new();
        for (i, &frac) in grid.frag_levels.iter().enumerate() {
            if frac <= 0.0 {
                continue;
            }
            let mut lc = LiveCollection::create(
                Arc::clone(&disk),
                &format!("live{i}"),
                pair.inner.generate_docs(),
            )?;
            let churn = ((pair.inner.num_docs as f64 * frac).ceil() as u64).max(1);
            for id in 0..churn {
                lc.delete(DocId::new(id as u32))?;
            }
            let extra = SynthSpec {
                num_docs: churn,
                seed: pair.inner.seed ^ 0xf7a6,
                ..pair.inner.clone()
            }
            .generate_docs();
            for doc in extra {
                lc.insert(doc)?;
            }
            lc.flush()?;
            // FNL's signature index covers the base collection only; the
            // executor rescores overlay documents exactly at probe time,
            // so the fixture's index is built over the pristine base.
            let lfnl = FnlIndex::build(Arc::clone(&disk), &format!("live{i}"), lc.base())?;
            frag_fixtures.push((frac, lc, lfnl));
        }
        // Latency only prices the measured runs, not collection/index
        // construction above.
        disk.set_page_latency(grid.page_latency);

        // The filter-axis λ points ride the same pair × B sweep but run
        // only the sequential executors — their point is the FNL-vs-HHNL
        // page gap at selective λ, not another worker/batch/frag matrix.
        let lambda_points = grid
            .lambdas
            .iter()
            .map(|&l| (l, false))
            .chain(grid.filter_lambdas.iter().map(|&l| (l, true)));
        for (lambda, filter_axis) in lambda_points {
            // Filter-axis points pin B to the base system budget — the
            // pressure regime the axis exists to measure.
            let bs: Vec<u64> = if filter_axis {
                vec![grid.sys.buffer_pages]
            } else {
                grid.buffer_pages.clone()
            };
            for &b in &bs {
                let spec = JoinSpec::new(&c1, &c2)
                    .with_sys(grid.sys.with_buffer_pages(b))
                    .with_query(QueryParams {
                        lambda,
                        delta: grid.delta,
                    });
                let inputs = spec.cost_inputs().with_fnl(fnl1.stats());
                for &w in &grid.workers {
                    let w = w.max(1);
                    if filter_axis && w > 1 {
                        continue;
                    }
                    let case_label = if w > 1 {
                        format!("{} λ={lambda} B={b} w={w}", pair.label)
                    } else {
                        format!("{} λ={lambda} B={b}", pair.label)
                    };

                    for algorithm in Algorithm::ALL {
                        // No drift for parallel rows: the parallel model
                        // prices per-worker *elapsed* I/O on dedicated
                        // drives, while `pages_io` here sums every worker's
                        // pages on one shared simulated head — the two are
                        // not comparable. EXPLAIN ANALYZE's scaling table
                        // is the predicted-vs-measured view for w>1.
                        let predicted = if w > 1 {
                            None
                        } else {
                            let raw = match algorithm {
                                Algorithm::Hhnl => costmodel::hhnl::sequential(&inputs).ok(),
                                Algorithm::Hvnl => Some(costmodel::hvnl::sequential(&inputs)),
                                Algorithm::Vvm => costmodel::vvm::sequential(&inputs).ok(),
                                Algorithm::Fnl => costmodel::fnl::sequential(&inputs).ok(),
                            };
                            match (&grid.calibration, raw) {
                                (Some(p), Some(r)) => {
                                    Some(p.calibrated_cost(&pair.label, algorithm, r))
                                }
                                (_, raw) => raw,
                            }
                        };
                        // Exact order statistics over the iterations: the
                        // registry's log-spaced histogram has power-of-two
                        // buckets, far too coarse to compare sequential vs
                        // parallel walls of the same magnitude.
                        let mut walls: Vec<u64> = Vec::new();
                        let mut last_report: Option<QueryReport> = None;
                        for _ in 0..grid.iterations.max(1) {
                            disk.reset_stats();
                            disk.reset_head();
                            let run = match algorithm {
                                Algorithm::Hhnl if w > 1 => parallel::execute_hhnl(&spec, w),
                                Algorithm::Hvnl if w > 1 => parallel::execute_hvnl(&spec, &inv1, w),
                                Algorithm::Vvm if w > 1 => {
                                    parallel::execute_vvm(&spec, &inv1, &inv2, w)
                                }
                                Algorithm::Fnl if w > 1 => parallel::execute_fnl(&spec, &fnl1, w),
                                Algorithm::Hhnl => hhnl::execute(&spec),
                                Algorithm::Hvnl => hvnl::execute(&spec, &inv1),
                                Algorithm::Vvm => vvm::execute(&spec, &inv1, &inv2),
                                Algorithm::Fnl => fnl::execute(&spec, &fnl1),
                            };
                            match run {
                                Ok(outcome) => {
                                    walls.push(outcome.stats.wall_ns);
                                    last_report = Some(
                                        QueryReport::from_outcome(
                                            case_label.clone(),
                                            &outcome,
                                            None,
                                            predicted,
                                        )
                                        .with_key(
                                            pair.label.clone(),
                                            lambda as u64,
                                            b,
                                        ),
                                    );
                                }
                                Err(Error::InsufficientMemory { .. }) => {
                                    last_report = None;
                                    break;
                                }
                                Err(e) => return Err(e),
                            }
                        }
                        let Some(report) = last_report else {
                            continue;
                        };
                        walls.sort_unstable();
                        cases.push(BenchCase {
                            case: case_label.clone(),
                            algorithm: algorithm.to_string(),
                            pages_io: report.measured_cost,
                            wall_p50_ns: nearest_rank(&walls, 0.50),
                            wall_p90_ns: nearest_rank(&walls, 0.90),
                            wall_p99_ns: nearest_rank(&walls, 0.99),
                            wall_max_ns: *walls.last().unwrap_or(&0),
                            drift_pct: report.drift_pct(),
                        });
                        reports.push(report);
                    }
                }

                // The batch-size axis: N copies of the query through the
                // batch engine's shared scans. N=1 is the classic row
                // above; batch rows record the total batch cost next to
                // the batch formula's prediction.
                for &n in &grid.batch_sizes {
                    if n <= 1 || filter_axis {
                        continue;
                    }
                    let specs = vec![spec; n];
                    let batch_inputs = vec![inputs; n];
                    let case_label = format!("{} λ={lambda} B={b} N={n}", pair.label);
                    for algorithm in Algorithm::ALL {
                        let predicted = match algorithm {
                            Algorithm::Hhnl => costmodel::hhs_batch(&batch_inputs).ok(),
                            Algorithm::Hvnl => Some(costmodel::hvs_batch(&batch_inputs)),
                            Algorithm::Vvm => costmodel::vvs_batch(&batch_inputs).ok(),
                            Algorithm::Fnl => costmodel::fns_batch(&batch_inputs).ok(),
                        };
                        let mut walls: Vec<u64> = Vec::new();
                        let mut last_stats = None;
                        for _ in 0..grid.iterations.max(1) {
                            disk.reset_stats();
                            disk.reset_head();
                            let run = match algorithm {
                                Algorithm::Hhnl => batch::execute_hhnl(&specs),
                                Algorithm::Hvnl => batch::execute_hvnl(&specs, &inv1),
                                Algorithm::Vvm => batch::execute_vvm(&specs, &inv1, &inv2),
                                Algorithm::Fnl => batch::execute_fnl(&specs, &fnl1),
                            };
                            match run {
                                Ok(outcome) => {
                                    walls.push(outcome.stats.wall_ns);
                                    last_stats = Some(outcome.stats);
                                }
                                Err(Error::InsufficientMemory { .. }) => {
                                    last_stats = None;
                                    break;
                                }
                                Err(e) => return Err(e),
                            }
                        }
                        let Some(stats) = last_stats else {
                            continue;
                        };
                        let drift_pct = predicted.and_then(|p| {
                            (stats.cost > 0.0).then(|| (stats.cost - p) / stats.cost * 100.0)
                        });
                        walls.sort_unstable();
                        cases.push(BenchCase {
                            case: case_label.clone(),
                            algorithm: algorithm.to_string(),
                            pages_io: stats.cost,
                            wall_p50_ns: nearest_rank(&walls, 0.50),
                            wall_p90_ns: nearest_rank(&walls, 0.90),
                            wall_p99_ns: nearest_rank(&walls, 0.99),
                            wall_max_ns: *walls.last().unwrap_or(&0),
                            drift_pct,
                        });
                    }
                }

                // The mutation axis: the same query with the inner side
                // fragmented (delta side files + tombstones, pre-merge).
                // Predictions come from the same sequential formulas —
                // `cost_inputs` folds the overlay's `FragStats` in — so
                // `drift_pct` doubles as a check that the fragmentation
                // term tracks what the executors actually pay.
                for (frac, lc, lfnl) in &frag_fixtures {
                    if filter_axis {
                        break;
                    }
                    let fspec = JoinSpec::new(lc.base(), &c2)
                        .with_sys(grid.sys.with_buffer_pages(b))
                        .with_query(QueryParams {
                            lambda,
                            delta: grid.delta,
                        })
                        .with_inner_delta(lc.overlay());
                    let finputs = fspec.cost_inputs().with_fnl(lfnl.stats());
                    let case_label =
                        format!("{} λ={lambda} B={b} frag={:.0}%", pair.label, frac * 100.0);
                    for algorithm in Algorithm::ALL {
                        let predicted = match algorithm {
                            Algorithm::Hhnl => costmodel::hhnl::sequential(&finputs).ok(),
                            Algorithm::Hvnl => Some(costmodel::hvnl::sequential(&finputs)),
                            Algorithm::Vvm => costmodel::vvm::sequential(&finputs).ok(),
                            Algorithm::Fnl => costmodel::fnl::sequential(&finputs).ok(),
                        };
                        let mut walls: Vec<u64> = Vec::new();
                        let mut last_stats = None;
                        for _ in 0..grid.iterations.max(1) {
                            disk.reset_stats();
                            disk.reset_head();
                            let run = match algorithm {
                                Algorithm::Hhnl => hhnl::execute(&fspec),
                                Algorithm::Hvnl => hvnl::execute(&fspec, lc.base_inv()),
                                Algorithm::Vvm => vvm::execute(&fspec, lc.base_inv(), &inv2),
                                Algorithm::Fnl => fnl::execute(&fspec, lfnl),
                            };
                            match run {
                                Ok(outcome) => {
                                    walls.push(outcome.stats.wall_ns);
                                    last_stats = Some(outcome.stats);
                                }
                                Err(Error::InsufficientMemory { .. }) => {
                                    last_stats = None;
                                    break;
                                }
                                Err(e) => return Err(e),
                            }
                        }
                        let Some(stats) = last_stats else {
                            continue;
                        };
                        let drift_pct = predicted.and_then(|p| {
                            (stats.cost > 0.0).then(|| (stats.cost - p) / stats.cost * 100.0)
                        });
                        walls.sort_unstable();
                        cases.push(BenchCase {
                            case: case_label.clone(),
                            algorithm: algorithm.to_string(),
                            pages_io: stats.cost,
                            wall_p50_ns: nearest_rank(&walls, 0.50),
                            wall_p90_ns: nearest_rank(&walls, 0.90),
                            wall_p99_ns: nearest_rank(&walls, 0.99),
                            wall_max_ns: *walls.last().unwrap_or(&0),
                            drift_pct,
                        });
                    }
                }
            }
        }
    }

    // The shards axis: the multi-site executor over the dedicated
    // (Zipfian) pairs, at every S with both boundary strategies. These
    // rows record the *max-shard* page cost — sites run concurrently, so
    // the heaviest one gates the answer, and that is exactly the number
    // skew-aware partitioning exists to lower. The prediction next to it
    // is the uniform-fraction `ShardPlan`'s `max_shard`, so `drift_pct`
    // measures how far reality sits from the balanced ideal (large
    // positive drift on a naive row *is* the skew). S=1 runs once, as the
    // axis origin, under the skew-aware label.
    if !grid.shard_counts.is_empty() {
        let comm = costmodel::CommParams::default_network();
        for pair in &grid.shard_pairs {
            let disk = Arc::new(DiskSim::new(grid.sys.page_size));
            let c1 = pair.inner.generate(Arc::clone(&disk), "s1")?;
            let c2 = pair.outer.generate(Arc::clone(&disk), "s2")?;
            disk.set_page_latency(grid.page_latency);
            for &lambda in &grid.lambdas {
                for &b in &grid.buffer_pages {
                    let spec = JoinSpec::new(&c1, &c2)
                        .with_sys(grid.sys.with_buffer_pages(b))
                        .with_query(QueryParams {
                            lambda,
                            delta: grid.delta,
                        });
                    let inputs = spec.cost_inputs();
                    for &s in &grid.shard_counts {
                        let s = s.max(1);
                        let strategies: &[ShardPartitioning] = if s == 1 {
                            &[ShardPartitioning::SkewAware]
                        } else {
                            &[ShardPartitioning::SkewAware, ShardPartitioning::Naive]
                        };
                        for &partitioning in strategies {
                            let case_label =
                                format!("{} λ={lambda} B={b} S={s} {partitioning}", pair.label);
                            for algorithm in Algorithm::ALL {
                                let predicted = costmodel::shard::plan(
                                    &inputs,
                                    algorithm,
                                    &comm,
                                    &costmodel::uniform_fractions(s),
                                )
                                .ok()
                                .map(|p| p.max_shard)
                                .filter(|p| p.is_finite());
                                let opts = ShardOptions::new(s)
                                    .with_partitioning(partitioning)
                                    .with_comm(comm);
                                let mut walls: Vec<u64> = Vec::new();
                                let mut last: Option<f64> = None;
                                for _ in 0..grid.iterations.max(1) {
                                    match execute_sharded(&spec, algorithm, &opts) {
                                        Ok(run) => {
                                            walls.push(run.outcome.stats.wall_ns);
                                            last = Some(run.max_shard_pages);
                                        }
                                        Err(Error::InsufficientMemory { .. }) => {
                                            last = None;
                                            break;
                                        }
                                        Err(e) => return Err(e),
                                    }
                                }
                                let Some(max_shard) = last else {
                                    continue;
                                };
                                let drift_pct = predicted.and_then(|p| {
                                    (max_shard > 0.0).then(|| (max_shard - p) / max_shard * 100.0)
                                });
                                walls.sort_unstable();
                                cases.push(BenchCase {
                                    case: case_label.clone(),
                                    algorithm: algorithm.to_string(),
                                    pages_io: max_shard,
                                    wall_p50_ns: nearest_rank(&walls, 0.50),
                                    wall_p90_ns: nearest_rank(&walls, 0.90),
                                    wall_p99_ns: nearest_rank(&walls, 0.99),
                                    wall_max_ns: *walls.last().unwrap_or(&0),
                                    drift_pct,
                                });
                            }
                        }
                    }
                }
            }
        }
    }
    Ok((
        BenchReport {
            suite: grid.suite.clone(),
            cases,
        },
        reports,
    ))
}

/// Why [`compare`] flagged a case.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RegressionKind {
    /// The deterministic page cost grew past the threshold.
    Slower,
    /// In the baseline, but absent from this run (the grid shrank or the
    /// algorithm became infeasible).
    MissingFromRun,
    /// In this run, but absent from the baseline — the baseline is stale
    /// and silently never gates this case; regenerate it.
    MissingFromBaseline,
    /// The baseline entry itself is unusable (`pages_io ≤ 0`): no
    /// threshold can be computed from it, so it gates nothing.
    InvalidBaseline,
}

/// One finding of [`compare`].
#[derive(Clone, Debug)]
pub struct Regression {
    /// What kind of finding this is.
    pub kind: RegressionKind,
    /// Case label.
    pub case: String,
    /// Algorithm name.
    pub algorithm: String,
    /// Baseline page cost (`NAN` when absent from the baseline).
    pub baseline_pages: f64,
    /// Current page cost (`INFINITY` when the case vanished).
    pub current_pages: f64,
    /// Percent increase over the baseline.
    pub pct: f64,
}

impl std::fmt::Display for Regression {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self.kind {
            RegressionKind::Slower => write!(
                f,
                "[{} / {}] pages_io {:.1} -> {:.1} (+{:.1}% > threshold)",
                self.case, self.algorithm, self.baseline_pages, self.current_pages, self.pct
            ),
            RegressionKind::MissingFromRun => write!(
                f,
                "[{} / {}] present in baseline (pages_io {:.1}) but missing from this run",
                self.case, self.algorithm, self.baseline_pages
            ),
            RegressionKind::MissingFromBaseline => write!(
                f,
                "[{} / {}] measured here (pages_io {:.1}) but not in the baseline — \
                 the gate never sees it; regenerate the baseline",
                self.case, self.algorithm, self.current_pages
            ),
            RegressionKind::InvalidBaseline => write!(
                f,
                "[{} / {}] baseline pages_io {:.1} is not positive — the entry gates \
                 nothing; regenerate the baseline",
                self.case, self.algorithm, self.baseline_pages
            ),
        }
    }
}

/// Compares a run against a baseline, returning every case whose
/// deterministic page cost regressed by more than `threshold_pct` percent —
/// and, loudly, every coverage hole: baseline cases the run no longer
/// covers, run cases the baseline never gates, and baseline entries whose
/// page cost is unusable. A stale or corrupt baseline thus fails the gate
/// instead of silently shrinking it. Wall-clock percentiles are
/// informational and never gated — they depend on the machine, while
/// `pages_io` is a pure function of the grid.
pub fn compare(
    baseline: &BenchReport,
    current: &BenchReport,
    threshold_pct: f64,
) -> Vec<Regression> {
    compare_allowing(baseline, current, threshold_pct, &[])
}

/// [`compare`] with an explicit allowlist for *expected* new coverage: a
/// run case absent from the baseline is only a [`MissingFromBaseline`]
/// finding when no allowlist entry matches it. An entry matches a case if
/// the case label contains it as a substring, or if it equals the case's
/// algorithm name — so `"λ=80"` admits a new filter-axis λ point across
/// every pair, and `"FNL"` admits a newly registered algorithm's rows
/// across the whole grid, while both leave every baseline-covered case
/// gated at full strength (the allowlist never silences `Slower`,
/// `MissingFromRun` or `InvalidBaseline` findings). This is the one-PR
/// escape hatch for landing a new grid axis and its regenerated baseline
/// in separate commits without the gate failing hard in between.
///
/// [`MissingFromBaseline`]: RegressionKind::MissingFromBaseline
pub fn compare_allowing(
    baseline: &BenchReport,
    current: &BenchReport,
    threshold_pct: f64,
    allow_new: &[String],
) -> Vec<Regression> {
    let allowed = |c: &BenchCase| {
        allow_new
            .iter()
            .any(|entry| c.case.contains(entry.as_str()) || c.algorithm == *entry)
    };
    let mut regressions = Vec::new();
    for b in &baseline.cases {
        match current.case(&b.case, &b.algorithm) {
            Some(c) => {
                if b.pages_io <= 0.0 {
                    regressions.push(Regression {
                        kind: RegressionKind::InvalidBaseline,
                        case: b.case.clone(),
                        algorithm: b.algorithm.clone(),
                        baseline_pages: b.pages_io,
                        current_pages: c.pages_io,
                        pct: f64::NAN,
                    });
                    continue;
                }
                let pct = 100.0 * (c.pages_io - b.pages_io) / b.pages_io;
                if pct > threshold_pct {
                    regressions.push(Regression {
                        kind: RegressionKind::Slower,
                        case: b.case.clone(),
                        algorithm: b.algorithm.clone(),
                        baseline_pages: b.pages_io,
                        current_pages: c.pages_io,
                        pct,
                    });
                }
            }
            None => regressions.push(Regression {
                kind: RegressionKind::MissingFromRun,
                case: b.case.clone(),
                algorithm: b.algorithm.clone(),
                baseline_pages: b.pages_io,
                current_pages: f64::INFINITY,
                pct: f64::INFINITY,
            }),
        }
    }
    for c in &current.cases {
        if baseline.case(&c.case, &c.algorithm).is_none() && !allowed(c) {
            regressions.push(Regression {
                kind: RegressionKind::MissingFromBaseline,
                case: c.case.clone(),
                algorithm: c.algorithm.clone(),
                baseline_pages: f64::NAN,
                current_pages: c.pages_io,
                pct: f64::NAN,
            });
        }
    }
    regressions
}

/// Nearest-rank quantile over an ascending-sorted sample: the smallest
/// value with at least `q` of the samples at or below it. Exact for the
/// handful of wall-clock repeats a bench case collects.
///
/// The rank `⌈q·n⌉` is computed with an epsilon guard: `q·n` in binary
/// floating point can land a hair *above* an exact integer product
/// (`0.9 × 10 = 9.000000000000002`), and a bare `ceil` then overshoots by
/// one whole order statistic — p90 of ten samples silently became the
/// maximum.
fn nearest_rank(sorted: &[u64], q: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let rank = ((q * sorted.len() as f64) - 1e-9).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

fn escape(s: &str) -> String {
    use std::fmt::Write as _;
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}

/// Extracts `"key":"value"` from a flat JSON object, unescaping `\"`,
/// `\\` and `\n` (the only escapes [`escape`] emits).
fn json_str_field(obj: &str, key: &str) -> Option<String> {
    let needle = format!("\"{key}\":\"");
    let start = obj.find(&needle)? + needle.len();
    let mut out = String::new();
    let mut chars = obj[start..].chars();
    loop {
        match chars.next()? {
            '"' => return Some(out),
            '\\' => match chars.next()? {
                'n' => out.push('\n'),
                c => out.push(c),
            },
            c => out.push(c),
        }
    }
}

/// Extracts `"key":<number>` from a flat JSON object.
fn json_num_field(obj: &str, key: &str) -> Option<f64> {
    let needle = format!("\"{key}\":");
    let start = obj.find(&needle)? + needle.len();
    let rest = &obj[start..];
    let end = rest
        .find(|c: char| {
            c != '-' && c != '+' && c != '.' && c != 'e' && c != 'E' && !c.is_ascii_digit()
        })
        .unwrap_or(rest.len());
    rest[..end].parse().ok()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_is_the_exact_order_statistic() {
        // n=1: every quantile is the lone sample.
        assert_eq!(nearest_rank(&[42], 0.50), 42);
        assert_eq!(nearest_rank(&[42], 0.99), 42);
        // n=2: p50 is the *lower* sample (⌈0.5·2⌉ = 1st order statistic);
        // the old float-skewed rank picked the max.
        assert_eq!(nearest_rank(&[10, 20], 0.50), 10);
        assert_eq!(nearest_rank(&[10, 20], 0.99), 20, "p99 of two is the max");
        // n=10: p90 is the 9th order statistic, not the max —
        // 0.9 × 10 = 9.000000000000002 in binary tripped the bare ceil.
        let ten: Vec<u64> = (1..=10).collect();
        assert_eq!(nearest_rank(&ten, 0.50), 5);
        assert_eq!(nearest_rank(&ten, 0.90), 9);
        assert_eq!(nearest_rank(&ten, 0.99), 10);
        // n=100: p99 is the 99th order statistic.
        let hundred: Vec<u64> = (1..=100).collect();
        assert_eq!(nearest_rank(&hundred, 0.50), 50);
        assert_eq!(nearest_rank(&hundred, 0.90), 90);
        assert_eq!(nearest_rank(&hundred, 0.99), 99);
        // Empty input stays defined.
        assert_eq!(nearest_rank(&[], 0.50), 0);
    }

    fn case(label: &str, algorithm: &str, pages: f64) -> BenchCase {
        BenchCase {
            case: label.into(),
            algorithm: algorithm.into(),
            pages_io: pages,
            wall_p50_ns: 1_000,
            wall_p90_ns: 2_000,
            wall_p99_ns: 4_000,
            wall_max_ns: 5_000,
            drift_pct: Some(-3.5),
        }
    }

    #[test]
    fn json_round_trips() {
        let report = BenchReport {
            suite: "s\"1".into(),
            cases: vec![case("pair λ=5 B=60", "HHNL", 123.5), case("p2", "VVM", 9.0)],
        };
        let parsed = BenchReport::from_json(&report.to_json()).unwrap();
        assert_eq!(parsed, report);
    }

    #[test]
    fn from_json_rejects_garbage() {
        assert!(BenchReport::from_json("not json").is_err());
        assert!(BenchReport::from_json("{\"suite\":\"s\"}").is_err());
    }

    #[test]
    fn compare_flags_regressions_and_missing_cases() {
        let baseline = BenchReport {
            suite: "s".into(),
            cases: vec![
                case("a", "HHNL", 100.0),
                case("a", "HVNL", 100.0),
                case("b", "VVM", 50.0),
            ],
        };
        let current = BenchReport {
            suite: "s".into(),
            cases: vec![
                case("a", "HHNL", 105.0), // +5%: under threshold
                case("a", "HVNL", 150.0), // +50%: regression
                                          // b/VVM missing: regression
            ],
        };
        let regs = compare(&baseline, &current, 10.0);
        assert_eq!(regs.len(), 2);
        assert_eq!(regs[0].algorithm, "HVNL");
        assert_eq!(regs[0].kind, RegressionKind::Slower);
        assert!((regs[0].pct - 50.0).abs() < 1e-9);
        assert_eq!(regs[1].kind, RegressionKind::MissingFromRun);
        assert!(regs[1].current_pages.is_infinite());
        assert!(regs[1].to_string().contains("missing"), "{}", regs[1]);
    }

    #[test]
    fn compare_flags_cases_the_baseline_never_gates() {
        // A case measured by the run but absent from the baseline used to
        // be skipped silently — the gate shrank without anyone noticing.
        let baseline = BenchReport {
            suite: "s".into(),
            cases: vec![case("a", "HHNL", 100.0)],
        };
        let current = BenchReport {
            suite: "s".into(),
            cases: vec![
                case("a", "HHNL", 100.0),
                case("a λ=5 B=60 N=4", "HHNL", 300.0),
            ],
        };
        let regs = compare(&baseline, &current, 10.0);
        assert_eq!(regs.len(), 1);
        assert_eq!(regs[0].kind, RegressionKind::MissingFromBaseline);
        assert_eq!(regs[0].case, "a λ=5 B=60 N=4");
        assert!(regs[0].to_string().contains("regenerate"), "{}", regs[0]);
    }

    #[test]
    fn compare_allowing_admits_expected_new_rows_only() {
        let baseline = BenchReport {
            suite: "s".into(),
            cases: vec![case("a λ=5 B=60", "HHNL", 100.0)],
        };
        let current = BenchReport {
            suite: "s".into(),
            cases: vec![
                case("a λ=5 B=60", "HHNL", 150.0),  // regression: never silenced
                case("a λ=80 B=60", "HHNL", 300.0), // new filter-axis point: allowed by label
                case("a λ=5 B=60", "FNL", 90.0),    // new algorithm: allowed by name
                case("a λ=9 B=60", "VVM", 10.0),    // unexpected new row: still flagged
            ],
        };
        let allow = vec!["λ=80".to_string(), "FNL".to_string()];
        let regs = compare_allowing(&baseline, &current, 10.0, &allow);
        assert_eq!(regs.len(), 2, "{regs:?}");
        assert_eq!(regs[0].kind, RegressionKind::Slower);
        assert_eq!(regs[0].algorithm, "HHNL");
        assert_eq!(regs[1].kind, RegressionKind::MissingFromBaseline);
        assert_eq!(regs[1].case, "a λ=9 B=60");
        // The empty allowlist is exactly `compare`.
        assert_eq!(
            compare_allowing(&baseline, &current, 10.0, &[]).len(),
            compare(&baseline, &current, 10.0).len()
        );
    }

    #[test]
    fn compare_flags_unusable_baseline_entries() {
        // A zero/negative baseline page count can never compute a
        // threshold; it used to be skipped silently.
        let baseline = BenchReport {
            suite: "s".into(),
            cases: vec![case("a", "HHNL", 0.0)],
        };
        let current = BenchReport {
            suite: "s".into(),
            cases: vec![case("a", "HHNL", 100.0)],
        };
        let regs = compare(&baseline, &current, 10.0);
        assert_eq!(regs.len(), 1);
        assert_eq!(regs[0].kind, RegressionKind::InvalidBaseline);
        assert!(regs[0].to_string().contains("not positive"), "{}", regs[0]);
    }

    #[test]
    fn compare_passes_identical_reports() {
        let r = BenchReport {
            suite: "s".into(),
            cases: vec![case("a", "HHNL", 100.0)],
        };
        assert!(compare(&r, &r, 0.0).is_empty());
    }

    #[test]
    fn doubled_cost_fails_a_ten_percent_gate() {
        // The acceptance scenario: an injected 2x slowdown must trip the
        // baseline gate.
        let baseline = BenchReport {
            suite: "s".into(),
            cases: vec![case("a", "HHNL", 100.0)],
        };
        let mut slowed = baseline.clone();
        slowed.cases[0].pages_io *= 2.0;
        let regs = compare(&baseline, &slowed, 10.0);
        assert_eq!(regs.len(), 1);
        assert!((regs[0].pct - 100.0).abs() < 1e-9);
    }

    #[test]
    fn small_grid_covers_four_algorithms_on_two_pairs() {
        let mut grid = small_grid();
        grid.shard_counts = vec![];
        // One grid point per pair keeps the test quick; the full grid runs
        // in `textjoin-sim bench`.
        grid.lambdas.truncate(1);
        grid.filter_lambdas = vec![];
        grid.buffer_pages = vec![160];
        grid.workers = vec![1];
        grid.batch_sizes = vec![1];
        grid.frag_levels = vec![0.0];
        grid.page_latency = PageLatency::default();
        grid.iterations = 2;
        let report = run_suite(&grid).unwrap();
        for pair in ["balanced", "asymmetric"] {
            for algorithm in ["HHNL", "HVNL", "VVM", "FNL"] {
                let label = format!("{pair} λ=5 B=160");
                let c = report
                    .case(&label, algorithm)
                    .unwrap_or_else(|| panic!("missing {label} / {algorithm}"));
                assert!(c.pages_io > 0.0, "{label} {algorithm}");
                assert!(c.wall_p50_ns > 0, "{label} {algorithm}");
                assert!(c.wall_p99_ns > 0, "{label} {algorithm}");
                assert!(c.wall_max_ns >= c.wall_p50_ns, "{label} {algorithm}");
            }
        }
        // Printing truncates floats, so round-trip stability is checked on
        // the serialised form: parse(print(x)) prints identically.
        let parsed = BenchReport::from_json(&report.to_json()).unwrap();
        assert_eq!(parsed.to_json(), report.to_json());
    }

    #[test]
    fn workers_axis_adds_labelled_rows_and_a_speedup() {
        let mut grid = small_grid();
        grid.shard_counts = vec![];
        grid.pairs.truncate(1); // balanced
        grid.lambdas = vec![20];
        grid.filter_lambdas = vec![];
        grid.buffer_pages = vec![400];
        grid.workers = vec![1, 4];
        grid.batch_sizes = vec![1];
        grid.frag_levels = vec![0.0];
        grid.iterations = 3;
        let report = run_suite(&grid).unwrap();

        let mut faster = Vec::new();
        for algorithm in ["HHNL", "HVNL", "VVM", "FNL"] {
            let seq = report
                .case("balanced λ=20 B=400", algorithm)
                .unwrap_or_else(|| panic!("missing sequential {algorithm} row"));
            let par = report
                .case("balanced λ=20 B=400 w=4", algorithm)
                .unwrap_or_else(|| panic!("missing w=4 {algorithm} row"));
            assert!(par.pages_io > 0.0, "{algorithm}");
            assert!(par.wall_p50_ns > 0, "{algorithm}");
            if par.wall_p50_ns < seq.wall_p50_ns {
                faster.push(algorithm);
            }
        }
        // With headroom (B/w still fits one merge pass) parallel VVM reads
        // about as many pages in total as sequential VVM, so its page
        // count — deterministic on every machine — stays within the
        // α-weighted noise of the partition seeks.
        let seq_vvm = report.case("balanced λ=20 B=400", "VVM").unwrap();
        let par_vvm = report.case("balanced λ=20 B=400 w=4", "VVM").unwrap();
        assert!(
            par_vvm.pages_io <= 2.0 * seq_vvm.pages_io,
            "parallel VVM re-read the inverted files: {} vs {}",
            par_vvm.pages_io,
            seq_vvm.pages_io
        );
        // The acceptance bar: at least one algorithm's wall p50 drops at
        // w=4, because workers overlap their simulated page latency. In
        // debug builds compute (10-20x slower, serialised on one core) can
        // swamp the latency term, so the wall assertion is release-only;
        // CI's bench job runs the release binary.
        if cfg!(debug_assertions) {
            return;
        }
        assert!(
            !faster.is_empty(),
            "no algorithm got faster at w=4: {report:?}"
        );
    }

    #[test]
    fn batch_axis_amortizes_shared_scans() {
        let mut grid = small_grid();
        grid.shard_counts = vec![];
        grid.lambdas = vec![5];
        grid.filter_lambdas = vec![];
        grid.buffer_pages = vec![160];
        grid.workers = vec![1];
        grid.batch_sizes = vec![1, 4];
        grid.frag_levels = vec![0.0];
        grid.page_latency = PageLatency::default();
        grid.iterations = 1;
        let report = run_suite(&grid).unwrap();
        for pair in ["balanced", "asymmetric"] {
            let single = format!("{pair} λ=5 B=160");
            let batched = format!("{pair} λ=5 B=160 N=4");
            for algorithm in ["HHNL", "HVNL", "VVM", "FNL"] {
                let n1 = report
                    .case(&single, algorithm)
                    .unwrap_or_else(|| panic!("missing {single} / {algorithm}"));
                let n4 = report
                    .case(&batched, algorithm)
                    .unwrap_or_else(|| panic!("missing {batched} / {algorithm}"));
                // Four queries through shared scans never cost more than
                // four independent runs…
                assert!(
                    n4.pages_io <= 4.0 * n1.pages_io + 1e-9,
                    "{pair} {algorithm}: N=4 {} vs 4×N=1 {}",
                    n4.pages_io,
                    4.0 * n1.pages_io
                );
            }
            // …and for HHNL the pooled inner scans make it *strictly*
            // cheaper: the batch re-reads the outer side per query but
            // scans the inner collection ⌈Σ N2ᵢ/Xᵢ⌉ times instead of
            // Σ ⌈N2ᵢ/Xᵢ⌉ times.
            let n1 = report.case(&single, "HHNL").unwrap();
            let n4 = report.case(&batched, "HHNL").unwrap();
            assert!(
                n4.pages_io < 4.0 * n1.pages_io,
                "{pair} HHNL batch did not amortize: N=4 {} vs 4×N=1 {}",
                n4.pages_io,
                4.0 * n1.pages_io
            );
        }
    }

    #[test]
    fn frag_axis_adds_labelled_rows_and_prices_the_delta() {
        let mut grid = small_grid();
        grid.shard_counts = vec![];
        grid.pairs.truncate(1); // balanced
        grid.lambdas = vec![5];
        grid.filter_lambdas = vec![];
        grid.buffer_pages = vec![160];
        grid.workers = vec![1];
        grid.batch_sizes = vec![1];
        grid.frag_levels = vec![0.0, 0.10, 0.30];
        grid.page_latency = PageLatency::default();
        grid.iterations = 1;
        let report = run_suite(&grid).unwrap();

        // The pristine row keeps its classic label — the checked-in
        // baseline gates it — and must cost exactly what a grid without
        // the frag axis measures.
        let mut pristine_only = grid.clone();
        pristine_only.frag_levels = vec![0.0];
        let without = run_suite(&pristine_only).unwrap();
        let clean = report.case("balanced λ=5 B=160", "HHNL").unwrap();
        assert_eq!(
            clean.pages_io,
            without.case("balanced λ=5 B=160", "HHNL").unwrap().pages_io,
            "the frag axis must not perturb pristine rows"
        );

        for frag in ["10", "30"] {
            let label = format!("balanced λ=5 B=160 frag={frag}%");
            for algorithm in ["HHNL", "HVNL", "VVM", "FNL"] {
                let c = report
                    .case(&label, algorithm)
                    .unwrap_or_else(|| panic!("missing {label} / {algorithm}"));
                assert!(c.pages_io > 0.0, "{label} {algorithm}");
                assert!(
                    c.drift_pct.is_some(),
                    "{label} {algorithm}: the fragmentation-aware model priced it"
                );
            }
        }
        // More churn costs HHNL more: the delta side files join every
        // inner scan, and 30% churn carries more delta pages than 10%.
        let f10 = report.case("balanced λ=5 B=160 frag=10%", "HHNL").unwrap();
        let f30 = report.case("balanced λ=5 B=160 frag=30%", "HHNL").unwrap();
        assert!(
            f30.pages_io > f10.pages_io,
            "frag=30% ({}) should out-cost frag=10% ({})",
            f30.pages_io,
            f10.pages_io
        );
    }

    #[test]
    fn filter_axis_adds_selective_rows_where_fnl_wins_pages() {
        let mut grid = small_grid();
        grid.shard_counts = vec![];
        grid.pairs.truncate(1); // balanced
        grid.lambdas = vec![5];
        grid.filter_lambdas = vec![80];
        grid.buffer_pages = vec![160];
        grid.workers = vec![1, 4];
        grid.batch_sizes = vec![1, 4];
        grid.frag_levels = vec![0.0, 0.10];
        grid.page_latency = PageLatency::default();
        grid.iterations = 1;
        let report = run_suite(&grid).unwrap();

        // Filter-axis points run the sequential executors only, at the
        // base B=60 budget — no worker, batch, frag or headroom-B
        // companions ride the selective λ.
        for suffix in [" w=4", " N=4", " frag=10%", " B=160"] {
            assert!(
                !report
                    .cases
                    .iter()
                    .any(|c| c.case.contains("λ=80") && c.case.ends_with(suffix)),
                "filter axis leaked a `{suffix}` row"
            );
        }
        for algorithm in ["HHNL", "HVNL", "VVM", "FNL"] {
            let c = report
                .case("balanced λ=80 B=60", algorithm)
                .unwrap_or_else(|| panic!("missing filter-axis {algorithm} row"));
            assert!(c.pages_io > 0.0, "{algorithm}");
            assert!(
                c.drift_pct.is_some(),
                "{algorithm}: the model priced the filter-axis row"
            );
        }
        // The tentpole's measured claim at the selective point: pruning
        // over the compact signature index beats the data-page scan on
        // deterministic pages under memory pressure.
        let fnl = report.case("balanced λ=80 B=60", "FNL").unwrap();
        let hhnl = report.case("balanced λ=80 B=60", "HHNL").unwrap();
        assert!(
            fnl.pages_io < hhnl.pages_io,
            "FNL ({}) did not beat HHNL ({}) at the selective λ",
            fnl.pages_io,
            hhnl.pages_io
        );
    }

    /// Median of the absolute drift percentages of a report's priced cases.
    fn median_abs_drift(r: &BenchReport) -> f64 {
        let mut drifts: Vec<f64> = r
            .cases
            .iter()
            .filter_map(|c| c.drift_pct)
            .map(f64::abs)
            .collect();
        assert!(!drifts.is_empty(), "no priced cases in {r:?}");
        drifts.sort_by(f64::total_cmp);
        let n = drifts.len();
        if n % 2 == 1 {
            drifts[n / 2]
        } else {
            (drifts[n / 2 - 1] + drifts[n / 2]) / 2.0
        }
    }

    #[test]
    fn calibration_lowers_median_drift_without_changing_labels() {
        let mut grid = small_grid();
        grid.shard_counts = vec![];
        grid.lambdas = vec![5, 20];
        grid.filter_lambdas = vec![];
        grid.buffer_pages = vec![160];
        grid.workers = vec![1];
        grid.batch_sizes = vec![1];
        grid.frag_levels = vec![0.0];
        grid.page_latency = PageLatency::default();
        grid.iterations = 1;
        let (seed_report, reports) = run_suite_with_reports(&grid).unwrap();
        assert!(
            reports
                .iter()
                .all(|r| !r.pair.is_empty() && r.buffer_pages == 160),
            "bench reports must carry their calibration key"
        );
        let obs: Vec<_> = reports.iter().map(|r| r.to_observation()).collect();
        grid.calibration = Some(CalibrationProfile::fit(&obs));
        let (cal_report, _) = run_suite_with_reports(&grid).unwrap();
        // The calibrated axis reprices predictions only: same case keys,
        // same deterministic page costs, so the same baseline still gates.
        let keys = |r: &BenchReport| {
            r.cases
                .iter()
                .map(|c| (c.case.clone(), c.algorithm.clone(), c.pages_io))
                .collect::<Vec<_>>()
        };
        assert_eq!(keys(&seed_report), keys(&cal_report));
        assert!(
            median_abs_drift(&cal_report) < median_abs_drift(&seed_report),
            "calibration did not improve drift: {} vs {}",
            median_abs_drift(&cal_report),
            median_abs_drift(&seed_report)
        );
    }

    #[test]
    fn suite_page_costs_are_deterministic() {
        let mut grid = small_grid();
        grid.shard_counts = vec![];
        grid.pairs.truncate(1);
        grid.lambdas.truncate(1);
        grid.buffer_pages.truncate(1);
        grid.workers = vec![1];
        grid.batch_sizes = vec![1, 4];
        grid.page_latency = PageLatency::default();
        grid.iterations = 1;
        let a = run_suite(&grid).unwrap();
        let b = run_suite(&grid).unwrap();
        let pages = |r: &BenchReport| r.cases.iter().map(|c| c.pages_io).collect::<Vec<_>>();
        assert_eq!(pages(&a), pages(&b));
    }

    /// A grid with only the shards axis: the classic sweeps are cleared so
    /// the suite runs just the Zipfian pair through the multi-site
    /// executor.
    fn shard_only_grid() -> BenchGrid {
        let mut grid = small_grid();
        grid.pairs = vec![];
        grid.filter_lambdas = vec![];
        grid.lambdas = vec![5];
        grid.buffer_pages = vec![160];
        grid.workers = vec![1];
        grid.batch_sizes = vec![1];
        grid.frag_levels = vec![0.0];
        grid.page_latency = PageLatency::default();
        grid.iterations = 1;
        grid
    }

    #[test]
    fn shard_axis_rows_carry_the_escape_hatch_token_and_are_deterministic() {
        let grid = shard_only_grid();
        let a = run_suite(&grid).unwrap();
        let b = run_suite(&grid).unwrap();
        // Every row on this axis carries the `S=` token `--allow-new S=`
        // keys on, and S=1 runs only under the skew-aware label.
        assert!(!a.cases.is_empty());
        for c in &a.cases {
            assert!(c.case.contains("S="), "missing axis token: {}", c.case);
        }
        assert!(a
            .cases
            .iter()
            .any(|c| c.case == "zipf λ=5 B=160 S=1 skew-aware"));
        assert!(!a.cases.iter().any(|c| c.case.contains("S=1 naive")));
        let pages = |r: &BenchReport| {
            r.cases
                .iter()
                .map(|c| (c.case.clone(), c.algorithm.clone(), c.pages_io))
                .collect::<Vec<_>>()
        };
        assert_eq!(pages(&a), pages(&b));
    }

    #[test]
    fn skew_aware_beats_naive_on_the_zipfian_pair_at_s4() {
        let report = run_suite(&shard_only_grid()).unwrap();
        let max_shard = |partitioning: &str, algorithm: &str| {
            report
                .case(&format!("zipf λ=5 B=160 S=4 {partitioning}"), algorithm)
                .unwrap_or_else(|| panic!("no S=4 {partitioning} row for {algorithm}"))
                .pages_io
        };
        // The acceptance criterion: on a Zipfian term distribution the
        // naive uniform-in-term-id boundaries overload the head shard,
        // while df-weighted boundaries balance it — strictly lower
        // max-shard page cost at S=4.
        let aware = max_shard("skew-aware", "VVM");
        let naive = max_shard("naive", "VVM");
        assert!(
            aware < naive,
            "skew-aware max-shard pages {aware} not below naive {naive}"
        );
    }
}
