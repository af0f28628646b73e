//! Workload shapes, seeded input generation, and one timed round.
//!
//! A round is the unit every run repeats: set up (generate the inputs from
//! the seed and build every structure), run the SQL query, run the four
//! forced joins, apply the mutation stream and merge. Each round starts
//! from scratch, so all rounds of a run do identical work.

use std::sync::Arc;
use std::time::Duration;

use textjoin_collection::{Collection, Document, SynthSpec};
use textjoin_common::{CollectionStats, DocId, QueryParams, Result, SystemParams};
use textjoin_core::{
    fnl, hhnl, hvnl, parallel, vvm, Algorithm, IoScenario, JoinOutcome, JoinSpec, Weighting,
};
use textjoin_invfile::{FnlIndex, InvertedFile};
use textjoin_live::LiveCollection;
use textjoin_query::catalog::{Catalog, ColumnType, RelationBuilder, Value};
use textjoin_query::executor::{run_query_with_workers, QueryOutput};
use textjoin_storage::DiskSim;

use crate::check;
use crate::trace::Recorder;

pub const PAGE_SIZE: usize = 4096;
pub const ZIPF_EXPONENT: f64 = 1.0;
/// Outer documents whose top-λ rows are recomputed by the naive oracle.
pub const ORACLE_SAMPLE: usize = 16;

/// One workload: collection shapes, system parameters and mutation stream.
#[derive(Clone, Debug)]
pub struct Workload {
    pub name: &'static str,
    /// N₁ — inner (base) documents.
    pub inner_docs: u64,
    /// N₂ — outer documents.
    pub outer_docs: u64,
    /// K — average distinct terms per document.
    pub terms_per_doc: f64,
    /// T — vocabulary size.
    pub vocab: u64,
    /// B — buffer pages.
    pub buffer_pages: u64,
    /// w — worker threads for the joins and the SQL query.
    pub workers: usize,
    /// λ — matches per outer document.
    pub lambda: usize,
    /// Rounds of (deletes, inserts, flush) applied to the inner side.
    pub write_rounds: usize,
    pub deletes_per_round: usize,
    pub inserts_per_round: usize,
    /// `true`: the forced joins run over base+delta after the mutations;
    /// `false`: they run over the pristine base and the mutations follow.
    pub joins_over_delta: bool,
}

pub const WORKLOADS: [Workload; 3] = [
    // CPU-bound: every structure fits in B, so each algorithm makes one
    // pass and scoring does nearly all the work.
    Workload {
        name: "scale",
        inner_docs: 8000,
        outer_docs: 400,
        terms_per_doc: 60.0,
        vocab: 25_000,
        buffer_pages: 8192,
        workers: 1,
        lambda: 10,
        write_rounds: 1,
        deletes_per_round: 1000,
        inserts_per_round: 2000,
        joins_over_delta: false,
    },
    // Storage-bound: B is about a sixth of the data, so HVNL's entry cache
    // thrashes, VVM makes many merge passes and HHNL re-scans the inner
    // collection; the only workload that runs `core::parallel`.
    Workload {
        name: "pressure",
        inner_docs: 8000,
        outer_docs: 400,
        terms_per_doc: 60.0,
        vocab: 25_000,
        buffer_pages: 256,
        workers: 2,
        lambda: 10,
        write_rounds: 1,
        deletes_per_round: 1000,
        inserts_per_round: 2000,
        joins_over_delta: false,
    },
    // Write path: four rounds of logged mutations, joins over base+delta,
    // then a merge into a new generation.
    Workload {
        name: "churn",
        inner_docs: 8000,
        outer_docs: 200,
        terms_per_doc: 60.0,
        vocab: 25_000,
        buffer_pages: 1024,
        workers: 1,
        lambda: 10,
        write_rounds: 4,
        deletes_per_round: 1000,
        inserts_per_round: 2000,
        joins_over_delta: true,
    },
];

impl Workload {
    pub fn by_name(name: &str) -> Option<Workload> {
        WORKLOADS.iter().find(|w| w.name == name).cloned()
    }

    pub fn sys(&self) -> SystemParams {
        SystemParams::paper_base().with_buffer_pages(self.buffer_pages)
    }

    pub fn query_params(&self) -> QueryParams {
        QueryParams::paper_base().with_lambda(self.lambda)
    }

    /// The SQL form of the join: for each `R` row, its λ best `L` rows.
    pub fn sql(&self) -> String {
        format!(
            "SELECT R.id, L.id FROM L, R WHERE L.body SIMILAR_TO({}) R.body",
            self.lambda
        )
    }

    pub fn describe(&self) -> String {
        format!(
            "N1={} N2={} K={} T={} B={} w={} lambda={} writes={}x({} del + {} ins + flush) joins_over_delta={}",
            self.inner_docs,
            self.outer_docs,
            self.terms_per_doc,
            self.vocab,
            self.buffer_pages,
            self.workers,
            self.lambda,
            self.write_rounds,
            self.deletes_per_round,
            self.inserts_per_round,
            self.joins_over_delta
        )
    }

    fn synth(&self, num_docs: u64, seed: u64) -> SynthSpec {
        let mut spec = SynthSpec::from_stats(
            CollectionStats::new(num_docs, self.terms_per_doc, self.vocab),
            seed,
        );
        spec.zipf_exponent = ZIPF_EXPONENT;
        spec
    }
}

/// SplitMix64: derives independent sub-seeds and the mutation stream.
pub struct SplitMix(u64);

impl SplitMix {
    pub fn new(seed: u64) -> Self {
        Self(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }
}

/// Everything derived from the seed. The library sees only these values.
pub struct Inputs {
    pub inner: Vec<Document>,
    pub outer: Vec<Document>,
    /// Documents inserted by the mutation stream, in insertion order; the
    /// `i`-th gets document number `N₁ + i`.
    pub inserts: Vec<Document>,
    /// Live documents deleted in each write round (before its inserts).
    pub deletes: Vec<Vec<DocId>>,
    pub inner_text: Vec<String>,
    pub outer_text: Vec<String>,
    /// Outer documents checked against the naive oracle.
    pub oracle_sample: Vec<DocId>,
}

impl Inputs {
    pub fn generate(wl: &Workload, seed: u64) -> Inputs {
        let mut seeds = SplitMix::new(seed);
        let inner = wl.synth(wl.inner_docs, seeds.next_u64()).generate_docs();
        let outer = wl.synth(wl.outer_docs, seeds.next_u64()).generate_docs();
        let num_inserts = (wl.write_rounds * wl.inserts_per_round) as u64;
        let inserts = if num_inserts == 0 {
            Vec::new()
        } else {
            wl.synth(num_inserts, seeds.next_u64()).generate_docs()
        };

        let mut rng = SplitMix::new(seeds.next_u64());
        let mut live: Vec<u32> = (0..wl.inner_docs as u32).collect();
        let mut next_id = wl.inner_docs as u32;
        let mut deletes = Vec::with_capacity(wl.write_rounds);
        for _ in 0..wl.write_rounds {
            let mut round = Vec::with_capacity(wl.deletes_per_round);
            for _ in 0..wl.deletes_per_round.min(live.len()) {
                let i = rng.below(live.len());
                round.push(DocId::new(live.swap_remove(i)));
            }
            deletes.push(round);
            live.extend(next_id..next_id + wl.inserts_per_round as u32);
            next_id += wl.inserts_per_round as u32;
        }

        let mut sample: Vec<DocId> = Vec::with_capacity(ORACLE_SAMPLE);
        while sample.len() < ORACLE_SAMPLE.min(outer.len()) {
            let id = DocId::new(rng.below(outer.len()) as u32);
            if !sample.contains(&id) {
                sample.push(id);
            }
        }
        sample.sort();

        Inputs {
            inner_text: inner.iter().map(to_text).collect(),
            outer_text: outer.iter().map(to_text).collect(),
            inner,
            outer,
            inserts,
            deletes,
            oracle_sample: sample,
        }
    }
}

/// Renders a synthetic document as text the SQL catalog ingests: term `t`
/// with weight `w` becomes the token `t<t>` repeated `w` times.
pub fn to_text(doc: &Document) -> String {
    let mut s = String::new();
    for cell in doc.cells() {
        for _ in 0..cell.weight {
            if !s.is_empty() {
                s.push(' ');
            }
            s.push('t');
            s.push_str(&cell.term.raw().to_string());
        }
    }
    s
}

/// The built structures of one round.
pub struct Built {
    pub disk: Arc<DiskSim>,
    pub outer: Collection,
    pub outer_inv: InvertedFile,
    pub live: LiveCollection,
    pub fnl: FnlIndex,
    pub catalog: Catalog,
}

fn relation(name: &str, texts: &[String]) -> Result<RelationBuilder> {
    let mut rel = RelationBuilder::new(name)
        .column("id", ColumnType::Int)
        .column("body", ColumnType::Text);
    for (i, t) in texts.iter().enumerate() {
        rel = rel.row(vec![Value::Int(i as i64), Value::Text(t.clone())])?;
    }
    Ok(rel)
}

fn setup(wl: &Workload, seed: u64, rec: &Recorder) -> Result<(Inputs, Built)> {
    let (inputs, _) = rec.span("collection.synth", || Inputs::generate(wl, seed));
    let disk = Arc::new(DiskSim::new(PAGE_SIZE));
    let (outer, _) = rec.span("collection.build", || {
        Collection::build(Arc::clone(&disk), "outer", inputs.outer.clone())
    });
    let outer = outer?;
    let (outer_inv, _) = rec.span("invfile.build", || {
        InvertedFile::build(Arc::clone(&disk), "outer", &outer)
    });
    let (live, _) = rec.span("live.create", || {
        LiveCollection::create(Arc::clone(&disk), "inner", inputs.inner.clone())
    });
    let live = live?;
    let (fnl, _) = rec.span("invfile.fnl_build", || {
        FnlIndex::build(Arc::clone(&disk), "inner", live.base())
    });
    let mut catalog = Catalog::new(Arc::new(DiskSim::new(PAGE_SIZE)));
    let (added, _) = rec.span("query.catalog_add", || {
        catalog.add(relation("L", &inputs.inner_text)?)?;
        catalog.add(relation("R", &inputs.outer_text)?)
    });
    added?;
    let built = Built {
        disk,
        outer,
        outer_inv: outer_inv?,
        live,
        fnl: fnl?,
        catalog,
    };
    Ok((inputs, built))
}

/// The forced-join spec of a workload over the built structures.
pub fn join_spec<'a>(wl: &Workload, built: &'a Built) -> JoinSpec<'a> {
    let spec = JoinSpec::new(built.live.base(), &built.outer)
        .with_sys(wl.sys())
        .with_query(wl.query_params())
        .with_weighting(Weighting::RawCount);
    if wl.joins_over_delta {
        spec.with_inner_delta(built.live.overlay())
    } else {
        spec
    }
}

pub fn span_name(alg: Algorithm, workers: usize) -> &'static str {
    match (alg, workers > 1) {
        (Algorithm::Hhnl, false) => "core.hhnl.execute",
        (Algorithm::Hvnl, false) => "core.hvnl.execute",
        (Algorithm::Vvm, false) => "core.vvm.execute",
        (Algorithm::Fnl, false) => "core.fnl.execute",
        (Algorithm::Hhnl, true) => "core.parallel.execute_hhnl",
        (Algorithm::Hvnl, true) => "core.parallel.execute_hvnl",
        (Algorithm::Vvm, true) => "core.parallel.execute_vvm",
        (Algorithm::Fnl, true) => "core.parallel.execute_fnl",
    }
}

/// One join forced to `alg` on `workers` threads.
pub fn execute(
    alg: Algorithm,
    spec: &JoinSpec<'_>,
    built: &Built,
    workers: usize,
) -> Result<JoinOutcome> {
    let inv = built.live.base_inv();
    match (alg, workers) {
        (Algorithm::Hhnl, 1) => hhnl::execute(spec),
        (Algorithm::Hvnl, 1) => hvnl::execute(spec, inv),
        (Algorithm::Vvm, 1) => vvm::execute(spec, inv, &built.outer_inv),
        (Algorithm::Fnl, 1) => fnl::execute(spec, &built.fnl),
        (Algorithm::Hhnl, w) => parallel::execute_hhnl(spec, w),
        (Algorithm::Hvnl, w) => parallel::execute_hvnl(spec, inv, w),
        (Algorithm::Vvm, w) => parallel::execute_vvm(spec, inv, &built.outer_inv, w),
        (Algorithm::Fnl, w) => parallel::execute_fnl(spec, &built.fnl, w),
    }
}

/// Each repeatable phase (one forced join, the SQL query, one write pass)
/// runs again within a round until it has used this much time, so short
/// phases contribute as many samples as long ones.
pub const PHASE_QUOTA: Duration = Duration::from_millis(500);

/// One forced join: its wall time per repetition and first outcome.
pub struct JoinRun {
    pub alg: Algorithm,
    pub wall_s: Vec<f64>,
    pub outcome: Option<JoinOutcome>,
}

/// What one round measured. Timings hold one sample per repetition.
pub struct RoundOut {
    pub setup_s: f64,
    pub planned_s: Vec<f64>,
    pub mutate_s: Vec<f64>,
    pub merge_s: Vec<f64>,
    pub joins: Vec<JoinRun>,
    /// Algorithm the SQL planner executed.
    pub planned_alg: Option<Algorithm>,
    pub attempted: u64,
    pub failures: Vec<String>,
    /// The first write pass's activity.
    pub writes: WriteStats,
}

/// One write pass: the mutation stream, then the merge.
#[derive(Clone, Copy, Default)]
pub struct WriteStats {
    /// Mutation calls (deletes + inserts) and flushes made.
    pub mutation_ops: u64,
    pub flushes: u64,
    pub flush_s: f64,
    /// Pages written by the mutation calls and flushes, and by the merge.
    pub mutate_pages_written: u64,
    pub merge_pages_written: u64,
    /// Bytes the user asked to store: inserted documents plus 4 bytes per
    /// deleted document number.
    pub user_bytes: u64,
}

pub fn median(v: &[f64]) -> f64 {
    let mut v = v.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

impl RoundOut {
    fn fail(&mut self, what: String) {
        self.failures.push(what);
    }

    pub fn join(&self, alg: Algorithm) -> &JoinRun {
        self.joins
            .iter()
            .find(|j| j.alg == alg)
            .expect("every algorithm runs in every round")
    }

    /// The round's per-phase medians summed: what the traced and the
    /// untraced round are compared on.
    pub fn phases_s(&self) -> f64 {
        self.setup_s
            + median(&self.planned_s)
            + median(&self.mutate_s)
            + median(&self.merge_s)
            + self.joins.iter().map(|j| median(&j.wall_s)).sum::<f64>()
    }
}

/// Hook for the traced run: called after the forced joins, while the
/// round's structures are still in the state the joins saw.
pub type AfterJoins<'h> = &'h mut dyn FnMut(&Inputs, &Built, &RoundOut) -> Result<()>;

/// A repeatable phase of a round.
#[derive(Clone, Copy, PartialEq)]
enum Phase {
    Sql,
    Join(usize),
    Write,
}

const PHASES: [Phase; 6] = [
    Phase::Sql,
    Phase::Join(0),
    Phase::Join(1),
    Phase::Join(2),
    Phase::Join(3),
    Phase::Write,
];

/// One round in progress: its samples so far and the first SQL answer.
struct Round<'a> {
    wl: &'a Workload,
    inputs: &'a Inputs,
    rec: &'a Recorder,
    out: RoundOut,
    sql_first: Option<QueryOutput>,
}

impl Round<'_> {
    fn used(&self, p: Phase) -> f64 {
        match p {
            Phase::Sql => self.out.planned_s.iter().sum(),
            Phase::Join(i) => self.out.joins[i].wall_s.iter().sum(),
            Phase::Write => self.out.mutate_s.iter().chain(&self.out.merge_s).sum(),
        }
    }

    fn started(&self, p: Phase) -> bool {
        match p {
            Phase::Sql => !self.out.planned_s.is_empty(),
            Phase::Join(i) => !self.out.joins[i].wall_s.is_empty(),
            Phase::Write => !self.out.mutate_s.is_empty(),
        }
    }

    fn run(&mut self, p: Phase, built: &Built, spec: &JoinSpec<'_>) -> Result<()> {
        match p {
            Phase::Sql => self.sql(built),
            Phase::Join(i) => self.join(i, built, spec),
            Phase::Write => {
                self.fresh_write()?;
            }
        }
        Ok(())
    }

    /// Repeats every started phase other than `just_ran` that is still
    /// under its quota once, so short phases are sampled throughout the
    /// round instead of in one burst.
    fn top_up(&mut self, built: &Built, spec: &JoinSpec<'_>, just_ran: Phase) -> Result<()> {
        for p in PHASES {
            if p != just_ran && self.started(p) && self.used(p) < PHASE_QUOTA.as_secs_f64() {
                self.run(p, built, spec)?;
            }
        }
        Ok(())
    }

    /// Runs phases until every one has used its quota.
    fn fill(&mut self, built: &Built, spec: &JoinSpec<'_>) -> Result<()> {
        while PHASES
            .iter()
            .any(|&p| self.used(p) < PHASE_QUOTA.as_secs_f64())
        {
            for p in PHASES {
                if self.used(p) < PHASE_QUOTA.as_secs_f64() {
                    self.run(p, built, spec)?;
                }
            }
        }
        Ok(())
    }

    fn sql(&mut self, built: &Built) {
        let (r, t) = self.rec.span("round.planned", || {
            self.rec
                .span("query.run_query_with_workers", || {
                    run_query_with_workers(
                        &built.catalog,
                        &self.wl.sql(),
                        self.wl.sys(),
                        self.wl.query_params(),
                        IoScenario::Dedicated,
                        self.wl.workers,
                    )
                })
                .0
        });
        let out = &mut self.out;
        out.attempted += 1;
        out.planned_s.push(t.as_secs_f64());
        match (r, &self.sql_first) {
            (Ok(o), None) => {
                out.planned_alg = Some(o.algorithm);
                self.sql_first = Some(o);
            }
            (Ok(o), Some(first)) => {
                if first.rows != o.rows {
                    out.fail("SQL rows differ between repetitions".into());
                }
            }
            (Err(e), _) => out.fail(format!("SQL query failed: {e}")),
        }
    }

    fn join(&mut self, i: usize, built: &Built, spec: &JoinSpec<'_>) {
        let wl = self.wl;
        let run = &mut self.out.joins[i];
        let (r, wall) = self.rec.span(span_name(run.alg, wl.workers), || {
            execute(run.alg, spec, built, wl.workers)
        });
        run.wall_s.push(wall.as_secs_f64());
        let failure = match (r, &run.outcome) {
            (Ok(o), None) => {
                run.outcome = Some(o);
                None
            }
            (Ok(o), Some(first)) => (o.result != first.result || o.stats.cost != first.stats.cost)
                .then(|| format!("{} differs between repetitions", run.alg)),
            (Err(e), _) => Some(format!("{} failed: {e}", run.alg)),
        };
        self.out.attempted += 1;
        self.out.failures.extend(failure);
    }

    /// A write pass on a fresh copy of the base collection; returns its
    /// write statistics.
    fn fresh_write(&mut self) -> Result<WriteStats> {
        let disk = Arc::new(DiskSim::new(PAGE_SIZE));
        let mut live =
            LiveCollection::create(Arc::clone(&disk), "inner", self.inputs.inner.clone())?;
        let mut w = mutate(
            self.wl,
            self.inputs,
            &mut live,
            &disk,
            self.rec,
            &mut self.out,
        );
        w.merge_pages_written = merge(
            self.wl,
            self.inputs,
            &mut live,
            &disk,
            self.rec,
            &mut self.out,
        );
        Ok(w)
    }

    /// The answer checks after the first repetition of every join.
    fn check(&mut self, built: &Built, oracle: bool) {
        let wl = self.wl;
        let sql_out = self.sql_first.as_ref();
        let mut failures = check::joins_agree(&self.out.joins);
        let reference = self.out.joins.iter().find_map(|j| j.outcome.as_ref());
        if let (Some(sql_out), Some(reference)) = (sql_out, reference) {
            // The SQL query always sees the pristine pair; compare it in
            // full where the forced joins saw the same pair.
            if !wl.joins_over_delta {
                failures.extend(check::sql_matches(sql_out, &reference.result).err());
            }
        }
        if oracle {
            failures.extend(check::oracle(wl, self.inputs, built, sql_out, reference));
        }
        self.out.failures.extend(failures);
    }
}

/// Runs one round. `oracle` additionally checks the sampled outer
/// documents against the naive reference and the SQL catalog's term
/// mapping; it is untimed.
///
/// Every phase repeats until it has used [`PHASE_QUOTA`], and after each
/// phase the short ones that are still under quota run once more. The
/// write passes after the first run on fresh copies of the base
/// collection. In `churn` the first write pass mutates the round's own
/// collection, the joins run over its base+delta, and its merge follows
/// them; elsewhere the joins see the pristine base.
pub fn run_round(
    wl: &Workload,
    seed: u64,
    rec: &Recorder,
    oracle: bool,
    after_joins: Option<AfterJoins<'_>>,
) -> Result<RoundOut> {
    let (built, setup) = rec.span("round.setup", || setup(wl, seed, rec));
    let (inputs, mut built) = built?;
    let mut r = Round {
        wl,
        inputs: &inputs,
        rec,
        out: RoundOut {
            setup_s: setup.as_secs_f64(),
            planned_s: Vec::new(),
            mutate_s: Vec::new(),
            merge_s: Vec::new(),
            joins: Algorithm::ALL
                .iter()
                .map(|&alg| JoinRun {
                    alg,
                    wall_s: Vec::new(),
                    outcome: None,
                })
                .collect(),
            planned_alg: None,
            attempted: 0,
            failures: Vec::new(),
            writes: WriteStats::default(),
        },
        sql_first: None,
    };

    r.sql(&built);
    let disk = Arc::clone(&built.disk);
    r.out.writes = if wl.joins_over_delta {
        mutate(wl, &inputs, &mut built.live, &disk, rec, &mut r.out)
    } else {
        r.fresh_write()?
    };
    {
        let spec = join_spec(wl, &built);
        rec.span("round.joins", || -> Result<()> {
            for i in 0..Algorithm::ALL.len() {
                r.join(i, &built, &spec);
                r.top_up(&built, &spec, Phase::Join(i))?;
            }
            Ok(())
        })
        .0?;
        r.check(&built, oracle);
        if let Some(hook) = after_joins {
            hook(&inputs, &built, &r.out)?;
        }
        r.fill(&built, &spec)?;
    }
    if wl.joins_over_delta {
        r.out.writes.merge_pages_written =
            merge(wl, &inputs, &mut built.live, &disk, rec, &mut r.out);
    }
    Ok(r.out)
}

/// Applies every write round of the mutation stream: deletes, inserts,
/// flush. The timing sums the library calls only.
fn mutate(
    wl: &Workload,
    inputs: &Inputs,
    live: &mut LiveCollection,
    disk: &DiskSim,
    rec: &Recorder,
    out: &mut RoundOut,
) -> WriteStats {
    let mut w = WriteStats::default();
    let before = disk.stats().writes;
    let mut busy = Duration::ZERO;
    let mut next_id = wl.inner_docs as u32;
    rec.span("round.mutate", || {
        for (round, deletes) in inputs.deletes.iter().enumerate() {
            for &id in deletes {
                let (r, t) = rec.span("live.delete", || live.delete(id));
                busy += t;
                out.attempted += 1;
                w.mutation_ops += 1;
                w.user_bytes += 4;
                match r {
                    Ok(true) => {}
                    Ok(false) => out.fail(format!("delete of live doc {} was a miss", id.raw())),
                    Err(e) => out.fail(format!("delete {} failed: {e}", id.raw())),
                }
            }
            let per = wl.inserts_per_round;
            for doc in &inputs.inserts[round * per..(round + 1) * per] {
                let doc = doc.clone();
                w.user_bytes += doc.size_bytes();
                let (r, t) = rec.span("live.insert", || live.insert(doc));
                busy += t;
                out.attempted += 1;
                w.mutation_ops += 1;
                match r {
                    Ok(id) if id.raw() == next_id => {}
                    Ok(id) => out.fail(format!("insert got id {}, expected {next_id}", id.raw())),
                    Err(e) => out.fail(format!("insert failed: {e}")),
                }
                next_id += 1;
            }
            let (r, t) = rec.span("live.flush", || live.flush());
            busy += t;
            w.flush_s += t.as_secs_f64();
            w.flushes += 1;
            out.attempted += 1;
            if let Err(e) = r {
                out.fail(format!("flush failed: {e}"));
            }
        }
    });
    out.mutate_s.push(busy.as_secs_f64());
    w.mutate_pages_written = disk.stats().writes - before;
    w
}

/// Merges the delta into a new generation; returns the pages written.
fn merge(
    wl: &Workload,
    inputs: &Inputs,
    live: &mut LiveCollection,
    disk: &DiskSim,
    rec: &Recorder,
    out: &mut RoundOut,
) -> u64 {
    let before = disk.stats().writes;
    let (merged, t) = rec.span("round.merge", || rec.span("live.merge", || live.merge()).0);
    out.merge_s.push(t.as_secs_f64());
    out.attempted += 1;
    if let Err(e) = merged {
        out.fail(format!("merge failed: {e}"));
    }
    let total_deletes: usize = inputs.deletes.iter().map(Vec::len).sum();
    let expect_live = wl.inner_docs as usize - total_deletes + inputs.inserts.len();
    if live.num_live_docs() as usize != expect_live {
        out.fail(format!(
            "after merge {} live documents, expected {expect_live}",
            live.num_live_docs()
        ));
    }
    disk.stats().writes - before
}
