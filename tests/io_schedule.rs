//! Pins the I/O schedule of the nested-loop and term-at-a-time executors.
//!
//! The memory budget alone fixes HHNL's and FNL's schedule: how many outer
//! (or inner) documents a pass holds, hence how many passes run and which
//! pages each pass reads. How a pass scores its resident documents is an
//! in-memory matter and must not move any of it. On a tight-memory fixture
//! every nested-loop entry point — HHNL forward and backward, FNL, and the
//! batched HHNL/FNL engines at N = 3 — must report exactly the pass
//! count, sequential/random page reads and memory high-water mark recorded
//! below. The figures were taken from the per-pair merge implementation
//! that preceded inverted batch scoring.
//!
//! HVNL and VVM are pinned the same way, in all four modes, on a budget
//! that forces VVM to re-partition and HVNL's accumulators to evict cached
//! entries; those figures were taken from the per-pair hash-map
//! accumulators that preceded the dense similarity rows.

use std::sync::Arc;
use textjoin::collection::{Collection, SynthSpec};
use textjoin::common::{CollectionStats, QueryParams, SystemParams};
use textjoin::core::{
    batch, execute_sharded, fnl, hhnl, hvnl, parallel, vvm, Algorithm, ExecStats, JoinSpec,
    ShardOptions,
};
use textjoin::invfile::{FnlIndex, InvertedFile};
use textjoin::obs::Tracer;
use textjoin::storage::DiskSim;

const PAGE: usize = 128;

fn fixture() -> (Arc<DiskSim>, Collection, Collection, FnlIndex) {
    let disk = Arc::new(DiskSim::new(PAGE));
    let inner = SynthSpec::from_stats(CollectionStats::new(60, 10.0, 120), 301)
        .generate(Arc::clone(&disk), "inner")
        .unwrap();
    let outer = SynthSpec::from_stats(CollectionStats::new(80, 10.0, 120), 302)
        .generate(Arc::clone(&disk), "outer")
        .unwrap();
    let index = FnlIndex::build(Arc::clone(&disk), "inner", &inner).unwrap();
    (disk, inner, outer, index)
}

fn spec<'a>(inner: &'a Collection, outer: &'a Collection, lambda: usize) -> JoinSpec<'a> {
    JoinSpec::new(inner, outer)
        .with_sys(SystemParams {
            buffer_pages: 24,
            page_size: PAGE,
            alpha: 5.0,
        })
        .with_query(QueryParams::paper_base().with_lambda(lambda))
}

/// `(passes, seq_reads, rand_reads, mem_high_water_bytes)`.
fn schedule(stats: &ExecStats) -> (u64, u64, u64, u64) {
    (
        stats.passes,
        stats.io.seq_reads,
        stats.io.rand_reads,
        stats.mem_high_water_bytes,
    )
}

#[test]
fn nested_loop_io_schedule_is_pinned() {
    let (disk, inner, outer, index) = fixture();
    let single = spec(&inner, &outer, 4);
    let specs = [
        spec(&inner, &outer, 3),
        spec(&inner, &outer, 5),
        spec(&inner, &outer, 8),
    ];
    let run = |f: &mut dyn FnMut() -> ExecStats| {
        disk.reset_head();
        schedule(&f())
    };
    let got = [
        run(&mut || hhnl::execute(&single).unwrap().stats),
        run(&mut || hhnl::execute_backward(&single).unwrap().stats),
        run(&mut || fnl::execute(&single, &index).unwrap().stats),
        run(&mut || batch::execute_hhnl(&specs).unwrap().stats),
        run(&mut || batch::execute_fnl(&specs, &index).unwrap().stats),
    ];
    let want = [
        (3, 96, 4, 3049),
        (8, 262, 9, 3070),
        (5, 75, 8, 3038),
        (8, 266, 11, 3055),
        (15, 225, 20, 3062),
    ];
    let names = [
        "hhnl",
        "hhnl.backward",
        "fnl",
        "batch.hhnl N=3",
        "batch.fnl N=3",
    ];
    for ((name, got), want) in names.iter().zip(got).zip(want) {
        assert_eq!(got, want, "{name}: (passes, seq, rand, mem_high_water)");
    }
}

/// Inner and outer collections with their inverted files, for the
/// term-at-a-time executors.
struct TermFixture {
    disk: Arc<DiskSim>,
    inner: Collection,
    outer: Collection,
    inner_inv: InvertedFile,
    outer_inv: InvertedFile,
}

fn term_fixture() -> TermFixture {
    let disk = Arc::new(DiskSim::new(PAGE));
    let inner = SynthSpec::from_stats(CollectionStats::new(70, 12.0, 90), 311)
        .generate(Arc::clone(&disk), "inner")
        .unwrap();
    let outer = SynthSpec::from_stats(CollectionStats::new(50, 12.0, 90), 312)
        .generate(Arc::clone(&disk), "outer")
        .unwrap();
    let inner_inv = InvertedFile::build(Arc::clone(&disk), "inner", &inner).unwrap();
    let outer_inv = InvertedFile::build(Arc::clone(&disk), "outer", &outer).unwrap();
    TermFixture {
        disk,
        inner,
        outer,
        inner_inv,
        outer_inv,
    }
}

/// A 32-page budget with δ far below the fixture's real non-zero density.
/// VVM's first partition estimate (one pass) is too small, so every VVM
/// mode re-partitions (sequential and sharded up to 8 passes, batched and
/// parallel up to 16); HVNL's entry cache fills the budget, so in every
/// mode accumulator space evicts cached entries.
fn term_spec<'a>(inner: &'a Collection, outer: &'a Collection, lambda: usize) -> JoinSpec<'a> {
    JoinSpec::new(inner, outer)
        .with_sys(SystemParams {
            buffer_pages: 32,
            page_size: PAGE,
            alpha: 5.0,
        })
        .with_query(QueryParams {
            lambda,
            delta: 0.0001,
        })
}

/// The schedule of HVNL and VVM — sequential, batched at N = 3, `parallel`
/// at w = 2 and sharded at S = 2 — pinned at the figures the per-pair
/// hash-map accumulators produced. How the similarity sums are held in
/// memory must not move a pass, a page or the memory high-water mark.
#[test]
fn term_at_a_time_io_schedule_is_pinned() {
    let f = term_fixture();
    let (inv1, inv2) = (&f.inner_inv, &f.outer_inv);
    let single = term_spec(&f.inner, &f.outer, 4);
    let specs = [
        term_spec(&f.inner, &f.outer, 3),
        term_spec(&f.inner, &f.outer, 5),
        term_spec(&f.inner, &f.outer, 8),
    ];
    let run = |exec: &mut dyn FnMut() -> ExecStats| {
        f.disk.reset_head();
        schedule(&exec())
    };
    let got = [
        run(&mut || hvnl::execute(&single, inv1).unwrap().stats),
        run(&mut || vvm::execute(&single, inv1, inv2).unwrap().stats),
        run(&mut || batch::execute_hvnl(&specs, inv1).unwrap().stats),
        run(&mut || batch::execute_vvm(&specs, inv1, inv2).unwrap().stats),
        run(&mut || parallel::execute_hvnl(&single, inv1, 2).unwrap().stats),
        run(&mut || parallel::execute_vvm(&single, inv1, inv2, 2).unwrap().stats),
    ];
    let want = [
        (1, 78, 240, 4096),
        (8, 432, 16, 2552),
        (1, 106, 456, 4096),
        (13, 702, 26, 3984),
        (2, 142, 854, 4096),
        (13, 702, 52, 2880),
    ];
    let names = [
        "hvnl",
        "vvm",
        "batch.hvnl N=3",
        "batch.vvm N=3",
        "parallel.hvnl w=2",
        "parallel.vvm w=2",
    ];
    for ((name, got), want) in names.iter().zip(got).zip(want) {
        assert_eq!(got, want, "{name}: (passes, seq, rand, mem_high_water)");
    }

    // Sharded runs also pin the pages shipped between sites (for VVM,
    // the partial similarity tables).
    let sharded = |alg: Algorithm| {
        let out = execute_sharded(&single, alg, &ShardOptions::new(2)).unwrap();
        (schedule(&out.outcome.stats), out.shipped_pages)
    };
    assert_eq!(
        sharded(Algorithm::Hvnl),
        ((2, 62, 330, 8192), 77),
        "shard.hvnl S=2: ((passes, seq, rand, mem_high_water), shipped)"
    );
    assert_eq!(
        sharded(Algorithm::Vvm),
        ((8, 424, 32, 3743), 499),
        "shard.vvm S=2: ((passes, seq, rand, mem_high_water), shipped)"
    );
}

/// VVM's re-partition retries on the tight fixture are reported in every
/// mode: the abandoned attempts and the page cost they spent, on the stats
/// and on the sequential and parallel root spans. `io` and `cost` still
/// describe only the run that produced the result (pinned above).
#[test]
fn vvm_repartitions_are_reported_in_every_mode() {
    let f = term_fixture();
    let (inv1, inv2) = (&f.inner_inv, &f.outer_inv);
    let tracer = Tracer::enabled(256);
    let single = term_spec(&f.inner, &f.outer, 4);
    let specs = [
        term_spec(&f.inner, &f.outer, 3),
        term_spec(&f.inner, &f.outer, 5),
        term_spec(&f.inner, &f.outer, 8),
    ];
    let run = |exec: &mut dyn FnMut() -> ExecStats| {
        f.disk.reset_head();
        let stats = exec();
        (stats.repartitions, stats.discarded_cost)
    };
    let got = [
        run(&mut || {
            vvm::execute(&single.with_trace(&tracer), inv1, inv2)
                .unwrap()
                .stats
        }),
        run(&mut || batch::execute_vvm(&specs, inv1, inv2).unwrap().stats),
        run(&mut || {
            parallel::execute_vvm(&single.with_trace(&tracer), inv1, inv2, 2)
                .unwrap()
                .stats
        }),
        run(&mut || {
            execute_sharded(&single, Algorithm::Vvm, &ShardOptions::new(2))
                .unwrap()
                .outcome
                .stats
        }),
    ];
    // Sequential and sharded succeed at 8 partitions (1, 2, 4 abandoned),
    // batched and parallel at 16 (1, 2, 4, 8 abandoned).
    assert_eq!(got, [(3, 86.0), (4, 104.0), (4, 234.0), (3, 184.0)]);
    let spans = tracer.finished();
    let root = |name: &str| {
        spans
            .iter()
            .filter(|s| s.name == name)
            .find(|s| s.fields.iter().any(|&(k, _)| k == "passes"))
            .map(|s| {
                let field = |key| s.fields.iter().find(|&&(k, _)| k == key).map(|&(_, v)| v);
                (field("repartitions"), field("discarded_pages"))
            })
    };
    assert_eq!(root("vvm"), Some((Some(3), Some(86))));
    assert_eq!(root("vvm.parallel"), Some((Some(4), Some(234))));
}
