//! Pins the I/O schedule of the nested-loop executors.
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

use std::sync::Arc;
use textjoin::collection::{Collection, SynthSpec};
use textjoin::common::{CollectionStats, QueryParams, SystemParams};
use textjoin::core::{batch, fnl, hhnl, ExecStats, JoinSpec};
use textjoin::invfile::FnlIndex;
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
