//! Executable text-join algorithms: HHNL, HVNL and VVM.
//!
//! This crate implements the three algorithms of section 4 as real
//! executors over the simulated storage stack, so their *measured* I/O
//! counts and memory high-water marks can be compared with the analytical
//! models of `textjoin-costmodel`:
//!
//! * [`hhnl`] — Horizontal-Horizontal Nested Loop: batches of outer
//!   documents against a sequential scan of the inner collection
//!   (section 4.1);
//! * [`hvnl`] — Horizontal-Vertical Nested Loop: per-outer-document fetches
//!   of inner inverted-file entries, cached under a
//!   lowest-outer-document-frequency eviction policy (section 4.2);
//! * [`vvm`] — Vertical-Vertical Merge: a sort-merge-style parallel scan of
//!   both inverted files, partitioned into multiple passes when the
//!   intermediate similarities exceed memory (section 4.3);
//! * [`fnl`] — Filtered Nested Loops: HHNL's loop over a compact
//!   rarity-ranked signature index, dropping pairs below an overlap
//!   threshold;
//! * [`nl`] — the nested-loop engine: the one round loop that runs HHNL
//!   and FNL, sequential (one query) and batched (N queries) alike, over
//!   the document store or the signature file;
//! * [`kernel`] — inverted batch scoring: the one in-memory kernel every
//!   HHNL and FNL pass scores its resident batch with;
//! * [`integrated`] — the section 6.1 integrated algorithm: estimate all
//!   costs, execute the cheapest;
//! * [`mod@reference`] — a trivial in-memory scorer used as the correctness
//!   oracle by the test suite;
//! * [`cluster`] — the self-join special case of section 1 (document
//!   clustering), with single-link grouping of the neighbour graph;
//! * [`parallel`] — multi-threaded variants of all three executors (the
//!   paper's future-work item 3): outer-partitioned HHNL and HVNL,
//!   term-range-partitioned VVM, with per-worker I/O attribution;
//! * [`shard`] — sharded multi-site execution (the paper's §3
//!   multidatabase setting): per-shard drives, comm-priced page shipping,
//!   skew-aware partitioning, exact global top-λ merge.
//!
//! All three executors must produce identical results for the same
//! [`JoinSpec`] — the central invariant of the test suite.

pub mod batch;
pub mod cluster;
pub mod fnl;
pub mod hhnl;
pub mod hvnl;
pub mod integrated;
pub mod kernel;
pub mod nl;
pub mod parallel;
pub mod reference;
pub mod report;
pub mod result;
pub mod shard;
pub mod spec;
pub mod topk;
pub mod vvm;
pub mod weighting;

pub use batch::{BatchOptions, BatchOutcome};
pub use fnl::FnlOptions;
pub use report::{
    observation_from_json, PhaseDuration, QueryReport, SlowLogRank, SlowQueryLog, SIM_PAGE_NS,
};
pub use result::{ExecStats, JoinOutcome, JoinResult, Match, ResultQuality};
pub use shard::{
    execute_sharded, ShardFault, ShardOptions, ShardPartitioning, ShardReport, ShardedOutcome,
};
pub use spec::{JoinSpec, OuterDocs};
pub use topk::TopK;
pub use weighting::Weighting;

pub use textjoin_costmodel::{Algorithm, IoScenario};
