//! The simulation harness: regenerates the paper's evaluation.
//!
//! Section 6 of the paper runs five groups of simulations over the TREC-1
//! statistics (the detailed result tables live in tech report \[11\], which
//! the ICDE version omits for space — this crate regenerates the tables
//! those groups define):
//!
//! * [`groups::group1`] — one real collection as both C1 and C2, sweeping
//!   the memory size `B` and the cost ratio `α`;
//! * [`groups::group2`] — all ordered pairs of distinct collections,
//!   sweeping `B`;
//! * [`groups::group3`] — a small number of documents *selected out of* an
//!   originally large C2 (random reads, unshrunk inverted file);
//! * [`groups::group4`] — an *originally small* C2 derived from C1
//!   (sequential reads, right-sized inverted file);
//! * [`groups::group5`] — identical derived collections with `N` reduced
//!   and `K` enlarged by the same factor (the VVM-friendly regime);
//! * [`findings::check_findings`] — programmatic verification of the five
//!   summary findings of section 6.1;
//! * [`validate`] — our own addition: the executors of `textjoin-core` run
//!   on scaled-down synthetic collections and their *measured* I/O cost is
//!   compared against the section 5 formulas;
//! * [`chaos`] — seeded fault schedules (transient read errors, bit flips,
//!   latency spikes) against real executor runs, checking retry absorption,
//!   degraded-mode accounting and integrated-algorithm re-planning;
//! * [`chaos_merge`] — crash-safety scenarios for the mutation path of
//!   `textjoin-live`: merges killed at seeded page writes, torn WAL tails
//!   and bit-flipped delta side files, each recovered and re-joined
//!   byte-identically to an uninterrupted run;
//! * [`calibrate`] — the feedback loop: persist bench-grid query reports
//!   in the append-only store, fit a
//!   [`CalibrationProfile`](textjoin_costmodel::calibrate::CalibrationProfile)
//!   from what survived the round trip, and gate on the calibrated grid's
//!   median drift strictly improving;
//! * [`live`] — the live-introspection commands: `serve-metrics` hosts
//!   the embedded scrape endpoint (progress, ETA, cancellation) while a
//!   canned workload runs, and `top` polls `GET /queries` and renders
//!   the in-flight table.
//!
//! Everything prints through [`table::Table`], one table per experiment,
//! in the spirit of the tables the paper's tech report tabulates.

pub mod calibrate;
pub mod chaos;
pub mod chaos_merge;
pub mod findings;
pub mod groups;
pub mod live;
pub mod presets;
pub mod slowlog;
pub mod table;
pub mod validate;

pub use findings::{check_findings, Finding};
pub use presets::PaperCollection;
pub use table::Table;
