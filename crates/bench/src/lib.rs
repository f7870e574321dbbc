//! # bench — the reproduction harness for every table and figure
//!
//! * [`experiments`] — one function per paper table/figure (and per
//!   DESIGN.md ablation), returning a [`series::Figure`];
//! * [`cprogs`] — the hand-inlined *C* baseline programs;
//! * [`corpus`] — the fixed engine conformance corpus;
//! * the `repro` binary — `repro fig4`, `repro all`, ... prints the series
//!   and writes `results/<id>.json`;
//! * [`timing`] — a minimal wall-clock harness used by `benches/` (the
//!   serial figures, the translator, and the JIT-cache fast path).

#![forbid(unsafe_code)]

pub mod corpus;
pub mod cprogs;
pub mod experiments;
pub mod series;
pub mod timing;

pub use experiments::{all_ids, run_experiment, run_experiment_with};
pub use series::{Figure, Point, Series};
