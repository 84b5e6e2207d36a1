//! # aftermath-bench
//!
//! Figure-reproduction harness and benchmark support for Aftermath-rs.
//!
//! Every table and figure of the evaluation sections of the ISPASS'16 Aftermath paper
//! has a corresponding generator in [`figures`]; the `reproduce` binary prints the same
//! rows/series the paper reports, and the Criterion benches in `benches/` measure the
//! performance-critical machinery (trace I/O, indexes, rendering) plus ablations of the
//! design choices called out in `DESIGN.md`.
//!
//! The [`Scale`] parameter selects between a quick, test-sized run (used by unit tests
//! and benches) and a paper-approximating run (used by `reproduce`).

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod chaos;
pub mod figures;
pub mod gates;
pub mod ingest;
pub mod kmeans_experiments;
pub mod lint_demo;
pub mod record;
pub mod section6;
pub mod seidel_experiments;
pub mod serve;
pub mod store;
pub mod stream;
pub mod zoom;

pub use figures::Scale;
