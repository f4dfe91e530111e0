//! # socl-bench — shared reporting helpers for the figure harnesses
//!
//! Each binary in `src/bin/` regenerates one table or figure of the paper
//! (see DESIGN.md's per-experiment index); this library holds what they
//! share: [`out!`], the one stdout writer every harness prints through.

pub mod report;

pub use report::GeoSeries;
