//! Benchmark harnesses that regenerate every table and figure of the
//! StepStone paper's evaluation (§V), plus design-choice ablations.
//!
//! Each figure is a library function (`figures::figN::run(scale)`) so the
//! binaries, the Criterion benches, and the integration tests share one
//! implementation. `Scale::Quick` (or `STEPSTONE_SCALE=quick`) runs reduced
//! sweeps.

pub mod figures;
pub mod json;
pub mod output;
pub mod seed_replay;

pub use output::{FigureResult, Scale, Table};
