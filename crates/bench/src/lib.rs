//! Experiment harness for the RASC reproduction: sweeps, aggregation,
//! table rendering, and the in-repo microbenchmark harness shared by
//! the `repro` binary and the bench targets.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod admission;
pub mod chaos;
pub mod dataplane;
pub mod figures;
pub mod instances;
pub mod membership;
pub mod microbench;
pub mod sweep;

pub use chaos::{chaos_soak, chaos_soak_threads, ChaosConfig, ChaosSummary};
pub use figures::{render_figure, Figure, FigureSeries};
pub use microbench::{bench, bench_config, render_json, Measurement};
pub use sweep::{paper_sweep, paper_sweep_threads, SweepCell, SweepConfig};
