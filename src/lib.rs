//! # RASC — RAte Splitting Composition
//!
//! A from-scratch Rust reproduction of *"RASC: Dynamic Rate Allocation
//! for Distributed Stream Processing Applications"* (Drougas &
//! Kalogeraki, IPDPS 2007): a distributed stream processing system that
//! composes applications dynamically while meeting their rate demands,
//! by reducing component selection + rate assignment to a minimum-cost
//! flow problem — splitting a service across several nodes whenever one
//! node alone cannot sustain the required rate.
//!
//! This facade crate re-exports the whole workspace:
//!
//! | module | crate | contents |
//! |---|---|---|
//! | [`sim`] | `desim` | deterministic discrete-event kernel |
//! | [`net`] | `simnet` | wide-area network substrate (NICs, topologies) |
//! | [`pastry`] | `overlay` | Pastry DHT: routing, discovery, replication |
//! | [`flow`] | `mincostflow` | min-cost flow solvers (SSP, network simplex) |
//! | [`monitoring`] | `monitor` | windows, meters, resource vectors (§3.2) |
//! | [`scheduling`] | `sched` | LLF/EDF/FIFO data-unit schedulers (§3.4) |
//! | [`core`] | `rasc-core` | the system: model, composition, runtime |
//! | [`workloads`] | `workload` | the paper's §4.1 scenario + generators |
//!
//! ## Quick start
//!
//! ```
//! use rasc::core::compose::ComposerKind;
//! use rasc::core::engine::Engine;
//! use rasc::core::model::{ServiceCatalog, ServiceRequest};
//!
//! let catalog = ServiceCatalog::synthetic(4, 1);
//! let mut engine = rasc::core::engine::Engine::builder(8, catalog, 1)
//!     .composer(ComposerKind::MinCost)
//!     .build();
//! let app = engine.submit(ServiceRequest::chain(&[0, 2], 8.0, 0, 7)).unwrap();
//! engine.run_for_secs(10.0);
//! let report = engine.report();
//! assert!(report.delivered > 0);
//! let _ = (app, Engine::builder); // items exist
//! ```
//!
//! Run `cargo run --release -p rasc-bench --bin repro -- all` to
//! regenerate every figure of the paper's evaluation; see EXPERIMENTS.md
//! for the recorded results and DESIGN.md for the architecture.

#![forbid(unsafe_code)]

pub use rasc_core as core;

/// Deterministic discrete-event simulation kernel.
pub mod sim {
    pub use desim::*;
}

/// Wide-area network substrate.
pub mod net {
    pub use simnet::*;
}

/// Pastry overlay + DHT service registry.
pub mod pastry {
    pub use overlay::*;
}

/// Minimum-cost flow solvers.
pub mod flow {
    pub use mincostflow::*;
}

/// Resource monitoring primitives (paper §3.2).
pub mod monitoring {
    pub use monitor::*;
}

/// Data-unit scheduling policies (paper §3.4).
pub mod scheduling {
    pub use sched::*;
}

/// Workload generators and the paper's experimental scenario.
pub mod workloads {
    pub use workload::*;
}
