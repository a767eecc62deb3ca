//! Resource monitoring for RASC (paper §3.2).
//!
//! Nodes continuously observe their own behaviour and feed the composition
//! algorithm three kinds of statistics, all computed over a sliding window
//! of the most recent `h` observations "to avoid miscalculations caused by
//! transient behavior":
//!
//! * [`RateEstimator`] — arrival/departure rates of data units, from which
//!   a component's period `p_ci` and a node's consumed bandwidth follow,
//! * [`ThroughputMeter`] — bits/second over a sliding time window, the
//!   measured in/out traffic (and CPU busy time) that availability is
//!   computed from; it holds one entry per distinct instant,
//! * [`OutcomeWindow`] — the fraction of data units recently dropped
//!   (`drops_n(ci)` in the paper), the cost signal of the min-cost solve,
//! * [`WindowStats`] / [`Ewma`] / [`Welford`] — running-time statistics
//!   (`t_ci`) and general smoothing/aggregation helpers,
//! * [`ResourceVector`] — the paper's requirement (`u_ci`) and availability
//!   (`A_n`) vectors with the `r_max = min_j A_j / u_j` rule (§3.5).
//!
//! # Example
//!
//! ```
//! use desim::SimTime;
//! use monitor::{OutcomeWindow, RateEstimator, ResourceVector};
//!
//! // A component's arrival rate over the last 8 units (10 Hz stream).
//! let mut arrivals = RateEstimator::new(8);
//! for i in 0..10 {
//!     arrivals.record(SimTime::from_millis(100 * i));
//! }
//! assert!((arrivals.rate() - 10.0).abs() < 1e-9);
//!
//! // Drop feedback: 1 of the last 4 units dropped.
//! let mut drops = OutcomeWindow::new(4);
//! for d in [false, true, false, false] {
//!     drops.record(d);
//! }
//! assert!((drops.ratio() - 0.25).abs() < 1e-12);
//!
//! // r_max: a 1 Mb/s-in / 250 Kb/s-out node and an 8 Kbit data unit.
//! let avail = ResourceVector::bandwidth(1_000_000.0, 250_000.0);
//! let per_unit = ResourceVector::bandwidth(8_000.0, 8_000.0);
//! assert!((avail.max_rate(&per_unit) - 31.25).abs() < 1e-9);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod ewma;
mod histogram;
mod rate;
mod resources;
mod throughput;
mod welford;
mod window;

pub use ewma::Ewma;
pub use histogram::Histogram;
pub use rate::RateEstimator;
pub use resources::ResourceVector;
pub use throughput::ThroughputMeter;
pub use welford::Welford;
pub use window::{OutcomeWindow, WindowStats};
