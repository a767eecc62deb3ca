//! Application composition (paper §3.5 and §4.1 baselines).
//!
//! Given a request, a composer chooses which node(s) instantiate each
//! service of each substream and at what rate, subject to the bandwidth
//! availability in the [`SystemView`]. Three algorithms are provided:
//!
//! * [`MinCostComposer`] — **RASC**: per substream, a layered composition
//!   graph over the candidate hosts is solved as a minimum-cost flow
//!   (capacity = `r_max` of the host, cost = its observed drop ratio);
//!   the flow splits a service across hosts whenever that is cheaper or
//!   necessary (Algorithm 1),
//! * [`RandomComposer`] — places each service on one uniformly random
//!   host with sufficient capacity,
//! * [`GreedyComposer`] — places each service on the feasible host with
//!   the smallest drop ratio, reading the statistics once per composition
//!   (so it keeps piling onto the currently-best nodes, the behaviour the
//!   paper critiques in §4.2).
//!
//! All composers apply the same admission rule: if any substream cannot
//! be carried within remaining capacities, the whole request is rejected
//! and the view is left untouched (reservations are rolled back).

mod batch;
mod cache;
mod greedy;
mod mincost;
mod random;
mod single;

pub use batch::{BatchAdmitter, BatchItem, BatchOutcome, OrderPolicy, ReconcileStats};
pub use greedy::GreedyComposer;
pub use mincost::{CandidateSelection, LatencyMatrix, MinCostComposer};
pub use random::RandomComposer;

use crate::model::{ExecutionGraph, RequestError, ServiceCatalog, ServiceId, ServiceRequest};
use crate::view::SystemView;
use desim::SimRng;
use simnet::NodeId;
use std::collections::HashMap;

/// The provider sets discovered for the services a request names.
pub type ProviderMap = HashMap<ServiceId, Vec<NodeId>>;

/// Why a request could not be composed.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum ComposeError {
    /// A requested service has no (known) provider.
    NoProviders(ServiceId),
    /// A substream's rate cannot be carried within remaining capacities.
    InsufficientCapacity {
        /// Index of the substream that failed.
        substream: usize,
    },
    /// The request names a service outside the catalog.
    UnknownService(ServiceId),
    /// The request's source or destination is not an alive node.
    EndpointDown(NodeId),
    /// The request is malformed: no composition could ever carry it.
    Malformed(RequestError),
}

impl From<RequestError> for ComposeError {
    fn from(e: RequestError) -> Self {
        match e {
            RequestError::UnknownService(s) => ComposeError::UnknownService(s),
            other => ComposeError::Malformed(other),
        }
    }
}

impl std::fmt::Display for ComposeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ComposeError::NoProviders(s) => write!(f, "no providers for service {s}"),
            ComposeError::InsufficientCapacity { substream } => {
                write!(f, "insufficient capacity for substream {substream}")
            }
            ComposeError::UnknownService(s) => write!(f, "unknown service {s}"),
            ComposeError::EndpointDown(v) => write!(f, "endpoint node {v} is down"),
            ComposeError::Malformed(e) => write!(f, "malformed request: {e}"),
        }
    }
}

impl std::error::Error for ComposeError {}

/// A composition algorithm.
///
/// On `Ok`, the returned execution graph's reservations have been applied
/// to `view`; on `Err`, `view` is unchanged.
pub trait Composer {
    /// Composes `req` against the current system view.
    fn compose(
        &mut self,
        req: &ServiceRequest,
        catalog: &ServiceCatalog,
        providers: &ProviderMap,
        view: &mut SystemView,
        rng: &mut SimRng,
    ) -> Result<ExecutionGraph, ComposeError>;

    /// Short name for reports.
    fn name(&self) -> &'static str;

    /// Retains the most recent successful [`compose`](Self::compose)'s
    /// internal state under `key` (the engine's application id) for
    /// later incremental repair. Composers without retained state — the
    /// baselines — ignore this, so the engine's adaptation path works
    /// uniformly and merely degrades to cold recomposition.
    fn retain_for_repair(&mut self, _key: usize) {}

    /// Drops any state retained under `key` (the application stopped).
    fn discard_retained(&mut self, _key: usize) {}

    /// Drops all retained state (e.g. capacities were restored, so
    /// every cached composition is priced against a stale world).
    fn discard_all_retained(&mut self) {}

    /// Attempts an in-place repair of `key`'s retained composition
    /// after node `dead` became unusable: evacuates its placements by
    /// re-routing only the lost rate. Returns the repaired execution
    /// graph — same substream rates, no placements on `dead` — or
    /// `None` when the engine must recompose cold. `view` is the
    /// current measured snapshot with the application's own ledger
    /// credited back; no reservations are applied to it (the engine
    /// maintains the ledger through the swap). The default has no
    /// retained state and always answers `None`.
    fn repair(
        &mut self,
        _key: usize,
        _req: &ServiceRequest,
        _catalog: &ServiceCatalog,
        _graph: &ExecutionGraph,
        _dead: NodeId,
        _view: &SystemView,
    ) -> Option<ExecutionGraph> {
        None
    }

    /// Drops any cross-compose warm-start state (e.g. carried solver
    /// potentials) so the next [`compose`](Self::compose) is a pure
    /// function of its inputs. Warm starts never change composition
    /// *cost*, but among equal-cost placements they can tilt which one
    /// the solver lands on — the batch pipeline calls this before every
    /// item so pooled arenas produce identical placements no matter
    /// which items they happened to process earlier. Stateless
    /// composers have nothing to drop.
    fn forget_warm_state(&mut self) {}

    /// Enables or disables retention of compose state for incremental
    /// repair. Batch-worker arenas disable it: retention copies the
    /// solved arena's arcs per substream, and a pooled arena's cache
    /// could never be claimed under a stable app id anyway. Composers
    /// with no retained state ignore this.
    fn set_retention(&mut self, _on: bool) {}

    /// Heap bytes of the state retained for repair (`capacity × size_of`
    /// of every retained flow network and potential vector). Zero for
    /// composers that retain nothing.
    fn retained_bytes(&self) -> usize {
        0
    }
}

/// Which composer an engine runs (select-by-config for experiments).
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub enum ComposerKind {
    /// RASC's minimum-cost composition.
    #[default]
    MinCost,
    /// Uniform-random placement baseline.
    Random,
    /// Smallest-drop-ratio placement baseline.
    Greedy,
}

impl ComposerKind {
    /// Instantiates the composer.
    pub fn build(self) -> Box<dyn Composer + Send> {
        match self {
            ComposerKind::MinCost => Box::new(MinCostComposer::default()),
            ComposerKind::Random => Box::new(RandomComposer),
            ComposerKind::Greedy => Box::new(GreedyComposer),
        }
    }

    /// Display label used in experiment tables.
    pub fn label(self) -> &'static str {
        match self {
            ComposerKind::MinCost => "mincost",
            ComposerKind::Random => "random",
            ComposerKind::Greedy => "greedy",
        }
    }

    /// All kinds, in the order the paper's figures list them.
    pub const ALL: [ComposerKind; 3] = [
        ComposerKind::MinCost,
        ComposerKind::Random,
        ComposerKind::Greedy,
    ];
}

/// Runs `f` inside a [`SystemView`] reservation transaction: commits
/// its reservations on `Ok`, rolls every one of them back on `Err`.
///
/// This is the single implementation of the composers' all-or-nothing
/// admission rule. It replaces the `let backup = view.clone(); …;
/// *view = backup;` pattern each composer used to carry: the undo log
/// touches only the nodes the attempt actually reserved on, which is
/// O(placements) instead of O(nodes) per rejected request.
pub(crate) fn with_rollback<T>(
    view: &mut SystemView,
    f: impl FnOnce(&mut SystemView) -> Result<T, ComposeError>,
) -> Result<T, ComposeError> {
    view.begin_transaction();
    match f(view) {
        Ok(t) => {
            view.commit_transaction();
            Ok(t)
        }
        Err(e) => {
            view.rollback_transaction();
            Err(e)
        }
    }
}

/// Pre-checks shared by all composers. Returns an error if a named
/// service is unknown or has no provider.
pub(crate) fn precheck(
    req: &ServiceRequest,
    catalog: &ServiceCatalog,
    providers: &ProviderMap,
) -> Result<(), ComposeError> {
    for sub in &req.graph.substreams {
        for &s in &sub.services {
            if s >= catalog.len() {
                return Err(ComposeError::UnknownService(s));
            }
            if providers.get(&s).is_none_or(|p| p.is_empty()) {
                return Err(ComposeError::NoProviders(s));
            }
        }
    }
    Ok(())
}

/// The cumulative rate gain before each stage of a substream: `g[i]` is
/// the factor by which the source rate has been scaled when entering
/// stage `i`; `g[len]` is the delivery-side gain. With unit rate ratios
/// (the paper's evaluated case) every entry is 1.
pub(crate) fn gain_prefix(catalog: &ServiceCatalog, services: &[ServiceId]) -> Vec<f64> {
    let mut g = Vec::with_capacity(services.len() + 1);
    let mut acc = 1.0;
    g.push(acc);
    for &s in services {
        acc *= catalog.get(s).rate_ratio;
        g.push(acc);
    }
    g
}

/// Applies an execution graph's bandwidth reservations to the view
/// (components, source uplink, destination downlink). Public so the
/// determinism suites can replay "base snapshot + admitted graphs" and
/// assert it reproduces a batch's committed ledger bit-for-bit.
pub fn apply_reservations(
    req: &ServiceRequest,
    catalog: &ServiceCatalog,
    graph: &ExecutionGraph,
    view: &mut SystemView,
) {
    for (l, stages) in graph.substreams.iter().enumerate() {
        let services = &req.graph.substreams[l].services;
        let gains = gain_prefix(catalog, services);
        let source_rate = req.rates[l] / gains[services.len()];
        view.reserve_source(req.source, req.unit_bits, source_rate);
        view.reserve_destination(req.destination, req.unit_bits, req.rates[l]);
        for stage in stages {
            let svc = catalog.get(stage.service);
            for p in &stage.placements {
                view.reserve_component(p.node, req.unit_bits, svc.rate_ratio, p.rate);
                view.reserve_cpu(p.node, svc.exec_time.as_secs_f64(), p.rate);
            }
        }
    }
}

/// Enumerates one application's committed-rate ledger contributions:
/// calls `f(node, d_in_bits, d_out_bits, d_cpu_cores)` once per entry.
/// The engine's `install_app` adds these, `handle_app_stop` subtracts
/// them, the auditor recomputes the ledger from the live applications,
/// and the min-cost composer checks a candidate substream against the
/// remaining availability — one formula, so the books cannot drift.
///
/// A component's NIC demand excludes the share of traffic that stays on
/// the same node between consecutive stages (same-node transfers are
/// in-memory; see the engine's `send_unit`). Under WRR dispatch, the
/// fraction of stage-i traffic on node X that came from X's own
/// stage-(i−1) component is X's rate share in stage i−1, and
/// symmetrically for the outgoing side.
pub(crate) fn for_each_commitment(
    catalog: &ServiceCatalog,
    req: &ServiceRequest,
    graph: &ExecutionGraph,
    f: &mut dyn FnMut(NodeId, f64, f64, f64),
) {
    let unit_bits = req.unit_bits as f64;
    let share_of = |stage: &crate::model::Stage, node: NodeId| -> f64 {
        let total = stage.total_rate();
        if total <= 0.0 {
            return 0.0;
        }
        stage
            .placements
            .iter()
            .find(|p| p.node == node)
            .map_or(0.0, |p| p.rate / total)
    };
    for (l, stages) in graph.substreams.iter().enumerate() {
        let services = &req.graph.substreams[l].services;
        let g = gain_prefix(catalog, services);
        let src_rate = req.rates[l] / g[services.len()];
        f(req.source, 0.0, src_rate * unit_bits, 0.0);
        f(req.destination, req.rates[l] * unit_bits, 0.0, 0.0);
        for (i, stage) in stages.iter().enumerate() {
            let svc = catalog.get(stage.service);
            let ratio = svc.rate_ratio;
            let exec_secs = svc.exec_time.as_secs_f64();
            for p in &stage.placements {
                let from_self = match i {
                    0 => 0.0, // stage 0 receives from the source node
                    _ => share_of(&stages[i - 1], p.node),
                };
                let to_self = match stages.get(i + 1) {
                    Some(next) => share_of(next, p.node),
                    None => 0.0, // last stage sends to the destination
                };
                f(
                    p.node,
                    p.rate * unit_bits * (1.0 - from_self),
                    p.rate * ratio * unit_bits * (1.0 - to_self),
                    p.rate * exec_secs,
                );
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::Service;
    use desim::SimDuration;

    fn catalog_with_ratios(ratios: &[f64]) -> ServiceCatalog {
        ServiceCatalog::new(
            ratios
                .iter()
                .enumerate()
                .map(|(id, &r)| Service {
                    id,
                    name: format!("s{id}"),
                    exec_time: SimDuration::from_millis(2),
                    rate_ratio: r,
                })
                .collect(),
        )
    }

    #[test]
    fn gain_prefix_multiplies() {
        let c = catalog_with_ratios(&[2.0, 0.5, 3.0]);
        let g = gain_prefix(&c, &[0, 1, 2]);
        assert_eq!(g, vec![1.0, 2.0, 1.0, 3.0]);
    }

    #[test]
    fn precheck_flags_missing_providers() {
        let c = catalog_with_ratios(&[1.0, 1.0]);
        let req = ServiceRequest::chain(&[0, 1], 5.0, 0, 1);
        let mut providers = ProviderMap::new();
        providers.insert(0, vec![2]);
        assert_eq!(
            precheck(&req, &c, &providers),
            Err(ComposeError::NoProviders(1))
        );
        providers.insert(1, vec![]);
        assert_eq!(
            precheck(&req, &c, &providers),
            Err(ComposeError::NoProviders(1))
        );
        providers.insert(1, vec![3]);
        assert_eq!(precheck(&req, &c, &providers), Ok(()));
    }

    #[test]
    fn precheck_flags_unknown_service() {
        let c = catalog_with_ratios(&[1.0]);
        let req = ServiceRequest::chain(&[9], 5.0, 0, 1);
        assert_eq!(
            precheck(&req, &c, &ProviderMap::new()),
            Err(ComposeError::UnknownService(9))
        );
    }

    #[test]
    fn kind_builds_matching_names() {
        for kind in ComposerKind::ALL {
            let c = kind.build();
            assert_eq!(c.name(), kind.label());
        }
    }
}
