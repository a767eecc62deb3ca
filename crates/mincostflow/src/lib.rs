//! Minimum-cost flow solvers for RASC's rate-splitting composition.
//!
//! RASC (paper §3.5) reduces per-substream component selection + rate
//! assignment to a minimum-cost flow problem: edge capacities encode the
//! maximum ingest rate of candidate hosts, edge costs encode their observed
//! drop ratios, and the required flow value is the substream's rate
//! requirement. This crate implements that machinery from scratch:
//!
//! * [`FlowNetwork`] — a residual-graph representation with integer
//!   capacities and costs over a flat CSR arc index,
//! * [`SspSolver`] — successive shortest paths, in three variants: SPFA
//!   (Bellman–Ford queue; reference implementation, handles negative costs),
//!   Dijkstra with Johnson potentials (the paper's references [7, 10]), and
//!   Dial's bucket-queue Dijkstra (the fast path when arc costs are small
//!   bounded integers, as the composer's scaled costs are),
//! * [`FlowSolver`] — a retained solver wrapper that keeps scratch buffers
//!   and warm-starts potentials across a sequence of structurally similar
//!   solves (the composer's per-substream graphs),
//! * [`CostScaling`] — Goldberg's cost-scaling push–relabel algorithm
//!   (reference [11]),
//! * [`CapacityScaling`] — Edmonds–Karp capacity-scaling SSP in the
//!   excess-scaling form (reference [7]),
//! * [`NetworkSimplex`] — spanning-tree primal simplex with block-search
//!   pivoting, the fastest solver on large composition graphs,
//! * [`dinic_max_flow`] — Dinic's max-flow for feasibility pre-checks,
//! * [`validate`] — independent certification of feasibility and optimality
//!   (flow conservation, capacity bounds, no negative residual cycle).
//!
//! All quantities are `i64`. Callers working in fractional rates scale to
//! integer units (RASC uses milli-data-units/second) before solving.
//!
//! # Example
//!
//! ```
//! use mincostflow::{FlowNetwork, SspSolver, SspVariant};
//!
//! // Two parallel routes from 0 to 3; the cheap one has limited capacity,
//! // so an optimal flow of 15 splits 10 cheap + 5 expensive.
//! let mut net = FlowNetwork::new(4);
//! let cheap_a = net.add_edge(0, 1, 10, 1);
//! let cheap_b = net.add_edge(1, 3, 10, 1);
//! let dear_a = net.add_edge(0, 2, 20, 4);
//! let dear_b = net.add_edge(2, 3, 20, 4);
//! let sol = SspSolver::new(SspVariant::Dijkstra)
//!     .solve(&mut net, 0, 3, 15)
//!     .expect("feasible");
//! assert_eq!(sol.flow, 15);
//! assert_eq!(sol.cost, 10 * 2 + 5 * 8);
//! assert_eq!(net.flow_on(cheap_a), 10);
//! assert_eq!(net.flow_on(cheap_b), 10);
//! assert_eq!(net.flow_on(dear_a), 5);
//! assert_eq!(net.flow_on(dear_b), 5);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod capacity_scaling;
mod cost_scaling;
mod dinic;
mod network;
mod repair;
mod simplex;
mod ssp;
pub mod validate;

pub use capacity_scaling::CapacityScaling;
pub use cost_scaling::CostScaling;
pub use dinic::dinic_max_flow;
pub use network::{EdgeId, FlowNetwork, NodeId};
pub use repair::{RepairOutcome, RepairTier};
pub use simplex::{NetworkSimplex, SimplexBasis};
pub use ssp::{SspSolver, SspVariant};

/// Heap bytes behind a vector: `capacity × size_of::<T>()`.
pub(crate) fn vec_bytes<T>(v: &Vec<T>) -> usize {
    v.capacity() * std::mem::size_of::<T>()
}

/// Outcome of a successful min-cost flow solve.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct Solution {
    /// Flow value actually routed (equals the request when feasible).
    pub flow: i64,
    /// Total cost of the routed flow (sum of `flow_e * cost_e`).
    pub cost: i64,
}

/// Error returned when the requested flow value cannot be routed.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct Infeasible {
    /// The maximum flow value that *was* routable (left in the network).
    pub max_flow: i64,
    /// Cost of that partial routing.
    pub cost: i64,
}

impl std::fmt::Display for Infeasible {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "requested flow infeasible; at most {} routable (cost {})",
            self.max_flow, self.cost
        )
    }
}

impl std::error::Error for Infeasible {}

/// Solver selection for [`min_cost_flow`] and [`FlowSolver`].
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub enum Algorithm {
    /// Successive shortest paths with SPFA (reference; negative costs OK).
    SpfaSsp,
    /// Successive shortest paths with binary-heap Dijkstra + potentials.
    DijkstraSsp,
    /// Successive shortest paths with Dial's bucket-queue Dijkstra +
    /// potentials (default: fastest on the composer's bounded-cost
    /// graphs; falls back to the heap per-path on wide cost spans).
    #[default]
    DialSsp,
    /// Goldberg's cost-scaling push–relabel.
    CostScaling,
    /// Edmonds–Karp capacity-scaling SSP (the paper's reference [7]).
    CapacityScaling,
    /// Network simplex (spanning-tree pivots; fastest on the large
    /// layered graphs, where it avoids per-path shortest-path searches).
    NetworkSimplex,
}

/// A retained min-cost-flow solver.
///
/// Holding one `FlowSolver` across a sequence of solves keeps every
/// scratch buffer allocated between calls and — for the SSP variants —
/// carries Johnson potentials from one solve to the next: the snapshot
/// taken after a solve's first shortest path is revalidated in one O(m)
/// scan against the next graph and reused when still feasible, which is
/// the common case for the composer's per-substream graphs (rebuilt in
/// the same arena with mildly shifted costs/capacities). Warm starts
/// never change `(flow, cost)` results; see [`SspSolver`] for why.
#[derive(Clone, Debug, Default)]
pub struct FlowSolver {
    algorithm: Algorithm,
    ssp: ssp::SspScratch,
    basis: SimplexBasis,
}

impl FlowSolver {
    /// Creates a retained solver for the given algorithm.
    pub fn new(algorithm: Algorithm) -> Self {
        FlowSolver {
            algorithm,
            ssp: Default::default(),
            basis: Default::default(),
        }
    }

    /// The algorithm this solver dispatches to.
    pub fn algorithm(&self) -> Algorithm {
        self.algorithm
    }

    /// A copy holding only what the repair ladder reads: the algorithm,
    /// the final potentials of the last solve (the phased tier's warm
    /// start) and, when it is valid, the simplex basis (the warm-basis
    /// tier). Scratch buffers and the warm-start snapshot for the next
    /// solve are left empty; a repair regrows the buffers it needs.
    /// Every repair entry point behaves exactly as on a `clone()`.
    pub fn clone_for_repair(&self) -> FlowSolver {
        FlowSolver {
            algorithm: self.algorithm,
            ssp: self.ssp.clone_potentials(),
            basis: if self.basis.is_valid() {
                self.basis.clone()
            } else {
                SimplexBasis::default()
            },
        }
    }

    /// Heap bytes of the potential vectors this solver holds (the SSP
    /// potentials and the simplex basis's), `capacity × size_of`.
    pub fn potential_bytes(&self) -> usize {
        vec_bytes(&self.ssp.pot) + vec_bytes(&self.basis.pi)
    }

    /// Drops the warm-start potential snapshot (buffers stay allocated).
    /// Call when switching to an unrelated family of graphs; purely a
    /// performance hint, never needed for correctness.
    pub fn forget(&mut self) {
        self.ssp.forget();
        self.basis.invalidate();
    }

    /// The node potentials certifying the last simplex solve or
    /// warm-basis repair (see [`SimplexBasis::potentials`]); the
    /// independent dual-feasibility checker
    /// [`validate::check_certificate`] consumes them. `None` when no
    /// valid basis is retained (non-simplex algorithm, or a fallback
    /// tier mutated the flows since).
    pub fn certificate_potentials(&self) -> Option<&[i64]> {
        self.basis.potentials()
    }

    /// Routes up to `target` units from `source` to `sink` at minimum
    /// cost. Same contract as [`min_cost_flow`].
    pub fn solve(
        &mut self,
        net: &mut FlowNetwork,
        source: NodeId,
        sink: NodeId,
        target: i64,
    ) -> Result<Solution, Infeasible> {
        // Any non-simplex solve installs flows behind the retained
        // basis's back, so only the simplex arm keeps it alive.
        let variant = match self.algorithm {
            Algorithm::SpfaSsp => SspVariant::Spfa,
            Algorithm::DijkstraSsp => SspVariant::Dijkstra,
            Algorithm::DialSsp => SspVariant::Dial,
            Algorithm::CostScaling => {
                self.basis.invalidate();
                return CostScaling::default().solve(net, source, sink, target);
            }
            Algorithm::CapacityScaling => {
                self.basis.invalidate();
                return CapacityScaling.solve(net, source, sink, target);
            }
            Algorithm::NetworkSimplex => {
                return NetworkSimplex.solve_with(&mut self.basis, net, source, sink, target);
            }
        };
        self.basis.invalidate();
        SspSolver::new(variant).solve_with(&mut self.ssp, net, source, sink, target)
    }

    /// Disables every edge in `dead` and re-routes the flow they
    /// carried, trying the repair ladder top-down (see [`RepairTier`]):
    /// warm-basis simplex re-pivoting when a retained basis matches the
    /// network, else the phased primal–dual path warm-started from the
    /// potentials the preceding [`solve`](Self::solve) left behind,
    /// else SPFA. Every tier leaves a flow that is exactly min-cost for
    /// its value (see the `repair` module docs); a non-zero
    /// [`RepairOutcome::shortfall`] means the damaged network cannot
    /// carry the previous value and the caller should re-solve.
    pub fn repair_deletions(&mut self, net: &mut FlowNetwork, dead: &[EdgeId]) -> RepairOutcome {
        if let Some(out) = self.basis.repair_deletions(net, dead) {
            return out;
        }
        self.basis.invalidate();
        repair::repair_deletions(&mut self.ssp, net, dead)
    }

    /// Cuts edge `e`'s capacity to `new_cap` (at most its current
    /// capacity) and re-routes any flow above the new bound through the
    /// same repair ladder as [`repair_deletions`](Self::repair_deletions):
    /// a NIC degradation is a capacity cut, a crash is a cut to zero.
    pub fn cut_capacity(
        &mut self,
        net: &mut FlowNetwork,
        e: EdgeId,
        new_cap: i64,
    ) -> RepairOutcome {
        if let Some(out) = self.basis.cut_capacity(net, e, new_cap) {
            return out;
        }
        self.basis.invalidate();
        let (u, v) = net.endpoints(e);
        let cost = net.cost(e);
        let drained = net.reduce_capacity(e, new_cap);
        let mut out = repair::repair(&mut self.ssp, net, &[(u, drained)], &[(v, drained)]);
        out.cost_delta -= drained * cost;
        out
    }

    /// Re-prices edge `e` to `new_cost` and restores min-cost
    /// optimality at the unchanged flow value by warm-basis re-pivoting
    /// with a localized dual update. Unlike the balance repairs this
    /// has no augmenting-path fallback — a price change can leave
    /// negative residual cycles, which only the basis tier (or a cold
    /// re-solve) removes — so `None` means the price was applied but
    /// the flow may now be suboptimal and the caller must re-solve.
    pub fn reprice_edge(
        &mut self,
        net: &mut FlowNetwork,
        e: EdgeId,
        new_cost: i64,
    ) -> Option<RepairOutcome> {
        let old_cost = net.cost(e);
        net.set_cost(e, new_cost);
        let out = self.basis.reprice(net, e, old_cost);
        if out.is_none() {
            self.basis.invalidate();
        }
        out
    }

    /// Restores balance to a pseudo-flow: routes `min(Σ excess, Σ deficit)`
    /// units from `excess` nodes to `deficit` nodes along successive
    /// shortest residual paths. The general primitive behind
    /// [`repair_deletions`](Self::repair_deletions),
    /// [`increase_flow`](Self::increase_flow), and
    /// [`decrease_flow`](Self::decrease_flow).
    pub fn repair_imbalance(
        &mut self,
        net: &mut FlowNetwork,
        excess: &[(NodeId, i64)],
        deficit: &[(NodeId, i64)],
    ) -> RepairOutcome {
        // Arbitrary excess/deficit pairings have no slack-arc encoding;
        // the augmenting-path tiers mutate flows, so the basis goes.
        self.basis.invalidate();
        repair::repair(&mut self.ssp, net, excess, deficit)
    }

    /// Raises the installed `source → sink` flow by `delta` at minimum
    /// added cost, without re-solving. Equivalent in cost to a cold solve
    /// at the higher target when it completes.
    pub fn increase_flow(
        &mut self,
        net: &mut FlowNetwork,
        source: NodeId,
        sink: NodeId,
        delta: i64,
    ) -> RepairOutcome {
        if let Some(out) = self.basis.increase_flow(net, source, sink, delta) {
            return out;
        }
        self.basis.invalidate();
        repair::repair(&mut self.ssp, net, &[(source, delta)], &[(sink, delta)])
    }

    /// Lowers the installed `source → sink` flow by `delta`, cancelling
    /// the most expensive routed paths first (augmentation runs backwards
    /// through residual arcs). Equivalent in cost to a cold solve at the
    /// lower target when it completes.
    pub fn decrease_flow(
        &mut self,
        net: &mut FlowNetwork,
        source: NodeId,
        sink: NodeId,
        delta: i64,
    ) -> RepairOutcome {
        if let Some(out) = self.basis.decrease_flow(net, source, sink, delta) {
            return out;
        }
        self.basis.invalidate();
        repair::repair(&mut self.ssp, net, &[(sink, delta)], &[(source, delta)])
    }
}

/// Routes `target` units of flow from `source` to `sink` at minimum cost,
/// using the selected algorithm. On success the flows are left installed in
/// `net` (query with [`FlowNetwork::flow_on`]). On infeasibility the network
/// holds a maximum (but still min-cost) routing and the error reports it.
pub fn min_cost_flow(
    net: &mut FlowNetwork,
    source: NodeId,
    sink: NodeId,
    target: i64,
    algorithm: Algorithm,
) -> Result<Solution, Infeasible> {
    FlowSolver::new(algorithm).solve(net, source, sink, target)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn api_dispatches_all_algorithms() {
        for alg in [
            Algorithm::SpfaSsp,
            Algorithm::DijkstraSsp,
            Algorithm::DialSsp,
            Algorithm::CostScaling,
            Algorithm::CapacityScaling,
            Algorithm::NetworkSimplex,
        ] {
            let mut net = FlowNetwork::new(2);
            net.add_edge(0, 1, 5, 3);
            let sol = min_cost_flow(&mut net, 0, 1, 5, alg).unwrap();
            assert_eq!(sol, Solution { flow: 5, cost: 15 }, "{alg:?}");
        }
    }

    #[test]
    fn infeasible_reports_max_flow() {
        let mut net = FlowNetwork::new(2);
        net.add_edge(0, 1, 5, 1);
        let err = min_cost_flow(&mut net, 0, 1, 9, Algorithm::default()).unwrap_err();
        assert_eq!(err.max_flow, 5);
        assert_eq!(err.cost, 5);
        assert!(err.to_string().contains("at most 5"));
    }
}
