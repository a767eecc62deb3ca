//! Retained composition state for incremental recomposition (the
//! adaptation hot path).
//!
//! A successful min-cost composition leaves, per substream, a solved
//! flow network whose internal (host) arcs carry the placement rates.
//! Retaining that network — plus the solver whose final potentials
//! certify the solution — turns adaptation into a *repair* problem:
//! when a host becomes unusable, its internal arcs are disabled,
//! stranding the flow they carried as an excess/deficit imbalance at
//! their endpoints, and only the lost rate is re-routed over the
//! residual network, warm-started from the retained potentials
//! (`FlowSolver::repair_deletions`). The repaired flow is exactly
//! min-cost for its value, so the placements read back off the arcs
//! match what a cold re-solve of the damaged graph would produce, at a
//! fraction of the cost (`BENCH_compose.json`'s `adapt/` family).
//!
//! An entry keeps only what the repair ladder reads, because it is
//! copied on every admission and most entries are never repaired:
//!
//! * the network's arc table and edge bookkeeping
//!   (`FlowNetwork::clone_arcs`): residual capacities carry the
//!   installed flow, and capacities, costs and the negative-arc flags
//!   come along. The CSR adjacency index does not: it is derived from
//!   the arcs, the first repair rebuilds it bit-identically, and it
//!   would double the entry's size;
//! * the solver's final potentials and, when valid, its simplex basis
//!   (`FlowSolver::clone_for_repair`): the warm starts of the phased
//!   and warm-basis tiers. Scratch buffers are regrown by the repair
//!   that needs them.
//!
//! Repair falls back to cold recomposition (returns `None`) whenever
//! its preconditions break:
//!
//! * the repair reports a shortfall — the damaged graph cannot carry
//!   the substream's rate, so admission must be renegotiated cold;
//! * any retained host's arc cost drifted past [`COST_DRIFT_BOUND`]
//!   since compose time — the cached prices are stale, and re-pricing
//!   the whole graph *is* a cold solve;
//! * the repaired placements overcommit the **current** measured view —
//!   capacity moved underneath the cached arc capacities;
//! * the substream was composed by one of the conservative fallback
//!   paths (role-split or single-placement), whose graphs are not
//!   cached.
//!
//! Any `None` drops the retained entry — a half-repaired cache must
//! never survive — so the subsequent cold path starts from scratch.

use super::gain_prefix;
use super::mincost::{cost_of, overcommits_a_host, RATE_SCALE};
use crate::model::{ExecutionGraph, Placement, ServiceCatalog, ServiceRequest, Stage};
use crate::view::SystemView;
use mincostflow::{EdgeId, FlowNetwork, FlowSolver, RepairOutcome, RepairTier};
use std::collections::HashMap;

/// Repair aborts when any retained host's arc cost moved more than this
/// since compose time. On the milli-drop cost scale, 200 is a 0.2 swing
/// in observed drop ratio — twice the whole utilization-prior span — so
/// ordinary load wobble repairs in place while a genuinely re-priced
/// system re-solves cold. This is the documented optimality bound: a
/// completed repair is exactly min-cost against the compose-time costs,
/// and every per-host cost is within `COST_DRIFT_BOUND` of current.
pub(crate) const COST_DRIFT_BOUND: i64 = 200;

/// One substream's retained solve: the arcs of the arena the composer
/// built (with the optimal flow installed) and the repair state of the
/// solver that produced it.
#[derive(Clone, Debug)]
pub(crate) struct CachedSubstream {
    pub(crate) net: FlowNetwork,
    pub(crate) solver: FlowSolver,
    /// Internal (node-split) arcs per layer, parallel to the services.
    pub(crate) layers: Vec<Vec<(EdgeId, simnet::NodeId)>>,
    /// Compose-time arc cost of every candidate layer host, for the
    /// drift check (endpoints are excluded: their arcs price every
    /// path equally, so drift there cannot change the optimum).
    pub(crate) host_costs: Vec<(simnet::NodeId, i64)>,
}

/// Per-application retained compositions, keyed by the engine's app id.
///
/// The composer records the in-progress compose via
/// [`begin_compose`](Self::begin_compose) /
/// [`note_substream`](Self::note_substream) /
/// [`finish_compose`](Self::finish_compose); the engine claims the
/// finished state under its app id with [`retain`](Self::retain) once
/// the application is installed.
#[derive(Clone, Debug, Default)]
pub(crate) struct CompositionCache {
    map: HashMap<usize, Vec<CachedSubstream>>,
    pending: Vec<Option<CachedSubstream>>,
    last: Option<Vec<CachedSubstream>>,
}

impl CompositionCache {
    pub(crate) fn begin_compose(&mut self) {
        self.pending.clear();
        self.last = None;
    }

    /// Records one substream of the in-progress compose (`None` when it
    /// went through an uncacheable fallback path).
    pub(crate) fn note_substream(&mut self, sub: Option<CachedSubstream>) {
        self.pending.push(sub);
    }

    /// Seals the in-progress compose. The state is kept only when every
    /// substream was cacheable — repair must either cover the whole
    /// application or not pretend to.
    pub(crate) fn finish_compose(&mut self) {
        self.last = self.pending.drain(..).collect::<Option<Vec<_>>>();
    }

    /// Claims the most recent sealed compose under `key`.
    pub(crate) fn retain(&mut self, key: usize) {
        if let Some(subs) = self.last.take() {
            self.map.insert(key, subs);
        }
    }

    pub(crate) fn discard(&mut self, key: usize) {
        self.map.remove(&key);
    }

    pub(crate) fn discard_all(&mut self) {
        self.map.clear();
    }

    #[cfg(test)]
    pub(crate) fn len(&self) -> usize {
        self.map.len()
    }

    /// Heap bytes of every claimed entry's networks and potentials.
    pub(crate) fn retained_bytes(&self) -> usize {
        self.map
            .values()
            .flatten()
            .map(|cs| cs.net.heap_bytes() + cs.solver.potential_bytes())
            .sum()
    }

    /// Attempts to evacuate `dead` from `key`'s retained composition.
    ///
    /// On success the retained networks now hold the repaired flow (so
    /// later adaptation events keep repairing incrementally) and the
    /// rebuilt execution graph is returned; the caller swaps it in
    /// place. On `None` the retained entry is dropped and the caller
    /// must recompose cold. `view` is the current measured snapshot
    /// with the application's own ledger credited back.
    pub(crate) fn repair(
        &mut self,
        key: usize,
        req: &ServiceRequest,
        catalog: &ServiceCatalog,
        graph: &ExecutionGraph,
        dead: simnet::NodeId,
        view: &SystemView,
    ) -> Option<ExecutionGraph> {
        // Take the entry up front: every early return leaves the cache
        // consistent with the cold path that will follow.
        let mut subs = self.map.remove(&key)?;
        if subs.len() != req.graph.substreams.len() {
            return None;
        }
        // Hosts to evacuate: the trigger itself, plus any candidate the
        // current view marks failed (a node can die without affecting
        // this application's placements — its arcs must still never
        // carry repaired flow, and its maximal cost is not "drift").
        let unusable = |h: simnet::NodeId| h == dead || view.drop_ratio(h) >= 0.999;
        // Price-drift bound: the repair is optimal against compose-time
        // costs, which must still be near the truth for surviving
        // candidates.
        for cs in &subs {
            for &(host, then) in &cs.host_costs {
                if !unusable(host) && (cost_of(view, host) - then).abs() > COST_DRIFT_BOUND {
                    return None;
                }
            }
        }
        let mut substreams = Vec::with_capacity(subs.len());
        for (l, cs) in subs.iter_mut().enumerate() {
            // Disable every unusable host's capacity arcs (not just
            // flow-carrying ones) so no later repair routes through
            // them either; re-disabling an evacuated arc drains zero
            // flow and is free.
            let dead_edges: Vec<EdgeId> = cs
                .layers
                .iter()
                .flatten()
                .filter(|&&(_, h)| unusable(h))
                .map(|&(e, _)| e)
                .collect();
            if dead_edges.is_empty() {
                substreams.push(graph.substreams[l].clone());
                continue;
            }
            let out = cs.solver.repair_deletions(&mut cs.net, &dead_edges);
            cs.host_costs.retain(|&(h, _)| !unusable(h));
            if !out.complete() {
                return None;
            }
            if audit_enabled() {
                audit_repair(cs, &out);
            }
            if out.routed == 0 {
                // The dead host carried no flow here; placements stand.
                substreams.push(graph.substreams[l].clone());
                continue;
            }
            substreams.push(read_stages(req, catalog, cs, l)?);
        }
        let candidate = ExecutionGraph { substreams };
        // Capacity may have moved under the cached arc capacities; the
        // repaired commitments must fit what the system has *now*.
        if overcommits_a_host(req, catalog, view, &candidate) {
            return None;
        }
        self.map.insert(key, subs);
        Some(candidate)
    }
}

/// Whether `RASC_AUDIT=1` asks repaired flows to be re-certified.
fn audit_enabled() -> bool {
    std::env::var("RASC_AUDIT")
        .map(|v| v == "1" || v.eq_ignore_ascii_case("true"))
        .unwrap_or(false)
}

/// Re-certifies a completed repair in place. A warm-basis repair must
/// present dual-feasible potentials for the repaired arena
/// ([`check_certificate`](mincostflow::validate::check_certificate),
/// `O(m)` — the stronger check, since it validates the *retained*
/// certificate later repairs will warm-start from); the fallback tiers
/// keep no certificate, so they get the negative-residual-cycle oracle
/// instead. Panics on violation: a silently suboptimal repaired flow
/// would poison every later incremental repair of this application.
fn audit_repair(cs: &CachedSubstream, out: &RepairOutcome) {
    if out.tier == RepairTier::WarmBasis {
        let pot = cs
            .solver
            .certificate_potentials()
            .expect("a warm-basis repair leaves a valid basis");
        if let Err(v) = mincostflow::validate::check_certificate(&cs.net, pot) {
            panic!("audit: warm-basis repair is not dual-feasible: {v:?}");
        }
    } else if let Err(v) = mincostflow::validate::check_optimality(&cs.net) {
        panic!("audit: repaired flow is not min-cost: {v:?}");
    }
}

/// Reads substream `l`'s stages back off the repaired flow (the same
/// conversion the composer applies after a cold solve).
fn read_stages(
    req: &ServiceRequest,
    catalog: &ServiceCatalog,
    cs: &CachedSubstream,
    l: usize,
) -> Option<Vec<Stage>> {
    let services = &req.graph.substreams[l].services;
    let gains = gain_prefix(catalog, services);
    let mut stages = Vec::with_capacity(services.len());
    for (i, &service) in services.iter().enumerate() {
        let mut placements = Vec::new();
        for &(e, host) in &cs.layers[i] {
            let flow = cs.net.flow_on(e);
            if flow > 0 {
                placements.push(Placement {
                    node: host,
                    rate: flow as f64 / RATE_SCALE * gains[i],
                });
            }
        }
        if placements.is_empty() {
            // A complete repair conserves flow through every layer;
            // reaching this means the cache no longer matches the
            // application and must not be trusted.
            return None;
        }
        stages.push(Stage {
            service,
            placements,
        });
    }
    Some(stages)
}

#[cfg(test)]
mod tests {
    use super::super::{Composer, ProviderMap};
    use super::*;
    use crate::compose::MinCostComposer;
    use desim::{SimDuration, SimRng};
    use simnet::Topology;

    fn providers_for(pairs: &[(usize, &[usize])]) -> ProviderMap {
        pairs
            .iter()
            .map(|&(s, hosts)| (s, hosts.to_vec()))
            .collect()
    }

    /// 5 nodes at 1 Mbps; node 0 = source, node 4 = destination.
    fn flat_view() -> SystemView {
        SystemView::fresh(&Topology::uniform(
            5,
            1_000_000.0,
            SimDuration::from_millis(10),
        ))
    }

    /// The pre-compose view with `dead` marked unusable — what the
    /// engine's measured snapshot shows after crediting the app's own
    /// ledger back.
    fn view_without(base: &SystemView, dead: usize) -> SystemView {
        let mut v = base.clone();
        v.consume_measured(dead, f64::MAX, f64::MAX);
        v.set_drop_ratio(dead, 1.0);
        v
    }

    fn placed_hosts(g: &ExecutionGraph) -> Vec<usize> {
        let mut hosts: Vec<usize> = g
            .substreams
            .iter()
            .flatten()
            .flat_map(|s| s.placements.iter().map(|p| p.node))
            .collect();
        hosts.sort_unstable();
        hosts.dedup();
        hosts
    }

    #[test]
    fn repair_evacuates_failed_host_at_full_rate() {
        let catalog = crate::model::ServiceCatalog::synthetic(1, 1);
        let base = flat_view();
        let mut view = base.clone();
        // Host 1 is cheaper; the solve lands there.
        view.set_drop_ratio(1, 0.0);
        view.set_drop_ratio(2, 0.05);
        let pre = view.clone();
        let req = ServiceRequest::chain(&[0], 40.0, 0, 4);
        let providers = providers_for(&[(0, &[1, 2])]);
        let mut comp = MinCostComposer::default();
        let g = comp
            .compose(&req, &catalog, &providers, &mut view, &mut SimRng::new(0))
            .unwrap();
        assert_eq!(placed_hosts(&g), vec![1]);
        comp.retain_for_repair(7);
        let after = view_without(&pre, 1);
        let repaired = comp
            .repair(7, &req, &catalog, &g, 1, &after)
            .expect("repair must evacuate host 1");
        assert_eq!(placed_hosts(&repaired), vec![2]);
        let total: f64 = repaired.substreams[0][0].total_rate();
        assert!((total - 40.0).abs() < 1e-6, "rate preserved, got {total}");
    }

    #[test]
    fn repeated_repairs_keep_evacuating() {
        let catalog = crate::model::ServiceCatalog::synthetic(1, 2);
        let base = flat_view();
        let mut view = base.clone();
        view.set_drop_ratio(2, 0.02);
        view.set_drop_ratio(3, 0.05);
        let pre = view.clone();
        let req = ServiceRequest::chain(&[0], 30.0, 0, 4);
        let providers = providers_for(&[(0, &[1, 2, 3])]);
        let mut comp = MinCostComposer::default();
        let g = comp
            .compose(&req, &catalog, &providers, &mut view, &mut SimRng::new(0))
            .unwrap();
        assert_eq!(placed_hosts(&g), vec![1]);
        comp.retain_for_repair(0);
        let after1 = view_without(&pre, 1);
        let g2 = comp.repair(0, &req, &catalog, &g, 1, &after1).unwrap();
        assert_eq!(placed_hosts(&g2), vec![2]);
        let after2 = view_without(&after1, 2);
        let g3 = comp.repair(0, &req, &catalog, &g2, 2, &after2).unwrap();
        assert_eq!(placed_hosts(&g3), vec![3]);
        assert!((g3.substreams[0][0].total_rate() - 30.0).abs() < 1e-6);
    }

    #[test]
    fn simplex_composer_repairs_on_the_warm_basis_tier() {
        use mincostflow::Algorithm;
        let catalog = crate::model::ServiceCatalog::synthetic(1, 8);
        let base = flat_view();
        let mut view = base.clone();
        view.set_drop_ratio(1, 0.0);
        view.set_drop_ratio(2, 0.05);
        let pre = view.clone();
        let req = ServiceRequest::chain(&[0], 40.0, 0, 4);
        let providers = providers_for(&[(0, &[1, 2])]);
        let mut comp = MinCostComposer::with_algorithm(Algorithm::NetworkSimplex);
        let g = comp
            .compose(&req, &catalog, &providers, &mut view, &mut SimRng::new(0))
            .unwrap();
        assert_eq!(placed_hosts(&g), vec![1]);
        comp.retain_for_repair(11);
        let after = view_without(&pre, 1);
        let repaired = comp
            .repair(11, &req, &catalog, &g, 1, &after)
            .expect("repair must evacuate host 1");
        assert_eq!(placed_hosts(&repaired), vec![2]);
        assert!((repaired.substreams[0][0].total_rate() - 40.0).abs() < 1e-6);
        // The retained entry must have been repaired on the warm-basis
        // tier: only that tier keeps a live certificate (the fallback
        // tiers invalidate the basis), and the repaired arena must pass
        // the same dual-feasibility audit the chaos soak applies.
        let cs = &comp.cache.map[&11][0];
        let pot = cs
            .solver
            .certificate_potentials()
            .expect("warm-basis repair retains its certificate");
        mincostflow::validate::check_certificate(&cs.net, pot).unwrap();
    }

    #[test]
    fn cost_drift_past_bound_forces_cold_path() {
        let catalog = crate::model::ServiceCatalog::synthetic(1, 3);
        let mut view = flat_view();
        let pre = view.clone();
        let req = ServiceRequest::chain(&[0], 20.0, 0, 4);
        let providers = providers_for(&[(0, &[1, 2])]);
        let mut comp = MinCostComposer::default();
        let g = comp
            .compose(&req, &catalog, &providers, &mut view, &mut SimRng::new(0))
            .unwrap();
        comp.retain_for_repair(3);
        // A surviving candidate's drop ratio exploded since compose.
        let mut after = view_without(&pre, 1);
        after.set_drop_ratio(2, 0.9);
        assert!(comp.repair(3, &req, &catalog, &g, 1, &after).is_none());
        // The entry is gone: a second attempt doesn't even try.
        let calm = view_without(&pre, 1);
        assert!(comp.repair(3, &req, &catalog, &g, 1, &calm).is_none());
    }

    #[test]
    fn stale_capacity_is_validated_against_the_current_view() {
        let catalog = crate::model::ServiceCatalog::synthetic(1, 4);
        let mut view = flat_view();
        view.set_drop_ratio(1, 0.0);
        view.set_drop_ratio(2, 0.01);
        let pre = view.clone();
        let req = ServiceRequest::chain(&[0], 40.0, 0, 4);
        let providers = providers_for(&[(0, &[1, 2])]);
        let mut comp = MinCostComposer::default();
        let g = comp
            .compose(&req, &catalog, &providers, &mut view, &mut SimRng::new(0))
            .unwrap();
        assert_eq!(placed_hosts(&g), vec![1]);
        comp.retain_for_repair(9);
        // Host 2 is the only escape, but its NICs are now nearly fully
        // consumed by measured cross-traffic the cached arcs predate.
        let mut after = view_without(&pre, 1);
        let spare = after.in_rate_capacity(2, req.unit_bits);
        after.consume_measured(2, (spare - 5.0) * req.unit_bits as f64, 0.0);
        assert!(
            comp.repair(9, &req, &catalog, &g, 1, &after).is_none(),
            "overcommitting repair must fall back cold"
        );
    }

    #[test]
    fn retention_is_per_key_and_discardable() {
        let catalog = crate::model::ServiceCatalog::synthetic(1, 5);
        let mut view = flat_view();
        let req = ServiceRequest::chain(&[0], 10.0, 0, 4);
        let providers = providers_for(&[(0, &[1, 2])]);
        let mut comp = MinCostComposer::default();
        let g = comp
            .compose(&req, &catalog, &providers, &mut view, &mut SimRng::new(0))
            .unwrap();
        comp.retain_for_repair(1);
        // Claiming again without a new compose retains nothing.
        comp.retain_for_repair(2);
        assert_eq!(comp.cache.len(), 1);
        comp.discard_retained(1);
        let after = view_without(&view, 1);
        assert!(comp.repair(1, &req, &catalog, &g, 1, &after).is_none());
        // A fresh compose + retain under a new key works again.
        let g = comp
            .compose(&req, &catalog, &providers, &mut view, &mut SimRng::new(0))
            .unwrap();
        comp.retain_for_repair(2);
        comp.discard_all_retained();
        assert!(comp.repair(2, &req, &catalog, &g, 1, &after).is_none());
    }
}
