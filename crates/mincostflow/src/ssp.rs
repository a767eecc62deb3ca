//! Successive shortest paths (SSP) for minimum-cost flow.
//!
//! Repeatedly find a cheapest residual `s → t` path and saturate it. With a
//! shortest-path subroutine that respects reduced costs, every intermediate
//! flow is a minimum-cost flow of its value (Edmonds–Karp [7]), so on
//! infeasibility the partial routing left in the network is itself optimal.
//!
//! Three shortest-path engines are provided:
//!
//! * **SPFA** (queue-based Bellman–Ford) — tolerates negative arc costs
//!   directly; the simple reference implementation.
//! * **Dijkstra with Johnson potentials** — maintains node potentials `π`
//!   so reduced costs `c + π(u) − π(v)` stay non-negative, allowing a heap
//!   Dijkstra per augmentation, stopped as soon as the sink settles.
//! * **Dial's bucket queue** — when the maximum reduced cost over active
//!   arcs is small (composition graphs: bounded scaled-integer costs), a
//!   ring of FIFO buckets replaces the binary heap, turning every queue
//!   operation into O(1). Falls back to the heap per-path when the span
//!   is large.
//!
//! # Warm-started potentials
//!
//! All state lives in a retained [`SspScratch`], so a caller solving a
//! sequence of structurally similar graphs (the composer solves one
//! layered graph per substream) reuses buffers allocation-free *and*
//! carries potentials across solves. The potentials snapshotted after the
//! first shortest path of a solve are valid for that graph at zero flow;
//! the next solve revalidates them against its own graph in one O(m)
//! scan (`c + π(u) − π(v) ≥ 0` on every active arc) and falls back to
//! zeros or Bellman–Ford when the graph changed too much. A warm start
//! never changes results — SSP augments along true shortest paths under
//! any valid potentials, so `(flow, cost)` is bit-identical — it only
//! shrinks the region Dijkstra explores before the sink settles.

use crate::network::{FlowNetwork, NodeId};
use crate::{Infeasible, Solution};
use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::collections::VecDeque;

/// Shortest-path engine used by [`SspSolver`].
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum SspVariant {
    /// Queue-based Bellman–Ford per augmentation.
    Spfa,
    /// Binary-heap Dijkstra over reduced costs.
    Dijkstra,
    /// Dial's bucket-queue Dijkstra over reduced costs, with a per-path
    /// fallback to the binary heap when the cost span is large.
    Dial,
}

pub(crate) const INF: i64 = i64::MAX / 4;

/// Above this reduced-cost span the bucket ring would be larger than the
/// graph is worth; [`SspVariant::Dial`] falls back to the heap for that
/// path. Composition-graph spans are ≤ ~2300 (drop ≤ 1000 + util ≤ 100 +
/// small latency term, doubled by node splitting), far below this.
pub(crate) const DIAL_SPAN_LIMIT: i64 = 8192;

/// Retained state for [`SspSolver`]: scratch buffers for the shortest-path
/// engines plus the warm-start potential snapshot carried across solves.
/// All buffers keep their allocations between solves, so steady-state
/// solving over an arena-reset [`FlowNetwork`] performs no allocations.
#[derive(Clone, Debug, Default)]
pub(crate) struct SspScratch {
    /// Johnson potentials for the current solve. After a completed solve
    /// these are the *final* potentials, under which the installed flow's
    /// residual network has non-negative reduced costs — exactly the
    /// warm-start the `repair` module wants.
    pub(crate) pot: Vec<i64>,
    /// Tentative distances for the current shortest path.
    pub(crate) dist: Vec<i64>,
    /// Arc over which each node was reached on the current shortest path.
    pub(crate) prev_arc: Vec<usize>,
    /// Binary heap for [`SspVariant::Dijkstra`] (and the Dial fallback).
    pub(crate) heap: BinaryHeap<Reverse<(i64, u32)>>,
    /// Signed per-node imbalance used by the `repair` module (positive =
    /// excess, negative = deficit).
    pub(crate) bal: Vec<i64>,
    /// Dinic-style per-node cursor into the tight-arc adjacency, used by
    /// the repair module's zero-reduced-cost batch augmentation.
    pub(crate) cur: Vec<usize>,
    /// On-current-path markers for the repair DFS.
    pub(crate) on_path: Vec<bool>,
    /// Positions (into `tight`) of the arcs on the repair DFS's path.
    pub(crate) path: Vec<usize>,
    /// Per-node range starts into `tight`: the repair phase's compacted
    /// adjacency of shortest-path candidate arcs, grouped by tail in
    /// settle order.
    pub(crate) tight_lo: Vec<u32>,
    /// Per-node range ends into `tight`.
    pub(crate) tight_hi: Vec<u32>,
    /// CSR positions of the current repair phase's shortest-path
    /// candidate arcs (tight at settle time; the drain re-checks).
    pub(crate) tight: Vec<u32>,
    /// Bucket ring for [`SspVariant::Dial`] and the repair module's
    /// multi-source phase search; index = distance mod span.
    pub(crate) buckets: Vec<Vec<u32>>,
    /// Bucket indices dirtied by the current path, cleared afterwards
    /// (an early exit at the sink leaves unvisited entries behind).
    pub(crate) touched: Vec<u32>,
    /// SPFA work queue.
    queue: VecDeque<u32>,
    /// SPFA in-queue flags.
    in_queue: Vec<bool>,
    /// Potentials snapshotted after the first shortest path of the last
    /// solve — valid for that graph at zero flow, hence likely valid (and
    /// cheap to verify) for the structurally similar next graph.
    warm: Vec<i64>,
    /// Whether `warm` holds a usable snapshot.
    has_warm: bool,
}

impl SspScratch {
    /// Drops the warm-start snapshot (buffers stay allocated).
    pub(crate) fn forget(&mut self) {
        self.has_warm = false;
    }

    /// Fresh scratch carrying only the final potentials, the one piece
    /// of solve state the `repair` module reads.
    pub(crate) fn clone_potentials(&self) -> SspScratch {
        SspScratch {
            pot: self.pot.clone(),
            ..Default::default()
        }
    }
}

/// Successive-shortest-path min-cost flow solver.
#[derive(Clone, Copy, Debug)]
pub struct SspSolver {
    variant: SspVariant,
}

impl SspSolver {
    /// Creates a solver with the given shortest-path engine.
    pub fn new(variant: SspVariant) -> Self {
        SspSolver { variant }
    }

    /// Routes up to `target` units from `source` to `sink` at minimum cost.
    ///
    /// One-shot entry point: allocates fresh scratch state. Callers solving
    /// many instances should hold a [`crate::FlowSolver`] instead, which
    /// retains buffers and warm-starts potentials across solves.
    pub fn solve(
        &self,
        net: &mut FlowNetwork,
        source: NodeId,
        sink: NodeId,
        target: i64,
    ) -> Result<Solution, Infeasible> {
        let mut scratch = SspScratch::default();
        self.solve_with(&mut scratch, net, source, sink, target)
    }

    /// [`solve`](Self::solve) against retained scratch state; reuses its
    /// buffers and warm-starts from its potential snapshot when valid.
    pub(crate) fn solve_with(
        &self,
        s: &mut SspScratch,
        net: &mut FlowNetwork,
        source: NodeId,
        sink: NodeId,
        target: i64,
    ) -> Result<Solution, Infeasible> {
        assert!(target >= 0, "negative flow target");
        assert!(source < net.num_nodes() && sink < net.num_nodes());
        if source == sink || target == 0 {
            return Ok(Solution { flow: 0, cost: 0 });
        }
        net.ensure_csr();
        let n = net.num_nodes();
        s.dist.clear();
        s.dist.resize(n, INF);
        s.prev_arc.clear();
        s.prev_arc.resize(n, usize::MAX);
        if self.variant != SspVariant::Spfa {
            init_potentials(net, s, n, source, self.variant == SspVariant::Dial);
        }

        let mut flow = 0i64;
        let mut cost = 0i64;
        let mut first_path = true;
        // Dial's ring span: measured exactly once (first path), then
        // carried as an upper bound — one fold of sink distance `dt`
        // grows any reduced cost by at most `dt`, so the bound tracks
        // folds in O(1) instead of rescanning all arcs per path. Only
        // when the bound drifts past the limit is it re-measured.
        let mut dial_span: Option<i64> = None;
        while flow < target {
            let reached = match self.variant {
                SspVariant::Spfa => spfa(net, source, sink, s),
                SspVariant::Dijkstra => dijkstra(net, source, sink, s),
                SspVariant::Dial => {
                    let span = match dial_span {
                        Some(bound) if bound < DIAL_SPAN_LIMIT => bound,
                        _ => max_reduced_cost(net, &s.pot),
                    };
                    dial_span = Some(span);
                    if span < DIAL_SPAN_LIMIT {
                        dial(net, source, sink, s, span)
                    } else {
                        dijkstra(net, source, sink, s)
                    }
                }
            };
            if !reached {
                return Err(Infeasible {
                    max_flow: flow,
                    cost,
                });
            }
            if self.variant != SspVariant::Spfa {
                // Fold distances into potentials, capped at the sink's
                // distance `dt` (unreached nodes count as `dt`). The cap
                // keeps reduced costs non-negative even though an early
                // exit leaves far nodes with tentative labels: settled
                // nodes have exact `dist ≤ dt`, every other node's label
                // is ≥ dt, and case analysis on `min(d, dt)` shows every
                // active arc keeps `c + π(u) − π(v) ≥ 0`.
                let dt = s.dist[sink];
                for v in 0..n {
                    s.pot[v] += s.dist[v].min(dt);
                }
                // `min(du, dt) − min(dv, dt) ≤ dt`, so the fold grows any
                // reduced cost by at most `dt`.
                dial_span = dial_span.map(|bound| bound + dt);
                if first_path && self.variant == SspVariant::Dial {
                    // After the first fold the potentials are valid for
                    // *this graph at zero flow* (nothing augmented yet) —
                    // exactly what the next structurally similar solve
                    // wants to warm-start from. Final potentials would
                    // not do: arcs saturated later reappear on rebuild
                    // with negative reduced cost. Only Dial reads the
                    // snapshot back (see `init_potentials`).
                    s.warm.clone_from(&s.pot);
                    s.has_warm = true;
                }
            }
            first_path = false;
            // Bottleneck along the path, capped by the remaining demand.
            let mut bottleneck = target - flow;
            let mut v = sink;
            while v != source {
                let a = s.prev_arc[v];
                bottleneck = bottleneck.min(net.arcs[a].cap);
                v = net.arc_tail(a);
            }
            debug_assert!(bottleneck > 0);
            // Augment.
            let mut v = sink;
            let mut path_cost = 0i64;
            while v != source {
                let a = s.prev_arc[v];
                path_cost += net.arcs[a].cost;
                net.push(a, bottleneck);
                v = net.arc_tail(a);
            }
            flow += bottleneck;
            cost += bottleneck * path_cost;
        }
        Ok(Solution { flow, cost })
    }
}

/// Initializes `s.pot` for a new solve: reuse the warm snapshot when
/// `use_warm` and it still yields non-negative reduced costs on every
/// active arc (one O(m) scan), else zeros when no active arc has
/// negative cost, else one Bellman–Ford pass. The zero check is O(1) in
/// the common case via the network's negative-edge counter and
/// flow-dirty flag.
///
/// Only the Dial variant passes `use_warm`: it converts the warm
/// snapshot's small reduced-cost span into O(1) bucket operations, a
/// measured win at every size. The heap Dijkstra gains nothing — under
/// warm potentials the previous solve's optimal paths form a
/// zero-reduced-cost plateau that costs as many heap operations to
/// explore as the cold cost-ordered region — so for it the revalidation
/// scan and the flatter heap are pure overhead (a measured 2–7%
/// regression on the layered benches before this gate).
fn init_potentials(
    net: &FlowNetwork,
    s: &mut SspScratch,
    n: usize,
    source: NodeId,
    use_warm: bool,
) {
    if use_warm && s.has_warm && s.warm.len() == n && potentials_valid(net, &s.warm) {
        s.pot.clone_from(&s.warm);
        return;
    }
    s.pot.clear();
    s.pot.resize(n, 0);
    if net.maybe_negative_active() && has_active_negative_arc(net) {
        bellman_ford(net, source, s);
    }
}

/// Whether `pot` keeps every active arc's reduced cost non-negative.
pub(crate) fn potentials_valid(net: &FlowNetwork, pot: &[i64]) -> bool {
    (0..net.arcs.len()).all(|a| {
        let arc = &net.arcs[a];
        arc.cap <= 0 || arc.cost + pot[net.arc_tail(a)] - pot[arc.to] >= 0
    })
}

/// Whether any arc with residual capacity has negative cost.
fn has_active_negative_arc(net: &FlowNetwork) -> bool {
    net.arcs.iter().any(|a| a.cap > 0 && a.cost < 0)
}

/// Maximum reduced cost over active arcs — the bucket-ring span Dial needs.
pub(crate) fn max_reduced_cost(net: &FlowNetwork, pot: &[i64]) -> i64 {
    let mut max_rc = 0;
    for a in 0..net.arcs.len() {
        let arc = &net.arcs[a];
        if arc.cap > 0 {
            let rc = arc.cost + pot[net.arc_tail(a)] - pot[arc.to];
            debug_assert!(rc >= 0, "negative reduced cost {rc} on arc {a}");
            max_rc = max_rc.max(rc);
        }
    }
    max_rc
}

/// Queue-based Bellman–Ford from `source`. Returns whether the sink was
/// reached; fills `dist`/`prev_arc`.
pub(crate) fn spfa(net: &FlowNetwork, source: NodeId, sink: NodeId, s: &mut SspScratch) -> bool {
    let SspScratch {
        dist,
        prev_arc,
        queue,
        in_queue,
        ..
    } = s;
    dist.fill(INF);
    prev_arc.fill(usize::MAX);
    dist[source] = 0;
    in_queue.clear();
    in_queue.resize(dist.len(), false);
    queue.clear();
    queue.push_back(source as u32);
    in_queue[source] = true;
    while let Some(u) = queue.pop_front() {
        let u = u as usize;
        in_queue[u] = false;
        let du = dist[u];
        let (lo, hi) = net.out_range(u);
        for i in lo..hi {
            let ca = &net.csr_arcs[i];
            if ca.cap <= 0 {
                continue;
            }
            let to = ca.to as usize;
            let nd = du + ca.cost;
            if nd < dist[to] {
                dist[to] = nd;
                prev_arc[to] = net.csr[i] as usize;
                if !in_queue[to] {
                    in_queue[to] = true;
                    queue.push_back(to as u32);
                }
            }
        }
    }
    dist[sink] < INF
}

/// Heap Dijkstra over reduced costs `c + π(u) − π(v)`, stopping as soon
/// as the sink settles. Returns whether the sink was reached.
fn dijkstra(net: &FlowNetwork, source: NodeId, sink: NodeId, s: &mut SspScratch) -> bool {
    let SspScratch {
        pot,
        dist,
        prev_arc,
        heap,
        ..
    } = s;
    dist.fill(INF);
    prev_arc.fill(usize::MAX);
    dist[source] = 0;
    heap.clear();
    heap.push(Reverse((0i64, source as u32)));
    while let Some(Reverse((d, u))) = heap.pop() {
        let u = u as usize;
        if d > dist[u] {
            continue;
        }
        if u == sink {
            heap.clear();
            return true;
        }
        let (lo, hi) = net.out_range(u);
        let base = d + pot[u];
        for i in lo..hi {
            let ca = &net.csr_arcs[i];
            if ca.cap <= 0 {
                continue;
            }
            let to = ca.to as usize;
            let nd = base + ca.cost - pot[to];
            debug_assert!(nd >= d, "negative reduced cost at CSR position {i}");
            if nd < dist[to] {
                dist[to] = nd;
                prev_arc[to] = net.csr[i] as usize;
                heap.push(Reverse((nd, to as u32)));
            }
        }
    }
    false
}

/// Dial's bucket-queue Dijkstra over reduced costs with span `max_rc`:
/// a ring of `max_rc + 1` FIFO buckets indexed by distance modulo the
/// ring size (every tentative label lives within `max_rc` of the current
/// distance, so residues are unambiguous). Stale entries are skipped via
/// a `dist` equality check; buckets touched by this path are cleared at
/// the end so an early exit cannot leak entries into the next path.
fn dial(net: &FlowNetwork, source: NodeId, sink: NodeId, s: &mut SspScratch, max_rc: i64) -> bool {
    let SspScratch {
        pot,
        dist,
        prev_arc,
        buckets,
        touched,
        ..
    } = s;
    let ring = max_rc as usize + 1;
    if buckets.len() < ring {
        buckets.resize_with(ring, Vec::new);
    }
    dist.fill(INF);
    prev_arc.fill(usize::MAX);
    dist[source] = 0;
    buckets[0].push(source as u32);
    touched.push(0);
    let mut outstanding = 1usize;
    let mut d = 0i64;
    let mut found = false;
    'scan: while outstanding > 0 {
        let idx = (d as usize) % ring;
        while let Some(v) = buckets[idx].pop() {
            outstanding -= 1;
            let v = v as usize;
            if dist[v] != d {
                continue; // stale: improved to a smaller label since insertion
            }
            if v == sink {
                found = true;
                break 'scan;
            }
            let (lo, hi) = net.out_range(v);
            let base = d + pot[v];
            for i in lo..hi {
                let ca = &net.csr_arcs[i];
                if ca.cap <= 0 {
                    continue;
                }
                let to = ca.to as usize;
                let nd = base + ca.cost - pot[to];
                debug_assert!(
                    (d..=d + max_rc).contains(&nd),
                    "reduced cost outside bucket span at CSR position {i}"
                );
                if nd < dist[to] {
                    dist[to] = nd;
                    prev_arc[to] = net.csr[i] as usize;
                    let b = (nd as usize) % ring;
                    buckets[b].push(to as u32);
                    touched.push(b as u32);
                    outstanding += 1;
                }
            }
        }
        d += 1;
    }
    for &b in touched.iter() {
        buckets[b as usize].clear();
    }
    touched.clear();
    found
}

/// One Bellman–Ford sweep to initialize potentials when negative-cost
/// arcs are present. Distances of unreachable nodes stay 0 — safe because
/// they can only become reachable after an augmentation through reachable
/// nodes, which the potential fold keeps consistent.
fn bellman_ford(net: &FlowNetwork, source: NodeId, s: &mut SspScratch) {
    let n = net.num_nodes();
    let dist = &mut s.dist;
    dist.fill(INF);
    dist[source] = 0;
    for _ in 0..n {
        let mut changed = false;
        for u in 0..n {
            if dist[u] >= INF {
                continue;
            }
            for &a in net.out_arcs(u) {
                let arc = &net.arcs[a as usize];
                if arc.cap > 0 && dist[u] + arc.cost < dist[arc.to] {
                    dist[arc.to] = dist[u] + arc.cost;
                    changed = true;
                }
            }
        }
        if !changed {
            break;
        }
    }
    for (p, &d) in s.pot[..n].iter_mut().zip(dist.iter()) {
        *p = if d < INF { d } else { 0 };
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn all() -> [SspSolver; 3] {
        [
            SspSolver::new(SspVariant::Spfa),
            SspSolver::new(SspVariant::Dijkstra),
            SspSolver::new(SspVariant::Dial),
        ]
    }

    #[test]
    fn single_edge() {
        for s in all() {
            let mut net = FlowNetwork::new(2);
            net.add_edge(0, 1, 10, 5);
            let sol = s.solve(&mut net, 0, 1, 7).unwrap();
            assert_eq!(sol, Solution { flow: 7, cost: 35 });
        }
    }

    #[test]
    fn prefers_cheap_path_then_spills() {
        for s in all() {
            let mut net = FlowNetwork::new(4);
            net.add_edge(0, 1, 4, 1);
            net.add_edge(1, 3, 4, 1);
            net.add_edge(0, 2, 10, 10);
            net.add_edge(2, 3, 10, 10);
            let sol = s.solve(&mut net, 0, 3, 6).unwrap();
            assert_eq!(sol.flow, 6);
            assert_eq!(sol.cost, 4 * 2 + 2 * 20);
        }
    }

    #[test]
    fn uses_residual_rerouting() {
        // Classic example where optimality requires pushing flow back.
        // 0→1 cap1 cost1, 0→2 cap1 cost2, 1→2 cap1 cost0(!), 1→3 cap1 cost2,
        // 2→3 cap1 cost1. Max flow 2 with min cost uses rerouting.
        for s in all() {
            let mut net = FlowNetwork::new(4);
            net.add_edge(0, 1, 1, 1);
            net.add_edge(0, 2, 1, 2);
            net.add_edge(1, 2, 1, 0);
            net.add_edge(1, 3, 1, 2);
            net.add_edge(2, 3, 1, 1);
            let sol = s.solve(&mut net, 0, 3, 2).unwrap();
            assert_eq!(sol.flow, 2);
            assert_eq!(sol.cost, (1 + 1) + (2 + 2));
        }
    }

    #[test]
    fn infeasible_leaves_max_flow_installed() {
        for s in all() {
            let mut net = FlowNetwork::new(3);
            let a = net.add_edge(0, 1, 3, 1);
            let b = net.add_edge(1, 2, 2, 1);
            let err = s.solve(&mut net, 0, 2, 5).unwrap_err();
            assert_eq!(err.max_flow, 2);
            assert_eq!(err.cost, 4);
            assert_eq!(net.flow_on(a), 2);
            assert_eq!(net.flow_on(b), 2);
        }
    }

    #[test]
    fn disconnected_sink_is_zero_feasible_only() {
        for s in all() {
            let mut net = FlowNetwork::new(3);
            net.add_edge(0, 1, 5, 1);
            let err = s.solve(&mut net, 0, 2, 1).unwrap_err();
            assert_eq!(err.max_flow, 0);
            let sol = s.solve(&mut net, 0, 2, 0).unwrap();
            assert_eq!(sol.flow, 0);
        }
    }

    #[test]
    fn source_equals_sink() {
        for s in all() {
            let mut net = FlowNetwork::new(2);
            net.add_edge(0, 1, 5, 1);
            let sol = s.solve(&mut net, 0, 0, 100).unwrap();
            assert_eq!(sol, Solution { flow: 0, cost: 0 });
        }
    }

    #[test]
    fn negative_cost_edges_handled() {
        // A negative-cost arc on the cheap route; the potential variants
        // need the Bellman–Ford seeding for this.
        for s in all() {
            let mut net = FlowNetwork::new(4);
            net.add_edge(0, 1, 5, -2);
            net.add_edge(1, 3, 5, 1);
            net.add_edge(0, 2, 5, 1);
            net.add_edge(2, 3, 5, 1);
            let sol = s.solve(&mut net, 0, 3, 8).unwrap();
            assert_eq!(sol.flow, 8);
            assert_eq!(sol.cost, -5 + 3 * 2);
        }
    }

    #[test]
    fn variants_agree_on_layered_graph() {
        // A composition-shaped layered graph: 2 layers × 3 hosts.
        let build = || {
            let mut net = FlowNetwork::new(8);
            // 0 source, 1..=3 layer A, 4..=6 layer B, 7 sink.
            let caps = [30, 20, 10];
            let costs = [5, 2, 9];
            #[allow(clippy::needless_range_loop)] // i and j index two arrays
            for i in 0..3 {
                net.add_edge(0, 1 + i, caps[i], costs[i]);
                for j in 0..3 {
                    net.add_edge(1 + i, 4 + j, caps[j].min(caps[i]), costs[j] + 1);
                }
                net.add_edge(4 + i, 7, caps[i], 0);
            }
            net
        };
        let mut reference = build();
        let want = SspSolver::new(SspVariant::Spfa)
            .solve(&mut reference, 0, 7, 45)
            .unwrap();
        assert_eq!(want.flow, 45);
        for s in all() {
            let mut net = build();
            assert_eq!(s.solve(&mut net, 0, 7, 45).unwrap(), want);
        }
    }

    #[test]
    fn warm_start_across_arena_resets_matches_fresh() {
        // Solve a sequence of perturbed graphs on one retained scratch;
        // results must be identical to one-shot solves, and the second
        // solve must accept the warm snapshot (identical graph).
        for variant in [SspVariant::Dijkstra, SspVariant::Dial] {
            let solver = SspSolver::new(variant);
            let mut scratch = SspScratch::default();
            let mut arena = FlowNetwork::new(0);
            for round in 0..6i64 {
                let build = |net: &mut FlowNetwork| {
                    net.add_edge(0, 1, 10 + round, 3 + round);
                    net.add_edge(1, 3, 10 + round, 1);
                    net.add_edge(0, 2, 10, 4);
                    net.add_edge(2, 3, 10, 2 + (round % 2));
                };
                arena.reset(4);
                build(&mut arena);
                let warm = solver
                    .solve_with(&mut scratch, &mut arena, 0, 3, 14)
                    .unwrap();
                let mut fresh_net = FlowNetwork::new(4);
                build(&mut fresh_net);
                let fresh = solver.solve(&mut fresh_net, 0, 3, 14).unwrap();
                assert_eq!(warm, fresh, "{variant:?} round {round}");
            }
        }
    }

    #[test]
    fn dial_falls_back_to_heap_on_wide_span() {
        let mut net = FlowNetwork::new(3);
        net.add_edge(0, 1, 5, DIAL_SPAN_LIMIT * 4);
        net.add_edge(1, 2, 5, 7);
        let sol = SspSolver::new(SspVariant::Dial)
            .solve(&mut net, 0, 2, 5)
            .unwrap();
        assert_eq!(sol.flow, 5);
        assert_eq!(sol.cost, 5 * (DIAL_SPAN_LIMIT * 4 + 7));
    }

    #[test]
    fn dial_handles_zero_cost_graph() {
        let mut net = FlowNetwork::new(3);
        net.add_edge(0, 1, 5, 0);
        net.add_edge(1, 2, 5, 0);
        let sol = SspSolver::new(SspVariant::Dial)
            .solve(&mut net, 0, 2, 4)
            .unwrap();
        assert_eq!(sol, Solution { flow: 4, cost: 0 });
    }
}
