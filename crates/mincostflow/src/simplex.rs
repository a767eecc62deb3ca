//! Network simplex for min-cost flow, the classical primal simplex
//! method specialised to spanning-tree bases (Dantzig; the implementation
//! follows the structure popularised by LEMON's `NetworkSimplex`).
//!
//! The successive-shortest-path solvers pay one Dijkstra — `O(m log n)`
//! or a bucket sweep — per augmenting path, and composition-shaped
//! layered graphs need hundreds of paths. Network simplex replaces the
//! per-path search with spanning-tree pivots whose cost is the tree
//! depth plus a bounded candidate scan, which is why it dominates
//! augmenting-path algorithms on dense-ish instances in practice.
//!
//! The flow-value problem is reduced to a min-cost *circulation* with a
//! `sink → source` super-arc whose negative cost dominates every routing
//! cost, so maximizing super-arc flow is always worth it. The simplex
//! itself runs on the residual representation:
//!
//! * A **basis** is a spanning tree of the graph plus an artificial
//!   root; every non-tree residual arc is implicitly at a bound (its
//!   residual capacity says which). Node potentials `π` make every tree
//!   arc's reduced cost zero.
//! * A residual arc with positive capacity and negative reduced cost is
//!   a profitable **entering arc**; pushing along it and back through
//!   the tree path between its endpoints is a cycle whose bottleneck
//!   determines the **leaving arc**. Pivots are selected with a
//!   candidate-list rule: a major sweep collects `≈√m` profitable arcs,
//!   then minor iterations re-price only that list and pivot on its
//!   most negative member until it runs dry — one `O(m)` sweep
//!   amortized over many pivots.
//! * Degenerate pivots (bottleneck zero) are unavoidable — the initial
//!   all-artificial basis is entirely degenerate — and are kept finite
//!   by Cunningham's strongly-feasible-basis tie-break: the leaving arc
//!   is the blocking arc *closest to the entering arc's tail* on the
//!   tail-side path, but *closest to the join* on the head-side path.
//!   Bases mutated by a repair are not guaranteed strongly feasible, so
//!   a guard counts consecutive degenerate pivots and switches to
//!   Bland's rule (first profitable arc enters, lowest-id blocking arc
//!   leaves) when a run exceeds a bound no legitimate sequence reaches;
//!   a non-degenerate pivot strictly improves the objective and resets
//!   the guard, so the pivot count stays finite.
//! * When no entering arc exists, every real residual arc has `rc ≥ 0`,
//!   so no negative residual cycle exists and the circulation is
//!   optimal ([`crate::validate`]'s certificate).
//!
//! # Retained bases and warm repair
//!
//! Everything the simplex learns lives in a [`SimplexBasis`]: tree
//! indices, potentials, and an **extra-arc table** holding the arcs
//! that are scaffolding rather than network (root artificials, the
//! super-arc, and repair slack arcs). The network itself is never
//! structurally modified — a solve installs flows and nothing else —
//! so the basis stays id-stable across adaptation events and a caller
//! that keeps it next to its network can repair instead of re-solving:
//!
//! * **Arc deletion / capacity cut** installs a *slack arc* parallel to
//!   the damaged edge carrying exactly the drained flow at a big-M cost
//!   (`M` exceeds the sum of every user cost plus the super-arc's
//!   magnitude). Conservation holds immediately, the basis stays
//!   dual-feasible except at the freshly profitable slack reversal, and
//!   re-pivoting drains every slack unit at the optimum: cancelling a
//!   slack unit either re-routes it (a real residual path exists) or
//!   returns it through the super-arc's reverse residual (always
//!   available — it is the reverse of the flow's own feed paths), and
//!   `M` dominates both. The optimum is therefore exactly the cold
//!   min-cost max-flow of the damaged network; any value lost is
//!   reported as a shortfall.
//! * **Rate increase** raises the super-arc capacity, whose forward
//!   residual becomes the entering arc; **rate decrease** moves the
//!   delta onto a slack arc parallel to the super-arc and pins the
//!   super capacity, so draining the slack cancels the most expensive
//!   routed paths first.
//! * **Re-pricing** an edge shifts the potentials of the subtree below
//!   it (when a residual of the edge is a tree arc; non-tree arcs need
//!   no dual change at all) and re-pivots any arcs the new costs made
//!   profitable. The flow value stays pinned because the super-arc
//!   still dominates — checked against the post-change cost mass, with
//!   the basis invalidating itself when the headroom is gone.
//!
//! Artificial root arcs (node ↔ root) start the tree but never carry
//! flow: the circulation has zero supplies, so every cycle through the
//! root crosses an artificial *down*-arc whose residual capacity is the
//! (zero) artificial flow, making the cycle's bottleneck zero. That
//! keeps them flow-free forever by induction, which in turn means they
//! can cost zero and be excluded from the entering-arc scan without
//! affecting the final — artificial-free — optimum: optimality only
//! needs `rc ≥ 0` on *real* residual arcs, since negative residual
//! cycles of the real network contain no artificial arc.

use crate::network::{EdgeId, FlowNetwork, NodeId};
use crate::repair::{RepairOutcome, RepairTier};
use crate::{Infeasible, Solution};

const INF: i64 = i64::MAX / 4;
const NONE: u32 = u32::MAX;

/// Network simplex min-cost flow solver.
#[derive(Clone, Copy, Debug, Default)]
pub struct NetworkSimplex;

impl NetworkSimplex {
    /// Routes up to `target` units from `source` to `sink` at minimum
    /// cost. Same contract as [`crate::SspSolver::solve`].
    pub fn solve(
        &self,
        net: &mut FlowNetwork,
        source: NodeId,
        sink: NodeId,
        target: i64,
    ) -> Result<Solution, Infeasible> {
        let mut basis = SimplexBasis::default();
        self.solve_with(&mut basis, net, source, sink, target)
    }

    /// [`solve`](Self::solve), retaining the final spanning-tree basis
    /// in `basis` so later adaptation events on the *same network* can
    /// be repaired by warm re-pivoting (see [`SimplexBasis`]) instead
    /// of a cold re-solve.
    pub fn solve_with(
        &self,
        basis: &mut SimplexBasis,
        net: &mut FlowNetwork,
        source: NodeId,
        sink: NodeId,
        target: i64,
    ) -> Result<Solution, Infeasible> {
        assert!(target >= 0, "negative flow target");
        assert!(source < net.num_nodes() && sink < net.num_nodes());
        if source == sink || target == 0 {
            basis.valid = false;
            return Ok(Solution { flow: 0, cost: 0 });
        }
        // Super-arc cost: strictly below minus the most expensive simple
        // path, so maximizing super-arc flow dominates all routing
        // costs. Doubling the classic `Σ|cost| + 1` bound leaves
        // headroom for moderate re-pricing on the repair path without
        // changing the optimum (any dominating cost yields the same
        // min-cost max-flow).
        let cost_mag: i64 = net.edges().map(|e| net.cost(e).abs()).sum::<i64>().max(1);
        basis.attach(net, source, sink, target, -(2 * cost_mag + 1));
        basis.run(net);
        basis.flow = basis.extra_cap[2 * basis.n + 1];
        basis.valid = true;
        let flow = basis.flow;
        let cost = net.total_cost();
        if flow == target {
            Ok(Solution { flow, cost })
        } else {
            Err(Infeasible {
                max_flow: flow,
                cost,
            })
        }
    }
}

/// A retained spanning-tree simplex basis: the warm-repair state left
/// behind by [`NetworkSimplex::solve_with`].
///
/// Node `n` is the artificial root; arc ids `< 2m` are the network's
/// residual arcs, ids `≥ 2m` index the extra-arc table (root
/// artificials first, then the super-arc pair, then any repair slack
/// pairs), preserving `rev(a) == a ^ 1` globally. The network is never
/// structurally modified, so a basis stays attached to its network
/// across arbitrarily many repair events; every repair method first
/// checks that the network still matches the attachment (`valid` flag,
/// arc and node counts) and returns `None` — touching nothing — when
/// it does not, letting the caller fall back to a colder tier.
#[derive(Clone, Debug, Default)]
pub struct SimplexBasis {
    /// Whether the basis reflects a completed solve of `net`.
    valid: bool,
    /// Node count of the attached network (the root is node `n`).
    n: usize,
    /// Residual arc count of the attached network.
    m2: usize,
    source: usize,
    sink: usize,
    /// Current super-arc capacity (the requested flow value).
    target: i64,
    /// Flow value currently installed (super-arc flow).
    flow: i64,
    /// Super-arc cost (negative; dominates every routing cost).
    super_cost: i64,
    /// Parent of each node in the spanning tree (root's is `NONE`).
    parent: Vec<u32>,
    /// Residual arc id directed `v → parent[v]` (root's is `NONE`).
    pred: Vec<u32>,
    /// Depth from the root, for cycle (LCA) walks.
    depth: Vec<u32>,
    /// Node potentials; tree arcs have zero reduced cost.
    pub(crate) pi: Vec<i64>,
    /// Tree children as intrusive sibling lists (`child_head[p]` starts
    /// the chain, `next_sib`/`prev_sib` link it): O(1) detach and a
    /// memcpy-cheap clone, both of which matter for retained bases.
    child_head: Vec<u32>,
    next_sib: Vec<u32>,
    prev_sib: Vec<u32>,
    /// Tail node of each real residual arc.
    tails: Vec<u32>,
    /// Extra-arc table: residual capacity, cost, head, and tail per
    /// extra arc, in mirrored pairs. Layout: `[0, 2n)` root
    /// artificials (excluded from the entering scan), `[2n, 2n+2)` the
    /// super-arc pair, `[2n+2, ..)` repair slack pairs.
    extra_cap: Vec<i64>,
    extra_cost: Vec<i64>,
    extra_to: Vec<u32>,
    extra_tail: Vec<u32>,
    /// Entering-arc search state: the position where the next major
    /// sweep resumes, and the retained candidate list it refills
    /// (profitable arc ids; minor iterations re-price the list instead
    /// of rescanning the arc space).
    next_arc: usize,
    candidates: Vec<u32>,
    /// Pivots performed by the last `run` (reported as
    /// [`RepairOutcome::phases`]).
    pivots: u32,
    /// Test hook: keep Bland's rule engaged on every pivot.
    force_bland: bool,
    /// Cost accumulated by pushes on real arcs during the last repair.
    cost_acc: i64,
    /// Scratch for subtree traversal, path reversal, and cycle pushes.
    stack: Vec<u32>,
    path: Vec<(u32, u32)>,
    cycle: Vec<u32>,
    /// Per-cycle-arc leaving-candidate metadata `(node, side)` aligned
    /// with `cycle`, for Bland-mode leaving-arc selection.
    meta: Vec<(u32, u8)>,
}

impl SimplexBasis {
    /// Whether the basis reflects a completed solve and can attempt
    /// warm repairs.
    pub fn is_valid(&self) -> bool {
        self.valid
    }

    /// Marks the basis stale. Required whenever the attached network's
    /// flows are changed by anything other than this basis's own
    /// methods (e.g. a phased-repair fallback ran on the same network).
    pub fn invalidate(&mut self) {
        self.valid = false;
    }

    /// The node potentials certifying the last solve/repair, for
    /// [`crate::validate::check_certificate`]: every real residual arc
    /// has non-negative reduced cost under them at a simplex optimum.
    /// `None` when the basis is stale.
    pub fn potentials(&self) -> Option<&[i64]> {
        if self.valid {
            Some(&self.pi[..self.n])
        } else {
            None
        }
    }

    /// Test hook: run every pivot under Bland's rule instead of only
    /// engaging it when the degeneracy guard trips.
    #[doc(hidden)]
    pub fn set_force_bland(&mut self, on: bool) {
        self.force_bland = on;
    }

    /// Whether the basis is attached to this exact network shape. The
    /// arc/node counts catch rebuilt or extended networks; flow-level
    /// divergence is the caller's contract (see [`invalidate`](Self::invalidate)).
    fn compatible(&self, net: &FlowNetwork) -> bool {
        self.valid && net.arcs.len() == self.m2 && net.num_nodes() == self.n
    }

    /// Disables every edge in `dead` and re-routes the drained flow by
    /// warm re-pivoting: each drained edge gets a big-M slack arc
    /// carrying its flow, and the re-pivots drain every slack unit (see
    /// the module docs for why that is guaranteed), leaving exactly the
    /// cold min-cost max-flow of the damaged network. Returns `None` —
    /// without touching the network — when the basis is stale or
    /// attached to a different network.
    pub fn repair_deletions(
        &mut self,
        net: &mut FlowNetwork,
        dead: &[EdgeId],
    ) -> Option<RepairOutcome> {
        if !self.compatible(net) {
            return None;
        }
        self.cost_acc = 0;
        self.pivots = 0;
        let old_flow = self.flow;
        let mut drained_total = 0i64;
        for &e in dead {
            let (u, v) = net.endpoints(e);
            let cost = net.cost(e);
            let f = net.disable_edge(e);
            if f > 0 {
                drained_total += f;
                self.cost_acc -= f * cost;
                self.install_slack(u as u32, v as u32, f);
            }
        }
        self.run(net);
        self.finish_drain(old_flow, drained_total)
    }

    /// Cuts edge `e`'s capacity to `new_cap` (which must not exceed the
    /// current capacity) and re-routes any flow above the new bound,
    /// exactly like [`repair_deletions`](Self::repair_deletions) with a
    /// partial drain. Returns `None` — without touching the network —
    /// when the basis cannot serve the repair.
    pub fn cut_capacity(
        &mut self,
        net: &mut FlowNetwork,
        e: EdgeId,
        new_cap: i64,
    ) -> Option<RepairOutcome> {
        if !self.compatible(net) {
            return None;
        }
        self.cost_acc = 0;
        self.pivots = 0;
        let old_flow = self.flow;
        let (u, v) = net.endpoints(e);
        let cost = net.cost(e);
        let drained = net.reduce_capacity(e, new_cap);
        if drained > 0 {
            self.cost_acc -= drained * cost;
            self.install_slack(u as u32, v as u32, drained);
        }
        self.run(net);
        self.finish_drain(old_flow, drained)
    }

    /// Raises the installed `source → sink` flow by `delta` at minimum
    /// added cost by lifting the super-arc capacity and re-pivoting.
    /// Units that no longer fit are reported as a shortfall. Returns
    /// `None` when the basis cannot serve the repair.
    pub fn increase_flow(
        &mut self,
        net: &mut FlowNetwork,
        source: NodeId,
        sink: NodeId,
        delta: i64,
    ) -> Option<RepairOutcome> {
        if !self.compatible(net) || source != self.source || sink != self.sink || delta < 0 {
            return None;
        }
        self.cost_acc = 0;
        self.pivots = 0;
        let old_flow = self.flow;
        self.target += delta;
        self.extra_cap[2 * self.n] += delta;
        self.run(net);
        let new_flow = self.extra_cap[2 * self.n + 1];
        self.flow = new_flow;
        let routed = new_flow - old_flow;
        Some(self.outcome(routed, delta - routed))
    }

    /// Lowers the installed `source → sink` flow by `delta`, cancelling
    /// the most expensive routed paths first: the delta moves from the
    /// super-arc onto a parallel big-M slack whose drainage runs
    /// backwards through the flow's own residuals (always possible, so
    /// the repair never falls short). Returns `None` when the basis
    /// cannot serve the repair or `delta` exceeds the installed value.
    pub fn decrease_flow(
        &mut self,
        net: &mut FlowNetwork,
        source: NodeId,
        sink: NodeId,
        delta: i64,
    ) -> Option<RepairOutcome> {
        if !self.compatible(net)
            || source != self.source
            || sink != self.sink
            || delta < 0
            || delta > self.flow
        {
            return None;
        }
        if delta == 0 {
            self.cost_acc = 0;
            self.pivots = 0;
            return Some(self.outcome(0, 0));
        }
        self.cost_acc = 0;
        self.pivots = 0;
        let old_flow = self.flow;
        let s2 = 2 * self.n;
        // Move `delta` units of the super-arc's return flow onto the
        // slack (same endpoints, same direction — conservation holds)
        // and pin the super capacity at the lower value so the drain
        // cannot restore it.
        self.extra_cap[s2 + 1] -= delta;
        self.extra_cap[s2] = 0;
        self.target = old_flow - delta;
        self.install_slack(self.sink as u32, self.source as u32, delta);
        self.run(net);
        self.finish_drain(old_flow - delta, delta)
    }

    /// Repairs after edge `e` was re-priced via
    /// [`FlowNetwork::set_cost`] (the caller applies the price change
    /// first; `old_cost` is the price before it). The dual update is
    /// localized: only when a residual of `e` is a tree arc does any
    /// potential move, and then only the subtree below it shifts.
    /// Re-pivoting restores optimality at the *pinned* flow value —
    /// the super-arc still dominates every user cost, which is checked
    /// against the post-change cost mass; when that headroom is gone
    /// the basis invalidates itself and returns `None`, and the caller
    /// must re-solve cold.
    pub fn reprice(
        &mut self,
        net: &mut FlowNetwork,
        e: EdgeId,
        old_cost: i64,
    ) -> Option<RepairOutcome> {
        if !self.compatible(net) {
            return None;
        }
        let span: i64 = net.edges().map(|x| net.cost(x).abs()).sum();
        if span >= -self.super_cost {
            self.valid = false;
            return None;
        }
        self.cost_acc = net.flow_on(e) * (net.cost(e) - old_cost);
        self.pivots = 0;
        let (u, v) = net.endpoints(e);
        let fwd = (e.0 * 2) as u32;
        let sub_root = if self.pred[u] == fwd {
            Some(u as u32)
        } else if self.pred[v] == fwd ^ 1 {
            Some(v as u32)
        } else {
            None
        };
        if let Some(w) = sub_root {
            let a = self.pred[w as usize];
            let want = self.pi[self.parent[w as usize] as usize] - self.cost_of(net, a);
            let shift = want - self.pi[w as usize];
            if shift != 0 {
                self.stack.clear();
                self.stack.push(w);
                while let Some(x) = self.stack.pop() {
                    self.pi[x as usize] += shift;
                    let mut c = self.child_head[x as usize];
                    while c != NONE {
                        self.stack.push(c);
                        c = self.next_sib[c as usize];
                    }
                }
            }
        }
        self.run(net);
        debug_assert_eq!(
            self.extra_cap[2 * self.n + 1],
            self.flow,
            "reprice moved the flow value"
        );
        Some(self.outcome(0, 0))
    }

    /// Rebuilds the basis for a fresh solve of `net`.
    fn attach(
        &mut self,
        net: &mut FlowNetwork,
        source: NodeId,
        sink: NodeId,
        target: i64,
        super_cost: i64,
    ) {
        let n = net.num_nodes();
        let root = n as u32;
        let m2 = net.arcs.len();
        self.valid = false;
        self.n = n;
        self.m2 = m2;
        self.source = source;
        self.sink = sink;
        self.target = target;
        self.flow = 0;
        self.super_cost = super_cost;
        self.tails.clear();
        self.tails.extend((0..m2).map(|a| net.arc_tail(a) as u32));
        self.parent.clear();
        self.parent.resize(n + 1, root);
        self.parent[n] = NONE;
        self.pred.clear();
        self.pred.extend((0..n as u32).map(|v| m2 as u32 + 2 * v));
        self.pred.push(NONE);
        self.depth.clear();
        self.depth.resize(n + 1, 1);
        self.depth[n] = 0;
        // Artificial arcs cost zero, so all-zero potentials satisfy the
        // tree invariant and real arcs start at their plain reduced
        // costs. Zero cost is safe because artificial arcs never carry
        // flow (see the module docs) — they are scaffolding only.
        self.pi.clear();
        self.pi.resize(n + 1, 0);
        self.child_head.clear();
        self.child_head.resize(n + 1, NONE);
        self.next_sib.clear();
        self.next_sib.resize(n + 1, NONE);
        self.prev_sib.clear();
        self.prev_sib.resize(n + 1, NONE);
        for v in (0..n as u32).rev() {
            self.attach_child(root, v);
        }
        self.extra_cap.clear();
        self.extra_cost.clear();
        self.extra_to.clear();
        self.extra_tail.clear();
        for v in 0..n as u32 {
            self.push_extra(v, root, INF, 0); // v → root up / root → v down
        }
        self.push_extra(sink as u32, source as u32, target, super_cost);
        self.next_arc = 0;
        self.candidates.clear();
        self.pivots = 0;
        self.cost_acc = 0;
    }

    /// Appends a mirrored extra-arc pair; returns the forward index.
    fn push_extra(&mut self, tail: u32, to: u32, cap: i64, cost: i64) -> usize {
        let k = self.extra_cap.len();
        self.extra_cap.push(cap);
        self.extra_cost.push(cost);
        self.extra_tail.push(tail);
        self.extra_to.push(to);
        self.extra_cap.push(0);
        self.extra_cost.push(-cost);
        self.extra_tail.push(to);
        self.extra_to.push(tail);
        k
    }

    /// Installs a slack arc `tail → to` carrying `amount` units at the
    /// dominating big-M cost: the pseudo-flow stays conserved and every
    /// slack unit is worth draining at the optimum.
    fn install_slack(&mut self, tail: u32, to: u32, amount: i64) {
        let m = -2 * self.super_cost + 1;
        let k = self.push_extra(tail, to, 0, m);
        self.extra_cap[k + 1] = amount;
        // The reverse arc (draining the slack at reward M) is profitable
        // by construction; seeding it spares the first major sweep. The
        // list is empty whenever the basis is optimal, so no duplicates.
        self.candidates.push((self.m2 + k + 1) as u32);
    }

    /// Post-drain bookkeeping shared by the slack-based repairs:
    /// retires the slack capacity (its flow is provably drained),
    /// refreshes the installed value, and converts any lost value into
    /// the shortfall of an outcome routing `imbalance` units.
    fn finish_drain(&mut self, expected_flow: i64, imbalance: i64) -> Option<RepairOutcome> {
        let base = 2 * self.n + 2;
        let mut k = base;
        while k < self.extra_cap.len() {
            debug_assert_eq!(self.extra_cap[k + 1], 0, "slack arc not fully drained");
            self.extra_cap[k] = 0;
            k += 2;
        }
        let new_flow = self.extra_cap[2 * self.n + 1];
        self.flow = new_flow;
        let shortfall = expected_flow - new_flow;
        Some(self.outcome(imbalance - shortfall, shortfall))
    }

    fn outcome(&self, routed: i64, shortfall: i64) -> RepairOutcome {
        RepairOutcome {
            routed,
            shortfall,
            cost_delta: self.cost_acc,
            warm: true,
            phases: self.pivots,
            tier: RepairTier::WarmBasis,
        }
    }

    #[inline]
    fn res_cap(&self, net: &FlowNetwork, a: u32) -> i64 {
        let a = a as usize;
        if a < self.m2 {
            net.arcs[a].cap
        } else {
            self.extra_cap[a - self.m2]
        }
    }

    #[inline]
    fn cost_of(&self, net: &FlowNetwork, a: u32) -> i64 {
        let a = a as usize;
        if a < self.m2 {
            net.arcs[a].cost
        } else {
            self.extra_cost[a - self.m2]
        }
    }

    #[inline]
    fn tail_of(&self, a: u32) -> u32 {
        let a = a as usize;
        if a < self.m2 {
            self.tails[a]
        } else {
            self.extra_tail[a - self.m2]
        }
    }

    #[inline]
    fn head_of(&self, net: &FlowNetwork, a: u32) -> u32 {
        let a = a as usize;
        if a < self.m2 {
            net.arcs[a].to as u32
        } else {
            self.extra_to[a - self.m2]
        }
    }

    #[inline]
    fn push(&mut self, net: &mut FlowNetwork, a: u32, amount: i64) {
        let a = a as usize;
        if a < self.m2 {
            self.cost_acc += amount * net.arcs[a].cost;
            net.push_unmirrored(a, amount);
        } else {
            let k = a - self.m2;
            self.extra_cap[k] -= amount;
            self.extra_cap[k ^ 1] += amount;
        }
    }

    #[inline]
    fn attach_child(&mut self, p: u32, w: u32) {
        let h = self.child_head[p as usize];
        self.next_sib[w as usize] = h;
        self.prev_sib[w as usize] = NONE;
        if h != NONE {
            self.prev_sib[h as usize] = w;
        }
        self.child_head[p as usize] = w;
    }

    #[inline]
    fn detach_child(&mut self, p: u32, w: u32) {
        let prev = self.prev_sib[w as usize];
        let next = self.next_sib[w as usize];
        if prev == NONE {
            self.child_head[p as usize] = next;
        } else {
            self.next_sib[prev as usize] = next;
        }
        if next != NONE {
            self.prev_sib[next as usize] = prev;
        }
    }

    /// Pivots to optimality. Degenerate-run guard: Cunningham's
    /// tie-break bounds degenerate sequences only for strongly feasible
    /// bases, which repair mutations do not preserve, so a run of
    /// consecutive zero-length pivots past `2(n + m) + 16` — far beyond
    /// anything a strongly feasible basis produces — flips the pivot
    /// rule to Bland's, whose anti-cycling guarantee needs no
    /// feasibility structure. The first non-degenerate pivot strictly
    /// improves the objective and hands control back to block search.
    fn run(&mut self, net: &mut FlowNetwork) {
        let threshold = (2 * (self.n + self.m2) + 16) as u32;
        let mut degen_run = 0u32;
        let mut bland = self.force_bland;
        loop {
            let e = if bland {
                self.find_entering_bland(net)
            } else {
                self.find_entering(net)
            };
            let Some(e) = e else { break };
            let degenerate = self.pivot(net, e, bland);
            self.pivots = self.pivots.saturating_add(1);
            if degenerate {
                degen_run += 1;
                if degen_run >= threshold {
                    bland = true;
                }
            } else {
                degen_run = 0;
                bland = self.force_bland;
            }
        }
    }

    /// Candidate-list pivot rule. A *major* sweep scans the real
    /// residual arcs and the scannable extras (super-arc and slack
    /// pairs; root artificials are skipped by construction) in position
    /// order from where the last sweep stopped, wrapping around, and
    /// collects up to `≈√m` profitable arcs into the retained list.
    /// *Minor* iterations then only re-price the list — evicting arcs
    /// whose reduced cost went non-negative or that saturated — and
    /// return its most negative member, so one `O(m)` sweep is
    /// amortized over many pivots. That amortization is what keeps a
    /// warm repair (a handful of localized pivots) from paying a full
    /// arc-space scan per pivot. `None` when the list is empty and a
    /// full sweep collects nothing: optimality.
    fn find_entering(&mut self, net: &FlowNetwork) -> Option<u32> {
        // Minor iteration: re-price the retained candidates.
        let mut best: Option<u32> = None;
        let mut best_rc = 0i64;
        let mut i = 0;
        while i < self.candidates.len() {
            let a = self.candidates[i];
            let rc = self.cost_of(net, a) + self.pi[self.tail_of(a) as usize]
                - self.pi[self.head_of(net, a) as usize];
            if rc < 0 && self.res_cap(net, a) > 0 {
                if rc < best_rc {
                    best_rc = rc;
                    best = Some(a);
                }
                i += 1;
            } else {
                self.candidates.swap_remove(i);
            }
        }
        if best.is_some() {
            return best;
        }
        // Major sweep: the list went dry (so it holds no duplicates
        // when refilled here). The circular scan is unrolled into
        // contiguous segments — net arcs, then extras — so the hot
        // pricing loops carry no per-arc branch or wrap check.
        let m2 = self.m2;
        let extra_base = 2 * self.n;
        let scan_len = m2 + self.extra_cap.len() - extra_base;
        let fill = (scan_len as f64).sqrt() as usize / 2 + 8;
        let mut scanned = 0usize;
        let mut p = if self.next_arc < scan_len {
            self.next_arc
        } else {
            0
        };
        'sweep: while scanned < scan_len {
            let seg_end = if p < m2 { m2 } else { scan_len };
            let end = seg_end.min(p + (scan_len - scanned));
            if p < m2 {
                for q in p..end {
                    let arc = &net.arcs[q];
                    if arc.cap > 0 {
                        let rc = arc.cost + self.pi[self.tails[q] as usize] - self.pi[arc.to];
                        if rc < 0 {
                            self.candidates.push(q as u32);
                            if rc < best_rc {
                                best_rc = rc;
                                best = Some(q as u32);
                            }
                            if self.candidates.len() >= fill {
                                p = q + 1;
                                break 'sweep;
                            }
                        }
                    }
                }
            } else {
                for q in p..end {
                    let k = q - m2 + extra_base;
                    if self.extra_cap[k] > 0 {
                        let rc = self.extra_cost[k] + self.pi[self.extra_tail[k] as usize]
                            - self.pi[self.extra_to[k] as usize];
                        if rc < 0 {
                            let a = (m2 + k) as u32;
                            self.candidates.push(a);
                            if rc < best_rc {
                                best_rc = rc;
                                best = Some(a);
                            }
                            if self.candidates.len() >= fill {
                                p = q + 1;
                                break 'sweep;
                            }
                        }
                    }
                }
            }
            scanned += end - p;
            p = if end == scan_len { 0 } else { end };
        }
        self.next_arc = if p >= scan_len { 0 } else { p };
        best
    }

    /// Bland's entering rule: the first profitable arc in fixed
    /// position order. Together with lowest-id leaving selection this
    /// cannot cycle, at the price of slower convergence — it only runs
    /// while the degeneracy guard is tripped.
    fn find_entering_bland(&mut self, net: &FlowNetwork) -> Option<u32> {
        let m2 = self.m2;
        let extra_base = 2 * self.n;
        let scan_len = m2 + self.extra_cap.len() - extra_base;
        for p in 0..scan_len {
            let (a, cap, cost, tail, to);
            if p < m2 {
                let arc = &net.arcs[p];
                a = p;
                cap = arc.cap;
                cost = arc.cost;
                tail = self.tails[p] as usize;
                to = arc.to;
            } else {
                let k = p - m2 + extra_base;
                a = m2 + k;
                cap = self.extra_cap[k];
                cost = self.extra_cost[k];
                tail = self.extra_tail[k] as usize;
                to = self.extra_to[k] as usize;
            }
            if cap > 0 && cost + self.pi[tail] - self.pi[to] < 0 {
                return Some(a as u32);
            }
        }
        None
    }

    /// One simplex pivot on entering residual arc `e` (pushed along its
    /// direction): find the tree cycle, augment by its bottleneck, and
    /// re-hang the basis if a tree arc leaves. Returns whether the
    /// pivot was degenerate (zero-length push).
    fn pivot(&mut self, net: &mut FlowNetwork, e: u32, bland: bool) -> bool {
        let first = self.tail_of(e);
        let second = self.head_of(net, e);

        // Join: lowest common ancestor of the entering arc's endpoints.
        let (mut x, mut y) = (first, second);
        while self.depth[x as usize] > self.depth[y as usize] {
            x = self.parent[x as usize];
        }
        while self.depth[y as usize] > self.depth[x as usize] {
            y = self.parent[y as usize];
        }
        while x != y {
            x = self.parent[x as usize];
            y = self.parent[y as usize];
        }
        let join = x;

        // Bottleneck search around the cycle, recording the traversed
        // residual arcs so the augmentation doesn't re-walk the tree.
        // The asymmetric tie-breaks (`<` on the tail-side path, `<=` on
        // the head-side) keep a strongly feasible basis strongly
        // feasible, which bounds degenerate pivot runs.
        let mut delta = self.res_cap(net, e);
        let mut u_out = NONE;
        let mut result = 0u8;
        self.cycle.clear();
        self.meta.clear();
        self.cycle.push(e);
        self.meta.push((NONE, 0));
        let mut w = first;
        while w != join {
            // Cycle direction here is parent → w: the reverse residual.
            let a = self.pred[w as usize] ^ 1;
            let d = self.res_cap(net, a);
            self.cycle.push(a);
            self.meta.push((w, 1));
            if d < delta {
                delta = d;
                u_out = w;
                result = 1;
            }
            w = self.parent[w as usize];
        }
        let mut w = second;
        while w != join {
            // Cycle direction here is w → parent: the pred arc itself.
            let a = self.pred[w as usize];
            let d = self.res_cap(net, a);
            self.cycle.push(a);
            self.meta.push((w, 2));
            if d <= delta {
                delta = d;
                u_out = w;
                result = 2;
            }
            w = self.parent[w as usize];
        }
        if bland {
            // Bland's leaving rule: the lowest-id blocking arc (the
            // entering arc itself counts — that is the bound flip).
            let mut best_a = u32::MAX;
            for i in 0..self.cycle.len() {
                let a = self.cycle[i];
                if self.res_cap(net, a) == delta && a < best_a {
                    best_a = a;
                    let (node, side) = self.meta[i];
                    u_out = node;
                    result = side;
                }
            }
        }

        if delta > 0 {
            for k in 0..self.cycle.len() {
                self.push(net, self.cycle[k], delta);
            }
        }

        if result == 0 {
            // The entering arc itself is the bottleneck: it saturates
            // and stays non-basic (the classic bound flip); no change
            // to the tree.
            return delta == 0;
        }

        // The leaving arc is `pred[u_out]`; removing it cuts off the
        // subtree S containing u_in, which re-hangs below v_in through
        // the entering arc.
        let (u_in, v_in, in_arc) = if result == 1 {
            (first, second, e)
        } else {
            (second, first, e ^ 1)
        };
        // All of S shifts by the entering arc's reduced cost so it
        // becomes the zero of the new tree arc.
        let in_cost = self.cost_of(net, in_arc);
        let sigma = -(in_cost + self.pi[u_in as usize] - self.pi[v_in as usize]);

        // Reverse the tree path u_in → u_out: each old parent becomes
        // the child of its old child. Recorded first (node, old pred),
        // then applied from u_out downward so every child-list lookup
        // still sees the pre-pivot relation it detaches.
        self.path.clear();
        let mut w = u_in;
        loop {
            self.path.push((w, self.pred[w as usize]));
            if w == u_out {
                break;
            }
            w = self.parent[w as usize];
        }
        for i in (0..self.path.len()).rev() {
            let (w, _) = self.path[i];
            let old_p = if i + 1 < self.path.len() {
                self.path[i + 1].0
            } else {
                self.parent[w as usize]
            };
            let (new_p, new_pred) = if i == 0 {
                (v_in, in_arc)
            } else {
                (self.path[i - 1].0, self.path[i - 1].1 ^ 1)
            };
            self.detach_child(old_p, w);
            self.parent[w as usize] = new_p;
            self.pred[w as usize] = new_pred;
            self.attach_child(new_p, w);
        }

        // Refresh depth and potential across the re-hung subtree.
        self.stack.clear();
        self.stack.push(u_in);
        while let Some(v) = self.stack.pop() {
            let p = self.parent[v as usize] as usize;
            self.depth[v as usize] = self.depth[p] + 1;
            self.pi[v as usize] += sigma;
            let mut c = self.child_head[v as usize];
            while c != NONE {
                self.stack.push(c);
                c = self.next_sib[c as usize];
            }
        }
        delta == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ssp::{SspSolver, SspVariant};

    #[test]
    fn single_edge() {
        let mut net = FlowNetwork::new(2);
        net.add_edge(0, 1, 10, 5);
        let sol = NetworkSimplex.solve(&mut net, 0, 1, 7).unwrap();
        assert_eq!(sol, Solution { flow: 7, cost: 35 });
    }

    #[test]
    fn splits_across_parallel_routes() {
        let mut net = FlowNetwork::new(4);
        net.add_edge(0, 1, 4, 1);
        net.add_edge(1, 3, 4, 1);
        net.add_edge(0, 2, 10, 10);
        net.add_edge(2, 3, 10, 10);
        let sol = NetworkSimplex.solve(&mut net, 0, 3, 6).unwrap();
        assert_eq!(sol.flow, 6);
        assert_eq!(sol.cost, 4 * 2 + 2 * 20);
    }

    #[test]
    fn infeasible_routes_max_flow() {
        let mut net = FlowNetwork::new(3);
        net.add_edge(0, 1, 3, 1);
        net.add_edge(1, 2, 2, 1);
        let err = NetworkSimplex.solve(&mut net, 0, 2, 5).unwrap_err();
        assert_eq!(err.max_flow, 2);
        assert_eq!(err.cost, 4);
    }

    #[test]
    fn negative_costs_handled() {
        let mut net = FlowNetwork::new(4);
        net.add_edge(0, 1, 5, -2);
        net.add_edge(1, 3, 5, 1);
        net.add_edge(0, 2, 5, 1);
        net.add_edge(2, 3, 5, 1);
        let sol = NetworkSimplex.solve(&mut net, 0, 3, 8).unwrap();
        assert_eq!(sol.flow, 8);
        assert_eq!(sol.cost, -5 + 3 * 2);
    }

    #[test]
    fn zero_capacity_graph_is_infeasible() {
        let mut net = FlowNetwork::new(2);
        net.add_edge(0, 1, 0, 1);
        let err = NetworkSimplex.solve(&mut net, 0, 1, 1).unwrap_err();
        assert_eq!(err.max_flow, 0);
        assert_eq!(err.cost, 0);
    }

    #[test]
    fn flows_left_installed_are_consistent() {
        let mut net = FlowNetwork::new(4);
        let e1 = net.add_edge(0, 1, 4, 1);
        let e2 = net.add_edge(1, 3, 4, 1);
        net.add_edge(0, 2, 10, 10);
        net.add_edge(2, 3, 10, 10);
        let sol = NetworkSimplex.solve(&mut net, 0, 3, 6).unwrap();
        assert_eq!(net.flow_on(e1), 4);
        assert_eq!(net.flow_on(e2), 4);
        assert_eq!(net.total_cost(), sol.cost);
        assert!(crate::validate::check_flow(&net, 0, 3, sol.flow).is_empty());
        crate::validate::check_optimality(&net).unwrap();
    }

    #[test]
    fn retained_basis_certifies_the_solve() {
        let mut net = FlowNetwork::new(4);
        net.add_edge(0, 1, 4, 1);
        net.add_edge(1, 3, 4, 1);
        net.add_edge(0, 2, 10, 10);
        net.add_edge(2, 3, 10, 10);
        let mut basis = SimplexBasis::default();
        NetworkSimplex
            .solve_with(&mut basis, &mut net, 0, 3, 6)
            .unwrap();
        assert!(basis.is_valid());
        let pot = basis.potentials().unwrap();
        crate::validate::check_certificate(&net, pot).unwrap();
        // A deletion repair keeps the certificate current.
        let out = basis.repair_deletions(&mut net, &[EdgeId(0)]).unwrap();
        assert!(out.complete(), "{out:?}");
        crate::validate::check_certificate(&net, basis.potentials().unwrap()).unwrap();
    }

    #[test]
    fn basis_rejects_mismatched_network() {
        let mut net = FlowNetwork::new(4);
        net.add_edge(0, 1, 4, 1);
        net.add_edge(1, 3, 4, 1);
        let mut basis = SimplexBasis::default();
        let _ = NetworkSimplex.solve_with(&mut basis, &mut net, 0, 3, 4);
        // A structurally different network must be refused untouched.
        let mut other = FlowNetwork::new(4);
        let e = other.add_edge(0, 1, 4, 1);
        assert!(basis.repair_deletions(&mut other, &[e]).is_none());
        assert_eq!(other.capacity(e), 4, "refused repair must not mutate");
        // So must the same network after a structural change.
        net.add_edge(0, 3, 1, 1);
        assert!(basis.repair_deletions(&mut net, &[EdgeId(0)]).is_none());
        basis.invalidate();
        assert!(basis.potentials().is_none());
    }

    /// A degeneracy storm: K parallel two-hop routes with a zero-cost
    /// clique among the middle nodes. Every middle-to-middle move is a
    /// zero-reduced-cost tie, so block search performs long degenerate
    /// runs; the guard and Bland's rule must both terminate on it.
    fn degenerate_clique() -> FlowNetwork {
        let k = 6usize;
        let mut net = FlowNetwork::new(k + 2);
        let (s, t) = (0usize, k + 1);
        for i in 1..=k {
            net.add_edge(s, i, 3, 1);
            net.add_edge(i, t, 3, 1);
        }
        for i in 1..=k {
            for j in 1..=k {
                if i != j {
                    net.add_edge(i, j, 3, 0);
                }
            }
        }
        net
    }

    #[test]
    fn anticycling_guard_terminates_on_degenerate_network() {
        // Plain run: the guard may or may not trip, but the solve must
        // terminate and agree with SSP.
        let mut net = degenerate_clique();
        let sol = NetworkSimplex.solve(&mut net, 0, 7, 18).unwrap();
        let mut reference = degenerate_clique();
        let want = SspSolver::new(SspVariant::Dijkstra)
            .solve(&mut reference, 0, 7, 18)
            .unwrap();
        assert_eq!(sol, want);
        assert!(crate::validate::check_flow(&net, 0, 7, 18).is_empty());
        crate::validate::check_optimality(&net).unwrap();
    }

    #[test]
    fn forced_bland_rule_matches_ssp() {
        // Deterministic Bland coverage: every pivot (including the
        // fully-degenerate artificial start) runs under Bland's rule.
        // Completing at the SSP cost is the termination regression.
        let mut net = degenerate_clique();
        let mut basis = SimplexBasis::default();
        basis.set_force_bland(true);
        let sol = NetworkSimplex
            .solve_with(&mut basis, &mut net, 0, 7, 18)
            .unwrap();
        let mut reference = degenerate_clique();
        let want = SspSolver::new(SspVariant::Dijkstra)
            .solve(&mut reference, 0, 7, 18)
            .unwrap();
        assert_eq!(sol.cost, want.cost);
        assert_eq!(sol.flow, want.flow);
        // And a Bland-guarded repair on the degenerate instance still
        // matches a cold re-solve of the damaged network — which is now
        // infeasible at the old value (a 3-cap source edge died), so
        // the repair must report exactly that shortfall.
        let out = basis.repair_deletions(&mut net, &[EdgeId(0)]).unwrap();
        assert_eq!(out.tier, RepairTier::WarmBasis);
        assert_eq!(out.shortfall, 3);
        let mut cold = degenerate_clique();
        cold.disable_edge(EdgeId(0));
        let want = SspSolver::new(SspVariant::Dijkstra)
            .solve(&mut cold, 0, 7, 18)
            .unwrap_err();
        assert_eq!(want.max_flow, 15);
        assert_eq!(net.total_cost(), want.cost);
        assert_eq!(sol.cost + out.cost_delta, want.cost);
    }

    #[test]
    fn agrees_with_ssp_on_random_grids() {
        // Deterministic xorshift instances; same generator as the
        // cost-scaling agreement test.
        let build = |seed: u64| {
            let mut net = FlowNetwork::new(16);
            let mut x = seed;
            let mut rnd = move || {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                x
            };
            for r in 0..4usize {
                for c in 0..4usize {
                    let v = r * 4 + c;
                    if c + 1 < 4 {
                        net.add_edge(v, v + 1, (rnd() % 9 + 1) as i64, (rnd() % 20) as i64);
                    }
                    if r + 1 < 4 {
                        net.add_edge(v, v + 4, (rnd() % 9 + 1) as i64, (rnd() % 20) as i64);
                    }
                }
            }
            net
        };
        for seed in [0xDEADBEEF, 0xC0FFEE, 0x5EED] {
            for target in [1, 3, 7, 50] {
                let mut a = build(seed);
                let mut b = build(seed);
                let sa = SspSolver::new(SspVariant::Dijkstra).solve(&mut a, 0, 15, target);
                let sb = NetworkSimplex.solve(&mut b, 0, 15, target);
                match (sa, sb) {
                    (Ok(x), Ok(y)) => assert_eq!(x, y, "seed {seed:#x} target {target}"),
                    (Err(x), Err(y)) => {
                        assert_eq!(x.max_flow, y.max_flow, "seed {seed:#x} target {target}");
                        assert_eq!(x.cost, y.cost, "seed {seed:#x} target {target}");
                    }
                    other => panic!("solver disagreement (seed {seed:#x}, {target}): {other:?}"),
                }
            }
        }
    }
}
