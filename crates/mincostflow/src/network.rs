//! Residual flow-network representation, CSR-backed.
//!
//! Arcs are stored in a flat `Vec` where arc `2k` is the `k`-th user edge
//! and arc `2k+1` is its residual reverse (capacity 0, negated cost). This
//! pairing makes `rev(a) == a ^ 1`, avoiding an explicit pointer.
//!
//! Adjacency is a compressed-sparse-row (CSR) index over those arcs: one
//! flat `csr` array of arc ids grouped by tail node, and a `first_out`
//! offset array of length `n + 1`. Compared with the former
//! `Vec<Vec<usize>>` adjacency this keeps every node's out-arc list in
//! one contiguous cache line run and removes a pointer chase per node in
//! the solvers' inner loops. The index is rebuilt lazily (counting sort,
//! `O(n + m)`, allocation-free after the first build) whenever edges or
//! nodes were added since the last build; `reset` keeps all allocations,
//! so a caller solving many similarly sized instances (one layered graph
//! per substream) reuses one network as an arena.

use crate::vec_bytes;

/// Index of a node in a [`FlowNetwork`].
pub type NodeId = usize;

/// Identifier of a user-added edge, returned by [`FlowNetwork::add_edge`].
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct EdgeId(pub(crate) usize);

#[derive(Clone, Debug)]
pub(crate) struct Arc {
    pub to: NodeId,
    /// Remaining residual capacity.
    pub cap: i64,
    pub cost: i64,
}

/// Arc record in CSR order — the solvers' relaxation loops read these
/// three fields together, so they live in one 24-byte record (a single
/// sequential stream) rather than three parallel arrays.
#[derive(Clone, Copy, Debug, Default)]
pub(crate) struct CsrArc {
    /// Remaining residual capacity (mirror of `arcs[csr[i]].cap`).
    pub cap: i64,
    pub cost: i64,
    pub to: u32,
}

/// A directed flow network with integer capacities and costs.
#[derive(Clone, Debug, Default)]
pub struct FlowNetwork {
    pub(crate) arcs: Vec<Arc>,
    /// Number of nodes.
    n: usize,
    /// CSR offsets: arcs of node `u` are `csr[first_out[u]..first_out[u+1]]`.
    /// Valid only when `csr_dirty` is false.
    first_out: Vec<u32>,
    /// Arc ids grouped by tail node, ascending within a node (matching
    /// insertion order, so iteration order — and therefore tie-breaking
    /// in every solver — is identical to the old per-node `Vec` lists).
    pub(crate) csr: Vec<u32>,
    /// Arc *data* mirrored in CSR order, one packed record per position,
    /// so the solvers' inner relaxation loops scan a single flat array
    /// linearly instead of gathering `arcs[csr[i]]` in insertion order —
    /// at layered-graph sizes that double indirection was the single
    /// largest cost in Dijkstra. Capacities are kept in sync with `arcs`
    /// by [`push`](Self::push) via the `pos` inverse map.
    pub(crate) csr_arcs: Vec<CsrArc>,
    /// CSR position of each arc id (inverse of `csr`).
    pos: Vec<u32>,
    /// Scratch cursor for the counting sort (retained to keep rebuilds
    /// allocation-free).
    cursor: Vec<u32>,
    /// Whether the CSR index is stale w.r.t. `arcs`/`n`.
    csr_dirty: bool,
    /// Number of user edges with negative cost (O(1) negative-arc check).
    neg_edges: usize,
    /// Whether any flow has been pushed since the last reset — pushed
    /// flow activates residual arcs, which carry negated (possibly
    /// negative) costs even when every user edge cost is non-negative.
    flow_dirty: bool,
    /// Original capacity of every user edge, indexed by `EdgeId.0`.
    original_cap: Vec<i64>,
}

impl FlowNetwork {
    /// Creates a network with `n` nodes and no edges.
    pub fn new(n: usize) -> Self {
        FlowNetwork {
            arcs: Vec::new(),
            n,
            first_out: Vec::new(),
            csr: Vec::new(),
            csr_arcs: Vec::new(),
            pos: Vec::new(),
            cursor: Vec::new(),
            csr_dirty: true,
            neg_edges: 0,
            flow_dirty: false,
            original_cap: Vec::new(),
        }
    }

    /// Number of nodes.
    pub fn num_nodes(&self) -> usize {
        self.n
    }

    /// Clears the network down to `n` isolated nodes while retaining the
    /// arc, CSR, and scratch allocations, so a caller solving many
    /// similarly sized instances (e.g. one layered graph per substream)
    /// can reuse one network as an arena instead of rebuilding it from
    /// scratch. Allocation-free once the arena has grown to the size of
    /// the largest instance seen.
    pub fn reset(&mut self, n: usize) {
        self.arcs.clear();
        self.original_cap.clear();
        self.n = n;
        self.csr_dirty = true;
        self.neg_edges = 0;
        self.flow_dirty = false;
    }

    /// Copies the arc table and the edge bookkeeping but not the CSR
    /// index, which is left marked stale. Installed flow, capacities,
    /// costs and the negative-arc flags all carry over, so every solver
    /// and repair entry point sees the same network; the first of them
    /// rebuilds the index, bit-identically, because the rebuild is a
    /// counting sort in arc-id order. About half the bytes of `clone()`
    /// for a network that may never be touched again (a retained solve
    /// kept for a repair that may not come).
    pub fn clone_arcs(&self) -> FlowNetwork {
        FlowNetwork {
            arcs: self.arcs.clone(),
            original_cap: self.original_cap.clone(),
            neg_edges: self.neg_edges,
            flow_dirty: self.flow_dirty,
            ..FlowNetwork::new(self.n)
        }
    }

    /// Heap bytes this network holds (`capacity × size_of` of every
    /// buffer, the CSR index included).
    pub fn heap_bytes(&self) -> usize {
        vec_bytes(&self.arcs)
            + vec_bytes(&self.original_cap)
            + vec_bytes(&self.first_out)
            + vec_bytes(&self.csr)
            + vec_bytes(&self.csr_arcs)
            + vec_bytes(&self.pos)
            + vec_bytes(&self.cursor)
    }

    /// Number of user edges (not counting residual arcs).
    pub fn num_edges(&self) -> usize {
        self.original_cap.len()
    }

    /// Adds a node, returning its id.
    pub fn add_node(&mut self) -> NodeId {
        self.n += 1;
        self.csr_dirty = true;
        self.n - 1
    }

    /// Adds a directed edge `from → to` with the given capacity and
    /// per-unit cost. Capacity must be non-negative.
    pub fn add_edge(&mut self, from: NodeId, to: NodeId, cap: i64, cost: i64) -> EdgeId {
        assert!(from < self.n, "from out of range");
        assert!(to < self.n, "to out of range");
        assert!(cap >= 0, "negative capacity");
        let id = self.arcs.len();
        self.arcs.push(Arc { to, cap, cost });
        self.arcs.push(Arc {
            to: from,
            cap: 0,
            cost: -cost,
        });
        self.original_cap.push(cap);
        if cost < 0 {
            self.neg_edges += 1;
        }
        self.csr_dirty = true;
        EdgeId(id / 2)
    }

    /// Conservative O(1) check: `false` guarantees no active arc has a
    /// negative cost (so zero potentials are valid); `true` means a
    /// negative-cost arc *may* be active and an O(m) scan must decide.
    pub(crate) fn maybe_negative_active(&self) -> bool {
        self.neg_edges > 0 || self.flow_dirty
    }

    /// Rebuilds the CSR adjacency index if it is stale. Every solver
    /// calls this once before touching [`out_arcs`](Self::out_arcs);
    /// a clean index makes the call free.
    pub(crate) fn ensure_csr(&mut self) {
        if !self.csr_dirty {
            return;
        }
        let n = self.n;
        let m = self.arcs.len();
        self.first_out.clear();
        self.first_out.resize(n + 1, 0);
        for a in 0..m {
            // Tail of arc `a` is the head of its xor-paired reverse.
            let from = self.arcs[a ^ 1].to;
            self.first_out[from + 1] += 1;
        }
        for i in 0..n {
            self.first_out[i + 1] += self.first_out[i];
        }
        self.cursor.clear();
        self.cursor.extend_from_slice(&self.first_out[..n]);
        self.csr.clear();
        self.csr.resize(m, 0);
        self.csr_arcs.clear();
        self.csr_arcs.resize(m, CsrArc::default());
        self.pos.clear();
        self.pos.resize(m, 0);
        for a in 0..m {
            let from = self.arcs[a ^ 1].to;
            let i = self.cursor[from] as usize;
            self.csr[i] = a as u32;
            self.pos[a] = i as u32;
            let arc = &self.arcs[a];
            self.csr_arcs[i] = CsrArc {
                cap: arc.cap,
                cost: arc.cost,
                to: arc.to as u32,
            };
            self.cursor[from] += 1;
        }
        self.csr_dirty = false;
    }

    /// Out-arc ids of `u` (forward and residual alike), contiguous.
    /// The CSR index must be clean (see [`ensure_csr`](Self::ensure_csr)).
    #[inline]
    pub(crate) fn out_arcs(&self, u: NodeId) -> &[u32] {
        debug_assert!(!self.csr_dirty, "CSR index is stale");
        &self.csr[self.first_out[u] as usize..self.first_out[u + 1] as usize]
    }

    /// CSR range of `u` as raw indices into [`csr_arc`](Self::csr_arc),
    /// for solvers that mutate the network while iterating.
    #[inline]
    pub(crate) fn out_range(&self, u: NodeId) -> (usize, usize) {
        debug_assert!(!self.csr_dirty, "CSR index is stale");
        (self.first_out[u] as usize, self.first_out[u + 1] as usize)
    }

    /// The arc id stored at CSR position `i` (see [`out_range`](Self::out_range)).
    #[inline]
    pub(crate) fn csr_arc(&self, i: usize) -> usize {
        self.csr[i] as usize
    }

    /// Tail node of arc `a` (the node it leaves).
    #[inline]
    pub(crate) fn arc_tail(&self, a: usize) -> NodeId {
        self.arcs[a ^ 1].to
    }

    /// Current flow routed over a user edge.
    pub fn flow_on(&self, e: EdgeId) -> i64 {
        // Flow equals the residual capacity accumulated on the reverse arc.
        self.arcs[e.0 * 2 + 1].cap
    }

    /// The endpoints `(from, to)` of a user edge.
    pub fn endpoints(&self, e: EdgeId) -> (NodeId, NodeId) {
        let to = self.arcs[e.0 * 2].to;
        let from = self.arcs[e.0 * 2 + 1].to;
        (from, to)
    }

    /// The original capacity of a user edge.
    pub fn capacity(&self, e: EdgeId) -> i64 {
        self.original_cap[e.0]
    }

    /// The per-unit cost of a user edge.
    pub fn cost(&self, e: EdgeId) -> i64 {
        self.arcs[e.0 * 2].cost
    }

    /// Remaining (unrouted) capacity of a user edge.
    pub fn residual(&self, e: EdgeId) -> i64 {
        self.arcs[e.0 * 2].cap
    }

    /// Iterator over all user edge ids.
    pub fn edges(&self) -> impl Iterator<Item = EdgeId> {
        (0..self.num_edges()).map(EdgeId)
    }

    /// Total cost of the currently installed flow.
    pub fn total_cost(&self) -> i64 {
        self.edges().map(|e| self.flow_on(e) * self.cost(e)).sum()
    }

    /// Net flow out of a node (outgoing minus incoming over user edges).
    pub fn net_out_flow(&self, v: NodeId) -> i64 {
        let mut net = 0;
        for e in self.edges() {
            let (from, to) = self.endpoints(e);
            if from == v {
                net += self.flow_on(e);
            }
            if to == v {
                net -= self.flow_on(e);
            }
        }
        net
    }

    /// Clears all routed flow, restoring original capacities. The CSR
    /// index stays valid: flow changes touch capacities, not topology
    /// (the capacity mirror is re-synced in the same pass).
    pub fn reset_flow(&mut self) {
        for k in 0..self.num_edges() {
            self.arcs[k * 2].cap = self.original_cap[k];
            self.arcs[k * 2 + 1].cap = 0;
        }
        if !self.csr_dirty {
            for (i, &a) in self.csr.iter().enumerate() {
                self.csr_arcs[i].cap = self.arcs[a as usize].cap;
            }
        }
        self.flow_dirty = false;
    }

    /// Disables a user edge in place: zeroes its remaining capacity, its
    /// routed flow (the reverse arc's residual), and its recorded original
    /// capacity — so [`reset_flow`](Self::reset_flow) keeps it disabled —
    /// and returns the flow that was routed over it. The caller owes the
    /// network that much imbalance: the tail is left with excess and the
    /// head with deficit until the flow is re-routed (see the `repair`
    /// module). The CSR index stays valid: disabling changes capacities,
    /// not topology, and the capacity mirror is re-synced here.
    pub fn disable_edge(&mut self, e: EdgeId) -> i64 {
        let fwd = e.0 * 2;
        let drained = self.arcs[fwd + 1].cap;
        self.arcs[fwd].cap = 0;
        self.arcs[fwd + 1].cap = 0;
        self.original_cap[e.0] = 0;
        if !self.csr_dirty {
            self.csr_arcs[self.pos[fwd] as usize].cap = 0;
            self.csr_arcs[self.pos[fwd + 1] as usize].cap = 0;
        }
        drained
    }

    /// Reduces a user edge's capacity in place to `new_cap` (which must
    /// not exceed the current capacity). Flow above the new bound is
    /// drained — the reverse arc's residual drops to `new_cap` — and the
    /// amount drained is returned; as with
    /// [`disable_edge`](Self::disable_edge), the caller owes the network
    /// that much imbalance until it is re-routed (see the `repair`
    /// module). The recorded original capacity shrinks too, so
    /// [`reset_flow`](Self::reset_flow) honours the cut. The CSR index
    /// stays valid: the capacity mirror is re-synced here.
    pub fn reduce_capacity(&mut self, e: EdgeId, new_cap: i64) -> i64 {
        assert!(new_cap >= 0, "negative capacity");
        assert!(new_cap <= self.original_cap[e.0], "capacity increase");
        let fwd = e.0 * 2;
        let kept = self.arcs[fwd + 1].cap.min(new_cap);
        let drained = self.arcs[fwd + 1].cap - kept;
        self.arcs[fwd].cap = new_cap - kept;
        self.arcs[fwd + 1].cap = kept;
        self.original_cap[e.0] = new_cap;
        if !self.csr_dirty {
            self.csr_arcs[self.pos[fwd] as usize].cap = self.arcs[fwd].cap;
            self.csr_arcs[self.pos[fwd + 1] as usize].cap = kept;
        }
        drained
    }

    /// Re-prices a user edge in place. Installed flow is untouched, so
    /// the flow may stop being min-cost for its value until the caller
    /// repairs or re-solves (a cost change can create negative residual
    /// cycles). The CSR index stays valid: the cost mirror is re-synced
    /// here.
    pub fn set_cost(&mut self, e: EdgeId, new_cost: i64) {
        let fwd = e.0 * 2;
        if self.arcs[fwd].cost < 0 {
            self.neg_edges -= 1;
        }
        if new_cost < 0 {
            self.neg_edges += 1;
        }
        self.arcs[fwd].cost = new_cost;
        self.arcs[fwd + 1].cost = -new_cost;
        if !self.csr_dirty {
            self.csr_arcs[self.pos[fwd] as usize].cost = new_cost;
            self.csr_arcs[self.pos[fwd + 1] as usize].cost = -new_cost;
        }
        // Flow already routed over the edge now rides a re-priced arc;
        // its reverse residual may be negative even with non-negative
        // user costs, which `maybe_negative_active` must reflect.
        if self.flow_on(e) > 0 {
            self.flow_dirty = true;
        }
    }

    /// Pushes `amount` of flow along arc `a` (internal; updates residuals).
    #[inline]
    pub(crate) fn push(&mut self, a: usize, amount: i64) {
        debug_assert!(amount >= 0 && amount <= self.arcs[a].cap);
        self.arcs[a].cap -= amount;
        self.arcs[a ^ 1].cap += amount;
        if !self.csr_dirty {
            self.csr_arcs[self.pos[a] as usize].cap -= amount;
            self.csr_arcs[self.pos[a ^ 1] as usize].cap += amount;
        }
        self.flow_dirty = true;
    }

    /// Pushes `amount` along arc `a` without re-syncing the CSR capacity
    /// mirror, leaving the index marked stale. Cheaper than
    /// [`push`](Self::push) for solvers that read capacities straight from
    /// `arcs` and invalidate the index when they finish anyway (network
    /// simplex pops its super-arc, which dirties the CSR regardless).
    #[inline]
    pub(crate) fn push_unmirrored(&mut self, a: usize, amount: i64) {
        debug_assert!(amount >= 0 && amount <= self.arcs[a].cap);
        self.arcs[a].cap -= amount;
        self.arcs[a ^ 1].cap += amount;
        self.csr_dirty = true;
        self.flow_dirty = true;
    }

    /// Removes the most recently added user edge. Only valid when it *is*
    /// the last one added; used internally to retract temporary super-arcs.
    pub(crate) fn pop_last_edge(&mut self) {
        assert!(self.arcs.len() >= 2, "no edge to pop");
        self.arcs.pop();
        let fwd = self.arcs.pop().expect("arc pair");
        if fwd.cost < 0 {
            self.neg_edges -= 1;
        }
        self.original_cap.pop();
        self.csr_dirty = true;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn add_edge_and_query() {
        let mut net = FlowNetwork::new(3);
        let e = net.add_edge(0, 2, 7, 3);
        assert_eq!(net.num_nodes(), 3);
        assert_eq!(net.num_edges(), 1);
        assert_eq!(net.endpoints(e), (0, 2));
        assert_eq!(net.capacity(e), 7);
        assert_eq!(net.cost(e), 3);
        assert_eq!(net.flow_on(e), 0);
        assert_eq!(net.residual(e), 7);
    }

    #[test]
    fn add_node_grows_graph() {
        let mut net = FlowNetwork::new(1);
        let v = net.add_node();
        assert_eq!(v, 1);
        let e = net.add_edge(0, v, 1, 1);
        assert_eq!(net.endpoints(e), (0, 1));
    }

    #[test]
    fn push_moves_residuals() {
        let mut net = FlowNetwork::new(2);
        let e = net.add_edge(0, 1, 10, 1);
        net.push(0, 4);
        assert_eq!(net.flow_on(e), 4);
        assert_eq!(net.residual(e), 6);
        // Push back along the residual arc cancels flow.
        net.push(1, 3);
        assert_eq!(net.flow_on(e), 1);
        assert_eq!(net.residual(e), 9);
    }

    #[test]
    fn reset_restores_capacities() {
        let mut net = FlowNetwork::new(2);
        let e = net.add_edge(0, 1, 5, 2);
        net.push(0, 5);
        assert_eq!(net.residual(e), 0);
        net.reset_flow();
        assert_eq!(net.residual(e), 5);
        assert_eq!(net.flow_on(e), 0);
        assert_eq!(net.total_cost(), 0);
    }

    #[test]
    fn reset_reuses_arena() {
        let mut net = FlowNetwork::new(4);
        net.add_edge(0, 1, 5, 1);
        net.add_edge(1, 2, 5, 1);
        net.push(0, 2);
        net.reset(2);
        assert_eq!(net.num_nodes(), 2);
        assert_eq!(net.num_edges(), 0);
        let v = net.add_node();
        assert_eq!(v, 2);
        let e = net.add_edge(0, v, 9, 4);
        assert_eq!(net.flow_on(e), 0);
        assert_eq!(net.capacity(e), 9);
        // Growing past the previous size works too.
        net.reset(8);
        assert_eq!(net.num_nodes(), 8);
        assert_eq!(net.num_edges(), 0);
    }

    #[test]
    fn csr_matches_insertion_order() {
        let mut net = FlowNetwork::new(3);
        net.add_edge(0, 1, 1, 0); // arcs 0 (0→1), 1 (1→0)
        net.add_edge(0, 2, 1, 0); // arcs 2 (0→2), 3 (2→0)
        net.add_edge(1, 2, 1, 0); // arcs 4 (1→2), 5 (2→1)
        net.ensure_csr();
        assert_eq!(net.out_arcs(0), &[0, 2]);
        assert_eq!(net.out_arcs(1), &[1, 4]);
        assert_eq!(net.out_arcs(2), &[3, 5]);
        assert_eq!(net.arc_tail(0), 0);
        assert_eq!(net.arc_tail(1), 1);
        assert_eq!(net.arc_tail(5), 2);
        // Rebuild after mutation picks up the new arcs.
        net.add_edge(2, 0, 1, 0); // arcs 6 (2→0), 7 (0→2)
        net.ensure_csr();
        assert_eq!(net.out_arcs(2), &[3, 5, 6]);
        assert_eq!(net.out_arcs(0), &[0, 2, 7]);
    }

    #[test]
    fn csr_survives_reset_and_pop() {
        let mut net = FlowNetwork::new(2);
        net.add_edge(0, 1, 1, 5);
        net.ensure_csr();
        net.pop_last_edge();
        net.ensure_csr();
        assert!(net.out_arcs(0).is_empty());
        assert!(net.out_arcs(1).is_empty());
        net.reset(3);
        net.add_edge(2, 0, 4, 1);
        net.ensure_csr();
        assert_eq!(net.out_arcs(2), &[0]);
        assert_eq!(net.out_arcs(0), &[1]);
        assert!(net.out_arcs(1).is_empty());
    }

    #[test]
    fn disable_edge_drains_flow_and_survives_reset() {
        let mut net = FlowNetwork::new(3);
        let a = net.add_edge(0, 1, 10, 1);
        let b = net.add_edge(1, 2, 10, 1);
        net.ensure_csr();
        net.push(0, 4);
        net.push(2, 4);
        assert_eq!(net.disable_edge(a), 4);
        assert_eq!(net.flow_on(a), 0);
        assert_eq!(net.residual(a), 0);
        assert_eq!(net.capacity(a), 0);
        // The CSR mirror saw the zeroing without a rebuild.
        net.ensure_csr();
        for &arc in net.out_arcs(0) {
            assert_eq!(net.arcs[arc as usize].cap, 0);
        }
        // Untouched edges keep their flow; reset keeps the edge disabled.
        assert_eq!(net.flow_on(b), 4);
        net.reset_flow();
        assert_eq!(net.residual(a), 0);
        assert_eq!(net.residual(b), 10);
        // Disabling a zero-flow edge drains nothing.
        assert_eq!(net.disable_edge(b), 0);
    }

    #[test]
    fn total_cost_sums_edges() {
        let mut net = FlowNetwork::new(3);
        net.add_edge(0, 1, 5, 2);
        net.add_edge(1, 2, 5, 7);
        net.push(0, 3);
        net.push(2, 3);
        assert_eq!(net.total_cost(), 3 * 2 + 3 * 7);
    }

    #[test]
    fn net_out_flow_signs() {
        let mut net = FlowNetwork::new(3);
        net.add_edge(0, 1, 5, 0);
        net.add_edge(1, 2, 5, 0);
        net.push(0, 2);
        net.push(2, 2);
        assert_eq!(net.net_out_flow(0), 2);
        assert_eq!(net.net_out_flow(1), 0);
        assert_eq!(net.net_out_flow(2), -2);
    }

    #[test]
    fn parallel_and_self_edges_supported() {
        let mut net = FlowNetwork::new(2);
        let a = net.add_edge(0, 1, 3, 1);
        let b = net.add_edge(0, 1, 3, 9);
        let loop_e = net.add_edge(1, 1, 2, 5);
        assert_ne!(a, b);
        assert_eq!(net.endpoints(loop_e), (1, 1));
    }

    #[test]
    #[should_panic(expected = "negative capacity")]
    fn negative_capacity_rejected() {
        FlowNetwork::new(2).add_edge(0, 1, -1, 0);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn bad_endpoint_rejected() {
        FlowNetwork::new(2).add_edge(0, 5, 1, 0);
    }
}
