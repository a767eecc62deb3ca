//! RASC's minimum-cost composition (paper §3.5, Algorithm 1).
//!
//! Per substream, a layered composition graph is built over the candidate
//! hosts of each service in the chain and solved as a minimum-cost flow:
//!
//! ```text
//!  SRC ──cap: source uplink──> ┌layer 0┐      ┌layer 1┐       ──> DST
//!        cost: drops(source)   │ n_a ■ │ ───> │ n_c ■ │  ...
//!                              │ n_b ■ │      │ n_d ■ │
//!                              └───────┘      └───────┘
//! ```
//!
//! Each candidate host is *node-split*: an internal arc carries capacity
//! `r_max(c_i, n) = min(b_in, b_out)/u` (the most scarce NIC resource,
//! §3.5) and cost equal to the host's observed drop ratio — so flow
//! through a host is bounded by what it can ingest/forward and priced by
//! how congested it recently was. Inter-layer arcs are free and
//! uncapacitated (the paper's rule: an edge's capacity is the maximum
//! incoming rate of the node at its end, which the node-split expresses
//! exactly once per host rather than once per edge).
//!
//! Rate ratios ≠ 1 are handled exactly for chain substreams: every path
//! through layer `i` has seen the same cumulative gain `g_i = Π_{j<i} R_j`
//! (paths differ in hosts, never in services), so capacities are expressed
//! in *source-rate units* by dividing by `g_i`, reducing the generalized
//! problem to a plain min-cost flow.
//!
//! After each substream is solved its placements are reserved in the
//! view, so later substreams (and later requests) see reduced capacity —
//! Algorithm 1's "update the node capacities" step.

use super::cache::{CachedSubstream, CompositionCache};
use super::{
    apply_reservations, for_each_commitment, gain_prefix, precheck, with_rollback, ComposeError,
    Composer, ProviderMap,
};
use crate::model::{ExecutionGraph, Placement, ServiceCatalog, ServiceRequest, Stage};
use crate::view::SystemView;
use desim::SimRng;
use mincostflow::{Algorithm, FlowNetwork, FlowSolver};
use std::collections::HashMap;
use std::sync::Arc;

/// Rates are scaled to integer milli-data-units/second for the solver.
pub(crate) const RATE_SCALE: f64 = 1000.0;
/// Drop ratios are scaled to integer milli-drops for arc costs.
const COST_SCALE: f64 = 1000.0;
/// Weight of the utilization term in arc costs. The paper's cost is the
/// *expected* number of dropped units (Eq. 1), estimated from feedback;
/// since "the probability of dropping a data unit increases with the
/// load of a node" (§2.2), the estimate combines the observed window
/// ratio with a load-proportional prior. The prior is an order of
/// magnitude weaker, so observed drops always dominate; it breaks ties
/// on a fresh system so the solver spreads load instead of packing the
/// first zero-cost host it finds.
const UTIL_WEIGHT: f64 = 100.0;
/// "Uncapacitated" arcs: far above any node capacity after scaling.
const INF_CAP: i64 = i64::MAX / 8;
/// Cost per millisecond of link latency on transfer edges. Small against
/// drops (0–1000) and utilization (0–100): it never overrides congestion
/// signals, but among equally-loaded hosts it clusters consecutive
/// stages — and the branches of a split — on nearby nodes, which keeps
/// end-to-end delay down and bounds the inter-branch latency skew that
/// splitting would otherwise convert into out-of-order deliveries (the
/// "timing and synchronization problems" the paper's §4.2 discusses).
const LATENCY_WEIGHT: f64 = 0.5;

/// One-way link latencies in milliseconds, shared with the engine.
///
/// Either an explicit row-major table, or a handle to the topology's own
/// latency model — the latter costs whatever the topology stores
/// (`O(n + clusters²)` for the large-topology generators), never a
/// separately materialized `n²` table.
#[derive(Clone, Debug)]
pub struct LatencyMatrix {
    repr: LatRepr,
}

#[derive(Clone, Debug)]
enum LatRepr {
    Dense { n: usize, ms: Vec<f64> },
    Model(simnet::Topology),
}

impl LatencyMatrix {
    /// Builds a matrix from a row-major `n × n` table.
    pub fn new(n: usize, ms: Vec<f64>) -> Self {
        assert_eq!(ms.len(), n * n, "latency table must be n x n");
        LatencyMatrix {
            repr: LatRepr::Dense { n, ms },
        }
    }

    /// Wraps the topology's latency model directly (no dense table is
    /// built — the matrix costs what the topology's model costs).
    pub fn from_topology(topology: &simnet::Topology) -> Self {
        LatencyMatrix {
            repr: LatRepr::Model(topology.clone()),
        }
    }

    /// One-way latency `u → v` in milliseconds.
    ///
    /// Called once per arc from the composer's graph build, through two
    /// crate boundaries down to the topology's latency model. Whether
    /// thin-LTO inlines that chain under plain `#[inline]` depends on how
    /// unrelated generic code lands in codegen units (measured: +17 % on
    /// a compose when it did not), hence `always` on all three links.
    #[inline(always)]
    pub fn get(&self, u: usize, v: usize) -> f64 {
        match &self.repr {
            LatRepr::Dense { n, ms } => ms[u * n + v],
            LatRepr::Model(t) => t.latency(u, v).as_millis_f64(),
        }
    }
}

/// Memoizes the per-host arc cost for the duration of one substream
/// solve (the view, and with it utilization, changes between
/// substreams). Epoch-stamped so "resetting" between substreams is a
/// single increment instead of clearing the table.
#[derive(Clone, Debug, Default)]
struct CostMemo {
    val: Vec<i64>,
    stamp: Vec<u64>,
    epoch: u64,
}

impl CostMemo {
    /// Starts a fresh memoization scope over `n` hosts.
    fn begin(&mut self, n: usize) {
        if self.val.len() < n {
            self.val.resize(n, 0);
            self.stamp.resize(n, 0);
        }
        self.epoch += 1;
    }

    /// The arc cost of `host`, computed at most once per scope.
    fn get(&mut self, view: &SystemView, host: simnet::NodeId) -> i64 {
        if self.stamp[host] != self.epoch {
            self.stamp[host] = self.epoch;
            self.val[host] = cost_of(view, host);
        }
        self.val[host]
    }
}

/// Retained allocations reused across substream solves: the flow-network
/// arena, the host-cost memo, and the flow solver itself (scratch
/// buffers plus warm-start potentials — successive substream graphs are
/// rebuilt in the same arena with similar shape, so the previous solve's
/// potential snapshot usually revalidates and skips the seeding pass).
/// Composition is called once per request in the engine's steady state,
/// so this converts the hot path from allocate-solve-drop to reset-solve.
#[derive(Clone, Debug, Default)]
struct Scratch {
    net: FlowNetwork,
    costs: CostMemo,
    solver: FlowSolver,
    /// Cacheable description of the most recent plain-path solve (the
    /// internal arcs per layer and the compose-time host costs); `None`
    /// after a conservative re-solve, whose graph repair cannot reuse.
    last_meta: Option<SolveMeta>,
    /// Capped candidate set of the layer being wired (reused buffer).
    selected: Vec<simnet::NodeId>,
    /// Sorted copy of an unsorted provider list (selection needs
    /// ascending ids for its binary-search membership test).
    sorted_hosts: Vec<simnet::NodeId>,
}

/// What [`CachedSubstream`] needs beyond the arena itself.
#[derive(Clone, Debug)]
struct SolveMeta {
    layers: Vec<Vec<(mincostflow::EdgeId, simnet::NodeId)>>,
    host_costs: Vec<(simnet::NodeId, i64)>,
}

/// Which top-k implementation trims candidate sets when
/// [`MinCostComposer::candidate_cap`] is set. Both produce identical
/// candidate sets (`SystemView::select_top_candidates_{indexed,linear}`
/// share one exact ranking); `Linear` exists as the reference the
/// equivalence suite compares against.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum CandidateSelection {
    /// Capacity-bucket walk — candidate enumeration independent of the
    /// node count at fixed provider density.
    #[default]
    Indexed,
    /// Full provider scan (the reference implementation).
    Linear,
}

/// The RASC composer.
#[derive(Clone, Debug)]
pub struct MinCostComposer {
    /// Which min-cost flow algorithm to run (ablation hook).
    pub algorithm: Algorithm,
    /// Optional link latencies; when present, transfer edges carry a
    /// small latency-proportional cost (see [`LATENCY_WEIGHT`]).
    pub latencies: Option<Arc<LatencyMatrix>>,
    /// When set, each layer considers only the `k` providers with the
    /// most remaining bottleneck bandwidth instead of all of them —
    /// the knob that keeps composition cost independent of topology
    /// size at 1k–10k nodes. `None` (the default) preserves the
    /// classic consider-everyone behaviour exactly.
    pub candidate_cap: Option<usize>,
    /// How the cap is computed (equivalence-suite hook).
    pub selection: CandidateSelection,
    /// Whether successful solves are snapshotted for incremental repair
    /// (copying the arena's arcs per substream). Batch-worker arenas turn this
    /// off — see [`Composer::set_retention`].
    retain_solves: bool,
    scratch: Scratch,
    /// Retained solves for incremental repair (see `compose::cache`).
    pub(crate) cache: CompositionCache,
}

impl Default for MinCostComposer {
    fn default() -> Self {
        MinCostComposer {
            algorithm: Algorithm::default(),
            latencies: None,
            candidate_cap: None,
            selection: CandidateSelection::default(),
            retain_solves: true,
            scratch: Scratch::default(),
            cache: CompositionCache::default(),
        }
    }
}

impl Composer for MinCostComposer {
    fn compose(
        &mut self,
        req: &ServiceRequest,
        catalog: &ServiceCatalog,
        providers: &ProviderMap,
        view: &mut SystemView,
        _rng: &mut SimRng,
    ) -> Result<ExecutionGraph, ComposeError> {
        precheck(req, catalog, providers)?;
        self.cache.begin_compose();
        with_rollback(view, |view| {
            let mut substream_stages = Vec::with_capacity(req.graph.substreams.len());
            for (l, sub) in req.graph.substreams.iter().enumerate() {
                let stages = self.compose_substream(req, catalog, providers, view, l)?;
                let partial_req = one_substream_request(req, l, sub.services.clone());
                let mut partial = ExecutionGraph {
                    substreams: vec![stages],
                };
                // The layered graph gives a host an independent capacity
                // arc in every layer that lists it, so one solve may route
                // flow through several copies of the same host and exceed
                // its *aggregate* remaining NIC capacity (the coupling
                // constraint Σ_i g_i·f_{h,i} ≤ r_max(h) is not expressible
                // as arc capacities). When the solved flow's true ledger
                // commitment — same-node transfer discounts included —
                // exceeds what any host has left, re-solve with each
                // host's capacity split evenly across its roles (safe by
                // construction, merely conservative); if even that fails,
                // fall back to an exhaustive single-placement search, so
                // min-cost still admits anything the single-placement
                // baselines could (a single placement is a feasible flow).
                if overcommits_a_host(&partial_req, catalog, view, &partial) {
                    self.scratch.last_meta = None;
                    partial.substreams[0] =
                        match self.compose_substream_conservative(req, catalog, providers, view, l)
                        {
                            Ok(stages) => stages,
                            Err(e) => single_placement_search(req, catalog, providers, view, l)
                                .ok_or(e)?,
                        };
                }
                // Snapshot the solved arena for incremental repair while
                // it still holds the plain-path flow (the meta is `None`
                // whenever a fallback path produced these stages). Only
                // what repair reads is copied (see `compose::cache`).
                let meta = self.scratch.last_meta.take().filter(|_| self.retain_solves);
                let cached = meta.map(|m| CachedSubstream {
                    net: self.scratch.net.clone_arcs(),
                    solver: self.scratch.solver.clone_for_repair(),
                    layers: m.layers,
                    host_costs: m.host_costs,
                });
                self.cache.note_substream(cached);
                // Reserve before the next substream (Algorithm 1).
                apply_reservations(&partial_req, catalog, &partial, view);
                substream_stages.push(partial.substreams.pop().expect("one substream"));
            }
            self.cache.finish_compose();
            Ok(ExecutionGraph {
                substreams: substream_stages,
            })
        })
    }

    fn name(&self) -> &'static str {
        "mincost"
    }

    fn retain_for_repair(&mut self, key: usize) {
        self.cache.retain(key);
    }

    fn discard_retained(&mut self, key: usize) {
        self.cache.discard(key);
    }

    fn discard_all_retained(&mut self) {
        self.cache.discard_all();
    }

    fn repair(
        &mut self,
        key: usize,
        req: &ServiceRequest,
        catalog: &ServiceCatalog,
        graph: &ExecutionGraph,
        dead: simnet::NodeId,
        view: &SystemView,
    ) -> Option<ExecutionGraph> {
        self.cache.repair(key, req, catalog, graph, dead, view)
    }

    fn retained_bytes(&self) -> usize {
        self.cache.retained_bytes()
    }

    fn forget_warm_state(&mut self) {
        // The potential snapshot is the only solver state that can tilt
        // equal-cost tie-breaking between solves; the buffers it leaves
        // allocated are results-neutral.
        self.scratch.solver.forget();
    }

    fn set_retention(&mut self, on: bool) {
        self.retain_solves = on;
        if !on {
            self.cache.discard_all();
        }
    }
}

/// A single-substream copy of `req` (for reservation bookkeeping).
fn one_substream_request(req: &ServiceRequest, l: usize, services: Vec<usize>) -> ServiceRequest {
    ServiceRequest {
        graph: crate::model::ServiceRequestGraph {
            substreams: vec![crate::model::Substream { services }],
        },
        rates: vec![req.rates[l]],
        source: req.source,
        destination: req.destination,
        unit_bits: req.unit_bits,
        lifetime: req.lifetime,
    }
}

impl MinCostComposer {
    /// Creates a composer running a specific flow algorithm.
    pub fn with_algorithm(algorithm: Algorithm) -> Self {
        MinCostComposer {
            algorithm,
            ..Default::default()
        }
    }

    /// Attaches link latencies for latency-aware transfer costs.
    pub fn with_latencies(mut self, latencies: Arc<LatencyMatrix>) -> Self {
        self.latencies = Some(latencies);
        self
    }

    /// Caps every layer to the `k` best-capacity candidates.
    pub fn with_candidate_cap(mut self, k: usize) -> Self {
        self.candidate_cap = Some(k);
        self
    }

    fn compose_substream(
        &mut self,
        req: &ServiceRequest,
        catalog: &ServiceCatalog,
        providers: &ProviderMap,
        view: &SystemView,
        l: usize,
    ) -> Result<Vec<Stage>, ComposeError> {
        self.solve_substream(req, catalog, providers, view, l, None)
    }

    /// Re-solve with every host's capacity divided by the number of roles
    /// (source, destination, candidate layers) it plays in this
    /// substream: each role then stays within its share per NIC
    /// dimension, so their sum cannot exceed the host's remaining
    /// capacity no matter how the flow distributes.
    fn compose_substream_conservative(
        &mut self,
        req: &ServiceRequest,
        catalog: &ServiceCatalog,
        providers: &ProviderMap,
        view: &SystemView,
        l: usize,
    ) -> Result<Vec<Stage>, ComposeError> {
        let mut roles: HashMap<simnet::NodeId, f64> = HashMap::new();
        *roles.entry(req.source).or_default() += 1.0;
        *roles.entry(req.destination).or_default() += 1.0;
        for &service in &req.graph.substreams[l].services {
            for &host in &providers[&service] {
                *roles.entry(host).or_default() += 1.0;
            }
        }
        self.solve_substream(req, catalog, providers, view, l, Some(&roles))
    }

    fn solve_substream(
        &mut self,
        req: &ServiceRequest,
        catalog: &ServiceCatalog,
        providers: &ProviderMap,
        view: &SystemView,
        l: usize,
        shrink: Option<&HashMap<simnet::NodeId, f64>>,
    ) -> Result<Vec<Stage>, ComposeError> {
        let share = |host: simnet::NodeId| -> f64 {
            shrink.map_or(1.0, |r| r.get(&host).copied().unwrap_or(1.0))
        };
        let services = &req.graph.substreams[l].services;
        let gains = gain_prefix(catalog, services);
        let delivery_gain = gains[services.len()];
        // Required flow in source-rate units.
        let source_rate = req.rates[l] / delivery_gain;
        let target = (source_rate * RATE_SCALE).round() as i64;
        if target == 0 {
            return Err(ComposeError::InsufficientCapacity { substream: l });
        }

        // Transfer-edge cost between two hosts, hoisted so the scratch
        // borrows below don't alias `self`.
        let latencies = self.latencies.clone();
        let hop_cost = |from: usize, to: usize| -> i64 {
            match &latencies {
                Some(m) => (m.get(from, to) * LATENCY_WEIGHT).round() as i64,
                None => 0,
            }
        };

        // Reuse the retained arena and cost memo (reservations between
        // substreams change the view, so the memo scope is one solve).
        // The retained solver is rebuilt only if the (public) algorithm
        // selection changed since the last solve.
        if self.scratch.solver.algorithm() != self.algorithm {
            self.scratch.solver = FlowSolver::new(self.algorithm);
        }
        let Scratch {
            net,
            costs,
            solver,
            last_meta,
            selected,
            sorted_hosts,
        } = &mut self.scratch;
        let candidate_cap = self.candidate_cap;
        let selection = self.selection;
        let retain_solves = self.retain_solves;
        *last_meta = None;
        net.reset(2);
        costs.begin(view.len());
        let src = 0usize;
        let dst = 1usize;

        // Source uplink: SRC -> gate, capacity = remaining output rate of
        // the origin node (in source units, which *are* its native units),
        // cost = the origin's drop ratio.
        let src_gate = net.add_node();
        net.add_edge(
            src,
            src_gate,
            to_milli(view.out_rate_capacity(req.source, req.unit_bits) / share(req.source)),
            costs.get(view, req.source),
        );

        // Per layer: candidate hosts, each node-split. Hosts whose r_max
        // rounds to zero capacity are pruned before graph construction —
        // they could never carry flow, and on a loaded system they would
        // otherwise inflate every inter-layer edge product.
        let mut layer_nodes: Vec<Vec<(usize, usize, usize)>> = Vec::new(); // (in, out, host)
        let mut internal_edges: Vec<Vec<mincostflow::EdgeId>> = Vec::new();
        for (i, &service) in services.iter().enumerate() {
            let ratio = catalog.get(service).rate_ratio;
            let all_hosts = &providers[&service];
            // Capped enumeration: keep only the k candidates with the
            // most remaining bottleneck bandwidth. Selection is a pure
            // function of (view, providers, k) — the view does not move
            // between the plain solve and a conservative re-solve of the
            // same substream, so both see the same candidate set.
            let hosts: &[simnet::NodeId] = match candidate_cap {
                Some(k) if all_hosts.len() > k => {
                    let sorted: &[simnet::NodeId] = if all_hosts.windows(2).all(|w| w[0] < w[1]) {
                        all_hosts
                    } else {
                        sorted_hosts.clear();
                        sorted_hosts.extend_from_slice(all_hosts);
                        sorted_hosts.sort_unstable();
                        sorted_hosts.dedup();
                        sorted_hosts
                    };
                    match selection {
                        CandidateSelection::Indexed => {
                            view.select_top_candidates_indexed(sorted, k, selected)
                        }
                        CandidateSelection::Linear => {
                            view.select_top_candidates_linear(sorted, k, selected)
                        }
                    }
                    selected
                }
                _ => all_hosts,
            };
            let mut this_layer = Vec::with_capacity(hosts.len());
            let mut this_edges = Vec::with_capacity(hosts.len());
            let exec_secs = catalog.get(service).exec_time.as_secs_f64();
            for &host in hosts {
                // Native r_max expressed in source units (divide by gain),
                // bounded by the host's NICs and (when enabled) its CPU.
                let native = view.max_rate_with_cpu(host, req.unit_bits, ratio, exec_secs);
                let cap = to_milli(native / share(host) / gains[i]);
                if cap <= 0 {
                    continue;
                }
                let v_in = net.add_node();
                let v_out = net.add_node();
                // Per-host cost hoisted out of the edge wiring below and
                // memoized across layers (provider sets overlap).
                let e = net.add_edge(v_in, v_out, cap, costs.get(view, host));
                this_layer.push((v_in, v_out, host));
                this_edges.push(e);
            }
            if this_layer.is_empty() {
                // Every candidate is saturated; no flow can cross this
                // layer, so the substream is unadmittable as a whole.
                return Err(ComposeError::InsufficientCapacity { substream: l });
            }
            // Wire from previous layer (or the source gate).
            match layer_nodes.last() {
                None => {
                    for &(v_in, _, host) in &this_layer {
                        net.add_edge(src_gate, v_in, INF_CAP, hop_cost(req.source, host));
                    }
                }
                Some(prev) => {
                    for &(_, p_out, p_host) in prev {
                        for &(v_in, _, host) in &this_layer {
                            net.add_edge(p_out, v_in, INF_CAP, hop_cost(p_host, host));
                        }
                    }
                }
            }
            layer_nodes.push(this_layer);
            internal_edges.push(this_edges);
        }

        // Destination downlink, in source units.
        let dst_gate = net.add_node();
        for &(_, v_out, host) in layer_nodes.last().expect("non-empty substream") {
            net.add_edge(v_out, dst_gate, INF_CAP, hop_cost(host, req.destination));
        }
        net.add_edge(
            dst_gate,
            dst,
            to_milli(
                view.in_rate_capacity(req.destination, req.unit_bits)
                    / share(req.destination)
                    / delivery_gain,
            ),
            costs.get(view, req.destination),
        );

        match solver.solve(net, src, dst, target) {
            Ok(_) => {}
            Err(_) => return Err(ComposeError::InsufficientCapacity { substream: l }),
        }

        // Record what incremental repair needs (plain path only: the
        // conservative shares bake role-split capacities into the arcs,
        // which a later repair must not treat as the host's true r_max).
        // With retention off — the batch admitter's worker arenas — the
        // snapshot would be discarded unread, so skip its allocations.
        if shrink.is_none() && retain_solves {
            let layers: Vec<Vec<(mincostflow::EdgeId, simnet::NodeId)>> = layer_nodes
                .iter()
                .zip(&internal_edges)
                .map(|(nodes, edges)| {
                    nodes
                        .iter()
                        .zip(edges)
                        .map(|(&(_, _, host), &e)| (e, host))
                        .collect()
                })
                .collect();
            // Layer hosts only: the endpoint arcs are shared by every
            // path, so a uniform cost shift there never changes which
            // placements are optimal and must not poison the repair
            // path's drift check.
            let mut hosts: Vec<simnet::NodeId> = layers.iter().flatten().map(|&(_, h)| h).collect();
            hosts.sort_unstable();
            hosts.dedup();
            let host_costs = hosts.into_iter().map(|h| (h, costs.get(view, h))).collect();
            *last_meta = Some(SolveMeta { layers, host_costs });
        }

        // Read placements off the internal edges.
        let mut stages = Vec::with_capacity(services.len());
        for (i, &service) in services.iter().enumerate() {
            let mut placements = Vec::new();
            for (slot, &(_, _, host)) in layer_nodes[i].iter().enumerate() {
                let flow = net.flow_on(internal_edges[i][slot]);
                if flow > 0 {
                    // Convert back to the host's native ingest rate.
                    let native = flow as f64 / RATE_SCALE * gains[i];
                    placements.push(Placement {
                        node: host,
                        rate: native,
                    });
                }
            }
            debug_assert!(!placements.is_empty(), "positive flow crosses every layer");
            stages.push(Stage {
                service,
                placements,
            });
        }
        Ok(stages)
    }
}

#[inline]
fn to_milli(rate: f64) -> i64 {
    (rate.max(0.0) * RATE_SCALE).floor() as i64
}

/// Whether the solved substream's aggregate demand on any host exceeds
/// its remaining availability. Per layer the flow respects the capacity
/// arcs, so an overshoot can only come from one host carrying flow in
/// several layers (plus possibly serving as an endpoint) of the same
/// solve. Demand is the *ledger* commitment ([`for_each_commitment`],
/// same-node transfer discounts included) — exactly what the engine
/// will commit on admission — so passing this check per substream
/// guarantees, by induction over substreams, that the admission bound
/// (committed ≤ capacity × headroom) holds. `req`/`graph` are the
/// single-substream pair during composition; the repair path reuses the
/// check over a whole candidate graph (the formula is per-ledger-entry,
/// so it aggregates correctly either way).
pub(crate) fn overcommits_a_host(
    req: &ServiceRequest,
    catalog: &ServiceCatalog,
    view: &SystemView,
    graph: &ExecutionGraph,
) -> bool {
    let mut used: HashMap<simnet::NodeId, (f64, f64, f64)> = HashMap::new();
    for_each_commitment(catalog, req, graph, &mut |v, din, dout, dcpu| {
        let e = used.entry(v).or_default();
        e.0 += din;
        e.1 += dout;
        e.2 += dcpu;
    });
    // Solver rounding grants at most ~one milli-unit per arc; stay well
    // inside the auditor's admission-bound slack.
    let eps = 32.0;
    used.iter().any(|(&host, &(in_bits, out_bits, cpu))| {
        in_bits > view.avail(host).get(0) + eps
            || out_bits > view.avail(host).get(1) + eps
            || cpu > view.cpu_avail(host) + 1e-9
    })
}

/// Shared context of one exhaustive single-placement search.
struct SearchCtx<'a> {
    req: &'a ServiceRequest,
    catalog: &'a ServiceCatalog,
    providers: &'a ProviderMap,
    services: &'a [usize],
    gains: &'a [f64],
    source_rate: f64,
}

/// Last-resort fallback for one substream: backtracking search over
/// every feasible single-placement assignment, mirroring the baselines'
/// sequential feasibility rule (`compose_single_placement`). Complete
/// over single placements, so whenever the greedy or random baseline
/// could place this substream — whatever hosts they happened to pick —
/// this search finds an assignment too, and min-cost keeps its
/// dominance over them even when the coupled re-solves fail. Sequential
/// reservation keeps it within the admission bound by the same argument
/// that covers the baselines.
fn single_placement_search(
    req: &ServiceRequest,
    catalog: &ServiceCatalog,
    providers: &ProviderMap,
    view: &SystemView,
    l: usize,
) -> Option<Vec<Stage>> {
    let services = &req.graph.substreams[l].services;
    let gains = gain_prefix(catalog, services);
    let delivery_gain = gains[services.len()];
    let source_rate = req.rates[l] / delivery_gain;
    if view.out_rate_capacity(req.source, req.unit_bits) < source_rate
        || view.in_rate_capacity(req.destination, req.unit_bits) < req.rates[l]
    {
        return None;
    }
    let mut scratch = view.clone();
    scratch.reserve_source(req.source, req.unit_bits, source_rate);
    scratch.reserve_destination(req.destination, req.unit_bits, req.rates[l]);
    let ctx = SearchCtx {
        req,
        catalog,
        providers,
        services,
        gains: &gains,
        source_rate,
    };
    let mut chosen = Vec::with_capacity(services.len());
    // Backtracking is exponential in the worst case; the budget bounds
    // pathological catalogs (hundreds of providers per service) without
    // touching realistic ones, which explore a few dozen candidates.
    let mut budget = 10_000usize;
    if !place_from(&ctx, &scratch, 0, &mut chosen, &mut budget) {
        return None;
    }
    Some(
        services
            .iter()
            .zip(&chosen)
            .enumerate()
            .map(|(i, (&service, &node))| Stage {
                service,
                placements: vec![Placement {
                    node,
                    rate: ctx.source_rate * ctx.gains[i],
                }],
            })
            .collect(),
    )
}

/// Recursive step of [`single_placement_search`]: place stage `i` on
/// each feasible host in turn, reserving into a fresh scratch view so
/// deeper stages see the choice, and backtrack on dead ends.
fn place_from(
    ctx: &SearchCtx<'_>,
    view: &SystemView,
    i: usize,
    chosen: &mut Vec<simnet::NodeId>,
    budget: &mut usize,
) -> bool {
    if i == ctx.services.len() {
        return true;
    }
    let svc = ctx.catalog.get(ctx.services[i]);
    let ratio = svc.rate_ratio;
    let exec_secs = svc.exec_time.as_secs_f64();
    let ingest = ctx.source_rate * ctx.gains[i];
    for &host in &ctx.providers[&ctx.services[i]] {
        if *budget == 0 {
            return false;
        }
        *budget -= 1;
        if view.max_rate_with_cpu(host, ctx.req.unit_bits, ratio, exec_secs) < ingest {
            continue;
        }
        let mut next = view.clone();
        next.reserve_component(host, ctx.req.unit_bits, ratio, ingest);
        next.reserve_cpu(host, exec_secs, ingest);
        chosen.push(host);
        if place_from(ctx, &next, i + 1, chosen, budget) {
            return true;
        }
        chosen.pop();
    }
    false
}

/// Arc cost of routing through a host: observed drop ratio plus the
/// load-proportional prior (see [`UTIL_WEIGHT`]).
#[inline]
pub(crate) fn cost_of(view: &SystemView, host: simnet::NodeId) -> i64 {
    let observed = (view.drop_ratio(host).clamp(0.0, 1.0) * COST_SCALE).round() as i64;
    let prior = (view.utilization(host) * UTIL_WEIGHT).round() as i64;
    observed + prior
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::ServiceCatalog;
    use desim::{SimDuration, SimRng};
    use simnet::{kbps, Topology, TopologyBuilder};

    fn providers_for(pairs: &[(usize, &[usize])]) -> ProviderMap {
        pairs
            .iter()
            .map(|&(s, hosts)| (s, hosts.to_vec()))
            .collect()
    }

    /// 4 nodes at 1 Mbps; node 0 = source, node 3 = destination.
    fn flat_view() -> SystemView {
        SystemView::fresh(&Topology::uniform(
            4,
            1_000_000.0,
            SimDuration::from_millis(10),
        ))
    }

    #[test]
    fn single_host_carries_whole_rate() {
        let catalog = ServiceCatalog::synthetic(1, 1);
        let mut view = flat_view();
        let req = ServiceRequest::chain(&[0], 20.0, 0, 3);
        let providers = providers_for(&[(0, &[1])]);
        let g = MinCostComposer::default()
            .compose(&req, &catalog, &providers, &mut view, &mut SimRng::new(0))
            .unwrap();
        assert_eq!(g.substreams.len(), 1);
        let stage = &g.substreams[0][0];
        assert_eq!(stage.placements.len(), 1);
        assert_eq!(stage.placements[0].node, 1);
        assert!((stage.total_rate() - 20.0).abs() < 1e-6);
        assert!(!g.has_splitting());
        // Reservations applied: node 1 lost 20 du/s both ways.
        let expect = 1_000_000.0 / 8192.0 - 20.0;
        assert!((view.in_rate_capacity(1, 8192) - expect).abs() < 1e-3);
    }

    #[test]
    fn splits_when_one_host_is_too_small() {
        // Host 1 can take only ~60 du/s (500 Kbps NICs), host 2 is big.
        let catalog = ServiceCatalog::synthetic(1, 2);
        let mut b = TopologyBuilder::new().default_latency(SimDuration::from_millis(10));
        b.node(kbps(10_000.0), kbps(10_000.0)); // 0: source
        b.node(kbps(500.0), kbps(500.0)); // 1: small host
        b.node(kbps(10_000.0), kbps(10_000.0)); // 2: big host
        b.node(kbps(10_000.0), kbps(10_000.0)); // 3: destination
        let mut view = SystemView::fresh(&b.build());
        // Make host 2 look congested so the solver prefers host 1 first.
        view.set_drop_ratio(2, 0.2);
        let req = ServiceRequest::chain(&[0], 100.0, 0, 3);
        let providers = providers_for(&[(0, &[1, 2])]);
        let g = MinCostComposer::default()
            .compose(&req, &catalog, &providers, &mut view, &mut SimRng::new(0))
            .unwrap();
        let stage = &g.substreams[0][0];
        assert_eq!(stage.placements.len(), 2, "expected rate splitting");
        assert!(g.has_splitting());
        assert!((stage.total_rate() - 100.0).abs() < 1e-3);
        // The cheap small host is saturated (~61 du/s), remainder spills.
        let small = stage.placements.iter().find(|p| p.node == 1).unwrap();
        assert!(
            small.rate > 55.0 && small.rate < 62.0,
            "small {}",
            small.rate
        );
    }

    #[test]
    fn prefers_low_drop_hosts() {
        let catalog = ServiceCatalog::synthetic(1, 3);
        let mut view = flat_view();
        view.set_drop_ratio(1, 0.5);
        view.set_drop_ratio(2, 0.01);
        let req = ServiceRequest::chain(&[0], 10.0, 0, 3);
        let providers = providers_for(&[(0, &[1, 2])]);
        let g = MinCostComposer::default()
            .compose(&req, &catalog, &providers, &mut view, &mut SimRng::new(0))
            .unwrap();
        let stage = &g.substreams[0][0];
        assert_eq!(stage.placements.len(), 1);
        assert_eq!(stage.placements[0].node, 2);
    }

    #[test]
    fn rejects_when_capacity_missing_and_view_untouched() {
        let catalog = ServiceCatalog::synthetic(1, 4);
        let mut view = flat_view();
        let before = view.clone();
        // 1 Mbps NIC ≈ 122 du/s; ask for 400.
        let req = ServiceRequest::chain(&[0], 400.0, 0, 3);
        let providers = providers_for(&[(0, &[1, 2])]);
        let err = MinCostComposer::default()
            .compose(&req, &catalog, &providers, &mut view, &mut SimRng::new(0))
            .unwrap_err();
        assert_eq!(err, ComposeError::InsufficientCapacity { substream: 0 });
        for v in 0..4 {
            assert_eq!(view.avail(v), before.avail(v), "view mutated at {v}");
        }
    }

    #[test]
    fn splitting_admits_what_single_placement_cannot() {
        // Two 500 Kbps hosts: each caps at ~61 du/s, together 122.
        let catalog = ServiceCatalog::synthetic(1, 5);
        let mut b = TopologyBuilder::new().default_latency(SimDuration::from_millis(10));
        b.node(kbps(10_000.0), kbps(10_000.0));
        b.node(kbps(500.0), kbps(500.0));
        b.node(kbps(500.0), kbps(500.0));
        b.node(kbps(10_000.0), kbps(10_000.0));
        let mut view = SystemView::fresh(&b.build());
        let req = ServiceRequest::chain(&[0], 100.0, 0, 3);
        let providers = providers_for(&[(0, &[1, 2])]);
        let g = MinCostComposer::default()
            .compose(&req, &catalog, &providers, &mut view, &mut SimRng::new(0))
            .unwrap();
        assert_eq!(g.substreams[0][0].placements.len(), 2);
    }

    #[test]
    fn multi_substream_updates_capacity_between_solves() {
        // Destination downlink fits 122 du/s total; two substreams of 70
        // each must fail on the second solve.
        let catalog = ServiceCatalog::synthetic(2, 6);
        let mut view = flat_view();
        let req = ServiceRequest::multi(vec![vec![0], vec![1]], vec![70.0, 70.0], 0, 3);
        let providers = providers_for(&[(0, &[1]), (1, &[2])]);
        let err = MinCostComposer::default()
            .compose(&req, &catalog, &providers, &mut view, &mut SimRng::new(0))
            .unwrap_err();
        assert_eq!(err, ComposeError::InsufficientCapacity { substream: 1 });
        // A pair that fits together is accepted.
        let req2 = ServiceRequest::multi(vec![vec![0], vec![1]], vec![50.0, 50.0], 0, 3);
        let g = MinCostComposer::default()
            .compose(&req2, &catalog, &providers, &mut view, &mut SimRng::new(0))
            .unwrap();
        assert_eq!(g.substreams.len(), 2);
    }

    #[test]
    fn rate_ratio_scales_downstream_capacity() {
        // Service 0 doubles the rate (R=2): a downstream-ish check that
        // delivery of 40 du/s needs only 20 du/s ingest at the component.
        let catalog = ServiceCatalog::new(vec![crate::model::Service {
            id: 0,
            name: "upsample".into(),
            exec_time: SimDuration::from_millis(2),
            rate_ratio: 2.0,
        }]);
        let mut view = flat_view();
        let req = ServiceRequest::chain(&[0], 40.0, 0, 3);
        let providers = providers_for(&[(0, &[1])]);
        let g = MinCostComposer::default()
            .compose(&req, &catalog, &providers, &mut view, &mut SimRng::new(0))
            .unwrap();
        let stage = &g.substreams[0][0];
        assert!(
            (stage.total_rate() - 20.0).abs() < 1e-6,
            "{}",
            stage.total_rate()
        );
    }

    #[test]
    fn multi_layer_reuse_cannot_overcommit_a_host() {
        // Host 1 provides layers 0 and 2 (layer 1 lives elsewhere), so
        // the layered graph offers it two independent capacity arcs. A
        // rate that fits either arc alone but not both (~122 du/s NICs,
        // 2 × 80 du/s aggregate) must be rejected: the admission bound
        // is on the host's aggregate commitment, and before the
        // overcommit check one solve would happily route through both
        // copies of the host.
        let catalog = ServiceCatalog::synthetic(3, 9);
        let mut b = TopologyBuilder::new().default_latency(SimDuration::from_millis(10));
        b.node(kbps(10_000.0), kbps(10_000.0)); // 0: source
        b.node(kbps(1_000.0), kbps(1_000.0)); // 1: reused host
        b.node(kbps(10_000.0), kbps(10_000.0)); // 2: middle host
        b.node(kbps(10_000.0), kbps(10_000.0)); // 3: destination
        let mut view = SystemView::fresh(&b.build());
        let providers = providers_for(&[(0, &[1]), (1, &[2]), (2, &[1])]);
        let before = view.clone();
        let req = ServiceRequest::chain(&[0, 1, 2], 80.0, 0, 3);
        let err = MinCostComposer::default()
            .compose(&req, &catalog, &providers, &mut view, &mut SimRng::new(0))
            .unwrap_err();
        assert_eq!(err, ComposeError::InsufficientCapacity { substream: 0 });
        for v in 0..4 {
            assert_eq!(view.avail(v), before.avail(v), "view mutated at {v}");
        }
        // A rate both visits fit together (2 × 50 ≤ 122) is admitted,
        // and the reused host's reservation covers both visits.
        let req = ServiceRequest::chain(&[0, 1, 2], 50.0, 0, 3);
        MinCostComposer::default()
            .compose(&req, &catalog, &providers, &mut view, &mut SimRng::new(0))
            .unwrap();
        assert!(view.in_rate_capacity(1, 8192) < 23.0);
    }

    #[test]
    fn falls_back_to_single_placement_when_split_resolve_fails() {
        // Same shape, but layer 2 has an alternative (congested) host.
        // The solver prefers routing layers 0 and 2 through host 1,
        // which overcommits it; the conservative role-split re-solve
        // also fails (half of host 1's capacity cannot carry layer 0
        // alone). The single-placement fallback must still admit by
        // pushing layer 2 onto host 2 — whatever a sequential baseline
        // can place, min-cost places too.
        let catalog = ServiceCatalog::synthetic(3, 10);
        let mut b = TopologyBuilder::new().default_latency(SimDuration::from_millis(10));
        b.node(kbps(10_000.0), kbps(10_000.0)); // 0: source
        b.node(kbps(1_000.0), kbps(1_000.0)); // 1: preferred host
        b.node(kbps(10_000.0), kbps(10_000.0)); // 2: congested alternative
        b.node(kbps(10_000.0), kbps(10_000.0)); // 3: destination
        let mut view = SystemView::fresh(&b.build());
        view.set_drop_ratio(2, 0.5);
        let providers = providers_for(&[(0, &[1]), (1, &[2]), (2, &[1, 2])]);
        let req = ServiceRequest::chain(&[0, 1, 2], 80.0, 0, 3);
        let g = MinCostComposer::default()
            .compose(&req, &catalog, &providers, &mut view, &mut SimRng::new(0))
            .unwrap();
        let last = &g.substreams[0][2];
        assert_eq!(last.placements.len(), 1);
        assert_eq!(last.placements[0].node, 2, "layer 2 must avoid host 1");
        assert!((last.total_rate() - 80.0).abs() < 1e-6);
    }

    #[test]
    fn all_flow_algorithms_give_equal_cost_compositions() {
        use mincostflow::Algorithm;
        let catalog = ServiceCatalog::synthetic(2, 7);
        let req = ServiceRequest::chain(&[0, 1], 90.0, 0, 3);
        let providers = providers_for(&[(0, &[1, 2]), (1, &[1, 2])]);
        let run = |alg| {
            let mut view = flat_view();
            view.set_drop_ratio(1, 0.1);
            MinCostComposer::with_algorithm(alg)
                .compose(&req, &catalog, &providers, &mut view, &mut SimRng::new(0))
                .map(|g| {
                    // Total "cost" proxy: rate-weighted drop ratio.
                    g.substreams
                        .iter()
                        .flatten()
                        .flat_map(|s| s.placements.iter())
                        .map(|p| p.rate * if p.node == 1 { 0.1 } else { 0.0 })
                        .sum::<f64>()
                })
        };
        let a = run(Algorithm::DijkstraSsp).unwrap();
        let b = run(Algorithm::SpfaSsp).unwrap();
        let c = run(Algorithm::CostScaling).unwrap();
        let d = run(Algorithm::DialSsp).unwrap();
        let e = run(Algorithm::CapacityScaling).unwrap();
        assert!((a - b).abs() < 1e-6);
        assert!((a - c).abs() < 1e-6);
        assert!((a - d).abs() < 1e-6);
        assert!((a - e).abs() < 1e-6);
    }
}
