//! The traced run's probe: root spans around every engine call, plus
//! outside-in replays of the layers underneath.
//!
//! "Replay" means: just before the engine call, the harness calls the
//! layer's *public* function standalone on the inputs that call is about
//! to see, and discards the result — a harness-owned `Overlay` and
//! `ServiceDirectory` built the way `EngineBuilder::build` builds them,
//! `Engine::view_snapshot()` for the view, a `MinCostComposer` configured
//! like the engine's. Nothing here reaches into the engine, so nothing
//! here can perturb it: the traced repetition must reproduce the untraced
//! repetitions' digest, and `run` checks that it does.
//!
//! Layers with no per-call inputs worth capturing (`desim`, `simnet`,
//! `sched`, `monitor`, candidate selection) are replayed once, after the
//! lifecycle, at the population the workload reached.

use crate::driver::{Call, Probe};
use crate::trace::Tracer;
use crate::workloads::World;
use desim::{EventQueue, SimDuration, SimRng, SimTime};
use mincostflow::{Algorithm, EdgeId, FlowNetwork, FlowSolver, RepairTier};
use monitor::{OutcomeWindow, ThroughputMeter};
use overlay::Overlay;
use rasc_core::catalog::ServiceDirectory;
use rasc_core::compose::{
    BatchAdmitter, BatchItem, Composer, LatencyMatrix, MinCostComposer, ProviderMap,
};
use rasc_core::engine::Engine;
use rasc_core::model::{AppId, ServiceRequest};
use rasc_core::view::SystemView;
use sched::{Job, JobMeta, LlfScheduler, Scheduler};
use simnet::{Network, NetworkConfig, NodeId};
use std::collections::HashMap;
use std::sync::Arc;
use std::time::Instant;

/// Single submissions kept for the end-of-episode batch replay.
const RECENT_ITEMS: usize = 128;
/// At most this many affected apps are replayed per crash.
const REPAIRS_PER_CRASH: usize = 4;

/// Timing samples and counts the replays produce, in nanoseconds unless
/// named otherwise. One field per per-layer metric (or its inputs).
#[derive(Clone, Debug, Default)]
pub struct Samples {
    /// `Overlay::build`, per episode.
    pub overlay_build_ns: Vec<u64>,
    /// `ServiceDirectory::explicit`, per episode.
    pub catalog_build_ns: Vec<u64>,
    /// `Topology` generation, once.
    pub topology_build_ns: u64,
    /// `SystemView::with_headroom`, once.
    pub view_build_ns: u64,
    /// All `discover` calls of one admission call, summed.
    pub discover_ns: Vec<u64>,
    /// `ServiceDirectory::discover` calls made.
    pub discover_calls: u64,
    /// `Engine::view_snapshot`.
    pub snapshot_ns: Vec<u64>,
    /// `MinCostComposer::compose` per request.
    pub compose_ns: Vec<u64>,
    /// Of those, rejected.
    pub compose_rejects: u64,
    /// Root `submit` span minus its replayed children, per call.
    pub submit_self_ns: Vec<u64>,
    /// Σ replayed children of admission calls.
    pub submit_children_ns: u64,
    /// Σ root admission spans.
    pub submit_root_ns: u64,
    /// `BatchAdmitter::admit_batch` on one worker: (ns, admitted).
    pub batch_t1: Vec<(u64, u64)>,
    /// The same batches on two workers.
    pub batch_t2_ns: Vec<u64>,
    /// Reconcile conflicts in the one-worker replays.
    pub batch_conflicts: u64,
    /// Requests in the replayed batches.
    pub batch_requests: u64,
    /// `SystemView::clone_from`.
    pub view_clone_ns: Vec<u64>,
    /// `Overlay::remove`.
    pub overlay_remove_ns: Vec<u64>,
    /// `ServiceDirectory::handle_failure`.
    pub handle_failure_ns: Vec<u64>,
    /// `Composer::repair` attempts.
    pub repair_ns: Vec<u64>,
    /// Of those, declined (`None`).
    pub repair_declines: u64,
    /// Discover + cold compose of an affected app.
    pub cold_recompose_ns: Vec<u64>,
    /// `FlowSolver::solve`, `Algorithm::default()`.
    pub mcf_solve_ns: Vec<u64>,
    /// `FlowSolver::solve`, `Algorithm::NetworkSimplex`.
    pub mcf_simplex_ns: Vec<u64>,
    /// Arcs per replayed layered network.
    pub mcf_arcs: Vec<f64>,
    /// Nodes per replayed layered network.
    pub mcf_nodes: Vec<f64>,
    /// `FlowSolver::repair_deletions` after the default solve.
    pub mcf_repair_ns: Vec<u64>,
    /// Which tier served each of those: [warm basis, phased, SPFA].
    pub mcf_repair_tiers: [u64; 3],
    /// Largest number of harness-known live apps seen.
    pub peak_live_apps: usize,
    /// Mean stages of the requests admitted.
    pub stages_sum: u64,
    /// Requests behind `stages_sum`.
    pub stages_count: u64,
    /// Post-lifecycle standalone figures (see [`Standalone`]).
    pub standalone: Standalone,
}

/// Figures from the standalone replays that run once after the lifecycle.
#[derive(Clone, Debug, Default)]
pub struct Standalone {
    /// Event-queue hold model: ns per pop + schedule.
    pub queue_ns_per_event: f64,
    /// Population the hold model ran at.
    pub queue_pending: f64,
    /// `parallel_map_threads(2, …)` over no-op items, µs per call.
    pub pool_call_us: f64,
    /// `Network::send` per-message ns, one sample per 256-send block.
    pub send_ns: Vec<f64>,
    /// LLF enqueue + dispatch at half capacity, ns per job.
    pub llf_ns_per_job: f64,
    /// `ThroughputMeter::record`, ns.
    pub meter_ns_per_record: f64,
    /// `OutcomeWindow::record`, ns.
    pub window_ns_per_outcome: f64,
    /// `select_top_candidates_linear`, µs per call.
    pub select_linear_us: Vec<f64>,
    /// `select_top_candidates_indexed`, µs per call.
    pub select_indexed_us: Vec<f64>,
    /// Transaction of six reservations rolled back, µs.
    pub rollback_us: Vec<f64>,
    /// `Overlay::route_path`, µs per lookup.
    pub route_us: Vec<f64>,
    /// Mean hops of those lookups.
    pub route_hops_mean: f64,
}

/// The state of one episode's harness-owned layer copies.
struct Owned {
    world: World,
    overlay: Overlay,
    dir: ServiceDirectory,
    latencies: Arc<LatencyMatrix>,
    /// Mirrors the engine's composer: retains what it composes.
    composer: MinCostComposer,
    /// Cold recompositions: no retention, so the mirror's cache is left
    /// alone.
    cold: MinCostComposer,
    batch_t1: BatchAdmitter,
    batch_t2: BatchAdmitter,
    scratch_view: Option<SystemView>,
    /// Apps the harness admitted: request and expiry.
    known: HashMap<AppId, (ServiceRequest, SimTime)>,
    /// The id the mirror composer retained its last solve under.
    retained_as: Option<AppId>,
    /// The latest single submissions, for [`Replay::before_drain`].
    recent: Vec<BatchItem>,
    /// Whether the engine was given a batch this episode.
    had_batch: bool,
}

/// The probe of a traced repetition.
pub struct Replay {
    /// Spans recorded so far.
    pub tracer: Tracer,
    /// Samples recorded so far.
    pub samples: Samples,
    own_ns: u64,
    owned: Option<Owned>,
    rng: SimRng,
    /// The open engine call: reserved root id, Σ children ns.
    open: Option<(u32, u64)>,
    /// Iterations of each standalone loop in [`Replay::finish`].
    probe_ops: usize,
}

impl Replay {
    /// A probe whose standalone replays run `probe_ops` iterations each.
    pub fn new(probe_ops: usize) -> Self {
        Replay {
            tracer: Tracer::default(),
            samples: Samples::default(),
            own_ns: 0,
            owned: None,
            rng: SimRng::new(0x5245_504C_4159),
            open: None,
            probe_ops,
        }
    }
}

fn ns(from: Instant, to: Instant) -> u64 {
    (to - from).as_nanos() as u64
}

/// A composer wired the way `EngineBuilder::build` wires the engine's.
fn composer_like_engine(
    algorithm: Algorithm,
    candidate_cap: Option<usize>,
    latencies: &Arc<LatencyMatrix>,
) -> MinCostComposer {
    let mut c = MinCostComposer::with_algorithm(algorithm).with_latencies(latencies.clone());
    if let Some(k) = candidate_cap {
        c = c.with_candidate_cap(k);
    }
    c
}

impl Replay {
    /// Times `f` as a replayed child span of the open engine call.
    fn child<T>(
        &mut self,
        op: u64,
        name: &'static str,
        f: impl FnOnce(&mut Self) -> T,
    ) -> (T, u64) {
        let start = Instant::now();
        let value = f(self);
        let end = Instant::now();
        let parent = self.open.map_or(0, |(id, _)| id);
        self.tracer.record(None, parent, op, name, start, end, true);
        (value, ns(start, end))
    }

    /// Discovers the providers of every distinct service `req` names,
    /// exactly as `handle_submit` does, on the harness-owned registry.
    fn discover(&mut self, req: &ServiceRequest) -> ProviderMap {
        let o = self.owned.as_ref().expect("episode started");
        let mut services: Vec<usize> = req
            .graph
            .substreams
            .iter()
            .flat_map(|s| s.services.iter().copied())
            .collect();
        services.sort_unstable();
        services.dedup();
        let mut providers = ProviderMap::new();
        for &s in &services {
            let (found, _path) = o.dir.discover(&o.overlay, req.source, s);
            providers.insert(s, found);
        }
        self.samples.discover_calls += services.len() as u64;
        providers
    }

    fn prune(&mut self, now: SimTime) {
        let o = self.owned.as_mut().expect("episode started");
        let composer = &mut o.composer;
        o.known.retain(|&app, &mut (_, expires)| {
            let keep = expires > now;
            if !keep {
                composer.discard_retained(app);
            }
            keep
        });
    }

    fn before_submit(&mut self, op: u64, req: &ServiceRequest, engine: &mut Engine) -> u64 {
        self.prune(engine.now());
        let (providers, discover_ns) = self.child(op, "catalog.discover", |s| s.discover(req));
        self.samples.discover_ns.push(discover_ns);
        let (mut view, snapshot_ns) =
            self.child(op, "engine.view_snapshot", |_| engine.view_snapshot());
        self.samples.snapshot_ns.push(snapshot_ns);
        // The layered network the composer is about to build and solve,
        // rebuilt out here from the same view and providers.
        self.replay_flow(op, req, &providers, &view);
        let predicted = engine.app_count();
        let (ok, compose_ns) = self.child(op, "compose.compose", |s| {
            let o = s.owned.as_mut().expect("episode started");
            let r = o
                .composer
                .compose(req, &o.world.catalog, &providers, &mut view, &mut s.rng);
            if r.is_ok() {
                o.composer.retain_for_repair(predicted);
                o.retained_as = Some(predicted);
            }
            r.is_ok()
        });
        self.samples.compose_ns.push(compose_ns);
        self.samples.compose_rejects += !ok as u64;
        let recent = &mut self.owned.as_mut().expect("episode started").recent;
        if recent.len() == RECENT_ITEMS {
            recent.remove(0);
        }
        recent.push((req.clone(), providers));
        discover_ns + snapshot_ns + compose_ns
    }

    fn before_batch(&mut self, op: u64, reqs: &[ServiceRequest], engine: &mut Engine) -> u64 {
        self.prune(engine.now());
        self.owned.as_mut().expect("episode started").had_batch = true;
        // Discovery once per distinct (source, service), as the engine's
        // batch path does it.
        let (items, discover_ns) = self.child(op, "catalog.discover", |s| {
            let mut seen: HashMap<(NodeId, usize), Vec<NodeId>> = HashMap::new();
            let mut items: Vec<BatchItem> = Vec::with_capacity(reqs.len());
            for req in reqs {
                let mut providers = ProviderMap::new();
                for sub in &req.graph.substreams {
                    for &svc in &sub.services {
                        let found = seen.entry((req.source, svc)).or_insert_with(|| {
                            let o = s.owned.as_ref().expect("episode started");
                            s.samples.discover_calls += 1;
                            o.dir.discover(&o.overlay, req.source, svc).0
                        });
                        providers.insert(svc, found.clone());
                    }
                }
                items.push((req.clone(), providers));
            }
            items
        });
        self.samples.discover_ns.push(discover_ns);
        let (view, snapshot_ns) =
            self.child(op, "engine.view_snapshot", |_| engine.view_snapshot());
        self.samples.snapshot_ns.push(snapshot_ns);
        if let Some((req, providers)) = items.first() {
            self.replay_flow(op, req, providers, &view);
        }
        let t1_ns = self.replay_batch(op, &items, &view);
        // The engine's call contains one batch admission, on the workers
        // it was given; the second replay is a comparison, not a child.
        discover_ns + snapshot_ns + t1_ns
    }

    /// `BatchAdmitter::admit_batch` over `items` on one worker, then on
    /// two, each against its own copy of `view`. Returns the one-worker
    /// time.
    fn replay_batch(&mut self, op: u64, items: &[BatchItem], view: &SystemView) -> u64 {
        let seed = self.rng.next_u64();
        let mut scratch = self
            .owned
            .as_mut()
            .expect("episode started")
            .scratch_view
            .take()
            .unwrap_or_else(|| view.clone());
        let ((), clone_ns) = self.child(op, "view.clone_from", |_| scratch.clone_from(view));
        self.samples.view_clone_ns.push(clone_ns);
        let (outcome, t1_ns) = self.child(op, "compose.batch", |s| {
            let o = s.owned.as_ref().expect("episode started");
            o.batch_t1
                .admit_batch(&mut scratch, &o.world.catalog, items, seed)
        });
        self.samples
            .batch_t1
            .push((t1_ns, outcome.admitted() as u64));
        self.samples.batch_conflicts += outcome.stats.conflicts as u64;
        self.samples.batch_requests += items.len() as u64;
        scratch.clone_from(view);
        let (_, t2_ns) = self.child(op, "compose.batch_t2", |s| {
            let o = s.owned.as_ref().expect("episode started");
            o.batch_t2
                .admit_batch(&mut scratch, &o.world.catalog, items, seed)
        });
        self.samples.batch_t2_ns.push(t2_ns);
        self.owned.as_mut().expect("episode started").scratch_view = Some(scratch);
        t1_ns
    }

    /// A workload that never calls `submit_batch` still gets the batch
    /// pipeline's figures: just before the drain, its most recent requests
    /// (up to [`RECENT_ITEMS`]) go through `admit_batch` as one burst
    /// against the engine's final snapshot.
    fn before_drain(&mut self, op: u64, engine: &mut Engine) {
        let o = self.owned.as_mut().expect("episode started");
        if o.had_batch || o.recent.is_empty() {
            return;
        }
        let items = std::mem::take(&mut o.recent);
        let view = engine.view_snapshot();
        self.replay_batch(op, &items, &view);
    }

    fn before_crash(&mut self, op: u64, v: NodeId, engine: &mut Engine) -> u64 {
        self.prune(engine.now());
        let ((), remove_ns) = self.child(op, "overlay.remove", |s| {
            s.owned.as_mut().expect("episode started").overlay.remove(v)
        });
        self.samples.overlay_remove_ns.push(remove_ns);
        let ((), failure_ns) = self.child(op, "catalog.handle_failure", |s| {
            let o = s.owned.as_mut().expect("episode started");
            o.dir.handle_failure(&o.overlay, v);
        });
        self.samples.handle_failure_ns.push(failure_ns);
        // Affected apps the harness knows about, oldest first.
        let mut affected: Vec<AppId> = {
            let o = self.owned.as_ref().expect("episode started");
            o.known
                .iter()
                .filter(|(&app, (req, _))| {
                    // Endpoints still standing (`v` is alive until the
                    // engine call that follows).
                    req.source != v
                        && req.destination != v
                        && engine.node_alive(req.source)
                        && engine.node_alive(req.destination)
                        && engine
                            .app_graph(app)
                            .substreams
                            .iter()
                            .flatten()
                            .any(|st| st.placements.iter().any(|p| p.node == v))
                })
                .map(|(&app, _)| app)
                .collect()
        };
        affected.sort_unstable();
        affected.truncate(REPAIRS_PER_CRASH);
        let mut children = remove_ns + failure_ns;
        if affected.is_empty() {
            return children;
        }
        // What the engine's repair will negotiate against: the measured
        // view with the dead node written off.
        let mut view = engine.view_snapshot();
        view.consume_measured(v, f64::MAX, f64::MAX);
        view.set_drop_ratio(v, 1.0);
        for app in affected {
            let req = self.owned.as_ref().expect("episode started").known[&app]
                .0
                .clone();
            let graph = engine.app_graph(app).clone();
            let (repaired, repair_ns) = self.child(op, "compose.repair", |s| {
                let o = s.owned.as_mut().expect("episode started");
                o.composer
                    .repair(app, &req, &o.world.catalog, &graph, v, &view)
                    .is_some()
            });
            self.samples.repair_ns.push(repair_ns);
            self.samples.repair_declines += !repaired as u64;
            let ((), cold_ns) = self.child(op, "compose.cold_recompose", |s| {
                let providers = s.discover(&req);
                let o = s.owned.as_mut().expect("episode started");
                // Inside a transaction that is rolled back, so the next
                // affected app sees the same view.
                view.begin_transaction();
                let _ = o
                    .cold
                    .compose(&req, &o.world.catalog, &providers, &mut view, &mut s.rng);
                view.rollback_transaction();
            });
            self.samples.cold_recompose_ns.push(cold_ns);
            // The engine does one or the other per app, not both.
            children += if repaired { repair_ns } else { cold_ns };
        }
        children
    }

    /// Rebuilds, outside the composer, the layered min-cost-flow network
    /// of `req`'s first substream — same node split, same capacities and
    /// costs from the same view, same candidate cap — and times the flow
    /// kernel on it: a cold solve with the default algorithm and with
    /// network simplex, then a repair after deleting the busiest host.
    fn replay_flow(
        &mut self,
        op: u64,
        req: &ServiceRequest,
        providers: &ProviderMap,
        view: &SystemView,
    ) {
        let o = self.owned.as_ref().expect("episode started");
        let Some(mut layered) = Layered::build(req, providers, view, &o.world, &o.latencies) else {
            return;
        };
        self.samples.mcf_arcs.push(layered.net.num_edges() as f64);
        self.samples.mcf_nodes.push(layered.net.num_nodes() as f64);
        let mut simplex_net = layered.net.clone();
        let mut solver = FlowSolver::new(Algorithm::default());
        let (solved, solve_ns) = self.child(op, "mincostflow.solve", |_| {
            solver.solve(&mut layered.net, 0, 1, layered.target).is_ok()
        });
        self.samples.mcf_solve_ns.push(solve_ns);
        let (_, simplex_ns) = self.child(op, "mincostflow.solve_simplex", |_| {
            FlowSolver::new(Algorithm::NetworkSimplex)
                .solve(&mut simplex_net, 0, 1, layered.target)
                .is_ok()
        });
        self.samples.mcf_simplex_ns.push(simplex_ns);
        if !solved {
            return;
        }
        // Crash of the host carrying the most flow.
        let Some(&busiest) = layered
            .internal
            .iter()
            .max_by_key(|&&e| layered.net.flow_on(e))
        else {
            return;
        };
        let (outcome, repair_ns) = self.child(op, "mincostflow.repair", |_| {
            solver.repair_deletions(&mut layered.net, &[busiest])
        });
        self.samples.mcf_repair_ns.push(repair_ns);
        let tier = match outcome.tier {
            RepairTier::WarmBasis => 0,
            RepairTier::Phased => 1,
            RepairTier::Spfa => 2,
        };
        self.samples.mcf_repair_tiers[tier] += 1;
    }

    /// The standalone replays that need no per-call inputs, run once after
    /// the lifecycle on the last episode's world.
    pub fn finish(&mut self) {
        let Some(o) = self.owned.as_ref() else {
            return;
        };
        let world = &o.world;
        let n = world.n();
        let mut rng = SimRng::new(world.seed ^ 0x5354_414E_4441);
        let mut out = Standalone::default();

        // desim: hold model at the population the run reached (one
        // pending event per live component, at least 64).
        let mean_stages = if self.samples.stages_count > 0 {
            self.samples.stages_sum as f64 / self.samples.stages_count as f64
        } else {
            1.0
        };
        let pending = ((self.samples.peak_live_apps as f64 * mean_stages) as usize).max(64);
        let mut q: EventQueue<u32> = EventQueue::with_backend(world.config.queue_backend);
        for i in 0..pending {
            q.schedule(
                SimTime::from_nanos(rng.range_u64(0, 1_000_000_000)),
                i as u32,
            );
        }
        let hold_ops = 2 * self.probe_ops;
        let t = Instant::now();
        for _ in 0..hold_ops {
            let (at, e) = q.pop().expect("hold model never drains");
            q.schedule(
                at + SimDuration::from_nanos(rng.range_u64(1, 1_000_000_000)),
                e,
            );
        }
        out.queue_ns_per_event = t.elapsed().as_nanos() as f64 / hold_ops as f64;
        out.queue_pending = pending as f64;

        // desim::pool: what one fork-join costs with nothing to do.
        let items = [0u8; 128];
        let pool_calls = (self.probe_ops / 1_000).max(2);
        let t = Instant::now();
        for _ in 0..pool_calls {
            std::hint::black_box(desim::pool::parallel_map_threads(2, &items, |i, _| i));
        }
        out.pool_call_us = t.elapsed().as_nanos() as f64 / 1e3 / pool_calls as f64;

        // simnet: one-unit sends between random pairs, paced so that no
        // NIC backlog builds.
        let mut net = Network::new(
            world.topology.clone(),
            NetworkConfig {
                seed: world.seed,
                ..world.config.net.clone()
            },
        );
        let mut now = SimTime::ZERO;
        for _ in 0..(self.probe_ops / 1_000).max(2) {
            let t = Instant::now();
            for _ in 0..256 {
                now += SimDuration::from_millis(50);
                let (a, b) = (rng.range_usize(0, n), rng.range_usize(0, n));
                std::hint::black_box(net.send(now, a, b, 8_192));
            }
            out.send_ns.push(t.elapsed().as_nanos() as f64 / 256.0);
        }

        // sched: LLF ready queue held at half of the engine's capacity.
        let capacity = world.config.queue_capacity;
        let mut llf: LlfScheduler<u32> = LlfScheduler::new(capacity);
        let job = |at: SimTime, slack_ms: u64| Job {
            meta: JobMeta {
                arrival: at,
                deadline: at + SimDuration::from_millis(100 + slack_ms),
                exec_time: SimDuration::from_millis(1),
            },
            payload: 0u32,
        };
        let mut now = SimTime::ZERO;
        for _ in 0..capacity / 2 {
            let _ = llf.enqueue(job(now, rng.range_u64(0, 50)));
        }
        let llf_jobs = self.probe_ops;
        let t = Instant::now();
        for _ in 0..llf_jobs {
            now += SimDuration::from_micros(100);
            let _ = llf.enqueue(job(now, rng.range_u64(0, 50)));
            std::hint::black_box(llf.dispatch(now));
        }
        out.llf_ns_per_job = t.elapsed().as_nanos() as f64 / llf_jobs as f64;

        // monitor: the two per-unit recorders of the data plane.
        let mut meter =
            ThroughputMeter::new(SimDuration::from_secs_f64(world.config.measure_window_secs));
        let mut window = OutcomeWindow::new(world.config.monitor_window);
        let records = 5 * self.probe_ops;
        let mut now = SimTime::ZERO;
        let t = Instant::now();
        for _ in 0..records {
            now += SimDuration::from_micros(500);
            meter.record(now, 8_192);
        }
        std::hint::black_box(meter.rate(now));
        out.meter_ns_per_record = t.elapsed().as_nanos() as f64 / records as f64;
        let t = Instant::now();
        for i in 0..records {
            window.record(i % 17 == 0);
        }
        std::hint::black_box(window.ratio());
        out.window_ns_per_outcome = t.elapsed().as_nanos() as f64 / records as f64;

        // view: candidate selection over the fullest provider list at cap
        // 16, and a rolled-back transaction of six reservations.
        let mut view = SystemView::with_headroom(&world.topology, world.config.admission_headroom);
        let providers: Vec<NodeId> = (0..world.catalog.len())
            .map(|s| {
                (0..n)
                    .filter(|&v| world.offers[v].contains(&s))
                    .collect::<Vec<_>>()
            })
            .max_by_key(|p| p.len())
            .unwrap_or_default();
        let mut selected = Vec::new();
        for _ in 0..(self.probe_ops / 1_000).max(2) {
            let t = Instant::now();
            view.select_top_candidates_linear(&providers, 16, &mut selected);
            out.select_linear_us
                .push(t.elapsed().as_nanos() as f64 / 1e3);
            let t = Instant::now();
            view.select_top_candidates_indexed(&providers, 16, &mut selected);
            out.select_indexed_us
                .push(t.elapsed().as_nanos() as f64 / 1e3);
            std::hint::black_box(&selected);
            let t = Instant::now();
            view.begin_transaction();
            for k in 0..6 {
                let v = providers[(k * 7) % providers.len().max(1)];
                view.reserve_component(v, 8_192, 1.0, 1.0);
            }
            view.rollback_transaction();
            out.rollback_us.push(t.elapsed().as_nanos() as f64 / 1e3);
        }

        // overlay: lookups from random live members to random keys.
        let alive: Vec<usize> = o.overlay.alive_members().collect();
        let mut hops = 0usize;
        let lookups = (self.probe_ops / 200).max(10);
        for _ in 0..lookups {
            let from = *rng.choose(&alive);
            let key = o.overlay.key_of(rng.range_usize(0, n));
            let t = Instant::now();
            let path = o.overlay.route_path(from, key);
            out.route_us.push(t.elapsed().as_nanos() as f64 / 1e3);
            hops += path.len().saturating_sub(1);
        }
        out.route_hops_mean = hops as f64 / lookups as f64;

        self.samples.standalone = out;
    }
}

impl Probe for Replay {
    fn episode(&mut self, world: &World, _engine: &mut Engine) {
        let t0 = Instant::now();
        // Built the way `EngineBuilder::build` builds its own.
        let t = Instant::now();
        let topology = world.topology.clone();
        let proximity = |a: usize, b: usize| topology.latency(a, b).as_millis_f64();
        let overlay = Overlay::build(world.n(), world.seed, &proximity);
        self.samples
            .overlay_build_ns
            .push(t.elapsed().as_nanos() as u64);
        let t = Instant::now();
        let dir = ServiceDirectory::explicit(&world.catalog, &overlay, world.offers.clone());
        self.samples
            .catalog_build_ns
            .push(t.elapsed().as_nanos() as u64);
        if self.owned.is_none() {
            // Once per run: how long the generators of the two cheap
            // inputs take on their own.
            let t = Instant::now();
            std::hint::black_box(crate::workloads::topology(world.kind, world.seed));
            self.samples.topology_build_ns = t.elapsed().as_nanos() as u64;
            let t = Instant::now();
            std::hint::black_box(SystemView::with_headroom(
                &world.topology,
                world.config.admission_headroom,
            ));
            self.samples.view_build_ns = t.elapsed().as_nanos() as u64;
        }
        let latencies = Arc::new(LatencyMatrix::from_topology(&world.topology));
        let (algorithm, cap) = (world.config.flow_algorithm, world.config.candidate_cap);
        let mut cold = composer_like_engine(algorithm, cap, &latencies);
        cold.set_retention(false);
        // The worker factories outlive this call: they own the two
        // scalars and a handle to the latencies, not the world.
        let admitter = |threads: usize| {
            let latencies = latencies.clone();
            BatchAdmitter::new(threads, move || {
                Box::new(composer_like_engine(algorithm, cap, &latencies))
            })
        };
        self.owned = Some(Owned {
            world: world.clone(),
            overlay,
            dir,
            composer: composer_like_engine(algorithm, cap, &latencies),
            cold,
            batch_t1: admitter(1),
            batch_t2: admitter(2),
            latencies,
            scratch_view: None,
            known: HashMap::new(),
            retained_as: None,
            recent: Vec::new(),
            had_batch: false,
        });
        self.own_ns += t0.elapsed().as_nanos() as u64;
    }

    fn before(&mut self, op: u64, call: &Call<'_>, engine: &mut Engine) {
        let t0 = Instant::now();
        let root = self.tracer.reserve();
        self.open = Some((root, 0));
        let children = match call {
            Call::Submit(req) => self.before_submit(op, req, engine),
            Call::Batch(reqs) => self.before_batch(op, reqs, engine),
            Call::Crash(v) => self.before_crash(op, *v, engine),
            Call::Restore(_) => {
                // Mirrors `handle_restore`: every retained solve is stale.
                let o = self.owned.as_mut().expect("episode started");
                o.composer.discard_all_retained();
                0
            }
            Call::Drain => {
                self.before_drain(op, engine);
                0
            }
            Call::Run | Call::Degrade(_) => 0,
        };
        self.open = Some((root, children));
        self.own_ns += t0.elapsed().as_nanos() as u64;
    }

    fn after(&mut self, op: u64, call: &Call<'_>, start: Instant, end: Instant) {
        let t0 = Instant::now();
        let (root, children) = self.open.take().expect("before() opened the call");
        let name = match call {
            Call::Submit(_) => "engine.submit",
            Call::Batch(..) => "engine.submit_batch",
            Call::Run => "engine.run",
            Call::Crash(_) | Call::Degrade(_) => "engine.fault",
            Call::Restore(_) => "engine.restore",
            Call::Drain => "engine.drain",
        };
        self.tracer
            .record(Some(root), 0, op, name, start, end, false);
        if matches!(call, Call::Submit(_) | Call::Batch(..)) {
            let span = ns(start, end);
            self.samples.submit_root_ns += span;
            self.samples.submit_children_ns += children;
            self.samples
                .submit_self_ns
                .push(span.saturating_sub(children));
        }
        self.own_ns += t0.elapsed().as_nanos() as u64;
    }

    fn admitted(&mut self, app: AppId, req: &ServiceRequest, expires: SimTime) {
        let t0 = Instant::now();
        let o = self.owned.as_mut().expect("episode started");
        // A solve retained under an id the engine then gave to nobody, or
        // to another request, is dropped.
        if let Some(predicted) = o.retained_as.take() {
            if predicted != app {
                o.composer.discard_retained(predicted);
            }
        }
        o.known.insert(app, (req.clone(), expires));
        self.samples.peak_live_apps = self.samples.peak_live_apps.max(o.known.len());
        self.samples.stages_sum += req.graph.total_services() as u64;
        self.samples.stages_count += 1;
        self.own_ns += t0.elapsed().as_nanos() as u64;
    }

    fn own_ns(&self) -> u64 {
        self.own_ns
    }
}

/// A layered composition network rebuilt outside the composer.
struct Layered {
    net: FlowNetwork,
    target: i64,
    /// The node-split capacity arcs, one per candidate host per layer.
    internal: Vec<EdgeId>,
}

impl Layered {
    /// Mirrors `MinCostComposer::solve_substream` for substream 0: source
    /// gate, one node-split host per candidate per stage, complete
    /// bipartite transfer arcs priced by latency, destination gate.
    /// Rates in milli-units, costs in milli-drops plus a utilization
    /// prior, as the composer scales them.
    fn build(
        req: &ServiceRequest,
        providers: &ProviderMap,
        view: &SystemView,
        world: &World,
        latencies: &LatencyMatrix,
    ) -> Option<Layered> {
        const RATE_SCALE: f64 = 1_000.0;
        const INF_CAP: i64 = i64::MAX / 8;
        let milli = |rate: f64| (rate.max(0.0) * RATE_SCALE).floor() as i64;
        let cost = |v: NodeId| {
            (view.drop_ratio(v).clamp(0.0, 1.0) * 1_000.0).round() as i64
                + (view.utilization(v) * 100.0).round() as i64
        };
        let hop = |a: NodeId, b: NodeId| (latencies.get(a, b) * 0.5).round() as i64;
        let services = &req.graph.substreams.first()?.services;
        let target = (req.rates[0] * RATE_SCALE).round() as i64;
        let mut net = FlowNetwork::new(2);
        let src_gate = net.add_node();
        net.add_edge(
            0,
            src_gate,
            milli(view.out_rate_capacity(req.source, req.unit_bits)),
            cost(req.source),
        );
        let mut internal = Vec::new();
        let mut prev: Vec<(usize, NodeId)> = vec![(src_gate, req.source)];
        let mut selected = Vec::new();
        for &service in services {
            let svc = world.catalog.get(service);
            let all = providers.get(&service)?;
            let hosts: &[NodeId] = match world.config.candidate_cap {
                Some(k) if all.len() > k => {
                    let mut sorted = all.clone();
                    sorted.sort_unstable();
                    sorted.dedup();
                    view.select_top_candidates_indexed(&sorted, k, &mut selected);
                    &selected
                }
                _ => all,
            };
            let mut layer = Vec::with_capacity(hosts.len());
            for &host in hosts {
                let cap = milli(view.max_rate_with_cpu(
                    host,
                    req.unit_bits,
                    svc.rate_ratio,
                    svc.exec_time.as_secs_f64(),
                ));
                if cap <= 0 {
                    continue;
                }
                let v_in = net.add_node();
                let v_out = net.add_node();
                internal.push(net.add_edge(v_in, v_out, cap, cost(host)));
                for &(p_out, p_host) in &prev {
                    net.add_edge(p_out, v_in, INF_CAP, hop(p_host, host));
                }
                layer.push((v_out, host));
            }
            if layer.is_empty() {
                return None;
            }
            prev = layer;
        }
        let dst_gate = net.add_node();
        for &(v_out, host) in &prev {
            net.add_edge(v_out, dst_gate, INF_CAP, hop(host, req.destination));
        }
        net.add_edge(
            dst_gate,
            1,
            milli(view.in_rate_capacity(req.destination, req.unit_bits)),
            cost(req.destination),
        );
        Some(Layered {
            net,
            target,
            internal,
        })
    }
}
