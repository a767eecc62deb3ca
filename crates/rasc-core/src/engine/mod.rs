//! The stream-processing runtime (paper §2.1, §3.1–§3.4).
//!
//! The engine ties every substrate together into the system the paper
//! deployed on PlanetLab:
//!
//! 1. a request arrives at its source node; the engine **discovers** the
//!    providers of each requested service through the Pastry DHT and
//!    gathers their statistics, charging every control message to the
//!    simulated NICs (§3.1 steps 1–2),
//! 2. the configured **composer** maps the request onto the overlay
//!    (§3.1 step 3),
//! 3. components are **instantiated** on their nodes and the source
//!    starts emitting data units at the required rate (§3.1 step 4),
//! 4. each node runs its **scheduler** (§3.4): arriving units get a
//!    deadline one period ahead, negative-laxity units are dropped, the
//!    least-laxity unit occupies the CPU,
//! 5. split stages distribute units across their components by smooth
//!    weighted round-robin in proportion to the flow solution,
//! 6. destinations track delivery, order, timeliness, and jitter (§4.2).
//!
//! Everything is deterministic in the engine seed.

mod audit;
mod fault;
mod store;
mod trace;
mod wrr;

pub use audit::{fnv1a64, AuditReport};
pub use fault::{FaultAction, FaultEvent, FaultPlan, FaultProfile};
pub use trace::{Trace, TraceEvent};
pub use wrr::{ChunkedWrr, Wrr};

use crate::catalog::ServiceDirectory;
use crate::compose::{
    apply_reservations, gain_prefix, BatchAdmitter, BatchItem, ComposeError, Composer,
    ComposerKind, ProviderMap, ReconcileStats,
};
use crate::metrics::{DropCause, RunReport, SubstreamTracker};
use crate::model::{AppId, ExecutionGraph, ServiceCatalog, ServiceRequest};
use crate::view::SystemView;
use audit::Auditor;
use desim::{
    run, run_until, EventQueue, FxHashMap, QueueBackend, SimDuration, SimRng, SimTime, StepOutcome,
    World,
};
use mincostflow::Algorithm;
use monitor::{Ewma, OutcomeWindow, RateEstimator, ThroughputMeter};
use overlay::Overlay;
use sched::{make_scheduler, Job, JobMeta, Policy, Scheduler};
use simnet::{mbps, Network, NetworkConfig, NodeId, NodeSpec, SendOutcome, Topology};
use store::{BatchPool, BatchRef, UnitRef, UnitStore};

/// Tunables for an engine run (defaults follow the paper's setup).
#[derive(Clone, Debug)]
pub struct EngineConfig {
    /// Which composition algorithm to run.
    pub composer: ComposerKind,
    /// Min-cost flow algorithm (used by the MinCost composer).
    pub flow_algorithm: Algorithm,
    /// Per-node data-unit scheduling policy (§3.4; the paper's is LLF).
    pub policy: Policy,
    /// Ready-queue capacity per node (input-queue-size drops beyond it).
    pub queue_capacity: usize,
    /// Monitoring window size `h` (§3.2).
    pub monitor_window: usize,
    /// Log-normal sigma on per-unit execution times (0 = deterministic).
    pub exec_noise_sigma: f64,
    /// Size of one control-plane message (discovery hop, stats query).
    pub control_bits: u64,
    /// Services hosted per node (§4.1: 5 of 10).
    pub services_per_node: usize,
    /// Fraction of each NIC's rate that composition may consider
    /// admittable (see `SystemView::with_headroom`).
    pub admission_headroom: f64,
    /// Length of the bandwidth-measurement window in seconds (§3.2).
    pub measure_window_secs: f64,
    /// Run length of the split-dispatch striping (see `ChunkedWrr`).
    pub split_chunk: u32,
    /// Ignored: the simulation core has one event queue (see
    /// [`desim::EventQueue`]). The field stays only until the benchmark
    /// harness stops setting it (ROADMAP item 1e).
    pub queue_backend: QueueBackend,
    /// Data units coalesced into one link transfer and one CPU burst (NIC
    /// interrupt coalescing). `1` reproduces the per-unit data plane
    /// exactly — every batch carries a single unit, and event counts, RNG
    /// draws, and drop decisions are unchanged. Larger values amortize
    /// event-queue and transfer overhead across a burst at the cost of
    /// coarsening intra-burst timing to the batch boundary; data-unit
    /// conservation stays exact because every ledger counts units, never
    /// batches.
    pub transfer_batch: u32,
    /// Bursty cross traffic on designated nodes (the PlanetLab
    /// "state of the nodes" the paper averaged over). `None` disables.
    pub background: Option<BackgroundTraffic>,
    /// CPU capacity per node, in cores, as a *composition constraint*
    /// (the paper's stated future work, §6: "performance under multiple
    /// resource constraints"). `None` = bandwidth-only composition (the
    /// paper's evaluated configuration); CPU contention then manifests
    /// purely at runtime through queueing and laxity drops.
    pub cpu_cores: Option<f64>,
    /// Enables the [`SystemAuditor`](AuditReport): checkpointed global
    /// invariant checks (unit conservation, ledger consistency, rollback
    /// exactness, sequence exactly-once, queue liveness). Off by default
    /// (zero cost: no auditor is allocated and no event is scheduled);
    /// the default honours the `RASC_AUDIT=1` environment variable so an
    /// entire test run can be audited without touching code.
    pub audit: bool,
    /// Seconds of simulated time between audit checkpoints.
    pub audit_period_secs: f64,
    /// Caps the per-layer candidate-host set the MinCost composer feeds
    /// its flow network (ranked by remaining per-direction bandwidth;
    /// see [`MinCostComposer::with_candidate_cap`]
    /// (crate::compose::MinCostComposer::with_candidate_cap)). `None`
    /// considers every discovered provider — the exact legacy
    /// behaviour. At thousand-node scale this is the knob that keeps
    /// per-request composition cost independent of the overlay size.
    pub candidate_cap: Option<usize>,
    /// Network model tunables.
    pub net: NetworkConfig,
}

/// Whether `RASC_AUDIT` asks for audited runs by default.
fn audit_from_env() -> bool {
    std::env::var("RASC_AUDIT")
        .map(|v| v == "1" || v.eq_ignore_ascii_case("true"))
        .unwrap_or(false)
}

impl Default for EngineConfig {
    fn default() -> Self {
        EngineConfig {
            composer: ComposerKind::MinCost,
            flow_algorithm: Algorithm::default(),
            policy: Policy::Llf,
            queue_capacity: 64,
            monitor_window: 50,
            exec_noise_sigma: 0.25,
            control_bits: 2_048,
            services_per_node: 5,
            admission_headroom: 0.75,
            measure_window_secs: 4.0,
            split_chunk: 16,
            queue_backend: QueueBackend::BinaryHeap,
            transfer_batch: 1,
            background: None,
            cpu_cores: None,
            audit: audit_from_env(),
            audit_period_secs: 2.0,
            candidate_cap: None,
            net: NetworkConfig::default(),
        }
    }
}

/// Bursty cross traffic injected on a set of nodes.
///
/// PlanetLab hosts were shared with dozens of other slices; their usable
/// bandwidth came and went in bursts. The paper leans on exactly this:
/// its drop-ratio feedback exists because "the value of drops changes
/// dynamically depending on the load of the peer" (§3.2), and its five
/// runs "on different times and days" average over node states (§4.1).
/// Each flaky node alternates exponentially-distributed ON/OFF phases;
/// while ON, cross traffic occupies `load` of both NICs (injected as
/// periodic pulses so foreground units interleave realistically) and is
/// visible to the node's own §3.2 bandwidth monitoring.
#[derive(Clone, Debug)]
pub struct BackgroundTraffic {
    /// The nodes carrying cross traffic.
    pub nodes: Vec<NodeId>,
    /// Mean ON-phase duration in seconds.
    pub on_mean_secs: f64,
    /// Mean OFF-phase duration in seconds.
    pub off_mean_secs: f64,
    /// Fraction of NIC capacity the cross traffic consumes while ON,
    /// drawn per node uniformly from this range.
    pub load: (f64, f64),
    /// Interval between cross-traffic pulses while ON, milliseconds.
    pub pulse_ms: u64,
}

impl BackgroundTraffic {
    /// A typical flaky-host profile: ~25% duty cycle, 40–70% load bursts.
    pub fn flaky(nodes: Vec<NodeId>) -> Self {
        BackgroundTraffic {
            nodes,
            on_mean_secs: 2.0,
            off_mean_secs: 6.0,
            load: (0.5, 0.8),
            pulse_ms: 50,
        }
    }
}

/// Builder for [`Engine`].
pub struct EngineBuilder {
    n: usize,
    catalog: ServiceCatalog,
    seed: u64,
    config: EngineConfig,
    topology: Option<Topology>,
    offers: Option<Vec<Vec<usize>>>,
    faults: FaultPlan,
}

impl EngineBuilder {
    /// Selects the composition algorithm.
    pub fn composer(mut self, kind: ComposerKind) -> Self {
        self.config.composer = kind;
        self
    }

    /// Overrides the full configuration.
    pub fn config(mut self, config: EngineConfig) -> Self {
        self.config = config;
        self
    }

    /// Uses an explicit topology instead of the PlanetLab-like default.
    pub fn topology(mut self, topology: Topology) -> Self {
        self.topology = Some(topology);
        self
    }

    /// Uses an explicit service assignment (`offers[node]` = service ids)
    /// instead of the random one.
    pub fn offers(mut self, offers: Vec<Vec<usize>>) -> Self {
        self.offers = Some(offers);
        self
    }

    /// Schedules a fault plan's events into the simulation up front.
    pub fn faults(mut self, plan: FaultPlan) -> Self {
        self.faults = plan;
        self
    }

    /// Finalizes the engine.
    pub fn build(self) -> Engine {
        let EngineBuilder {
            n,
            catalog,
            seed,
            config,
            topology,
            offers,
            faults,
        } = self;
        let topology =
            topology.unwrap_or_else(|| Topology::planetlab_like(n, mbps(1.0), mbps(10.0), seed));
        assert_eq!(topology.len(), n, "topology size mismatch");
        let proximity = |a: usize, b: usize| topology.latency(a, b).as_millis_f64();
        let overlay = Overlay::build(n, seed, &proximity);
        let dir = match offers {
            Some(o) => ServiceDirectory::explicit(&catalog, &overlay, o),
            None => ServiceDirectory::random_assignment(
                &catalog,
                &overlay,
                n,
                config.services_per_node.min(catalog.len()),
                seed,
            ),
        };
        let mut rng = SimRng::new(seed ^ 0x454E47494E455F31);
        let mut latencies = None;
        let composer: Box<dyn Composer> = match config.composer {
            ComposerKind::MinCost => {
                let matrix =
                    std::sync::Arc::new(crate::compose::LatencyMatrix::from_topology(&topology));
                latencies = Some(matrix.clone());
                let mut c = crate::compose::MinCostComposer::with_algorithm(config.flow_algorithm)
                    .with_latencies(matrix);
                if let Some(k) = config.candidate_cap {
                    c = c.with_candidate_cap(k);
                }
                Box::new(c)
            }
            other => other.build(),
        };
        let base_specs: Vec<NodeSpec> = (0..n).map(|v| topology.spec(v)).collect();
        let net = Network::new(
            topology,
            NetworkConfig {
                seed,
                ..config.net.clone()
            },
        );
        let meter_window = SimDuration::from_secs_f64(config.measure_window_secs);
        let nodes = (0..n)
            .map(|v| NodeState {
                sched: make_scheduler(config.policy, config.queue_capacity),
                running: Vec::new(),
                outcomes: OutcomeWindow::new(config.monitor_window),
                in_meter: ThroughputMeter::new(meter_window),
                out_meter: ThroughputMeter::new(meter_window),
                committed_in: 0.0,
                committed_out: 0.0,
                alive: true,
                bg_load: None,
                cpu_meter: config.cpu_cores.map(|_| ThroughputMeter::new(meter_window)),
                committed_cpu: 0.0,
                comps: FxHashMap::default(),
                exec_rng: rng.fork(v as u64),
            })
            .collect();
        let mut queue = EventQueue::new();
        let auditor = config.audit.then(|| Box::new(Auditor::new()));
        let audit_period = SimDuration::from_secs_f64(config.audit_period_secs.max(0.05));
        let mut state = EngineState {
            now: SimTime::ZERO,
            catalog,
            overlay,
            dir,
            net,
            composer,
            rng,
            nodes,
            apps: Vec::new(),
            report: RunReport::default(),
            trace: None,
            store: UnitStore::new(),
            batches: BatchPool::new(),
            burst_scratch: Vec::new(),
            arrive_scratch: Vec::new(),
            in_flight_net: 0,
            control_drops_out: 0,
            control_drops_in: 0,
            control_lost: 0,
            loss_prob: vec![0.0; n],
            base_specs,
            auditor,
            draining: false,
            latencies,
            batch: None,
            config,
        };
        if let Some(bg) = state.config.background.clone() {
            for &v in &bg.nodes {
                // Stagger the first ON phase across the OFF-mean horizon.
                let delay =
                    SimDuration::from_secs_f64(state.rng.exp(1.0 / bg.off_mean_secs.max(0.01)));
                queue.schedule(SimTime::ZERO + delay, Event::BgPhase { node: v, on: true });
            }
        }
        for ev in &faults.events {
            queue.schedule(ev.at, Event::Fault(ev.action.clone()));
        }
        if state.auditor.is_some() {
            queue.schedule(SimTime::ZERO + audit_period, Event::AuditTick);
        }
        Engine { state, queue }
    }
}

/// Key identifying a component instance on a node.
type CompKey = (AppId, usize, usize); // (app, substream, layer)

/// One running component on a node (§2.1's "instantiation of a service").
struct CompState {
    nominal_rate: f64,
    nominal_exec_secs: f64,
    #[allow(dead_code)] // kept for introspection/debug dumps
    service: usize,
    /// Infers the period `p_ci` from observed arrivals (§3.4).
    arrivals: RateEstimator,
    /// Measured running time `t_ci` (§3.2 statistic (1)).
    exec_est: Ewma,
    /// Dispatch to the next stage's components; `None` = destination.
    downstream: Option<ChunkedWrr>,
}

/// Per-node runtime state.
struct NodeState {
    sched: Box<dyn Scheduler<UnitRef>>,
    /// The units occupying the CPU (with their drawn execution times),
    /// oldest first; empty = idle. One `CpuDone` event covers the whole
    /// burst. The vector is pooled — taken, drained, and handed back —
    /// so its capacity survives across bursts.
    running: Vec<(UnitRef, SimDuration)>,
    /// Drop-ratio feedback window (§3.2 statistic (3)).
    outcomes: OutcomeWindow,
    /// Measured inbound traffic (bits/s), per §3.2's monitoring.
    in_meter: ThroughputMeter,
    /// Measured outbound traffic (bits/s).
    out_meter: ThroughputMeter,
    /// Nominal rates of everything composed onto this node so far
    /// (bits/s in, bits/s out). Composition uses
    /// `max(measured, committed)` per direction: the measurement window
    /// lags a freshly started stream by several seconds, and admitting
    /// against the lagging reading alone over-commits every node during
    /// request bursts.
    committed_in: f64,
    committed_out: f64,
    /// False once the node has failed (crash-stop).
    alive: bool,
    /// Cross-traffic state: `Some(load)` while an ON phase is active.
    bg_load: Option<f64>,
    /// Measured CPU busy time (the meter's "bits" are busy nanoseconds;
    /// its rate is therefore cores in use). Only `measured_view` reads
    /// it, and only under `config.cpu_cores`, so it exists only then.
    cpu_meter: Option<ThroughputMeter>,
    /// Committed CPU of everything composed onto this node (cores).
    committed_cpu: f64,
    comps: FxHashMap<CompKey, CompState>,
    exec_rng: SimRng,
}

/// A composed, running application.
struct AppState {
    req: ServiceRequest,
    graph: ExecutionGraph,
    /// False once the app has been stopped (sources quiesce, components
    /// removed, commitments released).
    active: bool,
    trackers: Vec<SubstreamTracker>,
    next_seq: Vec<u64>,
    source_wrr: Vec<ChunkedWrr>,
    stage_count: Vec<usize>,
    source_period: Vec<SimDuration>,
    gains: Vec<Vec<f64>>,
}

/// Simulation events.
enum Event {
    /// A request submitted at a point in simulated time.
    Submit(ServiceRequest),
    /// Composition finished; sources may start emitting.
    AppStart(AppId),
    /// A finite-lifetime application reached its end: tear it down.
    AppStop(AppId),
    /// Periodic source emission for one substream.
    SourceEmit { app: AppId, substream: usize },
    /// A batched link transfer fully received at a node. Every transfer
    /// is a batch; with `transfer_batch == 1` each batch carries exactly
    /// one unit and this degenerates to the per-unit data plane.
    BatchArrive { node: NodeId, batch: BatchRef },
    /// A node's CPU finished the burst it was processing.
    CpuDone { node: NodeId },
    /// A flaky node's cross traffic toggles ON/OFF.
    BgPhase { node: NodeId, on: bool },
    /// One cross-traffic pulse on an ON-phase node.
    BgPulse { node: NodeId },
    /// An injected fault (or its scheduled recovery) fires.
    Fault(FaultAction),
    /// Periodic auditor checkpoint (scheduled only when auditing).
    AuditTick,
}

struct EngineState {
    now: SimTime,
    catalog: ServiceCatalog,
    overlay: Overlay,
    dir: ServiceDirectory,
    net: Network,
    composer: Box<dyn Composer>,
    rng: SimRng,
    nodes: Vec<NodeState>,
    apps: Vec<AppState>,
    report: RunReport,
    trace: Option<Trace>,
    /// SoA slab holding every live data unit; events, scheduler queues,
    /// and CPU slots hand off 4-byte [`UnitRef`]s instead of moving the
    /// unit struct around.
    store: UnitStore,
    /// Recycled buffers backing batched link transfers.
    batches: BatchPool,
    /// Reusable buffer for CPU burst dispatch (capacity warms to
    /// `transfer_batch`; keeps the steady-state loop allocation-free).
    burst_scratch: Vec<Job<UnitRef>>,
    /// Reusable per-batch component counters for deadline staggering:
    /// how many units of each component have already been seen in the
    /// batch being processed. One entry per distinct component per batch
    /// (usually exactly one), pooled for the zero-alloc steady state.
    arrive_scratch: Vec<(CompKey, u64)>,
    /// Data units currently traversing the network (or same-node IPC):
    /// credited by unit count when a `BatchArrive` is scheduled, debited
    /// (via [`EngineState::debit_in_flight`]) when it fires. Part of the
    /// auditor's conservation equation, but maintained unconditionally —
    /// it is two integer ops per batch.
    in_flight_net: u64,
    /// Control-plane messages lost to NIC overflow, by charged side.
    /// Keeps NIC drop counters attributable: every `stats(v).drops_*`
    /// is either a data-unit drop (in `report.drops`) or one of these.
    control_drops_out: u64,
    control_drops_in: u64,
    /// Control-plane messages lost to injected message-loss windows.
    control_lost: u64,
    /// Per-node control-message loss probability (fault injection).
    loss_prob: Vec<f64>,
    /// Pristine NIC specs, for degrade/restore faults.
    base_specs: Vec<NodeSpec>,
    /// The invariant checker, when `config.audit` is set. Boxed so the
    /// disabled path carries one dead pointer, nothing more.
    auditor: Option<Box<Auditor>>,
    /// Set by `quiesce`: reject further submissions so the event backlog
    /// can drain to empty for the teardown audit.
    draining: bool,
    /// Latency matrix shared with batch-worker composers (MinCost only;
    /// the engine's own composer holds another `Arc` to the same one).
    latencies: Option<std::sync::Arc<crate::compose::LatencyMatrix>>,
    /// Lazily built batch-admission pipeline (`Engine::submit_batch`),
    /// keyed by the worker count it was built for. Worker arenas persist
    /// across batches, so steady-state batch admission rebuilds flow
    /// networks inside retained buffers instead of allocating them.
    batch: Option<(usize, BatchAdmitter)>,
    config: EngineConfig,
}

/// What [`Engine::submit_batch`] returns: one admission result per
/// request (index-aligned with the submitted burst) plus the reconcile
/// accounting and the determinism digest of the underlying
/// [`BatchOutcome`](crate::compose::BatchOutcome). Requests refused at
/// the admission gate appear only in `apps`: they are not composed, so
/// `replayed`, `stats` and `digest` cover the gated-in requests alone.
#[derive(Debug)]
pub struct BatchSubmitReport {
    /// Per-request outcome: the installed app id, or why admission was
    /// refused.
    pub apps: Vec<Result<AppId, ComposeError>>,
    /// Request indices that went through conflict replay, ascending.
    pub replayed: Vec<usize>,
    /// Reconcile-phase accounting.
    pub stats: ReconcileStats,
    /// Order-sensitive digest over every composed placement and
    /// rejection — equal digests mean the same apps landed on the same
    /// hosts at the same rates, regardless of worker count.
    pub digest: u64,
}

/// The RASC runtime over a simulated wide-area network.
pub struct Engine {
    state: EngineState,
    queue: EventQueue<Event>,
}

impl Engine {
    /// Starts building an engine over `n` nodes with the given catalog
    /// and master seed.
    pub fn builder(n: usize, catalog: ServiceCatalog, seed: u64) -> EngineBuilder {
        assert!(n >= 2, "need at least a source and a destination");
        EngineBuilder {
            n,
            catalog,
            seed,
            config: EngineConfig::default(),
            topology: None,
            offers: None,
            faults: FaultPlan::none(),
        }
    }

    /// Current simulated time.
    pub fn now(&self) -> SimTime {
        self.state.now
    }

    /// Submits a request *now*; composes synchronously and returns the
    /// app id (sources start after the discovery latency).
    pub fn submit(&mut self, req: ServiceRequest) -> Result<AppId, ComposeError> {
        let now = self.state.now;
        self.state.handle_submit(now, req, &mut self.queue)
    }

    /// Schedules a request submission at an absolute simulated time.
    pub fn submit_at(&mut self, at: SimTime, req: ServiceRequest) {
        self.queue.schedule(at, Event::Submit(req));
    }

    /// Submits a burst of requests *now* through the batch-admission
    /// pipeline, a [`BatchAdmitter`] over one measured-view snapshot for
    /// the whole burst. Discovery and statistics pulls are deduplicated
    /// per distinct `(source, service)` / `(source, candidate)` pair,
    /// compositions run optimistically on `threads` pooled workers, and
    /// winners are committed in submission order with conflict replay.
    /// Requests the admission gate refuses (malformed, unknown service,
    /// dead endpoint, draining engine) get their typed error in place
    /// and never reach composition. `threads == 0` uses the machine
    /// default (`RASC_THREADS` / available parallelism); any positive
    /// worker count yields the identical, digest-checked outcome.
    pub fn submit_batch(&mut self, reqs: Vec<ServiceRequest>, threads: usize) -> BatchSubmitReport {
        let now = self.state.now;
        self.state
            .handle_submit_batch(now, reqs, threads, &mut self.queue)
    }

    /// Runs the simulation until `horizon`.
    pub fn run_until(&mut self, horizon: SimTime) {
        run(&mut self.state, &mut self.queue, horizon);
        self.state.now = self.state.now.max(horizon);
    }

    /// Runs the simulation for `secs` of simulated time.
    pub fn run_for_secs(&mut self, secs: f64) {
        let horizon = self.state.now + SimDuration::from_secs_f64(secs);
        self.run_until(horizon);
    }

    /// Aggregated metrics so far (destination trackers folded in).
    pub fn report(&self) -> RunReport {
        let mut r = self.state.report.clone();
        for app in &self.state.apps {
            for tr in &app.trackers {
                r.absorb_tracker(tr);
            }
        }
        r
    }

    /// The execution graph of a composed app.
    pub fn app_graph(&self, app: AppId) -> &ExecutionGraph {
        &self.state.apps[app].graph
    }

    /// Number of composed apps.
    pub fn app_count(&self) -> usize {
        self.state.apps.len()
    }

    /// A snapshot of the composition-time system view (availability from
    /// the measurement windows) at the current instant.
    pub fn view_snapshot(&mut self) -> SystemView {
        let now = self.state.now;
        self.state.measured_view(now)
    }

    /// The underlying network (counters, topology).
    pub fn network(&self) -> &Network {
        &self.state.net
    }

    /// The service directory (placement ground truth).
    pub fn directory(&self) -> &ServiceDirectory {
        &self.state.dir
    }

    /// Current drop-ratio window reading of a node.
    pub fn node_drop_ratio(&self, v: NodeId) -> f64 {
        self.state.nodes[v].outcomes.ratio()
    }

    /// Enables control-plane tracing, retaining the most recent
    /// `capacity` events (compositions, starts, stops, failures).
    pub fn enable_trace(&mut self, capacity: usize) {
        self.state.trace = Some(Trace::new(capacity));
    }

    /// The trace, if enabled.
    pub fn trace(&self) -> Option<&Trace> {
        self.state.trace.as_ref()
    }

    /// Fails node `v` (crash-stop): the overlay routes around it, the
    /// service registry drops its registrations, its queued and running
    /// units are lost, and every application with a component on it is
    /// dynamically re-composed on the surviving nodes (applications whose
    /// *endpoints* died cannot be recomposed and simply stop).
    ///
    /// This and the other fault calls are no-ops for a node that does not
    /// exist, and so are [`FaultPlan`] actions naming one.
    pub fn fail_node(&mut self, v: NodeId) {
        let now = self.state.now;
        self.state.handle_fail_node(now, v, &mut self.queue);
    }

    /// Whether node `v` is still alive (`false` for a node that does not
    /// exist).
    pub fn node_alive(&self, v: NodeId) -> bool {
        self.state.is_alive(v)
    }

    /// Per-substream delivery counters of one app:
    /// `(delivered, out_of_order, timely)` per substream.
    pub fn app_delivery_stats(&self, app: AppId) -> Vec<(u64, u64, u64)> {
        self.state.apps[app]
            .trackers
            .iter()
            .map(|t| (t.delivered(), t.out_of_order(), t.timely()))
            .collect()
    }

    /// Schedules a fault plan's events into the running simulation.
    pub fn schedule_fault_plan(&mut self, plan: &FaultPlan) {
        for ev in &plan.events {
            self.queue.schedule(ev.at, Event::Fault(ev.action.clone()));
        }
    }

    /// Degrades node `v`'s NIC rates to `factor` of pristine *now*
    /// (see [`FaultAction::Degrade`]). A NaN factor is ignored.
    pub fn degrade_node(&mut self, v: NodeId, factor: f64) {
        let now = self.state.now;
        self.state.handle_degrade(now, v, factor, &mut self.queue);
    }

    /// Restores node `v`'s pristine NIC rates *now*.
    pub fn restore_node(&mut self, v: NodeId) {
        let now = self.state.now;
        self.state.handle_restore(now, v);
    }

    /// Sets node `v`'s control-message loss probability *now* (sticky
    /// until changed; [`FaultAction::MessageLoss`] windows self-expire).
    /// A NaN probability is ignored.
    pub fn set_message_loss(&mut self, v: NodeId, prob: f64) {
        if let Some(p) = self.state.loss_prob.get_mut(v) {
            if !prob.is_nan() {
                *p = prob.clamp(0.0, 1.0);
            }
        }
    }

    /// Events the simulation has delivered so far (a work count: per
    /// delivered unit it measures what the data plane costs).
    pub fn events_fired(&self) -> u64 {
        self.queue.total_fired()
    }

    /// Entries held right now across every node's throughput meters: the
    /// exact size of the monitoring state §3.2's sliding windows keep.
    pub fn meter_entries(&self) -> usize {
        self.state
            .nodes
            .iter()
            .map(|n| {
                n.in_meter.len() + n.out_meter.len() + n.cpu_meter.as_ref().map_or(0, |m| m.len())
            })
            .sum()
    }

    /// Heap bytes the composer holds right now for incremental repair:
    /// `capacity × size_of` summed over every retained flow network and
    /// potential vector (zero for composers that retain nothing).
    pub fn retained_bytes(&self) -> usize {
        self.state.composer.retained_bytes()
    }

    /// Control-plane messages lost to injected message-loss windows.
    pub fn control_messages_lost(&self) -> u64 {
        self.state.control_lost
    }

    /// The auditor's report so far, when auditing is enabled.
    pub fn audit_report(&self) -> Option<AuditReport> {
        self.state.auditor.as_ref().map(|a| a.report.clone())
    }

    /// Stops every active application and silences the background-load
    /// generators so the event backlog can drain. Further submissions
    /// are rejected.
    pub fn quiesce(&mut self) {
        for app in 0..self.state.apps.len() {
            if self.state.apps[app].active {
                self.state.handle_app_stop(app);
            }
        }
        self.state.config.background = None;
        for p in &mut self.state.loss_prob {
            *p = 0.0;
        }
        self.state.draining = true;
    }

    /// Ends the run: quiesces, drains the event backlog to empty, and
    /// performs the auditor's teardown check (liveness: no stranded
    /// events or units). Returns the audit report — empty and clean when
    /// auditing is disabled.
    pub fn finish_run(&mut self) -> AuditReport {
        self.quiesce();
        let (t, outcome) = run_until(&mut self.state, &mut self.queue, SimTime::MAX, 200_000_000);
        self.state.now = self.state.now.max(t);
        let drained = outcome == StepOutcome::Drained;
        match self.state.auditor.take() {
            Some(mut aud) => {
                aud.final_check(&self.state, &self.queue, drained);
                let report = aud.report.clone();
                self.state.auditor = Some(aud);
                report
            }
            None => AuditReport::default(),
        }
    }

    /// A deterministic digest of the run's observable outcome: counters,
    /// drop breakdown, event-queue totals, and audit checkpoints. Two
    /// runs with the same seed and fault plan must produce bit-identical
    /// digests, regardless of worker-thread count.
    pub fn run_digest(&self) -> u64 {
        let r = self.report();
        let mut words: Vec<u64> = vec![
            r.composed,
            r.rejected,
            r.generated,
            r.delivered,
            r.timely,
            r.out_of_order,
            r.components,
            r.split_requests,
            r.recompositions,
            r.repairs,
        ];
        words.extend_from_slice(&r.drops);
        words.push(self.queue.total_scheduled());
        words.push(self.queue.total_fired());
        if let Some(aud) = &self.state.auditor {
            words.push(aud.report.checkpoints);
            words.push(aud.report.violation_count());
        }
        fnv1a64(words)
    }
}

// The committed-rate ledger formula shared with the composers and the
// auditor (`audit.rs` reaches it as `super::for_each_commitment`).
pub(crate) use crate::compose::for_each_commitment;

/// The repair contract a composer-returned graph must honour before the
/// engine swaps it in: identical substream/stage shape and services, no
/// placement left on the evacuated node, and per-stage total rates
/// preserved (repair re-routes flow, it never renegotiates admission).
fn repaired_graph_is_sound(old: &ExecutionGraph, new: &ExecutionGraph, dead: NodeId) -> bool {
    old.substreams.len() == new.substreams.len()
        && old.substreams.iter().zip(&new.substreams).all(|(o, n)| {
            o.len() == n.len()
                && o.iter().zip(n).all(|(os, ns)| {
                    os.service == ns.service
                        && !ns.placements.is_empty()
                        && ns.placements.iter().all(|p| p.node != dead && p.rate > 0.0)
                        && (os.total_rate() - ns.total_rate()).abs()
                            <= 1e-6 * os.total_rate().max(1.0)
                })
        })
}

impl World for EngineState {
    type Event = Event;

    fn handle(&mut self, now: SimTime, event: Event, q: &mut EventQueue<Event>) {
        self.now = now;
        match event {
            Event::Submit(req) => {
                let _ = self.handle_submit(now, req, q);
            }
            Event::AppStart(app) => self.handle_app_start(now, app, q),
            Event::AppStop(app) => self.handle_app_stop(app),
            Event::SourceEmit { app, substream } => self.handle_source_emit(now, app, substream, q),
            Event::BatchArrive { node, batch } => self.handle_batch_arrive(now, node, batch, q),
            Event::CpuDone { node } => self.handle_cpu_done(now, node, q),
            Event::BgPhase { node, on } => self.handle_bg_phase(now, node, on, q),
            Event::BgPulse { node } => self.handle_bg_pulse(now, node, q),
            Event::Fault(action) => self.handle_fault(now, action, q),
            Event::AuditTick => self.handle_audit_tick(now, q),
        }
    }
}

impl EngineState {
    /// Refusals decided before discovery, shared by both admission
    /// paths: they charge no control traffic and leave the ledger, the
    /// composer and the RNG stream untouched.
    fn admission_gate(&self, req: &ServiceRequest) -> Result<(), ComposeError> {
        if self.draining {
            // Teardown is in progress; starting a new application now
            // would emit forever and the backlog could never drain.
            return Err(ComposeError::InsufficientCapacity { substream: 0 });
        }
        req.validate(&self.catalog)?;
        // A crashed (or nonexistent) source cannot route its discovery
        // lookups and nothing can be delivered to a crashed sink.
        for v in [req.source, req.destination] {
            if !self.is_alive(v) {
                return Err(ComposeError::EndpointDown(v));
            }
        }
        Ok(())
    }

    /// §3.1 steps 1–3: discover, gather statistics, compose.
    fn handle_submit(
        &mut self,
        now: SimTime,
        req: ServiceRequest,
        q: &mut EventQueue<Event>,
    ) -> Result<AppId, ComposeError> {
        if let Err(e) = self.admission_gate(&req) {
            self.report.rejected += 1;
            return Err(e);
        }
        // Step 1: DHT discovery of each distinct service, charged hop by
        // hop to the overlay links.
        let mut services: Vec<usize> = req
            .graph
            .substreams
            .iter()
            .flat_map(|s| s.services.iter().copied())
            .collect();
        services.sort_unstable();
        services.dedup();
        let mut providers = ProviderMap::new();
        let mut ready_at = now;
        for &s in &services {
            let (found, path) = self.dir.discover(&self.overlay, req.source, s);
            for hop in path.windows(2) {
                ready_at = ready_at.max(self.charge_control(now, hop[0], hop[1]));
            }
            // The answer travels back directly.
            if let Some(&last) = path.last() {
                if last != req.source {
                    ready_at = ready_at.max(self.charge_control(now, last, req.source));
                }
            }
            providers.insert(s, found);
        }
        // Step 2: pull utilization + drop statistics from each candidate.
        let mut candidates: Vec<NodeId> = providers.values().flatten().copied().collect();
        candidates.sort_unstable();
        candidates.dedup();
        for &c in &candidates {
            if c != req.source {
                ready_at = ready_at.max(self.charge_control(now, req.source, c));
                ready_at = ready_at.max(self.charge_control(now, c, req.source));
            }
        }
        // Step 3: compose against the measured availability + drop
        // feedback snapshot (§3.2).
        let mut view = self.measured_view(now);
        // Rollback-exactness audit: a rejected composition must leave the
        // view bit-equal to this snapshot (composers roll back their own
        // partial reservations via the view's undo journal).
        let audit_backup = self.auditor.is_some().then(|| view.clone());
        match self
            .composer
            .compose(&req, &self.catalog, &providers, &mut view, &mut self.rng)
        {
            Ok(graph) => {
                self.report.composed += 1;
                self.report.components += graph.component_count() as u64;
                if graph.has_splitting() {
                    self.report.split_requests += 1;
                }
                let components = graph.component_count();
                let split = graph.has_splitting();
                let app = self.install_app(req, graph);
                // Let the composer keep its solve state for this app's
                // incremental repair (no-op for the baselines).
                self.composer.retain_for_repair(app);
                if let Some(tr) = &mut self.trace {
                    tr.record(
                        now,
                        TraceEvent::Composed {
                            app,
                            components,
                            split,
                        },
                    );
                }
                q.schedule(ready_at, Event::AppStart(app));
                Ok(app)
            }
            Err(e) => {
                self.report.rejected += 1;
                if let (Some(aud), Some(backup)) = (self.auditor.as_mut(), audit_backup.as_ref()) {
                    if view != *backup {
                        aud.violation(format!(
                            "rollback: view not bit-equal after rejected compose ({e})"
                        ));
                    }
                }
                if let Some(tr) = &mut self.trace {
                    tr.record(
                        now,
                        TraceEvent::Rejected {
                            reason: e.to_string(),
                        },
                    );
                }
                Err(e)
            }
        }
    }

    /// The batch counterpart of [`handle_submit`](Self::handle_submit):
    /// §3.1 steps 1–3 once per burst instead of once per request.
    ///
    /// Control-plane work is deduplicated across the burst — each
    /// distinct `(source, service)` is discovered once and each distinct
    /// `(source, candidate)` statistics pull is charged once (a burst
    /// from one source touching the same services pays one discovery,
    /// not `k`) — and a single measured view serves as every request's
    /// composition snapshot. Admission itself runs through the
    /// [`BatchAdmitter`]: optimistic parallel compose against the shared
    /// snapshot, then a serial, submission-order commit with conflict
    /// replay. Admitted apps all start at the burst's control-plane
    /// `ready_at` horizon.
    ///
    /// Batch-admitted apps are repaired by cold recomposition (worker
    /// arenas keep no per-app solve state; see
    /// [`Composer::set_retention`]).
    fn handle_submit_batch(
        &mut self,
        now: SimTime,
        reqs: Vec<ServiceRequest>,
        threads: usize,
        q: &mut EventQueue<Event>,
    ) -> BatchSubmitReport {
        let threads = if threads == 0 {
            desim::pool::default_threads()
        } else {
            threads
        };
        let mut apps: Vec<Option<Result<AppId, ComposeError>>> =
            (0..reqs.len()).map(|_| None).collect();
        // Gate and validate exactly as the single-request path does;
        // requests that never reach composition are rejected in place.
        let mut items: Vec<BatchItem> = Vec::new();
        let mut item_index: Vec<usize> = Vec::new(); // item -> request index
        let mut ready_at = now;
        let mut discovered: FxHashMap<(NodeId, usize), Vec<NodeId>> = FxHashMap::default();
        let mut polled: desim::hash::FxHashSet<(NodeId, NodeId)> = Default::default();
        for (r, req) in reqs.into_iter().enumerate() {
            if let Err(e) = self.admission_gate(&req) {
                self.report.rejected += 1;
                apps[r] = Some(Err(e));
                continue;
            }
            // Step 1: discovery, once per distinct (source, service).
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
                let found = match discovered.get(&(req.source, s)) {
                    Some(f) => f.clone(),
                    None => {
                        let (found, path) = self.dir.discover(&self.overlay, req.source, s);
                        for hop in path.windows(2) {
                            ready_at = ready_at.max(self.charge_control(now, hop[0], hop[1]));
                        }
                        if let Some(&last) = path.last() {
                            if last != req.source {
                                ready_at = ready_at.max(self.charge_control(now, last, req.source));
                            }
                        }
                        discovered.insert((req.source, s), found.clone());
                        found
                    }
                };
                providers.insert(s, found);
            }
            // Step 2: statistics, once per distinct (source, candidate).
            let mut candidates: Vec<NodeId> = providers.values().flatten().copied().collect();
            candidates.sort_unstable();
            candidates.dedup();
            for &c in &candidates {
                if c != req.source && polled.insert((req.source, c)) {
                    ready_at = ready_at.max(self.charge_control(now, req.source, c));
                    ready_at = ready_at.max(self.charge_control(now, c, req.source));
                }
            }
            item_index.push(r);
            items.push((req, providers));
        }
        // Step 3: one snapshot for the whole burst, then the pipeline.
        let mut view = self.measured_view(now);
        let audit_backup = self.auditor.is_some().then(|| view.clone());
        let seed = self.rng.next_u64();
        let reuse = matches!(self.batch, Some((t, _)) if t == threads);
        if !reuse {
            let admitter = BatchAdmitter::new(threads, self.worker_factory());
            self.batch = Some((threads, admitter));
        }
        let admitter = &self.batch.as_ref().expect("just built").1;
        let outcome = admitter.admit_batch(&mut view, &self.catalog, &items, seed);
        let digest = outcome.digest();
        // Ledger-exactness audit: the pipeline's view must carry exactly
        // the admitted reservations on top of the snapshot it was given.
        if let (Some(_), Some(backup)) = (self.auditor.as_ref(), audit_backup) {
            let mut expect = backup;
            for ((req, _), r) in items.iter().zip(&outcome.results) {
                if let Ok(g) = r {
                    apply_reservations(req, &self.catalog, g, &mut expect);
                }
            }
            if expect != view {
                self.auditor
                    .as_mut()
                    .expect("checked above")
                    .violation("batch ledger: view != snapshot + admitted reservations".into());
            }
        }
        // Install winners and record rejections in submission order.
        let replayed: Vec<usize> = outcome.replayed.iter().map(|&i| item_index[i]).collect();
        let stats = outcome.stats.clone();
        for (((req, _), result), &r) in items.into_iter().zip(outcome.results).zip(&item_index) {
            match result {
                Ok(graph) => {
                    self.report.composed += 1;
                    self.report.components += graph.component_count() as u64;
                    if graph.has_splitting() {
                        self.report.split_requests += 1;
                    }
                    let components = graph.component_count();
                    let split = graph.has_splitting();
                    let app = self.install_app(req, graph);
                    if let Some(tr) = &mut self.trace {
                        tr.record(
                            now,
                            TraceEvent::Composed {
                                app,
                                components,
                                split,
                            },
                        );
                    }
                    q.schedule(ready_at, Event::AppStart(app));
                    apps[r] = Some(Ok(app));
                }
                Err(e) => {
                    self.report.rejected += 1;
                    if let Some(tr) = &mut self.trace {
                        tr.record(
                            now,
                            TraceEvent::Rejected {
                                reason: e.to_string(),
                            },
                        );
                    }
                    apps[r] = Some(Err(e));
                }
            }
        }
        BatchSubmitReport {
            apps: apps
                .into_iter()
                .map(|a| a.expect("every request got an outcome"))
                .collect(),
            replayed,
            stats,
            digest,
        }
    }

    /// The batch pipeline's composer factory: every worker builds the
    /// configured composer kind, wired to the same latency matrix and
    /// candidate cap as the engine's own composer.
    fn worker_factory(&self) -> impl Fn() -> Box<dyn Composer + Send> + Send + Sync + 'static {
        let kind = self.config.composer;
        let algorithm = self.config.flow_algorithm;
        let cap = self.config.candidate_cap;
        let lat = self.latencies.clone();
        move || -> Box<dyn Composer + Send> {
            match kind {
                ComposerKind::MinCost => {
                    let mut c = crate::compose::MinCostComposer::with_algorithm(algorithm);
                    if let Some(m) = &lat {
                        c = c.with_latencies(m.clone());
                    }
                    if let Some(k) = cap {
                        c = c.with_candidate_cap(k);
                    }
                    Box::new(c)
                }
                other => other.build(),
            }
        }
    }

    /// Sends one control-plane message and returns when it lands (drops
    /// fall back to a retransmission penalty).
    fn charge_control(&mut self, now: SimTime, from: NodeId, to: NodeId) -> SimTime {
        match self.net.send(now, from, to, self.config.control_bits) {
            SendOutcome::Delivered(t) => {
                self.record_traffic(now, from, to, self.config.control_bits, true);
                // Injected message loss strikes *after* the NICs accepted
                // the message (lost in transit), so the per-node traffic
                // and drop counters stay attributable; the overlay
                // retransmits, surfacing as added control latency.
                let loss = self.loss_prob[from].max(self.loss_prob[to]);
                if loss > 0.0 && self.rng.chance(loss) {
                    self.control_lost += 1;
                    return now + SimDuration::from_millis(500);
                }
                t
            }
            SendOutcome::Dropped(reason) => {
                if reason == simnet::DropReason::ReceiverOverflow {
                    self.record_traffic(now, from, to, self.config.control_bits, false);
                    self.control_drops_in += 1;
                } else {
                    self.control_drops_out += 1;
                }
                now + SimDuration::from_millis(200)
            }
        }
    }

    /// Feeds the throughput meters. Both directions count the *offered*
    /// load: a receiver that is dropping from overflow is saturated, and
    /// advertising the dropped bits as "available" would invite further
    /// placements onto it (a positive feedback loop). Measuring offered
    /// rather than carried traffic is what a node observing its own
    /// inbound packet stream sees anyway (§3.2).
    fn record_traffic(
        &mut self,
        now: SimTime,
        from: NodeId,
        to: NodeId,
        bits: u64,
        _accepted: bool,
    ) {
        self.nodes[from].out_meter.record(now, bits);
        self.nodes[to].in_meter.record(now, bits);
    }

    /// The paper's composition-time snapshot: per-node availability =
    /// admittable capacity − measured traffic, plus the drop-ratio
    /// windows (§3.2).
    fn measured_view(&mut self, now: SimTime) -> SystemView {
        let mut view =
            SystemView::with_headroom(self.net.topology(), self.config.admission_headroom);
        let n = self.nodes.len();
        let usage: Vec<(f64, f64)> = (0..n)
            .map(|v| {
                (
                    self.nodes[v]
                        .in_meter
                        .rate(now)
                        .max(self.nodes[v].committed_in),
                    self.nodes[v]
                        .out_meter
                        .rate(now)
                        .max(self.nodes[v].committed_out),
                )
            })
            .collect();
        for (v, &(in_bps, out_bps)) in usage.iter().enumerate() {
            if self.nodes[v].alive {
                view.consume_measured(v, in_bps, out_bps);
                view.set_drop_ratio(v, self.nodes[v].outcomes.ratio());
            } else {
                view.consume_measured(v, f64::MAX, f64::MAX);
                view.set_drop_ratio(v, 1.0);
            }
        }
        if let Some(cores) = self.config.cpu_cores {
            for v in 0..n {
                view.set_cpu_capacity(v, cores * self.config.admission_headroom);
                let measured = self.nodes[v]
                    .cpu_meter
                    .as_mut()
                    .map_or(0.0, |m| m.rate(now))
                    / 1e9;
                let used = measured.max(self.nodes[v].committed_cpu);
                view.consume_measured_cpu(v, used);
            }
        }
        view
    }

    /// Striping run length for a split stage. Long runs minimize
    /// reordering, but a branch receives the *full* stream rate for the
    /// duration of its run; if its per-unit service time (CPU or NIC
    /// serialization) exceeds the stream period, backlog builds at
    /// `deficit = per_unit − stream_period` per unit and must stay
    /// within the branch's deadline slack. The chunk is capped so a
    /// full run never builds more backlog than the slowest branch can
    /// absorb.
    fn stage_chunk(&self, targets: &[(NodeId, f64)], service: usize, unit_bits: u64) -> u32 {
        let max_chunk = self.config.split_chunk.max(1);
        if targets.len() < 2 {
            return max_chunk;
        }
        let total_rate: f64 = targets.iter().map(|&(_, r)| r).sum();
        if total_rate <= 0.0 {
            return max_chunk;
        }
        let stream_period = 1.0 / total_rate;
        let exec = self.catalog.get(service).exec_time.as_secs_f64();
        let mut chunk = max_chunk;
        for &(node, rate) in targets {
            if rate <= 0.0 {
                continue;
            }
            let spec = self.net.topology().spec(node);
            let tx = unit_bits as f64 / spec.bw_in.max(1.0);
            let per_unit = exec.max(tx);
            let deficit = per_unit - stream_period;
            if deficit > 0.0 {
                let slack = (1.0 / rate - per_unit).max(0.0);
                let bound = (slack / deficit).floor().max(1.0) as u32;
                chunk = chunk.min(bound);
            }
        }
        chunk.max(1)
    }

    /// §3.1 step 4: instantiate components and wire the dispatch graph.
    fn install_app(&mut self, req: ServiceRequest, graph: ExecutionGraph) -> AppId {
        let app = self.apps.len();
        let mut trackers = Vec::new();
        let mut source_wrr = Vec::new();
        let mut stage_count = Vec::new();
        let mut source_period = Vec::new();
        let mut gains = Vec::new();
        {
            let nodes = &mut self.nodes;
            for_each_commitment(&self.catalog, &req, &graph, &mut |v, din, dout, dcpu| {
                nodes[v].committed_in += din;
                nodes[v].committed_out += dout;
                nodes[v].committed_cpu += dcpu;
            });
        }
        for (l, stages) in graph.substreams.iter().enumerate() {
            let services = &req.graph.substreams[l].services;
            let g = gain_prefix(&self.catalog, services);
            let src_rate = req.rates[l] / g[services.len()];
            // Data units stay 1:1 through components (rate ratios scale
            // unit *size*); the destination therefore paces its schedule
            // by the source's unit rate.
            trackers.push(SubstreamTracker::new(src_rate));
            stage_count.push(stages.len());
            source_period.push(SimDuration::from_secs_f64(1.0 / src_rate));
            let first_targets: Vec<(NodeId, f64)> = stages[0]
                .placements
                .iter()
                .map(|p| (p.node, p.rate))
                .collect();
            let first_chunk = self.stage_chunk(&first_targets, stages[0].service, req.unit_bits);
            source_wrr.push(ChunkedWrr::new(Wrr::new(first_targets), first_chunk));
            // Instantiate each placement's component with its downstream.
            for (i, stage) in stages.iter().enumerate() {
                let next: Option<Vec<(NodeId, f64)>> = stages
                    .get(i + 1)
                    .map(|nxt| nxt.placements.iter().map(|p| (p.node, p.rate)).collect());
                for p in &stage.placements {
                    let svc = self.catalog.get(stage.service);
                    let comp = CompState {
                        nominal_rate: p.rate,
                        nominal_exec_secs: svc.exec_time.as_secs_f64(),
                        service: stage.service,
                        arrivals: RateEstimator::new(self.config.monitor_window.max(2)),
                        exec_est: Ewma::new(0.2),
                        downstream: next.clone().map(|t| {
                            let chunk = self.stage_chunk(&t, stages[i + 1].service, req.unit_bits);
                            ChunkedWrr::new(Wrr::new(t), chunk)
                        }),
                    };
                    self.nodes[p.node].comps.insert((app, l, i), comp);
                }
            }
            gains.push(g);
        }
        self.apps.push(AppState {
            req,
            graph,
            active: true,
            trackers,
            next_seq: vec![0; stage_count.len()],
            source_wrr,
            stage_count,
            source_period,
            gains,
        });
        app
    }

    fn handle_app_start(&mut self, now: SimTime, app: AppId, q: &mut EventQueue<Event>) {
        if let Some(tr) = &mut self.trace {
            tr.record(now, TraceEvent::AppStarted { app });
        }
        if let Some(lifetime) = self.apps[app].req.lifetime {
            q.schedule(now + lifetime, Event::AppStop(app));
        }
        let substreams = self.apps[app].stage_count.len();
        for l in 0..substreams {
            // Random phase within the first period avoids artificial
            // alignment of all sources on the same tick.
            let period = self.apps[app].source_period[l];
            let phase = period.mul_f64(self.rng.f64());
            q.schedule(now + phase, Event::SourceEmit { app, substream: l });
        }
    }

    fn handle_source_emit(
        &mut self,
        now: SimTime,
        app: AppId,
        substream: usize,
        q: &mut EventQueue<Event>,
    ) {
        if !self.apps[app].active {
            return;
        }
        let burst = self.config.transfer_batch.max(1);
        let (source, unit_bits, period) = {
            let a = &self.apps[app];
            (a.req.source, a.req.unit_bits, a.source_period[substream])
        };
        self.report.generated += burst as u64;
        // Emit the whole burst now, grouped into per-target batches by
        // walking the WRR's runs (O(runs), not O(units)); one emission
        // event then covers `burst` periods. Consecutive runs toward the
        // same target coalesce into one batch — the striping run length
        // only matters where the stream actually splits, and fragmenting
        // a single-target burst would multiply transfer events and stack
        // sub-batches behind each other's CPU bursts. With `burst == 1`
        // this is exactly the per-unit source: one pick, one single-unit
        // batch.
        let mut left = burst;
        let mut open: Option<(NodeId, BatchRef)> = None;
        while left > 0 {
            let (target, n) = self.apps[app].source_wrr[substream].pick_run(left);
            let batch = match open {
                Some((t, b)) if t == target => b,
                Some((t, b)) => {
                    self.send_batch(now, source, t, b, q);
                    let b = self.batches.take();
                    open = Some((target, b));
                    b
                }
                None => {
                    let b = self.batches.take();
                    open = Some((target, b));
                    b
                }
            };
            for _ in 0..n {
                let seq = self.apps[app].next_seq[substream];
                self.apps[app].next_seq[substream] += 1;
                let u = self.store.alloc(app, substream, 0, seq, now, unit_bits);
                self.batches.push(batch, u);
            }
            left -= n;
        }
        if let Some((t, b)) = open {
            self.send_batch(now, source, t, b, q);
        }
        q.schedule(
            now + period.saturating_mul(burst as u64),
            Event::SourceEmit { app, substream },
        );
    }

    /// Transfers a batch over the network as one coalesced link event,
    /// charging drops to the overflowing NIC's node. A dropped transfer
    /// loses every unit in the batch — the all-or-nothing loss a
    /// coalesced NIC ring slot exhibits. Transfers between two components
    /// on the same node never touch the network: the paper models
    /// same-node edges as infinite-capacity (§3.5), and a real node hands
    /// the data unit between components in memory.
    fn send_batch(
        &mut self,
        now: SimTime,
        from: NodeId,
        to: NodeId,
        batch: BatchRef,
        q: &mut EventQueue<Event>,
    ) {
        let count = self.batches.len(batch) as u64;
        debug_assert!(count > 0, "empty batch sent");
        if !self.nodes[to].alive {
            self.drop_batch(batch, DropCause::NodeFailed, None);
            return;
        }
        if from == to {
            let ipc = SimDuration::from_micros(200);
            self.in_flight_net += count;
            q.schedule(now + ipc, Event::BatchArrive { node: to, batch });
            return;
        }
        let bits: u64 = self
            .batches
            .units(batch)
            .iter()
            .map(|&u| self.store.bits(u))
            .sum();
        match self.net.send(now, from, to, bits) {
            SendOutcome::Delivered(t) => {
                self.record_traffic(now, from, to, bits, true);
                self.in_flight_net += count;
                q.schedule(t, Event::BatchArrive { node: to, batch });
            }
            SendOutcome::Dropped(simnet::DropReason::SenderOverflow) => {
                self.drop_batch(batch, DropCause::NetSender, Some(from));
            }
            SendOutcome::Dropped(simnet::DropReason::ReceiverOverflow) => {
                self.record_traffic(now, from, to, bits, false);
                self.drop_batch(batch, DropCause::NetReceiver, Some(to));
            }
        }
    }

    /// Drops every unit in a still-attached batch, charging `cause` (and
    /// the drop-ratio feedback window of `blame`, when one node is at
    /// fault) once per unit, then releases the units' storage.
    fn drop_batch(&mut self, batch: BatchRef, cause: DropCause, blame: Option<NodeId>) {
        for i in 0..self.batches.len(batch) {
            let u = self.batches.units(batch)[i];
            self.report.count_drop(cause);
            if let Some(v) = blame {
                self.nodes[v].outcomes.record(true);
            }
            self.store.release(u);
        }
        self.batches.discard(batch);
    }

    /// Removes `n` units from the in-network ledger. A debit exceeding
    /// the ledger means an arrival fired twice or a send was never
    /// credited; `saturating_sub` would silently mask that bookkeeping
    /// bug, so debug builds assert and audited runs record the violation
    /// before clamping.
    fn debit_in_flight(&mut self, n: u64) {
        debug_assert!(
            self.in_flight_net >= n,
            "in_flight_net underflow: debit {n} exceeds ledger {}",
            self.in_flight_net
        );
        if let Some(rest) = self.in_flight_net.checked_sub(n) {
            self.in_flight_net = rest;
        } else {
            if let Some(aud) = self.auditor.as_mut() {
                aud.violation(format!(
                    "conservation: in_flight_net underflow (debit {n} exceeds ledger {})",
                    self.in_flight_net
                ));
            }
            self.in_flight_net = 0;
        }
    }

    fn handle_batch_arrive(
        &mut self,
        now: SimTime,
        node: NodeId,
        batch: BatchRef,
        q: &mut EventQueue<Event>,
    ) {
        let buf = self.batches.detach(batch);
        // The units left the network whatever happens to them next.
        self.debit_in_flight(buf.len() as u64);
        if !self.nodes[node].alive {
            for &u in &buf {
                self.report.count_drop(DropCause::NodeFailed);
                self.store.release(u);
            }
            self.batches.recycle(batch, buf);
            return;
        }
        // Process the batch as *runs* of consecutive same-component units
        // (a batch is usually one run): one map lookup, one estimator
        // update block, and one period computation cover the whole run.
        // With `transfer_batch == 1` every run is a single unit and this
        // is exactly the per-unit arrival path.
        let mut seen = std::mem::take(&mut self.arrive_scratch);
        seen.clear();
        let mut enqueued_any = false;
        let mut i = 0;
        while i < buf.len() {
            let app = self.store.app(buf[i]);
            let substream = self.store.substream(buf[i]);
            let layer = self.store.layer(buf[i]);
            let key: CompKey = (app, substream, layer);
            let mut j = i + 1;
            while j < buf.len()
                && self.store.app(buf[j]) == app
                && self.store.substream(buf[j]) == substream
                && self.store.layer(buf[j]) == layer
            {
                j += 1;
            }
            let run = j - i;
            // How many units of this component preceded this run in the
            // batch (non-zero only when runs of one component interleave).
            let base = match seen.iter_mut().find(|(k, _)| *k == key) {
                Some((_, n)) => {
                    let b = *n;
                    *n += run as u64;
                    b
                }
                None => {
                    seen.push((key, run as u64));
                    0
                }
            };
            let stages = self.apps[app].stage_count[substream];
            if layer >= stages {
                // Destination delivery (§4.2 metrics).
                debug_assert_eq!(node, self.apps[app].req.destination);
                for &u in &buf[i..j] {
                    let seq = self.store.seq(u);
                    if let Some(aud) = self.auditor.as_mut() {
                        let bound = self.apps[app].next_seq[substream];
                        aud.record_delivery(app, substream, seq, bound);
                    }
                    let created = self.store.created(u);
                    self.apps[app].trackers[substream].on_delivery(seq, created, now);
                    self.nodes[node].outcomes.record(false);
                    self.store.release(u);
                }
                i = j;
                continue;
            }
            if !self.nodes[node].comps.contains_key(&key) {
                // The application was torn down while these units were in
                // flight; they die quietly at the now-vacant node.
                for &u in &buf[i..j] {
                    self.report.count_drop(DropCause::Terminated);
                    self.store.release(u);
                }
                i = j;
                continue;
            }
            let (period, exec_est) = {
                let comp = self.nodes[node]
                    .comps
                    .get_mut(&key)
                    .expect("component checked above");
                for _ in 0..run {
                    comp.arrivals.record(now);
                }
                // Deadline basis: expected arrival of the next unit
                // (§3.4), from the measured period once enough samples
                // exist.
                let period = if comp.arrivals.len() >= 4 {
                    comp.arrivals
                        .period()
                        .unwrap_or_else(|| SimDuration::from_secs_f64(1.0 / comp.nominal_rate))
                } else {
                    SimDuration::from_secs_f64(1.0 / comp.nominal_rate)
                };
                let est = comp.exec_est.value_or(comp.nominal_exec_secs);
                (period, SimDuration::from_secs_f64(est))
            };
            for (off, &u) in buf[i..j].iter().enumerate() {
                // A batched transfer coalesces units whose uncoalesced
                // stream would have arrived one period apart; each unit
                // keeps the deadline of its *nominal* arrival slot — the
                // j-th same-component unit of this batch is due j periods
                // later — so coalescing never manufactures laxity drops.
                // At `transfer_batch == 1` the ordinal is always 0 and
                // this is the per-unit deadline `arr + p_ci` (§3.4)
                // exactly.
                let ordinal = base + off as u64;
                let job = Job {
                    meta: JobMeta {
                        arrival: now,
                        deadline: now + period.saturating_mul(ordinal + 1),
                        exec_time: exec_est,
                    },
                    payload: u,
                };
                if self.nodes[node].sched.enqueue(job).is_err() {
                    self.report.count_drop(DropCause::QueueFull);
                    self.nodes[node].outcomes.record(true);
                    self.store.release(u);
                    continue;
                }
                enqueued_any = true;
            }
            i = j;
        }
        self.arrive_scratch = seen;
        self.batches.recycle(batch, buf);
        if enqueued_any && self.nodes[node].running.is_empty() {
            self.start_cpu(now, node, q);
        }
    }

    /// Dispatches up to `transfer_batch` units onto the node's CPU
    /// (§3.4) as one burst covered by a single `CpuDone` event. Each
    /// unit still gets its own execution-time draw, so per-unit timing
    /// statistics are preserved; with `transfer_batch == 1` this is
    /// exactly the per-unit dispatch.
    fn start_cpu(&mut self, now: SimTime, node: NodeId, q: &mut EventQueue<Event>) {
        debug_assert!(
            self.nodes[node].running.is_empty(),
            "start_cpu on a busy node"
        );
        let burst = self.config.transfer_batch.max(1) as usize;
        let mut chosen = std::mem::take(&mut self.burst_scratch);
        chosen.clear();
        let dropped = self.nodes[node]
            .sched
            .dispatch_burst(now, burst, &mut chosen);
        for job in dropped {
            self.report.count_drop(DropCause::Laxity);
            self.nodes[node].outcomes.record(true);
            self.store.release(job.payload);
        }
        let mut total_ns = 0u64;
        // Consecutive chosen units usually share a component; cache the
        // last (key, base) pair to skip the map lookup on runs.
        let mut last: Option<(CompKey, f64)> = None;
        for job in chosen.drain(..) {
            let u = job.payload;
            let key: CompKey = (
                self.store.app(u),
                self.store.substream(u),
                self.store.layer(u),
            );
            let base = match last {
                Some((k, b)) if k == key => b,
                _ => {
                    let b = self.nodes[node]
                        .comps
                        .get(&key)
                        .map(|c| c.nominal_exec_secs)
                        .unwrap_or(0.002);
                    last = Some((key, b));
                    b
                }
            };
            let noise = if self.config.exec_noise_sigma > 0.0 {
                self.nodes[node]
                    .exec_rng
                    .log_normal(0.0, self.config.exec_noise_sigma)
                    .clamp(0.2, 5.0)
            } else {
                1.0
            };
            let exec = SimDuration::from_secs_f64(base * noise);
            total_ns += exec.as_nanos();
            self.nodes[node].running.push((u, exec));
        }
        self.burst_scratch = chosen;
        if !self.nodes[node].running.is_empty() {
            q.schedule(
                now + SimDuration::from_nanos(total_ns),
                Event::CpuDone { node },
            );
        }
    }

    /// Crash-stops node `v` and dynamically re-composes the affected
    /// applications (§1's "composes stream processing applications
    /// dynamically" under churn; the overlay's §3.3 failure handling
    /// keeps discovery working).
    fn handle_fail_node(&mut self, now: SimTime, v: NodeId, q: &mut EventQueue<Event>) {
        if !self.is_alive(v) {
            return;
        }
        if let Some(tr) = &mut self.trace {
            tr.record(now, TraceEvent::NodeFailed { node: v });
        }
        // Overlay + registry route around the corpse.
        self.overlay.remove(v);
        self.dir.handle_failure(&self.overlay, v);
        // Everything on the node dies with it — including the burst that
        // occupied its CPU, which must be counted like the queued units or
        // the data-unit conservation ledger leaks per crash of a busy
        // node (its CpuDone event still fires, finding nothing). The
        // queue is drained rather than discarded so every casualty's
        // storage goes back to the unit store.
        self.nodes[v].alive = false;
        self.nodes[v].bg_load = None;
        let queued = self.nodes[v].sched.drain();
        let busy = std::mem::take(&mut self.nodes[v].running);
        self.nodes[v].comps.clear();
        let mut lost = 0u64;
        for job in queued {
            self.store.release(job.payload);
            lost += 1;
        }
        for (u, _) in busy {
            self.store.release(u);
            lost += 1;
        }
        for _ in 0..lost {
            self.report.count_drop(DropCause::NodeFailed);
        }
        // Injected degradations die with the node too.
        self.loss_prob[v] = 0.0;
        self.net.set_latency_factor(v, 1.0);
        self.recompose_affected(now, v, q);
    }

    /// Stops every active application touching `v` and re-submits those
    /// whose endpoints are still alive (§1's "composes stream processing
    /// applications dynamically"). Shared by crash-stop and bandwidth
    /// degradation: after a crash the endpoint-dead applications simply
    /// stop; under degradation `v` is still alive, so even its own
    /// endpoints' applications re-compose against the shrunken capacity.
    fn recompose_affected(&mut self, now: SimTime, v: NodeId, q: &mut EventQueue<Event>) {
        let affected: Vec<AppId> = (0..self.apps.len())
            .filter(|&a| {
                let app = &self.apps[a];
                app.active
                    && (app.req.source == v
                        || app.req.destination == v
                        || app
                            .graph
                            .substreams
                            .iter()
                            .flatten()
                            .any(|st| st.placements.iter().any(|p| p.node == v)))
            })
            .collect();
        for app in affected {
            let req = self.apps[app].req.clone();
            let endpoints_alive = self.nodes[req.source].alive && self.nodes[req.destination].alive;
            // Adaptation hot path: repair the retained composition in
            // place — re-route only the rate the lost node carried —
            // and fall back to the cold stop-and-resubmit round trip
            // when the composer declines (no retained state, repair
            // shortfall, stale prices, or moved capacity).
            if endpoints_alive && self.try_repair_app(now, app, v) {
                continue;
            }
            self.handle_app_stop(app);
            if endpoints_alive {
                self.report.recompositions += 1;
                if let Ok(new_app) = self.handle_submit(now, req, q) {
                    if let Some(tr) = &mut self.trace {
                        tr.record(now, TraceEvent::Recomposed { new_app });
                    }
                }
            }
        }
    }

    /// Attempts the composer's in-place repair for `app` after `v`
    /// became unusable. On success the execution graph is swapped under
    /// the same app id (ledger, components, and dispatch rewired), so
    /// delivery resumes without a teardown/resubmit round trip.
    fn try_repair_app(&mut self, now: SimTime, app: AppId, v: NodeId) -> bool {
        let touches_v = self.apps[app]
            .graph
            .substreams
            .iter()
            .flatten()
            .any(|st| st.placements.iter().any(|p| p.node == v));
        if !touches_v {
            // Nothing to evacuate: the app was swept up because `v` is
            // one of its endpoints (degradation path), and repair
            // cannot move an endpoint — recompose cold.
            return false;
        }
        let req = self.apps[app].req.clone();
        let old_graph = self.apps[app].graph.clone();
        // Validate the repair against the current measured view with
        // the app's own ledger credited back — exactly the capacity a
        // cold stop-and-resubmit would negotiate against.
        self.shift_commitments(&req, &old_graph, -1.0);
        let view = self.measured_view(now);
        self.shift_commitments(&req, &old_graph, 1.0);
        let Some(new_graph) = self
            .composer
            .repair(app, &req, &self.catalog, &old_graph, v, &view)
        else {
            return false;
        };
        if !repaired_graph_is_sound(&old_graph, &new_graph, v) {
            // The composer broke the repair contract (rates or shape
            // changed, or the dead node is still placed). Never install
            // such a graph; surface the bug when auditing is on.
            if let Some(aud) = self.auditor.as_mut() {
                aud.violation(format!(
                    "repair: unsound graph for app {app} after node {v}"
                ));
            }
            self.composer.discard_retained(app);
            return false;
        }
        self.rewire_app(app, new_graph);
        self.report.recompositions += 1;
        self.report.repairs += 1;
        if let Some(tr) = &mut self.trace {
            tr.record(now, TraceEvent::Repaired { app });
        }
        true
    }

    /// Adds (`sign = 1.0`) or releases (`sign = -1.0`) one graph's
    /// committed-rate ledger entries.
    fn shift_commitments(&mut self, req: &ServiceRequest, graph: &ExecutionGraph, sign: f64) {
        let nodes = &mut self.nodes;
        for_each_commitment(&self.catalog, req, graph, &mut |v, din, dout, dcpu| {
            let node = &mut nodes[v];
            node.committed_in = (node.committed_in + sign * din).max(0.0);
            node.committed_out = (node.committed_out + sign * dout).max(0.0);
            node.committed_cpu = (node.committed_cpu + sign * dcpu).max(0.0);
        });
    }

    /// Swaps a repaired execution graph under `app`'s existing id:
    /// releases the old graph's ledger commitments and component
    /// instances, installs the new graph's, and rebuilds the dispatch
    /// (WRR) state. Trackers, sequence numbers, pacing, and gains carry
    /// over untouched — services and rates are repair-invariant. Units
    /// in flight toward a removed component are dropped on arrival as
    /// `Terminated`, exactly like the cold path's casualties.
    fn rewire_app(&mut self, app: AppId, new_graph: ExecutionGraph) {
        let req = self.apps[app].req.clone();
        let old_graph = std::mem::replace(&mut self.apps[app].graph, new_graph.clone());
        self.shift_commitments(&req, &old_graph, -1.0);
        self.shift_commitments(&req, &new_graph, 1.0);
        for (l, stages) in old_graph.substreams.iter().enumerate() {
            for (i, stage) in stages.iter().enumerate() {
                for p in &stage.placements {
                    self.nodes[p.node].comps.remove(&(app, l, i));
                }
            }
        }
        for (l, stages) in new_graph.substreams.iter().enumerate() {
            let first_targets: Vec<(NodeId, f64)> = stages[0]
                .placements
                .iter()
                .map(|p| (p.node, p.rate))
                .collect();
            let first_chunk = self.stage_chunk(&first_targets, stages[0].service, req.unit_bits);
            self.apps[app].source_wrr[l] = ChunkedWrr::new(Wrr::new(first_targets), first_chunk);
            for (i, stage) in stages.iter().enumerate() {
                let next: Option<Vec<(NodeId, f64)>> = stages
                    .get(i + 1)
                    .map(|nxt| nxt.placements.iter().map(|p| (p.node, p.rate)).collect());
                for p in &stage.placements {
                    let svc = self.catalog.get(stage.service);
                    let comp = CompState {
                        nominal_rate: p.rate,
                        nominal_exec_secs: svc.exec_time.as_secs_f64(),
                        service: stage.service,
                        arrivals: RateEstimator::new(self.config.monitor_window.max(2)),
                        exec_est: Ewma::new(0.2),
                        downstream: next.clone().map(|t| {
                            let chunk = self.stage_chunk(&t, stages[i + 1].service, req.unit_bits);
                            ChunkedWrr::new(Wrr::new(t), chunk)
                        }),
                    };
                    self.nodes[p.node].comps.insert((app, l, i), comp);
                }
            }
        }
    }

    /// Applies one injected fault action.
    fn handle_fault(&mut self, now: SimTime, action: FaultAction, q: &mut EventQueue<Event>) {
        match action {
            FaultAction::Crash(v) => self.handle_fail_node(now, v, q),
            FaultAction::Degrade { node, factor } => self.handle_degrade(now, node, factor, q),
            FaultAction::Restore(v) => self.handle_restore(now, v),
            FaultAction::LatencySpike {
                node,
                factor,
                duration,
            } => {
                if self.is_alive(node) {
                    self.net.set_latency_factor(node, factor.max(1.0));
                    q.schedule(now + duration, Event::Fault(FaultAction::LatencyCalm(node)));
                }
            }
            FaultAction::LatencyCalm(v) => {
                if v < self.nodes.len() {
                    self.net.set_latency_factor(v, 1.0);
                }
            }
            FaultAction::MessageLoss {
                node,
                prob,
                duration,
            } => {
                if self.is_alive(node) && !prob.is_nan() {
                    self.loss_prob[node] = prob.clamp(0.0, 1.0);
                    q.schedule(now + duration, Event::Fault(FaultAction::LossCalm(node)));
                }
            }
            FaultAction::LossCalm(v) => {
                if let Some(p) = self.loss_prob.get_mut(v) {
                    *p = 0.0;
                }
            }
        }
    }

    /// Whether `v` names a live node; `false` for one that does not exist.
    fn is_alive(&self, v: NodeId) -> bool {
        self.nodes.get(v).is_some_and(|n| n.alive)
    }

    /// Degrades a node's NIC rates to `factor` of pristine. If the
    /// shrunken capacity can no longer honour the ledger's commitments,
    /// the node's applications re-compose against the degraded
    /// availability (splitting across other hosts, shedding load, or
    /// rejecting outright) — the paper's dynamic adaptation is not only
    /// crash-stop. Within the admission bound the commitments still fit
    /// and the applications ride out the slowdown in place.
    fn handle_degrade(&mut self, now: SimTime, v: NodeId, factor: f64, q: &mut EventQueue<Event>) {
        // `clamp` passes NaN through, and the NIC refuses a NaN rate.
        if !self.is_alive(v) || factor.is_nan() {
            return;
        }
        let f = factor.clamp(0.05, 1.0);
        let base = self.base_specs[v];
        self.net
            .set_node_bandwidth(v, base.bw_in * f, base.bw_out * f);
        if let Some(tr) = &mut self.trace {
            tr.record(now, TraceEvent::Degraded { node: v, factor: f });
        }
        let head = self.config.admission_headroom;
        if self.nodes[v].committed_in > base.bw_in * f * head + 1e-6
            || self.nodes[v].committed_out > base.bw_out * f * head + 1e-6
        {
            self.recompose_affected(now, v, q);
        }
    }

    /// Restores a degraded node's pristine NIC rates.
    fn handle_restore(&mut self, now: SimTime, v: NodeId) {
        if !self.is_alive(v) {
            return;
        }
        let base = self.base_specs[v];
        self.net.set_node_bandwidth(v, base.bw_in, base.bw_out);
        // Every retained composition priced `v` at its degraded
        // capacity (or evacuated it outright); repairing against those
        // stale graphs would keep avoiding a healthy node forever, so
        // the next adaptation of each app re-solves cold instead.
        self.composer.discard_all_retained();
        if let Some(tr) = &mut self.trace {
            tr.record(now, TraceEvent::Restored { node: v });
        }
    }

    /// One auditor checkpoint; reschedules itself while the simulation
    /// still has work so the cadence survives arbitrarily long runs yet
    /// lets the backlog drain to empty at teardown.
    fn handle_audit_tick(&mut self, now: SimTime, q: &mut EventQueue<Event>) {
        if let Some(mut aud) = self.auditor.take() {
            aud.checkpoint(self, q);
            self.auditor = Some(aud);
        }
        if q.pending_len() > 0 {
            let period = SimDuration::from_secs_f64(self.config.audit_period_secs.max(0.05));
            q.schedule(now + period, Event::AuditTick);
        }
    }

    /// Tears an application down: sources quiesce, its components leave
    /// their nodes, and its committed rates are released so later
    /// compositions can reuse the capacity.
    fn handle_app_stop(&mut self, app: AppId) {
        if !self.apps[app].active {
            return;
        }
        self.apps[app].active = false;
        self.composer.discard_retained(app);
        let stop_time = self.now;
        if let Some(tr) = &mut self.trace {
            tr.record(stop_time, TraceEvent::AppStopped { app });
        }
        let req = self.apps[app].req.clone();
        let graph = self.apps[app].graph.clone();
        {
            let nodes = &mut self.nodes;
            for_each_commitment(&self.catalog, &req, &graph, &mut |v, din, dout, dcpu| {
                let node = &mut nodes[v];
                node.committed_in = (node.committed_in - din).max(0.0);
                node.committed_out = (node.committed_out - dout).max(0.0);
                node.committed_cpu = (node.committed_cpu - dcpu).max(0.0);
            });
        }
        for (l, stages) in graph.substreams.iter().enumerate() {
            for (i, stage) in stages.iter().enumerate() {
                for p in &stage.placements {
                    self.nodes[p.node].comps.remove(&(app, l, i));
                }
            }
        }
    }

    fn handle_bg_phase(&mut self, now: SimTime, node: NodeId, on: bool, q: &mut EventQueue<Event>) {
        let Some(bg) = self.config.background.clone() else {
            return;
        };
        if on {
            let load = self.rng.range_f64(bg.load.0, bg.load.1);
            self.nodes[node].bg_load = Some(load);
            q.schedule(now, Event::BgPulse { node });
            let dur = SimDuration::from_secs_f64(self.rng.exp(1.0 / bg.on_mean_secs.max(0.01)));
            q.schedule(now + dur, Event::BgPhase { node, on: false });
        } else {
            self.nodes[node].bg_load = None;
            let dur = SimDuration::from_secs_f64(self.rng.exp(1.0 / bg.off_mean_secs.max(0.01)));
            q.schedule(now + dur, Event::BgPhase { node, on: true });
        }
    }

    fn handle_bg_pulse(&mut self, now: SimTime, node: NodeId, q: &mut EventQueue<Event>) {
        let Some(bg) = self.config.background.clone() else {
            return;
        };
        if !self.nodes[node].alive {
            return;
        }
        let Some(load) = self.nodes[node].bg_load else {
            return; // phase ended; stop pulsing
        };
        let pulse = SimDuration::from_millis(bg.pulse_ms.max(1));
        let occupy = pulse.mul_f64(load);
        self.net.occupy(now, node, occupy, occupy);
        // The node's own monitoring sees the cross traffic (§3.2).
        let spec = self.net.topology().spec(node);
        let in_bits = (spec.bw_in * occupy.as_secs_f64()) as u64;
        let out_bits = (spec.bw_out * occupy.as_secs_f64()) as u64;
        self.nodes[node].in_meter.record(now, in_bits);
        self.nodes[node].out_meter.record(now, out_bits);
        q.schedule(now + pulse, Event::BgPulse { node });
    }

    fn handle_cpu_done(&mut self, now: SimTime, node: NodeId, q: &mut EventQueue<Event>) {
        let finished = std::mem::take(&mut self.nodes[node].running);
        if finished.is_empty() {
            // The node failed while this burst occupied its CPU.
            return;
        }
        // Outputs are grouped into per-target batches: consecutive units
        // bound for the same next hop share one link transfer. With a
        // burst of one this degenerates to exactly one single-unit send.
        let mut open: Option<(NodeId, BatchRef)> = None;
        for &(u, exec) in &finished {
            self.nodes[node].outcomes.record(false);
            if let Some(m) = &mut self.nodes[node].cpu_meter {
                m.record(now, exec.as_nanos());
            }
            // Update the running-time estimate and pick the next hop.
            let app = self.store.app(u);
            let substream = self.store.substream(u);
            let layer = self.store.layer(u);
            let next_layer = layer + 1;
            let (stages, destination) = {
                let a = &self.apps[app];
                (a.stage_count[substream], a.req.destination)
            };
            let out_gain = self.apps[app].gains[substream][next_layer];
            let out_bits = (self.apps[app].req.unit_bits as f64 * out_gain).round() as u64;
            let comp: CompKey = (app, substream, layer);
            let target = match self.nodes[node].comps.get_mut(&comp) {
                None => {
                    // Torn down while the unit occupied the CPU.
                    self.report.count_drop(DropCause::Terminated);
                    self.store.release(u);
                    continue;
                }
                Some(c) => {
                    c.exec_est.record(exec.as_secs_f64());
                    if next_layer >= stages {
                        destination
                    } else {
                        c.downstream
                            .as_mut()
                            .expect("non-final component lacks downstream")
                            .pick()
                    }
                }
            };
            self.store.advance(u, next_layer, out_bits.max(1));
            match open {
                Some((t, b)) if t == target => self.batches.push(b, u),
                _ => {
                    if let Some((t, b)) = open {
                        self.send_batch(now, node, t, b, q);
                    }
                    let b = self.batches.take();
                    self.batches.push(b, u);
                    open = Some((target, b));
                }
            }
        }
        if let Some((t, b)) = open {
            self.send_batch(now, node, t, b, q);
        }
        // Hand the (now consumed) burst vector back so its capacity is
        // reused by the next dispatch.
        let mut finished = finished;
        finished.clear();
        self.nodes[node].running = finished;
        self.start_cpu(now, node, q);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::ServiceRequest;
    use simnet::{kbps, TopologyBuilder};

    fn tiny_engine(config: EngineConfig) -> Engine {
        let catalog = ServiceCatalog::synthetic(2, 1);
        let mut b = TopologyBuilder::new().default_latency(SimDuration::from_millis(10));
        for _ in 0..4 {
            b.node(kbps(2_000.0), kbps(2_000.0));
        }
        Engine::builder(4, catalog, 1)
            .topology(b.build())
            .offers(vec![vec![0, 1], vec![0, 1], vec![], vec![]])
            .config(config)
            .build()
    }

    #[test]
    fn measured_view_reflects_commitments() {
        let mut engine = tiny_engine(EngineConfig::default());
        let before = engine.view_snapshot();
        engine
            .submit(ServiceRequest::chain(&[0], 20.0, 2, 3))
            .unwrap();
        let after = engine.view_snapshot();
        // The provider hosting the component lost ~20 du/s of headroom.
        let delta: f64 = (0..2)
            .map(|v| before.in_rate_capacity(v, 8192) - after.in_rate_capacity(v, 8192))
            .sum();
        assert!((delta - 20.0).abs() < 1.0, "committed delta {delta}");
        // The source's uplink and destination's downlink shrank too.
        assert!(after.out_rate_capacity(2, 8192) < before.out_rate_capacity(2, 8192));
        assert!(after.in_rate_capacity(3, 8192) < before.in_rate_capacity(3, 8192));
    }

    #[test]
    fn stage_chunk_adapts_to_branch_speed() {
        let engine = tiny_engine(EngineConfig::default());
        let state = &engine.state;
        // Single target: always the configured maximum.
        assert_eq!(
            state.stage_chunk(&[(0, 10.0)], 0, 8192),
            state.config.split_chunk
        );
        // Fast branches (2 Mbps NICs, ms-scale exec): no deficit, full chunk.
        assert_eq!(
            state.stage_chunk(&[(0, 10.0), (1, 10.0)], 0, 8192),
            state.config.split_chunk
        );
    }

    #[test]
    fn stage_chunk_shrinks_for_slow_service() {
        let catalog = ServiceCatalog::new(vec![crate::model::Service {
            id: 0,
            name: "heavy".into(),
            exec_time: SimDuration::from_millis(40),
            rate_ratio: 1.0,
        }]);
        let mut b = TopologyBuilder::new().default_latency(SimDuration::from_millis(10));
        for _ in 0..4 {
            b.node(kbps(10_000.0), kbps(10_000.0));
        }
        let engine = Engine::builder(4, catalog, 1)
            .topology(b.build())
            .offers(vec![vec![0], vec![0], vec![], vec![]])
            .build();
        // Two branches at 15 du/s each: stream period 33 ms < exec 40 ms,
        // so the chunk must shrink well below the default of 16.
        let chunk = engine.state.stage_chunk(&[(0, 15.0), (1, 15.0)], 0, 8192);
        assert!(chunk < 8, "chunk {chunk} too large for a 40 ms service");
        assert!(chunk >= 1);
    }

    #[test]
    fn invalid_request_counts_as_rejected() {
        let mut engine = tiny_engine(EngineConfig::default());
        assert!(engine
            .submit(ServiceRequest::chain(&[99], 5.0, 2, 3))
            .is_err());
        assert_eq!(engine.report().rejected, 1);
        assert_eq!(engine.report().composed, 0);
    }

    #[test]
    fn background_phases_toggle_load() {
        let config = EngineConfig {
            background: Some(BackgroundTraffic::flaky(vec![0, 1])),
            ..Default::default()
        };
        let mut engine = tiny_engine(config);
        // Run long enough for several ON/OFF cycles; the flaky nodes'
        // NICs must show occupancy (bits metered by the pulses).
        engine.run_for_secs(30.0);
        let mut v = engine.view_snapshot();
        let _ = &mut v;
        let busy0 = engine.state.nodes[0].in_meter.total_bits();
        let busy2 = engine.state.nodes[2].in_meter.total_bits();
        assert!(busy0 > 0, "flaky node never saw cross traffic");
        assert_eq!(busy2, 0, "non-flaky node saw cross traffic");
    }

    #[test]
    fn cpu_meter_exists_only_under_cpu_admission() {
        let blind = tiny_engine(EngineConfig::default());
        assert!(blind.state.nodes.iter().all(|n| n.cpu_meter.is_none()));
        let aware = tiny_engine(EngineConfig {
            cpu_cores: Some(1.0),
            ..Default::default()
        });
        assert!(aware.state.nodes.iter().all(|n| n.cpu_meter.is_some()));
    }

    #[test]
    fn report_components_and_splits_track_graphs() {
        let mut engine = tiny_engine(EngineConfig::default());
        engine
            .submit(ServiceRequest::chain(&[0, 1], 10.0, 2, 3))
            .unwrap();
        let r = engine.report();
        assert_eq!(r.composed, 1);
        assert_eq!(r.components as usize, engine.app_graph(0).component_count());
    }
}
