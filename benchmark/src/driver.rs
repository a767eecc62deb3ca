//! The lifecycle driver: set-up → arrivals → steady data plane → crash /
//! degrade / restore → departures → `finish_run`, through the engine's
//! public calls only, each timed from out here.
//!
//! Load model: the schedule is open-loop in *simulated* time (arrivals and
//! faults fire at their seeded instants whatever the engine does); in
//! wall-clock terms the driver is one caller that issues the next public
//! call when the previous one returns (closed loop, one client), because
//! the engine is a synchronous simulator. The driver is single-threaded.

use crate::workloads::{episode_seed, Op, Schedule, Spec, Target, World, DEGRADE_FACTOR};
use desim::{SimDuration, SimTime};
use rasc_core::engine::{fnv1a64, Engine};
use rasc_core::metrics::RunReport;
use rasc_core::model::{AppId, ServiceRequest};
use simnet::NodeId;
use std::collections::VecDeque;
use std::time::Instant;

/// Which fault call a sample came from.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FaultKind {
    /// `Engine::fail_node`.
    Crash,
    /// `Engine::degrade_node`.
    Degrade,
}

/// One timed `fail_node` / `degrade_node` call.
#[derive(Clone, Copy, Debug)]
pub struct FaultCall {
    /// Wall time inside the call.
    pub ns: u64,
    /// Which call.
    pub kind: FaultKind,
    /// Live apps with live endpoints the fault touched (Δ`recompositions`
    /// across the call).
    pub hit: u64,
    /// Of those, active again when the call returned (repaired in place
    /// or recomposed: `hit` − Δ`rejected`).
    pub restored: u64,
}

/// What an engine call was, for the traced run's probe.
pub enum Call<'a> {
    /// `Engine::submit`.
    Submit(&'a ServiceRequest),
    /// `Engine::submit_batch`.
    Batch(&'a [ServiceRequest]),
    /// `Engine::run_until`.
    Run,
    /// `Engine::fail_node`.
    Crash(NodeId),
    /// `Engine::degrade_node`.
    Degrade(NodeId),
    /// `Engine::restore_node`.
    Restore(NodeId),
    /// `Engine::finish_run`.
    Drain,
}

/// Hooks the traced run hangs its spans and replays on. The untimed
/// default does nothing and compiles away.
pub trait Probe {
    /// A fresh engine was built for an episode.
    fn episode(&mut self, _world: &World, _engine: &mut Engine) {}
    /// About to issue `call` as operation `op`: replay its layers now,
    /// while the engine still holds the state the call will see.
    fn before(&mut self, _op: u64, _call: &Call<'_>, _engine: &mut Engine) {}
    /// `call` ran from `start` to `end`.
    fn after(&mut self, _op: u64, _call: &Call<'_>, _start: Instant, _end: Instant) {}
    /// The harness knows `app` came from `req` (a successful `submit`).
    fn admitted(&mut self, _app: AppId, _req: &ServiceRequest, _expires: SimTime) {}
    /// Wall time the probe itself has consumed so far (excluded from
    /// `lifecycle_ns`).
    fn own_ns(&self) -> u64 {
        0
    }
}

/// The probe of an untraced run.
pub struct NoProbe;
impl Probe for NoProbe {}

/// Everything one repetition of a workload's lifecycle produced.
#[derive(Clone, Debug, Default)]
pub struct Lifecycle {
    /// World + schedule generation + `EngineBuilder::build`, summed over
    /// episodes.
    pub setup_ns: u64,
    /// Of `setup_ns`: `EngineBuilder::build` alone.
    pub build_ns: u64,
    /// Of `setup_ns`: schedule generation alone.
    pub schedule_gen_ns: u64,
    /// First arrival → `finish_run` returned, summed over episodes, probe
    /// time excluded.
    pub lifecycle_ns: u64,
    /// Wall time of every `submit` / `submit_batch` call.
    pub submits_ns: Vec<u64>,
    /// Wall time of every `run_until` call.
    pub runs_ns: Vec<u64>,
    /// Simulated seconds advanced by `run_until`.
    pub sim_secs: f64,
    /// Every crash / degrade call.
    pub faults: Vec<FaultCall>,
    /// Wall time of every `restore_node` call.
    pub restores_ns: Vec<u64>,
    /// Wall time of every `finish_run` call (one per episode).
    pub drains_ns: Vec<u64>,
    /// `lifecycle_ns` minus the time inside engine calls: the harness's
    /// own share.
    pub harness_ns: u64,
    /// Requests submitted.
    pub submitted: u64,
    /// Scheduled requests never issued because an earlier crash had taken
    /// their source or destination (see `endpoints_alive`).
    pub skipped: u64,
    /// Requests admitted (harness-side count of `Ok`).
    pub admitted: u64,
    /// Batch-reconcile conflicts, summed over `submit_batch` calls.
    pub batch_conflicts: u64,
    /// Requests that went through conflict replay.
    pub batch_replayed: u64,
    /// Operations whose outcome contradicted the engine's own books.
    pub harness_errors: u64,
    /// First few error descriptions.
    pub error_notes: Vec<String>,
    /// `Engine::report()` after the drain, merged over episodes.
    pub report: RunReport,
    /// `Engine::run_digest()` of every episode, folded.
    pub digest: u64,
    /// Auditor violations (audited repetition only).
    pub audit_violations: u64,
    /// Auditor checkpoints taken (audited repetition only).
    pub audit_checkpoints: u64,
    /// First few violation messages.
    pub audit_notes: Vec<String>,
    /// Σ over the apps the harness admitted of the links one unit crosses
    /// (stages + 1, averaged over the app's substreams), for
    /// `engine.run_ns_per_hop`.
    pub hops_weight: f64,
}

impl Lifecycle {
    /// Wall time inside `run_until`.
    pub fn run_ns(&self) -> u64 {
        self.runs_ns.iter().sum()
    }

    /// Wall time inside `finish_run`.
    pub fn drain_ns(&self) -> u64 {
        self.drains_ns.iter().sum()
    }

    /// Wall time inside engine calls of any kind.
    pub fn engine_ns(&self) -> u64 {
        self.submit_ns() + self.run_ns() + self.fault_ns() + self.drain_ns()
    }

    /// Wall time inside admission calls.
    pub fn submit_ns(&self) -> u64 {
        self.submits_ns.iter().sum()
    }

    /// Wall time inside crash / degrade / restore calls.
    pub fn fault_ns(&self) -> u64 {
        self.faults.iter().map(|c| c.ns).sum::<u64>() + self.restores_ns.iter().sum::<u64>()
    }

    /// Live apps with live endpoints that faults touched.
    pub fn hit(&self) -> u64 {
        self.faults.iter().map(|c| c.hit).sum()
    }

    /// Of [`hit`](Self::hit), active again on return.
    pub fn restored(&self) -> u64 {
        self.faults.iter().map(|c| c.restored).sum()
    }

    /// The counts that must repeat exactly for a given seed, whatever the
    /// wall clock did.
    pub fn deterministic_counts(&self) -> [u64; 12] {
        let r = &self.report;
        [
            self.digest,
            self.admitted,
            r.composed,
            r.rejected,
            r.generated,
            r.delivered,
            r.timely,
            r.repairs,
            r.recompositions,
            r.total_drops(),
            self.batch_conflicts,
            self.hit(),
        ]
    }

    fn error(&mut self, note: String) {
        self.harness_errors += 1;
        if self.error_notes.len() < 8 {
            self.error_notes.push(note);
        }
    }
}

/// Worker threads handed to `submit_batch`: `min(2, nproc)`.
pub fn batch_threads() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
        .min(2)
}

/// Runs one repetition of `spec`'s lifecycle on the inputs `seed`
/// generates. `audit` switches the engine's invariant auditor on.
pub fn run_lifecycle<P: Probe>(spec: &Spec, seed: u64, audit: bool, probe: &mut P) -> Lifecycle {
    let mut out = Lifecycle::default();
    let mut digests = Vec::with_capacity(spec.episodes);
    let mut op = 0u64;
    for episode in 0..spec.episodes {
        let SetUp {
            world,
            schedule,
            mut engine,
        } = set_up(spec, seed, episode, audit, &mut out);
        probe.episode(&world, &mut engine);
        let probe_before = probe.own_ns();
        let submitted_before = out.submitted;
        let l0 = Instant::now();
        run_episode(&schedule, &mut engine, probe, &mut op, &mut out);
        out.lifecycle_ns += l0.elapsed().as_nanos() as u64 - (probe.own_ns() - probe_before);
        let report = engine.report();
        digests.push(engine.run_digest());
        let submitted = out.submitted - submitted_before;
        check_books(&mut out, &report, submitted);
        merge_report(&mut out.report, &report);
    }
    out.digest = fnv1a64(digests);
    out.harness_ns = out.lifecycle_ns.saturating_sub(out.engine_ns());
    out
}

/// The noise floor of repetitions on the same inputs.
///
/// The repetitions issue the same calls in the same order (the digest
/// check says so), and each call is a deterministic computation, so
/// whatever one repetition's call took beyond another's is the machine,
/// not the engine: interference only ever adds time. On the shared 2-core
/// box this benchmark was sized on, the engine and a fixed pointer-chasing
/// loop vary by up to 1.5× within a minute (a pure ALU loop does not: it
/// is the neighbours' memory traffic), in waves from sub-second to
/// minutes; a median over repetitions inherits that, the per-call minimum
/// less so, because each call gets as many chances to meet a quiet moment
/// as there are repetitions. README.md has the measurements.
///
/// Returns the first repetition with every engine call's wall time
/// replaced by the minimum over `reps` of that same call (the harness's
/// own share likewise, whole), and `lifecycle_ns` re-summed from them. If
/// the repetitions do not line up call for call, which the `repeat` check
/// reports on its own, the first repetition is returned unchanged.
pub fn noise_floor(reps: &[Lifecycle]) -> Lifecycle {
    let mut floor = reps[0].clone();
    let aligned = reps.iter().all(|l| {
        l.submits_ns.len() == floor.submits_ns.len()
            && l.runs_ns.len() == floor.runs_ns.len()
            && l.faults.len() == floor.faults.len()
            && l.restores_ns.len() == floor.restores_ns.len()
            && l.drains_ns.len() == floor.drains_ns.len()
    });
    if !aligned {
        return floor;
    }
    for l in &reps[1..] {
        for (a, b) in floor.faults.iter_mut().zip(&l.faults) {
            a.ns = a.ns.min(b.ns);
        }
        for (a, b) in [
            (&mut floor.submits_ns, &l.submits_ns),
            (&mut floor.runs_ns, &l.runs_ns),
            (&mut floor.restores_ns, &l.restores_ns),
            (&mut floor.drains_ns, &l.drains_ns),
        ] {
            for (x, y) in a.iter_mut().zip(b) {
                *x = (*x).min(*y);
            }
        }
        floor.harness_ns = floor.harness_ns.min(l.harness_ns);
    }
    floor.lifecycle_ns = floor.engine_ns() + floor.harness_ns;
    floor
}

/// One episode's inputs and the engine built on them.
struct SetUp {
    world: World,
    schedule: Schedule,
    engine: Engine,
}

/// Everything between process start and the first timed call of an
/// episode: world and schedule generation from the seed, then
/// `EngineBuilder::build` (topology, overlay, directory, composer). Its
/// wall time is added to `out`'s set-up counters.
fn set_up(spec: &Spec, seed: u64, episode: usize, audit: bool, out: &mut Lifecycle) -> SetUp {
    let eseed = episode_seed(seed, episode);
    let t0 = Instant::now();
    let world = World::generate(spec, eseed);
    let g0 = Instant::now();
    let schedule = Schedule::generate(spec, &world, eseed);
    out.schedule_gen_ns += g0.elapsed().as_nanos() as u64;
    let b0 = Instant::now();
    let engine = world.build_engine(audit);
    out.build_ns += b0.elapsed().as_nanos() as u64;
    out.setup_ns += t0.elapsed().as_nanos() as u64;
    SetUp {
        world,
        schedule,
        engine,
    }
}

/// Sets a whole lifecycle up (every episode) and throws it away: one more
/// `setup_s` sample, in nanoseconds.
pub fn set_up_only(spec: &Spec, seed: u64) -> u64 {
    let mut out = Lifecycle::default();
    for episode in 0..spec.episodes {
        std::hint::black_box(
            set_up(spec, seed, episode, false, &mut out)
                .schedule
                .steps
                .len(),
        );
    }
    out.setup_ns
}

/// Issues one engine call between the probe's hooks and returns its wall
/// time in nanoseconds.
fn timed<P: Probe, T>(
    probe: &mut P,
    op: &mut u64,
    call: Call<'_>,
    engine: &mut Engine,
    f: impl FnOnce(&mut Engine) -> T,
) -> (T, u64) {
    *op += 1;
    probe.before(*op, &call, engine);
    let start = Instant::now();
    let value = f(engine);
    let end = Instant::now();
    probe.after(*op, &call, start, end);
    (value, (end - start).as_nanos() as u64)
}

fn run_episode<P: Probe>(
    schedule: &Schedule,
    engine: &mut Engine,
    probe: &mut P,
    op: &mut u64,
    out: &mut Lifecycle,
) {
    let n = engine.network().len();
    // Apps the harness admitted and believes alive: (id, expiry).
    let mut live: Vec<(AppId, SimTime)> = Vec::new();
    let mut degraded: VecDeque<NodeId> = VecDeque::new();
    let threads = batch_threads();
    let slice = SimDuration::from_nanos(
        (schedule.horizon.saturating_since(SimTime::ZERO).as_nanos() / SLICES_PER_EPISODE).max(1),
    );
    for step in &schedule.steps {
        run_to(engine, step.at, slice, probe, op, out);
        match &step.op {
            Op::Submit(req) => {
                if !endpoints_alive(engine, req) {
                    out.skipped += 1;
                    continue;
                }
                let before = engine.app_count();
                // Cloned out here: the engine takes requests by value, and
                // the copy is the harness's cost, not the call's.
                let owned = req.clone();
                let (result, ns) = timed(probe, op, Call::Submit(req), engine, |e| e.submit(owned));
                out.submitted += 1;
                let ok = result.is_ok();
                if let Ok(app) = result {
                    note_admitted(engine, app, req, &mut live, probe, out);
                }
                if engine.app_count() != before + ok as usize {
                    out.error(format!("submit at {:?}: app count disagrees", step.at));
                }
                out.submits_ns.push(ns);
            }
            Op::Batch(scheduled) => {
                let reqs: Vec<ServiceRequest> = scheduled
                    .iter()
                    .filter(|r| endpoints_alive(engine, r))
                    .cloned()
                    .collect();
                out.skipped += (scheduled.len() - reqs.len()) as u64;
                let reqs = &reqs;
                let before = engine.app_count();
                let owned = reqs.clone();
                let (report, ns) = timed(probe, op, Call::Batch(reqs), engine, |e| {
                    e.submit_batch(owned, threads)
                });
                out.submitted += reqs.len() as u64;
                let mut admitted = 0usize;
                for (req, result) in reqs.iter().zip(&report.apps) {
                    if let Ok(app) = result {
                        admitted += 1;
                        note_admitted(engine, *app, req, &mut live, probe, out);
                    }
                }
                if report.apps.len() != reqs.len() || engine.app_count() != before + admitted {
                    out.error(format!("batch at {:?}: outcome count disagrees", step.at));
                }
                out.batch_conflicts += report.stats.conflicts as u64;
                out.batch_replayed += report.replayed.len() as u64;
                out.submits_ns.push(ns);
            }
            Op::Crash(target) => {
                let v = resolve(*target, engine, &mut live, n);
                let call = fault(probe, op, Call::Crash(v), engine, |e| e.fail_node(v));
                if engine.node_alive(v) {
                    out.error(format!("crash of {v}: node still alive"));
                }
                out.faults.push(call);
            }
            Op::Degrade(target) => {
                let v = resolve(*target, engine, &mut live, n);
                let call = fault(probe, op, Call::Degrade(v), engine, |e| {
                    e.degrade_node(v, DEGRADE_FACTOR)
                });
                degraded.push_back(v);
                out.faults.push(call);
            }
            Op::Restore => {
                if let Some(v) = degraded.pop_front() {
                    let ((), ns) =
                        timed(probe, op, Call::Restore(v), engine, |e| e.restore_node(v));
                    out.restores_ns.push(ns);
                }
            }
        }
    }
    run_to(engine, schedule.horizon, slice, probe, op, out);
    let (audit, ns) = timed(probe, op, Call::Drain, engine, |e| e.finish_run());
    out.drains_ns.push(ns);
    out.audit_violations += audit.violation_count();
    out.audit_checkpoints += audit.checkpoints;
    for v in audit.violations.iter().take(4) {
        if out.audit_notes.len() < 8 {
            out.audit_notes.push(v.clone());
        }
    }
}

/// A user whose machine has crashed submits nothing, and nobody streams to
/// a dead sink. (The engine would not refuse such a request: at the seed
/// commit `Engine::submit` from a crashed source panics inside
/// `Overlay::route_path`, which README.md lists as a first-run finding.)
fn endpoints_alive(engine: &Engine, req: &ServiceRequest) -> bool {
    engine.node_alive(req.source) && engine.node_alive(req.destination)
}

/// `run_until` is issued in slices of at most this share of the episode,
/// so that the data plane contributes many short timed calls (what
/// [`noise_floor`] needs) instead of a few long ones.
const SLICES_PER_EPISODE: u64 = 64;

/// Advances the simulation to `at` (a no-op when already there).
fn run_to<P: Probe>(
    engine: &mut Engine,
    at: SimTime,
    slice: SimDuration,
    probe: &mut P,
    op: &mut u64,
    out: &mut Lifecycle,
) {
    while engine.now() < at {
        let from = engine.now();
        let to = (from + slice).min(at);
        let ((), ns) = timed(probe, op, Call::Run, engine, |e| e.run_until(to));
        if engine.now() < to {
            out.error(format!("run_until({to:?}) stopped at {:?}", engine.now()));
            return;
        }
        out.runs_ns.push(ns);
        out.sim_secs += to.saturating_since(from).as_secs_f64();
    }
}

/// Times a fault call and reads, from the engine's own counters on either
/// side of it, how many live apps it touched and how many came back.
fn fault<P: Probe>(
    probe: &mut P,
    op: &mut u64,
    call: Call<'_>,
    engine: &mut Engine,
    f: impl FnOnce(&mut Engine),
) -> FaultCall {
    let kind = match call {
        Call::Degrade(_) => FaultKind::Degrade,
        _ => FaultKind::Crash,
    };
    let before = engine.report();
    let ((), ns) = timed(probe, op, call, engine, f);
    let after = engine.report();
    let hit = after.recompositions - before.recompositions;
    let lost = after.rejected - before.rejected;
    FaultCall {
        ns,
        kind,
        hit,
        restored: hit.saturating_sub(lost),
    }
}

fn note_admitted<P: Probe>(
    engine: &Engine,
    app: AppId,
    req: &ServiceRequest,
    live: &mut Vec<(AppId, SimTime)>,
    probe: &mut P,
    out: &mut Lifecycle,
) {
    let expires = match req.lifetime {
        Some(l) => engine.now() + l,
        None => SimTime::MAX,
    };
    live.push((app, expires));
    out.admitted += 1;
    // Each delivered unit crossed one link per stage plus the last hop.
    out.hops_weight += req
        .graph
        .substreams
        .iter()
        .map(|s| (s.services.len() + 1) as f64)
        .sum::<f64>()
        / req.graph.substreams.len() as f64;
    probe.admitted(app, req, expires);
}

/// Picks the node a fault strikes. `Hosting` walks the harness's list of
/// live apps from a seeded start and takes the first alive node carrying
/// one of their components; with nothing running it degenerates to
/// `Random`, which probes forward from a seeded node to the next alive
/// one. Deterministic because the engine is.
fn resolve(target: Target, engine: &Engine, live: &mut Vec<(AppId, SimTime)>, n: usize) -> NodeId {
    let now = engine.now();
    let draw = match target {
        Target::Hosting { draw } => {
            live.retain(|&(_, expires)| expires > now);
            for k in 0..live.len().min(8) {
                let (app, _) = live[(draw as usize).wrapping_add(k) % live.len()];
                let nodes: Vec<NodeId> = engine
                    .app_graph(app)
                    .substreams
                    .iter()
                    .flatten()
                    .flat_map(|stage| stage.placements.iter().map(|p| p.node))
                    .collect();
                for j in 0..nodes.len() {
                    let v = nodes[((draw >> 32) as usize).wrapping_add(j) % nodes.len()];
                    if engine.node_alive(v) {
                        return v;
                    }
                }
            }
            draw
        }
        Target::Random { draw } => draw,
    };
    (0..n)
        .map(|k| (draw as usize).wrapping_add(k) % n)
        .find(|&v| engine.node_alive(v))
        .expect("a workload never crashes every node")
}

/// Cross-checks the harness's counts against the engine's books after an
/// episode has drained.
fn check_books(out: &mut Lifecycle, r: &RunReport, submitted: u64) {
    let cold = r.recompositions - r.repairs;
    if r.composed + r.rejected != submitted + cold {
        out.error(format!(
            "admission books: composed {} + rejected {} != submitted {} + cold recompositions {}",
            r.composed, r.rejected, submitted, cold
        ));
    }
    if r.delivered + r.total_drops() != r.generated {
        out.error(format!(
            "unit books: delivered {} + dropped {} != generated {}",
            r.delivered,
            r.total_drops(),
            r.generated
        ));
    }
}

/// Folds one episode's report into the lifecycle's.
fn merge_report(into: &mut RunReport, r: &RunReport) {
    into.composed += r.composed;
    into.rejected += r.rejected;
    into.generated += r.generated;
    into.delivered += r.delivered;
    into.timely += r.timely;
    into.out_of_order += r.out_of_order;
    for (a, b) in into.drops.iter_mut().zip(&r.drops) {
        *a += b;
    }
    into.delay_ms.merge(&r.delay_ms);
    if let Some(h) = &r.delay_hist_ms {
        match &mut into.delay_hist_ms {
            Some(acc) => acc.merge(h),
            None => into.delay_hist_ms = Some(h.clone()),
        }
    }
    into.jitter_ms.merge(&r.jitter_ms);
    into.components += r.components;
    into.split_requests += r.split_requests;
    into.recompositions += r.recompositions;
    into.repairs += r.repairs;
}
