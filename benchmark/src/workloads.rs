//! The four workloads as one table, and the seeded generators that turn a
//! row plus `--seed` into the engine's inputs: a world (catalog, topology,
//! service offers, engine configuration) and a schedule of arrivals,
//! lifetimes and faults in simulated time.
//!
//! The seed reaches nothing else: the engine under test only ever sees
//! the generated inputs.

use desim::{SimDuration, SimRng, SimTime};
use rasc_core::engine::{BackgroundTraffic, Engine, EngineConfig};
use rasc_core::model::{Service, ServiceCatalog, ServiceRequest};
use simnet::{kbps, NodeId, Topology, TopologyBuilder};
use workload::{PaperSetup, RequestGenerator};

/// The shape of the simulated deployment a workload runs on.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum WorldKind {
    /// `workload::PaperSetup::default()`: 32 processing + 16 edge nodes,
    /// 10 services, flaky cross traffic; 150 Kb/s multi-substream requests.
    Paper,
    /// 32 providers (2 of 8 cheap services each) + 16 endpoints with NICs
    /// sized against 1 000 units/s three-stage chains.
    Stream,
    /// `Topology::power_law(n)`, 10 services at provider density 1/16,
    /// 6 units/s three-stage chains between random endpoints.
    PowerLaw {
        /// Overlay size.
        n: usize,
    },
}

/// How requests reach the engine.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Arrivals {
    /// `count` requests at Poisson instants (a Poisson process conditioned
    /// on its count: sorted uniform draws) over the first `window` share of
    /// the episode, one `Engine::submit` each.
    Poisson {
        /// Requests per episode.
        count: usize,
        /// Share of `sim_secs` over which they arrive.
        window: f64,
    },
    /// One `Engine::submit_batch` of `size` requests every `every_secs`.
    Bursts {
        /// Requests per burst.
        size: usize,
        /// Simulated seconds between bursts.
        every_secs: f64,
    },
}

/// One row of the workload table. Every count is frozen: the sizes were
/// settled once against the seed commit (see README.md) and only a change
/// to the benchmark itself may move them.
#[derive(Clone, Copy, Debug)]
pub struct Spec {
    /// Workload name, as `BENCHMARK.json` lists it.
    pub name: &'static str,
    /// Deployment shape.
    pub world: WorldKind,
    /// Independent engines per lifecycle, each on its own seeded world
    /// (only `paper40` uses more than one: a 48-node world is too small
    /// for one instance to average out topology luck).
    pub episodes: usize,
    /// Simulated seconds per episode before the drain.
    pub sim_secs: f64,
    /// Arrival process.
    pub arrivals: Arrivals,
    /// Application lifetime range in simulated seconds (`None`: until the
    /// drain).
    pub lifetime_secs: Option<(f64, f64)>,
    /// Crashes aimed at a node that hosts a live component, per episode.
    pub aimed_crashes: usize,
    /// NIC degradations (to [`DEGRADE_FACTOR`]) aimed likewise, each
    /// followed by a `restore_node` after `restore_after_secs`.
    pub aimed_degrades: usize,
    /// Crashes of uniformly random nodes, per episode.
    pub random_crashes: usize,
    /// Simulated seconds between a degradation and its restore.
    pub restore_after_secs: f64,
    /// `EngineConfig::candidate_cap`; everything else is
    /// `EngineConfig::default()` (plus the paper world's cross traffic).
    pub candidate_cap: Option<usize>,
    /// Iterations of each standalone replay loop of the traced run
    /// (`desim`, `simnet`, `sched`, `monitor`, `view`, `overlay`).
    pub probe_ops: usize,
}

/// NIC rate left to a degraded node, as a share of pristine.
pub const DEGRADE_FACTOR: f64 = 0.1;

/// Faults fall in this share of the episode, so that apps are already
/// running and repaired apps still have time to deliver.
const FAULT_WINDOW: (f64, f64) = (0.2, 0.9);

/// The workload table.
pub const WORKLOADS: [Spec; 4] = [
    Spec {
        name: "paper40",
        world: WorldKind::Paper,
        episodes: 24,
        sim_secs: 200.0,
        arrivals: Arrivals::Poisson {
            count: 30,
            window: 0.8,
        },
        lifetime_secs: Some((40.0, 120.0)),
        aimed_crashes: 2,
        aimed_degrades: 2,
        random_crashes: 1,
        restore_after_secs: 20.0,
        candidate_cap: None,
        probe_ops: 200_000,
    },
    Spec {
        name: "stream48",
        world: WorldKind::Stream,
        episodes: 1,
        sim_secs: 20.0,
        arrivals: Arrivals::Poisson {
            count: 48,
            window: 0.05,
        },
        lifetime_secs: None,
        aimed_crashes: 8,
        aimed_degrades: 2,
        random_crashes: 0,
        restore_after_secs: 2.0,
        candidate_cap: None,
        probe_ops: 200_000,
    },
    Spec {
        name: "burst4k",
        world: WorldKind::PowerLaw { n: 4_000 },
        episodes: 1,
        sim_secs: 60.0,
        arrivals: Arrivals::Bursts {
            size: 128,
            every_secs: 2.0,
        },
        lifetime_secs: Some((12.0, 12.0)),
        aimed_crashes: 5,
        aimed_degrades: 2,
        random_crashes: 1,
        restore_after_secs: 4.0,
        candidate_cap: Some(16),
        probe_ops: 200_000,
    },
    Spec {
        name: "churn1k",
        world: WorldKind::PowerLaw { n: 1_000 },
        episodes: 1,
        sim_secs: 90.0,
        arrivals: Arrivals::Poisson {
            count: 600,
            window: 0.9,
        },
        lifetime_secs: Some((10.0, 30.0)),
        aimed_crashes: 24,
        aimed_degrades: 16,
        random_crashes: 8,
        restore_after_secs: 5.0,
        candidate_cap: None,
        probe_ops: 200_000,
    },
];

/// Looks a workload up by name.
pub fn find(name: &str) -> Option<Spec> {
    WORKLOADS.iter().copied().find(|s| s.name == name)
}

impl Spec {
    /// The same lifecycle at a size the schema self-test can run in a
    /// debug build: every phase still happens, nothing is measured.
    pub fn quick(mut self) -> Spec {
        self.episodes = self.episodes.min(2);
        if let WorldKind::PowerLaw { n } = &mut self.world {
            *n = 256;
        }
        self.sim_secs = match self.world {
            WorldKind::Paper => 30.0,
            WorldKind::Stream => 1.5,
            WorldKind::PowerLaw { .. } => 6.0,
        };
        self.arrivals = match self.arrivals {
            Arrivals::Poisson { count, window } => Arrivals::Poisson {
                count: count.min(12),
                window,
            },
            Arrivals::Bursts { every_secs, .. } => Arrivals::Bursts {
                size: 8,
                every_secs: every_secs * 2.0,
            },
        };
        self.lifetime_secs = self
            .lifetime_secs
            .map(|(lo, hi)| (lo.min(3.0), hi.min(5.0)));
        self.aimed_crashes = self.aimed_crashes.min(2);
        self.aimed_degrades = self.aimed_degrades.min(2);
        self.random_crashes = self.random_crashes.min(1);
        self.restore_after_secs = self.restore_after_secs.min(1.0);
        self.probe_ops = 2_000;
        self
    }
}

/// SplitMix64: decorrelates the per-purpose sub-seeds drawn from `--seed`.
fn mix(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// The seed of episode `episode` of a run started with `--seed seed`.
pub fn episode_seed(seed: u64, episode: usize) -> u64 {
    mix(seed ^ mix(episode as u64 + 1))
}

/// Everything `Engine::builder` needs, generated from a seed.
#[derive(Clone, Debug)]
pub struct World {
    /// The deployment shape this world was generated for.
    pub kind: WorldKind,
    /// Seed handed to `Engine::builder` (and to the harness-owned overlay
    /// of a traced run, which must match the engine's).
    pub seed: u64,
    /// The services that exist.
    pub catalog: ServiceCatalog,
    /// The simulated network.
    pub topology: Topology,
    /// `offers[node]` = services the node hosts.
    pub offers: Vec<Vec<usize>>,
    /// The engine configuration of this workload.
    pub config: EngineConfig,
    /// Nodes that may originate or terminate a stream.
    pub endpoints: Vec<NodeId>,
}

/// Average request rate on the paper world, Kb/s (the paper sweeps 50–200).
const PAPER_RATE_KBPS: f64 = 150.0;

/// Stream-world geometry.
const STREAM_PROVIDERS: usize = 32;
const STREAM_ENDPOINTS: usize = 16;
const STREAM_SERVICES: usize = 8;
/// Per-app unit rate on the stream world (units/s).
const STREAM_RATE: f64 = 1_000.0;
/// Provider NIC rate on the stream world, Kb/s per direction: 0.75 of it
/// is admittable, which fits five to six 8.2 Mb/s stage streams — tight
/// enough that later arrivals must split across leftovers, loose enough
/// that all 48 chains are admitted.
const STREAM_PROVIDER_KBPS: f64 = 72000.0;
/// Endpoint NIC rate on the stream world, Kb/s per direction.
const STREAM_ENDPOINT_KBPS: f64 = 120_000.0;

/// Power-law-world constants (the admission bench's, so its kernel rows
/// and this benchmark's end-to-end rows describe the same regime).
const PLAW_SERVICES: usize = 10;
const PLAW_PROVIDER_DENSITY: usize = 16;
/// Per-app unit rate on the power-law worlds (units/s; 49 Kb/s).
const PLAW_RATE: f64 = 6.0;

/// The simulated network of a world kind, on its own so the traced run
/// can time the generator alone (`simnet.topology_build_s`).
pub fn topology(kind: WorldKind, seed: u64) -> Topology {
    match kind {
        WorldKind::Paper => World::paper_setup(seed).topology(),
        WorldKind::Stream => {
            let mut rng = SimRng::new(mix(seed ^ 0x4E49_4353));
            let mut b = TopologyBuilder::new().default_latency(SimDuration::from_millis(4));
            for _ in 0..STREAM_PROVIDERS {
                let bw = kbps(STREAM_PROVIDER_KBPS * rng.range_f64(0.9, 1.1));
                b.node(bw, bw);
            }
            for _ in 0..STREAM_ENDPOINTS {
                b.node(kbps(STREAM_ENDPOINT_KBPS), kbps(STREAM_ENDPOINT_KBPS));
            }
            b.build()
        }
        WorldKind::PowerLaw { n } => Topology::power_law(n, kbps(300.0), kbps(3_000.0), seed),
    }
}

impl World {
    /// Generates the world of one episode.
    pub fn generate(spec: &Spec, seed: u64) -> World {
        match spec.world {
            WorldKind::Paper => Self::paper(spec, seed),
            WorldKind::Stream => Self::stream(spec, seed),
            WorldKind::PowerLaw { n } => Self::power_law(spec, n, seed),
        }
    }

    /// Number of nodes.
    pub fn n(&self) -> usize {
        self.topology.len()
    }

    fn paper_setup(seed: u64) -> PaperSetup {
        PaperSetup {
            seed,
            avg_rate_kbps: PAPER_RATE_KBPS,
            ..PaperSetup::default()
        }
    }

    fn paper(spec: &Spec, seed: u64) -> World {
        let setup = Self::paper_setup(seed);
        let config = EngineConfig {
            services_per_node: setup.services_per_node,
            background: Some(BackgroundTraffic::flaky(setup.flaky_nodes())),
            candidate_cap: spec.candidate_cap,
            ..EngineConfig::default()
        };
        World {
            kind: spec.world,
            seed,
            catalog: ServiceCatalog::synthetic(setup.services, seed),
            topology: topology(spec.world, seed),
            offers: setup.offers(),
            config,
            endpoints: setup.endpoint_ids(),
        }
    }

    fn stream(spec: &Spec, seed: u64) -> World {
        let mut rng = SimRng::new(mix(seed ^ 0x5354_5245_414D));
        let catalog = ServiceCatalog::new(
            (0..STREAM_SERVICES)
                .map(|id| Service {
                    id,
                    name: format!("stream-{id}"),
                    exec_time: SimDuration::from_micros(100),
                    rate_ratio: 1.0,
                })
                .collect(),
        );
        // Every service on exactly 8 providers, every provider offering 2
        // distinct services: provider p takes the pair (p mod 8, p mod 8 +
        // 1 + p div 8), then labels and hosts are shuffled by the seed.
        let mut label: Vec<usize> = (0..STREAM_SERVICES).collect();
        rng.shuffle(&mut label);
        let mut host: Vec<usize> = (0..STREAM_PROVIDERS).collect();
        rng.shuffle(&mut host);
        let mut offers = vec![Vec::new(); STREAM_PROVIDERS + STREAM_ENDPOINTS];
        for p in 0..STREAM_PROVIDERS {
            let first = p % STREAM_SERVICES;
            let second = (first + 1 + p / STREAM_SERVICES) % STREAM_SERVICES;
            let mut pair = vec![label[first], label[second]];
            pair.sort_unstable();
            offers[host[p]] = pair;
        }
        World {
            kind: spec.world,
            seed,
            catalog,
            topology: topology(spec.world, seed),
            offers,
            config: EngineConfig {
                candidate_cap: spec.candidate_cap,
                ..EngineConfig::default()
            },
            endpoints: (STREAM_PROVIDERS..STREAM_PROVIDERS + STREAM_ENDPOINTS).collect(),
        }
    }

    fn power_law(spec: &Spec, n: usize, seed: u64) -> World {
        let mut rng = SimRng::new(mix(seed ^ 0x504C_4157));
        let mut offers = vec![Vec::new(); n];
        for s in 0..PLAW_SERVICES {
            for h in rng.sample_indices(n, (n / PLAW_PROVIDER_DENSITY).max(16)) {
                offers[h].push(s);
            }
        }
        World {
            kind: spec.world,
            seed,
            catalog: ServiceCatalog::synthetic(PLAW_SERVICES, seed),
            topology: topology(spec.world, seed),
            offers,
            config: EngineConfig {
                candidate_cap: spec.candidate_cap,
                ..EngineConfig::default()
            },
            endpoints: (0..n).collect(),
        }
    }

    /// Builds the engine exactly as a user would: `Engine::builder` with
    /// this world's inputs. `audit` switches the invariant auditor on for
    /// the untimed correctness repetition.
    pub fn build_engine(&self, audit: bool) -> Engine {
        Engine::builder(self.n(), self.catalog.clone(), self.seed)
            .topology(self.topology.clone())
            .offers(self.offers.clone())
            .config(EngineConfig {
                audit,
                ..self.config.clone()
            })
            .build()
    }
}

/// Which node a fault strikes. Aimed faults are resolved by the driver at
/// the instant they fire, against the apps then running.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Target {
    /// A node hosting a component of a live app; `draw` picks which.
    Hosting {
        /// Seeded draw that selects the app and the placement.
        draw: u64,
    },
    /// A node chosen uniformly from all nodes; `draw` picks which.
    Random {
        /// Seeded draw that selects the node.
        draw: u64,
    },
}

/// One public engine call of the lifecycle.
#[derive(Clone, Debug)]
pub enum Op {
    /// `Engine::submit`.
    Submit(ServiceRequest),
    /// `Engine::submit_batch`.
    Batch(Vec<ServiceRequest>),
    /// `Engine::fail_node`.
    Crash(Target),
    /// `Engine::degrade_node` to [`DEGRADE_FACTOR`].
    Degrade(Target),
    /// `Engine::restore_node` of the oldest still-degraded node.
    Restore,
}

/// An [`Op`] and the simulated instant it is issued at.
#[derive(Clone, Debug)]
pub struct Step {
    /// When, in simulated time.
    pub at: SimTime,
    /// What.
    pub op: Op,
}

/// The schedule of one episode: steps in time order, then the horizon.
#[derive(Clone, Debug)]
pub struct Schedule {
    /// Engine calls in issue order.
    pub steps: Vec<Step>,
    /// End of the episode; `finish_run` follows.
    pub horizon: SimTime,
    /// Requests the schedule submits.
    pub requests: usize,
}

impl Schedule {
    /// Generates one episode's arrivals, lifetimes and faults.
    pub fn generate(spec: &Spec, world: &World, seed: u64) -> Schedule {
        let mut rng = SimRng::new(mix(seed ^ 0x5343_4845_4455));
        let mut requests = RequestSource::new(spec, world, seed);
        let mut steps = Vec::new();
        let mut count = 0usize;
        match spec.arrivals {
            Arrivals::Poisson { count: k, window } => {
                let mut at: Vec<f64> = (0..k).map(|_| rng.f64() * window * spec.sim_secs).collect();
                at.sort_unstable_by(|a, b| a.partial_cmp(b).expect("finite"));
                for t in at {
                    let req = requests.next(&mut rng, spec.lifetime_secs);
                    steps.push(Step {
                        at: SimTime::from_secs_f64(t),
                        op: Op::Submit(req),
                    });
                    count += 1;
                }
            }
            Arrivals::Bursts { size, every_secs } => {
                let bursts = (spec.sim_secs / every_secs).floor() as usize;
                for k in 0..bursts {
                    let reqs: Vec<ServiceRequest> = (0..size)
                        .map(|_| requests.next(&mut rng, spec.lifetime_secs))
                        .collect();
                    count += reqs.len();
                    steps.push(Step {
                        at: SimTime::from_secs_f64(k as f64 * every_secs),
                        op: Op::Batch(reqs),
                    });
                }
            }
        }
        let fault_at =
            |rng: &mut SimRng| spec.sim_secs * rng.range_f64(FAULT_WINDOW.0, FAULT_WINDOW.1);
        for _ in 0..spec.aimed_crashes {
            let t = fault_at(&mut rng);
            let draw = rng.next_u64();
            steps.push(Step {
                at: SimTime::from_secs_f64(t),
                op: Op::Crash(Target::Hosting { draw }),
            });
        }
        for _ in 0..spec.random_crashes {
            let t = fault_at(&mut rng);
            let draw = rng.next_u64();
            steps.push(Step {
                at: SimTime::from_secs_f64(t),
                op: Op::Crash(Target::Random { draw }),
            });
        }
        // Degradations are spaced so their restores keep issue order: the
        // driver restores the oldest degraded node first.
        let mut degrade_at: Vec<f64> = (0..spec.aimed_degrades)
            .map(|_| fault_at(&mut rng))
            .collect();
        degrade_at.sort_unstable_by(|a, b| a.partial_cmp(b).expect("finite"));
        for t in degrade_at {
            let draw = rng.next_u64();
            steps.push(Step {
                at: SimTime::from_secs_f64(t),
                op: Op::Degrade(Target::Hosting { draw }),
            });
            steps.push(Step {
                at: SimTime::from_secs_f64((t + spec.restore_after_secs).min(spec.sim_secs)),
                op: Op::Restore,
            });
        }
        // Stable: simultaneous steps keep generation order.
        steps.sort_by_key(|s| s.at);
        Schedule {
            steps,
            horizon: SimTime::from_secs_f64(spec.sim_secs),
            requests: count,
        }
    }
}

/// Draws the requests of one episode.
enum RequestSource {
    /// The paper's generator (2–5 services, one or two substreams).
    Paper(RequestGenerator),
    /// Three-stage chains of distinct services between drawn endpoints.
    Chains {
        services: usize,
        rate: f64,
        endpoints: Vec<NodeId>,
    },
}

impl RequestSource {
    fn new(spec: &Spec, world: &World, seed: u64) -> Self {
        match spec.world {
            WorldKind::Paper => RequestSource::Paper(
                RequestGenerator::new(world.catalog.len(), world.n(), PAPER_RATE_KBPS, seed)
                    .with_endpoints(world.endpoints.clone()),
            ),
            WorldKind::Stream => RequestSource::Chains {
                services: STREAM_SERVICES,
                rate: STREAM_RATE,
                endpoints: world.endpoints.clone(),
            },
            WorldKind::PowerLaw { .. } => RequestSource::Chains {
                services: PLAW_SERVICES,
                rate: PLAW_RATE,
                endpoints: world.endpoints.clone(),
            },
        }
    }

    fn next(&mut self, rng: &mut SimRng, lifetime_secs: Option<(f64, f64)>) -> ServiceRequest {
        let req = match self {
            RequestSource::Paper(gen) => gen.next_request(),
            RequestSource::Chains {
                services,
                rate,
                endpoints,
            } => {
                let chain = rng.sample_indices(*services, 3);
                let source = *rng.choose(endpoints);
                let destination = loop {
                    let d = *rng.choose(endpoints);
                    if d != source {
                        break d;
                    }
                };
                ServiceRequest::chain(&chain, *rate, source, destination)
            }
        };
        match lifetime_secs {
            Some((lo, hi)) => {
                let secs = if hi > lo { rng.range_f64(lo, hi) } else { lo };
                req.with_lifetime(SimDuration::from_secs_f64(secs))
            }
            None => req,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_inputs_other_seed_other_inputs() {
        for spec in WORKLOADS.map(Spec::quick) {
            let a = World::generate(&spec, 5);
            let b = World::generate(&spec, 5);
            assert_eq!(a.offers, b.offers, "{}", spec.name);
            let sa = Schedule::generate(&spec, &a, 5);
            let sb = Schedule::generate(&spec, &b, 5);
            assert_eq!(format!("{:?}", sa.steps), format!("{:?}", sb.steps));
            let sc = Schedule::generate(&spec, &World::generate(&spec, 6), 6);
            assert_ne!(format!("{:?}", sa.steps), format!("{:?}", sc.steps));
        }
    }

    #[test]
    fn stream_world_offers_are_balanced() {
        let w = World::generate(&find("stream48").unwrap(), 3);
        for s in 0..STREAM_SERVICES {
            let hosts = w.offers.iter().filter(|o| o.contains(&s)).count();
            assert_eq!(hosts, 8, "service {s}");
        }
        assert!(w.offers[..STREAM_PROVIDERS].iter().all(|o| o.len() == 2));
        assert!(w.offers[STREAM_PROVIDERS..].iter().all(|o| o.is_empty()));
    }

    #[test]
    fn restores_follow_their_degrades() {
        let spec = find("churn1k").unwrap();
        let w = World::generate(&spec.quick(), 1);
        let s = Schedule::generate(&spec.quick(), &w, 1);
        let mut open = 0i64;
        for step in &s.steps {
            match step.op {
                Op::Degrade(_) => open += 1,
                Op::Restore => {
                    open -= 1;
                    assert!(open >= 0, "restore before its degrade");
                }
                _ => {}
            }
        }
        assert_eq!(open, 0);
    }
}
