//! The paper's application model (§2): services, request graphs,
//! substreams, rate requirements, and execution graphs.

use desim::{SimDuration, SimRng};
use simnet::NodeId;

/// Identifies a service (a processing *function*, e.g. "transcode").
pub type ServiceId = usize;

/// Identifies a submitted application within an engine run.
pub type AppId = usize;

/// Static description of one service.
#[derive(Clone, Debug)]
pub struct Service {
    /// Dense id.
    pub id: ServiceId,
    /// Human-readable name (also the DHT registration key input).
    pub name: String,
    /// Mean CPU time to process one data unit (`t_ci`'s ground truth; the
    /// runtime adds noise and the monitors re-estimate it).
    pub exec_time: SimDuration,
    /// Output rate / input rate (`R_ci`, §2.2). 1.0 for the paper's
    /// evaluated configuration.
    pub rate_ratio: f64,
}

/// The set of services that exist in a deployment.
#[derive(Clone, Debug)]
pub struct ServiceCatalog {
    services: Vec<Service>,
}

impl ServiceCatalog {
    /// Builds a catalog from explicit services.
    pub fn new(services: Vec<Service>) -> Self {
        assert!(!services.is_empty(), "catalog cannot be empty");
        for (i, s) in services.iter().enumerate() {
            assert_eq!(s.id, i, "service ids must be dense and in order");
            assert!(s.rate_ratio > 0.0, "rate ratio must be positive");
        }
        ServiceCatalog { services }
    }

    /// A synthetic catalog of `n` services with exec times spread over
    /// 1–8 ms and unit rate ratios (the paper's evaluated case),
    /// deterministic in `seed`.
    pub fn synthetic(n: usize, seed: u64) -> Self {
        let mut rng = SimRng::new(seed ^ 0x5345525649434553);
        let services = (0..n)
            .map(|id| Service {
                id,
                name: format!("service-{id}"),
                exec_time: SimDuration::from_micros(rng.range_u64(1_000, 8_000)),
                rate_ratio: 1.0,
            })
            .collect();
        ServiceCatalog::new(services)
    }

    /// Number of services.
    pub fn len(&self) -> usize {
        self.services.len()
    }

    /// True when the catalog is empty (never, by construction).
    pub fn is_empty(&self) -> bool {
        self.services.is_empty()
    }

    /// The service with the given id.
    pub fn get(&self, id: ServiceId) -> &Service {
        &self.services[id]
    }

    /// All services.
    pub fn iter(&self) -> impl Iterator<Item = &Service> {
        self.services.iter()
    }
}

/// One substream of a request: a chain of services the stream traverses
/// in order, from the source to the destination (§2.2).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Substream {
    /// The service chain, in processing order.
    pub services: Vec<ServiceId>,
}

/// The service request graph `G_req`: one or more substreams that all
/// originate at the request's source and terminate at its destination.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ServiceRequestGraph {
    /// The `m` substreams.
    pub substreams: Vec<Substream>,
}

impl ServiceRequestGraph {
    /// Total number of service invocations across substreams.
    pub fn total_services(&self) -> usize {
        self.substreams.iter().map(|s| s.services.len()).sum()
    }
}

/// A user's stream processing request: `req = <G_req, r_req>` plus the
/// endpoints and the data-unit size (application-defined, §2.1).
#[derive(Clone, Debug)]
pub struct ServiceRequest {
    /// The service request graph.
    pub graph: ServiceRequestGraph,
    /// Rate requirement vector: required *delivery* rate (data units per
    /// second at the destination) per substream.
    pub rates: Vec<f64>,
    /// The node where the stream originates.
    pub source: NodeId,
    /// The node that presents results to the user.
    pub destination: NodeId,
    /// Size of one data unit in bits.
    pub unit_bits: u64,
    /// How long the stream runs once started; `None` = until the end of
    /// the simulation (the paper's continuous-stream case).
    pub lifetime: Option<SimDuration>,
}

/// Default data-unit size: 8 kilobits (1 KiB), a typical media chunk.
pub const DEFAULT_UNIT_BITS: u64 = 8_192;

impl ServiceRequest {
    /// Convenience constructor: a single substream through `services` at
    /// `rate` data units per second.
    pub fn chain(services: &[ServiceId], rate: f64, source: NodeId, destination: NodeId) -> Self {
        assert!(!services.is_empty(), "empty service chain");
        assert!(rate > 0.0, "rate must be positive");
        ServiceRequest {
            graph: ServiceRequestGraph {
                substreams: vec![Substream {
                    services: services.to_vec(),
                }],
            },
            rates: vec![rate],
            source,
            destination,
            unit_bits: DEFAULT_UNIT_BITS,
            lifetime: None,
        }
    }

    /// Limits the stream to `lifetime` of emission once it starts; the
    /// engine then tears the application down and releases its
    /// capacity commitments.
    pub fn with_lifetime(mut self, lifetime: SimDuration) -> Self {
        assert!(lifetime > SimDuration::ZERO, "lifetime must be positive");
        self.lifetime = Some(lifetime);
        self
    }

    /// Multi-substream constructor mirroring the paper's Figure 2.
    pub fn multi(
        substreams: Vec<Vec<ServiceId>>,
        rates: Vec<f64>,
        source: NodeId,
        destination: NodeId,
    ) -> Self {
        assert_eq!(substreams.len(), rates.len(), "one rate per substream");
        assert!(!substreams.is_empty(), "at least one substream");
        assert!(substreams.iter().all(|s| !s.is_empty()), "empty substream");
        assert!(rates.iter().all(|&r| r > 0.0), "rates must be positive");
        ServiceRequest {
            graph: ServiceRequestGraph {
                substreams: substreams
                    .into_iter()
                    .map(|services| Substream { services })
                    .collect(),
            },
            rates,
            source,
            destination,
            unit_bits: DEFAULT_UNIT_BITS,
            lifetime: None,
        }
    }

    /// Aggregate requested delivery rate in bits/s (for reporting).
    pub fn total_bits_per_sec(&self) -> f64 {
        self.rates.iter().sum::<f64>() * self.unit_bits as f64
    }

    /// Checks that the request can be composed at all, whatever the
    /// state of the system: at least one substream, no empty substream,
    /// one positive finite rate per substream, and every service id in
    /// `catalog`.
    pub fn validate(&self, catalog: &ServiceCatalog) -> Result<(), RequestError> {
        let substreams = &self.graph.substreams;
        if substreams.is_empty() {
            return Err(RequestError::NoSubstreams);
        }
        if self.rates.len() != substreams.len() {
            return Err(RequestError::RateCount {
                substreams: substreams.len(),
                rates: self.rates.len(),
            });
        }
        for (i, (sub, &rate)) in substreams.iter().zip(&self.rates).enumerate() {
            if sub.services.is_empty() {
                return Err(RequestError::EmptySubstream(i));
            }
            if !(rate > 0.0 && rate.is_finite()) {
                return Err(RequestError::BadRate(i));
            }
            if let Some(&s) = sub.services.iter().find(|&&s| s >= catalog.len()) {
                return Err(RequestError::UnknownService(s));
            }
        }
        Ok(())
    }
}

/// Why a [`ServiceRequest`] is malformed (see [`ServiceRequest::validate`]).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum RequestError {
    /// The request graph has no substream.
    NoSubstreams,
    /// `rates` does not hold exactly one entry per substream.
    RateCount {
        /// Substreams in the request graph.
        substreams: usize,
        /// Entries in `rates`.
        rates: usize,
    },
    /// The substream at this index names no service.
    EmptySubstream(usize),
    /// The rate of the substream at this index is not positive and finite.
    BadRate(usize),
    /// The request names a service outside the catalog.
    UnknownService(ServiceId),
}

impl std::fmt::Display for RequestError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RequestError::NoSubstreams => write!(f, "request has no substream"),
            RequestError::RateCount { substreams, rates } => {
                write!(f, "{rates} rates for {substreams} substreams")
            }
            RequestError::EmptySubstream(i) => write!(f, "substream {i} names no service"),
            RequestError::BadRate(i) => {
                write!(f, "rate of substream {i} is not positive and finite")
            }
            RequestError::UnknownService(s) => write!(f, "unknown service id {s}"),
        }
    }
}

impl std::error::Error for RequestError {}

/// One deployed component: an instance of a service on a node carrying a
/// fraction of a substream's rate.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Placement {
    /// The hosting node.
    pub node: NodeId,
    /// Input rate assigned to this instance (data units per second).
    pub rate: f64,
}

/// All instances of one service invocation (one "stage" of a substream).
/// Rate splitting ⇒ possibly more than one placement.
#[derive(Clone, Debug, PartialEq)]
pub struct Stage {
    /// The service this stage instantiates.
    pub service: ServiceId,
    /// The component instances and their rate shares.
    pub placements: Vec<Placement>,
}

impl Stage {
    /// Total input rate across instances.
    pub fn total_rate(&self) -> f64 {
        self.placements.iter().map(|p| p.rate).sum()
    }
}

/// The execution graph: the mapping of a request onto the overlay
/// (§2.3) — per substream, the ordered stages with their placements.
#[derive(Clone, Debug, PartialEq)]
pub struct ExecutionGraph {
    /// Per-substream stage chains, aligned with the request's substreams.
    pub substreams: Vec<Vec<Stage>>,
}

impl ExecutionGraph {
    /// Number of component instances overall.
    pub fn component_count(&self) -> usize {
        self.substreams
            .iter()
            .flatten()
            .map(|st| st.placements.len())
            .sum()
    }

    /// Whether any stage was split across multiple nodes.
    pub fn has_splitting(&self) -> bool {
        self.substreams
            .iter()
            .flatten()
            .any(|st| st.placements.len() > 1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn synthetic_catalog_is_deterministic() {
        let a = ServiceCatalog::synthetic(10, 3);
        let b = ServiceCatalog::synthetic(10, 3);
        assert_eq!(a.len(), 10);
        for (x, y) in a.iter().zip(b.iter()) {
            assert_eq!(x.exec_time, y.exec_time);
            assert_eq!(x.name, y.name);
        }
        assert!(a.iter().all(|s| s.rate_ratio == 1.0));
        assert!(a.iter().all(|s| s.exec_time >= SimDuration::from_millis(1)
            && s.exec_time <= SimDuration::from_millis(8)));
    }

    #[test]
    fn chain_request_shape() {
        let r = ServiceRequest::chain(&[2, 0, 1], 12.5, 3, 9);
        assert_eq!(r.graph.substreams.len(), 1);
        assert_eq!(r.graph.total_services(), 3);
        assert_eq!(r.rates, vec![12.5]);
        assert_eq!(r.source, 3);
        assert_eq!(r.destination, 9);
        assert!((r.total_bits_per_sec() - 12.5 * 8192.0).abs() < 1e-9);
    }

    #[test]
    fn multi_request_mirrors_figure_2() {
        // Figure 2: substream 1 through s1, s2; substream 2 through s3.
        let r = ServiceRequest::multi(vec![vec![1, 2], vec![3]], vec![10.0, 5.0], 0, 7);
        assert_eq!(r.graph.substreams.len(), 2);
        assert_eq!(r.graph.substreams[0].services, vec![1, 2]);
        assert_eq!(r.graph.substreams[1].services, vec![3]);
    }

    #[test]
    fn validate_catches_unknown_service() {
        let catalog = ServiceCatalog::synthetic(3, 1);
        let ok = ServiceRequest::chain(&[0, 2], 5.0, 0, 1);
        let bad = ServiceRequest::chain(&[0, 7], 5.0, 0, 1);
        assert!(ok.validate(&catalog).is_ok());
        assert_eq!(bad.validate(&catalog), Err(RequestError::UnknownService(7)));
    }

    #[test]
    fn execution_graph_accounting() {
        let g = ExecutionGraph {
            substreams: vec![vec![
                Stage {
                    service: 0,
                    placements: vec![
                        Placement { node: 1, rate: 6.0 },
                        Placement { node: 2, rate: 4.0 },
                    ],
                },
                Stage {
                    service: 1,
                    placements: vec![Placement {
                        node: 3,
                        rate: 10.0,
                    }],
                },
            ]],
        };
        assert_eq!(g.component_count(), 3);
        assert!(g.has_splitting());
        assert!((g.substreams[0][0].total_rate() - 10.0).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "one rate per substream")]
    fn multi_rate_mismatch_panics() {
        ServiceRequest::multi(vec![vec![0]], vec![1.0, 2.0], 0, 1);
    }

    #[test]
    #[should_panic(expected = "dense")]
    fn catalog_requires_dense_ids() {
        ServiceCatalog::new(vec![Service {
            id: 5,
            name: "x".into(),
            exec_time: SimDuration::from_millis(1),
            rate_ratio: 1.0,
        }]);
    }
}
