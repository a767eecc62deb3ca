//! Topologies: node capacities and the pairwise latency model.

use crate::{Bandwidth, NodeId};
use desim::{SimDuration, SimRng};

/// Static capacities of one node.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct NodeSpec {
    /// Input NIC bandwidth, bits/s (`b_in` in the paper).
    pub bw_in: Bandwidth,
    /// Output NIC bandwidth, bits/s (`b_out` in the paper).
    pub bw_out: Bandwidth,
}

/// Loopback latency every model reports on the diagonal.
const LOOPBACK: SimDuration = SimDuration::from_micros(50);

/// How pairwise latencies are stored.
///
/// The dense table is exact and arbitrary but costs `n²` entries — fine
/// up to a few hundred nodes, ruinous at 10k (a 10k-node table is 800 MB
/// of `SimDuration`). The clustered model stores one cluster id per node
/// plus a `c × c` inter-cluster base table (`O(n + c²)`) and derives the
/// per-pair value as `base × jitter`, where the jitter is a deterministic
/// hash of the (unordered) pair — so latencies stay symmetric, per-pair
/// heterogeneous, and reproducible without ever materializing the matrix.
#[derive(Clone, Debug)]
enum LatencyModel {
    /// Row-major `n × n` one-way propagation latencies; diagonal is the
    /// loopback latency (tiny but non-zero).
    Dense(Vec<SimDuration>),
    Clustered {
        /// Cluster id per node (`len() == n`).
        cluster_of: Vec<u32>,
        /// Row-major `c × c` symmetric base latency in ms.
        inter_ms: Vec<f64>,
        /// Seed for the per-pair jitter hash.
        jitter_seed: u64,
        /// Multiplicative jitter half-width: the per-pair multiplier is
        /// drawn (deterministically) from `[1 - w, 1 + w]`.
        jitter_width: f64,
    },
}

/// SplitMix64 — the per-pair jitter hash. Full-avalanche, so adjacent
/// pair keys decorrelate completely.
fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E3779B97F4A7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D049BB133111EB);
    x ^ (x >> 31)
}

impl LatencyModel {
    // `always`: see `rasc_core::compose::LatencyMatrix::get`.
    #[inline(always)]
    fn get(&self, u: NodeId, v: NodeId, n: usize) -> SimDuration {
        match self {
            LatencyModel::Dense(m) => m[u * n + v],
            LatencyModel::Clustered {
                cluster_of,
                inter_ms,
                jitter_seed,
                jitter_width,
            } => {
                if u == v {
                    return LOOPBACK;
                }
                let c = (inter_ms.len() as f64).sqrt() as usize;
                let (cu, cv) = (cluster_of[u] as usize, cluster_of[v] as usize);
                let base = inter_ms[cu * c + cv];
                // Unordered pair key → symmetric jitter.
                let (a, b) = if u < v { (u, v) } else { (v, u) };
                let h = splitmix64(((a as u64) << 32 | b as u64) ^ jitter_seed);
                let x = (h >> 11) as f64 / (1u64 << 53) as f64; // [0, 1)
                let mult = 1.0 - jitter_width + 2.0 * jitter_width * x;
                SimDuration::from_millis_f64(base * mult)
            }
        }
    }

    /// Stored latency entries (the memory-footprint observable the
    /// large-topology tests assert on).
    fn storage_entries(&self) -> usize {
        match self {
            LatencyModel::Dense(m) => m.len(),
            LatencyModel::Clustered {
                cluster_of,
                inter_ms,
                ..
            } => cluster_of.len() + inter_ms.len(),
        }
    }
}

/// Immutable network shape: who can talk to whom, how fast, how far.
///
/// The overlay is a full mesh (any node can send to any other; Pastry picks
/// multi-hop routes on top of it); pairwise latency comes from a
/// [`LatencyModel`] — dense for the hand-sized topologies, clustered for
/// the 1k–10k-node generators so the table never goes `O(n²)`.
#[derive(Clone, Debug)]
pub struct Topology {
    specs: Vec<NodeSpec>,
    latency: LatencyModel,
}

impl Topology {
    /// Number of nodes.
    pub fn len(&self) -> usize {
        self.specs.len()
    }

    /// True when the topology has no nodes.
    pub fn is_empty(&self) -> bool {
        self.specs.is_empty()
    }

    /// Capacities of node `v`.
    pub fn spec(&self, v: NodeId) -> NodeSpec {
        self.specs[v]
    }

    /// Overwrites node `v`'s capacities. Runtime bandwidth degradation
    /// (a shared host losing usable bandwidth to other tenants) mutates
    /// the spec so capacity-derived views — admission control reads
    /// `spec(v)` through `SystemView` — see the shrunken node. Callers go
    /// through [`crate::Network::set_node_bandwidth`], which keeps the
    /// NIC service rates in sync.
    pub fn set_spec(&mut self, v: NodeId, spec: NodeSpec) {
        assert!(
            spec.bw_in > 0.0 && spec.bw_out > 0.0,
            "bandwidth must be positive"
        );
        self.specs[v] = spec;
    }

    /// One-way propagation latency `u → v`.
    // `always`: see `rasc_core::compose::LatencyMatrix::get`.
    #[inline(always)]
    pub fn latency(&self, u: NodeId, v: NodeId) -> SimDuration {
        self.latency.get(u, v, self.len())
    }

    /// Number of latency entries actually stored — `n²` for dense
    /// models, `O(n + clusters²)` for the large-topology generators.
    pub fn latency_storage(&self) -> usize {
        self.latency.storage_entries()
    }

    /// PlanetLab-like topology: heterogeneous capacities and wide-area
    /// latencies, deterministic in `seed`.
    ///
    /// * Latencies: log-normal with a ~60 ms median and a heavy tail up to
    ///   a few hundred ms, symmetric per pair — matching published
    ///   PlanetLab all-pairs-ping distributions in shape.
    /// * Bandwidths: log-uniform between `bw_lo` and `bw_hi`, independent
    ///   draws for in/out (PlanetLab slices saw strongly asymmetric and
    ///   heterogeneous usable bandwidth).
    pub fn planetlab_like(n: usize, bw_lo: Bandwidth, bw_hi: Bandwidth, seed: u64) -> Topology {
        assert!(n > 0, "empty topology");
        assert!(bw_lo > 0.0 && bw_hi >= bw_lo, "invalid bandwidth range");
        let mut rng = SimRng::new(seed ^ 0x70706F6C_6F676921);
        let ratio = bw_hi / bw_lo;
        let specs: Vec<NodeSpec> = (0..n)
            .map(|_| {
                let draw = |rng: &mut SimRng| bw_lo * ratio.powf(rng.f64());
                NodeSpec {
                    bw_in: draw(&mut rng),
                    bw_out: draw(&mut rng),
                }
            })
            .collect();
        let mut latency = vec![SimDuration::ZERO; n * n];
        for u in 0..n {
            for v in (u + 1)..n {
                // ln-normal: median 30 ms, sigma 0.5 → 10th pct ~16 ms,
                // 90th pct ~57 ms, tail to a few hundred ms — the shape
                // of continental PlanetLab all-pairs pings.
                let ms = rng.log_normal((30.0f64).ln(), 0.5).clamp(5.0, 300.0);
                let d = SimDuration::from_millis_f64(ms);
                latency[u * n + v] = d;
                latency[v * n + u] = d;
            }
            latency[u * n + u] = LOOPBACK;
        }
        Topology {
            specs,
            latency: LatencyModel::Dense(latency),
        }
    }

    /// Heterogeneous multi-class topology: `bands` lists `(count, bw_lo,
    /// bw_hi)` node classes; each node draws both NIC rates log-uniformly
    /// within its band. Latencies are wide-area draws as in
    /// [`Topology::planetlab_like`]. Node ids are assigned band by band,
    /// in order.
    pub fn heterogeneous(bands: &[(usize, Bandwidth, Bandwidth)], seed: u64) -> Topology {
        assert!(!bands.is_empty(), "empty topology");
        let mut rng = SimRng::new(seed ^ 0x70706F6C_6F676921);
        let mut specs = Vec::new();
        for &(count, lo, hi) in bands {
            assert!(lo > 0.0 && hi >= lo, "invalid band {lo}..{hi}");
            let ratio = hi / lo;
            for _ in 0..count {
                let mut draw = || lo * ratio.powf(rng.f64());
                let bw_in = draw();
                let bw_out = draw();
                specs.push(NodeSpec { bw_in, bw_out });
            }
        }
        let n = specs.len();
        assert!(n > 0, "empty topology");
        let mut latency = vec![SimDuration::ZERO; n * n];
        for u in 0..n {
            for v in (u + 1)..n {
                let ms = rng.log_normal((30.0f64).ln(), 0.5).clamp(5.0, 300.0);
                let d = SimDuration::from_millis_f64(ms);
                latency[u * n + v] = d;
                latency[v * n + u] = d;
            }
            latency[u * n + u] = LOOPBACK;
        }
        Topology {
            specs,
            latency: LatencyModel::Dense(latency),
        }
    }

    /// Homogeneous topology: every node identical, every pair at `lat`.
    /// Useful for tests where heterogeneity is noise.
    pub fn uniform(n: usize, bw: Bandwidth, lat: SimDuration) -> Topology {
        assert!(n > 0, "empty topology");
        let specs = vec![
            NodeSpec {
                bw_in: bw,
                bw_out: bw,
            };
            n
        ];
        let mut latency = vec![lat; n * n];
        for u in 0..n {
            latency[u * n + u] = LOOPBACK;
        }
        Topology {
            specs,
            latency: LatencyModel::Dense(latency),
        }
    }

    /// Power-law overlay at 1k–10k nodes: Pareto-tailed NIC bandwidths
    /// (a few hub-class nodes, a long tail of modest ones — the degree/
    /// capacity skew measured in deployed peer-to-peer overlays) over
    /// `~√n` metro clusters with Zipf-skewed sizes. Intra-cluster pairs
    /// sit at a few ms; inter-cluster base latencies are wide-area
    /// log-normal draws. Uses the clustered latency model: `O(n + c²)`
    /// storage, never an `n²` table.
    pub fn power_law(n: usize, bw_lo: Bandwidth, bw_hi: Bandwidth, seed: u64) -> Topology {
        assert!(n > 1, "power_law needs at least 2 nodes");
        assert!(bw_lo > 0.0 && bw_hi >= bw_lo, "invalid bandwidth range");
        let mut rng = SimRng::new(seed ^ 0x504C_4157); // "PLAW"
                                                       // Pareto(alpha = 1.2) scaled from bw_lo, clamped at bw_hi: the
                                                       // median lands ~1.8× bw_lo while the top percentile pins bw_hi.
        let pareto = |rng: &mut SimRng| {
            let u = (1.0 - rng.f64()).max(1e-12);
            (bw_lo * u.powf(-1.0 / 1.2)).min(bw_hi)
        };
        let specs: Vec<NodeSpec> = (0..n)
            .map(|_| NodeSpec {
                bw_in: pareto(&mut rng),
                bw_out: pareto(&mut rng),
            })
            .collect();
        let c = ((n as f64).sqrt().round() as usize).max(2);
        // Zipf-skewed cluster membership: cluster k drawn with weight
        // 1/(k+1), so a handful of metros hold most of the nodes.
        let weights: Vec<f64> = (0..c).map(|k| 1.0 / (k + 1) as f64).collect();
        let total: f64 = weights.iter().sum();
        let cluster_of: Vec<u32> = (0..n)
            .map(|_| {
                let mut x = rng.f64() * total;
                for (k, w) in weights.iter().enumerate() {
                    if x < *w {
                        return k as u32;
                    }
                    x -= w;
                }
                (c - 1) as u32
            })
            .collect();
        let inter_ms = wan_cluster_matrix(&mut rng, c, 3.0, 40.0, 0.5, 5.0, 300.0);
        Topology {
            specs,
            latency: LatencyModel::Clustered {
                cluster_of,
                inter_ms,
                jitter_seed: splitmix64(seed ^ 0x4A49_5454),
                jitter_width: 0.25,
            },
        }
    }

    /// Datacenter + WAN hybrid: `sites` datacenters of near-equal size,
    /// sub-millisecond latency inside a site (0.2 ms base), log-normal
    /// WAN latency between sites (median 60 ms, clamped 10–250 ms).
    /// Node bandwidths are log-uniform in `[bw_lo, bw_hi]` — datacenter
    /// NICs are provisioned, not scavenged, so no power-law tail.
    /// Clustered latency model: `O(n + sites²)` storage.
    pub fn datacenter_wan(
        n: usize,
        sites: usize,
        bw_lo: Bandwidth,
        bw_hi: Bandwidth,
        seed: u64,
    ) -> Topology {
        assert!(n > 1, "datacenter_wan needs at least 2 nodes");
        assert!(sites > 0 && sites <= n, "invalid site count");
        assert!(bw_lo > 0.0 && bw_hi >= bw_lo, "invalid bandwidth range");
        let mut rng = SimRng::new(seed ^ 0x4443_57414E); // "DCWAN"
        let ratio = bw_hi / bw_lo;
        let specs: Vec<NodeSpec> = (0..n)
            .map(|_| {
                let draw = |rng: &mut SimRng| bw_lo * ratio.powf(rng.f64());
                NodeSpec {
                    bw_in: draw(&mut rng),
                    bw_out: draw(&mut rng),
                }
            })
            .collect();
        // Round-robin site assignment: near-equal rack counts per site.
        let cluster_of: Vec<u32> = (0..n).map(|v| (v % sites) as u32).collect();
        let inter_ms = wan_cluster_matrix(&mut rng, sites, 0.2, 60.0, 0.4, 10.0, 250.0);
        Topology {
            specs,
            latency: LatencyModel::Clustered {
                cluster_of,
                inter_ms,
                jitter_seed: splitmix64(seed ^ 0x4A49_5454),
                jitter_width: 0.25,
            },
        }
    }
}

/// Symmetric `c × c` base-latency matrix in ms: `intra_ms` on the
/// diagonal, log-normal draws (median `inter_median_ms`, given sigma,
/// clamped) off it.
fn wan_cluster_matrix(
    rng: &mut SimRng,
    c: usize,
    intra_ms: f64,
    inter_median_ms: f64,
    sigma: f64,
    clamp_lo: f64,
    clamp_hi: f64,
) -> Vec<f64> {
    let mut m = vec![0.0; c * c];
    for a in 0..c {
        m[a * c + a] = intra_ms;
        for b in (a + 1)..c {
            let ms = rng
                .log_normal(inter_median_ms.ln(), sigma)
                .clamp(clamp_lo, clamp_hi);
            m[a * c + b] = ms;
            m[b * c + a] = ms;
        }
    }
    m
}

/// Builder for hand-crafted topologies (tests, examples).
#[derive(Clone, Debug, Default)]
pub struct TopologyBuilder {
    specs: Vec<NodeSpec>,
    overrides: Vec<(NodeId, NodeId, SimDuration)>,
    default_latency: Option<SimDuration>,
}

impl TopologyBuilder {
    /// Creates an empty builder with a 50 ms default latency.
    pub fn new() -> Self {
        TopologyBuilder {
            specs: Vec::new(),
            overrides: Vec::new(),
            default_latency: None,
        }
    }

    /// Sets the latency used for pairs without an explicit override.
    pub fn default_latency(mut self, lat: SimDuration) -> Self {
        self.default_latency = Some(lat);
        self
    }

    /// Adds a node with the given capacities; returns its id.
    pub fn node(&mut self, bw_in: Bandwidth, bw_out: Bandwidth) -> NodeId {
        assert!(bw_in > 0.0 && bw_out > 0.0, "bandwidth must be positive");
        self.specs.push(NodeSpec { bw_in, bw_out });
        self.specs.len() - 1
    }

    /// Sets the symmetric latency between `u` and `v`.
    pub fn latency(&mut self, u: NodeId, v: NodeId, lat: SimDuration) -> &mut Self {
        self.overrides.push((u, v, lat));
        self
    }

    /// Finalizes the topology.
    pub fn build(self) -> Topology {
        let n = self.specs.len();
        assert!(n > 0, "empty topology");
        let default = self.default_latency.unwrap_or(SimDuration::from_millis(50));
        let mut latency = vec![default; n * n];
        for u in 0..n {
            latency[u * n + u] = LOOPBACK;
        }
        for (u, v, lat) in self.overrides {
            assert!(u < n && v < n, "latency override out of range");
            latency[u * n + v] = lat;
            latency[v * n + u] = lat;
        }
        Topology {
            specs: self.specs,
            latency: LatencyModel::Dense(latency),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mbps;

    #[test]
    fn planetlab_is_deterministic_per_seed() {
        let a = Topology::planetlab_like(16, mbps(1.0), mbps(10.0), 7);
        let b = Topology::planetlab_like(16, mbps(1.0), mbps(10.0), 7);
        let c = Topology::planetlab_like(16, mbps(1.0), mbps(10.0), 8);
        assert_eq!(a.spec(3), b.spec(3));
        assert_eq!(a.latency(1, 9), b.latency(1, 9));
        assert_ne!(a.latency(1, 9), c.latency(1, 9));
    }

    #[test]
    fn planetlab_ranges_sane() {
        let t = Topology::planetlab_like(32, mbps(1.0), mbps(10.0), 42);
        assert_eq!(t.len(), 32);
        for v in 0..t.len() {
            let s = t.spec(v);
            assert!(s.bw_in >= mbps(1.0) && s.bw_in <= mbps(10.0));
            assert!(s.bw_out >= mbps(1.0) && s.bw_out <= mbps(10.0));
        }
        for u in 0..t.len() {
            for v in 0..t.len() {
                let l = t.latency(u, v);
                if u == v {
                    assert_eq!(l, SimDuration::from_micros(50));
                } else {
                    assert!(l >= SimDuration::from_millis(5));
                    assert!(l <= SimDuration::from_millis(500));
                    assert_eq!(l, t.latency(v, u), "symmetry");
                }
            }
        }
    }

    #[test]
    fn latencies_are_heterogeneous() {
        let t = Topology::planetlab_like(16, mbps(1.0), mbps(1.0), 1);
        let mut lats: Vec<f64> = Vec::new();
        for u in 0..t.len() {
            for v in (u + 1)..t.len() {
                lats.push(t.latency(u, v).as_millis_f64());
            }
        }
        let min = lats.iter().cloned().fold(f64::MAX, f64::min);
        let max = lats.iter().cloned().fold(0.0, f64::max);
        assert!(max / min > 2.0, "expected spread, got {min}..{max}");
    }

    #[test]
    fn uniform_is_flat() {
        let t = Topology::uniform(4, mbps(2.0), SimDuration::from_millis(30));
        for v in 0..4 {
            assert_eq!(t.spec(v).bw_in, mbps(2.0));
        }
        assert_eq!(t.latency(0, 3), SimDuration::from_millis(30));
    }

    #[test]
    fn builder_overrides_apply() {
        let mut b = TopologyBuilder::new().default_latency(SimDuration::from_millis(10));
        let x = b.node(mbps(1.0), mbps(2.0));
        let y = b.node(mbps(3.0), mbps(4.0));
        let z = b.node(mbps(5.0), mbps(6.0));
        b.latency(x, z, SimDuration::from_millis(99));
        let t = b.build();
        assert_eq!(t.latency(x, y), SimDuration::from_millis(10));
        assert_eq!(t.latency(x, z), SimDuration::from_millis(99));
        assert_eq!(t.latency(z, x), SimDuration::from_millis(99));
        assert_eq!(t.spec(y).bw_out, mbps(4.0));
    }

    #[test]
    #[should_panic(expected = "empty topology")]
    fn empty_builder_panics() {
        TopologyBuilder::new().build();
    }

    #[test]
    fn power_law_never_materializes_a_dense_matrix() {
        let n = 4096;
        let t = Topology::power_law(n, mbps(1.0), mbps(100.0), 3);
        assert_eq!(t.len(), n);
        // O(n + c²), nowhere near n².
        assert!(
            t.latency_storage() < 3 * n,
            "clustered storage blew up: {} entries",
            t.latency_storage()
        );
        // A dense topology of the same size would store n².
        let d = Topology::uniform(64, mbps(1.0), SimDuration::from_millis(1));
        assert_eq!(d.latency_storage(), 64 * 64);
    }

    #[test]
    fn power_law_is_deterministic_symmetric_and_bounded() {
        let a = Topology::power_law(512, mbps(1.0), mbps(50.0), 11);
        let b = Topology::power_law(512, mbps(1.0), mbps(50.0), 11);
        let c = Topology::power_law(512, mbps(1.0), mbps(50.0), 12);
        assert_eq!(a.spec(100), b.spec(100));
        assert_eq!(a.latency(3, 499), b.latency(3, 499));
        assert_ne!(a.latency(3, 499), c.latency(3, 499));
        let mut diff = false;
        for u in 0..64 {
            for v in 0..64 {
                let l = a.latency(u, v);
                if u == v {
                    assert_eq!(l, SimDuration::from_micros(50));
                } else {
                    assert_eq!(l, a.latency(v, u), "symmetry");
                    assert!(l > SimDuration::ZERO);
                    assert!(l <= SimDuration::from_millis(400));
                }
            }
            let s = a.spec(u);
            assert!(s.bw_in >= mbps(1.0) && s.bw_in <= mbps(50.0));
            assert!(s.bw_out >= mbps(1.0) && s.bw_out <= mbps(50.0));
            diff |= a.latency(0, 1) != a.latency(0, u.max(2));
        }
        assert!(diff, "per-pair jitter missing: all latencies equal");
    }

    #[test]
    fn power_law_bandwidths_have_a_heavy_tail() {
        let t = Topology::power_law(2048, mbps(1.0), mbps(1000.0), 5);
        let mut bw: Vec<f64> = (0..t.len()).map(|v| t.spec(v).bw_in).collect();
        bw.sort_by(|a, b| a.partial_cmp(b).unwrap());
        let median = bw[bw.len() / 2];
        let p99 = bw[bw.len() * 99 / 100];
        // Pareto tail: the 99th percentile dwarfs the median.
        assert!(
            p99 / median > 10.0,
            "tail too light: median {median:.0}, p99 {p99:.0}"
        );
    }

    #[test]
    fn datacenter_wan_separates_intra_and_inter_site() {
        let t = Topology::datacenter_wan(1024, 8, mbps(100.0), mbps(1000.0), 9);
        assert_eq!(t.len(), 1024);
        assert!(t.latency_storage() < 2 * 1024);
        // Same site (round-robin assignment: v and v + 8): sub-ms.
        for v in 0..32 {
            let l = t.latency(v, v + 8);
            assert!(
                l < SimDuration::from_millis(1),
                "intra-site pair {v} too slow: {l:?}"
            );
            assert_eq!(l, t.latency(v + 8, v), "symmetry");
        }
        // Different sites: WAN-scale.
        for v in 0..32 {
            let l = t.latency(v, v + 1);
            assert!(
                l >= SimDuration::from_millis(5),
                "inter-site pair {v} too fast: {l:?}"
            );
        }
    }

    #[test]
    fn datacenter_wan_is_deterministic() {
        let a = Topology::datacenter_wan(256, 4, mbps(10.0), mbps(100.0), 2);
        let b = Topology::datacenter_wan(256, 4, mbps(10.0), mbps(100.0), 2);
        assert_eq!(a.spec(77), b.spec(77));
        assert_eq!(a.latency(10, 201), b.latency(10, 201));
    }
}
