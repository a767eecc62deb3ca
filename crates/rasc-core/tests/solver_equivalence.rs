//! Cross-solver equivalence: the min-cost composer must make the same
//! admit/reject decision — and produce equally cheap compositions — no
//! matter which of the three SSP engines solves the layered
//! composition graph. Instances are randomized via `desim::SimRng` and
//! reproduce from the case number in the assertion message.

use desim::{SimDuration, SimRng};
use mincostflow::Algorithm;
use rasc_core::compose::{Composer, MinCostComposer, ProviderMap};
use rasc_core::model::{ExecutionGraph, ServiceCatalog, ServiceRequest};
use rasc_core::view::SystemView;
use simnet::{kbps, Topology};

const ALGORITHMS: [Algorithm; 3] = [
    Algorithm::DijkstraSsp,
    Algorithm::DialSsp,
    Algorithm::SpfaSsp,
];

struct Instance {
    catalog: ServiceCatalog,
    view: SystemView,
    providers: ProviderMap,
    req: ServiceRequest,
}

/// A layered composition instance: a service chain over a heterogeneous
/// view, with per-service provider sets drawn at random.
fn random_instance(rng: &mut SimRng) -> Instance {
    let nodes = rng.range_usize(5, 14);
    let services = rng.range_usize(1, 4);
    let catalog = ServiceCatalog::synthetic(services, 1);
    let max_bw = 2_000.0;
    let mut view = SystemView::fresh(&Topology::uniform(
        nodes,
        kbps(max_bw),
        SimDuration::from_millis(10),
    ));
    for v in 0..nodes {
        let excess = kbps(max_bw) - kbps(rng.range_f64(100.0, max_bw));
        view.consume_measured(v, excess, excess);
        view.set_drop_ratio(v, rng.range_f64(0.0, 0.5));
    }
    let mut providers = ProviderMap::new();
    for s in 0..services {
        let mut hosts: Vec<usize> = (0..rng.range_usize(1, nodes))
            .map(|_| rng.range_usize(0, nodes - 2))
            .collect();
        hosts.sort_unstable();
        hosts.dedup();
        providers.insert(s, hosts);
    }
    let chain: Vec<usize> = (0..rng.range_usize(1, services + 1))
        .map(|_| rng.range_usize(0, services))
        .collect();
    let rate = rng.range_f64(1.0, 80.0);
    let req = ServiceRequest::chain(&chain, rate, nodes - 2, nodes - 1);
    Instance {
        catalog,
        view,
        providers,
        req,
    }
}

fn drop_cost(graph: &ExecutionGraph, view: &SystemView) -> f64 {
    graph
        .substreams
        .iter()
        .flatten()
        .flat_map(|s| s.placements.iter())
        .map(|p| p.rate * view.drop_ratio(p.node))
        .sum()
}

/// All three SSP engines admit the same requests, and admitted
/// compositions are equally cheap (within the tolerance that integer
/// scaling plus the secondary utilization/latency terms allow).
#[test]
fn all_algorithms_agree_on_layered_graphs() {
    let mut rng = SimRng::new(0xe05a1e);
    for case in 0..128u32 {
        let inst = random_instance(&mut rng);
        let results: Vec<Option<f64>> = ALGORITHMS
            .iter()
            .map(|&alg| {
                let mut view = inst.view.clone();
                MinCostComposer::with_algorithm(alg)
                    .compose(
                        &inst.req,
                        &inst.catalog,
                        &inst.providers,
                        &mut view,
                        &mut SimRng::new(1),
                    )
                    .ok()
                    .map(|g| drop_cost(&g, &inst.view))
            })
            .collect();
        let reference = &results[0];
        for (i, r) in results.iter().enumerate().skip(1) {
            match (reference, r) {
                (Some(a), Some(b)) => {
                    // Alternative optima of the same scaled integer
                    // program may trade drop cost against the weaker
                    // utilization/latency terms (each ≤ 1/10 of a drop
                    // unit) plus milli-unit rounding.
                    assert!(
                        (a - b).abs() <= 0.15 * inst.req.rates[0].max(1.0),
                        "case {case}: {:?} cost {b} vs {:?} cost {a}",
                        ALGORITHMS[i],
                        ALGORITHMS[0]
                    );
                }
                (None, None) => {}
                _ => panic!(
                    "case {case}: {:?} and {:?} disagree on admission",
                    ALGORITHMS[0], ALGORITHMS[i]
                ),
            }
        }
    }
}
