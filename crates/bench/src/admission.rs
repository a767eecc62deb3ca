//! Admission-throughput benchmark scenario: thousand-node power-law
//! overlays, concurrent tenants, and the batch pipeline — the
//! admissions/sec headline.
//!
//! Two regimes are compared at each overlay size:
//!
//! * `serial_1req` — the legacy control plane: every request pays its
//!   own `O(n)` snapshot clone and an **uncapped** composition that
//!   feeds every discovered provider into the flow network. This is
//!   exactly what the engine's single-request submit path did before
//!   this bench family existed, and it is the baseline the ≥5× headline
//!   is measured against.
//! * `batch{B}` — the [`BatchAdmitter`] pipeline at batch size `B`: one
//!   snapshot clone per batch, per-worker solver arenas, and capped
//!   candidate selection ([`CANDIDATE_CAP`] hosts per layer),
//!   with the serial, submission-ordered reconcile committing winners
//!   and replaying conflicts.
//!
//! Both regimes run the same requests against the same base view and
//! count **admitted applications per wall-clock second**; rejections and
//! conflict replays therefore penalize the number instead of inflating
//! it. The `*_pooled` variant runs the optimistic phase on a
//! multi-worker pool — on a single-core box it measures pool overhead,
//! not scaling, and is annotated accordingly (see
//! [`Measurement::note`](crate::microbench::Measurement)).
//!
//! [`serial_work_counts`] adds three exact counts of the engine's own
//! serial submit path: heap allocations per submit, retained repair
//! bytes per admitted app, and latency-model evaluations per submit.

use crate::microbench::{count_allocations, record_rate, record_value, Measurement};
use desim::SimRng;
use rasc_core::compose::{
    BatchAdmitter, BatchItem, ComposeError, Composer, LatencyMatrix, MinCostComposer, ProviderMap,
};
use rasc_core::engine::{Engine, EngineConfig};
use rasc_core::model::{ServiceCatalog, ServiceRequest};
use rasc_core::view::SystemView;
use simnet::Topology;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Overlay sizes of the scaling curve (the paper's evaluation stopped
/// at 40 nodes; the ROADMAP north star is production scale).
pub const SIZES: [usize; 3] = [1_000, 4_000, 10_000];

/// Batch sizes measured per overlay size.
pub const BATCHES: [usize; 3] = [1, 16, 128];

/// Per-layer candidate cap for the batch pipeline (top-`k` hosts by
/// bottleneck availability).
pub const CANDIDATE_CAP: usize = 16;

/// Services in the benchmark catalog.
pub const SERVICES: usize = 10;

/// One provider per this many overlay nodes (fixed density, so the
/// provider count grows with `n` — the regime where uncapped per-layer
/// scans stop being free).
pub const PROVIDER_DENSITY: usize = 16;

/// A reusable admission workload: one power-law overlay, one catalog,
/// one provider map at fixed density, and a pool of distinct requests.
pub struct AdmissionScenario {
    /// Overlay size.
    pub n: usize,
    /// Synthetic service catalog ([`SERVICES`] entries).
    pub catalog: ServiceCatalog,
    /// Fresh measured view of the power-law overlay.
    pub view: SystemView,
    /// Requests paired with their (shared) provider map.
    pub items: Vec<BatchItem>,
    /// Link latencies, shared by every composer this scenario builds.
    pub latencies: Arc<LatencyMatrix>,
}

/// Builds the scenario: `requests` distinct 3-stage chains with spread
/// endpoints over a [`Topology::power_law`] overlay at `n` nodes.
/// Endpoints are distinct per request — concurrent tenants, not one
/// source resubmitting — so batch conflicts come from genuinely shared
/// hosts, not an artificial endpoint bottleneck.
pub fn scenario(n: usize, requests: usize, seed: u64) -> AdmissionScenario {
    assert!(n >= 64, "scenario needs room for endpoints and providers");
    let catalog = ServiceCatalog::synthetic(SERVICES, 1);
    let topology = Topology::power_law(n, simnet::kbps(300.0), simnet::kbps(3000.0), seed);
    let view = SystemView::fresh(&topology);
    let latencies = Arc::new(LatencyMatrix::from_topology(&topology));
    let mut rng = SimRng::new(seed ^ 0xAD31_5510);
    let mut providers = ProviderMap::new();
    for s in 0..SERVICES {
        let mut hosts = rng.sample_indices(n, (n / PROVIDER_DENSITY).max(16));
        hosts.sort_unstable();
        hosts.dedup();
        providers.insert(s, hosts);
    }
    let items = (0..requests)
        .map(|i| {
            // Distinct chains (three services, offsets coprime to the
            // catalog size) and endpoint pairs spread over the overlay.
            let chain = [i % SERVICES, (i + 3) % SERVICES, (i + 7) % SERVICES];
            let source = (i * 2) % n;
            let destination = (i * 2 + 1) % n;
            (
                ServiceRequest::chain(&chain, 6.0, source, destination),
                providers.clone(),
            )
        })
        .collect();
    AdmissionScenario {
        n,
        catalog,
        view,
        items,
        latencies,
    }
}

/// Selection-microbench fixture: the scenario's view plus one sorted
/// provider list at the scenario's density (what a single compose layer
/// sees at size `n`).
pub fn selection_setup(n: usize, seed: u64) -> (SystemView, Vec<usize>) {
    let sc = scenario(n, 1, seed);
    let providers = sc.items[0].1.values().next().expect("has services").clone();
    (sc.view, providers)
}

/// The uncapped legacy composer (what the engine ran per request).
fn serial_composer(sc: &AdmissionScenario) -> MinCostComposer {
    MinCostComposer::default().with_latencies(sc.latencies.clone())
}

/// A batch admitter whose worker arenas run capped candidate
/// selection — the thousand-node configuration.
pub fn admitter(sc: &AdmissionScenario, threads: usize) -> BatchAdmitter {
    let latencies = sc.latencies.clone();
    BatchAdmitter::new(threads, move || {
        Box::new(
            MinCostComposer::default()
                .with_latencies(latencies.clone())
                .with_candidate_cap(CANDIDATE_CAP),
        )
    })
}

/// Admitted-apps/sec of the serial single-request path: per request one
/// whole-view clone (the per-submission snapshot) plus one uncapped
/// compose. Runs for at least `budget`, whole passes over the request
/// pool at a time.
pub fn serial_apps_per_sec(sc: &AdmissionScenario, budget: Duration) -> Measurement {
    let mut composer = serial_composer(sc);
    let mut rng = SimRng::new(7);
    let mut admitted = 0u64;
    let start = Instant::now();
    loop {
        for (req, providers) in &sc.items {
            let mut view = sc.view.clone();
            if composer
                .compose(req, &sc.catalog, providers, &mut view, &mut rng)
                .is_ok()
            {
                admitted += 1;
            }
        }
        if start.elapsed() >= budget {
            break;
        }
    }
    record_rate(
        &format!("admission/apps_per_sec/serial_1req/{}", sc.n),
        admitted,
        start.elapsed(),
    )
}

/// Admitted-apps/sec of the batch pipeline at `batch` requests per
/// admitted batch on `threads` optimistic workers. Each batch starts
/// from a fresh clone of the base snapshot (the steady state of a
/// control plane that re-snapshots per burst).
pub fn batch_apps_per_sec(
    name: &str,
    sc: &AdmissionScenario,
    batch: usize,
    threads: usize,
    budget: Duration,
) -> Measurement {
    let admitter = admitter(sc, threads);
    let mut admitted = 0u64;
    // Per-burst snapshot buffer, re-synced with `clone_from` (reuses
    // every heap allocation; a fresh clone would cost O(n) allocs).
    let mut view = sc.view.clone();
    let start = Instant::now();
    loop {
        for (b, chunk) in sc.items.chunks(batch).enumerate() {
            view.clone_from(&sc.view);
            let out = admitter.admit_batch(&mut view, &sc.catalog, chunk, b as u64);
            admitted += out.admitted() as u64;
        }
        if start.elapsed() >= budget {
            break;
        }
    }
    record_rate(
        &format!("admission/apps_per_sec/{name}/{}", sc.n),
        admitted,
        start.elapsed(),
    )
    .with_threads(threads)
}

/// Heap allocations per request in the batch pipeline's steady state
/// (arenas warm, pooled worker views primed). Bounded, not zero: every
/// admitted app returns a freshly allocated [`ExecutionGraph`]
/// (rasc_core::model::ExecutionGraph) — but snapshot handling is
/// allocation-free, because both this function's per-burst view and the
/// admitter's pooled worker views re-sync via `SystemView::clone_from`,
/// which reuses every heap buffer, and resource vectors are inline, so
/// reservations and rate checks allocate nothing either. The gate in
/// `repro bench` catches a regression to per-request snapshot clones,
/// arena rebuilds or heap-backed per-node state.
pub fn steady_state_allocs_per_request(sc: &AdmissionScenario, batch: usize) -> f64 {
    let admitter = admitter(sc, 1);
    let chunk = &sc.items[..batch.min(sc.items.len())];
    // Warm the arenas, the pooled worker views, and this function's own
    // per-burst snapshot buffer.
    let mut view = sc.view.clone();
    for seed in 0..3 {
        view.clone_from(&sc.view);
        admitter.admit_batch(&mut view, &sc.catalog, chunk, seed);
    }
    let rounds = 5u64;
    let allocs = count_allocations(|| {
        for seed in 0..rounds {
            view.clone_from(&sc.view);
            let out = admitter.admit_batch(&mut view, &sc.catalog, chunk, seed);
            std::hint::black_box(out.admitted());
        }
    });
    allocs as f64 / (rounds * chunk.len() as u64) as f64
}

/// Requests one serial-path count run submits.
const SERIAL_SUBMITS: usize = 64;

/// Exact work counts of the engine's serial admission path, on an
/// `n`-node [`Topology::power_law`] engine with the default
/// configuration (uncapped candidates, repair state retained), offers at
/// [`PROVIDER_DENSITY`] and [`SERIAL_SUBMITS`] distinct 3-stage chains
/// submitted one [`Engine::submit`](rasc_core::engine::Engine::submit)
/// at a time:
///
/// * `admission/allocs_per_submit/<n>` — the median heap allocations of
///   one submit (min and max alongside); meaningful only under the
///   counting allocator `repro` installs;
/// * `adapt/retained_bytes_per_app/<n>` — the bytes of repair state the
///   composer retains per admitted app
///   ([`Engine::retained_bytes`](rasc_core::engine::Engine::retained_bytes));
/// * `admission/hop_evals_per_submit/<n>` — the median latency-model
///   evaluations one submit's composition makes for transfer-arc costs
///   ([`MinCostComposer::hop_evals`]). The engine's composer sits behind
///   the `Composer` trait, so a replica configured like it composes each
///   request just before the submit, over the directory's provider lists
///   (what discovery returns while no node has failed) and the engine's
///   view snapshot. That snapshot lacks only the submit's own discovery
///   and statistics-pull messages, so placements may break ties
///   differently; the count depends on the candidate lists alone unless
///   a host is pruned or the role-split re-solve runs, and the replica
///   must admit exactly what the engine admits.
///
/// All three are deterministic: no simulated time passes, and every input
/// is seeded.
pub fn serial_work_counts(n: usize) -> [Measurement; 3] {
    let seed = 42;
    let topology = Topology::power_law(n, simnet::kbps(300.0), simnet::kbps(3000.0), seed);
    let config = EngineConfig::default();
    let mut replica = MinCostComposer::with_algorithm(config.flow_algorithm)
        .with_latencies(Arc::new(LatencyMatrix::from_topology(&topology)));
    let catalog = ServiceCatalog::synthetic(SERVICES, seed);
    let mut replica_rng = SimRng::new(seed);
    let mut rng = SimRng::new(seed ^ 0x5E41_A105);
    let mut offers = vec![Vec::new(); n];
    for s in 0..SERVICES {
        for h in rng.sample_indices(n, (n / PROVIDER_DENSITY).max(16)) {
            offers[h].push(s);
        }
    }
    let mut engine = Engine::builder(n, catalog.clone(), seed)
        .topology(topology)
        .offers(offers)
        .config(config)
        .build();
    let mut admitted = 0usize;
    let mut evals = Vec::with_capacity(SERIAL_SUBMITS);
    let mut allocs: Vec<f64> = (0..SERIAL_SUBMITS)
        .map(|i| {
            let chain = [i % SERVICES, (i + 3) % SERVICES, (i + 7) % SERVICES];
            let req = ServiceRequest::chain(&chain, 6.0, (i * 2) % n, (i * 2 + 1) % n);
            let providers: ProviderMap = chain
                .iter()
                .map(|&s| (s, engine.directory().providers(s)))
                .collect();
            let mut view = engine.view_snapshot();
            let before = replica.hop_evals();
            let mirrored = replica
                .compose(&req, &catalog, &providers, &mut view, &mut replica_rng)
                .is_ok();
            evals.push((replica.hop_evals() - before) as f64);
            let mut ok = false;
            let count = count_allocations(|| ok = engine.submit(req).is_ok());
            assert_eq!(
                mirrored, ok,
                "the replica must admit what the engine admits"
            );
            admitted += usize::from(ok);
            count as f64
        })
        .collect();
    allocs.sort_by(f64::total_cmp);
    evals.sort_by(f64::total_cmp);
    let allocs_row = Measurement {
        min: allocs[0],
        max: allocs[SERIAL_SUBMITS - 1],
        iters: SERIAL_SUBMITS as u64,
        ..record_value(
            &format!("admission/allocs_per_submit/{n}"),
            allocs[SERIAL_SUBMITS / 2],
            "allocs",
        )
    };
    let bytes_row = record_value(
        &format!("adapt/retained_bytes_per_app/{n}"),
        (engine.retained_bytes() / admitted.max(1)) as f64,
        "bytes",
    );
    let evals_row = Measurement {
        min: evals[0],
        max: evals[SERIAL_SUBMITS - 1],
        iters: SERIAL_SUBMITS as u64,
        ..record_value(
            &format!("admission/hop_evals_per_submit/{n}"),
            evals[SERIAL_SUBMITS / 2],
            "evals",
        )
    };
    [allocs_row, bytes_row, evals_row]
}

/// Sanity probe used by tests and the bench preamble: one batch through
/// the pipeline, returning `(admitted, conflicts, rejected)`.
pub fn probe(sc: &AdmissionScenario, batch: usize) -> (usize, usize, usize) {
    let admitter = admitter(sc, 1);
    let chunk = &sc.items[..batch.min(sc.items.len())];
    let mut view = sc.view.clone();
    let out = admitter.admit_batch(&mut view, &sc.catalog, chunk, 0);
    let rejected = out
        .results
        .iter()
        .filter(|r| matches!(r, Err(ComposeError::InsufficientCapacity { .. })))
        .count();
    (out.admitted(), out.stats.conflicts, rejected)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scenario_admits_most_of_a_large_batch() {
        let sc = scenario(1_000, 64, 11);
        let (admitted, _conflicts, rejected) = probe(&sc, 64);
        assert!(
            admitted >= 56,
            "a fresh 1k-node overlay should admit nearly all of 64 \
             requests (admitted {admitted}, rejected {rejected})"
        );
    }

    #[test]
    fn serial_and_batch_regimes_both_admit() {
        let sc = scenario(1_000, 16, 3);
        let m = serial_apps_per_sec(&sc, Duration::from_millis(1));
        assert!(m.value > 0.0, "serial path admitted nothing");
        let b = batch_apps_per_sec("batch16", &sc, 16, 1, Duration::from_millis(1));
        assert!(b.value > 0.0, "batch path admitted nothing");
        assert!(b.name.ends_with("/1000"));
    }

    #[test]
    fn serial_work_counts_name_their_rows_and_retain_state() {
        let [allocs, bytes, evals] = serial_work_counts(256);
        assert_eq!(allocs.name, "admission/allocs_per_submit/256");
        assert_eq!(allocs.iters, SERIAL_SUBMITS as u64);
        assert_eq!(bytes.name, "adapt/retained_bytes_per_app/256");
        assert!(bytes.value > 0.0, "default engine retains repair state");
        assert_eq!(evals.name, "admission/hop_evals_per_submit/256");
        assert!(evals.value > 0.0, "endpoint arcs are costed every submit");
        let again = serial_work_counts(256);
        assert_eq!(bytes.value, again[1].value);
        assert_eq!(evals.value, again[2].value);
    }

    #[test]
    fn selection_setup_is_sorted_and_dense() {
        let (view, providers) = selection_setup(1_000, 5);
        assert_eq!(view.len(), 1_000);
        assert!(providers.windows(2).all(|w| w[0] < w[1]));
        assert!(providers.len() >= 1_000 / PROVIDER_DENSITY / 2);
    }
}
