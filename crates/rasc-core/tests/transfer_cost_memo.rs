//! Equivalence suite for the min-cost composer's transfer-cost memo.
//!
//! `MinCostComposer` keeps the latency costs of inter-layer arcs across
//! composes, one entry per ordered service pair, valid while the current
//! candidate lists are subsets of the lists the entry was built from. A
//! long-lived composer must therefore compose exactly what a fresh one
//! composes on every request, against the same view: bit-identical
//! execution graphs (hosts and rate bits), the same refusals, and the
//! same retained repair bytes. Covered: power-law worlds over eight
//! seeds, uncapped and capped at 16 candidates, with provider crashes
//! (lists shrink: the memo keeps hitting), new providers (lists grow:
//! the memo rebuilds), requests that reuse a host across layers (the
//! role-split re-solve), hand-made unsorted and duplicated provider
//! lists, an asymmetric latency table read in both service orders, and
//! a matrix swapped through the public `latencies` field.

use desim::{SimDuration, SimRng};
use rasc_core::compose::{ComposeError, Composer, LatencyMatrix, MinCostComposer, ProviderMap};
use rasc_core::model::{ExecutionGraph, ServiceCatalog, ServiceRequest};
use rasc_core::view::SystemView;
use simnet::{kbps, Topology};
use std::sync::Arc;

const CAPS: [Option<usize>; 2] = [None, Some(16)];

fn composer(lat: &Arc<LatencyMatrix>, cap: Option<usize>) -> MinCostComposer {
    let c = MinCostComposer::default().with_latencies(lat.clone());
    match cap {
        Some(k) => c.with_candidate_cap(k),
        None => c,
    }
}

/// A compose outcome down to the bits of every placement's rate.
type Fingerprint = Result<Vec<Vec<(usize, usize, u64)>>, ComposeError>;

fn fingerprint(r: &Result<ExecutionGraph, ComposeError>) -> Fingerprint {
    r.as_ref()
        .map(|g| {
            g.substreams
                .iter()
                .map(|stages| {
                    stages
                        .iter()
                        .flat_map(|st| {
                            st.placements
                                .iter()
                                .map(move |p| (st.service, p.node, p.rate.to_bits()))
                        })
                        .collect()
                })
                .collect()
        })
        .map_err(Clone::clone)
}

/// How one checked request went.
struct Outcome {
    admitted: bool,
    /// Admitted through a fallback rung (role-split re-solve or
    /// single-placement search), which retains no solve.
    fallback: bool,
}

/// Composes `req` with the long-lived `live` composer and with `fresh`
/// over clones of `view`, asserts the two agree bit for bit (retained
/// repair bytes included), and on admission carries the reservations
/// into `view` so later requests see a loaded system.
fn check(
    live: &mut MinCostComposer,
    mut fresh: MinCostComposer,
    req: &ServiceRequest,
    catalog: &ServiceCatalog,
    providers: &ProviderMap,
    view: &mut SystemView,
    label: &str,
) -> Outcome {
    let mut live_view = view.clone();
    let mut fresh_view = view.clone();
    let got = live.compose(req, catalog, providers, &mut live_view, &mut SimRng::new(0));
    let want = fresh.compose(
        req,
        catalog,
        providers,
        &mut fresh_view,
        &mut SimRng::new(0),
    );
    assert_eq!(
        fingerprint(&got),
        fingerprint(&want),
        "{label}: graphs differ"
    );
    live.discard_retained(0);
    live.retain_for_repair(0);
    fresh.retain_for_repair(0);
    assert_eq!(
        live.retained_bytes(),
        fresh.retained_bytes(),
        "{label}: retained bytes differ"
    );
    let admitted = got.is_ok();
    if admitted {
        *view = live_view;
    }
    Outcome {
        admitted,
        fallback: admitted && fresh.retained_bytes() == 0,
    }
}

fn sorted_sample(rng: &mut SimRng, n: usize, k: usize) -> Vec<usize> {
    let mut v = rng.sample_indices(n, k);
    v.sort_unstable();
    v
}

/// Marks `host` dead the way the engine's measured view does, and drops
/// it from every provider list, as the directory does after a crash.
fn crash(host: usize, view: &mut SystemView, providers: &mut ProviderMap) {
    view.consume_measured(host, f64::MAX, f64::MAX);
    view.set_drop_ratio(host, 1.0);
    for list in providers.values_mut() {
        list.retain(|&h| h != host);
    }
}

/// A random chain of 2–4 services; repeats are allowed, so one host can
/// serve several layers of a solve.
fn random_request(rng: &mut SimRng, services: usize, n: usize) -> ServiceRequest {
    let len = rng.range_usize(2, 5);
    let chain: Vec<usize> = (0..len).map(|_| rng.range_usize(0, services)).collect();
    let source = rng.range_usize(0, n);
    let destination = loop {
        let d = rng.range_usize(0, n);
        if d != source {
            break d;
        }
    };
    ServiceRequest::chain(&chain, rng.range_f64(2.0, 40.0), source, destination)
}

#[test]
fn long_lived_composer_matches_fresh_on_power_law_worlds() {
    const N: usize = 240;
    const SERVICES: usize = 8;
    const REQUESTS: usize = 48;
    let (mut admitted, mut fallbacks) = (0usize, 0usize);
    for seed in 1..=8u64 {
        for cap in CAPS {
            let topology = Topology::power_law(N, kbps(300.0), kbps(3000.0), seed);
            let lat = Arc::new(LatencyMatrix::from_topology(&topology));
            let catalog = ServiceCatalog::synthetic(SERVICES, seed);
            let mut rng = SimRng::new(seed ^ 0x7C05_7E30);
            let mut providers: ProviderMap = (0..SERVICES)
                .map(|s| {
                    let k = rng.range_usize(12, 48);
                    (s, sorted_sample(&mut rng, N, k))
                })
                .collect();
            let mut view = SystemView::fresh(&topology);
            let mut live = composer(&lat, cap);
            for r in 0..REQUESTS {
                if r == REQUESTS / 3 {
                    // Crash the busiest provider: every list shrinks.
                    let busiest = (0..N)
                        .max_by_key(|h| providers.values().filter(|l| l.contains(h)).count())
                        .unwrap();
                    crash(busiest, &mut view, &mut providers);
                }
                if r == 2 * REQUESTS / 3 {
                    // New providers register: every list grows.
                    for list in providers.values_mut() {
                        list.extend(sorted_sample(&mut rng, N, 6));
                        list.sort_unstable();
                        list.dedup();
                    }
                }
                let req = random_request(&mut rng, SERVICES, N);
                let label = format!("seed {seed} cap {cap:?} request {r}");
                let out = check(
                    &mut live,
                    composer(&lat, cap),
                    &req,
                    &catalog,
                    &providers,
                    &mut view,
                    &label,
                );
                admitted += usize::from(out.admitted);
                fallbacks += usize::from(out.fallback);
            }
        }
    }
    assert!(
        admitted > 500,
        "the worlds admit most requests ({admitted})"
    );
    assert!(fallbacks > 0, "some request must take the role-split rung");
}

/// A 12-node world whose one-way latencies are drawn independently per
/// ordered pair, so `u → v` and `v → u` differ.
fn asymmetric_matrix(n: usize, seed: u64) -> Arc<LatencyMatrix> {
    let mut rng = SimRng::new(seed ^ 0xA5A5_0001);
    let ms = (0..n * n).map(|_| rng.range_f64(1.0, 400.0)).collect();
    Arc::new(LatencyMatrix::new(n, ms))
}

const SMALL: usize = 12;

fn small_view() -> SystemView {
    SystemView::fresh(&Topology::uniform(
        SMALL,
        kbps(2_000.0),
        SimDuration::from_millis(10),
    ))
}

/// Endpoint pairs outside every provider list.
const ENDPOINTS: [(usize, usize); 4] = [(0, 1), (1, 0), (0, 11), (11, 1)];

/// Composes each chain from each endpoint pair with `live` and a fresh
/// composer over `lat`, on a view that fills up as requests land.
fn check_chains(
    live: &mut MinCostComposer,
    lat: &Arc<LatencyMatrix>,
    cap: Option<usize>,
    chains: &[&[usize]],
    providers: &ProviderMap,
    label: &str,
) {
    let catalog = ServiceCatalog::synthetic(4, 3);
    let mut view = small_view();
    for (c, chain) in chains.iter().enumerate() {
        for &(src, dst) in &ENDPOINTS {
            let req = ServiceRequest::chain(chain, 4.0, src, dst);
            let label = format!("{label}: chain {c} {chain:?} {src}->{dst}");
            check(
                live,
                composer(lat, cap),
                &req,
                &catalog,
                providers,
                &mut view,
                &label,
            );
        }
    }
}

#[test]
fn asymmetric_latencies_are_read_in_the_pair_order() {
    // Services 0 and 1 share one provider list, so the entries for
    // (0, 1) and (1, 0) are built from the same hosts and differ only in
    // direction.
    let hosts: Vec<usize> = (2..11).collect();
    let providers: ProviderMap = [(0, hosts.clone()), (1, hosts)].into_iter().collect();
    let chains: [&[usize]; 5] = [&[0, 1], &[1, 0], &[0, 1, 0], &[1, 0, 1], &[1, 1, 0]];
    for seed in 1..=8u64 {
        let lat = asymmetric_matrix(SMALL, seed);
        for cap in CAPS {
            let mut live = composer(&lat, cap);
            let label = format!("seed {seed} cap {cap:?}");
            // Twice: the second pass reads every entry warm.
            check_chains(&mut live, &lat, cap, &chains, &providers, &label);
            check_chains(&mut live, &lat, cap, &chains, &providers, &label);
        }
    }
}

#[test]
fn transfer_costs_follow_the_arc_direction() {
    // Long-lived and fresh composers share any error in how an entry is
    // read, so this oracle needs no composer: on a fresh view every host
    // costs the same, and a 1 ms lane 0 → 3 → 7 → 1 must win over the
    // 300 ms everywhere else. The pair (5, 9) is a lane only when read
    // backwards (9 → 5 is 1 ms, 5 → 9 is 300 ms): a memo that served
    // (a, b) and (b, a) from one transposed entry would pick it.
    let mut ms = vec![300.0; SMALL * SMALL];
    for (u, v) in [(0, 3), (3, 7), (7, 1), (0, 5), (9, 5), (9, 1)] {
        ms[u * SMALL + v] = 1.0;
    }
    let lat = Arc::new(LatencyMatrix::new(SMALL, ms));
    let hosts: Vec<usize> = (2..11).collect();
    let providers: ProviderMap = [(0, hosts.clone()), (1, hosts)].into_iter().collect();
    let catalog = ServiceCatalog::synthetic(2, 3);
    for cap in CAPS {
        let mut live = composer(&lat, cap);
        for chain in [[0, 1], [1, 0], [0, 1], [1, 0]] {
            let req = ServiceRequest::chain(&chain, 4.0, 0, 1);
            let g = live
                .compose(
                    &req,
                    &catalog,
                    &providers,
                    &mut small_view(),
                    &mut SimRng::new(0),
                )
                .unwrap();
            let hosts: Vec<usize> = g.substreams[0]
                .iter()
                .flat_map(|st| st.placements.iter().map(|p| p.node))
                .collect();
            assert_eq!(hosts, [3, 7], "cap {cap:?} chain {chain:?}");
        }
    }
}

#[test]
fn hand_made_unsorted_and_duplicated_lists_stay_exact() {
    let providers: ProviderMap = [
        (0, vec![9, 3, 7, 5, 2]),
        (1, vec![4, 4, 8, 6, 10, 6]),
        (2, vec![2, 3, 5, 5, 9]),
        (3, vec![10, 8, 6, 4, 2]),
    ]
    .into_iter()
    .collect();
    let chains: [&[usize]; 5] = [&[0, 1], &[1, 2], &[2, 3, 0], &[3, 3], &[0, 1, 2, 3]];
    for seed in 1..=8u64 {
        let lat = asymmetric_matrix(SMALL, seed);
        for cap in CAPS {
            let mut live = composer(&lat, cap);
            let label = format!("seed {seed} cap {cap:?}");
            check_chains(&mut live, &lat, cap, &chains, &providers, &label);
            check_chains(&mut live, &lat, cap, &chains, &providers, &label);
        }
    }
}

#[test]
fn shrinking_lists_keep_hitting_and_growing_lists_rebuild() {
    let chains: [&[usize]; 3] = [&[0, 1], &[1, 0], &[0, 1, 0]];
    for seed in 1..=8u64 {
        let lat = asymmetric_matrix(SMALL, seed);
        for cap in CAPS {
            let label = format!("seed {seed} cap {cap:?}");
            let mut live = composer(&lat, cap);
            let even: ProviderMap = [(0, vec![2, 4, 6, 8, 10]), (1, vec![2, 4, 6, 8, 10])]
                .into_iter()
                .collect();
            check_chains(&mut live, &lat, cap, &chains, &even, &label);
            // Warm: only the endpoint arcs evaluate the latency model.
            let before = live.hop_evals();
            let req = ServiceRequest::chain(&[0, 1], 4.0, 0, 1);
            let out = check(
                &mut live,
                composer(&lat, cap),
                &req,
                &ServiceCatalog::synthetic(4, 3),
                &even,
                &mut small_view(),
                &label,
            );
            assert!(out.admitted);
            assert_eq!(live.hop_evals() - before, 10, "{label}: warm entry");
            // A crash shrinks the lists: still warm.
            let shrunk: ProviderMap = [(0, vec![2, 4, 8, 10]), (1, vec![2, 6, 8, 10])]
                .into_iter()
                .collect();
            let before = live.hop_evals();
            check_chains(&mut live, &lat, cap, &chains, &shrunk, &label);
            let endpoint_evals = (2 * 4 + 2 * 4 + 2 * 4) * ENDPOINTS.len() as u64;
            assert_eq!(
                live.hop_evals() - before,
                endpoint_evals,
                "{label}: subset hit"
            );
            // The odd hosts register: the lists grow past every entry.
            let grown: ProviderMap = [(0, (2..11).collect()), (1, (2..11).collect())]
                .into_iter()
                .collect();
            let before = live.hop_evals();
            check_chains(&mut live, &lat, cap, &chains, &grown, &label);
            assert!(
                live.hop_evals() - before > 9 * 9,
                "{label}: a grown list rebuilds its entries"
            );
        }
    }
}

#[test]
fn each_ordered_pair_keeps_its_own_entry() {
    // Disjoint lists: an entry built for (0, 1) can never serve (1, 0),
    // so a memo keyed by the unordered pair would rebuild on every
    // alternation instead of staying warm.
    let providers: ProviderMap = [(0, vec![2, 4, 6, 8, 10]), (1, vec![3, 5, 7, 9])]
        .into_iter()
        .collect();
    let catalog = ServiceCatalog::synthetic(2, 3);
    for seed in 1..=8u64 {
        let lat = asymmetric_matrix(SMALL, seed);
        for cap in CAPS {
            let mut live = composer(&lat, cap);
            for round in 0..3 {
                for chain in [[0, 1], [1, 0]] {
                    let req = ServiceRequest::chain(&chain, 4.0, 0, 1);
                    let before = live.hop_evals();
                    let out = check(
                        &mut live,
                        composer(&lat, cap),
                        &req,
                        &catalog,
                        &providers,
                        &mut small_view(),
                        &format!("seed {seed} cap {cap:?} chain {chain:?}"),
                    );
                    assert!(out.admitted);
                    // Endpoint arcs: one per host of the first and of
                    // the last layer; the 5 × 4 transfer arcs only cold.
                    let cold = if round == 0 { 20 } else { 0 };
                    assert_eq!(
                        live.hop_evals() - before,
                        9 + cold,
                        "seed {seed} cap {cap:?} round {round} chain {chain:?}"
                    );
                }
            }
        }
    }
}

#[test]
fn a_matrix_swapped_through_the_public_field_is_never_read_stale() {
    let hosts: Vec<usize> = (2..11).collect();
    let providers: ProviderMap = [(0, hosts.clone()), (1, hosts)].into_iter().collect();
    let chains: [&[usize]; 3] = [&[0, 1], &[1, 0], &[0, 1, 0]];
    for seed in 1..=8u64 {
        let first = asymmetric_matrix(SMALL, seed);
        let second = asymmetric_matrix(SMALL, seed + 100);
        for cap in CAPS {
            let label = format!("seed {seed} cap {cap:?}");
            let mut live = composer(&first, cap);
            check_chains(&mut live, &first, cap, &chains, &providers, &label);
            live.latencies = Some(second.clone());
            check_chains(&mut live, &second, cap, &chains, &providers, &label);
            live.latencies = Some(first.clone());
            check_chains(&mut live, &first, cap, &chains, &providers, &label);
        }
    }
}
