//! Oracle suite for top-k candidate selection: across seeds, topology
//! families and transaction histories — including rollbacks from every
//! mid-transaction cut — `SystemView::select_top_candidates_linear` must
//! return exactly what a naive full sort returns: score every provider,
//! rank by (bottleneck bandwidth descending, node id ascending), keep the
//! first `k`, sort them by id. Provider lists are fed both sorted and
//! shuffled, since selection must not depend on their order.

use desim::SimRng;
use rasc_core::model::DEFAULT_UNIT_BITS;
use rasc_core::view::SystemView;
use simnet::{kbps, Topology};

/// Four families, one of them (`uniform`) where every fresh metric ties.
fn families(seed: u64) -> Vec<(&'static str, Topology)> {
    vec![
        (
            "power_law",
            Topology::power_law(160, kbps(200.0), kbps(5000.0), seed),
        ),
        (
            "datacenter_wan",
            Topology::datacenter_wan(160, 4, kbps(500.0), kbps(4000.0), seed),
        ),
        (
            "planetlab",
            Topology::planetlab_like(160, kbps(200.0), kbps(3000.0), seed),
        ),
        (
            "uniform",
            Topology::uniform(160, kbps(1500.0), desim::SimDuration::from_millis(10)),
        ),
    ]
}

/// A duplicate-free random provider subset, shuffled.
fn random_providers(rng: &mut SimRng, n: usize) -> Vec<usize> {
    let count = rng.range_usize(1, n / 2);
    let mut p: Vec<usize> = (0..count).map(|_| rng.range_usize(0, n)).collect();
    p.sort_unstable();
    p.dedup();
    rng.shuffle(&mut p);
    p
}

/// One random view mutation through the public (journaled) surface.
/// The saturating arm clamps hosts to zero, so ties at 0 stay common.
fn mutate(view: &mut SystemView, rng: &mut SimRng) {
    let v = rng.range_usize(0, view.len());
    match rng.range_usize(0, 4) {
        0 => view.reserve_component(v, DEFAULT_UNIT_BITS, 1.0, rng.range_f64(0.1, 40.0)),
        1 => view.release_component(v, DEFAULT_UNIT_BITS, 1.0, rng.range_f64(0.1, 10.0)),
        2 => view.reserve_component(v, DEFAULT_UNIT_BITS, 1.0, rng.range_f64(0.1, 120.0)),
        _ => view.reserve_component(v, DEFAULT_UNIT_BITS, 1.0, 1e9),
    }
}

/// The naive reference: full sort by (metric desc, id asc), first `k`,
/// sorted by id.
fn reference(view: &SystemView, providers: &[usize], k: usize) -> Vec<usize> {
    let mut scored: Vec<(f64, usize)> = providers
        .iter()
        .map(|&v| (view.candidate_metric(v), v))
        .collect();
    scored.sort_by(|a, b| b.0.partial_cmp(&a.0).unwrap().then(a.1.cmp(&b.1)));
    let mut top: Vec<usize> = scored.into_iter().take(k).map(|(_, v)| v).collect();
    top.sort_unstable();
    top
}

/// Checks every `k` the suite covers (`p - 1` is the largest `k` that
/// still cuts), on the shuffled list and on a sorted copy.
fn assert_matches_reference(view: &SystemView, providers: &[usize], label: &str) {
    let mut sorted = providers.to_vec();
    sorted.sort_unstable();
    let p = providers.len();
    let mut got = Vec::new();
    for k in [0usize, 1, 2, 5, 16, p.saturating_sub(1), p, p + 7] {
        let want = reference(view, providers, k);
        assert_eq!(want.len(), k.min(p));
        for list in [providers, &sorted[..]] {
            view.select_top_candidates_linear(list, k, &mut got);
            assert_eq!(got, want, "selection diverged ({label}, k={k}, p={p})");
        }
    }
}

#[test]
fn selection_matches_naive_reference_across_families_and_histories() {
    for seed in 0..8u64 {
        for (family, topo) in families(seed) {
            let mut rng = SimRng::new(seed ^ 0x1DE0);
            let mut view = SystemView::fresh(&topo);
            let providers = random_providers(&mut rng, view.len());
            assert_matches_reference(&view, &providers, family);

            // Committed (non-transactional) mutations.
            for step in 0..40 {
                mutate(&mut view, &mut rng);
                if step % 8 == 0 {
                    assert_matches_reference(&view, &providers, family);
                }
            }
            assert_matches_reference(&view, &providers, family);
        }
    }
}

#[test]
fn rollback_from_any_midpoint_restores_the_top_k() {
    for seed in 0..8u64 {
        for (family, topo) in families(seed) {
            let mut rng = SimRng::new(seed ^ 0xB0B0);
            let mut view = SystemView::fresh(&topo);
            // Pre-transaction warm-up so the rollback target isn't pristine.
            for _ in 0..20 {
                mutate(&mut view, &mut rng);
            }
            let providers = random_providers(&mut rng, view.len());
            let mut before = Vec::new();
            view.select_top_candidates_linear(&providers, 16, &mut before);

            // Roll back from every prefix length of a mutation script:
            // selection must match the reference inside the transaction
            // at the cut point and return the pre-transaction top-k after.
            for cut in 0..12 {
                view.begin_transaction();
                for _ in 0..=cut {
                    mutate(&mut view, &mut rng);
                }
                assert_matches_reference(&view, &providers, "mid-transaction");
                view.rollback_transaction();
                assert_matches_reference(&view, &providers, "post-rollback");
                let mut after = Vec::new();
                view.select_top_candidates_linear(&providers, 16, &mut after);
                assert_eq!(
                    before, after,
                    "rollback did not restore the top-k ({family})"
                );
            }
        }
    }
}
