//! Batch-admission determinism suite (ISSUE 9, tentpole part 3): a
//! batch admitted serially (one worker) and in parallel (many workers)
//! must produce digest-equal outcomes and bit-equal committed-rate
//! ledgers — including under injected host-capacity conflicts that force
//! the reconcile phase to replay items — at both the `BatchAdmitter`
//! and the `Engine::submit_batch` level. Replay losers leave no residue:
//! after a conflicted batch the ledger is exactly the base plus the
//! admitted reservations.

use desim::{SimDuration, SimRng};
use rasc_core::compose::{
    apply_reservations, BatchAdmitter, BatchItem, MinCostComposer, ProviderMap,
};
use rasc_core::engine::{Engine, EngineConfig};
use rasc_core::model::{ServiceCatalog, ServiceRequest};
use rasc_core::view::SystemView;
use simnet::{kbps, Topology};

fn admitter(threads: usize, cap: Option<usize>) -> BatchAdmitter {
    BatchAdmitter::new(threads, move || {
        let mut c = MinCostComposer::default();
        if let Some(k) = cap {
            c = c.with_candidate_cap(k);
        }
        Box::new(c)
    })
}

/// Random batches over a power-law overlay: mixed chains, spread
/// endpoints, enough aggregate rate that some hosts genuinely contend.
fn random_items(n: usize, count: usize, services: usize, seed: u64) -> Vec<BatchItem> {
    let mut rng = SimRng::new(seed ^ 0xBA7C);
    let mut providers = ProviderMap::new();
    for s in 0..services {
        let mut hosts = rng.sample_indices(n, (n / 8).max(4));
        hosts.sort_unstable();
        hosts.dedup();
        providers.insert(s, hosts);
    }
    (0..count)
        .map(|i| {
            let len = rng.range_usize(1, 4);
            let chain: Vec<usize> = (0..len).map(|_| rng.range_usize(0, services)).collect();
            (
                ServiceRequest::chain(
                    &chain,
                    rng.range_f64(2.0, 30.0),
                    (i * 3) % n,
                    (i * 3 + 1) % n,
                ),
                providers.clone(),
            )
        })
        .collect()
}

#[test]
fn worker_count_never_changes_the_outcome() {
    for seed in 0..6u64 {
        let topo = Topology::power_law(96, kbps(300.0), kbps(2500.0), seed);
        let base = SystemView::fresh(&topo);
        let catalog = ServiceCatalog::synthetic(5, seed);
        let items = random_items(96, 24, 5, seed);
        let mut reference = None;
        for threads in [1usize, 2, 4, 8] {
            let mut view = base.clone();
            let out = admitter(threads, Some(8)).admit_batch(&mut view, &catalog, &items, seed);
            let digest = out.digest();
            match &reference {
                None => reference = Some((digest, view, out)),
                Some((d, v, o)) => {
                    assert_eq!(
                        *d, digest,
                        "digest diverged at {threads} workers (seed {seed})"
                    );
                    assert!(
                        *v == view,
                        "ledger diverged at {threads} workers (seed {seed})"
                    );
                    assert_eq!(o.replayed, out.replayed, "replay set diverged");
                    assert_eq!(o.stats, out.stats, "reconcile stats diverged");
                }
            }
        }
    }
}

#[test]
fn injected_capacity_conflicts_force_replays_and_stay_deterministic() {
    // One deliberately tight provider pool: every request wants most of
    // a host, so optimistic proposals collide and the reconcile phase
    // must replay — serial and parallel runs must still agree exactly.
    let catalog = ServiceCatalog::synthetic(1, 7);
    let view = SystemView::fresh(&Topology::uniform(
        6,
        1_000_000.0,
        SimDuration::from_millis(5),
    ));
    let mut providers = ProviderMap::new();
    providers.insert(0, vec![1, 2, 3]);
    // ~122 du/s per NIC at the default unit size; 80 du/s each means one
    // stream per host fits and the rest conflict wherever they land.
    let items: Vec<BatchItem> = (0..6)
        .map(|_| (ServiceRequest::chain(&[0], 80.0, 0, 5), providers.clone()))
        .collect();
    let mut v1 = view.clone();
    let out1 = admitter(1, None).admit_batch(&mut v1, &catalog, &items, 3);
    assert!(
        out1.stats.conflicts >= 2,
        "scenario failed to inject conflicts: {:?}",
        out1.stats
    );
    assert!(!out1.replayed.is_empty());
    for threads in [2usize, 4] {
        let mut vp = view.clone();
        let outp = admitter(threads, None).admit_batch(&mut vp, &catalog, &items, 3);
        assert_eq!(out1.digest(), outp.digest(), "{threads} workers diverged");
        assert!(v1 == vp, "ledgers diverged at {threads} workers");
    }
    // The committed ledger is exactly base + admitted reservations.
    let mut replayed_view = view.clone();
    for ((req, _), r) in items.iter().zip(&out1.results) {
        if let Ok(g) = r {
            apply_reservations(req, &catalog, g, &mut replayed_view);
        }
    }
    assert!(
        replayed_view == v1,
        "ledger != base + admitted reservations"
    );
}

#[test]
fn every_order_policy_is_deterministic_across_worker_counts() {
    use rasc_core::compose::OrderPolicy;
    for policy in [
        OrderPolicy::FirstSubmitted,
        OrderPolicy::SmallestFirst,
        OrderPolicy::LargestFirst,
    ] {
        for seed in [9u64, 23] {
            let topo = Topology::power_law(96, kbps(300.0), kbps(2500.0), seed);
            let base = SystemView::fresh(&topo);
            let catalog = ServiceCatalog::synthetic(5, seed);
            let items = random_items(96, 24, 5, seed);
            let mut reference = None;
            for threads in [1usize, 3, 6] {
                let mut view = base.clone();
                let out = admitter(threads, Some(8))
                    .with_order(policy)
                    .admit_batch(&mut view, &catalog, &items, seed);
                let digest = out.digest();
                match &reference {
                    None => reference = Some((digest, view, out)),
                    Some((d, v, o)) => {
                        assert_eq!(
                            *d, digest,
                            "{policy:?} digest diverged at {threads} workers (seed {seed})"
                        );
                        assert!(
                            *v == view,
                            "{policy:?} ledger diverged at {threads} workers (seed {seed})"
                        );
                        assert_eq!(o.replayed, out.replayed, "{policy:?} replay set diverged");
                        assert_eq!(o.stats, out.stats, "{policy:?} reconcile stats diverged");
                    }
                }
            }
        }
    }
}

#[test]
fn randomized_batches_leave_no_replay_residue() {
    let (mut total_conflicts, mut total_replay_rejected) = (0usize, 0usize);
    for seed in 0..8u64 {
        let n = 96;
        let topo = Topology::power_law(n, kbps(250.0), kbps(2000.0), seed);
        let base = SystemView::fresh(&topo);
        let catalog = ServiceCatalog::synthetic(4, seed);
        let mut rng = SimRng::new(seed ^ 0x0511);
        let mut providers = ProviderMap::new();
        for s in 0..4 {
            let mut hosts = rng.sample_indices(n, 8);
            hosts.sort_unstable();
            hosts.dedup();
            providers.insert(s, hosts);
        }
        // Few providers + heavy rates: optimistic proposals genuinely
        // collide and the reconcile phase replays or rejects. Every other
        // request has a light substream ahead of a heavy one, so a replay
        // can place the first and fail on the second: its rollback then
        // has reservations to undo.
        let items: Vec<BatchItem> = (0..20)
            .map(|i| {
                let (src, dst) = ((i * 5) % n, (i * 5 + 2) % n);
                let rate = rng.range_f64(10.0, 40.0);
                let req = if i % 2 == 0 {
                    ServiceRequest::chain(&[i % 4], rate, src, dst)
                } else {
                    ServiceRequest::multi(
                        vec![vec![(i + 1) % 4], vec![i % 4]],
                        vec![rate / 4.0, rate],
                        src,
                        dst,
                    )
                };
                (req, providers.clone())
            })
            .collect();
        let mut view = base.clone();
        let out = admitter(3, Some(8)).admit_batch(&mut view, &catalog, &items, seed);
        // Bit-exactness: committed ledger == base + admitted reservations.
        let mut expect = base.clone();
        for ((req, _), r) in items.iter().zip(&out.results) {
            if let Ok(g) = r {
                apply_reservations(req, &catalog, g, &mut expect);
            }
        }
        assert!(
            expect == view,
            "seed {seed}: ledger != base + admitted reservations \
             ({} admitted, {} conflicts, {} replay-rejected)",
            out.admitted(),
            out.stats.conflicts,
            out.stats.replay_rejected
        );
        assert!(!view.in_transaction(), "batch left a transaction open");
        total_conflicts += out.stats.conflicts;
        total_replay_rejected += out.stats.replay_rejected;
    }
    // The scenario is tight enough that replay actually ran and lost
    // somewhere; without this the residue assertions above would be
    // vacuous.
    assert!(
        total_conflicts > 0,
        "no seed produced a conflict — tighten the scenario"
    );
    assert!(
        total_replay_rejected > 0,
        "no replay was rejected — tighten the scenario"
    );
}

fn batch_engine(n: usize, seed: u64, audit: bool) -> Engine {
    let catalog = ServiceCatalog::synthetic(4, seed);
    let topo = Topology::power_law(n, kbps(400.0), kbps(3000.0), seed);
    let offers: Vec<Vec<usize>> = (0..n)
        .map(|v| (0..4).filter(|s| (v + s) % 7 == 0).collect())
        .collect();
    Engine::builder(n, catalog, seed)
        .topology(topo)
        .offers(offers)
        .config(EngineConfig {
            candidate_cap: Some(8),
            audit,
            audit_period_secs: 2.0,
            ..Default::default()
        })
        .build()
}

#[test]
fn engine_submit_batch_digest_equal_across_worker_counts() {
    let n = 80;
    let reqs = |_| -> Vec<ServiceRequest> {
        (0..16)
            .map(|i| {
                ServiceRequest::chain(
                    &[i % 4, (i + 1) % 4],
                    4.0 + i as f64,
                    (i * 5) % n,
                    (i * 5 + 2) % n,
                )
            })
            .collect()
    };
    let mut e1 = batch_engine(n, 21, false);
    let r1 = e1.submit_batch(reqs(()), 1);
    let mut e4 = batch_engine(n, 21, false);
    let r4 = e4.submit_batch(reqs(()), 4);
    assert_eq!(r1.digest, r4.digest, "engine batch digests diverged");
    assert_eq!(r1.stats, r4.stats);
    assert_eq!(r1.replayed, r4.replayed);
    assert_eq!(
        r1.apps.iter().filter(|a| a.is_ok()).count(),
        r4.apps.iter().filter(|a| a.is_ok()).count()
    );
    assert!(
        r1.apps.iter().any(|a| a.is_ok()),
        "batch admitted nothing: {:?}",
        r1.apps
    );
    // Both engines actually run the admitted apps to completion.
    e1.run_for_secs(10.0);
    e4.run_for_secs(10.0);
    let (rep1, rep4) = (e1.report(), e4.report());
    assert!(rep1.delivered > 0);
    assert_eq!(rep1.delivered, rep4.delivered, "runtime behaviour diverged");
}

#[test]
fn audited_engine_batch_admission_is_clean() {
    // The explicit audit flag exercises the batch path's ledger-exactness
    // check (view == snapshot + admitted reservations) plus the global
    // checkpoint invariants, regardless of the RASC_AUDIT environment.
    let n = 64;
    let mut e = batch_engine(n, 5, true);
    let reqs: Vec<ServiceRequest> = (0..12)
        .map(|i| ServiceRequest::chain(&[i % 4], 6.0 + i as f64, (i * 4) % n, (i * 4 + 3) % n))
        .collect();
    let report = e.submit_batch(reqs, 2);
    assert!(report.apps.iter().any(|a| a.is_ok()));
    e.run_for_secs(12.0);
    let audit = e.finish_run();
    assert!(audit.clean(), "audit violations: {:#?}", audit.violations);
}
