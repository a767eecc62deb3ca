//! Parallel batch admission: compose many requests concurrently against
//! one snapshot, then commit deterministically.
//!
//! The single-request path costs one measured-view snapshot plus one
//! composition per request, serially. At thousand-node scale the
//! snapshot alone is `O(n)`, and requests arrive in bursts — so the
//! batch pipeline amortizes the snapshot over the burst and runs the
//! expensive part (composition) on `desim::pool` workers:
//!
//! 1. **Optimistic phase (parallel).** Every item composes against the
//!    *same* base snapshot — not against earlier items' reservations —
//!    on a pooled worker arena (a retained [`Composer`] whose
//!    `FlowNetwork`/solver buffers survive across items and batches)
//!    and a pooled clone of the base view. The worker wraps each
//!    attempt in an outer view transaction and rolls it back after
//!    recording the result, so the pooled view returns to the base
//!    state bit-exactly (the undo log restores clamped values by
//!    snapshot) and is reused for the next item. Before each item the
//!    arena drops its warm-start state
//!    ([`Composer::forget_warm_state`]): warm starts never change
//!    composition cost, but they can tilt equal-cost tie-breaking, and
//!    the pipeline must produce identical placements no matter which
//!    worker — with whatever solve history — picks an item up.
//!    Composing everything against the base (rather than a racing,
//!    partially-updated view) is what makes the phase order-free:
//!    item `i`'s proposal never depends on how items were scheduled.
//!
//! 2. **Reconcile phase (serial, commit order).** Proposals are
//!    committed in the order the admitter's [`OrderPolicy`] dictates —
//!    first-submitted by default, or a weighted ordering (lightest or
//!    heaviest requested load first, after Benoit et al.'s analysis of
//!    admission orderings) when contended capacity should go to a
//!    different winner than arrival order picks. The policy is a pure
//!    function of the items, so it cannot perturb determinism. Each
//!    proposal is checked against the *authoritative* view (base plus
//!    every earlier winner) with the committed-rate ledger formula
//!    (`overcommits_a_host`, the same arithmetic the engine's install
//!    path and the auditor use): a proposal that still fits is applied
//!    as-is; one that lost its capacity to an earlier winner is a
//!    **conflict**, and the item is *replayed* — recomposed serially
//!    against the authoritative view, exactly like single-request
//!    admission — so a burst colliding on one hot host degrades to the
//!    serial outcome instead of rejecting work that still fits
//!    elsewhere. Items whose optimistic compose already failed are
//!    rejected outright: the authoritative view is the base minus
//!    winners' capacity, so what failed against the base cannot
//!    succeed later.
//!
//! Both phases are deterministic functions of (base view, items, seed):
//! running with one worker or sixteen yields digest-equal outcomes,
//! which `tests/batch_determinism.rs` asserts and
//! [`BatchOutcome::digest`] makes cheap to compare.

use super::{Composer, ComposerKind};
use crate::compose::mincost::overcommits_a_host;
use crate::compose::{apply_reservations, ComposeError, ProviderMap};
use crate::model::{ExecutionGraph, ServiceCatalog, ServiceRequest};
use crate::view::SystemView;
use desim::SimRng;
use std::hash::{Hash, Hasher};
use std::sync::Mutex;

/// One request of a batch: what `Engine::handle_submit` hands its
/// composer, minus the view (the admitter owns the snapshot).
pub type BatchItem = (ServiceRequest, ProviderMap);

/// Reconcile-phase accounting (all deterministic given the inputs).
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct ReconcileStats {
    /// Items whose optimistic compose failed against the base snapshot.
    pub optimistic_failures: usize,
    /// Proposals that no longer fit the authoritative view at commit
    /// time (an earlier winner took the capacity).
    pub conflicts: usize,
    /// Conflicted items admitted by their serial replay.
    pub replayed_ok: usize,
    /// Conflicted items whose replay was rejected too.
    pub replay_rejected: usize,
}

/// Per-batch results, in item order.
#[derive(Debug)]
pub struct BatchOutcome {
    /// One admission result per item, index-aligned with the input. On
    /// `Ok` the graph's reservations have been applied to the view the
    /// batch ran against.
    pub results: Vec<Result<ExecutionGraph, ComposeError>>,
    /// Item indices that went through conflict replay, ascending.
    pub replayed: Vec<usize>,
    /// Reconcile-phase accounting.
    pub stats: ReconcileStats,
}

impl BatchOutcome {
    /// Order-sensitive digest of every per-item outcome (placements at
    /// full bit precision, rejections by error identity) — two digest-
    /// equal batches admitted the same apps onto the same hosts at the
    /// same rates. Serial (one worker) and pooled runs must match.
    pub fn digest(&self) -> u64 {
        let mut h = desim::hash::FxHasher::default();
        for (i, r) in self.results.iter().enumerate() {
            h.write_usize(i);
            match r {
                Ok(graph) => {
                    h.write_u8(1);
                    for sub in &graph.substreams {
                        h.write_usize(sub.len());
                        for stage in sub {
                            h.write_usize(stage.service);
                            for p in &stage.placements {
                                h.write_usize(p.node);
                                h.write_u64(p.rate.to_bits());
                            }
                        }
                    }
                }
                Err(ComposeError::NoProviders(s)) => {
                    h.write_u8(2);
                    h.write_usize(*s);
                }
                Err(ComposeError::InsufficientCapacity { substream }) => {
                    h.write_u8(3);
                    h.write_usize(*substream);
                }
                Err(ComposeError::UnknownService(s)) => {
                    h.write_u8(4);
                    h.write_usize(*s);
                }
                Err(ComposeError::EndpointDown(v)) => {
                    h.write_u8(5);
                    h.write_usize(*v);
                }
                Err(ComposeError::Malformed(e)) => {
                    h.write_u8(6);
                    e.hash(&mut h);
                }
            }
        }
        for &i in &self.replayed {
            h.write_usize(i);
        }
        h.finish()
    }

    /// Number of admitted items.
    pub fn admitted(&self) -> usize {
        self.results.iter().filter(|r| r.is_ok()).count()
    }
}

/// SplitMix64 (same constants as `simnet`'s jitter hash): decorrelates
/// per-item RNG streams from the batch seed.
fn mix(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E3779B97F4A7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D049BB133111EB);
    x ^ (x >> 31)
}

/// Salt of the conflict-replay RNG stream (`"REPLAY"` in ASCII), so a
/// replay never re-rolls its optimistic phase's random choices.
const REPLAY_SALT: u64 = 0x5245504C4159;

/// Which proposal wins contended capacity: the commit order of the
/// reconcile phase. Benoit et al. (PAPERS.md) analyze how admission
/// orderings trade throughput against fairness on heterogeneous
/// platforms; the pipeline exposes the knob while keeping every policy a
/// pure, deterministic function of the submitted items.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum OrderPolicy {
    /// Commit in submission order — first submitted wins (the default,
    /// and the only policy with no information about request weight).
    #[default]
    FirstSubmitted,
    /// Lightest requested load (total bits/s) first, ties by submission
    /// order: favors admitted-count, starving heavy requests last.
    SmallestFirst,
    /// Heaviest requested load first: a throughput-weighted priority
    /// that lets big tenants claim contended capacity.
    LargestFirst,
}

impl OrderPolicy {
    /// The commit order, as indices into `items`. Always a permutation;
    /// ties never reorder (submission index breaks them), so the order
    /// is deterministic for any input.
    fn commit_order(self, items: &[BatchItem]) -> Vec<usize> {
        let mut order: Vec<usize> = (0..items.len()).collect();
        let weight = |i: usize| items[i].0.total_bits_per_sec();
        match self {
            OrderPolicy::FirstSubmitted => {}
            OrderPolicy::SmallestFirst => {
                order.sort_by(|&a, &b| weight(a).total_cmp(&weight(b)).then(a.cmp(&b)));
            }
            OrderPolicy::LargestFirst => {
                order.sort_by(|&a, &b| weight(b).total_cmp(&weight(a)).then(a.cmp(&b)));
            }
        }
        order
    }

    /// Bench/report label.
    pub fn label(self) -> &'static str {
        match self {
            OrderPolicy::FirstSubmitted => "first_submitted",
            OrderPolicy::SmallestFirst => "smallest_first",
            OrderPolicy::LargestFirst => "largest_first",
        }
    }
}

/// The serial validate-and-commit pass of [`BatchAdmitter::admit_batch`]:
/// walk proposals in commit order against the authoritative `view`,
/// apply what still fits, replay conflicts with the per-item replay RNG
/// stream.
fn reconcile_proposals(
    view: &mut SystemView,
    catalog: &ServiceCatalog,
    items: &[BatchItem],
    proposals: Vec<Result<ExecutionGraph, ComposeError>>,
    order: &[usize],
    seed: u64,
    arena: &mut dyn Composer,
) -> BatchOutcome {
    debug_assert_eq!(items.len(), proposals.len());
    debug_assert_eq!(items.len(), order.len());
    let mut stats = ReconcileStats::default();
    let mut replayed = Vec::new();
    let mut slots: Vec<Option<Result<ExecutionGraph, ComposeError>>> =
        proposals.into_iter().map(Some).collect();
    for &i in order {
        let (req, providers) = &items[i];
        let outcome = match slots[i].take().expect("commit order is a permutation") {
            Err(e) => {
                // Failed against the base snapshot; the view only has
                // less capacity now.
                stats.optimistic_failures += 1;
                Err(e)
            }
            Ok(graph) => {
                if !overcommits_a_host(req, catalog, view, &graph) {
                    apply_reservations(req, catalog, &graph, view);
                    Ok(graph)
                } else {
                    stats.conflicts += 1;
                    replayed.push(i);
                    arena.forget_warm_state();
                    let mut rng = SimRng::new(mix(seed ^ i as u64 ^ REPLAY_SALT));
                    let r = arena.compose(req, catalog, providers, view, &mut rng);
                    match &r {
                        Ok(_) => stats.replayed_ok += 1,
                        Err(_) => stats.replay_rejected += 1,
                    }
                    r
                }
            }
        };
        slots[i] = Some(outcome);
    }
    replayed.sort_unstable();
    BatchOutcome {
        results: slots
            .into_iter()
            .map(|s| s.expect("every index committed exactly once"))
            .collect(),
        replayed,
        stats,
    }
}

/// The batch admission pipeline. Owns a pool of worker arenas
/// (composers) that persist across batches, so the steady state rebuilds
/// flow networks inside retained buffers instead of allocating them.
pub struct BatchAdmitter {
    threads: usize,
    order: OrderPolicy,
    factory: Box<dyn Fn() -> Box<dyn Composer + Send> + Send + Sync>,
    arenas: Mutex<Vec<Box<dyn Composer + Send>>>,
    /// Worker copies of base snapshots from previous batches (at most one
    /// per worker). Re-synced to the current base with
    /// `SystemView::clone_from`, which reuses every heap buffer — so a
    /// steady-state batch performs zero snapshot allocations where a
    /// fresh `clone()` would perform `O(n)` per worker.
    views: Mutex<Vec<SystemView>>,
}

impl std::fmt::Debug for BatchAdmitter {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("BatchAdmitter")
            .field("threads", &self.threads)
            .finish_non_exhaustive()
    }
}

impl BatchAdmitter {
    /// An admitter running `threads` optimistic workers whose arenas are
    /// built by `factory`. `threads == 1` composes inline — the
    /// reference execution the parallel runs must digest-match.
    pub fn new(
        threads: usize,
        factory: impl Fn() -> Box<dyn Composer + Send> + Send + Sync + 'static,
    ) -> Self {
        assert!(threads > 0, "thread count must be positive");
        BatchAdmitter {
            threads,
            order: OrderPolicy::default(),
            factory: Box::new(factory),
            arenas: Mutex::new(Vec::new()),
            views: Mutex::new(Vec::new()),
        }
    }

    /// A default-configuration admitter over `kind` composers.
    pub fn for_kind(threads: usize, kind: ComposerKind) -> Self {
        Self::new(threads, move || kind.build())
    }

    /// Replaces the commit-ordering policy (default: first submitted).
    pub fn with_order(mut self, order: OrderPolicy) -> Self {
        self.order = order;
        self
    }

    fn take_arena(&self) -> Box<dyn Composer + Send> {
        self.arenas.lock().unwrap().pop().unwrap_or_else(|| {
            let mut c = (self.factory)();
            // Worker arenas are shared by every item of every batch, so
            // per-app retained-repair state would be misaddressed; the
            // engine repairs batch-admitted apps by cold recomposition.
            c.set_retention(false);
            c
        })
    }

    fn put_arena(&self, arena: Box<dyn Composer + Send>) {
        self.arenas.lock().unwrap().push(arena);
    }

    /// Admits `items` against `view` (the batch's base snapshot): runs
    /// the optimistic phase on the worker pool, then commits winners and
    /// replays conflicts in item order. On return, `view` carries
    /// exactly the admitted results' reservations.
    ///
    /// `seed` feeds the per-item RNG streams (`mix(seed, index)`), so
    /// outcomes are a pure function of (view, items, seed) — worker
    /// count and scheduling cannot shift them.
    pub fn admit_batch(
        &self,
        view: &mut SystemView,
        catalog: &ServiceCatalog,
        items: &[BatchItem],
        seed: u64,
    ) -> BatchOutcome {
        assert!(!view.in_transaction(), "batch over a half-open snapshot");
        // Pooled base-view copies, populated lazily: at most one per
        // worker per batch, reused across that worker's items via
        // rollback (bit-exact, so item k sees the same base as item 0).
        // `synced` holds views already at *this* batch's base; stale
        // views from earlier batches live in `self.views` and are
        // re-synced allocation-free on first use.
        let synced: Mutex<Vec<SystemView>> = Mutex::new(Vec::new());
        let base: &SystemView = view;
        let proposals: Vec<Result<ExecutionGraph, ComposeError>> =
            desim::pool::parallel_map_threads(self.threads, items, |i, (req, providers)| {
                let mut arena = self.take_arena();
                let mut work = synced.lock().unwrap().pop().unwrap_or_else(|| {
                    match self.views.lock().unwrap().pop() {
                        Some(mut stale) => {
                            stale.clone_from(base);
                            stale
                        }
                        None => base.clone(),
                    }
                });
                arena.forget_warm_state();
                let mut rng = SimRng::new(mix(seed ^ i as u64));
                work.begin_transaction();
                let result = arena.compose(req, catalog, providers, &mut work, &mut rng);
                work.rollback_transaction();
                synced.lock().unwrap().push(work);
                self.put_arena(arena);
                result
            });
        // Return worker views to the cross-batch pool.
        self.views
            .lock()
            .unwrap()
            .append(&mut synced.into_inner().unwrap());

        // Serial reconcile in the policy's commit order: the first
        // committed proposal wins its capacity; later conflicting
        // proposals replay against what is actually left.
        let order = self.order.commit_order(items);
        let mut arena = self.take_arena();
        let outcome = reconcile_proposals(
            view,
            catalog,
            items,
            proposals,
            &order,
            seed,
            arena.as_mut(),
        );
        self.put_arena(arena);
        outcome
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compose::MinCostComposer;
    use crate::model::ServiceCatalog;
    use desim::SimDuration;
    use simnet::Topology;

    fn setup(n: usize) -> (ServiceCatalog, SystemView, ProviderMap) {
        let catalog = ServiceCatalog::synthetic(4, 1);
        let view = SystemView::fresh(&Topology::uniform(
            n,
            1_000_000.0,
            SimDuration::from_millis(10),
        ));
        let mut providers = ProviderMap::new();
        for s in 0..4 {
            providers.insert(s, (1..n - 1).collect());
        }
        (catalog, view, providers)
    }

    fn requests(k: usize, rate: f64, n: usize) -> Vec<BatchItem> {
        let (_, _, providers) = setup(n);
        (0..k)
            .map(|_| {
                (
                    ServiceRequest::chain(&[0, 2], rate, 0, n - 1),
                    providers.clone(),
                )
            })
            .collect()
    }

    fn mincost_admitter(threads: usize) -> BatchAdmitter {
        BatchAdmitter::new(threads, || Box::new(MinCostComposer::default()))
    }

    #[test]
    fn serial_and_parallel_batches_digest_equal() {
        let n = 10;
        let (catalog, base, _) = setup(n);
        let items = requests(12, 8.0, n);
        let mut v1 = base.clone();
        let out1 = mincost_admitter(1).admit_batch(&mut v1, &catalog, &items, 7);
        let mut v4 = base.clone();
        let out4 = mincost_admitter(4).admit_batch(&mut v4, &catalog, &items, 7);
        assert_eq!(out1.digest(), out4.digest());
        assert!(v1 == v4, "ledgers diverged");
        assert!(out1.admitted() > 0);
    }

    #[test]
    fn conflicts_are_replayed_and_capacity_is_respected() {
        // 4 nodes: source 0, two hosts 1..=2, destination 3 at 1 Mbps.
        // Each request wants most of a host; optimistically they all
        // fit, but committed together they overrun — later items must
        // replay, and what cannot fit must be rejected.
        let catalog = ServiceCatalog::synthetic(1, 3);
        let view = SystemView::fresh(&Topology::uniform(
            4,
            1_000_000.0,
            SimDuration::from_millis(5),
        ));
        let mut providers = ProviderMap::new();
        providers.insert(0, vec![1, 2]);
        // ~122 du/s per NIC; 70 du/s each means one per host fits, the
        // third conflicts wherever it lands.
        let items: Vec<BatchItem> = (0..3)
            .map(|_| (ServiceRequest::chain(&[0], 70.0, 0, 3), providers.clone()))
            .collect();
        let mut v = view.clone();
        let out = mincost_admitter(2).admit_batch(&mut v, &catalog, &items, 1);
        assert!(out.stats.conflicts > 0, "expected capacity conflicts");
        // The view carries exactly the admitted reservations: replaying
        // them onto a fresh copy reproduces it.
        let mut replay = view.clone();
        for (item, r) in items.iter().zip(&out.results) {
            if let Ok(g) = r {
                apply_reservations(&item.0, &catalog, g, &mut replay);
            }
        }
        assert!(replay == v, "view must equal base + admitted reservations");
        // And a parallel run agrees.
        let mut v2 = view.clone();
        let out2 = mincost_admitter(3).admit_batch(&mut v2, &catalog, &items, 1);
        assert_eq!(out.digest(), out2.digest());
    }

    #[test]
    fn order_policy_decides_the_contention_winner() {
        // One provider host at 1 Mbps (~122 du/s per direction); a
        // 60 du/s and an 80 du/s request each fit alone, never together.
        let catalog = ServiceCatalog::synthetic(1, 3);
        let view = SystemView::fresh(&Topology::uniform(
            4,
            1_000_000.0,
            SimDuration::from_millis(5),
        ));
        let mut providers = ProviderMap::new();
        providers.insert(0, vec![1]);
        let items: Vec<BatchItem> = [60.0, 80.0]
            .iter()
            .map(|&r| (ServiceRequest::chain(&[0], r, 0, 3), providers.clone()))
            .collect();
        let run = |policy: OrderPolicy| {
            let mut v = view.clone();
            let out = mincost_admitter(2)
                .with_order(policy)
                .admit_batch(&mut v, &catalog, &items, 5);
            (out.results[0].is_ok(), out.results[1].is_ok(), out)
        };
        // Submission order and lightest-first both admit the 60 du/s
        // request; heaviest-first hands the host to the 80 du/s one.
        assert_eq!(
            (true, false),
            (
                run(OrderPolicy::FirstSubmitted).0,
                run(OrderPolicy::FirstSubmitted).1
            )
        );
        assert_eq!(
            (true, false),
            (
                run(OrderPolicy::SmallestFirst).0,
                run(OrderPolicy::SmallestFirst).1
            )
        );
        let (big0, big1, out) = run(OrderPolicy::LargestFirst);
        assert_eq!((false, true), (big0, big1));
        assert_eq!(out.stats.conflicts, 1);
        assert_eq!(out.stats.replay_rejected, 1);
    }

    #[test]
    fn batch_of_one_matches_plain_compose() {
        let n = 8;
        let (catalog, base, providers) = setup(n);
        let req = ServiceRequest::chain(&[0, 2], 10.0, 0, n - 1);
        let mut direct_view = base.clone();
        let mut composer = MinCostComposer::default();
        let direct = composer
            .compose(
                &req,
                &catalog,
                &providers,
                &mut direct_view,
                &mut SimRng::new(99),
            )
            .unwrap();
        let mut batch_view = base.clone();
        let out =
            mincost_admitter(1).admit_batch(&mut batch_view, &catalog, &[(req, providers)], 123);
        let batched = out.results[0].as_ref().unwrap();
        assert_eq!(&direct, batched, "single-item batch must match direct");
        assert!(direct_view == batch_view);
    }
}
