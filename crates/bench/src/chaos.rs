//! Chaos soak harness: drives seeded fault plans against fully audited
//! engines across the seed × fault-profile × composer matrix. Every run
//! must finish with zero invariant violations (unit conservation,
//! ledger consistency, rollback exactness, exactly-once delivery,
//! registry health, queue liveness), and the per-run digests fold into
//! one deterministic matrix digest — bit-identical whether the matrix
//! is executed serially or on the worker pool.

use desim::SimDuration;
use rasc_core::compose::ComposerKind;
use rasc_core::engine::{fnv1a64, Engine, EngineConfig, FaultPlan, FaultProfile};
use rasc_core::model::{ServiceCatalog, ServiceRequest};
use simnet::{kbps, TopologyBuilder};

/// Axes of the soak matrix plus the per-run world shape.
#[derive(Clone, Debug)]
pub struct ChaosConfig {
    /// Seeds; each seeds the catalog, the generated fault plan, and the
    /// engine RNG of its runs.
    pub seeds: Vec<u64>,
    /// Fault profiles; each yields a distinct deterministic plan per seed.
    pub profiles: Vec<FaultProfile>,
    /// Composition algorithms under test.
    pub composers: Vec<ComposerKind>,
    /// Data-plane variants: transfer batch sizes. The matrix crosses
    /// these with every (seed, profile, composer) cell; batch 1 is the
    /// per-unit plane, larger batches coarsen timing and are held to the
    /// same audit invariants.
    pub variants: Vec<u32>,
    /// Provider nodes per run (two endpoint nodes are appended).
    pub providers: usize,
    /// Simulated horizon per run, seconds; fault times land inside it.
    pub horizon_secs: f64,
}

impl Default for ChaosConfig {
    fn default() -> Self {
        ChaosConfig {
            seeds: (1..=8).collect(),
            profiles: FaultProfile::ALL.to_vec(),
            composers: ComposerKind::ALL.to_vec(),
            variants: vec![1, 8],
            providers: 6,
            horizon_secs: 20.0,
        }
    }
}

impl ChaosConfig {
    /// CI-sized matrix: 5 seeds × all 4 profiles × all 3 composers.
    pub fn quick() -> Self {
        ChaosConfig {
            seeds: (1..=5).collect(),
            ..Default::default()
        }
    }

    /// Number of runs in the matrix.
    pub fn runs(&self) -> usize {
        self.seeds.len() * self.profiles.len() * self.composers.len() * self.variants.len()
    }
}

/// Outcome of one audited chaos run.
#[derive(Clone, Debug)]
pub struct ChaosRun {
    /// Seed of this run.
    pub seed: u64,
    /// Fault profile the plan was generated from.
    pub profile: FaultProfile,
    /// Composer under test.
    pub composer: ComposerKind,
    /// Units coalesced per link transfer.
    pub batch: u32,
    /// Deterministic digest of the run's counters and audit trail.
    pub digest: u64,
    /// Total violations (retained + suppressed); 0 in a healthy run.
    pub violations: u64,
    /// First few violation messages, for diagnostics.
    pub messages: Vec<String>,
    /// Mid-run audit checkpoints performed.
    pub checkpoints: u64,
}

/// Aggregated matrix result.
#[derive(Clone, Debug)]
pub struct ChaosSummary {
    /// One entry per (seed, profile, composer) cell, in job order.
    pub runs: Vec<ChaosRun>,
    /// Matrix digest: FNV-1a over every run's digest in job order.
    pub digest: u64,
    /// Sum of violations across the matrix.
    pub violations: u64,
}

impl ChaosSummary {
    /// Whether the whole matrix finished without a single violation.
    pub fn clean(&self) -> bool {
        self.violations == 0
    }
}

/// Builds the audited engine for one cell: `providers` nodes offering
/// both services behind modest NICs (so faults bite), two endpoints,
/// checkpointing auditor, and the generated fault plan.
fn build_engine(
    cfg: &ChaosConfig,
    seed: u64,
    composer: ComposerKind,
    batch: u32,
    plan: FaultPlan,
) -> Engine {
    let nodes = cfg.providers + 2;
    let catalog = ServiceCatalog::synthetic(2, seed);
    let mut b = TopologyBuilder::new().default_latency(SimDuration::from_millis(15));
    for _ in 0..nodes {
        b.node(kbps(2_000.0), kbps(2_000.0));
    }
    let mut offers = vec![vec![0, 1]; cfg.providers];
    offers.push(vec![]);
    offers.push(vec![]);
    Engine::builder(nodes, catalog, seed)
        .topology(b.build())
        .offers(offers)
        .config(EngineConfig {
            composer,
            transfer_batch: batch,
            audit: true,
            audit_period_secs: 1.0,
            ..Default::default()
        })
        .faults(plan)
        .build()
}

/// One audited run: a mixed workload (finite lifetimes, an open-ended
/// stream, and an over-sized rejection exercising audited rollback)
/// submitted while the fault plan fires, then quiesced and torn down
/// under the auditor's final check.
fn run_cell(
    cfg: &ChaosConfig,
    seed: u64,
    profile: FaultProfile,
    composer: ComposerKind,
    batch: u32,
) -> ChaosRun {
    let candidates: Vec<usize> = (0..cfg.providers).collect();
    let plan = FaultPlan::generate(profile, seed, &candidates, cfg.horizon_secs);
    let mut e = build_engine(cfg, seed, composer, batch, plan);
    let src = cfg.providers;
    let dst = cfg.providers + 1;
    let _ = e.submit(
        ServiceRequest::chain(&[0, 1], 20.0, src, dst)
            .with_lifetime(SimDuration::from_secs_f64(0.7 * cfg.horizon_secs)),
    );
    let _ = e.submit(ServiceRequest::chain(&[0], 15.0, src, dst));
    e.run_for_secs(0.1 * cfg.horizon_secs);
    let _ = e.submit(
        ServiceRequest::chain(&[1, 0], 12.0, src, dst)
            .with_lifetime(SimDuration::from_secs_f64(0.5 * cfg.horizon_secs)),
    );
    // Far beyond any NIC: must be rejected, with the rollback audited.
    let rejected = e.submit(ServiceRequest::chain(&[0, 1], 5_000.0, src, dst));
    debug_assert!(rejected.is_err());
    e.run_for_secs(0.9 * cfg.horizon_secs);
    let audit = e.finish_run();
    ChaosRun {
        seed,
        profile,
        composer,
        batch,
        digest: e.run_digest(),
        violations: audit.violation_count(),
        messages: audit.violations,
        checkpoints: audit.checkpoints,
    }
}

/// Runs the matrix on `threads` workers. Job order — and therefore the
/// matrix digest — is fixed by the config axes, not by scheduling.
pub fn chaos_soak_threads(cfg: &ChaosConfig, threads: usize) -> ChaosSummary {
    let mut jobs = Vec::with_capacity(cfg.runs());
    for &seed in &cfg.seeds {
        for &profile in &cfg.profiles {
            for &composer in &cfg.composers {
                for &batch in &cfg.variants {
                    jobs.push((seed, profile, composer, batch));
                }
            }
        }
    }
    let runs = desim::pool::parallel_map_threads(
        threads,
        &jobs,
        |_, &(seed, profile, composer, batch)| run_cell(cfg, seed, profile, composer, batch),
    );
    let digest = fnv1a64(runs.iter().map(|r| r.digest));
    let violations = runs.iter().map(|r| r.violations).sum();
    ChaosSummary {
        runs,
        digest,
        violations,
    }
}

/// Runs the matrix on the default worker count (`RASC_THREADS` honored).
pub fn chaos_soak(cfg: &ChaosConfig) -> ChaosSummary {
    chaos_soak_threads(cfg, desim::pool::default_threads())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> ChaosConfig {
        ChaosConfig {
            seeds: vec![4, 5],
            profiles: vec![FaultProfile::Mixed],
            composers: vec![ComposerKind::MinCost, ComposerKind::Greedy],
            variants: vec![1],
            horizon_secs: 12.0,
            ..Default::default()
        }
    }

    #[test]
    fn tiny_matrix_is_clean_and_deterministic() {
        let cfg = tiny();
        let a = chaos_soak_threads(&cfg, 1);
        assert!(a.clean(), "{:#?}", a.runs);
        assert_eq!(a.runs.len(), cfg.runs());
        assert!(a.runs.iter().all(|r| r.checkpoints > 0));
        let b = chaos_soak_threads(&cfg, 2);
        assert_eq!(a.digest, b.digest, "digest depends on worker count");
    }

    #[test]
    fn batched_variant_passes_audit() {
        let cfg = ChaosConfig {
            seeds: vec![6],
            profiles: vec![FaultProfile::Mixed],
            composers: vec![ComposerKind::MinCost],
            variants: vec![8],
            horizon_secs: 12.0,
            ..Default::default()
        };
        let s = chaos_soak_threads(&cfg, 1);
        assert!(s.clean(), "{:#?}", s.runs);
        assert!(s.runs.iter().all(|r| r.checkpoints > 0));
    }
}
