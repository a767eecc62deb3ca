//! Randomized equivalence suite for incremental repair: after any
//! sequence of edge deletions and rate changes, a completed repair must
//! leave a flow whose `(value, cost)` is bit-identical to a cold
//! re-solve of the damaged network — min-cost flow of a given value has
//! a unique cost, so cost equality is the exact oracle even when the
//! flow assignment differs. A repair shortfall must coincide with the
//! cold solve being infeasible (the path-decomposition argument: any
//! feasible completion of the pseudo-flow would contain an
//! excess-to-deficit path in the residual network).

use desim::SimRng;
use mincostflow::{
    min_cost_flow, validate, Algorithm, EdgeId, FlowNetwork, FlowSolver, RepairTier,
};

#[derive(Clone, Debug)]
struct Instance {
    n: usize,
    edges: Vec<(usize, usize, i64, i64)>,
    target: i64,
}

/// Layered-DAG-ish random instance with non-negative costs (matching the
/// composer's graphs; arbitrary topology is covered in the unit tests).
fn random_instance(rng: &mut SimRng, max_nodes: usize) -> Instance {
    let n = rng.range_usize(3, max_nodes + 1);
    let m = rng.range_usize(2, 4 * n + 1);
    let edges = (0..m)
        .map(|_| {
            let from = rng.range_usize(0, n - 1);
            let to = rng.range_usize(from + 1, n);
            (
                from,
                to,
                rng.range_u64(1, 20) as i64,
                rng.range_u64(0, 25) as i64,
            )
        })
        .collect();
    Instance {
        n,
        edges,
        target: rng.range_u64(1, 31) as i64,
    }
}

fn build(inst: &Instance) -> FlowNetwork {
    let mut net = FlowNetwork::new(inst.n);
    for &(from, to, cap, cost) in &inst.edges {
        net.add_edge(from, to, cap, cost);
    }
    net
}

/// Clones the damaged topology (disabled edges come back with zero
/// capacity) into a fresh network for the cold-solve oracle.
fn clone_damaged(net: &FlowNetwork) -> FlowNetwork {
    let mut cold = FlowNetwork::new(net.num_nodes());
    for e in net.edges() {
        let (u, v) = net.endpoints(e);
        cold.add_edge(u, v, net.capacity(e), net.cost(e));
    }
    cold
}

fn random_edge(net: &FlowNetwork, rng: &mut SimRng) -> EdgeId {
    let k = rng.range_usize(0, net.num_edges());
    net.edges().nth(k).expect("edge index in range")
}

fn installed_value(r: Result<mincostflow::Solution, mincostflow::Infeasible>) -> i64 {
    match r {
        Ok(s) => s.flow,
        Err(e) => e.max_flow,
    }
}

const ALGS: [Algorithm; 3] = [
    Algorithm::DijkstraSsp,
    Algorithm::DialSsp,
    Algorithm::NetworkSimplex, // no carried potentials: exercises SPFA repair
];

/// Crash repair: delete a random edge from a solved instance and repair.
#[test]
fn deletion_repair_matches_cold_resolve() {
    for alg in ALGS {
        let mut rng = SimRng::new(0x2E9A1);
        for case in 0..256u32 {
            let inst = random_instance(&mut rng, 10);
            let sink = inst.n - 1;
            let mut net = build(&inst);
            let mut solver = FlowSolver::new(alg);
            let value = installed_value(solver.solve(&mut net, 0, sink, inst.target));
            if value == 0 {
                continue;
            }
            let dead = random_edge(&net, &mut rng);
            let out = solver.repair_deletions(&mut net, &[dead]);
            let mut cold = clone_damaged(&net);
            let want = min_cost_flow(&mut cold, 0, sink, value, Algorithm::SpfaSsp);
            if out.complete() {
                let want = want.unwrap_or_else(|e| {
                    panic!("case {case} ({alg:?}): repair ok but cold infeasible: {e}")
                });
                assert_eq!(net.total_cost(), want.cost, "case {case} ({alg:?})");
                assert!(
                    validate::check_flow(&net, 0, sink, value).is_empty(),
                    "case {case} ({alg:?})"
                );
                assert_eq!(
                    validate::check_optimality(&net),
                    Ok(()),
                    "case {case} ({alg:?})"
                );
            } else {
                assert!(
                    want.is_err(),
                    "case {case} ({alg:?}): repair shortfall {} but cold solve feasible",
                    out.shortfall
                );
            }
        }
    }
}

/// Rate bumps: raising the routed value incrementally must match a cold
/// solve at the higher target; on shortfall the totals must agree with
/// the cold infeasibility report exactly.
#[test]
fn rate_increase_matches_cold_resolve() {
    for alg in ALGS {
        let mut rng = SimRng::new(0xB0B5);
        for case in 0..256u32 {
            let inst = random_instance(&mut rng, 10);
            let sink = inst.n - 1;
            let mut net = build(&inst);
            let mut solver = FlowSolver::new(alg);
            let value = installed_value(solver.solve(&mut net, 0, sink, inst.target));
            let delta = rng.range_u64(1, 9) as i64;
            let out = solver.increase_flow(&mut net, 0, sink, delta);
            let mut cold = build(&inst);
            let want = min_cost_flow(&mut cold, 0, sink, value + delta, Algorithm::SpfaSsp);
            match want {
                Ok(w) => {
                    assert!(out.complete(), "case {case} ({alg:?}): {out:?}");
                    assert_eq!(net.total_cost(), w.cost, "case {case} ({alg:?})");
                }
                Err(e) => {
                    // SSP continues from the installed max: the reachable
                    // value is the true max flow, bit-exactly.
                    assert_eq!(
                        value + out.routed,
                        e.max_flow,
                        "case {case} ({alg:?}): {out:?}"
                    );
                    assert_eq!(net.total_cost(), e.cost, "case {case} ({alg:?})");
                }
            }
            assert_eq!(
                validate::check_optimality(&net),
                Ok(()),
                "case {case} ({alg:?})"
            );
        }
    }
}

/// Rate drops always complete (cancelling routed paths is always
/// possible) and match a cold solve at the lower target.
#[test]
fn rate_decrease_matches_cold_resolve() {
    for alg in ALGS {
        let mut rng = SimRng::new(0xD0D0);
        for case in 0..256u32 {
            let inst = random_instance(&mut rng, 10);
            let sink = inst.n - 1;
            let mut net = build(&inst);
            let mut solver = FlowSolver::new(alg);
            let value = installed_value(solver.solve(&mut net, 0, sink, inst.target));
            if value == 0 {
                continue;
            }
            let delta = rng.range_u64(1, value as u64 + 1) as i64;
            let out = solver.decrease_flow(&mut net, 0, sink, delta);
            assert!(out.complete(), "case {case} ({alg:?}): {out:?}");
            let mut cold = build(&inst);
            let want = min_cost_flow(&mut cold, 0, sink, value - delta, Algorithm::SpfaSsp)
                .expect("lower target must stay feasible");
            assert_eq!(net.total_cost(), want.cost, "case {case} ({alg:?})");
            assert!(
                validate::check_flow(&net, 0, sink, value - delta).is_empty(),
                "case {case} ({alg:?})"
            );
        }
    }
}

fn flows(net: &FlowNetwork) -> Vec<i64> {
    net.edges().map(|e| net.flow_on(e)).collect()
}

/// Retained copies: the composer keeps `clone_arcs()` + `clone_for_repair()`
/// of every solved substream instead of full clones. Both kinds of copy,
/// repaired through the same rounds of deletions, must report equal
/// outcomes — every `RepairOutcome` field, the tier included — and leave
/// equal flow on every edge. The SSP repair tiers rebuild the CSR index
/// on entry, so after them the two networks must be equal field for
/// field, flags included.
#[test]
fn slim_retained_copies_repair_like_full_clones() {
    for alg in [Algorithm::DialSsp, Algorithm::NetworkSimplex] {
        let mut rng = SimRng::new(0x5113);
        let mut warm_repairs = 0u32;
        for case in 0..256u32 {
            let inst = random_instance(&mut rng, 12);
            let sink = inst.n - 1;
            let mut net = build(&inst);
            let mut solver = FlowSolver::new(alg);
            if installed_value(solver.solve(&mut net, 0, sink, inst.target)) == 0 {
                continue;
            }
            let (mut full_net, mut full) = (net.clone(), solver.clone());
            let (mut slim_net, mut slim) = (net.clone_arcs(), solver.clone_for_repair());
            for round in 0..4u32 {
                let dead: Vec<EdgeId> = (0..rng.range_usize(1, 3))
                    .map(|_| random_edge(&net, &mut rng))
                    .collect();
                let want = full.repair_deletions(&mut full_net, &dead);
                let got = slim.repair_deletions(&mut slim_net, &dead);
                assert_eq!(got, want, "case {case} round {round} ({alg:?})");
                assert_eq!(
                    flows(&slim_net),
                    flows(&full_net),
                    "case {case} round {round} ({alg:?})"
                );
                if want.tier != RepairTier::WarmBasis {
                    assert_eq!(
                        format!("{slim_net:?}"),
                        format!("{full_net:?}"),
                        "case {case} round {round} ({alg:?})"
                    );
                }
                warm_repairs += u32::from(want.warm);
                if !want.complete() {
                    break; // the engine drops an entry whose repair fell short
                }
            }
        }
        // The warm tiers are what the retained state exists for; the
        // comparison must exercise them, not only the SPFA fallback.
        assert!(warm_repairs > 100, "{alg:?}: {warm_repairs} warm repairs");
    }
}

/// Adaptation churn: interleave deletions, bumps, and drops against one
/// retained solver, falling back to a cold solve whenever a repair
/// reports a shortfall — exactly the engine's policy — and check the
/// running cost against the oracle after every event.
#[test]
fn mixed_event_sequences_stay_optimal() {
    let mut rng = SimRng::new(0xC4A05);
    for case in 0..64u32 {
        let inst = random_instance(&mut rng, 12);
        let sink = inst.n - 1;
        let mut net = build(&inst);
        let mut solver = FlowSolver::default();
        let mut value = installed_value(solver.solve(&mut net, 0, sink, inst.target));
        for step in 0..8u32 {
            match rng.range_u64(0, 3) {
                0 => {
                    let dead = random_edge(&net, &mut rng);
                    let out = solver.repair_deletions(&mut net, &[dead]);
                    if !out.complete() {
                        // Engine fallback: cold re-solve of the damaged
                        // network at the best still-feasible value.
                        net.reset_flow();
                        solver.forget();
                        value = installed_value(solver.solve(&mut net, 0, sink, value));
                    }
                }
                1 => {
                    let delta = rng.range_u64(1, 6) as i64;
                    let out = solver.increase_flow(&mut net, 0, sink, delta);
                    value += out.routed;
                }
                _ => {
                    let delta = rng.range_u64(0, value.max(1) as u64) as i64;
                    let out = solver.decrease_flow(&mut net, 0, sink, delta);
                    assert!(out.complete(), "case {case} step {step}: {out:?}");
                    value -= delta;
                }
            }
            let mut cold = clone_damaged(&net);
            let want = min_cost_flow(&mut cold, 0, sink, value, Algorithm::SpfaSsp)
                .unwrap_or_else(|e| panic!("case {case} step {step}: oracle infeasible: {e}"));
            assert_eq!(net.total_cost(), want.cost, "case {case} step {step}");
            assert!(
                validate::check_flow(&net, 0, sink, value).is_empty(),
                "case {case} step {step}"
            );
        }
    }
}
