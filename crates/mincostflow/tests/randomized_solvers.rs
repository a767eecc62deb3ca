//! Seeded randomized tests: the solvers must agree with each other and
//! every solution must pass the independent validator (feasibility +
//! optimality). Instances are generated from `desim::SimRng`, so every
//! case reproduces from the case number in the assertion message.

use desim::SimRng;
use mincostflow::{dinic_max_flow, min_cost_flow, validate, Algorithm, FlowNetwork, FlowSolver};

/// A randomly generated problem instance.
#[derive(Clone, Debug)]
struct Instance {
    n: usize,
    edges: Vec<(usize, usize, i64, i64)>, // (from, to, cap, cost)
    target: i64,
}

/// Arbitrary-topology instance with non-negative costs.
fn random_instance(rng: &mut SimRng, max_nodes: usize) -> Instance {
    let n = rng.range_usize(2, max_nodes + 1);
    let m = rng.range_usize(1, 3 * n + 1);
    let edges = (0..m)
        .map(|_| {
            (
                rng.range_usize(0, n),
                rng.range_usize(0, n),
                rng.range_u64(1, 16) as i64,
                rng.range_u64(0, 21) as i64,
            )
        })
        .collect();
    Instance {
        n,
        edges,
        target: rng.range_u64(0, 26) as i64,
    }
}

/// Negative costs are only legal without negative cycles; generate DAGs
/// (edges strictly ascending in node index) so any cost sign is safe.
/// RASC's composition graphs are layered DAGs, so this matches real use.
fn random_dag_instance(rng: &mut SimRng, max_nodes: usize) -> Instance {
    let n = rng.range_usize(3, max_nodes + 1);
    let m = rng.range_usize(1, 3 * n + 1);
    let edges = (0..m)
        .map(|_| {
            let from = rng.range_usize(0, n - 1);
            let to = rng.range_usize(from + 1, n);
            let cap = rng.range_u64(1, 16) as i64;
            let cost = rng.range_u64(0, 31) as i64 - 10;
            (from, to, cap, cost)
        })
        .collect();
    Instance {
        n,
        edges,
        target: rng.range_u64(0, 26) as i64,
    }
}

fn build(inst: &Instance) -> FlowNetwork {
    let mut net = FlowNetwork::new(inst.n);
    for &(from, to, cap, cost) in &inst.edges {
        // Self-loops are legal but useless; skip negative-cost self-loops,
        // which make the *problem* unbounded-cost-improvable only via the
        // loop itself. (RASC composition graphs are DAGs; we still allow
        // arbitrary topologies here apart from that degenerate case.)
        if from == to && cost < 0 {
            continue;
        }
        net.add_edge(from, to, cap, cost);
    }
    net
}

/// SPFA-SSP and Dijkstra-SSP agree exactly, and both pass validation,
/// on graphs with non-negative costs.
#[test]
fn ssp_variants_agree_and_validate() {
    let mut rng = SimRng::new(0x50F7);
    for case in 0..256u32 {
        let inst = random_instance(&mut rng, 8);
        let sink = inst.n - 1;
        let mut a = build(&inst);
        let mut b = build(&inst);
        let ra = min_cost_flow(&mut a, 0, sink, inst.target, Algorithm::SpfaSsp);
        let rb = min_cost_flow(&mut b, 0, sink, inst.target, Algorithm::DijkstraSsp);
        match (ra, rb) {
            (Ok(x), Ok(y)) => {
                assert_eq!(x, y, "case {case}");
                assert!(
                    validate::check_flow(&a, 0, sink, x.flow).is_empty(),
                    "case {case}"
                );
                assert_eq!(validate::check_optimality(&a), Ok(()), "case {case}");
                assert_eq!(validate::check_optimality(&b), Ok(()), "case {case}");
            }
            (Err(x), Err(y)) => {
                assert_eq!(x.max_flow, y.max_flow, "case {case}");
                assert_eq!(x.cost, y.cost, "case {case}");
                // Partial flow must still be valid and optimal for its value.
                assert!(
                    validate::check_flow(&a, 0, sink, x.max_flow).is_empty(),
                    "case {case}"
                );
                assert_eq!(validate::check_optimality(&a), Ok(()), "case {case}");
            }
            other => panic!("case {case}: variant disagreement: {other:?}"),
        }
    }
}

/// Network simplex agrees with SSP on arbitrary instances, and its
/// flows pass independent validation.
#[test]
fn simplex_agrees_with_ssp() {
    let mut rng = SimRng::new(0x5CA1);
    for case in 0..256u32 {
        let inst = random_instance(&mut rng, 7);
        let sink = inst.n - 1;
        let mut a = build(&inst);
        let ra = min_cost_flow(&mut a, 0, sink, inst.target, Algorithm::DijkstraSsp);
        let mut b = build(&inst);
        let rb = min_cost_flow(&mut b, 0, sink, inst.target, Algorithm::NetworkSimplex);
        match (&ra, &rb) {
            (Ok(x), Ok(y)) => {
                assert_eq!(x, y, "case {case}");
                assert!(
                    validate::check_flow(&b, 0, sink, y.flow).is_empty(),
                    "case {case}"
                );
                assert_eq!(validate::check_optimality(&b), Ok(()), "case {case}");
            }
            (Err(x), Err(y)) => {
                assert_eq!(x.max_flow, y.max_flow, "case {case}");
                assert_eq!(x.cost, y.cost, "case {case}");
            }
            other => panic!("case {case}: solver disagreement: {other:?}"),
        }
    }
}

/// SSP handles negative arc costs; validated against the optimality
/// oracle (no negative residual cycle).
#[test]
fn negative_costs_validate() {
    let mut rng = SimRng::new(0xDA6);
    for case in 0..256u32 {
        let inst = random_dag_instance(&mut rng, 6);
        let sink = inst.n - 1;
        let mut a = build(&inst);
        let r = min_cost_flow(&mut a, 0, sink, inst.target, Algorithm::SpfaSsp);
        let value = match r {
            Ok(s) => s.flow,
            Err(e) => e.max_flow,
        };
        assert!(
            validate::check_flow(&a, 0, sink, value).is_empty(),
            "case {case}"
        );
        // Note: with negative arcs the min-cost *flow of value v* criterion
        // still demands no negative residual cycle.
        assert_eq!(validate::check_optimality(&a), Ok(()), "case {case}");
    }
}

/// The flow value reported on infeasibility equals Dinic's max flow.
#[test]
fn infeasible_max_matches_dinic() {
    let mut rng = SimRng::new(0xD1C);
    for case in 0..256u32 {
        let inst = random_instance(&mut rng, 8);
        let sink = inst.n - 1;
        let mut a = build(&inst);
        let mut b = build(&inst);
        let max = dinic_max_flow(&mut b, 0, sink, i64::MAX);
        match min_cost_flow(&mut a, 0, sink, inst.target, Algorithm::DijkstraSsp) {
            Ok(sol) => assert!(sol.flow <= max, "case {case}"),
            Err(err) => assert_eq!(err.max_flow, max, "case {case}"),
        }
    }
}

/// Solving twice after reset gives identical results (reset is sound).
#[test]
fn reset_allows_resolve() {
    let mut rng = SimRng::new(0x2E5E7);
    for case in 0..256u32 {
        let inst = random_instance(&mut rng, 6);
        let sink = inst.n - 1;
        let mut net = build(&inst);
        let r1 = min_cost_flow(&mut net, 0, sink, inst.target, Algorithm::DijkstraSsp);
        net.reset_flow();
        assert_eq!(net.total_cost(), 0, "case {case}");
        let r2 = min_cost_flow(&mut net, 0, sink, inst.target, Algorithm::DijkstraSsp);
        match (r1, r2) {
            (Ok(x), Ok(y)) => assert_eq!(x, y, "case {case}"),
            (Err(x), Err(y)) => {
                assert_eq!(x.max_flow, y.max_flow, "case {case}");
                assert_eq!(x.cost, y.cost, "case {case}");
            }
            other => panic!("case {case}: reset changed outcome: {other:?}"),
        }
    }
}

/// The arena-reuse path: building a fresh instance inside a reused
/// network (`reset(n)` + re-add edges) solves identically to a network
/// built from scratch.
#[test]
fn arena_reuse_matches_fresh_build() {
    let mut rng = SimRng::new(0xA2E4A);
    let mut arena = FlowNetwork::new(0);
    for case in 0..128u32 {
        let inst = random_instance(&mut rng, 8);
        let sink = inst.n - 1;
        arena.reset(inst.n);
        for &(from, to, cap, cost) in &inst.edges {
            if from == to && cost < 0 {
                continue;
            }
            arena.add_edge(from, to, cap, cost);
        }
        let mut fresh = build(&inst);
        let ra = min_cost_flow(&mut arena, 0, sink, inst.target, Algorithm::DijkstraSsp);
        let rb = min_cost_flow(&mut fresh, 0, sink, inst.target, Algorithm::DijkstraSsp);
        match (ra, rb) {
            (Ok(x), Ok(y)) => assert_eq!(x, y, "case {case}"),
            (Err(x), Err(y)) => {
                assert_eq!(x.max_flow, y.max_flow, "case {case}");
                assert_eq!(x.cost, y.cost, "case {case}");
            }
            other => panic!("case {case}: arena changed outcome: {other:?}"),
        }
    }
}

/// Warm-start equivalence: a retained [`FlowSolver`] solving a sequence
/// of instances on one reused arena — carrying its potential snapshot
/// from solve to solve — must report bit-identical `(flow, cost)` to a
/// fresh single-shot solve of each instance, for every algorithm.
/// (Min-cost flow of a given value has a unique cost, so `(flow, cost)`
/// equality is the right oracle even when the flow assignment differs.)
#[test]
fn warm_start_matches_fresh_solves() {
    for alg in [
        Algorithm::SpfaSsp,
        Algorithm::DijkstraSsp,
        Algorithm::DialSsp,
        Algorithm::NetworkSimplex,
    ] {
        let mut rng = SimRng::new(0x3A21);
        let mut solver = FlowSolver::new(alg);
        let mut arena = FlowNetwork::new(0);
        for case in 0..128u32 {
            let inst = random_instance(&mut rng, 8);
            let sink = inst.n - 1;
            arena.reset(inst.n);
            for &(from, to, cap, cost) in &inst.edges {
                if from == to && cost < 0 {
                    continue;
                }
                arena.add_edge(from, to, cap, cost);
            }
            let warm = solver.solve(&mut arena, 0, sink, inst.target);
            let mut fresh = build(&inst);
            let cold = min_cost_flow(&mut fresh, 0, sink, inst.target, alg);
            match (warm, cold) {
                (Ok(x), Ok(y)) => assert_eq!(x, y, "case {case}: {alg:?}"),
                (Err(x), Err(y)) => {
                    assert_eq!(x.max_flow, y.max_flow, "case {case}: {alg:?}");
                    assert_eq!(x.cost, y.cost, "case {case}: {alg:?}");
                }
                other => panic!("case {case}: warm start changed outcome ({alg:?}): {other:?}"),
            }
        }
    }
}

/// Warm starts must also be safe across *unrelated* graphs: interleave
/// solves of structurally different instances (sizes 2..=12) through one
/// retained solver and check each against a fresh solve.
#[test]
fn warm_start_survives_unrelated_graphs() {
    let mut rng = SimRng::new(0x77A2);
    let mut solver = FlowSolver::default();
    let mut arena = FlowNetwork::new(0);
    for case in 0..128u32 {
        let inst = random_instance(&mut rng, 12);
        let sink = inst.n - 1;
        arena.reset(inst.n);
        for &(from, to, cap, cost) in &inst.edges {
            if from == to && cost < 0 {
                continue;
            }
            arena.add_edge(from, to, cap, cost);
        }
        let warm = solver.solve(&mut arena, 0, sink, inst.target);
        let mut fresh = build(&inst);
        let cold = min_cost_flow(&mut fresh, 0, sink, inst.target, Algorithm::default());
        match (warm, cold) {
            (Ok(x), Ok(y)) => assert_eq!(x, y, "case {case}"),
            (Err(x), Err(y)) => {
                assert_eq!(x.max_flow, y.max_flow, "case {case}");
                assert_eq!(x.cost, y.cost, "case {case}");
            }
            other => panic!("case {case}: warm start changed outcome: {other:?}"),
        }
    }
}
