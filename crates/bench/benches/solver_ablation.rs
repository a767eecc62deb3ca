//! Table A (ours): min-cost flow solver ablation on composition-shaped
//! layered graphs — SPFA-SSP vs Dijkstra-SSP vs Dial's bucket-queue SSP
//! vs network simplex, plus the retained warm-started solver (see
//! `rasc_bench::instances::layered`).

use mincostflow::{min_cost_flow, Algorithm, FlowNetwork, FlowSolver};
use rasc_bench::instances::{layered, layered_into};
use rasc_bench::microbench::{bench, black_box};

fn main() {
    for &(layers, width) in &[(3usize, 8usize), (5, 16), (6, 24)] {
        for (name, alg) in [
            ("spfa", Algorithm::SpfaSsp),
            ("dijkstra", Algorithm::DijkstraSsp),
            ("dial", Algorithm::DialSsp),
            ("simplex", Algorithm::NetworkSimplex),
        ] {
            let (mut net, src, dst, target) = layered(layers, width, 42);
            let m = bench(&format!("solver_ablation/{name}/{layers}x{width}"), || {
                net.reset_flow();
                let sol =
                    min_cost_flow(&mut net, src, dst, target, alg).expect("feasible instance");
                black_box(sol.cost);
            });
            println!("{}", m.line());
        }
        for (name, alg) in [
            ("dijkstra", Algorithm::DijkstraSsp),
            ("dial", Algorithm::DialSsp),
        ] {
            let mut solver = FlowSolver::new(alg);
            let mut net = FlowNetwork::new(0);
            let m = bench(
                &format!("solver_ablation_warm/{name}/{layers}x{width}"),
                || {
                    let (src, dst, target) = layered_into(&mut net, layers, width, 42);
                    let sol = solver
                        .solve(&mut net, src, dst, target)
                        .expect("feasible instance");
                    black_box(sol.cost);
                },
            );
            println!("{}", m.line());
        }
    }
}
