//! Regenerates the paper's evaluation (Figures 6–11) plus the ablation
//! tables documented in DESIGN.md.
//!
//! ```text
//! repro all                  # every figure, full sweep
//! repro fig6 … fig11         # a single figure
//! repro ablation-sched       # LLF vs EDF vs FIFO
//! repro ablation-split       # splitting on vs off (single-placement mincost)
//! repro load-matched         # quality at equal admitted load
//! repro ablation-cpu         # multiple resource constraints (paper's future work)
//! repro quick                # scaled-down smoke sweep
//! repro bench                # microbenchmarks -> BENCH_compose.json
//! repro chaos [--quick]      # audited fault-injection soak matrix
//! ```

use rasc_bench::{paper_sweep, render_figure, Figure, SweepConfig};
use rasc_core::compose::ComposerKind;
use rasc_core::engine::EngineConfig;
use sched::Policy;
use std::alloc::{GlobalAlloc, Layout, System};
use workload::{run_experiment_with, PaperSetup};

/// Counting allocator: lets `repro bench` assert that the steady-state
/// solver path (arena rebuild + warm solve) is allocation-free. Only
/// allocations are counted; frees pass straight through.
struct CountingAlloc;

// SAFETY: defers every operation to `System`; the counter update has no
// safety obligations.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // Read-only check on the fast path: a shared read keeps the
        // cache line in every core; the write-side `fetch_add` only runs
        // inside `count_allocations` sections.
        if rasc_bench::microbench::ALLOC_COUNT_ENABLED.load(std::sync::atomic::Ordering::Relaxed) {
            rasc_bench::microbench::ALLOC_COUNT.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        }
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        if rasc_bench::microbench::ALLOC_COUNT_ENABLED.load(std::sync::atomic::Ordering::Relaxed) {
            rasc_bench::microbench::ALLOC_COUNT.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        }
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mode = args.first().map(String::as_str).unwrap_or("all");
    match mode {
        "all" => {
            let cells = paper_sweep(&SweepConfig::default());
            for fig in Figure::ALL {
                println!("{}", render_figure(fig, &cells));
            }
            summarize(&cells);
        }
        "quick" => {
            let cfg = SweepConfig {
                setup: PaperSetup {
                    requests: 40,
                    submit_window_secs: 20.0,
                    measure_secs: 60.0,
                    ..PaperSetup::default()
                },
                seeds: vec![1, 2],
                ..Default::default()
            };
            let cells = paper_sweep(&cfg);
            for fig in Figure::ALL {
                println!("{}", render_figure(fig, &cells));
            }
            summarize(&cells);
        }
        "load-matched" => load_matched(),
        "ablation-cpu" => ablation_cpu(),
        "ablation-sched" => ablation_sched(),
        "ablation-split" => ablation_split(),
        "bench" => {
            let filter = args
                .windows(2)
                .find(|w| w[0] == "--filter")
                .map(|w| w[1].clone());
            bench_suite(args.iter().any(|a| a == "--quick"), filter.as_deref())
        }
        "chaos" => chaos_soak_cmd(args.iter().any(|a| a == "--quick")),
        name => match Figure::from_arg(name) {
            Some(fig) => {
                let cells = paper_sweep(&SweepConfig::default());
                println!("{}", render_figure(fig, &cells));
            }
            None => {
                eprintln!(
                    "unknown mode {name}; use all | quick | fig6..fig11 | \
                     load-matched | ablation-cpu | ablation-sched | ablation-split | \
                     bench [--quick] [--filter <substr>] | chaos [--quick]"
                );
                std::process::exit(2);
            }
        },
    }
}

/// Microbenchmark suite: compose-path and solver-kernel timings plus
/// serial-vs-parallel sweep wall times, written to `BENCH_compose.json`.
///
/// The `*_clone_baseline` entries re-add the seed implementation's
/// per-compose whole-view `clone()` + restore around the optimized
/// composer, so the rollback optimization stays measurable against its
/// pre-optimization cost in every future run of this suite. (They
/// under-count the seed, which also rebuilt a fresh flow network per
/// substream; the reported ratio is conservative.)
///
/// `quick` shrinks per-sample budgets and the sweep (fixed seeds, a few
/// requests) for CI smoke runs — results are printed but NOT written to
/// `BENCH_compose.json`, so the committed numbers stay full-fidelity.
///
/// `filter` (from `repro bench --filter <substr>`) selects one family:
/// only sections whose family name overlaps the filter run, and only
/// entries whose name contains the filter print. Filtered runs skip
/// the cross-family summary and never write `BENCH_compose.json`.
fn bench_suite(quick: bool, filter: Option<&str>) {
    use mincostflow::{FlowNetwork, FlowSolver};
    use rasc_bench::instances::{compose_setup, compose_setup_saturated, layered, layered_into};
    use rasc_bench::microbench::{
        bench_or_smoke as time, black_box, count_allocations, record_ratio, record_value,
        record_wall, render_json, Measurement,
    };
    use std::time::{Duration, Instant};

    let mut results = Vec::new();
    // Family gate for `--filter`: a section runs when no filter is set
    // or when the filter and the section's family overlap as substrings
    // (so `--filter admission/select` still runs the admission family).
    let want = |family: &str| match filter {
        None => true,
        Some(f) => f.contains(family) || family.contains(f),
    };

    // --- Composition hot path (32-node, 10-service view) -------------
    let n = 32;
    if want("compose") {
        // Steady-state rejection: every candidate saturated, the request
        // bounces and the view must come back untouched.
        let (catalog, mut view, providers, req) = compose_setup_saturated(n);
        let mut composer = ComposerKind::MinCost.build();
        let mut rng = desim::SimRng::new(9);
        results.push(time(
            quick,
            &format!("compose_reject_rollback/mincost/{n}"),
            || {
                let r = composer.compose(&req, &catalog, &providers, &mut view, &mut rng);
                debug_assert!(r.is_err());
                black_box(r.is_err());
            },
        ));
        results.push(time(
            quick,
            &format!("compose_reject_rollback_clone_baseline/mincost/{n}"),
            || {
                let backup = view.clone();
                let r = composer.compose(&req, &catalog, &providers, &mut view, &mut rng);
                debug_assert!(r.is_err());
                view = backup;
                black_box(r.is_err());
            },
        ));
    }
    if want("compose") {
        for kind in ComposerKind::ALL {
            // Successful compose; the per-op view clone (so capacity never
            // drains across iterations) is included in the timing, equally
            // for every algorithm.
            let (catalog, view, providers, req) = compose_setup(n);
            let mut composer = kind.build();
            let mut rng = desim::SimRng::new(9);
            results.push(time(
                quick,
                &format!("compose_ok_incl_clone/{}/{n}", kind.label()),
                || {
                    let mut v = view.clone();
                    let g = composer
                        .compose(&req, &catalog, &providers, &mut v, &mut rng)
                        .expect("feasible on a fresh view");
                    black_box(g.substreams.len());
                },
            ));
        }
    }

    // --- Solver kernels on composition-shaped layered graphs ---------
    if want("solver") {
        for &(layers, width) in &[(3usize, 8usize), (5, 16), (6, 24)] {
            for (name, alg) in [
                ("spfa", mincostflow::Algorithm::SpfaSsp),
                ("dijkstra", mincostflow::Algorithm::DijkstraSsp),
                ("dial", mincostflow::Algorithm::DialSsp),
                ("simplex", mincostflow::Algorithm::NetworkSimplex),
            ] {
                let (mut net, src, dst, target) = layered(layers, width, 42);
                results.push(time(
                    quick,
                    &format!("solver/{name}/{layers}x{width}"),
                    || {
                        net.reset_flow();
                        let sol = mincostflow::min_cost_flow(&mut net, src, dst, target, alg)
                            .expect("feasible instance");
                        black_box(sol.cost);
                    },
                ));
            }

            // Retained warm-started solver on the composer's pattern: reset
            // the arena, rebuild the instance, solve with carried potentials
            // and scratch buffers (rebuild cost included in the timing).
            for (name, alg) in [
                ("dijkstra", mincostflow::Algorithm::DijkstraSsp),
                ("dial", mincostflow::Algorithm::DialSsp),
            ] {
                let mut solver = FlowSolver::new(alg);
                let mut net = FlowNetwork::new(0);
                results.push(time(
                    quick,
                    &format!("solver_warm/{name}/{layers}x{width}"),
                    || {
                        let (src, dst, target) = layered_into(&mut net, layers, width, 42);
                        let sol = solver
                            .solve(&mut net, src, dst, target)
                            .expect("feasible instance");
                        black_box(sol.cost);
                    },
                ));
            }
        }
    }

    // --- Adaptation hot path: incremental repair vs cold re-solve -----
    // The engine's adaptation triggers (host crash, rate change) repair
    // the retained solved instance instead of re-solving from scratch.
    // Both sides pay one clone of the solved arena per op (the repair
    // side also clones the retained solver), so the ratio isolates
    // warm repair against the cold solve the old adaptation path ran.
    // Two crash victims bracket the distribution over which host fails:
    // `crash_repair` kills the MEDIAN-loaded host column — the
    // representative cost of a uniformly random crash — and
    // `crash_worst` kills the most-loaded column, which on these
    // cost-concentrated instances carries an outsized share of the flow
    // (57% at 6x24) and is repair's worst case.
    // The `basis_*` twins run the same events against a retained
    // network-simplex basis (`RepairTier::WarmBasis`, the top of the
    // repair ladder): localized re-pricing plus primal re-pivoting
    // instead of the phased primal–dual pass, against the same cold
    // baseline. The victim columns are chosen once (by the phased
    // solution's load order) so all three entries kill the same host.
    if want("adapt") {
        for &(layers, width) in &[(3usize, 8usize), (5, 16), (6, 24)] {
            use rasc_bench::instances::{layered_host_columns, victims_by_load};
            let (mut net0, src, dst, target) = layered(layers, width, 42);
            let mut solver0 = FlowSolver::new(mincostflow::Algorithm::DijkstraSsp);
            solver0
                .solve(&mut net0, src, dst, target)
                .expect("feasible instance");
            let (mut net_b0, _, _, _) = layered(layers, width, 42);
            let mut solver_b0 = FlowSolver::new(mincostflow::Algorithm::NetworkSimplex);
            solver_b0
                .solve(&mut net_b0, src, dst, target)
                .expect("feasible instance");
            let columns = layered_host_columns(&net0, width);
            let order = victims_by_load(&net0, &columns);
            for (tag, k) in [
                ("crash", order[width / 2]),
                ("crash_worst", order[width - 1]),
            ] {
                let victim = &columns[k];
                {
                    // The damaged instance must stay feasible at the old
                    // value, or both paths degenerate to their fallbacks.
                    let mut probe = net0.clone();
                    for &e in victim {
                        probe.disable_edge(e);
                    }
                    probe.reset_flow();
                    mincostflow::min_cost_flow(&mut probe, src, dst, target, Default::default())
                        .expect("crash victim leaves the instance feasible");
                }
                results.push(time(
                    quick,
                    &format!("adapt/{tag}_repair/{layers}x{width}"),
                    || {
                        let mut net = net0.clone();
                        let mut solver = solver0.clone();
                        let out = solver.repair_deletions(&mut net, victim);
                        debug_assert!(out.complete());
                        black_box(out.routed);
                    },
                ));
                results.push(time(
                    quick,
                    &format!("adapt/basis_{tag}_repair/{layers}x{width}"),
                    || {
                        let mut net = net_b0.clone();
                        let mut solver = solver_b0.clone();
                        let out = solver.repair_deletions(&mut net, victim);
                        debug_assert!(out.complete());
                        debug_assert_eq!(out.tier, mincostflow::RepairTier::WarmBasis);
                        black_box(out.routed);
                    },
                ));
                results.push(time(
                    quick,
                    &format!("adapt/{tag}_cold/{layers}x{width}"),
                    || {
                        let mut net = net0.clone();
                        for &e in victim {
                            net.disable_edge(e);
                        }
                        net.reset_flow();
                        let sol = mincostflow::min_cost_flow(
                            &mut net,
                            src,
                            dst,
                            target,
                            Default::default(),
                        )
                        .expect("feasible after crash");
                        black_box(sol.cost);
                    },
                ));
            }

            // Rate bump: the request's rate grows 5%; repair augments only
            // the delta, cold re-solves the whole instance at the new value.
            let delta = (target / 20).max(1);
            {
                let mut probe = net0.clone();
                probe.reset_flow();
                mincostflow::min_cost_flow(
                    &mut probe,
                    src,
                    dst,
                    target + delta,
                    Default::default(),
                )
                .expect("bumped rate stays feasible");
            }
            results.push(time(
                quick,
                &format!("adapt/rate_bump_repair/{layers}x{width}"),
                || {
                    let mut net = net0.clone();
                    let mut solver = solver0.clone();
                    let out = solver.increase_flow(&mut net, src, dst, delta);
                    debug_assert!(out.complete());
                    black_box(out.routed);
                },
            ));
            results.push(time(
                quick,
                &format!("adapt/basis_rate_bump_repair/{layers}x{width}"),
                || {
                    let mut net = net_b0.clone();
                    let mut solver = solver_b0.clone();
                    let out = solver.increase_flow(&mut net, src, dst, delta);
                    debug_assert!(out.complete());
                    debug_assert_eq!(out.tier, mincostflow::RepairTier::WarmBasis);
                    black_box(out.routed);
                },
            ));
            results.push(time(
                quick,
                &format!("adapt/rate_bump_cold/{layers}x{width}"),
                || {
                    let mut net = net0.clone();
                    net.reset_flow();
                    let sol = mincostflow::min_cost_flow(
                        &mut net,
                        src,
                        dst,
                        target + delta,
                        Default::default(),
                    )
                    .expect("feasible at the bumped rate");
                    black_box(sol.cost);
                },
            ));

            // Pivot count of the worst-case-host basis repair — the bound
            // behind its speedup. Tracked as a first-class entry so a
            // repair-ladder change that silently inflates the pivot work
            // (without yet collapsing wall time on a fast box) shows up in
            // the BENCH diff.
            {
                let mut net = net_b0.clone();
                let mut solver = solver_b0.clone();
                let out = solver.repair_deletions(&mut net, &columns[order[width - 1]]);
                debug_assert!(out.complete());
                results.push(record_value(
                    &format!("adapt/basis_worst_host_pivots/{layers}x{width}"),
                    out.phases as f64,
                    "pivots",
                ));
            }
        }
    }

    // Headline ratios as first-class entries: basis repair vs the cold
    // re-solve, per size and event. Reported in the `x` unit (bigger is
    // better) so the verify.sh tripwire inverts its comparison and a
    // collapse of the speedup itself — not just an absolute slowdown —
    // flags on the diff.
    if want("adapt") {
        let ns_of = |results: &[Measurement], name: &str| {
            results
                .iter()
                .find(|m| m.name == name)
                .map(|m| m.value)
                .unwrap_or(f64::NAN)
        };
        let mut ratios = Vec::new();
        for size in ["3x8", "5x16", "6x24"] {
            for event in ["crash", "crash_worst", "rate_bump"] {
                let cold = ns_of(&results, &format!("adapt/{event}_cold/{size}"));
                let basis = ns_of(&results, &format!("adapt/basis_{event}_repair/{size}"));
                ratios.push(record_ratio(
                    &format!("adapt/basis_{event}_speedup/{size}"),
                    cold / basis,
                ));
            }
        }
        results.extend(ratios);
    }

    // --- Steady-state allocation check --------------------------------
    // After the first solve, the arena rebuild + warm solve must reuse
    // every buffer: zero heap allocations across further iterations.
    if want("solver") {
        let mut solver = FlowSolver::default();
        let mut net = FlowNetwork::new(0);
        for _ in 0..3 {
            let (src, dst, target) = layered_into(&mut net, 5, 16, 42);
            solver.solve(&mut net, src, dst, target).expect("feasible");
        }
        let allocs = count_allocations(|| {
            for _ in 0..10 {
                let (src, dst, target) = layered_into(&mut net, 5, 16, 42);
                let sol = solver.solve(&mut net, src, dst, target).expect("feasible");
                black_box(sol.cost);
            }
        });
        assert_eq!(
            allocs, 0,
            "steady-state rebuild+solve must be allocation-free"
        );
        println!("steady-state allocations per 10 warm solves: {allocs}");
    }

    // --- Data-plane throughput: the units/sec headline ----------------
    // Engine-level generated-units-per-wall-second per transfer batch
    // size. These entries are rates (bigger is better); verify.sh
    // inverts its regression tripwire for the `units/s` unit. The
    // events-per-unit and meter-entry counts are exact and independent
    // of `quick`.
    if want("dataplane") {
        use rasc_bench::dataplane;
        let horizon = if quick { 0.5 } else { 2.0 };
        for &apps in &dataplane::SIZES {
            for variant in dataplane::VARIANTS {
                results.push(dataplane::throughput(apps, variant, horizon));
            }
        }
        for variant in dataplane::VARIANTS {
            results.extend(dataplane::work_counts(48, variant));
        }
        // Steady-state allocation gate for the batched data plane: after
        // warm-up the SoA store, batch pool, and event queue must recycle.
        let allocs = dataplane::steady_state_allocs(dataplane::SIZES[1], dataplane::VARIANTS[1]);
        assert_eq!(allocs, 0, "steady-state data plane must be allocation-free");
        println!("steady-state allocations per simulated second of batched data plane: {allocs}");
    }

    // --- Admission throughput: the apps/sec headline ------------------
    // Thousand-node power-law overlays, concurrent tenants. The serial
    // single-request baseline (per-request snapshot clone + uncapped
    // compose) runs at 1k nodes; the batch pipeline (one snapshot per
    // batch, capped candidate selection, optimistic workers +
    // ordered reconcile) runs the full 1k/4k/10k curve. Rates count
    // *admitted* apps per wall second, so replays and rejections
    // penalize rather than inflate the headline.
    if want("admission") {
        use rasc_bench::admission;
        let budget = Duration::from_millis(if quick { 120 } else { 1000 });
        let pool_threads = desim::pool::default_threads().max(2);
        let sizes: &[usize] = if quick {
            &admission::SIZES[..1]
        } else {
            &admission::SIZES[..]
        };
        for &n in sizes {
            let sc = admission::scenario(n, 128, 42);
            let (admitted, conflicts, rejected) = admission::probe(&sc, 128);
            println!(
                "admission scenario at {n} nodes: batch-128 probe admits {admitted} \
                 ({conflicts} conflicts, {rejected} capacity rejections)"
            );
            if n == 1_000 {
                results.push(admission::serial_apps_per_sec(&sc, budget));
            }
            for &b in &admission::BATCHES {
                results.push(admission::batch_apps_per_sec(
                    &format!("batch{b}"),
                    &sc,
                    b,
                    1,
                    budget,
                ));
            }
            results.push(admission::batch_apps_per_sec(
                "batch128_pooled",
                &sc,
                128,
                pool_threads,
                budget,
            ));
        }

        // Candidate-selection kernel at fixed provider density (p = n/16).
        for &n in &admission::SIZES {
            let (view, providers) = admission::selection_setup(n, 9);
            let mut out = Vec::new();
            results.push(time(quick, &format!("admission/select_linear/{n}"), || {
                view.select_top_candidates_linear(&providers, admission::CANDIDATE_CAP, &mut out);
                black_box(out.len());
            }));
        }

        // Steady-state allocation gate: warm batch admission must stay
        // at a bounded, small allocation count per request (result-graph
        // construction only; snapshot syncs reuse pooled buffers), never
        // the thousands a regression to per-request snapshot clones or
        // arena rebuilds would cost.
        let sc = admission::scenario(1_000, 128, 42);
        let per_req = admission::steady_state_allocs_per_request(&sc, 128);
        assert!(
            per_req <= 48.0,
            "steady-state batch admission allocates too much: {per_req:.1} allocs/request \
             (expected ~30: result-graph construction only — snapshot syncs are \
             allocation-free via clone_from and resource vectors are inline; a \
             regression to per-request view clones adds one allocation per view \
             field and capacity bucket, one to heap-backed resource vectors ~2n)"
        );
        println!("steady-state allocations per batch-admitted request: {per_req:.1}");
    }

    // --- Serial submit work counts: allocations and retained bytes ----
    // Exact counts of the engine's own serial admission path (default
    // config: uncapped, retention on), independent of `quick`, so
    // verify.sh compares them with the committed rows exactly.
    if want("admission") || want("adapt") {
        results.extend(rasc_bench::admission::serial_work_counts(1_000));
    }

    // --- Overlay membership: build, crash repair, ownership ----------
    if want("overlay") {
        results.extend(rasc_bench::membership::family(quick));
    }

    // --- Sweep wall time: serial vs parallel --------------------------
    // At least two workers, so the desim thread pool is exercised even
    // on single-core CI boxes.
    let threads = desim::pool::default_threads().max(2);
    let mut sweep_walls = None;
    if want("sweep_wall") {
        let cfg = SweepConfig {
            setup: PaperSetup {
                requests: if quick { 6 } else { 12 },
                submit_window_secs: 20.0,
                measure_secs: 40.0,
                ..PaperSetup::default()
            },
            rates_kbps: if quick { vec![50.0] } else { vec![50.0, 100.0] },
            seeds: if quick { vec![1, 2] } else { vec![1, 2, 3] },
            config: EngineConfig::default(),
        };
        let start = Instant::now();
        let serial = rasc_bench::paper_sweep_threads(&cfg, 1);
        let serial_wall = start.elapsed();
        let start = Instant::now();
        let parallel = rasc_bench::paper_sweep_threads(&cfg, threads);
        let parallel_wall = start.elapsed();
        assert_eq!(serial.len(), parallel.len(), "sweep shape must not vary");
        results.push(record_wall("sweep_wall/serial", serial_wall));
        results.push(
            record_wall(&format!("sweep_wall/parallel_x{threads}"), parallel_wall)
                .with_threads(threads),
        );
        sweep_walls = Some((serial_wall, parallel_wall));
    }

    // Annotate parallel-scaling entries measured without parallelism:
    // on a 1-core box the pooled/parallel numbers measure pool overhead,
    // not scaling, and verify.sh must not hold future runs to them. The
    // per-entry `threads` field is the primary signal; the name check
    // covers legacy entries that predate it.
    let ap = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    if ap == 1 {
        for m in &mut results {
            let pool_entry = m.threads.is_some_and(|t| t > 1);
            if pool_entry || m.name.contains("parallel") || m.name.contains("pooled") {
                m.note = Some("ap1".to_string());
            }
        }
    }

    if let Some(f) = filter {
        results.retain(|m| m.name.contains(f));
        for m in &results {
            println!("{}", m.line());
        }
        println!(
            "filter {f:?}: {} matching entries; skipping summary and \
             BENCH_compose.json (full runs only)",
            results.len()
        );
        return;
    }

    for m in &results {
        println!("{}", m.line());
    }
    let reject = results
        .iter()
        .find(|m| m.name.starts_with("compose_reject_rollback/"))
        .unwrap();
    let baseline = results
        .iter()
        .find(|m| {
            m.name
                .starts_with("compose_reject_rollback_clone_baseline/")
        })
        .unwrap();
    println!(
        "\nrollback speedup vs clone baseline: {:.2}x",
        baseline.value / reject.value
    );
    let (serial_wall, parallel_wall) = sweep_walls.expect("sweep runs on unfiltered passes");
    println!(
        "sweep speedup ({} threads): {:.2}x",
        threads,
        serial_wall.as_secs_f64() / parallel_wall.as_secs_f64().max(1e-9)
    );
    let ns_of = |name: &str| {
        results
            .iter()
            .find(|m| m.name == name)
            .map(|m| m.value)
            .unwrap_or(f64::NAN)
    };
    for size in ["3x8", "5x16", "6x24"] {
        println!(
            "adaptation speedup at {size}: crash repair {:.1}x (worst-case host {:.1}x), \
             rate bump {:.1}x vs cold re-solve",
            ns_of(&format!("adapt/crash_cold/{size}"))
                / ns_of(&format!("adapt/crash_repair/{size}")),
            ns_of(&format!("adapt/crash_worst_cold/{size}"))
                / ns_of(&format!("adapt/crash_worst_repair/{size}")),
            ns_of(&format!("adapt/rate_bump_cold/{size}"))
                / ns_of(&format!("adapt/rate_bump_repair/{size}")),
        );
        println!(
            "  warm-basis tier at {size}:      crash repair {:.1}x (worst-case host {:.1}x), \
             rate bump {:.1}x vs cold re-solve",
            ns_of(&format!("adapt/basis_crash_speedup/{size}")),
            ns_of(&format!("adapt/basis_crash_worst_speedup/{size}")),
            ns_of(&format!("adapt/basis_rate_bump_speedup/{size}")),
        );
    }
    for &apps in &rasc_bench::dataplane::SIZES {
        let rate = |variant: &str| ns_of(&format!("dataplane/units_per_sec/{variant}/{apps}"));
        println!(
            "dataplane units/sec at {apps} apps: per-unit {:.0}, batch-32 {:.0} ({:.1}x)",
            rate("perunit"),
            rate("batch32"),
            rate("batch32") / rate("perunit"),
        );
    }
    let serial_headline = ns_of("admission/apps_per_sec/serial_1req/1000");
    println!(
        "admission headline at 1k nodes: batch-128 {:.0} apps/s vs serial single-request \
         {:.0} apps/s ({:.1}x)",
        ns_of("admission/apps_per_sec/batch128/1000"),
        serial_headline,
        ns_of("admission/apps_per_sec/batch128/1000") / serial_headline,
    );
    for &n in &rasc_bench::admission::SIZES {
        let apps = |b: &str| ns_of(&format!("admission/apps_per_sec/{b}/{n}"));
        if apps("batch128").is_nan() {
            continue; // quick mode runs the curve at 1k only
        }
        println!(
            "admission apps/sec at {n} nodes: batch-1 {:.0}, batch-16 {:.0}, batch-128 {:.0}, \
             batch-128 pooled {:.0}",
            apps("batch1"),
            apps("batch16"),
            apps("batch128"),
            apps("batch128_pooled"),
        );
    }
    if quick {
        println!("quick mode: skipping BENCH_compose.json (full runs only)");
        return;
    }
    // Machine context, so absolute numbers (and especially the
    // parallel_x2 sweep on boxes where the pool exceeds the cores) are
    // interpretable when the report is read elsewhere.
    let context = [
        ("threads", threads.to_string()),
        (
            "available_parallelism",
            std::thread::available_parallelism()
                .map(|n| n.get().to_string())
                .unwrap_or_else(|_| "unknown".to_string()),
        ),
        ("arch", std::env::consts::ARCH.to_string()),
        ("os", std::env::consts::OS.to_string()),
    ];
    let json = render_json(&context, &results);
    let path = "BENCH_compose.json";
    std::fs::write(path, json).expect("write benchmark report");
    println!("wrote {path}");
}

/// Audited fault-injection soak: seeds × fault profiles × composers,
/// every run under the full invariant auditor. Exits non-zero on any
/// violation or if the matrix digest differs between a serial pass and
/// the worker pool (determinism regression).
fn chaos_soak_cmd(quick: bool) {
    use rasc_bench::{chaos_soak_threads, ChaosConfig};
    use std::time::Instant;

    let cfg = if quick {
        ChaosConfig::quick()
    } else {
        ChaosConfig::default()
    };
    let threads = desim::pool::default_threads().max(2);
    println!(
        "chaos soak: {} seeds x {} fault plans x {} composers x {} transfer batches = {} audited runs",
        cfg.seeds.len(),
        cfg.profiles.len(),
        cfg.composers.len(),
        cfg.variants.len(),
        cfg.runs()
    );
    let start = Instant::now();
    let parallel = chaos_soak_threads(&cfg, threads);
    let parallel_wall = start.elapsed();
    let start = Instant::now();
    let serial = chaos_soak_threads(&cfg, 1);
    let serial_wall = start.elapsed();

    let mut failed = false;
    for r in &parallel.runs {
        if r.violations > 0 {
            failed = true;
            eprintln!(
                "VIOLATIONS seed {} {} {} batch{}: {} ({:?})",
                r.seed,
                r.profile.label(),
                r.composer.label(),
                r.batch,
                r.violations,
                r.messages
            );
        }
    }
    let checkpoints: u64 = parallel.runs.iter().map(|r| r.checkpoints).sum();
    println!(
        "violations: {} | audit checkpoints: {checkpoints} | digest: {:016x}",
        parallel.violations, parallel.digest
    );
    println!(
        "wall: {:.2}s on {threads} workers, {:.2}s serial",
        parallel_wall.as_secs_f64(),
        serial_wall.as_secs_f64()
    );
    if serial.digest != parallel.digest {
        failed = true;
        eprintln!(
            "DIGEST MISMATCH: serial {:016x} != parallel {:016x}",
            serial.digest, parallel.digest
        );
    } else {
        println!("serial and parallel digests match");
    }

    if failed {
        std::process::exit(1);
    }
    println!("chaos soak clean");
}

/// Headline comparisons the paper calls out in §4.2.
fn summarize(cells: &[rasc_bench::SweepCell]) {
    let mean_over_rates =
        |composer: ComposerKind, f: &dyn Fn(&rasc_core::metrics::RunReport) -> f64| {
            let xs: Vec<f64> = cells
                .iter()
                .filter(|c| c.composer == composer)
                .map(|c| c.mean(f))
                .collect();
            xs.iter().sum::<f64>() / xs.len() as f64
        };
    println!("Headline comparisons (averaged over the rate axis):");
    let mc_delay = mean_over_rates(ComposerKind::MinCost, &|r| r.delay_ms.mean());
    let gr_delay = mean_over_rates(ComposerKind::Greedy, &|r| r.delay_ms.mean());
    let rn_delay = mean_over_rates(ComposerKind::Random, &|r| r.delay_ms.mean());
    println!(
        "  delay: mincost {mc_delay:.1} ms vs greedy {gr_delay:.1} ms ({:.0}% better) \
         vs random {rn_delay:.1} ms ({:.0}% better)",
        (1.0 - mc_delay / gr_delay) * 100.0,
        (1.0 - mc_delay / rn_delay) * 100.0,
    );
    let mc_j = mean_over_rates(ComposerKind::MinCost, &|r| r.jitter_ms.mean());
    let gr_j = mean_over_rates(ComposerKind::Greedy, &|r| r.jitter_ms.mean());
    let rn_j = mean_over_rates(ComposerKind::Random, &|r| r.jitter_ms.mean());
    println!(
        "  jitter: mincost {mc_j:.2} ms vs greedy {gr_j:.2} ms ({:.1}x) vs random {rn_j:.2} ms ({:.1}x)",
        gr_j / mc_j.max(1e-9),
        rn_j / mc_j.max(1e-9),
    );
    let mc_c = mean_over_rates(ComposerKind::MinCost, &|r| r.composed as f64);
    let gr_c = mean_over_rates(ComposerKind::Greedy, &|r| r.composed as f64);
    let rn_c = mean_over_rates(ComposerKind::Random, &|r| r.composed as f64);
    println!("  composed requests: mincost {mc_c:.1} vs greedy {gr_c:.1} vs random {rn_c:.1}");
    let mc_split = mean_over_rates(ComposerKind::MinCost, &|r| r.split_requests as f64);
    println!("  mincost requests using splitting: {mc_split:.1}");
    let p95 = |c: ComposerKind| mean_over_rates(c, &|r| r.delay_quantile_ms(0.95).unwrap_or(0.0));
    println!(
        "  delay p95: mincost {:.0} ms vs greedy {:.0} ms vs random {:.0} ms",
        p95(ComposerKind::MinCost),
        p95(ComposerKind::Greedy),
        p95(ComposerKind::Random),
    );
}

/// Load-matched comparison: at high rates min-cost admits ~1.5x the
/// requests of the baselines, so its per-unit averages carry the load
/// of apps the baselines reject. Here every algorithm is offered only
/// as many requests as the *most restrictive* baseline can admit, so
/// the admitted load is equal and the comparison isolates placement
/// quality.
fn load_matched() {
    println!("Load-matched quality comparison (all algorithms at equal admitted load)");
    for rate in [50.0, 100.0, 150.0, 200.0] {
        // Find the smallest admission count across algorithms/seeds.
        let seeds = [1u64, 2, 3];
        let mut min_admitted = u64::MAX;
        for &seed in &seeds {
            for kind in ComposerKind::ALL {
                let setup = PaperSetup {
                    avg_rate_kbps: rate,
                    seed,
                    ..Default::default()
                };
                let r = run_experiment_with(&setup, kind, EngineConfig::default()).report;
                min_admitted = min_admitted.min(r.composed);
            }
        }
        println!(
            "
  rate {rate} Kb/s, matched to {min_admitted} requests:"
        );
        println!(
            "  {:<10}{:>10}{:>12}{:>12}{:>12}{:>12}",
            "algorithm", "composed", "delivered", "timely", "delay(ms)", "jitter(ms)"
        );
        for kind in ComposerKind::ALL {
            let mut acc = (0.0f64, 0.0, 0.0, 0.0, 0.0);
            for &seed in &seeds {
                let setup = PaperSetup {
                    avg_rate_kbps: rate,
                    requests: min_admitted as usize,
                    seed,
                    ..Default::default()
                };
                let r = run_experiment_with(&setup, kind, EngineConfig::default()).report;
                acc.0 += r.composed as f64;
                acc.1 += r.delivered_fraction();
                acc.2 += r.timely_fraction();
                acc.3 += r.delay_ms.mean();
                acc.4 += r.jitter_ms.mean();
            }
            let n = seeds.len() as f64;
            println!(
                "  {:<10}{:>10.1}{:>11.3}{:>12.3}{:>12.1}{:>12.2}",
                kind.label(),
                acc.0 / n,
                acc.1 / n,
                acc.2 / n,
                acc.3 / n,
                acc.4 / n
            );
        }
    }
}

/// Table D: the paper's §6 future work — composition under multiple
/// resource constraints. CPU-heavy workloads on bandwidth-only
/// composition overload node processors invisibly (the scheduler sheds
/// the excess at runtime); with the CPU dimension enabled, composition
/// rejects or splits instead.
fn ablation_cpu() {
    use desim::SimDuration;
    use rasc_core::model::{Service, ServiceCatalog};
    println!("Table D: multi-resource ablation (CPU-heavy catalog, 100 Kb/s)");
    println!(
        "{:<22}{:>10}{:>12}{:>14}{:>14}",
        "composition", "composed", "delivered", "sched-drops", "delay(ms)"
    );
    for (name, cores) in [("bandwidth-only", None), ("bandwidth+cpu", Some(1.0))] {
        let mut acc = (0.0f64, 0.0, 0.0, 0.0);
        let seeds = [1u64, 2, 3];
        for &seed in &seeds {
            let setup = PaperSetup {
                avg_rate_kbps: 100.0,
                seed,
                ..Default::default()
            };
            let config = EngineConfig {
                cpu_cores: cores,
                ..Default::default()
            };
            // CPU-heavy services: 15-35 ms per unit instead of 1-8 ms.
            let r = {
                let catalog = ServiceCatalog::new(
                    (0..setup.services)
                        .map(|id| Service {
                            id,
                            name: format!("heavy-{id}"),
                            exec_time: SimDuration::from_millis(15 + (id as u64 * 2) % 21),
                            rate_ratio: 1.0,
                        })
                        .collect(),
                );
                let mut engine =
                    rasc_core::engine::Engine::builder(setup.total_nodes(), catalog, setup.seed)
                        .topology(setup.topology())
                        .offers(setup.offers())
                        .config(EngineConfig {
                            composer: ComposerKind::MinCost,
                            services_per_node: setup.services_per_node,
                            ..config
                        })
                        .build();
                let mut gen = workload::RequestGenerator::new(
                    setup.services,
                    setup.total_nodes(),
                    setup.avg_rate_kbps,
                    setup.seed,
                )
                .with_endpoints(setup.endpoint_ids());
                for i in 0..setup.requests {
                    engine.submit_at(
                        desim::SimTime::from_secs_f64(
                            i as f64 * setup.submit_window_secs / setup.requests as f64,
                        ),
                        gen.next_request(),
                    );
                }
                engine.run_until(desim::SimTime::from_secs_f64(
                    setup.submit_window_secs + setup.measure_secs,
                ));
                engine.report()
            };
            acc.0 += r.composed as f64;
            acc.1 += r.delivered_fraction();
            acc.2 += (r.drops[rasc_core::metrics::DropCause::Laxity as usize]
                + r.drops[rasc_core::metrics::DropCause::QueueFull as usize])
                as f64;
            acc.3 += r.delay_ms.mean();
        }
        let n = seeds.len() as f64;
        println!(
            "{:<22}{:>10.1}{:>12.3}{:>14.1}{:>14.1}",
            name,
            acc.0 / n,
            acc.1 / n,
            acc.2 / n,
            acc.3 / n
        );
    }
}

/// Table B: scheduling-policy ablation under the MinCost composer.
fn ablation_sched() {
    // 200 Kb/s: the only regime with real deadline pressure (splitting
    // onto scraps, transient bursts) where the policies can differ.
    println!("Table B: scheduler ablation (mincost composition, 200 Kb/s)");
    println!(
        "{:<8}{:>12}{:>14}{:>14}{:>14}",
        "policy", "delivered", "timely", "laxity-drops", "delay(ms)"
    );
    for (name, policy) in [
        ("llf", Policy::Llf),
        ("edf", Policy::Edf),
        ("fifo", Policy::Fifo),
    ] {
        let mut acc = (0.0, 0.0, 0.0, 0.0);
        let seeds = [1u64, 2, 3];
        for &seed in &seeds {
            let setup = PaperSetup {
                avg_rate_kbps: 200.0,
                seed,
                ..Default::default()
            };
            let config = EngineConfig {
                policy,
                ..Default::default()
            };
            let r = run_experiment_with(&setup, ComposerKind::MinCost, config).report;
            acc.0 += r.delivered_fraction();
            acc.1 += r.timely_fraction();
            acc.2 += r.drops[rasc_core::metrics::DropCause::Laxity as usize] as f64;
            acc.3 += r.delay_ms.mean();
        }
        let n = seeds.len() as f64;
        println!(
            "{:<8}{:>12.3}{:>14.3}{:>14.1}{:>14.1}",
            name,
            acc.0 / n,
            acc.1 / n,
            acc.2 / n,
            acc.3 / n
        );
    }
}

/// Table C: rate splitting on vs off. "Off" approximates RASC without
/// splitting by running the greedy single-placement composer with the
/// same admission rules, isolating the contribution of splitting.
fn ablation_split() {
    println!("Table C: splitting ablation (200 Kb/s, where splitting matters most)");
    println!(
        "{:<22}{:>12}{:>12}{:>14}",
        "variant", "composed", "delivered", "split-reqs"
    );
    for (name, composer) in [
        ("mincost (split)", ComposerKind::MinCost),
        ("greedy (no split)", ComposerKind::Greedy),
    ] {
        let mut acc = (0.0, 0.0, 0.0);
        let seeds = [1u64, 2, 3];
        for &seed in &seeds {
            let setup = PaperSetup {
                avg_rate_kbps: 200.0,
                seed,
                ..Default::default()
            };
            let r = run_experiment_with(&setup, composer, EngineConfig::default()).report;
            acc.0 += r.composed as f64;
            acc.1 += r.delivered_fraction();
            acc.2 += r.split_requests as f64;
        }
        let n = seeds.len() as f64;
        println!(
            "{:<22}{:>12.1}{:>12.3}{:>14.1}",
            name,
            acc.0 / n,
            acc.1 / n,
            acc.2 / n
        );
    }
}
