//! Tests for the multi-resource extension (the paper's §6 future work):
//! CPU as a composition constraint alongside input/output bandwidth.

use desim::SimDuration;
use rasc_core::compose::ComposerKind;
use rasc_core::engine::{Engine, EngineConfig};
use rasc_core::model::{Service, ServiceCatalog, ServiceRequest};
use rasc_core::view::SystemView;
use simnet::{kbps, mbps, Topology};

/// A deliberately CPU-heavy service: 40 ms per data unit.
fn heavy_catalog() -> ServiceCatalog {
    ServiceCatalog::new(vec![Service {
        id: 0,
        name: "deep-inspect".into(),
        exec_time: SimDuration::from_millis(40),
        rate_ratio: 1.0,
    }])
}

fn engine(cpu_cores: Option<f64>) -> Engine {
    Engine::builder(4, heavy_catalog(), 3)
        .topology(Topology::uniform(
            4,
            mbps(10.0), // bandwidth is never the bottleneck here
            SimDuration::from_millis(10),
        ))
        .offers(vec![vec![], vec![0], vec![0], vec![]])
        .config(EngineConfig {
            composer: ComposerKind::MinCost,
            cpu_cores,
            // Deterministic execution times: the tests below reason
            // about exact CPU budgets.
            exec_noise_sigma: 0.0,
            ..Default::default()
        })
        .build()
}

#[test]
fn view_cpu_dimension_binds_max_rate() {
    let topo = Topology::uniform(2, mbps(10.0), SimDuration::from_millis(5));
    let mut view = SystemView::fresh(&topo);
    // Unconstrained: bandwidth rules (10 Mbps / 8192 ≈ 1220 du/s).
    let bw_only = view.max_rate_with_cpu(0, 8192, 1.0, 0.040);
    assert!((bw_only - 10_000_000.0 / 8192.0).abs() < 1e-6);
    // One core at 40 ms/unit: at most 25 du/s.
    view.set_cpu_capacity(0, 1.0);
    let with_cpu = view.max_rate_with_cpu(0, 8192, 1.0, 0.040);
    assert!((with_cpu - 25.0).abs() < 1e-9, "{with_cpu}");
    // Reserving 10 du/s of CPU leaves 15.
    view.reserve_cpu(0, 0.040, 10.0);
    let after = view.max_rate_with_cpu(0, 8192, 1.0, 0.040);
    assert!((after - 15.0).abs() < 1e-9, "{after}");
    // Utilization reflects the CPU dimension.
    assert!((view.utilization(0) - 0.4).abs() < 1e-9);
}

#[test]
fn cpu_constraint_rejects_what_bandwidth_admits() {
    // Each 1-core provider at 0.75 headroom sustains 18.75 du/s of a
    // 40 ms/unit service; the two together 37.5. A 45 du/s request
    // exceeds even the aggregate: rejected when the CPU dimension is
    // on…
    let mut constrained = engine(Some(1.0));
    let err = constrained
        .submit(ServiceRequest::chain(&[0], 45.0, 0, 3))
        .unwrap_err();
    assert!(matches!(
        err,
        rasc_core::compose::ComposeError::InsufficientCapacity { .. }
    ));
    // …while 30 du/s — beyond any single provider but within the
    // aggregate — is admitted via a CPU-driven split.
    let app = constrained
        .submit(ServiceRequest::chain(&[0], 30.0, 0, 3))
        .expect("two providers jointly carry 30 du/s");
    assert!(
        constrained.app_graph(app).has_splitting(),
        "expected a CPU-driven split"
    );
    // And bandwidth-only composition admits even the 45 du/s request
    // (10 Mbps NICs — it simply cannot see the CPU wall).
    let mut unconstrained = engine(None);
    unconstrained
        .submit(ServiceRequest::chain(&[0], 45.0, 0, 3))
        .expect("bandwidth-only admission ignores CPU");
}

#[test]
fn without_constraint_cpu_overload_shows_up_as_laxity_drops() {
    // Bandwidth-only composition happily admits 30 du/s onto a node
    // whose CPU can only process 25: the scheduler sheds the excess.
    let mut unconstrained = engine(None);
    unconstrained
        .submit(ServiceRequest::chain(&[0], 30.0, 0, 3))
        .expect("bandwidth-only admission");
    unconstrained.run_for_secs(30.0);
    let r = unconstrained.report();
    let laxity = r.drops[rasc_core::metrics::DropCause::Laxity as usize];
    let queue = r.drops[rasc_core::metrics::DropCause::QueueFull as usize];
    assert!(
        laxity + queue > 0,
        "CPU overload produced no scheduler drops: {r:?}"
    );
    assert!(r.delivered_fraction() < 0.95, "overload went unnoticed");
}

#[test]
fn constrained_composition_outperforms_blind_admission() {
    // Same 30 du/s demand: CPU-aware composition splits it across both
    // cores; bandwidth-only packs one node at ρ=1.2 and sheds heavily.
    let run = |cores| {
        let mut e = engine(cores);
        e.submit(ServiceRequest::chain(&[0], 30.0, 0, 3)).unwrap();
        e.run_for_secs(30.0);
        e.report()
    };
    let aware = run(Some(1.0));
    let blind = run(None);
    assert!(
        aware.delivered_fraction() > blind.delivered_fraction() + 0.05,
        "CPU-aware {:.3} should beat blind {:.3} clearly",
        aware.delivered_fraction(),
        blind.delivered_fraction()
    );
    assert!(aware.delivered_fraction() > 0.8, "{aware:?}");
}

#[test]
fn cpu_capacity_releases_on_teardown() {
    let mut e = engine(Some(1.0));
    let short = ServiceRequest::chain(&[0], 25.0, 0, 3).with_lifetime(SimDuration::from_secs(4));
    e.submit(short).unwrap();
    e.run_for_secs(2.0);
    // While running, an identical request does not fit.
    assert!(e.submit(ServiceRequest::chain(&[0], 25.0, 0, 3)).is_err());
    e.run_for_secs(15.0);
    // After teardown + meter drain, it does.
    e.submit(ServiceRequest::chain(&[0], 25.0, 0, 3))
        .expect("CPU not released on teardown");
    let _ = kbps(1.0);
}

#[test]
fn cpu_meter_holds_admission_until_the_window_drains() {
    // A 25 du/s app (1.0 of the 1.5 admittable cores) runs for 4 s and
    // is torn down, releasing its committed CPU at once. The 4 s CPU
    // meter still reads ~0.75 cores a second later, so the identical
    // request is refused on the measurement alone…
    let mut e = engine(Some(1.0));
    let short = ServiceRequest::chain(&[0], 25.0, 0, 3).with_lifetime(SimDuration::from_secs(4));
    e.submit(short).unwrap();
    e.run_for_secs(5.0);
    assert_eq!(e.report().composed, 1);
    assert!(
        e.submit(ServiceRequest::chain(&[0], 25.0, 0, 3)).is_err(),
        "admitted against a CPU meter that still reads the departed app"
    );
    // …and admitted once the window has slid past the app's last unit.
    e.run_for_secs(5.0);
    e.submit(ServiceRequest::chain(&[0], 25.0, 0, 3))
        .expect("CPU meter did not drain");
}
