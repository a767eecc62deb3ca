//! Failure handling: crash-stopping a node must not panic, must keep
//! the registry consistent, and must dynamically re-compose the affected
//! applications on surviving nodes.

use desim::SimDuration;
use rasc_core::compose::ComposerKind;
use rasc_core::engine::{Engine, EngineConfig};
use rasc_core::metrics::DropCause;
use rasc_core::model::{ServiceCatalog, ServiceRequest};
use simnet::{kbps, TopologyBuilder};

/// 6 provider nodes (all offering both services) + endpoints 6, 7.
fn engine() -> Engine {
    let catalog = ServiceCatalog::synthetic(2, 21);
    let mut b = TopologyBuilder::new().default_latency(SimDuration::from_millis(15));
    for _ in 0..8 {
        b.node(kbps(2_000.0), kbps(2_000.0));
    }
    let mut offers = vec![vec![0, 1]; 6];
    offers.push(vec![]);
    offers.push(vec![]);
    Engine::builder(8, catalog, 21)
        .topology(b.build())
        .offers(offers)
        .config(EngineConfig {
            composer: ComposerKind::MinCost,
            ..Default::default()
        })
        .build()
}

fn hosts_of(engine: &Engine, app: usize) -> Vec<usize> {
    engine
        .app_graph(app)
        .substreams
        .iter()
        .flatten()
        .flat_map(|s| s.placements.iter().map(|p| p.node))
        .collect()
}

#[test]
fn app_recomposes_around_a_failed_provider() {
    let mut e = engine();
    let app = e
        .submit(ServiceRequest::chain(&[0, 1], 15.0, 6, 7))
        .unwrap();
    e.run_for_secs(10.0);
    let delivered_before = e.report().delivered;
    assert!(delivered_before > 0);

    // Kill one of the app's hosts. The min-cost composer repairs its
    // retained composition in place: same app id, no cold re-solve.
    let victim = hosts_of(&e, app)[0];
    e.fail_node(victim);
    assert!(!e.node_alive(victim));
    let r = e.report();
    assert_eq!(r.recompositions, 1);
    assert_eq!(r.repairs, 1, "adaptation should take the repair path");
    assert_eq!(r.composed, 1, "repair must not re-run composition");
    assert_eq!(e.app_count(), 1, "repair keeps the application in place");

    // The repaired graph avoids the corpse and delivery resumes.
    assert!(
        !hosts_of(&e, app).contains(&victim),
        "repaired onto the failed node"
    );
    e.run_for_secs(15.0);
    let r2 = e.report();
    assert!(
        r2.delivered > delivered_before + 100,
        "delivery did not resume: {} -> {}",
        delivered_before,
        r2.delivered
    );
}

#[test]
fn baseline_composers_still_recompose_cold() {
    // The repair path is a min-cost capability; composers without
    // retained state must keep the stop-and-resubmit behaviour.
    let catalog = ServiceCatalog::synthetic(2, 21);
    let mut b = TopologyBuilder::new().default_latency(SimDuration::from_millis(15));
    for _ in 0..8 {
        b.node(kbps(2_000.0), kbps(2_000.0));
    }
    let mut offers = vec![vec![0, 1]; 6];
    offers.push(vec![]);
    offers.push(vec![]);
    let mut e = Engine::builder(8, catalog, 21)
        .topology(b.build())
        .offers(offers)
        .config(EngineConfig {
            composer: ComposerKind::Greedy,
            ..Default::default()
        })
        .build();
    let app = e
        .submit(ServiceRequest::chain(&[0, 1], 15.0, 6, 7))
        .unwrap();
    e.run_for_secs(5.0);
    let victim = hosts_of(&e, app)[0];
    e.fail_node(victim);
    let r = e.report();
    assert_eq!(r.recompositions, 1);
    assert_eq!(r.repairs, 0, "greedy has nothing to repair with");
    assert_eq!(r.composed, 2, "cold recomposition re-ran composition");
    let new_app = e.app_count() - 1;
    assert!(!hosts_of(&e, new_app).contains(&victim));
}

#[test]
fn discovery_forgets_failed_providers() {
    let mut e = engine();
    e.fail_node(2);
    for s in 0..2 {
        let providers = e.directory().providers(s);
        assert!(!providers.contains(&2), "dead node still advertised");
        assert!(providers.len() >= 4, "survivors lost registrations");
    }
}

#[test]
fn endpoint_failure_stops_the_app_without_recomposition() {
    let mut e = engine();
    e.submit(ServiceRequest::chain(&[0], 10.0, 6, 7)).unwrap();
    e.run_for_secs(5.0);
    let generated_before = e.report().generated;
    e.fail_node(6); // the source: nothing to recompose onto
    let r = e.report();
    assert_eq!(r.recompositions, 0);
    e.run_for_secs(10.0);
    let r2 = e.report();
    assert!(
        r2.generated <= generated_before + 2,
        "source kept emitting after its node died"
    );
}

#[test]
fn failing_a_bystander_changes_nothing_for_the_app() {
    let mut e = engine();
    let app = e.submit(ServiceRequest::chain(&[0], 10.0, 6, 7)).unwrap();
    let used = hosts_of(&e, app);
    let bystander = (0..6).find(|v| !used.contains(v)).expect("a free provider");
    e.fail_node(bystander);
    assert_eq!(e.report().recompositions, 0);
    e.run_for_secs(10.0);
    let r = e.report();
    assert!(r.delivered_fraction() > 0.95, "{r:?}");
}

#[test]
fn double_failure_is_idempotent_and_accounted() {
    let mut e = engine();
    e.submit(ServiceRequest::chain(&[0, 1], 12.0, 6, 7))
        .unwrap();
    e.run_for_secs(3.0);
    e.fail_node(0);
    let after_first = e.report().recompositions;
    e.fail_node(0); // again: no-op
    assert_eq!(e.report().recompositions, after_first);
    e.run_for_secs(5.0);
    let r = e.report();
    // Conservation including NodeFailed drops.
    assert!(r.delivered + r.total_drops() <= r.generated);
    let _ = r.drops[DropCause::NodeFailed as usize];
}

#[test]
fn cascading_failures_leave_a_working_system() {
    let mut e = engine();
    e.submit(ServiceRequest::chain(&[0, 1], 10.0, 6, 7))
        .unwrap();
    e.run_for_secs(3.0);
    // Fail half the providers one by one; each time, either recompose or
    // reject — never panic, never corrupt accounting.
    for v in 0..3 {
        e.fail_node(v);
        e.run_for_secs(3.0);
    }
    let r = e.report();
    assert!(r.delivered + r.total_drops() <= r.generated);
    // The final app (whatever its generation) still delivers on the
    // surviving providers.
    let before = e.report().delivered;
    e.run_for_secs(10.0);
    assert!(e.report().delivered > before, "system wedged after churn");
}

/// A request whose source or destination has crashed (or never existed)
/// is refused with a typed error on both admission paths — the source
/// could not even route its discovery lookups — and the refusal leaves
/// no trace: a twin engine that never saw those requests admits the next
/// ones onto the same hosts and delivers the same units.
#[test]
fn crashed_endpoints_are_refused_with_a_typed_error() {
    use rasc_core::compose::ComposeError::EndpointDown;
    let (mut e, mut twin) = (engine(), engine());
    e.fail_node(6);
    twin.fail_node(6);
    let from_dead = ServiceRequest::chain(&[0, 1], 10.0, 6, 7);
    let to_dead = ServiceRequest::chain(&[0, 1], 10.0, 7, 6);
    let nowhere = ServiceRequest::chain(&[0], 10.0, 7, 99);
    let valid = ServiceRequest::chain(&[0, 1], 10.0, 7, 0);

    assert_eq!(e.submit(from_dead.clone()), Err(EndpointDown(6)));
    assert_eq!(e.submit(to_dead.clone()), Err(EndpointDown(6)));
    assert_eq!(e.submit(nowhere), Err(EndpointDown(99)));
    let batch = e.submit_batch(vec![from_dead, valid.clone(), to_dead], 2);
    assert_eq!(batch.apps[0], Err(EndpointDown(6)));
    assert_eq!(batch.apps[2], Err(EndpointDown(6)));
    assert_eq!(e.report().rejected, 5);

    let app = *batch.apps[1]
        .as_ref()
        .expect("the live request is admitted");
    let twin_batch = twin.submit_batch(vec![valid.clone()], 2);
    let twin_app = *twin_batch.apps[0].as_ref().unwrap();
    assert_eq!(e.app_graph(app), twin.app_graph(twin_app));
    let (next, twin_next) = (e.submit(valid.clone()), twin.submit(valid));
    assert_eq!(
        e.app_graph(next.unwrap()),
        twin.app_graph(twin_next.unwrap())
    );
    e.run_for_secs(5.0);
    twin.run_for_secs(5.0);
    let (r, t) = (e.report(), twin.report());
    assert_eq!((r.generated, r.delivered), (t.generated, t.delivered));
    assert_eq!(t.rejected, 0);
    assert!(e.audit_report().is_none_or(|a| a.clean()));
}

/// Hostile fault calls — a node index past the end of the overlay, a NaN
/// degradation factor or loss probability — are no-ops, whether made
/// directly or scheduled as fault-plan actions: the engine that received
/// them ends with the same digest as a twin that never did. The twin's
/// plan carries as many do-nothing actions at the same instants, so both
/// queues schedule and fire the same number of events.
#[test]
fn hostile_fault_calls_are_no_ops() {
    use rasc_core::engine::{FaultAction, FaultEvent, FaultPlan};
    let (mut e, mut twin) = (engine(), engine());
    for x in [&mut e, &mut twin] {
        x.submit(ServiceRequest::chain(&[0, 1], 12.0, 6, 7))
            .unwrap();
        x.run_for_secs(2.0);
    }
    for v in [8, 99, usize::MAX] {
        e.fail_node(v);
        e.degrade_node(v, 0.5);
        e.restore_node(v);
        e.set_message_loss(v, 0.5);
        assert!(!e.node_alive(v));
    }
    e.degrade_node(0, f64::NAN);
    e.set_message_loss(0, f64::NAN);

    let spike = SimDuration::from_millis(300);
    let hostile = [
        FaultAction::Crash(99),
        FaultAction::Degrade {
            node: 99,
            factor: 0.5,
        },
        FaultAction::Degrade {
            node: 0,
            factor: f64::NAN,
        },
        FaultAction::Restore(usize::MAX),
        FaultAction::LatencySpike {
            node: 99,
            factor: 3.0,
            duration: spike,
        },
        FaultAction::LatencyCalm(99),
        FaultAction::MessageLoss {
            node: 99,
            prob: 0.5,
            duration: spike,
        },
        FaultAction::MessageLoss {
            node: 0,
            prob: f64::NAN,
            duration: spike,
        },
        FaultAction::LossCalm(99),
    ];
    let start = e.now();
    let plan = |actions: Vec<FaultAction>| FaultPlan {
        events: actions
            .into_iter()
            .enumerate()
            .map(|(i, action)| FaultEvent {
                at: start + SimDuration::from_millis(100 * (i as u64 + 1)),
                action,
            })
            .collect(),
    };
    e.schedule_fault_plan(&plan(hostile.to_vec()));
    // Lifting a loss window from a node that has none changes nothing.
    twin.schedule_fault_plan(&plan(vec![FaultAction::LossCalm(0); hostile.len()]));

    for x in [&mut e, &mut twin] {
        x.run_for_secs(3.0);
        assert!(x.finish_run().clean());
    }
    assert!(e.report().delivered > 0);
    assert_eq!(e.run_digest(), twin.run_digest());
}

/// Malformed requests come back as typed errors through both `submit`
/// and `submit_batch`, never as panics or misleading capacity refusals,
/// and leave nothing behind: the engine ends digest-equal to a twin
/// whose refused requests merely named a dead source instead.
#[test]
fn malformed_requests_are_typed_rejections() {
    use rasc_core::compose::ComposeError;
    use rasc_core::model::RequestError;
    let good = ServiceRequest::multi(vec![vec![0], vec![1]], vec![6.0, 6.0], 6, 7);
    let shape = |f: fn(&mut ServiceRequest)| {
        let mut r = good.clone();
        f(&mut r);
        r
    };
    let malformed = |e: RequestError| Err(ComposeError::Malformed(e));
    let cases = [
        (
            shape(|r| r.rates.clear()),
            malformed(RequestError::RateCount {
                substreams: 2,
                rates: 0,
            }),
        ),
        (
            shape(|r| r.rates.truncate(1)),
            malformed(RequestError::RateCount {
                substreams: 2,
                rates: 1,
            }),
        ),
        (
            shape(|r| r.rates[0] = -5.0),
            malformed(RequestError::BadRate(0)),
        ),
        (
            shape(|r| r.rates[1] = 0.0),
            malformed(RequestError::BadRate(1)),
        ),
        (
            shape(|r| r.rates[1] = f64::NAN),
            malformed(RequestError::BadRate(1)),
        ),
        (
            shape(|r| r.rates[0] = f64::INFINITY),
            malformed(RequestError::BadRate(0)),
        ),
        (
            shape(|r| r.graph.substreams[1].services.clear()),
            malformed(RequestError::EmptySubstream(1)),
        ),
        (
            shape(|r| {
                r.graph.substreams.clear();
                r.rates.clear();
            }),
            malformed(RequestError::NoSubstreams),
        ),
        (
            shape(|r| r.graph.substreams[0].services.push(9)),
            Err(ComposeError::UnknownService(9)),
        ),
    ];
    let dead_source = ServiceRequest::chain(&[0], 6.0, 99, 7);

    let (mut e, mut twin) = (engine(), engine());
    for x in [&mut e, &mut twin] {
        x.submit(good.clone()).unwrap();
        x.run_for_secs(1.0);
    }
    let rejected = e.report().rejected;
    for (req, want) in &cases {
        assert_eq!(&e.submit(req.clone()), want);
        assert_eq!(&e.submit_batch(vec![req.clone()], 1).apps[0], want);
        let down = Err(ComposeError::EndpointDown(99));
        assert_eq!(twin.submit(dead_source.clone()), down);
        assert_eq!(
            twin.submit_batch(vec![dead_source.clone()], 1).apps[0],
            down
        );
    }
    assert_eq!(e.report().rejected, rejected + 2 * cases.len() as u64);
    // A burst mixing every malformed shape with one good request still
    // admits the good one exactly as the twin's burst does.
    let burst: Vec<ServiceRequest> = cases.iter().map(|(r, _)| r.clone()).collect();
    let report = e.submit_batch([burst, vec![good.clone()]].concat(), 2);
    assert!(report.apps.last().unwrap().is_ok());
    let report = twin.submit_batch([vec![dead_source; cases.len()], vec![good]].concat(), 2);
    assert!(report.apps.last().unwrap().is_ok());

    for x in [&mut e, &mut twin] {
        x.run_for_secs(3.0);
        assert!(x.finish_run().clean());
    }
    assert!(e.report().delivered > 0);
    assert_eq!(e.run_digest(), twin.run_digest());
}
