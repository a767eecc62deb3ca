//! Metric values, and the end-to-end set computed from untraced
//! repetitions. Names, units and directions are declared once, in
//! `BENCHMARK.json`; the schema self-test holds this file to it.

use crate::driver::{FaultCall, FaultKind, Lifecycle};
use crate::replay::Samples;
use crate::stats::{mean, ns_to_ms, ns_to_s, ns_to_us, quantile};
use rasc_core::metrics::DropCause;

/// One reported number.
#[derive(Clone, Debug, PartialEq)]
pub struct Metric {
    /// Name, as `BENCHMARK.json` declares it.
    pub name: &'static str,
    /// The measured value, unrounded.
    pub value: f64,
    /// Unit, as `BENCHMARK.json` declares it.
    pub unit: &'static str,
    /// Samples behind the value (0 = not a sampled statistic).
    pub samples: usize,
}

/// An ordered set of metrics.
#[derive(Clone, Debug, Default)]
pub struct Metrics(pub Vec<Metric>);

impl Metrics {
    /// Appends a metric.
    pub fn push(&mut self, name: &'static str, value: f64, unit: &'static str, samples: usize) {
        self.0.push(Metric {
            name,
            value,
            unit,
            samples,
        });
    }
}

/// `num / den`, or 0 when nothing was counted.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// The end-to-end metrics from `floor`, the noise floor of the untraced
/// repetitions (see [`noise_floor`](crate::driver::noise_floor)), and the
/// set-up samples `setup_s`.
///
/// Wall-clock figures read the floor profile: whole-lifecycle quantities
/// are sums over its calls, per-call quantities percentiles over them.
/// Simulated-quality figures are deterministic in the seed.
pub fn end_to_end(floor: &Lifecycle, setup_s: &[f64], peak_rss_mb: f64) -> Metrics {
    let r = &floor.report;
    let admit_ms: Vec<f64> = floor.submits_ns.iter().map(|&ns| ns_to_ms(ns)).collect();
    // Crash → repaired latency: `fail_node` calls that touched at least
    // one live app. (Degradations that bite are an order of magnitude
    // cheaper — no overlay repair — and would make this bimodal; they are
    // `engine.degrade_ms_p50` in the traced run.)
    let repair_ms: Vec<f64> = floor
        .faults
        .iter()
        .filter(|c| c.kind == FaultKind::Crash && c.hit > 0)
        .map(|c| ns_to_ms(c.ns))
        .collect();
    let least = |v: &[f64]| v.iter().copied().fold(f64::INFINITY, f64::min);

    let mut m = Metrics::default();
    m.push("setup_s", least(setup_s), "s", setup_s.len());
    m.push("lifecycle_s", ns_to_s(floor.lifecycle_ns), "s", 0);
    m.push(
        "admit_apps_per_s",
        ratio(floor.admitted as f64, ns_to_s(floor.submit_ns())),
        "apps/s",
        admit_ms.len(),
    );
    m.push(
        "admit_ms_p50",
        quantile(&admit_ms, 0.50).unwrap_or(0.0),
        "ms",
        admit_ms.len(),
    );
    m.push(
        "admit_ms_p95",
        quantile(&admit_ms, 0.95).unwrap_or(0.0),
        "ms",
        admit_ms.len(),
    );
    m.push(
        "units_per_wall_s",
        ratio(r.delivered as f64, ns_to_s(floor.run_ns())),
        "units/s",
        floor.runs_ns.len(),
    );
    m.push(
        "repair_ms_p50",
        quantile(&repair_ms, 0.50).unwrap_or(0.0),
        "ms",
        repair_ms.len(),
    );
    m.push(
        "admitted_frac",
        ratio(floor.admitted as f64, floor.submitted as f64),
        "ratio",
        0,
    );
    m.push(
        "restored_frac",
        ratio(floor.restored() as f64, floor.hit() as f64),
        "ratio",
        0,
    );
    m.push("delivered_frac", r.delivered_fraction(), "ratio", 0);
    m.push("timely_frac", r.timely_fraction(), "ratio", 0);
    m.push("unit_delay_ms_mean", r.delay_ms.mean(), "sim_ms", 0);
    m.push(
        "unit_delay_ms_p99",
        r.delay_quantile_ms(0.99).unwrap_or(0.0),
        "sim_ms",
        0,
    );
    m.push("peak_rss_mb", peak_rss_mb, "MB", 0);
    m
}

/// The per-layer metrics from one untraced repetition `base` and the
/// traced repetition `traced` (same inputs) with its replay samples.
///
/// A statistic with no samples on a workload (no batch call, no crash
/// that touched an app, …) reads 0: per-layer metrics carry no bound, and
/// the sample count printed beside each says so.
pub fn per_layer(base: &Lifecycle, traced: &Lifecycle, s: &Samples, spans: usize) -> Metrics {
    let r = &traced.report;
    let us = |v: &[u64]| -> Vec<f64> { v.iter().map(|&x| ns_to_us(x)).collect() };
    let ms = |v: &[u64]| -> Vec<f64> { v.iter().map(|&x| ns_to_ms(x)).collect() };
    let p = |v: &[f64], q: f64| quantile(v, q).unwrap_or(0.0);
    let sum_s = |v: &[u64]| ns_to_s(v.iter().sum());
    let mut m = Metrics::default();

    // engine: spans around the public calls, and its own reports.
    let submit_ms: Vec<f64> = traced.submits_ns.iter().map(|&ns| ns_to_ms(ns)).collect();
    let quarter = (submit_ms.len() / 4).max(1);
    let growth = ratio(
        p(&submit_ms[submit_ms.len().saturating_sub(quarter)..], 0.5),
        p(&submit_ms[..quarter.min(submit_ms.len())], 0.5),
    );
    let faults = |f: &dyn Fn(&FaultCall) -> bool| -> Vec<f64> {
        traced
            .faults
            .iter()
            .filter(|c| f(c))
            .map(|c| ns_to_ms(c.ns))
            .collect()
    };
    let crash_hit = faults(&|c| c.kind == FaultKind::Crash && c.hit > 0);
    let crash_noop = faults(&|c| c.kind == FaultKind::Crash && c.hit == 0);
    let degrade_hit = faults(&|c| c.kind == FaultKind::Degrade && c.hit > 0);
    let mean_hops = ratio(traced.hops_weight, traced.admitted as f64);
    m.push("engine.build_s", ns_to_s(traced.build_ns), "s", 1);
    m.push("engine.submit_busy_s", ns_to_s(traced.submit_ns()), "s", 1);
    m.push(
        "engine.submit_calls",
        traced.submits_ns.len() as f64,
        "count",
        0,
    );
    m.push(
        "engine.submit_self_us_p50",
        p(&us(&s.submit_self_ns), 0.5),
        "us",
        s.submit_self_ns.len(),
    );
    m.push("engine.submit_growth_x", growth, "x", submit_ms.len());
    m.push(
        "engine.view_snapshot_us_p50",
        p(&us(&s.snapshot_ns), 0.5),
        "us",
        s.snapshot_ns.len(),
    );
    m.push("engine.run_busy_s", ns_to_s(traced.run_ns()), "s", 1);
    m.push(
        "engine.run_ns_per_hop",
        ratio(traced.run_ns() as f64, r.delivered as f64 * mean_hops),
        "ns",
        traced.runs_ns.len(),
    );
    m.push(
        "engine.sim_s_per_wall_s",
        ratio(traced.sim_secs, ns_to_s(traced.run_ns())),
        "sim_s/s",
        traced.runs_ns.len(),
    );
    m.push("engine.fault_busy_s", ns_to_s(traced.fault_ns()), "s", 1);
    m.push(
        "engine.fault_calls",
        (traced.faults.len() + traced.restores_ns.len()) as f64,
        "count",
        0,
    );
    m.push(
        "engine.fault_noop_ms_p50",
        p(&crash_noop, 0.5),
        "ms",
        crash_noop.len(),
    );
    m.push(
        "engine.repair_ms_p95",
        p(&crash_hit, 0.95),
        "ms",
        crash_hit.len(),
    );
    m.push(
        "engine.degrade_ms_p50",
        p(&degrade_hit, 0.5),
        "ms",
        degrade_hit.len(),
    );
    m.push(
        "engine.restore_ms_p50",
        p(&ms(&traced.restores_ns), 0.5),
        "ms",
        traced.restores_ns.len(),
    );
    m.push("engine.repairs", r.repairs as f64, "count", 0);
    m.push("engine.recompositions", r.recompositions as f64, "count", 0);
    m.push(
        "engine.repair_share",
        ratio(r.repairs as f64, r.recompositions as f64),
        "ratio",
        0,
    );
    m.push(
        "engine.restored_frac",
        ratio(traced.restored() as f64, traced.hit() as f64),
        "ratio",
        traced.hit() as usize,
    );
    m.push(
        "engine.batch_conflicts_per_req",
        ratio(traced.batch_conflicts as f64, traced.submitted as f64),
        "ratio",
        0,
    );
    m.push(
        "engine.batch_replayed_per_req",
        ratio(traced.batch_replayed as f64, traced.submitted as f64),
        "ratio",
        0,
    );
    m.push(
        "engine.split_frac",
        ratio(r.split_requests as f64, r.composed as f64),
        "ratio",
        0,
    );
    m.push(
        "engine.components_per_app",
        ratio(r.components as f64, r.composed as f64),
        "count",
        0,
    );
    for (name, cause) in [
        ("engine.drops.net_sender", DropCause::NetSender),
        ("engine.drops.net_receiver", DropCause::NetReceiver),
        ("engine.drops.queue_full", DropCause::QueueFull),
        ("engine.drops.laxity", DropCause::Laxity),
        ("engine.drops.terminated", DropCause::Terminated),
        ("engine.drops.node_failed", DropCause::NodeFailed),
    ] {
        m.push(name, r.drops[cause as usize] as f64, "count", 0);
    }
    m.push(
        "engine.unit_delay_ms_p99",
        r.delay_quantile_ms(0.99).unwrap_or(0.0),
        "sim_ms",
        r.delivered as usize,
    );
    m.push("engine.drain_s", ns_to_s(traced.drain_ns()), "s", 1);

    // overlay, catalog: harness-owned copies.
    let st = &s.standalone;
    m.push(
        "overlay.build_s",
        sum_s(&s.overlay_build_ns),
        "s",
        s.overlay_build_ns.len(),
    );
    m.push(
        "overlay.route_us_p50",
        p(&st.route_us, 0.5),
        "us",
        st.route_us.len(),
    );
    m.push(
        "overlay.route_hops_mean",
        st.route_hops_mean,
        "count",
        st.route_us.len(),
    );
    m.push(
        "overlay.remove_ms_p50",
        p(&ms(&s.overlay_remove_ns), 0.5),
        "ms",
        s.overlay_remove_ns.len(),
    );
    m.push(
        "catalog.build_s",
        sum_s(&s.catalog_build_ns),
        "s",
        s.catalog_build_ns.len(),
    );
    m.push(
        "catalog.discover_us_p50",
        p(&us(&s.discover_ns), 0.5),
        "us",
        s.discover_ns.len(),
    );
    m.push(
        "catalog.discover_calls",
        s.discover_calls as f64,
        "count",
        0,
    );
    m.push(
        "catalog.handle_failure_us_p50",
        p(&us(&s.handle_failure_ns), 0.5),
        "us",
        s.handle_failure_ns.len(),
    );

    // view.
    m.push("view.build_us", ns_to_us(s.view_build_ns), "us", 1);
    m.push(
        "view.clone_from_us_p50",
        p(&us(&s.view_clone_ns), 0.5),
        "us",
        s.view_clone_ns.len(),
    );
    m.push(
        "view.select_linear_us_p50",
        p(&st.select_linear_us, 0.5),
        "us",
        st.select_linear_us.len(),
    );
    m.push(
        "view.select_indexed_us_p50",
        p(&st.select_indexed_us, 0.5),
        "us",
        st.select_indexed_us.len(),
    );
    m.push(
        "view.rollback_us_p50",
        p(&st.rollback_us, 0.5),
        "us",
        st.rollback_us.len(),
    );

    // compose.
    let compose_us = us(&s.compose_ns);
    let t1_ns: u64 = s.batch_t1.iter().map(|&(ns, _)| ns).sum();
    let t1_admitted: u64 = s.batch_t1.iter().map(|&(_, a)| a).sum();
    let t2_ns: u64 = s.batch_t2_ns.iter().sum();
    m.push(
        "compose.compose_us_p50",
        p(&compose_us, 0.5),
        "us",
        compose_us.len(),
    );
    m.push(
        "compose.compose_us_p95",
        p(&compose_us, 0.95),
        "us",
        compose_us.len(),
    );
    m.push("compose.calls", compose_us.len() as f64, "count", 0);
    m.push(
        "compose.reject_frac",
        ratio(s.compose_rejects as f64, compose_us.len() as f64),
        "ratio",
        compose_us.len(),
    );
    m.push(
        "compose.batch_us_per_app",
        ratio(ns_to_us(t1_ns), t1_admitted as f64),
        "us",
        s.batch_t1.len(),
    );
    m.push(
        "compose.batch_speedup_t2",
        ratio(t1_ns as f64, t2_ns as f64),
        "x",
        s.batch_t2_ns.len(),
    );
    m.push(
        "compose.batch_conflicts_per_req",
        ratio(s.batch_conflicts as f64, s.batch_requests as f64),
        "ratio",
        s.batch_t1.len(),
    );
    m.push(
        "compose.repair_us_p50",
        p(&us(&s.repair_ns), 0.5),
        "us",
        s.repair_ns.len(),
    );
    m.push(
        "compose.repair_decline_frac",
        ratio(s.repair_declines as f64, s.repair_ns.len() as f64),
        "ratio",
        s.repair_ns.len(),
    );
    m.push(
        "compose.cold_recompose_us_p50",
        p(&us(&s.cold_recompose_ns), 0.5),
        "us",
        s.cold_recompose_ns.len(),
    );

    // mincostflow: the layered networks rebuilt outside the composer.
    let tiers: u64 = s.mcf_repair_tiers.iter().sum();
    m.push(
        "mincostflow.solve_us_p50",
        p(&us(&s.mcf_solve_ns), 0.5),
        "us",
        s.mcf_solve_ns.len(),
    );
    m.push(
        "mincostflow.solve_simplex_us_p50",
        p(&us(&s.mcf_simplex_ns), 0.5),
        "us",
        s.mcf_simplex_ns.len(),
    );
    m.push(
        "mincostflow.arcs_mean",
        mean(&s.mcf_arcs).unwrap_or(0.0),
        "count",
        s.mcf_arcs.len(),
    );
    m.push(
        "mincostflow.nodes_mean",
        mean(&s.mcf_nodes).unwrap_or(0.0),
        "count",
        s.mcf_nodes.len(),
    );
    m.push(
        "mincostflow.repair_us_p50",
        p(&us(&s.mcf_repair_ns), 0.5),
        "us",
        s.mcf_repair_ns.len(),
    );
    for (name, k) in [
        ("mincostflow.repair_tier_share.warm_basis", 0),
        ("mincostflow.repair_tier_share.phased", 1),
        ("mincostflow.repair_tier_share.spfa", 2),
    ] {
        m.push(
            name,
            ratio(s.mcf_repair_tiers[k] as f64, tiers as f64),
            "ratio",
            tiers as usize,
        );
    }

    // desim, simnet, sched, monitor: standalone, after the lifecycle.
    m.push("desim.queue_ns_per_event", st.queue_ns_per_event, "ns", 1);
    m.push("desim.queue_pending", st.queue_pending, "count", 0);
    m.push("desim.pool_call_us", st.pool_call_us, "us", 1);
    m.push(
        "simnet.topology_build_s",
        ns_to_s(s.topology_build_ns),
        "s",
        1,
    );
    m.push(
        "simnet.send_ns_p50",
        p(&st.send_ns, 0.5),
        "ns",
        st.send_ns.len(),
    );
    m.push("sched.llf_ns_per_job", st.llf_ns_per_job, "ns", 1);
    m.push(
        "monitor.meter_ns_per_record",
        st.meter_ns_per_record,
        "ns",
        1,
    );
    m.push(
        "monitor.window_ns_per_outcome",
        st.window_ns_per_outcome,
        "ns",
        1,
    );

    // workload (the harness itself) and the trace.
    m.push(
        "workload.gen_us_per_req",
        ratio(ns_to_us(base.schedule_gen_ns), base.submitted as f64),
        "us",
        1,
    );
    m.push(
        "workload.harness_overhead_frac",
        ratio(base.harness_ns as f64, base.lifecycle_ns as f64),
        "ratio",
        1,
    );
    m.push("trace.spans", spans as f64, "count", 0);
    m.push(
        "trace.overhead_frac",
        ratio(traced.lifecycle_ns as f64, base.lifecycle_ns as f64) - 1.0,
        "ratio",
        1,
    );
    m.push(
        "trace.submit_coverage_frac",
        ratio(s.submit_children_ns as f64, s.submit_root_ns as f64),
        "ratio",
        s.submit_self_ns.len(),
    );
    m
}
