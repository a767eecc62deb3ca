//! Data-plane throughput benchmark: the `units/sec` headline metric.
//!
//! Each cell drives a fixed fleet of single-service chains through an
//! engine and reports *data units generated per wall-clock second* — the
//! rate at which the simulator can push units through the full pipeline
//! (source emission, link transfer, CPU service, destination delivery).
//! Two variants:
//!
//! * `perunit` — one link transfer and one CPU burst per unit (the
//!   engine's default, and the per-unit plane of §3.4),
//! * `batch32` — 32 units coalesced per transfer and per burst.
//!
//! Rows:
//!
//! * `dataplane/units_per_sec/<variant>/<apps>` — median, min and max
//!   over [`SAMPLES`] consecutive horizons of one warmed engine,
//! * `dataplane/events_per_unit/<variant>/48` — queue events delivered
//!   per delivered unit over a fixed horizon: an exact work count that
//!   moves only when the data plane's event structure does,
//! * `dataplane/meter_entries/<variant>/48` — throughput-meter entries
//!   held at the end of that horizon: the exact size of the monitoring
//!   state.
//!
//! Apps are pinned one-per-provider (each app's service is offered by
//! exactly one node), so the pipeline shape is identical across
//! variants and seeds; `exec_noise_sigma = 0` makes every run fully
//! deterministic, so the generated-unit count is a property of the cell,
//! not the variant. Bigger is better: `scripts/verify.sh` inverts its
//! regression tripwire for the `units/s` unit.

use crate::microbench::{count_allocations, from_samples, record_value, Measurement};
use desim::SimDuration;
use rasc_core::compose::ComposerKind;
use rasc_core::engine::{Engine, EngineConfig};
use rasc_core::model::{Service, ServiceCatalog, ServiceRequest};
use simnet::{kbps, TopologyBuilder};
use std::time::Instant;

/// One data-plane engine configuration under measurement.
#[derive(Clone, Copy, Debug)]
pub struct DataplaneVariant {
    /// Bench id component, e.g. `"batch32"`.
    pub label: &'static str,
    /// Units coalesced per link transfer (1 = per-unit reference plane).
    pub batch: u32,
}

/// The measured variants, per-unit reference first.
pub const VARIANTS: [DataplaneVariant; 2] = [
    DataplaneVariant {
        label: "perunit",
        batch: 1,
    },
    DataplaneVariant {
        label: "batch32",
        batch: 32,
    },
];

/// Timed horizons per `units_per_sec` row.
const SAMPLES: usize = 5;

/// Concurrent single-service apps per cell (the bench size axis). Each
/// app gets its own provider node, so the largest size is also the
/// largest event-queue population.
pub const SIZES: [usize; 3] = [2, 8, 48];

/// Data units per second each app's source emits.
const APP_RATE: f64 = 2_000.0;

/// Builds the cell's engine: `apps` provider nodes (provider `i` alone
/// offers service `i`), a source and a destination endpoint, generous
/// NICs (the bench measures the simulator, not admission), and a cheap
/// deterministic service so the CPU keeps up with the offered rate.
fn build_engine(apps: usize, variant: DataplaneVariant) -> Engine {
    let nodes = apps + 2;
    let catalog = ServiceCatalog::new(
        (0..apps)
            .map(|id| Service {
                id,
                name: format!("dataplane-{id}"),
                exec_time: SimDuration::from_micros(100),
                rate_ratio: 1.0,
            })
            .collect(),
    );
    let mut b = TopologyBuilder::new().default_latency(SimDuration::from_millis(2));
    for _ in 0..nodes {
        b.node(kbps(10_000_000.0), kbps(10_000_000.0));
    }
    let mut offers: Vec<Vec<usize>> = (0..apps).map(|i| vec![i]).collect();
    offers.push(vec![]);
    offers.push(vec![]);
    Engine::builder(nodes, catalog, 7)
        .topology(b.build())
        .offers(offers)
        .config(EngineConfig {
            composer: ComposerKind::MinCost,
            transfer_batch: variant.batch,
            exec_noise_sigma: 0.0,
            ..Default::default()
        })
        .build()
}

/// Builds, submits, and warms up one cell's engine (0.5 s of simulated
/// traffic, so stores, pools, and the event queue reach steady state).
fn warmed_engine(apps: usize, variant: DataplaneVariant) -> Engine {
    let mut e = build_engine(apps, variant);
    let src = apps;
    let dst = apps + 1;
    for i in 0..apps {
        e.submit(ServiceRequest::chain(&[i], APP_RATE, src, dst))
            .expect("dataplane cell must compose");
    }
    e.run_for_secs(0.5);
    e
}

/// Measures one cell: wall-clocks [`SAMPLES`] consecutive horizons of
/// `horizon_secs` simulated traffic on one warmed engine and reports
/// generated units per wall second as
/// `dataplane/units_per_sec/<variant>/<apps>`.
pub fn throughput(apps: usize, variant: DataplaneVariant, horizon_secs: f64) -> Measurement {
    let mut e = warmed_engine(apps, variant);
    let mut units = 0;
    let rates = (0..SAMPLES)
        .map(|_| {
            let before = e.report().generated;
            let start = Instant::now();
            e.run_for_secs(horizon_secs);
            let wall = start.elapsed().as_secs_f64();
            units = e.report().generated - before;
            units as f64 / wall.max(1e-12)
        })
        .collect();
    let name = format!("dataplane/units_per_sec/{}/{apps}", variant.label);
    Measurement {
        unit: "units/s".to_string(),
        ..from_samples(&name, units, rates)
    }
}

/// Two exact work counts from build through one simulated second past
/// warm-up: queue events delivered per delivered unit, as
/// `dataplane/events_per_unit/<variant>/<apps>` (`iters` carries the
/// exact event count), and the entries every node's throughput meters
/// hold at the end of that horizon, as
/// `dataplane/meter_entries/<variant>/<apps>`. Deterministic: they
/// depend only on the engine's event structure and monitor state.
pub fn work_counts(apps: usize, variant: DataplaneVariant) -> [Measurement; 2] {
    let mut e = warmed_engine(apps, variant);
    e.run_for_secs(1.0);
    let fired = e.events_fired();
    let row = |family: &str| format!("dataplane/{family}/{}/{apps}", variant.label);
    [
        Measurement {
            iters: fired,
            ..record_value(
                &row("events_per_unit"),
                fired as f64 / e.report().delivered as f64,
                "events/unit",
            )
        },
        record_value(&row("meter_entries"), e.meter_entries() as f64, "entries"),
    ]
}

/// Heap allocations during one simulated second of steady-state traffic
/// on a warmed engine. The SoA unit store, batch pool, pooled CPU/run
/// vectors, and the event queue's heap and slab must all be at capacity
/// after warm-up, so this is asserted to be zero by `repro bench`.
pub fn steady_state_allocs(apps: usize, variant: DataplaneVariant) -> u64 {
    let mut e = warmed_engine(apps, variant);
    // The bandwidth meters hold a sliding window of (time, bits) pairs
    // covering `measure_window_secs` (4 s) of traffic; their deques only
    // stop growing once a full window has elapsed. Warm well past that.
    e.run_for_secs(7.5);
    count_allocations(|| e.run_for_secs(1.0))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cells_generate_and_deliver() {
        for variant in VARIANTS {
            let mut e = warmed_engine(2, variant);
            e.run_for_secs(1.0);
            let r = e.report();
            // 2 apps x 2000 units/s x 1.5 s simulated.
            assert!(r.generated >= 5_000, "{}: {}", variant.label, r.generated);
            assert!(
                r.delivered as f64 >= 0.9 * r.generated as f64,
                "{}: delivered {} of {}",
                variant.label,
                r.delivered,
                r.generated
            );
        }
    }

    #[test]
    fn generated_count_is_variant_independent() {
        // Same simulated horizon => same offered load, whatever the
        // batch size. Units/sec differences are wall time,
        // never workload drift. A batched source emits whole bursts, so
        // at the horizon cutoff counts may differ by up to one burst per
        // app — but no more.
        let counts: Vec<u64> = VARIANTS
            .iter()
            .map(|&v| {
                let mut e = warmed_engine(2, v);
                e.run_for_secs(1.0);
                e.report().generated
            })
            .collect();
        let max_batch = VARIANTS.iter().map(|v| v.batch as u64).max().unwrap();
        let spread = counts.iter().max().unwrap() - counts.iter().min().unwrap();
        assert!(
            spread <= 2 * max_batch,
            "generated counts diverge beyond burst granularity: {counts:?}"
        );
    }

    #[test]
    fn throughput_reports_rate_unit() {
        let m = throughput(2, VARIANTS[0], 0.1);
        assert_eq!(m.unit, "units/s");
        assert_eq!(m.samples, SAMPLES);
        assert!(0.0 < m.min && m.min <= m.value && m.value <= m.max);
        assert_eq!(m.name, "dataplane/units_per_sec/perunit/2");
    }

    #[test]
    fn events_per_unit_is_exact_and_batching_cuts_it() {
        let [perunit, batch32] = VARIANTS;
        let [a, meters] = work_counts(2, perunit);
        assert_eq!(a.name, "dataplane/events_per_unit/perunit/2");
        assert_eq!(meters.name, "dataplane/meter_entries/perunit/2");
        let [again, meters_again] = work_counts(2, perunit);
        assert_eq!(a.value, again.value);
        assert_eq!(meters.value, meters_again.value);
        assert!(meters.value > 0.0);
        assert!(work_counts(2, batch32)[0].value < a.value / 4.0);
    }
}
