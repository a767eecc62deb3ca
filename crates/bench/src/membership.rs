//! The `overlay/` bench family: what one membership operation of the
//! Pastry substrate costs at the sizes the lifecycle benchmark runs
//! (`churn1k`, `burst4k`), over the same `power_law` proximity metric
//! the engine hands to [`Overlay::build`].
//!
//! * `overlay/build/{n}` — converged construction of `n` nodes,
//! * `overlay/proximity_evals/{n}` — how many times that construction
//!   calls the proximity metric (exact: a counting closure),
//! * `overlay/remove/{n}` — one crash: table eviction plus leaf-set
//!   repair (fresh copy per sample, copy untimed),
//! * `overlay/owner_of/{n}` — the member responsible for a key,
//! * `overlay/replica_group/{n}` — owner plus its two ring-nearest
//!   members, as every `Dht` insert / remove / repair resolves it.

use crate::microbench::{bench_or_smoke, black_box, from_samples, record_value, Measurement};
use desim::SimRng;
use overlay::{NodeKey, Overlay};
use simnet::{kbps, Topology};
use std::cell::Cell;
use std::time::Instant;

/// Overlay sizes measured.
pub const SIZES: [usize; 2] = [1_000, 4_000];

/// Members crashed per `overlay/remove` sample.
const REMOVES_PER_SAMPLE: u64 = 64;

/// Runs the family. `quick` cuts the sample counts for smoke runs.
pub fn family(quick: bool) -> Vec<Measurement> {
    let samples = if quick { 3 } else { 7 };
    let mut out = Vec::new();
    for n in SIZES {
        let topology = Topology::power_law(n, kbps(300.0), kbps(3000.0), 42);
        let proximity = |a: usize, b: usize| topology.latency(a, b).as_millis_f64();
        let mut base = None;
        let build_ns = (0..samples).map(|_| {
            let start = Instant::now();
            base = Some(black_box(Overlay::build(n, 42, &proximity)));
            start.elapsed().as_secs_f64() * 1e9
        });
        out.push(from_samples(
            &format!("overlay/build/{n}"),
            1,
            build_ns.collect(),
        ));
        let base = base.expect("at least one sample");
        out.push(proximity_evals(n, &proximity));

        let mut rng = SimRng::new(43);
        let remove_ns = (0..samples).map(|_| {
            let mut ov = base.clone();
            let victims = rng.sample_indices(n, REMOVES_PER_SAMPLE as usize);
            let start = Instant::now();
            for v in victims {
                ov.remove(v);
            }
            let per_op = start.elapsed().as_secs_f64() * 1e9 / REMOVES_PER_SAMPLE as f64;
            black_box(ov.alive_count());
            per_op
        });
        out.push(from_samples(
            &format!("overlay/remove/{n}"),
            REMOVES_PER_SAMPLE,
            remove_ns.collect(),
        ));

        let mut rng = SimRng::new(44);
        let mut random_key =
            move || NodeKey(((rng.next_u64() as u128) << 64) | rng.next_u64() as u128);
        let name = format!("overlay/owner_of/{n}");
        out.push(bench_or_smoke(quick, &name, || {
            black_box(base.owner_of(random_key()));
        }));
        let name = format!("overlay/replica_group/{n}");
        out.push(bench_or_smoke(quick, &name, || {
            let owner = base.owner_of(random_key());
            black_box(base.nearest_members(base.key_of(owner), 3));
        }));
    }
    out
}

/// `overlay/proximity_evals/{n}`: the calls one `n`-node build makes to
/// `proximity`, counted exactly.
fn proximity_evals(n: usize, proximity: &impl Fn(usize, usize) -> f64) -> Measurement {
    let evals = Cell::new(0u64);
    let counting = |a: usize, b: usize| {
        evals.set(evals.get() + 1);
        proximity(a, b)
    };
    black_box(Overlay::build(n, 42, &counting));
    record_value(
        &format!("overlay/proximity_evals/{n}"),
        evals.get() as f64,
        "evals",
    )
}
