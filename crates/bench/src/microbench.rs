//! Self-contained microbenchmark harness (no external bench framework).
//!
//! Timing model: per benchmark, the op is warmed up, an iteration count
//! is calibrated so one sample runs for a fixed wall-time budget, then a
//! handful of samples are taken and the **median** ns/op is reported
//! (median over samples is robust to scheduler noise without needing
//! criterion's full bootstrap machinery). Results render to a compact
//! JSON document (`BENCH_compose.json`) so successive runs can be
//! diffed mechanically.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::time::{Duration, Instant};

pub use std::hint::black_box;

/// Global heap-allocation counter, bumped by the counting allocator the
/// `repro` binary installs (this library is `forbid(unsafe_code)`, so
/// the `GlobalAlloc` shim lives in the binary; see `bin/repro.rs`).
/// Library code only reads it.
pub static ALLOC_COUNT: AtomicU64 = AtomicU64::new(0);

/// Whether the counting allocator should count at all. Off by default:
/// an unconditional `fetch_add` on one shared cache line turns every
/// allocation in the process into cross-core traffic, which measurably
/// drags the parallel sweep benches. [`count_allocations`] flips it on
/// only around the section being audited.
pub static ALLOC_COUNT_ENABLED: AtomicBool = AtomicBool::new(false);

/// Runs `op` and returns how many heap allocations it performed.
/// Meaningful only under a counting global allocator that bumps
/// [`ALLOC_COUNT`] while [`ALLOC_COUNT_ENABLED`] is set; without one it
/// returns 0. Not reentrant and not thread-aware: counts every
/// allocation process-wide while `op` runs.
pub fn count_allocations<F: FnOnce()>(op: F) -> u64 {
    let before = ALLOC_COUNT.load(Ordering::Relaxed);
    ALLOC_COUNT_ENABLED.store(true, Ordering::Relaxed);
    op();
    ALLOC_COUNT_ENABLED.store(false, Ordering::Relaxed);
    ALLOC_COUNT.load(Ordering::Relaxed) - before
}

/// One benchmark's aggregated result.
#[derive(Clone, Debug)]
pub struct Measurement {
    /// Benchmark id, e.g. `"compose_rollback/mincost/32"`.
    pub name: String,
    /// Unit of `value`: `"ns/op"` for timings (smaller is better) or
    /// `"units/s"` for throughput (bigger is better). The regression
    /// tripwire in `scripts/verify.sh` keys its direction off this.
    pub unit: String,
    /// Headline value in `unit` (median across samples for timings).
    pub value: f64,
    /// Smallest sample's value.
    pub min: f64,
    /// Largest sample's value.
    pub max: f64,
    /// Iterations per sample (calibrated), or ops per run for rates.
    pub iters: u64,
    /// Number of samples taken.
    pub samples: usize,
    /// Free-form annotation carried into the JSON report. The one
    /// meaningful value today is `"ap1"`: the entry measures parallel
    /// scaling but was taken on a box with `available_parallelism == 1`,
    /// so `scripts/verify.sh` must not treat it as a scaling reference.
    pub note: Option<String>,
    /// Effective worker count the measured code ran with (the
    /// `desim::pool` thread count), for entries that exercise a parallel
    /// path. `None` for single-threaded benches. Recorded per entry so
    /// downstream tooling (the `"ap1"` annotation, `scripts/verify.sh`'s
    /// scaling skip) derives machine context from the JSON itself
    /// instead of guessing from benchmark names.
    pub threads: Option<usize>,
}

impl Measurement {
    /// Attaches an annotation (see [`Measurement::note`]).
    pub fn with_note(mut self, note: &str) -> Self {
        self.note = Some(note.to_string());
        self
    }

    /// Records the effective worker count (see [`Measurement::threads`]).
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.threads = Some(threads);
        self
    }

    /// Renders a single aligned report line.
    pub fn line(&self) -> String {
        format!(
            "{:<44} {:>14} {:<7} (min {:>12}, max {:>12}, {} x {} iters)",
            self.name,
            fmt_ns(self.value),
            self.unit,
            fmt_ns(self.min),
            fmt_ns(self.max),
            self.samples,
            self.iters,
        )
    }
}

fn fmt_ns(ns: f64) -> String {
    if ns >= 1e6 {
        format!("{:.1}", ns)
    } else {
        format!("{:.2}", ns)
    }
}

/// Times `op` with the default budget: ~25 ms per sample, 7 samples.
pub fn bench<F: FnMut()>(name: &str, op: F) -> Measurement {
    bench_config(name, Duration::from_millis(25), 7, op)
}

/// [`bench`], or under `quick` a 4 ms × 3-sample smoke run.
pub fn bench_or_smoke<F: FnMut()>(quick: bool, name: &str, op: F) -> Measurement {
    if quick {
        bench_config(name, Duration::from_millis(4), 3, op)
    } else {
        bench(name, op)
    }
}

/// Times `op` with an explicit per-sample budget and sample count.
pub fn bench_config<F: FnMut()>(
    name: &str,
    target_sample: Duration,
    samples: usize,
    mut op: F,
) -> Measurement {
    assert!(samples >= 1, "need at least one sample");
    // Warmup + calibration: double the batch until it runs long enough
    // to estimate the per-op cost reliably.
    let mut iters: u64 = 1;
    let per_op_estimate = loop {
        let elapsed = time_batch(&mut op, iters);
        if elapsed >= Duration::from_millis(2) || iters >= 1 << 24 {
            break elapsed.as_secs_f64() / iters as f64;
        }
        iters *= 2;
    };
    let iters_per_sample =
        ((target_sample.as_secs_f64() / per_op_estimate.max(1e-12)).ceil() as u64).max(1);

    let per_sample_ns = (0..samples)
        .map(|_| {
            let elapsed = time_batch(&mut op, iters_per_sample);
            elapsed.as_secs_f64() * 1e9 / iters_per_sample as f64
        })
        .collect();
    from_samples(name, iters_per_sample, per_sample_ns)
}

/// Aggregates externally timed samples (ns per operation, `iters`
/// operations each) into a median/min/max timing — for operations whose
/// set-up must stay outside the timed region, which [`bench`]'s closure
/// cannot express.
pub fn from_samples(name: &str, iters: u64, mut per_sample_ns: Vec<f64>) -> Measurement {
    let samples = per_sample_ns.len();
    assert!(samples >= 1, "need at least one sample");
    per_sample_ns.sort_by(|a, b| a.total_cmp(b));
    let median = if samples % 2 == 1 {
        per_sample_ns[samples / 2]
    } else {
        (per_sample_ns[samples / 2 - 1] + per_sample_ns[samples / 2]) / 2.0
    };
    Measurement {
        name: name.to_string(),
        unit: "ns/op".to_string(),
        value: median,
        min: per_sample_ns[0],
        max: per_sample_ns[samples - 1],
        iters,
        samples,
        note: None,
        threads: None,
    }
}

/// Records a single already-measured wall time (for second-scale runs
/// like whole sweeps, where repeated sampling is too expensive).
pub fn record_wall(name: &str, elapsed: Duration) -> Measurement {
    Measurement {
        name: name.to_string(),
        unit: "ns/op".to_string(),
        value: elapsed.as_secs_f64() * 1e9,
        min: elapsed.as_secs_f64() * 1e9,
        max: elapsed.as_secs_f64() * 1e9,
        iters: 1,
        samples: 1,
        note: None,
        threads: None,
    }
}

/// Records a throughput: `ops` operations completed in `elapsed` wall
/// time, reported as `units/s` (bigger is better — the regression
/// tripwire inverts its comparison for this unit).
pub fn record_rate(name: &str, ops: u64, elapsed: Duration) -> Measurement {
    let per_sec = ops as f64 / elapsed.as_secs_f64().max(1e-12);
    Measurement {
        name: name.to_string(),
        unit: "units/s".to_string(),
        value: per_sec,
        min: per_sec,
        max: per_sec,
        iters: ops,
        samples: 1,
        note: None,
        threads: None,
    }
}

/// Records a dimensionless ratio — e.g. a speedup of one benchmark over
/// another — reported as `x` (bigger is better; the regression tripwire
/// inverts its comparison for this unit, like `units/s`).
pub fn record_ratio(name: &str, ratio: f64) -> Measurement {
    Measurement {
        name: name.to_string(),
        unit: "x".to_string(),
        value: ratio,
        min: ratio,
        max: ratio,
        iters: 1,
        samples: 1,
        note: None,
        threads: None,
    }
}

/// Records a bare counter in an explicit unit — e.g. simplex pivots per
/// repair. Counter units are outside the regression tripwire's keyed
/// set (`ns/op`, `units/s`, `x`), so these entries are tracked in the
/// diff without a pass/fail direction.
pub fn record_value(name: &str, value: f64, unit: &str) -> Measurement {
    Measurement {
        name: name.to_string(),
        unit: unit.to_string(),
        value,
        min: value,
        max: value,
        iters: 1,
        samples: 1,
        note: None,
        threads: None,
    }
}

fn time_batch<F: FnMut()>(op: &mut F, iters: u64) -> Duration {
    let start = Instant::now();
    for _ in 0..iters {
        op();
    }
    start.elapsed()
}

/// Renders the measurements (plus free-form string context) as a JSON
/// document. All context values are emitted as JSON strings.
pub fn render_json(context: &[(&str, String)], results: &[Measurement]) -> String {
    let mut out = String::from("{\n  \"context\": {");
    for (i, (k, v)) in context.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&format!("\n    {}: {}", json_string(k), json_string(v)));
    }
    out.push_str("\n  },\n  \"benchmarks\": [");
    for (i, m) in results.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let mut note = match &m.note {
            Some(n) => format!(", \"note\": {}", json_string(n)),
            None => String::new(),
        };
        if let Some(t) = m.threads {
            note.push_str(&format!(", \"threads\": {t}"));
        }
        out.push_str(&format!(
            "\n    {{\"name\": {}, \"unit\": {}, \"value\": {:.2}, \"min\": {:.2}, \
             \"max\": {:.2}, \"iters\": {}, \"samples\": {}{}}}",
            json_string(&m.name),
            json_string(&m.unit),
            m.value,
            m.min,
            m.max,
            m.iters,
            m.samples,
            note
        ));
    }
    out.push_str("\n  ]\n}\n");
    out
}

fn json_string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bench_measures_something_positive() {
        let mut acc = 0u64;
        let m = bench_config("noop-ish", Duration::from_millis(1), 3, || {
            acc = black_box(acc.wrapping_add(1));
        });
        assert!(m.value > 0.0);
        assert!(m.min <= m.value && m.value <= m.max);
        assert_eq!(m.unit, "ns/op");
        assert_eq!(m.samples, 3);
        assert!(m.iters >= 1);
    }

    #[test]
    fn json_is_well_formed_enough() {
        let m = Measurement {
            name: "a\"b".into(),
            unit: "ns/op".into(),
            value: 12.5,
            min: 10.0,
            max: 15.0,
            iters: 100,
            samples: 5,
            note: None,
            threads: None,
        };
        let noted = record_ratio("scaled", 2.0).with_note("ap1").with_threads(3);
        let doc = render_json(&[("threads", "4".to_string())], &[m, noted]);
        assert!(doc.contains("\"a\\\"b\""));
        assert!(doc.contains("\"unit\": \"ns/op\""));
        assert!(doc.contains("\"value\": 12.50"));
        assert!(doc.contains("\"threads\": \"4\""));
        assert!(doc.contains("\"note\": \"ap1\""));
        // Per-entry worker count rides next to the note as a JSON number.
        assert!(doc.contains("\"note\": \"ap1\", \"threads\": 3"));
        // Balanced braces/brackets (cheap structural sanity check).
        assert_eq!(doc.matches('{').count(), doc.matches('}').count());
        assert_eq!(doc.matches('[').count(), doc.matches(']').count());
    }

    #[test]
    fn record_wall_is_identity() {
        let m = record_wall("sweep", Duration::from_millis(3));
        assert!((m.value - 3e6).abs() < 1.0);
        assert_eq!(m.iters, 1);
    }

    #[test]
    fn record_ratio_reports_x_unit() {
        let m = record_ratio("adapt/basis_crash_speedup/6x24", 21.4);
        assert_eq!(m.unit, "x");
        assert!((m.value - 21.4).abs() < 1e-9);
        let line = m.line();
        assert!(line.contains(" x "), "{line}");
    }

    #[test]
    fn record_rate_divides_ops_by_wall() {
        let m = record_rate("dataplane/x", 5_000, Duration::from_millis(250));
        assert_eq!(m.unit, "units/s");
        assert!((m.value - 20_000.0).abs() < 1e-6);
        assert_eq!(m.iters, 5_000);
        // The report line carries the unit in the third column, which is
        // what the verify.sh tripwire keys on.
        let line = m.line();
        assert!(line.contains("units/s"), "{line}");
    }
}
