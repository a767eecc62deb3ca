//! The repository's end-to-end benchmark: one lifecycle driver, four
//! workloads, end-to-end metrics from untraced repetitions and a per-layer
//! budget from a separate traced repetition. See README.md.
#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod driver;
pub mod json;
pub mod metrics;
pub mod replay;
pub mod stats;
pub mod trace;
pub mod workloads;

use driver::{batch_threads, noise_floor, run_lifecycle, set_up_only, Lifecycle, NoProbe};
use metrics::Metrics;
use replay::Replay;
use stats::{median, ns_to_s};
use std::path::PathBuf;
use std::time::Instant;
use workloads::Spec;

/// An untraced run repeats the lifecycle at least this often.
const MIN_REPS: usize = 3;
/// `setup_s` is the least of at least this many set-ups when one takes
/// less than [`SMALL_SETUP_S`].
const MIN_SMALL_SETUPS: usize = 20;
const SMALL_SETUP_S: f64 = 0.05;

/// What to run.
#[derive(Clone, Debug)]
pub struct Options {
    /// The workload.
    pub spec: Spec,
    /// Input seed: reaches the generators in `workloads` and nothing else.
    pub seed: u64,
    /// Untraced runs repeat the lifecycle until this much wall time has
    /// gone into repetitions (but at least [`MIN_REPS`] times).
    pub seconds: f64,
    /// Traced run (per-layer metrics) instead of untraced (end-to-end).
    pub trace: bool,
    /// Where the traced run writes `trace-<workload>.jsonl`; `None` keeps
    /// the spans in memory only.
    pub out_dir: Option<PathBuf>,
}

/// One correctness check and what it found.
#[derive(Clone, Debug)]
pub struct Check {
    /// Short name.
    pub name: &'static str,
    /// Whether it held.
    pub ok: bool,
    /// What was compared.
    pub detail: String,
}

/// What a run produced.
#[derive(Clone, Debug)]
pub struct Outcome {
    /// Every check held.
    pub correct: bool,
    /// Requests submitted plus live apps that faults touched.
    pub attempted: u64,
    /// Operations whose outcome contradicted the engine's own books.
    /// (A refused request or an app lost to a fault is an answer, not an
    /// error: those are `admitted_frac` and `restored_frac`.)
    pub failed: u64,
    /// End-to-end metrics (untraced) or per-layer metrics (traced).
    pub metrics: Metrics,
    /// The checks behind `correct`.
    pub checks: Vec<Check>,
    /// Wall time of each timed lifecycle repetition, in seconds (the
    /// audited one not counted).
    pub rep_lifecycle_s: Vec<f64>,
}

/// Machine context printed with every run and stored with every result.
pub fn context() -> Vec<(&'static str, String)> {
    let nproc = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    vec![
        ("nproc", nproc.to_string()),
        ("batch_threads", batch_threads().to_string()),
        ("arch", std::env::consts::ARCH.to_string()),
        ("os", std::env::consts::OS.to_string()),
    ]
}

/// Peak resident set of this process so far, in MB (`VmHWM`; 0 where
/// `/proc` is not available).
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

fn check(name: &'static str, ok: bool, detail: String) -> Check {
    Check { name, ok, detail }
}

/// Checks every repetition shares: the harness's per-operation books, and
/// that the lifecycle did something.
fn common_checks(reps: &[&Lifecycle]) -> Vec<Check> {
    let first = reps[0];
    let errors: u64 = reps.iter().map(|l| l.harness_errors).sum();
    let notes: Vec<&String> = reps.iter().flat_map(|l| &l.error_notes).take(4).collect();
    let same = reps
        .iter()
        .all(|l| l.deterministic_counts() == first.deterministic_counts());
    vec![
        check(
            "books",
            errors == 0,
            format!("{errors} operations contradicted the engine's counters {notes:?}"),
        ),
        check(
            "repeat",
            same,
            format!(
                "{} repetitions on the same inputs: digest {:016x}, admitted {}, rejected {}, generated {}, delivered {}, repairs {}, recompositions {}, batch conflicts {}",
                reps.len(),
                first.digest,
                first.admitted,
                first.report.rejected,
                first.report.generated,
                first.report.delivered,
                first.report.repairs,
                first.report.recompositions,
                first.batch_conflicts,
            ),
        ),
        check(
            "alive",
            first.admitted > 0 && first.report.delivered > 0 && !first.faults.is_empty(),
            format!(
                "submitted {}, admitted {}, delivered {}, fault calls {}, skipped {}",
                first.submitted,
                first.admitted,
                first.report.delivered,
                first.faults.len(),
                first.skipped
            ),
        ),
    ]
}

/// Runs one workload once, untraced or traced.
pub fn run(opts: &Options) -> Outcome {
    if opts.trace {
        run_traced(opts)
    } else {
        run_untraced(opts)
    }
}

fn run_untraced(opts: &Options) -> Outcome {
    let started = Instant::now();
    let mut reps: Vec<Lifecycle> = Vec::new();
    let mut last = 0.0;
    // Time-boxed: stop when the next repetition would overrun `seconds`.
    while reps.len() < MIN_REPS || started.elapsed().as_secs_f64() + last <= opts.seconds {
        let t = Instant::now();
        reps.push(run_lifecycle(&opts.spec, opts.seed, false, &mut NoProbe));
        last = t.elapsed().as_secs_f64();
    }
    let mut setup_s: Vec<f64> = reps.iter().map(|l| ns_to_s(l.setup_ns)).collect();
    while setup_s.len() < MIN_SMALL_SETUPS
        && median(&setup_s).expect("at least one repetition") < SMALL_SETUP_S
    {
        setup_s.push(ns_to_s(set_up_only(&opts.spec, opts.seed)));
    }
    // Before the audited repetition, whose auditor holds a bitset per
    // substream and a view copy per rejection.
    let rss = peak_rss_mb();

    // Correctness gate: one more repetition, untimed, with the engine's
    // invariant auditor on. Zero violations, and the same outcome.
    let audited = run_lifecycle(&opts.spec, opts.seed, true, &mut NoProbe);
    let mut checks = common_checks(&reps.iter().collect::<Vec<_>>());
    checks.push(check(
        "audit",
        audited.audit_violations == 0
            && audited.audit_checkpoints > 0
            && audited.harness_errors == 0
            && audited.deterministic_counts()[1..] == reps[0].deterministic_counts()[1..],
        format!(
            "audited repetition: {} violations over {} checkpoints, counts {} {:?}",
            audited.audit_violations,
            audited.audit_checkpoints,
            if audited.deterministic_counts()[1..] == reps[0].deterministic_counts()[1..] {
                "identical to the timed repetitions"
            } else {
                "DIFFER from the timed repetitions"
            },
            audited.audit_notes,
        ),
    ));
    let metrics = metrics::end_to_end(&noise_floor(&reps), &setup_s, rss);
    let rep_s = reps.iter().map(|l| ns_to_s(l.lifecycle_ns)).collect();
    finish(&reps[0], metrics, checks, rep_s)
}

fn run_traced(opts: &Options) -> Outcome {
    let base = run_lifecycle(&opts.spec, opts.seed, false, &mut NoProbe);
    let mut replay = Replay::new(opts.spec.probe_ops);
    let traced = run_lifecycle(&opts.spec, opts.seed, false, &mut replay);
    replay.finish();
    let mut checks = common_checks(&[&base, &traced]);
    if let Some(dir) = &opts.out_dir {
        let path = dir.join(format!("trace-{}.jsonl", opts.spec.name));
        let written = replay.tracer.write_jsonl(&path);
        checks.push(check(
            "trace_file",
            written.is_ok(),
            format!(
                "{} spans to {} {:?}",
                replay.tracer.spans().len(),
                path.display(),
                written.err()
            ),
        ));
    }
    let metrics = metrics::per_layer(&base, &traced, &replay.samples, replay.tracer.spans().len());
    let rep_s = [&base, &traced].map(|l| ns_to_s(l.lifecycle_ns)).to_vec();
    finish(&base, metrics, checks, rep_s)
}

fn finish(
    first: &Lifecycle,
    metrics: Metrics,
    mut checks: Vec<Check>,
    rep_lifecycle_s: Vec<f64>,
) -> Outcome {
    let bad: Vec<&str> = metrics
        .0
        .iter()
        .filter(|m| !m.value.is_finite())
        .map(|m| m.name)
        .collect();
    checks.push(check(
        "finite",
        bad.is_empty(),
        format!("{} metrics, non-finite: {bad:?}", metrics.0.len()),
    ));
    Outcome {
        correct: checks.iter().all(|c| c.ok),
        attempted: first.submitted + first.hit(),
        failed: first.harness_errors,
        metrics,
        checks,
        rep_lifecycle_s,
    }
}

impl Outcome {
    /// The one-line JSON object the benchmark contract asks for.
    pub fn to_json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .0
            .iter()
            .map(|m| {
                format!(
                    "{}: {{\"value\": {}, \"unit\": {}}}",
                    json::quote(m.name),
                    if m.value.is_finite() { m.value } else { 0.0 },
                    json::quote(m.unit)
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct,
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}
