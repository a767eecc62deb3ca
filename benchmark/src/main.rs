//! Command line of the benchmark. `run.sh` builds this and passes its
//! arguments through.
//!
//! * `--workload NAME --seed N --seconds S --trace 0|1` runs one workload
//!   in this process and prints the result object as the last line — the
//!   form the benchmark contract in `BENCHMARK.json` is driven through.
//! * Without `--workload`, every workload runs in its own child process
//!   (so that `peak_rss_mb` is per workload) and the collected results go
//!   to `benchmark/out/results.json`.
//! * `--aa` makes two such sets back to back and holds their differences
//!   to the bounds in `BENCHMARK.json`.

use rasc_benchmark::json::{self, Value};
use rasc_benchmark::workloads::{find, WORKLOADS};
use rasc_benchmark::{context, run, Options};
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode};

const USAGE: &str = "usage: run.sh [--workload NAME] [--seed N] [--seconds S] [--trace [0|1]] [--aa] [--quick]
  --workload NAME  one of paper40, stream48, burst4k, churn1k (default: all, one process each)
  --seed N         input seed (default 1, the development seed; 2 is the held-out seed)
  --seconds S      wall-clock budget for the timed repetitions (default: run_seconds of BENCHMARK.json)
  --trace [0|1]    1 (or no value): the traced run, per-layer metrics and benchmark/out/trace-<workload>.jsonl
  --aa             two full untraced sets on this build, differences held to BENCHMARK.json's bounds
  --quick          toy sizes (what `cargo test` runs); nothing is measured";

struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: Option<f64>,
    trace: bool,
    aa: bool,
    quick: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: 1,
        seconds: None,
        trace: false,
        aa: false,
        quick: false,
    };
    let mut it = std::env::args().skip(1).peekable();
    while let Some(a) = it.next() {
        let mut value = |name: &str| it.next().ok_or(format!("{name} needs a value"));
        match a.as_str() {
            "--workload" => args.workload = Some(value("--workload")?),
            "--seed" => {
                args.seed = value("--seed")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?
            }
            "--seconds" => {
                let s: f64 = value("--seconds")?
                    .parse()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s.is_finite() && s > 0.0) {
                    return Err("--seconds must be positive".into());
                }
                args.seconds = Some(s);
            }
            "--trace" => {
                args.trace = match it.peek().map(String::as_str) {
                    Some("0") => {
                        it.next();
                        false
                    }
                    Some("1") => {
                        it.next();
                        true
                    }
                    _ => true,
                }
            }
            "--aa" => args.aa = true,
            "--quick" => args.quick = true,
            "--help" | "-h" => return Err(String::new()),
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(args)
}

/// `BENCHMARK.json`, from the checkout root the benchmark is run from.
fn contract() -> Result<Value, String> {
    let text = std::fs::read_to_string("BENCHMARK.json")
        .map_err(|e| format!("BENCHMARK.json (run from the repository root): {e}"))?;
    json::parse(&text)
}

fn out_dir() -> PathBuf {
    Path::new("benchmark").join("out")
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            if !e.is_empty() {
                eprintln!("error: {e}");
            }
            eprintln!("{USAGE}");
            return ExitCode::from(2);
        }
    };
    let result = match (&args.workload, args.aa) {
        (Some(name), false) => one(&args, name),
        (None, false) => all(&args).map(|set| set.ok),
        (None, true) => aa(&args),
        (Some(_), true) => Err("--aa runs every workload; drop --workload".into()),
    };
    match result {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::from(2)
        }
    }
}

/// Runs one workload in this process; the result object is the last line.
fn one(args: &Args, name: &str) -> Result<bool, String> {
    let spec = find(name).ok_or_else(|| format!("unknown workload {name}"))?;
    let seconds = match args.seconds {
        Some(s) => s,
        None => contract()?
            .get("run_seconds")
            .and_then(Value::as_f64)
            .ok_or("BENCHMARK.json has no run_seconds")?,
    };
    let opts = Options {
        spec: if args.quick { spec.quick() } else { spec },
        seed: args.seed,
        seconds: if args.quick { 0.0 } else { seconds },
        trace: args.trace,
        out_dir: Some(out_dir()),
    };
    let ctx: Vec<String> = context().iter().map(|(k, v)| format!("{k}={v}")).collect();
    println!(
        "# workload={} seed={} seconds={} trace={} quick={} {}",
        spec.name,
        opts.seed,
        opts.seconds,
        opts.trace as u8,
        args.quick,
        ctx.join(" ")
    );
    let outcome = run(&opts);
    let rep_s: Vec<String> = outcome
        .rep_lifecycle_s
        .iter()
        .map(|s| format!("{s:.3}"))
        .collect();
    println!(
        "# repetitions={} lifecycle_s=[{}]",
        rep_s.len(),
        rep_s.join(", ")
    );
    for c in &outcome.checks {
        println!(
            "check {:<10} {} {}",
            c.name,
            if c.ok { "ok  " } else { "FAIL" },
            c.detail
        );
    }
    for m in &outcome.metrics.0 {
        let n = if m.samples > 0 {
            format!("  n={}", m.samples)
        } else {
            String::new()
        };
        println!("metric {:<42} {:>16.6} {}{}", m.name, m.value, m.unit, n);
    }
    println!(
        "# correct={} attempted={} failed={}",
        outcome.correct, outcome.attempted, outcome.failed
    );
    println!("{}", outcome.to_json());
    Ok(outcome.correct)
}

/// One set: every workload, each in a child process of this executable.
struct Set {
    ok: bool,
    /// Workload name and its parsed result object.
    results: Vec<(&'static str, Value)>,
}

fn all(args: &Args) -> Result<Set, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let mut set = Set {
        ok: true,
        results: Vec::new(),
    };
    let mut lines = Vec::new();
    for spec in &WORKLOADS {
        let mut cmd = Command::new(&exe);
        cmd.args(["--workload", spec.name, "--seed", &args.seed.to_string()]);
        cmd.args(["--trace", if args.trace { "1" } else { "0" }]);
        if let Some(s) = args.seconds {
            cmd.args(["--seconds", &s.to_string()]);
        }
        if args.quick {
            cmd.arg("--quick");
        }
        // Waits for the child; its stderr passes straight through.
        let out = cmd.output().map_err(|e| format!("{}: {e}", spec.name))?;
        let stdout = String::from_utf8_lossy(&out.stdout);
        print!("{stdout}");
        let last = stdout.lines().last().unwrap_or("");
        let value = json::parse(last)
            .map_err(|e| format!("{}: no result object ({e}), exit {}", spec.name, out.status))?;
        set.ok &=
            out.status.success() && value.get("correct").and_then(Value::as_bool) == Some(true);
        lines.push(format!("    {}: {last}", json::quote(spec.name)));
        set.results.push((spec.name, value));
    }
    let ctx: Vec<String> = context()
        .iter()
        .map(|(k, v)| format!("{}: {}", json::quote(k), json::quote(v)))
        .collect();
    let doc = format!(
        "{{\n  \"seed\": {},\n  \"trace\": {},\n  \"quick\": {},\n  \"context\": {{{}}},\n  \"workloads\": {{\n{}\n  }}\n}}\n",
        args.seed,
        args.trace,
        args.quick,
        ctx.join(", "),
        lines.join(",\n")
    );
    let path = out_dir().join(if args.trace {
        "results-trace.json"
    } else {
        "results.json"
    });
    std::fs::create_dir_all(out_dir())
        .and_then(|()| std::fs::write(&path, doc))
        .map_err(|e| format!("{}: {e}", path.display()))?;
    println!("# results written to {}", path.display());
    Ok(set)
}

/// A/A self-check: two sets on the same build must agree within every
/// end-to-end metric's own bound.
fn aa(args: &Args) -> Result<bool, String> {
    if args.trace {
        return Err("--aa compares end-to-end metrics; drop --trace".into());
    }
    let contract = contract()?;
    let a = all(args)?;
    let b = all(args)?;
    let mut ok = a.ok && b.ok;
    println!(
        "{:<10} {:<22} {:>14} {:>14} {:>9} {:>7}",
        "workload", "metric", "first", "second", "rel.diff", "bound"
    );
    for ((name, ra), (_, rb)) in a.results.iter().zip(&b.results) {
        for decl in contract
            .get("end_to_end")
            .map(Value::elements)
            .unwrap_or_default()
        {
            let metric = decl.get("name").and_then(Value::as_str).unwrap_or("?");
            let bound = decl.get("bound").and_then(Value::as_f64).unwrap_or(0.0);
            let read = |r: &Value| {
                r.get("metrics")
                    .and_then(|m| m.get(metric))
                    .and_then(|m| m.get("value"))
                    .and_then(Value::as_f64)
            };
            let (Some(x), Some(y)) = (read(ra), read(rb)) else {
                println!("{name:<10} {metric:<22} missing");
                ok = false;
                continue;
            };
            let diff = if x == y { 0.0 } else { (y - x).abs() / x.abs() };
            let within = diff <= bound;
            ok &= within;
            println!(
                "{name:<10} {metric:<22} {x:>14.5} {y:>14.5} {diff:>9.4} {bound:>7.2}{}",
                if within { "" } else { "  EXCEEDS" }
            );
        }
    }
    println!("# A/A {}", if ok { "within bounds" } else { "FAILED" });
    Ok(ok)
}
