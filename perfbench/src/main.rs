//! The repository benchmark: four seeded workloads, each measured end to
//! end (untraced) or per layer (traced), with correctness checks run
//! outside the timed window.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload mcmc_chain --seed 1 --seconds 8 --trace 0
//! ```
//!
//! The last stdout line is the result object; the line before it
//! describes the run (host fingerprint, seed, engines, sample count).
//! A failed correctness check prints `"correct": false` and exits 1.

mod device_sim;
mod mcmc_chain;
mod report;
mod serve;
mod trace;

use report::{object, Outcome};
use serde_json::json;
use std::path::PathBuf;
use std::process::{Command, ExitCode};

/// Workload names, in the order `BENCHMARK.json` lists them.
const WORKLOADS: &[&str] = &[
    "mcmc_chain",
    "serve_proposals",
    "serve_fresh_durable",
    "device_sim",
];

/// What one invocation asks for.
pub struct Ctx {
    pub workload: String,
    pub seed: u64,
    /// Length of the measured window, in seconds.
    pub seconds: f64,
    pub trace: bool,
    /// Tiny shapes and windows, for the self-test.
    pub tiny: bool,
    /// Client threads, connections, compute threads and workers.
    pub nproc: usize,
}

impl Ctx {
    /// Set-ups per run; `setup_s` is their median. A service set-up
    /// takes a fraction of a millisecond, most of it thread starts, and
    /// a chain's a few milliseconds, so their medians need hundreds of
    /// samples to settle; a device set-up takes tens of milliseconds.
    /// Each journaled set-up creates a journal that the run deletes at
    /// its end; on a disk mounted with `discard`, hundreds of deletions
    /// per run slowed the file creation of the runs that followed.
    pub fn setup_reps(&self) -> usize {
        match (self.tiny, self.workload.as_str()) {
            (true, _) => 2,
            (false, "device_sim" | "serve_fresh_durable") => 41,
            (false, "mcmc_chain") => 101,
            (false, _) => 301,
        }
    }

    /// Where spans and journals go: `out/` next to this package.
    pub fn out_dir(&self) -> PathBuf {
        PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("out")
    }
}

const USAGE: &str = "usage: perfbench --workload NAME --seed N --seconds S --trace 0|1 [--tiny]";

fn parse_args() -> Result<Ctx, String> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut tiny = false;
    let mut i = 0;
    while i < args.len() {
        let value = || {
            args.get(i + 1)
                .ok_or_else(|| format!("{} needs a value", args[i]))
        };
        match args[i].as_str() {
            "--workload" => workload = Some(value()?.clone()),
            "--seed" => {
                seed = Some(
                    value()?
                        .parse::<u64>()
                        .map_err(|e| format!("--seed: {e}"))?,
                )
            }
            "--seconds" => {
                seconds = Some(
                    value()?
                        .parse::<f64>()
                        .map_err(|e| format!("--seconds: {e}"))?,
                )
            }
            "--trace" => {
                trace = Some(match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other:?}")),
                })
            }
            "--tiny" => {
                tiny = true;
                i += 1;
                continue;
            }
            other => return Err(format!("unknown argument {other:?}")),
        }
        i += 2;
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload {workload:?}; one of {WORKLOADS:?}"
        ));
    }
    let seconds = seconds.ok_or("--seconds is required")?;
    if !(seconds.is_finite() && seconds > 0.0) {
        return Err(format!("--seconds must be positive, not {seconds}"));
    }
    Ok(Ctx {
        workload,
        seed: seed.ok_or("--seed is required")?,
        seconds,
        trace: trace.ok_or("--trace is required")?,
        tiny,
        nproc: std::thread::available_parallelism().map_or(1, |n| n.get()),
    })
}

/// First line of a command's stdout, or "unknown".
fn command_line(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .current_dir(env!("CARGO_MANIFEST_DIR"))
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .and_then(|s| s.lines().next().map(str::to_string))
        .unwrap_or_else(|| "unknown".into())
}

fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("model name"))
                .map(|v| v.trim_start_matches([' ', '\t', ':']).trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into())
}

/// The `run` line: workload, seed and host fingerprint plus whatever
/// the workload reported (engines, threads, workers, sample counts).
fn run_line(ctx: &Ctx, outcome: &Outcome) -> String {
    let rustc = std::env::var("RUSTC").unwrap_or_else(|_| "rustc".into());
    let mut fields = vec![
        ("workload", json!(ctx.workload)),
        ("seed", json!(ctx.seed)),
        ("seconds", json!(ctx.seconds)),
        ("trace", json!(u8::from(ctx.trace))),
        ("tiny", json!(ctx.tiny)),
        ("nproc", json!(ctx.nproc)),
        ("cpu", json!(cpu_model())),
        ("rustc", json!(command_line(&rustc, &["-V"]))),
        ("commit", json!(command_line("git", &["rev-parse", "HEAD"]))),
    ];
    fields.extend(outcome.info.iter().cloned());
    let line = json!({ "run": (object(fields)) });
    serde_json::to_string(&line).expect("a JSON value serializes")
}

fn main() -> ExitCode {
    let ctx = match parse_args() {
        Ok(ctx) => ctx,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let result = match ctx.workload.as_str() {
        "mcmc_chain" => mcmc_chain::run(&ctx),
        "serve_proposals" => serve::run(&ctx, serve::Shape::Proposals),
        "serve_fresh_durable" => serve::run(&ctx, serve::Shape::FreshDurable),
        _ => device_sim::run(&ctx),
    };
    let mut outcome = match result {
        Ok(outcome) => outcome,
        Err(e) => {
            eprintln!("perfbench: {}: {e}", ctx.workload);
            return ExitCode::FAILURE;
        }
    };
    if ctx.trace {
        let path = ctx
            .out_dir()
            .join(format!("spans-{}-{}.jsonl", ctx.workload, ctx.seed));
        outcome.info("spans", path.display().to_string());
        let header = run_line(&ctx, &outcome);
        if let Err(e) = trace::write_spans(&path, &header, &outcome.spans) {
            eprintln!("perfbench: writing {}: {e}", path.display());
            return ExitCode::FAILURE;
        }
    }
    if let Some(e2e) = &outcome.end_to_end {
        outcome.info("samples", e2e.window.stats().samples);
    }
    println!("{}", run_line(&ctx, &outcome));
    for failure in &outcome.check_failures {
        eprintln!("perfbench: check failed: {failure}");
    }
    println!("{}", report::result_line(&outcome, ctx.trace));
    if outcome.check_failures.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
