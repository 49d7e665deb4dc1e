//! The icdiag benchmark: one command, three workloads, end-to-end metrics
//! from timing runs and per-layer metrics from a separate traced run.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <serve-a|volume-b|serve-mixed> \
//!     --seed <n> --seconds <s> --trace <0|1>
//! cargo run --release --manifest-path perfbench/Cargo.toml -- --smoke
//! ```
//!
//! The last line of standard output is the result object (`correct`,
//! `attempted`, `failed`, `metrics`); the line before it carries the
//! host facts and sample accounting. `--smoke` runs every workload on a
//! handful of requests and checks that every metric named in
//! `BENCHMARK.json` is printed with its unit and that a deliberately
//! corrupted reply is counted as failed. See `perfbench/README.md`.

mod inputs;
mod report;
mod serve;
mod setup;
mod trace;
mod volume;

use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Duration;

use report::Outcome;

/// The named workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    ServeA,
    VolumeB,
    ServeMixed,
}

impl Workload {
    const ALL: [Workload; 3] = [Workload::ServeA, Workload::VolumeB, Workload::ServeMixed];

    pub fn name(self) -> &'static str {
        match self {
            Workload::ServeA => "serve-a",
            Workload::VolumeB => "volume-b",
            Workload::ServeMixed => "serve-mixed",
        }
    }

    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// Input sizes: the benchmark's, or a handful for the smoke test.
#[derive(Debug, Clone, Copy)]
pub struct Scale {
    pub serve_a_devices: usize,
    pub mixed_devices: usize,
    pub mixed_lots: usize,
    pub volume_devices: usize,
    /// Set-ups per run; `setup_s` is their median.
    pub setups: usize,
    /// No sample-count validity checks: smoke runs are too short.
    pub smoke: bool,
}

impl Scale {
    const FULL: Scale = Scale {
        serve_a_devices: 384,
        mixed_devices: 192,
        mixed_lots: 12,
        volume_devices: 48,
        setups: 32,
        smoke: false,
    };

    const SMOKE: Scale = Scale {
        serve_a_devices: 8,
        mixed_devices: 4,
        mixed_lots: 1,
        volume_devices: 8,
        setups: 2,
        smoke: true,
    };
}

/// Everything a workload run needs.
pub struct Settings {
    pub seed: u64,
    pub seconds: Duration,
    /// Daemon and engine workers, and client connections: `nproc`.
    pub workers: usize,
    /// Scratch space inside the checkout, removed when the run ends.
    pub work_dir: PathBuf,
    pub scale: Scale,
    /// Corrupt the first checked reply (the smoke test's self-check).
    pub corrupt: bool,
}

fn run(workload: Workload, trace: bool, s: &Settings) -> Result<Outcome, String> {
    std::fs::create_dir_all(&s.work_dir)
        .map_err(|e| format!("creating {}: {e}", s.work_dir.display()))?;
    let result = match (workload, trace) {
        (w, true) => trace::run(s, w),
        (Workload::ServeA, false) => serve::serve_a(s),
        (Workload::ServeMixed, false) => serve::serve_mixed(s),
        (Workload::VolumeB, false) => volume::run(s),
    };
    let _ = std::fs::remove_dir_all(&s.work_dir);
    // Only succeeds when no other run is using the directory.
    let _ = std::fs::remove_dir(WORK_ROOT);
    result
}

const WORK_ROOT: &str = ".perfbench-work";

fn work_dir(tag: &str) -> PathBuf {
    PathBuf::from(WORK_ROOT).join(format!("{}-{tag}", std::process::id()))
}

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload =
                    Some(Workload::parse(value).ok_or(format!("unknown workload {value:?}"))?);
            }
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad seed {value:?}"))?),
            "--seconds" => {
                seconds = Some(
                    value
                        .parse::<u64>()
                        .ok()
                        .filter(|&s| s > 0)
                        .ok_or(format!("bad seconds {value:?}"))?,
                );
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value:?}")),
                });
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.unwrap_or(false),
    })
}

const USAGE: &str = "usage: perfbench --workload <serve-a|volume-b|serve-mixed> \
--seed <n> --seconds <s> --trace <0|1>\n       perfbench --smoke";

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.iter().any(|a| a == "--smoke") {
        return smoke();
    }
    if args.first().map(String::as_str) == Some(setup::FLAG) {
        return match setup::child(&args[1..]) {
            Ok(()) => ExitCode::SUCCESS,
            Err(e) => {
                eprintln!("perfbench: {e}");
                ExitCode::FAILURE
            }
        };
    }
    let args = match parse_args(&args) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let settings = Settings {
        seed: args.seed,
        seconds: Duration::from_secs(args.seconds),
        workers: report::nproc(),
        work_dir: work_dir(args.workload.name()),
        scale: Scale::FULL,
        corrupt: false,
    };
    match run(args.workload, args.trace, &settings) {
        Ok(outcome) => {
            println!("{}", outcome.facts_json(args.workload.name(), args.trace));
            println!("{}", outcome.result_json());
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("perfbench: {}: {e}", args.workload.name());
            ExitCode::FAILURE
        }
    }
}

/// `(name, unit)` of every metric of one kind in `BENCHMARK.json`.
fn declared_metrics(kind: &str) -> Result<Vec<(String, String)>, String> {
    let text = std::fs::read_to_string("BENCHMARK.json")
        .map_err(|e| format!("reading BENCHMARK.json: {e}"))?;
    let doc = icd_obs::json::parse(&text).map_err(|e| format!("BENCHMARK.json: {e}"))?;
    let list = doc
        .get(kind)
        .and_then(|v| v.as_array())
        .ok_or(format!("BENCHMARK.json has no {kind} list"))?;
    list.iter()
        .map(|m| {
            let field = |k: &str| m.get(k).and_then(|v| v.as_str()).map(str::to_owned);
            field("name")
                .zip(field("unit"))
                .ok_or(format!("a {kind} entry lacks a name or unit"))
        })
        .collect()
}

/// Checks that `outcome` prints exactly the declared metrics, each once,
/// with its unit and a finite value.
fn check_metrics(outcome: &Outcome, declared: &[(String, String)]) -> Vec<String> {
    let mut problems = Vec::new();
    for (name, unit) in declared {
        let found: Vec<_> = outcome.metrics.iter().filter(|m| m.name == *name).collect();
        match found.as_slice() {
            [m] if m.unit == unit && m.value.is_finite() => {}
            [m] => problems.push(format!("{name}: unit {} value {}", m.unit, m.value)),
            _ => problems.push(format!("{name}: printed {} times", found.len())),
        }
    }
    for m in &outcome.metrics {
        if !declared.iter().any(|(n, _)| *n == m.name) {
            problems.push(format!("{}: printed but not declared", m.name));
        }
    }
    problems
}

/// The benchmark's self-test.
fn smoke() -> ExitCode {
    let declared = match (
        declared_metrics("end_to_end"),
        declared_metrics("per_layer"),
    ) {
        (Ok(e), Ok(p)) => (e, p),
        (Err(e), _) | (_, Err(e)) => {
            eprintln!("perfbench smoke: {e}");
            return ExitCode::FAILURE;
        }
    };
    let mut failures = 0;
    for workload in Workload::ALL {
        for trace in [false, true] {
            let settings = Settings {
                seed: 1,
                seconds: Duration::from_secs(1),
                workers: report::nproc(),
                work_dir: work_dir(&format!("smoke-{}", workload.name())),
                scale: Scale::SMOKE,
                corrupt: !trace,
            };
            let label = format!("{} trace={}", workload.name(), u8::from(trace));
            let outcome = match run(workload, trace, &settings) {
                Ok(o) => o,
                Err(e) => {
                    println!("FAIL {label}: {e}");
                    failures += 1;
                    continue;
                }
            };
            let mut problems =
                check_metrics(&outcome, if trace { &declared.1 } else { &declared.0 });
            if trace {
                if !outcome.correct() {
                    problems.push(format!("traced run not correct: {:?}", outcome.invalid));
                }
            } else {
                // The corrupted reply must be the one and only failure.
                let share = outcome.correct_share();
                let caught = outcome.wrong == 1 && !outcome.correct() && share < 1.0;
                if !caught {
                    problems.push(format!(
                        "corrupted reply not caught: wrong {} correct_share {share}",
                        outcome.wrong
                    ));
                }
            }
            if problems.is_empty() {
                println!("ok   {label} ({} metrics)", outcome.metrics.len());
            } else {
                failures += 1;
                println!("FAIL {label}: {}", problems.join("; "));
            }
        }
    }
    if failures == 0 {
        println!("smoke: ok");
        ExitCode::SUCCESS
    } else {
        println!("smoke: {failures} failed");
        ExitCode::FAILURE
    }
}
