//! `setup_s`: set-ups timed in fresh child processes, spread in time.
//!
//! A run times its set-ups in a series of child processes of the
//! benchmark binary (`--setup <workload> <repeats> [lot dir]`), a few
//! set-ups in each, the way `icdiag serve` or `icdiag volume` starts,
//! rather than in its own process after the input generation and
//! reference runs. Set-ups are `GAP` apart, so one run samples the
//! host's fast and slow periods instead of landing in one of them.

use std::path::Path;
use std::process::{Command, Stdio};
use std::time::{Duration, Instant};

use crate::inputs;
use crate::report::nproc;
use crate::serve::Daemon;
use crate::volume;
use crate::Workload;

/// The flag of the child-process mode.
pub const FLAG: &str = "--setup";

/// Set-ups timed in each child process.
const PER_PROCESS: usize = 4;

/// The pause before each set-up but a child's first, and between child
/// processes. The host's speed changes by about a half on this time
/// scale, so set-ups taken back to back all see the same state.
const GAP: Duration = Duration::from_millis(100);

/// `--setup <workload> <repeats> [lot dir]`: runs the workload's set-up
/// `repeats` times and prints the seconds of each on one line,
/// space-separated. The lot directory is `volume-b`'s only.
pub fn child(args: &[String]) -> Result<(), String> {
    let (workload, repeats, dir) = match args {
        [w, r] => (w, r, None),
        [w, r, d] => (w, r, Some(Path::new(d))),
        _ => {
            return Err(format!(
                "{FLAG} takes a workload, a count and a lot directory"
            ))
        }
    };
    let workload = Workload::parse(workload).ok_or(format!("unknown workload {workload:?}"))?;
    let repeats: usize = repeats
        .parse()
        .map_err(|_| format!("bad set-up count {repeats:?}"))?;
    let start_stop = |design| -> Result<Duration, String> {
        let (daemon, took) = Daemon::start(design, nproc())?;
        daemon.stop()?;
        Ok(took)
    };
    let mut times = Vec::with_capacity(repeats);
    for i in 0..repeats {
        if i > 0 {
            pause();
        }
        let took = match workload {
            Workload::ServeA => start_stop(inputs::CIRCUIT_A)?,
            Workload::ServeMixed => start_stop(inputs::CIRCUIT_B400)?,
            Workload::VolumeB => {
                let dir = dir.ok_or("volume-b set-up needs the lot directory")?;
                let t0 = Instant::now();
                let set = volume::set_up(dir)?;
                let took = t0.elapsed();
                drop(set);
                took
            }
        };
        times.push(took.as_secs_f64().to_string());
    }
    println!("{}", times.join(" "));
    Ok(())
}

/// Waits `GAP` without leaving the CPU: a vCPU that halts pays the
/// hypervisor's wake-up on the next set-up, which then ran slower and
/// stalled more often.
fn pause() {
    let end = Instant::now() + GAP;
    while Instant::now() < end {
        std::thread::yield_now();
    }
}

/// Times `count` set-ups of `workload`, `PER_PROCESS` in each of a
/// series of child processes run one after another, and returns their
/// seconds.
pub fn timed(workload: Workload, count: usize, lot_dir: Option<&Path>) -> Result<Vec<f64>, String> {
    let exe = std::env::current_exe().map_err(|e| format!("locating the benchmark: {e}"))?;
    let count = count.max(1);
    let mut times = Vec::with_capacity(count);
    while times.len() < count {
        if !times.is_empty() {
            pause();
        }
        let repeats = PER_PROCESS.min(count - times.len());
        let mut cmd = Command::new(&exe);
        cmd.arg(FLAG).arg(workload.name()).arg(repeats.to_string());
        if let Some(dir) = lot_dir {
            cmd.arg(dir);
        }
        let out = cmd
            .stdin(Stdio::null())
            .stderr(Stdio::inherit())
            .output()
            .map_err(|e| format!("starting a set-up process: {e}"))?;
        if !out.status.success() {
            return Err(format!("set-up process: {}", out.status));
        }
        let text = String::from_utf8_lossy(&out.stdout);
        let before = times.len();
        for t in text.split_whitespace() {
            times.push(
                t.parse()
                    .map_err(|_| format!("set-up process printed {t:?}"))?,
            );
        }
        if times.len() != before + repeats {
            return Err(format!("set-up process printed {text:?}"));
        }
    }
    Ok(times)
}
