//! The lot workload `volume-b`: `VolumeRun::execute` over a planted
//! circuit-B/100 lot. In the first half of the run every pass starts
//! cold and writes the truth-table snapshot; in the second half every
//! pass restores it.

use std::path::Path;
use std::sync::Arc;
use std::time::{Duration, Instant};

use icd_bench::flow::ExperimentContext;
use icd_faultsim::datalog_text;
use icd_volume::VolumeInput;

use crate::inputs::{self, Lot};
use crate::report::{json_object, median, percentile, Outcome, StealMeter, P90_SAMPLES};
use crate::{setup, Settings, Workload};

/// Writes the lot as `device-NNN.log` files, the way a tester drops them.
fn write_lot(lot: &Lot, dir: &Path) -> Result<(), String> {
    std::fs::create_dir_all(dir).map_err(|e| format!("creating {}: {e}", dir.display()))?;
    for (name, text) in &lot.texts {
        std::fs::write(dir.join(name), text).map_err(|e| format!("writing {name}: {e}"))?;
    }
    Ok(())
}

/// Reads and parses every `*.log` of `dir`, in name order.
fn load_lot(dir: &Path) -> Result<Vec<VolumeInput>, String> {
    let mut names: Vec<String> = std::fs::read_dir(dir)
        .map_err(|e| format!("reading {}: {e}", dir.display()))?
        .filter_map(|e| e.ok())
        .map(|e| e.file_name().to_string_lossy().into_owned())
        .filter(|n| n.ends_with(".log"))
        .collect();
    names.sort();
    names
        .into_iter()
        .map(|name| {
            let text = std::fs::read_to_string(dir.join(&name))
                .map_err(|e| format!("reading {name}: {e}"))?;
            let datalog = datalog_text::parse(&text).map_err(|e| format!("parsing {name}: {e}"))?;
            Ok(VolumeInput { name, datalog })
        })
        .collect()
}

/// The set-up: context build plus lot load.
pub fn set_up(lot_dir: &Path) -> Result<(Arc<ExperimentContext>, Vec<VolumeInput>), String> {
    let ctx = inputs::CIRCUIT_B100.build()?.into_shared();
    Ok((ctx, load_lot(lot_dir)?))
}

fn clear_dir(dir: &Path) -> Result<(), String> {
    if dir.exists() {
        std::fs::remove_dir_all(dir).map_err(|e| format!("clearing {}: {e}", dir.display()))?;
    }
    Ok(())
}

/// `volume-b`.
pub fn run(s: &Settings) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let ctx = inputs::CIRCUIT_B100.build()?.into_shared();
    let lot = inputs::planted_lots(&ctx, 1, s.scale.volume_devices, s.seed, true)?
        .pop()
        .ok_or("empty population")?;
    drop(ctx);
    let lot_dir = s.work_dir.join("lot");
    let cache_dir = s.work_dir.join("cache");
    write_lot(&lot, &lot_dir)?;
    let setup = setup::timed(Workload::VolumeB, s.scale.setups, Some(&lot_dir))?;
    let (ctx, loaded) = set_up(&lot_dir)?;
    let mut corrupt = s.corrupt;

    let steal = StealMeter::start();
    let mut passes: Vec<Pass> = Vec::new();
    let t0 = Instant::now();
    let half = s.seconds / 2;
    // Phase 1 (cold) until half time, phase 2 (warm) until the end; each
    // phase runs at least one pass.
    for warm in [false, true] {
        let phase_end = if warm { s.seconds } else { half };
        let mut first = true;
        while first || t0.elapsed() < phase_end {
            first = false;
            if !warm {
                clear_dir(&cache_dir)?;
            }
            let pass_start = Instant::now();
            let outcome = inputs::volume_outcome(&ctx, &loaded, s.workers, Some(&cache_dir), None)?;
            let wall = pass_start.elapsed();
            let stats = outcome.stats;
            if warm && (stats.snapshot_tables_loaded == 0 || stats.table_misses > 0) {
                out.invalidate("a warm pass did not restore every truth table".into());
            }
            if !warm && stats.snapshot_tables_saved == 0 {
                out.invalidate("a cold pass saved no truth tables".into());
            }
            // One pass is one answer: its report must equal the reference
            // byte for byte, and a pass with failed or skipped devices is
            // degraded.
            let mut json = outcome.report.to_json();
            if std::mem::take(&mut corrupt) {
                json.insert(0, '!');
            }
            let degraded = outcome.report.devices_failed + outcome.report.devices_skipped > 0;
            out.answer(json == lot.reference_json, degraded);
            passes.push(Pass {
                warm,
                devices_per_s: loaded.len() as f64 / wall.as_secs_f64(),
                latency_ms: outcome
                    .device_latency
                    .iter()
                    .map(|(_, us)| Duration::from_micros(*us).as_secs_f64() * 1e3)
                    .collect(),
            });
        }
    }
    steal.finish(&mut out);

    let all_latency: Vec<f64> = passes.iter().flat_map(|p| p.latency_ms.clone()).collect();
    let pass_p50: Vec<f64> = passes
        .iter()
        .map(|p| percentile(&p.latency_ms, 0.5))
        .collect();
    let rates: Vec<f64> = passes.iter().map(|p| p.devices_per_s).collect();
    let phase_rate = |warm: bool| {
        let r: Vec<f64> = passes
            .iter()
            .filter(|p| p.warm == warm)
            .map(|p| p.devices_per_s)
            .collect();
        median(&r)
    };
    let n = all_latency.len();
    if !s.scale.smoke && (n as f64) < P90_SAMPLES {
        out.invalidate(format!("{n} device latencies, the p90 needs {P90_SAMPLES}"));
    }
    out.setup(&setup);
    out.metric("latency_p50_ms", "ms", median(&pass_p50));
    out.metric("latency_p90_ms", "ms", percentile(&all_latency, 0.9));
    out.metric("throughput_per_s", "1/s", median(&rates));
    out.metric("correct_share", "share", out.correct_share());
    out.metric("suspect_hit_rate", "share", lot.planted_share);
    out.metric("truth_rank", "rank", lot.planted_rank as f64);
    out.fact(
        "passes",
        json_object(&[
            ("cold", passes.iter().filter(|p| !p.warm).count() as f64),
            ("warm", passes.iter().filter(|p| p.warm).count() as f64),
            ("cold_devices_per_s", phase_rate(false)),
            ("warm_devices_per_s", phase_rate(true)),
            ("devices_per_pass", loaded.len() as f64),
            ("latency_samples", n as f64),
        ]),
    );
    out.fact("planted_gate", format!("\"{}\"", lot.planted_gate));
    Ok(out)
}

/// One measured `VolumeRun::execute`.
struct Pass {
    warm: bool,
    devices_per_s: f64,
    latency_ms: Vec<f64>,
}
