//! Seeded inputs with ground truth, and the in-process reference answers
//! every reply is checked against.
//!
//! Devices come only from public generators: defect sampling
//! (`icd_defects::sample_defects`) with tester emulation (`run_test` /
//! `run_test_multi`) for single-device requests, and
//! `icd_volume::synthesize_population` for lots. The daemon only ever
//! sees datalog text.

use std::collections::HashSet;
use std::sync::Arc;

use icd_bench::flow::{analyze_datalog_report, ExperimentContext};
use icd_defects::{sample_defects, MixConfig};
use icd_faultsim::{datalog_text, run_test, run_test_multi, FaultyGate};
use icd_netlist::{generator, GateId};
use icd_volume::{
    synthesize_population, PopulationConfig, RootCauseKind, VolumeInput, VolumeOptions,
    VolumeReport, VolumeRun,
};

/// A circuit preset at a scale, with its test-set length.
#[derive(Debug, Clone, Copy)]
pub struct Design {
    pub label: &'static str,
    preset: fn() -> generator::GeneratorConfig,
    divisor: usize,
    patterns: usize,
}

/// The paper's circuit A at full size with its 25-pattern transition set.
pub const CIRCUIT_A: Design = Design {
    label: "A (258 gates, 25 patterns)",
    preset: generator::circuit_a,
    divisor: 1,
    patterns: 25,
};

/// Circuit B scaled by 1/400 with 64 patterns.
pub const CIRCUIT_B400: Design = Design {
    label: "B/400 (1747 gates, 64 patterns)",
    preset: generator::circuit_b,
    divisor: 400,
    patterns: 64,
};

/// Circuit B scaled by 1/100 with 256 patterns.
pub const CIRCUIT_B100: Design = Design {
    label: "B/100 (6988 gates, 256 patterns)",
    preset: generator::circuit_b,
    divisor: 100,
    patterns: 256,
};

impl Design {
    /// Builds the circuit, cell library and test set.
    pub fn build(&self) -> Result<ExperimentContext, String> {
        ExperimentContext::from_preset(&(self.preset)(), self.divisor, self.patterns)
            .map_err(|e| format!("building circuit {}: {e}", self.label))
    }
}

/// SplitMix64: the benchmark's only source of randomness, so a seed
/// fixes every input.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Rng(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n.max(1) as u64) as usize
    }
}

/// One single-device request with its ground truth and reference answer.
#[derive(Debug, Clone)]
pub struct Device {
    pub text: String,
    /// The injected defective gates.
    pub truth: Vec<GateId>,
    /// `summarize_report(ctx, &analyze_datalog_report(ctx, datalog))`.
    pub summary: String,
    /// The suspects the daemon streams back, in slot order.
    pub suspects: Vec<u32>,
}

impl Device {
    /// Whether every injected gate is among `suspects`.
    pub fn hit(&self, suspects: &[u32]) -> bool {
        self.truth
            .iter()
            .all(|g| suspects.contains(&(g.index() as u32)))
    }

    /// How far down `suspects` one reads before every injected gate has
    /// appeared (1 is best; a missing gate counts as one past the end).
    pub fn truth_rank(&self, suspects: &[u32]) -> usize {
        self.truth
            .iter()
            .map(|g| {
                suspects
                    .iter()
                    .position(|&s| s == g.index() as u32)
                    .map_or(suspects.len() + 1, |p| p + 1)
            })
            .max()
            .unwrap_or(1)
    }
}

/// Samples `count` distinct failing devices: one defect each, two on
/// every fourth draw. A device is kept only when its reference diagnosis
/// is complete (not degraded), so every operation of the workload can
/// succeed.
pub fn sample_devices(
    ctx: &ExperimentContext,
    count: usize,
    seed: u64,
) -> Result<Vec<Device>, String> {
    let mut rng = Rng::new(seed);
    let mut pool: Vec<(String, icd_faultsim::FaultyBehavior)> = Vec::new();
    for cell in ctx.cells.iter() {
        if ctx.instances_of(cell.name()).is_empty() {
            continue;
        }
        let sample = sample_defects(
            cell.netlist(),
            SAMPLES_PER_CELL,
            &MixConfig::default(),
            rng.next_u64(),
        )
        .map_err(|e| format!("sampling defects of {}: {e}", cell.name()))?;
        for injected in sample {
            if let Some(behavior) = injected.characterization.behavior {
                pool.push((cell.name().to_owned(), behavior));
            }
        }
    }
    if pool.is_empty() {
        return Err("no observable defect in the cell library".into());
    }
    let mut devices = Vec::with_capacity(count);
    let mut seen = HashSet::new();
    for attempt in 0..count * 64 {
        if devices.len() == count {
            break;
        }
        let defects = if attempt % 4 == 3 { 2 } else { 1 };
        let mut faulty: Vec<FaultyGate> = Vec::with_capacity(defects);
        for _ in 0..defects {
            let (cell, behavior) = &pool[rng.below(pool.len())];
            let instances = ctx.instances_of(cell);
            let gate = instances[rng.below(instances.len())];
            if faulty.iter().all(|f| f.gate != gate) {
                faulty.push(FaultyGate::new(gate, behavior.clone()));
            }
        }
        let datalog = if faulty.len() == 1 {
            run_test(&ctx.circuit, &ctx.patterns, &faulty[0])
        } else {
            run_test_multi(&ctx.circuit, &ctx.patterns, &faulty)
        }
        .map_err(|e| format!("tester emulation: {e}"))?;
        if datalog.all_pass() {
            continue;
        }
        let text = datalog_text::write(&datalog);
        if !seen.insert(text.clone()) {
            continue;
        }
        // The reference answer, from the text the daemon will receive.
        let parsed = datalog_text::parse(&text).map_err(|e| format!("datalog round trip: {e}"))?;
        let Ok(report) = analyze_datalog_report(ctx, &parsed) else {
            continue;
        };
        if report.is_degraded() {
            continue;
        }
        // Nothing was skipped (the report is not degraded), so the
        // analyses are exactly the streamed suspects, in slot order.
        devices.push(Device {
            text,
            truth: faulty.iter().map(|f| f.gate).collect(),
            summary: icd_engine::summarize_report(ctx, &report),
            suspects: report
                .analyses
                .iter()
                .map(|a| a.gate.index() as u32)
                .collect(),
        });
    }
    if devices.len() < count {
        return Err(format!(
            "only {} of {count} devices could be sampled on {}",
            devices.len(),
            ctx.circuit.name()
        ));
    }
    Ok(devices)
}

/// A lot of named devices around one planted systematic defect, with its
/// 1-worker in-process reference report.
#[derive(Debug, Clone)]
pub struct Lot {
    pub inputs: Vec<VolumeInput>,
    /// `(name, datalog text)` pairs, the `Volume` frame payload.
    pub texts: Vec<(String, String)>,
    pub planted_gate: String,
    pub reference_json: String,
    /// Rank of the planted gate among the reference root causes.
    pub planted_rank: usize,
    /// Share of the lot's devices whose suspects include the planted gate.
    pub planted_share: f64,
}

/// Defects sampled per cell type: a pool wide enough that each seed's
/// devices span many defect kinds, so per-seed averages stay close.
const SAMPLES_PER_CELL: usize = 16;

/// Share of a lot's devices that carry the planted defect, in permille:
/// the lowest rate at which volume diagnosis still recovers it, so the
/// background devices (each with its own defect) are the majority.
const PLANTED_PERMILLE: u32 = 250;

/// Synthesizes `lots × per_lot` devices with `synthesize_population` and
/// splits them into lots, each with its reference report when
/// `reference` is set (otherwise the reference fields stay empty).
pub fn planted_lots(
    ctx: &Arc<ExperimentContext>,
    lots: usize,
    per_lot: usize,
    seed: u64,
    reference: bool,
) -> Result<Vec<Lot>, String> {
    let config = PopulationConfig {
        defect_rate_permille: PLANTED_PERMILLE,
        samples_per_cell: SAMPLES_PER_CELL,
        ..PopulationConfig::new(lots * per_lot, seed)
    };
    let population =
        synthesize_population(ctx, &config).map_err(|e| format!("synthesizing population: {e}"))?;
    if population.datalogs.len() < lots * per_lot {
        return Err(format!(
            "population has {} of {} devices",
            population.datalogs.len(),
            lots * per_lot
        ));
    }
    let mut out = Vec::with_capacity(lots);
    for (l, chunk) in population.datalogs.chunks(per_lot).take(lots).enumerate() {
        let texts: Vec<(String, String)> = chunk
            .iter()
            .enumerate()
            .map(|(i, d)| {
                (
                    format!("device-{:03}.log", l * per_lot + i),
                    datalog_text::write(d),
                )
            })
            .collect();
        let inputs = texts
            .iter()
            .map(|(name, text)| {
                datalog_text::parse(text)
                    .map(|datalog| VolumeInput {
                        name: name.clone(),
                        datalog,
                    })
                    .map_err(|e| format!("datalog round trip: {e}"))
            })
            .collect::<Result<Vec<_>, _>>()?;
        let planted_gate = population.planted.gate_name.clone();
        let mut lot = Lot {
            inputs,
            texts,
            planted_gate,
            reference_json: String::new(),
            planted_rank: 0,
            planted_share: 0.0,
        };
        if reference {
            let report = volume_outcome(ctx, &lot.inputs, 1, None, None)?.report;
            if report.devices_failed > 0 || report.devices_skipped > 0 {
                return Err(format!("lot {l}: reference diagnosis is degraded"));
            }
            (lot.planted_rank, lot.planted_share) = planted_standing(&report, &lot.planted_gate);
            lot.reference_json = report.to_json();
        }
        out.push(lot);
    }
    Ok(out)
}

/// One `VolumeRun::execute` over `inputs`.
pub fn volume_outcome(
    ctx: &Arc<ExperimentContext>,
    inputs: &[VolumeInput],
    workers: usize,
    cache_dir: Option<&std::path::Path>,
    collector: Option<&icd_obs::Collector>,
) -> Result<icd_volume::VolumeOutcome, String> {
    let run = VolumeRun::new(
        Arc::clone(ctx),
        VolumeOptions {
            workers,
            cache_dir: cache_dir.map(std::path::Path::to_path_buf),
            ..VolumeOptions::default()
        },
    );
    run.execute(inputs, 0, collector)
        .map_err(|e| format!("volume run: {e}"))
}

/// The planted gate's rank among the root causes (one past the end when
/// absent) and the share of devices that list it among their suspects.
pub fn planted_standing(report: &VolumeReport, planted_gate: &str) -> (usize, f64) {
    let found = report.root_causes.iter().enumerate().find(
        |(_, rc)| matches!(&rc.kind, RootCauseKind::Gate { name, .. } if name == planted_gate),
    );
    match found {
        Some((i, rc)) => (
            i + 1,
            rc.devices as f64 / report.devices_total.max(1) as f64,
        ),
        None => (report.root_causes.len() + 1, 0.0),
    }
}
