//! The traced run: per-layer numbers, measured apart from the timing
//! runs by timing calls into each crate's public functions from this
//! file.
//!
//! It replays the workload's inputs through
//!
//! * a 1-worker, in-process replay of the diagnosis flow, one public call
//!   per layer (frame codec, datalog parse, sanitize, inter-cell
//!   diagnosis, suspect selection, local extraction, intra-cell CPT,
//!   ranking, lot aggregation, snapshot save and load) — the ledger whose
//!   self times must add up to the replay's wall time;
//! * a warm `VolumeRun` at `nproc` workers over the same inputs (pool and
//!   batch counters, parallel efficiency, warm table misses);
//! * paired untraced/traced `DiagnosisService::diagnose_streamed` calls
//!   (service time and tracing overhead);
//! * a loopback daemon fed by an open loop (client latency, generator
//!   lag, and the daemon's own Stats).
//!
//! Counters come from `icd_obs::Collector`s installed around the calls;
//! spans and counters stay in memory until the run ends.

use std::collections::{BTreeMap, HashSet};
use std::sync::atomic::AtomicBool;
use std::sync::Arc;
use std::time::{Duration, Instant};

use icd_bench::flow::{
    select_suspects, to_local_tests, ExperimentContext, FlowError, FlowReport, FlowStage,
    GateAnalysis, SkippedGate,
};
use icd_core::AnalysisCache;
use icd_engine::{summarize_report, CancelToken, Collector, DiagnosisService};
use icd_faultsim::{datalog_text, BitValues, Datalog};
use icd_server::frame::{self, Frame, FrameType, DEFAULT_MAX_PAYLOAD};
use icd_volume::{AggregationConfig, VolumeInput};

use crate::inputs::{self, Design, Device};
use crate::report::{median, ms, percentile, us, Outcome};
use crate::serve::{self, Daemon};
use crate::{Settings, Workload};

/// Busy time of one layer: every call's duration, and the per-pass sum.
#[derive(Default)]
struct Layer {
    calls_us: Vec<f64>,
    pass_total_us: Vec<f64>,
    first_pass_calls: Option<usize>,
    this_pass_us: f64,
    this_pass_calls: usize,
}

/// Self times of the replay, layer by layer. Timed calls never nest, so
/// a call's duration is its layer's self time.
#[derive(Default)]
struct Ledger {
    layers: BTreeMap<&'static str, Layer>,
    coverage: Vec<f64>,
}

impl Ledger {
    fn time<T>(&mut self, layer: &'static str, f: impl FnOnce() -> T) -> T {
        let t0 = Instant::now();
        let value = f();
        let took = us(t0.elapsed());
        let l = self.layers.entry(layer).or_default();
        l.calls_us.push(took);
        l.this_pass_us += took;
        l.this_pass_calls += 1;
        value
    }

    fn end_pass(&mut self, wall: Duration) {
        let mut busy = 0.0;
        for l in self.layers.values_mut() {
            busy += l.this_pass_us;
            l.pass_total_us.push(l.this_pass_us);
            l.first_pass_calls.get_or_insert(l.this_pass_calls);
            l.this_pass_us = 0.0;
            l.this_pass_calls = 0;
        }
        self.coverage.push(busy / us(wall));
    }

    /// `<layer>_<unit>` (p50 per call), `<layer>.total_ms` (busy per
    /// pass, median over passes) and `<layer>.calls` (per pass).
    fn report(&self, out: &mut Outcome, layer: &str, unit: &'static str) {
        let empty = Layer::default();
        let l = self.layers.get(layer).unwrap_or(&empty);
        let per_us = match unit {
            "us" => 1.0,
            "ms" => 1e-3,
            _ => 1e-6,
        };
        out.metric(
            format!("{layer}_{unit}"),
            unit,
            percentile(&l.calls_us, 0.5) * per_us,
        );
        out.metric(
            format!("{layer}.total_ms"),
            "ms",
            median(&l.pass_total_us) * 1e-3,
        );
        out.metric(
            format!("{layer}.calls"),
            "count",
            l.first_pass_calls.unwrap_or(0) as f64,
        );
    }
}

/// What one replayed input produced.
struct Replayed {
    name: String,
    datalog: Datalog,
    report: FlowReport,
    suspects: Vec<u32>,
    wasted: usize,
}

/// The flow of `analyze_datalog_report` and `analyze_suspect`, one timed
/// public call per layer.
fn replay_one(
    ledger: &mut Ledger,
    ctx: &ExperimentContext,
    good: &BitValues,
    cache: &AnalysisCache,
    name: &str,
    text: &str,
) -> Result<Replayed, String> {
    let payload = frame::request_payload(0, text);
    let decoded = ledger.time("server.frame", || {
        let bytes = frame::encode(&Frame {
            frame_type: FrameType::Request,
            request_id: 1,
            trace_id: None,
            payload,
        });
        frame::read_frame(&mut bytes.as_slice(), DEFAULT_MAX_PAYLOAD)
    });
    let decoded = match decoded {
        Ok(Some(f)) => f,
        Ok(None) => return Err("frame codec lost the frame".into()),
        Err(e) => return Err(format!("frame codec: {e}")),
    };
    let (_, text) =
        frame::parse_request_payload(&decoded.payload).ok_or("request payload malformed")?;
    let datalog = ledger
        .time("faultsim.parse", || datalog_text::parse(text))
        .map_err(|e| format!("parsing {name}: {e}"))?;
    let outputs = ctx.circuit.outputs().len();
    let (clean, sanitize) = ledger.time("flow.sanitize", || datalog.sanitize(outputs));
    let inter = ledger
        .time("intercell.diagnose", || {
            icd_intercell::diagnose_with_good(&ctx.circuit, &ctx.patterns, &clean, good)
        })
        .map_err(|e| format!("inter-cell diagnosis of {name}: {e}"))?;
    let gates = ledger.time("flow.select_suspects", || select_suspects(&inter));
    let mut analyses = Vec::with_capacity(gates.len());
    let mut skipped = Vec::new();
    let mut wasted = 0;
    for &gate in &gates {
        let local = ledger.time("intercell.local_extraction", || {
            let explained: HashSet<usize> = inter
                .candidates
                .iter()
                .find(|c| c.gate == gate)
                .map(|c| c.explained.iter().copied().collect())
                .unwrap_or_default();
            let view = Datalog {
                circuit_name: clean.circuit_name.clone(),
                num_patterns: clean.num_patterns,
                entries: clean
                    .entries
                    .iter()
                    .filter(|e| explained.contains(&e.pattern_index))
                    .cloned()
                    .collect(),
            };
            icd_intercell::extract_local_patterns_with_good(
                &ctx.circuit,
                &ctx.patterns,
                &view,
                gate,
                good,
            )
        });
        let mut skip = |stage, error| skipped.push(SkippedGate { gate, stage, error });
        let local = match local {
            Ok(l) => l,
            Err(e) => {
                skip(FlowStage::LocalExtraction, FlowError::Intercell(e));
                continue;
            }
        };
        let (lfp, lpp) = (to_local_tests(&local.lfp), to_local_tests(&local.lpp));
        if lfp.is_empty() {
            wasted += 1;
            skip(FlowStage::LocalExtraction, FlowError::NoLocalFailures);
            continue;
        }
        let cell_name = ctx.circuit.gate_type(gate).name();
        let Some(cell) = ctx.cells.get(cell_name) else {
            skip(
                FlowStage::CellLookup,
                FlowError::NoInstance(cell_name.into()),
            );
            continue;
        };
        let cell = cell.netlist();
        let report = match ledger.time("core.intra_cell", || {
            icd_core::diagnose_with_cache(cell, &lfp, &lpp, Some(cache))
        }) {
            Ok(r) => r,
            Err(e) => {
                skip(FlowStage::IntraCell, FlowError::Core(e));
                continue;
            }
        };
        match ledger.time("core.rank", || {
            icd_core::rank_candidates_with_cache(cell, &report, &lfp, &lpp, Some(cache))
        }) {
            Ok(ranked) => analyses.push(GateAnalysis {
                gate,
                lfp: lfp.len(),
                lpp: lpp.len(),
                report,
                ranked,
            }),
            Err(e) => skip(FlowStage::Ranking, FlowError::Core(e)),
        }
    }
    Ok(Replayed {
        name: name.to_owned(),
        report: FlowReport {
            failing_patterns: clean.entries.len(),
            sanitize,
            analyses,
            skipped,
            unexplained: inter.unexplained.clone(),
        },
        datalog: clean,
        suspects: gates.iter().map(|g| g.index() as u32).collect(),
        wasted,
    })
}

/// The workload's inputs as named datalog texts, with the reference
/// summary where one was computed while sampling.
struct TraceInputs {
    design: Design,
    ctx: Arc<ExperimentContext>,
    texts: Vec<(String, String)>,
    expected: Vec<Option<String>>,
    /// Open-loop rate of the daemon phase, requests per second.
    rate: f64,
}

fn trace_inputs(s: &Settings, workload: Workload) -> Result<TraceInputs, String> {
    let (design, rate) = match workload {
        Workload::ServeA => (inputs::CIRCUIT_A, serve::SERVE_A_RATE),
        Workload::ServeMixed => (inputs::CIRCUIT_B400, serve::MIXED_RATE),
        Workload::VolumeB => (inputs::CIRCUIT_B100, 4.0),
    };
    let ctx = design.build()?.into_shared();
    let mut texts = Vec::new();
    let mut expected = Vec::new();
    let mut add_devices = |devices: Vec<Device>| {
        for d in devices {
            texts.push((format!("input-{:03}.log", texts.len()), d.text));
            expected.push(Some(d.summary));
        }
    };
    match workload {
        Workload::ServeA => add_devices(inputs::sample_devices(
            &ctx,
            s.scale.serve_a_devices,
            s.seed,
        )?),
        Workload::ServeMixed => {
            add_devices(inputs::sample_devices(&ctx, s.scale.mixed_devices, s.seed)?)
        }
        Workload::VolumeB => {}
    }
    let lots = match workload {
        Workload::ServeA => 0,
        Workload::ServeMixed => s.scale.mixed_lots,
        Workload::VolumeB => 1,
    };
    if lots > 0 {
        let per_lot = match workload {
            Workload::ServeMixed => serve::MIXED_LOT,
            _ => s.scale.volume_devices,
        };
        for lot in inputs::planted_lots(&ctx, lots, per_lot, s.seed, false)? {
            for (_, text) in lot.texts {
                texts.push((format!("input-{:03}.log", texts.len()), text));
                expected.push(None);
            }
        }
    }
    Ok(TraceInputs {
        design,
        ctx,
        texts,
        expected,
        rate,
    })
}

fn counter(snap: &icd_obs::MetricsSnapshot, name: &str) -> f64 {
    snap.counter(name).unwrap_or(0) as f64
}

/// The traced run of `workload`.
pub fn run(s: &Settings, workload: Workload) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let budget = |share: f64| s.seconds.mul_f64(share);

    // Inputs, with the tester emulation's counters.
    let generation = Collector::new();
    let inputs = {
        let _on = generation.install();
        trace_inputs(s, workload)?
    };
    let ctx = Arc::clone(&inputs.ctx);
    let generation = generation.snapshot();

    let mut good_s = Vec::new();
    for _ in 0..5 {
        let t0 = Instant::now();
        let good = icd_faultsim::good_simulate(&ctx.circuit, &ctx.patterns)
            .map_err(|e| format!("good simulation: {e}"))?;
        good_s.push(t0.elapsed().as_secs_f64());
        std::hint::black_box(good);
    }

    // 1-worker replay, repeated until its share of the run is spent.
    let snapshot_dir = s.work_dir.join("trace-cache");
    let hash = ctx.circuit.content_hash();
    let snapshot_path = icd_volume::snapshot_path(&snapshot_dir, hash);
    std::fs::create_dir_all(&snapshot_dir).map_err(|e| format!("creating snapshot dir: {e}"))?;
    let mut ledger = Ledger::default();
    let replay_collector = Collector::new();
    let mut first: Option<(Vec<Replayed>, String, AnalysisCache)> = None;
    let replay_start = Instant::now();
    while first.is_none() || replay_start.elapsed() < budget(0.35) {
        let _on = first.is_none().then(|| replay_collector.install());
        let pass_start = Instant::now();
        let good = ledger
            .time("faultsim.good_simulate", || {
                icd_faultsim::good_simulate(&ctx.circuit, &ctx.patterns)
            })
            .map_err(|e| format!("good simulation: {e}"))?;
        let cache = AnalysisCache::new();
        let mut replayed = Vec::with_capacity(inputs.texts.len());
        for (name, text) in &inputs.texts {
            replayed.push(replay_one(&mut ledger, &ctx, &good, &cache, name, text)?);
        }
        let lot_json = ledger.time("volume.aggregate", || {
            let named: Vec<(String, &FlowReport)> = replayed
                .iter()
                .map(|r| (r.name.clone(), &r.report))
                .collect();
            icd_volume::assemble_report(&ctx, hash, &named, 0, 0, &AggregationConfig::default())
                .to_json()
        });
        ledger
            .time("volume.snapshot_save", || {
                icd_volume::snapshot::save(&cache, hash, &snapshot_path)
            })
            .map_err(|e| format!("snapshot save: {e}"))?;
        ledger
            .time("volume.snapshot_load", || {
                icd_volume::snapshot::load(&AnalysisCache::new(), hash, &snapshot_path)
            })
            .map_err(|e| format!("snapshot load: {e}"))?;
        ledger.end_pass(pass_start.elapsed());
        if first.is_none() {
            first = Some((replayed, lot_json, cache));
        }
    }
    let (replayed, lot_json, cache) = first.ok_or("the replay never ran")?;
    let replay = replay_collector.snapshot();
    for (r, expected) in replayed.iter().zip(&inputs.expected) {
        if let Some(expected) = expected {
            out.answer(&summarize_report(&ctx, &r.report) == expected, false);
        }
    }

    // Warm lot pass at nproc workers from the replay's snapshot.
    let lot: Vec<VolumeInput> = replayed
        .iter()
        .map(|r| VolumeInput {
            name: r.name.clone(),
            datalog: r.datalog.clone(),
        })
        .collect();
    let batch = Collector::new();
    let t0 = Instant::now();
    let warm = inputs::volume_outcome(&ctx, &lot, s.workers, Some(&snapshot_dir), Some(&batch))?;
    let warm_wall = t0.elapsed();
    out.answer(warm.report.to_json() == lot_json, false);
    let batch = batch.snapshot();

    // Paired untraced/traced service calls, alternating which goes first.
    let service = DiagnosisService::new(Arc::clone(&ctx), s.workers, 64, Duration::from_secs(5))
        .map_err(|e| format!("diagnosis service: {e}"))?;
    let service_collector = Collector::new();
    let (mut plain_ms, mut traced_ms) = (Vec::new(), Vec::new());
    let service_start = Instant::now();
    let mut k = 0usize;
    while k < replayed.len().min(8) || service_start.elapsed() < budget(0.25) {
        let r = &replayed[k % replayed.len()];
        let traced_first = k % 2 == 1;
        for traced in [traced_first, !traced_first] {
            let t0 = Instant::now();
            let report = if traced {
                let _on = service_collector.install();
                let trace = icd_obs::TraceContext::new(icd_obs::mint_trace_id());
                service.diagnose_streamed_traced(
                    &r.datalog,
                    &CancelToken::new(),
                    Some(&trace),
                    &mut |_| {},
                )
            } else {
                service.diagnose_streamed(&r.datalog, &CancelToken::new(), &mut |_| {})
            };
            let took = ms(t0.elapsed());
            if traced {
                traced_ms.push(took);
            } else {
                plain_ms.push(took);
            }
            match report {
                Ok(report) => out.answer(
                    summarize_report(&ctx, &report) == summarize_report(&ctx, &r.report),
                    false,
                ),
                Err(_) => out.answer(true, true),
            }
        }
        k += 1;
    }
    drop(service);
    let service_p50 = median(&plain_ms);

    // A loopback daemon fed by an open loop over one connection.
    let devices: Vec<Device> = replayed
        .iter()
        .zip(&inputs.texts)
        .map(|(r, (_, text))| Device {
            text: text.clone(),
            truth: Vec::new(),
            summary: summarize_report(&ctx, &r.report),
            suspects: r.suspects.clone(),
        })
        .collect();
    let (daemon, _) = Daemon::start(inputs.design, s.workers)?;
    let min_requests = devices.len().min(8) as f64 / inputs.rate;
    let open_for = budget(0.25).max(Duration::from_secs_f64(min_requests));
    let corrupt = AtomicBool::new(false);
    // Nothing else runs on the daemon in this phase.
    let open = serve::open_loop(
        daemon.addr,
        &devices,
        inputs.rate,
        open_for,
        1,
        serve::Wait::Yield,
        &corrupt,
    );
    let stats = daemon.stats();
    daemon.stop()?;
    let stats = stats?;
    let client_p50 = percentile(&open.latencies_ms(), 0.5);
    let lag_p99 = percentile(&open.lag_ms, 0.99);
    let daemon_requests = open.latency.len();
    open.into_outcome(&mut out);

    // Layer ledger.
    for (layer, unit) in [
        ("server.frame", "us"),
        ("faultsim.parse", "us"),
        ("flow.sanitize", "us"),
        ("intercell.diagnose", "ms"),
        ("flow.select_suspects", "us"),
        ("intercell.local_extraction", "ms"),
        ("core.intra_cell", "ms"),
        ("core.rank", "ms"),
    ] {
        ledger.report(&mut out, layer, unit);
    }
    out.metric("faultsim.good_simulate_s", "s", median(&good_s));
    let one_call_ms = |layer: &str| {
        ledger
            .layers
            .get(layer)
            .map_or(f64::NAN, |x| percentile(&x.calls_us, 0.5) / 1e3)
    };
    out.metric("volume.aggregate_ms", "ms", one_call_ms("volume.aggregate"));
    out.metric(
        "volume.snapshot_save_ms",
        "ms",
        one_call_ms("volume.snapshot_save"),
    );
    out.metric(
        "volume.snapshot_load_ms",
        "ms",
        one_call_ms("volume.snapshot_load"),
    );
    out.metric(
        "volume.table_misses_cold",
        "count",
        cache.table_stats().misses as f64,
    );
    out.metric(
        "volume.table_misses_warm",
        "count",
        warm.stats.table_misses as f64,
    );
    out.metric("trace.coverage", "share", median(&ledger.coverage));

    // Engine and pool.
    out.metric("engine.service_ms", "ms", service_p50);
    out.metric(
        "engine.parallel_efficiency",
        "share",
        counter(&batch, "pool.busy_us") / (s.workers as f64 * us(warm_wall)),
    );
    out.metric(
        "pool.jobs_executed",
        "count",
        counter(&batch, "pool.jobs_executed"),
    );
    out.metric("pool.steals", "count", counter(&batch, "pool.steals"));
    out.metric(
        "batch.suspect_jobs",
        "count",
        counter(&batch, "batch.suspect_jobs"),
    );
    out.metric(
        "obs.trace_overhead",
        "share",
        median(&traced_ms) / service_p50 - 1.0,
    );

    // Work counters of the first replay pass and of input generation.
    let candidates = counter(&replay, "intercell.candidates");
    let filtered = counter(&replay, "intercell.cone_filtered");
    out.metric("intercell.candidates", "count", candidates);
    out.metric("intercell.cone_filtered", "count", filtered);
    out.metric(
        "intercell.cone_filtered_ratio",
        "share",
        filtered / candidates.max(1.0),
    );
    out.metric(
        "intercell.set_cover.iterations",
        "count",
        counter(&replay, "intercell.set_cover.iterations"),
    );
    out.metric(
        "intercell.unexplained",
        "count",
        counter(&replay, "intercell.unexplained"),
    );
    out.metric(
        "packed.words_simulated",
        "count",
        counter(&replay, "packed.words_simulated"),
    );
    out.metric(
        "eventsim.gates_evaluated",
        "count",
        counter(&generation, "eventsim.gates_evaluated"),
    );
    let suspects: usize = replayed.iter().map(|r| r.suspects.len()).sum();
    let wasted: usize = replayed.iter().map(|r| r.wasted).sum();
    out.metric(
        "flow.suspects_per_device",
        "count",
        suspects as f64 / replayed.len() as f64,
    );
    out.metric(
        "flow.suspects_wasted_share",
        "share",
        wasted as f64 / suspects.max(1) as f64,
    );
    out.metric(
        "cache.table.hit_ratio",
        "share",
        cache.table_stats().hit_rate(),
    );
    out.metric("cache.cpt.hit_ratio", "share", cache.cpt_stats().hit_rate());
    out.metric(
        "cache.packed.hit_ratio",
        "share",
        cache.packed_stats().hit_rate(),
    );

    // The daemon.
    out.metric("server.client_p50_ms", "ms", client_p50);
    out.metric("server.wire_overhead_ms", "ms", client_p50 - service_p50);
    out.metric("server.stats_p50_ms", "ms", stats.request_p50_ms);
    out.metric("server.requests_clean", "count", stats.clean as f64);
    out.metric("server.requests_degraded", "count", stats.degraded as f64);
    out.metric("server.requests_failed", "count", stats.failed as f64);
    out.metric("server.requests_rejected", "count", stats.rejected as f64);
    out.metric("loadgen.lag_p99_ms", "ms", lag_p99);
    out.metric("process.peak_rss_mb", "MiB", crate::report::peak_rss_mb());
    // Stats percentiles are log2-bucket estimates of server-side time, so
    // they may exceed the client's figure by at most one bucket.
    let consistent = stats.request_p50_ms <= 2.0 * client_p50;
    if !consistent {
        out.invalidate(format!(
            "daemon Stats p50 {} ms disagrees with client p50 {client_p50} ms",
            stats.request_p50_ms
        ));
    }

    out.fact(
        "trace",
        format!(
            "{{\"inputs\": {}, \"replay_passes\": {}, \"service_pairs\": {}, \"daemon_requests\": {}, \"daemon_rate_per_s\": {}, \"replay_spans\": {}}}",
            replayed.len(),
            ledger.coverage.len(),
            plain_ms.len(),
            daemon_requests,
            inputs.rate,
            replay_collector.span_forest().len()
        ),
    );
    Ok(out)
}
