//! The batch entry point: a whole batch of datalogs through the
//! diagnosis job graph on a short-lived [`DiagnosisService`].

use std::error::Error;
use std::fmt;
use std::sync::Arc;
use std::time::{Duration, Instant};

use icd_bench::flow::{ExperimentContext, FlowError, FlowReport};
use icd_core::{AnalysisCache, CacheStats};
use icd_faultsim::Datalog;
use icd_obs::Collector;

use crate::cancel::CancelToken;
use crate::service::DiagnosisService;

/// Engine sizing.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EngineConfig {
    /// Worker threads (at least 1).
    pub workers: usize,
    /// Jobs that may wait in the pool before submissions block
    /// (backpressure bound).
    pub queue_capacity: usize,
}

impl EngineConfig {
    /// A configuration with `workers` threads and a proportional queue
    /// bound.
    pub fn with_workers(workers: usize) -> Self {
        let workers = workers.max(1);
        EngineConfig {
            workers,
            queue_capacity: (workers * 4).max(16),
        }
    }

    /// Reads `ICD_WORKERS` (the CI/test override), falling back to the
    /// machine's available parallelism.
    pub fn from_env() -> Self {
        let workers = std::env::var("ICD_WORKERS")
            .ok()
            .and_then(|v| v.parse::<usize>().ok())
            .filter(|&w| w > 0)
            .unwrap_or_else(|| {
                std::thread::available_parallelism()
                    .map(|n| n.get())
                    .unwrap_or(1)
            });
        EngineConfig::with_workers(workers)
    }
}

impl Default for EngineConfig {
    fn default() -> Self {
        EngineConfig::from_env()
    }
}

/// Why a whole datalog produced no [`FlowReport`].
#[derive(Debug)]
pub enum JobError {
    /// A whole-datalog stage failed structurally (e.g. inter-cell
    /// diagnosis rejected the datalog).
    Flow(FlowError),
    /// The front-end job panicked; the payload is the panic message.
    Panicked(String),
}

impl fmt::Display for JobError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            JobError::Flow(e) => write!(f, "datalog stage failed: {e}"),
            JobError::Panicked(msg) => write!(f, "datalog job panicked: {msg}"),
        }
    }
}

impl Error for JobError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            JobError::Flow(e) => Some(e),
            JobError::Panicked(_) => None,
        }
    }
}

/// One datalog's merged result, at its input position.
pub struct BatchOutcome {
    /// Index of the datalog in the submitted batch.
    pub index: usize,
    /// The merged staged-flow report, or the whole-datalog failure.
    pub report: Result<FlowReport, JobError>,
    /// Cumulative worker time spent in this datalog's front and suspect
    /// jobs (µs). Jobs run concurrently, so this is CPU-style busy time,
    /// not wall latency — and it is scheduling-dependent, so it must
    /// never leak into a serialized report (volume reports stay
    /// byte-identical at any worker count).
    pub busy_us: u64,
}

/// `busy_us` is deliberately absent: the `Debug` rendering IS the
/// determinism contract (tests compare it byte-for-byte across worker
/// counts), and busy time is scheduling noise.
impl fmt::Debug for BatchOutcome {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("BatchOutcome")
            .field("index", &self.index)
            .field("report", &self.report)
            .finish_non_exhaustive()
    }
}

/// Engine-level counters of one batch run.
#[derive(Debug, Clone, Copy)]
pub struct BatchStats {
    /// Datalogs in the batch.
    pub datalogs: usize,
    /// Per-suspect jobs executed.
    pub suspect_jobs: usize,
    /// Worker threads used.
    pub workers: usize,
    /// Wall-clock time of the batch (including the shared good-machine
    /// simulation).
    pub elapsed: Duration,
    /// Truth-table cache counters (shared across all jobs).
    pub table_cache: CacheStats,
    /// Critical-path-trace cache counters.
    pub cpt_cache: CacheStats,
}

/// The merged result of a batch run: one outcome per input datalog, in
/// input order regardless of scheduling.
#[derive(Debug)]
pub struct BatchReport {
    /// Per-datalog outcomes, ordered by input index.
    pub outcomes: Vec<BatchOutcome>,
    /// Run counters.
    pub stats: BatchStats,
}

impl BatchReport {
    /// The successfully merged reports, in input order.
    pub fn reports(&self) -> impl Iterator<Item = (usize, &FlowReport)> {
        self.outcomes
            .iter()
            .filter_map(|o| o.report.as_ref().ok().map(|r| (o.index, r)))
    }

    /// Datalogs that failed as a whole, in input order.
    pub fn failures(&self) -> impl Iterator<Item = (usize, &JobError)> {
        self.outcomes
            .iter()
            .filter_map(|o| o.report.as_ref().err().map(|e| (o.index, e)))
    }
}

/// The parallel batch-diagnosis engine.
///
/// Runs a batch through the job graph of [`DiagnosisService`]: per
/// datalog a front-end job (sanitize → escape check → inter-cell
/// diagnosis → suspect selection), then per suspected gate an
/// independent analysis job sharing the `Arc`-held context, good-machine
/// simulation and [`AnalysisCache`]. Results merge deterministically —
/// the produced [`FlowReport`]s are identical (including their `Debug`
/// rendering) for any worker count, because job outputs are placed by
/// (datalog index, suspect slot), never by completion order.
#[derive(Debug)]
pub struct BatchEngine {
    config: EngineConfig,
}

impl BatchEngine {
    /// An engine with the given configuration.
    pub fn new(config: EngineConfig) -> Self {
        BatchEngine { config }
    }

    /// Diagnoses a batch of datalogs against one shared context.
    ///
    /// The batch runs on a short-lived [`DiagnosisService`] whose
    /// submissions wait for queue space without a deadline: every front
    /// job goes first, in input order, and each datalog's suspects fan
    /// out as its front result arrives.
    ///
    /// `cache` defaults to a batch-private one. The cache is transparent
    /// (identical reports warm or cold), so a volume run can carry one —
    /// possibly preloaded from an on-disk snapshot — across batches of
    /// the same design; [`BatchStats`] and the observed `cache.*`
    /// counters then cover its whole lifetime.
    ///
    /// A `collector` is installed for the whole run: every job executes
    /// under a span carrying its merge identity (`batch.front` with a
    /// `datalog` attribute, `batch.suspect` with `datalog` and `slot`),
    /// and the batch, cache and pool counters are recorded into it once
    /// the pool is joined.
    ///
    /// # Errors
    ///
    /// Returns an error only when the batch-wide good-machine simulation
    /// fails (nothing can be diagnosed without it); every per-datalog and
    /// per-suspect failure is contained in the returned outcomes.
    pub fn diagnose_batch(
        &self,
        ctx: &Arc<ExperimentContext>,
        datalogs: &[Datalog],
        collector: Option<&Collector>,
        cache: Option<&Arc<AnalysisCache>>,
    ) -> Result<BatchReport, FlowError> {
        let _recording = collector.map(Collector::install);
        let t0 = Instant::now();
        let good = {
            let _s = icd_obs::stage("batch.good_simulate");
            Arc::new(icd_faultsim::good_simulate(&ctx.circuit, &ctx.patterns)?)
        };
        let cache = cache.map_or_else(|| Arc::new(AnalysisCache::new()), Arc::clone);
        let service = DiagnosisService::from_parts(
            Arc::clone(ctx),
            good,
            Arc::clone(&cache),
            self.config.workers,
            self.config.queue_capacity,
            Duration::MAX,
        );
        // An unbounded submit wait never refuses a job of a live pool.
        let (outcomes, suspect_jobs) = service
            .coordinate(datalogs, &CancelToken::new(), None, &mut |_, _| {})
            .map_err(|_| FlowError::Cancelled)?;
        // Join the workers first so the pool counters are final, then
        // export this run's metrics into the installed collector.
        let pool_metrics = service.into_pool_metrics();
        if icd_obs::enabled() {
            use icd_obs::Stability::{Stable, Timing};
            icd_obs::counter("batch.datalogs", datalogs.len() as u64, Stable);
            icd_obs::counter("batch.suspect_jobs", suspect_jobs as u64, Stable);
            cache.observe();
            icd_obs::counter("pool.jobs_executed", pool_metrics.jobs_executed, Stable);
            icd_obs::counter(
                "pool.panics_contained",
                pool_metrics.panics_contained,
                Stable,
            );
            icd_obs::counter("pool.steals", pool_metrics.steals, Timing);
            icd_obs::counter(
                "pool.busy_us",
                pool_metrics.busy_us.iter().sum::<u64>(),
                Timing,
            );
            icd_obs::counter(
                "pool.idle_us",
                pool_metrics.idle_us.iter().sum::<u64>(),
                Timing,
            );
            icd_obs::gauge_set(
                "pool.queue_high_water",
                pool_metrics.queue_high_water,
                Timing,
            );
            icd_obs::gauge_set("pool.workers", pool_metrics.workers as u64, Timing);
        }

        Ok(BatchReport {
            outcomes,
            stats: BatchStats {
                datalogs: datalogs.len(),
                suspect_jobs,
                workers: pool_metrics.workers,
                elapsed: t0.elapsed(),
                table_cache: cache.table_stats(),
                cpt_cache: cache.cpt_stats(),
            },
        })
    }
}
