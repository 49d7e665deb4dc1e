//! The diagnosis job graph and its long-lived executor.
//!
//! [`DiagnosisService`] is the only place the job graph is built: the
//! network daemon streams single datalogs through a long-lived service,
//! and [`BatchEngine`](crate::BatchEngine) runs whole batches through a
//! short-lived one.
//!
//! * **one coordinator** — per datalog a *front* job (sanitize → escape
//!   check → inter-cell diagnosis → suspect selection), then one
//!   *suspect* job per suspected gate, largest fanout cone first, all
//!   sharing the context, the good-machine simulation and the
//!   [`AnalysisCache`]; results come back on one channel tagged by
//!   (datalog index, suspect slot) and merge by slot;
//! * **streaming** — [`DiagnosisService::diagnose_streamed`] emits a
//!   [`StreamEvent`] when the front stage resolves the suspect list and
//!   one per completed per-suspect analysis, so a network server can
//!   push first results before the full report is merged;
//! * **cooperative cancellation** — the request's [`CancelToken`]
//!   (deadline or explicit) is checked at every job boundary; cancelled
//!   work surfaces as [`FlowError::Cancelled`] and never poisons the
//!   pool;
//! * **bounded admission** — jobs are submitted with
//!   [`WorkerPool::try_submit`] under the service's submit wait; a
//!   refused front job surfaces as [`ServiceError::Busy`] and the caller
//!   owns the retry policy.
//!
//! The merged [`FlowReport`] is byte-identical (including `Debug`
//! rendering) to the sequential staged flow's for the same datalog, at
//! any worker count.

use std::error::Error;
use std::fmt;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{mpsc, Arc};
use std::time::{Duration, Instant};

use icd_bench::flow::{
    analyze_suspect, select_suspects, ExperimentContext, FlowError, FlowReport, FlowStage,
    GateAnalysis, SkippedGate,
};
use icd_core::AnalysisCache;
use icd_faultsim::{BitValues, Datalog};
use icd_intercell::IntercellDiagnosis;
use icd_netlist::GateId;
use icd_obs::TraceContext;

use crate::cancel::CancelToken;
use crate::engine::{BatchOutcome, JobError};
use crate::pool::{PoolMetrics, WorkerPool};

/// Why a streamed request produced no report.
#[derive(Debug)]
pub enum ServiceError {
    /// The worker pool's queue stayed full for the whole bounded wait
    /// (or the pool is shutting down). Transient: the caller may retry
    /// with backoff or degrade the response.
    Busy,
    /// The request ran and failed as a whole (front-stage flow error or
    /// contained panic).
    Job(JobError),
}

impl fmt::Display for ServiceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ServiceError::Busy => write!(f, "diagnosis queue is full"),
            ServiceError::Job(e) => write!(f, "{e}"),
        }
    }
}

impl Error for ServiceError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            ServiceError::Busy => None,
            ServiceError::Job(e) => Some(e),
        }
    }
}

/// Incremental progress of one streamed request.
#[derive(Debug)]
pub enum StreamEvent<'a> {
    /// The front stage finished: these suspects fan out for analysis,
    /// in inter-cell rank order (slot order of the final report).
    Suspects(&'a [GateId]),
    /// One suspect's analysis completed (events arrive in completion
    /// order; the final report is still merged in slot order).
    SuspectDone {
        /// The suspect's slot in the final report.
        slot: usize,
        /// The analyzed gate.
        gate: GateId,
        /// Whether the analysis succeeded (a failure becomes a
        /// [`SkippedGate`] in the report).
        ok: bool,
    },
}

/// Immutable per-datalog artifacts shared by that datalog's suspect jobs.
struct FrontShared {
    datalog: Datalog,
    inter: IntercellDiagnosis,
}

type SuspectResult = Result<GateAnalysis, (FlowStage, FlowError)>;

/// One datalog past its front stage: the report's datalog-level fields,
/// plus one slot per suspect that fills as its analysis job finishes.
struct Pending {
    report: FlowReport,
    /// What the suspect jobs read; `None` when there are no suspects.
    shared: Option<Arc<FrontShared>>,
    suspects: Vec<GateId>,
    slots: Vec<Option<SuspectResult>>,
    filled: usize,
}

impl Pending {
    fn new(report: FlowReport, shared: Option<Arc<FrontShared>>, suspects: Vec<GateId>) -> Self {
        Pending {
            report,
            shared,
            slots: suspects.iter().map(|_| None).collect(),
            suspects,
            filled: 0,
        }
    }

    /// Fills `slot` unless it already holds a result; returns whether it
    /// was newly filled.
    fn fill(&mut self, slot: usize, result: SuspectResult) -> bool {
        if self.slots[slot].is_some() {
            return false;
        }
        self.slots[slot] = Some(result);
        self.filled += 1;
        true
    }

    fn is_complete(&self) -> bool {
        self.filled == self.slots.len()
    }

    /// Merges the slots in suspect order — the exact order the sequential
    /// staged flow records analyses and skips, so the merged report is
    /// byte-identical to the single-threaded one. A slot whose job was
    /// lost degrades to a `Cancelled` skip.
    fn merge(mut self) -> FlowReport {
        for (gate, slot) in self.suspects.into_iter().zip(self.slots) {
            match slot.unwrap_or(Err((FlowStage::Worker, FlowError::Cancelled))) {
                Ok(analysis) => self.report.analyses.push(analysis),
                Err((stage, error)) => self.report.skipped.push(SkippedGate { gate, stage, error }),
            }
        }
        self.report
    }
}

/// The front half of the staged flow for one datalog: sanitation, escape
/// check, inter-cell diagnosis, suspect selection. Runs on a worker; a
/// test escape or a datalog without suspects comes back complete.
fn front_stage(
    ctx: &ExperimentContext,
    good: &BitValues,
    datalog: &Datalog,
) -> Result<Pending, JobError> {
    let (datalog, sanitize) = {
        let _s = icd_obs::stage("flow.sanitize");
        datalog.sanitize(ctx.circuit.outputs().len())
    };
    let escaped = {
        let _s = icd_obs::stage("flow.escape_check");
        datalog.all_pass()
    };
    let mut report = FlowReport {
        failing_patterns: 0,
        sanitize,
        analyses: Vec::new(),
        skipped: Vec::new(),
        unexplained: Vec::new(),
    };
    if escaped {
        return Ok(Pending::new(report, None, Vec::new()));
    }
    let inter = {
        let _s = icd_obs::stage("flow.intercell");
        icd_intercell::diagnose_with_good(&ctx.circuit, &ctx.patterns, &datalog, good)
            .map_err(|e| JobError::Flow(FlowError::Intercell(e)))?
    };
    let suspects = select_suspects(&inter);
    report.failing_patterns = datalog.entries.len();
    report.unexplained = inter.unexplained.clone();
    let shared = (!suspects.is_empty()).then(|| Arc::new(FrontShared { datalog, inter }));
    Ok(Pending::new(report, shared, suspects))
}

fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_owned()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "opaque panic payload".to_owned()
    }
}

/// One node of the job graph.
enum Work {
    Front(Datalog),
    Suspect {
        shared: Arc<FrontShared>,
        slot: usize,
        gate: GateId,
    },
}

impl Work {
    fn run(self, ctx: &ExperimentContext, good: &BitValues, cache: &AnalysisCache) -> Output {
        match self {
            Work::Front(datalog) => Output::Front(front_stage(ctx, good, &datalog)),
            Work::Suspect { shared, slot, gate } => {
                let (datalog, inter) = (&shared.datalog, &shared.inter);
                let result = analyze_suspect(ctx, datalog, inter, good, gate, Some(cache));
                Output::Suspect { slot, result }
            }
        }
    }
}

/// A finished job, tagged with its datalog (and, for suspects, slot).
struct Done {
    index: usize,
    output: Output,
    /// Worker time the job took (µs).
    busy_us: u64,
}

enum Output {
    Front(Result<Pending, JobError>),
    Suspect { slot: usize, result: SuspectResult },
}

/// The long-lived diagnosis executor: one pool, one good simulation,
/// one cache, many concurrent requests.
pub struct DiagnosisService {
    ctx: Arc<ExperimentContext>,
    good: Arc<BitValues>,
    cache: Arc<AnalysisCache>,
    pool: WorkerPool,
    submit_wait: Duration,
    /// Fault-injection seam: runs at the start of every front/suspect
    /// job, *inside* the panic net. A hook that panics emulates a
    /// worker dying mid-job — the chaos harness's handle on the pool.
    job_hook: Option<Arc<dyn Fn() + Send + Sync>>,
}

impl fmt::Debug for DiagnosisService {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("DiagnosisService")
            .field("workers", &self.pool.workers())
            .field("submit_wait", &self.submit_wait)
            .finish_non_exhaustive()
    }
}

impl DiagnosisService {
    /// Builds the service: runs the shared good-machine simulation once
    /// and spawns the worker pool (`workers` threads, `queue_capacity`
    /// waiting jobs, `submit_wait` bounded wait per submission).
    ///
    /// # Errors
    ///
    /// Returns an error when the good-machine simulation fails — nothing
    /// can be served without it.
    pub fn new(
        ctx: Arc<ExperimentContext>,
        workers: usize,
        queue_capacity: usize,
        submit_wait: Duration,
    ) -> Result<Self, FlowError> {
        let good = Arc::new(icd_faultsim::good_simulate(&ctx.circuit, &ctx.patterns)?);
        let cache = Arc::new(AnalysisCache::new());
        Ok(Self::from_parts(
            ctx,
            good,
            cache,
            workers,
            queue_capacity,
            submit_wait,
        ))
    }

    /// A service over an already-computed good simulation and a
    /// caller-owned cache (the batch engine's short-lived instance).
    pub(crate) fn from_parts(
        ctx: Arc<ExperimentContext>,
        good: Arc<BitValues>,
        cache: Arc<AnalysisCache>,
        workers: usize,
        queue_capacity: usize,
        submit_wait: Duration,
    ) -> Self {
        DiagnosisService {
            ctx,
            good,
            cache,
            pool: WorkerPool::new(workers, queue_capacity),
            submit_wait,
            job_hook: None,
        }
    }

    /// Shuts the pool down, joins its workers and returns their final,
    /// exact counters.
    pub(crate) fn into_pool_metrics(self) -> PoolMetrics {
        self.pool.into_metrics()
    }

    /// Installs a hook that runs at the start of every front/suspect job,
    /// inside the worker's panic containment. This is the fault-injection
    /// seam of the chaos harness: a hook that panics at a seeded rate
    /// exercises exactly the contain-retry-degrade path a real worker
    /// bug would. Production servers leave it unset.
    #[must_use]
    pub fn with_job_hook(mut self, hook: Arc<dyn Fn() + Send + Sync>) -> Self {
        self.job_hook = Some(hook);
        self
    }

    /// The shared experiment context requests are diagnosed against.
    pub fn context(&self) -> &Arc<ExperimentContext> {
        &self.ctx
    }

    /// Jobs queued or running right now.
    pub fn pending_jobs(&self) -> usize {
        self.pool.pending_jobs()
    }

    /// Waits until no job is queued or running (the drain step of a
    /// graceful shutdown). Returns whether the pool went idle in time.
    pub fn wait_idle(&self, timeout: Duration) -> bool {
        self.pool.wait_idle(timeout)
    }

    /// Diagnoses one datalog, streaming progress through `on_event`.
    ///
    /// Runs on the calling thread as the request's coordinator: the
    /// front job and every per-suspect job execute on the pool, results
    /// stream back over an internal channel, and the merged report is
    /// identical to the batch engine's for the same datalog. The token
    /// is checked at every job boundary; a request cancelled mid-fanout
    /// gets its already-finished analyses plus `Cancelled` skips for the
    /// rest — a *degraded partial* report, not an error.
    ///
    /// # Errors
    ///
    /// [`ServiceError::Busy`] when the front job cannot be admitted
    /// within the bounded wait (transient — retry or degrade);
    /// [`ServiceError::Job`] when the request fails as a whole
    /// (front-stage flow error, contained panic, or cancellation before
    /// the front stage ran).
    pub fn diagnose_streamed(
        &self,
        datalog: &Datalog,
        token: &CancelToken,
        on_event: &mut dyn FnMut(StreamEvent<'_>),
    ) -> Result<FlowReport, ServiceError> {
        self.diagnose_streamed_traced(datalog, token, None, on_event)
    }

    /// [`diagnose_streamed`](Self::diagnose_streamed) with an optional
    /// per-request trace: every job *enters* the trace on its worker
    /// thread, so the request's `batch.front` / `batch.suspect` spans
    /// (datalog 0) — and the `flow.*` stage spans nested inside them —
    /// land in the trace's span forest even though they execute on pool
    /// threads the caller never sees.
    pub fn diagnose_streamed_traced(
        &self,
        datalog: &Datalog,
        token: &CancelToken,
        trace: Option<&TraceContext>,
        on_event: &mut dyn FnMut(StreamEvent<'_>),
    ) -> Result<FlowReport, ServiceError> {
        let (mut outcomes, _) = self.coordinate(
            std::slice::from_ref(datalog),
            token,
            trace,
            &mut |_, event| on_event(event),
        )?;
        let outcome = outcomes.pop().map(|o| o.report);
        outcome
            .unwrap_or_else(|| Err(JobError::Panicked("datalog result missing".to_owned())))
            .map_err(ServiceError::Job)
    }

    /// The job graph: runs every datalog through its front job and its
    /// per-suspect fan-out on the pool, with the calling thread as the
    /// coordinator. Returns one outcome per datalog, in input order, plus
    /// the number of suspect jobs submitted; [`ServiceError::Busy`] when
    /// a front job is not admitted within the submit wait (fronts already
    /// admitted still run, their results unread).
    ///
    /// Every front job is submitted first, in index order; each
    /// datalog's suspects fan out (largest fanout cone first) as its
    /// front result arrives. The token is checked before every
    /// submission and again when each job starts: a datalog cancelled
    /// before its front job resolves to `Cancelled`, a suspect cancelled
    /// or refused admission becomes a `Cancelled` skip.
    pub(crate) fn coordinate(
        &self,
        datalogs: &[Datalog],
        token: &CancelToken,
        trace: Option<&TraceContext>,
        on_event: &mut dyn FnMut(usize, StreamEvent<'_>),
    ) -> Result<(Vec<BatchOutcome>, usize), ServiceError> {
        let (tx, rx) = mpsc::channel::<Done>();
        let mut results: Vec<Option<Result<FlowReport, JobError>>> = Vec::new();
        for (index, datalog) in datalogs.iter().enumerate() {
            if token.is_cancelled() {
                results.push(Some(Err(JobError::Flow(FlowError::Cancelled))));
            } else if self.submit(&tx, token, trace, index, Work::Front(datalog.clone())) {
                results.push(None);
            } else {
                return Err(ServiceError::Busy);
            }
        }
        let mut fronts_running = results.iter().filter(|r| r.is_none()).count();
        let mut unresolved = fronts_running;
        let mut waiting: Vec<Option<Pending>> = datalogs.iter().map(|_| None).collect();
        let mut busy_us = vec![0u64; datalogs.len()];
        let mut suspect_jobs = 0usize;
        // The coordinator keeps a sender only while front results can
        // still fan out; after the last one only jobs hold senders, so a
        // job lost without reporting closes the channel instead of
        // hanging the loop.
        let mut tx = Some(tx);

        while unresolved > 0 {
            if fronts_running == 0 {
                tx = None;
            }
            let Ok(done) = rx.recv() else { break };
            let index = done.index;
            busy_us[index] += done.busy_us;
            let finished = match done.output {
                Output::Front(Err(e)) => {
                    fronts_running -= 1;
                    Some(Err(e))
                }
                Output::Front(Ok(mut pending)) => {
                    fronts_running -= 1;
                    if let (Some(tx), Some(shared)) = (&tx, pending.shared.clone()) {
                        on_event(index, StreamEvent::Suspects(&pending.suspects));
                        // Largest fanout cones first: the most expensive
                        // per-suspect resimulations start earliest, so no
                        // big cone straggles at the tail of the pool. The
                        // sort is stable, so the schedule is deterministic.
                        let mut order: Vec<usize> = (0..pending.suspects.len()).collect();
                        order.sort_by_key(|&s| {
                            std::cmp::Reverse(self.ctx.circuit.cone_size(pending.suspects[s]))
                        });
                        for slot in order {
                            let (shared, gate) = (Arc::clone(&shared), pending.suspects[slot]);
                            let work = Work::Suspect { shared, slot, gate };
                            if !token.is_cancelled() && self.submit(tx, token, trace, index, work) {
                                suspect_jobs += 1;
                            } else {
                                pending.fill(slot, Err((FlowStage::Worker, FlowError::Cancelled)));
                            }
                        }
                    }
                    waiting[index] = Some(pending);
                    None
                }
                Output::Suspect { slot, result } => {
                    if let Some(pending) = waiting[index].as_mut() {
                        let (gate, ok) = (pending.suspects[slot], result.is_ok());
                        if pending.fill(slot, result) {
                            on_event(index, StreamEvent::SuspectDone { slot, gate, ok });
                        }
                    }
                    None
                }
            };
            let finished = finished.or_else(|| {
                waiting[index]
                    .take_if(|p| p.is_complete())
                    .map(|p| Ok(p.merge()))
            });
            if let Some(report) = finished {
                results[index] = Some(report);
                unresolved -= 1;
            }
        }

        let outcomes = results
            .into_iter()
            .zip(waiting)
            .zip(busy_us)
            .enumerate()
            .map(|(index, ((result, pending), busy_us))| BatchOutcome {
                index,
                // The channel closed with jobs unreported (the pool
                // dropped them): missing slots degrade to Cancelled.
                report: result
                    .or_else(|| pending.map(|p| Ok(p.merge())))
                    .unwrap_or_else(|| {
                        Err(JobError::Panicked("front job result missing".to_owned()))
                    }),
                busy_us,
            })
            .collect();
        Ok((outcomes, suspect_jobs))
    }

    /// Wraps one node of the graph as a pool job and submits it within
    /// the submit wait. The job enters the request's trace, opens its
    /// merge-identity span (`batch.front` with `datalog`, `batch.suspect`
    /// with `datalog` and `slot`), checks the token, and runs the work
    /// under `catch_unwind`; a cancelled or panicked job still reports.
    /// Returns whether the pool admitted the job.
    fn submit(
        &self,
        tx: &mpsc::Sender<Done>,
        token: &CancelToken,
        trace: Option<&TraceContext>,
        index: usize,
        work: Work,
    ) -> bool {
        let (ctx, good) = (Arc::clone(&self.ctx), Arc::clone(&self.good));
        let (cache, hook) = (Arc::clone(&self.cache), self.job_hook.clone());
        let (token, trace, tx) = (token.clone(), trace.cloned(), tx.clone());
        let job = Box::new(move || {
            let t0 = Instant::now();
            let slot = match &work {
                Work::Front(_) => None,
                Work::Suspect { slot, .. } => Some(*slot),
            };
            // The span closes before the result is sent: a coordinator
            // holding every result then holds every job span too.
            let ran = {
                let _trace = trace.as_ref().map(TraceContext::enter);
                let datalog = ("datalog", index as u64);
                let _span = match slot {
                    None => icd_obs::span_with("batch.front", &[datalog]),
                    Some(s) => icd_obs::span_with("batch.suspect", &[datalog, ("slot", s as u64)]),
                };
                if token.is_cancelled() {
                    Err(FlowError::Cancelled)
                } else {
                    catch_unwind(AssertUnwindSafe(|| {
                        if let Some(hook) = &hook {
                            hook();
                        }
                        work.run(&ctx, &good, &cache)
                    }))
                    .map_err(|p| FlowError::Panicked(panic_message(p)))
                }
            };
            let output = ran.unwrap_or_else(|error| match (slot, error) {
                (Some(slot), error) => Output::Suspect {
                    slot,
                    result: Err((FlowStage::Worker, error)),
                },
                (None, FlowError::Panicked(msg)) => Output::Front(Err(JobError::Panicked(msg))),
                (None, error) => Output::Front(Err(JobError::Flow(error))),
            });
            let busy_us = t0.elapsed().as_micros() as u64;
            let _ = tx.send(Done {
                index,
                output,
                busy_us,
            });
        });
        self.pool.try_submit(job, self.submit_wait).is_ok()
    }
}

/// Renders one [`FlowReport`] as the canonical single-line summary shown
/// by `icdiag run` and streamed back by the diagnosis server. Keeping the
/// rendering in one place is what makes "server response ≡ `icdiag run`
/// output" a byte-level contract the chaos soak test can assert.
pub fn summarize_report(ctx: &ExperimentContext, report: &FlowReport) -> String {
    if report.is_escape() {
        return "PASS (test escape)".to_owned();
    }
    let top = report
        .best()
        .map(|a| {
            format!(
                "g{}:{} ({} candidates)",
                a.gate.index(),
                ctx.circuit.gate_type(a.gate).name(),
                a.ranked.candidates.len()
            )
        })
        .unwrap_or_else(|| "none".to_owned());
    format!(
        "{} failing patterns, {} analyzed, {} skipped, {} unexplained, top suspect {top}{}",
        report.failing_patterns,
        report.analyses.len(),
        report.skipped.len(),
        report.unexplained.len(),
        if report.is_degraded() {
            " [degraded]"
        } else {
            ""
        },
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{synthesize_batch, BatchConfig, BatchEngine, EngineConfig};
    use icd_netlist::generator;

    fn service_fixture() -> (DiagnosisService, Vec<Datalog>) {
        let ctx = ExperimentContext::from_preset(&generator::circuit_a(), 4, 16)
            .expect("scaled circuit A builds")
            .into_shared();
        let batch = synthesize_batch(&ctx, &BatchConfig::new(4, 0x5eed)).expect("batch");
        assert!(!batch.is_empty());
        let service =
            DiagnosisService::new(ctx, 2, 16, Duration::from_secs(5)).expect("service builds");
        (service, batch)
    }

    #[test]
    fn streamed_report_matches_the_batch_engine_byte_for_byte() {
        let (service, batch) = service_fixture();
        let engine = BatchEngine::new(EngineConfig::with_workers(1));
        let reference = engine
            .diagnose_batch(service.context(), &batch, None, None)
            .expect("batch runs");
        for (i, datalog) in batch.iter().enumerate() {
            let mut suspects_seen = 0usize;
            let mut done_seen = 0usize;
            let streamed = service
                .diagnose_streamed(datalog, &CancelToken::new(), &mut |ev| match ev {
                    StreamEvent::Suspects(s) => suspects_seen = s.len(),
                    StreamEvent::SuspectDone { .. } => done_seen += 1,
                })
                .expect("streamed run succeeds");
            let reference_report = reference.outcomes[i].report.as_ref().expect("reference ok");
            assert_eq!(
                format!("{streamed:?}"),
                format!("{reference_report:?}"),
                "datalog {i} diverged"
            );
            assert_eq!(done_seen, suspects_seen, "one completion event per suspect");
            assert_eq!(
                summarize_report(service.context(), &streamed),
                summarize_report(service.context(), reference_report)
            );
        }
    }

    #[test]
    fn cancelled_token_rejects_before_any_work() {
        let (service, batch) = service_fixture();
        let token = CancelToken::new();
        token.cancel();
        let err = service
            .diagnose_streamed(&batch[0], &token, &mut |_| {})
            .expect_err("cancelled request must not run");
        assert!(matches!(
            err,
            ServiceError::Job(JobError::Flow(FlowError::Cancelled))
        ));
    }

    #[test]
    fn expired_deadline_degrades_suspects_to_cancelled_skips() {
        let (service, batch) = service_fixture();
        // A deadline that expires somewhere between the front stage and
        // the fanout: cancel the token from the Suspects callback, which
        // fires exactly at that boundary.
        let token = CancelToken::new();
        let token_in_cb = token.clone();
        let report = service
            .diagnose_streamed(&batch[0], &token, &mut |ev| {
                if matches!(ev, StreamEvent::Suspects(_)) {
                    token_in_cb.cancel();
                }
            })
            .expect("boundary cancellation degrades, not errors");
        assert!(
            report
                .skipped
                .iter()
                .all(|s| matches!(s.error, FlowError::Cancelled)),
            "skips carry Cancelled: {:?}",
            report.skipped
        );
        assert!(
            !report.skipped.is_empty(),
            "at least one suspect was cancelled at the boundary"
        );
        assert!(report.is_degraded());
        // The pool survives: a fresh request still works.
        let fresh = service
            .diagnose_streamed(&batch[0], &CancelToken::new(), &mut |_| {})
            .expect("pool not poisoned");
        assert!(fresh
            .skipped
            .iter()
            .all(|s| !matches!(s.error, FlowError::Cancelled)));
    }

    #[test]
    fn traced_request_records_one_front_root_and_one_suspect_root_per_suspect() {
        let (service, batch) = service_fixture();
        let trace = icd_obs::TraceContext::new(0x5eed);
        let mut suspects: Vec<GateId> = Vec::new();
        service
            .diagnose_streamed_traced(&batch[0], &CancelToken::new(), Some(&trace), &mut |ev| {
                if let StreamEvent::Suspects(s) = ev {
                    suspects = s.to_vec();
                }
            })
            .expect("traced run succeeds");
        assert!(!suspects.is_empty(), "fixture datalog fans out");

        // The shape the daemon's event log serializes: the front job
        // first, then one suspect job per slot, each a root (jobs run on
        // pool threads, outside any caller span) over its flow stages.
        let forest = trace.span_forest();
        assert_eq!(forest.len(), 1 + suspects.len(), "{forest:#?}");
        let front = &forest[0];
        assert_eq!(front.name, "batch.front");
        assert_eq!(front.attrs, vec![("datalog", 0)]);
        let front_stages: Vec<&str> = front.children.iter().map(|c| c.name).collect();
        assert!(front_stages.contains(&"flow.sanitize"), "{front_stages:?}");
        assert!(front_stages.contains(&"flow.intercell"), "{front_stages:?}");
        for (slot, root) in forest[1..].iter().enumerate() {
            assert_eq!(root.name, "batch.suspect");
            assert_eq!(root.attrs, vec![("datalog", 0), ("slot", slot as u64)]);
            let stages: Vec<&str> = root.children.iter().map(|c| c.name).collect();
            assert_eq!(stages, vec!["flow.analyze_suspect"], "slot {slot}");
        }
        for root in &forest {
            assert!(
                !root.children.is_empty(),
                "{} has no flow stages",
                root.name
            );
            assert!(root.children.iter().all(|c| c.name.starts_with("flow.")));
        }
    }
}
