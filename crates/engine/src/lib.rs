//! Parallel batch-diagnosis engine over the staged diagnosis flow.
//!
//! The paper's volume-diagnosis setting is inherently batch-shaped: one
//! design, one test set, thousands of failing-device datalogs. This crate
//! turns `icd_bench::flow`'s staged per-datalog flow into a job graph and
//! executes it on a std-only work-stealing thread pool (the build
//! environment has no registry access, so no `rayon`):
//!
//! * **one job graph** — per datalog a *front* job (sanitize →
//!   test-escape check → inter-cell diagnosis → suspect selection), then
//!   per (datalog × suspected gate) an independent *analysis* job, built
//!   in one place: the coordinator of [`DiagnosisService`];
//! * **shared immutable artifacts** — the [`ExperimentContext`] (circuit,
//!   transistor-level cell library, pattern set) and the good-machine
//!   simulation are computed once and `Arc`-shared by every job;
//! * **shared-artifact caching** — an [`icd_core::AnalysisCache`] shares
//!   per-cell-type truth tables and critical-path traces across jobs; the
//!   cache is transparent (identical results with and without), and a
//!   caller may pass its own to carry it across batches;
//! * **panic isolation** — every job runs under `catch_unwind`; a
//!   poisoned suspect becomes a structured [`SkippedGate`] in its
//!   datalog's report, a poisoned front job becomes a
//!   [`JobError::Panicked`] outcome, and the rest of the batch is
//!   untouched;
//! * **deterministic merging** — results are placed by (datalog index,
//!   suspect slot), so the merged [`BatchReport`] is byte-identical for
//!   any worker count and any scheduling order;
//! * **cooperative cancellation** — a [`CancelToken`] (explicit or
//!   deadline-armed) threads through
//!   [`DiagnosisService::diagnose_streamed`]; it is checked at job
//!   boundaries only, so cancelled work surfaces as
//!   [`FlowError::Cancelled`] results and never poisons the pool;
//! * **two lifecycles, one graph** — [`BatchEngine::diagnose_batch`]
//!   runs a whole batch through a short-lived service; the `icd-server`
//!   daemon keeps one [`DiagnosisService`] alive across requests and
//!   streams per-suspect completions incrementally;
//! * **observability** — [`BatchEngine::diagnose_batch`] takes an
//!   optional [`icd_obs`] [`Collector`]: per-job spans keyed by merge
//!   identity, per-stage latency histograms, cache/set-cover counters
//!   and pool health (queue depth, steals, per-worker busy/idle). The
//!   span forest and the redacted metrics snapshot are byte-identical at
//!   any worker count.
//!
//! ```
//! use icd_bench::flow::ExperimentContext;
//! use icd_engine::{BatchEngine, EngineConfig};
//! use icd_netlist::generator;
//!
//! let ctx = ExperimentContext::from_preset(&generator::circuit_a(), 1, 25)
//!     .unwrap()
//!     .into_shared();
//! // An all-pass datalog: the batch engine reports a clean test escape.
//! let escape = icd_faultsim::Datalog {
//!     circuit_name: ctx.circuit.name().to_owned(),
//!     num_patterns: ctx.patterns.len(),
//!     entries: vec![],
//! };
//! let engine = BatchEngine::new(EngineConfig::with_workers(2));
//! let batch = engine.diagnose_batch(&ctx, &[escape], None, None).unwrap();
//! assert!(batch.outcomes[0].report.as_ref().unwrap().is_escape());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![cfg_attr(test, allow(clippy::unwrap_used, clippy::panic))]

mod batch;
mod cancel;
mod engine;
mod pool;
mod service;

pub use batch::{synthesize_batch, BatchConfig};
pub use cancel::CancelToken;
pub use engine::{BatchEngine, BatchOutcome, BatchReport, BatchStats, EngineConfig, JobError};
pub use pool::{Job, PoolMetrics, WorkerPool};
pub use service::{summarize_report, DiagnosisService, ServiceError, StreamEvent};

// Convenience re-exports: everything a caller needs to build a batch.
pub use icd_bench::flow::{ExperimentContext, FlowError, FlowReport, FlowStage, SkippedGate};
pub use icd_obs::{Collector, MetricsSnapshot};

#[cfg(test)]
mod tests {
    use super::*;

    // The engine's whole design rests on the shared artifacts being
    // usable from worker threads.
    fn assert_send_sync<T: Send + Sync>() {}

    #[test]
    fn shared_artifacts_are_send_and_sync() {
        assert_send_sync::<ExperimentContext>();
        assert_send_sync::<icd_core::AnalysisCache>();
        assert_send_sync::<icd_faultsim::BitValues>();
        assert_send_sync::<icd_faultsim::Datalog>();
        assert_send_sync::<icd_intercell::IntercellDiagnosis>();
        assert_send_sync::<BatchEngine>();
        assert_send_sync::<WorkerPool>();
    }

    #[test]
    fn config_from_env_respects_icd_workers_format() {
        // Only the pure parsing path: with_workers clamps to >= 1.
        assert_eq!(EngineConfig::with_workers(0).workers, 1);
        assert_eq!(EngineConfig::with_workers(8).workers, 8);
        assert!(EngineConfig::with_workers(1).queue_capacity >= 16);
    }
}
