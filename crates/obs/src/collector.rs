//! The collector: a process-global, installable metrics sink that also
//! owns the span store for work outside any per-request trace.
//!
//! Instrumentation sites call the free functions ([`counter`],
//! [`gauge_set`], [`observe_us`], [`span`], [`stage`], …). When no
//! collector is installed and no trace is entered they cost **two
//! relaxed atomic loads** and return immediately — the overhead budget
//! of the hot CPT/ranking paths, enforced by
//! `disabled_span_site_costs_almost_nothing`. When a [`Collector`] is
//! installed (see [`Collector::install`]) the calls record into it from
//! any thread — except that a span finished under an entered
//! [`TraceContext`](crate::TraceContext) lands in that trace only (a
//! [`stage`] span's histogram sample still goes to the collector).
//!
//! The active collector is process-global state: installing from two
//! threads at once stacks (last install wins until its guard drops,
//! which restores the previous collector). The batch engine installs a
//! collector around one run; concurrent runs therefore share whichever
//! collector was installed last — acceptable for a diagnosis CLI, and
//! documented here rather than hidden. Tests that need isolation from
//! concurrently running instrumented code use
//! [`Collector::install_local`], which scopes recording to the calling
//! thread.

use std::cell::{Cell, RefCell};
use std::marker::PhantomData;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, RwLock};
use std::time::Instant;

use crate::metrics::{HistogramSnapshot, MetricsSnapshot, Stability};
use crate::span::SpanNode;
use crate::trace::{RawSpan, TraceContext, TraceInner};

/// Count of live installs (global + thread-local, process-wide); one of
/// the two relaxed loads of the disabled fast path.
static INSTALLS: AtomicUsize = AtomicUsize::new(0);
static ACTIVE: RwLock<Option<Arc<Inner>>> = RwLock::new(None);
/// Small dense per-thread ids (worker threads of one process), assigned
/// on first use.
static NEXT_THREAD: AtomicU64 = AtomicU64::new(0);
/// Process-global span id / start-order counters, shared by every span
/// store so parent links never collide. Only *relative* order matters
/// downstream, so a global counter preserves every canonicalization
/// guarantee.
pub(crate) static NEXT_SPAN_ID: AtomicU64 = AtomicU64::new(1);
pub(crate) static NEXT_SEQ: AtomicU64 = AtomicU64::new(0);

thread_local! {
    static THREAD_ID: Cell<Option<u64>> = const { Cell::new(None) };
    /// Ids of the spans currently open on this thread, innermost last —
    /// the parent linkage of new spans.
    static SPAN_STACK: RefCell<Vec<u64>> = const { RefCell::new(Vec::new()) };
    /// A thread-scoped collector installed by
    /// [`Collector::install_local`]; shadows the global one on this
    /// thread. Used by unit tests that must not observe (or pollute)
    /// concurrently running instrumented code on other threads.
    static LOCAL: RefCell<Option<Arc<Inner>>> = const { RefCell::new(None) };
}

pub(crate) fn thread_id() -> u64 {
    THREAD_ID.with(|c| match c.get() {
        Some(id) => id,
        None => {
            let id = NEXT_THREAD.fetch_add(1, Ordering::Relaxed);
            c.set(Some(id));
            id
        }
    })
}

fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    match m.lock() {
        Ok(g) => g,
        Err(poisoned) => poisoned.into_inner(),
    }
}

#[derive(Debug, Default)]
struct MetricsStore {
    counters: std::collections::BTreeMap<&'static str, (u64, Stability)>,
    gauges: std::collections::BTreeMap<&'static str, (u64, Stability)>,
    histograms: std::collections::BTreeMap<&'static str, HistogramSnapshot>,
}

#[derive(Debug)]
pub(crate) struct Inner {
    metrics: Mutex<MetricsStore>,
    /// The span store for spans finished outside any entered trace: a
    /// root trace (id 0) owned by this collector.
    spans: TraceContext,
}

impl Inner {
    fn counter(&self, name: &'static str, delta: u64, stability: Stability) {
        let mut m = lock(&self.metrics);
        let entry = m.counters.entry(name).or_insert((0, stability));
        entry.0 += delta;
        entry.1 = entry.1.merge(stability);
    }

    fn gauge_set(&self, name: &'static str, value: u64, stability: Stability) {
        let mut m = lock(&self.metrics);
        let entry = m.gauges.entry(name).or_insert((value, stability));
        entry.0 = value;
        entry.1 = entry.1.merge(stability);
    }

    fn observe_us(&self, name: &'static str, us: u64, count_stability: Stability) {
        let mut m = lock(&self.metrics);
        m.histograms
            .entry(name)
            .or_insert_with(|| HistogramSnapshot::new(count_stability))
            .record(us);
    }
}

fn active() -> Option<Arc<Inner>> {
    if INSTALLS.load(Ordering::Relaxed) == 0 {
        return None;
    }
    if let Some(local) = LOCAL.with(|l| l.borrow().clone()) {
        return Some(local);
    }
    match ACTIVE.read() {
        Ok(g) => g.clone(),
        Err(poisoned) => poisoned.into_inner().clone(),
    }
}

/// Whether any collector is currently installed (globally or
/// thread-locally anywhere in the process). Instrumentation sites do
/// not need to call this — every recording function checks it first —
/// but callers can use it to skip building expensive labels.
pub fn enabled() -> bool {
    INSTALLS.load(Ordering::Relaxed) > 0
}

/// Adds `delta` to the named counter (no-op when disabled).
pub fn counter(name: &'static str, delta: u64, stability: Stability) {
    if let Some(inner) = active() {
        inner.counter(name, delta, stability);
    }
}

/// Sets the named gauge (last write wins; no-op when disabled).
pub fn gauge_set(name: &'static str, value: u64, stability: Stability) {
    if let Some(inner) = active() {
        inner.gauge_set(name, value, stability);
    }
}

/// Records one sample (µs) into the named histogram (no-op when
/// disabled). The histogram's *count* is declared scheduling-stable; use
/// [`observe_us_unstable`] when even the sample count varies with the
/// worker count.
pub fn observe_us(name: &'static str, us: u64) {
    if let Some(inner) = active() {
        inner.observe_us(name, us, Stability::Stable);
    }
}

/// [`observe_us`] for histograms whose sample count is itself
/// scheduling-dependent (e.g. one sample per worker thread).
pub fn observe_us_unstable(name: &'static str, us: u64) {
    if let Some(inner) = active() {
        inner.observe_us(name, us, Stability::Timing);
    }
}

/// An open span; finishing (dropping) it records the span into its one
/// store and, for [`stage`] spans, a latency histogram sample. `None`
/// inside when nothing records — the whole guard is then a no-op.
#[derive(Debug)]
pub struct SpanGuard(Option<OpenSpan>);

#[derive(Debug)]
struct OpenSpan {
    /// The one store the finished span lands in.
    sink: Arc<TraceInner>,
    /// The collector receiving a [`stage`] span's histogram sample.
    histogram: Option<Arc<Inner>>,
    /// The span's record; its duration is filled in on drop.
    raw: RawSpan,
}

fn open_span(
    name: &'static str,
    attrs: &[(&'static str, u64)],
    record_histogram: bool,
) -> SpanGuard {
    // The disabled fast path: two relaxed loads, no further work.
    if INSTALLS.load(Ordering::Relaxed) == 0 && !crate::trace::any_entered() {
        return SpanGuard(None);
    }
    let trace = crate::trace::current();
    // The collector is needed only for a stage histogram, or as the
    // span store when the thread has entered no trace.
    let collector = (record_histogram || trace.is_none()).then(active).flatten();
    let Some(sink) = trace.or_else(|| collector.as_ref().map(|c| Arc::clone(&c.spans.inner)))
    else {
        return SpanGuard(None);
    };
    let id = NEXT_SPAN_ID.fetch_add(1, Ordering::Relaxed);
    let seq = NEXT_SEQ.fetch_add(1, Ordering::Relaxed);
    let parent = SPAN_STACK.with(|s| {
        let mut s = s.borrow_mut();
        let parent = s.last().copied();
        s.push(id);
        parent
    });
    SpanGuard(Some(OpenSpan {
        raw: RawSpan {
            id,
            parent,
            name,
            attrs: attrs.to_vec(),
            thread: thread_id(),
            seq,
            start: Instant::now(),
            duration_us: 0,
        },
        sink,
        histogram: collector.filter(|_| record_histogram),
    }))
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        let Some(OpenSpan {
            sink,
            histogram,
            mut raw,
        }) = self.0.take()
        else {
            return;
        };
        raw.duration_us = raw.start.elapsed().as_micros() as u64;
        SPAN_STACK.with(|s| {
            let mut s = s.borrow_mut();
            // Defensive: only unwind our own frame (guards drop LIFO in
            // well-formed code, but a leaked guard must not corrupt the
            // stack for unrelated spans).
            if s.last() == Some(&raw.id) {
                s.pop();
            } else if let Some(pos) = s.iter().rposition(|&id| id == raw.id) {
                s.truncate(pos);
            }
        });
        if let Some(collector) = histogram {
            collector.observe_us(raw.name, raw.duration_us, Stability::Stable);
        }
        sink.record_span(raw);
    }
}

/// Opens a span named `name` as a child of the thread's innermost open
/// span. Two relaxed atomic loads when disabled.
pub fn span(name: &'static str) -> SpanGuard {
    open_span(name, &[], false)
}

/// [`span`] with structured attributes (e.g. the datalog index and
/// suspect slot of a batch job).
pub fn span_with(name: &'static str, attrs: &[(&'static str, u64)]) -> SpanGuard {
    open_span(name, attrs, false)
}

/// A *stage* span: like [`span`], and additionally records the span
/// duration into the latency histogram of the same name on close — the
/// per-stage latency metric of the diagnosis flow.
pub fn stage(name: &'static str) -> SpanGuard {
    open_span(name, &[], true)
}

/// A handle to one run's recorded observability data. Create one, pass
/// it to an instrumented driver (or [`install`](Collector::install) it
/// around arbitrary code), then export with [`snapshot`](Collector::
/// snapshot) / [`span_forest`](Collector::span_forest) /
/// [`trace_json`](Collector::trace_json).
#[derive(Debug, Clone)]
pub struct Collector {
    inner: Arc<Inner>,
}

impl Default for Collector {
    fn default() -> Self {
        Collector::new()
    }
}

impl Collector {
    /// A fresh, empty collector (not yet installed).
    pub fn new() -> Self {
        Collector {
            inner: Arc::new(Inner {
                metrics: Mutex::default(),
                spans: TraceContext::new(0),
            }),
        }
    }

    /// Makes this collector the process-global recording target until
    /// the returned guard drops (which restores the previously installed
    /// collector, if any).
    #[must_use = "recording stops when the guard drops"]
    pub fn install(&self) -> InstallGuard {
        let prev = {
            let mut slot = match ACTIVE.write() {
                Ok(g) => g,
                Err(poisoned) => poisoned.into_inner(),
            };
            slot.replace(Arc::clone(&self.inner))
        };
        INSTALLS.fetch_add(1, Ordering::Relaxed);
        InstallGuard { prev }
    }

    /// Makes this collector the recording target for the **current
    /// thread only** until the returned guard drops. A thread-local
    /// install shadows any global one on this thread and is invisible to
    /// other threads — the isolation unit tests need to count metrics
    /// deterministically while sibling tests run instrumented code
    /// concurrently.
    #[must_use = "recording stops when the guard drops"]
    pub fn install_local(&self) -> LocalInstallGuard {
        let prev = LOCAL.with(|l| l.borrow_mut().replace(Arc::clone(&self.inner)));
        INSTALLS.fetch_add(1, Ordering::Relaxed);
        LocalInstallGuard {
            prev,
            _not_send: PhantomData,
        }
    }

    /// An immutable capture of every metric recorded so far.
    pub fn snapshot(&self) -> MetricsSnapshot {
        let m = lock(&self.inner.metrics);
        MetricsSnapshot {
            counters: m.counters.clone(),
            gauges: m.gauges.clone(),
            histograms: m.histograms.clone(),
        }
    }

    /// The spans that finished outside any entered trace, as a
    /// canonical forest: roots ordered by their job identity
    /// (`datalog`/`slot` attributes) rather than completion order,
    /// children by start order — reproducible at any worker count.
    pub fn span_forest(&self) -> Vec<SpanNode> {
        self.inner.spans.span_forest()
    }

    /// The span forest as JSON. With `redact`, timing- and
    /// scheduling-dependent fields (thread, start, duration) are
    /// omitted, leaving the structurally deterministic tree.
    pub fn trace_json(&self, redact: bool) -> String {
        crate::span::forest_json(&self.span_forest(), redact)
    }
}

/// Uninstalls the collector on drop, restoring the previous one.
#[derive(Debug)]
pub struct InstallGuard {
    prev: Option<Arc<Inner>>,
}

impl Drop for InstallGuard {
    fn drop(&mut self) {
        {
            let mut slot = match ACTIVE.write() {
                Ok(g) => g,
                Err(poisoned) => poisoned.into_inner(),
            };
            *slot = self.prev.take();
        }
        INSTALLS.fetch_sub(1, Ordering::Relaxed);
    }
}

/// Uninstalls a thread-local collector on drop, restoring the thread's
/// previous one. `!Send`: must drop on the installing thread.
#[derive(Debug)]
pub struct LocalInstallGuard {
    prev: Option<Arc<Inner>>,
    _not_send: PhantomData<*const ()>,
}

impl Drop for LocalInstallGuard {
    fn drop(&mut self) {
        LOCAL.with(|l| *l.borrow_mut() = self.prev.take());
        INSTALLS.fetch_sub(1, Ordering::Relaxed);
    }
}
