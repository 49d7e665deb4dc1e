//! The diagnosis daemon: accept loop, connection state machine, retry
//! and drain policy.
//!
//! One OS thread per connection (std-only — no async runtime exists in
//! this build environment), all of them feeding one shared
//! [`DiagnosisService`] whose worker pool bounds the actual diagnosis
//! concurrency. The per-connection thread is the request's *coordinator*:
//! it parses frames, owns the retry loop, and streams progress frames
//! back — workers never block on sockets and sockets never block
//! workers.
//!
//! A connection walks a small state machine:
//!
//! ```text
//!        ┌────────────── Goodbye (drain reached us) ◄──┐
//!        ▼                                             │
//! Idle ──read frame──► Serving ──response written──► Idle
//!   │                     │
//!   │ idle timeout        │ desynchronizing ProtocolError,
//!   │ clean EOF           │ stalled mid-frame, or I/O failure
//!   ▼                     ▼
//! Closed ◄── Error frame + close
//! ```
//!
//! Frame-bounded protocol errors (bad crc, unknown type) answer with an
//! `Error` frame and return to `Idle` — one corrupt frame does not cost
//! the connection, and nothing any client sends can cost the daemon.

use std::io::{self, ErrorKind, Read};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use std::thread;
use std::time::{Duration, Instant};

use icd_engine::{
    summarize_report, CancelToken, DiagnosisService, ExperimentContext, FlowError, FlowReport,
    JobError, ServiceError, StreamEvent,
};
use icd_faultsim::NoiseRng;
use icd_obs::{EventLog, TraceContext};

use crate::chaos::ChaosPanics;
use crate::frame::{
    self, ErrorCode, Frame, FrameType, Header, ProtocolError, ResponseStatus, HEADER_LEN,
};
use crate::retry::BackoffConfig;
use crate::stats::{LiveStats, RequestKind, RequestOutcome};

/// All server counters are scheduling-stable per-run sums.
fn count(name: &'static str, delta: u64) {
    icd_obs::counter(name, delta, icd_obs::Stability::Stable);
}

/// Everything tunable about one daemon instance.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Worker threads in the shared diagnosis pool.
    pub workers: usize,
    /// Bounded job queue capacity behind those workers.
    pub queue_capacity: usize,
    /// How long one admission attempt may wait for queue space before
    /// it counts as a `Busy` transient (the retry loop sits above this).
    pub submit_wait: Duration,
    /// Retry schedule for transient failures (queue-full, worker panic).
    pub backoff: BackoffConfig,
    /// Deadline applied when a request carries `deadline_ms = 0`.
    pub default_deadline: Duration,
    /// A connection with no complete frame for this long is closed.
    pub idle_timeout: Duration,
    /// How long [`Server::run`] waits for in-flight requests at
    /// shutdown before hard-cancelling what remains.
    pub drain_deadline: Duration,
    /// Largest payload a client may send.
    pub max_payload: u32,
    /// Seed for the per-connection backoff jitter streams.
    pub jitter_seed: u64,
    /// Optional seeded worker-panic injection (the chaos harness).
    pub chaos_panics: Option<ChaosPanics>,
    /// Optional rotating JSONL event log: one structured record per
    /// completed `Request`/`Volume` frame (trace id, outcome, timings,
    /// span forest, point events).
    pub event_log: Option<Arc<EventLog>>,
    /// Requests slower than this are flagged `"slow": true` in their
    /// event-log record and counted under `server.requests_slow`.
    pub slow_threshold: Duration,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            workers: 2,
            queue_capacity: 64,
            submit_wait: Duration::from_millis(100),
            backoff: BackoffConfig::default(),
            default_deadline: Duration::from_secs(30),
            idle_timeout: Duration::from_secs(30),
            drain_deadline: Duration::from_secs(10),
            max_payload: frame::DEFAULT_MAX_PAYLOAD,
            jitter_seed: 0x01cd_5eed,
            chaos_panics: None,
            event_log: None,
            slow_threshold: Duration::from_secs(1),
        }
    }
}

/// Shared mutable server state (accept loop, handles, connections).
struct ServerState {
    draining: AtomicBool,
    drain_token: CancelToken,
    active_requests: AtomicUsize,
    connection_seq: AtomicUsize,
    stats: LiveStats,
}

/// A clonable remote control for a running server: signal shutdown from
/// another thread (or from the connection that received a `Shutdown`
/// frame) and watch the drain flag.
#[derive(Clone)]
pub struct ServerHandle {
    state: Arc<ServerState>,
    addr: SocketAddr,
}

impl ServerHandle {
    /// The bound listen address (useful with port 0).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Asks the server to drain and exit: new connections are refused,
    /// in-flight requests finish (until the drain deadline), then
    /// [`Server::run`] returns. Idempotent.
    pub fn shutdown(&self) {
        self.state.draining.store(true, Ordering::Release);
        // Unblock the accept loop with a throwaway connection.
        let _ = TcpStream::connect(self.addr);
    }

    /// Whether shutdown has been requested.
    pub fn is_draining(&self) -> bool {
        self.state.draining.load(Ordering::Acquire)
    }
}

/// How a finished [`Server::run`] drained.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DrainOutcome {
    /// Every in-flight request completed within the drain deadline.
    Clean,
    /// The deadline expired; remaining requests were hard-cancelled via
    /// the drain token (they surface `Cancelled`, the pool stays sane).
    Forced,
}

/// The daemon: a bound listener plus the shared diagnosis service.
pub struct Server {
    listener: TcpListener,
    service: Arc<DiagnosisService>,
    config: Arc<ServerConfig>,
    state: Arc<ServerState>,
}

impl Server {
    /// Binds `addr` (e.g. `"127.0.0.1:0"`) and builds the shared
    /// diagnosis service (good-machine simulation runs here, once).
    ///
    /// # Errors
    ///
    /// I/O errors from binding; a zero `idle_timeout` (the socket write
    /// timeout cannot be zero) and flow errors from the good simulation
    /// are surfaced as [`io::ErrorKind::InvalidInput`].
    pub fn bind(
        addr: &str,
        ctx: Arc<ExperimentContext>,
        config: ServerConfig,
    ) -> io::Result<Server> {
        if config.idle_timeout.is_zero() {
            return Err(io::Error::new(
                ErrorKind::InvalidInput,
                "idle timeout must be greater than zero",
            ));
        }
        let listener = TcpListener::bind(addr)?;
        let mut service = DiagnosisService::new(
            ctx,
            config.workers,
            config.queue_capacity,
            config.submit_wait,
        )
        .map_err(|e| io::Error::new(ErrorKind::InvalidInput, e.to_string()))?;
        if let Some(chaos) = &config.chaos_panics {
            service = service.with_job_hook(chaos.hook());
        }
        Ok(Server {
            listener,
            service: Arc::new(service),
            config: Arc::new(config),
            state: Arc::new(ServerState {
                draining: AtomicBool::new(false),
                drain_token: CancelToken::new(),
                active_requests: AtomicUsize::new(0),
                connection_seq: AtomicUsize::new(0),
                stats: LiveStats::new(),
            }),
        })
    }

    /// The bound address.
    ///
    /// # Errors
    ///
    /// Propagates the OS's `local_addr` failure.
    pub fn local_addr(&self) -> io::Result<SocketAddr> {
        self.listener.local_addr()
    }

    /// A remote control for this server.
    ///
    /// # Errors
    ///
    /// Propagates the OS's `local_addr` failure.
    pub fn handle(&self) -> io::Result<ServerHandle> {
        Ok(ServerHandle {
            state: Arc::clone(&self.state),
            addr: self.local_addr()?,
        })
    }

    /// Runs the accept loop until [`ServerHandle::shutdown`] (or a
    /// client `Shutdown` frame), then drains and returns how.
    ///
    /// # Errors
    ///
    /// Only a fatal `accept` failure (not per-connection errors, which
    /// are contained and counted).
    pub fn run(self) -> io::Result<DrainOutcome> {
        let mut connections: Vec<thread::JoinHandle<()>> = Vec::new();
        loop {
            let (stream, peer) = match self.listener.accept() {
                Ok(pair) => pair,
                Err(e) if e.kind() == ErrorKind::Interrupted => continue,
                Err(e) => return Err(e),
            };
            if self.state.draining.load(Ordering::Acquire) {
                count("server.connections_refused", 1);
                refuse_draining(stream);
                break;
            }
            count("server.connections_accepted", 1);
            let seq = self.state.connection_seq.fetch_add(1, Ordering::Relaxed);
            let conn = Connection {
                service: Arc::clone(&self.service),
                config: Arc::clone(&self.config),
                state: Arc::clone(&self.state),
                jitter: NoiseRng::new(self.config.jitter_seed ^ (seq as u64).wrapping_mul(0x9e37)),
            };
            let handle = thread::Builder::new()
                .name(format!("icd-conn-{seq}"))
                .spawn(move || conn.serve(stream, peer))?;
            connections.push(handle);
            // Reap finished connection threads so the vec stays bounded.
            connections.retain(|h| !h.is_finished());
        }

        // Drain: wait for in-flight requests, then hard-cancel leftovers.
        // A drain deadline too long to express as an instant has none.
        let deadline = Instant::now().checked_add(self.config.drain_deadline);
        let mut outcome = DrainOutcome::Clean;
        while self.state.active_requests.load(Ordering::Acquire) > 0 {
            if deadline.is_some_and(|d| Instant::now() >= d) {
                outcome = DrainOutcome::Forced;
                self.state.drain_token.cancel();
                break;
            }
            thread::sleep(Duration::from_millis(5));
        }
        // Pool settles (bounded even when forced: cancelled jobs are
        // skipped at their boundary checks, running ones finish).
        let settle = deadline.map_or(Duration::MAX, |d| {
            d.saturating_duration_since(Instant::now())
                .max(Duration::from_millis(200))
        });
        self.service.wait_idle(settle);
        // Connection threads exit on their own (their sockets poll the
        // drain flag at least every poll interval).
        for h in connections {
            let _ = h.join();
        }
        match outcome {
            DrainOutcome::Clean => count("server.drain_clean", 1),
            DrainOutcome::Forced => count("server.drain_forced", 1),
        }
        Ok(outcome)
    }
}

/// Tells a client arriving mid-drain why it is being turned away.
fn refuse_draining(mut stream: TcpStream) {
    let _ = stream.set_write_timeout(Some(Duration::from_millis(200)));
    let _ = frame::write_frame(
        &mut stream,
        &error_frame(0, ErrorCode::Draining, "server is draining"),
    );
}

fn error_frame(request_id: u64, code: ErrorCode, message: &str) -> Frame {
    let mut payload = Vec::with_capacity(1 + message.len());
    payload.push(code as u8);
    payload.extend_from_slice(message.as_bytes());
    Frame {
        frame_type: FrameType::Error,
        request_id,
        trace_id: None,
        payload,
    }
}

fn report_frame(request_id: u64, status: ResponseStatus, summary: &str) -> Frame {
    let mut payload = Vec::with_capacity(1 + summary.len());
    payload.push(status as u8);
    payload.extend_from_slice(summary.as_bytes());
    Frame {
        frame_type: FrameType::Report,
        request_id,
        trace_id: None,
        payload,
    }
}

/// How one attempt to read a frame under the poll loop ended.
enum PollRead {
    Frame {
        frame: Frame,
        /// When the header was complete and decoding proper began —
        /// the start of the request's `server.decode` trace span.
        decode_start: Instant,
        /// Header-complete to frame-validated (µs); includes reading
        /// the payload off the socket.
        decode_us: u64,
    },
    /// Clean close at a frame boundary.
    Eof,
    /// No complete frame within the idle budget (nothing read: idle;
    /// partially read: a stalled/slow-loris peer).
    TimedOut {
        mid_frame: bool,
    },
    /// The drain flag flipped while the connection was idle.
    Draining,
    Protocol(ProtocolError),
    Io,
}

/// Interval at which blocked reads wake to check the drain flag and the
/// idle budget. Bounds how stale a drain signal can go unnoticed.
const POLL_INTERVAL: Duration = Duration::from_millis(50);

struct Connection {
    service: Arc<DiagnosisService>,
    config: Arc<ServerConfig>,
    state: Arc<ServerState>,
    jitter: NoiseRng,
}

impl Connection {
    fn serve(mut self, mut stream: TcpStream, _peer: SocketAddr) {
        if stream.set_read_timeout(Some(POLL_INTERVAL)).is_err()
            || stream
                .set_write_timeout(Some(self.config.idle_timeout))
                .is_err()
            || stream.set_nodelay(true).is_err()
        {
            return;
        }
        loop {
            match self.read_frame_polled(&mut stream) {
                PollRead::Frame {
                    frame: f,
                    decode_start,
                    decode_us,
                } => {
                    count("server.frames_rx", 1);
                    match f.frame_type {
                        FrameType::Ping => {
                            let t0 = Instant::now();
                            if frame::write_frame(
                                &mut stream,
                                &Frame::bare(FrameType::Pong, f.request_id),
                            )
                            .is_err()
                            {
                                return;
                            }
                            self.state
                                .stats
                                .record_ping(t0.elapsed().as_micros() as u64);
                        }
                        FrameType::Stats => {
                            // Served regardless of drain state: an
                            // operator watching a drain is the moment
                            // stats matter most. The snapshot reads
                            // atomics and clones histograms — service
                            // never pauses.
                            count("server.stats_requests", 1);
                            let json = self.state.stats.snapshot_json(
                                self.service.pending_jobs(),
                                self.state.active_requests.load(Ordering::Acquire),
                                self.state.draining.load(Ordering::Acquire),
                            );
                            count("server.frames_tx", 1);
                            let reply = Frame {
                                frame_type: FrameType::StatsReport,
                                request_id: f.request_id,
                                trace_id: f.trace_id,
                                payload: json.into_bytes(),
                            };
                            if frame::write_frame(&mut stream, &reply).is_err() {
                                return;
                            }
                        }
                        FrameType::Shutdown => {
                            count("server.shutdown_requested", 1);
                            let _ = frame::write_frame(
                                &mut stream,
                                &Frame::bare(FrameType::Goodbye, f.request_id),
                            );
                            self.state.draining.store(true, Ordering::Release);
                            // Wake the accept loop the same way a handle would.
                            if let Ok(addr) = stream.local_addr() {
                                let _ = TcpStream::connect(addr);
                            }
                            return;
                        }
                        FrameType::Request => {
                            if !self.handle_request(&mut stream, &f, decode_start, decode_us) {
                                return;
                            }
                        }
                        FrameType::Volume => {
                            if !self.handle_volume(&mut stream, &f, decode_start, decode_us) {
                                return;
                            }
                        }
                        // A client sending server-side frames is out of
                        // protocol; frame-bounded, answer and continue.
                        _ => {
                            count("server.frames_bad", 1);
                            if frame::write_frame(
                                &mut stream,
                                &error_frame(
                                    f.request_id,
                                    ErrorCode::Protocol,
                                    "unexpected server-to-client frame type",
                                ),
                            )
                            .is_err()
                            {
                                return;
                            }
                        }
                    }
                }
                PollRead::Eof => return,
                PollRead::Draining => {
                    let _ = frame::write_frame(&mut stream, &Frame::bare(FrameType::Goodbye, 0));
                    return;
                }
                PollRead::TimedOut { mid_frame } => {
                    count(
                        if mid_frame {
                            "server.stalled_clients"
                        } else {
                            "server.idle_timeouts"
                        },
                        1,
                    );
                    if mid_frame {
                        let _ = frame::write_frame(
                            &mut stream,
                            &error_frame(
                                0,
                                ErrorCode::Protocol,
                                "frame not completed within the idle budget",
                            ),
                        );
                    }
                    return;
                }
                PollRead::Protocol(p) => {
                    count("server.frames_bad", 1);
                    let ok = frame::write_frame(
                        &mut stream,
                        &error_frame(0, ErrorCode::Protocol, &p.to_string()),
                    )
                    .is_ok();
                    // Frame-bounded errors leave the stream in sync;
                    // anything else must desynchronize-close.
                    if !p.is_frame_bounded() || !ok {
                        return;
                    }
                }
                PollRead::Io => return,
            }
        }
    }

    /// Reads one frame, waking every [`POLL_INTERVAL`] to check the
    /// drain flag and the idle budget.
    fn read_frame_polled(&self, stream: &mut TcpStream) -> PollRead {
        let started = Instant::now();
        let mut header = [0u8; HEADER_LEN];
        let header = match self.fill_polled(stream, &mut header, started, true) {
            Fill::Done => header,
            Fill::CleanEof => return PollRead::Eof,
            Fill::Draining => return PollRead::Draining,
            Fill::TimedOut { any_bytes } => {
                return PollRead::TimedOut {
                    mid_frame: any_bytes,
                }
            }
            Fill::TruncatedEof { got } => {
                return PollRead::Protocol(ProtocolError::Truncated {
                    context: "header",
                    needed: HEADER_LEN,
                    got,
                })
            }
            Fill::Io => return PollRead::Io,
        };
        let decode_start = Instant::now();
        let header: Header = match frame::parse_header(&header, self.config.max_payload) {
            Ok(h) => h,
            Err(p) => return PollRead::Protocol(p),
        };
        let mut payload = vec![0u8; header.payload_len as usize];
        match self.fill_polled(stream, &mut payload, started, false) {
            Fill::Done => {}
            Fill::CleanEof | Fill::TruncatedEof { .. } => {
                return PollRead::Protocol(ProtocolError::Truncated {
                    context: "payload",
                    needed: payload.len(),
                    got: 0,
                })
            }
            Fill::Draining => return PollRead::Draining,
            Fill::TimedOut { .. } => return PollRead::TimedOut { mid_frame: true },
            Fill::Io => return PollRead::Io,
        }
        match frame::finish_frame(&header, payload) {
            Ok(frame) => PollRead::Frame {
                frame,
                decode_start,
                decode_us: decode_start.elapsed().as_micros() as u64,
            },
            Err(p) => PollRead::Protocol(p),
        }
    }

    /// Fills `buf` under the poll loop. `at_boundary` marks the read as
    /// sitting between frames, where EOF is clean and drain may
    /// interrupt; mid-frame, drain waits for the frame (the in-flight
    /// request must not be lost).
    fn fill_polled(
        &self,
        stream: &mut TcpStream,
        buf: &mut [u8],
        started: Instant,
        at_boundary: bool,
    ) -> Fill {
        let mut filled = 0usize;
        while filled < buf.len() {
            if at_boundary && filled == 0 && self.state.draining.load(Ordering::Acquire) {
                return Fill::Draining;
            }
            if started.elapsed() > self.config.idle_timeout {
                return Fill::TimedOut {
                    any_bytes: !at_boundary || filled > 0,
                };
            }
            match stream.read(&mut buf[filled..]) {
                Ok(0) => {
                    if at_boundary && filled == 0 {
                        return Fill::CleanEof;
                    }
                    return Fill::TruncatedEof { got: filled };
                }
                Ok(n) => filled += n,
                Err(e)
                    if matches!(
                        e.kind(),
                        ErrorKind::WouldBlock | ErrorKind::TimedOut | ErrorKind::Interrupted
                    ) => {}
                Err(_) => return Fill::Io,
            }
        }
        Fill::Done
    }

    /// Runs one diagnosis request: parse, retry loop, stream, respond —
    /// wrapped in the request's telemetry (trace, live stats, event-log
    /// record). Returns whether the connection should keep serving.
    fn handle_request(
        &mut self,
        stream: &mut TcpStream,
        request: &Frame,
        decode_start: Instant,
        decode_us: u64,
    ) -> bool {
        let t0 = Instant::now();
        count("server.requests_received", 1);
        count("server.requests_total", 1);
        let trace = self.start_trace(request, decode_start, decode_us);
        let (keep, outcome) = self.run_request(stream, request, &trace);
        self.finish_request(
            &trace,
            request.request_id,
            RequestKind::Request,
            outcome,
            t0,
        );
        keep
    }

    /// Builds the request's trace: adopts the client-supplied trace id
    /// (or mints one) and injects the already-measured frame-decode span
    /// as the forest's first root.
    fn start_trace(&self, request: &Frame, decode_start: Instant, decode_us: u64) -> TraceContext {
        let trace = TraceContext::new(request.trace_id.unwrap_or_else(icd_obs::mint_trace_id));
        trace.record_span_external(
            "server.decode",
            decode_start,
            Duration::from_micros(decode_us),
        );
        trace
    }

    /// Records the finished request into the live stats and, when an
    /// event log is configured, writes its structured JSONL record.
    fn finish_request(
        &self,
        trace: &TraceContext,
        request_id: u64,
        kind: RequestKind,
        outcome: RequestOutcome,
        t0: Instant,
    ) {
        let latency_us = t0.elapsed().as_micros() as u64;
        self.state.stats.record_request(kind, outcome, latency_us);
        let slow = latency_us >= self.config.slow_threshold.as_micros() as u64;
        if slow {
            count("server.requests_slow", 1);
        }
        let Some(log) = &self.config.event_log else {
            return;
        };
        let kind_label = match kind {
            RequestKind::Request => "request",
            RequestKind::Volume => "volume",
            RequestKind::Ping => "ping",
        };
        let outcome_label = match outcome {
            RequestOutcome::Clean => "clean",
            RequestOutcome::Degraded => "degraded",
            RequestOutcome::Failed => "failed",
            RequestOutcome::Rejected => "rejected",
        };
        let mut line = String::with_capacity(1024);
        line.push_str(&format!(
            "{{\"trace_id\":\"{:#018x}\",\"request_id\":{},\"kind\":\"{}\",\"outcome\":\"{}\",\"latency_us\":{},\"slow\":{},\"events\":[",
            trace.trace_id(),
            request_id,
            kind_label,
            outcome_label,
            latency_us,
            slow,
        ));
        for (i, ev) in trace.events().iter().enumerate() {
            if i > 0 {
                line.push(',');
            }
            line.push_str(&format!("{{\"at_us\":{},\"kind\":", ev.at_us));
            icd_obs::json::write_string(&mut line, ev.kind);
            line.push_str(",\"detail\":");
            icd_obs::json::write_string(&mut line, &ev.detail);
            line.push('}');
        }
        line.push_str("],\"spans\":");
        line.push_str(icd_obs::forest_json(&trace.span_forest(), false).trim_end());
        line.push('}');
        if log.write_line(&line).is_err() {
            count("server.event_log_errors", 1);
        }
    }

    /// The body of one diagnosis request, executed with the trace
    /// entered on the connection thread: parse, retry loop, stream,
    /// respond. Returns `(keep_serving, outcome)`.
    fn run_request(
        &mut self,
        stream: &mut TcpStream,
        request: &Frame,
        trace: &TraceContext,
    ) -> (bool, RequestOutcome) {
        let _entered = trace.enter();
        let _root = icd_obs::span("server.request");
        let Some((deadline_ms, text)) = frame::parse_request_payload(&request.payload) else {
            count("server.requests_bad_payload", 1);
            trace.event(
                "error.bad_payload",
                "request payload too short or not UTF-8",
            );
            let keep = frame::write_frame(
                stream,
                &error_frame(
                    request.request_id,
                    ErrorCode::BadPayload,
                    "request payload too short or not UTF-8",
                )
                .with_trace_id(Some(trace.trace_id())),
            )
            .is_ok();
            return (keep, RequestOutcome::Failed);
        };
        let datalog = match icd_faultsim::datalog_text::parse(text) {
            Ok(d) => d,
            Err(e) => {
                count("server.requests_bad_payload", 1);
                trace.event("error.bad_payload", e.to_string());
                let keep = frame::write_frame(
                    stream,
                    &error_frame(request.request_id, ErrorCode::BadPayload, &e.to_string())
                        .with_trace_id(Some(trace.trace_id())),
                )
                .is_ok();
                return (keep, RequestOutcome::Failed);
            }
        };
        let deadline = if deadline_ms == 0 {
            self.config.default_deadline
        } else {
            Duration::from_millis(u64::from(deadline_ms))
        };
        // The request token hangs off the drain token: a forced drain
        // cancels every in-flight request with one call.
        let token = self.state.drain_token.child_with_deadline(Some(deadline));
        let id = request.request_id;

        self.state.active_requests.fetch_add(1, Ordering::AcqRel);
        let result = self.diagnose_with_retry(stream, id, trace, &datalog, &token);
        self.state.active_requests.fetch_sub(1, Ordering::AcqRel);

        match result {
            Ok(report) => {
                let (status, outcome) = if report.is_degraded() {
                    count("server.requests_degraded", 1);
                    trace.event("degraded", "report shipped with skipped work");
                    (ResponseStatus::Degraded, RequestOutcome::Degraded)
                } else {
                    count("server.requests_ok", 1);
                    (ResponseStatus::Ok, RequestOutcome::Clean)
                };
                let summary = summarize_report(self.service.context(), &report);
                count("server.frames_tx", 1);
                let keep = frame::write_frame(
                    stream,
                    &report_frame(id, status, &summary).with_trace_id(Some(trace.trace_id())),
                )
                .is_ok();
                (keep, outcome)
            }
            Err(failure) => {
                let outcome = match failure {
                    RetryFailure::Deadline(_) => {
                        count("server.requests_deadline_exceeded", 1);
                        RequestOutcome::Failed
                    }
                    RetryFailure::Busy { .. } => {
                        count("server.requests_rejected_busy", 1);
                        RequestOutcome::Rejected
                    }
                    RetryFailure::ConnectionLost | RetryFailure::Internal(_) => {
                        count("server.requests_failed", 1);
                        RequestOutcome::Failed
                    }
                };
                let keep = write_failure(stream, id, trace, &failure);
                (keep, outcome)
            }
        }
    }

    /// Runs one volume request: parse the corpus, diagnose every device
    /// under one deadline token, aggregate, respond with the canonical
    /// volume-report JSON. Returns whether the connection should keep
    /// serving.
    ///
    /// Per-device behaviour mirrors `icdiag volume`: unparseable datalog
    /// texts are skipped (counted, reflected in the report's coverage),
    /// per-device diagnosis failures degrade the report instead of
    /// failing the request. Only an unusable payload or an expired
    /// deadline fails the whole request. Progress/Suspects frames are
    /// streamed per device under the volume request id; clients collect
    /// until the final Report frame.
    fn handle_volume(
        &mut self,
        stream: &mut TcpStream,
        request: &Frame,
        decode_start: Instant,
        decode_us: u64,
    ) -> bool {
        let t0 = Instant::now();
        count("server.volume_requests", 1);
        count("server.requests_total", 1);
        let trace = self.start_trace(request, decode_start, decode_us);
        let (keep, outcome) = self.run_volume(stream, request, &trace);
        self.finish_request(&trace, request.request_id, RequestKind::Volume, outcome, t0);
        keep
    }

    /// The body of one volume request, executed with the trace entered
    /// on the connection thread. Returns `(keep_serving, outcome)`.
    fn run_volume(
        &mut self,
        stream: &mut TcpStream,
        request: &Frame,
        trace: &TraceContext,
    ) -> (bool, RequestOutcome) {
        let _entered = trace.enter();
        let _root = icd_obs::span("server.volume");
        let Some((deadline_ms, devices)) = frame::parse_volume_payload(&request.payload) else {
            count("server.requests_bad_payload", 1);
            trace.event(
                "error.bad_payload",
                "volume payload malformed (length fields or UTF-8)",
            );
            let keep = frame::write_frame(
                stream,
                &error_frame(
                    request.request_id,
                    ErrorCode::BadPayload,
                    "volume payload malformed (length fields or UTF-8)",
                )
                .with_trace_id(Some(trace.trace_id())),
            )
            .is_ok();
            return (keep, RequestOutcome::Failed);
        };
        let mut skipped = 0usize;
        let mut parsed: Vec<(String, icd_faultsim::Datalog)> = Vec::with_capacity(devices.len());
        for (name, text) in devices {
            match icd_faultsim::datalog_text::parse(&text) {
                Ok(d) => parsed.push((name, d)),
                Err(_) => {
                    count("server.volume_devices_skipped", 1);
                    skipped += 1;
                }
            }
        }
        count("server.volume_devices", parsed.len() as u64);
        let deadline = if deadline_ms == 0 {
            self.config.default_deadline
        } else {
            Duration::from_millis(u64::from(deadline_ms))
        };
        let token = self.state.drain_token.child_with_deadline(Some(deadline));
        let id = request.request_id;

        self.state.active_requests.fetch_add(1, Ordering::AcqRel);
        let mut reports: Vec<(String, FlowReport)> = Vec::new();
        let mut failed = 0usize;
        let mut fatal: Option<RetryFailure> = None;
        for (name, datalog) in &parsed {
            let device_t0 = Instant::now();
            let result = self.diagnose_with_retry(stream, id, trace, datalog, &token);
            trace.event(
                "volume.device",
                format!(
                    "name={name} wall_us={} ok={}",
                    device_t0.elapsed().as_micros(),
                    u8::from(result.is_ok()),
                ),
            );
            match result {
                Ok(report) => reports.push((name.clone(), report)),
                // The shared deadline is spent, or the client is gone:
                // nothing after this device can complete either.
                Err(failure @ (RetryFailure::Deadline(_) | RetryFailure::ConnectionLost)) => {
                    fatal = Some(failure);
                    break;
                }
                Err(RetryFailure::Busy { .. } | RetryFailure::Internal(_)) => failed += 1,
            }
        }
        self.state.active_requests.fetch_sub(1, Ordering::AcqRel);

        if let Some(failure) = fatal {
            count("server.requests_failed", 1);
            let keep = write_failure(stream, id, trace, &failure);
            return (keep, RequestOutcome::Failed);
        }
        let ctx = self.service.context();
        let named: Vec<(String, &FlowReport)> =
            reports.iter().map(|(n, r)| (n.clone(), r)).collect();
        let volume_report = icd_volume::assemble_report(
            ctx,
            ctx.circuit.content_hash(),
            &named,
            failed,
            skipped,
            &icd_volume::AggregationConfig::default(),
        );
        // Degraded mirrors `icdiag volume` exit code 3: part of the
        // failing population never made it into the aggregate.
        let (status, outcome) =
            if volume_report.devices_failed > 0 || volume_report.devices_skipped > 0 {
                count("server.requests_degraded", 1);
                trace.event(
                    "degraded",
                    format!(
                        "devices failed={} skipped={}",
                        volume_report.devices_failed, volume_report.devices_skipped
                    ),
                );
                (ResponseStatus::Degraded, RequestOutcome::Degraded)
            } else {
                count("server.requests_ok", 1);
                (ResponseStatus::Ok, RequestOutcome::Clean)
            };
        count("server.frames_tx", 1);
        let keep = frame::write_frame(
            stream,
            &report_frame(id, status, &volume_report.to_json())
                .with_trace_id(Some(trace.trace_id())),
        )
        .is_ok();
        (keep, outcome)
    }

    /// The transient-failure retry loop around one streamed diagnosis.
    ///
    /// Retried (with capped exponential backoff + jitter): queue-full
    /// admission ([`ServiceError::Busy`]), whole-request worker panics,
    /// and reports whose only blemish is panicked suspect slots (the
    /// report of the successful retry is byte-identical to a clean run).
    /// Not retried: flow errors, expired deadlines, cancellation —
    /// permanent by construction.
    fn diagnose_with_retry(
        &mut self,
        stream: &mut TcpStream,
        id: u64,
        trace: &TraceContext,
        datalog: &icd_faultsim::Datalog,
        token: &CancelToken,
    ) -> Result<FlowReport, RetryFailure> {
        let trace_id = Some(trace.trace_id());
        let mut attempt = 0u32;
        loop {
            if token.is_cancelled() {
                return Err(RetryFailure::Deadline(
                    "request cancelled before completion",
                ));
            }
            // Stream progress frames as they happen; a retried attempt
            // re-emits (last write wins on the client side).
            let mut stream_ok = true;
            let mut on_event = |ev: StreamEvent<'_>| {
                let frame = match ev {
                    StreamEvent::Suspects(gates) => {
                        let body = gates
                            .iter()
                            .map(|g| g.index().to_string())
                            .collect::<Vec<_>>()
                            .join(" ");
                        Frame {
                            frame_type: FrameType::Suspects,
                            request_id: id,
                            trace_id,
                            payload: body.into_bytes(),
                        }
                    }
                    StreamEvent::SuspectDone { slot, gate, ok } => Frame {
                        frame_type: FrameType::Progress,
                        request_id: id,
                        trace_id,
                        payload: format!("slot={slot} gate={} ok={}", gate.index(), u8::from(ok))
                            .into_bytes(),
                    },
                };
                count("server.frames_tx", 1);
                if frame::write_frame(stream, &frame).is_err() {
                    stream_ok = false;
                }
            };
            let outcome =
                self.service
                    .diagnose_streamed_traced(datalog, token, Some(trace), &mut on_event);
            if !stream_ok {
                // The client is gone; cancel our own work and stop.
                token.cancel();
                return Err(RetryFailure::ConnectionLost);
            }
            let transient = match outcome {
                Ok(report) => {
                    let panicked = report
                        .skipped
                        .iter()
                        .any(|s| matches!(s.error, FlowError::Panicked(_)));
                    if !panicked || token.is_cancelled() {
                        return Ok(report);
                    }
                    // Retry panicked-suspect degradation; if the budget
                    // is spent, the degraded partial report IS the
                    // answer (graceful degradation, not an error).
                    match self.config.backoff.delay(attempt, &mut self.jitter) {
                        Some(delay) => {
                            count("server.retries_panic", 1);
                            trace.event(
                                "retry.panic",
                                format!("panicked suspect slots, attempt={attempt}"),
                            );
                            thread::sleep(delay);
                            attempt += 1;
                            continue;
                        }
                        None => {
                            trace.event(
                                "degraded",
                                "panicked suspect slots survived the retry budget",
                            );
                            return Ok(report);
                        }
                    }
                }
                Err(ServiceError::Busy) => Transient::QueueFull,
                Err(ServiceError::Job(JobError::Panicked(_))) => Transient::FrontPanic,
                Err(ServiceError::Job(JobError::Flow(FlowError::Cancelled))) => {
                    return Err(RetryFailure::Deadline(
                        "deadline expired before the front stage ran",
                    ));
                }
                Err(ServiceError::Job(e)) => return Err(RetryFailure::Internal(e.to_string())),
            };
            let Some(delay) = self.config.backoff.delay(attempt, &mut self.jitter) else {
                return Err(match transient {
                    Transient::QueueFull => RetryFailure::Busy { retries: attempt },
                    Transient::FrontPanic => {
                        RetryFailure::Internal(format!("worker panic survived {attempt} retries"))
                    }
                });
            };
            let (counter, event, label) = match transient {
                Transient::QueueFull => ("server.retries_busy", "retry.busy", "queue full"),
                Transient::FrontPanic => ("server.retries_panic", "retry.panic", "front panic"),
            };
            count(counter, 1);
            trace.event(event, format!("{label}, attempt={attempt}"));
            thread::sleep(delay);
            attempt += 1;
        }
    }
}

/// A transient failure the retry loop backs off from.
#[derive(Clone, Copy)]
enum Transient {
    /// The front job was not admitted within the submit wait.
    QueueFull,
    /// The front job panicked.
    FrontPanic,
}

/// Why a diagnosis ended without a report. It becomes a wire error code
/// and message only when the error frame is written.
enum RetryFailure {
    /// The request token fired (deadline or drain) before completion.
    Deadline(&'static str),
    /// The queue stayed full through the whole retry budget.
    Busy { retries: u32 },
    /// The client went away while progress frames were streaming.
    ConnectionLost,
    /// A permanent failure: a flow error, or a worker panic that
    /// survived the retry budget.
    Internal(String),
}

impl RetryFailure {
    fn code(&self) -> ErrorCode {
        match self {
            RetryFailure::Deadline(_) => ErrorCode::DeadlineExceeded,
            RetryFailure::Busy { .. } => ErrorCode::Busy,
            RetryFailure::ConnectionLost | RetryFailure::Internal(_) => ErrorCode::Internal,
        }
    }

    fn message(&self) -> String {
        match self {
            RetryFailure::Deadline(message) => (*message).to_owned(),
            RetryFailure::Busy { retries } => {
                format!("queue stayed full through {retries} retries")
            }
            RetryFailure::ConnectionLost => "client connection lost mid-stream".to_owned(),
            RetryFailure::Internal(message) => message.clone(),
        }
    }
}

/// Records `failure` on the trace and writes it as the request's error
/// frame. Returns whether the write succeeded.
fn write_failure(
    stream: &mut TcpStream,
    request_id: u64,
    trace: &TraceContext,
    failure: &RetryFailure,
) -> bool {
    let message = failure.message();
    trace.event("error", message.clone());
    frame::write_frame(
        stream,
        &error_frame(request_id, failure.code(), &message).with_trace_id(Some(trace.trace_id())),
    )
    .is_ok()
}

enum Fill {
    Done,
    CleanEof,
    TruncatedEof {
        got: usize,
    },
    TimedOut {
        any_bytes: bool,
    },
    Draining,
    /// The socket failed outright (reset, refused, OS error); the
    /// connection just closes — nothing useful can be written back.
    Io,
}
