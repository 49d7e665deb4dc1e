//! The loopback-daemon workloads: `serve-a` (open loop, then closed
//! loop) and `serve-mixed` (interactive open loop beside back-to-back
//! `Volume` frames).

use std::net::SocketAddr;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::{self, JoinHandle};
use std::time::{Duration, Instant};

use icd_server::{Client, DrainOutcome, ResponseStatus, Server, ServerConfig, ServerHandle};

use crate::inputs::{self, Design, Device, Lot};
use crate::report::{
    json_array, json_number, mean, median, ms, percentile, windowed, Outcome, StealMeter,
    P90_SAMPLES,
};
use crate::{setup, Settings, Workload};

/// Client socket timeout: far above any healthy reply.
const IO_TIMEOUT: Duration = Duration::from_secs(60);

/// A daemon running on a loopback port in this process.
pub struct Daemon {
    pub addr: SocketAddr,
    handle: ServerHandle,
    thread: JoinHandle<std::io::Result<DrainOutcome>>,
}

impl Daemon {
    /// Builds the context, binds the daemon (which runs the good
    /// simulation) and waits for the first ping. Returns the daemon and
    /// how long that took.
    pub fn start(design: Design, workers: usize) -> Result<(Daemon, Duration), String> {
        let t0 = Instant::now();
        let ctx = design.build()?.into_shared();
        let config = ServerConfig {
            workers,
            ..ServerConfig::default()
        };
        let server = Server::bind("127.0.0.1:0", Arc::clone(&ctx), config)
            .map_err(|e| format!("binding the daemon: {e}"))?;
        let handle = server.handle().map_err(|e| format!("daemon handle: {e}"))?;
        let addr = handle.addr();
        let thread = thread::Builder::new()
            .name("perfbench-daemon".into())
            .spawn(move || server.run())
            .map_err(|e| format!("spawning the daemon: {e}"))?;
        let daemon = Daemon {
            addr,
            handle,
            thread,
        };
        let ping = Client::connect(addr, IO_TIMEOUT)
            .map_err(|e| e.to_string())
            .and_then(|mut c| c.ping().map_err(|e| e.to_string()));
        let elapsed = t0.elapsed();
        match ping {
            Ok(()) => Ok((daemon, elapsed)),
            Err(e) => {
                let _ = daemon.stop();
                Err(format!("first ping: {e}"))
            }
        }
    }

    /// The daemon's own request counters and lifetime request p50.
    pub fn stats(&self) -> Result<DaemonStats, String> {
        let mut client = Client::connect(self.addr, IO_TIMEOUT).map_err(|e| e.to_string())?;
        let text = client.stats().map_err(|e| format!("stats: {e}"))?;
        let v = icd_obs::json::parse(&text).map_err(|e| format!("stats JSON: {e}"))?;
        let count = |k: &str| {
            v.get("requests")
                .and_then(|r| r.get(k))
                .and_then(|x| x.as_u64())
                .ok_or(format!("stats JSON lacks requests.{k}"))
        };
        Ok(DaemonStats {
            total: count("total")?,
            clean: count("clean")?,
            degraded: count("degraded")?,
            failed: count("failed")?,
            rejected: count("rejected")?,
            request_p50_ms: v
                .get("latency")
                .and_then(|l| l.get("request"))
                .and_then(|r| r.get("lifetime"))
                .and_then(|l| l.get("p50_us"))
                .and_then(|x| x.as_f64())
                .map_or(f64::NAN, |us| us / 1e3),
        })
    }

    /// Drains the daemon and joins its thread.
    pub fn stop(self) -> Result<(), String> {
        self.handle.shutdown();
        match self.thread.join() {
            Ok(Ok(DrainOutcome::Clean)) => Ok(()),
            Ok(Ok(DrainOutcome::Forced)) => Err("daemon drain was forced".into()),
            Ok(Err(e)) => Err(format!("daemon accept loop: {e}")),
            Err(_) => Err("daemon thread panicked".into()),
        }
    }
}

/// What the daemon's Stats frame says about `Request` and `Volume` frames.
pub struct DaemonStats {
    pub total: u64,
    pub clean: u64,
    pub degraded: u64,
    pub failed: u64,
    pub rejected: u64,
    /// Lifetime request p50 (a log2-bucket estimate); NaN before any.
    pub request_p50_ms: f64,
}

/// Checks one reply against its reference and reports `(ok, failed)`:
/// `ok` is false for a wrong answer, `failed` for anything that is not a
/// complete answer.
fn check_reply(
    reply: Result<icd_server::Response, icd_server::ClientError>,
    expected_summary: &str,
    expected_suspects: Option<&[u32]>,
    corrupt: &AtomicBool,
) -> (bool, bool) {
    match reply {
        Ok(mut r) => {
            if corrupt.swap(false, Ordering::Relaxed) {
                r.summary.insert(0, '!');
            }
            let ok = r.summary == expected_summary
                && expected_suspects.is_none_or(|s| s == r.suspects.as_slice());
            (ok, r.status != ResponseStatus::Ok)
        }
        Err(e) => {
            eprintln!("perfbench: request failed: {e}");
            (true, true)
        }
    }
}

/// Per-thread tallies merged after the threads join.
#[derive(Default)]
pub struct Tally {
    /// `(due time from the phase start in s, latency in ms)`.
    pub latency: Vec<(f64, f64)>,
    pub lag_ms: Vec<f64>,
    /// `(completion time from the phase start in s, units)` of every
    /// complete, correct answer; units are requests or devices.
    pub done: Vec<(f64, u64)>,
    pub attempted: u64,
    pub failed: u64,
    pub wrong: u64,
}

impl Tally {
    fn record(&mut self, (ok, failed): (bool, bool), at_s: f64, units: u64) {
        self.attempted += 1;
        if !ok {
            self.wrong += 1;
        }
        if !ok || failed {
            self.failed += 1;
        } else {
            self.done.push((at_s, units));
        }
    }

    fn merge(&mut self, other: Tally) {
        self.latency.extend(other.latency);
        self.lag_ms.extend(other.lag_ms);
        self.done.extend(other.done);
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.wrong += other.wrong;
    }

    pub fn into_outcome(self, out: &mut Outcome) {
        out.attempted += self.attempted;
        out.failed += self.failed;
        out.wrong += self.wrong;
    }

    pub fn latencies_ms(&self) -> Vec<f64> {
        self.latency.iter().map(|&(_, l)| l).collect()
    }

    fn units(&self) -> u64 {
        self.done.iter().map(|&(_, u)| u).sum()
    }
}

/// How the open-loop generator waits for a request's due time.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Wait {
    /// Yield the CPU until the due time. For a daemon that is otherwise
    /// idle between requests: on a virtual machine a vCPU that halts pays
    /// the hypervisor's wake-up delay (steal time), which made `serve-a`
    /// latency follow the neighbouring guests' load instead of the
    /// program (p50 spread over ten runs: 0.38 sleeping, with 1–18 %
    /// steal; 0.05–0.12 yielding, with under 5 % steal).
    Yield,
    /// Sleep. For a daemon kept busy by other traffic, where a yielding
    /// client would take CPU from that traffic (`serve-mixed` bulk
    /// throughput spread 0.10 sleeping, 0.27 yielding).
    Sleep,
}

/// Sends `devices` on a fixed schedule (`rate` per second for
/// `duration`) over `connections` blocking connections. Each request is
/// timed from when it was due, so a stall also delays the requests
/// queued behind it; `lag_ms` records how late each was sent.
pub fn open_loop(
    addr: SocketAddr,
    devices: &[Device],
    rate: f64,
    duration: Duration,
    connections: usize,
    wait: Wait,
    corrupt: &AtomicBool,
) -> Tally {
    let next = AtomicU64::new(0);
    let t0 = Instant::now() + Duration::from_millis(20);
    let interval = 1.0 / rate;
    let mut total = Tally::default();
    thread::scope(|s| {
        let workers: Vec<_> = (0..connections)
            .map(|_| {
                s.spawn(|| {
                    let mut tally = Tally::default();
                    let Ok(mut client) = Client::connect(addr, IO_TIMEOUT) else {
                        tally.record((true, true), 0.0, 0);
                        return tally;
                    };
                    loop {
                        let k = next.fetch_add(1, Ordering::Relaxed);
                        let offset = Duration::from_secs_f64(k as f64 * interval);
                        if offset >= duration {
                            break;
                        }
                        let due = t0 + offset;
                        match wait {
                            Wait::Yield => {
                                while Instant::now() < due {
                                    thread::yield_now();
                                }
                            }
                            Wait::Sleep => {
                                if let Some(left) = due.checked_duration_since(Instant::now()) {
                                    thread::sleep(left);
                                }
                            }
                        }
                        let sent = Instant::now();
                        let device = &devices[k as usize % devices.len()];
                        let reply = client.submit(&device.text, 0);
                        let done = Instant::now();
                        tally.latency.push((offset.as_secs_f64(), ms(done - due)));
                        tally.lag_ms.push(ms(sent.saturating_duration_since(due)));
                        let verdict =
                            check_reply(reply, &device.summary, Some(&device.suspects), corrupt);
                        tally.record(verdict, (done - t0).as_secs_f64(), 1);
                    }
                    tally
                })
            })
            .collect();
        for w in workers {
            total.merge(w.join().expect("open-loop client thread panicked"));
        }
    });
    total
}

/// Sends `devices` back to back over `connections` connections for
/// `duration`.
fn closed_loop(
    addr: SocketAddr,
    devices: &[Device],
    duration: Duration,
    connections: usize,
    corrupt: &AtomicBool,
) -> Tally {
    let next = AtomicU64::new(0);
    let t0 = Instant::now();
    let mut total = Tally::default();
    thread::scope(|s| {
        let workers: Vec<_> = (0..connections)
            .map(|_| {
                s.spawn(|| {
                    let mut tally = Tally::default();
                    let Ok(mut client) = Client::connect(addr, IO_TIMEOUT) else {
                        tally.record((true, true), 0.0, 0);
                        return tally;
                    };
                    while t0.elapsed() < duration {
                        let k = next.fetch_add(1, Ordering::Relaxed) as usize;
                        let device = &devices[k % devices.len()];
                        let reply = client.submit(&device.text, 0);
                        let verdict =
                            check_reply(reply, &device.summary, Some(&device.suspects), corrupt);
                        tally.record(verdict, t0.elapsed().as_secs_f64(), 1);
                    }
                    tally
                })
            })
            .collect();
        for w in workers {
            total.merge(w.join().expect("closed-loop client thread panicked"));
        }
    });
    total
}

/// Sends `lots` as `Volume` frames back to back for `duration`.
fn bulk_loop(addr: SocketAddr, lots: &[Lot], duration: Duration, corrupt: &AtomicBool) -> Tally {
    let mut tally = Tally::default();
    let t0 = Instant::now();
    let Ok(mut client) = Client::connect(addr, IO_TIMEOUT) else {
        tally.record((true, true), 0.0, 0);
        return tally;
    };
    let mut k = 0usize;
    while t0.elapsed() < duration {
        let lot = &lots[k % lots.len()];
        k += 1;
        let reply = client.submit_volume(&lot.texts, 0);
        let verdict = check_reply(reply, &lot.reference_json, None, corrupt);
        tally.record(verdict, t0.elapsed().as_secs_f64(), lot.texts.len() as u64);
    }
    tally
}

/// Warms the daemon's caches with one closed-loop pass over `devices`;
/// the answers are checked and counted like any other.
fn warm_up(addr: SocketAddr, devices: &[Device], corrupt: &AtomicBool) -> Tally {
    let mut tally = Tally::default();
    let Ok(mut client) = Client::connect(addr, IO_TIMEOUT) else {
        tally.record((true, true), 0.0, 0);
        return tally;
    };
    for d in devices {
        let reply = client.submit(&d.text, 0);
        tally.record(
            check_reply(reply, &d.summary, Some(&d.suspects), corrupt),
            0.0,
            1,
        );
    }
    tally
}

/// A run is invalid when any request left the generator later than this
/// share of the open-loop phase: the schedule slipped for good, and the
/// offered rate was not the one the run claims.
const MAX_LAG_SHARE: f64 = 0.1;

/// `latency_p50_ms` and `latency_p90_ms`: the p50 and p90 of each
/// `window_s` window of due times, each reported as the median over the
/// windows, so a disturbance confined to a few windows does not move
/// them. A window must hold at least ten samples beyond its p90.
fn latency_metrics(
    out: &mut Outcome,
    tally: &Tally,
    phase: Duration,
    window_s: f64,
    smoke: bool,
    rate: f64,
) {
    let latencies = tally.latencies_ms();
    let max_lag = tally.lag_ms.iter().copied().fold(0.0, f64::max);
    let lag_bound = ms(phase) * MAX_LAG_SHARE;
    let span = phase.as_secs_f64();
    let p50s = windowed(&tally.latency, window_s, span, |v| percentile(v, 0.5));
    let p90s = windowed(&tally.latency, window_s, span, |v| percentile(v, 0.9));
    let per_window = windowed(&tally.latency, window_s, span, |v| v.len() as f64);
    let fewest = per_window.iter().copied().fold(f64::INFINITY, f64::min);
    out.metric("latency_p50_ms", "ms", median(&p50s));
    out.metric("latency_p90_ms", "ms", median(&p90s));
    out.fact(
        "open_loop",
        format!(
            "{{\"rate_per_s\": {rate}, \"samples\": {}, \"windows\": {}, \"window_s\": {window_s}, \"fewest_per_window\": {fewest}, \"overall_p50_ms\": {}, \"overall_p90_ms\": {}, \"overall_p99_ms\": {}, \"lag_p50_ms\": {}, \"lag_p99_ms\": {}, \"lag_max_ms\": {max_lag}, \"lag_bound_ms\": {lag_bound}}}",
            latencies.len(),
            per_window.len(),
            percentile(&latencies, 0.5),
            percentile(&latencies, 0.9),
            percentile(&latencies, 0.99),
            percentile(&tally.lag_ms, 0.5),
            percentile(&tally.lag_ms, 0.99),
        ),
    );
    out.fact("p50_windows_ms", json_array(&p50s));
    out.fact("p90_windows_ms", json_array(&p90s));
    if !smoke && fewest < P90_SAMPLES {
        out.invalidate(format!(
            "a window held {fewest} latency samples, its p90 needs {P90_SAMPLES}"
        ));
    }
    if max_lag > lag_bound {
        out.invalidate(format!(
            "load generator fell behind: a request left {max_lag:.0} ms late, the bound is {lag_bound:.0} ms"
        ));
    }
}

/// Units completed per second in each `window_s` window that fits in
/// `span` (one window when the span is shorter).
fn window_rates(tally: &Tally, window_s: f64, span: Duration) -> Vec<f64> {
    let span = span.as_secs_f64();
    let window_s = window_s.min(span);
    let mut units = vec![0u64; (span / window_s + 1e-9).floor() as usize];
    for &(t, u) in &tally.done {
        if let Some(slot) = units.get_mut((t / window_s) as usize) {
            *slot += u;
        }
    }
    units.iter().map(|&u| u as f64 / window_s).collect()
}

/// Units completed per second, from the start to the last completion.
fn overall_rate(tally: &Tally) -> f64 {
    let last = tally.done.iter().map(|&(t, _)| t).fold(0.0, f64::max);
    tally.units() as f64 / last
}

fn stats_fact(out: &mut Outcome, daemon: &Daemon) {
    match daemon.stats() {
        Ok(st) => out.fact(
            "daemon_stats",
            format!(
                "{{\"total\": {}, \"clean\": {}, \"degraded\": {}, \"failed\": {}, \"rejected\": {}, \"request_p50_ms\": {}}}",
                st.total,
                st.clean,
                st.degraded,
                st.failed,
                st.rejected,
                json_number(st.request_p50_ms)
            ),
        ),
        Err(e) => out.invalidate(e),
    }
}

/// Open-loop rate of `serve-a`, requests per second.
pub const SERVE_A_RATE: f64 = 200.0;
/// Interactive open-loop rate of `serve-mixed`, requests per second.
pub const MIXED_RATE: f64 = 20.0;
/// Devices per `Volume` frame in `serve-mixed`.
pub const MIXED_LOT: usize = 8;

/// `serve-a`: circuit A at full size, an open loop at a fixed rate, then
/// a closed loop over `nproc` connections.
pub fn serve_a(s: &Settings) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let design = inputs::CIRCUIT_A;
    let ctx = design.build()?;
    let devices = inputs::sample_devices(&ctx, s.scale.serve_a_devices, s.seed)?;
    let setup = setup::timed(Workload::ServeA, s.scale.setups, None)?;
    let (daemon, _) = Daemon::start(design, s.workers)?;
    let corrupt = AtomicBool::new(s.corrupt);

    warm_up(daemon.addr, &devices, &corrupt).into_outcome(&mut out);
    let steal = StealMeter::start();
    let open_for = s.seconds.mul_f64(0.6);
    let closed_for = s.seconds - open_for;
    let open = open_loop(
        daemon.addr,
        &devices,
        SERVE_A_RATE,
        open_for,
        s.workers,
        Wait::Yield,
        &corrupt,
    );
    let closed = closed_loop(daemon.addr, &devices, closed_for, s.workers, &corrupt);
    steal.finish(&mut out);
    stats_fact(&mut out, &daemon);
    daemon.stop()?;

    out.setup(&setup);
    latency_metrics(&mut out, &open, open_for, 1.0, s.scale.smoke, SERVE_A_RATE);
    let rates = window_rates(&closed, 1.0, closed_for);
    out.metric("throughput_per_s", "1/s", median(&rates));
    out.fact(
        "closed_loop",
        format!(
            "{{\"connections\": {}, \"replies\": {}, \"window_s\": 1, \"overall_per_s\": {}, \"windows_per_s\": {}}}",
            s.workers,
            closed.attempted,
            overall_rate(&closed),
            json_array(&rates)
        ),
    );
    open.into_outcome(&mut out);
    closed.into_outcome(&mut out);
    quality(&mut out, &devices);
    out.fact("devices", devices.len().to_string());
    Ok(out)
}

/// `serve-mixed`: circuit B/400, interactive single-device requests on
/// one connection beside back-to-back `Volume` frames on another.
pub fn serve_mixed(s: &Settings) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let design = inputs::CIRCUIT_B400;
    let ctx = design.build()?.into_shared();
    let devices = inputs::sample_devices(&ctx, s.scale.mixed_devices, s.seed)?;
    let lots = inputs::planted_lots(&ctx, s.scale.mixed_lots, MIXED_LOT, s.seed, true)?;
    let setup = setup::timed(Workload::ServeMixed, s.scale.setups, None)?;
    let (daemon, _) = Daemon::start(design, s.workers)?;
    let corrupt = AtomicBool::new(s.corrupt);

    warm_up(daemon.addr, &devices, &corrupt).into_outcome(&mut out);
    let steal = StealMeter::start();
    let (interactive, bulk) = thread::scope(|sc| {
        let bulk = sc.spawn(|| bulk_loop(daemon.addr, &lots, s.seconds, &corrupt));
        let interactive = open_loop(
            daemon.addr,
            &devices,
            MIXED_RATE,
            s.seconds,
            1,
            Wait::Sleep,
            &corrupt,
        );
        (
            interactive,
            bulk.join().expect("bulk client thread panicked"),
        )
    });
    steal.finish(&mut out);
    stats_fact(&mut out, &daemon);
    daemon.stop()?;

    out.setup(&setup);
    latency_metrics(
        &mut out,
        &interactive,
        s.seconds,
        5.0,
        s.scale.smoke,
        MIXED_RATE,
    );
    // Over the whole phase: a frame carries eight devices, so short
    // windows would quantize the rate.
    out.metric("throughput_per_s", "1/s", overall_rate(&bulk));
    let ranks: Vec<f64> = lots.iter().map(|l| l.planted_rank as f64).collect();
    out.fact(
        "bulk",
        format!(
            "{{\"devices_per_frame\": {MIXED_LOT}, \"frames\": {}, \"lots\": {}, \"mean_planted_rank\": {}}}",
            bulk.attempted,
            lots.len(),
            mean(&ranks)
        ),
    );
    interactive.into_outcome(&mut out);
    bulk.into_outcome(&mut out);
    quality(&mut out, &devices);
    out.fact("devices", devices.len().to_string());
    Ok(out)
}

/// `correct_share`, `suspect_hit_rate` and `truth_rank` (over the
/// distinct devices, from their reference answers, which every reply must
/// equal).
fn quality(out: &mut Outcome, devices: &[Device]) {
    out.metric("correct_share", "share", out.correct_share());
    let hits = devices.iter().filter(|d| d.hit(&d.suspects)).count();
    out.metric(
        "suspect_hit_rate",
        "share",
        hits as f64 / devices.len().max(1) as f64,
    );
    let ranks: Vec<f64> = devices
        .iter()
        .map(|d| d.truth_rank(&d.suspects) as f64)
        .collect();
    out.metric("truth_rank", "rank", mean(&ranks));
}
