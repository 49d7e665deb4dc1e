//! Result bookkeeping: order statistics, the metric list, host facts and
//! the one-line JSON result.

use std::fmt::Write as _;
use std::time::Duration;

/// One named measurement with its unit.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: String,
    pub unit: &'static str,
    pub value: f64,
}

/// What one workload run produced.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Operations attempted (requests, volume frames, device diagnoses).
    pub attempted: u64,
    /// Operations that failed, were rejected, came back degraded or gave
    /// a wrong answer.
    pub failed: u64,
    /// Answers that differed from the in-process reference.
    pub wrong: u64,
    /// Why the run cannot be trusted (too few samples, generator behind
    /// schedule, a broken invariant); empty for a valid run.
    pub invalid: Vec<String>,
    pub metrics: Vec<Metric>,
    /// Sample accounting and run facts, as JSON members.
    pub facts: Vec<(String, String)>,
}

impl Outcome {
    pub fn metric(&mut self, name: impl Into<String>, unit: &'static str, value: f64) {
        self.metrics.push(Metric {
            name: name.into(),
            unit,
            value,
        });
    }

    /// `setup_s`: the median of the run's set-ups, each listed in the
    /// facts.
    pub fn setup(&mut self, times_s: &[f64]) {
        self.metric("setup_s", "s", median(times_s));
        self.fact("setup_samples_s", json_array(times_s));
    }

    pub fn fact(&mut self, key: &str, json_value: String) {
        self.facts.push((key.to_owned(), json_value));
    }

    pub fn invalidate(&mut self, why: String) {
        eprintln!("perfbench: run invalid: {why}");
        self.invalid.push(why);
    }

    /// Counts one checked answer.
    pub fn answer(&mut self, ok: bool, failed: bool) {
        self.attempted += 1;
        if !ok {
            self.wrong += 1;
        }
        if !ok || failed {
            self.failed += 1;
        }
    }

    /// `(attempted - failed) / attempted`: the share of operations that
    /// came back complete and correct.
    pub fn correct_share(&self) -> f64 {
        if self.attempted == 0 {
            return 0.0;
        }
        (self.attempted - self.failed) as f64 / self.attempted as f64
    }

    pub fn correct(&self) -> bool {
        self.wrong == 0 && self.invalid.is_empty() && self.attempted > 0
    }

    /// The result line: exactly `correct`, `attempted`, `failed` and
    /// `metrics`.
    pub fn result_json(&self) -> String {
        let mut out = String::new();
        let _ = write!(
            out,
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.correct(),
            self.attempted,
            self.failed
        );
        for (i, m) in self.metrics.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            let _ = write!(
                out,
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name,
                json_number(m.value),
                m.unit
            );
        }
        out.push_str("}}");
        out
    }

    /// The facts line printed before the result.
    pub fn facts_json(&self, workload: &str, trace: bool) -> String {
        let mut out = String::new();
        let _ = write!(
            out,
            "{{\"workload\": \"{workload}\", \"trace\": {trace}, \"host\": {}",
            host_facts()
        );
        for (k, v) in &self.facts {
            let _ = write!(out, ", \"{k}\": {v}");
        }
        let _ = write!(out, ", \"peak_rss_mb\": {}", json_number(peak_rss_mb()));
        out.push_str(", \"invalid\": [");
        for (i, why) in self.invalid.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            icd_obs::json::write_string(&mut out, why);
        }
        out.push_str("]}");
        out
    }
}

/// Samples a p90 needs: ten beyond it.
pub const P90_SAMPLES: f64 = 100.0;

/// A finite JSON number with every digit Rust's shortest round-trip
/// formatting gives.
pub fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".to_owned()
    }
}

/// Processor count, compiler and OS — the facts a number depends on.
pub fn host_facts() -> String {
    format!(
        "{{\"nproc\": {}, \"rustc\": \"{}\", \"os\": \"{}\", \"arch\": \"{}\"}}",
        nproc(),
        env!("PERFBENCH_RUSTC_VERSION"),
        std::env::consts::OS,
        std::env::consts::ARCH
    )
}

pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, usize::from)
}

/// `VmHWM` of this process in MiB (0 where `/proc` is unavailable).
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Nearest-rank percentile (`q` in 0..=1) of unsorted samples.
pub fn percentile(samples: &[f64], q: f64) -> f64 {
    if samples.is_empty() {
        return f64::NAN;
    }
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = ((q * v.len() as f64).ceil() as usize).clamp(1, v.len());
    v[rank - 1]
}

pub fn median(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        return f64::NAN;
    }
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

pub fn mean(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        return f64::NAN;
    }
    samples.iter().sum::<f64>() / samples.len() as f64
}

pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

pub fn us(d: Duration) -> f64 {
    d.as_secs_f64() * 1e6
}

/// A JSON array of numbers.
pub fn json_array(values: &[f64]) -> String {
    let items: Vec<String> = values.iter().map(|v| json_number(*v)).collect();
    format!("[{}]", items.join(", "))
}

/// A JSON object of `"name": number` members.
pub fn json_object(members: &[(&str, f64)]) -> String {
    let body: Vec<String> = members
        .iter()
        .map(|(k, v)| format!("\"{k}\": {}", json_number(*v)))
        .collect();
    format!("{{{}}}", body.join(", "))
}

/// `stat` of each consecutive `window_s` window of `(time s, value)`
/// samples that fits whole in `span_s` (the whole span when none does),
/// skipping empty windows.
pub fn windowed(
    samples: &[(f64, f64)],
    window_s: f64,
    span_s: f64,
    stat: impl Fn(&[f64]) -> f64,
) -> Vec<f64> {
    let (window_s, windows) = match (span_s / window_s + 1e-9).floor() as u64 {
        0 => (span_s, 1),
        n => (window_s, n),
    };
    let mut buckets: std::collections::BTreeMap<u64, Vec<f64>> = Default::default();
    for &(t, v) in samples {
        let w = (t / window_s).floor() as u64;
        if w < windows {
            buckets.entry(w).or_default().push(v);
        }
    }
    buckets.values().map(|v| stat(v)).collect()
}

/// Share of CPU time the hypervisor gave to other guests while a
/// measurement ran (the `steal` column of `/proc/stat`), recorded with
/// the result so a noisy neighbour shows.
pub struct StealMeter(Option<(u64, u64)>);

fn cpu_ticks() -> Option<(u64, u64)> {
    let stat = std::fs::read_to_string("/proc/stat").ok()?;
    let line = stat.lines().next()?.strip_prefix("cpu ")?;
    let ticks: Vec<u64> = line
        .split_whitespace()
        .filter_map(|t| t.parse().ok())
        .collect();
    Some((ticks.iter().take(8).sum(), *ticks.get(7)?))
}

impl StealMeter {
    pub fn start() -> Self {
        StealMeter(cpu_ticks())
    }

    pub fn finish(self, out: &mut Outcome) {
        if let (Some((total0, steal0)), Some((total1, steal1))) = (self.0, cpu_ticks()) {
            let share = (steal1 - steal0) as f64 / (total1 - total0).max(1) as f64;
            out.fact("cpu_steal_share", json_number(share));
        }
    }
}
