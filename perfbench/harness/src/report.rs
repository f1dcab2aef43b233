//! Results: metrics, correctness checks, the stamp and the JSON line.

use crate::adapter::SpanRec;
use pts_obs::{MetricValue, MetricsSnapshot};
use std::time::Instant;

/// One named metric with its unit.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

/// What one run produced.
#[derive(Debug, Default)]
pub struct Outcome {
    pub metrics: Vec<Metric>,
    /// Requests sent.
    pub attempted: u64,
    /// Requests that errored, timed out or went unanswered.
    pub failed: u64,
    /// Failed correctness checks; any entry makes the run incorrect.
    pub failures: Vec<String>,
    /// Human-readable lines printed before the result.
    pub notes: Vec<String>,
    /// Benchmark-side spans of a traced run, written out at exit.
    pub spans: Vec<SpanRec>,
}

impl Outcome {
    pub fn push(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.metrics.push(Metric {
            name: name.into(),
            value,
            unit,
        });
    }

    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.failures.push(what());
        }
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.metrics
            .iter()
            .find(|m| m.name == name)
            .map(|m| m.value)
    }

    /// The result line: exactly `correct`, `attempted`, `failed`,
    /// `metrics`.
    pub fn json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                format!(
                    "{}: {{\"value\": {}, \"unit\": {}}}",
                    quote(&m.name),
                    number(m.value),
                    quote(m.unit)
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.failures.is_empty() && self.failed == 0,
            self.attempted.max(1),
            self.failed,
            metrics.join(", ")
        )
    }
}

pub fn quote(s: &str) -> String {
    let mut out = String::from("\"");
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// JSON has no NaN or infinity; a non-finite value is reported as 0.
fn number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".into()
    }
}

/// Nearest-rank quantile of `xs` (sorted in place); 0 when empty.
pub fn quantile(xs: &mut [f64], q: f64) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    xs.sort_by(f64::total_cmp);
    let rank = ((q * xs.len() as f64).ceil() as usize).clamp(1, xs.len());
    xs[rank - 1]
}

pub fn mean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        0.0
    } else {
        xs.iter().sum::<f64>() / xs.len() as f64
    }
}

pub fn median(xs: &[f64]) -> f64 {
    let mut v = xs.to_vec();
    quantile(&mut v, 0.5)
}

/// The tail percentile of the latency metrics. A run of the `ingest`
/// workload draws 20 times a second, so p95 is the highest percentile
/// with at least ten draws beyond it in a 15-second traced half.
pub const TAIL: f64 = 0.95;

/// The end-to-end metrics every workload reports besides `setup_s`.
#[derive(Debug, Default)]
pub struct EndToEnd {
    pub updates_per_s: f64,
    pub requests_per_s: f64,
    pub draws_per_s: f64,
    pub draw_ms: Vec<f64>,
    pub request_us: Vec<f64>,
}

impl EndToEnd {
    pub fn push(mut self, out: &mut Outcome) {
        out.push("updates_per_s", self.updates_per_s, "1/s");
        out.push("requests_per_s", self.requests_per_s, "1/s");
        out.push("draws_per_s", self.draws_per_s, "1/s");
        out.push("draw_p50_ms", quantile(&mut self.draw_ms, 0.5), "ms");
        out.push("request_p50_us", quantile(&mut self.request_us, 0.5), "us");
        out.push("peak_rss_mb", peak_rss_mb(), "MB");
        self.note_tails(out);
    }

    /// The tail latencies: printed on every run, and per-layer metrics of
    /// the traced run, where they come from its untraced half. Between
    /// runs on a shared 2-core machine they move far more than any bound
    /// an end-to-end metric may have.
    pub fn push_tails(mut self, out: &mut Outcome) {
        out.push("draw_p95_ms", quantile(&mut self.draw_ms, TAIL), "ms");
        out.push("request_p95_us", quantile(&mut self.request_us, TAIL), "us");
        self.note_tails(out);
    }

    fn note_tails(&mut self, out: &mut Outcome) {
        out.notes.push(format!(
            "{} draws, p95 {:.3} ms; {} request latencies, p95 {:.1} us; error_ratio {}",
            self.draw_ms.len(),
            quantile(&mut self.draw_ms, TAIL),
            self.request_us.len(),
            quantile(&mut self.request_us, TAIL),
            out.failed as f64 / out.attempted.max(1) as f64
        ));
    }
}

/// Completions over a phase, for rates that are steady under the odd
/// stall: the median over whole seconds, not the overall mean.
#[derive(Debug, Default)]
pub struct Timeline {
    events: Vec<(f64, u64)>,
}

impl Timeline {
    /// Records `n` completions now, relative to the phase `start`.
    pub fn add(&mut self, start: Instant, n: u64) {
        self.events.push((secs_since(start), n));
    }

    pub fn absorb(&mut self, other: Timeline) {
        self.events.extend(other.events);
    }

    pub fn total(&self) -> u64 {
        self.events.iter().map(|e| e.1).sum()
    }

    /// Median rate over the phase's one-second windows (the plain rate
    /// when the phase is shorter than two seconds). Each window runs from
    /// the first completion at or after its start to the first at or after
    /// the next window's start, so its rate is measured, not a count.
    pub fn median_rate(&self, secs: f64) -> f64 {
        let rates = self.window_rates(secs);
        if rates.is_empty() {
            self.total() as f64 / secs
        } else {
            median(&rates)
        }
    }

    /// The rate of each one-second window (see [`Timeline::median_rate`]).
    pub fn window_rates(&self, secs: f64) -> Vec<f64> {
        let windows = secs.floor() as usize;
        if windows < 2 {
            return Vec::new();
        }
        let mut events = self.events.clone();
        events.sort_by(|a, b| a.0.total_cmp(&b.0));
        let (mut bounds, mut done, mut w) = (Vec::new(), 0u64, 0usize);
        for &(t, n) in &events {
            while w <= windows && t >= w as f64 {
                bounds.push((t, done));
                w += 1;
            }
            done += n;
        }
        bounds
            .windows(2)
            .filter(|b| b[1].0 > b[0].0)
            .map(|b| (b[1].1 - b[0].1) as f64 / (b[1].0 - b[0].0))
            .collect()
    }
}

pub fn secs_since(t: Instant) -> f64 {
    t.elapsed().as_secs_f64()
}

/// Peak resident set (VmHWM) in MB; 0 off Linux.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// `(count, sum)` of a histogram series in a registry snapshot.
fn hist(snap: &MetricsSnapshot, name: &str, label: Option<&str>) -> (u64, u64) {
    snap.points
        .iter()
        .find(|p| p.name == name && p.label.map(|(_, v)| v) == label)
        .and_then(|p| match &p.value {
            MetricValue::Histogram(h) => Some((h.count, h.sum)),
            _ => None,
        })
        .unwrap_or((0, 0))
}

/// Mean in µs of a histogram series over the interval between two
/// snapshots (0 when nothing was observed, e.g. in an obs-off build).
pub fn hist_mean_us(
    before: &MetricsSnapshot,
    after: &MetricsSnapshot,
    name: &str,
    label: Option<&str>,
) -> f64 {
    let (c0, s0) = hist(before, name, label);
    let (c1, s1) = hist(after, name, label);
    let n = c1.saturating_sub(c0);
    if n == 0 {
        0.0
    } else {
        s1.wrapping_sub(s0) as f64 / n as f64 / 1e3
    }
}

/// The server's stage split and the client's resolve time over an
/// interval, plus the stage-sum cross-check: the part of the resolve
/// time that no stage or client-side submit accounts for.
pub fn server_stages(
    out: &mut Outcome,
    before: &MetricsSnapshot,
    after: &MetricsSnapshot,
    submit_us: f64,
) {
    let mut staged = submit_us;
    for (stage, metric) in [
        ("queue_wait", "server.stage.queue_us"),
        ("lock_wait", "server.stage.lock_us"),
        ("engine", "server.stage.engine_us"),
        ("write", "server.stage.write_us"),
    ] {
        let v = hist_mean_us(before, after, "server.stage.ns", Some(stage));
        staged += v;
        out.push(metric, v, "us");
    }
    let resolve = hist_mean_us(before, after, "server.client.resolve.ns", None);
    out.push("server.unaccounted_us", resolve - staged, "us");
    out.notes.push(format!(
        "stage-sum check: client resolve {resolve:.2} us vs submit + stages {staged:.2} us"
    ));
}
