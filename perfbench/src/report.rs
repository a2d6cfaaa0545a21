//! What one run collects, the metric catalogue, the benchmark's own span
//! recorder, and the JSON lines the run prints.

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

/// Per-layer metrics: `(name, unit)`. Every traced run prints all of them,
/// in this order; a layer a workload does not run reads 0. Must match the
/// `per_layer` list of `BENCHMARK.json`.
pub const LAYER_METRICS: &[(&str, &str)] = &[
    ("plan.ns_per_query", "ns"),
    ("infer.us_per_query", "us"),
    ("infer.forward_rows_per_query", "count"),
    ("infer.dedup_hits_per_query", "count"),
    ("infer.live_sample_ratio", "ratio"),
    ("infer.table_bytes", "bytes"),
    ("nn.fused_forward_ns_per_row", "ns"),
    ("nn.softmax_ns_per_row", "ns"),
    ("gmm.mass_ns_per_call", "ns"),
    ("train.reduce_fit_s", "s"),
    ("train.epoch_s", "s"),
    ("train.rows_per_s", "1/s"),
    ("train.prepare_inference_ms", "ms"),
    ("persist.save_ms", "ms"),
    ("persist.load_ms", "ms"),
    ("persist.snapshot_bytes", "bytes"),
    ("serve.mean_batch", "count"),
    ("serve.mean_batch_window_spread", "ratio"),
    ("serve.server_latency_p50_us", "us"),
    ("serve.timeouts", "count"),
    ("serve.overloaded", "count"),
    ("cache.hit_ratio", "ratio"),
    ("cache.hit_ratio_window_spread", "ratio"),
    ("registry.swap_ms", "ms"),
    ("net.first_reply_us_p50", "us"),
    ("net.reply_gap_max_us_p95", "us"),
    ("sql.parse_lower_ns", "ns"),
    ("dist.rpc_us_per_call", "us"),
    ("dist.rpc_calls_per_batch", "count"),
    ("dist.partition_us", "us"),
    ("dist.merge_us", "us"),
    ("proto.writes_per_frame", "count"),
    ("proto.request_bytes_per_query", "bytes"),
    ("proto.encode_ns_per_query", "ns"),
    ("proto.decode_ns_per_query", "ns"),
    ("obs.overhead_pct", "%"),
    ("unattributed_pct", "%"),
];

/// `(name, value, unit)` in print order.
pub type Metrics = Vec<(&'static str, f64, &'static str)>;

/// Shape of one served model, printed in the stamp line so a paper-size
/// row and a toy row can never be confused.
pub struct ModelStamp {
    pub table: &'static str,
    pub rows: usize,
    pub hidden: Vec<usize>,
    pub components: usize,
    pub embed_dim: usize,
    pub samples: usize,
    pub params: usize,
    pub fused_table_bytes: usize,
    pub snapshot_bytes: usize,
}

/// Everything one run measured.
#[derive(Default)]
pub struct Run {
    pub models: Vec<ModelStamp>,
    /// Distinct queries in the seeded pool.
    pub pool: usize,
    /// FNV-1a over the bits of the reference answer of every pool query —
    /// the answers every reply was checked against. Equal for the traced
    /// and untraced run of one seed.
    pub digest: u64,
    /// Wall time of each set-up repetition.
    pub setup_s: Vec<f64>,
    /// Queries attempted / failed (ERR replies, `Err` results, timeouts).
    pub attempted: u64,
    pub failed: u64,
    /// First answer that differed from the reference, if any.
    pub mismatch: Option<String>,
    /// Queries answered inside the measured window.
    pub answered: u64,
    /// Per-request latency (µs) inside the measured window.
    pub latencies_us: Vec<f64>,
    /// Q-error of every pool query's answer against the exact selectivity.
    pub qerrors: Vec<f64>,
    /// Samples at each whole second of the measured window.
    pub windows: Windows,
    /// Per-layer values by name (traced runs).
    pub layers: BTreeMap<&'static str, f64>,
}

impl Run {
    pub fn correct(&self) -> bool {
        self.mismatch.is_none()
    }

    pub fn set(&mut self, name: &'static str, value: f64) {
        debug_assert!(LAYER_METRICS.iter().any(|(n, _)| *n == name), "unknown metric {name}");
        self.layers.insert(name, value);
    }

    /// Record the first mismatch; later ones add nothing new.
    pub fn record_mismatch(&mut self, what: String) {
        self.mismatch.get_or_insert(what);
    }

    /// Q-errors and digest of the pool's answers. Every answer the run
    /// gets is checked equal to its reference, so these are the answers'.
    pub fn score(&mut self, truth: &[f64], reference: &[f64], nrows: usize) {
        let mut digest = Digest::default();
        for (t, r) in truth.iter().zip(reference) {
            digest.add(*r);
            self.qerrors.push(iam_data::q_error(*t, *r, nrows));
        }
        self.digest = digest.0;
    }

    pub fn end_to_end_metrics(&self) -> Metrics {
        let mut lat = self.latencies_us.clone();
        lat.sort_by(f64::total_cmp);
        let mut qe = self.qerrors.clone();
        qe.sort_by(f64::total_cmp);
        let attempted = self.attempted.max(1) as f64;
        // host speed drifts on a time scale of seconds, so throughput is
        // the median over one-second windows rather than a whole-run mean
        let qps = median(&self.windows.qps());
        vec![
            ("qps", qps, "1/s"),
            ("latency_p50_us", percentile(&lat, 0.50), "us"),
            ("latency_p95_us", percentile(&lat, 0.95), "us"),
            ("qerror_p50", percentile(&qe, 0.50), "ratio"),
            ("qerror_p99", percentile(&qe, 0.99), "ratio"),
            ("answered_ratio", (attempted - self.failed as f64) / attempted, "ratio"),
            ("setup_s", median(&self.setup_s), "s"),
            ("peak_rss_mb", crate::sys::peak_rss_kb() as f64 / 1024.0, "MB"),
            ("cpu_ms_per_kq", self.windows.cpu_ms_per_kq(), "ms"),
        ]
    }

    pub fn layer_metrics(&self) -> Metrics {
        LAYER_METRICS
            .iter()
            .map(|&(name, unit)| (name, self.layers.get(name).copied().unwrap_or(0.0), unit))
            .collect()
    }

    pub fn result_json(&self, metrics: &Metrics) -> String {
        let body: Vec<String> = metrics
            .iter()
            .map(|(name, v, unit)| {
                let v = if v.is_finite() { *v } else { 0.0 };
                format!("\"{name}\": {{\"value\": {v}, \"unit\": \"{unit}\"}}")
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct(),
            self.attempted.max(1),
            self.failed,
            body.join(", ")
        )
    }

    pub fn stamp_json(&self, workload: &str, seed: u64, seconds: u64, trace: bool) -> String {
        let models: Vec<String> = self
            .models
            .iter()
            .map(|m| {
                format!(
                    "{{\"table\": \"{}\", \"rows\": {}, \"hidden\": {:?}, \"components\": {}, \
                     \"embed_dim\": {}, \"samples\": {}, \"params\": {}, \
                     \"fused_table_bytes\": {}, \"snapshot_bytes\": {}}}",
                    m.table,
                    m.rows,
                    m.hidden,
                    m.components,
                    m.embed_dim,
                    m.samples,
                    m.params,
                    m.fused_table_bytes,
                    m.snapshot_bytes
                )
            })
            .collect();
        format!(
            "{{\"stamp\": {{\"workload\": \"{workload}\", \"seed\": {seed}, \"seconds\": {seconds}, \
             \"trace\": {}, \"nproc\": {}, \"pool_queries\": {}, \"scored_queries\": {}, \
             \"answers_digest\": \"{:016x}\", \"setup_s\": {:?}, \"models\": [{}]}}}}",
            u8::from(trace),
            crate::sys::nproc(),
            self.pool,
            self.qerrors.len(),
            self.digest,
            self.setup_s,
            models.join(", ")
        )
    }
}

/// Nearest-rank percentile of an ascending slice (0 when empty).
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = ((sorted.len() as f64 * p).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    percentile(&v, 0.5)
}

/// FNV-1a accumulator over answer bits.
struct Digest(u64);

impl Default for Digest {
    fn default() -> Self {
        Digest(0xcbf2_9ce4_8422_2325)
    }
}

impl Digest {
    fn add(&mut self, v: f64) {
        for b in v.to_bits().to_le_bytes() {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x100_0000_01b3);
        }
    }
}

/// Median wall time of `f` over `reps` calls, in seconds.
pub fn time_median(reps: usize, mut f: impl FnMut()) -> f64 {
    let times: Vec<f64> = (0..reps.max(1))
        .map(|_| {
            let t = Instant::now();
            f();
            t.elapsed().as_secs_f64()
        })
        .collect();
    median(&times)
}

/// Alternating measurement windows of a traced run: even windows run
/// untraced, odd ones traced, so the tracing overhead is measured on the
/// same load, interleaved against drift.
const TRACE_WINDOW: Duration = Duration::from_millis(500);

/// Index of the trace window a request starting now falls in.
pub fn trace_window(start: Instant) -> u64 {
    (start.elapsed().as_millis() / TRACE_WINDOW.as_millis()) as u64
}

/// One span the benchmark recorded around a call into the program.
struct Span {
    name: &'static str,
    parent: Option<usize>,
    start: Instant,
    end: Instant,
}

/// In-memory span recorder for the traced windows (one per client
/// thread; merged with [`Tracer::absorb`]). Spans carry their parent, so a
/// layer's self time is its duration minus its children's.
#[derive(Default)]
pub struct Tracer {
    spans: Vec<Span>,
}

impl Tracer {
    /// Record an already-timed span; returns its id (a parent for others).
    pub fn record(
        &mut self,
        name: &'static str,
        parent: Option<usize>,
        start: Instant,
        end: Instant,
    ) -> usize {
        self.spans.push(Span { name, parent, start, end });
        self.spans.len() - 1
    }

    pub fn absorb(&mut self, other: Tracer) {
        let base = self.spans.len();
        self.spans.extend(
            other.spans.into_iter().map(|s| Span { parent: s.parent.map(|p| p + base), ..s }),
        );
    }

    /// `name → (count, total_us, self_us)`.
    pub fn summary(&self) -> BTreeMap<&'static str, (u64, f64, f64)> {
        let dur = |s: &Span| s.end.duration_since(s.start).as_secs_f64() * 1e6;
        let mut child_us = vec![0.0; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_us[p] += dur(s);
            }
        }
        let mut out: BTreeMap<&'static str, (u64, f64, f64)> = BTreeMap::new();
        for (i, s) in self.spans.iter().enumerate() {
            let e = out.entry(s.name).or_default();
            e.0 += 1;
            e.1 += dur(s);
            e.2 += dur(s) - child_us[i];
        }
        out
    }

    /// Total µs of spans named `name`.
    pub fn total_us(&self, name: &str) -> f64 {
        self.summary().get(name).map_or(0.0, |e| e.1)
    }

    /// Print the per-span summary to stderr (the traced run's span dump).
    pub fn dump(&self) {
        for (name, (count, total, self_us)) in self.summary() {
            eprintln!(
                "span {name:<24} count {count:>8} total_us {total:>14.1} self_us {self_us:>14.1}"
            );
        }
    }
}

/// Queries answered and request-busy seconds per trace window; gives
/// `obs.overhead_pct`.
#[derive(Default)]
pub struct WindowSplit {
    windows: BTreeMap<u64, (f64, f64)>,
}

impl WindowSplit {
    pub fn add(&mut self, window: u64, queries: usize, busy: Duration) {
        let w = self.windows.entry(window).or_default();
        w.0 += queries as f64;
        w.1 += busy.as_secs_f64();
    }

    pub fn merge(&mut self, other: &WindowSplit) {
        for (&i, &(q, b)) in &other.windows {
            let w = self.windows.entry(i).or_default();
            w.0 += q;
            w.1 += b;
        }
    }

    /// Throughput each traced window loses against the untraced window
    /// just before it, in percent; the median over those pairs. Host
    /// speed drifts over seconds, so only neighbours are compared.
    pub fn overhead_pct(&self) -> f64 {
        let rate = |w: &(f64, f64)| w.0 / w.1.max(1e-9);
        let ratios: Vec<f64> = self
            .windows
            .iter()
            .filter(|(i, u)| *i % 2 == 0 && u.0 > 0.0)
            .filter_map(|(i, u)| self.windows.get(&(i + 1)).map(|t| rate(t) / rate(u)))
            .collect();
        if ratios.is_empty() {
            return 0.0;
        }
        100.0 * (1.0 - median(&ratios))
    }
}

/// Answers checked bit for bit against reference answers of the pool.
pub struct Answers {
    reference: Vec<u64>,
}

impl Answers {
    pub fn new(reference: &[f64]) -> Self {
        Answers { reference: reference.iter().map(|v| v.to_bits()).collect() }
    }

    /// Check the answers to pool slots `at..at + got.len()`; results that
    /// are not a selectivity count as failed. Returns how many were
    /// answered.
    pub fn check(&self, run: &mut Run, at: usize, got: &[f64]) -> usize {
        run.attempted += got.len() as u64;
        let mut answered = 0;
        for (j, &v) in got.iter().enumerate() {
            let i = at + j;
            if !(0.0..=1.0).contains(&v) {
                run.failed += 1;
                continue;
            }
            answered += 1;
            if v.to_bits() != self.reference[i] {
                let want = f64::from_bits(self.reference[i]);
                run.record_mismatch(format!("query {i}: {v} != reference {want}"));
            }
        }
        answered
    }
}

/// The program's own `iam_obs` spans run only inside traced windows.
pub fn set_program_spans(on: bool) {
    if on {
        iam_obs::span::enable();
    } else {
        iam_obs::span::disable();
    }
}

/// Sum of every series of metric `name` in a Prometheus text exposition.
pub fn prom_sum(text: &str, name: &str) -> f64 {
    text.lines()
        .filter(|l| {
            l.strip_prefix(name).is_some_and(|rest| rest.starts_with(' ') || rest.starts_with('{'))
        })
        .filter_map(|l| l.rsplit(' ').next()?.parse::<f64>().ok())
        .sum()
}

/// `(seconds, process cpu ms, queries answered)` at each whole second of
/// the measured window.
#[derive(Default)]
pub struct Windows {
    start: Option<Instant>,
    samples: Vec<(f64, f64, u64)>,
}

impl Windows {
    pub fn start(&mut self, start: Instant) {
        self.start = Some(start);
        self.samples = vec![(0.0, crate::sys::cpu_ms(), 0)];
    }

    /// Sample if the next whole second has passed; cheap otherwise.
    pub fn tick(&mut self, answered: u64) {
        let Some(start) = self.start else { return };
        let t = start.elapsed().as_secs_f64();
        if t >= self.samples.len() as f64 {
            self.samples.push((t, crate::sys::cpu_ms(), answered));
        }
    }

    /// Close the window with a last (partial) sample.
    pub fn finish(&mut self, answered: u64) {
        if let Some(start) = self.start {
            self.samples.push((start.elapsed().as_secs_f64(), crate::sys::cpu_ms(), answered));
        }
    }

    /// Queries/s of each window. A last partial window under half a
    /// second is dropped unless it is the only one.
    pub fn qps(&self) -> Vec<f64> {
        let mut s = &self.samples[..];
        if s.len() > 2 && s[s.len() - 1].0 - s[s.len() - 2].0 < 0.5 {
            s = &s[..s.len() - 1];
        }
        s.windows(2).map(|w| (w[1].2 - w[0].2) as f64 / (w[1].0 - w[0].0)).collect()
    }

    /// Process CPU ms per 1000 queries over the whole measured window.
    pub fn cpu_ms_per_kq(&self) -> f64 {
        match (self.samples.first(), self.samples.last()) {
            (Some(a), Some(b)) => (b.1 - a.1) / ((b.2 - a.2).max(1) as f64 / 1e3),
            _ => 0.0,
        }
    }
}
