//! `optimizer_tcp`: an optimizer asking for all sub-plan cardinalities at
//! once. Two connections (one client thread each) run closed loops of
//! pipelined 16-line bursts against `Service` + `TcpFrontend` with the
//! default config (cache on, 2 ms flush window) on the 48×48 toy model.
//! About ¾ of lines are `col=lo..hi`, ¼ the same queries as
//! `SQL SELECT COUNT(*)`; each distinct query comes about 6 times, so most
//! lines hit the cache. Every [`RELOAD_EVERY`] bursts the snapshot is
//! reloaded through `Service::load_model`, which empties the cache.
//! Parsing, the queue and batcher, the cache, the registry and reply writes
//! dominate; inference runs only on misses.

use crate::inputs::{self, toy_cfg};
use crate::layers;
use crate::report::{
    median, percentile, prom_sum, set_program_spans, trace_window, Run, Tracer, WindowSplit,
};
use iam_core::IamEstimator;
use iam_data::synth::Dataset;
use iam_obs::tracetree::splitmix64;
use iam_serve::{render_query, ServeConfig, Service, TcpFrontend};
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering::Relaxed};
use std::sync::Mutex;
use std::time::{Duration, Instant};

const ROWS: usize = 20_000;
/// Distinct queries served; the traffic cycles through them.
const DISTINCT: usize = 4096;
/// Queries scored for q-error: the served ones and more from the same
/// seeded stream, enough that `qerror_p99` stays steady across seeds.
const SCORED: usize = 32_768;
const REPEATS: usize = 6;
/// Distinct queries whose repeats are shuffled together: the repeats of a
/// query arrive close enough that the cache still holds it.
const GROUP: usize = 64;
const BURST: usize = 16;
const CONNS: usize = 2;
/// The write share: one snapshot reload per this many bursts.
const RELOAD_EVERY: usize = 64;
const SETUP_REPS: usize = 3;

/// One pipelined burst: the bytes written and the reply each line must get.
struct Burst {
    text: String,
    expect: Vec<Expect>,
}

enum Expect {
    /// A `col=lo..hi` line: the reply is `{:.6}` of the selectivity.
    Line(String),
    /// A `SQL SELECT COUNT(*)` line: its `SEL` field is `{:.6}`.
    Sql(String),
}

impl Expect {
    fn matches(&self, reply: &str) -> bool {
        match self {
            Expect::Line(want) => reply == want,
            Expect::Sql(want) => {
                let mut it = reply.split_whitespace();
                it.next() == Some("COUNT") && it.nth(1) == Some("SEL") && it.next() == Some(want)
            }
        }
    }
}

/// Everything one set-up built; dropped (and stopped) by [`Stack::stop`].
struct Stack {
    service: Service,
    frontend: TcpFrontend,
    conns: Vec<TcpStream>,
}

impl Stack {
    fn start(model: IamEstimator) -> Stack {
        let service = Service::start(model, "v1", ServeConfig::default());
        let frontend =
            TcpFrontend::spawn(service.client(), "127.0.0.1:0").expect("bind TCP front-end");
        let conns = (0..CONNS)
            .map(|_| {
                let mut c = TcpStream::connect(frontend.addr).expect("connect to front-end");
                c.set_read_timeout(Some(Duration::from_secs(10))).expect("set read timeout");
                // warm-up: the unconstrained query, never in the pool
                c.write_all(b"*\n").expect("warm-up write");
                let mut line = String::new();
                BufReader::new(&c).read_line(&mut line).expect("warm-up reply");
                c
            })
            .collect();
        Stack { service, frontend, conns }
    }

    fn stop(self) {
        drop(self.conns);
        self.frontend.stop();
        self.service.shutdown();
    }
}

pub fn run(seed: u64, measure: Duration, trace: bool) -> Run {
    let table = inputs::table(Dataset::Wisdm, ROWS);
    let pool = inputs::query_pool(&table, SCORED, seed);
    let mut run = Run { pool: DISTINCT, ..Run::default() };

    // set-up: training, snapshot, service, front-end, connections, warm-up
    let mut built: Option<(Stack, IamEstimator, Vec<u8>)> = None;
    for _ in 0..SETUP_REPS {
        if let Some((stack, _, _)) = built.take() {
            stack.stop();
        }
        let t = Instant::now();
        let (mut model, _) = inputs::fit_timed(&table, toy_cfg());
        let mut snapshot = Vec::new();
        model.save(&mut snapshot).expect("snapshot serialises");
        let stack = Stack::start(model.clone());
        run.setup_s.push(t.elapsed().as_secs_f64());
        built = Some((stack, model, snapshot));
    }
    let (mut stack, mut model, snapshot) = built.expect("at least one set-up");
    run.models.push(inputs::stamp("wisdm", ROWS, &mut model));

    // untimed: truths, reference replies, the burst sequence
    let truth = inputs::truths(&table, &pool);
    let reference = inputs::reference(&model, &pool);
    // the scored answers are the replies, i.e. rounded to six decimals
    let replied: Vec<f64> =
        reference.iter().map(|v| format!("{v:.6}").parse().expect("reply parses")).collect();
    run.score(&truth, &replied, ROWS);
    let bursts = burst_sequence(&pool[..DISTINCT], &reference, seed);

    let next = AtomicUsize::new(0);
    let answered = AtomicU64::new(0);
    let swaps = Mutex::new(Vec::new());
    let prom = |s: &Service| s.metrics_prometheus_local();
    // exposition samples for the traced run's layer counts
    let mut samples = if trace { vec![prom(&stack.service)] } else { Vec::new() };
    let service = &stack.service;
    let start = Instant::now();
    run.windows.start(start);
    let conns: Vec<ConnLoop> = std::thread::scope(|s| {
        let handles: Vec<_> = stack
            .conns
            .iter_mut()
            .map(|conn| {
                let (next, answered, bursts) = (&next, &answered, &bursts);
                let (swaps, snapshot) = (&swaps, &snapshot);
                s.spawn(move || {
                    let mut c = ConnLoop::default();
                    c.drive(conn, bursts, next, answered, start, measure, trace, |b| {
                        if (b + 1) % RELOAD_EVERY == 0 {
                            let t = Instant::now();
                            service.load_model(&mut snapshot.as_slice(), "reload").expect("reload");
                            swaps.lock().expect("swap log").push(t.elapsed().as_secs_f64());
                        }
                    });
                    c
                })
            })
            .collect();
        // meanwhile sample rates (and, traced, the counts) each second
        for k in 1..=measure.as_secs() {
            std::thread::sleep(Duration::from_secs(k).saturating_sub(start.elapsed()));
            run.windows.tick(answered.load(Relaxed));
            if trace {
                samples.push(prom(service));
            }
        }
        handles.into_iter().map(|h| h.join().expect("client thread")).collect()
    });
    run.windows.finish(answered.load(Relaxed));
    set_program_spans(false);

    let mut tracer = Tracer::default();
    let mut split = WindowSplit::default();
    let (mut first_us, mut gap_us, mut burst_us) = (Vec::new(), Vec::new(), 0.0);
    for c in conns {
        run.attempted += c.attempted;
        run.failed += c.failed;
        run.answered += c.answered;
        run.latencies_us.extend(c.latencies_us);
        if let Some(m) = c.mismatch {
            run.record_mismatch(m);
        }
        tracer.absorb(c.tracer);
        split.merge(&c.split);
        first_us.extend(c.first_us);
        gap_us.extend(c.gap_us);
        burst_us += c.busy_us;
    }

    if trace {
        tracer.dump();
        let snap = stack.service.metrics();
        let (before, after) = (&samples[0], &samples[samples.len() - 1]);
        let d = |name: &str| prom_sum(after, name) - prom_sum(before, name);
        run.set("serve.mean_batch", snap.mean_batch);
        run.set("serve.server_latency_p50_us", snap.latency_p50_us as f64);
        run.set("serve.timeouts", snap.timeouts as f64);
        run.set("serve.overloaded", snap.overloaded as f64);
        let (hits, misses) = (d("iam_serve_cache_hits_total"), d("iam_serve_cache_misses_total"));
        run.set("cache.hit_ratio", hits / (hits + misses).max(1.0));
        let (batch, hit) = window_counts(&samples);
        run.set("serve.mean_batch_window_spread", spread(&batch));
        run.set("cache.hit_ratio_window_spread", spread(&hit));
        run.set("registry.swap_ms", 1e3 * median(&swaps.lock().expect("swap log")));
        first_us.sort_by(f64::total_cmp);
        gap_us.sort_by(f64::total_cmp);
        run.set("net.first_reply_us_p50", percentile(&first_us, 0.50));
        run.set("net.reply_gap_max_us_p95", percentile(&gap_us, 0.95));
        // bursts are served line by line, so the service-side latency sum
        // is the part of the connections' busy time spent in the service
        let served_us = d("iam_serve_latency_us_sum");
        run.set("unattributed_pct", 100.0 * (1.0 - served_us / burst_us.max(1e-9)));
        run.set("obs.overhead_pct", split.overhead_pct());
        layers::persist(&mut run, &model);
        layers::sql(&mut run, &table.name, &pool);
    }
    stack.stop();
    run
}

/// Lines in groups of [`GROUP`] distinct queries × [`REPEATS`], shuffled
/// within the group; every fourth-ish line (seeded) is the SQL form.
fn burst_sequence(pool: &[iam_data::RangeQuery], reference: &[f64], seed: u64) -> Vec<Burst> {
    let mut state = seed ^ 0x0B7_1412;
    let mut mix = || splitmix64(&mut state);
    let mut lines: Vec<usize> = Vec::with_capacity(pool.len() * REPEATS);
    for group in (0..pool.len()).collect::<Vec<_>>().chunks(GROUP) {
        let mut g: Vec<usize> = group.iter().flat_map(|&i| [i; REPEATS]).collect();
        for i in (1..g.len()).rev() {
            g.swap(i, (mix() % (i as u64 + 1)) as usize);
        }
        lines.extend(g);
    }
    lines
        .chunks(BURST)
        .map(|chunk| {
            let mut text = String::new();
            let mut expect = Vec::with_capacity(chunk.len());
            for &i in chunk {
                let want = format!("{:.6}", reference[i]);
                if mix().is_multiple_of(4) {
                    text.push_str("SQL ");
                    text.push_str(&inputs::to_sql(&pool[i], "wisdm"));
                    expect.push(Expect::Sql(want));
                } else {
                    text.push_str(&render_query(&pool[i]));
                    expect.push(Expect::Line(want));
                }
                text.push('\n');
            }
            Burst { text, expect }
        })
        .collect()
}

/// Per-second mean batch and cache hit ratio from exposition samples.
fn window_counts(samples: &[String]) -> (Vec<f64>, Vec<f64>) {
    samples
        .windows(2)
        .map(|w| {
            let d = |name: &str| prom_sum(&w[1], name) - prom_sum(&w[0], name);
            let batch = d("iam_serve_batch_size_sum") / d("iam_serve_batch_size_count").max(1.0);
            let (h, m) = (d("iam_serve_cache_hits_total"), d("iam_serve_cache_misses_total"));
            (batch, h / (h + m).max(1.0))
        })
        .unzip()
}

/// Interquartile range over median.
fn spread(v: &[f64]) -> f64 {
    let mut v = v.to_vec();
    v.sort_by(f64::total_cmp);
    (percentile(&v, 0.75) - percentile(&v, 0.25)) / percentile(&v, 0.5).max(1e-12)
}

/// One connection's closed loop and what it saw.
#[derive(Default)]
struct ConnLoop {
    attempted: u64,
    failed: u64,
    answered: u64,
    mismatch: Option<String>,
    latencies_us: Vec<f64>,
    busy_us: f64,
    first_us: Vec<f64>,
    gap_us: Vec<f64>,
    tracer: Tracer,
    split: WindowSplit,
}

impl ConnLoop {
    #[allow(clippy::too_many_arguments)]
    fn drive(
        &mut self,
        conn: &mut TcpStream,
        bursts: &[Burst],
        next: &AtomicUsize,
        answered: &AtomicU64,
        start: Instant,
        measure: Duration,
        trace: bool,
        mut after_burst: impl FnMut(usize),
    ) {
        let mut reader = BufReader::new(conn.try_clone().expect("clone stream"));
        let mut replies: Vec<String> = Vec::new();
        while start.elapsed() < measure {
            let b = next.fetch_add(1, Relaxed);
            let burst = &bursts[b % bursts.len()];
            let window = trace_window(start);
            let traced = trace && window % 2 == 1;
            if trace {
                set_program_spans(traced);
            }
            let t0 = Instant::now();
            if conn.write_all(burst.text.as_bytes()).is_err() {
                self.attempted += burst.expect.len() as u64;
                self.failed += burst.expect.len() as u64;
                return;
            }
            let written = Instant::now();
            let (mut first, mut prev, mut gap_max) = (None, written, Duration::ZERO);
            replies.resize_with(burst.expect.len(), String::new);
            let mut lost = 0;
            for (j, line) in replies.iter_mut().enumerate() {
                line.clear();
                if reader.read_line(line).map_or(true, |n| n == 0) {
                    lost = burst.expect.len() - j;
                    break;
                }
                let now = Instant::now();
                first.get_or_insert(now);
                if j > 0 {
                    gap_max = gap_max.max(now - prev);
                }
                prev = now;
            }
            let end = Instant::now();
            let first = first.unwrap_or(end);
            // the check runs after the burst, outside the request's time
            let got = burst.expect.len() - lost;
            let mut ok = 0;
            for (j, (want, line)) in burst.expect.iter().zip(&replies).take(got).enumerate() {
                self.attempted += 1;
                let reply = line.trim_end();
                if reply.starts_with("ERR") {
                    self.failed += 1;
                } else if want.matches(reply) {
                    ok += 1;
                    answered.fetch_add(1, Relaxed);
                } else if self.mismatch.is_none() {
                    self.mismatch = Some(format!("burst {b} line {j}: reply `{reply}`"));
                }
            }
            if lost > 0 {
                self.attempted += lost as u64;
                self.failed += lost as u64;
                return;
            }
            self.answered += ok;
            self.latencies_us.push((end - t0).as_secs_f64() * 1e6);
            self.busy_us += (end - t0).as_secs_f64() * 1e6;
            if trace {
                self.split.add(window, ok as usize, end - t0);
            }
            if traced {
                let req = self.tracer.record("request", None, t0, end);
                self.tracer.record("net.write", Some(req), t0, written);
                self.tracer.record("net.first_reply", Some(req), written, first);
                self.tracer.record("net.rest", Some(req), first, end);
                self.first_us.push((first - t0).as_secs_f64() * 1e6);
                self.gap_us.push(gap_max.as_secs_f64() * 1e6);
            }
            after_burst(b);
        }
    }
}
