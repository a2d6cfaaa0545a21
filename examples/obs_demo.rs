//! Observability demo: train a small IAM model with full instrumentation
//! on, estimate a workload, and dump every signal `iam-obs` collects:
//!
//! - `target/obs/trace.jsonl` — the run's span records, one
//!   `{"event":"span",…}` line per `train.*` / `infer.*` span with its
//!   trace id, parent link and duration.
//! - `target/obs/metrics.prom` — Prometheus text exposition of the global
//!   registry (training/inference counters, histograms, span timings).
//! - `target/obs/spans.folded` — folded stacks for `flamegraph.pl` or
//!   speedscope.
//!
//! ```sh
//! cargo run --release --example obs_demo
//! ```
//!
//! The demo ends by cross-checking the three outputs against each other:
//! span records, the Prometheus dump, and the span aggregate must all tell
//! the same story.

use iam_core::{IamConfig, IamEstimator};
use iam_data::synth::Dataset;
use iam_data::{SelectivityEstimator, WorkloadConfig, WorkloadGenerator};
use iam_obs::tracetree::{self, TraceCtx, TraceIdGen};

const EPOCHS: usize = 3;
const QUERIES: usize = 16;
const SAMPLES: usize = 256;

fn main() {
    let out = std::path::Path::new("target/obs");
    std::fs::create_dir_all(out).expect("create target/obs");
    iam_obs::span::enable();
    tracetree::enable();
    let trace_ctx = tracetree::install(TraceCtx::root(TraceIdGen::new(42).next_trace_id()));

    let table = Dataset::Twi.generate(10_000, 42);
    let cfg = IamConfig { epochs: EPOCHS, samples: SAMPLES, ..IamConfig::small() };
    let mut iam = IamEstimator::fit(&table, cfg);

    let mut gen = WorkloadGenerator::new(&table, WorkloadConfig::default(), 7);
    for q in gen.gen_queries(QUERIES) {
        let (rq, _) = q.normalize(table.ncols()).expect("valid query");
        let _ = iam.estimate(&rq);
    }

    drop(trace_ctx);
    let records = tracetree::drain();
    std::fs::write(out.join("trace.jsonl"), tracetree::to_jsonl(&records))
        .expect("write trace.jsonl");
    let prom = iam_obs::Registry::global().render_prometheus();
    std::fs::write(out.join("metrics.prom"), &prom).expect("write metrics.prom");
    std::fs::write(out.join("spans.folded"), iam_obs::span::folded_stacks())
        .expect("write spans.folded");

    // cross-check: the span records, the Prometheus dump, and the span
    // aggregate must agree on how many epochs ran, how many queries were
    // estimated, and how long training took
    let epoch_spans: Vec<_> = records.iter().filter(|r| r.name == "train.epoch").collect();
    let query_spans = records.iter().filter(|r| r.name == "infer.progressive_sample").count();
    assert_eq!(epoch_spans.len(), EPOCHS, "one train.epoch span per epoch");
    assert_eq!(query_spans, QUERIES, "one infer.progressive_sample span per estimate");

    let prom_sample = |series: &str| -> u64 {
        prom.lines()
            .find_map(|l| l.strip_prefix(series).and_then(|r| r.strip_prefix(' ')))
            .unwrap_or_else(|| panic!("{series} missing from metrics.prom"))
            .parse()
            .expect("integer sample")
    };
    assert_eq!(prom_sample("iam_train_epochs_total") as usize, EPOCHS);
    assert_eq!(prom_sample("iam_infer_queries_total") as usize, QUERIES);
    assert_eq!(prom_sample("iam_infer_samples_total") as usize, QUERIES * SAMPLES);
    assert_eq!(prom_sample("iam_span_calls_total{span=\"train.epoch\"}") as usize, EPOCHS);
    assert_eq!(prom_sample("iam_trace_records_dropped_total"), 0, "trace buffer overflowed");

    let epoch_us: u64 = epoch_spans.iter().map(|r| r.dur_us).sum();
    let agg = iam_obs::span::report();
    let epoch_agg = agg.iter().find(|(path, _)| path == "train.epoch").expect("train.epoch span");
    assert_eq!(epoch_agg.1.total_us, epoch_us, "records and aggregate time the same epochs");
    assert_eq!(prom_sample("iam_span_us_total{span=\"train.epoch\"}"), epoch_us);

    println!("wrote {}/trace.jsonl ({} span records)", out.display(), records.len());
    println!("wrote {}/metrics.prom ({} samples)", out.display(), prom.lines().count());
    println!("epochs traced: {}, queries traced: {query_spans}", epoch_spans.len());
    println!("per-phase wall time:");
    for (path, agg) in agg {
        println!("  {:>10}µs total {:>6} calls  {}", agg.total_us, agg.count, path);
    }
    println!("all expositions consistent ✓");
}
