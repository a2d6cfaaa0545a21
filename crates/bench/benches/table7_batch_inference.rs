//! Batch-inference throughput: queries/second and ms/query as the batch
//! size grows.
//!
//! Trains one IAM model on WISDM-like sensor data, then answers the same
//! query pool through `estimate_batch_shared` in chunks of 1/16/64/256
//! queries per call. Larger chunks amortise per-call overhead and give the
//! prefix deduplication more identical all-MASK prefixes to collapse. Every
//! estimate is a pure function of (model, query), so the bench first checks
//! that the whole pool answered in one batch matches it answered query by
//! query, bit for bit.
//!
//! Results go to `BENCH_inference.json` at the repository root.
//!
//! Environment knobs:
//! - `IAM_BENCH_INFER_REQUESTS` — queries per configuration, default 1024.

use iam_core::{IamConfig, IamEstimator};
use iam_data::synth::Dataset;
use iam_data::{RangeQuery, WorkloadConfig, WorkloadGenerator};
use std::time::Instant;

fn env_usize(key: &str, default: usize) -> usize {
    std::env::var(key).ok().and_then(|v| v.parse().ok()).unwrap_or(default)
}

/// One batch size's measurements.
struct Row {
    batch: usize,
    qps: f64,
    ms_per_query: f64,
}

fn run_config(est: &IamEstimator, pool: &[RangeQuery], requests: usize, batch: usize) -> f64 {
    let t0 = Instant::now();
    let mut done = 0;
    while done < requests {
        let take = batch.min(requests - done);
        let chunk: Vec<RangeQuery> =
            (0..take).map(|i| pool[(done + i) % pool.len()].clone()).collect();
        std::hint::black_box(est.estimate_batch_shared(&chunk, 1));
        done += take;
    }
    t0.elapsed().as_secs_f64()
}

fn write_json(rows: &[Row], requests: usize) {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_inference.json");
    // honesty metadata: numbers are only comparable across hosts with the
    // same parallelism
    let host_parallelism = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1);
    let mut s = String::from("{\n");
    s.push_str(&format!("  \"host_parallelism\": {host_parallelism},\n"));
    s.push_str(&format!("  \"requests_per_config\": {requests},\n"));
    s.push_str("  \"configs\": [\n");
    for (i, r) in rows.iter().enumerate() {
        s.push_str(&format!(
            "    {{\"batch\": {}, \"qps\": {:.1}, \"ms_per_query\": {:.4}}}{}\n",
            r.batch,
            r.qps,
            r.ms_per_query,
            if i + 1 < rows.len() { "," } else { "" }
        ));
    }
    s.push_str("  ]\n}\n");
    match std::fs::write(path, &s) {
        Ok(()) => eprintln!("[table7_batch_inference] wrote {path}"),
        Err(e) => eprintln!("[table7_batch_inference] could not write {path}: {e}"),
    }
}

fn main() {
    let requests = env_usize("IAM_BENCH_INFER_REQUESTS", 1024);

    let table = Dataset::Wisdm.generate(20_000, 42);
    let ncols = table.ncols();
    println!("training IAM on {} ({} rows) …", Dataset::Wisdm.name(), table.nrows());
    let cfg = IamConfig {
        components: 8,
        hidden: vec![48, 48],
        embed_dim: 8,
        epochs: 2,
        samples: 200,
        seed: 7,
        ..IamConfig::small()
    };
    let est = IamEstimator::fit(&table, cfg);

    let mut gen = WorkloadGenerator::new(&table, WorkloadConfig::default(), 99);
    let pool: Vec<RangeQuery> =
        gen.gen_queries(256).iter().map(|q| q.normalize(ncols).unwrap().0).collect();

    // batch composition must never change a single bit of any estimate
    let batched = est.estimate_batch_shared(&pool, 1);
    for (i, (q, b)) in pool.iter().zip(&batched).enumerate() {
        let single = est.estimate_batch_shared(std::slice::from_ref(q), 1)[0];
        assert_eq!(single.to_bits(), b.to_bits(), "batching changed estimate {i}");
    }

    // warm-up pass so page faults / buffer growth don't bias the first row
    let _ = run_config(&est, &pool, requests.min(256), 64);

    println!("\nbatch inference — {requests} queries per config, single thread");
    println!("{:<8}  {:>10}  {:>12}", "batch", "q/s", "ms/query");
    let mut rows = Vec::new();
    for &batch in &[1usize, 16, 64, 256] {
        let secs = run_config(&est, &pool, requests, batch);
        let qps = requests as f64 / secs;
        let ms = secs * 1000.0 / requests as f64;
        println!("{:<8}  {:>10.1}  {:>12.4}", batch, qps, ms);
        rows.push(Row { batch, qps, ms_per_query: ms });
    }
    write_json(&rows, requests);
}
