//! Seeded end-to-end and per-layer benchmark of the IAM estimation stack.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload paper_inproc --seed 1 --seconds 20 --trace 0
//! ```
//!
//! Three workloads each load a different layer stack (see `BENCHMARK.json`
//! and `perfbench/predictions.json` for why each exists and which layer metric
//! should move which end-to-end metric):
//!
//! * `paper_inproc` — in-process `estimate_batch_shared` on a paper-size
//!   model (core / nn / gmm);
//! * `optimizer_tcp` — pipelined bursts over the serve TCP line protocol
//!   with SQL lines, cache hits and model reloads (serve / sql / registry);
//! * `cluster_scatter` — coordinator → worker scatter/gather over loopback
//!   TCP (dist / proto).
//!
//! `--trace 0` prints every end-to-end metric; `--trace 1` prints every
//! per-layer metric, taken from spans the benchmark records around its own
//! calls into each crate plus counters the program already exports. Every
//! answer is checked against an in-process reference; a mismatch prints
//! `"correct": false` and exits non-zero. The last stdout line is the
//! result object; the line before it stamps the host, inputs and models.

mod cluster;
mod inproc;
mod inputs;
mod layers;
mod report;
mod sys;
mod tcp;

use report::{Metrics, Run};
use std::process::ExitCode;
use std::time::Duration;

/// Command-line arguments (all required).
struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut it = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let num = || value.parse::<u64>().map_err(|e| format!("{flag} {value}: {e}"));
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(num()?),
            "--seconds" => seconds = Some(num()?),
            "--trace" => trace = Some(num()? != 0),
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?.max(1),
        trace: trace.ok_or("--trace is required")?,
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload <paper_inproc|optimizer_tcp|cluster_scatter> \
                 --seed <n> --seconds <n> --trace <0|1>"
            );
            return ExitCode::from(2);
        }
    };
    let measure = Duration::from_secs(args.seconds);
    let run: Run = match args.workload.as_str() {
        "paper_inproc" => inproc::run(args.seed, measure, args.trace),
        "optimizer_tcp" => tcp::run(args.seed, measure, args.trace),
        "cluster_scatter" => cluster::run(args.seed, measure, args.trace),
        other => {
            eprintln!("perfbench: unknown workload {other}");
            return ExitCode::from(2);
        }
    };
    let metrics: Metrics = if args.trace { run.layer_metrics() } else { run.end_to_end_metrics() };
    let series: Vec<String> = run.windows.qps().iter().map(|q| format!("{q:.0}")).collect();
    eprintln!("qps per one-second window: {}", series.join(" "));
    println!("{}", run.stamp_json(&args.workload, args.seed, args.seconds, args.trace));
    println!("{}", run.result_json(&metrics));
    if run.correct() {
        ExitCode::SUCCESS
    } else {
        eprintln!("perfbench: answer mismatch: {}", run.mismatch.as_deref().unwrap_or("?"));
        ExitCode::FAILURE
    }
}
