//! Fixed-work layer probes of a traced run, taken after the measured
//! window while the system is idle. Each calls one crate's public entry
//! point on the workload's own model and queries; a workload runs only the
//! probes of the layers it exercises. The work is fixed by the seed, so the
//! counts they read (`infer.forward_rows_per_query`,
//! `proto.writes_per_frame`, …) repeat exactly across runs of one seed.

use crate::inputs::{to_sql, FitTimes};
use crate::report::Run;
use iam_core::reduce::DomainReducer;
use iam_core::{ColumnHandler, IamEstimator};
use iam_data::{RangeQuery, Table};
use iam_dist::proto::{write_request, Frame, Msg};
use iam_obs::Registry;
use std::hint::black_box;
use std::io::Write;
use std::time::{Duration, Instant};

/// Each timing probe repeats its fixed work until at least this long.
const PROBE_TIME: Duration = Duration::from_millis(250);

/// Queries the infer probe answers (16 per call, one thread).
const INFER_PROBE_QUERIES: usize = 256;

/// Rows per forward call in the nn probe.
const NN_ROWS: usize = 64;

/// Queries per `EstimateBatch` frame in the proto probe (the cluster
/// workload's batch size).
const FRAME_QUERIES: usize = 64;

/// Repeat `pass` (which does `units` units of work) until [`PROBE_TIME`]
/// has passed; ns per unit.
fn ns_per_unit(units: usize, mut pass: impl FnMut()) -> f64 {
    let t = Instant::now();
    let mut passes = 0u64;
    while passes == 0 || t.elapsed() < PROBE_TIME {
        pass();
        passes += 1;
    }
    t.elapsed().as_nanos() as f64 / (passes as f64 * units.max(1) as f64)
}

fn counter(name: &str) -> u64 {
    Registry::global().counter(name, &[]).get()
}

pub fn record_fit(run: &mut Run, t: &FitTimes) {
    run.set("train.reduce_fit_s", t.reduce_fit_s);
    run.set("train.epoch_s", t.epoch_s);
    run.set("train.rows_per_s", t.rows_per_s);
    run.set("train.prepare_inference_ms", t.prepare_inference_ms);
}

pub fn plan(run: &mut Run, model: &IamEstimator, pool: &[RangeQuery]) {
    let qs = &pool[..pool.len().min(1024)];
    let ns = ns_per_unit(qs.len(), || {
        for q in qs {
            black_box(model.schema.query_plan(black_box(q)));
        }
    });
    run.set("plan.ns_per_query", ns);
}

/// `estimate_batch_shared` over a fixed query set, plus the deltas of the
/// `iam_infer_*` counters it moved. The pass runs twice: its counts are a
/// pure function of model and queries, so they must repeat exactly.
pub fn infer(run: &mut Run, model: &IamEstimator, pool: &[RangeQuery]) {
    let qs = &pool[..pool.len().min(INFER_PROBE_QUERIES)];
    let names = [
        "iam_infer_forward_rows_total",
        "iam_infer_dedup_hits_total",
        "iam_infer_samples_total",
        "iam_infer_dead_samples_total",
    ];
    let pass = || {
        let before: Vec<u64> = names.iter().map(|n| counter(n)).collect();
        let t = Instant::now();
        for chunk in qs.chunks(16) {
            black_box(model.estimate_batch_shared(chunk, 1));
        }
        let us = t.elapsed().as_secs_f64() * 1e6 / qs.len() as f64;
        let counts: Vec<u64> = names.iter().zip(&before).map(|(n, b)| counter(n) - b).collect();
        (us, counts)
    };
    let (us1, d) = pass();
    let (us2, again) = pass();
    if d != again {
        run.record_mismatch(format!(
            "infer counts differ between identical passes: {d:?} vs {again:?}"
        ));
    }
    let d: Vec<f64> = d.iter().map(|&c| c as f64).collect();
    let n = qs.len() as f64;
    run.set("infer.us_per_query", us1.min(us2));
    run.set("infer.forward_rows_per_query", d[0] / n);
    run.set("infer.dedup_hits_per_query", d[1] / n);
    run.set("infer.live_sample_ratio", if d[2] > 0.0 { 1.0 - d[3] / d[2] } else { 0.0 });
}

/// `forward_column_fused` and `column_softmax` on sampled-looking rows:
/// real tokens before the predicted slot, MASK from it on.
pub fn nn(run: &mut Run, model: &IamEstimator, table: &Table) {
    let mut m = model.clone();
    let schema = m.schema.clone();
    let net = m.net_mut();
    let tables = net.build_fused_tables();
    run.set("infer.table_bytes", tables.size_bytes() as f64);
    let nslots = net.ncols();
    let step = (table.nrows() / NN_ROWS).max(1);
    let (mut row, mut tokens, mut full) = (Vec::new(), Vec::new(), Vec::new());
    for r in (0..table.nrows()).step_by(step).take(NN_ROWS) {
        table.row_as_f64(r, &mut row);
        schema.encode_row(&row, &mut tokens);
        full.extend_from_slice(&tokens);
    }
    let rows = full.len() / nslots;
    let masked: Vec<Vec<usize>> = (0..nslots)
        .map(|col| {
            let mut inp = full.clone();
            for r in 0..rows {
                for s in col..nslots {
                    inp[r * nslots + s] = net.mask_token(s);
                }
            }
            inp
        })
        .collect();
    let mut scratch = iam_nn::InferScratch::new();
    let mut out = Vec::new();
    let ns = ns_per_unit(rows * nslots, || {
        for (col, inp) in masked.iter().enumerate() {
            net.forward_column_fused(&tables, &mut scratch, inp, rows, col, &mut out);
            black_box(&out);
        }
    });
    run.set("nn.fused_forward_ns_per_row", ns);

    let mut logits = Vec::new();
    net.forward(&full, rows, false, &mut logits);
    let mut probs = Vec::new();
    let ns = ns_per_unit(rows * nslots, || {
        for b in 0..rows {
            for col in 0..nslots {
                net.column_softmax(&logits, b, col, &mut probs);
                black_box(&probs);
            }
        }
    });
    run.set("nn.softmax_ns_per_row", ns);
}

/// Per-component range mass (`P̂_GMM(R)`, the CDF prefix tables) for every
/// reduced-column interval of the pool.
pub fn gmm(run: &mut Run, model: &IamEstimator, pool: &[RangeQuery]) {
    let calls: Vec<(&dyn DomainReducer, iam_data::Interval)> = pool
        .iter()
        .take(1024)
        .flat_map(|q| {
            model.schema.handlers.iter().zip(&q.cols).filter_map(|(h, iv)| match (h, iv) {
                (ColumnHandler::Reduced(r), Some(iv)) => Some((r.as_ref(), *iv)),
                _ => None,
            })
        })
        .collect();
    if calls.is_empty() {
        return;
    }
    let mut w = Vec::new();
    let ns = ns_per_unit(calls.len(), || {
        for (r, iv) in &calls {
            r.range_mass(iv, &mut w);
            black_box(&w);
        }
    });
    run.set("gmm.mass_ns_per_call", ns);
}

/// Save and load timings; every save of one model must give the same bytes.
pub fn persist(run: &mut Run, model: &IamEstimator) {
    let mut m = model.clone();
    let mut saves: Vec<Vec<u8>> = Vec::new();
    let save_s = crate::report::time_median(3, || {
        let mut b = Vec::new();
        m.save(&mut b).expect("snapshot serialises");
        saves.push(b);
    });
    if saves.windows(2).any(|w| w[0] != w[1]) {
        run.record_mismatch("saving one model twice gave different snapshots".into());
    }
    let bytes = &saves[0];
    let load_s = crate::report::time_median(3, || {
        black_box(IamEstimator::load(&mut bytes.as_slice()).expect("snapshot loads"));
    });
    run.set("persist.save_ms", save_s * 1e3);
    run.set("persist.load_ms", load_s * 1e3);
    run.set("persist.snapshot_bytes", bytes.len() as f64);
}

/// `iam_sql::parse` + `lower_single_table` on the pool's statements; every
/// lowering must land on the query's own canonical key.
pub fn sql(run: &mut Run, table: &str, pool: &[RangeQuery]) {
    let qs = &pool[..pool.len().min(1024)];
    let stmts: Vec<String> = qs.iter().map(|q| to_sql(q, table)).collect();
    let ncols = qs.first().map_or(0, |q| q.cols.len());
    let lower = |s: &str| -> Option<RangeQuery> {
        match iam_sql::parse(s).ok()? {
            iam_sql::Statement::Select(sel) => iam_sql::lower_single_table(&sel, ncols).ok(),
            iam_sql::Statement::Explain(_) => None,
        }
    };
    for (q, s) in qs.iter().zip(&stmts) {
        if lower(s).map(|l| l.canonical_key()) != Some(q.canonical_key()) {
            run.record_mismatch(format!("SQL `{s}` does not lower to its query"));
            return;
        }
    }
    let ns = ns_per_unit(stmts.len(), || {
        for s in &stmts {
            black_box(lower(black_box(s)));
        }
    });
    run.set("sql.parse_lower_ns", ns);
}

/// Counts `write` calls and bytes.
#[derive(Default)]
struct CountingWriter {
    writes: u64,
    bytes: Vec<u8>,
}

impl Write for CountingWriter {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        self.writes += 1;
        self.bytes.extend_from_slice(buf);
        Ok(buf.len())
    }

    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

/// One representative `EstimateBatch` request through `write_request`
/// (writes per frame is the Nagle signature), and its codec cost.
pub fn proto(run: &mut Run, table: &str, pool: &[RangeQuery]) {
    let queries = pool[..pool.len().min(FRAME_QUERIES)].to_vec();
    let n = queries.len();
    let msg = Msg::EstimateBatch { table: table.to_string(), queries };
    let mut w = CountingWriter::default();
    write_request(&mut w, &msg, None).expect("in-memory write");
    run.set("proto.writes_per_frame", w.writes as f64);
    run.set("proto.request_bytes_per_query", w.bytes.len() as f64 / n as f64);

    let frame = Frame::from(msg);
    let payload = frame.encode();
    match Frame::decode(&payload) {
        Ok(back) if back == frame => {}
        _ => {
            run.record_mismatch("EstimateBatch frame does not round-trip".into());
            return;
        }
    }
    run.set("proto.encode_ns_per_query", ns_per_unit(n, || drop(black_box(frame.encode()))));
    run.set(
        "proto.decode_ns_per_query",
        ns_per_unit(n, || drop(black_box(Frame::decode(black_box(&payload))))),
    );
}
