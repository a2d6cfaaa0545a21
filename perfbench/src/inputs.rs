//! Seeded inputs: fixed synthetic tables, per-seed query pools with exact
//! truths, the model shapes each workload serves, and a timed fit.

use crate::report::ModelStamp;
use iam_core::{IamConfig, IamEstimator};
use iam_data::exec::exact_selectivity_ranges;
use iam_data::synth::Dataset;
use iam_data::{RangeQuery, Table, WorkloadConfig, WorkloadGenerator};
use std::collections::HashSet;
use std::time::Instant;

/// Tables are fixed across seeds (the seed picks the queries), so the
/// served models — and the cost of a query mix — do not drift with it.
const DATA_SEED: u64 = 42;

pub fn table(ds: Dataset, rows: usize) -> Table {
    ds.generate(rows, DATA_SEED)
}

/// `n` distinct (by canonical key) normalised queries drawn with the
/// paper's workload generator (§6.1.3) from `seed`.
pub fn query_pool(table: &Table, n: usize, seed: u64) -> Vec<RangeQuery> {
    let mut gen = WorkloadGenerator::new(table, WorkloadConfig::default(), seed);
    let mut seen = HashSet::with_capacity(n);
    let mut out = Vec::with_capacity(n);
    for _ in 0..n * 100 {
        if out.len() == n {
            break;
        }
        let q = gen.gen_query().normalize(table.ncols()).expect("generated query normalises").0;
        if seen.insert(q.canonical_key()) {
            out.push(q);
        }
    }
    assert_eq!(out.len(), n, "{} cannot supply {n} distinct queries", table.name);
    out
}

/// Exact selectivities by the data crate's scan (set-up, untimed), on
/// two threads.
pub fn truths(table: &Table, queries: &[RangeQuery]) -> Vec<f64> {
    let half = queries.len().div_ceil(2).max(1);
    std::thread::scope(|s| {
        let parts: Vec<_> = queries
            .chunks(half)
            .map(|c| {
                s.spawn(move || {
                    c.iter().map(|q| exact_selectivity_ranges(table, q)).collect::<Vec<_>>()
                })
            })
            .collect();
        parts.into_iter().flat_map(|h| h.join().expect("truth scan thread")).collect()
    })
}

/// Reference answers from in-process `estimate_batch_shared` in batches
/// of 8: another batch composition than any workload's, which answers must
/// not depend on. One thread, so the pass adds no second malloc arena to
/// the peak RSS the workload reports.
pub fn reference(model: &IamEstimator, queries: &[RangeQuery]) -> Vec<f64> {
    queries.chunks(8).flat_map(|c| model.estimate_batch_shared(c, 1)).collect()
}

/// `SELECT COUNT(*)` text for a generated query. Generated predicates are
/// `=`, `<=` or `>=` (closed bounds); `{}` prints every f64 so that it
/// parses back to the same bits, so the statement lowers to the same
/// canonical query as the line form.
pub fn to_sql(q: &RangeQuery, table: &str) -> String {
    let conds: Vec<String> = q
        .cols
        .iter()
        .enumerate()
        .filter_map(|(c, iv)| iv.map(|iv| (c, iv)))
        .map(|(c, iv)| {
            assert!(!iv.lo_strict && !iv.hi_strict, "generated bounds are closed");
            if iv.lo == iv.hi {
                format!("c{c} = {}", iv.lo)
            } else if iv.lo == f64::NEG_INFINITY {
                format!("c{c} <= {}", iv.hi)
            } else if iv.hi == f64::INFINITY {
                format!("c{c} >= {}", iv.lo)
            } else {
                format!("c{c} BETWEEN {} AND {}", iv.lo, iv.hi)
            }
        })
        .collect();
    if conds.is_empty() {
        format!("SELECT COUNT(*) FROM {table}")
    } else {
        format!("SELECT COUNT(*) FROM {table} WHERE {}", conds.join(" AND "))
    }
}

/// The paper's model shape (§6.1.4): ResMADE 256/128/128/256, 30 GMM
/// components, embedding 16.
pub fn paper_cfg() -> IamConfig {
    IamConfig {
        components: 30,
        hidden: vec![256, 128, 128, 256],
        embed_dim: 16,
        factorize_threshold: 256,
        samples: 256,
        epochs: 2,
        seed: 7,
        ..IamConfig::default()
    }
}

/// The 48×48 toy model every repository bench serves.
pub fn toy_cfg() -> IamConfig {
    IamConfig {
        components: 8,
        hidden: vec![48, 48],
        embed_dim: 8,
        epochs: 2,
        samples: 200,
        seed: 7,
        ..IamConfig::small()
    }
}

/// The per-table cluster model of the repository's cluster bench.
pub fn cluster_cfg(seed: u64) -> IamConfig {
    IamConfig {
        components: 6,
        hidden: vec![32, 32],
        embed_dim: 6,
        epochs: 1,
        samples: 100,
        seed,
        ..IamConfig::small()
    }
}

/// Timings of one model fit (the `train.*` layer metrics).
#[derive(Default, Clone, Copy)]
pub struct FitTimes {
    pub reduce_fit_s: f64,
    pub epoch_s: f64,
    pub rows_per_s: f64,
    pub prepare_inference_ms: f64,
}

/// `IamEstimator::build` + one `train_epochs(1)` per configured epoch +
/// an explicit `prepare_inference`, each timed.
pub fn fit_timed(table: &Table, cfg: IamConfig) -> (IamEstimator, FitTimes) {
    let epochs = cfg.epochs.max(1);
    let t = Instant::now();
    let mut est = IamEstimator::build(table, cfg);
    let reduce_fit_s = t.elapsed().as_secs_f64();
    let t = Instant::now();
    for _ in 0..epochs {
        est.train_epochs(table, 1);
    }
    let epoch_s = t.elapsed().as_secs_f64() / epochs as f64;
    let t = Instant::now();
    est.prepare_inference();
    let prepare_inference_ms = t.elapsed().as_secs_f64() * 1e3;
    let times = FitTimes {
        reduce_fit_s,
        epoch_s,
        rows_per_s: table.nrows() as f64 / epoch_s.max(1e-9),
        prepare_inference_ms,
    };
    (est, times)
}

/// Median of each field over set-up repetitions.
pub fn median_times(all: &[FitTimes]) -> FitTimes {
    let m = |f: fn(&FitTimes) -> f64| crate::report::median(&all.iter().map(f).collect::<Vec<_>>());
    FitTimes {
        reduce_fit_s: m(|t| t.reduce_fit_s),
        epoch_s: m(|t| t.epoch_s),
        rows_per_s: m(|t| t.rows_per_s),
        prepare_inference_ms: m(|t| t.prepare_inference_ms),
    }
}

pub fn stamp(table: &'static str, rows: usize, model: &mut IamEstimator) -> ModelStamp {
    let mut snapshot = Vec::new();
    model.save(&mut snapshot).expect("snapshot serialises");
    let cfg = model.config().clone();
    let fused_table_bytes = model.net_mut().build_fused_tables().size_bytes();
    model.prepare_inference();
    ModelStamp {
        table,
        rows,
        hidden: cfg.hidden,
        components: cfg.components,
        embed_dim: cfg.embed_dim,
        samples: cfg.samples,
        params: model.num_params(),
        fused_table_bytes,
        snapshot_bytes: snapshot.len(),
    }
}
