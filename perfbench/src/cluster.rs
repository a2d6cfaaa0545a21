//! `cluster_scatter`: one caller thread runs `Coordinator::estimate_batch`
//! on 64-query batches over 3 in-process workers (loopback TCP,
//! `WorkerConfig::default()`), two tables with 2 replicas each. Batch slots
//! alternate tables, so every batch scatters to both table groups. The
//! pool is cycled in an order that never lets a worker cache hit.
//! Framing, socket writes and waits dominate; inference is a toy model's.

use crate::inputs::{self, cluster_cfg};
use crate::layers;
use crate::report::{prom_sum, set_program_spans, trace_window, Answers, Run, Tracer, WindowSplit};
use iam_core::IamEstimator;
use iam_data::synth::Dataset;
use iam_data::Table;
use iam_dist::{ClusterQuery, Coordinator, DistConfig, WorkerConfig, WorkerHandle};
use std::time::{Duration, Instant};

const ROWS: usize = 8_000;
const WORKERS: usize = 3;
const REPLICAS: usize = 2;
const BATCH: usize = 64;
/// Distinct queries per table. Replica rotation sends each replica every
/// other batch of a table, i.e. the same half of its pool every cycle:
/// 8192 keys, twice a worker's 4096-entry LRU cache, so no pass hits.
const PER_TABLE: usize = 16_384;
const SETUP_REPS: usize = 3;
/// `(table, dataset, model seed)`.
const TABLES: [(&str, Dataset, u64); 2] = [("wisdm", Dataset::Wisdm, 7), ("twi", Dataset::Twi, 11)];

/// Everything one set-up built; torn down by [`Cluster::stop`].
struct Cluster {
    workers: Vec<WorkerHandle>,
    coord: Coordinator,
}

impl Cluster {
    fn start(models: &mut [IamEstimator]) -> Cluster {
        let workers: Vec<WorkerHandle> = (0..WORKERS)
            .map(|_| WorkerHandle::spawn("127.0.0.1:0", WorkerConfig::default()).expect("bind"))
            .collect();
        let names: Vec<&str> = TABLES.iter().map(|t| t.0).collect();
        let coord = Coordinator::new(
            workers.iter().map(|w| w.addr).collect(),
            &names,
            DistConfig { replicas: REPLICAS, ..DistConfig::default() },
        );
        for (name, model) in names.iter().zip(models.iter_mut()) {
            for outcome in coord.deploy_model(name, model, "v1").expect("serialise snapshot") {
                outcome.result.expect("ship snapshot");
            }
        }
        // warm-up: open every connection with the unconstrained query
        // (never in the pool), once per replica rotation step
        let warm: Vec<ClusterQuery> = TABLES
            .iter()
            .zip(models.iter())
            .map(|(t, m)| ClusterQuery {
                table: t.0.into(),
                query: iam_data::RangeQuery::unconstrained(m.schema.handlers.len()),
            })
            .collect();
        for _ in 0..REPLICAS {
            for r in coord.estimate_batch(&warm) {
                r.expect("warm-up query");
            }
        }
        Cluster { workers, coord }
    }

    fn stop(self) {
        self.coord.shutdown_cluster();
        for w in self.workers {
            w.stop();
        }
    }
}

pub fn run(seed: u64, measure: Duration, trace: bool) -> Run {
    let tables: Vec<Table> = TABLES.iter().map(|t| inputs::table(t.1, ROWS)).collect();
    let per_table: Vec<Vec<iam_data::RangeQuery>> = tables
        .iter()
        .enumerate()
        .map(|(i, t)| inputs::query_pool(t, PER_TABLE, seed ^ ((i as u64 + 1) << 40)))
        .collect();
    // batch slots alternate tables
    let pool: Vec<ClusterQuery> = (0..PER_TABLE)
        .flat_map(|k| {
            TABLES
                .iter()
                .zip(&per_table)
                .map(move |(t, qs)| ClusterQuery { table: t.0.into(), query: qs[k].clone() })
        })
        .collect();
    let mut run = Run { pool: pool.len(), ..Run::default() };

    // set-up: training, workers, coordinator, snapshot shipping, warm-up
    let mut built: Option<(Cluster, Vec<IamEstimator>)> = None;
    for _ in 0..SETUP_REPS {
        if let Some((cluster, _)) = built.take() {
            cluster.stop();
        }
        let t = Instant::now();
        let mut models: Vec<IamEstimator> = TABLES
            .iter()
            .zip(&tables)
            .map(|(spec, table)| inputs::fit_timed(table, cluster_cfg(spec.2)).0)
            .collect();
        let cluster = Cluster::start(&mut models);
        run.setup_s.push(t.elapsed().as_secs_f64());
        built = Some((cluster, models));
    }
    let (cluster, mut models) = built.expect("at least one set-up");
    for ((spec, _), model) in TABLES.iter().zip(&tables).zip(models.iter_mut()) {
        run.models.push(inputs::stamp(spec.0, ROWS, model));
    }

    // untimed: single-process reference answers (cluster answers must
    // match them bit for bit) and exact truths
    let per_ref: Vec<Vec<f64>> =
        models.iter().zip(&per_table).map(|(m, qs)| inputs::reference(m, qs)).collect();
    let reference: Vec<f64> =
        (0..PER_TABLE).flat_map(|k| per_ref.iter().map(move |r| r[k])).collect();
    let per_truth: Vec<Vec<f64>> =
        tables.iter().zip(&per_table).map(|(t, qs)| inputs::truths(t, qs)).collect();
    let truth: Vec<f64> =
        (0..PER_TABLE).flat_map(|k| per_truth.iter().map(move |t| t[k])).collect();
    run.score(&truth, &reference, ROWS);
    let answers = Answers::new(&reference);

    let coord = &cluster.coord;
    let before = coord.cluster_prometheus();
    iam_obs::span::reset();
    let mut tracer = Tracer::default();
    let mut split = WindowSplit::default();
    let start = Instant::now();
    run.windows.start(start);
    let mut at = 0;
    while start.elapsed() < measure {
        let window = trace_window(start);
        let traced = trace && window % 2 == 1;
        if trace {
            set_program_spans(traced);
        }
        let t0 = Instant::now();
        let got = coord.estimate_batch(&pool[at..at + BATCH]);
        let t1 = Instant::now();
        let values: Vec<f64> = got.iter().map(|r| *r.as_ref().unwrap_or(&f64::NAN)).collect();
        let ok = answers.check(&mut run, at, &values);
        run.answered += ok as u64;
        run.latencies_us.push(t1.duration_since(t0).as_secs_f64() * 1e6);
        if trace {
            split.add(window, ok, t1.duration_since(t0));
        }
        if traced {
            tracer.record("request", None, t0, t1);
        }
        run.windows.tick(run.answered);
        at = (at + BATCH) % pool.len();
    }
    run.windows.finish(run.answered);
    set_program_spans(false);

    if trace {
        tracer.dump();
        let after = coord.cluster_prometheus();
        let d = |name: &str| prom_sum(&after, name) - prom_sum(&before, name);
        let (hits, misses) = (d("iam_serve_cache_hits_total"), d("iam_serve_cache_misses_total"));
        run.set("cache.hit_ratio", hits / (hits + misses).max(1.0));
        run.set(
            "serve.mean_batch",
            d("iam_serve_batch_size_sum") / d("iam_serve_batch_size_count").max(1.0),
        );
        run.set("serve.timeouts", d("iam_serve_timeouts_total"));
        run.set("serve.overloaded", d("iam_serve_rejected_overloaded_total"));

        // the coordinator's own dist.* spans, recorded in traced windows
        let stage = |leaf: &str| -> (f64, f64) {
            iam_obs::span::report()
                .iter()
                .filter(|(path, _)| path.rsplit(';').next() == Some(leaf))
                .fold((0.0, 0.0), |(n, us), (_, a)| (n + a.count as f64, us + a.total_us as f64))
        };
        let (batches, _) = stage("dist.scatter_gather");
        let (rpcs, rpc_us) = stage("dist.rpc");
        let (parts, part_us) = stage("dist.partition");
        let (merges, merge_us) = stage("dist.merge");
        let per_batch = rpcs / batches.max(1.0);
        run.set("dist.rpc_us_per_call", rpc_us / rpcs.max(1.0));
        run.set("dist.rpc_calls_per_batch", per_batch);
        run.set("dist.partition_us", part_us / parts.max(1.0));
        run.set("dist.merge_us", merge_us / merges.max(1.0));
        // table groups are scattered in parallel: a batch waits for its
        // mean RPC; thread fan-out and the straggler's excess stay
        // unattributed
        let covered = part_us + merge_us + rpc_us / per_batch.max(1.0);
        let req = tracer.total_us("request");
        run.set("unattributed_pct", 100.0 * (1.0 - covered / req.max(1e-9)));
        run.set("obs.overhead_pct", split.overhead_pct());
        layers::persist(&mut run, &models[0]);
        layers::proto(&mut run, TABLES[0].0, &per_table[0]);
    }
    cluster.stop();
    run
}
