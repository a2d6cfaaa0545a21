//! `paper_inproc`: one caller thread, closed loop of
//! `estimate_batch_shared(16 distinct queries, threads = 1)` on a
//! paper-size model. Inference-bound: nn forwards, sampling and GMM range
//! mass do the work; serve, dist and every cache do none.

use crate::inputs::{self, paper_cfg};
use crate::layers;
use crate::report::{set_program_spans, trace_window, Answers, Run, Tracer, WindowSplit};
use iam_data::synth::Dataset;
use iam_data::RangeQuery;
use std::hint::black_box;
use std::time::{Duration, Instant};

const ROWS: usize = 20_000;
const BATCH: usize = 16;
/// Distinct queries, all scored; the loop walks them from the front and
/// wraps (the in-process path has no result cache, so a later pass costs
/// what the first did). Enough of them that `qerror_p99` stays steady
/// across seeds.
const POOL: usize = 16_384;
const SETUP_REPS: usize = 3;
/// One inference thread: `threads = 2` spread 1.3k–2.1k q/s between
/// back-to-back runs on a 2-core host, `threads = 1` stayed within ±4%.
const THREADS: usize = 1;

pub fn run(seed: u64, measure: Duration, trace: bool) -> Run {
    let table = inputs::table(Dataset::Wisdm, ROWS);
    let pool = inputs::query_pool(&table, POOL, seed);
    let warm = inputs::query_pool(&table, BATCH, seed ^ 0x57A2);
    let mut run = Run { pool: POOL, ..Run::default() };

    // set-up: reducer fit, training, prepare_inference, warm-up
    let mut fits = Vec::new();
    let mut model = None;
    for _ in 0..SETUP_REPS {
        drop(model.take());
        let t = Instant::now();
        let (m, times) = inputs::fit_timed(&table, paper_cfg());
        black_box(m.estimate_batch_shared(&warm, THREADS));
        run.setup_s.push(t.elapsed().as_secs_f64());
        fits.push(times);
        model = Some(m);
    }
    let mut model = model.expect("at least one set-up");
    run.models.push(inputs::stamp("wisdm", ROWS, &mut model));

    // untimed: exact truths, and the reference answers in another batch
    // composition (answers must not depend on it)
    let truth = inputs::truths(&table, &pool);
    let reference = inputs::reference(&model, &pool);
    run.score(&truth, &reference, ROWS);
    let answers = Answers::new(&reference);

    let mut tracer = Tracer::default();
    let mut split = WindowSplit::default();
    iam_obs::span::reset();
    let start = Instant::now();
    run.windows.start(start);
    let mut at = 0;
    while start.elapsed() < measure {
        let window = trace_window(start);
        let traced = trace && window % 2 == 1;
        if trace {
            set_program_spans(traced);
        }
        let batch: &[RangeQuery] = &pool[at..at + BATCH];
        let t0 = Instant::now();
        let got = model.estimate_batch_shared(batch, THREADS);
        let t1 = Instant::now();
        let ok = answers.check(&mut run, at, &got);
        run.answered += ok as u64;
        run.latencies_us.push(t1.duration_since(t0).as_secs_f64() * 1e6);
        if trace {
            split.add(window, ok, t1.duration_since(t0));
        }
        if traced {
            tracer.record("request", None, t0, t1);
        }
        run.windows.tick(run.answered);
        at = (at + BATCH) % POOL;
    }
    run.windows.finish(run.answered);
    set_program_spans(false);

    if trace {
        tracer.dump();
        // the program's own infer.* spans inside the traced requests; with
        // one inference thread the outermost is on the caller's stack
        let infer_us: f64 = iam_obs::span::report()
            .iter()
            .filter(|(path, _)| path.starts_with("infer.") && !path.contains(';'))
            .map(|(_, a)| a.total_us as f64)
            .sum();
        let req = tracer.total_us("request");
        run.set("unattributed_pct", 100.0 * (1.0 - infer_us / req.max(1e-9)));
        run.set("obs.overhead_pct", split.overhead_pct());
        layers::record_fit(&mut run, &inputs::median_times(&fits));
        layers::plan(&mut run, &model, &pool);
        layers::infer(&mut run, &model, &pool);
        layers::nn(&mut run, &model, &table);
        layers::gmm(&mut run, &model, &pool);
    }
    run
}
