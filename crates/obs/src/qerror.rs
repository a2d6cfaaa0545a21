//! Served-accuracy observability: q-error tracking for reported truths.
//!
//! The estimator's whole contract is its q-error, yet a serving system
//! never sees ground truth at estimate time — true counts only exist after
//! someone executes the query. This module closes the loop:
//!
//! 1. at estimate time the server [`record`](QErrorTracker::record)s a
//!    reservoir-sampled [`QRecord`] — canonical predicate, the estimate,
//!    the model version that produced it, latency — keyed by the query's
//!    canonical id;
//! 2. when a client later learns the true count it calls
//!    [`report`](QErrorTracker::report) (the serve line protocol maps
//!    `REPORT <qid> <true_count>` onto this), which resolves the pair into
//!    a q-error observation.
//!
//! Observations land in ordinary registry instruments so both the
//! Prometheus and the serve `STATS` expositions pick them up with no extra
//! plumbing: a fixed-bucket histogram `iam_qerror_milli` (q-error × 1000,
//! so p50/p95/p99 come from the existing [`HistogramSnapshot::quantile`]
//! machinery) and
//! per-column `iam_qerror_col_mean` / `iam_qerror_col_max` gauges that
//! attribute error to the columns a predicate constrained.
//!
//! The reservoir is Algorithm R driven by SplitMix64 on a caller seed —
//! deterministic for a given (seed, record stream), no ambient entropy —
//! and capacity 0 disables collection entirely (the default posture:
//! accuracy tracking is opt-in like every other collector in this crate).
//!
//! [`HistogramSnapshot::quantile`]: crate::registry::HistogramSnapshot::quantile

use crate::registry::{Counter, FloatGauge, Histogram, Registry};
use crate::tracetree::splitmix64;
use std::collections::HashMap;
use std::sync::{Arc, Mutex};

/// Upper bucket bounds for the q-error histogram, in **milli-q** (q-error
/// × 1000; q ≥ 1 by definition, so the first bucket catches exact
/// answers). The last bucket is a catch-all.
pub const QERROR_MILLI_BOUNDS: [u64; 10] =
    [1_000, 1_250, 1_500, 2_000, 3_000, 5_000, 10_000, 50_000, 100_000, u64::MAX];

/// The q-error of an estimated selectivity against a true row count, with
/// both selectivities floored at `1/nrows` (the paper's convention — an
/// empty result or a zero estimate would otherwise divide by zero).
/// Returns ≥ 1, or 1.0 for a degenerate `nrows == 0`.
pub fn q_error(est_sel: f64, true_count: u64, nrows: u64) -> f64 {
    if nrows == 0 {
        return 1.0;
    }
    let floor = 1.0 / nrows as f64;
    let est = est_sel.max(floor);
    let act = (true_count as f64 / nrows as f64).max(floor);
    (est / act).max(act / est)
}

/// One sampled estimate awaiting (or matched with) a truth report.
#[derive(Debug, Clone, PartialEq)]
pub struct QRecord {
    /// Canonical query id (the serve layer uses the canonical predicate
    /// hash, so a client can recompute it from the query alone).
    pub qid: u64,
    /// Canonical predicate text, for human-readable dumps.
    pub predicate: String,
    /// Names of the columns the predicate constrained.
    pub cols: Vec<String>,
    /// Estimated selectivity in `[0, 1]`.
    pub estimate: f64,
    /// Total rows of the estimated table (converts counts ↔ selectivities).
    pub nrows: u64,
    /// Version of the model that produced the estimate.
    pub model_version: u64,
    /// End-to-end estimate latency (µs).
    pub latency_us: u64,
}

/// Per-column error aggregate with its cached gauge handles (handles are
/// created once per column, never looked up per report).
struct ColStat {
    count: u64,
    sum: f64,
    max: f64,
    mean_gauge: Arc<FloatGauge>,
    max_gauge: Arc<FloatGauge>,
}

struct Inner {
    reservoir: Vec<QRecord>,
    seen: u64,
    cols: HashMap<String, ColStat>,
}

/// Reservoir-sampled accuracy tracker; all mutators take `&self`.
pub struct QErrorTracker {
    capacity: usize,
    seed: u64,
    inner: Mutex<Inner>,
    hist: Arc<Histogram>,
    recorded: Arc<Counter>,
    reports: Arc<Counter>,
    unmatched: Arc<Counter>,
}

impl QErrorTracker {
    /// A tracker holding at most `capacity` records (0 = disabled), with
    /// its instruments registered in `registry`. Reservoir evictions are
    /// deterministic in `seed`.
    pub fn new(capacity: usize, seed: u64, registry: &Registry) -> QErrorTracker {
        QErrorTracker {
            capacity,
            seed,
            inner: Mutex::new(Inner { reservoir: Vec::new(), seen: 0, cols: HashMap::new() }),
            hist: registry.histogram("iam_qerror_milli", &[], &QERROR_MILLI_BOUNDS),
            recorded: registry.counter("iam_qerror_recorded_total", &[]),
            reports: registry.counter("iam_qerror_reports_total", &[]),
            unmatched: registry.counter("iam_qerror_unmatched_total", &[]),
        }
    }

    /// Is collection enabled (capacity > 0)?
    pub fn enabled(&self) -> bool {
        self.capacity > 0
    }

    /// Offer one estimate record to the reservoir (Algorithm R: the i-th
    /// offer survives with probability `capacity / i`). A record with a
    /// qid already in the reservoir replaces it in place — the newest
    /// estimate is the one a truth report should be judged against.
    pub fn record(&self, rec: QRecord) {
        if self.capacity == 0 {
            return;
        }
        let mut inner = self.inner.lock().unwrap_or_else(|p| p.into_inner());
        inner.seen += 1;
        self.recorded.inc();
        if let Some(slot) = inner.reservoir.iter_mut().find(|r| r.qid == rec.qid) {
            *slot = rec;
            return;
        }
        if inner.reservoir.len() < self.capacity {
            inner.reservoir.push(rec);
            return;
        }
        let mut state = self.seed ^ inner.seen;
        let j = (splitmix64(&mut state) % inner.seen) as usize;
        if j < self.capacity {
            inner.reservoir[j] = rec;
        }
    }

    /// Resolve a truth report against the sampled record for `qid`.
    /// Returns the q-error when the record was found (observing it into
    /// the histogram and per-column gauges), `None` otherwise (the record
    /// was never sampled, was evicted, or the qid is bogus — counted as
    /// unmatched, never an error).
    pub fn report(&self, registry: &Registry, qid: u64, true_count: u64) -> Option<f64> {
        if self.capacity == 0 {
            return None;
        }
        let mut inner = self.inner.lock().unwrap_or_else(|p| p.into_inner());
        self.reports.inc();
        let Some(rec) = inner.reservoir.iter().find(|r| r.qid == qid).cloned() else {
            self.unmatched.inc();
            return None;
        };
        let q = q_error(rec.estimate, true_count, rec.nrows);
        let milli = (q * 1000.0).round();
        self.hist.observe(if milli.is_finite() {
            milli.min(u64::MAX as f64) as u64
        } else {
            u64::MAX
        });
        for col in &rec.cols {
            let stat = match inner.cols.get_mut(col) {
                Some(s) => s,
                None => {
                    let labels = [("col", col.as_str())];
                    let stat = ColStat {
                        count: 0,
                        sum: 0.0,
                        max: 0.0,
                        mean_gauge: registry.float_gauge("iam_qerror_col_mean", &labels),
                        max_gauge: registry.float_gauge("iam_qerror_col_max", &labels),
                    };
                    inner.cols.entry(col.clone()).or_insert(stat)
                }
            };
            stat.count += 1;
            stat.sum += q;
            stat.max = stat.max.max(q);
            stat.mean_gauge.set(stat.sum / stat.count as f64);
            stat.max_gauge.set(stat.max);
        }
        Some(q)
    }

    /// Records currently in the reservoir, sorted by qid (deterministic
    /// dump order regardless of arrival interleaving).
    pub fn records(&self) -> Vec<QRecord> {
        let inner = self.inner.lock().unwrap_or_else(|p| p.into_inner());
        let mut v = inner.reservoir.clone();
        v.sort_by_key(|r| r.qid);
        v
    }

    /// Records offered since construction (sampled or not).
    pub fn seen(&self) -> u64 {
        self.inner.lock().unwrap_or_else(|p| p.into_inner()).seen
    }

    /// Snapshot of the q-error histogram (milli-q buckets).
    pub fn histogram_snapshot(&self) -> crate::registry::HistogramSnapshot {
        self.hist.snapshot()
    }

    /// `(recorded, reports, unmatched)` counter values.
    pub fn counts(&self) -> (u64, u64, u64) {
        (self.recorded.get(), self.reports.get(), self.unmatched.get())
    }

    /// Per-column `(column, count, mean, max)` q-error aggregates, sorted
    /// by column name.
    pub fn column_errors(&self) -> Vec<(String, u64, f64, f64)> {
        let inner = self.inner.lock().unwrap_or_else(|p| p.into_inner());
        let mut v: Vec<(String, u64, f64, f64)> = inner
            .cols
            .iter()
            .map(|(c, s)| (c.clone(), s.count, s.sum / s.count.max(1) as f64, s.max))
            .collect();
        v.sort_by(|a, b| a.0.cmp(&b.0));
        v
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(qid: u64, est: f64, cols: &[&str]) -> QRecord {
        QRecord {
            qid,
            predicate: format!("c{qid}=1"),
            cols: cols.iter().map(|s| s.to_string()).collect(),
            estimate: est,
            nrows: 1000,
            model_version: 1,
            latency_us: 10,
        }
    }

    #[test]
    fn q_error_is_symmetric_and_floored() {
        // est 0.1 vs act 0.05 → 2×, same either way round
        assert!((q_error(0.1, 50, 1000) - 2.0).abs() < 1e-12);
        assert!((q_error(0.05, 100, 1000) - 2.0).abs() < 1e-12);
        // zero estimate and zero truth floor at 1/nrows instead of dividing by 0
        assert!((q_error(0.0, 0, 1000) - 1.0).abs() < 1e-12);
        assert!((q_error(0.0, 10, 1000) - 10.0).abs() < 1e-12, "{}", q_error(0.0, 10, 1000));
        assert_eq!(q_error(0.5, 1, 0), 1.0, "degenerate table");
        assert!(q_error(1.0, 1, 1_000_000) >= 1.0);
    }

    #[test]
    fn capacity_zero_disables_everything() {
        let reg = Registry::new();
        let t = QErrorTracker::new(0, 7, &reg);
        assert!(!t.enabled());
        t.record(rec(1, 0.5, &["a"]));
        assert_eq!(t.report(&reg, 1, 500), None);
        assert_eq!(t.seen(), 0);
        assert_eq!(reg.counter("iam_qerror_recorded_total", &[]).get(), 0);
    }

    #[test]
    fn reservoir_is_bounded_and_deterministic() {
        let run = |seed: u64| {
            let reg = Registry::new();
            let t = QErrorTracker::new(4, seed, &reg);
            for i in 0..100 {
                t.record(rec(i, 0.1, &[]));
            }
            assert_eq!(t.records().len(), 4);
            assert_eq!(t.seen(), 100);
            t.records().iter().map(|r| r.qid).collect::<Vec<_>>()
        };
        assert_eq!(run(7), run(7), "same seed, same survivors");
        assert_ne!(run(7), run(8), "different seeds sample differently");
    }

    #[test]
    fn duplicate_qid_replaces_in_place() {
        let reg = Registry::new();
        let t = QErrorTracker::new(4, 7, &reg);
        t.record(rec(1, 0.10, &[]));
        t.record(rec(1, 0.20, &[]));
        let recs = t.records();
        assert_eq!(recs.len(), 1);
        assert!((recs[0].estimate - 0.20).abs() < 1e-12, "newest estimate wins");
    }

    #[test]
    fn report_resolves_to_histogram_and_gauges() {
        let reg = Registry::new();
        let t = QErrorTracker::new(16, 7, &reg);
        // est 0.1, truth 50/1000 = 0.05 → q = 2.0 on cols a,b
        t.record(rec(1, 0.1, &["a", "b"]));
        // est 0.01, truth 100/1000 = 0.1 → q = 10.0 on col a
        t.record(rec(2, 0.01, &["a"]));
        assert!((t.report(&reg, 1, 50).unwrap() - 2.0).abs() < 1e-12);
        assert!((t.report(&reg, 2, 100).unwrap() - 10.0).abs() < 1e-12);
        assert_eq!(t.report(&reg, 999, 5), None, "unknown qid is unmatched, not an error");

        let h = reg.histogram("iam_qerror_milli", &[], &QERROR_MILLI_BOUNDS).snapshot();
        assert_eq!(h.count(), 2);
        assert_eq!(h.quantile(0.50), 2_000, "q=2.0 lands in the ≤2000 milli bucket");
        assert_eq!(h.quantile(0.95), 10_000, "q=10.0 lands in the ≤10000 milli bucket");
        assert_eq!(reg.counter("iam_qerror_reports_total", &[]).get(), 3);
        assert_eq!(reg.counter("iam_qerror_unmatched_total", &[]).get(), 1);

        let cols = t.column_errors();
        assert_eq!(cols.len(), 2);
        let (name, count, mean, max) = &cols[0];
        assert_eq!(name, "a");
        assert_eq!(*count, 2);
        assert!((mean - 6.0).abs() < 1e-12, "mean of 2 and 10");
        assert!((max - 10.0).abs() < 1e-12);
        assert!(
            (reg.float_gauge("iam_qerror_col_mean", &[("col", "a")]).get() - 6.0).abs() < 1e-12
        );
        assert!((reg.float_gauge("iam_qerror_col_max", &[("col", "b")]).get() - 2.0).abs() < 1e-12);
        // exposition picks the instruments up with deterministic ordering
        let prom = reg.render_prometheus();
        let a = prom.find("iam_qerror_col_max{col=\"a\"}").unwrap();
        let b = prom.find("iam_qerror_col_max{col=\"b\"}").unwrap();
        assert!(a < b, "sorted col labels:\n{prom}");
        assert!(prom.contains("iam_qerror_milli_bucket{le=\"2000\"}"), "{prom}");
    }

    #[test]
    fn seeded_workload_reproduces_expected_percentiles() {
        // 20 queries: 18 with q ≈ 1.2, 2 with q = 40 → p50 in the ≤1250
        // milli bucket, p95 in the ≤50000 bucket. Exact bits, no tolerance.
        let reg = Registry::new();
        let t = QErrorTracker::new(64, 42, &reg);
        for i in 0..18u64 {
            t.record(rec(i, 0.12, &["a"]));
            assert!(t.report(&reg, i, 100).is_some()); // act 0.1 → q 1.2
        }
        for i in 18..20u64 {
            t.record(rec(i, 0.004, &["a"]));
            assert!(t.report(&reg, i, 160).is_some()); // act 0.16 → q 40
        }
        let h = reg.histogram("iam_qerror_milli", &[], &QERROR_MILLI_BOUNDS).snapshot();
        assert_eq!(h.count(), 20);
        assert_eq!(h.quantile(0.50), 1_250);
        assert_eq!(h.quantile(0.95), 50_000);
        assert_eq!(h.quantile(0.99), 50_000);
    }
}
