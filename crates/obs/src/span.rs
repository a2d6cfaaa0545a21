//! Hierarchical wall-time spans with flamegraph-compatible aggregation.
//!
//! A span is entered with the [`span!`](crate::span!) macro and ends when
//! its guard drops. Each thread keeps a stack of open spans; on exit, the
//! span's elapsed time is folded into a process-wide aggregate keyed by the
//! semicolon-joined stack path (`train.epoch;train.ar_step`) — exactly the
//! *folded stacks* format `flamegraph.pl` and speedscope ingest, with
//! self-time as the value. Totals are also mirrored into the global
//! [`crate::Registry`] as `iam_span_us_total{span=…}` /
//! `iam_span_calls_total{span=…}` counters so scrapes see phase
//! attribution without parsing the folded dump.
//!
//! Collection is **off by default**: until [`enable`] is called, entering a
//! span is a single relaxed atomic load and no clock is read, keeping the
//! instrumented hot paths within their overhead budget.

use crate::registry::Registry;
use std::cell::RefCell;
use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, Ordering::Relaxed};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

static ENABLED: AtomicBool = AtomicBool::new(false);

/// Turn span collection on (idempotent).
pub fn enable() {
    ENABLED.store(true, Relaxed);
}

/// Turn span collection off. Already-open spans still record on drop.
pub fn disable() {
    ENABLED.store(false, Relaxed);
}

/// Is span collection currently on?
#[inline]
pub fn enabled() -> bool {
    ENABLED.load(Relaxed)
}

/// Aggregated timings of one span path.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SpanAgg {
    /// Times this exact stack path completed.
    pub count: u64,
    /// Total wall time, children included (µs).
    pub total_us: u64,
    /// Wall time minus instrumented children (µs) — the folded-stacks value.
    pub self_us: u64,
}

/// Per-frame trace-tree identity, present only while distributed tracing
/// is armed (see [`crate::tracetree`]).
struct TreeFrame {
    trace_id: u128,
    span_id: u64,
    parent_span: u64,
    start_unix_us: u64,
}

struct Frame {
    name: &'static str,
    start: Instant,
    child_us: u64,
    tree: Option<TreeFrame>,
}

thread_local! {
    static STACK: RefCell<Vec<Frame>> = const { RefCell::new(Vec::new()) };
}

fn aggregate() -> &'static Mutex<HashMap<String, SpanAgg>> {
    static AGG: OnceLock<Mutex<HashMap<String, SpanAgg>>> = OnceLock::new();
    AGG.get_or_init(|| Mutex::new(HashMap::new()))
}

/// An open span; records into the aggregate when dropped. Create via the
/// [`span!`](crate::span!) macro, hold with `let _g = …`.
#[must_use = "a span measures nothing unless its guard lives to the end of the scope"]
pub struct SpanGuard {
    name: &'static str,
}

impl SpanGuard {
    /// Push a span onto this thread's stack, or `None` when collection is
    /// disabled.
    pub fn enter(name: &'static str) -> Option<SpanGuard> {
        if !enabled() {
            return None;
        }
        // distributed tracing rides on the same guards: when tree recording
        // is armed on this thread, the frame additionally carries a span id
        // parented under the innermost open tree span (or the installed
        // context's parent for the outermost frame)
        let tree_ctx = if crate::tracetree::enabled() { crate::tracetree::current() } else { None };
        STACK.with(|s| {
            let mut stack = s.borrow_mut();
            let tree = tree_ctx.map(|ctx| {
                let parent = stack
                    .iter()
                    .rev()
                    .find_map(|f| f.tree.as_ref().map(|t| t.span_id))
                    .unwrap_or(ctx.parent_span);
                TreeFrame {
                    trace_id: ctx.trace_id,
                    span_id: crate::tracetree::alloc_span_id(ctx.trace_id),
                    parent_span: parent,
                    start_unix_us: crate::tracetree::unix_us_now(),
                }
            });
            stack.push(Frame { name, start: Instant::now(), child_us: 0, tree });
        });
        Some(SpanGuard { name })
    }
}

/// The innermost open span's tree id on this thread, if distributed
/// tracing recorded one — what [`crate::tracetree::child_ctx`] parents
/// cross-boundary children under.
pub(crate) fn active_tree_span() -> Option<u64> {
    STACK.with(|s| s.borrow().iter().rev().find_map(|f| f.tree.as_ref().map(|t| t.span_id)))
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        STACK.with(|s| {
            let mut stack = s.borrow_mut();
            // guards drop in reverse creation order within a thread, so the
            // top frame is ours; be defensive anyway
            let top_is_ours = stack.last().is_some_and(|f| f.name == self.name);
            debug_assert!(top_is_ours, "span {:?} dropped out of order", self.name);
            if !top_is_ours {
                return;
            }
            let frame = stack.pop().expect("checked non-empty");
            let elapsed_us = frame.start.elapsed().as_micros().min(u64::MAX as u128) as u64;
            let self_us = elapsed_us.saturating_sub(frame.child_us);
            if let Some(parent) = stack.last_mut() {
                parent.child_us = parent.child_us.saturating_add(elapsed_us);
            }
            let mut path = String::new();
            for f in stack.iter() {
                path.push_str(f.name);
                path.push(';');
            }
            path.push_str(frame.name);
            drop(stack);

            let mut agg = aggregate().lock().expect("span aggregate poisoned");
            let e = agg.entry(path).or_default();
            e.count += 1;
            e.total_us = e.total_us.saturating_add(elapsed_us);
            e.self_us = e.self_us.saturating_add(self_us);
            drop(agg);

            let labels = [("span", frame.name)];
            Registry::global().counter("iam_span_us_total", &labels).add(elapsed_us);
            Registry::global().counter("iam_span_calls_total", &labels).inc();

            if let Some(t) = frame.tree {
                crate::tracetree::record(crate::tracetree::SpanRecord {
                    trace_id: t.trace_id,
                    span_id: t.span_id,
                    parent_span: t.parent_span,
                    name: frame.name.to_string(),
                    proc: crate::tracetree::process_label(),
                    start_unix_us: t.start_unix_us,
                    dur_us: elapsed_us,
                });
            }
        });
    }
}

/// Enter a span: `let _g = iam_obs::span!("infer.progressive_sample");`.
/// Expands to an `Option<SpanGuard>` — cheap no-op while collection is
/// disabled.
#[macro_export]
macro_rules! span {
    ($name:expr) => {
        $crate::span::SpanGuard::enter($name)
    };
}

/// Sorted `(path, agg)` pairs of everything collected so far.
pub fn report() -> Vec<(String, SpanAgg)> {
    let agg = aggregate().lock().expect("span aggregate poisoned");
    let mut v: Vec<(String, SpanAgg)> = agg.iter().map(|(k, &a)| (k.clone(), a)).collect();
    v.sort_by(|a, b| a.0.cmp(&b.0));
    v
}

/// The flamegraph-compatible folded-stacks dump: one `path self_µs` line
/// per aggregated stack, sorted by path. Feed to `flamegraph.pl` or
/// speedscope ("folded" format) directly.
pub fn folded_stacks() -> String {
    render_folded(report().iter().map(|(path, agg)| (path.as_str(), agg.self_us)))
}

/// Render `(path, self µs)` pairs as folded-stacks lines, in the given
/// order.
pub(crate) fn render_folded<'a>(lines: impl Iterator<Item = (&'a str, u64)>) -> String {
    let mut out = String::new();
    for (path, us) in lines {
        out.push_str(path);
        out.push(' ');
        out.push_str(&us.to_string());
        out.push('\n');
    }
    out
}

/// Clear the aggregate (tests / between benchmark phases). Open spans on
/// other threads keep recording afterwards.
pub fn reset() {
    aggregate().lock().expect("span aggregate poisoned").clear();
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    // span tests share the process-global aggregate and enable flag, so they
    // must not run concurrently with each other (or with the trace-tree tests)
    use crate::test_serial as serial;

    #[test]
    fn disabled_spans_record_nothing() {
        let _s = serial();
        disable();
        reset();
        {
            let _g = crate::span!("noop");
        }
        assert!(report().is_empty());
    }

    #[test]
    fn nesting_aggregates_self_and_total() {
        let _s = serial();
        enable();
        reset();
        {
            let _outer = crate::span!("outer");
            std::thread::sleep(Duration::from_millis(4));
            for _ in 0..2 {
                let _inner = crate::span!("inner");
                std::thread::sleep(Duration::from_millis(3));
            }
        }
        disable();
        let r: HashMap<String, SpanAgg> = report().into_iter().collect();
        let outer = r["outer"];
        let inner = r["outer;inner"];
        assert_eq!(outer.count, 1);
        assert_eq!(inner.count, 2);
        assert!(inner.total_us >= 6_000, "two 3ms sleeps: {inner:?}");
        assert!(
            outer.total_us >= inner.total_us + 4_000,
            "outer includes children: {outer:?} vs {inner:?}"
        );
        // self time excludes instrumented children
        assert!(
            outer.self_us <= outer.total_us - inner.total_us,
            "outer self must exclude inner: {outer:?} {inner:?}"
        );
        assert_eq!(inner.self_us, inner.total_us, "leaf self == total");

        let folded = folded_stacks();
        assert!(folded.contains("outer;inner "), "{folded}");
        // registry mirror: totals by leaf name
        let us = Registry::global().counter("iam_span_us_total", &[("span", "inner")]).get();
        assert!(us >= 6_000, "registry mirror missing: {us}");
    }

    #[test]
    fn sibling_threads_do_not_nest() {
        let _s = serial();
        enable();
        reset();
        {
            let _outer = crate::span!("parent");
            std::thread::scope(|s| {
                s.spawn(|| {
                    let _g = crate::span!("worker");
                    std::thread::sleep(Duration::from_millis(2));
                });
            });
        }
        disable();
        let r: HashMap<String, SpanAgg> = report().into_iter().collect();
        assert!(r.contains_key("parent"));
        assert!(r.contains_key("worker"), "a fresh thread starts a fresh stack: {r:?}");
        assert!(!r.contains_key("parent;worker"));
    }
}
