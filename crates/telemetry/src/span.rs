//! RAII wall-clock spans with thread-local nesting.
//!
//! [`Span::enter`] pushes a name onto the current thread's span stack and
//! starts a monotonic clock. Dropping the guard pops the stack, records the
//! elapsed time into the active registry's `span.<path>` histogram (in
//! microseconds), and delivers a [`crate::SpanRecord`] to every sink
//! attached to that registry. The *path* is the dot-joined stack, so a
//! span `"ocr"` opened inside `"pipeline"` reports as `pipeline.ocr`.

use crate::SpanRecord;
use std::cell::RefCell;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

thread_local! {
    static STACK: RefCell<Vec<&'static str>> = const { RefCell::new(Vec::new()) };
}

static NEXT_TID: AtomicU64 = AtomicU64::new(1);

thread_local! {
    /// Stable per-thread identity: a process-unique small integer plus the
    /// OS thread name captured on first use.
    static TID: (u64, Option<String>) = (
        NEXT_TID.fetch_add(1, Ordering::Relaxed),
        std::thread::current().name().map(str::to_string),
    );
}

/// A stable, process-unique id for the current thread.
///
/// Unlike [`std::thread::ThreadId`], this is a plain small `u64` assigned
/// in first-use order, so it can be serialized directly as the `tid` of a
/// trace-event row. Ids are never reused within a process.
pub fn thread_id() -> u64 {
    TID.with(|t| t.0)
}

fn thread_identity() -> (u64, Option<String>) {
    TID.with(|t| (t.0, t.1.clone()))
}

/// The current thread's open span names, outermost first. Hand them to
/// [`with_parents`] on another thread to nest that thread's spans under
/// this one's.
pub fn open_spans() -> Vec<&'static str> {
    STACK.with(|stack| stack.borrow().clone())
}

/// Runs `f` with `parents` as the current thread's span stack, so spans
/// opened inside report the same paths they would on the thread the
/// parents came from (a pool worker's `par.chunk` nests under the
/// submitter's `fleet`). The thread's own stack is restored afterwards,
/// also when `f` unwinds.
pub fn with_parents<R>(parents: &[&'static str], f: impl FnOnce() -> R) -> R {
    struct Restore(Vec<&'static str>);
    impl Drop for Restore {
        fn drop(&mut self) {
            STACK.with(|stack| std::mem::swap(&mut *stack.borrow_mut(), &mut self.0));
        }
    }
    let _restore = Restore(STACK.with(|stack| stack.replace(parents.to_vec())));
    f()
}

/// An open span. Created by [`Span::enter`]; closing happens on drop.
#[must_use = "a span measures until dropped; binding it to _ closes it immediately"]
#[derive(Debug)]
pub struct Span {
    state: Option<OpenSpan>,
}

#[derive(Debug)]
struct OpenSpan {
    name: &'static str,
    path: String,
    depth: usize,
    started: Instant,
}

impl Span {
    /// Opens a named span on the current thread.
    ///
    /// Returns an inert guard (no clock, no record) while telemetry is
    /// disabled.
    pub fn enter(name: &'static str) -> Span {
        if !crate::enabled() {
            return Span { state: None };
        }
        let (path, depth) = STACK.with(|stack| {
            let mut stack = stack.borrow_mut();
            stack.push(name);
            (stack.join("."), stack.len())
        });
        Span {
            state: Some(OpenSpan {
                name,
                path,
                depth,
                started: Instant::now(),
            }),
        }
    }

    /// The dot-joined path of this span, e.g. `pipeline.ocr`.
    /// Empty for an inert guard.
    pub fn path(&self) -> &str {
        self.state.as_ref().map_or("", |s| s.path.as_str())
    }
}

impl Drop for Span {
    fn drop(&mut self) {
        let Some(open) = self.state.take() else {
            return;
        };
        let wall = open.started.elapsed();
        let registry = crate::registry();
        let torn = STACK.with(|stack| {
            let mut stack = stack.borrow_mut();
            // Pop our own frame. A mismatch means the stack is torn — an
            // inner guard leaked across threads, was forgotten, or guards
            // dropped out of order. The frame is left in place so the
            // remaining guards still pop their own names.
            if stack.last() == Some(&open.name) {
                stack.pop();
                false
            } else {
                true
            }
        });
        if torn {
            registry.counter("telemetry.span_stack_torn").inc(1);
        }
        let (tid, thread) = thread_identity();
        registry
            .histogram(&format!("span.{}", open.path))
            .record_duration(wall);
        registry.notify_span(&SpanRecord {
            name: open.name,
            path: open.path,
            depth: open.depth,
            wall,
            start_us: open
                .started
                .saturating_duration_since(registry.epoch())
                .as_micros() as u64,
            tid,
            thread,
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{scoped, Collector, Registry};
    use std::sync::Arc;

    #[test]
    fn nesting_builds_dotted_paths() {
        let reg = Arc::new(Registry::new());
        let collector = Arc::new(Collector::new());
        reg.add_sink(collector.clone());
        scoped(Arc::clone(&reg), || {
            let outer = Span::enter("pipeline");
            assert_eq!(outer.path(), "pipeline");
            {
                let inner = Span::enter("ocr");
                assert_eq!(inner.path(), "pipeline.ocr");
            }
            {
                let inner = Span::enter("gp");
                assert_eq!(inner.path(), "pipeline.gp");
            }
        });
        let paths: Vec<String> = collector
            .records()
            .iter()
            .map(|r| r.path.clone())
            .collect();
        assert_eq!(paths, ["pipeline.ocr", "pipeline.gp", "pipeline"]);
        let snap = reg.snapshot();
        assert!(snap.histograms.contains_key("span.pipeline.ocr"));
        assert_eq!(snap.histograms["span.pipeline"].count, 1);
        // No tear: guards closed innermost-first.
        assert!(!snap.counters.contains_key("telemetry.span_stack_torn"));
    }

    #[test]
    fn spans_nest_under_parents_handed_to_another_thread() {
        let reg = Arc::new(Registry::new());
        let (outside, inside) = scoped(Arc::clone(&reg), || {
            let _fleet = Span::enter("fleet");
            let parents = open_spans();
            std::thread::scope(|s| {
                s.spawn(|| {
                    scoped(Arc::clone(&reg), || {
                        let inside =
                            with_parents(&parents, || Span::enter("chunk").path().to_string());
                        (open_spans(), inside)
                    })
                })
                .join()
                .unwrap()
            })
        });
        assert_eq!(inside, "fleet.chunk");
        assert!(outside.is_empty(), "the worker's own stack is restored");
        let snap = reg.snapshot();
        assert!(snap.histograms.contains_key("span.fleet.chunk"));
        assert!(!snap.counters.contains_key("telemetry.span_stack_torn"));
    }

    #[test]
    fn records_carry_thread_identity_and_epoch_relative_start() {
        let reg = Arc::new(Registry::new());
        let collector = Arc::new(Collector::new());
        reg.add_sink(collector.clone());
        scoped(Arc::clone(&reg), || {
            let _span = Span::enter("work");
        });
        let records = collector.records();
        assert_eq!(records.len(), 1);
        assert_eq!(records[0].tid, crate::thread_id());
        // The span opened after the registry was created, so its start is
        // on the registry's timeline (and sane: within this test's run).
        assert!(records[0].start_us < 60_000_000);
    }

    #[test]
    fn torn_stack_is_counted_not_dropped() {
        let reg = Arc::new(Registry::new());
        let collector = Arc::new(Collector::new());
        reg.add_sink(collector.clone());
        scoped(Arc::clone(&reg), || {
            // Forge a torn stack: drop the outer guard while the inner one
            // is still open. The outer pop sees "inner" on top — a tear.
            let outer = Span::enter("outer");
            let inner = Span::enter("inner");
            drop(outer);
            drop(inner);
        });
        let snap = reg.snapshot();
        assert_eq!(snap.counters.get("telemetry.span_stack_torn"), Some(&1));
        // Both spans were still recorded and delivered despite the tear.
        let paths: Vec<String> = collector
            .records()
            .iter()
            .map(|r| r.path.clone())
            .collect();
        assert_eq!(paths, ["outer", "outer.inner"]);
        assert_eq!(snap.histograms["span.outer.inner"].count, 1);
    }
}
