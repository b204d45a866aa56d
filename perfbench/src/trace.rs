//! The benchmark's own spans: one around each call it makes into a
//! layer's public function, plus the program's existing spans imported
//! from a scoped `dpr_telemetry` [`Collector`](dpr_telemetry::Collector).
//!
//! Spans stay in memory and are written out once, when the run ends. A
//! span's self time is its duration minus the part covered by its child
//! spans on the same thread; per-layer self times over one root sum to
//! the root's wall.

use dpr_telemetry::json::Value;
use dpr_telemetry::SpanRecord;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// A span's index in its [`Tracer`]; `None` when tracing is off.
pub type SpanId = Option<usize>;

/// One closed span on the run's timeline.
#[derive(Debug, Clone, PartialEq)]
pub struct SpanRec {
    /// The layer or call the span covers.
    pub name: String,
    /// The enclosing span, if any.
    pub parent: Option<usize>,
    /// The `dpr_telemetry::thread_id` of the thread that ran it.
    pub thread: u64,
    /// Start, relative to the tracer's epoch.
    pub start: Duration,
    /// End, relative to the tracer's epoch.
    pub end: Duration,
}

impl SpanRec {
    /// The span's duration.
    pub fn wall(&self) -> Duration {
        self.end.saturating_sub(self.start)
    }
}

/// An in-memory span recorder shared by the threads of one run.
pub struct Tracer {
    run_id: String,
    epoch: Instant,
    on: bool,
    spans: Mutex<Vec<SpanRec>>,
    bookkeeping_ns: AtomicU64,
}

impl Tracer {
    /// A recorder for run `run_id`; with `on == false` every call is a
    /// pass-through that records nothing.
    pub fn new(run_id: String, on: bool) -> Tracer {
        Tracer {
            run_id,
            epoch: Instant::now(),
            on,
            spans: Mutex::new(Vec::new()),
            bookkeeping_ns: AtomicU64::new(0),
        }
    }

    /// Whether spans are being recorded.
    pub fn on(&self) -> bool {
        self.on
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, Vec<SpanRec>> {
        self.spans
            .lock()
            .expect("span recorder poisoned by a panicking run")
    }

    /// Charges the time since `since` to the recorder's own bookkeeping.
    fn charge(&self, since: Instant) {
        let ns = since.elapsed().as_nanos() as u64;
        self.bookkeeping_ns.fetch_add(ns, Ordering::Relaxed);
    }

    /// Time spent recording and importing spans so far: the part of the
    /// tracing overhead the recorder itself adds.
    pub fn bookkeeping(&self) -> Duration {
        Duration::from_nanos(self.bookkeeping_ns.load(Ordering::Relaxed))
    }

    /// Runs `f` inside a span named `name` under `parent`; `f` receives
    /// the new span's id so it can parent spans of its own.
    pub fn span<R>(&self, name: &str, parent: SpanId, f: impl FnOnce(SpanId) -> R) -> R {
        if !self.on {
            return f(None);
        }
        let start = self.epoch.elapsed();
        let id = {
            let mut spans = self.lock();
            spans.push(SpanRec {
                name: name.to_string(),
                parent,
                thread: dpr_telemetry::thread_id(),
                start,
                end: start,
            });
            spans.len() - 1
        };
        self.charge(self.epoch + start);
        let out = f(Some(id));
        let end = self.epoch.elapsed();
        self.lock()[id].end = end;
        self.charge(self.epoch + end);
        out
    }

    /// Records a span whose start and end were measured elsewhere.
    pub fn record(&self, name: &str, parent: SpanId, start: Instant, end: Instant) -> SpanId {
        if !self.on {
            return None;
        }
        let began = Instant::now();
        let id = {
            let mut spans = self.lock();
            spans.push(SpanRec {
                name: name.to_string(),
                parent,
                thread: dpr_telemetry::thread_id(),
                start: start.saturating_duration_since(self.epoch),
                end: end.saturating_duration_since(self.epoch),
            });
            spans.len() - 1
        };
        self.charge(began);
        Some(id)
    }

    /// Imports the program's own spans, collected by a sink on a registry
    /// whose epoch is `registry_epoch`. Spans of the calling thread nest
    /// under `under` by time containment; spans of other threads (pool
    /// workers) hang directly off `under`.
    pub fn import(&self, records: &[SpanRecord], registry_epoch: Instant, under: SpanId) {
        if !self.on {
            return;
        }
        let began = Instant::now();
        let here = dpr_telemetry::thread_id();
        let offset = registry_epoch.saturating_duration_since(self.epoch);
        let mut imported: Vec<SpanRec> = records
            .iter()
            .map(|r| {
                let start = offset + Duration::from_micros(r.start_us);
                SpanRec {
                    name: r.name.to_string(),
                    parent: under,
                    thread: r.tid,
                    start,
                    end: start + r.wall,
                }
            })
            .collect();
        // Outer spans first, so a stack of open spans finds each parent.
        imported.sort_by(|a, b| a.start.cmp(&b.start).then(b.end.cmp(&a.end)));
        let mut spans = self.lock();
        let mut open: Vec<usize> = Vec::new();
        for mut rec in imported {
            if rec.thread == here {
                while let Some(&top) = open.last() {
                    // 2 µs of slack: imported starts are whole microseconds.
                    if spans[top].end + Duration::from_micros(2) >= rec.end {
                        break;
                    }
                    open.pop();
                }
                rec.parent = open.last().copied().or(under);
                spans.push(rec);
                open.push(spans.len() - 1);
            } else {
                spans.push(rec);
            }
        }
        drop(spans);
        self.charge(began);
    }

    /// A copy of every span recorded so far.
    pub fn spans(&self) -> Vec<SpanRec> {
        self.lock().clone()
    }

    /// The span `id`'s wall time (zero when tracing is off).
    pub fn wall(&self, id: SpanId) -> Duration {
        id.map(|i| self.lock()[i].wall()).unwrap_or_default()
    }

    /// Self time by span name over the subtree rooted at `root`, on the
    /// root's thread: each span's duration minus its same-thread
    /// children's. Over one root these sum to the root's wall.
    pub fn self_times(&self, root: SpanId) -> BTreeMap<String, Duration> {
        let Some(root) = root else {
            return BTreeMap::new();
        };
        let spans = self.lock();
        let thread = spans[root].thread;
        let mut children: Vec<Vec<usize>> = vec![Vec::new(); spans.len()];
        for (i, s) in spans.iter().enumerate() {
            if let Some(p) = s.parent {
                if s.thread == thread && i != root {
                    children[p].push(i);
                }
            }
        }
        let mut out = BTreeMap::new();
        let mut stack = vec![root];
        while let Some(i) = stack.pop() {
            let covered: Duration = children[i].iter().map(|&c| spans[c].wall()).sum();
            *out.entry(spans[i].name.clone()).or_default() +=
                spans[i].wall().saturating_sub(covered);
            stack.extend(&children[i]);
        }
        out
    }

    /// Renders every span as one JSON object per line.
    pub fn to_json_lines(&self) -> String {
        let mut out = String::new();
        for (id, s) in self.lock().iter().enumerate() {
            let fields = vec![
                ("run".to_string(), Value::Str(self.run_id.clone())),
                ("id".to_string(), Value::UInt(id as u64)),
                (
                    "parent".to_string(),
                    s.parent.map_or(Value::Null, |p| Value::UInt(p as u64)),
                ),
                ("name".to_string(), Value::Str(s.name.clone())),
                ("thread".to_string(), Value::UInt(s.thread)),
                (
                    "start_us".to_string(),
                    Value::UInt(s.start.as_micros() as u64),
                ),
                ("end_us".to_string(), Value::UInt(s.end.as_micros() as u64)),
            ];
            out.push_str(&Value::Object(fields).to_json());
            out.push('\n');
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_times_sum_to_the_root_wall() {
        let tracer = Tracer::new("t".into(), true);
        let root = tracer.span("root", None, |root| {
            tracer.span("a", root, |a| {
                tracer.span("b", a, |_| std::thread::sleep(Duration::from_millis(2)));
                std::thread::sleep(Duration::from_millis(1));
            });
            std::thread::sleep(Duration::from_millis(1));
            root
        });
        let selfs = tracer.self_times(root);
        let sum: Duration = selfs.values().sum();
        assert_eq!(sum, tracer.wall(root));
        assert!(selfs["b"] >= Duration::from_millis(2));
    }

    #[test]
    fn off_records_nothing() {
        let tracer = Tracer::new("t".into(), false);
        let id = tracer.span("root", None, |id| id);
        assert_eq!(id, None);
        assert!(tracer.spans().is_empty());
    }
}
