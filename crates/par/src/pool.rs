//! One `par_map` call's fan-out on scoped threads.
//!
//! Each call spawns `workers - 1` scoped threads (`gp-worker-N`) and
//! takes worker slot 0 on the calling thread, so the caller starts
//! claiming items while its siblings spin up. Every worker pulls item
//! indices off one atomic cursor until none remain. The scope joins all
//! of them before the call returns, which is what lets the workers
//! borrow the caller's items and closure without `'static` bounds.

use std::any::Any;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Raw per-worker samples for one call, all relative to the call's entry
/// instant. Converted into `dpr_prof::WorkerStats` by the caller.
#[derive(Debug, Clone, Default)]
pub(crate) struct RawWorker {
    /// Microseconds from call entry to the worker starting on the job.
    pub(crate) enter_us: u64,
    /// Microseconds from call entry to the worker finishing the job.
    pub(crate) exit_us: u64,
    /// Microseconds inside the mapped function.
    pub(crate) busy_us: u64,
    /// Microseconds claiming items and storing their results.
    pub(crate) wait_us: u64,
    /// Items claimed and mapped.
    pub(crate) items: u64,
    /// Allocations made on this thread during the job (cumulative-delta
    /// from the counting allocator; zero when it is off or absent).
    pub(crate) allocs: u64,
    /// Bytes requested by those allocations.
    pub(crate) alloc_bytes: u64,
}

/// What [`run`] hands back to the caller.
pub(crate) struct Outcome<R> {
    /// Every finished item's result with its index, in no particular
    /// order.
    pub(crate) done: Vec<(usize, R)>,
    /// One sample per worker slot; a worker that panicked reports zeros.
    pub(crate) workers: Vec<RawWorker>,
    /// The first worker panic, if any; the caller resumes it after
    /// recording the call profile.
    pub(crate) panic: Option<Box<dyn Any + Send>>,
}

/// The shared, borrowed state of one call.
struct Job<'a, T, F> {
    items: &'a [T],
    f: &'a F,
    cursor: AtomicUsize,
    started: Instant,
}

/// Maps `f` over `items` on `workers` threads, the caller included,
/// and joins them all.
pub(crate) fn run<T, R, F>(items: &[T], f: &F, workers: usize, started: Instant) -> Outcome<R>
where
    T: Sync,
    R: Send,
    F: Fn(&T) -> R + Sync,
{
    let job = Job {
        items,
        f,
        cursor: AtomicUsize::new(0),
        started,
    };
    let registry = dpr_telemetry::registry();
    let log_context = dpr_log::context_snapshot();
    let spans = dpr_telemetry::open_spans();
    std::thread::scope(|scope| {
        let handles: Vec<_> = (1..workers)
            .map(|w| {
                let registry = Arc::clone(&registry);
                let (job, log_context, spans) = (&job, &log_context, &spans);
                std::thread::Builder::new()
                    // Named so trace exporters label each worker row.
                    .name(format!("gp-worker-{}", w - 1))
                    .spawn_scoped(scope, move || {
                        // Re-enter the caller's log context, telemetry
                        // registry and span stack: all are thread-local,
                        // so without this hand-off every record emitted
                        // inside the mapped function would lose its run
                        // attribution, and span paths would depend on
                        // which thread ran an item.
                        dpr_log::with_context(log_context, || {
                            dpr_telemetry::scoped(registry, || {
                                dpr_telemetry::with_parents(spans, || work(job))
                            })
                        })
                    })
                    .expect("spawn dpr-par worker")
            })
            .collect();
        // The caller's share is caught so every sibling is joined and the
        // call profile recorded before any panic reaches the caller.
        let caller = catch_unwind(AssertUnwindSafe(|| work(&job)));
        let mut outcome = Outcome {
            done: Vec::with_capacity(items.len()),
            workers: Vec::with_capacity(workers),
            panic: None,
        };
        for result in std::iter::once(caller).chain(handles.into_iter().map(|h| h.join())) {
            match result {
                Ok((raw, done)) => {
                    outcome.workers.push(raw);
                    outcome.done.extend(done);
                }
                Err(payload) => {
                    outcome.workers.push(RawWorker::default());
                    outcome.panic.get_or_insert(payload);
                }
            }
        }
        outcome
    })
}

/// One worker's share of a call: claim items off the cursor until none
/// remain, timing every phase. `wait` is cursor-claim plus result-store
/// time; `busy` is the mapped function.
fn work<T, R, F>(job: &Job<'_, T, F>) -> (RawWorker, Vec<(usize, R)>)
where
    F: Fn(&T) -> R,
{
    let enter_us = job.started.elapsed().as_micros() as u64;
    let alloc_before = dpr_prof::alloc::thread_alloc_stats();
    let mut busy = Duration::ZERO;
    let mut wait = Duration::ZERO;
    let mut done = Vec::new();

    loop {
        let claim_start = Instant::now();
        // Relaxed: the cursor hands out unique indices and publishes no
        // other data; results reach the caller through the join.
        let i = job.cursor.fetch_add(1, Ordering::Relaxed);
        let Some(item) = job.items.get(i) else {
            wait += claim_start.elapsed();
            break;
        };
        let claimed = Instant::now();
        wait += claimed - claim_start;
        let out = {
            let _span = dpr_telemetry::Span::enter("par.chunk");
            (job.f)(item)
        };
        let mapped = Instant::now();
        busy += mapped - claimed;
        done.push((i, out));
        wait += mapped.elapsed();
    }

    let alloc = dpr_prof::alloc::thread_alloc_stats().since(alloc_before);
    let raw = RawWorker {
        enter_us,
        exit_us: job.started.elapsed().as_micros() as u64,
        busy_us: busy.as_micros() as u64,
        wait_us: wait.as_micros() as u64,
        items: done.len() as u64,
        allocs: alloc.allocs,
        alloc_bytes: alloc.bytes,
    };
    (raw, done)
}
