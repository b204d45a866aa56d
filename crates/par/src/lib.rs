//! Deterministic data parallelism for the DP-Reverser stack.
//!
//! A std-only fork-join with a rayon-shaped [`par_map`] API. The design
//! goal is *bit-identical outputs regardless of thread count*: workers
//! claim item indices one at a time off an atomic cursor, and results are
//! reassembled in input order before returning. As long as the mapped
//! function is pure (no shared mutable state, no RNG), `par_map` with 1
//! thread and with N threads produce the same `Vec` — which is what lets
//! callers fan seeded, independent work (one analysis per car in
//! `dpr-bench`, one GP fit per sensor in the pipeline) across threads
//! without perturbing a single result.
//!
//! # Scoped fan-out
//!
//! Each `par_map` call spawns `workers - 1` threads inside a
//! [`std::thread::scope`] and **takes worker slot 0 on the calling
//! thread**, so the caller starts claiming items while its siblings
//! spin up. The scope joins every worker before the call returns, so
//! borrowed inputs work without `'static` bounds, a panic in any worker
//! propagates to the caller with its original payload, and nested or
//! concurrent calls each get their own threads. The work this crate
//! fans out (a car's analysis, a sensor's GP fit) runs for 100 ms or
//! more per item, so a thread spawn per call and a cursor claim per item
//! are noise next to it, and one-item claims keep the slow items from
//! queueing behind each other on one worker.
//!
//! # Thread-count resolution
//!
//! [`threads`] resolves, in order:
//!
//! 1. the `DPR_THREADS` environment variable (clamped to at least 1;
//!    unparsable values are ignored),
//! 2. [`std::thread::available_parallelism`],
//! 3. a fallback of 1.
//!
//! `DPR_THREADS=1` (or a single-core machine) makes every call run inline
//! on the caller's thread — no threads are spawned and no synchronization
//! is paid.
//!
//! # Telemetry and profiling
//!
//! Workers are named `gp-worker-N` and run inside the caller's scoped
//! telemetry registry, log context and span stack (all thread-local, so
//! each spawned thread re-enters them). Every claimed item is timed
//! under a `par.chunk` span nested under the caller's open spans — the
//! inline path times its whole input as one — so a span's path never
//! depends on which thread ran it or how many threads there were.
//! Metrics recorded by the mapped function land in the calling run's
//! registry, not the process-wide global one.
//!
//! Every call additionally records a `dpr_prof::CallProfile` — per-worker
//! busy/wait/idle microseconds, items claimed, thread spawn and join
//! latency — into the process-wide profile store, and emits `par.*`
//! metrics (see the DESIGN.md taxonomy) into the caller's registry.
//! Allocation attribution rides along when `DPR_PROF=1` and the binary
//! installs [`dpr_prof::alloc::CountingAlloc`]. Profiling never touches
//! the data path: claims and reassembly are identical with profiling on
//! or off.
//!
//! # Example
//!
//! ```
//! let squares = dpr_par::par_map(&[1u64, 2, 3, 4], |x| x * x);
//! assert_eq!(squares, vec![1, 4, 9, 16]);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod pool;

use dpr_prof::{CallProfile, WorkerStats};
use std::time::Instant;

/// The environment variable overriding the worker-thread count.
pub const THREADS_ENV: &str = "DPR_THREADS";

/// The effective worker-thread count: `DPR_THREADS` if set and valid,
/// otherwise the machine's available parallelism, otherwise 1.
///
/// Read on every call (not cached) so tests and long-lived processes can
/// retune the pool between runs.
pub fn threads() -> usize {
    if let Ok(v) = std::env::var(THREADS_ENV) {
        if let Ok(n) = v.trim().parse::<usize>() {
            return n.max(1);
        }
    }
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// A fork-join over scoped threads.
///
/// The pool handle is a configuration object (just a worker count).
/// Each [`par_map`](Pool::par_map) call spawns its own `gp-worker-N`
/// threads and joins them before returning, so borrowed inputs work
/// without `'static` bounds and a panic in any worker propagates to the
/// caller.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Pool {
    threads: usize,
}

impl Pool {
    /// A pool with exactly `threads` workers (clamped to at least 1).
    pub fn new(threads: usize) -> Self {
        Pool {
            threads: threads.max(1),
        }
    }

    /// A pool sized by [`threads`] (the `DPR_THREADS` override).
    pub fn from_env() -> Self {
        Pool::new(threads())
    }

    /// The worker count this pool uses.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Maps `f` over `items`, returning results in input order.
    ///
    /// Deterministic for pure `f`: the output is identical for any thread
    /// count, including 1.
    pub fn par_map<T, R, F>(&self, items: &[T], f: F) -> Vec<R>
    where
        T: Sync,
        R: Send,
        F: Fn(&T) -> R + Sync,
    {
        // Sync the profiling gate (and the allocator's counting flag)
        // once per call, mirroring how DPR_THREADS is re-read per call.
        let prof_on = dpr_prof::refresh();
        let started = Instant::now();
        let n = items.len();
        let workers = self.threads.min(n);
        if workers <= 1 {
            return run_inline(items, f, started);
        }

        // Workers claim one item at a time: every caller fans out items
        // of 100 ms or more (cars, sensors), so a cursor claim per item
        // is free, and claiming several at once would serialize the
        // slow ones behind each other.
        let mut outcome = pool::run(items, &f, workers, started);

        let profile = finalize_profile(started, n, &outcome.workers, prof_on);
        emit_call_metrics(&profile, prof_on);
        dpr_prof::record_call(profile, started);

        if let Some(payload) = outcome.panic {
            std::panic::resume_unwind(payload);
        }

        outcome.done.sort_unstable_by_key(|(i, _)| *i);
        outcome.done.into_iter().map(|(_, out)| out).collect()
    }
}

/// The call's start on the caller's telemetry-registry timeline — the
/// same epoch span records use, so trace exporters can align profile
/// counter tracks with span rows.
fn registry_start_us(started: Instant) -> u64 {
    started
        .saturating_duration_since(dpr_telemetry::registry().epoch())
        .as_micros() as u64
}

/// The sequential path: single worker or tiny input.
fn run_inline<T, R, F>(items: &[T], f: F, started: Instant) -> Vec<R>
where
    F: Fn(&T) -> R,
{
    let n = items.len();
    let alloc_before = dpr_prof::alloc::thread_alloc_stats();
    let out: Vec<R> = {
        // The whole input is one chunk, timed under the same span name the
        // pooled path uses, so span paths do not depend on the thread count.
        let _span = (n > 0).then(|| dpr_telemetry::Span::enter("par.chunk"));
        items.iter().map(f).collect()
    };
    let wall_us = started.elapsed().as_micros() as u64;
    let alloc = dpr_prof::alloc::thread_alloc_stats().since(alloc_before);
    let profile = CallProfile {
        label: dpr_prof::current_label().to_string(),
        epoch_start_us: registry_start_us(started),
        wall_us,
        items: n as u64,
        chunks: u64::from(n > 0),
        workers: vec![WorkerStats {
            worker: 0,
            busy_us: wall_us,
            chunks: u64::from(n > 0),
            items: n as u64,
            allocs: alloc.allocs,
            alloc_bytes: alloc.bytes,
            ..WorkerStats::default()
        }],
        inline: true,
        ..CallProfile::default()
    };
    emit_call_metrics(&profile, dpr_prof::alloc::counting());
    dpr_prof::record_call(profile, started);
    out
}

/// Builds the call's [`CallProfile`] from the raw per-worker samples.
///
/// `busy` and `wait` are measured directly; `idle` is the per-worker
/// remainder of the call's wall time (the thread-spawn gap before the
/// worker's first claim, the tail after its last item while stragglers
/// finish, and the join), saturating against clock-read jitter.
fn finalize_profile(
    started: Instant,
    n: usize,
    raw: &[pool::RawWorker],
    prof_on: bool,
) -> CallProfile {
    let wall_us = started.elapsed().as_micros() as u64;
    let mut last_exit_us = 0u64;
    let mut spinup_us = 0u64;
    let stats: Vec<WorkerStats> = raw
        .iter()
        .enumerate()
        .map(|(w, r)| {
            spinup_us = spinup_us.max(r.enter_us);
            last_exit_us = last_exit_us.max(r.exit_us);
            WorkerStats {
                worker: w as u64,
                busy_us: r.busy_us,
                wait_us: r.wait_us,
                idle_us: wall_us.saturating_sub(r.busy_us + r.wait_us),
                chunks: r.items,
                items: r.items,
                allocs: if prof_on { r.allocs } else { 0 },
                alloc_bytes: if prof_on { r.alloc_bytes } else { 0 },
            }
        })
        .collect();
    CallProfile {
        label: dpr_prof::current_label().to_string(),
        epoch_start_us: registry_start_us(started),
        wall_us,
        items: n as u64,
        chunks: n as u64,
        workers: stats,
        spinup_us,
        teardown_us: wall_us.saturating_sub(last_exit_us),
        inline: false,
        ..CallProfile::default()
    }
}

/// Emits the call's `par.*` (and, under `DPR_PROF`, `prof.*`) metrics
/// into the caller's scoped registry. All of these are either
/// time-valued or scheduling-dependent, so the determinism suite
/// compares runs with the `par.`/`prof.` prefixes stripped.
fn emit_call_metrics(profile: &CallProfile, prof_on: bool) {
    if profile.inline {
        dpr_telemetry::counter("par.inline_calls").inc(1);
    } else {
        dpr_telemetry::counter("par.calls").inc(1);
        dpr_telemetry::counter("par.busy_us").inc(profile.busy_us());
        dpr_telemetry::counter("par.wait_us").inc(profile.wait_us());
        dpr_telemetry::counter("par.idle_us").inc(profile.idle_us());
        dpr_telemetry::histogram("par.spinup_us").record(profile.spinup_us as f64);
        dpr_telemetry::histogram("par.teardown_us").record(profile.teardown_us as f64);
        dpr_telemetry::histogram("par.utilization").record(profile.utilization() * 100.0);
        dpr_telemetry::histogram("par.imbalance").record(profile.imbalance());
        dpr_telemetry::histogram("par.steal_ratio").record(profile.steal_ratio());
    }
    dpr_telemetry::counter("par.items").inc(profile.items);
    if prof_on {
        let allocs = profile.allocs();
        let bytes = profile.alloc_bytes();
        if allocs > 0 {
            dpr_telemetry::counter("prof.alloc_allocs").inc(allocs);
            dpr_telemetry::counter("prof.alloc_bytes").inc(bytes);
        }
    }
}

impl Default for Pool {
    fn default() -> Self {
        Pool::from_env()
    }
}

/// Maps `f` over `items` on the [`Pool::from_env`] pool, in input order.
pub fn par_map<T, R, F>(items: &[T], f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(&T) -> R + Sync,
{
    Pool::from_env().par_map(items, f)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::{Condvar, Mutex};
    use std::time::Duration;

    #[test]
    fn preserves_input_order() {
        let items: Vec<usize> = (0..1000).collect();
        for workers in [1, 2, 3, 8, 64] {
            let out = Pool::new(workers).par_map(&items, |x| x * 2);
            assert_eq!(out, items.iter().map(|x| x * 2).collect::<Vec<_>>());
        }
    }

    #[test]
    fn identical_across_thread_counts() {
        // A float reduction whose value would drift if ordering changed.
        let items: Vec<f64> = (0..777).map(|i| f64::from(i) * 0.3127).collect();
        let f = |x: &f64| (x.sin() * 1e6).mul_add(0.1, x.sqrt());
        let one = Pool::new(1).par_map(&items, f);
        for workers in [2, 5, 16] {
            let many = Pool::new(workers).par_map(&items, f);
            let same = one
                .iter()
                .zip(&many)
                .all(|(a, b)| a.to_bits() == b.to_bits());
            assert!(same, "results differ between 1 and {workers} threads");
        }
    }

    #[test]
    fn empty_and_tiny_inputs() {
        let empty: Vec<u8> = Vec::new();
        assert!(Pool::new(4).par_map(&empty, |x| *x).is_empty());
        assert_eq!(Pool::new(4).par_map(&[7u8], |x| *x + 1), vec![8]);
    }

    #[test]
    fn pool_clamps_to_one_thread() {
        assert_eq!(Pool::new(0).threads(), 1);
    }

    #[test]
    fn nested_calls_do_not_deadlock() {
        let outer: Vec<u32> = (0..16).collect();
        let out = Pool::new(4).par_map(&outer, |x| {
            let inner: Vec<u32> = (0..8).collect();
            Pool::new(4).par_map(&inner, |y| y + x).iter().sum::<u32>()
        });
        let expect: Vec<u32> = outer.iter().map(|x| (0..8).map(|y| y + x).sum()).collect();
        assert_eq!(out, expect);
    }

    #[test]
    fn workers_record_into_the_callers_scoped_registry() {
        let reg = std::sync::Arc::new(dpr_telemetry::Registry::new());
        let collector = std::sync::Arc::new(dpr_telemetry::Collector::new());
        reg.add_sink(collector.clone());
        let items: Vec<u64> = (0..64).collect();
        let out = dpr_telemetry::scoped(std::sync::Arc::clone(&reg), || {
            Pool::new(4).par_map(&items, |x| {
                dpr_telemetry::counter("par.test_items").inc(1);
                // Slow enough that one worker cannot drain every chunk
                // before its siblings finish spawning.
                std::thread::sleep(std::time::Duration::from_millis(1));
                x + 1
            })
        });
        assert_eq!(out.len(), 64);
        let snap = reg.snapshot();
        // Counters from inside the mapped fn reached the scoped registry…
        assert_eq!(snap.counters.get("par.test_items"), Some(&64));
        // …and each claimed chunk closed a par.chunk span on a named,
        // distinctly-identified worker thread.
        let records = collector.records();
        let chunks: Vec<_> = records.iter().filter(|r| r.path == "par.chunk").collect();
        assert!(!chunks.is_empty());
        assert_eq!(
            snap.histograms["span.par.chunk"].count,
            chunks.len() as u64
        );
        let tids: std::collections::BTreeSet<u64> = chunks.iter().map(|r| r.tid).collect();
        assert!(tids.len() > 1, "expected multiple worker rows, got {tids:?}");
        // The submitter participates as worker 0, so its chunks carry the
        // caller's thread name; every other chunk ran on a named pool row.
        assert!(chunks.iter().any(|r| {
            r.thread
                .as_deref()
                .is_some_and(|name| name.starts_with("gp-worker-"))
        }));
        // The call also emitted its scheduling metrics into the scope.
        assert_eq!(snap.counters.get("par.calls"), Some(&1));
        assert_eq!(snap.counters.get("par.items"), Some(&64));
        assert_eq!(snap.histograms["par.utilization"].count, 1);
    }

    #[test]
    fn chunk_spans_nest_under_the_callers_span_at_any_thread_count() {
        let items: Vec<u64> = (0..16).collect();
        for threads in [1, 4] {
            let reg = std::sync::Arc::new(dpr_telemetry::Registry::new());
            dpr_telemetry::scoped(std::sync::Arc::clone(&reg), || {
                let _fleet = dpr_telemetry::Span::enter("fleet");
                Pool::new(threads).par_map(&items, |x| {
                    std::thread::sleep(std::time::Duration::from_millis(1));
                    x + 1
                })
            });
            let spans: Vec<String> = reg
                .snapshot()
                .histograms
                .into_keys()
                .filter(|k| k.starts_with("span."))
                .collect();
            assert_eq!(spans, ["span.fleet", "span.fleet.par.chunk"], "{threads} thread(s)");
        }
    }

    #[test]
    fn worker_panic_propagates() {
        let result = std::panic::catch_unwind(|| {
            let items: Vec<u32> = (0..64).collect();
            Pool::new(4).par_map(&items, |x| {
                // Panic on a spawned worker, not on the caller: a bare
                // scoped join would replace this payload with its own.
                let spawned = std::thread::current()
                    .name()
                    .is_some_and(|name| name.starts_with("gp-worker-"));
                assert!(!spawned, "boom");
                std::thread::sleep(Duration::from_millis(1));
                *x
            })
        });
        let payload = result.expect_err("the worker's panic reached the caller");
        let message = payload
            .downcast_ref::<&str>()
            .copied()
            .or_else(|| payload.downcast_ref::<String>().map(String::as_str));
        assert_eq!(message, Some("boom"));
    }

    #[test]
    fn concurrent_calls_from_two_threads_run_side_by_side() {
        // Item 0 of each call waits until item 0 of the other call has
        // started, so this passes only if the two calls overlap.
        let arrived = (Mutex::new(0usize), Condvar::new());
        let items: Vec<u64> = (0..64).collect();
        let call = || {
            Pool::new(2).par_map(&items, |x| {
                if *x == 0 {
                    let (count, cv) = &arrived;
                    let mut count = count.lock().expect("no holder panics");
                    *count += 1;
                    cv.notify_all();
                    let wait = cv
                        .wait_timeout_while(count, Duration::from_secs(30), |n| *n < 2)
                        .expect("no holder panics")
                        .1;
                    assert!(!wait.timed_out(), "the two calls never overlapped");
                }
                x * 3
            })
        };
        let (a, b) = std::thread::scope(|s| {
            let a = s.spawn(call);
            let b = s.spawn(call);
            (a.join().unwrap(), b.join().unwrap())
        });
        let expect: Vec<u64> = items.iter().map(|x| x * 3).collect();
        assert_eq!(a, expect);
        assert_eq!(b, expect);
    }

    #[test]
    fn pool_survives_a_panicked_job() {
        let items: Vec<u32> = (0..64).collect();
        let boom = std::panic::catch_unwind(|| {
            Pool::new(2).par_map(&items, |x| {
                assert!(*x != 7, "boom");
                *x
            })
        });
        assert!(boom.is_err());
        // A panicked call leaves nothing behind: the next one runs normally.
        let out = Pool::new(2).par_map(&items, |x| x + 1);
        assert_eq!(out[63], 64);
    }
}
