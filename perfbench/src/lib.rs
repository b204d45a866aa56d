//! The DP-Reverser benchmark: three workloads that measure what users of
//! the system wait for, end to end, with a traced mode that splits the
//! time by layer.
//!
//! * [`fleet`] — reverse-engineer all 18 Tab. 3 cars from their captures
//!   under the paper's GP budget (the paper's headline job; GP-bound).
//! * [`identify`] — the front end alone (capture decode, transport, OCR,
//!   association) on long-dwell captures: the identifier→sensor map.
//! * [`serve`] — the analysis service under an open-loop upload schedule
//!   with status polls and result reads beside it.
//!
//! The program under test only receives the recorded `.dprcap` captures
//! ([`inputs`]); the simulated vehicles stay with the benchmark as ground
//! truth.

#![forbid(unsafe_code)]

pub mod fleet;
pub mod identify;
pub mod inputs;
pub mod layers;
pub mod report;
pub mod serve;
pub mod stats;
pub mod trace;

use report::{Metrics, Outcome};
use stats::median;
use std::time::Instant;

/// How one run was asked to go.
#[derive(Debug, Clone)]
pub struct Opts {
    /// The workload seed every input derives from.
    pub seed: u64,
    /// How long the measured part runs, in seconds.
    pub seconds: f64,
    /// Whether this is the traced run (per-layer metrics).
    pub trace: bool,
}

/// How many times set-up is repeated; `setup_s` is the median.
pub const SETUP_REPS: usize = 7;

/// Runs `setup` [`SETUP_REPS`] times, returning the last output and the
/// median wall time in seconds.
pub fn timed_setup<T>(mut setup: impl FnMut() -> T) -> (T, f64) {
    let mut walls = Vec::with_capacity(SETUP_REPS);
    let mut out = None;
    for _ in 0..SETUP_REPS {
        // Tear the previous set-up down first, outside the timed part.
        drop(out.take());
        let started = Instant::now();
        out = Some(setup());
        walls.push(started.elapsed().as_secs_f64());
    }
    (out.expect("SETUP_REPS > 0"), stats::median(&walls))
}

/// Runs passes until `opts.seconds` have elapsed, at least one; `pass`
/// is told whether to trace. A traced run alternates untraced and traced
/// passes, untraced first, and runs at least one of each. Returns the
/// untraced and the traced passes.
pub fn timed_passes<P>(opts: &Opts, mut pass: impl FnMut(bool) -> P) -> (Vec<P>, Vec<P>) {
    let started = Instant::now();
    let (mut plain, mut traced) = (Vec::new(), Vec::new());
    loop {
        if opts.trace && traced.len() < plain.len() {
            traced.push(pass(true));
        } else {
            plain.push(pass(false));
        }
        let enough = !opts.trace || !traced.is_empty();
        if enough && started.elapsed().as_secs_f64() >= opts.seconds {
            return (plain, traced);
        }
    }
}

/// What one pass of a batch workload (`fleet`, `identify`) measured.
#[derive(Debug, Clone, Default)]
pub struct Pass {
    /// Sum of the timed calls' walls, s: the pass as a user waits for it.
    pub wall_s: f64,
    /// The whole pass including the bench's own bookkeeping, s.
    pub elapsed_s: f64,
    /// Capture decode wall summed over the pass, ms.
    pub decode_ms: f64,
    /// Correct outputs: formulas (`fleet`) or sensors (`identify`).
    pub good: usize,
    /// Cars whose output differed from the reference.
    pub failed: u64,
    /// Per-layer metrics (traced passes only).
    pub layers: Metrics,
}

/// A batch workload's measured passes, reported by [`Batch::outcome`].
pub struct Batch {
    /// The workload's name: `fleet` or `identify`.
    pub workload: &'static str,
    /// What its correct outputs are called (`formulas_correct`, …).
    pub good_name: &'static str,
    /// Correct outputs per pass, from the reference.
    pub good: usize,
    /// Cars analyzed per pass.
    pub cars: usize,
    /// The median set-up wall, s.
    pub setup_s: f64,
    /// The untraced passes.
    pub plain: Vec<Pass>,
    /// The traced passes (traced runs only).
    pub traced: Vec<Pass>,
}

impl Batch {
    /// The run's outcome: correct when no car failed and `checks_hold`;
    /// the end-to-end metrics on an untraced run, the traced passes'
    /// per-layer medians plus `bench.trace_overhead` on a traced run,
    /// with the spans of `tracer` written out.
    pub fn outcome(self, opts: &Opts, checks_hold: bool, tracer: &trace::Tracer) -> Outcome {
        let Batch {
            workload,
            good_name,
            good,
            cars,
            setup_s,
            plain,
            traced,
        } = self;
        let attempted = (cars * (plain.len() + traced.len())) as u64;
        let failed: u64 = plain.iter().chain(&traced).map(|p| p.failed).sum();
        let mut out = Outcome {
            correct: failed == 0 && checks_hold,
            attempted,
            failed,
            ..Outcome::default()
        };
        let walls: Vec<f64> = plain.iter().map(|p| p.wall_s).collect();
        let wall_s = median(&walls);
        out.note(format!(
            "{workload}: {cars} cars, {} timed passes ({} traced)",
            plain.len(),
            traced.len()
        ));
        out.note(format!(
            "{workload}_wall_s = {wall_s:.4} s (median pass; passes {walls:.3?})"
        ));
        out.note(format!("{good_name} = {good} count"));
        out.note(format!(
            "failed_share = {} share",
            stats::ratio(failed as f64, attempted as f64)
        ));

        if opts.trace {
            let layers: Vec<Metrics> = traced.iter().map(|p| p.layers.clone()).collect();
            let mut m = report::medians(&layers);
            let elapsed = |ps: &[Pass]| median(&ps.iter().map(|p| p.elapsed_s).collect::<Vec<_>>());
            m.insert(
                "bench.trace_overhead".into(),
                elapsed(&traced) / elapsed(&plain) - 1.0,
            );
            out.metrics = m;
            out.note(report::write_trace(workload, opts.seed, tracer));
            return out;
        }

        // The unit of work is a pass: single cars differ by design (4 to
        // 41 GP fits), and which car sits at a percentile moves with the
        // seed.
        let pass_ms: Vec<f64> = walls.iter().map(|w| w * 1e3).collect();
        let decode_ms: Vec<f64> = plain.iter().map(|p| p.decode_ms).collect();
        let goodput: Vec<f64> = plain.iter().map(|p| p.good as f64 / p.wall_s).collect();
        let (tail, decode_tail) = (stats::tail(&pass_ms), stats::tail(&decode_ms));
        out.note(format!(
            "{workload}_tail_ms = {:.3} ms ({tail})",
            tail.value
        ));
        out.note(format!(
            "capture_decode_ms per pass: p50 {:.3} ms, tail {:.3} ms",
            median(&decode_ms),
            decode_tail.value
        ));
        let m = &mut out.metrics;
        m.insert("p50_ms".into(), median(&pass_ms));
        m.insert("goodput_per_s".into(), median(&goodput));
        m.insert("correct_count".into(), good as f64);
        m.insert("setup_s".into(), setup_s);
        m.insert("peak_rss_mb".into(), report::peak_rss_mb());
        out
    }
}

/// SplitMix64: the benchmark's seeded generator for schedules and mixes.
#[derive(Debug, Clone)]
pub struct SplitMix(u64);

impl SplitMix {
    /// A generator seeded with `seed`.
    pub fn new(seed: u64) -> SplitMix {
        SplitMix(seed)
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// A uniform draw in `[0, 1)`.
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}
