//! `fleet`: reverse-engineer all 18 Tab. 3 cars, one after another, from
//! their captures under the paper's GP budget — the paper's headline job.
//!
//! GP inference is ≥97 % of every car's wall time, so breeding, scoring,
//! dedup and pool work dominate; the front-end layers do almost none.

use crate::inputs::{self, CarInput};
use crate::layers;
use crate::report::{Metrics, Outcome};
use crate::stats;
use crate::trace::Tracer;
use crate::{Batch, Opts, Pass};
use dp_reverser::{CaptureReader, DpReverser, ReverseEngineeringResult};
use dpr_telemetry::{Collector, Registry};
use dpr_vehicle::profiles::CarId;
use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Seconds the robotic clicker dwells on each data-stream page (the
/// collection default).
const DWELL_S: u64 = 4;

/// The lowest fleet formula precision the run accepts as correct. The
/// paper reports 95 % (Tab. 6); below 90 % the outputs are wrong, not slow.
const MIN_PRECISION: f64 = 0.90;

/// One car's result as the warm-up pass produced it; every timed pass
/// must reproduce it.
struct Reference {
    canonical: String,
    formulas_correct: usize,
}

/// One car analyzed once.
struct CarRun {
    result: ReverseEngineeringResult,
    wall: Duration,
}

/// Runs `analyze_capture` on one car inside a fresh telemetry scope, with
/// the program's spans collected when tracing.
fn analyze(car: &CarInput, tracer: &Tracer, pass: crate::trace::SpanId) -> CarRun {
    let registry = Arc::new(Registry::new());
    let collector = tracer.on().then(|| {
        let c = Arc::new(Collector::new());
        registry.add_sink(Arc::clone(&c) as _);
        c
    });
    let pipeline = DpReverser::new(dpr_bench::experiment_config(car.id, car.seed));
    let reader =
        CaptureReader::new(&car.capture[..]).expect("recorded captures have a valid header");
    let started = Instant::now();
    let result = dpr_telemetry::scoped(Arc::clone(&registry), || pipeline.analyze_capture(reader));
    let ended = Instant::now();
    let call = tracer.record("analyze_capture", pass, started, ended);
    if let Some(c) = collector {
        tracer.import(&c.records(), registry.epoch(), call);
    }
    CarRun {
        result,
        wall: ended - started,
    }
}

fn pass(cars: &[CarInput], refs: &[Reference], tracer: &Tracer) -> Pass {
    let started = Instant::now();
    let mut runs = Vec::with_capacity(cars.len());
    let root = tracer.span("fleet.pass", None, |root| {
        for car in cars {
            runs.push(analyze(car, tracer, root));
        }
        root
    });
    let elapsed_s = started.elapsed().as_secs_f64();

    let mut out = Pass {
        wall_s: runs.iter().map(|r| r.wall.as_secs_f64()).sum(),
        elapsed_s,
        decode_ms: runs.iter().map(|r| stage_ms(&r.result, "capture")).sum(),
        ..Pass::default()
    };
    for ((car, reference), run) in cars.iter().zip(refs).zip(&runs) {
        let correct = dp_reverser::evaluate(&run.result, &car.vehicle).formula_correct;
        if run.result.canonical_json() == reference.canonical
            && correct == reference.formulas_correct
        {
            out.good += correct;
        } else {
            out.failed += 1;
        }
    }
    if tracer.on() {
        out.layers = traced_layers(tracer, root, &runs);
    }
    out
}

fn stage_ms(result: &ReverseEngineeringResult, stage: &str) -> f64 {
    result
        .trace
        .stage(stage)
        .map_or(0.0, |s| s.wall_us as f64 / 1e3)
}

/// Per-layer times of one traced pass: self times of the bench's and the
/// program's spans, stage walls from each result's `PipelineTrace`, and
/// the program's counters.
fn traced_layers(tracer: &Tracer, root: crate::trace::SpanId, runs: &[CarRun]) -> Metrics {
    let selfs = tracer.self_times(root);
    let self_ms = |name: &str| selfs.get(name).map_or(0.0, |d| d.as_secs_f64() * 1e3);
    let mut counters = BTreeMap::new();
    for run in runs {
        layers::add_counters(&mut counters, &run.result.trace.counters);
    }
    let mut m = Metrics::new();
    layers::from_counters(&counters, &mut m);

    let here = dpr_telemetry::thread_id();
    let gp_fit_ms: f64 = tracer
        .spans()
        .iter()
        .filter(|s| s.name == "gp.fit" && s.thread == here)
        .map(|s| s.wall().as_secs_f64() * 1e3)
        .sum();
    let sum = |f: &dyn Fn(&CarRun) -> f64| runs.iter().map(f).sum::<f64>();
    let unstaged_ms =
        sum(&|r| r.wall.as_secs_f64() * 1e3 - r.result.trace.staged_us() as f64 / 1e3);
    let parts = [
        ("capture.decode_ms", self_ms("capture")),
        ("transport.ms", self_ms("transport")),
        ("ocr.ms", self_ms("ocr")),
        ("association.ms", self_ms("association")),
        ("pipeline.infer_other_ms", self_ms("inference")),
        ("gp.fit_self_ms", self_ms("gp.fit")),
        ("par.caller_ms", self_ms("par.chunk")),
        ("pipeline.ecr_ms", sum(&|r| stage_ms(&r.result, "ecr"))),
        ("pipeline.unstaged_ms", unstaged_ms),
        ("bench.harness_ms", self_ms("fleet.pass")),
    ];
    let wall_ms = tracer.wall(root).as_secs_f64() * 1e3;
    let accounted: f64 = parts.iter().map(|(_, v)| v).sum();
    for (name, value) in parts {
        m.insert(name.to_string(), value);
    }
    m.insert(
        "pipeline.inference_ms".into(),
        sum(&|r| stage_ms(&r.result, "inference")),
    );
    m.insert("gp.fit_ms".into(), gp_fit_ms);
    let evaluations = m["gp.evaluations"];
    m.insert(
        "gp.evals_per_s".into(),
        stats::ratio(evaluations, gp_fit_ms / 1e3),
    );
    m.insert("bench.traced_wall_ms".into(), wall_ms);
    m.insert(
        "bench.accounting_error".into(),
        stats::ratio((accounted - wall_ms).abs(), wall_ms),
    );
    m
}

/// Records the fleet at [`DWELL_S`] for one workload seed.
fn setup(seed: u64) -> Vec<CarInput> {
    inputs::record_cars(&CarId::ALL, seed, DWELL_S)
}

/// Runs the workload: set-up, then [`measure`].
pub fn run(opts: &Opts) -> Outcome {
    let (cars, setup_s) = crate::timed_setup(|| setup(opts.seed));
    measure(&cars, setup_s, opts)
}

/// An untimed warm-up pass over `cars` that fixes each car's reference
/// output, then timed passes until `opts.seconds` have elapsed (at least
/// one; a traced run alternates untraced and traced passes and needs one
/// of each).
pub fn measure(cars: &[CarInput], setup_s: f64, opts: &Opts) -> Outcome {
    let quiet = Tracer::new(String::new(), false);
    let mut formula_total = 0;
    let refs: Vec<Reference> = cars
        .iter()
        .map(|car| {
            let run = analyze(car, &quiet, None);
            let precision = dp_reverser::evaluate(&run.result, &car.vehicle);
            formula_total += precision.formula_total;
            Reference {
                canonical: run.result.canonical_json(),
                formulas_correct: precision.formula_correct,
            }
        })
        .collect();
    let formulas_correct: usize = refs.iter().map(|r| r.formulas_correct).sum();

    let tracer = Tracer::new(format!("fleet-{}-{}", opts.seed, std::process::id()), true);
    let (plain, traced) = crate::timed_passes(opts, |trace| {
        pass(cars, &refs, if trace { &tracer } else { &quiet })
    });

    let precision = stats::ratio(formulas_correct as f64, formula_total as f64);
    let batch = Batch {
        workload: "fleet",
        good_name: "formulas_correct",
        good: formulas_correct,
        cars: cars.len(),
        setup_s,
        plain,
        traced,
    };
    let mut out = batch.outcome(opts, precision >= MIN_PRECISION, &tracer);
    out.note(format!(
        "formulas: {formulas_correct} of {formula_total} correct (precision {:.1} %, at least {:.0} % required); DPR threads {}",
        precision * 100.0,
        MIN_PRECISION * 100.0,
        dpr_par::threads()
    ));
    out
}
