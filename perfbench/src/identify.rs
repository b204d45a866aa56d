//! `identify`: the front end of the pipeline on long-dwell captures — the
//! calls `run_stages` makes before inference, through their public
//! functions and in the same order, producing the identifier→sensor map
//! (paper §3.4).
//!
//! GP does nothing here: capture decode, transport, OCR and association
//! do all of the work, and association grows faster than linearly with
//! dwell, so a change to those layers that is invisible on `fleet` shows.

use crate::inputs::{self, CarInput};
use crate::layers;
use crate::report::Outcome;
use crate::stats;
use crate::trace::{SpanId, Tracer};
use crate::{Batch, Opts, Pass};
use dp_reverser::{match_series_two_pass, CaptureReader, DpReverser, LabelSeries, PipelineConfig};
use dpr_can::Micros;
use dpr_ocr::OcrReading;
use dpr_telemetry::Registry;
use dpr_vehicle::profiles::CarId;
use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::Instant;

/// Seconds the clicker dwells on each data-stream page: long enough that
/// association dominates (Car K records a 2.2 MB capture).
const DWELL_S: u64 = 60;

/// The counters the association stage publishes; the bench's own call
/// must move them exactly as the full pipeline's association stage did.
const ASSOCIATION_COUNTERS: [&str; 4] = [
    "pipeline.pairs_formed",
    "pipeline.matches_above_threshold",
    "pipeline.matches_below_threshold",
    "pipeline.matches_rescued",
];

/// One identified sensor: `(identifier, screen, label)`.
type Sensor = (String, String, String);

/// The pipeline configuration of one car: the experiment configuration
/// the `dpr-bench` tools use, so the front end sees the same OCR channel
/// and thresholds as a full run.
fn config(car: &CarInput) -> PipelineConfig {
    dpr_bench::experiment_config(car.id, car.seed)
}

/// Groups the kept readings into one displayed-value series per
/// `(screen, label)`, as `run_stages` does between OCR and association.
fn group(readings: &[OcrReading]) -> Vec<LabelSeries> {
    let mut labels: Vec<(String, String)> = readings
        .iter()
        .map(|r| (r.screen.clone(), r.label.clone()))
        .collect();
    labels.sort();
    labels.dedup();
    labels
        .into_iter()
        .map(|key| {
            let series: Vec<(Micros, f64)> = readings
                .iter()
                .filter(|r| r.screen == key.0 && r.label == key.1)
                .filter_map(|r| r.value.map(|v| (r.at, v)))
                .collect();
            (key, series)
        })
        .collect()
}

/// What the front end produced for one car, and how long each step took.
struct FrontEnd {
    /// The accepted identifier→sensor matches.
    sensors: Vec<Sensor>,
    /// The car's association counters.
    counters: BTreeMap<String, u64>,
    /// Capture decode wall, ms.
    decode_ms: f64,
    /// Whole front-end wall, ms.
    wall_ms: f64,
}

/// Runs the front end on one car inside a fresh telemetry scope and an
/// evidence capture (as `analyze_capture` runs it), recording one span per
/// layer call under `parent` when tracing.
fn front_end(car: &CarInput, tracer: &Tracer, parent: SpanId) -> FrontEnd {
    let config = config(car);
    let registry = Arc::new(Registry::new());
    let ((sensors, t), _events) = dpr_telemetry::scoped(Arc::clone(&registry), || {
        dpr_evidence::capture(|| {
            let t0 = Instant::now();
            let reader = CaptureReader::new(&car.capture[..])
                .expect("recorded captures have a valid header");
            let (session, _stats) = reader.read_session();
            let t1 = Instant::now();
            let capture = dpr_frames::analyze_capture(&session.log, config.scheme);
            let t2 = Instant::now();
            let readings = dpr_ocr::filter_readings(
                &dpr_ocr::read_frames(&session.frames, &config.ocr),
                &config.range_book,
            );
            let t3 = Instant::now();
            let ys = group(&readings);
            let t4 = Instant::now();
            let xs = &capture.extraction.series;
            let matches =
                match_series_two_pass(xs, &ys, config.pair_window, config.match_threshold);
            let t5 = Instant::now();
            let sensors: Vec<Sensor> = matches
                .iter()
                .map(|m| {
                    let (screen, label) = &ys[m.label_idx].0;
                    (
                        xs[m.series_idx].key.to_string(),
                        screen.clone(),
                        label.clone(),
                    )
                })
                .collect();
            (sensors, [t0, t1, t2, t3, t4, t5])
        })
    });
    if tracer.on() {
        let car_span = tracer.record("identify.car", parent, t[0], t[5]);
        for (i, name) in ["capture.decode", "transport", "ocr", "group", "association"]
            .iter()
            .enumerate()
        {
            tracer.record(name, car_span, t[i], t[i + 1]);
        }
    }
    let ms = |a: Instant, b: Instant| (b - a).as_secs_f64() * 1e3;
    FrontEnd {
        sensors,
        counters: registry.snapshot().counters,
        decode_ms: ms(t[0], t[1]),
        wall_ms: ms(t[0], t[5]),
    }
}

/// The full pipeline's view of one car: its association-stage counters
/// and the sensors it recovered. Neither depends on the GP budget, so the
/// reference runs the smallest one.
struct Reference {
    counters: BTreeMap<String, u64>,
    recovered: Vec<Sensor>,
}

/// Runs `analyze_capture` once on `car` and keeps what the front end
/// must agree with.
fn reference(car: &CarInput) -> Reference {
    let config = PipelineConfig {
        gp: dpr_gp::GpConfig {
            population_size: 64,
            max_generations: 1,
            polish_iters: 0,
            ..dpr_gp::GpConfig::fast(car.seed)
        },
        ..config(car)
    };
    let reader =
        CaptureReader::new(&car.capture[..]).expect("recorded captures have a valid header");
    let result = dpr_telemetry::scoped(Arc::new(Registry::new()), || {
        DpReverser::new(config).analyze_capture(reader)
    });
    let stage = result.trace.stage("association");
    Reference {
        counters: ASSOCIATION_COUNTERS
            .iter()
            .map(|&k| {
                (
                    k.to_string(),
                    stage.and_then(|s| s.counters.get(k)).copied().unwrap_or(0),
                )
            })
            .collect(),
        recovered: result
            .esvs
            .iter()
            .map(|e| (e.key.to_string(), e.screen.clone(), e.label.clone()))
            .collect(),
    }
}

/// Whether the front end agrees with the full pipeline on this car: the
/// same association counters, and every sensor the pipeline recovered
/// among the matches.
fn agrees(front: &FrontEnd, reference: &Reference) -> bool {
    let counters_match = ASSOCIATION_COUNTERS
        .iter()
        .all(|&k| front.counters.get(k).copied().unwrap_or(0) == reference.counters[k]);
    counters_match
        && reference
            .recovered
            .iter()
            .all(|s| front.sensors.contains(s))
}

fn pass(cars: &[CarInput], expected: &[Vec<Sensor>], refs: &[Reference], tracer: &Tracer) -> Pass {
    let started = Instant::now();
    let mut fronts = Vec::with_capacity(cars.len());
    let root = tracer.span("identify.pass", None, |root| {
        for car in cars {
            fronts.push(front_end(car, tracer, root));
        }
        root
    });
    let elapsed_s = started.elapsed().as_secs_f64();
    let mut out = Pass {
        wall_s: fronts.iter().map(|f| f.wall_ms).sum::<f64>() / 1e3,
        elapsed_s,
        decode_ms: fronts.iter().map(|f| f.decode_ms).sum(),
        ..Pass::default()
    };
    for ((front, want), reference) in fronts.iter().zip(expected).zip(refs) {
        if front.sensors == *want && agrees(front, reference) {
            out.good += front.sensors.len();
        } else {
            out.failed += 1;
        }
    }
    if tracer.on() {
        let selfs = tracer.self_times(root);
        let self_ms = |name: &str| selfs.get(name).map_or(0.0, |d| d.as_secs_f64() * 1e3);
        let mut counters = BTreeMap::new();
        for front in &fronts {
            layers::add_counters(&mut counters, &front.counters);
        }
        let m = &mut out.layers;
        layers::from_counters(&counters, m);
        let parts = [
            ("capture.decode_ms", self_ms("capture.decode")),
            ("transport.ms", self_ms("transport")),
            ("ocr.ms", self_ms("ocr")),
            ("pipeline.group_ms", self_ms("group")),
            ("association.ms", self_ms("association")),
            (
                "bench.harness_ms",
                self_ms("identify.pass") + self_ms("identify.car"),
            ),
        ];
        let wall_ms = tracer.wall(root).as_secs_f64() * 1e3;
        let accounted: f64 = parts.iter().map(|(_, v)| v).sum();
        for (name, value) in parts {
            m.insert(name.to_string(), value);
        }
        m.insert("bench.traced_wall_ms".into(), wall_ms);
        m.insert(
            "bench.accounting_error".into(),
            stats::ratio((accounted - wall_ms).abs(), wall_ms),
        );
    }
    out
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

/// One full `analyze_capture` per car as the reference, an untimed
/// warm-up pass that fixes each car's map, then timed passes until
/// `opts.seconds` have elapsed (a traced run alternates untraced and
/// traced passes and needs one of each).
pub fn measure(cars: &[CarInput], setup_s: f64, opts: &Opts) -> Outcome {
    let refs: Vec<Reference> = cars.iter().map(reference).collect();
    let quiet = Tracer::new(String::new(), false);
    let expected: Vec<Vec<Sensor>> = cars
        .iter()
        .map(|car| front_end(car, &quiet, None).sensors)
        .collect();

    let tracer = Tracer::new(
        format!("identify-{}-{}", opts.seed, std::process::id()),
        true,
    );
    let (plain, traced) = crate::timed_passes(opts, |trace| {
        pass(cars, &expected, &refs, if trace { &tracer } else { &quiet })
    });

    let batch = Batch {
        workload: "identify",
        good_name: "sensors_identified",
        good: expected.iter().map(Vec::len).sum(),
        cars: cars.len(),
        setup_s,
        plain,
        traced,
    };
    batch.outcome(opts, true, &tracer)
}
