//! Regression test: profiling is observation, not intervention.
//! `DPR_PROF=1` turns on allocation attribution in `dpr-prof` and makes
//! `dpr-par` record heap deltas into its call profiles, but the pipeline
//! output must be byte-identical with it on or off — same
//! `ReverseEngineeringResult`, down to its canonical JSON serialization.
//!
//! Single `#[test]` function on purpose: the test mutates the
//! `DPR_PROF` process environment, and sibling tests in this binary
//! would race on it.

use dp_reverser::{DpReverser, PipelineConfig, ReverseEngineeringResult};
use dpr_can::Micros;
use dpr_cps::{collect_vehicle, CollectConfig, CollectionReport};
use dpr_frames::Scheme;
use dpr_tool::{ToolProfile, ToolSession};
use dpr_vehicle::profiles::{self, CarId};

fn quick_collect(id: CarId, seed: u64) -> CollectionReport {
    let car = profiles::build(id, seed);
    let spec = profiles::spec(id);
    let session = ToolSession::new(car, ToolProfile::by_name(spec.tool).unwrap());
    collect_vehicle(
        session,
        &CollectConfig {
            read_wait: Micros::from_secs(4),
            ..CollectConfig::default()
        },
    )
    .unwrap()
}

fn analyze(seed: u64, report: &CollectionReport) -> ReverseEngineeringResult {
    let pipeline = DpReverser::new(PipelineConfig::fast(Scheme::IsoTp, seed));
    pipeline.analyze(&report.log, &report.frames, Some(&report.execution))
}

/// One test fn on purpose — see module docs.
#[test]
fn profiling_does_not_change_pipeline_output() {
    let restore = std::env::var(dpr_prof::PROF_ENV).ok();

    // The same two Tab. 3 car profiles the thread-count determinism test
    // uses: Car M (formula + enum ESVs) and Car O (ECR recovery). Each
    // is collected and analyzed on the `dpr-par` pool, whose calls are
    // what profiling instruments.
    let cars = [(CarId::M, 5), (CarId::O, 13)];
    let analyze_all =
        || dpr_par::par_map(&cars, |&(id, seed)| analyze(seed, &quick_collect(id, seed)));

    std::env::remove_var(dpr_prof::PROF_ENV);
    let offs = analyze_all();
    assert!(
        !dpr_prof::enabled(),
        "profiling should be off with {} unset",
        dpr_prof::PROF_ENV
    );

    std::env::set_var(dpr_prof::PROF_ENV, "1");
    let ons = analyze_all();
    assert!(
        dpr_prof::enabled(),
        "the runs above should have refreshed {}=1",
        dpr_prof::PROF_ENV
    );

    for (((id, _), off), on) in cars.iter().zip(offs).zip(ons) {
        assert_eq!(off, on, "{id:?}: result differs with {}=1", dpr_prof::PROF_ENV);
        // Byte-level identity: serialize both results with the one
        // wall-clock-carrying field (the stage trace) cleared — stage
        // timings differ between *any* two runs, profiled or not.
        let (mut off, mut on) = (off, on);
        off.trace = dpr_telemetry::PipelineTrace::default();
        on.trace = dpr_telemetry::PipelineTrace::default();
        let off_json = dpr_telemetry::json::to_string(&off).unwrap();
        let on_json = dpr_telemetry::json::to_string(&on).unwrap();
        assert_eq!(
            off_json, on_json,
            "{id:?}: canonical JSON differs with {}=1",
            dpr_prof::PROF_ENV
        );
    }
    // The profiled run actually recorded pool calls, so the comparison
    // above had teeth.
    assert!(dpr_prof::snapshot().total_calls > 0);

    match restore {
        Some(v) => std::env::set_var(dpr_prof::PROF_ENV, v),
        None => std::env::remove_var(dpr_prof::PROF_ENV),
    }
}
