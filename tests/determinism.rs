//! Regression test: the per-car and per-sensor fan-outs are
//! bit-identical at any width, and pinned to checked-in golden output.
//!
//! * Cars M and O are analyzed through `dpr_par::Pool::new(w).par_map`
//!   at widths 1, 2 and `DPR_THREADS` (4 when unset), the same per-car
//!   fan-out `dpr-bench` uses, with `DPR_THREADS` set to `w` so each
//!   analysis also fits its sensors on `w` threads. Every width must give
//!   each car the width-1 `ReverseEngineeringResult`, GP error
//!   trajectories and telemetry counters. The car list is repeated until
//!   it has at least `w` entries, so every width really runs `w` workers.
//!   The test owns `DPR_THREADS`, so it is the binary's only test.
//! * The canonical result JSON (trace zeroed) of each car must equal
//!   `tests/golden/car_<id>.json` byte for byte, so a change that moves
//!   every width in step still fails here. If the change to the
//!   analysis is intentional, regenerate with:
//!
//! ```text
//! DPR_REGEN_GOLDEN=1 cargo test -p dp-reverser --test determinism
//! ```

use dp_reverser::{DpReverser, PipelineConfig, ReverseEngineeringResult};
use dpr_can::{BusLog, Micros};
use dpr_cps::script::ExecutionLog;
use dpr_cps::{collect_vehicle, CollectConfig};
use dpr_frames::Scheme;
use dpr_telemetry::{MetricsSnapshot, Registry};
use dpr_tool::{ToolProfile, ToolSession, UiFrame};
use dpr_vehicle::profiles::{self, CarId};
use std::path::PathBuf;
use std::sync::Arc;

/// The parts of a collection session the pipeline reads.
struct Capture {
    log: BusLog,
    frames: Vec<UiFrame>,
    execution: ExecutionLog,
}

fn quick_collect(id: CarId, seed: u64) -> Capture {
    let car = profiles::build(id, seed);
    let spec = profiles::spec(id);
    let session = ToolSession::new(car, ToolProfile::by_name(spec.tool).unwrap());
    let report = collect_vehicle(
        session,
        &CollectConfig {
            read_wait: Micros::from_secs(4),
            ..CollectConfig::default()
        },
    )
    .unwrap();
    Capture {
        log: report.log,
        frames: report.frames,
        execution: report.execution,
    }
}

/// Analyzes inside a private telemetry scope and returns the result
/// together with the run's metrics.
fn analyze_scoped(seed: u64, capture: &Capture) -> (ReverseEngineeringResult, MetricsSnapshot) {
    let registry = Arc::new(Registry::new());
    let result = dpr_telemetry::scoped(Arc::clone(&registry), || {
        let pipeline = DpReverser::new(PipelineConfig::fast(Scheme::IsoTp, seed));
        pipeline.analyze(&capture.log, &capture.frames, Some(&capture.execution))
    });
    (result, registry.snapshot())
}

/// Strips the wall-clock-dependent metrics: `span.*` duration
/// histograms, the scheduling-dependent `par.*` / `prof.*` pool
/// accounting, and the `gp.evals_per_sec` throughput gauge. Everything
/// else — counters, the `gp.best_error_trajectory` histogram, SDU-size
/// histograms — must match exactly across thread counts.
fn deterministic_view(snapshot: &MetricsSnapshot) -> MetricsSnapshot {
    let mut view = snapshot.without_prefixes(&["span.", "par.", "prof."]);
    view.gauges.remove("gp.evals_per_sec");
    view
}

/// Compares `json` with the car's checked-in golden file, or rewrites
/// the file when `DPR_REGEN_GOLDEN` is set.
fn check_golden(id: CarId, json: &str) {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("../../tests/golden")
        .join(format!("car_{}.json", format!("{id:?}").to_lowercase()));
    if std::env::var("DPR_REGEN_GOLDEN").is_ok() {
        std::fs::create_dir_all(path.parent().unwrap()).unwrap();
        std::fs::write(&path, json).unwrap();
        println!("regenerated {}", path.display());
        return;
    }
    let checked_in = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "{} unreadable ({e}); regenerate with DPR_REGEN_GOLDEN=1",
            path.display()
        )
    });
    assert!(
        checked_in == json,
        "{id:?}: canonical result JSON diverged from {} — if the analysis \
         change is intentional, regenerate with DPR_REGEN_GOLDEN=1",
        path.display()
    );
}

#[test]
fn analyze_is_bit_identical_across_thread_counts() {
    let restore = std::env::var(dpr_par::THREADS_ENV).ok();
    let widest = restore
        .as_deref()
        .and_then(|v| v.trim().parse::<usize>().ok())
        .unwrap_or(4)
        .max(1);
    let mut widths = vec![1, 2, widest];
    widths.dedup();

    // Two Tab. 3 car profiles: Car M (formula + enum ESVs) and Car O
    // (ECR recovery) — together they exercise every analyze stage.
    let cars: Vec<(CarId, u64, Capture)> = [(CarId::M, 5), (CarId::O, 13)]
        .into_iter()
        .map(|(id, seed)| (id, seed, quick_collect(id, seed)))
        .collect();

    let mut reference: Vec<(ReverseEngineeringResult, MetricsSnapshot)> = Vec::new();
    for width in widths {
        // The inner per-sensor fan-out reads its width from the variable.
        std::env::set_var(dpr_par::THREADS_ENV, width.to_string());
        let jobs: Vec<usize> = (0..cars.len().max(width)).map(|i| i % cars.len()).collect();
        let runs = dpr_par::Pool::new(width).par_map(&jobs, |&car| {
            let (_, seed, capture) = &cars[car];
            analyze_scoped(*seed, capture)
        });
        if reference.is_empty() {
            reference = runs[..cars.len()].to_vec();
        }
        for (&car, (result, metrics)) in jobs.iter().zip(&runs) {
            let id = cars[car].0;
            let (seq_result, seq_metrics) = &reference[car];
            assert_eq!(
                seq_result, result,
                "{id:?}: result differs between widths 1 and {width}"
            );
            assert_eq!(
                deterministic_view(seq_metrics),
                deterministic_view(metrics),
                "{id:?}: telemetry (GP error trajectories, counters) differs at width {width}"
            );
        }
    }
    match restore {
        Some(v) => std::env::set_var(dpr_par::THREADS_ENV, v),
        None => std::env::remove_var(dpr_par::THREADS_ENV),
    }

    for ((id, _, _), (result, metrics)) in cars.iter().zip(&reference) {
        // The GP actually ran, so the comparisons above had teeth.
        assert!(metrics.counters.get("gp.fits").copied().unwrap_or(0) > 0);
        assert!(metrics.histograms.contains_key("gp.best_error_trajectory"));

        check_golden(*id, &result.canonical_json());
    }
}
