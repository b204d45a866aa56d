//! Regression test: the full pipeline is bit-identical at any thread
//! count, and pinned to checked-in golden output.
//!
//! * `DpReverser::analyze` with `DPR_THREADS=1` must equal
//!   `DPR_THREADS=N` — same `ReverseEngineeringResult`, same GP error
//!   trajectories, same telemetry counters.
//! * The canonical result JSON (trace zeroed) of each car must equal
//!   `tests/golden/car_<id>.json` byte for byte, so a change that moves
//!   every thread count in step still fails here. If the change to the
//!   analysis is intentional, regenerate with:
//!
//! ```text
//! DPR_REGEN_GOLDEN=1 cargo test -p dp-reverser --test determinism
//! ```
//!
//! Single `#[test]` function on purpose: the test mutates the
//! `DPR_THREADS` process environment, and sibling tests in this binary
//! would race on it.

use dp_reverser::{DpReverser, PipelineConfig, ReverseEngineeringResult};
use dpr_can::Micros;
use dpr_cps::{collect_vehicle, CollectConfig, CollectionReport};
use dpr_frames::Scheme;
use dpr_telemetry::{MetricsSnapshot, Registry};
use dpr_tool::{ToolProfile, ToolSession};
use dpr_vehicle::profiles::{self, CarId};
use std::path::PathBuf;
use std::sync::Arc;

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

/// Analyzes inside a private telemetry scope and returns the result
/// together with the run's metrics.
fn analyze_scoped(
    seed: u64,
    report: &CollectionReport,
) -> (ReverseEngineeringResult, MetricsSnapshot) {
    let registry = Arc::new(Registry::new());
    let result = dpr_telemetry::scoped(Arc::clone(&registry), || {
        let pipeline = DpReverser::new(PipelineConfig::fast(Scheme::IsoTp, seed));
        pipeline.analyze(&report.log, &report.frames, Some(&report.execution))
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

/// One test fn on purpose — see module docs.
#[test]
fn analyze_is_bit_identical_across_thread_counts() {
    let parallel = std::env::var("DPR_THREADS")
        .ok()
        .filter(|v| !v.trim().is_empty())
        .unwrap_or_else(|| "4".to_string());
    let restore = std::env::var("DPR_THREADS").ok();

    // Two Tab. 3 car profiles: Car M (formula + enum ESVs) and Car O
    // (ECR recovery) — together they exercise every analyze stage.
    for (id, seed) in [(CarId::M, 5), (CarId::O, 13)] {
        let report = quick_collect(id, seed);

        std::env::set_var("DPR_THREADS", "1");
        let (seq_result, seq_metrics) = analyze_scoped(seed, &report);
        std::env::set_var("DPR_THREADS", &parallel);
        let (par_result, par_metrics) = analyze_scoped(seed, &report);

        assert_eq!(
            seq_result, par_result,
            "{id:?}: result differs between 1 and {parallel} threads"
        );
        assert_eq!(
            deterministic_view(&seq_metrics),
            deterministic_view(&par_metrics),
            "{id:?}: telemetry (GP error trajectories, counters) differs"
        );
        // The GP actually ran, so the comparison above had teeth.
        assert!(seq_metrics.counters.get("gp.fits").copied().unwrap_or(0) > 0);
        assert!(seq_metrics.histograms.contains_key("gp.best_error_trajectory"));

        check_golden(id, &seq_result.canonical_json());
    }

    match restore {
        Some(v) => std::env::set_var("DPR_THREADS", v),
        None => std::env::remove_var("DPR_THREADS"),
    }
}
