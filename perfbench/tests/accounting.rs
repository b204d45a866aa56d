//! A traced run's per-layer self times sum to its traced wall, in the
//! style of the pool's busy + wait + idle ≈ wall invariant.

use dpr_perfbench::inputs::{car_seed, record_car, CarInput};
use dpr_perfbench::{fleet, identify, Opts};
use dpr_vehicle::profiles::CarId;

fn cars(dwell_s: u64) -> Vec<CarInput> {
    [CarId::M, CarId::G]
        .into_iter()
        .map(|id| record_car(id, car_seed(11, id), dwell_s))
        .collect()
}

fn traced() -> Opts {
    Opts {
        seed: 11,
        seconds: 1e-3,
        trace: true,
    }
}

fn check(metrics: &std::collections::BTreeMap<String, f64>, layers: &[&str]) {
    let error = metrics["bench.accounting_error"];
    assert!(
        error < 0.03,
        "layer self times miss the traced wall by {:.2} %",
        error * 100.0
    );
    assert!(metrics["bench.traced_wall_ms"] > 0.0);
    for layer in layers {
        assert!(metrics[*layer] > 0.0, "{layer} recorded no time");
    }
}

#[test]
fn fleet_layers_sum_to_the_traced_wall() {
    let out = fleet::measure(&cars(2), 0.0, &traced());
    assert_eq!(out.failed, 0);
    check(
        &out.metrics,
        &[
            "capture.decode_ms",
            "transport.ms",
            "ocr.ms",
            "association.ms",
            "gp.fit_self_ms",
            "pipeline.unstaged_ms",
        ],
    );
    assert!(out.metrics["gp.fit_ms"] >= out.metrics["gp.fit_self_ms"]);
}

#[test]
fn identify_layers_sum_to_the_traced_wall() {
    let out = identify::measure(&cars(6), 0.0, &traced());
    assert!(out.correct, "{:?}", out.notes);
    check(
        &out.metrics,
        &[
            "capture.decode_ms",
            "transport.ms",
            "ocr.ms",
            "pipeline.group_ms",
            "association.ms",
        ],
    );
}
