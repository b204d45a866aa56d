//! Golden pin: a seeded GP fit reproduces, bit for bit, the values
//! checked in at `tests/golden/fits.txt` — the fitted formula, the
//! per-generation best-error trajectory (as `f64::to_bits`), the logical
//! `evaluations` count, the stopping reason, and the scoring counters
//! (`gp.fitness_cache_hits`, `gp.dedup_hits`, `gp.dedup_distinct`) read
//! from a registry scoped to the fit. All randomness lives in
//! breeding, and scoring is a pure function of each program, so any
//! change to how a population is scored (dispatch, dedup, scratch reuse)
//! must leave every pinned value untouched.
//!
//! A mismatch means the search itself changed. If that is intentional,
//! regenerate with:
//!
//! ```text
//! DPR_REGEN_GOLDEN=1 cargo test -p dpr-gp --test determinism
//! ```

use dpr_gp::{Dataset, GpConfig, SymbolicRegressor};
use std::fmt::Write as _;
use std::path::PathBuf;
use std::sync::Arc;

fn golden_path() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests")
        .join("golden")
        .join("fits.txt")
}

fn sample_datasets() -> Vec<Dataset> {
    vec![
        // Linear with offset (the classic coolant-temperature shape).
        Dataset::from_pairs((0..48).map(|i| {
            let x = f64::from((i * 11) % 256);
            (x, 1.8 * x - 40.0)
        }))
        .unwrap(),
        // Two-variable OBD-II engine-speed formula.
        Dataset::new(
            (0..48)
                .map(|i| vec![f64::from(i * 5 % 200), f64::from((i * 37) % 256)])
                .collect(),
            (0..48)
                .map(|i| 64.0 * f64::from(i * 5 % 200) + 0.25 * f64::from((i * 37) % 256))
                .collect(),
        )
        .unwrap(),
    ]
}

/// Fits every dataset × seed and renders the pinned values, one block
/// per fit.
fn render_fits() -> String {
    let mut out = String::new();
    for (k, data) in sample_datasets().iter().enumerate() {
        for seed in [2023u64, 7] {
            let mut gp = SymbolicRegressor::new(GpConfig::fast(seed));
            let registry = Arc::new(dpr_telemetry::Registry::new());
            let model = dpr_telemetry::scoped(Arc::clone(&registry), || gp.fit(data));
            let report = gp.last_report().expect("fit records a report");
            let history: Vec<String> = report
                .best_error_history
                .iter()
                .map(|e| format!("{:016x}", e.to_bits()))
                .collect();
            writeln!(out, "dataset {k} seed {seed}").unwrap();
            writeln!(out, "formula: {}", model.expr).unwrap();
            writeln!(out, "evaluations: {}", model.evaluations).unwrap();
            writeln!(out, "stopped_by_threshold: {}", report.stopped_by_threshold).unwrap();
            writeln!(out, "best_error_history: {}", history.join(" ")).unwrap();
            for name in ["gp.fitness_cache_hits", "gp.dedup_hits", "gp.dedup_distinct"] {
                writeln!(out, "{name}: {}", registry.counter(name).get()).unwrap();
            }
        }
    }
    out
}

#[test]
fn fits_match_the_golden_values() {
    let path = golden_path();
    let fresh = render_fits();
    if std::env::var("DPR_REGEN_GOLDEN").is_ok() {
        std::fs::create_dir_all(path.parent().unwrap()).unwrap();
        std::fs::write(&path, &fresh).unwrap();
        println!("regenerated {}", path.display());
        return;
    }
    let checked_in = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "{} unreadable ({e}); regenerate with DPR_REGEN_GOLDEN=1",
            path.display()
        )
    });
    for (line, (want, got)) in checked_in.lines().zip(fresh.lines()).enumerate() {
        assert_eq!(want, got, "golden line {} differs", line + 1);
    }
    assert_eq!(
        checked_in.lines().count(),
        fresh.lines().count(),
        "golden file and fresh fits differ in length"
    );
}
