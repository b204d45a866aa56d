//! Allocation guard: a warm GP generation allocates (almost) nothing.
//!
//! Children are written into a flat generation buffer, dedup groups them
//! with a table kept for the whole fit, and scoring and polishing
//! recompile into one reused program buffer, so a fit's heap
//! allocations come from set-up, the buffers growing, and the refit and
//! reporting tail. Spread over the generations of a paper-budget fit
//! they must stay under a small bound; one `Vec` per child would be
//! about a thousand per generation.

use dpr_gp::{Dataset, GpConfig, SymbolicRegressor};
use dpr_prof::alloc::{set_counting, thread_alloc_stats, CountingAlloc};

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

/// Allowed heap allocations per generation, averaged over the whole fit.
const MAX_ALLOCS_PER_GENERATION: u64 = 100;

#[test]
fn a_paper_fit_allocates_at_most_100_times_per_generation() {
    let data = Dataset::from_triples((0..24).map(|i| {
        let x0 = f64::from(150 + (i * 7) % 100);
        let x1 = f64::from(10 + (i * 3) % 20);
        ((x0, x1), x0 * x1 / 5.0 + 0.5 * x0.sqrt())
    }))
    .expect("well-formed data set");
    let mut engine = SymbolicRegressor::new(GpConfig::paper(5));

    set_counting(true);
    let before = thread_alloc_stats();
    let model = engine.fit(&data);
    let allocs = thread_alloc_stats().since(before).allocs;
    set_counting(false);

    let generations = model.generations as u64;
    assert_eq!(
        generations, 30,
        "the guard needs a fit that runs the whole generation budget"
    );
    let per_generation = allocs / generations;
    println!(
        "{allocs} allocations over {generations} generations ({per_generation} per generation)"
    );
    assert!(
        per_generation <= MAX_ALLOCS_PER_GENERATION,
        "{allocs} allocations over {generations} generations is {per_generation} per generation, \
         above {MAX_ALLOCS_PER_GENERATION}"
    );
}
