//! The workload seed alone fixes every input the program receives.

use dpr_perfbench::inputs::{car_seed, record_car};
use dpr_perfbench::serve::schedule;
use dpr_vehicle::profiles::CarId;

fn capture(id: CarId, workload_seed: u64) -> Vec<u8> {
    record_car(id, car_seed(workload_seed, id), 2).capture
}

#[test]
fn same_seed_gives_byte_identical_captures() {
    for id in [CarId::M, CarId::G, CarId::B] {
        assert_eq!(capture(id, 7), capture(id, 7), "car {id:?}");
    }
}

#[test]
fn different_seeds_give_different_captures() {
    for id in [CarId::M, CarId::G, CarId::B] {
        assert_ne!(capture(id, 7), capture(id, 8), "car {id:?}");
    }
}

#[test]
fn serve_schedule_follows_the_seed() {
    assert_eq!(schedule(3, 5.0, 20.0), schedule(3, 5.0, 20.0));
    assert_ne!(schedule(3, 5.0, 20.0), schedule(4, 5.0, 20.0));
    let plan = schedule(3, 5.0, 20.0);
    assert_eq!(plan.len(), 100);
    assert!(plan.windows(2).all(|w| w[0].0 <= w[1].0));
    assert!(plan.last().expect("non-empty").0.as_secs_f64() <= 20.0);
}
