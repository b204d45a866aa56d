//! Workload inputs: `.dprcap` captures recorded from the simulated
//! Tab. 3 fleet, derived from the workload seed alone.
//!
//! The program under test only ever sees the capture bytes; the
//! simulated vehicle is kept beside them as ground truth for
//! [`dp_reverser::evaluate`].

use dpr_capture::{record_report, CaptureWriter};
use dpr_vehicle::profiles::CarId;
use dpr_vehicle::AttachedVehicle;

/// One recorded car: its capture bytes plus the ground truth.
pub struct CarInput {
    /// The Tab. 3 car.
    pub id: CarId,
    /// The per-car seed the capture was recorded (and is analyzed) with.
    pub seed: u64,
    /// The `.dprcap` bytes, with `car`/`seed`/`read_secs` metadata.
    pub capture: Vec<u8>,
    /// The simulated vehicle the capture was recorded from.
    pub vehicle: AttachedVehicle,
}

/// The per-car seed for a workload seed: the first SplitMix64 draw from
/// the workload seed, combined with the car the way `dpr_bench::car_seed`
/// combines the experiment seed with it.
pub fn car_seed(workload_seed: u64, id: CarId) -> u64 {
    crate::SplitMix::new(workload_seed).next_u64() ^ (id as u64 + 1)
}

/// The Tab. 3 letter of a car.
pub fn letter(id: CarId) -> char {
    (b'A' + id as u8) as char
}

/// Collects one car with the robotic clicker at `dwell_s` seconds per
/// data-stream page and records the session into an in-memory capture.
pub fn record_car(id: CarId, seed: u64, dwell_s: u64) -> CarInput {
    let report = dpr_bench::collect_car(id, seed, dwell_s);
    let mut writer = CaptureWriter::new(Vec::new()).expect("in-memory capture header");
    let meta = [
        ("car", letter(id).to_string()),
        ("seed", seed.to_string()),
        ("read_secs", dwell_s.to_string()),
    ];
    for (key, value) in &meta {
        writer.write_meta(key, value).expect("in-memory write");
    }
    record_report(&report, &mut writer).expect("in-memory write");
    let capture = writer.finish().expect("in-memory write");
    CarInput {
        id,
        seed,
        capture,
        vehicle: report.vehicle,
    }
}

/// Records every car in `cars` for one workload seed.
pub fn record_cars(cars: &[CarId], workload_seed: u64, dwell_s: u64) -> Vec<CarInput> {
    cars.iter()
        .map(|&id| record_car(id, car_seed(workload_seed, id), dwell_s))
        .collect()
}
