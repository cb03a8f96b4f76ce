//! Calibrated host time.
//!
//! On a shared host, the speed of the benchmark's one thread drifts in
//! phases of about a second, by 30% or more, as other tenants come and
//! go. A median over one run's rounds cannot remove that: two runs a
//! minute apart can differ by a third. So each rotation of the timed
//! phase first times a fixed piece of reference work, and every host
//! time measured in that rotation is scaled by how long the reference
//! took: `calibrated = measured × REFERENCE_NS / reference`. Calibrated
//! times read as host time on a host where the reference work takes
//! [`REFERENCE_NS`], which is about what it takes on the 2-CPU
//! authoring host.
//!
//! The reference work is the same kind of host work the simulator does
//! (hashing, pointer chasing, small allocations and frees): a random
//! walk over a table, without allocation, tracked the drift worse. It
//! never changes with the program under test, so a change to the
//! simulator moves calibrated times exactly as much as raw ones.

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, DefaultHasher};
use std::hint::black_box;
use std::time::Instant;

/// Host time the reference work takes at the reference speed, in ns.
pub const REFERENCE_NS: f64 = 1.3e6;

/// Keys the reference work inserts, looks up and removes.
const KEYS: u64 = 8192;

/// Time one run of the reference work, in host ns.
pub fn reference_ns() -> u64 {
    let t0 = Instant::now();
    black_box(reference_work());
    (t0.elapsed().as_nanos() as u64).max(1)
}

/// The factor that turns host ns measured next to a reference run of
/// `reference_ns` into calibrated ns.
pub fn scale(reference_ns: u64) -> f64 {
    REFERENCE_NS / reference_ns.max(1) as f64
}

fn reference_work() -> u64 {
    let key = |i: u64| {
        let z = (i ^ 0x9e37_79b9_7f4a_7c15).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z ^ (z >> 31)
    };
    // A fixed hasher, so every run does the same work.
    let mut map: HashMap<u64, Box<[u64; 4]>, BuildHasherDefault<DefaultHasher>> =
        HashMap::default();
    for i in 0..KEYS {
        map.insert(key(i), Box::new([i; 4]));
    }
    let mut sum = 0u64;
    for i in 0..KEYS {
        sum = sum.wrapping_add(map[&key(i * 7919 % KEYS)][(i % 4) as usize]);
    }
    for i in 0..KEYS {
        map.remove(&key(i));
    }
    sum
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reference_work_is_fixed() {
        assert_eq!(reference_work(), reference_work());
        assert!(reference_ns() > 0);
        assert_eq!(scale(REFERENCE_NS as u64), 1.0);
    }
}
