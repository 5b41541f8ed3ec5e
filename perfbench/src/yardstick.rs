//! The host-speed yardstick.
//!
//! The benchmark runs on shared VMs whose speed drifts by up to 1.5x over
//! tens of seconds to minutes, so two back-to-back runs of the same
//! operations can differ that much in wall time. The yardstick is a fixed
//! piece of work, part of the benchmark and not of the program, that a run
//! times right before and right after every operation and every set-up.
//! The gated timings are wall times scaled by `REFERENCE_MS` over the
//! yardstick's time around them: the time the work would have taken on a
//! host that runs the yardstick in `REFERENCE_MS`. A change to the program
//! moves them; a change in host speed mostly does not.

use std::collections::hash_map::DefaultHasher;
use std::collections::HashMap;
use std::hash::BuildHasherDefault;
use std::time::Instant;

/// The yardstick's wall time on a host at reference speed, ms: about its
/// time on the 2-vCPU VM the benchmark was written on, at that host's
/// faster speed.
pub const REFERENCE_MS: f64 = 0.5;

/// Keys the yardstick sorts and hashes.
const KEYS: usize = 16_384;

/// Times the yardstick three times in a row and returns the median, ms, so
/// that one interrupt does not skew a reading.
pub fn measure_ms() -> f64 {
    let mut times = [once_ms(), once_ms(), once_ms()];
    times.sort_by(f64::total_cmp);
    times[1]
}

/// Runs the yardstick once and returns its wall time in ms. The work is a
/// mix like the program's: sorting, hashing and many small allocations,
/// in a working set of a few hundred KB.
fn once_ms() -> f64 {
    let start = Instant::now();
    let mut x: u64 = 0x9E37_79B9_7F4A_7C15;
    let mut keys: Vec<u64> = (0..KEYS)
        .map(|_| {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x
        })
        .collect();
    keys.sort_unstable();
    let mut sizes: HashMap<u64, usize, BuildHasherDefault<DefaultHasher>> = HashMap::default();
    let mut kept = Vec::new();
    for (i, &key) in keys.iter().enumerate().step_by(4) {
        let v: Vec<u64> = (0..(i % 37 + 3) as u64).collect();
        sizes.insert(key, v.len());
        if i % 3 == 0 {
            kept.push(v);
        }
    }
    std::hint::black_box((sizes.len(), kept.len()));
    start.elapsed().as_secs_f64() * 1e3
}

/// `wall` (any unit) taken while the yardstick read `yardstick_ms`, scaled
/// to a host at reference speed.
pub fn adjust(wall: f64, yardstick_ms: f64) -> f64 {
    wall * REFERENCE_MS / yardstick_ms
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn adjusting_scales_by_the_host_speed() {
        assert_eq!(adjust(40.0, REFERENCE_MS), 40.0);
        assert!((adjust(60.0, 1.5 * REFERENCE_MS) - 40.0).abs() < 1e-12);
        let ms = measure_ms();
        assert!(ms > 0.0 && ms.is_finite());
    }
}
