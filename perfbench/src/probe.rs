//! Host speed probe: the yardstick the timed figures are scaled by.
//!
//! The benchmark runs on shared virtual machines whose core speed drifts
//! with other tenants' load by tens of percent over seconds to minutes,
//! far more than the changes the benchmark must resolve. The probe is a
//! fixed piece of work owned by the benchmark, never by the program, and
//! built like the program's own hot paths: branchy, data-dependent code on
//! a working set of a few tens of KiB that lives in the private caches.
//! One tick sorts copies of a fixed random array and looks up and inserts
//! fixed random keys in an ordered map, the same work every tick. The
//! untimed gaps between slices of a cell's stepping loop run one tick each,
//! so probe and program sample the same host state, and the timed figures
//! are reported at the nominal tick time [`NOMINAL_TICK_NS`]: a change to
//! the program moves them exactly as it moves the raw wall-clock figures
//! on a steady host.
//!
//! A dependent pointer chase through the L1 data cache was tried first and
//! rejected: it tracks the core's clock but not a neighbour thread's cache
//! pressure, and when that pressure dominated it over-corrected, spreading
//! `tc2_fig6` more than the raw wall rate did.

use std::collections::BTreeMap;
use std::hint::black_box;
use std::time::{Duration, Instant};

use crate::stats::SplitMix;

/// Entries of the array each sort starts from (16 KiB).
const SORT_LEN: usize = 2048;
/// Sorts per tick.
const SORTS: usize = 4;
/// Entries of the ordered map: the even keys below `2 × MAP_LEN`.
const MAP_LEN: u64 = 4096;
/// Map operations per tick.
const MAP_OPS: usize = 2000;
/// The tick time the timed figures are scaled to: about a quiet tick on
/// the 2.1 GHz Xeon the benchmark was tuned on.
pub const NOMINAL_TICK_NS: f64 = 300_000.0;

pub struct Probe {
    unsorted: Vec<u64>,
    map: BTreeMap<u64, u64>,
}

impl Probe {
    pub fn new() -> Probe {
        let mut rng = SplitMix::new(0x5eed);
        let unsorted = (0..SORT_LEN).map(|_| rng.next_u64()).collect();
        let map = (0..MAP_LEN).map(|k| (2 * k, rng.next_u64())).collect();
        Probe { unsorted, map }
    }

    /// One tick; returns its wall time. Every tick does the same work and
    /// leaves the probe as it found it.
    pub fn tick(&mut self) -> Duration {
        let t = Instant::now();
        for _ in 0..SORTS {
            let mut v = self.unsorted.clone();
            v.sort_unstable();
            black_box(&v);
        }
        let mut rng = SplitMix::new(0x6a09_e667);
        let mut acc = 0u64;
        for _ in 0..MAP_OPS {
            let k = rng.next_u64() % (2 * MAP_LEN);
            match self.map.get(&k) {
                Some(v) => acc = acc.wrapping_add(*v),
                // An odd key: insert it and take it out again.
                None => {
                    self.map.insert(k, acc);
                    acc ^= self.map.remove(&k).unwrap_or_default();
                }
            }
        }
        black_box(acc);
        t.elapsed()
    }
}

/// Probe time over `ticks` ticks, relative to the nominal tick: 1.25 means
/// the host ran 25 % slower than nominal while they were taken.
pub fn slowdown(probe: Duration, ticks: u64) -> f64 {
    let nominal_ns = ticks as f64 * NOMINAL_TICK_NS;
    if nominal_ns > 0.0 {
        probe.as_nanos() as f64 / nominal_ns
    } else {
        f64::NAN
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tick_leaves_the_probe_unchanged() {
        let mut p = Probe::new();
        let map = p.map.clone();
        p.tick();
        p.tick();
        assert_eq!(p.map, map);
        assert_eq!(p.unsorted, Probe::new().unsorted);
    }

    #[test]
    fn slowdown_is_relative_to_nominal() {
        let nominal = NOMINAL_TICK_NS as u64;
        assert_eq!(slowdown(Duration::from_nanos(4 * nominal), 4), 1.0);
        assert_eq!(slowdown(Duration::from_nanos(3 * nominal), 2), 1.5);
        assert!(slowdown(Duration::ZERO, 0).is_nan());
    }
}
