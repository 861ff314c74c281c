//! Scaling measured times to a reference host speed.
//!
//! On a host shared with other tenants, the same code can take up to
//! 1.8 times as long for stretches of a minute or more, and CPU time
//! grows with wall time, so neither can be compared across runs as
//! measured. The benchmark therefore times a fixed kernel, which uses
//! only the standard library and does not change when the program under
//! test does, right before and right after each measurement, and scales
//! the measured time by [`REFERENCE_S`] over the kernel's time:
//! the result is the time the measurement would have taken on a host on
//! which the kernel takes [`REFERENCE_S`].
//!
//! The kernel hashes and sorts 150,000 numbers, a mix of branches and
//! cache misses closer to the CLI's work than an arithmetic loop; it
//! tracks the host's slow stretches far better than one does.

use std::collections::hash_map::DefaultHasher;
use std::collections::HashMap;
use std::hash::BuildHasherDefault;
use std::hint::black_box;
use std::time::Instant;

/// Kernel time of the reference host: about the kernel's time on a
/// quiet 2-vCPU Xeon VM, so that scaled times there read as measured.
pub const REFERENCE_S: f64 = 0.008;

const VALUES: usize = 150_000;
const DISTINCT: u64 = 50_000;

/// Run the kernel once; its wall time in seconds.
fn kernel() -> f64 {
    let start = Instant::now();
    let mut z = 0x9e37_79b9_7f4a_7c15u64;
    let mut values: Vec<u64> = (0..VALUES)
        .map(|_| {
            z ^= z << 13;
            z ^= z >> 7;
            z ^= z << 17;
            z % DISTINCT
        })
        .collect();
    // a fixed hasher: the same table layout on every run
    let mut counts: HashMap<u64, u32, BuildHasherDefault<DefaultHasher>> = HashMap::default();
    for v in &values {
        *counts.entry(*v).or_default() += 1;
    }
    values.sort_unstable();
    black_box((values, counts));
    start.elapsed().as_secs_f64()
}

/// The median of three kernel runs, steadier than one.
fn host_kernel() -> f64 {
    let mut t = [kernel(), kernel(), kernel()];
    t.sort_by(f64::total_cmp);
    t[1]
}

/// Times taken between two kernel timings, to be scaled by their mean.
pub struct Bracket(f64);

impl Bracket {
    /// Time the kernel before the measurement.
    pub fn open() -> Bracket {
        Bracket(host_kernel())
    }

    /// Time the kernel after the measurement; the factor that scales
    /// its times to the reference host.
    pub fn close(self) -> f64 {
        let host = (self.0 + host_kernel()) / 2.0;
        REFERENCE_S / host
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_factor_is_positive_and_finite() {
        let factor = Bracket::open().close();
        assert!(factor.is_finite() && factor > 0.0, "{factor}");
    }
}
