//! The host's speed, read from a fixed loop that shares no code with the
//! program, and the scaling of timings to one host speed.
//!
//! The machines the benchmark runs on share their cores with other
//! tenants. A core's speed swings by up to 1.8x, for seconds and for
//! minutes at a time, so the same code can read a fifth slower in one run
//! than in the run before it. The benchmark reads the loop once after each
//! unit of work (an engine episode or a service batch), outside its timing,
//! on as many threads at once as did the work, and scales that unit's
//! timings by how much slower the loop ran than at the nominal speed.
//!
//! The loop mixes integer and floating-point arithmetic, random access
//! into a cache-sized table and small allocations. It follows about two
//! thirds of the host's swings, and the scaled timings spread about half
//! as much from run to run as the raw ones. It follows compute-bound work
//! best: memory-heavy work gains more than the loop does when the host's
//! other tenants go quiet.

use crate::stats::Samples;
use std::hint::black_box;
use std::time::Instant;

/// Iterations of the loop in one reading.
const ITERATIONS: usize = 100_000;
/// The loop's time in ms on the 2-core machine the bounds were set on, at
/// its fast state. Scaled timings read as ms at that speed.
const NOMINAL_MS: f64 = 0.4;
/// Readings on either side of a unit of work that its scale factor uses.
const WINDOW: usize = 3;
/// Entries of the loop's table: 256 KiB, the size of a core's L2 cache.
const TABLE_LEN: usize = 32 * 1024;

/// Readings of the loop, one per unit of work, in order.
#[derive(Debug)]
pub struct HostSpeed {
    readings_ms: Vec<f64>,
    /// One table per thread that reads.
    tables: Vec<Vec<u64>>,
}

impl Default for HostSpeed {
    fn default() -> HostSpeed {
        HostSpeed::new(1)
    }
}

impl HostSpeed {
    /// Reads on `threads` threads at once, one per thread that does the
    /// work, since the host's other tenants may slow one core and not the
    /// other.
    pub fn new(threads: usize) -> HostSpeed {
        HostSpeed {
            readings_ms: Vec::new(),
            tables: vec![vec![0; TABLE_LEN]; threads],
        }
    }

    /// Times one run of the loop on every thread; the reading is their
    /// mean time.
    pub fn read(&mut self) {
        let times: Vec<f64> = match self.tables.as_mut_slice() {
            [table] => vec![time_spin(table)],
            tables => std::thread::scope(|s| {
                let threads: Vec<_> = tables
                    .iter_mut()
                    .map(|table| s.spawn(move || time_spin(table)))
                    .collect();
                threads
                    .into_iter()
                    .map(|t| t.join().expect("host-speed thread panicked"))
                    .collect()
            }),
        };
        let mean = times.iter().sum::<f64>() / times.len() as f64;
        self.readings_ms.push(mean);
    }

    pub fn readings(&self) -> usize {
        self.readings_ms.len()
    }

    /// The median reading in ms; `NaN` when there is none.
    pub fn median_ms(&self) -> f64 {
        let mut s = Samples::default();
        for &r in &self.readings_ms {
            s.push(r);
        }
        s.median()
    }

    /// The scale factor of unit `i`: the nominal time over the median of
    /// the readings from `i - WINDOW` to `i + WINDOW`.
    pub fn factor(&self, i: usize) -> f64 {
        let lo = i.saturating_sub(WINDOW);
        let hi = (i + WINDOW + 1).min(self.readings_ms.len());
        let mut near = Samples::default();
        for &r in &self.readings_ms[lo..hi] {
            near.push(r);
        }
        NOMINAL_MS / near.median()
    }

    /// `samples` scaled unit by unit, where the first `counts[0]` samples
    /// belong to unit 0, the next `counts[1]` to unit 1, and so on.
    pub fn scale(&self, samples: &Samples, counts: &[usize]) -> Samples {
        let mut scaled = Samples::default();
        let mut values = samples.values().iter();
        for (unit, &n) in counts.iter().enumerate() {
            let f = self.factor(unit);
            for &v in values.by_ref().take(n) {
                scaled.push(v * f);
            }
        }
        scaled
    }
}

/// The time in ms of one run of the loop.
fn time_spin(table: &mut [u64]) -> f64 {
    let t0 = Instant::now();
    black_box(spin(table, black_box(ITERATIONS)));
    t0.elapsed().as_secs_f64() * 1e3
}

fn spin(table: &mut [u64], iterations: usize) -> u64 {
    let mask = table.len() - 1;
    let mut x: u64 = 0x9e37_79b9_7f4a_7c15;
    let mut f = 1.0f64;
    let mut acc = 0u64;
    for i in 0..iterations {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        let j = x as usize & mask;
        table[j] = table[j].wrapping_add(x);
        acc = acc.wrapping_add(table[j.wrapping_mul(7) & mask]);
        f = f * 0.999_999 + ((x & 1023) as f64).sqrt() * 1e-3;
        if i % 64 == 0 {
            let v: Vec<u64> = (0..16).map(|k| k ^ x).collect();
            acc ^= v.iter().sum::<u64>();
        }
    }
    acc ^ f.to_bits()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scaling_uses_the_readings_near_each_unit() {
        let host = HostSpeed {
            readings_ms: vec![0.4; 8].into_iter().chain(vec![0.8; 8]).collect(),
            tables: Vec::new(),
        };
        assert_eq!(host.factor(0), 1.0);
        assert_eq!(host.factor(15), 0.5);
        let mut raw = Samples::default();
        for v in [2.0, 4.0, 6.0] {
            raw.push(v);
        }
        let mut counts = vec![2];
        counts.extend(vec![0; 14]);
        counts.push(1);
        assert_eq!(host.scale(&raw, &counts).values(), &[2.0, 4.0, 3.0]);
    }
}
