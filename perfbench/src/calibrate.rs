//! Host-speed calibration.
//!
//! The 2-core reference VM runs at different speeds for minutes at a time:
//! in one ten-run set the ECO edits of five runs took 1.1–1.5 s where the
//! others took 0.96–0.97 s, and the analyses and set-up slowed alike. The
//! benchmark therefore times a fixed kernel of its own, spread across the
//! run, and scales the end-to-end times to the reference host's speed:
//! `reported = measured × reference / median(kernel)`. The kernel runs once
//! on one thread, for the compute that runs on one thread, and twice at once
//! on two threads, which with the single kernel scales the serve traffic,
//! whose client and daemon threads share the host's two cores. Set-up time is scaled by the samples taken
//! around set-up only, the run's other times by all samples. The kernel is
//! plain Rust in this package, so no change to the library moves it.

use crate::stats::{median, quartiles};
use std::time::Instant;

/// Median single-thread kernel time on the reference host (2 vCPUs, quiet
/// phase).
pub const REFERENCE_MS: f64 = 4.5;

/// Lower quartile of the single-thread kernel's times in the same phases
/// as [`REFERENCE_MS`]: the reference for times taken as a fastest pass.
pub const REFERENCE_QUIET_MS: f64 = 4.2;

/// Median time of two kernels run at once on two threads, in the same
/// phases as [`REFERENCE_MS`] (1.33 times the single kernel there).
pub const REFERENCE_PAIR_MS: f64 = 6.0;

/// Rows of the kernel's sparse matrix.
const ROWS: usize = 40_000;
/// Nonzeros per row.
const PER_ROW: usize = 8;
/// Matrix–vector products per run (~5 ms on the reference host; with
/// twice as many, sampling took ~2.5 s of a run).
const PRODUCTS: usize = 10;
/// Samples taken at each set-up boundary.
const SET_UP_SAMPLES: usize = 3;

/// A fixed random sparse matrix (CSR with uniform row length) and a
/// vector: the kernel is a few normalised matrix–vector products, the
/// scattered-read, multiply-add mix of the pipeline's graph kernels.
struct Kernel {
    cols: Vec<u32>,
    vals: Vec<f64>,
    x: Vec<f64>,
    y: Vec<f64>,
}

impl Kernel {
    fn new() -> Self {
        let mut state = 0x9E37_79B9_7F4A_7C15u64;
        let mut next = || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        let cols = (0..ROWS * PER_ROW)
            .map(|_| (next() % ROWS as u64) as u32)
            .collect();
        let vals = (0..ROWS * PER_ROW)
            .map(|_| (next() >> 11) as f64 / (1u64 << 53) as f64)
            .collect();
        Kernel {
            cols,
            vals,
            x: vec![1.0; ROWS],
            y: vec![0.0; ROWS],
        }
    }

    fn run(&mut self) {
        for _ in 0..PRODUCTS {
            for (row, y) in self.y.iter_mut().enumerate() {
                let span = row * PER_ROW..(row + 1) * PER_ROW;
                *y = self.cols[span.clone()]
                    .iter()
                    .zip(&self.vals[span])
                    .map(|(&c, &v)| v * self.x[c as usize])
                    .sum();
            }
            let norm = self.y.iter().map(|v| v * v).sum::<f64>().sqrt().max(1e-300);
            for (x, y) in self.x.iter_mut().zip(&self.y) {
                *x = y / norm;
            }
        }
        std::hint::black_box(&self.x);
    }
}

/// The run's kernel samples.
pub struct Calibration {
    kernels: [Kernel; 2],
    single: Vec<f64>,
    pair: Vec<f64>,
    /// Samples taken at set-up boundaries: the first ones.
    set_up: usize,
}

impl Calibration {
    /// Builds the kernels' data (not timed).
    pub fn new() -> Self {
        Calibration {
            kernels: [Kernel::new(), Kernel::new()],
            single: Vec::new(),
            pair: Vec::new(),
            set_up: 0,
        }
    }

    /// Times the kernel once on this thread, then two kernels at once on
    /// two threads.
    pub fn sample(&mut self) {
        let [a, b] = &mut self.kernels;
        let t = Instant::now();
        a.run();
        self.single.push(t.elapsed().as_secs_f64() * 1e3);
        let t = Instant::now();
        std::thread::scope(|s| {
            s.spawn(|| b.run());
            a.run();
        });
        self.pair.push(t.elapsed().as_secs_f64() * 1e3);
    }

    /// Takes [`SET_UP_SAMPLES`] samples at a set-up boundary. Call it
    /// before and after each set-up part, before any other sample.
    pub fn sample_set_up(&mut self) {
        for _ in 0..SET_UP_SAMPLES {
            self.sample();
        }
        self.set_up = self.single.len();
    }

    /// Median single-thread kernel time at the set-up boundaries,
    /// milliseconds.
    pub fn set_up_median_ms(&self) -> f64 {
        median(&self.single[..self.set_up])
    }

    /// Median single-thread kernel time of this run, milliseconds.
    pub fn median_ms(&self) -> f64 {
        median(&self.single)
    }

    /// Lower quartile of this run's single-thread kernel times,
    /// milliseconds: the host's speed in its quieter moments.
    pub fn quiet_ms(&self) -> f64 {
        quartiles(&self.single).map_or(f64::NAN, |(q1, _)| q1)
    }

    /// Median two-thread kernel time of this run, milliseconds.
    pub fn pair_median_ms(&self) -> f64 {
        median(&self.pair)
    }

    /// Samples taken.
    pub fn count(&self) -> usize {
        self.single.len()
    }

    /// `REFERENCE_MS / median`: below 1 on a slower host.
    pub fn factor(&self) -> f64 {
        REFERENCE_MS / self.median_ms()
    }

    /// `REFERENCE_QUIET_MS / lower quartile`: below 1 on a slower host.
    pub fn quiet_factor(&self) -> f64 {
        REFERENCE_QUIET_MS / self.quiet_ms()
    }

    /// The serve traffic's factor: one over the mean of the single- and
    /// two-thread slowdowns (`median / reference`). Serve latencies mix
    /// one-request and two-request phases, and averaging the two kernels
    /// halves the share of either one's own noise. Over ten sets of five
    /// or ten runs (both workloads) the widest spread of `serve_tail_ms`
    /// was 0.15 scaled this way, against 0.19 by the two-thread kernel
    /// alone and 0.56 as measured.
    pub fn serve_factor(&self) -> f64 {
        2.0 / (1.0 / self.factor() + 1.0 / self.pair_factor())
    }

    /// `REFERENCE_MS / set-up median`: below 1 on a slower host.
    pub fn set_up_factor(&self) -> f64 {
        REFERENCE_MS / self.set_up_median_ms()
    }

    /// `REFERENCE_PAIR_MS / pair median`: below 1 on a slower host.
    pub fn pair_factor(&self) -> f64 {
        REFERENCE_PAIR_MS / self.pair_median_ms()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kernel_is_deterministic_and_timed() {
        let mut cal = Calibration::new();
        cal.sample();
        let [a, b] = &cal.kernels;
        // The single run and the paired run leave `a` two runs ahead of `b`.
        let mut fresh = Kernel::new();
        fresh.run();
        assert_eq!(fresh.x, b.x);
        fresh.run();
        assert_eq!(fresh.x, a.x);
        assert_eq!(cal.count(), 1);
        assert!(cal.median_ms() > 0.0 && cal.factor().is_finite());
        assert!(cal.pair_median_ms() > 0.0 && cal.pair_factor().is_finite());
        let (lo, hi) = (cal.factor().min(cal.pair_factor()), cal.factor().max(cal.pair_factor()));
        assert!((lo..=hi).contains(&cal.serve_factor()));
        // One sample has no quartiles.
        assert!(cal.quiet_factor().is_nan());
        assert!(cal.set_up_median_ms().is_nan());
        cal.sample_set_up();
        cal.sample();
        assert_eq!(
            (cal.set_up, cal.count()),
            (1 + SET_UP_SAMPLES, 2 + SET_UP_SAMPLES)
        );
        assert!(cal.set_up_factor().is_finite());
        assert!(cal.quiet_ms() <= cal.median_ms() && cal.quiet_factor().is_finite());
    }
}
