//! Host-speed normalisation. The machines this benchmark runs on are
//! shared, and other guests slow this one down for seconds to minutes at a
//! time: the same `run --all` ran anywhere from 2.2 to 4.7 Minst/s over
//! one afternoon on one 2-core host, with almost no steal time to show
//! for it. That is wider than any usable regression bound.
//!
//! So while a workload runs, a probe thread times a fixed tiny kernel
//! every [`PERIOD`] (under 1% of one CPU). The kernel is the benchmark's
//! own code, a dependent pseudo-random walk over a 64 KiB table, and calls
//! nothing in the program under test. A timed interval's *host factor* is
//! the median kernel time inside it over [`NOMINAL_MS`], raised to
//! [`EXPONENT`]; dividing the interval by the factor gives its duration at
//! nominal host speed.
//!
//! README.md in this directory gives the measurements behind the
//! exponent. The raw figures are recorded beside every normalised one.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use crate::common::splitmix64;

/// Table size of the kernel, in 64-bit words (64 KiB).
const TABLE_WORDS: usize = 1 << 13;
/// Dependent steps per kernel run (about 0.34 ms on the calibration host).
const STEPS: u64 = 20_000;
/// Pause between kernel runs.
const PERIOD: Duration = Duration::from_millis(40);
/// Median kernel time on a 2-core host with the simulator running on
/// every core, in ms (it ranged from 0.25 to 0.34 there).
pub const NOMINAL_MS: f64 = 0.30;
/// How much more the simulator slows than the kernel: the slope of
/// log(simulation time) over log(kernel time). Within minutes it measured
/// 2.0 on a 2-core host; across sets of runs up to an hour apart, 1.5 left
/// the smallest spreads and drift.
pub const EXPONENT: f64 = 1.5;

fn kernel(table: &mut [u64], seed: u64) -> u64 {
    let (mut x, mut acc) = (seed, 0u64);
    for _ in 0..STEPS {
        let i = (x as usize) & (TABLE_WORDS - 1);
        let v = table[i];
        if v & 3 == 0 {
            acc = acc.wrapping_add(v);
        } else {
            acc ^= v.rotate_left(7);
        }
        table[i] = v.wrapping_mul(0x9e37_79b9_7f4a_7c15) ^ acc;
        x = splitmix64(x ^ v);
    }
    acc
}

/// The background probe. Stops and joins its thread when dropped.
pub struct HostProbe {
    stop: Arc<AtomicBool>,
    /// `(end of the kernel run, its duration in ms)`, in order.
    samples: Arc<Mutex<Vec<(Instant, f64)>>>,
    thread: Option<JoinHandle<()>>,
}

impl HostProbe {
    pub fn start() -> Self {
        let stop = Arc::new(AtomicBool::new(false));
        let samples = Arc::new(Mutex::new(Vec::new()));
        let thread = {
            let (stop, samples) = (Arc::clone(&stop), Arc::clone(&samples));
            std::thread::spawn(move || {
                let mut table: Vec<u64> = (0..TABLE_WORDS as u64).map(splitmix64).collect();
                let mut seed = 0u64;
                while !stop.load(Ordering::Relaxed) {
                    let t = Instant::now();
                    std::hint::black_box(kernel(&mut table, seed));
                    let end = Instant::now();
                    let ms = (end - t).as_secs_f64() * 1e3;
                    samples
                        .lock()
                        .expect("the probe never panics holding its samples")
                        .push((end, ms));
                    seed += 1;
                    std::thread::sleep(PERIOD);
                }
            })
        };
        Self {
            stop,
            samples,
            thread: Some(thread),
        }
    }

    /// Kernel times (ms) of the runs that ended between `from` and `to`.
    fn between(&self, from: Instant, to: Instant) -> Vec<f64> {
        self.samples
            .lock()
            .expect("the probe never panics holding its samples")
            .iter()
            .filter(|(at, _)| *at >= from && *at <= to)
            .map(|s| s.1)
            .collect()
    }

    /// Host factor of the interval `from..to`: above 1 on a host slower
    /// than nominal; 1 when the probe took no sample inside it.
    pub fn factor(&self, from: Instant, to: Instant) -> f64 {
        let inside = self.between(from, to);
        if inside.is_empty() {
            return 1.0;
        }
        (crate::stats::median(&inside) / NOMINAL_MS).powf(EXPONENT)
    }

    /// Runs `f` as one timed interval.
    pub fn time<R>(&self, f: impl FnOnce() -> R) -> (R, Timed) {
        let from = Instant::now();
        let out = f();
        let to = Instant::now();
        let timed = Timed {
            secs: (to - from).as_secs_f64(),
            factor: self.factor(from, to),
        };
        (out, timed)
    }
}

impl Drop for HostProbe {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::Relaxed);
        if let Some(thread) = self.thread.take() {
            let _ = thread.join();
        }
    }
}

/// One timed interval: its wall time and its host factor.
#[derive(Clone, Copy, Debug)]
pub struct Timed {
    pub secs: f64,
    pub factor: f64,
}

impl Timed {
    /// The interval's duration at nominal host speed.
    pub fn normalised(&self) -> f64 {
        self.secs / self.factor
    }
}
