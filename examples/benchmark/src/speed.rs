//! How fast the machine itself is running while an op is timed.
//!
//! On a shared virtual machine the same code runs at clearly different
//! speeds from one ten-second stretch to the next (the host changes clock
//! mode, a neighbour takes the core's other thread, the hypervisor takes
//! the CPU away), and that moves a wall time by 20 % or more with no
//! change to the program. Two things are measured next to every timed
//! op, both about the machine and neither about the program:
//!
//! * a fixed scalar floating-point loop owned by this file, run between
//!   ops on as many cores as the ops use — it tracks the clock mode;
//! * the CPU time the hypervisor stole (`/proc/stat`).
//!
//! A reported time is the measured time multiplied by [`Gauge::mark`]'s
//! scale: the loop's nominal time over its measured time, times the share
//! of the interval that was not stolen. So times read as on a machine on
//! which the loop takes `NOMINAL_S` and nothing is stolen. The raw
//! machine speed of a run is printed beside its metrics.

use std::hint::black_box;
use std::time::Instant;

/// What the calibration loop takes in the usual clock mode of the box the
/// benchmark was written on; scaled values are in this machine's seconds.
pub const NOMINAL_S: f64 = 0.8e-3;
const ROUNDS: u64 = 400_000;

/// Fixed work: eight independent multiply-add chains. Seconds it took.
fn calibrate_one() -> f64 {
    let t = Instant::now();
    let decay = black_box(0.999_999_f64);
    let mut acc = [1.0f64; 8];
    for i in 0..ROUNDS {
        let x = i as f64 * 1e-9 + 1.0;
        for a in &mut acc {
            *a = *a * decay + x;
        }
    }
    black_box(acc);
    t.elapsed().as_secs_f64()
}

/// The loop on `threads` cores at once, as the timed ops use them; the
/// mean of their times.
fn calibrate(threads: usize) -> f64 {
    std::thread::scope(|scope| {
        let others: Vec<_> = (1..threads).map(|_| scope.spawn(calibrate_one)).collect();
        let mine = calibrate_one();
        let sum: f64 = others
            .into_iter()
            .map(|h| h.join().expect("calibration thread panicked"))
            .sum();
        (mine + sum) / threads as f64
    })
}

/// `(stolen, total)` jiffies over all CPUs since boot; zeros where
/// `/proc/stat` cannot be read.
fn jiffies() -> (f64, f64) {
    let stat = std::fs::read_to_string("/proc/stat").unwrap_or_default();
    let fields: Vec<f64> = stat
        .lines()
        .next()
        .unwrap_or("")
        .split_whitespace()
        .skip(1)
        .filter_map(|x| x.parse().ok())
        .collect();
    // user nice system idle iowait irq softirq steal; guest time is
    // already inside user.
    (
        fields.get(7).copied().unwrap_or(0.0),
        fields.iter().take(8).sum(),
    )
}

pub struct Gauge {
    threads: usize,
    cals: Vec<f64>,
    since: (f64, f64),
    /// Every scale handed out, for the run's summary line.
    pub scales: Vec<f64>,
}

impl Gauge {
    pub fn start(threads: usize) -> Gauge {
        Gauge {
            threads,
            cals: vec![calibrate(threads)],
            since: jiffies(),
            scales: Vec::new(),
        }
    }

    /// One more calibration inside the current interval.
    pub fn sample(&mut self) {
        self.cals.push(calibrate(self.threads));
    }

    /// Close the interval since `start` or the previous `mark`: the factor
    /// to multiply a time measured inside it by (divide a rate by).
    pub fn mark(&mut self) -> f64 {
        let last = calibrate(self.threads);
        self.cals.push(last);
        let now = jiffies();
        let (stolen, total) = (now.0 - self.since.0, now.1 - self.since.1);
        let running = if total > 0.0 {
            1.0 - (stolen / total).clamp(0.0, 0.9)
        } else {
            1.0
        };
        let scale = NOMINAL_S / crate::stats::median(&self.cals) * running;
        self.cals = vec![last];
        self.since = now;
        self.scales.push(scale);
        scale
    }
}
