//! Timing scaled to a reference host speed.
//!
//! The benchmark runs on shared hosts whose CPUs change speed under it:
//! at times the same code runs 1.4–1.7× slower than at others, in periods
//! from a fraction of a second to minutes, and the thread's own CPU time
//! slows just as much as its wall time. A timing taken in a slow period
//! says more about the neighbours than about the program.
//!
//! So every timed operation is bracketed by a fixed kernel: benchmark
//! code that no change to the repository can make faster or slower. It
//! allocates nothing after its first run, so the program's use of the
//! allocator does not change its speed either. The kernel runs just
//! before and just after the operation, and the operation's wall time is
//! scaled by [`KERNEL_REF_MS`] over the kernel's mean time around it. The
//! result is in milliseconds at the speed the reference host has when it
//! is quiet; both the raw and the scaled time are kept.

use std::hint::black_box;
use std::time::{Duration, Instant};

use crate::stats::Rng;

/// The kernel's time on a quiet 2-vCPU Intel Xeon at 2.1 GHz, in a
/// release build.
pub const KERNEL_REF_MS: f64 = 0.135;

/// Nodes of the kernel's graph.
const NODES: usize = 1024;
/// Edges out of each node.
const DEGREE: usize = 4;
/// Slots of the kernel's hash table: a power of two, at least twice the
/// number of distinct edges.
const SLOTS: usize = 8192;
const KERNEL_TAG: u64 = 0x5eed;
/// The shortest calibration: a few kernel runs, so that one run's noise
/// does not set the scale of a short operation.
const MIN_CALIBRATION: Duration = Duration::from_micros(500);

/// A fixed piece of work with the mix a compile has: hashing into a
/// growing table, a depth-first walk over a random graph and a sort, on
/// about 150 KB of its own memory. One run takes about 0.13 ms.
pub struct Kernel {
    edges: Vec<u32>,
    /// Open addressing: `id << 32 | key`, 0 for an empty slot.
    slots: Vec<u64>,
    seen: Vec<bool>,
    stack: Vec<u32>,
    order: Vec<u64>,
}

impl Kernel {
    pub fn new() -> Kernel {
        Kernel {
            edges: vec![0; NODES * DEGREE],
            slots: vec![0; SLOTS],
            seen: vec![false; NODES],
            stack: Vec::with_capacity(NODES * DEGREE + 1),
            order: Vec::with_capacity(NODES * (DEGREE + 1)),
        }
    }

    /// One run; the result depends only on `seed`.
    pub fn run(&mut self, seed: u64) -> u64 {
        let mut rng = Rng::stream(seed, KERNEL_TAG);
        for edge in &mut self.edges {
            *edge = rng.below(NODES as u64) as u32;
        }
        self.slots.fill(0);
        self.seen.fill(false);
        self.stack.clear();
        self.order.clear();
        self.stack.push(0);
        let mut ids = 0u64;
        while let Some(node) = self.stack.pop() {
            let node = node as usize;
            if std::mem::replace(&mut self.seen[node], true) {
                continue;
            }
            self.order.push(node as u64);
            for &next in &self.edges[node * DEGREE..(node + 1) * DEGREE] {
                let (a, b) = (node as u64, u64::from(next));
                let key = (a.min(b) << 10 | a.max(b)) + 1;
                let mut slot = (key.wrapping_mul(0x9e37_79b9_7f4a_7c15) >> 51) as usize;
                let id = loop {
                    match self.slots[slot] {
                        0 => {
                            self.slots[slot] = ids << 32 | key;
                            ids += 1;
                            break ids - 1;
                        }
                        entry if entry & 0xffff_ffff == key => break entry >> 32,
                        _ => slot = (slot + 1) % SLOTS,
                    }
                };
                if !self.seen[next as usize] {
                    self.stack.push(next);
                }
                self.order.push(id << 32 | u64::from(next));
            }
        }
        self.order.sort_unstable();
        self.order.iter().fold(ids, |h, &x| h.rotate_left(5) ^ x)
    }
}

/// Measures the host's speed with the kernel and scales wall times by it.
pub struct Speedometer {
    kernel: Kernel,
    /// Mean kernel time of the latest calibration, in milliseconds.
    last_ms: f64,
    runs: u64,
    /// Sums over every timed operation so far.
    wall_ms: f64,
    scaled_ms: f64,
}

/// An operation's result with its wall time and its scaled time.
pub struct Timed<T> {
    pub value: T,
    pub wall_ms: f64,
    /// `wall_ms` at the reference speed.
    pub ms: f64,
}

impl Speedometer {
    pub fn new() -> Speedometer {
        let mut meter = Speedometer {
            kernel: Kernel::new(),
            last_ms: KERNEL_REF_MS,
            runs: 0,
            wall_ms: 0.0,
            scaled_ms: 0.0,
        };
        meter.calibrate(Duration::from_millis(5));
        meter
    }

    fn run_kernel(&mut self) {
        black_box(self.kernel.run(black_box(self.runs)));
        self.runs += 1;
    }

    /// Runs the kernel back to back for about `budget` (at least
    /// [`MIN_CALIBRATION`]) and records its mean time: the speed the next
    /// [`Speedometer::time`] starts from. A first, untimed run brings the
    /// kernel's memory back into cache, so that how much of the cache the
    /// operation before used does not count.
    pub fn calibrate(&mut self, budget: Duration) -> f64 {
        self.run_kernel();
        let started = Instant::now();
        let mut reps = 0u32;
        while reps == 0 || started.elapsed() < budget.max(MIN_CALIBRATION) {
            self.run_kernel();
            reps += 1;
        }
        self.last_ms = started.elapsed().as_secs_f64() * 1e3 / f64::from(reps);
        self.last_ms
    }

    /// Times `op`, then calibrates for a twentieth of its time; the scale
    /// is the mean of this calibration and the one before `op`.
    pub fn time<T>(&mut self, op: impl FnOnce() -> T) -> Timed<T> {
        let before = self.last_ms;
        let started = Instant::now();
        let value = op();
        let wall = started.elapsed();
        let after = self.calibrate(wall / 20);
        let wall_ms = wall.as_secs_f64() * 1e3;
        let ms = wall_ms * KERNEL_REF_MS * 2.0 / (before + after);
        self.wall_ms += wall_ms;
        self.scaled_ms += ms;
        Timed { value, wall_ms, ms }
    }

    /// The host's speed relative to the reference, averaged over every
    /// operation timed so far: below 1 when the host ran slower.
    pub fn relative_speed(&self) -> f64 {
        if self.wall_ms > 0.0 {
            self.scaled_ms / self.wall_ms
        } else {
            1.0
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_kernel_is_a_pure_function_of_its_seed() {
        let mut kernel = Kernel::new();
        let a = kernel.run(3);
        assert_eq!(a, kernel.run(3));
        assert_eq!(a, Kernel::new().run(3));
        assert_ne!(a, kernel.run(4));
    }

    #[test]
    fn scaled_time_is_wall_time_over_relative_speed() {
        let mut meter = Speedometer::new();
        let timed = meter.time(|| std::thread::sleep(Duration::from_millis(20)));
        assert!(timed.wall_ms >= 20.0);
        assert!(timed.ms > 0.0);
        let speed = timed.wall_ms / timed.ms;
        // The kernel ran at a speed within a sane range of the reference.
        assert!((0.01..100.0).contains(&speed), "{speed}");
    }
}
