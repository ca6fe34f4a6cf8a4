//! Host-speed calibration.
//!
//! On a shared host the speed a run gets changes by tens of percent over
//! seconds to minutes, and a slow spell stretches the fixed set-up work as
//! much as the queries. To keep that out of the timing metrics, a run
//! interleaves short bursts of a fixed kernel with its measured work. The
//! kernel is harness code only, with no library call, so no change to the
//! program under test can make it faster or slower. It does the kinds of
//! work whose speed moved together with query latency in trial runs:
//! f32 nearest-centroid scans (distance computations) and MiB-sized
//! copies and reads (VO encoding and decoding). Dependent loads and
//! integer mixing were tried too; their times barely moved when query
//! latency did, so they are not part of it. Its buffers add about
//! 4.3 MiB to the run's peak memory.
//!
//! Every timing metric is reported at the reference speed at which a
//! timed pass takes [`REFERENCE_MS`]: `measured × REFERENCE_MS / median
//! pass`. Host speed also changes within a run, so a query is scaled by
//! the median of the [`NEIGHBOURS`] passes nearest to it in time, and a
//! stretch of the loop's clock by that of the passes around it; set-up,
//! before the first pass, is scaled by the median of the run. The
//! measured timings and the median pass are printed beside them. In trial
//! runs a pass slowed down by about half as much as the queries in the
//! same slow spell, so scaling takes out about half of a slowdown.

use crate::stats::Samples;
use imageproof_obs::Stopwatch;
use std::hint::black_box;

/// Milliseconds a timed pass takes at the reference speed (about its
/// median on the 2-vCPU x86-64 VM the benchmark was tuned on).
pub const REFERENCE_MS: f64 = 1.5;
/// Seconds between two bursts in the measured loop (about 1.5% overhead).
pub const EVERY_S: f64 = 0.2;
/// Bursts run right after set-up, before the measured loop.
pub const INITIAL_BURSTS: usize = 10;
/// Passes whose median scales one point in time (about 2 s of the loop).
pub const NEIGHBOURS: usize = 9;

const DIM: usize = 64;
/// 1 024 centroids of 64 f32s: 256 KiB, within a core's L2.
const CENTROIDS: usize = 1024;
const SCANS: usize = 16;
/// Source and destination of the copies: 2 MiB each, together more than
/// a core's L2, so the copies run at shared-cache speed.
const COPY_BYTES: usize = 2 << 20;
const COPIES: usize = 3;

/// One burst, in seconds since the calibration was made, and its timed
/// pass in milliseconds.
#[derive(Clone, Copy, Debug)]
struct Burst {
    start_s: f64,
    end_s: f64,
    pass_ms: f64,
}

pub struct Calibration {
    centroids: Vec<f32>,
    src: Vec<u8>,
    dst: Vec<u8>,
    epoch: Stopwatch,
    /// In time order.
    bursts: Vec<Burst>,
    spent_s: f64,
}

fn median_pass(bursts: &[Burst]) -> f64 {
    let mut passes = Samples::default();
    for b in bursts {
        passes.push(b.pass_ms);
    }
    passes.median()
}

impl Default for Calibration {
    fn default() -> Self {
        Self::new()
    }
}

impl Calibration {
    pub fn new() -> Calibration {
        let mut x: u64 = 0x9e37_79b9_7f4a_7c15;
        let mut next = move || {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x
        };
        let centroids = (0..DIM * CENTROIDS)
            .map(|_| (next() >> 40) as f32 / (1u64 << 24) as f32)
            .collect();
        let src = (0..COPY_BYTES).map(|_| next() as u8).collect();
        Calibration {
            centroids,
            src,
            dst: vec![0; COPY_BYTES],
            epoch: Stopwatch::start(),
            bursts: Vec::new(),
            spent_s: 0.0,
        }
    }

    /// Runs the kernel twice and records the time of the second pass. The
    /// first pass brings the kernel's buffers back into cache, so what the
    /// measured work left in the caches does not change the timed pass.
    pub fn burst(&mut self) {
        let start_s = self.now();
        black_box(self.kernel());
        let sw = Stopwatch::start();
        black_box(self.kernel());
        let pass_ms = sw.elapsed_seconds() * 1e3;
        self.record(start_s, self.now(), pass_ms);
    }

    fn record(&mut self, start_s: f64, end_s: f64, pass_ms: f64) {
        self.bursts.push(Burst {
            start_s,
            end_s,
            pass_ms,
        });
        self.spent_s += end_s - start_s;
    }

    /// Runs a burst when [`EVERY_S`] seconds have passed since the last.
    pub fn tick(&mut self) {
        let last_end = self.bursts.last().map_or(f64::NEG_INFINITY, |b| b.end_s);
        if self.now() - last_end >= EVERY_S {
            self.burst();
        }
    }

    /// Seconds since the calibration was made: the clock of
    /// [`Calibration::factor_at`] and [`Calibration::scaled_seconds`].
    pub fn now(&self) -> f64 {
        self.epoch.elapsed_seconds()
    }

    /// Seconds spent in bursts so far (both passes).
    pub fn spent_s(&self) -> f64 {
        self.spent_s
    }

    pub fn len(&self) -> usize {
        self.bursts.len()
    }

    /// Median time of a timed pass over the whole run, in milliseconds.
    pub fn median_ms(&self) -> f64 {
        median_pass(&self.bursts)
    }

    /// What a time measured in this run is multiplied by to express it at
    /// the reference speed, from the whole run's passes.
    pub fn factor(&self) -> f64 {
        REFERENCE_MS / self.median_ms()
    }

    /// The same from the [`NEIGHBOURS`] bursts nearest to time `t` (all of
    /// them if there are fewer).
    pub fn factor_at(&self, t: f64) -> f64 {
        let n = self.bursts.len();
        let k = NEIGHBOURS.min(n);
        // The k-wide window of bursts (in time order) nearest to t.
        let mut lo = self
            .bursts
            .partition_point(|b| b.start_s < t)
            .saturating_sub(k / 2);
        lo = lo.min(n - k);
        while lo > 0 && t - self.bursts[lo - 1].end_s < self.bursts[lo + k - 1].start_s - t {
            lo -= 1;
        }
        while lo + k < n && self.bursts[lo + k].start_s - t < t - self.bursts[lo].end_s {
            lo += 1;
        }
        REFERENCE_MS / median_pass(&self.bursts[lo..lo + k])
    }

    /// Seconds from `from` to `to` with the bursts left out, each stretch
    /// between two bursts multiplied by the factor at its middle.
    pub fn scaled_seconds(&self, from: f64, to: f64) -> f64 {
        let mut total = 0.0;
        let mut start = from;
        let stops = self
            .bursts
            .iter()
            .filter(|b| b.end_s > from && b.start_s < to)
            .map(|b| (b.start_s, b.end_s))
            .chain([(to, to)]);
        for (stop, resume) in stops {
            let end = stop.min(to);
            if end > start {
                total += (end - start) * self.factor_at((start + end) / 2.0);
            }
            start = start.max(resume);
        }
        total
    }

    /// One pass: no heap allocation, so the kernel leaves the allocator's
    /// state (and with it the program's allocations) alone.
    fn kernel(&mut self) -> u64 {
        // The nearest centroid to each of the first few centroids.
        let mut nearest = 0usize;
        for q in 0..SCANS {
            let query = &self.centroids[q * DIM..(q + 1) * DIM];
            let mut best = f32::INFINITY;
            for (c, centroid) in self.centroids.chunks_exact(DIM).enumerate() {
                let d: f32 = query
                    .iter()
                    .zip(centroid)
                    .map(|(a, b)| (a - b) * (a - b))
                    .sum();
                if d < best && c != q {
                    best = d;
                    nearest ^= c;
                }
            }
        }
        // Copies, each read back one byte per cache line.
        let mut sum = nearest as u64;
        for _ in 0..COPIES {
            self.dst.copy_from_slice(black_box(&self.src));
            sum += black_box(&self.dst)
                .iter()
                .step_by(64)
                .map(|&b| b as u64)
                .sum::<u64>();
        }
        sum
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ticks_space_bursts_and_factor_scales_to_reference() {
        let mut cal = Calibration::new();
        cal.burst();
        cal.tick();
        assert_eq!(cal.len(), 1, "a tick right after a burst runs nothing");
        let m = cal.median_ms();
        assert!(m > 0.0 && cal.spent_s() > 0.0);
        assert!((cal.factor() * m - REFERENCE_MS).abs() < 1e-9);
    }

    /// Twenty bursts of 0.1 s, one a second; passes take 1 ms in the
    /// first ten seconds and 2 ms after.
    fn two_speeds() -> Calibration {
        let mut cal = Calibration::new();
        for i in 0..20 {
            let t = i as f64;
            cal.record(t, t + 0.1, if i < 10 { 1.0 } else { 2.0 });
        }
        cal
    }

    #[test]
    fn factor_at_follows_the_nearby_passes() {
        let cal = two_speeds();
        assert_eq!(cal.factor_at(-5.0), REFERENCE_MS);
        assert_eq!(cal.factor_at(2.5), REFERENCE_MS);
        assert_eq!(cal.factor_at(17.0), REFERENCE_MS / 2.0);
        assert_eq!(cal.factor_at(99.0), REFERENCE_MS / 2.0);
        // The whole run's median sits between the two speeds.
        assert_eq!(cal.factor(), REFERENCE_MS / 1.5);
        let few = {
            let mut c = Calibration::new();
            c.record(0.0, 0.1, 4.0);
            c
        };
        assert_eq!(few.factor_at(50.0), REFERENCE_MS / 4.0);
    }

    #[test]
    fn scaled_seconds_leave_bursts_out_and_scale_each_stretch() {
        let cal = two_speeds();
        // 0.1..1.0 and 1.1..2.0 at the first speed.
        let early = cal.scaled_seconds(0.1, 2.0);
        assert!((early - 1.8 * REFERENCE_MS).abs() < 1e-9, "{early}");
        // 17.1..18.0 at the second.
        let late = cal.scaled_seconds(17.05, 18.0);
        assert!((late - 0.9 * REFERENCE_MS / 2.0).abs() < 1e-9, "{late}");
    }
}
