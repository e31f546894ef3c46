//! Calibration of the DTT/QDTT models against a device (§4.4–§4.6).
//!
//! For each `(band_size, queue_depth)` grid point, the calibrator reads
//! `P = min(band, M)` pages at non-repeating uniform-random offsets within
//! each block (M = 3200 caps the per-point work), sustaining the target
//! queue depth with one of three generators:
//!
//! * **Threads(n)** — n synchronous-read loops: any completion immediately
//!   triggers the next read, so the queue depth is held constant at n;
//! * **GW(n)** — *group waiting*: issue n asynchronous reads, wait for all
//!   of them, repeat;
//! * **AW(n)** — *active waiting*: a ring of n slots; wait for the oldest
//!   read (in issue order), reissue into its slot.
//!
//! On SSD, GW ≈ AW (completions cluster, so waiting for the group costs
//! nothing extra). On HDD/RAID, per-I/O latency grows with queue depth, so
//! GW's barrier drains the queue and under-drives the device: AW < GW —
//! the paper's Figs. 9–11, and the reason AW is the method of choice for a
//! device-agnostic calibrator (§4.4).
//!
//! §4.6's early-stop: calibrate queue depth 1 fully; at each doubled depth,
//! measure the largest band first and stop if the improvement over the
//! previous depth is under `T` = 20%, defaulting the remaining points to
//! slightly above the depth-1 costs.

use crate::dtt::Dtt;
use crate::qdtt::Qdtt;
use pioqo_device::{DeviceModel, IoRequest, IoStatus};
use pioqo_simkit::{SimDuration, SimRng, SimTime};
use serde::{Deserialize, Serialize};
use std::collections::VecDeque;

/// The queue-depth generator used while measuring a point.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Method {
    /// n synchronous-read worker loops.
    Threads,
    /// Group waiting (issue n, wait all).
    GroupWait,
    /// Active waiting (ring of n, wait oldest).
    ActiveWait,
}

/// Calibration parameters.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct CalibrationConfig {
    /// Band sizes to calibrate (ascending). [`CalibrationConfig::for_device`]
    /// picks an exponential ladder up to the device size.
    pub band_sizes: Vec<u64>,
    /// Queue depths to calibrate (ascending); §4.5 justifies {1,2,4,8,16,32}
    /// plus bilinear interpolation for the rest.
    pub queue_depths: Vec<u32>,
    /// Cap on page reads per calibration point (the paper's M = 3200).
    pub max_reads: u64,
    /// Queue-depth generator.
    pub method: Method,
    /// Repetitions averaged per point (the paper uses 50 for Fig. 9).
    pub repetitions: u32,
    /// §4.6 early-stop threshold in percent (`Some(20.0)` = the paper's T);
    /// `None` calibrates every point.
    pub early_stop_pct: Option<f64>,
    /// Factor applied to the depth-1 cost when filling stopped-out points
    /// ("a default value slightly larger than the measured costs for queue
    /// depth one").
    pub stop_fill_factor: f64,
    /// RNG seed for offset sequences.
    pub seed: u64,
}

impl CalibrationConfig {
    /// A paper-faithful configuration for a device of `capacity_pages`:
    /// band ladder 64, 256, ..., capacity; depths {1,2,4,8,16,32}; M = 3200;
    /// active waiting; T = 20%.
    pub fn for_device(capacity_pages: u64, seed: u64) -> CalibrationConfig {
        // Band 1 is the sequential-I/O anchor of the DTT model (§4.1);
        // the ladder then grows exponentially to the device size.
        let mut band_sizes = vec![1u64];
        let mut b = 64u64;
        while b < capacity_pages {
            band_sizes.push(b);
            b *= 4;
        }
        band_sizes.push(capacity_pages);
        CalibrationConfig {
            band_sizes,
            queue_depths: vec![1, 2, 4, 8, 16, 32],
            max_reads: 3200,
            method: Method::ActiveWait,
            repetitions: 1,
            early_stop_pct: Some(20.0),
            stop_fill_factor: 1.02,
            seed,
        }
    }
}

/// What a calibration run did, alongside the model it produced.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct CalibrationReport {
    /// Grid points actually measured.
    pub points_measured: u64,
    /// Grid points filled by the §4.6 early stop.
    pub points_defaulted: u64,
    /// Total page reads issued.
    pub total_reads: u64,
    /// Total virtual time spent reading.
    pub virtual_duration: SimDuration,
    /// The queue depth at which the early stop fired (if it did).
    pub stopped_at_qd: Option<u32>,
}

/// Calibrates [`Dtt`] / [`Qdtt`] models against a [`DeviceModel`].
pub struct Calibrator {
    cfg: CalibrationConfig,
}

impl Calibrator {
    /// A calibrator with the given configuration.
    pub fn new(cfg: CalibrationConfig) -> Calibrator {
        assert!(!cfg.band_sizes.is_empty() && !cfg.queue_depths.is_empty());
        assert!(cfg.max_reads >= 1);
        Calibrator { cfg }
    }

    /// The configuration.
    pub fn config(&self) -> &CalibrationConfig {
        &self.cfg
    }

    /// Calibrate the full QDTT grid (with early stopping if configured):
    /// one device, one rng and one clock threaded through every point.
    pub fn calibrate_qdtt(&self, dev: &mut dyn DeviceModel) -> (Qdtt, CalibrationReport) {
        let mut clock = PointClock::default();
        let mut rng = SimRng::seeded(self.cfg.seed);
        self.walk_grid(|_, qd, band_idx, report| {
            band_idx
                .iter()
                .map(|&bi| {
                    let band = self.cfg.band_sizes[bi];
                    report.points_measured += 1;
                    self.measure_avg(dev, band, qd, &mut rng, &mut clock, report)
                })
                .collect()
        })
    }

    /// The §4.6 walk both calibrations share: depths ascending; within a
    /// depth the largest band first; past depth one, stop when that band
    /// improves on the previous depth by less than `early_stop_pct` and
    /// fill every unmeasured point from the depth-1 row times
    /// `stop_fill_factor`. `measure(qi, qd, band_idx, report)` returns one
    /// cost per band index, in the order given, and accounts for its reads
    /// in `report`; it is called once per depth with the largest band
    /// alone and, if the walk goes on, once with the rest descending.
    fn walk_grid(
        &self,
        mut measure: impl FnMut(usize, u32, &[usize], &mut CalibrationReport) -> Vec<f64>,
    ) -> (Qdtt, CalibrationReport) {
        let bands = &self.cfg.band_sizes;
        let qds = &self.cfg.queue_depths;
        let nb = bands.len();
        let mut grid = vec![f64::NAN; nb * qds.len()];
        let mut report = CalibrationReport::default();
        let rest: Vec<usize> = (0..nb - 1).rev().collect();

        for (qi, &qd) in qds.iter().enumerate() {
            let cost = measure(qi, qd, &[nb - 1], &mut report)[0];
            grid[qi * nb + (nb - 1)] = cost;
            if let (true, Some(t_pct)) = (qi > 0, self.cfg.early_stop_pct) {
                let prev = grid[(qi - 1) * nb + (nb - 1)];
                let improvement = (prev - cost) / prev * 100.0;
                if improvement < t_pct {
                    report.stopped_at_qd = Some(qd);
                    for qj in qi..qds.len() {
                        for bj in 0..nb {
                            let fill = grid[bj] * self.cfg.stop_fill_factor;
                            let cell = &mut grid[qj * nb + bj];
                            if cell.is_nan() {
                                *cell = fill;
                                report.points_defaulted += 1;
                            }
                        }
                    }
                    break;
                }
            }
            let costs = measure(qi, qd, &rest, &mut report);
            for (&bi, cost) in rest.iter().zip(costs) {
                grid[qi * nb + bi] = cost;
            }
        }
        debug_assert!(grid.iter().all(|c| !c.is_nan()));
        (Qdtt::new(bands.clone(), qds.clone(), grid), report)
    }

    /// Calibrate the full QDTT grid in parallel, one fresh device per point.
    ///
    /// The parallel analogue of [`Calibrator::calibrate_qdtt`]:
    /// `make_device` builds an identical cold device for every grid point,
    /// each point draws its offsets from an rng derived purely from the
    /// config seed and the point's grid coordinates
    /// ([`SimRng::derive`]), and the per-point work fans out over
    /// [`pioqo_simkit::par::par_map`]. The walk is the sequential one, so
    /// the §4.6 early stop measures and skips exactly the same points.
    ///
    /// Because points no longer thread one rng/device/clock through the
    /// grid, the measured values differ numerically from
    /// [`Calibrator::calibrate_qdtt`] — but they are identical at every
    /// thread count, which is the invariant the harness enforces.
    pub fn calibrate_qdtt_with<D, F>(&self, make_device: F) -> (Qdtt, CalibrationReport)
    where
        D: DeviceModel,
        F: Fn() -> D + Sync,
    {
        let bands = &self.cfg.band_sizes;
        let nb = bands.len();
        self.walk_grid(|qi, qd, band_idx, report| {
            // One derivation base per row. Within it the largest band
            // draws stream `nb - 1` and the rest, measured descending,
            // streams 0, 1, ...: a unique (base, stream) per grid point.
            let row_seed = self
                .cfg
                .seed
                .wrapping_add((qi as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15));
            let stream = |bi: usize| (if bi == nb - 1 { bi } else { nb - 2 - bi }) as u64;
            let results = pioqo_simkit::par::par_map(row_seed, band_idx, |_, &bi| {
                let rng = SimRng::derive(row_seed, stream(bi));
                self.measure_fresh(&make_device, bands[bi], qd, rng)
            });
            results
                .iter()
                .map(|(cost, local)| {
                    merge_report(report, local);
                    *cost
                })
                .collect()
        })
    }

    /// Parallel analogue of [`Calibrator::calibrate_dtt`]: every band is
    /// measured on a fresh device from `make_device` with a derived rng,
    /// fanned out over [`pioqo_simkit::par::par_map`].
    pub fn calibrate_dtt_with<D, F>(&self, make_device: F) -> (Dtt, CalibrationReport)
    where
        D: DeviceModel,
        F: Fn() -> D + Sync,
    {
        let mut report = CalibrationReport::default();
        let bands: Vec<u64> = self.cfg.band_sizes.iter().rev().copied().collect();
        let results = pioqo_simkit::par::par_map(self.cfg.seed, &bands, |rng, &band| {
            self.measure_fresh(&make_device, band, 1, rng)
        });
        let points = bands
            .iter()
            .zip(&results)
            .map(|(&band, (cost, local))| {
                merge_report(&mut report, local);
                (band, *cost)
            })
            .collect();
        (Dtt::new(points), report)
    }

    /// Measure one point on a freshly built device with its own clock —
    /// the unit of work `calibrate_*_with` hands to worker threads.
    fn measure_fresh<D, F>(
        &self,
        make_device: &F,
        band: u64,
        qd: u32,
        mut rng: SimRng,
    ) -> (f64, CalibrationReport)
    where
        D: DeviceModel,
        F: Fn() -> D + Sync,
    {
        let mut dev = make_device();
        let mut clock = PointClock::default();
        let mut local = CalibrationReport::default();
        let cost = self.measure_avg(&mut dev, band, qd, &mut rng, &mut clock, &mut local);
        local.points_measured = 1;
        (cost, local)
    }

    /// Calibrate only the DTT (queue depth 1).
    pub fn calibrate_dtt(&self, dev: &mut dyn DeviceModel) -> (Dtt, CalibrationReport) {
        let mut report = CalibrationReport::default();
        let mut clock = PointClock::default();
        let mut rng = SimRng::seeded(self.cfg.seed);
        let points = self
            .cfg
            .band_sizes
            .iter()
            .rev()
            .map(|&b| {
                let c = self.measure_avg(dev, b, 1, &mut rng, &mut clock, &mut report);
                report.points_measured += 1;
                (b, c)
            })
            .collect();
        (Dtt::new(points), report)
    }

    /// Measure one `(band, qd)` point: amortized µs per page read, averaged
    /// over the configured repetitions.
    pub fn measure_point(&self, dev: &mut dyn DeviceModel, band: u64, qd: u32) -> f64 {
        let mut report = CalibrationReport::default();
        let mut clock = PointClock::default();
        let mut rng = SimRng::seeded(self.cfg.seed ^ band.rotate_left(17) ^ qd as u64);
        self.measure_avg(dev, band, qd, &mut rng, &mut clock, &mut report)
    }

    fn measure_avg(
        &self,
        dev: &mut dyn DeviceModel,
        band: u64,
        qd: u32,
        rng: &mut SimRng,
        clock: &mut PointClock,
        report: &mut CalibrationReport,
    ) -> f64 {
        let mut total = 0.0;
        for _ in 0..self.cfg.repetitions.max(1) {
            total += self.measure_once(dev, band, qd, rng, clock, report);
        }
        total / self.cfg.repetitions.max(1) as f64
    }

    /// One measurement: the paper's block-division scheme (§4.4).
    fn measure_once(
        &self,
        dev: &mut dyn DeviceModel,
        band: u64,
        qd: u32,
        rng: &mut SimRng,
        clock: &mut PointClock,
        report: &mut CalibrationReport,
    ) -> f64 {
        dev.reset_state();
        let offsets = point_offsets(self.cfg.max_reads, dev.capacity_pages(), band, rng);
        let elapsed = run_point_ios(dev, &offsets, qd, self.cfg.method, clock);
        report.total_reads += offsets.len() as u64;
        report.virtual_duration += elapsed;
        elapsed.as_micros_f64() / offsets.len() as f64
    }
}

/// The §4.4 block-division offset schedule of one calibration point:
/// `min(band, m)` distinct random pages in each of up to `m / band`
/// consecutive band-sized blocks (random placement of the run), `m` reads
/// at most. Shared with [`crate::real_calibrate`].
pub(crate) fn point_offsets(m: u64, file_pages: u64, band: u64, rng: &mut SimRng) -> Vec<u64> {
    let band = band.min(file_pages).max(1);
    // Reads per block and number of blocks, total capped at M.
    let per_block = band.min(m);
    let n_blocks = if band >= m {
        1
    } else {
        (m / per_block).min(file_pages / band).max(1)
    };
    let mut offsets: Vec<u64> = Vec::with_capacity((per_block * n_blocks) as usize);
    if n_blocks == 1 {
        // One block of `band` pages at a random aligned start.
        let start = if file_pages > band {
            rng.below(file_pages - band + 1)
        } else {
            0
        };
        rng.distinct_below_into(band, per_block as usize, &mut offsets);
        offsets.iter_mut().for_each(|off| *off += start);
    } else {
        // The file is tiled into band-sized blocks; visit `n_blocks`
        // *consecutive* blocks one at a time (random placement of the
        // run). Consecutive blocks make band = 1 degenerate into pure
        // sequential I/O, which is exactly the DTT's definition of a
        // band-1 access pattern (§4.1).
        let tiles = file_pages / band;
        let first_tile = if tiles > n_blocks {
            rng.below(tiles - n_blocks + 1)
        } else {
            0
        };
        for tile in first_tile..first_tile + n_blocks {
            let base = offsets.len();
            rng.distinct_below_into(band, per_block as usize, &mut offsets);
            offsets[base..]
                .iter_mut()
                .for_each(|off| *off += tile * band);
        }
    }
    offsets
}

/// Fold one per-point report into the aggregate (order-independent sums,
/// so the merge order cannot leak thread scheduling into the result).
fn merge_report(into: &mut CalibrationReport, from: &CalibrationReport) {
    into.points_measured += from.points_measured;
    into.points_defaulted += from.points_defaulted;
    into.total_reads += from.total_reads;
    into.virtual_duration += from.virtual_duration;
}

/// Monotonic clock shared across calibration points (device pipeline state
/// never moves backwards).
#[derive(Default)]
struct PointClock {
    now: SimTime,
}

/// Drive `offsets` page reads through `dev` at queue depth `qd` with
/// `method`; returns the elapsed virtual time.
fn run_point_ios(
    dev: &mut dyn DeviceModel,
    offsets: &[u64],
    qd: u32,
    method: Method,
    clock: &mut PointClock,
) -> SimDuration {
    let qd = qd.max(1) as usize;
    let start = clock.now;
    let mut now = start;
    let mut out = Vec::new();
    let mut next = 0usize;
    let issue = |dev: &mut dyn DeviceModel, now: SimTime, next: &mut usize| -> u64 {
        let id = *next as u64;
        dev.submit(now, IoRequest::page(id, offsets[*next]));
        *next += 1;
        id
    };

    match method {
        Method::GroupWait => {
            while next < offsets.len() {
                let group_end = (next + qd).min(offsets.len());
                while next < group_end {
                    issue(dev, now, &mut next);
                }
                // Wait for the whole group.
                while dev.outstanding() > 0 {
                    let t = dev.next_event().expect("busy device");
                    out.clear();
                    dev.advance(t, &mut out);
                    now = t;
                    debug_assert!(out.iter().all(|c| c.status == IoStatus::Ok));
                }
            }
        }
        Method::ActiveWait => {
            // Request ids are `0..offsets.len()`, so completion is a flag
            // per id.
            let mut completed = vec![false; offsets.len()];
            let mut ring: VecDeque<u64> = VecDeque::with_capacity(qd);
            while next < offsets.len().min(qd) {
                ring.push_back(issue(dev, now, &mut next));
            }
            while let Some(oldest) = ring.pop_front() {
                // Wait for the *oldest* read specifically.
                while !completed[oldest as usize] {
                    let t = dev.next_event().expect("busy device");
                    out.clear();
                    dev.advance(t, &mut out);
                    now = t;
                    for c in &out {
                        debug_assert!(c.status == IoStatus::Ok);
                        if let Some(done) = completed.get_mut(c.req.id as usize) {
                            *done = true;
                        }
                    }
                }
                if next < offsets.len() {
                    ring.push_back(issue(dev, now, &mut next));
                }
            }
        }
        Method::Threads => {
            // Any completion immediately triggers the next read.
            while next < offsets.len().min(qd) {
                issue(dev, now, &mut next);
            }
            while dev.outstanding() > 0 {
                let t = dev.next_event().expect("busy device");
                out.clear();
                let before = out.len();
                dev.advance(t, &mut out);
                now = t;
                for _ in before..out.len() {
                    if next < offsets.len() {
                        issue(dev, now, &mut next);
                    }
                }
            }
        }
    }
    // Drain stragglers (GW/Threads exit with the device idle; AW may not).
    while dev.outstanding() > 0 {
        let t = dev.next_event().expect("busy device");
        out.clear();
        dev.advance(t, &mut out);
        now = t;
    }
    clock.now = now;
    now - start
}

#[cfg(test)]
mod tests {
    use super::*;
    use pioqo_device::presets::{consumer_pcie_ssd, hdd_7200, raid_15k};

    fn small_cfg(method: Method) -> CalibrationConfig {
        CalibrationConfig {
            band_sizes: vec![64, 4096, 1 << 18],
            queue_depths: vec![1, 2, 4, 8, 16, 32],
            max_reads: 400,
            method,
            repetitions: 1,
            early_stop_pct: None,
            stop_fill_factor: 1.02,
            seed: 5,
        }
    }

    #[test]
    fn ssd_costs_fall_with_queue_depth() {
        let mut dev = consumer_pcie_ssd(1 << 18, 1);
        let cal = Calibrator::new(small_cfg(Method::ActiveWait));
        let (m, report) = cal.calibrate_qdtt(&mut dev);
        assert_eq!(report.points_measured, 18);
        assert_eq!(report.points_defaulted, 0);
        let c1 = m.cost(1 << 18, 1);
        let c32 = m.cost(1 << 18, 32);
        assert!(
            c32 < c1 / 4.0,
            "SSD qd32 should be far cheaper than qd1: {c1} vs {c32}"
        );
    }

    #[test]
    fn hdd_early_stop_fires_and_fills_defaults() {
        let mut dev = hdd_7200(1 << 18, 1);
        let mut cfg = small_cfg(Method::ActiveWait);
        cfg.early_stop_pct = Some(20.0);
        let cal = Calibrator::new(cfg);
        let (m, report) = cal.calibrate_qdtt(&mut dev);
        assert!(
            report.stopped_at_qd.is_some(),
            "single-spindle HDD should trip the early stop"
        );
        assert!(report.points_defaulted > 0);
        // Defaulted points sit slightly above the depth-1 cost.
        let c1 = m.cost(1 << 18, 1);
        let c32 = m.cost(1 << 18, 32);
        assert!(c32 >= c1 * 0.8 && c32 <= c1 * 1.3);
    }

    #[test]
    fn raid_does_not_stop_early() {
        // An 8-spindle array keeps improving >20% per depth doubling while
        // queue depth is at or below 2x the spindle count; past that the
        // array saturates and stopping is correct, so the grid tops out at
        // qd 16 here.
        let mut dev = raid_15k(8, 1 << 18, 1);
        let mut cfg = small_cfg(Method::ActiveWait);
        cfg.queue_depths = vec![1, 2, 4, 8, 16];
        cfg.early_stop_pct = Some(20.0);
        let cal = Calibrator::new(cfg);
        let (_, report) = cal.calibrate_qdtt(&mut dev);
        assert_eq!(
            report.stopped_at_qd, None,
            "8 spindles keep improving past 20% through qd 16"
        );
    }

    #[test]
    fn gw_aw_gap_small_on_ssd_large_on_raid() {
        // Figs. 10 vs 11: the AW-GW difference on SSD is a few µs
        // (negligible next to the per-point σ); on a spindle array AW is
        // *substantially* cheaper because GW's barrier drains the queue
        // while per-I/O latency grows with depth.
        let band = 1 << 16;
        let qd = 16;
        let gw = Calibrator::new(small_cfg(Method::GroupWait));
        let aw = Calibrator::new(small_cfg(Method::ActiveWait));

        let mut s1 = consumer_pcie_ssd(1 << 18, 1);
        let mut s2 = consumer_pcie_ssd(1 << 18, 1);
        let ssd_gap =
            (gw.measure_point(&mut s1, band, qd) - aw.measure_point(&mut s2, band, qd)).abs();

        let mut r1 = raid_15k(8, 1 << 18, 1);
        let mut r2 = raid_15k(8, 1 << 18, 1);
        let raid_gap =
            (gw.measure_point(&mut r1, band, qd) - aw.measure_point(&mut r2, band, qd)).abs();

        assert!(
            ssd_gap < 15.0,
            "SSD AW-GW gap should be a few µs: {ssd_gap}"
        );
        assert!(
            raid_gap > 5.0 * ssd_gap,
            "RAID gap ({raid_gap}µs) should dwarf the SSD gap ({ssd_gap}µs)"
        );
    }

    #[test]
    fn aw_cheaper_than_gw_on_raid() {
        let mut d1 = raid_15k(8, 1 << 18, 1);
        let mut d2 = raid_15k(8, 1 << 18, 1);
        let gw = Calibrator::new(small_cfg(Method::GroupWait));
        let aw = Calibrator::new(small_cfg(Method::ActiveWait));
        let band = 1 << 16;
        let cg = gw.measure_point(&mut d1, band, 16);
        let ca = aw.measure_point(&mut d2, band, 16);
        assert!(
            ca < cg * 0.95,
            "AW should beat GW on a spindle array: AW {ca} vs GW {cg}"
        );
    }

    #[test]
    fn hdd_band_size_dominates() {
        let mut dev = hdd_7200(1 << 20, 1);
        let cal = Calibrator::new(small_cfg(Method::ActiveWait));
        let (d, _) = cal.calibrate_dtt(&mut dev);
        assert!(
            d.cost(1 << 18) > d.cost(64) * 1.5,
            "seek distance must matter on HDD: {} vs {}",
            d.cost(64),
            d.cost(1 << 18)
        );
    }

    #[test]
    fn read_cap_respected() {
        let mut dev = consumer_pcie_ssd(1 << 18, 1);
        let mut cfg = small_cfg(Method::Threads);
        cfg.band_sizes = vec![1 << 18];
        cfg.queue_depths = vec![1];
        cfg.max_reads = 100;
        let cal = Calibrator::new(cfg);
        let (_, report) = cal.calibrate_qdtt(&mut dev);
        assert!(report.total_reads <= 100);
    }

    #[test]
    fn tiny_band_still_measures() {
        let mut dev = consumer_pcie_ssd(1 << 14, 1);
        let cal = Calibrator::new(CalibrationConfig {
            band_sizes: vec![1, 8],
            queue_depths: vec![1, 2],
            max_reads: 64,
            method: Method::ActiveWait,
            repetitions: 2,
            early_stop_pct: None,
            stop_fill_factor: 1.02,
            seed: 1,
        });
        let (m, report) = cal.calibrate_qdtt(&mut dev);
        assert!(report.total_reads > 0);
        assert!(m.cost(1, 1) > 0.0);
    }

    #[test]
    fn parallel_grid_matches_sequential_physics() {
        // The _with variant measures with per-point devices/rngs, so the
        // numbers differ from the sequential grid — but the device physics
        // conclusions must be the same.
        let cal = Calibrator::new(small_cfg(Method::ActiveWait));
        let (m, report) = cal.calibrate_qdtt_with(|| consumer_pcie_ssd(1 << 18, 1));
        assert_eq!(report.points_measured, 18);
        assert_eq!(report.points_defaulted, 0);
        let c1 = m.cost(1 << 18, 1);
        let c32 = m.cost(1 << 18, 32);
        assert!(c32 < c1 / 4.0, "SSD qd32 ≪ qd1: {c1} vs {c32}");
    }

    #[test]
    fn parallel_early_stop_matches_sequential_protocol() {
        let mut cfg = small_cfg(Method::ActiveWait);
        cfg.early_stop_pct = Some(20.0);
        let cal = Calibrator::new(cfg);
        let (_, par_report) = cal.calibrate_qdtt_with(|| hdd_7200(1 << 18, 1));
        let mut dev = hdd_7200(1 << 18, 1);
        let (_, seq_report) = cal.calibrate_qdtt(&mut dev);
        // Same stop depth and same measured/defaulted point counts: the
        // parallel protocol probes and skips exactly the same cells.
        assert_eq!(par_report.stopped_at_qd, seq_report.stopped_at_qd);
        assert_eq!(par_report.points_measured, seq_report.points_measured);
        assert_eq!(par_report.points_defaulted, seq_report.points_defaulted);
    }

    #[test]
    fn parallel_calibration_is_deterministic() {
        let run = || {
            let cal = Calibrator::new(small_cfg(Method::ActiveWait));
            cal.calibrate_qdtt_with(|| consumer_pcie_ssd(1 << 18, 7)).0
        };
        assert_eq!(run(), run());
        let run_dtt = || {
            let cal = Calibrator::new(small_cfg(Method::ActiveWait));
            cal.calibrate_dtt_with(|| hdd_7200(1 << 18, 7)).0
        };
        assert_eq!(run_dtt(), run_dtt());
    }

    #[test]
    fn boxed_device_factory_works() {
        // Experiment::make_device returns Box<dyn DeviceModel>; the blanket
        // impl lets the factory hand those straight to the calibrator.
        let cal = Calibrator::new(small_cfg(Method::ActiveWait));
        let make =
            || -> Box<dyn pioqo_device::DeviceModel> { Box::new(consumer_pcie_ssd(1 << 18, 3)) };
        let (m, _) = cal.calibrate_dtt_with(make);
        assert!(m.cost(64) > 0.0);
    }

    #[test]
    fn deterministic_given_seed() {
        let run = || {
            let mut dev = consumer_pcie_ssd(1 << 18, 7);
            let cal = Calibrator::new(small_cfg(Method::ActiveWait));
            cal.calibrate_qdtt(&mut dev).0
        };
        assert_eq!(run(), run());
    }
}
