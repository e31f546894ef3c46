//! Calibration against a real file (Unix only).
//!
//! The same block-division and waiting disciplines as the simulated
//! calibrator, but issuing actual `pread`s through a worker-thread pool and
//! measuring wall-clock time. This is the path a deployment would run on
//! the customer's hardware; on a development machine without `O_DIRECT` the
//! page cache will make the numbers flat — see `examples/real_device.rs`.

#![cfg(unix)]

use crate::calibrate::{point_offsets, walk_grid, CalibrationConfig, Method};
use crate::qdtt::Qdtt;
use pioqo_device::real::{run_calibration_ios, IoPool, RealFile, WaitMethod};
use pioqo_simkit::SimRng;
use std::io;
use std::sync::Arc;

/// Calibrate a QDTT model against a real file, through the same §4.6 walk
/// (and so the same offsets, point by point) as the simulated
/// calibrator. The `Threads` method maps to active waiting (with a pool
/// of synchronous readers they are the same discipline).
pub fn calibrate_real_qdtt(cfg: &CalibrationConfig, file: Arc<RealFile>) -> io::Result<Qdtt> {
    let method = match cfg.method {
        Method::GroupWait => WaitMethod::GroupWait,
        Method::ActiveWait | Method::Threads => WaitMethod::ActiveWait,
    };
    let mut rng = SimRng::seeded(cfg.seed);
    // One reader pool per depth: the walk visits depths in order.
    let mut pool: Option<(u32, IoPool)> = None;
    let (qdtt, _) = walk_grid(cfg, |band, qd, report| -> io::Result<f64> {
        if pool.as_ref().map(|(depth, _)| *depth) != Some(qd) {
            pool = Some((qd, IoPool::new(Arc::clone(&file), qd as usize)));
        }
        let (_, readers) = pool.as_ref().expect("pool for this depth");
        let mut total_us = 0.0;
        for _ in 0..cfg.repetitions.max(1) {
            let offsets = point_offsets(cfg.max_reads, file.pages(), band, &mut rng);
            let elapsed = run_calibration_ios(readers, method, qd as usize, &offsets)?;
            total_us += elapsed.as_secs_f64() * 1e6 / offsets.len() as f64;
            report.total_reads += offsets.len() as u64;
        }
        Ok(total_us / cfg.repetitions.max(1) as f64)
    })?;
    Ok(qdtt)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn real_calibration_runs_on_temp_file() {
        let path = std::env::temp_dir().join(format!("pioqo-cal-{}.dat", std::process::id()));
        let file = Arc::new(RealFile::create(&path, 256, 4096).expect("create"));
        let cfg = CalibrationConfig {
            band_sizes: vec![16, 256],
            queue_depths: vec![1, 4],
            max_reads: 64,
            method: Method::ActiveWait,
            repetitions: 1,
            early_stop_pct: None,
            stop_fill_factor: 1.02,
            seed: 3,
        };
        let m = calibrate_real_qdtt(&cfg, file).expect("calibrates");
        assert!(m.cost(16, 1) > 0.0);
        assert!(m.cost(256, 4) > 0.0);
        std::fs::remove_file(&path).ok();
    }

    /// A device that remembers the offset of every read submitted to it.
    struct Recorder {
        inner: pioqo_device::Ssd,
        seen: Vec<u64>,
    }

    impl pioqo_device::DeviceModel for Recorder {
        fn page_size(&self) -> u32 {
            self.inner.page_size()
        }
        fn capacity_pages(&self) -> u64 {
            self.inner.capacity_pages()
        }
        fn submit(&mut self, now: pioqo_simkit::SimTime, req: pioqo_device::IoRequest) {
            self.seen.push(req.offset);
            self.inner.submit(now, req)
        }
        fn next_event(&self) -> Option<pioqo_simkit::SimTime> {
            self.inner.next_event()
        }
        fn advance(
            &mut self,
            now: pioqo_simkit::SimTime,
            out: &mut Vec<pioqo_device::IoCompletion>,
        ) {
            self.inner.advance(now, out)
        }
        fn outstanding(&self) -> usize {
            self.inner.outstanding()
        }
        fn name(&self) -> &str {
            self.inner.name()
        }
        fn reset_state(&mut self) {
            self.inner.reset_state()
        }
    }

    #[test]
    fn real_and_simulated_calibration_draw_identical_offsets() {
        // Same (cfg, file_pages, seed): every point of the simulated
        // calibration reads exactly the pages the real one would, because
        // both draw `point_offsets` from one rng through one walk.
        let file_pages = 1 << 14;
        for (bands, max_reads) in [
            (vec![1u64], 64u64),
            (vec![8], 100),
            (vec![256], 64),
            (vec![1 << 14], 200),
            (vec![1, 256, 1 << 14], 100),
        ] {
            let cfg = CalibrationConfig {
                band_sizes: bands.clone(),
                queue_depths: vec![1, 4],
                max_reads,
                method: Method::ActiveWait,
                repetitions: 2,
                early_stop_pct: None,
                stop_fill_factor: 1.02,
                seed: 11,
            };
            let mut dev = Recorder {
                inner: pioqo_device::presets::consumer_pcie_ssd(file_pages, 1),
                seen: Vec::new(),
            };
            crate::Calibrator::new(cfg.clone()).calibrate_qdtt(&mut dev);
            // `calibrate_real_qdtt`'s draws, without the reads.
            let mut rng = SimRng::seeded(cfg.seed);
            let mut real = Vec::new();
            walk_grid(&cfg, |band, _, _| {
                for _ in 0..cfg.repetitions {
                    real.extend(point_offsets(cfg.max_reads, file_pages, band, &mut rng));
                }
                Ok::<_, std::convert::Infallible>(1.0)
            })
            .expect("infallible");
            assert_eq!(dev.seen, real, "bands {bands:?}");
        }
    }

    #[test]
    fn offsets_respect_cap_and_band() {
        let cfg = CalibrationConfig {
            band_sizes: vec![8],
            queue_depths: vec![1],
            max_reads: 100,
            method: Method::ActiveWait,
            repetitions: 1,
            early_stop_pct: None,
            stop_fill_factor: 1.02,
            seed: 3,
        };
        let mut rng = SimRng::seeded(1);
        let offs = point_offsets(cfg.max_reads, 1024, 8, &mut rng);
        assert!(offs.len() <= 100);
        assert!(offs.iter().all(|&o| o < 1024));
    }
}
