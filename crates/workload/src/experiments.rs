//! The paper's experimental configurations (Table 1) at simulation scale.
//!
//! §3.1: tables T1 (one row per page), T33 (typical) and T500 (tiny rows),
//! each run on HDD and on SSD with a deliberately small 64 MB buffer pool;
//! every experiment starts with a flushed pool. Row counts are scaled down
//! from the paper's multi-GB tables, with the buffer:table ratio kept in
//! the same regime (table ≫ pool) so the break-even physics is preserved —
//! see DESIGN.md §1.

use crate::dataset::Dataset;
use pioqo_bufpool::BufferPool;
use pioqo_device::presets::{consumer_pcie_ssd, hdd_7200, raid_15k, PAGE_SIZE};
use pioqo_device::DeviceModel;
use pioqo_exec::{
    execute, CpuConfig, CpuCosts, ExecError, FtsConfig, IsConfig, PlanSpec, QuerySpec, ScanMetrics,
    SimContext, SortedIsConfig,
};
use pioqo_storage::range_for_selectivity;
use serde::{Deserialize, Serialize};

/// Storage device under test.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum DeviceKind {
    /// Commodity 7200 RPM hard drive.
    Hdd,
    /// Consumer PCIe SSD.
    Ssd,
    /// 8-spindle 15K RAID array (used by the calibration figures).
    Raid8,
}

impl DeviceKind {
    /// A fresh, cold instance of this preset with `capacity` pages. Each
    /// kind salts `seed` differently, so one master seed gives the three
    /// devices unrelated jitter streams.
    pub fn make(self, capacity: u64, seed: u64) -> Box<dyn DeviceModel> {
        match self {
            DeviceKind::Hdd => Box::new(hdd_7200(capacity, seed ^ 0xD15C)),
            DeviceKind::Ssd => Box::new(consumer_pcie_ssd(capacity, seed ^ 0xF1A5)),
            DeviceKind::Raid8 => Box::new(raid_15k(8, capacity, seed ^ 0x8A1D)),
        }
    }
}

impl std::fmt::Display for DeviceKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DeviceKind::Hdd => write!(f, "HDD"),
            DeviceKind::Ssd => write!(f, "SSD"),
            DeviceKind::Raid8 => write!(f, "RAID8"),
        }
    }
}

/// One experiment row of the paper's Table 1.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ExperimentConfig {
    /// Experiment id, e.g. "E33-SSD".
    pub name: String,
    /// Table name, e.g. "T33".
    pub table: String,
    /// Rows per page.
    pub rows_per_page: u32,
    /// Total rows (simulation scale).
    pub rows: u64,
    /// Device.
    pub device: DeviceKind,
    /// Buffer pool size in frames (the paper's 64 MB = 16384 4-KiB frames).
    pub buffer_frames: usize,
    /// Master seed.
    pub seed: u64,
}

impl ExperimentConfig {
    /// The six rows of Table 1, at simulation scale.
    pub fn table1() -> Vec<ExperimentConfig> {
        let mut v = Vec::new();
        for &device in &[DeviceKind::Hdd, DeviceKind::Ssd] {
            for &(rpp, rows) in &[
                (1u32, 1u64 << 21), // T1: 2 M pages = 8 GiB
                (33, 8_000_000),    // T33: ~242 K pages ≈ 0.95 GiB
                (500, 32_000_000),  // T500: 64 K pages = 256 MiB
            ] {
                v.push(ExperimentConfig {
                    name: format!("E{rpp}-{device}"),
                    table: format!("T{rpp}"),
                    rows_per_page: rpp,
                    rows,
                    device,
                    buffer_frames: 16_384, // 64 MB of 4 KiB frames
                    seed: 0xDB * rpp as u64 + u64::from(device == DeviceKind::Ssd),
                });
            }
        }
        v
    }

    /// Look up a Table 1 row by name ("E33-SSD", case-insensitive).
    pub fn by_name(name: &str) -> Option<ExperimentConfig> {
        Self::table1()
            .into_iter()
            .find(|e| e.name.eq_ignore_ascii_case(name))
    }

    /// A scaled-down variant (for fast tests): divides the row count.
    pub fn scaled_down(mut self, factor: u64) -> ExperimentConfig {
        self.rows = (self.rows / factor).max(1000);
        self
    }
}

/// How to execute the query (maps 1:1 onto an executor entry point).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum MethodSpec {
    /// (Parallel) full table scan.
    Fts {
        /// Parallel degree.
        workers: u32,
    },
    /// (Parallel) index scan.
    Is {
        /// Parallel degree.
        workers: u32,
        /// Per-worker prefetch depth (§3.3); 0 disables.
        prefetch: u32,
    },
    /// Sorted index scan (extension).
    SortedIs {
        /// Phase-3 prefetch ring depth.
        prefetch: u32,
    },
}

impl MethodSpec {
    /// Lower to the executor's plan description.
    pub fn to_plan_spec(self) -> PlanSpec {
        match self {
            MethodSpec::Fts { workers } => PlanSpec::Fts(FtsConfig {
                workers,
                ..FtsConfig::default()
            }),
            MethodSpec::Is { workers, prefetch } => PlanSpec::Is(IsConfig {
                workers,
                prefetch_depth: prefetch,
                ..IsConfig::default()
            }),
            MethodSpec::SortedIs { prefetch } => PlanSpec::SortedIs(SortedIsConfig {
                prefetch_depth: prefetch,
                ..SortedIsConfig::default()
            }),
        }
    }
}

impl std::fmt::Display for MethodSpec {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            MethodSpec::Fts { workers: 1 } => write!(f, "FTS"),
            MethodSpec::Fts { workers } => write!(f, "PFTS{workers}"),
            MethodSpec::Is {
                workers: 1,
                prefetch: 0,
            } => write!(f, "IS"),
            MethodSpec::Is { workers, prefetch } if *prefetch == 0 => {
                write!(f, "PIS{workers}")
            }
            MethodSpec::Is { workers, prefetch } => write!(f, "PIS{workers}+pf{prefetch}"),
            MethodSpec::SortedIs { prefetch } => write!(f, "SortedIS+pf{prefetch}"),
        }
    }
}

/// A fully built experiment: config + generated dataset.
pub struct Experiment {
    /// The configuration.
    pub cfg: ExperimentConfig,
    /// Table, index, and their device extents.
    pub dataset: Dataset,
}

impl Experiment {
    /// Generate the dataset for `cfg` (deterministic in `cfg.seed`).
    pub fn build(cfg: ExperimentConfig) -> Experiment {
        let dataset = Dataset::build(cfg.rows_per_page, cfg.rows, cfg.seed);
        Experiment { cfg, dataset }
    }

    /// A fresh instance of this experiment's device (cold, deterministic).
    pub fn make_device(&self) -> Box<dyn DeviceModel> {
        self.cfg
            .device
            .make(self.dataset.device_capacity(), self.cfg.seed)
    }

    /// A fresh (flushed) buffer pool, as the paper's protocol requires.
    pub fn make_pool(&self) -> BufferPool {
        BufferPool::new(self.cfg.buffer_frames)
    }

    /// The page size used throughout.
    pub fn page_size(&self) -> u32 {
        PAGE_SIZE
    }

    /// The paper's machine (`CpuConfig::paper_xeon`, default CPU costs)
    /// over `device` and `pool`. Callers that observe a run install their
    /// trace sink or metrics registry on the returned context.
    pub fn context<'a>(
        device: &'a mut dyn DeviceModel,
        pool: &'a mut BufferPool,
    ) -> SimContext<'a> {
        SimContext::new(device, pool, CpuConfig::paper_xeon(), CpuCosts::default())
    }

    /// Query Q at `selectivity`, planned as `method`.
    pub fn query(&self, method: MethodSpec, selectivity: f64) -> QuerySpec<'_> {
        let (low, high) = range_for_selectivity(selectivity, self.dataset.c2_max());
        QuerySpec::range_max(self.dataset.table(), Some(self.dataset.index()), low, high)
            .with_plan(method.to_plan_spec())
    }

    /// Execute query Q at `selectivity` with `method` on a cold device and
    /// flushed pool (the paper's per-point protocol, §3.2).
    pub fn run_cold(&self, method: MethodSpec, selectivity: f64) -> Result<ScanMetrics, ExecError> {
        let mut device = self.make_device();
        let mut pool = self.make_pool();
        self.run_with(&mut *device, &mut pool, method, selectivity)
    }

    /// Execute query Q on a cold device that is simultaneously serving
    /// `streams` synthetic concurrent queries (each a serial random-read
    /// loop) — the §4.3 future-work scenario.
    pub fn run_under_load(
        &self,
        method: MethodSpec,
        selectivity: f64,
        streams: u32,
    ) -> Result<ScanMetrics, ExecError> {
        let mut device = pioqo_device::WithBackgroundLoad::new(
            self.make_device(),
            streams,
            1,
            self.cfg.seed ^ 0xB6,
        );
        let mut pool = self.make_pool();
        self.run_with(&mut device, &mut pool, method, selectivity)
    }

    /// Execute against caller-provided device/pool (for warm-cache and
    /// concurrency studies).
    pub fn run_with(
        &self,
        device: &mut dyn DeviceModel,
        pool: &mut BufferPool,
        method: MethodSpec,
        selectivity: f64,
    ) -> Result<ScanMetrics, ExecError> {
        execute(
            &mut Experiment::context(device, pool),
            &self.query(method, selectivity),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table1_has_six_rows_matching_the_paper() {
        let t = ExperimentConfig::table1();
        assert_eq!(t.len(), 6);
        let names: Vec<_> = t.iter().map(|e| e.name.as_str()).collect();
        for expected in [
            "E1-HDD", "E1-SSD", "E33-HDD", "E33-SSD", "E500-HDD", "E500-SSD",
        ] {
            assert!(names.contains(&expected), "missing {expected}");
        }
        // Buffer pool is the paper's 64 MB everywhere.
        assert!(t.iter().all(|e| e.buffer_frames * 4096 == 64 << 20));
    }

    #[test]
    fn by_name_is_case_insensitive() {
        assert!(ExperimentConfig::by_name("e33-ssd").is_some());
        assert!(ExperimentConfig::by_name("E999-SSD").is_none());
    }

    #[test]
    fn cold_runs_agree_across_methods() {
        let cfg = ExperimentConfig::by_name("E33-SSD")
            .expect("exists")
            .scaled_down(400); // 20 000 rows
        let exp = Experiment::build(cfg);
        let sel = 0.05;
        let fts = exp
            .run_cold(MethodSpec::Fts { workers: 1 }, sel)
            .expect("runs");
        let pfts = exp
            .run_cold(MethodSpec::Fts { workers: 8 }, sel)
            .expect("runs");
        let is = exp
            .run_cold(
                MethodSpec::Is {
                    workers: 4,
                    prefetch: 4,
                },
                sel,
            )
            .expect("runs");
        let sorted = exp
            .run_cold(MethodSpec::SortedIs { prefetch: 16 }, sel)
            .expect("runs");
        assert_eq!(fts.max_c1, pfts.max_c1);
        assert_eq!(fts.max_c1, is.max_c1);
        assert_eq!(fts.max_c1, sorted.max_c1);
        assert_eq!(
            fts.max_c1,
            exp.dataset.oracle_max(sel),
            "scan answer must match the oracle"
        );
    }

    #[test]
    fn background_load_slows_a_scan() {
        let cfg = ExperimentConfig::by_name("E33-SSD")
            .expect("exists")
            .scaled_down(400);
        let exp = Experiment::build(cfg);
        let m = MethodSpec::Is {
            workers: 8,
            prefetch: 0,
        };
        let alone = exp.run_cold(m, 0.05).expect("runs");
        let crowded = exp.run_under_load(m, 0.05, 24).expect("runs");
        assert_eq!(alone.max_c1, crowded.max_c1);
        assert!(
            crowded.runtime > alone.runtime,
            "24 concurrent streams must slow the scan: {} vs {}",
            alone.runtime,
            crowded.runtime
        );
    }

    #[test]
    fn method_spec_display_names_match_paper() {
        assert_eq!(format!("{}", MethodSpec::Fts { workers: 1 }), "FTS");
        assert_eq!(format!("{}", MethodSpec::Fts { workers: 32 }), "PFTS32");
        assert_eq!(
            format!(
                "{}",
                MethodSpec::Is {
                    workers: 1,
                    prefetch: 0
                }
            ),
            "IS"
        );
        assert_eq!(
            format!(
                "{}",
                MethodSpec::Is {
                    workers: 32,
                    prefetch: 0
                }
            ),
            "PIS32"
        );
    }
}
