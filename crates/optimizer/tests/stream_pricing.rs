//! The stream form of plan costing against the five per-family cost bodies
//! it replaced, which this file keeps as the reference: every candidate,
//! scan or join, must come out of the builders and the one `price` with the
//! same bits in every field.

use pioqo_core::Qdtt;
use pioqo_optimizer::card::{leaf_pages_touched, mackert_lohman_fetches, yao_pages};
use pioqo_optimizer::join::min_feasible_partitions;
use pioqo_optimizer::{
    AccessMethod, DttCost, EstCpuCosts, IndexStats, IoCostModel, JoinMethod, JoinPlan, JoinStats,
    Optimizer, OptimizerConfig, Plan, QdttCost, TableStats,
};
use pioqo_storage::Extent;

/// The reference: the scan and join cost bodies as they were written
/// before the stream form, verbatim but for taking the model and
/// configuration as arguments.
mod reference {
    use super::*;

    fn parallel_overhead(cfg: &OptimizerConfig, degree: u32) -> f64 {
        if degree > 1 {
            degree as f64 * cfg.est.startup_us
        } else {
            0.0
        }
    }

    fn combine(cfg: &OptimizerConfig, io_us: f64, cpu_us: f64, degree: u32) -> f64 {
        let cap = cfg.cpu.capacity(degree as usize);
        io_us.max(cpu_us / cap) + parallel_overhead(cfg, degree)
    }

    struct CardTerms {
        k: u64,
        distinct: f64,
        fetches_lru: f64,
        leaves: f64,
    }

    fn terms(stats: &TableStats, sel: f64) -> CardTerms {
        let k = (sel.clamp(0.0, 1.0) * stats.rows as f64).ceil() as u64;
        CardTerms {
            k,
            distinct: yao_pages(stats.pages, stats.rows, k),
            fetches_lru: mackert_lohman_fetches(stats.pages, k, stats.buffer_frames),
            leaves: leaf_pages_touched(k, stats.index.leaf_fanout) as f64,
        }
    }

    pub fn cost_fts(
        model: &dyn IoCostModel,
        cfg: &OptimizerConfig,
        stats: &TableStats,
        degree: u32,
    ) -> Plan {
        let qd = degree.min(cfg.max_queue_depth);
        let fetches = (stats.pages - stats.cached_pages) as f64;
        let io = fetches * model.page_cost_us(1, qd);
        let cpu = stats.pages as f64 * cfg.est.page_us + stats.rows as f64 * cfg.est.row_scan_us;
        Plan {
            method: AccessMethod::TableScan,
            degree,
            queue_depth: qd,
            band: 1,
            est_page_fetches: fetches,
            est_io_us: io,
            est_cpu_us: cpu,
            est_total_us: combine(cfg, io, cpu, degree),
        }
    }

    pub fn cost_is(
        model: &dyn IoCostModel,
        cfg: &OptimizerConfig,
        stats: &TableStats,
        sel: f64,
        degree: u32,
    ) -> Plan {
        let CardTerms {
            k,
            distinct,
            fetches_lru,
            leaves,
        } = terms(stats, sel);
        let qd = (degree * cfg.is_prefetch_depth.max(1)).min(cfg.max_queue_depth);
        let band = stats.extent.pages;
        let data_fetches = distinct.max(fetches_lru) * (1.0 - stats.cached_fraction());
        let index_fetches = (leaves + stats.index.height.saturating_sub(1) as f64).max(1.0);
        let io = data_fetches * model.page_cost_us(band, qd)
            + index_fetches * model.page_cost_us(stats.index.extent.pages.max(1), qd);
        let cpu = k as f64 * cfg.est.row_lookup_us + leaves * cfg.est.leaf_us;
        Plan {
            method: AccessMethod::IndexScan,
            degree,
            queue_depth: qd,
            band,
            est_page_fetches: data_fetches + index_fetches,
            est_io_us: io,
            est_cpu_us: cpu,
            est_total_us: combine(cfg, io, cpu, degree),
        }
    }

    pub fn cost_sorted_is(
        model: &dyn IoCostModel,
        cfg: &OptimizerConfig,
        stats: &TableStats,
        sel: f64,
    ) -> Plan {
        let terms = terms(stats, sel);
        let CardTerms { k, leaves, .. } = terms;
        let qd = cfg.max_queue_depth;
        let band = stats.extent.pages;
        let distinct = terms.distinct * (1.0 - stats.cached_fraction());
        let io = distinct * model.page_cost_us(band, qd)
            + leaves * model.page_cost_us(stats.index.extent.pages.max(1), qd);
        let k_f = k as f64;
        let sort_cpu = if k > 1 { k_f * k_f.log2() * 0.02 } else { 0.0 };
        let cpu = k_f * cfg.est.row_lookup_us + leaves * cfg.est.leaf_us + sort_cpu;
        Plan {
            method: AccessMethod::SortedIndexScan,
            degree: 1,
            queue_depth: qd,
            band,
            est_page_fetches: distinct + leaves,
            est_io_us: io,
            est_cpu_us: cpu,
            est_total_us: combine(cfg, io, cpu, 1),
        }
    }

    pub fn cost_inl(
        model: &dyn IoCostModel,
        est: &EstCpuCosts,
        js: &JoinStats<'_>,
        sel: f64,
        qd: u32,
    ) -> JoinPlan {
        let sel = sel.clamp(0.0, 1.0);
        let probes = (sel * js.left.rows as f64).ceil();
        let matched = probes * (js.right.rows as f64 / js.key_cardinality.max(1) as f64);
        let outer_fetches = (js.left.pages - js.left.cached_pages) as f64;
        let outer_io = outer_fetches * model.page_cost_us(1, qd.max(1));
        let idx = &js.right.index;
        let leaf_fetches = probes
            .min(idx.leaves as f64)
            .max(if probes > 0.0 { 1.0 } else { 0.0 })
            + idx.height.saturating_sub(1) as f64;
        let idx_io = leaf_fetches * model.page_cost_us(idx.extent.pages.max(1), qd.max(1));
        let k = matched.ceil() as u64;
        let distinct = yao_pages(js.right.pages, js.right.rows, k.min(js.right.rows));
        let ml = mackert_lohman_fetches(js.right.pages, k, js.right.buffer_frames);
        let heap_fetches = distinct.max(ml) * (1.0 - js.right.cached_fraction());
        let heap_io = heap_fetches * model.page_cost_us(js.right.extent.pages.max(1), qd.max(1));
        let io = outer_io + idx_io + heap_io;
        let cpu = js.left.pages as f64 * est.page_us
            + js.left.rows as f64 * est.row_scan_us
            + probes * est.leaf_us
            + matched * est.row_lookup_us;
        JoinPlan {
            method: JoinMethod::IndexNestedLoop,
            queue_depth: qd.max(1),
            partitions: 1,
            est_page_fetches: outer_fetches + leaf_fetches + heap_fetches,
            est_io_us: io,
            est_cpu_us: cpu,
            est_total_us: io.max(cpu),
        }
    }

    pub fn cost_hash(
        model: &dyn IoCostModel,
        est: &EstCpuCosts,
        js: &JoinStats<'_>,
        sel: f64,
        partitions: u32,
        qd: u32,
    ) -> JoinPlan {
        let sel = sel.clamp(0.0, 1.0);
        let p = partitions.max(1) as f64;
        let seq = |pages: f64| pages * model.page_cost_us(1, qd.max(1));
        let base_fetches = (js.right.pages - js.right.cached_pages) as f64
            + (js.left.pages - js.left.cached_pages) as f64;
        let spill_frac = (p - 1.0) / p;
        let spill_pages = spill_frac * (js.right.pages as f64 + sel * js.left.pages as f64);
        let io = seq(base_fetches) + 2.0 * seq(spill_pages);
        let probes = sel * js.left.rows as f64;
        let cpu = (js.right.pages as f64 + js.left.pages as f64) * est.page_us
            + (js.right.rows as f64 + js.left.rows as f64) * est.row_scan_us
            + probes * est.row_lookup_us
            + spill_frac * (js.right.rows as f64 * est.row_scan_us + probes * est.row_lookup_us);
        JoinPlan {
            method: JoinMethod::HybridHash,
            queue_depth: qd.max(1),
            partitions: partitions.max(1),
            est_page_fetches: base_fetches + 2.0 * spill_pages,
            est_io_us: io,
            est_cpu_us: cpu,
            est_total_us: io.max(cpu),
        }
    }
}

fn stats(pages: u64, rpp: u32, base: u64, buffer: u64) -> TableStats {
    let rows = pages * rpp as u64;
    let leaves = rows.div_ceil(338);
    TableStats {
        pages,
        rows,
        rows_per_page: rpp,
        page_size: 4096,
        extent: Extent { base, pages },
        cached_pages: 0,
        buffer_frames: buffer,
        index: IndexStats {
            leaves,
            height: 3,
            leaf_fanout: 338,
            extent: Extent {
                base: base + pages,
                pages: leaves + 4,
            },
            cached_pages: 0,
        },
    }
}

/// Cold, partial and full residency of `st`.
fn residencies(st: &TableStats) -> [TableStats; 3] {
    [0, st.pages / 3, st.pages].map(|cached_pages| TableStats {
        cached_pages,
        ..st.clone()
    })
}

/// A QDTT surface with random reads dearer than sequential ones at every
/// depth, and its depth-blind DTT: the old and the new optimizer.
fn models() -> (DttCost, QdttCost) {
    let qdtt = Qdtt::new(
        vec![1, 4096, 1 << 20],
        vec![1, 2, 4, 8, 16, 32],
        vec![
            100.0, 7000.0, 9000.0, //
            50.0, 3600.0, 4600.0, //
            25.0, 1900.0, 2400.0, //
            12.0, 1000.0, 1300.0, //
            6.0, 500.0, 700.0, //
            3.0, 300.0, 400.0,
        ],
    );
    (DttCost(qdtt.to_dtt()), QdttCost(qdtt))
}

fn scan_bits(p: &Plan) -> impl PartialEq + std::fmt::Debug {
    (
        (p.method, p.degree, p.queue_depth, p.band),
        [
            p.est_page_fetches.to_bits(),
            p.est_io_us.to_bits(),
            p.est_cpu_us.to_bits(),
            p.est_total_us.to_bits(),
        ],
    )
}

fn join_bits(p: &JoinPlan) -> impl PartialEq + std::fmt::Debug {
    (
        (p.method, p.queue_depth, p.partitions),
        [
            p.est_page_fetches.to_bits(),
            p.est_io_us.to_bits(),
            p.est_cpu_us.to_bits(),
            p.est_total_us.to_bits(),
        ],
    )
}

#[test]
fn every_scan_candidate_prices_like_its_reference_body() {
    let (dtt, qdtt) = models();
    let mut cells = 0;
    for model in [&dtt as &dyn IoCostModel, &qdtt] {
        for cap in [32, 5, 1] {
            for base in [OptimizerConfig::default(), OptimizerConfig::fine_grained()] {
                let cfg = OptimizerConfig {
                    max_queue_depth: cap,
                    ..base
                };
                let opt = Optimizer::with_cfg(model, &cfg);
                // 300 x 33 (every k on Yao's exact path), 5 000 x 33 and
                // 3 000 x 500 (k on both sides of its 4 096 switch).
                for (pages, rpp, buffer) in [(300, 33, 128), (5_000, 33, 2_048), (3_000, 500, 64)] {
                    for st in residencies(&stats(pages, rpp, 0, buffer)) {
                        let rows = st.rows as f64;
                        for k in [0.0, 1.0, 40.0, 3_960.0, 4_095.0, 4_096.0, 4_097.0, 60_000.0] {
                            let sel = k / rows;
                            for &d in &cfg.degrees {
                                let fts = opt.cost_access(&st, sel, AccessMethod::TableScan, d);
                                let want = reference::cost_fts(model, &cfg, &st, d);
                                assert_eq!(scan_bits(&fts), scan_bits(&want), "FTS{d} k={k}");
                                let is = opt.cost_access(&st, sel, AccessMethod::IndexScan, d);
                                let want = reference::cost_is(model, &cfg, &st, sel, d);
                                assert_eq!(scan_bits(&is), scan_bits(&want), "IS{d} k={k}");
                                cells += 2;
                            }
                            let sorted =
                                opt.cost_access(&st, sel, AccessMethod::SortedIndexScan, 1);
                            let want = reference::cost_sorted_is(model, &cfg, &st, sel);
                            assert_eq!(scan_bits(&sorted), scan_bits(&want), "SortedIS k={k}");
                            cells += 1;
                        }
                    }
                }
            }
        }
    }
    // 2 models x 3 caps x 3 tables x 3 residencies x 8 k, over
    // (2 x 2 + 1) candidates by default and (2 x 6 + 1) fine-grained.
    assert_eq!(cells, 2 * 3 * 3 * 3 * 8 * (5 + 13));
}

#[test]
fn every_join_candidate_prices_like_its_reference_body() {
    let (dtt, qdtt) = models();
    let est = EstCpuCosts::default();
    let mut cells = 0;
    for model in [&dtt as &dyn IoCostModel, &qdtt] {
        // A small pool, so the hash join needs more than one partition.
        for left in residencies(&stats(3_000, 33, 0, 256)) {
            for right in residencies(&stats(1_000, 33, 8_000, 256)) {
                let js = JoinStats {
                    left: &left,
                    right: &right,
                    key_cardinality: 5_000,
                };
                let p0 = min_feasible_partitions(&js);
                assert!(p0 > 1, "the grid must cover spilling hash joins");
                for sel in [0.0, 0.001, 0.01, 0.2, 1.0] {
                    for max_qd in 1..=32 {
                        let cfg = OptimizerConfig {
                            max_queue_depth: max_qd,
                            ..OptimizerConfig::default()
                        };
                        let mut want = Vec::new();
                        let mut qd = 1;
                        loop {
                            want.push(reference::cost_inl(model, &est, &js, sel, qd));
                            if qd >= max_qd {
                                break;
                            }
                            qd = (qd * 2).min(max_qd);
                        }
                        let mut p = p0;
                        while p <= p0 * 16 && p <= 64 {
                            want.push(reference::cost_hash(
                                model,
                                &est,
                                &js,
                                sel,
                                p,
                                max_qd.min(8),
                            ));
                            p *= 2;
                        }
                        let got = Optimizer::with_cfg(model, &cfg).enumerate_joins(&js, sel);
                        assert_eq!(got.len(), want.len());
                        for (g, w) in got.iter().zip(&want) {
                            assert_eq!(join_bits(g), join_bits(w), "sel={sel} cap={max_qd}");
                        }
                        cells += got.len();
                    }
                }
            }
        }
    }
    assert!(cells > 2 * 9 * 5 * 32 * 2, "{cells} join candidates");
}
