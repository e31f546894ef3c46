//! Striped multi-spindle array (RAID-0 style data layout, with an
//! optional parity-style degraded mode).
//!
//! The paper's third device class is an 8-spindle 15 000 RPM array: unlike a
//! single HDD, an array *does* reward deeper queues, because independent
//! random reads land on different spindles and are serviced concurrently —
//! but only up to roughly the spindle count, and the per-I/O latency still
//! carries seek + rotation. The model is simply `n` [`Hdd`] instances plus
//! a striping address map; queue-depth scaling and the AW-vs-GW calibration
//! asymmetry (Fig. 11) both emerge from that composition.
//!
//! **Degraded mode** (resilience extension): one spindle may be marked
//! failed ([`Raid::set_degraded`] or [`RaidConfig::degraded_spindle`]).
//! Reads whose stripe units land on the failed spindle are served by
//! *reconstruction*: the corresponding stripe units are read from every
//! surviving spindle and combined (parity-rebuild style), at a modeled
//! per-page XOR penalty — so the parent I/O still succeeds, visibly
//! slower, with [`IoCompletion::degraded`] set. The parent fails only if
//! a surviving spindle itself reports an error.

use crate::hdd::{Hdd, HddConfig};
use crate::io::{DeviceModel, IoCompletion, IoRequest, IoStatus};
use pioqo_simkit::{IdSlab, SimDuration, SimTime};
use serde::{Deserialize, Serialize};

/// Array parameters: a spindle template plus geometry.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct RaidConfig {
    /// Per-spindle drive model. `capacity_pages` here is the capacity of
    /// **one spindle**; the array exposes `n_spindles ×` that.
    pub spindle: HddConfig,
    /// Number of spindles.
    pub n_spindles: u32,
    /// Stripe unit in pages (consecutive pages per spindle before moving on).
    pub stripe_pages: u32,
    /// Spindle marked failed at construction (degraded mode); `None` for a
    /// healthy array. Requires `n_spindles >= 2`.
    pub degraded_spindle: Option<u32>,
    /// Per reconstructed page: XOR/recombine work added to a degraded
    /// read's completion time, on top of the surviving spindles' reads.
    pub reconstruct_overhead_us: f64,
    /// Model name for reports.
    pub name: String,
}

struct Parent {
    req: IoRequest,
    submitted: SimTime,
    remaining: u32,
    failed: bool,
    last_done: SimTime,
    /// Pages served by reconstruction (0 for a direct read).
    recon_pages: u32,
}

/// A simulated striped disk array. See the module docs.
pub struct Raid {
    cfg: RaidConfig,
    spindles: Vec<Hdd>,
    degraded: Option<u32>,
    degraded_reads: u64,
    /// Sub-request id (the id a spindle sees) -> parent sequence number.
    sub_parent: IdSlab<u64>,
    /// Outstanding caller requests, by the array's own sequence number
    /// (caller ids need not be unique or increasing).
    parents: IdSlab<Parent>,
    scratch: Vec<IoCompletion>,
}

impl Raid {
    /// Build an array from its configuration. Each spindle gets a distinct
    /// RNG seed derived from the template seed.
    pub fn new(cfg: RaidConfig) -> Self {
        assert!(
            cfg.spindle
                .capacity_pages
                .is_multiple_of(cfg.stripe_pages as u64),
            "per-spindle capacity ({} pages) must be a whole number of \
             stripe units ({} pages): the striped mapping would otherwise \
             address past a spindle's end",
            cfg.spindle.capacity_pages,
            cfg.stripe_pages
        );
        let spindles = (0..cfg.n_spindles)
            .map(|i| {
                let mut c = cfg.spindle.clone();
                c.seed = c.seed.wrapping_add(i as u64).wrapping_mul(0x9E37_79B9);
                c.name = format!("{}-spindle{}", cfg.name, i);
                Hdd::new(c)
            })
            .collect();
        let degraded = cfg.degraded_spindle;
        let mut raid = Raid {
            cfg,
            spindles,
            degraded: None,
            degraded_reads: 0,
            sub_parent: IdSlab::new(),
            parents: IdSlab::new(),
            scratch: Vec::new(),
        };
        raid.set_degraded(degraded);
        raid
    }

    /// The configuration this array was built with.
    pub fn config(&self) -> &RaidConfig {
        &self.cfg
    }

    /// Mark `spindle` failed (`None` to restore the full array). Reads on
    /// a failed spindle are served by reconstruction from the survivors.
    ///
    /// # Panics
    /// Panics if I/O is outstanding, the index is out of range, or the
    /// array has fewer than two spindles (nothing to reconstruct from).
    pub fn set_degraded(&mut self, spindle: Option<u32>) {
        assert!(
            self.parents.is_empty(),
            "cannot change degraded state with I/O outstanding"
        );
        if let Some(s) = spindle {
            assert!(s < self.cfg.n_spindles, "degraded spindle out of range");
            assert!(
                self.cfg.n_spindles >= 2,
                "degraded mode needs at least one surviving spindle"
            );
        }
        self.degraded = spindle;
    }

    /// The currently failed spindle, if any.
    pub fn degraded_spindle(&self) -> Option<u32> {
        self.degraded
    }

    /// Parent reads served by reconstruction so far.
    pub fn degraded_reads(&self) -> u64 {
        self.degraded_reads
    }

    /// Map a logical page to (spindle index, spindle-local page).
    fn locate(&self, page: u64) -> (usize, u64) {
        let stripe = self.cfg.stripe_pages as u64;
        let n = self.cfg.n_spindles as u64;
        let s = page / stripe;
        let spindle = (s % n) as usize;
        let inner = (s / n) * stripe + page % stripe;
        (spindle, inner)
    }

    /// Issue parent `pid`'s run of `len` pages at `inner` on spindle `sp`.
    /// A run on the failed spindle becomes one read of the same stripe
    /// extent on *every* surviving spindle (parity reconstruction); a run
    /// on a healthy spindle stays a single direct read.
    fn submit_run(&mut self, now: SimTime, pid: u64, (sp, inner, len): (usize, u64, u32)) {
        let rebuild = self.degraded == Some(sp as u32);
        let targets = if rebuild {
            0..self.spindles.len()
        } else {
            sp..sp + 1
        };
        let mut reads = 0;
        for s in targets.filter(|&s| !rebuild || s != sp) {
            let sid = self.sub_parent.insert(pid);
            self.spindles[s].submit(now, IoRequest::block(sid, inner, len));
            reads += 1;
        }
        let parent = self
            .parents
            .get_mut(pid)
            .expect("a run is submitted for its live parent request");
        parent.remaining += reads;
        if rebuild {
            parent.recon_pages += len;
        }
    }
}

impl DeviceModel for Raid {
    fn page_size(&self) -> u32 {
        self.cfg.spindle.page_size
    }

    fn capacity_pages(&self) -> u64 {
        self.cfg.spindle.capacity_pages * self.cfg.n_spindles as u64
    }

    fn submit(&mut self, now: SimTime, req: IoRequest) {
        assert!(
            req.end() <= self.capacity_pages(),
            "I/O past end of device: {:?} capacity={}",
            req,
            self.capacity_pages()
        );
        let pid = self.parents.insert(Parent {
            req,
            submitted: now,
            remaining: 0,
            failed: false,
            last_done: now,
            recon_pages: 0,
        });
        // Walk the request a stripe unit at a time; a unit continuing the
        // current run on the same spindle extends it (only possible on a
        // one-spindle array), anything else closes the run and opens the
        // next.
        let stripe = self.cfg.stripe_pages as u64;
        let mut run: Option<(usize, u64, u32)> = None;
        let mut p = req.offset;
        while p < req.end() {
            let (sp, inner) = self.locate(p);
            let len = (stripe - p % stripe).min(req.end() - p) as u32;
            match &mut run {
                Some((rsp, roff, rlen)) if *rsp == sp && *roff + *rlen as u64 == inner => {
                    *rlen += len;
                }
                _ => {
                    if let Some(done) = run.replace((sp, inner, len)) {
                        self.submit_run(now, pid, done);
                    }
                }
            }
            p += len as u64;
        }
        if let Some(last) = run {
            self.submit_run(now, pid, last);
        }
        if self.parents.get(pid).is_some_and(|p| p.recon_pages > 0) {
            self.degraded_reads += 1;
        }
    }

    fn next_event(&self) -> Option<SimTime> {
        self.spindles.iter().filter_map(|s| s.next_event()).min()
    }

    fn advance(&mut self, now: SimTime, out: &mut Vec<IoCompletion>) {
        self.scratch.clear();
        for sp in &mut self.spindles {
            sp.advance(now, &mut self.scratch);
        }
        // Sort sub-completions by time so parent completions are emitted in
        // chronological order regardless of spindle iteration order.
        if self.scratch.len() > 1 {
            self.scratch.sort_by_key(|c| c.completed);
        }
        for sub in &self.scratch {
            let pid = self
                .sub_parent
                .remove(sub.req.id)
                .expect("unknown sub-request");
            let parent = self.parents.get_mut(pid).expect("orphan sub-request");
            parent.remaining -= 1;
            parent.failed |= sub.status == IoStatus::Error;
            parent.last_done = parent.last_done.max(sub.completed);
            if parent.remaining == 0 {
                let parent = self
                    .parents
                    .remove(pid)
                    .expect("completed sub-request maps to a live parent request");
                let rebuild = SimDuration::from_micros_f64(
                    parent.recon_pages as f64 * self.cfg.reconstruct_overhead_us,
                );
                out.push(IoCompletion {
                    req: parent.req,
                    submitted: parent.submitted,
                    completed: parent.last_done + rebuild,
                    status: if parent.failed {
                        IoStatus::Error
                    } else {
                        IoStatus::Ok
                    },
                    degraded: parent.recon_pages > 0 && !parent.failed,
                });
            }
        }
    }

    fn channels(&self) -> u32 {
        // Each spindle is an independent actuator.
        self.spindles.iter().map(|s| s.channels()).sum()
    }

    fn channels_busy(&self, now: SimTime) -> u32 {
        self.spindles.iter().map(|s| s.channels_busy(now)).sum()
    }

    fn outstanding(&self) -> usize {
        self.parents.len()
    }

    fn name(&self) -> &str {
        &self.cfg.name
    }

    fn reset_state(&mut self) {
        assert!(self.parents.is_empty(), "reset_state with I/O outstanding");
        for sp in &mut self.spindles {
            sp.reset_state();
        }
        // Degraded marking is configuration, not positional state: it
        // survives the reset. The per-run counter restarts.
        self.degraded_reads = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::io::drain_all;
    use pioqo_simkit::SimRng;

    fn spindle_cfg() -> HddConfig {
        HddConfig {
            page_size: 4096,
            capacity_pages: 1 << 19, // 2 GiB per spindle
            seq_bandwidth_mb_s: 180.0,
            track_to_track_ms: 0.2,
            max_seek_ms: 8.0,
            rpm: 15_000.0,
            random_overhead_us: 20.0,
            seq_overhead_us: 3.0,
            sstf: true,
            rpo_factor: 0.5,
            jitter: 0.0,
            seed: 11,
            name: "15k".into(),
        }
    }

    fn raid8() -> Raid {
        Raid::new(RaidConfig {
            spindle: spindle_cfg(),
            n_spindles: 8,
            stripe_pages: 16,
            degraded_spindle: None,
            reconstruct_overhead_us: 10.0,
            name: "raid8-test".into(),
        })
    }

    #[test]
    fn locate_round_robins_stripes() {
        let r = raid8();
        assert_eq!(r.locate(0), (0, 0));
        assert_eq!(r.locate(15), (0, 15));
        assert_eq!(r.locate(16), (1, 0));
        assert_eq!(r.locate(16 * 8), (0, 16));
        assert_eq!(r.locate(16 * 8 + 3), (0, 19));
    }

    /// Submit `req` and drain the spindles directly: the sub-requests they
    /// actually received, as sorted `(spindle, inner offset, len)`.
    fn spindle_reads(r: &mut Raid, req: IoRequest) -> Vec<(usize, u64, u32)> {
        r.submit(SimTime::ZERO, req);
        let mut got = Vec::new();
        for (s, spindle) in r.spindles.iter_mut().enumerate() {
            let mut out = Vec::new();
            drain_all(spindle, SimTime::ZERO, &mut out);
            got.extend(out.iter().map(|c| (s, c.req.offset, c.req.len)));
        }
        got.sort_unstable();
        got
    }

    #[test]
    fn split_covers_request_exactly() {
        // 40 pages starting mid-stripe: crosses three stripe units and
        // lands on consecutive spindles 0, 1, 2, 3.
        let healthy = spindle_reads(&mut raid8(), IoRequest::block(0, 10, 40));
        assert_eq!(healthy, [(0, 10, 6), (1, 0, 16), (2, 0, 16), (3, 0, 2)]);
        // Wrapping past the last spindle moves one stripe unit inward.
        let wrap = spindle_reads(&mut raid8(), IoRequest::block(1, 120, 20));
        assert_eq!(wrap, [(0, 16, 12), (7, 8, 8)]);
        // Degraded: the failed spindle's unit is read from every survivor.
        let mut d = raid8();
        d.set_degraded(Some(1));
        let rebuilt = spindle_reads(&mut d, IoRequest::block(2, 10, 40));
        let mut want = vec![(0, 10, 6), (2, 0, 16), (3, 0, 2)];
        want.extend([0, 2, 3, 4, 5, 6, 7].map(|s| (s, 0, 16)));
        want.sort_unstable();
        assert_eq!(rebuilt, want);
        assert_eq!(d.degraded_reads(), 1);
        // One spindle: consecutive stripe units continue one run.
        let mut one = Raid::new(RaidConfig {
            n_spindles: 1,
            ..raid8().cfg
        });
        assert_eq!(
            spindle_reads(&mut one, IoRequest::block(3, 10, 40)),
            [(0, 10, 40)]
        );
    }

    /// Random 4 KiB reads at queue depth `qd`; returns IOPS.
    fn random_iops(qd: usize, n: usize) -> f64 {
        let mut d = raid8();
        let cap = d.capacity_pages();
        let mut rng = SimRng::seeded(3);
        let offs: Vec<u64> = (0..n).map(|_| rng.below(cap)).collect();
        let mut out = Vec::new();
        let mut now = SimTime::ZERO;
        let mut next = 0usize;
        while next < qd.min(n) {
            d.submit(now, IoRequest::page(next as u64, offs[next]));
            next += 1;
        }
        while d.outstanding() > 0 {
            let t = d.next_event().expect("busy");
            let before = out.len();
            d.advance(t, &mut out);
            now = t;
            for _ in before..out.len() {
                if next < n {
                    d.submit(now, IoRequest::page(next as u64, offs[next]));
                    next += 1;
                }
            }
        }
        pioqo_simkit::stats::iops(n as u64, now - SimTime::ZERO)
    }

    #[test]
    fn queue_depth_scales_towards_spindle_count() {
        let i1 = random_iops(1, 400);
        let i8 = random_iops(8, 1600);
        let ratio = i8 / i1;
        // 8 spindles: 8 outstanding should approach (but not reach) 8x;
        // balls-into-bins collisions and SSTF make ~4-7x typical.
        assert!(ratio > 3.0, "raid should scale with qd: {ratio}");
        assert!(ratio <= 8.5, "cannot beat spindle count: {ratio}");
    }

    #[test]
    fn deeper_than_spindles_keeps_helping_but_sublinearly() {
        // Beyond the spindle count the array still gains — per-spindle SSTF
        // shortens seeks as local queues deepen (the paper's Fig. 12 RAID
        // curves keep falling through qd 32) — but far below linear.
        let i8 = random_iops(8, 1600);
        let i32 = random_iops(32, 1600);
        assert!(i32 > i8, "deeper queue should not hurt: {i8} vs {i32}");
        assert!(
            i32 < i8 * 3.0,
            "qd beyond spindle count should be sublinear: {i8} vs {i32}"
        );
    }

    #[test]
    fn block_read_completes_once_with_max_time() {
        let mut d = raid8();
        d.submit(SimTime::ZERO, IoRequest::block(7, 0, 128));
        let mut out = Vec::new();
        drain_all(&mut d, SimTime::ZERO, &mut out);
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].req.id, 7);
        assert_eq!(out[0].status, IoStatus::Ok);
        assert_eq!(d.outstanding(), 0);
    }

    /// Mean latency (µs) of `n` seeded random single-page reads at qd 1,
    /// all aimed at pages that live on spindle 3 (stripe index ≡ 3 mod 8).
    fn mean_spindle3_latency(d: &mut Raid, n: usize, seed: u64) -> f64 {
        let stripe_pages = 16u64;
        let stripes = d.capacity_pages() / stripe_pages;
        let mut rng = SimRng::seeded(seed);
        let mut out = Vec::new();
        let mut now = SimTime::ZERO;
        for i in 0..n {
            let stripe = rng.below(stripes / 8) * 8 + 3;
            let offset = stripe * stripe_pages + rng.below(stripe_pages);
            d.submit(now, IoRequest::page(i as u64, offset));
            now = drain_all(d, now, &mut out);
        }
        assert_eq!(out.len(), n);
        out.iter().map(|c| c.latency().as_micros_f64()).sum::<f64>() / n as f64
    }

    #[test]
    fn degraded_read_on_failed_spindle_succeeds_with_flag() {
        let mut d = raid8();
        d.set_degraded(Some(0));
        // Page 0 lives on spindle 0 (failed): must be reconstructed.
        d.submit(SimTime::ZERO, IoRequest::page(1, 0));
        // Page 16 lives on spindle 1 (healthy): direct read.
        d.submit(SimTime::ZERO, IoRequest::page(2, 16));
        let mut out = Vec::new();
        drain_all(&mut d, SimTime::ZERO, &mut out);
        assert_eq!(out.len(), 2);
        let rebuilt = out.iter().find(|c| c.req.id == 1).expect("id 1 completes");
        let direct = out.iter().find(|c| c.req.id == 2).expect("id 2 completes");
        assert_eq!(rebuilt.status, IoStatus::Ok);
        assert!(rebuilt.degraded, "failed-spindle read must be marked");
        assert_eq!(direct.status, IoStatus::Ok);
        assert!(!direct.degraded);
        assert_eq!(d.degraded_reads(), 1);
    }

    #[test]
    fn degraded_array_is_measurably_slower() {
        // Every read targets spindle 3's pages: with the array degraded each
        // one is reconstructed as max-of-seven survivor reads plus the rebuild
        // overhead, which must clearly exceed a single spindle's latency.
        let mut healthy = raid8();
        let healthy_lat = mean_spindle3_latency(&mut healthy, 100, 5);
        let mut degraded = raid8();
        degraded.set_degraded(Some(3));
        let degraded_lat = mean_spindle3_latency(&mut degraded, 100, 5);
        assert_eq!(degraded.degraded_reads(), 100, "all reads reconstruct");
        assert_eq!(healthy.degraded_reads(), 0);
        assert!(
            degraded_lat > healthy_lat * 1.2,
            "reconstruction (fan-out to 7 survivors + rebuild) must cost \
             latency: healthy {healthy_lat} vs degraded {degraded_lat}"
        );
    }

    #[test]
    fn degraded_sequential_block_spans_failed_spindle() {
        let mut d = raid8();
        d.set_degraded(Some(2));
        // 128 pages = one full stripe across all 8 spindles.
        d.submit(SimTime::ZERO, IoRequest::block(9, 0, 128));
        let mut out = Vec::new();
        drain_all(&mut d, SimTime::ZERO, &mut out);
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].status, IoStatus::Ok);
        assert!(out[0].degraded);
        assert_eq!(d.outstanding(), 0);
    }

    #[test]
    fn sequential_bandwidth_aggregates_spindles() {
        let mut d = raid8();
        // 32 MiB sequential in stripe-aligned 128-page blocks.
        for i in 0..64u64 {
            d.submit(SimTime::ZERO, IoRequest::block(i, i * 128, 128));
        }
        let mut out = Vec::new();
        let end = drain_all(&mut d, SimTime::ZERO, &mut out);
        let mbps = pioqo_simkit::stats::mb_per_sec(64 * 128 * 4096, end - SimTime::ZERO);
        // Eight 180 MB/s spindles: should exceed a single spindle clearly.
        assert!(mbps > 300.0, "striped sequential too slow: {mbps}");
    }
}
