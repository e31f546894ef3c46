//! Mechanical hard-disk model.
//!
//! A single-spindle drive is a *single server*: one request is in service at
//! a time. Service time is seek + rotational wait + media transfer, with a
//! sequential fast path (no seek, no rotational wait when a request
//! continues the previous one). Queued requests are reordered with
//! shortest-seek-time-first (the drive's NCQ/TCQ elevator), and the
//! rotational wait shrinks modestly as the queue grows (rotational position
//! ordering) — this is why a deeper queue helps a single spindle only a
//! little (Fig. 1: random @ qd 32 reaches ~1.3% of sequential bandwidth).

use crate::io::{DeviceModel, IoCompletion, IoRequest};
use pioqo_simkit::{SimDuration, SimRng, SimTime};
use serde::{Deserialize, Serialize};

/// Mechanical drive parameters.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct HddConfig {
    /// Page size in bytes (4 KiB everywhere in this reproduction).
    pub page_size: u32,
    /// Capacity in pages.
    pub capacity_pages: u64,
    /// Sustained sequential bandwidth, MB/s.
    pub seq_bandwidth_mb_s: f64,
    /// Track-to-track (minimum) seek, milliseconds.
    pub track_to_track_ms: f64,
    /// Full-stroke (maximum) seek, milliseconds.
    pub max_seek_ms: f64,
    /// Spindle speed, revolutions per minute.
    pub rpm: f64,
    /// Fixed per-request overhead for a random I/O (controller + host), µs.
    pub random_overhead_us: f64,
    /// Fixed per-request overhead on the sequential fast path, µs.
    pub seq_overhead_us: f64,
    /// Enable shortest-seek-first reordering of the pending queue (NCQ).
    pub sstf: bool,
    /// Strength of rotational-position optimization as the queue deepens:
    /// expected rotational wait is `half_rev / (1 + rpo_factor * queue_len)`.
    /// Zero disables it.
    pub rpo_factor: f64,
    /// Multiplicative service-time noise, e.g. `0.02` for ±2%.
    pub jitter: f64,
    /// RNG seed for rotational position and jitter.
    pub seed: u64,
    /// Model name for reports.
    pub name: String,
}

struct InService {
    req: IoRequest,
    submitted: SimTime,
    done: SimTime,
}

/// A simulated single-spindle hard disk. See the module docs.
pub struct Hdd {
    cfg: HddConfig,
    rng: SimRng,
    /// Half a revolution, µs: the mean rotational wait at queue depth 1.
    half_rev_us: f64,
    /// Current head position (page).
    head: u64,
    /// Offset that would continue the current sequential stream.
    seq_next: Option<u64>,
    pending: Vec<(IoRequest, SimTime)>,
    in_service: Option<InService>,
}

impl Hdd {
    /// Build a drive from its configuration.
    pub fn new(cfg: HddConfig) -> Self {
        let seed = cfg.seed;
        Hdd {
            half_rev_us: 60.0 * 1_000_000.0 / cfg.rpm / 2.0,
            cfg,
            rng: SimRng::seeded(seed),
            head: 0,
            seq_next: None,
            pending: Vec::new(),
            in_service: None,
        }
    }

    /// The configuration this drive was built with.
    pub fn config(&self) -> &HddConfig {
        &self.cfg
    }

    fn transfer_us(&self, pages: u32) -> f64 {
        let bytes = pages as f64 * self.cfg.page_size as f64;
        bytes / self.cfg.seq_bandwidth_mb_s // bytes / (MB/s) == µs per byte·1e-6 scale
    }

    /// Seek time for a head movement of `dist` pages, µs.
    fn seek_us(&self, dist: u64) -> f64 {
        if dist == 0 {
            return 0.0;
        }
        let frac = dist as f64 / self.cfg.capacity_pages as f64;
        (self.cfg.track_to_track_ms
            + (self.cfg.max_seek_ms - self.cfg.track_to_track_ms) * frac.sqrt())
            * 1_000.0
    }

    /// Service time for `req` given the current head state and queue length.
    fn service_us(&mut self, req: &IoRequest, queue_len: usize) -> f64 {
        let base = if self.seq_next == Some(req.offset) {
            // Sequential continuation: the head is already there and the
            // target sector is arriving under it.
            self.cfg.seq_overhead_us + self.transfer_us(req.len)
        } else {
            let dist = self.head.abs_diff(req.offset);
            let rot_scale = 1.0 + self.cfg.rpo_factor * queue_len as f64;
            // Uniform rotational phase, shrunk by rotational-position
            // ordering when the queue is deep.
            let rot = self.rng.unit() * 2.0 * self.half_rev_us / rot_scale;
            self.cfg.random_overhead_us + self.seek_us(dist) + rot + self.transfer_us(req.len)
        };
        base * self.rng.jitter(self.cfg.jitter)
    }

    /// Index into `pending` of the next request to serve.
    fn pick_next(&self) -> usize {
        if !self.cfg.sstf || self.pending.len() == 1 {
            return 0;
        }
        // Shortest seek first, preferring sequential continuations outright.
        let mut best = 0usize;
        let mut best_key = u64::MAX;
        for (i, (req, _)) in self.pending.iter().enumerate() {
            if self.seq_next == Some(req.offset) {
                return i;
            }
            let d = self.head.abs_diff(req.offset);
            if d < best_key {
                best_key = d;
                best = i;
            }
        }
        best
    }

    fn start_next(&mut self, now: SimTime) {
        debug_assert!(self.in_service.is_none());
        if self.pending.is_empty() {
            return;
        }
        let idx = self.pick_next();
        let (req, submitted) = self.pending.swap_remove(idx);
        let svc = self.service_us(&req, self.pending.len());
        let done = now + SimDuration::from_micros_f64(svc);
        self.head = req.end();
        self.seq_next = Some(req.end());
        self.in_service = Some(InService {
            req,
            submitted,
            done,
        });
    }
}

impl DeviceModel for Hdd {
    fn page_size(&self) -> u32 {
        self.cfg.page_size
    }

    fn capacity_pages(&self) -> u64 {
        self.cfg.capacity_pages
    }

    fn submit(&mut self, now: SimTime, req: IoRequest) {
        assert!(
            req.end() <= self.cfg.capacity_pages,
            "I/O past end of device: {:?} capacity={}",
            req,
            self.cfg.capacity_pages
        );
        self.pending.push((req, now));
        if self.in_service.is_none() {
            self.start_next(now);
        }
    }

    fn next_event(&self) -> Option<SimTime> {
        self.in_service.as_ref().map(|s| s.done)
    }

    fn advance(&mut self, now: SimTime, out: &mut Vec<IoCompletion>) {
        while let Some(s) = &self.in_service {
            if s.done > now {
                break;
            }
            let s = self.in_service.take().expect("checked above");
            out.push(IoCompletion::ok(s.req, s.submitted, s.done));
            let done = s.done;
            self.start_next(done);
        }
    }

    fn outstanding(&self) -> usize {
        self.pending.len() + usize::from(self.in_service.is_some())
    }

    fn name(&self) -> &str {
        &self.cfg.name
    }

    fn reset_state(&mut self) {
        assert!(
            self.in_service.is_none() && self.pending.is_empty(),
            "reset_state with I/O outstanding"
        );
        self.head = 0;
        self.seq_next = None;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::io::{drain_all, IoStatus};

    fn test_cfg() -> HddConfig {
        HddConfig {
            page_size: 4096,
            capacity_pages: 1 << 21, // 8 GiB
            seq_bandwidth_mb_s: 110.0,
            track_to_track_ms: 0.5,
            max_seek_ms: 14.0,
            rpm: 7200.0,
            random_overhead_us: 30.0,
            seq_overhead_us: 3.0,
            sstf: true,
            rpo_factor: 0.5,
            jitter: 0.0,
            seed: 1,
            name: "hdd-test".into(),
        }
    }

    fn run_reads(cfg: HddConfig, reqs: Vec<IoRequest>) -> Vec<IoCompletion> {
        let mut d = Hdd::new(cfg);
        for r in reqs {
            d.submit(SimTime::ZERO, r);
        }
        let mut out = Vec::new();
        drain_all(&mut d, SimTime::ZERO, &mut out);
        out
    }

    #[test]
    fn sequential_is_much_faster_than_random() {
        let n = 256u64;
        let seq: Vec<_> = (0..n).map(|i| IoRequest::page(i, i)).collect();
        let seq_done = run_reads(test_cfg(), seq)
            .last()
            .expect("completions")
            .completed;

        // Random pages scattered over the whole device, one at a time.
        let mut rng = SimRng::seeded(7);
        let rand: Vec<_> = (0..n)
            .map(|i| IoRequest::page(i, rng.below((1 << 21) - 1)))
            .collect();
        let mut d = Hdd::new(test_cfg());
        let mut out = Vec::new();
        let mut now = SimTime::ZERO;
        for r in rand {
            d.submit(now, r);
            now = drain_all(&mut d, now, &mut out);
        }
        let ratio = now.as_micros_f64() / seq_done.as_micros_f64();
        // The paper's HDD shows a 2-3 orders of magnitude gap.
        assert!(ratio > 50.0, "random/seq ratio too small: {ratio}");
    }

    #[test]
    fn deep_queue_helps_only_modestly() {
        let n = 512usize;
        let mut rng = SimRng::seeded(9);
        let offs: Vec<u64> = (0..n).map(|_| rng.below(1 << 21)).collect();

        // qd = 1: one at a time.
        let mut d1 = Hdd::new(test_cfg());
        let mut out = Vec::new();
        let mut now = SimTime::ZERO;
        for (i, &o) in offs.iter().enumerate() {
            d1.submit(now, IoRequest::page(i as u64, o));
            now = drain_all(&mut d1, now, &mut out);
        }
        let t_qd1 = now;

        // qd = 32: keep 32 outstanding.
        let mut d32 = Hdd::new(test_cfg());
        out.clear();
        let mut now = SimTime::ZERO;
        let mut next = 0usize;
        while next < 32.min(n) {
            d32.submit(now, IoRequest::page(next as u64, offs[next]));
            next += 1;
        }
        while d32.outstanding() > 0 {
            let t = d32.next_event().expect("busy device has an event");
            let before = out.len();
            d32.advance(t, &mut out);
            now = t;
            for _ in before..out.len() {
                if next < n {
                    d32.submit(now, IoRequest::page(next as u64, offs[next]));
                    next += 1;
                }
            }
        }
        let t_qd32 = now;
        let speedup = t_qd1.as_micros_f64() / t_qd32.as_micros_f64();
        // SSTF + RPO should help, but only by a small factor on one spindle.
        assert!(speedup > 1.3, "expected some NCQ benefit, got {speedup}");
        assert!(speedup < 8.0, "single spindle should not scale: {speedup}");
    }

    #[test]
    fn sequential_throughput_near_configured_bandwidth() {
        // 4 MiB of sequential block reads.
        let blocks: Vec<_> = (0..64).map(|i| IoRequest::block(i, i * 16, 16)).collect();
        let done = run_reads(test_cfg(), blocks)
            .last()
            .expect("completions")
            .completed;
        let mbps = pioqo_simkit::stats::mb_per_sec(64 * 16 * 4096, done - SimTime::ZERO);
        assert!(
            (80.0..=115.0).contains(&mbps),
            "sequential bandwidth off: {mbps} MB/s"
        );
    }

    #[test]
    fn completions_preserve_request_identity() {
        let out = run_reads(
            test_cfg(),
            vec![IoRequest::page(42, 100), IoRequest::page(43, 101)],
        );
        assert_eq!(out.len(), 2);
        let ids: std::collections::BTreeSet<_> = out.iter().map(|c| c.req.id).collect();
        assert!(ids.contains(&42) && ids.contains(&43));
        assert!(out.iter().all(|c| c.status == IoStatus::Ok));
        assert!(out.iter().all(|c| c.completed > c.submitted));
    }

    #[test]
    #[should_panic(expected = "past end of device")]
    fn rejects_out_of_range() {
        let mut d = Hdd::new(test_cfg());
        d.submit(SimTime::ZERO, IoRequest::page(0, 1 << 21));
    }

    #[test]
    fn reset_state_requires_idle() {
        let mut d = Hdd::new(test_cfg());
        d.submit(SimTime::ZERO, IoRequest::page(0, 5));
        let mut out = Vec::new();
        drain_all(&mut d, SimTime::ZERO, &mut out);
        d.reset_state(); // idle: fine
        assert_eq!(d.outstanding(), 0);
    }
}
