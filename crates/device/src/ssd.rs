//! Flash solid-state-drive model.
//!
//! The defining property the paper exploits: an SSD is internally a *bank of
//! parallel servers* (channels/dies/planes), so random-read throughput grows
//! nearly linearly with I/O queue depth up to the device's internal
//! parallelism, then flattens at the host-interface limit. This model has:
//!
//! * `n_channels` independent flash channels (page → channel by striping),
//!   each a FIFO server with the flash array read latency;
//! * a shared host bus that serializes page transfers at the advertised
//!   sequential bandwidth (so sequential large-block reads hit that number);
//! * a host-interface completion cap (advertised max IOPS);
//! * an FTL mapping cache: random reads over a wide *band* miss the
//!   mapping cache and pay an extra lookup — the mechanism behind the
//!   paper's observation that band size still matters on SSD (Fig. 7), and
//!   that the effect fades at high queue depth (latency hides under
//!   parallelism once throughput is interface-bound).
//!
//! Because channels and the bus are FIFO, every service time is computable
//! at submit time, so completions wait in one FIFO queue — the per-channel
//! server view of multi-queue SSD models — instead of on a calendar. Every
//! page crosses the one FIFO bus after the pages submitted before it, so a
//! request never completes before an earlier one: a new completion is
//! always appended, with or without an IOPS cap.

use crate::io::{DeviceModel, IoCompletion, IoRequest};
use pioqo_simkit::{SimDuration, SimRng, SimTime};
use serde::{Deserialize, Serialize};
use std::collections::VecDeque;

/// Flash device parameters.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct SsdConfig {
    /// Page size in bytes.
    pub page_size: u32,
    /// Capacity in pages.
    pub capacity_pages: u64,
    /// Internal parallel channels (the "maximum beneficial queue depth").
    pub n_channels: u32,
    /// Flash array read latency per page, µs.
    pub flash_read_us: f64,
    /// Host bus bandwidth (= advertised sequential read rate), MB/s.
    pub bus_bandwidth_mb_s: f64,
    /// Host interface completion cap (advertised random-read IOPS).
    pub max_iops: f64,
    /// Fixed per-request submission overhead (driver + firmware), µs.
    pub per_io_overhead_us: f64,
    /// Striping unit mapping pages to channels, in pages.
    pub stripe_pages: u32,
    /// FTL mapping-cache region size, pages. A "region" is the unit of
    /// mapping-table locality.
    pub map_region_pages: u64,
    /// Number of mapping regions the FTL cache holds.
    pub map_cache_regions: usize,
    /// Extra latency on a mapping-cache miss, µs.
    pub map_miss_us: f64,
    /// Multiplicative service-time noise.
    pub jitter: f64,
    /// RNG seed.
    pub seed: u64,
    /// Model name for reports.
    pub name: String,
}

/// A simulated flash SSD. See the module docs.
pub struct Ssd {
    cfg: SsdConfig,
    rng: SimRng,
    /// Per-request submission overhead.
    overhead: SimDuration,
    /// One page across the host bus.
    transfer: SimDuration,
    /// Minimum spacing of completions at the host interface (`None`
    /// without an IOPS cap).
    iface_gap: Option<SimDuration>,
    /// Per-channel time at which the channel is next free.
    channel_free: Vec<SimTime>,
    /// Time at which the shared host bus is next free.
    bus_free: SimTime,
    /// Earliest time the interface may deliver the next completion.
    iface_next: SimTime,
    /// FTL mapping cache: most-recently-used region ids, MRU at the back.
    map_cache: Vec<u64>,
    /// Offset that would continue the current sequential stream (device
    /// readahead detection).
    seq_next: u64,
    /// Pending `(completes, request, submitted)` in submission order,
    /// which is firing order (see the module docs).
    done: VecDeque<(SimTime, IoRequest, SimTime)>,
    /// Firing time of the last completion delivered.
    delivered: SimTime,
}

impl Ssd {
    /// Build a drive from its configuration.
    ///
    /// # Panics
    /// Panics on a geometry that would divide by zero on the first read:
    /// no channels, a zero-page stripe unit, or a zero-page mapping region
    /// behind a non-empty mapping cache.
    pub fn new(cfg: SsdConfig) -> Self {
        assert!(cfg.n_channels > 0, "n_channels must be at least 1");
        assert!(
            cfg.stripe_pages > 0,
            "stripe_pages must be at least 1: pages are striped over channels by it"
        );
        assert!(
            cfg.map_cache_regions == 0 || cfg.map_region_pages > 0,
            "map_region_pages must be at least 1 when map_cache_regions ({}) is non-zero",
            cfg.map_cache_regions
        );
        let seed = cfg.seed;
        let nch = cfg.n_channels as usize;
        let cache = cfg.map_cache_regions;
        let iface_gap =
            (cfg.max_iops > 0.0).then(|| SimDuration::from_micros_f64(1_000_000.0 / cfg.max_iops));
        Ssd {
            overhead: SimDuration::from_micros_f64(cfg.per_io_overhead_us),
            transfer: SimDuration::from_micros_f64(cfg.page_size as f64 / cfg.bus_bandwidth_mb_s),
            iface_gap,
            cfg,
            rng: SimRng::seeded(seed),
            channel_free: vec![SimTime::ZERO; nch],
            bus_free: SimTime::ZERO,
            iface_next: SimTime::ZERO,
            map_cache: Vec::with_capacity(cache),
            seq_next: u64::MAX,
            done: VecDeque::new(),
            delivered: SimTime::ZERO,
        }
    }

    /// The configuration this drive was built with.
    pub fn config(&self) -> &SsdConfig {
        &self.cfg
    }

    fn channel_of(&self, page: u64) -> usize {
        ((page / self.cfg.stripe_pages as u64) % self.cfg.n_channels as u64) as usize
    }

    /// Touch the FTL mapping cache for `page`; returns the added latency.
    fn map_lookup_us(&mut self, page: u64) -> f64 {
        if self.cfg.map_cache_regions == 0 {
            return 0.0;
        }
        let region = page / self.cfg.map_region_pages;
        // A region is cached at most once, so searching from the MRU end
        // finds the same entry as searching from the LRU end.
        if let Some(pos) = self.map_cache.iter().rposition(|&r| r == region) {
            // Hit: move to MRU position (a hit on the MRU entry stays put).
            self.map_cache[pos..].rotate_left(1);
            0.0
        } else {
            if self.map_cache.len() == self.cfg.map_cache_regions {
                self.map_cache.remove(0);
            }
            self.map_cache.push(region);
            self.cfg.map_miss_us
        }
    }
}

impl DeviceModel for Ssd {
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
        let arrive = now + self.overhead;
        let transfer = self.transfer;
        // Sequential-stream detection: firmware readahead has already pulled
        // a continuing stream's pages into the device cache, so they skip
        // the flash-array latency and stream at bus rate (this is why "band
        // size 1" means sequential I/O in the DTT model).
        let sequential = req.offset == self.seq_next;
        self.seq_next = req.end();
        let mut req_done = arrive;
        for p in req.offset..req.end() {
            let ch = self.channel_of(p);
            let miss_us = self.map_lookup_us(p);
            let flash_us = if sequential {
                0.0
            } else {
                (self.cfg.flash_read_us + miss_us) * self.rng.jitter(self.cfg.jitter)
            };
            let start = self.channel_free[ch].max(arrive);
            let flash_done = start + SimDuration::from_micros_f64(flash_us);
            self.channel_free[ch] = flash_done;
            // Page data crosses the shared host bus after the flash read.
            let bus_start = self.bus_free.max(flash_done);
            let bus_done = bus_start + transfer;
            self.bus_free = bus_done;
            req_done = req_done.max(bus_done);
        }
        // Host-interface completion pacing (advertised IOPS cap).
        if let Some(gap) = self.iface_gap {
            req_done = req_done.max(self.iface_next);
            self.iface_next = req_done + gap;
        }
        let at = req_done.max(now);
        let last = self.done.back().map_or(self.delivered, |&(t, ..)| t);
        debug_assert!(
            at >= last,
            "completion placed before an earlier one: at={at}, last={last}"
        );
        self.done.push_back((at, req, now));
    }

    fn next_event(&self) -> Option<SimTime> {
        self.done.front().map(|&(at, ..)| at)
    }

    fn advance(&mut self, now: SimTime, out: &mut Vec<IoCompletion>) {
        while let Some(&(at, req, submitted)) = self.done.front() {
            if at > now {
                break;
            }
            self.done.pop_front();
            self.delivered = at;
            out.push(IoCompletion::ok(req, submitted, at));
        }
    }

    fn outstanding(&self) -> usize {
        self.done.len()
    }

    fn name(&self) -> &str {
        &self.cfg.name
    }

    fn reset_state(&mut self) {
        assert!(self.done.is_empty(), "reset_state with I/O outstanding");
        self.map_cache.clear();
        self.seq_next = u64::MAX;
        // Let the pipeline clocks stay where they are: they are in the past
        // relative to any future submission, so they no longer constrain.
    }

    fn channels(&self) -> u32 {
        self.cfg.n_channels
    }

    fn channels_busy(&self, now: SimTime) -> u32 {
        // A channel is busy while its flash pipeline reaches past `now`;
        // channel_free clocks only move forward, so this is an exact
        // instantaneous in-flight depth across the internal channels.
        self.channel_free.iter().filter(|&&free| free > now).count() as u32
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::io::drain_all;

    fn test_cfg() -> SsdConfig {
        SsdConfig {
            page_size: 4096,
            capacity_pages: 1 << 22, // 16 GiB
            n_channels: 32,
            flash_read_us: 62.0,
            bus_bandwidth_mb_s: 1500.0,
            max_iops: 230_000.0,
            per_io_overhead_us: 8.0,
            stripe_pages: 1,
            map_region_pages: 1 << 14, // 64 MiB regions
            map_cache_regions: 16,
            map_miss_us: 18.0,
            jitter: 0.0,
            seed: 1,
            name: "ssd-test".into(),
        }
    }

    /// Run random single-page reads at a fixed queue depth; returns MB/s.
    fn random_throughput(qd: usize, n: usize) -> f64 {
        let mut d = Ssd::new(test_cfg());
        let mut rng = SimRng::seeded(3);
        let offs: Vec<u64> = (0..n).map(|_| rng.below(1 << 22)).collect();
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
        pioqo_simkit::stats::mb_per_sec(n as u64 * 4096, now - SimTime::ZERO)
    }

    #[test]
    fn sequential_hits_bus_bandwidth() {
        let mut d = Ssd::new(test_cfg());
        // 16 MiB in 64-page blocks.
        for i in 0..64u64 {
            d.submit(SimTime::ZERO, IoRequest::block(i, i * 64, 64));
        }
        let mut out = Vec::new();
        let end = drain_all(&mut d, SimTime::ZERO, &mut out);
        let mbps = pioqo_simkit::stats::mb_per_sec(64 * 64 * 4096, end - SimTime::ZERO);
        assert!(
            (1200.0..=1550.0).contains(&mbps),
            "sequential bandwidth off: {mbps} MB/s"
        );
    }

    #[test]
    fn random_throughput_scales_with_queue_depth() {
        let t1 = random_throughput(1, 2000);
        let t4 = random_throughput(4, 2000);
        let t32 = random_throughput(32, 4000);
        assert!(t4 > 3.0 * t1, "qd4 should be ~4x qd1: {t1} vs {t4}");
        assert!(t32 > 10.0 * t1, "qd32 should be >>qd1: {t1} vs {t32}");
    }

    #[test]
    fn qd32_random_is_large_fraction_of_sequential() {
        // Fig. 1: ~51.7% on the paper's SSD. Accept a generous band.
        let t32 = random_throughput(32, 8000);
        let frac = t32 / 1500.0;
        assert!(
            (0.30..=0.75).contains(&frac),
            "qd32 random fraction of sequential: {frac}"
        );
    }

    #[test]
    fn interface_cap_limits_iops() {
        // With 32 channels and 90 µs flash, raw parallelism exceeds the
        // 230K IOPS cap, so the cap must be binding at qd 32.
        let t32 = random_throughput(32, 8000);
        let iops = t32 * 1_000_000.0 / 4096.0;
        assert!(iops <= 235_000.0, "exceeded interface cap: {iops}");
        assert!(iops >= 120_000.0, "far below expected cap: {iops}");
    }

    #[test]
    fn narrow_band_is_cheaper_than_wide_band() {
        // Random reads confined to one mapping region vs spread over the
        // whole device, both at qd 1 (latency visible).
        let lat = |band: u64| {
            let mut d = Ssd::new(test_cfg());
            let mut rng = SimRng::seeded(5);
            let mut out = Vec::new();
            let mut now = SimTime::ZERO;
            for i in 0..500u64 {
                d.submit(now, IoRequest::page(i, rng.below(band)));
                now = drain_all(&mut d, now, &mut out);
            }
            now.as_micros_f64() / 500.0
        };
        let narrow = lat(1 << 13); // inside one 64 MiB region
        let wide = lat(1 << 22); // whole device
        assert!(
            wide > narrow * 1.05,
            "band size should matter: narrow={narrow} wide={wide}"
        );
    }

    #[test]
    fn sequential_single_pages_benefit_from_readahead() {
        // A continuing stream skips the flash-array latency (firmware
        // readahead), so qd-1 sequential page reads are far faster than
        // qd-1 random ones — this is what makes DTT(band=1) "sequential".
        let mut d = Ssd::new(test_cfg());
        let mut out = Vec::new();
        let mut now = SimTime::ZERO;
        for i in 0..500u64 {
            d.submit(now, IoRequest::page(i, i));
            now = drain_all(&mut d, now, &mut out);
        }
        let seq_us = now.as_micros_f64() / 500.0;

        let mut d = Ssd::new(test_cfg());
        let mut rng = SimRng::seeded(4);
        let mut now2 = SimTime::ZERO;
        out.clear();
        for i in 0..500u64 {
            d.submit(now2, IoRequest::page(i, rng.below(1 << 22)));
            now2 = drain_all(&mut d, now2, &mut out);
        }
        let rand_us = now2.as_micros_f64() / 500.0;
        assert!(
            seq_us < rand_us / 3.0,
            "sequential {seq_us} should be far below random {rand_us}"
        );
    }

    #[test]
    fn broken_stream_repays_flash_latency() {
        let t_of = |offsets: &[u64]| {
            let mut d = Ssd::new(test_cfg());
            let mut out = Vec::new();
            let mut now = SimTime::ZERO;
            for (i, &o) in offsets.iter().enumerate() {
                d.submit(now, IoRequest::page(i as u64, o));
                now = drain_all(&mut d, now, &mut out);
            }
            now.as_micros_f64()
        };
        // Stream 0..8 vs the same pages with a jump in the middle.
        let smooth = t_of(&[0, 1, 2, 3, 4, 5, 6, 7]);
        let broken = t_of(&[0, 1, 2, 3, 1000, 4, 5, 6]);
        assert!(broken > smooth + 50.0, "{broken} vs {smooth}");
    }

    #[test]
    fn completions_never_precede_submissions() {
        let mut d = Ssd::new(test_cfg());
        let t0 = SimTime::from_micros(100);
        d.submit(t0, IoRequest::page(0, 0));
        let mut out = Vec::new();
        drain_all(&mut d, t0, &mut out);
        assert_eq!(out.len(), 1);
        assert!(out[0].completed > out[0].submitted);
    }

    #[test]
    #[should_panic(expected = "past end of device")]
    fn rejects_out_of_range() {
        let mut d = Ssd::new(test_cfg());
        d.submit(SimTime::ZERO, IoRequest::block(0, (1 << 22) - 1, 2));
    }

    #[test]
    #[should_panic(expected = "n_channels must be at least 1")]
    fn rejects_zero_channels() {
        Ssd::new(SsdConfig {
            n_channels: 0,
            ..test_cfg()
        });
    }

    #[test]
    #[should_panic(expected = "stripe_pages must be at least 1")]
    fn rejects_zero_page_stripe_unit() {
        Ssd::new(SsdConfig {
            stripe_pages: 0,
            ..test_cfg()
        });
    }

    #[test]
    #[should_panic(expected = "map_region_pages must be at least 1")]
    fn rejects_zero_page_mapping_region() {
        Ssd::new(SsdConfig {
            map_region_pages: 0,
            ..test_cfg()
        });
    }

    #[test]
    fn a_zero_page_mapping_region_is_fine_without_a_mapping_cache() {
        let mut d = Ssd::new(SsdConfig {
            map_region_pages: 0,
            map_cache_regions: 0,
            ..test_cfg()
        });
        d.submit(SimTime::ZERO, IoRequest::page(0, 12345));
        let mut out = Vec::new();
        drain_all(&mut d, SimTime::ZERO, &mut out);
        assert_eq!(out.len(), 1);
    }

    /// The drive as it was before its completions moved into a FIFO
    /// queue: the same physics (MRU-last mapping cache searched from the
    /// LRU end), completions on a calendar of per-instant FIFO buckets
    /// drained a cohort at a time. The reference the queue must match.
    struct CalendarSsd {
        cfg: SsdConfig,
        rng: SimRng,
        overhead: SimDuration,
        transfer: SimDuration,
        iface_gap: Option<SimDuration>,
        channel_free: Vec<SimTime>,
        bus_free: SimTime,
        iface_next: SimTime,
        map_cache: Vec<u64>,
        seq_next: u64,
        buckets: std::collections::BTreeMap<u64, Vec<(IoRequest, SimTime)>>,
        now: SimTime,
    }

    impl CalendarSsd {
        fn new(cfg: SsdConfig) -> Self {
            CalendarSsd {
                rng: SimRng::seeded(cfg.seed),
                overhead: SimDuration::from_micros_f64(cfg.per_io_overhead_us),
                transfer: SimDuration::from_micros_f64(
                    cfg.page_size as f64 / cfg.bus_bandwidth_mb_s,
                ),
                iface_gap: (cfg.max_iops > 0.0)
                    .then(|| SimDuration::from_micros_f64(1_000_000.0 / cfg.max_iops)),
                channel_free: vec![SimTime::ZERO; cfg.n_channels as usize],
                bus_free: SimTime::ZERO,
                iface_next: SimTime::ZERO,
                map_cache: Vec::new(),
                seq_next: u64::MAX,
                buckets: Default::default(),
                now: SimTime::ZERO,
                cfg,
            }
        }

        fn map_lookup_us(&mut self, page: u64) -> f64 {
            if self.cfg.map_cache_regions == 0 {
                return 0.0;
            }
            let region = page / self.cfg.map_region_pages;
            if let Some(pos) = self.map_cache.iter().position(|&r| r == region) {
                self.map_cache.remove(pos);
                self.map_cache.push(region);
                0.0
            } else {
                if self.map_cache.len() == self.cfg.map_cache_regions {
                    self.map_cache.remove(0);
                }
                self.map_cache.push(region);
                self.cfg.map_miss_us
            }
        }

        fn submit(&mut self, now: SimTime, req: IoRequest) {
            let arrive = now + self.overhead;
            let sequential = req.offset == self.seq_next;
            self.seq_next = req.end();
            let mut req_done = arrive;
            for p in req.offset..req.end() {
                let ch = ((p / self.cfg.stripe_pages as u64) % self.cfg.n_channels as u64) as usize;
                let miss_us = self.map_lookup_us(p);
                let flash_us = if sequential {
                    0.0
                } else {
                    (self.cfg.flash_read_us + miss_us) * self.rng.jitter(self.cfg.jitter)
                };
                let start = self.channel_free[ch].max(arrive);
                let flash_done = start + SimDuration::from_micros_f64(flash_us);
                self.channel_free[ch] = flash_done;
                let bus_done = self.bus_free.max(flash_done) + self.transfer;
                self.bus_free = bus_done;
                req_done = req_done.max(bus_done);
            }
            if let Some(gap) = self.iface_gap {
                req_done = req_done.max(self.iface_next);
                self.iface_next = req_done + gap;
            }
            let at = req_done.max(now);
            assert!(at >= self.now, "event scheduled in the past");
            self.buckets
                .entry(at.as_nanos())
                .or_default()
                .push((req, now));
        }

        fn next_event(&self) -> Option<SimTime> {
            self.buckets.keys().next().map(|&n| SimTime::from_nanos(n))
        }

        fn advance(&mut self, now: SimTime, out: &mut Vec<IoCompletion>) {
            while self.next_event().is_some_and(|t| t <= now) {
                let (at, cohort) = self.buckets.pop_first().expect("non-empty");
                self.now = SimTime::from_nanos(at);
                for (req, submitted) in cohort {
                    out.push(IoCompletion::ok(req, submitted, self.now));
                }
            }
        }

        fn outstanding(&self) -> usize {
            self.buckets.values().map(Vec::len).sum()
        }

        fn reset_state(&mut self) {
            assert!(self.buckets.is_empty());
            self.map_cache.clear();
            self.seq_next = u64::MAX;
        }
    }

    /// Drive both drives through one seeded schedule of submits and
    /// advances; every completion and every `next_event` must agree.
    /// Returns how many completions arrived out of submission order.
    fn compare_with_calendar(cfg: SsdConfig, seed: u64) -> usize {
        let mut dev = Ssd::new(cfg.clone());
        let mut reference = CalendarSsd::new(cfg);
        let mut rng = SimRng::seeded(seed);
        let (mut got, mut want) = (Vec::new(), Vec::new());
        let mut now = SimTime::ZERO;
        let mut id = 0u64;
        let mut seq = 0u64;
        let mut delivered = Vec::new();
        for _batch in 0..12 {
            for _ in 0..400 {
                match rng.below(8) {
                    // Random page reads, mostly within a few mapping
                    // regions so the cache both hits and misses.
                    0..=2 => {
                        let band = [1u64 << 15, 1 << 18, 1 << 22][rng.below(3) as usize];
                        let req = IoRequest::page(id, rng.below(band));
                        dev.submit(now, req);
                        reference.submit(now, req);
                        id += 1;
                    }
                    // A sequential stream, sometimes continued.
                    3 => {
                        if rng.below(2) == 0 {
                            seq = rng.below((1 << 22) - 64);
                        }
                        let req = IoRequest::page(id, seq);
                        seq += 1;
                        dev.submit(now, req);
                        reference.submit(now, req);
                        id += 1;
                    }
                    // A multi-page block read.
                    4 => {
                        let len = 1 + rng.below(64) as u32;
                        let req = IoRequest::block(id, rng.below((1 << 22) - 64), len);
                        dev.submit(now, req);
                        reference.submit(now, req);
                        id += 1;
                    }
                    // Advance: before, onto or past the next event.
                    _ => {
                        if let Some(t) = dev.next_event() {
                            let span = t.as_nanos().saturating_sub(now.as_nanos());
                            now = match rng.below(3) {
                                0 => now + SimDuration::from_nanos(rng.below(span + 1)),
                                1 => t,
                                _ => t + SimDuration::from_nanos(rng.below(200_000)),
                            };
                        }
                        got.clear();
                        want.clear();
                        dev.advance(now, &mut got);
                        reference.advance(now, &mut want);
                        assert_eq!(got, want, "advance to {now}");
                        delivered.extend_from_slice(&got);
                    }
                }
                assert_eq!(dev.next_event(), reference.next_event());
                assert_eq!(dev.outstanding(), reference.outstanding());
            }
            // Drain, then start the next batch from a clean drive state.
            while let Some(t) = dev.next_event() {
                now = now.max(t);
                got.clear();
                want.clear();
                dev.advance(now, &mut got);
                reference.advance(now, &mut want);
                assert_eq!(got, want, "drain to {now}");
                assert_eq!(dev.next_event(), reference.next_event());
                delivered.extend_from_slice(&got);
            }
            assert_eq!(reference.outstanding(), 0);
            if rng.below(2) == 0 {
                dev.reset_state();
                reference.reset_state();
            }
            now += SimDuration::from_nanos(rng.below(1_000_000));
        }
        assert_eq!(delivered.len() as u64, id, "every request completes once");
        delivered
            .windows(2)
            .filter(|w| w[1].req.id < w[0].req.id)
            .count()
    }

    #[test]
    fn completion_queue_matches_the_calendar() {
        for seed in 0..4 {
            compare_with_calendar(test_cfg(), seed);
            compare_with_calendar(
                SsdConfig {
                    jitter: 0.05,
                    ..test_cfg()
                },
                seed,
            );
            compare_with_calendar(crate::presets::nvme_gen4_config(1 << 22, seed), seed);
        }
    }

    #[test]
    fn uncapped_completions_still_arrive_in_submission_order() {
        // Without an IOPS cap, and with a jittered flash latency that lets
        // a one-page read finish its flash step before a 64-page block
        // submitted earlier, the shared FIFO bus still delivers every
        // request after the ones before it — which is what lets `submit`
        // append.
        for seed in 0..4 {
            let uncapped = SsdConfig {
                max_iops: 0.0,
                jitter: 0.3,
                ..test_cfg()
            };
            assert_eq!(compare_with_calendar(uncapped, seed), 0);
        }
    }
}
