//! Background-load wrapper: concurrent-query interference at the device.
//!
//! The paper defers concurrency to future work (§4.3: "when multiple
//! queries are running on the system concurrently, the optimizer needs to
//! pass a lower queue depth number to the QDTT model"). To study that
//! policy we need *interference*: [`WithBackgroundLoad`] wraps a device and
//! keeps `streams × per_stream_qd` random single-page reads of its own in
//! flight — each stream behaves like a serial index scan from another
//! query (complete one read, immediately issue the next). Foreground
//! callers see only their own completions; the background's I/Os compete
//! for the same channels/spindles, so the foreground's *effective* queue
//! depth budget shrinks exactly the way §4.3 anticipates.

use crate::io::{DeviceModel, IoCompletion, IoRequest};
use pioqo_simkit::{SimRng, SimTime};

/// Background request ids live in the top half of the id space so they can
/// never collide with foreground ids (contexts count up from 0).
const BG_ID_BASE: u64 = 1 << 63;

/// A [`DeviceModel`] carrying synthetic concurrent-query load.
pub struct WithBackgroundLoad<D> {
    inner: D,
    streams: u32,
    per_stream_qd: u32,
    rng: SimRng,
    next_bg: u64,
    started: bool,
    bg_outstanding: usize,
    bg_completed: u64,
    scratch: Vec<IoCompletion>,
}

impl<D: DeviceModel> WithBackgroundLoad<D> {
    /// Wrap `inner` with `streams` background readers, each sustaining
    /// `per_stream_qd` outstanding random page reads (1 mimics a serial
    /// index scan per stream).
    pub fn new(inner: D, streams: u32, per_stream_qd: u32, seed: u64) -> Self {
        WithBackgroundLoad {
            inner,
            streams,
            per_stream_qd: per_stream_qd.max(1),
            rng: SimRng::seeded(seed),
            next_bg: BG_ID_BASE,
            started: false,
            bg_outstanding: 0,
            bg_completed: 0,
            scratch: Vec::new(),
        }
    }

    /// Background reads completed so far (test/report hook).
    pub fn background_completed(&self) -> u64 {
        self.bg_completed
    }

    fn submit_bg(&mut self, now: SimTime) {
        let page = self.rng.below(self.inner.capacity_pages());
        let id = self.next_bg;
        self.next_bg += 1;
        self.bg_outstanding += 1;
        self.inner.submit(now, IoRequest::page(id, page));
    }

    fn ensure_started(&mut self, now: SimTime) {
        if !self.started {
            self.started = true;
            for _ in 0..self.streams * self.per_stream_qd {
                self.submit_bg(now);
            }
        }
    }
}

impl<D: DeviceModel> DeviceModel for WithBackgroundLoad<D> {
    fn page_size(&self) -> u32 {
        self.inner.page_size()
    }

    fn capacity_pages(&self) -> u64 {
        self.inner.capacity_pages()
    }

    fn submit(&mut self, now: SimTime, req: IoRequest) {
        assert!(req.id < BG_ID_BASE, "foreground ids must stay below 2^63");
        self.ensure_started(now);
        self.inner.submit(now, req);
    }

    fn next_event(&self) -> Option<SimTime> {
        self.inner.next_event()
    }

    fn advance(&mut self, now: SimTime, out: &mut Vec<IoCompletion>) {
        self.ensure_started(now);
        self.scratch.clear();
        self.inner.advance(now, &mut self.scratch);
        let mut completions = std::mem::take(&mut self.scratch);
        for c in completions.drain(..) {
            if c.req.id >= BG_ID_BASE {
                // A background stream finished a read: issue its next one
                // immediately (closed loop, like a blocked query thread).
                self.bg_outstanding -= 1;
                self.bg_completed += 1;
                self.submit_bg(now);
            } else {
                out.push(c);
            }
        }
        self.scratch = completions;
    }

    fn outstanding(&self) -> usize {
        // A crashed inner device reports zero outstanding while the
        // background reads it swallowed are still counted here.
        self.inner.outstanding().saturating_sub(self.bg_outstanding)
    }

    fn crashed(&self) -> bool {
        self.inner.crashed()
    }

    fn channels(&self) -> u32 {
        self.inner.channels()
    }

    fn channels_busy(&self, now: SimTime) -> u32 {
        self.inner.channels_busy(now)
    }

    fn name(&self) -> &str {
        self.inner.name()
    }

    fn reset_state(&mut self) {
        // Background I/O is perpetual; only forward when truly idle.
        assert!(
            self.inner.outstanding() == self.bg_outstanding,
            "reset_state with foreground I/O outstanding"
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::presets::consumer_pcie_ssd;

    fn run_foreground(streams: u32, n: u64) -> (SimTime, u64) {
        let mut dev = WithBackgroundLoad::new(consumer_pcie_ssd(1 << 18, 1), streams, 1, 99);
        let mut rng = SimRng::seeded(5);
        let mut out = Vec::new();
        let mut now = SimTime::ZERO;
        // Foreground: serial random reads (qd 1).
        for i in 0..n {
            dev.submit(now, IoRequest::page(i, rng.below(1 << 18)));
            while dev.outstanding() > 0 {
                let t = dev.next_event().expect("busy");
                dev.advance(t, &mut out);
                now = t;
            }
        }
        (now, dev.background_completed())
    }

    #[test]
    fn foreground_sees_only_its_completions() {
        let (_, bg) = run_foreground(4, 50);
        assert!(bg > 0, "background must actually run");
    }

    #[test]
    fn background_load_slows_the_foreground() {
        let (t0, _) = run_foreground(0, 200);
        let (t16, _) = run_foreground(16, 200);
        assert!(t16 > t0, "16 competing streams must hurt: {t0} vs {t16}");
    }

    #[test]
    fn zero_streams_is_transparent() {
        let mut plain = consumer_pcie_ssd(1 << 18, 1);
        let mut wrapped = WithBackgroundLoad::new(consumer_pcie_ssd(1 << 18, 1), 0, 1, 9);
        let mut out_a = Vec::new();
        let mut out_b = Vec::new();
        for i in 0..50u64 {
            plain.submit(SimTime::ZERO, IoRequest::page(i, i * 101 % (1 << 18)));
            wrapped.submit(SimTime::ZERO, IoRequest::page(i, i * 101 % (1 << 18)));
        }
        crate::io::drain_all(&mut plain, SimTime::ZERO, &mut out_a);
        // drain via outstanding(): next_event never goes None under load,
        // but with zero streams it will.
        crate::io::drain_all(&mut wrapped, SimTime::ZERO, &mut out_b);
        assert_eq!(out_a, out_b);
    }
}
