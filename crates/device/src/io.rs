//! I/O request/completion types and the [`DeviceModel`] actor trait.

use pioqo_simkit::SimTime;
use serde::{Deserialize, Serialize};

/// Direction of an I/O request.
///
/// Reads and writes travel through the same queueing/band machinery; the
/// distinction matters to callers (physical accounting, crash semantics:
/// in-flight writes at a crash may be torn, in-flight reads are merely
/// aborted) rather than to the service-time models.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Serialize, Deserialize)]
pub enum IoKind {
    /// Transfer pages from media to the host.
    Read,
    /// Transfer pages from the host to media.
    Write,
}

/// An I/O request addressed in whole pages.
///
/// `offset` and `len` are in *pages* (the device's page size is fixed per
/// device). The paper's workloads are read-only; the write path exists for
/// the crash-consistency extension (WAL + dirty-page writeback) and shares
/// the read path's queueing and service-time model.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct IoRequest {
    /// Caller-assigned identifier, echoed in the completion.
    pub id: u64,
    /// First page of the transfer.
    pub offset: u64,
    /// Number of consecutive pages to transfer (>= 1).
    pub len: u32,
    /// Read or write.
    pub kind: IoKind,
}

impl IoRequest {
    /// A single-page read.
    pub fn page(id: u64, offset: u64) -> Self {
        IoRequest {
            id,
            offset,
            len: 1,
            kind: IoKind::Read,
        }
    }

    /// A multi-page (block) read.
    pub fn block(id: u64, offset: u64, len: u32) -> Self {
        debug_assert!(len >= 1);
        IoRequest {
            id,
            offset,
            len,
            kind: IoKind::Read,
        }
    }

    /// A single-page write.
    pub fn write_page(id: u64, offset: u64) -> Self {
        IoRequest {
            id,
            offset,
            len: 1,
            kind: IoKind::Write,
        }
    }

    /// A multi-page (block) write.
    pub fn write_block(id: u64, offset: u64, len: u32) -> Self {
        debug_assert!(len >= 1);
        IoRequest {
            id,
            offset,
            len,
            kind: IoKind::Write,
        }
    }

    /// True for write requests.
    pub fn is_write(&self) -> bool {
        self.kind == IoKind::Write
    }

    /// One past the last page touched.
    pub fn end(&self) -> u64 {
        self.offset + self.len as u64
    }
}

/// Outcome of an I/O.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum IoStatus {
    /// The read succeeded.
    Ok,
    /// The device reported a media/transport error (only produced by the
    /// fault-injection wrapper; the base models never fail).
    Error,
}

/// A finished I/O, delivered by [`DeviceModel::advance`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct IoCompletion {
    /// The originating request.
    pub req: IoRequest,
    /// When the request entered the device.
    pub submitted: SimTime,
    /// When the device finished it.
    pub completed: SimTime,
    /// Success or failure.
    pub status: IoStatus,
    /// True when the read was served by redundancy reconstruction (a RAID
    /// array with a failed spindle) rather than directly from media. The
    /// data is correct; the latency carries the reconstruction penalty.
    pub degraded: bool,
}

impl IoCompletion {
    /// A successful direct completion (the common case for base models).
    pub fn ok(req: IoRequest, submitted: SimTime, completed: SimTime) -> Self {
        IoCompletion {
            req,
            submitted,
            completed,
            status: IoStatus::Ok,
            degraded: false,
        }
    }

    /// Device-observed latency of this I/O.
    pub fn latency(&self) -> pioqo_simkit::SimDuration {
        self.completed.since(self.submitted)
    }
}

/// A storage device as a discrete-event actor.
///
/// The engine drives devices with three calls:
/// 1. [`submit`](DeviceModel::submit) hands over a request at the current
///    virtual time (the device may start serving it immediately);
/// 2. [`next_event`](DeviceModel::next_event) reports when the device next
///    changes state (its earliest internal completion), or `None` if idle;
/// 3. [`advance`](DeviceModel::advance) moves the device's internal clock to
///    `now` and appends every completion with `completed <= now` to `out`.
///
/// Determinism contract: identical submit sequences produce identical
/// completion sequences (models use their own seeded RNG for jitter).
///
/// Quiescence contract: only `submit` and `advance` move `next_event()`,
/// an `advance` short of it is a no-op, and so is a second advance of a
/// device that stayed idle (see [`advance`](DeviceModel::advance)). Event
/// loops rely on this to cache `next_event()` and skip the device until it
/// is due.
pub trait DeviceModel {
    /// Page size in bytes (uniform across the device).
    fn page_size(&self) -> u32;

    /// Total device capacity in pages.
    fn capacity_pages(&self) -> u64;

    /// Hand a request to the device at virtual time `now`.
    ///
    /// # Panics
    /// Panics if the request reaches past the end of the device.
    fn submit(&mut self, now: SimTime, req: IoRequest);

    /// Earliest future time at which [`advance`](DeviceModel::advance)
    /// would deliver a completion, or `None` when nothing is outstanding.
    fn next_event(&self) -> Option<SimTime>;

    /// Advance to `now`, appending all completions due by `now` to `out`.
    ///
    /// With `now` earlier than a pending [`next_event`](DeviceModel::next_event),
    /// `advance(now)` appends nothing and leaves `next_event()` and
    /// [`outstanding`](DeviceModel::outstanding) unchanged. An idle device
    /// (`next_event() == None`) may act on its first advance since the
    /// last [`submit`](DeviceModel::submit) (or ever) — the background-load
    /// wrapper starts its streams there — but a further advance while it
    /// stays idle is a no-op. Event loops therefore advance an idle device
    /// once per idle spell.
    fn advance(&mut self, now: SimTime, out: &mut Vec<IoCompletion>);

    /// Number of requests submitted but not yet completed.
    fn outstanding(&self) -> usize;

    /// Short human-readable model name ("hdd-7200", "ssd-pcie", ...).
    fn name(&self) -> &str;

    /// Reset transient positional state (head position, sequential-detector,
    /// map cache) without touching statistics-free configuration. The
    /// calibrator calls this between calibration points so points don't
    /// leak locality into each other.
    fn reset_state(&mut self);

    /// True once the device has halted after an injected crash (see the
    /// `Crashable` wrapper). Base models never crash; after a crash the
    /// device accepts no further work and reports zero outstanding I/Os so
    /// event loops can detect the halt instead of spinning forever.
    fn crashed(&self) -> bool {
        false
    }

    /// Number of independent service channels the device exposes.
    /// Single-actuator models report 1; an SSD reports its internal
    /// channel count, a RAID array the sum over its spindles. Used by the
    /// metrics layer to express utilization as busy/total.
    fn channels(&self) -> u32 {
        1
    }

    /// Channels still serving work at virtual time `now` — the
    /// instantaneous parallel-I/O depth the metrics layer samples into the
    /// per-device utilization series. The default collapses to "anything
    /// outstanding?", which is exact for single-channel models.
    fn channels_busy(&self, now: SimTime) -> u32 {
        let _ = now;
        u32::from(self.outstanding() > 0)
    }
}

/// A boxed device is itself a device — lets generic drivers (e.g. the
/// calibrator's per-point device factories) accept `Box<dyn DeviceModel>`
/// from preset constructors without unwrapping.
impl DeviceModel for Box<dyn DeviceModel> {
    fn page_size(&self) -> u32 {
        (**self).page_size()
    }

    fn capacity_pages(&self) -> u64 {
        (**self).capacity_pages()
    }

    fn submit(&mut self, now: SimTime, req: IoRequest) {
        (**self).submit(now, req)
    }

    fn next_event(&self) -> Option<SimTime> {
        (**self).next_event()
    }

    fn advance(&mut self, now: SimTime, out: &mut Vec<IoCompletion>) {
        (**self).advance(now, out)
    }

    fn outstanding(&self) -> usize {
        (**self).outstanding()
    }

    fn name(&self) -> &str {
        (**self).name()
    }

    fn reset_state(&mut self) {
        (**self).reset_state()
    }

    fn crashed(&self) -> bool {
        (**self).crashed()
    }

    fn channels(&self) -> u32 {
        (**self).channels()
    }

    fn channels_busy(&self, now: SimTime) -> u32 {
        (**self).channels_busy(now)
    }
}

/// Convenience: drain *all* remaining completions from a device by
/// repeatedly advancing to its next event. Returns the time of the last
/// completion (or `now` if none were outstanding).
pub fn drain_all(dev: &mut dyn DeviceModel, now: SimTime, out: &mut Vec<IoCompletion>) -> SimTime {
    let mut t = now;
    while let Some(next) = dev.next_event() {
        t = next;
        dev.advance(t, out);
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn request_constructors() {
        let p = IoRequest::page(1, 10);
        assert_eq!(p.len, 1);
        assert_eq!(p.end(), 11);
        assert!(!p.is_write());
        let b = IoRequest::block(2, 10, 16);
        assert_eq!(b.end(), 26);
        assert_eq!(b.kind, IoKind::Read);
    }

    #[test]
    fn write_constructors() {
        let w = IoRequest::write_page(3, 7);
        assert!(w.is_write());
        assert_eq!(w.len, 1);
        let wb = IoRequest::write_block(4, 7, 8);
        assert!(wb.is_write());
        assert_eq!(wb.end(), 15);
    }

    #[test]
    fn completion_latency() {
        let c = IoCompletion::ok(
            IoRequest::page(0, 0),
            SimTime::from_micros(10),
            SimTime::from_micros(110),
        );
        assert_eq!(c.latency().as_micros_f64(), 100.0);
        assert!(!c.degraded);
    }
}
