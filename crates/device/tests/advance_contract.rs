//! The `DeviceModel::advance` quiescence contract, checked on every model
//! and wrapper: `advance(now)` with `now` before `next_event()` delivers
//! nothing and leaves `next_event()` and `outstanding()` unchanged. Event
//! loops cache `next_event()` on the strength of it.

use pioqo_device::presets::{consumer_pcie_ssd, hdd_7200, raid_15k};
use pioqo_device::{
    CrashPlan, Crashable, DeviceModel, FaultPlan, Faulty, IoRequest, WithBackgroundLoad,
};
use pioqo_simkit::{SimDuration, SimRng, SimTime};

const CAP: u64 = 1 << 18;

/// Every model and wrapper, freshly built from `seed`.
fn zoo(seed: u64) -> Vec<(&'static str, Box<dyn DeviceModel>)> {
    let mut degraded = raid_15k(8, CAP, seed);
    degraded.set_degraded(Some(3));
    vec![
        ("hdd", Box::new(hdd_7200(CAP, seed))),
        ("ssd", Box::new(consumer_pcie_ssd(CAP, seed))),
        ("raid", Box::new(raid_15k(8, CAP, seed))),
        ("raid-degraded", Box::new(degraded)),
        (
            "faulty-tail",
            Box::new(
                Faulty::new(consumer_pcie_ssd(CAP, seed), FaultPlan::EveryNth(5))
                    .with_tail_latency(0.3, 6.0, seed),
            ),
        ),
        (
            // The crash lies far beyond the run: every advance is before it.
            "crashable",
            Box::new(Crashable::new(
                hdd_7200(CAP, seed),
                CrashPlan::at(SimTime::from_micros(3_600_000_000), seed),
            )),
        ),
        (
            "background",
            Box::new(WithBackgroundLoad::new(
                consumer_pcie_ssd(CAP, seed),
                4,
                2,
                seed,
            )),
        ),
    ]
}

/// Drive `dev` with seeded bursts of reads and writes. Before each due
/// event, advance to a random earlier instant and check nothing moved;
/// then advance onto the event. Returns the early advances checked.
fn check_contract(name: &str, dev: &mut dyn DeviceModel, rng: &mut SimRng) -> u32 {
    let mut now = SimTime::ZERO;
    let mut next_id = 0u64;
    let mut out = Vec::new();
    let mut checked = 0;
    for _ in 0..300 {
        if rng.below(3) == 0 || dev.outstanding() == 0 {
            for _ in 0..1 + rng.below(6) {
                let len = if rng.below(4) == 0 {
                    1 + rng.below(32)
                } else {
                    1
                };
                let offset = rng.below(CAP - len);
                let req = if rng.below(5) == 0 {
                    IoRequest::write_block(next_id, offset, len as u32)
                } else {
                    IoRequest::block(next_id, offset, len as u32)
                };
                next_id += 1;
                dev.submit(now, req);
            }
        }
        let Some(due) = dev.next_event() else {
            continue;
        };
        let gap = due.since(now).as_nanos();
        if gap > 0 {
            let early = now + SimDuration::from_nanos(rng.below(gap));
            let outstanding = dev.outstanding();
            out.clear();
            dev.advance(early, &mut out);
            assert!(
                out.is_empty(),
                "{name}: advance short of the event delivered"
            );
            assert_eq!(dev.next_event(), Some(due), "{name}: next_event moved");
            assert_eq!(dev.outstanding(), outstanding, "{name}: outstanding moved");
            checked += 1;
            if rng.below(2) == 0 {
                // Stay at the early instant: the next burst lands there.
                now = early;
                continue;
            }
        }
        dev.advance(due, &mut out);
        now = due;
    }
    assert!(!dev.crashed(), "{name}: the crash must lie beyond the run");
    checked
}

#[test]
fn an_advance_short_of_the_next_event_changes_nothing() {
    for seed in 0..6u64 {
        for (name, mut dev) in zoo(seed) {
            if name == "background" {
                // Start the background streams: an idle wrapper starts on
                // its first advance, which is allowed to act.
                dev.advance(SimTime::ZERO, &mut Vec::new());
                assert!(dev.next_event().is_some(), "background load is running");
            }
            let mut rng = SimRng::seeded(seed ^ 0xC0_47AC7);
            let checked = check_contract(name, dev.as_mut(), &mut rng);
            assert!(
                checked > 50,
                "{name}: only {checked} early advances checked"
            );
        }
    }
}
