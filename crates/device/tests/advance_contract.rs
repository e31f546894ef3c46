//! The `DeviceModel::advance` quiescence contract, checked on every model
//! and wrapper: `advance(now)` with `now` before `next_event()` delivers
//! nothing and leaves `next_event()` and `outstanding()` unchanged, and a
//! second advance of a device that stayed idle is a no-op. Event loops
//! cache `next_event()`, and advance an idle device once per idle spell,
//! on the strength of it.

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

/// The zoo plus the idle shapes the rule below must be right for: a crash
/// inside the run, and background load already streaming or with no
/// streams at all.
fn idle_zoo(seed: u64) -> Vec<(&'static str, Box<dyn DeviceModel>)> {
    let mut started = WithBackgroundLoad::new(consumer_pcie_ssd(CAP, seed), 4, 2, seed);
    started.advance(SimTime::ZERO, &mut Vec::new());
    let mut devs = zoo(seed);
    devs.extend([
        (
            "crashable-early",
            Box::new(Crashable::new(
                hdd_7200(CAP, seed),
                CrashPlan::at(SimTime::from_micros(40_000), seed),
            )) as Box<dyn DeviceModel>,
        ),
        ("background-started", Box::new(started)),
        (
            "background-no-streams",
            Box::new(WithBackgroundLoad::new(
                consumer_pcie_ssd(CAP, seed),
                0,
                1,
                seed,
            )),
        ),
    ]);
    devs
}

/// Drive `dev` the way `SimContext::step` does: advance onto each due
/// event, and advance an idle device once per idle spell — on the first
/// round, before anything is submitted, and after each submit. With
/// `extra`, each later idle round advances twice more and checks that
/// nothing moved. Returns the completions and the extra rounds run.
fn drive_idle_spells(
    name: &str,
    dev: &mut dyn DeviceModel,
    rng: &mut SimRng,
    extra: bool,
) -> (Vec<pioqo_device::IoCompletion>, u32) {
    let mut now = SimTime::ZERO;
    let mut next_id = 0u64;
    let mut out = Vec::new();
    let mut settled = false;
    let mut extras = 0;
    let mut end = 0;
    for round in 0..300 {
        // Mostly on an idle device, now and then on a busy one; a third of
        // the requests continue the previous one, so positional state (a
        // sequential detector, a head) shows in the service times.
        let odds = if dev.next_event().is_some() { 12 } else { 3 };
        if round > 0 && rng.below(odds) == 0 {
            for _ in 0..1 + rng.below(4) {
                let offset = match rng.below(3) {
                    0 if end < CAP - 8 => end,
                    _ => rng.below(CAP - 8),
                };
                let len = 1 + rng.below(8);
                dev.submit(now, IoRequest::block(next_id, offset, len as u32));
                next_id += 1;
                end = offset + len;
            }
            settled = false;
        }
        match dev.next_event() {
            Some(due) => {
                dev.advance(due, &mut out);
                now = due;
                settled = true;
            }
            None if !settled => {
                dev.advance(now, &mut out);
                settled = true;
            }
            None => {
                now += SimDuration::from_micros(1 + rng.below(500));
                if extra {
                    let (delivered, outstanding) = (out.len(), dev.outstanding());
                    for _ in 0..2 {
                        dev.advance(now, &mut out);
                    }
                    assert_eq!(out.len(), delivered, "{name}: an idle advance delivered");
                    assert_eq!(dev.next_event(), None, "{name}: an idle advance woke it");
                    assert_eq!(dev.outstanding(), outstanding, "{name}: outstanding moved");
                    extras += 1;
                }
            }
        }
    }
    (out, extras)
}

#[test]
fn a_second_idle_advance_is_a_no_op() {
    for seed in 0..4u64 {
        for ((name, mut plain), (_, mut probed)) in idle_zoo(seed).into_iter().zip(idle_zoo(seed)) {
            let unstarted = name == "background";
            let (want, _) =
                drive_idle_spells(name, plain.as_mut(), &mut SimRng::seeded(seed), false);
            let (got, extras) =
                drive_idle_spells(name, probed.as_mut(), &mut SimRng::seeded(seed), true);
            assert_eq!(got, want, "{name}: extra idle advances changed the run");
            if unstarted || name == "background-started" {
                // Streaming load is never idle: the rule never skips it,
                // and the unstarted one started on its first idle advance.
                assert_eq!(extras, 0, "{name}");
                assert!(probed.next_event().is_some(), "{name}: streams run");
            } else {
                assert!(extras > 20, "{name}: only {extras} idle rounds probed");
            }
        }
    }
}
