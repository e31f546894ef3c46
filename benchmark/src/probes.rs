//! Fixed standalone probes of single layers, run beside every traced
//! pass. Each replays one seeded input through the layer's public API and
//! reports a rate: the median of three repetitions, each normalised to the
//! reference machine speed like every other host time (see `timing`).

use crate::report::Values;
use crate::timing::{median, ref_kernel, REF_NOMINAL_NS};
use crate::workloads::sub_seed;
use pioqo_bufpool::{Access, BufferPool};
use pioqo_core::Qdtt;
use pioqo_simkit::{EventQueue, SimDuration, SimRng, SimTime};
use pioqo_storage::{range_for_selectivity, BTreeIndex, HeapTable, TableSpec, Tablespace};
use std::hint::black_box;
use std::time::Instant;

const REPS: usize = 3;

/// Median over `REPS` of the seconds `run` reports for its timed loop,
/// scaled by the reference samples taken around the repetition.
fn probe_s(mut run: impl FnMut() -> f64) -> f64 {
    let reps: Vec<f64> = (0..REPS)
        .map(|_| {
            let before = ref_kernel();
            let secs = run();
            let after = ref_kernel();
            secs * REF_NOMINAL_NS / ((before + after) as f64 / 2.0)
        })
        .collect();
    median(&reps)
}

/// Seeded schedule/pop mix on `EventQueue`: think-timer-like arrivals over
/// a sliding horizon, with the queue held a few thousand deep.
fn queue_ev_per_s(seed: u64, quick: bool) -> f64 {
    let schedules: u64 = if quick { 100_000 } else { 800_000 };
    let secs = probe_s(|| {
        let mut rng = SimRng::seeded(seed);
        let mut q: EventQueue<u64> = EventQueue::new();
        let mut now = SimTime::ZERO;
        let mut popped = 0u64;
        let started = Instant::now();
        for i in 0..schedules {
            let after = SimDuration::from_nanos(1 + rng.below(2_000_000));
            q.schedule(now + after, i);
            // Hold ~4 K outstanding, then pop one per schedule.
            if q.len() > 4096 {
                if let Some((t, e)) = q.pop() {
                    now = t;
                    popped += black_box(e) & 1;
                }
            }
        }
        while let Some((_, e)) = q.pop() {
            popped += black_box(e) & 1;
        }
        black_box(popped);
        started.elapsed().as_secs_f64()
    });
    // Every event is scheduled once and popped once.
    (2 * schedules) as f64 / secs
}

/// One seeded access trace through the public pool API; the working set
/// either fits the pool (hit path) or is 16x larger (miss/evict path).
fn bufpool_replay_acc_per_s(seed: u64, quick: bool, fits: bool) -> f64 {
    const FRAMES: usize = 4096;
    let accesses: u64 = if quick { 200_000 } else { 1_500_000 };
    let pages: u64 = if fits {
        FRAMES as u64 / 2
    } else {
        FRAMES as u64 * 16
    };
    let secs = probe_s(|| {
        let mut rng = SimRng::seeded(seed);
        let mut pool = BufferPool::new(FRAMES);
        if fits {
            for p in 0..pages {
                pool.admit_prefetched(p).expect("working set fits");
            }
        }
        let started = Instant::now();
        for _ in 0..accesses {
            let page = rng.below(pages);
            if pool.request(page) == Access::Miss {
                pool.admit(page).expect("one pin at a time never exhausts");
            }
            pool.unpin(page).expect("just pinned");
        }
        let s = started.elapsed().as_secs_f64();
        black_box(pool.stats().hits);
        s
    });
    accesses as f64 / secs
}

/// Seeded range lookups on a bulk-loaded `BTreeIndex`: descend, then read
/// the first entries of the range.
fn index_lookups_per_s(seed: u64, quick: bool) -> f64 {
    let rows: u64 = if quick { 33_000 } else { 330_000 };
    let lookups: u64 = if quick { 50_000 } else { 400_000 };
    let spec = TableSpec::paper_table(33, rows, seed);
    let mut ts = Tablespace::new(2 * spec.n_pages() + 4096);
    let table = HeapTable::create(spec, &mut ts).expect("sized to fit");
    let index = BTreeIndex::build(
        "probe_c2",
        table.data().c2_entries(),
        table.spec().page_size,
        &mut ts,
    )
    .expect("sized to fit");
    let c2_max = table.spec().c2_max;
    let (low, high) = range_for_selectivity(0.0005, c2_max);
    let width = high - low;
    let secs = probe_s(|| {
        let mut rng = SimRng::seeded(seed ^ 0x1DE);
        let mut acc = 0u64;
        let started = Instant::now();
        for _ in 0..lookups {
            let low = rng.below(u64::from(c2_max - width)) as u32;
            if let Some(r) = index.range(low, low + width) {
                let (key, rid) = index.entry(r.first_entry);
                acc = acc.wrapping_add(u64::from(key) ^ rid ^ r.len());
            }
        }
        black_box(acc);
        started.elapsed().as_secs_f64()
    });
    lookups as f64 / secs
}

/// `Qdtt::cost` at seeded off-knot (band, depth) points of a paper-shaped
/// 9 x 6 surface.
fn qdtt_cost_ns(seed: u64, quick: bool) -> f64 {
    let calls: u64 = if quick { 200_000 } else { 2_000_000 };
    let bands: Vec<u64> = std::iter::once(1)
        .chain((0..8).map(|i| 64u64 << (2 * i)))
        .collect();
    let depths = vec![1u32, 2, 4, 8, 16, 32];
    let grid: Vec<f64> = depths
        .iter()
        .flat_map(|&d| {
            bands
                .iter()
                .map(move |&b| 20.0 + (b as f64).ln() * 30.0 / f64::from(d))
        })
        .collect();
    let top = *bands.last().expect("non-empty");
    let model = Qdtt::new(bands, depths, grid);
    let secs = probe_s(|| {
        let mut rng = SimRng::seeded(seed);
        let mut acc = 0.0;
        let started = Instant::now();
        for _ in 0..calls {
            let band = 1 + rng.below(top);
            let qd = 1 + rng.below(40) as u32;
            acc += model.cost(black_box(band), black_box(qd));
        }
        black_box(acc);
        started.elapsed().as_secs_f64()
    });
    secs * 1e9 / calls as f64
}

/// Run every probe into `v`.
pub fn run_all(seed: u64, quick: bool, v: &mut Values) {
    v.insert(
        "simkit.queue_ev_per_s",
        queue_ev_per_s(sub_seed(seed, 0x901), quick),
    );
    v.insert(
        "bufpool.replay_acc_per_s.hit",
        bufpool_replay_acc_per_s(sub_seed(seed, 0x902), quick, true),
    );
    v.insert(
        "bufpool.replay_acc_per_s.miss",
        bufpool_replay_acc_per_s(sub_seed(seed, 0x902), quick, false),
    );
    v.insert(
        "storage.index_lookups_per_s",
        index_lookups_per_s(sub_seed(seed, 0x903), quick),
    );
    v.insert(
        "core.qdtt_cost_ns",
        qdtt_cost_ns(sub_seed(seed, 0x904), quick),
    );
}
