//! The exporters' and the recorder's allocation budget, counted by a
//! `#[global_allocator]` rather than asserted by reading the code: the
//! per-event loops of `export::jsonl` and `export::chrome_trace` must not
//! allocate, and `Recorder::emit` must only pay for its buffers' doubling.
//!
//! Only the calling thread's allocations between `counted`'s start and
//! end are counted, so the test harness's own threads cannot disturb the
//! numbers.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use gpu_trace::export::{chrome_trace, jsonl};
use gpu_trace::{EventKind, MetricsSample, Recorder, TraceConfig, TraceData, TraceEvent};

thread_local! {
    static COUNTING: Cell<bool> = const { Cell::new(false) };
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
    static REALLOCS: Cell<u64> = const { Cell::new(0) };
}

struct Counting;

fn bump(counter: &'static std::thread::LocalKey<Cell<u64>>) {
    // `try_with`: the allocator also runs while a thread's locals are
    // being torn down.
    if COUNTING.try_with(Cell::get).unwrap_or(false) {
        let _ = counter.try_with(|c| c.set(c.get() + 1));
    }
}

// SAFETY: every method forwards to `System` with its arguments unchanged;
// the counters are plain thread-local cells that never allocate.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        bump(&ALLOCS);
        // SAFETY: the caller's contract is `System.alloc`'s contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        bump(&ALLOCS);
        // SAFETY: the caller's contract is `System.alloc_zeroed`'s contract.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` through the methods above.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        bump(&REALLOCS);
        // SAFETY: `ptr` came from `System` through the methods above.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Runs `f` and returns its result with the (allocations, reallocations)
/// this thread performed meanwhile.
fn counted<T>(f: impl FnOnce() -> T) -> (T, u64, u64) {
    ALLOCS.with(|c| c.set(0));
    REALLOCS.with(|c| c.set(0));
    COUNTING.with(|c| c.set(true));
    let value = f();
    COUNTING.with(|c| c.set(false));
    (value, ALLOCS.with(Cell::get), REALLOCS.with(Cell::get))
}

/// `n` events cycling through the shapes the exporters distinguish:
/// instants on SMX and launch tracks, placement/retirement pairs, and
/// launch/schedule pairs with densely numbered records, on 13 SMXs.
fn mixed_cell(n: u64) -> (String, TraceData) {
    let events = (0..n)
        .map(|i| {
            let smx = (i % 13) as u16;
            let slot = (i / 13 % 16) as u16;
            let record = (i / 10) as u32;
            let kind = match i % 10 {
                0 => EventKind::DynLaunch {
                    record,
                    path: (record % 4) as u8,
                    kernel: 1,
                    ntb: 4,
                },
                1 => EventKind::TbPlace {
                    smx,
                    slot,
                    kernel: 1,
                    kde: 3,
                    blkid: i as u32,
                    agg: 1,
                },
                2 => EventKind::LaunchSched { record, smx },
                3 => EventKind::WarpIssue {
                    smx,
                    warp: 7,
                    lanes: 32,
                },
                4 => EventKind::WarpStall {
                    smx,
                    warp: 7,
                    reason: 0,
                },
                5 => EventKind::CacheAccess {
                    level: 1,
                    unit: smx,
                    hit: 1,
                },
                6 => EventKind::DramRowActivate {
                    partition: 2,
                    bank: 5,
                },
                7 => EventKind::AgtInsert {
                    group: i << 20,
                    kernel: 1,
                    kde: 3,
                    overflow: 0,
                },
                8 => EventKind::HostLaunch {
                    kernel: 0,
                    ntb: 64,
                    hwq: 1,
                },
                // Retires the placement made eight events earlier.
                _ => EventKind::TbRetire {
                    smx: ((i - 8) % 13) as u16,
                    slot: ((i - 8) / 13 % 16) as u16,
                    kde: 3,
                },
            };
            TraceEvent {
                cycle: 1000 + i * 3,
                kind,
            }
        })
        .collect();
    let samples = (1..=8)
        .map(|i| MetricsSample {
            cycle: i * 1000,
            warp_activity_pct: 73.25,
            occupancy_pct: 100.0 / 3.0,
            agt_fill: 12,
            agt_overflow: 1,
            dram_efficiency_pct: 88.0,
            issues: 512,
        })
        .collect();
    (
        "bfs_citation/DTBL".to_string(),
        TraceData {
            events,
            samples,
            dropped: 0,
        },
    )
}

// One test function: the sections share the thread-local counters.
#[test]
fn exporters_and_recorder_stay_within_their_allocation_budget() {
    let small = [mixed_cell(10_000)];
    let large = [mixed_cell(40_000)];

    // JSONL: the output and the per-cell prefix, nothing per event, and
    // the output is sized once.
    for cells in [&small, &large] {
        let (text, allocs, reallocs) = counted(|| jsonl(cells));
        let records = cells[0].1.events.len() + cells[0].1.samples.len() + 1;
        assert_eq!(text.lines().count(), records);
        assert!(
            allocs <= 4,
            "jsonl: {allocs} allocations for {records} records"
        );
        assert_eq!(reallocs, 0, "jsonl: the output was re-allocated");
    }

    // Chrome: the output plus the per-cell track list, resident-block
    // list and launch table, which grow by doubling with the number of
    // tracks, resident blocks and launches — never with the events.
    let (text, small_allocs, small_reallocs) = counted(|| chrome_trace(&small));
    assert!(text.contains("\"retire_cycle\"") && text.contains("\"ph\":\"e\""));
    let (_, large_allocs, large_reallocs) = counted(|| chrome_trace(&large));
    for (what, n) in [
        ("10 000", small_allocs + small_reallocs),
        ("40 000", large_allocs + large_reallocs),
    ] {
        assert!(
            n <= 40,
            "chrome_trace: {n} (re)allocations for {what} events"
        );
    }

    // Recorder: 4096 emits pay only for the doubling of the event log
    // (12 steps to 4096) and of the 64-entry ring.
    let ((), allocs, reallocs) = counted(|| {
        let mut rec = Recorder::new(TraceConfig::all());
        for cycle in 0..4096 {
            rec.emit(
                cycle,
                EventKind::WarpIssue {
                    smx: 1,
                    warp: 2,
                    lanes: 32,
                },
            );
        }
        assert_eq!(rec.len(), 4096);
    });
    assert!(
        allocs + reallocs <= 24,
        "Recorder::emit: {allocs} allocations + {reallocs} reallocations for 4096 events"
    );
}
