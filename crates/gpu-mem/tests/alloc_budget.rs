//! The timing model's and the coalescer's allocation budget, counted by a
//! `#[global_allocator]` rather than asserted by reading the code: once a
//! warm-up has sized the queues, the MSHR table and its waiter arena,
//! `MemSubsystem::access` / `tick` and the mask-form coalescer allocate
//! nothing — no `Vec` per L2 miss, no heap or hash-table growth.
//!
//! Only the calling thread's allocations between `counted`'s start and
//! end are counted, so the test harness's own threads cannot disturb the
//! numbers.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use gpu_mem::coalesce::coalesce_mask_into;
use gpu_mem::{AccessId, AccessKind, MemConfig, MemSubsystem};
use sim_rand::{Rng, SeedableRng, StdRng};

thread_local! {
    static COUNTING: Cell<bool> = const { Cell::new(false) };
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

struct Counting;

fn bump() {
    // `try_with`: the allocator also runs while a thread's locals are
    // being torn down.
    if COUNTING.try_with(Cell::get).unwrap_or(false) {
        let _ = ALLOCS.try_with(|c| c.set(c.get() + 1));
    }
}

// SAFETY: every method forwards to `System` with its arguments unchanged;
// the counters are plain thread-local cells that never allocate.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        bump();
        // SAFETY: the caller's contract is `System.alloc`'s contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        bump();
        // SAFETY: the caller's contract is `System.alloc_zeroed`'s contract.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` through the methods above.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        bump();
        // SAFETY: `ptr` came from `System` through the methods above.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Runs `f` and returns its result with the allocations and
/// reallocations this thread performed meanwhile.
fn counted<T>(f: impl FnOnce() -> T) -> (T, u64) {
    ALLOCS.with(|c| c.set(0));
    COUNTING.with(|c| c.set(true));
    let value = f();
    COUNTING.with(|c| c.set(false));
    (value, ALLOCS.with(Cell::get))
}

/// `calls` mixed `access` / `tick` calls: loads, stores and atomics from
/// random SMXs over hot lines (L1 and L2 hits, MSHR merges), a streamed
/// region and full-range scatter (DRAM reads, dirty evictions). Like the
/// SMXs' finite warp slots, the driver stops issuing while `window`
/// loads and atomics are outstanding, which bounds how deep every queue
/// runs.
fn drive(
    mem: &mut MemSubsystem,
    rng: &mut StdRng,
    now: &mut u64,
    done: &mut Vec<AccessId>,
    calls: usize,
    window: usize,
) -> u64 {
    let smxs = mem.config().num_smx;
    let mut completed = 0;
    for _ in 0..calls {
        if rng.gen_bool(0.7) && mem.in_flight() < window {
            let addr = match rng.gen_range(0u32..10) {
                0..=3 => rng.gen_range(0u32..64) * 128,
                4..=6 => 0x40_0000 + rng.gen_range(0u32..1 << 16) * 128,
                _ => rng.gen(),
            };
            let kind = match rng.gen_range(0u32..10) {
                0..=5 => AccessKind::Load,
                6..=8 => AccessKind::Store,
                _ => AccessKind::Atomic,
            };
            mem.access(rng.gen_range(0..smxs), addr, kind, *now);
        } else {
            done.clear();
            mem.tick(*now, done);
            completed += done.len() as u64;
            *now += 1;
        }
    }
    completed
}

// One test function: the sections share the thread-local counter.
#[test]
fn steady_state_access_tick_and_coalesce_allocate_nothing() {
    let mut rng = StdRng::seed_from_u64(0xA110C);
    let mut mem = MemSubsystem::new(MemConfig::default());
    let (mut now, mut done) = (0u64, Vec::new());

    // Warm-up with four times the measured window, so every queue, the
    // MSHR table and the waiter arena have met deeper backlogs than the
    // measured phase can produce.
    drive(&mut mem, &mut rng, &mut now, &mut done, 200_000, 4096);
    drive(&mut mem, &mut rng, &mut now, &mut done, 50_000, 1024);

    let before = mem.stats();
    let (completed, allocs) =
        counted(|| drive(&mut mem, &mut rng, &mut now, &mut done, 100_000, 1024));
    let after = mem.stats();
    assert!(completed > 10_000, "only {completed} completions");
    assert!(
        after.dram.n_rd > before.dram.n_rd + 1_000 && after.dram.n_wr > before.dram.n_wr,
        "the measured phase must miss in the L2 and evict: {before:?} -> {after:?}"
    );
    assert_eq!(
        allocs, 0,
        "access/tick allocated in steady state ({completed} completions)"
    );

    // The mask-form coalescer into a reused buffer: coalesced, strided,
    // scattered and descending warps, the last two through the sort.
    let mut segs = Vec::new();
    let mut warps = Vec::new();
    for shape in 0..4u32 {
        for _ in 0..8 {
            let base: u32 = rng.gen();
            let addrs: [u32; 32] = std::array::from_fn(|lane| match shape {
                0 => base.wrapping_add(lane as u32 * 4),
                1 => base.wrapping_add(lane as u32 * 128 + 126),
                2 => rng.gen(),
                _ => base.wrapping_sub(lane as u32 * 4096),
            });
            warps.push((addrs, rng.gen::<u32>() | 1));
        }
    }
    for (addrs, mask) in &warps {
        coalesce_mask_into(addrs, *mask, &mut segs);
    }
    let (txns, allocs) = counted(|| {
        let mut txns = 0;
        for i in 0..10_000 {
            let (addrs, mask) = &warps[i % warps.len()];
            coalesce_mask_into(addrs, *mask, &mut segs);
            txns += segs.len();
        }
        txns
    });
    assert!(txns > 10_000);
    assert_eq!(allocs, 0, "coalesce_mask_into allocated into a warm buffer");
}
