//! The warp-issue path's allocation budget, counted by a
//! `#[global_allocator]` rather than asserted by reading the code: once a
//! warm-up has placed every thread block and sized the scratch buffers,
//! the memory queues and the access slab, `Gpu::step` allocates nothing —
//! register slabs are pooled, lane sweeps use fixed `[u32; WARP_SIZE]`
//! arrays, and scratch buffers are reused across cycles. A `Vec` or `Box`
//! per issue, per coalesced access or per completion fails the test.
//!
//! Only the calling thread's allocations between `counted`'s start and
//! end are counted, so the test harness's own threads cannot disturb the
//! numbers.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use gpu_isa::{Dim3, KernelBuilder, Op, Program, Space};
use gpu_sim::{Gpu, GpuConfig};

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

const BLOCKS: u32 = 26;
const THREADS: u32 = 128;
const ROUNDS: u32 = 4_000;

#[test]
fn steady_state_step_allocates_nothing() {
    // Every thread loops over its own word: global load, two adds, global
    // store — the ALU, coalescer, memory-access and completion paths of
    // `issue_warp` on every resident warp, two blocks per SMX.
    let mut prog = Program::new();
    let mut b = KernelBuilder::new("churn", Dim3::x(THREADS), 1);
    let gtid = b.global_tid();
    let base = b.ld_param(0);
    let addr = b.mad(gtid, Op::Imm(4), Op::Reg(base));
    b.for_range(Op::Imm(0), Op::Imm(ROUNDS), |b, i| {
        let v = b.ld(Space::Global, addr, 0);
        let w = b.iadd(v, Op::Reg(i));
        let x = b.iadd(w, Op::Imm(1));
        b.st(Space::Global, addr, 0, Op::Reg(x));
    });
    let k = prog.add(b.build().expect("valid kernel"));

    // The invariant checker allocates two maps per step by design; it is
    // an observer, not part of the issue path.
    let cfg = GpuConfig {
        check_invariants: false,
        ..GpuConfig::k20c()
    };
    let mut gpu = Gpu::new(cfg, prog);
    let buf = gpu.malloc(4 * BLOCKS * THREADS).expect("heap");
    gpu.launch(k, BLOCKS, &[buf], 0).expect("launch");

    for _ in 0..20_000 {
        gpu.step().expect("warm-up step");
    }
    let before = gpu.stats().warp_issues;
    let ((), allocs) = counted(|| {
        for _ in 0..50_000 {
            gpu.step().expect("measured step");
        }
    });
    let issues = gpu.stats().warp_issues - before;
    assert!(
        issues > 100_000 && !gpu.is_idle(),
        "the measured steps must stay inside the loop: {issues} warp issues"
    );
    assert_eq!(
        allocs, 0,
        "Gpu::step allocated in steady state ({issues} warp issues)"
    );
}
