//! The warp-issue path's allocation budget, counted by a
//! `#[global_allocator]` rather than asserted by reading the code: once a
//! warm-up has placed every thread block and sized the scratch buffers,
//! the memory queues and the access slab, `Gpu::step` allocates nothing —
//! register slabs are pooled, lane sweeps use fixed `[u32; WARP_SIZE]`
//! arrays, and scratch buffers are reused across cycles. A `Vec` or `Box`
//! per issue, per coalesced access or per completion fails the test.
//!
//! The same allocator counts bytes as well, which pins the result
//! cache's side of the budget: a cache hit shares the cached report's
//! launch log, so it costs the same bytes whatever the launch count.
//!
//! Only the calling thread's allocations between `counted`'s start and
//! end are counted, so the test harness's own threads cannot disturb the
//! numbers.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::Arc;

use gpu_isa::{Dim3, KernelBuilder, Op, Program, Space};
use gpu_sim::sweep::CellOutcome;
use gpu_sim::{BatchServer, CellKey, DynLaunchKind, Gpu, GpuConfig, LaunchRecord, Stats};

thread_local! {
    static COUNTING: Cell<bool> = const { Cell::new(false) };
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
    static BYTES: Cell<u64> = const { Cell::new(0) };
}

struct Counting;

fn bump(bytes: usize) {
    // `try_with`: the allocator also runs while a thread's locals are
    // being torn down.
    if COUNTING.try_with(Cell::get).unwrap_or(false) {
        let _ = ALLOCS.try_with(|c| c.set(c.get() + 1));
        let _ = BYTES.try_with(|c| c.set(c.get() + bytes as u64));
    }
}

// SAFETY: every method forwards to `System` with its arguments unchanged;
// the counters are plain thread-local cells that never allocate.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        bump(layout.size());
        // SAFETY: the caller's contract is `System.alloc`'s contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        bump(layout.size());
        // SAFETY: the caller's contract is `System.alloc_zeroed`'s contract.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` through the methods above.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        bump(new_size);
        // SAFETY: `ptr` came from `System` through the methods above.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// What one thread allocated: calls (allocations and reallocations) and
/// the bytes they asked for.
struct Allocated {
    calls: u64,
    bytes: u64,
}

/// Runs `f` and returns its result with what this thread allocated
/// meanwhile.
fn counted<T>(f: impl FnOnce() -> T) -> (T, Allocated) {
    ALLOCS.with(|c| c.set(0));
    BYTES.with(|c| c.set(0));
    COUNTING.with(|c| c.set(true));
    let value = f();
    COUNTING.with(|c| c.set(false));
    let allocated = Allocated {
        calls: ALLOCS.with(Cell::get),
        bytes: BYTES.with(Cell::get),
    };
    (value, allocated)
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
    let ((), allocated) = counted(|| {
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
        allocated.calls, 0,
        "Gpu::step allocated in steady state ({issues} warp issues)"
    );
}

#[test]
fn cache_hit_shares_the_launch_log() {
    let server = BatchServer::<Stats>::new(1, 0);
    let key = |&launches: &usize| {
        Some(CellKey {
            config_hash: launches as u64,
            budget_hash: 0,
            workload: "launch_log".into(),
            seed: 0,
            variant: "DTBL".into(),
        })
    };
    let record = LaunchRecord {
        kind: DynLaunchKind::AggGroup,
        launched_at: 10,
        first_tb_at: Some(60),
        ntb: 2,
        threads_per_tb: 64,
        reserved_bytes: 512,
    };
    let mut hit_bytes = Vec::new();
    for launches in [10, 10_000] {
        let miss = server.run_batch(vec![launches], key, |&n, _| {
            Ok(Stats {
                launches: Arc::new(vec![record; n]),
                ..Stats::default()
            })
        });
        let (hit, allocated) = counted(|| {
            server.run_batch(vec![launches], key, |_, _| unreachable!("a hit never runs"))
        });
        let (CellOutcome::Ok(ran), CellOutcome::Ok(served)) = (&miss[0].1, &hit[0].1) else {
            panic!("{launches} launches: the miss ran and the resubmission hit");
        };
        assert_eq!(served.launches.len(), launches);
        assert!(
            Arc::ptr_eq(&served.launches, &ran.launches),
            "{launches} launches: the hit copied the cached launch log"
        );
        hit_bytes.push(allocated.bytes);
    }
    assert_eq!(server.cache_hits(), 2);
    assert!(
        hit_bytes[1] <= hit_bytes[0],
        "a hit on 10,000 launch records allocated {} bytes, one on 10 allocated {}",
        hit_bytes[1],
        hit_bytes[0]
    );
}
