//! Robustness tests: the simulator must report simulated-program
//! misbehaviour (deadlocks, runaway loops, guest memory bugs, resource
//! exhaustion) as typed [`SimError`]s with useful diagnostics — never
//! panic, and never burn the whole `max_cycles` budget on a hang the
//! watchdog can catch early.

use gpu_isa::{CmpOp, CmpTy, Dim3, KernelBuilder, KernelId, Op, Program, Space};
use gpu_sim::{DynLaunchKind, FaultPlan, Gpu, GpuConfig, SimError, StuckWarpState};

/// A 2-warp block where warp 0 parks at a barrier and warp 1 spins
/// forever: the canonical divergent-barrier deadlock.
fn barrier_deadlock_program() -> (Program, KernelId) {
    let mut prog = Program::new();
    let mut b = KernelBuilder::new("divergent_barrier", Dim3::x(64), 0);
    let tid = b.global_tid();
    let in_first_warp = b.setp(CmpOp::Lt, CmpTy::U32, tid, Op::Imm(32));
    let one = b.imm(1);
    b.if_else_(
        in_first_warp,
        |b| b.bar(),
        |b| b.while_(|b| b.setp(CmpOp::Eq, CmpTy::U32, one, Op::Imm(1)), |_| {}),
    );
    let k = prog.add(b.build().unwrap());
    (prog, k)
}

#[test]
fn barrier_deadlock_is_caught_early_and_names_the_stuck_warps() {
    let (prog, k) = barrier_deadlock_program();
    let cfg = GpuConfig {
        watchdog_window: 30_000,
        ..GpuConfig::test_small()
    };
    let max_cycles = cfg.max_cycles;
    let mut gpu = Gpu::new(cfg, prog);
    gpu.launch(k, 1, &[], 0).unwrap();
    let err = gpu.run_to_idle().unwrap_err();
    let SimError::BarrierDeadlock { report } = err else {
        panic!("expected a barrier deadlock, got {err}");
    };
    // Caught by the watchdog, not by exhausting the cycle budget.
    assert!(
        report.cycle < max_cycles / 100,
        "watchdog fired at cycle {} — should be well before the {max_cycles}-cycle limit",
        report.cycle
    );
    assert_eq!(report.stuck_warps.len(), 2);
    let parked = report
        .stuck_warps
        .iter()
        .find(|w| matches!(w.state, StuckWarpState::AtBarrier { .. }))
        .expect("one warp is parked at the barrier");
    assert_eq!(
        parked.state,
        StuckWarpState::AtBarrier {
            arrived: 1,
            live: 2
        },
        "the barrier never collects its second warp"
    );
    let spinner = report
        .stuck_warps
        .iter()
        .find(|w| matches!(w.state, StuckWarpState::Stalled { .. }))
        .expect("the sibling warp spins");
    assert_ne!(parked.pc, spinner.pc, "the two warps diverged");
    // The rendered report names the warp and its barrier state.
    let text = SimError::BarrierDeadlock { report }.to_string();
    assert!(text.contains("barrier deadlock"), "{text}");
    assert!(text.contains("at barrier (1/2 warps arrived)"), "{text}");
}

#[test]
fn runaway_loop_is_a_hang_not_a_barrier_deadlock() {
    let mut prog = Program::new();
    let mut b = KernelBuilder::new("spin", Dim3::x(32), 0);
    let one = b.imm(1);
    b.while_(|b| b.setp(CmpOp::Eq, CmpTy::U32, one, Op::Imm(1)), |_| {});
    let k = prog.add(b.build().unwrap());
    let cfg = GpuConfig {
        watchdog_window: 30_000,
        ..GpuConfig::test_small()
    };
    let mut gpu = Gpu::new(cfg, prog);
    gpu.launch(k, 1, &[], 0).unwrap();
    let err = gpu.run_to_idle().unwrap_err();
    let SimError::Hang { report } = err else {
        panic!("expected a hang, got {err}");
    };
    assert!(report.cycle < 100_000);
    assert_eq!(report.stuck_warps.len(), 1);
    assert!(matches!(
        report.stuck_warps[0].state,
        StuckWarpState::Stalled { .. }
    ));
}

#[test]
fn disabling_the_watchdog_falls_back_to_the_cycle_limit() {
    let (prog, k) = barrier_deadlock_program();
    let cfg = GpuConfig {
        watchdog_window: 0,
        max_cycles: 40_000,
        ..GpuConfig::test_small()
    };
    let mut gpu = Gpu::new(cfg, prog);
    gpu.launch(k, 1, &[], 0).unwrap();
    assert_eq!(
        gpu.run_to_idle().unwrap_err(),
        SimError::CycleLimit { cycles: 40_000 }
    );
}

#[test]
fn device_launch_of_unknown_kernel_is_a_typed_error() {
    let mut prog = Program::new();
    let mut b = KernelBuilder::new("bad_parent", Dim3::x(32), 0);
    let buf = b.get_param_buf(1);
    b.launch_device(KernelId(99), Op::Imm(1), buf);
    let k = prog.add(b.build().unwrap());
    let mut gpu = Gpu::new(GpuConfig::test_small(), prog);
    gpu.launch(k, 1, &[], 0).unwrap();
    assert_eq!(
        gpu.run_to_idle().unwrap_err(),
        SimError::UnknownKernel(KernelId(99))
    );
}

#[test]
fn shared_memory_out_of_bounds_is_a_typed_fault() {
    let mut prog = Program::new();
    let mut b = KernelBuilder::new("oob", Dim3::x(32), 0);
    b.alloc_shared_words(1);
    let addr = b.imm(400); // 1 shared word = 4 bytes; 400 is far outside
    b.st(Space::Shared, addr, 0, Op::Imm(7));
    let k = prog.add(b.build().unwrap());
    let mut gpu = Gpu::new(GpuConfig::test_small(), prog);
    gpu.launch(k, 1, &[], 0).unwrap();
    let err = gpu.run_to_idle().unwrap_err();
    let SimError::SharedMemFault { addr, size, .. } = err else {
        panic!("expected a shared-memory fault, got {err}");
    };
    assert_eq!(addr, 400);
    assert_eq!(size, 4);
}

/// The ladder's last rung reports a host-serialized child's guest fault
/// as that fault: a child that overruns shared memory, launched into a
/// KMU pool capped at zero so every retry fails and it runs on rung 3,
/// surfaces as the shared-memory fault the timed path gives, not as
/// saturation.
#[test]
fn a_host_serialized_childs_shared_overrun_is_a_shared_mem_fault() {
    let mut prog = Program::new();
    let mut b = KernelBuilder::new("oob_child", Dim3::x(32), 0);
    b.alloc_shared_words(1);
    let addr = b.imm(400);
    b.st(Space::Shared, addr, 0, Op::Imm(7));
    let child = prog.add(b.build().unwrap());
    let mut b = KernelBuilder::new("parent", Dim3::x(32), 0);
    let tid = b.global_tid();
    let first = b.setp(CmpOp::Eq, CmpTy::U32, tid, Op::Imm(0));
    b.if_(first, |b| {
        let buf = b.get_param_buf(1);
        b.launch_device(child, Op::Imm(1), buf);
    });
    let parent = prog.add(b.build().unwrap());
    let cfg = GpuConfig {
        fault: FaultPlan {
            kmu_device_capacity: Some(0),
            ..FaultPlan::default()
        },
        ..GpuConfig::test_small()
    };
    let mut gpu = Gpu::new(cfg, prog);
    gpu.launch(parent, 1, &[], 0).unwrap();
    let err = gpu.run_to_idle().unwrap_err();
    let SimError::SharedMemFault { addr, size, .. } = err else {
        panic!("expected a shared-memory fault, got {err}");
    };
    assert_eq!((addr, size), (400, 4));
    assert_eq!(
        gpu.stats().degraded_to_host_serial,
        1,
        "the child ran on rung 3"
    );
}

/// A host launch into a hardware work queue at its injected cap is not
/// rejected: it parks in the software deferral queue and runs once the queue
/// drains — the run completes, with the deferral counted.
#[test]
fn hwq_cap_defers_instead_of_rejecting_under_ladder() {
    let mut prog = Program::new();
    let mut b = KernelBuilder::new("noop", Dim3::x(32), 0);
    b.exit();
    let k = prog.add(b.build().unwrap());
    let cfg = GpuConfig {
        fault: FaultPlan {
            hwq_capacity: Some(1),
            ..FaultPlan::default()
        },
        ..GpuConfig::test_small()
    };
    let mut gpu = Gpu::new(cfg, prog);
    gpu.launch(k, 1, &[], 0).unwrap();
    gpu.launch(k, 1, &[], 0).unwrap();
    gpu.launch(k, 1, &[], 0).unwrap();
    let stats = gpu.run_to_idle().unwrap();
    assert_eq!(stats.host_launches, 3, "every launch ran");
    assert_eq!(stats.hwq_full_rejections, 0, "nothing was rejected");
    assert_eq!(stats.host_launches_deferred, 2, "two waited their turn");
}

/// Rung 1 → 2 on a heap-starved spill: an aggregated group whose AGT
/// probe is forced to miss must spill its descriptor, and a heap cap that
/// admits the group's parameter buffer but not the descriptor leaves it
/// nowhere to go. The launch demotes to a plain device kernel instead of
/// failing the run.
#[test]
fn heap_starved_spill_demotes_to_a_device_kernel() {
    const ITERS: u32 = 1000;
    let mut prog = Program::new();
    // child: out[gtid] += ITERS, by a loop long enough that the host-
    // launched warm grid keeps `child` resident (and so eligible for
    // coalescing) while the parent's launch is in flight.
    let mut cb = KernelBuilder::new("child", Dim3::x(32), 1);
    let base = cb.ld_param(0);
    let gtid = cb.global_tid();
    let addr = cb.mad(gtid, Op::Imm(4), Op::Reg(base));
    let v = cb.ld(Space::Global, addr, 0);
    let acc = cb.mov(Op::Reg(v));
    cb.for_range(Op::Imm(0), Op::Imm(ITERS), |b, _| {
        let t = b.iadd(acc, Op::Imm(1));
        b.mov_to(acc, Op::Reg(t));
    });
    cb.st(Space::Global, addr, 0, Op::Reg(acc));
    let child = prog.add(cb.build().unwrap());
    // parent: lane 0 launches one aggregated `child` group over `out`.
    let mut pb = KernelBuilder::new("parent", Dim3::x(32), 1);
    let out = pb.ld_param(0);
    let tid = pb.global_tid();
    let first = pb.setp(CmpOp::Eq, CmpTy::U32, tid, Op::Imm(0));
    pb.if_(first, |b| {
        let buf = b.get_param_buf(1);
        b.st_param_word(buf, 0, Op::Reg(out));
        b.launch_agg(child, Op::Imm(1), buf);
    });
    let parent = prog.add(pb.build().unwrap());

    let setup = |heap_limit_bytes| {
        let cfg = GpuConfig {
            fault: FaultPlan {
                force_agt_overflow: true,
                heap_limit_bytes,
                ..FaultPlan::default()
            },
            ..GpuConfig::test_small()
        };
        let mut gpu = Gpu::new(cfg, prog.clone());
        let warm = gpu.malloc(32 * 4 * 32).unwrap();
        let out = gpu.malloc(32 * 4).unwrap();
        gpu.launch(child, 32, &[warm], 1).unwrap();
        gpu.launch(parent, 1, &[out], 0).unwrap();
        (gpu, out)
    };
    // Host-side bytes, plus 4 for the parameter buffer and less than the
    // 32 the spilled descriptor needs (20 leaves room for the 8 bytes of
    // host parameter buffers that kernel retirement may release first).
    let host_bytes = setup(None).0.heap_live_bytes();
    let (mut gpu, out) = setup(Some(host_bytes + 20));

    let stats = gpu.run_to_idle().expect("the ladder carries the launch");
    assert_eq!(stats.heap_cap_denials, 1, "only the descriptor was denied");
    assert_eq!(stats.degraded_to_device_kernel, 1, "rung 1 → 2, counted");
    let kinds: Vec<DynLaunchKind> = stats.launches.iter().map(|l| l.kind).collect();
    assert_eq!(kinds, [DynLaunchKind::AggFallback]);
    for i in 0..32 {
        assert_eq!(gpu.mem().read_u32(out + 4 * i), ITERS, "child wrote {i}");
    }
}

#[test]
fn injected_heap_cap_denies_allocations() {
    let prog = Program::new();
    let cfg = GpuConfig {
        fault: FaultPlan {
            heap_limit_bytes: Some(1024),
            ..FaultPlan::default()
        },
        ..GpuConfig::test_small()
    };
    let mut gpu = Gpu::new(cfg, prog);
    gpu.malloc(512).unwrap();
    gpu.malloc(512).unwrap();
    assert_eq!(
        gpu.malloc(16).unwrap_err(),
        SimError::OutOfMemory { bytes: 16 }
    );
    assert_eq!(gpu.stats().heap_cap_denials, 1);
}

#[test]
fn injected_memory_delay_slows_the_run_but_preserves_results() {
    let build = || {
        let mut prog = Program::new();
        let mut b = KernelBuilder::new("copy", Dim3::x(64), 2);
        let gtid = b.global_tid();
        let inb = b.ld_param(0);
        let outb = b.ld_param(1);
        let a_in = b.mad(gtid, Op::Imm(4), Op::Reg(inb));
        let v = b.ld(Space::Global, a_in, 0);
        let a_out = b.mad(gtid, Op::Imm(4), Op::Reg(outb));
        b.st(Space::Global, a_out, 0, Op::Reg(v));
        let k = prog.add(b.build().unwrap());
        (prog, k)
    };
    let run_with = |fault: FaultPlan| {
        let (prog, k) = build();
        let cfg = GpuConfig {
            fault,
            ..GpuConfig::test_small()
        };
        let mut gpu = Gpu::new(cfg, prog);
        let inp = gpu.malloc(64 * 4).unwrap();
        let out = gpu.malloc(64 * 4).unwrap();
        let data: Vec<u32> = (0..64u32).map(|i| i ^ 0xabcd).collect();
        gpu.mem_mut().write_slice_u32(inp, &data);
        gpu.launch(k, 1, &[inp, out], 0).unwrap();
        gpu.run_to_idle().unwrap();
        for (i, d) in data.iter().enumerate() {
            assert_eq!(gpu.mem().read_u32(out + 4 * i as u32), *d);
        }
        (gpu.stats().cycles, gpu.stats().forced_mem_delays)
    };
    let (base_cycles, base_delays) = run_with(FaultPlan::default());
    let (slow_cycles, slow_delays) = run_with(FaultPlan {
        mem_delay: 500,
        ..FaultPlan::default()
    });
    assert_eq!(base_delays, 0);
    assert!(slow_delays > 0);
    assert!(
        slow_cycles > base_cycles,
        "delayed completions must lengthen the run ({slow_cycles} vs {base_cycles})"
    );
}

#[test]
fn hang_report_carries_the_trace_tail_when_tracing_is_on() {
    let (prog, k) = barrier_deadlock_program();
    let cfg = GpuConfig {
        watchdog_window: 30_000,
        trace: gpu_sim::TraceConfig::all(),
        ..GpuConfig::test_small()
    };
    let mut gpu = Gpu::new(cfg, prog);
    gpu.launch(k, 1, &[], 0).unwrap();
    let err = gpu.run_to_idle().unwrap_err();
    let SimError::BarrierDeadlock { report } = err else {
        panic!("expected a barrier deadlock, got {err}");
    };
    assert!(
        !report.recent_events.is_empty(),
        "a traced run must attach the recorder's ring to the hang report"
    );
    // Newest-last and nothing from after the watchdog fired.
    let cycles: Vec<u64> = report.recent_events.iter().map(|e| e.cycle).collect();
    assert!(cycles.windows(2).all(|w| w[0] <= w[1]), "{cycles:?}");
    assert!(*cycles.last().unwrap() <= report.cycle);
    let text = SimError::BarrierDeadlock { report }.to_string();
    assert!(text.contains("trace events"), "{text}");

    // The same deadlock without tracing attaches nothing.
    let (prog, k) = barrier_deadlock_program();
    let cfg = GpuConfig {
        watchdog_window: 30_000,
        ..GpuConfig::test_small()
    };
    let mut gpu = Gpu::new(cfg, prog);
    gpu.launch(k, 1, &[], 0).unwrap();
    let SimError::BarrierDeadlock { report } = gpu.run_to_idle().unwrap_err() else {
        panic!("expected a barrier deadlock");
    };
    assert!(report.recent_events.is_empty());
}

#[test]
fn fault_activation_cycle_defers_injection() {
    let prog = Program::new();
    let cfg = GpuConfig {
        fault: FaultPlan {
            after_cycle: 1, // host-time malloc happens at cycle 0
            heap_limit_bytes: Some(0),
            ..FaultPlan::default()
        },
        ..GpuConfig::test_small()
    };
    let mut gpu = Gpu::new(cfg, prog);
    gpu.malloc(64).unwrap(); // cap not active yet
    assert_eq!(gpu.stats().heap_cap_denials, 0);
}

/// Trace events store SMX indices as `u16`: a machine with more SMXs than
/// that is refused before anything is built, not traced with aliased ids.
#[test]
#[should_panic(expected = "must each fit in u16")]
fn a_machine_wider_than_the_trace_fields_is_refused() {
    let cfg = GpuConfig {
        num_smx: 65_536,
        ..GpuConfig::test_small()
    };
    Gpu::new(cfg, Program::new());
}
