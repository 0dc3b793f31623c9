//! The event-driven cycle engine's contract: identical `Stats` to
//! per-cycle stepping, far fewer executed steps on latency-bound spans,
//! and exact parameter-buffer heap accounting across kernel retirement.

use gpu_isa::{Dim3, KernelBuilder, Op, Program, Space};
use gpu_sim::{FaultPlan, Gpu, GpuConfig, SimError};
use gpu_trace::TraceConfig;

/// out[i] = in[i] + 1 over one warp.
fn one_warp_load_program() -> (Program, gpu_isa::KernelId) {
    let mut prog = Program::new();
    let mut b = KernelBuilder::new("inc", Dim3::x(32), 2);
    let gtid = b.global_tid();
    let inb = b.ld_param(0);
    let outb = b.ld_param(1);
    let a_in = b.mad(gtid, Op::Imm(4), Op::Reg(inb));
    let v = b.ld(Space::Global, a_in, 0);
    let v1 = b.iadd(v, Op::Imm(1));
    let a_out = b.mad(gtid, Op::Imm(4), Op::Reg(outb));
    b.st(Space::Global, a_out, 0, Op::Reg(v1));
    let k = prog.add(b.build().unwrap());
    (prog, k)
}

fn setup(cfg: GpuConfig) -> Gpu {
    let (prog, k) = one_warp_load_program();
    let mut gpu = Gpu::new(cfg, prog);
    let inp = gpu.malloc(32 * 4).unwrap();
    let out = gpu.malloc(32 * 4).unwrap();
    let data: Vec<u32> = (0..32).collect();
    gpu.mem_mut().write_slice_u32(inp, &data);
    gpu.launch(k, 1, &[inp, out], 0).unwrap();
    gpu
}

/// One warp put to sleep for 10 000 cycles by an injected memory wake
/// delay: the event engine must reach idle in a number of *steps*
/// proportional to the events, not the cycles — while producing stats
/// bit-identical to the per-cycle engine grinding through every cycle.
#[test]
fn sleeping_warp_reaches_idle_in_o_events_steps() {
    let fault = FaultPlan {
        mem_delay: 10_000,
        ..FaultPlan::default()
    };
    let mut evented_cfg = GpuConfig::test_small();
    evented_cfg.fault = fault;
    let mut percycle_cfg = evented_cfg.clone();
    percycle_cfg.force_per_cycle = true;

    let mut evented = setup(evented_cfg);
    let mut percycle = setup(percycle_cfg);
    let ev_stats = evented
        .run_to_idle()
        .expect("evented run converges")
        .clone();
    let pc_stats = percycle
        .run_to_idle()
        .expect("per-cycle run converges")
        .clone();

    assert_eq!(ev_stats, pc_stats, "the two engines must agree bit-for-bit");
    assert!(
        ev_stats.cycles > 10_000,
        "the injected delay must dominate the run ({} cycles)",
        ev_stats.cycles
    );
    assert_eq!(
        percycle.steps_executed(),
        pc_stats.cycles,
        "per-cycle mode steps every cycle"
    );
    assert!(
        evented.steps_executed() < ev_stats.cycles / 10,
        "event engine must skip the sleep: {} steps for {} cycles",
        evented.steps_executed(),
        ev_stats.cycles
    );
}

/// Sampled tracing must not switch the event engine off: with a metrics
/// sample every 1000 cycles the sample cycles are landing sites, so the
/// 10 000-cycle sleep costs about ten extra steps, not ten thousand — and
/// the events and samples are those of the per-cycle engine.
#[test]
fn sampled_tracing_still_skips_the_sleep() {
    let mut evented_cfg = GpuConfig::test_small();
    evented_cfg.fault = FaultPlan {
        mem_delay: 10_000,
        ..FaultPlan::default()
    };
    evented_cfg.trace = TraceConfig::all();
    let mut percycle_cfg = evented_cfg.clone();
    percycle_cfg.force_per_cycle = true;

    let mut evented = setup(evented_cfg);
    let mut percycle = setup(percycle_cfg);
    let ev_stats = evented.run_to_idle().expect("evented run").clone();
    let pc_stats = percycle.run_to_idle().expect("per-cycle run").clone();
    assert_eq!(ev_stats, pc_stats);
    assert!(
        evented.steps_executed() < ev_stats.cycles / 10,
        "sampled tracing must still skip: {} steps for {} cycles",
        evented.steps_executed(),
        ev_stats.cycles
    );

    let ev = evented.take_trace().expect("tracing was enabled");
    let pc = percycle.take_trace().expect("tracing was enabled");
    assert_eq!(ev.events, pc.events);
    assert_eq!(ev.samples, pc.samples);
    assert_eq!(ev.samples.len() as u64, (ev_stats.cycles - 1) / 1000);
    assert!(ev.samples.len() >= 10, "the sleep spans ten sample cycles");
}

/// Parameter-buffer heap accounting (satellite of the engine PR): two
/// kernels with different parameter counts must return `live_bytes` to
/// its pre-launch baseline once both retire — the retirement path frees
/// the *recorded* size of each buffer, not a fixed token.
#[test]
fn param_buffer_accounting_returns_to_baseline() {
    let mut prog = Program::new();
    // Kernel A: 2 params (8 bytes -> one 256-byte aligned slot).
    let mut a = KernelBuilder::new("two_params", Dim3::x(32), 2);
    let gtid = a.global_tid();
    let outb = a.ld_param(1);
    let addr = a.mad(gtid, Op::Imm(4), Op::Reg(outb));
    a.st(Space::Global, addr, 0, Op::Reg(gtid));
    let ka = prog.add(a.build().unwrap());
    // Kernel B: 70 params (280 bytes -> two aligned slots), so freeing a
    // fixed-size token instead of the recorded size cannot balance.
    let mut bb = KernelBuilder::new("many_params", Dim3::x(32), 70);
    let gtid = bb.global_tid();
    let outb = bb.ld_param(69);
    let addr = bb.mad(gtid, Op::Imm(4), Op::Reg(outb));
    bb.st(Space::Global, addr, 0, Op::Reg(gtid));
    let kb = prog.add(bb.build().unwrap());

    let mut gpu = Gpu::new(GpuConfig::test_small(), prog);
    let out = gpu.malloc(32 * 4).unwrap();
    let baseline = gpu.heap_live_bytes();

    gpu.launch(ka, 1, &[7, out], 0).unwrap();
    let mut params_b = vec![0u32; 70];
    params_b[69] = out;
    gpu.launch(kb, 1, &params_b, 1).unwrap();
    assert!(
        gpu.heap_live_bytes() >= baseline + 256 + 512,
        "both parameter buffers must be charged while the kernels run"
    );
    gpu.run_to_idle().expect("runs converge");
    assert_eq!(
        gpu.heap_live_bytes(),
        baseline,
        "retiring both kernels must release exactly the recorded bytes"
    );
}

/// The hang watchdog must fire at the identical cycle in both engines: a
/// kernel that waits forever on a barrier (one warp never arrives) makes
/// the whole machine quiet, so the event engine jumps straight to the
/// watchdog deadline instead of crawling there.
#[test]
fn watchdog_fires_at_identical_cycle_in_both_engines() {
    fn deadlock_gpu(force_per_cycle: bool) -> Gpu {
        let mut prog = Program::new();
        // A block demanding more shared memory than an SMX has can never
        // be placed: the kernel sits installed in the distributor with
        // nothing else running — a fully quiet machine with work left.
        let mut b = KernelBuilder::new("too_big", Dim3::x(32), 1);
        b.alloc_shared_words(16 * 1024); // 64 KiB > the 48 KiB per SMX
        let _ = b.imm(0);
        let k = prog.add(b.build().unwrap());
        let mut cfg = GpuConfig::test_small();
        cfg.watchdog_window = 5_000;
        cfg.force_per_cycle = force_per_cycle;
        let mut gpu = Gpu::new(cfg, prog);
        gpu.launch(k, 1, &[], 0).unwrap();
        gpu
    }

    let mut evented = deadlock_gpu(false);
    let mut percycle = deadlock_gpu(true);
    let ev = evented.run_to_idle().expect_err("must hang");
    let pc = percycle.run_to_idle().expect_err("must hang");
    match (&ev, &pc) {
        (SimError::Hang { report: a }, SimError::Hang { report: b }) => {
            assert_eq!(a.cycle, b.cycle, "watchdog cycle must match");
        }
        other => panic!("expected two hangs, got {other:?}"),
    }
    assert_eq!(evented.cycle(), percycle.cycle());
    assert!(
        evented.steps_executed() < percycle.steps_executed() / 100,
        "the event engine must jump to the deadline ({} vs {} steps)",
        evented.steps_executed(),
        percycle.steps_executed()
    );
}
