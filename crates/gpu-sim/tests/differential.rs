//! Differential testing: random structured kernels are executed by both
//! the cycle-level simulator (PDOM reconvergence stack, timed memory) and
//! the `gpu_isa::interp` reference interpreter (recursive mask splitting,
//! untimed memory). Their final architectural memory must agree exactly.
//!
//! Program shapes are constrained to be race-free so both engines are
//! deterministic regardless of scheduling order:
//! * plain stores go to a per-thread output slot (`out[slot]`);
//! * atomic updates are commutative (add/min/max/or) on shared counters;
//! * loads read a read-only input region;
//! * a launch fills its own parameter buffer, and each child thread's
//!   slot follows from its parent's, so every thread of every grid owns
//!   one slot.
//!
//! Launch-bearing cases run a three-kernel program: the root grid's
//! threads launch child grids, whose threads launch grandchild grids.
//! Each case runs on the simulator as device launches, as aggregated
//! launches with coalescing on and off, and with a one-kernel KMU pool
//! that drives launches down to the host-serialized rung, where grids run
//! on the interpreter inside the simulator.
//!
//! Cases are generated by a seeded `sim_rand` loop (offline stand-in for
//! proptest), so each failure replays from its case index.

use gpu_isa::interp::{run_kernel, FlatMemory, WordMem};
use gpu_isa::{
    AtomOp, CmpOp, CmpTy, Dim3, KernelBuilder, KernelId, LaunchKind, Op, Program, Reg, SReg, Space,
};
use gpu_sim::{DynLaunchKind, FaultPlan, Gpu, GpuConfig, Stats};
use sim_rand::{Rng, SeedableRng, StdRng};

const N_THREADS: u32 = 192; // 3 blocks of 64 in the sim run
const BLOCK: u32 = 64;
const N_COUNTERS: u32 = 8;

/// Threads of a launching grid per launch: the launch site's guard admits
/// one local slot in `FANOUT`.
const FANOUT: u32 = 16;
/// Blocks of a child grid (1 or 2) times its 32 threads, at most.
const CHILD_SLOTS: u32 = 64;
/// First slot and slot count of each depth's output region: the root's
/// 192 threads, then `CHILD_SLOTS` per launch at depths 1 and 2.
const REGION: [(u32, u32); 3] = [(0, 192), (192, 768), (960, 3072)];
const SLOTS: u32 = 960 + 3072;

/// Addresses (identical in both engines): params at PARAM, inputs at IN,
/// per-thread outputs at OUT, atomic counters at CTR. Parameter buffers
/// of launches come from each engine's own heap, far above these.
const PARAM: u32 = 0x100;
const IN: u32 = 0x1000;
const OUT: u32 = 0x8000;
const CTR: u32 = 0xF000;

/// A random structured program AST.
#[derive(Clone, Debug)]
enum Node {
    /// `acc = acc <op> f(gtid, k)`.
    Alu(u8, u32),
    /// `acc = acc + in[(acc ^ k) % N_THREADS]`.
    LoadIn(u32),
    /// `out[slot] ^= acc` (via read-modify-write store by owner thread).
    StoreOut,
    /// Commutative atomic on counter `k % N_COUNTERS` (the op kind is a
    /// function of the counter index).
    Atomic(u32),
    /// `if (gtid & mask) != 0 { then } else { els }`.
    If(u32, Vec<Node>, Vec<Node>),
    /// `for i in 0..n { body }`.
    For(u32, Vec<Node>),
    /// Threads whose local slot is `r` modulo [`FANOUT`] launch a grid of
    /// the next kernel down with `(acc & 1) + 1` blocks. Only ever at the
    /// top level of a kernel, so each thread launches at most once.
    Launch(u32),
}

fn gen_node(rng: &mut StdRng, depth: u32) -> Node {
    let leaf = depth == 0 || rng.gen_bool(0.55);
    if leaf {
        match rng.gen_range(0u32..4) {
            0 => Node::Alu(rng.gen_range(0u8..6), rng.gen()),
            1 => Node::LoadIn(rng.gen()),
            2 => Node::StoreOut,
            _ => Node::Atomic(rng.gen()),
        }
    } else if rng.gen_bool(0.5) {
        let mask = rng.gen_range(1u32..32);
        let then = gen_nodes_sized(rng, depth - 1, 1, 2);
        let els = gen_nodes_sized(rng, depth - 1, 0, 2);
        Node::If(mask, then, els)
    } else {
        let n = rng.gen_range(1u32..5);
        Node::For(n, gen_nodes_sized(rng, depth - 1, 1, 2))
    }
}

fn gen_nodes_sized(rng: &mut StdRng, depth: u32, min: usize, max: usize) -> Vec<Node> {
    let n = rng.gen_range(min..=max);
    (0..n).map(|_| gen_node(rng, depth)).collect()
}

fn gen_nodes(rng: &mut StdRng) -> Vec<Node> {
    gen_nodes_sized(rng, 3, 1, 5)
}

/// Inserts a [`Node::Launch`] at a random top-level position.
fn insert_launch(rng: &mut StdRng, nodes: &mut Vec<Node>) {
    let at = rng.gen_range(0..=nodes.len());
    nodes.insert(at, Node::Launch(rng.gen_range(0..FANOUT)));
}

/// The registers and place of the kernel `emit` writes into.
#[derive(Clone, Copy, Debug)]
struct Frame {
    gtid: Reg,
    /// This thread's slot within its depth's output region.
    local: Reg,
    acc: Reg,
    depth: usize,
    kind: LaunchKind,
}

impl Frame {
    /// This thread's output word.
    fn out_addr(self, b: &mut KernelBuilder) -> Reg {
        let base = OUT + REGION[self.depth].0 * 4;
        b.mad(self.local, Op::Imm(4), Op::Imm(base))
    }
}

fn emit(b: &mut KernelBuilder, nodes: &[Node], f: Frame) {
    let Frame { gtid, acc, .. } = f;
    for n in nodes {
        match n {
            Node::Alu(op, k) => {
                let v = match op {
                    0 => b.iadd(acc, Op::Imm(k | 1)),
                    1 => b.xor_(acc, Op::Imm(*k)),
                    2 => b.imul(acc, Op::Imm((k | 1) & 0xffff)),
                    3 => b.shru(acc, Op::Imm(k % 7)),
                    4 => b.imaxs(acc, Op::Imm(k & 0x7fff_ffff)),
                    _ => {
                        let t = b.iadd(gtid, Op::Imm(*k));
                        b.xor_(acc, Op::Reg(t))
                    }
                };
                b.mov_to(acc, Op::Reg(v));
            }
            Node::LoadIn(k) => {
                let idx0 = b.xor_(acc, Op::Imm(*k));
                let idx = b.iremu(idx0, Op::Imm(N_THREADS));
                let a = b.mad(idx, Op::Imm(4), Op::Imm(IN));
                let v = b.ld(Space::Global, a, 0);
                let t = b.iadd(acc, Op::Reg(v));
                b.mov_to(acc, Op::Reg(t));
            }
            Node::StoreOut => {
                let a = f.out_addr(b);
                let old = b.ld(Space::Global, a, 0);
                let nv = b.xor_(old, Op::Reg(acc));
                b.st(Space::Global, a, 0, Op::Reg(nv));
            }
            Node::Atomic(k) => {
                let ctr = k % N_COUNTERS;
                let ca = b.imm(CTR + ctr * 4);
                // The operation is a function of the counter index so each
                // counter only ever sees ONE commutative operation —
                // mixing op kinds on one location is order-sensitive and
                // would make the oracle comparison flaky.
                let aop = match ctr % 4 {
                    0 => AtomOp::Add,
                    1 => AtomOp::MinU,
                    2 => AtomOp::MaxU,
                    _ => AtomOp::Or,
                };
                b.atom_noret(aop, Space::Global, ca, 0, Op::Reg(acc));
            }
            Node::If(mask, then, els) => {
                let m = b.and_(gtid, Op::Imm(*mask));
                let p = b.setp(CmpOp::Ne, CmpTy::U32, m, Op::Imm(0));
                // Split borrows: closures re-use the recursive emitter.
                let then = then.clone();
                let els = els.clone();
                b.if_else_(p, move |b| emit(b, &then, f), move |b| emit(b, &els, f));
            }
            Node::For(n, body) => {
                let body = body.clone();
                b.for_range(Op::Imm(0), Op::Imm(*n), move |b, i| {
                    let t = b.iadd(acc, Op::Reg(i));
                    b.mov_to(acc, Op::Reg(t));
                    emit(b, &body, f);
                });
            }
            Node::Launch(r) => {
                let m = b.and_(f.local, Op::Imm(FANOUT - 1));
                let p = b.setp(CmpOp::Eq, CmpTy::U32, m, Op::Imm(*r));
                b.if_(p, move |b| {
                    // Child slots start at (local / FANOUT) * CHILD_SLOTS.
                    let g = b.shru(f.local, Op::Imm(FANOUT.trailing_zeros()));
                    let base = b.imul(g, Op::Imm(CHILD_SLOTS));
                    let bit = b.and_(acc, Op::Imm(1));
                    let ntb = b.iadd(bit, Op::Imm(1));
                    let buf = b.get_param_buf(2);
                    b.st_param_word(buf, 0, Op::Reg(base));
                    b.st_param_word(buf, 1, Op::Reg(acc));
                    let child = KernelId(f.depth as u16 + 1);
                    match f.kind {
                        LaunchKind::Device => b.launch_device(child, Op::Reg(ntb), buf),
                        LaunchKind::Agg => b.launch_agg(child, Op::Reg(ntb), buf),
                    }
                });
            }
        }
    }
}

/// Adds the footprint every thread leaves, `out[slot] += acc`, and builds.
fn finish(mut b: KernelBuilder, nodes: &[Node], f: Frame) -> gpu_isa::Kernel {
    emit(&mut b, nodes, f);
    let a = f.out_addr(&mut b);
    let old = b.ld(Space::Global, a, 0);
    let nv = b.iadd(old, Op::Reg(f.acc));
    b.st(Space::Global, a, 0, Op::Reg(nv));
    b.build().expect("generated kernel builds")
}

/// The root kernel: `N_THREADS` threads, each owning slot `gtid`.
fn build_kernel(nodes: &[Node], kind: LaunchKind) -> gpu_isa::Kernel {
    let mut b = KernelBuilder::new("fuzz", Dim3::x(BLOCK), 1);
    let gtid = b.global_tid();
    let n = b.ld_param(0);
    let oob = b.setp(CmpOp::Ge, CmpTy::U32, gtid, Op::Reg(n));
    b.if_(oob, |b| b.exit());
    let acc = b.mov(Op::Reg(gtid));
    let f = Frame {
        gtid,
        local: gtid,
        acc,
        depth: 0,
        kind,
    };
    finish(b, nodes, f)
}

/// A launched kernel at `depth`: 32-thread blocks reading their slot base
/// and their parent's `acc` from the parameter buffer. `acc` starts from
/// both and from the grid size, so a block given the wrong parameter
/// buffer or the wrong `nctaid` leaves a different footprint.
fn build_child(nodes: &[Node], depth: usize, kind: LaunchKind) -> gpu_isa::Kernel {
    let mut b = KernelBuilder::new("fuzz_child", Dim3::x(32), 2);
    let gtid = b.global_tid();
    let base = b.ld_param(0);
    let local = b.iadd(base, Op::Reg(gtid));
    let parent_acc = b.ld_param(1);
    let nctaid = b.s2r(SReg::NCtaIdX);
    let t = b.shl(nctaid, Op::Imm(8));
    let a0 = b.xor_(parent_acc, Op::Reg(t));
    let acc = b.iadd(a0, Op::Reg(local));
    let f = Frame {
        gtid,
        local,
        acc,
        depth,
        kind,
    };
    finish(b, nodes, f)
}

/// Root, child and grandchild as kernels 0, 1 and 2.
fn build_program(levels: &[Vec<Node>; 3], kind: LaunchKind) -> Program {
    let mut prog = Program::new();
    prog.add(build_kernel(&levels[0], kind));
    for (depth, nodes) in levels.iter().enumerate().skip(1) {
        prog.add(build_child(nodes, depth, kind));
    }
    prog
}

fn inputs() -> Vec<u32> {
    (0..N_THREADS)
        .map(|i| i.wrapping_mul(2654435761) ^ 0xabcd)
        .collect()
}

/// The interpreter's memory, counting the grids of each kernel it runs.
#[derive(Default)]
struct Counted {
    mem: FlatMemory,
    grids: [usize; 3],
}

impl WordMem for Counted {
    fn read_u32(&self, addr: u32) -> u32 {
        self.mem.read_u32(addr)
    }

    fn write_u32(&mut self, addr: u32, v: u32) {
        self.mem.write_u32(addr, v)
    }

    fn alloc(&mut self, bytes: u32) -> Option<u32> {
        self.mem.alloc(bytes)
    }

    fn grid_finished(&mut self, kernel: KernelId, _ntb: u32, _param_addr: u32) {
        self.grids[usize::from(kernel.0)] += 1;
    }
}

/// Final output slots and counters, as both engines leave them.
type Image = (Vec<u32>, Vec<u32>);

fn run_interp(prog: &Program) -> (Image, [usize; 3]) {
    let mut mem = Counted::default();
    mem.write_u32(PARAM, N_THREADS);
    for (i, v) in inputs().iter().enumerate() {
        mem.write_u32(IN + (i as u32) * 4, *v);
    }
    run_kernel(prog, KernelId(0), N_THREADS / BLOCK, PARAM, &mut mem).expect("interp runs");
    let image = (
        (0..SLOTS).map(|i| mem.read_u32(OUT + i * 4)).collect(),
        (0..N_COUNTERS).map(|i| mem.read_u32(CTR + i * 4)).collect(),
    );
    (image, mem.grids)
}

/// The final image, statistics and live heap bytes of a simulator run.
fn run_sim(prog: Program, cfg: GpuConfig) -> (Image, Stats, u64) {
    let mut gpu = Gpu::new(cfg, prog);
    // Mirror the interpreter's address map directly in device memory (the
    // sim heap allocator is bypassed; raw addresses are valid there too).
    gpu.mem_mut().write_u32(PARAM, N_THREADS);
    for (i, v) in inputs().iter().enumerate() {
        gpu.mem_mut().write_u32(IN + (i as u32) * 4, *v);
    }
    // Launch with an explicit parameter buffer matching PARAM: easiest is
    // to use the public API and copy the param word where LdParam reads.
    gpu.launch_with_param_addr(KernelId(0), N_THREADS / BLOCK, PARAM, 0)
        .expect("launch");
    let stats = gpu.run_to_idle().expect("sim runs").clone();
    let image = (
        (0..SLOTS)
            .map(|i| gpu.mem().read_u32(OUT + i * 4))
            .collect(),
        (0..N_COUNTERS)
            .map(|i| gpu.mem().read_u32(CTR + i * 4))
            .collect(),
    );
    (image, stats, gpu.heap_live_bytes())
}

/// One launch-free kernel on both engines.
fn check_flat(nodes: &[Node]) -> (Image, Image) {
    let one = |nodes: &[Node]| {
        let mut prog = Program::new();
        prog.add(build_kernel(nodes, LaunchKind::Device));
        prog
    };
    let (interp, _) = run_interp(&one(nodes));
    let (sim, ..) = run_sim(one(nodes), GpuConfig::test_small());
    (interp, sim)
}

#[test]
fn simulator_matches_reference_interpreter() {
    let mut rng = StdRng::seed_from_u64(0xD1FF);
    for case in 0..48 {
        let nodes = gen_nodes(&mut rng);
        let ((out_i, ctr_i), (out_s, ctr_s)) = check_flat(&nodes);
        assert_eq!(
            out_i, out_s,
            "case {case}: per-thread outputs diverged for {nodes:?}"
        );
        assert_eq!(
            ctr_i, ctr_s,
            "case {case}: atomic counters diverged for {nodes:?}"
        );
    }
}

/// One way the simulator may carry a case's launches.
struct Leg {
    name: &'static str,
    kind: LaunchKind,
    coalescing: bool,
    kmu_device_capacity: Option<usize>,
}

const LEGS: [Leg; 4] = [
    Leg {
        name: "device launches",
        kind: LaunchKind::Device,
        coalescing: true,
        kmu_device_capacity: None,
    },
    Leg {
        name: "aggregated launches, coalescing on",
        kind: LaunchKind::Agg,
        coalescing: true,
        kmu_device_capacity: None,
    },
    Leg {
        name: "aggregated launches, coalescing off",
        kind: LaunchKind::Agg,
        coalescing: false,
        kmu_device_capacity: None,
    },
    Leg {
        name: "device launches, one-kernel KMU pool",
        kind: LaunchKind::Device,
        coalescing: true,
        kmu_device_capacity: Some(1),
    },
];

/// 48 seeded three-level programs, each on every leg: final memory equals
/// the interpreter's, the launch log holds one record per grid the
/// interpreter ran below the root, and no launch is left pending. Each
/// leg must also have done what it is there for, on some case: coalesced
/// a group, fallen back without coalescing, and host-serialized a grid
/// that launched further.
#[test]
fn launch_bearing_kernels_match_the_interpreter_on_every_launch_path() {
    let mut rng = StdRng::seed_from_u64(0x1A0C);
    // Per leg: aggregated groups coalesced, aggregated fallbacks,
    // launches degraded to rung 3, host-serialized records.
    let mut seen = [[0u64; 4]; LEGS.len()];
    for case in 0..48 {
        let mut levels = [
            gen_nodes(&mut rng),
            gen_nodes(&mut rng),
            gen_nodes(&mut rng),
        ];
        for nodes in &mut levels[..2] {
            insert_launch(&mut rng, nodes);
        }
        let (want, grids) = run_interp(&build_program(&levels, LaunchKind::Device));
        assert!(grids[2] > 0, "case {case}: no grid at depth 2");
        for (leg, seen) in LEGS.iter().zip(&mut seen) {
            let mut cfg = GpuConfig::test_small();
            cfg.dtbl_disable_coalescing = !leg.coalescing;
            cfg.fault = FaultPlan {
                kmu_device_capacity: leg.kmu_device_capacity,
                ..FaultPlan::default()
            };
            let (got, stats, heap) = run_sim(build_program(&levels, leg.kind), cfg);
            let name = leg.name;
            assert_eq!(
                got.0, want.0,
                "case {case} [{name}]: outputs diverged for {levels:?}"
            );
            assert_eq!(
                got.1, want.1,
                "case {case} [{name}]: counters diverged for {levels:?}"
            );
            assert_eq!(
                stats.launches.len(),
                grids[1] + grids[2],
                "case {case} [{name}]: one launch record per child grid"
            );
            assert_eq!(stats.pending_bytes, 0, "case {case} [{name}]");
            // Every parameter buffer (and spilled group descriptor) is
            // released with the grid or aggregated group that read it.
            assert_eq!(heap, 0, "case {case} [{name}]: live heap bytes");
            let serialized = (stats.launches.iter())
                .filter(|l| l.kind == DynLaunchKind::HostSerialized)
                .count() as u64;
            let counts = [
                stats.agg_coalesced,
                stats.agg_fallbacks,
                stats.degraded_to_host_serial,
                serialized,
            ];
            for (s, c) in seen.iter_mut().zip(counts) {
                *s += c;
            }
        }
    }
    let [device, agg, no_coalescing, rung3] = seen;
    assert_eq!(device[..2], [0, 0], "device launches stay device launches");
    assert!(agg[0] > 0, "coalescing on must coalesce a group: {agg:?}");
    assert_eq!(no_coalescing[0], 0, "coalescing off coalesces nothing");
    assert!(no_coalescing[1] > 0, "{no_coalescing:?}");
    assert!(
        rung3[2] > 0,
        "the one-kernel pool must reach rung 3: {rung3:?}"
    );
    assert!(
        rung3[3] > rung3[2],
        "some host-serialized grid must launch grids of its own: {rung3:?}"
    );
}

/// A hand-picked nasty case kept as a fixed regression test: nested
/// divergence inside a loop with early exits and atomics.
#[test]
fn nested_divergence_regression() {
    let nodes = vec![Node::For(
        4,
        vec![Node::If(
            3,
            vec![
                Node::Alu(2, 77),
                Node::If(8, vec![Node::Atomic(1)], vec![Node::StoreOut]),
            ],
            vec![Node::LoadIn(5), Node::Atomic(3)],
        )],
    )];
    let (interp, sim) = check_flat(&nodes);
    assert_eq!(interp, sim);
}
