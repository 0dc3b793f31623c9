//! A warp-synchronous reference interpreter.
//!
//! Executes a kernel *functionally* — correct divergence and
//! reconvergence semantics, immediate memory effects, no timing. The
//! cycle-level simulator is differentially tested against it, and the
//! simulator's degradation ladder host-serialises launches through it.
//!
//! What it is independent of, and so can catch bugs in: the simulator's
//! SIMT front end (a frontier of `(pc, mask)` paths merged by PC equality
//! here, a reconvergence stack there), its warp and block scheduling
//! (each warp runs to its next barrier, blocks one after another, against
//! cycle-interleaved issue), its application of loads, stores and
//! atomics to memory (written separately; both apply in lane order), and
//! its launch path (the KMU, Kernel Distributor and AGT there, a FIFO of
//! whole grids here).
//!
//! What it shares with the simulator, and so cannot check: the micro-op
//! program the builder emitted, the lane-major [`WarpRegs`] with its
//! uniformity tracking and operand sweeps, [`exec_alu`] and
//! [`apply_atomic`]. The ALU half of those is checked against
//! [`ThreadCtx::step`](crate::ThreadCtx::step) in `decode.rs`.
//!
//! Device-side launches run too, with no timing and no scheduler:
//! `GetParamBuf` allocates through [`WordMem::alloc`], and each active
//! lane of a `Launch` queues one child grid of `ntb` blocks (`nctaid =
//! ntb`, `blkid` `0..ntb`) reading its own parameter buffer. Device
//! kernels and aggregated groups mean the same thing functionally, so the
//! launch kind is ignored. Queued grids run first in, first out, each to
//! completion before the next starts, which gives every legal schedule's
//! result for a race-free program.
//!
//! # Example
//!
//! ```
//! use gpu_isa::{interp, Dim3, KernelBuilder, Op, Program, Space};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let mut b = KernelBuilder::new("double", Dim3::x(32), 1);
//! let gtid = b.global_tid();
//! let base = b.ld_param(0);
//! let addr = b.mad(gtid, Op::Imm(4), Op::Reg(base));
//! let v = b.ld(Space::Global, addr, 0);
//! let v2 = b.imul(v, Op::Imm(2));
//! b.st(Space::Global, addr, 0, Op::Reg(v2));
//! let mut prog = Program::new();
//! let k = prog.add(b.build()?);
//!
//! let mut mem = interp::FlatMemory::new();
//! mem.write_u32(0x100, 0x1000); // param word 0: data base
//! for i in 0..32 {
//!     mem.write_u32(0x1000 + i * 4, i);
//! }
//! interp::run_kernel(&prog, k, 1, 0x100, &mut mem)?;
//! assert_eq!(mem.read_u32(0x1000 + 4 * 7), 14);
//! # Ok(())
//! # }
//! ```

use crate::decode::{exec_alu, UOp, WarpEnv, WarpRegs};
use crate::dim::Dim3;
use crate::exec::apply_atomic;
use crate::inst::Space;
use crate::kernel::{Kernel, KernelId, Program};
use crate::WARP_SIZE;
use std::collections::{HashMap, VecDeque};
use std::error::Error;
use std::fmt;

/// Word-addressable global memory as the interpreter sees it. Implemented
/// by [`FlatMemory`] for standalone use and by adapters over richer
/// memory models (the cycle simulator backs it with its device memory and
/// heap to host-serialize launches its hardware paths could not absorb).
pub trait WordMem {
    /// Reads a 32-bit word at a byte address (unaligned addresses are
    /// truncated to the containing word).
    fn read_u32(&self, addr: u32) -> u32;

    /// Writes a 32-bit word.
    fn write_u32(&mut self, addr: u32, v: u32);

    /// `cudaGetParameterBuffer`: reserves `bytes` of global memory and
    /// returns its address, or `None` when memory is exhausted.
    fn alloc(&mut self, bytes: u32) -> Option<u32>;

    /// Called once a grid has run all its blocks, the first grid
    /// included: `ntb` blocks of `kernel` that read the parameter buffer
    /// at `param_addr`, which that grid no longer needs.
    fn grid_finished(&mut self, _kernel: KernelId, _ntb: u32, _param_addr: u32) {}
}

/// A simple sparse word-addressable memory for the interpreter. Parameter
/// buffers are bump-allocated upward from [`FlatMemory::HEAP_BASE`].
#[derive(Clone, Debug, Default)]
pub struct FlatMemory {
    words: HashMap<u32, u32>,
    heap_used: u32,
}

impl FlatMemory {
    /// Address of the first parameter buffer [`WordMem::alloc`] returns.
    pub const HEAP_BASE: u32 = 0x8000_0000;

    /// Creates an empty (zero-filled) memory.
    pub fn new() -> Self {
        FlatMemory::default()
    }

    /// Reads a 32-bit word at a byte address (must be 4-aligned for
    /// simplicity; unaligned addresses are truncated).
    pub fn read_u32(&self, addr: u32) -> u32 {
        *self.words.get(&(addr & !3)).unwrap_or(&0)
    }

    /// Writes a 32-bit word.
    pub fn write_u32(&mut self, addr: u32, v: u32) {
        self.words.insert(addr & !3, v);
    }
}

impl WordMem for FlatMemory {
    fn read_u32(&self, addr: u32) -> u32 {
        FlatMemory::read_u32(self, addr)
    }

    fn write_u32(&mut self, addr: u32, v: u32) {
        FlatMemory::write_u32(self, addr, v)
    }

    /// Fails once the heap would run past the top of the address space.
    fn alloc(&mut self, bytes: u32) -> Option<u32> {
        let addr = Self::HEAP_BASE.checked_add(self.heap_used)?;
        addr.checked_add(bytes)?;
        self.heap_used += bytes;
        Some(addr)
    }
}

/// Interpreter failure modes.
#[allow(missing_docs)] // fields restate the Display message
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum InterpError {
    /// A launch (or the first grid) named a kernel not in the program.
    UnknownKernel(KernelId),
    /// [`WordMem::alloc`] refused a parameter buffer.
    OutOfMemory { bytes: u32 },
    /// Instruction budget or pending-grid bound exceeded (a runaway loop
    /// or runaway launches).
    StepLimit,
    /// Barrier reached with threads of the block at different barriers —
    /// undefined behaviour in CUDA; reported as an error here.
    BarrierDivergence,
    /// Shared-memory access outside the static allocation.
    SharedOutOfBounds { addr: u32, size: u32 },
}

impl fmt::Display for InterpError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            InterpError::UnknownKernel(k) => write!(f, "kernel {k} is not in the program"),
            InterpError::OutOfMemory { bytes } => {
                write!(f, "no memory for a {bytes}-byte parameter buffer")
            }
            InterpError::StepLimit => f.write_str("interpreter step limit exceeded"),
            InterpError::BarrierDivergence => {
                f.write_str("threads reached different barriers (undefined behaviour)")
            }
            InterpError::SharedOutOfBounds { addr, size } => {
                write!(f, "shared access at {addr} outside {size}-byte allocation")
            }
        }
    }
}

impl Error for InterpError {}

/// Warp instructions one [`run_kernel`] call may execute, over all grids.
const STEP_LIMIT: u64 = 50_000_000;

/// Grids that may wait in the work list at once. A kernel whose lanes
/// each launch it again grows the list faster than it runs grids, so the
/// step budget alone would not bound its memory.
const MAX_PENDING_GRIDS: usize = 1 << 16;

/// A grid waiting in the work list: `ntb` blocks of `kernel` reading the
/// parameter buffer at `param_addr`.
struct Grid<'p> {
    id: KernelId,
    kernel: &'p Kernel,
    ntb: u32,
    param_addr: u32,
}

/// One [`run_kernel`] call: the step budget, the FIFO of grids still to
/// run, and the running block's shared memory.
struct Interp<'p> {
    program: &'p Program,
    steps: u64,
    pending: VecDeque<Grid<'p>>,
    shared: Vec<u8>,
}

impl<'p> Interp<'p> {
    /// Appends a grid to the work list.
    fn queue(&mut self, id: KernelId, ntb: u32, param_addr: u32) -> Result<(), InterpError> {
        let kernel = self.program.get(id).ok_or(InterpError::UnknownKernel(id))?;
        if self.pending.len() >= MAX_PENDING_GRIDS {
            return Err(InterpError::StepLimit);
        }
        self.pending.push_back(Grid {
            id,
            kernel,
            ntb,
            param_addr,
        });
        Ok(())
    }

    fn shared_read(&self, addr: u32) -> Result<u32, InterpError> {
        let a = addr as usize;
        if a + 4 > self.shared.len() {
            return Err(InterpError::SharedOutOfBounds {
                addr,
                size: self.shared.len() as u32,
            });
        }
        Ok(u32::from_le_bytes(
            self.shared[a..a + 4].try_into().expect("4 bytes"),
        ))
    }

    fn shared_write(&mut self, addr: u32, v: u32) -> Result<(), InterpError> {
        let a = addr as usize;
        if a + 4 > self.shared.len() {
            return Err(InterpError::SharedOutOfBounds {
                addr,
                size: self.shared.len() as u32,
            });
        }
        self.shared[a..a + 4].copy_from_slice(&v.to_le_bytes());
        Ok(())
    }
}

/// Runs grid `kernel` of `program` to completion against `mem`, then every
/// grid it launches, at any depth.
///
/// `param_base` is the global address of the parameter buffer (the
/// interpreter reads `LdParam` words from `mem` like the simulator does).
///
/// # Errors
///
/// Returns an [`InterpError`] for an unknown kernel, a refused parameter
/// buffer, runaway loops or launches, barrier divergence, or
/// shared-memory overruns.
pub fn run_kernel<M: WordMem>(
    program: &Program,
    kernel: KernelId,
    grid_ntb: u32,
    param_base: u32,
    mem: &mut M,
) -> Result<(), InterpError> {
    let mut it = Interp {
        program,
        steps: 0,
        pending: VecDeque::new(),
        shared: Vec::new(),
    };
    it.queue(kernel, grid_ntb, param_base)?;
    while let Some(grid) = it.pending.pop_front() {
        for blk in 0..grid.ntb {
            run_block(&grid, blk, &mut it, mem)?;
        }
        mem.grid_finished(grid.id, grid.ntb, grid.param_addr);
    }
    Ok(())
}

fn run_block<M: WordMem>(
    grid: &Grid<'_>,
    blkid: u32,
    it: &mut Interp<'_>,
    mem: &mut M,
) -> Result<(), InterpError> {
    let kernel = grid.kernel;
    let threads = kernel.threads_per_block();
    let n_warps = threads.div_ceil(WARP_SIZE as u32);
    it.shared.clear();
    it.shared.resize(kernel.shared_mem_bytes() as usize, 0);
    let mut warps: Vec<WarpInterp> = (0..n_warps)
        .map(|w| {
            let lanes_left = threads - w * WARP_SIZE as u32;
            let valid = if lanes_left >= 32 {
                u32::MAX
            } else {
                (1u32 << lanes_left) - 1
            };
            WarpInterp::new(kernel, w, valid, blkid, grid.ntb, grid.param_addr)
        })
        .collect();

    // Run warps round-robin until each either finishes or parks at a
    // barrier; when all parked warps agree, release them together.
    loop {
        let mut all_done = true;
        let mut any_progress = false;
        for w in warps.iter_mut() {
            if w.done() {
                continue;
            }
            all_done = false;
            if !w.at_barrier {
                w.run_until_barrier_or_exit(kernel, it, mem)?;
                any_progress = true;
            }
        }
        if all_done {
            return Ok(());
        }
        let live: Vec<&mut WarpInterp> = warps.iter_mut().filter(|w| !w.done()).collect();
        if live.iter().all(|w| w.at_barrier) {
            for w in live {
                w.at_barrier = false;
            }
            continue;
        }
        if !any_progress {
            return Err(InterpError::BarrierDivergence);
        }
    }
}

/// Per-warp interpreter using recursive mask splitting for divergence.
///
/// Executes the same micro-op program and lane-major register file as
/// the cycle simulator ([`WarpRegs`]/[`exec_alu`]); only the SIMT front
/// end (mask splitting here, a reconvergence stack there) differs.
struct WarpInterp {
    regs: WarpRegs,
    env: WarpEnv,
    /// Per-path execution frontier: (pc, mask), handled as a stack where
    /// paths are split on divergent branches and merged by PC equality.
    frontier: Vec<(u32, u32)>,
    at_barrier: bool,
}

impl WarpInterp {
    fn new(
        kernel: &Kernel,
        warp_in_tb: u32,
        valid: u32,
        blkid: u32,
        grid_ntb: u32,
        param_base: u32,
    ) -> Self {
        let mut regs = WarpRegs::new();
        regs.reset(kernel.regs_per_thread(), valid);
        let mut env = WarpEnv::new();
        env.build(
            kernel.block_dim(),
            Dim3::x(grid_ntb),
            blkid,
            warp_in_tb,
            valid,
            0,
            param_base,
        );
        WarpInterp {
            regs,
            env,
            frontier: vec![(0, valid)],
            at_barrier: false,
        }
    }

    fn done(&self) -> bool {
        self.frontier.is_empty()
    }

    /// Merges frontier entries that share a PC (reconvergence by PC
    /// equality — sufficient for the structured control flow the builder
    /// emits, and deliberately different from the simulator's stack).
    fn merge(&mut self) {
        self.frontier
            .sort_unstable_by_key(|&(pc, _)| std::cmp::Reverse(pc));
        let mut merged: Vec<(u32, u32)> = Vec::with_capacity(self.frontier.len());
        for &(pc, mask) in &self.frontier {
            if let Some(last) = merged.last_mut() {
                if last.0 == pc {
                    last.1 |= mask;
                    continue;
                }
            }
            merged.push((pc, mask));
        }
        self.frontier = merged;
    }

    /// Advances the *lowest-PC* path (a dominator-friendly order for the
    /// builder's forward-reconverging control flow) one instruction;
    /// returns false when the warp parked at a barrier or finished.
    fn run_until_barrier_or_exit<M: WordMem>(
        &mut self,
        kernel: &Kernel,
        it: &mut Interp<'_>,
        mem: &mut M,
    ) -> Result<(), InterpError> {
        loop {
            self.merge();
            let Some(&(pc, mask)) = self.frontier.last() else {
                return Ok(()); // all lanes exited
            };
            it.steps += 1;
            if it.steps > STEP_LIMIT {
                return Err(InterpError::StepLimit);
            }
            let m = *kernel.uop(pc);
            self.frontier.pop();
            match m.op {
                UOp::Exit => {
                    // Lanes retire; path disappears.
                }
                UOp::Bar => {
                    // Park the whole warp; structured kernels only use
                    // block-uniform barriers, so all paths must be here.
                    self.frontier.push((pc + 1, mask));
                    self.merge();
                    if self.frontier.len() != 1 {
                        return Err(InterpError::BarrierDivergence);
                    }
                    self.at_barrier = true;
                    return Ok(());
                }
                UOp::Bra { pred, target, .. } => {
                    let taken = match pred {
                        None => mask,
                        Some((p, negate)) => {
                            let pm = self.regs.pred_mask(p);
                            (if negate { !pm } else { pm }) & mask
                        }
                    };
                    let fall = mask & !taken;
                    if taken != 0 {
                        self.frontier.push((target, taken));
                    }
                    if fall != 0 {
                        self.frontier.push((pc + 1, fall));
                    }
                }
                ref op => {
                    self.exec_op(op, mask, it, mem)?;
                    self.frontier.push((pc + 1, mask));
                }
            }
        }
    }

    /// Executes one straight-line micro-op across the active lanes —
    /// memory shapes and launches by operand sweep + lane-order apply,
    /// everything else via the shared warp-level ALU kernels.
    fn exec_op<M: WordMem>(
        &mut self,
        op: &UOp,
        mask: u32,
        it: &mut Interp<'_>,
        mem: &mut M,
    ) -> Result<(), InterpError> {
        match *op {
            UOp::Ld {
                dst,
                space,
                addr,
                offset,
            } => {
                let mut addrs = [0u32; WARP_SIZE];
                self.regs.addr_sweep(addr, offset, mask, &mut addrs);
                let mut vals = [0u32; WARP_SIZE];
                let mut rest = mask;
                while rest != 0 {
                    let lane = rest.trailing_zeros() as usize;
                    rest &= rest - 1;
                    vals[lane] = match space {
                        Space::Global => mem.read_u32(addrs[lane]),
                        Space::Shared => it.shared_read(addrs[lane])?,
                    };
                }
                self.regs.store_masked(dst, &vals, mask);
            }
            UOp::LdParam { dst, word } => {
                let addr = self.env.param_base().wrapping_add(u32::from(word) * 4);
                let v = mem.read_u32(addr);
                self.regs.broadcast(dst, v, mask);
            }
            UOp::St {
                space,
                addr,
                offset,
                src,
            } => {
                let mut addrs = [0u32; WARP_SIZE];
                self.regs.addr_sweep(addr, offset, mask, &mut addrs);
                let mut vals = [0u32; WARP_SIZE];
                self.regs.src_sweep(src, mask, &mut vals);
                let mut rest = mask;
                while rest != 0 {
                    let lane = rest.trailing_zeros() as usize;
                    rest &= rest - 1;
                    match space {
                        Space::Global => mem.write_u32(addrs[lane], vals[lane]),
                        Space::Shared => it.shared_write(addrs[lane], vals[lane])?,
                    }
                }
            }
            UOp::Atom {
                dst,
                op,
                space,
                addr,
                offset,
                src,
                extra,
            } => {
                let mut addrs = [0u32; WARP_SIZE];
                self.regs.addr_sweep(addr, offset, mask, &mut addrs);
                let mut opers = [0u32; WARP_SIZE];
                self.regs.src_sweep(src, mask, &mut opers);
                let mut rest = mask;
                while rest != 0 {
                    let lane = rest.trailing_zeros() as usize;
                    rest &= rest - 1;
                    let comparand = extra.map(|r| self.regs.lane(r, lane));
                    let old = match space {
                        Space::Global => mem.read_u32(addrs[lane]),
                        Space::Shared => it.shared_read(addrs[lane])?,
                    };
                    let new = apply_atomic(op, old, opers[lane], comparand);
                    match space {
                        Space::Global => mem.write_u32(addrs[lane], new),
                        Space::Shared => it.shared_write(addrs[lane], new)?,
                    }
                    if let Some(d) = dst {
                        self.regs.write_lane(d, lane, old);
                    }
                }
            }
            UOp::MemFence | UOp::Nop => {}
            UOp::GetParamBuf { dst, words } => {
                let bytes = u32::from(words.max(1)) * 4;
                let mut rest = mask;
                while rest != 0 {
                    let lane = rest.trailing_zeros() as usize;
                    rest &= rest - 1;
                    let addr = mem.alloc(bytes).ok_or(InterpError::OutOfMemory { bytes })?;
                    self.regs.write_lane(dst, lane, addr);
                }
            }
            UOp::Launch {
                kernel, ntb, param, ..
            } => {
                let mut ntbs = [0u32; WARP_SIZE];
                self.regs.src_sweep(ntb, mask, &mut ntbs);
                let mut rest = mask;
                while rest != 0 {
                    let lane = rest.trailing_zeros() as usize;
                    rest &= rest - 1;
                    // A zero-block launch is a no-op, as on the simulator.
                    if ntbs[lane] != 0 {
                        it.queue(kernel, ntbs[lane], self.regs.lane(param, lane))?;
                    }
                }
            }
            ref alu => exec_alu(alu, &mut self.regs, &self.env, mask),
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::KernelBuilder;
    use crate::exec::LaunchKind;
    use crate::inst::{AtomOp, CmpOp, CmpTy, Op};
    use crate::reg::{Reg, SReg};

    /// Runs `k` as the only kernel of a program.
    fn run_one(k: Kernel, ntb: u32, param: u32, mem: &mut FlatMemory) -> Result<(), InterpError> {
        let mut prog = Program::new();
        let id = prog.add(k);
        run_kernel(&prog, id, ntb, param, mem)
    }

    #[test]
    fn straight_line_store() {
        let mut b = KernelBuilder::new("t", Dim3::x(32), 1);
        let gtid = b.global_tid();
        let base = b.ld_param(0);
        let a = b.mad(gtid, Op::Imm(4), Op::Reg(base));
        b.st(Space::Global, a, 0, Op::Reg(gtid));
        let k = b.build().unwrap();
        let mut mem = FlatMemory::new();
        mem.write_u32(0x10, 0x1000);
        run_one(k, 2, 0x10, &mut mem).unwrap();
        for i in 0..64u32 {
            assert_eq!(mem.read_u32(0x1000 + i * 4), i);
        }
    }

    #[test]
    fn divergence_and_loops() {
        // out[i] = sum(0..i) if i odd else 1000 + i.
        let mut b = KernelBuilder::new("t", Dim3::x(32), 1);
        let gtid = b.global_tid();
        let base = b.ld_param(0);
        let bit = b.and_(gtid, Op::Imm(1));
        let odd = b.setp(CmpOp::Eq, CmpTy::U32, bit, Op::Imm(1));
        let out = b.alloc();
        b.if_else_(
            odd,
            |b| {
                let acc = b.imm(0);
                b.for_range(Op::Imm(0), Op::Reg(gtid), |b, i| {
                    let t = b.iadd(acc, Op::Reg(i));
                    b.mov_to(acc, Op::Reg(t));
                });
                b.mov_to(out, Op::Reg(acc));
            },
            |b| {
                let v = b.iadd(gtid, Op::Imm(1000));
                b.mov_to(out, Op::Reg(v));
            },
        );
        let a = b.mad(gtid, Op::Imm(4), Op::Reg(base));
        b.st(Space::Global, a, 0, Op::Reg(out));
        let k = b.build().unwrap();
        let mut mem = FlatMemory::new();
        mem.write_u32(0x10, 0x1000);
        run_one(k, 1, 0x10, &mut mem).unwrap();
        for i in 0..32u32 {
            let want = if i % 2 == 1 {
                i * (i - 1) / 2
            } else {
                1000 + i
            };
            assert_eq!(mem.read_u32(0x1000 + i * 4), want, "lane {i}");
        }
    }

    #[test]
    fn barrier_and_shared_reduction() {
        let mut b = KernelBuilder::new("t", Dim3::x(64), 2);
        let smem = b.alloc_shared_words(64);
        let tid = b.s2r(SReg::TidX);
        let inb = b.ld_param(0);
        let outb = b.ld_param(1);
        let ga = b.mad(tid, Op::Imm(4), Op::Reg(inb));
        let v = b.ld(Space::Global, ga, 0);
        let sa = b.mad(tid, Op::Imm(4), Op::Imm(smem));
        b.st(Space::Shared, sa, 0, Op::Reg(v));
        b.bar();
        let mut stride = 32u32;
        while stride >= 1 {
            let p = b.setp(CmpOp::Lt, CmpTy::U32, tid, Op::Imm(stride));
            b.if_(p, |b| {
                let a = b.ld(Space::Shared, sa, 0);
                let other = b.iadd(sa, Op::Imm(stride * 4));
                let c = b.ld(Space::Shared, other, 0);
                let s = b.iadd(a, Op::Reg(c));
                b.st(Space::Shared, sa, 0, Op::Reg(s));
            });
            b.bar();
            stride /= 2;
        }
        let p0 = b.setp(CmpOp::Eq, CmpTy::U32, tid, Op::Imm(0));
        b.if_(p0, |b| {
            let total = b.ld(Space::Shared, sa, 0);
            b.st(Space::Global, outb, 0, Op::Reg(total));
        });
        let k = b.build().unwrap();
        let mut mem = FlatMemory::new();
        mem.write_u32(0x10, 0x1000);
        mem.write_u32(0x14, 0x4000);
        for i in 0..64u32 {
            mem.write_u32(0x1000 + i * 4, i + 1);
        }
        run_one(k, 1, 0x10, &mut mem).unwrap();
        assert_eq!(mem.read_u32(0x4000), 64 * 65 / 2);
    }

    #[test]
    fn atomics_across_blocks() {
        let mut b = KernelBuilder::new("t", Dim3::x(32), 1);
        let ctr = b.ld_param(0);
        b.atom_noret(AtomOp::Add, Space::Global, ctr, 0, Op::Imm(1));
        let k = b.build().unwrap();
        let mut mem = FlatMemory::new();
        mem.write_u32(0x10, 0x2000);
        run_one(k, 4, 0x10, &mut mem).unwrap();
        assert_eq!(mem.read_u32(0x2000), 128);
    }

    /// A three-level program: `top` (one block) launches a 2-block `mid`
    /// from thread 0, each of whose 64 threads launches a 3-block `leaf`
    /// with its own output slab and tag. `leaf` writes `(tag << 16) |
    /// (nctaid << 12) | gtid`, so every word checks the launch's grid
    /// size, block ids and parameter buffer. Returns the program and
    /// `top`'s id.
    fn nested_program(kind: LaunchKind) -> (Program, KernelId) {
        let launch = |b: &mut KernelBuilder, k: KernelId, ntb: u32, buf: Reg| match kind {
            LaunchKind::Device => b.launch_device(k, Op::Imm(ntb), buf),
            LaunchKind::Agg => b.launch_agg(k, Op::Imm(ntb), buf),
        };
        let mut prog = Program::new();
        let (leaf, mid) = (KernelId(0), KernelId(1));

        let mut b = KernelBuilder::new("leaf", Dim3::x(32), 2);
        let gtid = b.global_tid();
        let out = b.ld_param(0);
        let tag = b.ld_param(1);
        let nctaid = b.s2r(SReg::NCtaIdX);
        let hi = b.shl(tag, Op::Imm(16));
        let mid_bits = b.shl(nctaid, Op::Imm(12));
        let v = b.or_(hi, Op::Reg(mid_bits));
        let v = b.or_(v, Op::Reg(gtid));
        let a = b.mad(gtid, Op::Imm(4), Op::Reg(out));
        b.st(Space::Global, a, 0, Op::Reg(v));
        assert_eq!(prog.add(b.build().unwrap()), leaf);

        let mut b = KernelBuilder::new("mid", Dim3::x(32), 1);
        let gtid = b.global_tid();
        let out = b.ld_param(0);
        let slab = b.mad(gtid, Op::Imm(3 * 32 * 4), Op::Reg(out));
        let buf = b.get_param_buf(2);
        b.st_param_word(buf, 0, Op::Reg(slab));
        b.st_param_word(buf, 1, Op::Reg(gtid));
        launch(&mut b, leaf, 3, buf);
        assert_eq!(prog.add(b.build().unwrap()), mid);

        let mut b = KernelBuilder::new("top", Dim3::x(32), 1);
        let tid = b.s2r(SReg::TidX);
        let out = b.ld_param(0);
        let first = b.setp(CmpOp::Eq, CmpTy::U32, tid, Op::Imm(0));
        b.if_(first, |b| {
            let buf = b.get_param_buf(1);
            b.st_param_word(buf, 0, Op::Reg(out));
            launch(b, mid, 2, buf);
        });
        let top = prog.add(b.build().unwrap());
        (prog, top)
    }

    fn check_nested(kind: LaunchKind) {
        let (prog, top) = nested_program(kind);
        let mut mem = FlatMemory::new();
        mem.write_u32(0x10, 0x1000);
        run_kernel(&prog, top, 1, 0x10, &mut mem).unwrap();
        for g in 0..64u32 {
            for j in 0..96u32 {
                let want = (g << 16) | (3 << 12) | j;
                let got = mem.read_u32(0x1000 + g * 384 + j * 4);
                assert_eq!(got, want, "{kind:?}: mid thread {g}, leaf thread {j}");
            }
        }
    }

    #[test]
    fn nested_device_launches_run_every_child_grid() {
        check_nested(LaunchKind::Device);
    }

    #[test]
    fn nested_aggregated_launches_run_every_child_grid() {
        check_nested(LaunchKind::Agg);
    }

    #[test]
    fn a_kernel_that_launches_itself_hits_the_step_limit() {
        let mut b = KernelBuilder::new("again", Dim3::x(32), 0);
        let buf = b.get_param_buf(1);
        b.launch_device(KernelId(0), Op::Imm(1), buf);
        let mut mem = FlatMemory::new();
        assert_eq!(
            run_one(b.build().unwrap(), 1, 0, &mut mem),
            Err(InterpError::StepLimit)
        );
    }

    /// A memory whose heap is always exhausted.
    struct NoHeap(FlatMemory);

    impl WordMem for NoHeap {
        fn read_u32(&self, addr: u32) -> u32 {
            self.0.read_u32(addr)
        }

        fn write_u32(&mut self, addr: u32, v: u32) {
            self.0.write_u32(addr, v)
        }

        fn alloc(&mut self, _bytes: u32) -> Option<u32> {
            None
        }
    }

    #[test]
    fn a_refused_parameter_buffer_is_out_of_memory() {
        let mut b = KernelBuilder::new("t", Dim3::x(32), 0);
        let buf = b.get_param_buf(2);
        b.launch_agg(KernelId(0), Op::Imm(1), buf);
        let mut prog = Program::new();
        let k = prog.add(b.build().unwrap());
        let mut mem = NoHeap(FlatMemory::new());
        assert_eq!(
            run_kernel(&prog, k, 1, 0, &mut mem),
            Err(InterpError::OutOfMemory { bytes: 8 })
        );
        // A launch of a kernel the program lacks is typed too.
        let mut b = KernelBuilder::new("t", Dim3::x(32), 0);
        let buf = b.get_param_buf(1);
        b.launch_device(KernelId(9), Op::Imm(1), buf);
        let mut mem = FlatMemory::new();
        assert_eq!(
            run_one(b.build().unwrap(), 1, 0, &mut mem),
            Err(InterpError::UnknownKernel(KernelId(9)))
        );
    }

    #[test]
    fn runaway_loop_hits_step_limit() {
        let mut b = KernelBuilder::new("t", Dim3::x(32), 0);
        let one = b.imm(1);
        b.while_(|b| b.setp(CmpOp::Eq, CmpTy::U32, one, Op::Imm(1)), |_| {});
        let k = b.build().unwrap();
        let mut mem = FlatMemory::new();
        assert_eq!(run_one(k, 1, 0, &mut mem), Err(InterpError::StepLimit));
    }
}
