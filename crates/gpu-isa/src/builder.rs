//! Structured kernel builder.
//!
//! The builder is the only way to construct a [`Kernel`], and it guarantees
//! the invariants the SIMT reconvergence stack depends on: every divergent
//! branch carries the program-counter of its immediate post-dominator, all
//! targets are in range, and every path terminates in [`UOp::Exit`]. Each
//! method pushes the micro-op the machine runs, with the latency class
//! its operator implies; nothing lowers the kernel afterwards.
//! Control flow is expressed structurally (`if_`, `if_else_`, `while_`)
//! instead of with raw labels, so the post-dominators are correct by
//! construction — the same property NVCC's PTX-to-SASS mapping provides for
//! the hardware reconvergence stack.

use crate::decode::{BinOp, MicroOp, UOp, UnOp};
use crate::dim::Dim3;
use crate::exec::LaunchKind;
use crate::inst::{AtomOp, CmpOp, CmpTy, Op, Space};
use crate::kernel::{Kernel, KernelId};
use crate::reg::{Pred, Reg, SReg};
use std::error::Error;
use std::fmt;

/// Errors detected when finalizing a kernel with [`KernelBuilder::build`].
#[allow(missing_docs)] // fields restate the Display message
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum BuildError {
    /// The kernel allocated more general-purpose registers than
    /// [`Reg::MAX_PER_THREAD`].
    TooManyRegs { used: u32 },
    /// The kernel allocated more predicate registers than
    /// [`Pred::MAX_PER_THREAD`].
    TooManyPreds { used: u32 },
    /// The thread block exceeds 1024 threads (the GK110 per-block limit).
    BlockTooLarge { threads: u64 },
    /// A `LdParam` referenced a word outside the declared parameter buffer.
    ParamOutOfRange { word: u16, param_words: u16 },
    /// Internal: a branch target was left unpatched. Indicates a bug in the
    /// builder itself rather than in user code.
    UnpatchedBranch { pc: u32 },
}

impl fmt::Display for BuildError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BuildError::TooManyRegs { used } => {
                write!(
                    f,
                    "kernel uses {used} registers, more than the per-thread limit"
                )
            }
            BuildError::TooManyPreds { used } => {
                write!(
                    f,
                    "kernel uses {used} predicate registers, more than the limit"
                )
            }
            BuildError::BlockTooLarge { threads } => {
                write!(
                    f,
                    "thread block has {threads} threads, more than the 1024 limit"
                )
            }
            BuildError::ParamOutOfRange { word, param_words } => write!(
                f,
                "parameter word {word} read but the buffer has only {param_words} words"
            ),
            BuildError::UnpatchedBranch { pc } => {
                write!(f, "branch at pc {pc} was never patched")
            }
        }
    }
}

impl Error for BuildError {}

/// Incrementally builds a [`Kernel`].
///
/// Every arithmetic helper allocates a fresh destination register and
/// returns it, so kernels read like SSA. Use [`mov_to`](Self::mov_to) when
/// a loop needs to mutate a register in place.
///
/// # Example
///
/// ```
/// use gpu_isa::{CmpOp, CmpTy, Dim3, KernelBuilder, Op, Space};
///
/// # fn main() -> Result<(), gpu_isa::BuildError> {
/// // Sum of out[i] over i in [0, n) accumulated by thread 0 only.
/// let mut b = KernelBuilder::new("sum", Dim3::x(32), 2);
/// let tid = b.s2r(gpu_isa::SReg::TidX);
/// let is_zero = b.setp(CmpOp::Eq, CmpTy::U32, tid, Op::Imm(0));
/// b.if_(is_zero, |b| {
///     let n = b.ld_param(0);
///     let base = b.ld_param(1);
///     let sum = b.imm(0);
///     let i = b.imm(0);
///     b.while_(
///         |b| b.setp(CmpOp::Lt, CmpTy::U32, i, Op::Reg(n)),
///         |b| {
///             let addr = b.mad(i, Op::Imm(4), Op::Reg(base));
///             let v = b.ld(Space::Global, addr, 0);
///             let s = b.iadd(sum, Op::Reg(v));
///             b.mov_to(sum, Op::Reg(s));
///             let next = b.iadd(i, Op::Imm(1));
///             b.mov_to(i, Op::Reg(next));
///         },
///     );
///     b.st(Space::Global, base, -4, Op::Reg(sum));
/// });
/// let kernel = b.build()?;
/// assert!(kernel.uops().len() > 8);
/// # Ok(())
/// # }
/// ```
#[derive(Debug)]
pub struct KernelBuilder {
    name: String,
    block_dim: Dim3,
    param_words: u16,
    uops: Vec<MicroOp>,
    next_reg: u32,
    next_pred: u32,
    shared_bytes: u32,
    max_param_read: Option<u16>,
}

impl KernelBuilder {
    /// Starts a kernel named `name` with the given (immutable) thread-block
    /// shape and parameter-buffer size in 32-bit words.
    pub fn new(name: impl Into<String>, block_dim: Dim3, param_words: u16) -> Self {
        KernelBuilder {
            name: name.into(),
            block_dim,
            param_words,
            uops: Vec::new(),
            next_reg: 0,
            next_pred: 0,
            shared_bytes: 0,
            max_param_read: None,
        }
    }

    /// Reserves `words` 32-bit words of static shared memory and returns the
    /// byte offset of the reservation.
    pub fn alloc_shared_words(&mut self, words: u32) -> u32 {
        let off = self.shared_bytes;
        self.shared_bytes += words * 4;
        off
    }

    /// Allocates a fresh general-purpose register without emitting code.
    pub fn alloc(&mut self) -> Reg {
        let r = Reg(self.next_reg.min(u32::from(u16::MAX)) as u16);
        self.next_reg += 1;
        r
    }

    /// Allocates a fresh predicate register without emitting code.
    pub fn alloc_pred(&mut self) -> Pred {
        let p = Pred(self.next_pred.min(u32::from(u8::MAX)) as u8);
        self.next_pred += 1;
        p
    }

    fn emit(&mut self, op: UOp) {
        self.uops.push(MicroOp::new(op));
    }

    fn here(&self) -> u32 {
        self.uops.len() as u32
    }

    fn bin(&mut self, op: BinOp, a: Reg, b: Op) -> Reg {
        let dst = self.alloc();
        self.emit(UOp::Bin { op, dst, a, b });
        dst
    }

    fn un(&mut self, op: UnOp, a: Reg) -> Reg {
        let dst = self.alloc();
        self.emit(UOp::Un { op, dst, a });
        dst
    }

    // ---- moves ---------------------------------------------------------

    /// Materializes an immediate in a fresh register.
    pub fn imm(&mut self, v: u32) -> Reg {
        let dst = self.alloc();
        self.emit(UOp::Mov {
            dst,
            src: Op::Imm(v),
        });
        dst
    }

    /// Materializes an `f32` immediate in a fresh register.
    pub fn fimm(&mut self, v: f32) -> Reg {
        let dst = self.alloc();
        self.emit(UOp::Mov {
            dst,
            src: Op::f32(v),
        });
        dst
    }

    /// Copies `src` into a fresh register.
    pub fn mov(&mut self, src: Op) -> Reg {
        let dst = self.alloc();
        self.emit(UOp::Mov { dst, src });
        dst
    }

    /// Overwrites an existing register — the only non-SSA operation,
    /// needed for loop induction variables and accumulators.
    pub fn mov_to(&mut self, dst: Reg, src: Op) {
        self.emit(UOp::Mov { dst, src });
    }

    /// Reads a special register.
    pub fn s2r(&mut self, sreg: SReg) -> Reg {
        let dst = self.alloc();
        self.emit(UOp::S2R { dst, sreg });
        dst
    }

    /// Computes the global 1D thread id `ctaid.x * ntid.x + tid.x`.
    pub fn global_tid(&mut self) -> Reg {
        let ctaid = self.s2r(SReg::CtaIdX);
        let ntid = self.s2r(SReg::NTidX);
        let tid = self.s2r(SReg::TidX);
        let dst = self.alloc();
        self.emit(UOp::IMad {
            dst,
            a: ctaid,
            b: Op::Reg(ntid),
            c: Op::Reg(tid),
        });
        dst
    }

    // ---- integer ALU ------------------------------------------------------

    /// `a + b`.
    pub fn iadd(&mut self, a: Reg, b: Op) -> Reg {
        self.bin(BinOp::IAdd, a, b)
    }

    /// `a - b`.
    pub fn isub(&mut self, a: Reg, b: Op) -> Reg {
        self.bin(BinOp::ISub, a, b)
    }

    /// `a * b` (low 32 bits).
    pub fn imul(&mut self, a: Reg, b: Op) -> Reg {
        self.bin(BinOp::IMul, a, b)
    }

    /// `a * b + c`.
    pub fn mad(&mut self, a: Reg, b: Op, c: Op) -> Reg {
        let dst = self.alloc();
        self.emit(UOp::IMad { dst, a, b, c });
        dst
    }

    /// `a / b` (unsigned).
    pub fn idivu(&mut self, a: Reg, b: Op) -> Reg {
        self.bin(BinOp::IDivU, a, b)
    }

    /// `a % b` (unsigned).
    pub fn iremu(&mut self, a: Reg, b: Op) -> Reg {
        self.bin(BinOp::IRemU, a, b)
    }

    /// `min(a, b)` (signed).
    pub fn imins(&mut self, a: Reg, b: Op) -> Reg {
        self.bin(BinOp::IMinS, a, b)
    }

    /// `max(a, b)` (signed).
    pub fn imaxs(&mut self, a: Reg, b: Op) -> Reg {
        self.bin(BinOp::IMaxS, a, b)
    }

    /// `a & b`.
    pub fn and_(&mut self, a: Reg, b: Op) -> Reg {
        self.bin(BinOp::And, a, b)
    }

    /// `a | b`.
    pub fn or_(&mut self, a: Reg, b: Op) -> Reg {
        self.bin(BinOp::Or, a, b)
    }

    /// `a ^ b`.
    pub fn xor_(&mut self, a: Reg, b: Op) -> Reg {
        self.bin(BinOp::Xor, a, b)
    }

    /// `a << b`.
    pub fn shl(&mut self, a: Reg, b: Op) -> Reg {
        self.bin(BinOp::Shl, a, b)
    }

    /// `a >> b` (logical).
    pub fn shru(&mut self, a: Reg, b: Op) -> Reg {
        self.bin(BinOp::ShrU, a, b)
    }

    /// `a >> b` (arithmetic).
    pub fn shrs(&mut self, a: Reg, b: Op) -> Reg {
        self.bin(BinOp::ShrS, a, b)
    }

    // ---- f32 ALU ------------------------------------------------------------

    /// `a + b` (f32).
    pub fn fadd(&mut self, a: Reg, b: Op) -> Reg {
        self.bin(BinOp::FAdd, a, b)
    }

    /// `a - b` (f32).
    pub fn fsub(&mut self, a: Reg, b: Op) -> Reg {
        self.bin(BinOp::FSub, a, b)
    }

    /// `a * b` (f32).
    pub fn fmul(&mut self, a: Reg, b: Op) -> Reg {
        self.bin(BinOp::FMul, a, b)
    }

    /// `a / b` (f32).
    pub fn fdiv(&mut self, a: Reg, b: Op) -> Reg {
        self.bin(BinOp::FDiv, a, b)
    }

    /// `sqrt(a)` (f32).
    pub fn fsqrt(&mut self, a: Reg) -> Reg {
        self.un(UnOp::FSqrt, a)
    }

    /// `min(a, b)` (f32).
    pub fn fmin(&mut self, a: Reg, b: Op) -> Reg {
        self.bin(BinOp::FMin, a, b)
    }

    /// `max(a, b)` (f32).
    pub fn fmax(&mut self, a: Reg, b: Op) -> Reg {
        self.bin(BinOp::FMax, a, b)
    }

    /// Signed integer → f32.
    pub fn i2f(&mut self, a: Reg) -> Reg {
        self.un(UnOp::I2F, a)
    }

    /// f32 → signed integer (truncating).
    pub fn f2i(&mut self, a: Reg) -> Reg {
        self.un(UnOp::F2I, a)
    }

    // ---- predicates -------------------------------------------------------

    /// `a <cmp> b` into a fresh predicate.
    pub fn setp(&mut self, cmp: CmpOp, ty: CmpTy, a: Reg, b: Op) -> Pred {
        let dst = self.alloc_pred();
        self.emit(UOp::SetP { dst, cmp, ty, a, b });
        dst
    }

    /// `!a` into a fresh predicate.
    pub fn pnot(&mut self, a: Pred) -> Pred {
        let dst = self.alloc_pred();
        self.emit(UOp::PNot { dst, a });
        dst
    }

    /// `a && b` into a fresh predicate.
    pub fn pand(&mut self, a: Pred, b: Pred) -> Pred {
        let dst = self.alloc_pred();
        self.emit(UOp::PBool {
            dst,
            a,
            b,
            and: true,
        });
        dst
    }

    /// `a || b` into a fresh predicate.
    pub fn por(&mut self, a: Pred, b: Pred) -> Pred {
        let dst = self.alloc_pred();
        self.emit(UOp::PBool {
            dst,
            a,
            b,
            and: false,
        });
        dst
    }

    /// `p ? a : b`.
    pub fn sel(&mut self, p: Pred, a: Op, b: Op) -> Reg {
        let dst = self.alloc();
        self.emit(UOp::Sel { dst, p, a, b });
        dst
    }

    // ---- memory -------------------------------------------------------------

    /// 32-bit load from `space[addr + offset]`.
    pub fn ld(&mut self, space: Space, addr: Reg, offset: i32) -> Reg {
        let dst = self.alloc();
        self.emit(UOp::Ld {
            dst,
            space,
            addr,
            offset,
        });
        dst
    }

    /// 32-bit store to `space[addr + offset]`.
    pub fn st(&mut self, space: Space, addr: Reg, offset: i32, src: Op) {
        self.emit(UOp::St {
            space,
            addr,
            offset,
            src,
        });
    }

    /// Loads the `word`-th parameter word.
    pub fn ld_param(&mut self, word: u16) -> Reg {
        let dst = self.alloc();
        self.max_param_read = Some(self.max_param_read.map_or(word, |m| m.max(word)));
        self.emit(UOp::LdParam { dst, word });
        dst
    }

    /// Atomic RMW returning the old value.
    pub fn atom(&mut self, op: AtomOp, space: Space, addr: Reg, offset: i32, src: Op) -> Reg {
        let dst = self.alloc();
        self.emit(UOp::Atom {
            dst: Some(dst),
            op,
            space,
            addr,
            offset,
            src,
            extra: None,
        });
        dst
    }

    /// Atomic RMW discarding the old value (cheaper issue slot on hardware).
    pub fn atom_noret(&mut self, op: AtomOp, space: Space, addr: Reg, offset: i32, src: Op) {
        self.emit(UOp::Atom {
            dst: None,
            op,
            space,
            addr,
            offset,
            src,
            extra: None,
        });
    }

    /// Atomic compare-and-swap: writes `swap` if the current value equals
    /// `cmp`; returns the old value.
    pub fn atom_cas(&mut self, space: Space, addr: Reg, offset: i32, cmp: Reg, swap: Op) -> Reg {
        let dst = self.alloc();
        self.emit(UOp::Atom {
            dst: Some(dst),
            op: AtomOp::Cas,
            space,
            addr,
            offset,
            src: swap,
            extra: Some(cmp),
        });
        dst
    }

    /// Memory fence.
    pub fn memfence(&mut self) {
        self.emit(UOp::MemFence);
    }

    // ---- control flow -----------------------------------------------------------

    /// Thread-block barrier (`__syncthreads()`).
    ///
    /// Must not be placed inside divergent control flow (same rule as
    /// CUDA); the simulator checks this at runtime.
    pub fn bar(&mut self) {
        self.emit(UOp::Bar);
    }

    /// Terminates the thread. An implicit `exit` is appended at the end of
    /// the kernel, so this is only needed for early exits.
    pub fn exit(&mut self) {
        self.emit(UOp::Exit);
    }

    /// Structured `if p { then }` with reconvergence at the join point.
    pub fn if_(&mut self, p: Pred, then: impl FnOnce(&mut Self)) {
        let bra_pc = self.here();
        // Placeholder; patched to jump over the body when !p.
        self.emit(UOp::Bra {
            pred: Some((p, true)),
            target: 0,
            reconv: 0,
        });
        then(self);
        let end = self.here();
        self.patch_bra(bra_pc, end, end);
    }

    /// Structured `if p { then } else { els }`.
    pub fn if_else_(&mut self, p: Pred, then: impl FnOnce(&mut Self), els: impl FnOnce(&mut Self)) {
        let bra_to_else = self.here();
        self.emit(UOp::Bra {
            pred: Some((p, true)),
            target: 0,
            reconv: 0,
        });
        then(self);
        let jump_end = self.here();
        self.emit(UOp::Bra {
            pred: None,
            target: 0,
            reconv: 0,
        });
        let else_pc = self.here();
        els(self);
        let end = self.here();
        self.patch_bra(bra_to_else, else_pc, end);
        self.patch_bra(jump_end, end, end);
    }

    /// Structured `while cond { body }`. The condition closure is emitted at
    /// the loop head and must return the predicate that keeps iterating.
    pub fn while_(&mut self, cond: impl FnOnce(&mut Self) -> Pred, body: impl FnOnce(&mut Self)) {
        let top = self.here();
        let p = cond(self);
        let exit_bra = self.here();
        self.emit(UOp::Bra {
            pred: Some((p, true)),
            target: 0,
            reconv: 0,
        });
        body(self);
        self.emit(UOp::Bra {
            pred: None,
            target: top,
            reconv: top,
        });
        let end = self.here();
        self.patch_bra(exit_bra, end, end);
    }

    /// Structured counted loop `for i in [start, end)`; the body receives
    /// the induction register. `end` is evaluated once, before the loop.
    pub fn for_range(&mut self, start: Op, end: Op, body: impl FnOnce(&mut Self, Reg)) {
        let i = self.mov(start);
        let bound = self.mov(end);
        self.while_(
            |b| b.setp(CmpOp::Lt, CmpTy::U32, i, Op::Reg(bound)),
            |b| {
                body(b, i);
                let next = b.iadd(i, Op::Imm(1));
                b.mov_to(i, Op::Reg(next));
            },
        );
    }

    fn patch_bra(&mut self, pc: u32, target: u32, reconv: u32) {
        match &mut self.uops[pc as usize].op {
            UOp::Bra {
                target: t,
                reconv: r,
                ..
            } => {
                *t = target;
                *r = reconv;
            }
            other => unreachable!("patch target is not a branch: {other:?}"),
        }
    }

    // ---- device runtime ---------------------------------------------------------------

    /// `cudaGetParameterBuffer`: allocates a `words`-word parameter buffer
    /// and returns the register holding its global address.
    pub fn get_param_buf(&mut self, words: u16) -> Reg {
        let dst = self.alloc();
        self.emit(UOp::GetParamBuf { dst, words });
        dst
    }

    /// Stores a value into word `word` of a parameter buffer previously
    /// returned by [`get_param_buf`](Self::get_param_buf).
    pub fn st_param_word(&mut self, buf: Reg, word: u16, src: Op) {
        self.st(Space::Global, buf, (word as i32) * 4, src);
    }

    /// `cudaLaunchDevice` (CDP): nested device-kernel launch of `ntb`
    /// thread blocks.
    pub fn launch_device(&mut self, kernel: KernelId, ntb: Op, param: Reg) {
        self.emit(UOp::Launch {
            kind: LaunchKind::Device,
            kernel,
            ntb,
            param,
        });
    }

    /// `cudaLaunchAggGroup` (DTBL): launches an aggregated group of `ntb`
    /// thread blocks.
    pub fn launch_agg(&mut self, kernel: KernelId, ntb: Op, param: Reg) {
        self.emit(UOp::Launch {
            kind: LaunchKind::Agg,
            kernel,
            ntb,
            param,
        });
    }

    // ---- finalization ---------------------------------------------------------------------

    /// Validates and freezes the kernel.
    ///
    /// # Errors
    ///
    /// Returns a [`BuildError`] when the kernel exceeds per-thread register
    /// or block-size limits, reads outside its parameter buffer, or (builder
    /// bug) contains an unpatched branch.
    pub fn build(mut self) -> Result<Kernel, BuildError> {
        if self.next_reg > u32::from(Reg::MAX_PER_THREAD) {
            return Err(BuildError::TooManyRegs {
                used: self.next_reg,
            });
        }
        if self.next_pred > u32::from(Pred::MAX_PER_THREAD) {
            return Err(BuildError::TooManyPreds {
                used: self.next_pred,
            });
        }
        let threads = self.block_dim.count();
        if threads > 1024 {
            return Err(BuildError::BlockTooLarge { threads });
        }
        if let Some(w) = self.max_param_read {
            if w >= self.param_words {
                return Err(BuildError::ParamOutOfRange {
                    word: w,
                    param_words: self.param_words,
                });
            }
        }
        self.emit(UOp::Exit);
        let len = self.here();
        for (pc, m) in self.uops.iter().enumerate() {
            if let UOp::Bra { target, reconv, .. } = m.op {
                if target >= len || reconv >= len {
                    return Err(BuildError::UnpatchedBranch { pc: pc as u32 });
                }
            }
        }
        Ok(Kernel::from_parts(
            self.name,
            self.uops,
            self.block_dim,
            self.next_reg.max(1) as u16,
            self.next_pred as u8,
            self.shared_bytes,
            self.param_words,
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::decode::LatClass;

    #[test]
    fn if_patches_forward_branch() {
        let mut b = KernelBuilder::new("t", Dim3::x(32), 0);
        let x = b.imm(1);
        let p = b.setp(CmpOp::Eq, CmpTy::U32, x, Op::Imm(1));
        b.if_(p, |b| {
            let _ = b.imm(2);
        });
        let k = b.build().unwrap();
        // Find the branch and check it targets the instruction after the body.
        let bra = k
            .uops()
            .iter()
            .enumerate()
            .find_map(|(pc, m)| match m.op {
                UOp::Bra { target, reconv, .. } => Some((pc, target, reconv)),
                _ => None,
            })
            .unwrap();
        assert_eq!(bra.1, bra.2, "if reconverges at its own join point");
        assert!(bra.1 > bra.0 as u32);
        assert!((bra.1 as usize) < k.uops().len());
    }

    #[test]
    fn while_emits_backedge() {
        let mut b = KernelBuilder::new("t", Dim3::x(32), 0);
        let i = b.imm(0);
        b.while_(
            |b| b.setp(CmpOp::Lt, CmpTy::U32, i, Op::Imm(4)),
            |b| {
                let n = b.iadd(i, Op::Imm(1));
                b.mov_to(i, Op::Reg(n));
            },
        );
        let k = b.build().unwrap();
        let backedge = k.uops().iter().enumerate().any(
            |(pc, m)| matches!(m.op, UOp::Bra { pred: None, target, .. } if (target as usize) < pc),
        );
        assert!(
            backedge,
            "loop must contain a backwards unconditional branch"
        );
    }

    #[test]
    fn implicit_exit_appended() {
        let mut b = KernelBuilder::new("t", Dim3::x(32), 0);
        let _ = b.imm(0);
        let k = b.build().unwrap();
        assert!(matches!(k.uops().last().map(|m| m.op), Some(UOp::Exit)));
    }

    /// Each micro-op carries the latency class of its operator: multiplies
    /// and multiply-adds, integer divides and remainders, and float divides
    /// and square roots have their own classes; everything else is `Alu`.
    #[test]
    fn latency_class_follows_the_operator() {
        use LatClass::{Alu, FDiv, IDiv, IMul};
        let mut b = KernelBuilder::new("t", Dim3::x(32), 0);
        let x = b.imm(3);
        type Emit = fn(&mut KernelBuilder, Reg) -> Reg;
        let ops: [(Emit, LatClass); 15] = [
            (|b, x| b.iadd(x, Op::Imm(1)), Alu),
            (|b, x| b.isub(x, Op::Imm(1)), Alu),
            (|b, x| b.imins(x, Op::Imm(1)), Alu),
            (|b, x| b.shl(x, Op::Imm(1)), Alu),
            (|b, x| b.imul(x, Op::Imm(3)), IMul),
            (|b, x| b.mad(x, Op::Imm(3), Op::Imm(1)), IMul),
            (|b, x| b.idivu(x, Op::Imm(2)), IDiv),
            (|b, x| b.iremu(x, Op::Imm(2)), IDiv),
            (|b, x| b.fadd(x, Op::f32(1.0)), Alu),
            (|b, x| b.fmul(x, Op::f32(1.0)), Alu),
            (|b, x| b.fmax(x, Op::f32(1.0)), Alu),
            (|b, x| b.fdiv(x, Op::f32(3.0)), FDiv),
            (|b, x| b.fsqrt(x), FDiv),
            (|b, x| b.i2f(x), Alu),
            (|b, x| b.f2i(x), Alu),
        ];
        for (emit, _) in &ops {
            emit(&mut b, x);
        }
        b.setp(CmpOp::Lt, CmpTy::U32, x, Op::Imm(4));
        b.st(Space::Global, x, 0, Op::Imm(0));
        b.memfence();
        let k = b.build().unwrap();
        // imm, the fifteen operators, setp, st, memfence, exit.
        let mut want = vec![Alu];
        want.extend(ops.iter().map(|&(_, lat)| lat));
        want.extend([Alu; 4]);
        let got: Vec<LatClass> = k.uops().iter().map(|m| m.lat).collect();
        assert_eq!(got, want);
    }

    #[test]
    fn param_read_out_of_range_rejected() {
        let mut b = KernelBuilder::new("t", Dim3::x(32), 2);
        let _ = b.ld_param(2);
        assert_eq!(
            b.build().unwrap_err(),
            BuildError::ParamOutOfRange {
                word: 2,
                param_words: 2
            }
        );
    }

    #[test]
    fn block_too_large_rejected() {
        let mut b = KernelBuilder::new("t", Dim3::new(1024, 2, 1), 0);
        let _ = b.imm(0);
        assert!(matches!(
            b.build().unwrap_err(),
            BuildError::BlockTooLarge { threads: 2048 }
        ));
    }

    #[test]
    fn too_many_regs_rejected() {
        let mut b = KernelBuilder::new("t", Dim3::x(32), 0);
        for _ in 0..300 {
            let _ = b.alloc();
        }
        assert!(matches!(
            b.build().unwrap_err(),
            BuildError::TooManyRegs { .. }
        ));
    }

    #[test]
    fn shared_allocation_accumulates() {
        let mut b = KernelBuilder::new("t", Dim3::x(32), 0);
        assert_eq!(b.alloc_shared_words(8), 0);
        assert_eq!(b.alloc_shared_words(4), 32);
        let _ = b.imm(0);
        assert_eq!(b.build().unwrap().shared_mem_bytes(), 48);
    }

    #[test]
    fn if_else_reconverges_once() {
        let mut b = KernelBuilder::new("t", Dim3::x(32), 0);
        let x = b.imm(0);
        let p = b.setp(CmpOp::Eq, CmpTy::U32, x, Op::Imm(0));
        b.if_else_(
            p,
            |b| {
                let _ = b.imm(1);
            },
            |b| {
                let _ = b.imm(2);
            },
        );
        let k = b.build().unwrap();
        let bras: Vec<_> = k
            .uops()
            .iter()
            .filter_map(|m| match m.op {
                UOp::Bra {
                    target,
                    reconv,
                    pred,
                } => Some((target, reconv, pred.is_some())),
                _ => None,
            })
            .collect();
        assert_eq!(bras.len(), 2);
        // Both branches share the same reconvergence point (the join).
        assert_eq!(bras[0].1, bras[1].1);
        // The unconditional jump lands exactly on the join.
        assert_eq!(bras[1].0, bras[1].1);
    }

    #[test]
    fn error_display_nonempty() {
        let msgs = [
            BuildError::TooManyRegs { used: 300 }.to_string(),
            BuildError::TooManyPreds { used: 99 }.to_string(),
            BuildError::BlockTooLarge { threads: 2048 }.to_string(),
            BuildError::ParamOutOfRange {
                word: 3,
                param_words: 2,
            }
            .to_string(),
            BuildError::UnpatchedBranch { pc: 7 }.to_string(),
        ];
        for m in msgs {
            assert!(!m.is_empty());
        }
    }
}
