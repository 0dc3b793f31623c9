//! Per-thread ALU semantics, the launch request, and atomics.
//!
//! [`ThreadCtx`] runs one lane's ALU micro-ops with its own scalar
//! semantics: it is the oracle the warp-vectorized
//! [`exec_alu`](crate::exec_alu) is checked against, and nothing else
//! executes through it. The simulator computes every micro-op's effect at
//! issue (as GPGPU-Sim does) and models its latency separately.

use crate::decode::{BinOp, UOp, UnOp};
use crate::dim::Dim3;
use crate::inst::{AtomOp, CmpOp, CmpTy, Op};
use crate::kernel::KernelId;
use crate::reg::{Pred, Reg, SReg};

/// Per-thread immutable execution environment: the values behind the
/// special registers.
///
/// For a native thread block, `ctaid`/`nctaid` describe the kernel grid;
/// for an aggregated thread block (DTBL) they describe the block's position
/// within — and the extent of — its aggregated group (§4.1).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ThreadEnv {
    /// Thread index within the block.
    pub tid: (u32, u32, u32),
    /// Block index within the grid or aggregated group.
    pub ctaid: (u32, u32, u32),
    /// Block shape.
    pub ntid: Dim3,
    /// Grid or aggregated-group shape.
    pub nctaid: Dim3,
    /// Lane within the warp.
    pub lane: u32,
    /// SMX the thread is resident on.
    pub smid: u32,
}

impl ThreadEnv {
    pub(crate) fn sreg(&self, s: SReg) -> u32 {
        match s {
            SReg::TidX => self.tid.0,
            SReg::TidY => self.tid.1,
            SReg::TidZ => self.tid.2,
            SReg::CtaIdX => self.ctaid.0,
            SReg::CtaIdY => self.ctaid.1,
            SReg::CtaIdZ => self.ctaid.2,
            SReg::NTidX => self.ntid.x,
            SReg::NTidY => self.ntid.y,
            SReg::NTidZ => self.ntid.z,
            SReg::NCtaIdX => self.nctaid.x,
            SReg::NCtaIdY => self.nctaid.y,
            SReg::NCtaIdZ => self.nctaid.z,
            SReg::LaneId => self.lane,
            SReg::SmId => self.smid,
        }
    }
}

/// The kind of device-side launch requested by a lane.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum LaunchKind {
    /// CDP `cudaLaunchDevice`: a nested device kernel.
    Device,
    /// DTBL `cudaLaunchAggGroup`: an aggregated group of thread blocks.
    Agg,
}

/// A device-side launch requested by one lane. Lanes in the same warp that
/// launch simultaneously are combined into one aggregation/launch command by
/// the runtime, per the paper's per-warp launch model.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct LaunchRequest {
    /// CDP device kernel or DTBL aggregated group.
    pub kind: LaunchKind,
    /// The kernel to execute.
    pub kernel: KernelId,
    /// Number of thread blocks (x dimension; launches are 1D in this model).
    pub ntb: u32,
    /// Global address of the already-filled parameter buffer.
    pub param_addr: u32,
}

/// Architectural state of a single thread: general-purpose registers and
/// predicates.
#[derive(Clone, Debug)]
pub struct ThreadCtx {
    regs: Box<[u32]>,
    preds: u64,
}

impl ThreadCtx {
    /// Creates a thread context with `nregs` zeroed registers.
    pub fn new(nregs: u16) -> Self {
        ThreadCtx {
            regs: vec![0u32; usize::from(nregs.max(1))].into_boxed_slice(),
            preds: 0,
        }
    }

    /// Reads a register.
    ///
    /// # Panics
    ///
    /// Panics if `r` is outside the kernel's declared register count (the
    /// builder prevents this for kernels it produced).
    pub fn reg(&self, r: Reg) -> u32 {
        self.regs[usize::from(r.0)]
    }

    /// Writes a register.
    pub fn write_reg(&mut self, r: Reg, v: u32) {
        self.regs[usize::from(r.0)] = v;
    }

    /// Reads a predicate.
    pub fn pred(&self, p: Pred) -> bool {
        (self.preds >> p.0) & 1 == 1
    }

    /// Writes a predicate.
    pub fn write_pred(&mut self, p: Pred, v: bool) {
        if v {
            self.preds |= 1 << p.0;
        } else {
            self.preds &= !(1 << p.0);
        }
    }

    /// Resolves an operand against this thread's registers.
    pub(crate) fn op(&self, op: Op) -> u32 {
        match op {
            Op::Reg(r) => self.reg(r),
            Op::Imm(v) => v,
        }
    }

    /// Executes one ALU micro-op for this lane (see [`lane_step`]).
    pub fn step(&mut self, uop: &UOp, env: &ThreadEnv) {
        lane_step(self, uop, env)
    }
}

/// Executes one ALU micro-op for one lane.
///
/// This is the scalar reference executor the warp-vectorized
/// [`exec_alu`](crate::exec_alu) is differentially tested against. It
/// keeps its own per-operator scalar table rather than calling
/// `bin_eval`/`un_eval`, so a wrong arm in either executor shows as a
/// disagreement. Memory, launch and control micro-ops belong to the SIMT
/// front end; passing one here is a bug caught in debug builds.
pub fn lane_step(st: &mut ThreadCtx, uop: &UOp, env: &ThreadEnv) {
    match *uop {
        UOp::Mov { dst, src } => {
            let v = st.op(src);
            st.write_reg(dst, v);
        }
        UOp::S2R { dst, sreg } => st.write_reg(dst, env.sreg(sreg)),
        UOp::Bin { op, dst, a, b } => {
            let (x, y) = (st.reg(a), st.op(b));
            let (fx, fy) = (f32::from_bits(x), f32::from_bits(y));
            let v = match op {
                BinOp::IAdd => x.wrapping_add(y),
                BinOp::ISub => x.wrapping_sub(y),
                BinOp::IMul => x.wrapping_mul(y),
                // Hardware defines x/0 = all-ones and x%0 = x.
                BinOp::IDivU => x.checked_div(y).unwrap_or(u32::MAX),
                BinOp::IRemU => x.checked_rem(y).unwrap_or(x),
                BinOp::IMinS => (x as i32).min(y as i32) as u32,
                BinOp::IMaxS => (x as i32).max(y as i32) as u32,
                BinOp::And => x & y,
                BinOp::Or => x | y,
                BinOp::Xor => x ^ y,
                BinOp::Shl => x << (y & 31),
                BinOp::ShrU => x >> (y & 31),
                BinOp::ShrS => ((x as i32) >> (y & 31)) as u32,
                BinOp::FAdd => (fx + fy).to_bits(),
                BinOp::FSub => (fx - fy).to_bits(),
                BinOp::FMul => (fx * fy).to_bits(),
                BinOp::FDiv => (fx / fy).to_bits(),
                BinOp::FMin => fx.min(fy).to_bits(),
                BinOp::FMax => fx.max(fy).to_bits(),
            };
            st.write_reg(dst, v);
        }
        UOp::IMad { dst, a, b, c } => {
            let v = st.reg(a).wrapping_mul(st.op(b)).wrapping_add(st.op(c));
            st.write_reg(dst, v);
        }
        UOp::Un { op, dst, a } => {
            let x = st.reg(a);
            let f = f32::from_bits(x);
            let v = match op {
                UnOp::FSqrt => f.sqrt().to_bits(),
                UnOp::I2F => ((x as i32) as f32).to_bits(),
                // cvt.rzi.s32.f32 semantics: truncate, saturate, NaN -> 0.
                UnOp::F2I if f.is_nan() => 0,
                UnOp::F2I if f >= i32::MAX as f32 => i32::MAX as u32,
                UnOp::F2I if f <= i32::MIN as f32 => i32::MIN as u32,
                UnOp::F2I => f.trunc() as i32 as u32,
            };
            st.write_reg(dst, v);
        }
        UOp::SetP { dst, cmp, ty, a, b } => {
            let x = st.reg(a);
            let y = st.op(b);
            let r = match ty {
                CmpTy::U32 => cmp_with(cmp, &x, &y),
                CmpTy::I32 => cmp_with(cmp, &(x as i32), &(y as i32)),
                CmpTy::F32 => cmp_f32(cmp, f32::from_bits(x), f32::from_bits(y)),
            };
            st.write_pred(dst, r);
        }
        UOp::PBool { dst, a, b, and } => {
            let v = if and {
                st.pred(a) && st.pred(b)
            } else {
                st.pred(a) || st.pred(b)
            };
            st.write_pred(dst, v);
        }
        UOp::PNot { dst, a } => {
            let v = !st.pred(a);
            st.write_pred(dst, v);
        }
        UOp::Sel { dst, p, a, b } => {
            let v = if st.pred(p) { st.op(a) } else { st.op(b) };
            st.write_reg(dst, v);
        }
        _ => debug_assert!(false, "lane_step called on a non-ALU micro-op: {uop:?}"),
    }
}

/// Applies an atomic operator to a memory word, returning the new value to
/// store. Shared between the simulator's global and shared memory paths so
/// the semantics cannot drift apart.
pub fn apply_atomic(op: AtomOp, old: u32, operand: u32, comparand: Option<u32>) -> u32 {
    match op {
        AtomOp::Add => old.wrapping_add(operand),
        AtomOp::MinS => (old as i32).min(operand as i32) as u32,
        AtomOp::MaxS => (old as i32).max(operand as i32) as u32,
        AtomOp::MinU => old.min(operand),
        AtomOp::MaxU => old.max(operand),
        AtomOp::Exch => operand,
        AtomOp::Cas => {
            if Some(old) == comparand {
                operand
            } else {
                old
            }
        }
        AtomOp::Or => old | operand,
        AtomOp::And => old & operand,
    }
}

pub(crate) fn cmp_with<T: PartialOrd>(cmp: CmpOp, a: &T, b: &T) -> bool {
    match cmp {
        CmpOp::Eq => a == b,
        CmpOp::Ne => a != b,
        CmpOp::Lt => a < b,
        CmpOp::Le => a <= b,
        CmpOp::Gt => a > b,
        CmpOp::Ge => a >= b,
    }
}

pub(crate) fn cmp_f32(cmp: CmpOp, a: f32, b: f32) -> bool {
    // Unordered comparisons are false except Ne, matching PTX setp.f32.
    if a.is_nan() || b.is_nan() {
        return cmp == CmpOp::Ne;
    }
    cmp_with(cmp, &a, &b)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn env() -> ThreadEnv {
        ThreadEnv {
            tid: (3, 0, 0),
            ctaid: (2, 0, 0),
            ntid: Dim3::x(64),
            nctaid: Dim3::x(10),
            lane: 3,
            smid: 1,
        }
    }

    /// Runs `dst = a <op> b` on a fresh context holding `x` in `a`.
    fn bin(op: BinOp, x: u32, b: Op) -> u32 {
        let mut c = ThreadCtx::new(4);
        c.write_reg(Reg(0), x);
        let (dst, a) = (Reg(1), Reg(0));
        c.step(&UOp::Bin { op, dst, a, b }, &env());
        c.reg(dst)
    }

    /// Runs `dst = <op> a` on a fresh context holding `x` in `a`.
    fn un(op: UnOp, x: u32) -> u32 {
        let mut c = ThreadCtx::new(4);
        c.write_reg(Reg(0), x);
        c.step(
            &UOp::Un {
                op,
                dst: Reg(1),
                a: Reg(0),
            },
            &env(),
        );
        c.reg(Reg(1))
    }

    #[test]
    fn alu_basics() {
        assert_eq!(bin(BinOp::IAdd, 7, Op::Imm(5)), 12);
        assert_eq!(bin(BinOp::ISub, 7, Op::Imm(10)) as i32, -3);
        let mut c = ThreadCtx::new(4);
        let e = env();
        c.step(
            &UOp::Mov {
                dst: Reg(0),
                src: Op::Imm(7),
            },
            &e,
        );
        c.step(
            &UOp::IMad {
                dst: Reg(3),
                a: Reg(0),
                b: Op::Imm(3),
                c: Op::Imm(1),
            },
            &e,
        );
        assert_eq!(c.reg(Reg(3)), 22);
    }

    #[test]
    fn division_by_zero_matches_hardware() {
        assert_eq!(bin(BinOp::IDivU, 42, Op::Imm(0)), u32::MAX);
        assert_eq!(bin(BinOp::IRemU, 42, Op::Imm(0)), 42);
    }

    #[test]
    fn signed_min_max_and_shifts() {
        let m5 = (-5i32) as u32;
        assert_eq!(bin(BinOp::IMinS, m5, Op::Imm(3)) as i32, -5);
        assert_eq!(bin(BinOp::IMaxS, m5, Op::Imm(3)), 3);
        assert_eq!(bin(BinOp::ShrS, m5, Op::Imm(1)) as i32, -3);
        // Shift count is masked to 5 bits.
        assert_eq!(bin(BinOp::ShrU, m5, Op::Imm(33)), m5 >> 1);
    }

    #[test]
    fn float_ops_roundtrip_bits() {
        let seven = bin(BinOp::FMul, 2.0f32.to_bits(), Op::f32(3.5));
        assert_eq!(f32::from_bits(seven), 7.0);
        assert!((f32::from_bits(un(UnOp::FSqrt, seven)) - 7.0f32.sqrt()).abs() < 1e-6);
        assert_eq!(un(UnOp::F2I, seven), 7);
        assert_eq!(f32::from_bits(un(UnOp::I2F, (-3i32) as u32)), -3.0);
    }

    #[test]
    fn f2i_saturates_and_zeroes_nan() {
        assert_eq!(un(UnOp::F2I, f32::NAN.to_bits()), 0);
        assert_eq!(un(UnOp::F2I, 1e30f32.to_bits()) as i32, i32::MAX);
        assert_eq!(un(UnOp::F2I, (-1e30f32).to_bits()) as i32, i32::MIN);
    }

    /// Runs `p0 = a <cmp> b` under `ty` with `x` in `a`.
    fn setp(cmp: CmpOp, ty: CmpTy, x: u32, b: Op) -> bool {
        let mut c = ThreadCtx::new(4);
        c.write_reg(Reg(0), x);
        let dst = Pred(0);
        let a = Reg(0);
        c.step(&UOp::SetP { dst, cmp, ty, a, b }, &env());
        c.pred(dst)
    }

    #[test]
    fn predicates_and_select() {
        let mut c = ThreadCtx::new(4);
        let e = env();
        c.write_pred(Pred(0), true);
        c.step(
            &UOp::PNot {
                dst: Pred(1),
                a: Pred(0),
            },
            &e,
        );
        assert!(!c.pred(Pred(1)));
        for (and, want) in [(true, false), (false, true)] {
            c.step(
                &UOp::PBool {
                    dst: Pred(2),
                    a: Pred(0),
                    b: Pred(1),
                    and,
                },
                &e,
            );
            assert_eq!(c.pred(Pred(2)), want, "and={and}");
        }
        c.step(
            &UOp::Sel {
                dst: Reg(1),
                p: Pred(0),
                a: Op::Imm(10),
                b: Op::Imm(20),
            },
            &e,
        );
        assert_eq!(c.reg(Reg(1)), 10);
    }

    #[test]
    fn signed_comparison_differs_from_unsigned() {
        assert!(setp(CmpOp::Lt, CmpTy::U32, 5, Op::Imm(9)));
        let m1 = (-1i32) as u32;
        assert!(setp(CmpOp::Lt, CmpTy::I32, m1, Op::Imm(0)), "-1 < 0 signed");
        assert!(
            !setp(CmpOp::Lt, CmpTy::U32, m1, Op::Imm(0)),
            "0xffffffff not < 0 unsigned"
        );
    }

    #[test]
    fn nan_comparisons_are_unordered() {
        let nan = f32::NAN.to_bits();
        for (cmp, want) in [(CmpOp::Eq, false), (CmpOp::Lt, false), (CmpOp::Ne, true)] {
            assert_eq!(setp(cmp, CmpTy::F32, nan, Op::f32(1.0)), want, "{cmp:?}");
        }
    }

    #[test]
    fn special_registers_come_from_env() {
        let mut c = ThreadCtx::new(4);
        for (sreg, want) in [(SReg::TidX, 3), (SReg::NCtaIdX, 10), (SReg::SmId, 1)] {
            c.step(&UOp::S2R { dst: Reg(0), sreg }, &env());
            assert_eq!(c.reg(Reg(0)), want, "{sreg:?}");
        }
    }

    #[test]
    fn atomic_semantics() {
        assert_eq!(apply_atomic(AtomOp::Add, 10, 5, None), 15);
        assert_eq!(
            apply_atomic(AtomOp::MinS, (-2i32) as u32, 1, None),
            (-2i32) as u32
        );
        assert_eq!(apply_atomic(AtomOp::MinU, (-2i32) as u32, 1, None), 1);
        assert_eq!(apply_atomic(AtomOp::MaxS, (-2i32) as u32, 1, None), 1);
        assert_eq!(apply_atomic(AtomOp::MaxU, 7, 9, None), 9);
        assert_eq!(apply_atomic(AtomOp::Exch, 1, 2, None), 2);
        assert_eq!(apply_atomic(AtomOp::Cas, 5, 9, Some(5)), 9);
        assert_eq!(apply_atomic(AtomOp::Cas, 5, 9, Some(6)), 5);
        assert_eq!(apply_atomic(AtomOp::Or, 0b01, 0b10, None), 0b11);
        assert_eq!(apply_atomic(AtomOp::And, 0b11, 0b10, None), 0b10);
    }
}
