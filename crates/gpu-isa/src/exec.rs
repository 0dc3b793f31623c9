//! Per-thread functional semantics.
//!
//! The cycle-level simulator separates *function* from *timing*: when a warp
//! issues an instruction, every active lane's architectural effect is
//! computed here immediately (as GPGPU-Sim does), while the latency of the
//! instruction is modelled separately by the SMX pipeline and memory
//! subsystem. Pure ALU instructions update the [`ThreadCtx`] directly and
//! return [`Effect::None`]; instructions with external effects (memory,
//! parameter-buffer allocation, device launches) return a descriptor the
//! simulator applies against its global state.

use crate::dim::Dim3;
use crate::inst::{AtomOp, CmpOp, CmpTy, Inst, Op, Space};
use crate::kernel::KernelId;
use crate::reg::{Pred, Reg, SReg};

/// Per-thread immutable execution environment: the values behind the
/// special registers and the parameter-buffer base address.
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
    /// Global address of the kernel's or group's parameter buffer.
    pub param_base: u32,
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

/// A memory access descriptor produced by one lane; the LSU coalesces the
/// requests of all active lanes in the warp.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct MemRequest {
    /// Address space accessed.
    pub space: Space,
    /// Byte address (within the space).
    pub addr: u32,
    /// True for stores and atomics (they dirty the line / need write
    /// bandwidth).
    pub is_write: bool,
}

/// The architectural effect of one lane executing one instruction.
///
/// Field convention matches [`Inst`](crate::Inst): `dst` receives the
/// result, `req` describes the memory transaction, `operand`/`comparand`
/// are the atomic inputs.
#[allow(missing_docs)]
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Effect {
    /// Fully handled inside the [`ThreadCtx`] (ALU, moves, predicates).
    None,
    /// 32-bit load; the simulator reads memory and calls
    /// [`ThreadCtx::write_reg`] on `dst`.
    Load { dst: Reg, req: MemRequest },
    /// 32-bit store of `value`.
    Store { req: MemRequest, value: u32 },
    /// Atomic read-modify-write; `comparand` is present only for CAS.
    Atomic {
        dst: Option<Reg>,
        op: AtomOp,
        req: MemRequest,
        operand: u32,
        comparand: Option<u32>,
    },
    /// `cudaGetParameterBuffer`: the runtime allocates `words` words and
    /// writes the address to `dst`.
    AllocParamBuf { dst: Reg, words: u16 },
    /// A device-side launch (CDP or DTBL).
    Launch(LaunchRequest),
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

    /// Writes a register (used by the simulator for load write-back).
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

    /// Executes one instruction for this lane, updating registers and
    /// returning any external effect.
    ///
    /// Control-flow instructions ([`Inst::Bra`], [`Inst::Bar`],
    /// [`Inst::Exit`]) are warp-level: they return [`Effect::None`] and the
    /// caller (the SIMT front end) is responsible for the PC/mask update,
    /// reading predicates via [`ThreadCtx::pred`].
    pub fn step(&mut self, inst: &Inst, env: &ThreadEnv) -> Effect {
        lane_step(self, inst, env)
    }
}

/// Executes one instruction for one lane.
///
/// This is the scalar reference executor: [`ThreadCtx::step`] delegates
/// here, and the warp-vectorized path
/// ([`decode::exec_alu`](crate::decode::exec_alu)) is differentially
/// tested against it. Control-flow instructions return [`Effect::None`];
/// the SIMT front end owns the PC/mask update.
pub fn lane_step(st: &mut ThreadCtx, inst: &Inst, env: &ThreadEnv) -> Effect {
    match *inst {
        Inst::Mov { dst, src } => {
            let v = st.op(src);
            st.write_reg(dst, v);
            Effect::None
        }
        Inst::S2R { dst, sreg } => {
            st.write_reg(dst, env.sreg(sreg));
            Effect::None
        }
        Inst::IAdd { dst, a, b } => bin(st, dst, a, b, |x, y| x.wrapping_add(y)),
        Inst::ISub { dst, a, b } => bin(st, dst, a, b, |x, y| x.wrapping_sub(y)),
        Inst::IMul { dst, a, b } => bin(st, dst, a, b, |x, y| x.wrapping_mul(y)),
        Inst::IMad { dst, a, b, c } => {
            let v = st.reg(a).wrapping_mul(st.op(b)).wrapping_add(st.op(c));
            st.write_reg(dst, v);
            Effect::None
        }
        Inst::IDivU { dst, a, b } => {
            // Hardware defines x/0 = all-ones (not an Option), so a
            // checked_div + unwrap_or reads as the semantics here.
            bin(st, dst, a, b, |x, y| x.checked_div(y).unwrap_or(u32::MAX))
        }
        Inst::IRemU { dst, a, b } => bin(st, dst, a, b, |x, y| if y == 0 { x } else { x % y }),
        Inst::IMinS { dst, a, b } => bin(st, dst, a, b, |x, y| (x as i32).min(y as i32) as u32),
        Inst::IMaxS { dst, a, b } => bin(st, dst, a, b, |x, y| (x as i32).max(y as i32) as u32),
        Inst::And { dst, a, b } => bin(st, dst, a, b, |x, y| x & y),
        Inst::Or { dst, a, b } => bin(st, dst, a, b, |x, y| x | y),
        Inst::Xor { dst, a, b } => bin(st, dst, a, b, |x, y| x ^ y),
        Inst::Shl { dst, a, b } => bin(st, dst, a, b, |x, y| x << (y & 31)),
        Inst::ShrU { dst, a, b } => bin(st, dst, a, b, |x, y| x >> (y & 31)),
        Inst::ShrS { dst, a, b } => bin(st, dst, a, b, |x, y| ((x as i32) >> (y & 31)) as u32),
        Inst::FAdd { dst, a, b } => fbin(st, dst, a, b, |x, y| x + y),
        Inst::FSub { dst, a, b } => fbin(st, dst, a, b, |x, y| x - y),
        Inst::FMul { dst, a, b } => fbin(st, dst, a, b, |x, y| x * y),
        Inst::FDiv { dst, a, b } => fbin(st, dst, a, b, |x, y| x / y),
        Inst::FSqrt { dst, a } => {
            let v = f32::from_bits(st.reg(a)).sqrt();
            st.write_reg(dst, v.to_bits());
            Effect::None
        }
        Inst::FMin { dst, a, b } => fbin(st, dst, a, b, f32::min),
        Inst::FMax { dst, a, b } => fbin(st, dst, a, b, f32::max),
        Inst::I2F { dst, a } => {
            let v = (st.reg(a) as i32) as f32;
            st.write_reg(dst, v.to_bits());
            Effect::None
        }
        Inst::F2I { dst, a } => {
            let f = f32::from_bits(st.reg(a));
            // cvt.rzi.s32.f32 semantics: truncate, saturate, NaN -> 0.
            let v = if f.is_nan() {
                0i32
            } else if f >= i32::MAX as f32 {
                i32::MAX
            } else if f <= i32::MIN as f32 {
                i32::MIN
            } else {
                f.trunc() as i32
            };
            st.write_reg(dst, v as u32);
            Effect::None
        }
        Inst::SetP { dst, cmp, ty, a, b } => {
            let x = st.reg(a);
            let y = st.op(b);
            let r = match ty {
                CmpTy::U32 => cmp_with(cmp, &x, &y),
                CmpTy::I32 => cmp_with(cmp, &(x as i32), &(y as i32)),
                CmpTy::F32 => cmp_f32(cmp, f32::from_bits(x), f32::from_bits(y)),
            };
            st.write_pred(dst, r);
            Effect::None
        }
        Inst::PBool { dst, a, b, and } => {
            let v = if and {
                st.pred(a) && st.pred(b)
            } else {
                st.pred(a) || st.pred(b)
            };
            st.write_pred(dst, v);
            Effect::None
        }
        Inst::PNot { dst, a } => {
            let v = !st.pred(a);
            st.write_pred(dst, v);
            Effect::None
        }
        Inst::Sel { dst, p, a, b } => {
            let v = if st.pred(p) { st.op(a) } else { st.op(b) };
            st.write_reg(dst, v);
            Effect::None
        }
        Inst::Ld {
            dst,
            space,
            addr,
            offset,
        } => Effect::Load {
            dst,
            req: MemRequest {
                space,
                addr: st.reg(addr).wrapping_add_signed(offset),
                is_write: false,
            },
        },
        Inst::St {
            space,
            addr,
            offset,
            src,
        } => Effect::Store {
            req: MemRequest {
                space,
                addr: st.reg(addr).wrapping_add_signed(offset),
                is_write: true,
            },
            value: st.op(src),
        },
        Inst::LdParam { dst, word } => Effect::Load {
            dst,
            req: MemRequest {
                space: Space::Global,
                addr: env.param_base.wrapping_add(u32::from(word) * 4),
                is_write: false,
            },
        },
        Inst::Atom {
            dst,
            op,
            space,
            addr,
            offset,
            src,
            extra,
        } => Effect::Atomic {
            dst,
            op,
            req: MemRequest {
                space,
                addr: st.reg(addr).wrapping_add_signed(offset),
                is_write: true,
            },
            operand: st.op(src),
            comparand: extra.map(|r| st.reg(r)),
        },
        Inst::GetParamBuf { dst, words } => Effect::AllocParamBuf { dst, words },
        Inst::LaunchDevice { kernel, ntb, param } => Effect::Launch(LaunchRequest {
            kind: LaunchKind::Device,
            kernel,
            ntb: st.op(ntb),
            param_addr: st.reg(param),
        }),
        Inst::LaunchAgg { kernel, ntb, param } => Effect::Launch(LaunchRequest {
            kind: LaunchKind::Agg,
            kernel,
            ntb: st.op(ntb),
            param_addr: st.reg(param),
        }),
        Inst::Bra { .. } | Inst::Bar | Inst::Exit | Inst::Nop | Inst::MemFence => Effect::None,
    }
}

fn bin(st: &mut ThreadCtx, dst: Reg, a: Reg, b: Op, f: impl FnOnce(u32, u32) -> u32) -> Effect {
    let v = f(st.reg(a), st.op(b));
    st.write_reg(dst, v);
    Effect::None
}

fn fbin(st: &mut ThreadCtx, dst: Reg, a: Reg, b: Op, f: impl FnOnce(f32, f32) -> f32) -> Effect {
    let v = f(f32::from_bits(st.reg(a)), f32::from_bits(st.op(b)));
    st.write_reg(dst, v.to_bits());
    Effect::None
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
            param_base: 0x1000,
        }
    }

    fn ctx() -> ThreadCtx {
        ThreadCtx::new(16)
    }

    #[test]
    fn alu_basics() {
        let mut c = ctx();
        let e = env();
        c.step(
            &Inst::Mov {
                dst: Reg(0),
                src: Op::Imm(7),
            },
            &e,
        );
        c.step(
            &Inst::IAdd {
                dst: Reg(1),
                a: Reg(0),
                b: Op::Imm(5),
            },
            &e,
        );
        assert_eq!(c.reg(Reg(1)), 12);
        c.step(
            &Inst::ISub {
                dst: Reg(2),
                a: Reg(0),
                b: Op::Imm(10),
            },
            &e,
        );
        assert_eq!(c.reg(Reg(2)) as i32, -3);
        c.step(
            &Inst::IMad {
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
        let mut c = ctx();
        let e = env();
        c.write_reg(Reg(0), 42);
        c.step(
            &Inst::IDivU {
                dst: Reg(1),
                a: Reg(0),
                b: Op::Imm(0),
            },
            &e,
        );
        assert_eq!(c.reg(Reg(1)), u32::MAX);
        c.step(
            &Inst::IRemU {
                dst: Reg(2),
                a: Reg(0),
                b: Op::Imm(0),
            },
            &e,
        );
        assert_eq!(c.reg(Reg(2)), 42);
    }

    #[test]
    fn signed_min_max_and_shifts() {
        let mut c = ctx();
        let e = env();
        c.write_reg(Reg(0), (-5i32) as u32);
        c.step(
            &Inst::IMinS {
                dst: Reg(1),
                a: Reg(0),
                b: Op::Imm(3),
            },
            &e,
        );
        assert_eq!(c.reg(Reg(1)) as i32, -5);
        c.step(
            &Inst::IMaxS {
                dst: Reg(2),
                a: Reg(0),
                b: Op::Imm(3),
            },
            &e,
        );
        assert_eq!(c.reg(Reg(2)), 3);
        c.step(
            &Inst::ShrS {
                dst: Reg(3),
                a: Reg(0),
                b: Op::Imm(1),
            },
            &e,
        );
        assert_eq!(c.reg(Reg(3)) as i32, -3);
        c.step(
            &Inst::ShrU {
                dst: Reg(4),
                a: Reg(0),
                b: Op::Imm(33),
            },
            &e,
        );
        // Shift count is masked to 5 bits.
        assert_eq!(c.reg(Reg(4)), ((-5i32) as u32) >> 1);
    }

    #[test]
    fn float_ops_roundtrip_bits() {
        let mut c = ctx();
        let e = env();
        c.write_reg(Reg(0), 2.0f32.to_bits());
        c.step(
            &Inst::FMul {
                dst: Reg(1),
                a: Reg(0),
                b: Op::f32(3.5),
            },
            &e,
        );
        assert_eq!(f32::from_bits(c.reg(Reg(1))), 7.0);
        c.step(
            &Inst::FSqrt {
                dst: Reg(2),
                a: Reg(1),
            },
            &e,
        );
        assert!((f32::from_bits(c.reg(Reg(2))) - 7.0f32.sqrt()).abs() < 1e-6);
        c.step(
            &Inst::F2I {
                dst: Reg(3),
                a: Reg(1),
            },
            &e,
        );
        assert_eq!(c.reg(Reg(3)), 7);
        c.write_reg(Reg(4), (-3i32) as u32);
        c.step(
            &Inst::I2F {
                dst: Reg(5),
                a: Reg(4),
            },
            &e,
        );
        assert_eq!(f32::from_bits(c.reg(Reg(5))), -3.0);
    }

    #[test]
    fn f2i_saturates_and_zeroes_nan() {
        let mut c = ctx();
        let e = env();
        c.write_reg(Reg(0), f32::NAN.to_bits());
        c.step(
            &Inst::F2I {
                dst: Reg(1),
                a: Reg(0),
            },
            &e,
        );
        assert_eq!(c.reg(Reg(1)), 0);
        c.write_reg(Reg(0), 1e30f32.to_bits());
        c.step(
            &Inst::F2I {
                dst: Reg(1),
                a: Reg(0),
            },
            &e,
        );
        assert_eq!(c.reg(Reg(1)) as i32, i32::MAX);
    }

    #[test]
    fn predicates_and_select() {
        let mut c = ctx();
        let e = env();
        c.write_reg(Reg(0), 5);
        c.step(
            &Inst::SetP {
                dst: Pred(0),
                cmp: CmpOp::Lt,
                ty: CmpTy::U32,
                a: Reg(0),
                b: Op::Imm(9),
            },
            &e,
        );
        assert!(c.pred(Pred(0)));
        c.step(
            &Inst::PNot {
                dst: Pred(1),
                a: Pred(0),
            },
            &e,
        );
        assert!(!c.pred(Pred(1)));
        c.step(
            &Inst::PBool {
                dst: Pred(2),
                a: Pred(0),
                b: Pred(1),
                and: true,
            },
            &e,
        );
        assert!(!c.pred(Pred(2)));
        c.step(
            &Inst::PBool {
                dst: Pred(3),
                a: Pred(0),
                b: Pred(1),
                and: false,
            },
            &e,
        );
        assert!(c.pred(Pred(3)));
        c.step(
            &Inst::Sel {
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
        let mut c = ctx();
        let e = env();
        c.write_reg(Reg(0), (-1i32) as u32);
        c.step(
            &Inst::SetP {
                dst: Pred(0),
                cmp: CmpOp::Lt,
                ty: CmpTy::I32,
                a: Reg(0),
                b: Op::Imm(0),
            },
            &e,
        );
        assert!(c.pred(Pred(0)), "-1 < 0 signed");
        c.step(
            &Inst::SetP {
                dst: Pred(1),
                cmp: CmpOp::Lt,
                ty: CmpTy::U32,
                a: Reg(0),
                b: Op::Imm(0),
            },
            &e,
        );
        assert!(!c.pred(Pred(1)), "0xffffffff not < 0 unsigned");
    }

    #[test]
    fn nan_comparisons_are_unordered() {
        let mut c = ctx();
        let e = env();
        c.write_reg(Reg(0), f32::NAN.to_bits());
        for (cmp, want) in [(CmpOp::Eq, false), (CmpOp::Lt, false), (CmpOp::Ne, true)] {
            c.step(
                &Inst::SetP {
                    dst: Pred(0),
                    cmp,
                    ty: CmpTy::F32,
                    a: Reg(0),
                    b: Op::f32(1.0),
                },
                &e,
            );
            assert_eq!(c.pred(Pred(0)), want, "{cmp:?}");
        }
    }

    #[test]
    fn special_registers_come_from_env() {
        let mut c = ctx();
        let e = env();
        c.step(
            &Inst::S2R {
                dst: Reg(0),
                sreg: SReg::TidX,
            },
            &e,
        );
        assert_eq!(c.reg(Reg(0)), 3);
        c.step(
            &Inst::S2R {
                dst: Reg(0),
                sreg: SReg::NCtaIdX,
            },
            &e,
        );
        assert_eq!(c.reg(Reg(0)), 10);
        c.step(
            &Inst::S2R {
                dst: Reg(0),
                sreg: SReg::SmId,
            },
            &e,
        );
        assert_eq!(c.reg(Reg(0)), 1);
    }

    #[test]
    fn memory_effects_carry_computed_addresses() {
        let mut c = ctx();
        let e = env();
        c.write_reg(Reg(0), 0x100);
        let eff = c.step(
            &Inst::Ld {
                dst: Reg(1),
                space: Space::Global,
                addr: Reg(0),
                offset: 8,
            },
            &e,
        );
        assert_eq!(
            eff,
            Effect::Load {
                dst: Reg(1),
                req: MemRequest {
                    space: Space::Global,
                    addr: 0x108,
                    is_write: false
                }
            }
        );
        let eff = c.step(
            &Inst::St {
                space: Space::Shared,
                addr: Reg(0),
                offset: -4,
                src: Op::Imm(9),
            },
            &e,
        );
        assert_eq!(
            eff,
            Effect::Store {
                req: MemRequest {
                    space: Space::Shared,
                    addr: 0xfc,
                    is_write: true
                },
                value: 9
            }
        );
    }

    #[test]
    fn ld_param_reads_relative_to_param_base() {
        let mut c = ctx();
        let e = env();
        let eff = c.step(
            &Inst::LdParam {
                dst: Reg(1),
                word: 3,
            },
            &e,
        );
        assert_eq!(
            eff,
            Effect::Load {
                dst: Reg(1),
                req: MemRequest {
                    space: Space::Global,
                    addr: 0x100c,
                    is_write: false
                }
            }
        );
    }

    #[test]
    fn launch_effects() {
        let mut c = ctx();
        let e = env();
        c.write_reg(Reg(0), 4);
        c.write_reg(Reg(1), 0x2000);
        let eff = c.step(
            &Inst::LaunchAgg {
                kernel: KernelId(7),
                ntb: Op::Reg(Reg(0)),
                param: Reg(1),
            },
            &e,
        );
        assert_eq!(
            eff,
            Effect::Launch(LaunchRequest {
                kind: LaunchKind::Agg,
                kernel: KernelId(7),
                ntb: 4,
                param_addr: 0x2000
            })
        );
        let eff = c.step(
            &Inst::LaunchDevice {
                kernel: KernelId(2),
                ntb: Op::Imm(1),
                param: Reg(1),
            },
            &e,
        );
        assert!(matches!(
            eff,
            Effect::Launch(LaunchRequest {
                kind: LaunchKind::Device,
                ..
            })
        ));
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

    #[test]
    fn control_flow_is_warp_level_noop_here() {
        let mut c = ctx();
        let e = env();
        for i in [Inst::Bar, Inst::Exit, Inst::Nop, Inst::MemFence] {
            assert_eq!(c.step(&i, &e), Effect::None);
        }
        assert_eq!(
            c.step(
                &Inst::Bra {
                    pred: None,
                    target: 0,
                    reconv: 0
                },
                &e
            ),
            Effect::None
        );
    }
}
