//! The instruction set as the machine runs it, and the warp-vectorized
//! functional executor.
//!
//! A kernel is a flat array of [`MicroOp`]s: [`KernelBuilder`] pushes each
//! one, with its pipeline latency class, as it is emitted, and the
//! [`Kernel`] stores that array once. The cycle-level simulator, the
//! reference interpreter ([`interp`](crate::interp)) and the degradation
//! ladder all execute it; the `Arc<Kernel>` a [`Program`](crate::Program)
//! holds carries it through install and dispatch. Executing one micro-op for up
//! to 32 lanes at once stays cheap because of two choices:
//!
//! * **Lane-major register file.** [`WarpRegs`] stores all 32 lanes of
//!   a register contiguously (`[reg * WARP_SIZE + lane]`) plus 64
//!   warp-wide predicate lane-masks. Per-opcode execution is a tight loop
//!   over one cache line pair that LLVM can auto-vectorize, and the
//!   backing `Vec` retains its capacity when pooled across thread-block
//!   placements.
//! * **Uniform-operand fast paths.** [`exec_alu`] computes a result
//!   once and broadcasts it when every input is lane-uniform. Uniformity
//!   forms a small lattice: immediates are statically uniform; special
//!   registers carry per-row flags computed at warp placement
//!   ([`WarpEnv`]); general registers carry a per-register dynamic bit
//!   maintained at write time (a full-mask write of equal values sets
//!   it, any partial or divergent write clears it). The tracking is
//!   deliberately conservative — clearing a bit never changes results,
//!   only costs the fast path.
//!
//! [`ThreadCtx::step`] stays as the oracle: the tests below run every ALU
//! micro-op shape through [`exec_alu`] and, with its own scalar
//! semantics, through 32 `ThreadCtx`s, and compare every register and
//! predicate lane.
//!
//! [`ThreadCtx::step`]: crate::ThreadCtx::step
//! [`KernelBuilder`]: crate::KernelBuilder
//! [`Kernel`]: crate::Kernel

use crate::dim::Dim3;
use crate::exec::{cmp_f32, cmp_with, ThreadEnv};
use crate::inst::{AtomOp, CmpOp, CmpTy, Op, Space};
use crate::kernel::KernelId;
use crate::reg::{Pred, Reg, SReg};
use crate::{LaunchKind, WARP_SIZE};

/// Number of [`SReg`] variants (rows in a [`WarpEnv`] table).
pub const NUM_SREGS: usize = 14;

/// Pipeline latency class, fixed when the builder pushes a micro-op so
/// the issue path maps it to its dependent-issue latency with one
/// array-free match.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum LatClass {
    /// Simple integer/float ALU.
    Alu,
    /// Integer multiply / multiply-add.
    IMul,
    /// Integer divide / remainder.
    IDiv,
    /// Float divide / square root.
    FDiv,
}

/// Binary ALU operator of [`UOp::Bin`]: `dst = a <op> b`.
#[allow(missing_docs)] // each operator's semantics is its `bin_eval` arm
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum BinOp {
    IAdd,
    ISub,
    IMul,
    IDivU,
    IRemU,
    IMinS,
    IMaxS,
    And,
    Or,
    Xor,
    Shl,
    ShrU,
    ShrS,
    FAdd,
    FSub,
    FMul,
    FDiv,
    FMin,
    FMax,
}

/// Unary ALU operator of [`UOp::Un`]: `dst = <op> a`.
#[allow(missing_docs)] // each operator's semantics is its `un_eval` arm
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum UnOp {
    FSqrt,
    I2F,
    F2I,
}

/// One machine instruction.
///
/// Binary arithmetic takes its first source from a register and the
/// second from an [`Op`] (register or immediate), mirroring typical RISC
/// encodings. All values are 32 bits; floating-point operators
/// reinterpret register bits as IEEE-754 single precision.
///
/// Operand fields follow one convention throughout — `dst`: destination
/// register; `a`: first (register) source; `b`/`c`: further operands;
/// `addr`+`offset`: effective address `addr + offset` — so per-field docs
/// are suppressed.
#[allow(missing_docs)]
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum UOp {
    /// `dst = src`.
    Mov { dst: Reg, src: Op },
    /// `dst = special_register` (thread/block indices and extents).
    S2R { dst: Reg, sreg: SReg },
    /// `dst = a <op> b`.
    Bin { op: BinOp, dst: Reg, a: Reg, b: Op },
    /// `dst = a * b + c` (multiply-add, low 32 bits).
    IMad { dst: Reg, a: Reg, b: Op, c: Op },
    /// `dst = <op> a`.
    Un { op: UnOp, dst: Reg, a: Reg },
    /// `dst = (a <cmp> b)` under interpretation `ty`.
    SetP {
        dst: Pred,
        cmp: CmpOp,
        ty: CmpTy,
        a: Reg,
        b: Op,
    },
    /// `dst = if and { a && b } else { a || b }` on predicates.
    PBool {
        dst: Pred,
        a: Pred,
        b: Pred,
        and: bool,
    },
    /// `dst = !a`.
    PNot { dst: Pred, a: Pred },
    /// `dst = p ? a : b`.
    Sel { dst: Reg, p: Pred, a: Op, b: Op },
    /// `dst = mem[space][addr + offset]` (32-bit load).
    Ld {
        dst: Reg,
        space: Space,
        addr: Reg,
        offset: i32,
    },
    /// `mem[space][addr + offset] = src` (32-bit store).
    St {
        space: Space,
        addr: Reg,
        offset: i32,
        src: Op,
    },
    /// Load the `word`-th 32-bit word of the kernel/aggregated-group
    /// parameter buffer.
    LdParam { dst: Reg, word: u16 },
    /// Atomic read-modify-write; `dst` (if any) receives the old value.
    /// For [`AtomOp::Cas`], `extra` is the comparand and `src` the swap
    /// value.
    Atom {
        dst: Option<Reg>,
        op: AtomOp,
        space: Space,
        addr: Reg,
        offset: i32,
        src: Op,
        extra: Option<Reg>,
    },
    /// Memory fence (a fixed-latency pipeline bubble; the functional
    /// model is sequentially consistent already).
    MemFence,
    /// Branch to `target`. If `pred` is present the branch is divergent-
    /// capable: threads whose predicate (xor `negate`) is true jump,
    /// others fall through, and the warp reconverges at `reconv` (the
    /// immediate post-dominator, guaranteed by the builder).
    Bra {
        pred: Option<(Pred, bool)>,
        target: u32,
        reconv: u32,
    },
    /// Thread-block-wide barrier (`__syncthreads()`).
    Bar,
    /// Terminate this thread.
    Exit,
    /// No operation.
    Nop,
    /// `cudaGetParameterBuffer`: allocate a parameter buffer of `words`
    /// 32-bit words in global memory; `dst` receives its address.
    GetParamBuf { dst: Reg, words: u16 },
    /// `cudaLaunchDevice` (CDP, [`LaunchKind::Device`]) or
    /// `cudaLaunchAggGroup` (DTBL, [`LaunchKind::Agg`]): launch `ntb`
    /// thread blocks of `kernel` with parameter buffer `param`.
    Launch {
        kind: LaunchKind,
        kernel: KernelId,
        ntb: Op,
        param: Reg,
    },
}

/// One instruction of a kernel: the micro-op and its latency class.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct MicroOp {
    /// The operation.
    pub op: UOp,
    /// Dependent-issue latency class, implied by the operator.
    pub lat: LatClass,
}

impl MicroOp {
    /// Pairs `op` with the latency class of its operator.
    pub(crate) fn new(op: UOp) -> Self {
        let lat = match op {
            UOp::IMad { .. } => LatClass::IMul,
            UOp::Bin { op, .. } => match op {
                BinOp::IMul => LatClass::IMul,
                BinOp::IDivU | BinOp::IRemU => LatClass::IDiv,
                BinOp::FDiv => LatClass::FDiv,
                _ => LatClass::Alu,
            },
            UOp::Un { op, .. } => match op {
                UnOp::FSqrt => LatClass::FDiv,
                UnOp::I2F | UnOp::F2I => LatClass::Alu,
            },
            _ => LatClass::Alu,
        };
        MicroOp { op, lat }
    }
}

/// Evaluates a binary ALU operator: wrapping integer arithmetic,
/// hardware division-by-zero results, masked shift counts, bit-roundtripped
/// f32.
#[inline(always)]
pub fn bin_eval(op: BinOp, x: u32, y: u32) -> u32 {
    match op {
        BinOp::IAdd => x.wrapping_add(y),
        BinOp::ISub => x.wrapping_sub(y),
        BinOp::IMul => x.wrapping_mul(y),
        BinOp::IDivU => x.checked_div(y).unwrap_or(u32::MAX),
        BinOp::IRemU => {
            if y == 0 {
                x
            } else {
                x % y
            }
        }
        BinOp::IMinS => (x as i32).min(y as i32) as u32,
        BinOp::IMaxS => (x as i32).max(y as i32) as u32,
        BinOp::And => x & y,
        BinOp::Or => x | y,
        BinOp::Xor => x ^ y,
        BinOp::Shl => x << (y & 31),
        BinOp::ShrU => x >> (y & 31),
        BinOp::ShrS => ((x as i32) >> (y & 31)) as u32,
        BinOp::FAdd => (f32::from_bits(x) + f32::from_bits(y)).to_bits(),
        BinOp::FSub => (f32::from_bits(x) - f32::from_bits(y)).to_bits(),
        BinOp::FMul => (f32::from_bits(x) * f32::from_bits(y)).to_bits(),
        BinOp::FDiv => (f32::from_bits(x) / f32::from_bits(y)).to_bits(),
        BinOp::FMin => f32::from_bits(x).min(f32::from_bits(y)).to_bits(),
        BinOp::FMax => f32::from_bits(x).max(f32::from_bits(y)).to_bits(),
    }
}

/// Evaluates a unary ALU operator (`cvt.rzi.s32.f32` saturation for
/// `F2I`).
#[inline]
pub fn un_eval(op: UnOp, x: u32) -> u32 {
    match op {
        UnOp::FSqrt => f32::from_bits(x).sqrt().to_bits(),
        UnOp::I2F => ((x as i32) as f32).to_bits(),
        UnOp::F2I => {
            let f = f32::from_bits(x);
            let v = if f.is_nan() {
                0i32
            } else if f >= i32::MAX as f32 {
                i32::MAX
            } else if f <= i32::MIN as f32 {
                i32::MIN
            } else {
                f.trunc() as i32
            };
            v as u32
        }
    }
}

/// Evaluates one [`SetP`](UOp::SetP) comparison.
#[inline]
pub fn setp_eval(cmp: CmpOp, ty: CmpTy, x: u32, y: u32) -> bool {
    match ty {
        CmpTy::U32 => cmp_with(cmp, &x, &y),
        CmpTy::I32 => cmp_with(cmp, &(x as i32), &(y as i32)),
        CmpTy::F32 => cmp_f32(cmp, f32::from_bits(x), f32::from_bits(y)),
    }
}

/// Lane-major warp register file: all 32 lanes of register `r` live at
/// `regs[r * WARP_SIZE ..]`, predicates are warp-wide lane-masks, and a
/// per-register bitset tracks which registers currently hold the same
/// value in every *valid* lane (the uniformity bit feeding
/// [`exec_alu`]'s broadcast fast paths).
///
/// The backing storage is a `Vec` (not a boxed slice) on purpose: pooled
/// instances are re-`reset` for kernels with different register counts,
/// and a `Vec` retains its capacity across those resets where
/// `into_boxed_slice` would reallocate.
#[derive(Clone, Debug)]
pub struct WarpRegs {
    regs: Vec<u32>,
    preds: [u32; 64],
    uniform: [u64; 4],
    nregs: u16,
    valid: u32,
}

impl Default for WarpRegs {
    fn default() -> Self {
        WarpRegs {
            regs: Vec::new(),
            preds: [0; 64],
            uniform: [0; 4],
            nregs: 0,
            valid: 0,
        }
    }
}

impl WarpRegs {
    /// An empty register file; call [`reset`](Self::reset) before use.
    pub fn new() -> Self {
        WarpRegs::default()
    }

    /// Re-binds the file to a kernel: `nregs` zeroed registers for the
    /// lanes of `valid`. Every register starts lane-uniform (all lanes
    /// read 0). Retains heap capacity across calls.
    pub fn reset(&mut self, nregs: u16, valid: u32) {
        let n = usize::from(nregs.max(1)) * WARP_SIZE;
        self.regs.clear();
        self.regs.resize(n, 0);
        self.preds = [0; 64];
        self.uniform = [u64::MAX; 4];
        self.nregs = nregs.max(1);
        self.valid = if valid == 0 { 1 } else { valid };
    }

    /// The warp's valid-lane mask.
    #[inline]
    pub fn valid(&self) -> u32 {
        self.valid
    }

    /// Registers per thread this file is currently sized for.
    #[inline]
    pub fn nregs(&self) -> u16 {
        self.nregs
    }

    #[inline]
    fn base(&self, r: Reg) -> usize {
        usize::from(r.0) * WARP_SIZE
    }

    /// The 32-lane row of register `r`.
    #[inline]
    pub fn row(&self, r: Reg) -> &[u32] {
        let b = self.base(r);
        &self.regs[b..b + WARP_SIZE]
    }

    /// One lane of register `r`.
    #[inline]
    pub fn lane(&self, r: Reg, lane: usize) -> u32 {
        self.regs[self.base(r) + lane]
    }

    /// Writes one lane of `r`, conservatively clearing its uniform bit.
    #[inline]
    pub fn write_lane(&mut self, r: Reg, lane: usize, v: u32) {
        let b = self.base(r);
        self.regs[b + lane] = v;
        self.clear_uniform(r);
    }

    /// Resolves an operand for one lane.
    #[inline]
    pub fn src_lane(&self, src: Op, lane: usize) -> u32 {
        match src {
            Op::Reg(r) => self.lane(r, lane),
            Op::Imm(v) => v,
        }
    }

    #[inline]
    fn set_uniform(&mut self, r: Reg, uni: bool) {
        let (w, b) = (usize::from(r.0 >> 6), u64::from(r.0 & 63));
        if uni {
            self.uniform[w] |= 1 << b;
        } else {
            self.uniform[w] &= !(1 << b);
        }
    }

    #[inline]
    fn clear_uniform(&mut self, r: Reg) {
        let (w, b) = (usize::from(r.0 >> 6), u64::from(r.0 & 63));
        self.uniform[w] &= !(1 << b);
    }

    /// True when every valid lane of `r` currently holds the same value.
    /// Conservative: may be `false` for an actually-uniform register,
    /// never `true` for a divergent one.
    #[inline]
    pub fn is_uniform(&self, r: Reg) -> bool {
        let (w, b) = (usize::from(r.0 >> 6), u64::from(r.0 & 63));
        (self.uniform[w] >> b) & 1 == 1
    }

    /// The shared value of a register whose uniform bit is set.
    #[inline]
    pub fn uniform_value(&self, r: Reg) -> u32 {
        self.lane(r, self.valid.trailing_zeros() as usize)
    }

    /// Resolves an operand to a single value when it is lane-uniform
    /// (immediate, or register with its uniform bit set).
    #[inline]
    pub fn src_uniform(&self, src: Op) -> Option<u32> {
        match src {
            Op::Imm(v) => Some(v),
            Op::Reg(r) => self.is_uniform(r).then(|| self.uniform_value(r)),
        }
    }

    /// Broadcast-writes `v` to the lanes of `mask`. When the mask covers
    /// every valid lane the whole row is filled and the register becomes
    /// uniform; a partial write clears the bit.
    pub fn broadcast(&mut self, dst: Reg, v: u32, mask: u32) {
        let b = self.base(dst);
        if mask & self.valid == self.valid {
            self.regs[b..b + WARP_SIZE].fill(v);
            self.set_uniform(dst, true);
        } else {
            let mut m = mask;
            while m != 0 {
                let lane = m.trailing_zeros() as usize;
                m &= m - 1;
                self.regs[b + lane] = v;
            }
            self.clear_uniform(dst);
        }
    }

    /// Writes `vals[lane]` for each lane of `mask`, detecting uniformity
    /// at write time: a full-mask write whose valid lanes agree sets the
    /// uniform bit, anything else clears it.
    pub fn store_masked(&mut self, dst: Reg, vals: &[u32; WARP_SIZE], mask: u32) {
        let b = self.base(dst);
        let mut m = mask;
        while m != 0 {
            let lane = m.trailing_zeros() as usize;
            m &= m - 1;
            self.regs[b + lane] = vals[lane];
        }
        if mask & self.valid == self.valid {
            let first = vals[self.valid.trailing_zeros() as usize];
            let mut uni = true;
            let mut v = self.valid;
            while v != 0 {
                let lane = v.trailing_zeros() as usize;
                v &= v - 1;
                uni &= vals[lane] == first;
            }
            self.set_uniform(dst, uni);
        } else {
            self.clear_uniform(dst);
        }
    }

    /// The lane-mask of predicate `p` (bit `l` = lane `l`'s value).
    #[inline]
    pub fn pred_mask(&self, p: Pred) -> u32 {
        self.preds[usize::from(p.0)]
    }

    /// Writes the lanes of `mask` in predicate `p` from `bits`.
    #[inline]
    pub fn set_pred_mask(&mut self, p: Pred, bits: u32, mask: u32) {
        let e = &mut self.preds[usize::from(p.0)];
        *e = (*e & !mask) | (bits & mask);
    }

    /// Effective-address sweep for a memory micro-op: fills `out[lane] =
    /// addr + offset` for each lane of `mask`, computing once when the
    /// address register is uniform.
    pub fn addr_sweep(&self, addr: Reg, offset: i32, mask: u32, out: &mut [u32; WARP_SIZE]) {
        if self.is_uniform(addr) {
            let a = self.uniform_value(addr).wrapping_add_signed(offset);
            fill_masked(out, a, mask);
        } else {
            let row = self.row(addr);
            let mut m = mask;
            while m != 0 {
                let lane = m.trailing_zeros() as usize;
                m &= m - 1;
                out[lane] = row[lane].wrapping_add_signed(offset);
            }
        }
    }

    /// Operand-value sweep: fills `out[lane]` with the resolved operand
    /// for each lane of `mask`, computing once for uniform operands.
    pub fn src_sweep(&self, src: Op, mask: u32, out: &mut [u32; WARP_SIZE]) {
        match self.src_uniform(src) {
            Some(v) => fill_masked(out, v, mask),
            None => {
                let Op::Reg(r) = src else { unreachable!() };
                let row = self.row(r);
                let mut m = mask;
                while m != 0 {
                    let lane = m.trailing_zeros() as usize;
                    m &= m - 1;
                    out[lane] = row[lane];
                }
            }
        }
    }
}

#[inline]
fn fill_masked(out: &mut [u32; WARP_SIZE], v: u32, mask: u32) {
    if mask == u32::MAX {
        out.fill(v);
    } else {
        let mut m = mask;
        while m != 0 {
            let lane = m.trailing_zeros() as usize;
            m &= m - 1;
            out[lane] = v;
        }
    }
}

/// Per-warp special-register table, precomputed at warp placement: 14
/// lane-major rows (one per [`SReg`]) plus per-row uniformity flags and
/// the parameter-buffer base. Replaces the per-access `ThreadEnv::sreg`
/// match *and* the per-lane `Dim3::delinearize` divisions the simulator
/// used to pay on every issue.
#[derive(Clone, Debug)]
pub struct WarpEnv {
    table: [u32; NUM_SREGS * WARP_SIZE],
    uniform_rows: u16,
    param_base: u32,
}

impl Default for WarpEnv {
    fn default() -> Self {
        WarpEnv {
            table: [0; NUM_SREGS * WARP_SIZE],
            uniform_rows: 0,
            param_base: 0,
        }
    }
}

#[inline]
fn sreg_index(s: SReg) -> usize {
    match s {
        SReg::TidX => 0,
        SReg::TidY => 1,
        SReg::TidZ => 2,
        SReg::CtaIdX => 3,
        SReg::CtaIdY => 4,
        SReg::CtaIdZ => 5,
        SReg::NTidX => 6,
        SReg::NTidY => 7,
        SReg::NTidZ => 8,
        SReg::NCtaIdX => 9,
        SReg::NCtaIdY => 10,
        SReg::NCtaIdZ => 11,
        SReg::LaneId => 12,
        SReg::SmId => 13,
    }
}

impl WarpEnv {
    /// An unbound table; call [`build`](Self::build) before use.
    pub fn new() -> Self {
        WarpEnv::default()
    }

    /// Populates the table for warp `warp_in_tb` of a thread block:
    /// thread indices are delinearized once per lane here instead of
    /// once per lane per issue. `valid` bounds the uniformity check
    /// (invalid lanes hold whatever the delinearization produced; they
    /// are never read under an execution mask).
    #[allow(clippy::too_many_arguments)] // placement-time call, one site per engine
    pub fn build(
        &mut self,
        block_dim: Dim3,
        nctaid: Dim3,
        blkid: u32,
        warp_in_tb: u32,
        valid: u32,
        smid: u32,
        param_base: u32,
    ) {
        self.param_base = param_base;
        for lane in 0..WARP_SIZE {
            let linear = u64::from(warp_in_tb) * WARP_SIZE as u64 + lane as u64;
            let (tx, ty, tz) = block_dim.delinearize(linear);
            self.table[sreg_index(SReg::TidX) * WARP_SIZE + lane] = tx;
            self.table[sreg_index(SReg::TidY) * WARP_SIZE + lane] = ty;
            self.table[sreg_index(SReg::TidZ) * WARP_SIZE + lane] = tz;
            self.table[sreg_index(SReg::CtaIdX) * WARP_SIZE + lane] = blkid;
            self.table[sreg_index(SReg::CtaIdY) * WARP_SIZE + lane] = 0;
            self.table[sreg_index(SReg::CtaIdZ) * WARP_SIZE + lane] = 0;
            self.table[sreg_index(SReg::NTidX) * WARP_SIZE + lane] = block_dim.x;
            self.table[sreg_index(SReg::NTidY) * WARP_SIZE + lane] = block_dim.y;
            self.table[sreg_index(SReg::NTidZ) * WARP_SIZE + lane] = block_dim.z;
            self.table[sreg_index(SReg::NCtaIdX) * WARP_SIZE + lane] = nctaid.x;
            self.table[sreg_index(SReg::NCtaIdY) * WARP_SIZE + lane] = nctaid.y;
            self.table[sreg_index(SReg::NCtaIdZ) * WARP_SIZE + lane] = nctaid.z;
            self.table[sreg_index(SReg::LaneId) * WARP_SIZE + lane] = lane as u32;
            self.table[sreg_index(SReg::SmId) * WARP_SIZE + lane] = smid;
        }
        let valid = if valid == 0 { 1 } else { valid };
        let first = valid.trailing_zeros() as usize;
        let mut flags = 0u16;
        for s in 0..NUM_SREGS {
            let row = &self.table[s * WARP_SIZE..(s + 1) * WARP_SIZE];
            let mut uni = true;
            let mut v = valid;
            while v != 0 {
                let lane = v.trailing_zeros() as usize;
                v &= v - 1;
                uni &= row[lane] == row[first];
            }
            if uni {
                flags |= 1 << s;
            }
        }
        self.uniform_rows = flags;
    }

    /// The 32-lane row behind special register `s`.
    #[inline]
    pub fn row(&self, s: SReg) -> &[u32] {
        let b = sreg_index(s) * WARP_SIZE;
        &self.table[b..b + WARP_SIZE]
    }

    /// One lane's value of special register `s` — a direct table index,
    /// no per-access match.
    #[inline]
    pub fn lane(&self, s: SReg, lane: usize) -> u32 {
        self.table[sreg_index(s) * WARP_SIZE + lane]
    }

    /// True when `s` reads the same value in every valid lane.
    #[inline]
    pub fn row_uniform(&self, s: SReg) -> bool {
        (self.uniform_rows >> sreg_index(s)) & 1 == 1
    }

    /// Parameter-buffer base address for this warp.
    #[inline]
    pub fn param_base(&self) -> u32 {
        self.param_base
    }

    /// The per-thread view of one lane: what a
    /// [`ThreadCtx`](crate::ThreadCtx) executing that lane is given.
    pub fn thread_env(&self, lane: usize) -> ThreadEnv {
        ThreadEnv {
            tid: (
                self.lane(SReg::TidX, lane),
                self.lane(SReg::TidY, lane),
                self.lane(SReg::TidZ, lane),
            ),
            ctaid: (
                self.lane(SReg::CtaIdX, lane),
                self.lane(SReg::CtaIdY, lane),
                self.lane(SReg::CtaIdZ, lane),
            ),
            ntid: Dim3 {
                x: self.lane(SReg::NTidX, lane),
                y: self.lane(SReg::NTidY, lane),
                z: self.lane(SReg::NTidZ, lane),
            },
            nctaid: Dim3 {
                x: self.lane(SReg::NCtaIdX, lane),
                y: self.lane(SReg::NCtaIdY, lane),
                z: self.lane(SReg::NCtaIdZ, lane),
            },
            lane: self.lane(SReg::LaneId, lane),
            smid: self.lane(SReg::SmId, lane),
        }
    }
}

/// Executes one pure-ALU micro-op for all lanes of `mask` in a single
/// warp-level pass: one micro-op match per issue (not per lane), a
/// compute-once-and-broadcast fast path when every operand is
/// lane-uniform, and tight contiguous sweeps otherwise. Predicate
/// booleans collapse to warp-wide mask operations.
///
/// Memory, launch and control micro-ops are the caller's responsibility
/// (they produce external effects); passing one here is a bug caught in
/// debug builds.
pub fn exec_alu(uop: &UOp, regs: &mut WarpRegs, env: &WarpEnv, mask: u32) {
    match *uop {
        UOp::Mov { dst, src } => mov_src(regs, dst, src, mask),
        UOp::S2R { dst, sreg } => {
            if env.row_uniform(sreg) {
                let v = env.lane(sreg, regs.valid().trailing_zeros() as usize);
                regs.broadcast(dst, v, mask);
            } else {
                let mut out = [0u32; WARP_SIZE];
                let row = env.row(sreg);
                let mut m = mask;
                while m != 0 {
                    let lane = m.trailing_zeros() as usize;
                    m &= m - 1;
                    out[lane] = row[lane];
                }
                regs.store_masked(dst, &out, mask);
            }
        }
        UOp::Bin { op, dst, a, b } => {
            // One sweep per operator: with a constant operator `bin_eval`
            // folds to the bare operation, so the inner loop carries no
            // dispatch.
            macro_rules! sweep {
                ($($v:ident),+) => {
                    match op {
                        $(BinOp::$v => {
                            bin_loop(regs, dst, a, b, mask, |x, y| bin_eval(BinOp::$v, x, y))
                        })+
                    }
                };
            }
            sweep!(
                IAdd, ISub, IMul, IDivU, IRemU, IMinS, IMaxS, And, Or, Xor, Shl, ShrU, ShrS, FAdd,
                FSub, FMul, FDiv, FMin, FMax
            )
        }
        UOp::IMad { dst, a, b, c } => {
            if let (true, Some(y), Some(z)) =
                (regs.is_uniform(a), regs.src_uniform(b), regs.src_uniform(c))
            {
                let v = regs.uniform_value(a).wrapping_mul(y).wrapping_add(z);
                regs.broadcast(dst, v, mask);
            } else {
                let mut out = [0u32; WARP_SIZE];
                let mut m = mask;
                while m != 0 {
                    let lane = m.trailing_zeros() as usize;
                    m &= m - 1;
                    out[lane] = regs
                        .lane(a, lane)
                        .wrapping_mul(regs.src_lane(b, lane))
                        .wrapping_add(regs.src_lane(c, lane));
                }
                regs.store_masked(dst, &out, mask);
            }
        }
        UOp::Un { op, dst, a } => {
            if regs.is_uniform(a) {
                let v = un_eval(op, regs.uniform_value(a));
                regs.broadcast(dst, v, mask);
            } else {
                let mut out = [0u32; WARP_SIZE];
                let mut m = mask;
                while m != 0 {
                    let lane = m.trailing_zeros() as usize;
                    m &= m - 1;
                    out[lane] = un_eval(op, regs.lane(a, lane));
                }
                regs.store_masked(dst, &out, mask);
            }
        }
        UOp::SetP { dst, cmp, ty, a, b } => {
            let bits = if let (true, Some(y)) = (regs.is_uniform(a), regs.src_uniform(b)) {
                if setp_eval(cmp, ty, regs.uniform_value(a), y) {
                    u32::MAX
                } else {
                    0
                }
            } else {
                let mut bits = 0u32;
                let mut m = mask;
                while m != 0 {
                    let lane = m.trailing_zeros() as usize;
                    m &= m - 1;
                    let r = setp_eval(cmp, ty, regs.lane(a, lane), regs.src_lane(b, lane));
                    bits |= u32::from(r) << lane;
                }
                bits
            };
            regs.set_pred_mask(dst, bits, mask);
        }
        UOp::PBool { dst, a, b, and } => {
            let (am, bm) = (regs.pred_mask(a), regs.pred_mask(b));
            let v = if and { am & bm } else { am | bm };
            regs.set_pred_mask(dst, v, mask);
        }
        UOp::PNot { dst, a } => {
            let v = !regs.pred_mask(a);
            regs.set_pred_mask(dst, v, mask);
        }
        UOp::Sel { dst, p, a, b } => {
            let pm = regs.pred_mask(p) & mask;
            if pm == mask {
                mov_src(regs, dst, a, mask);
            } else if pm == 0 {
                mov_src(regs, dst, b, mask);
            } else {
                let mut out = [0u32; WARP_SIZE];
                let mut m = mask;
                while m != 0 {
                    let lane = m.trailing_zeros() as usize;
                    m &= m - 1;
                    out[lane] = if pm >> lane & 1 == 1 {
                        regs.src_lane(a, lane)
                    } else {
                        regs.src_lane(b, lane)
                    };
                }
                regs.store_masked(dst, &out, mask);
            }
        }
        _ => debug_assert!(false, "exec_alu called on a non-ALU micro-op: {uop:?}"),
    }
}

/// Moves an operand into `dst` under `mask`, broadcasting uniform
/// sources and sweeping divergent ones.
fn mov_src(regs: &mut WarpRegs, dst: Reg, src: Op, mask: u32) {
    match regs.src_uniform(src) {
        Some(v) => regs.broadcast(dst, v, mask),
        None => {
            let Op::Reg(r) = src else { unreachable!() };
            let mut out = [0u32; WARP_SIZE];
            let row = regs.row(r);
            let mut m = mask;
            while m != 0 {
                let lane = m.trailing_zeros() as usize;
                m &= m - 1;
                out[lane] = row[lane];
            }
            regs.store_masked(dst, &out, mask);
        }
    }
}

/// The shared binary-op sweep: broadcast when both operands are
/// uniform, otherwise one tight pass over the lane-major rows,
/// monomorphized per operator so the inner loop carries no dispatch.
#[inline]
fn bin_loop(regs: &mut WarpRegs, dst: Reg, a: Reg, b: Op, mask: u32, f: impl Fn(u32, u32) -> u32) {
    let b_uni = regs.src_uniform(b);
    if regs.is_uniform(a) {
        if let Some(y) = b_uni {
            let v = f(regs.uniform_value(a), y);
            regs.broadcast(dst, v, mask);
            return;
        }
    }
    let mut out = [0u32; WARP_SIZE];
    match b_uni {
        Some(y) => {
            let row = regs.row(a);
            let mut m = mask;
            while m != 0 {
                let lane = m.trailing_zeros() as usize;
                m &= m - 1;
                out[lane] = f(row[lane], y);
            }
        }
        None => {
            let Op::Reg(rb) = b else { unreachable!() };
            let mut m = mask;
            while m != 0 {
                let lane = m.trailing_zeros() as usize;
                m &= m - 1;
                out[lane] = f(regs.lane(a, lane), regs.lane(rb, lane));
            }
        }
    }
    regs.store_masked(dst, &out, mask);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exec::ThreadCtx;
    use crate::WARP_SIZE;
    use sim_rand::{Rng, SeedableRng, StdRng};

    fn env_for(valid: u32) -> WarpEnv {
        let mut e = WarpEnv::new();
        e.build(Dim3::new(8, 4, 2), Dim3::x(10), 2, 1, valid, 1, 0x1000);
        e
    }

    #[test]
    fn env_table_matches_thread_env() {
        let block = Dim3::new(8, 4, 2);
        let env = env_for(u32::MAX);
        for lane in 0..WARP_SIZE {
            let linear = WARP_SIZE as u64 + lane as u64; // warp_in_tb = 1
            let (tx, ty, tz) = block.delinearize(linear);
            assert_eq!(env.lane(SReg::TidX, lane), tx);
            assert_eq!(env.lane(SReg::TidY, lane), ty);
            assert_eq!(env.lane(SReg::TidZ, lane), tz);
            assert_eq!(env.lane(SReg::CtaIdX, lane), 2);
            assert_eq!(env.lane(SReg::NCtaIdX, lane), 10);
            assert_eq!(env.lane(SReg::LaneId, lane), lane as u32);
            assert_eq!(env.lane(SReg::SmId, lane), 1);
            let te = env.thread_env(lane);
            assert_eq!(te.tid, (tx, ty, tz));
        }
        // ctaid/ntid/nctaid/smid rows are uniform; tid.x and laneid are not
        // for a full warp of an 8-wide block.
        assert!(env.row_uniform(SReg::CtaIdX));
        assert!(env.row_uniform(SReg::NTidX));
        assert!(env.row_uniform(SReg::SmId));
        assert!(!env.row_uniform(SReg::TidX));
        assert!(!env.row_uniform(SReg::LaneId));
        // tid.y is constant within warp 1 of an (8,4,2) block? warp 1 covers
        // linear 32..64, i.e. y in 0..4 — not uniform.
        assert!(!env.row_uniform(SReg::TidY));
        // A single-lane warp makes every row uniform.
        let env1 = env_for(1);
        assert!(env1.row_uniform(SReg::TidX));
        assert!(env1.row_uniform(SReg::LaneId));
    }

    #[test]
    fn uniformity_lattice_on_writes() {
        let mut r = WarpRegs::new();
        r.reset(8, u32::MAX);
        assert!(r.is_uniform(Reg(0)), "zeroed registers start uniform");
        // Full-mask broadcast keeps uniformity.
        r.broadcast(Reg(0), 7, u32::MAX);
        assert!(r.is_uniform(Reg(0)));
        assert_eq!(r.uniform_value(Reg(0)), 7);
        // Partial-mask broadcast clears it.
        r.broadcast(Reg(1), 7, 0x0000_ffff);
        assert!(!r.is_uniform(Reg(1)));
        // Per-lane write clears it.
        r.write_lane(Reg(0), 3, 9);
        assert!(!r.is_uniform(Reg(0)));
        // A full-mask store of equal values re-establishes it.
        r.store_masked(Reg(0), &[5; WARP_SIZE], u32::MAX);
        assert!(r.is_uniform(Reg(0)));
        // A full-mask store of differing values does not.
        let mut vals = [5; WARP_SIZE];
        vals[31] = 6;
        r.store_masked(Reg(0), &vals, u32::MAX);
        assert!(!r.is_uniform(Reg(0)));
        // Partial warps: uniformity is judged over valid lanes only.
        let mut pw = WarpRegs::new();
        pw.reset(4, 0x7); // 3 valid lanes
        let mut vals = [0u32; WARP_SIZE];
        vals[0] = 4;
        vals[1] = 4;
        vals[2] = 4;
        vals[3] = 99; // invalid lane, must not affect the verdict
        pw.store_masked(Reg(2), &vals, 0x7);
        assert!(pw.is_uniform(Reg(2)));
        assert_eq!(pw.uniform_value(Reg(2)), 4);
        // Masked store narrower than valid clears.
        pw.store_masked(Reg(2), &vals, 0x3);
        assert!(!pw.is_uniform(Reg(2)));
    }

    #[test]
    fn capacity_is_retained_across_resets() {
        let mut r = WarpRegs::new();
        r.reset(200, u32::MAX);
        let cap = r.regs.capacity();
        let ptr = r.regs.as_ptr();
        for nregs in [1u16, 64, 200, 13] {
            r.reset(nregs, 0xff);
            assert_eq!(r.regs.capacity(), cap, "capacity kept at nregs={nregs}");
            assert_eq!(r.regs.as_ptr(), ptr, "no reallocation at nregs={nregs}");
        }
    }

    /// The vectorized executor must agree bit-for-bit with the per-thread
    /// executor on every ALU micro-op: first each shape once across mixed,
    /// uniform and partially-masked operand populations, then long seeded
    /// random sequences over full and partial warps.
    #[test]
    fn exec_alu_matches_thread_ctx_oracle() {
        let env = env_for(u32::MAX);
        let shapes = alu_shapes();
        // Three operand populations x three execution masks.
        for pop in 0..3u32 {
            for mask in [u32::MAX, 0x0f0f_3357, 0x8000_0001] {
                let mut regs = WarpRegs::new();
                regs.reset(16, u32::MAX);
                let mut ctxs: Vec<ThreadCtx> = (0..WARP_SIZE).map(|_| ThreadCtx::new(16)).collect();
                seed(&mut regs, &mut ctxs, pop);
                for (i, uop) in shapes.iter().enumerate() {
                    step_both(uop, &mut regs, &mut ctxs, &env, mask);
                    compare(
                        &regs,
                        &ctxs,
                        u32::MAX,
                        &format!("pop {pop} mask {mask:#x} shape {i}"),
                    );
                }
            }
        }

        // Random sequences. Every op draws a shape from `alu_shapes`,
        // fresh operands and a fresh execution mask, so uniform bits are
        // set, read and invalidated in orders no hand-written list covers:
        // a uniform bit that survives a divergent write, or a uniform fast
        // path that writes lanes outside the mask, diverges from the 32
        // `ThreadCtx`s within a few ops. Warps are full or partial (the
        // low-lanes-valid shape a block's last warp has).
        let mut rng = StdRng::seed_from_u64(0xA1_C0DE);
        for case in 0..12u32 {
            let valid = match case % 4 {
                0 => u32::MAX,
                1 => 1,
                _ => (1u32 << rng.gen_range(2..32u32)) - 1,
            };
            let env = env_for(valid);
            let mut regs = WarpRegs::new();
            regs.reset(16, valid);
            let mut ctxs: Vec<ThreadCtx> = (0..WARP_SIZE).map(|_| ThreadCtx::new(16)).collect();
            seed(&mut regs, &mut ctxs, case % 3);
            let mut i = 0;
            while i < 2_000 {
                let mask = match rng.gen_range(0..3u32) {
                    0 => valid,
                    1 => rng.gen::<u32>() & valid,
                    _ => rng.gen::<u32>() & rng.gen::<u32>() & valid,
                };
                let mask = if mask == 0 { valid } else { mask };
                let what = format!("case {case} valid {valid:#x} op {i} mask {mask:#x}");
                if rng.gen_bool(0.15) {
                    writeback(&mut rng, &mut regs, &mut ctxs, mask);
                } else {
                    let mut uop = shapes[rng.gen_range(0..shapes.len())];
                    randomize_operands(&mut uop, &mut rng);
                    if nan_pair(&uop, &ctxs, mask) {
                        continue;
                    }
                    step_both(&uop, &mut regs, &mut ctxs, &env, mask);
                }
                compare(&regs, &ctxs, valid, &what);
                i += 1;
            }
        }
    }

    /// Executes `uop` for the lanes of `mask` on both executors.
    fn step_both(uop: &UOp, regs: &mut WarpRegs, ctxs: &mut [ThreadCtx], env: &WarpEnv, mask: u32) {
        exec_alu(uop, regs, env, mask);
        for (lane, ctx) in ctxs.iter_mut().enumerate() {
            if mask >> lane & 1 == 1 {
                ctx.step(uop, &env.thread_env(lane));
            }
        }
    }

    /// A float op both of whose operands are NaN in some active lane. Which
    /// payload survives is the host FPU's operand order — the compiler's
    /// choice per call site — so neither executor defines it.
    fn nan_pair(uop: &UOp, ctxs: &[ThreadCtx], mask: u32) -> bool {
        let UOp::Bin {
            op: BinOp::FAdd | BinOp::FSub | BinOp::FMul | BinOp::FDiv | BinOp::FMin | BinOp::FMax,
            a,
            b,
            ..
        } = *uop
        else {
            return false;
        };
        ctxs.iter().enumerate().any(|(lane, ctx)| {
            mask >> lane & 1 == 1
                && f32::from_bits(ctx.reg(a)).is_nan()
                && f32::from_bits(ctx.op(b)).is_nan()
        })
    }

    /// One of the register writes the simulator's memory and launch arms
    /// make between ALU ops — a single-lane write (atomic / parameter
    /// buffer return), a per-lane store (load) or a broadcast (parameter
    /// load) — applied to both register files.
    fn writeback(rng: &mut StdRng, regs: &mut WarpRegs, ctxs: &mut [ThreadCtx], mask: u32) {
        let dst = Reg(rng.gen_range(0..16u16));
        let v = operand_value(rng);
        match rng.gen_range(0..3u32) {
            0 => {
                let lane = mask.trailing_zeros() as usize;
                regs.write_lane(dst, lane, v);
                ctxs[lane].write_reg(dst, v);
            }
            1 => {
                let same = rng.gen_bool(0.5);
                let mut vals = [0u32; WARP_SIZE];
                for (lane, ctx) in ctxs.iter_mut().enumerate() {
                    vals[lane] = if same { v } else { rng.gen() };
                    if mask >> lane & 1 == 1 {
                        ctx.write_reg(dst, vals[lane]);
                    }
                }
                regs.store_masked(dst, &vals, mask);
            }
            _ => {
                regs.broadcast(dst, v, mask);
                for (lane, ctx) in ctxs.iter_mut().enumerate() {
                    if mask >> lane & 1 == 1 {
                        ctx.write_reg(dst, v);
                    }
                }
            }
        }
    }

    /// Edge values (zero divisors, shift counts at and past 31, sign and
    /// float specials) as often as arbitrary ones.
    fn operand_value(rng: &mut StdRng) -> u32 {
        const EDGES: [u32; 10] = [
            0,
            1,
            31,
            32,
            0x7fff_ffff,
            0x8000_0000,
            u32::MAX,
            0x3f80_0000, // 1.0
            0x7f80_0000, // +inf
            0x7fc0_0000, // NaN
        ];
        if rng.gen_bool(0.5) {
            EDGES[rng.gen_range(0..EDGES.len())]
        } else {
            rng.gen()
        }
    }

    /// Redraws every register, immediate, predicate and special-register
    /// operand of `uop`, keeping its shape (operator, compare type).
    fn randomize_operands(uop: &mut UOp, rng: &mut StdRng) {
        fn reg(rng: &mut StdRng) -> Reg {
            Reg(rng.gen_range(0..16u16))
        }
        fn pred(rng: &mut StdRng) -> Pred {
            Pred(rng.gen_range(0..8u8))
        }
        fn op(rng: &mut StdRng) -> Op {
            if rng.gen_bool(0.5) {
                Op::Reg(reg(rng))
            } else {
                Op::Imm(operand_value(rng))
            }
        }
        match uop {
            UOp::Bin { dst, a, b, .. } => (*dst, *a, *b) = (reg(rng), reg(rng), op(rng)),
            UOp::IMad { dst, a, b, c } => {
                (*dst, *a, *b, *c) = (reg(rng), reg(rng), op(rng), op(rng));
            }
            UOp::Un { dst, a, .. } => (*dst, *a) = (reg(rng), reg(rng)),
            UOp::SetP { dst, a, b, .. } => (*dst, *a, *b) = (pred(rng), reg(rng), op(rng)),
            UOp::PBool { dst, a, b, .. } => (*dst, *a, *b) = (pred(rng), pred(rng), pred(rng)),
            UOp::PNot { dst, a } => (*dst, *a) = (pred(rng), pred(rng)),
            UOp::Sel { dst, p, a, b } => {
                (*dst, *p, *a, *b) = (reg(rng), pred(rng), op(rng), op(rng));
            }
            UOp::Mov { dst, src } => (*dst, *src) = (reg(rng), op(rng)),
            UOp::S2R { dst, sreg } => {
                (*dst, *sreg) = (reg(rng), SREGS[rng.gen_range(0..NUM_SREGS)]);
            }
            other => unreachable!("not an ALU shape: {other:?}"),
        }
    }

    /// Seeds both register files identically: pop 0 = fully mixed values,
    /// pop 1 = all-uniform values, pop 2 = uniform low registers with
    /// mixed high ones.
    fn seed(regs: &mut WarpRegs, ctxs: &mut [ThreadCtx], pop: u32) {
        for r in 0..8u16 {
            for (lane, ctx) in ctxs.iter_mut().enumerate() {
                let mixed = (lane as u32)
                    .wrapping_mul(2654435761)
                    .wrapping_add(u32::from(r) * 97)
                    ^ 0x5DEECE;
                let v = match pop {
                    0 => mixed,
                    1 => u32::from(r) * 1103 + 7,
                    _ => {
                        if r < 4 {
                            u32::from(r) + 100
                        } else {
                            mixed
                        }
                    }
                };
                regs.write_lane(Reg(r), lane, v);
                ctx.write_reg(Reg(r), v);
            }
        }
        // Re-establish uniform bits the seeding writes cleared, via a
        // detecting store (uniformity must be *detected*, not assumed).
        for r in 0..8u16 {
            let mut vals = [0u32; WARP_SIZE];
            for (lane, v) in vals.iter_mut().enumerate() {
                *v = regs.lane(Reg(r), lane);
            }
            regs.store_masked(Reg(r), &vals, u32::MAX);
        }
        // Mixed predicate seeds.
        for p in 0..4u8 {
            for (lane, ctx) in ctxs.iter_mut().enumerate() {
                let v = (lane as u32 + u32::from(p)).is_multiple_of(3);
                regs.set_pred_mask(Pred(p), u32::from(v) << lane, 1 << lane);
                ctx.write_pred(Pred(p), v);
            }
        }
    }

    /// Every register and predicate of every lane in `lanes` — not only
    /// the lanes the last op executed, so a write outside its mask shows.
    fn compare(regs: &WarpRegs, ctxs: &[ThreadCtx], lanes: u32, what: &str) {
        for (lane, ctx) in ctxs.iter().enumerate() {
            if lanes >> lane & 1 == 0 {
                continue;
            }
            for r in 0..16u16 {
                assert_eq!(
                    regs.lane(Reg(r), lane),
                    ctx.reg(Reg(r)),
                    "{what}: lane {lane} r{r}"
                );
            }
            for p in 0..8u8 {
                assert_eq!(
                    regs.pred_mask(Pred(p)) >> lane & 1 == 1,
                    ctx.pred(Pred(p)),
                    "{what}: lane {lane} p{p}"
                );
            }
        }
    }

    const SREGS: [SReg; NUM_SREGS] = [
        SReg::TidX,
        SReg::TidY,
        SReg::TidZ,
        SReg::CtaIdX,
        SReg::CtaIdY,
        SReg::CtaIdZ,
        SReg::NTidX,
        SReg::NTidY,
        SReg::NTidZ,
        SReg::NCtaIdX,
        SReg::NCtaIdY,
        SReg::NCtaIdZ,
        SReg::LaneId,
        SReg::SmId,
    ];

    /// Every `BinOp`, in declaration order. The successor match is
    /// exhaustive, so an operator added to the enum does not compile
    /// until it is chained in here (and so gets oracle shapes), and one
    /// chained out of declaration order fails the discriminant check.
    fn all_bin_ops() -> Vec<BinOp> {
        use BinOp::*;
        let next = |op: BinOp| match op {
            IAdd => Some(ISub),
            ISub => Some(IMul),
            IMul => Some(IDivU),
            IDivU => Some(IRemU),
            IRemU => Some(IMinS),
            IMinS => Some(IMaxS),
            IMaxS => Some(And),
            And => Some(Or),
            Or => Some(Xor),
            Xor => Some(Shl),
            Shl => Some(ShrU),
            ShrU => Some(ShrS),
            ShrS => Some(FAdd),
            FAdd => Some(FSub),
            FSub => Some(FMul),
            FMul => Some(FDiv),
            FDiv => Some(FMin),
            FMin => Some(FMax),
            FMax => None,
        };
        let mut ops = vec![IAdd];
        while let Some(op) = next(ops[ops.len() - 1]) {
            ops.push(op);
        }
        for (i, op) in ops.iter().enumerate() {
            assert_eq!(*op as usize, i, "{op:?} chained out of declaration order");
        }
        ops
    }

    /// Every `UnOp`, built the same way as [`all_bin_ops`].
    fn all_un_ops() -> Vec<UnOp> {
        use UnOp::*;
        let next = |op: UnOp| match op {
            FSqrt => Some(I2F),
            I2F => Some(F2I),
            F2I => None,
        };
        let mut ops = vec![FSqrt];
        while let Some(op) = next(ops[ops.len() - 1]) {
            ops.push(op);
        }
        for (i, op) in ops.iter().enumerate() {
            assert_eq!(*op as usize, i, "{op:?} chained out of declaration order");
        }
        ops
    }

    /// Every ALU shape: each binary operator with a register and with an
    /// immediate second operand, each unary operator, IMad, SetP in all
    /// types, predicate booleans, selects, movs and S2R.
    fn alu_shapes() -> Vec<UOp> {
        let mut v = Vec::new();
        for (i, op) in all_bin_ops().into_iter().enumerate() {
            let dst = Reg(8 + (i % 8) as u16);
            v.push(UOp::Bin {
                op,
                dst,
                a: Reg((i % 6) as u16),
                b: Op::Reg(Reg(((i + 1) % 8) as u16)),
            });
            v.push(UOp::Bin {
                op,
                dst,
                a: Reg(((i + 2) % 8) as u16),
                b: Op::Imm(3 + i as u32),
            });
        }
        for (i, op) in all_un_ops().into_iter().enumerate() {
            v.push(UOp::Un {
                op,
                dst: Reg(11 + i as u16),
                a: Reg(5 + i as u16),
            });
        }
        v.push(UOp::IMad {
            dst: Reg(9),
            a: Reg(1),
            b: Op::Reg(Reg(2)),
            c: Op::Imm(11),
        });
        v.push(UOp::IMad {
            dst: Reg(10),
            a: Reg(3),
            b: Op::Imm(5),
            c: Op::Reg(Reg(4)),
        });
        for ty in [CmpTy::U32, CmpTy::I32, CmpTy::F32] {
            for cmp in [
                CmpOp::Eq,
                CmpOp::Ne,
                CmpOp::Lt,
                CmpOp::Le,
                CmpOp::Gt,
                CmpOp::Ge,
            ] {
                v.push(UOp::SetP {
                    dst: Pred(4),
                    cmp,
                    ty,
                    a: Reg(0),
                    b: Op::Reg(Reg(1)),
                });
                v.push(UOp::SetP {
                    dst: Pred(5),
                    cmp,
                    ty,
                    a: Reg(2),
                    b: Op::Imm(0x4000_0000),
                });
            }
        }
        v.push(UOp::PBool {
            dst: Pred(6),
            a: Pred(0),
            b: Pred(1),
            and: true,
        });
        v.push(UOp::PBool {
            dst: Pred(7),
            a: Pred(2),
            b: Pred(3),
            and: false,
        });
        v.push(UOp::PNot {
            dst: Pred(2),
            a: Pred(6),
        });
        v.push(UOp::Sel {
            dst: Reg(14),
            p: Pred(0),
            a: Op::Reg(Reg(1)),
            b: Op::Imm(77),
        });
        v.push(UOp::Sel {
            dst: Reg(15),
            p: Pred(7),
            a: Op::Imm(1),
            b: Op::Reg(Reg(3)),
        });
        v.push(UOp::Mov {
            dst: Reg(8),
            src: Op::Imm(0xDEAD),
        });
        v.push(UOp::Mov {
            dst: Reg(9),
            src: Op::Reg(Reg(0)),
        });
        for sreg in SREGS {
            v.push(UOp::S2R { dst: Reg(10), sreg });
        }
        v
    }
}
