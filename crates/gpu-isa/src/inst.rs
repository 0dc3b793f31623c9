//! Operand and operator types shared by the micro-ops of the instruction
//! set ([`UOp`](crate::UOp)).

use crate::reg::Reg;
use std::fmt;

macro_rules! fmt_variants {
    ($($v:ident => $s:expr),+ $(,)?) => {
        fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
            let s = match self { $(Self::$v => $s),+ };
            f.write_str(s)
        }
    };
}

/// An instruction operand: either a register or a 32-bit immediate.
///
/// Floating-point immediates are encoded with `Op::Imm(f32::to_bits(v))`;
/// the consuming instruction decides the interpretation.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Op {
    /// Read the value of a general-purpose register.
    Reg(Reg),
    /// A 32-bit immediate (bit pattern; signedness/floatness is decided by
    /// the consuming instruction).
    Imm(u32),
}

impl Op {
    /// A floating-point immediate.
    pub fn f32(v: f32) -> Self {
        Op::Imm(v.to_bits())
    }

    /// A signed-integer immediate (two's-complement bit pattern).
    pub fn i32(v: i32) -> Self {
        Op::Imm(v as u32)
    }
}

impl From<Reg> for Op {
    fn from(r: Reg) -> Self {
        Op::Reg(r)
    }
}

impl fmt::Display for Op {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Op::Reg(r) => write!(f, "{r}"),
            Op::Imm(v) => write!(f, "{v:#x}"),
        }
    }
}

/// Memory spaces addressable by loads, stores and atomics.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Space {
    /// Device global memory; byte-addressed, cached in L1/L2, coalesced per
    /// warp into 128-byte transactions.
    Global,
    /// Per-thread-block shared memory; byte offset addressing, conflict-free
    /// fixed latency in this model.
    Shared,
}

impl fmt::Display for Space {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Space::Global => f.write_str("global"),
            Space::Shared => f.write_str("shared"),
        }
    }
}

/// Comparison operators for [`UOp::SetP`](crate::UOp::SetP).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum CmpOp {
    /// Equal.
    Eq,
    /// Not equal.
    Ne,
    /// Less than.
    Lt,
    /// Less than or equal.
    Le,
    /// Greater than.
    Gt,
    /// Greater than or equal.
    Ge,
}

impl fmt::Display for CmpOp {
    fmt_variants!(Eq => "eq", Ne => "ne", Lt => "lt", Le => "le", Gt => "gt", Ge => "ge");
}

/// Operand interpretation for comparisons.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum CmpTy {
    /// Signed 32-bit integers.
    I32,
    /// Unsigned 32-bit integers.
    U32,
    /// IEEE-754 single precision.
    F32,
}

impl fmt::Display for CmpTy {
    fmt_variants!(I32 => "s32", U32 => "u32", F32 => "f32");
}

/// Atomic read-modify-write operators for [`UOp::Atom`](crate::UOp::Atom).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum AtomOp {
    /// Atomic add (wrapping, unsigned).
    Add,
    /// Atomic signed minimum.
    MinS,
    /// Atomic signed maximum.
    MaxS,
    /// Atomic unsigned minimum.
    MinU,
    /// Atomic unsigned maximum.
    MaxU,
    /// Atomic exchange.
    Exch,
    /// Atomic compare-and-swap; `extra` holds the comparand.
    Cas,
    /// Atomic bitwise or.
    Or,
    /// Atomic bitwise and.
    And,
}

impl fmt::Display for AtomOp {
    fmt_variants!(Add => "add", MinS => "min.s32", MaxS => "max.s32",
                  MinU => "min.u32", MaxU => "max.u32", Exch => "exch",
                  Cas => "cas", Or => "or", And => "and");
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn op_conversions() {
        assert_eq!(Op::from(Reg(2)), Op::Reg(Reg(2)));
        assert_eq!(Op::f32(1.0), Op::Imm(0x3f80_0000));
        assert_eq!(Op::i32(-1), Op::Imm(u32::MAX));
    }

    #[test]
    fn display_enums() {
        assert_eq!(CmpOp::Ge.to_string(), "ge");
        assert_eq!(CmpTy::F32.to_string(), "f32");
        assert_eq!(AtomOp::Cas.to_string(), "cas");
        assert_eq!(Space::Shared.to_string(), "shared");
        assert_eq!(Op::Imm(16).to_string(), "0x10");
    }
}
