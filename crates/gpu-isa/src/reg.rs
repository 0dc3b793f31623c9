//! Register and special-register identifiers.

use std::fmt;

/// A 32-bit general-purpose register id, private to each thread.
///
/// The builder allocates these monotonically; a kernel may use at most
/// [`Reg::MAX_PER_THREAD`] registers (the per-SMX register file then limits
/// occupancy, as on real hardware).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Reg(pub u16);

impl Reg {
    /// Maximum number of general-purpose registers a single thread may use,
    /// matching the GK110 per-thread limit of 255.
    pub const MAX_PER_THREAD: u16 = 255;
}

impl fmt::Display for Reg {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "r{}", self.0)
    }
}

/// A 1-bit predicate register id, private to each thread.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Pred(pub u8);

impl Pred {
    /// Maximum number of predicate registers per thread. Real Kepler
    /// hardware exposes 7 and reuses them via liveness analysis; this model
    /// skips the register allocator and allows 63 single-assignment
    /// predicates instead (predicate pressure does not affect occupancy on
    /// GK110, so the timing model is unaffected).
    pub const MAX_PER_THREAD: u8 = 63;
}

impl fmt::Display for Pred {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "p{}", self.0)
    }
}

/// Special (read-only) registers, read with [`UOp::S2R`].
///
/// For a *native* thread block these have their usual CUDA meaning. For an
/// *aggregated* thread block (DTBL), `CtaId*` is the block's index within
/// its aggregated group and `NCtaId*` the group's extent, both starting at
/// zero exactly as §4.1 of the paper specifies ("the value of each TB index
/// dimension starts at zero").
///
/// [`UOp::S2R`]: crate::UOp::S2R
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum SReg {
    /// Thread index within the block, x component (`threadIdx.x`).
    TidX,
    /// Thread index within the block, y component.
    TidY,
    /// Thread index within the block, z component.
    TidZ,
    /// Block index within the kernel grid or aggregated group, x component.
    CtaIdX,
    /// Block index, y component.
    CtaIdY,
    /// Block index, z component.
    CtaIdZ,
    /// Block extent, x component (`blockDim.x`).
    NTidX,
    /// Block extent, y component.
    NTidY,
    /// Block extent, z component.
    NTidZ,
    /// Grid or aggregated-group extent, x component (`gridDim.x`).
    NCtaIdX,
    /// Grid extent, y component.
    NCtaIdY,
    /// Grid extent, z component.
    NCtaIdZ,
    /// Lane index within the warp (0..32).
    LaneId,
    /// Index of the SMX this thread is resident on (for diagnostics).
    SmId,
}

impl fmt::Display for SReg {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            SReg::TidX => "%tid.x",
            SReg::TidY => "%tid.y",
            SReg::TidZ => "%tid.z",
            SReg::CtaIdX => "%ctaid.x",
            SReg::CtaIdY => "%ctaid.y",
            SReg::CtaIdZ => "%ctaid.z",
            SReg::NTidX => "%ntid.x",
            SReg::NTidY => "%ntid.y",
            SReg::NTidZ => "%ntid.z",
            SReg::NCtaIdX => "%nctaid.x",
            SReg::NCtaIdY => "%nctaid.y",
            SReg::NCtaIdZ => "%nctaid.z",
            SReg::LaneId => "%laneid",
            SReg::SmId => "%smid",
        };
        f.write_str(s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_forms() {
        assert_eq!(Reg(3).to_string(), "r3");
        assert_eq!(Pred(1).to_string(), "p1");
        assert_eq!(SReg::CtaIdX.to_string(), "%ctaid.x");
    }

    #[test]
    fn reg_ordering_follows_index() {
        assert!(Reg(1) < Reg(2));
        assert!(Pred(0) < Pred(1));
    }
}
