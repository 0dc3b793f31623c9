//! SIMT instruction set for the DTBL GPU simulator.
//!
//! This crate defines everything a "CUDA kernel" is in this reproduction:
//! a small RISC-like SIMT instruction set ([`Inst`]), a structured kernel
//! builder ([`KernelBuilder`]) that produces well-formed control flow with
//! reconvergence points computed by construction, and per-thread functional
//! semantics ([`step`](ThreadCtx::step)) that the cycle-level simulator
//! layers its timing model on top of.
//!
//! The ISA deliberately mirrors the subset of PTX/SASS behaviour the DTBL
//! paper's evaluation depends on: divergent predicated branches with
//! immediate-post-dominator reconvergence, coalescable global memory
//! accesses, shared memory, atomics, thread-block barriers, and the
//! device-side launch intrinsics (`cudaLaunchDevice` for CDP and
//! `cudaLaunchAggGroup` for DTBL).
//!
//! # Example
//!
//! ```
//! use gpu_isa::{Dim3, KernelBuilder, Op, Space};
//!
//! # fn main() -> Result<(), gpu_isa::BuildError> {
//! // out[i] = in[i] + 1 for a 1D grid.
//! let mut b = KernelBuilder::new("add_one", Dim3::x(128), 2);
//! let gtid = b.global_tid();
//! let in_base = b.ld_param(0);
//! let out_base = b.ld_param(1);
//! let addr_in = b.mad(gtid, Op::Imm(4), Op::Reg(in_base));
//! let v = b.ld(Space::Global, addr_in, 0);
//! let v1 = b.iadd(v, Op::Imm(1));
//! let addr_out = b.mad(gtid, Op::Imm(4), Op::Reg(out_base));
//! b.st(Space::Global, addr_out, 0, Op::Reg(v1));
//! let kernel = b.build()?;
//! assert_eq!(kernel.name(), "add_one");
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod builder;
pub mod decode;
mod dim;
mod exec;
mod inst;
pub mod interp;
mod kernel;
mod reg;

pub use builder::{BuildError, KernelBuilder};
pub use decode::{exec_alu, LatClass, MicroOp, UOp, WarpEnv, WarpRegs};
pub use dim::Dim3;
pub use exec::{
    apply_atomic, lane_step, Effect, LaunchKind, LaunchRequest, MemRequest, ThreadCtx, ThreadEnv,
};
pub use inst::{AtomOp, CmpOp, CmpTy, Inst, Op, Space};
pub use kernel::{Kernel, KernelId, Program};
pub use reg::{Pred, Reg, SReg};

/// Number of threads in a warp, as on all NVIDIA architectures to date.
pub const WARP_SIZE: usize = 32;
