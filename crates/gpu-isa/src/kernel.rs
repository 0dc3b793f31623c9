//! Kernels and programs.

use crate::decode::{self, MicroOp};
use crate::dim::Dim3;
use crate::inst::Inst;
use std::fmt;
use std::sync::Arc;

/// Identifies a kernel within a [`Program`].
///
/// Device-launch instructions name their child kernel by `KernelId`; the
/// simulator resolves it against the program loaded onto the GPU. This is
/// the analogue of a device-side function pointer in CUDA Dynamic
/// Parallelism.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct KernelId(pub u16);

impl fmt::Display for KernelId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "k{}", self.0)
    }
}

/// An immutable, validated GPU kernel.
///
/// Produced by [`KernelBuilder::build`](crate::KernelBuilder::build); the
/// instruction stream is guaranteed to have in-range branch targets, a
/// terminating [`Inst::Exit`] on every path, and register ids within the
/// declared register count.
///
/// The thread-block shape is part of the kernel (unlike CUDA, where it is a
/// launch parameter). This matches the DTBL constraint that aggregated
/// thread blocks use the same configuration as the native kernel's blocks
/// (§4.1), and keeps eligibility checking — same entry PC, same TB
/// configuration — a property of the kernel identity.
///
/// Deliberately not `Clone`: a kernel is shared through the `Arc<Kernel>`
/// its [`Program`] stores, so no dispatch path can deep-copy one.
#[derive(Debug)]
pub struct Kernel {
    name: String,
    insts: Arc<[Inst]>,
    /// The decoded micro-op program, lowered once at build time and shared
    /// (via the `Arc<Kernel>` a [`Program`] stores) by every simulator
    /// engine, the reference interpreter and the degradation ladder — one
    /// decode per kernel, not one per dispatch or per issue.
    uops: Arc<[MicroOp]>,
    block_dim: Dim3,
    regs_per_thread: u16,
    preds_per_thread: u8,
    shared_mem_bytes: u32,
    param_words: u16,
}

impl Kernel {
    pub(crate) fn from_parts(
        name: String,
        insts: Vec<Inst>,
        block_dim: Dim3,
        regs_per_thread: u16,
        preds_per_thread: u8,
        shared_mem_bytes: u32,
        param_words: u16,
    ) -> Self {
        let uops: Arc<[MicroOp]> = decode::decode(&insts).into();
        Kernel {
            name,
            insts: insts.into(),
            uops,
            block_dim,
            regs_per_thread,
            preds_per_thread,
            shared_mem_bytes,
            param_words,
        }
    }

    /// Human-readable kernel name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The instruction stream.
    pub fn insts(&self) -> &[Inst] {
        &self.insts
    }

    /// Fetches one instruction.
    ///
    /// # Panics
    ///
    /// Panics if `pc` is out of range (the builder guarantees in-range
    /// control flow, so this indicates simulator corruption).
    pub fn fetch(&self, pc: u32) -> &Inst {
        &self.insts[pc as usize]
    }

    /// The decoded micro-op program (same length and PC numbering as
    /// [`insts`](Self::insts)).
    pub fn uops(&self) -> &[MicroOp] {
        &self.uops
    }

    /// Fetches one decoded micro-op.
    ///
    /// # Panics
    ///
    /// Panics if `pc` is out of range, as with [`fetch`](Self::fetch).
    pub fn uop(&self, pc: u32) -> &MicroOp {
        &self.uops[pc as usize]
    }

    /// Thread-block shape, fixed at build time.
    pub fn block_dim(&self) -> Dim3 {
        self.block_dim
    }

    /// Threads per block (product of the block extents).
    pub fn threads_per_block(&self) -> u32 {
        self.block_dim.count() as u32
    }

    /// General-purpose registers used per thread.
    pub fn regs_per_thread(&self) -> u16 {
        self.regs_per_thread
    }

    /// Predicate registers used per thread.
    pub fn preds_per_thread(&self) -> u8 {
        self.preds_per_thread
    }

    /// Static shared memory per thread block, in bytes.
    pub fn shared_mem_bytes(&self) -> u32 {
        self.shared_mem_bytes
    }

    /// Size of the parameter buffer in 32-bit words.
    pub fn param_words(&self) -> u16 {
        self.param_words
    }
}

impl fmt::Display for Kernel {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "kernel {} [block {}, {} regs, {}B smem, {} insts]",
            self.name,
            self.block_dim,
            self.regs_per_thread,
            self.shared_mem_bytes,
            self.insts.len()
        )
    }
}

/// A set of kernels loaded together onto the GPU — the analogue of a CUDA
/// module / fatbinary.
///
/// Device-launch instructions resolve their [`KernelId`] within the program
/// that contains them, so all kernels reachable by nested launches must be
/// registered in the same program.
///
/// Kernels are stored behind [`Arc`] so the simulator's dispatch path can
/// hand a reference-counted handle to every resident thread block without
/// deep-copying the kernel (name string, metadata) per dispatched block.
///
/// # Example
///
/// ```
/// use gpu_isa::{Dim3, KernelBuilder, Program};
///
/// # fn main() -> Result<(), gpu_isa::BuildError> {
/// let mut prog = Program::new();
/// let mut b = KernelBuilder::new("noop", Dim3::x(32), 0);
/// let _ = b.imm(0);
/// let id = prog.add(b.build()?);
/// assert_eq!(prog.kernel(id).name(), "noop");
/// # Ok(())
/// # }
/// ```
#[derive(Clone, Debug, Default)]
pub struct Program {
    kernels: Vec<Arc<Kernel>>,
}

impl Program {
    /// Creates an empty program.
    pub fn new() -> Self {
        Program::default()
    }

    /// Registers a kernel, returning its id.
    ///
    /// # Panics
    ///
    /// Panics if more than `u16::MAX` kernels are registered.
    pub fn add(&mut self, kernel: Kernel) -> KernelId {
        let id = u16::try_from(self.kernels.len()).expect("too many kernels in program");
        self.kernels.push(Arc::new(kernel));
        KernelId(id)
    }

    /// Looks up a kernel by id. The returned handle auto-derefs to
    /// [`Kernel`]; clone the `Arc` to keep the kernel alive independently
    /// of the program (a refcount bump, not a deep copy).
    ///
    /// # Panics
    ///
    /// Panics if `id` was not produced by [`Program::add`] on this program.
    pub fn kernel(&self, id: KernelId) -> &Arc<Kernel> {
        &self.kernels[id.0 as usize]
    }

    /// Looks up a kernel by id, returning `None` when absent.
    pub fn get(&self, id: KernelId) -> Option<&Arc<Kernel>> {
        self.kernels.get(id.0 as usize)
    }

    /// Number of kernels registered.
    pub fn len(&self) -> usize {
        self.kernels.len()
    }

    /// True when no kernels are registered.
    pub fn is_empty(&self) -> bool {
        self.kernels.is_empty()
    }

    /// Iterates over `(id, kernel)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (KernelId, &Arc<Kernel>)> {
        self.kernels
            .iter()
            .enumerate()
            .map(|(i, k)| (KernelId(i as u16), k))
    }

    /// True when `self` and `other` hold the *same* decoded kernels — every
    /// pair of entries is `Arc::ptr_eq`, not merely equal. A `Program`
    /// clone is a refcount bump per kernel, so rebinding a pooled simulator
    /// to a cached setup must pass this check; a rebuilt (re-decoded)
    /// program fails it even if the instruction streams match.
    pub fn shares_kernels(&self, other: &Program) -> bool {
        self.kernels.len() == other.kernels.len()
            && self
                .kernels
                .iter()
                .zip(&other.kernels)
                .all(|(a, b)| Arc::ptr_eq(a, b))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::KernelBuilder;

    fn tiny(name: &str) -> Kernel {
        let mut b = KernelBuilder::new(name, Dim3::x(32), 1);
        let _ = b.imm(7);
        b.build().unwrap()
    }

    #[test]
    fn program_add_and_lookup() {
        let mut p = Program::new();
        let a = p.add(tiny("a"));
        let b = p.add(tiny("b"));
        assert_ne!(a, b);
        assert_eq!(p.kernel(a).name(), "a");
        assert_eq!(p.kernel(b).name(), "b");
        assert_eq!(p.len(), 2);
        assert!(!p.is_empty());
        assert!(p.get(KernelId(99)).is_none());
    }

    #[test]
    fn cloned_programs_share_kernels_rebuilt_ones_do_not() {
        let mut p = Program::new();
        p.add(tiny("a"));
        let clone = p.clone();
        assert!(p.shares_kernels(&clone), "clone is a refcount bump");
        let mut rebuilt = Program::new();
        rebuilt.add(tiny("a"));
        assert!(
            !p.shares_kernels(&rebuilt),
            "re-decoded kernels are distinct"
        );
        rebuilt.add(tiny("b"));
        assert!(!p.shares_kernels(&rebuilt), "length mismatch");
    }

    #[test]
    fn kernel_accessors() {
        let k = tiny("t");
        assert_eq!(k.threads_per_block(), 32);
        assert_eq!(k.param_words(), 1);
        assert!(k.regs_per_thread() >= 1);
        // Builder appends an implicit Exit.
        assert!(matches!(k.insts().last(), Some(Inst::Exit)));
        assert!(k.to_string().contains("kernel t"));
    }

    #[test]
    fn iter_yields_in_insertion_order() {
        let mut p = Program::new();
        p.add(tiny("x"));
        p.add(tiny("y"));
        let names: Vec<_> = p.iter().map(|(_, k)| k.name().to_string()).collect();
        assert_eq!(names, ["x", "y"]);
    }
}
