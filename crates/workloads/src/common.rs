//! Shared plumbing for the benchmark implementations: execution variants,
//! the kernel guard, and the nested-parallelism code generation — a
//! [`Dfp`] declares a nested loop's body once, builds the child kernel
//! from it, and [`emit_dfp`] emits the parent's launch-or-inline code from
//! the same body.

use gpu_isa::{CmpOp, CmpTy, Dim3, Kernel, KernelBuilder, KernelId, Op, Program, Reg};
use gpu_sim::{GpuConfig, LatencyTable, SimError};

/// Finalizes a kernel, converting an assembly failure into the typed
/// [`SimError::KernelBuild`] so workload construction bugs surface as
/// clean errors instead of panics.
pub fn build_kernel(b: KernelBuilder) -> Result<Kernel, SimError> {
    b.build().map_err(|e| SimError::KernelBuild {
        detail: e.to_string(),
    })
}

/// Compares a device result against the host reference, failing with
/// [`SimError::ValidationFailed`] that names the first divergence and the
/// total mismatch count.
pub fn validate_u32(app: &str, what: &str, got: &[u32], want: &[u32]) -> Result<(), SimError> {
    if got.len() != want.len() {
        return Err(SimError::ValidationFailed {
            app: app.to_string(),
            detail: format!("{what}: length {} != expected {}", got.len(), want.len()),
        });
    }
    let mismatches = got.iter().zip(want).filter(|(g, w)| g != w).count();
    if let Some(i) = got.iter().zip(want).position(|(g, w)| g != w) {
        return Err(SimError::ValidationFailed {
            app: app.to_string(),
            detail: format!(
                "{what}[{i}]: got {}, want {} ({mismatches} mismatch(es) of {} values)",
                got[i],
                want[i],
                got.len()
            ),
        });
    }
    Ok(())
}

/// Scalar flavour of [`validate_u32`].
pub fn validate_scalar(app: &str, what: &str, got: u32, want: u32) -> Result<(), SimError> {
    if got != want {
        return Err(SimError::ValidationFailed {
            app: app.to_string(),
            detail: format!("{what}: got {got}, want {want}"),
        });
    }
    Ok(())
}

/// How a benchmark handles its dynamically-formed pockets of parallelism
/// (DFP) — the five bars of the paper's figures plus the §4.3 ablation.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Variant {
    /// Original implementation: the nested loop is serialized inside each
    /// thread ("flat", the paper's baseline).
    Flat,
    /// CUDA Dynamic Parallelism: device kernels launched per DFP, with
    /// measured launch latencies.
    Cdp,
    /// CDP with zeroed launch latencies (CDPI).
    CdpIdeal,
    /// Dynamic Thread Block Launch with measured latencies.
    Dtbl,
    /// DTBL with zeroed launch latencies (DTBLI).
    DtblIdeal,
    /// DTBL with coalescing disabled: every aggregated group becomes a
    /// device kernel (the "just add KDE entries" alternative of §4.3).
    DtblNoCoalesce,
}

impl Variant {
    /// The five variants the paper's figures compare.
    pub const MAIN: [Variant; 5] = [
        Variant::Flat,
        Variant::CdpIdeal,
        Variant::DtblIdeal,
        Variant::Cdp,
        Variant::Dtbl,
    ];

    /// Every variant, including the §4.3 no-coalescing ablation. Order is
    /// the [`index`](Variant::index) order a [`CellSetup`](crate::CellSetup)
    /// stores prepared programs in.
    pub const ALL: [Variant; 6] = [
        Variant::Flat,
        Variant::Cdp,
        Variant::CdpIdeal,
        Variant::Dtbl,
        Variant::DtblIdeal,
        Variant::DtblNoCoalesce,
    ];

    /// Dense index of this variant within [`Variant::ALL`].
    pub fn index(self) -> usize {
        match self {
            Variant::Flat => 0,
            Variant::Cdp => 1,
            Variant::CdpIdeal => 2,
            Variant::Dtbl => 3,
            Variant::DtblIdeal => 4,
            Variant::DtblNoCoalesce => 5,
        }
    }

    /// Column label used in the figure tables.
    pub fn label(self) -> &'static str {
        match self {
            Variant::Flat => "Flat",
            Variant::Cdp => "CDP",
            Variant::CdpIdeal => "CDPI",
            Variant::Dtbl => "DTBL",
            Variant::DtblIdeal => "DTBLI",
            Variant::DtblNoCoalesce => "DTBL-NC",
        }
    }

    /// Parses a figure-table [`label`](Variant::label) (e.g. `DTBL-NC`)
    /// back into its variant — the inverse used by the daemon wire
    /// protocol, where cells arrive as labels.
    pub fn from_label(label: &str) -> Option<Variant> {
        Variant::ALL.into_iter().find(|v| v.label() == label)
    }

    /// Code-generation mode for the benchmark kernels.
    pub fn launch_mode(self) -> LaunchMode {
        match self {
            Variant::Flat => LaunchMode::Inline,
            Variant::Cdp | Variant::CdpIdeal => LaunchMode::Cdp,
            Variant::Dtbl | Variant::DtblIdeal | Variant::DtblNoCoalesce => LaunchMode::Dtbl,
        }
    }

    /// Applies the variant's simulator knobs to a configuration.
    pub fn configure(self, mut cfg: GpuConfig) -> GpuConfig {
        match self {
            Variant::CdpIdeal | Variant::DtblIdeal => cfg.latency = LatencyTable::ideal(),
            Variant::DtblNoCoalesce => cfg.dtbl_disable_coalescing = true,
            _ => {}
        }
        cfg
    }
}

impl std::fmt::Display for Variant {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

/// How nested work is emitted by [`emit_dfp`]. A benchmark's program is a
/// function of its launch mode alone: the variants of one mode differ
/// only in their simulator configuration.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum LaunchMode {
    /// Serialize the nested loop in the parent thread.
    Inline,
    /// `cudaLaunchDevice` a child kernel.
    Cdp,
    /// `cudaLaunchAggGroup` an aggregated group.
    Dtbl,
}

impl LaunchMode {
    /// Every mode, in discriminant order: a [`CellSetup`](crate::CellSetup)
    /// stores its program for `mode` at index `mode as usize`.
    pub const ALL: [LaunchMode; 3] = [LaunchMode::Inline, LaunchMode::Cdp, LaunchMode::Dtbl];
}

/// Minimum DFP size worth a dynamic launch, the usual [`emit_dfp`]
/// threshold. Below it, even the CDP and DTBL variants inline the loop
/// (the paper launches "for any detected DFP with sufficient parallelism
/// available" — one warp's worth here; the measured average dynamic
/// launch is ~40 threads, §3.1).
pub const DFP_THRESHOLD: u32 = 32;

/// Thread-block size of every child kernel, as a power of two. 32 keeps
/// dynamic launches fine-grained like the paper's measured average of
/// ~40 threads per device launch.
pub const CHILD_TB_LOG2: u32 = 5;

/// Threads per child thread block.
pub const CHILD_TB: u32 = 1 << CHILD_TB_LOG2;

/// Emits the guard every benchmark kernel opens with: computes the global
/// thread index and exits each thread at or past the item count held in
/// parameter word `count_word`. Returns the index register.
pub(crate) fn guard(b: &mut KernelBuilder, count_word: u16) -> Reg {
    let gtid = b.global_tid();
    let count = b.ld_param(count_word);
    let oob = b.setp(CmpOp::Ge, CmpTy::U32, gtid, Op::Reg(count));
    b.if_(oob, |b| b.exit());
    gtid
}

/// One dynamically formed pocket of parallelism (DFP): a nested loop's
/// per-item body, declared once and emitted twice — as the body of the
/// child kernel [`Dfp::new`] builds, and by [`emit_dfp`] as the parent's
/// launch-or-inline code. The Flat loop and the CDP/DTBL children thus
/// run the same micro-ops per item: the paper's fair-comparison rule
/// (§5.1) holds by construction.
///
/// The body receives the builder, the item index and its `N` argument
/// registers: parameter words `1..=N` in the child (word 0 is the item
/// count), the parent's registers when inlined.
pub struct Dfp<const N: usize, F> {
    child: KernelId,
    body: F,
}

impl<const N: usize, F: Fn(&mut KernelBuilder, Reg, [Reg; N])> Dfp<N, F> {
    /// Builds the child kernel `name` from `body` — the kernel guard on
    /// parameter word 0 (threads at or past the item count exit),
    /// parameter words `1..=N` loaded in order, then the body — and adds
    /// it to `prog`. Every launch mode adds it (Flat never launches it),
    /// so a program's kernel ids do not depend on the mode.
    ///
    /// # Errors
    ///
    /// [`SimError::KernelBuild`] when the child does not assemble.
    pub fn new(prog: &mut Program, name: &str, body: F) -> Result<Self, SimError> {
        let mut b = KernelBuilder::new(name, Dim3::x(CHILD_TB), 1 + N as u16);
        let i = guard(&mut b, 0);
        let args = std::array::from_fn(|k| b.ld_param(1 + k as u16));
        body(&mut b, i, args);
        let child = prog.add(build_kernel(b)?);
        Ok(Dfp { child, body })
    }

    /// The child kernel's id.
    pub fn child(&self) -> KernelId {
        self.child
    }
}

/// Emits a parent thread's `count` items of `dfp`:
///
/// ```text
/// if mode is dynamic and count >= threshold:
///     buf = cudaGetParameterBuffer()
///     buf[0] = count; buf[1..] = args
///     launch the child with ceil(count / CHILD_TB) blocks
/// else:
///     for i in 0..count { body(i, args) }
/// ```
///
/// `args` are the parent's registers for the body's arguments; a launched
/// child reads the same values from its parameter words.
pub fn emit_dfp<const N: usize, F: Fn(&mut KernelBuilder, Reg, [Reg; N])>(
    b: &mut KernelBuilder,
    mode: LaunchMode,
    dfp: &Dfp<N, F>,
    count: Reg,
    threshold: u32,
    args: [Reg; N],
) {
    let inline = |b: &mut KernelBuilder| {
        b.for_range(Op::Imm(0), Op::Reg(count), |b, i| (dfp.body)(b, i, args));
    };
    let launch = match mode {
        LaunchMode::Inline => return inline(b),
        LaunchMode::Cdp => KernelBuilder::launch_device,
        LaunchMode::Dtbl => KernelBuilder::launch_agg,
    };
    let big = b.setp(CmpOp::Ge, CmpTy::U32, count, Op::Imm(threshold));
    b.if_else_(
        big,
        |b| {
            let buf = b.get_param_buf(1 + N as u16);
            b.st_param_word(buf, 0, Op::Reg(count));
            for (k, a) in args.into_iter().enumerate() {
                b.st_param_word(buf, 1 + k as u16, Op::Reg(a));
            }
            let biased = b.iadd(count, Op::Imm(CHILD_TB - 1));
            let ntb = b.shru(biased, Op::Imm(CHILD_TB_LOG2));
            launch(b, dfp.child, Op::Reg(ntb), buf);
        },
        inline,
    );
}

/// Ceil-divide for host-side grid sizing.
pub fn ceil_div(a: u32, b: u32) -> u32 {
    a.div_ceil(b.max(1)).max(1)
}

#[cfg(test)]
mod tests {
    use super::*;
    use gpu_isa::{LaunchKind, UOp};

    #[test]
    fn labels_round_trip_through_from_label() {
        for v in Variant::ALL {
            assert_eq!(Variant::from_label(v.label()), Some(v));
        }
        assert_eq!(Variant::from_label("FLAT"), None, "labels are exact");
    }

    #[test]
    fn variant_wiring() {
        assert_eq!(Variant::Flat.launch_mode(), LaunchMode::Inline);
        assert_eq!(Variant::Cdp.launch_mode(), LaunchMode::Cdp);
        assert_eq!(Variant::DtblNoCoalesce.launch_mode(), LaunchMode::Dtbl);
        let ideal = Variant::DtblIdeal.configure(GpuConfig::k20c());
        assert_eq!(ideal.latency.launch_device_b, 0);
        let nc = Variant::DtblNoCoalesce.configure(GpuConfig::k20c());
        assert!(nc.dtbl_disable_coalescing);
        assert_eq!(Variant::MAIN.len(), 5);
        assert_eq!(Variant::Dtbl.to_string(), "DTBL");
    }

    /// A two-argument DFP body: stores the item index to the address in
    /// its first argument plus the second.
    fn store(b: &mut KernelBuilder, i: Reg, [base, off]: [Reg; 2]) {
        let a = b.iadd(base, Op::Reg(off));
        b.st(gpu_isa::Space::Global, a, 0, Op::Reg(i));
    }

    #[test]
    fn the_child_is_the_guard_then_its_arguments_in_order_then_the_body() -> Result<(), SimError> {
        let mut prog = Program::new();
        let dfp = Dfp::new(&mut prog, "child", store)?;
        let k = prog.kernel(dfp.child());
        assert_eq!((k.name(), k.param_words()), ("child", 3));
        assert_eq!(k.block_dim(), Dim3::x(CHILD_TB));
        let words: Vec<u16> = (k.uops().iter())
            .filter_map(|m| match m.op {
                UOp::LdParam { word, .. } => Some(word),
                _ => None,
            })
            .collect();
        assert_eq!(words, [0, 1, 2], "count first, then the arguments in order");
        assert!(k.uops().iter().any(|m| matches!(m.op, UOp::Exit)));
        Ok(())
    }

    #[test]
    fn emit_dfp_inline_has_no_launch() -> Result<(), SimError> {
        let mut prog = Program::new();
        let dfp = Dfp::new(&mut prog, "child", store)?;
        let mut b = KernelBuilder::new("t", Dim3::x(32), 1);
        let c = b.imm(10);
        emit_dfp(&mut b, LaunchMode::Inline, &dfp, c, DFP_THRESHOLD, [c, c]);
        let k = b.build().unwrap();
        assert!(!k.uops().iter().any(|m| matches!(m.op, UOp::Launch { .. })));
        assert!(k.uops().iter().any(|m| matches!(m.op, UOp::St { .. })));
        Ok(())
    }

    #[test]
    fn emit_dfp_dynamic_has_both_paths() -> Result<(), SimError> {
        let mut prog = Program::new();
        let dfp = Dfp::new(&mut prog, "child", store)?;
        for (mode, want_agg) in [(LaunchMode::Cdp, false), (LaunchMode::Dtbl, true)] {
            let mut b = KernelBuilder::new("t", Dim3::x(32), 1);
            let c = b.imm(10);
            let extra = b.imm(42);
            emit_dfp(&mut b, mode, &dfp, c, DFP_THRESHOLD, [c, extra]);
            let k = b.build().unwrap();
            let has = |kind: LaunchKind| {
                k.uops().iter().any(|m| {
                    matches!(m.op, UOp::Launch { kind: k, kernel, .. } if k == kind && kernel == dfp.child())
                })
            };
            assert_eq!(has(LaunchKind::Agg), want_agg);
            assert_eq!(has(LaunchKind::Device), !want_agg);
            // The inline fallback loop must also be present.
            let backedge = k.uops().iter().enumerate().any(|(pc, m)| {
                matches!(m.op, UOp::Bra { pred: None, target, .. } if (target as usize) < pc)
            });
            assert!(backedge, "small-DFP inline path missing");
            assert!(k
                .uops()
                .iter()
                .any(|m| matches!(m.op, UOp::GetParamBuf { words: 3, .. })));
        }
        Ok(())
    }

    #[test]
    fn ceil_div_rounds_up() {
        assert_eq!(ceil_div(0, 32), 1);
        assert_eq!(ceil_div(32, 32), 1);
        assert_eq!(ceil_div(33, 32), 2);
    }
}
