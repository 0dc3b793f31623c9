//! Shared plumbing for the benchmark implementations: execution variants
//! and the nested-parallelism code-generation helper.

use gpu_isa::{CmpOp, CmpTy, Kernel, KernelBuilder, KernelId, Op, Reg};
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

/// How nested work is emitted by [`emit_dfp`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum LaunchMode {
    /// Serialize the nested loop in the parent thread.
    Inline,
    /// `cudaLaunchDevice` a child kernel.
    Cdp,
    /// `cudaLaunchAggGroup` an aggregated group.
    Dtbl,
}

/// Minimum DFP size worth a dynamic launch. Below this, even the CDP and
/// DTBL variants inline the loop (the paper launches "for any detected
/// DFP with sufficient parallelism available" — one warp's worth here;
/// the measured average dynamic launch is ~40 threads, §3.1).
pub const DFP_THRESHOLD: u32 = 32;

/// Thread-block size of every child kernel, as a power of two. 32 keeps
/// dynamic launches fine-grained like the paper's measured average of
/// ~40 threads per device launch.
pub const CHILD_TB_LOG2: u32 = 5;

/// Threads per child thread block.
pub const CHILD_TB: u32 = 1 << CHILD_TB_LOG2;

/// Emits the canonical DFP pattern into a parent kernel:
///
/// ```text
/// if count >= DFP_THRESHOLD and mode is dynamic:
///     buf = cudaGetParameterBuffer()
///     buf[0] = count; buf[1..] = params
///     launch child with ceil(count / CHILD_TB) blocks
/// else:
///     for i in 0..count { inline_body(i) }
/// ```
///
/// Child kernels read `count` from parameter word 0 and `params[k]` from
/// word `k + 1`, and should start with [`child_guard`].
pub fn emit_dfp(
    b: &mut KernelBuilder,
    mode: LaunchMode,
    child: KernelId,
    count: Reg,
    params: &[Op],
    inline_body: impl FnOnce(&mut KernelBuilder, Reg),
) {
    emit_dfp_with_threshold(b, mode, child, count, DFP_THRESHOLD, params, inline_body);
}

/// [`emit_dfp`] with an application-specific launch threshold (AMR's
/// natural refinement granularity is 16 sub-cells, below the default).
pub fn emit_dfp_with_threshold(
    b: &mut KernelBuilder,
    mode: LaunchMode,
    child: KernelId,
    count: Reg,
    threshold: u32,
    params: &[Op],
    inline_body: impl FnOnce(&mut KernelBuilder, Reg),
) {
    match mode {
        LaunchMode::Inline => {
            b.for_range(Op::Imm(0), Op::Reg(count), inline_body);
        }
        LaunchMode::Cdp | LaunchMode::Dtbl => {
            let big = b.setp(CmpOp::Ge, CmpTy::U32, count, Op::Imm(threshold));
            let params: Vec<Op> = params.to_vec();
            b.if_else_(
                big,
                move |b| {
                    let buf = b.get_param_buf(1 + params.len() as u16);
                    b.st_param_word(buf, 0, Op::Reg(count));
                    for (k, p) in params.iter().enumerate() {
                        b.st_param_word(buf, k as u16 + 1, *p);
                    }
                    let biased = b.iadd(count, Op::Imm(CHILD_TB - 1));
                    let ntb = b.shru(biased, Op::Imm(CHILD_TB_LOG2));
                    match mode {
                        LaunchMode::Cdp => b.launch_device(child, Op::Reg(ntb), buf),
                        LaunchMode::Dtbl => b.launch_agg(child, Op::Reg(ntb), buf),
                        LaunchMode::Inline => unreachable!(),
                    }
                },
                move |b| {
                    b.for_range(Op::Imm(0), Op::Reg(count), inline_body);
                },
            );
        }
    }
}

/// Emits the standard child-kernel prologue: computes the global work-item
/// index, exits threads past `count` (parameter word 0), and returns the
/// index register.
pub fn child_guard(b: &mut KernelBuilder) -> Reg {
    let gtid = b.global_tid();
    let count = b.ld_param(0);
    let oob = b.setp(CmpOp::Ge, CmpTy::U32, gtid, Op::Reg(count));
    b.if_(oob, |b| b.exit());
    gtid
}

/// Ceil-divide for host-side grid sizing.
pub fn ceil_div(a: u32, b: u32) -> u32 {
    a.div_ceil(b.max(1)).max(1)
}

#[cfg(test)]
mod tests {
    use super::*;
    use gpu_isa::{Dim3, LaunchKind, UOp};

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

    #[test]
    fn emit_dfp_inline_has_no_launch() {
        let mut b = KernelBuilder::new("t", Dim3::x(32), 1);
        let c = b.imm(10);
        emit_dfp(&mut b, LaunchMode::Inline, KernelId(1), c, &[], |b, i| {
            let _ = b.iadd(i, Op::Imm(1));
        });
        let k = b.build().unwrap();
        assert!(!k.uops().iter().any(|m| matches!(m.op, UOp::Launch { .. })));
    }

    #[test]
    fn emit_dfp_dynamic_has_both_paths() {
        for (mode, want_agg) in [(LaunchMode::Cdp, false), (LaunchMode::Dtbl, true)] {
            let mut b = KernelBuilder::new("t", Dim3::x(32), 1);
            let c = b.imm(10);
            let extra = b.imm(42);
            emit_dfp(&mut b, mode, KernelId(1), c, &[Op::Reg(extra)], |b, i| {
                let _ = b.iadd(i, Op::Imm(1));
            });
            let k = b.build().unwrap();
            let has = |kind: LaunchKind| {
                k.uops()
                    .iter()
                    .any(|m| matches!(m.op, UOp::Launch { kind: k, .. } if k == kind))
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
                .any(|m| matches!(m.op, UOp::GetParamBuf { words: 2, .. })));
        }
    }

    #[test]
    fn ceil_div_rounds_up() {
        assert_eq!(ceil_div(0, 32), 1);
        assert_eq!(ceil_div(32, 32), 1);
        assert_eq!(ceil_div(33, 32), 2);
    }
}
