//! Table 3 at the cycle level: one parent warp on an idle K20c calls
//! `cudaGetParameterBuffer` and then `cudaLaunchDevice` (CDP) or
//! `cudaLaunchAggGroup` (DTBL) from x ∈ {1, 8, 32} lanes, and the trace
//! and `Stats::launches` show the simulator charging the paper's per-warp
//! latencies to the cycle.
//!
//! The expected latencies are the paper's numbers written out here, not
//! read from `LatencyTable::k20c()`, so a changed constant fails too.

use dtbl_repro::gpu_isa::{Dim3, KernelBuilder, KernelId, Op, Program};
use dtbl_repro::gpu_sim::{DynLaunchKind, Gpu, GpuConfig, LaunchRecord, TraceConfig};
use gpu_trace::{Category, EventKind, LaunchPath, StallReason, TraceEvent};

/// Table 3 (K20c): `cudaGetParameterBuffer` costs `b + A·x` per warp.
fn get_param_buf(x: u64) -> u64 {
    8023 + 129 * x
}

/// Table 3: `cudaStreamCreateWithFlags` plus `cudaLaunchDevice`
/// (`b + A·x`) per warp.
fn launch_device(x: u64) -> u64 {
    7165 + 12187 + 1592 * x
}

/// Table 3: kernel dispatch from the KMU to the Kernel Distributor.
const KERNEL_DISPATCH: u64 = 283;

/// §4.3: the per-warp `cudaLaunchAggGroup` cost (KDE search + AGT probe).
const AGG_LAUNCH: u64 = 33;

/// Cycles from a CDP child's KMU dispatch completing to its first thread
/// block starting (DESIGN.md, "Launch timing"): the dispatch installs the
/// kernel in the Kernel Distributor in the KMU stage of a cycle, and the
/// SMX scheduler places its first block in the same cycle.
const CDP_DISPATCH_CYCLES: u64 = 0;

/// Cycles from a DTBL launch's issue to its aggregated group's first
/// thread block starting. The group enters the AGT at the issue cycle, so
/// `cudaLaunchAggGroup` delays only the parent warp, not the child
/// (ROADMAP item 3, an open modelling question).
const DTBL_FIRST_TB_GAP: u64 = 1;

/// The child: one warp that spins `param[0]` times. A host-launched
/// native instance spins long enough to stay resident, so the parent's
/// aggregated groups find an eligible kernel and coalesce.
fn child() -> KernelBuilder {
    let mut b = KernelBuilder::new("child", Dim3::x(32), 1);
    let n = b.ld_param(0);
    b.for_range(Op::Imm(0), Op::Reg(n), |_, _| {});
    b
}

/// The parent: a block of `x` threads, each allocating a parameter
/// buffer and launching one single-block child. Straight-line, so the
/// warp's issues are, in order, `GetParamBuf`, the launch and `Exit`.
fn parent(x: u32, agg: bool, child: KernelId) -> KernelBuilder {
    let mut b = KernelBuilder::new("parent", Dim3::x(x), 0);
    let buf = b.get_param_buf(1);
    if agg {
        b.launch_agg(child, Op::Imm(1), buf);
    } else {
        b.launch_device(child, Op::Imm(1), buf);
    }
    b
}

struct Run {
    /// Issue cycles of the parent warp's three micro-ops.
    issues: Vec<u64>,
    events: Vec<TraceEvent>,
    launches: Vec<LaunchRecord>,
    /// The parent warp's (SMX, warp slot).
    parent: (u16, u16),
}

fn run(x: u32, agg: bool) -> Run {
    let mut prog = Program::new();
    let child = prog.add(child().build().unwrap());
    let parent_k = prog.add(parent(x, agg, child).build().unwrap());
    let cfg = GpuConfig {
        trace: TraceConfig {
            mask: Category::Launch.bit() | Category::Tb.bit() | Category::Warp.bit(),
            ..TraceConfig::off()
        },
        ..GpuConfig::k20c()
    };
    let mut gpu = Gpu::new(cfg, prog);
    if agg {
        gpu.launch(child, 1, &[20_000], 1).unwrap();
    }
    gpu.launch(parent_k, 1, &[], 0).unwrap();
    let launches = gpu.run_to_idle().unwrap().launches.to_vec();
    let events = gpu.take_trace().unwrap().events;

    let (place, smx) = events
        .iter()
        .enumerate()
        .find_map(|(i, e)| match e.kind {
            EventKind::TbPlace { smx, kernel, .. } if kernel == parent_k.0 => Some((i, smx)),
            _ => None,
        })
        .expect("parent block placed");
    // The first issue on the parent's SMX after its placement is the
    // parent warp's; its first three issues are the whole kernel.
    let on_smx =
        |e: &&TraceEvent| matches!(e.kind, EventKind::WarpIssue { smx: s, .. } if s == smx);
    let EventKind::WarpIssue { warp, .. } = events[place..].iter().find(on_smx).unwrap().kind
    else {
        unreachable!()
    };
    let parent_issue = EventKind::WarpIssue {
        smx,
        warp,
        lanes: x as u8,
    };
    let issues: Vec<u64> = events[place..]
        .iter()
        .filter(|e| e.kind == parent_issue)
        .take(3)
        .map(|e| e.cycle)
        .collect();
    assert_eq!(issues.len(), 3, "x={x}: parent warp issues");
    Run {
        issues,
        events,
        launches,
        parent: (smx, warp),
    }
}

/// Checks what CDP and DTBL share: the warp stalls `get_param_buf(x)`
/// after `GetParamBuf`, every calling lane makes one launch at the launch
/// issue, and the launch stalls the warp for `launch_stall` cycles with a
/// `LaunchApi` stall event.
fn check_parent(r: &Run, x: u32, path: LaunchPath, launch_stall: u64) {
    let [gpb, launch, exit] = r.issues[..] else {
        unreachable!()
    };
    let x64 = u64::from(x);
    assert_eq!(launch - gpb, get_param_buf(x64), "x={x}: GetParamBuf stall");
    assert_eq!(exit - launch, launch_stall, "x={x}: launch stall");
    let (smx, warp) = r.parent;
    assert!(
        r.events.iter().any(|e| e.cycle == launch
            && e.kind
                == EventKind::WarpStall {
                    smx,
                    warp,
                    reason: StallReason::LaunchApi.code(),
                }),
        "x={x}: LaunchApi stall at the launch issue"
    );
    let dyn_launches: Vec<u64> = r
        .events
        .iter()
        .filter(|e| matches!(e.kind, EventKind::DynLaunch { path: p, .. } if p == path.code()))
        .map(|e| e.cycle)
        .collect();
    assert_eq!(dyn_launches, vec![launch; x as usize], "x={x}: {path:?}");
    assert_eq!(r.launches.len(), x as usize, "x={x}: launch records");
    assert!(r.launches.iter().all(|l| l.launched_at == launch));
}

#[test]
fn cdp_charges_table3_to_the_parent_and_the_child() {
    for x in [1, 8, 32] {
        let r = run(x, false);
        let x64 = u64::from(x);
        check_parent(&r, x, LaunchPath::DeviceKernel, launch_device(x64));
        assert!(r
            .launches
            .iter()
            .all(|l| l.kind == DynLaunchKind::DeviceKernel));
        let first = r.launches[0];
        assert_eq!(
            first.waiting_time(),
            Some(launch_device(x64) + KERNEL_DISPATCH + CDP_DISPATCH_CYCLES),
            "x={x}: first CDP child's first block"
        );
    }
}

#[test]
fn dtbl_charges_agg_launch_to_the_parent_only() {
    for x in [1, 8, 32] {
        let r = run(x, true);
        check_parent(&r, x, LaunchPath::AggGroup, AGG_LAUNCH);
        assert!(
            r.launches.iter().all(|l| l.kind == DynLaunchKind::AggGroup),
            "x={x}: every group coalesced with the resident child"
        );
        assert_eq!(
            r.launches[0].waiting_time(),
            Some(DTBL_FIRST_TB_GAP),
            "x={x}: first aggregated group's first block"
        );
    }
}
