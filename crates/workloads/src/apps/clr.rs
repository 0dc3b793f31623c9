//! Greedy graph coloring (Jones–Plassmann style, after Cohen &
//! Castonguay\[10\]).
//!
//! Rounds of two kernels: `clr_check` decides, per uncolored vertex,
//! whether it is a local maximum of a random priority among its uncolored
//! neighbours (the neighbour scan is the dynamically-formed parallelism);
//! `clr_assign` colors the winners with the round number and builds the
//! next round's worklist. Balanced-degree inputs (`graph500`, `cage15`)
//! make the flat variant already well balanced, which is why the paper
//! sees little or negative benefit there (§5.2A).

use crate::common::{
    build_kernel, ceil_div, emit_dfp, guard, validate_u32, Dfp, LaunchMode, DFP_THRESHOLD,
};
use crate::data::CsrGraph;
use gpu_isa::{AtomOp, CmpOp, CmpTy, Dim3, KernelBuilder, KernelId, Op, Program, Space};
use gpu_sim::{Gpu, SimError};
use sim_rand::{Rng, SeedableRng, StdRng};

const PARENT_TB: u32 = 128;
const UNCOLORED: u32 = u32::MAX;

pub(crate) fn build_program(mode: LaunchMode) -> Result<(Program, Vec<KernelId>), SimError> {
    let mut prog = Program::new();

    // Neighbour `i` of v: if it is uncolored and has the higher
    // (priority, id), set v's loser flag.
    let scan = Dfp::new(
        &mut prog,
        "clr_scan",
        |b, i, [edges, colors, prios, flag_addr, pv, v]| {
            let ea = b.mad(i, Op::Imm(4), Op::Reg(edges));
            let u = b.ld(Space::Global, ea, 0);
            let ca = b.mad(u, Op::Imm(4), Op::Reg(colors));
            let cu = b.ld(Space::Global, ca, 0);
            let uncolored = b.setp(CmpOp::Eq, CmpTy::U32, cu, Op::Imm(UNCOLORED));
            let pa = b.mad(u, Op::Imm(4), Op::Reg(prios));
            let pu = b.ld(Space::Global, pa, 0);
            let gt = b.setp(CmpOp::Gt, CmpTy::U32, pu, Op::Reg(pv));
            let eq = b.setp(CmpOp::Eq, CmpTy::U32, pu, Op::Reg(pv));
            let idgt = b.setp(CmpOp::Gt, CmpTy::U32, u, Op::Reg(v));
            let tie = b.pand(eq, idgt);
            let wins = b.por(gt, tie);
            let loses = b.pand(uncolored, wins);
            b.if_(loses, |b| {
                b.st(Space::Global, flag_addr, 0, Op::Imm(1));
            });
        },
    )?;

    // Check kernel: one thread per worklist vertex.
    // Params: [row, col, colors, prios, flags, wl, nwl].
    let mut kb = KernelBuilder::new("clr_check", Dim3::x(PARENT_TB), 7);
    let gtid = guard(&mut kb, 6);
    let row = kb.ld_param(0);
    let col = kb.ld_param(1);
    let colors = kb.ld_param(2);
    let prios = kb.ld_param(3);
    let flags = kb.ld_param(4);
    let wl = kb.ld_param(5);
    let va = kb.mad(gtid, Op::Imm(4), Op::Reg(wl));
    let v = kb.ld(Space::Global, va, 0);
    let fa = kb.mad(v, Op::Imm(4), Op::Reg(flags));
    kb.st(Space::Global, fa, 0, Op::Imm(0));
    let ra = kb.mad(v, Op::Imm(4), Op::Reg(row));
    let start = kb.ld(Space::Global, ra, 0);
    let end = kb.ld(Space::Global, ra, 4);
    let deg = kb.isub(end, Op::Reg(start));
    let edge_addr = kb.mad(start, Op::Imm(4), Op::Reg(col));
    let pa = kb.mad(v, Op::Imm(4), Op::Reg(prios));
    let pv = kb.ld(Space::Global, pa, 0);
    emit_dfp(
        &mut kb,
        mode,
        &scan,
        deg,
        DFP_THRESHOLD,
        [edge_addr, colors, prios, fa, pv, v],
    );
    let check = prog.add(build_kernel(kb)?);

    // Assign kernel (flat in every variant): winners take color `round`,
    // losers re-enter the worklist.
    // Params: [colors, flags, wl_in, wl_out, cnt, nwl, round].
    let mut ab = KernelBuilder::new("clr_assign", Dim3::x(PARENT_TB), 7);
    let gtid = guard(&mut ab, 5);
    let colors = ab.ld_param(0);
    let flags = ab.ld_param(1);
    let wl_in = ab.ld_param(2);
    let wl_out = ab.ld_param(3);
    let cnt = ab.ld_param(4);
    let round = ab.ld_param(6);
    let va = ab.mad(gtid, Op::Imm(4), Op::Reg(wl_in));
    let v = ab.ld(Space::Global, va, 0);
    let fa = ab.mad(v, Op::Imm(4), Op::Reg(flags));
    let lost = ab.ld(Space::Global, fa, 0);
    let won = ab.setp(CmpOp::Eq, CmpTy::U32, lost, Op::Imm(0));
    ab.if_else_(
        won,
        |b| {
            let ca = b.mad(v, Op::Imm(4), Op::Reg(colors));
            b.st(Space::Global, ca, 0, Op::Reg(round));
        },
        |b| {
            let pos = b.atom(AtomOp::Add, Space::Global, cnt, 0, Op::Imm(1));
            let oa = b.mad(pos, Op::Imm(4), Op::Reg(wl_out));
            b.st(Space::Global, oa, 0, Op::Reg(v));
        },
    );
    let assign = prog.add(build_kernel(ab)?);
    Ok((prog, vec![check, assign]))
}

/// Host reference implementing the identical Jones–Plassmann rounds.
pub fn host_coloring(g: &CsrGraph, prios: &[u32]) -> Vec<u32> {
    let n = g.num_vertices() as usize;
    let mut colors = vec![UNCOLORED; n];
    let mut wl: Vec<u32> = (0..n as u32).collect();
    let mut round = 0u32;
    while !wl.is_empty() {
        let mut winners = Vec::new();
        let mut losers = Vec::new();
        for &v in &wl {
            let pv = prios[v as usize];
            let lost = g.neighbors(v).iter().any(|&u| {
                colors[u as usize] == UNCOLORED
                    && (prios[u as usize] > pv || (prios[u as usize] == pv && u > v))
            });
            if lost {
                losers.push(v);
            } else {
                winners.push(v);
            }
        }
        for v in winners {
            colors[v as usize] = round;
        }
        wl = losers;
        round += 1;
    }
    colors
}

/// True when no two adjacent vertices share a color and all are colored.
pub fn is_proper_coloring(g: &CsrGraph, colors: &[u32]) -> bool {
    (0..g.num_vertices()).all(|v| {
        colors[v as usize] != UNCOLORED
            && g.neighbors(v)
                .iter()
                .all(|&u| u == v || colors[u as usize] != colors[v as usize])
    })
}

/// Executes the coloring rounds on a bound `gpu` and validates against
/// [`host_coloring`] and [`is_proper_coloring`].
pub(crate) fn drive(
    gpu: &mut Gpu,
    name: &str,
    g: &CsrGraph,
    ids: &[KernelId],
) -> Result<(), SimError> {
    let [check, assign] = [ids[0], ids[1]];
    let n = g.num_vertices();
    let mut rng = StdRng::seed_from_u64(0xC01);
    let prios: Vec<u32> = (0..n).map(|_| rng.gen()).collect();

    let row = gpu.malloc((n + 1) * 4)?;
    let col = gpu.malloc(g.num_edges().max(1) * 4)?;
    let colors = gpu.malloc(n * 4)?;
    let pri = gpu.malloc(n * 4)?;
    let flags = gpu.malloc(n * 4)?;
    let wl_a = gpu.malloc(n * 4)?;
    let wl_b = gpu.malloc(n * 4)?;
    let cnt = gpu.malloc(4)?;

    gpu.mem_mut().write_slice_u32(row, &g.row_offsets);
    gpu.mem_mut().write_slice_u32(col, &g.col_indices);
    gpu.mem_mut()
        .write_slice_u32(colors, &vec![UNCOLORED; n as usize]);
    gpu.mem_mut().write_slice_u32(pri, &prios);
    gpu.mem_mut()
        .write_slice_u32(wl_a, &(0..n).collect::<Vec<u32>>());

    let mut wl = (wl_a, wl_b);
    let mut nwl = n;
    let mut round = 0u32;
    while nwl > 0 && round <= n {
        gpu.launch(
            check,
            ceil_div(nwl, PARENT_TB),
            &[row, col, colors, pri, flags, wl.0, nwl],
            0,
        )?;
        gpu.run_to_idle()?;
        gpu.mem_mut().write_u32(cnt, 0);
        gpu.launch(
            assign,
            ceil_div(nwl, PARENT_TB),
            &[colors, flags, wl.0, wl.1, cnt, nwl, round],
            0,
        )?;
        gpu.run_to_idle()?;
        nwl = gpu.mem().read_u32(cnt);
        wl = (wl.1, wl.0);
        round += 1;
    }

    let got = gpu.mem().read_vec_u32(colors, n as usize);
    let want = host_coloring(g, &prios);
    validate_u32(name, "color", &got, &want)?;
    if !is_proper_coloring(g, &got) {
        return Err(SimError::ValidationFailed {
            app: name.to_string(),
            detail: "coloring is not proper (adjacent vertices share a color)".into(),
        });
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::common::Variant;
    use crate::data::graph;
    use crate::App;
    use gpu_sim::GpuConfig;
    use std::sync::Arc;

    #[test]
    fn host_coloring_is_proper() {
        let g = graph::citation(300, 3, 1);
        let prios: Vec<u32> = (0..300u32).map(|v| v.wrapping_mul(2654435761)).collect();
        let c = host_coloring(&g, &prios);
        assert!(is_proper_coloring(&g, &c));
    }

    #[test]
    fn gpu_matches_host_on_all_variants() -> Result<(), SimError> {
        let app = App::Clr(Arc::new(graph::graph500_logn(200, 4, 2)));
        for v in [Variant::Flat, Variant::Cdp, Variant::Dtbl] {
            app.run("clr_test", v, GpuConfig::test_small())?;
        }
        Ok(())
    }

    #[test]
    fn skewed_graph_launches_dynamically() -> Result<(), SimError> {
        let app = App::Clr(Arc::new(graph::citation(400, 4, 9)));
        let r = app.run("clr_cit", Variant::Dtbl, GpuConfig::test_small())?;
        assert!(r.stats.dyn_launches() > 0);
        Ok(())
    }
}
