//! Breadth-first search with per-vertex neighbour expansion.
//!
//! Level-synchronous frontier BFS (Merrill et al.\[23\] is the paper's
//! flat baseline). Each frontier thread owns one vertex; the neighbour
//! loop over its (data-dependent) degree is the dynamically-formed
//! parallelism. The flat variant serializes it per thread; CDP launches a
//! `bfs_expand` device kernel per sufficiently large vertex; DTBL
//! launches the same expansion as an aggregated group, which coalesces to
//! the resident `bfs_expand` kernel (the Figure 2b shape).

use super::SOURCE;
use crate::common::{
    build_kernel, ceil_div, emit_dfp, guard, validate_u32, Dfp, LaunchMode, DFP_THRESHOLD,
};
use crate::data::CsrGraph;
use gpu_isa::{AtomOp, CmpOp, CmpTy, Dim3, KernelBuilder, KernelId, Op, Program, Space};
use gpu_sim::{Gpu, SimError};

const PARENT_TB: u32 = 128;
const INF: u32 = u32::MAX;

/// Parameter words of the `bfs_level` parent kernel.
const P_ROW: u16 = 0;
const P_COL: u16 = 1;
const P_DIST: u16 = 2;
const P_FIN: u16 = 3;
const P_FOUT: u16 = 4;
const P_CNT: u16 = 5;
const P_NF: u16 = 6;
const P_NEXT: u16 = 7;

pub(crate) fn build_program(mode: LaunchMode) -> Result<(Program, Vec<KernelId>), SimError> {
    let mut prog = Program::new();

    // Expand neighbour `i` of the edge list at `edges`: claim it for the
    // next level and append it to the output frontier.
    let expand = Dfp::new(
        &mut prog,
        "bfs_expand",
        |b, i, [edges, dist, fout, cnt, next]| {
            let ea = b.mad(i, Op::Imm(4), Op::Reg(edges));
            let u = b.ld(Space::Global, ea, 0);
            let da = b.mad(u, Op::Imm(4), Op::Reg(dist));
            let inf = b.imm(INF);
            let old = b.atom_cas(Space::Global, da, 0, inf, Op::Reg(next));
            let won = b.setp(CmpOp::Eq, CmpTy::U32, old, Op::Imm(INF));
            b.if_(won, |b| {
                let pos = b.atom(AtomOp::Add, Space::Global, cnt, 0, Op::Imm(1));
                let fa = b.mad(pos, Op::Imm(4), Op::Reg(fout));
                b.st(Space::Global, fa, 0, Op::Reg(u));
            });
        },
    )?;

    // Parent: one thread per frontier vertex.
    let mut pb = KernelBuilder::new("bfs_level", Dim3::x(PARENT_TB), 8);
    let gtid = guard(&mut pb, P_NF);
    let row = pb.ld_param(P_ROW);
    let col = pb.ld_param(P_COL);
    let dist = pb.ld_param(P_DIST);
    let fin = pb.ld_param(P_FIN);
    let fout = pb.ld_param(P_FOUT);
    let cnt = pb.ld_param(P_CNT);
    let next = pb.ld_param(P_NEXT);
    let va = pb.mad(gtid, Op::Imm(4), Op::Reg(fin));
    let v = pb.ld(Space::Global, va, 0);
    let ra = pb.mad(v, Op::Imm(4), Op::Reg(row));
    let start = pb.ld(Space::Global, ra, 0);
    let end = pb.ld(Space::Global, ra, 4);
    let deg = pb.isub(end, Op::Reg(start));
    let edge_addr = pb.mad(start, Op::Imm(4), Op::Reg(col));
    emit_dfp(
        &mut pb,
        mode,
        &expand,
        deg,
        DFP_THRESHOLD,
        [edge_addr, dist, fout, cnt, next],
    );
    let parent = prog.add(build_kernel(pb)?);
    Ok((prog, vec![parent, expand.child()]))
}

/// Host-side reference BFS.
pub fn host_bfs(g: &CsrGraph, source: u32) -> Vec<u32> {
    let n = g.num_vertices() as usize;
    let mut dist = vec![INF; n];
    let mut q = std::collections::VecDeque::new();
    dist[source as usize] = 0;
    q.push_back(source);
    while let Some(v) = q.pop_front() {
        for &u in g.neighbors(v) {
            if dist[u as usize] == INF {
                dist[u as usize] = dist[v as usize] + 1;
                q.push_back(u);
            }
        }
    }
    dist
}

/// Executes the frontier loop from [`SOURCE`] on a bound `gpu` and
/// validates distances against [`host_bfs`].
pub(crate) fn drive(
    gpu: &mut Gpu,
    name: &str,
    g: &CsrGraph,
    ids: &[KernelId],
) -> Result<(), SimError> {
    let n = g.num_vertices();

    let row = gpu.malloc((n + 1) * 4)?;
    let col = gpu.malloc(g.num_edges().max(1) * 4)?;
    let dist = gpu.malloc(n * 4)?;
    let f_a = gpu.malloc(n * 4)?;
    let f_b = gpu.malloc(n * 4)?;
    let cnt = gpu.malloc(4)?;

    gpu.mem_mut().write_slice_u32(row, &g.row_offsets);
    gpu.mem_mut().write_slice_u32(col, &g.col_indices);
    gpu.mem_mut().write_slice_u32(dist, &vec![INF; n as usize]);
    gpu.mem_mut().write_u32(dist + SOURCE * 4, 0);
    gpu.mem_mut().write_u32(f_a, SOURCE);

    let mut frontier = (f_a, f_b);
    let mut nf = 1u32;
    let mut level = 0u32;
    while nf > 0 && level <= n {
        gpu.mem_mut().write_u32(cnt, 0);
        gpu.launch(
            ids[0],
            ceil_div(nf, PARENT_TB),
            &[row, col, dist, frontier.0, frontier.1, cnt, nf, level + 1],
            0,
        )?;
        gpu.run_to_idle()?;
        nf = gpu.mem().read_u32(cnt);
        frontier = (frontier.1, frontier.0);
        level += 1;
    }

    let got = gpu.mem().read_vec_u32(dist, n as usize);
    validate_u32(name, "dist", &got, &host_bfs(g, SOURCE))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::common::Variant;
    use crate::data::graph;
    use crate::report::RunReport;
    use crate::App;
    use gpu_sim::GpuConfig;
    use std::sync::Arc;

    fn run(name: &str, g: CsrGraph, variant: Variant) -> Result<RunReport, SimError> {
        App::Bfs(Arc::new(g)).run(name, variant, GpuConfig::test_small())
    }

    #[test]
    fn flat_bfs_is_correct_on_citation() -> Result<(), SimError> {
        let r = run("bfs_test", graph::citation(400, 3, 1), Variant::Flat)?;
        assert!(r.stats.cycles > 0);
        assert_eq!(r.stats.dyn_launches(), 0, "flat never launches");
        Ok(())
    }

    #[test]
    fn cdp_and_dtbl_bfs_are_correct() -> Result<(), SimError> {
        let app = App::Bfs(Arc::new(graph::citation(400, 3, 2)));
        for v in [Variant::Cdp, Variant::Dtbl] {
            let r = app.run("bfs_test", v, GpuConfig::test_small())?;
            assert!(
                r.stats.dyn_launches() > 0,
                "{v}: skewed graph must trigger dynamic launches"
            );
        }
        Ok(())
    }

    #[test]
    fn road_grid_rarely_launches() -> Result<(), SimError> {
        let r = run("bfs_road", graph::usa_road(16, 16), Variant::Dtbl)?;
        // Degree ≤ 4 < threshold: no DFP big enough to launch (§5.2C).
        assert_eq!(r.stats.dyn_launches(), 0);
        Ok(())
    }

    #[test]
    fn dtbl_coalesces_on_skewed_graph() -> Result<(), SimError> {
        let r = run("bfs_cit", graph::citation(2_000, 6, 3), Variant::Dtbl)?;
        assert!(r.stats.dyn_launches() > 10, "skew must launch");
        // Early launches fall back (the eligible kernel is not resident
        // yet — the paper's "mismatches typically occur early"); once the
        // expansion kernel lands in the distributor, groups coalesce.
        assert!(
            r.stats.agg_coalesced > 0,
            "later groups must coalesce, rate {}",
            r.stats.match_rate()
        );
        Ok(())
    }

    #[test]
    fn disconnected_vertices_stay_unreached() -> Result<(), SimError> {
        // Two components: BFS from 0 must leave the other at INF.
        let g = CsrGraph::from_arc_replay(4, |arc| {
            for (s, t) in [(0, 1), (1, 0), (2, 3), (3, 2)] {
                arc(s, t);
            }
        });
        run("bfs_cc", g, Variant::Flat)?;
        Ok(())
    }
}
