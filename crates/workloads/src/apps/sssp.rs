//! Single-source shortest path: frontier-based Bellman-Ford relaxation.
//!
//! Same structure as [`bfs`](crate::apps::bfs) but with weighted edges,
//! `atomicMin` relaxation, and re-insertion of improved vertices. The
//! per-vertex neighbour relaxation loop is the dynamically-formed
//! parallelism.

use super::SOURCE;
use crate::common::{
    build_kernel, ceil_div, emit_dfp, guard, validate_u32, Dfp, LaunchMode, DFP_THRESHOLD,
};
use crate::data::CsrGraph;
use gpu_isa::{AtomOp, CmpOp, CmpTy, Dim3, KernelBuilder, KernelId, Op, Program, Space};
use gpu_sim::{Gpu, SimError};

const PARENT_TB: u32 = 128;
const INF: u32 = u32::MAX;

pub(crate) fn build_program(mode: LaunchMode) -> Result<(Program, Vec<KernelId>), SimError> {
    let mut prog = Program::new();

    // Edge `i`: `u = edges[i]; nd = dv + w[i]; if atomicMin(dist[u], nd)
    // > nd and flags[u] != tag { push u }`.
    let relax = Dfp::new(
        &mut prog,
        "sssp_relax",
        |b, i, [edges, weights, dist, dv, flags, fout, cnt, tag]| {
            let ea = b.mad(i, Op::Imm(4), Op::Reg(edges));
            let u = b.ld(Space::Global, ea, 0);
            let wa = b.mad(i, Op::Imm(4), Op::Reg(weights));
            let w = b.ld(Space::Global, wa, 0);
            let nd = b.iadd(dv, Op::Reg(w));
            let du = b.mad(u, Op::Imm(4), Op::Reg(dist));
            let old = b.atom(AtomOp::MinU, Space::Global, du, 0, Op::Reg(nd));
            let improved = b.setp(CmpOp::Lt, CmpTy::U32, nd, Op::Reg(old));
            b.if_(improved, |b| {
                let fa = b.mad(u, Op::Imm(4), Op::Reg(flags));
                let prev = b.atom(AtomOp::Exch, Space::Global, fa, 0, Op::Reg(tag));
                let fresh = b.setp(CmpOp::Ne, CmpTy::U32, prev, Op::Reg(tag));
                b.if_(fresh, |b| {
                    let pos = b.atom(AtomOp::Add, Space::Global, cnt, 0, Op::Imm(1));
                    let oa = b.mad(pos, Op::Imm(4), Op::Reg(fout));
                    b.st(Space::Global, oa, 0, Op::Reg(u));
                });
            });
        },
    )?;

    // Parent: one thread per frontier vertex; params:
    // [row, col, w, dist, fin, fout, cnt, flags, nf, tag].
    let mut pb = KernelBuilder::new("sssp_level", Dim3::x(PARENT_TB), 10);
    let gtid = guard(&mut pb, 8);
    let row = pb.ld_param(0);
    let col = pb.ld_param(1);
    let wts = pb.ld_param(2);
    let dist = pb.ld_param(3);
    let fin = pb.ld_param(4);
    let fout = pb.ld_param(5);
    let cnt = pb.ld_param(6);
    let flags = pb.ld_param(7);
    let tag = pb.ld_param(9);
    let va = pb.mad(gtid, Op::Imm(4), Op::Reg(fin));
    let v = pb.ld(Space::Global, va, 0);
    let ra = pb.mad(v, Op::Imm(4), Op::Reg(row));
    let start = pb.ld(Space::Global, ra, 0);
    let end = pb.ld(Space::Global, ra, 4);
    let deg = pb.isub(end, Op::Reg(start));
    let edge_addr = pb.mad(start, Op::Imm(4), Op::Reg(col));
    let weight_addr = pb.mad(start, Op::Imm(4), Op::Reg(wts));
    let da = pb.mad(v, Op::Imm(4), Op::Reg(dist));
    let dv = pb.ld(Space::Global, da, 0);
    emit_dfp(
        &mut pb,
        mode,
        &relax,
        deg,
        DFP_THRESHOLD,
        [edge_addr, weight_addr, dist, dv, flags, fout, cnt, tag],
    );
    let parent = prog.add(build_kernel(pb)?);
    Ok((prog, vec![parent]))
}

/// Host reference: Bellman-Ford to fixpoint.
pub fn host_sssp(g: &CsrGraph, source: u32) -> Vec<u32> {
    let n = g.num_vertices() as usize;
    let mut dist = vec![INF; n];
    dist[source as usize] = 0;
    let mut changed = true;
    while changed {
        changed = false;
        for v in 0..n as u32 {
            let dv = dist[v as usize];
            if dv == INF {
                continue;
            }
            let s = g.row_offsets[v as usize] as usize;
            for (k, &u) in g.neighbors(v).iter().enumerate() {
                let nd = dv.saturating_add(g.weight_at(s + k));
                if nd < dist[u as usize] {
                    dist[u as usize] = nd;
                    changed = true;
                }
            }
        }
    }
    dist
}

/// Executes the relaxation rounds from [`SOURCE`] on a bound `gpu` and
/// validates against [`host_sssp`].
pub(crate) fn drive(
    gpu: &mut Gpu,
    name: &str,
    g: &CsrGraph,
    ids: &[KernelId],
) -> Result<(), SimError> {
    let weights: Vec<u32> = g
        .weights
        .clone()
        .unwrap_or_else(|| vec![1; g.num_edges() as usize]);
    let n = g.num_vertices();

    let row = gpu.malloc((n + 1) * 4)?;
    let col = gpu.malloc(g.num_edges().max(1) * 4)?;
    let wts = gpu.malloc(g.num_edges().max(1) * 4)?;
    let dist = gpu.malloc(n * 4)?;
    let f_a = gpu.malloc(n * 4)?;
    let f_b = gpu.malloc(n * 4)?;
    let flags = gpu.malloc(n * 4)?;
    let cnt = gpu.malloc(4)?;

    gpu.mem_mut().write_slice_u32(row, &g.row_offsets);
    gpu.mem_mut().write_slice_u32(col, &g.col_indices);
    gpu.mem_mut().write_slice_u32(wts, &weights);
    gpu.mem_mut().write_slice_u32(dist, &vec![INF; n as usize]);
    gpu.mem_mut().write_slice_u32(flags, &vec![0; n as usize]);
    gpu.mem_mut().write_u32(dist + SOURCE * 4, 0);
    gpu.mem_mut().write_u32(f_a, SOURCE);

    let mut frontier = (f_a, f_b);
    let mut nf = 1u32;
    let mut round = 0u32;
    while nf > 0 && round < 4 * n + 8 {
        gpu.mem_mut().write_u32(cnt, 0);
        let tag = round + 1;
        gpu.launch(
            ids[0],
            ceil_div(nf, PARENT_TB),
            &[
                row, col, wts, dist, frontier.0, frontier.1, cnt, flags, nf, tag,
            ],
            0,
        )?;
        gpu.run_to_idle()?;
        nf = gpu.mem().read_u32(cnt);
        frontier = (frontier.1, frontier.0);
        round += 1;
    }

    let got = gpu.mem().read_vec_u32(dist, n as usize);
    validate_u32(name, "dist", &got, &host_sssp(g, SOURCE))
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
    fn host_sssp_small_case() {
        // 0 -(5)-> 1, 0 -(2)-> 2, 2 -(2)-> 1.
        let g = CsrGraph {
            row_offsets: vec![0, 2, 2, 3],
            col_indices: vec![1, 2, 1],
            weights: Some(vec![5, 2, 2]),
        };
        assert_eq!(host_sssp(&g, 0), vec![0, 4, 2]);
    }

    #[test]
    fn all_variants_agree_on_weighted_citation() -> Result<(), SimError> {
        let app = App::Sssp(Arc::new(
            graph::citation(250, 3, 4).with_random_weights(9, 4),
        ));
        for v in [Variant::Flat, Variant::Cdp, Variant::Dtbl] {
            app.run("sssp_test", v, GpuConfig::test_small())?;
        }
        Ok(())
    }

    #[test]
    fn flight_network_rarely_launches() -> Result<(), SimError> {
        let g = Arc::new(graph::flight(300, 6, 2).with_random_weights(5, 2));
        let r = App::Sssp(g.clone()).run("sssp_flight", Variant::Dtbl, GpuConfig::test_small())?;
        // Spokes have degree ≤ 3; only the few hubs can trigger launches.
        assert!(
            (r.stats.dyn_launches() as u32) < g.num_vertices() / 10,
            "low-degree graph must launch rarely ({} launches)",
            r.stats.dyn_launches()
        );
        Ok(())
    }
}
