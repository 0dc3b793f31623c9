//! Barnes-Hut quadtree construction over random points (after Burtscher &
//! Pingali\[8\]).
//!
//! Level-synchronous top-down build. Each tree node with more than
//! `LEAF_CAP` bodies is split into four quadrants; classifying and
//! scattering a node's bodies — whose count varies wildly between nodes —
//! is the dynamically-formed parallelism. The root's body list is huge
//! and deep nodes are tiny, giving the fine-grained launch mix the paper
//! reports for `bht` (avg ≈33 threads/launch, the biggest occupancy win
//! in Figure 8).

use crate::common::{build_kernel, ceil_div, emit_dfp, guard, Dfp, LaunchMode, DFP_THRESHOLD};
use crate::data::points::PointSet;
use gpu_isa::{AtomOp, CmpOp, CmpTy, Dim3, KernelBuilder, KernelId, Op, Program, Reg, Space};
use gpu_sim::{Gpu, SimError};

const PARENT_TB: u32 = 64;
/// Maximum bodies in a leaf.
pub const LEAF_CAP: u32 = 32;
/// Words per node record: `[x0, y0, size_log2, body_start, body_count]`.
const NODE_WORDS: u32 = 5;

/// Emits quadrant classification of body `i`:
/// `q = (x >= xmid) + 2*(y >= ymid)`.
fn emit_quadrant(
    b: &mut KernelBuilder,
    i: Reg,
    bodies: Reg,
    xs: Reg,
    ys: Reg,
    xmid: Reg,
    ymid: Reg,
) -> (Reg, Reg) {
    let ba = b.mad(i, Op::Imm(4), Op::Reg(bodies));
    let body = b.ld(Space::Global, ba, 0);
    let xa = b.mad(body, Op::Imm(4), Op::Reg(xs));
    let x = b.ld(Space::Global, xa, 0);
    let ya = b.mad(body, Op::Imm(4), Op::Reg(ys));
    let y = b.ld(Space::Global, ya, 0);
    let px = b.setp(CmpOp::Ge, CmpTy::U32, x, Op::Reg(xmid));
    let py = b.setp(CmpOp::Ge, CmpTy::U32, y, Op::Reg(ymid));
    let qx = b.sel(px, Op::Imm(1), Op::Imm(0));
    let qy = b.sel(py, Op::Imm(2), Op::Imm(0));
    let q = b.iadd(qx, Op::Reg(qy));
    (q, body)
}

/// Loads a node record and returns `(x0, y0, slog, start, count)`.
fn load_node(b: &mut KernelBuilder, nodes: Reg, idx: Reg) -> (Reg, Reg, Reg, Reg, Reg) {
    let stride = b.imul(idx, Op::Imm(NODE_WORDS * 4));
    let na = b.iadd(stride, Op::Reg(nodes));
    let x0 = b.ld(Space::Global, na, 0);
    let y0 = b.ld(Space::Global, na, 4);
    let slog = b.ld(Space::Global, na, 8);
    let start = b.ld(Space::Global, na, 12);
    let count = b.ld(Space::Global, na, 16);
    (x0, y0, slog, start, count)
}

/// Emits midpoint computation `x0 + 2^(slog-1)`.
fn emit_mid(b: &mut KernelBuilder, x0: Reg, slog: Reg) -> Reg {
    let sm1 = b.isub(slog, Op::Imm(1));
    let one = b.imm(1);
    let half = b.shl(one, Op::Reg(sm1));
    b.iadd(x0, Op::Reg(half))
}

pub(crate) fn build_program(mode: LaunchMode) -> Result<(Program, Vec<KernelId>), SimError> {
    let mut prog = Program::new();

    // Classify body `i` of a node's body list and count it in its
    // quadrant.
    let count_child = Dfp::new(
        &mut prog,
        "bht_count_child",
        |b, i, [bodies, xs, ys, xmid, ymid, qc]| {
            let (q, _) = emit_quadrant(b, i, bodies, xs, ys, xmid, ymid);
            let qa = b.mad(q, Op::Imm(4), Op::Reg(qc));
            b.atom_noret(AtomOp::Add, Space::Global, qa, 0, Op::Imm(1));
        },
    )?;

    // Classify body `i` again and scatter it to its quadrant's next slot.
    let scatter_child = Dfp::new(
        &mut prog,
        "bht_scatter_child",
        |b, i, [bodies, xs, ys, xmid, ymid, qcur, bout]| {
            let (q, body) = emit_quadrant(b, i, bodies, xs, ys, xmid, ymid);
            let qa = b.mad(q, Op::Imm(4), Op::Reg(qcur));
            let pos = b.atom(AtomOp::Add, Space::Global, qa, 0, Op::Imm(1));
            let oa = b.mad(pos, Op::Imm(4), Op::Reg(bout));
            b.st(Space::Global, oa, 0, Op::Reg(body));
        },
    )?;

    // Count kernel: per node; params
    // [nodes, n_nodes, xs, ys, bodies_in, qcounts, leaf_total].
    let mut kb = KernelBuilder::new("bht_count", Dim3::x(PARENT_TB), 7);
    let gtid = guard(&mut kb, 1);
    let nodes = kb.ld_param(0);
    let xs = kb.ld_param(2);
    let ys = kb.ld_param(3);
    let bin = kb.ld_param(4);
    let qcounts = kb.ld_param(5);
    let leaf_total = kb.ld_param(6);
    let (x0, y0, slog, start, count) = load_node(&mut kb, nodes, gtid);
    let small = kb.setp(CmpOp::Le, CmpTy::U32, count, Op::Imm(LEAF_CAP));
    let bottom = kb.setp(CmpOp::Eq, CmpTy::U32, slog, Op::Imm(0));
    let leaf = kb.por(small, bottom);
    kb.if_else_(
        leaf,
        |b| {
            b.atom_noret(AtomOp::Add, Space::Global, leaf_total, 0, Op::Reg(count));
        },
        |b| {
            let xmid = emit_mid(b, x0, slog);
            let ymid = emit_mid(b, y0, slog);
            let bodies_addr = b.mad(start, Op::Imm(4), Op::Reg(bin));
            let qc_addr = b.mad(gtid, Op::Imm(16), Op::Reg(qcounts));
            emit_dfp(
                b,
                mode,
                &count_child,
                count,
                DFP_THRESHOLD,
                [bodies_addr, xs, ys, xmid, ymid, qc_addr],
            );
        },
    );
    let count_k = prog.add(build_kernel(kb)?);

    // Emit kernel (flat in every variant): computes child offsets and
    // emits non-empty child nodes; params
    // [nodes, n_nodes, qcounts, qcursor, nodes_out, out_cnt, body_cursor].
    let mut eb = KernelBuilder::new("bht_emit", Dim3::x(PARENT_TB), 7);
    let gtid = guard(&mut eb, 1);
    let nodes = eb.ld_param(0);
    let qcounts = eb.ld_param(2);
    let qcursor = eb.ld_param(3);
    let nout = eb.ld_param(4);
    let out_cnt = eb.ld_param(5);
    let body_cur = eb.ld_param(6);
    let (x0, y0, slog, _start, count) = load_node(&mut eb, nodes, gtid);
    let small = eb.setp(CmpOp::Le, CmpTy::U32, count, Op::Imm(LEAF_CAP));
    let bottom = eb.setp(CmpOp::Eq, CmpTy::U32, slog, Op::Imm(0));
    let leaf = eb.por(small, bottom);
    let not_leaf = eb.pnot(leaf);
    eb.if_(not_leaf, |b| {
        let base = b.atom(AtomOp::Add, Space::Global, body_cur, 0, Op::Reg(count));
        let qc_addr = b.mad(gtid, Op::Imm(16), Op::Reg(qcounts));
        let running = b.mov(Op::Reg(base));
        let slog1 = b.isub(slog, Op::Imm(1));
        let one = b.imm(1);
        let half = b.shl(one, Op::Reg(slog1));
        for k in 0..4u32 {
            let qk = b.ld(Space::Global, qc_addr, (k * 4) as i32);
            // Record the scatter cursor for quadrant k.
            let qcur_addr = b.mad(gtid, Op::Imm(16), Op::Reg(qcursor));
            b.st(Space::Global, qcur_addr, (k * 4) as i32, Op::Reg(running));
            let nonempty = b.setp(CmpOp::Gt, CmpTy::U32, qk, Op::Imm(0));
            b.if_(nonempty, |b| {
                let pos = b.atom(AtomOp::Add, Space::Global, out_cnt, 0, Op::Imm(1));
                let stride = b.imul(pos, Op::Imm(NODE_WORDS * 4));
                let na = b.iadd(stride, Op::Reg(nout));
                let cx = if k % 2 == 1 {
                    b.iadd(x0, Op::Reg(half))
                } else {
                    b.mov(Op::Reg(x0))
                };
                let cy = if k / 2 == 1 {
                    b.iadd(y0, Op::Reg(half))
                } else {
                    b.mov(Op::Reg(y0))
                };
                b.st(Space::Global, na, 0, Op::Reg(cx));
                b.st(Space::Global, na, 4, Op::Reg(cy));
                b.st(Space::Global, na, 8, Op::Reg(slog1));
                b.st(Space::Global, na, 12, Op::Reg(running));
                b.st(Space::Global, na, 16, Op::Reg(qk));
            });
            let next = b.iadd(running, Op::Reg(qk));
            b.mov_to(running, Op::Reg(next));
        }
    });
    let emit_k = prog.add(build_kernel(eb)?);

    // Scatter kernel: per node; params
    // [nodes, n_nodes, xs, ys, bodies_in, bodies_out, qcursor].
    let mut skb = KernelBuilder::new("bht_scatter", Dim3::x(PARENT_TB), 7);
    let gtid = guard(&mut skb, 1);
    let nodes = skb.ld_param(0);
    let xs = skb.ld_param(2);
    let ys = skb.ld_param(3);
    let bin = skb.ld_param(4);
    let bout = skb.ld_param(5);
    let qcursor = skb.ld_param(6);
    let (x0, y0, slog, start, count) = load_node(&mut skb, nodes, gtid);
    let small = skb.setp(CmpOp::Le, CmpTy::U32, count, Op::Imm(LEAF_CAP));
    let bottom = skb.setp(CmpOp::Eq, CmpTy::U32, slog, Op::Imm(0));
    let leaf = skb.por(small, bottom);
    let not_leaf = skb.pnot(leaf);
    skb.if_(not_leaf, |b| {
        let xmid = emit_mid(b, x0, slog);
        let ymid = emit_mid(b, y0, slog);
        let bodies_addr = b.mad(start, Op::Imm(4), Op::Reg(bin));
        let qcur_addr = b.mad(gtid, Op::Imm(16), Op::Reg(qcursor));
        emit_dfp(
            b,
            mode,
            &scatter_child,
            count,
            DFP_THRESHOLD,
            [bodies_addr, xs, ys, xmid, ymid, qcur_addr, bout],
        );
    });
    let scatter_k = prog.add(build_kernel(skb)?);

    Ok((prog, vec![count_k, emit_k, scatter_k]))
}

/// Side length (log2) of the host pre-split grid: real flat tree builders
/// parallelize the top of the tree over bodies; this reproduction's
/// per-node kernels would serialize the root's whole body list in one
/// thread instead, so all variants start from the same body-binned grid
/// (documented in DESIGN.md).
pub fn pre_split_log2(n_points: usize) -> u32 {
    if n_points >= 4_000 {
        4 // 16 x 16 top-level cells
    } else {
        2 // 4 x 4
    }
}

fn top_level_nodes(p: &PointSet) -> Vec<(u32, u32, Vec<u32>)> {
    let g = pre_split_log2(p.len());
    let slog0 = p.extent.trailing_zeros();
    let cell_log = slog0 - g;
    let side = 1u32 << g;
    let mut cells: Vec<Vec<u32>> = vec![Vec::new(); (side * side) as usize];
    for b in 0..p.len() as u32 {
        let cx = p.xs[b as usize] >> cell_log;
        let cy = p.ys[b as usize] >> cell_log;
        cells[(cy * side + cx) as usize].push(b);
    }
    cells
        .into_iter()
        .enumerate()
        .filter(|(_, v)| !v.is_empty())
        .map(|(i, v)| {
            let cx = i as u32 % side;
            let cy = i as u32 / side;
            (cx << cell_log, cy << cell_log, v)
        })
        .collect()
}

/// Host mirror of the level-synchronous build; returns
/// `(total_leaf_bodies, total_leaves, max_depth_reached)`.
pub fn host_build(p: &PointSet) -> (u64, u64, u32) {
    #[derive(Clone)]
    struct Node {
        x0: u32,
        y0: u32,
        slog: u32,
        bodies: Vec<u32>,
    }
    let slog0 = p.extent.trailing_zeros() - pre_split_log2(p.len());
    let mut level: Vec<Node> = top_level_nodes(p)
        .into_iter()
        .map(|(x0, y0, bodies)| Node {
            x0,
            y0,
            slog: slog0,
            bodies,
        })
        .collect();
    let mut leaf_bodies = 0u64;
    let mut leaves = 0u64;
    let mut depth = 0u32;
    while !level.is_empty() {
        let mut next = Vec::new();
        for node in &level {
            if node.bodies.len() as u32 <= LEAF_CAP || node.slog == 0 {
                leaf_bodies += node.bodies.len() as u64;
                leaves += 1;
                continue;
            }
            let half = 1u32 << (node.slog - 1);
            let mut quads: [Vec<u32>; 4] = Default::default();
            for &b in &node.bodies {
                let qx = u32::from(p.xs[b as usize] >= node.x0 + half);
                let qy = u32::from(p.ys[b as usize] >= node.y0 + half);
                quads[(qy * 2 + qx) as usize].push(b);
            }
            for (k, q) in quads.into_iter().enumerate() {
                if !q.is_empty() {
                    next.push(Node {
                        x0: node.x0 + (k as u32 % 2) * half,
                        y0: node.y0 + (k as u32 / 2) * half,
                        slog: node.slog - 1,
                        bodies: q,
                    });
                }
            }
        }
        level = next;
        if !level.is_empty() {
            depth += 1;
        }
    }
    (leaf_bodies, leaves, depth)
}

/// Executes the level-by-level tree build on a bound `gpu` and validates
/// the leaf body total against [`host_build`] (every body must land in
/// exactly one leaf).
pub(crate) fn drive(
    gpu: &mut Gpu,
    name: &str,
    p: &PointSet,
    ids: &[KernelId],
) -> Result<(), SimError> {
    let [count_k, emit_k, scatter_k] = [ids[0], ids[1], ids[2]];
    let n = p.len() as u32;

    // Generous node bound: each level splits off at most 4x nodes but is
    // also bounded by n / (CAP/4); use 8n/CAP + 64.
    let max_nodes = (8 * n / LEAF_CAP + 64).max(256);
    let xs = gpu.malloc(n * 4)?;
    let ys = gpu.malloc(n * 4)?;
    let nodes_a = gpu.malloc(max_nodes * NODE_WORDS * 4)?;
    let nodes_b = gpu.malloc(max_nodes * NODE_WORDS * 4)?;
    let bodies_a = gpu.malloc(n * 4)?;
    let bodies_b = gpu.malloc(n * 4)?;
    let qcounts = gpu.malloc(max_nodes * 16)?;
    let qcursor = gpu.malloc(max_nodes * 16)?;
    let leaf_total = gpu.malloc(4)?;
    let out_cnt = gpu.malloc(4)?;
    let body_cur = gpu.malloc(4)?;

    gpu.mem_mut().write_slice_u32(xs, &p.xs);
    gpu.mem_mut().write_slice_u32(ys, &p.ys);
    let slog0 = p.extent.trailing_zeros() - pre_split_log2(p.len());
    let top = top_level_nodes(p);
    let mut node_words = Vec::new();
    let mut body_order = Vec::new();
    for (x0, y0, cell_bodies) in &top {
        node_words.extend_from_slice(&[
            *x0,
            *y0,
            slog0,
            body_order.len() as u32,
            cell_bodies.len() as u32,
        ]);
        body_order.extend_from_slice(cell_bodies);
    }
    gpu.mem_mut().write_slice_u32(nodes_a, &node_words);
    gpu.mem_mut().write_slice_u32(bodies_a, &body_order);
    gpu.mem_mut().write_u32(leaf_total, 0);

    let mut nodes = (nodes_a, nodes_b);
    let mut bodies = (bodies_a, bodies_b);
    let mut n_nodes = top.len() as u32;
    while n_nodes > 0 {
        if n_nodes > max_nodes {
            return Err(SimError::ValidationFailed {
                app: name.to_string(),
                detail: format!("node bound exceeded: {n_nodes} > {max_nodes}"),
            });
        }
        // Zero this level's quadrant counters.
        gpu.mem_mut()
            .write_slice_u32(qcounts, &vec![0u32; (n_nodes * 4) as usize]);
        gpu.launch(
            count_k,
            ceil_div(n_nodes, PARENT_TB),
            &[nodes.0, n_nodes, xs, ys, bodies.0, qcounts, leaf_total],
            0,
        )?;
        gpu.run_to_idle()?;

        gpu.mem_mut().write_u32(out_cnt, 0);
        gpu.mem_mut().write_u32(body_cur, 0);
        gpu.launch(
            emit_k,
            ceil_div(n_nodes, PARENT_TB),
            &[
                nodes.0, n_nodes, qcounts, qcursor, nodes.1, out_cnt, body_cur,
            ],
            0,
        )?;
        gpu.run_to_idle()?;

        gpu.launch(
            scatter_k,
            ceil_div(n_nodes, PARENT_TB),
            &[nodes.0, n_nodes, xs, ys, bodies.0, bodies.1, qcursor],
            0,
        )?;
        gpu.run_to_idle()?;

        n_nodes = gpu.mem().read_u32(out_cnt);
        nodes = (nodes.1, nodes.0);
        bodies = (bodies.1, bodies.0);
    }

    let got_leaf_bodies = u64::from(gpu.mem().read_u32(leaf_total));
    let (want_leaf_bodies, _, _) = host_build(p);
    if got_leaf_bodies != want_leaf_bodies || got_leaf_bodies != u64::from(n) {
        return Err(SimError::ValidationFailed {
            app: name.to_string(),
            detail: format!(
                "leaf body total {got_leaf_bodies}, host counted \
                 {want_leaf_bodies} of {n} bodies"
            ),
        });
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::common::Variant;
    use crate::data::points;
    use crate::App;
    use gpu_sim::GpuConfig;
    use std::sync::Arc;

    #[test]
    fn host_build_conserves_bodies() {
        let p = points::random_points(500, 8, 1);
        let (bodies, leaves, depth) = host_build(&p);
        assert_eq!(bodies, 500);
        assert!(leaves >= 4, "500 bodies with cap 32 must split");
        assert!(depth >= 1);
    }

    #[test]
    fn gpu_build_matches_host_on_all_variants() -> Result<(), SimError> {
        let app = App::Bht(Arc::new(points::random_points(400, 8, 2)));
        for v in [Variant::Flat, Variant::Cdp, Variant::Dtbl] {
            app.run("bht_test", v, GpuConfig::test_small())?;
        }
        Ok(())
    }

    #[test]
    fn clustered_points_build_deeper_trees() -> Result<(), SimError> {
        let u = points::random_points(600, 10, 3);
        let c = points::clustered_points(600, 10, 2, 3);
        let (_, _, du) = host_build(&u);
        let (_, _, dc) = host_build(&c);
        assert!(dc >= du, "clusters force deeper refinement ({dc} vs {du})");
        App::Bht(Arc::new(c)).run("bht_clustered", Variant::Dtbl, GpuConfig::test_small())?;
        Ok(())
    }

    #[test]
    fn tiny_input_makes_only_pre_split_leaves() -> Result<(), SimError> {
        let p = points::random_points(10, 6, 4);
        let (bodies, leaves, depth) = host_build(&p);
        assert_eq!(bodies, 10);
        // Every occupied pre-split cell is immediately a leaf (≤ cap).
        assert!((1..=10).contains(&leaves), "{leaves} leaves");
        assert_eq!(depth, 0, "nothing recurses below the pre-split grid");
        App::Bht(Arc::new(p)).run("bht_tiny", Variant::Flat, GpuConfig::test_small())?;
        Ok(())
    }
}
