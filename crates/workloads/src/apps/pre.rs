//! Product recommendation: item-based collaborative filtering (after
//! Nadungodage et al.\[25\]).
//!
//! Computes the similarity of every catalogue item to a query item as the
//! dot product of their rating vectors. The parent kernel owns one item
//! per thread; the loop over the item's rating list — power-law sized,
//! often in the thousands — is the dynamically-formed parallelism. This
//! is the paper's *coarse-grained* DFP benchmark (≈1528 threads per
//! dynamic launch), which is why its occupancy and waiting-time gains are
//! small (§5.2B).

use crate::common::{
    build_kernel, ceil_div, emit_dfp, guard, validate_u32, Dfp, LaunchMode, DFP_THRESHOLD,
};
use crate::data::ratings::RatingSet;
use gpu_isa::{AtomOp, CmpOp, CmpTy, Dim3, KernelBuilder, KernelId, Op, Program, Space};
use gpu_sim::{Gpu, SimError};

const PARENT_TB: u32 = 128;

pub(crate) fn build_program(mode: LaunchMode) -> Result<(Program, Vec<KernelId>), SimError> {
    let mut prog = Program::new();

    // Rating `i` of the item: `sim += vals[i] * qvec[users[i]]`, atomic
    // so that the launched and inlined loops run the same algorithm.
    let dot_step = Dfp::new(
        &mut prog,
        "pre_dot",
        |b, i, [users, vals, qvec, sim_addr]| {
            let ua = b.mad(i, Op::Imm(4), Op::Reg(users));
            let u = b.ld(Space::Global, ua, 0);
            let va = b.mad(i, Op::Imm(4), Op::Reg(vals));
            let r = b.ld(Space::Global, va, 0);
            let qa = b.mad(u, Op::Imm(4), Op::Reg(qvec));
            let q = b.ld(Space::Global, qa, 0);
            let prod = b.imul(r, Op::Reg(q));
            let nz = b.setp(CmpOp::Ne, CmpTy::U32, prod, Op::Imm(0));
            b.if_(nz, |b| {
                b.atom_noret(AtomOp::Add, Space::Global, sim_addr, 0, Op::Reg(prod));
            });
        },
    )?;

    // Parent: one thread per item; params:
    // [item_offsets, users, vals, qvec, sims, n_items].
    let mut pb = KernelBuilder::new("pre_item", Dim3::x(PARENT_TB), 6);
    let gtid = guard(&mut pb, 5);
    let offs = pb.ld_param(0);
    let users = pb.ld_param(1);
    let vals = pb.ld_param(2);
    let qvec = pb.ld_param(3);
    let sims = pb.ld_param(4);
    let oa = pb.mad(gtid, Op::Imm(4), Op::Reg(offs));
    let start = pb.ld(Space::Global, oa, 0);
    let end = pb.ld(Space::Global, oa, 4);
    let cnt = pb.isub(end, Op::Reg(start));
    let users_addr = pb.mad(start, Op::Imm(4), Op::Reg(users));
    let vals_addr = pb.mad(start, Op::Imm(4), Op::Reg(vals));
    let sim_addr = pb.mad(gtid, Op::Imm(4), Op::Reg(sims));
    emit_dfp(
        &mut pb,
        mode,
        &dot_step,
        cnt,
        DFP_THRESHOLD,
        [users_addr, vals_addr, qvec, sim_addr],
    );
    let parent = prog.add(build_kernel(pb)?);
    Ok((prog, vec![parent]))
}

/// Host reference: per-item dot products against the query item's dense
/// rating vector.
pub fn host_similarities(r: &RatingSet, query_item: u32) -> Vec<u32> {
    let mut qvec = vec![0u32; r.num_users as usize];
    for (u, v) in r.item_ratings(query_item) {
        qvec[u as usize] = v;
    }
    (0..r.num_items())
        .map(|i| {
            r.item_ratings(i)
                .map(|(u, v)| v.wrapping_mul(qvec[u as usize]))
                .fold(0u32, u32::wrapping_add)
        })
        .collect()
}

/// Executes the similarity computation on a bound `gpu` and validates
/// every item's score.
pub(crate) fn drive(
    gpu: &mut Gpu,
    name: &str,
    r: &RatingSet,
    ids: &[KernelId],
) -> Result<(), SimError> {
    let query_item = 0u32;
    let mut qvec_host = vec![0u32; r.num_users as usize];
    for (u, v) in r.item_ratings(query_item) {
        qvec_host[u as usize] = v;
    }
    let n_items = r.num_items();

    let offs = gpu.malloc((n_items + 1) * 4)?;
    let users = gpu.malloc(r.num_ratings().max(1) * 4)?;
    let vals = gpu.malloc(r.num_ratings().max(1) * 4)?;
    let qvec = gpu.malloc(r.num_users.max(1) * 4)?;
    let sims = gpu.malloc(n_items * 4)?;

    gpu.mem_mut().write_slice_u32(offs, &r.item_offsets);
    gpu.mem_mut().write_slice_u32(users, &r.users);
    gpu.mem_mut().write_slice_u32(vals, &r.values);
    gpu.mem_mut().write_slice_u32(qvec, &qvec_host);

    gpu.launch(
        ids[0],
        ceil_div(n_items, PARENT_TB),
        &[offs, users, vals, qvec, sims, n_items],
        0,
    )?;
    gpu.run_to_idle()?;

    let got = gpu.mem().read_vec_u32(sims, n_items as usize);
    validate_u32(name, "similarity", &got, &host_similarities(r, query_item))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::common::Variant;
    use crate::data::ratings;
    use crate::App;
    use gpu_sim::GpuConfig;
    use std::sync::Arc;

    #[test]
    fn similarities_match_host() -> Result<(), SimError> {
        let app = App::Pre(Arc::new(ratings::movielens_like(60, 400, 120, 1)));
        for v in [Variant::Flat, Variant::Cdp, Variant::Dtbl] {
            app.run("pre_test", v, GpuConfig::test_small())?;
        }
        Ok(())
    }

    #[test]
    fn dfp_is_coarse_grained() -> Result<(), SimError> {
        let app = App::Pre(Arc::new(ratings::movielens_like(60, 1500, 900, 2)));
        let rep = app.run("pre_test", Variant::Dtbl, GpuConfig::test_small())?;
        if rep.stats.dyn_launches() > 0 {
            assert!(
                rep.stats.avg_dyn_launch_threads() > 100.0,
                "popular-item lists are large: {}",
                rep.stats.avg_dyn_launch_threads()
            );
        }
        Ok(())
    }
}
