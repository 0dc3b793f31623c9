//! Relational hash join (after Diamos et al.\[12\]).
//!
//! The build side is organized into hash buckets (CSR layout, built
//! identically for every variant); the probe kernel owns one probe tuple
//! per thread and scans its bucket's chain — whose length is the
//! dynamically-formed parallelism. Uniform keys give short, even chains;
//! Gaussian keys concentrate tuples in a few buckets, the imbalance that
//! makes `join_gaussian` one of the biggest warp-activity winners in
//! Figure 6.

use crate::common::{build_kernel, ceil_div, emit_dfp, guard, Dfp, LaunchMode, DFP_THRESHOLD};
use crate::data::relations::JoinInput;
use gpu_isa::{AtomOp, CmpOp, CmpTy, Dim3, KernelBuilder, KernelId, Op, Program, Space};
use gpu_sim::{Gpu, SimError};

const PARENT_TB: u32 = 128;

/// Buckets = domain / 4, so chains average ~4 × build-size / domain.
fn num_buckets(domain: u32) -> u32 {
    (domain / 4).max(1)
}

pub(crate) fn build_program(mode: LaunchMode) -> Result<(Program, Vec<KernelId>), SimError> {
    let mut prog = Program::new();

    // Chain entry `i`: on key equality, reserve an output slot and record
    // the probe tuple id.
    let probe_step = Dfp::new(
        &mut prog,
        "join_chain",
        |b, i, [chain, key, matches, out, probe_idx]| {
            let ea = b.mad(i, Op::Imm(4), Op::Reg(chain));
            let bk = b.ld(Space::Global, ea, 0);
            let eq = b.setp(CmpOp::Eq, CmpTy::U32, bk, Op::Reg(key));
            b.if_(eq, |b| {
                let pos = b.atom(AtomOp::Add, Space::Global, matches, 0, Op::Imm(1));
                let oa = b.mad(pos, Op::Imm(4), Op::Reg(out));
                b.st(Space::Global, oa, 0, Op::Reg(probe_idx));
            });
        },
    )?;

    // Probe kernel: one thread per probe tuple; params:
    // [bucket_off, bucket_keys, probe_keys, matches, out, n_probe, nbuckets].
    let mut pb = KernelBuilder::new("join_probe", Dim3::x(PARENT_TB), 7);
    let gtid = guard(&mut pb, 5);
    let boff = pb.ld_param(0);
    let bkeys = pb.ld_param(1);
    let pkeys = pb.ld_param(2);
    let matches = pb.ld_param(3);
    let out = pb.ld_param(4);
    let nb = pb.ld_param(6);
    let ka = pb.mad(gtid, Op::Imm(4), Op::Reg(pkeys));
    let key = pb.ld(Space::Global, ka, 0);
    let bucket = pb.iremu(key, Op::Reg(nb));
    let oa = pb.mad(bucket, Op::Imm(4), Op::Reg(boff));
    let start = pb.ld(Space::Global, oa, 0);
    let end = pb.ld(Space::Global, oa, 4);
    let len = pb.isub(end, Op::Reg(start));
    let chain = pb.mad(start, Op::Imm(4), Op::Reg(bkeys));
    emit_dfp(
        &mut pb,
        mode,
        &probe_step,
        len,
        DFP_THRESHOLD,
        [chain, key, matches, out, gtid],
    );
    let probe = prog.add(build_kernel(pb)?);
    Ok((prog, vec![probe]))
}

/// Builds the bucket CSR on the host — identical preprocessing for every
/// variant (the evaluated, DFP-bearing phase is the probe).
fn build_buckets(input: &JoinInput) -> (Vec<u32>, Vec<u32>) {
    let nb = num_buckets(input.domain) as usize;
    let mut counts = vec![0u32; nb];
    for &k in &input.build_keys {
        counts[(k as usize) % nb] += 1;
    }
    let mut offsets = vec![0u32; nb + 1];
    for b in 0..nb {
        offsets[b + 1] = offsets[b] + counts[b];
    }
    let mut cursor = offsets.clone();
    let mut keys = vec![0u32; input.build_keys.len()];
    for &k in &input.build_keys {
        let b = (k as usize) % nb;
        keys[cursor[b] as usize] = k;
        cursor[b] += 1;
    }
    (offsets, keys)
}

/// Executes the probe phase on a bound `gpu` and validates the match
/// count against the host.
pub(crate) fn drive(
    gpu: &mut Gpu,
    name: &str,
    input: &JoinInput,
    ids: &[KernelId],
) -> Result<(), SimError> {
    let (offsets, bkeys) = build_buckets(input);

    let want = input.host_match_count();
    let n_probe = input.probe_keys.len() as u32;
    let boff = gpu.malloc(offsets.len() as u32 * 4)?;
    let bk = gpu.malloc(bkeys.len().max(1) as u32 * 4)?;
    let pk = gpu.malloc(n_probe.max(1) * 4)?;
    let matches = gpu.malloc(4)?;
    let out = gpu.malloc(((want as u32).max(1)) * 4)?;

    gpu.mem_mut().write_slice_u32(boff, &offsets);
    gpu.mem_mut().write_slice_u32(bk, &bkeys);
    gpu.mem_mut().write_slice_u32(pk, &input.probe_keys);
    gpu.mem_mut().write_u32(matches, 0);

    gpu.launch(
        ids[0],
        ceil_div(n_probe, PARENT_TB),
        &[
            boff,
            bk,
            pk,
            matches,
            out,
            n_probe,
            num_buckets(input.domain),
        ],
        0,
    )?;
    gpu.run_to_idle()?;

    let got = u64::from(gpu.mem().read_u32(matches));
    if got != want {
        return Err(SimError::ValidationFailed {
            app: name.to_string(),
            detail: format!("match count: got {got}, want {want}"),
        });
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::common::Variant;
    use crate::data::relations::{join_input, KeyDist};
    use crate::App;
    use gpu_sim::GpuConfig;
    use std::sync::Arc;

    #[test]
    fn uniform_join_counts_match() -> Result<(), SimError> {
        let app = App::Join(Arc::new(join_input(KeyDist::Uniform, 2000, 500, 256, 1)));
        for v in [Variant::Flat, Variant::Cdp, Variant::Dtbl] {
            app.run("join_u", v, GpuConfig::test_small())?;
        }
        Ok(())
    }

    #[test]
    fn gaussian_join_counts_match_and_flat_diverges_more() -> Result<(), SimError> {
        let uni = App::Join(Arc::new(join_input(KeyDist::Uniform, 2000, 400, 256, 2)));
        let gau = App::Join(Arc::new(join_input(KeyDist::Gaussian, 2000, 400, 256, 2)));
        let ru = uni.run("join_u", Variant::Flat, GpuConfig::test_small())?;
        let rg = gau.run("join_g", Variant::Flat, GpuConfig::test_small())?;
        // The paper's point (Figure 6): with skewed chains, flat threads in
        // the same warp loop for wildly different trip counts, depressing
        // warp activity relative to the balanced uniform input.
        assert!(
            rg.stats.warp_activity_pct() < ru.stats.warp_activity_pct(),
            "gaussian flat activity ({:.1}%) must trail uniform ({:.1}%)",
            rg.stats.warp_activity_pct(),
            ru.stats.warp_activity_pct()
        );
        // And the DTBL variant stays functionally correct on both.
        uni.run("join_u", Variant::Dtbl, GpuConfig::test_small())?;
        gau.run("join_g", Variant::Dtbl, GpuConfig::test_small())?;
        Ok(())
    }
}
