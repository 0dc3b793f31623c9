//! Adaptive mesh refinement over a combustion-like scalar field.
//!
//! Cells whose field range across corners exceeds a threshold subdivide
//! 4×4; the emission/evaluation of the 16 sub-cells is the
//! dynamically-formed parallelism. Each refining `amr_level` thread
//! launches the sub-cells as `amr_emit`, a separate leaf kernel; in the
//! DTBL variant the groups coalesce onto an `amr_emit` kernel already
//! resident in the Kernel Distributor, never onto `amr_level` (the
//! refinement does not self-coalesce). The paper reports AMR as the largest
//! warp-activity winner (+45.3%): in the flat variant a few threads near
//! flame fronts refine deeply while their warp-mates idle.

use crate::common::{build_kernel, ceil_div, emit_dfp, guard, Dfp, LaunchMode};
use crate::data::mesh::ScalarField;
use gpu_isa::{AtomOp, CmpOp, CmpTy, Dim3, KernelBuilder, KernelId, Op, Program, Reg, Space};
use gpu_sim::{Gpu, SimError};

const PARENT_TB: u32 = 128;
/// Top-level cell size: the field is tiled by `CELL0 × CELL0` cells.
const CELL0: u32 = 32;
/// Sub-cells per refinement (4×4 split).
const SUBDIV: u32 = 16;
/// Field-range threshold above which a cell refines.
const THRESH: u32 = 150;

pub(crate) fn build_program(mode: LaunchMode) -> Result<(Program, Vec<KernelId>), SimError> {
    let mut prog = Program::new();

    // Sub-cell `i` (row-major within the 4×4 split) of the refining cell
    // at (x, y): interpolate the refined value from the sub-cell's corner
    // samples (the actual refinement computation) and append the sub-cell
    // to the next level's list.
    let subcell = Dfp::new(
        &mut prog,
        "amr_emit",
        |b, i, [x, y, s4, out, cnt, field, fsize, vals]| {
            let col = b.and_(i, Op::Imm(3));
            let row = b.shru(i, Op::Imm(2));
            let cx = b.mad(col, Op::Reg(s4), Op::Reg(x));
            let cy = b.mad(row, Op::Reg(s4), Op::Reg(y));
            // Refined value: mean of the sub-cell's four corner samples.
            let sm1 = b.isub(s4, Op::Imm(1));
            let cx1 = b.iadd(cx, Op::Reg(sm1));
            let cy1 = b.iadd(cy, Op::Reg(sm1));
            let f00 = sample(b, field, fsize, cx, cy);
            let f01 = sample(b, field, fsize, cx1, cy);
            let f10 = sample(b, field, fsize, cx, cy1);
            let f11 = sample(b, field, fsize, cx1, cy1);
            let sum = b.iadd(f00, Op::Reg(f01));
            let sum = b.iadd(sum, Op::Reg(f10));
            let sum = b.iadd(sum, Op::Reg(f11));
            let mean = b.shru(sum, Op::Imm(2));
            let pos = b.atom(AtomOp::Add, Space::Global, cnt, 0, Op::Imm(1));
            let oa = b.mad(pos, Op::Imm(8), Op::Reg(out));
            b.st(Space::Global, oa, 0, Op::Reg(cx));
            b.st(Space::Global, oa, 4, Op::Reg(cy));
            let va = b.mad(pos, Op::Imm(4), Op::Reg(vals));
            b.st(Space::Global, va, 0, Op::Reg(mean));
        },
    )?;

    // Parent: one thread per cell; params:
    // [cells_in, n_cells, field, fsize, cell_size, cells_out, cnt, vals].
    let mut pb = KernelBuilder::new("amr_level", Dim3::x(PARENT_TB), 8);
    let gtid = guard(&mut pb, 1);
    let cells = pb.ld_param(0);
    let field = pb.ld_param(2);
    let fsize = pb.ld_param(3);
    let size = pb.ld_param(4);
    let out = pb.ld_param(5);
    let cnt = pb.ld_param(6);
    let vals = pb.ld_param(7);
    let ca = pb.mad(gtid, Op::Imm(8), Op::Reg(cells));
    let x = pb.ld(Space::Global, ca, 0);
    let y = pb.ld(Space::Global, ca, 4);
    // Corner samples at (x, y), (x+s-1, y), (x, y+s-1), (x+s-1, y+s-1).
    let sm1 = pb.isub(size, Op::Imm(1));
    let x1 = pb.iadd(x, Op::Reg(sm1));
    let y1 = pb.iadd(y, Op::Reg(sm1));
    let f00 = sample(&mut pb, field, fsize, x, y);
    let f01 = sample(&mut pb, field, fsize, x1, y);
    let f10 = sample(&mut pb, field, fsize, x, y1);
    let f11 = sample(&mut pb, field, fsize, x1, y1);
    let mx = pb.imaxs(f00, Op::Reg(f01));
    let mx = pb.imaxs(mx, Op::Reg(f10));
    let mx = pb.imaxs(mx, Op::Reg(f11));
    let mn = pb.imins(f00, Op::Reg(f01));
    let mn = pb.imins(mn, Op::Reg(f10));
    let mn = pb.imins(mn, Op::Reg(f11));
    let range = pb.isub(mx, Op::Reg(mn));
    let hot = pb.setp(CmpOp::Gt, CmpTy::U32, range, Op::Imm(THRESH));
    let big = pb.setp(CmpOp::Ge, CmpTy::U32, size, Op::Imm(4));
    let refine = pb.pand(hot, big);
    pb.if_(refine, |b| {
        let s4 = b.shru(size, Op::Imm(2));
        let sixteen = b.imm(SUBDIV);
        // A refinement's natural granularity is its 16 sub-cells; launch
        // at that size rather than the default warp-sized threshold.
        emit_dfp(
            b,
            mode,
            &subcell,
            sixteen,
            SUBDIV,
            [x, y, s4, out, cnt, field, fsize, vals],
        );
    });
    let parent = prog.add(build_kernel(pb)?);
    Ok((prog, vec![parent]))
}

/// Loads the field sample at `(sx, sy)` of the `fsize`-wide field.
fn sample(b: &mut KernelBuilder, field: Reg, fsize: Reg, sx: Reg, sy: Reg) -> Reg {
    let row = b.imul(sy, Op::Reg(fsize));
    let idx = b.iadd(row, Op::Reg(sx));
    let a = b.mad(idx, Op::Imm(4), Op::Reg(field));
    b.ld(Space::Global, a, 0)
}

/// Host mirror of the refinement recursion from 32 × 32 top-level cells;
/// returns `(total_refined_cells, coordinate_checksum)`.
pub fn host_refine(field: &ScalarField) -> (u64, u64) {
    let mut total = 0u64;
    let mut checksum = 0u64;
    let mut cells: Vec<(u32, u32)> = (0..field.size / CELL0)
        .flat_map(|cy| (0..field.size / CELL0).map(move |cx| (cx * CELL0, cy * CELL0)))
        .collect();
    let mut size = CELL0;
    while !cells.is_empty() && size >= 1 {
        let mut next = Vec::new();
        for &(x, y) in &cells {
            let c = [
                field.at(x, y),
                field.at(x + size - 1, y),
                field.at(x, y + size - 1),
                field.at(x + size - 1, y + size - 1),
            ];
            let range = c.iter().max().unwrap() - c.iter().min().unwrap();
            if range > THRESH && size >= 4 {
                let s4 = size / 4;
                for k in 0..SUBDIV {
                    let cx = x + (k % 4) * s4;
                    let cy = y + (k / 4) * s4;
                    next.push((cx, cy));
                    total += 1;
                    checksum = checksum.wrapping_add(u64::from(cx) * 31 + u64::from(cy) * 17);
                }
            }
        }
        cells = next;
        size /= 4;
    }
    (total, checksum)
}

/// Executes the refinement cascade on a bound `gpu` and validates cell
/// count and coordinate checksum against [`host_refine`].
pub(crate) fn drive(
    gpu: &mut Gpu,
    name: &str,
    field: &ScalarField,
    ids: &[KernelId],
) -> Result<(), SimError> {
    let fbuf = gpu.malloc(field.values.len() as u32 * 4)?;
    gpu.mem_mut().write_slice_u32(fbuf, &field.values);

    // Upper bound on cells per level: every cell refines.
    let top: Vec<u32> = (0..field.size / CELL0)
        .flat_map(|cy| (0..field.size / CELL0).flat_map(move |cx| [cx * CELL0, cy * CELL0]))
        .collect();
    let max_cells = (top.len() as u32 / 2) * SUBDIV * SUBDIV * SUBDIV;
    let cells_a = gpu.malloc(max_cells.max(64) * 8)?;
    let cells_b = gpu.malloc(max_cells.max(64) * 8)?;
    let vals = gpu.malloc(max_cells.max(64) * 4)?;
    let cnt = gpu.malloc(4)?;
    gpu.mem_mut().write_slice_u32(cells_a, &top);

    let mut bufs = (cells_a, cells_b);
    let mut n_cells = top.len() as u32 / 2;
    let mut size = CELL0;
    let mut total = 0u64;
    let mut checksum = 0u64;
    while n_cells > 0 && size >= 1 {
        gpu.mem_mut().write_u32(cnt, 0);
        gpu.launch(
            ids[0],
            ceil_div(n_cells, PARENT_TB),
            &[bufs.0, n_cells, fbuf, field.size, size, bufs.1, cnt, vals],
            0,
        )?;
        gpu.run_to_idle()?;
        let emitted = gpu.mem().read_u32(cnt);
        total += u64::from(emitted);
        for k in 0..emitted {
            let cx = gpu.mem().read_u32(bufs.1 + k * 8);
            let cy = gpu.mem().read_u32(bufs.1 + k * 8 + 4);
            checksum = checksum.wrapping_add(u64::from(cx) * 31 + u64::from(cy) * 17);
        }
        bufs = (bufs.1, bufs.0);
        n_cells = emitted;
        size /= 4;
    }

    let (want_total, want_sum) = host_refine(field);
    if total != want_total || checksum != want_sum {
        return Err(SimError::ValidationFailed {
            app: name.to_string(),
            detail: format!(
                "refined {total} cells (checksum {checksum:#x}), \
                 host refined {want_total} (checksum {want_sum:#x})"
            ),
        });
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::common::Variant;
    use crate::data::mesh;
    use crate::App;
    use gpu_sim::GpuConfig;
    use std::sync::Arc;

    #[test]
    fn refinement_matches_host_on_all_variants() -> Result<(), SimError> {
        let app = App::Amr(Arc::new(mesh::combustion_field(128, 2, 1)));
        for v in [Variant::Flat, Variant::Cdp, Variant::Dtbl] {
            app.run("amr_test", v, GpuConfig::test_small())?;
        }
        Ok(())
    }

    #[test]
    fn fronts_cause_refinement_and_launches() -> Result<(), SimError> {
        let f = mesh::combustion_field(128, 3, 2);
        let (total, _) = host_refine(&f);
        assert!(total > 0, "fronts must refine");
        let r = App::Amr(Arc::new(f)).run("amr_test", Variant::Dtbl, GpuConfig::test_small())?;
        assert!(r.stats.dyn_launches() > 0);
        Ok(())
    }

    #[test]
    fn quiet_field_never_refines() -> Result<(), SimError> {
        let f = ScalarField {
            size: 64,
            values: vec![100; 64 * 64],
        };
        let (total, sum) = host_refine(&f);
        assert_eq!((total, sum), (0, 0));
        let r = App::Amr(Arc::new(f)).run("amr_quiet", Variant::Flat, GpuConfig::test_small())?;
        assert_eq!(r.stats.dyn_launches(), 0);
        Ok(())
    }
}
