//! Regular-expression matching over packet traffic (after GRegex\[37\]).
//!
//! A host-compiled DFA (the `.*012.*` intrusion signature over the
//! synthetic alphabet) is walked over every segment of every packet. The
//! parent kernel owns one packet per thread; the per-packet segment count
//! is the dynamically-formed parallelism. `regx_string` (many segments
//! per packet) is the launch-densest benchmark in the paper — the one
//! whose launch overhead even DTBL cannot fully hide (§5.2C).

use crate::common::{
    build_kernel, ceil_div, emit_dfp, guard, validate_scalar, Dfp, LaunchMode, DFP_THRESHOLD,
};
use crate::data::strings::{host_match, signature_dfa, PacketSet, ALPHABET};
use gpu_isa::{AtomOp, CmpOp, CmpTy, Dim3, KernelBuilder, KernelId, Op, Program, Space};
use gpu_sim::{Gpu, SimError};

const PARENT_TB: u32 = 128;

pub(crate) fn build_program(mode: LaunchMode) -> Result<(Program, Vec<KernelId>), SimError> {
    let mut prog = Program::new();

    // Segment `i` of the table at `seg_entry` ((offset, len) pairs): walk
    // the DFA over it and bump `hits` when the accept state is reached.
    let dfa_walk = Dfp::new(
        &mut prog,
        "regx_seg",
        |b, i, [seg_entry, symbols, dfa, hits, accept]| {
            let sa = b.mad(i, Op::Imm(8), Op::Reg(seg_entry));
            let off = b.ld(Space::Global, sa, 0);
            let len = b.ld(Space::Global, sa, 4);
            let base = b.mad(off, Op::Imm(4), Op::Reg(symbols));
            let state = b.imm(0);
            b.for_range(Op::Imm(0), Op::Reg(len), |b, k| {
                let ca = b.mad(k, Op::Imm(4), Op::Reg(base));
                let sym = b.ld(Space::Global, ca, 0);
                let row = b.imul(state, Op::Imm(ALPHABET));
                let idx = b.iadd(row, Op::Reg(sym));
                let ta = b.mad(idx, Op::Imm(4), Op::Reg(dfa));
                let next = b.ld(Space::Global, ta, 0);
                b.mov_to(state, Op::Reg(next));
            });
            let hit = b.setp(CmpOp::Eq, CmpTy::U32, state, Op::Reg(accept));
            b.if_(hit, |b| {
                b.atom_noret(AtomOp::Add, Space::Global, hits, 0, Op::Imm(1));
            });
        },
    )?;

    // Parent: one thread per packet; params:
    // [packets, segments, symbols, dfa, hits, n_packets, accept].
    let mut pb = KernelBuilder::new("regx_packet", Dim3::x(PARENT_TB), 7);
    let gtid = guard(&mut pb, 5);
    let packets = pb.ld_param(0);
    let segments = pb.ld_param(1);
    let symbols = pb.ld_param(2);
    let dfa = pb.ld_param(3);
    let hits = pb.ld_param(4);
    let accept = pb.ld_param(6);
    // packets[i] = (first_segment, count): two words per packet.
    let pa = pb.mad(gtid, Op::Imm(8), Op::Reg(packets));
    let first = pb.ld(Space::Global, pa, 0);
    let nseg = pb.ld(Space::Global, pa, 4);
    // Segment table entry address of the packet's first segment.
    let seg_entry = pb.mad(first, Op::Imm(8), Op::Reg(segments));
    emit_dfp(
        &mut pb,
        mode,
        &dfa_walk,
        nseg,
        DFP_THRESHOLD,
        [seg_entry, symbols, dfa, hits, accept],
    );
    let parent = prog.add(build_kernel(pb)?);
    Ok((prog, vec![parent]))
}

/// Host reference: total accepting segments.
pub fn host_hits(p: &PacketSet) -> u32 {
    let (table, _, accept) = signature_dfa();
    p.segments
        .iter()
        .filter(|&&(off, len)| {
            host_match(
                &table,
                accept,
                &p.symbols[off as usize..(off + len) as usize],
            )
        })
        .count() as u32
}

/// Executes the matcher on a bound `gpu` and validates the hit count.
pub(crate) fn drive(
    gpu: &mut Gpu,
    name: &str,
    p: &PacketSet,
    ids: &[KernelId],
) -> Result<(), SimError> {
    let (table, _, accept) = signature_dfa();

    let syms = gpu.malloc(p.symbols.len().max(1) as u32 * 4)?;
    let segs = gpu.malloc(p.segments.len().max(1) as u32 * 8)?;
    let pkts = gpu.malloc(p.packets.len().max(1) as u32 * 8)?;
    let dfa = gpu.malloc(table.len() as u32 * 4)?;
    let hits = gpu.malloc(4)?;

    gpu.mem_mut().write_slice_u32(syms, &p.symbols);
    let seg_words: Vec<u32> = p.segments.iter().flat_map(|&(o, l)| [o, l]).collect();
    gpu.mem_mut().write_slice_u32(segs, &seg_words);
    let pkt_words: Vec<u32> = p.packets.iter().flat_map(|&(f, c)| [f, c]).collect();
    gpu.mem_mut().write_slice_u32(pkts, &pkt_words);
    gpu.mem_mut().write_slice_u32(dfa, &table);
    gpu.mem_mut().write_u32(hits, 0);

    let np = p.num_packets();
    gpu.launch(
        ids[0],
        ceil_div(np, PARENT_TB),
        &[pkts, segs, syms, dfa, hits, np, accept],
        0,
    )?;
    gpu.run_to_idle()?;

    let got = gpu.mem().read_u32(hits);
    validate_scalar(name, "accepting segments", got, host_hits(p))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::common::Variant;
    use crate::data::strings;
    use crate::App;
    use gpu_sim::GpuConfig;
    use std::sync::Arc;

    #[test]
    fn darpa_hits_match_host() -> Result<(), SimError> {
        let app = App::Regx(Arc::new(strings::darpa_like(120, 1)));
        for v in [Variant::Flat, Variant::Cdp, Variant::Dtbl] {
            app.run("regx_darpa", v, GpuConfig::test_small())?;
        }
        Ok(())
    }

    #[test]
    fn random_strings_are_launch_dense() -> Result<(), SimError> {
        let p = Arc::new(strings::random_strings(40, 2));
        let r = App::Regx(p.clone()).run("regx_string", Variant::Dtbl, GpuConfig::test_small())?;
        // Packets carry 24–96 segments; those at or above the warp-sized
        // threshold launch — the large majority.
        assert!(
            r.stats.dyn_launches() as u32 >= p.num_packets() / 2,
            "{} launches for {} packets",
            r.stats.dyn_launches(),
            p.num_packets()
        );
        Ok(())
    }
}
