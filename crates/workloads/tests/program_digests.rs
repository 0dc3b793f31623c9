//! Every benchmark's program, pinned: an FNV-1a digest over every kernel
//! of [`CellSetup::program`] for all 16 benchmarks × 6 variants at Test
//! scale, compared with `golden/program_digests.tsv`. A kernel is hashed
//! as its name, block dimensions, register, predicate, shared-memory and
//! parameter-word counts and the `Debug` form of each micro-op, in
//! `KernelId` order, followed by the app's positional kernel ids. Code
//! generation that must not change the simulated machine's input — a
//! refactor of the kernel builders or of `emit_dfp` — has to reproduce
//! each program micro-op for micro-op.

use gpu_sim::GpuConfig;
use workloads::{Benchmark, CellSetup, Scale, Variant};

/// 64-bit FNV-1a over bytes. Each string is folded with its length
/// first, so two adjacent fields cannot trade bytes unseen.
struct Fnv(u64);

impl Fnv {
    fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn word(&mut self, v: u32) {
        self.bytes(&v.to_le_bytes());
    }

    fn str(&mut self, s: &str) {
        self.word(s.len() as u32);
        self.bytes(s.as_bytes());
    }
}

/// `(kernels, micro-ops, digest)` of one cell's program.
fn digest(setup: &CellSetup, variant: Variant) -> (usize, usize, u64) {
    let (prog, ids) = setup.program(variant);
    let mut h = Fnv(0xcbf2_9ce4_8422_2325);
    let mut uops = 0;
    for (id, k) in prog.iter() {
        let d = k.block_dim();
        h.word(u32::from(id.0));
        h.str(k.name());
        [d.x, d.y, d.z].into_iter().for_each(|v| h.word(v));
        h.word(u32::from(k.regs_per_thread()));
        h.word(u32::from(k.preds_per_thread()));
        h.word(k.shared_mem_bytes());
        h.word(u32::from(k.param_words()));
        h.word(k.uops().len() as u32);
        for m in k.uops() {
            h.str(&format!("{m:?}"));
        }
        uops += k.uops().len();
    }
    h.word(ids.len() as u32);
    ids.iter().for_each(|id| h.word(u32::from(id.0)));
    (prog.len(), uops, h.0)
}

/// Each cell's program digest equals its golden value. On a mismatch the
/// failure names the differing cells and prints the replacement file.
#[test]
fn every_program_matches_its_golden_digest() {
    let golden = include_str!("golden/program_digests.tsv");
    let mut now = String::from("benchmark\tvariant\tkernels\tuops\tfnv1a\n");
    for b in Benchmark::ALL {
        let setup = CellSetup::new(b, Scale::Test, GpuConfig::k20c()).expect("setup builds");
        for v in Variant::ALL {
            let (kernels, uops, fnv) = digest(&setup, v);
            now.push_str(&format!(
                "{}\t{}\t{kernels}\t{uops}\t{fnv:016x}\n",
                b.name(),
                v.label()
            ));
        }
    }
    if now != golden {
        let diff: Vec<&str> = (now.lines().skip(1))
            .filter(|l| !golden.lines().any(|g| g == *l))
            .collect();
        panic!(
            "{} program(s) differ from tests/golden/program_digests.tsv:\n  {}\n\
             replacement file:\n{now}",
            diff.len(),
            diff.join("\n  ")
        );
    }
}
