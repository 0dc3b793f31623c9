//! Every benchmark's dataset, pinned: an FNV-1a digest over every array
//! (and scalar) of each benchmark's [`AppData`] at Test and Eval scale,
//! compared with `golden/dataset_digests.tsv`. The simulated counts pin
//! only the data the benchmarked cells read; this pins all 32 datasets,
//! so a generator rewrite must reproduce each one bit for bit.

use gpu_sim::GpuConfig;
use workloads::{AppData, Benchmark, CellSetup, Scale};

/// 64-bit FNV-1a over little-endian words. Each array is folded with its
/// length first, so two adjacent arrays cannot trade elements unseen.
struct Fnv(u64);

impl Fnv {
    fn word(&mut self, v: u32) {
        for b in v.to_le_bytes() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn array(&mut self, a: &[u32]) {
        self.word(a.len() as u32);
        a.iter().for_each(|&v| self.word(v));
    }

    fn pairs(&mut self, a: &[(u32, u32)]) {
        self.word(a.len() as u32);
        a.iter().for_each(|&(x, y)| {
            self.word(x);
            self.word(y);
        });
    }
}

/// `(words hashed, digest)` of one dataset.
fn digest(data: &AppData) -> (usize, u64) {
    let mut h = Fnv(0xcbf2_9ce4_8422_2325);
    let words = match data {
        AppData::Mesh(f) => {
            h.word(f.size);
            h.array(&f.values);
            f.values.len()
        }
        AppData::Points(p) => {
            h.word(p.extent);
            h.array(&p.xs);
            h.array(&p.ys);
            p.xs.len() + p.ys.len()
        }
        AppData::Graph(g) => {
            h.array(&g.row_offsets);
            h.array(&g.col_indices);
            let w = g.weights.as_deref().unwrap_or(&[]);
            h.array(w);
            g.row_offsets.len() + g.col_indices.len() + w.len()
        }
        AppData::Packets(p) => {
            h.array(&p.symbols);
            h.pairs(&p.segments);
            h.pairs(&p.packets);
            p.symbols.len() + 2 * (p.segments.len() + p.packets.len())
        }
        AppData::Ratings(r) => {
            h.word(r.num_users);
            h.array(&r.item_offsets);
            h.array(&r.users);
            h.array(&r.values);
            r.item_offsets.len() + r.users.len() + r.values.len()
        }
        AppData::Join(j) => {
            h.word(j.domain);
            h.array(&j.build_keys);
            h.array(&j.probe_keys);
            j.build_keys.len() + j.probe_keys.len()
        }
    };
    (words, h.0)
}

/// Each dataset's digest equals its golden value. On a mismatch the
/// failure names the differing datasets and prints the replacement file.
#[test]
fn every_dataset_matches_its_golden_digest() {
    let golden = include_str!("golden/dataset_digests.tsv");
    let mut now = String::from("benchmark\tscale\twords\tfnv1a\n");
    for scale in [Scale::Test, Scale::Eval] {
        for b in Benchmark::ALL {
            let setup = CellSetup::new(b, scale, GpuConfig::k20c()).expect("setup builds");
            let (words, fnv) = digest(setup.data());
            now.push_str(&format!(
                "{}\t{}\t{words}\t{fnv:016x}\n",
                b.name(),
                scale.name()
            ));
        }
    }
    if now != golden {
        let diff: Vec<&str> = (now.lines().skip(1))
            .filter(|l| !golden.lines().any(|g| g == *l))
            .collect();
        panic!(
            "{} dataset(s) differ from tests/golden/dataset_digests.tsv:\n  {}\n\
             replacement file:\n{now}",
            diff.len(),
            diff.join("\n  ")
        );
    }
}
