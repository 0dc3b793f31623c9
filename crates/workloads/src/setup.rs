//! The setup/run split: an immutable, shareable [`CellSetup`] per
//! benchmark versus the per-run mutable state that lives in a [`Gpu`].
//!
//! Workload data generation, kernel construction and decode are a pure
//! function of `(benchmark, scale)`. A [`CellSetup`] computes that
//! function once: the workload buffers are built a single time and
//! shared behind `Arc`s, and the [`Program`] for *every* variant is
//! decoded up front — including each kernel's micro-op program
//! (`gpu_isa::decode`), so the executors never re-inspect instruction
//! encodings on the hot path (a `Program` clone is an `Arc` refcount bump
//! per kernel, micro-ops included, pinned by `Program::shares_kernels`).
//! Running a cell is then only the mutable half: bind a fresh — or
//! warm-rebound, via [`WarmSlot`](gpu_sim::WarmSlot) — simulator and
//! drive the app's launch/readback loop.
//!
//! The setup also knows its cells' content address
//! ([`cell_key`](CellSetup::cell_key)), which is what lets the
//! [`BatchServer`](gpu_sim::BatchServer) serve repeated cells from its
//! result cache with a bit-identity guarantee.

use crate::apps;
use crate::common::Variant;
use crate::data::mesh::ScalarField;
use crate::data::points::PointSet;
use crate::data::ratings::RatingSet;
use crate::data::relations::JoinInput;
use crate::data::strings::PacketSet;
use crate::data::{graph, mesh, points, ratings, relations, strings, CsrGraph};
use crate::harness::{Benchmark, Scale};
use crate::report::RunReport;
use gpu_isa::{KernelId, Program};
use gpu_sim::server::CellKey;
use gpu_sim::{Gpu, GpuConfig, SimError, WarmSlot};
use std::sync::Arc;

/// The built workload buffers of one benchmark, shared behind an `Arc` so
/// every variant cell of the benchmark reads the same data (asserted via
/// `Arc::ptr_eq` in the sweep tests).
#[derive(Clone, Debug)]
pub enum AppData {
    /// AMR's combustion-like scalar field.
    Mesh(Arc<ScalarField>),
    /// BHT's point set.
    Points(Arc<PointSet>),
    /// BFS/CLR/SSSP graph.
    Graph(Arc<CsrGraph>),
    /// REGX packet set.
    Packets(Arc<PacketSet>),
    /// PRE rating matrix.
    Ratings(Arc<RatingSet>),
    /// JOIN probe/build relation.
    Join(Arc<JoinInput>),
}

impl AppData {
    /// True when `self` and `other` are the *same* buffers (pointer
    /// identity, not value equality).
    pub fn ptr_eq(&self, other: &AppData) -> bool {
        match (self, other) {
            (AppData::Mesh(a), AppData::Mesh(b)) => Arc::ptr_eq(a, b),
            (AppData::Points(a), AppData::Points(b)) => Arc::ptr_eq(a, b),
            (AppData::Graph(a), AppData::Graph(b)) => Arc::ptr_eq(a, b),
            (AppData::Packets(a), AppData::Packets(b)) => Arc::ptr_eq(a, b),
            (AppData::Ratings(a), AppData::Ratings(b)) => Arc::ptr_eq(a, b),
            (AppData::Join(a), AppData::Join(b)) => Arc::ptr_eq(a, b),
            _ => false,
        }
    }
}

/// Builds a benchmark's workload data at `scale`. Deterministic: each
/// benchmark uses fixed generation seeds, so the data is a pure function
/// of `(benchmark, scale)`.
pub(crate) fn build_data(benchmark: Benchmark, scale: Scale) -> AppData {
    let t = scale == Scale::Test;
    match benchmark {
        Benchmark::Amr => AppData::Mesh(Arc::new(mesh::combustion_field(
            if t { 128 } else { 1024 },
            6,
            11,
        ))),
        Benchmark::Bht => AppData::Points(Arc::new(points::random_points(
            if t { 600 } else { 40_000 },
            11,
            12,
        ))),
        Benchmark::BfsCitation => AppData::Graph(Arc::new(graph::citation(
            if t { 600 } else { 24_000 },
            4,
            13,
        ))),
        Benchmark::BfsUsaRoad => {
            let (w, h) = if t { (20, 16) } else { (140, 100) };
            AppData::Graph(Arc::new(graph::usa_road(w, h)))
        }
        Benchmark::BfsCage15 => AppData::Graph(Arc::new(graph::cage15_like(
            if t { 600 } else { 6_000 },
            2_000,
            30,
            14,
        ))),
        Benchmark::ClrCitation => AppData::Graph(Arc::new(graph::citation(
            if t { 400 } else { 10_000 },
            4,
            15,
        ))),
        Benchmark::ClrGraph500 => AppData::Graph(Arc::new(graph::graph500_logn(
            if t { 400 } else { 1_500 },
            16,
            16,
        ))),
        Benchmark::ClrCage15 => AppData::Graph(Arc::new(graph::cage15_like(
            if t { 400 } else { 1_500 },
            800,
            30,
            17,
        ))),
        Benchmark::RegxDarpa => AppData::Packets(Arc::new(strings::darpa_like(
            if t { 150 } else { 4_000 },
            18,
        ))),
        Benchmark::RegxString => AppData::Packets(Arc::new(strings::random_strings(
            if t { 60 } else { 2_500 },
            19,
        ))),
        Benchmark::PreMovielens => AppData::Ratings(Arc::new(ratings::movielens_like(
            if t { 80 } else { 3_000 },
            if t { 800 } else { 12_000 },
            if t { 300 } else { 240 },
            20,
        ))),
        Benchmark::JoinUniform => AppData::Join(Arc::new(relations::join_input(
            relations::KeyDist::Uniform,
            if t { 2_000 } else { 120_000 },
            if t { 500 } else { 20_000 },
            if t { 512 } else { 32_768 },
            21,
        ))),
        Benchmark::JoinGaussian => AppData::Join(Arc::new(relations::join_input(
            relations::KeyDist::Gaussian,
            if t { 2_000 } else { 120_000 },
            if t { 500 } else { 20_000 },
            if t { 512 } else { 32_768 },
            22,
        ))),
        Benchmark::SsspCitation => AppData::Graph(Arc::new(
            graph::citation(if t { 400 } else { 12_000 }, 4, 23).with_random_weights(9, 23),
        )),
        Benchmark::SsspFlight => AppData::Graph(Arc::new(
            graph::flight(if t { 400 } else { 12_000 }, if t { 8 } else { 500 }, 24)
                .with_random_weights(9, 24),
        )),
        Benchmark::SsspCage15 => AppData::Graph(Arc::new(
            graph::cage15_like(if t { 400 } else { 4_000 }, 1_500, 30, 25)
                .with_random_weights(9, 25),
        )),
    }
}

/// Builds a benchmark's program for one variant, returning the kernel ids
/// in the app's positional order.
pub(crate) fn prepare(
    benchmark: Benchmark,
    variant: Variant,
) -> Result<(Program, Vec<KernelId>), SimError> {
    Ok(match benchmark {
        Benchmark::Amr => {
            let (prog, parent) = apps::amr::build_program(variant)?;
            (prog, vec![parent])
        }
        Benchmark::Bht => {
            let (prog, count_k, emit_k, scatter_k) = apps::bht::build_program(variant)?;
            (prog, vec![count_k, emit_k, scatter_k])
        }
        Benchmark::BfsCitation | Benchmark::BfsUsaRoad | Benchmark::BfsCage15 => {
            let (prog, parent, child) = apps::bfs::build_program(variant)?;
            (prog, vec![parent, child])
        }
        Benchmark::ClrCitation | Benchmark::ClrGraph500 | Benchmark::ClrCage15 => {
            let (prog, check, assign) = apps::clr::build_program(variant)?;
            (prog, vec![check, assign])
        }
        Benchmark::RegxDarpa | Benchmark::RegxString => {
            let (prog, parent) = apps::regx::build_program(variant)?;
            (prog, vec![parent])
        }
        Benchmark::PreMovielens => {
            let (prog, parent) = apps::pre::build_program(variant)?;
            (prog, vec![parent])
        }
        Benchmark::JoinUniform | Benchmark::JoinGaussian => {
            let (prog, probe) = apps::join::build_program(variant)?;
            (prog, vec![probe])
        }
        Benchmark::SsspCitation | Benchmark::SsspFlight | Benchmark::SsspCage15 => {
            let (prog, parent) = apps::sssp::build_program(variant)?;
            (prog, vec![parent])
        }
    })
}

/// BFS/SSSP source vertex used by every benchmark of those families.
const SOURCE: u32 = 0;
/// AMR top-level cell size.
const AMR_CELL0: u32 = 32;

/// Drives one cell's mutable phase on an already-bound `gpu`.
pub(crate) fn drive_on(
    gpu: &mut Gpu,
    benchmark: Benchmark,
    data: &AppData,
    ids: &[KernelId],
    variant: Variant,
) -> Result<RunReport, SimError> {
    let name = benchmark.name();
    match (benchmark, data) {
        (Benchmark::Amr, AppData::Mesh(f)) => {
            apps::amr::drive(gpu, name, f, AMR_CELL0, ids[0], variant)
        }
        (Benchmark::Bht, AppData::Points(p)) => {
            apps::bht::drive(gpu, name, p, ids[0], ids[1], ids[2], variant)
        }
        (
            Benchmark::BfsCitation | Benchmark::BfsUsaRoad | Benchmark::BfsCage15,
            AppData::Graph(g),
        ) => apps::bfs::drive(gpu, name, g, SOURCE, ids[0], variant),
        (
            Benchmark::ClrCitation | Benchmark::ClrGraph500 | Benchmark::ClrCage15,
            AppData::Graph(g),
        ) => apps::clr::drive(gpu, name, g, ids[0], ids[1], variant),
        (Benchmark::RegxDarpa | Benchmark::RegxString, AppData::Packets(p)) => {
            apps::regx::drive(gpu, name, p, ids[0], variant)
        }
        (Benchmark::PreMovielens, AppData::Ratings(r)) => {
            apps::pre::drive(gpu, name, r, ids[0], variant)
        }
        (Benchmark::JoinUniform | Benchmark::JoinGaussian, AppData::Join(j)) => {
            apps::join::drive(gpu, name, j, ids[0], variant)
        }
        (
            Benchmark::SsspCitation | Benchmark::SsspFlight | Benchmark::SsspCage15,
            AppData::Graph(g),
        ) => apps::sssp::drive(gpu, name, g, SOURCE, ids[0], variant),
        _ => unreachable!("build_data always pairs {benchmark:?} with its data family"),
    }
}

/// The immutable half of one benchmark's sweep cells: built workload
/// buffers, decoded per-variant programs, and the resolved base config.
/// Build it once, run any variant any number of times — cold
/// ([`run`](CellSetup::run)) or on a pooled warm simulator
/// ([`run_warm`](CellSetup::run_warm)).
#[derive(Clone, Debug)]
pub struct CellSetup {
    benchmark: Benchmark,
    scale: Scale,
    base_cfg: GpuConfig,
    data: AppData,
    /// One prepared `(program, kernel ids)` per [`Variant::ALL`] entry.
    progs: Vec<(Program, Vec<KernelId>)>,
}

impl CellSetup {
    /// Builds the setup: workload data once, a program per variant.
    ///
    /// # Errors
    ///
    /// Any kernel-construction [`SimError`].
    pub fn new(benchmark: Benchmark, scale: Scale, base_cfg: GpuConfig) -> Result<Self, SimError> {
        let data = build_data(benchmark, scale);
        let progs = Variant::ALL
            .iter()
            .map(|&v| prepare(benchmark, v))
            .collect::<Result<Vec<_>, _>>()?;
        Ok(CellSetup {
            benchmark,
            scale,
            base_cfg,
            data,
            progs,
        })
    }

    /// The same benchmark, data and decoded programs under a different
    /// base configuration — a refcount bump per buffer and kernel, no
    /// rebuild. How sweeps over a config axis (AGT size, warp scheduler,
    /// reserved SMXs) get one setup per benchmark instead of one per cell.
    pub fn with_config(&self, base_cfg: GpuConfig) -> CellSetup {
        CellSetup {
            base_cfg,
            ..self.clone()
        }
    }

    /// The benchmark this setup serves.
    pub fn benchmark(&self) -> Benchmark {
        self.benchmark
    }

    /// The problem scale the data was built at.
    pub fn scale(&self) -> Scale {
        self.scale
    }

    /// The shared workload buffers.
    pub fn data(&self) -> &AppData {
        &self.data
    }

    /// The prepared program (and its kernel ids) for `variant`.
    pub fn program(&self, variant: Variant) -> &(Program, Vec<KernelId>) {
        &self.progs[variant.index()]
    }

    /// The fully-resolved config a `variant` cell runs under (base config
    /// with the variant's knobs applied) — the config that feeds the
    /// cache key's `config_hash`.
    pub fn run_cfg(&self, variant: Variant) -> GpuConfig {
        variant.configure(self.base_cfg.clone())
    }

    /// Content address of this setup's `variant` cell. The workload data
    /// here is a pure function of `(benchmark, scale)` (fixed generation
    /// seeds), so the scale discriminant is the dataset seed.
    pub fn cell_key(&self, variant: Variant) -> CellKey {
        let cfg = self.run_cfg(variant);
        CellKey {
            config_hash: cfg.content_hash(),
            budget_hash: cfg.budget_hash(),
            workload: self.benchmark.name().to_string(),
            seed: match self.scale {
                Scale::Test => 0,
                Scale::Eval => 1,
            },
            variant: variant.label().to_string(),
        }
    }

    /// Runs `variant` on a *fresh* simulator (cold construction). The
    /// data and program are still shared — only the `Gpu` is new.
    ///
    /// # Errors
    ///
    /// Any [`SimError`] from the run or its validation.
    pub fn run(&self, variant: Variant) -> Result<RunReport, SimError> {
        let (prog, ids) = self.program(variant);
        let mut gpu = Gpu::new(self.run_cfg(variant), prog.clone());
        drive_on(&mut gpu, self.benchmark, &self.data, ids, variant)
    }

    /// Runs `variant` on a pooled simulator: reset + bind instead of
    /// construction. Bit-identical to [`run`](CellSetup::run) (pinned by
    /// the engine-equivalence differential tests).
    ///
    /// # Errors
    ///
    /// Any [`SimError`] from the run or its validation.
    pub fn run_warm(&self, variant: Variant, slot: &mut WarmSlot) -> Result<RunReport, SimError> {
        let (prog, ids) = self.program(variant);
        let gpu = slot.bind(self.run_cfg(variant), prog.clone());
        drive_on(gpu, self.benchmark, &self.data, ids, variant)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clones_and_reconfigured_setups_share_data_and_kernels() -> Result<(), SimError> {
        let setup = CellSetup::new(Benchmark::BfsCitation, Scale::Test, GpuConfig::test_small())?;
        // Cloning a setup (one clone per sweep cell) shares the workload
        // buffers rather than rebuilding them.
        let cell = setup.clone();
        assert!(cell.data().ptr_eq(setup.data()));
        // Programs are prepared per variant and handed out by refcount
        // bump, not re-decoded.
        let (prog, _) = setup.program(Variant::Dtbl);
        assert!(prog.shares_kernels(&setup.program(Variant::Dtbl).0));

        // A config-axis sibling shares both and differs only in its key.
        let wide = setup.with_config(GpuConfig {
            agt_entries: 256,
            ..GpuConfig::test_small()
        });
        assert!(wide.data().ptr_eq(setup.data()));
        for v in Variant::ALL {
            assert!(wide.program(v).0.shares_kernels(&setup.program(v).0));
        }
        assert_eq!(wide.run_cfg(Variant::Dtbl).agt_entries, 256);
        assert_ne!(
            wide.cell_key(Variant::Dtbl).config_hash,
            setup.cell_key(Variant::Dtbl).config_hash
        );
        Ok(())
    }

    #[test]
    fn warm_run_is_bit_identical_to_cold() -> Result<(), SimError> {
        let setup = CellSetup::new(Benchmark::JoinUniform, Scale::Test, GpuConfig::test_small())?;
        let cold = setup.run(Variant::Cdp)?;
        let mut slot = WarmSlot::new();
        // Dirty the slot with a different benchmark+variant first.
        let other = CellSetup::new(Benchmark::RegxString, Scale::Test, GpuConfig::test_small())?;
        other.run_warm(Variant::Dtbl, &mut slot)?;
        let warm = setup.run_warm(Variant::Cdp, &mut slot)?;
        assert_eq!(cold.stats, warm.stats);
        assert_eq!(slot.cold_builds(), 1);
        assert_eq!(slot.warm_binds(), 1);
        Ok(())
    }

    #[test]
    fn cell_keys_distinguish_variant_config_and_workload() -> Result<(), SimError> {
        let setup = CellSetup::new(Benchmark::Amr, Scale::Test, GpuConfig::test_small())?;
        let flat = setup.cell_key(Variant::Flat);
        assert_eq!(flat, setup.cell_key(Variant::Flat), "keys are stable");
        assert_ne!(flat, setup.cell_key(Variant::Dtbl));
        // Ideal variants differ from measured ones via config_hash even
        // before the label: zeroed latencies are a different machine.
        assert_ne!(
            setup.cell_key(Variant::Cdp).config_hash,
            setup.cell_key(Variant::CdpIdeal).config_hash
        );
        let other = CellSetup::new(Benchmark::Bht, Scale::Test, GpuConfig::test_small())?;
        assert_ne!(flat, other.cell_key(Variant::Flat));
        // Deterministic budget knobs change the key (so a memoized typed
        // error never leaks across budgets) without touching config_hash.
        let mut capped_cfg = GpuConfig::test_small();
        capped_cfg.budget.cycle_cap = Some(50);
        let capped = CellSetup::new(Benchmark::Amr, Scale::Test, capped_cfg)?;
        let capped_key = capped.cell_key(Variant::Flat);
        assert_eq!(flat.config_hash, capped_key.config_hash);
        assert_ne!(flat.budget_hash, capped_key.budget_hash);
        assert_ne!(flat, capped_key);
        Ok(())
    }
}
