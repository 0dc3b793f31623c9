//! The setup/run split: an immutable, shareable [`CellSetup`] per
//! benchmark versus the per-run mutable state that lives in a [`Gpu`].
//!
//! Workload data generation and kernel construction are a pure function
//! of `(benchmark, scale)`. A [`CellSetup`] computes that function once:
//! the workload buffers are built a single time and shared behind
//! `Arc`s, and the [`Program`] for every launch mode is built up front
//! (a program depends only on the mode, so the variants of one mode share
//! it) — each kernel's micro-op program is what its builder emitted, so
//! the executors run it as stored (a `Program` clone is an `Arc` refcount
//! bump per kernel, micro-ops included, pinned by
//! `Program::shares_kernels`).
//! Running a cell is then only the mutable half: bind a fresh — or
//! warm-rebound, via [`WarmSlot`](gpu_sim::WarmSlot) — simulator and
//! drive the app's launch/readback loop. [`build_data`] is the one map
//! from a [`Benchmark`] to its [`App`]; building and driving go through
//! the `App`, as [`App::run`] does for caller-supplied input, which has
//! no content address.
//!
//! The setup also knows its cells' content address
//! ([`cell_key`](CellSetup::cell_key)), which is what lets the
//! [`BatchServer`](gpu_sim::BatchServer) serve repeated cells from its
//! result cache with a bit-identity guarantee. The address is the pure
//! function [`cell_key`] of the setup's inputs, so it can also be computed
//! without building a setup; the setup computes it once per variant when
//! it is built (or reconfigured), so a cache lookup hashes no config.

use crate::common::{LaunchMode, Variant};
use crate::data::{graph, mesh, points, ratings, relations, strings};
use crate::harness::{Benchmark, Scale};
use crate::report::RunReport;
use crate::App;
use gpu_isa::{KernelId, Program};
use gpu_sim::server::CellKey;
use gpu_sim::{Gpu, GpuConfig, SimError, WarmSlot};
use std::sync::Arc;

/// Builds a benchmark's app over its workload data at `scale`: the one
/// map from benchmark to application. Deterministic: each benchmark uses
/// fixed generation seeds, so the data is a pure function of
/// `(benchmark, scale)`.
pub(crate) fn build_data(benchmark: Benchmark, scale: Scale) -> App {
    let t = scale == Scale::Test;
    match benchmark {
        Benchmark::Amr => App::Amr(Arc::new(mesh::combustion_field(
            if t { 128 } else { 1024 },
            6,
            11,
        ))),
        Benchmark::Bht => App::Bht(Arc::new(points::random_points(
            if t { 600 } else { 40_000 },
            11,
            12,
        ))),
        Benchmark::BfsCitation => App::Bfs(Arc::new(graph::citation(
            if t { 600 } else { 24_000 },
            4,
            13,
        ))),
        Benchmark::BfsUsaRoad => {
            let (w, h) = if t { (20, 16) } else { (140, 100) };
            App::Bfs(Arc::new(graph::usa_road(w, h)))
        }
        Benchmark::BfsCage15 => App::Bfs(Arc::new(graph::cage15_like(
            if t { 600 } else { 6_000 },
            2_000,
            30,
            14,
        ))),
        Benchmark::ClrCitation => App::Clr(Arc::new(graph::citation(
            if t { 400 } else { 10_000 },
            4,
            15,
        ))),
        Benchmark::ClrGraph500 => App::Clr(Arc::new(graph::graph500_logn(
            if t { 400 } else { 1_500 },
            16,
            16,
        ))),
        Benchmark::ClrCage15 => App::Clr(Arc::new(graph::cage15_like(
            if t { 400 } else { 1_500 },
            800,
            30,
            17,
        ))),
        Benchmark::RegxDarpa => App::Regx(Arc::new(strings::darpa_like(
            if t { 150 } else { 4_000 },
            18,
        ))),
        Benchmark::RegxString => App::Regx(Arc::new(strings::random_strings(
            if t { 60 } else { 2_500 },
            19,
        ))),
        Benchmark::PreMovielens => App::Pre(Arc::new(ratings::movielens_like(
            if t { 80 } else { 3_000 },
            if t { 800 } else { 12_000 },
            if t { 300 } else { 240 },
            20,
        ))),
        Benchmark::JoinUniform => App::Join(Arc::new(relations::join_input(
            relations::KeyDist::Uniform,
            if t { 2_000 } else { 120_000 },
            if t { 500 } else { 20_000 },
            if t { 512 } else { 32_768 },
            21,
        ))),
        Benchmark::JoinGaussian => App::Join(Arc::new(relations::join_input(
            relations::KeyDist::Gaussian,
            if t { 2_000 } else { 120_000 },
            if t { 500 } else { 20_000 },
            if t { 512 } else { 32_768 },
            22,
        ))),
        Benchmark::SsspCitation => App::Sssp(Arc::new(
            graph::citation(if t { 400 } else { 12_000 }, 4, 23).with_random_weights(9, 23),
        )),
        Benchmark::SsspFlight => App::Sssp(Arc::new(
            graph::flight(if t { 400 } else { 12_000 }, if t { 8 } else { 500 }, 24)
                .with_random_weights(9, 24),
        )),
        Benchmark::SsspCage15 => App::Sssp(Arc::new(
            graph::cage15_like(if t { 400 } else { 4_000 }, 1_500, 30, 25)
                .with_random_weights(9, 25),
        )),
    }
}

/// Content address of the `variant` cell of `benchmark` at `scale` under
/// `base_cfg`: a pure function, so a caller that has no [`CellSetup`]
/// (the daemon answering a submission from its cache) computes the same
/// key the setup does. The workload data is a pure function of
/// `(benchmark, scale)` (fixed generation seeds), so the scale
/// discriminant is the dataset seed.
pub fn cell_key(
    benchmark: Benchmark,
    scale: Scale,
    base_cfg: &GpuConfig,
    variant: Variant,
) -> CellKey {
    let cfg = variant.configure(base_cfg.clone());
    CellKey {
        config_hash: cfg.content_hash(),
        budget_hash: cfg.budget_hash(),
        workload: benchmark.name().to_string(),
        seed: match scale {
            Scale::Test => 0,
            Scale::Eval => 1,
        },
        variant: variant.label().to_string(),
    }
}

/// The immutable half of one benchmark's sweep cells: built workload
/// buffers, built per-launch-mode programs, and the resolved base config.
/// Build it once, run any variant any number of times — cold
/// ([`run`](CellSetup::run)) or on a pooled warm simulator
/// ([`run_warm`](CellSetup::run_warm)).
#[derive(Clone, Debug)]
pub struct CellSetup {
    benchmark: Benchmark,
    scale: Scale,
    base_cfg: GpuConfig,
    app: App,
    /// One prepared `(program, kernel ids)` per [`LaunchMode::ALL`] entry,
    /// shared by the variants of that mode.
    progs: Vec<(Program, Vec<KernelId>)>,
    /// One [`cell_key`] per [`Variant::ALL`] entry, of `base_cfg`.
    keys: [CellKey; Variant::ALL.len()],
}

/// [`cell_key`] of every variant, in [`Variant::ALL`] order.
fn keys_of(
    benchmark: Benchmark,
    scale: Scale,
    base_cfg: &GpuConfig,
) -> [CellKey; Variant::ALL.len()] {
    Variant::ALL.map(|v| cell_key(benchmark, scale, base_cfg, v))
}

impl CellSetup {
    /// Builds the setup: workload data once, a program per launch mode.
    ///
    /// # Errors
    ///
    /// Any kernel-construction [`SimError`].
    pub fn new(benchmark: Benchmark, scale: Scale, base_cfg: GpuConfig) -> Result<Self, SimError> {
        let app = build_data(benchmark, scale);
        let progs = LaunchMode::ALL
            .iter()
            .map(|&m| app.build(m))
            .collect::<Result<Vec<_>, _>>()?;
        Ok(CellSetup {
            benchmark,
            scale,
            keys: keys_of(benchmark, scale, &base_cfg),
            base_cfg,
            app,
            progs,
        })
    }

    /// The same benchmark, data and built programs under a different
    /// base configuration — a refcount bump per buffer and kernel, no
    /// rebuild. How sweeps over a config axis (AGT size, warp scheduler,
    /// reserved SMXs) get one setup per benchmark instead of one per cell.
    pub fn with_config(&self, base_cfg: GpuConfig) -> CellSetup {
        CellSetup {
            benchmark: self.benchmark,
            scale: self.scale,
            keys: keys_of(self.benchmark, self.scale, &base_cfg),
            base_cfg,
            app: self.app.clone(),
            progs: self.progs.clone(),
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

    /// The app over its shared workload buffers.
    pub fn app(&self) -> &App {
        &self.app
    }

    /// The prepared program (and its kernel ids) for `variant`: the one
    /// program of its [`launch_mode`](Variant::launch_mode).
    pub fn program(&self, variant: Variant) -> &(Program, Vec<KernelId>) {
        &self.progs[variant.launch_mode() as usize]
    }

    /// The fully-resolved config a `variant` cell runs under (base config
    /// with the variant's knobs applied) — the config that feeds the
    /// cache key's `config_hash`.
    pub fn run_cfg(&self, variant: Variant) -> GpuConfig {
        variant.configure(self.base_cfg.clone())
    }

    /// Content address of this setup's `variant` cell: [`cell_key`] of
    /// its benchmark, scale and base config, computed when the setup was
    /// built, so this is a clone of the stored key.
    pub fn cell_key(&self, variant: Variant) -> CellKey {
        self.keys[variant.index()].clone()
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
        self.app
            .drive(&mut gpu, self.benchmark.name(), ids, variant)
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
        self.app.drive(gpu, self.benchmark.name(), ids, variant)
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
        assert!(cell.app().ptr_eq(setup.app()));
        // Programs are prepared per launch mode and handed out by
        // refcount bump, not rebuilt: the variants of one mode share one.
        let (prog, _) = setup.program(Variant::Dtbl);
        assert!(prog.shares_kernels(&setup.program(Variant::Dtbl).0));
        for (a, b) in [
            (Variant::Cdp, Variant::CdpIdeal),
            (Variant::Dtbl, Variant::DtblIdeal),
            (Variant::Dtbl, Variant::DtblNoCoalesce),
        ] {
            assert!(setup.program(a).0.shares_kernels(&setup.program(b).0));
        }
        assert!(!prog.shares_kernels(&setup.program(Variant::Cdp).0));
        assert!(!prog.shares_kernels(&setup.program(Variant::Flat).0));

        // A config-axis sibling shares both and differs only in its key.
        let wide = setup.with_config(GpuConfig {
            agt_entries: 256,
            ..GpuConfig::test_small()
        });
        assert!(wide.app().ptr_eq(setup.app()));
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
