//! [`App`]: the one seam between a benchmark input and its application.
//! It builds the app's program for a launch mode and drives the app's
//! host loop on a bound simulator; every way to run a cell goes through
//! it.

use crate::apps::{amr, bfs, bht, clr, join, pre, regx, sssp};
use crate::common::{LaunchMode, Variant};
use crate::data::mesh::ScalarField;
use crate::data::points::PointSet;
use crate::data::ratings::RatingSet;
use crate::data::relations::JoinInput;
use crate::data::strings::PacketSet;
use crate::data::CsrGraph;
use crate::report::RunReport;
use gpu_isa::{KernelId, Program};
use gpu_sim::{Gpu, GpuConfig, SimError};
use std::sync::Arc;

/// One application over its input. The input sits behind an `Arc`, so
/// every variant cell of a benchmark reads the same buffers (asserted via
/// [`ptr_eq`](App::ptr_eq) in the sweep tests).
#[derive(Clone, Debug)]
pub enum App {
    /// Adaptive mesh refinement over a combustion-like scalar field.
    Amr(Arc<ScalarField>),
    /// Barnes-Hut quadtree build over a point set.
    Bht(Arc<PointSet>),
    /// Breadth-first search from vertex 0.
    Bfs(Arc<CsrGraph>),
    /// Graph coloring.
    Clr(Arc<CsrGraph>),
    /// Regular-expression matching over a packet set.
    Regx(Arc<PacketSet>),
    /// Item-similarity scores over a rating matrix.
    Pre(Arc<RatingSet>),
    /// Hash-join probe of one relation against another.
    Join(Arc<JoinInput>),
    /// Single-source shortest path from vertex 0 (unit weights when the
    /// graph has none).
    Sssp(Arc<CsrGraph>),
}

impl App {
    /// Builds the app's program for `mode`, with its kernel ids in the
    /// order the app's host loop reads them.
    ///
    /// # Errors
    ///
    /// Any kernel-construction [`SimError`].
    pub fn build(&self, mode: LaunchMode) -> Result<(Program, Vec<KernelId>), SimError> {
        match self {
            App::Amr(_) => amr::build_program(mode),
            App::Bht(_) => bht::build_program(mode),
            App::Bfs(_) => bfs::build_program(mode),
            App::Clr(_) => clr::build_program(mode),
            App::Regx(_) => regx::build_program(mode),
            App::Pre(_) => pre::build_program(mode),
            App::Join(_) => join::build_program(mode),
            App::Sssp(_) => sssp::build_program(mode),
        }
    }

    /// Runs `variant` on a fresh simulator built from `base_cfg` with the
    /// variant's knobs applied, validating the output against the app's
    /// host reference. `name` labels the report and any validation error.
    ///
    /// # Errors
    ///
    /// Any [`SimError`] from the build, the run or its validation.
    pub fn run(
        &self,
        name: &str,
        variant: Variant,
        base_cfg: GpuConfig,
    ) -> Result<RunReport, SimError> {
        let (prog, ids) = self.build(variant.launch_mode())?;
        let mut gpu = Gpu::new(variant.configure(base_cfg), prog);
        self.drive(&mut gpu, name, &ids, variant)
    }

    /// Drives the app's host loop on `gpu`, already bound (fresh or
    /// warm-rebound) to a program [`build`](App::build) made with kernel
    /// ids `ids`, validates the output and reports the run: the mutable
    /// half of the setup/run split.
    pub(crate) fn drive(
        &self,
        gpu: &mut Gpu,
        name: &str,
        ids: &[KernelId],
        variant: Variant,
    ) -> Result<RunReport, SimError> {
        match self {
            App::Amr(f) => amr::drive(gpu, name, f, ids),
            App::Bht(p) => bht::drive(gpu, name, p, ids),
            App::Bfs(g) => bfs::drive(gpu, name, g, ids),
            App::Clr(g) => clr::drive(gpu, name, g, ids),
            App::Regx(p) => regx::drive(gpu, name, p, ids),
            App::Pre(r) => pre::drive(gpu, name, r, ids),
            App::Join(j) => join::drive(gpu, name, j, ids),
            App::Sssp(g) => sssp::drive(gpu, name, g, ids),
        }?;
        Ok(RunReport {
            benchmark: name.to_string(),
            variant,
            stats: gpu.stats().clone(),
            trace: gpu.take_trace(),
        })
    }

    /// True when `self` and `other` are the same app over the *same*
    /// buffers (pointer identity, not value equality).
    pub fn ptr_eq(&self, other: &App) -> bool {
        match (self, other) {
            (App::Amr(a), App::Amr(b)) => Arc::ptr_eq(a, b),
            (App::Bht(a), App::Bht(b)) => Arc::ptr_eq(a, b),
            (App::Bfs(a), App::Bfs(b))
            | (App::Clr(a), App::Clr(b))
            | (App::Sssp(a), App::Sssp(b)) => Arc::ptr_eq(a, b),
            (App::Regx(a), App::Regx(b)) => Arc::ptr_eq(a, b),
            (App::Pre(a), App::Pre(b)) => Arc::ptr_eq(a, b),
            (App::Join(a), App::Join(b)) => Arc::ptr_eq(a, b),
            _ => false,
        }
    }
}
