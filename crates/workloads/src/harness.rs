//! The benchmark matrix of Table 4: eight applications × their input
//! data sets, at test and evaluation scales.

use crate::common::Variant;
use crate::report::RunReport;
use gpu_sim::{GpuConfig, SimError};
use std::fmt;

/// Problem scale: `Test` sizes finish in well under a second each (CI),
/// `Eval` sizes are used by the figure-regeneration harnesses.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Scale {
    /// Small inputs for unit/integration tests.
    Test,
    /// Evaluation inputs for the figure harness binaries.
    Eval,
}

impl Scale {
    /// Lower-case wire name (`test` / `eval`).
    pub fn name(self) -> &'static str {
        match self {
            Scale::Test => "test",
            Scale::Eval => "eval",
        }
    }

    /// Parses a wire [`name`](Scale::name) back into its scale.
    pub fn from_name(name: &str) -> Option<Scale> {
        match name {
            "test" => Some(Scale::Test),
            "eval" => Some(Scale::Eval),
            _ => None,
        }
    }
}

/// The 16 benchmark configurations of the paper's evaluation (Table 4).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
#[allow(missing_docs)]
pub enum Benchmark {
    Amr,
    Bht,
    BfsCitation,
    BfsUsaRoad,
    BfsCage15,
    ClrCitation,
    ClrGraph500,
    ClrCage15,
    RegxDarpa,
    RegxString,
    PreMovielens,
    JoinUniform,
    JoinGaussian,
    SsspCitation,
    SsspFlight,
    SsspCage15,
}

impl Benchmark {
    /// Every configuration, in the paper's figure order.
    pub const ALL: [Benchmark; 16] = [
        Benchmark::Amr,
        Benchmark::Bht,
        Benchmark::BfsCitation,
        Benchmark::BfsUsaRoad,
        Benchmark::BfsCage15,
        Benchmark::ClrCitation,
        Benchmark::ClrGraph500,
        Benchmark::ClrCage15,
        Benchmark::RegxDarpa,
        Benchmark::RegxString,
        Benchmark::PreMovielens,
        Benchmark::JoinUniform,
        Benchmark::JoinGaussian,
        Benchmark::SsspCitation,
        Benchmark::SsspFlight,
        Benchmark::SsspCage15,
    ];

    /// The configuration's name as it appears on the paper's x-axes.
    pub fn name(self) -> &'static str {
        match self {
            Benchmark::Amr => "amr",
            Benchmark::Bht => "bht",
            Benchmark::BfsCitation => "bfs_citation",
            Benchmark::BfsUsaRoad => "bfs_usa_road",
            Benchmark::BfsCage15 => "bfs_cage15",
            Benchmark::ClrCitation => "clr_citation",
            Benchmark::ClrGraph500 => "clr_graph500",
            Benchmark::ClrCage15 => "clr_cage15",
            Benchmark::RegxDarpa => "regx_darpa",
            Benchmark::RegxString => "regx_string",
            Benchmark::PreMovielens => "pre_movielens",
            Benchmark::JoinUniform => "join_uniform",
            Benchmark::JoinGaussian => "join_gaussian",
            Benchmark::SsspCitation => "sssp_citation",
            Benchmark::SsspFlight => "sssp_flight",
            Benchmark::SsspCage15 => "sssp_cage15",
        }
    }

    /// Parses a configuration [`name`](Benchmark::name) (e.g.
    /// `bfs_usa_road`) back into its benchmark — the inverse used by the
    /// daemon wire protocol, where cells arrive as names.
    pub fn from_name(name: &str) -> Option<Benchmark> {
        Benchmark::ALL.into_iter().find(|b| b.name() == name)
    }

    /// Runs the benchmark at `scale` under `variant` on the default K20c
    /// configuration. Fails with a typed [`SimError`] — e.g.
    /// [`SimError::ValidationFailed`] naming the benchmark — instead of
    /// panicking, so a sweep can report which configuration broke and
    /// keep going.
    pub fn run(self, variant: Variant, scale: Scale) -> Result<RunReport, SimError> {
        self.run_with(variant, scale, GpuConfig::k20c())
    }

    /// Runs with a caller-supplied base configuration: a one-shot
    /// [`CellSetup`](crate::CellSetup) run on a fresh simulator. Sweeps
    /// that revisit a benchmark keep the setup and amortize it.
    pub fn run_with(
        self,
        variant: Variant,
        scale: Scale,
        cfg: GpuConfig,
    ) -> Result<RunReport, SimError> {
        crate::CellSetup::new(self, scale, cfg)?.run(variant)
    }
}

impl fmt::Display for Benchmark {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_names_unique_and_in_paper_order() {
        let names: Vec<&str> = Benchmark::ALL.iter().map(|b| b.name()).collect();
        let mut dedup = names.clone();
        dedup.sort_unstable();
        dedup.dedup();
        assert_eq!(dedup.len(), 16);
        assert_eq!(names[0], "amr");
        assert_eq!(names[15], "sssp_cage15");
        assert_eq!(Benchmark::BfsCage15.to_string(), "bfs_cage15");
    }

    #[test]
    fn names_round_trip_through_the_parsers() {
        for b in Benchmark::ALL {
            assert_eq!(Benchmark::from_name(b.name()), Some(b));
        }
        assert_eq!(Benchmark::from_name("nope"), None);
        for s in [Scale::Test, Scale::Eval] {
            assert_eq!(Scale::from_name(s.name()), Some(s));
        }
        assert_eq!(Scale::from_name("huge"), None);
    }
}
