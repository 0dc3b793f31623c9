//! The two ways to run a cell drive the same app: [`App::run`] (a fresh
//! simulator over caller-supplied input) and [`CellSetup::run`] (the
//! setup's prebuilt programs) must give bit-identical `Stats` for every
//! benchmark's own Test-scale input. The cells run under `DtblIdeal`,
//! whose `configure` zeroes launch latencies, so an entry point that
//! skipped the variant's knobs would simulate a different machine.

use gpu_sim::{GpuConfig, SimError};
use workloads::{Benchmark, CellSetup, Scale, Variant};

#[test]
fn app_run_matches_cell_setup_run_on_every_benchmark() -> Result<(), SimError> {
    let cfg = GpuConfig::test_small();
    let v = Variant::DtblIdeal;
    assert_ne!(
        v.configure(cfg.clone()).content_hash(),
        cfg.content_hash(),
        "the variant must change the config for this test to see it dropped"
    );
    for b in Benchmark::ALL {
        let setup = CellSetup::new(b, Scale::Test, cfg.clone())?;
        // The two runs share nothing mutable; run them side by side.
        let (via_setup, via_app) = std::thread::scope(|s| {
            let via_app = s.spawn(|| setup.app().run(b.name(), v, cfg.clone()));
            (
                setup.run(v),
                via_app.join().expect("App::run does not panic"),
            )
        });
        let (via_setup, via_app) = (via_setup?, via_app?);
        assert_eq!(via_app.benchmark, via_setup.benchmark);
        assert_eq!(via_app.variant, via_setup.variant);
        assert!(via_app.stats == via_setup.stats, "{b}: stats differ");
    }
    Ok(())
}
