//! The paper's evidence at Test scale, end to end: one sweep of every
//! `bench::FIGURES` cell — the same path `all_figures` renders from —
//! then assertions over the shared matrix. Every claim holds, every cell
//! validates against its host reference, every stock cell's simulated
//! cycles match `tests/golden/test_matrix_cycles.tsv`, and EXPERIMENTS.md
//! embeds the claims block this sweep renders.

use bench::{claims_markdown, run_figures, Claim, Figure, Matrix, Render, SweepRunner};
use bench::{FIGURES, STOCK};
use dtbl_repro::gpu_sim::{sweep::default_jobs, GpuConfig, Stats};
use dtbl_repro::workloads::{Benchmark, Scale, Variant};
use std::sync::OnceLock;

/// The sweep and every figure's claims over its rendered rows.
struct Sweep {
    m: Matrix,
    claims: Vec<(&'static str, Vec<Claim>)>,
}

/// One cell no figure reads, run in the same sweep: bfs_citation under
/// DTBL with a 4096-entry AGT, four times the stock table (Figure 12's
/// Test-scale sizes stop at 128), so an AGT larger than stock validates.
static LARGE_AGT: Figure = Figure {
    name: "large_agt",
    cells: (
        &[Benchmark::BfsCitation],
        &[("agt4096", |c, _| GpuConfig {
            agt_entries: 4096,
            ..c
        })],
        &[Variant::Dtbl],
    ),
    render: Render::Text(|_, _| {}),
    summary: |_, _| Vec::new(),
};

/// Runs the sweep once per test process; every test reads it.
fn sweep() -> &'static Sweep {
    static SWEEP: OnceLock<Sweep> = OnceLock::new();
    SWEEP.get_or_init(|| {
        let figures: Vec<&Figure> = FIGURES.iter().chain([&LARGE_AGT]).collect();
        let runner = SweepRunner::new(default_jobs().min(4));
        let m = run_figures(&runner, &figures, Scale::Test, GpuConfig::k20c());
        let claims = FIGURES
            .iter()
            .map(|f| (f.name, (f.summary)(&m, &f.rows(&m))))
            .collect();
        Sweep { m, claims }
    })
}

/// Asserts every claim of the named figures holds, listing those that
/// do not.
fn claims_hold(figures: &[&str]) {
    let s = sweep();
    let mut checked = 0;
    let mut broken = Vec::new();
    for (name, claims) in s.claims.iter().filter(|(n, _)| figures.contains(n)) {
        checked += claims.len();
        broken.extend(
            claims
                .iter()
                .filter(|c| !c.holds())
                .map(|c| format!("{name}: {} {:?} (want {})", c.name, c.measured, c.sense)),
        );
    }
    assert!(checked > 0, "no claims from {figures:?}");
    assert!(broken.is_empty(), "claims not held:\n{}", broken.join("\n"));
}

/// The stock-config stats of one cell.
fn stats(b: Benchmark, v: Variant) -> &'static Stats {
    &sweep().m.at(b, STOCK.0, v).stats
}

/// Every cell of `v`, under every config of the sweep, validated; and all
/// 16 benchmarks ran it on the stock machine.
fn validates(v: Variant) {
    let m = &sweep().m;
    let failed: Vec<String> = m
        .failures()
        .iter()
        .filter(|((_, _, fv), _)| *fv == v)
        .map(|((b, c, _), e)| format!("{b} [{v}] @ {c}: {e}"))
        .collect();
    assert!(failed.is_empty(), "{}", failed.join("\n"));
    for b in Benchmark::ALL {
        assert!(stats(b, v).cycles > 0, "{b} [{v}] ran no cycles");
    }
}

/// Every claim every figure makes holds at Test scale: the Figure 11
/// ordering, the Figure 6–10 directions, Figure 12's monotone average,
/// the ablations, Tables 2 and 3 and §4.3 exact, and the pinned
/// deviations (a deviation that closes fails here).
#[test]
fn every_claim_holds() {
    let names: Vec<&str> = FIGURES.iter().map(|f| f.name).collect();
    claims_hold(&names);
}

/// No cell of the sweep failed, and the 80 cells of the stock matrix
/// (16 benchmarks × 5 figure variants) are all in it.
#[test]
fn every_cell_validates() {
    let m = &sweep().m;
    assert!(m.failures().is_empty(), "{:?}", m.failures());
    for b in Benchmark::ALL {
        for v in Variant::MAIN {
            assert!(m.find(b, STOCK.0, v).is_some(), "{b} [{v}] missing");
        }
    }
}

/// Each stock cell's `sim_cycles` equals its golden value, so a timing
/// change shows up as a reviewed diff of named cells. On a mismatch the
/// failure lists the differing cells and the full replacement file.
#[test]
fn stock_matrix_cycles_match_golden() {
    let golden = include_str!("golden/test_matrix_cycles.tsv");
    let mut now = String::from("benchmark\tvariant\tsim_cycles\n");
    let mut total = 0;
    for b in Benchmark::ALL {
        for v in Variant::MAIN {
            let cycles = stats(b, v).cycles;
            total += cycles;
            now.push_str(&format!("{}\t{}\t{cycles}\n", b.name(), v.label()));
        }
    }
    if now != golden {
        let was = |cell: &str| golden.lines().find_map(|l| l.strip_prefix(cell));
        let diff: Vec<String> = (now.lines().skip(1))
            .filter(|l| !golden.lines().any(|g| g == *l))
            .map(|l| {
                let (cell, cycles) = l.rsplit_once('\t').expect("three columns");
                let old = was(&format!("{cell}\t")).unwrap_or("none");
                format!("  {}: {old} -> {cycles} cycles", cell.replace('\t', " "))
            })
            .collect();
        panic!(
            "{} cell(s) differ from tests/golden/test_matrix_cycles.tsv:\n{}\n\
             replacement file:\n{now}",
            diff.len(),
            diff.join("\n")
        );
    }
    assert_eq!(total, 28_590_263, "total simulated cycles of the 80 cells");
}

/// EXPERIMENTS.md holds `all_figures --test-scale`'s claims block
/// verbatim between its Test-scale markers, so a hand edit of the block, or
/// a claim or paper value changed in code without regenerating it, fails
/// here. On a mismatch the failure prints the replacement block.
#[test]
fn experiments_md_embeds_the_test_scale_claims() {
    let doc = include_str!("../EXPERIMENTS.md");
    let (begin, end) = (
        "<!-- begin claims: Test scale -->\n",
        "\n<!-- end claims: Test scale -->",
    );
    let block = doc
        .split_once(begin)
        .and_then(|(_, rest)| rest.split_once(end));
    let block = block
        .expect("EXPERIMENTS.md marks its Test-scale claims block")
        .0;
    let figures: Vec<&Figure> = FIGURES.iter().collect();
    let now = claims_markdown(&sweep().m, &figures);
    assert!(
        block == now,
        "EXPERIMENTS.md's Test-scale claims block differs from the run; \
         replacement block:\n{now}"
    );
}

/// Every benchmark validates under Flat, and Flat never launches.
#[test]
fn all_benchmarks_validate_flat() {
    validates(Variant::Flat);
    for b in Benchmark::ALL {
        assert_eq!(
            stats(b, Variant::Flat).dyn_launches(),
            0,
            "{b}: flat must not launch"
        );
    }
}

/// Every benchmark validates under DTBL, under every config it ran: the
/// paper's mechanism never changes results.
#[test]
fn all_benchmarks_validate_dtbl() {
    validates(Variant::Dtbl);
}

/// Every benchmark validates under CDP.
#[test]
fn all_benchmarks_validate_cdp() {
    validates(Variant::Cdp);
}

/// On all 16 benchmarks the ideal variants are never slower than their
/// measured counterparts: launch latency can only cost cycles.
#[test]
fn ideal_variants_upper_bound_measured_ones() {
    for b in Benchmark::ALL {
        for (ideal, real) in [
            (Variant::CdpIdeal, Variant::Cdp),
            (Variant::DtblIdeal, Variant::Dtbl),
        ] {
            let (i, r) = (stats(b, ideal).cycles, stats(b, real).cycles);
            assert!(
                i <= r,
                "{b}: {ideal} ({i}) must not be slower than {real} ({r})"
            );
        }
    }
}

/// Dynamic launching raises warp activity on imbalanced inputs (the
/// Figure 6 direction), and CDP and DTBL run the same dynamic work
/// (§5.2A): the Figure 6 claims, plus bht and bfs_citation each gaining.
#[test]
fn warp_activity_rises_with_dynamic_launching() {
    claims_hold(&["fig06"]);
    for b in [Benchmark::Bht, Benchmark::BfsCitation] {
        let act = |v| stats(b, v).warp_activity_pct();
        let (flat, dtbl) = (act(Variant::Flat), act(Variant::Dtbl));
        assert!(
            dtbl > flat,
            "{b}: DTBL activity {dtbl:.1}% must exceed flat {flat:.1}%"
        );
    }
}

/// DTBL beats CDP wherever launches happen and waits less with a smaller
/// footprint (Figures 9–11). amr, bfs_citation and pre_movielens must
/// launch under DTBL: the comparison is never vacuous.
#[test]
fn dtbl_beats_cdp_on_launch_bearing_benchmarks() {
    claims_hold(&["fig09", "fig10", "fig11"]);
    for b in [
        Benchmark::Amr,
        Benchmark::BfsCitation,
        Benchmark::PreMovielens,
    ] {
        assert!(
            stats(b, Variant::Dtbl).dyn_launches() > 0,
            "{b} must launch under DTBL"
        );
    }
    for b in Benchmark::ALL
        .into_iter()
        .filter(|&b| stats(b, Variant::Dtbl).dyn_launches() > 0)
    {
        let (cdp, dtbl) = (stats(b, Variant::Cdp), stats(b, Variant::Dtbl));
        assert!(
            dtbl.cycles < cdp.cycles,
            "{b}: DTBL ({}) must beat CDP ({})",
            dtbl.cycles,
            cdp.cycles
        );
        assert!(
            dtbl.peak_pending_bytes <= cdp.peak_pending_bytes,
            "{b}: DTBL footprint must not exceed CDP's"
        );
    }
}

/// Low-degree inputs stay near 1.0x under every launch mechanism and
/// never launch (degree ≤ 4) — the paper's §5.2C observation.
#[test]
fn low_degree_inputs_are_unaffected() {
    let flat = stats(Benchmark::BfsUsaRoad, Variant::Flat).cycles as f64;
    for v in [
        Variant::CdpIdeal,
        Variant::DtblIdeal,
        Variant::Cdp,
        Variant::Dtbl,
    ] {
        let r = stats(Benchmark::BfsUsaRoad, v);
        let ratio = flat / r.cycles as f64;
        assert!(
            (0.8..=1.25).contains(&ratio),
            "bfs_usa_road [{v}] speedup {ratio:.2} should be ~1.0"
        );
        assert_eq!(r.dyn_launches(), 0, "degree ≤ 4 never launches");
    }
}

/// Figure 12's mechanism end to end: the smallest AGT spills the
/// launch-dense benchmarks' coalesced groups more than the 1024-entry
/// one, and every AGT size validates, up to a 4096-entry table. The
/// benchmarks asserted to spill do coalesce: bfs_citation, for one,
/// coalesces no group at Test scale, so a spill check on it could never
/// fail.
#[test]
fn tiny_agt_spills_but_stays_correct() {
    claims_hold(&["fig12"]);
    let m = &sweep().m;
    for b in [
        Benchmark::Amr,
        Benchmark::ClrGraph500,
        Benchmark::SsspCage15,
    ] {
        let agt = |c| &m.at(b, c, Variant::Dtbl).stats;
        let (small, full) = (agt("32"), agt("1024"));
        assert!(
            small.agg_coalesced > 8,
            "{b}: {} coalesced groups",
            small.agg_coalesced
        );
        assert!(
            small.agt_overflows > full.agt_overflows,
            "{b}: a smaller AGT must spill more ({} vs {})",
            small.agt_overflows,
            full.agt_overflows
        );
    }
    let large = m.find(Benchmark::BfsCitation, "agt4096", Variant::Dtbl);
    assert!(large.is_some(), "bfs_citation with a 4096-entry AGT");
}

/// The coalescing-disabled ablation (§4.3's "more KDE entries instead")
/// launches every group as a device kernel: correct, with no coalesces.
/// amr must launch, so the fallback count is checked on real launches.
#[test]
fn no_coalesce_ablation_runs_correctly() {
    claims_hold(&["ablation_coalescing"]);
    assert!(stats(Benchmark::Amr, Variant::DtblNoCoalesce).dyn_launches() > 0);
    let ablation = FIGURES.iter().find(|f| f.name == "ablation_coalescing");
    for &b in ablation.expect("the coalescing ablation").cells.0 {
        let r = stats(b, Variant::DtblNoCoalesce);
        assert_eq!(r.agg_coalesced, 0, "{b}");
        assert_eq!(r.agg_fallbacks as usize, r.dyn_launches(), "{b}");
    }
}

/// The §4.3 hardware-cost model, Table 2 and Table 3 reproduce the
/// paper's numbers exactly.
#[test]
fn overhead_numbers_match_paper() {
    claims_hold(&["overhead", "table2", "table3"]);
}
