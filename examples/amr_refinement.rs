//! Adaptive mesh refinement: each refining cell launches its 16 sub-cells
//! as a separate `amr_emit` leaf kernel, so the dynamically launched
//! groups coalesce onto a resident `amr_emit`, not onto the refinement
//! kernel that launched them.
//!
//! ```sh
//! cargo run --release --example amr_refinement
//! ```

use dtbl_repro::gpu_sim::GpuConfig;
use dtbl_repro::workloads::apps::amr;
use dtbl_repro::workloads::data::mesh;
use dtbl_repro::workloads::{App, Variant};
use std::sync::Arc;

fn main() {
    let field = Arc::new(mesh::combustion_field(256, 3, 7));
    let (cells, _) = amr::host_refine(&field);
    println!("combustion field 256x256, 3 flame fronts -> {cells} refined cells expected\n");
    let app = App::Amr(field);
    for v in [Variant::Flat, Variant::Cdp, Variant::Dtbl] {
        let r = match app.run("amr_example", v, GpuConfig::k20c()) {
            Ok(r) => r,
            Err(e) => {
                eprintln!("{:<5}  ** FAILED: {e}", v.label());
                continue;
            }
        };
        println!(
            "{:<5}  cycles {:>9}  warp-activity {:>5.1}%  launches {:>4}  coalesced {:>4}",
            v.label(),
            r.stats.cycles,
            r.stats.warp_activity_pct(),
            r.stats.dyn_launches(),
            r.stats.agg_coalesced,
        );
    }
    println!("\nIn the DTBL run a refining cell's group coalesces onto the `amr_emit` kernel");
    println!("already resident in the Kernel Distributor; `amr_level` never takes groups.");
}
