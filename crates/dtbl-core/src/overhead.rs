//! Hardware and timing overhead model (§4.3 of the paper).
//!
//! The paper reports that DTBL's extension registers take **1096 bytes** of
//! on-chip SRAM and that a 1024-entry AGT takes **20 KB at 20 bytes per
//! entry** (≈0.5% of the area of all SMX shared memory + register files).
//! This module regenerates those numbers from the structural parameters so
//! `all_figures overhead` can print the paper's Table-style summary.

/// Structural parameters of the GPU that determine the extension cost.
/// `all_figures overhead` takes them from `GpuConfig::k20c()`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct OverheadParams {
    /// Kernel Distributor entries (32 on GK110).
    pub kde_entries: u32,
    /// Number of SMXs (13 on a Tesla K20c).
    pub num_smx: u32,
    /// Maximum resident thread blocks per SMX (16 on GK110).
    pub tb_slots_per_smx: u32,
    /// AGT entries.
    pub agt_entries: u32,
}

/// Bytes of one AGE: `AggDim` (3 × u16 = 6 B), `Param` pointer (4 B),
/// `Next` link with overflow flag (4 B), `ExeBL` (4 B), owning `KDEI`
/// (1 B), status flags (1 B) — 20 bytes, the paper's figure.
pub const AGE_BYTES: u32 = 20;

/// Per-KDE extension: `NAGEI` + `LAGEI` (4 B each — AGT index or
/// global-memory pointer tag).
pub const KDE_EXT_BYTES_PER_ENTRY: u32 = 8;

/// Per-KDE FCFS extension bits: the marked bit and the first-dispatch bit.
pub const FCFS_BITS_PER_ENTRY: u32 = 2;

/// Per-TB-slot extension in each SMX's thread-block control registers: the
/// `AGEI` field (4 B).
pub const TBCR_EXT_BYTES_PER_SLOT: u32 = 4;

/// Breakdown of the on-chip SRAM cost.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SramCost {
    /// NAGEI/LAGEI registers across the Kernel Distributor.
    pub kde_ext_bytes: u32,
    /// FCFS mark/first bits, rounded up to whole bytes in aggregate.
    pub fcfs_bytes: u32,
    /// AGEI fields in the per-SMX thread-block control registers (and the
    /// SMX scheduler's SSCR, which shares the same field).
    pub tbcr_bytes: u32,
    /// The AGT itself.
    pub agt_bytes: u32,
}

impl SramCost {
    /// Extension registers (everything except the AGT). The paper quotes
    /// 1096 bytes for the GK110/K20c parameters.
    pub fn extension_register_bytes(&self) -> u32 {
        self.kde_ext_bytes + self.fcfs_bytes + self.tbcr_bytes
    }

    /// Total including the AGT.
    pub fn total_bytes(&self) -> u32 {
        self.extension_register_bytes() + self.agt_bytes
    }
}

/// Computes the SRAM cost breakdown for the given structure.
pub fn sram_cost(p: &OverheadParams) -> SramCost {
    SramCost {
        kde_ext_bytes: p.kde_entries * KDE_EXT_BYTES_PER_ENTRY,
        fcfs_bytes: (p.kde_entries * FCFS_BITS_PER_ENTRY).div_ceil(8),
        tbcr_bytes: p.num_smx * p.tb_slots_per_smx * TBCR_EXT_BYTES_PER_SLOT,
        agt_bytes: p.agt_entries * AGE_BYTES,
    }
}

/// Timing overhead of launching aggregated groups (§4.3).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct LaunchTiming {
    /// Pipelined KDE eligibility search: 1 cycle per entry, max 32.
    pub kde_search_cycles: u64,
    /// AGT free-entry probe: single-cycle hash.
    pub agt_probe_cycles: u64,
}

/// Cycles to search the Kernel Distributor for an eligible kernel. The
/// search is pipelined over the simultaneous launches of a warp, so the
/// per-command cost is the table depth.
pub fn launch_timing(kde_entries: u32) -> LaunchTiming {
    LaunchTiming {
        kde_search_cycles: u64::from(kde_entries.min(32)),
        agt_probe_cycles: 1,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The GK110/K20c structure of §4.3 with a 1024-entry AGT.
    const K20C: OverheadParams = OverheadParams {
        kde_entries: 32,
        num_smx: 13,
        tb_slots_per_smx: 16,
        agt_entries: 1024,
    };

    #[test]
    fn reproduces_paper_extension_register_cost() {
        let c = sram_cost(&K20C);
        // 32*8 = 256 (KDE) + 8 (FCFS bits) + 13*16*4 = 832 (TBCR) = 1096.
        assert_eq!(c.kde_ext_bytes, 256);
        assert_eq!(c.fcfs_bytes, 8);
        assert_eq!(c.tbcr_bytes, 832);
        assert_eq!(c.extension_register_bytes(), 1096, "paper §4.3 figure");
    }

    #[test]
    fn reproduces_paper_agt_cost() {
        let c = sram_cost(&K20C);
        assert_eq!(c.agt_bytes, 20 * 1024, "20KB for a 1024-entry AGT");
        assert_eq!(c.total_bytes(), 1096 + 20480);
    }

    #[test]
    fn agt_cost_scales_linearly() {
        let halved = sram_cost(&OverheadParams {
            agt_entries: 512,
            ..K20C
        });
        assert_eq!(halved.agt_bytes, 10 * 1024);
        assert_eq!(
            halved.extension_register_bytes(),
            1096,
            "registers unaffected"
        );
    }

    #[test]
    fn timing_overheads_match_section_4_3() {
        let t = launch_timing(32);
        assert_eq!(t.kde_search_cycles, 32, "maximum of 32 cycles, 1 per entry");
        assert_eq!(t.agt_probe_cycles, 1, "single-cycle hash probe");
        assert_eq!(launch_timing(16).kde_search_cycles, 16);
        assert_eq!(
            launch_timing(64).kde_search_cycles,
            32,
            "capped at the HW depth"
        );
    }
}
