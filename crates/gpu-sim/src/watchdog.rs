//! Forward-progress watchdog: hang-report construction.
//!
//! [`Gpu::run_to_idle`](crate::Gpu::run_to_idle) tracks a monotone
//! progress marker (bumped on kernel installation, thread-block placement
//! and retirement, memory completions and dynamic launches). When the
//! marker stalls for a full `watchdog_window`, this module snapshots the
//! machine into a [`HangReport`]: every stuck warp with its PC, active
//! mask and blocking reason, plus the queue depths a hang post-mortem
//! needs. The caller classifies the report — all stuck warps parked at a
//! barrier means [`SimError::BarrierDeadlock`](crate::SimError), anything
//! else a generic [`SimError::Hang`](crate::SimError).

use crate::error::{HangReport, StuckWarp, StuckWarpState};
use crate::gpu::Gpu;
use crate::smx::warp::WarpState;

impl Gpu {
    /// Snapshots every non-retired warp and the launch-path queues into a
    /// structured hang report. `last_progress_cycle` is the last cycle the
    /// run loop observed forward progress.
    pub fn hang_report(&self, last_progress_cycle: u64) -> HangReport {
        let mut stuck_warps = Vec::new();
        for smx in &self.smxs {
            for (slot, warp) in smx.warps.iter().enumerate() {
                let Some(warp) = warp else { continue };
                if matches!(warp.state, WarpState::Done) || warp.is_done() {
                    continue;
                }
                let Some((pc, active_mask)) = warp.current() else {
                    continue;
                };
                let state = match warp.state {
                    WarpState::AtBarrier => {
                        let (arrived, live) = smx.tb_slots[warp.tb_slot]
                            .as_ref()
                            .map_or((0, 0), |tb| (tb.barrier_arrived, tb.live_warps));
                        StuckWarpState::AtBarrier { arrived, live }
                    }
                    WarpState::WaitingMem { outstanding } => {
                        StuckWarpState::WaitingMem { outstanding }
                    }
                    WarpState::Ready | WarpState::Done => StuckWarpState::Stalled {
                        ready_at: smx.issuable_at(slot),
                    },
                };
                stuck_warps.push(StuckWarp {
                    smx: smx.id,
                    warp_slot: slot,
                    tb_slot: warp.tb_slot,
                    pc,
                    active_mask,
                    state,
                });
            }
        }
        HangReport {
            cycle: self.cycle,
            last_progress_cycle,
            stuck_warps,
            outstanding_mem: self.timing.in_flight(),
            recent_events: self.tracer.recent(),
            ..self.launch_unit.hang_report()
        }
    }
}
