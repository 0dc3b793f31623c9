//! DTBL aggregated-group launch path (`cudaLaunchAggGroup`, §4.2–4.3).

use super::degrade::note_agg_degraded;
use super::{record_launch, LaunchCtx, LaunchUnit};
use crate::error::SimError;
use crate::gpu::invariant;
use crate::stats::{DynLaunchKind, LaunchRecord};
use dtbl_core::CoalesceOutcome;
use gpu_isa::LaunchKind;

/// Bytes of a spilled aggregated-group descriptor (an AGE image plus
/// alignment) when the AGT hash probe misses.
const AGG_OVERFLOW_RECORD_BYTES: u64 = 32;

impl LaunchUnit {
    /// Routes one lane's launch request, issued at `now` and visible to
    /// the KMU at `visible_at`: DTBL launches try to coalesce onto an
    /// eligible resident kernel; CDP launches (and DTBL fallbacks) become
    /// pending device kernels.
    ///
    /// # Errors
    ///
    /// * [`SimError::UnknownKernel`] — the simulated program launched a
    ///   kernel id that is not in the loaded program (guest bug, reported
    ///   instead of panicking the simulator);
    /// * a guest fault in a grid the degradation ladder host-serializes,
    ///   via the device-kernel path, for a launch held back by an injected
    ///   KMU cap.
    ///
    /// A spilled descriptor that finds no storage is not an error: the
    /// launch demotes to a device kernel (see `launch::degrade`).
    pub(crate) fn handle_launch(
        &mut self,
        hw_tid: u32,
        req: gpu_isa::LaunchRequest,
        now: u64,
        visible_at: u64,
        ctx: &mut LaunchCtx,
    ) -> Result<(), SimError> {
        if req.ntb == 0 {
            return Ok(());
        }
        let child = (ctx.program.get(req.kernel)).ok_or(SimError::UnknownKernel(req.kernel))?;
        let threads_per_tb = child.threads_per_block();
        if req.kind == LaunchKind::Agg && !ctx.cfg.dtbl_disable_coalescing {
            let eligible = self.kd.find_eligible(req.kernel);
            let marked = eligible.is_some_and(|k| self.fcfs.is_marked(k));
            let info = dtbl_core::AggGroupInfo {
                kernel: req.kernel,
                ntb: req.ntb,
                param_addr: req.param_addr,
                kde: 0,
            };
            // Fault hooks: force the hash probe to miss, and/or cap how
            // many spilled descriptors may be live at once.
            let fault = ctx.cfg.fault;
            let fault_on = fault.active_at(now);
            let force_miss = fault_on && fault.force_agt_overflow;
            self.pool.agt_mut().set_force_overflow(force_miss);
            let spill_capped = fault_on
                && fault
                    .agt_overflow_capacity
                    .is_some_and(|cap| self.pool.agt().live_overflow() >= cap);
            let mut spill_failed = false;
            let outcome = self.pool.coalesce(eligible, marked, hw_tid, info, || {
                if spill_capped {
                    ctx.stats.agt_overflow_exhausted += 1;
                    spill_failed = true;
                    return None;
                }
                let addr = ctx.heap_alloc(now, AGG_OVERFLOW_RECORD_BYTES as u32);
                spill_failed |= addr.is_none();
                addr
            });
            self.pool.agt_mut().set_force_overflow(false);
            if spill_failed {
                // The spill descriptor found no storage (no heap space, or
                // the injected spill cap): the launch demotes one rung — a
                // plain device kernel needs no descriptor — via the
                // `Fallback` outcome the failed spill already produced.
                note_agg_degraded(req.kernel, now, ctx);
            }
            if let CoalesceOutcome::Coalesced { group, remark } = outcome {
                // The buffer now belongs to the aggregated group, not to
                // any kernel entry; drop the size record (the group's
                // blocks read it until the group drains).
                let param_sz = self
                    .param_bytes
                    .remove(&req.param_addr)
                    .map_or(0, u64::from);
                let Some(kde) = eligible else {
                    return Err(invariant(
                        now,
                        "coalesced a group without an eligible kernel".into(),
                    ));
                };
                if remark {
                    self.fcfs.remark(kde);
                }
                ctx.stats.agg_coalesced += 1;
                let descr = if group.is_overflow() {
                    ctx.stats.agt_overflows += 1;
                    if force_miss {
                        ctx.stats.forced_agt_overflows += 1;
                    }
                    AGG_OVERFLOW_RECORD_BYTES
                } else {
                    0
                };
                ctx.stats.add_pending(descr);
                let record = LaunchRecord {
                    kind: DynLaunchKind::AggGroup,
                    launched_at: now,
                    first_tb_at: None,
                    ntb: req.ntb,
                    threads_per_tb,
                    reserved_bytes: param_sz + descr,
                };
                let record = record_launch(req.kernel, record, ctx);
                self.group_record.insert(group, record);
                *ctx.progress += 1;
                return Ok(());
            }
        }
        let kind = if req.kind == LaunchKind::Agg {
            ctx.stats.agg_fallbacks += 1;
            DynLaunchKind::AggFallback
        } else {
            DynLaunchKind::DeviceKernel
        };
        self.enqueue_device_kernel(req, kind, now, visible_at, 0, ctx)
    }
}
