//! CDP device-kernel launch path (`cudaLaunchDevice`).

use super::{record_launch, LaunchCtx, LaunchUnit, Origin, PendingKernel};
use crate::error::SimError;
use crate::stats::{DynLaunchKind, LaunchRecord};
use std::sync::Arc;

/// Global-memory bytes the runtime reserves per pending device-launched
/// kernel beyond its parameter buffer (kernel configuration record, stream
/// object, KMU bookkeeping). CDP pays this; a coalesced DTBL group's
/// descriptor lives on-chip in the AGT instead.
const CDP_PENDING_RECORD_BYTES: u64 = 192;

impl LaunchUnit {
    /// Queues a device-launched kernel in the KMU (both genuine CDP
    /// launches and DTBL fallbacks end here), visible to dispatch at
    /// `visible_at`. `attempt` counts earlier deferrals (0 for a fresh
    /// launch), so a deferred launch keeps climbing it instead of
    /// restarting. The launch record reserves the parameter buffer's
    /// recorded size: the entry stays, so kernel retirement can release
    /// the exact bytes from heap accounting.
    ///
    /// When an injected cap on the KMU's pending device-kernel pool is
    /// already met — modelling the hardware pool backing up — the launch
    /// is deferred for a backed-off retry (see `launch::degrade`).
    ///
    /// # Errors
    ///
    /// [`SimError::UnknownKernel`] for a kernel not in the program, and a
    /// guest fault in a grid the ladder's last rung host-serializes.
    pub(super) fn enqueue_device_kernel(
        &mut self,
        req: gpu_isa::LaunchRequest,
        kind: DynLaunchKind,
        now: u64,
        visible_at: u64,
        attempt: u32,
        ctx: &mut LaunchCtx,
    ) -> Result<(), SimError> {
        let kernel_fn = (ctx.program.get(req.kernel)).ok_or(SimError::UnknownKernel(req.kernel))?;
        let kernel_fn = Arc::clone(kernel_fn);
        let param_sz = u64::from(self.param_bytes.get(&req.param_addr).copied().unwrap_or(0));
        let fault = &ctx.cfg.fault;
        let saturated = fault
            .kmu_device_capacity
            .is_some_and(|cap| fault.active_at(now) && self.kmu.pending_device_kernels() >= cap);
        if saturated {
            ctx.stats.kmu_saturation_rejections += 1;
            return self.defer_launch(req, kind, now, attempt + 1, ctx);
        }
        ctx.stats.add_pending(CDP_PENDING_RECORD_BYTES);
        let record = LaunchRecord {
            kind,
            launched_at: now,
            first_tb_at: None,
            ntb: req.ntb,
            threads_per_tb: kernel_fn.threads_per_block(),
            reserved_bytes: param_sz + CDP_PENDING_RECORD_BYTES,
        };
        let record = record_launch(req.kernel, record, ctx);
        self.kmu.push_device(
            visible_at,
            PendingKernel {
                kernel: req.kernel,
                kernel_fn,
                ntb: req.ntb,
                param_addr: req.param_addr,
                origin: Origin::Device { record },
            },
        );
        *ctx.progress += 1;
        Ok(())
    }
}
