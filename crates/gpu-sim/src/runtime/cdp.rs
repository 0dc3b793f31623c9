//! CDP device-kernel launch path (`cudaLaunchDevice`).

use crate::dispatch::{Origin, PendingKernel};
use crate::error::SimError;
use crate::gpu::{Gpu, CDP_PENDING_RECORD_BYTES};
use crate::stats::{DynLaunchKind, LaunchRecord};
use gpu_trace::{Category, EventKind};
use std::sync::Arc;

impl Gpu {
    /// Queues a device-launched kernel in the KMU (both genuine CDP
    /// launches and DTBL fallbacks end here). `attempt` counts earlier
    /// deferrals (0 for a fresh launch), so a deferred launch keeps
    /// climbing it instead of restarting.
    ///
    /// When an injected cap on the KMU's pending device-kernel pool is
    /// already met — modelling the hardware pool backing up — the launch
    /// is deferred for a backed-off retry (see `runtime::degrade`).
    ///
    /// # Errors
    ///
    /// [`SimError::UnknownKernel`] for a kernel not in the program, and
    /// [`SimError::KmuSaturated`] from the ladder's last rung when a
    /// saturated launch cannot be host-serialized.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn enqueue_device_kernel(
        &mut self,
        req: gpu_isa::LaunchRequest,
        threads_per_tb: u32,
        param_sz: u64,
        kind: DynLaunchKind,
        now: u64,
        visible_at: u64,
        attempt: u32,
    ) -> Result<(), SimError> {
        let Some(kernel_fn) = self.program.get(req.kernel) else {
            return Err(SimError::UnknownKernel(req.kernel));
        };
        let kernel_fn = Arc::clone(kernel_fn);
        let saturated = self.cfg.fault.kmu_device_capacity.is_some_and(|cap| {
            self.cfg.fault.active_at(now) && self.kmu.pending_device_kernels() >= cap
        });
        if saturated {
            self.stats.kmu_saturation_rejections += 1;
            return self.defer_launch(req, kind, now, attempt + 1);
        }
        self.stats.add_pending(CDP_PENDING_RECORD_BYTES);
        let record = self.stats.push_launch(LaunchRecord {
            kind,
            launched_at: now,
            first_tb_at: None,
            ntb: req.ntb,
            threads_per_tb,
            reserved_bytes: param_sz + CDP_PENDING_RECORD_BYTES,
        });
        if self.tracer.on(Category::Launch) {
            self.tracer.emit(
                now,
                EventKind::DynLaunch {
                    record: record as u32,
                    path: kind.path().code(),
                    kernel: req.kernel.0,
                    ntb: req.ntb,
                },
            );
        }
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
        self.progress_marker += 1;
        Ok(())
    }
}
