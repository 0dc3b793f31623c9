//! DTBL aggregated-group launch path (`cudaLaunchAggGroup`, §4.2–4.3).

use crate::error::SimError;
use crate::gpu::{heap_alloc, Gpu, AGG_OVERFLOW_RECORD_BYTES};
use crate::stats::{DynLaunchKind, LaunchRecord};
use dtbl_core::CoalesceOutcome;
use gpu_isa::LaunchKind;
use gpu_trace::{Category, EventKind, LaunchPath};

impl Gpu {
    /// Routes one lane's launch request: DTBL launches try to coalesce
    /// onto an eligible resident kernel; CDP launches (and DTBL fallbacks)
    /// become pending device kernels.
    ///
    /// # Errors
    ///
    /// * [`SimError::UnknownKernel`] — the simulated program launched a
    ///   kernel id that is not in the loaded program (guest bug, reported
    ///   instead of panicking the simulator);
    /// * [`SimError::KmuSaturated`] — via the device-kernel path, when the
    ///   degradation ladder cannot host-serialize a launch held back by an
    ///   injected KMU cap.
    ///
    /// A spilled descriptor that finds no storage is not an error: the
    /// launch demotes to a device kernel (see `runtime::degrade`).
    pub(crate) fn handle_launch(
        &mut self,
        hw_tid: u32,
        req: gpu_isa::LaunchRequest,
        now: u64,
        visible_at: u64,
    ) -> Result<(), SimError> {
        if req.ntb == 0 {
            return Ok(());
        }
        let Some(child) = self.program.get(req.kernel) else {
            return Err(SimError::UnknownKernel(req.kernel));
        };
        let threads_per_tb = child.threads_per_block();
        // Look up (don't remove) the buffer's recorded size: a request
        // that becomes a pending device kernel keeps its entry so kernel
        // retirement can release the exact bytes from heap accounting.
        let param_sz = u64::from(self.param_bytes.get(&req.param_addr).copied().unwrap_or(0));

        let force_fallback = self.cfg.dtbl_disable_coalescing;
        let as_agg = req.kind == LaunchKind::Agg && !force_fallback;

        if as_agg {
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
            let fault_on = self.cfg.fault.active_at(now);
            let force_miss = fault_on && self.cfg.fault.force_agt_overflow;
            self.pool.agt_mut().set_force_overflow(force_miss);
            let spill_capped = fault_on
                && self
                    .cfg
                    .fault
                    .agt_overflow_capacity
                    .is_some_and(|cap| self.pool.agt().live_overflow() >= cap);
            let mut heap_failed = false;
            let mut spill_denied = false;
            let outcome = {
                let alloc = &mut self.alloc;
                let stats = &mut self.stats;
                let fault = &self.cfg.fault;
                let heap_failed = &mut heap_failed;
                let spill_denied = &mut spill_denied;
                self.pool.coalesce(eligible, marked, hw_tid, info, || {
                    if spill_capped {
                        stats.agt_overflow_exhausted += 1;
                        *spill_denied = true;
                        return None;
                    }
                    let addr =
                        heap_alloc(alloc, fault, now, stats, AGG_OVERFLOW_RECORD_BYTES as u32);
                    if addr.is_none() {
                        *heap_failed = true;
                    }
                    addr
                })
            };
            self.pool.agt_mut().set_force_overflow(false);
            if heap_failed || spill_denied {
                // The spill descriptor found no storage (no heap space, or
                // the injected spill cap): the launch demotes one rung — a
                // plain device kernel needs no descriptor — via the
                // `Fallback` outcome the failed spill already produced.
                self.note_agg_degraded(req.kernel, now);
            }
            match outcome {
                CoalesceOutcome::Coalesced { group, remark } => {
                    // The buffer now belongs to the aggregated group, not
                    // to any kernel entry; drop the size record (the
                    // group's blocks read it until the group drains).
                    self.param_bytes.remove(&req.param_addr);
                    let Some(kde) = eligible else {
                        return Err(crate::gpu::invariant(
                            now,
                            "coalesced a group without an eligible kernel".into(),
                        ));
                    };
                    if remark {
                        self.fcfs.remark(kde);
                    }
                    self.stats.agg_coalesced += 1;
                    let descr = if group.is_overflow() {
                        self.stats.agt_overflows += 1;
                        if force_miss {
                            self.stats.forced_agt_overflows += 1;
                        }
                        AGG_OVERFLOW_RECORD_BYTES
                    } else {
                        0
                    };
                    self.stats.add_pending(descr);
                    let record = self.stats.push_launch(LaunchRecord {
                        kind: DynLaunchKind::AggGroup,
                        launched_at: now,
                        first_tb_at: None,
                        ntb: req.ntb,
                        threads_per_tb,
                        reserved_bytes: param_sz + descr,
                    });
                    self.group_record.insert(group, record);
                    if self.tracer.on(Category::Launch) {
                        self.tracer.emit(
                            now,
                            EventKind::DynLaunch {
                                record: record as u32,
                                path: LaunchPath::AggGroup.code(),
                                kernel: req.kernel.0,
                                ntb: req.ntb,
                            },
                        );
                    }
                    self.progress_marker += 1;
                    return Ok(());
                }
                CoalesceOutcome::Fallback => {
                    self.stats.agg_fallbacks += 1;
                    return self.enqueue_device_kernel(
                        req,
                        threads_per_tb,
                        param_sz,
                        DynLaunchKind::AggFallback,
                        now,
                        visible_at,
                        0,
                    );
                }
            }
        }
        if req.kind == LaunchKind::Agg {
            self.stats.agg_fallbacks += 1;
            self.enqueue_device_kernel(
                req,
                threads_per_tb,
                param_sz,
                DynLaunchKind::AggFallback,
                now,
                visible_at,
                0,
            )
        } else {
            self.enqueue_device_kernel(
                req,
                threads_per_tb,
                param_sz,
                DynLaunchKind::DeviceKernel,
                now,
                visible_at,
                0,
            )
        }
    }
}
